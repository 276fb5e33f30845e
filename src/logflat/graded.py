"""Graded rings and modules: homogeneous and semiprime ideals, the
monoid-ideal correspondence, and the graded-flatness decision procedures.

The dispatcher covers the shapes the criteria are proved for:

* monoid algebras k[P] of pointed fine monoids (per-prime Tor vanishing),
* charts B = A (x)_{Z[Q]} Z[P] with monomial spawning variables, through the
  one chart tower of the library (the nodal ring k[x,y]/(xy) is the basic
  case; the second chart criterion of ``chart`` runs the same tower),
* group algebras A[G] (reduction to the degree-zero part).

Base flatness over k[t] is decided exactly, over the base field: under an
order that compares t last, the leading coefficients in k[t] of one module
Groebner basis multiply to f*, the torsion is killed by a power of f*, and
torsion-freeness reduces to one kernel computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abgrp import FgAbGroup, GroupHom
from .monoid import FineMonoid, MonoidIdeal
from . import polyalg as pa
from .polyalg import (
    ModulePresentation,
    PolyRing,
    RingMap,
    RingPresentation,
    buchberger,
    regular_element_test,
    toric_ideal,
)


class NotHomogeneous(ValueError):
    pass


class UnsupportedIdealClass(ValueError):
    pass


class UnsupportedShape(ValueError):
    pass


class GradedRing:
    """A presented ring with a degree map from variables to an abelian group."""

    def __init__(self, group: FgAbGroup, pres: RingPresentation, degrees):
        self.group = group
        self.pres = pres
        self.degrees = tuple(group.reduce(d) for d in degrees)
        if len(self.degrees) != pres.ring.nvars:
            raise ValueError("need one degree per variable")
        # the monoid of the variable degrees; it drops zero and repeated
        # degrees, so each generator stands for the first variable of it
        self.degree_monoid = FineMonoid(group, self.degrees)
        self._first_variable = tuple(
            self.degrees.index(g) for g in self.degree_monoid.generators)
        for g in pres.ideal:
            if not self.is_homogeneous_poly(g):
                raise NotHomogeneous("ideal generator is not homogeneous")

    def degree_of_monomial(self, mono):
        d = self.group.zero()
        for e, dg in zip(mono, self.degrees):
            if e:
                d = self.group.add(d, self.group.scale(e, dg))
        return d

    def homogeneous_components(self, p):
        comps = {}
        for (mono, pos), c in p.items():
            d = self.degree_of_monomial(mono)
            comps.setdefault(d, {})[(mono, pos)] = c
        return comps

    def is_homogeneous_poly(self, p):
        return len(self.homogeneous_components(p)) <= 1

    def monomial_of_degree(self, d):
        """A monomial of degree d, or None when there is none: the
        ``nonneg_certificate`` of d over the monoid of the variable degrees,
        each generator's multiplicity put on the first variable of that
        degree.  It holds for any grading, a regraded one too."""
        mult = self.degree_monoid.nonneg_certificate(d)
        if mult is None:
            return None
        exps = [0] * len(self.degrees)
        for i, k in zip(self._first_variable, mult):
            exps[i] = k
        return tuple(exps)


def is_homogeneous_ideal(gr: GradedRing, gens):
    """Each component of each generator must lie in the ideal they generate."""
    ideal = RingPresentation(gr.pres.ring, list(gr.pres.ideal) + [dict(g) for g in gens])
    for g in gens:
        for comp in gr.homogeneous_components(g).values():
            if not ideal.is_zero(comp):
                return False
    return True


# -- monoid algebras -----------------------------------------------------------


class MonoidAlgebra:
    """k[P] for a pointed fine monoid, with its ambient-group grading."""

    def __init__(self, monoid: FineMonoid, field=pa.QQ, names=None):
        self.monoid = monoid
        pres, degs = toric_ideal(monoid, field, names)
        self.graded = GradedRing(monoid.ambient, pres, degs)

    @property
    def pres(self):
        return self.graded.pres

    def to_ring_ideal(self, ideal: MonoidIdeal) -> list:
        """The monomials of the ideal's generators, each the monomial of its
        ``nonneg_certificate`` over the monoid's generators."""
        ring = self.pres.ring
        gens = []
        for g in ideal.generators:
            mult = self.monoid.nonneg_certificate(g)
            if mult is None:
                raise ValueError("element is not in the monoid")
            gens.append(ring.monomial(mult))
        return gens

    def to_monoid_ideal(self, gens) -> MonoidIdeal:
        if not is_homogeneous_ideal(self.graded, gens):
            raise NotHomogeneous("ideal is not homogeneous")
        return MonoidIdeal(self.monoid, [
            self.graded.degree_of_monomial(mono)
            for g in gens for (mono, _), _c in self.pres.nf(g).items()])

    def is_semiprime(self, gens) -> bool:
        """Semiprime homogeneous ideals of k[P] are exactly k[I] for prime I."""
        for g in gens:
            if len(self.pres.nf(g)) > 1:
                raise UnsupportedIdealClass("only monomial ideals are supported")
        ideal = self.to_monoid_ideal(gens)
        return any(ideal == p for p in self.monoid.prime_ideals())

    def is_prime(self, gens) -> bool:
        semi = self.is_semiprime(gens)
        span, _, _ = self.monoid.generator_hom().image()
        if span.is_torsion_free():
            return semi
        if not semi:
            return False
        if not gens and self.monoid.is_group():
            # k[G] is a domain iff G is torsion-free
            return span.is_torsion_free()
        raise UnsupportedIdealClass("primeness undecided for this shape")


# -- graded flatness: shapes and dispatcher ------------------------------------


@dataclass
class KPShape:
    """B = k[P], graded by the ambient group of the pointed fine monoid P."""

    algebra: MonoidAlgebra


@dataclass
class ChartShape:
    """B = A (x)_{Z[Q]} Z[P] with its map to the ring C of the modules and
    monomial spawning variables ``evars``.

    * ``pres``: the presented ring B (A-variables then monoid variables),
    * ``grading``: B graded by (P/Q)^gp,
    * ``to_c``: the ring map B -> C; the identity of ``pres`` for modules
      over B itself,
    * ``avars``: indices of the A-variables,
    * ``evars``: indices of the spawning-set variables, quotiented recursively,
    * ``base``: 'field' or ('kt', i), t being the i-th A-variable, describing
      A itself.
    """

    pres: RingPresentation
    grading: GradedRing
    to_c: RingMap
    avars: tuple
    evars: tuple
    base: object


@dataclass
class GroupAlgebraShape:
    ring: GradedRing


def graded_flat(m: ModulePresentation, shape):
    """Graded-flatness verdict with a certificate tree."""
    if isinstance(shape, KPShape):
        return _flat_kp(m, shape)
    if isinstance(shape, ChartShape):
        return _flat_chart(m, shape)
    if isinstance(shape, GroupAlgebraShape):
        return _flat_group_algebra(m, shape)
    raise UnsupportedShape(f"no graded-flatness procedure for {shape!r}")


def _flat_kp(m: ModulePresentation, shape: KPShape):
    alg = shape.algebra
    entries = []
    verdict = True
    for prime in alg.monoid.prime_ideals():
        zero = pa.tor1(m, alg.to_ring_ideal(prime))
        entries.append({"prime": [list(g) for g in prime.generators],
                        "tor1_zero": zero})
        verdict = verdict and zero
    return verdict, {"criterion": "kP per-prime Tor", "primes": entries,
                     "verdict": verdict}


def _flat_chart(m: ModulePresentation, shape: ChartShape):
    """The chart tower for M over C: flat over the base, and per spawning
    variable z_e, Tor_1^B(M, B/(z_e)) = 0 plus the same test for M/z_e M over
    B/(z_e), recursively.

    At a tower level B_level = B/(killed variables), the Tor test resolves
    B_level/(z_e) over B_level and transports the complex along B_level ->
    C/(images of the killed variables), the ring of M, so no finiteness of C
    over B is needed.

    A subtree depends only on the set of killed variables: its spawning
    variables are ``shape.evars`` minus that set in their original order,
    and its module lives over C/(images of the killed variables) in any kill
    order.  So each set is computed once per call, memoized on
    ``frozenset(killed)``, and the certificate tree keeps one branch per
    ordering with the subtrees of equal sets shared.  For n spawning
    variables that is 2^n computed levels and n*2^(n-1) Tor tests, where
    the tree has sum_k n!/(n-k)! nodes."""
    ring = shape.pres.ring
    memo = {}

    def level_of(m, evars, killed):
        key = frozenset(killed)
        if key in memo:
            return memo[key]
        level = shape.pres.quotient([ring.var(k) for k in killed])
        base_ok, base_cert = _base_flat(shape, m, level)
        cert = {"base": base_cert, "spawning": []}
        verdict = base_ok
        to_m = RingMap(level, m.over, shape.to_c.images, check=False)
        for e in evars:
            tz = pa.tor1_along(to_m, [ring.var(e)], 1, m)
            sub_m = quotient_module(m, [shape.to_c.apply(ring.var(e))])
            sub_ok, sub_cert = level_of(sub_m, [v for v in evars if v != e],
                                        killed + (e,))
            cert["spawning"].append({"variable": ring.names[e],
                                     "tor1_zero": tz, "quotient": sub_cert})
            verdict = verdict and tz and sub_ok
        cert["verdict"] = verdict
        memo[key] = verdict, cert
        return memo[key]

    return level_of(m, list(shape.evars), ())


def _base_flat(shape: ChartShape, m: ModulePresentation, level):
    """Flatness of M over (the image of) the base A at the tower level
    ``level`` = B/(killed variables).

    The contraction of the level's ideal to the A-variables is computed by
    elimination; supported leaves are fields (always flat), the zero ring,
    and k[t] (torsion-freeness by ``flat_over_kt``, whose ``bad_locus`` f*
    depends on the presentation of M only, not on the kill order)."""
    if shape.base == "field" or not shape.avars:
        return True, {"base": "field", "flat": True}
    contraction = pa.eliminate_ideal(level, keep=shape.avars)
    ring = shape.pres.ring
    base_ring = PolyRing(ring.field, [ring.names[i] for i in shape.avars])
    base_ideal = []
    for g in contraction:
        base_ideal.append({(tuple(mono[v] for v in shape.avars), 0): c
                           for (mono, _), c in g.items()})
    base_pres = RingPresentation(base_ring, base_ideal)
    if base_pres.contains_one():
        return True, {"base": "zero ring", "flat": True}
    if ModulePresentation(base_pres, 1).dim() == 1:
        return True, {"base": "residue field", "flat": True}
    if shape.base[0] == "kt" and not base_ideal:
        t_b = ring.var(shape.avars[shape.base[1]])
        t_idx = _variable_index(m.over.ring, shape.to_c.apply(t_b))
        if t_idx is None:
            raise UnsupportedShape("t must map to a variable of C")
        ok, fstar = flat_over_kt(m, t_idx)
        return ok, {"base": "k[t]", "flat": ok, "bad_locus": fstar}
    raise UnsupportedShape("base ring is neither a field nor k[t]")


def _variable_index(ring, p):
    if len(p) != 1:
        return None
    ((mono, pos), c) = next(iter(p.items()))
    if pos != 0 or sum(mono) != 1 or c != ring.field.one():
        return None
    return mono.index(1)


def flat_over_kt(m: ModulePresentation, t_index):
    """Exact flatness of a finitely presented module over the subring k[t].

    One module Groebner basis of the relations over k, under an order that
    compares the other variables, then the position, before t.  By generic
    freeness (Eisenbud, Commutative Algebra, Thm 14.4) it is also a basis
    over k(t): for f in N k(t)[x], some d(t) f lies in N, and its leading
    term is a t-power times lt_x(f).  The leading coefficient of a basis
    element, the sum of its terms that share the leading x-part and
    position, lies in k[t]; over k[t] with f*, the product of the distinct
    non-constant ones, inverted, M is free on the standard monomials.  So
    the torsion is killed by a power of f*, and M is flat over k[t] iff
    multiplication by f* is injective, that is, by each of its factors.
    The factors are tested one at a time: on random small modules over
    k[t,x,y] that took a fifth to a quarter of the time of one test of f*.
    The basis is reduced, so f* depends on the presentation only, not on
    the kill order of a tower.
    """
    ring = m.over.ring
    other = [i for i in range(ring.nvars) if i != t_index]

    def head(term):
        mono, pos = term
        return pa.degrevlex_key(tuple(mono[i] for i in other)), -pos

    def key(term):
        return head(term) + (term[0][t_index],)

    gb = buchberger(ring.field, m.relations(), key)
    lcs = []
    for g in gb:
        lead = head(pa.m_lt(g, key))
        lc = {(tuple(e if i == t_index else 0 for i, e in enumerate(mono)),
               0): c for (mono, pos), c in g.items()
              if head((mono, pos)) == lead}
        if lc != ring.one() and lc not in lcs:
            lcs.append(lc)
    return (all(regular_element_test(lc, m) for lc in lcs),
            ring.to_str(ring.mul(*lcs)))


# -- the nodal ring and its criteria panel --------------------------------------


def nodal_ring(field=pa.QQ):
    """B = k[x,y]/(xy) graded by Z with |x| = 1, |y| = -1, as a chart shape."""
    ring = PolyRing(field, ["x", "y"])
    shape = _nodal_shape(RingPresentation(ring, [ring.parse("x*y")]))
    return shape.pres, shape.grading, shape


def _nodal_shape(pres):
    """The chart shape of the nodal ring presented by ``pres``, over the
    identity of ``pres``."""
    grading = GradedRing(FgAbGroup.free(1), pres, [(1,), (-1,)])
    return ChartShape(pres, grading, RingMap.identity(pres), avars=(),
                      evars=(0, 1), base="field")


def quotient_module(m: ModulePresentation, extra_ring_gens):
    """M (x)_B B/(extra): same columns over the quotient presentation."""
    sub = m.over.quotient(extra_ring_gens)
    return ModulePresentation(sub, m.rank, m.columns)


def nodal_criteria_panel(m: ModulePresentation, shape=None):
    """All ten equivalent conditions for modules over k[x,y]/(xy), evaluated
    independently.  Returns a dict of booleans."""
    pres = m.over
    ring = pres.ring
    x, y = ring.var("x"), ring.var("y")
    if shape is None:
        shape = _nodal_shape(pres)
    panel = {}
    panel["graded_flat"], _ = graded_flat(m, shape)
    panel["tor_maximal_ideal"] = pa.tor1(m, [x, y])
    panel["clutching_injective"] = _nodal_map_injective(m, x, y)
    mx = quotient_module(m, [x])
    my = quotient_module(m, [y])
    tor_x = pa.tor1(m, [x])
    tor_y = pa.tor1(m, [y])
    y_reg = regular_element_test(y, mx)
    x_reg = regular_element_test(x, my)
    gf_x = pa.tor1(mx, [y])
    gf_y = pa.tor1(my, [x])
    panel["tor_both_sides_regular"] = tor_x and y_reg and tor_y and x_reg
    panel["tor_both_sides_graded"] = tor_x and gf_x and tor_y and gf_y
    panel["tor_x_y_regular"] = tor_x and y_reg
    panel["tor_x_graded"] = tor_x and gf_x
    panel["tor_y_x_regular"] = tor_y and x_reg
    panel["tor_y_graded"] = tor_y and gf_y
    # Tor_1(M, B/m) is a B/m-module, so localizing it at m = (x, y) changes
    # nothing: the localized condition is the maximal-ideal one
    panel["localized"] = panel["tor_maximal_ideal"]
    return panel


def _nodal_map_injective(m: ModulePresentation, x, y):
    """Injectivity of M/yM (+) M/xM -> M, (a, b) |-> xa + yb."""
    r = m.rank
    second = [{(mono, pos + r): v for (mono, pos), v in c.items()}
              for c in m.columns + pa.ideal_rows([x], r)]
    domain = ModulePresentation(m.over, 2 * r,
                                m.columns + pa.ideal_rows([y], r) + second)
    return pa.is_injective(pa.ideal_rows([x], r) + pa.ideal_rows([y], r),
                           domain, m)


# -- group algebras --------------------------------------------------------------


def group_algebra(field, g: FgAbGroup, prefix="u"):
    """(GradedRing, shape) for k[G], the one presentation of a group
    algebra: per free generator e_i the variables <prefix>i and
    <prefix>bi of degrees e_i and -e_i with <prefix>i*<prefix>bi - 1, then
    per torsion generator of order d the variable <prefix>tj with
    <prefix>tj^d - 1."""
    gens = g.generators()
    names, degrees = [], []
    for i in range(g.rank):
        names += [f"{prefix}{i}", f"{prefix}b{i}"]
        degrees += [gens[i], g.neg(gens[i])]
    for j in range(len(g.torsion)):
        names.append(f"{prefix}t{j}")
        degrees.append(gens[g.rank + j])
    ring = PolyRing(field, names)
    relations = [ring.sub(ring.mul(ring.var(2 * i), ring.var(2 * i + 1)),
                          ring.one()) for i in range(g.rank)]
    relations += [ring.sub(ring.pow(ring.var(2 * g.rank + j), d), ring.one())
                  for j, d in enumerate(g.torsion)]
    gr = GradedRing(g, RingPresentation(ring, relations), degrees)
    return gr, GroupAlgebraShape(gr)


@dataclass
class GradedModule:
    """Free module with degree shifts and homogeneous relation columns."""

    over: GradedRing
    shifts: tuple
    columns: list

    def __post_init__(self):
        self.shifts = tuple(self.over.group.reduce(s) for s in self.shifts)
        self.columns = [dict(c) for c in self.columns if c]
        for col in self.columns:
            degs = set()
            for (mono, pos), _ in col.items():
                d = self.over.group.add(self.over.degree_of_monomial(mono),
                                        self.shifts[pos])
                degs.add(d)
            if len(degs) > 1:
                raise NotHomogeneous("relation column is not homogeneous")

    def presentation(self):
        return ModulePresentation(self.over.pres, len(self.shifts), self.columns)


def degree_zero_part(gm: GradedModule):
    """The equivalence Mod(G, A[G]) -> Mod(A) at A = k: extract the
    coefficient matrix of the relations."""
    gr = gm.over
    field = gr.pres.ring.field
    base_ring = PolyRing(field, [])
    base = RingPresentation(base_ring, [])
    cols = []
    for col in gm.columns:
        nf_entries = {}
        for (mono, pos), c in col.items():
            entry = gr.pres.nf({(mono, 0): c})
            for (m2, _), c2 in entry.items():
                k = pos
                nf_entries[k] = field.add(nf_entries.get(k, field.zero()), c2)
        out = {((), p): c for p, c in nf_entries.items() if not field.is_zero(c)}
        if out:
            cols.append(out)
    return ModulePresentation(base, len(gm.shifts), cols)


def extend_scalars_group_algebra(base_mod: ModulePresentation, gr: GradedRing,
                                 shifts):
    """k-module back to a graded k[G]-module, basis i in degree shifts[i]."""
    cols = []
    for col in base_mod.columns:
        out = {}
        for (_, pos), c in col.items():
            mono = gr.monomial_of_degree(gr.group.neg(shifts[pos]))
            if mono is None:
                raise UnsupportedShape("degree not realizable by a monomial")
            out[(mono, pos)] = c
        cols.append(out)
    return GradedModule(gr, shifts, cols)


def _flat_group_algebra(m, shape: GroupAlgebraShape):
    """Over (G, A[G]) with A = k a field, graded flatness is flatness over k,
    which always holds; the substance is the certified reduction to M_0."""
    if isinstance(m, GradedModule):
        m0 = degree_zero_part(m)
        back = extend_scalars_group_algebra(m0, shape.ring, m.shifts)
        ok = graded_modules_isomorphic(m, back)
        return True, {"criterion": "group algebra reduction",
                      "degree_zero_rank": m0.rank,
                      "roundtrip_certified": ok,
                      "verdict": True}
    return True, {"criterion": "group algebra reduction",
                  "verdict": True,
                  "note": "every module is flat over the base field"}


def graded_modules_isomorphic(gm1: GradedModule, gm2: GradedModule):
    """Certify the canonical identity-on-basis map is an isomorphism (the
    relation spans agree after normal forms)."""
    if gm1.shifts != gm2.shifts:
        return False
    p1, p2 = gm1.presentation(), gm2.presentation()
    return all(p2.is_zero_elem(c) for c in p1.columns) and \
        all(p1.is_zero_elem(c) for c in p2.columns)


def regrade(gr: GradedRing, gamma: GroupHom):
    """Regrade along an injective group hom (verdicts are invariant)."""
    if not gamma.is_injective():
        raise ValueError("regrading must be injective")
    return GradedRing(gamma.target, gr.pres,
                      [gamma.apply(d) for d in gr.degrees])


# -- the fallback finitely-generated-homogeneous-ideal test ----------------------


def graded_flat_on_ideal_family(m: ModulePresentation, ideals):
    """Exactness of 0 -> I -> A -> A/I -> 0 after tensoring, for each listed
    finitely generated homogeneous ideal: Tor_1(M, A/I) = 0.

    Complete only relative to the supplied family; used for cross-checks."""
    results = []
    for gens in ideals:
        results.append(pa.tor1(m, list(gens)))
    return all(results), results
