"""The chart layer: A(h,t), the graded ring B = A (x)_{Z[Q]} Z[P] with its
comparison map to C[P^gp], the second chart criterion, chart-change
invariance, log flatness over log points, and square-zero homotopy lifting.

``build_B`` builds B as a ``graded.ChartShape`` with its map to C; the
second chart criterion and chart-change invariance run the chart tower of
``graded`` on it.  Tor groups against B-modules are computed on the C side
by resolving over B and transporting the complex along B -> C, so no
finiteness of C over B is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .abgrp import FgAbGroup, GroupHom, direct_sum
from .monoid import FineMonoid, MonoidHom, groupification_cokernel
from . import polyalg as pa
from .polyalg import (
    ModulePresentation,
    PolyRing,
    RingMap,
    RingPresentation,
    m_scale,
)
from . import graded as gd
from .graded import ChartShape, GradedRing, UnsupportedShape


class ChartInvalid(ValueError):
    pass


class NotInjectiveH(ValueError):
    pass


class ChartsUnrelated(ValueError):
    pass


class HomotopyInvalid(ValueError):
    pass


class LiftsIncompatible(ValueError):
    pass


# -- chart data -----------------------------------------------------------------


@dataclass
class ChartData:
    """The commutative square  P --b--> C  over  Q --t--> A  along h and f."""

    q: FineMonoid
    p: FineMonoid
    h: MonoidHom
    a: RingPresentation
    c: RingPresentation
    t: list  # images of Q-generators in A
    b: list  # images of P-generators in C
    f: RingMap

    def __post_init__(self):
        if len(self.t) != len(self.q.generators):
            raise ChartInvalid("need one t-image per Q-generator")
        if len(self.b) != len(self.p.generators):
            raise ChartInvalid("need one b-image per P-generator")
        _check_monoid_map_to_ring(self.q, self.t, self.a)
        _check_monoid_map_to_ring(self.p, self.b, self.c)
        for i, qg in enumerate(self.q.generators):
            lhs = self.f.apply(self.t[i])
            rhs = _monoid_elem_in_ring(self.p, self.b, self.c, self.h.images[i])
            if not self.c.is_zero(self.c.ring.sub(lhs, rhs)):
                raise ChartInvalid("chart square does not commute")


def _check_monoid_map_to_ring(mon, images, pres):
    """Relations of the monoid must hold between the ring images."""
    ring = pres.ring
    for rel in mon.relation_lattice():
        plus = ring.mul(*(ring.pow(img, c) for c, img in zip(rel, images)
                          if c > 0))
        minus = ring.mul(*(ring.pow(img, -c) for c, img in zip(rel, images)
                           if c < 0))
        if not pres.is_zero(ring.sub(plus, minus)):
            raise ChartInvalid("monoid relations are not respected in the ring")


def _monoid_elem_in_ring(mon, images, pres, element):
    """Image of a monoid element under the multiplicative extension."""
    mult = mon.nonneg_certificate(element)
    if mult is None:
        raise ChartInvalid("element outside the monoid")
    return pres.ring.mul(*(pres.ring.pow(img, k)
                           for k, img in zip(mult, images) if k))


# -- A(h,t) ----------------------------------------------------------------------


def build_A_ht(chart: ChartData):
    """A(h,t) = A[Q^gp (+) P]/I(h,t) with the comparison map to C[P^gp].

    Q^gp and P^gp enter as ``graded.group_algebra``, named s and v; the
    monomial of a group element is its ``monomial_of_degree`` there.
    Returns (A(h,t), C[P^gp], the comparison RingMap).
    """
    field = chart.a.ring.field
    qgp, qincl, _ = chart.q.generator_hom().image()
    pgp, pincl, _ = chart.p.generator_hom().image()
    kq, _ = gd.group_algebra(field, qgp, "s")
    kp, _ = gd.group_algebra(field, pgp, "v")
    aht_names = list(chart.a.ring.names)
    q_names = list(kq.pres.ring.names)
    p_names = [f"u{j}" for j in range(len(chart.p.generators))]
    ring = PolyRing(field, aht_names + q_names + p_names)
    q_off = len(aht_names)
    p_off = q_off + len(q_names)
    rels = [pa.embed(g, ring, 0) for g in chart.a.ideal]
    rels += [pa.embed(g, ring, q_off) for g in kq.pres.ideal]
    toric, _ = pa.toric_ideal(chart.p, field, allow_units=True)
    rels += [pa.embed(g, ring, p_off) for g in toric.ideal]
    # I(h,t): t(q)[q,0] - [0,h(q)] per Q-generator
    for i, qg in enumerate(chart.q.generators):
        mono_q = _monomial_at(ring, q_off,
                              kq.monomial_of_degree(qincl.preimage(qg)))
        t_img = pa.embed(chart.t[i], ring, 0)
        rhs = _monomial_at(ring, p_off,
                           chart.p.nonneg_certificate(chart.h.images[i]))
        rels.append(ring.sub(ring.mul(t_img, mono_q), rhs))
    aht = RingPresentation(ring, rels)
    # C[P^gp]
    cring = PolyRing(field, list(chart.c.ring.names) + list(kp.pres.ring.names))
    pg_off = chart.c.ring.nvars
    crels = [pa.embed(g, cring, 0) for g in chart.c.ideal]
    crels += [pa.embed(g, cring, pg_off) for g in kp.pres.ideal]
    cpgp = RingPresentation(cring, crels)

    def in_pgp(x):
        """The monomial of C[P^gp] of x in the ambient of P."""
        return _monomial_at(cring, pg_off,
                            kp.monomial_of_degree(pincl.preimage(x)))

    # the comparison map [q,p] |-> b(p) [h(q) + p], one image per variable
    images = [pa.embed(v, cring, 0) for v in chart.f.images]
    images += [in_pgp(chart.h.apply_gp(qincl.apply(d))) for d in kq.degrees]
    images += [cring.mul(pa.embed(chart.b[j], cring, 0), in_pgp(pg))
               for j, pg in enumerate(chart.p.generators)]
    comparison = RingMap(aht, cpgp, images)
    return aht, cpgp, comparison


def _monomial_at(ring, off, mult):
    """The monomial of ``ring`` whose exponents from index ``off`` on are
    the certificate ``mult``; ChartInvalid when there is none, that is,
    when the element is outside the monoid."""
    if mult is None:
        raise ChartInvalid("element outside the monoid")
    exps = [0] * ring.nvars
    exps[off:off + len(mult)] = mult
    return ring.monomial(exps)


# -- B = A (x)_{Z[Q]} Z[P] -------------------------------------------------------


def build_B(chart: ChartData):
    """B = A (x)_{Z[Q]} Z[P], graded by (P/Q)^gp, with the ring map to C."""
    field = chart.a.ring.field
    a_names = list(chart.a.ring.names)
    p_names = [f"u{j}" for j in range(len(chart.p.generators))]
    # reuse x, y style names for small monoid ranks when free of clashes
    if len(p_names) <= 2 and not a_names:
        p_names = ["x", "y"][:len(p_names)]
    elif len(p_names) <= 2 and all(n not in a_names for n in ["x", "y"]):
        p_names = ["x", "y"][:len(p_names)]
    names = a_names + p_names
    ring = PolyRing(field, names)
    p_off = len(a_names)
    rels = [pa.embed(g, ring, 0) for g in chart.a.ideal]
    toric, _ = pa.toric_ideal(chart.p, field, allow_units=True)
    rels += [pa.embed(g, ring, p_off) for g in toric.ideal]
    for i, qg in enumerate(chart.q.generators):
        t_img = pa.embed(chart.t[i], ring, 0)
        mono = _monomial_at(ring, p_off,
                            chart.p.nonneg_certificate(chart.h.images[i]))
        rels.append(ring.sub(mono, t_img))
    pres = RingPresentation(ring, rels)
    cok, to_cok = groupification_cokernel(chart.h)
    degrees = [cok.zero()] * len(a_names)
    for pg in chart.p.generators:
        degrees.append(to_cok(pg))
    grading = GradedRing(cok, pres, degrees)
    images = [dict(v) for v in chart.f.images]
    images += [dict(v) for v in chart.b]
    to_c = RingMap(pres, chart.c, images)
    base = _base_descriptor(chart)
    return ChartShape(pres, grading, to_c, tuple(range(len(a_names))),
                      tuple(range(p_off, len(names))), base)


def _base_descriptor(chart: ChartData):
    if chart.a.ring.nvars == 0:
        return "field"
    if chart.a.ring.nvars == 1 and not chart.a.ideal:
        return ("kt", 0)
    raise UnsupportedShape("base ring must be a field or k[t]")


# -- log flatness over a point ----------------------------------------------------


def log_flat_over_point(p_monoid: FineMonoid, m: ModulePresentation):
    """Per-prime Tor vanishing over k[P], named as the ring of M; returns
    (verdict, list of entries)."""
    shape = gd.KPShape(gd.MonoidAlgebra(p_monoid, m.over.ring.field,
                                        names=list(m.over.ring.names)))
    ok, cert = gd.graded_flat(m, shape)
    return ok, cert["primes"]


# -- the second chart criterion ----------------------------------------------------


def second_chart_criterion(chart: ChartData, m: ModulePresentation):
    """Log flatness over the chart base: graded flatness of M over (G, B),
    evaluated through the chart tower on the C side.

    The tower is the free-morphism criterion, so h must be injective and
    classify as free (the monoid generators of P always form a spawning set)."""
    if not chart.h.is_injective():
        raise NotInjectiveH("the second criterion needs h injective")
    from .monoid import classify_morphism
    cls = classify_morphism(chart.h)
    if cls.free is not True:
        raise UnsupportedShape("the chart morphism does not classify as free")
    verdict, cert = gd.graded_flat(m, build_B(chart))
    return verdict, {"criterion": "second chart criterion", "tree": cert,
                     "verdict": verdict}


def first_chart_criterion_instances(chart: ChartData, m: ModulePresentation,
                                    ideal_lists):
    """Instance checks of the first criterion: Tor_1^{A(h,t)}(M[P^gp], -)
    against each supplied finite ideal of A(h,t).

    Not a decision procedure for flatness over A(h,t); each entry is an exact
    Tor vanishing computed by resolving over A(h,t) and transporting along
    the comparison map."""
    _, cpgp, comparison = build_A_ht(chart)
    # M[P^gp] = M (x)_C C[P^gp]: the same columns over the bigger ring
    mp = ModulePresentation(cpgp, m.rank,
                            [pa.embed(col, cpgp.ring, 0) for col in m.columns])
    return [pa.tor1_along(comparison, list(gens), 1, mp)
            for gens in ideal_lists]


# -- chart-change invariance -------------------------------------------------------


def unit_extension_chart(chart: ChartData, units_rank=1):
    """The chart with Q' = Q (+) Z^r, P' = P (+) Z^r, trivial unit images."""
    r = units_rank
    zgens = []
    for i in range(r):
        zgens += [tuple(1 if j == i else 0 for j in range(r)),
                  tuple(-1 if j == i else 0 for j in range(r))]
    qa, (jq, jz), _ = direct_sum([chart.q.ambient, FgAbGroup.free(r)])
    q2 = FineMonoid(qa, [jq.apply(g) for g in chart.q.generators] +
                    [jz.apply(z) for z in zgens])
    pa_, (jp, jz2), _ = direct_sum([chart.p.ambient, FgAbGroup.free(r)])
    p2 = FineMonoid(pa_, [jp.apply(g) for g in chart.p.generators] +
                    [jz2.apply(z) for z in zgens])
    h2 = MonoidHom(q2, p2,
                   [jp.apply(v) for v in chart.h.images] +
                   [jz2.apply(z) for z in zgens], check=False)
    one_a = chart.a.ring.one()
    one_c = chart.c.ring.one()
    t2 = list(chart.t) + [one_a] * (2 * r)
    b2 = list(chart.b) + [one_c] * (2 * r)
    return ChartData(q2, p2, h2, chart.a, chart.c, t2, b2, chart.f)


def chart_change_invariance(chart1: ChartData, chart2: ChartData,
                            m: ModulePresentation):
    """Builds both graded rings, certifies the canonical graded isomorphism,
    and checks the two verdicts agree on the supplied module."""
    same_c = (chart1.c.ring.names == chart2.c.ring.names and
              [chart1.c.ring.to_str(g) for g in chart1.c.gb()] ==
              [chart2.c.ring.to_str(g) for g in chart2.c.gb()])
    if not same_c:
        raise ChartsUnrelated("charts live over different rings C")
    cr1 = build_B(chart1)
    cr2 = build_B(chart2)
    fwd = _canonical_chart_map(chart1, cr1, chart2, cr2)
    bwd = _canonical_chart_map(chart2, cr2, chart1, cr1)
    # mutual inverse on generators
    for i in range(cr1.pres.ring.nvars):
        v = cr1.pres.ring.var(i)
        back = bwd.apply(fwd.apply(v))
        if not cr1.pres.eq(v, back):
            return False, {"isomorphism": False}
    gamma = _degree_iso(cr1, cr2, fwd)
    v1, _ = gd.graded_flat(m, cr1)
    v2, _ = gd.graded_flat(m, cr2)
    return v1 == v2 and gamma is not None, {
        "isomorphism": True,
        "grading_iso": gamma is not None,
        "verdicts": (v1, v2),
    }


def _canonical_chart_map(chart_from, cr_from: ChartShape, chart_to,
                         cr_to: ChartShape):
    """B -> B' sending [p] to [image of p], with A-variables fixed."""
    ring_to = cr_to.pres.ring
    images = []
    for i in cr_from.avars:
        images.append(ring_to.var(cr_to.avars[i]))
    p_off = len(cr_to.avars)
    to_ambient = _match_in_monoid(chart_from, chart_to)
    for pg in chart_from.p.generators:
        # express the image of pg inside the target monoid P'
        target = to_ambient.apply(pg)
        try:
            images.append(_monomial_at(ring_to, p_off,
                                       chart_to.p.nonneg_certificate(target)))
        except ChartInvalid:
            raise ChartsUnrelated("element outside the target monoid") from None
    return RingMap(cr_from.pres, cr_to.pres, images)


def _match_in_monoid(chart_from, chart_to):
    """The map of P-ambients behind the unit-extension relation: the
    injection of P^amb into P^amb (+) Z^r, the sum ``unit_extension_chart``
    builds, or the projection back from it.  ChartsUnrelated when the larger
    ambient is not that sum."""
    a_from, a_to = chart_from.p.ambient, chart_to.p.ambient
    up = a_to.dim >= a_from.dim
    small, big = (a_from, a_to) if up else (a_to, a_from)
    r = max(big.rank - small.rank, 0)
    total, (inj, _), (proj, _) = direct_sum([small, FgAbGroup.free(r)])
    if total != big:  # also when the larger ambient has the smaller rank
        raise ChartsUnrelated("the P ambients differ by more than units")
    return inj if up else proj


def _degree_iso(cr1: ChartShape, cr2: ChartShape, fwd: RingMap):
    """The induced isomorphism of grading groups, built on generators of G_1
    by expressing them through monoid-variable degrees; None if it fails."""
    g1, g2 = cr1.grading.group, cr2.grading.group
    if g1.dim == 0:
        return GroupHom(g1, g2, ()) if g2.is_trivial() else None
    degs1 = tuple(cr1.grading.degrees[i] for i in cr1.evars)
    deg_hom = GroupHom(FgAbGroup.free(len(degs1)), g1, degs1)
    imgs = []
    for gen in g1.generators():
        sol = deg_hom.preimage(gen)
        if sol is None:
            return None
        out = g2.zero()
        for j, c in enumerate(sol):
            # degree of the image of the j-th monoid variable in B'
            img_poly = fwd.images[cr1.evars[j]]
            d2 = _degree_of_poly(cr2, img_poly)
            if d2 is None:
                return None
            out = g2.add(out, g2.scale(c, d2))
        imgs.append(out)
    try:
        gamma = GroupHom(g1, g2, tuple(imgs))
    except ValueError:
        return None
    if not (gamma.is_injective() and gamma.is_surjective()):
        return None
    for j in range(len(cr1.evars)):
        d1 = cr1.grading.degrees[cr1.evars[j]]
        d2 = _degree_of_poly(cr2, fwd.images[cr1.evars[j]])
        if d2 is None or gamma.apply(d1) != g2.reduce(d2):
            return None
    return gamma


def _degree_of_poly(cr: ChartShape, p):
    comps = cr.grading.homogeneous_components(cr.pres.nf(p))
    if len(comps) != 1:
        return None
    return next(iter(comps))


# -- square-zero extensions and certified units -----------------------------------


@dataclass
class SquareZeroExtension:
    aprime: RingPresentation
    kernel_gens: list

    def __post_init__(self):
        self.kernel_gens = [dict(g) for g in self.kernel_gens if g]
        for g1 in self.kernel_gens:
            for g2 in self.kernel_gens:
                if not self.aprime.is_zero(self.aprime.ring.mul(g1, g2)):
                    raise ValueError("kernel does not square to zero")
        self.a = self.aprime.quotient(self.kernel_gens)


class Unit:
    """A certified unit: value and inverse, equal products verified lazily."""

    def __init__(self, pres: RingPresentation, val, inv):
        self.pres = pres
        self.val = dict(val)
        self.inv = dict(inv)

    @classmethod
    def one(cls, pres):
        return cls(pres, pres.ring.one(), pres.ring.one())

    def mul(self, other):
        r = self.pres.ring
        if r.names != other.pres.ring.names:
            # PolyRing.mul would pair exponent tuples of different lengths
            raise ValueError("units over rings with different variables")
        return Unit(self.pres, r.mul(self.val, other.val),
                    r.mul(self.inv, other.inv))

    def invert(self):
        return Unit(self.pres, self.inv, self.val)

    def pow(self, n):
        r = self.pres.ring
        val, inv = (self.val, self.inv) if n >= 0 else (self.inv, self.val)
        return Unit(self.pres, r.pow(val, abs(n)), r.pow(inv, abs(n)))

    def eq(self, other):
        return self.pres.eq(self.val, other.val)

    def is_one(self):
        return self.pres.eq(self.val, self.pres.ring.one())


def certify_unit(pres: RingPresentation, p):
    """p as a certified unit of the presented ring R, or HomotopyInvalid.

    The inverse is one ``lift_through`` of 1 through p in R as a module of
    rank 1: exact over any R, finite dimensional or not.  Its tag part is
    reduced against the augmented basis, whose tag-only elements are the
    reduced basis of R's ideal when p is a unit, so the inverse is the
    normal form of p^-1."""
    inv, = pa.lift_through([p], ModulePresentation(pres, 1), [pres.ring.one()])
    if inv is None:
        raise HomotopyInvalid("element is not a unit")
    return Unit(pres, p, inv)


def try_nth_root(pres: RingPresentation, u: Unit, n):
    """An n-th root of the unit, if one exists in the presented ring.

    Searched over the k-basis by solving x^n = u coefficient-wise through a
    field-element leading term plus a nilpotent correction."""
    field = pres.ring.field
    # candidate leading scalars
    candidates = []
    if field.char == 0:
        # rational n-th roots of the constant term of u
        const = u.val.get(((0,) * pres.ring.nvars, 0), field.zero())
        rn = _int_nth_root(abs(const.numerator), n)
        rd = _int_nth_root(const.denominator, n)
        if rn is not None and rd is not None:
            for sign in (1, -1):
                candidates.append(field.div(field.of_int(sign * rn),
                                            field.of_int(rd)))
    else:
        for c in range(1, field.char):
            if pow(c, n, field.char) == u.val.get(((0,) * pres.ring.nvars, 0), 0) % field.char:
                candidates.append(c)
                break
    for c0 in candidates:
        x0 = pres.ring.const(c0)
        x0u = certify_unit(pres, x0)
        # u / x0^n = 1 + i with i nilpotent; x = x0 (1 + i/n) works when n
        # is invertible and i^2 = 0
        ratio = u.mul(x0u.pow(-n))
        i_part = pres.ring.sub(ratio.val, pres.ring.one())
        if pres.is_zero(i_part):
            return x0u
        if pres.is_zero(pres.ring.mul(i_part, i_part)):
            ninv = field.of_int(n)
            if field.is_zero(ninv):
                continue
            corr = pres.ring.add(pres.ring.one(),
                                 m_scale(field, field.inv(ninv), i_part))
            x = pres.ring.mul(x0u.val, corr)
            xu = certify_unit(pres, x)
            if pres.eq(pres.nf(pres.ring.pow(x, n)), pres.nf(u.val)):
                return xu
    return None


def _int_nth_root(m, n):
    """The integer r >= 0 with r ** n == m, or None.  Exact at any size: a
    bisection for the least r with r ** n >= m, below 2 ** (bits(m) / n + 1)."""
    lo, hi = 0, 1 << (m.bit_length() // n + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** n < m:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** n == m else None


# -- homotopy lifting ---------------------------------------------------------------


class UnitHom:
    """A homomorphism from a canonical-form group into the units of a ring,
    stored as one certified unit per canonical generator."""

    def __init__(self, group: FgAbGroup, units, pres=None, check=True):
        self.group = group
        self.units = list(units)
        self.pres = pres if pres is not None else \
            (self.units[0].pres if self.units else None)
        if len(self.units) != group.dim:
            raise ValueError("need one unit per generator")
        if check:
            for i, u in enumerate(self.units):
                d = group.generator_order(i)
                if d and not u.pow(d).is_one():
                    raise HomotopyInvalid("unit order does not match torsion")

    def apply(self, coords):
        coords = self.group.reduce(coords)
        out = None
        for c, u in zip(coords, self.units):
            term = u.pow(c)
            out = term if out is None else out.mul(term)
        return out if out is not None else Unit.one(self.pres)


def _span_homs(mon: FineMonoid, chart_amb: FgAbGroup, chart_vals, units,
               pres):
    """(span group S = mon^gp, chart hom S -> chart_amb, unit hom S -> pres^*)
    from one chart value and one unit per generator of mon.  The values must
    respect the monoid relations (checked exactly)."""
    span, _, lift = mon.generator_hom().image()
    chart = GroupHom(FgAbGroup.free(len(mon.generators)), chart_amb,
                     tuple(chart_vals))

    def unit_at(combo):
        out = Unit.one(pres)
        for c, u in zip(combo, units):
            out = out.mul(u.pow(c))
        return out

    for rel in mon.relation_lattice():
        if not chart_amb.is_zero(chart.apply(rel)) or not unit_at(rel).is_one():
            raise HomotopyInvalid("values do not respect the monoid relations")
    combos = [lift.column(j) for j in range(span.dim)]
    return (span,
            GroupHom(span, chart_amb, tuple(chart.apply(c) for c in combos)),
            UnitHom(span, [unit_at(c) for c in combos], pres=pres, check=False))


@dataclass
class LiftProblem:
    """Square-zero lifting data in the strict chart shape.

    The log structures are R (+) units; a is valued over A', b over A = A'/I,
    eta is the homotopy Q^gp -> A^*.  All values are given per monoid
    generator and validated against the relations.
    """

    ext: SquareZeroExtension
    h: MonoidHom
    chart: FineMonoid  # R
    a_chart: list
    a_units: list  # Units over ext.aprime
    b_chart: list
    b_units: list  # Units over ext.a
    eta_units: list  # Units over ext.a, per Q-generator

    def homs(self, tower):
        """((Q^gp, chart of a, a), (P^gp, chart of b, b), eta) on the span
        groups, every unit certified in the current A' (a) or A (b, eta) of
        the tower."""
        amb = self.chart.ambient
        q, p = self.h.source, self.h.target
        a = _span_homs(q, amb, self.a_chart,
                       [tower.promote_prime(u) for u in self.a_units],
                       tower.aprime)
        b = _span_homs(p, amb, self.b_chart,
                       [tower.to_a(u) for u in self.b_units], tower.a)
        # eta has no chart part
        _, _, eta = _span_homs(q, amb, [amb.zero()] * len(q.generators),
                               [tower.to_a(u) for u in self.eta_units],
                               tower.a)
        return a, b, eta


class _Tower:
    """Tracks the current A' -> A pair through root adjunctions."""

    def __init__(self, ext: SquareZeroExtension):
        self.base_names = list(ext.aprime.ring.names)
        self.field = ext.aprime.ring.field
        self.aprime_ideal = [dict(g) for g in ext.aprime.ideal]
        self.kernel = [dict(g) for g in ext.kernel_gens]
        self.adjoined = []  # (name, n, u_poly at time of adjunction)
        self._rebuild()

    def _rebuild(self):
        ring = PolyRing(self.field, self.base_names +
                        [nm for nm, _, _ in self.adjoined])
        ideal = [pa.embed(g, ring, 0) for g in self.aprime_ideal]
        for t, (nm, n, upoly) in enumerate(self.adjoined):
            idx = len(self.base_names) + t
            ideal.append(ring.sub(ring.pow(ring.var(idx), n),
                                  pa.embed(upoly, ring, 0)))
        self.aprime = RingPresentation(ring, ideal)
        self.a = self.aprime.quotient([pa.embed(g, self.aprime.ring, 0)
                                       for g in self.kernel])

    def adjoin_root(self, n, u_unit):
        name = f"rt{len(self.adjoined)}"
        self.adjoined.append((name, n, dict(u_unit.val)))
        self._rebuild()
        idx = self.aprime.ring.nvars - 1
        return certify_unit(self.aprime, self.aprime.ring.var(idx))

    def promote_prime(self, u: Unit):
        """A unit of A' or of A, as a unit of the current A'.  Any unit of A
        lifts to A', since the kernel is nilpotent."""
        return certify_unit(self.aprime,
                            pa.embed(u.val, self.aprime.ring, 0))

    def to_a(self, u: Unit):
        """Image of an A'-unit in A."""
        return certify_unit(self.a, pa.embed(u.val, self.a.ring, 0))

    def promote(self, hom: UnitHom):
        """hom with every unit certified in the current A', or in the current
        A when hom is valued in an A (the kernel vanishes in its ring): a
        root adjoined after hom was built extends the ring under it."""
        on_a = all(hom.pres.is_zero(pa.embed(g, hom.pres.ring, 0))
                   for g in self.kernel)
        cert, pres = (self.to_a, self.a) if on_a else \
            (self.promote_prime, self.aprime)
        return UnitHom(hom.group, [cert(u) for u in hom.units], pres=pres,
                       check=False)


@dataclass
class HomotopyLift:
    tower: object
    h: MonoidHom
    span_q: FgAbGroup
    span_p: FgAbGroup
    l_chart: GroupHom  # span_p -> R^gp, the chart part of b
    l: UnitHom      # span_p -> (A')^*, the unit part
    alpha: UnitHom  # span_p -> A^*
    beta: UnitHom   # span_q -> (A')^*
    cover_adjoined: tuple

    def twist(self, gamma: UnitHom):
        """The lift (gamma l, i gamma alpha, beta gamma h) for a unit-valued
        gamma on P^gp: another valid lift of the same problem."""
        tw_l = UnitHom(self.span_p,
                       [u.mul(g) for u, g in zip(self.l.units, gamma.units)],
                       pres=self.l.pres, check=False)
        tw_alpha = UnitHom(
            self.span_p,
            [a.mul(self.tower.to_a(g))
             for a, g in zip(self.alpha.units, gamma.units)],
            pres=self.alpha.pres, check=False)
        _, _, qgp_h = self.h.groupification_hom()
        tw_beta = UnitHom(
            self.span_q,
            [b.mul(gamma.apply(qgp_h.apply(g)).invert())
             for b, g in zip(self.beta.units, self.span_q.generators())],
            pres=self.beta.pres, check=False)
        return replace(self, l=tw_l, alpha=tw_alpha, beta=tw_beta)


def homotopy_lift(problem: LiftProblem) -> HomotopyLift:
    """Construct a lift up to homotopy (l, alpha, beta), following the
    surjective / torsion-free / torsion factorization of the groupification;
    roots that do not exist are adjoined as a finite faithfully flat cover.

    Only the unit half of l is built.  alpha is unit-valued, so alpha b = i l
    forces the chart part of l to be that of b; with chart(b h) = chart(a)
    checked here, every chart identity then holds."""
    tower = _Tower(problem.ext)
    (span_q, a_chart, a), (span_p, b_chart, b), eta = problem.homs(tower)
    _, _, qgp_h = problem.h.groupification_hom()
    if b_chart.compose(qgp_h).images != a_chart.images:
        raise HomotopyInvalid("chart(b h) != chart(a)")
    # homotopy precondition: eta . b h = i a on the span generators
    for g in span_q.generators():
        if not eta.apply(g).mul(b.apply(qgp_h.apply(g))).eq(
                tower.to_a(a.apply(g))):
            raise HomotopyInvalid("eta . b h != i a")

    # factor span_q -> G -> H -> span_p
    k_grp, k_incl = qgp_h.kernel()
    g_grp, proj_g = k_incl.cokernel()
    mono1 = GroupHom(g_grp, span_p,
                     tuple(qgp_h.apply(proj_g.preimage(x))
                           for x in g_grp.generators()))
    c_grp, proj_c = mono1.cokernel()
    h_cols = [mono1.apply(x) for x in g_grp.generators()]
    free_lifts = []
    for i in range(c_grp.rank):
        gen = c_grp.generators()[i]
        free_lifts.append(proj_c.preimage(gen))
    h_gens = h_cols + free_lifts
    h_grp, h_incl, _ = GroupHom(FgAbGroup.free(len(h_gens)), span_p,
                                tuple(h_gens)).image()

    # stage 1 (case 1): lift a along the surjection span_q ->> G
    l1, alpha1, beta = _case1(tower, proj_g, mono1, a, b)
    # stage 2 (case 2): extend along G -> H, torsion-free cokernel
    mono2 = _restrict_into(h_grp, h_incl, mono1)
    l2, alpha2 = _case2(tower, mono2, h_incl, b, l1, alpha1)
    # stage 3 (case 3): extend along H -> span_p, torsion cokernel
    l3, alpha3 = _case3(tower, h_incl, b, l2, alpha2)

    # a cover adjoined in a later stage extends the ring under earlier data
    lift = HomotopyLift(tower, problem.h, span_q, span_p, b_chart,
                        tower.promote(l3), tower.promote(alpha3),
                        tower.promote(beta),
                        tuple(nm for nm, _, _ in tower.adjoined))
    errs = verify_lift_identities(lift, problem)
    if errs:
        raise HomotopyInvalid(f"constructed lift fails identities: {errs}")
    return lift


def _restrict_into(h_grp, h_incl, hom):
    """The hom source -> H through which hom factors."""
    imgs = []
    for x in hom.source.generators():
        pre = h_incl.preimage(hom.apply(x))
        if pre is None:
            raise AssertionError("factorization failed")
        imgs.append(pre)
    return GroupHom(hom.source, h_grp, tuple(imgs))


def _case1(tower, proj_g: GroupHom, mono1: GroupHom, a: UnitHom,
           b: UnitHom):
    """h surjective onto G: lift generator-wise, beta = a / (l h)."""
    g_grp = proj_g.target
    units = []
    for i, gen in enumerate(g_grp.generators()):
        d = g_grp.generator_order(i)
        if d == 0:
            units.append(a.apply(proj_g.preimage(gen)))
        else:
            m_lift = tower.promote_prime(b.apply(mono1.apply(gen)))
            i_j = m_lift.pow(d)  # = 1 + i_j with i_j in the kernel
            root = try_nth_root(tower.aprime, i_j, d)
            if root is None:
                root = tower.adjoin_root(d, i_j)
                m_lift = tower.promote_prime(m_lift)
                b = tower.promote(b)
            units.append(m_lift.mul(root.invert()))
    l1 = tower.promote(UnitHom(g_grp, units, pres=tower.aprime, check=False))
    # beta := a / (l1 . proj_g), must be unit-valued
    span_q = proj_g.source
    beta = UnitHom(span_q, [
        tower.promote_prime(a.apply(g)).mul(l1.apply(proj_g.apply(g)).invert())
        for g in span_q.generators()], pres=tower.aprime)
    # alpha1 := (i l1) / (b . mono1)
    alpha1 = UnitHom(g_grp, [
        tower.to_a(l1.apply(gen)).mul(b.apply(mono1.apply(gen)).invert())
        for gen in g_grp.generators()], pres=tower.a)
    return l1, alpha1, beta


def _case2(tower, mono2: GroupHom, h_incl: GroupHom, b: UnitHom,
           l_prev: UnitHom, alpha_prev: UnitHom):
    """G -> H injective with torsion-free (free) cokernel: split and lift the
    complement through b."""
    h_grp = mono2.target
    cok, proj = mono2.cokernel()
    if cok.torsion:
        raise AssertionError("case 2 expects a free cokernel")
    w_elems = [proj.preimage(cok.generators()[i]) for i in range(cok.rank)]
    g_imgs = [mono2.apply(x) for x in mono2.source.generators()]
    split = GroupHom(FgAbGroup.free(len(g_imgs) + len(w_elems)), h_grp,
                     tuple(g_imgs + w_elems))
    units, alpha_units = [], []
    for gen in h_grp.generators():
        sol = split.preimage(gen)
        if sol is None:
            raise AssertionError("case 2 splitting failed")
        # the G-part goes through the previous lift
        gl = mono2.source.reduce(tuple(sol[:len(g_imgs)]))
        unit = Unit.one(tower.aprime).mul(l_prev.apply(gl))
        alpha_units.append(Unit.one(tower.a).mul(alpha_prev.apply(gl)))
        # the complement goes through a lift of b
        for c, w in zip(sol[len(g_imgs):], w_elems):
            unit = unit.mul(tower.promote_prime(b.apply(h_incl.apply(w))).pow(c))
        units.append(unit)
    return (UnitHom(h_grp, units, pres=tower.aprime),
            UnitHom(h_grp, alpha_units, pres=tower.a))


def _case3(tower, h_incl: GroupHom, b: UnitHom, l_prev: UnitHom,
           alpha_prev: UnitHom):
    """H -> span_p injective with torsion cokernel: adjoin roots as needed."""
    span_p = h_incl.target
    cok, proj = h_incl.cokernel()
    if cok.rank:
        raise AssertionError("case 3 expects a torsion cokernel")
    p_elems, x_units, m_units = [], [], []
    for n_j, gen in zip(cok.torsion, cok.generators()):
        p_j = proj.preimage(gen)
        m_lift = tower.promote_prime(b.apply(p_j))
        au = tower.promote_prime(
            l_prev.apply(h_incl.preimage(span_p.scale(n_j, p_j))))
        u_j = au.mul(m_lift.pow(n_j).invert())
        root = try_nth_root(tower.aprime, u_j, n_j)
        if root is None:
            root = tower.adjoin_root(n_j, u_j)
            m_lift = tower.promote_prime(m_lift)
        p_elems.append(p_j)
        x_units.append(root)
        m_units.append(m_lift)
    # later adjunctions may have extended the ring; re-promote everything
    x_units = [tower.promote_prime(u) for u in x_units]
    m_units = [tower.promote_prime(u) for u in m_units]
    l_prev, alpha_prev = tower.promote(l_prev), tower.promote(alpha_prev)
    # define on the generators of span_p through  gen = incl(h) + sum c_j p_j
    h_imgs = [h_incl.apply(x) for x in h_incl.source.generators()]
    decomp = GroupHom(FgAbGroup.free(len(h_imgs) + len(p_elems)), span_p,
                      tuple(h_imgs + p_elems))
    units, alpha_units = [], []
    for gen in span_p.generators():
        sol = decomp.preimage(gen)
        if sol is None:
            raise AssertionError("case 3 decomposition failed")
        hpart = h_incl.source.reduce(sol[:len(h_imgs)])
        unit = l_prev.apply(hpart)
        alpha_u = alpha_prev.apply(hpart)
        for c, xu, mu in zip(sol[len(h_imgs):], x_units, m_units):
            unit = unit.mul(xu.pow(c)).mul(mu.pow(c))
            alpha_u = alpha_u.mul(tower.to_a(xu).pow(c))
        units.append(unit)
        alpha_units.append(alpha_u)
    return (UnitHom(span_p, units, pres=tower.aprime),
            UnitHom(span_p, alpha_units, pres=tower.a))


def verify_lift_identities(lift: HomotopyLift, problem: LiftProblem):
    """Check the three identities exactly on the span generators; returns a
    list of failures (empty when the lift is valid)."""
    tower = lift.tower
    (_, a_chart, a), (_, b_chart, b), eta = problem.homs(tower)
    _, _, qgp_h = lift.h.groupification_hom()
    errors = []
    for i, gen in enumerate(lift.span_p.generators()):
        if b_chart.apply(gen) != lift.l_chart.apply(gen):
            errors.append(f"alpha.b=il chart mismatch at p-generator {i}")
        elif not lift.alpha.apply(gen).mul(b.apply(gen)).eq(
                tower.to_a(lift.l.apply(gen))):
            errors.append(f"alpha.b=il unit mismatch at p-generator {i}")
    for j, gen in enumerate(lift.span_q.generators()):
        hg = qgp_h.apply(gen)
        if a_chart.apply(gen) != lift.l_chart.apply(hg):
            errors.append(f"beta.lh=a chart mismatch at q-generator {j}")
        elif not lift.beta.apply(gen).mul(lift.l.apply(hg)).eq(a.apply(gen)):
            errors.append(f"beta.lh=a unit mismatch at q-generator {j}")
        rhs = tower.to_a(lift.beta.apply(gen)).mul(lift.alpha.apply(hg))
        if not eta.apply(gen).eq(rhs):
            errors.append(f"eta=i(beta).alpha(h) mismatch at q-generator {j}")
    return errors


def verify_lift_uniqueness(lift1: HomotopyLift, lift2: HomotopyLift):
    """The unique gamma : P^gp -> (A')^* with gamma l2 = l1,
    i(gamma) alpha2 = alpha1, beta2 = beta1 gamma h.  Raises when the lifts
    are not over the same cover or the identities fail."""
    if lift1.cover_adjoined != lift2.cover_adjoined or \
            lift1.tower.aprime.ring.names != lift2.tower.aprime.ring.names:
        raise LiftsIncompatible("lifts live over different covers")
    tower = lift1.tower
    span_p = lift1.span_p
    units = []
    for gen in span_p.generators():
        if lift1.l_chart.apply(gen) != lift2.l_chart.apply(gen):
            raise LiftsIncompatible("chart parts differ; no homotopy exists")
        units.append(lift1.l.apply(gen).mul(lift2.l.apply(gen).invert()))
    try:
        gamma = UnitHom(span_p, units)
    except HomotopyInvalid as e:
        raise LiftsIncompatible(str(e))
    # verify the remaining compatibilities
    for gen in span_p.generators():
        a1 = lift1.alpha.apply(gen)
        a2 = lift2.alpha.apply(gen)
        if not tower.to_a(gamma.apply(gen)).mul(a2).eq(a1):
            raise LiftsIncompatible("alpha compatibility fails")
    _, _, qgp_h = lift1.h.groupification_hom()
    for gen in lift1.span_q.generators():
        b1 = lift1.beta.apply(gen)
        b2 = lift2.beta.apply(gen)
        # beta_2 = beta_1 . gamma(h(-)) when gamma l_2 = l_1
        if not b2.eq(b1.mul(gamma.apply(qgp_h.apply(gen)))):
            raise LiftsIncompatible("beta compatibility fails")
    return gamma
