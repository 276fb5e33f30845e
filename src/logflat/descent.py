"""Descent and gluing over fibered products of rings along surjections:
the cocartesian certificate, pullback P and descent D, the Tor-vanishing
gate, roundtrip checks, and Hom/Ext fiber-product comparisons.

The fibered product C = C_1 x_{C_0} C_2 is presented by the classical
generator recipe (lifted generator pairs plus one finitely generated
kernel), its ideal computed by elimination.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from . import polyalg as pa
from .polyalg import (
    ModulePresentation,
    PolyRing,
    RingMap,
    RingPresentation,
    m_add,
    m_neg,
)


class NotSurjective(ValueError):
    pass


class KernelNotFinitelyGenerated(ValueError):
    pass


class GateFailed(ValueError):
    pass


class NotFiniteDimensional(ValueError):
    pass


@dataclass
class GluingDatum:
    """C = C_1 x_{C_0} C_2 along surjections f_1, f_2, with projections.

    C, the projections p_i: C -> C_i and their kernels are built from the
    five given fields at construction."""

    c1: RingPresentation
    c2: RingPresentation
    c0: RingPresentation
    f1: RingMap
    f2: RingMap
    c: RingPresentation = dataclasses.field(init=False)
    p1: RingMap = dataclasses.field(init=False)
    p2: RingMap = dataclasses.field(init=False)
    ker_p1: list = dataclasses.field(init=False)
    ker_p2: list = dataclasses.field(init=False)

    def __post_init__(self):
        for f, name in ((self.f1, "f1"), (self.f2, "f2")):
            for i in range(self.c0.ring.nvars):
                if f.preimage(self.c0.ring.var(i)) is None:
                    raise NotSurjective(f"{name} misses a generator of C0")
        self._build()

    def _build(self):
        """The proof recipe: variables for the pairs (x_i, p_i), (q_j, y_j)
        and for generators of ker(f1) x 0; the ideal by elimination from the
        product ring C_1 x C_2 (a single ring with idempotent split is
        avoided by embedding into C_1 (+) C_2 coordinates)."""
        k1 = self.f1.kernel()
        # generator pairs
        pairs = []
        for i in range(self.c1.ring.nvars):
            img = self.f1.apply(self.c1.ring.var(i))
            p_i = self.f2.preimage(img)
            if p_i is None:
                raise NotSurjective("no f2-preimage for an f1-image")
            pairs.append((self.c1.ring.var(i), p_i))
        for j in range(self.c2.ring.nvars):
            img = self.f2.apply(self.c2.ring.var(j))
            q_j = self.f1.preimage(img)
            if q_j is None:
                raise NotSurjective("no f1-preimage for an f2-image")
            pairs.append((q_j, self.c2.ring.var(j)))
        for z in k1:
            pairs.append((z, self.c2.ring.zero()))
        # duplicate pair generators (a kernel generator may coincide with a
        # lifted pair) are pruned
        seen = []
        deduped = []
        for a, b in pairs:
            key = (tuple(sorted(self.c1.nf(a).items())),
                   tuple(sorted(self.c2.nf(b).items())))
            if key not in seen:
                seen.append(key)
                deduped.append((a, b))
        pairs = deduped
        # present the subring of C_1 x C_2 generated by the pairs: the
        # intersection of the two graph ideals, the kernels of the free ring
        # on the pairs to C_1 and to C_2
        zring = PolyRing(self.c1.ring.field,
                         [f"g{t}" for t in range(len(pairs))])
        free = RingPresentation(zring, [])
        g1 = RingMap(free, self.c1, [p[0] for p in pairs], check=False)
        g2 = RingMap(free, self.c2, [p[1] for p in pairs], check=False)
        i1, i2 = g1.kernel(), g2.kernel()
        self.c = RingPresentation(zring, pa.ideal_intersection(free, i1, i2))
        # C = F/(i1 cap i2) for the free ring F on the pairs, so ker p_i is
        # i_i/(i1 cap i2), generated by i_i, and the graph basis of p_i,
        # which reads only C_i's ideal and the images, is that of F -> C_i
        self.p1, self.p2 = g1.with_source(self.c), g2.with_source(self.c)
        self.ker_p1, self.ker_p2 = i1, i2
        self._to_c0 = self.f1.compose(self.p1)

    # -- certificates -------------------------------------------------------

    def to_c0(self):
        """The composite C -> C0 (both routes agree), built once so that its
        graph basis is too."""
        return self._to_c0

    def cocartesian_certificate(self):
        """C_1 (x)_C C_2 = C_0: the ideal of C_1 generated by p_1(ker p_2)
        equals ker f_1 (eq. of the pushout calculation)."""
        gens = [self.p1.apply(z) for z in self.ker_p2]
        lhs = self.c1.quotient(gens)
        rhs = self.c1.quotient(self.f1.kernel())
        return _same_quotient(lhs, rhs)

    def exact_sequence_certificate(self):
        """0 -> C -> C_1 (+) C_2 -> C_0 -> 0: injectivity of (p_1, p_2) and
        the kernel-product identity (ker p_1)(ker p_2) = 0."""
        inj = all(
            self.c.is_zero(z) for z in
            pa.ideal_intersection(RingPresentation(self.c.ring, []),
                                  self.ker_p1 + self.c.ideal,
                                  self.ker_p2 + self.c.ideal))
        prod_zero = all(
            self.c.is_zero(self.c.ring.mul(a, b))
            for a in self.ker_p1 for b in self.ker_p2)
        return inj and prod_zero


def _same_quotient(a: RingPresentation, b: RingPresentation):
    return all(b.is_zero(g) for g in a.ideal) and \
        all(a.is_zero(g) for g in b.ideal)


# -- descent data ------------------------------------------------------------------


@dataclass
class DescentDatum:
    """(M_1, M_2, phi) with phi an isomorphism of the reductions over C_0.

    The reductions ``r1``, ``r2`` and the inverse columns ``phi_inv`` are
    built at construction; ValueError when phi is not an isomorphism."""

    glue: GluingDatum
    m1: ModulePresentation
    m2: ModulePresentation
    phi: list  # columns over C_0: the image of m1's basis in m2/I2m2

    def __post_init__(self):
        self.r1 = _base_change(self.glue.f1, self.m1)
        self.r2 = _base_change(self.glue.f2, self.m2)
        if self.r1.rank != len(self.phi):
            raise ValueError("phi needs one column per generator of M1")
        self.phi_inv = pa.module_map_inverse(self.phi, self.r1, self.r2)
        if self.phi_inv is None:
            raise ValueError("phi is not invertible over C0")

    def reduction(self, which):
        """M_i / I_i M_i as a module over C_0, built once."""
        return self.r1 if which == 1 else self.r2


# -- the functors P and D ------------------------------------------------------------


def pullback_P(glue: GluingDatum, m: ModulePresentation) -> DescentDatum:
    """P(M) = (M/I_2 M, M/I_1 M) with the canonical clutching."""
    m1 = _base_change(glue.p1, m)
    m2 = _base_change(glue.p2, m)
    phi = [ModulePresentation(glue.c0, m.rank, []).basis_elem(i)
           for i in range(m.rank)]
    return DescentDatum(glue, m1, m2, phi)


def _base_change(rmap: RingMap, m: ModulePresentation):
    """M (x)_R S for the ring map R -> S: M's columns carried along it."""
    return ModulePresentation(rmap.target, m.rank,
                              [rmap.apply(c) for c in m.columns])


def lift_coefficients(glue: GluingDatum, col, via):
    """Lift a column over C_i or C_0 to a column over C through the
    surjection ``via`` (p_1, p_2 or the composite to C_0)."""
    field = glue.c.ring.field
    out = {}
    for (mono, pos), cc in col.items():
        w = via.preimage({(mono, 0): cc})
        if w is None:
            raise KernelNotFinitelyGenerated("failed to lift a coefficient")
        out = m_add(field, out, {(mm, pos): c2 for (mm, _), c2 in w.items()})
    return out


def m0_over_c(glue: GluingDatum, d: DescentDatum):
    """M_0 = M_2/I_2 M_2 as a presented C-module."""
    m0 = d.reduction(2)
    to0 = glue.to_c0()
    cols = [lift_coefficients(glue, c, to0) for c in m0.columns]
    cols += pa.ideal_rows(to0.kernel(), m0.rank)
    return ModulePresentation(glue.c, m0.rank, cols)


def descend_D(d: DescentDatum) -> ModulePresentation:
    """D(M_1, M_2, phi) = ker(M_1 (+) M_2 -> M_0), presented over C."""
    glue = d.glue
    c = glue.c
    field = c.ring.field
    r1, r2 = d.m1.rank, d.m2.rank
    dom = ModulePresentation(c, r1 + r2, _module_over_c(glue, d.m1, d.m2))
    m0c = m0_over_c(glue, d)
    to0 = glue.to_c0()
    phi_cols = []
    for i in range(r1):
        phi_cols.append(lift_coefficients(glue, d.phi[i], to0))
    map_cols = phi_cols + [m_neg(field, m0c.basis_elem(j)) for j in range(r2)]
    gens = pa.kernel_of_module_map(map_cols, dom, m0c)
    k = ModulePresentation(c, len(gens), pa.kernel_of_matrix(
        c, gens, dom.rank, dom.columns))
    k.descent_generators = gens
    return k


def _module_over_c(glue: GluingDatum, m1, m2):
    """M_1 (+) M_2 as a presented C-module: restriction of scalars along the
    surjections p_i, with kernel multiples as extra relations."""
    r1, r2 = m1.rank, m2.rank
    second = ([lift_coefficients(glue, col, glue.p2) for col in m2.columns]
              + pa.ideal_rows(glue.ker_p2, r2))
    return ([lift_coefficients(glue, col, glue.p1) for col in m1.columns]
            + pa.ideal_rows(glue.ker_p1, r1)
            + [{(mono, pos + r1): c for (mono, pos), c in col.items()}
               for col in second])


# -- gates and roundtrips -------------------------------------------------------------


def tor_gate(glue: GluingDatum, m: ModulePresentation) -> bool:
    """Tor_1^C(M, C_0) = 0."""
    j = [dict(g) for g in glue.ker_p1 + glue.ker_p2]
    return pa.tor1(m, j)


def tor_gate_side(glue: GluingDatum, which, m_i: ModulePresentation) -> bool:
    """Tor_1^{C_i}(M_i, C_0) = 0."""
    f = glue.f1 if which == 1 else glue.f2
    return pa.tor1(m_i, f.kernel())


def modules_isomorphic(m: ModulePresentation, n: ModulePresentation,
                       candidate=None):
    """Dimension-exact refutation; positive certification through the
    candidate map (kernel and cokernel both vanish)."""
    dm, dn = m.dim(), n.dim()
    if dm is not None and dn is not None and dm != dn:
        return False, "dimension mismatch"
    if candidate is None:
        return None, "no candidate map supplied"
    inv = pa.module_map_inverse(candidate, m, n)
    return (inv is not None), "certified" if inv is not None else "not invertible"


def roundtrip_check(glue: GluingDatum, m: ModulePresentation):
    """PD = Id on the descent side always; the gate makes the unit
    M -> DP(M) an isomorphism.  The converse is not a theorem (the origin
    skyscraper on the nodal ring fails the gate yet has DP(M) = M), so only
    genuine violations of the equivalence are flagged as inconsistent."""
    gate = tor_gate(glue, m)
    d = pullback_P(glue, m)
    back = descend_D(d)
    # the canonical map M -> DP(M): m |-> (m mod I2, m mod I1); its matrix
    # over the descent generators is found by lifting
    cand = _canonical_into_descent(glue, m, back)
    iso, note = modules_isomorphic(m, back, cand)
    report = {
        "gate": gate,
        "dp_dims": (m.dim(), back.dim()),
        "dp_isomorphic": iso,
        "note": note,
        "pd_certified": _pd_certificate(glue, d, back),
    }
    report["consistent"] = not (gate and iso is not True)
    return report


def _canonical_into_descent(glue, m: ModulePresentation, back):
    """Matrix of M -> D(P(M)) on generators, through the descent generators."""
    field = glue.c.ring.field
    zero = (0,) * glue.c.ring.nvars
    r = m.rank
    # the image of e_i is the pair (e_i, e_i): coordinates in C^{r1+r2}
    targets = [{(zero, i): field.one(), (zero, r + i): field.one()}
               for i in range(r)]
    cand = pa.lift_through(back.descent_generators,
                           ModulePresentation(glue.c, 2 * r), targets)
    if any(w is None for w in cand):
        return None
    return cand


def _pd_certificate(glue, d: DescentDatum, back):
    """PD(d) = d for back = D(d): the natural projections D (x)_C C_i -> M_i
    are isomorphisms (kernel and cokernel vanish)."""
    gens = back.descent_generators
    r1 = d.m1.rank
    proj1_cols = [glue.p1.apply({
        (mono, pos): c for (mono, pos), c in g.items() if pos < r1})
        for g in gens]
    proj2_cols = [glue.p2.apply({
        (mono, pos - r1): c for (mono, pos), c in g.items() if pos >= r1})
        for g in gens]
    return all(
        pa.module_map_inverse(cols, _base_change(p, back), m_i) is not None
        for p, cols, m_i in ((glue.p1, proj1_cols, d.m1),
                             (glue.p2, proj2_cols, d.m2)))


# -- Hom and Ext fiber products --------------------------------------------------------


def _precomposition(cols, rank, n: ModulePresentation, bn):
    """Precomposition Hom(R^rank, N) -> Hom(R^len(cols), N) with the matrix
    of columns ``cols``, over the k-basis ``bn`` of N, as one sparse column
    per unknown over k presented in no variables: the coordinate of b_u in
    the image of e_pos is unknown pos * len(bn) + u, and that of b_u in the
    image of column j is entry j * len(bn) + u."""
    field = n.over.ring.field
    bidx = {b: i for i, b in enumerate(bn)}
    nb = len(bn)
    out = [{} for _ in range(rank * nb)]
    for j, col in enumerate(cols):
        for (mono, pos), c in col.items():
            for b_u, b in enumerate(bn):
                prod = n.nf({(tuple(a + e for a, e in zip(b[0], mono)),
                              b[1]): c})
                out[pos * nb + b_u] = m_add(field, out[pos * nb + b_u], {
                    ((), j * nb + bidx[k]): cc for k, cc in prod.items()})
    return out


def _kernel(field, cols, rank):
    """A basis of the kernel of the k-linear map with the given sparse
    columns in k^rank: ``kernel_of_matrix`` over k presented in no
    variables, whose reduced basis is the reduced row echelon form."""
    return pa.kernel_of_matrix(RingPresentation(PolyRing(field, [])), cols,
                               rank)


def _hom_ext(m: ModulePresentation, n: ModulePresentation):
    """(basis of Hom(M, N), the k-basis of N it is written in, dim_k
    Ext^1(M, N)) for a finite dimensional target N.

    A hom is the images of M's generators over the standard monomials of N,
    and Hom(M, N) is the kernel of the precomposition with M's relation
    columns d1.  With d2 the syzygies of d1 (a two-step free resolution of
    M), Ext^1 = ker(Hom(F1, N) -> Hom(F2, N)) / im(Hom(F0, N) -> Hom(F1, N)),
    and the rank of the second map is read off the Hom basis: one kernel
    per precomposition."""
    bn = n.kbasis()
    if bn is None:
        raise NotFiniteDimensional("Hom and Ext need a finite dimensional "
                                   "target")
    field = n.over.ring.field
    f0, f1 = m.rank * len(bn), len(m.columns) * len(bn)
    hom = _kernel(field, _precomposition(m.columns, m.rank, n, bn), f1)
    if not m.columns:
        return hom, bn, 0
    d2 = pa.kernel_of_matrix(m.over, m.columns, m.rank)
    ker2 = _kernel(field, _precomposition(d2, len(m.columns), n, bn),
                   len(d2) * len(bn))
    return hom, bn, len(ker2) - (f0 - len(hom))


def hom_dimension(m, n):
    return len(_hom_ext(m, n)[0])


def ext1_dimension(m: ModulePresentation, n: ModulePresentation):
    """dim_k Ext^1(M, N); 0 for a free M, whatever N."""
    return _hom_ext(m, n)[2] if m.columns else 0


def hom_ext_fiber_product(glue: GluingDatum, m: ModulePresentation,
                          n: ModulePresentation):
    """Compare Hom and Ext^1 with the fiber products of their restrictions."""
    if not (tor_gate(glue, m) and tor_gate(glue, n)):
        raise GateFailed("both modules must pass the Tor gate")
    dm = pullback_P(glue, m)
    dn = pullback_P(glue, n)
    hom, _, ext_c = _hom_ext(m, n)
    s1 = _hom_ext(dm.m1, dn.m1)
    s2 = _hom_ext(dm.m2, dn.m2)
    s0 = _hom_ext(dm.reduction(2), dn.reduction(2))
    hom_c = len(hom)
    h1, h2, h0 = (len(s[0]) for s in (s1, s2, s0))
    e1, e2, e0 = (s[2] for s in (s1, s2, s0))
    fiber = _fiber_dimension(glue, dm, dn, s1, s2, s0)
    report = {
        "hom": {"glued": hom_c, "sides": (h1, h2), "overlap": h0,
                "fiber_product": fiber},
        "ext1": {"glued": ext_c, "sides": (e1, e2), "overlap": e0},
        "hom_matches": hom_c == fiber,
    }
    # when the overlap Ext vanishes the fiber product is the direct sum
    if e0 == 0:
        report["ext1_fiber_product"] = e1 + e2
        report["ext1_matches"] = ext_c == e1 + e2
    return report


def _fiber_dimension(glue, dm, dn, s1, s2, s0):
    """dim(H_1 x_{H_0} H_2), s1, s2, s0 being the ``_hom_ext`` results of
    the two sides and the overlap: the pairs (a, b) of side homs with equal
    restrictions to C_0, the kernel of (r_1, -r_2).  A restriction is
    written over the k-basis of N_0, in Hom(F_0, N_0), which contains H_0,
    one column per side hom; negating r_2 changes no rank, so the kernel of
    (r_1, r_2) has the same dimension."""
    n0, bn0 = dn.reduction(2), s0[1]
    idx0 = {b: i for i, b in enumerate(bn0)}
    cols = []
    for f, m_i, (basis, bn_i, _) in ((glue.f1, dm.m1, s1),
                                     (glue.f2, dm.m2, s2)):
        nb = len(bn_i)
        for v in basis:
            # v gives the images of m_i's generators over bn_i
            col = {}
            for pos in range(m_i.rank):
                img = f.apply({bn_i[u - pos * nb]: c
                               for (_, u), c in v.items() if u // nb == pos})
                col.update({((), pos * len(bn0) + idx0[k]): c
                            for k, c in n0.nf(img).items()})
            cols.append(col)
    return len(_kernel(glue.c0.ring.field, cols,
                       dm.reduction(2).rank * len(bn0)))
