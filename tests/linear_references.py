"""Earlier implementations kept as oracles for the tests.

The library solves every linear system over the field with the module
Groebner engine: Hom and Ext^1 are one ``kernel_of_matrix`` over the field
presented in no variables per precomposition, unit inverses and module-map
inverses go through the one lift (``polyalg.lift_through``), and a face's
dimension is read off the face lattice.  Before, a Gauss-Jordan
elimination (``row_reduce``, with ``nullspace`` and ``coordinates`` over
it) served them: Hom and Ext^1 took separate nullspaces, a unit inverse
solved a linear system over the k-basis of the ring, a map inverse built
the kernel of the map before lifting, and a face's dimension was the rank
of its generators.  That elimination and those routes are kept here, as
they were, so the oracles share no elimination with the library, and the
tests compare the library against them.  ``solve_linear`` and ``m_monic``
left the library with their last callers there; the oracles and tests here
still use them.  ``transport_col``, a column carried along a ring map entry
by entry, is now ``RingMap.apply``; the earlier loop is kept too.

``build_A_ht`` wrote out its group algebras by hand and gave a group
element its monomial in closed form (``_group_vars``, ``_group_monomial``);
the library now embeds ``graded.group_algebra`` and reads every monomial
off ``nonneg_certificate``.  The hand-written route is kept as the oracle
for A(h,t) and C[P^gp].

``polyalg.FieldQ`` kept every rational as a ``Fraction``; it now keeps an
integral one as an ``int``.  The ``Fraction`` field is kept as
``FractionQQ``, and the tests run the Groebner engine over both.

The monomial orders and ``FgAbGroup``'s element arithmetic now run their
loops through ``map`` over ``operator`` functions.  Their generator-
expression forms are kept as ``degrevlex_key``, ``weighted_revlex_key``,
``group_reduce``, ``group_add`` and ``group_sub``.

The morphism classifier now reads injectivity and strictness off canonical
forms (finitely generated abelian groups are Hopfian) and verticality off
unit indices (Farkas).  Before, a group hom was injective when its
``kernel()`` was trivial; a monoid hom when each vector of its kernel
lattice solved over the source relations; strict when the induced map of
sharp monoids, built by matching sharp generators, was injective and onto;
and vertical when one membership search per target generator found its
negative.  Those procedures are kept as ``group_is_injective``,
``monoid_is_injective``, ``is_strict`` and ``is_vertical``.  The induced
map of groupifications and the cokernel of groupifications now read the
images of the generators off the hom; before, each was found by solving for
a preimage in the source (``apply_gp``), kept as ``groupification_hom`` and
``groupification_cokernel``.

``polyalg.buchberger`` keeps one reducer table for its basis, forms no pair
of two single-term elements and, in its final pass, reduces only the
elements that a later leading term can change.  The loop that formed every
pair and reduced every survivor is kept as ``buchberger``."""

import heapq
from fractions import Fraction
from operator import sub

from logflat import polyalg as pa
from logflat.abgrp import FgAbGroup, GroupHom
from logflat.chart import ChartData, ChartInvalid, HomotopyInvalid, Unit
from logflat.descent import (
    GateFailed,
    NotFiniteDimensional,
    pullback_P,
    tor_gate,
)
from logflat.graded import UnsupportedShape
from logflat.monoid import FineMonoid, MonoidHom
from logflat.polyalg import (
    ModulePresentation,
    PolyRing,
    RingMap,
    RingPresentation,
    is_injective,
    kernel_of_matrix,
    lift_through,
    m_add,
)


# -- the rationals with Fraction coefficients ----------------------------------


class FractionQQ:
    """The rationals, with Fraction coefficients."""

    char = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def of_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def div(self, a, b):
        return a / b

    def is_zero(self, a):
        return a == 0

    def eq(self, a, b):
        return a == b

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, FractionQQ)

    def __hash__(self):
        return hash("QQ")


# -- monomial orders and group elements, by generator expressions ---------------


def degrevlex_key(mono):
    return (sum(mono), tuple(-e for e in reversed(mono)))


def weighted_revlex_key(weights, last):
    """Graded reverse lex for the given positive weights, with the variable
    ``last`` treated as the cheapest (rightmost) one."""
    def key(mono):
        n = len(mono)
        perm = [i for i in range(n) if i != last] + [last]
        w = sum(weights[i] * mono[i] for i in range(n))
        return (w, tuple(-mono[perm[i]] for i in reversed(range(n))))
    return key


def group_reduce(group: FgAbGroup, vec):
    vec = tuple(int(x) for x in vec)
    if len(vec) != group.dim:
        raise ValueError("element has wrong length")
    free = vec[:group.rank]
    tors = tuple(x % d for x, d in zip(vec[group.rank:], group.torsion))
    return free + tors


def group_add(group: FgAbGroup, x, y):
    return group_reduce(group, tuple(a + b for a, b in zip(x, y)))


def group_sub(group: FgAbGroup, x, y):
    return group_reduce(group, tuple(a - b for a, b in zip(x, y)))


# -- linear algebra over the field -----------------------------------------------


def coordinates(field, v, basis):
    """The coefficients of v, a combination of the terms in ``basis`` (a
    normal form against a standard-monomial basis), in basis order."""
    idx = {b: i for i, b in enumerate(basis)}
    out = [field.zero()] * len(basis)
    for k, c in v.items():
        out[idx[k]] = c
    return out


def row_reduce(field, rows, ncols):
    """Gauss-Jordan elimination over ``field``, pivoting in the first
    ``ncols`` columns only; entries past them (a right-hand side, say) are
    carried along.

    Returns (rows, pivots): the reduced rows, a new list whose first
    len(pivots) rows hold a leading 1 in the pivot column of the same index
    and zeros in every other pivot column, and whose remaining rows are zero
    in the first ``ncols`` columns."""
    rows = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows))
                    if not field.is_zero(rows[i][c])), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and not field.is_zero(row[c]):
                f = row[c]
                rows[i] = [field.sub(a, field.mul(f, b))
                           for a, b in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots


def matrix_rank(field, rows, ncols):
    """The rank of the matrix with the given rows, by ``row_reduce``."""
    return len(row_reduce(field, rows, ncols)[1])


def nullspace(field, rows, ncols):
    """A basis of {x : rows x = 0}, one vector per non-pivot column."""
    rows, pivots = row_reduce(field, rows, ncols)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        v = [field.zero()] * ncols
        v[free] = field.one()
        for row, c in zip(rows, pivots):
            v[c] = field.neg(row[free])
        basis.append(v)
    return basis


def solve_linear(field, cols, target):
    """A solution x of sum_j x_j cols_j = target, with every free unknown
    zero, or None if there is none."""
    k = len(cols)
    rows, pivots = row_reduce(
        field, [[col[i] for col in cols] + [t] for i, t in enumerate(target)],
        k)
    if any(not field.is_zero(row[k]) for row in rows[len(pivots):]):
        return None
    x = [field.zero()] * k
    for row, c in zip(rows, pivots):
        x[c] = row[k]
    return x


def m_monic(field, f, key):
    """f scaled so that its leading coefficient under ``key`` is 1."""
    if not f:
        return f
    c = f[pa.m_lt(f, key)]
    if field.eq(c, field.one()):
        return f
    return pa.m_scale(field, field.inv(c), f)


# -- Hom and Ext^1: one nullspace for Hom, two more for each Ext^1 ------------


def _precomposition(cols, rank, n: ModulePresentation, bn):
    """Precomposition Hom(R^rank, N) -> Hom(R^len(cols), N) with the matrix
    of columns ``cols``, as a matrix over the k-basis ``bn`` of N: the
    coordinate of b_u in the image of e_pos is unknown pos * len(bn) + u."""
    field = n.over.ring.field
    bidx = {b: i for i, b in enumerate(bn)}
    nb = len(bn)
    mat = [[field.zero()] * (rank * nb) for _ in range(len(cols) * nb)]
    for j, col in enumerate(cols):
        for (mono, pos), c in col.items():
            for b_u, b in enumerate(bn):
                prod = n.nf({(tuple(a + e for a, e in zip(b[0], mono)),
                              b[1]): c})
                for k, cc in prod.items():
                    row, at = mat[j * nb + bidx[k]], pos * nb + b_u
                    row[at] = field.add(row[at], cc)
    return mat


def _hom_space(m: ModulePresentation, n: ModulePresentation):
    """Basis of Hom(M, N) as a k-space (finite dimensional target only).

    Unknowns are the images of the M-generators in the standard-monomial
    basis of N; the constraints say each relation column maps to zero."""
    bn = n.kbasis()
    if bn is None:
        raise NotFiniteDimensional("Hom needs a finite dimensional target")
    mat = _precomposition(m.columns, m.rank, n, bn)
    return nullspace(n.over.ring.field, mat, m.rank * len(bn)), bn


def hom_dimension(m, n):
    basis, _ = _hom_space(m, n)
    return len(basis)


def ext1_dimension(m: ModulePresentation, n: ModulePresentation):
    """dim_k Ext^1(M, N) through a two-step free resolution of M:
    ker(Hom(F1,N) -> Hom(F2,N)) / im(Hom(F0,N) -> Hom(F1,N))."""
    over = m.over
    d1 = list(m.columns)
    if not d1:
        return 0
    d2 = pa.kernel_of_matrix(over, d1, m.rank)
    bn = n.kbasis()
    if bn is None:
        raise NotFiniteDimensional("Ext needs finite dimensional modules")
    field = over.ring.field
    f0, f1 = m.rank * len(bn), len(d1) * len(bn)
    ker2_dim = len(nullspace(field, _precomposition(d2, len(d1), n, bn),
                                f1))
    rank1 = f0 - len(nullspace(field, _precomposition(d1, m.rank, n, bn),
                                  f0))
    return ker2_dim - rank1


def hom_ext_fiber_product(glue, m: ModulePresentation,
                          n: ModulePresentation):
    """Compare Hom and Ext^1 with the fiber products of their restrictions."""
    if not (tor_gate(glue, m) and tor_gate(glue, n)):
        raise GateFailed("both modules must pass the Tor gate")
    dm = pullback_P(glue, m)
    dn = pullback_P(glue, n)
    m0 = dm.reduction(2)
    n0 = dn.reduction(2)
    hom_c = hom_dimension(m, n)
    s1 = _hom_space(dm.m1, dn.m1)
    s2 = _hom_space(dm.m2, dn.m2)
    s0 = _hom_space(m0, n0)
    h1, h2, h0 = len(s1[0]), len(s2[0]), len(s0[0])
    fiber = _fiber_dimension(glue, dm, dn, s1, s2, s0)
    ext_c = ext1_dimension(m, n)
    e1 = ext1_dimension(dm.m1, dn.m1)
    e2 = ext1_dimension(dm.m2, dn.m2)
    e0 = ext1_dimension(m0, n0)
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
    """dim(H_1 x_{H_0} H_2) by computing the restriction maps in bases;
    s1, s2, s0 are the ``_hom_space`` results of the two sides and the
    overlap."""
    field = glue.c0.ring.field
    (b1, bn1), (b2, bn2), (b0, bn0) = s1, s2, s0
    if not b0:
        return len(b1) + len(b2)
    # coordinates of the restriction of each basis hom to C0
    rows = []
    for v in b1:
        rows.append(_restrict_hom(glue, 1, dm, dn, v, bn1, bn0, b0))
    rows2 = []
    for v in b2:
        rows2.append(_restrict_hom(glue, 2, dm, dn, v, bn2, bn0, b0))
    # fiber product = kernel of (r1, -r2): dimension by rank
    mat = []
    dim0 = len(b0)
    for t in range(dim0):
        row = [rows[i][t] for i in range(len(b1))] + \
              [field.neg(rows2[j][t]) for j in range(len(b2))]
        mat.append(row)
    null = nullspace(field, mat, len(b1) + len(b2))
    return len(null)


def _restrict_hom(glue, which, dm, dn, v, bn_i, bn0, b0):
    """Coordinates of the C0-restriction of a side hom in the b0-basis."""
    field = glue.c0.ring.field
    f = glue.f1 if which == 1 else glue.f2
    m_i = dm.m1 if which == 1 else dm.m2
    n_i = dn.m1 if which == 1 else dn.m2
    m0 = dm.reduction(2)
    n0 = dn.reduction(2)
    # v gives images of m_i's generators over bn_i; push everything to C0
    imgs0 = []
    for pos in range(m_i.rank):
        vec = v[pos * len(bn_i):(pos + 1) * len(bn_i)]
        imgs0.append(n0.nf(transport_col(f, {
            b: coeff for coeff, b in zip(vec, bn_i)
            if not field.is_zero(coeff)})))
    # express through the hom basis b0 by matching generator images
    target = []
    for pos in range(m0.rank):
        target.append(coordinates(field, imgs0[pos], bn0))
    flat_target = [c for vec in target for c in vec]
    cols = []
    for w in b0:
        cols.append(list(w))
    sol = solve_linear(field, cols, flat_target)
    if sol is None:
        raise AssertionError("restriction misses the hom space")
    return sol


# -- unit inverses: a linear system over the k-basis of the ring ----------------


def certify_unit(pres: RingPresentation, p):
    """Find the inverse by solving a linear system over the k-basis of the
    (finite dimensional) presented ring."""
    basis = pa.vector_space_basis(pres, 1, [])
    if basis is None:
        raise UnsupportedShape("unit certification needs a finite dimensional ring")
    field = pres.ring.field
    cols = [coordinates(
        field, pres.nf(pres.ring.mul(p, pres.ring.monomial(mono))), basis)
        for mono, _ in basis]
    target = coordinates(field, pres.nf(pres.ring.one()), basis)
    sol = solve_linear(field, cols, target)
    if sol is None:
        raise HomotopyInvalid("element is not a unit")
    inv = pres.ring.zero()
    for c, (mono, _) in zip(sol, basis):
        if not field.is_zero(c):
            inv = pres.ring.add(inv, pres.ring.monomial(mono, c))
    return Unit(pres, p, inv)


# -- map inverses: the kernel, then the lifts ------------------------------------


def module_map_inverse(phi_cols, m: ModulePresentation, n: ModulePresentation):
    """Columns over R^m.rank of the inverse of the map M -> N given by the
    columns phi_cols, or None when the map is not bijective: the kernel must
    vanish, and every basis vector of N must lift through phi_cols.
    ValueError when the columns do not define a map of presented modules."""
    if not is_injective(phi_cols, m, n):
        return None
    inv = lift_through(phi_cols, n, [n.basis_elem(i) for i in range(n.rank)])
    return None if any(w is None for w in inv) else inv


# -- homology and Tor_1 with a presentation of the homology module ---------------


def homology_presentation(over: RingPresentation, a_cols, mid_rank,
                          mid_relations, b_cols, out_rank, out_relations):
    """Homology ker(B)/im(A) at the middle of
       R^s --A--> R^mid_rank --B--> R^out_rank
    where the outer terms carry the given relation columns.

    Returns (presentation over ``over``, is_zero); a zero homology is
    presented as the module of rank 0.
    """
    kgens = kernel_of_matrix(over, b_cols, out_rank, out_relations)
    denom = list(a_cols) + list(mid_relations)
    mid = ModulePresentation(over, mid_rank, denom)
    if all(mid.is_zero_elem(k) for k in kgens):
        return ModulePresentation(over, 0, []), True
    rels = kernel_of_matrix(over, kgens, mid_rank, denom)
    return ModulePresentation(over, len(kgens), rels), False


def transport_col(rmap: RingMap, col):
    """A column over the source of ``rmap``, entry by entry, over its target."""
    field = rmap.target.ring.field
    out = {}
    for (mono, pos), c in col.items():
        p = rmap.apply({(mono, 0): c})
        out = m_add(field, out, {(mm, pos): cc for (mm, _), cc in p.items()})
    return out


def tor1_along_presentation(rmap: RingMap, cols, rank, n: ModulePresentation):
    """Tor_1^R(coker(R^a --cols--> R^rank), N) for a module N over
    S = ``rmap.target``, with R = ``rmap.source``.

    The cokernel is resolved over R as F2 --d2--> F1 = R^a --cols--> F0 =
    R^rank, d2 from one syzygy computation.  Both maps are carried along
    ``rmap`` and tensored with N: F_i (x) N is a sum of copies of N, one
    block of n.rank positions per basis vector of F_i, presented over S by
    N's relations in every block, and a column d of a map becomes the block
    columns d (x) e_u, one per basis vector e_u of N.  Tor_1 is the
    homology at F1 (x) N; a free cokernel (no columns) has none.

    Returns (presentation over S, is_zero)."""
    if not cols:
        return ModulePresentation(rmap.target, 0, []), True
    r = n.rank

    def tensored(d):
        return [{(mono, pos * r + u): c
                 for (mono, pos), c in transport_col(rmap, col).items()}
                for col in d for u in range(r)]

    def relation_blocks(count):
        return [{(mono, j * r + pos): c for (mono, pos), c in rel.items()}
                for j in range(count) for rel in n.columns]

    d2 = kernel_of_matrix(rmap.source, cols, rank)
    return homology_presentation(rmap.target, tensored(d2), len(cols) * r,
                                 relation_blocks(len(cols)), tensored(cols),
                                 rank * r, relation_blocks(rank))


def tor1_presentation(m: ModulePresentation, j_gens):
    """Tor_1^R(M, R/J) for the presented module M and ideal J of R: M
    resolved over R and tensored with R/J along the quotient map.

    Returns (presentation over R/J, is_zero)."""
    ring = m.over.ring
    rq = m.over.quotient(j_gens)
    to_rq = RingMap(m.over, rq, [ring.var(i) for i in range(ring.nvars)],
                    check=False)
    return tor1_along_presentation(to_rq, m.columns, m.rank,
                                   ModulePresentation(rq, 1))


# -- A(h,t) with hand-written group algebras ------------------------------------


def build_A_ht(chart: ChartData):
    """A(h,t) = A[Q^gp (+) P]/I(h,t) with the comparison map to C[P^gp].

    Laurent directions are Rabinowitsch pairs; torsion generators carry their
    order relations.  Returns (A(h,t), C[P^gp], the comparison RingMap).
    """
    field = chart.a.ring.field
    qgp, qincl, _ = chart.q.generator_hom().image()
    pgp, pincl, _ = chart.p.generator_hom().image()
    aht_names = list(chart.a.ring.names)
    q_names, q_rels_builder = _group_vars("s", qgp)
    p_names = [f"u{j}" for j in range(len(chart.p.generators))]
    names = aht_names + q_names + p_names
    ring = PolyRing(field, names)
    q_off = len(aht_names)
    p_off = q_off + len(q_names)
    rels = [pa.embed(g, ring, 0) for g in chart.a.ideal]
    rels += q_rels_builder(ring, q_off)
    toric, _ = pa.toric_ideal(chart.p, field, allow_units=True)
    rels += [pa.embed(g, ring, p_off) for g in toric.ideal]
    # I(h,t): t(q)[q,0] - [0,h(q)] per Q-generator
    for i, qg in enumerate(chart.q.generators):
        coords = qincl.preimage(qg)
        mono_q = _group_monomial(ring, q_off, qgp, coords)
        t_img = pa.embed(chart.t[i], ring, 0)
        lhs = ring.mul(t_img, mono_q)
        rhs = _monomial_over(ring, p_off, chart.p, chart.h.images[i])
        rels.append(ring.sub(lhs, rhs))
    aht = RingPresentation(ring, rels)
    # C[P^gp]
    cp_names = list(chart.c.ring.names)
    pg_names, pg_rels_builder = _group_vars("v", pgp)
    cring = PolyRing(field, cp_names + pg_names)
    pg_off = len(cp_names)
    crels = [pa.embed(g, cring, 0) for g in chart.c.ideal]
    crels += pg_rels_builder(cring, pg_off)
    cpgp = RingPresentation(cring, crels)
    # the comparison map [q,p] |-> b(p) [h(q) + p]
    images = []
    for i in range(len(aht_names)):
        images.append(pa.embed(chart.f.images[i], cring, 0))
    for j in range(qgp.rank):
        hq = chart.h.apply_gp(qincl.apply(qgp.generators()[j]))
        coords = pincl.preimage(hq)
        images.append(_group_monomial(cring, pg_off, pgp, coords))
        images.append(_group_monomial(cring, pg_off, pgp, pgp.neg(coords)))
    for j in range(len(qgp.torsion)):
        hq = chart.h.apply_gp(qincl.apply(qgp.generators()[qgp.rank + j]))
        coords = pincl.preimage(hq)
        images.append(_group_monomial(cring, pg_off, pgp, coords))
    for j, pg in enumerate(chart.p.generators):
        coords = pincl.preimage(pg)
        mono = _group_monomial(cring, pg_off, pgp, coords)
        images.append(cring.mul(pa.embed(chart.b[j], cring, 0), mono))
    comparison = RingMap(aht, cpgp, images)
    return aht, cpgp, comparison


def _group_vars(prefix, g: FgAbGroup):
    """Variable plan for the group algebra on g: Rabinowitsch pairs for the
    free part, order relations for torsion."""
    names = []
    for i in range(g.rank):
        names += [f"{prefix}{i}", f"{prefix}b{i}"]
    for j, d in enumerate(g.torsion):
        names.append(f"{prefix}t{j}")

    def rels_builder(ring, off):
        out = []
        for i in range(g.rank):
            out.append(ring.sub(ring.mul(ring.var(off + 2 * i),
                                         ring.var(off + 2 * i + 1)),
                                ring.one()))
        base = off + 2 * g.rank
        for j, d in enumerate(g.torsion):
            out.append(ring.sub(ring.pow(ring.var(base + j), d), ring.one()))
        return out

    return names, rels_builder


def _group_monomial(ring, off, g: FgAbGroup, coords):
    """The Laurent monomial of a group element in the _group_vars layout."""
    coords = g.reduce(coords)
    exps = [0] * ring.nvars
    for i in range(g.rank):
        e = coords[i]
        exps[off + 2 * i + (0 if e >= 0 else 1)] = abs(e)
    base = off + 2 * g.rank
    for j in range(len(g.torsion)):
        exps[base + j] = coords[g.rank + j]
    return ring.monomial(exps)


def _monomial_over(ring, off, mon: FineMonoid, element):
    """The monomial of a monoid element in the monoid variables, which start
    at index ``off``; ChartInvalid when the element is outside the monoid."""
    mult = mon.nonneg_certificate(element)
    if mult is None:
        raise ChartInvalid("h-image outside the monoid")
    exps = [0] * ring.nvars
    exps[off:off + len(mult)] = mult
    return ring.monomial(exps)


# -- the morphism decisions by solving and searching ------------------------------


def group_is_injective(hom: GroupHom):
    """Injectivity of a group hom: a trivial kernel."""
    k, _ = hom.kernel()
    return k.is_trivial()


def monoid_is_injective(h: MonoidHom):
    """Injectivity on groupifications: every relation among the images lies
    in the span of the source relations, one solve per vector."""
    src_rel = h.source.relation_lattice()
    rel_span = GroupHom(FgAbGroup.free(len(src_rel)),
                        FgAbGroup.free(len(h.images)), tuple(src_rel))
    return all(rel_span.preimage(a) is not None
               for a in h._image_hom().kernel_lattice())


def _match_sharp_images(h, proj_s, proj_t, sharp_s):
    """Images of the sharp source generators under the sharpened map."""
    out = []
    sharp_gen_source = [proj_s.apply(g) for g in h.source.generators]
    for sg in sharp_s.generators:
        for i, cand in enumerate(sharp_gen_source):
            if cand == sg:
                out.append(proj_t.apply(h.images[i]))
                break
        else:
            raise AssertionError("sharp generator matching failed")
    return out


def is_strict(h: MonoidHom):
    """Strictness: the induced map of sharp monoids is injective and onto."""
    proj_s, sharp_s = h.source._sharp_data()
    proj_t, sharp_t = h.target._sharp_data()
    induced = MonoidHom(sharp_s, sharp_t,
                        _match_sharp_images(h, proj_s, proj_t, sharp_s),
                        check=False)
    return monoid_is_injective(induced) and induced.is_surjective()


def is_vertical(h: MonoidHom):
    """Verticality: -p lies in P + Z h(Q) for every generator p of P, one
    membership search each."""
    tgt = h.target
    gens = list(tgt.generators) + list(h.images) + \
        [tgt.ambient.neg(v) for v in h.images]
    big = FineMonoid(tgt.ambient, gens)
    return all(big.member(tgt.ambient.neg(p)) for p in tgt.generators)


def groupification_hom(h: MonoidHom):
    """(Q^gp, P^gp, induced GroupHom), each generator of Q^gp carried
    through the ambient and ``apply_gp``."""
    qgp, q_incl, _ = h.source.generator_hom().image()
    pgp, p_incl, _ = h.target.generator_hom().image()
    imgs = []
    for j in range(qgp.dim):
        img_amb = h.apply_gp(q_incl.apply(qgp.generators()[j]))
        pre = p_incl.preimage(img_amb)
        if pre is None:
            raise AssertionError("image misses the target groupification")
        imgs.append(pre)
    return qgp, pgp, GroupHom(qgp, pgp, tuple(imgs))


def groupification_cokernel(h: MonoidHom):
    """((P/Q)^gp, to_cok), the source generators carried by ``apply_gp``."""
    src_gens = [h.apply_gp(g) for g in h.source.generators]
    free_src = FgAbGroup.free(len(src_gens)) if src_gens else \
        FgAbGroup.zero_group()
    span, incl, _ = h.target.generator_hom().image()
    hom = GroupHom(free_src, span, tuple(incl.preimage(v) for v in src_gens))
    cok, proj = hom.cokernel()
    return cok, lambda x: proj.apply(incl.preimage(x))


# -- the Groebner engine: every pair, every survivor reduced -------------------


def buchberger(field, gens, key):
    """The earlier ``polyalg.buchberger``, outside any run scope: it forms
    every pair of leading terms in one position (the product criterion
    aside), pairs of two single-term elements included, and its final pass
    reduces every survivor against the others.  Each reduction builds its
    reducer table from the basis."""
    keys, order = {}, key

    def key(term):
        k = keys.get(term)
        if k is None:
            k = keys[term] = order(term)
        return k

    gens = [g for g in gens if g]
    ideal = not any(pos for g in gens for (_, pos) in g)
    basis, lts = [], []
    for g in sorted(gens, key=lambda g: key(pa.m_lt(g, key))):
        r = pa.m_reduce(field, g, basis, key)
        if r:
            r, lt = pa._monic_remainder(field, r)
            basis.append(r)
            lts.append(lt)

    def pairs_with(j):
        mj, pj = lts[j]
        for i in range(j):
            mi, pi = lts[i]
            if pi != pj:
                continue
            if ideal and not any(map(min, mi, mj)):
                continue
            lcm = tuple(map(max, mi, mj))
            yield (key((lcm, pj)), i, j, lcm)

    queue = [e for j in range(len(basis)) for e in pairs_with(j)]
    heapq.heapify(queue)
    while queue:
        _, i, j, lcm = heapq.heappop(queue)
        gi, gj = basis[i], basis[j]
        mi, mj = lts[i][0], lts[j][0]
        si = pa.m_shift(field, field.one(), tuple(map(sub, lcm, mi)), gi)
        sj = pa.m_shift(field, field.one(), tuple(map(sub, lcm, mj)), gj)
        s = pa.m_sub(field, si, sj)
        r = pa.m_reduce(field, s, basis, key)
        if r:
            r, lt = pa._monic_remainder(field, r)
            basis.append(r)
            lts.append(lt)
            for e in pairs_with(len(basis) - 1):
                heapq.heappush(queue, e)
    keep = [i for i, (mi, pi) in enumerate(lts)
            if not any(pj == pi and pa._divides(mj, mi)
                       for mj, pj in lts[i + 1:])]
    basis = [pa.m_reduce(field, basis[i], [basis[t] for t in keep if t != i],
                         key) for i in keep]
    lts = [lts[i] for i in keep]
    order = sorted(range(len(basis)), key=lambda t: key(lts[t]))
    return [basis[t] for t in order]
