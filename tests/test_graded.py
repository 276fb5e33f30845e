import pytest
from hypothesis import given, settings, strategies as st

import linear_references as ref

from logflat.abgrp import FgAbGroup, GroupHom
from logflat.monoid import FineMonoid, MonoidIdeal, nat_monoid
from logflat import graded as gd
from logflat import polyalg as pa
from logflat.polyalg import (
    ModulePresentation, PolyRing, RingMap, RingPresentation,
)
from logflat.graded import (
    ChartShape,
    GradedModule,
    GradedRing,
    KPShape,
    MonoidAlgebra,
    NotHomogeneous,
    degree_zero_part,
    extend_scalars_group_algebra,
    flat_over_kt,
    graded_flat,
    graded_flat_on_ideal_family,
    graded_modules_isomorphic,
    group_algebra,
    is_homogeneous_ideal,
    nodal_criteria_panel,
    nodal_ring,
    quotient_module,
    regrade,
)


def z2_graded_plane():
    ring = PolyRing(pa.QQ, ["x", "y"])
    pres = RingPresentation(ring, [])
    return GradedRing(FgAbGroup.free(2), pres, [(1, 0), (0, 1)])


class TestHomogeneous:
    def test_monomial_ideal(self):
        g = z2_graded_plane()
        assert is_homogeneous_ideal(g, [g.pres.ring.parse("x*y")])

    def test_sum_not_homogeneous(self):
        g = z2_graded_plane()
        assert not is_homogeneous_ideal(g, [g.pres.ring.parse("x+y")])

    def test_equal_degrees_homogeneous(self):
        ring = PolyRing(pa.QQ, ["x", "y"])
        pres = RingPresentation(ring, [])
        g = GradedRing(FgAbGroup.free(1), pres, [(1,), (1,)])
        assert is_homogeneous_ideal(g, [ring.parse("x+y")])

    def test_components(self):
        g = z2_graded_plane()
        comps = g.homogeneous_components(g.pres.ring.parse("x + y + x^2"))
        assert len(comps) == 3


class TestMonoidIdealBijection:
    def setup_method(self):
        self.alg = MonoidAlgebra(nat_monoid(2))

    def test_principal_roundtrip(self):
        ideal = MonoidIdeal(self.alg.monoid, [(1, 0)])
        j = self.alg.to_ring_ideal(ideal)
        assert self.alg.to_monoid_ideal(j) == ideal

    def test_maximal_roundtrip(self):
        ideal = MonoidIdeal(self.alg.monoid, [(1, 0), (0, 1)])
        j = self.alg.to_ring_ideal(ideal)
        back = self.alg.to_monoid_ideal(j)
        assert back == ideal

    def test_monomial_roundtrip_other_way(self):
        r = self.alg.pres.ring
        j = [r.parse("x^2*y")]
        ideal = self.alg.to_monoid_ideal(j)
        j2 = self.alg.to_ring_ideal(ideal)
        assert self.alg.pres.eq(j[0], j2[0])

    def test_nonhomogeneous_guard(self):
        r = self.alg.pres.ring
        with pytest.raises(NotHomogeneous):
            self.alg.to_monoid_ideal([r.parse("x+y")])

    def test_semiprime_face_complement(self):
        r = self.alg.pres.ring
        assert self.alg.is_semiprime([r.parse("x")])
        assert not self.alg.is_semiprime([r.parse("x*y")])

    def test_zero_ideal_in_group_algebra_of_z2(self):
        z2 = FineMonoid(FgAbGroup(0, (2,)), [(1,)])
        alg = MonoidAlgebra(z2)
        # (0) is semiprime but not prime: C[Z/2] has zero divisors
        assert alg.is_semiprime([])
        assert not alg.is_prime([])

    def test_torsion_free_semiprime_is_prime(self):
        assert self.alg.is_prime([self.alg.pres.ring.parse("x")])


class TestKxCriterion:
    def setup_method(self):
        self.alg = MonoidAlgebra(nat_monoid(1), names=["x"])
        self.shape = KPShape(self.alg)
        self.r = self.alg.pres.ring

    def flat(self, rels):
        m = ModulePresentation(self.alg.pres, 1, rels)
        return graded_flat(m, self.shape)[0]

    def test_x_minus_one_graded_flat(self):
        assert self.flat([self.r.parse("x - 1")])

    def test_x_not_graded_flat(self):
        assert not self.flat([self.r.parse("x")])

    def test_free_graded_flat(self):
        assert self.flat([])


class TestNodalPanel:
    def setup_method(self):
        self.pres, self.grading, self.shape = nodal_ring()
        self.r = self.pres.ring

    def panel(self, rels, rank=1):
        m = ModulePresentation(self.pres, rank, rels)
        return nodal_criteria_panel(m, self.shape)

    def test_structure_module_all_true(self):
        panel = self.panel([])
        assert all(panel.values())

    def test_skyscraper_all_false(self):
        panel = self.panel([self.r.parse("x"), self.r.parse("y")])
        assert not any(panel.values())

    def test_antidiagonal_all_false(self):
        panel = self.panel([self.r.parse("x+y")])
        assert not any(panel.values())

    def test_unit_shift_all_true(self):
        panel = self.panel([self.r.parse("x-1")])
        assert all(panel.values())

    def test_x_squared_panel_agrees(self):
        panel = self.panel([self.r.parse("x^2")])
        vals = set(panel.values())
        assert len(vals) == 1 and vals == {False}

    def test_direct_sum_b_plus_k(self):
        # B (+) k: the skyscraper summand breaks flatness
        rels = [
            {((1, 0), 1): pa.QQ.one()},
            {((0, 1), 1): pa.QQ.one()},
        ]
        panel = nodal_criteria_panel(ModulePresentation(self.pres, 2, rels),
                                     self.shape)
        vals = set(panel.values())
        assert vals == {False}

    def test_agreement_with_ideal_family(self):
        r = self.r
        family = [[r.parse("x")], [r.parse("y")], [r.parse("x"), r.parse("y")]]
        for rels in ([], [r.parse("x-1")], [r.parse("x+y")], [r.parse("x")]):
            m = ModulePresentation(self.pres, 1, rels)
            panel = nodal_criteria_panel(m, self.shape)
            fam, _ = graded_flat_on_ideal_family(m, family)
            assert fam == panel["graded_flat"]


class TestGroupAlgebra:
    def test_laurent_ring_roundtrip(self):
        # homogeneous relation u*e0 - e1 with shifts (0, 1): M = k[G]
        g = FgAbGroup.free(1)
        gring, shape = group_algebra(pa.QQ, g)
        gm = GradedModule(gring, [(0,), (1,)], [
            {((1, 0), 0): pa.QQ.one(), ((0, 0), 1): pa.QQ.of_int(-1)}
        ])
        m0 = degree_zero_part(gm)
        assert m0.dim() == 1
        ok, cert = graded_flat(gm, shape)
        assert ok and cert["roundtrip_certified"]

    def test_free_module_roundtrip(self):
        g = FgAbGroup.free(1)
        gring, shape = group_algebra(pa.QQ, g)
        gm = GradedModule(gring, [(0,), (2,)], [])
        m0 = degree_zero_part(gm)
        back = extend_scalars_group_algebra(m0, gring, gm.shifts)
        assert graded_modules_isomorphic(gm, back)

    def test_shifted_relation_roundtrip(self):
        g = FgAbGroup.free(1)
        gring, shape = group_algebra(pa.QQ, g)
        # relation u^2 e0 - e1 = 0 with shifts making it homogeneous
        gm = GradedModule(gring, [(0,), (2,)], [
            {((2, 0), 0): pa.QQ.one(), ((0, 0), 1): pa.QQ.of_int(-1)}
        ])
        ok, cert = graded_flat(gm, shape)
        assert ok and cert["roundtrip_certified"]

    def test_inhomogeneous_rejected(self):
        g = FgAbGroup.free(1)
        gring, _ = group_algebra(pa.QQ, g)
        with pytest.raises(NotHomogeneous):
            GradedModule(gring, [(0,)], [
                {((1, 0), 0): pa.QQ.one(), ((0, 0), 0): pa.QQ.of_int(-1),
                 ((2, 0), 0): pa.QQ.one()}
            ])

    def test_regrade_invariance(self):
        g = FgAbGroup.free(1)
        gring, shape = group_algebra(pa.QQ, g)
        gamma = GroupHom(g, FgAbGroup.free(2), ((1, 1),))
        regraded = regrade(gring, gamma)
        gm = GradedModule(regraded, [(0, 0)], [])
        m0 = degree_zero_part(gm)
        assert m0.dim() == 1


@st.composite
def graded_group_algebras(draw):
    """(k[G], degree, whether a monomial has it) for a group G of rank <= 2,
    torsion included, either as ``group_algebra`` grades it or regraded
    along the injective hom into Z^(rank + 1) (+) torsion that sends e_i to
    2 e_i + e_rank and fixes the torsion generators.  A degree off the
    image of that hom has no monomial.  Some rings get a variable of degree
    zero in front and a second copy of every variable, so the degree
    monoid drops generators."""
    rank = draw(st.integers(0, 2))
    torsion = draw(st.sampled_from([(), (2,), (3,), (2, 4)]))
    g = FgAbGroup(rank, torsion)
    gring, _ = group_algebra(pa.QQ, g)
    if draw(st.booleans()):
        names = gring.pres.ring.names
        ring = PolyRing(pa.QQ, ["z", *names, *(n + "c" for n in names)])
        gring = GradedRing(g, RingPresentation(ring, [
            pa.embed(r, ring, 1) for r in gring.pres.ideal]),
            [g.zero()] + list(gring.degrees) * 2)
    d = tuple(draw(st.integers(-4, 4)) for _ in range(g.dim))
    if not draw(st.booleans()):
        return gring, d, True
    big = FgAbGroup(rank + 1, torsion)
    gamma = GroupHom(g, big, tuple(
        tuple(2 * (j == i) + (j == rank) for j in range(big.dim))
        for i in range(rank)) + tuple(big.generators()[rank + 1:]))
    off_image = draw(st.booleans())
    d = gamma.apply(d)
    if off_image:
        d = big.add(d, big.generators()[rank])
    return regrade(gring, gamma), d, not off_image


@settings(max_examples=80, deadline=None)
@given(graded_group_algebras())
def test_monomial_of_degree_is_a_monomial_of_that_degree(case):
    gring, d, realizable = case
    mono = gring.monomial_of_degree(d)
    assert (mono is not None) == realizable
    if mono is None:
        return
    assert len(mono) == gring.pres.ring.nvars
    assert all(e >= 0 for e in mono)
    assert gring.degree_of_monomial(mono) == gring.group.reduce(d)


class TestFlatOverKt:
    def make_family(self, rels):
        ring = PolyRing(pa.QQ, ["t", "x", "y"])
        pres = RingPresentation(ring, [ring.parse("x*y - t")])
        return ModulePresentation(pres, 1, [pres.parse(s) for s in rels]), pres

    def test_structure_ring_flat(self):
        m, _ = self.make_family([])
        assert flat_over_kt(m, 0) == (True, "1")

    def test_fiber_not_flat(self):
        m, _ = self.make_family(["x", "y"])  # the origin of the t=0 fiber
        assert flat_over_kt(m, 0) == (False, "t")

    def test_section_flat(self):
        m, _ = self.make_family(["x - 1"])  # graph of t = y
        assert flat_over_kt(m, 0) == (True, "1")

    def test_torsion_away_from_zero(self):
        # t acts as 1 on B/(x-t, y-1): k[t]/(t-1) is torsion
        m, _ = self.make_family(["x - 1", "y - 1"])
        assert flat_over_kt(m, 0) == (False, "t - 1")

    def test_irrational_support_torsion(self):
        # x = t, x^2 = 2: torsion at the irreducible t^2 - 2
        m, _ = self.make_family(["y - 1", "x^2 - 2"])
        assert flat_over_kt(m, 0) == (False, "t^2 - 2")


class TestChartTowerFamily:
    def setup_method(self):
        ring = PolyRing(pa.QQ, ["t", "x", "y"])
        self.pres = RingPresentation(ring, [ring.parse("x*y - t")])
        grading = GradedRing(FgAbGroup.free(1), self.pres,
                             [(0,), (1,), (-1,)])
        self.shape = ChartShape(self.pres, grading,
                                RingMap.identity(self.pres), avars=(0,),
                                evars=(1, 2), base=("kt", 0))

    def test_structure_flat(self):
        m = ModulePresentation(self.pres, 1, [])
        ok, cert = graded_flat(m, self.shape)
        assert ok

    def test_central_fiber_skyscraper_not_flat(self):
        r = self.pres.ring
        m = ModulePresentation(self.pres, 1, [r.parse("x"), r.parse("y")])
        ok, _ = graded_flat(m, self.shape)
        assert not ok

    def test_section_through_smooth_locus_flat(self):
        r = self.pres.ring
        m = ModulePresentation(self.pres, 1, [r.parse("x - 1")])
        ok, _ = graded_flat(m, self.shape)
        assert ok

    def test_bad_locus_independent_of_kill_order(self):
        # over k[t,x,y] the level that kills x and y keeps the base k[t]; the
        # first kill order to reach it is x, y for one shape and y, x for the
        # other
        ring = self.pres.ring
        pres = RingPresentation(ring, [])
        m = ModulePresentation(pres, 1, [ring.parse("x + y - t^2 + t")])
        loci = []
        for evars in ((1, 2), (2, 1)):
            shape = ChartShape(pres, GradedRing(FgAbGroup.free(1), pres,
                                                [(0,), (1,), (-1,)]),
                               RingMap.identity(pres), avars=(0,),
                               evars=evars, base=("kt", 0))
            _, cert = graded_flat(m, shape)
            level = cert["spawning"][0]["quotient"]["spawning"][0]["quotient"]
            loci.append(level["base"]["bad_locus"])
        assert loci == ["t^2 - t", "t^2 - t"]


class TestKPConsistency:
    def test_prime_test_agrees_with_ideal_family(self):
        # over k[N] and k[N^2]: enumerated monomial ideals (several
        # generators, so the maximal ideal is included) vs the per-prime test
        from itertools import combinations, product
        for n, names in ((1, ["x"]), (2, None)):
            alg = MonoidAlgebra(nat_monoid(n), names=names)
            shape = KPShape(alg)
            r = alg.pres.ring
            monos = [m for m in product(range(3), repeat=r.nvars)
                     if 1 <= sum(m) <= 2]
            family = [[r.monomial(m) for m in c]
                      for k in (1, 2) for c in combinations(monos, k)]
            mods = [[], [r.parse("x - 1")], [r.parse("x")]]
            if n == 2:
                mods += [[r.parse("x + y - 1")], [r.parse("x + y")]]
            for rels in mods:
                m = ModulePresentation(alg.pres, 1, rels)
                per_prime = graded_flat(m, shape)[0]
                fam, _ = graded_flat_on_ideal_family(m, family)
                assert per_prime == fam


# -- the B-side tower and the localized panel entry, kept as references ------------


def _reference_flat_chart(m: ModulePresentation, shape: ChartShape):
    """The earlier B-side chart tower, kept as the reference for the one
    chart tower: no memo, and M resolved over B at every level."""
    base_ok, base_cert = _reference_flat_over_base(m, shape.pres, shape.base,
                                                   avars=shape.avars)
    cert = {"criterion": "chart tower", "base": base_cert, "spawning": []}
    verdict = base_ok
    ring = shape.pres.ring
    for e in shape.evars:
        ze = ring.var(e)
        tz = pa.tor1(m, [ze])
        sub_pres = shape.pres.quotient([ze])
        sub_m = ModulePresentation(sub_pres, m.rank, m.columns)
        sub_shape = ChartShape(sub_pres, shape.grading,
                               RingMap.identity(sub_pres), shape.avars,
                               tuple(v for v in shape.evars if v != e),
                               shape.base)
        sub_ok, sub_cert = _reference_flat_chart(sub_m, sub_shape)
        cert["spawning"].append({"variable": ring.names[e],
                                 "tor1_zero": tz,
                                 "quotient": sub_cert})
        verdict = verdict and tz and sub_ok
    cert["verdict"] = verdict
    return verdict, cert


def _reference_flat_over_base(m: ModulePresentation, pres: RingPresentation,
                              base, avars=()):
    """Flatness of M over the image of the base ring A.

    The contraction of the ideal to the A-variables is computed by
    elimination; supported leaves are fields (always flat), the zero ring,
    and k[t] (torsion-freeness via the k(t)-trace kernel test).
    """
    if base == "field" or not avars:
        return True, {"base": "field", "flat": True}
    contraction = pa.eliminate_ideal(pres, keep=avars)
    ring = pres.ring
    base_names = [ring.names[i] for i in avars]
    base_ring = PolyRing(ring.field, base_names)
    base_ideal = []
    for g in contraction:
        base_ideal.append({(tuple(mono[v] for v in avars), 0): c
                           for (mono, _), c in g.items()})
    base_pres = RingPresentation(base_ring, base_ideal)
    if base_pres.contains_one():
        return True, {"base": "zero ring", "flat": True}
    dim = ModulePresentation(base_pres, 1).dim()
    if dim == 1:
        return True, {"base": "residue field", "flat": True}
    if isinstance(base, tuple) and base[0] == "kt" and not base_ideal:
        ok, fstar = flat_over_kt(m, base[1])
        return ok, {"base": "k[t]", "flat": ok, "bad_locus": fstar}
    raise gd.UnsupportedShape("base ring is neither a field nor k[t]")


def _reference_localized(m: ModulePresentation, x, y):
    """The earlier ``localized`` panel entry, kept as the reference: the
    Tor_1(M, B/m) condition after localizing at m = (x, y), through the
    annihilator of the Tor module."""
    pres_tor, zero = ref.tor1_presentation(m, [x, y])
    assert pa.tor1(m, [x, y]) == zero
    if zero:
        return True
    ann = _reference_annihilator(pres_tor)
    ring = pres_tor.over.ring
    probe = RingPresentation(ring, list(pres_tor.over.ideal) + ann +
                             [ring.var("x"), ring.var("y")])
    return probe.contains_one()


def _reference_annihilator(m: ModulePresentation):
    """Generators of Ann(M) for a presented module."""
    over = m.over
    out = None
    for i in range(m.rank):
        # (relations : e_i) = {f : f e_i in span}
        quot = pa.kernel_of_matrix(over, [m.basis_elem(i)], m.rank, m.columns)
        gens = [{(mono, 0): c for (mono, p), c in g.items()} for g in quot]
        if out is None:
            out = gens
        else:
            out = pa.ideal_intersection(over, out, gens)
    return out or [over.ring.one()]


def _family_shape():
    """B = k[t,x,y]/(xy - t) over the base k[t], graded by Z."""
    ring = PolyRing(pa.QQ, ["t", "x", "y"])
    pres = RingPresentation(ring, [ring.parse("x*y - t")])
    grading = GradedRing(FgAbGroup.free(1), pres, [(0,), (1,), (-1,)])
    return ChartShape(pres, grading, RingMap.identity(pres), avars=(0,),
                      evars=(1, 2), base=("kt", 0))


@st.composite
def chart_modules(draw, shape, max_exp):
    """A module of rank 1 or 2 over the ring of ``shape`` with up to two
    relations of one or two terms each, exponents up to ``max_exp``."""
    field = pa.QQ
    nvars = shape.pres.ring.nvars
    rank = draw(st.integers(1, 2))
    term = st.tuples(st.tuples(*[st.integers(0, max_exp)] * nvars),
                     st.integers(0, rank - 1), st.sampled_from([1, -1, 2]))
    cols = []
    for _ in range(draw(st.integers(0, 2))):
        g = {}
        for mono, pos, c in draw(st.lists(term, min_size=1, max_size=2)):
            g = pa.m_add(field, g, {(mono, pos): field.of_int(c)})
        cols.append(g)
    return ModulePresentation(shape.pres, rank, cols)


def _verdict(flat, m, shape):
    try:
        return flat(m, shape)[0]
    except gd.UnsupportedShape:
        return "unsupported"


def _corpora():
    from test_acceptance import family_modules, nodal_corpus
    _, _, nodal = nodal_ring()
    _, family, fmods = family_modules()
    return ([(m, nodal) for m in nodal_corpus(nodal.pres).values()]
            + [(m, family) for m in fmods.values()])


def test_chart_tower_matches_b_side_reference_on_corpora():
    for m, shape in _corpora():
        assert graded_flat(m, shape)[0] == _reference_flat_chart(m, shape)[0]


@settings(max_examples=60, deadline=None)
@given(chart_modules(nodal_ring()[2], 2))
def test_chart_tower_matches_b_side_reference_on_nodal_modules(m):
    _, _, shape = nodal_ring()
    assert _verdict(graded_flat, m, shape) == \
        _verdict(_reference_flat_chart, m, shape)


@settings(max_examples=30, deadline=None)
@given(chart_modules(_family_shape(), 1))
def test_chart_tower_matches_b_side_reference_on_kt_family(m):
    shape = _family_shape()
    assert _verdict(graded_flat, m, shape) == \
        _verdict(_reference_flat_chart, m, shape)


def test_localized_matches_reference_on_nodal_corpus():
    from test_acceptance import nodal_corpus
    pres, _, shape = nodal_ring()
    r = pres.ring
    for m in nodal_corpus(pres).values():
        panel = nodal_criteria_panel(m, shape)
        assert panel["localized"] == _reference_localized(
            m, r.var("x"), r.var("y"))


@settings(max_examples=40, deadline=None)
@given(chart_modules(nodal_ring()[2], 2))
def test_localized_matches_reference_on_nodal_modules(m):
    r = m.over.ring
    panel = nodal_criteria_panel(m)
    assert panel["localized"] == _reference_localized(
        m, r.var("x"), r.var("y"))


# -- k[t]-flatness over the rational function field, kept as the reference -------
#
# The earlier ``flat_over_kt``, verbatim with its coefficient field: the module
# Groebner basis over k(t), with the bad locus assembled from every leading
# coefficient inverted on the way.


def _u_trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return tuple(c)


def u_add(base, a, b):
    n = max(len(a), len(b))
    return _u_trim([base.add(a[i] if i < len(a) else base.zero(),
                             b[i] if i < len(b) else base.zero())
                    for i in range(n)])


def u_neg(base, a):
    return tuple(base.neg(x) for x in a)


def u_mul(base, a, b):
    if not a or not b:
        return ()
    out = [base.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = base.add(out[i + j], base.mul(x, y))
    return _u_trim(out)


def u_divmod(base, a, b):
    if not b:
        raise ZeroDivisionError
    a = list(a)
    q = [base.zero()] * max(0, len(a) - len(b) + 1)
    inv_lead = base.inv(b[-1])
    while len(a) >= len(b):
        c = base.mul(a[-1], inv_lead)
        d = len(a) - len(b)
        q[d] = c
        for i in range(len(b)):
            a[d + i] = base.sub(a[d + i], base.mul(c, b[i]))
        while a and base.is_zero(a[-1]):
            a.pop()
    return _u_trim(q), _u_trim(a)


def u_gcd(base, a, b):
    a, b = _u_trim(a), _u_trim(b)
    while b:
        _, r = u_divmod(base, a, b)
        a, b = b, r
    if a:
        inv = base.inv(a[-1])
        a = tuple(base.mul(x, inv) for x in a)
    return a


def u_monic(base, a):
    if not a:
        return a
    inv = base.inv(a[-1])
    return tuple(base.mul(x, inv) for x in a)


class FieldRatFunc:
    """Rational functions k(t) over a base field, reduced and monic-denominator.

    ``collector``, when set, receives every univariate polynomial that gets
    inverted (used to assemble the bad locus for the k[t]-flatness leaf).
    """

    def __init__(self, base, name="t"):
        self.base = base
        self.name = name
        self.char = base.char
        self.collector = None

    def _make(self, num, den):
        base = self.base
        num, den = _u_trim(num), _u_trim(den)
        if not den:
            raise ZeroDivisionError
        if not num:
            return ((), (base.one(),))
        g = u_gcd(base, num, den)
        if len(g) > 1 or not base.eq(g[0], base.one()):
            num = u_divmod(base, num, g)[0]
            den = u_divmod(base, den, g)[0]
        lead = den[-1]
        if not base.eq(lead, base.one()):
            inv = base.inv(lead)
            num = tuple(base.mul(x, inv) for x in num)
            den = tuple(base.mul(x, inv) for x in den)
        return (num, den)

    def from_poly(self, coeffs):
        return self._make(coeffs, (self.base.one(),))

    def zero(self):
        return ((), (self.base.one(),))

    def one(self):
        return ((self.base.one(),), (self.base.one(),))

    def of_int(self, n):
        return self._make((self.base.of_int(n),), (self.base.one(),))

    def add(self, a, b):
        base = self.base
        return self._make(u_add(base, u_mul(base, a[0], b[1]),
                                u_mul(base, b[0], a[1])),
                          u_mul(base, a[1], b[1]))

    def sub(self, a, b):
        return self.add(a, (u_neg(self.base, b[0]), b[1]))

    def mul(self, a, b):
        return self._make(u_mul(self.base, a[0], b[0]),
                          u_mul(self.base, a[1], b[1]))

    def neg(self, a):
        return (u_neg(self.base, a[0]), a[1])

    def inv(self, a):
        if not a[0]:
            raise ZeroDivisionError
        if self.collector is not None:
            self.collector.append(a[0])
        return self._make(a[1], a[0])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return not a[0]

    def eq(self, a, b):
        return a == b

    def to_str(self, a):
        return f"({a[0]})/({a[1]})"

    def __eq__(self, other):
        return isinstance(other, FieldRatFunc) and self.base == other.base

    def __hash__(self):
        return hash(("RatFunc", self.base))


def _reference_flat_over_kt(m: ModulePresentation, t_index):
    """Exact flatness of a finitely presented module over the subring k[t].

    Runs the module Groebner basis over k(t), collecting every inverted
    leading coefficient; the torsion is supported on the product f*, so the
    module is flat over k[t] iff multiplication by f* is injective.
    """
    ring = m.over.ring
    base = ring.field
    rf = FieldRatFunc(base)
    collected = []
    rf.collector = collected
    other = [i for i in range(ring.nvars) if i != t_index]
    new_ring = PolyRing(rf, [ring.names[i] for i in other])

    def transport(col):
        out = {}
        for (mono, pos), c in col.items():
            t_exp = mono[t_index]
            coeff_poly = tuple([base.zero()] * t_exp + [c])
            key = (tuple(mono[i] for i in other), pos)
            cur = out.get(key, rf.zero())
            out[key] = rf.add(cur, rf.from_poly(coeff_poly))
        return {k: v for k, v in out.items() if not rf.is_zero(v)}

    rels = [transport(c)
            for c in m.columns + pa.ideal_rows(m.over.ideal, m.rank)]
    pa.buchberger(rf, [r for r in rels if r], pa.module_key(pa.degrevlex_key))
    fstar_u = (base.one(),)
    for p in collected:
        fstar_u = u_mul(base, fstar_u, u_monic(base, p))
    if len(fstar_u) <= 1:
        return True, "1"
    fstar = {}
    for e, c in enumerate(fstar_u):
        if not base.is_zero(c):
            mono = [0] * ring.nvars
            mono[t_index] = e
            fstar[(tuple(mono), 0)] = c
    ok = pa.regular_element_test(fstar, m)
    return ok, ring.to_str(fstar)


@st.composite
def kt_modules(draw):
    """A module of rank 1 or 2 over k[t,x,y] or its quotient by one relation,
    with up to two columns of entries of degree at most 1."""
    ring = PolyRing(pa.QQ, ["t", "x", "y"])
    rel = draw(st.sampled_from(["x*y - t", "x*y", "x^2 - t", None]))
    pres = RingPresentation(ring, [ring.parse(rel)] if rel else [])
    rank = draw(st.integers(1, 2))
    monos = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cols = []
    for _ in range(draw(st.integers(0, 2))):
        col = {}
        for pos in range(rank):
            for mono in monos:
                c = draw(st.sampled_from([0, 0, 1, -1, 2]))
                if c:
                    col[(mono, pos)] = pa.QQ.of_int(c)
        cols.append(col)
    return ModulePresentation(pres, rank, cols)


@settings(max_examples=40, deadline=None)
@given(kt_modules())
def test_flat_over_kt_matches_rational_function_reference(m):
    assert flat_over_kt(m, 0)[0] == _reference_flat_over_kt(m, 0)[0]


def test_flat_over_kt_matches_rational_function_reference_on_corpus():
    from test_acceptance import family_modules
    pres, _, mods = family_modules()
    ring = pres.ring
    fibers = [["x", "y"], ["x - 1"], ["x - 1", "y - 1"], ["y - 1", "x^2 - 2"]]
    corpus = list(mods.values()) + [
        ModulePresentation(pres, 1, [ring.parse(s) for s in rels])
        for rels in fibers]
    for m in corpus:
        assert flat_over_kt(m, 0) == _reference_flat_over_kt(m, 0)
