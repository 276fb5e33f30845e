from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import linear_references as ref
from logflat.abgrp import FgAbGroup
from logflat.monoid import FineMonoid, MonoidHom, diagonal, nat_monoid, trivial_monoid
from logflat import polyalg as pa
from logflat.polyalg import ModulePresentation, PolyRing, RingMap, RingPresentation
from logflat import chart as ch
from logflat import graded as gd
from logflat.graded import UnsupportedShape
from logflat.chart import (
    ChartData,
    ChartInvalid,
    ChartsUnrelated,
    HomotopyInvalid,
    LiftProblem,
    LiftsIncompatible,
    NotInjectiveH,
    SquareZeroExtension,
    Unit,
    UnitHom,
    build_A_ht,
    build_B,
    certify_unit,
    chart_change_invariance,
    first_chart_criterion_instances,
    homotopy_lift,
    log_flat_over_point,
    second_chart_criterion,
    try_nth_root,
    unit_extension_chart,
    verify_lift_uniqueness,
)


def field_ring(field=pa.QQ):
    return RingPresentation(PolyRing(field, []), [])


def nodal_chart(field=pa.QQ):
    """Q = N --0--> k, P = N^2 via the diagonal, C = k[x,y]/(xy)."""
    k = field_ring(field)
    cring = PolyRing(field, ["x", "y"])
    c = RingPresentation(cring, [cring.parse("x*y")])
    h = diagonal(2)
    f = RingMap(k, c, [], check=False)
    return ChartData(nat_monoid(1), nat_monoid(2), h, k, c,
                     [k.ring.zero()], [cring.var(0), cring.var(1)], f)


def smooth_divisor_chart(field=pa.QQ):
    """Q = 0, P = N, C = k[x], b(1) = x."""
    k = field_ring(field)
    cring = PolyRing(field, ["x"])
    c = RingPresentation(cring, [])
    q = trivial_monoid()
    p = nat_monoid(1)
    h = MonoidHom(q, p, [])
    f = RingMap(k, c, [], check=False)
    return ChartData(q, p, h, k, c, [], [cring.var(0)], f)


class TestChartData:
    def test_commutation_guard(self):
        k = field_ring()
        cring = PolyRing(pa.QQ, ["x", "y"])
        c = RingPresentation(cring, [cring.parse("x*y")])
        h = diagonal(2)
        f = RingMap(k, c, [], check=False)
        with pytest.raises(ChartInvalid):
            # t(1) = 1 but x*y = 0 in C: the square cannot commute
            ChartData(nat_monoid(1), nat_monoid(2), h, k, c,
                      [k.ring.one()], [cring.var(0), cring.var(1)], f)

    def test_nodal_chart_valid(self):
        nodal_chart()


class TestBuildAht:
    def test_trivial_q(self):
        chart = smooth_divisor_chart()
        aht, cpgp, comparison = build_A_ht(chart)
        # A(h,t) = k[N] = k[u]; one monoid variable, no Laurent variables
        assert aht.ring.nvars == 1
        assert aht.ideal == [] or all(aht.is_zero(g) for g in aht.ideal)

    def test_nodal_relation(self):
        chart = nodal_chart()
        aht, cpgp, comparison = build_A_ht(chart)
        r = aht.ring
        # s sbar = 1 and 0*s - uv: the monoid variables multiply to zero
        names = r.names
        ui = [i for i, n in enumerate(names) if n.startswith("u")]
        prod = r.mul(r.var(ui[0]), r.var(ui[1]))
        assert aht.is_zero(prod)

    def test_invertible_t(self):
        # Q = N, t(1) = 1: relation s = uv makes uv invertible
        aht, _, _ = build_A_ht(invertible_t_chart())
        r = aht.ring
        names = r.names
        ui = [i for i, n in enumerate(names) if n.startswith("u")]
        sb = names.index("sb0")
        # uv * sbar = s sbar * ... = 1 after eliminating s: uv is a unit
        prod = r.mul(r.var(ui[0]), r.var(ui[1]), r.var(sb))
        assert aht.eq(prod, r.one())


def invertible_t_chart():
    """Q = N --1--> k, P = N^2 via the diagonal, C = k[x,y]/(xy - 1)."""
    k = field_ring()
    cring = PolyRing(pa.QQ, ["x", "y"])
    c = RingPresentation(cring, [cring.parse("x*y - 1")])
    f = RingMap(k, c, [], check=False)
    return ChartData(nat_monoid(1), nat_monoid(2), diagonal(2), k, c,
                     [k.ring.one()], [cring.var(0), cring.var(1)], f)


def _reduced_basis(pres):
    return [pres.ring.to_str(g) for g in pres.gb()]


@pytest.mark.parametrize("units", [0, 1, 2])
@pytest.mark.parametrize("make", ["nodal", "smooth_divisor", "invertible_t",
                                  "kt"])
def test_build_A_ht_matches_hand_written_group_algebras(make, units):
    """A(h,t) and C[P^gp] from ``group_algebra`` and certificates equal the
    hand-written layout with closed-form group monomials: the same names,
    the same reduced bases, and the same normal forms of the comparison
    map's images."""
    chart = {"nodal": nodal_chart, "smooth_divisor": smooth_divisor_chart,
             "invertible_t": invertible_t_chart, "kt": kt_chart}[make]()
    if units:
        chart = unit_extension_chart(chart, units)
    aht, cpgp, comparison = build_A_ht(chart)
    ref_aht, ref_cpgp, ref_comparison = ref.build_A_ht(chart)
    assert aht.ring.names == ref_aht.ring.names
    assert cpgp.ring.names == ref_cpgp.ring.names
    assert _reduced_basis(aht) == _reduced_basis(ref_aht)
    assert _reduced_basis(cpgp) == _reduced_basis(ref_cpgp)
    assert [cpgp.ring.to_str(cpgp.nf(v)) for v in comparison.images] == \
        [ref_cpgp.ring.to_str(ref_cpgp.nf(v)) for v in ref_comparison.images]


class TestBuildB:
    def test_nodal_gives_kxy_mod_xy(self):
        chart = nodal_chart()
        cr = build_B(chart)
        r = cr.pres.ring
        assert set(r.names) == {"x", "y"}
        assert cr.pres.is_zero(r.parse("x*y"))
        assert not cr.pres.is_zero(r.parse("x"))
        # grading: Z with degrees +-1
        assert cr.grading.group == FgAbGroup.free(1)
        degs = {cr.grading.degrees[i] for i in cr.evars}
        assert degs == {(1,), (-1,)}

    def test_trivial_q_gives_kx(self):
        chart = smooth_divisor_chart()
        cr = build_B(chart)
        assert cr.pres.ideal == []
        assert cr.grading.group == FgAbGroup.free(1)

    def test_family_chart(self):
        # A = k[t], t(1) = t: B = k[t,x,y]/(xy - t)
        field = pa.QQ
        aring = PolyRing(field, ["t"])
        a = RingPresentation(aring, [])
        cring = PolyRing(field, ["t", "x", "y"])
        c = RingPresentation(cring, [cring.parse("x*y - t")])
        h = diagonal(2)
        f = RingMap(a, c, [cring.var(0)], check=False)
        chart = ChartData(nat_monoid(1), nat_monoid(2), h, a, c,
                          [aring.var(0)], [cring.var(1), cring.var(2)], f)
        cr = build_B(chart)
        r = cr.pres.ring
        assert cr.pres.is_zero(r.parse("x*y - t"))
        assert cr.base == ("kt", 0)


class TestSecondCriterion:
    def test_nodal_structure_module(self):
        chart = nodal_chart()
        m = ModulePresentation(chart.c, 1, [])
        ok, cert = second_chart_criterion(chart, m)
        assert ok

    def test_nodal_antidiagonal(self):
        chart = nodal_chart()
        m = ModulePresentation(chart.c, 1, [chart.c.parse("x + y")])
        ok, _ = second_chart_criterion(chart, m)
        assert not ok

    def test_smooth_divisor(self):
        chart = smooth_divisor_chart()
        m_bad = ModulePresentation(chart.c, 1, [chart.c.parse("x")])
        m_good = ModulePresentation(chart.c, 1, [chart.c.parse("x - 1")])
        assert not second_chart_criterion(chart, m_bad)[0]
        assert second_chart_criterion(chart, m_good)[0]

    def test_requires_injective(self):
        q = nat_monoid(2)
        p = nat_monoid(1)
        h = MonoidHom(q, p, [(1,), (1,)])
        k = field_ring()
        cring = PolyRing(pa.QQ, ["x"])
        c = RingPresentation(cring, [cring.var(0)])  # x = 0, so the square commutes
        f = RingMap(k, c, [], check=False)
        chart = ChartData(q, p, h, k, c,
                          [k.ring.zero(), k.ring.zero()], [cring.var(0)], f)
        m = ModulePresentation(c, 1, [])
        with pytest.raises(NotInjectiveH):
            second_chart_criterion(chart, m)

    def test_agrees_with_log_point_on_corpus(self):
        # chart with Q = 0, A = k: both routes must agree
        chart = smooth_divisor_chart()
        for rels in ([], ["x"], ["x - 1"], ["x^2"]):
            m = ModulePresentation(chart.c, 1,
                                   [chart.c.parse(s) for s in rels])
            via_chart, _ = second_chart_criterion(chart, m)
            via_point, _ = log_flat_over_point(nat_monoid(1), m)
            assert via_chart == via_point


class TestLogFlatOverPoint:
    def setup_method(self):
        from logflat.graded import MonoidAlgebra
        self.alg = MonoidAlgebra(nat_monoid(2))
        self.r = self.alg.pres.ring

    def check(self, rels):
        m = ModulePresentation(self.alg.pres, 1,
                               [self.r.parse(s) for s in rels])
        ok, entries = log_flat_over_point(nat_monoid(2), m)
        return ok, entries

    def test_free(self):
        ok, entries = self.check([])
        assert ok and len(entries) == 4

    def test_skyscraper(self):
        ok, entries = self.check(["x", "y"])
        assert not ok

    def test_antidiagonal(self):
        ok, entries = self.check(["x + y"])
        assert not ok
        # it fails exactly at the maximal ideal
        failing = [e for e in entries if not e["tor1_zero"]]
        assert len(failing) == 1
        assert sorted(failing[0]["prime"]) == [[0, 1], [1, 0]]

    def test_shifted_line(self):
        ok, _ = self.check(["x + y - 1"])
        assert ok


class TestChartInvariance:
    def test_unit_extension(self):
        chart = nodal_chart()
        chart2 = unit_extension_chart(chart)
        m = ModulePresentation(chart.c, 1, [chart.c.parse("x + y")])
        ok, cert = chart_change_invariance(chart, chart2, m)
        assert ok
        assert cert["isomorphism"] and cert["grading_iso"]
        assert cert["verdicts"] == (False, False)

    def test_chart_vs_itself(self):
        chart = nodal_chart()
        m = ModulePresentation(chart.c, 1, [])
        ok, _ = chart_change_invariance(chart, chart, m)
        assert ok

    def test_unit_extension_over_a_torsion_ambient(self):
        # in P' = P (+) Z the unit Z comes before the torsion coordinate of
        # P^gp = Z + Z/2, so the generator (1, 1) goes to (1, 0, 1)
        from logflat import cli
        doc = {"version": 1, "objects": [
            {"name": "C", "kind": "ring", "variables": ["x", "y"],
             "relations": ["x^2 - y^2"]},
            {"name": "M", "kind": "module", "ring": "C", "rank": 1,
             "relations": []},
            {"name": "Q", "kind": "monoid", "ambient_rank": 0,
             "generators": []},
            {"name": "P", "kind": "monoid", "ambient_rank": 1,
             "ambient_torsion": [2], "generators": [[1, 0], [1, 1]]},
            {"name": "h", "kind": "monoid_hom", "source": "Q", "target": "P",
             "images": []},
            {"name": "A", "kind": "ring", "variables": [], "relations": []},
            {"name": "ch", "kind": "chart", "q": "Q", "p": "P", "h": "h",
             "a": "A", "c": "C", "t": [], "b": ["x", "y"], "f": []}],
            "tasks": [{"kind": "chart_invariance", "chart": "ch",
                       "module": "M", "units_rank": 1}]}
        report, code = cli.run_document(doc)
        assert code == 0
        assert report["tasks"][0]["result"]["invariant"] is True

    def test_unrelated_ambients_guard(self):
        # Z^2 + Z/2 is not Z^2 (+) Z^r for any r
        chart = nodal_chart()
        p2 = FineMonoid(FgAbGroup(2, (2,)),
                        [v + (0,) for v in chart.p.generators])
        wider = replace(chart, p=p2, h=MonoidHom(
            chart.q, p2, [v + (0,) for v in chart.h.images]))
        with pytest.raises(ChartsUnrelated):
            chart_change_invariance(chart, wider,
                                    ModulePresentation(chart.c, 1, []))

    def test_different_c_guard(self):
        with pytest.raises(ChartsUnrelated):
            chart_change_invariance(
                nodal_chart(), smooth_divisor_chart(),
                ModulePresentation(nodal_chart().c, 1, []))


class TestFirstCriterionInstances:
    def test_nodal_instances(self):
        chart = nodal_chart()
        m_flat = ModulePresentation(chart.c, 1, [])
        aht, _, _ = build_A_ht(chart)
        names = aht.ring.names
        ui = [i for i, n in enumerate(names) if n.startswith("u")]
        ideals = [[aht.ring.var(ui[0])], []]
        res = first_chart_criterion_instances(chart, m_flat, ideals)
        assert res == [True, True]


def eps_extension(field=pa.QQ):
    ring = PolyRing(field, ["e"])
    aprime = RingPresentation(ring, [ring.parse("e^2")])
    return SquareZeroExtension(aprime, [ring.var(0)])


class TestUnits:
    def test_certify(self):
        ext = eps_extension()
        u = certify_unit(ext.aprime, ext.aprime.parse("1 + e"))
        assert ext.aprime.eq(ext.aprime.ring.mul(u.val, u.inv),
                             ext.aprime.ring.one())

    def test_nonunit_rejected(self):
        ext = eps_extension()
        with pytest.raises(Exception):
            certify_unit(ext.aprime, ext.aprime.parse("e"))

    def test_zero_ring_unit(self):
        # every element of the zero ring k[x]/(1) is a unit, with inverse 0
        ring = PolyRing(pa.QQ, ["x"])
        zero_ring = RingPresentation(ring, [ring.one()])
        u = certify_unit(zero_ring, ring.var(0))
        assert u.val == ring.var(0)
        assert u.inv == {}
        assert zero_ring.eq(ring.mul(u.val, u.inv), ring.one())

    def test_nth_root_char0(self):
        ext = eps_extension()
        u = certify_unit(ext.aprime, ext.aprime.parse("1 + e"))
        r = try_nth_root(ext.aprime, u, 2)
        assert r is not None
        sq = ext.aprime.ring.mul(r.val, r.val)
        assert ext.aprime.eq(sq, u.val)

    def test_nth_root_f5_exists_for_2(self):
        ext = eps_extension(pa.FieldFp(5))
        u = certify_unit(ext.aprime, ext.aprime.parse("1 + e"))
        assert try_nth_root(ext.aprime, u, 2) is not None

    def test_nth_root_f5_fails_for_5(self):
        ext = eps_extension(pa.FieldFp(5))
        u = certify_unit(ext.aprime, ext.aprime.parse("1 + e"))
        assert try_nth_root(ext.aprime, u, 5) is None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10 ** 80), st.integers(2, 12))
    def test_int_nth_root_exact(self, k, n):
        assert ch._int_nth_root(k ** n, n) == k
        assert ch._int_nth_root(k ** n + 1, n) is None

    @pytest.mark.parametrize("const", [4 * (10 ** 20 + 39) ** 2, 7 ** 400])
    def test_nth_root_of_large_constant(self, const):
        # past float precision (and float range for 7^400): the square root
        # exists, so no cover is needed
        ext = eps_extension()
        ring = ext.aprime.ring
        u = certify_unit(ext.aprime, ring.add(ring.const(const), ring.var(0)))
        r = try_nth_root(ext.aprime, u, 2)
        assert r is not None
        assert ext.aprime.eq(ring.mul(r.val, r.val), u.val)


def taut_problem(ext, h, a_units=None, b_units=None, eta_units=None):
    """Tautological chart parts: a = chart inclusion, b = chart of h-image."""
    q, p = h.source, h.target
    a_chart = list(q.generators)
    b_chart = [q.ambient.reduce(_preimage_chart(h, g)) for g in p.generators]
    ones_a = [Unit.one(ext.aprime) for _ in q.generators]
    ones_b = [Unit.one(ext.a) for _ in p.generators]
    ones_eta = [Unit.one(ext.a) for _ in q.generators]
    return LiftProblem(ext, h, q,
                       a_chart, a_units or ones_a,
                       b_chart, b_units or ones_b,
                       eta_units or ones_eta)


def _preimage_chart(h, pg):
    # chart part of b at a P-generator: any Q^gp element mapping to it
    from logflat.abgrp import IntMatrix, solve_integer
    cols = [list(v) for v in h.images] + \
           [list(c) for c in h.target.ambient.relation_columns()]
    m = IntMatrix.from_columns(cols, nrows=h.target.ambient.dim)
    sol = solve_integer(m, h.target.ambient.reduce(pg))
    if sol is None:
        raise ValueError("generator outside the image groupification")
    n = len(h.source.generators)
    out = h.source.ambient.zero()
    for c, g in zip(sol[:n], h.source.generators):
        out = h.source.ambient.add(out, h.source.ambient.scale(c, g))
    return out


class TestHomotopyLift:
    def test_zero_kernel_identity(self):
        ring = PolyRing(pa.QQ, [])
        aprime = RingPresentation(ring, [])
        ext = SquareZeroExtension(aprime, [])
        h = MonoidHom.identity(nat_monoid(1))
        lift = homotopy_lift(taut_problem(ext, h))
        assert lift.cover_adjoined == ()

    def diagonal_problem(self, b_chart=((1,), (0,)), eta="1"):
        """Q = N --diag--> P = N^2 over k[e]/(e^2) -> k, a = 1 + e; by
        default b charts e1 |-> 1 in Q, e2 |-> 0, so that bh = a on charts."""
        ext = eps_extension()
        h = diagonal(2)
        return LiftProblem(
            ext, h, h.source,
            [(1,)], [certify_unit(ext.aprime, ext.aprime.parse("1 + e"))],
            list(b_chart), [Unit.one(ext.a), Unit.one(ext.a)],
            [certify_unit(ext.a, ext.a.parse(eta))])

    def test_case2_diagonal(self):
        # torsion-free cokernel
        lift = homotopy_lift(self.diagonal_problem())
        assert lift.cover_adjoined == ()
        # beta = 1 since h is injective
        for u in lift.beta.units:
            assert u.is_one()

    def test_case1_surjective(self):
        # the kernel of N^2 -> N must map into the units, twisting beta
        ext = eps_extension()
        q2, p1 = nat_monoid(2), nat_monoid(1)
        h = MonoidHom(q2, p1, [(1,), (1,)])
        one = Unit.one(ext.aprime)
        u = certify_unit(ext.aprime, ext.aprime.parse("1 + e"))
        prob = LiftProblem(
            ext, h, q2,
            [(1, 0), (1, 0)], [one, u],
            [(1, 0)], [Unit.one(ext.a)],
            [Unit.one(ext.a), Unit.one(ext.a)])
        lift = homotopy_lift(prob)
        # beta is nontrivial on some direction of Q^gp
        assert not all(bu.is_one() for bu in lift.beta.units)

    def test_case1_torsion_image_adjoins_a_root(self):
        # h: N^2 onto <(1,0), (1,1)> in Z + Z/3 has a Z/3 in the image of
        # Q^gp; (1 + x)^3 = 1 + x^3 has no cube root in F3[x]/(x^4), so case 1
        # adjoins one, and b must be promoted into the extended A before
        # alpha is built from it
        ring = PolyRing(pa.FieldFp(3), ["x"])
        aprime = RingPresentation(ring, [ring.parse("x^4")])
        ext = SquareZeroExtension(aprime, [ring.parse("x^2")])
        p = FineMonoid(FgAbGroup(1, (3,)), [(1, 0), (1, 1)])
        h = MonoidHom(nat_monoid(2), p, p.generators)
        r = trivial_monoid()
        zeros = [r.ambient.zero()] * 2
        prob = LiftProblem(
            ext, h, r,
            zeros, [Unit.one(ext.aprime),
                    certify_unit(ext.aprime, ext.aprime.parse("1 + x"))],
            zeros, [Unit.one(ext.a),
                    certify_unit(ext.a, ext.a.parse("1 + x"))],
            [Unit.one(ext.a)] * 2)
        lift = homotopy_lift(prob)
        assert lift.cover_adjoined == ("rt0",)
        assert ch.verify_lift_identities(lift, prob) == []

    def test_units_over_different_rings_rejected(self):
        ext = eps_extension()
        bigger = RingPresentation(PolyRing(pa.QQ, ["e", "rt0"]), [])
        with pytest.raises(ValueError):
            Unit.one(ext.aprime).mul(Unit.one(bigger))

    def test_case3_mult2_no_cover_in_char0(self):
        ext = eps_extension()
        p = nat_monoid(1)
        h = MonoidHom(p, p, [(2,)])
        u = certify_unit(ext.aprime, ext.aprime.parse("1 + e"))
        prob = LiftProblem(
            ext, h, p,
            [(2,)], [u],
            [(1,)], [Unit.one(ext.a)],
            [Unit.one(ext.a)])
        lift = homotopy_lift(prob)
        assert lift.cover_adjoined == ()  # roots exist in char 0

    def test_case3_mult5_cover_over_f5(self):
        ext = eps_extension(pa.FieldFp(5))
        p = nat_monoid(1)
        h = MonoidHom(p, p, [(5,)])
        u = certify_unit(ext.aprime, ext.aprime.parse("1 + e"))
        prob = LiftProblem(
            ext, h, p,
            [(5,)], [u],
            [(1,)], [Unit.one(ext.a)],
            [Unit.one(ext.a)])
        lift = homotopy_lift(prob)
        assert len(lift.cover_adjoined) == 1
        # alpha sends the Z/5 class to the image of the adjoined root
        rt = lift.tower.aprime.ring.names[-1]
        assert rt.startswith("rt")

    def test_uniqueness_gamma(self):
        lift1 = homotopy_lift(self.diagonal_problem())
        # twist by a nontrivial unit-valued gamma on P^gp
        g0 = certify_unit(lift1.tower.aprime, lift1.tower.aprime.parse("1 + e"))
        gamma0 = UnitHom(lift1.span_p,
                         [g0 if i == 0 else Unit.one(lift1.tower.aprime)
                          for i in range(lift1.span_p.dim)],
                         check=False)
        lift2 = lift1.twist(gamma0)
        gamma = verify_lift_uniqueness(lift1, lift2)
        # gamma l2 = l1 forces gamma = gamma0^{-1}
        assert gamma.apply(lift1.span_p.generators()[0]).eq(g0.invert())

    def test_units_breaking_a_relation_rejected(self):
        # Q = <1, 2> in Z has 2 g1 = g2, but a(g1)^2 = 1 + 2e != 1 = a(g2)
        ext = eps_extension()
        q = FineMonoid(FgAbGroup(1, ()), [(1,), (2,)])
        u = certify_unit(ext.aprime, ext.aprime.parse("1 + e"))
        prob = taut_problem(ext, MonoidHom.identity(q),
                            a_units=[u, Unit.one(ext.aprime)])
        with pytest.raises(HomotopyInvalid):
            homotopy_lift(prob)

    def test_eta_not_a_homotopy_rejected(self):
        # eta . b h = 2 but i a = 1
        with pytest.raises(HomotopyInvalid):
            homotopy_lift(self.diagonal_problem(eta="2"))

    def test_chart_mismatch_rejected(self):
        # chart(b h) = 2 but chart(a) = 1
        with pytest.raises(HomotopyInvalid):
            homotopy_lift(self.diagonal_problem(b_chart=((1,), (1,))))

    def test_lifts_over_different_covers_incompatible(self):
        ext = eps_extension(pa.FieldFp(5))
        p = nat_monoid(1)
        h = MonoidHom(p, p, [(5,)])

        def lift_of(a_unit):
            return homotopy_lift(LiftProblem(
                ext, h, p, [(5,)], [certify_unit(ext.aprime, a_unit)],
                [(1,)], [Unit.one(ext.a)], [Unit.one(ext.a)]))

        covered = lift_of(ext.aprime.parse("1 + e"))
        plain = lift_of(ext.aprime.parse("1"))
        assert covered.cover_adjoined and not plain.cover_adjoined
        with pytest.raises(LiftsIncompatible):
            verify_lift_uniqueness(covered, plain)

    def test_self_uniqueness_trivial(self):
        ext = eps_extension()
        h = MonoidHom.identity(nat_monoid(1))
        lift = homotopy_lift(taut_problem(ext, h))
        gamma = verify_lift_uniqueness(lift, lift)
        assert all(u.is_one() for u in gamma.units)


class TestFreeCertificate:
    def test_non_free_chart_rejected(self):
        # Q = N^2 -> P = N^2 by a non-free injective map: swap-free shape
        q = nat_monoid(2)
        p = nat_monoid(2)
        h = MonoidHom(q, p, [(2, 0), (0, 1)])
        k = field_ring()
        cring = PolyRing(pa.QQ, ["x", "y"])
        c = RingPresentation(cring, [cring.parse("x^2"), cring.parse("y")])
        f = RingMap(k, c, [], check=False)
        chart = ChartData(q, p, h, k, c,
                          [k.ring.zero(), k.ring.zero()],
                          [cring.var(0), cring.var(1)], f)
        m = ModulePresentation(c, 1, [])
        # this h IS free (basis {0, e1}); the criterion must accept it
        ok, _ = second_chart_criterion(chart, m)
        assert ok in (True, False)


# -- the shared chart tower ----------------------------------------------------------


def _tensored_homology_is_zero(m: ModulePresentation, a_cols, b_cols):
    """H1 of  M^s2 -> M^s1 -> M  for the transported complex (b_cols: the s1
    maps into M; a_cols: the s2 maps into M^s1)."""
    over = m.over
    r = m.rank
    s1 = len(b_cols)
    big_b = []
    for j in range(s1):
        for u in range(r):
            big_b.append(_kron_block(b_cols[j], u, r))
    mid_rels = []
    for j in range(s1):
        for rel in m.columns:
            mid_rels.append({(mono, j * r + pos): c
                             for (mono, pos), c in rel.items()})
    big_a = []
    for col in a_cols:
        for u in range(r):
            big_a.append(_kron_block(col, u, r))
    return pa.homology(ModulePresentation(over, s1 * r, big_a + mid_rels),
                       big_b, m)


def _kron_block(col, u, r):
    """Tensor a column of ring elements with the u-th basis vector of M."""
    return {(mono, pos * r + u): c for (mono, pos), c in col.items()}


def reference_tower(cr, m, evars, killed=()):
    """The chart tower without sharing, through the earlier Tor code: every
    ordering of the spawning variables is recomputed, and each Tor test
    resolves z_e over its level (over B itself at the top), transports the
    complex to the ring of M and tensors it with M by
    ``_tensored_homology_is_zero``."""
    ring = cr.pres.ring
    level = cr.pres.quotient([ring.var(k) for k in killed])
    base_ok, base_cert = gd._base_flat(cr, m, level)
    cert = {"base": base_cert, "spawning": []}
    verdict = base_ok
    to_m = (RingMap(level, m.over, list(cr.to_c.images), check=False)
            if killed else cr.to_c)
    for e in evars:
        ze = ring.var(e)
        d2 = pa.kernel_of_matrix(to_m.source, [ze], 1)
        tz = _tensored_homology_is_zero(
            m, [to_m.apply(s) for s in d2], [to_m.apply(ze)])
        sub_m = ModulePresentation(
            m.over.quotient([cr.to_c.apply(ze)]), m.rank, m.columns)
        sub_ok, sub_cert = reference_tower(
            cr, sub_m, [v for v in evars if v != e], tuple(killed) + (e,))
        cert["spawning"].append({"variable": ring.names[e], "tor1_zero": tz,
                                 "quotient": sub_cert})
        verdict = verdict and tz and sub_ok
    cert["verdict"] = verdict
    return verdict, cert


def kt_chart():
    """Q = 0, P = N^3, A = k[t], C = k[t,x,y,z], b = (x, y, z): k[t] is the
    base at every level of the tower."""
    aring = PolyRing(pa.QQ, ["t"])
    a = RingPresentation(aring, [])
    cring = PolyRing(pa.QQ, ["t", "x", "y", "z"])
    c = RingPresentation(cring, [])
    h = MonoidHom(trivial_monoid(), nat_monoid(3), [])
    f = RingMap(a, c, [cring.var(0)], check=False)
    return ChartData(trivial_monoid(), nat_monoid(3), h, a, c, [],
                     [cring.var(1), cring.var(2), cring.var(3)], f)


def tower_case(source, which):
    """(chart, module): a chart_criterion task of a gallery by index, or a
    module over the nodal chart at units_rank 1 or over kt_chart by its
    relation."""
    if source == "nodal":
        chart = unit_extension_chart(nodal_chart())
    elif source == "kt":
        chart = kt_chart()
    else:
        from logflat import cli
        doc = cli.load_gallery(source)
        ws = cli.Workspace(doc, pa.QQ)
        tasks = [t for t in doc["tasks"] if t["kind"] == "chart_criterion"]
        task = tasks[which]
        return ws.get(task["chart"]), ws.get(task["module"])
    return chart, ModulePresentation(
        chart.c, 1, [chart.c.parse(which)] if which else [])


class TestSharedTower:
    @pytest.mark.parametrize("source, which", [
        ("nodal", ""), ("nodal", "x + y"),
        ("smooth-divisor", 0), ("smooth-divisor", 1), ("smooth-divisor", 2),
        ("expanded-degeneration", 0), ("expanded-degeneration", 1),
        ("kt", "t*x - y"), ("kt", "x*y*z - t")])
    def test_matches_reference(self, source, which):
        chart, m = tower_case(source, which)
        cr = build_B(chart)
        assert gd._flat_chart(m, cr) == \
            reference_tower(cr, m, list(cr.evars))

    def test_one_tor_test_per_killed_set_and_variable(self, monkeypatch):
        # one base test per killed set and one Tor test per killed set and
        # variable: on the C side (the nodal chart at units_rank 1, four
        # spawning variables) and on the B side (the nodal ring over the
        # identity, two)
        levels, tors = [], []
        base, tor = gd._base_flat, pa.tor1_along

        def killed(level):
            return frozenset(next(iter(g))[0] for g in level.ideal[n_ideal:])

        def recording_base(shape, m, level):
            levels.append(killed(level))
            return base(shape, m, level)

        def recording_tor(rmap, cols, rank, n):
            tors.append((killed(rmap.source), tuple(map(str, cols))))
            return tor(rmap, cols, rank, n)

        monkeypatch.setattr(gd, "_base_flat", recording_base)
        monkeypatch.setattr(pa, "tor1_along", recording_tor)
        chart = unit_extension_chart(nodal_chart())
        _, _, nodal = gd.nodal_ring()
        for shape, m, n in (
                (build_B(chart), ModulePresentation(chart.c, 1, []), 4),
                (nodal, ModulePresentation(nodal.pres, 1, []), 2)):
            levels.clear()
            tors.clear()
            n_ideal = len(shape.pres.ideal)
            gd.graded_flat(m, shape)
            assert len(shape.evars) == n
            assert len(levels) == len(set(levels)) == 2 ** n
            assert len(tors) == len(set(tors)) == n * 2 ** (n - 1)

    def test_free_module_units_rank_2(self):
        from logflat import cli
        doc = cli.load_gallery("nodal-degeneration")
        doc["objects"] += [
            {"name": "Q", "kind": "monoid", "ambient_rank": 1,
             "generators": [[1]]},
            {"name": "P", "kind": "monoid", "ambient_rank": 2,
             "generators": [[1, 0], [0, 1]]},
            {"name": "h", "kind": "monoid_hom", "source": "Q", "target": "P",
             "images": [[1, 1]]},
            {"name": "A", "kind": "ring", "variables": [], "relations": []},
            {"name": "node", "kind": "chart", "q": "Q", "p": "P", "h": "h",
             "a": "A", "c": "B", "t": ["0"], "b": ["x", "y"], "f": []}]
        doc["tasks"] = [{"kind": "chart_invariance", "chart": "node",
                         "module": "structure", "units_rank": 2}]
        report, code = cli.run_document(doc)
        assert code == 0
        result = report["tasks"][0]["result"]
        assert result["invariant"] is True
        assert result["certificate"]["verdicts"] == [True, True]


# -- unit inverses from the one lift ------------------------------------------------


@st.composite
def finite_ring_elements(draw):
    """(R, p): R = k[x] or k[x, y] over Q, F_3 or F_5 modulo a power of
    each variable and at most one more small polynomial, so R is finite
    dimensional; p a small polynomial."""
    field = draw(st.sampled_from([pa.QQ, pa.FieldFp(3), pa.FieldFp(5)]))
    n = draw(st.integers(1, 2))
    ring = PolyRing(field, ["x", "y"][:n])

    def poly():
        terms = draw(st.lists(st.tuples(
            st.tuples(*[st.integers(0, 2)] * n), st.integers(-2, 2)),
            max_size=3))
        return ring.add(*(ring.monomial(m, field.of_int(c))
                          for m, c in terms))

    ideal = [ring.pow(ring.var(i), draw(st.integers(1, 3)))
             for i in range(n)]
    ideal += [poly() for _ in range(draw(st.integers(0, 1)))]
    p = ring.add(ring.const(draw(st.integers(-2, 2))), poly())
    return RingPresentation(ring, ideal), p


@settings(max_examples=150, deadline=None)
@given(finite_ring_elements())
def test_certify_unit_matches_the_kbasis_system(case):
    pres, p = case
    try:
        old = ref.certify_unit(pres, p)
    except HomotopyInvalid:
        with pytest.raises(HomotopyInvalid):
            certify_unit(pres, p)
        return
    new = certify_unit(pres, p)
    assert new.val == old.val == p
    assert new.inv == old.inv


def test_certify_unit_over_an_infinite_ring():
    # Q[x] is infinite dimensional: the lift still decides exactly
    ring = PolyRing(pa.QQ, ["x"])
    qx = RingPresentation(ring, [])
    u = certify_unit(qx, ring.const(3))
    assert u.inv == ring.const(pa.QQ.inv(pa.QQ.of_int(3)))
    with pytest.raises(HomotopyInvalid):
        certify_unit(qx, ring.parse("1 + x"))
    with pytest.raises(UnsupportedShape):
        ref.certify_unit(qx, ring.const(3))


def test_certify_unit_builds_no_kbasis(monkeypatch):
    ext = eps_extension()
    for name in ("vector_space_basis", "standard_monomials"):
        monkeypatch.setattr(pa, name, None)
    u = certify_unit(ext.aprime, ext.aprime.parse("1 + e"))
    assert ext.aprime.eq(ext.aprime.ring.mul(u.val, u.inv),
                         ext.aprime.ring.one())


# -- lifting over torsion ambients of the field's characteristic ------------------


TORSION_LIFTS = {
    (2, 1): (
        ['rt0'],
        ['x + 1',
         'x*rt0^3 + rt0^3'],
        ['x^2 + 1',
         'x^2*rt0^3 + rt0^3'],
        ['x^2*rt0^5 + rt0^5',
         'x^2*rt0^2 + rt0^2'],
    ),
    (3, 1): (
        ['rt0'],
        ['x^4 + x^3 + x + 1',
         'x^4*rt0^10 + 2*x^3*rt0^10 + 2*x^4*rt0^7 + 2*x*rt0^10'
         ' + x^3*rt0^7 + rt0^10 + x^4*rt0^4 + x*rt0^7 + 2*x^3*rt0^4'
         ' + 2*rt0^7 + 2*x*rt0^4 + rt0^4'],
        ['2*x^5 + x^3 + 2*x^2 + 1',
         'x^8*rt0^10 + 2*x^6*rt0^10 + 2*x^8*rt0^7 + x^6*rt0^7'
         ' + x^8*rt0^4 + 2*x^2*rt0^10 + 2*x^6*rt0^4 + rt0^10 + x^2*rt0^7'
         ' + 2*rt0^7 + 2*x^2*rt0^4 + rt0^4'],
        ['rt0^11 + x^2*rt0^8 + x^3*rt0^5 + x^4*rt0^2 + 2*x^3*rt0^2',
         'x*rt0^3 + x^3 + rt0^3 + 2*x'],
    ),
    (3, 2): (
        ['rt0'],
        ['x^4 + 2*x^3 + 2*x + 1',
         'x^4*rt0^10 + x^3*rt0^10 + 2*x^4*rt0^7 + x*rt0^10 + 2*x^3*rt0^7'
         ' + rt0^10 + x^4*rt0^4 + 2*x*rt0^7 + x^3*rt0^4 + 2*rt0^7'
         ' + x*rt0^4 + rt0^4'],
        ['x^5 + 2*x^3 + 2*x^2 + 1',
         'x^8*rt0^10 + 2*x^6*rt0^10 + 2*x^8*rt0^7 + x^6*rt0^7'
         ' + x^8*rt0^4 + 2*x^2*rt0^10 + 2*x^6*rt0^4 + rt0^10 + x^2*rt0^7'
         ' + 2*rt0^7 + 2*x^2*rt0^4 + rt0^4'],
        ['rt0^11 + x^2*rt0^8 + 2*x^3*rt0^5 + x^4*rt0^2 + x^3*rt0^2',
         '2*x*rt0^3 + 2*x^3 + rt0^3 + x'],
    ),
    (5, 1): (
        [],
        ['x^12 + x^11 + x^8 + 4*x^6 + x^4 + x + 1',
         'x^16 + 4*x^15 + 2*x^11 + 3*x^10 + 3*x^6 + 2*x^5 + 4*x + 1'],
        ['4*x^13 + x^11 + 4*x^9 + x^8 + x^7 + 4*x^6 + 4*x^5 + x^4'
         ' + 4*x^2 + 1',
         'x^32 + 4*x^30 + 2*x^22 + 3*x^20 + 3*x^12 + 2*x^10 + 4*x^2 + 1'],
        ['4*x^7 + 4*x^5 + x^2 + 1',
         '4*x^4 + 1'],
    ),
    (5, 2): (
        [],
        ['x^12 + 3*x^11 + x^8 + x^6 + x^4 + 2*x + 1',
         'x^16 + 2*x^15 + x^11 + 2*x^10 + 2*x^6 + 4*x^5 + 3*x + 1'],
        ['3*x^13 + 3*x^11 + 3*x^9 + x^8 + 3*x^7 + x^6 + 3*x^5 + x^4'
         ' + x^2 + 1',
         'x^32 + x^30 + 3*x^22 + 3*x^20 + 3*x^12 + 3*x^10 + x^2 + 1'],
        ['2*x^7 + 3*x^5 + 4*x^2 + 1',
         '4*x^4 + 1'],
    ),
}


@pytest.mark.parametrize("d, c", sorted(TORSION_LIFTS))
def test_lift_over_torsion_of_the_characteristic(d, c):
    # P = <(1,0), (1,1)> in Z + Z/d over F_d, A' = F_d[x]/(x^4) -> A =
    # F_d[x]/(x^2), b = a = (1, 1 + cx); over F_2 and F_3 case 1 adjoins
    # a root, which certify_unit inverts
    ring = PolyRing(pa.FieldFp(d), ["x"])
    aprime = RingPresentation(ring, [ring.parse("x^4")])
    ext = SquareZeroExtension(aprime, [ring.parse("x^2")])
    p = FineMonoid(FgAbGroup(1, (d,)), [(1, 0), (1, 1)])
    h = MonoidHom(nat_monoid(2), p, p.generators)
    r = trivial_monoid()
    zeros = [r.ambient.zero()] * 2
    unit = f"1 + {c}*x"
    prob = LiftProblem(
        ext, h, r,
        zeros, [Unit.one(ext.aprime),
                certify_unit(ext.aprime, ext.aprime.parse(unit))],
        zeros, [Unit.one(ext.a), certify_unit(ext.a, ext.a.parse(unit))],
        [Unit.one(ext.a)] * 2)
    lift = homotopy_lift(prob)
    assert ch.verify_lift_identities(lift, prob) == []
    t = lift.tower
    assert (list(lift.cover_adjoined),
            [t.aprime.ring.to_str(u.val) for u in lift.l.units],
            [t.a.ring.to_str(u.val) for u in lift.alpha.units],
            [t.aprime.ring.to_str(u.val) for u in lift.beta.units]) == \
        TORSION_LIFTS[(d, c)]


# -- lifting along a cokernel with a free and a torsion part ----------------------


# (characteristic, h images, b units): (cover_adjoined, l, alpha, beta).  The
# cokernel of h^gp is Z + Z/n; its free part is lifted in one extension step
# and its torsion part in the next.  One step along G >-> P^gp prints other
# units, equal in A', on all but the first problem.
MIXED_LIFTS = {
    # the fifth root of (1 + x^2) is adjoined
    (5, ((5, 0),), ("1 + x", "1")): (
        ['rt0'],
        ['x*rt0 + rt0', '1'],
        ['rt0', '1'],
        ['4*x^9 + x^5 + 4*x^4 + 1'],
    ),
    (5, ((5, 5),), ("1", "1 + x")): (
        ['rt0'],
        ['rt0', 'x + 1'],
        ['rt0', '1'],
        ['4*x^9 + x^5 + 4*x^4 + 1'],
    ),
    (3, ((3, 6),), ("1 + x", "1 + x")): (
        ['rt0'],
        ['x*rt0 + rt0', 'x + 1'],
        ['rt0', '1'],
        ['2*x^13 + x^9 + 2*x^4 + 1'],
    ),
    (2, ((2, 2),), ("1", "1 + x")): (
        ['rt0'],
        ['rt0', 'x + 1'],
        ['rt0', '1'],
        ['x^4 + 1'],
    ),
    (0, ((2, 2),), ("1", "1 + x")): (
        [],
        ['1/2*x^10 + 1/2*x^8 - x^6 - x^4 + 1/2*x^2 + 1', 'x + 1'],
        ['1/2*x^10 + 1/2*x^8 - x^6 - x^4 + 1/2*x^2 + 1', '1'],
        ['-2*x^7 - 2*x^6 - 2*x^5 - 3*x^4 + 1'],
    ),
    (5, ((4, 6),), ("1", "1 + x")): (
        [],
        ['2*x^7 + 3*x^5 + 2*x^2 + 1', '3*x^3 + 3*x^2 + x + 1'],
        ['2*x^7 + 3*x^5 + 2*x^2 + 1', '1'],
        ['4*x^9 + x^5 + 4*x^4 + 1'],
    ),
    (7, ((4, 6),), ("1", "1 + x")): (
        [],
        ['3*x^9 + 4*x^7 + 3*x^2 + 1', '4*x^3 + 4*x^2 + x + 1'],
        ['3*x^9 + 4*x^7 + 3*x^2 + 1', '1'],
        ['6*x^11 + x^7 + 6*x^4 + 1'],
    ),
}


@pytest.mark.parametrize("char, images, b_units", sorted(MIXED_LIFTS))
def test_lift_over_a_mixed_cokernel(char, images, b_units):
    # h: N^s -> N^r over k[x]/(x^4) -> k[x]/(x^2), chart R trivial, eta = 1,
    # a = (b h)(1 + x^2) on every generator of N^s
    ring = PolyRing(pa.FieldFp(char) if char else pa.QQ, ["x"])
    aprime = RingPresentation(ring, [ring.parse("x^4")])
    ext = SquareZeroExtension(aprime, [ring.parse("x^2")])
    h = MonoidHom(nat_monoid(len(images)), nat_monoid(len(b_units)), images)
    _, _, qgp_h = h.groupification_hom()
    cok, _ = qgp_h.cokernel()
    assert cok.rank and cok.torsion
    a_units = []
    for img in images:
        a = ring.parse("1 + x^2")
        for e, b in zip(img, b_units):
            a = ring.mul(a, ring.pow(ring.parse(b), e))
        a_units.append(certify_unit(ext.aprime, a))
    r = trivial_monoid()
    prob = LiftProblem(
        ext, h, r,
        [r.ambient.zero()] * len(images), a_units,
        [r.ambient.zero()] * len(b_units),
        [certify_unit(ext.a, ext.a.parse(b)) for b in b_units],
        [Unit.one(ext.a)] * len(images))
    lift = homotopy_lift(prob)
    assert ch.verify_lift_identities(lift, prob) == []
    t = lift.tower
    assert (list(lift.cover_adjoined),
            [t.aprime.ring.to_str(u.val) for u in lift.l.units],
            [t.a.ring.to_str(u.val) for u in lift.alpha.units],
            [t.aprime.ring.to_str(u.val) for u in lift.beta.units]) == \
        MIXED_LIFTS[(char, images, b_units)]
