"""Cross-module invariants: structure-map identities for free morphisms,
Tor mechanisms, toric consistency, gate closure properties."""

import pytest

from logflat.abgrp import FgAbGroup
from logflat.monoid import (
    FineMonoid, MonoidHom, MonoidIdeal, boundary, classify_morphism,
    compose_tagged, diagonal, identity_tagged, nat_monoid, product_hom,
    pushout_tagged, trivial_monoid,
)
from logflat import monmod
from logflat.monmod import PModule, is_flat
from logflat import polyalg as pa
from logflat.polyalg import (
    ModulePresentation, PolyRing, RingMap, RingPresentation,
    regular_element_test, toric_ideal, tor1,
)
from logflat import graded as gd
from logflat import chart as ch
from logflat import descent as de

from brute_force import basis_up_to, elements_up_to


def check_structure_map_identities(h, window=3):
    """The six identities of the structure maps of a free morphism."""
    fs = h.free_structure
    amb = h.target.ambient
    basis = basis_up_to(fs, window)[:5]
    for s in basis:
        a, b = fs.alpha_beta(s, amb.zero())
        assert a == s and h.source.ambient.is_zero(b)
        for t in basis:
            a_st, b_st = fs.alpha_beta(s, t)
            a_ts, b_ts = fs.alpha_beta(t, s)
            assert a_st == a_ts and b_st == b_ts  # symmetry
            assert fs.contains(a_st)
            # s + t = alpha + h(beta)
            assert amb.add(s, t) == amb.add(a_st, h.apply_gp(b_st))
            for r in basis[:3]:
                # alpha(alpha(r,s),t) = alpha(r,alpha(s,t))
                a_rs, _ = fs.alpha_beta(r, s)
                left, _ = fs.alpha_beta(a_rs, t)
                a_st2, _ = fs.alpha_beta(s, t)
                right, _ = fs.alpha_beta(r, a_st2)
                assert left == right


class TestPartitionInvariants:
    @pytest.mark.parametrize("maker", [
        lambda: diagonal(2),
        lambda: diagonal(3),
        lambda: compose_tagged(product_hom([diagonal(2),
                                            identity_tagged(nat_monoid(1))]),
                               diagonal(2)),
    ])
    def test_structure_maps(self, maker):
        check_structure_map_identities(maker())

    def test_partition_free_and_vertical(self):
        for h in (diagonal(2), diagonal(3),
                  product_hom([diagonal(2), diagonal(2)])):
            c = classify_morphism(h)
            assert c.free and c.vertical

    def test_boundary_free_with_torsion_free_cokernel(self):
        from logflat.monoid import groupification_cokernel
        h = boundary()
        c = classify_morphism(h)
        assert c.free and not c.vertical
        cok, _ = groupification_cokernel(h)
        assert cok.is_torsion_free()

    def test_basis_window_bijectivity(self):
        # Q x S -> P injective and surjective on a degree window
        h = diagonal(2)
        fs = h.free_structure
        amb = h.target.ambient
        seen = {}
        for s in basis_up_to(fs, 4):
            for q in range(5):
                val = amb.add(h.apply_gp((q,)), s)
                assert val not in seen
                seen[val] = (q, s)
        for p in elements_up_to(h.target, 4):
            q, s = fs.decompose(p)
            assert amb.add(h.apply_gp(q), s) == amb.reduce(p)


class TestLocalizationFlat:
    # (2, 1) and (1, 2) together need the lower bound -2 * (3, 3)
    @pytest.mark.parametrize("sgens", [[(1, 0)], [(0, 1)], [(1, 1)],
                                       [(1, 0), (0, 1)], [(2, 1)], [(1, 2)],
                                       [(2, 1), (1, 2)]])
    def test_every_corpus_localization_flat(self, sgens):
        m = PModule.localization(nat_monoid(2), sgens)
        assert is_flat(m).flat


class TestTorMechanism:
    def test_tor_equals_kernel_of_regular_multiplication(self):
        # Tor_1(M, R/(f)) = ker(f on M) when f is ring-regular
        r = PolyRing(pa.QQ, ["x", "y"])
        rp = RingPresentation(r, [r.parse("x*y")])
        f = r.parse("x - y")  # regular on the nodal ring
        free = ModulePresentation(rp, 1, [])
        assert regular_element_test(f, free)
        for rels in ([], [r.parse("x + y")], [r.parse("x - 1")]):
            m = ModulePresentation(rp, 1, rels)
            zero = tor1(m, [f])
            phi = pa.ideal_rows([f], 1)
            kgens = pa.kernel_of_module_map(phi, m, m)
            ker_zero = all(m.is_zero_elem(g) for g in kgens)
            assert zero == ker_zero

    def test_toric_prime_consistency(self):
        # k[P]/k[I] two ways: quotient by the monomial lift vs direct
        # presentation of the face algebra
        p = FineMonoid(FgAbGroup.free(2), [(1, 0), (1, 1), (1, 2)])
        alg = gd.MonoidAlgebra(p)
        for prime in p.prime_ideals():
            quotient_way = alg.pres.quotient(alg.to_ring_ideal(prime))
            face_gens = [g for g in p.generators if not prime.contains(g)]
            face = FineMonoid(p.ambient, face_gens)
            face_pres, _ = toric_ideal(face) if face_gens else (None, None)
            d1 = ModulePresentation(quotient_way, 1).dim()
            if face_pres is None:
                assert d1 == 1
                continue
            d2 = ModulePresentation(face_pres, 1).dim()
            # both infinite or both equal
            assert (d1 is None) == (d2 is None)


class TestChartAgreement:
    def test_second_criterion_matches_log_point_on_kN2(self):
        # chart with Q = 0, A = k, C = k[x,y]
        k = RingPresentation(PolyRing(pa.QQ, []), [])
        cring = PolyRing(pa.QQ, ["x", "y"])
        c = RingPresentation(cring, [])
        q = trivial_monoid()
        p = nat_monoid(2)
        h = MonoidHom(q, p, [])
        f = RingMap(k, c, [], check=False)
        chart = ch.ChartData(q, p, h, k, c, [],
                             [cring.var(0), cring.var(1)], f)
        for rels in ([], ["x"], ["x + y"], ["x + y - 1"], ["x*y"]):
            m = ModulePresentation(c, 1, [c.parse(s) for s in rels])
            via_chart, _ = ch.second_chart_criterion(chart, m)
            via_point, _ = ch.log_flat_over_point(p, m)
            assert via_chart == via_point


class TestGateClosure:
    def setup_method(self):
        r1 = PolyRing(pa.QQ, ["x"])
        r2 = PolyRing(pa.QQ, ["y"])
        r0 = PolyRing(pa.QQ, [])
        c1 = RingPresentation(r1, [])
        c2 = RingPresentation(r2, [])
        c0 = RingPresentation(r0, [])
        f1 = RingMap(c1, c0, [r0.zero()], check=False)
        f2 = RingMap(c2, c0, [r0.zero()], check=False)
        self.glue = de.GluingDatum(c1, c2, c0, f1, f2)

    def test_closed_under_extensions(self):
        # a direct sum of gated modules is gated
        c = self.glue.c
        r = c.ring
        m = ModulePresentation(c, 2, [
            {((1, 0), 1): pa.QQ.one(), ((0, 0), 1): pa.QQ.of_int(-1)}])
        assert de.tor_gate(self.glue, m)

    def test_closed_under_kernels(self):
        # kernel of multiplication by a gate-preserving element on C
        c = self.glue.c
        m = ModulePresentation(c, 1, [])
        phi = pa.ideal_rows([c.ring.parse("g0 - 1")], 1)
        kgens = pa.kernel_of_module_map(phi, m, m)
        # here the kernel is zero, which is trivially gated
        assert all(m.is_zero_elem(g) for g in kgens)

    def test_finite_type_generator_count(self):
        # the recipe's generator count: n1 + n2 + #ker-gens, minus duplicates
        assert self.glue.c.ring.nvars <= 1 + 1 + 1


class TestSharpeningFlatness:
    def test_morphism_flat_iff_sharpening_flat(self):
        # units-isomorphism morphisms: flatness agrees with the sharpened map
        p = FineMonoid(FgAbGroup.free(2), [(1, 0), (0, 1), (0, -1)])
        q = FineMonoid(FgAbGroup.free(2), [(2, 0), (0, 1), (0, -1)])
        h = MonoidHom(q, p, [(2, 0), (0, 1), (0, -1)])
        c = classify_morphism(h)
        # sharpened map is N ->2 N, which is flat
        assert c.flat


class TestUngraduedFlatImpliesGraded:
    def test_free_modules(self):
        alg = gd.MonoidAlgebra(nat_monoid(1), names=["x"])
        m = ModulePresentation(alg.pres, 3, [])
        ok, _ = gd.graded_flat(m, gd.KPShape(alg))
        assert ok

    def test_pid_flat_module(self):
        # k[x]-module k[x] (+) k[x]{shift}: flat, hence graded flat
        alg = gd.MonoidAlgebra(nat_monoid(1), names=["x"])
        r = alg.pres.ring
        m = ModulePresentation(alg.pres, 2, [])
        assert gd.graded_flat(m, gd.KPShape(alg))[0]


class TestPushoutAgainstRingPushout:
    def test_amalgam_dimensions_match(self):
        # pushout of N --diag--> N^2 against N --2--> N, compared against the
        # k-algebra pushout k[x,y] (x)_{k[t], t=xy} k[s], s^2 = t  through
        # low-degree dimension counts of the toric presentation
        from logflat.monoid import monoid_pushout
        n1 = nat_monoid(1)
        h1 = diagonal(2)
        h2 = MonoidHom(n1, n1, [(2,)])
        pout, i1, i2 = monoid_pushout(h1, h2)
        toric_pres, _ = toric_ideal(pout)
        # ring pushout: k[x,y,s]/(s^2 - x y)
        r = PolyRing(pa.QQ, ["x", "y", "s"])
        ring_pushout = RingPresentation(r, [r.parse("s^2 - x*y")])

        def dims_by_degree(pres, top):
            basis = []
            stack = [(0,) * pres.ring.nvars]
            seen = set()
            gb = pres.gb()
            key = pres.ring.mkey()
            leads = [pa.m_lt(g, key)[0] for g in gb]
            while stack:
                mono = stack.pop()
                if mono in seen or sum(mono) > top:
                    continue
                seen.add(mono)
                if any(all(a <= b for a, b in zip(lm, mono)) for lm in leads):
                    continue
                basis.append(mono)
                for v in range(pres.ring.nvars):
                    stack.append(tuple(e + (1 if i == v else 0)
                                       for i, e in enumerate(mono)))
            out = [0] * (top + 1)
            for mono in basis:
                out[sum(mono)] += 1
            return out

        # compare graded dimensions weighted so x, y have degree 1, s degree 1
        assert dims_by_degree(toric_pres, 4) == dims_by_degree(ring_pushout, 4)

    def test_coproduct_is_direct_sum(self):
        from logflat.monoid import monoid_pushout
        t = trivial_monoid()
        h1 = MonoidHom(t, nat_monoid(1), [])
        h2 = MonoidHom(t, nat_monoid(2), [])
        pout, _, _ = monoid_pushout(h1, h2)
        assert pout.ambient.rank == 3
        assert len(pout.generators) == 3


class TestCoverRank:
    def test_root_adjunction_cover_is_free_of_stated_rank(self):
        # the F5 cover adjoins one fifth root: dim B' = 5 * dim A'
        from tests.test_acceptance import eps_extension, lift_instances
        name, prob = lift_instances()[4]
        lift = ch.homotopy_lift(prob)
        assert len(lift.cover_adjoined) == 1
        dim_cover = ModulePresentation(lift.tower.aprime, 1).dim()
        assert dim_cover == 5 * 2  # basis 1..x^4 over k[e]/(e^2)
