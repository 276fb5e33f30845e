import ast
import hashlib
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

import linear_references as ref
from logflat import abgrp, scope
from logflat.abgrp import FgAbGroup
from logflat.monoid import FineMonoid, nat_monoid
from logflat import polyalg as pa
from logflat.polyalg import (
    QQ,
    FieldFp,
    ModulePresentation,
    NotPointed,
    PolyRing,
    RingMap,
    RingPresentation,
    block_key,
    buchberger,
    degrevlex_key,
    kernel_of_matrix,
    kernel_of_module_map,
    m_sub,
    module_key,
    regular_element_test,
    toric_ideal,
    tor1,
)


def ring(names, field=QQ):
    return PolyRing(field, names)


def gb_strings(rp):
    return sorted(rp.ring.to_str(g) for g in rp.gb())


def is_groebner_basis(field, basis, key):
    """Buchberger's criterion: every S-polynomial of two elements with
    leading terms in the same position reduces to zero against ``basis``."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            (mi, pi) = pa.m_lt(basis[i], key)
            (mj, pj) = pa.m_lt(basis[j], key)
            if pi != pj:
                continue
            lcm = tuple(max(a, b) for a, b in zip(mi, mj))
            si = pa.m_shift(field, field.one(),
                            tuple(a - b for a, b in zip(lcm, mi)), basis[i])
            sj = pa.m_shift(field, field.one(),
                            tuple(a - b for a, b in zip(lcm, mj)), basis[j])
            if pa.m_reduce(field, m_sub(field, si, sj), basis, key):
                return False
    return True


class TestGroebner:
    def test_monomial_ideal_fixed(self):
        r = ring(["x", "y"])
        rp = RingPresentation(r, [r.parse("x*y")])
        assert gb_strings(rp) == ["x*y"]

    def test_linear_elimination(self):
        r = ring(["x", "y"])
        rp = RingPresentation(r, [r.parse("x+y"), r.parse("x-y")])
        assert gb_strings(rp) == ["x", "y"]

    def test_zero_ideal(self):
        r = ring(["x"])
        rp = RingPresentation(r, [])
        assert rp.gb() == []

    def test_buchberger_criterion(self):
        # all S-polynomials of the returned basis reduce to zero
        r = ring(["x", "y", "z"])
        rp = RingPresentation(r, [r.parse("x^2 - y*z"), r.parse("y^2 - x*z")])
        assert is_groebner_basis(QQ, rp.gb(), r.mkey())

    def test_nf_idempotent(self):
        r = ring(["x", "y"])
        rp = RingPresentation(r, [r.parse("x^2 - y")])
        f = r.parse("x^3 + x*y + 1")
        nf = rp.nf(f)
        assert rp.nf(nf) == nf
        assert rp.eq(f, pa.m_add(QQ, nf, r.parse("x^2 - y")))

    def test_over_fp(self):
        f5 = FieldFp(5)
        r = ring(["x", "y"], f5)
        rp = RingPresentation(r, [r.parse("x + 4*y")])
        assert rp.eq(r.parse("x"), r.parse("y"))

    def test_constants_divide_in_the_field(self):
        # 3/4 is 3 * 4^-1 = 2 in F_5; a denominator zero in the field is
        # refused, where F_p once read it as 1/0 = 0 (or 1 in F_2)
        assert ring(["x"], FieldFp(5)).parse("3/4*x") == {((1,), 0): 2}
        assert ring(["x"]).parse("3/4*x") == {((1,), 0): Fraction(3, 4)}
        for field, text in ((FieldFp(2), "1/2*x"), (FieldFp(5), "3/5"),
                            (QQ, "1/0")):
            with pytest.raises(ValueError, match="denominator"):
                ring(["x"], field).parse(text)
        with pytest.raises(ValueError, match="not invertible"):
            FieldFp(5).inv(10)
        with pytest.raises(ValueError, match="not invertible"):
            FieldFp(2).div(1, 0)
        assert FieldFp(7).div(3, 5) == 2 and FieldFp(7).inv(3) == 5

    @pytest.mark.parametrize("text", [5, None, ["x"], b"x"])
    def test_parse_refuses_what_is_not_a_string(self, text):
        with pytest.raises(ValueError, match="a polynomial is a string"):
            ring(["x"]).parse(text)


class TestSyzygies:
    def test_koszul(self):
        r = ring(["x", "y"])
        rp = RingPresentation(r, [])
        syz = kernel_of_matrix(rp, [r.parse("x"), r.parse("y")], 1)
        assert len(syz) == 1
        s = syz[0]
        # s = (y, -x) up to sign: check x*s0 + y*s1 = 0
        assert not pa._apply_cols(QQ, [r.parse("x"), r.parse("y")], s)

    def test_unit_has_no_syzygy(self):
        r = ring(["x"])
        rp = RingPresentation(r, [])
        assert kernel_of_matrix(rp, [r.parse("1")], 1) == []

    def test_kernel_of_multiplication(self):
        # kernel of x on k[x]/(x^2) is generated by x
        r = ring(["x"])
        rp = RingPresentation(r, [r.parse("x^2")])
        m = ModulePresentation(rp, 1, [])
        phi = pa.ideal_rows([r.parse("x")], 1)
        gens = kernel_of_module_map(phi, m, m)
        ker = ModulePresentation(rp, len(gens),
                                 kernel_of_matrix(rp, gens, m.rank, m.columns))
        assert len(gens) == 1
        assert ker.dim() == 1


class TestDimensions:
    def test_finite(self):
        r = ring(["x", "y"])
        rp = RingPresentation(r, [r.parse("x^2"), r.parse("y^2")])
        assert ModulePresentation(rp, 1).dim() == 4

    def test_large_finite_is_counted(self):
        # a large finite quotient is counted in full, not reported infinite
        r = ring(["x", "y"])
        rp = RingPresentation(r, [r.parse("x^65"), r.parse("y^65")])
        assert ModulePresentation(rp, 1).dim() == 4225

    def test_infinite(self):
        r = ring(["x", "y"])
        rp = RingPresentation(r, [r.parse("x*y")])
        assert ModulePresentation(rp, 1).dim() is None

    def test_module(self):
        r = ring(["x"])
        rp = RingPresentation(r, [])
        m = ModulePresentation(rp, 2, [
            {((1,), 0): QQ.one()},  # x*e0
            {((3,), 1): QQ.one()},  # x^3*e1
        ])
        assert m.dim() == 4


class TestTor:
    def test_tor_at_origin_of_line(self):
        # Tor_1^{k[x,y]}(k[x,y]/(x+y), k[x,y]/(x,y)) = k
        r = ring(["x", "y"])
        rp = RingPresentation(r, [])
        m = ModulePresentation(rp, 1, [r.parse("x+y")])
        j = [r.parse("x"), r.parse("y")]
        pres, is_zero = ref.tor1_presentation(m, j)
        assert tor1(m, j) is is_zero is False
        assert pres.dim() == 1

    def test_nonzero_tor_builds_two_kernels(self, monkeypatch):
        # d2 of the resolution and the kernel of the tensored d1; the
        # homology module itself is never presented
        calls = []
        real = pa.kernel_of_matrix

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pa, "kernel_of_matrix", counting)
        r = ring(["x", "y"])
        m = ModulePresentation(RingPresentation(r, []), 1, [r.parse("x+y")])
        assert tor1(m, [r.parse("x"), r.parse("y")]) is False
        assert len(calls) == 2

    def test_tor_of_free_is_zero(self):
        r = ring(["x", "y"])
        rp = RingPresentation(r, [])
        m = ModulePresentation(rp, 3, [])
        assert tor1(m, [r.parse("x")]) is True

    def test_tor_invertible_position(self):
        r = ring(["x"])
        rp = RingPresentation(r, [])
        m = ModulePresentation(rp, 1, [r.parse("x - 1")])
        assert tor1(m, [r.parse("x")]) is True

    def test_tor_symmetry_on_small_instances(self):
        r = ring(["x", "y"])
        rp = RingPresentation(r, [r.parse("x*y")])
        cases = [
            ([r.parse("x+y")], [r.parse("x"), r.parse("y")]),
            ([r.parse("x")], [r.parse("y")]),
        ]
        for m_rel, j in cases:
            m = ModulePresentation(rp, 1, m_rel)
            direct, direct_zero = ref.tor1_presentation(m, j)
            # swap: resolve R/J and tensor with M is the same as resolving M
            n = ModulePresentation(rp, 1, j)
            swapped, swapped_zero = ref.tor1_presentation(n, m_rel)
            assert tor1(m, j) == direct_zero
            assert tor1(n, m_rel) == swapped_zero
            assert direct.dim() == swapped.dim()

    def test_tor_via_resolution_matches(self):
        r = ring(["x"])
        rp = RingPresentation(r, [])
        n = ModulePresentation(rp, 1, [r.parse("x")])
        ident = RingMap(rp, rp, [r.var(0)], check=False)
        # Tor_1(R, R/x) = 0
        assert pa.tor1_along(ident, n.columns, n.rank,
                             ModulePresentation(rp, 1)) is True

    def test_tor_localization_shadow(self):
        # Tor_1^{k[x]}(k[x,xbar]/(x*xbar-1), k[x]/(x)) = 0
        r = ring(["x"])
        rp = RingPresentation(r, [])
        n = ModulePresentation(rp, 1, [r.parse("x")])
        rloc_ring = ring(["x", "w"])
        rloc = RingPresentation(rloc_ring, [rloc_ring.parse("x*w - 1")])
        incl = RingMap(rp, rloc, [rloc_ring.var(0)], check=False)
        assert pa.tor1_along(incl, n.columns, n.rank,
                             ModulePresentation(rloc, 1)) is True


class TestRegular:
    def test_regular_on_poly_ring(self):
        r = ring(["x"])
        rp = RingPresentation(r, [])
        m = ModulePresentation(rp, 1, [])
        assert regular_element_test(r.parse("x"), m)

    def test_not_regular_square_zero(self):
        r = ring(["x"])
        rp = RingPresentation(r, [r.parse("x^2")])
        m = ModulePresentation(rp, 1, [])
        assert not regular_element_test(r.parse("x"), m)

    def test_not_regular_nodal(self):
        r = ring(["x", "y"])
        rp = RingPresentation(r, [r.parse("x*y")])
        m = ModulePresentation(rp, 1, [])
        assert not regular_element_test(r.parse("x"), m)


class TestModuleMapInverse:
    def test_not_injective(self):
        # x on k[x]/(x^2) kills x
        r = ring(["x"])
        m = ModulePresentation(RingPresentation(r, [r.parse("x^2")]), 1)
        assert pa.module_map_inverse(pa.ideal_rows([r.parse("x")], 1),
                                     m, m) is None

    def test_not_surjective(self):
        # x on k[x] is injective and misses 1
        r = ring(["x"])
        m = ModulePresentation(RingPresentation(r), 1)
        phi = pa.ideal_rows([r.parse("x")], 1)
        assert pa.is_injective(phi, m, m)
        assert pa.module_map_inverse(phi, m, m) is None

    def test_inverse_composes_to_identity(self):
        # x - 1 is a unit of k[x]/(x^2); on R^2 modulo (x e_0) it is
        # composed with the swap of the two summands
        r = ring(["x"])
        over = RingPresentation(r, [r.parse("x^2")])
        m = ModulePresentation(over, 2, [{((1,), 0): QQ.one()}])
        n = ModulePresentation(over, 2, [{((1,), 1): QQ.one()}])
        u = pa.ideal_rows([r.parse("x - 1")], 2)
        phi = [u[1], u[0]]
        inv = pa.module_map_inverse(phi, m, n)
        assert inv is not None
        for i in range(2):
            assert n.eq(pa._apply_cols(QQ, phi, inv[i]), n.basis_elem(i))
            assert m.eq(pa._apply_cols(QQ, inv, phi[i]), m.basis_elem(i))

    def test_not_well_defined(self):
        # e_0 |-> e_0 sends the relation x e_0 of M to x e_0, not zero in N
        r = ring(["x"])
        over = RingPresentation(r)
        m = ModulePresentation(over, 1, [r.parse("x")])
        n = ModulePresentation(over, 1)
        with pytest.raises(ValueError, match="does not define a map"):
            pa.module_map_inverse([n.basis_elem(0)], m, n)


class TestToric:
    def test_free_monoid(self):
        p = nat_monoid(2)
        rp, degs = toric_ideal(p)
        assert rp.ideal == []
        assert degs == [(1, 0), (0, 1)]

    def test_quadric_cone(self):
        p = FineMonoid(FgAbGroup.free(2), [(1, 0), (1, 1), (1, 2)])
        rp, _ = toric_ideal(p)
        assert len(rp.gb()) == 1
        r = rp.ring
        f = rp.gb()[0]
        expect = r.sub(r.mul(r.var(0), r.var(2)), r.pow(r.var(1), 2))
        assert rp.ring.to_str(f) in (r.to_str(expect), r.to_str(r.neg(expect)))

    def test_requires_pointed_or_group(self):
        # N x Z has units but is not a group: rejected
        p = FineMonoid(FgAbGroup.free(2), [(1, 0), (0, 1), (0, -1)])
        with pytest.raises(NotPointed):
            toric_ideal(p)
        # a group is fine: k[Z] via the Rabinowitsch pair
        z = FineMonoid(FgAbGroup.free(1), [(1,), (-1,)])
        rp, _ = toric_ideal(z)
        r = rp.ring
        assert rp.is_zero(r.sub(r.mul(r.var(0), r.var(1)), r.one()))

    def test_saturation_needed(self):
        # <(2,0),(1,1),(0,2)>: lattice basis gives (1,1)^2 = (2,0)(0,2) but the
        # saturated toric ideal is needed for prime consistency
        p = FineMonoid(FgAbGroup.free(2), [(2, 0), (1, 1), (0, 2)])
        rp, _ = toric_ideal(p)
        r = rp.ring
        f = r.sub(r.mul(r.var(0), r.var(2)), r.pow(r.var(1), 2))
        assert rp.is_zero(f)

    def test_group_ideal_is_saturated(self, monkeypatch):
        # Z on 3, 2, -2 from the Smith form basis {(-2, 3, 0), (2, -2, 1)}:
        # both binomials vanish at z1 = z2 = 0, so their ideal misses
        # z2*z3 - 1, which holds in k[Z]
        p = FineMonoid(FgAbGroup.free(1), [(3,), (2,), (-2,)])
        assert p.relation_lattice() == [(-2, 3, 0), (2, -2, 1)]
        monkeypatch.setattr(abgrp, "lll_reduce", list)
        rp, _ = toric_ideal(p)
        r = rp.ring
        assert rp.is_zero(r.sub(r.mul(r.var(1), r.var(2)), r.one()))
        assert rp.is_zero(r.sub(r.mul(r.pow(r.var(0), 2), r.pow(r.var(2), 3)),
                                r.one()))
        assert not rp.contains_one()

    def test_nodal_pushforward(self):
        # k tensor_{Z[N]} Z[N^2] = k[x,y]/(xy) comes from the chart layer, but
        # the monoid algebra of N^2 itself is the free ring
        p = nat_monoid(2)
        rp, _ = toric_ideal(p)
        assert rp.is_zero(rp.ring.zero())


class TestParser:
    def test_roundtrip(self):
        r = ring(["x", "y"])
        p = r.parse("x^2*y - 3*y + 1/1")
        assert r.to_str(p) == "x^2*y - 3*y + 1"

    def test_rejects_unknown(self):
        r = ring(["x"])
        with pytest.raises(ValueError):
            r.parse("q + 1")


class TestPrimeField:
    def test_primality_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

        assert [n for n in range(10 ** 5) if pa.is_prime(n)] == \
            [n for n in range(10 ** 5) if trial(n)]

    def test_large_prime_is_quick(self):
        # trial division took over a second on this prime near 1e14, and
        # would take hours on 2^61 - 1; Miller-Rabin takes microseconds
        start = time.perf_counter()
        assert pa.FieldFp(100000000000031).p == 100000000000031
        assert pa.FieldFp(2 ** 61 - 1).char == 2 ** 61 - 1
        assert time.perf_counter() - start < 0.1

    # 561 is a Carmichael number; the last passes Miller-Rabin to every
    # prime base up to 37 and fails at 41
    @pytest.mark.parametrize("p", [-7, 0, 1, 4, 561, 3215031751,
                                   318665857834031151167461])
    def test_composites_are_refused(self, p):
        with pytest.raises(ValueError, match="p must be prime"):
            pa.FieldFp(p)

    @pytest.mark.parametrize("p", [pa.FP_BOUND, int("9" * 400)])
    def test_bound_is_stated(self, p):
        with pytest.raises(ValueError, match=f"p must be below {pa.FP_BOUND}"):
            pa.FieldFp(p)


from hypothesis import example, given, settings, strategies as st


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2),
                          st.integers(0, 2)), min_size=0, max_size=4),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2),
                          st.integers(0, 2)), min_size=0, max_size=4))
def test_nf_difference_characterizes_equality(terms_f, terms_g):
    r = ring(["x", "y"])
    rp = RingPresentation(r, [r.parse("x^2 - y")])

    def build(terms):
        p = r.zero()
        for c, a, b in terms:
            p = r.add(p, r.monomial((a, b), QQ.of_int(c)))
        return p

    f, g = build(terms_f), build(terms_g)
    same_nf = rp.nf(f) == rp.nf(g)
    diff_zero = rp.is_zero(r.sub(f, g))
    assert same_nf == diff_zero


def _divides(m1, m2):
    return all(a <= b for a, b in zip(m1, m2))


def _sorted_list_buchberger(field, gens, key):
    """The earlier pair loop of ``buchberger``, kept as the reference for
    its processing order: the pairs that ``polyalg._s_pairs`` forms are
    kept in a list, re-sorted before every pop.  The final pass reduces only
    the survivors that a later survivor's leading term can change, as in
    ``buchberger``."""
    ideal = not any(pos for g in gens for (_, pos) in g)
    basis = []
    for g in sorted((g for g in gens if g),
                    key=lambda g: key(pa.m_lt(g, key))):
        r = pa.m_reduce(field, g, basis, key)
        if r:
            basis.append(ref.m_monic(field, r, key))

    def pairs_of(j):
        return list(pa._s_pairs(pa.reducer_table(basis, key), j, ideal, key))

    pairs = [e for j in range(len(basis)) for e in pairs_of(j)]
    while pairs:
        pairs.sort()
        _, i, j, lcm = pairs.pop(0)
        gi, gj = basis[i], basis[j]
        (mi, _), (mj, _) = pa.m_lt(gi, key), pa.m_lt(gj, key)
        si = pa.m_shift(field, field.one(), tuple(a - b for a, b in zip(lcm, mi)), gi)
        sj = pa.m_shift(field, field.one(), tuple(a - b for a, b in zip(lcm, mj)), gj)
        r = pa.m_reduce(field, m_sub(field, si, sj), basis, key)
        if r:
            basis.append(ref.m_monic(field, r, key))
            pairs.extend(pairs_of(len(basis) - 1))
    # the final step of buchberger: drop each element whose leading term
    # another one divides, then reduce against the others each survivor
    # that has a term a later survivor's leading term divides
    lts = [pa.m_lt(g, key) for g in basis]
    keep = [g for g, (mi, pi) in zip(basis, lts)
            if not any(pj == pi and (mj, pj) != (mi, pi) and _divides(mj, mi)
                       for (mj, pj) in lts)]

    def changes(n):
        later = [pa.m_lt(h, key) for h in keep[n + 1:]]
        return any(pj == p and _divides(mj, m)
                   for (m, p) in keep[n] for (mj, pj) in later)

    basis = [pa.m_reduce(field, g, [h for h in keep if h is not g], key)
             if changes(n) else g for n, g in enumerate(keep)]
    basis.sort(key=lambda g: key(pa.m_lt(g, key)))
    return basis


def _elements(draw, field, nvars, rank, count, terms, exp,
              coeffs=st.integers(-3, 3)):
    """Up to ``count`` random elements of S^rank (zero ones included), each
    a sum of up to ``terms`` terms with exponents at most ``exp`` and
    coefficients drawn from ``coeffs``."""
    term = st.tuples(st.tuples(*[st.integers(0, exp)] * nvars),
                     st.integers(0, rank - 1), coeffs)
    out = []
    for ts in draw(st.lists(st.lists(term, max_size=terms), max_size=count)):
        g = {}
        for mono, pos, c in ts:
            if c:
                g = pa.m_add(field, g, {(mono, pos): field.of_int(c)})
        out.append(g)
    return out


def _draw_key(draw, rank):
    if draw(st.booleans()):
        return module_key(degrevlex_key)
    return block_key(degrevlex_key, draw(st.integers(0, rank)))


@st.composite
def module_problems(draw):
    """Small random generators of a submodule of S^rank, with an order."""
    field = draw(st.sampled_from([QQ, FieldFp(5), FieldFp(32003)]))
    nvars = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 3))
    gens = _elements(draw, field, nvars, rank, 4, 3, 2)
    key = _draw_key(draw, rank)
    return field, rank, gens, key


def _reductions(gb, field, gens, key):
    """The output of ``gb`` on the problem, and every (f, len(basis)) that it
    handed to ``m_reduce``, in call order."""
    seen = []
    real = pa.m_reduce

    def recording(field, f, basis, key, table=None):
        seen.append((dict(f), len(basis)))
        return real(field, f, basis, key, table)

    with mock.patch.object(pa, "m_reduce", recording):
        return gb(field, gens, key), seen


# leading terms xy, xz, yz: all three pairs tie on their lcm xyz, so the
# (i, j) tie-break decides the order
_TIED_LCMS = [{((1, 1, 0), 0): QQ.one(), ((0, 0, 0), 0): QQ.one()},
              {((1, 0, 1), 0): QQ.one(), ((0, 0, 0), 0): QQ.one()},
              {((0, 1, 1), 0): QQ.one(), ((0, 0, 0), 0): QQ.of_int(2)}]


@settings(max_examples=80, deadline=None)
@given(module_problems())
@example((QQ, 1, _TIED_LCMS, module_key(degrevlex_key)))
def test_heap_pair_order_matches_sorted_list_reference(problem):
    # The reduced basis does not depend on the pair order, so the order is
    # checked through the reductions: the same S-polynomials must reach
    # m_reduce in the same sequence.  Inputs of rank > 1 with every term in
    # position 0 are ideals too, and skip the same coprime pairs.
    field, rank, gens, key = problem
    out, seen = _reductions(buchberger, field, gens, key)
    ref, ref_seen = _reductions(_sorted_list_buchberger, field, gens, key)
    assert out == ref
    assert seen == ref_seen
    assert is_groebner_basis(field, out, key)


def _counting(key):
    """``key``, tagged by value, recording every term it is evaluated on."""
    seen = []

    def counting(term):
        seen.append(term)
        return key(term)
    counting.tag = ("counting", key.tag)
    return counting, seen


@settings(max_examples=80, deadline=None)
@given(module_problems())
@example((QQ, 1, _TIED_LCMS, module_key(degrevlex_key)))
def test_buchberger_computes_each_terms_key_once_per_call(problem):
    field, rank, gens, key = problem
    counting, seen = _counting(key)
    out = buchberger(field, gens, counting)
    first = list(seen)
    assert len(first) == len(set(first))  # no term's key twice in a call
    # outside any scope an equal call computes every key again: none of
    # them outlived the first call
    assert buchberger(field, gens, counting) == out
    assert seen[len(first):] == first
    assert out == buchberger(field, gens, key)


@st.composite
def term_rich_problems(draw):
    """Generators of a submodule of S^rank, most of them single terms, over
    QQ or F_5, with a module, block or elimination order."""
    field = draw(st.sampled_from([QQ, FieldFp(5)]))
    nvars = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 2))
    gens = (_elements(draw, field, nvars, rank, 6, 1, 3)
            + _elements(draw, field, nvars, rank, 3, 3, 2))
    gens = draw(st.permutations(gens))
    kind = draw(st.sampled_from(["module", "block", "elim"]))
    if kind == "module":
        key = module_key(degrevlex_key)
    elif kind == "block":
        key = block_key(degrevlex_key, draw(st.integers(0, rank)))
    else:
        # the order of elimination_basis, read off a call on no input
        key = pa.elimination_basis(field, [], draw(st.lists(
            st.integers(0, nvars - 1), min_size=1, unique=True)))[0]
    return field, gens, key


@settings(max_examples=150, deadline=None)
@given(term_rich_problems())
@example((QQ, _TIED_LCMS, module_key(degrevlex_key)))
def test_buchberger_matches_every_pair_reference(problem):
    # the earlier loop formed every pair and reduced every survivor in its
    # final pass; the skipped pairs and reductions change nothing, so the
    # reduced bases agree element by element and term by term
    field, gens, key = problem
    out = buchberger(field, gens, key)
    want = ref.buchberger(field, gens, key)
    assert out == want
    assert [list(g) for g in out] == [list(g) for g in want]


def _buchberger_work(monkeypatch, run):
    """Run ``run()`` and return, for each ``buchberger`` call that computed
    its basis, (field, gens, key, reductions): every (f, len(basis),
    result) that the call handed to ``m_reduce``, in call order."""
    from logflat import graded
    calls, current = [], []
    real_gb, real_reduce = pa.buchberger, pa.m_reduce

    def reduce(field, f, basis, key, table=None):
        out = real_reduce(field, f, basis, key, table)
        if current:
            current[-1].append((dict(f), len(basis), out))
        return out

    def gb(field, gens, key):
        current.append([])
        try:
            return real_gb(field, gens, key)
        finally:
            work = current.pop()
            if work:
                calls.append((field, list(gens), key, work))

    monkeypatch.setattr(pa, "m_reduce", reduce)
    for ns in (pa, graded):
        monkeypatch.setattr(ns, "buchberger", gb)
    run()
    return calls


def _check_work(field, gens, key, work):
    """Check one call's reductions; return (pairs of two single-term
    elements that the earlier loop reduced, final-pass reductions, kept
    elements)."""
    # while the basis grows, each reduction sees the whole basis; the final
    # pass reduces against the kept elements but one, a shorter list
    built, final = [], []
    for f, size, out in work:
        if size == len(built) and not final:
            # two monic terms in one position have S-vector exactly 0
            assert f, "a zero S-vector reached m_reduce"
            if out:
                built.append(ref.m_monic(field, out, key))
        else:
            assert size < len(built)
            final.append(f)
    leads = [pa.m_lt(g, key) for g in built]
    ideal = not any(pos for g in gens for (_, pos) in g)
    single_pairs = sum(
        1 for j in range(len(built)) for i in range(j)
        if len(built[i]) == len(built[j]) == 1 and leads[i][1] == leads[j][1]
        and not (ideal and not any(map(min, leads[i][0], leads[j][0]))))
    kept = [n for n, (m, p) in enumerate(leads)
            if not any(q == p and (l, q) != (m, p) and _divides(l, m)
                       for l, q in leads)]
    changing = [n for t, n in enumerate(kept)
                if any(leads[k][1] == p and _divides(leads[k][0], m)
                       for m, p in built[n] for k in kept[t + 1:])]
    assert final == [built[n] for n in changing]
    return single_pairs, len(final), len(kept)


def test_buchberger_reduces_only_what_can_change(monkeypatch):
    # a deterministic work bound: no pair of two single-term elements is
    # reduced, and the final pass reduces exactly the kept elements with a
    # term that a later kept leading term divides, once each
    from logflat import cli
    calls = _buchberger_work(
        monkeypatch, lambda: cli.run_gallery("nodal-descent"))
    calls += _buchberger_work(monkeypatch, lambda: pa.buchberger(
        QQ, _TIED_LCMS, module_key(degrevlex_key)))
    single_pairs = final = kept = 0
    for call in calls:
        counts = _check_work(*call)
        single_pairs, final, kept = (a + b for a, b in zip(
            (single_pairs, final, kept), counts))
    # not vacuous: the earlier loop reduced such pairs and every survivor
    assert single_pairs > 0 and final < kept


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ring_map_apply_keeps_each_terms_position(data):
    # a module element goes along a ring map entry by entry, as the
    # earlier column transport did
    field = data.draw(st.sampled_from([QQ, FieldFp(5)]))
    images = [(_elements(data.draw, field, 2, 1, 1, 3, 2) or [{}])[0]
              for _ in range(3)]
    rmap = RingMap(RingPresentation(ring(["x", "y", "z"], field)),
                   RingPresentation(ring(["s", "t"], field)), images,
                   check=False)
    for col in _elements(data.draw, field, 3, 3, 2, 4, 2):
        assert rmap.apply(col) == ref.transport_col(rmap, col)


def _max_scan_m_reduce(field, f, basis, key):
    """The earlier ``m_reduce``, kept as the reference for the heap kernel:
    it takes the leading term by a ``max`` over all of f at every step and
    subtracts the scaled reducer into a fresh copy of f."""
    f = dict(f)
    out = {}
    lts = [(pa.m_lt(g, key), g) for g in basis if g]
    while f:
        t = pa.m_lt(f, key)
        c = f[t]
        mono, pos = t
        hit = None
        for (lm, lp), g in lts:
            if lp == pos and pa._divides(lm, mono):
                hit = ((lm, lp), g)
                break
        if hit is None:
            out[t] = c
            del f[t]
            continue
        (lm, lp), g = hit
        shift = tuple(a - b for a, b in zip(mono, lm))
        factor = field.div(c, g[(lm, lp)])
        f = m_sub(field, f, pa.m_shift(field, factor, shift, g))
    return out


@st.composite
def reduction_problems(draw):
    """An element f of S^rank and a random basis that is usually not a
    Groebner basis, so which reducer divides first changes the result."""
    field = draw(st.sampled_from([QQ, FieldFp(5), FieldFp(32003)]))
    nvars = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 3))
    basis = _elements(draw, field, nvars, rank, 5, 3, 2)
    f = _elements(draw, field, nvars, rank, 1, 8, 4)
    return field, f[0] if f else {}, basis, _draw_key(draw, rank)


@settings(max_examples=150, deadline=None)
@given(reduction_problems())
def test_m_reduce_matches_max_scan_reference(problem):
    field, f, basis, key = problem
    ref = _max_scan_m_reduce(field, f, basis, key)
    table = pa.reducer_table(basis, key)
    for out in (pa.m_reduce(field, f, basis, key),
                pa.m_reduce(field, f, basis, key, table)):
        assert out == ref
        # the remainder comes out in descending order, like the reference
        assert list(out) == list(ref)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_order_keys_match_the_generator_reference(data):
    # no variables (the field presented in none, for Hom and Ext) up to five
    nvars = data.draw(st.integers(0, 5))
    mono = st.tuples(*[st.integers(0, 6)] * nvars)
    monos = data.draw(st.lists(mono, min_size=1, max_size=6))
    weights = data.draw(st.lists(st.integers(1, 5), min_size=nvars,
                                 max_size=nvars))
    for m in monos:
        assert degrevlex_key(m) == ref.degrevlex_key(m)
    for last in range(nvars):
        key = pa.weighted_revlex_key(weights, last)
        want = ref.weighted_revlex_key(weights, last)
        assert [key(m) for m in monos] == [want(m) for m in monos]
    if not nvars:
        assert pa.weighted_revlex_key([], 0)(()) == \
            ref.weighted_revlex_key([], 0)(())


def _monic_terms(terms):
    """A polynomial as {exponents: Fraction}, made monic under degrevlex and
    returned as a sorted tuple of its terms."""
    lead = terms[max(terms, key=degrevlex_key)]
    return tuple(sorted((m, Fraction(c) / lead) for m, c in terms.items()))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.tuples(st.tuples(st.integers(0, 2),
                                             st.integers(0, 2),
                                             st.integers(0, 2)),
                                   st.integers(-3, 3)),
                         min_size=1, max_size=3),
                min_size=1, max_size=3))
def test_reduced_basis_matches_sympy(polys):
    sympy = pytest.importorskip("sympy")
    r = ring(["x", "y", "z"])
    xs = sympy.symbols("x y z")
    gens, exprs = [], []
    for terms in polys:
        g, e = r.zero(), 0
        for mono, c in terms:
            g = r.add(g, r.monomial(mono, QQ.of_int(c)))
            e += c * xs[0] ** mono[0] * xs[1] ** mono[1] * xs[2] ** mono[2]
        gens.append(g)
        exprs.append(e)
    if not any(gens):
        return
    gb = RingPresentation(r, gens).gb()
    assert is_groebner_basis(QQ, gb, r.mkey())
    ours = sorted(_monic_terms({m: c for (m, _), c in g.items()}) for g in gb)
    theirs = sorted(
        _monic_terms({m: Fraction(int(c.p), int(c.q))
                      for m, c in sympy.Poly(p, *xs, domain="QQ").terms()})
        for p in sympy.groebner(exprs, *xs, order="grevlex", domain="QQ").exprs)
    assert ours == theirs


# -- Tor_1 against the earlier code and by symmetry --------------------------------


def _reference_tor1(m, j_gens):
    """The earlier ``tor1``, kept as the reference for ``tor1_along``: it
    takes the homology over R/J of the resolution over R as it is, with the
    J multiples of the middle relations written out."""
    over = m.over
    rq = over.quotient(j_gens)
    d1 = list(m.columns)  # F1 = R^a -> F0 = R^rank
    a = len(d1)
    if a == 0:
        return ModulePresentation(rq, 0, []), True
    d2 = kernel_of_matrix(over, d1, m.rank)
    mid_rels = []
    for g in j_gens:
        for i in range(a):
            mid_rels.append({(mm, i): c for (mm, _), c in g.items()})
    return ref.homology_presentation(rq, d2, a, mid_rels, d1, m.rank, [])


@st.composite
def tor_problems(draw):
    """Two modules of rank 1 or 2 over k[x,y] or k[x,y]/(xy), k = QQ or F_5,
    with one or two relations each, and one or two generators of an ideal J;
    every relation and generator is drawn nonzero (one or two terms)."""
    field = draw(st.sampled_from([QQ, FieldFp(5)]))
    r = ring(["x", "y"], field)
    over = RingPresentation(r, draw(st.sampled_from([[], [r.parse("x*y")]])))

    def element(rank):
        term = st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         st.integers(0, rank - 1),
                         st.sampled_from([1, 2, -1, -3]))
        g = {}
        for mono, pos, c in draw(st.lists(term, min_size=1, max_size=2)):
            g = pa.m_add(field, g, {(mono, pos): field.of_int(c)})
        return g

    def elements(rank):
        return [element(rank) for _ in range(draw(st.integers(1, 2)))]

    def module():
        rank = draw(st.integers(1, 2))
        return ModulePresentation(over, rank, elements(rank))

    return module(), module(), elements(1)


@settings(max_examples=60, deadline=None)
@given(tor_problems())
def test_tor1_matches_reference(problem):
    # tor1 tensors with R/J as a free module over R/J; tor1_along over the
    # identity of R tensors with R/J as the module coker(R --J--> R)
    m, _, j = problem
    expected, expected_zero = _reference_tor1(m, j)
    ident, quot = RingMap.identity(m.over), ModulePresentation(m.over, 1, j)
    assert tor1(m, j) == expected_zero
    assert pa.tor1_along(ident, m.columns, m.rank, quot) == expected_zero
    for pres, is_zero in (
            ref.tor1_presentation(m, j),
            ref.tor1_along_presentation(ident, m.columns, m.rank, quot)):
        assert is_zero == expected_zero
        assert pres.dim() == expected.dim()


@settings(max_examples=60, deadline=None)
@given(tor_problems())
def test_tor1_along_is_symmetric(problem):
    # Tor_1(A, N) and Tor_1(N, A): resolve either module, tensor with the
    # other
    a, n, _ = problem
    ident = RingMap.identity(a.over)
    ab, ab_zero = ref.tor1_along_presentation(ident, a.columns, a.rank, n)
    ba, ba_zero = ref.tor1_along_presentation(ident, n.columns, n.rank, a)
    assert pa.tor1_along(ident, a.columns, a.rank, n) == ab_zero
    assert pa.tor1_along(ident, n.columns, n.rank, a) == ba_zero
    assert ab_zero == ba_zero
    assert ab.dim() == ba.dim()


# -- linear algebra against sympy ------------------------------------------------


@st.composite
def linear_systems(draw):
    """A small integer matrix, a right-hand side, and QQ or F_5."""
    field = draw(st.sampled_from([QQ, FieldFp(5)]))
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = st.integers(-3, 3)
    mat = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                        min_size=nrows, max_size=nrows))
    return field, mat, ncols, draw(st.lists(entry, min_size=nrows,
                                            max_size=nrows))


def _sympy_rank(field, mat, ncols):
    """The rank over ``field``, by sympy, of a matrix of rationals (integers
    for F_p)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    dom = sympy.QQ if field.char == 0 else sympy.GF(field.p)

    def entry(v):
        v = Fraction(v)
        return dom.from_sympy(sympy.Rational(v.numerator, v.denominator))

    return DomainMatrix([[entry(v) for v in row] for row in mat],
                        (len(mat), ncols), dom).rank()


def _dot(field, row, x):
    out = field.zero()
    for a, b in zip(row, x):
        out = field.add(out, field.mul(a, b))
    return out


@settings(max_examples=150, deadline=None)
@given(linear_systems())
def test_nullspace_and_solve_linear_match_sympy(system):
    # the nullspace is kernel_of_matrix over the field presented in no
    # variables, one sparse column per unknown
    field, mat, ncols, target = system
    rows = [[field.of_int(v) for v in row] for row in mat]
    b = [field.of_int(t) for t in target]
    rank = _sympy_rank(field, mat, ncols)
    point = RingPresentation(PolyRing(field, []))
    cols = [{((), i): row[j] for i, row in enumerate(rows)
             if not field.is_zero(row[j])} for j in range(ncols)]
    null = []
    for g in kernel_of_matrix(point, cols, len(rows)):
        v = [field.zero()] * ncols
        for ((), j), c in g.items():
            v[j] = c
        null.append(v)
    assert len(null) == ncols - rank
    assert all(field.is_zero(_dot(field, row, v))
               for v in null for row in rows)
    assert _sympy_rank(field, null, ncols) == len(null)
    cols = [[row[j] for row in rows] for j in range(ncols)]
    x = ref.solve_linear(field, cols, b)
    grows = _sympy_rank(field, [row + [t] for row, t in zip(mat, target)],
                        ncols + 1) > rank
    assert (x is None) == grows
    if x is not None:
        assert len(x) == ncols
        assert all(field.eq(_dot(field, row, x), t) for row, t in zip(rows, b))


# -- kernels and lifts modulo relations against the tagged construction ---------


def _tagged_augmented_gb(field, vecs, rank, nvars, ring_key):
    """The earlier ``_augmented_gb``: every vector gets a tag position."""
    aug = []
    for i, v in enumerate(vecs):
        g = dict(v)
        g[((0,) * nvars, rank + i)] = field.one()
        aug.append(g)
    key = block_key(ring_key, rank)
    return buchberger(field, aug, key), key


def _tagged_syzygies(field, vecs, rank, nvars, ring_key):
    gb, _ = _tagged_augmented_gb(field, vecs, rank, nvars, ring_key)
    out = []
    for g in gb:
        if all(p >= rank for (_, p) in g):
            out.append({(m, p - rank): c for (m, p), c in g.items()})
    return out


def _tagged_lift_through(field, vecs, rank, nvars, ring_key, target):
    """The earlier ``lift_through``, kept as the reference: the relations
    are passed among ``vecs``, each with its own tag."""
    gb, key = _tagged_augmented_gb(field, vecs, rank, nvars, ring_key)
    r = pa.m_reduce(field, target, gb, key)
    if any(p < rank for (_, p) in r):
        return None
    return {(m, p - rank): field.neg(c) for (m, p), c in r.items()}


def _dedupe(field, elems, key):
    seen = []
    for e in elems:
        ce = ref.m_monic(field, e, key)
        if ce not in seen:
            seen.append(ce)
    return seen


def _tagged_kernel_of_matrix(over, cols, out_rank, out_relations=()):
    """The earlier ``kernel_of_matrix``, kept as the reference: every
    column, relation and ideal row gets a tag, and the kernel is the
    projection of the whole syzygy module onto the columns' tags."""
    field = over.ring.field
    all_cols = (list(cols) + list(out_relations)
                + pa.ideal_rows(over.ideal, out_rank))
    syz = _tagged_syzygies(field, all_cols, out_rank, over.ring.nvars,
                           over.ring.key)
    k = len(cols)
    out = []
    for s in syz:
        proj = {(m, p): c for (m, p), c in s.items() if p < k}
        if proj:
            out.append(proj)
    return _dedupe(field, out, module_key(over.ring.key))


def _combine(field, vecs, x):
    """sum x_i vecs_i for x in S^len(vecs)."""
    out = {}
    for (mono, pos), c in x.items():
        out = pa.m_add(field, out, pa.m_shift(field, c, mono, vecs[pos]))
    return out


@st.composite
def kernel_problems(draw, fields=(QQ, FieldFp(5), FieldFp(32003)),
                    with_ideal=True):
    """A ring R = k[x_1..x_n]/I, n = 1..3, with up to two generators of I;
    up to three columns and up to two relations in R^rank, rank 1..3; and a
    target, often a combination of columns and relations."""
    field = draw(st.sampled_from(fields))
    nvars = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 3))
    r = ring(["x", "y", "z"][:nvars], field)
    ideal = _elements(draw, field, nvars, 1, 2, 2, 2) if with_ideal else []
    over = RingPresentation(r, ideal)
    cols = _elements(draw, field, nvars, rank, 3, 3, 2)
    rels = _elements(draw, field, nvars, rank, 2, 2, 2)
    target = {}
    for g in draw(st.lists(st.sampled_from(cols + rels), max_size=3)
                  if cols + rels else st.just([])):
        mono = draw(st.tuples(*[st.integers(0, 1)] * nvars))
        c = field.of_int(draw(st.sampled_from([1, -1, 2])))
        target = pa.m_add(field, target, pa.m_shift(field, c, mono, g))
    for extra in _elements(draw, field, nvars, rank, 1, 1, 1):
        target = pa.m_add(field, target, extra)
    return over, rank, cols, rels, target


@settings(max_examples=150, deadline=None)
@given(kernel_problems())
def test_kernel_of_matrix_matches_tagged_reference(problem):
    over, rank, cols, rels, _ = problem
    field, k = over.ring.field, len(cols)
    new = kernel_of_matrix(over, cols, rank, rels)
    ref = _tagged_kernel_of_matrix(over, cols, rank, rels)
    # every generator maps into U = span(rels) + I R^rank
    u = ModulePresentation(over, rank, rels)
    assert all(u.is_zero_elem(_combine(field, cols, g)) for g in new)
    # the same submodule of R^k, modulo I R^k
    assert all(ModulePresentation(over, k, ref).is_zero_elem(g) for g in new)
    assert all(ModulePresentation(over, k, new).is_zero_elem(g) for g in ref)
    # a reduced basis, and one that depends on U only
    assert new == buchberger(field, new, module_key(over.ring.key))
    assert kernel_of_matrix(over, cols, rank, u.gb()) == new


@settings(max_examples=40, deadline=None)
@given(kernel_problems(fields=(QQ,), with_ideal=False))
def test_kernel_of_matrix_matches_sympy(problem):
    over, rank, cols, rels, _ = problem
    sympy = pytest.importorskip("sympy")
    k = len(cols)
    if not k:
        return
    xs = sympy.symbols(over.ring.names)
    base = sympy.QQ.old_poly_ring(*xs)

    def to_sympy(elem, size):
        out = [sympy.Integer(0)] * size
        for (mono, pos), c in elem.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for x, e in zip(xs, mono):
                term *= x ** e
            out[pos] += term
        return out

    # sympy takes no zero vectors: a zero column is a syzygy of its own
    vecs = cols + rels
    live = [i for i, v in enumerate(vecs) if v]
    gens = [[int(i == j) for j in range(k)] for i in range(k) if not cols[i]]
    if live:
        syz = base.free_module(rank).submodule(
            *[to_sympy(vecs[i], rank) for i in live]).syzygy_module()
        for s in syz.gens:
            full = [0] * len(vecs)
            for i, c in zip(live, s):
                full[i] = c
            if any(full[:k]):
                gens.append(full[:k])
    theirs = base.free_module(k).submodule(*gens)
    ours = base.free_module(k).submodule(
        *[to_sympy(g, k) for g in kernel_of_matrix(over, cols, rank, rels)])
    assert ours == theirs


@settings(max_examples=150, deadline=None)
@given(kernel_problems())
def test_lift_through_matches_tagged_reference(problem):
    # one augmented basis for several targets: the drawn target, each
    # column, a relation and the first basis vector
    over, rank, cols, rels, target = problem
    field, r = over.ring.field, over.ring
    n = ModulePresentation(over, rank, rels)
    relations = n.relations()
    targets = [target] + cols + rels[:1] + [n.basis_elem(0)]
    lifts = pa.lift_through(cols, n, targets)
    assert len(lifts) == len(targets)
    for t, c in zip(targets, lifts):
        ref = _tagged_lift_through(field, cols + relations, rank, r.nvars,
                                   r.key, t)
        assert (c is None) == (ref is None)
        if c is not None:
            assert all(p < len(cols) for (_, p) in c)
            rest = m_sub(field, t, _combine(field, cols, c))
            assert ModulePresentation(RingPresentation(r), rank,
                                      relations).is_zero_elem(rest)


def _tagged_positions(monkeypatch):
    """Record, for every module Groebner basis that ``kernel_of_matrix`` or
    ``lift_through`` asks for, (the function's name, rank, number of
    columns, the positions of each generator)."""
    frames, seen = [], []
    real = pa.buchberger

    def recording(field, gens, key):
        # an input with every term in position 0 is an ideal, not a module
        if frames and any(p for g in gens for (_, p) in g):
            seen.append((*frames[-1], [{p for (_, p) in g} for g in gens]))
        return real(field, gens, key)

    def entering(fn, shape):
        def wrapped(*args, **kwargs):
            frames.append((fn.__name__, *shape(*args)))
            try:
                return fn(*args, **kwargs)
            finally:
                frames.pop()
        return wrapped

    monkeypatch.setattr(pa, "buchberger", recording)
    monkeypatch.setattr(pa, "kernel_of_matrix", entering(
        pa.kernel_of_matrix, lambda over, cols, rank, *rest: (rank, len(cols))))
    monkeypatch.setattr(pa, "lift_through", entering(
        pa.lift_through, lambda vecs, n, *rest: (n.rank, len(vecs))))
    return seen


def _assert_relations_untagged(seen, name):
    assert any(fn == name for fn, *_ in seen)
    for _, rank, ncols, positions in seen:
        assert all(p < rank + ncols for ps in positions for p in ps)
    # the guard is not vacuous: ``name`` was passed relations, with no tag
    assert any(ps and max(ps) < rank for fn, rank, _, positions in seen
               if fn == name for ps in positions)


def _gallery_tasks(name, task_names):
    from logflat import cli
    doc = cli.load_gallery(name)
    doc["tasks"] = [t for t in doc["tasks"] if t["name"] in task_names]
    report, code = cli.run_document(doc)
    assert code == 0 and len(report["tasks"]) == len(task_names)


def test_kernels_tag_only_their_columns(monkeypatch):
    # the second chart criterion (Tor_1 at each tower level) and a homology
    # over k[x,y]/(xy) modulo module relations
    seen = _tagged_positions(monkeypatch)
    _gallery_tasks("smooth-divisor",
                   ["defining equation not regular on the origin"])
    r = ring(["x", "y"])
    over = RingPresentation(r, [r.parse("x*y")])
    xe, ye = pa.ideal_rows([r.parse("x")], 2), pa.ideal_rows([r.parse("y")], 2)
    assert not pa.homology(ModulePresentation(over, 2, [xe[0], ye[1]]),
                           [ye[0], xe[1]],
                           ModulePresentation(over, 1, [r.parse("x^2")]))
    _assert_relations_untagged(seen, "kernel_of_matrix")


def test_lifts_tag_only_their_columns(monkeypatch):
    # the descent datum's inverse clutching and the canonical map into
    # D(P(M)) of a roundtrip
    seen = _tagged_positions(monkeypatch)
    _gallery_tasks("nodal-descent", ["structure module"])
    _assert_relations_untagged(seen, "lift_through")


def _private_polyalg_reads(path):
    """``name`` of every read of a ``_``-prefixed attribute of polyalg in
    the module at ``path``: ``pa._name``, or ``from .polyalg import _name``."""
    tree = ast.parse(path.read_text())
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               and not node.module for a in node.names if a.name == "polyalg"}
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            out.append(f"{path.name}:{node.lineno} {node.attr}")
        if isinstance(node, ast.ImportFrom) and node.module == "polyalg":
            out += [f"{path.name}:{node.lineno} {a.name}"
                    for a in node.names if a.name.startswith("_")]
    return out


def test_only_polyalg_reads_its_private_names(tmp_path):
    src = Path(pa.__file__).parent
    probe = tmp_path / "probe.py"
    probe.write_text("from . import polyalg as pa\n"
                     "from .polyalg import _apply_cols\n"
                     "pa._augmented_gb\n")
    assert len(_private_polyalg_reads(probe)) == 2  # the walk sees them
    offenders = [r for path in sorted(src.glob("*.py"))
                 if path.name != "polyalg.py"
                 for r in _private_polyalg_reads(path)]
    assert not offenders, offenders


# -- toric ideals from an LLL-reduced lattice ------------------------------------


def _ideal_digest(pres):
    r = repr([sorted((k, str(c)) for k, c in g.items()) for g in pres.ideal])
    return hashlib.sha256(r.encode()).hexdigest()


def _sheared(basis):
    """Another basis of the same lattice: b_i + b_(i+1), last one kept,
    in reverse order."""
    out = [tuple(x + y for x, y in zip(a, b)) for a, b in zip(basis, basis[1:])]
    return (out + basis[-1:])[::-1]


@st.composite
def toric_monoids(draw):
    """Pointed monoids (the first coordinate is a positive functional) and
    groups (the negated sum of the generators is one more generator) in
    Z^r (+) T."""
    rank = draw(st.integers(1, 3))
    torsion = draw(st.sampled_from([(), (), (2,), (3,)]))
    elem = st.tuples(st.integers(1, 3), *[st.integers(-3, 3)] * (rank - 1),
                     *[st.integers(0, d - 1) for d in torsion])
    gens = draw(st.lists(elem, min_size=1, max_size=4))
    amb = FgAbGroup(rank, torsion)
    if draw(st.booleans()):
        gens.append(amb.neg(tuple(map(sum, zip(*gens)))))
    return FineMonoid(amb, gens)


@settings(max_examples=40, deadline=None)
@given(toric_monoids())
def test_toric_ideal_does_not_depend_on_the_lattice_basis(p):
    # A pointed monoid is also run on the Smith form basis, the route
    # before LLL.  Elimination, which saturates a group's lattice ideal,
    # takes seconds to minutes on that basis, so a group is run on a
    # sheared reduced basis instead.
    real = abgrp.lll_reduce
    other = (lambda vs: _sheared(real(vs))) if p.is_group() else list
    pres, degrees = toric_ideal(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(abgrp, "lll_reduce", other)
        old, old_degrees = toric_ideal(p)
    assert pres.ideal == old.ideal
    assert degrees == old_degrees


# Cones over the 7- and 8-gon of the monoid_cones benchmark, with the size and
# the sha256 of ``_ideal_digest`` that the Smith form basis gave.  The digest
# spells coefficients by ``str``, which is the same for ``Fraction(n)`` and
# ``n``.
POLYGON_IDEALS = [
    ([(0, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 1)], 20,
     "ae33f0123a0bc66b0c9949326c59ee97f6883b54cccfeec7579ccf3d0b580eb5"),
    ([(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1)], 31,
     "7d149240fc281b27a5e1329724a1417f10af10a0f4dea21770d93255273785e5"),
]


@pytest.mark.parametrize("verts,size,digest", POLYGON_IDEALS,
                         ids=["7-gon", "8-gon"])
def test_polygon_toric_ideals_pinned(verts, size, digest):
    pres, _ = toric_ideal(FineMonoid(FgAbGroup.free(3),
                                     [(x, y, 1) for x, y in verts]))
    assert len(pres.ideal) == size
    assert _ideal_digest(pres) == digest


def test_kbasis_reads_the_presentations_own_basis(monkeypatch):
    r = ring(["x", "y"])
    rp = RingPresentation(r, [r.parse("x^2"), r.parse("y^3")])
    x = r.var(0)
    col = {(m, 1): c for (m, _), c in x.items()}  # x e_1 = 0
    mp = ModulePresentation(rp, 2, [col])
    calls = []
    real = pa.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pa, "buchberger", counting)
    assert mp.is_zero_elem(col)
    assert len(mp.kbasis()) == 6 + 3
    assert len(calls) == 1


# -- map inverses: the lifts and two checks ---------------------------------------


@st.composite
def module_maps(draw):
    """(phi, M, N) over k[x,y], k[x,y]/(xy) or k[x,y]/(x^2, y^2): M of rank
    1 or 2 with random relations, phi = U D with U unipotent and D diagonal
    of scalars (an isomorphism onto coker(phi(M's relations))) or with x,
    y or 1 + x on the diagonal (onto a submodule only, or not one to one
    over the quotient rings).  N's relations are the images of M's, those
    plus a random element (a quotient: not one to one), or random elements
    (often no map at all)."""
    field = draw(st.sampled_from([QQ, FieldFp(3)]))
    r = ring(["x", "y"], field)
    over = RingPresentation(r, draw(st.sampled_from(
        [[], [r.parse("x*y")], [r.parse("x^2"), r.parse("y^2")]])))
    rank = draw(st.integers(1, 2))

    def element():
        term = st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         st.integers(0, rank - 1),
                         st.sampled_from([1, 2, -1]))
        g = {}
        for mono, pos, c in draw(st.lists(term, min_size=1, max_size=2)):
            g = pa.m_add(field, g, {(mono, pos): field.of_int(c)})
        return g

    m = ModulePresentation(over, rank,
                           [element() for _ in range(draw(st.integers(0, 2)))])
    diag = [r.parse(draw(st.sampled_from(["1", "2", "-1", "x", "y", "1 + x"])))
            for _ in range(rank)]
    phi = [{(mono, i): c for (mono, _), c in d.items()}
           for i, d in enumerate(diag)]
    if rank == 2:  # add a multiple of the first column to the second
        off = {(mono, 0): c for (mono, _), c in element().items()}
        phi[1] = pa.m_add(field, phi[1], off)
    image_rels = [pa._apply_cols(field, phi, g) for g in m.columns]
    kind = draw(st.sampled_from(["image", "quotient", "random"]))
    n_rels = {"image": image_rels,
              "quotient": image_rels + [element()],
              "random": [element() for _ in range(draw(st.integers(0, 2)))]
              }[kind]
    return phi, m, ModulePresentation(over, rank, n_rels)


@settings(max_examples=120, deadline=None)
@given(module_maps())
def test_module_map_inverse_matches_kernel_and_lifts(problem):
    phi, m, n = problem
    try:
        old = ref.module_map_inverse(phi, m, n)
    except ValueError:
        with pytest.raises(ValueError, match="does not define a map"):
            pa.module_map_inverse(phi, m, n)
        return
    assert pa.module_map_inverse(phi, m, n) == old


def test_module_map_inverse_builds_one_augmented_basis(monkeypatch):
    r = ring(["x"])
    over = RingPresentation(r, [r.parse("x^2")])
    m = ModulePresentation(over, 2, [{((1,), 0): QQ.one()}])
    n = ModulePresentation(over, 2, [{((1,), 1): QQ.one()}])
    u = pa.ideal_rows([r.parse("x - 1")], 2)
    aug, syz = [], []
    real_aug, real_syz = pa._augmented_gb, pa.syzygies
    monkeypatch.setattr(pa, "_augmented_gb",
                        lambda *a: aug.append(1) or real_aug(*a))
    monkeypatch.setattr(pa, "syzygies",
                        lambda *a, **k: syz.append(1) or real_syz(*a, **k))
    assert pa.module_map_inverse([u[1], u[0]], m, n) is not None
    assert pa.module_map_inverse(pa.ideal_rows([r.parse("x")], 2),
                                 m, m) is None
    assert (len(aug), len(syz)) == (2, 0)


# -- the run scope's memo of reduced bases ----------------------------------------


@st.composite
def memo_problems(draw):
    """Generators over QQ or F_3 under a module, block or elimination order,
    and a second list of the same generators, permuted, some repeated and a
    zero added.  Returns (gens, again, compute), ``compute`` giving the reduced basis."""
    field = draw(st.sampled_from([QQ, FieldFp(3)]))
    nvars = draw(st.integers(1, 3))
    order = draw(st.sampled_from(["module", "block", "elim"]))
    rank = 1 if order == "elim" else draw(st.integers(1, 3))
    gens = _elements(draw, field, nvars, rank, 4, 3, 2)
    again = draw(st.permutations(gens))
    if gens:
        again += draw(st.lists(st.sampled_from(gens), max_size=3))
    again.insert(draw(st.integers(0, len(again))), {})
    if order == "elim":
        elim = draw(st.lists(st.integers(0, nvars - 1), unique=True,
                             min_size=1))
        return gens, again, lambda g: pa.elimination_basis(field, g, elim)[1:]
    key = (module_key(degrevlex_key) if order == "module"
           else block_key(degrevlex_key, draw(st.integers(0, rank))))
    return gens, again, lambda g: buchberger(field, g, key)


def _no_reduction(*args, **kwargs):
    raise AssertionError("a stored basis was computed again")


@settings(max_examples=80, deadline=None)
@given(memo_problems())
def test_buchberger_in_a_run_scope_matches_a_direct_call(problem):
    gens, again, compute = problem
    direct = compute(gens)
    assert compute(again) == direct
    with scope.run_scope():
        assert compute(gens) == direct
        with mock.patch.object(pa, "m_reduce", _no_reduction):
            stored = compute(again)
            assert stored == direct
            # a caller that changes its copy leaves the stored basis alone
            for g in stored[0] if isinstance(stored, tuple) else stored:
                g.clear()
            assert compute(gens) == direct


def test_nested_run_scope_starts_empty_and_restores_the_outer():
    r = ring(["x", "y"])
    gens = [r.parse("x^2 - y"), r.parse("x*y")]
    assert scope.memo() is None
    with scope.run_scope():
        outer = scope.memo()
        gb = buchberger(QQ, gens, r.mkey())
        assert len(outer) == 1
        with scope.run_scope():
            inner = scope.memo()
            assert inner == {} and inner is not outer
            assert buchberger(QQ, gens, r.mkey()) == gb
            buchberger(QQ, gens[:1], r.mkey())
            assert len(inner) == 2
        assert scope.memo() is outer and len(outer) == 1
    assert scope.memo() is None


def test_order_tags_tell_orders_apart_by_value():
    assert module_key(degrevlex_key).tag == module_key(degrevlex_key).tag
    assert block_key(degrevlex_key, 1).tag != block_key(degrevlex_key, 2).tag
    assert module_key(degrevlex_key).tag != block_key(degrevlex_key, 0).tag
    r = ring(["x", "y"])
    gens = [r.parse("x - y^2")]
    k1, _, _ = pa.elimination_basis(QQ, gens, [0])
    k2, _, _ = pa.elimination_basis(QQ, gens, range(1))
    k3, _, _ = pa.elimination_basis(QQ, gens, [1])
    assert k1.tag == k2.tag != k3.tag
    # the toric orders: equal weights and last variable, one order
    w1 = module_key(pa.weighted_revlex_key([1, 2, 3], 0))
    w2 = module_key(pa.weighted_revlex_key((1, 2, 3), 0))
    assert w1.tag == w2.tag
    assert w1.tag != module_key(pa.weighted_revlex_key([1, 2, 3], 2)).tag
    assert w1.tag != module_key(pa.weighted_revlex_key([1, 2, 4], 0)).tag
    assert module_key(degrevlex_key).tag == ("module", degrevlex_key)


# -- QQ with int coefficients against the Fraction field ---------------------------


def _is_canonical(c):
    """An int, or a Fraction whose denominator is not 1 (never a float)."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _canonical_elements(elems):
    return [{t: c.numerator if c.denominator == 1 else c for t, c in g.items()}
            for g in elems]


@st.composite
def rational_problems(draw):
    """Generators over QQ, an element f and a basis to reduce it by (usually
    not a Groebner basis), under a module, block or elimination order, all
    with Fraction coefficients."""
    nvars = draw(st.integers(1, 3))
    order = draw(st.sampled_from(["module", "block", "elim"]))
    rank = 1 if order == "elim" else draw(st.integers(1, 3))
    fq, coeffs = ref.FractionQQ(), st.fractions(-3, 3, max_denominator=4)
    # up to three generators, as for the kernels above: the syzygies of four
    # rational ones can take seconds under either field
    gens = _elements(draw, fq, nvars, rank, 3, 3, 2, coeffs)
    basis = _elements(draw, fq, nvars, rank, 4, 3, 2, coeffs)
    f = _elements(draw, fq, nvars, rank, 1, 6, 3, coeffs)
    if order == "elim":
        elim = draw(st.lists(st.integers(0, nvars - 1), unique=True,
                             min_size=1))
        key = pa.elimination_basis(QQ, [], elim)[0]  # its order only
    elif order == "module":
        key = module_key(degrevlex_key)
    else:
        key = block_key(degrevlex_key, draw(st.integers(0, rank)))
    return nvars, rank, gens, basis, f[0] if f else {}, key


@settings(max_examples=150, deadline=None)
@given(rational_problems())
def test_int_backed_qq_matches_the_fraction_field(problem):
    nvars, rank, gens, basis, f, key = problem
    fq = ref.FractionQQ()

    def run(field, gens, basis, f):
        return (buchberger(field, gens, key),
                pa.m_reduce(field, f, basis, key),
                pa.syzygies(field, gens, rank, nvars, degrevlex_key))

    out = run(QQ, _canonical_elements(gens), _canonical_elements(basis),
              _canonical_elements([f])[0])
    assert out == run(fq, gens, basis, f)
    gb, rem, syz = out
    assert all(_is_canonical(c) for g in gb + [rem] + syz for c in g.values())


def test_integral_fractions_hit_the_memo_entry_of_their_ints():
    r = ring(["x", "y"])
    gens = [{((2, 0), 0): 2, ((0, 1), 0): -1}, {((1, 1), 0): 1}]
    as_fractions = [{t: Fraction(c) for t, c in g.items()} for g in gens]
    with scope.run_scope():
        gb = buchberger(QQ, gens, r.mkey())
        with mock.patch.object(pa, "m_reduce", _no_reduction):
            assert buchberger(QQ, as_fractions, r.mkey()) == gb
        assert len(scope.memo()) == 1


def test_a_repeated_toric_ideal_hits_the_memo_entries_of_the_first():
    # each saturation's order is a fresh closure, tagged by its weights and
    # variable, so the second toric_ideal of one monoid reduces nothing
    p = FineMonoid(FgAbGroup.free(3), [(1, 0, 1), (0, 1, 1), (1, 1, 1),
                                       (0, 0, 1), (2, 1, 1)])
    with scope.run_scope():
        first, _ = toric_ideal(p)
        stored = len(scope.memo())
        assert stored >= 2 and first.ideal
        with mock.patch.object(pa, "m_reduce", _no_reduction):
            again, _ = toric_ideal(p)
        assert again.ideal == first.ideal
        assert len(scope.memo()) == stored


def test_integral_fraction_generators_come_out_as_ints():
    # no reducer divides either term, and m_reduce moves each into QQ's
    # int form as it goes to the remainder
    x, y = ((1, 0), 0), ((0, 1), 0)
    gb = buchberger(QQ, [{x: Fraction(1), y: Fraction(2)}],
                    module_key(degrevlex_key))
    assert gb == [{x: 1, y: 2}]
    assert [type(c) for c in gb[0].values()] == [int, int]
    # m_reduce does the same for a term it moves to the remainder untouched
    rem = pa.m_reduce(QQ, {x: Fraction(1), y: Fraction(1, 2)}, [],
                      module_key(degrevlex_key))
    assert rem == {x: 1, y: Fraction(1, 2)}
    assert [type(c) for c in rem.values()] == [int, Fraction]


_RATIONALS = st.fractions(-10, 10, max_denominator=6)
_CANONICAL = _RATIONALS.map(lambda c: QQ.div(c.numerator, c.denominator))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_RATIONALS, _CANONICAL), st.one_of(_RATIONALS, _CANONICAL))
def test_qq_operations_are_exact_and_canonical(a, b):
    # a and b are Fractions, integral ones included, or canonical values
    fa, fb = Fraction(a), Fraction(b)
    results = [(QQ.add(a, b), fa + fb), (QQ.sub(a, b), fa - fb),
               (QQ.mul(a, b), fa * fb), (QQ.neg(a), -fa),
               (QQ.div(fa.numerator, fa.denominator), fa),
               (QQ.of_int(fa.numerator), fa.numerator)]
    if b != 0:
        results += [(QQ.div(a, b), fa / fb), (QQ.inv(b), 1 / fb)]
    for got, want in results:
        assert got == want and _is_canonical(got), (got, want)


def test_qq_keeps_integers_as_ints_and_divides_exactly():
    assert [type(v) for v in (QQ.zero(), QQ.one(), QQ.of_int(5))] == [int] * 3
    third = QQ.div(1, 3)
    assert third == Fraction(1, 3) and type(third) is Fraction
    assert type(QQ.div(6, 3)) is int and QQ.div(6, 3) == 2
    assert QQ.inv(Fraction(1, 2)) == 2 and type(QQ.inv(Fraction(1, 2))) is int
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)


def _fraction_names(path):
    """``file:line`` of every place the module at ``path`` names Fraction:
    as a name, an attribute (``fractions.Fraction``) or an import."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if ((isinstance(node, ast.Name) and node.id == "Fraction")
                or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
                or (isinstance(node, ast.alias) and node.name == "Fraction")):
            out.append(f"{path.name}:{node.lineno}")
    return out


def test_only_fieldq_and_cone_points_name_fraction(tmp_path):
    # A coefficient made anywhere else could bypass QQ's canonical form.
    probe = tmp_path / "probe.py"
    probe.write_text("import fractions\n"
                     "from fractions import Fraction as F\n"
                     "fractions.Fraction(1)\n"
                     "Fraction\n")
    assert len(_fraction_names(probe)) == 3  # the walk sees them
    src = Path(pa.__file__).parent
    offenders = [r for path in sorted(src.glob("*.py"))
                 if path.name not in ("polyalg.py", "qcone.py")
                 for r in _fraction_names(path)]
    assert not offenders, offenders
