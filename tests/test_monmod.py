import pytest
from hypothesis import given, settings, strategies as st

from logflat.abgrp import FgAbGroup
from logflat.monoid import FineMonoid, MonoidHom, MonoidIdeal, diagonal, nat_monoid
from logflat import monmod
from logflat.monmod import (
    NotFinitelyGenerated,
    OwnerMismatch,
    PModule,
    base_change,
    extract_basis,
    is_finitely_generated,
    is_flat,
    mod_member,
    sharpen_module,
    tensor,
)


def nat():
    return nat_monoid(1)


def nat2():
    return nat_monoid(2)


def shifted(owner, start):
    return PModule.embedded(owner, [(start, 0)])


class TestMembership:
    def test_shifted_line(self):
        m = shifted(nat(), (2,))
        assert mod_member(m, (5,))
        assert not mod_member(m, (1,))

    def test_maximal_ideal(self):
        p = nat2()
        m = PModule.from_ideal(MonoidIdeal(p, [(1, 0), (0, 1)]))
        assert not mod_member(m, (0, 0))
        assert mod_member(m, (2, 1))

    def test_free(self):
        m = PModule.free(nat(), 2)
        assert mod_member(m, (3,), comp=1)
        assert not mod_member(m, (-1,), comp=0)


class TestFlat:
    def test_free_is_flat(self):
        assert is_flat(PModule.free(nat(), 3)).flat

    def test_shifted_is_flat(self):
        assert is_flat(shifted(nat(), (2,))).flat

    def test_maximal_ideal_not_flat_with_witness(self):
        p = nat2()
        m = PModule.from_ideal(MonoidIdeal(p, [(1, 0), (0, 1)]))
        v = is_flat(m)
        assert not v.flat
        assert v.torsion_free and not v.comparable
        assert set(v.witness) == {(1, 0), (0, 1)}

    def test_principal_ideal_flat(self):
        p = nat2()
        m = PModule.from_ideal(MonoidIdeal(p, [(1, 1)]))
        assert is_flat(m).flat

    def test_localization_flat(self):
        # Z as an N-module
        m = PModule.localization(nat(), [(1,)])
        assert is_flat(m).flat

    def test_face_localization_flat(self):
        m = PModule.localization(nat2(), [(1, 0)])
        assert is_flat(m).flat

    def test_two_generator_comparable(self):
        # <(2,0),(1,1)> inside N^2 over N^2: common lower bound must be found
        p = nat2()
        m = PModule.embedded(p, [((2, 0), 0), ((1, 1), 0)])
        v = is_flat(m)
        assert not v.flat  # candidates (1,0),(0,0)... no common lower bound in M
        # but the same generators over the bigger module including it are fine
        m2 = PModule.embedded(p, [((2, 0), 0), ((1, 1), 0), ((1, 0), 0)])
        assert is_flat(m2).flat

    def test_group_owner(self):
        z = FineMonoid(FgAbGroup.free(1), [(1,), (-1,)])
        free_orbit = PModule.embedded(z, [((0,), 0)])
        assert is_flat(free_orbit).flat

    def test_group_owner_nonfree_action(self):
        # Z acting through Z/2: not a free action, hence not flat and no basis
        z = FineMonoid(FgAbGroup.free(1), [(1,), (-1,)])
        z2mon = FineMonoid(FgAbGroup(0, (2,)), [(1,)])
        h = MonoidHom(z, z2mon, [(1,), (1,)])
        m = PModule.over_hom(h, [((0,), 0)])
        v = is_flat(m)
        assert not v.flat and not v.torsion_free
        assert not extract_basis(m).ok


class TestBasis:
    def test_shifted_basis(self):
        res = extract_basis(shifted(nat(), (2,)))
        assert res.ok
        assert res.basis == (((2,), 0),)

    def test_free_basis(self):
        res = extract_basis(PModule.free(nat(), 2))
        assert res.ok and len(res.basis) == 2

    def test_ideal_failure(self):
        p = nat2()
        m = PModule.from_ideal(MonoidIdeal(p, [(1, 0), (0, 1)]))
        res = extract_basis(m)
        assert not res.ok
        assert set(res.witness) == {(1, 0), (0, 1)}

    def test_reduction_to_minimal(self):
        # generators 3 and 5 over N_{>=2}-style module: minimal rep is 2
        m = PModule.embedded(nat(), [((2,), 0), ((3,), 0), ((5,), 0)])
        res = extract_basis(m)
        assert res.ok
        assert res.basis == (((2,), 0),)

    def test_localization_not_fg(self):
        m = PModule.localization(nat(), [(1,)])
        with pytest.raises(NotFinitelyGenerated):
            extract_basis(m)


class TestFinitelyGenerated:
    def test_examples(self):
        m = shifted(nat(), (2,))
        assert is_finitely_generated(m, [((2,), 0)])
        assert not is_finitely_generated(m, [((3,), 0)])
        f = PModule.free(nat(), 2)
        assert is_finitely_generated(f, [((0,), 0), ((0,), 1)])

    def test_localization(self):
        m = PModule.localization(nat(), [(1,)])
        assert not is_finitely_generated(m, [((0,), 0)])


class TestTensor:
    def test_unit_law(self):
        m = shifted(nat(), (2,))
        one = PModule.free(nat(), 1)
        t = tensor(m, one)
        assert len(t.generators) == 1
        assert t.generators[0][0] == (2,)

    def test_free_distribution(self):
        m = shifted(nat(), (1,))
        s3 = PModule.free(nat(), 3)
        t = tensor(m, s3)
        assert len({c for _, c in t.generators}) == 3

    def test_shifted_product(self):
        a = shifted(nat(), (1,))
        t = tensor(a, a)
        assert len(t.generators) == 1
        assert t.generators[0][0] == (2,)

    def test_owner_mismatch(self):
        with pytest.raises(OwnerMismatch):
            tensor(shifted(nat(), (1,)), PModule.free(nat2(), 1))

    def test_commutative_on_corpus(self):
        p = nat2()
        a = PModule.embedded(p, [((1, 0), 0)])
        b = PModule.embedded(p, [((0, 1), 0)])
        t1, t2 = tensor(a, b), tensor(b, a)
        assert sorted(g for g, _ in t1.generators) == sorted(g for g, _ in t2.generators)


class TestBaseChange:
    def test_free_stays_free(self):
        h = diagonal(2)
        m = PModule.free(nat(), 2)
        out = base_change(m, h)
        assert out.kind == monmod.FREE
        assert out.owner == h.target
        assert len(out.generators) == 2

    def test_identity(self):
        p = nat()
        m = shifted(p, (2,))
        out = base_change(m, MonoidHom.identity(p))
        assert is_flat(out).flat
        assert mod_member(out, (2,)) or out.contains((2,), out.generators[0][1])

    def test_sharpening_collapses_units(self):
        # P = N x Z, M = P itself; M-bar lives over N
        p = FineMonoid(FgAbGroup.free(2), [(1, 0), (0, 1), (0, -1)])
        m = PModule.embedded(p, [((0, 0), 0)])
        mb = sharpen_module(m)
        assert mb.owner.ambient.rank == 1
        assert is_flat(mb).flat

    def test_flatness_preserved(self):
        h = diagonal(2)
        m = shifted(nat(), (1,))
        out = base_change(m, h)
        assert is_flat(out).flat


class TestSharpeningCompatibility:
    def test_agreement_for_unit_free_owner(self):
        p = nat2()
        mods = [
            PModule.from_ideal(MonoidIdeal(p, [(1, 0), (0, 1)])),
            PModule.from_ideal(MonoidIdeal(p, [(1, 1)])),
            PModule.free(p, 2),
        ]
        for m in mods:
            assert is_flat(m).flat == is_flat(sharpen_module(m)).flat


class TestModuleOverSource:
    def test_diagonal_fg_fails_honestly(self):
        # N^3 is not finitely generated over the small diagonal N
        h = MonoidHom(nat(), nat_monoid(3), [(1, 1, 1)])
        assert monmod.module_over_source(h, window=12) is None

    def test_mult2(self):
        p = nat()
        h = MonoidHom(p, p, [(2,)])
        m = monmod.module_over_source(h)
        assert m is not None
        v = is_flat(m)
        assert v.flat
        res = extract_basis(m)
        assert res.ok and len(res.basis) == 2

    def test_surjection_not_flat(self):
        h = MonoidHom(nat2(), nat(), [(1,), (1,)])
        m = monmod.module_over_source(h)
        assert m is not None
        assert not is_flat(m).flat


# -- module_over_source against the window-only search --------------------------


def reference_module_over_source(h, window=24):
    """module_over_source without the rank exit: the saturation search alone."""
    p = h.target
    amb = p.ambient
    img = FineMonoid(amb, h.images)

    def covered(x, reps):
        return any(img.member(amb.sub(x, t)) for t in reps)

    reps = [amb.zero()]
    queue = list(reps)
    steps = 0
    while queue:
        t = queue.pop(0)
        for g in p.generators:
            c = amb.add(t, g)
            steps += 1
            if steps > window * max(1, len(p.generators)):
                return None
            if not covered(c, reps):
                reps.append(c)
                queue.append(c)
    return PModule.over_hom(h, [(t, 0) for t in reps])


def _same_module_over_source(h, window=24):
    got = monmod.module_over_source(h, window=window)
    want = reference_module_over_source(h, window=window)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.generators == want.generators
    return got


@st.composite
def source_homs(draw):
    """N^k -> P with P in Z^rank (+) torsion, rank 1-3, some P with units;
    each image an N-combination of the generators of P, so zero and
    repeated images occur."""
    rank = draw(st.integers(1, 3))
    torsion = draw(st.sampled_from([(), (2,), (3,), (2, 4)]))
    amb = FgAbGroup(rank, torsion)
    vec = st.tuples(*[st.integers(-1, 2)] * rank,
                    *[st.integers(0, d - 1) for d in torsion])
    gens = draw(st.lists(vec, min_size=1, max_size=4))
    if draw(st.booleans()):
        gens.append(tuple(-x for x in draw(st.sampled_from(gens))))
    p = FineMonoid(amb, gens)
    k = draw(st.integers(1, 3))
    images = []
    for _ in range(k):
        coeffs = draw(st.lists(st.integers(0, 2), min_size=len(p.generators),
                               max_size=len(p.generators)))
        v = amb.zero()
        for c, g in zip(coeffs, p.generators):
            v = amb.add(v, amb.scale(c, g))
        images.append(v)
    return MonoidHom(nat_monoid(k), p, images)


@settings(max_examples=150, deadline=None)
@given(source_homs(), st.integers(1, 8))
def test_module_over_source_matches_window_search(h, window):
    _same_module_over_source(h, window)


@pytest.mark.parametrize("h, finite", [
    # equal ranks but Z is not finite over N: the window still decides
    (MonoidHom(nat(), FineMonoid(FgAbGroup.free(1), [(1,), (-1,)]), [(1,)]),
     False),
    (MonoidHom(nat(), nat(), [(2,)]), True),
    (MonoidHom(nat2(), nat(), [(1,), (1,)]), True),
    (MonoidHom(nat(), nat_monoid(3), [(1, 1, 1)]), False),
])
def test_module_over_source_explicit_cases(h, finite):
    assert (_same_module_over_source(h) is not None) == finite
