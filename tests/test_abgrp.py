import pytest
from hypothesis import given, settings, strategies as st

from logflat.abgrp import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    direct_sum,
    ext1,
    ext_class_to_extension,
    hom_group,
    integer_kernel,
    NotSurjective,
    smith_normal_form,
    solve_integer,
    split_surjection,
)


def snf_diag(m):
    _, d, _ = smith_normal_form(m)
    return [d[i, i] for i in range(min(m.rows, m.cols))]


def test_snf_reference_example():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    u, d, v = smith_normal_form(m)
    assert snf_diag(m) == [2, 4]
    assert u.mul(m).mul(v) == d
    assert u.determinant() in (1, -1)
    assert v.determinant() in (1, -1)


def test_snf_identity_and_zero():
    assert snf_diag(IntMatrix.identity(3)) == [1, 1, 1]
    assert snf_diag(IntMatrix.zero(2, 2)) == [0, 0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_snf_transform_identity(rows):
    m = IntMatrix.from_rows(rows)
    u, d, v = smith_normal_form(m)
    assert u.mul(m).mul(v) == d
    assert u.determinant() in (1, -1)
    assert v.determinant() in (1, -1)
    diag = [d[i, i] for i in range(min(m.rows, m.cols))]
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert d[i, j] == 0


def test_solve_and_kernel():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve_integer(m, (4, 9)) == (2, 3)
    assert solve_integer(m, (1, 0)) is None
    m2 = IntMatrix.from_rows([[1, 1, 1]])
    ker = integer_kernel(m2)
    assert len(ker) == 2
    for c in ker:
        assert sum(c) == 0


def test_group_canonical_elements():
    g = FgAbGroup(1, (2, 4))
    assert g.reduce((5, 3, -1)) == (5, 1, 3)
    assert g.add((0, 1, 3), (0, 1, 1)) == (0, 0, 0)
    assert g.order() is None
    assert FgAbGroup(0, (2, 4)).order() == 8


def test_from_relations_cyclic():
    # Z^1 / 2Z = Z/2
    g, to_can, lift = FgAbGroup.from_relations(1, [(2,)])
    assert g == FgAbGroup(0, (2,))
    # the projection of the ambient generator generates
    img = g.reduce(to_can.column(0))
    assert not g.is_zero(img)
    assert g.is_zero(g.scale(2, img))


def test_cokernel_diagonal_map():
    # coker(Z -> Z^3, 1 |-> (1,1,1)) = Z^2
    z = FgAbGroup.free(1)
    z3 = FgAbGroup.free(3)
    h = GroupHom(z, z3, ((1, 1, 1),))
    c, proj = h.cokernel()
    assert c == FgAbGroup.free(2)
    assert c.is_zero(proj.apply((1, 1, 1)))


def test_cokernel_trivial_and_index_two():
    z = FgAbGroup.free(1)
    assert GroupHom.identity(z).cokernel()[0].is_trivial()
    c, _ = GroupHom(z, z, ((2,),)).cokernel()
    assert c == FgAbGroup(0, (2,))


def test_kernel_of_addition():
    z2 = FgAbGroup.free(2)
    z = FgAbGroup.free(1)
    h = GroupHom(z2, z, ((1,), (1,)))
    k, incl = h.kernel()
    assert k == FgAbGroup.free(1)
    assert z.is_zero(h.apply(incl.apply((1,))))


def test_exactness_rank_count():
    # ker -> source -> target -> coker for a random-ish hom
    src = FgAbGroup(2, (4,))
    tgt = FgAbGroup(1, (2,))
    h = GroupHom(src, tgt, ((1, 0), (3, 1), (0, 1)))
    k, _ = h.kernel()
    c, _ = h.cokernel()
    # rank source = rank ker + rank im ; rank target = rank im + rank coker
    rank_im = src.rank - k.rank
    assert tgt.rank == rank_im + c.rank


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
       st.integers(2, 6))
def test_exactness_random_free_homs(entries, d):
    src = FgAbGroup.free(2)
    tgt = FgAbGroup(1, (d,))
    imgs = ((entries[0], entries[1] % d), (entries[2], entries[3] % d))
    h = GroupHom(src, tgt, imgs)
    k, incl = h.kernel()
    c, proj = h.cokernel()
    # rank(source) = rank(ker) + rank(im) and rank(im) = rank(tgt) - rank(coker)
    assert src.rank == k.rank + (tgt.rank - c.rank)
    # the composites vanish
    for gen in k.generators():
        assert tgt.is_zero(h.apply(incl.apply(gen)))
    for gen in src.generators():
        assert c.is_zero(proj.apply(h.apply(gen)))


def test_hom_and_ext_basics():
    z = FgAbGroup.free(1)
    z2 = FgAbGroup(0, (2,))
    z4 = FgAbGroup(0, (4,))
    z6 = FgAbGroup(0, (6,))
    assert hom_group(z2, z).is_trivial()
    assert ext1(z, z6).is_trivial()
    assert ext1(z4, z6) == FgAbGroup(0, (2,))
    assert hom_group(z, z6) == z6


@pytest.mark.parametrize("m", range(2, 13))
@pytest.mark.parametrize("n", [2, 3, 4, 6, 9, 12])
def test_ext_cyclic_order(m, n):
    from math import gcd
    e = ext1(FgAbGroup(0, (m,)), FgAbGroup(0, (n,)))
    assert e.order() == gcd(m, n)


def test_ext_class_to_extension_exactness():
    a = FgAbGroup(0, (4,))
    b = FgAbGroup(0, (2,))
    # nonzero class: cocycle = generator of B
    e, inc, proj = ext_class_to_extension(a, b, [(1,)])
    assert e.order() == 8
    # exactness: inc injective, proj surjective, im inc = ker proj
    k, _ = inc.kernel()
    assert k.is_trivial()
    c, _ = proj.cokernel()
    assert c.is_trivial()
    kp, _ = proj.kernel()
    assert kp.order() == 2
    # the zero class gives the split extension
    e0, _, _ = ext_class_to_extension(a, b, [(0,)])
    assert e0 == FgAbGroup(0, (2, 4))
    # a nonsplit extension of Z/4 by Z/2 is Z/8
    assert e == FgAbGroup(0, (8,))


def test_direct_sum_mixed():
    g, injs, projs = direct_sum([FgAbGroup(0, (2,)), FgAbGroup(0, (3,))])
    assert g == FgAbGroup(0, (6,))
    x = injs[0].apply((1,))
    y = injs[1].apply((1,))
    assert g.is_zero(g.scale(2, x))
    assert g.is_zero(g.scale(3, y))
    assert projs[0].apply(x) == (1,)
    assert projs[0].apply(y) == (0,)


def test_split_surjection_difference_map():
    z2 = FgAbGroup.free(2)
    z = FgAbGroup.free(1)
    q = GroupHom(z2, z, ((1,), (-1,)))
    s = split_surjection(q)
    assert s is not None
    assert q.apply(s.apply((1,))) == (1,)


def test_split_surjection_identity():
    z = FgAbGroup.free(1)
    s = split_surjection(GroupHom.identity(z))
    assert s.apply((1,)) == (1,)


def test_split_surjection_z_to_z2_fails():
    z = FgAbGroup.free(1)
    z2 = FgAbGroup(0, (2,))
    h = GroupHom(z, z2, ((1,),))
    assert split_surjection(h) is None


def test_split_surjection_requires_surjective():
    z = FgAbGroup.free(1)
    h = GroupHom(z, z, ((2,),))
    with pytest.raises(NotSurjective):
        split_surjection(h)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.sampled_from([(), (2,), (3,), (2, 4)]), st.data())
def test_reduced_sub_matches_sub(rank, torsion, data):
    g = FgAbGroup(rank, torsion)
    vec = st.tuples(*[st.integers(-6, 6)] * rank,
                    *[st.integers(0, d - 1) for d in torsion])
    sub = g.reduced_sub()
    for _ in range(6):
        x, y = data.draw(vec), data.draw(vec)
        assert sub(x, y) == g.sub(x, y)
