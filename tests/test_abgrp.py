from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

import linear_references as ref

from logflat import abgrp, scope
from logflat.abgrp import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    direct_sum,
    ext1,
    ext_class_to_extension,
    hom_group,
    integer_kernel,
    lll_reduce,
    NotSurjective,
    smith_normal_form,
    solve_integer,
    split_surjection,
)


def snf_diag(m):
    _, d, _, _ = smith_normal_form(m)
    return [d[i, i] for i in range(min(m.rows, m.cols))]


def test_snf_reference_example():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    u, d, v, _ = smith_normal_form(m)
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
    u, d, v, w = smith_normal_form(m)
    assert u.mul(m).mul(v) == d
    assert u.mul(w) == IntMatrix.identity(m.rows)
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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.data())
def test_from_relations_section_and_inverse(n, data):
    cols = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n,
                                       max_size=n), max_size=n))
    g, to_can, lift = FgAbGroup.from_relations(n, cols)
    assert to_can.mul(lift) == IntMatrix.identity(g.dim)
    if cols:
        u, _, _, w = smith_normal_form(IntMatrix.from_columns(cols, nrows=n))
        assert u.mul(w) == IntMatrix.identity(n)
        assert w.mul(u) == IntMatrix.identity(n)


def test_kernel_takes_one_smith_form_of_its_generators(monkeypatch):
    hom = abgrp._resolution_map(FgAbGroup(0, (2, 4, 12)), FgAbGroup(1, (6,)))
    calls = []
    real = abgrp.smith_normal_form

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(abgrp, "smith_normal_form", counting)
    k, incl = hom.kernel()
    # the stacked system, the generators of the kernel, its presentation
    assert len(calls) == 3
    assert k.order() == 2 * 2 * 6  # Hom(Z/2 + Z/4 + Z/12, Z/6)
    assert all(hom.target.is_zero(hom.apply(incl.apply(x)))
               for x in k.generators())


def test_smith_forms_are_stored_in_a_run_scope():
    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    outside = smith_normal_form(m)
    assert smith_normal_form(m) is not outside
    with scope.run_scope():
        first = smith_normal_form(m)
        assert first == outside
        assert smith_normal_form(IntMatrix.from_rows(m.to_rows())) is first
        assert smith_normal_form(IntMatrix.identity(3)) is not first
    assert smith_normal_form(m) is not first


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


def _entries(draw, n):
    """n integer coordinates, given as a tuple or a list of ints, as a list
    of integral Fractions or as a list of bools."""
    form = draw(st.sampled_from(["tuple", "list", "fraction", "bool"]))
    if form == "bool":
        return draw(st.lists(st.booleans(), min_size=n, max_size=n))
    xs = draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))
    if form == "fraction":
        return [Fraction(x) for x in xs]
    return xs if form == "list" else tuple(xs)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.sampled_from([(), (2,), (3,), (2, 4), (2, 6, 12)]),
       st.data())
def test_element_arithmetic_matches_the_generator_reference(rank, torsion,
                                                             data):
    # the map(operator.*) forms of reduce, add and sub give the values of
    # the generator expressions they replaced, on Z^rank alone and with
    # torsion, for inputs that are not int tuples too
    g = FgAbGroup(rank, torsion)
    x, y = _entries(data.draw, g.dim), _entries(data.draw, g.dim)
    assert g.reduce(x) == ref.group_reduce(g, x)
    assert g.add(x, y) == ref.group_add(g, x, y)
    assert g.sub(x, y) == ref.group_sub(g, x, y)
    for out in (g.reduce(x), g.add(x, y), g.sub(x, y)):
        assert type(out) is tuple and all(type(c) is int for c in out)
    wrong = _entries(data.draw,
                     data.draw(st.integers(0, 6).filter(lambda n: n != g.dim)))
    for reduce in (g.reduce, lambda v: ref.group_reduce(g, v)):
        with pytest.raises(ValueError):
            reduce(wrong)


# -- direct sums, sections and Hom from the one Smith form ----------------------

CHAINS = [(), (2,), (3,), (4,), (2, 2), (2, 6), (3, 9), (2, 4, 12)]
groups = st.builds(FgAbGroup, st.integers(0, 2), st.sampled_from(CHAINS))
# prime powers, so that quotients by random elements often do not split
finite_groups = st.builds(FgAbGroup, st.just(0), st.sampled_from(
    [(4,), (8,), (2, 4), (4, 8), (2, 6), (3, 9)]))


def test_from_columns_keeps_the_shape():
    m = IntMatrix.from_columns([(), ()], nrows=0)
    assert (m.rows, m.cols) == (0, 2)
    assert IntMatrix.from_columns([], nrows=3).cols == 0
    with pytest.raises(ValueError):
        IntMatrix.from_columns([(1, 2), (3,)])
    with pytest.raises(ValueError):
        IntMatrix.from_columns([(1, 2)], nrows=3)


@pytest.mark.parametrize("rank", [None, -1, True, "2", 1.0])
def test_group_refuses_a_rank_that_is_not_a_natural_number(rank):
    # as it refuses bad torsion: FgAbGroup(None) once built, then failed
    # in the first operation that read its rank
    with pytest.raises(ValueError, match="rank must be an integer >= 0"):
        FgAbGroup(rank)


def test_kernel_into_the_zero_group_is_everything():
    # a system with no rows keeps its columns, so the kernel is all of Z^2
    h = GroupHom(FgAbGroup.free(2), FgAbGroup.zero_group(), ((), ()))
    assert h.kernel_lattice() == [(1, 0), (0, 1)]
    assert h.kernel()[0] == FgAbGroup.free(2)
    assert not h.is_injective()


@settings(max_examples=80, deadline=None)
@given(st.lists(groups, max_size=4))
def test_direct_sum_injections_and_projections(gs):
    total, injs, projs = direct_sum(gs)
    assert total.rank == sum(g.rank for g in gs)
    if not total.rank:
        assert total.order() == prod(g.order() for g in gs)
    for i, (g, p) in enumerate(zip(gs, projs)):
        for j, (h, inj) in enumerate(zip(gs, injs)):
            comp = p.compose(inj)
            expect = h.generators() if i == j else [g.zero()] * h.dim
            assert list(comp.images) == expect
    for e in total.generators():
        back = total.zero()
        for inj, p in zip(injs, projs):
            back = total.add(back, inj.apply(p.apply(e)))
        assert back == e


def test_direct_sum_of_nothing_is_zero():
    assert direct_sum([]) == (FgAbGroup.zero_group(), [], [])


def test_direct_sum_keeps_free_coordinates_in_blocks():
    # the free coordinates stay block by block; only torsion is rearranged
    total, (j1, j2), _ = direct_sum([FgAbGroup(1, (4,)), FgAbGroup(2, (2, 6))])
    assert total == FgAbGroup(3, (2, 2, 12))
    assert j1.images[0] == (1, 0, 0, 0, 0, 0)
    assert [v[:3] for v in j2.images[:2]] == [(0, 1, 0), (0, 0, 1)]
    g = FgAbGroup(2, (2,))
    assert direct_sum([g])[1][0] == GroupHom.identity(g)


@settings(max_examples=80, deadline=None)
@given(finite_groups, st.data())
def test_split_surjection_matches_brute_force(src, data):
    # h is the quotient of src by one or two random elements, so it is onto
    elem = st.tuples(*[st.integers(0, d - 1) for d in src.torsion])
    rels = data.draw(st.lists(elem, min_size=1, max_size=2))
    tgt, h = GroupHom(FgAbGroup.free(len(rels)), src, tuple(rels)).cokernel()
    splits = all(
        any(h.apply(x) == e and src.is_zero(src.scale(tgt.generator_order(i), x))
            for x in src.elements())
        for i, e in enumerate(tgt.generators()))
    s = split_surjection(h)
    assert (s is not None) == splits
    if s is not None:
        assert h.compose(s) == GroupHom.identity(tgt)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 9])
@pytest.mark.parametrize("n", [2, 4, 6, 12])
def test_hom_cyclic_order(m, n):
    assert hom_group(FgAbGroup(0, (m,)), FgAbGroup(0, (n,))).order() == gcd(m, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), groups)
def test_hom_from_free_is_a_power(a, b):
    assert hom_group(FgAbGroup.free(a), b) == direct_sum([b] * a)[0]
    assert ext1(FgAbGroup.free(a), b).is_trivial()


# -- LLL reduction --------------------------------------------------------------


def _lattice_rank(vectors, dim):
    if not vectors:
        return 0
    return sum(1 for x in snf_diag(IntMatrix.from_columns(vectors, nrows=dim))
               if x)


def _gram_schmidt(vectors):
    """(|b*_k|^2, mu) over the rationals."""
    stars, norms, mu = [], [], []
    for k, b in enumerate(vectors):
        row = [Fraction(0)] * k
        star = [Fraction(x) for x in b]
        for j in range(k):
            row[j] = sum(Fraction(x) * y for x, y in zip(b, stars[j])) / norms[j]
            star = [x - row[j] * y for x, y in zip(star, stars[j])]
        stars.append(star)
        norms.append(sum(x * x for x in star))
        mu.append(row)
    return norms, mu


@st.composite
def independent_vectors(draw):
    dim = draw(st.integers(1, 7))
    r = draw(st.integers(0, min(5, dim)))
    vecs = draw(st.lists(st.tuples(*[st.integers(-20, 20)] * dim),
                         min_size=r, max_size=r))
    assume(_lattice_rank(vecs, dim) == r)
    return dim, vecs


@settings(max_examples=150, deadline=None)
@given(independent_vectors())
def test_lll_reduce_is_a_reduced_basis_of_the_same_lattice(case):
    dim, vecs = case
    out = lll_reduce(vecs)
    assert len(out) == len(vecs)
    if vecs:
        old_m = IntMatrix.from_columns(vecs, nrows=dim)
        new_m = IntMatrix.from_columns(out, nrows=dim)
        assert all(solve_integer(old_m, v) is not None for v in out)
        assert all(solve_integer(new_m, v) is not None for v in vecs)
    norms, mu = _gram_schmidt(out)
    for k in range(len(out)):
        assert all(abs(m) <= Fraction(1, 2) for m in mu[k])
        if k:
            assert norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]


@settings(max_examples=80, deadline=None)
@given(independent_vectors(), st.data())
def test_lll_reduce_rejects_dependent_vectors(case, data):
    dim, vecs = case
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(vecs),
                                max_size=len(vecs)))
    combo = tuple(sum(c * v[i] for c, v in zip(coeffs, vecs))
                  for i in range(dim))
    vecs.insert(data.draw(st.integers(0, len(vecs))), combo)
    with pytest.raises(ValueError):
        lll_reduce(vecs)
