import pytest
from hypothesis import example, given, settings, strategies as st

from logflat import qcone
from logflat.abgrp import FgAbGroup, IntMatrix, smith_normal_form
from logflat.monoid import (
    FineMonoid,
    MonoidHom,
    MonoidIdeal,
    NotSubmonoid,
    boundary,
    classify_morphism,
    compose_tagged,
    decompose_diagonal,
    diagonal,
    groupification_cokernel,
    identity_tagged,
    monoid_pushout,
    nat_monoid,
    product_hom,
    pushout_tagged,
    trivial_monoid,
)


def antidiag_monoid():
    # <(1,1),(1,-1)> in Z^2
    return FineMonoid(FgAbGroup.free(2), [(1, 1), (1, -1)])


class TestMember:
    def test_nat2(self):
        p = nat_monoid(2)
        assert p.member((3, 1))
        assert not p.member((-1, 0))

    def test_parity_invariant(self):
        p = antidiag_monoid()
        assert not p.member((1, 0))
        assert p.member((2, 0))
        assert p.member((3, 1))
        assert not p.member((0, 2))

    def test_with_units(self):
        # N x Z
        p = FineMonoid(FgAbGroup.free(2), [(1, 0), (0, 1), (0, -1)])
        assert p.member((2, -5))
        assert not p.member((-1, 3))

    def test_torsion_ambient(self):
        g = FgAbGroup(1, (2,))
        p = FineMonoid(g, [(1, 1)])
        assert p.member((2, 0))
        assert not p.member((2, 1))
        assert p.member((3, 1))

    def test_certificate(self):
        p = nat_monoid(2)
        ok, mult = p.member_with_certificate((2, 3))
        assert ok and mult == (2, 3)
        ok, mult = p.member_with_certificate((-1, 0))
        assert not ok


class TestUnitsSharpen:
    def test_nat_times_z(self):
        p = FineMonoid(FgAbGroup.free(2), [(1, 0), (0, 1), (0, -1)])
        u, sharp, proj = p.sharpening()
        assert u == FgAbGroup.free(1)
        assert sharp.ambient.rank == 1
        assert len(sharp.generators) == 1

    def test_pointed(self):
        p = nat_monoid(2)
        u, sharp, proj = p.sharpening()
        assert u.is_trivial()
        assert sharp.generators == p.generators

    def test_invertible_generator(self):
        p = FineMonoid(FgAbGroup.free(2), [(1, 0), (-1, 0), (0, 1)])
        u, sharp, _ = p.sharpening()
        assert u == FgAbGroup.free(1)


class TestPrimes:
    def test_nat2_has_four(self):
        p = nat_monoid(2)
        primes = p.prime_ideals()
        assert len(primes) == 4
        assert primes[0].is_empty()
        maximal = primes[-1]
        assert maximal.contains((1, 0)) and maximal.contains((0, 1))
        assert not maximal.contains((0, 0))

    def test_nat_has_two(self):
        p = nat_monoid(1)
        primes = p.prime_ideals()
        assert len(primes) == 2
        assert primes[0].is_empty()
        assert primes[1].contains((1,)) and not primes[1].contains((0,))

    def test_group_has_one(self):
        g = FineMonoid(FgAbGroup.free(1), [(1,), (-1,)])
        assert len(g.prime_ideals()) == 1

    def test_brute_force_face_property(self):
        # complements of faces: a+b in I implies a in I or b in I
        p = antidiag_monoid()
        for prime in p.prime_ideals():
            for a in p.elements_up_to(3):
                for b in p.elements_up_to(3):
                    s = p.ambient.add(a, b)
                    if not prime.contains(s):
                        assert not prime.contains(a)
                        assert not prime.contains(b)


class TestIdeal:
    def test_membership(self):
        p = nat_monoid(2)
        ideal = MonoidIdeal(p, [(1, 0), (0, 1)])
        assert ideal.contains((2, 3))
        assert not ideal.contains((0, 0))

    def test_prime_detection(self):
        p = nat_monoid(2)
        assert MonoidIdeal(p, [(1, 0)]).is_prime()
        assert not MonoidIdeal(p, [(1, 1)]).is_prime()


class TestLocalize:
    def test_at_nothing(self):
        p = nat_monoid(1)
        loc, _ = p.localize([])
        assert loc.generators == p.generators

    def test_invert_generator(self):
        p = nat_monoid(1)
        loc, _ = p.localize([0])
        assert loc.member((-5,))
        assert loc.is_group()

    def test_face_localization(self):
        p = nat_monoid(2)
        loc, _ = p.localize([(1, 0)])
        assert loc.member((-3, 1))
        assert not loc.member((0, -1))

    def test_rejects_outsiders(self):
        p = nat_monoid(1)
        with pytest.raises(NotSubmonoid):
            p.localize([(-1,)])


class TestPushout:
    def test_id_id(self):
        p = nat_monoid(1)
        h = MonoidHom.identity(p)
        out, _, _, _ = monoid_pushout(h, h)
        assert len(out.generators) == 1
        assert out.ambient.rank == 1

    def test_coproduct(self):
        t = trivial_monoid()
        p1, p2 = nat_monoid(1), nat_monoid(2)
        h1 = MonoidHom(t, p1, [])
        h2 = MonoidHom(t, p2, [])
        out, i1, i2, _ = monoid_pushout(h1, h2)
        assert out.ambient.rank == 3
        assert len(out.generators) == 3

    def test_nodal_amalgam(self):
        # N --diag--> N^2 against N --id--> N
        q = nat_monoid(1)
        h1 = diagonal(2)
        h2 = MonoidHom.identity(q)
        out, i1, i2, integral = monoid_pushout(h1, h2)
        # pushout is N^2 again (identity leg)
        assert out.ambient.rank == 2
        assert integral is True


class TestClassify:
    def test_diagonal(self):
        h = diagonal(3)
        c = classify_morphism(h)
        assert c.injective and not c.surjective
        assert c.vertical
        assert c.free and c.flat
        assert not c.strict
        fs = c.basis
        assert fs.contains((2, 0, 1))
        assert not fs.contains((1, 1, 1))
        q, s = fs.decompose((3, 1, 2))
        assert q == (1,) and s == (2, 0, 1)

    def test_addition_map(self):
        p2, p1 = nat_monoid(2), nat_monoid(1)
        h = MonoidHom(p2, p1, [(1,), (1,)])
        c = classify_morphism(h)
        assert c.surjective
        assert not c.injective
        assert c.flat is False and c.free is False

    def test_boundary(self):
        h = boundary()
        c = classify_morphism(h)
        assert c.free
        assert not c.vertical
        assert c.basis.contains((7,))

    def test_strict_unit_extension(self):
        # N -> N x Z is strict and injective, hence free
        q = nat_monoid(1)
        p = FineMonoid(FgAbGroup.free(2), [(1, 0), (0, 1), (0, -1)])
        h = MonoidHom(q, p, [(1, 0)])
        c = classify_morphism(h)
        assert c.strict and c.injective
        assert c.free and c.flat

    def test_mult2(self):
        p = nat_monoid(1)
        h = MonoidHom(p, p, [(2,)])
        c = classify_morphism(h)
        assert c.injective
        assert c.free and c.flat
        assert c.vertical  # cokernel monoid is Z/2

    def test_undecidable_is_honest(self):
        # N -> N^2, 1 |-> e1: not vertical, free via recognizer
        h = MonoidHom(nat_monoid(1), nat_monoid(2), [(1, 0)])
        c = classify_morphism(h)
        assert c.free is True
        assert not c.vertical


class TestPartitionConstructors:
    def test_diagonal_basis_and_alpha_beta(self):
        h = diagonal(2)
        fs = h.free_structure
        basis4 = fs.enumerate(4)
        assert ((0, 0) in basis4) and ((3, 0) in basis4) and ((0, 2) in basis4)
        assert (1, 1) not in basis4
        for s in basis4[:6]:
            for t in basis4[:6]:
                a, b = fs.alpha_beta(s, t)
                # s + t = alpha + h(beta)
                total = h.target.ambient.add(s, t)
                assert total == h.target.ambient.add(a, h.apply_gp(b))
                a2, b2 = fs.alpha_beta(t, s)
                assert (a, b) == (a2, b2)
            a0, b0 = fs.alpha_beta(s, (0, 0))
            assert a0 == s and b0 == (0,)

    def test_compose_rule(self):
        # diag2 then diag2 x id : N -> N^2 -> N^3
        inner = diagonal(2)
        outer = product_hom([diagonal(2), identity_tagged(nat_monoid(1))])
        comp = compose_tagged(outer, inner)
        assert comp.partition_tag == "partition"
        assert comp.images == ((1, 1, 1),)
        fs = comp.free_structure
        q, s = fs.decompose((2, 3, 1))
        amb = comp.target.ambient
        assert amb.add(comp.apply_gp(q), s) == (2, 3, 1)
        c = classify_morphism(comp)
        assert c.free and c.vertical

    def test_boundary_pushout(self):
        # 0 -> N pushed out along 0 -> Q gives Q -> Q + N with basis {0} x N
        q = nat_monoid(1)
        f = MonoidHom(trivial_monoid(), q, [])
        h = boundary()
        out = pushout_tagged(h, f)
        assert out.partition_tag == "boundary"
        c = classify_morphism(out)
        assert c.free
        fs = out.free_structure
        qq, s = fs.decompose(out.target.ambient.add(out.images[0], out.images[0]))
        assert qq == (2,) or out.source.ambient.reduce(qq) == (2,)

    def test_decompose_diagonal(self):
        assert decompose_diagonal(3, (3, 1, 2)) == (1, (2, 0, 1))
        assert decompose_diagonal(2, (0, 0)) == (0, (0, 0))
        assert decompose_diagonal(2, (5, 5)) == (5, (0, 0))


def test_groupification_cokernel_of_diagonal():
    h = diagonal(3)
    cok, to_cok = groupification_cokernel(h)
    assert cok == FgAbGroup.free(2)
    assert cok.is_zero(to_cok((1, 1, 1)))
    assert not cok.is_zero(to_cok((1, 0, 0)))


# classify_morphism on cones over a 5-gon and an 8-gon, for the identity, a
# ray N -> P (1 |-> a vertex) and an interior N -> P (1 |-> the sum of the
# vertices); the values are those of the window-only module_over_source.
_POLYGONS = {
    "5-gon": [(0, 0), (2, 0), (3, 1), (2, 2), (0, 1)],
    "8-gon": [(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1)],
}
_PINNED = {
    "identity": (True, True, True, True, True, True, "CosetFreeBasis", {}),
    "ray": (True, False, False, False, None, None, "NoneType", {}),
    "interior": (True, False, False, True, None, None, "NoneType", {}),
}


@pytest.mark.parametrize("tag", sorted(_POLYGONS))
def test_classify_polygon_cones_pinned(tag):
    gens = [(x, y, 1) for x, y in _POLYGONS[tag]]
    p = FineMonoid(FgAbGroup.free(3), gens)
    interior = tuple(sum(g[t] for g in gens) for t in range(3))
    homs = {
        "identity": MonoidHom.identity(p),
        "ray": MonoidHom(nat_monoid(1), p, [gens[0]]),
        "interior": MonoidHom(nat_monoid(1), p, [interior]),
    }
    for name, h in homs.items():
        c = classify_morphism(h)
        got = (c.injective, c.surjective, c.strict, c.vertical, c.flat,
               c.free, type(c.basis).__name__, c.witness)
        assert got == _PINNED[name], name


# -- units and faces against the Fourier-Motzkin enumeration they replaced ----


def _face_functional(zero_vectors, positive_vectors, dim):
    """lambda vanishing on the first family, >= 1 on the second, or None."""
    cons = []
    for v in zero_vectors:
        cons.append((v, 0))
        cons.append((tuple(-x for x in v), 0))
    for v in positive_vectors:
        cons.append((v, 1))
    return qcone.feasible_point(cons, dim)


def _nonneg_combination_hits(basis_cols, i, n):
    if not basis_cols:
        return False
    cons = qcone.nonneg_combination_system(basis_cols, i, n)
    return qcone.feasible_point(cons, len(basis_cols)) is not None


def reference_unit_indices(self):
    """One Fourier-Motzkin system per generator: is some nonnegative
    relation positive on it?"""
    basis = self.relation_lattice()
    n = len(self.generators)
    return frozenset(i for i in range(n)
                     if _nonneg_combination_hits(basis, i, n))


def reference_faces(self):
    """One Fourier-Motzkin system per subset of the nonunit generators: is
    there a functional on the sharp quotient vanishing on the subset and
    positive on the rest?"""
    proj, sharp = self._sharp_data()
    units = reference_unit_indices(self)
    n = len(self.generators)
    nonunit = [i for i in range(n) if i not in units]
    rank = sharp.ambient.rank
    vec = {i: proj.apply(self.generators[i])[:rank] for i in nonunit}
    found = []
    for mask in range(1 << len(nonunit)):
        inside = [nonunit[t] for t in range(len(nonunit)) if mask >> t & 1]
        outside = [i for i in nonunit if i not in inside]
        lam = _face_functional([vec[i] for i in inside],
                               [vec[j] for j in outside], rank)
        if lam is None:
            continue
        members = tuple(sorted(set(inside) | units))
        found.append(members)
    def face_dim(f):
        cols = [list(self.generators[i]) for i in f]
        if not cols:
            return 0
        m = IntMatrix.from_columns(cols, nrows=self.ambient.dim)
        _, d, _ = smith_normal_form(m)
        return sum(1 for i in range(min(m.rows, m.cols)) if d[i, i] != 0)

    found.sort(key=lambda f: (-face_dim(f), f))
    return found


@st.composite
def embedded_monoids(draw):
    """Monoids in Z^r (+) T, r = 0..4, with zero, repeated and pure-torsion
    generators and negated ones (units) mixed in at random places."""
    rank = draw(st.integers(0, 4))
    torsion = draw(st.sampled_from([(), (2,), (3,), (2, 4)]))
    elem = st.tuples(*[st.integers(-2, 2)] * rank,
                     *[st.integers(0, d - 1) for d in torsion])
    gens = draw(st.lists(elem, max_size=5))
    extras = [(0,) * (rank + len(torsion))]
    extras.append(draw(st.tuples(*[st.just(0)] * rank,
                                 *[st.integers(0, d - 1) for d in torsion])))
    if gens:
        g = draw(st.sampled_from(gens))
        extras += [g, tuple(-x for x in g)]
    for e in draw(st.lists(st.sampled_from(extras), max_size=3)):
        gens.insert(draw(st.integers(0, len(gens))), e)
    return FineMonoid(FgAbGroup(rank, torsion), gens)


@settings(max_examples=300, deadline=None)
@given(embedded_monoids())
@example(FineMonoid(FgAbGroup.free(2), [(1, 0), (-1, 0), (0, 1)]))
@example(FineMonoid(FgAbGroup(0, (2, 4)), [(1, 0), (0, 3), (1, 3)]))
@example(FineMonoid(FgAbGroup(1, (2,)), [(1, 1), (-1, 0), (0, 1), (2, 0)]))
@example(FineMonoid(FgAbGroup.free(3), [(1, 0, 0), (0, 1, 0)]))
@example(FineMonoid(FgAbGroup.free(0), []))
def test_units_and_faces_match_reference(p):
    fresh = FineMonoid(p.ambient, p.generators)
    assert p.unit_indices() == reference_unit_indices(fresh)
    faces = reference_faces(fresh)
    assert p.faces() == faces
    n = len(p.generators)
    assert [q.generators for q in p.prime_ideals()] == [
        tuple(p.generators[i] for i in range(n) if i not in f) for f in faces]


OCTAGON_CONE = [(x, y, 1) for x, y in _POLYGONS["8-gon"]]


def test_octagon_cone_faces_pinned():
    p = FineMonoid(FgAbGroup.free(3), OCTAGON_CONE)
    assert p.faces() == [
        (0, 1, 2, 3, 4, 5, 6, 7),
        (0, 1), (0, 7), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
        (0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,),
        (),
    ]
    assert p.unit_indices() == frozenset()


def test_lineality_and_rank_zero_faces_pinned():
    z_times_n = FineMonoid(FgAbGroup.free(2), [(1, 0), (-1, 0), (0, 1)])
    assert z_times_n.faces() == [(0, 1, 2), (0, 1)]
    assert z_times_n.unit_indices() == frozenset({0, 1})
    finite = FineMonoid(FgAbGroup(0, (2, 4)), [(1, 0), (0, 3)])
    assert finite.faces() == [(0, 1)]
    assert finite.unit_indices() == frozenset({0, 1})
    trivial = FineMonoid(FgAbGroup.free(0), [])
    assert trivial.faces() == [()]
    assert trivial.unit_indices() == frozenset()


def test_units_and_faces_solve_no_feasibility_system(monkeypatch):
    calls = []
    solve = qcone.feasible_point

    def counted(constraints, nvars):
        calls.append(nvars)
        return solve(constraints, nvars)

    monkeypatch.setattr(qcone, "feasible_point", counted)
    p = FineMonoid(FgAbGroup.free(3), OCTAGON_CONE)
    p.unit_indices()
    p.faces()
    assert calls == []
