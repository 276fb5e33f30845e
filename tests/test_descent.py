import pytest

import linear_references as ref
from logflat import polyalg as pa
from logflat.polyalg import ModulePresentation, PolyRing, RingMap, RingPresentation
from logflat import descent as de
from logflat.descent import (
    DescentDatum,
    GateFailed,
    GluingDatum,
    NotSurjective,
    descend_D,
    ext1_dimension,
    hom_dimension,
    hom_ext_fiber_product,
    pullback_P,
    roundtrip_check,
    tor_gate,
    tor_gate_side,
)


def nodal_glue(field=pa.QQ):
    """k[x] x_k k[y] = k[x,y]/(xy)."""
    r1 = PolyRing(field, ["x"])
    r2 = PolyRing(field, ["y"])
    r0 = PolyRing(field, [])
    c1 = RingPresentation(r1, [])
    c2 = RingPresentation(r2, [])
    c0 = RingPresentation(r0, [])
    f1 = RingMap(c1, c0, [r0.zero()], check=False)
    f2 = RingMap(c2, c0, [r0.zero()], check=False)
    return GluingDatum(c1, c2, c0, f1, f2)


def fat_glue(field=pa.QQ):
    """k[x]/(x^2) x_k k[y]/(y^3)."""
    r1 = PolyRing(field, ["x"])
    r2 = PolyRing(field, ["y"])
    r0 = PolyRing(field, [])
    c1 = RingPresentation(r1, [r1.parse("x^2")])
    c2 = RingPresentation(r2, [r2.parse("y^3")])
    c0 = RingPresentation(r0, [])
    f1 = RingMap(c1, c0, [r0.zero()], check=False)
    f2 = RingMap(c2, c0, [r0.zero()], check=False)
    return GluingDatum(c1, c2, c0, f1, f2)


class TestFiberProductRing:
    def test_nodal_presentation(self):
        glue = nodal_glue()
        c = glue.c
        # two generators whose product vanishes: C = k[x,y]/(xy)
        assert c.ring.nvars == 2
        prod = c.ring.mul(c.ring.var(0), c.ring.var(1))
        assert c.is_zero(prod)
        assert not c.is_zero(c.ring.var(0))

    def test_identity_glue(self):
        field = pa.QQ
        r0 = PolyRing(field, [])
        k = RingPresentation(r0, [])
        ident = RingMap(k, k, [], check=False)
        glue = GluingDatum(k, k, k, ident, ident)
        assert ModulePresentation(glue.c, 1).dim() == 1

    def test_fat_points(self):
        glue = fat_glue()
        # k[x,y]/(xy, x^2, y^3): dimension 1 + 1 + 2 = 4
        assert ModulePresentation(glue.c, 1).dim() == 4

    def test_cocartesian_certificate(self):
        assert nodal_glue().cocartesian_certificate()
        assert fat_glue().cocartesian_certificate()

    def test_exact_sequence(self):
        assert nodal_glue().exact_sequence_certificate()

    def test_rejects_nonsurjective(self):
        field = pa.QQ
        r1 = PolyRing(field, [])
        r0 = PolyRing(field, ["z"])
        c1 = RingPresentation(r1, [])
        c0 = RingPresentation(r0, [])
        f = RingMap(c1, c0, [], check=False)
        with pytest.raises(NotSurjective):
            GluingDatum(c1, c1, c0, f, f)

    def test_built_fields_are_not_parameters(self):
        # C, the projections and their kernels come from the recipe only
        glue = nodal_glue()
        for name in ("c", "p1", "p2", "ker_p1", "ker_p2"):
            with pytest.raises(TypeError):
                GluingDatum(glue.c1, glue.c2, glue.c0, glue.f1, glue.f2,
                            **{name: getattr(glue, name)})


class TestLineContraction:
    def test_x_not_in_subring_low_degree(self):
        # C = k x_{k[x]} k[x,y]: the subring k + y k[x,y]; x is not in it in
        # any degree (certified here up to degree 6)
        field = pa.QQ
        r1 = PolyRing(field, ["x", "y"])
        c1 = RingPresentation(r1, [])
        r0 = PolyRing(field, ["x0"])
        c0 = RingPresentation(r0, [])
        f1 = RingMap(c1, c0, [r0.var(0), r0.zero()], check=False)
        # span of the generators of C in degrees <= 6: monomials with y | m
        # plus constants; x itself is degree 1 and not of that shape
        target = r1.var(0)
        covered = set()
        for (mono, _), _c in target.items():
            pass
        def in_subring(p):
            return all(mono[1] >= 1 or sum(mono) == 0
                       for (mono, _) in p)
        for d in range(7):
            assert not in_subring(target)
        assert in_subring(r1.parse("y + x*y"))
        assert not in_subring(r1.parse("x + y"))


def nodal_modules(glue):
    c = glue.c
    r = c.ring
    return {
        "structure": ModulePresentation(c, 1, []),
        "skyscraper": ModulePresentation(c, 1, [r.var(0), r.var(1)]),
        "antidiag": ModulePresentation(c, 1, [r.parse("g0 + g1")]),
        "unit_shift": ModulePresentation(c, 1, [r.parse("g0 - 1")]),
    }


class TestPullbackDescend:
    def setup_method(self):
        self.glue = nodal_glue()

    def test_pullback_of_structure(self):
        d = pullback_P(self.glue, ModulePresentation(self.glue.c, 1, []))
        assert d.m1.dim() is None  # k[x] is infinite dimensional
        assert d.reduction(1).dim() == 1

    def test_paper_counterexample(self):
        # P(B/(x+y)) = (k, k) = P(k); D(k,k) = k; dims 2 != 1
        mods = nodal_modules(self.glue)
        d_anti = pullback_P(self.glue, mods["antidiag"])
        d_sky = pullback_P(self.glue, mods["skyscraper"])
        assert d_anti.m1.dim() == 1 and d_anti.m2.dim() == 1
        assert d_sky.m1.dim() == 1 and d_sky.m2.dim() == 1
        back = descend_D(d_anti)
        assert back.dim() == 1
        assert mods["antidiag"].dim() == 2

    def test_descend_structure(self):
        # D(C1, C2, id) = C
        glue = self.glue
        d = pullback_P(glue, ModulePresentation(glue.c, 1, []))
        back = descend_D(d)
        # rank-1 module isomorphic to C: dimensions are both infinite and
        # the canonical certificate passes through the roundtrip below
        rep = roundtrip_check(glue, ModulePresentation(glue.c, 1, []))
        assert rep["gate"] and rep["dp_isomorphic"] and rep["consistent"]


class TestDescentDatum:
    def setup_method(self):
        self.glue = nodal_glue()
        c1, c2 = self.glue.c1, self.glue.c2
        # M_1 = k[x] e_0 and M_2 = k[y] e_1: both reductions are k
        self.m1 = ModulePresentation(c1, 2, [{((0,), 1): pa.QQ.one()}])
        self.m2 = ModulePresentation(c2, 2, [{((0,), 0): pa.QQ.one()}])

    def test_inverse_composes_to_identity(self):
        # the clutching swaps the two surviving generators, scaled by 2
        two = pa.QQ.of_int(2)
        d = DescentDatum(self.glue, self.m1, self.m2,
                         [{((), 1): two}, {((), 0): two}])
        r1, r2 = d.reduction(1), d.reduction(2)
        field = self.glue.c0.ring.field
        for i in range(2):
            assert r2.eq(pa._apply_cols(field, d.phi, d.phi_inv[i]),
                         r2.basis_elem(i))
            assert r1.eq(pa._apply_cols(field, d.phi_inv, d.phi[i]),
                         r1.basis_elem(i))

    def test_phi_not_well_defined_raises(self):
        # the identity sends the relation e_1 of M_1 to e_1, alive in M_2
        phi = [{((), 0): pa.QQ.one()}, {((), 1): pa.QQ.one()}]
        with pytest.raises(ValueError, match="does not define a map"):
            DescentDatum(self.glue, self.m1, self.m2, phi)

    def test_reduction_built_once(self):
        d = pullback_P(self.glue, nodal_modules(self.glue)["antidiag"])
        assert d.reduction(1) is d.reduction(1)
        assert d.reduction(2) is d.reduction(2)
        assert d.reduction(1) is not d.reduction(2)

    def test_roundtrip_finds_each_basis_once(self, monkeypatch):
        # dim() of M and of DP(M) is asked twice each; the k-basis is
        # computed once per presentation
        calls = []
        real = pa.standard_monomials

        def counting(mp):
            calls.append(id(mp))
            return real(mp)

        monkeypatch.setattr(pa, "standard_monomials", counting)
        rep = roundtrip_check(self.glue, nodal_modules(self.glue)["antidiag"])
        assert rep["dp_dims"] == (2, 1)
        assert len(calls) == 2 and len(set(calls)) == 2


class TestGates:
    def setup_method(self):
        self.glue = nodal_glue()
        self.mods = nodal_modules(self.glue)

    def test_gate_values(self):
        assert tor_gate(self.glue, self.mods["structure"])
        assert not tor_gate(self.glue, self.mods["antidiag"])
        assert tor_gate(self.glue, self.mods["unit_shift"])
        assert not tor_gate(self.glue, self.mods["skyscraper"])

    def test_gate_inheritance(self):
        # gate(M) implies the side gates of the restrictions
        for name in ("structure", "unit_shift"):
            m = self.mods[name]
            if tor_gate(self.glue, m):
                d = pullback_P(self.glue, m)
                assert tor_gate_side(self.glue, 1, d.m1)
                assert tor_gate_side(self.glue, 2, d.m2)

    def test_gate_synthesis(self):
        # side gates imply the gate of the descended module
        for name, mod in self.mods.items():
            d = pullback_P(self.glue, mod)
            if tor_gate_side(self.glue, 1, d.m1) and \
                    tor_gate_side(self.glue, 2, d.m2):
                back = descend_D(d)
                assert tor_gate(self.glue, back)


class TestRoundtrip:
    def setup_method(self):
        self.glue = nodal_glue()
        self.mods = nodal_modules(self.glue)

    def test_gated_roundtrip(self):
        rep = roundtrip_check(self.glue, self.mods["unit_shift"])
        assert rep["gate"]
        assert rep["dp_isomorphic"]
        assert rep["pd_certified"]
        assert rep["consistent"]

    def test_ungated_counterexample(self):
        rep = roundtrip_check(self.glue, self.mods["antidiag"])
        assert not rep["gate"]
        assert rep["dp_dims"] == (2, 1)
        assert rep["dp_isomorphic"] is False
        assert rep["consistent"]

    def test_pd_identity_always(self):
        for name in ("structure", "antidiag", "unit_shift", "skyscraper"):
            d = pullback_P(self.glue, self.mods[name])
            assert de._pd_certificate(self.glue, d, de.descend_D(d))

    def test_fault_in_pd_certificate_raises(self, monkeypatch):
        # a fault inside the certificate is an error, not "pd_certified:
        # false"; only its inversions land in a module over C_1 or C_2
        real = pa.module_map_inverse

        def broken(cols, m_from, m_to):
            if m_to.over in (self.glue.c1, self.glue.c2):
                raise RuntimeError("injected")
            return real(cols, m_from, m_to)

        monkeypatch.setattr(pa, "module_map_inverse", broken)
        with pytest.raises(RuntimeError, match="injected"):
            roundtrip_check(self.glue, self.mods["unit_shift"])


class TestHomExt:
    def setup_method(self):
        self.glue = nodal_glue()
        self.mods = nodal_modules(self.glue)

    def test_hom_dims_unit_shift(self):
        # self-Ext of the residue field of a smooth point is the tangent
        # space: dimension 1 on the glued side and 1 + 0 across the branches
        m = self.mods["unit_shift"]
        rep = hom_ext_fiber_product(self.glue, m, m)
        assert rep["hom"]["glued"] == 1
        assert rep["hom_matches"]
        assert rep["ext1"]["glued"] == 1
        assert rep["ext1"]["sides"] == (1, 0)
        assert rep["ext1_matches"]

    def test_gate_required(self):
        with pytest.raises(GateFailed):
            hom_ext_fiber_product(self.glue, self.mods["antidiag"],
                                  self.mods["antidiag"])

    def test_hom_skyscraper_dims(self):
        # Hom(k, k) over C0 side check through dimensions only
        m = self.mods["skyscraper"]
        assert hom_dimension(m, m) == 1
        assert ext1_dimension(m, m) == 2  # Tor-style: two branch directions


def test_kernel_of_ring_map():
    field = pa.QQ
    r1 = PolyRing(field, ["x"])
    r0 = PolyRing(field, [])
    c1 = RingPresentation(r1, [])
    c0 = RingPresentation(r0, [])
    f = RingMap(c1, c0, [r0.zero()], check=False)
    pres = RingPresentation(r1, f.kernel())
    assert pres.is_zero(r1.var(0))
    assert not pres.is_zero(r1.one())


def _shear():
    """The isomorphism k[z1,z2] -> k[x,y], z1 |-> x + y^2, z2 |-> y."""
    src = RingPresentation(PolyRing(pa.QQ, ["z1", "z2"]), [])
    kxy = PolyRing(pa.QQ, ["x", "y"])
    return src, kxy, [kxy.parse("x + y^2"), kxy.parse("y")]


def test_subalgebra_witness_under_elimination_order():
    src, kxy, images = _shear()
    f = RingMap(src, RingPresentation(kxy, []), images)
    z = src.ring
    assert f.preimage(kxy.parse("x")) == z.parse("z1 - z2^2")
    assert f.preimage(kxy.parse("y^2")) == z.parse("z2^2")
    assert f.preimage(kxy.parse("x*y")) == z.parse("z1*z2 - z2^3")
    # k[x^2] misses x
    sq = RingMap(RingPresentation(PolyRing(pa.QQ, ["w"]), []),
                 RingPresentation(kxy, []), [kxy.parse("x^2")])
    assert sq.preimage(kxy.parse("x")) is None


def test_gluing_along_a_shear_builds():
    c1, kxy, images = _shear()
    c0 = RingPresentation(kxy, [kxy.parse("x^2")])
    c2 = RingPresentation(PolyRing(pa.QQ, ["u", "v"]), [])
    glue = GluingDatum(c1, c2, c0, RingMap(c1, c0, images),
                       RingMap(c2, c0, [kxy.parse("x"), kxy.parse("y")]))
    assert glue.cocartesian_certificate()
    assert glue.exact_sequence_certificate()


def test_kernel_and_witness_share_one_graph_basis(monkeypatch):
    src, kxy, images = _shear()
    c0 = RingPresentation(kxy, [kxy.parse("x^2")])
    f = RingMap(src, c0, images)
    calls = []
    real = pa.buchberger
    monkeypatch.setattr(pa, "buchberger",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    ker = f.kernel()
    assert f.preimage(kxy.parse("x")) is not None
    assert f.kernel() == ker
    assert len(calls) == 1


# -- Hom and Ext^1 from one precomposition per pair ------------------------------


def criterion_7_modules(glue):
    """The modules of acceptance criterion 7 over a nodal-shaped gluing,
    with C/(g0^2) and C/(g0^2, g1^2) added."""
    c = glue.c
    r = c.ring
    return {
        "C": ModulePresentation(c, 1, []),
        "C/(g0+g1)": ModulePresentation(c, 1, [r.parse("g0 + g1")]),
        "C/(g0-1)": ModulePresentation(c, 1, [r.parse("g0 - 1")]),
        "k": ModulePresentation(c, 1, [r.var(0), r.var(1)]),
        "C+C/(g0-1)": ModulePresentation(c, 2, [
            {((1, 0), 1): pa.QQ.one(), ((0, 0), 1): pa.QQ.of_int(-1)}]),
        "C/(g0^2)": ModulePresentation(c, 1, [r.parse("g0^2")]),
        "C/(g0^2,g1^2)": ModulePresentation(c, 1, [r.parse("g0^2"),
                                                   r.parse("g1^2")]),
    }


@pytest.mark.parametrize("make_glue", [nodal_glue, fat_glue])
def test_hom_ext_fiber_product_matches_separate_nullspaces(make_glue):
    glue = make_glue()
    mods = criterion_7_modules(glue)
    gated = [m for m in mods.values() if tor_gate(glue, m)]
    compared = 0
    for m in gated:
        for n in gated:
            if n.dim() is None:
                continue
            assert hom_ext_fiber_product(glue, m, n) == \
                ref.hom_ext_fiber_product(glue, m, n)
            compared += 1
    # nodal: C, C/(g0-1), C+C/(g0-1) into C/(g0-1); fat: 4 x 4
    assert compared == (3 if make_glue is nodal_glue else 16)


@pytest.mark.parametrize("make_glue", [nodal_glue, fat_glue])
def test_hom_and_ext1_dimensions_match_separate_nullspaces(make_glue):
    mods = criterion_7_modules(make_glue())
    for m in mods.values():
        for n in mods.values():
            if n.dim() is None:
                with pytest.raises(de.NotFiniteDimensional):
                    hom_dimension(m, n)
                continue
            assert hom_dimension(m, n) == ref.hom_dimension(m, n)
            assert ext1_dimension(m, n) == ref.ext1_dimension(m, n)


@pytest.mark.parametrize("a", range(1, 5))
@pytest.mark.parametrize("b", range(1, 5))
def test_hom_ext_of_truncated_polynomial_rings(a, b):
    # over k[x], Hom(k[x]/(x^a), k[x]/(x^b)) is the annihilator of x^a in
    # k[x]/(x^b), and Ext^1 its cokernel of x^a: both of dimension min(a, b)
    ring = PolyRing(pa.QQ, ["x"])
    kx = RingPresentation(ring, [])
    m = ModulePresentation(kx, 1, [ring.pow(ring.var(0), a)])
    n = ModulePresentation(kx, 1, [ring.pow(ring.var(0), b)])
    expect = min(a, b)
    assert hom_dimension(m, n) == ext1_dimension(m, n) == expect
    assert ref.hom_dimension(m, n) == ref.ext1_dimension(m, n) == expect


def test_free_module_has_no_ext1_into_an_infinite_module():
    ring = PolyRing(pa.QQ, ["x"])
    kx = RingPresentation(ring, [])
    free, n = ModulePresentation(kx, 2, []), ModulePresentation(kx, 1, [])
    assert n.dim() is None
    assert ext1_dimension(free, n) == ref.ext1_dimension(free, n) == 0
    with pytest.raises(de.NotFiniteDimensional):
        hom_dimension(free, n)


def test_hom_ext_fiber_product_precomposes_twice_per_pair(monkeypatch):
    # four pairs (glued, two sides, overlap), each with relations: the
    # relation columns once and their syzygies once
    glue = nodal_glue()
    m = nodal_modules(glue)["unit_shift"]
    calls = []
    real = de._precomposition
    monkeypatch.setattr(de, "_precomposition",
                        lambda *a: calls.append(1) or real(*a))
    hom_ext_fiber_product(glue, m, m)
    assert len(calls) == 8


# -- gluing kernels ------------------------------------------------------------------


def _gallery_glue():
    from logflat import cli
    return cli.Workspace(cli.load_gallery("nodal-descent"), pa.QQ).get("glue")


@pytest.mark.parametrize("make_glue", [nodal_glue, fat_glue, _gallery_glue])
def test_gluing_kernels_are_the_kernels_of_the_projections(make_glue):
    glue = make_glue()
    assert glue.ker_p1 == glue.p1.kernel()
    assert glue.ker_p2 == glue.p2.kernel()


def test_nodal_gluing_builds_four_elimination_bases(monkeypatch):
    # ker f1, the graph of f2 for the pair witnesses, and the two graph
    # ideals of the free ring on the pairs; the kernels of p1 and p2 are
    # the last two again and are not recomputed
    calls = []
    real = pa.elimination_basis
    monkeypatch.setattr(pa, "elimination_basis",
                        lambda *a: calls.append(1) or real(*a))
    glue = nodal_glue()
    assert len(calls) == 4
    assert glue.exact_sequence_certificate()


def test_projections_share_the_graph_bases_of_the_free_ring(monkeypatch):
    # gluing plus one descent: the graphs of f1 and f2 (equal inputs here,
    # as the two sides are alike), of F -> C1 and F -> C2, which p1 and p2
    # share, and of C -> C0
    inputs = []
    real = pa.elimination_basis

    def recording(field, gens, elim):
        inputs.append((frozenset(frozenset(g.items()) for g in gens),
                       tuple(elim)))
        return real(field, gens, elim)

    monkeypatch.setattr(pa, "elimination_basis", recording)
    glue = nodal_glue()
    x, y = glue.c1.ring, glue.c2.ring
    d = DescentDatum(glue, ModulePresentation(glue.c1, 1, [x.parse("x^2")]),
                     ModulePresentation(glue.c2, 1, [y.parse("y^2")]),
                     [ModulePresentation(glue.c0, 1, []).basis_elem(0)])
    assert descend_D(d).dim() == 3
    assert (len(inputs), len(set(inputs))) == (5, 4)
