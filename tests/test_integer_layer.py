"""The integer-lattice layer: every subgroup, relation lattice, preimage and
groupification pushout goes through ``abgrp.GroupHom``.

The hand-built stacked systems it replaced are kept here as reference
implementations, and random monoids with units and torsion must give the
same lattices, subgroups with lifts, preimages, certificates and pushout
ambients, value for value.  An ``ast`` check keeps the stacked system
behind ``abgrp``."""

import ast
from pathlib import Path

from hypothesis import given, settings, strategies as st

from logflat import chart, monmod
from logflat.abgrp import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    direct_sum,
    integer_kernel,
    smith_normal_form,
    solve_integer,
)
from logflat.monoid import (
    FineMonoid,
    MonoidHom,
    _positive_unit_relation,
    _preimage_in_source,
    monoid_pushout,
    nat_monoid,
)


# -- the replaced code, kept as references --------------------------------------


def reference_relation_lattice(self):
    """Basis of {a in Z^n : sum a_i g_i = 0 in the ambient group}."""
    n = len(self.generators)
    cols = [list(g) for g in self.generators] + \
           [list(c) for c in self.ambient.relation_columns()]
    if not cols:
        basis = []
    else:
        m = IntMatrix.from_columns(cols, nrows=self.ambient.dim)
        basis = [k[:n] for k in integer_kernel(m)]
        basis = [b for b in basis if any(b)]
    return basis


def reference_span_group(p):
    """(G, incl) with G the subgroup of the ambient generated by the monoid
    generators, presented abstractly."""
    n = len(p.generators)
    rels = reference_relation_lattice(p)
    g, _, lift = FgAbGroup.from_relations(n, [list(r) for r in rels])
    imgs = []
    for j in range(g.dim):
        combo = lift.column(j)
        v = p.ambient.zero()
        for c, gen in zip(combo, p.generators):
            v = p.ambient.add(v, p.ambient.scale(c, gen))
        imgs.append(v)
    incl = GroupHom(g, p.ambient, tuple(imgs))
    return g, incl


def reference_span_with_lift(mon):
    """(span group, lift columns expressing span generators as integer
    combinations of the monoid generators)."""
    n = len(mon.generators)
    rels = reference_relation_lattice(mon)
    g, _, lift = FgAbGroup.from_relations(n, [list(r) for r in rels])
    return g, lift


def reference_subgroup(amb, gen_elems):
    """(H, inclusion) for the subgroup generated by the given elements."""
    gens = [list(amb.reduce(x)) for x in gen_elems]
    cols = gens + [list(c) for c in amb.relation_columns()]
    if not gens:
        h = FgAbGroup.zero_group()
        return h, GroupHom(h, amb, ())
    m = IntMatrix.from_columns(cols, nrows=amb.dim)
    ker = [k[:len(gens)] for k in integer_kernel(m)]
    h, _, lift = FgAbGroup.from_relations(len(gens), [k for k in ker if any(k)])
    imgs = []
    for j in range(h.dim):
        combo = lift.column(j)
        v = amb.zero()
        for c, g in zip(combo, gens):
            v = amb.add(v, amb.scale(c, g))
        imgs.append(v)
    return h, GroupHom(h, amb, tuple(imgs))


def reference_unit_group(self):
    """(U, inclusion U -> ambient) for the unit subgroup P* of the monoid."""
    ugens = [self.generators[i] for i in sorted(self.unit_indices())]
    if not ugens:
        u = FgAbGroup.zero_group()
        return u, GroupHom(u, self.ambient, ())
    m = IntMatrix.from_columns(
        [list(g) for g in ugens] + [list(c) for c in self.ambient.relation_columns()],
        nrows=self.ambient.dim)
    rels = [k[:len(ugens)] for k in integer_kernel(m)]
    u, _, lift = FgAbGroup.from_relations(len(ugens), [r for r in rels if any(r)])
    imgs = []
    for j in range(u.dim):
        combo = lift.column(j)
        v = self.ambient.zero()
        for c, g in zip(combo, ugens):
            v = self.ambient.add(v, self.ambient.scale(c, g))
        imgs.append(v)
    return u, GroupHom(u, self.ambient, tuple(imgs))


def reference_apply_gp(self, x):
    src = self.source
    cols = [list(g) for g in src.generators] + \
           [list(c) for c in src.ambient.relation_columns()]
    m = IntMatrix.from_columns(cols, nrows=src.ambient.dim) if cols \
        else IntMatrix.zero(src.ambient.dim, 0)
    x = self.source.ambient.reduce(x)
    sol = solve_integer(m, x)
    if sol is None:
        return None
    n = len(self.source.generators)
    out = self.target.ambient.zero()
    for c, img in zip(sol[:n], self.images):
        out = self.target.ambient.add(out, self.target.ambient.scale(c, img))
    return out


def _lam_value(lam, x):
    return sum(l * v for l, v in zip(lam, x))


def reference_member_with_certificate(self, g):
    """(True, multiplicity vector over the generators) or (False, None).

    Only valid for sharp monoids, where the search is directly bounded.
    """
    if self.unit_indices():
        raise ValueError("certificates require a sharp monoid")
    g = self.ambient.reduce(g)
    n = len(self.generators)
    if not any(g):
        return True, (0,) * n
    lam = self._positive_functional()
    sub = self.ambient.reduced_sub()
    gens = self.generators
    lgs = [_lam_value(lam, gvec) for gvec in gens]

    def rec(t, idx, acc):
        if not any(t):
            return acc + (0,) * (n - len(acc))
        if idx == n:
            return None
        lt = _lam_value(lam, t)
        if lt < 0:
            return None
        gvec, lg = gens[idx], lgs[idx]
        top = lt // lg if lg > 0 else 0
        cur = t
        for k in range(top + 1):
            out = rec(cur, idx + 1, acc + (k,))
            if out is not None:
                return out
            cur = sub(cur, gvec)
        return None

    out = rec(g, 0, ())
    return (True, out) if out is not None else (False, None)


def reference_preimage_in_source(hom, d):
    """Find q in the source monoid with h(q) = d, or None.

    Works through the image monoid: certificate in its sharp quotient plus an
    exact expression of the unit part over the unit image generators.
    """
    src = hom.source
    tgt_amb = hom.target.ambient
    d = tgt_amb.reduce(d)
    img_mon = FineMonoid(tgt_amb, hom.images)
    if not img_mon.member(d):
        return None
    proj, sharp = img_mon._sharp_data()
    mult = sharp.nonneg_certificate(proj.apply(d))
    if mult is None:
        return None
    q = src.ambient.zero()
    acc = tgt_amb.zero()
    for g, k in zip(sharp.generators, mult):
        if k == 0:
            continue
        for i, v in enumerate(hom.images):
            if proj.apply(v) == g and not tgt_amb.is_zero(v):
                q = src.ambient.add(q, src.ambient.scale(k, src.generators[i]))
                acc = tgt_amb.add(acc, tgt_amb.scale(k, v))
                break
        else:
            raise AssertionError("image certificate does not match a generator")
    u = tgt_amb.sub(d, acc)  # a unit of the image monoid
    if tgt_amb.is_zero(u):
        return q
    unit_vals, unit_src_idx = [], []
    for j in sorted(img_mon.unit_indices()):
        v = img_mon.generators[j]
        unit_vals.append(v)
        for i, w in enumerate(hom.images):
            if w == v:
                unit_src_idx.append(i)
                break
    cols = [list(v) for v in unit_vals] + \
           [list(c) for c in tgt_amb.relation_columns()]
    if not cols:
        return None
    m = IntMatrix.from_columns(cols, nrows=tgt_amb.dim)
    sol = solve_integer(m, u)
    if sol is None:
        return None
    c = list(sol[:len(unit_vals)])
    if any(x < 0 for x in c):
        z = _positive_unit_relation(img_mon)
        zu = [z[j] for j in sorted(img_mon.unit_indices())]
        t = 0
        for x, zv in zip(c, zu):
            if x < 0:
                if zv == 0:
                    return None
                t = max(t, (-x + zv - 1) // zv)
        c = [x + t * zv for x, zv in zip(c, zu)]
    for x, i in zip(c, unit_src_idx):
        q = src.ambient.add(q, src.ambient.scale(x, src.generators[i]))
    return q


def reference_pushout_generators(h1, h2):
    """(ambient, generators of P1, generators of P2) of the old
    ``monoid_pushout``."""
    a1, a2 = h1.target.ambient, h2.target.ambient
    total, (j1, j2), _ = direct_sum([a1, a2])
    q = h1.source
    cols = []
    for g in q.generators:
        v1 = reference_apply_gp(h1, g)
        v2 = reference_apply_gp(h2, g)
        cols.append(total.sub(j1.apply(v1), j2.apply(v2)))
    free_src = FgAbGroup.free(len(cols)) if cols else FgAbGroup.zero_group()
    hom = GroupHom(free_src, total, tuple(cols))
    _, proj = hom.cokernel()
    return (proj.target,
            [proj.apply(j1.apply(g)) for g in h1.target.generators],
            [proj.apply(j2.apply(g)) for g in h2.target.generators])


def reference_base_change(m, h):
    """(ambient, generators, action images) of the old ``base_change`` of an
    embedded module."""
    p = h.target
    total, (jm, jp), _ = direct_sum([m.ambient, p.ambient])
    cols = []
    for qg in m.owner.generators:
        am = m.action_apply(qg)
        ap = reference_apply_gp(h, qg)
        cols.append(total.sub(jm.apply(am), jp.apply(ap)))
    free_src = FgAbGroup.free(len(cols)) if cols else FgAbGroup.zero_group()
    hom = GroupHom(free_src, total, tuple(cols))
    _, proj = hom.cokernel()
    gens = [(proj.apply(jm.apply(g)), c) for g, c in m.generators]
    act_imgs = [proj.apply(jp.apply(g)) for g in p.generators]
    return proj.target, gens, act_imgs


# -- random monoids and homs ------------------------------------------------------


def _vectors(amb, lo, hi):
    return st.tuples(*[st.integers(lo, hi)] * amb.rank,
                     *[st.integers(0, d - 1) for d in amb.torsion])


@st.composite
def monoids(draw):
    """Monoids in Z^rank (+) torsion: some sharp, some with units (a
    generator and its negative), some with torsion in the ambient group."""
    rank = draw(st.integers(1, 2))
    torsion = draw(st.sampled_from([(), (2,), (3,), (2, 4)]))
    amb = FgAbGroup(rank, torsion)
    gens = draw(st.lists(_vectors(amb, -2, 3), min_size=1, max_size=4))
    if draw(st.booleans()):
        gens.append(tuple(-x for x in draw(st.sampled_from(gens))))
    return FineMonoid(amb, gens)


def _combination(draw, mon, top=2):
    amb = mon.ambient
    out = amb.zero()
    for g in mon.generators:
        out = amb.add(out, amb.scale(draw(st.integers(0, top)), g))
    return out


@st.composite
def homs(draw):
    """A hom into a random monoid P: from N^k onto elements of P, from a
    submonoid of P generated by elements of P (its inclusion), or the
    sharpening of P."""
    p = draw(monoids())
    shape = draw(st.sampled_from(["free", "inclusion", "sharpening"]))
    if shape == "sharpening":
        return p.sharpening()[2]
    imgs = [_combination(draw, p) for _ in range(draw(st.integers(1, 3)))]
    if p.generators and draw(st.booleans()):  # units of P in the image
        g = draw(st.sampled_from(p.generators))
        p = FineMonoid(p.ambient, p.generators + (p.ambient.neg(g),))
        imgs += [g, p.ambient.neg(g)]
    if shape == "free":  # with two source generators on one image
        imgs.append(draw(st.sampled_from(imgs)))
        return MonoidHom(nat_monoid(len(imgs)), p, imgs)
    q = FineMonoid(p.ambient, imgs + [g for g in p.generators
                                      if draw(st.booleans())])
    return MonoidHom(q, p, q.generators)


def _targets(draw, amb, count):
    return [amb.reduce(draw(_vectors(amb, -4, 4))) for _ in range(count)]


# -- the layer against the references ---------------------------------------------


@settings(max_examples=80, deadline=None)
@given(monoids())
def test_lattices_and_subgroups_match_reference(mon):
    lattice = mon.relation_lattice()
    assert lattice == reference_relation_lattice(mon)
    h, incl, lift = mon.generator_hom().image()
    g, ref_incl = reference_span_group(mon)
    assert (h, incl.images) == (g, ref_incl.images)
    assert (h, lift) == reference_span_with_lift(mon)
    assert mon.unit_group()[1].images == reference_unit_group(mon)[1].images
    sub, sub_incl, _ = GroupHom(FgAbGroup.free(len(mon.generators)),
                                mon.ambient, mon.generators).image()
    ref_sub, ref_sub_incl = reference_subgroup(mon.ambient, mon.generators)
    assert (sub, sub_incl.images) == (ref_sub, ref_sub_incl.images)


@settings(max_examples=80, deadline=None)
@given(monoids(), st.data())
def test_certificates_match_reference(mon, data):
    sharp = mon._sharp_data()[1]
    for t in _targets(data.draw, sharp.ambient, 6) + [
            _combination(data.draw, sharp)]:
        mult = sharp.nonneg_certificate(t)
        assert (mult is not None, mult) == \
            reference_member_with_certificate(sharp, t)


@settings(max_examples=60, deadline=None)
@given(homs(), st.data())
def test_preimages_and_groupification_match_reference(h, data):
    amb = h.target.ambient
    img = FineMonoid(amb, h.images)
    for d in _targets(data.draw, amb, 4) + [_combination(data.draw, img)]:
        assert _preimage_in_source(h, d) == reference_preimage_in_source(h, d)
    for x in _targets(data.draw, h.source.ambient, 3) + list(
            h.source.generators):
        assert h.apply_gp(x) == reference_apply_gp(h, x)


@settings(max_examples=40, deadline=None)
@given(homs(), st.data())
def test_pushout_and_base_change_match_reference(h, data):
    q = h.source
    other = data.draw(st.sampled_from(
        [h, q.sharpening()[2], MonoidHom.identity(q)]))
    pout, in1, in2 = monoid_pushout(h, other)
    amb, gens1, gens2 = reference_pushout_generators(h, other)
    assert pout.ambient == amb
    assert (list(in1.images), list(in2.images)) == (gens1, gens2)
    assert pout.generators == FineMonoid(amb, gens1 + gens2).generators

    m = monmod.PModule.embedded(q, [(g, 0) for g in _targets(
        data.draw, q.ambient, 2)])
    bc = monmod.base_change(m, h)
    amb, gens, act = reference_base_change(m, h)
    assert (bc.ambient, bc._raw_generators, list(bc.action.images)) == \
        (amb, tuple(dict.fromkeys(gens)), act)


def test_empty_systems_match_the_smith_form_path():
    """``from_relations`` and ``solve_integer`` answer a system with no
    columns without a Smith normal form; the answers are the ones it gave."""
    for n in range(4):
        u, _, _, _ = smith_normal_form(IntMatrix.zero(n, 0))
        assert u == IntMatrix.identity(n)
        assert FgAbGroup.from_relations(n, []) == \
            (FgAbGroup.free(n), u, u)
        assert solve_integer(IntMatrix.zero(n, 0), (0,) * n) == ()
        if n:
            assert solve_integer(IntMatrix.zero(n, 0), (0,) * (n - 1) + (1,)) \
                is None


# -- the stacked system stays behind abgrp ---------------------------------------


FORBIDDEN = {"relation_columns", "solve_integer", "integer_kernel",
             "lattice_contains"}


def _forbidden_calls(path):
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else \
                getattr(f, "id", None)
            if name in FORBIDDEN:
                out.append(f"{path.name}:{node.lineno} {name}")
    return out


def test_only_abgrp_builds_stacked_systems():
    src = Path(chart.__file__).parent
    assert _forbidden_calls(src / "abgrp.py")  # the walk sees such calls
    offenders = [c for path in sorted(src.glob("*.py"))
                 if path.name != "abgrp.py" for c in _forbidden_calls(path)]
    assert not offenders, offenders
