"""Membership searches over the positive integer functional (the sum of the
dual rays of the sharp generators), against copies of the searches over a
rational functional they replaced, against a copy of the search before it
was pruned by the dual cones of the generator suffixes, and against
brute-force enumeration of the monoid."""

import sys
from itertools import product
from math import prod

from hypothesis import assume, given, settings, strategies as st

from logflat import monmod, monoid, qcone
from logflat.abgrp import FgAbGroup
from logflat.monoid import FineMonoid, _lam_value

from brute_force import elements_up_to
from test_monoid import embedded_monoids


# -- the Fraction-functional searches, kept as references ----------------------


def _lam(lam, x, rank):
    return sum(l * v for l, v in zip(lam, x[:rank]))


def reference_member(mon, g):
    g = mon.ambient.reduce(g)
    if mon.ambient.is_zero(g):
        return True
    proj, sharp = mon._sharp_data()
    amb, rank = sharp.ambient, sharp.ambient.rank
    lam = mon._positive_functional()
    gens = sorted(set(sharp.generators))
    memo = {}

    def rec(t, idx):
        if all(x == 0 for x in t):
            return True
        if idx == len(gens):
            return False
        key = (t, idx)
        if key in memo:
            return memo[key]
        lt = _lam(lam, t, rank)
        res = False
        if lt >= 0:
            g = gens[idx]
            lg = _lam(lam, g, rank)
            top = int(lt / lg) if lg > 0 else 0
            cur = t
            for k in range(top + 1):
                if rec(cur, idx + 1):
                    res = True
                    break
                cur = amb.sub(cur, g)
        memo[key] = res
        return res

    return rec(amb.reduce(proj.apply(g)), 0)


def reference_certificate(mon, g):
    g = mon.ambient.reduce(g)
    n = len(mon.generators)
    if mon.ambient.is_zero(g):
        return True, (0,) * n
    lam = mon._positive_functional()
    amb, rank = mon.ambient, mon.ambient.rank

    def rec(t, idx, acc):
        if all(x == 0 for x in t):
            return acc + (0,) * (n - len(acc))
        if idx == n:
            return None
        lt = _lam(lam, t, rank)
        if lt < 0:
            return None
        gvec = mon.generators[idx]
        lg = _lam(lam, gvec, rank)
        top = int(lt / lg) if lg > 0 else 0
        cur = t
        for k in range(top + 1):
            out = rec(cur, idx + 1, acc + (k,))
            if out is not None:
                return out
            cur = amb.sub(cur, gvec)
        return None

    out = rec(g, 0, ())
    return (True, out) if out is not None else (False, None)


def reference_common_lower_bound(m, t1, t2, comp):
    amb = m.ambient
    mon = m.action_image_monoid()
    proj, sharp = mon._sharp_data()
    lam = mon._positive_functional()
    rank = sharp.ambient.rank

    def lam_of(y):
        return _lam(lam, proj.apply(y), rank)

    nonunit = [mon.generators[i] for i in range(len(mon.generators))
               if i not in mon.unit_indices()]
    for g, c in m.generators:
        if c != comp:
            continue
        budget = min(lam_of(amb.sub(t1, g)), lam_of(amb.sub(t2, g)))
        if budget < 0:
            continue
        seen, stack = set(), [amb.zero()]
        while stack:
            w = stack.pop()
            if w in seen:
                continue
            seen.add(w)
            x = amb.add(g, w)
            if reference_member(mon, amb.sub(t1, x)) and \
                    reference_member(mon, amb.sub(t2, x)):
                return x
            for ng in nonunit:
                w2 = amb.add(w, ng)
                if w2 not in seen and lam_of(w2) <= budget:
                    stack.append(w2)
    return None


# -- the search before the suffix-cone cut, kept as a reference ----------------


def unpruned_bounded_search(amb, lam, gens, target):
    """A multiplicity vector over ``gens`` expressing the reduced element
    ``target`` of ``amb``, or None.  Depth first, each generator in order
    and taken as often as the functional ``lam`` allows; the first vector
    found is returned at once, so only failed subsearches are memoized."""
    sub = amb.reduced_sub()
    lgs = [_lam_value(lam, g) for g in gens]
    n = len(gens)
    failed = set()

    def rec(t, idx):
        if not any(t):
            return (0,) * (n - idx)
        if idx == n or (t, idx) in failed:
            return None
        lt = _lam_value(lam, t)
        if lt >= 0:
            g, lg = gens[idx], lgs[idx]
            top = lt // lg if lg > 0 else 0
            cur = t
            for k in range(top + 1):
                rest = rec(cur, idx + 1)
                if rest is not None:
                    return (k,) + rest
                cur = sub(cur, g)
        failed.add((t, idx))
        return None

    return rec(target, 0)


def unpruned_member(mon, g):
    g = mon.ambient.reduce(g)
    if not any(g):
        return True
    proj, sharp = mon._sharp_data()
    gens = sorted(set(sharp.generators))
    return unpruned_bounded_search(sharp.ambient, mon._positive_functional(),
                                   gens, proj.apply(g)) is not None


def unpruned_certificate(mon, g):
    out = unpruned_bounded_search(mon.ambient, mon._positive_functional(),
                                  mon.generators, mon.ambient.reduce(g))
    return (True, out) if out is not None else (False, None)


# -- random small monoids -----------------------------------------------------


@st.composite
def monoids(draw):
    """Monoids in Z^rank (+) torsion: some sharp, some with units (a generator
    and its negative), some with torsion in the ambient group, some with a
    generator repeated or repeated up to a positive multiple.  In rank 3
    the cones of the generator suffixes are proper."""
    rank = draw(st.integers(1, 3))
    torsion = draw(st.sampled_from([(), (2,), (3,), (2, 4)]))
    amb = FgAbGroup(rank, torsion)
    vec = st.tuples(*[st.integers(-2, 3)] * rank,
                    *[st.integers(0, d - 1) for d in torsion])
    gens = draw(st.lists(vec, min_size=1, max_size=4))
    for scale in draw(st.lists(st.sampled_from([1, 2]), max_size=2)):
        gens.insert(draw(st.integers(0, len(gens))),
                    tuple(scale * x for x in draw(st.sampled_from(gens))))
    if draw(st.booleans()):
        gens.append(tuple(-x for x in draw(st.sampled_from(gens))))
    return FineMonoid(amb, gens)


def _targets(draw, mon, count):
    amb = mon.ambient
    vec = st.tuples(*[st.integers(-4, 4)] * amb.rank,
                    *[st.integers(0, d - 1) for d in amb.torsion])
    return [amb.reduce(draw(vec)) for _ in range(count)]


@settings(max_examples=80, deadline=None)
@given(monoids(), st.data())
def test_member_matches_fraction_reference(mon, data):
    for t in _targets(data.draw, mon, 8):
        assert mon.member(t) == reference_member(mon, t)


@settings(max_examples=80, deadline=None)
@given(monoids(), st.data())
def test_certificate_matches_fraction_reference(mon, data):
    assume(mon.is_sharp())
    amb = mon.ambient
    for t in _targets(data.draw, mon, 8):
        mult = mon.nonneg_certificate(t)
        assert (mult is not None, mult) == reference_certificate(mon, t)
        if mult is not None:
            total = amb.zero()
            for k, g in zip(mult, mon.generators):
                total = amb.add(total, amb.scale(k, g))
            assert total == t


@settings(max_examples=80, deadline=None)
@given(monoids(), st.data())
def test_member_matches_unpruned_search(mon, data):
    for t in _targets(data.draw, mon, 8):
        assert mon.member(t) == unpruned_member(mon, t)


@settings(max_examples=80, deadline=None)
@given(monoids(), st.data())
def test_certificate_matches_unpruned_search(mon, data):
    assume(mon.is_sharp())
    for t in _targets(data.draw, mon, 8):
        mult = mon.nonneg_certificate(t)
        assert (mult is not None, mult) == unpruned_certificate(mon, t)


@settings(max_examples=60, deadline=None)
@given(monoids(), st.data())
def test_common_lower_bound_matches_fraction_reference(mon, data):
    gens = _targets(data.draw, mon, 2)
    m = monmod.PModule.embedded(mon, [(g, 0) for g in gens])
    comp = m.generators[0][1]
    for t1, t2 in zip(_targets(data.draw, mon, 3), _targets(data.draw, mon, 3)):
        assert monmod._common_lower_bound(m, t1, t2, comp) == \
            reference_common_lower_bound(m, t1, t2, comp)


@settings(max_examples=60, deadline=None)
@given(monoids(), st.data())
def test_member_matches_enumeration(mon, data):
    """In a sharp monoid every generator has lam >= 1, so g in P needs at
    most lam(g) generators: enumerating that many decides membership."""
    assume(mon.is_sharp())
    lam = mon._positive_functional()
    rank = mon.ambient.rank
    bounded = [t for t in _targets(data.draw, mon, 8)
               if _lam(lam, t, rank) <= 10]
    if not bounded:
        return
    depth = max(0, max(int(_lam(lam, t, rank)) for t in bounded))
    elements = set(elements_up_to(mon, depth))
    for t in bounded:
        assert mon.member(t) == (t in elements)


@settings(max_examples=150, deadline=None)
@given(st.one_of(monoids(), embedded_monoids()))
def test_positive_functional_is_integral_and_positive(mon):
    """The sum of the dual rays is an integer functional, >= 1 on every
    sharp generator, computed from the cones the searches read."""
    _, sharp = mon._sharp_data()
    lam = mon._positive_functional()
    assert len(lam) == sharp.ambient.rank
    assert all(type(x) is int for x in lam)
    assert all(_lam_value(lam, g) >= 1 for g in sharp.generators)


@st.composite
def sharp_monoids(draw):
    """Monoids in Z^rank (+) torsion with every generator on the positive
    side of a random functional w, so that the monoid is sharp."""
    rank = draw(st.integers(1, 3))
    torsion = draw(st.sampled_from([(), (2,), (3,), (2, 4)]))
    w = draw(st.tuples(*[st.integers(-2, 2)] * rank).filter(any))
    vec = st.tuples(*[st.integers(-2, 2)] * rank,
                    *[st.integers(0, d - 1) for d in torsion])
    gens = []
    for g in draw(st.lists(vec, min_size=1, max_size=4)):
        side = _lam_value(w, g)
        if side:
            gens.append(g if side > 0 else
                        tuple(-x for x in g[:rank]) + g[rank:])
    assume(gens)
    return FineMonoid(FgAbGroup(rank, torsion), gens)


def _lex_first_in_box(mon, t, tops):
    """The lexicographically first vector in the box prod [0, tops[i]]
    whose combination of the generators is t, or None."""
    amb = mon.ambient
    for mult in product(*[range(top + 1) for top in tops]):
        total = amb.zero()
        for k, g in zip(mult, mon.generators):
            total = amb.add(total, amb.scale(k, g))
        if total == t:
            return mult
    return None


@settings(max_examples=60, deadline=None)
@given(sharp_monoids(), st.data())
def test_certificate_is_lexicographically_first(mon, data):
    """The certificate does not depend on the functional that bounds the
    search: it is the first nonnegative vector in lexicographic order.
    Every such vector v has v_i * lam(g_i) <= lam(t), so the box with those
    sides holds them all."""
    assert mon.is_sharp()
    lam = mon._positive_functional()
    amb = mon.ambient
    targets = _targets(data.draw, mon, 4)
    for _ in range(4):
        t = amb.zero()
        for g in mon.generators:
            t = amb.add(t, amb.scale(data.draw(st.integers(0, 2)), g))
        targets.append(t)
    for t in targets:
        lt = _lam_value(lam, t)
        tops = [lt // _lam_value(lam, g) if lt >= 0 else -1
                for g in mon.generators]
        if prod(top + 1 for top in tops) > 4000:
            continue
        want = _lex_first_in_box(mon, t, tops)
        assert mon.nonneg_certificate(t) == want


# -- the cut at work: search calls on the cone over the benchmark 8-gon --------


OCTAGON = [(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1)]


def _count_rec_calls(fn):
    """(fn(), number of calls of the search's inner ``rec``)."""
    calls = 0
    code_file = monoid.__file__

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "rec" and \
                frame.f_code.co_filename == code_file:
            calls += 1

    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, calls


def test_octagon_membership_search_calls():
    """Every point of the box the benchmark draws its 8-gon membership
    targets from: 7 x 7 points around the centre of each degree 1..5.  The
    unpruned search made 62,919 ``rec`` calls here and the pruned one
    3,001; the bound leaves a third of headroom."""
    n = len(OCTAGON)
    cx = sum(x for x, _ in OCTAGON) / n
    cy = sum(y for _, y in OCTAGON) / n
    targets = [(round(d * cx) + dx, round(d * cy) + dy, d)
               for d in range(1, 6)
               for dx in range(-3, 4) for dy in range(-3, 4)]
    level = [{(0, 0)}]
    for _ in range(5):
        level.append({(s[0] + x, s[1] + y) for s in level[-1]
                      for x, y in OCTAGON})
    p = FineMonoid(FgAbGroup.free(3), [(x, y, 1) for x, y in OCTAGON])
    verdicts, calls = _count_rec_calls(lambda: [p.member(t) for t in targets])
    assert verdicts == [(x, y) in level[d] for x, y, d in targets]
    assert calls <= 4000


def test_one_double_description_run_per_sharp_monoid(monkeypatch):
    """Units, faces and the membership search of a sharp monoid whose
    generators are out of sorted order all read one dual cone run."""
    runs = []
    real = qcone.dual_states

    def counted(rows, rank):
        runs.append(rows)
        return real(rows, rank)

    monkeypatch.setattr(qcone, "dual_states", counted)
    p = FineMonoid(FgAbGroup.free(3), [(x, y, 1) for x, y in OCTAGON[::-1]])
    assert p.is_sharp()
    assert len(p.faces()) == 2 * len(OCTAGON) + 2
    assert p.member((3, 3, 2)) == ((3, 3) in {(a[0] + b[0], a[1] + b[1])
                                              for a in OCTAGON
                                              for b in OCTAGON})
    assert len(runs) == 1
