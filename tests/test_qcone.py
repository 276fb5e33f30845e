"""Fourier-Motzkin over primitive integer rows against the Fraction
elimination it replaced: the same point (or None on both sides) on random
systems, and a point that satisfies every constraint.  Double description
against brute force over the kernels of row subsets."""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from logflat import qcone
from logflat.abgrp import FgAbGroup
from logflat.monoid import FineMonoid
from logflat.polyalg import toric_ideal


# -- the Fraction elimination, kept as the reference ---------------------------


def reference_feasible_point(constraints, nvars):
    cons = [(tuple(Fraction(c) for c in coeffs), Fraction(rhs))
            for coeffs, rhs in constraints]
    return _reference_solve(cons, nvars)


def _reference_solve(cons, nvars):
    cons = list(dict.fromkeys(cons))
    if nvars == 0:
        for coeffs, rhs in cons:
            if rhs > 0:
                return None
        return ()
    k = nvars - 1
    pos, neg, rest = [], [], []
    for coeffs, rhs in cons:
        a = coeffs[k]
        if a > 0:
            pos.append((coeffs, rhs))
        elif a < 0:
            neg.append((coeffs, rhs))
        else:
            rest.append((coeffs[:k], rhs))
    projected = list(rest)
    for pc, pr in pos:
        for nc, nr in neg:
            a, b = pc[k], -nc[k]
            coeffs = tuple(b * pc[i] + a * nc[i] for i in range(k))
            projected.append((coeffs, b * pr + a * nr))
    inner = _reference_solve(projected, k)
    if inner is None:
        return None
    lo, hi = None, None
    for coeffs, rhs in pos:
        bound = (rhs - sum(c * x for c, x in zip(coeffs[:k], inner))) / coeffs[k]
        lo = bound if lo is None or bound > lo else lo
    for coeffs, rhs in neg:
        bound = (rhs - sum(c * x for c, x in zip(coeffs[:k], inner))) / coeffs[k]
        hi = bound if hi is None or bound < hi else hi
    if lo is None and hi is None:
        val = Fraction(0)
    elif lo is None:
        val = hi
    elif hi is None:
        val = lo
    else:
        val = (lo + hi) / 2
    return tuple(inner) + (val,)


# -- random systems ------------------------------------------------------------


@st.composite
def systems(draw):
    """(constraints, nvars): int and Fraction rows, positive multiples of
    earlier rows, and equality pairs (v >= 0, -v >= 0)."""
    nvars = draw(st.integers(0, 3))
    entry = st.one_of(st.integers(-3, 3),
                      st.fractions(min_value=-3, max_value=3,
                                   max_denominator=4))
    row = st.tuples(st.tuples(*[entry] * nvars), entry)
    cons = draw(st.lists(row, max_size=5))
    for coeffs, rhs in draw(st.lists(st.sampled_from(cons), max_size=2)
                            if cons else st.just([])):
        s = draw(st.sampled_from([Fraction(1, 3), 2, Fraction(5, 2), 6]))
        cons.append((tuple(s * c for c in coeffs), s * rhs))
    for _ in range(draw(st.integers(0, 2))):
        v = draw(st.tuples(*[st.integers(-2, 2)] * nvars))
        cons.append((v, 0))
        cons.append((tuple(-x for x in v), 0))
    order = draw(st.permutations(range(len(cons))))
    return [cons[i] for i in order], nvars


def _satisfies(point, constraints):
    return all(sum(Fraction(c) * x for c, x in zip(coeffs, point))
               >= Fraction(rhs) for coeffs, rhs in constraints)


@settings(max_examples=300, deadline=None)
@given(systems())
@example(([((1, 1), 2), ((-1, 0), -3), ((0, -2), -4)], 2))
@example(([((2, 0), 1), ((-4, 0), -2)], 2))
@example(([((Fraction(1, 2),), 1), ((3,), 2)], 1))
@example(([((0, 0), 1)], 2))
@example(([((1,), 0), ((-1,), 0), ((1,), 1)], 1))
def test_feasible_point_matches_fraction_reference(system):
    constraints, nvars = system
    got = qcone.feasible_point(constraints, nvars)
    want = reference_feasible_point(constraints, nvars)
    assert got == want
    if got is not None:
        assert all(type(x) is Fraction for x in got)
        assert len(got) == nvars
        assert _satisfies(got, constraints)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.just(d),
    st.lists(st.tuples(*[st.integers(-2, 2)] * d), max_size=4))))
def test_functionals_match_fraction_reference(case):
    dim, positive = case
    cons = [(v, 1) for v in positive]
    assert qcone.positive_functional(positive, dim) == \
        reference_feasible_point(cons, dim)


def test_nonneg_combination_system():
    system = qcone.nonneg_combination_system([(1, 2), (3, 4)], 1, 2)
    assert system == [((1, 3), 0), ((2, 4), 0), ((2, 4), 1)]


# -- dual_rays against brute force over (dim - 1)-subsets of rows --------------


def _det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:]
                                            for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _primitive(v):
    g = gcd(*v)
    return tuple(x // g for x in v)


def brute_force_rays(rows, dim):
    """Every kernel normal of dim - 1 rows, with either sign, that
    satisfies every row while its negation does not, made primitive.

    A one-dimensional kernel of dim - 1 rows is spanned by their signed
    maximal minors.  In a pointed cone every such normal lies on an extreme
    ray, and every extreme ray is cut out by dim - 1 independent rows; when
    the rows only span a hyperplane the two normals bound a line of the
    cone, not an extreme ray, and the negation test drops them."""
    # a positive scaling moves no half-space: work on integer rows
    rows = [tuple(int(x * lcm(*(Fraction(y).denominator for y in row)))
                  for x in row) for row in rows]
    found = set()
    for sub in combinations(rows, dim - 1) if dim else ():
        normal = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in sub])
                  for j in range(dim)]
        if not any(normal):
            continue
        for sign in (1, -1):
            v = [sign * x for x in normal]
            if all(sum(a * x for a, x in zip(r, v)) >= 0 for r in rows) and \
                    not all(sum(a * x for a, x in zip(r, v)) <= 0
                            for r in rows):
                found.add(_primitive(v))
    return found


@st.composite
def cone_rows(draw):
    """(rows, dim): int and Fraction rows, zero rows, positive multiples and
    negations of earlier rows."""
    dim = draw(st.integers(0, 4))
    entry = st.one_of(st.integers(-3, 3),
                      st.fractions(min_value=-3, max_value=3,
                                   max_denominator=3))
    rows = draw(st.lists(st.tuples(*[entry] * dim), max_size=7))
    if rows:
        for row in draw(st.lists(st.sampled_from(rows), max_size=2)):
            s = draw(st.sampled_from([Fraction(1, 2), 3, -1]))
            rows.append(tuple(s * x for x in row))
    return rows, dim


@settings(max_examples=200, deadline=None)
@given(cone_rows())
@example(([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3))
@example(([(1, 0, 1), (2, 0, 1), (3, 1, 1), (3, 2, 1), (2, 3, 1), (1, 3, 1),
           (0, 2, 1), (0, 1, 1)], 3))
@example(([(1, 0), (-1, 0), (0, 1)], 2))
@example(([(1, 1, 0), (1, -1, 0)], 3))
@example(([(1,), (-1,)], 1))
@example(([], 2))
def test_dual_rays_match_brute_force(case):
    rows, dim = case
    rays = qcone.dual_rays(rows, dim)
    assert rays == sorted(set(rays))
    assert set(rays) == brute_force_rays(rows, dim)


@given(st.lists(st.one_of(st.integers(-20, 20),
                          st.fractions(max_denominator=12)), max_size=6))
def test_clear_denominators(values):
    ints = qcone.clear_denominators(values)
    assert all(type(x) is int for x in ints)
    # the least common denominator, as the loops it replaced computed it
    den = 1
    for v in values:
        d = Fraction(v).denominator
        den = den * d // gcd(den, d)
    assert ints == [int(v * den) for v in values]


# Presentations from the denominator loop that toric_ideal had before
# clear_denominators; the second monoid has functional (2/3, 1/3) and
# weights (3, 3, 5, 7).
TORIC_CASES = [
    (2, [(2, 1), (1, 3), (3, 2), (1, 1)],
     ["z0*z3 - z2", "z3^5 - z0^2*z1", "z2*z3^4 - z0^3*z1",
      "z0^4*z1 - z2^2*z3^3"]),
    (2, [(2, -1), (1, 1), (1, 3), (3, 1)],
     ["z0^2*z2^2 - z1^3*z3", "z0^2*z1*z2 - z3^2", "z1^4 - z2*z3"]),
    (3, [(3, 1, 0), (1, 2, 1), (0, 1, 2), (2, 2, 3)],
     ["z0^5*z2^11 - z1*z3^7"]),
]


@pytest.mark.parametrize("rank,gens,want", TORIC_CASES)
def test_toric_ideal_unchanged(rank, gens, want):
    pres, degrees = toric_ideal(FineMonoid(FgAbGroup.free(rank), gens))
    assert [pres.ring.to_str(g) for g in pres.ideal] == want
    assert list(degrees) == gens
