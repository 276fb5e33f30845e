"""Exact rational polyhedral cones over primitive integer rows.

Three routines, for small systems only (the monoid layer keeps generator
counts in single digits):

- ``feasible_point``: rational linear feasibility by Fourier-Motzkin
  elimination.  Constraints are pairs (coeffs, rhs) meaning
  sum coeffs*x >= rhs, with int or Fraction entries.
- ``dual_states``: the cone {lam : row . lam >= 0} after each row, as
  lineality and rays, by the double description method (Motzkin, Raiffa,
  Thompson & Thrall 1953; Fukuda & Prodon, "Double description method
  revisited", 1996); ``dual_rays`` is its last state when that is pointed.
  With the generators of a full-dimensional cone as rows, these rays are
  the inner facet normals of that cone.

Each row is kept as one primitive integer row: denominators cleared, then
divided by the gcd of its entries.  A positive scaling changes neither the
half-space nor, up to another positive scaling, any row it is combined into,
so rows that are positive multiples of each other coincide and are dropped,
and every bound of the back-substitution is the one of the rational system.
Only the point ``feasible_point`` returns is rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def clear_denominators(values):
    """The integers d*v for the least d >= 1 making every int or Fraction v
    integral."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values]


def _primitive(row):
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else tuple(row)


def _norm(con):
    coeffs, rhs = con
    return _primitive(clear_denominators([*coeffs, rhs]))


def feasible_point(constraints, nvars):
    """A rational point satisfying all constraints, or None."""
    return _solve([_norm(c) for c in constraints], nvars)


def _solve(rows, nvars):
    rows = list(dict.fromkeys(rows))
    if nvars == 0:
        for row in rows:
            if row[-1] > 0:
                return None
        return ()
    k = nvars - 1
    pos, neg, projected = [], [], []
    for row in rows:
        a = row[k]
        if a > 0:
            pos.append(row)
        elif a < 0:
            neg.append(row)
        else:
            projected.append(row[:k] + row[-1:])
    for p in pos:
        a = p[k]
        pk = p[:k] + p[-1:]
        for q in neg:
            b = -q[k]
            # b*(p >= .) + a*(q >= .), variable k cancels
            projected.append(_primitive(
                [b * x + a * y for x, y in zip(pk, q[:k] + q[-1:])]))
    inner = _solve(projected, k)
    if inner is None:
        return None
    lo, hi = None, None
    for row in pos:
        bound = Fraction(row[-1] - sum(c * x for c, x in zip(row, inner)),
                         row[k])
        lo = bound if lo is None or bound > lo else lo
    for row in neg:
        bound = Fraction(row[-1] - sum(c * x for c, x in zip(row, inner)),
                         row[k])
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


def positive_functional(vectors, dim):
    """lambda with lambda . v >= 1 for every v, or None (0 in the convex hull)."""
    cons = [(v, 1) for v in vectors]
    return feasible_point(cons, dim)


def nonneg_combination_system(basis_cols, i, n):
    """Constraints on c, over the k = len(basis_cols) columns of the n-row
    matrix B, saying (B c)_j >= 0 for all j and (B c)_i >= 1."""
    rows = [tuple(col[j] for col in basis_cols) for j in range(n)]
    return [(row, 0) for row in rows] + [(rows[i], 1)]


def _dot(a, x):
    return sum(u * v for u, v in zip(a, x))


def dual_states(rows, dim):
    """The cone {lam in Q^dim : row . lam >= 0 for every row seen so far},
    yielded once per input row as (lineality, rays): the cone is the span
    of the lineality vectors plus the cone of the primitive integer rays,
    which are extreme modulo the lineality.  Rows have int or Fraction
    entries; a zero row, or a positive multiple of an earlier one, repeats
    the previous state.  Fed the generators of a cone in reverse order, the
    k-th state is the dual cone of the last k generators.

    Double description: start from the whole space, spanned by a lineality
    basis, and cut by one row at a time.  A row that some lineality vector
    does not vanish on turns that vector into a ray and is made to vanish
    on the rest.  Otherwise the new rays are the old ones on the row's
    side plus one positive combination, on the row's hyperplane, of each
    pair of adjacent rays on opposite sides.  Two rays are adjacent when no
    third ray vanishes on every row both vanish on (the combinatorial test;
    such rows must number at least the pointed dimension minus 2)."""
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays = []  # (primitive vector, bitmask of the processed rows it zeroes)
    seen = set()
    for row in rows:
        a = _primitive(clear_denominators(row))
        if any(a) and a not in seen:
            bit = 1 << len(seen)
            seen.add(a)
            lineality, rays = _cut(a, bit, dim, lineality, rays)
        yield tuple(lineality), [r for r, _ in rays]


def _cut(a, bit, dim, lineality, rays):
    """One double-description step: the state cut by the row a >= 0."""
    vals = [_dot(a, v) for v in lineality]
    t = next((i for i, s in enumerate(vals) if s), None)
    if t is not None:
        line, s = lineality.pop(t), vals.pop(t)
        if s < 0:
            line, s = tuple(-x for x in line), -s
        lineality = [_primitive([s * x - u * y for x, y in zip(v, line)])
                     for v, u in zip(lineality, vals)]
        rays = [(_primitive([s * x - _dot(a, r) * y
                             for x, y in zip(r, line)]), z | bit)
                for r, z in rays]
        rays.append((line, bit - 1))
        return lineality, rays
    need = dim - len(lineality) - 2
    side = [_dot(a, r) for r, _ in rays]
    kept = [(r, z | bit if v == 0 else z)
            for (r, z), v in zip(rays, side) if v >= 0]
    for i, (p, zp) in enumerate(rays):
        if side[i] <= 0:
            continue
        for j, (q, zq) in enumerate(rays):
            if side[j] >= 0:
                continue
            common = zp & zq
            if common.bit_count() < need or any(
                    z & common == common
                    for m, (_, z) in enumerate(rays) if m != i and m != j):
                continue
            kept.append((_primitive([side[i] * y - side[j] * x
                                     for x, y in zip(p, q)]),
                         common | bit))
    return lineality, kept


def dual_rays(rows, dim):
    """The primitive integer extreme rays of {lam in Q^dim : row . lam >= 0
    for every row}, sorted: the rays of the last ``dual_states`` state.
    When the rows do not span Q^dim the cone contains a line and has no
    extreme rays, so the result is empty."""
    pointed, rays = dim == 0, []  # before any row: the whole space
    for lineality, rays in dual_states(rows, dim):
        pointed = not lineality
    return sorted(rays) if pointed else []
