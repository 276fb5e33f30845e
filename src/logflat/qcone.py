"""Exact rational polyhedral cones over primitive integer rows, by one
engine: the double description method (Motzkin, Raiffa, Thompson & Thrall
1953; Fukuda & Prodon, "Double description method revisited", 1996).
Small systems only (the monoid layer keeps generator counts in single
digits).

- ``dual_states``: the cone {lam : row . lam >= 0} after each row, as
  lineality and rays.  With the generators of a full-dimensional cone as
  rows, the rays of the last state are the inner facet normals of that
  cone.
- ``feasible_point``: rational linear feasibility, read off the rays of
  one homogenised cone.  Constraints are pairs (coeffs, rhs) meaning
  sum coeffs*x >= rhs, with int or Fraction entries.

Each row is kept as one primitive integer row: denominators cleared, then
divided by the gcd of its entries.  A positive scaling changes neither the
half-space nor, up to another positive scaling, any row it is combined into,
so rows that are positive multiples of each other coincide and are dropped.
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


def feasible_point(constraints, nvars):
    """A rational point x with sum coeffs*x >= rhs for every constraint
    (coeffs, rhs), or None.

    One ``dual_states`` run on the homogenised cone of the pairs (x, s)
    with coeffs . x - rhs*s >= 0 and s >= 0: the system is feasible exactly
    when that cone holds a vector with s > 0, and then x/s is a point.  The
    row s >= 0 puts the lineality into s = 0, so such a vector exists when
    some ray has s > 0, and the sum of those rays is one."""
    rows = [(0,) * nvars + (1,)]
    rows += [(*coeffs, -rhs) for coeffs, rhs in constraints]
    *_, (_, rays) = dual_states(rows, nvars + 1)
    total = [sum(col) for col in zip(*(r for r in rays if r[-1] > 0))]
    if not total:
        return None
    return tuple(Fraction(x, total[-1]) for x in total[:-1])
