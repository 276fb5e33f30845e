"""Exact rational linear feasibility by Fourier-Motzkin elimination.

Small systems only (the monoid layer keeps generator counts in single
digits).  Constraints are pairs (coeffs, rhs) meaning  sum coeffs*x >= rhs,
with int or Fraction entries.  Each constraint is kept as one primitive
integer row (a_0, ..., a_{n-1}, b): denominators cleared, then divided by
the gcd of its entries.  A positive scaling changes neither the half-space
nor, up to another positive scaling, any row it is combined into, so rows
that are positive multiples of each other coincide and are dropped, and
every bound of the back-substitution is the one of the rational system.
Only the returned point is rational.
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


def face_functional(zero_vectors, positive_vectors, dim):
    """lambda vanishing on the first family, >= 1 on the second, or None."""
    cons = []
    for v in zero_vectors:
        cons.append((v, 0))
        cons.append((tuple(-x for x in v), 0))
    for v in positive_vectors:
        cons.append((v, 1))
    return feasible_point(cons, dim)


def nonneg_combination_system(basis_cols, i, n):
    """Constraints on c, over the k = len(basis_cols) columns of the n-row
    matrix B, saying (B c)_j >= 0 for all j and (B c)_i >= 1."""
    rows = [tuple(col[j] for col in basis_cols) for j in range(n)]
    return [(row, 0) for row in rows] + [(rows[i], 1)]


def nonneg_combination_hits(basis_cols, i, n):
    """Whether some c has (B c)_j >= 0 for all j and (B c)_i >= 1, for the
    n-row matrix B given by columns.  Rational feasibility suffices: the
    column span is a lattice, so solutions scale to integer ones."""
    if not basis_cols:
        return False
    cons = nonneg_combination_system(basis_cols, i, n)
    return feasible_point(cons, len(basis_cols)) is not None
