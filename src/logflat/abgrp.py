"""Exact linear algebra over the integers for finitely generated abelian groups.

Groups are kept in the canonical form  Z^rank  (+)  Z/d_1 (+) ... (+) Z/d_k
with d_1 | d_2 | ... | d_k and every d_i >= 2.  An element is a tuple of
integers: the first ``rank`` coordinates are free, the remaining ones are
torsion coordinates reduced into [0, d_i).

Everything here is built on one primitive: the Smith normal form with its
unimodular transforms and the inverse of the row transform, computed with
arbitrary-precision integers.  Every group that is built, a quotient,
kernel, image, direct sum, pushout, Hom, Ext^1 or extension, comes from
``FgAbGroup.from_relations``: the one Smith form of its relations gives the
canonical form and both coordinate maps.

This module is the integer-lattice layer of the package.  A list of elements
of a group G is the hom ``GroupHom(FgAbGroup.free(n), G, elements)``, and
only this module solves its stacked system [elements | relations of G]:
``preimage`` writes an element over the list, ``kernel_lattice`` gives the
relations among the list, ``image`` the subgroup it generates, and
``pushout`` glues two groups along pairs of elements.  Monoids, modules,
gradings and charts call these and never build the system themselves.
``lll_reduce`` shortens a lattice basis; toric ideals start from it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from . import scope


class IntMatrix:
    """Immutable integer matrix, row major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(map(int, entries))
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows_list):
        rows_list = [list(r) for r in rows_list]
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        if any(len(r) != cols for r in rows_list):
            raise ValueError("ragged rows")
        return cls(rows, cols, [e for r in rows_list for e in r])

    @classmethod
    def from_columns(cls, cols_list, nrows=None):
        """The nrows x len(cols_list) matrix with these columns; nrows may be
        left out when there is a column, and may be 0."""
        cols_list = [tuple(c) for c in cols_list]
        if nrows is None:
            if not cols_list:
                raise ValueError("need nrows for empty column list")
            nrows = len(cols_list[0])
        if any(len(c) != nrows for c in cols_list):
            raise ValueError("ragged columns")
        return cls(nrows, len(cols_list),
                   [c[i] for i in range(nrows) for c in cols_list])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, [0] * (rows * cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        a, b = self.to_rows(), other.to_rows()
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                out.append(sum(a[i][t] * b[t][j] for t in range(self.cols)))
        return IntMatrix(self.rows, other.cols, out)

    def apply(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(self[i, j] * vec[j] for j in range(self.cols))
                     for i in range(self.rows))

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({self.to_rows()!r})"

    def determinant(self):
        """Fraction-free Bareiss determinant (square matrices only)."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


def smith_normal_form(m: IntMatrix):
    """Return (U, D, V, W) with U*m*V = D diagonal, d_1 | d_2 | ..., U, V
    unimodular and W = U^-1.

    Each row operation on U is matched by the inverse column operation on
    W (row_i -= q*row_j by col_j += q*col_i; a swap or a negation by the
    same on columns), so the inverse costs no more than U itself; W is kept
    as its list of columns.  Pivot choice: smallest absolute nonzero value,
    ties broken by lowest (row, col), which makes the result deterministic
    for a fixed input.  Inside a ``scope.run_scope()`` the four matrices,
    which are immutable, are stored per input and returned again for an
    equal one.
    """
    memo = scope.memo()
    if memo is not None and ("smith", m) in memo:
        return memo["smith", m]
    r, c = m.rows, m.cols
    a = m.to_rows()

    def eye(n):
        return [[int(i == j) for j in range(n)] for i in range(n)]

    u, w, v = eye(r), eye(r), eye(c)  # w holds the columns of W

    def row_add(i, j, q):  # row_i -= q * row_j
        for t in range(c):
            a[i][t] -= q * a[j][t]
        for t in range(r):
            u[i][t] -= q * u[j][t]
        w[j] = [x + q * y for x, y in zip(w[j], w[i])]

    def col_add(i, j, q):  # col_i -= q * col_j
        for t in range(r):
            a[t][i] -= q * a[t][j]
        for t in range(c):
            v[t][i] -= q * v[t][j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        w[i], w[j] = w[j], w[i]

    def col_swap(i, j):
        for t in range(r):
            a[t][i], a[t][j] = a[t][j], a[t][i]
        for t in range(c):
            v[t][i], v[t][j] = v[t][j], v[t][i]

    def row_neg(i):
        for t in range(c):
            a[i][t] = -a[i][t]
        for t in range(r):
            u[i][t] = -u[i][t]
        w[i] = [-x for x in w[i]]

    t = 0
    while t < r and t < c:
        # locate pivot
        best = None
        for i in range(t, r):
            for j in range(t, c):
                e = a[i][j]
                if e != 0 and (best is None or abs(e) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, r):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_add(i, t, q)
                    if a[i][t] != 0:  # remainder became the smaller pivot
                        row_swap(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, c):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_add(j, t, q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            if any(a[i][t] != 0 for i in range(t + 1, r)):
                continue
            # force divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, -1)  # row_t += row_offender
        if a[t][t] < 0:
            row_neg(t)
        t += 1

    out = (IntMatrix(r, r, [e for row in u for e in row]),
           IntMatrix(r, c, [e for row in a for e in row]),
           IntMatrix(c, c, [e for row in v for e in row]),
           IntMatrix(r, r, [col[i] for i in range(r) for col in w]))
    if memo is not None:
        memo["smith", m] = out
    return out


def _solve_smith(snf, b):
    """One integer solution x of m*x = b, or None, from the Smith form
    (U, D, V, W) of m."""
    u, d, v, _ = snf
    ub = u.apply(tuple(b))
    y = [0] * v.rows
    for i in range(u.rows):
        di = d[i, i] if i < v.rows else 0
        if di == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % di != 0:
                return None
            y[i] = ub[i] // di
    return v.apply(tuple(y))


def _kernel_smith(snf):
    """Basis (list of columns) of {x : m*x = 0} from the Smith form of m."""
    u, d, v, _ = snf
    return [v.column(j) for j in range(v.rows)
            if j >= u.rows or d[j, j] == 0]


def solve_integer(m: IntMatrix, b):
    """One integer solution x of m*x = b, or None if there is none."""
    if not m.cols:
        return () if not any(b) else None
    return _solve_smith(smith_normal_form(m), b)


def integer_kernel(m: IntMatrix):
    """Basis (list of columns) of {x : m*x = 0}."""
    return _kernel_smith(smith_normal_form(m))


def lll_reduce(vectors):
    """An LLL-reduced basis (delta = 3/4) of the lattice spanned by linearly
    independent integer vectors.

    Cohen's integral algorithm (A Course in Computational Algebraic Number
    Theory, 1993, Alg. 2.6.7): d[i] is the Gram determinant of the first i
    vectors and lam[k][j] = d[j+1] * mu_kj, both integers, and every
    division is exact.  Raises ValueError when the vectors are dependent
    (a Gram determinant vanishes).
    """
    b = [tuple(x) for x in vectors]
    n = len(b)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def dot(x, y):
        return sum(map(operator.mul, x, y))

    def red(k, l):  # size-reduce b[k] against b[l]
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = tuple(x - q * y for x, y in zip(b[k], b[l]))
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):  # exchange b[k-1] and b[k]
        b[k - 1], b[k] = b[k], b[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        lk = lam[k][k - 1]
        new_d = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (new_d * t + lk * lam[i][k]) // d[k + 1]
        d[k] = new_d

    k, kmax = 0, -1
    while k < n:
        if k > kmax:  # Gram-Schmidt of the new vector
            kmax = k
            for j in range(k + 1):
                x = dot(b[k], b[j])
                for i in range(j):
                    x = (d[i + 1] * x - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = x
                elif x == 0:
                    raise ValueError("lll_reduce needs linearly independent "
                                     "vectors")
                else:
                    d[k + 1] = x
        if k:
            red(k, k - 1)
            if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
                swap(k, kmax)  # Lovasz's condition fails
                k = max(1, k - 1)
                continue
            for l in range(k - 2, -1, -1):
                red(k, l)
        k += 1
    return b


class FgAbGroup:
    """Z^rank (+) Z/d_1 (+) ... (+) Z/d_k with the divisibility chain d_1 | d_2 | ...

    Elements are integer tuples of length rank + k, free coordinates first.
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank, torsion=()):
        if type(rank) is not int or rank < 0:  # a bool is not a rank
            raise ValueError(f"rank must be an integer >= 0, not {rank!r}")
        torsion = tuple(int(d) for d in torsion)
        if any(d < 2 for d in torsion):
            raise ValueError("torsion orders must be >= 2")
        for i in range(len(torsion) - 1):
            if torsion[i + 1] % torsion[i] != 0:
                raise ValueError("divisibility chain violated")
        self.rank = rank
        self.torsion = torsion

    # -- basic structure -------------------------------------------------

    @property
    def dim(self):
        return self.rank + len(self.torsion)

    @classmethod
    def free(cls, rank):
        return cls(rank, ())

    @classmethod
    def zero_group(cls):
        return cls(0, ())

    def is_trivial(self):
        return self.dim == 0

    def is_torsion_free(self):
        return not self.torsion

    def order(self):
        """|G| for finite G, None when infinite."""
        if self.rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def __eq__(self, other):
        return (isinstance(other, FgAbGroup) and self.rank == other.rank
                and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def __repr__(self):
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    # -- element arithmetic ----------------------------------------------

    def reduce(self, vec):
        vec = tuple(map(int, vec))
        if len(vec) != self.dim:
            raise ValueError("element has wrong length")
        if not self.torsion:
            return vec
        rank = self.rank
        return vec[:rank] + tuple(map(operator.mod, vec[rank:], self.torsion))

    def zero(self):
        return (0,) * self.dim

    def add(self, x, y):
        return self.reduce(map(operator.add, x, y))

    def sub(self, x, y):
        return self.reduce(map(operator.sub, x, y))

    def reduced_sub(self):
        """``sub`` for elements already in reduced form, as a function.

        It skips the conversion and length check of ``reduce`` and only
        takes the torsion coordinates mod d; the search loops that subtract
        generators over and over build it once and call it instead."""
        rank, torsion = self.rank, self.torsion
        if not torsion:
            return lambda x, y: tuple(map(operator.sub, x, y))

        def sub(x, y):
            d = tuple(map(operator.sub, x, y))
            return d[:rank] + tuple(map(operator.mod, d[rank:], torsion))

        return sub

    def neg(self, x):
        return self.reduce(map(operator.neg, x))

    def scale(self, n, x):
        return self.reduce(tuple(n * a for a in x))

    def is_zero(self, x):
        return self.reduce(x) == self.zero()

    def generators(self):
        """Canonical generators e_1, ..., e_dim."""
        return [self.reduce(tuple(1 if i == j else 0 for j in range(self.dim)))
                for i in range(self.dim)]

    def generator_order(self, i):
        """0 for a free generator, d for a torsion one."""
        return 0 if i < self.rank else self.torsion[i - self.rank]

    def relation_columns(self):
        """Columns presenting the group as Z^dim / span: d_i * e_(rank+i)."""
        cols = []
        for i, d in enumerate(self.torsion):
            col = [0] * self.dim
            col[self.rank + i] = d
            cols.append(tuple(col))
        return cols

    def elements(self):
        """All elements (finite groups only)."""
        if self.rank:
            raise ValueError("infinite group")
        out = [()]
        for d in self.torsion:
            out = [e + (x,) for e in out for x in range(d)]
        return [self.reduce(e) for e in out]

    # -- constructions ----------------------------------------------------

    @classmethod
    def from_relations(cls, n, relation_cols):
        """Quotient Z^n / span(columns).

        Returns (group, to_canonical, lift) where to_canonical is an
        IntMatrix mapping ambient coordinates onto canonical coordinates and
        lift is a section of it (exact on canonical representatives).
        """
        cols = [tuple(c) for c in relation_cols]
        if not cols:
            ident = IntMatrix.identity(n)
            return cls.free(n), ident, ident
        m = IntMatrix.from_columns(cols, nrows=n)
        u, d, _, uinv = smith_normal_form(m)
        diag = [d[i, i] for i in range(min(n, m.cols))]
        free_pos = [i for i in range(n) if i >= len(diag) or diag[i] == 0]
        tors_pos = [i for i in range(len(diag)) if diag[i] >= 2]
        torsion = [diag[i] for i in tors_pos]
        group = cls(len(free_pos), torsion)
        keep = free_pos + tors_pos
        to_canonical = IntMatrix.from_rows([u.row(i) for i in keep]) if keep \
            else IntMatrix.zero(0, n)
        lift = IntMatrix.from_columns([uinv.column(i) for i in keep], nrows=n)
        return group, to_canonical, lift


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism given by the images of the source's canonical generators."""

    source: FgAbGroup
    target: FgAbGroup
    images: tuple

    def __post_init__(self):
        imgs = tuple(self.target.reduce(v) for v in self.images)
        object.__setattr__(self, "images", imgs)
        object.__setattr__(self, "_memo", {})  # kernel_lattice and image
        if len(imgs) != self.source.dim:
            raise ValueError("need one image per generator")
        for i, img in enumerate(imgs):
            d = self.source.generator_order(i)
            if d and not self.target.is_zero(self.target.scale(d, img)):
                raise ValueError("image does not respect torsion")

    @classmethod
    def identity(cls, g):
        return cls(g, g, tuple(g.generators()))

    def apply(self, x):
        x = self.source.reduce(x)
        out = [0] * self.target.dim
        for xi, img in zip(x, self.images):
            if xi:
                for j, v in enumerate(img):
                    out[j] += xi * v
        return self.target.reduce(out)

    def compose(self, inner):
        """self o inner."""
        if inner.target != self.source:
            raise ValueError("composition mismatch")
        return GroupHom(inner.source, self.target,
                        tuple(self.apply(v) for v in inner.images))

    # -- linear solving against the hom ----------------------------------

    def _stacked_system(self):
        """Matrix [images | target relations]; solutions mod source give preimages."""
        cols = [list(v) for v in self.images] + \
               [list(c) for c in self.target.relation_columns()]
        return IntMatrix.from_columns(cols, nrows=self.target.dim)

    def preimage(self, y):
        """Some x with self(x) = y, or None."""
        y = self.target.reduce(y)
        m = self._stacked_system()
        sol = solve_integer(m, y)
        if sol is None:
            return None
        return self.source.reduce(sol[:self.source.dim])

    def kernel_lattice(self):
        """Basis of {a in Z^n : sum a_i images_i = 0 in the target}, n the
        source dimension: the kernel of the stacked system cut to its first
        n coordinates, zero vectors dropped.  Computed once per hom."""
        if "lattice" not in self._memo:
            n = self.source.dim
            self._memo["lattice"] = [] if not n else [
                k[:n] for k in integer_kernel(self._stacked_system()) if any(k[:n])]
        return self._memo["lattice"]

    def image(self):
        """(H, inclusion H -> target, lift) for the subgroup H generated by
        the images: H = Z^n / kernel_lattice(), n the source dimension, for
        any source (the lattice holds the torsion relations d_i e_i), and
        column j of lift writes the j-th canonical generator of H over the
        images.  Computed once per hom."""
        if "image" not in self._memo:
            h, _, lift = FgAbGroup.from_relations(self.source.dim,
                                                  self.kernel_lattice())
            amb = self.target
            imgs = []
            for j in range(h.dim):
                v = amb.zero()
                for c, g in zip(lift.column(j), self.images):
                    v = amb.add(v, amb.scale(c, g))
                imgs.append(v)
            self._memo["image"] = (h, GroupHom(h, amb, tuple(imgs)), lift)
        return self._memo["image"]

    def kernel(self):
        """(K, inclusion K -> source)."""
        lat = self.kernel_lattice()
        src_rels = self.source.relation_columns()
        # kernel subgroup = (lattice span) / (source relations)
        gens = lat + [list(c) for c in src_rels]
        snf = smith_normal_form(
            IntMatrix.from_columns(gens, nrows=self.source.dim))
        rel_in_gens = [_solve_smith(snf, c) for c in src_rels]
        rel_in_gens += _kernel_smith(snf)  # redundancies among the generators
        k, to_can, lift = FgAbGroup.from_relations(len(gens), rel_in_gens)
        imgs = []
        for j in range(k.dim):
            combo = lift.column(j)
            vec = [0] * self.source.dim
            for t, c in enumerate(combo):
                for i in range(self.source.dim):
                    vec[i] += c * gens[t][i]
            imgs.append(self.source.reduce(vec))
        return k, GroupHom(k, self.source, tuple(imgs))

    def cokernel(self):
        """(C, projection target -> C)."""
        rel = [list(c) for c in self.target.relation_columns()] + \
              [list(v) for v in self.images]
        c, to_can, _ = FgAbGroup.from_relations(self.target.dim, rel)
        imgs = [c.reduce(to_can.column(i)) for i in range(self.target.dim)]
        return c, GroupHom(self.target, c, tuple(imgs))

    def is_injective(self):
        """Whether the image has the source's canonical form: the source maps
        onto its image, and finitely generated abelian groups are Hopfian,
        so a surjection onto a copy of the source is an isomorphism."""
        return self.image()[0] == self.source

    def is_surjective(self):
        c, _ = self.cokernel()
        return c.is_trivial()


def direct_sum(groups):
    """(G_1 (+) ... (+) G_n, injections, projections).

    The free coordinates of the summands come first, block by block, and
    carry no relations.  The torsion coordinates, modulo the diagonal
    relations d * e of the summands, are put in canonical form by one Smith
    form (``from_relations``): injection i sends a torsion generator of G_i
    to a column of ``to_canonical``, and projection i reads the block of G_i
    in each ``lift`` column.
    """
    rank = sum(g.rank for g in groups)
    orders = [d for g in groups for d in g.torsion]
    k = len(orders)
    tors, to_can, lift = FgAbGroup.from_relations(
        k, [tuple(d if i == j else 0 for i in range(k))
            for j, d in enumerate(orders)])
    total = FgAbGroup(rank, tors.torsion)
    free_gens = total.generators()[:rank]
    injections, projections = [], []
    f = t = 0  # where the free and the torsion coordinates of g start
    for g in groups:
        nt = len(g.torsion)
        g_free = g.generators()[:g.rank]
        inj = tuple(free_gens[f:f + g.rank]) + tuple(
            (0,) * rank + to_can.column(t + i) for i in range(nt))
        proj = tuple(g_free[j - f] if f <= j < f + g.rank else g.zero()
                     for j in range(rank)) + tuple(
            (0,) * g.rank + lift.column(j)[t:t + nt] for j in range(tors.dim))
        injections.append(GroupHom(g, total, inj))
        projections.append(GroupHom(total, g, proj))
        f, t = f + g.rank, t + nt
    return total, injections, projections


def pushout(a1: FgAbGroup, a2: FgAbGroup, pairs):
    """The maps a1 -> E <- a2 into E = (a1 (+) a2) / <j1(x) - j2(y)>, one
    relation per pair (x, y) of elements of a1 and a2, in order."""
    total, (j1, j2), _ = direct_sum([a1, a2])
    rels = tuple(total.sub(j1.apply(x), j2.apply(y)) for x, y in pairs)
    _, proj = GroupHom(FgAbGroup.free(len(rels)), total, rels).cokernel()
    return proj.compose(j1), proj.compose(j2)


# -- Hom, Ext and extensions ----------------------------------------------

def _resolution_map(a: FgAbGroup, b: FgAbGroup):
    """The map B^dim -> B^k, psi |-> psi o d, for the canonical resolution
    0 -> Z^k -d-> Z^dim -> A -> 0 of A, d(e_i) = d_i * e_(rank+i)."""
    bn, _, proj_n = direct_sum([b] * a.dim)
    bk, inj_k, _ = direct_sum([b] * len(a.torsion))
    imgs = []
    for gen in bn.generators():
        out = bk.zero()
        for i, d in enumerate(a.torsion):
            comp = proj_n[a.rank + i].apply(gen)
            out = bk.add(out, inj_k[i].apply(b.scale(d, comp)))
        imgs.append(out)
    return GroupHom(bn, bk, tuple(imgs))


def hom_group(a: FgAbGroup, b: FgAbGroup):
    """Hom(A, B): the kernel of the resolution map."""
    return _resolution_map(a, b).kernel()[0]


def ext1(a: FgAbGroup, b: FgAbGroup):
    """Ext^1(A, B): the cokernel of the resolution map."""
    return _resolution_map(a, b).cokernel()[0]


def ext_class_to_extension(a: FgAbGroup, b: FgAbGroup, cocycle):
    """Turn a cocycle (one B-element per torsion generator of A) into a
    concrete extension 0 -> B -> E -> A -> 0.

    Returns (E, include_b, project_a).
    """
    n, nb = a.dim, b.dim
    cocycle = [b.reduce(v) for v in cocycle]
    if len(cocycle) != len(a.torsion):
        raise ValueError("need one cocycle entry per torsion generator")
    # ambient Z^(nb + n); relations: B's relations, and (cocycle_i, -d_i e_(rank+i))
    rels = []
    for c in b.relation_columns():
        rels.append(list(c) + [0] * n)
    for i, d in enumerate(a.torsion):
        col = list(cocycle[i]) + [0] * n
        col[nb + a.rank + i] = -d
        rels.append(col)
    e, to_can, lift = FgAbGroup.from_relations(nb + n, rels)
    inc_imgs = [e.reduce(to_can.column(i)) for i in range(nb)]
    include_b = GroupHom(b, e, tuple(inc_imgs))
    # E -> A: ambient coordinate nb+j maps to the j-th canonical generator of A;
    # build on canonical generators of E via the lift.
    proj_imgs = []
    for j in range(e.dim):
        vec = lift.column(j)
        proj_imgs.append(a.reduce(vec[nb:]))
    project_a = GroupHom(e, a, tuple(proj_imgs))
    return e, include_b, project_a


class NotSurjective(ValueError):
    pass


def split_surjection(h: GroupHom):
    """A section s with h o s = id, or None when the surjection does not split.

    For a target generator e of order d, s(e) is a preimage of j_T(e) under
    x |-> j_T(h(x)) + j_S(d * x) into T (+) S: an x with h(x) = e and d*x = 0.
    """
    if not h.is_surjective():
        raise NotSurjective("homomorphism is not surjective")
    src, tgt = h.source, h.target
    total, (jt, js), _ = direct_sum([tgt, src])
    h_imgs = [jt.apply(v) for v in h.images]
    imgs = []
    for i, gen in enumerate(tgt.generators()):
        d = tgt.generator_order(i)
        system = GroupHom(src, total, tuple(
            total.add(v, js.apply(src.scale(d, e)))
            for v, e in zip(h_imgs, src.generators())))
        x = system.preimage(jt.apply(gen))
        if x is None:
            return None
        imgs.append(x)
    s = GroupHom(tgt, src, tuple(imgs))
    for gen in tgt.generators():
        if h.apply(s.apply(gen)) != tgt.reduce(gen):
            raise AssertionError("section verification failed")
    return s
