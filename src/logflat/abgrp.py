"""Exact linear algebra over the integers for finitely generated abelian groups.

Groups are kept in the canonical form  Z^rank  (+)  Z/d_1 (+) ... (+) Z/d_k
with d_1 | d_2 | ... | d_k and every d_i >= 2.  An element is a tuple of
integers: the first ``rank`` coordinates are free, the remaining ones are
torsion coordinates reduced into [0, d_i).

Everything here is built on one primitive: the Smith normal form with its
unimodular transforms, computed with arbitrary-precision integers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass


class IntMatrix:
    """Immutable integer matrix, row major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(int(e) for e in entries)
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
        cols_list = [list(c) for c in cols_list]
        if cols_list:
            nrows = len(cols_list[0])
        elif nrows is None:
            raise ValueError("need nrows for empty column list")
        return cls.from_rows([[c[i] for c in cols_list] for i in range(nrows)])

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

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         [self[i, j] for j in range(self.cols) for i in range(self.rows)])

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
    """Return (U, D, V) with U*m*V = D diagonal, d_1 | d_2 | ..., U, V unimodular.

    Pivot choice: smallest absolute nonzero value, ties broken by lowest
    (row, col), which makes the result deterministic for a fixed input.
    """
    r, c = m.rows, m.cols
    a = m.to_rows()
    u = IntMatrix.identity(r).to_rows()
    v = IntMatrix.identity(c).to_rows()

    def row_add(i, j, q):  # row_i -= q * row_j
        for t in range(c):
            a[i][t] -= q * a[j][t]
        for t in range(r):
            u[i][t] -= q * u[j][t]

    def col_add(i, j, q):  # col_i -= q * col_j
        for t in range(r):
            a[t][i] -= q * a[t][j]
        for t in range(c):
            v[t][i] -= q * v[t][j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

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

    return (IntMatrix.from_rows(u), IntMatrix.from_rows(a), IntMatrix.from_rows(v))


def solve_integer(m: IntMatrix, b):
    """One integer solution x of m*x = b, or None if there is none."""
    u, d, v = smith_normal_form(m)
    ub = u.apply(tuple(b))
    y = [0] * m.cols
    for i in range(m.rows):
        di = d[i, i] if i < m.cols else 0
        if di == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % di != 0:
                return None
            y[i] = ub[i] // di
    return v.apply(tuple(y))


def integer_kernel(m: IntMatrix):
    """Basis (list of columns) of {x : m*x = 0}."""
    _, d, v = smith_normal_form(m)
    basis = []
    for j in range(m.cols):
        dj = d[j, j] if j < m.rows else 0
        if dj == 0:
            basis.append(v.column(j))
    return basis


def lattice_contains(basis_cols, vec):
    """Whether vec lies in the Z-span of the given columns."""
    if not basis_cols:
        return all(x == 0 for x in vec)
    m = IntMatrix.from_columns(basis_cols)
    return solve_integer(m, vec) is not None


class FgAbGroup:
    """Z^rank (+) Z/d_1 (+) ... (+) Z/d_k with the divisibility chain d_1 | d_2 | ...

    Elements are integer tuples of length rank + k, free coordinates first.
    """

    __slots__ = ("rank", "torsion", "presentation")

    def __init__(self, rank, torsion=(), presentation=None):
        torsion = tuple(int(d) for d in torsion)
        if any(d < 2 for d in torsion):
            raise ValueError("torsion orders must be >= 2")
        for i in range(len(torsion) - 1):
            if torsion[i + 1] % torsion[i] != 0:
                raise ValueError("divisibility chain violated")
        self.rank = rank
        self.torsion = torsion
        self.presentation = presentation  # optional (relations, U, V) provenance

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

    @classmethod
    def cyclic(cls, d):
        return cls(0, (d,)) if d else cls(1, ())

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
        vec = tuple(int(x) for x in vec)
        if len(vec) != self.dim:
            raise ValueError("element has wrong length")
        free = vec[:self.rank]
        tors = tuple(x % d for x, d in zip(vec[self.rank:], self.torsion))
        return free + tors

    def zero(self):
        return (0,) * self.dim

    def add(self, x, y):
        return self.reduce(tuple(a + b for a, b in zip(x, y)))

    def sub(self, x, y):
        return self.reduce(tuple(a - b for a, b in zip(x, y)))

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
        return self.reduce(tuple(-a for a in x))

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
        m = IntMatrix.from_columns(cols, nrows=n) if cols else IntMatrix.zero(n, 0)
        u, d, _ = smith_normal_form(m)
        diag = [d[i, i] for i in range(min(n, m.cols))]
        free_pos = [i for i in range(n) if i >= len(diag) or diag[i] == 0]
        tors_pos = [i for i in range(len(diag)) if diag[i] >= 2]
        torsion = [diag[i] for i in tors_pos]
        group = cls(len(free_pos), torsion)
        keep = free_pos + tors_pos
        to_canonical = IntMatrix.from_rows([u.row(i) for i in keep]) if keep \
            else IntMatrix.zero(0, n)
        # section: invert u exactly, keep the corresponding columns
        uinv = _unimodular_inverse(u)
        lift = IntMatrix.from_columns([uinv.column(i) for i in keep], nrows=n) if keep \
            else IntMatrix.zero(n, 0)
        return group, to_canonical, lift


def _unimodular_inverse(u: IntMatrix):
    """Exact inverse of a unimodular integer matrix via adjugate/Bareiss."""
    n = u.rows
    det = u.determinant()
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    cof = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = IntMatrix.from_rows(
                [[u[a, b] for b in range(n) if b != j] for a in range(n) if a != i])
            row.append((-1) ** (i + j) * minor.determinant())
        cof.append(row)
    adj = IntMatrix.from_rows(cof).transpose()
    return IntMatrix(n, n, [e * det for e in adj.entries])


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism given by the images of the source's canonical generators."""

    source: FgAbGroup
    target: FgAbGroup
    images: tuple

    def __post_init__(self):
        imgs = tuple(self.target.reduce(v) for v in self.images)
        object.__setattr__(self, "images", imgs)
        if len(imgs) != self.source.dim:
            raise ValueError("need one image per generator")
        for i, img in enumerate(imgs):
            d = self.source.generator_order(i)
            if d and not self.target.is_zero(self.target.scale(d, img)):
                raise ValueError("image does not respect torsion")

    @classmethod
    def identity(cls, g):
        return cls(g, g, tuple(g.generators()))

    @classmethod
    def zero_hom(cls, source, target):
        return cls(source, target, tuple(target.zero() for _ in range(source.dim)))

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

    def matrix(self):
        return IntMatrix.from_columns([list(v) for v in self.images],
                                      nrows=self.target.dim)

    # -- linear solving against the hom ----------------------------------

    def _stacked_system(self):
        """Matrix [images | target relations]; solutions mod source give preimages."""
        cols = [list(v) for v in self.images] + \
               [list(c) for c in self.target.relation_columns()]
        return IntMatrix.from_columns(cols, nrows=self.target.dim) if cols \
            else IntMatrix.zero(self.target.dim, 0)

    def preimage(self, y):
        """Some x with self(x) = y, or None."""
        y = self.target.reduce(y)
        m = self._stacked_system()
        sol = solve_integer(m, y)
        if sol is None:
            return None
        return self.source.reduce(sol[:self.source.dim])

    def kernel(self):
        """(K, inclusion K -> source)."""
        m = self._stacked_system()
        lat = [col[:self.source.dim] for col in integer_kernel(m)]
        lat = [c for c in lat if any(c)]
        src_rels = self.source.relation_columns()
        # kernel subgroup = (lattice span) / (source relations)
        gens = lat + [list(c) for c in src_rels]
        if not gens:
            k = FgAbGroup.zero_group()
            return k, GroupHom(k, self.source, ())
        gen_m = IntMatrix.from_columns(gens, nrows=self.source.dim)
        rel_in_gens = [solve_integer(gen_m, tuple(c)) for c in src_rels]
        rel_in_gens += integer_kernel(gen_m)  # redundancies among the generators
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
        k, _ = self.kernel()
        return k.is_trivial()

    def is_surjective(self):
        c, _ = self.cokernel()
        return c.is_trivial()


def _prime_powers(n):
    """Prime power factorization as a dict p -> e."""
    out = {}
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out[p] = e
        p += 1
    if m > 1:
        out[m] = 1
    return out


def direct_sum(groups):
    """(G_1 (+) ... (+) G_n, injections, projections).

    The sum is reassembled into canonical form (all free coordinates first,
    torsion merged into one divisibility chain), so the injections do the
    bookkeeping.
    """
    rank = sum(g.rank for g in groups)
    torsion = _chain_from_orders([d for g in groups for d in g.torsion])
    total = FgAbGroup(rank, torsion)
    # per slot and prime, the available exponent; the chain was built from
    # exactly the prime-power components of the inputs, so exact matches exist
    avail = [dict(_prime_powers(d)) for d in torsion]
    free_off = 0
    injections = []
    for g in groups:
        imgs = []
        for i in range(g.dim):
            vec = [0] * total.dim
            if i < g.rank:
                vec[free_off + i] = 1
            else:
                d = g.torsion[i - g.rank]
                for p, e in _prime_powers(d).items():
                    for t, dt in enumerate(torsion):
                        if avail[t].get(p, 0) == e:
                            del avail[t][p]
                            vec[rank + t] += dt // p ** e
                            break
                    else:
                        raise AssertionError("torsion placement failed")
            imgs.append(total.reduce(vec))
        injections.append(GroupHom(g, total, tuple(imgs)))
        free_off += g.rank
    projections = _sum_projections(groups, total, injections)
    return total, injections, projections


def _chain_from_orders(orders):
    """Rebuild a divisibility chain from arbitrary cyclic orders."""
    from collections import defaultdict
    primary = defaultdict(list)
    for n in orders:
        m = n
        p = 2
        while p * p <= m:
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                primary[p].append(e)
            p += 1
        if m > 1:
            primary[m].append(1)
    for p in primary:
        primary[p].sort(reverse=True)
    chain = []
    i = 0
    while True:
        factor = 1
        for p, es in primary.items():
            if i < len(es):
                factor *= p ** es[i]
        if factor == 1:
            break
        chain.append(factor)
        i += 1
    chain.reverse()
    return tuple(chain)


def _sum_projections(groups, total, injections):
    """Projections are only well defined when the greedy torsion placement is
    diagonal; they are used for free-heavy sums in practice, so solve exactly
    per generator and fail loudly otherwise."""
    projections = []
    for idx, g in enumerate(groups):
        imgs = []
        ok = True
        for j in range(total.dim):
            e = total.reduce(tuple(1 if t == j else 0 for t in range(total.dim)))
            # find the unique expression of e through the injections, if any
            comp = _project_generator(groups, injections, idx, e)
            if comp is None:
                ok = False
                break
            imgs.append(comp)
        projections.append(GroupHom(total, g, tuple(imgs)) if ok else None)
    return projections


def _project_generator(groups, injections, idx, e):
    cols = []
    dims = []
    for inj in injections:
        for v in inj.images:
            cols.append(list(v))
        dims.append(inj.source.dim)
    total = injections[0].target
    m = IntMatrix.from_columns(cols + [list(c) for c in total.relation_columns()],
                               nrows=total.dim) if cols else None
    if m is None:
        return groups[idx].zero()
    sol = solve_integer(m, e)
    if sol is None:
        return None
    off = sum(dims[:idx])
    return groups[idx].reduce(sol[off:off + dims[idx]])


# -- Hom, Ext and extensions ----------------------------------------------

def _resolution(a: FgAbGroup):
    """Canonical free resolution 0 -> Z^k -> Z^(rank+k) -> A -> 0.

    Returns (n, k, d) where d maps e_i of Z^k to d_i * e_(rank+i).
    """
    n = a.dim
    k = len(a.torsion)
    return n, k, list(a.torsion)


def _power_hom(b: FgAbGroup, n: int):
    """(B^n, injections, projections-as-coordinates)."""
    return direct_sum([b] * n) if n else (FgAbGroup.zero_group(), [], [])


def _resolution_map(a: FgAbGroup, b: FgAbGroup):
    """The map B^n -> B^k, psi |-> psi o d, for the canonical resolution of A."""
    n, k, ds = _resolution(a)
    bn, inj_n, proj_n = _power_hom(b, n)
    bk, inj_k, _ = _power_hom(b, k)
    imgs = []
    for gen in bn.generators():
        out = bk.zero()
        for i in range(k):
            comp = proj_n[a.rank + i].apply(gen)
            out = bk.add(out, inj_k[i].apply(b.scale(ds[i], comp)))
        imgs.append(out)
    return GroupHom(bn, bk, tuple(imgs)), bn, bk, inj_n, inj_k


def hom_group(a: FgAbGroup, b: FgAbGroup):
    """Hom(A, B) computed from the canonical resolution of A."""
    if len(a.torsion) == 0:
        total, _, _ = _power_hom(b, a.dim)
        return total
    phi, _, _, _, _ = _resolution_map(a, b)
    k, _ = phi.kernel()
    return k


def ext1(a: FgAbGroup, b: FgAbGroup):
    """Ext^1(A, B) from the canonical resolution of A."""
    if len(a.torsion) == 0:
        return FgAbGroup.zero_group()
    phi, _, _, _, _ = _resolution_map(a, b)
    c, _ = phi.cokernel()
    return c


def ext_class_to_extension(a: FgAbGroup, b: FgAbGroup, cocycle):
    """Turn a cocycle (one B-element per torsion generator of A) into a
    concrete extension 0 -> B -> E -> A -> 0.

    Returns (E, include_b, project_a).
    """
    n, k, ds = _resolution(a)
    cocycle = [b.reduce(v) for v in cocycle]
    if len(cocycle) != k:
        raise ValueError("need one cocycle entry per torsion generator")
    nb = b.dim
    # ambient Z^(nb + n); relations: B's relations, and (cocycle_i, -d_i e_(rank+i))
    amb = nb + n
    rels = []
    for c in b.relation_columns():
        rels.append(list(c) + [0] * n)
    for i in range(k):
        col = list(cocycle[i]) + [0] * n
        col[nb + a.rank + i] = -ds[i]
        rels.append(col)
    e, to_can, _ = FgAbGroup.from_relations(amb, rels)
    inc_imgs = [e.reduce(to_can.column(i)) for i in range(nb)]
    include_b = GroupHom(b, e, tuple(inc_imgs))
    # E -> A: ambient coordinate nb+j maps to the j-th canonical generator of A;
    # build on canonical generators of E via the lift.
    _, _, lift = FgAbGroup.from_relations(amb, rels)
    proj_imgs = []
    for j in range(e.dim):
        vec = lift.column(j)
        proj_imgs.append(a.reduce(vec[nb:]))
    project_a = GroupHom(e, a, tuple(proj_imgs))
    return e, include_b, project_a


class NotSurjective(ValueError):
    pass


def split_surjection(h: GroupHom):
    """A section s with h o s = id, or None when the surjection does not split."""
    if not h.is_surjective():
        raise NotSurjective("homomorphism is not surjective")
    src, tgt = h.source, h.target
    imgs = []
    for i, gen in enumerate(tgt.generators()):
        d = tgt.generator_order(i)
        # solve h(x) = gen with d*x = 0 in the source
        img_cols = [list(v) for v in h.images]
        relt = [list(c) for c in tgt.relation_columns()]
        rels = [list(c) for c in src.relation_columns()]
        ns, nt = src.dim, tgt.dim
        width = ns + len(relt) + (len(rels) if d else 0)
        rows = []
        for r in range(nt):
            row = [img_cols[j][r] for j in range(ns)]
            row += [relt[j][r] for j in range(len(relt))]
            row += [0] * (len(rels) if d else 0)
            rows.append(row)
        if d:
            for r in range(ns):
                row = [d if j == r else 0 for j in range(ns)]
                row += [0] * len(relt)
                row += [rels[j][r] for j in range(len(rels))]
                rows.append(row)
        m = IntMatrix.from_rows(rows) if rows else IntMatrix.zero(0, width)
        b = list(tgt.reduce(gen)) + ([0] * ns if d else [])
        sol = solve_integer(m, b)
        if sol is None:
            return None
        imgs.append(src.reduce(sol[:ns]))
    s = GroupHom(tgt, src, tuple(imgs))
    for gen in tgt.generators():
        if h.apply(s.apply(gen)) != tgt.reduce(gen):
            raise AssertionError("section verification failed")
    return s
