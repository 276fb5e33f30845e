"""Exact commutative algebra: multivariate polynomials over Q or F_p,
Groebner bases for submodules of free modules, syzygies, finitely presented
modules over quotient rings, kernels, Tor_1, and toric ideals.

Everything is a "module element": a dict mapping (exponent tuple, position)
to a nonzero coefficient.  Ring elements are module elements in position 0.
A coefficient over QQ is an ``int`` when it is integral and a ``Fraction``
only when its denominator is not 1; over F_p it is an int in [0, p).
Orders are key functions on (exponent tuple, position); the default ring
order is degree-reverse-lexicographic with ties by position.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from operator import add, le, mul, neg, sub

from . import abgrp, scope


# -- coefficient fields --------------------------------------------------------


class FieldQ:
    """The rationals, exact.  A value is an ``int`` when it is integral and
    a ``Fraction`` only when its denominator is not 1.

    Every operation returns a value in that form.  It takes integral
    ``Fraction``s too: ``Fraction(n)`` equals and hashes as ``n``, so dicts,
    run-scope memo keys and ``to_str`` cannot tell the two apart.  Almost
    every coefficient of the Groebner engine is a small integer, which
    ``int`` arithmetic handles without a gcd per result."""

    char = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def of_int(self, n):
        return n

    def add(self, a, b):
        return _canonical(a + b)

    def sub(self, a, b):
        return _canonical(a - b)

    def mul(self, a, b):
        return _canonical(a * b)

    def neg(self, a):
        return _canonical(-a)

    def inv(self, a):
        return self.div(1, a)

    def div(self, a, b):
        if b == 1:  # every reduction step against a monic basis element
            return _canonical(a)
        return _canonical(Fraction(a, b))  # never int / int, a float

    def is_zero(self, a):
        return a == 0

    def eq(self, a, b):
        return a == b

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, FieldQ)

    def __hash__(self):
        return hash("QQ")


def _canonical(r):
    """An int or Fraction value as an int when it is integral."""
    if type(r) is int or r.denominator != 1:
        return r
    return r.numerator


class FieldFp:
    """The prime field F_p, with int coefficients in [0, p)."""

    def __init__(self, p):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise ValueError("p must be prime")
        self.p = p
        self.char = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def of_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)  # ValueError on a multiple of p

    def div(self, a, b):
        return (a * pow(b, -1, self.p)) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def eq(self, a, b):
        return (a - b) % self.p == 0

    def to_str(self, a):
        return str(a % self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, FieldFp) and self.p == other.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = FieldQ()


# -- monomial orders -----------------------------------------------------------


def degrevlex_key(mono):
    return (sum(mono), tuple(map(neg, reversed(mono))))


def weighted_revlex_key(weights, last):
    """Graded reverse lex for the given positive weights, one per variable,
    with the variable ``last`` treated as the cheapest (rightmost) one.

    Its ``tag`` names the order by value: two keys of equal weights and
    ``last`` are one order to ``buchberger``'s run-scope memo."""
    weights = tuple(weights)
    # the variables from the cheapest: last, then the others from the
    # rightmost
    rev = sorted(range(len(weights)), key=lambda i: (i != last, -i))

    def key(mono):
        return (sum(map(mul, weights, mono)),
                tuple(map(neg, map(mono.__getitem__, rev))))
    key.tag = ("wrevlex", weights, last)
    return key


def module_key(ring_key):
    """The order of ``ring_key`` on monomials, ties broken by position.

    Its ``tag``, like ``block_key``'s, names the order by value, so that
    ``buchberger``'s run-scope memo sees two closures of one order as one
    order: a tagged ``ring_key`` enters it by its own tag."""
    def key(term):
        mono, pos = term
        return (ring_key(mono), -pos)
    key.tag = ("module", getattr(ring_key, "tag", ring_key))
    return key


def block_key(ring_key, cut):
    """Positions below ``cut`` dominate everything at or above it."""
    def key(term):
        mono, pos = term
        return (1 if pos < cut else 0, ring_key(mono), -pos)
    key.tag = ("block", ring_key, cut)
    return key


# -- module-element arithmetic ---------------------------------------------------


def m_add(field, f, g):
    out = dict(f)
    for k, c in g.items():
        s = field.add(out.get(k, field.zero()), c)
        if field.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def m_neg(field, f):
    return {k: field.neg(c) for k, c in f.items()}

def m_sub(field, f, g):
    return m_add(field, f, m_neg(field, g))


def m_scale(field, c, f):
    if field.is_zero(c):
        return {}
    return {k: field.mul(c, v) for k, v in f.items()}


def m_shift(field, c, mono, f):
    """Multiply by the term c * x^mono."""
    if field.is_zero(c):
        return {}
    out = {}
    for (m, p), v in f.items():
        out[(tuple(map(add, m, mono)), p)] = field.mul(c, v)
    return out


def m_lt(f, key):
    return max(f, key=key)


def m_sorted_terms(f, key):
    return sorted(f.items(), key=lambda kv: key(kv[0]), reverse=True)


def _divides(m1, m2):
    return all(map(le, m1, m2))


class _Desc:
    """A heap entry that orders by descending ``k``, so ``heapq`` pops the
    largest term first."""

    __slots__ = ("k", "t")

    def __init__(self, k, t):
        self.k = k
        self.t = t

    def __lt__(self, other):
        return other.k < self.k


def m_reduce(field, f, basis, key, lts=None):
    """Full normal form of f against the list of module elements ``basis``.

    Each step takes the leading term of what is left of f.  The first basis
    element, in list order, whose leading term lies in the same position and
    divides it cancels it; if none does, the term moves to the remainder,
    its coefficient in the field's own form (over QQ an integral
    ``Fraction`` becomes an ``int``).  Zero basis elements are skipped.
    ``lts``, when given, holds the leading terms of ``basis`` position for
    position (any value for a zero element); it is computed when omitted.
    The remainder's terms come out in descending order.

    The exponent arithmetic of the scan, the shift and the shifted terms
    runs through ``map`` over ``operator`` functions, whose loops run in C.
    """
    if lts is None:
        lts = [m_lt(g, key) if g else None for g in basis]
    reducers = [(lt[0], lt[1], g, g[lt]) for lt, g in zip(lts, basis) if g]
    f = dict(f)
    heap = [_Desc(key(t), t) for t in f]
    heapq.heapify(heap)
    out = {}
    while heap:
        t = heapq.heappop(heap).t
        c = f.pop(t, None)
        if c is None:
            continue  # cancelled, or a second entry of a processed term
        mono, pos = t
        for lm, lp, g, lc in reducers:
            if lp == pos and all(map(le, lm, mono)):
                break
        else:
            out[t] = c if type(c) is int else field.add(field.zero(), c)
            continue
        shift = tuple(map(sub, mono, lm))
        factor = field.div(c, lc)
        lead = (lm, lp)
        for term, v in g.items():
            if term == lead:
                continue
            m, p = term
            s = (tuple(map(add, m, shift)), p)
            d = field.mul(factor, v)
            old = f.get(s)
            if old is None:
                f[s] = field.neg(d)
                heapq.heappush(heap, _Desc(key(s), s))
            else:
                old = field.sub(old, d)
                if field.is_zero(old):
                    del f[s]
                else:
                    f[s] = old
    return out


def _monic_remainder(field, r):
    """A nonzero result of ``m_reduce`` made monic, and its leading term,
    which ``m_reduce`` puts first."""
    lt = next(iter(r))
    c = r[lt]
    if not field.eq(c, field.one()):
        r = m_scale(field, field.inv(c), r)
    return r, lt


def buchberger(field, gens, key):
    """Reduced Groebner basis of the module generated by ``gens``.

    Deterministic: input is canonically sorted, S-pairs (i, j) with i < j
    are processed in increasing ``(key((lcm, pos)), i, j)`` order, where
    ``lcm`` and ``pos`` come from the two leading terms, and the result is
    interreduced, monic, and sorted.  Basis elements never change inside the
    pair loop, so a pair's order entry is fixed when the pair is formed and a
    heap pops the pairs in exactly that order.  Each element enters fully
    reduced, so the leading terms are pairwise distinct, and the loop ends
    with one pass: the elements whose leading term no other one divides,
    each reduced against the others.  Pairs whose leading terms sit
    in different positions are never queued.  When every term of the input
    lies in position 0 the input is an ideal, and pairs with coprime leading
    monomials are not queued either (the product criterion, valid for
    ideals).  The leading term of each basis element is found once, when
    the element is added, and handed to every reduction.  Each term's order
    key is computed at most once per call, whether the initial sort, a
    reduction, a pair or the final sort asks for it, and kept in a dict
    that dies with the call.

    Inside a ``scope.run_scope()`` (``cli.run_document`` enters one per
    document) the result is stored under (field, order, set of generators),
    the order being the key's ``tag`` or, for an untagged key, the key
    itself, and an equal input later gets a copy of it.  The reduced basis
    is unique for a module and an order, so generator order and duplicates
    cannot change it, and a direct call outside any scope returns the same
    list.
    """
    memo = scope.memo()
    if memo is not None:
        entry = (field, getattr(key, "tag", key),
                 frozenset(frozenset(g.items()) for g in gens if g))
        if entry in memo:
            return [dict(g) for g in memo[entry]]
    # each term's key once per call, in a dict that dies with the call
    keys, order = {}, key

    def key(term):
        k = keys.get(term)
        if k is None:
            k = keys[term] = order(term)
        return k

    gens = [g for g in gens if g]
    ideal = not any(pos for g in gens for (_, pos) in g)
    basis, lts = [], []
    for g in sorted(gens, key=lambda g: key(m_lt(g, key))):
        r = m_reduce(field, g, basis, key, lts)
        if r:
            r, lt = _monic_remainder(field, r)
            basis.append(r)
            lts.append(lt)

    def pairs_with(j):
        mj, pj = lts[j]
        for i in range(j):
            mi, pi = lts[i]
            if pi != pj:
                continue
            if ideal and not any(map(min, mi, mj)):
                continue
            lcm = tuple(map(max, mi, mj))
            yield (key((lcm, pj)), i, j, lcm)

    queue = [e for j in range(len(basis)) for e in pairs_with(j)]
    heapq.heapify(queue)
    while queue:
        _, i, j, lcm = heapq.heappop(queue)
        gi, gj = basis[i], basis[j]
        mi, mj = lts[i][0], lts[j][0]
        si = m_shift(field, field.one(), tuple(map(sub, lcm, mi)), gi)
        sj = m_shift(field, field.one(), tuple(map(sub, lcm, mj)), gj)
        s = m_sub(field, si, sj)
        r = m_reduce(field, s, basis, key, lts)
        if r:
            r, lt = _monic_remainder(field, r)
            basis.append(r)
            lts.append(lt)
            for e in pairs_with(len(basis) - 1):
                heapq.heappush(queue, e)
    # a minimal basis, then one reduction of each element against the
    # others: no leading term divides another, so none changes and one
    # pass leaves the basis reduced.  An element entered reduced against
    # the earlier ones, so only a later one can divide its leading term.
    keep = [i for i, (mi, pi) in enumerate(lts)
            if not any(pj == pi and _divides(mj, mi)
                       for mj, pj in lts[i + 1:])]
    basis = [m_reduce(field, basis[i], [basis[t] for t in keep if t != i],
                      key, [lts[t] for t in keep if t != i]) for i in keep]
    lts = [lts[i] for i in keep]
    order = sorted(range(len(basis)), key=lambda t: key(lts[t]))
    if memo is not None:
        memo[entry] = [dict(basis[t]) for t in order]
    return [basis[t] for t in order]


def _augmented_gb(field, vecs, rank, nvars, ring_key, relations=()):
    """Groebner basis of {v_i (+) e_(rank+i)} together with the untagged
    {u (+) 0} for u in ``relations`` (elements of S^rank), under the block
    order that eliminates the value block (positions below ``rank``), with
    its key.  Only the ``vecs`` get a tag position; the relations get none."""
    aug = list(relations)
    for i, v in enumerate(vecs):
        g = dict(v)
        g[((0,) * nvars, rank + i)] = field.one()
        aug.append(g)
    key = block_key(ring_key, rank)
    return buchberger(field, aug, key), key


def syzygies(field, vecs, rank, nvars, ring_key, relations=()):
    """Reduced Groebner basis, in ``module_key(ring_key)`` order, of
    {x in S^k : sum x_i vecs_i lies in the span U of ``relations``} for
    elements ``vecs`` and ``relations`` of S^rank (the plain syzygy module
    when there are no relations).

    The elements of the augmented basis (see ``_augmented_gb``) that lie
    wholly in the tag positions form it.  The relations are untagged, so
    the syzygies among them are never computed, and the result depends on
    U only, not on the generators that span it."""
    gb, _ = _augmented_gb(field, vecs, rank, nvars, ring_key, relations)
    return [{(m, p - rank): c for (m, p), c in g.items()}
            for g in gb if all(p >= rank for (_, p) in g)]


def embed(p, ring, offset):
    """A polynomial or module element in the bigger ``ring``, variable i
    becoming variable offset + i."""
    out = {}
    for (mono, pos), c in p.items():
        big = [0] * ring.nvars
        for i, e in enumerate(mono):
            big[offset + i] = e
        out[(tuple(big), pos)] = c
    return out


# -- polynomial rings and presentations ---------------------------------------


class PolyRing:
    def __init__(self, field, names):
        self.field = field
        self.names = tuple(names)
        self.key = degrevlex_key

    @property
    def nvars(self):
        return len(self.names)

    def mkey(self):
        return module_key(self.key)

    def zero(self):
        return {}

    def one(self):
        return {((0,) * self.nvars, 0): self.field.one()}

    def const(self, c):
        c = self.field.of_int(c) if isinstance(c, int) else c
        if self.field.is_zero(c):
            return {}
        return {((0,) * self.nvars, 0): c}

    def var(self, i):
        if isinstance(i, str):
            i = self.names.index(i)
        e = [0] * self.nvars
        e[i] = 1
        return {(tuple(e), 0): self.field.one()}

    def monomial(self, exps, c=None):
        c = self.field.one() if c is None else c
        if self.field.is_zero(c):
            return {}
        return {(tuple(exps), 0): c}

    def add(self, *ps):
        out = {}
        for p in ps:
            out = m_add(self.field, out, p)
        return out

    def sub(self, a, b):
        return m_sub(self.field, a, b)

    def neg(self, a):
        return m_neg(self.field, a)

    def mul(self, *ps):
        out = self.one()
        for p in ps:
            nxt = {}
            for (m1, _), c1 in out.items():
                for (m2, _), c2 in p.items():
                    k = (tuple(map(add, m1, m2)), 0)
                    s = self.field.add(nxt.get(k, self.field.zero()),
                                       self.field.mul(c1, c2))
                    if self.field.is_zero(s):
                        nxt.pop(k, None)
                    else:
                        nxt[k] = s
            out = nxt
        return out

    def pow(self, p, n):
        """p^n by repeated squaring."""
        out = self.one()
        while n:
            if n & 1:
                out = self.mul(out, p)
            n >>= 1
            if n:
                p = self.mul(p, p)
        return out

    def scale(self, c, p):
        c = self.field.of_int(c) if isinstance(c, int) else c
        return m_scale(self.field, c, p)

    def parse(self, s):
        return _parse_poly(self, s)

    def to_str(self, p):
        if not p:
            return "0"
        parts = []
        for (m, _), c in m_sorted_terms(p, self.mkey()):
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(self.names[i])
                elif e > 1:
                    factors.append(f"{self.names[i]}^{e}")
            cs = self.field.to_str(c)
            if factors and cs == "1":
                parts.append("*".join(factors))
            elif factors and cs == "-1":
                parts.append("-" + "*".join(factors))
            elif factors:
                parts.append(cs + "*" + "*".join(factors))
            else:
                parts.append(cs)
        out = parts[0]
        for t in parts[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out


def _parse_poly(ring, s):
    """Tiny recursive-descent parser: names, integers, + - * ^ ( ), and
    constants n/d, divided in the ring's field."""
    if not isinstance(s, str):
        raise ValueError(f"a polynomial is a string, not {s!r}")
    tokens = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            tokens.append(("int", s[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(s) and (s[j].isalnum() or s[j] == "_"):
                j += 1
            tokens.append(("name", s[i:j]))
            i = j
        elif ch in "+-*^()/":
            tokens.append((ch, ch))
            i += 1
        else:
            raise ValueError(f"bad character {ch!r} in polynomial")
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else (None, None)

    def take(kind=None):
        tok = peek()
        if kind and tok[0] != kind:
            raise ValueError(f"expected {kind}, got {tok}")
        pos[0] += 1
        return tok

    def atom():
        kind, val = peek()
        if kind == "int":
            take()
            if peek()[0] == "/":
                take()
                _, den = take("int")
                field = ring.field
                d = field.of_int(int(den))
                if field.is_zero(d):
                    raise ValueError(f"denominator {den} is zero in {field}")
                p = ring.const(field.div(field.of_int(int(val)), d))
            else:
                p = ring.const(int(val))
        elif kind == "name":
            take()
            if val not in ring.names:
                raise ValueError(f"unknown variable {val!r}")
            p = ring.var(val)
        elif kind == "(":
            take()
            p = expr()
            take(")")
        elif kind == "-":
            take()
            return ring.neg(atom())
        else:
            raise ValueError(f"unexpected token {peek()}")
        while peek()[0] == "^":
            take()
            _, e = take("int")
            p = ring.pow(p, int(e))
        return p

    def term():
        p = atom()
        while peek()[0] == "*" or peek()[0] in ("name", "int", "("):
            if peek()[0] == "*":
                take()
            p = ring.mul(p, atom())
        return p

    def expr():
        p = term()
        while peek()[0] in ("+", "-"):
            op, _ = take()
            q = term()
            p = ring.add(p, q) if op == "+" else ring.sub(p, q)
        return p

    out = expr()
    if pos[0] != len(tokens):
        raise ValueError("trailing tokens in polynomial")
    return out


class RingPresentation:
    """A finitely presented algebra: ambient polynomial ring modulo an ideal."""

    def __init__(self, ring: PolyRing, ideal_gens=()):
        self.ring = ring
        self.ideal = [dict(g) for g in ideal_gens if g]
        self._gb = None
        self._lts = None

    def gb(self):
        if self._gb is None:
            key = self.ring.mkey()
            self._gb = buchberger(self.ring.field, self.ideal, key)
            self._lts = [m_lt(g, key) for g in self._gb]
        return self._gb

    def nf(self, p):
        gb = self.gb()
        return m_reduce(self.ring.field, p, gb, self.ring.mkey(), self._lts)

    def is_zero(self, p):
        return not self.nf(p)

    def eq(self, p, q):
        return self.is_zero(self.ring.sub(p, q))

    def quotient(self, extra_gens):
        return RingPresentation(self.ring, self.ideal + [dict(g) for g in extra_gens if g])

    def parse(self, s):
        return self.ring.parse(s)

    def contains_one(self):
        return self.is_zero(self.ring.one())

    def __repr__(self):
        gens = ", ".join(self.ring.to_str(g) for g in self.ideal)
        return f"{self.ring.field}[{', '.join(self.ring.names)}]/({gens})"


class RingMap:
    """Ring homomorphism between presentations, by variable images."""

    def __init__(self, source: RingPresentation, target: RingPresentation,
                 images, check=True):
        self.source = source
        self.target = target
        self.images = [dict(v) for v in images]
        self._graph = None
        if len(self.images) != source.ring.nvars:
            raise ValueError("need one image per source variable")
        if check:
            for g in source.ideal:
                if not target.is_zero(self.apply(g)):
                    raise ValueError("ring map does not kill the ideal")

    @classmethod
    def identity(cls, pres: RingPresentation):
        return cls(pres, pres, [pres.ring.var(i)
                                for i in range(pres.ring.nvars)], check=False)

    def apply(self, p):
        """The image of a polynomial, or of a module element entry by
        entry: each term keeps its position."""
        tring = self.target.ring
        out = {}
        for (m, pos), c in p.items():
            term = m_scale(tring.field, c, tring.one())
            for i, e in enumerate(m):
                for _ in range(e):
                    term = tring.mul(term, self.images[i])
            if pos:
                term = {(mm, pos): cc for (mm, _), cc in term.items()}
            out = m_add(tring.field, out, term)
        return out

    def compose(self, inner):
        return RingMap(inner.source, self.target,
                       [self.apply(v) for v in inner.images], check=False)

    def with_source(self, source):
        """The map with the same images from ``source``, a presentation on
        the same polynomial ring whose ideal the map kills.  The graph basis
        reads only the target and the images, so the two maps share it."""
        out = RingMap(source, self.target, self.images, check=False)
        out._graph = self.graph_basis()
        return out

    def graph_basis(self):
        """The graph ideal (target ideal) + (z_i - image_i) in the ring of
        the target variables followed by the source variables z_i, and its
        reduced basis under the order that eliminates the target variables.

        Returns (ring, key, basis, leading terms, contraction), computed
        once per map.  The contraction, the basis elements free of target
        variables, generates the kernel; an element of the target lies in
        the image exactly when its normal form is free of them, and the
        normal form is then a preimage (Cox, Little & O'Shea, Ideals,
        Varieties, and Algorithms, ch. 7 Sec. 3)."""
        if self._graph is None:
            src, tgt = self.source, self.target
            joint = PolyRing(src.ring.field,
                             [f"_k{n}" for n in tgt.ring.names]
                             + list(src.ring.names))
            off = tgt.ring.nvars
            rels = [embed(g, joint, 0) for g in tgt.ideal]
            rels += [joint.sub(joint.var(off + i), embed(img, joint, 0))
                     for i, img in enumerate(self.images)]
            key, gb, contraction = elimination_basis(joint.field, rels,
                                                     range(off))
            self._graph = (joint, key, gb, [m_lt(g, key) for g in gb],
                           contraction)
        return self._graph

    def kernel(self):
        """Generators of ker(source -> target): the contraction of the
        graph basis, restricted to the source variables."""
        off = self.target.ring.nvars
        return [{(mono[off:], 0): c for (mono, _), c in g.items()}
                for g in self.graph_basis()[4]]

    def preimage(self, elem):
        """A source polynomial that maps onto the target element ``elem``,
        or None: its normal form against the graph basis."""
        joint, key, gb, lts, _ = self.graph_basis()
        off = self.target.ring.nvars
        nf = m_reduce(joint.field, embed(elem, joint, 0), gb, key, lts)
        if any(any(mono[:off]) for (mono, _) in nf):
            return None
        return {(mono[off:], 0): c for (mono, _), c in nf.items()}


_UNSET = object()


class ModulePresentation:
    """coker( R^k --columns--> R^rank ) over a presented ring R."""

    def __init__(self, over: RingPresentation, rank, columns=()):
        self.over = over
        self.rank = rank
        self.columns = [dict(c) for c in columns if c]
        self._gb = None
        self._lts = None
        self._kbasis = _UNSET

    def relations(self):
        """The relations of M in R^rank over the ambient polynomial ring:
        the columns, then the ring's ideal in every position."""
        return self.columns + ideal_rows(self.over.ideal, self.rank)

    def gb(self):
        if self._gb is None:
            key = self.over.ring.mkey()
            self._gb = buchberger(self.over.ring.field, self.relations(), key)
            self._lts = [m_lt(g, key) for g in self._gb]
        return self._gb

    def nf(self, v):
        gb = self.gb()
        return m_reduce(self.over.ring.field, v, gb, self.over.ring.mkey(),
                        self._lts)

    def is_zero_elem(self, v):
        return not self.nf(v)

    def eq(self, v, w):
        return self.is_zero_elem(m_sub(self.over.ring.field, v, w))

    def basis_elem(self, i):
        return {((0,) * self.over.ring.nvars, i): self.over.ring.field.one()}

    def dim(self):
        basis = self.kbasis()
        return None if basis is None else len(basis)

    def kbasis(self):
        """The standard monomials of M, or None if M is infinite dimensional;
        computed once, from ``gb()``."""
        if self._kbasis is _UNSET:
            self._kbasis = standard_monomials(self)
        return self._kbasis

    def __repr__(self):
        return f"ModulePresentation(rank={self.rank}, nrels={len(self.columns)})"


# -- kernels, homology, Tor ----------------------------------------------------


def ideal_rows(gens, rank):
    """The relations g e_i of (ideal) R^rank: each generator g in each
    position i, generator by generator."""
    return [{(m, i): c for (m, _), c in g.items()}
            for g in gens for i in range(rank)]


def ideal_intersection(over: RingPresentation, gens1, gens2):
    """Generators of I cap J, as the kernel of R -> R/I (+) R/J."""
    one = (0,) * over.ring.nvars
    col = {(one, 0): over.ring.field.one(), (one, 1): over.ring.field.one()}
    rels = [{(mono, 0): c for (mono, _), c in g.items()} for g in gens1]
    rels += [{(mono, 1): c for (mono, _), c in g.items()} for g in gens2]
    ker = kernel_of_matrix(over, [col], 2, rels)
    return [{(mono, 0): c for (mono, _), c in g.items()} for g in ker]


def kernel_of_matrix(over: RingPresentation, cols, out_rank, out_relations=()):
    """Reduced Groebner basis of {x in R^k : sum x_i cols_i lies in the span
    of out_relations} over the presented ring R (the ideal is always
    absorbed).  One ``syzygies`` call: only the k columns are tagged, and
    the relations and the rows of the ring's reduced basis go in untagged."""
    return syzygies(over.ring.field, cols, out_rank, over.ring.nvars,
                    over.ring.key,
                    relations=(list(out_relations)
                               + ideal_rows(over.gb(), out_rank)))


def kernel_of_module_map(phi_cols, m: ModulePresentation, n: ModulePresentation):
    """Generators of the kernel of the induced map M -> N given by columns
    phi_cols (images of M's basis in R^n.rank), as columns in R^m.rank.
    Their relations, when a caller needs K presented, are
    ``kernel_of_matrix(m.over, gens, m.rank, m.columns)``.  ValueError when
    the columns do not define a map of presented modules."""
    _check_map(phi_cols, m, n)
    return kernel_of_matrix(m.over, phi_cols, n.rank, n.columns)


def _check_map(phi_cols, m: ModulePresentation, n: ModulePresentation):
    """ValueError unless the columns send every relation of M to zero in N."""
    field = m.over.ring.field
    for col in m.columns:
        if not n.is_zero_elem(_apply_cols(field, phi_cols, col)):
            raise ValueError("matrix does not define a map of presented modules")


def _apply_cols(field, cols, vec):
    """Apply the matrix with the given columns to a vector (module element)."""
    out = {}
    for (mono, pos), c in vec.items():
        out = m_add(field, out, m_shift(field, c, mono, cols[pos]))
    return out


def is_injective(phi_cols, m: ModulePresentation, n: ModulePresentation):
    """Whether the map M -> N given by the columns phi_cols is injective:
    the homology of R^s --M's columns--> R^m.rank --phi--> N vanishes.
    ValueError when the columns do not define a map of presented modules."""
    _check_map(phi_cols, m, n)
    return homology(m, phi_cols, n)


def lift_through(vecs, n: ModulePresentation, targets):
    """For each of the ``targets`` in R^n.rank, coefficients c with target -
    sum c_i vecs_i zero in N, or None when there are none.

    Same elimination as ``syzygies``, with N's relations untagged and one
    augmented basis for all targets: the normal form of a target against it
    lies wholly in the tag positions exactly when the target lies in
    span(vecs) + span(relations), and then it is -c."""
    ring = n.over.ring
    field, rank = ring.field, n.rank
    gb, key = _augmented_gb(field, vecs, rank, ring.nvars, ring.key,
                            n.relations())
    lts = [m_lt(g, key) for g in gb]
    out = []
    for target in targets:
        r = m_reduce(field, target, gb, key, lts)
        out.append(None if any(p < rank for (_, p) in r) else
                   {(m, p - rank): field.neg(c) for (m, p), c in r.items()})
    return out


def module_map_inverse(phi_cols, m: ModulePresentation, n: ModulePresentation):
    """Columns over R^m.rank of the inverse of the map phi: M -> N given by
    the columns phi_cols, or None when phi is not bijective.  ValueError
    when the columns do not define a map of presented modules.

    The candidate inverse psi is the lifts of N's basis vectors through
    phi_cols, from one augmented basis.  phi is bijective exactly when
    every lift exists (phi is onto), psi sends N's relation columns to zero
    in M (psi is a map N -> M), and psi phi(e_i) = e_i in M (phi is one to
    one); no kernel is built."""
    _check_map(phi_cols, m, n)
    psi = lift_through(phi_cols, n, [n.basis_elem(i) for i in range(n.rank)])
    if any(w is None for w in psi):
        return None
    field = m.over.ring.field
    if not all(m.is_zero_elem(_apply_cols(field, psi, col))
               for col in n.columns):
        return None
    if not all(m.eq(_apply_cols(field, psi, phi_cols[i]), m.basis_elem(i))
               for i in range(m.rank)):
        return None
    return psi


def homology(mid: ModulePresentation, b_cols, out: ModulePresentation):
    """Whether the homology ker(B)/im(A) vanishes at the middle of
       R^s --A--> R^mid.rank --B--> R^out.rank
    where the columns of A are among ``mid``'s relation columns (the rest
    are relations of the middle term) and ``out``'s columns are those of
    the outer term: every generator of the kernel of B modulo ``out``'s
    columns is zero in ``mid``."""
    return all(mid.is_zero_elem(k) for k in
               kernel_of_matrix(mid.over, b_cols, out.rank, out.columns))


def tor1_along(rmap: RingMap, cols, rank, n: ModulePresentation):
    """Whether Tor_1^R(coker(R^a --cols--> R^rank), N) vanishes, for a
    module N over S = ``rmap.target``, with R = ``rmap.source``.

    The cokernel is resolved over R as F2 --d2--> F1 = R^a --cols--> F0 =
    R^rank, d2 from one syzygy computation.  Both maps are carried along
    ``rmap`` and tensored with N: F_i (x) N is a sum of copies of N, one
    block of n.rank positions per basis vector of F_i, presented over S by
    N's relations in every block, and a column d of a map becomes the block
    columns d (x) e_u, one per basis vector e_u of N.  Tor_1 is the
    homology at F1 (x) N; a free cokernel (no columns) has none."""
    if not cols:
        return True
    r = n.rank

    def tensored(d):
        return [{(mono, pos * r + u): c
                 for (mono, pos), c in rmap.apply(col).items()}
                for col in d for u in range(r)]

    def relation_blocks(count):
        return [{(mono, j * r + pos): c for (mono, pos), c in rel.items()}
                for j in range(count) for rel in n.columns]

    d2 = kernel_of_matrix(rmap.source, cols, rank)
    mid = ModulePresentation(rmap.target, len(cols) * r,
                             tensored(d2) + relation_blocks(len(cols)))
    return homology(mid, tensored(cols), ModulePresentation(
        rmap.target, rank * r, relation_blocks(rank)))


def tor1(m: ModulePresentation, j_gens):
    """Whether Tor_1^R(M, R/J) vanishes, for the presented module M and
    ideal J of R: M resolved over R and tensored with R/J along the
    quotient map."""
    ring = m.over.ring
    rq = m.over.quotient(j_gens)
    to_rq = RingMap(m.over, rq, [ring.var(i) for i in range(ring.nvars)],
                    check=False)
    return tor1_along(to_rq, m.columns, m.rank, ModulePresentation(rq, 1))


def regular_element_test(f, m: ModulePresentation):
    """Whether multiplication by f is injective on M."""
    return is_injective(ideal_rows([f], m.rank), m, m)


# -- vector space structure ----------------------------------------------------


def standard_monomials(mp: ModulePresentation):
    """Standard monomials (mono, pos) of M against its own Groebner basis,
    sorted, or None if M is infinite dimensional.

    Finiteness is decided from the leading terms before any monomial is
    enumerated, so the enumeration of a finite quotient always ends."""
    mp.gb()
    leads = mp._lts
    nv = mp.over.ring.nvars
    basis = []
    for pos in range(mp.rank):
        pos_leads = [m for (m, p) in leads if p == pos]
        if (0,) * nv in pos_leads:
            continue  # the whole position dies
        # finite iff every variable is capped at this position
        for v in range(nv):
            if not any(all(e == 0 for i, e in enumerate(m) if i != v)
                       and m[v] > 0 for m in pos_leads):
                return None
        stack = [(0,) * nv]
        seen = set()
        while stack:
            mono = stack.pop()
            if mono in seen:
                continue
            if any(_divides(lm, mono) for lm in pos_leads):
                continue
            seen.add(mono)
            basis.append((mono, pos))
            for v in range(nv):
                nxt = tuple(e + (1 if i == v else 0) for i, e in enumerate(mono))
                stack.append(nxt)
    return sorted(basis, key=mp.over.ring.mkey())


def vector_space_basis(over: RingPresentation, rank, rel_cols):
    """Standard monomials (mono, pos) of the quotient, or None if infinite."""
    return ModulePresentation(over, rank, rel_cols).kbasis()


# -- elimination -------------------------------------------------------------------


def elimination_basis(field, gens, elim):
    """The reduced basis of the ideal generated by ``gens`` under the order
    that eliminates the variables ``elim`` (their total degree first, then
    degrevlex, so every monomial in them is larger than every monomial free
    of them), as (key, basis, contraction): the basis elements free of
    ``elim`` are a basis of the ideal's contraction to the other
    variables."""
    elim = tuple(elim)
    key = module_key(lambda mono: (sum(map(mono.__getitem__, elim)),
                                   degrevlex_key(mono)))
    key.tag = ("elim", elim)
    gb = buchberger(field, gens, key)
    return key, gb, [g for g in gb if all(all(mono[i] == 0 for i in elim)
                                          for (mono, _) in g)]


def eliminate_ideal(pres: RingPresentation, keep):
    """Generators of the contraction of the ideal to the kept variables."""
    ring = pres.ring
    elim = [i for i in range(ring.nvars) if i not in keep]
    return elimination_basis(ring.field, pres.ideal, elim)[2]


# -- toric ideals ---------------------------------------------------------------


class NotPointed(ValueError):
    pass


def toric_ideal(p_monoid, field=QQ, names=None, allow_units=False):
    """k[P] presented by the kernel of z_i |-> [g_i]: the lattice ideal of the
    relation lattice saturated at every variable (Sturmfels, Groebner Bases
    and Convex Polytopes, ch. 12).

    The binomials come from an LLL-reduced basis of the relation lattice:
    short vectors keep the saturations' Groebner bases small, and the
    saturated ideal, hence its reduced basis, does not depend on the basis.
    For a pointed monoid the saturation is revlex division by each variable
    (the lattice ideal is positively graded).  With units it is Rabinowitsch
    elimination: for a group, whose lattice ideal of a basis need not be
    saturated either (Z on 3, 2, -2), and in the mixed case, reachable only
    with allow_units, for the chart layer.

    Returns (RingPresentation, degrees), degrees the ambient element per
    variable.
    """
    has_units = bool(p_monoid.unit_indices())
    if has_units and not allow_units and not p_monoid.is_group():
        raise NotPointed("toric presentation needs a pointed monoid "
                         "(split units off first)")
    gens = p_monoid.generators
    n = len(gens)
    if names is None:
        names = [f"z{i}" for i in range(n)] if n != 2 else ["x", "y"]
        if n == 1:
            names = ["x"]
        if n == 3:
            names = ["z1", "z2", "z3"]
    ring = PolyRing(field, names)
    binomials = []
    for a in abgrp.lll_reduce(p_monoid.relation_lattice()):
        plus = tuple(max(x, 0) for x in a)
        minus = tuple(max(-x, 0) for x in a)
        binomials.append(ring.sub(ring.monomial(plus), ring.monomial(minus)))
    if has_units:
        # saturate at the product of all variables by elimination
        wring = PolyRing(field, list(names) + ["_w"])
        lifted = []
        for g in binomials:
            lifted.append({(mono + (0,), 0): c for (mono, _), c in g.items()})
        prod = wring.var(n)
        for i in range(n):
            prod = wring.mul(prod, wring.var(i))
        lifted.append(wring.sub(wring.one(), prod))
        sat = eliminate_ideal(RingPresentation(wring, lifted), keep=range(n))
        current = [{(mono[:n], 0): c for (mono, _), c in g.items()}
                   for g in sat]
    else:
        # positive weights from the certifying functional make the lattice
        # ideal homogeneous, so saturation per variable is revlex division
        lam = p_monoid._positive_functional()
        weights = [sum(map(mul, lam, g)) for g in gens]
        current = binomials
        for i in range(n):
            key = weighted_revlex_key(weights, i)
            gb = buchberger(field, current, module_key(key))
            divided = []
            for g in gb:
                drop = min(m[i] for (m, _) in g)
                if drop:
                    g = {(tuple(e - (drop if t == i else 0)
                                for t, e in enumerate(m)), p): c
                         for (m, p), c in g.items()}
                divided.append(g)
            current = divided
    pres = RingPresentation(ring, buchberger(field, current, ring.mkey()))
    return pres, list(gens)


def monomial_module_presentation(p_monoid, ring_pres, m_module):
    """k[M] as a module over k[P] for an embedded module M, when P is the
    standard free monoid N^n: the pairwise join relations present the module
    exactly (Taylor relations)."""
    if not _is_standard_free(p_monoid):
        raise ValueError("monomial_module_presentation needs P = N^n with "
                         "the standard generators")
    field = ring_pres.ring.field
    gens = list(m_module.generators)
    cols = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            (gi, ci), (gj, cj) = gens[i], gens[j]
            if ci != cj:
                continue
            join = tuple(map(max, gi, gj))
            ei = tuple(map(sub, join, gi))
            ej = tuple(map(sub, join, gj))
            cols.append(m_add(field, {(ei, i): field.one()},
                              {(ej, j): field.neg(field.one())}))
    return ModulePresentation(ring_pres, len(gens), cols)


def _is_standard_free(p_monoid):
    """Whether P is N^n generated by e_1, ..., e_n in this order, so that
    ambient coordinates are exponents of the variables of k[P]."""
    amb = p_monoid.ambient
    std = tuple(tuple(1 if j == i else 0 for j in range(amb.rank))
                for i in range(amb.rank))
    return not amb.torsion and p_monoid.generators == std
