"""Fine monoids: membership, units, faces, localization, pushout and the
morphism classifiers (injective, surjective, strict, vertical, flat, free).

A fine monoid is kept embedded: a finite generator list inside an ambient
finitely generated abelian group.  Integrality is automatic and the word
problem is group arithmetic.  Membership is decided exactly: reduce modulo
the unit subgroup, then branch-and-bound in the sharp quotient, bounded by
a strictly positive integer functional on the sharp generators: the sum of
the extreme rays of their dual cone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .abgrp import (
    FgAbGroup,
    GroupHom,
    direct_sum,
    pushout,
)
from . import qcone


def _lam_value(lam, x):
    """lam . x over the free coordinates (lam has one entry per free rank)."""
    return sum(map(operator.mul, lam, x))


class AmbientMismatch(ValueError):
    pass


class NotSubmonoid(ValueError):
    pass


class FineMonoid:
    """Finitely generated integral monoid embedded in an FgAbGroup."""

    def __init__(self, ambient: FgAbGroup, generators):
        self.ambient = ambient
        gens = []
        for g in generators:
            g = ambient.reduce(g)
            if not ambient.is_zero(g) and g not in gens:
                gens.append(g)
        self.generators = tuple(gens)
        self._cache = {}

    def __eq__(self, other):
        return (isinstance(other, FineMonoid) and self.ambient == other.ambient
                and self.generators == other.generators)

    def __hash__(self):
        return hash((self.ambient, self.generators))

    def __repr__(self):
        return f"FineMonoid({self.ambient!r}, {list(self.generators)!r})"

    # -- relation lattice and units ---------------------------------------

    def generator_hom(self):
        """The hom Z^n -> ambient sending e_i to the i-th generator.  Its
        image is the groupification P^gp, its kernel lattice the relations."""
        if "gen_hom" not in self._cache:
            self._cache["gen_hom"] = GroupHom(
                FgAbGroup.free(len(self.generators)), self.ambient,
                self.generators)
        return self._cache["gen_hom"]

    def relation_lattice(self):
        """Basis of {a in Z^n : sum a_i g_i = 0 in the ambient group}."""
        return self.generator_hom().kernel_lattice()

    def _suffix_cones(self, gens, rank):
        """For each i, (lineality, rays) of the cone dual to the rational
        cone of ``gens[i:]`` over the first ``rank`` coordinates, which
        holds the free part of an element: one ``qcone.dual_states`` run
        over ``gens`` in reverse order, cached per generator order and rank."""
        cones = self._cache.setdefault("suffix_cones", {})
        if (gens, rank) not in cones:
            rows = [g[:rank] for g in reversed(gens)]
            cones[gens, rank] = list(qcone.dual_states(rows, rank))[::-1]
        return cones[gens, rank]

    def _dual_zero_sets(self):
        """One bitmask over the generators per extreme ray rho of the cone
        dual to the rational cone of the monoid: bit i is set when
        rho . g_i = 0.

        The rays are those of the dual cone of all the generators on their
        free coordinates; torsion does not change rational cones.  A ray is
        extreme modulo the lineality, which every generator is orthogonal
        to, so its zero set does not depend on the representative.  Neither
        depends on the order of the generators, so the cones are those
        ``member`` searches a sharp monoid with."""
        if "dual_zeros" not in self._cache:
            cones = self._suffix_cones(tuple(sorted(self.generators)),
                                       self.ambient.rank)
            rays = cones[0][1] if cones else []
            self._cache["dual_zeros"] = [
                sum(1 << i for i, g in enumerate(self.generators)
                    if not _lam_value(rho, g))
                for rho in rays]
        return self._cache["dual_zeros"]

    def unit_indices(self):
        """Indices of generators invertible in the monoid: those on which
        every dual ray vanishes.  By Farkas, -g_i lies in the rational cone
        exactly when g_i is orthogonal to the dual cone, and then a positive
        multiple of -g_i is an N-combination of the generators."""
        if "unit_idx" not in self._cache:
            units = (1 << len(self.generators)) - 1
            for z in self._dual_zero_sets():
                units &= z
            self._cache["unit_idx"] = frozenset(
                i for i in range(len(self.generators)) if units >> i & 1)
        return self._cache["unit_idx"]

    def is_sharp(self):
        return not self.unit_indices()

    def is_group(self):
        return all(i in self.unit_indices() for i in range(len(self.generators)))

    def _unit_hom(self):
        """The hom Z^u -> ambient onto the unit generators, in index order."""
        ugens = tuple(self.generators[i] for i in sorted(self.unit_indices()))
        return GroupHom(FgAbGroup.free(len(ugens)), self.ambient, ugens)

    def unit_group(self):
        """(U, inclusion U -> ambient) for the unit subgroup P* of the monoid."""
        u, incl, _ = self._unit_hom().image()
        return u, incl

    def _sharp_data(self):
        """(projection onto the sharp ambient, sharp monoid), P itself if sharp."""
        if "sharp" not in self._cache:
            if not self.unit_indices():
                self._cache["sharp"] = GroupHom.identity(self.ambient), self
            else:
                _, proj = self._unit_hom().cokernel()
                self._cache["sharp"] = proj, FineMonoid(
                    proj.target, [proj.apply(g) for g in self.generators])
        return self._cache["sharp"]

    def sharpening(self):
        """(P*, sharp monoid, projection MonoidHom P -> P-bar)."""
        u, _ = self.unit_group()
        proj, sharp = self._sharp_data()
        hom = MonoidHom(self, sharp, tuple(proj.apply(g) for g in self.generators))
        return u, sharp, hom

    def _positive_functional(self):
        """A strictly positive integer functional on the sharp generators:
        the sum of the extreme rays of the cone dual to them, read off the
        dual cones ``member`` searches with.

        The sharp quotient of a fine monoid is sharp, so the rational cone
        of its generators is pointed: a sharp generator is orthogonal to
        the lineality and, being nonzero on the free coordinates, not to
        every ray, so each ray is >= 0 on it and one is >= 1."""
        if "lambda" not in self._cache:
            _, sharp = self._sharp_data()
            gens = tuple(sorted(set(sharp.generators)))
            rank = sharp.ambient.rank
            rays = self._suffix_cones(gens, rank)[0][1] if gens else []
            lam = tuple(map(sum, zip(*rays))) if rays else (0,) * rank
            if any(_lam_value(lam, g) < 1 for g in gens):
                raise AssertionError(
                    "sharp quotient admits no positive functional")
            self._cache["lambda"] = lam
        return self._cache["lambda"]

    # -- membership --------------------------------------------------------

    def member(self, g):
        """Whether g is an N-combination of the generators.  Exact."""
        g = self.ambient.reduce(g)
        if not any(g):
            return True
        proj, sharp = self._sharp_data()
        target = proj.apply(g)
        memo = self._cache.setdefault("member_memo", {})
        if target not in memo:
            gens = tuple(sorted(set(sharp.generators)))
            memo[target] = self._search(sharp.ambient, gens,
                                        target) is not None
        return memo[target]

    def _search(self, amb, gens, target):
        """``_bounded_search`` over the sharp generators ``gens`` in
        ``amb``, bounded by the positive functional and pruned by the dual
        cones of the suffixes of ``gens``."""
        return _bounded_search(amb, self._positive_functional(), gens, target,
                               self._suffix_cones(gens, amb.rank))

    def nonneg_certificate(self, g):
        """The certificate of g: a multiplicity vector over the generators
        whose combination is g, or None when g is not in the monoid.  It is
        the one way an element becomes exponents: over the monoid of the
        variable degrees of a ring, it is the monomial of the element.

        On a sharp monoid it is the bounded search over the generators in
        their order, which returns the lexicographically first such vector.
        With units, the sharp part is the certificate of the image in the
        sharp quotient, and the unit part is balanced by a positive
        relation."""
        g = self.ambient.reduce(g)
        n = len(self.generators)
        if self.is_sharp():
            return self._search(self.ambient, self.generators, g)
        proj, sharp = self._sharp_data()
        smult = sharp.nonneg_certificate(proj.apply(g))
        if smult is None:
            return None
        counts = [0] * n
        acc = self.ambient.zero()
        for sg, k in zip(sharp.generators, smult):
            if k == 0:
                continue
            for i, gen in enumerate(self.generators):
                if proj.apply(gen) == sg and not self.ambient.is_zero(gen):
                    counts[i] += k
                    acc = self.ambient.add(acc, self.ambient.scale(k, gen))
                    break
        u = self.ambient.sub(g, acc)
        if not self.ambient.is_zero(u):
            unit_idx = sorted(self.unit_indices())
            sol = self._unit_hom().preimage(u)
            if sol is None:
                return None
            c = list(sol)
            if any(x < 0 for x in c):
                z = _positive_unit_relation(self)
                zu = [z[j] for j in unit_idx]
                t = 0
                for x, zv in zip(c, zu):
                    if x < 0:
                        if zv == 0:
                            return None
                        t = max(t, (-x + zv - 1) // zv)
                c = [x + t * zv for x, zv in zip(c, zu)]
            for x, i in zip(c, unit_idx):
                counts[i] += x
        return tuple(counts)

    # -- ideals, faces, primes ---------------------------------------------

    def faces(self):
        """All faces, as sorted tuples of generator indices belonging to the
        face, ordered by descending dimension then generator tuple.

        Each face is cut out by a functional of the dual cone, so it is the
        whole monoid or the generators a nonempty set of dual rays all
        vanish on: the zero sets of the rays closed under intersection.
        The face lattice of a cone is graded by dimension, so a face's
        dimension is the rank of the unit group, the least face, plus the
        length of the longest chain of faces below it, and the faces sort
        by that length."""
        if "faces" in self._cache:
            return self._cache["faces"]
        n = len(self.generators)
        masks = {(1 << n) - 1}
        for z in self._dual_zero_sets():
            masks |= {m & z for m in masks}
        # a proper subface has fewer generators, so it is ranked first
        below = {}
        for m in sorted(masks, key=int.bit_count):
            below[m] = max((below[f] + 1 for f in below if f & m == f),
                           default=0)
        found = [f for _, f in sorted(
            (-below[m], tuple(i for i in range(n) if m >> i & 1))
            for m in masks)]
        self._cache["faces"] = found
        return found

    def prime_ideals(self):
        """All prime ideals, as complements of faces."""
        primes = []
        for f in self.faces():
            gens = [self.generators[i] for i in range(len(self.generators))
                    if i not in f]
            primes.append(MonoidIdeal(self, gens))
        return primes

    def localize(self, s_gens):
        """(S^-1 P, localization hom) for the submonoid generated by s_gens.

        s_gens may be generator indices or ambient elements lying in P.
        """
        elems = []
        for s in s_gens:
            if isinstance(s, int):
                elems.append(self.generators[s])
            else:
                s = self.ambient.reduce(s)
                if not self.member(s):
                    raise NotSubmonoid("localizing set must lie in the monoid")
                elems.append(s)
        loc = FineMonoid(self.ambient,
                         list(self.generators) + [self.ambient.neg(s) for s in elems])
        hom = MonoidHom(self, loc, self.generators)
        return loc, hom


class MonoidIdeal:
    """Ideal I = union of (g + P) over the finite generator list."""

    def __init__(self, owner: FineMonoid, generators):
        self.owner = owner
        gens = []
        for g in generators:
            g = owner.ambient.reduce(g)
            if not owner.member(g):
                raise AmbientMismatch("ideal generator outside the monoid")
            if g not in gens:
                gens.append(g)
        self.generators = tuple(gens)

    def contains(self, x):
        x = self.owner.ambient.reduce(x)
        return any(self.owner.member(self.owner.ambient.sub(x, g))
                   for g in self.generators)

    def is_empty(self):
        return not self.generators

    def __eq__(self, other):
        if not isinstance(other, MonoidIdeal) or self.owner != other.owner:
            return False
        return (all(other.contains(g) for g in self.generators)
                and all(self.contains(g) for g in other.generators))

    def __hash__(self):
        return hash((self.owner, len(self.generators)))

    def __repr__(self):
        return f"MonoidIdeal({list(self.generators)!r})"

    def is_prime(self):
        return any(self == p for p in self.owner.prime_ideals())


def _bounded_search(amb, lam, gens, target, cones):
    """A multiplicity vector over ``gens`` expressing the reduced element
    ``target`` of ``amb``, or None.  Depth first, each generator in order
    and taken as often as the functional ``lam`` allows; the first vector
    found is returned at once, so only failed subsearches are memoized.

    ``cones[idx]`` is (lineality, rays) of the cone dual to the rational
    cone of ``gens[idx:]``.  A remainder outside that cone, on which some
    lineality vector does not vanish or some ray is negative, is no
    N-combination of ``gens[idx:]``, so its subsearch is cut without
    changing the order of the others or the vector found."""
    sub = amb.reduced_sub()
    lgs = [_lam_value(lam, g) for g in gens]
    n = len(gens)
    failed = set()

    def rec(t, idx):
        if not any(t):
            return (0,) * (n - idx)
        if idx == n or (t, idx) in failed:
            return None
        lineality, rays = cones[idx]
        # inside the cone lam >= 0, since lam is positive on every generator
        if not any(_lam_value(v, t) for v in lineality) and all(
                _lam_value(r, t) >= 0 for r in rays):
            g, lg = gens[idx], lgs[idx]
            top = _lam_value(lam, t) // lg if lg > 0 else 0
            cur = t
            for k in range(top + 1):
                rest = rec(cur, idx + 1)
                if rest is not None:
                    return (k,) + rest
                cur = sub(cur, g)
        failed.add((t, idx))
        return None

    return rec(target, 0)


class MonoidHom:
    """Monoid homomorphism, stored as images of the source generators."""

    def __init__(self, source: FineMonoid, target: FineMonoid, images,
                 check=True):
        self.source = source
        self.target = target
        self.images = tuple(target.ambient.reduce(v) for v in images)
        # set by the tagged builders (diagonal, boundary, pushout_tagged, ...)
        self.partition_tag = None
        self.free_structure = None
        self._img_hom = None
        self._img_mon = None
        if len(self.images) != len(source.generators):
            raise ValueError("need one image per source generator")
        if check:
            for v in self.images:
                if not target.member(v):
                    raise AmbientMismatch("image outside the target monoid")
            if any(any(self._image_hom().apply(a))
                   for a in source.relation_lattice()):
                raise ValueError("source relations are not respected")

    @classmethod
    def identity(cls, p):
        return cls(p, p, p.generators, check=False)

    def __repr__(self):
        return f"MonoidHom({self.source!r} -> {self.target!r})"

    def _image_hom(self):
        """The hom Z^n -> target ambient sending e_i to h(g_i)."""
        if self._img_hom is None:
            self._img_hom = GroupHom(FgAbGroup.free(len(self.images)),
                                     self.target.ambient, self.images)
        return self._img_hom

    def apply_gp(self, x):
        """Image of x under the induced map on groupifications.

        x must lie in the subgroup generated by the source generators;
        well defined because relations are checked at construction."""
        sol = self.source.generator_hom().preimage(x)
        return None if sol is None else self._image_hom().apply(sol)

    def compose(self, inner):
        """self o inner."""
        if inner.target != self.source:
            raise ValueError("composition mismatch")
        return MonoidHom(inner.source, self.target,
                         [self.apply_gp(v) for v in inner.images], check=False)

    def image_monoid(self):
        """The submonoid of the target generated by the images, built once
        per hom, so its dual cones and functional are computed once."""
        if self._img_mon is None:
            self._img_mon = FineMonoid(self.target.ambient, self.images)
        return self._img_mon

    def is_injective(self):
        """Injectivity on groupifications, which is that of the map itself as
        the monoids are integral: as in ``GroupHom.is_injective`` (Hopfian),
        whether the image has the canonical form of the source's group."""
        return (self.source.generator_hom().image()[0]
                == self._image_hom().image()[0])

    def is_surjective(self):
        img = self.image_monoid()
        return all(img.member(g) for g in self.target.generators)

    def groupification_hom(self):
        """(Q^gp, P^gp, induced GroupHom) with the groupifications presented
        abstractly from the generator lattices: column j of the lift of Q^gp
        writes its j-th generator over the source generators, so h sends it
        to that combination of the images."""
        qgp, _, q_lift = self.source.generator_hom().image()
        pgp, p_incl, _ = self.target.generator_hom().image()
        imgs = tuple(p_incl.preimage(self._image_hom().apply(q_lift.column(j)))
                     for j in range(qgp.dim))
        return qgp, pgp, GroupHom(qgp, pgp, imgs)


def groupification_cokernel(h: MonoidHom):
    """((P/Q)^gp, to_cok) where to_cok maps an ambient element of the target
    groupification to its class in the cokernel."""
    span, incl, _ = h.target.generator_hom().image()
    hom = GroupHom(FgAbGroup.free(len(h.images)), span,
                   tuple(incl.preimage(v) for v in h.images))
    cok, proj = hom.cokernel()

    def to_cok(x):
        p = incl.preimage(x)
        if p is None:
            raise AmbientMismatch("element outside the target groupification")
        return proj.apply(p)

    return cok, to_cok


def monoid_pushout(h1: MonoidHom, h2: MonoidHom):
    """Integral pushout P1 (+)_Q P2 (image in the pushout of groupifications).

    Returns (P, in1, in2); P is generated by in1(P1-generators) followed by
    in2(P2-generators).
    """
    if h1.source != h2.source:
        raise ValueError("pushout needs a common source")
    j1, j2 = pushout(h1.target.ambient, h2.target.ambient,
                     [(h1.apply_gp(g), h2.apply_gp(g))
                      for g in h1.source.generators])
    gens1 = [j1.apply(g) for g in h1.target.generators]
    gens2 = [j2.apply(g) for g in h2.target.generators]
    pout = FineMonoid(j1.target, gens1 + gens2)
    in1 = MonoidHom(h1.target, pout, gens1, check=False)
    in2 = MonoidHom(h2.target, pout, gens2, check=False)
    return pout, in1, in2


# -- free-basis witnesses ----------------------------------------------------


class FreeBasis:
    """Witness that a monoid hom h : Q -> P is free: a basis S with
    decompose(p) = (q, s) such that p = h(q) + s, plus structure maps."""

    def contains(self, x):
        """Whether x is a basis element: x lies in P and decomposes as
        (0, x), the decomposition being unique because h is free."""
        target = self.hom.target
        x = target.ambient.reduce(x)
        return target.member(x) and self.decompose(x)[1] == x

    def decompose(self, x):
        raise NotImplementedError

    def alpha_beta(self, s, t):
        """Structure maps: s + t = alpha(s,t) + h(beta(s,t))."""
        p = self.hom.target.ambient.add(s, t)
        q, a = self.decompose(p)
        return a, q


class ListFreeBasis(FreeBasis):
    """Finite explicit basis; decomposition by membership search."""

    def __init__(self, hom, elements):
        self.hom = hom
        self.elements = tuple(hom.target.ambient.reduce(e) for e in elements)

    def decompose(self, x):
        amb = self.hom.target.ambient
        x = amb.reduce(x)
        for s in self.elements:
            q = _preimage_in_source(self.hom, amb.sub(x, s))
            if q is not None:
                return q, s
        raise ValueError("element does not decompose over the basis")


class AllFreeBasis(FreeBasis):
    """Basis for 0 -> P: every element of P is a basis element."""

    def __init__(self, hom):
        self.hom = hom

    def decompose(self, x):
        return self.hom.source.ambient.zero(), self.hom.target.ambient.reduce(x)


class MinFreeBasis(FreeBasis):
    """Basis for N -> N^m free-coordinate maps 1 |-> v: subtract the largest
    multiple of v; generalizes the small diagonal (v = all ones)."""

    def __init__(self, hom, v):
        self.hom = hom
        self.v = tuple(v)

    def _q(self, x):
        return min(x[i] // self.v[i] for i in range(len(x)) if self.v[i] > 0)

    def decompose(self, x):
        amb = self.hom.target.ambient
        x = amb.reduce(x)
        q = self._q(x)
        s = tuple(x[i] - q * self.v[i] for i in range(len(x)))
        return (q,), amb.reduce(s)


class ProductFreeBasis(FreeBasis):
    """Componentwise basis for a product of free morphisms."""

    def __init__(self, hom, factors, tgt_projs, src_injs, tgt_injs):
        self.hom = hom
        self.factors = factors
        self.tgt_projs = tgt_projs
        self.src_injs = src_injs
        self.tgt_injs = tgt_injs

    def _split(self, x):
        return [p.apply(x) for p in self.tgt_projs]

    def decompose(self, x):
        qs, ss = [], []
        for f, xi in zip(self.factors, self._split(x)):
            q, s = f.decompose(xi)
            qs.append(q)
            ss.append(s)
        src_amb = self.hom.source.ambient
        tgt_amb = self.hom.target.ambient
        q = src_amb.zero()
        for inj, qi in zip(self.src_injs, qs):
            q = src_amb.add(q, inj.apply(qi))
        s = tgt_amb.zero()
        for inj, si in zip(self.tgt_injs, ss):
            s = tgt_amb.add(s, inj.apply(si))
        return q, s


class ComposeFreeBasis(FreeBasis):
    """Basis g(S) x T for a composition g o h of free morphisms."""

    def __init__(self, hom, inner_basis, outer_basis, outer_hom):
        self.hom = hom  # the composite
        self.inner = inner_basis
        self.outer = outer_basis
        self.g = outer_hom

    def decompose(self, x):
        p, t = self.outer.decompose(x)
        q, s = self.inner.decompose(p)
        gs = self.g.apply_gp(s)
        return q, self.g.target.ambient.add(gs, t)


class PushoutFreeBasis(FreeBasis):
    """Basis of a pushout Q' -> P' = P (+)_Q Q' of a free morphism h : Q -> P
    along f : Q -> Q': the image j1(S) of the original basis.

    P' is generated by j1(P-generators) and j2(Q'-generators), so one
    certificate of x splits it as j1(p) + j2(q').  With p = h(q) + s over S
    and j1 h = j2 f, x = j2(f(q) + q') + j1(s), and that decomposition is
    the only one because free morphisms are stable under pushout."""

    def __init__(self, hom, orig_basis, in_target, along):
        self.hom = hom          # Q' -> P', which is j2
        self.orig = orig_basis  # basis of Q -> P
        self.in_target = in_target  # j1 : P -> P'
        self.along = along      # f : Q -> Q'

    def decompose(self, x):
        target = self.hom.target
        x = target.ambient.reduce(x)
        mult = target.nonneg_certificate(x)
        if mult is None:
            raise ValueError("element not in the target monoid")
        p_amb, q2_amb = self.in_target.source.ambient, self.hom.source.ambient
        p, q2 = p_amb.zero(), q2_amb.zero()
        for g, k in zip(target.generators, mult):
            if not k:
                continue
            if g in self.in_target.images:
                i = self.in_target.images.index(g)
                p = p_amb.add(p, p_amb.scale(
                    k, self.in_target.source.generators[i]))
            else:
                i = self.hom.images.index(g)
                q2 = q2_amb.add(q2, q2_amb.scale(
                    k, self.hom.source.generators[i]))
        q, s = self.orig.decompose(p)
        return (q2_amb.add(self.along.apply_gp(q), q2),
                self.in_target.apply_gp(s))


class CosetFreeBasis(FreeBasis):
    """Basis for a strict injective morphism: coset representatives of
    P* / h(Q*), one per unit class, translated into the monoid."""

    def __init__(self, hom):
        self.hom = hom
        uq, uq_incl = hom.source.unit_group()
        up, up_incl = hom.target.unit_group()
        imgs = []
        for j in range(uq.dim):
            v = hom.apply_gp(uq_incl.apply(uq.generators()[j]))
            pre = up_incl.preimage(v)
            imgs.append(pre)
        self.unit_hom = GroupHom(uq, up, tuple(imgs))
        self.up_incl = up_incl
        _, self.w_proj = self.unit_hom.cokernel()
        self._reps = {}
        # proj o h : Q -> P-bar
        self.proj, sharp_t = hom.target._sharp_data()
        self.sharp_hom = MonoidHom(hom.source, sharp_t,
                                   [self.proj.apply(v) for v in hom.images],
                                   check=False)

    def _rep(self, cls):
        if cls not in self._reps:
            pre = self.w_proj.preimage(cls)
            self._reps[cls] = pre
        return self._reps[cls]

    def decompose(self, x):
        hom = self.hom
        amb = hom.target.ambient
        x = amb.reduce(x)
        # sharp part comes from the source through the sharpened isomorphism:
        # a certificate of the sharp class of x over the sharp images
        q0 = _preimage_in_source(self.sharp_hom, self.proj.apply(x))
        if q0 is None:
            raise ValueError("element not in the target monoid")
        u = amb.sub(x, hom.apply_gp(q0))
        # u is a unit of P; split off the canonical coset representative
        upre = self.up_incl.preimage(u)
        cls = self.w_proj.apply(upre)
        rep = self._rep(cls)
        diff = self.up_incl.source.sub(upre, rep)
        qu = self.unit_hom.preimage(diff)
        src_u, src_u_incl = hom.source.unit_group()
        q = hom.source.ambient.add(q0, src_u_incl.apply(qu))
        s = self.up_incl.apply(rep)
        return q, s


def _positive_unit_relation(mon: FineMonoid):
    """An integer vector z >= 0 over the generators with sum z_i g_i = 0 and
    z_i >= 1 for every unit generator (zero when there are no units): B c
    for the relation lattice basis B and one rational point c of
    (B c)_j >= 0 for every j and (B c)_i >= 1 for every unit i, its
    denominators cleared.  Solved once per monoid."""
    if "unit_relation" in mon._cache:
        return mon._cache["unit_relation"]
    n = len(mon.generators)
    total = [0] * n
    units = mon.unit_indices()
    if units:
        basis = mon.relation_lattice()
        rows = [tuple(col[j] for col in basis) for j in range(n)]
        pt = qcone.feasible_point(
            [(row, int(j in units)) for j, row in enumerate(rows)],
            len(basis))
        if pt is None:
            raise AssertionError("unit generators without positive relation")
        c = qcone.clear_denominators(pt)
        total = [sum(map(operator.mul, row, c)) for row in rows]
    mon._cache["unit_relation"] = total
    return total


def _preimage_in_source(hom: MonoidHom, d):
    """Find q in the source monoid with h(q) = d, or None: a certificate of d
    over the image monoid, each image generator taken from the first source
    generator that maps to it."""
    img_mon = hom.image_monoid()
    mult = img_mon.nonneg_certificate(d)
    if mult is None:
        return None
    src = hom.source.ambient
    q = src.zero()
    for v, k in zip(img_mon.generators, mult):
        if k:
            q = src.add(q, src.scale(
                k, hom.source.generators[hom.images.index(v)]))
    return q


# -- partition constructors --------------------------------------------------


def nat_monoid(m=1):
    """The free monoid N^m with its standard embedding."""
    amb = FgAbGroup.free(m)
    gens = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
    return FineMonoid(amb, gens)


def trivial_monoid():
    return FineMonoid(FgAbGroup.zero_group(), [])


def diagonal(m):
    """The small diagonal N -> N^m, tagged as a partition morphism."""
    q = nat_monoid(1)
    p = nat_monoid(m)
    h = MonoidHom(q, p, [(1,) * m], check=False)
    h.partition_tag = "partition"
    h.free_structure = MinFreeBasis(h, (1,) * m)
    return h

def boundary():
    """0 -> N, tagged as a partition morphism with boundary."""
    q = trivial_monoid()
    p = nat_monoid(1)
    h = MonoidHom(q, p, [], check=False)
    h.partition_tag = "boundary"
    h.free_structure = AllFreeBasis(h)
    return h


def identity_tagged(p):
    h = MonoidHom.identity(p)
    h.partition_tag = "partition"
    h.free_structure = ListFreeBasis(h, [p.ambient.zero()])
    return h


def product_hom(homs):
    """Product of morphisms, with combined tag and basis."""
    src_amb, src_injs, _ = direct_sum([h.source.ambient for h in homs])
    tgt_amb, tgt_injs, tgt_projs = direct_sum([h.target.ambient for h in homs])
    src = FineMonoid(src_amb, [inj.apply(g) for h, inj in zip(homs, src_injs)
                               for g in h.source.generators])
    tgt = FineMonoid(tgt_amb, [inj.apply(g) for h, inj in zip(homs, tgt_injs)
                               for g in h.target.generators])
    imgs = []
    for h, sinj, tinj in zip(homs, src_injs, tgt_injs):
        for g in h.source.generators:
            imgs.append(tinj.apply(h.apply_gp(g)))
    out = MonoidHom(src, tgt, imgs, check=False)
    tags = [h.partition_tag for h in homs]
    if all(t is not None for t in tags):
        out.partition_tag = "boundary" if "boundary" in tags else "partition"
    if all(h.free_structure is not None for h in homs):
        out.free_structure = ProductFreeBasis(
            out, [h.free_structure for h in homs],
            tgt_projs, src_injs, tgt_injs)
    return out


def compose_tagged(outer: MonoidHom, inner: MonoidHom):
    """outer o inner with tag and basis propagated (Lemma: basis g(S) x T)."""
    out = outer.compose(inner)
    if inner.partition_tag is not None and outer.partition_tag is not None:
        out.partition_tag = "boundary" if "boundary" in (
            inner.partition_tag, outer.partition_tag) else "partition"
    if inner.free_structure is not None and outer.free_structure is not None:
        out.free_structure = ComposeFreeBasis(
            out, inner.free_structure, outer.free_structure, outer)
    return out


def pushout_tagged(h: MonoidHom, f: MonoidHom):
    """Pushout of the (tagged) morphism h : Q -> P along f : Q -> Q'.

    Returns the morphism Q' -> P (+)_Q Q' with tag and basis propagated.
    """
    pout, in_p, in_q2 = monoid_pushout(h, f)
    out = MonoidHom(f.target, pout, in_q2.images, check=False)
    out.partition_tag = h.partition_tag
    if h.free_structure is not None:
        out.free_structure = PushoutFreeBasis(out, h.free_structure, in_p, f)
    return out


# -- the morphism classifier --------------------------------------------------


@dataclass
class Classification:
    injective: bool
    surjective: bool
    strict: bool
    vertical: bool
    flat: bool | None
    free: bool | None
    basis: object = None
    witness: dict = field(default_factory=dict)


def classify_morphism(h: MonoidHom):
    """Classify a morphism of fine monoids.

    flat / free use the module machinery when the target is finitely
    generated as a source-module, structural recognizers otherwise, and stay
    None (undecided) when nothing applies.
    """
    injective = h.is_injective()
    surjective = h.is_surjective()
    strict = _is_strict(h)
    vertical = _is_vertical(h)

    flat = None
    free = None
    basis = None
    witness = {}

    if h.partition_tag is not None:
        free = True
        flat = True
        basis = h.free_structure
    elif not injective:
        flat = False
        free = False
        witness["torsion"] = "groupification kernel meets the source"
    elif strict:
        free = True
        flat = True
        basis = CosetFreeBasis(h)
    elif h.source.is_group():
        free = True
        flat = True
        if h.source.ambient.is_trivial() or not h.source.generators:
            basis = AllFreeBasis(h)
    else:
        rec = _free_coordinate_recognizer(h)
        if rec is not None:
            free = True
            flat = True
            basis = rec
        else:
            from . import monmod
            mod = monmod.module_over_source(h)
            if mod is not None:
                verdict = monmod.is_flat(mod)
                flat = verdict.flat
                if verdict.flat:
                    res = monmod.extract_basis(mod)
                    free = res.ok
                    if res.ok:
                        basis = ListFreeBasis(h, [g for g, _ in res.basis])
                else:
                    free = False
                    witness["incomparable"] = verdict.witness
    return Classification(injective, surjective, strict, vertical, flat, free,
                          basis, witness)


def _is_strict(h: MonoidHom):
    """Whether the induced map of sharp monoids is an isomorphism.  It has the
    image of h followed by the target's sharpening, which must be onto and,
    Hopfian, have the canonical form of the sharp source's group."""
    proj_t, sharp_t = h.target._sharp_data()
    _, sharp_s = h.source._sharp_data()
    onto = h if sharp_t is h.target else MonoidHom(
        h.source, sharp_t, [proj_t.apply(v) for v in h.images], check=False)
    return (onto._image_hom().image()[0] == sharp_s.generator_hom().image()[0]
            and onto.is_surjective())


def _is_vertical(h: MonoidHom):
    """Whether the cokernel monoid P/Q is a group: -p lies in M = P + Z h(Q)
    for every generator p of P, listed first in M; by Farkas, whether every
    such p is among M's unit indices."""
    tgt = h.target
    big = FineMonoid(tgt.ambient, tgt.generators + h.images
                     + tuple(tgt.ambient.neg(v) for v in h.images))
    return all(i in big.unit_indices() for i in range(len(tgt.generators)))


def _free_coordinate_recognizer(h: MonoidHom):
    """N -> N^m shaped maps 1 |-> v with v nonzero: free with the min-basis."""
    src, tgt = h.source, h.target
    if len(src.generators) != 1 or src.unit_indices():
        return None
    if tgt.ambient.torsion or tgt.unit_indices():
        return None
    m = tgt.ambient.rank
    std = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
    if sorted(tgt.generators) != sorted(std):
        return None
    v = h.images[0]
    if any(c < 0 for c in v) or all(c == 0 for c in v):
        return None
    return MinFreeBasis(h, v)
