"""Fine monoids: membership, units, faces, localization, pushout and the
morphism classifiers (injective, surjective, strict, vertical, flat, free).

A fine monoid is kept embedded: a finite generator list inside an ambient
finitely generated abelian group.  Integrality is automatic and the word
problem is group arithmetic.  Membership is decided exactly: reduce modulo
the unit subgroup, then branch-and-bound in the sharp quotient, certified by
a strictly positive rational functional on the sharp generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abgrp import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    direct_sum,
    pushout,
    smith_normal_form,
)
from . import qcone
from .polyalg import QQ, row_reduce


def _lam_value(lam, x):
    """lam . x over the free coordinates (lam has one entry per free rank)."""
    return sum(l * v for l, v in zip(lam, x))


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

    def _dual_zero_sets(self):
        """One bitmask over the generators per extreme ray rho of the cone
        dual to the rational cone of the monoid: bit i is set when
        rho . g_i = 0.

        The rays come from ``qcone.dual_rays`` on the free coordinates of
        the generators, restricted to their pivot columns so that the
        generators span and the dual cone is pointed; torsion does not
        change rational cones."""
        if "dual_zeros" not in self._cache:
            rank = self.ambient.rank
            free = [g[:rank] for g in self.generators]
            _, cols = row_reduce(QQ, [[QQ.of_int(x) for x in v] for v in free],
                                 rank)
            rows = [tuple(v[j] for j in cols) for v in free]
            self._cache["dual_zeros"] = [
                sum(1 << i for i, v in enumerate(rows)
                    if not _lam_value(rho, v))
                for rho in qcone.dual_rays(rows, len(cols))]
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
        """(projection hom ambient -> sharp ambient, sharp monoid)."""
        if "sharp" in self._cache:
            return self._cache["sharp"]
        if self.unit_indices():
            _, proj = self._unit_hom().cokernel()
        else:
            proj = GroupHom.identity(self.ambient)
        sharp = FineMonoid(proj.target, [proj.apply(g) for g in self.generators])
        self._cache["sharp"] = (proj, sharp)
        return proj, sharp

    def sharpening(self):
        """(P*, sharp monoid, projection MonoidHom P -> P-bar)."""
        u, _ = self.unit_group()
        proj, sharp = self._sharp_data()
        hom = MonoidHom(self, sharp, tuple(proj.apply(g) for g in self.generators))
        return u, sharp, hom

    def _positive_functional(self):
        """Strictly positive rational functional on the sharp generators.

        Exists because the sharp quotient of a fine monoid is sharp; failure
        would mean 0 lies in the convex hull of the generators."""
        if "lambda" in self._cache:
            return self._cache["lambda"]
        proj, sharp = self._sharp_data()
        vecs = sorted({g[:sharp.ambient.rank] for g in sharp.generators})
        lam = qcone.positive_functional(vecs, sharp.ambient.rank) \
            if vecs else ()
        if vecs and lam is None:
            raise AssertionError("sharp quotient admits no positive functional")
        self._cache["lambda"] = lam
        return lam

    def _integer_functional(self):
        """The least positive integer multiple of ``_positive_functional``.

        The membership searches only compare and divide its values, which
        a positive scaling leaves unchanged, and integers are faster."""
        if "int_lambda" not in self._cache:
            self._cache["int_lambda"] = tuple(
                qcone.clear_denominators(self._positive_functional()))
        return self._cache["int_lambda"]

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
            gens = sorted(set(sharp.generators))
            memo[target] = _bounded_search(
                sharp.ambient, self._integer_functional(), gens,
                target) is not None
        return memo[target]

    def member_with_certificate(self, g):
        """(True, multiplicity vector over the generators) or (False, None).

        Only valid for sharp monoids, where the search is directly bounded.
        """
        if self.unit_indices():
            raise ValueError("certificates require a sharp monoid")
        out = _bounded_search(self.ambient, self._integer_functional(),
                              self.generators, self.ambient.reduce(g))
        return (True, out) if out is not None else (False, None)

    def nonneg_certificate(self, g):
        """A multiplicity vector over the generators expressing g, or None.

        Unlike ``member_with_certificate`` this also handles monoids with
        units: the sharp part is certified by bounded search and the unit
        part is balanced by a positive relation."""
        g = self.ambient.reduce(g)
        n = len(self.generators)
        if self.is_sharp():
            ok, mult = self.member_with_certificate(g)
            return mult if ok else None
        if not self.member(g):
            return None
        proj, sharp = self._sharp_data()
        ok, smult = sharp.member_with_certificate(proj.apply(g))
        if not ok:
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
        vanish on: the zero sets of the rays closed under intersection."""
        if "faces" in self._cache:
            return self._cache["faces"]
        n = len(self.generators)
        masks = {(1 << n) - 1}
        for z in self._dual_zero_sets():
            masks |= {m & z for m in masks}
        found = [tuple(i for i in range(n) if m >> i & 1) for m in masks]

        def face_dim(f):
            cols = [list(self.generators[i]) for i in f]
            if not cols:
                return 0
            m = IntMatrix.from_columns(cols, nrows=self.ambient.dim)
            _, d, _ = smith_normal_form(m)
            return sum(1 for i in range(min(m.rows, m.cols)) if d[i, i] != 0)

        found.sort(key=lambda f: (-face_dim(f), f))
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

    def elements_up_to(self, degree):
        """All N-combinations of the generators with total multiplicity <= degree."""
        out = {self.ambient.zero()}
        frontier = {self.ambient.zero()}
        for _ in range(degree):
            nxt = set()
            for x in frontier:
                for g in self.generators:
                    nxt.add(self.ambient.add(x, g))
            frontier = nxt - out
            out |= nxt
        return sorted(out)


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


def _bounded_search(amb, lam, gens, target):
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


class MonoidHom:
    """Monoid homomorphism, stored as images of the source generators."""

    def __init__(self, source: FineMonoid, target: FineMonoid, images,
                 partition_tag=None, free_structure=None, check=True):
        self.source = source
        self.target = target
        self.images = tuple(target.ambient.reduce(v) for v in images)
        self.partition_tag = partition_tag
        self.free_structure = free_structure
        self._img_hom = None
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
        return FineMonoid(self.target.ambient, self.images)

    def kernel_lattice(self):
        """Basis of {a in Z^n : sum a_i h(g_i) = 0}; n = number of source gens."""
        return self._image_hom().kernel_lattice()

    def is_injective(self):
        """Injectivity of the induced map on groupifications (equivalently, of
        the monoid map itself, since the monoids are integral)."""
        src_rel = self.source.relation_lattice()
        rel_span = GroupHom(FgAbGroup.free(len(src_rel)),
                            FgAbGroup.free(len(self.images)), tuple(src_rel))
        return all(rel_span.preimage(a) is not None
                   for a in self.kernel_lattice())

    def is_surjective(self):
        img = self.image_monoid()
        return all(img.member(g) for g in self.target.generators)

    def groupification_hom(self):
        """(Q^gp, P^gp, induced GroupHom) with the groupifications presented
        abstractly from the generator lattices."""
        qgp, q_incl, _ = self.source.generator_hom().image()
        pgp, p_incl, _ = self.target.generator_hom().image()
        imgs = []
        for j in range(qgp.dim):
            amb = q_incl.apply(qgp.generators()[j])
            img_amb = self.apply_gp(amb)
            pre = p_incl.preimage(img_amb)
            if pre is None:
                raise AssertionError("image misses the target groupification")
            imgs.append(pre)
        return qgp, pgp, GroupHom(qgp, pgp, tuple(imgs))


def groupification_cokernel(h: MonoidHom):
    """((P/Q)^gp, to_cok) where to_cok maps an ambient element of the target
    groupification to its class in the cokernel."""
    src_gens = [h.apply_gp(g) for g in h.source.generators]
    free_src = FgAbGroup.free(len(src_gens)) if src_gens else FgAbGroup.zero_group()
    span, incl, _ = h.target.generator_hom().image()
    pre = [incl.preimage(v) for v in src_gens]
    hom = GroupHom(free_src, span, tuple(pre))
    cok, proj = hom.cokernel()

    def to_cok(x):
        p = incl.preimage(x)
        if p is None:
            raise AmbientMismatch("element outside the target groupification")
        return proj.apply(p)

    return cok, to_cok


def monoid_pushout(h1: MonoidHom, h2: MonoidHom):
    """Integral pushout P1 (+)_Q P2 (image in the pushout of groupifications).

    Returns (P, in1, in2, was_integral) where was_integral is True when the
    set-level pushout is known to be integral already (a flat leg), else None.
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
    was_integral = None
    for leg in (h1, h2):
        cls = classify_morphism(leg, deep=False)
        if cls.flat:
            was_integral = True
            break
    return pout, in1, in2, was_integral


# -- free-basis witnesses ----------------------------------------------------


class FreeBasis:
    """Witness that a monoid hom h : Q -> P is free: a basis S with
    decompose(p) = (q, s) such that p = h(q) + s, plus structure maps."""

    def contains(self, x):
        raise NotImplementedError

    def decompose(self, x):
        raise NotImplementedError

    def enumerate(self, degree):
        """Basis elements among all P-elements of generator-degree <= degree."""
        return [x for x in self.hom.target.elements_up_to(degree)
                if self.contains(x)]

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

    def contains(self, x):
        return self.hom.target.ambient.reduce(x) in self.elements

    def decompose(self, x):
        amb = self.hom.target.ambient
        x = amb.reduce(x)
        img = self.hom.image_monoid()
        for s in self.elements:
            d = amb.sub(x, s)
            if img.member(d):
                q = _preimage_in_source(self.hom, d)
                if q is not None:
                    return q, s
        raise ValueError("element does not decompose over the basis")


class AllFreeBasis(FreeBasis):
    """Basis for 0 -> P: every element of P is a basis element."""

    def __init__(self, hom):
        self.hom = hom

    def contains(self, x):
        return self.hom.target.member(x)

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

    def contains(self, x):
        x = self.hom.target.ambient.reduce(x)
        return all(c >= 0 for c in x) and self._q(x) == 0

    def decompose(self, x):
        amb = self.hom.target.ambient
        x = amb.reduce(x)
        q = self._q(x)
        s = tuple(x[i] - q * self.v[i] for i in range(len(x)))
        return (q,), amb.reduce(s)


class ProductFreeBasis(FreeBasis):
    """Componentwise basis for a product of free morphisms."""

    def __init__(self, hom, factors, src_projs, tgt_projs, src_injs, tgt_injs):
        self.hom = hom
        self.factors = factors
        self.src_projs = src_projs
        self.tgt_projs = tgt_projs
        self.src_injs = src_injs
        self.tgt_injs = tgt_injs

    def _split(self, x):
        return [p.apply(x) for p in self.tgt_projs]

    def contains(self, x):
        return all(f.contains(xi) for f, xi in zip(self.factors, self._split(x)))

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

    def contains(self, x):
        try:
            q, _ = self.decompose(x)
        except ValueError:
            return False
        return self.hom.source.ambient.is_zero(
            self.hom.source.ambient.reduce(q))


class PushoutFreeBasis(FreeBasis):
    """Basis of a pushout of a free morphism: the image of the original basis.

    Decomposition searches basis elements by degree and certifies the
    remainder lies in the image of the new source."""

    def __init__(self, hom, orig_basis, in_target, search_degree=12):
        self.hom = hom          # Q' -> P'
        self.orig = orig_basis  # basis of Q -> P
        self.in_target = in_target  # P -> P'
        self.search_degree = search_degree

    def _candidates(self):
        for d in range(self.search_degree + 1):
            for s in self.orig.enumerate(d):
                yield self.in_target.apply_gp(s)

    def contains(self, x):
        amb = self.hom.target.ambient
        x = amb.reduce(x)
        seen = set()
        for c in self._candidates():
            if c in seen:
                continue
            seen.add(c)
            if c == x:
                return True
        return False

    def decompose(self, x):
        amb = self.hom.target.ambient
        x = amb.reduce(x)
        img = self.hom.image_monoid()
        seen = set()
        for s in self._candidates():
            if s in seen:
                continue
            seen.add(s)
            d = amb.sub(x, s)
            if img.member(d):
                q = _preimage_in_source(self.hom, d)
                if q is not None:
                    return q, s
        raise ValueError("pushout decomposition not found within search window")


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
        self.w, self.w_proj = self.unit_hom.cokernel()
        self._reps = {}

    def _rep(self, cls):
        if cls not in self._reps:
            pre = self.w_proj.preimage(cls)
            self._reps[cls] = pre
        return self._reps[cls]

    def decompose(self, x):
        hom = self.hom
        amb = hom.target.ambient
        x = amb.reduce(x)
        # sharp part comes from the source through the sharpened isomorphism
        _, sharp_t, proj_t = hom.target.sharpening()
        _, sharp_s, proj_s = hom.source.sharpening()
        xb = proj_t.target.ambient.reduce(
            hom.target._sharp_data()[0].apply(x))
        ok, mult = sharp_t.member_with_certificate(xb)
        if not ok:
            raise ValueError("element not in the target monoid")
        # pull the multiplicities back along the matching of generators
        src_amb = hom.source.ambient
        q0 = src_amb.zero()
        sharp_imgs = [hom.target._sharp_data()[0].apply(v) for v in hom.images]
        remaining = dict(zip(sharp_t.generators, [0] * len(sharp_t.generators)))
        for g, k in zip(sharp_t.generators, mult):
            if k == 0:
                continue
            found = False
            for i, si in enumerate(sharp_imgs):
                if si == g:
                    q0 = src_amb.add(q0, src_amb.scale(k, hom.source.generators[i]))
                    found = True
                    break
            if not found:
                raise AssertionError("strict basis: generator matching failed")
        u = amb.sub(x, hom.apply_gp(q0))
        # u is a unit of P; split off the canonical coset representative
        upre = self.up_incl.preimage(u)
        cls = self.w_proj.apply(upre)
        rep = self._rep(cls)
        diff = self.up_incl.source.sub(upre, rep)
        qu = self.unit_hom.preimage(diff)
        src_u, src_u_incl = hom.source.unit_group()
        q = src_amb.add(q0, src_u_incl.apply(qu))
        s = self.up_incl.apply(rep)
        return q, s

    def contains(self, x):
        try:
            q, _ = self.decompose(x)
        except ValueError:
            return False
        # basis elements are exactly those decomposing with q a unit part 0
        amb = self.hom.source.ambient
        return amb.is_zero(q)


def _positive_unit_relation(mon: FineMonoid):
    """An integer vector z >= 0 over the generators with sum z_i g_i = 0 and
    z_i >= 1 for every unit generator (zero when there are no units)."""
    n = len(mon.generators)
    total = [0] * n
    basis = mon.relation_lattice()
    k = len(basis)
    for i in sorted(mon.unit_indices()):
        pt = qcone.feasible_point(
            qcone.nonneg_combination_system(basis, i, n), k)
        if pt is None:
            raise AssertionError("unit generator without positive relation")
        ints = qcone.clear_denominators(pt)
        for j in range(n):
            total[j] += sum(ints[t] * basis[t][j] for t in range(k))
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
    src_amb, src_injs, src_projs = direct_sum([h.source.ambient for h in homs])
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
            src_projs, tgt_projs, src_injs, tgt_injs)
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
    pout, in_p, in_q2, _ = monoid_pushout(h, f)
    out = MonoidHom(f.target, pout, in_q2.images, check=False)
    out.partition_tag = h.partition_tag
    if h.free_structure is not None:
        out.free_structure = PushoutFreeBasis(out, h.free_structure, in_p)
    return out


def decompose_diagonal(m, p):
    """p in N^m as Delta(q) + s with s having a zero coordinate (q = min p_i)."""
    p = tuple(int(x) for x in p)
    if len(p) != m or any(x < 0 for x in p):
        raise ValueError("element outside N^m")
    q = min(p)
    s = tuple(x - q for x in p)
    return q, s


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


def classify_morphism(h: MonoidHom, deep=True, module_window=24):
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
        elif deep:
            from . import monmod
            mod = monmod.module_over_source(h, window=module_window)
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
    proj_s, sharp_s = h.source._sharp_data()
    proj_t, sharp_t = h.target._sharp_data()
    imgs = [proj_t.apply(v) for v in h.images]
    induced = MonoidHom(sharp_s, sharp_t,
                        _match_sharp_images(h, proj_s, proj_t, sharp_s),
                        check=False)
    if not induced.is_injective():
        return False
    img_mon = FineMonoid(sharp_t.ambient, induced.images)
    return all(img_mon.member(g) for g in sharp_t.generators)


def _match_sharp_images(h, proj_s, proj_t, sharp_s):
    """Images of the sharp source generators under the sharpened map."""
    out = []
    used = {}
    sharp_gen_source = [proj_s.apply(g) for g in h.source.generators]
    for sg in sharp_s.generators:
        for i, cand in enumerate(sharp_gen_source):
            if cand == sg:
                out.append(proj_t.apply(h.images[i]))
                break
        else:
            raise AssertionError("sharp generator matching failed")
    return out


def _is_vertical(h: MonoidHom):
    """Whether the cokernel monoid P/Q is a group: every generator class is
    invertible, i.e. -p lies in P + Z h(Q)."""
    tgt = h.target
    gens = list(tgt.generators) + [v for v in h.images] + \
           [tgt.ambient.neg(v) for v in h.images]
    big = FineMonoid(tgt.ambient, gens)
    return all(big.member(tgt.ambient.neg(p)) for p in tgt.generators)


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
