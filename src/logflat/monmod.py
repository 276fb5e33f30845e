"""Finitely generated modules over fine monoids: exact flatness (torsion-free
and comparable), constructive basis extraction, base change.

A module is one of:

* ``free``          -- a disjoint union of copies of the owner,
* ``embedded``      -- a union of translates (g + P) inside an ambient group,
  tagged by a finite component set (``ideal`` marks embedded submodules of P),
* ``localization``  -- S^-1 P as a P-module.

Components are canonicalized so that two generators share a component exactly
when they differ by an element of the groupification of the acting monoid;
comparability then reduces to a finite generator-pair check, decided by
membership alone: a pair has a common lower bound exactly when some generator
of its component is one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .abgrp import FgAbGroup, GroupHom, pushout
from .monoid import AmbientMismatch, FineMonoid, MonoidHom

FREE = "free"
EMBEDDED = "embedded"
IDEAL = "ideal"
LOCALIZATION = "localization"


class OwnerMismatch(ValueError):
    pass


class UnsupportedModuleClass(ValueError):
    pass


class NotFinitelyGenerated(ValueError):
    pass


class PModule:
    """A module over a fine monoid, in one of the supported shapes."""

    def __init__(self, owner: FineMonoid, kind, ambient, action, generators,
                 loc_sgens=None):
        self.owner = owner
        self.kind = kind
        self.ambient = ambient
        self.action = action  # MonoidHom owner -> (monoid living in ambient), or None
        self.loc_sgens = tuple(loc_sgens or ())
        gens = []
        for g, c in generators:
            g = ambient.reduce(g)
            if (g, c) not in gens:
                gens.append((g, c))
        self._raw_generators = tuple(gens)
        self._cache = {}
        self.generators = self._canonical_components(gens)

    # -- constructors -------------------------------------------------------

    @classmethod
    def free(cls, owner, components):
        if isinstance(components, int):
            components = tuple(range(components))
        gens = [(owner.ambient.zero(), c) for c in components]
        return cls(owner, FREE, owner.ambient, None, gens)

    @classmethod
    def embedded(cls, owner, generators, kind=EMBEDDED):
        gens = [(g, c) for g, c in generators]
        return cls(owner, kind, owner.ambient, None, gens)

    @classmethod
    def from_ideal(cls, ideal):
        gens = [(g, 0) for g in ideal.generators]
        return cls(ideal.owner, IDEAL, ideal.owner.ambient, None, gens)

    @classmethod
    def localization(cls, owner, s_gens):
        s = [owner.ambient.reduce(x) for x in s_gens]
        for x in s:
            if not owner.member(x):
                raise AmbientMismatch("localizing set must lie in the monoid")
        return cls(owner, LOCALIZATION, owner.ambient, None,
                   [(owner.ambient.zero(), 0)], loc_sgens=s)

    @classmethod
    def over_hom(cls, h: MonoidHom, generators):
        """Target-of-h elements as a module over the source of h."""
        gens = [(g, c) for g, c in generators]
        return cls(h.source, EMBEDDED, h.target.ambient, h, gens)

    # -- plumbing ------------------------------------------------------------

    def action_apply(self, x):
        if self.action is None:
            return self.ambient.reduce(x)
        return self.action.apply_gp(x)

    def action_image_monoid(self):
        """The monoid action(P) inside the module ambient."""
        if "img_mon" in self._cache:
            return self._cache["img_mon"]
        if self.kind == LOCALIZATION:
            base = list(self.owner.generators) + \
                   [self.ambient.neg(s) for s in self.loc_sgens]
            mon = FineMonoid(self.ambient, base)
        elif self.action is None:
            mon = self.owner
        else:
            mon = self.action.image_monoid()
        self._cache["img_mon"] = mon
        return mon

    def _action_hom(self, indices):
        """The hom Z^k -> ambient onto the action of the owner generators
        with the given indices, in order."""
        gens = self.owner.generators if self.action is None else \
            self.action.images
        imgs = tuple(gens[i] for i in indices)
        return GroupHom(FgAbGroup.free(len(imgs)), self.ambient, imgs)

    def _canonical_components(self, gens):
        reps = []  # (value, original component) representatives
        out = []
        for g, c in gens:
            for i, (rv, rc) in enumerate(reps):
                if rc == c and self._same_orbit_raw(g, rv):
                    out.append((g, i))
                    break
            else:
                reps.append((g, c))
                out.append((g, len(reps) - 1))
        return tuple(out)

    def _same_orbit_raw(self, x, y):
        """Whether x - y lies in action(P^gp)."""
        if "span_hom" not in self._cache:
            self._cache["span_hom"] = self._action_hom(
                range(len(self.owner.generators)))
        return self._cache["span_hom"].preimage(
            self.ambient.sub(x, y)) is not None

    def components(self):
        return sorted({c for _, c in self.generators})

    def contains(self, x, comp):
        """Module membership of (x, comp)."""
        x = self.ambient.reduce(x)
        mon = self.action_image_monoid()
        return any(c == comp and mon.member(self.ambient.sub(x, g))
                   for g, c in self.generators)

    def __repr__(self):
        return f"PModule({self.kind}, gens={list(self.generators)!r})"


# -- flatness -----------------------------------------------------------------


@dataclass
class FlatVerdict:
    flat: bool
    torsion_free: bool
    comparable: bool
    witness: object = None


def is_flat(m: PModule) -> FlatVerdict:
    """Exact flatness: torsion-free and comparable.

    Torsion-freeness is the injectivity of the action on the groupification;
    comparability is decided by the generator-pair reduction, one membership
    test per generator of the component.
    """
    if m.kind not in (FREE, EMBEDDED, IDEAL, LOCALIZATION):
        raise UnsupportedModuleClass(m.kind)
    tf = _torsion_free(m)
    if not tf:
        return FlatVerdict(False, False, False, witness="action not injective")
    comparable, witness = _comparable(m)
    return FlatVerdict(tf and comparable, tf, comparable, witness)


def _torsion_free(m: PModule):
    if m.action is None:
        return True
    return m.action.is_injective()


def _comparable(m: PModule):
    if m.kind == FREE:
        return True, None
    if m.kind == LOCALIZATION:
        return _comparable_localization(m)
    by_comp = {}
    for g, c in m.generators:
        by_comp.setdefault(c, []).append(g)
    for c, gens in by_comp.items():
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if _common_lower_bound(m, gens[i], gens[j], c) is None:
                    return False, (gens[i], gens[j])
    return True, None


def _comparable_localization(m: PModule):
    """S^-1 P is a filtered union of the free submodules based at -s.  Every
    probe -s, -(s+t) lies above x = -2*sigma, sigma the sum of S, because
    sigma - s is in P for each s in S; so x is a common lower bound of any
    probe pair, verified exactly.  A probe not above x is the witness."""
    amb = m.ambient
    sigma = amb.zero()
    for s in m.loc_sgens:
        sigma = amb.add(sigma, s)
    x = amb.scale(-2, sigma)
    probes = [amb.zero()] + [amb.neg(s) for s in m.loc_sgens]
    probes += [amb.neg(amb.add(s, t)) for s in m.loc_sgens for t in m.loc_sgens]
    for a in dict.fromkeys(probes):
        if not m.owner.member(amb.sub(a, x)):
            return False, a
    return True, None


def _common_lower_bound(m: PModule, t1, t2, comp):
    """x in the module with t_i - x in action(P), or None: the first
    generator g of the component with t_1 - g and t_2 - g both in action(P).

    Complete: every module element is x = g + w with w in action(P), and if
    x is a lower bound then so is g, since t_i - g = (t_i - x) + w.
    """
    amb = m.ambient
    mon = m.action_image_monoid()
    for g, c in m.generators:
        if c == comp and mon.member(amb.sub(t1, g)) and \
                mon.member(amb.sub(t2, g)):
            return g
    return None


# -- basis extraction ---------------------------------------------------------


@dataclass
class BasisResult:
    ok: bool
    basis: tuple = ()
    witness: object = None
    certificate: dict = field(default_factory=dict)


def extract_basis(m: PModule) -> BasisResult:
    """Monoidal Quillen-Suslin: for a finitely generated flat module, strip
    each generator to a <-minimal representative and certify the basis."""
    if m.kind == LOCALIZATION and not _localization_is_trivial(m):
        raise NotFinitelyGenerated("localization module is not finitely generated")
    verdict = is_flat(m)
    if not verdict.flat:
        return BasisResult(False, witness=verdict.witness)
    if m.kind == FREE:
        return BasisResult(True, m.generators,
                           certificate={"kind": "free", "verified": True})
    amb = m.ambient
    mon = m.action_image_monoid()
    nonunit_owner = [i for i in range(len(m.owner.generators))
                     if i not in m.owner.unit_indices()]
    minimal = []
    for g, c in m.generators:
        cur = g
        progress = True
        while progress:
            progress = False
            for i in nonunit_owner:
                step = m.action_apply(m.owner.generators[i])
                cand = amb.sub(cur, step)
                if m.contains(cand, c):
                    cur = cand
                    progress = True
                    break
        minimal.append((cur, c))
    # one representative per component, up to unit translation
    unit_hom = m._action_hom(sorted(m.owner.unit_indices()))
    basis = []
    for g, c in minimal:
        dup = False
        for b, cb in basis:
            if cb == c:
                if unit_hom.preimage(amb.sub(g, b)) is not None:
                    dup = True
                    break
                return BasisResult(False, witness=(g, b),
                                   certificate={"reason": "two minimal classes"})
        if not dup:
            basis.append((g, c))
    cert = _verify_basis(m, basis)
    if not cert["verified"]:
        return BasisResult(False, witness=cert)
    return BasisResult(True, tuple(basis), certificate=cert)


def _localization_is_trivial(m: PModule):
    """S^-1 P = P exactly when every element of S is already invertible."""
    return all(m.owner.member(m.owner.ambient.neg(s)) for s in m.loc_sgens)


def _verify_basis(m: PModule, basis):
    """Exact surjectivity: every defining generator lies in the span of the
    basis.  Injectivity needs no check: the basis keeps one element per
    component, translation in a group is injective, and ``is_flat`` has
    already proved the action injective."""
    amb = m.ambient
    mon = m.action_image_monoid()
    cert = {"basis": list(basis), "verified": True}
    for g, c in m.generators:
        hit = any(cb == c and mon.member(amb.sub(g, b)) for b, cb in basis)
        if not hit:
            cert["verified"] = False
            cert["missed_generator"] = (g, c)
            return cert
    return cert


def is_finitely_generated(m: PModule, candidates):
    """Whether the candidate set surjects: P x S -> M covers the defining
    generators (hence the whole module)."""
    amb = m.ambient
    mon = m.action_image_monoid()
    cands = [(amb.reduce(x), c) for x, c in candidates]
    for x, c in cands:
        if not m.contains(x, c):
            return False
    if m.kind == LOCALIZATION:
        # a nontrivial localization is never finitely generated: the sharp
        # value of -k*s is unbounded below while any finite set bounds it
        return _localization_is_trivial(m)
    for g, c in m.generators:
        if not any(cc == c and mon.member(amb.sub(g, x)) for x, cc in cands):
            return False
    return True


# -- base change ---------------------------------------------------------------


def base_change(m: PModule, h: MonoidHom):
    """Extension of scalars along h : Q -> P."""
    if m.owner != h.source:
        raise OwnerMismatch("module is not over the source of the hom")
    p = h.target
    if m.kind == FREE:
        return PModule.free(p, [c for _, c in m.generators])
    if m.kind == LOCALIZATION:
        return PModule.localization(p, [h.apply_gp(s) for s in m.loc_sgens])
    jm, jp = pushout(m.ambient, p.ambient,
                     [(m.action_apply(qg), h.apply_gp(qg))
                      for qg in m.owner.generators])
    new_amb = jm.target
    gens = [(jm.apply(g), c) for g, c in m.generators]
    # action of P on the new ambient, through the second inclusion
    act_imgs = [jp.apply(g) for g in p.generators]
    act_mon = FineMonoid(new_amb, act_imgs)
    act = MonoidHom(p, act_mon, act_imgs, check=False)
    return PModule(p, EMBEDDED, new_amb, act, gens)


def sharpen_module(m: PModule):
    """M-bar = M (x)_P P-bar, the quotient by unit translation."""
    _, sharp, proj = m.owner.sharpening()
    return base_change(m, proj)


# -- P as a module over the source of a morphism ------------------------------


def module_over_source(h: MonoidHom):
    """Realize the target P of h as a module over the source Q, or None when
    P is not finite over Q.

    P is finite over h(Q) exactly when every generator g of P lies in the
    rational cone of h(Q).  Then some n_g * g lies in h(Q), and the
    translates of h(Q) by the sums of r_g * g with 0 <= r_g < n_g cover P;
    conversely a finite cover puts P in that closed cone.  g lies in the cone
    exactly when -g is a unit of the monoid generated by h(Q) and -g.  Once
    every g passes, the saturation search ends, since k[P] is then a
    Noetherian k[h(Q)]-module."""
    p = h.target
    amb = p.ambient
    for g in p.generators:
        neg = amb.neg(g)
        cone = FineMonoid(amb, [*h.images, neg])
        if cone.generators.index(neg) not in cone.unit_indices():
            return None
    img = h.image_monoid()

    def covered(x, reps):
        return any(img.member(amb.sub(x, t)) for t in reps)

    reps = [amb.zero()]
    queue = deque(reps)
    while queue:
        t = queue.popleft()
        for g in p.generators:
            c = amb.add(t, g)
            if not covered(c, reps):
                reps.append(c)
                queue.append(c)
    return PModule.over_hom(h, [(t, 0) for t in reps])
