"""Finitely generated modules over fine monoids: exact flatness (torsion-free
and comparable), constructive basis extraction, tensor product, base change.

A module is one of:

* ``free``          -- a disjoint union of copies of the owner,
* ``embedded``      -- a union of translates (g + P) inside an ambient group,
  tagged by a finite component set (``ideal`` marks embedded submodules of P),
* ``localization``  -- S^-1 P as a P-module.

Components are canonicalized so that two generators share a component exactly
when they differ by an element of the groupification of the acting monoid;
comparability then reduces to a finite generator-pair check with a bounded
search certified by the positive functional of the image monoid.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .abgrp import FgAbGroup, lattice_contains
from .monoid import AmbientMismatch, FineMonoid, MonoidHom, _lam_value

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
        self.generators = self._canonical_components(gens)
        self._cache = {}

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
            mon = FineMonoid(self.ambient,
                             [self.action.apply_gp(g) for g in self.owner.generators])
        self._cache["img_mon"] = mon
        return mon

    def _action_span_columns(self):
        """Columns spanning action(P^gp) inside the module ambient."""
        if self.action is None:
            gens = self.owner.generators
        else:
            gens = [self.action.apply_gp(g) for g in self.owner.generators]
        return [list(g) for g in gens] + \
               [list(c) for c in self.ambient.relation_columns()]

    def _same_orbit(self, x, y):
        return lattice_contains(self._action_span_columns(),
                                self.ambient.sub(x, y))

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
        cols = self._action_span_columns()
        return lattice_contains(cols, self.ambient.sub(x, y))

    def components(self):
        return sorted({c for _, c in self.generators})

    def contains(self, x, comp):
        """Module membership of (x, comp)."""
        x = self.ambient.reduce(x)
        mon = self.action_image_monoid()
        return any(c == comp and mon.member(self.ambient.sub(x, g))
                   for g, c in self.generators)

    def elements_up_to(self, degree):
        """Window of module elements: generators translated by image-monoid
        combinations of total multiplicity <= degree."""
        mon = self.action_image_monoid()
        shifts = mon.elements_up_to(degree)
        out = set()
        for g, c in self.generators:
            for s in shifts:
                out.add((self.ambient.add(g, s), c))
        return sorted(out)

    def __repr__(self):
        return f"PModule({self.kind}, gens={list(self.generators)!r})"


def mod_member(m: PModule, x, comp=0):
    return m.contains(x, comp)


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
    comparability is decided by the generator-pair reduction with a bounded
    search (budgeted by the positive functional of the image monoid).
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
    """S^-1 P is a filtered union of the free submodules based at -s; probe
    pairs get the structural lower bound -(s_1+s_2), verified exactly."""
    amb = m.ambient
    probes = [amb.zero()] + [amb.neg(s) for s in m.loc_sgens]
    probes += [amb.neg(amb.add(s, t)) for s in m.loc_sgens for t in m.loc_sgens]
    probes = list(dict.fromkeys(probes))
    for i, a in enumerate(probes):
        for b in probes[i:]:
            x = _loc_lower_bound(m, a, b)
            if x is None:
                return False, (a, b)
    return True, None


def _loc_lower_bound(m: PModule, a, b):
    amb = m.ambient
    act_gens = m.owner.generators
    act = FineMonoid(amb, act_gens)
    sigma = amb.zero()
    for s in m.loc_sgens:
        sigma = amb.add(sigma, s)
    for k in range(0, 32):
        x = amb.scale(-k, sigma)
        if act.member(amb.sub(a, x)) and act.member(amb.sub(b, x)):
            return x
    return None


def _common_lower_bound(m: PModule, t1, t2, comp):
    """x in the module with t_i - x in action(P), or None.

    Complete: any lower bound can be replaced by one of the enumerated form
    g + w with w a sharp-class representative of the image monoid, since
    units of the image monoid are absorbed by membership.
    """
    amb = m.ambient
    mon = m.action_image_monoid()
    proj, _ = mon._sharp_data()
    lam = mon._integer_functional()

    def lam_of(y):
        return _lam_value(lam, proj.apply(y))

    units = mon.unit_indices()
    nonunit = [(ng, lam_of(ng)) for i, ng in enumerate(mon.generators)
               if i not in units]
    sub = amb.reduced_sub()
    for g, c in m.generators:
        if c != comp:
            continue
        d1, d2 = amb.sub(t1, g), amb.sub(t2, g)
        budget = min(lam_of(d1), lam_of(d2))
        if budget < 0:
            continue
        found = _search_lower(mon, sub, nonunit, budget, d1, d2)
        if found is not None:
            return amb.sub(t1, found)
    return None


def _search_lower(mon, sub, nonunit, budget, d1, d2):
    """Depth-first search over w in the image monoid with lam(w) <= budget
    for d_i - w both in it; returns d1 - w for the first such w, or None.

    The search runs on d1 - w and d2 - w, which determine w; lam(w) is
    carried along, since lam is additive on the free coordinates."""
    seen = set()
    stack = [(d1, d2, 0)]
    while stack:
        e1, e2, lw = stack.pop()
        if e1 in seen:
            continue
        seen.add(e1)
        if mon.member(e1) and mon.member(e2):
            return e1
        for ng, lg in nonunit:
            f1 = sub(e1, ng)
            if f1 not in seen and lw + lg <= budget:
                stack.append((f1, sub(e2, ng), lw + lg))
    return None


# -- basis extraction ---------------------------------------------------------


@dataclass
class BasisResult:
    ok: bool
    basis: tuple = ()
    witness: object = None
    certificate: dict = field(default_factory=dict)


def extract_basis(m: PModule, window=8) -> BasisResult:
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
    unit_cols = _unit_action_columns(m)
    basis = []
    for g, c in minimal:
        dup = False
        for b, cb in basis:
            if cb == c:
                if lattice_contains(unit_cols, amb.sub(g, b)):
                    dup = True
                    break
                return BasisResult(False, witness=(g, b),
                                   certificate={"reason": "two minimal classes"})
        if not dup:
            basis.append((g, c))
    cert = _verify_basis(m, basis, window)
    if not cert["verified"]:
        return BasisResult(False, witness=cert)
    return BasisResult(True, tuple(basis), certificate=cert)


def _localization_is_trivial(m: PModule):
    """S^-1 P = P exactly when every element of S is already invertible."""
    return all(m.owner.member(m.owner.ambient.neg(s)) for s in m.loc_sgens)


def _unit_action_columns(m: PModule):
    cols = []
    for i in sorted(m.owner.unit_indices()):
        cols.append(list(m.action_apply(m.owner.generators[i])))
    cols += [list(c) for c in m.ambient.relation_columns()]
    return cols


def _verify_basis(m: PModule, basis, window):
    """Exact surjectivity on the defining generators plus a window check for
    injectivity and coverage (all elements of generator-degree <= window)."""
    amb = m.ambient
    mon = m.action_image_monoid()
    cert = {"basis": list(basis), "verified": True, "window": window}
    for g, c in m.generators:
        hit = any(cb == c and mon.member(amb.sub(g, b)) for b, cb in basis)
        if not hit:
            cert["verified"] = False
            cert["missed_generator"] = (g, c)
            return cert
    # window injectivity: distinct (p, s) give distinct elements
    seen = {}
    shifts = mon.elements_up_to(window)
    for b, c in basis:
        for s in shifts:
            val = (amb.add(b, s), c)
            if val in seen and seen[val] != (b, c, s):
                cert["verified"] = False
                cert["collision"] = (val, seen[val], (b, c, s))
                return cert
            seen[val] = (b, c, s)
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


# -- tensor product and base change -------------------------------------------


def tensor(m: PModule, n: PModule, window=5):
    """Tensor product over the common owner via congruence closure of the
    bilinearity relations on a bounded window."""
    if m.owner != n.owner:
        raise OwnerMismatch("tensor needs a common owner")
    if m.action is not None or n.action is not None:
        raise UnsupportedModuleClass("tensor is for ordinary modules")
    if m.kind == LOCALIZATION or n.kind == LOCALIZATION:
        raise UnsupportedModuleClass("tensor with a localization module")
    owner = m.owner
    amb = owner.ambient
    # union-find over pairs of window elements
    em = m.elements_up_to(window)
    en = n.elements_up_to(window)
    emset, enset = set(em), set(en)
    parent = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    pairs = [(a, b) for a in em for b in en]
    for (av, ac), (bv, bc) in pairs:
        for g in owner.generators:
            left = ((amb.add(av, g), ac), (bv, bc))
            right = ((av, ac), (amb.add(bv, g), bc))
            if left[0] in emset and right[1] in enset:
                union(left, right)
    # components of the result: classes of generator pairs
    gen_pairs = [((gv, gc), (hv, hc)) for gv, gc in m.generators
                 for hv, hc in n.generators]
    class_of = {}
    comp_id = {}
    gens = []
    for gp in gen_pairs:
        root = find(gp)
        if root not in comp_id:
            comp_id[root] = len(comp_id)
        (gv, gc), (hv, hc) = gp
        gens.append((amb.add(gv, hv), comp_id[root]))
    return PModule.embedded(owner, gens)


def base_change(m: PModule, h: MonoidHom):
    """Extension of scalars along h : Q -> P."""
    if m.owner != h.source:
        raise OwnerMismatch("module is not over the source of the hom")
    from .abgrp import direct_sum, GroupHom, FgAbGroup as _G
    p = h.target
    if m.kind == FREE:
        return PModule.free(p, [c for _, c in m.generators])
    if m.kind == LOCALIZATION:
        return PModule.localization(p, [h.apply_gp(s) for s in m.loc_sgens])
    total, (jm, jp), _ = direct_sum([m.ambient, p.ambient])
    cols = []
    for qg in m.owner.generators:
        am = m.action_apply(qg)
        ap = h.apply_gp(qg)
        cols.append(total.sub(jm.apply(am), jp.apply(ap)))
    free_src = _G.free(len(cols)) if cols else _G.zero_group()
    hom = GroupHom(free_src, total, tuple(cols))
    _, proj = hom.cokernel()
    new_amb = proj.target
    gens = [(proj.apply(jm.apply(g)), c) for g, c in m.generators]
    # action of P on the new ambient, through the second inclusion
    act_imgs = [proj.apply(jp.apply(g)) for g in p.generators]
    act_mon = FineMonoid(new_amb, act_imgs)
    act = MonoidHom(p, act_mon, act_imgs, check=False)
    return PModule(p, EMBEDDED, new_amb, act, gens)


def sharpen_module(m: PModule):
    """M-bar = M (x)_P P-bar, the quotient by unit translation."""
    _, sharp, proj = m.owner.sharpening()
    return base_change(m, proj)


# -- P as a module over the source of a morphism ------------------------------


def module_over_source(h: MonoidHom, window=24):
    """Realize the target P of h as a module over the source Q, when it is
    finitely generated.

    None means one of two things.  Either P is proved not finite over Q:
    the rational rank of h(Q) is below that of P (if finitely many
    translates t + h(Q) covered P, two multiples of each generator of P
    would share one, so h(Q)^gp would have full rank).  Or, at equal ranks,
    the saturation search ran out of its window."""
    p = h.target
    amb = p.ambient
    img = FineMonoid(amb, h.images)
    if (len(img.generators) - len(img.relation_lattice())
            < len(p.generators) - len(p.relation_lattice())):
        return None

    def covered(x, reps):
        return any(img.member(amb.sub(x, t)) for t in reps)

    reps = [amb.zero()]
    queue = deque(reps)
    steps = 0
    while queue:
        t = queue.popleft()
        for g in p.generators:
            c = amb.add(t, g)
            steps += 1
            if steps > window * max(1, len(p.generators)):
                return None
            if not covered(c, reps):
                reps.append(c)
                queue.append(c)
    return PModule.over_hom(h, [(t, 0) for t in reps])
