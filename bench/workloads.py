"""The benchmark's workloads.

Each workload function takes the imported library (``lib``), a
``random.Random`` seeded with the workload seed, and ``small`` (the
self-test size), and returns the tasks of one pass. A task's ``call`` is
the timed part: one request through a public entry point, returning its
raw output. Its ``verdict`` reduces that output, untimed, to the value
compared with ``expect``. Every expected value comes from outside
logflat: golden reports, verdicts restated from the acceptance criteria,
or brute force written here.

They are called once per pass, so every pass works on fresh objects:
``FineMonoid._cache`` and the cached Groebner bases of presentations would
otherwise turn later passes into cache hits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import partial


class TaskFailed(Exception):
    """A report came back with a task in ``status: error``."""


@dataclass
class Task:
    name: str
    call: object
    expect: object
    verdict: object = None

    def judge(self, raw):
        return raw if self.verdict is None else self.verdict(raw)


# -- galleries --------------------------------------------------------------


def _run_gallery(cli, name):
    report, _code, _matches = cli.run_gallery(name)
    text = cli.render_report(report)
    for entry in report["tasks"]:
        if entry["status"] != "ok":
            raise TaskFailed(f"{name}: {entry.get('error')}")
    return text


def _without_timing(text):
    doc = json.loads(text)
    doc.pop("timing", None)
    return doc


def galleries(lib, rng, small):
    """The bundled galleries through ``run_gallery`` and ``render_report``,
    as ``logflat gallery <name>`` runs them; one submission per gallery."""
    cli = lib.cli
    names = ["smooth-divisor"] if small else cli.list_galleries()
    rng.shuffle(names)
    tasks = []
    for name in names:
        golden = (cli.gallery_dir() / f"{name}.golden.json").read_text()
        tasks.append(Task(f"gallery/{name}", partial(_run_gallery, cli, name),
                          _without_timing(golden), _without_timing))
    return tasks


# -- chart_tower ------------------------------------------------------------


NODAL_CHART_OBJECTS = [
    {"name": "Q", "kind": "monoid", "ambient_rank": 1, "generators": [[1]]},
    {"name": "P", "kind": "monoid", "ambient_rank": 2,
     "generators": [[1, 0], [0, 1]]},
    {"name": "h", "kind": "monoid_hom", "source": "Q", "target": "P",
     "images": [[1, 1]]},
    {"name": "A", "kind": "ring", "variables": [], "relations": []},
    {"name": "C", "kind": "ring", "variables": ["x", "y"],
     "relations": ["x*y"]},
    {"name": "node", "kind": "chart", "q": "Q", "p": "P", "h": "h",
     "a": "A", "c": "C", "t": ["0"], "b": ["x", "y"], "f": []},
]


def _run_document(cli, doc):
    report, _code = cli.run_document(doc)
    entry = report["tasks"][0]
    if entry["status"] != "ok":
        raise TaskFailed(entry.get("error"))
    return entry["result"]


def chart_tower(lib, rng, small):
    """chart_invariance on the nodal chart, as a problem file.

    The unit-extension chart (``units_rank: 1``) drives ``chart._tower``
    through every ordering of its spawning variables.  Expected verdicts
    are those of acceptance criterion 9 and ``TestChartInvariance``: the
    free module is log flat on both charts, C/(x+y) on neither.  The seed
    picks the task order and a unit multiple of the relation x + y, which
    presents the same module."""
    unit = rng.choice(["1", "2", "-3", "1/2"])
    modules = [
        ("free", [], (True, True)),
        ("antidiagonal", [[f"{unit}*x + {unit}*y"]], (False, False)),
    ]
    rng.shuffle(modules)
    objects = NODAL_CHART_OBJECTS + [
        {"name": name, "kind": "module", "ring": "C", "rank": 1,
         "relations": rels} for name, rels, _ in modules]
    tasks = []
    for name, _rels, verdicts in modules:
        task = {"kind": "chart_invariance", "chart": "node", "module": name}
        if small:
            task["chart2"] = "node"
        else:
            task["units_rank"] = 1
        # a problem file is read as JSON text, as ``logflat check`` does
        doc = json.loads(json.dumps({"version": 1, "objects": objects,
                                     "tasks": [task]}))
        expect = {"invariant": True,
                  "certificate": {"isomorphism": True, "grading_iso": True,
                                  "verdicts": list(verdicts)}}
        tasks.append(Task(f"chart_invariance/{name}",
                          partial(_run_document, lib.cli, doc), expect))
    return tasks


# -- descent_gluing ---------------------------------------------------------


def nodal_glue(lib):
    """k[x] x_k k[y], the gluing of acceptance criterion 7."""
    pa = lib.polyalg
    r1 = pa.PolyRing(pa.QQ, ["x"])
    r2 = pa.PolyRing(pa.QQ, ["y"])
    r0 = pa.PolyRing(pa.QQ, [])
    c1 = pa.RingPresentation(r1, [])
    c2 = pa.RingPresentation(r2, [])
    c0 = pa.RingPresentation(r0, [])
    f1 = pa.RingMap(c1, c0, [r0.zero()], check=False)
    f2 = pa.RingMap(c2, c0, [r0.zero()], check=False)
    return lib.descent.GluingDatum(c1, c2, c0, f1, f2)


def _descended_dim(de, d):
    return de.descend_D(d).dim()


def _gate_chain(de, glue, m):
    back = de.descend_D(de.pullback_P(glue, m))
    return de.tor_gate(glue, m), de.tor_gate(glue, back)


def _roundtrip_verdict(rep):
    return {k: rep[k] for k in ("gate", "dp_isomorphic", "consistent",
                                "pd_certified", "dp_dims")}


def descent_gluing(lib, rng, small):
    """The criterion-7 corpus: descent data through ``descend_D`` and
    ``dim()``, then the gated modules through P, D and the Tor gate, and
    through ``roundtrip_check``.

    Expected values: D(M1, M2) of k[x]/(x^a) and k[y]/(y^b) glued by a unit
    has dimension a + b - 1 (both fibres at the node are k); the rank-2
    datum has 3 + 2 - 2 = 3.  Gate and isomorphism verdicts are those of
    acceptance criterion 7; DP(M) is M for a gated M and D(k, k) = k for
    the other two, and the dimensions of M and DP(M) are counted by hand
    (None: infinite).  The seed picks the two clutching units and the task
    order."""
    pa, de = lib.polyalg, lib.descent
    qq = pa.QQ
    glue = nodal_glue(lib)
    r1, r2 = glue.c1.ring, glue.c2.ring
    units = rng.sample([1, 2, 3, -1, -2, Fraction(1, 2)], 2)
    tasks = []
    exps = (1, 2) if small else (1, 2, 3)
    for a in exps:
        for b in exps:
            for u in units:
                m1 = pa.ModulePresentation(glue.c1, 1, [r1.pow(r1.var(0), a)])
                m2 = pa.ModulePresentation(glue.c2, 1, [r2.pow(r2.var(0), b)])
                d = de.DescentDatum(glue, m1, m2,
                                    [{((), 0): Fraction(u)}])
                tasks.append(Task(f"descend/x^{a},y^{b},u={u}",
                                  partial(_descended_dim, de, d), a + b - 1))
    if not small:
        m1 = pa.ModulePresentation(glue.c1, 2, [
            {((1,), 0): qq.one()}, {((2,), 1): qq.one()}])
        m2 = pa.ModulePresentation(glue.c2, 2, [
            {((1,), 0): qq.one()}, {((1,), 1): qq.one()}])
        for mat in ([[1, 0], [0, 1]], [[1, 1], [0, 1]], [[0, 1], [1, 0]]):
            phi = [{((), j): qq.of_int(mat[i][j])
                    for j in range(2) if mat[i][j]} for i in range(2)]
            d = de.DescentDatum(glue, m1, m2, phi)
            tasks.append(Task(f"descend/rank2,{mat}",
                              partial(_descended_dim, de, d), 3))
    c = glue.c
    r = c.ring
    # name: (module, gate, dp_isomorphic, dim M, dim DP(M))
    gated = {
        "C": (lambda: pa.ModulePresentation(c, 1, []),
              True, True, None, None),
        "C/(g0+g1)": (lambda: pa.ModulePresentation(c, 1, [r.parse("g0 + g1")]),
                      False, False, 2, 1),
        "C/(g0-1)": (lambda: pa.ModulePresentation(c, 1, [r.parse("g0 - 1")]),
                     True, True, 1, 1),
        "k": (lambda: pa.ModulePresentation(c, 1, [r.var(0), r.var(1)]),
              False, True, 1, 1),
        "C+C/(g0-1)": (lambda: pa.ModulePresentation(c, 2, [
            {((1, 0), 1): qq.one(), ((0, 0), 1): qq.of_int(-1)}]),
            True, True, None, None),
    }
    names = ["C/(g0-1)", "k"] if small else list(gated)
    for name in names:
        make, gate, iso, dim_m, dim_dp = gated[name]
        tasks.append(Task(f"gate/{name}", partial(_gate_chain, de, glue, make()),
                          (gate, gate)))
        tasks.append(Task(f"roundtrip/{name}",
                          partial(de.roundtrip_check, glue, make()),
                          {"gate": gate, "dp_isomorphic": iso,
                           "consistent": True, "pd_certified": True,
                           "dp_dims": (dim_m, dim_dp)},
                          _roundtrip_verdict))
    rng.shuffle(tasks)
    return tasks


# -- monoid_cones -------------------------------------------------------------


# Lattice polygons in convex position, vertices in cyclic order, and
# whether the pass computes their toric ideal: on 7- and 8-gons the
# toric_ideal of the code this benchmark was written against runs past 15 s
# per cone.  The vertices are fixed, not drawn from the seed: the cost of
# classify_morphism on the 8-gon ranged from 0.2 s to over 20 s between
# lattice-equivalent placements of it, so a seed that moved the vertices
# would measure placements rather than code.
REFERENCE_POLYGONS = {
    "5-gon": ([(0, 0), (2, 0), (3, 1), (2, 2), (0, 1)], True),
    "6-gon": ([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)], True),
    "6-gon-wide": ([(0, 2), (1, 1), (2, 1), (2, 4), (1, 4), (0, 3)], True),
    "7-gon": ([(0, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 1)],
              False),
    "8-gon": ([(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2),
               (0, 1)], False),
}
# member queries: in each degree 1..DEGREES, TARGETS points drawn one by one
# from the square of side 2 * REACH + 1 around the degree's centre.  Each
# query is drawn on its own, so a task's cost averages over its draws; a
# whole box moved by the seed made the task's cost vary by half.
DEGREES, TARGETS, REACH = 5, 25, 3


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _in_convex_position(verts):
    n = len(verts)
    turns = [_cross(verts[i], verts[(i + 1) % n], verts[(i + 2) % n])
             for i in range(n)]
    return all(t > 0 for t in turns) or all(t < 0 for t in turns)


def _sums_by_degree(gens2, top):
    """Brute force: level[c] is the set of sums of c polygon vertices."""
    level = [{(0, 0)}]
    for _ in range(top):
        level.append({(s[0] + g[0], s[1] + g[1])
                      for s in level[-1] for g in gens2})
    return level


def _expected_faces(n):
    faces = {(), tuple(range(n))}
    for i in range(n):
        faces.add((i,))
        faces.add(tuple(sorted((i, (i + 1) % n))))
    return faces


def _faces_verdict(raw):
    faces, primes = raw
    return set(faces), len(primes)


def _faces_call(p):
    return p.faces(), p.prime_ideals()


def _member_call(p, targets):
    return tuple(p.member(t) for t in targets)


def _classify_verdict(c):
    # flat and free may come back None (undecided); the oracle only
    # requires that they never contradict the true value, which is True
    # for all three homs (an integral monoid is a free N-set under any
    # element of infinite order).
    return (c.injective, c.surjective, c.strict, c.vertical,
            c.flat is not False, c.free is not False)


def _flatness_call(monmod, m):
    return monmod.is_flat(m), monmod.extract_basis(m)


def _flatness_verdict(raw):
    v, b = raw
    return (v.flat, v.torsion_free, v.comparable, b.ok,
            tuple(g for g, _ in b.basis))


def _toric_verdict(gens, raw):
    """Substitute the monomial parametrization z_i -> t^g_i into every
    generator: each must vanish.  Also: the ideal is proper and needs at
    least n - 3 generators (its codimension)."""
    pres, degrees = raw
    vanish = True
    for g in pres.ideal:
        image = {}
        for (mono, _), coeff in g.items():
            e = tuple(sum(k * gi[t] for k, gi in zip(mono, gens))
                      for t in range(3))
            image[e] = image.get(e, 0) + coeff
        vanish = vanish and all(v == 0 for v in image.values())
    proper = all(any(any(m) for (m, _) in g) for g in pres.ideal)
    return (vanish, proper, len(pres.ideal) >= len(gens) - 3,
            [tuple(d) for d in degrees] == list(gens))


def monoid_cones(lib, rng, small):
    """Cones over lattice polygons with 5 to 8 vertices in rank 3: faces and
    primes, a box of membership queries, three morphism classifications,
    flatness and bases of three modules, and toric ideals.  The seed picks
    the order of the cones and the membership targets."""
    FgAbGroup = lib.abgrp.FgAbGroup
    mon, monmod = lib.monoid, lib.monmod
    tasks = []
    tags = ["5-gon"] if small else list(REFERENCE_POLYGONS)
    rng.shuffle(tags)
    for tag in tags:
        verts, toric = REFERENCE_POLYGONS[tag]
        if not _in_convex_position(verts):
            raise ValueError(f"reference {tag} is not in convex position")
        n = len(verts)
        gens = [(x, y, 1) for x, y in verts]
        p = mon.FineMonoid(FgAbGroup.free(3), gens)
        tasks.append(Task(f"faces/{tag}", partial(_faces_call, p),
                          (_expected_faces(n), 2 * n + 2), _faces_verdict))

        cx = sum(x for x, _ in verts) / n
        cy = sum(y for _, y in verts) / n
        level = _sums_by_degree(verts, DEGREES)
        targets, expect = [], []
        for deg in range(1, DEGREES + 1):
            x0, y0 = round(deg * cx), round(deg * cy)
            for _ in range(TARGETS):
                x = x0 + rng.randint(-REACH, REACH)
                y = y0 + rng.randint(-REACH, REACH)
                targets.append((x, y, deg))
                expect.append((x, y) in level[deg])
        tasks.append(Task(f"member/{tag}", partial(_member_call, p, targets),
                          tuple(expect)))

        nat = mon.nat_monoid(1)
        interior = tuple(sum(g[t] for g in gens) for t in range(3))
        homs = {
            "identity": (mon.MonoidHom.identity(p),
                         (True, True, True, True, True, True)),
            "ray": (mon.MonoidHom(nat, p, [gens[0]]),
                    (True, False, False, False, True, True)),
            "interior": (mon.MonoidHom(nat, p, [interior]),
                         (True, False, False, True, True, True)),
        }
        for hname, (h, want) in homs.items():
            tasks.append(Task(f"classify/{tag}/{hname}",
                              partial(mon.classify_morphism, h), want,
                              _classify_verdict))

        # vertices are irreducible, so (g0, g1) has no common lower bound
        modules = {
            "free2": (monmod.PModule.free(p, 2),
                      (True, True, True, True, ((0, 0, 0), (0, 0, 0)))),
            "principal": (monmod.PModule.embedded(p, [(gens[0], 0)],
                                                  kind=monmod.IDEAL),
                          (True, True, True, True, (gens[0],))),
            "two-vertex": (monmod.PModule.embedded(
                p, [(gens[0], 0), (gens[1], 0)], kind=monmod.IDEAL),
                (False, True, False, False, ())),
        }
        for mname, (m, want) in modules.items():
            tasks.append(Task(f"flat/{tag}/{mname}",
                              partial(_flatness_call, monmod, m), want,
                              _flatness_verdict))

        if toric:
            tasks.append(Task(f"toric/{tag}",
                              partial(lib.polyalg.toric_ideal, p),
                              (True, True, True, True),
                              partial(_toric_verdict, gens)))
    return tasks


WORKLOADS = {
    "galleries": galleries,
    "chart_tower": chart_tower,
    "descent_gluing": descent_gluing,
    "monoid_cones": monoid_cones,
}
