"""Batch interface: declarative JSON problem files in, deterministic reports
out.

A problem file is ``{"version": 1, "objects": [...], "tasks": [...]}``; every
engine knob is a flag and is recorded in the report.  Reports are
byte-stable for a fixed input (the timing block is excluded from golden
comparisons).

Each part of a file is read once.  ``validate_file`` checks the document:
its version, the names and kinds of its objects, their references and the
fields of its tasks.  Building an object (``Workspace``) is the one check
of its content, over the field the tasks use, so each polynomial is parsed
once.  ``validate`` and ``check`` run both before any task.

Exit codes: 0 success (verdict "false" is not an error), 1 task error,
2 validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .abgrp import FgAbGroup
from .monoid import FineMonoid, MonoidHom
from . import monmod
from . import polyalg as pa
from .polyalg import ModulePresentation, PolyRing, RingMap, RingPresentation
from .scope import run_scope
from . import graded as gd
from . import chart as ch
from . import descent as de

# Every object and task kind, with the object kinds each of its reference
# fields accepts.  A module's ring may name a gluing, which stands for the
# glued ring C; a lift problem's chart is the chart monoid R of its log
# structures R (+) units.
OBJECT_REFS = {
    "monoid": {},
    "monoid_hom": {"source": ("monoid",), "target": ("monoid",)},
    "module_over_monoid": {"owner": ("monoid",)},
    "ring": {},
    "module": {"ring": ("ring", "gluing")},
    "grading": {"ring": ("ring",)},
    "chart": {"q": ("monoid",), "p": ("monoid",), "h": ("monoid_hom",),
              "a": ("ring",), "c": ("ring",)},
    "gluing": {"c1": ("ring",), "c2": ("ring",), "c0": ("ring",)},
    "descent_datum": {"gluing": ("gluing",), "m1": ("module",),
                      "m2": ("module",)},
    "lift_problem": {"aprime": ("ring",), "h": ("monoid_hom",),
                     "chart": ("monoid",)},
}
TASK_REFS = {
    "classify": {"hom": ("monoid_hom",)},
    "primes": {"monoid": ("monoid",)},
    "flat": {"module": ("module_over_monoid",)},
    "basis": {"module": ("module_over_monoid",)},
    "graded_flat": {"module": ("module",), "monoid": ("monoid",),
                    "chart": ("chart",), "grading": ("grading",)},
    "nodal_panel": {"module": ("module",)},
    "log_flat_point": {"monoid": ("monoid",), "module": ("module",)},
    "chart_criterion": {"chart": ("chart",), "module": ("module",)},
    "chart_invariance": {"chart": ("chart",), "module": ("module",),
                         "chart2": ("chart",)},
    "lift": {"problem": ("lift_problem",)},
    "glue": {"gluing": ("gluing",)},
    "descend": {"datum": ("descent_datum",)},
    "roundtrip": {"gluing": ("gluing",), "module": ("module",)},
}
# Every reference field above is required, except these: chart_invariance
# builds chart2 from units_rank when it is absent, and graded_flat needs only
# one of its three bases (validate_file checks that one is there).
OPTIONAL_REFS = {"chart_invariance": ("chart2",),
                 "graded_flat": ("monoid", "chart", "grading")}


class ValidationError(ValueError):
    pass


def parse_field(spec):
    if spec in (None, "q"):
        return pa.QQ
    if spec.startswith("fp:"):
        try:
            return pa.FieldFp(int(spec.split(":", 1)[1]))
        except ValueError as e:
            raise ValidationError(f"field {spec!r}: {e}") from e
    raise ValidationError(f"unknown field {spec!r}")


def _check_natural(what, value):
    if type(value) is not int or value < 0:  # a bool is not an integer here
        raise ValidationError(f"{what} must be an integer >= 0, not {value!r}")


def validate_file(doc):
    """The document-level checks: version, names, kinds, references and task
    fields.  An object's content is checked by building it (Workspace)."""
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise ValidationError("file must be a dict with version 1")
    kinds = {}
    for obj in doc.get("objects", []):
        if "name" not in obj or "kind" not in obj:
            raise ValidationError("object without name or kind")
        if obj["kind"] not in OBJECT_REFS:
            raise ValidationError(f"unknown object kind {obj['kind']!r}")
        if obj["name"] in kinds:
            raise ValidationError(f"duplicate name {obj['name']!r}")
        # objects are built in file order, so references point backwards
        _check_refs(obj, OBJECT_REFS[obj["kind"]], kinds)
        kinds[obj["name"]] = obj["kind"]
    for task in doc.get("tasks", []):
        if task.get("kind") not in TASK_REFS:
            raise ValidationError(f"unknown task kind {task.get('kind')!r}")
        refs = TASK_REFS[task["kind"]]
        _check_refs(task, refs, kinds)
        if task["kind"] == "graded_flat":
            if not any(f in task for f in OPTIONAL_REFS["graded_flat"]):
                raise ValidationError(
                    "graded_flat needs a monoid, chart or grading")
            ideals = task.get("ideals", [])
            if not isinstance(ideals, list) or not all(
                    isinstance(gens, list)
                    and all(isinstance(g, str) for g in gens)
                    for gens in ideals):
                raise ValidationError(
                    f"graded_flat ideals must be a list of lists of "
                    f"polynomials, not {ideals!r}")
        _check_natural("units_rank", task.get("units_rank", 0))
        for key, val in task.items():
            if key in refs or key in ("kind", "name", "units_rank", "shape"):
                continue
            if isinstance(val, str) and val not in kinds:
                raise ValidationError(
                    f"task references unknown object {val!r}")
    return doc


def _check_refs(entry, refs, kinds):
    """Each reference field of ``entry`` is present unless optional, and names
    an object, defined in ``kinds`` (name -> kind), of a kind that the field
    accepts."""
    optional = OPTIONAL_REFS.get(entry["kind"], ())
    for field, accepted in refs.items():
        if field not in entry:
            if field in optional:
                continue
            raise ValidationError(
                f"{entry['kind']} is missing its {field!r} field")
        val = entry[field]
        if not isinstance(val, str) or val not in kinds:
            raise ValidationError(
                f"{entry['kind']} {field!r} references unknown object {val!r}")
        if kinds[val] not in accepted:
            raise ValidationError(
                f"{entry['kind']} {field!r} references {val!r}, a "
                f"{kinds[val]}; expected {' or '.join(accepted)}")


def _parse_columns(ring, cols):
    """Module columns from lists of polynomial strings, one per position."""
    out = []
    for col in cols:
        vec = {}
        for pos, entry in enumerate(col):
            if not entry or entry == "0":
                continue
            for (mono, _), c in ring.parse(entry).items():
                vec[(mono, pos)] = c
        out.append(vec)
    return out


class Workspace:
    """Materialized objects of a problem file, each built once over the
    document's field; building an object is the one check of its content.
    An object that cannot be built (a missing field, a polynomial in
    unknown variables, an image outside its monoid) raises ValidationError
    naming it."""

    def __init__(self, doc, field):
        self.field = field
        self.objects = {}
        for obj in doc.get("objects", []):
            what = f"{obj['kind']} {obj['name']!r}"
            try:
                self.objects[obj["name"]] = self._build(obj)
            except KeyError as e:
                raise ValidationError(
                    f"{what} is missing its {e.args[0]!r} field") from e
            except (TypeError, ValueError) as e:
                raise ValidationError(f"{what}: {e}") from e

    def get(self, name):
        if name not in self.objects:
            raise ValidationError(f"unknown object {name!r}")
        return self.objects[name]

    def _build(self, obj):
        kind = obj["kind"]
        build = getattr(self, f"_build_{kind}")
        return build(obj)

    def _group(self, rank, torsion):
        return FgAbGroup(rank, tuple(torsion or ()))

    def _build_monoid(self, obj):
        amb = self._group(obj.get("ambient_rank", 0),
                          obj.get("ambient_torsion", []))
        return FineMonoid(amb, [tuple(g) for g in obj["generators"]])

    def _build_monoid_hom(self, obj):
        src = self.get(obj["source"])
        tgt = self.get(obj["target"])
        return MonoidHom(src, tgt, [tuple(v) for v in obj["images"]])

    def _build_module_over_monoid(self, obj):
        owner = self.get(obj["owner"])
        mk = obj.get("module_kind", "embedded")
        if mk == "free":
            return monmod.PModule.free(owner, obj.get("components", 1))
        if mk == "localization":
            return monmod.PModule.localization(
                owner, [tuple(s) for s in obj["denominators"]])
        gens = [(tuple(g), c) for g, c in obj["generators"]]
        kind = monmod.IDEAL if mk == "ideal" else monmod.EMBEDDED
        return monmod.PModule.embedded(owner, gens, kind=kind)

    def _build_ring(self, obj):
        names = obj["variables"]
        if not isinstance(names, list) or not all(
                isinstance(v, str) for v in names):
            raise ValidationError("needs a list of variable names")
        ring = PolyRing(self.field, names)
        rels = [ring.parse(s) for s in obj.get("relations", [])]
        return RingPresentation(ring, rels)

    def _build_module(self, obj):
        over = self.get(obj["ring"])
        if isinstance(over, de.GluingDatum):
            over = over.c
        rank, cols = obj["rank"], obj.get("relations", [])
        _check_natural("rank", rank)
        for col in cols:
            if not isinstance(col, list) or len(col) > rank:
                raise ValidationError(f"relation {col!r} is not a list of "
                                      f"at most {rank} entries")
        return ModulePresentation(over, rank, _parse_columns(over.ring, cols))

    def _build_grading(self, obj):
        over = self.get(obj["ring"])
        group = self._group(obj.get("group_rank", 0),
                            obj.get("group_torsion", []))
        return gd.GradedRing(group, over,
                             [tuple(d) for d in obj["degrees"]])

    def _build_chart(self, obj):
        q = self.get(obj["q"])
        p = self.get(obj["p"])
        h = self.get(obj["h"])
        a = self.get(obj["a"])
        c = self.get(obj["c"])
        t = [a.ring.parse(s) for s in obj["t"]]
        b = [c.ring.parse(s) for s in obj["b"]]
        f = RingMap(a, c, [c.ring.parse(s) for s in obj["f"]])
        return ch.ChartData(q, p, h, a, c, t, b, f)

    def _build_gluing(self, obj):
        c1 = self.get(obj["c1"])
        c2 = self.get(obj["c2"])
        c0 = self.get(obj["c0"])
        f1 = RingMap(c1, c0, [c0.ring.parse(s) for s in obj["f1"]])
        f2 = RingMap(c2, c0, [c0.ring.parse(s) for s in obj["f2"]])
        return de.GluingDatum(c1, c2, c0, f1, f2)

    def _build_descent_datum(self, obj):
        glue = self.get(obj["gluing"])
        m1 = self.get(obj["m1"])
        m2 = self.get(obj["m2"])
        return de.DescentDatum(glue, m1, m2,
                               _parse_columns(glue.c0.ring, obj["phi"]))

    def _build_lift_problem(self, obj):
        aprime = self.get(obj["aprime"])
        ext = ch.SquareZeroExtension(
            aprime, [aprime.ring.parse(s) for s in obj.get("kernel", [])])
        h = self.get(obj["h"])
        chart = self.get(obj["chart"])

        def units(pres, entries):
            return [ch.certify_unit(pres, pres.ring.parse(s))
                    for s in entries]

        return ch.LiftProblem(
            ext, h, chart,
            [tuple(v) for v in obj["a_chart"]],
            units(ext.aprime, obj["a_units"]),
            [tuple(v) for v in obj["b_chart"]],
            units(ext.a, obj["b_units"]),
            units(ext.a, obj["eta_units"]))


# -- task execution ---------------------------------------------------------------


def _jsonable(x):
    if isinstance(x, (bool, int, str, type(None))):
        return x
    if isinstance(x, float):
        return x
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return str(x)


def run_task(ws: Workspace, task):
    kind = task["kind"]
    handler = globals()[f"_task_{kind}"]
    return handler(ws, task)


def _task_classify(ws, task):
    from .monoid import classify_morphism
    h = ws.get(task["hom"])
    c = classify_morphism(h)
    return {
        "injective": c.injective,
        "surjective": c.surjective,
        "strict": c.strict,
        "vertical": c.vertical,
        "flat": c.flat,
        "free": c.free,
        "has_basis_witness": c.basis is not None,
    }


def _task_primes(ws, task):
    p = ws.get(task["monoid"])
    return {"primes": [[list(g) for g in q.generators]
                       for q in p.prime_ideals()]}


def _task_flat(ws, task):
    m = ws.get(task["module"])
    v = monmod.is_flat(m)
    return {"flat": v.flat, "torsion_free": v.torsion_free,
            "comparable": v.comparable, "witness": _jsonable(v.witness)}


def _task_basis(ws, task):
    m = ws.get(task["module"])
    try:
        res = monmod.extract_basis(m)
    except monmod.NotFinitelyGenerated as e:
        return {"ok": False, "error": str(e)}
    return {"ok": res.ok, "basis": _jsonable(res.basis),
            "witness": _jsonable(res.witness)}


def _task_graded_flat(ws, task):
    m = ws.get(task["module"])
    if "monoid" in task:
        alg = gd.MonoidAlgebra(ws.get(task["monoid"]), ws.field,
                               names=list(m.over.ring.names))
        shape = gd.KPShape(alg)
        ok, cert = gd.graded_flat(m, shape)
    elif "chart" in task:
        chart = ws.get(task["chart"])
        ok, cert = ch.second_chart_criterion(chart, m)
    else:
        # fallback: exactness against an explicit family of homogeneous ideals
        grading = ws.get(task["grading"])
        family = []
        for gens in task.get("ideals", []):
            parsed = [grading.pres.ring.parse(s) for s in gens]
            if not gd.is_homogeneous_ideal(grading, parsed):
                raise gd.NotHomogeneous("ideal in the family is not homogeneous")
            family.append(parsed)
        ok, results = gd.graded_flat_on_ideal_family(m, family)
        cert = {"criterion": "homogeneous ideal family",
                "family_size": len(family), "entries": results,
                "complete": False}
    return {"graded_flat": ok, "certificate": _jsonable(cert)}


def _task_nodal_panel(ws, task):
    m = ws.get(task["module"])
    panel = gd.nodal_criteria_panel(m)
    return {"panel": _jsonable(panel),
            "all_equal": len(set(panel.values())) == 1}


def _task_log_flat_point(ws, task):
    p = ws.get(task["monoid"])
    m = ws.get(task["module"])
    ok, entries = ch.log_flat_over_point(p, m)
    return {"log_flat": ok, "primes": _jsonable(entries)}


def _task_chart_criterion(ws, task):
    chart = ws.get(task["chart"])
    m = ws.get(task["module"])
    ok, cert = ch.second_chart_criterion(chart, m)
    return {"log_flat_over_chart_base": ok, "certificate": _jsonable(cert)}


def _task_chart_invariance(ws, task):
    chart = ws.get(task["chart"])
    m = ws.get(task["module"])
    chart2 = ws.get(task["chart2"]) if "chart2" in task else \
        ch.unit_extension_chart(chart, task.get("units_rank", 1))
    ok, cert = ch.chart_change_invariance(chart, chart2, m)
    return {"invariant": ok, "certificate": _jsonable(cert)}


def _task_lift(ws, task):
    prob = ws.get(task["problem"])
    lift = ch.homotopy_lift(prob)
    tower = lift.tower
    return {
        "cover_adjoined": list(lift.cover_adjoined),
        "identities_verified": True,
        "l_units": [tower.aprime.ring.to_str(u.val) for u in lift.l.units],
        "alpha_units": [tower.a.ring.to_str(u.val) for u in lift.alpha.units],
        "beta_units": [tower.aprime.ring.to_str(u.val) for u in lift.beta.units],
    }


def _task_glue(ws, task):
    glue = ws.get(task["gluing"])
    return {
        "presentation": {
            "variables": list(glue.c.ring.names),
            "relations": [glue.c.ring.to_str(g) for g in glue.c.gb()],
        },
        "cocartesian": glue.cocartesian_certificate(),
        "exact_sequence": glue.exact_sequence_certificate(),
    }


def _task_descend(ws, task):
    d = ws.get(task["datum"])
    out = de.descend_D(d)
    return {"rank": out.rank, "dimension": _jsonable(out.dim())}


def _task_roundtrip(ws, task):
    glue = ws.get(task["gluing"])
    m = ws.get(task["module"])
    rep = de.roundtrip_check(glue, m)
    return _jsonable(rep)


# -- the report ----------------------------------------------------------------------


def run_document(doc, field_spec=None):
    field = parse_field(field_spec)
    doc = validate_file(doc)
    tasks = []
    any_error = False
    # one memo of Groebner bases and Smith forms per document
    with run_scope():
        ws = Workspace(doc, field)
        for task in doc.get("tasks", []):
            entry = {"kind": task["kind"]}
            if "name" in task:
                entry["name"] = task["name"]
            try:
                entry["status"] = "ok"
                entry["result"] = run_task(ws, task)
            except Exception as e:  # task errors are carried in-report
                entry["status"] = "error"
                entry["error"] = f"{type(e).__name__}: {e}"
                any_error = True
            tasks.append(entry)
    report = {
        "version": 1,
        "engine": {
            "package": f"logflat {__version__}",
            "field": field_spec or "q",
            # fixed fields of report format 1: degrevlex is the only term
            # order and no verdict depends on a window; the two
            # literals keep format-1 reports byte-stable
            "order": "degrevlex",
            "window": 8,
        },
        "input": doc,
        "tasks": tasks,
    }
    return report, (1 if any_error else 0)


def render_report(report, pretty=False, timing_ms=None):
    out = dict(report)
    if timing_ms is not None:
        out["timing"] = {"total_ms": timing_ms}
    if pretty:
        return json.dumps(out, sort_keys=True, indent=2) + "\n"
    return json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n"


def strip_timing(report_text):
    doc = json.loads(report_text)
    doc.pop("timing", None)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# -- galleries --------------------------------------------------------------------------


def gallery_dir():
    return Path(__file__).parent / "galleries"


def list_galleries():
    return sorted(p.stem for p in gallery_dir().glob("*.json")
                  if not p.name.endswith(".golden.json"))


def load_gallery(name):
    path = gallery_dir() / f"{name}.json"
    if not path.exists():
        raise ValidationError(f"unknown gallery {name!r}")
    return json.loads(path.read_text())


def run_gallery(name):
    doc = load_gallery(name)
    report, code = run_document(doc)
    golden_path = gallery_dir() / f"{name}.golden.json"
    matches = None
    if golden_path.exists():
        golden = golden_path.read_text()
        matches = strip_timing(render_report(report)) == strip_timing(golden)
    return report, code, matches


# -- entry point --------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="logflat",
        description="flatness criteria for monoids, graded rings and gluings")
    parser.add_argument("--field", default="q", help="q or fp:<prime>")
    parser.add_argument("--out", default=None)
    parser.add_argument("--pretty", action="store_true")
    parser.add_argument("--json", dest="pretty", action="store_false")
    sub = parser.add_subparsers(dest="command", required=True)
    p_check = sub.add_parser("check", help="run a problem file")
    p_check.add_argument("file")
    p_val = sub.add_parser("validate", help="validate a problem file")
    p_val.add_argument("file")
    p_gal = sub.add_parser("gallery", help="run a bundled worked example")
    p_gal.add_argument("name")
    sub.add_parser("list-galleries", help="list bundled worked examples")
    args = parser.parse_args(argv)

    def emit(text):
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)

    t0 = time.monotonic()
    try:
        if args.command == "validate":
            doc = json.loads(Path(args.file).read_text())
            Workspace(validate_file(doc), parse_field(args.field))
            emit(json.dumps({"valid": True}, sort_keys=True) + "\n")
            return 0
        if args.command == "list-galleries":
            emit(json.dumps({"galleries": list_galleries()},
                            sort_keys=True) + "\n")
            return 0
        if args.command == "gallery":
            report, code, matches = run_gallery(args.name)
            report["golden_matches"] = matches
            ms = int((time.monotonic() - t0) * 1000)
            emit(render_report(report, args.pretty, timing_ms=ms))
            if matches is False:
                return 1
            return code
        if args.command == "check":
            doc = json.loads(Path(args.file).read_text())
            report, code = run_document(doc, args.field)
            ms = int((time.monotonic() - t0) * 1000)
            emit(render_report(report, args.pretty, timing_ms=ms))
            return code
    except (ValidationError, json.JSONDecodeError, FileNotFoundError) as e:
        sys.stderr.write(f"validation error: {e}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
