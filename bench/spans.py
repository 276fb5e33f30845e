"""Per-layer spans for the traced run.

``install`` replaces each function in ``TRACED`` by a timing wrapper in
every logflat namespace that binds it: ``chart``, ``descent`` and ``graded``
import polyalg names with ``from .polyalg import ...``, so patching
``polyalg`` alone would miss their calls.  A span records its name, start,
end, parent span and task; spans stay in memory until ``layer_metrics``
reduces them.  A span's self time is its duration minus the durations of
its child spans.  Work the wrappers do for counters runs inside a
``trace.note`` span, so it is charged to the tracer and not to a layer.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array

LAYERS = ("cli", "chart", "graded", "descent", "monmod", "monoid", "polyalg",
          "qcone", "abgrp")

# (layer, attribute path) of every function that gets a span
TRACED = (
    ("cli", "run_document"), ("cli", "run_task"), ("cli", "run_gallery"),
    ("cli", "render_report"),
    ("chart", "chart_change_invariance"), ("chart", "second_chart_criterion"),
    ("chart", "log_flat_over_point"), ("chart", "build_B"),
    ("graded", "nodal_criteria_panel"), ("graded", "graded_flat"),
    ("graded", "flat_over_kt"),
    ("descent", "descend_D"), ("descent", "pullback_P"),
    ("descent", "tor_gate"), ("descent", "roundtrip_check"),
    ("monmod", "is_flat"), ("monmod", "extract_basis"),
    ("monoid", "FineMonoid.member"), ("monoid", "FineMonoid.faces"),
    ("monoid", "classify_morphism"),
    ("polyalg", "buchberger"), ("polyalg", "m_reduce"),
    ("polyalg", "syzygies"), ("polyalg", "kernel_of_matrix"),
    ("polyalg", "homology"), ("polyalg", "tor1"), ("polyalg", "toric_ideal"),
    ("polyalg", "vector_space_basis"),
    ("qcone", "feasible_point"),
    ("abgrp", "smith_normal_form"),
)

TASK_SPAN = "bench.task"
NOTE_SPAN = "trace.note"

# Every per-layer metric, with its unit; all are per traced pass.  The
# end-to-end metric each group should move, and where:
# - polyalg.buchberger.* and polyalg.m_reduce.*: m_reduce has its own span,
#   so buchberger self time is mostly the pair queue.  Moves wall_s and
#   task_tail_ms on chart_tower and descent_gluing; monoid_cones (toric
#   ideals in ring_mode) mostly not.
# - polyalg.syzygies.* (distinct_ratio: distinct (vecs, rank, nvars) inputs
#   over calls): wall_s on chart_tower (tower memoization), not on
#   descent_gluing.
# - polyalg.{kernel_of_matrix,homology,tor1,toric_ideal}.s and
#   polyalg.vector_space_basis.* (capped: None returned for a finite
#   quotient): wall_s on descent_gluing (dimensions, Hom) and monoid_cones
#   (toric).
# - chart.*, graded.*, descent.*: the per-task breakdown on chart_tower,
#   galleries and descent_gluing.
# - monoid.*, qcone.*, abgrp.*, monmod.*: wall_s on monoid_cones only.
# - cli.overhead_s (run_document minus run_task): setup_s and wall_s on
#   galleries.
# - layer.<module>.self_s: self time of that module's spans; layer.bench is
#   time inside a task but outside every traced function, layer.trace the
#   wrappers' bookkeeping.  The layers add up to the traced pass time.
#   trace.overhead_s is the traced minus the untraced pass wall time.
METRICS = (
    [("polyalg.buchberger." + k, u) for k, u in (
        ("calls", "count"), ("self_s", "s"), ("self_share", "ratio"),
        ("gens_in", "count"), ("basis_out", "count"), ("basis_max", "count"))]
    + [("polyalg.m_reduce.calls", "count"), ("polyalg.m_reduce.s", "s"),
       ("polyalg.syzygies.calls", "count"), ("polyalg.syzygies.self_s", "s"),
       ("polyalg.syzygies.distinct_ratio", "ratio")]
    + [(f"polyalg.{f}.s", "s") for f in (
        "kernel_of_matrix", "homology", "tor1", "toric_ideal")]
    + [("polyalg.vector_space_basis.calls", "count"),
       ("polyalg.vector_space_basis.capped", "count"),
       ("polyalg.vector_space_basis.s", "s")]
    + [(f"chart.{f}.s", "s") for f in (
        "chart_change_invariance", "second_chart_criterion",
        "log_flat_over_point", "build_B")]
    + [(f"graded.{f}.s", "s") for f in (
        "nodal_criteria_panel", "graded_flat", "flat_over_kt")]
    + [(f"descent.{f}.s", "s") for f in (
        "descend_D", "pullback_P", "tor_gate", "roundtrip_check")]
    + [("descent.tor_gate.calls", "count"),
       ("monoid.FineMonoid.member.calls", "count"),
       ("monoid.FineMonoid.member.s", "s"),
       ("monoid.FineMonoid.faces.s", "s"),
       ("monoid.classify_morphism.s", "s"),
       ("qcone.feasible_point.calls", "count"),
       ("qcone.feasible_point.s", "s"),
       ("qcone.feasible_point.constraints_in", "count"),
       ("abgrp.smith_normal_form.calls", "count"),
       ("abgrp.smith_normal_form.s", "s"),
       ("monmod.is_flat.s", "s"), ("monmod.extract_basis.s", "s"),
       ("cli.overhead_s", "s")]
    + [(f"layer.{name}.self_s", "s")
       for name in LAYERS + ("bench", "trace")]
    + [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
       ("trace.overhead_s", "s"), ("trace.spans", "count")]
)


class Tracer:
    """Spans in parallel arrays, plus counters noted by the wrappers."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.task = array("l")
        self.outer = array("b")  # no enclosing span of the same name
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._depth = []
        self.task_id = -1
        self.paused = False
        self.counters = {}
        self.syz_inputs = set()

    def name(self, label):
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
            self._depth.append(0)
        return self._ids[label]

    def open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.task_id)
        self.outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name_id[idx]] -= 1

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def end_pass(self):
        """Distinct syzygy inputs are counted within a pass."""
        self.count("polyalg.syzygies.distinct", len(self.syz_inputs))
        self.syz_inputs = set()


# -- counters noted after a call ---------------------------------------------


def _note_buchberger(tracer, lib, args, kwargs, out):
    gens = args[1] if len(args) > 1 else kwargs["gens"]
    tracer.count("polyalg.buchberger.gens_in", sum(1 for g in gens if g))
    tracer.count("polyalg.buchberger.basis_out", len(out))
    key = "polyalg.buchberger.basis_max"
    tracer.counters[key] = max(tracer.counters.get(key, 0), len(out))


def _note_syzygies(tracer, lib, args, kwargs, out):
    _field, vecs, rank, nvars = args[:4]
    tracer.syz_inputs.add(
        (tuple(frozenset(v.items()) for v in vecs), rank, nvars))


def _finite_by_leading_terms(pa, over, rank, rel_cols):
    """The finiteness test of the quotient, from the leading terms alone."""
    gb = pa.ModulePresentation(over, rank, rel_cols).gb()
    key = over.ring.mkey()
    leads = [max(g, key=key) for g in gb]
    nv = over.ring.nvars
    for pos in range(rank):
        pos_leads = [m for (m, p) in leads if p == pos]
        if (0,) * nv in pos_leads:
            continue
        for v in range(nv):
            if not any(m[v] > 0 and all(e == 0 for i, e in enumerate(m)
                                        if i != v) for m in pos_leads):
                return False
    return True


def _note_vector_space_basis(tracer, lib, args, kwargs, out):
    """``capped``: None returned for a quotient that is finite."""
    if out is not None:
        return
    over, rank, rel_cols = args[:3]
    tracer.paused = True
    try:
        finite = _finite_by_leading_terms(lib.polyalg, over, rank, rel_cols)
    finally:
        tracer.paused = False
    if finite:
        tracer.count("polyalg.vector_space_basis.capped")


def _note_feasible_point(tracer, lib, args, kwargs, out):
    constraints = args[0] if args else kwargs["constraints"]
    tracer.count("qcone.feasible_point.constraints_in", len(constraints))


NOTES = {
    "polyalg.buchberger": _note_buchberger,
    "polyalg.syzygies": _note_syzygies,
    "polyalg.vector_space_basis": _note_vector_space_basis,
    "qcone.feasible_point": _note_feasible_point,
}


# -- installing the wrappers -------------------------------------------------


def _wrap(tracer, lib, label, fn):
    nid = tracer.name(label)
    note = NOTES.get(label)
    note_id = tracer.name(NOTE_SPAN)

    def traced(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if note is not None:
            idx = tracer.open(note_id)
            try:
                note(tracer, lib, args, kwargs, out)
            finally:
                tracer.close(idx)
        return out

    return traced


def install(tracer, lib):
    """Wrap every function in ``TRACED``; returns a function that undoes it."""
    namespaces = [m for name, m in sys.modules.items()
                  if name == "logflat" or name.startswith("logflat.")]
    patches = []
    for layer, path in TRACED:
        *owner_path, attr = path.split(".")
        owner = getattr(lib, layer)
        for part in owner_path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = _wrap(tracer, lib, f"{layer}.{path}", original)
        owners = [owner] if owner_path else namespaces
        for ns in owners:
            for key, val in list(vars(ns).items()):
                if val is original:
                    patches.append((ns, key, val))
                    setattr(ns, key, wrapper)

    def restore():
        for ns, key, val in reversed(patches):
            setattr(ns, key, val)

    return restore


# -- reduction to per-layer metrics ------------------------------------------


def layer_metrics(tracer, traced_walls, untraced_walls):
    """Every metric in ``METRICS``, as a mean per traced pass."""
    passes = len(traced_walls)
    n = len(tracer.start)
    child = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += tracer.end[i] - tracer.start[i]
    calls, incl, self_s = {}, {}, {}
    for i in range(n):
        label = tracer.names[tracer.name_id[i]]
        dur = tracer.end[i] - tracer.start[i]
        calls[label] = calls.get(label, 0) + 1
        self_s[label] = self_s.get(label, 0.0) + dur - child[i]
        if tracer.outer[i]:
            incl[label] = incl.get(label, 0.0) + dur
    layer_self = {}
    for label, s in self_s.items():
        layer = label.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s

    traced_wall = statistics.median(traced_walls)
    untraced_wall = statistics.median(untraced_walls)
    values = {}
    for name, _unit in METRICS:
        if name.startswith("layer."):
            v = layer_self.get(name.split(".")[1], 0.0)
        elif name.endswith(".calls"):
            v = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            v = self_s.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".s"):
            v = incl.get(name[:-len(".s")], 0.0)
        else:
            v = tracer.counters.get(name, 0)
        values[name] = v / passes
    values["polyalg.buchberger.basis_max"] = tracer.counters.get(
        "polyalg.buchberger.basis_max", 0)
    syz_calls = calls.get("polyalg.syzygies", 0)
    values["polyalg.syzygies.distinct_ratio"] = (
        tracer.counters.get("polyalg.syzygies.distinct", 0) / syz_calls
        if syz_calls else 0.0)
    values["polyalg.buchberger.self_share"] = (
        values["polyalg.buchberger.self_s"] / traced_wall)
    values["cli.overhead_s"] = (incl.get("cli.run_document", 0.0)
                                - incl.get("cli.run_task", 0.0)) / passes
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.spans"] = n / passes
    return values
