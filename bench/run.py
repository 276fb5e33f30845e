"""Closed-loop benchmark for logflat.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s>
                         --trace <0|1>

One caller, one thread: it submits a task, waits for its verdict, then
submits the next. A pass is every task of the workload once, on inputs
built fresh from the seed; the run repeats passes while another pass
fits in ``--seconds`` (at least one pass). Every verdict is checked
against an expected value that does not come from logflat (see
``workloads.py``).

End-to-end metrics: ``setup_s`` is the median of nine set-ups (a fresh
import of the library plus building one pass's inputs); ``wall_s`` the
median pass (the sum of its tasks' times to verdict); ``task_p50_ms`` the
median time to verdict over all tasks; ``task_tail_ms`` the median over
passes of each pass's highest order statistic with ten tasks above it
(the maximum when a pass has ten tasks or fewer); ``peak_rss_mb`` the peak
resident memory of the process.  Times are in seconds at reference speed:
the host's speed drifts too much for raw seconds to compare between runs,
so each time is scaled by a reference kernel sampled while it runs
(``speed.py``).  The raw medians are on the report line.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``spans.py``, with the tracing overhead, in raw seconds and without the
sampler, whose timer would land inside the spans; end-to-end numbers never
come from a traced pass.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The line before it is ``{"report": ...}``: failure and mismatch ratios, the
environment, and the pass and sample counts behind each percentile.
The library is imported from ``src/`` of this checkout and nowhere else;
without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from functools import partial
from pathlib import Path
from types import SimpleNamespace

from spans import METRICS, TASK_SPAN, Tracer, install, layer_metrics
from speed import REFERENCE_S, Sampler
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "chart", "graded", "descent", "monmod", "monoid",
           "polyalg", "qcone", "abgrp")
SETUP_REPS = 9
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("task_p50_ms", "ms"),
    ("task_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class MissingLibrary(RuntimeError):
    pass


def import_library():
    """Import logflat afresh from this checkout, so that the import itself
    is timed on every set-up."""
    if not (SRC / "logflat" / "__init__.py").is_file():
        raise MissingLibrary(f"no logflat sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "logflat" or n.startswith("logflat.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = SimpleNamespace(**{m: importlib.import_module(f"logflat.{m}")
                             for m in MODULES})
    if Path(lib.cli.__file__).resolve().parent != SRC / "logflat":
        raise MissingLibrary(f"logflat imported from {lib.cli.__file__}")
    return lib


def set_up(build, seed, sampler):
    """Import the library and build one pass's inputs; returns the library
    and the (raw, scaled) seconds taken.  The garbage of the set-up before,
    a whole copy of the library among it, is collected first, untimed."""
    gc.collect()

    def step():
        lib = import_library()
        build(lib, random.Random(seed))
        return lib
    return sampler.timed(step)


def submit(task):
    """One request; a task that raises counts as failed."""
    try:
        return task.call(), None
    except Exception as e:
        return None, f"{type(e).__name__}: {e}"


def run_pass(tasks, sampler=None, tracer=None):
    """Submit every task in turn; verdicts are judged after the pass.

    Garbage is collected before each submission and that time is left out
    of the pass: as with one ``logflat`` process per problem file, a task
    does not pay for the garbage of the task before it.  With a sampler,
    each task is timed in raw seconds and in seconds at reference speed
    (``speed.py``); without one (the traced run) both are raw seconds.
    The pass's time is the sum of its tasks' times."""
    outcomes = []
    clock = time.perf_counter
    if tracer is not None:
        task_nid = tracer.name(TASK_SPAN)
    for task in tasks:
        gc.collect()
        if sampler is not None:
            (raw, error), elapsed, scaled = sampler.timed(
                partial(submit, task))
        else:
            if tracer is not None:
                tracer.task_id += 1
                span = tracer.open(task_nid)
            t0 = clock()
            raw, error = submit(task)
            elapsed = scaled = clock() - t0
            if tracer is not None:
                tracer.close(span)
        outcomes.append((task, elapsed, scaled, raw, error))
    if tracer is not None:
        tracer.end_pass()
    return outcomes


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.samples = []  # scaled task times of every pass
        self.raw_samples = []
        self.walls = []  # scaled pass times
        self.raw_walls = []
        self.tails = []  # tail(...) of each pass
        self.problems = []

    def add(self, outcomes):
        self.walls.append(sum(scaled for _, _, scaled, _, _ in outcomes))
        self.raw_walls.append(sum(raw for _, raw, _, _, _ in outcomes))
        self.tails.append(tail([scaled for _, _, scaled, _, _ in outcomes]))
        for task, elapsed, scaled, raw, error in outcomes:
            self.attempted += 1
            self.samples.append(scaled)
            self.raw_samples.append(elapsed)
            if error is not None:
                self.failed += 1
                self._problem(task.name, error)
                continue
            try:
                got = task.judge(raw)
            except Exception as e:  # a verdict that cannot be read differs
                got = f"unreadable verdict: {type(e).__name__}: {e}"
            if got != task.expect:
                self.mismatched += 1
                self._problem(task.name, f"got {got!r}, expected {task.expect!r}")

    def _problem(self, name, text):
        if len(self.problems) < 10:
            self.problems.append({"task": name, "detail": text[:400]})


def repeat_for(seconds, step):
    """Run ``step`` at least once, and again while another step of the
    median length so far still ends within ``seconds``."""
    start = time.perf_counter()
    lengths = []
    while True:
        t0 = time.perf_counter()
        step()
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return


def one_pass(build, lib, seed, tally, sampler=None, tracer=None):
    tasks = build(lib, random.Random(seed))
    if tracer is None:
        tally.add(run_pass(tasks, sampler))
        return
    restore = install(tracer, lib)
    try:
        tally.add(run_pass(tasks, tracer=tracer))
    finally:
        restore()


def tail(samples):
    """(value, percentile, samples beyond) of one pass: the highest order
    statistic with TAIL_BEYOND samples above it, or the maximum when there
    are too few samples for that.  Taken per pass, so that the percentile
    does not depend on how many passes fit in the run."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n, TAIL_BEYOND


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "logflat").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(workload, seed, seconds, trace):
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "clients": 1, "loop": "closed",
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload, seed, seconds, trace, build=None):
    """One benchmark run; returns (report, result)."""
    if build is None:
        build = partial(WORKLOADS[workload], small=False)
    if trace:
        # untraced and traced passes alternate, so that drift in the
        # machine's speed does not show up as tracing overhead
        lib = import_library()
        plain, traced, tracer = Tally(), Tally(), Tracer()

        def pair():
            one_pass(build, lib, seed, plain)
            one_pass(build, lib, seed, traced, tracer=tracer)

        repeat_for(seconds, pair)
        metrics = layer_metrics(tracer, traced.walls, plain.walls)
        out = {name: metric(metrics[name], unit) for name, unit in METRICS}
        tallies = (plain, traced)
    else:
        setups = []
        tally = Tally()
        with Sampler() as sampler:
            for _ in range(SETUP_REPS):
                lib, raw, scaled = set_up(build, seed, sampler)
                setups.append((raw, scaled))
            repeat_for(seconds,
                       partial(one_pass, build, lib, seed, tally, sampler))
        values = {
            "setup_s": statistics.median(s for _, s in setups),
            "wall_s": statistics.median(tally.walls),
            "task_p50_ms": 1000 * statistics.median(tally.samples),
            "task_tail_ms": 1000 * statistics.median(
                value for value, _, _ in tally.tails),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        out = {name: metric(values[name], unit) for name, unit in END_TO_END}
        tallies = (tally,)
        speed = {
            "reference_kernel_s": REFERENCE_S,
            "kernel_samples": len(sampler.took),
            "kernel_median_s": statistics.median(sampler.took),
            "raw_setup_s": statistics.median(r for r, _ in setups),
            "raw_wall_s": statistics.median(tally.raw_walls),
            "raw_task_p50_ms": 1000 * statistics.median(tally.raw_samples),
        }

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    mismatched = sum(t.mismatched for t in tallies)
    measured = tallies[-1]
    _value, pct, beyond = measured.tails[0]
    report = environment(workload, seed, seconds, trace)
    report.update({
        "passes": len(measured.walls),
        "tasks_per_pass": len(measured.samples) // len(measured.walls),
        "task_samples": len(measured.samples),
        "task_tail_percentile": pct,
        "task_tail_samples_beyond": beyond,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": metric(failed / attempted, "ratio"),
        "verdict_mismatch": metric(mismatched / attempted, "ratio"),
        "mismatched": mismatched,
        "problems": sum((t.problems for t in tallies), []),
    })
    if trace:
        report["untraced_passes"] = len(tallies[0].walls)
    else:
        report["speed"] = speed
    result = {
        "correct": mismatched == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, result = run(args.workload, args.seed, args.seconds,
                             args.trace)
    except MissingLibrary as e:
        sys.stderr.write(f"bench: {e}\n")
        return 2
    emit(report, result)
    return 0


def emit(report, result):
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)


if __name__ == "__main__":
    sys.exit(main())
