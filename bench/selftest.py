"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload once at its smallest size, untraced and traced, and
checks that each run prints every metric of ``BENCHMARK.json`` with its
unit, the failure and mismatch ratios and the environment, and that every
verdict matched.  Then it runs each workload with one expected verdict
deliberately wrong and checks that the run counts a mismatch and does not
report itself correct.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from functools import partial

import run
from spans import METRICS
from workloads import WORKLOADS

REPORT_KEYS = ("commit", "source_sha256", "python", "nproc", "seed",
               "passes", "tasks_per_pass", "task_samples",
               "task_tail_percentile", "task_tail_samples_beyond",
               "attempted", "failed")


class SelfTestFailure(Exception):
    pass


def check(ok, what):
    if not ok:
        raise SelfTestFailure(what)


def printed(report, result):
    """The two lines a run prints, read back."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.emit(report, result)
    *_, report_line, result_line = out.getvalue().splitlines()
    return json.loads(report_line)["report"], json.loads(result_line)


def check_metrics(result, wanted, label):
    metrics = result["metrics"]
    check(set(metrics) == {name for name, _ in wanted},
          f"{label}: metric names {sorted(metrics)}")
    for name, unit in wanted:
        m = metrics[name]
        check(m["unit"] == unit, f"{label}: {name} has unit {m['unit']!r}")
        check(isinstance(m["value"], (int, float)),
              f"{label}: {name} has value {m['value']!r}")


def wrong_first_verdict(build, lib, rng):
    tasks = build(lib, rng)
    tasks[0].expect = ("deliberately wrong", tasks[0].expect)
    return tasks


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]]
          == list(run.END_TO_END), "BENCHMARK.json end_to_end differs")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]]
          == list(METRICS), "BENCHMARK.json per_layer differs")

    for name in WORKLOADS:
        small = partial(WORKLOADS[name], small=True)
        for trace, wanted in ((0, run.END_TO_END), (1, METRICS)):
            label = f"{name} --trace {trace}"
            report, result = printed(*run.run(name, 1, 0, trace, small))
            check(result["correct"] and result["failed"] == 0,
                  f"{label}: not correct: {report['problems']}")
            check(result["attempted"] >= 1, f"{label}: nothing attempted")
            check_metrics(result, wanted, label)
            for key in ("failed_ratio", "verdict_mismatch"):
                check(report[key] == {"value": 0.0, "unit": "ratio"},
                      f"{label}: {key} = {report[key]}")
            keys = REPORT_KEYS + (() if trace else ("speed",))
            missing = [k for k in keys if k not in report]
            check(not missing, f"{label}: report lacks {missing}")

        report, result = run.run(name, 1, 0, 0,
                                 partial(wrong_first_verdict, small))
        check(report["mismatched"] == 1 and not result["correct"],
              f"{name}: a wrong expected verdict was not counted")
        check(report["verdict_mismatch"]["value"] == 1 / result["attempted"],
              f"{name}: verdict_mismatch = {report['verdict_mismatch']}")
        print(f"selftest {name}: ok", flush=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestFailure as e:
        sys.stderr.write(f"selftest failed: {e}\n")
        sys.exit(1)
