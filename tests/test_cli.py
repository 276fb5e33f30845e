import ast
import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from logflat import cli, scope
from logflat import polyalg as pa


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "logflat.cli", *args],
                          capture_output=True, text=True)


NODAL_FILE = {
    "version": 1,
    "objects": [
        {"name": "B", "kind": "ring", "variables": ["x", "y"],
         "relations": ["x*y"]},
        {"name": "M", "kind": "module", "ring": "B", "rank": 1,
         "relations": [["x + y"]]},
    ],
    "tasks": [
        {"kind": "nodal_panel", "module": "M"},
    ],
}


GRADED_FAMILY_FILE = {
    "version": 1,
    "objects": [
        {"name": "B", "kind": "ring", "variables": ["x", "y"],
         "relations": ["x*y"]},
        {"name": "G", "kind": "grading", "ring": "B", "group_rank": 1,
         "degrees": [[1], [-1]]},
        {"name": "M", "kind": "module", "ring": "B", "rank": 1,
         "relations": [["x + y"]]},
    ],
    "tasks": [
        {"kind": "graded_flat", "module": "M", "grading": "G",
         "ideals": [["x"], ["y"], ["x", "y"]]},
    ],
}


def main_in_process(capsys, tmp_path, command, doc, *flags):
    """``cli.main`` on ``doc`` written to a file: (exit code, stderr)."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main([*flags, "--out", str(tmp_path / "out.json"), command,
                     str(path)])
    return code, capsys.readouterr().err


def lift_file(h_images, b_chart, b_units):
    """A lift problem over k[e]/(e^2) -> k with a(g) = 1 + e on N, chart
    R = N, and a lift task."""
    n = len(b_chart)
    return {
        "version": 1,
        "objects": [
            {"name": "Q", "kind": "monoid", "ambient_rank": 1,
             "generators": [[1]]},
            {"name": "P", "kind": "monoid", "ambient_rank": n,
             "generators": [[int(i == j) for j in range(n)]
                            for i in range(n)]},
            {"name": "h", "kind": "monoid_hom", "source": "Q", "target": "P",
             "images": [h_images]},
            {"name": "A1", "kind": "ring", "variables": ["e"],
             "relations": ["e^2"]},
            {"name": "L", "kind": "lift_problem", "aprime": "A1",
             "kernel": ["e"], "h": "h", "chart": "Q",
             "a_chart": [[h_images[0]]], "a_units": ["1 + e"],
             "b_chart": b_chart, "b_units": b_units, "eta_units": ["1"]},
        ],
        "tasks": [{"kind": "lift", "problem": "L"}],
    }


class TestLift:
    @pytest.mark.parametrize("field, doc, expected", [
        # the fifth root of 1 + e does not exist over F5: one cover
        ("fp:5", lift_file([5], [[1]], ["1"]),
         {"cover_adjoined": ["rt0"], "l_units": ["rt0"],
          "alpha_units": ["rt0"], "beta_units": ["4*e^2 + 1"]}),
        # the diagonal N -> N^2, torsion-free cokernel
        ("q", lift_file([1, 1], [[1], [0]], ["1", "1"]),
         {"cover_adjoined": [], "l_units": ["1", "e + 1"],
          "alpha_units": ["1", "e + 1"], "beta_units": ["-e^2 + 1"]}),
    ])
    def test_lift_task(self, tmp_path, field, doc, expected):
        f = tmp_path / "lift.json"
        f.write_text(json.dumps(doc))
        r = run_cli("--field", field, "check", str(f))
        assert r.returncode == 0, r.stdout + r.stderr
        (task,) = json.loads(r.stdout)["tasks"]
        assert task["status"] == "ok"
        assert task["result"] == dict(expected, identities_verified=True)


class TestValidation:
    def test_unknown_kind_exits_2(self, tmp_path):
        bad = {"version": 1, "objects": [{"name": "a", "kind": "nonsense"}],
               "tasks": []}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(bad))
        r = run_cli("validate", str(f))
        assert r.returncode == 2

    def test_unknown_reference_exits_2(self, tmp_path):
        bad = {"version": 1, "objects": [],
               "tasks": [{"kind": "primes", "monoid": "nope"}]}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(bad))
        assert run_cli("check", str(f)).returncode == 2

    @pytest.mark.parametrize("command", ["validate", "check"])
    def test_wrong_kind_reference_exits_2(self, tmp_path, command):
        # the module field names the monoid P: rejected before any task runs
        doc = cli.load_gallery("smooth-divisor")
        doc["tasks"] = [{"kind": "chart_invariance", "chart": "chart",
                         "module": "P"}]
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        r = run_cli(command, str(f))
        assert r.returncode == 2
        assert "'P', a monoid; expected module" in r.stderr
        with pytest.raises(cli.ValidationError):
            cli.validate_file(doc)

    def test_wrong_kind_object_reference_exits_2(self, tmp_path):
        doc = cli.load_gallery("smooth-divisor")
        doc["objects"][-1]["ring"] = "P"
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        assert run_cli("check", str(f)).returncode == 2

    @pytest.mark.parametrize("command", ["validate", "check"])
    def test_missing_task_field_exits_2(self, tmp_path, command):
        # without the check the task would fail with KeyError: 'module'
        doc = cli.load_gallery("smooth-divisor")
        doc["tasks"] = [{"kind": "chart_criterion", "chart": "chart"}]
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        r = run_cli(command, str(f))
        assert r.returncode == 2
        assert "chart_criterion is missing its 'module' field" in r.stderr

    @pytest.mark.parametrize("command", ["validate", "check"])
    def test_missing_object_field_exits_2(self, tmp_path, command):
        doc = {"version": 1,
               "objects": [{"name": "M", "kind": "module", "rank": 1}],
               "tasks": []}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        r = run_cli(command, str(f))
        assert r.returncode == 2
        assert "module is missing its 'ring' field" in r.stderr

    @pytest.mark.parametrize("command", ["validate", "check"])
    def test_graded_flat_without_base_exits_2(self, tmp_path, command):
        doc = dict(NODAL_FILE, tasks=[{"kind": "graded_flat", "module": "M"}])
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        r = run_cli(command, str(f))
        assert r.returncode == 2
        assert "graded_flat needs a monoid, chart or grading" in r.stderr

    @pytest.mark.parametrize("command", ["validate", "check"])
    @pytest.mark.parametrize("rank", ["2", -1, True, 1.5, None])
    def test_bad_units_rank_exits_2(self, tmp_path, command, rank):
        # without the check "2" failed inside the task with TypeError and
        # -1 with IndexError (exit 1)
        doc = cli.load_gallery("smooth-divisor")
        doc["tasks"] = [{"kind": "chart_invariance", "chart": "chart",
                         "module": "free", "units_rank": rank}]
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        r = run_cli(command, str(f))
        assert r.returncode == 2
        assert "units_rank must be an integer >= 0" in r.stderr

    @pytest.mark.parametrize("rank", [0, 1])
    def test_units_rank_accepted(self, rank):
        doc = cli.load_gallery("smooth-divisor")
        doc["tasks"] = [{"kind": "chart_invariance", "chart": "chart",
                         "module": "free", "units_rank": rank}]
        report, code = cli.run_document(doc)
        assert code == 0
        assert report["tasks"][0]["result"]["invariant"] is True

    def test_optional_fields_may_be_absent(self):
        # chart_invariance derives chart2 from units_rank
        doc = cli.load_gallery("smooth-divisor")
        doc["tasks"] = [{"kind": "chart_invariance", "chart": "chart",
                         "module": doc["tasks"][0]["module"]}]
        cli.validate_file(doc)
        # graded_flat with one base of the three
        doc = {"version": 1,
               "objects": NODAL_FILE["objects"] + [
                   {"name": "G", "kind": "grading", "ring": "B",
                    "group_rank": 1, "degrees": [[1], [1]]}],
               "tasks": [{"kind": "graded_flat", "module": "M",
                          "grading": "G"}]}
        cli.validate_file(doc)

    @pytest.mark.parametrize("command", ["validate", "check"])
    @pytest.mark.parametrize("obj, field, value, message", [
        # without the checks: an all-true nodal panel with exit 0, a task
        # error "matrix does not define a map of presented modules" (exit
        # 1), and an uncaught "unknown variable 'z'" traceback
        (1, "rank", -1, "rank must be an integer >= 0, not -1"),
        (1, "relations", [["x", "y"]], "is not a list of at most 1 entries"),
        (0, "relations", ["x*z"], "unknown variable 'z'"),
    ])
    def test_bad_ring_or_module_exits_2(self, tmp_path, command, obj, field,
                                        value, message):
        doc = json.loads(json.dumps(NODAL_FILE))
        doc["objects"][obj][field] = value
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        r = run_cli(command, str(f))
        assert r.returncode == 2
        assert message in r.stderr

    @pytest.mark.parametrize("command", ["validate", "check"])
    def test_bad_module_over_gluing_exits_2(self, tmp_path, command):
        # the gluing's variables exist only once it is built; without the
        # build at validation, validate printed {"valid": true} and check
        # died with an uncaught "unknown variable 'q'" traceback
        doc = cli.load_gallery("nodal-descent")
        mod = next(o for o in doc["objects"]
                   if o["name"] == "node_ring_module")
        mod["relations"] = [["q"]]
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        r = run_cli(command, str(f))
        assert r.returncode == 2
        assert "module 'node_ring_module': unknown variable 'q'" in r.stderr

    @pytest.mark.parametrize("ideals", [5, "x", [5], ["x"], [[5]]])
    def test_bad_ideal_family_exits_2(self, capsys, tmp_path, ideals):
        # ideals: 5 once failed inside the task with TypeError (exit 1)
        doc = dict(GRADED_FAMILY_FILE, tasks=[dict(
            GRADED_FAMILY_FILE["tasks"][0], ideals=ideals)])
        for command in ("validate", "check"):
            code, err = main_in_process(capsys, tmp_path, command, doc)
            assert code == 2
            assert "graded_flat ideals must be a list of lists" in err

    def test_empty_tasks_exit_0(self, tmp_path):
        doc = {"version": 1, "objects": [], "tasks": []}
        f = tmp_path / "empty.json"
        f.write_text(json.dumps(doc))
        r = run_cli("check", str(f))
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert report["tasks"] == []

    def test_valid_file(self, tmp_path):
        f = tmp_path / "ok.json"
        f.write_text(json.dumps(NODAL_FILE))
        r = run_cli("validate", str(f))
        assert r.returncode == 0


# -- malformed objects -------------------------------------------------------------


_DELETED = "<deleted>"


def object_field_mutations():
    """Every object field but name and kind of every bundled gallery, deleted
    or set to 5, "zz", null or [[["q"]]]: (label, document) pairs."""
    for name in cli.list_galleries():
        base = cli.load_gallery(name)
        for i, obj in enumerate(base["objects"]):
            for field in sorted(obj.keys() - {"name", "kind"}):
                for value in (_DELETED, 5, "zz", None, [[["q"]]]):
                    doc = copy.deepcopy(base)
                    if value == _DELETED:
                        del doc["objects"][i][field]
                    else:
                        doc["objects"][i][field] = value
                    yield f"{name}: {obj['name']}.{field} = {value!r}", doc


def test_no_object_field_mutation_ends_in_a_traceback(capsys, tmp_path):
    # 605 files; while validation parsed some fields and building read the
    # rest, 142 of them ended in an uncaught TypeError, AttributeError or
    # KeyError under validate.  Building an object is its one check, so
    # validate and check reject the same files.
    codes = {}
    for label, doc in object_field_mutations():
        try:
            got = tuple(main_in_process(capsys, tmp_path, command, doc)[0]
                        for command in ("validate", "check"))
        except Exception as e:  # name the case that raised
            pytest.fail(f"{label}: {type(e).__name__}: {e}")
        assert got[0] in (0, 2) and got[1] in (0, 1, 2), (label, got)
        assert (got[0] == 2) == (got[1] == 2), (label, got)
        codes[got] = codes.get(got, 0) + 1
    assert sum(codes.values()) == 605
    assert codes[(2, 2)] > 500 and codes[(0, 0)] > 0


def _gallery_with(name, obj, field, value):
    """A bundled gallery with one field of one object set, or deleted."""
    doc = cli.load_gallery(name)
    target = next(o for o in doc["objects"] if o["name"] == obj)
    if value == _DELETED:
        del target[field]
    else:
        target[field] = value
    return doc


def _nodal_with(relations):
    doc = copy.deepcopy(NODAL_FILE)
    doc["objects"][0]["relations"] = relations
    return doc


@pytest.mark.parametrize("command", ["validate", "check"])
@pytest.mark.parametrize("doc, flags, message", [
    (_gallery_with("smooth-divisor", "P", "generators", _DELETED), (),
     "monoid 'P' is missing its 'generators' field"),
    (_gallery_with("smooth-divisor", "P", "ambient_rank", None), (),
     "monoid 'P': rank must be an integer >= 0, not None"),
    (_nodal_with([5]), (), "ring 'B': a polynomial is a string, not 5"),
    (_nodal_with(["1/0*x*y"]), (), "ring 'B': denominator 0 is zero in QQ"),
    # 1/2 once read as 1 in F_2, so this file checked with relation x*y
    (_nodal_with(["1/2*x*y"]), ("--field", "fp:2"),
     "ring 'B': denominator 2 is zero in GF(2)"),
    (NODAL_FILE, ("--field", "fp:4"), "field 'fp:4': p must be prime"),
    (NODAL_FILE, ("--field", "fp:abc"), "field 'fp:abc': invalid literal"),
], ids=["missing-field", "null-rank", "non-string", "zero-denominator-q",
        "zero-denominator-fp2", "fp4", "fp-abc"])
def test_malformed_input_is_named_and_exits_2(capsys, tmp_path, command, doc,
                                              flags, message):
    code, err = main_in_process(capsys, tmp_path, command, doc, *flags)
    assert code == 2
    assert message in err


def _parsing_calls(source, root="validate_file"):
    """The module functions that ``root`` reaches through calls by name,
    and the line of each ``.parse(``, ``PolyRing(`` or ``FieldFp(`` call in
    them."""
    funcs = {node.name: node for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef)}
    todo, reached, lines = [root], set(), []
    while todo:
        name = todo.pop()
        if name in reached or name not in funcs:
            continue
        reached.add(name)
        for node in ast.walk(funcs[name]):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                todo.append(func.id)
                if func.id in ("PolyRing", "FieldFp"):
                    lines.append(node.lineno)
            elif isinstance(func, ast.Attribute) and func.attr in (
                    "parse", "PolyRing", "FieldFp"):
                lines.append(node.lineno)
    return reached, sorted(lines)


def test_validate_file_parses_no_polynomial():
    # a document's objects are read once, by building them over the field
    # the tasks use; the walk sees each form, at any depth, and only there
    planted = ("def validate_file(doc):\n"
               "    _helper(doc)\n"
               "    return pa.FieldFp(7)\n"
               "def _helper(doc):\n"
               "    ring = PolyRing(QQ, [])\n"
               "    return _deeper(ring)\n"
               "def _deeper(ring):\n"
               "    return ring.parse('x'), FieldFp(3)\n"
               "def elsewhere(ring):\n"
               "    return ring.parse('y')\n")
    assert _parsing_calls(planted) == (
        {"validate_file", "_helper", "_deeper"}, [3, 5, 8, 8])
    reached, lines = _parsing_calls(Path(cli.__file__).read_text())
    assert {"validate_file", "_check_refs"} <= reached
    assert not lines, lines


class TestCheck:
    def test_nodal_file_runs(self, tmp_path):
        f = tmp_path / "nodal.json"
        f.write_text(json.dumps(NODAL_FILE))
        r = run_cli("check", str(f))
        assert r.returncode == 0
        report = json.loads(r.stdout)
        panel = report["tasks"][0]["result"]["panel"]
        assert set(panel.values()) == {False}

    def test_determinism(self, tmp_path):
        f = tmp_path / "nodal.json"
        f.write_text(json.dumps(NODAL_FILE))
        out1 = cli.strip_timing(run_cli("check", str(f)).stdout)
        out2 = cli.strip_timing(run_cli("check", str(f)).stdout)
        assert out1 == out2

    def test_embedded_input_roundtrip(self, tmp_path):
        f = tmp_path / "nodal.json"
        f.write_text(json.dumps(NODAL_FILE))
        report = json.loads(run_cli("check", str(f)).stdout)
        f2 = tmp_path / "replay.json"
        f2.write_text(json.dumps(report["input"]))
        replay = json.loads(run_cli("check", str(f2)).stdout)
        assert replay["tasks"] == report["tasks"]

    def test_task_error_exit_1(self, tmp_path):
        doc = {
            "version": 1,
            "objects": [
                {"name": "B", "kind": "ring", "variables": ["x"],
                 "relations": []},
                {"name": "M", "kind": "module", "ring": "B", "rank": 1,
                 "relations": []},
                {"name": "P2", "kind": "monoid", "ambient_rank": 2,
                 "generators": [[1, 0], [0, 1]]},
            ],
            # variable count mismatch: the task errors but stays in-report
            "tasks": [{"kind": "log_flat_point", "monoid": "P2",
                       "module": "M"}],
        }
        f = tmp_path / "err.json"
        f.write_text(json.dumps(doc))
        r = run_cli("check", str(f))
        assert r.returncode == 1
        report = json.loads(r.stdout)
        assert report["tasks"][0]["status"] == "error"

    def test_classify_map_to_zero(self):
        # N -> 0 kills the generator: not injective, flat or free
        doc = {"version": 1, "objects": [
            {"name": "N", "kind": "monoid", "ambient_rank": 1,
             "generators": [[1]]},
            {"name": "O", "kind": "monoid", "ambient_rank": 0,
             "generators": []},
            {"name": "h", "kind": "monoid_hom", "source": "N", "target": "O",
             "images": [[]]}],
            "tasks": [{"kind": "classify", "hom": "h"}]}
        report, code = cli.run_document(doc)
        assert code == 0
        result = report["tasks"][0]["result"]
        assert result["injective"] is False
        assert result["flat"] is False and result["free"] is False

    def test_fp_field_flag(self, tmp_path):
        f = tmp_path / "nodal.json"
        f.write_text(json.dumps(NODAL_FILE))
        r = run_cli("--field", "fp:32003", "check", str(f))
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert report["engine"]["field"] == "fp:32003"
        assert set(report["tasks"][0]["result"]["panel"].values()) == {False}


@pytest.mark.parametrize("flag, value", [("--window", "8"),
                                         ("--order", "degrevlex")])
def test_removed_engine_flags_exit_2(flag, value):
    with pytest.raises(SystemExit) as exc:
        cli.main([flag, value, "list-galleries"])
    assert exc.value.code == 2


class TestGalleries:
    def test_list(self):
        r = run_cli("list-galleries")
        names = json.loads(r.stdout)["galleries"]
        assert "nodal-descent" in names and "toric-point" in names
        assert len(names) == 5

    def test_unknown_gallery(self):
        assert run_cli("gallery", "does-not-exist").returncode == 2

    @pytest.mark.parametrize("name", ["smooth-divisor", "toric-point",
                                      "nodal-degeneration",
                                      "expanded-degeneration",
                                      "nodal-descent"])
    def test_golden_match(self, name):
        r = run_cli("gallery", name)
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert report["golden_matches"] is True

    def test_toric_point_verdicts(self):
        report, code, matches = cli.run_gallery("toric-point")
        results = {t["name"]: t["result"] for t in report["tasks"]}
        assert results["free module"]["log_flat"] is True
        assert results["origin skyscraper"]["log_flat"] is False
        assert results["line through the origin"]["log_flat"] is False
        assert results["line missing the origin"]["log_flat"] is True


class TestGradingFallbackTask:
    def test_family_route(self, tmp_path):
        f = tmp_path / "fam.json"
        f.write_text(json.dumps(GRADED_FAMILY_FILE))
        r = run_cli("check", str(f))
        assert r.returncode == 0
        report = json.loads(r.stdout)
        res = report["tasks"][0]["result"]
        assert res["graded_flat"] is False
        assert res["certificate"]["complete"] is False

    def test_inhomogeneous_family_is_a_task_error(self):
        # the family parses but x + y is not homogeneous: the task fails
        # (exit 1) and says so, not as a validation error, which means exit 2
        doc = dict(GRADED_FAMILY_FILE, tasks=[dict(
            GRADED_FAMILY_FILE["tasks"][0], ideals=[["x + y"]])])
        report, code = cli.run_document(doc)
        assert code == 1
        assert report["tasks"][0]["error"] == \
            "NotHomogeneous: ideal in the family is not homogeneous"


# -- the run scope ----------------------------------------------------------------


class _Abort(BaseException):
    """Escapes ``run_document``, which carries only ``Exception``s in-report."""


class TestRunScope:
    def _watch(self, monkeypatch, fail=None):
        """Patch ``run_task`` to record the memo it runs under, then raise
        ``fail`` if given."""
        seen = []
        real = cli.run_task

        def watching(ws, task):
            seen.append(scope.memo())
            out = real(ws, task)
            if fail is not None:
                raise fail
            return out

        monkeypatch.setattr(cli, "run_task", watching)
        return seen

    def test_one_memo_per_document(self, monkeypatch):
        seen = self._watch(monkeypatch)
        doc = cli.load_gallery("smooth-divisor")
        cli.run_document(doc)
        assert len(seen) == len(doc["tasks"]) > 1
        assert seen[0] and all(m is seen[0] for m in seen)
        assert scope.memo() is None
        cli.run_document(doc)
        assert seen[-1] is not seen[0]
        assert scope.memo() is None

    def test_no_memo_survives_a_failing_task(self, monkeypatch):
        seen = self._watch(monkeypatch, fail=RuntimeError("boom"))
        report, code = cli.run_document(cli.load_gallery("smooth-divisor"))
        assert code == 1 and seen[0] is not None
        assert {t["status"] for t in report["tasks"]} == {"error"}
        assert scope.memo() is None

    def test_no_memo_survives_an_escaping_exception(self, monkeypatch):
        seen = self._watch(monkeypatch, fail=_Abort())
        with pytest.raises(_Abort):
            cli.run_document(cli.load_gallery("smooth-divisor"))
        assert seen[0] is not None and scope.memo() is None

    def test_nodal_degeneration_computes_each_basis_once(self, monkeypatch):
        # 165 buchberger calls on 49 distinct inputs: a call that reduces
        # nothing was answered from the memo (an ideal and the rank-1
        # module of its relations share one entry)
        from logflat import graded
        stats = {"calls": 0, "computed": 0, "reductions": 0}
        real_gb, real_reduce = pa.buchberger, pa.m_reduce

        def reduce(*args, **kwargs):
            stats["reductions"] += 1
            return real_reduce(*args, **kwargs)

        def gb(*args, **kwargs):
            before = stats["reductions"]
            out = real_gb(*args, **kwargs)
            stats["calls"] += 1
            stats["computed"] += stats["reductions"] > before
            return out

        monkeypatch.setattr(pa, "m_reduce", reduce)
        for ns in (pa, graded):
            monkeypatch.setattr(ns, "buchberger", gb)
        _, code, matches = cli.run_gallery("nodal-degeneration")
        assert code == 0 and matches
        assert stats["calls"] == 165
        assert stats["computed"] <= 49
