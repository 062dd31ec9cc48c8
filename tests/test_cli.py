"""Command-line interface: subcommands, exit codes, manifest verification."""

import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spinnet.exact import HalfInteger, half_integer_range
from spinnet.graph import Diagram, deserialize, serialize
from spinnet.tensor import plan_contraction
from spinnet.su2 import cswap_gadget
from spinnet.cli import (
    EXIT_OK,
    EXIT_RANK_CAP,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    CliError,
    _Args,
    _diagram_value,
    _parse_args,
    _SYMBOLS,
    main,
)

PROPERTIES = settings(derandomize=True, max_examples=150, deadline=None, database=None)
GOLDEN_VERIFY = Path(__file__).parent / "data" / "verify_paper.txt"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(capsys, *argv):
    """Runs argv, which must exit 2 with one ``error:`` line and no traceback."""
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestSymbol:
    def test_6j(self, capsys):
        code, out, _ = run(capsys, "symbol", "6j", "2", "1", "1", "1", "1", "1")
        assert code == EXIT_OK
        assert out.startswith("1/6")

    def test_6j_at_spin_4(self, capsys):
        code, out, _ = run(capsys, "symbol", "6j", "4", "4", "4", "4", "4", "4")
        assert code == EXIT_OK
        assert out.startswith("-467/18018 ")

    def test_3jm(self, capsys):
        code, out, _ = run(capsys, "symbol", "3jm", "1/2", "1/2", "1", "1/2", "1/2", "-1")
        assert code == EXIT_OK
        assert "-1/3*sqrt(3)" in out

    def test_4jm(self, capsys):
        code, out, _ = run(
            capsys, "symbol", "4jm", "1", "1", "1/2", "1/2", "1", "0", "-1/2", "-1/2", "1"
        )
        assert code == EXIT_OK
        assert "1/6*sqrt(2)" in out

    def test_invalid_triad_exits_2(self, capsys):
        code, _, err = run(capsys, "symbol", "6j", "5", "1", "1", "1", "1", "1")
        assert code == EXIT_USAGE
        assert "triangle" in err

    def test_bad_spin_exits_2(self, capsys):
        code, _, err = run(capsys, "symbol", "3jm", "1/3", "1", "1", "0", "0", "0")
        assert code == EXIT_USAGE

    def test_wrong_arity_exits_2(self, capsys):
        code, _, _ = run(capsys, "symbol", "6j", "1", "1")
        assert code == EXIT_USAGE

    def test_4jm_bad_magnetic_index_exits_2(self, capsys):
        err = run_usage_error(capsys, "symbol", "4jm", "1", "1", "1", "1", "2", "-1", "0", "-1", "1")
        assert "m=2 is not a magnetic index for j=1" in err


class TestBuildEval:
    def test_build_and_eval_symmetriser(self, capsys, tmp_path):
        out_file = tmp_path / "s2.json"
        code, out, _ = run(capsys, "build", "symmetriser", "2", "--out", str(out_file))
        assert code == EXIT_OK
        assert out_file.exists()
        code, out, _ = run(capsys, "eval", str(out_file))
        assert code == EXIT_OK
        assert "matrix (4 x 4)" in out

    def test_build_sidecar_and_dot(self, capsys, tmp_path):
        out_file = tmp_path / "v.json"
        dot_file = tmp_path / "v.dot"
        code, _, _ = run(
            capsys, "build", "3jm", "1/2", "1/2", "1",
            "--orient", "iio", "--out", str(out_file), "--dot", str(dot_file),
        )
        assert code == EXIT_OK
        side = tmp_path / "v.json.corrections.json"
        assert side.exists()
        doc = json.loads(side.read_text())
        assert set(doc) >= {"lambdas", "norms", "plug_norm", "value", "notes"}
        assert dot_file.read_text().startswith("graph")

    def test_build_6j_and_eval_exact(self, capsys, tmp_path):
        out_file = tmp_path / "net.json"
        code, _, _ = run(
            capsys, "build", "6j", "1", "1", "1", "1", "1", "1", "--out", str(out_file)
        )
        assert code == EXIT_OK
        code, out, _ = run(capsys, "eval", str(out_file))
        assert code == EXIT_OK
        assert "value: 16*sqrt(2)" in out or "value:" in out

    def test_eval_plug_and_simplify(self, capsys, tmp_path):
        out_file = tmp_path / "cs.json"
        run(capsys, "build", "cswap", "--out", str(out_file))
        code, out, _ = run(
            capsys, "eval", str(out_file), "--plug", "0=0", "--simplify"
        )
        assert code == EXIT_OK
        assert "rewrite_trace" in out
        assert "matrix (4 x 4)" in out

    def test_eval_simplify_reports_vertex_counts(self, capsys, tmp_path):
        path = tmp_path / "s3.json"
        run(capsys, "build", "symmetriser", "3", "--out", str(path))
        code, out, _ = run(capsys, "eval", str(path), "--simplify")
        assert code == EXIT_OK
        report = json.loads(next(line for line in out.splitlines() if "rewrite_trace" in line))
        assert report["vertices_before"] == len(deserialize(path.read_text()).vertices)
        assert report["vertices_after"] < report["vertices_before"]
        assert len(report["rewrite_trace"]) > 0

    def test_eval_rank_cap_exit_3(self, capsys, tmp_path):
        out_file = tmp_path / "s3.json"
        run(capsys, "build", "symmetriser", "3", "--out", str(out_file))
        code, _, err = run(capsys, "eval", str(out_file), "--rank-cap", "2")
        assert code == EXIT_RANK_CAP
        assert "rank" in err

    def test_eval_prints_plan_cost(self, capsys, tmp_path):
        path = tmp_path / "s2.json"
        run(capsys, "build", "symmetriser", "2", "--out", str(path))
        plan = plan_contraction(deserialize(path.read_text()))
        code, out, _ = run(capsys, "eval", str(path))
        assert code == EXIT_OK
        assert f"peak rank: {plan.peak_rank}  steps: {len(plan.steps)}  cost: {plan.cost}\n" in out

    def test_build_invalid_triad_exit_2(self, capsys):
        code, _, err = run(capsys, "build", "3jm", "1/2", "1/2", "1/2")
        assert code == EXIT_USAGE

    def test_eval_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "eval", "/nonexistent/x.json")
        assert code == EXIT_USAGE

    def test_eval_plain_serialized_diagram(self, capsys, tmp_path):
        path = tmp_path / "plain.json"
        path.write_text(serialize(cswap_gadget()))
        code, out, _ = run(capsys, "eval", str(path))
        assert code == EXIT_OK
        assert "matrix (4 x 8)" in out

    @pytest.mark.parametrize("field", ["scalar", "label"])
    def test_eval_zero_denominator_literal_exits_2(self, capsys, tmp_path, field):
        obj = json.loads(serialize(cswap_gadget()))
        literal = "1/0 + 0/1*r2 + (0/1 + 0/1*r2)*i"
        if field == "scalar":
            obj["scalar"] = literal
        else:
            next(v for v in obj["vertices"] if v["kind"] == "H")["label"] = literal
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(obj))
        err = run_usage_error(capsys, "eval", str(path))
        assert "malformed ExactScalar literal" in err

    def test_eval_zero_phase_denominator_exits_2(self, capsys, tmp_path):
        obj = json.loads(serialize(cswap_gadget()))
        next(v for v in obj["vertices"] if v["kind"] == "Z")["phase"] = {"num": 1, "den": 0}
        path = tmp_path / "zero_phase.json"
        path.write_text(json.dumps(obj))
        assert "zero denominator" in run_usage_error(capsys, "eval", str(path))

    def test_eval_duplicate_vertex_id_exits_2(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        run(capsys, "build", "cswap", "--out", str(path))
        obj = json.loads(path.read_text())
        obj["vertices"].append({**next(v for v in obj["vertices"] if v["id"] == 3), "kind": "X"})
        path.write_text(json.dumps(obj))
        err = run_usage_error(capsys, "eval", str(path), "--mode", "float")
        assert err.startswith("error: cannot read diagram: ") and "vertex id 3 appears twice" in err

    @staticmethod
    def _phase_gate_file(tmp_path, vertex_id: int) -> Path:
        """A Z(pi) spider between boundaries 1 and 3 and a wire from 0 to 2."""
        obj = {
            "version": 1,
            "vertices": [{"id": vertex_id, "kind": "Z", "phase": {"num": 1, "den": 1}}]
            + [{"id": b, "kind": "B"} for b in range(4)],
            "edges": [[1, vertex_id], [vertex_id, 3], [0, 2]],
            "inputs": [0, 1],
            "outputs": [2, 3],
            "scalar": "1/1 + 0/1*r2 + (0/1 + 0/1*r2)*i",
        }
        path = tmp_path / "gate.json"
        path.write_text(json.dumps(obj))
        return path

    def test_eval_negative_vertex_id_exits_2(self, capsys, tmp_path):
        # The planner names boundary ports ~v, so id -1 would collide with ~0.
        err = run_usage_error(capsys, "eval", str(self._phase_gate_file(tmp_path, -1)))
        assert err == "error: cannot read diagram: vertex id -1 is not a non-negative integer\n"
        code, out, _ = run(capsys, "eval", str(self._phase_gate_file(tmp_path, 4)))
        assert code == EXIT_OK and "matrix (4 x 4)" in out

    @pytest.mark.parametrize("where, literal", [
        ("vertex id", "1.0"), ("vertex id", "true"), ("vertex id", '"1"'),
        ("edge end", "1.0"), ("edge end", "true"), ("edge end", "-1"),
        ("boundary entry", "0.0"), ("boundary entry", "false"), ("boundary entry", "-3"),
    ])
    def test_eval_non_integer_id_exits_2(self, capsys, tmp_path, where, literal):
        obj = json.loads(serialize(cswap_gadget()))
        if where == "vertex id":
            obj["vertices"][1]["id"] = "ID"
        elif where == "edge end":
            obj["edges"][0][1] = "ID"
        else:
            obj["inputs"][0] = "ID"
        path = tmp_path / "bad_id.json"
        path.write_text(json.dumps(obj).replace('"ID"', literal))
        value = repr(json.loads(literal))
        err = run_usage_error(capsys, "eval", str(path), "--mode", "float")
        assert err == f"error: cannot read diagram: {where} {value} is not a non-negative integer\n"

    @pytest.mark.parametrize("kind, field, value", [
        ("Z", "phase", {"num": [1], "den": 2}), ("Z", "phase", {"num": 1, "den": {}}),
        ("H", "label", ["1/1 + 0/1*r2 + (0/1 + 0/1*r2)*i"]),
    ], ids=["num", "den", "label"])
    def test_eval_container_in_a_vertex_field_exits_2(self, capsys, tmp_path, kind, field, value):
        obj = json.loads(serialize(cswap_gadget()))
        vertex = next(v for v in obj["vertices"] if v["kind"] == kind)
        vertex[field] = value
        path = tmp_path / "container.json"
        path.write_text(json.dumps(obj))
        err = run_usage_error(capsys, "eval", str(path), "--mode", "float")
        assert err == (f"error: cannot read diagram: vertex {vertex['id']} has a list or object "
                       "for a phase number or label\n")

    @pytest.mark.parametrize("literal", ['"nan"', "1e400"], ids=["nan", "inf"])
    def test_eval_non_finite_float_phase_exits_2(self, capsys, tmp_path, literal):
        obj = json.loads(serialize(cswap_gadget()))
        next(v for v in obj["vertices"] if v["kind"] == "Z")["phase"] = {"float": "PHASE"}
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(obj).replace('"PHASE"', literal))
        err = run_usage_error(capsys, "eval", str(path), "--mode", "float")
        assert err.startswith("error: cannot read diagram: ") and "is not finite" in err

    def test_eval_non_clifford_phase_in_exact_mode_exits_2(self, capsys, tmp_path):
        d = Diagram()
        for phase in (Fraction(1, 2), 0.3, Fraction(1, 2)):
            d.add_edge(d.add_z(phase), d.add_output())
        path = tmp_path / "t.json"
        path.write_text(serialize(d))
        err = run_usage_error(capsys, "eval", str(path))
        assert "0.3*pi requires float mode" in err and "--mode float" in err
        assert "Traceback" not in err
        code, out, _ = run(capsys, "eval", str(path), "--mode", "float")
        assert code == EXIT_OK and "matrix (8 x 1)" in out

    def test_build_writes_the_serialized_diagram(self, capsys, tmp_path):
        path = tmp_path / "cs.json"
        run(capsys, "build", "cswap", "--out", str(path))
        assert path.read_text() == serialize(cswap_gadget()) + "\n"


class TestUsageErrors:
    def test_build_crown_non_integer(self, capsys):
        run_usage_error(capsys, "build", "crown", "x")

    @pytest.mark.parametrize("argv, message", [
        (["6j", "1", "1", "1", "1", "1", "1", "--orient", "xyz"], "6j takes no --orient"),
        (["cswap", "--orient", "xyz"], "cswap takes no --orient"),
        (["cswap", "1", "2", "3"], "cswap takes no arguments"),
        (["symmetriser", "3", "--orient", "io"], "symmetriser takes no --orient"),
        (["link", "1", "--orient", "i"], "link takes no --orient"),
        (["theta", "1", "1", "1", "--orient", "iio"], "theta takes no --orient"),
    ], ids=["6j", "cswap-orient", "cswap-arguments", "symmetriser", "link", "theta"])
    def test_build_rejects_an_ignored_field(self, capsys, argv, message):
        assert run_usage_error(capsys, "build", *argv) == f"error: {message}\n"

    def test_build_crown_stage_too_small(self, capsys):
        run_usage_error(capsys, "build", "crown", "1")

    def test_build_negative_symmetriser(self, capsys):
        run_usage_error(capsys, "build", "symmetriser", "--", "-1")

    @pytest.mark.parametrize("command", ["eval", "verify"])
    def test_malformed_rank_cap_env(self, capsys, tmp_path, monkeypatch, command):
        path = tmp_path / "s2.json"
        run(capsys, "build", "symmetriser", "2", "--out", str(path))
        monkeypatch.setenv("SPINNET_RANK_CAP", "abc")
        target = str(path) if command == "eval" else "paper.json"
        assert "SPINNET_RANK_CAP" in run_usage_error(capsys, command, target)

    def test_negative_rank_cap_option(self, capsys, tmp_path):
        path = tmp_path / "s2.json"
        run(capsys, "build", "symmetriser", "2", "--out", str(path))
        assert "rank cap -3 is negative" in run_usage_error(capsys, "eval", str(path), "--rank-cap", "-3")

    @pytest.mark.parametrize("command", ["eval", "verify"])
    def test_negative_rank_cap_env(self, capsys, tmp_path, monkeypatch, command):
        path = tmp_path / "s2.json"
        run(capsys, "build", "symmetriser", "2", "--out", str(path))
        monkeypatch.setenv("SPINNET_RANK_CAP", "-1")
        target = str(path) if command == "eval" else "paper.json"
        assert "SPINNET_RANK_CAP='-1' is negative" in run_usage_error(capsys, command, target)

    def test_zero_rank_cap_is_valid(self, capsys, tmp_path):
        path = tmp_path / "s2.json"
        run(capsys, "build", "symmetriser", "2", "--out", str(path))
        code, _, err = run(capsys, "eval", str(path), "--rank-cap", "0")
        assert code == EXIT_RANK_CAP
        assert "exceeds cap 0" in err

    def test_verify_has_no_jobs_option(self, capsys):
        run_usage_error(capsys, "verify", "--jobs", "0")

    @pytest.mark.parametrize("argv, message", [
        (lambda t: ["verify", str(t)], "cannot read manifest"),
        (lambda t: ["verify", str(_file(t, b'{"cases": ["\xff"]}'))], "cannot read manifest"),
        (lambda t: ["eval", str(t)], "cannot read diagram"),
        (lambda t: ["build", "loop", "1", "--out", str(t)], "cannot write"),
        (lambda t: ["build", "loop", "1", "--out", str(t / "missing" / "x.json")], "cannot write"),
        (lambda t: ["build", "loop", "1", "--dot", str(t)], "cannot write"),
        (lambda t: ["verify", str(_file(t, json.dumps({"cases": [
            {"id": "s", "kind": "matrix", "builder": "symmetriser", "n": -1, "expected": [["1"]]}
        ]}).encode()))], "wire count -1 is negative"),
    ], ids=["verify-directory", "verify-non-utf8", "eval-directory", "build-out-directory",
            "build-out-missing-directory", "build-dot-directory", "verify-negative-symmetriser"])
    def test_bad_path_or_size_exits_2(self, capsys, tmp_path, argv, message):
        assert message in run_usage_error(capsys, *argv(tmp_path))


def _file(directory: Path, content: bytes) -> Path:
    p = directory / "case.json"
    p.write_bytes(content)
    return p


class TestVerify:
    def test_shipped_manifest_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "paper.json", "--only", "invariant")
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_matrix_cases_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "paper.json", "--only", "matrix")
        assert code == EXIT_OK

    def test_perturbed_expected_fails(self, capsys, tmp_path):
        manifest = {
            "version": 1,
            "cases": [
                {
                    "id": "bad-loop",
                    "kind": "invariant",
                    "which": "loop",
                    "spins": ["1/2"],
                    "policy": "exact",
                    "expected": "3",
                    "source": "oracle",
                }
            ],
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(manifest))
        code, out, _ = run(capsys, "verify", str(p))
        assert code == EXIT_VERIFY_FAILED
        assert "FAIL" in out

    @pytest.mark.parametrize("field, value, message", [
        ("spins", ["x"], "invalid spin 'x'"),
        ("expected", "three", "malformed RadicalNumber literal: 'three'"),
        ("expected", "1/0", "malformed RadicalNumber literal: '1/0'"),
        ("kind", "7j", "unknown case kind '7j'"),
        ("spins", ["-1"], "spin -1 is negative"),
    ])
    def test_malformed_case_exits_2_before_any_case_runs(self, capsys, tmp_path, field, value, message):
        good = {"id": "good-loop", "kind": "invariant", "which": "loop",
                "spins": ["1/2"], "policy": "exact", "expected": "2"}
        bad = dict(good, id="bad-case", **{field: value})
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"version": 1, "cases": [good, bad]}))
        code, out, err = run(capsys, "verify", str(p))
        assert code == EXIT_USAGE
        assert err.startswith("error: case 'bad-case': ") and err.count("\n") == 1, err
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("case", [
        {"kind": "6j", "spins": ["1", "1", "5", "1", "1", "1"], "expected": "0"},
        {"kind": "4jm", "spins": ["1", "1", "1/2", "1/2"], "j": "3",
         "ms": ["1", "0", "-1/2", "-1/2"], "expected": "0"},
        {"kind": "matrix", "builder": "3jm", "spins": ["1", "1", "3"], "expected": [["0"]]},
    ], ids=["6j", "4jm", "matrix-3jm"])
    def test_inadmissible_triad_exits_2_before_any_case_runs(self, capsys, tmp_path, case):
        good = {"id": "good-loop", "kind": "invariant", "which": "loop",
                "spins": ["1/2"], "policy": "exact", "expected": "2"}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"version": 1, "cases": [good, dict(case, id="bad-triad")]}))
        code, out, err = run(capsys, "verify", str(p))
        assert code == EXIT_USAGE
        assert err.startswith("error: case 'bad-triad': triad (") and err.count("\n") == 1, err
        assert "violates the triangle rule" in err
        assert out == ""

    @pytest.mark.parametrize("case, message", [
        ({"kind": "3jm", "spins": ["1", "1", "1"], "ms": ["2", "-1", "-1"], "expected": "0"},
         "m=2 is not a magnetic index for j=1"),
        ({"kind": "4jm", "spins": ["1", "1", "1", "1"], "j": "1", "ms": ["2", "-1", "0", "-1"],
          "expected": "0"}, "m=2 is not a magnetic index for j=1"),
        ({"kind": "3jm", "spins": ["1", "1", "1"], "ms": ["1", "-1", "0"], "orientation": "xyz",
          "expected": "0"}, "orientation 'xyz' is not 3 letters from 'io'"),
    ], ids=["3jm-m", "4jm-m", "orientation"])
    def test_bad_symbol_arguments_exit_2_before_any_case_runs(self, capsys, tmp_path, case, message):
        good = {"id": "good-loop", "kind": "invariant", "which": "loop",
                "spins": ["1/2"], "policy": "exact", "expected": "2"}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"version": 1, "cases": [good, dict(case, id="bad-args")]}))
        code, out, err = run(capsys, "verify", str(p))
        assert code == EXIT_USAGE
        assert err == f"error: case 'bad-args': {message}\n"
        assert out == ""

    @pytest.mark.parametrize("case, message", [
        ({"kind": "6j", "spins": ["1"] * 6, "orientation": "xyz", "ms": [9, 9], "expected": "1/6"},
         "6j takes no 'ms' or 'orientation' field"),
        ({"kind": "invariant", "which": "loop", "spins": ["1"], "orientation": "q", "expected": "3"},
         "loop takes no 'orientation' field"),
        ({"kind": "3jm", "spins": ["1", "1", "1"], "ms": ["1", "-1", "0"], "j": "1", "expected": "0"},
         "3jm takes no 'j' field"),
        ({"kind": "matrix", "builder": "3jm", "spins": ["1/2", "1/2", "1"], "ms": ["0", "0", "0"],
          "expected": [["0"]]}, "3jm takes no 'ms' field"),
        ({"kind": "matrix", "builder": "cswap", "n": 3, "expected": [["0"]]}, "cswap takes no 'n' field"),
        ({"kind": "matrix", "builder": "cswap", "policy": "float", "tol": 5, "expected": [["0"]]},
         "cswap takes no 'policy' or 'tol' field"),
        ({"kind": "6j", "spins": ["1"] * 6, "builder": "cswap", "expected": "1/6"},
         "6j takes no 'builder' field"),
    ], ids=["6j", "loop", "3jm-j", "matrix-3jm-ms", "matrix-cswap-n", "matrix-cswap-tol", "6j-builder"])
    def test_ignored_field_exits_2_before_any_case_runs(self, capsys, tmp_path, case, message):
        good = {"id": "good-loop", "kind": "invariant", "which": "loop",
                "spins": ["1/2"], "policy": "exact", "expected": "2"}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"version": 1, "cases": [good, dict(case, id="bad-fields")]}))
        code, out, err = run(capsys, "verify", str(p))
        assert code == EXIT_USAGE
        assert err == f"error: case 'bad-fields': {message}\n"
        assert out == ""

    @pytest.mark.parametrize("fields, message", [
        ({"tol": "nan"}, "tol 'nan' is not a finite number >= 0"),
        ({"tol": "inf"}, "tol 'inf' is not a finite number >= 0"),
        ({"tol": float("nan")}, "tol nan is not a finite number >= 0"),
        ({"tol": float("inf")}, "tol inf is not a finite number >= 0"),
        ({"tol": -1e-9}, "tol -1e-09 is not a finite number >= 0"),
        ({"tol": True}, "tol True is not a finite number >= 0"),
        ({"policy": "exact", "tol": 1e-8}, "tol applies only to policy 'float'"),
        ({"policy": None, "tol": 1e-8}, "tol applies only to policy 'float'"),
    ], ids=["nan-text", "inf-text", "json-nan", "json-infinity", "negative", "boolean",
            "exact-policy", "default-policy"])
    def test_bad_tolerance_exits_2_before_any_case_runs(self, capsys, tmp_path, fields, message):
        case = {"id": "bad-tol", "kind": "6j", "spins": ["1"] * 6, "policy": "float", "expected": "5"}
        case = {k: v for k, v in {**case, **fields}.items() if v is not None}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"version": 1, "cases": [case]}))  # float("nan") is written as NaN
        code, out, err = run(capsys, "verify", str(p))
        assert code == EXIT_USAGE
        assert err == f"error: case 'bad-tol': {message}\n"
        assert out == ""

    @pytest.mark.parametrize("tol, code", [(0, EXIT_VERIFY_FAILED), (5, EXIT_OK)])
    def test_float_tolerance_is_applied(self, capsys, tmp_path, tol, code):
        # 6j(1,1,1,1,1,1) = 1/6 against an expected 5: inside a tolerance of 5, outside one of 0.
        case = {"id": "tol", "kind": "6j", "spins": ["1"] * 6, "policy": "float", "expected": "5",
                "tol": tol}
        p = tmp_path / "tol.json"
        p.write_text(json.dumps({"version": 1, "cases": [case]}))
        assert run(capsys, "verify", str(p))[0] == code

    def test_paper_manifest_prints_the_golden_text(self, capsys):
        code, out, _ = run(capsys, "verify", "paper.json")
        assert code == EXIT_OK
        assert out == GOLDEN_VERIFY.read_text()

    def test_unparsable_manifest_exits_2(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert "cannot read manifest" in run_usage_error(capsys, "verify", str(p))

    def test_only_filter_no_match_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "paper.json", "--only", "nope")
        assert code == EXIT_USAGE

    def test_missing_manifest_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "/nonexistent/m.json")
        assert code == EXIT_USAGE


# -- the recoupling-object table --------------------------------------------

SMALL_SPINS = ("0", "1/2", "1")


def _small_arguments(kind):
    """Every (spins, channel spin) text tuple of ``kind`` with spins <= 1."""
    sym = _SYMBOLS[kind]
    for combo in product(SMALL_SPINS, repeat=sym.legs + sym.channel):
        yield list(combo[:sym.legs]), (combo[-1] if sym.channel else None)


@pytest.mark.parametrize("kind", sorted(_SYMBOLS))
def test_table_rejects_exactly_what_the_builder_rejects(kind):
    sym = _SYMBOLS[kind]
    rejected = 0
    for spins, j in _small_arguments(kind):
        try:
            _parse_args(kind, {"spins": spins, "j": j}, with_ms=False)
            parse_ok = True
        except CliError:
            parse_ok = False
        unchecked = _Args(kind, tuple(HalfInteger(x) for x in spins), None,
                          None if j is None else HalfInteger(j), sym.orientation)
        try:
            sym.build(unchecked)
            build_ok = True
        except ValueError as exc:
            assert "inadmissible" in str(exc), exc
            build_ok = False
        assert parse_ok == build_ok, (spins, j)
        rejected += not parse_ok
    assert rejected > 0 or kind == "loop"


def _admissible(kind):
    out = []
    for spins, j in _small_arguments(kind):
        try:
            out.append(_parse_args(kind, {"spins": spins, "j": j}, with_ms=False))
        except CliError:
            pass
    return out


_ADMISSIBLE = {kind: _admissible(kind) for kind in sorted(_SYMBOLS)}


@st.composite
def _symbol_arguments(draw):
    """Admissible arguments of a random kind with spins <= 1; an open object
    gets a random orientation and ms, summing to zero half of the time."""
    kind = draw(st.sampled_from(sorted(_ADMISSIBLE)))
    a = draw(st.sampled_from(_ADMISSIBLE[kind]))
    if a.orient is None:
        return a
    all_ms = list(product(*(half_integer_range(s) for s in a.spins)))
    balanced = [ms for ms in all_ms if sum(m.twice for m in ms) == 0]
    ms = draw(st.sampled_from(balanced if draw(st.booleans()) else all_ms))
    return a._replace(orient="".join(draw(st.sampled_from("io")) for _ in a.spins), ms=ms)


@PROPERTIES
@given(_symbol_arguments())
def test_table_diagram_value_equals_its_oracle(a):
    assert _diagram_value(a, "exact") == _SYMBOLS[a.kind].oracle(a)
