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


# Spins that are not exact half-integer literals, or not finite: each is a usage error.
BAD_SPIN_LITERALS = ["1.0e400", "0.50000000000000001", "1_0", "\u0661", "1.5e0", "1/0", "nan"]
# Counts that int() reads but the ASCII integer literal does not: each is a usage error.
BAD_COUNT_LITERALS = ["1_0", "\u0663", " \u0663 ", "\u00a03", "3.0", "1e1", "x"]


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

    def test_eval_simplify_takes_more_than_ten_thousand_steps(self, capsys, tmp_path):
        # An input, 10,001 Z(0) spiders in a row, an output: 10,001 steps.
        d = Diagram()
        prev = d.add_input()
        for _ in range(10_001):
            z = d.add_z()
            d.add_edge(prev, z)
            prev = z
        d.add_edge(prev, d.add_output())
        path = tmp_path / "chain.json"
        path.write_text(serialize(d))
        code, out, _ = run(capsys, "eval", str(path), "--simplify")
        assert code == EXIT_OK
        report = json.loads(out.splitlines()[0])
        assert (len(report["rewrite_trace"]), report["vertices_after"]) == (10_001, 2)

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

    @pytest.mark.parametrize("literal", ["1.0", "true"])
    def test_eval_non_integer_phase_after_an_equal_one_exits_2(self, capsys, tmp_path, literal):
        # {"num": 1.0, "den": 2} equals the earlier {"num": 1, "den": 2}; it
        # is rejected all the same, whichever entry comes first.
        obj = json.loads(serialize(cswap_gadget()))
        first, second = [v for v in obj["vertices"] if v["kind"] == "Z"][:2]
        first["phase"] = {"num": 1, "den": 2}
        second["phase"] = {"num": "NUM", "den": 2}
        path = tmp_path / "non_integer_phase.json"
        path.write_text(json.dumps(obj).replace('"NUM"', literal))
        err = run_usage_error(capsys, "eval", str(path), "--mode", "float")
        assert err == f"error: cannot read diagram: vertex {second['id']} phase is not a ratio of integers\n"

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

    @staticmethod
    def _drop_kind(obj) -> str:
        vertex = obj["vertices"][3]
        del vertex["kind"]
        return f'vertex {vertex["id"]} has no "kind"'

    @staticmethod
    def _stray_edge(obj) -> str:
        obj["edges"].append([obj["edges"][0][0], 99999])
        return f"edge {len(obj['edges']) - 1} references unknown vertex 99999"

    @staticmethod
    def _drop_edges(obj) -> str:
        del obj["edges"]
        return 'diagram has no "edges"'

    @staticmethod
    def _list_vertex(obj) -> str:
        obj["vertices"][0] = list(obj["vertices"][0].values())
        return "vertex entry 0 is not an object"

    @pytest.mark.parametrize("edit", [_drop_kind, _stray_edge, _drop_edges, _list_vertex],
                             ids=["no-kind", "unknown-end", "no-edges", "list-vertex"])
    def test_eval_malformed_entry_names_it(self, capsys, tmp_path, edit):
        obj = json.loads(serialize(cswap_gadget()))
        message = edit(obj)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(obj))
        err = run_usage_error(capsys, "eval", str(path))
        assert err == f"error: cannot read diagram: {message}\n"

    @pytest.mark.parametrize("literal", ["NaN", "1e400"], ids=["nan", "inf"])
    def test_eval_non_finite_float_phase_exits_2(self, capsys, tmp_path, literal):
        obj = json.loads(serialize(cswap_gadget()))
        next(v for v in obj["vertices"] if v["kind"] == "Z")["phase"] = {"float": "PHASE"}
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(obj).replace('"PHASE"', literal))
        err = run_usage_error(capsys, "eval", str(path), "--mode", "float")
        assert err.startswith("error: cannot read diagram: ") and "is not finite" in err

    @pytest.mark.parametrize("phase, message", [
        ({"float": True}, "float phase True is not a JSON number"),
        ({"float": "1_0"}, "float phase '1_0' is not a JSON number"),
        ({"float": " 0.5 "}, "float phase ' 0.5 ' is not a JSON number"),
        ({"num": 1, "den": 2, "float": 0.3}, 'phase has both "float" and "num"/"den"'),
    ], ids=["bool", "underscore-string", "padded-string", "float-and-ratio"])
    def test_eval_float_phase_must_be_a_lone_json_number(self, capsys, tmp_path, phase, message):
        obj = json.loads(serialize(cswap_gadget()))
        vertex = next(v for v in obj["vertices"] if v["kind"] == "Z")
        vertex["phase"] = phase
        path = tmp_path / "bad_float.json"
        path.write_text(json.dumps(obj))
        err = run_usage_error(capsys, "eval", str(path), "--mode", "float")
        assert err == f"error: cannot read diagram: vertex {vertex['id']} {message}\n"

    def test_eval_hbox_with_thirty_self_loops(self, capsys, tmp_path):
        # Self-loops add no rank: 2^30 and 2^30 - 1 + (-1), under the default cap.
        d = Diagram()
        h = d.add_h()
        for _ in range(30):
            d.add_edge(h, h)
        d.add_edge(h, d.add_output())
        path = tmp_path / "looped_hbox.json"
        path.write_text(serialize(d))
        code, out, _ = run(capsys, "eval", str(path))
        assert code == EXIT_OK
        assert out.splitlines()[1:] == [
            "matrix (2 x 1), rows = outputs, cols = inputs:",
            "  [1073741824/1 + 0/1*r2 + (0/1 + 0/1*r2)*i]",
            "  [1073741822/1 + 0/1*r2 + (0/1 + 0/1*r2)*i]",
        ]

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

    @pytest.mark.parametrize("spin", ["-1", "-1/2"])
    def test_build_link_names_a_negative_spin(self, capsys, spin):
        assert run_usage_error(capsys, "build", "link", "--", spin) == f"error: spin {spin} is negative\n"

    @pytest.mark.parametrize("argv", [["3jm", "-1/2", "1/2", "1"], ["link", "-1/2"], ["link", "-1"]],
                             ids=["3jm", "link-half", "link-whole"])
    def test_build_takes_a_negative_spin_without_a_separator(self, capsys, argv):
        assert run_usage_error(capsys, "build", *argv) == f"error: spin {argv[1]} is negative\n"

    @pytest.mark.parametrize("literal", BAD_SPIN_LITERALS)
    @pytest.mark.parametrize("command", [
        ["symbol", "3jm", "{}", "1", "1", "0", "0", "0"], ["build", "link", "{}"],
    ], ids=["symbol", "build"])
    def test_bad_spin_literal_exits_2(self, capsys, command, literal):
        err = run_usage_error(capsys, *(w.format(literal) for w in command))
        assert err.startswith(f"error: invalid spin {literal!r}: "), err

    def test_rank_cap_is_not_read_from_the_environment(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "s2.json"
        run(capsys, "build", "symmetriser", "2", "--out", str(path))
        d = deserialize(path.read_text())
        plan = plan_contraction(d)
        for value in ("abc", "1"):
            monkeypatch.setenv("SPINNET_RANK_CAP", value)
            assert run(capsys, "verify", "paper.json")[:2] == (EXIT_OK, GOLDEN_VERIFY.read_text())
            assert run(capsys, "eval", str(path))[0] == EXIT_OK
            assert plan_contraction(d) == plan

    @pytest.mark.parametrize("literal", BAD_COUNT_LITERALS)
    @pytest.mark.parametrize("argv, what", [
        (["build", "symmetriser"], "wire count"), (["build", "crown"], "stage number"),
    ], ids=["symmetriser", "crown"])
    def test_bad_count_literal_exits_2(self, capsys, argv, what, literal):
        err = run_usage_error(capsys, *argv, literal)
        assert err == f"error: {what} {literal!r} is not an integer\n"

    @pytest.mark.parametrize("literal", BAD_COUNT_LITERALS)
    def test_bad_rank_cap_literal_exits_2(self, capsys, tmp_path, literal):
        path = tmp_path / "s2.json"
        run(capsys, "build", "symmetriser", "2", "--out", str(path))
        err = run_usage_error(capsys, "eval", str(path), "--rank-cap", literal)
        assert err == f"error: rank cap {literal!r} is not an integer\n"

    @pytest.mark.parametrize("literal", [" 3 ", "+3", "03"])
    def test_count_literal_takes_spaces_sign_and_zeros(self, capsys, literal):
        code, out, _ = run(capsys, "build", "symmetriser", literal)
        assert code == EXIT_OK and "inputs: 3  outputs: 3" in out

    def test_negative_rank_cap_option(self, capsys, tmp_path):
        path = tmp_path / "s2.json"
        run(capsys, "build", "symmetriser", "2", "--out", str(path))
        assert "rank cap -3 is negative" in run_usage_error(capsys, "eval", str(path), "--rank-cap", "-3")

    def test_zero_rank_cap_is_valid(self, capsys, tmp_path):
        path = tmp_path / "s2.json"
        run(capsys, "build", "symmetriser", "2", "--out", str(path))
        code, _, err = run(capsys, "eval", str(path), "--rank-cap", "0")
        assert code == EXIT_RANK_CAP
        assert "exceeds cap 0" in err

    @pytest.mark.parametrize("plug, message", [
        ("0=1,0=0", "plug position 0 is given twice"),
        ("3=0, 3=0", "plug position 3 is given twice"),
        ("0", "bad plug entry '0'; expected pos=bit"),
        ("4=0", "plug position 4 out of range (diagram has 4 wires)"),
        ("0=2", "plug bit must be 0 or 1, got 2"),
        ("0_0=1", "bad plug entry '0_0=1'; expected pos=bit"),
        ("\u0660=\u0661", "bad plug entry '\u0660=\u0661'; expected pos=bit"),
        ("0=1_0", "bad plug entry '0=1_0'; expected pos=bit"),
    ], ids=["repeated", "repeated-same-bit", "malformed", "out-of-range", "bit",
            "underscore-position", "non-ascii-digits", "underscore-bit"])
    def test_bad_plug_exits_2(self, capsys, tmp_path, plug, message):
        path = tmp_path / "s2.json"
        run(capsys, "build", "symmetriser", "2", "--out", str(path))
        assert run_usage_error(capsys, "eval", str(path), "--plug", plug) == f"error: {message}\n"

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
        (lambda t: ["eval", str(_file(t, b"[" * 100_000))], "cannot read diagram"),
        (lambda t: ["verify", str(_file(t, b"[" * 100_000))], "cannot read manifest"),
    ], ids=["verify-directory", "verify-non-utf8", "eval-directory", "build-out-directory",
            "build-out-missing-directory", "build-dot-directory", "verify-negative-symmetriser",
            "eval-deep-json", "verify-deep-json"])
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
        *(("spins", [literal], f"invalid spin {literal!r}: ") for literal in BAD_SPIN_LITERALS),
        ("id", 5, "id 5 is not a string"),
        ("id", ["x"], "id ['x'] is not a string"),
        ("source", 5, "source 5 is not a string"),
        ("source", None, "source None is not a string"),
        # at least 10^18 with no prime factor below 10^6: not factored
        ("expected", f"1*sqrt({1000003 ** 3})", f"cannot factor the radicand {1000003 ** 3}"),
    ])
    def test_malformed_case_exits_2_before_any_case_runs(self, capsys, tmp_path, field, value, message):
        good = {"id": "good-loop", "kind": "invariant", "which": "loop",
                "spins": ["1/2"], "policy": "exact", "expected": "2"}
        bad = {**good, "id": "bad-case", field: value}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"version": 1, "cases": [good, bad]}))
        code, out, err = run(capsys, "verify", str(p))
        assert code == EXIT_USAGE
        assert err.startswith(f"error: case {bad['id']!r}: ") and err.count("\n") == 1, err
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("bad, message", [
        *(({"builder": "cswap", "expected": e}, f"expected matrix {e!r} is not a non-empty rectangular list of lists")
          for e in (["10", "01"], [["1", "0"], "01"], [["1"], 1], [["1", "0"], ["0"]], [], [[]], "1")),
        *(({"builder": "symmetriser", "n": n, "expected": [["1"]]}, f"wire count {n!r} is not an integer")
          for n in ("1_0", "\u0663", " \u0663 ")),
        ({"builder": ["x"], "expected": [["1"]]}, "unknown matrix builder ['x']"),
    ], ids=["string-rows", "string-row", "int-row", "ragged", "empty", "empty-row", "string",
            "n-underscore", "n-non-ascii-digit", "n-padded-non-ascii-digit", "builder-list"])
    def test_malformed_matrix_case_exits_2_before_any_case_runs(self, capsys, tmp_path, bad, message):
        good = {"id": "good-loop", "kind": "invariant", "which": "loop",
                "spins": ["1/2"], "policy": "exact", "expected": "2"}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"version": 1, "cases": [good, {"id": "bad-matrix", "kind": "matrix", **bad}]}))
        code, out, err = run(capsys, "verify", str(p))
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: case 'bad-matrix': {message}\n"

    @pytest.mark.parametrize("bad, message", [
        ({"builder": "symmetriser", "n": [2]}, "wire count [2] is not a string or an integer"),
        ({"builder": "symmetriser", "n": True}, "wire count true is not a string or an integer"),
        ({"builder": "symmetriser", "n": None}, "wire count null is not a string or an integer"),
        ({"builder": "symmetriser", "n": 2.0}, "wire count 2.0 is not a string or an integer"),
        ({"builder": "3jm", "spins": [[2], "1", "1"]}, "invalid spin [2]: not a string or a number"),
        ({"builder": "3jm", "spins": [{"j": 1}, "1", "1"]}, 'invalid spin {"j": 1}: not a string or a number'),
    ], ids=["n-list", "n-bool", "n-null", "n-float", "spin-list", "spin-object"])
    def test_matrix_case_field_of_another_json_type_exits_2(self, capsys, tmp_path, bad, message):
        # The JSON value itself is checked, and shown as JSON, not through str().
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"version": 1, "cases": [{"id": "bad", "kind": "matrix", "expected": [["1"]], **bad}]}))
        code, out, err = run(capsys, "verify", str(p))
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: case 'bad': {message}\n"

    @pytest.mark.parametrize("value", ["1e400", '"1.0e400"', "true"], ids=["json-infinity", "string", "bool"])
    @pytest.mark.parametrize("case", [
        '{"id": "bad", "kind": "invariant", "which": "loop", "spins": [%s], "expected": "3"}',
        '{"id": "bad", "kind": "3jm", "spins": ["1", "1", "1"], "ms": [%s, "0", "0"], "expected": "0"}',
        '{"id": "bad", "kind": "4jm", "spins": ["1", "1", "1", "1"], "j": %s, "ms": ["0", "0", "0", "0"],'
        ' "expected": "0"}',
    ], ids=["loop-spins", "3jm-ms", "4jm-j"])
    def test_non_finite_or_boolean_spin_exits_2(self, capsys, tmp_path, case, value):
        p = _file(tmp_path, ('{"version": 1, "cases": [%s]}' % (case % value)).encode())
        code, out, err = run(capsys, "verify", str(p))
        assert code == EXIT_USAGE
        assert err.startswith("error: case 'bad': invalid spin ") and err.count("\n") == 1, err
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

    @pytest.mark.parametrize("builder", ["crown", "link", "6j", "theta", "loop", "symbol"])
    def test_only_matrix_builders_are_accepted(self, capsys, tmp_path, builder):
        case = {"id": "bad-builder", "kind": "matrix", "builder": builder, "expected": [["1"]]}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"version": 1, "cases": [case]}))
        code, out, err = run(capsys, "verify", str(p))
        assert code == EXIT_USAGE
        assert err == f"error: case 'bad-builder': unknown matrix builder {builder!r}\n"
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
