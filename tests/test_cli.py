import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from invarcheck.cli import (
    EXIT_INPUT,
    EXIT_INVARIANT,
    EXIT_NOT_BOUNDARY,
    EXIT_NOT_INVARIANT,
    EXIT_UNKNOWN,
    main,
    set_from_dict,
    set_to_dict,
)
from invarcheck.errors import NumericalFailure
from invarcheck.sets import membership

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

EXPECTED_EXIT = {
    "hpolyhedron_box.json": EXIT_INVARIANT,
    "vpolytope_triangle.json": EXIT_INVARIANT,
    "vcone_exchange.json": EXIT_INVARIANT,
    "ellipsoid_rotation.json": EXIT_INVARIANT,
    "lorenz_expanding.json": EXIT_INVARIANT,
    "orthant_unstable.json": EXIT_NOT_INVARIANT,
    "expression_cubic_decay.json": EXIT_UNKNOWN,
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_example_files_exit_codes(capsys):
    for name, expected in EXPECTED_EXIT.items():
        code, out, _ = run_cli(capsys, "check", str(PROBLEMS / name), "--no-timing")
        assert code == expected, name
        report = json.loads(out)
        assert report["schema"] == "nagumo/1"


def test_reports_deterministic(capsys):
    for name in EXPECTED_EXIT:
        _, out1, _ = run_cli(capsys, "check", str(PROBLEMS / name), "--no-timing")
        _, out2, _ = run_cli(capsys, "check", str(PROBLEMS / name), "--no-timing")
        assert out1 == out2, name


def test_report_round_trips(capsys):
    _, out, _ = run_cli(capsys, "check", str(PROBLEMS / "ellipsoid_rotation.json"),
                        "--no-timing")
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report
    assert report["certificate"]["data"]["eta"] == pytest.approx(0.0, abs=1e-9)


def test_orthant_counterexample_reported(capsys):
    code, out, _ = run_cli(capsys, "check", str(PROBLEMS / "orthant_unstable.json"),
                           "--no-timing")
    assert code == EXIT_NOT_INVARIANT
    report = json.loads(out)
    assert report["counterexample"]["point"] == [0.0, 1.0]
    assert report["counterexample"]["violation"] == pytest.approx(-0.5)


def test_timing_present_by_default(capsys):
    _, out, _ = run_cli(capsys, "check", str(PROBLEMS / "hpolyhedron_box.json"))
    report = json.loads(out)
    assert "timing" in report and report["timing"]["total_s"] >= 0.0


def test_malformed_json_exits_64(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == EXIT_INPUT
    assert "invalid JSON" in err


def test_missing_schema_and_fields_named(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"schema": "nagumo/1",
                             "set": {"type": "ellipsoid", "Q": [[1, 0], [0, "1"]]},
                             "system": {"type": "linear", "A": [[0, 1], [-1, 0]]}}),
                 encoding="utf-8")
    code, _, err = run_cli(capsys, "check", str(f))
    assert code == EXIT_INPUT
    assert "set.Q" in err  # diagnostic names the failing field path
    f.write_text(json.dumps({"set": {}, "system": {}}), encoding="utf-8")
    code, _, err = run_cli(capsys, "check", str(f))
    assert code == EXIT_INPUT
    assert "schema" in err


_BOX = {"type": "hpolyhedron", "G": [[1, 0], [0, 1], [-1, 0], [0, -1]], "b": [1, 1, 1, 1]}
_DECAY = {"type": "linear", "A": [[-1, 0], [0, -1]]}


def _problem(**fields):
    """The box under x' = -x, with fields replaced (or dropped when None)."""
    d = {"schema": "nagumo/1", "set": _BOX, "system": _DECAY, **fields}
    return {k: v for k, v in d.items() if v is not None}


@pytest.mark.parametrize("problem, message", [
    ([_problem()], "problem: expected a JSON object"),
    (_problem(set=None), "set: missing"),
    (_problem(system=None), "system: missing"),
    (_problem(set={"G": _BOX["G"], "b": _BOX["b"]}), "set: expected an object with a 'type' tag"),
    (_problem(set={"type": "ball"}), "set.type: unknown tag 'ball'"),
    (_problem(set={"type": "hpolyhedron", "G": [[1, 0], [1]], "b": [1, 1]}),
     "set.G[1]: shape (1,) != (2,)"),
    (_problem(set={"type": "hpolyhedron", "G": [[1, 0]], "b": []}),
     "set.b: expected a non-empty array of numbers"),
    (_problem(set={"type": "orthant", "n": 0}), "set.n: expected a positive integer, got 0"),
    (_problem(set={"type": "hpolyhedron", "G": [[1, 0], [0, 1]], "b": [1]}),
     "set: G rows and b length differ"),
    (_problem(system={"A": _DECAY["A"]}), "system: expected an object with a 'type' tag"),
    (_problem(system={"type": "affine"}), "system.type: unknown tag 'affine'"),
    (_problem(system={"type": "expression", "formulas": [1, 2]}),
     "system.formulas: expected an array of strings"),
    (_problem(system={"type": "expression", "formulas": ["-x1"]}),
     "system.formulas: expected 2 formulas, got 1"),
    (_problem(options=[1]), "options: expected an object"),
    (_problem(options={"speed": 1}), "options.speed: unknown option"),
    (_problem(options={"seed": 1.5}), "options.seed: expected a nonnegative integer, got 1.5"),
    (_problem(options={"n_samples": True}),
     "options.n_samples: expected a positive integer, got True"),
    (None, "cannot read"),
], ids=["top-level array", "no set", "no system", "set without type", "unknown set tag",
        "ragged G", "empty b", "orthant n 0", "G b mismatch", "system without type",
        "unknown system tag", "formulas not strings", "formula count", "options not object",
        "unknown option", "seed not integer", "boolean n_samples", "unreadable file"])
def test_every_malformed_problem_exits_64(tmp_path, capsys, problem, message):
    f = tmp_path / "p.json"
    if problem is not None:
        f.write_text(json.dumps(problem), encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(f))
    assert code == EXIT_INPUT
    assert out == ""
    # the whole line, so that a field is named once; an unreadable file's
    # line goes on with the operating system's message
    line = f"input error: {message}"
    assert err == line + "\n" if problem is not None else err.startswith(line)


@pytest.mark.parametrize("n", [10**400, 2**63], ids=["1e400", "2^63"])
def test_orthant_dimension_numpy_cannot_size_exits_64(tmp_path, capsys, n):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(_problem(set={"type": "orthant", "n": n})), encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(f))
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("input error: set.n: expected at most ")


def test_dimension_mismatch_exits_64(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"schema": "nagumo/1",
                             "set": {"type": "orthant", "n": 3},
                             "system": {"type": "linear", "A": [[1, 0], [0, 1]]}}),
                 encoding="utf-8")
    code, _, err = run_cli(capsys, "check", str(f))
    assert code == EXIT_INPUT
    assert "system.A" in err


@pytest.mark.parametrize("argv", [
    ["falsify", "--step", "-0.1"],
    ["falsify", "--step", "0"],
    ["falsify", "--step", "nan"],
    ["falsify", "--horizon", "-1"],
    ["falsify", "--step", "1e-320"],
    ["falsify", "--seed", "-1"],
    ["check", "--tolerance", "-1"],
    ["check", "--tolerance", "nan"],
    ["check", "--horizon", "-1"],
    ["check", "--step", "20"],
    ["check", "--samples", "-5"],
    ["check", "--samples", "0"],
])
def test_bad_numeric_options_exit_64(capsys, argv):
    command, *flags = argv
    code, _, err = run_cli(capsys, command, str(PROBLEMS / "hpolyhedron_box.json"), *flags)
    assert code == EXIT_INPUT
    assert "internal error" not in err


@pytest.mark.parametrize("argv", [
    ["check"],
    ["check", "hpolyhedron_box.json", "--bogus"],
    ["check", "hpolyhedron_box.json", "--samples", "x"],
    ["frobnicate"],
], ids=["missing-file", "unknown-flag", "bad-int", "unknown-command"])
def test_usage_errors_exit_64(capsys, argv):
    # argparse's own exit code 2 would read as EXIT_UNKNOWN
    argv = [str(PROBLEMS / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert "error:" in err


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "usage: invarcheck" in out


def test_step_count_cap_exits_64(capsys):
    # 1e13 RK4 steps would not finish; the pair is rejected before any step
    code, _, err = run_cli(capsys, "falsify", str(PROBLEMS / "hpolyhedron_box.json"),
                           "--samples", "10", "--step", "1e-12")
    assert code == EXIT_INPUT
    assert "steps" in err


def test_non_finite_option_in_file_exits_64(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"schema": "nagumo/1", "set": {"type": "orthant", "n": 2},
                             "system": {"type": "linear", "A": [[1, 0], [0, 1]]},
                             "options": {"horizon": float("nan")}}), encoding="utf-8")
    code, _, err = run_cli(capsys, "check", str(f))
    assert code == EXIT_INPUT
    assert "options.horizon" in err


def test_sample_count_below_one_in_file_exits_64(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"schema": "nagumo/1", "set": {"type": "orthant", "n": 2},
                             "system": {"type": "linear", "A": [[1, 0], [0, 1]]},
                             "options": {"n_samples": 0}}), encoding="utf-8")
    code, _, err = run_cli(capsys, "check", str(f))
    assert code == EXIT_INPUT
    assert "options.n_samples" in err


@pytest.mark.parametrize("command", ["check", "falsify"])
@pytest.mark.parametrize("options, line", [
    ({"tolerance": -1}, "options.tolerance: expected a finite nonnegative number, got -1.0"),
    ({"tolerance": float("inf")},
     "options.tolerance: expected a finite nonnegative number, got inf"),
    ({"seed": -3}, "options.seed: expected a nonnegative integer, got -3"),
    ({"n_samples": 2.5}, "options.n_samples: expected a positive integer, got 2.5"),
    ({"t0": float("nan")}, "options.t0: expected a finite number, got nan"),
    ({"step": 2.0, "horizon": 1.0}, "need 0 < options.step <= options.horizon < inf, "
                                    "got options.step 2.0 and options.horizon 1.0"),
], ids=["negative tolerance", "infinite tolerance", "negative seed", "float n_samples", "nan t0",
        "step above horizon"])
def test_bad_option_is_one_line_naming_options_key(tmp_path, capsys, command, options, line):
    # the library's own rules, under the CLI's names, for every command
    f = tmp_path / "p.json"
    f.write_text(json.dumps(_problem(options=options)), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(f))
    assert (code, out, err) == (EXIT_INPUT, "", f"input error: {line}\n")


def test_large_horizon_is_accepted_by_check(capsys):
    # the step cap belongs to falsify alone, so check takes any finite grid
    code, _, _ = run_cli(capsys, "check", str(PROBLEMS / "hpolyhedron_box.json"),
                         "--horizon", "1e7", "--no-timing")
    assert code == EXIT_INVARIANT


def test_tolerance_flag_reaches_sampled_paths(tmp_path, capsys):
    # a drift of 1e-6 across the facet x1 = 1 is outward flux above the default
    # cone tolerance and below 1e-4, so only the verdict moves with the flag
    f = tmp_path / "drift.json"
    f.write_text(json.dumps({"schema": "nagumo/1",
                             "set": {"type": "hpolyhedron",
                                     "G": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                                     "b": [1, 1, 1, 1]},
                             "system": {"type": "expression",
                                        "formulas": ["1e-6 + 0*x1", "0*x2"]}}),
                 encoding="utf-8")
    code, _, _ = run_cli(capsys, "check", str(f), "--samples", "50")
    assert code == EXIT_NOT_INVARIANT
    code, _, _ = run_cli(capsys, "check", str(f), "--samples", "50", "--tolerance", "1e-4")
    assert code == EXIT_UNKNOWN
    # 1e-6 outside the facet: outside the default band, inside a band of 1e-4
    box = str(PROBLEMS / "hpolyhedron_box.json")
    code, _, _ = run_cli(capsys, "tangent", box, "[1.000001, 0.5]")
    assert code == EXIT_NOT_BOUNDARY
    code, _, _ = run_cli(capsys, "tangent", box, "[1.000001, 0.5]", "--tolerance", "1e-4")
    assert code == EXIT_INVARIANT


def test_tangent_box_corner(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "tangent", str(PROBLEMS / "hpolyhedron_box.json"),
                           "[1.0, 1.0]", "--no-timing")
    assert code == EXIT_INVARIANT
    report = json.loads(out)
    assert report["cone"]["kind"] == "halfspaces"
    assert report["cone"]["normals"] == [[1.0, 0.0], [0.0, 1.0]]


def test_tangent_ellipsoid_normal(tmp_path, capsys):
    f = tmp_path / "e.json"
    f.write_text(json.dumps({"schema": "nagumo/1",
                             "set": {"type": "ellipsoid", "Q": [[1, 0], [0, 4]]},
                             "system": {"type": "linear", "A": [[0, 0], [0, 0]]}}),
                 encoding="utf-8")
    code, out, _ = run_cli(capsys, "tangent", str(f), "[0.0, 0.5]", "--no-timing")
    assert code == EXIT_INVARIANT
    report = json.loads(out)
    assert report["cone"]["kind"] == "quadratic-halfspace"
    assert report["cone"]["normal"] == [0.0, 2.0]


def test_tangent_at_lorenz_apex_is_the_cone_itself(capsys):
    code, out, _ = run_cli(capsys, "tangent", str(PROBLEMS / "lorenz_expanding.json"),
                           "[0.0, 0.0, 0.0]", "--no-timing")
    assert code == EXIT_INVARIANT
    assert json.loads(out)["cone"] == {"kind": "cone-itself"}


def test_tangent_interior_point_exits_65(capsys):
    for point in ("[0.5, 0.5]", "[2.0, 0.5]"):  # inside, then outside
        code, out, err = run_cli(capsys, "tangent", str(PROBLEMS / "hpolyhedron_box.json"),
                                 point)
        assert code == EXIT_NOT_BOUNDARY and out == ""
        assert err == "boundary error: point is not on the set boundary\n"


def test_tangent_point_that_is_not_json_exits_64(capsys):
    code, out, err = run_cli(capsys, "tangent", str(PROBLEMS / "hpolyhedron_box.json"), "[1.0,")
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("input error: point: invalid JSON (")


def test_tangent_classifies_its_point_once(monkeypatch, capsys):
    # the command's own membership check is the only one: the cone is built
    # from the classified point, so the report matches the golden one
    from invarcheck import cli, tangent

    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return membership(*args, **kwargs)

    monkeypatch.setattr(cli, "membership", spy)
    monkeypatch.setattr(tangent, "membership", spy)
    code, out, _ = run_cli(capsys, "tangent", str(PROBLEMS / "vpolytope_triangle.json"),
                           "[0.0, 0.0]", "--no-timing")
    assert code == EXIT_INVARIANT and len(calls) == 1
    assert out == (Path(__file__).resolve().parent / "golden"
                   / "vpolytope_triangle.tangent.json").read_text(encoding="utf-8")


def test_tangent_at_an_interior_point_of_a_strip_with_a_zero_row_exits_65(tmp_path, capsys):
    # 0 x <= 0 binds nowhere, so [0.5, 0] is inside |x1| <= 1, not on a face
    f = tmp_path / "strip.json"
    f.write_text(json.dumps({"schema": "nagumo/1",
                             "set": {"type": "hpolyhedron", "G": [[0, 0], [1, 0], [-1, 0]],
                                     "b": [0, 1, 1]},
                             "system": {"type": "linear", "A": [[0, 0], [0, 0]]}}),
                 encoding="utf-8")
    code, out, err = run_cli(capsys, "tangent", str(f), "[0.5, 0.0]")
    assert code == EXIT_NOT_BOUNDARY and out == ""
    assert err == "boundary error: point is not on the set boundary\n"
    code, out, _ = run_cli(capsys, "tangent", str(f), "[1.0, 0.0]", "--no-timing")
    assert code == EXIT_INVARIANT
    assert json.loads(out)["cone"] == {"kind": "halfspaces", "normals": [[1.0, 0.0]]}


def test_tangent_point_of_the_wrong_size_exits_64(capsys):
    code, out, err = run_cli(capsys, "tangent", str(PROBLEMS / "hpolyhedron_box.json"),
                             "[1.0, 1.0, 1.0]")
    assert code == EXIT_INPUT and out == ""
    assert err == "input error: point: expected dimension 2, got 3\n"


def test_tangent_report_has_the_skeleton_of_every_command(capsys):
    box = str(PROBLEMS / "hpolyhedron_box.json")
    code, out, err = run_cli(capsys, "tangent", box, "[1.0, 1.0]")
    assert code == EXIT_INVARIANT and err == "tangent cone kind: halfspaces\n"
    report = json.loads(out)
    assert sorted(report) == ["command", "cone", "options", "point", "problem", "schema",
                              "timing", "tool_version"]
    assert report["command"] == "tangent"
    assert report["problem"]["system"] == json.loads(
        (PROBLEMS / "hpolyhedron_box.json").read_text(encoding="utf-8"))["system"]
    assert sorted(report["problem"]) == ["set", "system"]
    assert sorted(report["timing"]) == ["parse_s", "tangent_s", "total_s"]
    _, out, _ = run_cli(capsys, "tangent", box, "[1.0, 1.0]", "--no-timing")
    untimed = json.loads(out)
    del report["timing"]
    assert untimed == report


def test_tangent_vertex_and_ray_forms(capsys):
    # the facets through the vertex, and the one through the ray, bind
    code, out, _ = run_cli(capsys, "tangent", str(PROBLEMS / "vpolytope_triangle.json"),
                           "[0.0, 0.0]", "--no-timing")
    assert code == EXIT_INVARIANT
    assert json.loads(out)["cone"] == {"kind": "halfspaces",
                                       "normals": [[0.0, -1.0], [-1.0, 0.0]]}
    code, out, _ = run_cli(capsys, "tangent", str(PROBLEMS / "vcone_exchange.json"),
                           "[2.0, 0.0]", "--no-timing")
    assert code == EXIT_INVARIANT
    assert json.loads(out)["cone"] == {"kind": "halfspaces", "normals": [[0.0, -1.0]]}


def test_tangent_on_the_triangle_reads_its_facets(capsys):
    # inside the triangle is not boundary (65); on the hypotenuse its facet binds
    tri = str(PROBLEMS / "vpolytope_triangle.json")
    code, out, _ = run_cli(capsys, "tangent", tri, "[0.2, 0.2]")
    assert code == EXIT_NOT_BOUNDARY and out == ""
    code, out, _ = run_cli(capsys, "tangent", tri, "[0.5, 0.5]", "--no-timing")
    assert code == EXIT_INVARIANT
    cone = json.loads(out)["cone"]
    assert cone["kind"] == "halfspaces" and np.allclose(cone["normals"], [[0.5 ** 0.5] * 2])


def test_tangent_above_the_facet_cap_prints_a_generated_cone(tmp_path, capsys):
    # the cross-polytope in R^10 has 1,024 facets, above the cap: its vertex
    # e_1 gets the differences to all vertices
    v = np.vstack([np.eye(10), -np.eye(10)])
    f = tmp_path / "cross10.json"
    f.write_text(json.dumps({"schema": "nagumo/1",
                             "set": {"type": "vpolytope", "vertices": v.tolist()},
                             "system": {"type": "linear", "A": (-np.eye(10)).tolist()}}),
                 encoding="utf-8")
    code, out, _ = run_cli(capsys, "tangent", str(f), json.dumps(v[0].tolist()), "--no-timing")
    assert code == EXIT_INVARIANT
    cone = json.loads(out)["cone"]
    assert cone["kind"] == "generated" and cone["free_generator"] is None
    assert cone["generators"] == (v - v[0]).tolist()


def test_tangent_on_a_ray_form_above_the_facet_cap_prints_its_free_generator(tmp_path, capsys):
    # the cone over the cross-polytope in R^10 has 1,024 facets, above the
    # cap: at its ray (e_1, 1) the cone holds all rays and the point sign-free
    rays = np.hstack([np.vstack([np.eye(10), -np.eye(10)]), np.ones((20, 1))])
    f = tmp_path / "crosscone.json"
    f.write_text(json.dumps({"schema": "nagumo/1",
                             "set": {"type": "vcone", "rays": rays.tolist()},
                             "system": {"type": "linear", "A": (-np.eye(11)).tolist()}}),
                 encoding="utf-8")
    code, out, _ = run_cli(capsys, "tangent", str(f), json.dumps(rays[0].tolist()), "--no-timing")
    assert code == EXIT_INVARIANT
    cone = json.loads(out)["cone"]
    assert cone["kind"] == "generated" and cone["generators"] == rays.tolist()
    assert cone["free_generator"] == rays[0].tolist()


def test_tolerance_reaches_vertex_form_membership(capsys):
    # 1e-7 outside the triangle's hypotenuse: within a band of 1e-4, not 1e-8
    # (the same triangle as an H-form answers the same)
    tri = str(PROBLEMS / "vpolytope_triangle.json")
    code, _, _ = run_cli(capsys, "tangent", tri, "[0.5000001, 0.5]", "--tolerance", "1e-4")
    assert code == EXIT_INVARIANT
    code, _, _ = run_cli(capsys, "tangent", tri, "[0.5000001, 0.5]", "--tolerance", "1e-8")
    assert code == EXIT_NOT_BOUNDARY


def test_falsify_commands(capsys, tmp_path):
    f = tmp_path / "saddle.json"
    f.write_text(json.dumps({"schema": "nagumo/1",
                             "set": {"type": "ellipsoid", "Q": [[1, 0], [0, 1]]},
                             "system": {"type": "linear", "A": [[1, 0], [0, -1]]}}),
                 encoding="utf-8")
    code, out, _ = run_cli(capsys, "falsify", str(f), "--samples", "64",
                           "--horizon", "1.0", "--step", "0.001", "--no-timing")
    assert code == EXIT_NOT_INVARIANT
    report = json.loads(out)
    assert report["exit_found"] is True
    assert report["witness"]["t_exit"] <= 1.0
    code, out, _ = run_cli(capsys, "falsify", str(PROBLEMS / "ellipsoid_rotation.json"),
                           "--samples", "100", "--horizon", "2.0", "--step", "0.001",
                           "--no-timing")
    assert code == EXIT_INVARIANT
    assert json.loads(out)["exit_found"] is False


def test_falsify_single_vertex_equilibrium(tmp_path, capsys):
    f = tmp_path / "point.json"
    f.write_text(json.dumps({"schema": "nagumo/1",
                             "set": {"type": "vpolytope", "vertices": [[0.0, 0.0]]},
                             "system": {"type": "linear", "A": [[0, 0], [0, 0]]}}),
                 encoding="utf-8")
    code, out, _ = run_cli(capsys, "falsify", str(f), "--samples", "5",
                           "--horizon", "1.0", "--step", "0.01", "--no-timing")
    assert code == EXIT_INVARIANT
    assert json.loads(out)["exit_found"] is False


def test_expression_system_parity(tmp_path, capsys):
    base = {"schema": "nagumo/1",
            "set": {"type": "ellipsoid", "Q": [[1, 0], [0, 1]]},
            "options": {"n_samples": 500}}
    f_lin = tmp_path / "lin.json"
    f_expr = tmp_path / "expr.json"
    f_lin.write_text(json.dumps({**base, "system": {"type": "linear",
                                                    "A": [[-1, 2], [-2, -1]]}}),
                     encoding="utf-8")
    f_expr.write_text(json.dumps({**base, "system": {
        "type": "expression", "formulas": ["-1*x1 + 2*x2", "-2*x1 - 1*x2"]}}),
        encoding="utf-8")
    code_lin, _, _ = run_cli(capsys, "check", str(f_lin), "--no-timing")
    code_expr, out, _ = run_cli(capsys, "check", str(f_expr), "--no-timing")
    assert code_lin == EXIT_INVARIANT  # exact certificate
    assert code_expr == EXIT_UNKNOWN   # sampled path cannot certify
    assert json.loads(out)["decision"] == "unknown"


def test_output_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    _, out, _ = run_cli(capsys, "check", str(PROBLEMS / "hpolyhedron_box.json"),
                        "--no-timing", "--output", str(out_path))
    assert json.loads(out_path.read_text(encoding="utf-8")) == json.loads(out)


def test_unwritable_output_exits_64(tmp_path, capsys):
    # an --output path in a missing directory is an input error, checked
    # before anything is printed
    missing = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "check", str(PROBLEMS / "hpolyhedron_box.json"),
                             "--no-timing", "--output", str(missing))
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith(f"input error: cannot write {missing}: ")


@pytest.mark.parametrize("formula, code, decision", [
    ("-x1", EXIT_UNKNOWN, "unknown"),
    ("x1 - 1", EXIT_NOT_INVARIANT, "not_invariant"),
])
def test_half_line_lorenz_cone_with_a_formula(tmp_path, capsys, formula, code, decision):
    # the one-dimensional cone Q = [[-1]] is the half-line x >= 0; its only
    # boundary point is the apex, where x1 - 1 leaves with violation 0.5
    f = tmp_path / "half_line.json"
    f.write_text(json.dumps({"schema": "nagumo/1", "set": {"type": "lorenz", "Q": [[-1]]},
                             "system": {"type": "expression", "formulas": [formula]}}),
                 encoding="utf-8")
    got, out, _ = run_cli(capsys, "check", str(f), "--samples", "5", "--no-timing")
    report = json.loads(out)
    assert (got, report["decision"]) == (code, decision)
    if code == EXIT_NOT_INVARIANT:
        assert report["counterexample"] == {"point": [0.0], "violation": 0.5}
    got, out, _ = run_cli(capsys, "falsify", str(f), "--samples", "5", "--horizon", "0.5",
                          "--no-timing")
    assert got == (EXIT_INVARIANT if code == EXIT_UNKNOWN else EXIT_NOT_INVARIANT)
    assert json.loads(out)["exit_found"] is (got == EXIT_NOT_INVARIANT)


def test_version_command(capsys):
    code, out, _ = run_cli(capsys, "version")
    assert code == 0
    assert out.strip() == "0.1.0"


def test_public_names_resolve():
    import invarcheck

    missing = [name for name in invarcheck.__all__ if not hasattr(invarcheck, name)]
    assert missing == []
    namespace = {}
    exec("from invarcheck import *", namespace)
    assert set(invarcheck.__all__) <= set(namespace)


def test_set_serialization_round_trip():
    dicts = [
        {"type": "hpolyhedron", "G": [[1.0, 0.0], [-1.0, 0.0]], "b": [1.0, 0.0]},
        {"type": "vpolytope", "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]},
        {"type": "vcone", "rays": [[1.0, 0.0], [0.0, 1.0]]},
        {"type": "ellipsoid", "Q": [[2.0, 0.0], [0.0, 3.0]]},
        {"type": "lorenz", "Q": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]],
         "u_n": [0.0, 0.0, 1.0]},
        {"type": "orthant", "n": 3},
    ]
    for d in dicts:
        s = set_from_dict(d)
        back = set_to_dict(s)
        assert back["type"] == d["type"]
        s2 = set_from_dict(back)
        assert type(s2) is type(s)
        assert set_to_dict(s2) == back


@pytest.mark.parametrize("error, message", [(NumericalFailure, "numerical failure"),
                                            (TypeError, "internal error: TypeError")],
                         ids=["NumericalFailure", "TypeError"])
def test_numerical_failure_maps_to_70(tmp_path, capsys, monkeypatch, error, message):
    from invarcheck import cli

    def boom(*args, **kwargs):
        raise error("synthetic")

    monkeypatch.setattr(cli, "check", boom)
    code, _, err = run_cli(capsys, "check", str(PROBLEMS / "hpolyhedron_box.json"))
    assert code == 70
    assert message in err


def test_expression_and_linear_agree_on_sampled_path():
    # the same field written both ways must give identical sampled verdicts
    from invarcheck.checkers import check_nonlinear_sampled
    from invarcheck.expressions import build_expression_system
    from invarcheck.sets import Ellipsoid
    from invarcheck.systems import LinearSystem

    a = np.array([[1.0, 0.0], [0.0, -1.0]])
    lin = LinearSystem(a)
    expr = build_expression_system(["1*x1 + 0*x2", "0*x1 - 1*x2"])
    disk = Ellipsoid(np.eye(2))
    v_lin = check_nonlinear_sampled(disk, lin, 0.0, 200, seed=9)
    v_expr = check_nonlinear_sampled(disk, expr, 0.0, 200, seed=9)
    assert v_lin.decision == v_expr.decision
    assert np.allclose(v_lin.counterexample.point, v_expr.counterexample.point)
    stable = build_expression_system(["-1*x1", "-1*x2"])
    v1 = check_nonlinear_sampled(disk, LinearSystem(-np.eye(2)), 0.0, 200, seed=9)
    v2 = check_nonlinear_sampled(disk, stable, 0.0, 200, seed=9)
    assert v1.decision == v2.decision  # both unknown on the sampled path


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "invarcheck.cli", "check",
         str(PROBLEMS / "ellipsoid_rotation.json"), "--no-timing"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_INVARIANT
    assert json.loads(proc.stdout)["decision"] == "invariant"
    assert "decision: invariant" in proc.stderr


def _expression_problem(tmp_path, formula):
    f = tmp_path / "field.json"
    f.write_text(json.dumps({"schema": "nagumo/1",
                             "set": {"type": "hpolyhedron", "G": [[1.0], [-1.0]],
                                     "b": [1.0, 1.0]},
                             "system": {"type": "expression", "formulas": [formula]}}),
                 encoding="utf-8")
    return str(f)


@pytest.mark.parametrize("formula, on_coordinate", [
    ("1/0", "(x1-x1+1)/0"),
    ("t/0", "(x1-x1+t)/0"),
    ("10^400", "(x1-x1+10)^400"),
    ("(0-2)^0.5", "(x1-x1-2)^0.5"),
], ids=["divide-by-zero", "t-divide-by-zero", "overflow", "negative-base"])
def test_scalar_formula_parts_behave_as_on_a_coordinate(tmp_path, capsys, formula,
                                                        on_coordinate):
    # a constant or t-only part that leaves the reals, divides by zero or
    # overflows gives inf or NaN, exactly as the same part on a coordinate
    for command in ("check", "falsify"):
        args = ("--samples", "5", "--horizon", "0.01", "--no-timing")
        code, out, err = run_cli(capsys, command, _expression_problem(tmp_path, formula), *args)
        want = run_cli(capsys, command, _expression_problem(tmp_path, on_coordinate), *args)
        assert code != 70
        # the reports differ only in the echoed formula
        assert (code, out.replace(formula, on_coordinate), err) == want, command


@pytest.mark.parametrize("formula", ["x1/0", "1/0"])
def test_sampled_check_names_the_point_where_the_field_is_not_finite(tmp_path, capsys,
                                                                     formula):
    code, out, err = run_cli(capsys, "check", _expression_problem(tmp_path, formula),
                             "--samples", "5", "--no-timing")
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "input error: the field is not finite at boundary point [1.0]\n"


@pytest.mark.parametrize("formula", ["x1/0", "1/0"])
def test_falsify_on_a_non_finite_field_is_an_input_error(tmp_path, capsys, formula):
    # the field is inf at every start, so no trajectory could be followed:
    # an input error, not "no exit found"
    code, out, err = run_cli(capsys, "falsify", _expression_problem(tmp_path, formula),
                             "--samples", "5", "--horizon", "0.01", "--no-timing")
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "input error: the field is not finite at start [1.0]\n"


@pytest.mark.parametrize("terms", [250, 990, 3000],
                         ids=["past-the-cap", "compile-recursion", "parse-recursion"])
def test_deep_formula_exits_64(tmp_path, capsys, terms):
    # a sum of many terms nests one level per "+": past 200 levels it is an
    # input error, whether Python's parser, the compiler or the nesting cap
    # sees it first
    code, _, err = run_cli(capsys, "check",
                           _expression_problem(tmp_path, "+".join(["x1"] * terms)),
                           "--samples", "5", "--no-timing")
    assert code == EXIT_INPUT
    assert "nests" in err


def test_far_facet_refuted(tmp_path, capsys):
    # 1e-7 x1 <= 1 is the line x1 = 1e7, where the flux of x1' = x2 is
    # unbounded: an on-facet witness with positive flux refutes
    f = tmp_path / "far.json"
    f.write_text(json.dumps({"schema": "nagumo/1",
                             "set": {"type": "hpolyhedron", "G": [[1e-7, 0.0]], "b": [1.0]},
                             "system": {"type": "linear", "A": [[0, 1], [0, 0]]}}),
                 encoding="utf-8")
    code, out, _ = run_cli(capsys, "check", str(f), "--no-timing")
    assert code == EXIT_NOT_INVARIANT
    report = json.loads(out)
    x = report["counterexample"]["point"]
    assert x[0] == pytest.approx(1e7)
    assert report["counterexample"]["violation"] == pytest.approx(1e-7 * x[1])
    assert report["counterexample"]["violation"] > 0.0


@pytest.mark.parametrize("family, generators, formula, name", [
    ("vpolytope", "vertices", "1/(x1+1)", "vertex 0 [-1.0]"),
    ("vcone", "rays", "1/(x1-1)", "ray 1 [1.0]"),
])
def test_decomposition_names_the_generator_where_the_field_is_not_finite(
        tmp_path, capsys, family, generators, formula, name):
    f = tmp_path / "field.json"
    f.write_text(json.dumps({"schema": "nagumo/1",
                             "set": {"type": family, generators: [[-1.0], [1.0]]},
                             "system": {"type": "expression", "formulas": [formula]}}),
                 encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(f), "--samples", "5", "--no-timing")
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"input error: the field is not finite at {name}\n"
