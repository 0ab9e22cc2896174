"""The input rules of numerics, reached from the library and from the CLI.

Every number, vector, matrix and dimension rule lives once, in numerics;
the CLI passes the JSON fields to the same library calls, so one bad value
gives an InputError in the library and exit 64 on the command line, and
both name the field.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from invarcheck import numerics
from invarcheck.checkers import check
from invarcheck.cli import EXIT_INPUT, main
from invarcheck.dynamics import falsify
from invarcheck.errors import DimensionMismatch, InputError
from invarcheck.expressions import build_expression_system
from invarcheck.numerics import (_check_grid, _check_int, _check_real, as_matrix, as_square,
                                 as_vector)
from invarcheck.sets import HPolyhedron, LorenzCone
from invarcheck.systems import LinearSystem

_G = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
_BOX = HPolyhedron(_G, [1.0] * 4)
_DECAY = LinearSystem(-np.eye(2))


def _problem(set_=None, system=None, options=None):
    """The box under x' = -x as a problem file, with set, system or options replaced."""
    return {"schema": "nagumo/1",
            "set": set_ or {"type": "hpolyhedron", "G": _G, "b": [1, 1, 1, 1]},
            "system": system or {"type": "linear", "A": [[-1, 0], [0, -1]]},
            **({} if options is None else {"options": options})}


def _run(tmp_path, capsys, command, problem):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(problem), encoding="utf-8")
    code = main([command, str(f), "--no-timing"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# id -> (library call, its message's start, CLI command, problem file, the CLI line's start)
_BAD_VALUES = {
    "tol a": (lambda: check(_BOX, _DECAY, tol="a"), "tol: expected a number, got str",
              "check", _problem(options={"tolerance": "a"}),
              "options.tolerance: expected a number, got str"),
    "tol True": (lambda: check(_BOX, _DECAY, tol=True), "tol: expected a number, got bool",
                 "check", _problem(options={"tolerance": True}),
                 "options.tolerance: expected a number, got bool"),
    "t0 True": (lambda: check(_BOX, _DECAY, t0=True), "t0: expected a number, got bool",
                "check", _problem(options={"t0": True}),
                "options.t0: expected a number, got bool"),
    "step '1'": (lambda: falsify(_BOX, _DECAY, 10, 1.0, "1", 0),
                 "step: expected a number, got str",
                 "falsify", _problem(options={"step": "1"}),
                 "options.step: expected a number, got str"),
    "ragged G": (lambda: HPolyhedron([[1, 0], [1]], [1, 1]), "G[1]: shape (1,) != (2,)",
                 "check", _problem({"type": "hpolyhedron", "G": [[1, 0], [1]], "b": [1, 1]}),
                 "set.G[1]: shape (1,) != (2,)"),
    "string b": (lambda: HPolyhedron(_G, ["1", "1", "1", "1"]),
                 "b[0]: expected a number, got str",
                 "check", _problem({"type": "hpolyhedron", "G": _G, "b": ["1", "1", "1", "1"]}),
                 "set.b[0]: expected a number, got str"),
    "bool b": (lambda: HPolyhedron(_G, [True, 1, 1, 1]), "b[0]: expected a number, got bool",
               "check", _problem({"type": "hpolyhedron", "G": _G, "b": [True, 1, 1, 1]}),
               "set.b[0]: expected a number, got bool"),
    "400-digit G": (lambda: HPolyhedron([[10**400, 0]] + _G[1:], [1] * 4),
                    "G: contains an integer beyond the float range",
                    "check", _problem({"type": "hpolyhedron", "G": [[10**400, 0]] + _G[1:],
                                       "b": [1] * 4}),
                    "set.G: contains an integer beyond the float range"),
    "400-digit tol": (lambda: check(_BOX, _DECAY, tol=10**400),
                      "tol: expected a finite number, got an integer beyond the float range",
                      "check", _problem(options={"tolerance": 10**400}),
                      "options.tolerance: expected a finite number, got an integer beyond"),
    "formulas a string": (lambda: build_expression_system("-x1"),
                          "formulas: expected an array of strings",
                          "check", _problem(system={"type": "expression", "formulas": "-x1"}),
                          "system.formulas: expected an array of strings"),
    "u_n of the wrong size": (lambda: LorenzCone([[1, 0], [0, -1]], [0, 0, 1]),
                              "u_n: expected dimension 2, got 3",
                              "check", _problem({"type": "lorenz", "Q": [[1, 0], [0, -1]],
                                                 "u_n": [0, 0, 1]}),
                              "set.u_n: expected dimension 2, got 3"),
    "A of the wrong size": (lambda: check(_BOX, LinearSystem(-np.eye(3))),
                            "A: system dimension does not match the set",
                            "check",
                            _problem(system={"type": "linear", "A": (-np.eye(3)).tolist()}),
                            "system.A: system dimension does not match the set"),
}


@pytest.mark.parametrize("case", _BAD_VALUES)
def test_bad_value_is_an_input_error_in_the_library_and_exit_64_on_the_cli(
        tmp_path, capsys, case):
    call, library_line, command, problem, cli_line = _BAD_VALUES[case]
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value).startswith(library_line)
    code, out, err_text = _run(tmp_path, capsys, command, problem)
    assert (code, out) == (EXIT_INPUT, "")
    assert err_text.startswith(f"input error: {cli_line}"), err_text
    assert err_text.count("\n") == 1


@pytest.mark.parametrize("problem, line", [
    (_problem({"type": "hpolyhedron", "b": [1, 1]}),
     "set.G: expected an array of numbers, got NoneType"),
    (_problem({"type": "hpolyhedron", "G": {"a": 1}, "b": [1]}),
     "set.G: expected an array of numbers, got dict"),
    (_problem({"type": "hpolyhedron", "G": [[1, None]], "b": [1]}),
     "set.G[0][1]: expected a number, got NoneType"),
    (_problem({"type": "hpolyhedron", "G": [[]], "b": [1]}),
     "set.G: expected a non-empty array of numbers"),
    (_problem({"type": "vpolytope", "vertices": [[]]}),
     "set.vertices: expected a non-empty array of numbers"),
    (_problem({"type": "vpolytope", "vertices": [0, 1]}),
     "set.vertices: expected a 2-D array, got shape (2,)"),
    (_problem({"type": "ellipsoid", "Q": []}), "set.Q: expected a 2-D array, got shape (0,)"),
    (_problem({"type": "lorenz", "Q": [[1, 0], [0, -1]], "u_n": ["0", "1"]}),
     "set.u_n[0]: expected a number, got str"),
    (_problem(system={"type": "linear"}), "system.A: expected an array of numbers, got NoneType"),
    (_problem(system={"type": "linear", "A": [[]]}),
     "system.A: expected a square matrix, got shape (1, 0)"),
    (_problem(system={"type": "linear", "A": [[-1, 0], [0, 1e999]]}),
     "system.A: contains non-finite entries"),
    (_problem(options={"horizon": "10"}), "options.horizon: expected a number, got str"),
    (_problem(options={"seed": True}), "options.seed: expected a nonnegative integer, got True"),
], ids=["no G", "G an object", "None in G", "G [[]]", "vertices [[]]", "vertices a vector",
        "Q []", "string u_n", "no A", "A [[]]", "infinite A", "string horizon", "boolean seed"])
def test_values_the_cli_rejected_are_still_rejected(tmp_path, capsys, problem, line):
    # each was refused by the CLI's own JSON validators, which are gone
    code, out, err = _run(tmp_path, capsys, "check", problem)
    assert (code, out, err) == (EXIT_INPUT, "", f"input error: {line}\n")


@pytest.mark.parametrize("depth", [70, 500])
def test_a_matrix_nested_too_deep_is_exit_64(tmp_path, capsys, depth):
    # the walk stops at a matrix's two levels, before numpy's dimension
    # limit or the recursion limit is reached
    g = 1.0
    for _ in range(depth):
        g = [g]
    code, out, err = _run(tmp_path, capsys, "check",
                          _problem({"type": "hpolyhedron", "G": g, "b": [1]}))
    assert (code, out, err) == (EXIT_INPUT, "", "input error: set.G[0][0]: expected a number, "
                                                "got list\n")


def test_tangent_point_goes_through_the_same_rule(capsys):
    box = str(Path(__file__).resolve().parent.parent / "problems" / "hpolyhedron_box.json")
    for point, line in (('[1, "0"]', "point[1]: expected a number, got str"),
                        ('[true, 0]', "point[0]: expected a number, got bool"),
                        ('{"x": 1}', "point: expected an array of numbers, got dict")):
        assert main(["tangent", box, point]) == EXIT_INPUT
        assert capsys.readouterr().err == f"input error: {line}\n"


@pytest.mark.parametrize("rule", [as_matrix, as_square])
@pytest.mark.parametrize("value, message", [
    ([[1.0, True]], "M[0][1]: expected a number, got bool"),
    ([[1.0, "2"]], "M[0][1]: expected a number, got str"),
    ([[1.0, None]], "M[0][1]: expected a number, got NoneType"),
    (np.array([[1.0, "x"]], dtype=object), "M[0][1]: expected a number, got str"),
    (np.array([[True, False]]), "M[0][0]: expected a number, got bool"),
    (np.array([[1 + 2j]]), "M[0][0]: expected a number, got complex128"),
    ([[1.0, 2.0], [3.0]], "M[1]: shape (1,) != (2,)"),
    ([[1.0, 2.0], 3.0], "M[1]: shape () != (2,)"),
    ([[[1.0]]], "M[0][0]: expected a number, got list"),
    ("12", "M: expected an array of numbers, got str"),
    (None, "M: expected an array of numbers, got NoneType"),
    (np.array(None, dtype=object), "M: expected a number, got NoneType"),
], ids=["bool", "string", "None", "object array", "bool array", "complex array", "ragged",
        "row and number", "nested", "string", "None", "0-d object array"])
def test_matrix_rules_name_the_first_bad_entry(rule, value, message):
    with pytest.raises(InputError) as err:
        rule(value, "M")
    assert str(err.value) == message


def test_vector_rule_takes_numbers_of_every_real_kind_and_refuses_the_rest():
    got = as_vector([1, 2.5, np.float32(3.0), np.int64(4), np.float64(5.0)], "v")
    assert got.dtype == float and got.tolist() == [1.0, 2.5, 3.0, 4.0, 5.0]
    for bad in ([True, 1.0], [np.bool_(True)], ["1"], [[1.0]]):
        with pytest.raises(InputError):
            as_vector(bad, "v")
    with pytest.raises(InputError, match="^v: expected a non-empty array of numbers$"):
        as_vector([], "v", nonempty=True)
    assert as_vector([], "v").shape == (0,)


def test_a_float_array_passes_with_a_dtype_check_and_no_copy():
    # the deciders call the shape rules on float arrays: no walk, no copy
    a = np.arange(12.0).reshape(3, 4)
    row = a[0]
    assert as_matrix(a, "a") is a
    assert as_vector(row, "a") is row
    assert as_matrix(np.arange(4).reshape(2, 2), "a").dtype == float


@pytest.mark.parametrize("rule, good, expect", [
    (lambda v: _check_real(v, "tol", nonnegative=True), 1, 1.0),
    (lambda v: _check_real(v, "t0"), np.float32(2.0), 2.0),
    (lambda v: _check_grid(v, 10, "step", "horizon"), 1, (1.0, 10.0)),
    (lambda v: _check_int(v, "seed", 0), np.int64(3), np.int64(3)),
    (lambda v: _check_int(v, "n", 1), 7, 7),
], ids=["tol", "t0", "step", "seed", "count"])
def test_number_rules_return_what_the_report_echoes_and_refuse_bools_and_strings(
        rule, good, expect):
    got = rule(good)
    assert got == expect and type(got) is type(expect)
    for bad in (True, "1", None, [1.0]):
        with pytest.raises(InputError):
            rule(bad)


@pytest.mark.parametrize("formulas", [5, None, [1], ["-x1", None], {"f": "-x1"}])
def test_formulas_are_a_list_of_strings(formulas):
    with pytest.raises(InputError, match="^formulas: expected an array of strings$"):
        build_expression_system(formulas)


def test_formula_errors_name_the_formula(tmp_path, capsys):
    with pytest.raises(InputError, match=r"^formulas\[1\]: malformed formula 'x1 \+'$"):
        build_expression_system(["-x1", "x1 +"])
    with pytest.raises(InputError, match="^formulas: expected at least one formula$"):
        build_expression_system([])
    code, out, err = _run(tmp_path, capsys, "check",
                          _problem(system={"type": "expression", "formulas": ["-x1", "x1 +"]}))
    assert (code, out, err) == (EXIT_INPUT, "", "input error: system.formulas[1]: "
                                                "malformed formula 'x1 +'\n")


@pytest.mark.parametrize("shape", [(2,), (2, 5), (4, 5)])
def test_a_state_needs_one_row_per_formula(shape):
    field = build_expression_system(["-x1", "-x2", "-x3"]).field
    with pytest.raises(DimensionMismatch, match=r"^x: expected 3 rows, one per formula"):
        field(0.0, np.zeros(shape))
    assert field(0.0, np.ones(3)).tolist() == [-1.0, -1.0, -1.0]


def _polygon(m):
    """The regular m-gon around the origin as m halfspace rows."""
    angles = 2.0 * np.pi * np.arange(m) / m
    return HPolyhedron(np.column_stack([np.cos(angles), np.sin(angles)]), np.ones(m))


def test_a_linear_check_checks_its_inputs_once_whatever_the_facet_count(monkeypatch):
    # the facet LPs take the package's own arrays: only the entries call the
    # array rules, so their count does not grow with the rows
    rule, counts = numerics._as_array, {}
    for m in (4, 24):
        s, calls = _polygon(m), []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return rule(*args, **kwargs)

        monkeypatch.setattr(numerics, "_as_array", counted)
        v = check(s, _DECAY)
        monkeypatch.undo()
        assert v.decision.value == "invariant" and len(v.certificate.data["facets"]) == m
        counts[m] = calls
    assert counts[4] == counts[24]
