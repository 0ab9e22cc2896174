"""Reports on the shipped problems, byte for byte against tests/golden/.

Each problem has a `check --no-timing` report (<name>.check.json), a
`falsify --no-timing --samples 200 --horizon 1` report
(<name>.falsify.json) and a `tangent --no-timing` report at the boundary
point POINTS[name] (<name>.tangent.json), and the run exits with the code
its report implies. After a change that moves a report on purpose, regenerate the
files with the same commands and say why in CHANGES.md. The tests run the
importable invarcheck, so run from outside the checkout they test an
installed package.
"""

import json
from pathlib import Path

import pytest

from invarcheck.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
COMMANDS = {
    "check": ["--no-timing"],
    "falsify": ["--no-timing", "--samples", "200", "--horizon", "1"],
    "tangent": ["--no-timing"],
}
POINTS = {  # a corner, a vertex or an apex where the problem has one
    "ellipsoid_rotation": "[1.0, 0.0]",
    "expression_cubic_decay": "[0.0, 1.0]",
    "hpolyhedron_box": "[1.0, 1.0]",
    "lorenz_expanding": "[0.0, 0.0, 0.0]",
    "orthant_unstable": "[0.0, 1.0]",
    "vcone_exchange": "[2.0, 0.0]",
    "vpolytope_triangle": "[0.0, 0.0]",
}
CASES = [(p.stem, cmd) for p in sorted((ROOT / "problems").glob("*.json")) for cmd in COMMANDS]
DECISION_EXIT = {"invariant": 0, "not_invariant": 1, "unknown": 2}


@pytest.mark.parametrize("name,command", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_report_matches_golden(name, command, capsys):
    point = [POINTS[name]] if command == "tangent" else []
    code = main([command, str(ROOT / "problems" / f"{name}.json"), *COMMANDS[command], *point])
    out = capsys.readouterr().out
    golden = (GOLDEN / f"{name}.{command}.json").read_text(encoding="utf-8")
    assert out == golden
    report = json.loads(golden)
    if command == "check":
        assert code == DECISION_EXIT[report["decision"]]
    else:  # a tangent report exits 0, like a falsify run that finds no exit
        assert code == int(report.get("exit_found", False))


def test_every_problem_has_golden_reports():
    assert len(CASES) == 21 and sorted(POINTS) == sorted({n for n, _ in CASES})
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(
        f"{n}.{c}.json" for n, c in CASES)
