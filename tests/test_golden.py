"""Reports on the shipped problems, byte for byte against tests/golden/.

Each problem has a `check --no-timing` report (<name>.check.json) and a
`falsify --no-timing --samples 200 --horizon 1` report
(<name>.falsify.json), and the run exits with the code its report
implies. After a change that moves a report on purpose, regenerate the
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
}
CASES = [(p.stem, cmd) for p in sorted((ROOT / "problems").glob("*.json")) for cmd in COMMANDS]
DECISION_EXIT = {"invariant": 0, "not_invariant": 1, "unknown": 2}


@pytest.mark.parametrize("name,command", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_report_matches_golden(name, command, capsys):
    code = main([command, str(ROOT / "problems" / f"{name}.json"), *COMMANDS[command]])
    out = capsys.readouterr().out
    golden = (GOLDEN / f"{name}.{command}.json").read_text(encoding="utf-8")
    assert out == golden
    report = json.loads(golden)
    assert code == (DECISION_EXIT[report["decision"]] if command == "check"
                    else int(report["exit_found"]))


def test_every_problem_has_golden_reports():
    assert len(CASES) == 14
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(
        f"{n}.{c}.json" for n, c in CASES)
