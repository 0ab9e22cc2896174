"""Reports on the shipped problems, byte for byte against tests/golden/.

Each problem has a `check --no-timing` report (<name>.check.json) and a
`falsify --no-timing --samples 200 --horizon 1` report
(<name>.falsify.json). After a change that moves a report on purpose,
regenerate the files with the same commands and say why in CHANGES.md.
"""

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


@pytest.mark.parametrize("name,command", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_report_matches_golden(name, command, capsys):
    main([command, str(ROOT / "problems" / f"{name}.json"), *COMMANDS[command]])
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.{command}.json").read_text(encoding="utf-8")


def test_every_problem_has_golden_reports():
    assert len(CASES) == 14
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(
        f"{n}.{c}.json" for n, c in CASES)
