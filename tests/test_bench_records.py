"""The committed benchmark records (BENCH_<n>.json at the repository root)
hold only correct, failure-free runs of bench/run.py."""

import json
from pathlib import Path

import pytest

RECORDS = sorted((Path(__file__).resolve().parent.parent).glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_run_correct_without_failures(path):
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    assert runs
    for run in runs:
        where = f"{run['tree']} {run['workload']} seed {run['seed']}"
        assert run["result"]["correct"] is True, where
        assert run["result"]["failed"] == 0, where
