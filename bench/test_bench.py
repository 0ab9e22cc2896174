"""Tests of the benchmark itself: seeded generation, tracer completeness,
oracle sensitivity. Run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import collections
import cProfile
import pstats
import types

import numpy as np
import pytest

import oracles
import run
import workloads
from tracer import FIELD, LAYERS, Tracer

IC, CLI = run._import_program()


def _mix(instances):
    return collections.Counter((i["workload"], i["family"], i["n"], i["expect"], i["op"],
                                i.get("system_kind", "linear"), i.get("file"))
                               for i in instances)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_instances(workload):
    a = workloads.generate(workload, 7, 2)
    b = workloads.generate(workload, 7, 2)
    assert [workloads.instance_bytes(i) for i in a] == [workloads.instance_bytes(i) for i in b]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_second_seed_keeps_family_size_and_verdict_mix(workload):
    a = workloads.generate(workload, 7, 1)
    b = workloads.generate(workload, 8, 1)
    assert _mix(a) == _mix(b)
    assert len(a) == workloads.round_size(workload)
    assert [workloads.instance_bytes(i) for i in a] != [workloads.instance_bytes(i) for i in b]
    assert {i["expect"] for i in a} == {"invariant", "not_invariant"}


def _small_ops(workload, tmp_path):
    """A few small ops of the workload covering each of its deciders."""
    rng = np.random.default_rng(3)
    if workload == "exact-lp":
        ops = [workloads.hpoly_random(rng, 4, False), workloads.linf_ball(rng, 4, True),
               workloads.cross_polytope(rng, 4, True), workloads.vcone_redundant(rng, 4, False)]
    elif workload == "exact-quadratic":
        ops = [workloads.ellipsoid(rng, 4, True), workloads.ellipsoid(rng, 4, False),
               workloads.lorenz(rng, 4, True), workloads.lorenz(rng, 4, False)]
    else:
        ops = [workloads.probe_instance(rng, "vcone-redundant", 3, "radial-in", "falsify"),
               workloads.probe_instance(rng, "vpolytope-cross", 2, "radial-out", "check"),
               workloads.probe_instance(rng, "hpolyhedron", 2, "linear-", "check"),
               workloads.probe_instance(rng, "orthant", 2, "radial-in", "check")]
        workloads.write_problems(ops, str(tmp_path), str(run.PROBLEMS))
    return ops


def _originals():
    out = {}
    for mod, fns in LAYERS.items():
        module = getattr(IC, mod)
        for fn in fns:
            out[f"{mod}.{fn}"] = getattr(module, fn).__code__
    build = IC.expressions.build_expression_system.__code__
    out[FIELD] = next(c for c in build.co_consts
                      if isinstance(c, types.CodeType) and c.co_name == "func")
    return out


def _labels(ops):
    out = []
    for inst in ops:
        raw, err = run.run_op(IC, CLI, inst)
        label, problems, text = run.judge(inst, raw, err)
        assert not problems, problems
        out.append((label, text))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracer_counts_equal_cprofile_and_verdicts_are_unchanged(workload, tmp_path):
    ops = _small_ops(workload, tmp_path)
    codes = _originals()
    untraced = _labels(ops)
    tracer = Tracer()
    prof = cProfile.Profile()
    with tracer:
        prof.enable()
        traced = _labels(ops)
        prof.disable()
    assert traced == untraced
    assert _originals() == codes  # uninstall restored every binding
    stats = pstats.Stats(prof).stats
    for name, code in codes.items():
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        profiled = stats[key][1] if key in stats else 0
        assert tracer.stats[name][0] == profiled, name
    layer = {"exact-lp": "solvers.simplex_standard",
             "exact-quadratic": "numerics.minimize_scalar_convex",
             "probe": "sets.membership"}[workload]
    assert tracer.stats[layer][0] > 0


def test_oracles_reject_wrong_outputs():
    rng = np.random.default_rng(5)
    inst = workloads.ellipsoid(rng, 4, False)
    raw, err = run.run_op(IC, CLI, inst)
    result, _, _ = run.normalise(inst, raw)
    assert oracles.judge(inst, result) == []
    moved = dict(result, counterexample={"point": [1.1 * v for v in result["counterexample"]["point"]]})
    assert oracles.judge(inst, moved)
    assert oracles.judge(inst, dict(result, decision="invariant", certificate=None))
    inv = workloads.lorenz(rng, 4, True)
    raw, err = run.run_op(IC, CLI, inv)
    result, _, _ = run.normalise(inv, raw)
    assert oracles.judge(inv, result) == []
    bad = {"kind": "cone-pencil", "data": dict(result["certificate"]["data"], eta=1e3)}
    assert oracles.judge(inv, dict(result, certificate=bad))


def test_timed_pass_reports_each_pool_op_once(tmp_path):
    pool = _small_ops("exact-lp", tmp_path)
    records, raw, passes = run.timed_passes(IC, CLI, pool, seconds=0.0, min_passes=2)
    assert passes == 2 and len(raw) == 2 * len(pool)
    assert [r[0] for r in records] == list(range(len(pool)))
    assert all(r[1] > 0 and not r[3] for r in records)
