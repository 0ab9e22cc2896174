#!/usr/bin/env python3
"""invarcheck benchmark: one workload, one seed, closed loop, oracle-checked.

    python3 bench/run.py --workload exact-lp --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The workload's instances are generated from ``--seed`` (see
``workloads.py``) and run in a closed loop: one process, one caller, one op
at a time, with the BLAS thread pool capped at the CPU count. Every op's
output is re-checked by the numpy oracles in ``oracles.py``.

``--trace 0`` runs a fixed pool of ``POOL_ROUNDS`` rounds of the stream
with tracing off, in passes, until ``--seconds`` are used up (at least one
pass). Each op is timed next to a yardstick, a fixed amount of work outside
the program, and its wall time is scaled by the yardstick's nominal over
its measured time, so that the host's changing speed drops out (see
``yardstick``); an op's latency is the median of its scaled times over the
passes. The end-to-end metrics:

- ``setup_s``: import, instance generation (and problem files for
  ``probe``) and one warm-up op, timed from interpreter start and scaled
  by the yardsticks run beside it; the median of ``SETUP_REPEATS`` fresh
  interpreters, spread over the first pass;
- ``ops_per_s``: pool ops over the sum of their latencies (oracle checks
  and yardsticks excluded);
- ``latency_p50_ms``, ``latency_p90_ms``: percentiles of the pool ops'
  latencies;
- ``peak_rss_mb``: peak resident memory of this process.

The unscaled wall-time figures are printed on a text line. ``attempted``
counts the pool's ops and ``failed`` those that failed on any pass, so
both depend only on the seed.

``error_rate`` (the JSON's ``failed`` over ``attempted``) and
``unknown_rate`` are printed too, with digests of the first round's
verdicts and reports. An op fails when it raises, exits with code 64, 65,
70 or an undocumented code, or gives an output the oracles reject;
``correct`` is false only for the last kind.

``--trace 1`` runs the first round three times (untraced, traced,
untraced) and reports the per-layer metrics of ``tracer.py`` (so counts
depend only on the seed), per-module self-time shares and per-family p50
wall latency by n.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from interpreter start, imports included

import os  # noqa: E402

_THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _THREADS  # must precede the first numpy import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PROBLEMS = ROOT / "problems"

MIN_PASSES = 1          # every op is timed at least this many times
SETUP_REPEATS = 7       # set-up is timed this many times, each in a fresh interpreter
# rounds in a pool; every pool has at least 100 ops, so at least ten lie beyond p90
POOL_ROUNDS = {"exact-lp": 6, "exact-quadratic": 4, "probe": 3}
DOCUMENTED_EXITS = {0, 1, 2, 64, 65, 70}
EXIT_DECISION = {0: "invariant", 1: "not_invariant", 2: "unknown"}


def _fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "invarcheck" / "__init__.py").is_file() or not PROBLEMS.is_dir():
        _fail(f"no invarcheck source tree under {ROOT}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import invarcheck
    from invarcheck import cli

    if Path(invarcheck.__file__).resolve().parent != SRC / "invarcheck":
        _fail(f"imported invarcheck from {invarcheck.__file__}, not from {SRC}")
    return invarcheck, cli


# ------------------------------------------------------------------- ops

def _build_set(ic, d):
    kind = d["type"]
    if kind == "hpolyhedron":
        return ic.HPolyhedron(d["G"], d["b"])
    if kind == "vpolytope":
        return ic.VPolytope(d["vertices"])
    if kind == "vcone":
        return ic.VCone(d["rays"])
    if kind == "ellipsoid":
        return ic.Ellipsoid(d["Q"])
    if kind == "lorenz":
        return ic.LorenzCone(d["Q"], u_n=d["u_n"])
    raise ValueError(kind)


def run_op(ic, cli, inst):
    """Run one op; returns (raw output, None) or (None, error text).

    Library ops return the Verdict; probe ops return (exit code, stdout).
    """
    try:
        if inst["workload"] == "probe":
            argv = [inst["op"], inst["path"], "--no-timing"]
            if inst.get("file"):
                argv += workloads.PROBE_FLAGS
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return (code, out.getvalue()), None
        s = _build_set(ic, inst["set"])
        return ic.check(s, ic.LinearSystem(inst["system"]["A"])), None
    except Exception as exc:  # an op that raises is a failed op, never a crashed run
        return None, f"{type(exc).__name__}: {exc}"


def normalise(inst, raw):
    """(result dict for the oracle, decision label, digest text) or raises ValueError."""
    if inst["workload"] != "probe":
        result = {"decision": raw.decision.value,
                  "certificate": None if raw.certificate is None else
                  {"kind": raw.certificate.kind, "data": raw.certificate.data},
                  "counterexample": None if raw.counterexample is None else
                  {"point": [float(x) for x in raw.counterexample.point]}}
        return result, result["decision"], result["decision"]
    code, text = raw
    if code not in DOCUMENTED_EXITS:
        raise ValueError(f"undocumented exit code {code}")
    if code in (64, 65, 70):
        raise ValueError(f"exit code {code} on a valid problem")
    report = json.loads(text)
    if inst["op"] == "falsify":
        result = {"exit_found": report["exit_found"], "witness": report["witness"],
                  "step": report["options"]["step"]}
        label = "exit" if report["exit_found"] else "no_exit"
        if (code == 1) != report["exit_found"]:
            raise ValueError("exit code disagrees with the report")
    else:
        result = report
        label = report["decision"]
        if EXIT_DECISION.get(code) != label:
            raise ValueError("exit code disagrees with the report")
    return result, label, f"{code}\n{text}"


def judge(inst, raw, err):
    """(decision label or None, problems, digest text) for one op's output."""
    if err is not None:
        return None, [err], ""
    try:
        result, label, text = normalise(inst, raw)
        problems = oracles.judge(inst, result)
    except (ValueError, KeyError, TypeError) as exc:
        return None, [f"unreadable output: {exc}"], ""
    return label, [f"wrong output: {p}" for p in problems], text


def closed_loop(ic, cli, pool, count):
    """Run the first ``count`` ops of the pool back to back, once each.

    Returns records (pool index, latency, label, problems, digest text).
    """
    records = []
    clock = time.perf_counter
    for idx in range(count):
        t0 = clock()
        raw, err = run_op(ic, cli, pool[idx])
        latency = clock() - t0
        label, problems, text = judge(pool[idx], raw, err)
        records.append((idx, latency, label, problems, text))
    return records


def timed_passes(ic, cli, pool, seconds, min_passes, between=None):
    """Run the whole pool in passes until ``seconds`` are used up.

    Passes run while fewer than ``min_passes`` are done or the next pass is
    expected to end within ``seconds``; ``between`` runs after each op,
    outside its timed region.
    A yardstick runs before every op, and every op is judged on every pass.
    Returns one record per pool op: (pool index, median over the passes of
    its scaled latency, label, problems, digest text), with the first
    pass's output, or the first failing one, so ``attempted`` and
    ``failed`` depend only on the seed; then the raw records (pool index,
    wall latency) and the number of passes.
    """
    first = [None] * len(pool)
    timeline = []  # (pool index, wall latency, yardstick seconds)
    clock = time.perf_counter
    start = clock()
    passes = 0
    while passes < min_passes or (clock() - start) * (passes + 1) / passes <= seconds:
        for idx, inst in enumerate(pool):
            yard = yardstick()
            t0 = clock()
            raw, err = run_op(ic, cli, inst)
            latency = clock() - t0
            timeline.append((idx, latency, yard))
            label, problems, text = judge(inst, raw, err)
            if first[idx] is None or (problems and not first[idx][1]):
                first[idx] = (label, problems, text)
            if between is not None:
                between()
        passes += 1
    scaled = [[] for _ in pool]
    for (idx, latency, _), speed in zip(timeline, _local_yardstick([y for _, _, y in timeline])):
        scaled[idx].append(latency * YARDSTICK_REF_S / speed)
    records = [(idx, statistics.median(scaled[idx]), *first[idx]) for idx in range(len(pool))]
    return records, [(idx, latency) for idx, latency, _ in timeline], passes


# ------------------------------------------------------------- yardstick
#
# The host's speed changes by up to 2x over seconds to minutes, as other
# machines load the cores and caches it shares, and a slow stretch can
# outlast a whole run. So every op is timed next to a yardstick: a fixed
# amount of the two kinds of work the program's time goes to, small-array
# numpy calls (pivot-like rank-one updates and argmax) and plain interpreter
# work, which no change to the program can touch. Reported times are wall
# times scaled by YARDSTICK_REF_S over the yardstick's time measured beside
# them, that is, times on a nominal machine on which the yardstick takes
# YARDSTICK_REF_S. The raw wall-time figures are printed as well.

YARDSTICK_REF_S = 1.0e-3   # a quiet 2-vCPU Xeon at 2.0 GHz takes 0.8-0.9 ms
YARDSTICK_WINDOW = 9       # yardsticks in the running median beside an op
_YARD_M = np.random.default_rng(0).normal(size=(12, 12))


def yardstick():
    """Seconds taken by a fixed amount of numpy-call and interpreter work."""
    t0 = time.perf_counter()
    x = _YARD_M.copy()
    for i in range(75):
        j = i % 12
        x = x - np.outer(x[:, j], x[j]) / (x[j, j] + 20.0)
        int(np.argmax(np.abs(x[j])))
    total = 0
    seen = {}
    for i in range(3000):
        total += i * i % 7
        seen[i % 13] = total
    return time.perf_counter() - t0


def _local_yardstick(yards):
    """Running median of the yardstick times, centred on each entry."""
    half = YARDSTICK_WINDOW // 2
    return [statistics.median(yards[max(0, k - half):k + half + 1]) for k in range(len(yards))]


# --------------------------------------------------------------- set-up

def setup(workload, seed, workdir):
    """Import, generate the pool (writing probe files), one warm-up op."""
    ic, cli = _import_program()
    pool = workloads.generate(workload, seed, POOL_ROUNDS[workload])
    warm = workloads.warmup_instance(workload, seed)
    if workload == "probe":
        workloads.write_problems(pool + [warm], workdir, str(PROBLEMS))
    _, err = run_op(ic, cli, warm)
    if err is not None:
        _fail(f"warm-up op failed: {err}")
    return ic, cli, pool


def setup_once(workload, seed):
    """Set-up time of one fresh interpreter (import cost included), raw and
    scaled by the yardsticks run just before and after it."""
    yards = [yardstick() for _ in range(YARDSTICK_WINDOW // 2)]
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        _fail(f"set-up run failed: {proc.stderr.strip()[-500:]}")
    yards += [yardstick() for _ in range(YARDSTICK_WINDOW // 2)]
    raw = float(proc.stdout.strip().splitlines()[-1])
    return raw, raw * YARDSTICK_REF_S / statistics.median(yards)


# -------------------------------------------------------------- reports

def _digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _summarise(pool, judged, round_len):
    attempted = len(judged)
    failed = sum(1 for _, _, label, problems, _ in judged if problems)
    wrong = [p for _, _, _, problems, _ in judged for p in problems if p.startswith("wrong output")]
    linear_checks = [label for idx, _, label, _, _ in judged
                     if pool[idx]["op"] == "check" and pool[idx].get("system_kind", "linear") == "linear"]
    unknown = sum(1 for label in linear_checks if label == "unknown")
    first = sorted({idx: (label, text) for idx, _, label, _, text in judged
                    if idx < round_len}.items())
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "error_rate": failed / attempted,
        "unknown_rate": unknown / len(linear_checks) if linear_checks else 0.0,
        "linear_checks": len(linear_checks),
        "verdict_digest": _digest(f"{i}:{lab}" for i, (lab, _) in first),
        "report_digest": _digest(text for _, (_, text) in first),
        "failures": sorted({f"{pool[idx]['family']} n={pool[idx]['n']} "
                            f"{pool[idx]['expect']}: {problems[0][:120]}"
                            for idx, _, _, problems, _ in judged if problems}),
    }


def _scaling(pool, judged):
    cells = {}
    for idx, latency, _, _, _ in judged:
        inst = pool[idx]
        cells.setdefault((inst["family"], inst["n"]), []).append(latency)
    return {f"{fam} n={n}": statistics.median(v) * 1e3 for (fam, n), v in sorted(cells.items())}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=str(ROOT)) as workdir:
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            print(repr(time.perf_counter() - _T0))
            return 0
        ic, cli, pool = setup(args.workload, args.seed, workdir)
        round_len = workloads.round_size(args.workload)
        print(f"workload={args.workload} seed={args.seed} blas_threads={_THREADS} "
              f"loop=closed clients=1 round={round_len} ops pool={len(pool)} ops")
        if args.trace:
            return _traced(args.workload, ic, cli, pool, round_len)
        # set-up runs are spread over the first pass, so that a slow
        # stretch of the host does not land on all of them
        setup_all = []
        ops_done = itertools.count(1)
        every = max(1, len(pool) // SETUP_REPEATS)

        def one_setup():
            if next(ops_done) % every == 0 and len(setup_all) < SETUP_REPEATS:
                setup_all.append(setup_once(args.workload, args.seed))

        records, raw, passes = timed_passes(ic, cli, pool, args.seconds, MIN_PASSES, one_setup)
        while len(setup_all) < SETUP_REPEATS:
            setup_all.append(setup_once(args.workload, args.seed))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    s = _summarise(pool, records, round_len)
    lat = [latency for _, latency, _, _, _ in records]
    metrics = {
        "setup_s": (statistics.median(t for _, t in setup_all), "s"),
        "ops_per_s": (len(records) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (_percentile(lat, 90) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    wall = [latency for _, latency in raw]
    print(f"ops={len(records)} passes={passes} executions={len(wall)} busy_s={sum(wall):.3f}")
    print(f"wall (unscaled): ops_per_s={len(wall) / sum(wall):.6g} "
          f"latency_p50_ms={statistics.median(wall) * 1e3:.6g} "
          f"latency_p90_ms={_percentile(wall, 90) * 1e3:.6g} setup_runs_s="
          + ",".join(f"{t:.4f}" for t, _ in setup_all))
    for name, (value, unit) in metrics.items():
        extra = f" (n={len(lat)})" if name.startswith("latency") else ""
        print(f"metric {name} = {value:.6g} {unit}{extra}")
    print(f"metric error_rate = {s['error_rate']:.6g} fraction (failed {s['failed']} of {s['attempted']})")
    print(f"metric unknown_rate = {s['unknown_rate']:.6g} fraction "
          f"(of {s['linear_checks']} linear checks with known answers)")
    _finish(s, metrics, correct=not s["wrong"])
    return 0


def _traced(workload, ic, cli, pool, round_len):
    # untraced passes before and after the traced one, so first-run effects
    # and drift in machine speed do not masquerade as tracing overhead
    plain = closed_loop(ic, cli, pool, round_len)
    tracer = Tracer()
    with tracer:
        traced = closed_loop(ic, cli, pool, round_len)
    after = closed_loop(ic, cli, pool, round_len)
    plain_wall = 0.5 * (sum(r[1] for r in plain) + sum(r[1] for r in after))
    traced_wall = sum(r[1] for r in traced)
    s = _summarise(pool, traced, round_len)
    plain_s = _summarise(pool, plain, round_len)
    after_s = _summarise(pool, after, round_len)
    same = all((x["verdict_digest"], x["report_digest"]) == (s["verdict_digest"], s["report_digest"])
               for x in (plain_s, after_s))
    metrics = tracer.metrics(traced_wall / plain_wall - 1.0)
    print(f"ops={len(traced)} untraced_wall_s={plain_wall:.3f} traced_wall_s={traced_wall:.3f} "
          f"traced_verdicts_equal_untraced={same}")
    total_self = sum(tracer.layer_self_times().values())
    for mod, sec in sorted(tracer.layer_self_times().items(), key=lambda kv: -kv[1]):
        print(f"layer {mod} self_s={sec:.4f} share={sec / total_self if total_self else 0:.3f}")
    if workload != "probe":
        for cell, ms in _scaling(pool, plain).items():
            print(f"scaling {cell} p50_ms={ms:.3f}")
    _finish(s, metrics, correct=same and not (s["wrong"] or plain_s["wrong"] or after_s["wrong"]))
    return 0


def _finish(s, metrics, correct):
    """Digest and failure lines, then the result object as the last line."""
    print(f"digest verdicts={s['verdict_digest']} reports={s['report_digest']} (first round)")
    for line in s["failures"]:
        print(f"failure {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
