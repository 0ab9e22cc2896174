"""Command-line interface: check, falsify, tangent, version.

Problems arrive as JSON files with a required schema field "nagumo/1", a
tagged set object, a tagged system object, and optional solver options.
Each field goes as given to the library call that reads it, so the one copy
of every type, shape, dimension and range rule (in numerics) checks it, and
an error names the field's path: set.G[1], system.A, options.step.
Reports are machine-readable JSON on stdout (deterministic modulo the
timing block, which --no-timing drops) with a human summary on stderr.

Exit codes: 0 invariant / no exit found, 1 not invariant / exit found,
2 unknown, 64 input or usage error, 65 point not on the boundary, 70
numerical failure or internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
import time
import traceback

import numpy as np

from . import __version__
from .checkers import Decision, Verdict, check
from .dynamics import falsify
from .errors import (
    EmptyBoundary,
    EmptySet,
    InputError,
    NotMember,
    ToolkitError,
)
from .expressions import build_expression_system
from .numerics import _check_grid, _check_int, _check_real, as_point, of_dimension
from .sets import DEFAULT_TOL, FAMILIES, Membership, membership
from .systems import LinearSystem
from .tangent import (
    GENERATED,
    HALFSPACES,
    QUADRATIC,
    SELF_CONE,
    tangent_cone_at,
)

SCHEMA = "nagumo/1"

EXIT_INVARIANT = 0
EXIT_NOT_INVARIANT = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 64
EXIT_NOT_BOUNDARY = 65
EXIT_NUMERIC = 70

_DECISION_EXIT = {
    Decision.INVARIANT: EXIT_INVARIANT,
    Decision.NOT_INVARIANT: EXIT_NOT_INVARIANT,
    Decision.UNKNOWN: EXIT_UNKNOWN,
}


_FIELD_PATH = re.compile(r"\w+(\[\d+\])*: ")  # a library message that starts with a field


@contextlib.contextmanager
def _at(path: str):
    """A library error while building the JSON object at path as an InputError:
    path.G[1]: ... when the message starts with the field it names, else path: ..."""
    try:
        yield
    except ToolkitError as exc:
        raise InputError(f"{path}{'.' if _FIELD_PATH.match(str(exc)) else ': '}{exc}") from exc


def set_from_dict(d: dict):
    """Build the set of a tagged JSON object, its fields as given."""
    if not isinstance(d, dict) or "type" not in d:
        raise InputError("set: expected an object with a 'type' tag")
    tag = d["type"]
    family = FAMILIES.get(tag) if isinstance(tag, str) else None
    if family is None:
        raise InputError(f"set.type: unknown tag {tag!r}")
    with _at("set"):
        return family(*(d.get(name) for name in family.FIELDS))


def set_to_dict(s) -> dict:
    """Canonical JSON form of a set: its family tag and fields (the quadratic
    cone exposes its axis sign, the orthant only its dimension)."""
    return {"type": s.TAG,
            **{name: np.asarray(getattr(s, name)).tolist() for name in s.FIELDS}}


def system_from_dict(d: dict, dim: int):
    if not isinstance(d, dict) or "type" not in d:
        raise InputError("system: expected an object with a 'type' tag")
    tag = d["type"]
    if tag == "linear":
        with _at("system"):
            sys_obj = LinearSystem(d.get("A"))
            of_dimension(sys_obj.a, dim)
        return sys_obj, {"type": "linear", "A": sys_obj.a.tolist()}
    if tag == "expression":
        formulas = d.get("formulas")
        with _at("system"):
            sys_obj = build_expression_system(formulas)
        if len(formulas) != dim:  # the tangent command never evaluates the field
            raise InputError(f"system.formulas: expected {dim} formulas, got {len(formulas)}")
        return sys_obj, {"type": "expression", "formulas": formulas}
    raise InputError(f"system.type: unknown tag {tag!r}")


_OPTION_DEFAULTS = {
    "tolerance": DEFAULT_TOL,
    "seed": 0,
    "n_samples": 10000,
    "horizon": 10.0,
    "step": 1e-3,
    "t0": 0.0,
}


def resolve_options(file_options, args) -> dict:
    """Defaults, overridden by the problem file, overridden by flags, then
    held to the library's own rules under the names options.<key>, for
    every command (falsify also caps the step count horizon / step); each
    option is kept as its rule returns it (a float, or an integer as given).
    """
    opts = dict(_OPTION_DEFAULTS)
    if file_options is not None:
        if not isinstance(file_options, dict):
            raise InputError("options: expected an object")
        for key, value in file_options.items():
            if key not in opts:
                raise InputError(f"options.{key}: unknown option")
            opts[key] = value
    for key in opts:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    opts["n_samples"] = _check_int(opts["n_samples"], "options.n_samples", 1)
    opts["seed"] = _check_int(opts["seed"], "options.seed", 0)
    opts["tolerance"] = _check_real(opts["tolerance"], "options.tolerance", nonnegative=True)
    opts["t0"] = _check_real(opts["t0"], "options.t0")
    opts["step"], opts["horizon"] = _check_grid(opts["step"], opts["horizon"],
                                                "options.step", "options.horizon")
    return opts


def load_problem(path: str, args):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise InputError("problem: expected a JSON object")
    if raw.get("schema") != SCHEMA:
        raise InputError(f"schema: expected {SCHEMA!r}, got {raw.get('schema')!r}")
    if "set" not in raw:
        raise InputError("set: missing")
    if "system" not in raw:
        raise InputError("system: missing")
    s = set_from_dict(raw["set"])
    sys_obj, sys_echo = system_from_dict(raw["system"], s.dim)
    opts = resolve_options(raw.get("options"), args)
    return s, sys_obj, sys_echo, opts


def _emit(report: dict, summary: str, args) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    if getattr(args, "output", None):  # written first: a path it cannot write prints nothing
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from exc
    print(text)
    print(summary, file=sys.stderr)


def _verdict_report(verdict: Verdict) -> dict:
    cert = None
    if verdict.certificate is not None:
        cert = {"kind": verdict.certificate.kind, "data": verdict.certificate.data}
    cx = None
    if verdict.counterexample is not None:
        cx = {"point": [float(v) for v in verdict.counterexample.point],
              "violation": float(verdict.counterexample.violation)}
    return {"decision": verdict.decision.value, "certificate": cert,
            "counterexample": cx, "notes": verdict.notes}


def _run(args, command: str, decide) -> int:
    """Load the problem and emit command's report: the problem, the options,
    the fields of decide(s, sys_obj, opts) -> (fields, summary, exit code)
    and, unless --no-timing, the timing block."""
    t_start = time.perf_counter()
    s, sys_obj, sys_echo, opts = load_problem(args.file, args)
    t_parsed = time.perf_counter()
    fields, summary, code = decide(s, sys_obj, opts)
    t_done = time.perf_counter()
    report = {"schema": SCHEMA, "tool_version": __version__, "command": command,
              "problem": {"set": set_to_dict(s), "system": sys_echo}, "options": opts, **fields}
    if not args.no_timing:
        report["timing"] = {"parse_s": t_parsed - t_start, f"{command}_s": t_done - t_parsed,
                            "total_s": t_done - t_start}
    _emit(report, summary, args)
    return code


def cmd_check(args) -> int:
    def decide(s, sys_obj, opts):
        verdict = check(s, sys_obj, t0=opts["t0"], n_samples=opts["n_samples"],
                        seed=opts["seed"], tol=opts["tolerance"])
        return (_verdict_report(verdict), f"decision: {verdict.decision.value}",
                _DECISION_EXIT[verdict.decision])
    return _run(args, "check", decide)


def cmd_falsify(args) -> int:
    def decide(s, sys_obj, opts):
        hit = falsify(s, sys_obj, n_starts=opts["n_samples"], horizon=opts["horizon"],
                      step=opts["step"], seed=opts["seed"], t0=opts["t0"], tol=opts["tolerance"])
        if hit is None:
            return {"exit_found": False, "witness": None}, "no exit found", EXIT_INVARIANT
        witness = {"x0": [float(v) for v in hit[0]], "t_exit": float(hit[1])}
        return {"exit_found": True, "witness": witness}, "exit found", EXIT_NOT_INVARIANT
    return _run(args, "falsify", decide)


def _cone_to_dict(t_cone) -> dict:
    # at a boundary point no cone is the whole space: a halfspace form binds a row
    if t_cone.kind == HALFSPACES:
        return {"kind": HALFSPACES, "normals": t_cone.normals.tolist()}
    if t_cone.kind == QUADRATIC:
        return {"kind": QUADRATIC, "normal": t_cone.normals[0].tolist()}
    if t_cone.kind == GENERATED:
        out = {"kind": GENERATED, "generators": t_cone.generators.tolist()}
        out["free_generator"] = (None if t_cone.free_generator is None
                                 else t_cone.free_generator.tolist())
        return out
    return {"kind": SELF_CONE}


def cmd_tangent(args) -> int:
    def decide(s, sys_obj, opts):
        try:
            point = json.loads(args.point)
        except json.JSONDecodeError as exc:
            raise InputError(f"point: invalid JSON ({exc})") from exc
        x = as_point(s, point, "point")
        if membership(s, x, opts["tolerance"]) is not Membership.BOUNDARY:
            raise NotMember("point is not on the set boundary")
        cone = _cone_to_dict(tangent_cone_at(s, x, opts["tolerance"]))
        return ({"point": x.tolist(), "cone": cone}, f"tangent cone kind: {cone['kind']}",
                EXIT_INVARIANT)
    return _run(args, "tangent", decide)


def cmd_version(_args) -> int:
    print(__version__)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="invarcheck",
        description="Decide positive invariance of convex sets under continuous dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="problem JSON file")
        p.add_argument("--tolerance", type=float, default=None, help=(
            "boundary band (membership and boundary sampling) and tangent-cone "
            "test tolerance; only the sampled checker, falsify and tangent read "
            f"it, and exact linear verdicts read no user tolerance (default {DEFAULT_TOL:g})"))
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", dest="n_samples", metavar="SAMPLES", type=int, default=None)
        p.add_argument("--horizon", type=float, default=None)
        p.add_argument("--step", type=float, default=None)
        p.add_argument("--no-timing", action="store_true")
        p.add_argument("--output", default=None, help="also write the report here")

    p_check = sub.add_parser("check", help="decide invariance")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_fals = sub.add_parser("falsify", help="search for escaping trajectories")
    common(p_fals)
    p_fals.set_defaults(func=cmd_falsify)

    p_tan = sub.add_parser("tangent", help="print the tangent cone at a boundary point")
    common(p_tan)
    p_tan.add_argument("point", help="inline JSON vector, e.g. \"[1.0, 0.5]\"")
    p_tan.set_defaults(func=cmd_tangent)

    p_ver = sub.add_parser("version", help="print the tool version")
    p_ver.set_defaults(func=cmd_version)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2, EXIT_UNKNOWN here, after a usage error message
        return EXIT_INPUT if exc.code else 0
    try:
        return args.func(args)
    except (InputError, EmptySet, EmptyBoundary) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotMember as exc:
        print(f"boundary error: {exc}", file=sys.stderr)
        return EXIT_NOT_BOUNDARY
    except ToolkitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:  # a bug must never read as a verdict
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
