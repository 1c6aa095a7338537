"""Command line front end.

Exit codes: 0 on success, 2 when the mathematics says no (a path that
is not liftable, a twisted loop), 1 for unusable input.  All output is
deterministic: floats are printed in full shortest round-trip form and
JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import config
from .corpus import demo, demo_names
from .errors import HyperlogError, InitialMismatch, UnknownDemo
from .lifting import lift_path
from .obstruction import DIRECTIVES, obstruct_path
from .pathkit import PathSpec, path_from_json, path_to_json, to_json
from .companion import shadow_of
from .winding import analyze_loop


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"path JSON holds a non-finite number: {text}")
    return x


def _load_path(args) -> tuple[PathSpec, str]:
    if args.demo:
        case = demo(args.demo)
        stem = case.name.replace("(", "_").replace(")", "").replace(",", "_")
        return case.path, stem
    if args.input:
        with open(args.input) as f:
            doc = json.load(f, parse_float=_finite, parse_constant=_finite)
        return path_from_json(doc), Path(args.input).stem
    raise UnknownDemo("one of --demo or --input is required")


def _demo_directives(args):
    if args.companion:
        if not args.demo:
            raise UnknownDemo("--companion names a companion of a demo and needs --demo")
        case = demo(args.demo)
        if args.companion not in case.directives:
            raise UnknownDemo(
                f"demo {case.name} has no companion named {args.companion!r}"
            )
        return case.directives[args.companion]
    out = {}
    for d in args.directive or []:
        key, _, val = d.partition("=")
        if not key.isdecimal() or val not in DIRECTIVES:
            raise UnknownDemo(f"directive must be <index>={'|'.join(DIRECTIVES)}, got {d!r}")
        if int(key) in out:
            raise UnknownDemo(f"directive index {int(key)} given twice")
        out[int(key)] = val
    if not out:
        return ()
    size = max(out) + 1
    return tuple(out.get(n) for n in range(size))


def _write(out_dir, name, text) -> None:
    if out_dir is None:
        return
    p = Path(out_dir)
    p.mkdir(parents=True, exist_ok=True)
    (p / name).write_text(text)


def _cmd_analyze(args) -> int:
    spec, stem = _load_path(args)
    sampled, rep, sampling = obstruct_path(spec)
    doc = to_json(rep)
    doc["sampling"] = sampling
    doc["samples"] = len(sampled.params)
    text = _dumps(doc)
    sys.stdout.write(text)
    _write(args.out, f"{stem}_report.json", text)
    return 0


def _cmd_lift(args) -> int:
    spec, stem = _load_path(args)
    initial = None
    if args.initial_unit:
        initial = np.array([float(x) for x in args.initial_unit.split(",")])
        if len(initial) == spec.dim:
            # a unit written with its real coefficient, which must be zero
            if initial[0] != 0.0:
                raise InitialMismatch(
                    f"initial unit must be purely imaginary, got real part {float(initial[0])!r}")
            initial = initial[1:]
    res = lift_path(
        spec,
        k0=args.k0,
        initial_unit=initial,
        directives=_demo_directives(args),
    )
    if res.status != "ok":
        doc = {
            "status": "fails_at",
            "t": res.t_fail,
            "reason": res.reason,
            "sampling": res.sampling,
        }
        sys.stdout.write(_dumps(doc))
        return 2
    doc = {
        "status": "ok",
        "k0": res.lift.k0,
        "branch_trace": [list(piece) for piece in res.lift.branch_trace],
        "closed_lift": res.closed_lift,
        "sampling": res.sampling,
        "start": [float(x) for x in res.lift.values[0]],
        "end": [float(x) for x in res.lift.values[-1]],
    }
    text = _dumps(doc)
    sys.stdout.write(text)
    _write(args.out, f"{stem}_lift.json", text)
    _write(args.out, f"{stem}_lift.csv", res.lift.to_csv())
    return 0


def _cmd_winding(args) -> int:
    spec, stem = _load_path(args)
    res = analyze_loop(spec, _demo_directives(args))
    text = _dumps(to_json(res))
    sys.stdout.write(text)
    _write(args.out, f"{stem}_winding.json", text)
    if res.twisted is None or res.twisted:
        return 2
    return 0


def _cmd_shadow(args) -> int:
    spec, stem = _load_path(args)
    sampled, rep, _sampling = obstruct_path(spec)
    text = shadow_of(sampled, rep, _demo_directives(args)).to_csv()
    sys.stdout.write(text)
    _write(args.out, f"{stem}_shadow.csv", text)
    return 0


def _cmd_demo(args) -> int:
    if args.list or not args.name:
        sys.stdout.write(_dumps({"demos": demo_names()}))
        return 0
    case = demo(args.name)
    if args.export:
        text = _dumps(path_to_json(case.path))
    else:
        text = _dumps(
            {
                "name": case.name,
                "domain": [case.path.a, case.path.b],
                "closed": case.path.closed,
                "expected": case.expected,
                "companions": sorted(case.directives),
                "basepoints": case.basepoints,
                "notes": case.notes,
            }
        )
    sys.stdout.write(text)
    return 0


def _add_common(p):
    """The options every path command reads."""
    p.add_argument("--demo", help="name of a built-in example path")
    p.add_argument("--input", help="path description as a JSON file")
    p.add_argument("--out", help="directory for output files")
    p.add_argument(
        "--eps-real", type=float, default=None,
        help="realness threshold for this call: q is real when "
        "|Im q| <= EPS_REAL |q| (default 1e-9, allowed [1e-14, 1e-4])",
    )


def _add_companion(p):
    """The companion choice, for the commands that follow a companion."""
    p.add_argument(
        "--directive", action="append", metavar="M=KIND",
        help="flip/bounce choice for axis interval M (repeatable)",
    )
    p.add_argument(
        "--companion", help="named companion choice of a demo path"
    )


def main(argv=None) -> int:
    parser = _Parser(prog="hyperlog")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="obstruction report for a path")
    _add_common(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("lift", help="continuous logarithm along a path")
    _add_common(p)
    _add_companion(p)
    p.add_argument("--k0", type=int, default=0, help="starting branch index")
    p.add_argument(
        "--initial-unit",
        help="comma separated coefficients of the starting direction",
    )
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("winding", help="twistedness and winding of a loop")
    _add_common(p)
    _add_companion(p)
    p.set_defaults(fn=_cmd_winding)

    p = sub.add_parser("shadow", help="planar shadow of a path")
    _add_common(p)
    _add_companion(p)
    p.set_defaults(fn=_cmd_shadow)

    p = sub.add_parser("demo", help="list or inspect the example corpus")
    p.add_argument("name", nargs="?", help="demo name, optionally with args")
    p.add_argument("--list", action="store_true", help="list demo names")
    p.add_argument(
        "--export", action="store_true", help="print the path as JSON"
    )
    p.set_defaults(fn=_cmd_demo)

    args = parser.parse_args(argv)
    try:
        # the override holds for this call only; Tolerances checks its range
        tol = config.IN_FORCE.get()
        if getattr(args, "eps_real", None) is not None:
            tol = config.Tolerances(args.eps_real)
        token = config.IN_FORCE.set(tol)
        try:
            return args.fn(args)
        finally:
            config.IN_FORCE.reset(token)
    except (HyperlogError, OSError, ValueError) as e:
        sys.stderr.write(f"hyperlog: error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
