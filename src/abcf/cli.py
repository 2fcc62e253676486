"""Command-line surface.

Commands: expand, cycle, attractor, oracle, verify, exceptional,
measures, plot.  Every run echoes its configuration in the JSON output
so an artifact can be reproduced from itself; ABCF_SEED overrides
--seed.  Exit status: 0 success, 1 usage error, 2 construction or
verification failure; errors are reported as one JSON object
{"error": type name, "message": text} on stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import __version__
from .attractor import (
    ConstructionError,
    build_attractor,
    compare_with_oracle,
    reduction_scan,
    verify_bijectivity,
    verify_connectivity,
)
from .cf import expand
from .cycles import detect_cycle
from .exceptional import exceptional_b, parse_plan
from .natext import sample_attractor
from .params import ParamError, Params
from .scalars import MixedFieldError, PrecisionError, as_float, parse_scalar
from .svg import render_svg


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to status 2; spec wants 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _add_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", required=True, help='a as "p/q", decimal, or preset name')
    p.add_argument("--b", required=True, help='b as "p/q", decimal, or preset name')
    p.add_argument("--eps", type=float, default=1e-12)


def _params(args) -> Params:
    return Params.make(args.a, args.b, args.eps)


def _seed(args) -> int:
    env = os.environ.get("ABCF_SEED")
    return int(env) if env is not None else args.seed


def _write(text: str, path) -> None:
    """Write text to the file at path, or to stdout when path is empty."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_safe(v):
    """v with every non-finite float replaced by None: JSON has no NaN."""
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _emit(payload: dict, args) -> None:
    _write(json.dumps(_json_safe(payload), indent=2, default=str, allow_nan=False) + "\n", args.out)


def _config_echo(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    ap = _Parser(prog="abcf", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="digit expansion of x")
    _add_params(p)
    p.add_argument("--x", required=True)
    p.add_argument("--max-digits", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("cycle", help="classify the cycle of an endpoint")
    _add_params(p)
    p.add_argument("--which", choices=["a", "b"], required=True)
    p.add_argument("--cap", type=int, default=100_000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cycle)

    p = sub.add_parser("attractor", help="build the attractor domain")
    _add_params(p)
    p.add_argument("--cap", type=int, default=100_000)
    p.add_argument("--format", choices=["json", "svg", "text"], default="json")
    p.add_argument("--window", type=float, default=4.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_attractor)

    p = sub.add_parser("oracle", help="Monte Carlo attractor cloud")
    _add_params(p)
    p.add_argument("--burn-in", type=int, default=200)
    p.add_argument("--n-points", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="verification suites for one pair")
    _add_params(p)
    p.add_argument(
        "--suite",
        choices=["connectivity", "bijectivity", "oracle", "reduction", "all"],
        default="all",
    )
    p.add_argument("--cap", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--n-points", type=int, default=20_000)
    p.add_argument("--burn-in", type=int, default=200)
    p.add_argument("--grid", type=int, default=40)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("exceptional", help="recursive exceptional-set construction")
    p.add_argument("--plan", required=True, help='e.g. "m=3;1x2,2x1,1x3"')
    p.add_argument("--target-width", type=float, default=1e-6)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exceptional)

    p = sub.add_parser("measures", help="invariant measure and entropy checks")
    _add_params(p)
    p.add_argument("--n-points", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_measures)

    p = sub.add_parser("plot", help="SVG figure of domain and/or cloud")
    _add_params(p)
    p.add_argument("--with-cloud", action="store_true")
    p.add_argument("--burn-in", type=int, default=200)
    p.add_argument("--n-points", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--window", type=float, default=4.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ParamError as exc:
        sys.stderr.write(f"invalid parameters: {exc}\n")
        return 1
    except (ConstructionError, PrecisionError) as exc:
        return _error(exc, 2)
    except (ValueError, MixedFieldError, OSError) as exc:
        return _error(exc, 1)


def _error(exc: Exception, status: int) -> int:
    sys.stdout.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
    return status


#: flags whose values may start with a dash (e.g. "-4/5"), which argparse
#: would otherwise read as options
_VALUE_FLAGS = {"--a", "--b", "--x"}


def _join_negative_values(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _cmd_expand(args) -> int:
    params = _params(args)
    x = parse_scalar(args.x)
    exp = expand(x, params, args.max_digits)
    _emit(
        {
            "config": _config_echo(args),
            "digits": exp.to_json(),
            "terminated": exp.terminated,
            "approximate": exp.approximate,
        },
        args,
    )
    return 0


def _cmd_cycle(args) -> int:
    params = _params(args)
    res = detect_cycle(params, args.which, args.cap)
    _emit({"config": _config_echo(args), **res.to_json()}, args)
    return 0


def _cmd_attractor(args) -> int:
    params = _params(args)
    dom = build_attractor(params, args.cap)
    if args.format == "svg":
        w = args.window
        _write(render_svg(dom, None, (-w, w, -w, w)), args.out or "attractor.svg")
        return 0
    payload = {"config": _config_echo(args), **dom.to_json()}
    if args.format == "text":
        lines = [f"x_a={payload['x_a']} x_b={payload['x_b']}"]
        for side in ("upper", "lower"):
            lines.append(side)
            for s in payload[side]:
                lines.append(f"  y={s['y']}: [{s['x_lo']}, {s['x_hi']}]  ({s['origin']})")
        _write("\n".join(lines) + "\n", args.out)
        return 0
    _emit(payload, args)
    return 0


def _cmd_oracle(args) -> int:
    params = _params(args)
    cloud = sample_attractor(params, args.burn_in, args.n_points, _seed(args))
    if args.format == "json":
        _emit(
            {
                "config": _config_echo(args),
                "dropped_projective": cloud.dropped_projective,
                "points": [[float(x), float(y)] for x, y in cloud.points],
            },
            args,
        )
        return 0
    lines = [f"{x:.12g} {y:.12g}" for x, y in cloud.points]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    params = _params(args)
    report: dict = {"config": _config_echo(args)}
    ok = True
    try:
        dom = build_attractor(params, args.cap)
    except ConstructionError as exc:
        if exc.failed_endpoint is None:
            raise
        report["finiteness"] = {"finite": False, "failed_endpoint": exc.failed_endpoint}
        report["ok"] = False
        _emit(report, args)
        return 2
    report["finiteness"] = {"finite": True, "failed_endpoint": None}
    report["x_a"] = None if dom.x_a is None else as_float(dom.x_a)
    report["x_b"] = None if dom.x_b is None else as_float(dom.x_b)
    if args.suite in ("connectivity", "all"):
        report["connectivity"] = verify_connectivity(dom)
        ok &= report["connectivity"]["ok"]
    if args.suite in ("bijectivity", "all"):
        bij = verify_bijectivity(dom)
        report["bijectivity"] = bij.to_json()
        ok &= bij.ok
    if args.suite in ("oracle", "all"):
        cloud = sample_attractor(params, args.burn_in, args.n_points, _seed(args))
        cmp = compare_with_oracle(dom, cloud)
        report["oracle"] = cmp.to_json()
        ok &= cmp.inside_fraction >= 0.999
    if args.suite in ("reduction", "all"):
        scan = reduction_scan(dom, args.grid, cap=2_000)
        report["reduction"] = scan.to_json()
    report["ok"] = bool(ok)
    _emit(report, args)
    return 0 if ok else 2


def _cmd_exceptional(args) -> int:
    m, plan = parse_plan(args.plan)
    enc = exceptional_b(m, plan, args.target_width)
    _emit({"config": _config_echo(args), **enc.to_json()}, args)
    return 0


def _cmd_measures(args) -> int:
    from .measures import measures_report  # numpy loads with it, for this command only

    rep = measures_report(_params(args), args.n_points, _seed(args))
    _emit({"config": _config_echo(args), **rep}, args)
    return 0


def _cmd_plot(args) -> int:
    params = _params(args)
    dom = build_attractor(params)
    cloud = None
    if args.with_cloud:
        cloud = sample_attractor(params, args.burn_in, args.n_points, _seed(args))
    w = args.window
    _write(render_svg(dom, cloud, (-w, w, -w, w)), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
