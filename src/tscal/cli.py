"""Command-line front end.

Subcommands: deriv (derivative tables), integ (definite integrals), witness
(chain-rule intermediate points), verify (randomized law suites). Output is
JSON (default) or CSV on stdout; diagnostics go to stderr.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 domain or math error,
4 law verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

from . import __version__
from .derivative import LIMIT_RTOL, AlphaOrder, _chain_witness, t_alpha, \
    t_alpha_at_zero, t_alpha_higher
from .errors import ExprSyntaxError, NotRepresentable, ScaleSpecError, TscalError, UnknownLaw
from .expr import parse as parse_expr
from .integral import QUAD_TOL, cauchy
from .laws import LAWS, run_law_suite
from .timescale import MEMBERSHIP_RTOL, TimeScale, parse_scale

__all__ = ["main"]

_USAGE_EXIT = 1
_PARSE_EXIT = 2
_MATH_EXIT = 3
_VERIFY_EXIT = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse problems to exit code 1
        raise _UsageError(message)


def _fmt(x: float) -> str:
    """17 significant digits, fixed layout, valid JSON number."""
    return format(float(x), ".16e")


def _json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f'{pad}  "{k}": {_json(v, indent + 1)}' for k, v in value.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(f"{pad}  {_json(v, indent + 1)}" for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    return json.dumps(str(value), ensure_ascii=False)  # control characters too


def _meta(args, quad_tol: float = QUAD_TOL) -> dict:
    # only integ sets a tolerance (--tol); the derivative's limits have a fixed one
    tolerances = {"deriv_tol": LIMIT_RTOL, "quad_tol": quad_tol,
                  "membership_rtol": MEMBERSHIP_RTOL}
    return {"tolerances": tolerances, "seed": getattr(args, "seed", 0),
            "version": __version__}


def _snap(ts: TimeScale, raw: float) -> tuple[float, float]:
    """Snap a requested point onto the scale; error when it is not close."""
    if not math.isfinite(raw):
        raise _UsageError(f"point {raw!r} is not finite")
    if not ts.contains(raw):
        nearest = ts.nearest(raw)
        raise TscalError(
            f"{raw!r} is not in the scale (nearest point {nearest!r}, "
            f"distance {abs(nearest - raw)!r})")
    snapped = ts.nearest(raw)
    return snapped, abs(snapped - raw)


def _resolve_points(args) -> list[float]:
    if args.at is not None:
        return [float(x) for x in args.at]
    if args.points is not None:
        try:
            points = [float(x) for x in args.points.split(",") if x.strip()]
        except ValueError as exc:
            raise _UsageError(f"bad --points list: {exc}") from None
        if not points:
            raise _UsageError("--points lists no point")
        return points
    if args.range_from is not None or args.range_to is not None:
        if args.range_from is None or args.range_to is None:
            raise _UsageError("--from and --to must be given together")
        lo, hi, count = args.range_from, args.range_to, args.count
        if count < 1:
            raise _UsageError("--count must be at least 1")
        if lo > hi:
            raise _UsageError("--from must not exceed --to")
        if count == 1:
            return [lo]
        return [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    raise _UsageError("give --at, --points, or --from/--to/--count")


def _point_row(ts: TimeScale, t: float, snap: float) -> dict:
    try:
        site = ts.site(t)
    except NotRepresentable:  # sigma(t) is beyond the largest float
        return {"t": t, "sigma": None, "mu": None, "class": None, "snap": snap}
    return {"t": t, "sigma": site.sigma, "mu": site.mu,
            "class": site.label, "snap": snap}


def _emit(doc: dict, rows: list[dict], args) -> None:
    if args.output == "csv":
        cols = list(dict.fromkeys(key for row in rows for key in row))
        # csv quotes only the fields that need it, such as the label "rd-ld,min",
        # and writes None (a missing or null field) as ""
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow(_fmt(v) if isinstance(v, float) else v
                            for v in (row.get(key) for key in cols))
    else:
        print(_json(doc))


def _cmd_deriv(args) -> int:
    ts = parse_scale(args.scale)
    f = parse_expr(args.expr)
    alpha = args.alpha
    if not (alpha > 0 and math.isfinite(alpha)):
        raise _UsageError("--alpha must be positive and finite")
    points = [_snap(ts, raw) for raw in _resolve_points(args)]
    if alpha > 1.0 and any(t == 0.0 for t, _ in points):
        raise _UsageError("--alpha above 1 needs t > 0; at 0 it must lie in (0, 1]")
    rows = []
    for t, snap in points:
        row = _point_row(ts, t, snap)
        if t == 0.0:
            row["value"] = t_alpha_at_zero(f, ts, alpha)
        elif alpha <= 1.0:
            row["value"] = t_alpha(f, ts, t, alpha)
        else:
            row["value"] = t_alpha_higher(f, ts, t, AlphaOrder(alpha))
        rows.append(row)
    doc = {"scale": args.scale, "alpha": alpha, "expr": args.expr,
           "results": rows, "meta": _meta(args)}
    _emit(doc, rows, args)
    return 0


def _cmd_integ(args) -> int:
    tol = args.tol
    if not (tol > 0 and math.isfinite(tol)):
        raise _UsageError(f"--tol must be positive and finite, got {tol!r}")
    ts = parse_scale(args.scale)
    f = parse_expr(args.expr)
    alpha = args.alpha
    if not 0.0 < alpha <= 1.0:
        raise _UsageError("--alpha must lie in (0, 1] for integrals")
    a, snap_a = _snap(ts, args.range_from)
    b, snap_b = _snap(ts, args.range_to)
    result = cauchy(f, ts, a, b, alpha, quad_tol=tol)
    row = _point_row(ts, b, snap_b)
    row.update({"from": a, "to": b, "snap_from": snap_a,
                "value": result.value, "est_error": result.est_error,
                "cells_used": result.cells_used})
    doc = {"scale": args.scale, "alpha": alpha, "expr": args.expr,
           "results": [row], "meta": _meta(args, tol)}
    _emit(doc, [row], args)
    return 0


def _cmd_witness(args) -> int:
    ts = parse_scale(args.scale)
    f = parse_expr(args.f)
    g = parse_expr(args.g)
    alpha = args.alpha
    if not 0.0 < alpha <= 1.0:
        raise _UsageError("--alpha must lie in (0, 1] for witnesses")
    rows = []
    for raw in args.at:
        t, snap = _snap(ts, float(raw))
        c, residual, _ = _chain_witness(f, g, ts, t, alpha)
        row = _point_row(ts, t, snap)
        row.update({"value": c, "c": c, "residual": residual})
        rows.append(row)
    doc = {"scale": args.scale, "alpha": alpha, "f": args.f, "g": args.g,
           "results": rows, "meta": _meta(args)}
    _emit(doc, rows, args)
    return 0


def _cmd_verify(args) -> int:
    # the suites run at the library defaults, so verify takes no --tol
    if args.trials < 1:
        raise _UsageError("--trials must be at least 1")
    requested = args.law if args.law else list(LAWS)
    for law in requested:
        if law not in LAWS:
            raise UnknownLaw(f"no law named {law!r}; known: {', '.join(LAWS)}")
    reports = []
    all_passed = True
    for law in requested:
        report = run_law_suite(law, trials=args.trials, seed=args.seed)
        all_passed = all_passed and report.passed
        reports.append({
            "law": report.law,
            "cases_run": report.cases_run,
            "max_abs_residual": report.max_abs_residual,
            "max_rel_residual": report.max_rel_residual,
            "tolerance": report.tolerance,
            "expect_failures": report.expect_failures,
            "failures": [
                {"inputs": dict(inputs), "residual": residual}
                for inputs, residual in report.failures[:10]
            ],
            "failure_count": len(report.failures),
            "passed": report.passed,
        })
    doc = {"laws": reports, "meta": _meta(args)}
    print(_json(doc))
    return 0 if all_passed else _VERIFY_EXIT


@functools.cache  # a build costs about 1.2 ms; lazy, so import pays nothing
def _build_parser() -> _Parser:
    parser = _Parser(prog="tscal",
                     description="Fractional calculus on time scales.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_expr=True):
        p.add_argument("--scale", required=True,
                       help="scale spec, e.g. R, hZ(h=1), qN0(q=2)")
        if with_expr:
            p.add_argument("--expr", required=True, help="function of t")
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--output", choices=("json", "csv"), default="json")

    p_deriv = sub.add_parser("deriv", help="tabulate the derivative")
    common(p_deriv)
    p_deriv.add_argument("--at", action="append", type=float, default=None)
    p_deriv.add_argument("--points", default=None,
                         help="comma-separated points")
    p_deriv.add_argument("--from", dest="range_from", type=float, default=None)
    p_deriv.add_argument("--to", dest="range_to", type=float, default=None)
    p_deriv.add_argument("--count", type=int, default=1)
    p_deriv.set_defaults(fn=_cmd_deriv)

    p_integ = sub.add_parser("integ", help="definite integral")
    common(p_integ)
    p_integ.add_argument("--from", dest="range_from", type=float, required=True)
    p_integ.add_argument("--to", dest="range_to", type=float, required=True)
    p_integ.add_argument("--tol", type=float, default=QUAD_TOL,
                         help="quadrature tolerance quad_tol")
    p_integ.set_defaults(fn=_cmd_integ)

    p_wit = sub.add_parser("witness", help="chain-rule intermediate point")
    common(p_wit, with_expr=False)
    p_wit.add_argument("--f", required=True, help="outer function of t")
    p_wit.add_argument("--g", required=True, help="inner function of t")
    p_wit.add_argument("--at", action="append", type=float, required=True)
    p_wit.set_defaults(fn=_cmd_witness)

    p_ver = sub.add_parser("verify", help="run law verification suites")
    p_ver.add_argument("--law", action="append", default=None,
                       help="law name; repeatable; all laws when omitted")
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"tscal: usage error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except UnknownLaw as exc:
        print(f"tscal: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (ScaleSpecError, ExprSyntaxError) as exc:
        print(f"tscal: parse error: {exc}", file=sys.stderr)
        return _PARSE_EXIT
    except (TscalError, ValueError, ArithmeticError) as exc:
        print(f"tscal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _MATH_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
