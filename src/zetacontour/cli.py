"""Command-line front end.

Subcommands: zeros, integrate, decompose, telescope, probe, suite, export;
only suite takes --precision-digits and --tol. The zero table defaults to
the ZC_ZERO_TABLE environment variable when --zeros is not given.

Exit status: 0 when the command ran and every pass/fail check passed; 1 when
a pass/fail check failed (suite only; measured-only records never fail);
2 when the command aborted, its input was bad or its output could not be
written, with a one-line ``error:`` message on stderr (after the usage line,
for a flag argparse refuses).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .contour import Rectangle, decompose, decompose_height, integrate_rectangle
from .errors import DomainError, MissingTable, ZetaContourError
from .precision import PrecisionConfig
from .reporting import (
    RunConfig,
    ensure_table,
    export_report,
    load_report_json,
    run_suite,
)
from .telescope import h_functions, linearize_riccati, riccati_iterate
from .universality import SegmentK, scan
from .zero_finder import (
    backlund_count_bound,
    find_zeros_up_to,
    mangoldt_estimate,
    save_table,
)

RICCATI_C = 2.0  # the linearization constant C of the trace's P, R columns


def _table_flags(p: argparse.ArgumentParser):
    p.add_argument("--zeros", default=os.environ.get("ZC_ZERO_TABLE"),
                   help="zero-table file (default: $ZC_ZERO_TABLE)")
    p.add_argument("--out", help="output file")


def _rect_from_args(args) -> Rectangle:
    if getattr(args, "general", None):
        x0, x1, y0, y1 = args.general
        return Rectangle.box(x0, x1, y0, y1)
    if None in (args.alpha, args.beta, args.T):
        raise ZetaContourError("give --alpha, --beta and --T, "
                               "or --general X0 X1 Y0 Y1")
    return Rectangle.paper_mode(args.alpha, args.beta, args.T)


def cmd_zeros(args) -> int:
    table = find_zeros_up_to(args.up_to)
    out = args.out or args.zeros
    if not out:
        raise MissingTable("give --out (or --zeros) to store the table")
    save_table(table, out)
    print(f"{len(table.gammas)} zeros up to {args.up_to} -> {out}")
    return 0


def _write_json(payload: dict, out) -> int:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_integrate(args) -> int:
    rect = _rect_from_args(args)
    table = ensure_table(args.zeros, max(abs(rect.y0), abs(rect.y1)) + 10.0)
    rep = integrate_rectangle(rect, table, tol=args.quad_tol)
    return _write_json(rep.to_json_dict(), args.out)


def cmd_decompose(args) -> int:
    rect = _rect_from_args(args)
    if not rect.paper:
        raise ZetaContourError("decompose requires a paper-mode rectangle")
    table = ensure_table(args.zeros, decompose_height(rect, args.eps2))
    contour = integrate_rectangle(rect, table, tol=args.quad_tol)
    dec = decompose(rect, table, eps2=args.eps2, quad_tol=args.quad_tol)
    payload = contour.to_json_dict()
    payload["decomposition"] = dec.to_json_dict()
    return _write_json(payload, args.out)


def _height_holding(n: int, height: float) -> float:
    """The first of height, height + 10, ... at which the counting estimate
    minus Backlund's bound reaches n, so that a table complete to it holds
    at least n zeros."""
    while mangoldt_estimate(height) - backlund_count_bound(height) < n:
        height += 10.0
    return height


def cmd_telescope(args) -> int:
    rect = Rectangle.paper_mode(args.alpha, args.beta, args.T)
    n = args.N
    table = ensure_table(args.zeros, args.T + 60.0)
    if len(table.gammas) < n:
        table = ensure_table(args.zeros, _height_holding(n, args.T + 60.0))
    tr_f = riccati_iterate("f", n, rect, table)
    tr_g = riccati_iterate("g", n, rect, table)
    lin = linearize_riccati(tr_f, RICCATI_C) if n >= 3 else None
    out = args.out or "trace.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["k", "gamma_k", "h1", "h2", "f", "g",
                    "wrap_f", "wrap_g", "step_residual",
                    "P", "R", "p_gap", "r_gap", "abs_x_over_u"])
        wf = wg = 0
        wrapsets_f = dict(tr_f.wrap_steps)
        wrapsets_g = dict(tr_g.wrap_steps)
        for k in range(1, n + 1):
            g_k = table.gammas[k - 1]
            h1, h2 = h_functions(k, rect, table)
            wf += wrapsets_f.get(k, 0)
            wg += wrapsets_g.get(k, 0)
            lin_cols = ["", "", "", "", ""]
            if lin is not None:
                if k - 1 < len(lin.P_seq):
                    lin_cols[:4] = [repr(v[k - 1]) for v in (
                        lin.P_seq, lin.R_seq, lin.p_gaps, lin.r_gaps)]
                lin_cols[4] = repr(abs(tr_f.iterates[k - 1]) / abs(args.T - g_k))
            w.writerow([k, repr(g_k), repr(h1), repr(h2),
                        repr(tr_f.iterates[k - 1]), repr(tr_g.iterates[k - 1]),
                        wf, wg,
                        repr(max(tr_f.step_residuals[k - 1],
                                 tr_g.step_residuals[k - 1]))] + lin_cols)
    print(f"trace with N={n} -> {out}")
    return 0


def _parse_range(text: str, parts: int):
    vals = [float(v) for v in text.split(":")]
    if len(vals) != parts:
        raise ZetaContourError(f"expected {parts} colon-separated values in {text!r}")
    if not all(map(math.isfinite, vals)):
        raise DomainError(f"non-finite value in {text!r}")
    return vals


def cmd_probe(args) -> int:
    lo, hi, step = _parse_range(args.tau, 3)
    klo, khi = _parse_range(args.K, 2)
    K = SegmentK(klo, khi, t_offset=args.t_offset, samples=args.samples)
    table = ensure_table(args.zeros, max(abs(args.t_offset + lo),
                                         abs(args.t_offset + hi)) + 10.0)
    summary = scan(lo, hi, step, K, args.U, args.V, args.eps, table)
    out = args.out or "scan.csv"
    rows = sorted(
        [(r.tau, r.sup_distance, 0) for r in summary.results]
        + [(t, None, 1) for t in summary.skipped])
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["tau", "sup_distance", "skipped_flag"])
        for tau, sd, flag in rows:
            w.writerow([repr(tau), "" if sd is None else repr(sd), flag])
    best = summary.best
    line = f"scanned {len(summary.results)} shifts (skipped {len(summary.skipped)})"
    if best is not None:
        line += (f"; good_fraction={summary.good_fraction:.6f}; "
                 f"best sup_distance={best.sup_distance:.6f} at tau={best.tau}")
    print(line)
    return 0


def cmd_suite(args) -> int:
    digits = args.precision_digits
    tol = args.tol if args.tol is not None else 10.0 ** (-(digits - 12))
    report = run_suite(args.name, RunConfig(PrecisionConfig(digits, tol), args.zeros))
    if args.out:
        export_report(report, "json", args.out)
    for c in report.checks:
        status = ("measured" if c.kind == "measured"
                  else ("pass" if c.passed else "FAIL"))
        bound = "" if c.bound is None else f" (bound {c.bound:g})"
        print(f"[{status}] {c.name}: {c.measured:.6g}{bound}")
    return 0 if report.ok else 1


def cmd_export(args) -> int:
    try:
        report = load_report_json(args.report)
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise ZetaContourError(f"cannot read report {args.report}: "
                               f"{type(e).__name__}: {e}") from e
    export_report(report, args.format, args.out)
    print(f"{args.report} -> {args.out} ({args.format})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="zc", description=__doc__)
    top.add_argument("--version", action="version", version=f"zc {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeros", help="build a zero table")
    _table_flags(p)
    p.add_argument("--up-to", dest="up_to", type=float, required=True)
    p.set_defaults(func=cmd_zeros)

    for name, func in (("integrate", cmd_integrate), ("decompose", cmd_decompose)):
        p = sub.add_parser(name, help=f"{name} zeta'/zeta over a rectangle")
        _table_flags(p)
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--T", type=float)
        p.add_argument("--general", type=float, nargs=4,
                       metavar=("X0", "X1", "Y0", "Y1"))
        p.add_argument("--quad-tol", type=float, default=1e-8)
        if name == "decompose":
            p.add_argument("--eps2", type=float, default=None,
                           help="tail threshold (default 1/T^2)")
        p.set_defaults(func=func)

    p = sub.add_parser("telescope", help="emit Riccati traces as CSV")
    _table_flags(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=cmd_telescope)

    p = sub.add_parser("probe", help="universality shift scan")
    _table_flags(p)
    p.add_argument("--tau", required=True, help="lo:hi:step")
    p.add_argument("--K", required=True, help="sigma_lo:sigma_hi")
    p.add_argument("--U", type=float, default=0.0)
    p.add_argument("--V", type=float, default=-math.pi)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=33)
    p.add_argument("--t-offset", type=float, default=0.0)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("suite", help="run a verification suite")
    _table_flags(p)
    p.add_argument("--precision-digits", type=int, default=30,
                   help="working decimal digits of the scalar checks (> 15)")
    p.add_argument("--tol", type=float, default=None,
                   help="target absolute tolerance per scalar evaluation")
    p.add_argument("name", help="suite id or 'all'")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("export", help="re-export a JSON report")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True, help="output file")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=cmd_export)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ZetaContourError, OSError) as e:  # OSError: an unwritable output
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
