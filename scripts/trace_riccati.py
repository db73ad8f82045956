#!/usr/bin/env python3
"""Emit long Riccati traces with linearization diagnostics as plot-ready CSV.

Columns: k, gamma_k, f, g, wrap_f, wrap_g, P, R, p_gap (=|P-2C|), r_gap
(=|R+C^2|), abs_x_over_u (the |x(n)|/|T-gamma_n| ratio whose decay the
linearization argument needs; measured, never extrapolated).
"""
import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zetacontour.contour import Rectangle
from zetacontour.reporting import ensure_table
from zetacontour.telescope import linearize_riccati, riccati_iterate


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=0.6)
    ap.add_argument("--beta", type=float, default=0.8)
    ap.add_argument("--T", type=float, default=100.0)
    ap.add_argument("--C", type=float, default=2.0)
    ap.add_argument("--N", type=int, default=2000)
    ap.add_argument("--zeros", default=None,
                    help="zero-table file, rebuilt and saved when it is "
                         "shorter than max(T+50, 800)")
    ap.add_argument("--out", default="riccati_trace.csv")
    args = ap.parse_args()

    table = ensure_table(args.zeros, max(args.T + 50.0, 800.0))
    n = min(args.N, len(table.gammas))
    rect = Rectangle.paper_mode(args.alpha, args.beta, args.T)
    tr_f = riccati_iterate("f", n, rect, table)
    tr_g = riccati_iterate("g", n, rect, table)
    lin = linearize_riccati(tr_f, args.C)

    wf = wg = 0
    wraps_f = dict(tr_f.wrap_steps)
    wraps_g = dict(tr_g.wrap_steps)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["k", "gamma_k", "f", "g", "wrap_f", "wrap_g",
                    "P", "R", "p_gap", "r_gap", "abs_x_over_u"])
        for k in range(1, n + 1):
            g_k = table.gammas[k - 1]
            wf += wraps_f.get(k, 0)
            wg += wraps_g.get(k, 0)
            has_pr = k - 1 < len(lin.P_seq)
            ratio = abs(tr_f.iterates[k - 1]) / abs(args.T - g_k)
            w.writerow([k, repr(g_k),
                        repr(tr_f.iterates[k - 1]), repr(tr_g.iterates[k - 1]),
                        wf, wg,
                        repr(lin.P_seq[k - 1]) if has_pr else "",
                        repr(lin.R_seq[k - 1]) if has_pr else "",
                        repr(lin.p_gaps[k - 1]) if has_pr else "",
                        repr(lin.r_gaps[k - 1]) if has_pr else "",
                        repr(ratio)])
    print(f"N={n} trace -> {args.out}; final f={tr_f.final():.6g} "
          f"g={tr_g.final():.6g}; wraps f/g = {tr_f.wrap_count}/{tr_g.wrap_count}; "
          f"monotone_from={tr_f.monotone_from} blowup={tr_f.blowup_index}; "
          f"P[-1]={lin.P_limit:.6f} (2C={2*args.C}), R[-1]={lin.R_limit:.6f} "
          f"(-C^2={-args.C**2})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
