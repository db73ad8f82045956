#!/usr/bin/env python3
"""End-to-end measurement run at the canonical parameters alpha=3/5, beta=4/5.

Builds (or loads) the zero table, decomposes the vertical-edge integrals at a
few heights, measures the rectangle winding against the asserted closed-form
total, reports the pi-residual of the telescoped zero sum, and scans shifts
for universality proximity. Everything lands in --out-dir as JSON/CSV.
"""
import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zetacontour.contour import (Rectangle, decompose, decompose_height,
                                 integrate_rectangle, paper_total)
from zetacontour.precision import FLAG_RADIUS
from zetacontour.reporting import ensure_table
from zetacontour.telescope import s_n_direct
from zetacontour.universality import SegmentK, scan

ALPHA, BETA = 3.0 / 5.0, 4.0 / 5.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="measurements")
    ap.add_argument("--zeros", default="zctab-5200.txt")
    ap.add_argument("--heights", type=float, nargs="+",
                    default=[20.0, 50.0, 100.0])
    ap.add_argument("--tau-hi", type=float, default=500.0)
    ap.add_argument("--tau-step", type=float, default=0.05)
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    K = SegmentK(ALPHA, BETA, 0.0, 33)
    # tall enough for decompose's 1/T^2 tail rule at every height, and for
    # screening the scan's tallest shifted segment
    height = max([decompose_height(Rectangle.paper_mode(ALPHA, BETA, T))
                  for T in args.heights]
                 + [K.t_offset + args.tau_hi + FLAG_RADIUS])
    table = ensure_table(args.zeros, height)
    print(f"zero table {args.zeros}: {len(table.gammas)} zeros to "
          f"{table.max_height:g} ({time.perf_counter() - t0:.1f}s)")

    rows = []
    for T in args.heights:
        rect = Rectangle.paper_mode(ALPHA, BETA, T)
        rep = decompose(rect, table)
        contour = integrate_rectangle(rect, table, tol=1e-6)
        sn = s_n_direct(rect, table, table.count_below(T))
        asserted = paper_total(rect, V=-math.pi, Q=0)
        rows.append({
            "T": T,
            "residual": rep.residual,
            "residual_budget": rep.residual_budget,
            "n_used_eps2": rep.n_used_eps2,
            "winding": contour.winding,
            "winding_raw_abs": abs(contour.winding_raw),
            "asserted_total": asserted,
            "gap_asserted_vs_winding": abs(asserted - contour.winding),
            "S_N": sn.value,
            "S_N_pi_residual": sn.pi_residual,
            "S_N_terms": sn.n_terms,
        })
        (out / f"decomposition-T{T:g}.json").write_text(
            json.dumps(rep.to_json_dict(), indent=2) + "\n")
        print(f"T={T:>6g}: residual={rep.residual:.2e} winding={contour.winding} "
              f"gap-to-asserted={abs(asserted - contour.winding):.4f} "
              f"pi-residual(S_{sn.n_terms})={sn.pi_residual:+.6f}")

    with (out / "summary.csv").open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)

    t0 = time.perf_counter()
    summary = scan(0.0, args.tau_hi, args.tau_step, K, 0.0, -math.pi, 0.5,
                   table)
    best = summary.best
    print(f"universality scan tau in [0,{args.tau_hi:g}] step {args.tau_step:g}: "
          f"min sup_distance={best.sup_distance:.6f} at tau={best.tau:g}, "
          f"good_fraction={summary.good_fraction:.6f} "
          f"({time.perf_counter() - t0:.1f}s)")
    with (out / "universality.csv").open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["tau", "sup_distance"])
        for r in sorted(summary.results, key=lambda r: r.tau):
            w.writerow([repr(r.tau), repr(r.sup_distance)])
    print(f"wrote {out}/summary.csv, decomposition-T*.json, universality.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
