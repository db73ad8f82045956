#!/usr/bin/env python3
"""zetacontour benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {zeros,contour,suite} --seed N \
        --seconds S --trace {0,1}

Steps, all outside the timed phase unless stated:
  1. contour and suite: load the height-5200 fixture table (built once per
     source tree and cached under .bench_build/perfbench) and check it against
     mpmath.nzeros(5200) and mpmath.zetazero at seeded indices;
  2. compute the seeded mpmath references: verdict inputs and the accuracy
     column (see accuracy.py);
  3. run repetitions, each in a fresh worker process, until --seconds have
     passed (at least MIN_REPS); set-up and the timed phase are measured per
     repetition, both scaled to the reference host speed (see hostclock.py).
     With --trace 1, traced and untraced repetitions alternate.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads and the layer-to-end-to-end metric map.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import accuracy  # noqa: E402
import hostclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("zeros", "contour", "suite")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ops_ok_frac": "fraction", "err_over_bound_p90": "ratio",
              "bound_violation_frac": "fraction"}
PER_LAYER = dict(tracing.LAYER_METRICS, **{
    "special_functions.err_over_bound_max": "ratio",
    "contour.residual_over_budget_max": "ratio",
    "host.wall_raw_s": "s", "host.setup_raw_s": "s", "host.kernel_s": "s"})
MIN_REPS = 3            # untraced repetitions per run, for a median
MIN_SETUPS = 12         # set-up samples per run, for a median
SPOT_ORDINATES = 3      # seeded mpmath.zetazero checks per table
COUNT_HEIGHTS = 5       # seeded count_zeros heights in the zeros workload
TIME_LIMIT_S = 170.0    # the whole run, workers included
WORK = ROOT / ".bench_build" / "perfbench"


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def source_key() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "zetacontour").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def fixture_path(zero_finder) -> Path:
    """The height-5200 table for this source tree, built on first use."""
    path = WORK / f"fixture-{source_key()}.zctab"
    if not path.exists():
        table = zero_finder.find_zeros_up_to(workloads.FIXTURE_HEIGHT)
        tmp = path.with_suffix(".tmp")
        zero_finder.save_table(table, tmp)
        os.replace(tmp, path)
    return path


def spot_ordinates(mp, rng, n_zeros):
    ks = sorted(int(k) for k in rng.choice(np.arange(1, n_zeros + 1), SPOT_ORDINATES,
                                           replace=False))
    return [(k, float(mp.zetazero(k).imag)) for k in ks]


def check_table(table, height, mp, rng):
    """Verdicts on a zero table: census against mpmath.nzeros and seeded
    ordinates against mpmath.zetazero."""
    census = int(mp.nzeros(height))
    out = [("fixture census", len(table.gammas) == census and table.max_height >= height,
            f"{len(table.gammas)} vs nzeros({height:g}) = {census}")]
    for k, ref in spot_ordinates(mp, rng, census):
        ok = k <= len(table.gammas) and abs(table.gammas[k - 1] - ref) <= workloads.ORDINATE_TOL
        out.append((f"fixture gamma_{k}", ok, ""))
    return out


def run_worker(job: dict, deadline: float):
    """One fresh-process repetition: (raw set-up seconds, set-up seconds at
    the reference speed, result dict); (None, None, None) if it failed.

    The set-up is scaled by the mean of the reference kernel's time just
    before the spawn (here) and just after the worker's set-up (there)."""
    # glibc's malloc thresholds fixed at the ceiling its dynamic rule reaches
    # (mmap 32 MiB, trim twice that): otherwise the peak RSS depends on the
    # allocation history, down to the length of the checkout's path.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", MALLOC_MMAP_THRESHOLD_=str(32 << 20),
               MALLOC_TRIM_THRESHOLD_=str(64 << 20))
    k_before = hostclock.kernel_s()
    t0 = _now()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - _now(), 1.0))
    except subprocess.TimeoutExpired:
        return None, None, None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[0].startswith("ready "):
        return None, None, None
    setup = float(lines[0].split()[1]) - t0
    res = json.loads(lines[-1])
    k = 0.5 * (k_before + res["kernel_s"])
    return setup, setup * hostclock.KERNEL_REF_S / k, res


def median(xs):
    return statistics.median(xs) if xs else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fixture", help="use this table file instead of the built "
                    "fixture (the self-test plants a defective table this way)")
    args = ap.parse_args()
    start = _now()
    if not (ROOT / "src" / "zetacontour" / "__init__.py").is_file():
        print(f"no zetacontour sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import mpmath as mp
    from zetacontour import zero_finder

    WORK.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([args.seed, 0])
    wl = args.workload
    verdicts = []
    table = job_table = None
    if wl != "zeros":
        fixture = Path(args.fixture) if args.fixture else fixture_path(zero_finder)
        table = zero_finder.load_table(fixture)
        verdicts += check_table(table, workloads.FIXTURE_HEIGHT, mp, rng)
        job_table = str(fixture)
    inputs = {}
    if wl == "zeros":
        heights = rng.uniform(15.0, workloads.ZEROS_HEIGHT, COUNT_HEIGHTS)
        inputs = {"census": int(mp.nzeros(workloads.ZEROS_HEIGHT)),
                  "counts": [(float(h), int(mp.nzeros(float(h)))) for h in heights]}
        inputs["ordinates"] = spot_ordinates(mp, rng, inputs["census"])
    elif wl == "suite":
        # the suite reads its own copy, so ensure_table can never save over
        # the fixture; a relative path keeps the report's config hash stable
        job_table = str((WORK / "suite.zctab").relative_to(ROOT))

    points = accuracy.oracle_points(wl, args.seed)
    oracle = accuracy.ratios(points, accuracy.references(points), table)
    print(f"fixture checks and {len(points)} oracle points: {_now() - start:.1f}s",
          file=sys.stderr)

    job = {"workload": wl, "table": job_table,
           "work": str(WORK), "inputs": inputs, "trace": False, "setup_only": False}
    deadline = start + TIME_LIMIT_S
    stop_at = _now() + args.seconds
    untraced, traced, setups, setups_raw = [], [], [], []
    while True:
        job["trace"] = bool(args.trace) and len(untraced) > len(traced)
        if wl == "suite":
            shutil.copyfile(fixture, ROOT / job_table)
        setup_raw, setup, res = run_worker(job, deadline)
        if res is None:
            verdicts.append(("worker", False, "worker failed or timed out"))
            break
        (traced if job["trace"] else untraced).append(res)
        print(f"rep {len(untraced) + len(traced)}: traced={job['trace']} "
              f"setup {setup_raw:.4f}s ({setup:.4f}s at ref) wall "
              f"{res['wall_raw_s']:.4f}s ({res['wall_s']:.4f}s at ref, "
              f"{res['segments']} segments)", file=sys.stderr)
        if not job["trace"]:
            setups.append(setup)
            setups_raw.append(setup_raw)
        enough = len(untraced) >= (1 if args.trace else MIN_REPS) and \
            len(traced) >= args.trace
        if (_now() >= stop_at and enough) or _now() >= deadline:
            break
    while not args.trace and len(setups) < MIN_SETUPS and _now() < deadline:
        setup_raw, setup, _ = run_worker(dict(job, setup_only=True), deadline)
        if setup is None:
            break
        setups.append(setup)
        setups_raw.append(setup_raw)

    print(f"repetitions and set-ups done: {_now() - start:.1f}s", file=sys.stderr)

    # operation accounting: every verdict of every repetition, plus exports
    # whose bytes differ from the first repetition's
    ratios = list(oracle)
    first_digest = {}
    for i, res in enumerate(untraced + traced):
        for label, ok, detail in res["verdicts"]:
            if label.startswith("export"):
                ok = ok and first_digest.setdefault(label, detail) == detail
            elif label.startswith("decompose") and i == 0 and ok:
                ratios.append(float(detail))
            verdicts.append((label, ok, detail))
    failed = [v for v in verdicts if not v[1]]
    for label, _, detail in failed:
        print(f"FAILED {label}: {detail}", file=sys.stderr)

    if args.trace:
        metrics = {name: median([r["layers"][name] for r in traced])
                   for name in tracing.LAYER_METRICS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                                       - median([r["wall_s"] for r in untraced]))
        metrics["special_functions.err_over_bound_max"] = max(oracle)
        metrics["contour.residual_over_budget_max"] = max(ratios[len(oracle):], default=0.0)
        metrics["host.wall_raw_s"] = median([r["wall_raw_s"] for r in untraced])
        metrics["host.setup_raw_s"] = median(setups_raw)
        metrics["host.kernel_s"] = median([r["kernel_median_s"] for r in untraced])
        units = PER_LAYER
    else:
        viol = sum(r > 1.0 for r in ratios)
        metrics = {
            "wall_s": median([r["wall_s"] for r in untraced]),
            "setup_s": median(setups),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
            "ops_ok_frac": 1.0 - len(failed) / len(verdicts),
            "err_over_bound_p90": float(np.quantile(ratios, 0.90)),
            # add-one smoothing keeps the share above 0 once bounds hold
            "bound_violation_frac": (viol + 1) / (len(ratios) + 1),
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{wl:8s} {name:42s} {value:>16.6g} {units[name]}")
    print(json.dumps({"correct": not failed, "attempted": len(verdicts),
                      "failed": len(failed),
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
