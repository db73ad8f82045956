#!/usr/bin/env python3
"""Write the outputs of a fixed set of zc commands and of the measurement
script to one directory, so that two checkouts can be compared byte for byte.

The snapshot is of whichever ``zetacontour`` this script imports, and the
measurement script is that checkout's own ``scripts/run_paper_measurements.py``.
To compare two checkouts, snapshot each with the same table and diff:

    PYTHONPATH=old/src python scripts/snapshot_outputs.py --zeros zc.tab --out-dir a
    PYTHONPATH=new/src python scripts/snapshot_outputs.py --zeros zc.tab --out-dir b
    diff -r a b
    python scripts/compare_snapshots.py a b

``compare_snapshots.py`` separates changes in the last bits of numbers from
changes in anything else.

The double engine's values move in their last bits with the number of BLAS
threads, so the script sets ``OMP_NUM_THREADS`` and ``OPENBLAS_NUM_THREADS``
to 1, for itself and for every command it runs, before numpy is imported.
A value already set in the environment is kept; two snapshots then compare
byte for byte only if both were taken with the same setting.

The table must reach height 5200 (``zc zeros --up-to 5200 --out zc.tab``);
it is only read. The ``zeros`` command builds its own table to the same
height, so that a change in the zero finder shows in ``zeros-5200.zctab``.
Each command's stdout goes to ``<name>.txt`` with its exit status; timings
are cut from the measurement script's text. Status 1 is a failed suite
check and still a snapshot; any other nonzero status is an aborted command,
whose stderr is printed but not kept, so two trees that abort alike would
snapshot alike. The script therefore writes every file and then exits 1
when any command's status was neither 0 nor 1, and 0 otherwise.

    python scripts/snapshot_outputs.py scalar

prints the scalar engine's records alone (``scalar.txt`` of a snapshot):
value and ``abs_err`` of ``zeta``, ``zeta_prime``, ``log_deriv_zeta`` and
``xi`` on a fixed grid, which includes reflected points (Re s <= -1) and
points beside s = 1, at the default config, at 40 digits and at
``FAST_CONFIG`` (the double engine, promoted to mpmath for Re s <= -1).
"""
import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

# one BLAS thread, here and in every command spawned below, unless the caller
# chose: double-engine values move in their last bits with the thread count
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(var, "1")

# this checkout's sources only when PYTHONPATH names no other
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

import mpmath as mp  # noqa: E402

import zetacontour  # noqa: E402
from zetacontour.precision import DEFAULT_CONFIG, FAST_CONFIG, PrecisionConfig  # noqa: E402
from zetacontour.special_functions import (  # noqa: E402
    _scalar_cfg, log_deriv_zeta, xi, zeta, zeta_prime)
from zetacontour.zero_finder import load_table  # noqa: E402

TABLE_HEIGHT = 5200.0  # at least what every command below asks for
SRC = Path(zetacontour.__file__).resolve().parent.parent
MEASURE = SRC.parent / "scripts" / "run_paper_measurements.py"
TIMING = re.compile(r" \(\d+(\.\d+)?s\)")

# the scalar grid: the critical strip, sigma = 4 at |t| = 120, the real
# axis, reflected points, and points beside the pole s = 1
SCALAR_GRID = (0.6 + 30j, 0.75 + 10j, 0.5 + 90j, -0.5 + 110j, 2.5 + 5j, 4 + 120j,
               4 - 120j, 2 + 0j, 0.5 + 0j, -0.5 + 0j,
               -1 + 0j, -1.5 + 3j, -2 + 0.5j, -3 + 20j, -7.5 + 50j,
               1 + 1e-5j, 1.002 + 0j, 1 - 3e-4j, 1.001 + 0.001j, 1.5 + 0.5j)
SCALAR_CONFIGS = (("default", DEFAULT_CONFIG), ("40 digits", PrecisionConfig(40, 1e-30)),
                  ("fast", FAST_CONFIG))


def commands(table: str):
    """(name, argv) of every snapshot command; file outputs are named after
    the command and written to the current directory."""
    zc = [sys.executable, "-m", "zetacontour.cli"]
    box = ["--zeros", table, "--alpha", "0.6", "--beta", "0.8"]
    runs = [("zeros", zc + ["zeros", "--up-to", "5200", "--out", "zeros-5200.zctab"])]
    runs += [(f"integrate-T{T}", zc + ["integrate", *box, "--T", T,
                                       "--out", f"integrate-T{T}.json"])
             for T in ("100", "250")]
    runs += [(f"integrate-{name}", zc + ["integrate", "--zeros", table, "--general",
                                         *geom, "--out", f"integrate-{name}.json"])
             for name, geom in (("pole-box", ("0.9", "1.1", "-1", "1")),
                                ("first-zero-box", ("0.4", "0.6", "14", "14.3")))]
    runs += [(f"decompose-T{T}", zc + ["decompose", *box, "--T", T,
                                       "--out", f"decompose-T{T}.json"])
             for T in ("50", "100")]
    runs += [("probe", zc + ["probe", "--zeros", table, "--tau", "0:60:0.05",
                             "--K", "0.6:0.8", "--out", "probe.csv"]),
             # shifted segments at negative heights, screened by |t|
             ("probe-offset", zc + ["probe", "--zeros", table, "--tau", "0:60:0.05",
                                    "--K", "0.6:0.8", "--t-offset", "-60",
                                    "--out", "probe-offset.csv"]),
             ("telescope", zc + ["telescope", *box, "--T", "100", "--N", "200",
                                 "--out", "telescope.csv"]),
             ("suite", zc + ["suite", "all", "--zeros", table, "--out", "suite.json"]),
             ("export", zc + ["export", "--report", "suite.json", "--out", "suite.csv"]),
             ("measurements", [sys.executable, str(MEASURE), "--zeros", table,
                               "--out-dir", "measurements"]),
             ("scalar", [sys.executable, str(Path(__file__).resolve()), "scalar"])]
    return runs


def scalar_records():
    """One line per config, function and grid point: the value and its
    ``abs_err`` (and flag), or the error raised. Values print at the digits
    the mpmath engine runs the config at (a double config's Re s <= -1 at
    the promoted config's), so that every stored bit shows."""
    for label, cfg in SCALAR_CONFIGS:
        for fn in (zeta, zeta_prime, log_deriv_zeta, xi):
            for s in SCALAR_GRID:
                try:
                    v = fn(s, cfg)
                except zetacontour.errors.ZetaContourError as exc:
                    yield f"{label} {fn.__name__}({s}): {type(exc).__name__}"
                    continue
                with mp.workdps(_scalar_cfg(cfg).dps):
                    yield (f"{label} {fn.__name__}({s}): {v.re!r} {v.im!r} "
                           f"abs_err={v.abs_err!r}" + (f" flag={v.flag!r}" if v.flag else ""))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", nargs="?", choices=["scalar"],
                    help="print the scalar records to stdout and stop")
    ap.add_argument("--zeros", help="zero-table file, height >= 5200")
    ap.add_argument("--out-dir", help="snapshot directory")
    args = ap.parse_args()
    if args.command == "scalar":
        for line in scalar_records():
            print(line)
        return 0
    if not (args.zeros and args.out_dir):
        ap.error("--zeros and --out-dir are required")

    table = str(Path(args.zeros).resolve())
    load_table(table).require_height(TABLE_HEIGHT, "the snapshot commands")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    aborted = []
    for name, argv in commands(table):
        proc = subprocess.run(argv, cwd=out, env=env, capture_output=True, text=True)
        text = proc.stdout
        if name == "measurements":
            text = TIMING.sub("", text)
        (out / f"{name}.txt").write_text(f"{text}exit status {proc.returncode}\n")
        print(f"{name}: exit status {proc.returncode}")
        if proc.returncode not in (0, 1):  # 1 is a failed suite check, still a snapshot
            sys.stderr.write(proc.stderr)
            aborted.append(name)
    if aborted:
        print(f"aborted: {', '.join(aborted)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
