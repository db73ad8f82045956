#!/usr/bin/env python3
"""Smoke self-test of the benchmark (about four minutes on 2 cores).

    python3 perfbench/selftest.py

1. Runs every workload briefly, untraced and traced, and checks that the last
   stdout line names exactly the metrics BENCHMARK.json lists, each with its
   unit, and that no operation failed.
2. Plants a defect, a fixture table with its closest pair of zeros removed,
   runs the contour workload on it and checks that the failure is counted.
Exits 0 when every check passes.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402


def bench(*args):
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--seed", "1",
                        "--seconds", "1", *args],
                       cwd=ROOT, capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} exited {p.returncode}:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = bench("--workload", wl, "--trace", str(trace))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m.get("unit") for n, m in res["metrics"].items()}
            if got != want:
                problems.append(f"{wl} trace={trace}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{wl} trace={trace}: {res['failed']} operations failed")
            print(f"{wl} trace={trace}: {len(got)} metrics, "
                  f"{res['attempted']} operations", flush=True)

    from zetacontour import zero_finder
    table = zero_finder.load_table(run.fixture_path(zero_finder))
    g = table.gammas
    i = min(range(len(g) - 1), key=lambda j: g[j + 1] - g[j])
    defect = zero_finder.ZeroTable(g[:i] + g[i + 2:], table.accuracy, table.max_height)
    path = run.WORK / "defect.zctab"
    zero_finder.save_table(defect, path)
    res = bench("--workload", "contour", "--trace", "0", "--fixture", str(path))
    frac = res["metrics"]["ops_ok_frac"]["value"]
    print(f"planted defect (gammas {g[i]:.4f}, {g[i + 1]:.4f} removed): "
          f"{res['failed']} of {res['attempted']} operations failed", flush=True)
    if res["correct"] or res["failed"] == 0 or frac >= 1.0:
        problems.append("the table with a missing pair of zeros was not counted as a failure")

    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
