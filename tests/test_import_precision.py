"""Module constants written out as literals do not move with mpmath's
precision, and neither does anything computed from them. Each check runs in
a fresh interpreter, once at mpmath's default precision and once with
mp.dps = 8 set before zetacontour is imported and kept for the calls, and
the two must agree bit for bit."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
import mpmath as mp
if sys.argv[1] != "default":
    mp.mp.dps = int(sys.argv[1])
import numpy as np
from zetacontour import special_functions, zero_finder

print([c.hex() for c in special_functions._B2K_OVER_FACT])
print([c.hex() for c in zero_finder._THETA_C])
z = np.array([0.7 + 3.1j, 12.5 - 40.0j, -2.3 + 0.4j, 1.5 + 250.0j])
for part in special_functions.digamma_batch(z):
    print([(v.real.hex(), v.imag.hex()) for v in part])
print([g.hex() for g in zero_finder.find_zeros_up_to(600.0).gammas])
"""


def _run(dps: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, dps], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_outputs_do_not_depend_on_mpmath_precision():
    default, low = _run("default"), _run("8")
    assert len(default.splitlines()) == 5
    assert low == default
