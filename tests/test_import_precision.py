"""Checks that need a fresh interpreter.

Module constants written out as literals do not move with mpmath's
precision, and neither does anything computed from them: that check runs
once at mpmath's default precision and once with mp.dps = 8 set before
zetacontour is imported and kept for the calls, and the two must agree bit
for bit. And the double engine and the zero finder never import
``numpy.ma``, which NumPy loads on a first plain ``np.unique`` call at a
cost of 8-18 ms."""
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


# each step prints whether numpy.ma is loaded after it; a spy on
# ``_em_f64_group`` prints, per call, whether its points plan more than one N
# (a merged group) and whether they fit the grid (dgemm) contraction rather
# than the point-by-point (einsum) one
NO_MA_SCRIPT = """
import os
import sys
import tempfile
import numpy as np
from zetacontour import special_functions, zero_finder

group = special_functions._em_f64_group
def spy(s, N):
    cells = len(set(s.imag.tolist())) * len(set(s.real.tolist()))
    print("group", int(N.min()) < int(N.max()),
          cells <= special_functions._GRID_FILL * len(s))
    return group(s, N)
special_functions._em_f64_group = spy

def step(name):
    print(name, "numpy.ma" in sys.modules)

table = zero_finder.find_zeros_up_to(600.0)
step("finder")
special_functions.zeta_batch(0.5 + 1j * np.linspace(10.0, 400.0, 50))
step("grid")
special_functions.zeta_batch(np.linspace(0.3, 0.9, 40)
                             + 1j * np.linspace(10.0, 400.0, 40))
step("einsum")
with tempfile.TemporaryDirectory() as d:
    path = os.path.join(d, "t.zctab")
    zero_finder.save_table(table, path)
    zero_finder.load_table(path).audit()
step("audit")
"""


def _run(dps: str, script: str = SCRIPT) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, dps], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_outputs_do_not_depend_on_mpmath_precision():
    default, low = _run("default"), _run("8")
    assert len(default.splitlines()) == 5
    assert low == default


def test_numpy_ma_is_never_imported():
    lines = _run("default", NO_MA_SCRIPT).splitlines()
    steps = [ln for ln in lines if not ln.startswith("group")]
    assert steps == ["finder False", "grid False", "einsum False", "audit False"]
    # the two batches took a merged grid group, then a merged scattered one
    grid, einsum = lines.index("grid False"), lines.index("einsum False")
    assert lines[grid - 1] == "group True True"
    assert lines[einsum - 1] == "group True False"
