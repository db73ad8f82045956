"""The benchmark in perfbench/ wraps library functions by attribute name, so
a renamed or deleted name only shows up as a crashed worker. Installing its
hooks in a fresh interpreter catches that in the test suite."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import hostclock
import tracing
from zetacontour import reporting

tracing.install(tracing.Tracer())
hostclock.install_hooks(hostclock.HostClock())
assert reporting.run_suite("telescoping", reporting.RunConfig()).ok
"""


def test_benchmark_hooks_install():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
