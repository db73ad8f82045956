"""The benchmark in perfbench/ wraps library functions by attribute name, so
a renamed or deleted name only shows up as a crashed worker. Installing its
hooks in a fresh interpreter catches that in the test suite."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import math
import os
import tempfile
import hostclock
import tracing
from zetacontour import reporting, universality, zero_finder

tracer = tracing.Tracer()
tracing.install(tracer)
hostclock.install_hooks(hostclock.HostClock())
assert reporting.run_suite("telescoping", reporting.RunConfig()).ok
# the zeros workload counts the zero finder's Euler-Maclaurin points through
# the wrapped zero_finder.zeta_batch
table = zero_finder.find_zeros_up_to(300.0)
m = tracer.layer_metrics()
assert m["special_functions.batch_points.zero_finder"] > 0, m
assert m["zero_finder.zeros_found"] == len(table.gammas), m
# one audit per build, so that the benchmark's audit span cannot vanish
# silently
assert m["zero_finder.audit_calls"] == 1, m
# the suite workload reads its table through reporting.ensure_table, which
# audits every file it loads: the hook sees that audit too
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "t.zctab")
    zero_finder.save_table(table, path)
    reporting.ensure_table(path, 300.0)
m = tracer.layer_metrics()
assert m["zero_finder.audit_calls"] == 2, m
# the suite workload counts shifts and their points through the wrapped
# universality.scan and universality.log_deriv_batch, and quadrature nodes
# through the wrapped reporting.integrate_edge
K = universality.SegmentK(0.6, 0.8, samples=5)
universality.scan(0.0, 2.0, 0.5, K, 0.0, -math.pi, 0.5, table)
reporting.run_suite("cross-module", reporting.RunConfig())
m = tracer.layer_metrics()
assert m["universality.shifts"] > 0, m
assert m["special_functions.batch_points.universality"] > 0, m
assert m["contour.nodes"] > 0, m
# the suite workload's scalar layer is the wrapped reporting.xi: one xi(s),
# xi(1-s) pair at each of the identities suite's 100 points
assert m["special_functions.scalar_calls"] == 0, m
assert reporting.run_suite("identities", reporting.RunConfig()).ok
m = tracer.layer_metrics()
assert m["special_functions.scalar_calls"] == 200, m
"""


def test_benchmark_hooks_install():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
