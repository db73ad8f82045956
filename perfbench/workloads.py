"""The three timed workloads as lists of operations with verdicts.

An operation is a library call plus a check of its result against a reference
computed beforehand (mpmath, or a known winding). A check returns one or more
(label, ok, detail) verdicts; each verdict counts as one attempted operation,
and a call that raises counts as one failed operation.
"""
from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import Any, Callable, List, NamedTuple, Tuple

Verdict = Tuple[str, bool, str]

ZEROS_HEIGHT = 2600.0
FIXTURE_HEIGHT = 5200.0
ORDINATE_TOL = 1e-9
ALPHA, BETA = 0.6, 0.8
# (label, (x0, x1, y0, y1) or paper-mode T, expected winding)
RECTANGLES = (("pole box", (0.9, 1.1, -1.0, 1.0), -1),
              ("first-zero box", (0.4, 0.6, 14.0, 14.3), 1),
              ("D(3/5,4/5,20)", 20.0, 0), ("D(3/5,4/5,50)", 50.0, 0),
              ("D(3/5,4/5,100)", 100.0, 0), ("D(3/5,4/5,250)", 250.0, 0))
DECOMPOSE_HEIGHTS = (20.0, 50.0, 100.0)
TELESCOPE_T = 100.0
SN_TERMS = 29
RICCATI_STEPS = 2000
RICCATI_STEP_TOL = 1e-10  # the riccati suite's bound on the step identity


class Op(NamedTuple):
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], List[Verdict]]


def _one(name, ok, detail=""):
    return [(name, bool(ok), detail)]


def zeros_ops(inputs: dict, work: Path) -> List[Op]:
    """find_zeros_up_to(2600) from nothing, a save/load round trip, and
    count_zeros at seeded heights."""
    from zetacontour import zero_finder

    st = {}

    def build():
        st["table"] = zero_finder.find_zeros_up_to(ZEROS_HEIGHT)
        return st["table"]

    def check_build(tb):
        bad = [f"census {len(tb.gammas)} != nzeros {inputs['census']}"] \
            if len(tb.gammas) != inputs["census"] else []
        bad += [f"gamma_{k} off by {abs(tb.gammas[k - 1] - ref):.2e}"
                for k, ref in inputs["ordinates"]
                if not abs(tb.gammas[k - 1] - ref) <= ORDINATE_TOL]
        return _one("find_zeros_up_to", not bad, "; ".join(bad))

    def roundtrip():
        path = work / "zeros.zctab"
        zero_finder.save_table(st["table"], path)
        st["loaded"] = zero_finder.load_table(path)
        return st["loaded"]

    ops = [Op("find_zeros_up_to", build, check_build),
           Op("save/load round trip", roundtrip,
              lambda tb: _one("save/load round trip", tb == st["table"]))]
    for h, n_ref in inputs["counts"]:
        ops.append(Op(f"count_zeros({h!r})",
                      lambda h=h: zero_finder.count_zeros(h, st["loaded"]),
                      lambda n, h=h, n_ref=n_ref: _one(
                          f"count_zeros({h!r})", n == n_ref, f"{n} vs nzeros {n_ref}")))
    return ops


def contour_ops(table) -> List[Op]:
    """Windings, decompositions and telescope steps on the fixture table."""
    from zetacontour import contour, telescope

    R = contour.Rectangle
    ops = []
    for label, geom, expect in RECTANGLES:
        rect = R.box(*geom) if isinstance(geom, tuple) else R.paper_mode(ALPHA, BETA, geom)
        ops.append(Op(f"integrate_rectangle {label}",
                      lambda rect=rect: contour.integrate_rectangle(rect, table),
                      lambda rep, label=label, expect=expect: _one(
                          f"integrate_rectangle {label}", rep.winding == expect,
                          f"winding {rep.winding}, expected {expect}")))
    for T in DECOMPOSE_HEIGHTS:
        rect = R.paper_mode(ALPHA, BETA, T)
        ops.append(Op(f"decompose T={T:g}",
                      lambda rect=rect, T=T: contour.decompose(rect, table, eps2=1.0 / (T * T)),
                      lambda rep, T=T: _one(
                          f"decompose T={T:g}", rep.residual <= rep.residual_budget,
                          repr(rep.residual / rep.residual_budget))))
    rect = R.paper_mode(ALPHA, BETA, TELESCOPE_T)
    st = {}

    def riccati(kind):
        st[kind] = telescope.riccati_iterate(kind, RICCATI_STEPS, rect, table)
        return st[kind]

    def check_riccati(tr):
        worst = max(tr.step_residuals)
        return _one(f"riccati_iterate {tr.kind}",
                    len(tr.iterates) == RICCATI_STEPS + 1 and worst <= RICCATI_STEP_TOL,
                    f"worst step residual {worst:.2e}")

    ops += [
        Op("s_n_direct", lambda: telescope.s_n_direct(rect, table, SN_TERMS),
           lambda sn: _one("s_n_direct", sn.n_terms == SN_TERMS and math.isfinite(sn.value))),
        Op("riccati_iterate f", lambda: riccati("f"), check_riccati),
        Op("riccati_iterate g", lambda: riccati("g"), check_riccati),
        Op("linearize_riccati", lambda: telescope.linearize_riccati(st["f"], 2.0),
           lambda lin: _one("linearize_riccati", all(map(math.isfinite, lin.p_gaps)))),
    ]
    return ops


def suite_ops(table_path: str, work: Path) -> List[Op]:
    """run_suite("all") at the default 30-digit config, then both exports.
    Export verdicts carry the sha256 of the bytes written; the caller compares
    them across repetitions."""
    from zetacontour import reporting

    st = {}

    def run():
        st["report"] = reporting.run_suite(
            "all", reporting.RunConfig(zero_table_path=table_path))
        return st["report"]

    def check_run(rep):
        return [(f"suite check: {c.name}", bool(c.passed), c.note)
                for c in rep.checks if c.kind == "pass_fail"]

    def export(fmt):
        path = reporting.export_report(st["report"], fmt, work / f"suite.{fmt}")
        return hashlib.sha256(path.read_bytes()).hexdigest()

    return [Op("run_suite all", run, check_run)] + [
        Op(f"export {fmt}", lambda fmt=fmt: export(fmt),
           lambda digest, fmt=fmt: _one(f"export {fmt}", True, digest))
        for fmt in ("json", "csv")]
