"""In-memory span tracing of the library's public entry points.

The tracer wraps functions where their consumers look them up (module
attributes), so a `zeta_batch` call made by `zero_finder` and a
`log_deriv_batch` call made by `contour` land in different spans. Nothing
inside `src/` is edited: the wrappers are installed in the worker process
after import and die with it.

A span's layer is the first dotted component of its name. A layer's self time
is the time of its outermost spans minus the time of the spans of other layers
directly beneath them.
"""
from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter
from types import SimpleNamespace

import numpy as np

SUITE_NAMES = ("zeta-oracles", "identities", "zeros", "argument-principle",
               "decomposition", "digamma-trend", "telescoping", "cross-module",
               "riccati", "paper-claims")
BATCH_CALLERS = ("zero_finder", "contour", "universality")

# name -> unit; every traced run reports all of them (0 where the workload
# does not exercise the layer).
LAYER_METRICS = {}
for _c in BATCH_CALLERS:
    LAYER_METRICS[f"special_functions.batch_points.{_c}"] = "count"
    LAYER_METRICS[f"special_functions.batch_s.{_c}"] = "s"
    LAYER_METRICS[f"special_functions.batch_points_per_s.{_c}"] = "1/s"
LAYER_METRICS.update({
    "special_functions.scalar_calls": "count",
    "special_functions.scalar_s": "s",
    "zero_finder.build_s": "s",
    "zero_finder.self_s": "s",
    "zero_finder.zeros_found": "count",
    "zero_finder.z_evals_per_zero": "count",
    "zero_finder.audit_calls": "count",
    "zero_finder.load_s": "s",
    "zero_finder.save_s": "s",
    "contour.rect_s": "s",
    "contour.decompose_s": "s",
    "contour.self_s": "s",
    "contour.nodes": "count",
    "contour.nodes_per_rect": "count",
    "contour.edge_calls": "count",
    "telescope.s": "s",
    "telescope.steps": "count",
    "universality.scan_s": "s",
    "universality.self_s": "s",
    "universality.shifts": "count",
    "universality.skipped": "count",
    "universality.shifts_per_s": "1/s",
})
for _s in SUITE_NAMES:
    LAYER_METRICS[f"reporting.suite_s.{_s}"] = "s"
LAYER_METRICS.update({
    "reporting.ensure_table_s": "s",
    "reporting.export_s": "s",
    "trace.overhead_s": "s",
})


class Tracer:
    """Spans (name, start, end, parent index) and counters, kept in memory.
    ``now`` is the span clock; the worker passes one that skips the host
    clock's reference-kernel pauses."""

    def __init__(self, now=perf_counter):
        self.now = now
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a spanning wrapper; ``count(counts, args,
        result)`` updates counters after a successful call."""
        fn = getattr(owner, attr)
        spans, stack, counts, now = self.spans, self._stack, self.counts, self.now

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, now(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = now()
            if count is not None:
                count(counts, args, result)
            return result

        setattr(owner, attr, traced)

    def layer_metrics(self) -> dict:
        spans = self.spans
        layer = [s[0].split(".", 1)[0] for s in spans]
        dur = [s[2] - s[1] for s in spans]
        by_name = Counter()
        outer = Counter()      # layer -> time of its outermost spans
        foreign = Counter()    # layer -> time of other layers' spans directly beneath
        for i, (name, _, _, parent) in enumerate(spans):
            by_name[name] += dur[i]
            if parent is None or layer[parent] != layer[i]:
                outer[layer[i]] += dur[i]
                if parent is not None:
                    foreign[layer[parent]] += dur[i]
        n_calls = Counter(s[0] for s in spans)
        c = self.counts
        m = {}
        for caller in BATCH_CALLERS:
            pts = c[f"special_functions.batch_points.{caller}"]
            t = by_name[f"special_functions.batch.{caller}"]
            m[f"special_functions.batch_points.{caller}"] = pts
            m[f"special_functions.batch_s.{caller}"] = t
            m[f"special_functions.batch_points_per_s.{caller}"] = pts / t if t else 0.0
        zeros_found = c["zero_finder.zeros_found"]
        rects = n_calls["contour.rect"]
        scan_s = by_name["universality.scan"]
        m.update({
            "special_functions.scalar_calls": n_calls["special_functions.scalar"],
            "special_functions.scalar_s": by_name["special_functions.scalar"],
            "zero_finder.build_s": by_name["zero_finder.build"],
            "zero_finder.self_s": (outer["zero_finder"] - foreign["zero_finder"])
            - by_name["zero_finder.load"] - by_name["zero_finder.save"],
            "zero_finder.zeros_found": zeros_found,
            "zero_finder.z_evals_per_zero": (
                c["special_functions.batch_points.zero_finder"] / zeros_found
                if zeros_found else 0.0),
            "zero_finder.audit_calls": n_calls["zero_finder.audit"],
            "zero_finder.load_s": by_name["zero_finder.load"],
            "zero_finder.save_s": by_name["zero_finder.save"],
            "contour.rect_s": by_name["contour.rect"],
            "contour.decompose_s": by_name["contour.decompose"],
            "contour.self_s": outer["contour"] - foreign["contour"],
            "contour.nodes": c["contour.nodes"],
            "contour.nodes_per_rect": c["contour.rect_nodes"] / rects if rects else 0.0,
            "contour.edge_calls": n_calls["contour.edge"],
            "telescope.s": outer["telescope"],
            "telescope.steps": c["telescope.steps"],
            "universality.scan_s": scan_s,
            "universality.self_s": outer["universality"] - foreign["universality"],
            "universality.shifts": c["universality.shifts"],
            "universality.skipped": c["universality.skipped"],
            "universality.shifts_per_s": c["universality.shifts"] / scan_s if scan_s else 0.0,
        })
        for s in SUITE_NAMES:
            m[f"reporting.suite_s.{s}"] = by_name[f"reporting.suite.{s}"]
        m["reporting.ensure_table_s"] = by_name["reporting.ensure_table"]
        m["reporting.export_s"] = by_name["reporting.export"]
        return m


def _add(key, value_of):
    def count(counts, args, result):
        counts[key] += value_of(args, result)
    return count


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every module of the library."""
    from zetacontour import (contour, reporting, telescope, universality,
                             zero_finder)

    for caller, mod, attr in (("zero_finder", zero_finder, "zeta_batch"),
                              ("contour", contour, "log_deriv_batch"),
                              ("universality", universality, "log_deriv_batch")):
        tracer.wrap(mod, attr, f"special_functions.batch.{caller}",
                    _add(f"special_functions.batch_points.{caller}",
                         lambda a, r: int(np.size(a[0]))))
    for attr in ("zeta", "xi", "zeta_alternating"):
        tracer.wrap(reporting, attr, "special_functions.scalar")

    for mod in (zero_finder, reporting):
        tracer.wrap(mod, "find_zeros_up_to", "zero_finder.build",
                    _add("zero_finder.zeros_found", lambda a, r: len(r.gammas)))
        tracer.wrap(mod, "load_table", "zero_finder.load")
        tracer.wrap(mod, "save_table", "zero_finder.save")
    tracer.wrap(zero_finder.ZeroTable, "audit", "zero_finder.audit")

    for mod in (contour, reporting):
        tracer.wrap(mod, "integrate_rectangle", "contour.rect",
                    _add("contour.rect_nodes", lambda a, r: r.n_evals))
        tracer.wrap(mod, "decompose", "contour.decompose")
        tracer.wrap(mod, "integrate_edge", "contour.edge",
                    _add("contour.nodes", lambda a, r: r.n_evals))

    step_arg = {"s_n_direct": 2, "riccati_iterate": 1, "telescope_sum": 1}
    for mod in (telescope, reporting):
        for attr in ("s_n_direct", "riccati_iterate", "linearize_riccati",
                     "telescope_sum", "fixed_point_check"):
            i = step_arg.get(attr)
            tracer.wrap(mod, attr, "telescope.step", None if i is None else
                        _add("telescope.steps", lambda a, r, i=i: int(a[i])))

    def scanned(counts, args, result):
        counts["universality.shifts"] += len(result.results)
        counts["universality.skipped"] += len(result.skipped)

    for mod in (universality, reporting):
        tracer.wrap(mod, "scan", "universality.scan", scanned)

    for name, (body, height) in list(reporting.SUITES.items()):
        holder = SimpleNamespace(body=body)  # lets wrap() replace a dict value
        tracer.wrap(holder, "body", f"reporting.suite.{name}")
        reporting.SUITES[name] = (holder.body, height)
    tracer.wrap(reporting, "ensure_table", "reporting.ensure_table")
    tracer.wrap(reporting, "export_report", "reporting.export")
