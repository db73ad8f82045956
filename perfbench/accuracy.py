"""Seeded oracle samples: the library's reported bound against mpmath.

Each workload gets points over the full height range its timed phase works
at. Heights are stratified (one uniform point per equal-width stratum), so the
sample always reaches the top of the range and the column moves little
between seeds. The reference is mpmath at ``REF_DPS`` digits. A point violates
its bound when |library - mpmath| exceeds the reported ``abs_err``; the known
violations of the double engine above t ~ 20 are recorded, not filtered.
"""
from __future__ import annotations

import mpmath as mp
import numpy as np

REF_DPS = 30  # far past the double engine; 40 digits cost a third more time

# vertical edges (x0, x1, y0, y1) of the contour workload's rectangles
CONTOUR_RECTS = ((0.9, 1.1, -1.0, 1.0), (0.4, 0.6, 14.0, 14.3)) + tuple(
    (0.6, 0.8, -T, T) for T in (20.0, 50.0, 100.0, 250.0))

# Sized so each workload has well over 10 points beyond its 90th percentile
# and that percentile spreads by less than 0.08 between seeds, while the
# mpmath references take 6 to 12 seconds per seed.
SAMPLES = {"zeros": 480, "contour": 1200, "contour_box_min": 24,
           "suite_scan": 512, "suite_scalar": 64}


def _strata(rng, lo, hi, n):
    return lo + (np.arange(n) + rng.uniform(size=n)) * ((hi - lo) / n)


def oracle_points(workload: str, seed: int):
    """[(kind, s)] with kind in zeta_fast, logderiv_fast, zeta_default."""
    rng = np.random.default_rng([seed, 1])
    if workload == "zeros":
        ts = _strata(rng, 14.0, 2600.0, SAMPLES["zeros"])
        return [("zeta_fast", complex(0.5, t)) for t in ts]
    if workload == "contour":
        # uniform along the union of the vertical edges, with a floor for the
        # two small boxes so that they are sampled at all
        total = sum(y1 - y0 for _, _, y0, y1 in CONTOUR_RECTS)
        pts = []
        for x0, x1, y0, y1 in CONTOUR_RECTS:
            n = max(SAMPLES["contour_box_min"],
                    round(SAMPLES["contour"] * (y1 - y0) / total))
            for i, t in enumerate(_strata(rng, y0, y1, n)):
                pts.append(("logderiv_fast", complex(x1 if i % 2 else x0, t)))
        return pts
    if workload == "suite":
        # the paper-claims scan segment: sigma in [0.6, 0.8], tau in [0, 500],
        # both stratified (a Latin hypercube)
        n = SAMPLES["suite_scan"]
        taus = _strata(rng, 0.0, 500.0, n)
        sig = rng.permutation(_strata(rng, 0.6, 0.8, n))
        pts = [("logderiv_fast", complex(s, t)) for s, t in zip(sig, taus)]
        # scalar engine over the oracle/identity suites' range, clear of s = 1
        m = SAMPLES["suite_scalar"]
        ts = _strata(rng, 0.0, 100.0, m)
        sig = rng.uniform(-3.0, 4.0, size=m)
        sig = np.where((np.abs(sig - 1.0) < 0.5) & (ts < 0.5), 2.0, sig)
        pts += [("zeta_default", complex(s, t)) for s, t in zip(sig, ts)]
        return pts
    raise ValueError(f"unknown workload {workload!r}")


def references(points):
    """mpmath values of the oracle points, as mpc at REF_DPS digits."""
    out = []
    with mp.workdps(REF_DPS):
        for kind, s in points:
            sm = mp.mpc(s)
            if kind == "logderiv_fast":
                out.append(mp.zeta(sm, derivative=1) / mp.zeta(sm))
            else:
                out.append(mp.zeta(sm))
    return out


def ratios(points, refs, table):
    """True error over reported bound for each point, library side."""
    from zetacontour import DEFAULT_CONFIG, FAST_CONFIG, log_deriv_zeta, zeta

    out = []
    for (kind, s), ref in zip(points, refs):
        if kind == "zeta_fast":
            v = zeta(s, FAST_CONFIG)
        elif kind == "logderiv_fast":
            v = log_deriv_zeta(s, FAST_CONFIG, zeros=table)
        else:
            v = zeta(s, DEFAULT_CONFIG)
        with mp.workdps(REF_DPS):
            err = float(abs(mp.mpc(v.re, v.im) - ref))
        out.append(err / v.abs_err)
    return out
