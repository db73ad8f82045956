"""Empirical universality probing: how close does a vertical shift of
zeta'/zeta come to a constant target on a horizontal segment.

For a shift tau and segment K in the right half of the critical strip the
probe measures

    sup_distance(tau) = max over the sample grid of
                        | zeta'/zeta(sigma + i(t_offset + tau)) - (U + iV) |,

a grid lower bound on the true sup. A scan over tau reports the fraction of
shifts below eps (the desk-scale proxy for the limit-measure density) and the
best shifts found. Witnesses are expected to be astronomically rare at desk
scale; the contract here is measurement, never existence. The zero table must
reach the tallest shifted segment plus FLAG_RADIUS (TableTooShort otherwise).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import DomainError, NearSingularity
from .precision import FAST_CONFIG, FLAG_RADIUS
from .special_functions import log_deriv_batch
from .zero_finder import ZeroTable

# shifts per engine call; bounds the engine's phase table, 2 x shifts x N
# doubles (about 10 MB at t = 500, where N is about 300)
_SCAN_BATCH = 2048


@dataclass(frozen=True)
class SegmentK:
    """Horizontal sample segment inside the strip 1/2 < sigma < 1."""

    sigma_lo: float
    sigma_hi: float
    t_offset: float = 0.0
    samples: int = 33

    def __post_init__(self):
        if not (0.5 < self.sigma_lo < self.sigma_hi < 1.0):
            raise DomainError("segment must satisfy 1/2 < sigma_lo < sigma_hi < 1")
        if self.samples < 2:
            raise DomainError("need at least 2 samples")

    def grid(self) -> np.ndarray:
        return np.linspace(self.sigma_lo, self.sigma_hi, self.samples)


@dataclass(frozen=True)
class ProbeResult:
    tau: float
    sup_distance: float
    samples_used: int


@dataclass(frozen=True)
class ScanSummary:
    """Results sorted by sup_distance (ties by tau); good_fraction counts
    scanned shifts with sup_distance < eps among the non-skipped ones."""

    results: Tuple[ProbeResult, ...]
    eps: float
    good_fraction: float
    skipped: Tuple[float, ...]

    @property
    def best(self) -> Optional[ProbeResult]:
        return self.results[0] if self.results else None


def _segment_zero_distances(K: SegmentK, taus, zeros: ZeroTable) -> np.ndarray:
    """Distance from the segment shifted by each of ``taus`` to the nearest
    tabulated zero (inf for an empty table)."""
    t = np.abs(K.t_offset + np.asarray(taus, dtype=float))
    if not zeros.gammas:
        return np.full(t.shape, math.inf)
    g = np.asarray(zeros.gammas)
    i = np.searchsorted(g, t)  # the first ordinate >= t
    dt = np.minimum(np.abs(t - g[np.maximum(i - 1, 0)]),
                    np.abs(t - g[np.minimum(i, len(g) - 1)]))
    return np.hypot(K.sigma_lo - 0.5, dt)


def sup_distance(tau: float, K: SegmentK, U: float, V: float,
                 zeros: ZeroTable) -> ProbeResult:
    """Grid sup of |zeta'/zeta on the shifted segment minus (U+iV)|; raises
    NearSingularity when a tabulated zero is within FLAG_RADIUS of it."""
    zeros.require_height(abs(K.t_offset + tau) + FLAG_RADIUS,
                         "screening this shift")
    d = float(_segment_zero_distances(K, [tau], zeros)[0])
    if d < FLAG_RADIUS:
        raise NearSingularity(f"zero near shifted segment at tau={tau}", d)
    s = K.grid() + 1j * (K.t_offset + tau)
    vals, _ = log_deriv_batch(s, FAST_CONFIG)
    dist = np.abs(vals - complex(U, V))
    return ProbeResult(tau=float(tau), sup_distance=float(dist.max()),
                       samples_used=K.samples)


def scan(tau_lo: float, tau_hi: float, step: float, K: SegmentK,
         U: float, V: float, eps: float, zeros: ZeroTable) -> ScanSummary:
    """Deterministic tau scan; shifts within FLAG_RADIUS of a tabulated zero
    are skipped and reported, not errored."""
    if step <= 0:
        raise DomainError("step must be positive")
    if tau_hi < tau_lo:
        raise DomainError("need tau_hi >= tau_lo")
    count = int(math.floor((tau_hi - tau_lo) / step + 1e-12)) + 1
    taus = tau_lo + step * np.arange(count)
    zeros.require_height(float(np.max(np.abs(K.t_offset + taus))) + FLAG_RADIUS,
                         "screening these shifts")
    near = _segment_zero_distances(K, taus, zeros) < FLAG_RADIUS
    keep = taus[~near]
    sig = K.grid()
    results: List[ProbeResult] = []
    target = complex(U, V)
    for lo in range(0, len(keep), _SCAN_BATCH):
        chunk = keep[lo:lo + _SCAN_BATCH]
        s = (sig[None, :] + 1j * (K.t_offset + chunk)[:, None]).ravel()
        vals, _ = log_deriv_batch(s, FAST_CONFIG)
        sup = np.abs(vals.reshape(len(chunk), K.samples) - target).max(axis=1)
        results.extend(ProbeResult(tau=float(t), sup_distance=float(sd),
                                   samples_used=K.samples)
                       for t, sd in zip(chunk, sup))
    n_eval = len(results)
    good = sum(1 for r in results if r.sup_distance < eps)
    results.sort(key=lambda r: (r.sup_distance, r.tau))
    return ScanSummary(results=tuple(results), eps=eps,
                       good_fraction=(good / n_eval) if n_eval else 0.0,
                       skipped=tuple(taus[near].tolist()))
