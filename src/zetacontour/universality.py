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
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError, NearSingularity
from .precision import FLAG_RADIUS
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
        if not math.isfinite(self.t_offset):
            raise DomainError(f"t_offset {self.t_offset!r} is not finite")
        if self.samples < 2:
            raise DomainError("need at least 2 samples")

    def grid(self) -> np.ndarray:
        return np.linspace(self.sigma_lo, self.sigma_hi, self.samples)


@dataclass(frozen=True)
class ProbeResult:
    tau: float
    sup_distance: float


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


def _zero_distances(taus: np.ndarray, K: SegmentK, zeros: ZeroTable) -> np.ndarray:
    """Distance from the segment shifted by each of ``taus`` to the nearest
    tabulated zero; TableTooShort unless the table reaches the tallest
    shifted segment plus FLAG_RADIUS."""
    t = np.abs(K.t_offset + taus)
    zeros.require_height(float(t.max()) + FLAG_RADIUS, "screening these shifts")
    return np.hypot(K.sigma_lo - 0.5, t - zeros.nearest_gamma(t))


def _sup_distances(taus: np.ndarray, K: SegmentK, target: complex) -> np.ndarray:
    """Grid sup of |zeta'/zeta - target| on the segment shifted by each of
    ``taus``, in engine calls of at most _SCAN_BATCH shifts. Each call's
    lattice is sigma-major, so that for increasing shifts at Im s >= 0 the
    engine takes it in its own order (``zeta_batch``)."""
    sig = K.grid()
    out = np.empty(len(taus))
    for lo in range(0, len(taus), _SCAN_BATCH):
        chunk = taus[lo:lo + _SCAN_BATCH]
        s = (sig[:, None] + 1j * (K.t_offset + chunk)[None, :]).ravel()
        vals, _ = log_deriv_batch(s)
        out[lo:lo + len(chunk)] = np.abs(
            vals.reshape(K.samples, len(chunk)) - target).max(axis=0)
    return out


def sup_distance(tau: float, K: SegmentK, U: float, V: float,
                 zeros: ZeroTable) -> ProbeResult:
    """Grid sup of |zeta'/zeta on the shifted segment minus (U+iV)|; raises
    NearSingularity when a tabulated zero is within FLAG_RADIUS of it."""
    if not all(map(math.isfinite, (tau, U, V))):
        raise DomainError("the shift and the target must be finite")
    taus = np.array([tau], dtype=float)
    d = float(_zero_distances(taus, K, zeros)[0])
    if d < FLAG_RADIUS:
        raise NearSingularity(f"zero near shifted segment at tau={tau}", d)
    sup = _sup_distances(taus, K, complex(U, V))[0]
    return ProbeResult(tau=float(tau), sup_distance=float(sup))


def scan(tau_lo: float, tau_hi: float, step: float, K: SegmentK,
         U: float, V: float, eps: float, zeros: ZeroTable) -> ScanSummary:
    """Deterministic tau scan; shifts within FLAG_RADIUS of a tabulated zero
    are skipped and reported, not errored."""
    if not all(map(math.isfinite, (tau_lo, tau_hi, step, U, V))):
        raise DomainError("the shifts and the target must be finite")
    if math.isnan(eps):
        raise DomainError("eps is NaN")
    if step <= 0:
        raise DomainError("step must be positive")
    if tau_hi < tau_lo:
        raise DomainError("need tau_hi >= tau_lo")
    count = int(math.floor((tau_hi - tau_lo) / step + 1e-12)) + 1
    taus = tau_lo + step * np.arange(count)
    near = _zero_distances(taus, K, zeros) < FLAG_RADIUS
    keep = taus[~near]
    sups = _sup_distances(keep, K, complex(U, V))
    results = sorted((ProbeResult(tau=float(t), sup_distance=float(sd))
                      for t, sd in zip(keep, sups)),
                     key=lambda r: (r.sup_distance, r.tau))
    good = sum(1 for r in results if r.sup_distance < eps)
    return ScanSummary(results=tuple(results), eps=eps,
                       good_fraction=(good / len(results)) if results else 0.0,
                       skipped=tuple(taus[near].tolist()))
