"""Independent reference routes that only the tests compare against.

Each shares no code with the library route it checks: the Weierstrass
product and the bare asymptotic series for digamma, the harmonic-sum limit
for Euler's constant, the generator h(k) behind a telescoped arctan sum, and
a brute-force scan for the fixed point of the limiting Riccati map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import mpmath as mp
import numpy as np

from zetacontour.errors import DegenerateStep, DomainError
from zetacontour.precision import DEFAULT_CONFIG, PrecisionConfig, as_complex, as_mpc
from zetacontour.telescope import DEGENERATE_TOL


def digamma_asymptotic(s, terms: int = 8, dps: int = 50) -> mp.mpc:
    """Plain truncation of the large-|s| series, no recurrence; for comparing
    against the recurrence-shifted route within the truncation's own bound."""
    with mp.workdps(dps):
        w = as_mpc(s)
        v = mp.log(w) - 1 / (2 * w)
        p = 1 / (w * w)
        for n in range(1, terms + 1):
            v -= (mp.bernoulli(2 * n) / (2 * n)) * p
            p = p / (w * w)
        return v


def digamma_asymptotic_remainder(s, terms: int = 8) -> float:
    """Magnitude bound for the first omitted term of ``digamma_asymptotic``."""
    w = abs(as_complex(s))
    n = terms + 1
    return 2.0 * abs(float(mp.bernoulli(2 * n))) / (2 * n * w ** (2 * n))


def digamma_weierstrass(s, terms: int = 200_000) -> complex:
    """Cross-check oracle from the product form of Gamma:

        psi(z) = -C - 1/z + sum_{k>=1} z/(k(z+k)).

    The tail beyond ``terms`` is corrected through second order in 1/K, good
    to ~|z|^3/K^3. Intended for |z| <= ~20.
    """
    z = as_complex(s)
    k = np.arange(1, terms + 1, dtype=np.float64)
    ssum = np.sum(z / (k * (z + k)))
    K = float(terms)
    tail = z * (1.0 / K - (z + 1.0) / (2.0 * K * K))
    return complex(-float(mp.euler) - 1.0 / z + ssum + tail)


@dataclass(frozen=True)
class EulerMascheroni:
    """The constant C = lim (sum_{k<=n} 1/k - log n) = 0.577216..."""

    value: Any

    @classmethod
    def compute(cls, cfg: PrecisionConfig = DEFAULT_CONFIG) -> "EulerMascheroni":
        with mp.workdps(cfg.dps):
            return cls(value=+mp.euler)

    @staticmethod
    def limit_oracle(n: int) -> float:
        """Independent check: harmonic sum minus log with the 1/2n - 1/12n^2
        correction; error O(1/n^4)."""
        h = math.fsum(1.0 / k for k in range(1, n + 1))
        return h - math.log(n) - 0.5 / n + 1.0 / (12.0 * n * n)


def h_of_f(f: Callable[[int], float], k: int) -> float:
    """The summand generator h(k) = (f(k+1)-f(k)) / (1 + f(k+1) f(k))."""
    a, b = float(f(k)), float(f(k + 1))
    den = 1.0 + b * a
    if abs(den) < DEGENERATE_TOL:
        raise DegenerateStep(k)
    return (b - a) / den


def fixed_point_scan_residual(a: float, b: float, lo: float, hi: float,
                              n: int = 100_001) -> float:
    """Brute-force oracle: min |x(-b x + a) - (a x + b)| sign-definiteness
    witness over a grid; returns the minimum of b(x^2+1) magnitude."""
    if n < 2:
        raise DomainError("need at least 2 scan points")
    step = (hi - lo) / (n - 1)
    best = math.inf
    for i in range(n):
        x = lo + i * step
        best = min(best, abs(x * (-b * x + a) - (a * x + b)))
    return best
