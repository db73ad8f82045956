"""Independent reference routes that only the tests compare against.

Each shares no code with the library route it checks: the Weierstrass
product and the bare asymptotic series for digamma, the harmonic-sum limit
for Euler's constant, the generator h(k) behind a telescoped arctan sum, a
brute-force scan for the fixed point of the limiting Riccati map, power-series
arithmetic for the Riemann-Siegel corrections, mpmath's own zero routines, and
the quadrature presplit measured against the whole singularity set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import mpmath as mp
import numpy as np

from zetacontour.contour import _segment_distances
from zetacontour.errors import DegenerateStep, DomainError, SingularityOnPath
from zetacontour.precision import (
    DEFAULT_CONFIG,
    EXCLUSION_RADIUS,
    PrecisionConfig,
    as_mpc,
)
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
    w = abs(complex(s))
    n = terms + 1
    return 2.0 * abs(float(mp.bernoulli(2 * n))) / (2 * n * w ** (2 * n))


def digamma_weierstrass(s, terms: int = 200_000) -> complex:
    """Cross-check oracle from the product form of Gamma:

        psi(z) = -C - 1/z + sum_{k>=1} z/(k(z+k)).

    The tail beyond ``terms`` is corrected through second order in 1/K, good
    to ~|z|^3/K^3. Intended for |z| <= ~20.
    """
    z = complex(s)
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


def riemann_siegel_corrections(degree: int = 80, dps: int = 120):
    """Taylor coefficients of C_0..C_4 in z = 2p - 1, as mpf lists indexed by
    the power of z, from power-series arithmetic in x = p - 1/2:

        Psi = cos(2 pi (x^2 - 5/16)) / (-cos(2 pi x)),
        C_0 = Psi,  C_1 = -Psi^(3)/(96 pi^2),
        C_2 = Psi^(2)/(64 pi^2) + Psi^(6)/(18432 pi^4),
        C_3 = -Psi^(1)/(64 pi^2) - Psi^(5)/(3840 pi^4) - Psi^(9)/(5308416 pi^6),
        C_4 = Psi/(128 pi^2) + 19 Psi^(4)/(24576 pi^4)
              + 11 Psi^(8)/(5898240 pi^6) + Psi^(12)/(2038431744 pi^8).

    The series division cancels heavily at high order, hence the digits.
    """
    with mp.workdps(dps):
        tp = 2 * mp.pi
        c, s = mp.cos(5 * mp.pi / 8), mp.sin(5 * mp.pi / 8)
        num = [mp.mpf(0)] * (degree + 1)
        den = [mp.mpf(0)] * (degree + 1)
        for m in range(degree // 2 + 1):
            if 4 * m <= degree:
                num[4 * m] += c * (-1) ** m * tp ** (2 * m) / mp.factorial(2 * m)
            if 4 * m + 2 <= degree:
                num[4 * m + 2] += s * (-1) ** m * tp ** (2 * m + 1) / mp.factorial(2 * m + 1)
            den[2 * m] = -((-1) ** m) * tp ** (2 * m) / mp.factorial(2 * m)
        psi = []
        for n in range(degree + 1):
            psi.append((num[n] - mp.fsum(den[k] * psi[n - k] for k in range(1, n + 1)))
                       / den[0])
        size = degree - 12 + 1

        def combo(*terms):
            out = [mp.mpf(0)] * size
            for coef, j in terms:
                for i in range(size):
                    out[i] += coef * psi[i + j] * mp.factorial(i + j) / mp.factorial(i)
            return [v / mp.mpf(2) ** i for i, v in enumerate(out)]

        pi2 = mp.pi ** 2
        return [
            combo((1, 0)),
            combo((-1 / (96 * pi2), 3)),
            combo((1 / (64 * pi2), 2), (1 / (18432 * pi2 ** 2), 6)),
            combo((-1 / (64 * pi2), 1), (-1 / (3840 * pi2 ** 2), 5),
                  (-1 / (5308416 * pi2 ** 3), 9)),
            combo((1 / (128 * pi2), 0), (19 / (24576 * pi2 ** 2), 4),
                  (11 / (5898240 * pi2 ** 3), 8), (1 / (2038431744 * pi2 ** 4), 12)),
        ]


def siegel_z(t: float, dps: int = 30) -> mp.mpf:
    """Hardy Z(t) by mpmath at ``dps`` digits."""
    with mp.workdps(dps):
        return +mp.siegelz(mp.mpf(t))


def zero_ordinate(k: int, dps: int = 30) -> float:
    """Ordinate of the k-th zero on the critical line, by mpmath."""
    with mp.workdps(dps):
        return float(mp.zetazero(k).imag)


def presplit_full_set(a: complex, b: complex, sings) -> list:
    """The quadrature presplit with every panel measured against the whole
    singularity set: panels of [a, b] no longer than twice their distance to
    the nearest singularity, nor than a quarter of [a, b], halved depth first
    and listed as the stack pops them."""
    out = []
    stack = [(a, b)]
    total = abs(b - a)
    pts = np.array(sings, dtype=np.complex128)
    while stack:
        pa, pb = stack.pop()
        L = abs(pb - pa)
        d = float(np.min(_segment_distances(pa, pb, pts), initial=math.inf))
        if d < EXCLUSION_RADIUS:
            raise SingularityOnPath(
                f"segment [{pa}, {pb}] within {d:.2e} of a singularity")
        if L > 2.0 * d or L > total / 4.0 + 1e-300:
            m = 0.5 * (pa + pb)
            stack.append((pa, m))
            stack.append((m, pb))
        else:
            out.append((pa, pb))
    return out
