"""Independent reference routes that only the tests compare against.

Each shares no code with the library route it checks: the Weierstrass
product and the bare asymptotic series for digamma, the harmonic-sum limit
for Euler's constant, the generator h(k) behind a telescoped arctan sum, a
brute-force scan for the fixed point of the limiting Riccati map, power-series
arithmetic for the Riemann-Siegel corrections and the formula summed with
them at exact phases, mpmath's own zero routines, the
closed-form Euler-Maclaurin part summed term by term (and, as a bitwise
reference, nested in whole-array complex expressions), the least
Euler-Maclaurin truncation found by stepping N one at a time, the quadrature
presplit measured against the whole singularity set, and the singularity set
screened ordinate by ordinate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
from zetacontour.special_functions import F64_EM_TERMS
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


# Gabcke's coefficients d_k^(n), k = 0..3n/4, of the Riemann-Siegel
# corrections C_n = sum_k d_k^(n) Psi^(3n-4k) / pi^(2n-2k) (Gabcke 1979)
GABCKE_D = (
    (Fraction(1),),
    (Fraction(-1, 96),),
    (Fraction(1, 18432), Fraction(1, 64)),
    (Fraction(-1, 5308416), Fraction(-1, 3840), Fraction(-1, 64)),
    (Fraction(1, 2038431744), Fraction(11, 5898240), Fraction(19, 24576),
     Fraction(1, 128)),
    (Fraction(-1, 978447237120), Fraction(-7, 849346560), Fraction(-901, 82575360),
     Fraction(-5, 3072)),
    (Fraction(1, 563585608581120), Fraction(17, 652298158080),
     Fraction(18889, 237817036800), Fraction(367, 7864320), Fraction(5, 2048)),
)


def riemann_siegel_corrections(degree: int = 80, dps: int = 120):
    """Taylor coefficients of C_0..C_6 in z = 2p - 1, as mpf lists indexed by
    the power of z, from power-series arithmetic in x = p - 1/2:

        Psi = cos(2 pi (x^2 - 5/16)) / (-cos(2 pi x)),
        C_n = sum_k d_k^(n) Psi^(3n-4k) / pi^(2n-2k)   (``GABCKE_D``).

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
        size = degree - 3 * (len(GABCKE_D) - 1) + 1
        rows = []
        for n, ds in enumerate(GABCKE_D):
            out = [mp.mpf(0)] * size
            for k, d in enumerate(ds):
                j = 3 * n - 4 * k
                coef = mp.mpf(d.numerator) / d.denominator / mp.pi ** (2 * n - 2 * k)
                for i in range(size):
                    out[i] += coef * psi[i + j] * mp.factorial(i + j) / mp.factorial(i)
            rows.append([v / mp.mpf(2) ** i for i, v in enumerate(out)])
        return rows


def riemann_siegel_series(t: float, rows, dps: int = 40) -> mp.mpf:
    """The Riemann-Siegel formula with C_0..C_k, k = len(rows) - 1, at
    ``dps`` digits with exact phases (``mp.siegeltheta``):

        2 sum_{n<=N} n^-1/2 cos(theta - t log n)
          + (-1)^(N-1) a^-1/2 sum_k C_k(p) a^-k,

    a = sqrt(t/2pi), N = floor(a), p = a - N, each C_k summed from its
    Taylor coefficients in z = 2p - 1 (``riemann_siegel_corrections``).
    It differs from Z(t) by the truncation remainder alone."""
    with mp.workdps(dps):
        tm = mp.mpf(t)
        a = mp.sqrt(tm / (2 * mp.pi))
        N = int(mp.floor(a))
        z = 2 * (a - N) - 1
        th = mp.siegeltheta(tm)
        main = 2 * mp.fsum(mp.cos(th - tm * mp.log(n)) / mp.sqrt(n) for n in range(1, N + 1))
        corr = mp.fsum(mp.polyval(row[::-1], z) * a ** -k for k, row in enumerate(rows))
        return main + (-1) ** (N - 1) * corr / mp.sqrt(a)


def siegel_z(t: float, dps: int = 30) -> mp.mpf:
    """Hardy Z(t) by mpmath at ``dps`` digits."""
    with mp.workdps(dps):
        return +mp.siegelz(mp.mpf(t))


def zero_ordinate(k: int, dps: int = 30) -> float:
    """Ordinate of the k-th zero on the critical line, by mpmath."""
    with mp.workdps(dps):
        return float(mp.zetazero(k).imag)


def em_closed_form(s, N: int, M: int, dps: int, NmS=None, lnN=None):
    """The closed-form part of Euler-Maclaurin at ``dps`` digits, summed term
    by term from k = 1 up,

        N^(1-s)/(s-1) + N^-s/2 + sum_{k=1..M} B_2k/(2k)! (s)_{2k-1} N^(1-s-2k),

    and its derivative in s, with d/ds (s)_n = (s)_n (psi(s+n) - psi(s)) (s
    not a non-positive integer). N^-s and ln N are computed here unless given
    (as the values another route rounded them to). Returns (value, derivative)
    as mpc."""
    with mp.workdps(dps):
        sm = mp.mpc(s)
        NmS = mp.power(N, -sm) if NmS is None else mp.mpc(NmS)
        lnN = mp.log(N) if lnN is None else mp.mpf(lnN)
        Nms1 = N * NmS  # N^(1-s)
        val = Nms1 / (sm - 1) + NmS / 2
        dval = -lnN * Nms1 / (sm - 1) - Nms1 / (sm - 1) ** 2 - lnN * NmS / 2
        for k in range(1, M + 1):
            c = mp.bernoulli(2 * k) / mp.factorial(2 * k)
            poch = mp.rf(sm, 2 * k - 1)
            dpoch = poch * (mp.digamma(sm + 2 * k - 1) - mp.digamma(sm))
            power = Nms1 / mp.mpf(N) ** (2 * k)  # N^(1-s-2k)
            val += c * poch * power
            dval += c * (dpoch - lnN * poch) * power
        return val, dval


def bernoulli(k: int) -> Fraction:
    """The Bernoulli number B_k as an exact fraction."""
    num, den = mp.bernfrac(k)
    return Fraction(int(num), int(den))


def b2k_over_fact(k: int) -> float:
    """B_2k/(2k)! rounded once to a double, from the exact Bernoulli fraction."""
    return float(bernoulli(2 * k) / math.factorial(2 * k))


def em_tail_nest(s, N, acc, dacc):
    """The double engine's closed-form Euler-Maclaurin tail as whole-array
    complex expressions, dividing by N^2 cast to complex: the reference that
    ``special_functions._em_tail``, in place and blocked, must match bit for
    bit. Same arguments and result as ``_em_tail``: M = ``F64_EM_TERMS`` and
    c_k = B_2k/(2k)! correctly rounded (``b2k_over_fact``)."""
    M = F64_EM_TERMS
    c = [b2k_over_fact(k) for k in range(M + 1)]
    lo, hi = int(N.min()), int(N.max())
    if lo == hi:
        lnN, Nc, N2 = math.log(lo), lo, lo * lo
    else:
        lnN = np.array([math.log(n) for n in N.tolist()])
        Nc, N2 = N.astype(np.complex128), (N * N).astype(np.complex128)
    NmS = np.exp(-s * lnN)
    acc = acc + Nc * NmS / (s - 1.0) + 0.5 * NmS
    dacc = dacc - lnN * Nc * NmS / (s - 1.0) - Nc * NmS / (s - 1.0) ** 2
    dacc = dacc - 0.5 * lnN * NmS
    P, dP = c[M], 0
    for k in range(M - 1, 0, -1):
        a, b = s + (2 * k - 1), s + 2 * k
        q = a * b / N2
        dP = (a + b) / N2 * P + q * dP
        P = c[k] + q * P
    Npow = NmS / Nc  # N^(-1-s)
    acc = acc + Npow * s * P
    dacc = dacc + Npow * (P + s * (dP - lnN * P))
    return acc, dacc


def em_least_N(sigma, t, M, tol, prime=False, bernoulli=None, stop=None):
    """The least N at or above the floor max(ceil(0.55 (t + 2M)) + 8,
    ceil(1.1 (-log10 tol))) at which the classical Euler-Maclaurin remainder
    bound at s = sigma + it,

        |B_{2M+2}/(2M+2)! (s)_{2M+1} N^(-s-2M-1)| |s + 2M + 1| / (sigma + 2M + 1),

    times the zeta' lever ln N + 2M + 2 + 1/max(|s|, 0.1) when ``prime``, is
    at most tol/4, found in mpmath by stepping N up one at a time from the
    floor; None if N passes ``stop`` first. |B_{2M+2}|/(2M+2)! is the exact
    Bernoulli number unless ``bernoulli`` gives another value to use."""
    with mp.workdps(30):
        s = mp.mpc(sigma, t)
        if bernoulli is None:
            bernoulli = abs(mp.bernoulli(2 * M + 2) / mp.factorial(2 * M + 2))
        head = bernoulli * abs(mp.rf(s, 2 * M + 1)) * abs(s + 2 * M + 1) / (sigma + 2 * M + 1)
        N = max(math.ceil(0.55 * (t + 2 * M)) + 8, math.ceil(1.1 * -math.log10(tol)))
        while stop is None or N <= stop:
            bound = head * mp.power(N, -(sigma + 2 * M + 1))  # |N^-s| = N^-sigma
            if prime:
                bound *= mp.log(N) + 2 * M + 2 + 1 / max(abs(s), 0.1)
            if bound <= tol / 4:
                return N
            N += 1
        return None


def presplit_full_set(a: complex, b: complex, sings) -> list:
    """The quadrature presplit with every panel measured against the whole
    singularity set: panels of [a, b] no longer than twice their distance to
    the nearest singularity, nor than a quarter of [a, b], listed by position
    from b back to a.

    The panels are halved one level at a time. Each level compares every
    pending panel with every singularity, in chunks of panels: a singularity
    farther than L/2 + max(L/2, EXCLUSION_RADIUS) from the midpoint of a
    panel of length L is farther than L/2 and than EXCLUSION_RADIUS from the
    whole panel, so it cannot split or refuse it, and only the pairs closer
    than that are measured exactly."""
    total = abs(b - a)
    pts = np.array(sings, dtype=np.complex128)
    rows = max(1, (1 << 14) // max(1, len(pts)))
    pa = np.array([a], dtype=np.complex128)
    pb = np.array([b], dtype=np.complex128)
    pending = np.array([True])
    while pending.any():
        i = np.flatnonzero(pending)
        qa, qb = pa[i], pb[i]
        L = np.hypot((qb - qa).real, (qb - qa).imag)
        reach = (0.5 * L + np.maximum(0.5 * L, EXCLUSION_RADIUS)) * (1.0 + 1e-9)
        mid = 0.5 * (qa + qb)
        d = np.full(len(i), math.inf)
        for c in range(0, len(i), rows):
            dx = pts.real - mid.real[c:c + rows, None]
            dy = pts.imag - mid.imag[c:c + rows, None]
            r, k = np.nonzero(dx * dx + dy * dy <= (reach[c:c + rows, None]) ** 2)
            np.minimum.at(d, c + r, _segment_distances(qa[c + r], qb[c + r], pts[k]))
        near = np.flatnonzero(d < EXCLUSION_RADIUS)
        if len(near):
            k = near[-1]
            raise SingularityOnPath(f"segment [{complex(qa[k])}, {complex(qb[k])}] "
                                    f"within {d[k]:.2e} of a singularity")
        pending[i] = (L > 2.0 * d) | (L > total / 4.0 + 1e-300)
        # a split panel becomes (pa, m), (m, pb); a kept one fills the first slot
        m = 0.5 * (pa + pb)
        slots = np.stack((np.ones_like(pending), pending), axis=1)
        pa = np.stack((pa, m), axis=1)[slots]
        pb = np.stack((np.where(pending, m, pb), pb), axis=1)[slots]
        pending = np.stack((pending, pending), axis=1)[slots]
    return [(complex(x), complex(y)) for x, y in zip(pa[::-1], pb[::-1])]


def singularity_set_full_scan(rect, gammas, margin) -> list:
    """The pole s = 1, then every tabulated zero 1/2 + ig and its mirror
    1/2 - ig whose height lies within ``margin`` of the box's, found by
    testing each ordinate in turn (+g before -g)."""
    lo, hi = rect.y0 - margin, rect.y1 + margin
    sings = [complex(1.0, 0.0)]
    for g in gammas:
        if lo <= g <= hi:
            sings.append(complex(0.5, g))
        if lo <= -g <= hi:
            sings.append(complex(0.5, -g))
    return sings
