"""Zeta, its logarithmic derivative, digamma, xi, and principal log/arg.

Evaluation routes
-----------------
The workhorse is Euler-Maclaurin summation,

    zeta(s) = sum_{n<N} n^-s  +  N^(1-s)/(s-1)  +  N^-s/2
              + sum_{k=1..M} B_2k/(2k)! (s)_{2k-1} N^(1-s-2k)  +  R_{N,M}(s),

with the classical remainder bound
|R| <= |B_{2M+2}/(2M+2)! (s)_{2M+1} N^(-s-2M-1)| * |s+2M+1|/(sigma+2M+1),
valid for sigma > -(2M+1). N is escalated with |Im s| until the bound meets
the configured tolerance. zeta' is the termwise derivative with an analogous
bound. For sigma <= -1 both are continued through the functional equation.

An independent cross-check route, ``zeta_alternating``, sums the alternating
Dirichlet eta series with an Euler-transformed tail and divides by
(1 - 2^(1-s)). It is the oracle used by the verification suite. It shares
one thing with the Euler-Maclaurin path: the Dirichlet term table n^-s
(``_dirichlet_terms``: transcendentals at primes, products of smaller
entries elsewhere). Nothing else is shared; a test holds that table to
``mp.power(n, -s)``.

Both engines of ``PrecisionConfig`` are implemented: scalar mpmath at
configured digits, and a vectorized complex128 path (``*_batch``) used by the
quadrature, zero-scan, and universality modules.
"""
from __future__ import annotations

import math
from typing import Tuple

import numpy as np
import mpmath as mp

from .errors import (
    DomainError,
    NearSingularity,
    PoleAtNonpositiveInteger,
    PoleAtOne,
    PrecisionExhausted,
    ZeroArgument,
)
from .precision import (
    DEFAULT_CONFIG,
    EXCLUSION_RADIUS,
    F64_ROUNDOFF,
    FLAG_RADIUS,
    ComplexValue,
    PrecisionConfig,
    as_mpc,
)

_TWO_PI = 2.0 * math.pi

# B_2k/(2k)! as floats, k = 0..40; enough for every double-engine plan.
_B2K_OVER_FACT = [float(mp.bernoulli(2 * k) / mp.factorial(2 * k)) for k in range(41)]

_F64_MAX_T = 2.5e4  # desk-scale ceiling; beyond this the plan escalation gives up

# Bernoulli correction terms M of each engine's Euler-Maclaurin sum
F64_EM_TERMS = 14
MP_EM_TERMS = 16

# The double engine contracts a batch over the grid of its distinct heights x
# abscissae only when that grid has at most this many cells per point;
# scattered points would otherwise build a grid quadratic in the batch.
_GRID_FILL = 2
_ROW_BLOCK = 1 << 16  # table entries gathered per block (phase fill, scattered path)


# ---------------------------------------------------------------------------
# smallest-prime-factor sieve
# ---------------------------------------------------------------------------

def _build_sieve(N):
    """The sieve arrays ``spf``, ``omega`` of length N.

    spf[n] is the smallest prime factor of n and omega[n] = Omega(n), the
    number of prime factors of n with multiplicity, for 2 <= n < N; spf[1] = 1
    and omega[1] = 0 (entry 0 is a placeholder). Every prime up to sqrt(N)
    marks its multiples from p^2 on, in increasing order, so an entry still
    unmarked when its own turn comes is prime.
    """
    spf = np.zeros(N, dtype=np.int64)
    spf[:2] = 1  # n = 0 is never read; 1 keeps the division below defined
    for p in range(2, math.isqrt(N - 1) + 1):
        if spf[p] == 0:
            seg = spf[p * p::p]
            seg[seg == 0] = p
    primes = np.flatnonzero(spf == 0)
    spf[primes] = primes
    omega = np.zeros(N, dtype=np.int8)
    m = np.arange(N)
    while True:
        more = m > 1
        if not more.any():
            break
        omega += more
        m = m // spf[m]
    return spf, omega


_SIEVE = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int8))


def _sieve(N):
    """The module's sieve, covering n < N: rebuilt at max(N, twice its
    length) when too short, so the largest N seen costs a few builds; shared
    by both engines."""
    global _SIEVE
    sieve = _SIEVE
    if len(sieve[0]) < N:
        sieve = _SIEVE = _build_sieve(max(N, 2 * len(sieve[0])))
    return sieve


# ---------------------------------------------------------------------------
# Euler-Maclaurin plan selection and closed-form tail
# ---------------------------------------------------------------------------

def _em_plan(sigma, t, M, tol, rounds):
    """Per-point truncation N meeting tol, and the log remainder bound as a
    function of N (vectorized over inputs; a pure function of them).

    The log bound is ((lb + lp) - (sigma + 2M + 1) ln N) + ln tail, with lb
    the Bernoulli constant, lp the log of |(s)_{2M+1}| and tail the factor
    |s + 2M + 1| / (sigma + 2M + 1); lb + lp and ln tail are computed once
    per point. N starts at max(0.55 (|t| + 2M) + 8, 1.1 (-log10 tol)) and
    grows by 30% where the bound misses tol/4, at most ``rounds`` times.
    """
    sigma = np.asarray(sigma, dtype=float)
    t = np.abs(np.asarray(t, dtype=float))
    lp = np.zeros(np.broadcast(sigma, t).shape)
    for j in range(2 * M + 1):
        # the clip only matters where a factor of (s)_{2M+1} vanishes exactly
        lp = lp + 0.5 * np.log(np.maximum((sigma + j) ** 2 + t * t, 1e-300))
    base = math.log(2.2) - (2 * M + 2) * math.log(_TWO_PI) + lp
    tail = np.log(np.hypot(sigma + 2 * M + 1, t) / (sigma + 2 * M + 1))

    def log_bound(N):
        return base + (-sigma - 2 * M - 1) * np.log(np.asarray(N, dtype=float)) + tail

    N = np.maximum(np.ceil(0.55 * (t + 2 * M)) + 8,
                   math.ceil(1.1 * (-math.log10(tol)))).astype(np.int64)
    logtol = math.log(0.25 * tol)
    for _ in range(rounds):
        bad = log_bound(N) > logtol
        if not np.any(bad):
            return N, log_bound
        N = np.where(bad, (N * 13) // 10 + 4, N)
    raise PrecisionExhausted(f"Euler-Maclaurin bound stuck above tol={tol:g}")


def _em_tail(s, N, NmS, lnN, coeffs, acc, dacc):
    """The direct sums ``acc`` = sum_{n<N} n^-s and ``dacc`` (its derivative,
    or None) completed by the closed-form part of Euler-Maclaurin,

        N^(1-s)/(s-1) + N^-s/2 + sum_{k=1..M} coeffs[k-1] (s)_{2k-1} N^(1-s-2k),

    and its termwise derivative; returns (acc, dacc). Both engines run it:
    ``s`` is a complex128 array or an mpmath scalar, and NmS = N^-s,
    lnN = ln N and coeffs = B_2k/(2k)! come at that engine's precision.
    """
    acc = acc + N * NmS / (s - 1.0) + 0.5 * NmS
    if dacc is not None:
        dacc = dacc - lnN * N * NmS / (s - 1.0) - N * NmS / (s - 1.0) ** 2
        dacc = dacc - 0.5 * lnN * NmS
    poch, dpoch = 1, 0
    Npow = NmS * N  # N^(1-s)
    j = 0
    for k, c in enumerate(coeffs, start=1):
        while j <= 2 * k - 2:
            if dacc is not None:
                dpoch = dpoch * (s + j) + poch
            poch = poch * (s + j)
            j += 1
        Npow = Npow / (N * N)  # N^(1-s-2k)
        acc = acc + c * poch * Npow
        if dacc is not None:
            dacc = dacc + c * (dpoch - poch * lnN) * Npow
    return acc, dacc


# ---------------------------------------------------------------------------
# complex128 engine
# ---------------------------------------------------------------------------

def _phase_table(ts, ln_n, N):
    """exp(i t ln n) for n < N and the heights ``ts``, as a complex
    (N-1, len(ts)) array whose row r holds n = N-1-r (``ln_n`` in that order).

    cos/sin are taken on prime rows only. A composite n = p m, p its smallest
    prime factor, is the product of rows p and m; rows are filled one level
    Omega(n) at a time, so both factors of a level are ready before it, and
    each product gathers at most ``_ROW_BLOCK`` table entries.
    """
    spf, omega = _sieve(N)
    H = len(ts)
    n = np.arange(N - 1, 0, -1)
    level = omega[n]
    phase = np.empty((N - 1, H), dtype=np.complex128)
    phase[N - 2] = 1.0  # n = 1
    step = max(1, _ROW_BLOCK // H)
    for lev in range(1, int(level.max(initial=0)) + 1):
        rows = np.flatnonzero(level == lev)
        for lo in range(0, len(rows), step):
            r = rows[lo:lo + step]
            if lev == 1:
                arg = np.multiply.outer(ln_n[r], ts)
                phase.real[r] = np.cos(arg)
                phase.imag[r] = np.sin(arg, out=arg)
            else:
                p = spf[n[r]]
                prod = phase[N - 1 - p]
                np.multiply(prod, phase[N - 1 - n[r] // p], out=prod)
                phase[r] = prod
    return phase


def _em_f64_group(s, N, M, want_prime):
    """Euler-Maclaurin at shared (N, M) for a complex128 batch.

    The main sum, sum_{n<N} n^-sigma (cos(t ln n) - i sin(t ln n)), and its
    zeta' twin with amplitude -ln n n^-sigma, are contracted from two tables:
    a phase table exp(i t ln n) (``_phase_table``: transcendentals on prime
    rows, products elsewhere), one column per distinct height, and an
    amplitude table n^-sigma, -ln n n^-sigma, one row pair per distinct
    abscissa. Where the grid of distinct heights x distinct abscissae has at
    most ``_GRID_FILL`` cells per point (a line, a lattice of shifted
    segments), one real matrix product (BLAS dgemm) contracts the whole grid,
    with the complex phase table read as its (cos, sin) float pairs, and each
    point reads its cell. Scattered points instead contract their own phase
    column with their own amplitude row (``np.einsum``), ``_ROW_BLOCK``
    table entries at a time, taken in order of height so that a block reads
    neighbouring columns. The zeta' block is built even when only zeta is
    wanted: it keeps the product matrix-matrix, and dgemm splits its output
    across BLAS threads, never the sum over n, so results do not depend on
    the thread count (threaded dgemv's do).

    Rounding of the phase: a prime's phase is off by about t ln p u (u the
    unit roundoff), and these add up over the prime factors of n to the
    t ln n u of a direct cos/sin(t ln n); the Omega(n) - 1 complex products
    add a few u each.

    Summation order: each sum over n is a dot product accumulated along n,
    not numpy's pairwise sum, so its worst-case rounding error grows like
    N u times the summed magnitudes, not log2(N) u; the per-term allowance
    F64_ROUNDOFF of ``_f64_errors`` models neither. The tables run from
    n = N-1 down to n = 1, smallest terms first: on sigma in [0.6, 0.8],
    t <= 500 that halved the mean rounding error of the ascending order (and
    beat the pairwise sum by a third). The last bits of a point's value
    depend on which path its batch took.
    """
    ln_n = np.log(np.arange(N - 1, 0, -1, dtype=np.float64))
    ts, h = np.unique(s.imag, return_inverse=True)
    sigmas, v = np.unique(s.real, return_inverse=True)
    H, V = len(ts), len(sigmas)
    phase = _phase_table(ts, ln_n, N).view(np.float64).reshape(N - 1, H, 2)
    amp = np.exp(-np.multiply.outer(sigmas, ln_n))[None]
    amp = np.concatenate((amp, -ln_n * amp))
    # main[b, point, c]: amplitude b (n^-sigma, -ln n n^-sigma) times cos (c = 0)
    # or sin (c = 1)
    if H * V <= _GRID_FILL * len(s):
        grid = amp.reshape(2 * V, N - 1) @ phase.reshape(N - 1, 2 * H)
        main = grid.reshape(2, V, H, 2)[:, v, h]
    else:
        main = np.empty((2, len(s), 2))
        step = max(1, _ROW_BLOCK // (N - 1))
        by_height = np.argsort(h, kind="stable")
        for lo in range(0, len(s), step):
            sl = by_height[lo:lo + step]
            cols = phase[:, h[sl]].transpose(1, 2, 0).copy()  # n contiguous, as amp
            main[:, sl] = np.einsum("pcn,bpn->bpc", cols, amp[:, v[sl]])
    vals = main[0, :, 0] - 1j * main[0, :, 1]
    dvals = main[1, :, 0] - 1j * main[1, :, 1] if want_prime else None
    lnN = math.log(N)
    return _em_tail(s, N, np.exp(-s * lnN), lnN, _B2K_OVER_FACT[1:M + 1],
                    vals, dvals)


def _f64_errors(s, N, M, want_prime, trunc):
    sigma = s.real
    with np.errstate(divide="ignore"):
        sumabs = np.where(
            np.abs(sigma - 1.0) > 1e-9,
            1.0 + np.abs((np.power(N.astype(float), 1.0 - sigma) - 1.0) / (1.0 - sigma)),
            1.0 + np.log(N.astype(float)),
        )
    edge = np.power(N.astype(float), 1.0 - sigma) / np.maximum(np.abs(s - 1.0), 1e-3)
    ro = F64_ROUNDOFF * (3.0 + sumabs + edge)
    err = trunc + ro
    if not want_prime:
        return err, None
    lnN = np.log(N.astype(float))
    lever = lnN + 2 * M + 2 + 1.0 / np.maximum(np.abs(s), 0.1)
    derr = trunc * lever + ro * (1.0 + lnN)
    return err, derr


def zeta_batch(s_arr, cfg: PrecisionConfig, want_prime: bool = False):
    """Vectorized zeta (and optionally zeta') for complex128 inputs.

    Requires the double engine (cfg.working_digits <= 15) and Re s >= -1.
    Returns (vals, dvals_or_None, errs, derrs_or_None).
    """
    if not cfg.uses_f64:
        raise DomainError("zeta_batch requires the double-precision engine")
    s = np.asarray(s_arr, dtype=np.complex128).ravel()
    if s.size == 0:
        z = np.empty(0, dtype=np.complex128)
        f = np.empty(0, dtype=float)
        return z, (z.copy() if want_prime else None), f, (f.copy() if want_prime else None)
    if np.any(s.real < -1.0 - 1e-12):
        raise DomainError("batch evaluation covers Re s >= -1 only")
    if np.any(np.abs(s - 1.0) < EXCLUSION_RADIUS):
        raise PoleAtOne("batch point inside the exclusion radius of s=1")
    if np.any(np.abs(s.imag) > _F64_MAX_T):
        raise PrecisionExhausted(f"|Im s| beyond the desk ceiling {_F64_MAX_T:g}")
    M = F64_EM_TERMS
    N, log_bound = _em_plan(s.real, s.imag, M, cfg.target_abs_tol, 14)
    # quantize upward so batches share few distinct N (bound only improves)
    N = ((N + 15) // 16) * 16
    vals = np.empty_like(s)
    dvals = np.empty_like(s) if want_prime else None
    for Nv in np.unique(N):
        idx = np.nonzero(N == Nv)[0]
        v, dv = _em_f64_group(s[idx], int(Nv), M, want_prime)
        vals[idx] = v
        if want_prime:
            dvals[idx] = dv
    errs, derrs = _f64_errors(s, N, M, want_prime, np.exp(log_bound(N)))
    return vals, dvals, errs, derrs


def log_deriv_batch(s_arr, cfg: PrecisionConfig):
    """Vectorized zeta'/zeta with propagated error bounds (double engine);
    PrecisionExhausted where zeta's error bound reaches |zeta|."""
    vals, dvals, errs, derrs = zeta_batch(s_arr, cfg, want_prime=True)
    return _log_deriv(vals, dvals, errs, derrs)


def _log_deriv(v, dv, e, de):
    """(zeta'/zeta, its bound (de + |zeta'/zeta| e) / |zeta|) from zeta = v
    and zeta' = dv with bounds e and de, as complex128 arrays or as mpmath
    scalars (whose quotient runs at the current digits); PrecisionExhausted
    where e reaches |v|, since the quotient has no bound there."""
    # np.abs, not abs: the builtin rounds complex128 moduli differently
    av = np.abs(v)
    if np.any(e >= av):
        raise PrecisionExhausted("|zeta| within its error bound")
    ld = dv / v
    return ld, (de + np.abs(ld) * e) / av


def _reflection_err(az, ad, acot, unit):
    """Bound on the error that psi(z) = psi(1-z) - pi cot(pi d) adds, with
    d = z - round(Re z) formed exactly, az = |z|, ad = |d|, acot = |pi cot(pi d)|
    and ``unit`` at least 8 unit roundoffs of the engine. Rounding 1 - z moves
    psi(1-z) by at most |psi'| |1 - z| unit/8, |psi'| <= pi^2/2 for Re >= 1/2.
    Rounding pi d moves it by 2 pi ad unit/8, and pi cot by
    pi |1 + cot^2| <= pi + acot^2/pi per unit of that; tan or cot, the division
    and the final subtraction add a few unit/8 acot."""
    return unit * ((1.0 + az) + ad * (math.pi ** 2 + acot ** 2) + acot)


def digamma_batch(z_arr):
    """Vectorized digamma for complex128 arrays, poles excluded by caller.

    Reflection psi(z) = psi(1-z) - pi cot(pi z) for Re z < 1/2, with cot
    taken at z less its nearest integer so that it stays accurate by the
    poles; then upward recurrence psi(w) = psi(w+1) - 1/w into |w| >= 12 (at
    most 12 steps from Re w >= 1/2), then the standard asymptotic series with
    eight Bernoulli terms.
    """
    z = np.asarray(z_arr, dtype=np.complex128)
    left = z.real < 0.5
    val = np.zeros_like(z)
    w = np.where(left, 1.0 - z, z)
    while (mask := np.abs(w) < 12.0).any():
        val[mask] -= 1.0 / w[mask]
        w[mask] += 1.0
    r = 1.0 / w
    val = val + np.log(w) - 0.5 * r
    r2 = r * r
    p = r2
    for n in range(1, 9):
        val = val - (float(mp.bernoulli(2 * n)) / (2 * n)) * p
        p = p * r2
    err = np.full(z.shape, 5e-14) * (1.0 + np.abs(val))
    if left.any():
        zl = z[left]
        d = zl - np.round(zl.real)
        cot = np.pi / np.tan(np.pi * d)
        val[left] -= cot
        err[left] += _reflection_err(np.abs(zl), np.abs(d), np.abs(cot), 1e-15)
    return val, err


# ---------------------------------------------------------------------------
# mpmath engine
# ---------------------------------------------------------------------------

def _dirichlet_terms(s, N):
    """n^-s and ln n for 1 <= n < N at the working precision, as two lists
    indexed by n (entry 0 unused).

    A prime p costs one mp.log and one mp.exp, both at 10 guard bits over
    the magnitude of s ln N; p^-s and ln p are kept at that precision, off by
    well under one rounding 2^-prec of the working precision. A composite
    n = p m, p its smallest prime factor, is the product of the entries of p
    and m, and ln n their sum: Omega(n) - 1 <= log2 n roundings, so every
    term is off by at most 1 + log2 N roundings relative.
    """
    spf = _sieve(N)[0][:N].tolist()
    terms = [mp.mpc(0), mp.mpc(1)]
    logs = [mp.mpf(0), mp.mpf(0)]
    guard = 10 + math.ceil(math.log2(1.0 + abs(complex(s)) * math.log(N)))
    for n in range(2, N):
        p = spf[n]
        if p == n:
            with mp.extraprec(guard):
                lnp = mp.log(n)
                term = mp.exp(-s * lnp)
        else:
            m = n // p
            term = terms[p] * terms[m]
            lnp = logs[p] + logs[m]
        terms.append(term)
        logs.append(lnp)
    return terms, logs


def _em_mp(s: mp.mpc, cfg: PrecisionConfig, want_prime: bool):
    """Scalar Euler-Maclaurin in mpmath at cfg.dps digits; (zeta, zeta' or
    None, err, derr or None).

    Rounding allowance ro = 10^-(dps-3) (3 + N^max(0, 1-sigma)): each sieved
    term n^-s carries at most 1 + log2 N roundings of 2^-prec <= 10^-(dps+1)
    (``_dirichlet_terms``), so together they are off by at most
    10^-(dps+1) (1 + log2 N) sum n^-sigma, which is below ro for N < 2^60.
    """
    M = MP_EM_TERMS
    sigma = float(mp.re(s))
    if sigma + 2 * M + 1 <= 0:
        raise PrecisionExhausted("need sigma + 2M + 1 > 0 for the remainder bound")
    t = abs(float(mp.im(s)))
    N, log_bound = _em_plan(sigma, t, M, cfg.target_abs_tol, 40)
    N = int(N)
    with mp.workdps(cfg.dps):
        terms, logs = _dirichlet_terms(s, N)
        acc = mp.mpc(0)
        dacc = mp.mpc(0)
        for n in range(1, N):
            acc += terms[n]
            if want_prime and n > 1:
                dacc -= logs[n] * terms[n]
        coeffs = [mp.bernoulli(2 * k) / mp.factorial(2 * k) for k in range(1, M + 1)]
        acc, dacc = _em_tail(s, N, mp.power(N, -s), mp.log(N), coeffs,
                             acc, dacc if want_prime else None)
        trunc = math.exp(float(log_bound(N)))
        ro = 10.0 ** (-(cfg.dps - 3)) * (3.0 + N ** max(0.0, 1.0 - sigma))
        err = trunc + ro
        if want_prime:
            lever = math.log(N) + 2 * M + 2 + 1.0 / max(abs(complex(s)), 0.1)
            derr = trunc * lever + ro * (1.0 + math.log(N))
            return acc, dacc, err, derr
        return acc, None, err, None


def _chi_mp(s) -> mp.mpc:
    """chi(s) = pi^(s-1/2) Gamma((1-s)/2) / Gamma(s/2), zeta(s) = chi zeta(1-s).

    The reciprocal gamma keeps this entire across the trivial zeros s = -2k,
    where 1/Gamma(s/2) vanishes."""
    return mp.power(mp.pi, s - mp.mpf(1) / 2) * mp.gamma((1 - s) / 2) \
        * mp.rgamma(s / 2)


def _zeta_scalar(s: mp.mpc, cfg: PrecisionConfig, want_prime: bool):
    """Scalar zeta/zeta' at any s != 1 (functional equation for Re s <= -1)."""
    if float(mp.re(s)) > -1.0:
        return _em_mp(s, cfg, want_prime)
    with mp.workdps(cfg.dps):
        s1 = 1 - s
        v1, d1, e1, de1 = _em_mp(s1, cfg, want_prime)
        chi = _chi_mp(s)
        val = chi * v1
        scale = float(abs(chi))
        err = scale * e1 + 10.0 ** (-(cfg.dps - 4)) * float(abs(val) + 1)
        if not want_prime:
            return val, None, err, None
        half = s / 2
        near_trivial = abs(half - mp.nint(half)) < 0.01 and float(mp.re(half)) < 0.25
        if near_trivial:
            # log-derivative form degenerates at the Gamma pole; chi is
            # entire, so differentiate it directly
            dchi = mp.diff(_chi_mp, s)
        else:
            dchi = chi * (mp.log(mp.pi) - mp.digamma((1 - s) / 2) / 2
                          - mp.digamma(s / 2) / 2)
        dval = dchi * v1 - chi * d1
        derr = scale * de1 + float(abs(dchi)) * e1 \
            + 10.0 ** (-(cfg.dps - 6)) * float(abs(dval) + 1)
        return val, dval, err, derr


# ---------------------------------------------------------------------------
# public scalar operations
# ---------------------------------------------------------------------------

def _check_pole(s):
    if abs(complex(s) - 1.0) < EXCLUSION_RADIUS:
        raise PoleAtOne(f"s={complex(s)} within {EXCLUSION_RADIUS:g} of the pole")


def _scalar_cfg(cfg: PrecisionConfig) -> PrecisionConfig:
    """The config the mpmath engine runs at: ``cfg`` itself, or a double
    config promoted to 25 digits (the double engine stops at Re s = -1)."""
    if not cfg.uses_f64:
        return cfg
    return PrecisionConfig(working_digits=25,
                           target_abs_tol=min(cfg.target_abs_tol, 1e-16))


def _zeta_and_prime(s, cfg: PrecisionConfig, want_prime: bool):
    """(zeta, zeta' or None, err, derr or None) at one point s != 1.

    The one engine choice for the scalar operations: the double batch engine
    for Re s > -1 with a double config, scalar mpmath at ``_scalar_cfg``
    otherwise.
    """
    sc = complex(s)
    if cfg.uses_f64 and sc.real > -1.0:
        vals, dvals, errs, derrs = zeta_batch([sc], cfg, want_prime=want_prime)
        if not want_prime:
            return vals[0], None, float(errs[0]), None
        return vals[0], dvals[0], float(errs[0]), float(derrs[0])
    return _zeta_scalar(as_mpc(s), _scalar_cfg(cfg), want_prime)


def _within_tol(v, e: float, cfg: PrecisionConfig) -> ComplexValue:
    if e > cfg.target_abs_tol:
        raise PrecisionExhausted(f"abs_err={e:g} exceeds tol={cfg.target_abs_tol:g}")
    return ComplexValue(v.real, v.imag, e)


def zeta(s, cfg: PrecisionConfig = DEFAULT_CONFIG) -> ComplexValue:
    """zeta(s) by Euler-Maclaurin, continued everywhere except s = 1."""
    _check_pole(s)
    v, _, e, _ = _zeta_and_prime(s, cfg, want_prime=False)
    return _within_tol(v, e, cfg)


def zeta_prime(s, cfg: PrecisionConfig = DEFAULT_CONFIG) -> ComplexValue:
    """zeta'(s), termwise-differentiated Euler-Maclaurin."""
    _check_pole(s)
    _, dv, _, de = _zeta_and_prime(s, cfg, want_prime=True)
    return _within_tol(dv, de, cfg)


def _euler_average(partial, r):
    """Partial sums averaged pairwise r times, in closed form:
    2^-r sum_i C(r, i) partial[i]."""
    return mp.fsum(math.comb(r, i) * partial[i] for i in range(r + 1)) / 2 ** r


def zeta_alternating(s, cfg: PrecisionConfig = DEFAULT_CONFIG) -> ComplexValue:
    """Cross-check route: alternating eta series with an Euler-transformed tail.

    eta(s) = sum (-1)^(n-1) n^-s is summed directly up to a head K scaled
    with |Im s|, and the remaining alternating tail is accelerated by
    averaging its partial sums pairwise J times (Euler's transformation),
    taken in closed form as binomially weighted means. Then
    zeta(s) = eta(s) / (1 - 2^(1-s)). Valid for Re s > 0 away from the zeros
    of the denominator; shares only the term table ``_dirichlet_terms`` with
    the Euler-Maclaurin route.

    Rounding allowance 10^-(dps+2) (K + J), summed at dps + 6 digits: each of
    the K + J terms (|n^-s| <= 1) carries at most 1 + log2(K + J) roundings
    of 10^-(dps+7), and the K + J additions one each of at most K + J, so
    together (K + J)(K + J + 1 + log2(K + J)) 10^-(dps+7), below the
    allowance for K + J < 9 10^4.
    """
    _check_pole(s)
    sm = as_mpc(s)
    if float(mp.re(sm)) <= 0.05:
        raise DomainError("eta-series route needs Re s > 0.05")
    digits = cfg.working_digits
    t = abs(float(mp.im(sm)))
    K = max(int(math.ceil(1.6 * t)), int(math.ceil(3.3 * digits))) + 16
    J = int(math.ceil(2.2 * digits)) + 16
    for _attempt in range(2):
        with mp.workdps(cfg.dps + 6):
            terms, _ = _dirichlet_terms(sm, K + J + 1)
            head = mp.mpc(0)
            sign = 1
            for n in range(1, K):
                head += sign * terms[n]
                sign = -sign
            partial = []
            acc = mp.mpc(0)
            sgn = 1
            for m_ in range(J + 1):
                acc += sgn * terms[K + m_]
                partial.append(acc)
                sgn = -sgn
            tail = _euler_average(partial, J)
            prev2 = _euler_average(partial, J - 1)
            denom = 1 - mp.power(2, 1 - sm)
            if abs(denom) < 1e-3:
                raise PrecisionExhausted("near a zero of 1 - 2^(1-s)")
            eta_err = float(abs(tail - prev2)) * 4
            val = (head + sign * tail) / denom
            err = (eta_err + 10.0 ** (-(cfg.dps + 2)) * (K + J)) / float(abs(denom))
            if err <= cfg.target_abs_tol:
                return ComplexValue(val.real, val.imag, err)
        K *= 2
        J += 40
    raise PrecisionExhausted("eta-series acceleration did not converge to tolerance")


def log_deriv_zeta(s, cfg: PrecisionConfig = DEFAULT_CONFIG,
                   zeros=None) -> ComplexValue:
    """zeta'(s)/zeta(s) with singularity guards against a zero table.

    Raises NearSingularity inside EXCLUSION_RADIUS of the pole s=1, a
    tabulated nontrivial zero 1/2 +- i gamma, or a trivial zero -2k. Between
    EXCLUSION_RADIUS and FLAG_RADIUS the value is returned with ``flag`` set.
    TableTooShort unless ``zeros`` reaches |Im s| + FLAG_RADIUS;
    PrecisionExhausted where zeta's error bound reaches |zeta|.
    """
    sc = complex(s)
    flag = None
    candidates = [("pole s=1", abs(sc - 1.0))]
    if zeros is not None:
        zeros.require_height(abs(sc.imag) + FLAG_RADIUS, "screening this point")
        if zeros.gammas:
            g = zeros.nearest_gamma(abs(sc.imag))
            d = math.hypot(sc.real - 0.5, abs(sc.imag) - g)
            candidates.append((f"zero 1/2+{g:.6f}i", d))
    if sc.real < -1.0:
        k = max(1, round(-sc.real / 2.0))
        candidates.append((f"trivial zero -{2 * k}",
                           math.hypot(sc.real + 2 * k, sc.imag)))
    which, dist = min(candidates, key=lambda c: c[1])
    if dist < EXCLUSION_RADIUS:
        raise NearSingularity(which, dist)
    if dist < FLAG_RADIUS:
        flag = f"within {FLAG_RADIUS:g} of {which}"
    # mpmath operands carry the engine's digits; so must their quotient
    with mp.workdps(_scalar_cfg(cfg).dps):
        ld, err = _log_deriv(*_zeta_and_prime(s, cfg, want_prime=True))
    return ComplexValue(ld.real, ld.imag, float(err), flag)


def digamma(s, cfg: PrecisionConfig = DEFAULT_CONFIG) -> ComplexValue:
    """psi(s) for every s but the poles 0, -1, -2, ...: reflection
    psi(s) = psi(1-s) - pi cot(pi s) for Re s < 1/2, then upward recurrence
    psi(w+1) = psi(w) + 1/w into the regime where the asymptotic series
    psi(w) ~ log w - 1/2w - sum B_2n/(2n w^2n) (A&S 6.3.18) meets the
    tolerance."""
    sc = complex(s)
    near = round(sc.real)
    if near <= 0 and abs(sc - near) < EXCLUSION_RADIUS:
        raise PoleAtNonpositiveInteger(f"digamma pole at {near}")
    if cfg.uses_f64:
        v, e = digamma_batch(np.array([sc]))
        return ComplexValue(v[0].real, v[0].imag, float(e[0]))
    R = max(10.0, 0.9 * cfg.working_digits)
    with mp.workdps(cfg.dps):
        sm = as_mpc(s)
        left = sc.real < 0.5
        w = 1 - sm if left else sm
        acc = mp.mpc(0)
        while abs(w) < R:
            acc -= 1 / w
            w += 1
        r = 1 / w
        acc += mp.log(w) - r / 2
        r2 = r * r
        p = r2
        tol = cfg.target_abs_tol
        err = None
        last = float("inf")
        for n in range(1, 64):
            term = (mp.bernoulli(2 * n) / (2 * n)) * p
            tmag = float(abs(term))
            if tmag > last:
                err = 2 * last
                break
            acc -= term
            p = p * r2
            last = tmag
            if tmag < tol / 8:
                err = 2 * tmag
                break
        if err is None or err > tol:
            raise PrecisionExhausted("digamma asymptotic series stalled above tolerance")
        err += 10.0 ** (-(cfg.dps - 3)) * (1 + float(abs(acc)))
        if left:
            d = sm - mp.nint(sm.real)
            cot = mp.pi * mp.cot(mp.pi * d)
            acc -= cot
            err += _reflection_err(abs(sc), float(abs(d)), float(abs(cot)),
                                   10.0 ** (-(cfg.dps - 2)))
        return ComplexValue(acc.real, acc.imag, err)


def xi(s, cfg: PrecisionConfig = DEFAULT_CONFIG) -> ComplexValue:
    """Completed zeta, xi(s) = 1/2 s(s-1) pi^(-s/2) Gamma(s/2) zeta(s).

    The pi^(-s/2) factor makes the reflection xi(s) = xi(1-s) exact; entire,
    so the pole of zeta and the Gamma poles are removable and handled via
    the Stieltjes expansion of (s-1) zeta(s) near s = 1 (and symmetry near
    s = 0).

    Error: 10^-(dps-6) (1 + |xi|) for the rounding, plus zeta's own bound
    times its prefactor; near s = 1, instead of zeta's bound, the omitted
    Stieltjes terms n >= 4. With Berndt's |gamma_n| <= 4 (n-1)! / pi^n
    (B. C. Berndt, "On the Hurwitz zeta-function", Rocky Mountain J. Math. 2
    (1972)), that tail is at most
    4|u| sum_{n>=4} (|u|/pi)^n / n <= |u| (|u|/pi)^4 / (1 - |u|/pi), u = s - 1.
    """
    with mp.workdps(cfg.dps):
        sm = as_mpc(s)
        if abs(complex(s)) < 1e-4:
            return xi(1 - sm, cfg)
        if abs(complex(sm - 1)) < 1e-4:
            u = sm - 1
            # (s-1) zeta(s) = 1 + sum (-1)^n gamma_n u^(n+1) / n!
            reg = mp.mpf(1)
            fac = mp.mpf(1)
            up = u
            for n_ in range(0, 4):
                reg += (-1) ** n_ * mp.stieltjes(n_) * up / fac
                up *= u
                fac *= n_ + 1
            pre = mp.power(mp.pi, -sm / 2) * mp.gamma(sm / 2 + 1)
            val = pre * reg
            au = float(abs(u))
            inner = au * (au / math.pi) ** 4 / (1.0 - au / math.pi)
        else:
            z = zeta(sm, cfg)
            pre = mp.mpf(1) / 2 * sm * (sm - 1) * mp.power(mp.pi, -sm / 2) \
                * mp.gamma(sm / 2)
            val = pre * mp.mpc(z.re, z.im)
            inner = z.abs_err
        err = float(abs(pre)) * inner + 10.0 ** (-(cfg.dps - 6)) * (1 + float(abs(val)))
        return ComplexValue(val.real, val.imag, err)


def principal_log_arg(z) -> Tuple[float, float]:
    """Principal branch: log z = log|z| + i arg(z) with arg in (-pi, pi]."""
    zc = complex(z)
    if zc == 0:
        raise ZeroArgument("principal log/arg of 0")
    a = math.atan2(zc.imag, zc.real)
    if a == -math.pi:
        a = math.pi
    return math.log(abs(zc)), a
