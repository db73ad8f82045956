"""Critical-line zero location, counting, zero-free bounds, and the table file.

Zeros are bracketed by sign changes of the rotated zeta

    Z(t) = exp(i theta(t)) zeta(1/2 + it),

which is real for real t. theta is the usual rotation phase with asymptotic
expansion

    theta(t) ~ t/2 log(t/2pi) - t/2 - pi/8 + 1/(48t) + 7/(5760 t^3) + ...

The search evaluates Z per point (``_z``) on a ladder of three rungs, and
reads each sign from the first rung whose declared error |Z| exceeds. From
t = RS_MIN_T up the first two use the Riemann-Siegel formula with
a = sqrt(t/2pi), N = floor(a), p = a - N,

    Z(t) = 2 sum_{n<=N} n^-1/2 cos(theta - t log n)
           + (-1)^(N-1) a^-1/2 sum_{k=0..6} C_k(p) a^-k + R(t),

about a terms instead of Euler-Maclaurin's ~t/2. Its declared error is
Gabcke's |R| <= 0.661 t^(-15/4) (t >= 200) plus the roundoff of the phases
theta - t log n, which grows like t log t units of the precision they are
formed in (``_rs_bound``, which derives the count):

1. Riemann-Siegel with double phases: 3.2e-9 at t = 2.4e4.
2. Riemann-Siegel with theta and t log n formed in long double and reduced
   mod 2pi there (2pi split in two, Cody-Waite), the cosine taken of the
   reduced double: 1.8e-12 at t = 2.4e4 with the x87 80-bit long double,
   and mostly Gabcke's term up to t ~ 2400. It runs where rung 1 fails but
   |Z| clears Gabcke's term, below which no phase precision can certify a
   sign. Where the long double is a double the two bounds are equal, the
   rung never runs, and nothing is gained.
3. Euler-Maclaurin (``zeta_batch``) below RS_MIN_T and everywhere else
   up to the double engine's ceiling _F64_MAX_T, rotated by the long double
   theta reduced mod 2pi, with ``zeta_batch``'s declared error.

``_z`` returns each value with the declared error of the rung that gave
it, and the search reads no sign where |Z| is within that error.

The search is driven by Gram points g_n, theta(g_n) = n pi, about one per
zero (Brent, Math. Comp. 33, 1979; van de Lune, te Riele and Winter, Math.
Comp. 46, 1986). Z is read at g_-1 = 9.67 up to the first good Gram point
at or above T, good meaning (-1)^n Z(g_n) > 0. Consecutive good Gram points
bound a Rosser block, and a block of k Gram intervals holds at least k
zeros (Rosser's rule, true below g_13,999,525). A block that shows fewer
sign changes has its subintervals halved until it shows k
(``_block_brackets``), or raises MissedZeroSuspected. Each sign change
then goes through one refinement loop (``_refine_brackets``): regula
falsi with Anderson-Bjorck scaling to COARSE_WIDTH, a point that lands on
a zero (|Z| within its error) being replaced by a pair around it; then
probe pairs c -+ d around a secant estimate c to a bracket of width at
most ORDINATE_ACCURACY/4. d is as wide as that width test allows after
rounding (``_PROBE_OFFSET``, 0.123 ORDINATE_ACCURACY), so that the probes'
|Z| is as large as it can be and Riemann-Siegel certifies more of them;
where c lies within d of an end, that end is one of the pair and is not
evaluated again. The ordinate is the secant root of the final bracket's
end values, clipped into it: inside a bracket no wider than
ORDINATE_ACCURACY/4 that holds the sign change, and in practice within
about 1e-12 of the zero. Ordinates above T are dropped. ``hardy_z`` is
the scalar front of the same Z for a double config, and the mpmath
engine's Z otherwise.

Completeness rests on Rosser's rule plus an audit of the census against
the counting estimate

    N(T) ~ (T/2pi) log(T/2pi) - T/2pi + 7/8,

whose O(log T) slack is covered by the classical explicit bound
|N(T) - estimate| <= 0.137 log T + 0.443 log log T + 4.35 (Backlund),
until an exact count N(T) by the argument principle replaces the audit.
"""
from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional, Tuple

import numpy as np
import mpmath as mp

from .errors import (
    AmbiguousHeight,
    ChecksumMismatch,
    DomainError,
    FormatError,
    MissedZeroSuspected,
    PrecisionExhausted,
    TableTooShort,
)
from .precision import DEFAULT_CONFIG, PrecisionConfig, as_mpc
from .special_functions import _F64_MAX_T, _scalar_cfg, zeta, zeta_batch

_TWO_PI = 2.0 * math.pi
_PI = "3.14159265358979323846264338327950288"  # parsed to each phase dtype
# 2pi = _TWO_PI_HI + _TWO_PI_LO: the first is 2pi cut to 32 bits, the second
# the rest to 36 digits, parsed to the phase dtype (``_as_double_phase``)
_TWO_PI_HI = 6.2831853069365025
_TWO_PI_LO = "2.43084020260247704059005768394338799e-10"
GAMMA_1 = 14.134725141734693  # first ordinate, for table sanity audits

SCAN_START = 6.0        # no zeros below gamma_1 ~ 14.13
ORDINATE_ACCURACY = 1e-9
COUNT_SLACK = 3         # allowed |census - estimate| in the audit
RS_MIN_T = 200.0        # Riemann-Siegel from here up (Gabcke's bound needs t >= 200)
COARSE_WIDTH = 1e-6     # regula falsi on the per-point Z stops at this width
_MAX_STEPS = 100        # refinement steps before PrecisionExhausted
_MAX_HALVINGS = 12      # Rosser block halvings before MissedZeroSuspected
_GRAM_CHUNK = 8         # Gram points added per step while the last is bad
# the final probes' offset d from the secant estimate c, as wide as keeps
# [fl(c - d), fl(c + d)] at most ORDINATE_ACCURACY/4 wide at every double
# c < 32768, whose ulp is ulp(_F64_MAX_T): rounding moves each end by at most
# half an ulp of c, so the bracket is at most 2d + ulp(_F64_MAX_T) wide.
# With ulp(2.5e4) = 2^-38, d = 1.2318e-10, 0.123 ORDINATE_ACCURACY; above
# 32768 a pair can come out wider and take another round.
_PROBE_OFFSET = 0.5 * (0.25 * ORDINATE_ACCURACY - float(np.spacing(_F64_MAX_T)))
# likewise the half-width h of a regula falsi point's pair x -+ h, so that
# the pair's bracket passes the COARSE_WIDTH test, and the least distance
# of such a point from the end replaced last
_PAIR_OFFSET = 0.5 * (COARSE_WIDTH - float(np.spacing(_F64_MAX_T)))

# theta asymptotic coefficients c_n = (1 - 2^(1-2n)) |B_2n| / (4n(2n-1))
_THETA_C = [float((1 - mp.mpf(2) ** (1 - 2 * n)) * abs(mp.bernoulli(2 * n))
                  / (4 * n * (2 * n - 1))) for n in range(1, 6)]


def backlund_count_bound(t: float) -> float:
    """Explicit bound on |N(t) - counting estimate| (valid for t >= 2)."""
    return 0.137 * math.log(t) + 0.443 * math.log(math.log(t)) + 4.35


# ---------------------------------------------------------------------------
# rotation phase and Hardy Z
# ---------------------------------------------------------------------------

def _theta(t, dtype=np.float64):
    """Asymptotic theta for t >= ~8, vectorized, formed in ``dtype``; error
    ~ c_6 / t^11 plus that dtype's roundoff (pi is parsed to its precision;
    the c_n are doubles, whose rounding weighs at most 1e-20 from
    t = RS_MIN_T up). The small terms are summed first, so that only two
    operations round at the size of theta (``_rs_bound``)."""
    t = np.asarray(t, dtype=dtype)
    pi = dtype(_PI)
    ti = 1.0 / t
    w = ti * ti
    series = np.zeros_like(t)
    for c in _THETA_C[::-1]:
        series = series * w + c
    return 0.5 * t * (np.log(t / (2 * pi)) - 1.0) + (series * ti - pi / 8)


def _as_double_phase(x: np.ndarray) -> np.ndarray:
    """A phase array as doubles with the same cosine and sine. A dtype no
    finer than a double is cast as it is (cos and sin take a double
    argument as it is). A finer one is reduced mod 2pi in its own precision
    first, with 2pi split in two (Cody-Waite): k = rint(x / _TWO_PI_HI),
    then (x - k _TWO_PI_HI) - k _TWO_PI_LO. The first difference is exact
    (k _TWO_PI_HI is, for |k| < 2^32), so 2pi's rounding no longer weighs
    |x|: the reduction costs at most 5 units of that dtype's roundoff
    (``_rs_bound``), and its extra bits survive the rounding to a double,
    which then adds at most 2^-51, 4 units of double roundoff."""
    if np.finfo(x.dtype).eps >= np.finfo(np.float64).eps:
        return x.astype(np.float64, copy=False)
    k = np.rint(x / _TWO_PI_HI)
    return ((x - k * _TWO_PI_HI) - k * x.dtype.type(_TWO_PI_LO)).astype(np.float64)


def riemann_siegel_theta(t, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Rotation phase theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi,
    exact to max(cfg.dps, 25) digits."""
    tf = float(t)
    if not 0 <= tf < math.inf:
        raise DomainError("theta defined here for finite t >= 0")
    with mp.workdps(max(cfg.dps, 25)):
        tm = mp.mpf(t)
        return mp.im(mp.loggamma(mp.mpf(1) / 4 + mp.mpc(0, 1) * tm / 2)) \
            - tm / 2 * mp.log(mp.pi)


def hardy_z(t, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Real rotated zeta Z(t); sign changes bracket critical-line zeros.

    With a double config from t = SCAN_START up this is the zero finder's
    own per-point Z (``_z``, its declared error dropped; above _F64_MAX_T,
    where only Riemann-Siegel applies, PrecisionExhausted where that fails
    to certify the sign). Otherwise
    exp(i theta) zeta(1/2+it) is formed by the mpmath engine (a double
    config promoted to 25 digits), and an imaginary residual above the
    combined zeta, theta and rounding bound raises PrecisionExhausted.
    """
    tf = float(t)
    if not 0 <= tf < math.inf:
        raise DomainError("hardy_z requires finite t >= 0")
    if cfg.uses_f64 and tf >= SCAN_START:
        (z,), (err,) = _z(np.array([tf]))
        if tf > _F64_MAX_T and abs(z) <= err:
            raise PrecisionExhausted(f"no rung certifies Z({tf!r})")
        return float(z)
    cfg = _scalar_cfg(cfg)
    th = riemann_siegel_theta(tf, cfg)
    with mp.workdps(cfg.dps):
        z = zeta(mp.mpc(0.5, tf), cfg)
        w = mp.exp(mp.mpc(0, 1) * th) * as_mpc(z)
    theta_err = 10.0 ** (-(cfg.dps - 5)) * (1 + abs(float(th)))
    unit = 10.0 ** (-(cfg.dps - 3))
    bound = z.abs_err + abs(complex(z)) * theta_err + unit * (1 + float(abs(w)))
    if abs(w.imag) > max(bound, 1e-9):
        raise PrecisionExhausted(
            f"rotated value has imaginary residual {float(abs(w.imag)):g} > bound {bound:g}")
    return w.real


# Riemann-Siegel corrections C_0..C_6 as Taylor polynomials in z = 2p - 1:
# row k holds the coefficients of z^(2i) for even k and of z^(2i+1) for odd
# k, i = 0, 1, ... (C_0, C_2, C_4, C_6 are even in z, C_1, C_3, C_5 odd).
# C_0 is Psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p), an entire
# function, and C_k = sum_j d_j^(k) Psi^(3k-4j) / pi^(2k-2j) (Gabcke 1979).
# Written out so that import does no mpmath work; each row stops where the
# omitted terms, weighted by a^-k at t = RS_MIN_T, are below 1e-18.
_RS_C = (
    np.array([
        0.3826834323650898, 0.43724046807752043, 0.1323765754803435,
        -0.013605026047674188, -0.013567621970103581, -0.0016237253231444653,
        0.0002970535373337969, 7.94330087952147e-05, 4.6556124614504504e-07,
        -1.4327251630955106e-06, -1.0354847112312946e-07, 1.2357927083861738e-08,
        1.7881083857954906e-09, -3.391414389927036e-11, -1.6326633902565907e-11,
        -3.7851093185412205e-13, 9.327423259201725e-14, 5.221843015978137e-15,
        -3.350673072744264e-16, -3.4124265228117265e-17]),
    np.array([
        -0.026825102628375348, 0.013784773426351853, 0.03849125048223508,
        0.009871066299062077, -0.0033107597608584044, -0.0014647808577954152,
        -1.3207940624876963e-05, 5.9227487018471416e-05, 5.980242585373449e-06,
        -9.641322456169826e-07, -1.8334733722714413e-07, 4.4670875627178334e-09,
        2.7096350821772744e-09, 7.785288654315851e-11, -2.343762601089369e-11,
        -1.5830172789987521e-12, 1.211994157372379e-13, 1.4583781161108306e-14,
        -2.878630525813192e-16, -8.662862902123724e-17]),
    np.array([
        0.005188542830293168, 0.00030946583880634744, -0.011335941078229373,
        0.0022330457419581446, 0.00519663740886233, 0.0003439914407620834,
        -0.0005910648427470583, -0.00010229972547935857, 2.0888392216992754e-05,
        5.927665493096536e-06, -1.6423838362436276e-07, -1.5161199700940684e-07,
        -5.907803698206668e-09, 2.0911514859478188e-09, 1.781564958329235e-10,
        -1.6164072455353832e-11, -2.3806962496667617e-12, 5.398265295542595e-14,
        1.9750142196969516e-14, 2.3332868732882633e-16, -1.118751761004808e-16]),
    np.array([
        -0.0013397160907194568, 0.003744215136379394, -0.0013303178919321468,
        -0.0022654660765471786, 0.0009548499998506731, 0.0006010038458963604,
        -0.00010128858286776622, -6.865733449299826e-05, 5.985366791538599e-07,
        3.331659851239947e-06, 2.1919289102435082e-07, -7.890884245681494e-08,
        -9.414685081295262e-09, 9.57011621088348e-10, 1.8763137453470662e-10,
        -4.4378376793233995e-12, -2.242673850561735e-12, -3.6276868657352434e-14,
        1.7639809550821582e-14, 7.960765246786778e-16]),
    np.array([
        0.00046483389361763383, -0.001005660736534047, 0.00024044856573725794,
        0.0010283086149702322, -0.0007657861071755644, -0.00020365286803084818,
        0.0002321229049106873, 3.2602144243865195e-05, -2.5579062517949524e-05,
        -4.107464438915745e-06, 1.1781113640371294e-06, 2.445656142248458e-07,
        -2.3915824767344323e-08, -7.505214207035756e-09, 1.3312279416258429e-10,
        1.344062675422562e-10, 3.513770042430486e-12, -1.519154453370392e-12,
        -8.915417681447087e-14, 1.1195891165228536e-14, 1.0516013329914816e-15]),
    np.array([
        0.00011343405922868681, 0.00013851558567147984, -0.0005068306017359404,
        0.00041222682854677667, 5.0212503923893044e-05, -0.00018583330293362498,
        2.750486803301064e-05, 3.156913243559333e-05, -4.2177259041220196e-06,
        -2.9158997804790636e-06, 1.5653784955844681e-07, 1.4652135593176926e-07,
        1.2200158650611429e-09, -4.161924475909784e-09, -2.0939812749734364e-10,
        7.083955086672488e-11, 6.023001444442243e-12, -7.454153644214176e-13,
        -9.432313173635468e-14]),
    np.array([
        3.369099840108094e-05, -0.00012182596819343517, 0.00021820650719505934,
        -0.00016619033454413337, -3.110176899016765e-05, 0.00012085816038756387,
        -4.51514678364552e-05, -1.8550769189257536e-05, 1.1616261484368335e-05,
        1.5516054414965867e-06, -1.173183613638087e-06, -1.2201406611672693e-07,
        5.938091048879949e-08, 7.0119971278102854e-09, -1.644509235965503e-09,
        -2.413847792012177e-10, 2.588538684310006e-11, 5.11928726139503e-12,
        -2.1541595758904304e-13, -7.134227452688869e-14]),
)
_UNIT_ROUNDOFF = 2.0 ** -53


def _gabcke(t: np.ndarray) -> np.ndarray:
    """Gabcke's bound on the Riemann-Siegel remainder after C_6 (t >= 200,
    Satz 4.2.3: d_6 t^(-15/4), d_6 = 0.661): below it no precision of the
    phases can certify a sign."""
    return 0.661 * t ** -3.75


def _rs_bound(t: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Declared error of ``_rs_z`` with its phases formed in ``dtype``:
    Gabcke's remainder bound plus the roundoff of the main sum, with
    N = floor(sqrt(t/2pi)).

    The phases are counted one rounding per operation, u = eps/2 of
    ``dtype`` each, a log as one ulp (2u), to first order. With
    A = t/2 log(t/2pi), M = t log N <= A and 0 < theta <= A (t >= RS_MIN_T):

    - ``_theta``: t/(2pi) (2u relative, pi parsed included), its log
      (2u + 2u log), minus 1 (u log), the product with t/2 (u (t + 4A) in
      all), the small terms -pi/8 + ... (u), their sum with it (u A):
      u (5A + t + 1).
    - theta - t log n: log n (2u log n), times t (3u M in all), the
      difference (u A), and one unit spare: u (6A + 3M + t + 2) so far.
    - For a dtype finer than a double, the reduction mod 2pi
      (``_as_double_phase``): x - k _TWO_PI_HI is exact; _TWO_PI_LO < 2^-31
      is rounded twice (parsed, then times k), less than u while
      |k| < 2^30, far above t = 2.5e4; the last difference rounds at
      |r| < 4, 4u.

    So each phase is off by at most u (6A + 3M + t + 7), a count that holds
    for both dtypes (a double spends 5 fewer units); a reduction by fmod
    with 2pi rounded to the dtype would cost u |theta - t log n| <= u A
    instead. The cosine is then taken of a double: within an ulp (2 u_64,
    u_64 = 2^-53), after the rounding of a reduced phase to a double
    (4 u_64), with weights n^-1/2 rounded twice (2 u_64); the dot product
    adds N u_64 of the sum of its terms (Higham's gamma_N), and the
    corrections and the last additions a few u_64 of |Z| <= 4 sqrt(N). The
    weights sum to 2 sum n^-1/2 < 4 sqrt(N), so

        error <= 0.661 t^-3.75
                 + 4 sqrt(N) u_64 ((6A + 3M + t + 7) u/u_64 + N + 12).

    In doubles the phase term dominates from t ~ 630 up: 3.2e-9 at
    t = 2.4e4, against 1.8e-12 in the x87 80-bit long double (u = 2^-64),
    where Gabcke's term is most of the bound up to t ~ 2400. Where the long
    double is a double, u/u_64 = 1 and the two bounds are the same
    numbers."""
    N = np.floor(np.sqrt(t / _TWO_PI))
    units = float(np.finfo(dtype).eps / np.finfo(np.float64).eps)  # u / u_64
    roundoff = 4.0 * np.sqrt(N) * _UNIT_ROUNDOFF * (_phase_count(t) * units + N + 12.0)
    return _gabcke(t) + roundoff


def _phase_count(t: np.ndarray) -> np.ndarray:
    """6A + 3M + t + 7: the units of its dtype's roundoff by which each
    phase of ``_rs_phases`` may be off (derived in ``_rs_bound``)."""
    A = 0.5 * t * np.log(t / _TWO_PI)
    M = t * np.log(np.floor(np.sqrt(t / _TWO_PI)))
    return 6.0 * A + 3.0 * M + t + 7.0


def _rs_phases(th: np.ndarray, t: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The main sum's phases theta(t) - t log n, t by n, formed in the dtype
    of th = ``_theta(t, dtype)`` and given as doubles (``_as_double_phase``)."""
    return _as_double_phase(th[:, None] - np.multiply.outer(
        np.asarray(t, th.dtype), np.log(np.asarray(n, th.dtype))))


def _rs_z(t: np.ndarray, dtype=np.float64):
    """(Z, declared error) by Riemann-Siegel with C_0..C_6, for
    t >= RS_MIN_T, with theta and t log n formed in ``dtype``."""
    a = np.sqrt(t / _TWO_PI)
    N = np.floor(a)
    Ni = N.astype(np.int64)
    th = _theta(t, dtype)
    main = np.empty_like(t)
    for n_top in np.unique(Ni):
        idx = np.nonzero(Ni == n_top)[0]
        n = np.arange(1, n_top + 1, dtype=np.float64)
        main[idx] = np.cos(_rs_phases(th[idx], t[idx], n)) @ (1.0 / np.sqrt(n))
    z = 2.0 * (a - N) - 1.0
    w = z * z
    ainv = 1.0 / a
    corr = np.zeros_like(t)
    for k in range(len(_RS_C) - 1, -1, -1):
        c = np.zeros_like(t)
        for coef in _RS_C[k][::-1]:
            c = c * w + coef
        corr = corr * ainv + (c * z if k % 2 else c)
    sign = np.where(Ni % 2 == 1, 1.0, -1.0)
    return 2.0 * main + sign * np.sqrt(ainv) * corr, _rs_bound(t, dtype)


def _z(ts: np.ndarray):
    """(Z, declared error) at each height, from the first rung of a
    three-rung ladder whose declared error |Z| exceeds:

    1. Riemann-Siegel with double phases, where t >= RS_MIN_T;
    2. Riemann-Siegel with theta and t log n in long double, reduced mod 2pi
       there, where rung 1 fails but |Z| exceeds Gabcke's term and the long
       double bound is below the double one (never, where the long double
       is a double);
    3. Euler-Maclaurin (``zeta_batch`` on the double engine,
       SCAN_START <= t <= _F64_MAX_T) everywhere else, rotated by the long
       double theta reduced mod 2pi. Its error is ``zeta_batch``'s bound on
       zeta plus 8 u_64 |zeta| for the rotation's cosine, sine, two products
       and difference; the phase's own error delta only scales Z by
       cos delta.

    A point where |Z| is at or below the error of the last rung it reached
    (above _F64_MAX_T, a Riemann-Siegel one) has no certified sign: the
    callers never read one."""
    ts = np.asarray(ts, dtype=np.float64)
    z, err = np.empty_like(ts), np.empty_like(ts)
    rs = np.nonzero(ts >= RS_MIN_T)[0]
    em = np.ones(len(ts), dtype=bool)
    if len(rs):
        t = ts[rs]
        z[rs], err[rs] = _rs_z(t)
        em[rs] = np.abs(z[rs]) <= err[rs]
        ext = rs[em[rs] & (np.abs(z[rs]) > _gabcke(t))
                 & (_rs_bound(t, np.longdouble) < err[rs])]
        if len(ext):
            z[ext], err[ext] = _rs_z(ts[ext], np.longdouble)
            em[ext] = np.abs(z[ext]) <= err[ext]
    em &= ts <= _F64_MAX_T
    if em.any():
        vals, _, errs, _ = zeta_batch(0.5 + 1j * ts[em])
        th = _as_double_phase(_theta(ts[em], np.longdouble))
        z[em] = (np.exp(1j * th) * vals).real
        err[em] = errs + 8.0 * _UNIT_ROUNDOFF * np.abs(vals)
    return z, err


def _certified_z(ts: np.ndarray) -> np.ndarray:
    """Z at each height (``_z``); PrecisionExhausted where no rung
    certifies its sign."""
    z, err = _z(ts)
    bad = np.abs(z) <= err
    if bad.any():
        raise PrecisionExhausted(
            f"no rung certifies the sign of Z at t = {ts[bad][0]!r}")
    return z


# ---------------------------------------------------------------------------
# zero table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroTable:
    """Sorted positive ordinates of critical-line zeros.

    ``max_height`` is a completeness guarantee: every zero with
    0 < gamma <= max_height is present. ``accuracy`` is the per-ordinate
    absolute error.
    """

    gammas: Tuple[float, ...]
    accuracy: float
    max_height: float

    def __post_init__(self):
        fault = _table_fault(self.gammas, self.accuracy, self.max_height)
        if fault:
            raise ValueError(fault[1])

    def __len__(self) -> int:
        return len(self.gammas)

    def count_below(self, T: float) -> int:
        return bisect_left(self.gammas, T)

    def require_height(self, height: float, what: str) -> None:
        """TableTooShort unless complete up to ``height``, which ``what`` needs."""
        if not height <= self.max_height:
            raise TableTooShort(f"zero table reaches {self.max_height:g}; "
                                f"{what} needs {height:g}")

    @cached_property
    def _ordinates(self) -> np.ndarray:
        """``gammas`` as a read-only float64 array, built on first use and
        kept with the table (outside its fields, so equality is unchanged)."""
        g = np.array(self.gammas, dtype=np.float64)
        g.flags.writeable = False
        return g

    def nearest_gamma(self, t):
        """The tabulated ordinate nearest to t, elementwise over an array (a
        float for a scalar t); ties go to the lower ordinate, and an empty
        table gives inf."""
        t = np.asarray(t, dtype=np.float64)
        if not self.gammas:
            near = np.full(t.shape, math.inf)
        else:
            g = self._ordinates
            i = np.searchsorted(g, t)  # the first ordinate >= t
            lo, hi = g[np.maximum(i - 1, 0)], g[np.minimum(i, len(g) - 1)]
            near = np.where(np.abs(t - lo) <= np.abs(t - hi), lo, hi)
        return float(near) if near.ndim == 0 else near

    def audit(self) -> None:
        """Completeness and sanity audit; raises MissedZeroSuspected."""
        if self.max_height >= 15 and (
                not self.gammas or abs(self.gammas[0] - GAMMA_1) > 1e-3):
            raise MissedZeroSuspected("first ordinate does not match gamma_1")
        for a, b in zip(self.gammas, self.gammas[1:]):
            if b - a <= 10 * self.accuracy:
                raise MissedZeroSuspected(f"ordinates {a} and {b} inside accuracy")
        if self.max_height > _TWO_PI + 1:
            est = mangoldt_estimate(self.max_height)
            if abs(len(self.gammas) - est) > COUNT_SLACK:
                raise MissedZeroSuspected(
                    f"census {len(self.gammas)} vs estimate {est:.2f} at "
                    f"T={self.max_height}")


def _table_fault(gammas, accuracy, max_height) -> Optional[Tuple[int, str]]:
    """The first fault of a table as (line, message), the line being where
    the field sits in a table file (``save_table``); None for a sound table.
    Comparisons are written so that nan fails them."""
    if not 0 < accuracy < math.inf:
        return 2, f"accuracy {accuracy!r} is not positive and finite"
    if not math.isfinite(max_height):
        return 3, f"max_height {max_height!r} is not finite"
    prev = 0.0
    for line, g in enumerate(gammas, start=4):
        if not g > prev:
            return line, f"ordinate {g!r} is not positive and above the one before"
        if g > max_height + accuracy:
            return line, f"ordinate {g!r} above max_height"
        prev = g
    return None


def save_table(table: ZeroTable, path) -> None:
    """Write the table: 'zctab v1' header, accuracy, max_height, one ordinate
    per line, then an sha256 footer over all preceding bytes."""
    lines = ["zctab v1",
             f"accuracy={table.accuracy!r}",
             f"max_height={table.max_height!r}"]
    lines.extend(f"{g!r}" for g in table.gammas)
    body = ("\n".join(lines) + "\n").encode("ascii")
    digest = hashlib.sha256(body).hexdigest()
    Path(path).write_bytes(body + f"sha256={digest}\n".encode("ascii"))


def load_table(path) -> ZeroTable:
    raw = Path(path).read_bytes()
    text = raw.decode("ascii", errors="replace")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 4:
        raise FormatError(max(1, len(lines)), "truncated table file")
    if lines[0] != "zctab v1":
        raise FormatError(1, f"bad magic {lines[0]!r}")
    accuracy = _header(lines, 2, "accuracy")
    max_height = _header(lines, 3, "max_height")
    footer = lines[-1]
    if not footer.startswith("sha256="):
        raise FormatError(len(lines), "missing sha256 footer")
    body_len = len(raw) - len((footer + "\n").encode("ascii"))
    digest = hashlib.sha256(raw[:body_len]).hexdigest()
    if digest != footer[len("sha256="):]:
        raise ChecksumMismatch(f"expected {footer[7:]}, computed {digest}")
    gammas = []
    for i, line in enumerate(lines[3:-1], start=4):
        try:
            gammas.append(float(line))
        except ValueError:
            raise FormatError(i, f"bad ordinate {line!r}") from None
    try:
        return ZeroTable(tuple(gammas), accuracy, max_height)
    except ValueError:
        raise FormatError(*_table_fault(gammas, accuracy, max_height)) from None


def _header(lines, line: int, key: str) -> float:
    """The number on header line ``line`` (1-based), written ``key=value``."""
    text = lines[line - 1]
    if not text.startswith(key + "="):
        raise FormatError(line, f"missing {key} header")
    try:
        return float(text[len(key) + 1:])
    except ValueError as e:
        raise FormatError(line, str(e)) from None


# ---------------------------------------------------------------------------
# search, count, estimate, zero-free bounds
# ---------------------------------------------------------------------------

def _gram_points(n: np.ndarray) -> np.ndarray:
    """Gram points g_n, theta(g_n) = n pi, for integers n >= -1, as doubles.

    Newton on ``_theta`` with theta' taken as its leading term
    1/2 log(t/2pi), which exceeds theta' by 1/(48t^2) + ..., from
    t = 2pi(n + 1/8 + e): above g_n, since the leading terms of theta put g_n
    at 2pi e exp(W((n + 1/8)/e)) and exp(W(y)) <= 1 + y. theta is increasing
    and convex there, so the iterates fall to g_n without overshooting. The
    steps run in doubles until they are below 1e-6, then twice in long
    double, whose theta at t = 2.5e4 is good to about 3e-14: within an ulp
    of g_n after the rounding to a double."""
    n = np.asarray(n)
    t = _TWO_PI * (n + 0.125 + math.e)
    for _ in range(_MAX_STEPS):
        step = (_theta(t) - n * math.pi) / (0.5 * np.log(t / _TWO_PI))
        t = t - step
        if np.all(np.abs(step) < 1e-6):
            break
    ld = np.longdouble
    t, target = t.astype(ld), n.astype(ld) * ld(_PI)
    for _ in range(2):
        t = t - (_theta(t, ld) - target) / (0.5 * np.log(t / (2 * ld(_PI))))
    return t.astype(np.float64)


def _gram_signs(T: float):
    """Gram points g_n and certified Z(g_n) for n = -1, 0, ... up to the
    first good Gram point at or above T, one where (-1)^n Z(g_n) > 0, and
    whether each is good."""
    n = np.arange(-1, math.ceil(float(_theta(T)) / math.pi) + 1)
    g = _gram_points(n)
    z = _certified_z(g)
    while True:
        good = np.signbit(z) == (n % 2 == 1)
        top = np.nonzero(good & (g >= T))[0]
        if len(top):
            k = top[0] + 1
            return g[:k], z[:k], good[:k]
        more = np.arange(n[-1] + 1, n[-1] + 1 + _GRAM_CHUNK)
        n, g = np.append(n, more), np.append(g, _gram_points(more))
        z = np.append(z, _certified_z(g[-_GRAM_CHUNK:]))


def _block_brackets(T: float):
    """Brackets [lo, hi] with their end values, one per sign change of Z in
    the Rosser blocks that cover (0, T], the ones with lo >= T left out.

    A Rosser block runs between consecutive good Gram points g_a < g_b
    (``_gram_signs``; g_-1 = 9.67 is good, as Z < 0 below gamma_1) and
    spans b - a Gram intervals. Rosser's rule, that such a block holds at
    least b - a zeros, holds below g_13,999,525 (the first exception). The
    signs at the Gram points show one sign change per interval where Gram's
    law holds; a block that shows fewer has every subinterval halved, all
    short blocks in one ``_z`` call per round, until it shows one per Gram
    interval. A block still short after _MAX_HALVINGS rounds raises
    MissedZeroSuspected, and a point that no rung certifies
    PrecisionExhausted."""
    ts, zs, good = _gram_signs(T)
    need = np.diff(np.nonzero(good)[0])  # Gram intervals per block
    block = np.cumsum(good[:-1]) - 1     # the block of [ts[j], ts[j + 1]]
    for halvings in range(_MAX_HALVINGS + 1):
        change = np.signbit(zs[1:]) != np.signbit(zs[:-1])
        short = np.bincount(block, weights=change, minlength=len(need)) < need
        if not short.any():
            j = np.nonzero(change & (ts[:-1] < T))[0]
            return ts[j], ts[j + 1], zs[j], zs[j + 1]
        if halvings == _MAX_HALVINGS:
            break
        j = np.nonzero(short[block])[0]
        mid = 0.5 * (ts[j] + ts[j + 1])
        ts = np.insert(ts, j + 1, mid)
        zs = np.insert(zs, j + 1, _certified_z(mid))
        block = np.insert(block, j + 1, block[j])
    first = float(ts[np.searchsorted(block, np.argmax(short))])
    raise MissedZeroSuspected(
        f"{np.count_nonzero(short)} Rosser blocks show fewer sign changes "
        f"than Gram intervals after {_MAX_HALVINGS} halvings, the first "
        f"from t = {first!r}")


def _pair(lo, hi, c, w):
    """The pair c -+ w inside brackets [lo, hi] wider than 2w: where c lies
    within w of an end, that end is one of the pair and the other sits 2w
    from it. Returns the pair and, for each of its two points, whether it
    is new (not an end)."""
    at_lo, at_hi = c < lo + w, c > hi - w  # never both: width > 2w
    a = np.where(at_lo, lo, np.where(at_hi, hi - 2 * w, c - w))
    b = np.where(at_hi, hi, np.where(at_lo, lo + 2 * w, c + w))
    return a, b, ~at_lo, ~at_hi


def _narrow(lo, hi, zlo, zhi, j, a, b, new_a, new_b, z_new):
    """Narrow brackets j in place to whichever of [lo, a], [a, b] and
    [b, hi] holds their sign change, given a pair a < b from ``_pair`` and
    Z at its new points, z_new (the a's first); a point that is an end has
    that end's value."""
    fa, fb = zlo[j].copy(), zhi[j].copy()
    fa[new_a], fb[new_b] = np.split(z_new, [np.count_nonzero(new_a)])
    left = np.signbit(fa) != np.signbit(zlo[j])
    right = ~left & (np.signbit(fb) == np.signbit(fa))
    mid = ~left & ~right
    lo[j], zlo[j], hi[j], zhi[j] = (
        np.where(left, lo[j], np.where(mid, a, b)),
        np.where(left, zlo[j], np.where(mid, fa, fb)),
        np.where(left, a, np.where(mid, b, hi[j])),
        np.where(left, fa, np.where(mid, fb, zhi[j])))


def _refine_brackets(lo, hi, zlo, zhi):
    """Ordinates from brackets [lo, hi] whose ends carry certified Z values
    zlo, zhi. Every round makes one ``_z`` call with a point for each
    bracket still too wide:

    - wider than COARSE_WIDTH, an Anderson-Bjorck regula falsi point. It
      replaces the end of its own sign; an end kept twice in a row has its
      working value scaled by m = 1 - Z(x)/Z(replaced end), or by 1/2 where
      m <= 0. A point closer than h = ``_PAIR_OFFSET`` (just under
      COARSE_WIDTH/2) to the end replaced last moves to that distance, so
      that it can land past the zero and close the bracket. A point whose
      |Z| is within its declared error sits on a zero: it is replaced by
      the pair x -+ h, evaluated in a second call, which brackets that zero
      in a bracket that passes the COARSE_WIDTH test.
    - wider than ORDINATE_ACCURACY/4, the probes x - d and x + d,
      d = ``_PROBE_OFFSET``, around the secant estimate x from the end
      values. The bracket becomes whichever of [lo, x - d], [x - d, x + d]
      and [x + d, hi] holds the sign change; where the first pair
      straddles the zero, that takes two points. Where x lies within d of
      an end, that end is one probe and the other sits 2d from it, so only
      one new point is evaluated and no end is evaluated twice.

    Every sign read is certified (a probe or pair point that no rung
    certifies raises PrecisionExhausted). Returns the secant root of each
    final bracket's end values, clipped into the bracket: an ordinate
    inside a bracket no wider than ORDINATE_ACCURACY/4 that holds the sign
    change, at no extra evaluation."""
    lo, hi, zlo, zhi = lo.copy(), hi.copy(), zlo.copy(), zhi.copy()
    flo, fhi = zlo.copy(), zhi.copy()  # Anderson-Bjorck working values
    last = np.zeros(len(lo), dtype=np.int8)  # end replaced last: -1 lo, 1 hi
    h, d = _PAIR_OFFSET, _PROBE_OFFSET
    for _ in range(_MAX_STEPS):
        width = hi - lo
        i = np.nonzero(width > COARSE_WIDTH)[0]
        p = np.nonzero((width <= COARSE_WIDTH) & (width > 0.25 * ORDINATE_ACCURACY))[0]
        if not len(i) + len(p):
            return np.clip(lo - zlo * (hi - lo) / (zhi - zlo), lo, hi)
        x = hi[i] - fhi[i] * (hi[i] - lo[i]) / (fhi[i] - flo[i])
        x = np.where((last[i] == 1) & (x > hi[i] - h), hi[i] - h, x)
        x = np.where((last[i] == -1) & (x < lo[i] + h), lo[i] + h, x)
        c = lo[p] - zlo[p] * (hi[p] - lo[p]) / (zhi[p] - zlo[p])
        a, b, new_a, new_b = _pair(lo[p], hi[p], c, d)
        z, err = _z(np.concatenate([x, a[new_a], b[new_b]]))
        zx, ex, zp, ep = z[:len(i)], err[:len(i)], z[len(i):], err[len(i):]
        if np.any(np.abs(zp) <= ep):
            raise PrecisionExhausted("no rung certifies the sign of a probe")
        _narrow(lo, hi, zlo, zhi, p, a, b, new_a, new_b, zp)

        on_zero = np.abs(zx) <= ex
        k = i[on_zero]
        if len(k):
            a, b, new_a, new_b = _pair(lo[k], hi[k], x[on_zero], h)
            _narrow(lo, hi, zlo, zhi, k, a, b, new_a, new_b,
                    _certified_z(np.concatenate([a[new_a], b[new_b]])))
            flo[k], fhi[k], last[k] = zlo[k], zhi[k], 0

        i, x, fx = i[~on_zero], x[~on_zero], zx[~on_zero]
        to_hi = np.signbit(fx) == np.signbit(fhi[i])
        j, k = i[to_hi], i[~to_hi]
        again_j, again_k = last[j] == 1, last[k] == -1
        m = 1.0 - fx[to_hi][again_j] / fhi[j[again_j]]
        flo[j[again_j]] *= np.where(m > 0, m, 0.5)
        m = 1.0 - fx[~to_hi][again_k] / flo[k[again_k]]
        fhi[k[again_k]] *= np.where(m > 0, m, 0.5)
        hi[j], zhi[j], fhi[j], last[j] = x[to_hi], fx[to_hi], fx[to_hi], 1
        lo[k], zlo[k], flo[k], last[k] = x[~to_hi], fx[~to_hi], fx[~to_hi], -1
    wide = np.count_nonzero(hi - lo > 0.25 * ORDINATE_ACCURACY)
    raise PrecisionExhausted(f"{wide} brackets did not narrow to "
                             f"{0.25 * ORDINATE_ACCURACY:g}")


def find_zeros_up_to(T: float) -> ZeroTable:
    """All ordinates in (0, T] to 1e-9, complete to max_height = T.

    Z (Riemann-Siegel in double, then in long double phases, and
    Euler-Maclaurin below RS_MIN_T and inside both declared errors) is read
    at the Gram points up to the first good one at or above T, and each
    Rosser block is searched until it shows one sign change per Gram
    interval (``_block_brackets``). Regula falsi and secant probes on the
    same Z then narrow each sign change to a bracket of width
    ORDINATE_ACCURACY/4 (``_refine_brackets``), and ordinates above T are
    dropped. Every sign read is certified by the rung that gave it.

    Completeness rests on Rosser's rule, which holds below g_13,999,525,
    far above the double engine's ceiling, plus the audit against the
    counting estimate (MissedZeroSuspected), until an exact count N(T)
    replaces that audit.
    """
    if not 10 <= T < math.inf:
        raise DomainError("find_zeros_up_to requires finite T >= 10")
    gammas = _refine_brackets(*_block_brackets(T))
    table = ZeroTable(tuple(float(g) for g in gammas if g <= T),
                      ORDINATE_ACCURACY, float(T))
    table.audit()
    return table


def count_zeros(T: float, table: ZeroTable) -> int:
    """The table's census: how many of its ordinates lie in (0, T). It is
    the zero count N(T) as far as the table is complete (``max_height``),
    not a count by the argument principle.

    Raises TableTooShort when the table is not complete up to T, and
    AmbiguousHeight when T sits within table accuracy of an ordinate.
    """
    if not 0 < T < math.inf:
        raise DomainError("count_zeros requires finite T > 0")
    table.require_height(T, f"count_zeros({T:g})")
    g = table.nearest_gamma(T)
    if abs(g - T) <= table.accuracy:
        raise AmbiguousHeight(f"T={T} within accuracy of ordinate {g}")
    return table.count_below(T)


def mangoldt_estimate(T: float) -> float:
    """Counting main term (T/2pi) log(T/2pi) - T/2pi + 7/8."""
    if not _TWO_PI < T < math.inf:
        raise DomainError("estimate requires finite T > 2 pi")
    x = T / _TWO_PI
    return x * math.log(x) - x + 7.0 / 8.0


@dataclass(frozen=True)
class ZeroFreeBoundReport:
    """sigma thresholds to the right of which no zero exists at height t."""

    t: float
    ford_sigma: float
    mt_sigma: float

    def admits_critical_line(self) -> bool:
        # All tabulated zeros have sigma = 1/2, strictly left of both bounds.
        return 0.5 < self.ford_sigma < 1.0 and 0.5 < self.mt_sigma < 1.0


def zero_free_bounds(t: float) -> ZeroFreeBoundReport:
    """Zero-free thresholds: 1 - 1/(57.54 (log t)^(2/3) (log log t)^(1/3))
    and 1 - 1/(5.573412 log t), the latter for |t| > 2."""
    ta = abs(t)
    if not 2 < ta < math.inf:
        raise DomainError("the log-reciprocal bound requires finite |t| > 2")
    if ta <= math.e:
        raise DomainError("the (log)^{2/3} bound requires log log t > 0, t > e")
    lt = math.log(ta)
    ford = 1.0 - 1.0 / (57.54 * lt ** (2.0 / 3.0) * math.log(lt) ** (1.0 / 3.0))
    mt = 1.0 - 1.0 / (5.573412 * lt)
    return ZeroFreeBoundReport(t=t, ford_sigma=ford, mt_sigma=mt)
