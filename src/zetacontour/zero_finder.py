"""Critical-line zero location, counting, zero-free bounds, and the table file.

Zeros are bracketed by sign changes of the rotated zeta

    Z(t) = exp(i theta(t)) zeta(1/2 + it),

which is real for real t. theta is the usual rotation phase with asymptotic
expansion

    theta(t) ~ t/2 log(t/2pi) - t/2 - pi/8 + 1/(48t) + 7/(5760 t^3) + ...

The search evaluates Z in double precision, per point by one of two engines.
From t = RS_MIN_T up it uses the Riemann-Siegel formula with a = sqrt(t/2pi),
N = floor(a), p = a - N,

    Z(t) = 2 sum_{n<=N} n^-1/2 cos(theta - t log n)
           + (-1)^(N-1) a^-1/2 sum_{k=0..4} C_k(p) a^-k + R(t),

about a terms instead of Euler-Maclaurin's ~t/2. Its declared error is
Gabcke's |R| <= 0.017 t^(-11/4) (t >= 200) plus the double-precision phase
roundoff of the main sum. Below RS_MIN_T, and wherever |Z| does not exceed
that declared error, the point is re-evaluated by Euler-Maclaurin
(``zeta_batch``), so no sign is ever read from inside the Riemann-Siegel
error. The grid scan at SCAN_STEP and an Illinois regula falsi down to
brackets of width ~1e-6 use this per-point Z. Each bracket is then finished
in Euler-Maclaurin alone: a secant estimate, and a sign-change bracket of
width <= ORDINATE_ACCURACY/4 whose endpoint signs are both Euler-Maclaurin
values; its midpoint is the ordinate. The search certifies with that
Euler-Maclaurin Z (``_em_z``); ``hardy_z`` is the scalar Z at a configured
precision, for callers and checks, and the search never uses it.

Completeness is audited against the counting estimate

    N(T) ~ (T/2pi) log(T/2pi) - T/2pi + 7/8,

whose O(log T) slack is covered by the classical explicit bound
|N(T) - estimate| <= 0.137 log T + 0.443 log log T + 4.35 (Backlund).
"""
from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from dataclasses import dataclass
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
from .precision import DEFAULT_CONFIG, FAST_CONFIG, PrecisionConfig, as_mpc
from .special_functions import zeta, zeta_batch

_TWO_PI = 2.0 * math.pi
GAMMA_1 = 14.134725141734693  # first ordinate, for table sanity audits

SCAN_STEP = 0.05        # grid step; smallest gap between desk-scale zeros is ~0.16
SCAN_START = 6.0        # no zeros below gamma_1 ~ 14.13
ORDINATE_ACCURACY = 1e-9
COUNT_SLACK = 3         # allowed |census - estimate| before a rescan
RS_MIN_T = 200.0        # Riemann-Siegel from here up (Gabcke's bound needs t >= 200)
COARSE_WIDTH = 1e-6     # regula falsi on the per-point Z stops at this width
_MAX_STEPS = 100        # refinement steps before PrecisionExhausted

# theta asymptotic coefficients c_n = (1 - 2^(1-2n)) |B_2n| / (4n(2n-1))
_THETA_C = [float((1 - mp.mpf(2) ** (1 - 2 * n)) * abs(mp.bernoulli(2 * n))
                  / (4 * n * (2 * n - 1))) for n in range(1, 7)]


def backlund_count_bound(t: float) -> float:
    """Explicit bound on |N(t) - counting estimate| (valid for t >= 2)."""
    return 0.137 * math.log(t) + 0.443 * math.log(math.log(t)) + 4.35


# ---------------------------------------------------------------------------
# rotation phase and Hardy Z
# ---------------------------------------------------------------------------

def _theta_f64(t):
    """Asymptotic theta for t >= ~8, vectorized; error ~ c_6 / t^11."""
    t = np.asarray(t, dtype=np.float64)
    th = 0.5 * t * np.log(t / _TWO_PI) - 0.5 * t - math.pi / 8
    ti = 1.0 / t
    p = ti
    for c in _THETA_C[:5]:
        th = th + c * p
        p = p * ti * ti
    return th


def riemann_siegel_theta(t, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Rotation phase theta(t): the asymptotic series ``_theta_f64`` on the
    double engine from t = 8 up, otherwise the log-gamma form
    Im log Gamma(1/4 + it/2) - (t/2) log pi, exact to the working digits."""
    tf = float(t)
    if tf < 0:
        raise DomainError("theta defined here for t >= 0")
    if cfg.uses_f64 and tf >= 8.0:
        return float(_theta_f64(tf))
    with mp.workdps(max(cfg.dps, 25)):
        tm = mp.mpf(t)
        return mp.im(mp.loggamma(mp.mpf(1) / 4 + mp.mpc(0, 1) * tm / 2)) \
            - tm / 2 * mp.log(mp.pi)


def hardy_z_components(t, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """(value, imag_residual, err_bound) of the rotated zeta at height t.

    The imaginary residual of exp(i theta) zeta(1/2+it) measures the combined
    phase/evaluation error; realness holds within err_bound. On the mpmath
    engine theta carries only rounding, relative to its own size.
    """
    tf = float(t)
    if tf < 0:
        raise DomainError("hardy_z requires t >= 0")
    th = riemann_siegel_theta(tf, cfg)
    if cfg.uses_f64:
        z = zeta(complex(0.5, tf), cfg)
        w = complex(math.cos(th), math.sin(th)) * complex(z)
        theta_err = (_THETA_C[5] / tf ** 11) if tf >= 8.0 else 1e-14
        unit = 1e-15
    else:
        with mp.workdps(cfg.dps):
            z = zeta(mp.mpc(0.5, tf), cfg)
            w = mp.exp(mp.mpc(0, 1) * th) * as_mpc(z)
        theta_err = 10.0 ** (-(cfg.dps - 5)) * (1 + abs(float(th)))
        unit = 10.0 ** (-(cfg.dps - 3))
    bound = z.abs_err + abs(complex(z)) * theta_err + unit * (1 + float(abs(w)))
    return w.real, float(abs(w.imag)), bound


def hardy_z(t, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Real rotated zeta Z(t); sign changes bracket critical-line zeros."""
    value, imag_resid, bound = hardy_z_components(t, cfg)
    if imag_resid > max(bound, 1e-9):
        raise PrecisionExhausted(
            f"rotated value has imaginary residual {imag_resid:g} > bound {bound:g}")
    return value


# Riemann-Siegel corrections C_0..C_4 as Taylor polynomials in z = 2p - 1:
# row k holds the coefficients of z^(2i) for even k and of z^(2i+1) for odd
# k, i = 0, 1, ... (C_0, C_2, C_4 are even in z, C_1, C_3 odd). C_0 is
# Psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p), an entire function, and
# C_1..C_4 are the usual combinations of its derivatives (Gabcke 1979).
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
)
_UNIT_ROUNDOFF = 2.0 ** -53


def _rs_bound(t: np.ndarray, N: np.ndarray) -> np.ndarray:
    """Declared error of ``_rs_z``: Gabcke's remainder bound after C_4 plus
    the roundoff of the main sum. Each phase theta - t log n is formed from
    numbers of size up to t/2 (log(t/2pi) + 1) + t log N, so it carries an
    absolute error of a few units of roundoff times that; the weights sum to
    2 sum n^-1/2 < 4 sqrt(N). The N + 4 covers the cosines, the summation
    and the corrections."""
    phase = 0.5 * t * (np.log(t / _TWO_PI) + 1.0) + 1.0 + t * np.log(N)
    roundoff = 4.0 * np.sqrt(N) * _UNIT_ROUNDOFF * (4.0 * phase + N + 4.0)
    return 0.017 * t ** -2.75 + roundoff


def _rs_z(t: np.ndarray):
    """(Z, declared error) by Riemann-Siegel with C_0..C_4, for t >= RS_MIN_T."""
    a = np.sqrt(t / _TWO_PI)
    N = np.floor(a)
    Ni = N.astype(np.int64)
    th = _theta_f64(t)
    main = np.empty_like(t)
    for n_top in np.unique(Ni):
        idx = np.nonzero(Ni == n_top)[0]
        n = np.arange(1, n_top + 1, dtype=np.float64)
        phases = th[idx, None] - np.multiply.outer(t[idx], np.log(n))
        main[idx] = np.cos(phases) @ (1.0 / np.sqrt(n))
    z = 2.0 * (a - N) - 1.0
    w = z * z
    ainv = 1.0 / a
    corr = np.zeros_like(t)
    for k in range(4, -1, -1):
        c = np.zeros_like(t)
        for coef in _RS_C[k][::-1]:
            c = c * w + coef
        corr = corr * ainv + (c * z if k % 2 else c)
    sign = np.where(Ni % 2 == 1, 1.0, -1.0)
    return 2.0 * main + sign * np.sqrt(ainv) * corr, _rs_bound(t, N)


def _em_z(ts: np.ndarray) -> np.ndarray:
    """Z by Euler-Maclaurin (``zeta_batch``, double engine, t >= 6)."""
    vals, _, _, _ = zeta_batch(0.5 + 1j * ts, FAST_CONFIG)
    return (np.exp(1j * _theta_f64(ts)) * vals).real


def _z(ts: np.ndarray) -> np.ndarray:
    """Z at each height: Riemann-Siegel where t >= RS_MIN_T and |Z| exceeds
    its declared error, so that the sign is right; Euler-Maclaurin elsewhere."""
    ts = np.asarray(ts, dtype=np.float64)
    z = np.empty_like(ts)
    rs = np.nonzero(ts >= RS_MIN_T)[0]
    em = np.ones(len(ts), dtype=bool)
    if len(rs):
        z[rs], err = _rs_z(ts[rs])
        em[rs] = np.abs(z[rs]) <= err
    if em.any():
        z[em] = _em_z(ts[em])
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
        if self.max_height < height:
            raise TableTooShort(f"zero table reaches {self.max_height:g}; "
                                f"{what} needs {height:g}")

    def nearest_gamma(self, t: float) -> float:
        if not self.gammas:
            raise ValueError("empty table")
        i = bisect_left(self.gammas, t)
        cands = [j for j in (i - 1, i) if 0 <= j < len(self.gammas)]
        return min((self.gammas[j] for j in cands), key=lambda g: abs(g - t))

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

def _scan_brackets(T: float, step: float):
    ts = np.arange(SCAN_START, T, step)
    ts = np.append(ts, T)
    zv = _z(ts)
    idx = np.nonzero(np.signbit(zv[1:]) != np.signbit(zv[:-1]))[0]
    return ts[idx], ts[idx + 1], zv[idx], zv[idx + 1]


def _narrow_brackets(lo, hi, flo, fhi):
    """Illinois regula falsi on the per-point Z until every bracket is at
    most COARSE_WIDTH wide: the new point replaces the end of its own sign,
    and an end kept twice in a row has its value halved. A point closer than
    COARSE_WIDTH/2 to the end replaced last moves to that distance, so that
    it can land past the zero and close the bracket (and stays out of the
    band where the Riemann-Siegel sign is not trusted)."""
    lo, hi, flo, fhi = lo.copy(), hi.copy(), flo.copy(), fhi.copy()
    last = np.zeros(len(lo), dtype=np.int8)  # end replaced last: -1 lo, 1 hi
    h = 0.5 * COARSE_WIDTH
    for _ in range(_MAX_STEPS):
        i = np.nonzero(hi - lo > COARSE_WIDTH)[0]
        if not len(i):
            return lo, hi
        x = hi[i] - fhi[i] * (hi[i] - lo[i]) / (fhi[i] - flo[i])
        x = np.where((last[i] == 1) & (x > hi[i] - h), hi[i] - h, x)
        x = np.where((last[i] == -1) & (x < lo[i] + h), lo[i] + h, x)
        fx = _z(x)
        to_hi = np.signbit(fx) == np.signbit(fhi[i])
        j, k = i[to_hi], i[~to_hi]
        flo[j[last[j] == 1]] *= 0.5
        fhi[k[last[k] == -1]] *= 0.5
        hi[j], fhi[j], last[j] = x[to_hi], fx[to_hi], 1
        lo[k], flo[k], last[k] = x[~to_hi], fx[~to_hi], -1
    raise PrecisionExhausted(f"regula falsi left {len(i)} brackets wider than "
                             f"{COARSE_WIDTH:g}")


def _certify_brackets(lo, hi):
    """Ordinates from Euler-Maclaurin signs alone: a secant estimate x from
    the bracket's end values, then the sign change among [lo, x - d],
    [x - d, x + d] and [x + d, hi], d = ORDINATE_ACCURACY/20, until the
    bracket is at most ORDINATE_ACCURACY/4 wide; returns its midpoint."""
    n = len(lo)
    f = _em_z(np.concatenate([lo, hi]))
    flo, fhi = f[:n], f[n:]
    if np.any(np.signbit(flo) == np.signbit(fhi)):
        raise PrecisionExhausted("Euler-Maclaurin signs do not confirm a bracket")
    d = 0.05 * ORDINATE_ACCURACY
    for _ in range(_MAX_STEPS):
        i = np.nonzero(hi - lo > 0.25 * ORDINATE_ACCURACY)[0]
        if not len(i):
            return 0.5 * (lo + hi)
        x = lo[i] - flo[i] * (hi[i] - lo[i]) / (fhi[i] - flo[i])
        x = np.clip(x, lo[i] + d, hi[i] - d)
        a, b = x - d, x + d
        f = _em_z(np.concatenate([a, b]))
        fa, fb = f[:len(i)], f[len(i):]
        left = np.signbit(fa) != np.signbit(flo[i])
        right = ~left & (np.signbit(fb) == np.signbit(fa))
        mid = ~left & ~right
        lo[i] = np.where(left, lo[i], np.where(mid, a, b))
        flo[i] = np.where(left, flo[i], np.where(mid, fa, fb))
        hi[i] = np.where(left, a, np.where(mid, b, hi[i]))
        fhi[i] = np.where(left, fa, np.where(mid, fb, fhi[i]))
    raise PrecisionExhausted(f"{len(i)} brackets did not narrow to "
                             f"{0.25 * ORDINATE_ACCURACY:g}")


def _locate(T: float, step: float) -> ZeroTable:
    lo, hi, flo, fhi = _scan_brackets(T, step)
    gammas = _certify_brackets(*_narrow_brackets(lo, hi, flo, fhi)) if len(lo) else lo
    return ZeroTable(tuple(float(g) for g in gammas), ORDINATE_ACCURACY, float(T))


def find_zeros_up_to(T: float) -> ZeroTable:
    """All ordinates in (0, T] to 1e-9, complete to max_height = T.

    Grid scan at SCAN_STEP on Hardy-Z sign changes, regula falsi to ~1e-6 on
    the per-point Z, and Euler-Maclaurin-certified brackets of width
    ORDINATE_ACCURACY/4 (see the module docstring); the census is audited
    against the counting estimate and rescanned at SCAN_STEP/5 once on
    disagreement before MissedZeroSuspected is raised.
    """
    if T < 10:
        raise DomainError("find_zeros_up_to requires T >= 10")
    table = _locate(T, SCAN_STEP)
    try:
        table.audit()
    except MissedZeroSuspected:
        table = _locate(T, SCAN_STEP / 5.0)
        table.audit()  # raises if still inconsistent
    return table


def count_zeros(T: float, table: ZeroTable) -> int:
    """Exact census N(T) of zeros with 0 < gamma < T.

    Raises TableTooShort when the table is not complete up to T, and
    AmbiguousHeight when T sits within table accuracy of an ordinate.
    """
    if T <= 0:
        raise DomainError("count_zeros requires T > 0")
    table.require_height(T, f"count_zeros({T:g})")
    if table.gammas:
        g = table.nearest_gamma(T)
        if abs(g - T) <= table.accuracy:
            raise AmbiguousHeight(f"T={T} within accuracy of ordinate {g}")
    return table.count_below(T)


def mangoldt_estimate(T: float) -> float:
    """Counting main term (T/2pi) log(T/2pi) - T/2pi + 7/8."""
    if T <= _TWO_PI:
        raise DomainError("estimate requires T > 2 pi")
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
    if ta <= 2:
        raise DomainError("the log-reciprocal bound requires |t| > 2")
    if ta <= math.e:
        raise DomainError("the (log)^{2/3} bound requires log log t > 0, t > e")
    lt = math.log(ta)
    ford = 1.0 - 1.0 / (57.54 * lt ** (2.0 / 3.0) * math.log(lt) ** (1.0 / 3.0))
    mt = 1.0 - 1.0 / (5.573412 * lt)
    return ZeroFreeBoundReport(t=t, ford_sigma=ford, mt_sigma=mt)
