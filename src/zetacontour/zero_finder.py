"""Critical-line zero location, counting, zero-free bounds, and the table file.

Zeros are bracketed by sign changes of the rotated zeta

    Z(t) = exp(i theta(t)) zeta(1/2 + it),

which is real for real t, then refined by bisection. theta is the usual
rotation phase with asymptotic expansion

    theta(t) ~ t/2 log(t/2pi) - t/2 - pi/8 + 1/(48t) + 7/(5760 t^3) + ...

The scan itself always runs in the vectorized double engine (ordinate
accuracy 1e-9 sits far above the double floor); ``hardy_z`` honors the
configured precision for scalar evaluation and certification.

Completeness is audited against the counting estimate

    N(T) ~ (T/2pi) log(T/2pi) - T/2pi + 7/8,

whose O(log T) slack is covered by the classical explicit bound
|N(T) - estimate| <= 0.137 log T + 0.443 log log T + 4.35 (Backlund).
"""
from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
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
)
from .precision import DEFAULT_CONFIG, FAST_CONFIG, PrecisionConfig
from .special_functions import zeta, zeta_batch

_TWO_PI = 2.0 * math.pi
GAMMA_1 = 14.134725141734693  # first ordinate, for table sanity audits

SCAN_STEP = 0.05        # grid step; smallest gap between desk-scale zeros is ~0.16
SCAN_START = 6.0        # no zeros below gamma_1 ~ 14.13
ORDINATE_ACCURACY = 1e-9
COUNT_SLACK = 3         # allowed |census - estimate| before a rescan

# theta asymptotic coefficients c_n = (1 - 2^(1-2n)) |B_2n| / (4n(2n-1))
_THETA_C = [float((1 - mp.mpf(2) ** (1 - 2 * n)) * abs(mp.bernoulli(2 * n))
                  / (4 * n * (2 * n - 1))) for n in range(1, 9)]


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
    """Rotation phase theta(t); asymptotic when its own remainder meets the
    tolerance, log-gamma continuation otherwise (small t at high precision)."""
    tf = float(t)
    if tf < 0:
        raise DomainError("theta defined here for t >= 0")
    if tf >= 8.0:
        terms = min(8, len(_THETA_C))
        first_omitted = _THETA_C[5] / tf ** 11 if terms >= 6 else float("inf")
        if cfg.uses_f64 or first_omitted <= cfg.target_abs_tol:
            if cfg.uses_f64:
                return float(_theta_f64(tf))
            with mp.workdps(cfg.dps):
                tm = mp.mpf(t)
                th = tm / 2 * mp.log(tm / (2 * mp.pi)) - tm / 2 - mp.pi / 8
                ti = 1 / tm
                p = ti
                for n in range(1, 9):
                    c = (1 - mp.mpf(2) ** (1 - 2 * n)) * abs(mp.bernoulli(2 * n)) \
                        / (4 * n * (2 * n - 1))
                    th += c * p
                    p = p * ti * ti
                return th
    # continuation for small t (or very tight tolerances)
    with mp.workdps(max(cfg.dps, 25)):
        tm = mp.mpf(t)
        return mp.im(mp.loggamma(mp.mpf(1) / 4 + mp.mpc(0, 1) * tm / 2)) \
            - tm / 2 * mp.log(mp.pi)


def hardy_z_components(t, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """(value, imag_residual, err_bound) of the rotated zeta at height t.

    The imaginary residual of exp(i theta) zeta(1/2+it) measures the combined
    phase/evaluation error; realness holds within err_bound.
    """
    tf = float(t)
    if tf < 0:
        raise DomainError("hardy_z requires t >= 0")
    if cfg.uses_f64:
        z = zeta(complex(0.5, tf), cfg)
        th = riemann_siegel_theta(tf, cfg)
        w = complex(math.cos(th), math.sin(th)) * complex(z)
        theta_err = (_THETA_C[5] / tf ** 11) if tf >= 8.0 else 1e-14
        bound = z.abs_err + abs(complex(z)) * theta_err + 1e-15 * (1 + abs(w))
        return w.real, abs(w.imag), bound
    with mp.workdps(cfg.dps):
        z = zeta(mp.mpc(0.5, tf), cfg)
        zv = mp.mpc(z.re, z.im)
        th = riemann_siegel_theta(tf, cfg)
        w = mp.exp(mp.mpc(0, 1) * th) * zv
        if tf >= 8.0:
            theta_err = _THETA_C[5] / tf ** 11 + 10.0 ** (-(cfg.dps - 3))
        else:
            theta_err = 10.0 ** (-(cfg.dps - 5))
        bound = z.abs_err + float(abs(zv)) * theta_err \
            + 10.0 ** (-(cfg.dps - 3)) * (1 + float(abs(w)))
        return w.real, float(abs(w.imag)), bound


def hardy_z(t, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Real rotated zeta Z(t); sign changes bracket critical-line zeros."""
    value, imag_resid, bound = hardy_z_components(t, cfg)
    if imag_resid > max(bound, 1e-9):
        raise PrecisionExhausted(
            f"rotated value has imaginary residual {imag_resid:g} > bound {bound:g}")
    return value


def _z_grid(ts: np.ndarray, threads: int = 1) -> np.ndarray:
    """Vectorized Z on a grid of heights (double engine, t >= 6)."""
    ts = np.asarray(ts, dtype=np.float64)

    def piece(chunk):
        s = 0.5 + 1j * chunk
        vals, _, _, _ = zeta_batch(s, FAST_CONFIG)
        return (np.exp(1j * _theta_f64(chunk)) * vals).real

    if threads <= 1 or len(ts) < 8192:
        return piece(ts)
    chunks = np.array_split(ts, threads)
    with ThreadPoolExecutor(max_workers=threads) as ex:
        parts = list(ex.map(piece, chunks))
    return np.concatenate(parts)


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
        if self.accuracy <= 0:
            raise ValueError("accuracy must be positive")
        g = self.gammas
        if any(b <= a for a, b in zip(g, g[1:])):
            raise ValueError("ordinates must be strictly increasing")
        if g and g[0] <= 0:
            raise ValueError("ordinates must be positive")
        if g and g[-1] > self.max_height + self.accuracy:
            raise ValueError("ordinate above max_height")

    def __len__(self) -> int:
        return len(self.gammas)

    def count_below(self, T: float) -> int:
        return bisect_left(self.gammas, T)

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
    if not lines[1].startswith("accuracy="):
        raise FormatError(2, "missing accuracy header")
    if not lines[2].startswith("max_height="):
        raise FormatError(3, "missing max_height header")
    try:
        accuracy = float(lines[1][len("accuracy="):])
        max_height = float(lines[2][len("max_height="):])
    except ValueError as e:
        raise FormatError(2 if "accuracy" in str(e) else 3, str(e)) from None
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
    return ZeroTable(tuple(gammas), accuracy, max_height)


# ---------------------------------------------------------------------------
# search, count, estimate, zero-free bounds
# ---------------------------------------------------------------------------

def _scan_brackets(T: float, step: float, threads: int):
    ts = np.arange(SCAN_START, T, step)
    ts = np.append(ts, T)
    zv = _z_grid(ts, threads)
    idx = np.nonzero(np.signbit(zv[1:]) != np.signbit(zv[:-1]))[0]
    return ts[idx], ts[idx + 1], zv[idx]


def _bisect_brackets(lo, hi, flo, accuracy: float, threads: int):
    lo = lo.copy()
    hi = hi.copy()
    flo = flo.copy()
    iters = max(1, int(math.ceil(math.log2((hi - lo).max() / (0.25 * accuracy)))))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = _z_grid(mid, threads)
        left = np.signbit(flo) != np.signbit(fm)
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
    return 0.5 * (lo + hi)


def find_zeros_up_to(T: float, *, threads: int = 1) -> ZeroTable:
    """All ordinates in (0, T] to 1e-9, complete to max_height = T.

    Grid scan at SCAN_STEP then bisection on Hardy-Z sign changes, in the
    double engine (its accuracy exceeds the 1e-9 contract); the census is
    audited against the counting estimate and rescanned at SCAN_STEP/5 once
    on disagreement before MissedZeroSuspected is raised.
    """
    if T < 10:
        raise DomainError("find_zeros_up_to requires T >= 10")
    lo, hi, flo = _scan_brackets(T, SCAN_STEP, threads)
    gammas = _bisect_brackets(lo, hi, flo, ORDINATE_ACCURACY, threads) if len(lo) else np.array([])
    table = ZeroTable(tuple(float(g) for g in gammas), ORDINATE_ACCURACY, float(T))
    try:
        table.audit()
    except MissedZeroSuspected:
        lo, hi, flo = _scan_brackets(T, SCAN_STEP / 5.0, threads)
        gammas = _bisect_brackets(lo, hi, flo, ORDINATE_ACCURACY, threads) if len(lo) else np.array([])
        table = ZeroTable(tuple(float(g) for g in gammas), ORDINATE_ACCURACY, float(T))
        table.audit()  # raises if still inconsistent
    return table


def count_zeros(T: float, table: Optional[ZeroTable] = None) -> int:
    """Exact census N(T) of zeros with 0 < gamma < T.

    Raises AmbiguousHeight when T sits within table accuracy of an ordinate.
    """
    if T <= 0:
        raise DomainError("count_zeros requires T > 0")
    if table is None or table.max_height < T:
        table = find_zeros_up_to(max(T + 2.0, 10.0))
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
