"""Arctan addition/telescoping and the Riccati recurrences behind the zero-sum.

Telescoping identity: with h(k) = (f(k+1)-f(k)) / (1 + f(k+1)f(k)),

    sum_{k=1..n} arctan h(k) = arctan f(n+1) - arctan f(1) + pi * sum sgn f(k),

the last sum over steps with f(k+1) f(k) < -1. The addition split is the
A&S 4.4.34 case rule: arctan x + arctan y = arctan((x+y)/(1-xy)) for xy < 1,
plus pi*sgn(x) for xy > 1.

The generating sequences for the rectangle zero-sum satisfy the rational
recurrence x(k+1) = (B x + A)/(B - A x) with A = (alpha-beta) u_k,
B = (alpha-1/2)(beta-1/2) + u_k^2, u_k = T - gamma_k (kind "f") or
T + gamma_k (kind "g"), which is exactly tan-addition by arctan(A/B). Traces
record wraps, monotonicity onset, blowups, and per-step identity residuals;
claimed infinite-N limits are observed, never asserted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .contour import Rectangle, zero_pair_arctan_sum
from .errors import (
    DegenerateProduct,
    DegenerateStep,
    DenominatorVanished,
    DomainError,
)
from .zero_finder import ZeroTable

DEGENERATE_TOL = 1e-12
BLOWUP_THRESHOLD = 1e6


def _sgn(x: float) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class ArctanSum:
    """Value of an arctan combination plus the net pi-multiples folded in."""

    value: float
    wrap_count: int


def arctan_add(x: float, y: float) -> ArctanSum:
    """arctan x + arctan y via the case-split addition rule."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"arctan_add needs finite x, y (got {x!r}, {y!r})")
    prod = x * y
    if abs(prod - 1.0) < DEGENERATE_TOL:
        raise DegenerateProduct(f"xy = {prod} too close to 1")
    base = math.atan((x + y) / (1.0 - prod))
    wrap = _sgn(x) if prod > 1.0 else 0
    return ArctanSum(value=base + wrap * math.pi, wrap_count=wrap)


@dataclass(frozen=True)
class TelescopeResult:
    value: float
    wrap_count: int
    wrap_steps: Tuple[Tuple[int, int], ...]  # (k, sgn f(k)) where f(k+1)f(k) < -1


def telescope_sum(f: Callable[[int], float], n: int) -> TelescopeResult:
    """Closed form of sum_{k=1..n} arctan h(k) from the generating sequence."""
    if n < 1:
        raise DomainError("need n >= 1")
    fk = [float(f(k)) for k in range(1, n + 2)]
    if not all(map(math.isfinite, fk)):
        raise DomainError(f"f(k) must be finite for k = 1..{n + 1}")
    wraps: List[Tuple[int, int]] = []
    for k in range(1, n + 1):
        prod = fk[k] * fk[k - 1]
        if abs(1.0 + prod) < DEGENERATE_TOL:
            raise DegenerateStep(k)
        if prod < -1.0:
            wraps.append((k, _sgn(fk[k - 1])))
    wrap_count = sum(s for _, s in wraps)
    value = math.atan(fk[n]) - math.atan(fk[0]) + math.pi * wrap_count
    return TelescopeResult(value=value, wrap_count=wrap_count,
                           wrap_steps=tuple(wraps))


# ---------------------------------------------------------------------------
# rectangle-specific pieces
# ---------------------------------------------------------------------------

def h_functions(k: int, rect: Rectangle, zeros: ZeroTable) -> Tuple[float, float]:
    """(h1, h2) at 1-based index k:

        h1 = (alpha-beta)(T - gamma_k) / ((alpha-1/2)(beta-1/2) + (T-gamma_k)^2)
        h2 = (alpha-beta)(T + gamma_k) / ((alpha-1/2)(beta-1/2) + (T+gamma_k)^2)

    In paper mode h2 < 0 always (alpha < beta and T + gamma_k > 0).
    """
    rect._need_paper()
    if not (1 <= k <= len(zeros.gammas)):
        raise DomainError(f"k={k} outside the table")
    a, b, T = rect.alpha, rect.beta, rect.T
    g = zeros.gammas[k - 1]
    ab = (a - 0.5) * (b - 0.5)
    h1 = (a - b) * (T - g) / (ab + (T - g) ** 2)
    h2 = (a - b) * (T + g) / (ab + (T + g) ** 2)
    return h1, h2


@dataclass(frozen=True)
class SnValue:
    """S_N and its distance to the nearest multiple of pi (measured output;
    the integer q is whatever the measurement lands near)."""

    value: float
    n_terms: int
    q_nearest: int
    pi_residual: float


def s_n_direct(rect: Rectangle, zeros: ZeroTable, N: int) -> SnValue:
    """Direct floating evaluation of S_N, the four-arctan zero-pair sum
    (``contour.zero_pair_arctan_sum``) over gamma_1..gamma_N."""
    rect._need_paper()
    if N < 0 or N > len(zeros.gammas):
        raise DomainError(f"N={N} outside the table (size {len(zeros.gammas)})")
    value = zero_pair_arctan_sum(rect, zeros.gammas[:N])
    q = round(value / math.pi)
    return SnValue(value=value, n_terms=N, q_nearest=q,
                   pi_residual=value - q * math.pi)


# ---------------------------------------------------------------------------
# Riccati traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiccatiTrace:
    """Iterates of the tan-addition recurrence with diagnostics.

    ``iterates[k-1]`` is x(k), k = 1..N+1, from x(1) = 0; step k consumes
    gamma_k. ``step_residuals[k-1]`` is the distance (mod pi) of
    arctan x(k+1) - arctan x(k) - arctan h(k) from 0.
    """

    kind: str
    alpha: float
    beta: float
    T: float
    gammas_used: Tuple[float, ...]
    iterates: Tuple[float, ...]
    wrap_steps: Tuple[Tuple[int, int], ...]
    step_residuals: Tuple[float, ...]
    denominator_min: float
    monotone_from: Optional[int]
    blowup_index: Optional[int]

    @property
    def wrap_count(self) -> int:
        return sum(s for _, s in self.wrap_steps)

    def final(self) -> float:
        return self.iterates[-1]


def _mod_pi_distance(x: float) -> float:
    r = math.fmod(x, math.pi)
    if r > math.pi / 2:
        r -= math.pi
    elif r < -math.pi / 2:
        r += math.pi
    return abs(r)


def riccati_iterate(kind: str, N: int, rect: Rectangle,
                    zeros: ZeroTable) -> RiccatiTrace:
    """Run N steps of the kind-"f" (uses T - gamma_k) or kind-"g"
    (uses T + gamma_k) recurrence from x(1) = 0, auditing denominators."""
    rect._need_paper()
    if kind not in ("f", "g"):
        raise DomainError("kind must be 'f' or 'g'")
    if N < 1 or N > len(zeros.gammas):
        raise DomainError(f"N={N} outside the table (size {len(zeros.gammas)})")
    a, b, T = rect.alpha, rect.beta, rect.T
    ab = (a - 0.5) * (b - 0.5)
    xs = [0.0]
    wraps: List[Tuple[int, int]] = []
    residuals: List[float] = []
    den_min = math.inf
    blowup = None
    for k in range(1, N + 1):
        g = zeros.gammas[k - 1]
        u = (T - g) if kind == "f" else (T + g)
        A = (a - b) * u
        B = ab + u * u
        x = xs[-1]
        den = B - A * x
        den_scale = abs(B) + abs(A * x)
        den_min = min(den_min, abs(den) / max(den_scale, 1e-300))
        if abs(den) <= DEGENERATE_TOL * max(den_scale, 1.0):
            raise DenominatorVanished(k)
        x_next = (B * x + A) / den
        h = A / B
        if x_next * x < -1.0:
            wraps.append((k, _sgn(x)))
        residuals.append(_mod_pi_distance(
            math.atan(x_next) - math.atan(x) - math.atan(h)))
        if blowup is None and abs(x_next) > BLOWUP_THRESHOLD:
            blowup = k + 1
        xs.append(x_next)
    monotone_from = _monotone_onset(xs)
    return RiccatiTrace(kind=kind, alpha=a, beta=b, T=T,
                        gammas_used=tuple(zeros.gammas[:N]),
                        iterates=tuple(xs), wrap_steps=tuple(wraps),
                        step_residuals=tuple(residuals),
                        denominator_min=den_min,
                        monotone_from=monotone_from, blowup_index=blowup)


def _monotone_onset(xs: Sequence[float]) -> Optional[int]:
    """1-based start of the longest strictly monotone suffix, if length >= 3."""
    n = len(xs)
    if n < 3:
        return None
    i = n - 1
    direction = 0
    while i > 0:
        d = _sgn(xs[i] - xs[i - 1])
        if d == 0:
            break
        if direction == 0:
            direction = d
        elif d != direction:
            break
        i -= 1
    return i + 1 if n - i >= 3 else None


# ---------------------------------------------------------------------------
# linearization of the recurrence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearizationReport:
    """Second-order linear form of the recurrence under y = H x,
    H(n) = C/u_n^2: z(n+2) - P(n) z(n+1) - R(n) z(n) = 0 with
    P -> 2C and R -> -C^2, so the limiting characteristic equation
    lambda^2 - 2C lambda + C^2 = 0 has the double root lambda = C."""

    C: float
    P_seq: Tuple[float, ...]
    R_seq: Tuple[float, ...]
    P_limit: float
    R_limit: float
    char_roots: Tuple[float, float]
    p_gaps: Tuple[float, ...]
    r_gaps: Tuple[float, ...]
    tail_start: int

    def gaps_decreasing(self) -> Tuple[bool, bool]:
        """Trend check on the post-onset tail: mean of the last third below
        the mean of the first third, for |P-2C| and |R+C^2|."""
        def dec(gaps):
            g = gaps[self.tail_start:]
            if len(g) < 6:
                return False
            third = len(g) // 3
            return (sum(g[-third:]) / third) < (sum(g[:third]) / third)
        return dec(self.p_gaps), dec(self.r_gaps)


def linearize_riccati(trace: RiccatiTrace, C: float) -> LinearizationReport:
    """P(n), R(n) sequences from the trace parameters plus the limit-model
    characteristic roots, the double root (C, C). Requires C > 1 and T off
    every ordinate the trace used."""
    if not C > 1.0:
        raise DomainError("linearization defined for C > 1")
    a, b, T = trace.alpha, trace.beta, trace.T
    ab = (a - 0.5) * (b - 0.5)
    us = [(T - g) if trace.kind == "f" else (T + g) for g in trace.gammas_used]
    if len(us) < 3:
        raise DomainError("trace too short to linearize")
    if 0.0 in us:
        k = us.index(0.0) + 1
        raise DomainError(f"T equals gamma_{k}: u_{k} = 0 leaves H = C/u^2 undefined")
    a_n = [u * u + ab for u in us]
    b_n = [(a - b) * u for u in us]
    H = [C / (u * u) for u in us]
    P, R = [], []
    for n in range(len(us) - 1):
        An = a_n[n] * H[n + 1]
        Bn = b_n[n] * H[n] * H[n + 1]
        Cn, Cn1 = -b_n[n], -b_n[n + 1]
        Dn1 = a_n[n + 1] * H[n + 1]
        ratio = Cn1 / Cn
        P.append(Dn1 + An * ratio)
        R.append((Bn * Cn - An * a_n[n] * H[n]) * ratio)
    p_gaps = tuple(abs(p - 2.0 * C) for p in P)
    r_gaps = tuple(abs(r + C * C) for r in R)
    # tail after u changes sign (gamma crossing T) settles the asymptotics
    tail_start = 0
    for i in range(len(us) - 1):
        if (trace.kind == "g") or (us[i] < 0 and abs(us[i]) > 2.0):
            tail_start = i
            break
    else:
        tail_start = max(0, len(P) - max(3, len(P) // 2))
    return LinearizationReport(C=C, P_seq=tuple(P), R_seq=tuple(R),
                               P_limit=P[-1], R_limit=R[-1],
                               char_roots=(C, C),
                               p_gaps=p_gaps, r_gaps=r_gaps,
                               tail_start=tail_start)


# ---------------------------------------------------------------------------
# fixed point of the limiting map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointVerdict:
    a: float
    b: float
    degenerate: bool            # b = 0: the map is the identity
    has_real_fixed_point: bool  # False when b != 0 (x*^2 = -1 is forced)

    @property
    def verdict(self) -> str:
        if self.degenerate:
            return "degenerate-identity"
        return "no-real-fixed-point"


def fixed_point_check(a: float, b: float) -> FixedPointVerdict:
    """x* = (a x* + b)/(-b x* + a) reduces to b (x*^2 + 1) = 0: no real
    solution for b != 0; every x* is fixed when b = 0."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"fixed_point_check needs finite a, b (got {a!r}, {b!r})")
    if b == 0.0:
        return FixedPointVerdict(a=a, b=b, degenerate=True, has_real_fixed_point=True)
    return FixedPointVerdict(a=a, b=b, degenerate=False, has_real_fixed_point=False)

