"""Rectangle contour integrals of zeta'/zeta and their termwise decomposition.

The rectangle D(alpha, beta, T) has vertices beta - iT (D), beta + iT (A),
alpha + iT (B), alpha - iT (C); positive circulation is D -> A -> B -> C -> D,
so DA is the right vertical edge upward, AB the top edge leftward, BC the
left vertical downward, CD the bottom rightward. General axis-aligned boxes
use the same edge naming.

Quadrature is adaptive composite Gauss-Kronrod (G16/K33): panels are
pre-split until their length is at most twice their distance to the nearest
tabulated singularity, then each panel's 33 Kronrod nodes give its value and,
from the 16 Gauss nodes among them, the 16-point Gauss sum to compare it
with; a panel is halved until the difference meets its share of the
tolerance. Node evaluation is batched through the double-precision engine
(``log_deriv_batch``).

The vertical-edge pair of the classical logarithmic-derivative expansion

    zeta'/zeta(s) = 1/(1-s) + (1/2) log pi - (1/2) psi(s/2 + 1)
                    + sum_rho 1/(s - rho)        (conjugate-paired sum)

is materialized term by term with closed forms (the psi term as
2 log Gamma(s/2+1) at the edge ends), a truncated zero sum, and a
counting-density tail estimate whose uncertainty is bounded explicitly, so
the identity against direct quadrature can be verified numerically.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import mpmath as mp

from .errors import (
    BoundarySingularity,
    DomainError,
    SingularityOnPath,
    TableTooShort,
    ToleranceNotMet,
)
from .precision import EXCLUSION_RADIUS
from .special_functions import digamma_batch, log_deriv_batch
from .zero_finder import ZeroTable, backlund_count_bound

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned box [x0, x1] x [y0, y1]; paper mode pins the shape to
    D(alpha, beta, T) with 1/2 < alpha < beta < 1 and height 2T."""

    x0: float
    x1: float
    y0: float
    y1: float
    paper: bool = False

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x0, self.x1, self.y0, self.y1))):
            raise DomainError("need finite corners")
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise DomainError("need x0 < x1 and y0 < y1")
        if self.paper:
            if not (0.5 < self.x0 < self.x1 < 1.0):
                raise DomainError("paper mode needs 1/2 < alpha < beta < 1")
            if abs(self.y0 + self.y1) > 1e-12 or self.y1 <= 0:
                raise DomainError("paper mode needs the box [-T, T] with T > 0")

    @classmethod
    def paper_mode(cls, alpha: float, beta: float, T: float) -> "Rectangle":
        return cls(alpha, beta, -float(T), float(T), paper=True)

    @classmethod
    def box(cls, x0: float, x1: float, y0: float, y1: float) -> "Rectangle":
        return cls(float(x0), float(x1), float(y0), float(y1), paper=False)

    @property
    def alpha(self) -> float:
        self._need_paper()
        return self.x0

    @property
    def beta(self) -> float:
        self._need_paper()
        return self.x1

    @property
    def T(self) -> float:
        self._need_paper()
        return self.y1

    def _need_paper(self):
        if not self.paper:
            raise DomainError("operation defined for paper-mode rectangles")

    def corners(self) -> Dict[str, complex]:
        return {"a": complex(self.x1, self.y1), "b": complex(self.x0, self.y1),
                "c": complex(self.x0, self.y0), "d": complex(self.x1, self.y0)}

    def edges(self) -> List[Tuple[str, complex, complex]]:
        c = self.corners()
        return [("da", c["d"], c["a"]), ("ab", c["a"], c["b"]),
                ("bc", c["b"], c["c"]), ("cd", c["c"], c["d"])]


def _segment_distances(a, b, p):
    """Distance from the segment [a, b] to the point p, elementwise over
    broadcast complex arrays; a segment of length zero is its point a."""
    ab = b - a
    L2 = ab.real * ab.real + ab.imag * ab.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(L2 == 0.0, 0.0, np.clip(
            ((p.real - a.real) * ab.real + (p.imag - a.imag) * ab.imag) / L2, 0.0, 1.0))
    return np.hypot(a.real + t * ab.real - p.real, a.imag + t * ab.imag - p.imag)


_SING_MARGIN = 5.0  # zeros this far outside the box still shape its panels


def singularity_set(rect: Rectangle, zeros: ZeroTable) -> List[complex]:
    """Pole s=1 and the tabulated zeros (both half-planes) near the box.

    The box must lie in Re s >= -1, where the double engine evaluates (it
    raises DomainError elsewhere), so no trivial zero -2k is ever near it.
    Raises TableTooShort unless the table is complete up to the box's
    largest |Im s| plus the screening margin, so that no zero near the box
    can be missing from the set."""
    zeros.require_height(max(abs(rect.y0), abs(rect.y1)) + _SING_MARGIN,
                         "screening this box")
    lo, hi = rect.y0 - _SING_MARGIN, rect.y1 + _SING_MARGIN
    g = zeros.gammas
    up = range(bisect_left(g, lo), bisect_right(g, hi))  # lo <= g <= hi
    down = range(bisect_left(g, -hi), bisect_right(g, -lo))  # lo <= -g <= hi
    sings = [complex(1.0, 0.0)]
    for i in sorted({*up, *down}):  # by ordinate, +g before -g
        if i in up:
            sings.append(complex(0.5, g[i]))
        if i in down:
            sings.append(complex(0.5, -g[i]))
    return sings


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod on a segment
# ---------------------------------------------------------------------------

# The 33-point Kronrod extension of the 16-point Gauss-Legendre rule on
# [-1, 1], written out: the 16 Gauss roots (odd indices) and the 17 roots of
# the Stieltjes polynomial E_17, which is orthogonal to every polynomial of
# degree below 17 against the weight P_16. E_17's coefficients were solved in
# rationals, its roots bracketed between the Gauss roots and found in mpmath
# at 120 digits, and the weights solved from exactness on P_0 .. P_32 there;
# each value was then rounded once to a double (the Gauss roots round to
# numpy's leggauss(16) nodes bit for bit). The rule is exact to degree
# 49, its weights are positive, and it is mirrored exactly (x[16] = 0), so a
# panel and its mirror image about the real axis have exactly conjugate nodes.
_GK_X = np.array([
    -0.9982392741454446, -0.9894009349916499, -0.9715059509693926,
    -0.9445750230732326, -0.9091576670123429, -0.8656312023878318,
    -0.8142402870624444, -0.755404408355003, -0.6897411066817623,
    -0.6178762444026438, -0.5404076763521397, -0.45801677765722737,
    -0.37148378087841627, -0.2816035507792589, -0.18916857901808373,
    -0.09501250983763744, 0.0, 0.09501250983763744, 0.18916857901808373,
    0.2816035507792589, 0.37148378087841627, 0.45801677765722737,
    0.5404076763521397, 0.6178762444026438, 0.6897411066817623,
    0.755404408355003, 0.8142402870624444, 0.8656312023878318,
    0.9091576670123429, 0.9445750230732326, 0.9715059509693926,
    0.9894009349916499, 0.9982392741454446])
_GK_W = np.array([
    0.004742777049247318, 0.013257930688091158, 0.022498859440049444,
    0.031260543647380526, 0.039512951202421966, 0.047506215976407015,
    0.055205633095422174, 0.062358806011834855, 0.06886299519153125,
    0.07476982388559955, 0.08005394126371929, 0.08459580379259064,
    0.08833750257911273, 0.09129203282819166, 0.09343867406092123,
    0.09472840124723005, 0.0951542160804983, 0.09472840124723005,
    0.09343867406092123, 0.09129203282819166, 0.08833750257911273,
    0.08459580379259064, 0.08005394126371929, 0.07476982388559955,
    0.06886299519153125, 0.062358806011834855, 0.055205633095422174,
    0.047506215976407015, 0.039512951202421966, 0.031260543647380526,
    0.022498859440049444, 0.013257930688091158, 0.004742777049247318])
# weights of the Gauss nodes _GK_X[1::2], numpy.polynomial.legendre.leggauss(16)
# written out: computing it at import loads numpy.polynomial and LAPACK, which
# adds to every start-up
_GL_W = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
    0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
    0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
    0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
    0.027152459411754176])
_MAX_WAVES = 40
_MAX_NODES = 2 ** 20  # refinement nodes per edge, after the presplit wave


@dataclass(frozen=True)
class EdgeIntegral:
    value: complex
    err: float
    n_evals: int


def _presplit(a: complex, b: complex,
              sings: Sequence[complex]) -> Tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (pa, pb) of panels of [a, b] no longer than twice their
    distance d to the nearest singularity, nor than a quarter of [a, b],
    ordered by position from b back to a.

    The panels are halved breadth first, one level at a time: each level
    measures every pending panel at once, keeps those that meet the rule
    and replaces the rest by their two halves in place. A half is measured
    only against the singularities within R = d + L of its parent (L the
    parent's length): the parent's point nearest to its nearest singularity
    is within L/2 of the half, so the half's own nearest singularity lies
    within d + L/2 of it. Those candidates are found along the line through a and b: each
    singularity is projected onto it once and sorted, and projection does
    not increase distances, so the candidates of a panel projecting to
    [u0, u1] all project into [u0 - R, u1 + R]. The window only filters
    (the slack L/2 and a small pad absorb the rounding of the projections);
    d is the minimum of the same distances as over the whole set, so the
    panels are those of a depth-first search over it, in its pop order.
    Every panel lies inside [a, b], so SingularityOnPath, raised for a panel
    within EXCLUSION_RADIUS of a singularity, is raised for [a, b] itself.
    """
    ab = b - a
    total = abs(ab)

    def along(z):  # projection onto the line through a and b, in lengths
        return ((z.real - a.real) * ab.real + (z.imag - a.imag) * ab.imag) / total

    pts = np.asarray(sings, dtype=np.complex128)
    u = along(pts)
    order = np.argsort(u)
    u, pts = u[order], pts[order]
    pa = np.array([a], dtype=np.complex128)
    pb = np.array([b], dtype=np.complex128)
    radius = np.array([math.inf])
    pending = np.array([True])
    while pending.any():
        i = np.flatnonzero(pending)
        qa, qb = pa[i], pb[i]
        ua, ub = along(qa), along(qb)
        r = radius[i] * (1.0 + 1e-9)
        lo = np.searchsorted(u, np.minimum(ua, ub) - r, side="left")
        n = np.searchsorted(u, np.maximum(ua, ub) + r, side="right") - lo
        start = np.cumsum(n) - n
        owner = np.repeat(np.arange(len(i)), n)
        cand = np.arange(n.sum()) + np.repeat(lo - start, n)
        dist = _segment_distances(qa[owner], qb[owner], pts[cand])
        d = np.full(len(i), math.inf)
        if len(dist):
            d[n > 0] = np.minimum.reduceat(dist, start[n > 0])
        k = int(np.argmin(d))
        if d[k] < EXCLUSION_RADIUS:
            raise SingularityOnPath(f"segment [{complex(qa[k])}, {complex(qb[k])}] "
                                    f"within {d[k]:.2e} of a singularity")
        L = np.hypot((qb - qa).real, (qb - qa).imag)
        pending[i] = (L > 2.0 * d) | (L > total / 4.0 + 1e-300)
        radius[i] = d + L
        # each pending panel becomes its halves (pa, m), (m, pb) in place
        split = np.flatnonzero(pending)
        m = 0.5 * (pa[split] + pb[split])
        rep = 1 + pending
        at = (np.cumsum(rep) - rep)[split]
        pa, pb, radius, pending = (np.repeat(x, rep) for x in (pa, pb, radius, pending))
        pb[at] = m
        pa[at + 1] = m
    return pa[::-1], pb[::-1]


def integrate_edge(f: Callable[[np.ndarray], np.ndarray], a: complex, b: complex,
                   *, tol: float = 1e-9,
                   singularities: Sequence[complex] = ()) -> EdgeIntegral:
    """Adaptive composite Gauss-Kronrod (G16/K33) along the segment [a, b].

    ``f`` maps a complex128 array of nodes to integrand values. The pending
    panels are two endpoint arrays; each wave evaluates the 33 Kronrod nodes
    of every pending panel in one call. The 16 Gauss nodes among them give
    the Gauss sum, the 33 the Kronrod sum. A panel is accepted when
    |Kronrod - Gauss| falls below its length-proportional share of ``tol``
    (the Kronrod sum is kept, and half the difference is added to ``err``);
    otherwise its halves enter the next wave. Accepted panels are summed in
    panel order. A refinement wave that would take the edge past _MAX_NODES
    evaluations beyond the first (presplit) wave raises ToleranceNotMet
    instead; the first wave grows with the edge's length and zero density
    and is never refused.
    """
    if math.isnan(tol):
        raise DomainError("tol is NaN")
    if tol < 1e-13:
        raise ToleranceNotMet("requested tolerance below the double floor")
    a = complex(a)
    b = complex(b)
    total_len = abs(b - a)
    if total_len == 0.0:
        return EdgeIntegral(0.0 + 0.0j, 0.0, 0)
    pa, pb = _presplit(a, b, singularities)
    value = 0.0 + 0.0j
    err = 0.0
    n_evals = 0
    first_wave = _GK_X.size * len(pa)
    for wave in range(_MAX_WAVES):
        if not len(pa):
            break
        if n_evals - first_wave + _GK_X.size * len(pa) > _MAX_NODES:
            raise ToleranceNotMet(
                f"{len(pa)} panels pending after {n_evals} nodes; the next "
                f"wave would pass the budget of {_MAX_NODES} refinement nodes")
        m = 0.5 * (pa + pb)
        half = 0.5 * (pb - pa)
        z = m[:, None] + half[:, None] * _GK_X
        n_evals += z.size
        fv = np.asarray(f(z.ravel()), dtype=np.complex128).reshape(z.shape)
        fine = (_GK_W * fv).sum(axis=1) * half
        coarse = (_GL_W * fv[:, 1::2]).sum(axis=1) * half
        # moduli by hypot (np.abs rounds complex moduli differently) and
        # running sums in panel order (np.sum adds pairwise) fix the last
        # bits of value and err
        diff = np.hypot((fine - coarse).real, (fine - coarse).imag)
        L = np.hypot((pb - pa).real, (pb - pa).imag)
        ok = diff <= tol * (L / total_len)
        if wave == _MAX_WAVES - 1 and not ok.all():
            k = int(np.argmin(ok))
            raise ToleranceNotMet(
                f"panel [{complex(pa[k])}, {complex(pb[k])}] stuck at diff={diff[k]:.2e}")
        value = np.cumsum(np.append(value, fine[ok]))[-1]
        err = np.cumsum(np.append(err, 0.5 * diff[ok] + 1e-16 * L[ok]))[-1]
        rej = ~ok  # halves enter the next wave in place: (pa, m), then (m, pb)
        pa, pb = (np.stack((pa[rej], m[rej]), axis=1).ravel(),
                  np.stack((m[rej], pb[rej]), axis=1).ravel())
    return EdgeIntegral(complex(value), float(err), n_evals)


# ---------------------------------------------------------------------------
# full rectangle of zeta'/zeta
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContourReport:
    """Edge integrals of zeta'/zeta, their total, and the winding readout.

    ``winding_raw`` = total/(2 pi i) is never silently rounded: the integer
    and the gap to it are both reported, and the integer is trustworthy only
    when the boundary-clearance audit passed (clearance is included)."""

    rect: Rectangle
    edges: Dict[str, EdgeIntegral]
    total: complex
    winding_raw: complex
    winding: int
    winding_gap: float
    quad_error: float
    clearance: float
    n_evals: int

    def to_json_dict(self) -> dict:
        d = {"edges": {name: {"re": e.value.real, "im": e.value.imag, "err": e.err}
                       for name, e in self.edges.items()},
             "total": {"re": self.total.real, "im": self.total.imag},
             "winding_raw": {"re": self.winding_raw.real, "im": self.winding_raw.imag},
             "winding": self.winding,
             "winding_gap": self.winding_gap,
             "quad_error": self.quad_error,
             "clearance": self.clearance}
        return d


def _log_deriv_edge(a: complex, b: complex, tol: float,
                    sings: Sequence[complex]) -> Tuple[EdgeIntegral, float]:
    """``integrate_edge`` of zeta'/zeta along [a, b], and the bound on what
    the evaluation error adds to it: the largest node error times |b - a|."""
    node_err = 0.0

    def f(z):
        nonlocal node_err
        vals, errs = log_deriv_batch(z)
        if errs.size:
            node_err = max(node_err, float(np.max(errs)))
        return vals

    e = integrate_edge(f, a, b, tol=tol, singularities=sings)
    return e, node_err * abs(b - a)


def integrate_rectangle(rect: Rectangle, zeros: ZeroTable, *,
                        tol: float = 1e-7) -> ContourReport:
    """Quadrature of zeta'/zeta around the rectangle; winding = Z - P inside.

    Precondition: no tabulated zero and not the pole s=1 within
    EXCLUSION_RADIUS of the boundary (audited; BoundarySingularity
    identifies the offender). The table must cover the box (TableTooShort,
    see ``singularity_set``).
    """
    sings = singularity_set(rect, zeros)
    pts = np.array(sings, dtype=np.complex128)
    ends = np.array([(a, b) for _, a, b in rect.edges()])
    dist = _segment_distances(ends[:, :1], ends[:, 1:], pts).min(axis=0)
    k = int(np.argmin(dist))
    clearance = float(dist[k])
    if clearance < EXCLUSION_RADIUS:
        raise BoundarySingularity(f"singularity at {sings[k]}", clearance)

    edges: Dict[str, EdgeIntegral] = {}
    total = 0.0 + 0.0j
    quad_error = 0.0
    n_evals = 0
    for name, a, b in rect.edges():
        e, eval_err = _log_deriv_edge(a, b, tol / 4.0, sings)
        edges[name] = e
        total += e.value
        quad_error += e.err + eval_err
        n_evals += e.n_evals
    winding_raw = total / complex(0.0, _TWO_PI)
    winding = int(round(winding_raw.real))
    gap = abs(winding_raw - winding)
    return ContourReport(rect=rect, edges=edges, total=total,
                         winding_raw=winding_raw, winding=winding,
                         winding_gap=gap, quad_error=quad_error,
                         clearance=clearance, n_evals=n_evals)


# ---------------------------------------------------------------------------
# termwise pieces over the vertical-edge pair DA + BC (paper mode)
# ---------------------------------------------------------------------------

def pole_term_integral(rect: Rectangle) -> complex:
    """Closed form of int_{DA+BC} ds/(1-s).

    Antiderivative -Log(1-s) on edges right of the pole gives
    2i (arg(1-beta+iT) - arg(1-alpha+iT)); each argument tends to pi/2, so
    the combination is o(1) as T grows."""
    a, b, T = rect.alpha, rect.beta, rect.T
    return 2j * (math.atan2(T, 1.0 - b) - math.atan2(T, 1.0 - a))


def pole_integrand(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 - np.asarray(z, dtype=np.complex128))


def logpi_term_integral(rect: Rectangle) -> complex:
    """int_{DA+BC} (1/2) log(pi) ds = 0 exactly: the constant integrand over
    equal-length, oppositely-oriented vertical edges cancels."""
    rect._need_paper()
    return 0.0 + 0.0j


def logpi_edge_integral(rect: Rectangle, edge: str = "da") -> complex:
    """Single-edge value; for DA this is i T log(pi) (times 2T/2 in general)."""
    for name, a, b in rect.edges():
        if name == edge:
            return 0.5 * math.log(math.pi) * (b - a)
    raise DomainError(f"unknown edge {edge!r}")


@dataclass(frozen=True)
class DigammaTerm:
    """The -1/2 psi(s/2+1) contribution over DA+BC.

    ``value`` carries the -1/2 prefactor of the expansion; ``edge_half_sum``
    is +1/2 (int_DA + int_BC) psi, whose large-T limit is (beta-alpha)(pi/2)i,
    and ``limit_gap`` measures the distance to that limit.
    ``closed_form_err`` bounds the error of ``value``."""

    value: complex
    edge_half_sum: complex
    limit_gap: float
    closed_form_err: float


def digamma_term_integral(rect: Rectangle) -> DigammaTerm:
    """Closed form of -1/2 int_{DA+BC} psi(s/2+1) ds.

    F(s) = 2 log Gamma(s/2+1) is an antiderivative of psi(s/2+1). On both
    edges Re(s/2+1) lies in (5/4, 3/2), so F is analytic along them, and F
    is real on the real axis, so F(x - iT) = conj F(x + iT). The half-sum is

        1/2 [F(b+iT) - F(b-iT) - F(a+iT) + F(a-iT)] = i d,
        d = Im F(b+iT) - Im F(a+iT),

    purely imaginary: two ``mp.loggamma`` calls at 100 bits, on arguments
    that are exact there, and d rounded once to a double.

    ``closed_form_err``: each log Gamma value G is allowed an absolute error
    of 2^-80 |G|, 2^20 units in its last place: an allowance for mpmath,
    which works with 20 or more guard bits and rounds once. The two F values
    contribute 2^-79 (|G_b| + |G_a|). The subtraction at 100 bits and the
    rounding of d to a double add at most (2^-100 + 2^-53)|d|, allowed as
    2^-52 |d|."""
    a, b, T = rect.alpha, rect.beta, rect.T
    with mp.workprec(100):
        g_b = mp.loggamma(mp.mpc(b, T) / 2 + 1)
        g_a = mp.loggamma(mp.mpc(a, T) / 2 + 1)
        d = float(2 * (g_b.imag - g_a.imag))
        err = 2.0 ** -79 * float(abs(g_b) + abs(g_a)) + 2.0 ** -52 * abs(d)
    limit = 0.5 * math.pi * (b - a)
    return DigammaTerm(value=complex(0.0, -d), edge_half_sum=complex(0.0, d),
                       limit_gap=abs(d - limit), closed_form_err=err)


def digamma_integrand(z: np.ndarray) -> np.ndarray:
    vals, _ = digamma_batch(np.asarray(z, dtype=np.complex128) / 2.0 + 1.0)
    return vals


# -- zero sum over DA + BC --

def zero_pair_arctan_sum(rect: Rectangle, gammas: Sequence[float]) -> float:
    """The four-arctan zero-pair sum over ``gammas``,

        sum_g [ atan((T-g)/(beta-1/2)) - atan((T-g)/(alpha-1/2))
              + atan((T+g)/(beta-1/2)) - atan((T+g)/(alpha-1/2)) ],

    summed with fsum. It is S_N over the first N ordinates, and 2i times it
    is the combined DA+BC integral of 1/(s-1/2-ig) + 1/(s-1/2+ig) over g.
    """
    a = rect.alpha - 0.5
    b = rect.beta - 0.5
    T = rect.T
    return math.fsum(math.atan((T - g) / b) - math.atan((T - g) / a)
                     + math.atan((T + g) / b) - math.atan((T + g) / a)
                     for g in gammas)


def zero_sum_integrand(zeros: ZeroTable, N: int):
    """Batch integrand of the truncated conjugate-paired sum,
    sum_{k<=N} 2(s-1/2) / ((s-1/2)^2 + gamma_k^2)."""
    gs = np.asarray(zeros.gammas[:N], dtype=np.float64)

    def f(z):
        z = np.asarray(z, dtype=np.complex128)
        u = z - 0.5
        out = np.zeros_like(z)
        for lo in range(0, len(gs), 256):
            gg = gs[lo:lo + 256]
            out += (2.0 * u[:, None] / (u[:, None] ** 2 + gg[None, :] ** 2)).sum(axis=1)
        return out

    return f


def _tail_density_integral(b_minus_a: float, T: float, H: float) -> float:
    """4 T (beta-alpha) * (1/2pi) * int_H^inf log(g/2pi) / (g^2 - T^2) dg,
    summed exactly as a geometric series in (T/H)^2 (needs H > T)."""
    if H <= T * 1.02:
        return math.inf
    c = math.log(H / _TWO_PI)
    x = (T / H) ** 2
    acc = 0.0
    xp = 1.0
    for m_ in range(0, 400):
        k = 2 * m_ + 1
        acc += xp * (c / k + 1.0 / (k * k))
        xp *= x
        if xp * (c + 1.0) < 1e-18 * max(acc, 1.0):
            break
    return 4.0 * T * b_minus_a / _TWO_PI / H * acc


def _tail_fluctuation_bound(b_minus_a: float, T: float, H: float) -> float:
    """Counting-fluctuation part, with weight w(g) = k/(g^2 - T^2),
    k = 4T(beta-alpha).

    Integrating the tail sum by parts against N - estimate, with
    |N - estimate| <= B(g) (``backlund_count_bound``, increasing in g), gives
    2 B(H) w(H) + int_H^inf w(g) B'(g) dg. With
    B'(g) = (0.137 + 0.443/ln g)/g <= (0.137 + 0.443/ln H)/g, the integral is
    at most k (0.137 + 0.443/ln H) ln(H^2/(H^2 - T^2)) / (2T^2).
    """
    if H <= T * 1.02:
        return math.inf
    k = 4.0 * T * b_minus_a
    boundary = 2.0 * backlund_count_bound(H) * k / (H * H - T * T)
    slope = (0.137 + 0.443 / math.log(H)) * k * -math.log1p(-(T / H) ** 2) \
        / (2.0 * T * T)
    return boundary + slope


def zero_tail_bound(rect: Rectangle, H: float) -> float:
    """Certified bound on the discarded DA+BC zero-sum beyond height H."""
    b_a = rect.beta - rect.alpha
    return _tail_density_integral(b_a, rect.T, H) + _tail_fluctuation_bound(b_a, rect.T, H)


def decompose_height(rect: Rectangle, eps2: Optional[float] = None) -> float:
    """The table height ``decompose`` needs at ``eps2`` (default 1/T^2): the
    least H >= T + 10 at which ``_tail_fluctuation_bound``, the one tail term
    of its residual budget, meets eps2 * 2T. The bound falls as H grows, so
    H is found by bisection, down to adjacent doubles. DomainError unless
    eps2 > 0."""
    T = rect.T
    if eps2 is None:
        eps2 = 1.0 / (T * T)
    if not eps2 > 0:
        raise DomainError(f"eps2={eps2!r} must be positive")
    threshold = eps2 * 2.0 * T

    def meets(H):
        return _tail_fluctuation_bound(rect.beta - rect.alpha, T, H) <= threshold

    lo = T + 10.0
    if meets(lo):
        return lo
    hi = 2.0 * lo
    while not meets(hi):
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        lo, hi = (lo, mid) if meets(mid) else (mid, hi)


@dataclass(frozen=True)
class ZeroSumTerm:
    value: complex
    n_used: int
    tail_bound: float
    threshold: Optional[float]


def _tail_bound_beyond(rect: Rectangle, zeros: ZeroTable, n: int) -> float:
    """``zero_tail_bound`` once the first ``n`` ordinates are summed: from
    the next ordinate, or from the table's height when all are summed."""
    H = zeros.gammas[n] if n < len(zeros.gammas) else zeros.max_height
    return zero_tail_bound(rect, H)


def _eps2_truncation(rect: Rectangle, zeros: ZeroTable,
                     eps2: float) -> Tuple[int, float]:
    """(N, eps2 * 2T): the smallest truncation N whose certified tail bound
    meets eps2 * 2T, found by bisection over the table (the bound falls
    as N grows). DomainError unless eps2 > 0; TableTooShort if the whole
    table cannot certify it."""
    if not eps2 > 0:
        raise DomainError(f"eps2={eps2!r} must be positive")
    threshold = eps2 * 2.0 * rect.T
    n_table = len(zeros.gammas)
    least = _tail_bound_beyond(rect, zeros, n_table)
    if least > threshold:
        raise TableTooShort(
            f"tail bound {least:.3e} above eps2*2T={threshold:.3e} "
            f"with table height {zeros.max_height}")
    lo_n, hi_n = 0, n_table
    while lo_n < hi_n:
        mid = (lo_n + hi_n) // 2
        if _tail_bound_beyond(rect, zeros, mid) <= threshold:
            hi_n = mid
        else:
            lo_n = mid + 1
    return lo_n, threshold


def zero_sum_term_integral(rect: Rectangle, zeros: ZeroTable,
                           eps2: Optional[float] = None,
                           N: Optional[int] = None) -> ZeroSumTerm:
    """Truncated paired zero-sum over DA+BC in closed form.

    With ``eps2`` (default 1/T^2; positive, inf allowed), N_used is the
    smallest truncation whose certified tail bound meets eps2 * 2T;
    TableTooShort if the table cannot certify it. An explicit ``N``
    overrides the rule and reports the bound at that truncation.
    """
    n_table = len(zeros.gammas)
    if N is not None:
        if N < 0 or N > n_table:
            raise DomainError(f"N={N} outside the table (size {n_table})")
        n_used, threshold = N, None
    else:
        if eps2 is None:
            eps2 = 1.0 / (rect.T * rect.T)
        n_used, threshold = _eps2_truncation(rect, zeros, eps2)
    value = complex(0.0, 2.0 * zero_pair_arctan_sum(rect, zeros.gammas[:n_used]))
    return ZeroSumTerm(value=value, n_used=n_used,
                       tail_bound=float(_tail_bound_beyond(rect, zeros, n_used)),
                       threshold=threshold)


def zero_tail_estimate(rect: Rectangle, H: float) -> complex:
    """Density-model estimate (not bound) of the discarded zero-sum beyond H:
    i * 4T(beta-alpha) (1/2pi) int_H^inf log(g/2pi)/(g^2-T^2) dg."""
    return complex(0.0, _tail_density_integral(rect.beta - rect.alpha, rect.T, H))


# -- horizontal edges and the asserted total --

def horizontal_edges_model(rect: Rectangle, U: float, V: float) -> complex:
    """Universality-model value of int_AB + int_CD when zeta'/zeta tracks the
    constant U+iV along the top edge: 2i (alpha - beta) V. U cancels between
    the conjugate edges."""
    del U  # cancels exactly in the AB + CD combination
    return 2j * (rect.alpha - rect.beta) * V


def paper_total(rect: Rectangle, V: float, Q: int) -> float:
    """The asserted closed-form value of (1/2 pi i) times the full rectangle
    integral, (beta-alpha)/4 + (alpha-beta) V / pi + Q. Reported verbatim for
    residual analysis against the measured winding; never asserted."""
    a, b = rect.alpha, rect.beta
    return (b - a) / 4.0 + (a - b) * V / math.pi + Q


# ---------------------------------------------------------------------------
# decomposition report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionReport:
    """Termwise vs direct quadrature of int_{DA+BC} zeta'/zeta ds.

    termwise_total = pole + logpi + digamma + zero_sum + zero_tail_estimate;
    residual = |termwise_total - direct_total| and must stay within
    quad_error + tail_bound + closed-form budgets. ``n_used_eps2`` is the
    eps2-certified truncation (diagnostic), None where the table is too
    short to certify it; the sum itself uses the whole table, with the
    density tail estimate covering the rest.
    """

    rect: Rectangle
    pole_term: complex
    logpi_term: complex
    digamma_term: complex
    zero_sum_term: complex
    zero_tail_estimate: complex
    tail_bound: float
    termwise_total: complex
    direct_total: complex
    residual: float
    quad_error: float
    n_used_eps2: Optional[int]
    n_summed: int
    eps2: float
    n_evals: int

    @property
    def residual_budget(self) -> float:
        return self.quad_error + self.tail_bound

    def to_json_dict(self) -> dict:
        c = lambda z: {"re": z.real, "im": z.imag}
        return {"pole": c(self.pole_term), "logpi": c(self.logpi_term),
                "digamma": c(self.digamma_term), "zerosum": c(self.zero_sum_term),
                "zerosum_tail": c(self.zero_tail_estimate),
                "tail_bound": self.tail_bound,
                "termwise": c(self.termwise_total), "direct": c(self.direct_total),
                "residual": self.residual, "quad_error": self.quad_error,
                "n_used_eps2": self.n_used_eps2, "n_summed": self.n_summed,
                "eps2": self.eps2}


def decompose(rect: Rectangle, zeros: ZeroTable, *,
              eps2: Optional[float] = None,
              quad_tol: float = 1e-8) -> DecompositionReport:
    """Four-term decomposition of the vertical-edge pair with residual.

    The zero sum runs over the table's ordinates, and its tail beyond the
    table's height H is modelled (``zero_tail_estimate``) and bounded
    (``_tail_fluctuation_bound``) as a sum over zeros on the critical line.
    That model assumes every zero above H lies on the line. It is verified
    up to 3e12 (Platt and Trudgian 2021, "The Riemann hypothesis is true up
    to 3e12"), but not in general."""
    T = rect.T
    if eps2 is None:
        eps2 = 1.0 / (T * T)
    # the eps2 truncation is a diagnostic the residual budget never reads:
    # None where the table cannot certify it (DomainError for a bad eps2)
    try:
        n_used_eps2, _ = _eps2_truncation(rect, zeros, eps2)
    except TableTooShort:
        n_used_eps2 = None
    zero_sum = complex(0.0, 2.0 * zero_pair_arctan_sum(rect, zeros.gammas))
    tail_est = zero_tail_estimate(rect, zeros.max_height)
    fluct = _tail_fluctuation_bound(rect.beta - rect.alpha, T, zeros.max_height)
    pole = pole_term_integral(rect)
    logpi = logpi_term_integral(rect)
    dig = digamma_term_integral(rect)
    sings = singularity_set(rect, zeros)
    c = rect.corners()
    e_da, eval_da = _log_deriv_edge(c["d"], c["a"], quad_tol / 2, sings)
    e_bc, eval_bc = _log_deriv_edge(c["b"], c["c"], quad_tol / 2, sings)
    direct = e_da.value + e_bc.value
    termwise = pole + logpi + dig.value + zero_sum + tail_est
    return DecompositionReport(
        rect=rect, pole_term=pole, logpi_term=logpi, digamma_term=dig.value,
        zero_sum_term=zero_sum, zero_tail_estimate=tail_est,
        tail_bound=fluct + dig.closed_form_err,
        termwise_total=termwise, direct_total=direct,
        residual=abs(termwise - direct),
        quad_error=e_da.err + eval_da + e_bc.err + eval_bc + quad_tol,
        n_used_eps2=n_used_eps2, n_summed=len(zeros.gammas),
        eps2=eps2, n_evals=e_da.n_evals + e_bc.n_evals)
