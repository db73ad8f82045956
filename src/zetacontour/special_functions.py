"""Zeta, its logarithmic derivative, digamma, xi, and principal log/arg.

Evaluation routes
-----------------
The workhorse is Euler-Maclaurin summation,

    zeta(s) = sum_{n<N} n^-s  +  N^(1-s)/(s-1)  +  N^-s/2
              + sum_{k=1..M} B_2k/(2k)! (s)_{2k-1} N^(1-s-2k)  +  R_{N,M}(s),

with the classical remainder bound
|R| <= |B_{2M+2}/(2M+2)! (s)_{2M+1} N^(-s-2M-1)| * |s+2M+1|/(sigma+2M+1),
valid for sigma > -(2M+1). Both engines take the least N, at or above a floor
growing with |Im s|, at which it meets a quarter of the tolerance: the
double engine at M = F64_EM_TERMS over a batch (``_em_f64_plan``), the
mpmath engine at one point with M = 2 round(-log10(tol)/3), held within
4..MP_EM_TERMS (``_em_mp_plan``). zeta' is
the termwise derivative with an analogous bound. For sigma <= -1 both are
continued through the functional equation.

An independent cross-check route, ``zeta_alternating``, sums the alternating
Dirichlet eta series with an Euler-transformed tail and divides by
(1 - 2^(1-s)). It is the oracle used by the verification suite. It shares
one thing with the mpmath engine's Euler-Maclaurin path: the Dirichlet term
table n^-s (``_dirichlet_terms``), a fixed-point integer kernel. Each term
is a pair of Python integers scaled by 2^wp, wp the working precision plus
guard bits derived from s and N (``_kernel_bits``); a prime takes one exp
and one cos/sin from mpmath's fixed-point primitives, a composite is an
integer product of smaller entries. Both routes add the terms as integers
and round once, when the sum becomes an mpc; the Euler-Maclaurin path also
computes its closed-form terms in those integers (``_em_fixed``). Nothing
else is shared; a test holds that table to ``mp.power(n, -s)``.

psi has one route per engine: ``digamma_batch`` (reflection, recurrence
and eight Bernoulli terms in complex128) and, at an mpmath config,
``mp.digamma``, which ``digamma`` and the reflected zeta' (``_chi_mp``) both
call. xi has one formula, (s-1) pi^(-s/2) Gamma(s/2+1) zeta(s), and one
reflection, xi(s) = xi(1-s), at its removable points.

Both engines of ``PrecisionConfig`` are implemented: scalar mpmath at
configured digits, and a vectorized complex128 path (``*_batch``) at the one
tolerance ``F64_TOL``, used by the quadrature, zero-finder and universality
modules and by the scalar operations at a double config.
"""
from __future__ import annotations

import cmath
import itertools
import math
import operator
from typing import Tuple

import numpy as np
import mpmath as mp
from mpmath.libmp import from_man_exp, ln2_fixed, log_int_fixed, pi_fixed, \
    round_nearest, to_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed

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
    F64_TOL,
    FLAG_RADIUS,
    ComplexValue,
    PrecisionConfig,
    as_mpc,
)

_TWO_PI = 2.0 * math.pi

_F64_MAX_T = 2.5e4  # desk-scale ceiling of |Im s| for the double engine

# Bernoulli correction terms M of the double engine's Euler-Maclaurin sum,
# and the most the mpmath engine plans with
F64_EM_TERMS = 14
MP_EM_TERMS = 16
# B_2k/(2k)! correctly rounded to doubles, k = 0..F64_EM_TERMS: the double
# engine's coefficients, written out so that they do not depend on mpmath's
# precision at import
_B2K_OVER_FACT = [
    1.0, 0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23]
# B_2n/(2n) correctly rounded, n = 1..8: ``digamma_batch``'s coefficients
_B2N_OVER_2N = [
    0.08333333333333333, -0.008333333333333333, 0.003968253968253968,
    -0.004166666666666667, 0.007575757575757576, -0.021092796092796094,
    0.08333333333333333, -0.4432598039215686]
# an N that passes this many times its floor is refused (``_em_mp_plan``)
_EM_MAX_GROWTH = 1.3 ** 40

# The double engine contracts a batch over the grid of its distinct heights x
# abscissae only when that grid has at most this many cells per point;
# scattered points would otherwise build a grid quadratic in the batch.
_GRID_FILL = 2
_ROW_BLOCK = 1 << 16  # table entries gathered per block (phase fill, scattered path)
# points per block of the closed-form tail's nest (``_em_tail``): its four
# complex temporaries then take 256 kB
_TAIL_BLOCK = _ROW_BLOCK // 16
# N quanta holding fewer points than this share one Euler-Maclaurin group
# (``_em_f64_groups``). Of 64, 128, 256 and 512, 64 to 256 ran
# find_zeros_up_to(2600) in times within noise of each other and 512 slower;
# at T = 25,000, where a merged group's tables run to N ~ 14,000, 128 kept
# the peak memory at the unmerged engine's 117 MB, 256 reached 164 MB, in
# like times (one BLAS thread, 2 shared vCPUs)
_MERGE_BELOW = 128


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
# Euler-Maclaurin plan and closed-form tail
# ---------------------------------------------------------------------------

def _em_f64_plan(sigma, t, tol):
    """The double engine's Euler-Maclaurin truncation plan at the 1-d arrays
    sigma and t = |Im s| and M = ``F64_EM_TERMS``: (N, log_bound), with

        log_bound(ln N) = base - (sigma + 2M + 1) ln N + ln tail

    the log of the remainder bound at N, base the log of 2.2 (2 pi)^-(2M+2)
    |(s)_{2M+1}| and tail = |s + 2M + 1| / (sigma + 2M + 1). N is the least
    integer at or above the floor max(ceil(0.55 (t + 2M)) + 8,
    ceil(1.1 (-log10 tol))) where log_bound(ln N) meets ln(tol/4). Linear in
    ln N, the bound gives N in closed form; one check of the inequality as
    written adds 1 where rounding left N short. Over the double engine's
    domain N stays within twice its floor, so no N is refused.
    """
    # ln |s + j| summed in order of j, so row 2M is ln |(s)_{2M+1}|, at most
    # _ROW_BLOCK table entries at a time; the clip only matters where a
    # factor vanishes exactly
    rows = 2 * F64_EM_TERMS
    j = np.arange(rows + 1.0)
    t2 = t * t
    lp = np.empty(len(sigma))
    width = _ROW_BLOCK // len(j)
    for lo in range(0, len(sigma), width):
        b = slice(lo, lo + width)
        x = np.add.outer(j, sigma[b])
        np.square(x, out=x)
        x += t2[b]
        np.log(np.maximum(x, 1e-300, out=x), out=x)
        # row after row, so that a point's sum never depends on its batch
        # (np.add.reduce sums a one-column block pairwise; np.cumsum takes
        # several times as long across a wide block); halving the sum once
        # is exact, so it equals the sum of the halved logs
        for prev, row in zip(x, x[1:]):
            row += prev
        np.multiply(x[rows], 0.5, out=lp[b])
    base = math.log(2.2) - (rows + 2) * math.log(_TWO_PI) + lp
    k = sigma + rows + 1
    tail = np.log(np.hypot(k, t) / k)

    def log_bound(lnN):
        return base - k * lnN + tail

    logtol = math.log(0.25 * tol)
    N0 = np.maximum(np.ceil(0.55 * (t + rows)) + 8, math.ceil(1.1 * (-math.log10(tol))))
    N = np.maximum(N0, np.ceil(np.exp((base + tail - logtol) / k)))
    return N + (log_bound(np.log(N)) > logtol), log_bound


def _em_tail(s, N, acc, dacc):
    """The direct sums ``acc`` = sum_{n<N} n^-s and ``dacc`` (its derivative)
    completed by the closed-form part of Euler-Maclaurin,

        N^(1-s)/(s-1) + N^-s/2 + sum_{k=1..M} c_k (s)_{2k-1} N^(1-s-2k),

    M = ``F64_EM_TERMS`` and c_k = B_2k/(2k)! (``_B2K_OVER_FACT``), and its
    termwise derivative; returns (acc, dacc). The double engine's: ``s`` is
    a complex128 array and N an integer array, each point's own N. The
    mpmath engine computes the same terms in fixed point (``_em_fixed``).

    The sum over k is nested (Horner): N^(-1-s) s P_1, with P_M = c_M,
    P_k = c_k + q_k P_{k+1} and q_k = (s + 2k - 1)(s + 2k) / N^2, the ratio
    of consecutive terms over that of their coefficients; P' runs through
    the same recursion, with q_k' = (2s + 4k - 1) / N^2. The nest runs in
    place, ``_TAIL_BLOCK`` points at a time, so that its temporaries stay in
    cache. It divides by N^2 as a product with the rounded reciprocal 1/N^2
    (a float per point, or a Python float where the batch has one N), which
    is how numpy divides by the complex N^2 + 0i: q_k rounds in the product
    (s + 2k - 1)(s + 2k), in 1/N^2 and in the scaling.

    numpy's complex products can round differently in the two operand
    orders (its vector loops may fuse a multiply and an add), so every
    product keeps the order of the whole-array expressions it replaces. The
    terms outside the nest stay whole-array expressions: numpy reuses a
    temporary of at least 256 KiB (16,384 points) as the output of a
    product, and multiplies in the other order, so the last bits of zeta'
    in the final line depend on the batch's length.
    """
    # ln N by math.log once per distinct N, so that it does not depend on the
    # batch (numpy's log of a long array can differ from it in the last bit);
    # N and 1/N^2 enter only complex products and quotients, so each is
    # formed once, or stays a Python scalar where the batch has one N
    lo, hi = int(N.min()), int(N.max())
    if lo == hi:
        lnN, Nc, rN2 = math.log(lo), lo, 1.0 / (lo * lo)
    else:
        seen = np.zeros(hi - lo + 1, dtype=bool)
        seen[N - lo] = True
        logs = np.zeros(len(seen))
        logs[seen] = [math.log(n) for n in (np.flatnonzero(seen) + lo).tolist()]
        lnN = logs[N - lo]
        Nc, rN2 = N.astype(np.complex128), 1.0 / (N * N)
    NmS = np.exp(-s * lnN)
    acc = acc + Nc * NmS / (s - 1.0) + 0.5 * NmS
    dacc = dacc - lnN * Nc * NmS / (s - 1.0) - Nc * NmS / (s - 1.0) ** 2
    dacc = dacc - 0.5 * lnN * NmS
    P = np.full_like(s, _B2K_OVER_FACT[F64_EM_TERMS])
    dP = np.zeros_like(s)
    a, b, q, w = (np.empty(min(len(s), _TAIL_BLOCK), dtype=np.complex128)
                  for _ in range(4))
    for start in range(0, len(s), _TAIL_BLOCK):
        blk = slice(start, start + _TAIL_BLOCK)
        sb, Pb, r = s[blk], P[blk], (rN2[blk] if np.ndim(rN2) else rN2)
        dPb = dP[blk]
        ab, bb, qb, wb = a[:len(sb)], b[:len(sb)], q[:len(sb)], w[:len(sb)]
        for k in range(F64_EM_TERMS - 1, 0, -1):
            np.add(sb, 2 * k - 1, out=ab)
            np.add(sb, 2 * k, out=bb)
            np.multiply(ab, bb, out=qb)
            np.multiply(qb, r, out=qb)  # q_k
            np.add(ab, bb, out=wb)
            np.multiply(wb, r, out=wb)
            np.multiply(wb, Pb, out=wb)
            np.multiply(qb, dPb, out=dPb)
            np.add(wb, dPb, out=dPb)  # q_k' P + q_k P'
            np.multiply(qb, Pb, out=Pb)
            np.add(_B2K_OVER_FACT[k], Pb, out=Pb)  # c_k + q_k P
    Npow = NmS / Nc  # N^(-1-s)
    acc = acc + Npow * s * P
    dacc = dacc + Npow * (P + s * (dP - lnN * P))
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


def _em_f64_group(s, N):
    """Euler-Maclaurin for zeta and zeta' at a complex128 batch, each point at
    its own N (an integer array), from tables that run to the largest, Nmax.

    The main sum, sum_{n<N} n^-sigma (cos(t ln n) - i sin(t ln n)), and its
    zeta' twin with amplitude -ln n n^-sigma, are contracted from two tables:
    a phase table exp(i t ln n) (``_phase_table``: transcendentals on prime
    rows, products elsewhere), one column per distinct height, and an
    amplitude table n^-sigma, -ln n n^-sigma, one row pair per distinct
    abscissa. A point's entries for N <= n < Nmax are zeroed before the
    contraction, by slices, once per distinct N, so its sum has exactly the
    terms it would have alone. Where every height has one N and the grid of
    distinct heights x distinct abscissae has at most ``_GRID_FILL`` cells
    per point (a line, a lattice of shifted segments), the phase columns are
    cut at their height's N and one real matrix product (BLAS dgemm)
    contracts the whole grid, with the complex phase table read as its
    (cos, sin) float pairs, and each point reads its cell. Scattered points
    instead contract their own phase column, cut at their own N, with their
    own amplitude row (``np.einsum``), ``_ROW_BLOCK`` table entries at a
    time, taken in order of height so that a block reads neighbouring
    columns. The last bits of a value can depend on the BLAS thread count,
    through the columns each thread takes: on a 2048 x 33 lattice at
    t in [100, 202], 96 of its 270,336 real and imaginary parts of zeta and
    zeta' moved, by at most 1.8e-15, between one and two OpenBLAS threads.

    Rounding of the phase: a prime's phase is off by about t ln p u (u the
    unit roundoff), and these add up over the prime factors of n to the
    t ln n u of a direct cos/sin(t ln n); the Omega(n) - 1 complex products
    add a few u each.

    Summation order: each sum over n is a dot product accumulated along n,
    not numpy's pairwise sum, so its worst-case rounding error grows like
    N u times the summed magnitudes, not log2(N) u; the per-term allowance
    F64_ROUNDOFF of ``_f64_errors`` models neither. The tables run from
    n = Nmax-1 down to n = 1, smallest terms first (a point cut at a smaller
    N adds exact zeros first): on sigma in [0.6, 0.8], t <= 500 that halved
    the mean rounding error of the ascending order (and beat the pairwise
    sum by a third). The last bits of a point's value depend on which path
    its batch took, and on the dgemm path also on its column position in the
    grid product and the length of the sum: BLAS kernels may block and
    vectorize the sum over n differently for different output columns.
    ``zeta_batch`` hands this function folded points (Im s >= 0), so a
    symmetric edge fills one phase column per distinct |t|.
    """
    Nmax = int(N.max())
    ln_n = np.log(np.arange(Nmax - 1, 0, -1, dtype=np.float64))
    ts, h = np.unique(s.imag, return_inverse=True)
    sigmas, v = np.unique(s.real, return_inverse=True)
    H, V = len(ts), len(sigmas)
    phase = _phase_table(ts, ln_n, Nmax).view(np.float64).reshape(Nmax - 1, H, 2)
    amp = np.exp(-np.multiply.outer(sigmas, ln_n))[None]
    amp = np.concatenate((amp, -ln_n * amp))
    # row r holds n = Nmax-1-r, so a point at N drops its first Nmax - N rows
    merged = N.min() < Nmax
    on_grid = H * V <= _GRID_FILL * len(s)
    if merged and on_grid:
        Nh = np.empty(H, dtype=N.dtype)
        Nh[h] = N  # each height's N, if its points share one
        on_grid = np.array_equal(Nh[h], N)
        if on_grid:
            for Nv in set(Nh.tolist()) - {Nmax}:
                phase[:Nmax - Nv, Nh == Nv] = 0.0
    # main[b, point, c]: amplitude b (n^-sigma, -ln n n^-sigma) times cos (c = 0)
    # or sin (c = 1)
    if on_grid:
        grid = amp.reshape(2 * V, Nmax - 1) @ phase.reshape(Nmax - 1, 2 * H)
        main = grid.reshape(2, V, H, 2)[:, v, h]
    else:
        main = np.empty((2, len(s), 2))
        step = max(1, _ROW_BLOCK // (Nmax - 1))
        by_height = np.argsort(h, kind="stable")
        for lo in range(0, len(s), step):
            sl = by_height[lo:lo + step]
            cols = phase[:, h[sl]].transpose(1, 2, 0).copy()  # n contiguous, as amp
            if merged:
                Ns = N[sl]
                for Nv in set(Ns[Ns < Nmax].tolist()):
                    cols[Ns == Nv, :, :Nmax - Nv] = 0.0
            main[:, sl] = np.einsum("pcn,bpn->bpc", cols, amp[:, v[sl]])
    vals = main[0, :, 0] - 1j * main[0, :, 1]
    dvals = main[1, :, 0] - 1j * main[1, :, 1]
    del phase, amp, main  # the tables go before the tail's temporaries come
    return _em_tail(s, N, vals, dvals)


def _prime_lever(lnN, M, abs_s):
    """ln N + 2M + 2 + 1/max(|s|, 0.1): zeta's remainder bound times this
    bounds the remainder of zeta' (both engines)."""
    return lnN + 2 * M + 2 + 1.0 / np.maximum(abs_s, 0.1)


def _f64_errors(s, N, trunc):
    """The double engine's bounds (err, derr) on zeta and zeta' at the
    points s, planned at N with truncation bound ``trunc``.

    err is trunc plus the rounding allowance F64_ROUNDOFF (3 + S + edge),
    with S the closed-form bound on sum_{n<N} n^-sigma below and
    edge = N^(1-sigma)/|s - 1| the size of the tail's first term. derr is
    trunc times the zeta' lever (``_prime_lever``) plus the allowance times
    1 + ln N, which bounds the weights ln n of the derivative's terms.
    Neither counts the rounding of the phase table or the order of the
    summation (``_em_f64_group``), so the bounds are not yet proven.
    """
    sigma = s.real
    # sum_{n<N} n^-sigma <= 1 + (N^(1-sigma) - 1)/(1 - sigma), 1 + ln N at
    # sigma = 1, where the quotient is 0/0 and is not formed
    d = 1.0 - sigma
    far = np.abs(d) > 1e-9
    Nf = N.astype(float)
    Npow = np.power(Nf, d)  # N^(1-sigma)
    lnN = np.log(Nf)
    sumabs = np.where(far, 1.0 + np.abs((Npow - 1.0) / np.where(far, d, 1.0)), 1.0 + lnN)
    edge = Npow / np.maximum(np.abs(s - 1.0), 1e-3)
    ro = F64_ROUNDOFF * (3.0 + sumabs + edge)
    derr = trunc * _prime_lever(lnN, F64_EM_TERMS, np.abs(s)) + ro * (1.0 + lnN)
    return trunc + ro, derr


def _em_f64_groups(N):
    """The ``_em_f64_group`` calls of a batch whose points plan the N of
    array ``N``, as index arrays: a quantum (one N) of at least
    ``_MERGE_BELOW`` points alone, and runs of adjacent smaller quanta
    merged, a run closing once it holds ``_MERGE_BELOW`` points. A call
    costs about 200 us even for one point (at N = 1008, half of it the phase
    table's levels, half the closed-form tail), which scattered points spread
    over many quanta then share."""
    order = np.argsort(N, kind="stable")
    starts = np.flatnonzero(np.diff(N[order])) + 1
    groups, run = [], 0
    for lo, hi in zip([0, *starts.tolist()], [*starts.tolist(), len(N)]):
        if hi - lo >= _MERGE_BELOW and run < lo:
            groups.append(order[run:lo])
            run = lo
        if hi - run >= _MERGE_BELOW:
            groups.append(order[run:hi])
            run = hi
    if run < len(N):
        groups.append(order[run:])
    return groups


def zeta_batch(s_arr):
    """Vectorized zeta and zeta' for complex128 inputs, by the double engine
    at its one tolerance ``F64_TOL`` (Re s >= -1). Returns
    (vals, dvals, errs, derrs), in input order.

    zeta has real Dirichlet coefficients, so zeta(conj s) = conj zeta(s), and
    likewise zeta'. Each point is folded to sigma + i|t| and the folded
    points are deduplicated, so the plan, the sums and the bounds run once
    per distinct (sigma, |t|); a point with Im s < 0 (t = -0.0 is not
    flipped) returns the exact conjugate of its folded value, with the same
    bounds, which depend on (sigma, |t|) only. A symmetric edge of the
    rectangles D(alpha, beta, T) thus costs half its nodes. A batch that is
    already strictly ordered by (Re s, Im s), with no Im s < 0, is its own
    folded set and is evaluated without a permutation, to the same bits. The
    last bits of a value can depend on the other points of its batch
    (``_em_f64_group``, ``_em_tail``), never its bounds.
    """
    s = np.asarray(s_arr, dtype=np.complex128).ravel()
    if not np.all(np.isfinite(s)):
        raise DomainError("batch points must be finite")
    if np.any(s.real < -1.0 - 1e-12):
        raise DomainError("batch evaluation covers Re s >= -1 only")
    if np.any(np.abs(s - 1.0) < EXCLUSION_RADIUS):
        raise PoleAtOne("batch point inside the exclusion radius of s=1")
    if np.any(np.abs(s.imag) > _F64_MAX_T):
        raise PrecisionExhausted(f"|Im s| beyond the desk ceiling {_F64_MAX_T:g}")
    # zeta(conj s) = conj zeta(s): evaluate each distinct sigma + i|t| once.
    # The distinct folded points u are those of np.unique, in its order, but
    # found by sorting two float keys: numpy sorts complex128 with scalar
    # comparisons, several times slower on batches of 1e4-1e5 points. A batch
    # with no Im s < 0, strictly ordered by (Re s, Im s) (a sigma-major
    # lattice, as the shift scan builds), is its own u and is not permuted.
    flip = s.imag < 0
    re, im = s.real, s.imag
    if flip.any() or not np.all((re[1:] > re[:-1])
                                | ((re[1:] == re[:-1]) & (im[1:] > im[:-1]))):
        folded = np.where(flip, s.conj(), s)
        order = np.lexsort((folded.imag, folded.real))
        folded = folded[order]
        first = np.empty(s.size, dtype=bool)
        first[0] = True
        np.not_equal(folded[1:], folded[:-1], out=first[1:])
        u = folded[first]
        inv = np.empty(s.size, dtype=np.intp)
        inv[order] = np.cumsum(first) - 1
    else:
        u, inv = s, None
    N, log_bound = _em_f64_plan(u.real, u.imag, F64_TOL)
    # quantize each point's N upward to a multiple of 16, so that a batch
    # falls into few N groups. A larger N lowers the truncation bound but
    # raises the rounding allowance, so the quantum is per point and a bound
    # never depends on the batch; merged groups keep each point's own N.
    N = ((N.astype(np.int64) + 15) // 16) * 16
    vals, dvals = np.empty_like(u), np.empty_like(u)
    for idx in _em_f64_groups(N):
        vals[idx], dvals[idx] = _em_f64_group(u[idx], N[idx])
    errs, derrs = _f64_errors(u, N, np.exp(log_bound(np.log(N))))
    if inv is None:
        return vals, dvals, errs, derrs
    vals, dvals, errs, derrs = vals[inv], dvals[inv], errs[inv], derrs[inv]
    np.conjugate(vals, out=vals, where=flip)
    np.conjugate(dvals, out=dvals, where=flip)
    return vals, dvals, errs, derrs


def log_deriv_batch(s_arr):
    """Vectorized zeta'/zeta with propagated error bounds (double engine);
    PrecisionExhausted where zeta's error bound reaches |zeta|."""
    return _log_deriv(*zeta_batch(s_arr))


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
    for c in _B2N_OVER_2N:
        val = val - c * p
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

def _kernel_bits(s, N):
    """Bits wp of the fixed-point kernel for n^-s, n < N, at the working
    precision prec = mp.prec: prec + 1 + ceil(log2 E), with

        E = (2 + |sigma| + |t|)(2 + ln N) + 31 + 3 N^max(0, sigma)

    the relative error of a prime's term in units u = 2^-wp
    (``_dirichlet_terms``)."""
    sigma, t = float(mp.re(s)), float(mp.im(s))
    a = (2 + abs(sigma) + abs(t)) * (2 + math.log(N)) + 31
    b = math.log2(3) + max(0.0, sigma) * math.log2(N)  # log2 of 3 N^max(0, sigma)
    # log2 E = log2(a + 2^b), without overflow at large sigma
    return mp.mp.prec + 1 + math.ceil(b + math.log2(1 + a * 2.0 ** -b))


def _dirichlet_terms(s, N, wp):
    """n^-s and ln n for 0 <= n < N (N >= 2) as fixed-point integers scaled
    by 2^wp: lists ``re``, ``im`` and ``logs``, entry 0 zero.

    A prime p takes one real exp and one cos/sin of the fixed-point
    exponent sigma ln p and angle t ln p, with ln p from ``log_int_fixed``.
    In units u = 2^-wp: ln p is within 2 u, sigma and t are truncated to
    within 1 u, so the exponent is off by at most (2|sigma| + ln p + 1) u
    and the angle by (2|t| + ln p + 1) u; reducing the angle by pi/2 (known
    to 1 u) adds (2|t| ln p / pi + 1) u; mpmath's fixed-point exp and
    cos/sin, which work at added guard bits, are within 16 u each (they
    reach 8 at most over random arguments at 80 to 1400 bits); the shift
    of exp and the product of modulus and phase truncate by at most 3 u
    absolute, that is 3 p^max(0, sigma) u relative. Together a prime's
    term is within E u relative (``_kernel_bits``). A composite
    n = p m, p its smallest prime factor, is the complex product of the
    entries of p and m, truncated to wp bits (at most 2 n^max(0, sigma) u
    relative, below E u), and ln n is their sum; by induction over the
    Omega(n) prime factors, term n is off by at most (2 Omega(n) - 1) E u
    relative to first order, which is Omega(n) 2^-prec at the bits of
    ``_kernel_bits``, and ln n by 2 Omega(n) u.
    """
    spf = _sieve(N)[0][:N].tolist()
    sig = to_fixed(mp.re(s)._mpf_, wp)
    tf = to_fixed(mp.im(s)._mpf_, wp)
    ln2, pi2 = ln2_fixed(wp), pi_fixed(wp - 1)
    re, im, logs = [0, 1 << wp], [0, 0], [0, 0]
    for n in range(2, N):
        p = spf[n]
        if p == n:
            L = log_int_fixed(n, wp)
            a = exp_fixed(-((sig * L) >> wp), wp, ln2)
            c, sn = cos_sin_fixed((tf * L) >> wp, wp, pi2)
            re.append((a * c) >> wp)
            im.append(-((a * sn) >> wp))
        else:
            m = n // p
            ar, ai, br, bi = re[p], im[p], re[m], im[m]
            re.append((ar * br - ai * bi) >> wp)
            im.append((ar * bi + ai * br) >> wp)
            L = logs[p] + logs[m]
        logs.append(L)
    return re, im, logs


def _fixed_to_mpc(re, im, shift):
    """The complex number (re + i im) 2^-shift, rounded once to mp.prec."""
    prec = mp.mp.prec
    return mp.mp.make_mpc((from_man_exp(re, -shift, prec, round_nearest),
                           from_man_exp(im, -shift, prec, round_nearest)))


# c_{k+1}/c_k, c_k = B_2k/(2k)!, k = 1..MP_EM_TERMS-1, as exact integer
# pairs (numerator, denominator): taken from mpmath on first use
_BERNOULLI_RATIOS = []
_FIXED_RATIOS = {}


def _bernoulli_ratios(wp):
    """``_BERNOULLI_RATIOS`` in fixed point at wp bits, each rounded down
    (within 2^-wp); computed once per wp and kept at module level."""
    ratios = _FIXED_RATIOS.get(wp)
    if ratios is None:
        if not _BERNOULLI_RATIOS:
            B = [mp.bernfrac(2 * k) for k in range(1, MP_EM_TERMS + 1)]
            _BERNOULLI_RATIOS[:] = [(p1 * q0, q1 * p0 * (2 * k + 1) * (2 * k + 2))
                                    for k, ((p0, q0), (p1, q1)) in enumerate(zip(B, B[1:]), 1)]
        ratios = _FIXED_RATIOS[wp] = [(a << wp) // b for a, b in _BERNOULLI_RATIOS]
    return ratios


def _em_mp_plan(sigma, t, tol, abs_s=None):
    """(N, M, ln trunc) of the mpmath engine at one point, t = |Im s|, for
    the planning tolerance tol: M = 2 round(-log10(tol)/3), held within
    4..MP_EM_TERMS, and N the least at or above the floor
    max(ceil(0.55 (t + 2M)) + 8, ceil(1.1 (-log10 tol))) where the classical
    remainder bound, |B_{2M+2}|/(2M+2)! taken as 2.2 (2 pi)^-(2M+2), times
    the zeta' lever ``_prime_lever`` when ``abs_s`` = |s| is given, meets
    tol/4; trunc is the bound without the lever at (N, M). PrecisionExhausted
    where that N lies past ``_EM_MAX_GROWTH`` times its floor.

    M follows from the digits wanted, as the double engine's 14 terms do
    (Edwards, Riemann's Zeta Function, 1974, ch. 6): one more Bernoulli
    term multiplies the bound by about |(s + 2M + 1)(s + 2M + 2)| / (2 pi N)^2,
    at t = 0, where the floor is N ~ 1.1 M + 8, by
    (2M + 1.5)^2 / (2 pi (1.1 M + 8))^2, 10^-1.7 to 10^-1.4 for M = 6..16.
    Each term thus gains about 1.5 digits, d digits take about 2d/3 terms,
    and where they fall short N rises above its floor. Because M depends
    on tol alone, so does the plan.

    The lever grows with ln N, so N is stepped from the floor, never past
    the least N, until it stops; without it the first step is the closed
    form. One check of the inequality as written adds 1 where rounding left
    N short. numpy's log, exp and hypot stand where math's could round
    differently.
    """
    M = min(max(2 * round(-math.log10(tol) / 3), 4), MP_EM_TERMS)
    rows = 2 * M
    # ln |(s)_{2M+1}|, the logs of |s + j| summed in order of j
    x = np.arange(rows + 1.0) + sigma
    lp = 0.5 * float(np.cumsum(np.log(np.maximum(x * x + t * t, 1e-300)))[rows])
    base = math.log(2.2) - (rows + 2) * math.log(_TWO_PI) + lp
    k = sigma + rows + 1
    tail = float(np.log(np.hypot(k, t) / k))
    logtol = math.log(0.25 * tol)
    N0 = float(max(math.ceil(0.55 * (t + rows)) + 8, math.ceil(1.1 * (-math.log10(tol)))))
    N, step, lever = 0.0, N0, 0.0
    while step > N:
        N = step
        if abs_s is not None:
            lever = float(np.log(_prime_lever(float(np.log(N)), M, abs_s)))
        e = float(np.exp((base + tail - logtol + lever) / k))
        if not e <= _EM_MAX_GROWTH * N0:
            raise PrecisionExhausted(f"Euler-Maclaurin bound stuck above tol={tol:g}")
        step = float(max(N0, math.ceil(e)))
    N += base - k * float(np.log(N)) + tail + lever > logtol
    return int(N), M, base - k * math.log(N) + tail


def _em_fixed(s, N, M, want_prime):
    """Euler-Maclaurin for zeta(s) at (N, M), and zeta' when ``want_prime``,
    in fixed point: (wp, (re, im), (dre, dim) or None), each value the
    integer pair scaled by 2^(2 wp), wp = ``_kernel_bits`` for n <= N.

    The direct sums are those of ``_dirichlet_terms`` over n < N, and its
    entry N gives N^-s and ln N. The closed-form tail

        N^(1-s)/(s-1) + N^-s/2 + sum_{k=1..M} c_k (s)_{2k-1} N^(1-s-2k),

    c_k = B_2k/(2k)!, and its termwise derivative are computed in the same
    integers. 1/(s-1) is the exact quotient of the parts of s, rounded down.
    The sum over k is nested (Horner) and scaled so that every quantity is
    O(1): N^-s s P'_1 / (12 N), with P'_M = 1,
    P'_k = 1 + q'_k P'_{k+1} and q'_k = rho_k (s + 2k - 1)(s + 2k) / N^2,
    rho_k = c_{k+1}/c_k (``_bernoulli_ratios``). The floor
    N >= 0.55 (|t| + 2M) + 8 and |rho_k| < 1/(2 pi)^2 give
    |q'_k| <= (|sigma| + 1.82 N)^2 / (2 pi N)^2 <= 0.21 for |sigma| <= N,
    so |P'_k| <= 1.27. zeta' nests dP'_k = g_k P'_{k+1} + q'_k dP'_{k+1},
    g_k = rho_k (2s + 4k - 1) / N^2, |g_k| <= 0.15/N, and closes with
    N^-s (P'_1 + s (dP'_1 - ln N P'_1)) / (12 N). Every product is exact
    but those that the nest truncates to wp bits and the divisions, each
    rounded down once. ``_em_mp`` derives the error.
    """
    wp = _kernel_bits(s, N + 1)
    re, im, logs = _dirichlet_terms(s, N + 1, wp)
    xr, xi, L = re.pop(), im.pop(), logs.pop()  # N^-s and ln N
    one = 1 << wp
    sr, si = s.real._mpf_, s.imag._mpf_
    sig, tf = to_fixed(sr, wp), to_fixed(si, wp)
    # 1/(s - 1) from s - 1 held exactly, at F >= wp fractional bits
    F = max(wp, -sr[2], -si[2])
    wr, wi = to_fixed(sr, F) - (1 << F), to_fixed(si, F)
    D = wr * wr + wi * wi
    ir, ii = (wr << (F + wp)) // D, (-wi << (F + wp)) // D
    # N^(1-s)/(s-1) + N^-s/2
    er, ei = N * (xr * ir - xi * ii), N * (xr * ii + xi * ir)
    accr, acci = er + (xr << (wp - 1)), ei + (xi << (wp - 1))
    ratios = _bernoulli_ratios(wp)
    qden, gden = (N * N) << (2 * wp), (N * N) << wp
    tt = tf * tf
    Pr, Pi, dPr, dPi = one, 0, 0, 0
    for k in range(M - 1, 0, -1):
        ar, br, R = sig + (2 * k - 1) * one, sig + 2 * k * one, ratios[k - 1]
        qr, qi = (ar * br - tt) * R // qden, tf * (ar + br) * R // qden
        if want_prime:
            gr, gi = (ar + br) * R // gden, 2 * tf * R // gden
            dPr, dPi = (gr * Pr - gi * Pi + qr * dPr - qi * dPi) >> wp, \
                (gr * Pi + gi * Pr + qr * dPi + qi * dPr) >> wp
        Pr, Pi = one + ((qr * Pr - qi * Pi) >> wp), (qr * Pi + qi * Pr) >> wp
    # N^-s s P'_1 / (12 N)
    xsr, xsi = xr * sig - xi * tf, xr * tf + xi * sig
    close = (12 * N) << wp
    accr += (xsr * Pr - xsi * Pi) // close
    acci += (xsr * Pi + xsi * Pr) // close
    accr, acci = accr + (sum(re) << wp), acci + (sum(im) << wp)
    if not want_prime:
        return wp, (accr, acci), None
    # -(ln N + 1/(s-1)) N^(1-s)/(s-1) - ln N N^-s/2
    lr = L + ir
    dr = -((er * lr - ei * ii) >> wp) - ((L * xr) >> 1)
    di = -((er * ii + ei * lr) >> wp) - ((L * xi) >> 1)
    # N^-s (P'_1 + s (dP'_1 - ln N P'_1)) / (12 N)
    ur, ui = (dPr << wp) - L * Pr, (dPi << wp) - L * Pi
    vr = (Pr << (2 * wp)) + sig * ur - tf * ui
    vi = (Pi << (2 * wp)) + sig * ui + tf * ur
    close <<= wp
    dr += (xr * vr - xi * vi) // close
    di += (xr * vi + xi * vr) // close
    dr -= sum(map(operator.mul, logs, re))
    di -= sum(map(operator.mul, logs, im))
    return wp, (accr, acci), (dr, di)


def _em_mp(s: mp.mpc, cfg: PrecisionConfig, want_prime: bool, scale: float = 1.0):
    """Scalar Euler-Maclaurin in mpmath at cfg.dps digits; (zeta, zeta' or
    None, err, derr or None).

    M is fixed by the tolerance and N planned (``_em_mp_plan``) so that the
    remainder bound, times the zeta' lever ln N + 2M + 2 + 1/|s| when
    ``want_prime`` and times ``scale`` when that exceeds 1 (the reflected
    branch of ``_zeta_scalar`` multiplies this engine's bounds by it),
    meets tol/4: the bound that is checked.

    The whole sum runs in fixed point (``_em_fixed``) and is rounded once to
    prec = mp.prec. Its wp bits are ``_kernel_bits`` for n <= N, so
    u = 2^-wp is at most 2^-prec/64 and 2^-prec N^-sigma/6. Write
    A = N^max(0, 1-sigma), r = min(1, |s - 1|) and eps = Omega(N) 2^-prec
    <= log2 N 2^-prec, the relative error of table entry N.

    Direct sums: term n is within Omega(n) 2^-prec <= log2 N 2^-prec
    relative, so the zeta sum is off by at most (1 + log2 N) 2^-prec S,
    S = sum_{n<N} n^-sigma <= A (1 + ln N), and the zeta' sum, which adds
    the exact products of ln n and n^-s, by ln N times that and the
    2 Omega(n) u of ln n.

    Tail, to first order, for |sigma| <= N (so |s| <= 2.82 N and
    N^-sigma <= N^(1-sigma)/8): N^-s is within eps relative, ln N within
    2 log2 N u and 1/(s-1) within sqrt(2) u, so the edge terms are off by
    eps N^(1-sigma)/|s-1| + sqrt(2) u N^(1-sigma) + eps N^-sigma/2. In the
    nest, rho_k within u and |q_k| <= 7.95 put q'_k within 9.4 u; each step
    truncates once, so P'_1 is within (9.4 * 1.27 + sqrt 2) u / 0.79 <= 17 u,
    and with |s|/(12 N) <= 0.24 the Bernoulli part is within
    N^-sigma (0.3 eps + 4 u). Together the tail is off by at most

        T = (1 + log2 N) 2^-prec N^(1-sigma) (1 + 1/|s-1|).

    zeta' adds the edge terms -ln N N^-s/2, off by eps ln N N^-sigma/2 +
    2 log2 N u N^-sigma, and -(ln N + 1/(s-1)) N^(1-s)/(s-1), off by
    (eps N^(1-sigma)/|s-1| + sqrt(2) u N^(1-sigma))(ln N + 1/|s-1|) +
    (2 log2 N + sqrt 2) u N^(1-sigma)/|s-1|. dP'_1 is within 6 u
    (|dP'_k| <= 0.24/N), so its Bernoulli part is within
    N^-sigma (eps (0.2 + 0.3 ln N) + u (3 + 5 ln N)). Together the zeta'
    tail is off by at most T (ln N + 1/|s-1|). For sigma > N, |q'_k| can
    pass 0.21; but every term of the tail carries N^-sigma, as u does, and
    that outweighs the growth of the nest from N >= 13, the least floor.

    With 2^-prec <= sqrt(2) 10^-(dps+1) (mpmath's digits-to-bits
    rounding), the zeta sum is off by at most
    sqrt(2) (1 + log2 N)(1 + ln N) 10^-(dps+1) A, below a fifth of the
    rounding allowance

        ro = 10^-(dps-3) (3 + N^max(0, 1-sigma) / r)

    for N < 2^40. T is at most 2 sqrt(2) (1 + log2 N) 10^-(dps+1) A/r,
    12 10^-dps A/r for N < 2^40, and the final rounding adds 2^-prec |zeta_N|
    <= 2^-prec (S + 2 A/r); both lie far within the other four fifths. zeta'
    is allowed ro (1 + ln N)/r, and each of its parts is at most (1 + ln N)/r
    times zeta's. Beside s = 1 both allowances thus grow as |zeta| ~ 1/|s - 1|
    and |zeta'| ~ 1/|s - 1|^2 do; for |s - 1| >= 1, r = 1 and 1/r drops out.
    """
    sigma = float(mp.re(s))
    t = abs(float(mp.im(s)))
    abs_s = abs(complex(s))
    tol = cfg.target_abs_tol / max(scale, 1.0)
    if not tol > 0:
        raise PrecisionExhausted(f"tol={cfg.target_abs_tol:g} over a factor {scale:g}")
    N, M, log_trunc = _em_mp_plan(sigma, t, tol, abs_s if want_prime else None)
    with mp.workdps(cfg.dps):
        wp, acc, dacc = _em_fixed(s, N, M, want_prime)
        acc = _fixed_to_mpc(*acc, 2 * wp)
        trunc = math.exp(log_trunc)
        r = min(1.0, abs(complex(s) - 1.0))
        ro = 10.0 ** (-(cfg.dps - 3)) * (3.0 + N ** max(0.0, 1.0 - sigma) / r)
        err = trunc + ro
        if want_prime:
            derr = trunc * float(_prime_lever(math.log(N), M, abs_s)) \
                + ro * (1.0 + math.log(N)) / r
            return acc, _fixed_to_mpc(*dacc, 2 * wp), err, derr
        return acc, None, err, None


def _chi_mp(s, want_prime: bool):
    """(chi(s), chi'(s) or None), zeta(s) = chi(s) zeta(1-s), for Re s <= -1:

        chi  = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s),
        chi' = chi (log 2pi - psi(1-s)) + 2^s pi^(s-1) (pi/2) cos(pi s/2) Gamma(1-s).

    Gamma(1-s) and psi(1-s) have no pole there, and sinpi vanishes exactly
    at the trivial zeros s = -2k, so one formula holds on and beside them."""
    a = mp.power(2 * mp.pi, s) / mp.pi * mp.gamma(1 - s)
    chi = a * mp.sinpi(s / 2)
    if not want_prime:
        return chi, None
    return chi, chi * (mp.log(2 * mp.pi) - mp.digamma(1 - s)) \
        + a * mp.pi / 2 * mp.cospi(s / 2)


def _zeta_scalar(s: mp.mpc, cfg: PrecisionConfig, want_prime: bool):
    """Scalar zeta/zeta' at any s != 1 (functional equation for Re s <= -1).

    The reflected bounds are |chi| e1 for zeta and |chi| de1 + |chi'| e1 for
    zeta', with e1, de1 the bounds at 1 - s, so N at 1 - s is planned
    against |chi| (|chi| + |chi'| for zeta') times them."""
    if float(mp.re(s)) > -1.0:
        return _em_mp(s, cfg, want_prime)
    with mp.workdps(cfg.dps):
        chi, dchi = _chi_mp(s, want_prime)
        scale = float(abs(chi))
        v1, d1, e1, de1 = _em_mp(
            1 - s, cfg, want_prime,
            scale + float(abs(dchi)) if want_prime else scale)
        val = chi * v1
        err = scale * e1 + 10.0 ** (-(cfg.dps - 4)) * float(abs(val) + 1)
        if not want_prime:
            return val, None, err, None
        dval = dchi * v1 - chi * d1
        derr = scale * de1 + float(abs(dchi)) * e1 \
            + 10.0 ** (-(cfg.dps - 6)) * float(abs(dval) + 1)
        return val, dval, err, derr


# ---------------------------------------------------------------------------
# public scalar operations
# ---------------------------------------------------------------------------

def _check_finite(s) -> complex:
    """s as a complex; DomainError unless both parts are finite."""
    sc = complex(s)
    if not cmath.isfinite(sc):
        raise DomainError(f"s={sc} is not finite")
    return sc


def _check_pole(s):
    if abs(complex(s) - 1.0) < EXCLUSION_RADIUS:
        raise PoleAtOne(f"s={complex(s)} within {EXCLUSION_RADIUS:g} of the pole")


# the mpmath config a double config is promoted to (the double engine stops
# at Re s = -1); 1e-16 is tighter than any double config's tolerance
_PROMOTED_CFG = PrecisionConfig(working_digits=25, target_abs_tol=1e-16)


def _scalar_cfg(cfg: PrecisionConfig) -> PrecisionConfig:
    """The config the mpmath engine runs at: ``cfg`` itself, or
    ``_PROMOTED_CFG`` for a double config."""
    return _PROMOTED_CFG if cfg.uses_f64 else cfg


def _zeta_and_prime(s, cfg: PrecisionConfig, want_prime: bool):
    """(zeta, zeta' or None, err, derr or None) at one point s != 1.

    The one engine choice for the scalar operations: the double batch engine
    for Re s > -1 with a double config, which returns zeta' whatever
    ``want_prime``, scalar mpmath at ``_scalar_cfg`` otherwise.
    """
    sc = _check_finite(s)
    if cfg.uses_f64 and sc.real > -1.0:
        vals, dvals, errs, derrs = zeta_batch([sc])
        return vals[0], dvals[0], float(errs[0]), float(derrs[0])
    return _zeta_scalar(as_mpc(s), _scalar_cfg(cfg), want_prime)


def _within_tol(v, e: float, cfg: PrecisionConfig) -> ComplexValue:
    if not e <= cfg.target_abs_tol:
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


def zeta_alternating(s, cfg: PrecisionConfig = DEFAULT_CONFIG) -> ComplexValue:
    """Cross-check route: alternating eta series with an Euler-transformed tail.

    eta(s) = sum (-1)^(n-1) n^-s is summed directly up to a head K scaled
    with |Im s|, and the remaining alternating tail is accelerated by
    averaging its partial sums pairwise J times (Euler's transformation),
    taken in closed form as binomially weighted means. Then
    zeta(s) = eta(s) / (1 - 2^(1-s)). Valid for Re s > 0 away from the zeros
    of the denominator; shares only the term table ``_dirichlet_terms`` with
    the Euler-Maclaurin route.

    Rounding allowance 10^-(dps+2) (K + J). The series is summed at
    dps + 6 digits, prec bits with 2^-prec <= sqrt(2) 10^-(dps+7), in fixed
    point: the head, the tail's partial sums and their weighted sums with
    the exact weights C(J-1, i) are integers, and head + tail takes one shift
    by J and one rounding to prec. Each of the K + J terms (|n^-s| <= 1) is
    within Omega(n) 2^-prec <= log2(K + J) 2^-prec (``_dirichlet_terms``);
    a weighted mean of partial sums is off by at most what its longest
    partial sum is; the rounding adds 2^-prec |eta| <= 2^-prec (K + J). So
    eta is off by at most sqrt(2) (K + J)(1 + log2(K + J)) 10^-(dps+7), a
    fifth of the allowance or less for K + J < 2^10000; the rest covers the
    few roundings at prec of 1 - 2^(1-s) and of the quotient.
    """
    _check_finite(s)
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
            wp = _kernel_bits(sm, K + J + 1)
            re, im, _ = _dirichlet_terms(sm, K + J + 1, wp)
            # head sum_{n<K} (-1)^(n-1) n^-s, then the sign (-1)^(K-1) of
            # the tail's first term K
            head = [sum(x[1:K:2]) - sum(x[2:K:2]) for x in (re, im)]
            sign = 1 if K % 2 else -1
            row = [math.comb(J - 1, i) for i in range(J)]
            tail, gap = [], []
            for x in (re, im):
                alt = x[K:K + J + 1]
                alt[1::2] = [-v for v in alt[1::2]]
                partial = list(itertools.accumulate(alt))
                # 2^(J-1) times the (J-1)-fold averages of partial[:J] and
                # partial[1:]; by Pascal's rule a + b is 2^J times the J-fold
                a = sum(map(operator.mul, row, partial))
                b = sum(map(operator.mul, row, partial[1:]))
                tail.append(a + b)
                gap.append(b - a)
            eta = _fixed_to_mpc(*((h << J) + sign * a for h, a in zip(head, tail)),
                                wp + J)
            denom = 1 - mp.power(2, 1 - sm)
            if abs(denom) < 1e-3:
                raise PrecisionExhausted("near a zero of 1 - 2^(1-s)")
            # the last two Euler averages differ by gap 2^-(wp+J)
            eta_err = float(abs(_fixed_to_mpc(*gap, wp + J))) * 4
            val = eta / denom
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
    DomainError for a non-finite s, before the table is read;
    TableTooShort unless ``zeros`` reaches |Im s| + FLAG_RADIUS;
    PrecisionExhausted where zeta's error bound reaches |zeta|.
    """
    sc = _check_finite(s)
    flag = None
    candidates = [("pole s=1", abs(sc - 1.0))]
    if zeros is not None:
        zeros.require_height(abs(sc.imag) + FLAG_RADIUS, "screening this point")
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
    """psi(s) for every s but the poles 0, -1, -2, ...: ``digamma_batch`` at a
    double config, else ``mp.digamma`` at cfg.dps, the route by which
    ``_chi_mp`` takes psi(1-s), allowing 10^-(dps-3) (1 + |psi|) for its
    rounding. PrecisionExhausted where the bound exceeds cfg.target_abs_tol."""
    sc = _check_finite(s)
    near = round(sc.real)
    if near <= 0 and abs(sc - near) < EXCLUSION_RADIUS:
        raise PoleAtNonpositiveInteger(f"digamma pole at {near}")
    if cfg.uses_f64:
        v, e = digamma_batch(np.array([sc]))
        return _within_tol(v[0], float(e[0]), cfg)
    with mp.workdps(cfg.dps):
        v = mp.digamma(as_mpc(s))
        return _within_tol(v, 10.0 ** (-(cfg.dps - 3)) * (1 + float(abs(v))), cfg)


def xi(s, cfg: PrecisionConfig = DEFAULT_CONFIG) -> ComplexValue:
    """Completed zeta, xi(s) = 1/2 s(s-1) pi^(-s/2) Gamma(s/2) zeta(s),
    evaluated as (s-1) pi^(-s/2) Gamma(s/2+1) zeta(s), which is regular at
    s = 0. The pi^(-s/2) factor makes the reflection xi(s) = xi(1-s) exact;
    xi is entire, so within 1e-4 of s = 1 or of a pole -2, -4, ... of
    Gamma(s/2+1) it is evaluated at 1 - s.

    Error: zeta's own bound times |(s-1) pi^(-s/2) Gamma(s/2+1)|, plus
    10^-(dps-6) (1 + |xi|) for the rounding.
    """
    with mp.workdps(cfg.dps):
        sm = as_mpc(s)
        k = min(-1, round(complex(s).real / 2))  # a pole -2, -4, ... of Gamma(s/2+1)
        if abs(complex(s) - 1) < 1e-4 or abs(complex(s) - 2 * k) < 1e-4:
            return xi(1 - sm, cfg)
        z = zeta(sm, cfg)
        pre = (sm - 1) * mp.power(mp.pi, -sm / 2) * mp.gamma(sm / 2 + 1)
        val = pre * mp.mpc(z.re, z.im)
        err = float(abs(pre)) * z.abs_err + 10.0 ** (-(cfg.dps - 6)) * (1 + float(abs(val)))
        return ComplexValue(val.real, val.imag, err)


def principal_log_arg(z) -> Tuple[float, float]:
    """Principal branch: log z = log|z| + i arg(z) with arg in (-pi, pi]."""
    zc = _check_finite(z)
    if zc == 0:
        raise ZeroArgument("principal log/arg of 0")
    a = math.atan2(zc.imag, zc.real)
    if a == -math.pi:
        a = math.pi
    return math.log(abs(zc)), a
