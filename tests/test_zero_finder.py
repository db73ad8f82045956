import hashlib
import math
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    GABCKE_D,
    riemann_siegel_corrections,
    riemann_siegel_series,
    siegel_z,
    zero_ordinate,
)
from zetacontour import errors, zero_finder
from zetacontour.contour import Rectangle, integrate_rectangle
from zetacontour.precision import PrecisionConfig, as_mpc
from zetacontour.special_functions import zeta, zeta_alternating
from zetacontour.zero_finder import (
    ZeroTable,
    count_zeros,
    find_zeros_up_to,
    hardy_z,
    load_table,
    mangoldt_estimate,
    riemann_siegel_theta,
    save_table,
    zero_free_bounds,
)

FIRST_THREE = (14.134725, 21.022040, 25.010858)


@pytest.fixture(scope="module")
def table25k() -> ZeroTable:
    return find_zeros_up_to(2.5e4)


def _eta_hardy_z(t: float) -> float:
    """Independent sign detector: eta-series zeta rotated by theta."""
    cfg = PrecisionConfig(working_digits=20, target_abs_tol=1e-14)
    z = zeta_alternating(mp.mpc(0.5, t), cfg)
    th = riemann_siegel_theta(t, cfg)
    return float(mp.re(mp.exp(mp.mpc(0, 1) * th) * mp.mpc(z.re, z.im)))


def _eta_bisect(lo: float, hi: float, iters: int = 40) -> float:
    flo = _eta_hardy_z(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = _eta_hardy_z(mid)
        if (flo < 0) != (fm < 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _assert_real_rotation(t: float, cfg: PrecisionConfig) -> None:
    """exp(i theta) zeta(1/2+it) is real to cfg's tolerance, and hardy_z is
    its real part, equal to mpmath's siegelz."""
    with mp.workdps(cfg.dps):
        w = (mp.exp(mp.mpc(0, 1) * riemann_siegel_theta(t, cfg))
             * as_mpc(zeta(mp.mpc(0.5, t), cfg)))
    assert abs(w.imag) < cfg.target_abs_tol, t
    assert abs(hardy_z(t, cfg) - w.real) < cfg.target_abs_tol, t
    assert abs(hardy_z(t, cfg) - siegel_z(t)) < cfg.target_abs_tol, t


class TestHardyZ:
    def test_zero_at_gamma1(self, mp_cfg, table120):
        assert abs(float(hardy_z(table120.gammas[0], mp_cfg))) < 1e-6

    def test_double_config_against_siegel_z(self, fast_cfg):
        # Euler-Maclaurin below RS_MIN_T, Riemann-Siegel above where |Z|
        # clears its declared error
        for t in (12.0, 33.3, 90.0, 455.0, 5000.0):
            assert abs(hardy_z(t, fast_cfg) - siegel_z(t)) < 1e-9, t

    def test_no_third_rung_above_the_double_ceiling(self, fast_cfg, monkeypatch):
        # above _F64_MAX_T only Riemann-Siegel gives a sign: where it fails,
        # _z returns the value as uncertified, not an error, and hardy_z
        # refuses it
        t = 25001.0
        assert abs(hardy_z(t, fast_cfg) - siegel_z(t)) < 1e-9
        monkeypatch.setattr(zero_finder, "_rs_bound",
                            lambda t, dtype=np.float64: np.full_like(t, np.inf))
        z, err = zero_finder._z(np.array([t, 100.0]))
        assert err[0] == np.inf and abs(z[1]) > err[1]
        with pytest.raises(errors.PrecisionExhausted):
            hardy_z(t, fast_cfg)

    def test_realness_within_bound(self, mp_cfg, monkeypatch):
        for t in (10.0, 14.5, 60.0):
            _assert_real_rotation(t, mp_cfg)
        # a phase off by 1e-6 leaves an imaginary residual above the bound
        theta = zero_finder.riemann_siegel_theta
        monkeypatch.setattr(zero_finder, "riemann_siegel_theta",
                            lambda t, cfg: theta(t, cfg) + 1e-6)
        with pytest.raises(errors.PrecisionExhausted):
            hardy_z(14.5, mp_cfg)

    def test_sign_change_bracket(self, mp_cfg):
        a, b = hardy_z(14.0, mp_cfg), hardy_z(14.2, mp_cfg)
        assert (a < 0) != (b < 0)
        # the same bracket seen by the independent eta-series evaluator
        assert (_eta_hardy_z(14.0) < 0) != (_eta_hardy_z(14.2) < 0)

    def test_engines_agree(self, mp_cfg, fast_cfg):
        for t in (12.0, 33.3, 90.0):
            assert abs(float(hardy_z(t, mp_cfg)) - hardy_z(t, fast_cfg)) < 1e-9

    def test_small_t_continuation(self, mp_cfg):
        # below the asymptotic regime theta comes from log-gamma
        _assert_real_rotation(2.0, mp_cfg)

    def test_theta_against_mpmath(self, mp_cfg):
        for t in (10.0, 50.0, 455.0, 5000.0):
            got = riemann_siegel_theta(t, mp_cfg)
            assert abs(mp.mpf(got) - mp.siegeltheta(t)) < 1e-10


class TestFindZeros:
    def test_first_three_against_eta_bisection(self):
        table = find_zeros_up_to(30.0)
        assert len(table.gammas) == 3
        brackets = [(14.0, 14.2), (21.0, 21.1), (25.0, 25.1)]
        for g, ref, (lo, hi) in zip(table.gammas, FIRST_THREE, brackets):
            assert abs(g - ref) < 1e-6
            assert abs(g - _eta_bisect(lo, hi)) < 1e-8

    def test_29_zeros_below_100(self):
        table = find_zeros_up_to(100.0)
        assert len(table.gammas) == 29
        assert table.max_height == 100.0

    def test_empty_below_gamma1(self):
        assert len(find_zeros_up_to(10.0).gammas) == 0

    def test_precondition(self):
        with pytest.raises(errors.DomainError):
            find_zeros_up_to(5.0)

    @pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
    def test_non_finite_height_refused(self, T, table120):
        with pytest.raises(errors.DomainError):
            find_zeros_up_to(T)
        with pytest.raises(errors.DomainError):
            count_zeros(T, table120)
        if not T < 0:
            with pytest.raises(errors.TableTooShort):
                table120.require_height(T, "a non-finite height")

    def test_interlacing(self, table500):
        diffs = np.diff(table500.gammas)
        assert np.all(diffs > 10 * table500.accuracy)

    def test_contour_census_audit(self, table120):
        # winding on [-1,2]x[-1,30] counts the zeros up to 30 minus the pole
        rep = integrate_rectangle(Rectangle.box(-1.0, 2.0, -1.0, 30.0),
                                  table120, tol=1e-6)
        assert rep.winding == count_zeros(30.0, table120) - 1

    def test_audit_catches_missing_first_zero(self, table120):
        broken = ZeroTable(table120.gammas[1:], table120.accuracy,
                           table120.max_height)
        with pytest.raises(errors.MissedZeroSuspected):
            broken.audit()

    def test_failed_audit_propagates(self, monkeypatch):
        # one block search, one audit, and its failure is the caller's
        searches, audits = [], []
        search = zero_finder._block_brackets

        def failing_audit(table):
            audits.append(len(table.gammas))
            raise errors.MissedZeroSuspected("forced")

        monkeypatch.setattr(zero_finder, "_block_brackets",
                            lambda T: searches.append(T) or search(T))
        monkeypatch.setattr(ZeroTable, "audit", failing_audit)
        with pytest.raises(errors.MissedZeroSuspected, match="forced"):
            find_zeros_up_to(40.0)
        assert searches == [40.0] and audits == [6]

    def test_gram_points_against_mpmath(self):
        # seeded n in [-1, 29000]: within an ulp of mpmath's g_n, and
        # g_-1 = 9.67, where _theta's truncated series is off by about
        # 5e-14, within 1e-12
        rng = np.random.default_rng(28)
        n = np.concatenate([[-1, 0, 29000], rng.integers(-1, 29001, 40)])
        for k, g in zip(n, zero_finder._gram_points(n)):
            with mp.workdps(30):
                err = abs(mp.mpf(float(g)) - mp.grampoint(int(k)))
            assert err <= (1e-12 if k == -1 else np.spacing(g)), k

    def test_table_to_25000_holds_the_close_pair(self, table25k):
        # gamma_27925 and gamma_27926 are 0.045 apart, a pair that a fixed
        # scan step of 0.05 misses and the census audit cannot see
        assert len(table25k.gammas) == mp.nzeros(25000) == 29002
        for k in (27925, 27926):
            assert abs(table25k.gammas[k - 1] - zero_ordinate(k)) < 1e-9

    def test_census_above_the_double_ceiling(self):
        # above _F64_MAX_T only Riemann-Siegel gives signs, and up to 26,000
        # it certifies every one the search reads
        assert zero_finder._F64_MAX_T < 26000.0
        assert len(find_zeros_up_to(26000.0).gammas) == mp.nzeros(26000) == 30324

    def test_block_short_of_its_count_raises(self, monkeypatch):
        # Z with its sign flipped between gamma_1 and gamma_2 has neither
        # sign change: g_0 turns bad, and the block [g_-1, g_1] never shows
        # the two its Gram intervals need
        g1, g2 = 14.134725141734693, 21.022039638771555
        z = zero_finder._z

        def erased(ts):
            v, err = z(ts)
            return np.where((ts > g1) & (ts < g2), -v, v), err

        monkeypatch.setattr(zero_finder, "_z", erased)
        with pytest.raises(errors.MissedZeroSuspected):
            find_zeros_up_to(30.0)

    @pytest.mark.parametrize("T", [1000.0, 2.5e4])
    def test_scan_stage_points_per_zero(self, T, table25k, monkeypatch):
        # the Gram points and the block halvings: at most 2 per zero
        # (1.12 at 1000, 1.33 at 2.5e4)
        counted = []
        z = zero_finder._z
        monkeypatch.setattr(zero_finder, "_z",
                            lambda ts: counted.append(len(ts)) or z(ts))
        zero_finder._block_brackets(T)
        assert sum(counted) <= 2 * table25k.count_below(T)

    def test_uncertified_points(self, table120, monkeypatch):
        # a regula falsi point whose |Z| is within its error is replaced by
        # the pair x -+ h, and the table is the same; a Gram point that no
        # rung certifies raises
        lo, hi, zlo, zhi = zero_finder._block_brackets(100.0)
        z, calls = zero_finder._z, []

        def first_uncertain(ts):
            v, err = z(ts)
            calls.append(np.array(ts))
            return v, (np.abs(v) if len(calls) == 1 else err)

        monkeypatch.setattr(zero_finder, "_z", first_uncertain)
        got = zero_finder._refine_brackets(lo, hi, zlo, zhi)
        first, pairs = calls[0], calls[1]
        h = zero_finder._PAIR_OFFSET
        assert len(first) == len(lo) and len(pairs) == 2 * len(first)
        np.testing.assert_allclose(
            pairs, np.concatenate([first - h, first + h]), rtol=0, atol=1e-12)
        want = table120.gammas[:table120.count_below(100.0)]
        assert np.max(np.abs(got[:len(want)] - want)) <= 2.5e-10
        monkeypatch.setattr(zero_finder, "_z",
                            lambda ts: (z(ts)[0], np.full(len(ts), np.inf)))
        with pytest.raises(errors.PrecisionExhausted):
            find_zeros_up_to(30.0)

    def test_session_table_against_mpmath(self, big_table):
        assert len(big_table.gammas) == mp.nzeros(big_table.max_height) == 4680
        # 617, 1472, 2049 and 3881 are the ordinates an earlier double engine
        # placed furthest from mpmath
        for k in (1, 100, 617, 1000, 1472, 2049, 3881, 4000, 4680):
            assert abs(big_table.gammas[k - 1] - zero_ordinate(k)) < 1e-9

    def test_euler_maclaurin_everywhere_gives_same_table(self, monkeypatch):
        # a Riemann-Siegel bound of infinity sends every point to the fallback
        table = find_zeros_up_to(600.0)
        monkeypatch.setattr(zero_finder, "_rs_bound",
                            lambda t, dtype=np.float64: np.full_like(t, np.inf))
        heights = []
        batch = zero_finder.zeta_batch
        monkeypatch.setattr(zero_finder, "zeta_batch",
                            lambda s: heights.extend(np.imag(s)) or batch(s))
        em_only = find_zeros_up_to(600.0)
        gram = zero_finder._gram_points(np.arange(-1, 400))
        assert gram[-1] > 600.0
        assert np.isin(gram[gram < 600.0], heights).all()
        assert len(em_only.gammas) == len(table.gammas)
        assert np.max(np.abs(np.subtract(em_only.gammas, table.gammas))) <= 2.5e-10

    def test_euler_maclaurin_points_per_zero(self, monkeypatch):
        # the Gram points below RS_MIN_T, the refinement's points below it
        # and those inside both Riemann-Siegel errors: 813 points for 649
        # zeros
        counted = []
        batch = zero_finder.zeta_batch
        monkeypatch.setattr(zero_finder, "zeta_batch",
                            lambda s: counted.append(len(s)) or batch(s))
        table = find_zeros_up_to(1000.0)
        assert sum(counted) <= 1.3 * len(table.gammas)

    def test_each_sign_comes_from_a_rung_outside_its_bound(self, big_table,
                                                            monkeypatch):
        # near-zero points, where each of the three rungs decides some
        # (the long double one only where it is finer than a double):
        # a Riemann-Siegel value is kept only where |Z| exceeds that rung's
        # bound, the long double rung runs only where the double one failed
        # and |Z| clears Gabcke's term, and the rest go to Euler-Maclaurin
        rng = np.random.default_rng(26)
        g = np.array(big_table.gammas)
        g = g[g > zero_finder.RS_MIN_T]
        offsets = np.exp(rng.uniform(math.log(1e-12), math.log(1e-8), 400))
        ts = rng.choice(g, 400) + offsets * rng.choice([-1.0, 1.0], 400)
        calls, em_heights = [], []
        rs_z, batch = zero_finder._rs_z, zero_finder.zeta_batch

        def spy_rs_z(t, dtype=np.float64):
            z, err = rs_z(t, dtype)
            calls.append((np.dtype(dtype), t, z, err))
            return z, err

        monkeypatch.setattr(zero_finder, "_rs_z", spy_rs_z)
        monkeypatch.setattr(zero_finder, "zeta_batch",
                            lambda s: em_heights.extend(np.imag(s)) or batch(s))
        z, z_err = zero_finder._z(ts)
        by_rs = {}
        for dtype, t, zr, err in calls:
            for x, zx, ex in zip(t, zr, err):
                by_rs.setdefault(x, []).append((dtype, zx, ex))
        em_heights = set(em_heights)
        rungs = [0, 0, 0]
        for x, zx, ex in zip(ts, z, z_err):
            seen = by_rs[x]
            assert abs(seen[0][1]) <= seen[0][2] or len(seen) == 1
            if len(seen) == 2:
                assert seen[1][0] == np.longdouble
                assert abs(seen[0][1]) > zero_finder._gabcke(np.array([x]))[0]
            last = seen[-1]
            if abs(last[1]) > last[2]:
                assert x not in em_heights and (zx, ex) == last[1:]
                rungs[len(seen) - 1] += 1
            else:
                assert x in em_heights
                rungs[2] += 1
        finer = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
        assert rungs[0] > 0 and rungs[2] > 0 and (rungs[1] > 0) == finer, rungs

    @pytest.mark.parametrize("t", [2.5e4, 16384.0, 8192.0, 1000.0, 200.0])
    def test_middle_bracket_passes_the_width_test(self, t):
        # [fl(c - d), fl(c + d)] is at most ORDINATE_ACCURACY/4 wide for
        # doubles c at and below t, binade edges included, and d is within
        # half an ulp of 2.5e4 of the widest offset the bound 2d + ulp admits
        d, width = zero_finder._PROBE_OFFSET, 0.25 * zero_finder.ORDINATE_ACCURACY
        ulp, top = float(np.spacing(t)), float(np.spacing(2.5e4))
        c = np.concatenate([t + ulp * np.arange(-2000, 1),
                            t - np.random.default_rng(26).uniform(0.0, 1.0, 2000)])
        assert np.all((c + d) - (c - d) <= width)
        assert 2 * d + top <= width < 2 * d + 2 * top


    def test_ordinates_sit_far_inside_their_brackets(self, big_table):
        # the secant root of the final bracket: 24 seeded ordinates against
        # mpmath's zero (one Newton step on mp.siegelz at 30 digits) are
        # within a hundredth of ORDINATE_ACCURACY, where the bracket
        # midpoints were up to the probe offset d = 1.23e-10 away
        rng = np.random.default_rng(27)
        g = np.array(big_table.gammas)
        picks = np.searchsorted(g, np.exp(rng.uniform(math.log(14.0),
                                                      math.log(big_table.max_height), 24)))
        worst = 0.0
        for x0 in g[picks]:
            with mp.workdps(30):
                x = mp.mpf(float(x0))
                x -= mp.siegelz(x) / mp.siegelz(x, derivative=1)
                worst = max(worst, float(abs(x - x0)))
        assert worst < 0.01 * zero_finder.ORDINATE_ACCURACY < zero_finder._PROBE_OFFSET


class TestRiemannSiegel:
    def test_coefficients_regenerate(self):
        ref = riemann_siegel_corrections()
        assert len(ref) == len(zero_finder._RS_C) == 7
        # the regenerated C_0 is Psi(p) itself
        with mp.workdps(30):
            for p in (mp.mpf("0.1"), mp.mpf("0.5"), mp.mpf("0.77")):
                psi = mp.cos(2 * mp.pi * (p * p - p - mp.mpf(1) / 16)) / mp.cos(2 * mp.pi * p)
                assert abs(mp.polyval(ref[0][::-1], 2 * p - 1) - psi) < 1e-25
        a_min = math.sqrt(zero_finder.RS_MIN_T / (2 * math.pi))
        for k, row in enumerate(zero_finder._RS_C):
            same_parity = [float(v) for v in ref[k][k % 2::2]]
            np.testing.assert_allclose(row, same_parity[:len(row)], rtol=1e-14, atol=0)
            assert sum(map(abs, same_parity[len(row):])) * a_min ** -k < 1e-17

    def test_gabcke_leading_coefficients(self):
        # a second route to the table: d_0^(n) = (-1/96)^n / n!, and
        # C_n holds the derivatives Psi^(3n-4k) for k <= 3n/4 only
        for n, ds in enumerate(GABCKE_D):
            assert ds[0] == Fraction(-1, 96) ** n / math.factorial(n)
            assert len(ds) == 3 * n // 4 + 1

    def test_truncation_remainder_within_gabcke(self, table25k):
        # strict and seeded: the C_0..C_6 series at exact phases differs from
        # Z by at most Gabcke's 0.661 t^-3.75, at log-uniform heights in
        # [200, 2.5e4] and 1e-10 to 1e-8 from 12 ordinates
        rng = np.random.default_rng(27)
        g = np.array(table25k.gammas)
        near = g[np.searchsorted(g, np.exp(rng.uniform(math.log(200.0), math.log(2.5e4), 12)))]
        offsets = np.exp(rng.uniform(math.log(1e-10), math.log(1e-8), (12, 2)))
        ts = np.concatenate([[200.0, 2.5e4],
                             np.exp(rng.uniform(math.log(200.0), math.log(2.5e4), 8)),
                             (near[:, None] + offsets * [-1.0, 1.0]).ravel()])
        rows = riemann_siegel_corrections()
        for t in ts:
            rem = abs(riemann_siegel_series(t, rows) - siegel_z(t, dps=40))
            assert rem < zero_finder._gabcke(t), t

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_phase_error_within_derived_count(self, dtype):
        # strict and seeded: every phase theta - t log n of the main sum, as
        # the double the cosine is taken of, is within the derived count of
        # units of its dtype's roundoff of the exact phase mod 2pi, plus the
        # rounding of a reduced phase to a double (2^-51)
        rng = np.random.default_rng(20261027)
        ts = np.concatenate([[200.0, 2.5e4],
                             np.exp(rng.uniform(math.log(200.0), math.log(2.5e4), 24))])
        u = float(np.finfo(dtype).eps) / 2
        for t in ts:
            n = np.arange(1, math.floor(math.sqrt(t / (2 * math.pi))) + 1, dtype=np.float64)
            t1 = np.array([t])
            got = zero_finder._rs_phases(zero_finder._theta(t1, dtype), t1, n)[0]
            bound = float(zero_finder._phase_count(t1)[0]) * u + 2.0 ** -51
            with mp.workdps(40):
                th = mp.siegeltheta(mp.mpf(t))
                for k, x in zip(n, got):
                    d = mp.mpf(float(x)) - (th - t * mp.log(int(k)))
                    d -= 2 * mp.pi * mp.nint(d / (2 * mp.pi))
                    assert abs(d) < bound, (t, k)

    def test_two_pi_split(self):
        # the long double reduction's 2pi: a 32-bit head, so that k times it
        # is exact for |k| < 2^32, and a tail that makes it 2pi to 45 digits
        hi = zero_finder._TWO_PI_HI
        assert hi * 2 ** 29 == int(hi * 2 ** 29) < 2 ** 32
        with mp.workdps(60):
            gap = mp.mpf(hi) + mp.mpf(zero_finder._TWO_PI_LO) - 2 * mp.pi
            assert abs(gap) < mp.mpf(10) ** -45

    def test_error_within_declared_bound(self):
        rng = np.random.default_rng(20261018)
        # log-uniform heights, both sides of three changes of
        # N = floor(sqrt(t/2pi)), and both ends of the domain
        edges = 2 * math.pi * np.array([10.0, 31.0, 60.0]) ** 2
        ts = np.concatenate([np.exp(rng.uniform(math.log(200.0), math.log(2.5e4), 30)),
                             edges - 1e-6, edges + 1e-6, [200.0, 2.5e4]])
        z, bound = zero_finder._rs_z(ts)
        for t, zt, b in zip(ts, z, bound):
            assert abs(mp.mpf(float(zt)) - siegel_z(t)) < b, t

    def test_extended_phase_bound_near_zeros(self, table25k):
        # strict and seeded: two points 1e-10 to 1e-8 from each of 12
        # ordinates at log-uniform t in [200, 2.5e4], each ordinate the
        # table's moved by one Newton step on mpmath's Z at 30 digits
        rng = np.random.default_rng(20261020)
        gammas = np.array(table25k.gammas)
        picks = np.searchsorted(gammas, np.exp(rng.uniform(math.log(200.0),
                                                           math.log(2.5e4), 12)))
        ts = []
        for g in gammas[picks]:
            with mp.workdps(30):
                x = mp.mpf(float(g))
                x -= mp.siegelz(x) / mp.siegelz(x, derivative=1)
            assert abs(x - g) < 2e-10
            offsets = np.exp(rng.uniform(math.log(1e-10), math.log(1e-8), 2))
            ts.extend(float(x + d) for d in offsets * [-1.0, 1.0])
        ts = np.array(ts)
        z, bound = zero_finder._rs_z(ts, np.longdouble)
        for t, zt, b in zip(ts, z, bound):
            assert abs(mp.mpf(float(zt)) - siegel_z(t)) < b, t
        # where the long double is finer than a double, it certifies more
        z64, bound64 = zero_finder._rs_z(ts)
        if np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
            assert np.all(bound < bound64)
            assert np.sum(np.abs(z) > bound) > np.sum(np.abs(z64) > bound64)


class TestCounting:
    @pytest.mark.parametrize("T,expected", [(100.0, 29), (10.0, 0), (30.0, 3)])
    def test_counts(self, T, expected, table500):
        assert count_zeros(T, table500) == expected

    def test_ambiguous_height(self, table500):
        with pytest.raises(errors.AmbiguousHeight):
            count_zeros(table500.gammas[0] + 1e-10, table500)

    def test_short_table_refuses(self, table120):
        with pytest.raises(errors.TableTooShort):
            count_zeros(121.0, table120)

    def test_estimate_value(self):
        assert abs(mangoldt_estimate(100.0) - 29.00) < 5e-3

    def test_estimate_cancellation_point(self):
        assert abs(mangoldt_estimate(2 * math.pi * math.e) - 0.875) < 1e-12

    def test_estimate_domain(self):
        with pytest.raises(errors.DomainError):
            mangoldt_estimate(6.0)

    def test_nearest_gamma_on_arrays(self, table120):
        # elementwise on an array, equal to the scalar call and to a scan of
        # the whole table; the midpoint of two ordinates goes to the lower one
        g = table120.gammas
        ts = np.concatenate([np.linspace(0.0, 120.0, 241), g,
                             [(a + b) / 2 for a, b in zip(g, g[1:])]])
        got = table120.nearest_gamma(ts)
        assert got.shape == ts.shape
        for t, near in zip(ts, got):
            assert near == table120.nearest_gamma(float(t))
            assert near == min(g, key=lambda x: abs(x - t))
        small = ZeroTable((15.0, 16.0, 18.0), 1e-9, 20.0)
        assert small.nearest_gamma(15.5) == 15.0
        assert small.nearest_gamma(np.array([15.5, 17.0, 17.5])).tolist() == \
            [15.0, 16.0, 18.0]
        assert small.nearest_gamma(np.array([[1.0], [30.0]])).tolist() == \
            [[15.0], [18.0]]
        empty = ZeroTable((), 1e-9, 10.0)
        assert empty.nearest_gamma(5.0) == math.inf
        assert empty.nearest_gamma(np.array([1.0, 5.0])).tolist() == \
            [math.inf, math.inf]

    @pytest.mark.parametrize("T", [30.0, 50.0, 100.0, 200.0, 500.0])
    def test_census_tracks_estimate(self, T, table500):
        assert abs(count_zeros(T, table500) - mangoldt_estimate(T)) <= 3.0


class TestZeroFreeBounds:
    def test_values(self):
        assert abs(zero_free_bounds(1e6).ford_sigma - 0.99781) < 1e-5
        assert abs(zero_free_bounds(100.0).mt_sigma - 0.96104) < 1e-5

    def test_domain(self):
        with pytest.raises(errors.DomainError):
            zero_free_bounds(2.0)

    def test_tabulated_zeros_respect_bounds(self, table120):
        # vacuous by construction: every tabulated zero has sigma = 1/2
        for t in (10.0, 50.0, 100.0):
            assert zero_free_bounds(t).admits_critical_line()


class TestTableFile:
    def test_round_trip(self, tmp_path, table120):
        p = tmp_path / "t.zctab"
        save_table(table120, p)
        back = load_table(p)
        assert back == table120

    def test_truncated_file(self, tmp_path, table120):
        p = tmp_path / "t.zctab"
        save_table(table120, p)
        data = p.read_bytes()
        p.write_bytes(data[: len(data) // 2])
        with pytest.raises((errors.FormatError, errors.ChecksumMismatch)):
            load_table(p)

    def test_corrupted_ordinate(self, tmp_path, table120):
        p = tmp_path / "t.zctab"
        save_table(table120, p)
        text = p.read_text().replace("14.134", "14.135", 1)
        p.write_text(text)
        with pytest.raises(errors.ChecksumMismatch):
            load_table(p)

    def test_header_only(self, tmp_path):
        body = b"zctab v1\naccuracy=1e-09\nmax_height=33.0\n"
        import hashlib
        digest = hashlib.sha256(body).hexdigest()
        p = tmp_path / "empty.zctab"
        p.write_bytes(body + f"sha256={digest}\n".encode())
        table = load_table(p)
        assert table.gammas == ()
        assert table.max_height == 33.0

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.zctab"
        p.write_text("zctab v2\naccuracy=1e-9\nmax_height=1\nsha256=00\n")
        with pytest.raises(errors.FormatError) as exc:
            load_table(p)
        assert exc.value.line == 1

    @staticmethod
    def _write(path, body: bytes):
        path.write_bytes(body + f"sha256={hashlib.sha256(body).hexdigest()}\n"
                         .encode())

    @pytest.mark.parametrize("header, line", [
        (b"accuracy=1e-9x\nmax_height=30.0\n", 2),
        (b"accuracy=0.0\nmax_height=30.0\n", 2),
        (b"accuracy=nan\nmax_height=30.0\n", 2),
        (b"accuracy=1e-09\nmax_height=nan\n", 3),
        (b"accuracy=1e-09\nmax_height=inf\n", 3),
    ], ids=["accuracy-text", "accuracy-zero", "accuracy-nan", "height-nan",
            "height-inf"])
    def test_bad_header_value_names_its_line(self, tmp_path, header, line):
        p = tmp_path / "bad.zctab"
        self._write(p, b"zctab v1\n" + header + b"14.134725\n")
        with pytest.raises(errors.FormatError) as exc:
            load_table(p)
        assert exc.value.line == line

    def test_unsorted_ordinates_name_their_line(self, tmp_path):
        p = tmp_path / "bad.zctab"
        self._write(p, b"zctab v1\naccuracy=1e-09\nmax_height=30.0\n"
                       b"14.134725\n25.010858\n21.02204\n")
        with pytest.raises(errors.FormatError) as exc:
            load_table(p)
        assert exc.value.line == 6

    def test_nan_height_rejected(self):
        # a nan max_height would pass every require_height guard
        for accuracy, height in ((1e-9, math.nan), (math.nan, 30.0),
                                 (1e-9, math.inf)):
            with pytest.raises(ValueError):
                ZeroTable((14.134725,), accuracy, height)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=0.1, max_value=900.0), min_size=0,
                    max_size=40, unique=True))
    def test_round_trip_property(self, ordinates):
        import tempfile
        gammas = tuple(sorted(ordinates))
        table = ZeroTable(gammas, 1e-9, 1000.0)
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "t.zctab"
            save_table(table, p)
            assert load_table(p) == table
