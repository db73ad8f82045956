import hashlib
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import riemann_siegel_corrections, siegel_z, zero_ordinate
from zetacontour import errors, zero_finder
from zetacontour.contour import Rectangle, integrate_rectangle
from zetacontour.precision import PrecisionConfig
from zetacontour.special_functions import zeta_alternating
from zetacontour.zero_finder import (
    ZeroTable,
    count_zeros,
    find_zeros_up_to,
    hardy_z,
    hardy_z_components,
    load_table,
    mangoldt_estimate,
    riemann_siegel_theta,
    save_table,
    zero_free_bounds,
)

FIRST_THREE = (14.134725, 21.022040, 25.010858)


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


class TestHardyZ:
    def test_zero_at_gamma1(self, mp_cfg, table120):
        assert abs(float(hardy_z(table120.gammas[0], mp_cfg))) < 1e-6

    def test_realness_within_bound(self, mp_cfg):
        for t in (10.0, 14.5, 60.0):
            _, imag_resid, bound = hardy_z_components(t, mp_cfg)
            assert imag_resid <= bound

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
        _, imag_resid, bound = hardy_z_components(2.0, mp_cfg)
        assert imag_resid <= bound

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

    def test_session_table_against_mpmath(self, big_table):
        assert len(big_table.gammas) == mp.nzeros(big_table.max_height) == 4680
        for k in (1, 100, 1000, 4000, 4680):
            assert abs(big_table.gammas[k - 1] - zero_ordinate(k)) < 1e-9

    def test_euler_maclaurin_everywhere_gives_same_table(self, monkeypatch):
        # a Riemann-Siegel bound of infinity sends every point to the fallback
        table = find_zeros_up_to(600.0)
        monkeypatch.setattr(zero_finder, "_rs_bound",
                            lambda t, N: np.full_like(t, np.inf))
        heights = []
        batch = zero_finder.zeta_batch
        monkeypatch.setattr(zero_finder, "zeta_batch",
                            lambda s, cfg: heights.extend(np.imag(s)) or batch(s, cfg))
        em_only = find_zeros_up_to(600.0)
        grid = np.arange(zero_finder.SCAN_START, 600.0, zero_finder.SCAN_STEP)
        assert np.isin(grid, heights).all()
        assert len(em_only.gammas) == len(table.gammas)
        assert np.max(np.abs(np.subtract(em_only.gammas, table.gammas))) <= 2.5e-10


class TestRiemannSiegel:
    def test_coefficients_regenerate(self):
        ref = riemann_siegel_corrections()
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
