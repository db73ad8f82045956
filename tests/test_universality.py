import math

import numpy as np
import pytest

from zetacontour import errors
from zetacontour.cli import _parse_range
from zetacontour.contour import Rectangle
from zetacontour.precision import FAST_CONFIG, FLAG_RADIUS
from zetacontour.special_functions import (
    log_deriv_batch,
    log_deriv_zeta,
    principal_log_arg,
)
from zetacontour.telescope import arctan_add, fixed_point_check, telescope_sum
from zetacontour.universality import SegmentK, scan, sup_distance
from zetacontour.zero_finder import (
    mangoldt_estimate,
    riemann_siegel_theta,
    zero_free_bounds,
)

NAN, INF = math.nan, math.inf
_K = SegmentK(0.6, 0.8, samples=5)


class TestSegmentK:
    def test_validation(self):
        with pytest.raises(errors.DomainError):
            SegmentK(0.4, 0.8)
        with pytest.raises(errors.DomainError):
            SegmentK(0.8, 0.6)
        k = SegmentK(0.6, 0.8, samples=5)
        assert len(k.grid()) == 5


class TestSupDistance:
    def test_self_target(self, table120):
        # a hairline segment against its own value: distance ~ evaluation error
        K = SegmentK(0.7, 0.7 + 1e-9, samples=2)
        s = complex(0.7, 100.0)
        val, _ = log_deriv_batch(np.array([s]))
        r = sup_distance(100.0, K, val[0].real, val[0].imag, table120)
        assert r.sup_distance < 1e-6

    def test_refinement_never_decreases(self, table120):
        # 65-point grid contains the 33-point grid
        base = SegmentK(0.6, 0.8, samples=33)
        fine = SegmentK(0.6, 0.8, samples=65)
        a = sup_distance(77.0, base, 0.0, -math.pi, table120)
        b = sup_distance(77.0, fine, 0.0, -math.pi, table120)
        assert b.sup_distance >= a.sup_distance - 1e-12

    def test_near_singular_shift_raises(self, table120):
        K = SegmentK(0.5 + 2e-4, 0.8, samples=9)
        with pytest.raises(errors.NearSingularity):
            sup_distance(table120.gammas[0], K, 0.0, 0.0, table120)

    def test_continuity_spot_check(self, table120):
        K = SegmentK(0.6, 0.8, samples=17)
        tau, delta = 50.0, 1e-4
        a = sup_distance(tau, K, 0.0, -math.pi, table120).sup_distance
        b = sup_distance(tau + delta, K, 0.0, -math.pi, table120).sup_distance
        # a crude Lipschitz estimate of zeta'/zeta along the sweep
        s = K.grid() + 1j * tau
        v0, _ = log_deriv_batch(s)
        v1, _ = log_deriv_batch(s + 1j * delta)
        lip = float(np.max(np.abs(v1 - v0))) / delta
        assert abs(b - a) <= 3.0 * lip * delta + 1e-9


class TestTableCoverage:
    def test_scan_across_an_untabulated_zero_refuses(self, table120, big_table):
        K = SegmentK(0.5 + 2e-4, 0.8, samples=5)
        g = next(g for g in big_table.gammas if g > 120.0)
        with pytest.raises(errors.TableTooShort):
            scan(g - 0.001, g + 0.001, 0.0005, K, 0.0, 0.0, 1.0, table120)
        summary = scan(g - 0.001, g + 0.001, 0.0005, K, 0.0, 0.0, 1.0, big_table)
        assert len(summary.skipped) >= 1

    def test_scan_counts_the_offset(self, table120):
        K = SegmentK(0.6, 0.8, samples=5, t_offset=100.0)
        with pytest.raises(errors.TableTooShort):
            scan(0.0, 30.0, 1.0, K, 0.0, -math.pi, 0.5, table120)

    def test_sup_distance_above_the_table_refuses(self, table120):
        K = SegmentK(0.6, 0.8, samples=5)
        with pytest.raises(errors.TableTooShort):
            sup_distance(125.0, K, 0.0, -math.pi, table120)


class TestScan:
    def test_eps_extremes(self, table120):
        K = SegmentK(0.6, 0.8, samples=5)
        full = scan(0.0, 2.0, 0.5, K, 0.0, -math.pi, math.inf, table120)
        assert full.good_fraction == 1.0
        none = scan(0.0, 2.0, 0.5, K, 0.0, -math.pi, 0.0, table120)
        assert none.good_fraction == 0.0

    def test_deterministic(self, table120):
        K = SegmentK(0.6, 0.8, samples=9)
        a = scan(0.0, 5.0, 0.1, K, 0.0, -math.pi, 0.5, table120)
        b = scan(0.0, 5.0, 0.1, K, 0.0, -math.pi, 0.5, table120)
        assert a == b

    def test_sorted_by_distance(self, table120):
        K = SegmentK(0.6, 0.8, samples=9)
        summary = scan(0.0, 20.0, 0.25, K, 0.0, -math.pi, 0.5, table120)
        sups = [r.sup_distance for r in summary.results]
        assert sups == sorted(sups)
        assert summary.best.sup_distance == sups[0]

    def test_skip_near_singular(self, table120):
        K = SegmentK(0.5 + 2e-4, 0.8, samples=5)
        g1 = table120.gammas[0]
        summary = scan(g1 - 0.001, g1 + 0.001, 0.0005, K, 0.0, 0.0, 1.0, table120)
        assert len(summary.skipped) >= 1
        assert all(abs(t - g1) < 0.01 for t in summary.skipped)

    def test_screen_matches_the_nearest_ordinate(self, table120):
        # the vectorized screen skips exactly the shifts that the table's own
        # nearest_gamma puts within FLAG_RADIUS, and sup_distance refuses them
        K = SegmentK(0.5 + 2e-4, 0.8, samples=5, t_offset=-60.0)
        for g in table120.gammas[:12]:
            for tau0 in (60.0 + g, 60.0 - g):  # the shifted segment at +g, at -g
                summary = scan(tau0 - 0.003, tau0 + 0.003, 0.0005, K, 0.0, 0.0, 1.0,
                               table120)
                taus = [r.tau for r in summary.results] + list(summary.skipped)
                want = []
                for tau in sorted(taus):
                    t = abs(K.t_offset + tau)
                    d = math.hypot(K.sigma_lo - 0.5, t - table120.nearest_gamma(t))
                    if d < FLAG_RADIUS:
                        want.append(tau)
                assert len(taus) == 13 and want
                assert list(summary.skipped) == want
                for tau in taus:
                    if tau in want:
                        with pytest.raises(errors.NearSingularity):
                            sup_distance(tau, K, 0.0, 0.0, table120)
                    else:
                        sup_distance(tau, K, 0.0, 0.0, table120)

    def test_matches_sup_distance(self, table120):
        # the scan contracts many shifts in one batch, sup_distance one shift:
        # both sups lie within the largest sample bound of the true grid sup
        K = SegmentK(0.6, 0.8, samples=33)
        summary = scan(0.0, 100.0, 0.25, K, 0.0, -math.pi, 0.5, table120)
        for r in summary.results[::80]:
            direct = sup_distance(r.tau, K, 0.0, -math.pi, table120)
            _, lerr = log_deriv_batch(K.grid() + 1j * r.tau)
            assert abs(r.sup_distance - direct.sup_distance) <= 2.0 * lerr.max()

    def test_neighborhood_of_good_shift(self, table120):
        # shifts neighboring a good one stay good for a slightly larger eps
        K = SegmentK(0.6, 0.8, samples=17)
        summary = scan(20.0, 60.0, 0.5, K, 0.0, -math.pi, 0.5, table120)
        star = summary.best
        eps = star.sup_distance + 0.05
        for dt in (-0.01, -0.005, 0.005, 0.01):
            r = sup_distance(star.tau + dt, K, 0.0, -math.pi, table120)
            assert r.sup_distance < eps


@pytest.mark.parametrize("call", [
    lambda tb: scan(NAN, 1.0, 0.1, _K, 0.0, -math.pi, 0.5, tb),
    lambda tb: scan(0.0, 1.0, NAN, _K, 0.0, -math.pi, 0.5, tb),
    lambda tb: scan(0.0, INF, 0.1, _K, 0.0, -math.pi, 0.5, tb),
    lambda tb: scan(-INF, 1.0, 0.1, _K, 0.0, -math.pi, 0.5, tb),
    lambda tb: scan(0.0, 1.0, INF, _K, 0.0, -math.pi, 0.5, tb),
    lambda tb: scan(0.0, 1.0, 0.1, _K, 0.0, -math.pi, NAN, tb),
    lambda tb: sup_distance(NAN, _K, 0.0, -math.pi, tb),
    lambda tb: log_deriv_zeta(complex(0.7, NAN), FAST_CONFIG, zeros=tb),
    lambda tb: log_deriv_zeta(complex(0.7, NAN), FAST_CONFIG),
    lambda tb: SegmentK(0.6, 0.8, t_offset=NAN),
    lambda tb: Rectangle.paper_mode(0.6, 0.8, INF),
    lambda tb: zero_free_bounds(NAN),
    lambda tb: zero_free_bounds(INF),
    lambda tb: mangoldt_estimate(NAN),
    lambda tb: mangoldt_estimate(INF),
    lambda tb: riemann_siegel_theta(NAN),
    lambda tb: _parse_range("nan:1:0.1", 3),
    lambda tb: arctan_add(NAN, 1.0),
    lambda tb: arctan_add(INF, 0.0),
    lambda tb: telescope_sum(lambda k: INF if k == 2 else 1.0, 3),
    lambda tb: fixed_point_check(1.0, NAN),
    lambda tb: principal_log_arg(complex(NAN, 1.0)),
], ids=["scan-lo-nan", "scan-step-nan", "scan-hi-inf", "scan-lo-minus-inf",
        "scan-step-inf", "scan-eps-nan", "sup-distance-nan", "log-deriv-screened",
        "log-deriv-unscreened", "segment-offset-nan", "paper-T-inf",
        "zero-free-nan", "zero-free-inf", "mangoldt-nan", "mangoldt-inf",
        "theta-nan", "cli-range-nan", "arctan-add-nan", "arctan-add-inf",
        "telescope-f-inf", "fixed-point-nan", "log-arg-nan"])
def test_non_finite_inputs_refused(call, table120):
    # a typed DomainError, raised before any zero-table screen
    with pytest.raises(errors.DomainError):
        call(table120)
