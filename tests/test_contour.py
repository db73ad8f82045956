import math
import time

import mpmath as mp
import numpy as np
import pytest

from zetacontour import contour, errors
from zetacontour.contour import (
    Rectangle,
    decompose,
    decompose_height,
    digamma_integrand,
    digamma_term_integral,
    horizontal_edges_model,
    integrate_edge,
    integrate_rectangle,
    logpi_edge_integral,
    logpi_term_integral,
    paper_total,
    pole_integrand,
    pole_term_integral,
    singularity_set,
    zero_sum_integrand,
    zero_sum_term_integral,
    zero_tail_estimate,
)
from zetacontour.special_functions import log_deriv_batch
from zetacontour.telescope import s_n_direct
from zetacontour.zero_finder import ZeroTable, backlund_count_bound

from oracles import presplit_full_set, singularity_set_full_scan

ALPHA, BETA = 3.0 / 5.0, 4.0 / 5.0


def vertical_pair(f, rect, tol=1e-10, sings=()):
    c = rect.corners()
    da = integrate_edge(f, c["d"], c["a"], tol=tol, singularities=sings)
    bc = integrate_edge(f, c["b"], c["c"], tol=tol, singularities=sings)
    return da.value + bc.value, da.err + bc.err


class TestRectangle:
    def test_paper_mode_validation(self):
        with pytest.raises(errors.DomainError):
            Rectangle.paper_mode(0.4, 0.8, 10.0)   # alpha below 1/2
        with pytest.raises(errors.DomainError):
            Rectangle.paper_mode(0.8, 0.6, 10.0)   # alpha > beta
        r = Rectangle.paper_mode(ALPHA, BETA, 30.0)
        assert (r.alpha, r.beta, r.T) == (ALPHA, BETA, 30.0)

    def test_edges_positive_circulation(self):
        r = Rectangle.paper_mode(ALPHA, BETA, 2.0)
        names = [n for n, _, _ in r.edges()]
        assert names == ["da", "ab", "bc", "cd"]
        # DA runs upward along sigma = beta
        _, d, a = r.edges()[0]
        assert d == complex(BETA, -2.0) and a == complex(BETA, 2.0)


class TestIntegrateEdge:
    def test_rule_is_kronrod_extension_of_gauss_legendre_16(self):
        x, w = contour._GK_X, contour._GK_W
        gx, gw = np.polynomial.legendre.leggauss(16)
        np.testing.assert_allclose(x[1::2], gx, rtol=0, atol=1e-15)
        np.testing.assert_allclose(contour._GL_W, gw, rtol=0, atol=1e-15)
        for k in range(50):  # G16/K33 is exact to degree 3*16 + 1
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(math.fsum(w * x ** k) - exact) < 1e-14, k
        assert (w > 0).all()
        assert (x == -x[::-1]).all() and (w == w[::-1]).all() and x[16] == 0.0

    def test_one_batch_per_panel_closed_under_conjugation(self, big_table):
        # the right edge DA of D(3/5, 4/5, 100) is accepted in its first
        # wave: one 33-node batch per presplit panel, and a mirrored presplit
        # gives exactly conjugate nodes, so zeta_batch's fold halves the work
        rect = Rectangle.paper_mode(ALPHA, BETA, 100.0)
        c = rect.corners()
        sings = singularity_set(rect, big_table)
        seen = []

        def f(z):
            seen.append(z.copy())
            return log_deriv_batch(z)[0]

        e = integrate_edge(f, c["d"], c["a"], tol=2.5e-8, singularities=sings)
        assert e.n_evals == 33 * len(contour._presplit(c["d"], c["a"], sings)[0])
        assert len(seen) == 1
        z = seen[0]
        assert set(z.tolist()) == set(z.conj().tolist())

    def test_constant_integrand(self):
        T = 7.0
        e = integrate_edge(lambda z: np.ones_like(z), complex(ALPHA, -T),
                           complex(ALPHA, T), tol=1e-12)
        assert abs(e.value - 2j * T) < 1e-12

    def test_pole_term_edge(self):
        # int_DA ds/(1-s) = 2i arctan(T/(1-beta))
        T = 40.0
        e = integrate_edge(pole_integrand, complex(BETA, -T), complex(BETA, T),
                           tol=1e-12, singularities=[1.0 + 0j])
        assert abs(e.value - 2j * math.atan(T / (1.0 - BETA))) < 1e-10

    def test_logpi_edge(self):
        T = 10.0
        f = lambda z: np.full(len(z), 0.5 * math.log(math.pi), dtype=complex)
        e = integrate_edge(f, complex(BETA, -T), complex(BETA, T),
                           tol=1e-13)
        assert abs(e.value - 1j * T * math.log(math.pi)) < 1e-12

    def test_orientation_reversal(self):
        a, b = complex(BETA, -5.0), complex(BETA, 5.0)
        fwd = integrate_edge(pole_integrand, a, b, tol=1e-12)
        rev = integrate_edge(pole_integrand, b, a, tol=1e-12)
        assert abs(fwd.value + rev.value) < 1e-13

    def test_singularity_on_path(self, table120):
        g1 = table120.gammas[0]
        with pytest.raises(errors.SingularityOnPath):
            integrate_edge(pole_integrand, complex(0.5, g1 - 1.0),
                           complex(0.5, g1 + 1.0),
                           singularities=[complex(0.5, g1)])

    def test_tolerance_floor(self):
        with pytest.raises(errors.ToleranceNotMet):
            integrate_edge(pole_integrand, 0j, 1j, tol=1e-15)

    def test_nan_tolerance_refused_before_any_node(self):
        seen = []

        def f(z):
            seen.append(z.size)
            return pole_integrand(z)

        with pytest.raises(errors.DomainError):
            integrate_edge(f, 0j, 1j, tol=math.nan)
        assert not seen

    def test_unscreened_zero_on_path_stops_at_the_node_budget(self):
        # the bottom edge of [0.4,0.6]x[-gamma_1,-13] runs through a zero that
        # is not passed as a singularity; its waves grow ~1.9x each, so only
        # the node budget ends the run in seconds rather than minutes
        g1 = 14.134725141734693
        seen = []

        def f(z):
            seen.append(z.size)
            return log_deriv_batch(z)[0]

        t0 = time.perf_counter()
        with pytest.raises(errors.ToleranceNotMet):
            integrate_edge(f, complex(0.4, -g1), complex(0.6, -g1), tol=2.5e-9)
        assert time.perf_counter() - t0 < 60.0
        assert sum(seen) - seen[0] <= contour._MAX_NODES

    def test_wave_cap_stops_a_panel_that_never_converges(self):
        # a step inside [0.5 - i, 0.5 + i]: the panel holding it is halved
        # every wave and never meets its share of the tolerance
        with pytest.raises(errors.ToleranceNotMet, match="stuck"):
            integrate_edge(lambda z: np.where(z.imag > 0.3, 1.0, 0.0),
                           complex(0.5, -1.0), complex(0.5, 1.0), tol=1e-12)

    def test_presplit_matches_the_full_set_presplit(self, big_table):
        # the breadth-first presplit over candidate windows along the edge
        # must give the panels of a depth-first search over the whole set,
        # in the order its stack pops them
        boxes = [Rectangle.box(0.9, 1.1, -1.0, 1.0),
                 Rectangle.box(0.4, 0.6, 14.0, 14.3)]
        boxes += [Rectangle.paper_mode(ALPHA, BETA, T)
                  for T in (20.0, 50.0, 100.0, 250.0, 500.0, 1000.0)]
        cases = [(a, b, singularity_set(rect, big_table))
                 for rect in boxes for _, a, b in rect.edges()]
        tall = Rectangle.paper_mode(ALPHA, BETA, 3000.0)
        c = tall.corners()
        cases.append((c["b"], c["c"], singularity_set(tall, big_table)))
        # integrate_edge takes any segment: slanted ones, both ways round
        sings = singularity_set(Rectangle.paper_mode(ALPHA, BETA, 100.0), big_table)
        cases += [(0.2 - 90j, 0.9 + 95j, sings), (1.7 + 60j, -0.3 + 10j, sings)]
        for a, b, sings in cases:
            pa, pb = contour._presplit(a, b, sings)
            assert list(zip(pa, pb)) == presplit_full_set(a, b, sings)

    def test_presplit_without_singularities_cuts_quarters(self):
        pa, pb = contour._presplit(0.5 - 2j, 0.5 + 2j, [])
        assert list(zip(pa, pb)) == [(0.5 + 1j, 0.5 + 2j), (0.5 + 0j, 0.5 + 1j),
                                     (0.5 - 1j, 0.5 + 0j), (0.5 - 2j, 0.5 - 1j)]

    def test_presplit_refuses_an_edge_through_a_zero(self, big_table):
        g = big_table.gammas[2]
        sings = singularity_set(Rectangle.box(0.3, 0.7, g - 3.0, g + 3.0), big_table)
        for a, b in [(complex(0.3, g), complex(0.7, g)),
                     (complex(0.5, g - 3.0), complex(0.5, g + 3.0))]:
            with pytest.raises(errors.SingularityOnPath) as got:
                contour._presplit(a, b, sings)
            with pytest.raises(errors.SingularityOnPath) as want:
                presplit_full_set(a, b, sings)
            assert str(got.value) == str(want.value)

    def test_tall_presplit_wave_is_not_refused(self, big_table):
        # the left edge BC of D(3/5, 4/5, 4000) presplits into more than
        # _MAX_NODES first-wave nodes; only refinement counts against the
        # budget, so the edge integrates (a constant keeps the test cheap)
        rect = Rectangle.paper_mode(ALPHA, BETA, 4000.0)
        c = rect.corners()
        e = integrate_edge(lambda z: np.ones_like(z), c["b"], c["c"], tol=2.5e-8,
                           singularities=singularity_set(rect, big_table))
        assert e.n_evals > contour._MAX_NODES
        assert abs(e.value - (c["c"] - c["b"])) < 1e-9


class TestSingularitySet:
    def test_matches_the_full_scan(self, big_table):
        m = contour._SING_MARGIN
        gs = big_table.gammas
        boxes = [Rectangle.paper_mode(ALPHA, BETA, T) for T in (20.0, 100.0, 250.0)]
        boxes += [Rectangle.box(0.3, 0.7, -40.0, -10.0), Rectangle.box(0.3, 0.7, 10.0, 40.0),
                  Rectangle.box(0.3, 0.7, -30.0, 60.0), Rectangle.box(0.3, 0.7, -2.0, 2.0),
                  Rectangle.box(0.9, 1.1, -1.0, 1.0)]
        # ordinates exactly on the margin, above, below and in both half-planes
        at_margin = []
        for g in gs[5:60]:
            if (g - m) + m == g:
                boxes.append(Rectangle.box(0.4, 0.6, g - m - 3.0, g - m))
                boxes.append(Rectangle.box(0.4, 0.6, m - g, m - g + 3.0))
                at_margin += [complex(0.5, g), complex(0.5, -g)]
            if (g + m) - m == g:
                boxes.append(Rectangle.box(0.4, 0.6, g + m, g + m + 2.0))
                boxes.append(Rectangle.box(0.4, 0.6, -g - m - 2.0, -g - m))
                at_margin += [complex(0.5, g), complex(0.5, -g)]
        assert len(at_margin) >= 8
        found = set()
        for rect in boxes:
            got = singularity_set(rect, big_table)
            assert got == singularity_set_full_scan(rect, gs, m)
            found.update(got)
        assert found.issuperset(at_margin)


class TestWinding:
    def test_pole_box(self, table120):
        rep = integrate_rectangle(Rectangle.box(0.9, 1.1, -1.0, 1.0), table120)
        assert rep.winding == -1
        assert rep.winding_gap < 1e-6

    def test_first_zero_box(self, table120):
        rep = integrate_rectangle(Rectangle.box(0.4, 0.6, 14.0, 14.3), table120)
        assert rep.winding == 1

    def test_mirrored_first_zero_box(self, table120):
        # screening -gamma_1 needs the table to reach |y0|, not y1
        rect = Rectangle.box(0.4, 0.6, -14.3, -14.0)
        assert integrate_rectangle(rect, table120).winding == 1
        with pytest.raises(errors.TableTooShort):
            integrate_rectangle(rect, ZeroTable((), table120.accuracy, 10.0))

    def test_paper_rectangles_wind_zero(self, table120):
        for T in (30.0, 50.0):
            rep = integrate_rectangle(Rectangle.paper_mode(ALPHA, BETA, T), table120)
            assert rep.winding == 0
            assert abs(rep.winding_raw) <= 1e-3

    def test_total_is_edge_sum_and_gap_consistent(self, table120):
        rep = integrate_rectangle(Rectangle.paper_mode(ALPHA, BETA, 30.0), table120)
        esum = sum(e.value for e in rep.edges.values())
        assert abs(esum - rep.total) < 1e-15
        assert rep.winding_gap == abs(rep.winding_raw - rep.winding)

    def test_conjugate_edge_symmetry(self, table120):
        rep = integrate_rectangle(Rectangle.paper_mode(ALPHA, BETA, 30.0),
                                  table120, tol=1e-9)
        ab, cd = rep.edges["ab"].value, rep.edges["cd"].value
        assert abs(cd + ab.conjugate()) < 1e-9

    def test_boundary_singularity(self, table120):
        g1 = table120.gammas[0]
        with pytest.raises(errors.BoundarySingularity):
            integrate_rectangle(Rectangle.box(0.4, 0.6, g1, g1 + 0.5), table120)

    def test_box_left_of_the_double_engine_is_refused(self, table120):
        # boxes must lie in Re s >= -1; trivial zeros are never screened
        with pytest.raises(errors.DomainError):
            integrate_rectangle(Rectangle.box(-3.0, -1.6, -1.0, 1.0), table120)

    def test_reversed_circulation_negates_total(self, table120):
        from zetacontour.special_functions import log_deriv_batch
        rect = Rectangle.box(0.9, 1.1, -1.0, 1.0)
        sings = singularity_set(rect, table120)
        f = lambda z: log_deriv_batch(z)[0]
        fwd = rev = 0j
        for _, a, b in rect.edges():
            fwd += integrate_edge(f, a, b, tol=1e-9,
                                  singularities=sings).value
            rev += integrate_edge(f, b, a, tol=1e-9,
                                  singularities=sings).value
        assert abs(fwd + rev) < 1e-8


class TestPoleTerm:
    def test_large_T_modulus(self):
        v = pole_term_integral(Rectangle.paper_mode(0.6, 0.8, 1000.0))
        assert abs(v) < 4e-4

    def test_arguments_tend_to_half_pi(self):
        prev = None
        for T in (10.0, 100.0, 1000.0):
            v = abs(pole_term_integral(Rectangle.paper_mode(0.6, 0.8, T)))
            if prev is not None:
                assert v < prev
            prev = v

    def test_against_quadrature(self, table120):
        rect = Rectangle.paper_mode(ALPHA, BETA, 25.0)
        quad, _ = vertical_pair(pole_integrand, rect, tol=1e-12,
                                sings=[1.0 + 0j])
        assert abs(pole_term_integral(rect) - quad) < 1e-10


class TestLogPiTerm:
    def test_combined_zero(self):
        assert logpi_term_integral(Rectangle.paper_mode(ALPHA, BETA, 12.0)) == 0

    def test_da_edge_value(self):
        v = logpi_edge_integral(Rectangle.paper_mode(ALPHA, BETA, 10.0), "da")
        assert abs(v - 10j * math.log(math.pi)) < 1e-12

    def test_against_quadrature(self):
        rect = Rectangle.paper_mode(ALPHA, BETA, 10.0)
        f = lambda z: np.full(len(z), 0.5 * math.log(math.pi), dtype=complex)
        quad, _ = vertical_pair(f, rect, tol=1e-13)
        assert abs(quad) < 1e-12


class TestDigammaTerm:
    def test_sign_convention(self):
        term = digamma_term_integral(Rectangle.paper_mode(ALPHA, BETA, 50.0))
        assert term.value == -term.edge_half_sum

    def test_trend_to_limit(self):
        gaps = [digamma_term_integral(Rectangle.paper_mode(ALPHA, BETA, T)).limit_gap
                for T in (10.0, 100.0, 1000.0)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-2

    def test_against_quadrature(self):
        for T in (20.0, 100.0):
            rect = Rectangle.paper_mode(ALPHA, BETA, T)
            term = digamma_term_integral(rect)
            quad, qerr = vertical_pair(digamma_integrand, rect, tol=1e-12)
            assert abs(term.value - (-0.5) * quad) <= max(
                1e-8, term.closed_form_err + qerr)

    @pytest.mark.parametrize("a,b", [(0.6, 0.8), (0.51, 0.99), (0.7, 0.75)])
    def test_bound_against_loggamma(self, a, b):
        """closed_form_err bounds the error against 2 log Gamma(s/2+1) at 50
        digits, with no floor."""
        F = lambda x, y: 2 * mp.loggamma(mp.mpc(x, y) / 2 + 1)
        for T in (1.0, 5.0, 20.0, 50.0, 100.0, 250.0, 1000.0, 3000.0, 2e4):
            term = digamma_term_integral(Rectangle.paper_mode(a, b, T))
            with mp.workdps(50):
                ref = -(F(b, T) - F(b, -T) - F(a, T) + F(a, -T)) / 2
                err = abs(mp.mpc(term.value) - ref)
            assert err <= term.closed_form_err, (T, float(err), term.closed_form_err)


class TestZeroSum:
    def test_single_zero_closed_vs_quadrature(self, table120):
        rect = Rectangle.paper_mode(0.6, 0.8, 30.0)
        term = zero_sum_term_integral(rect, table120, N=1)
        g1 = table120.gammas[0]
        quad, _ = vertical_pair(zero_sum_integrand(table120, 1), rect, tol=1e-12,
                                sings=[complex(0.5, g1), complex(0.5, -g1)])
        assert abs(term.value - quad) < 1e-10

    def test_eps2_rule_reports_threshold(self, big_table):
        rect = Rectangle.paper_mode(ALPHA, BETA, 50.0)
        term = zero_sum_term_integral(rect, big_table, eps2=1.0 / 2500.0)
        assert term.threshold == pytest.approx(2 * 50.0 / 2500.0)
        assert term.tail_bound <= term.threshold
        # one fewer zero must break the certification
        if term.n_used > 0:
            H = big_table.gammas[term.n_used - 1]
            from zetacontour.contour import zero_tail_bound
            assert zero_tail_bound(rect, H) > term.threshold

    @pytest.mark.parametrize("eps2", [math.nan, 0.0, -1e-4])
    def test_eps2_must_be_positive(self, eps2, table120):
        rect = Rectangle.paper_mode(ALPHA, BETA, 20.0)
        with pytest.raises(errors.DomainError):
            zero_sum_term_integral(rect, table120, eps2=eps2)
        with pytest.raises(errors.DomainError):
            decompose(rect, table120, eps2=eps2)

    def test_infinite_eps2_certifies_with_no_zeros(self, table120):
        rect = Rectangle.paper_mode(ALPHA, BETA, 20.0)
        term = zero_sum_term_integral(rect, table120, eps2=math.inf)
        assert term.n_used == 0 and term.threshold == math.inf

    def test_fluctuation_bound_covers_the_slope_integral(self):
        # beyond the boundary term 2 B(H) w(H), the closed form bounds
        # int_H^inf w(g) B'(g) dg from above and stays within 5% of it
        def slope(g):
            g = float(g)
            return (backlund_count_bound(g * (1 + 1e-5))
                    - backlund_count_bound(g * (1 - 1e-5))) / (2e-5 * g)

        for T, H in ((100.0, 5200.0), (50.0, 300.0)):
            b_a = 0.2
            w = 4.0 * T * b_a
            closed = (contour._tail_fluctuation_bound(b_a, T, H)
                      - 2.0 * backlund_count_bound(H) * w / (H * H - T * T))
            quad = float(mp.quad(lambda g: w / (g * g - T * T) * slope(g),
                                 [H, 2 * H, 10 * H, mp.inf]))
            assert quad <= closed <= 1.05 * quad

    def test_table_too_short(self, table120):
        rect = Rectangle.paper_mode(ALPHA, BETA, 100.0)
        with pytest.raises(errors.TableTooShort):
            zero_sum_term_integral(rect, table120)  # needs height ~5000

    def test_matches_s_n_direct(self, table120):
        rect = Rectangle.paper_mode(ALPHA, BETA, 100.0)
        for N in (1, 5, 29, len(table120)):
            term = zero_sum_term_integral(rect, table120, N=N)
            sn = s_n_direct(rect, table120, N)
            assert term.value == 2j * sn.value

    def test_tail_estimate_magnitude(self, big_table):
        # the density estimate should track the discarded closed-form sum
        rect = Rectangle.paper_mode(ALPHA, BETA, 20.0)
        half = len(big_table.gammas) // 2
        partial = zero_sum_term_integral(rect, big_table, N=half)
        full = zero_sum_term_integral(rect, big_table, N=len(big_table.gammas))
        discarded = full.value - partial.value
        est = (zero_tail_estimate(rect, big_table.gammas[half])
               - zero_tail_estimate(rect, big_table.max_height))
        assert abs(discarded - est) < 0.05 * abs(discarded)


class TestHorizontalModelAndTotal:
    def test_model_value(self):
        rect = Rectangle.paper_mode(ALPHA, BETA, 40.0)
        v = horizontal_edges_model(rect, 0.0, -math.pi)
        assert abs(v - 0.4j * math.pi) < 1e-15

    def test_model_v_zero(self):
        rect = Rectangle.paper_mode(ALPHA, BETA, 40.0)
        assert horizontal_edges_model(rect, 0.0, 0.0) == 0

    def test_u_cancels(self):
        rect = Rectangle.paper_mode(ALPHA, BETA, 40.0)
        assert horizontal_edges_model(rect, 123.0, -2.0) == \
            horizontal_edges_model(rect, 0.0, -2.0)

    def test_asserted_total(self):
        rect = Rectangle.paper_mode(ALPHA, BETA, 40.0)
        assert abs(paper_total(rect, -math.pi, 0) - 0.25) < 1e-15
        for r in (-1.3, 0.0, 0.7):
            v = (0.25 - 5 * r) * math.pi
            assert abs(paper_total(rect, v, 2) - (r + 2)) < 1e-12
        # V solving the cancellation
        assert abs(paper_total(rect, math.pi / 4.0, 0)) < 1e-15


class TestDecomposition:
    @pytest.mark.parametrize("T", [20.0, 100.0, 2000.0])
    def test_table_height_is_the_least_that_meets_the_tail_bound(self, T):
        # the fluctuation bound, the budget's one tail term, meets eps2 * 2T
        # (eps2 = 1/T^2) at H and not one double below it
        rect = Rectangle.paper_mode(ALPHA, BETA, T)
        H = decompose_height(rect)

        def bound(h):
            return contour._tail_fluctuation_bound(rect.beta - rect.alpha, T, h)

        assert T + 10.0 < H < 2.6 * T
        assert bound(H) <= 2.0 / T < bound(np.nextafter(H, 0.0))
        assert decompose_height(rect, eps2=1.0 / (T * T)) == H

    def test_table_height_edges(self):
        rect = Rectangle.paper_mode(ALPHA, BETA, 100.0)
        assert decompose_height(rect, eps2=math.inf) == 110.0
        assert decompose_height(rect, eps2=1e-2) < decompose_height(rect)
        for eps2 in (0.0, -1.0, math.nan):
            with pytest.raises(errors.DomainError):
                decompose_height(rect, eps2=eps2)

    @pytest.mark.parametrize("T", [20.0, 50.0, 100.0])
    def test_residual_within_budget(self, T, big_table):
        rect = Rectangle.paper_mode(ALPHA, BETA, T)
        rep = decompose(rect, big_table)
        assert rep.residual <= 1e-4
        assert rep.residual <= rep.residual_budget
        assert rep.eps2 == pytest.approx(1.0 / (T * T))
        assert rep.n_summed == len(big_table.gammas)

    @pytest.mark.parametrize("T", [200.0, 300.0])
    def test_uncertified_eps2_truncation_is_null(self, T, big_table):
        # the table cannot certify the eps2 = 1/T^2 tail here, but the
        # residual budget never reads that truncation: the call returns
        rep = decompose(Rectangle.paper_mode(ALPHA, BETA, T), big_table)
        assert rep.residual <= rep.residual_budget
        assert rep.n_used_eps2 is None
        assert rep.to_json_dict()["n_used_eps2"] is None

    def test_nan_quad_tol_refused(self, big_table):
        with pytest.raises(errors.DomainError):
            decompose(Rectangle.paper_mode(ALPHA, BETA, 20.0), big_table, quad_tol=math.nan)

    def test_json_keys(self, big_table):
        rep = decompose(Rectangle.paper_mode(ALPHA, BETA, 20.0), big_table)
        d = rep.to_json_dict()
        for key in ("pole", "logpi", "digamma", "zerosum", "tail_bound", "residual"):
            assert key in d
