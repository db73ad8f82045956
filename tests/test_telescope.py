import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import fixed_point_scan_residual, h_of_f
from zetacontour import errors
from zetacontour.contour import Rectangle
from zetacontour.telescope import (
    arctan_add,
    fixed_point_check,
    h_functions,
    linearize_riccati,
    riccati_iterate,
    s_n_direct,
    telescope_sum,
)
from zetacontour.zero_finder import ZeroTable

RECT = Rectangle.paper_mode(3.0 / 5.0, 4.0 / 5.0, 100.0)

finite_floats = st.floats(min_value=-30.0, max_value=30.0,
                          allow_nan=False, allow_infinity=False)


class TestArctanAdd:
    def test_simple(self):
        r = arctan_add(1.0, 0.0)
        assert r.value == pytest.approx(math.pi / 4) and r.wrap_count == 0

    def test_below_threshold(self):
        r = arctan_add(1.0, 0.5)
        assert abs(r.value - math.atan(3.0)) < 1e-12
        assert r.wrap_count == 0

    def test_wrap_case(self):
        r = arctan_add(2.0, 3.0)
        assert abs(r.value - 3 * math.pi / 4) < 1e-12
        assert r.wrap_count == 1
        assert abs(r.value - (math.atan(2.0) + math.atan(3.0))) < 1e-12

    def test_degenerate(self):
        with pytest.raises(errors.DegenerateProduct):
            arctan_add(2.0, 0.5)

    @given(finite_floats, finite_floats)
    @settings(max_examples=300)
    def test_soundness(self, x, y):
        assume(abs(x * y - 1.0) > 1e-6)
        r = arctan_add(x, y)
        # the unwrapped part must reproduce the tangent combination
        assert abs(math.tan(r.value - r.wrap_count * math.pi)
                   - (x + y) / (1.0 - x * y)) <= 1e-10 * (
            1.0 + abs((x + y) / (1.0 - x * y)) ** 2)

    @given(finite_floats, finite_floats)
    @settings(max_examples=300)
    def test_equals_arctan_sum(self, x, y):
        assume(abs(x * y - 1.0) > 1e-6)
        r = arctan_add(x, y)
        assert abs(r.value - (math.atan(x) + math.atan(y))) < 1e-12


class TestTelescopeSum:
    def test_identity_sequence(self):
        res = telescope_sum(lambda k: float(k), 10)
        closed = math.atan(11.0) - math.pi / 4.0
        direct = math.fsum(math.atan(1.0 / (1 + k + k * k)) for k in range(1, 11))
        assert abs(res.value - closed) < 1e-15
        assert abs(res.value - direct) < 1e-12
        assert res.wrap_count == 0

    def test_single_step(self):
        f = lambda k: [0.3, 1.7][k - 1]
        res = telescope_sum(f, 1)
        assert abs(res.value - math.atan(h_of_f(f, 1))) < 1e-15

    def test_wrap_step(self):
        f = lambda k: [2.0, -2.0][k - 1]
        res = telescope_sum(f, 1)
        assert abs(res.value - math.atan(4.0 / 3.0)) < 1e-12
        assert res.wrap_steps == ((1, 1),)
        assert abs(res.value - (math.atan(-2.0) - math.atan(2.0) + math.pi)) < 1e-12

    def test_degenerate_step(self):
        f = lambda k: [1.0, -1.0][k - 1]
        with pytest.raises(errors.DegenerateStep) as exc:
            telescope_sum(f, 1)
        assert exc.value.k == 1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-5.0, max_value=5.0,
                              allow_nan=False), min_size=3, max_size=25))
    def test_matches_direct_summation(self, seq):
        prods = [seq[i + 1] * seq[i] for i in range(len(seq) - 1)]
        assume(min(abs(1.0 + p) for p in prods) > 1e-3)
        n = len(seq) - 1
        res = telescope_sum(lambda k: seq[k - 1], n)
        direct = math.fsum(
            math.atan((seq[k] - seq[k - 1]) / (1.0 + seq[k] * seq[k - 1]))
            for k in range(1, n + 1))
        assert abs(res.value - direct) < 1e-10


class TestHFunctions:
    def test_zero_numerator_at_matching_height(self):
        table = ZeroTable((30.0,), 1e-9, 30.0)
        rect = Rectangle.paper_mode(0.6, 0.8, 30.0)
        h1, h2 = h_functions(1, rect, table)
        assert h1 == 0.0
        assert h2 < 0.0

    def test_hand_expansion(self, table120):
        h1, h2 = h_functions(1, RECT, table120)
        g = table120.gammas[0]
        ab = (0.6 - 0.5) * (0.8 - 0.5)
        assert h1 == pytest.approx((-0.2) * (100.0 - g) / (ab + (100.0 - g) ** 2))
        assert h2 == pytest.approx((-0.2) * (100.0 + g) / (ab + (100.0 + g) ** 2))

    def test_h2_always_negative(self, table120):
        for k in range(1, len(table120.gammas) + 1):
            assert h_functions(k, RECT, table120)[1] < 0.0


class TestSnDirect:
    def test_empty_sum(self, table120):
        assert s_n_direct(RECT, table120, 0).value == 0.0

    def test_deterministic(self, table120):
        a = s_n_direct(RECT, table120, 29)
        b = s_n_direct(RECT, table120, 29)
        assert a == b

    def test_pi_residual_consistent(self, table120):
        sn = s_n_direct(RECT, table120, 29)
        assert abs(sn.value - sn.q_nearest * math.pi - sn.pi_residual) < 1e-15
        assert abs(sn.pi_residual) <= math.pi / 2


class TestRiccati:
    def test_initial_condition(self, table120):
        tr = riccati_iterate("f", 10, RECT, table120)
        assert tr.iterates[0] == 0.0
        assert len(tr.iterates) == 11

    @pytest.mark.parametrize("kind", ["f", "g"])
    def test_step_identity(self, kind, table120):
        tr = riccati_iterate(kind, 29, RECT, table120)
        assert max(tr.step_residuals) < 1e-10

    def test_trace_reproducible(self, table120):
        a = riccati_iterate("f", 29, RECT, table120)
        b = riccati_iterate("f", 29, RECT, table120)
        assert a.iterates == b.iterates

    def test_telescoped_sum_matches_s_n(self, table120):
        # arctan f(N+1) - arctan f(1) + pi*wraps telescopes the h1 half;
        # same for g and h2; together they rebuild S_N
        N = 29
        trf = riccati_iterate("f", N, RECT, table120)
        trg = riccati_iterate("g", N, RECT, table120)
        sn = s_n_direct(RECT, table120, N)
        val = (math.atan(trf.final()) + math.pi * trf.wrap_count
               + math.atan(trg.final()) + math.pi * trg.wrap_count)
        assert abs(val - sn.value) < 1e-9

    def test_denominator_vanish_detected(self):
        # engineered two-step table: h(2) = 1/f(2) makes the denominator zero
        alpha, beta, T = 0.51, 0.99, 30.0
        ab = (alpha - 0.5) * (beta - 0.5)
        u1 = math.sqrt(ab)
        h1 = (alpha - beta) * u1 / (ab + u1 * u1)
        target = 1.0 / h1  # f(2) = h1, need h(2) = 1/f(2)
        # solve (alpha-beta) u / (ab + u^2) = target for the small root
        A = target
        B = -(alpha - beta)
        C = target * ab
        disc = math.sqrt(B * B - 4 * A * C)
        u2 = min((-B - disc) / (2 * A), (-B + disc) / (2 * A))
        table = ZeroTable((T - u1, T - u2), 1e-12, T)
        rect = Rectangle.paper_mode(alpha, beta, T)
        with pytest.raises(errors.DenominatorVanished) as exc:
            riccati_iterate("f", 2, rect, table)
        assert exc.value.k == 2

    def test_long_trace_diagnostics(self, big_table):
        # the telescoped identity over 2000 steps; RECT's traces never wrap,
        # D(0.51, 0.99, 1000)'s f trace wraps at k = 639 and 820
        for rect in (RECT, Rectangle.paper_mode(0.51, 0.99, 1000.0)):
            trf = riccati_iterate("f", 2000, rect, big_table)
            trg = riccati_iterate("g", 2000, rect, big_table)
            assert trf.denominator_min > 0
            assert max(trf.step_residuals) < 1e-10
            val = (math.atan(trf.final()) + math.pi * trf.wrap_count
                   + math.atan(trg.final()) + math.pi * trg.wrap_count)
            assert abs(val - s_n_direct(rect, big_table, 2000).value) < 1e-9


class TestLinearization:
    def test_char_double_root(self, table120):
        tr = riccati_iterate("f", 29, RECT, table120)
        # at C = 35.6791027722567 the rounded discriminant (2C)^2 - 4C^2 is
        # not 0, so roots formed from it split by about 5e-7
        for C in (2.0, 35.6791027722567):
            lin = linearize_riccati(tr, C=C)
            assert lin.char_roots[0] == pytest.approx(C, abs=1e-9)
            assert lin.char_roots[1] == pytest.approx(C, abs=1e-9)

    def test_T_at_an_ordinate_refused(self):
        # u_2 = T - gamma_2 = 0: H = C/u^2 is undefined at k = 2
        table = ZeroTable((20.0, 30.0, 40.0, 50.0), 1e-9, 50.0)
        tr = riccati_iterate("f", 4, Rectangle.paper_mode(0.6, 0.8, 30.0), table)
        with pytest.raises(errors.DomainError, match="gamma_2"):
            linearize_riccati(tr, C=2.0)

    def test_requires_c_above_one(self, table120):
        tr = riccati_iterate("f", 10, RECT, table120)
        with pytest.raises(errors.DomainError):
            linearize_riccati(tr, C=0.5)

    def test_synthetic_constant_offsets(self):
        # gamma_n = T + n: the limit model gives P -> 2C, R -> -C^2
        T = 30.0
        gammas = tuple(T + float(n) for n in range(1, 600))
        table = ZeroTable(gammas, 1e-9, gammas[-1])
        rect = Rectangle.paper_mode(0.6, 0.8, T)
        tr = riccati_iterate("f", len(gammas), rect, table)
        lin = linearize_riccati(tr, C=2.0)
        assert abs(lin.P_seq[-1] - 4.0) < 0.02
        assert abs(lin.R_seq[-1] + 4.0) < 0.04
        assert lin.gaps_decreasing() == (True, True)

    def test_real_table_limits(self, big_table):
        tr = riccati_iterate("f", 2000, RECT, big_table)
        lin = linearize_riccati(tr, C=2.0)
        dec_p, dec_r = lin.gaps_decreasing()
        assert dec_p and dec_r
        assert abs(lin.P_limit - 4.0) < 0.05
        assert abs(lin.R_limit + 4.0) < 0.1


class TestFixedPoint:
    def test_no_real_solution(self):
        v = fixed_point_check(5.0, 1.0)
        assert not v.has_real_fixed_point
        assert v.verdict == "no-real-fixed-point"

    def test_degenerate_identity(self):
        v = fixed_point_check(3.0, 0.0)
        assert v.degenerate

    def test_scan_oracle(self):
        # residual |x(-bx+a) - (ax+b)| = |b| (x^2+1) never vanishes
        res = fixed_point_scan_residual(5.0, 1.0, -1e6, 1e6, n=100_001)
        assert res >= 1.0  # minimum at x = 0 is exactly |b|
