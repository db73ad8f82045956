import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    EulerMascheroni,
    digamma_asymptotic,
    digamma_asymptotic_remainder,
    digamma_weierstrass,
)
from zetacontour import errors
from zetacontour.precision import (
    DEFAULT_CONFIG,
    FAST_CONFIG,
    ComplexValue,
    PrecisionConfig,
)
from zetacontour.special_functions import (
    _dirichlet_terms,
    _build_sieve,
    _phase_table,
    _sieve,
    digamma,
    log_deriv_batch,
    log_deriv_zeta,
    principal_log_arg,
    xi,
    zeta,
    zeta_alternating,
    zeta_batch,
    zeta_prime,
)

# Frozen oracle values. The complex ones were computed with the eta-series
# route at 40 digits and cross-checked against mpmath's zeta.
ZETA_075_10I = complex(1.461434953126222010456, -0.1141617712580647300426)
ZETA_PRIME_2 = -0.9375482543158437537026
ZETA_PRIME_0 = -0.9189385332046727417803  # -log(2 pi)/2
LOG_DERIV_2 = -0.5699609930945328063999
EULER_C = 0.5772156649015328606065


def _dist(v: ComplexValue, ref) -> float:
    with mp.workdps(50):
        return abs(mp.mpc(v.re, v.im) - mp.mpc(ref))


class TestZeta:
    def test_euler_value_at_2(self, mp_cfg):
        assert _dist(zeta(2.0, mp_cfg), mp.pi ** 2 / 6) < 1e-12

    def test_value_at_0(self, mp_cfg):
        assert _dist(zeta(0.0, mp_cfg), -0.5) < 1e-12

    def test_strip_point_against_eta_oracle(self, mp_cfg):
        v = zeta(complex(0.75, 10.0), mp_cfg)
        assert _dist(v, ZETA_075_10I) < 1e-12
        o = zeta_alternating(complex(0.75, 10.0), mp_cfg)
        assert abs(mp.mpc(v.re, v.im) - mp.mpc(o.re, o.im)) < 1e-12

    def test_pole_raises(self, mp_cfg):
        with pytest.raises(errors.PoleAtOne):
            zeta(1.0 + 1e-9j, mp_cfg)

    def test_reflection_below_strip(self, mp_cfg):
        # Re s <= -1 goes through the functional equation
        v = zeta(complex(-2.5, 3.0), mp_cfg)
        assert _dist(v, mp.zeta(mp.mpc(-2.5, 3.0))) < 1e-15

    def test_trivial_zero(self, mp_cfg):
        assert _dist(zeta(complex(-2.0, 0.0), mp_cfg), 0.0) < 1e-15

    def test_error_bound_covers_truth(self, mp_cfg, fast_cfg):
        for s in (complex(0.5, 14.1), complex(0.9, 77.3), complex(-0.5, 9.0)):
            with mp.workdps(50):
                ref = mp.zeta(mp.mpc(s))
            for cfg in (mp_cfg, fast_cfg):
                v = zeta(s, cfg)
                assert _dist(v, ref) <= v.abs_err

    def test_more_digits_never_worse(self):
        lo = PrecisionConfig(working_digits=15, target_abs_tol=1e-11)
        hi = PrecisionConfig(working_digits=30, target_abs_tol=1e-18)
        for s in (complex(0.6, 30.0), complex(0.75, 10.0)):
            assert zeta(s, hi).abs_err <= zeta(s, lo).abs_err

    def test_conjugate_symmetry_bulk(self, fast_cfg):
        rng = np.random.default_rng(7)
        s = rng.uniform(0.01, 1.99, 1000) + 1j * rng.uniform(-80.0, 80.0, 1000)
        va, _, ea, _ = zeta_batch(s, fast_cfg)
        vb, _, eb, _ = zeta_batch(np.conj(s), fast_cfg)
        assert np.max(np.abs(vb - np.conj(va)) - (ea + eb)) <= 0.0

    def test_eta_route_domain(self, mp_cfg):
        with pytest.raises(errors.DomainError):
            zeta_alternating(complex(-0.5, 3.0), mp_cfg)
        # a zero of 1 - 2^(1-s) on Re s = 1
        with pytest.raises(errors.PrecisionExhausted):
            zeta_alternating(complex(1.0, 2 * math.pi / math.log(2)), mp_cfg)


class TestZetaPrime:
    def test_at_2_against_direct_sum(self, mp_cfg):
        v = zeta_prime(2.0, mp_cfg)
        assert _dist(v, ZETA_PRIME_2) < 1e-12
        # direct-summation oracle; the sum from M is bounded by the first
        # omitted term plus the integral from M
        M = 200_000
        n = np.arange(2, M, dtype=np.float64)
        partial = -np.sum(np.log(n) / (n * n))
        tail = math.log(M) / M ** 2 + (math.log(M) + 1.0) / M
        assert abs(float(v.re) - partial) <= tail

    def test_at_0_against_finite_difference(self, mp_cfg):
        v = zeta_prime(0.0, mp_cfg)
        assert _dist(v, ZETA_PRIME_0) < 1e-12
        h = 1e-6
        fd = (mp.mpc(*(lambda z: (z.re, z.im))(zeta(h, mp_cfg)))
              - mp.mpc(*(lambda z: (z.re, z.im))(zeta(-h, mp_cfg)))) / (2 * h)
        assert abs(mp.mpc(v.re, v.im) - fd) < 1e-9

    def test_conjugate_reflection(self, mp_cfg):
        s = complex(0.7, 23.4)
        a = zeta_prime(s, mp_cfg)
        b = zeta_prime(s.conjugate(), mp_cfg)
        with mp.workdps(50):
            gap = abs(mp.mpc(b.re, b.im) - mp.conj(mp.mpc(a.re, a.im)))
        assert gap < 2 * a.abs_err + 2 * b.abs_err


class TestLogDeriv:
    def test_at_2(self, mp_cfg):
        v = log_deriv_zeta(2.0, mp_cfg)
        assert _dist(v, LOG_DERIV_2) < 1e-12

    def test_conjugate_symmetry(self, mp_cfg):
        s = complex(0.8, 17.0)
        a = log_deriv_zeta(s, mp_cfg)
        b = log_deriv_zeta(s.conjugate(), mp_cfg)
        assert abs(complex(b) - complex(a).conjugate()) < 1e-12

    def test_near_zero_raises(self, mp_cfg, table120):
        with pytest.raises(errors.NearSingularity) as exc:
            log_deriv_zeta(complex(0.5, 14.134725141734693), mp_cfg, table120)
        assert "14.13" in str(exc.value.which)

    def test_flag_zone(self, mp_cfg, table120):
        v = log_deriv_zeta(complex(0.5 + 5e-4, 14.134725), mp_cfg, table120)
        assert v.flag is not None

    def test_double_config_below_strip(self):
        # Re s < -1 leaves the batch engine; the reflection is evaluated in
        # mpmath with the double config promoted, as for zeta and zeta'
        for s in (complex(-3.0, 10.0), complex(-6.0, 2.0)):
            v = log_deriv_zeta(s, FAST_CONFIG)
            with mp.workdps(40):
                sm = mp.mpc(s)
                ref = mp.zeta(sm, derivative=1) / mp.zeta(sm)
            assert _dist(v, ref) <= v.abs_err

    def test_batch_matches_scalar(self, fast_cfg, mp_cfg):
        s = np.array([0.6 + 30j, 0.75 + 10j, 2.0 + 0j])
        vals, errs = log_deriv_batch(s, fast_cfg)
        for si, vi, ei in zip(s, vals, errs):
            ref = log_deriv_zeta(complex(si), mp_cfg)
            assert abs(vi - complex(ref)) <= ei + ref.abs_err

    def test_refuses_where_the_bound_covers_zeta(self, fast_cfg):
        # at the first zero |zeta| ~ 1e-15 sits inside its bound ~ 7e-15, so
        # the quotient has no bound at all
        s = complex(0.5, 14.134725141734693)
        with pytest.raises(errors.PrecisionExhausted):
            log_deriv_batch(np.array([0.6 + 30j, s]), fast_cfg)
        with pytest.raises(errors.PrecisionExhausted):
            log_deriv_zeta(s, fast_cfg)

    def test_untabulated_zero_refuses(self, mp_cfg, table120, big_table):
        # the first zero above 120 is missing from table120: screening the
        # point needs the table to reach it
        g = next(g for g in big_table.gammas if g > 120.0)
        with pytest.raises(errors.TableTooShort):
            log_deriv_zeta(complex(0.5, g), mp_cfg, table120)
        with pytest.raises(errors.NearSingularity):
            log_deriv_zeta(complex(0.5, g), mp_cfg, big_table)


class TestDoubleEngineLattice:
    """The double engine on a lattice of heights x abscissae, the shape a
    shift scan hands it, where the main sum is one grid contraction."""

    S = (np.linspace(0.6, 0.8, 33)[None, :]
         + 1j * np.linspace(2.0, 20.0, 40)[:, None]).ravel()

    def test_bounds_hold(self, fast_cfg):
        vals, dvals, errs, derrs = zeta_batch(self.S, fast_cfg, want_prime=True)
        ld, lerr = log_deriv_batch(self.S, fast_cfg)
        with mp.workdps(30):
            for k, s in enumerate(self.S):
                z = mp.zeta(mp.mpc(s))
                dz = mp.zeta(mp.mpc(s), derivative=1)
                assert abs(mp.mpc(vals[k]) - z) <= errs[k]
                assert abs(mp.mpc(dvals[k]) - dz) <= derrs[k]
                assert abs(mp.mpc(ld[k]) - dz / z) <= lerr[k]

    def test_grid_and_scattered_contractions_agree(self, fast_cfg, monkeypatch):
        # padding the lattice with scattered points in the same N groups
        # makes its grid of distinct heights x abscissae far larger than the
        # batch, so the same points are contracted row by row (einsum)
        rng = np.random.default_rng(5)
        pad = rng.uniform(0.6, 0.8, 2000) + 1j * rng.uniform(2.0, 20.0, 2000)
        einsum_calls = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum",
                            lambda *a, **kw: einsum_calls.append(1) or einsum(*a, **kw))
        grid = zeta_batch(self.S, fast_cfg, want_prime=True)
        assert not einsum_calls
        rows = zeta_batch(np.concatenate([self.S, pad]), fast_cfg, want_prime=True)
        assert einsum_calls
        n = self.S.size
        assert np.all(np.abs(grid[0] - rows[0][:n]) <= grid[2] + rows[2][:n])
        assert np.all(np.abs(grid[1] - rows[1][:n]) <= grid[3] + rows[3][:n])


class TestSieve:
    """The smallest-prime-factor sieve and the two term tables built on it."""

    def test_matches_trial_division(self):
        spf, omega = _build_sieve(3000)
        for n in range(2, 3000):
            m, p, count = n, 2, 0
            while m > 1:
                while m % p:
                    p += 1
                if count == 0:
                    assert spf[n] == p, n
                m //= p
                count += 1
            assert omega[n] == count, n

    def test_phase_rows_match_cos_sin(self):
        # each row within (Omega(n) + 1) |t| ln n u of exp(i t ln n), u = 2^-53
        u = 2.0 ** -53
        ts = np.array([-1000.5, 14.134725, 250.3, 2600.7])
        for N in (2, 3, 176, 1456):
            n = np.arange(N - 1, 0, -1)
            phase = _phase_table(ts, np.log(n.astype(float)), N)
            omega = _sieve(N)[1][n]
            with mp.workdps(30):
                for j, t in enumerate(ts):
                    for r in range(0, N - 1, 7 if N > 200 else 1):
                        ref = mp.expj(mp.mpf(float(t)) * mp.log(int(n[r])))
                        err = float(abs(mp.mpc(phase[r, j]) - ref))
                        assert err <= (omega[r] + 1) * abs(t) * math.log(n[r]) * u

    def test_mp_terms_match_power(self):
        # relative to |n^-s|: within (1 + log2 n) 10^-dps of mp.power
        for dps in (25, 40):
            for s in (complex(0.5, 14.1), complex(-2.5, -120.0), complex(3.0, 0.0),
                      complex(0.75, 117.3)):
                with mp.workdps(dps):
                    sm = mp.mpc(s)
                    terms, logs = _dirichlet_terms(sm, 300)
                with mp.workdps(dps + 20):
                    for n in range(1, 300):
                        ref = mp.power(n, -sm)
                        rel = abs(terms[n] - ref) / abs(ref)
                        assert rel <= (1 + math.log2(n)) * 10.0 ** -dps, (s, n)
                        assert abs(logs[n] - mp.log(n)) <= (1 + math.log2(n)) \
                            * 10.0 ** -dps * mp.log(n)


class TestMpEngineProperty:
    """Seeded strict check of the mpmath engine against mp.zeta at 50 digits."""

    def test_bounds_hold(self, mp_cfg):
        rng = np.random.default_rng(808)
        checked = 0
        while checked < 40:
            s = complex(rng.uniform(-3.0, 4.0), rng.uniform(-120.0, 120.0))
            if abs(s - 1) < 0.05:
                continue
            checked += 1
            with mp.workdps(50):
                sm = mp.mpc(s)
                ref = mp.zeta(sm)
                dref = mp.zeta(sm, derivative=1)
                v, dv = zeta(s, mp_cfg), zeta_prime(s, mp_cfg)
                assert abs(mp.mpc(v.re, v.im) - ref) <= v.abs_err, s
                assert abs(mp.mpc(dv.re, dv.im) - dref) <= dv.abs_err, s
                if s.real > 0.05 and abs(1 - mp.power(2, 1 - sm)) >= 1e-3:
                    a = zeta_alternating(s, mp_cfg)
                    assert abs(mp.mpc(a.re, a.im) - ref) <= a.abs_err, s


class TestDigamma:
    def test_at_1_is_minus_euler(self, mp_cfg):
        assert _dist(digamma(1.0, mp_cfg), -EULER_C) < 1e-15
        # the constant itself matches its limit definition
        c = EulerMascheroni.compute(mp_cfg)
        assert abs(float(c.value) - EulerMascheroni.limit_oracle(4000)) < 1e-12

    def test_recurrence_identity(self, mp_cfg):
        a = digamma(2.0, mp_cfg)
        assert _dist(a, 1.0 - EULER_C) < 1e-15

    def test_asymptotic_consistency_at_50_50i(self, mp_cfg):
        s = complex(50.0, 50.0)
        v = digamma(s, mp_cfg)
        with mp.workdps(50):
            gap = float(abs(mp.mpc(v.re, v.im) - digamma_asymptotic(s, terms=8)))
        assert gap <= digamma_asymptotic_remainder(s, terms=8) + v.abs_err

    def test_pole_raises(self, mp_cfg):
        for s in (0.0, -3.0):
            with pytest.raises(errors.PoleAtNonpositiveInteger):
                digamma(s, mp_cfg)

    def test_against_loggamma_derivative(self, mp_cfg):
        h = 1e-5
        for s in (1.5, complex(2.0, 3.0), complex(0.7, -4.0), 5.25):
            fd = (mp.loggamma(mp.mpc(s) + h) - mp.loggamma(mp.mpc(s) - h)) / (2 * h)
            assert abs(mp.mpc(*(lambda z: (z.re, z.im))(digamma(s, mp_cfg))) - fd) < 1e-8

    @pytest.mark.parametrize("cfg", [FAST_CONFIG, DEFAULT_CONFIG],
                             ids=["double", "mpmath"])
    def test_bound_holds_across_the_plane(self, cfg):
        # seeded, strict: Re s in [-60, 60], |Im s| <= 40, at least 0.01 from
        # the poles, against mpmath at 50 digits; before them, three points
        # where the recurrence alone never leaves the negative real axis and
        # two beside poles
        rng = np.random.default_rng(2026)
        points = [-20.3, complex(-30.6, 1.0), -100.5, complex(-3 + 1e-5, 1e-6),
                  -1e-5]
        while len(points) < 200:
            s = complex(rng.uniform(-60.0, 60.0), rng.uniform(-40.0, 40.0))
            if abs(s - min(round(s.real), 0)) >= 0.01:
                points.append(s)
        for s in points:
            v = digamma(s, cfg)
            with mp.workdps(50):
                err = abs(mp.mpc(v.re, v.im) - mp.digamma(mp.mpc(s)))
            assert err <= v.abs_err, s

    def test_weierstrass_product_route(self, mp_cfg):
        for s in (1.5, complex(2.0, 3.0), complex(0.3, 1.0)):
            assert abs(digamma_weierstrass(s) - complex(digamma(s, mp_cfg))) < 1e-8


class TestXi:
    def test_reflection_example(self, mp_cfg):
        # binary-exact reflection pair: the tight error-budget bound applies
        a = xi(complex(0.25, 5.0), mp_cfg)
        b = xi(complex(0.75, -5.0), mp_cfg)
        with mp.workdps(50):
            gap = abs(mp.mpc(a.re, a.im) - mp.mpc(b.re, b.im))
        assert gap < a.abs_err + b.abs_err
        # 0.3/0.7 are not exact doubles; the pair agrees up to the input ulp
        c = xi(complex(0.3, 5.0), mp_cfg)
        d = xi(complex(0.7, -5.0), mp_cfg)
        with mp.workdps(50):
            gap = abs(mp.mpc(c.re, c.im) - mp.mpc(d.re, d.im))
        assert gap < 1e-10

    def test_real_on_critical_line(self, mp_cfg):
        for t in (3.0, 14.0, 40.0):
            v = xi(complex(0.5, t), mp_cfg)
            assert abs(float(v.im)) < v.abs_err

    def test_value_at_2(self, mp_cfg):
        assert _dist(xi(2.0, mp_cfg), mp.pi / 6) < 1e-12

    def test_entire_at_special_points(self, mp_cfg):
        # removable singularities: xi(0) = xi(1) = 1/2
        assert _dist(xi(0.0, mp_cfg), 0.5) < 1e-12
        assert _dist(xi(1.0, mp_cfg), 0.5) < 1e-12

    def test_bound_holds_beside_the_removable_singularities(self, mp_cfg):
        # the Stieltjes branch near s = 1, reached by reflection near s = 0
        for s in (1 + 9e-5, complex(1, 9e-5), complex(0.99994, 6e-5), 9e-5,
                  1e-6, 1 + 1e-6):
            v = xi(s, mp_cfg)
            with mp.workdps(80):
                sm = mp.mpc(s)
                ref = (sm - 1) * mp.zeta(sm) * mp.power(mp.pi, -sm / 2) \
                    * mp.gamma(sm / 2 + 1)
                assert abs(mp.mpc(v.re, v.im) - ref) <= v.abs_err, s


class TestPrincipalLogArg:
    def test_basics(self):
        _, a = principal_log_arg(1 + 1j)
        assert abs(a - math.pi / 4) < 1e-15
        _, a = principal_log_arg(-1.0 + 0j)
        assert a == math.pi

    def test_zero_raises(self):
        with pytest.raises(errors.ZeroArgument):
            principal_log_arg(0j)

    def test_edge_argument_tends_to_half_pi(self):
        gaps = []
        for T in (10.0, 100.0, 1000.0):
            _, a = principal_log_arg(complex(0.6 - 1.0, T))
            gaps.append(abs(a - math.pi / 2))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    @given(st.complex_numbers(min_magnitude=1e-30, max_magnitude=1e30,
                              allow_nan=False, allow_infinity=False))
    def test_principal_range(self, z):
        lg, a = principal_log_arg(z)
        assert -math.pi < a <= math.pi
        assert abs(lg - math.log(abs(z))) <= 1e-12 * max(1.0, abs(math.log(abs(z))))

    @given(st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                              allow_nan=False, allow_infinity=False))
    def test_conjugation_antisymmetry(self, z):
        # holds away from the negative real axis, where the branch folds
        if abs(z.imag) < 1e-12 * abs(z.real) and z.real < 0:
            return
        _, a = principal_log_arg(z)
        _, b = principal_log_arg(z.conjugate())
        assert abs(a + b) < 1e-12


class TestFunctionalEquation:
    def test_random_points(self, mp_cfg):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            s = complex(rng.uniform(-2.5, 3.5), rng.uniform(-25.0, 25.0))
            if min(abs(s), abs(s - 1)) < 0.3 or abs(s.imag) < 0.3:
                continue
            checked += 1
            with mp.workdps(mp_cfg.dps):
                sm = mp.mpc(s)
                za, zb = zeta(sm, mp_cfg), zeta(1 - sm, mp_cfg)
                lhs = mp.power(mp.pi, -sm / 2) * mp.gamma(sm / 2) * mp.mpc(za.re, za.im)
                rhs = mp.power(mp.pi, -(1 - sm) / 2) * mp.gamma((1 - sm) / 2) \
                    * mp.mpc(zb.re, zb.im)
                assert abs(lhs - rhs) < 1e-10
