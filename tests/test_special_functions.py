import math
import operator
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    EulerMascheroni,
    digamma_asymptotic,
    digamma_asymptotic_remainder,
    digamma_weierstrass,
    em_closed_form,
    em_least_N,
)
from zetacontour import errors, special_functions
from zetacontour.precision import (
    DEFAULT_CONFIG,
    FAST_CONFIG,
    ComplexValue,
    F64_MIN_TOL,
    PrecisionConfig,
)
from zetacontour.special_functions import (
    _MP_TERM_COST,
    F64_EM_TERMS,
    MP_EM_TERMS,
    _dirichlet_terms,
    _build_sieve,
    _em_fixed,
    _em_f64_plan,
    _em_mp_plan,
    _em_tail,
    _f64_errors,
    _kernel_bits,
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

    def test_bounds_hold_beside_the_pole(self, mp_cfg):
        # |zeta| ~ 1/|s - 1| and |zeta'| ~ 1/|s - 1|^2: the rounding
        # allowance must grow with them
        rng = np.random.default_rng(1101)
        r = 10.0 ** rng.uniform(-6.0, -2.0, 60)
        angle = rng.uniform(0.0, 2.0 * math.pi, 60)
        for s in 1.0 + r * np.exp(1j * angle):
            s = complex(s)
            with mp.workdps(80):
                ref = mp.zeta(mp.mpc(s))
                dref = mp.zeta(mp.mpc(s), derivative=1)
            for v, want in ((zeta(s, mp_cfg), ref), (zeta_prime(s, mp_cfg), dref)):
                with mp.workdps(80):
                    assert abs(mp.mpc(v.re, v.im) - want) <= v.abs_err, s

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

    @pytest.mark.parametrize("s", [complex(math.nan, 5.0), complex(math.inf, 1.0),
                                   complex(0.5, math.nan)])
    def test_non_finite_points_raise(self, s, fast_cfg, mp_cfg):
        with pytest.raises(errors.DomainError):
            zeta_batch(np.array([0.6 + 30j, s]), fast_cfg)
        with pytest.raises(errors.DomainError):
            log_deriv_batch(np.array([s]), fast_cfg)
        for cfg in (fast_cfg, mp_cfg):
            for f in (zeta, log_deriv_zeta, digamma, zeta_alternating):
                with pytest.raises(errors.DomainError):
                    f(s, cfg)

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
        # the mirrored lattice, t in [-20, -2], rides in the same batch; its
        # references are the conjugates of the lattice's, since zeta and
        # zeta' are real on the real axis
        S = np.concatenate([self.S, self.S.conj()])
        vals, dvals, errs, derrs = zeta_batch(S, fast_cfg, want_prime=True)
        ld, lerr = log_deriv_batch(S, fast_cfg)
        with mp.workdps(30):
            refs = [(mp.zeta(mp.mpc(s)), mp.zeta(mp.mpc(s), derivative=1)) for s in self.S]
            refs += [(mp.conj(z), mp.conj(dz)) for z, dz in refs]
            for k, (z, dz) in enumerate(refs):
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


class TestMergedGroups:
    """N quanta with few points share one ``_em_f64_group`` call, each point
    keeping its own N; a quantum of many points keeps a call of its own."""

    @staticmethod
    def _count_groups(monkeypatch):
        calls = []
        group = special_functions._em_f64_group
        monkeypatch.setattr(special_functions, "_em_f64_group",
                            lambda u, N, *a: calls.append(N) or group(u, N, *a))
        return calls

    def test_scattered_heights_share_calls(self, fast_cfg, monkeypatch):
        # the shape of a zero finder's refinement round: about 80 N quanta of
        # a few points each
        rng = np.random.default_rng(21)
        s = 0.5 + 1j * rng.uniform(200.0, 2600.0, 600)
        calls = self._count_groups(monkeypatch)
        vals, dvals, errs, derrs = zeta_batch(s, fast_cfg, want_prime=True)
        quanta = len(np.unique(np.concatenate(calls)))
        assert quanta > 60
        assert len(calls) <= math.ceil(len(s) / special_functions._MERGE_BELOW) + 1
        assert any(len(np.unique(N)) > 1 for N in calls)
        for k in rng.choice(len(s), 12, replace=False):
            v1, dv1, e1, de1 = zeta_batch(s[k:k + 1], fast_cfg, want_prime=True)
            assert (errs[k], derrs[k]) == (e1[0], de1[0])
            assert abs(vals[k] - v1[0]) <= errs[k] + e1[0]
            assert abs(dvals[k] - dv1[0]) <= derrs[k] + de1[0]

    def test_merged_points_keep_their_terms(self, monkeypatch):
        # a point cut at its own N inside a merged group sums what it sums
        # alone, on either contraction, to within the rounding allowance;
        # one term too many or too few would be off by about N^-sigma
        s = np.array([0.5 + 300j, 0.5 + 900j, 0.5 + 2400j, 0.7 + 900j, 0.5 + 2410j])
        N = np.array([176, 512, 1328, 496, 1344])
        group = special_functions._em_f64_group
        einsum_points = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda spec, cols, amp: (
            einsum_points.append(len(cols)) or einsum(spec, cols, amp)))
        # one N per height: the grid contraction; then height 900 at two N:
        # point by point
        for pts, Ns, by_point in ((s[:3], N[:3], 0), (s, N, len(s))):
            v, dv = group(pts, Ns, True)
            assert sum(einsum_points) == by_point
            ro, dro = _f64_errors(pts, Ns, True, 0.0)
            for k in range(len(pts)):
                v1, dv1 = group(pts[k:k + 1], Ns[k:k + 1], True)
                assert abs(v[k] - v1[0]) <= 2 * ro[k]
                assert abs(dv[k] - dv1[0]) <= 2 * dro[k]

    def test_scan_lattice_keeps_one_call_per_quantum(self, fast_cfg, monkeypatch):
        # 2048 shifts x 33 abscissae, the batch universality.scan sends
        sig = np.linspace(0.6, 0.8, 33)
        s = (sig[None, :] + 1j * (300.0 + 0.05 * np.arange(2048))[:, None]).ravel()
        calls = self._count_groups(monkeypatch)
        einsum_calls = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum",
                            lambda *a, **kw: einsum_calls.append(1) or einsum(*a, **kw))
        log_deriv_batch(s, fast_cfg)
        assert all(len(np.unique(N)) == 1 for N in calls)
        assert len(calls) == len(np.unique(np.concatenate(calls))) > 1
        assert not einsum_calls


class TestSigmaOne:
    """On the line sigma = 1 the rounding allowance takes its ln N limit."""

    def test_no_warning_and_bounds_hold(self, fast_cfg):
        s = np.array([1.0 + 5.0j, 1.0 - 20.0j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, dvals, errs, derrs = zeta_batch(s, fast_cfg, want_prime=True)
            ld, lerr = log_deriv_batch(s, fast_cfg)
        with mp.workdps(30):
            for k, z in enumerate(s):
                zt, dzt = mp.zeta(mp.mpc(z)), mp.zeta(mp.mpc(z), derivative=1)
                assert abs(mp.mpc(vals[k]) - zt) <= errs[k]
                assert abs(mp.mpc(dvals[k]) - dzt) <= derrs[k]
                assert abs(mp.mpc(ld[k]) - dzt / zt) <= lerr[k]


def _gl_edge(sigma, T, panels):
    """Gauss-Legendre nodes (16 per panel) of the vertical edge from
    sigma - iT to sigma + iT, mirrored exactly about the real axis."""
    x, _ = np.polynomial.legendre.leggauss(16)
    half = T / (2 * panels)
    mids = half * (2 * np.arange(panels) + 1)
    t = (mids[:, None] + half * x[None, :]).ravel()
    return sigma + 1j * np.concatenate([-t[::-1], t])


class TestConjugateFold:
    """zeta_batch evaluates each distinct (sigma, |t|) once and returns the
    conjugate for Im s < 0."""

    @staticmethod
    def batch():
        rng = np.random.default_rng(14)
        # one abscissa, one N, enough points for a group of its own: a grid
        # contraction
        edge = _gl_edge(0.6, 10.0, 40)
        # scattered points at greater heights, two other N merged into one
        # group: contracted point by point
        scattered = rng.uniform(0.55, 0.9, 40) + 1j * rng.uniform(200.0, 230.0, 40)
        scattered[::2] = scattered[::2].conj()
        s = np.concatenate([edge, scattered, edge[:5], scattered[:3].conj(),
                            [complex(0.6, 0.0), complex(0.6, -0.0), complex(0.6, 3.0)]])
        return s[rng.permutation(len(s))]

    def test_input_order_and_exact_conjugates(self, fast_cfg, monkeypatch):
        s = self.batch()
        einsum_points = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda spec, cols, amp: (
            einsum_points.append(len(cols)) or einsum(spec, cols, amp)))
        vals, dvals, errs, derrs = zeta_batch(s, fast_cfg, want_prime=True)
        distinct = len({(z.real, abs(z.imag)) for z in s})
        # both contractions ran: some points went point by point, not all
        assert 0 < sum(einsum_points) < distinct
        for k, z in enumerate(s):
            # a batch of one is a grid of one cell: same bounds, values within them
            v1, dv1, e1, de1 = zeta_batch(np.array([z]), fast_cfg, want_prime=True)
            assert (errs[k], derrs[k]) == (e1[0], de1[0])
            assert abs(vals[k] - v1[0]) <= errs[k] + e1[0]
            assert abs(dvals[k] - dv1[0]) <= derrs[k] + de1[0]
        # every pair (j, k), at once
        same = s[:, None] == s[None, :]
        j, k = np.nonzero(same)
        assert np.all(vals[j] == vals[k]) and np.all(dvals[j] == dvals[k])
        assert np.all(errs[j] == errs[k])
        j, k = np.nonzero(~same & (s[:, None] == s.conj()[None, :]))
        assert np.all(vals[j] == vals[k].conj()) and np.all(dvals[j] == dvals[k].conj())
        assert np.all(errs[j] == errs[k]) and np.all(derrs[j] == derrs[k])

    def test_each_distinct_height_is_evaluated_once(self, fast_cfg, monkeypatch):
        s = self.batch()
        seen = []
        group = special_functions._em_f64_group
        monkeypatch.setattr(special_functions, "_em_f64_group",
                            lambda u, *a: seen.extend(u) or group(u, *a))
        zeta_batch(s, fast_cfg, want_prime=True)
        assert len(seen) == len({(z.real, abs(z.imag)) for z in s})
        assert min(z.imag for z in seen) == 0.0


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
                    wp = _kernel_bits(sm, 300)
                    re, im, fixed_logs = _dirichlet_terms(sm, 300, wp)
                with mp.workdps(dps + 20):
                    terms = [mp.mpc(mp.ldexp(a, -wp), mp.ldexp(b, -wp))
                             for a, b in zip(re, im)]
                    logs = [mp.ldexp(L, -wp) for L in fixed_logs]
                    for n in range(1, 300):
                        ref = mp.power(n, -sm)
                        rel = abs(terms[n] - ref) / abs(ref)
                        assert rel <= (1 + math.log2(n)) * 10.0 ** -dps, (s, n)
                        assert abs(logs[n] - mp.log(n)) <= (1 + math.log2(n)) \
                            * 10.0 ** -dps * mp.log(n)


class TestMpEnginePlan:
    """N is planned against the bound the tolerance is checked against."""

    def test_zeta_prime_plans_for_its_lever(self):
        # zeta' multiplies the remainder by ln N + 2M + 2 + 1/|s| (about 40)
        s = complex(3.914, 97.25)
        v = zeta_prime(s, PrecisionConfig(40, 1e-30))
        assert v.abs_err <= 1e-30
        with mp.workdps(60):
            assert abs(mp.mpc(v.re, v.im) - mp.zeta(mp.mpc(s), derivative=1)) <= v.abs_err

    def test_reflected_zeta_plans_for_chi(self):
        # Re s <= -1: the bound at 1 - s is multiplied by |chi(s)| (about 3e3)
        s = complex(-2.96, 66.12)
        v = zeta(s, PrecisionConfig(40, 1e-30))
        assert v.abs_err <= 1e-30
        with mp.workdps(60):
            assert abs(mp.mpc(v.re, v.im) - mp.zeta(mp.mpc(s))) <= v.abs_err

    def test_refuses_an_M_far_past_its_floor(self):
        # at 1e-300 every M's least N is more than 1.3^40 times its floor
        with pytest.raises(errors.PrecisionExhausted):
            zeta(complex(0.5, 10.0), PrecisionConfig(400, 1e-300))

    @staticmethod
    def _plans(cfg, seed):
        """(sigma, t, prime, (N, M, ln trunc)) of the mpmath engine's plan at
        40 seeded points, sigma in [-0.9, 4], t in [0, 100], for zeta and for
        zeta' (with its lever)."""
        rng = np.random.default_rng(seed)
        for _ in range(40):
            sigma, t = rng.uniform(-0.9, 4.0), rng.uniform(0.0, 100.0)
            yield sigma, t, False, _em_mp_plan(sigma, t, cfg.target_abs_tol)
            yield sigma, t, True, _em_mp_plan(sigma, t, cfg.target_abs_tol,
                                              math.hypot(sigma, t))

    @staticmethod
    def _majorant(M):
        """The plan's stand-in for |B_{2M+2}|/(2M+2)! = 2 zeta(2M+2)/(2 pi)^(2M+2):
        2 zeta(2M+2) <= 2 zeta(4) < 2.17 for M >= 1, rounded up to 2.2. The
        exact value would give a smaller least N at about half the points."""
        return 2.2 / (2 * math.pi) ** (2 * M + 2)

    @pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, PrecisionConfig(40, 1e-30)])
    def test_plan_is_the_cheapest_candidate(self, cfg):
        # the chosen N is the least for its M, stepped one at a time, and no
        # other M's least N costs less (or as much, with a larger M); the
        # sample holds points where the zeta' lever lifts N above the least
        # N for zeta alone, so that N was stepped past its floor
        tol = cfg.target_abs_tol
        stepped = 0
        for sigma, t, prime, (N, M, _) in self._plans(cfg, 1313):
            assert N == em_least_N(sigma, t, M, tol, prime, self._majorant(M)), \
                (sigma, t, prime, M)
            stepped += prime and N > em_least_N(sigma, t, M, tol, False, self._majorant(M))
            c = _MP_TERM_COST * (2 if prime else 1)
            for Mc in range(4, MP_EM_TERMS + 1, 2):
                if Mc != M:
                    stop = N + c * (M - Mc) - (Mc < M)
                    assert em_least_N(sigma, t, Mc, tol, prime, self._majorant(Mc),
                                      stop) is None, (sigma, t, prime, Mc)
        assert stepped

    def test_plan_takes_the_least_N(self):
        # N - 1 misses the bound unless N is the floor: for zeta' at
        # -0.2 + 47.5i with M = 12, four past its floor 48 (one step with the
        # lever taken at the floor gives 51), and at scattered double-engine
        # points at its tightest tolerance
        s = complex(-0.2, 47.5)
        N, M, _ = _em_mp_plan(s.real, s.imag, 1e-18, abs(s))
        assert (N, M) == (52, 12)
        assert N == em_least_N(s.real, s.imag, M, 1e-18, True, self._majorant(M))
        rng = np.random.default_rng(1515)
        s = rng.uniform(-1.0, 3.0, 40) + 1j * 10.0 ** rng.uniform(0.0, 3.5, 40)
        M = F64_EM_TERMS
        N, _ = _em_f64_plan(s.real, s.imag, F64_MIN_TOL)
        for k in range(len(s)):
            assert N[k] == em_least_N(s[k].real, s[k].imag, M, F64_MIN_TOL, False,
                                      self._majorant(M)), s[k]

    def test_double_engine_plan_stays_near_its_floor(self):
        # over the double engine's domain (Re s >= -1, |t| <= 2.5e4) at its
        # tightest tolerance, N is at most twice its floor: the batch needs
        # no refusal
        M = F64_EM_TERMS
        sigma, t = (g.ravel() for g in np.meshgrid(
            np.linspace(-1.0, 6.0, 57), np.concatenate([[0.0], np.geomspace(1e-3, 2.5e4, 200)])))
        N, _ = _em_f64_plan(sigma, t, F64_MIN_TOL)
        floor = np.maximum(np.ceil(0.55 * (t + 2 * M)) + 8, 14)
        assert np.all(np.isfinite(N)) and np.all(N <= 2 * floor)

    @pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, PrecisionConfig(40, 1e-30)])
    def test_plan_meets_a_quarter_of_tol(self, cfg):
        # the classical remainder bound at the chosen (N, M), with the exact
        # Bernoulli number, lies within the reported trunc, and times the
        # zeta' lever where zeta' is planned within tol/4
        tol = cfg.target_abs_tol
        for sigma, t, prime, (N, M, log_trunc) in self._plans(cfg, 1414):
            with mp.workdps(30):
                s = mp.mpc(sigma, t)
                bound = abs(mp.bernoulli(2 * M + 2) / mp.factorial(2 * M + 2)
                            * mp.rf(s, 2 * M + 1) * mp.power(N, -s - 2 * M - 1)) \
                    * abs(s + 2 * M + 1) / (sigma + 2 * M + 1)
                assert bound <= math.exp(log_trunc), (sigma, t, prime, N, M)
                if prime:
                    bound *= math.log(N) + 2 * M + 2 + 1 / max(abs(s), 0.1)
                assert bound <= tol / 4, (sigma, t, prime, N, M)

    def test_default_plan_takes_fewer_terms_below_height_76(self):
        # near t = 76 the floor N >= 0.55 (t + 2M) + 8 can make M = 16 the
        # cheapest for zeta': at -0.9 + 76.5i it costs N + 1.3 M = 88.8 with
        # M = 16 at its floor N = 68, 89.2 with M = 14 at N = 71, three past
        # its floor, and 109.6 with M = 12 at N = 94; at -0.9 + 75i M = 14
        # still wins, 87.2 against 87.8 (least N from ``em_least_N``)
        for sigma, t, prime, (N, M, _) in self._plans(DEFAULT_CONFIG, 1515):
            if t <= 76.0:
                assert M < MP_EM_TERMS, (sigma, t, prime, N)


def _fixed_tail_errors(s, dps, tol):
    """(error, allowance) of the closed-form tail of ``_em_fixed`` at s, for
    zeta and for zeta', at dps digits and the zeta' plan for tol: the tail
    (the fixed-point sums less the direct sums over n < N) against
    ``em_closed_form`` at twice the digits, and the allowance that ``_em_mp``
    derives, T = (1 + log2 N) 2^-prec N^(1-sigma) (1 + 1/|s-1|) for zeta and
    T (ln N + 1/|s-1|) for zeta'."""
    N, M, _ = _em_mp_plan(s.real, abs(s.imag), tol, abs(s))
    with mp.workdps(dps):
        sm = mp.mpc(s)
        wp, acc, dacc = _em_fixed(sm, N, M, True)
        re, im, logs = _dirichlet_terms(sm, N, wp)
        unit = 2.0 ** -mp.mp.prec
    with mp.workdps(2 * dps):
        scale = mp.ldexp(1, -2 * wp)
        tail = mp.mpc(acc[0] - (sum(re) << wp), acc[1] - (sum(im) << wp)) * scale
        dtail = mp.mpc(dacc[0] + sum(map(operator.mul, logs, re)),
                       dacc[1] + sum(map(operator.mul, logs, im))) * scale
        ref, dref = em_closed_form(s, N, M, 2 * dps)
        err, derr = float(abs(tail - ref)), float(abs(dtail - dref))
    inv = 1.0 / abs(s - 1.0)
    T = (1.0 + math.log2(N)) * unit * N ** (1.0 - s.real) * (1.0 + inv)
    return (err, T), (derr, T * (math.log(N) + inv))


class TestEmTail:
    """The nested closed-form part of Euler-Maclaurin against the same terms
    summed one by one at twice the digits: the mpmath engine's fixed-point
    tail (``_em_fixed``) and the double engine's ``_em_tail``."""

    @pytest.mark.parametrize("dps", [40, 60])
    def test_mpmath_engine(self, dps):
        rng = np.random.default_rng(dps)
        for _ in range(12):
            s = complex(rng.uniform(-0.9, 4.0), rng.uniform(-120.0, 120.0))
            for err, allowed in _fixed_tail_errors(s, dps, 10.0 ** -(dps - 12)):
                assert err <= allowed, (s, err, allowed)

    @pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, PrecisionConfig(40, 1e-30),
                                     PrecisionConfig(60, 1e-48)], ids=["30", "40", "60"])
    def test_mpmath_engine_edges(self, cfg):
        # sigma just above -1, |s - 1| just above EXCLUSION_RADIUS, sigma = 4
        # at |t| = 120, and t = 0
        edges = (complex(-1.0 + 2.0 ** -20, 3.0), complex(-1.0 + 2.0 ** -20, 0.0),
                 complex(1.0 + 1.5e-6, 0.0), complex(1.0, 1.1e-6), complex(1.0 - 1.2e-6, 0.0),
                 complex(4.0, 120.0), complex(4.0, -120.0),
                 complex(0.5, 0.0), complex(2.5, 0.0), complex(-0.5, 0.0))
        for s in edges:
            for err, allowed in _fixed_tail_errors(s, cfg.dps, cfg.target_abs_tol):
                assert err <= allowed, (s, err, allowed)

    @pytest.mark.parametrize("want_prime", [False, True])
    def test_double_engine(self, want_prime):
        # the oracle reads the same rounded N^-s and ln N, so only the
        # tail's own arithmetic is measured against its rounding allowance
        rng = np.random.default_rng(17)
        s = rng.uniform(-1.0, 3.0, 40) + 1j * rng.uniform(-3000.0, 3000.0, 40)
        N = _em_f64_plan(s.real, np.abs(s.imag), 1e-11)[0].astype(np.int64)
        ro, dro = _f64_errors(s, N, want_prime, 0.0)
        # the whole batch, each point at its own N, as the point alone
        v_all, dv_all = _em_tail(s, N, 0.0, 0.0 if want_prime else None)
        for k in range(len(s)):
            sk, Nk = s[k:k + 1], int(N[k])
            v, dv = _em_tail(sk, N[k:k + 1], 0.0, 0.0 if want_prime else None)
            assert v_all[k] == v[0] and (not want_prime or dv_all[k] == dv[0])
            # the N^-s and ln N that _em_tail forms
            lnN = math.log(Nk)
            NmS = np.exp(-sk * lnN)
            ref, dref = em_closed_form(s[k], Nk, F64_EM_TERMS, 30, NmS=complex(NmS[0]),
                                       lnN=lnN)
            assert abs(mp.mpc(v[0]) - ref) <= ro[k], (s[k], Nk)
            if want_prime:
                assert abs(mp.mpc(dv[0]) - dref) <= dro[k], (s[k], Nk)
            else:
                assert dv is None


class TestMpEngineProperty:
    """Seeded strict check of the mpmath engine against mp.zeta at 20 digits
    more than it works at. The tolerance leaves it 12 of its digits, as the
    default config (30 digits, 1e-18) does, except in the 25-digit case,
    which leaves 9: the config a double-config scalar call is promoted to
    (``_scalar_cfg``)."""

    @pytest.mark.parametrize("cfg", [
        pytest.param(PrecisionConfig(20, 1e-8), id="20"),
        pytest.param(PrecisionConfig(25, 1e-16), id="25"),
        pytest.param(PrecisionConfig(30, 1e-18), id="30"),
        pytest.param(PrecisionConfig(60, 1e-48), id="60"),
    ])
    def test_bounds_hold(self, cfg):
        digits = cfg.working_digits
        rng = np.random.default_rng(808)
        checked = 0
        while checked < 40:
            s = complex(rng.uniform(-3.0, 4.0), rng.uniform(-120.0, 120.0))
            if abs(s - 1) < 0.05:
                continue
            checked += 1
            with mp.workdps(digits + 20):
                sm = mp.mpc(s)
                ref = mp.zeta(sm)
                dref = mp.zeta(sm, derivative=1)
                v, dv = zeta(s, cfg), zeta_prime(s, cfg)
                assert abs(mp.mpc(v.re, v.im) - ref) <= v.abs_err, s
                assert abs(mp.mpc(dv.re, dv.im) - dref) <= dv.abs_err, s
                if s.real > 0.05 and abs(1 - mp.power(2, 1 - sm)) >= 1e-3:
                    a = zeta_alternating(s, cfg)
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
        # two beside poles, whose bound the double engine cannot hold to its
        # tolerance (2e-10 against 1e-11 at -3 + 1e-5), so it refuses them
        rng = np.random.default_rng(2026)
        points = [-20.3, complex(-30.6, 1.0), -100.5]
        beside_poles = [complex(-3 + 1e-5, 1e-6), -1e-5]
        if cfg.uses_f64:
            for s in beside_poles:
                with pytest.raises(errors.PrecisionExhausted):
                    digamma(s, cfg)
        else:
            points += beside_poles
        while len(points) < 200:
            s = complex(rng.uniform(-60.0, 60.0), rng.uniform(-40.0, 40.0))
            if abs(s - min(round(s.real), 0)) >= 0.01:
                points.append(s)
        for s in points:
            v = digamma(s, cfg)
            assert v.abs_err <= cfg.target_abs_tol, s
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
