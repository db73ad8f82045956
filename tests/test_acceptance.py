"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines. Criteria 1-9 are pass/fail; criterion 10 emits measured-only
quantities and checks reproducibility, never correctness of the contested
claims.
"""
import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

from zetacontour import special_functions
from zetacontour.contour import (
    Rectangle,
    decompose,
    digamma_integrand,
    digamma_term_integral,
    integrate_edge,
    integrate_rectangle,
    logpi_edge_integral,
    paper_total,
    pole_integrand,
    pole_term_integral,
    zero_sum_integrand,
    zero_sum_term_integral,
)
from zetacontour.precision import DEFAULT_CONFIG
from zetacontour.reporting import RunConfig, export_report, run_suite, suite_identities
from zetacontour.special_functions import xi, zeta, zeta_alternating
from zetacontour.telescope import (
    fixed_point_check,
    linearize_riccati,
    riccati_iterate,
    s_n_direct,
    telescope_sum,
)
from zetacontour.universality import SegmentK, scan
from zetacontour.zero_finder import count_zeros, find_zeros_up_to, mangoldt_estimate

ALPHA, BETA = 3.0 / 5.0, 4.0 / 5.0


def _line(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def _mpdist(v, ref):
    with mp.workdps(50):
        rv = mp.mpc(ref.re, ref.im) if hasattr(ref, "abs_err") else mp.mpc(ref)
        return float(abs(mp.mpc(v.re, v.im) - rv))


def test_criterion_1_zeta_values_and_oracle_grid():
    t0 = time.monotonic()
    cfg = DEFAULT_CONFIG
    d2 = _mpdist(zeta(2.0, cfg), mp.pi ** 2 / 6)
    d0 = _mpdist(zeta(0.0, cfg), mp.mpf("-0.5"))
    assert d2 <= 1e-12 and d0 <= 1e-12
    worst = 0.0
    for sigma in np.linspace(0.4, 0.9, 10):
        for t in np.linspace(0.0, 100.0, 10):
            s = complex(sigma, t)
            worst = max(worst, _mpdist(zeta(s, cfg), zeta_alternating(s, cfg)))
    assert worst <= 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _line(1, f"zeta(2) gap {d2:.1e}, zeta(0) gap {d0:.1e}, "
             f"grid worst {worst:.1e}, {elapsed:.1f}s")


def _criterion_2_points():
    """The identities suite's 100 seeded points, clear of s = 0, s = 1 and
    the Gamma poles on both sides of the reflection."""
    rng = np.random.default_rng(20260810)
    checked = 0
    while checked < 100:
        s = complex(rng.uniform(-3.0, 4.0), rng.uniform(-30.0, 30.0))
        if min(abs(s), abs(s - 1)) < 0.3:
            continue
        if abs(s.imag) < 0.3 and (
                abs(s.real - 2 * round(s.real / 2)) < 0.3
                or abs((1 - s.real) - 2 * round((1 - s.real) / 2)) < 0.3):
            continue
        checked += 1
        yield s


def _direct_fe_residual(s, cfg):
    """|pi^(-s/2) Gamma(s/2) zeta(s) - (the same at 1 - s)|, each side from
    zeta and the Gamma formula directly."""
    with mp.workdps(cfg.dps):
        sm = mp.mpc(s)
        za, zb = zeta(sm, cfg), zeta(1 - sm, cfg)
        lhs = mp.power(mp.pi, -sm / 2) * mp.gamma(sm / 2) * mp.mpc(za.re, za.im)
        rhs = mp.power(mp.pi, -(1 - sm) / 2) * mp.gamma((1 - sm) / 2) \
            * mp.mpc(zb.re, zb.im)
        return float(abs(lhs - rhs))


def test_criterion_2_functional_equation_and_xi():
    cfg = DEFAULT_CONFIG
    worst_fe = worst_xi = 0.0
    for s in _criterion_2_points():
        worst_fe = max(worst_fe, _direct_fe_residual(s, cfg))
        xa, xb = xi(s, cfg), xi(complex(1) - s, cfg)
        worst_xi = max(worst_xi, _mpdist(xa, xb))
    assert worst_fe <= 1e-10 and worst_xi <= 1e-10
    _line(2, f"functional-equation worst {worst_fe:.1e}, xi worst {worst_xi:.1e}")


def test_identities_suite_takes_both_records_from_one_xi_pair(monkeypatch):
    calls = []
    scalar = special_functions._zeta_scalar
    monkeypatch.setattr(special_functions, "_zeta_scalar",
                        lambda *a: calls.append(a[0]) or scalar(*a))
    fe, _ = suite_identities(RunConfig())
    monkeypatch.undo()
    # xi(s) and xi(1 - s) at each of the 100 points, one zeta each
    assert len(calls) == 200
    direct = max(_direct_fe_residual(s, DEFAULT_CONFIG)
                 for s in _criterion_2_points())
    assert abs(fe.measured - direct) <= 1e-9 * direct


def test_criterion_3_zero_ordinates_and_counts(table500):
    t0 = time.monotonic()
    table = find_zeros_up_to(30.0)
    refs = (14.134725, 21.022040, 25.010858)
    gaps = [abs(g - r) for g, r in zip(table.gammas, refs)]
    assert len(table.gammas) == 3 and max(gaps) <= 1e-6
    assert count_zeros(100.0, table500) == 29
    worst = 0.0
    for T in (30.0, 50.0, 100.0, 200.0, 500.0):
        worst = max(worst, abs(count_zeros(T, table500) - mangoldt_estimate(T)))
    assert worst <= 3.0
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _line(3, f"ordinate gaps {max(gaps):.1e}, N(100)=29, census-vs-estimate "
             f"worst {worst:.2f}, {elapsed:.1f}s")


def test_criterion_4_argument_principle(table120):
    results = []
    for rect, expect in [
        (Rectangle.box(0.9, 1.1, -1.0, 1.0), -1),
        (Rectangle.box(0.4, 0.6, 14.0, 14.3), 1),
        (Rectangle.paper_mode(0.6, 0.8, 30.0), 0),
        (Rectangle.paper_mode(0.6, 0.8, 50.0), 0),
    ]:
        t0 = time.monotonic()
        rep = integrate_rectangle(rect, table120, tol=1e-7)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        assert rep.winding == expect
        if expect == 0:
            assert abs(rep.winding_raw) <= 1e-3
        results.append(f"{expect}({abs(rep.winding_raw):.0e},{elapsed:.1f}s)")
    _line(4, "windings " + " ".join(results))


def test_criterion_5_decomposition_identity(big_table):
    residuals = []
    for T in (20.0, 50.0, 100.0):
        rep = decompose(Rectangle.paper_mode(ALPHA, BETA, T), big_table,
                        eps2=1.0 / (T * T))
        assert rep.residual <= 1e-4
        residuals.append(rep.residual)
    # per-term closed form vs quadrature at 1e-8
    rect = Rectangle.paper_mode(ALPHA, BETA, 50.0)
    c = rect.corners()

    def pair(f, sings):
        da = integrate_edge(f, c["d"], c["a"], tol=1e-10,
                            singularities=sings)
        bc = integrate_edge(f, c["b"], c["c"], tol=1e-10,
                            singularities=sings)
        return da.value + bc.value

    gaps = []
    gaps.append(abs(pole_term_integral(rect) - pair(pole_integrand, [1.0 + 0j])))
    logpi_quad = pair(lambda z: np.full(len(z), 0.5 * math.log(math.pi),
                                        dtype=complex), [])
    gaps.append(abs(logpi_edge_integral(rect, "da")
                    + logpi_edge_integral(rect, "bc") - logpi_quad))
    dig = digamma_term_integral(rect)
    gaps.append(abs(dig.value - (-0.5) * pair(digamma_integrand, [])))
    zs = zero_sum_term_integral(rect, big_table, N=5)
    zsings = [complex(0.5, sg * g) for g in big_table.gammas[:5] for sg in (1, -1)]
    gaps.append(abs(zs.value - pair(zero_sum_integrand(big_table, 5), zsings)))
    assert max(gaps) <= 1e-8
    _line(5, f"residuals {', '.join(f'{r:.1e}' for r in residuals)}; "
             f"closed-vs-quad worst {max(gaps):.1e}")


def test_criterion_6_digamma_trend():
    gaps = [digamma_term_integral(Rectangle.paper_mode(ALPHA, BETA, T)).limit_gap
            for T in (10.0, 100.0, 1000.0)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2
    _line(6, f"limit gaps {gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}")


def test_criterion_7_telescoping():
    res = telescope_sum(lambda k: float(k), 10)
    closed = math.atan(11.0) - math.pi / 4.0
    direct = math.fsum(math.atan(1.0 / (1 + k + k * k)) for k in range(1, 11))
    gap1 = max(abs(res.value - closed), abs(direct - closed))
    assert gap1 <= 1e-12
    rng = np.random.default_rng(20260810)
    worst = 0.0
    done = 0
    while done < 200:
        n = int(rng.integers(2, 24))
        seq = rng.uniform(-5.0, 5.0, size=n + 1)
        if np.min(np.abs(1.0 + seq[1:] * seq[:-1])) < 1e-3:
            continue
        done += 1
        t = telescope_sum(lambda k: float(seq[k - 1]), n)
        d = math.fsum(math.atan((seq[k] - seq[k - 1])
                                / (1.0 + seq[k] * seq[k - 1]))
                      for k in range(1, n + 1))
        worst = max(worst, abs(t.value - d))
    assert worst <= 1e-10
    wrap = telescope_sum(lambda k: (2.0, -2.0)[k - 1], 1)
    gap3 = abs(wrap.value - math.atan(4.0 / 3.0))
    assert gap3 <= 1e-12 and wrap.wrap_count == 1
    _line(7, f"closed-form gap {gap1:.1e}, 200 random worst {worst:.1e}, "
             f"wrap case gap {gap3:.1e}")


def test_criterion_8_cross_module_identity(table120):
    rect = Rectangle.paper_mode(ALPHA, BETA, 100.0)
    c = rect.corners()
    gaps = []
    for N in (1, 5, 29):
        sn = s_n_direct(rect, table120, N)
        sings = [complex(0.5, sg * g) for g in table120.gammas[:N] for sg in (1, -1)]
        f = zero_sum_integrand(table120, N)
        da = integrate_edge(f, c["d"], c["a"], tol=1e-11,
                            singularities=sings)
        bc = integrate_edge(f, c["b"], c["c"], tol=1e-11,
                            singularities=sings)
        gaps.append(abs((da.value + bc.value) - 2j * sn.value))
    assert max(gaps) <= 1e-9
    _line(8, f"2i S_N vs quadrature gaps {', '.join(f'{g:.1e}' for g in gaps)}")


def test_criterion_9_riccati_suite(table500):
    rect = Rectangle.paper_mode(ALPHA, BETA, 100.0)
    n = min(len(table500.gammas), 240)
    worst = 0.0
    for kind in ("f", "g"):
        tr = riccati_iterate(kind, n, rect, table500)
        worst = max(worst, max(tr.step_residuals))
    assert worst <= 1e-10
    fp = fixed_point_check(5.0, 1.0)
    assert not fp.has_real_fixed_point
    tr = riccati_iterate("f", n, rect, table500)
    lin = linearize_riccati(tr, C=2.0)
    dec_p, dec_r = lin.gaps_decreasing()
    assert dec_p and dec_r
    root_gap = max(abs(r - 2.0) for r in lin.char_roots)
    assert root_gap <= 1e-9
    _line(9, f"step-identity worst {worst:.1e}, no real fixed point, "
             f"gaps decreasing, double-root gap {root_gap:.1e}")


def test_criterion_10_measured_only_reproducibility(big_table, tmp_path):
    rect = Rectangle.paper_mode(ALPHA, BETA, 100.0)
    sn = s_n_direct(rect, big_table, 29)
    rep = integrate_rectangle(rect, big_table, tol=1e-6)
    asserted = paper_total(rect, V=-math.pi, Q=0)
    K = SegmentK(0.6, 0.8, 0.0, 33)
    summary = scan(0.0, 500.0, 0.05, K, 0.0, -math.pi, 0.5, big_table)
    # emitted deterministically: a second full pass must agree bit for bit
    sn2 = s_n_direct(rect, big_table, 29)
    rep2 = integrate_rectangle(rect, big_table, tol=1e-6)
    summary2 = scan(0.0, 500.0, 0.05, K, 0.0, -math.pi, 0.5, big_table)
    assert sn == sn2
    assert rep.winding_raw == rep2.winding_raw
    assert summary == summary2
    payload = {
        "pi_residual_S29": sn.pi_residual,
        "asserted_total": asserted,
        "measured_winding": rep.winding,
        "gap": abs(asserted - rep.winding),
        "scan_min_sup_distance": summary.best.sup_distance,
        "scan_min_tau": summary.best.tau,
    }
    a = json.dumps(payload, indent=2)
    b = json.dumps({
        "pi_residual_S29": sn2.pi_residual,
        "asserted_total": asserted,
        "measured_winding": rep2.winding,
        "gap": abs(asserted - rep2.winding),
        "scan_min_sup_distance": summary2.best.sup_distance,
        "scan_min_tau": summary2.best.tau,
    }, indent=2)
    assert a.encode() == b.encode()
    (tmp_path / "measured.json").write_text(a + "\n")
    _line(10, f"measured-only: pi-residual {sn.pi_residual:+.6f}, "
              f"asserted total {asserted} vs winding {rep.winding} "
              f"(gap {abs(asserted - rep.winding)}), scan min "
              f"{summary.best.sup_distance:.4f} at tau={summary.best.tau}; "
              f"two runs byte-identical")


def test_reporting_suites_mirror_criteria(big_table, tmp_path):
    # the CLI-facing suites wrap the same checks; spot-run two of them
    import zetacontour.reporting as reporting
    path = tmp_path / "table.zctab"
    from zetacontour.zero_finder import save_table
    save_table(big_table, path)
    cfg = RunConfig(zero_table_path=str(path))
    for name in ("decomposition", "paper-claims"):
        rep = run_suite(name, cfg)
        assert rep.ok
        export_report(rep, "json", tmp_path / f"{name}.json")
