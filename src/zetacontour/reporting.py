"""Verification suites, machine-readable reports, and reproducible run configs.

Each suite maps to one acceptance criterion of the toolkit. Checks are either
pass/fail (identity, oracle, and property checks with explicit bounds) or
measured-only: quantities tied to contested claims (the pi-residual of S_N,
the gap between the asserted rectangle total and the measured winding, the
universality scan minimum) are emitted as data and never carry pass/fail.

Reports are deterministic: same RunConfig plus same zero table produce
byte-identical exports (no timestamps).
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import mpmath as mp

from . import __version__
from .contour import (
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
from .errors import DomainError, UnknownSuite
from .precision import DEFAULT_CONFIG, PrecisionConfig, as_mpc
from .special_functions import xi, zeta, zeta_alternating
from .telescope import (
    fixed_point_check,
    linearize_riccati,
    riccati_iterate,
    s_n_direct,
    telescope_sum,
)
from .universality import SegmentK, scan
from .zero_finder import (
    COUNT_SLACK,
    ZeroTable,
    count_zeros,
    find_zeros_up_to,
    load_table,
    mangoldt_estimate,
    save_table,
)

RNG_SEED = 20260810  # all randomized checks are seeded for reproducibility


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a run bit-for-bit.

    ``precision`` is the mpmath engine's config for the scalar checks.
    ``from_json_dict`` ignores keys it does not know, such as the ``threads``,
    ``params``, ``euler_maclaurin_terms`` and ``cutoff_N`` of older configs.
    """

    precision: PrecisionConfig = DEFAULT_CONFIG
    zero_table_path: Optional[str] = None

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunConfig":
        p = d.get("precision", {})
        return cls(
            precision=PrecisionConfig(
                working_digits=p.get("working_digits", 30),
                target_abs_tol=p.get("target_abs_tol", 1e-18)),
            zero_table_path=d.get("zero_table_path"))

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_json_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class CheckRecord:
    name: str
    kind: str                     # "pass_fail" or "measured"
    measured: float
    bound: Optional[float] = None
    passed: Optional[bool] = None
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    toolkit_version: str
    config_hash: str
    checks: Tuple[CheckRecord, ...]

    @property
    def failed(self) -> Tuple[CheckRecord, ...]:
        return tuple(c for c in self.checks if c.kind == "pass_fail" and not c.passed)

    @property
    def ok(self) -> bool:
        return not self.failed

    def to_json_dict(self) -> dict:
        return asdict(self)


def export_report(report: VerificationReport, fmt: str, path) -> Path:
    """Write the report as json or csv with stable field ordering."""
    path = Path(path)
    if fmt == "json":
        path.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["name", "kind", "measured", "bound", "passed", "note"])
        for c in report.checks:
            w.writerow([c.name, c.kind, repr(c.measured),
                        "" if c.bound is None else repr(c.bound),
                        "" if c.passed is None else c.passed, c.note])
        path.write_text(buf.getvalue())
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return path


def load_report_json(path) -> VerificationReport:
    d = json.loads(Path(path).read_text())
    return VerificationReport(
        suite=d["suite"], toolkit_version=d["toolkit_version"],
        config_hash=d["config_hash"],
        checks=tuple(CheckRecord(name=c["name"], kind=c["kind"],
                                 measured=c["measured"], bound=c["bound"],
                                 passed=c["passed"], note=c.get("note", ""))
                     for c in d["checks"]))


# ---------------------------------------------------------------------------
# zero-table resolution
# ---------------------------------------------------------------------------

def ensure_table(path, min_height: float) -> ZeroTable:
    """The zero table covering ``min_height``: the one at ``path`` when that
    file exists and is tall enough, otherwise a table built to
    max(min_height, 10) and, when ``path`` is given, saved there."""
    if path and Path(path).exists():
        table = load_table(path)
        if table.max_height >= min_height:
            return table
    table = find_zeros_up_to(max(min_height, 10.0))
    if path:
        save_table(table, path)
    return table


# ---------------------------------------------------------------------------
# suite bodies (one per acceptance criterion)
# ---------------------------------------------------------------------------

def _pf(name, measured, bound, note="") -> CheckRecord:
    return CheckRecord(name=name, kind="pass_fail", measured=float(measured),
                       bound=float(bound), passed=bool(measured <= bound),
                       note=note)


def _measured(name, value, note="") -> CheckRecord:
    return CheckRecord(name=name, kind="measured", measured=float(value),
                       bound=None, passed=None, note=note)


def _mp_distance(a, b) -> float:
    """|a - b| at elevated precision; a, b are ComplexValue or mp scalars."""
    with mp.workdps(50):
        return float(abs(as_mpc(a) - as_mpc(b)))


def suite_zeta_oracles(cfg: RunConfig, table=None) -> List[CheckRecord]:
    p = cfg.precision
    with mp.workdps(p.dps):
        checks = [
            _pf("zeta(2) vs pi^2/6", _mp_distance(zeta(2.0, p), mp.pi ** 2 / 6), 1e-12),
            _pf("zeta(0) vs -1/2", _mp_distance(zeta(0.0, p), mp.mpf(-0.5)), 1e-12),
        ]
        worst = 0.0
        for sigma in np.linspace(0.4, 0.9, 10):
            for t in np.linspace(0.0, 100.0, 10):
                s = complex(sigma, t)
                d = _mp_distance(zeta(s, p), zeta_alternating(s, p))
                worst = max(worst, d)
    checks.append(_pf("Euler-Maclaurin vs eta oracle on 100-point strip grid",
                      worst, 1e-12))
    return checks


def suite_identities(cfg: RunConfig, table=None) -> List[CheckRecord]:
    """The functional equation and xi(s) = xi(1-s) at 100 seeded points.

    Both records come from one xi pair per point, xi(s) and xi(1-s), with
    1 - s formed exactly at working precision. The functional-equation
    residual is |xi(s) - xi(1-s)| / |s(s-1)/2| at working precision, which
    is |Lambda(s) - Lambda(1-s)| for Lambda(s) = pi^(-s/2) Gamma(s/2) zeta(s)
    because s(s-1) = (1-s)(-s). The xi residual is the same difference
    taken between the two values rounded to double.
    """
    p = cfg.precision
    rng = np.random.default_rng(RNG_SEED)
    worst_fe = 0.0
    worst_xi = 0.0
    n_accepted = 0
    while n_accepted < 100:
        sigma = rng.uniform(-3.0, 4.0)
        t = rng.uniform(-30.0, 30.0)
        s = complex(sigma, t)
        if min(abs(s), abs(s - 1)) < 0.3:
            continue
        # keep clear of Gamma poles on both sides of the reflection
        if abs(t) < 0.3 and (min(abs(sigma - 2 * round(sigma / 2)), 1.0) < 0.3
                             or min(abs((1 - sigma) - 2 * round((1 - sigma) / 2)), 1.0) < 0.3):
            continue
        n_accepted += 1
        with mp.workdps(p.dps):
            sm = mp.mpc(s)
            xa, xb = xi(sm, p), xi(1 - sm, p)
            worst_fe = max(worst_fe, float(abs(as_mpc(xa) - as_mpc(xb))
                                           / abs(sm * (sm - 1) / 2)))
        worst_xi = max(worst_xi, abs(complex(xa) - complex(xb)))
    return [
        _pf("functional-equation residual, 100 random points", worst_fe, 1e-10),
        _pf("xi(s) = xi(1-s), 100 random points", worst_xi, 1e-10),
    ]


FIRST_ORDINATES = (14.134725, 21.022040, 25.010858)


def suite_zeros(cfg: RunConfig, table: ZeroTable) -> List[CheckRecord]:
    checks = []
    for i, ref in enumerate(FIRST_ORDINATES):
        checks.append(_pf(f"gamma_{i+1} vs {ref}", abs(table.gammas[i] - ref), 1e-6))
    n100 = count_zeros(100.0, table)
    checks.append(_pf("count_zeros(100) = 29", abs(n100 - 29), 0.0,
                      note=f"count={n100}"))
    for T in (30.0, 50.0, 100.0, 200.0, 500.0):
        gap = abs(count_zeros(T, table) - mangoldt_estimate(T))
        checks.append(_pf(f"census vs estimate at T={T:g}", gap, COUNT_SLACK))
    return checks


def suite_argument_principle(cfg: RunConfig, table: ZeroTable) -> List[CheckRecord]:
    checks = []
    cases = [
        ("box [0.9,1.1]x[-1,1]", Rectangle.box(0.9, 1.1, -1.0, 1.0), -1),
        ("box [0.4,0.6]x[14,14.3]", Rectangle.box(0.4, 0.6, 14.0, 14.3), 1),
        ("D(0.6,0.8,30)", Rectangle.paper_mode(0.6, 0.8, 30.0), 0),
        ("D(0.6,0.8,50)", Rectangle.paper_mode(0.6, 0.8, 50.0), 0),
    ]
    for name, rect, expect in cases:
        rep = integrate_rectangle(rect, table, tol=1e-7)
        checks.append(_pf(f"{name} winding = {expect}",
                          abs(rep.winding - expect), 0.0,
                          note=f"raw={rep.winding_raw:.3e}"))
        if expect == 0:
            checks.append(_pf(f"{name} |winding_raw|", abs(rep.winding_raw), 1e-3))
    return checks


def _vertical_pair(f, rect: Rectangle, tol: float, singularities) -> complex:
    """int_DA f ds + int_BC f ds by quadrature: the vertical-edge pair of a
    paper-mode rectangle that the closed-form terms are checked against."""
    c = rect.corners()
    da = integrate_edge(f, c["d"], c["a"], tol=tol, singularities=singularities)
    bc = integrate_edge(f, c["b"], c["c"], tol=tol, singularities=singularities)
    return da.value + bc.value


def suite_decomposition(cfg: RunConfig, table: ZeroTable) -> List[CheckRecord]:
    checks = []
    for T in (20.0, 50.0, 100.0):
        rect = Rectangle.paper_mode(3.0 / 5.0, 4.0 / 5.0, T)
        rep = decompose(rect, table, eps2=1.0 / (T * T))
        checks.append(_pf(f"decomposition residual, T={T:g}", rep.residual, 1e-4,
                          note=f"n_used_eps2={rep.n_used_eps2}"))
    # per-term closed form vs quadrature on D(3/5, 4/5, 50)
    rect = Rectangle.paper_mode(3.0 / 5.0, 4.0 / 5.0, 50.0)

    def pair(f, singularities):
        return _vertical_pair(f, rect, 1e-10, singularities)

    checks.append(_pf("pole term closed vs quadrature",
                      abs(pole_term_integral(rect) - pair(pole_integrand, [1.0 + 0j])),
                      1e-8))
    logpi_quad = pair(lambda z: np.full(len(z), 0.5 * math.log(math.pi),
                                        dtype=np.complex128), [])
    checks.append(_pf("logpi term closed vs quadrature",
                      abs(logpi_edge_integral(rect, "da")
                          + logpi_edge_integral(rect, "bc") - logpi_quad), 1e-8))
    dig = digamma_term_integral(rect)
    dig_quad = -0.5 * pair(digamma_integrand, [])
    checks.append(_pf("digamma term closed vs quadrature",
                      abs(dig.value - dig_quad), 1e-8))
    zs = zero_sum_term_integral(rect, table, N=5)
    zs_quad = pair(zero_sum_integrand(table, 5),
                   [complex(0.5, sg * g) for g in table.gammas[:5] for sg in (1, -1)])
    checks.append(_pf("zero-sum term (N=5) closed vs quadrature",
                      abs(zs.value - zs_quad), 1e-8))
    return checks


def suite_digamma_trend(cfg: RunConfig, table=None) -> List[CheckRecord]:
    gaps = []
    for T in (10.0, 100.0, 1000.0):
        rect = Rectangle.paper_mode(3.0 / 5.0, 4.0 / 5.0, T)
        gaps.append(digamma_term_integral(rect).limit_gap)
    checks = [
        _pf("digamma gap decreasing T=10 -> 100", gaps[1] - gaps[0], 0.0,
            note=f"gaps={gaps[0]:.4f},{gaps[1]:.4f}"),
        _pf("digamma gap decreasing T=100 -> 1000", gaps[2] - gaps[1], 0.0,
            note=f"gaps={gaps[1]:.4f},{gaps[2]:.4f}"),
        _pf("digamma gap at T=1000", gaps[2], 1e-2),
    ]
    return checks


def suite_telescoping(cfg: RunConfig, table=None) -> List[CheckRecord]:
    res = telescope_sum(lambda k: float(k), 10)
    direct = math.fsum(math.atan(1.0 / (1 + k + k * k)) for k in range(1, 11))
    closed = math.atan(11.0) - math.pi / 4.0
    checks = [
        _pf("sum arctan 1/(1+k+k^2), k<=10, vs arctan(11) - pi/4",
            max(abs(res.value - closed), abs(direct - closed)), 1e-12),
    ]
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    done = 0
    while done < 200:
        n = int(rng.integers(2, 24))
        f_vals = rng.uniform(-5.0, 5.0, size=n + 1)
        prods = f_vals[1:] * f_vals[:-1]
        if np.min(np.abs(1.0 + prods)) < 1e-3:
            continue
        done += 1
        f = lambda k: float(f_vals[k - 1])
        t = telescope_sum(f, n)
        d = math.fsum(math.atan((f_vals[k] - f_vals[k - 1])
                                / (1.0 + f_vals[k] * f_vals[k - 1]))
                      for k in range(1, n + 1))
        worst = max(worst, abs(t.value - d))
    checks.append(_pf("200 randomized telescoping identities", worst, 1e-10))
    wrap = telescope_sum(lambda k: 2.0 if k == 1 else -2.0, 1)
    expect = math.atan(-2.0) - math.atan(2.0) + math.pi
    checks.append(_pf("wrap case f=(2,-2): arctan(4/3) identity",
                      max(abs(wrap.value - math.atan(4.0 / 3.0)),
                          abs(wrap.value - expect)), 1e-12,
                      note=f"wrap_count={wrap.wrap_count}"))
    return checks


def suite_cross_module(cfg: RunConfig, table: ZeroTable) -> List[CheckRecord]:
    rect = Rectangle.paper_mode(3.0 / 5.0, 4.0 / 5.0, 100.0)
    checks = []
    for N in (1, 5, 29):
        sn = s_n_direct(rect, table, N)
        sings = [complex(0.5, sg * g) for g in table.gammas[:N] for sg in (1, -1)]
        quad = _vertical_pair(zero_sum_integrand(table, N), rect, 1e-11, sings)
        gap = abs(quad - 2j * sn.value)
        checks.append(_pf(f"2i S_N vs vertical quadrature, N={N}", gap, 1e-9))
    return checks


def suite_riccati(cfg: RunConfig, table: ZeroTable) -> List[CheckRecord]:
    rect = Rectangle.paper_mode(3.0 / 5.0, 4.0 / 5.0, 100.0)
    n_trace = min(len(table.gammas), 240)
    tr_f = riccati_iterate("f", n_trace, rect, table)
    tr_g = riccati_iterate("g", n_trace, rect, table)
    worst = max(max(tr_f.step_residuals), max(tr_g.step_residuals))
    checks = [
        CheckRecord(
            name="trace f(1)=0", kind="pass_fail",
            measured=abs(tr_f.iterates[0]), bound=0.0,
            passed=tr_f.iterates[0] == 0.0,
            note=f"monotone_from={tr_f.monotone_from} blowup={tr_f.blowup_index}"),
        _pf("Riccati step identity (mod pi), both kinds", worst, 1e-10),
    ]
    fp = fixed_point_check(5.0, 1.0)
    checks.append(CheckRecord(
        name="fixed point x*=(a x*+b)/(-b x*+a) has no real solution",
        kind="pass_fail", measured=0.0, bound=0.0,
        passed=not fp.has_real_fixed_point, note=fp.verdict))
    lin = linearize_riccati(tr_f, C=2.0)
    dec_p, dec_r = lin.gaps_decreasing()
    checks.append(CheckRecord(
        name="|P(n)-2C| decreasing on tail", kind="pass_fail",
        measured=lin.p_gaps[-1], bound=lin.p_gaps[lin.tail_start],
        passed=dec_p, note=f"tail_start={lin.tail_start}"))
    checks.append(CheckRecord(
        name="|R(n)+C^2| decreasing on tail", kind="pass_fail",
        measured=lin.r_gaps[-1], bound=lin.r_gaps[lin.tail_start],
        passed=dec_r, note=""))
    root_gap = max(abs(lin.char_roots[0] - lin.C), abs(lin.char_roots[1] - lin.C))
    checks.append(_pf("double characteristic root lambda = C", root_gap, 1e-9))
    return checks


def suite_paper_claims(cfg: RunConfig, table: ZeroTable) -> List[CheckRecord]:
    """Measured-only records; no pass/fail semantics by design."""
    rect = Rectangle.paper_mode(3.0 / 5.0, 4.0 / 5.0, 100.0)
    sn = s_n_direct(rect, table, 29)
    checks = [
        _measured("S_29 value on D(3/5,4/5,100)", sn.value),
        _measured("S_29 pi-residual", sn.pi_residual,
                  note=f"nearest multiple q={sn.q_nearest}"),
    ]
    rep = integrate_rectangle(rect, table, tol=1e-6)
    asserted = paper_total(rect, V=-math.pi, Q=0)
    checks.append(_measured("asserted rectangle total (V=-pi, Q=0)", asserted))
    checks.append(_measured("measured winding on D(3/5,4/5,100)",
                            rep.winding, note=f"raw={rep.winding_raw:.3e}"))
    checks.append(_measured("gap asserted-total vs measured winding",
                            abs(asserted - rep.winding)))
    K = SegmentK(0.6, 0.8, 0.0, 33)
    summary = scan(0.0, 500.0, 0.05, K, 0.0, -math.pi, 0.5, table)
    best = summary.best
    checks.append(_measured("universality scan min sup_distance, tau in [0,500]",
                            best.sup_distance, note=f"tau={best.tau!r}"))
    checks.append(_measured("universality scan good_fraction (eps=0.5)",
                            summary.good_fraction,
                            note=f"skipped={len(summary.skipped)}"))
    return checks


# suite name -> (body, minimum table height needed)
SUITES: Dict[str, Tuple[Callable, float]] = {
    "zeta-oracles": (suite_zeta_oracles, 0.0),
    "identities": (suite_identities, 0.0),
    "zeros": (suite_zeros, 510.0),
    "argument-principle": (suite_argument_principle, 60.0),
    "decomposition": (suite_decomposition, 5150.0),
    "digamma-trend": (suite_digamma_trend, 0.0),
    "telescoping": (suite_telescoping, 0.0),
    "cross-module": (suite_cross_module, 110.0),
    "riccati": (suite_riccati, 510.0),
    "paper-claims": (suite_paper_claims, 540.0),
}


def run_suite(name: str, cfg: RunConfig) -> VerificationReport:
    """Execute one suite (or 'all'); exit-status semantics live in the CLI.

    The zero table is resolved once, at the largest height the suites run
    here need, and every suite reads that one table.
    """
    if cfg.precision.uses_f64:
        raise DomainError("the suites' scalar checks run on the mpmath engine; "
                          "give working_digits > 15")
    if name != "all" and name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: all, {', '.join(SUITES)}")
    names = list(SUITES) if name == "all" else [name]
    height = max(SUITES[n][1] for n in names)
    table = (ensure_table(cfg.zero_table_path, height)
             if height > 0 else None)
    checks: List[CheckRecord] = []
    for n in names:
        body, _ = SUITES[n]
        checks.extend(body(cfg, table))
    return VerificationReport(suite=name, toolkit_version=__version__,
                              config_hash=cfg.config_hash(),
                              checks=tuple(checks))
