"""zetacontour: argument-principle measurements for the Riemann zeta function.

Evaluates zeta and friends with certified error bounds, locates critical-line
zeros, integrates zeta'/zeta around rectangles, decomposes the vertical-edge
integrals term by term, telescopes the resulting arctan sums through their
Riccati recurrences, and probes vertical shifts for universality behavior.
Contested quantities are measured and reported, never asserted.
"""

__version__ = "0.1.0"

from . import errors
from .precision import (
    DEFAULT_CONFIG,
    FAST_CONFIG,
    ComplexValue,
    PrecisionConfig,
)
from .special_functions import (
    digamma,
    log_deriv_zeta,
    principal_log_arg,
    xi,
    zeta,
    zeta_alternating,
    zeta_prime,
)
from .zero_finder import (
    ZeroFreeBoundReport,
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
from .contour import (
    ContourReport,
    DecompositionReport,
    Rectangle,
    decompose,
    digamma_term_integral,
    horizontal_edges_model,
    integrate_edge,
    integrate_rectangle,
    logpi_term_integral,
    paper_total,
    pole_term_integral,
    zero_sum_term_integral,
)
from .telescope import (
    ArctanSum,
    LinearizationReport,
    RiccatiTrace,
    arctan_add,
    fixed_point_check,
    h_functions,
    linearize_riccati,
    riccati_iterate,
    s_n_direct,
    telescope_sum,
)
from .universality import ProbeResult, ScanSummary, SegmentK, scan, sup_distance
from .reporting import (
    RunConfig,
    VerificationReport,
    export_report,
    run_suite,
)

__all__ = [
    "__version__",
    "errors",
    "DEFAULT_CONFIG", "FAST_CONFIG", "ComplexValue", "PrecisionConfig",
    "digamma", "log_deriv_zeta", "principal_log_arg",
    "xi", "zeta", "zeta_alternating", "zeta_prime",
    "ZeroFreeBoundReport", "ZeroTable", "count_zeros", "find_zeros_up_to",
    "hardy_z", "load_table", "mangoldt_estimate",
    "riemann_siegel_theta", "save_table", "zero_free_bounds",
    "ContourReport", "DecompositionReport", "Rectangle", "decompose",
    "digamma_term_integral", "horizontal_edges_model", "integrate_edge",
    "integrate_rectangle", "logpi_term_integral", "paper_total",
    "pole_term_integral", "zero_sum_term_integral",
    "ArctanSum", "LinearizationReport", "RiccatiTrace", "arctan_add",
    "fixed_point_check", "h_functions", "linearize_riccati", "riccati_iterate",
    "s_n_direct", "telescope_sum",
    "ProbeResult", "ScanSummary", "SegmentK", "scan", "sup_distance",
    "RunConfig", "VerificationReport", "export_report", "run_suite",
]
