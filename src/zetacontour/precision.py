"""Working precision, tolerance budget, and the value-with-error-bound type.

Two evaluation engines sit behind one config:

* ``working_digits <= 15``: IEEE double / numpy complex128, vectorized.
  Error estimates carry a roundoff floor of a few 1e-16 times the summed
  magnitudes, so target tolerances below ~1e-12 are rejected.
* ``working_digits > 15``: mpmath at ``working_digits`` decimal digits plus
  guard digits. Scalar only.

Raising ``working_digits`` with fixed inputs never increases a reported
error estimate (larger truncation depth, smaller roundoff floor).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import mpmath as mp

# Exclusion radii around singularities (pole s=1, tabulated zeros).
# Inside EXCLUSION_RADIUS evaluation raises; inside FLAG_RADIUS the value is
# returned but flagged. Quadrature nodes must never enter EXCLUSION_RADIUS.
EXCLUSION_RADIUS = 1e-6
FLAG_RADIUS = 1e-3

F64_ROUNDOFF = 5e-16  # per-term roundoff allowance in the double engine
F64_MIN_TOL = 1e-12   # tightest honest target for the double engine


@dataclass(frozen=True)
class PrecisionConfig:
    """Precision and truncation knobs shared by every numeric operation.

    ``euler_maclaurin_terms`` is the number of Bernoulli correction terms in
    the zeta summation; ``cutoff_N`` is the minimum direct-sum truncation
    (the actual N is escalated with |Im s| until the remainder bound meets
    ``target_abs_tol``).
    """

    working_digits: int = 30
    target_abs_tol: float = 1e-18
    euler_maclaurin_terms: int = 16
    cutoff_N: int = 24

    def __post_init__(self):
        if self.working_digits <= 0:
            raise ValueError("working_digits must be positive")
        if not self.target_abs_tol > 0:
            raise ValueError("target_abs_tol must be positive")
        if self.euler_maclaurin_terms <= 0 or self.cutoff_N <= 0:
            raise ValueError("euler_maclaurin_terms and cutoff_N must be positive")
        if self.uses_f64 and self.target_abs_tol < F64_MIN_TOL:
            raise ValueError(
                f"target_abs_tol={self.target_abs_tol:g} is below the double-"
                f"precision floor {F64_MIN_TOL:g}; use working_digits > 15"
            )

    @property
    def uses_f64(self) -> bool:
        return self.working_digits <= 15

    @property
    def dps(self) -> int:
        """mpmath working digits including guard digits."""
        return self.working_digits + 10

    @classmethod
    def fast(cls) -> "PrecisionConfig":
        """Double-precision engine, for quadrature and bulk scans."""
        return cls(working_digits=15, target_abs_tol=1e-11,
                   euler_maclaurin_terms=14, cutoff_N=16)


DEFAULT_CONFIG = PrecisionConfig()
FAST_CONFIG = PrecisionConfig.fast()


@dataclass(frozen=True)
class ComplexValue:
    """A complex evaluation result with an absolute error bound.

    ``re``/``im`` hold the engine's native reals (floats from the double
    engine, mpf at higher precision); ``abs_err`` is always a float upper
    bound. ``flag`` is set (not raised) when a value is computed inside the
    FLAG_RADIUS of a singularity.
    """

    re: Any
    im: Any
    abs_err: float
    flag: Optional[str] = None

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    @property
    def value(self) -> complex:
        return complex(self)

    def conjugate(self) -> "ComplexValue":
        return ComplexValue(self.re, -self.im, self.abs_err, self.flag)

    def distance(self, other) -> float:
        """|self - other| in double precision, for test assertions."""
        return abs(complex(self) - complex(other))


def as_mpc(s) -> mp.mpc:
    if isinstance(s, ComplexValue):
        return mp.mpc(s.re, s.im)
    return mp.mpc(s)


def as_complex(s) -> complex:
    if isinstance(s, ComplexValue):
        return complex(s)
    return complex(s)

