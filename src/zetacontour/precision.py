"""Working precision, tolerance budget, and the value-with-error-bound type.

A ``PrecisionConfig`` is two numbers, ``working_digits`` and
``target_abs_tol``, and the digits pick one of two engines:

* ``working_digits <= 15``: IEEE double / numpy complex128, vectorized.
  Error estimates carry a roundoff floor of a few 1e-16 times the summed
  magnitudes, so target tolerances below ~1e-12 are rejected.
* ``working_digits > 15``: mpmath at ``working_digits`` decimal digits plus
  guard digits. Scalar only.

Each engine's Euler-Maclaurin truncation (its Bernoulli-term count, and the
direct-sum length N escalated with |Im s| until the remainder bound meets
``target_abs_tol``) is fixed in ``special_functions``, not configured here.

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
    """Working digits (which also select the engine) and the absolute error
    every scalar evaluation must meet."""

    working_digits: int = 30
    target_abs_tol: float = 1e-18

    def __post_init__(self):
        if self.working_digits <= 0:
            raise ValueError("working_digits must be positive")
        if not self.target_abs_tol > 0:
            raise ValueError("target_abs_tol must be positive")
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


DEFAULT_CONFIG = PrecisionConfig()
# the one double-engine configuration: quadrature, decomposition, scans, zeros
FAST_CONFIG = PrecisionConfig(working_digits=15, target_abs_tol=1e-11)


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

