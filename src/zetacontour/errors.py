"""Exception hierarchy for the toolkit.

Every numeric operation either returns a value with an honest error bound or
raises one of these. Nothing is silently clamped.
"""


class ZetaContourError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ZetaContourError, ValueError):
    """Input outside the documented domain of an operation."""


class PoleAtOne(DomainError):
    """Evaluation requested inside the exclusion radius of the pole s = 1."""


class PoleAtNonpositiveInteger(DomainError):
    """Digamma evaluated at (or too close to) a nonpositive integer."""


class ZeroArgument(DomainError):
    """Principal log/argument of 0 requested."""


class PrecisionExhausted(ZetaContourError):
    """The error budget cannot be met within the configured working precision."""


class NearSingularity(ZetaContourError):
    """Evaluation point inside the exclusion radius of a zero or the pole.

    ``which`` identifies the offender, e.g. ``"pole s=1"`` or
    ``"zero 1/2+14.134725i"``.
    """

    def __init__(self, which: str, distance: float):
        self.which = which
        self.distance = distance
        super().__init__(f"within {distance:.3e} of {which}")


class MissedZeroSuspected(ZetaContourError):
    """A Rosser block short, close ordinates, or a count off Turing's N(g_n)."""


class AmbiguousHeight(ZetaContourError):
    """A height within table accuracy of an ordinate, or where Z has no sure sign."""


class FormatError(ZetaContourError):
    """Malformed zero-table file. ``line`` is 1-based."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ChecksumMismatch(ZetaContourError):
    """Zero-table file failed its sha256 footer check."""


class SingularityOnPath(ZetaContourError):
    """A quadrature node would land inside the exclusion radius of a singularity."""


class ToleranceNotMet(ZetaContourError):
    """Adaptive quadrature exhausted its subdivision budget above tolerance."""


class BoundarySingularity(ZetaContourError):
    """A zero or pole sits on (or too close to) a rectangle boundary."""

    def __init__(self, which: str, distance: float):
        self.which = which
        self.distance = distance
        super().__init__(f"boundary within {distance:.3e} of {which}")


class TableTooShort(ZetaContourError):
    """Zero table does not extend high enough to certify the requested tail bound."""


class DegenerateProduct(ZetaContourError):
    """arctan addition with |xy - 1| below tolerance; the formula splits there."""


class DegenerateStep(ZetaContourError):
    """Telescoping step k with |1 + f(k+1) f(k)| below tolerance."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"degenerate telescoping step at k={k}")


class DenominatorVanished(ZetaContourError):
    """Riccati recurrence denominator vanished at step k."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"Riccati denominator vanished at step k={k}")


class MissingTable(ZetaContourError):
    """A suite or CLI command needs a zero table that is neither given nor buildable."""


class UnknownSuite(ZetaContourError, KeyError):
    """``run_suite`` was given a suite name it does not know. A KeyError too,
    as the lookup of a missing name."""

    __str__ = Exception.__str__  # KeyError's would print the message quoted
