"""Exception types shared across the package."""


class QOrbitsError(Exception):
    """Base class for all library errors."""


class DegenerateChartError(QOrbitsError):
    """omega = 0: the (omega, phi) chart collapses and phi is undefined."""


class StationaryStateError(QOrbitsError):
    """Initial coefficients select a single stationary eigenstate (0-d orbit)."""


class ClassificationToleranceError(QOrbitsError):
    """A coefficient magnitude sits too close to the zero threshold."""


class CaseMismatchError(QOrbitsError):
    """Requested case label is inconsistent with the coefficients."""


class ResonanceError(QOrbitsError):
    """A perturbation-theory energy denominator is below the resonance threshold."""


class ChartSingularityError(QOrbitsError):
    """A finite-difference derivative of the state family is not finite."""


class SingularMetricError(QOrbitsError):
    """Metric tensor is numerically singular at the requested point."""


class SingularTransformError(QOrbitsError):
    """A diagonalizing-transform denominator vanishes."""


class FormulaDomainError(QOrbitsError):
    """A closed-form expression is evaluated at a pole of one of its factors."""


class NoAdmissiblePointsError(QOrbitsError):
    """Every sample point of an audit was skipped by its admissibility rules."""
