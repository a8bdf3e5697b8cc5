"""First-order perturbed Fubini-Study metric: the ten cataloged closed-form
components and the numeric comparison pipeline that adjudicates them.

The numeric ground truth is the FS metric of the perturbed family itself
(first-order eigenvectors with the usual phase structure, renormalized); its
beta-derivative is compared component by component against the closed forms,
which are long and transcription-fragile.  Disagreements are itemized, never
patched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoAdmissiblePointsError
from .families import StateFamily
from .fubini_study import MetricTensor, _overlap, _times, analytic_metric_c7, numeric_fs_metrics_of
from .hamiltonian import check_denominators, perturbation_denominators
from .model import CASE_CHARTS, CaseClass, InitialCoefficients

# numeric dg/dbeta: the larger of its two central-difference beta steps
BETA_STEP = 1e-4
# correction audit: relative deviation at which a component agrees, and the
# distance from a resonance inside which an audit point is skipped
AUDIT_REL_TOL = 1e-3
RESONANCE_MARGIN = 1e-2


@dataclass(frozen=True)
class PerturbationAux:
    """Auxiliary denominator-weighted factors

        Y_pm = (sqrt(1-sin phi) +- sqrt(1+sin phi)) / (2c3 - c_plus +- omega)^2
        X_pm = (sqrt(1-sin phi) +- sqrt(1+sin phi)) / ((2c3 - c_plus)^2 - omega^2)

    one value per point: floats, or arrays for arrays of coordinates.
    """

    y_plus: float
    y_minus: float
    x_plus: float
    x_minus: float


def perturbation_aux(omega, phi, c3, c_plus) -> PerturbationAux:
    sm = np.sqrt(np.maximum(0.0, 1.0 - np.sin(phi)))
    sp = np.sqrt(np.maximum(0.0, 1.0 + np.sin(phi)))
    d = 2.0 * c3 - c_plus
    return PerturbationAux(
        y_plus=(sm + sp) / (d + omega) ** 2,
        y_minus=(sm - sp) / (d - omega) ** 2,
        x_plus=(sm + sp) / (d * d - omega * omega),
        x_minus=(sm - sp) / (d * d - omega * omega),
    )


@dataclass(frozen=True)
class PerturbedMetric:
    """g = base + beta * correction."""

    base: MetricTensor
    correction: np.ndarray
    beta: float

    @property
    def entries(self) -> np.ndarray:
        return self.base.entries + self.beta * self.correction


def metric_correction_closed_form(
    eta: InitialCoefficients, xi, gamma: float = 1.0
) -> np.ndarray:
    """The cataloged first-order corrections h_mn over (omega, phi, c3, c_plus),
    shape (N, 4, 4) at the N rows of an (N, 4) batch xi, or (4, 4) at one
    point, which is evaluated as a batch of one and so gives that row to the
    bit.

    Conventions: W1 = eta1 conj(eta3) e^{-i(2c3 + omega - c_plus)} and
    W2 = eta2 conj(eta3) e^{-i(2c3 - omega - c_plus)}; E/F denote their
    imaginary/real parts; J = Im(eta1 conj(eta2) e^{-2 i omega}).
    """
    xi = np.asarray(xi, dtype=float)
    omega, phi, c3, c_plus = np.atleast_2d(xi).T
    g2 = gamma * gamma
    aux = perturbation_aux(omega, phi, c3, c_plus)
    yp, ym, xp, xm = aux.y_plus, aux.y_minus, aux.x_plus, aux.x_minus
    p12, m12 = eta.eta12_plus, eta.eta12_minus
    p34, m34 = eta.eta34_plus, eta.eta34_minus
    j = _overlap(eta.as_array(), omega)[1]
    # complex scalars, each times an array by _times
    t13, t23 = eta.eta1 * np.conj(eta.eta3), eta.eta2 * np.conj(eta.eta3)
    f1, e1 = _times(t13.real, t13.imag, np.exp(-1j * (2 * c3 + omega - c_plus)))
    f2, e2 = _times(t23.real, t23.imag, np.exp(-1j * (2 * c3 - omega - c_plus)))

    h = np.zeros((len(omega), 4, 4))
    idx = {name: k for k, name in enumerate(CASE_CHARTS["C7"])}

    def put(a, b, val):
        h[..., idx[a], idx[b]] = h[..., idx[b], idx[a]] = val

    put(
        "omega",
        "omega",
        2 * g2 * ((1 - 2 * m12) * e1 * yp + (1 + 2 * m12) * e2 * ym),
    )
    put("c3", "c3", -8 * g2 * (p12 - p34) * (e1 * yp + e2 * ym))
    put("c_plus", "c_plus", -2 * g2 * (1 - 2 * m34) * (e1 * yp + e2 * ym))
    put(
        "phi",
        "phi",
        g2
        * omega
        * ((4 * j * e1 - f2) * xm + (4 * j * e2 + f1) * xp),
    )
    put(
        "phi",
        "omega",
        g2
        * (
            omega * (1 - m12) * e1 * xm
            - omega * (1 + m12) * e2 * xp
            - (0.5 * f1 + 2 * j * e2) * ym
            - (0.5 * f2 - 2 * j * e1) * yp
        ),
    )
    put(
        "c3",
        "omega",
        4 * g2 * ((p34 - m12) * e1 * yp - (p34 + m12) * e2 * ym),
    )
    put(
        "c_plus",
        "omega",
        2 * g2 * ((m12 - m34) * e1 * yp + (m12 + m34) * e2 * ym),
    )
    put(
        "c3",
        "phi",
        g2
        * (
            -2 * omega * (p12 - p34) * (e1 * xm + e2 * xp)
            + (f1 + 4 * j * e2) * ym
            - (f2 - 4 * j * e1) * yp
        ),
    )
    put(
        "c_plus",
        "phi",
        g2
        * (
            omega * (1 - 2 * m34) * (e1 * xm + e2 * xp)
            - (0.5 * f1 + 2 * j * e2) * ym
            + (0.5 * f2 - 2 * j * e1) * yp
        ),
    )
    put("c_plus", "c3", 2 * g2 * (2 * p12 - m34) * (e1 * yp + e2 * ym))
    return h if xi.ndim == 2 else h[0]


def perturbed_metric_analytic(
    eta: InitialCoefficients,
    xi,
    gamma: float = 1.0,
    beta: float = 0.0,
) -> PerturbedMetric:
    """Closed-form perturbed metric g^(0) + beta h over the full chart."""
    base = analytic_metric_c7(eta, xi, gamma)
    if beta == 0.0:
        return PerturbedMetric(base, np.zeros((4, 4)), 0.0)
    omega, _, c3, c_plus = (float(x) for x in xi)
    check_denominators(*perturbation_denominators(omega, c3, c_plus))
    return PerturbedMetric(base, metric_correction_closed_form(eta, xi, gamma), beta)


def numeric_beta_derivative(eta: InitialCoefficients, xi, gamma: float = 1.0) -> np.ndarray:
    """d g / d beta at beta = 0 of the perturbed family, at one point (shape
    (4, 4)) or at each row of an (N, 4) batch (shape (N, 4, 4)): central
    differences at BETA_STEP and BETA_STEP/2, combined by Richardson
    extrapolation as (4 D(BETA_STEP/2) - D(BETA_STEP))/3 to cancel the
    O(BETA_STEP^2) error, which grows large near a resonance.  The four
    +-beta families' metrics over the whole batch come from one
    numeric_fs_metrics_of pass, at the default metric step."""
    xi = np.asarray(xi, dtype=float)
    xs = np.atleast_2d(xi)
    case = CaseClass("C7")
    steps = (0.5 * BETA_STEP, BETA_STEP)
    g = numeric_fs_metrics_of(
        [(StateFamily(case, eta, case.chart, b), xs) for step in steps for b in (step, -step)], gamma
    )
    half, full = ((g[k] - g[k + 1]) / (2.0 * step) for k, step in zip((0, 2), steps))
    d = (4.0 * half - full) / 3.0
    return d if xi.ndim == 2 else d[0]


@dataclass(frozen=True)
class ComponentVerdict:
    component: tuple[str, str]
    max_abs_closed: float
    max_abs_numeric: float
    max_abs_diff: float
    max_rel_diff: float
    agrees: bool


@dataclass(frozen=True)
class CorrectionAudit:
    """Per-component comparison of the closed-form h_mn against the numeric
    beta-derivative over a grid of sample points."""

    verdicts: tuple[ComponentVerdict, ...]
    n_points: int
    rel_tol: float

    @property
    def disagreeing(self) -> tuple[str, ...]:
        return tuple(
            f"{v.component[0]}-{v.component[1]}" for v in self.verdicts if not v.agrees
        )


def audit_metric_correction(
    eta: InitialCoefficients, points, gamma: float = 1.0
) -> CorrectionAudit:
    """Compare closed-form h_mn with numeric dg/dbeta on resonance-free points.

    Points whose denominators 2c3 - c_plus +- omega fall within
    RESONANCE_MARGIN are skipped, as are points with cos(phi) <= 0.05, at or
    off the edge of the principal branch cos(phi) > 0 where the closed
    forms' square roots are taken.  A component agrees when its maximal
    deviation is below AUDIT_REL_TOL relative to the numeric maximum.
    NoAdmissiblePointsError is raised when no point is left.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[1:] not in ((), (4,)):
        raise ValueError(f"audit points must have shape (N, 4), got {points.shape}")
    points = points.reshape(-1, 4)
    omega, phi, c3, c_plus = points.T
    den1, den2 = perturbation_denominators(omega, c3, c_plus)
    keep = ~((np.minimum(np.abs(den1), np.abs(den2)) < RESONANCE_MARGIN) | (np.cos(phi) <= 0.05))
    if not keep.any():
        raise NoAdmissiblePointsError(
            "every audit point was skipped: each lies within "
            f"{RESONANCE_MARGIN:g} of a resonance 2c3 - c_plus +- omega = 0 or "
            "has cos(phi) <= 0.05"
        )
    used = points[keep]
    closed_all = metric_correction_closed_form(eta, used, gamma)
    numeric_all = numeric_beta_derivative(eta, used, gamma)
    # the upper-triangle components, a column each, and their maxima over
    # the points
    a, b = np.triu_indices(4)
    c, n = closed_all[:, a, b], numeric_all[:, a, b]
    max_c, max_n, max_diff = (np.max(np.abs(v), axis=0) for v in (c, n, c - n))
    # the metrics scale as gamma^2, and so does the floor of the numeric maxima
    rel = max_diff / np.maximum(max_n, 1e-12 * gamma * gamma)
    names = CASE_CHARTS["C7"]
    verdicts = tuple(
        ComponentVerdict((names[i], names[j]), *values, values[-1] < AUDIT_REL_TOL)
        for i, j, *values in zip(a.tolist(), b.tolist(), max_c.tolist(), max_n.tolist(),
                                 max_diff.tolist(), rel.tolist())
    )
    return CorrectionAudit(verdicts, len(used), AUDIT_REL_TOL)
