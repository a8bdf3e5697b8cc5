"""First-order perturbed Fubini-Study metric: the ten cataloged closed-form
components and the numeric comparison pipeline that adjudicates them.

The numeric ground truth is the FS metric of the perturbed family itself
(first-order eigenvectors with the usual phase structure, renormalized); its
beta-derivative is compared component by component against the closed forms,
which are long and transcription-fragile.  Disagreements are itemized, never
patched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoAdmissiblePointsError, ResonanceError
from .families import StateFamily
from .fubini_study import MetricTensor, analytic_metric_c7, numeric_fs_metrics
from .hamiltonian import RESONANCE_THRESHOLD, perturbation_denominators
from .model import CaseClass, InitialCoefficients

COMPONENT_ORDER = ("omega", "phi", "c3", "c_plus")


@dataclass(frozen=True)
class PerturbationAux:
    """Auxiliary denominator-weighted factors

        Y_pm = (sqrt(1-sin phi) +- sqrt(1+sin phi)) / (2c3 - c_plus +- omega)^2
        X_pm = (sqrt(1-sin phi) +- sqrt(1+sin phi)) / ((2c3 - c_plus)^2 - omega^2)
    """

    y_plus: float
    y_minus: float
    x_plus: float
    x_minus: float


def perturbation_aux(omega, phi, c3, c_plus) -> PerturbationAux:
    sm = math.sqrt(max(0.0, 1.0 - math.sin(phi)))
    sp = math.sqrt(max(0.0, 1.0 + math.sin(phi)))
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

    def assembled(self) -> MetricTensor:
        return MetricTensor(self.entries, self.base.gamma, self.base.coords)


def metric_correction_closed_form(
    eta: InitialCoefficients, xi, gamma: float = 1.0
) -> np.ndarray:
    """The cataloged first-order corrections h_mn over (omega, phi, c3, c_plus).

    Conventions: W1 = eta1 conj(eta3) e^{-i(2c3 + omega - c_plus)} and
    W2 = eta2 conj(eta3) e^{-i(2c3 - omega - c_plus)}; E/F denote their
    imaginary/real parts; J = Im(eta1 conj(eta2) e^{-2 i omega}).
    """
    omega, phi, c3, c_plus = (float(x) for x in xi)
    g2 = gamma * gamma
    aux = perturbation_aux(omega, phi, c3, c_plus)
    yp, ym, xp, xm = aux.y_plus, aux.y_minus, aux.x_plus, aux.x_minus
    p12, m12 = eta.eta12_plus, eta.eta12_minus
    p34, m34 = eta.eta34_plus, eta.eta34_minus
    j = (eta.eta1 * np.conj(eta.eta2) * np.exp(-2j * omega)).imag
    w1 = eta.eta1 * np.conj(eta.eta3) * np.exp(-1j * (2 * c3 + omega - c_plus))
    w2 = eta.eta2 * np.conj(eta.eta3) * np.exp(-1j * (2 * c3 - omega - c_plus))
    e1, f1 = w1.imag, w1.real
    e2, f2 = w2.imag, w2.real

    h = np.zeros((4, 4))
    idx = {name: k for k, name in enumerate(COMPONENT_ORDER)}

    def put(a, b, val):
        h[idx[a], idx[b]] = h[idx[b], idx[a]] = val

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
    return h


def perturbed_metric_analytic(
    eta: InitialCoefficients,
    xi,
    gamma: float = 1.0,
    beta: float = 0.0,
    rho: float = RESONANCE_THRESHOLD,
) -> PerturbedMetric:
    """Closed-form perturbed metric g^(0) + beta h over the full chart."""
    base = analytic_metric_c7(eta, xi, gamma)
    if beta == 0.0:
        return PerturbedMetric(base, np.zeros((4, 4)), 0.0)
    omega, _, c3, c_plus = (float(x) for x in xi)
    den1, den2 = perturbation_denominators(omega, c3, c_plus)
    if min(abs(den1), abs(den2)) < rho:
        raise ResonanceError(
            f"perturbation denominators ({den1:.3e}, {den2:.3e}) below {rho:.1e}"
        )
    return PerturbedMetric(base, metric_correction_closed_form(eta, xi, gamma), beta)


def numeric_beta_derivative(
    eta: InitialCoefficients,
    xi,
    gamma: float = 1.0,
    beta_step: float = 1e-4,
    h: float = 1e-5,
) -> np.ndarray:
    """d g / d beta at beta = 0 of the perturbed family, at one point (shape
    (4, 4)) or at each row of an (N, 4) batch (shape (N, 4, 4)): central
    differences at beta_step and beta_step/2, combined by Richardson
    extrapolation as (4 D(beta_step/2) - D(beta_step))/3 to cancel the
    O(beta_step^2) error, which grows large near a resonance.  Each of the
    four +-beta families is evaluated once over the whole batch."""
    xi = np.asarray(xi, dtype=float)
    xs = np.atleast_2d(xi)
    chart = ("omega", "phi", "c3", "c_plus")

    def central(step):
        g = [
            numeric_fs_metrics(StateFamily(CaseClass("C7"), eta, chart, b), xs, gamma=gamma, h=h)
            for b in (step, -step)
        ]
        return (g[0] - g[1]) / (2.0 * step)

    d = (4.0 * central(0.5 * beta_step) - central(beta_step)) / 3.0
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
    eta: InitialCoefficients,
    points,
    gamma: float = 1.0,
    rel_tol: float = 1e-3,
    beta_step: float = 1e-4,
    resonance_margin: float = 1e-2,
) -> CorrectionAudit:
    """Compare closed-form h_mn with numeric dg/dbeta on resonance-free points.

    Points whose denominators 2c3 - c_plus +- omega fall within
    resonance_margin are skipped, as are points with cos(phi) <= 0.05, at or
    off the edge of the principal branch cos(phi) > 0 where the closed
    forms' square roots are taken.  NoAdmissiblePointsError is raised when
    no point is left.
    """
    used = []
    for xi in points:
        omega, phi, c3, c_plus = (float(x) for x in xi)
        den1, den2 = perturbation_denominators(omega, c3, c_plus)
        if min(abs(den1), abs(den2)) < resonance_margin or math.cos(phi) <= 0.05:
            continue
        used.append(xi)
    if not used:
        raise NoAdmissiblePointsError(
            "every audit point was skipped: each lies within resonance_margin "
            f"{resonance_margin:g} of a resonance 2c3 - c_plus +- omega = 0 or "
            "has cos(phi) <= 0.05"
        )
    used = np.array(used, dtype=float)
    closed_all = np.array([metric_correction_closed_form(eta, xi, gamma) for xi in used])
    numeric_all = numeric_beta_derivative(eta, used, gamma, beta_step=beta_step)
    verdicts = []
    names = COMPONENT_ORDER
    for a in range(4):
        for b in range(a, 4):
            c = closed_all[:, a, b]
            n = numeric_all[:, a, b]
            scale = max(np.max(np.abs(n)), 1e-12)
            max_diff = float(np.max(np.abs(c - n)))
            rel = max_diff / scale
            verdicts.append(
                ComponentVerdict(
                    (names[a], names[b]),
                    float(np.max(np.abs(c))),
                    float(np.max(np.abs(n))),
                    max_diff,
                    rel,
                    rel < rel_tol,
                )
            )
    return CorrectionAudit(tuple(verdicts), len(used), rel_tol)
