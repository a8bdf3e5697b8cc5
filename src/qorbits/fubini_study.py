"""Fubini-Study metrics of the state families: numeric evaluation from
exact tangent vectors or by finite differences, closed-form tensors, and the
diagonalizing transform.

Both numeric routes compute the real part of the quantum geometric tensor

    g_mn = gamma^2 Re( <d_m psi|d_n psi> - <d_m psi|psi><psi|d_n psi> ).

tangent_fs_metrics takes the state partials from StateFamily.tangents;
numeric_fs_metrics takes them from 4th-order central differences of the
family states, works for any object with states, and is the independent,
gauge-invariant ground truth.  Closed forms are transcribed from the
reference catalog as printed; where a printed form disagrees with the
numeric route the disagreement is surfaced by the comparison utilities,
never patched here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ChartSingularityError, SingularTransformError
from .hamiltonian import branch_sign
from .model import InitialCoefficients
from .families import StateFamily

DEFAULT_METRIC_STEP = 1e-5


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric real metric tensor with its scale factor and coordinate names."""

    entries: np.ndarray
    gamma: float = 1.0
    coords: tuple[str, ...] = ()
    degenerate_axes: tuple[int, ...] = ()

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def validate(self, sym_tol: float = 1e-12, psd_tol: float = 1e-9):
        g = self.entries
        if not np.all(np.isfinite(g)):
            raise ValueError("metric entries must be finite")
        if np.max(np.abs(g - g.T)) > sym_tol:
            raise ValueError("metric not symmetric")
        if np.linalg.eigvalsh(g).min() < -psd_tol:
            raise ValueError("metric not positive semidefinite")
        return self


@lru_cache(maxsize=None)
def _stencil_offsets(dim: int) -> np.ndarray:
    """Offsets of the 4*dim + 1 metric stencil points in units of h: 0, then
    s e_mu for s = 1, -1, 2, -2 and every mu."""
    steps = np.multiply.outer((1.0, -1.0, 2.0, -2.0), np.eye(dim)).reshape(-1, dim)
    return np.concatenate([np.zeros((1, dim)), steps])


_lower_triangle = lru_cache(maxsize=None)(np.tril_indices)


def _points(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise ValueError(f"points must have shape (N, dim), got {xs.shape}")
    return xs


def _require_finite(family, xs, dpsi):
    """Raise ChartSingularityError naming the first point and coordinate
    whose state partial is not finite."""
    if np.isfinite(dpsi).all():
        return
    bad = ~np.all(np.isfinite(dpsi), axis=2)
    row, mu = np.unravel_index(int(np.argmax(bad)), bad.shape)
    raise ChartSingularityError(
        f"non-finite derivative along coordinate {family.chart[mu]!r} at xi={np.asarray(xs)[row]}"
    )


def _state_derivatives(family, xs, h):
    """States at the rows of xs and their 4th-order central-difference
    partials along the chart, from one batch of all N*(4*dim + 1) stencil
    points: psi has shape (N, 4), dpsi (N, dim, 4)."""
    n, dim = xs.shape
    pts = (xs[:, None] + h * _stencil_offsets(dim)).reshape(-1, dim)
    psi_all = family.states(pts).reshape(n, 1 + 4 * dim, -1)
    fp1, fm1, fp2, fm2 = (psi_all[:, 1 + k * dim:1 + (k + 1) * dim] for k in range(4))
    dpsi = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
    _require_finite(family, xs, dpsi)
    return psi_all[:, 0], dpsi


def _qgt_metrics(psi, dpsi, gamma: float) -> np.ndarray:
    """gamma^2 Re(<d_m psi|d_n psi> - <d_m psi|psi><psi|d_n psi>), shape
    (N, dim, dim), from states psi (N, 4) and their partials dpsi
    (N, dim, 4)."""
    overlaps = dpsi @ psi[:, :, None].conj()  # <d_m psi|psi>^*, shape (N, dim, 1)
    qgt = dpsi.conj() @ dpsi.transpose(0, 2, 1) - overlaps.conj() * overlaps.transpose(0, 2, 1)
    g = gamma * gamma * qgt.real
    # the upper triangle is mirrored, so every metric is exactly symmetric
    lower = _lower_triangle(dpsi.shape[1], -1)
    g[:, lower[0], lower[1]] = g[:, lower[1], lower[0]]
    return g


def numeric_fs_metrics(
    family, xs, gamma: float = 1.0, h: float = DEFAULT_METRIC_STEP
) -> np.ndarray:
    """Fubini-Study metrics, shape (N, dim, dim), at the N rows of xs, from
    one evaluation of every stencil state.  family is any object exposing
    .states(xs) and .chart."""
    if not (1e-7 <= h <= 1e-3):
        raise ValueError("finite-difference step h must lie in [1e-7, 1e-3]")
    xs = _points(xs)
    return _qgt_metrics(*_state_derivatives(family, xs, h), gamma)


def tangent_fs_metrics(family, xs, gamma: float = 1.0) -> np.ndarray:
    """Fubini-Study metrics, shape (N, dim, dim), at the N rows of xs, from
    the exact state partials of family.tangents(xs): one state evaluation
    per point and no step size."""
    psi, dpsi = family.tangents(xs)
    _require_finite(family, xs, dpsi)
    return _qgt_metrics(psi, dpsi, gamma)


def numeric_fs_metric(
    family,
    xi,
    gamma: float = 1.0,
    h: float = DEFAULT_METRIC_STEP,
    degeneracy_tol: float = 1e-12,
) -> MetricTensor:
    """Fubini-Study metric at one point: the one-row case of
    numeric_fs_metrics, with the coordinate names and degenerate axes."""
    g = numeric_fs_metrics(family, np.asarray(xi, dtype=float)[None], gamma, h)[0]
    row_max = np.abs(g).max(axis=1)
    scale = max(row_max.max(), 1.0)
    degenerate = tuple(np.flatnonzero(row_max < degeneracy_tol * scale).tolist())
    return MetricTensor(g, gamma, tuple(family.chart), degenerate)


def _j_signed(eta: InitialCoefficients, omega: float, phi: float = 0.0) -> float:
    """J = Im(eta1 conj(eta2) e^{-2 i omega}), carrying the sign of cos(phi).

    On the principal branch cos(phi) >= 0 this is the plain catalog J; the
    sign guard extends the closed forms to the full-quadrant phi convention,
    where the phi-row couplings of the metric flip with cos(phi).
    """
    j = (eta.eta1 * np.conj(eta.eta2) * np.exp(-2j * omega)).imag
    return float(j) * branch_sign(phi)


def _k_real(eta: InitialCoefficients, omega: float) -> float:
    """K = Re(eta1 conj(eta2) e^{-2 i omega}); d/domega of the unsigned J is -2K."""
    return float((eta.eta1 * np.conj(eta.eta2) * np.exp(-2j * omega)).real)


def analytic_metric_c7(
    eta: InitialCoefficients, xi, gamma: float = 1.0
) -> MetricTensor:
    """Closed-form metric over the full chart (omega, phi, c3, c_plus)."""
    omega, phi = float(xi[0]), float(xi[1])
    g2 = gamma * gamma
    p12, m12 = eta.eta12_plus, eta.eta12_minus
    p34, m34 = eta.eta34_plus, eta.eta34_minus
    j = _j_signed(eta, omega, phi)
    g = np.array(
        [
            [
                g2 * (p12 - m12 * m12),
                g2 * m12 * j,
                2 * g2 * m12 * p34,
                -g2 * m12 * m34,
            ],
            [
                g2 * m12 * j,
                g2 * (0.25 * p12 - j * j),
                -2 * g2 * j * p34,
                g2 * j * m34,
            ],
            [
                2 * g2 * m12 * p34,
                -2 * g2 * j * p34,
                4 * g2 * p12 * p34,
                -2 * g2 * p12 * m34,
            ],
            [
                -g2 * m12 * m34,
                g2 * j * m34,
                -2 * g2 * p12 * m34,
                g2 * (p34 - m34 * m34),
            ],
        ]
    )
    return MetricTensor(g, gamma, ("omega", "phi", "c3", "c_plus"))


def _theta_from_j(eta: InitialCoefficients, omega: float, phi: float = 0.0) -> float:
    """Polar angle theta of the (eta1, eta2) sector: J = (eta12_plus/2) cos theta."""
    p12 = eta.eta12_plus
    c = 2.0 * _j_signed(eta, omega, phi) / p12
    return math.acos(max(-1.0, min(1.0, c)))


def analytic_metric_case(
    f: StateFamily, xi, gamma: float = 1.0
) -> MetricTensor:
    """Per-case closed-form metric, in the coordinates of the printed form.

    C1/C2/C4 use the family chart itself; C3/C5/C7 are quoted in the
    diagonalizing coordinates (theta, phi', ...) and C6 in (phi, c', c_plus').
    The C4 g_cc, C5 g_c'c' and C6 g_c'c' values are returned exactly as
    cataloged even though the numeric oracle measures 1/9, 1/4 and 1/4 of
    them respectively (see the metric verification report).
    """
    eta = f.eta
    g2 = gamma * gamma
    label = f.case.label
    p12, m12 = eta.eta12_plus, eta.eta12_minus
    p34, m34 = eta.eta34_plus, eta.eta34_minus
    a2 = eta.abs2
    if label == "C1":
        g = np.array([[g2 * (p34 - m34 * m34)]])
        return MetricTensor(g, gamma, ("c_plus",))
    if label == "C2":
        return MetricTensor(np.array([[g2 / 4.0]]), gamma, ("phi",))
    if label == "C3":
        omega, phi = float(xi[0]), float(xi[1])
        theta = _theta_from_j(eta, omega, phi)
        g = np.diag([g2 * p12 / 4.0, g2 * p12 * math.sin(theta) ** 2 / 4.0])
        return MetricTensor(g, gamma, ("theta", "phi_prime"))
    if label == "C4":
        al2 = a2[f.case.l - 1]
        aj2 = a2[f.case.j - 1]
        g = np.diag([g2 * al2 / 4.0, 9.0 * g2 * al2 * aj2])
        return MetricTensor(g, gamma, ("phi", "c"))
    if label == "C5":
        omega, phi = float(xi[0]), float(xi[1])
        theta = _theta_from_j(eta, omega, phi)
        aj2 = a2[f.case.j - 1]
        g = np.diag(
            [
                g2 * p12 / 4.0,
                g2 * p12 * math.sin(theta) ** 2 / 4.0,
                4.0 * g2 * p12 * aj2,
            ]
        )
        return MetricTensor(g, gamma, ("theta", "phi_prime", "c_prime"))
    if label == "C6":
        al2 = a2[f.case.l - 1]
        s = p34 - m34 * m34
        g = np.diag(
            [
                g2 * al2 / 4.0,
                4.0 * g2 * al2 * (p34 * p34 - m34 * m34) / s,
                g2 * s,
            ]
        )
        return MetricTensor(g, gamma, ("phi", "c_prime", "c_plus_prime"))
    if label == "C7":
        omega, phi = float(xi[0]), float(xi[1])
        theta = _theta_from_j(eta, omega, phi)
        s = p34 - m34 * m34
        g = np.diag(
            [
                g2 * p12 / 4.0,
                g2 * p12 * math.sin(theta) ** 2 / 4.0,
                4.0 * g2 * p12 * (p34 * p34 - m34 * m34) / s,
                g2 * s,
            ]
        )
        return MetricTensor(
            g, gamma, ("theta", "phi_prime", "c3_prime", "c_plus_prime")
        )
    raise ValueError(f"unsupported case {label!r}")


@dataclass(frozen=True)
class DiagonalizingTransform:
    """Coefficients of the metric-diagonalizing coordinate change

        omega = omega',  phi = k1 omega' + phi',
        c3 = k2 omega' + k3 phi' + c3',  c_plus = k4 c3' + c_plus',

    with the substitution J = (eta12_plus/2) cos(theta) replacing omega' by
    theta (theta_substitution).  k1..k3 are evaluated at the working point
    because J depends on omega there.
    """

    k1: float
    k2: float
    k3: float
    k4: float
    theta_substitution: bool = True


def diagonalize_metric(
    eta: InitialCoefficients, omega: float, phi: float = 0.0
) -> DiagonalizingTransform:
    """Transform coefficients k1..k4 at the given chart point."""
    p12, m12 = eta.eta12_plus, eta.eta12_minus
    p34, m34 = eta.eta34_plus, eta.eta34_minus
    j = _j_signed(eta, omega, phi)
    d12 = 4.0 * j * j - p12 * p12
    d34 = p34 - m34 * m34
    if abs(d12) < 1e-14 or abs(d34) < 1e-14:
        raise SingularTransformError(
            f"transform singular: 4J^2-(eta12+)^2 = {d12:.3e}, "
            f"eta34+-(eta34-)^2 = {d34:.3e}"
        )
    return DiagonalizingTransform(
        k1=4.0 * m12 * j / d12,
        k2=p12 * m12 / (2.0 * d12),
        k3=j / (2.0 * p12),
        k4=2.0 * p12 * m34 / d34,
    )


def pushforward_c7(
    eta: InitialCoefficients, xi, gamma: float = 1.0
) -> MetricTensor:
    """Push the closed-form C7 metric through the diagonalizing transform.

    The Jacobian uses the frozen k-coefficients together with
    d omega/d theta = eta12_plus sin(theta)/(4K); the result should be the
    diagonal tensor of analytic_metric_case for C7.
    """
    omega, phi = float(xi[0]), float(xi[1])
    t = diagonalize_metric(eta, omega, phi)
    g = analytic_metric_c7(eta, xi, gamma).entries
    theta = _theta_from_j(eta, omega, phi)
    k_re = _k_real(eta, omega) * branch_sign(phi)
    if abs(k_re) < 1e-14:
        raise SingularTransformError("K = Re(eta1 eta2* e^{-2i omega}) vanishes")
    domega_dtheta = eta.eta12_plus * math.sin(theta) / (4.0 * k_re)
    # columns: (theta, phi', c3', c_plus'); rows: (omega, phi, c3, c_plus)
    jac = np.array(
        [
            [domega_dtheta, 0.0, 0.0, 0.0],
            [t.k1 * domega_dtheta, 1.0, 0.0, 0.0],
            [t.k2 * domega_dtheta, t.k3, 1.0, 0.0],
            [0.0, 0.0, t.k4, 1.0],
        ]
    )
    gp = jac.T @ g @ jac
    return MetricTensor(
        gp, gamma, ("theta", "phi_prime", "c3_prime", "c_plus_prime")
    )


def two_param_metric(
    alpha: float, eta: InitialCoefficients, gamma: float = 1.0
) -> MetricTensor:
    """Metric of the constrained two-parameter manifold (omega, c_plus) with
    c1 = c2 (phi = pi/2) and c3 = alpha c_plus / 2.

    Obtained by pulling the full closed form back through the constraint;
    the catalog's printed off-diagonal carries an extra factor 2 relative to
    this (and to the numeric oracle).
    """
    g2 = gamma * gamma
    p12, m12 = eta.eta12_plus, eta.eta12_minus
    p34, m34 = eta.eta34_plus, eta.eta34_minus
    g = np.array(
        [
            [g2 * (p12 - m12 * m12), g2 * m12 * (alpha * p34 - m34)],
            [
                g2 * m12 * (alpha * p34 - m34),
                g2 * alpha * p12 * (alpha * p34 - 2.0 * m34)
                + g2 * (p34 - m34 * m34),
            ],
        ]
    )
    return MetricTensor(g, gamma, ("omega", "c_plus"))


def two_param_metric_printed_offdiag(
    alpha: float, eta: InitialCoefficients, gamma: float = 1.0
) -> float:
    """The cataloged off-diagonal g_{omega c_plus} as printed (2x the oracle)."""
    return (
        2.0
        * gamma
        * gamma
        * eta.eta12_minus
        * (alpha * eta.eta34_plus - eta.eta34_minus)
    )


@dataclass(frozen=True)
class _PhaseTwistedFamily:
    """psi -> e^{i lambda(xi)} psi with smooth lambda; FS metric must not move."""

    base: object
    lam: object  # (N, dim) chart points -> (N,) phases

    @property
    def chart(self):
        return self.base.chart

    def states(self, xs):
        xs = np.asarray(xs, dtype=float)
        lam = np.asarray(self.lam(xs), dtype=float)
        if lam.shape != (len(xs),):
            raise ValueError(f"phase function returned shape {lam.shape}, not ({len(xs)},)")
        return np.exp(1j * lam)[:, None] * self.base.states(xs)


def phase_twisted(family, lam) -> _PhaseTwistedFamily:
    """family with every state multiplied by e^{i lam(xs)}; lam maps an
    (N, dim) batch of chart points to N phases."""
    return _PhaseTwistedFamily(family, lam)
