"""Fubini-Study metrics of the state families: numeric evaluation from
exact tangent vectors or by finite differences, closed-form tensors, and the
diagonalizing transform.

Both numeric routes compute the real part of the quantum geometric tensor

    g_mn = gamma^2 Re( <d_m psi|d_n psi> - <d_m psi|psi><psi|d_n psi> ).

tangent_fs_metrics takes the state partials from StateFamily.frame_jet;
numeric_fs_metrics takes them from 4th-order central differences of the
family states, works for any object with states, and is the independent,
gauge-invariant ground truth.  Closed forms are transcribed from the
reference catalog as printed and evaluated on whole batches of points;
where a printed form disagrees with the numeric route the disagreement is
surfaced by the comparison utilities, never patched here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CaseMismatchError, ChartSingularityError, SingularTransformError
from .hamiltonian import branch_sign
from .model import CASE_CHARTS, InitialCoefficients, classify_rows, require_unit_rows
from .families import StateFamily

DEFAULT_METRIC_STEP = 1e-5


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric real metric tensor with its coordinate names."""

    entries: np.ndarray
    coords: tuple[str, ...] = ()
    degenerate_axes: tuple[int, ...] = ()


@lru_cache(maxsize=None)
def _stencil_offsets(dim: int) -> np.ndarray:
    """Offsets of the 4*dim + 1 metric stencil points in units of h: 0, then
    s e_mu for s = 1, -1, 2, -2 and every mu."""
    steps = np.multiply.outer((1.0, -1.0, 2.0, -2.0), np.eye(dim)).reshape(-1, dim)
    return np.concatenate([np.zeros((1, dim)), steps])


@lru_cache(maxsize=None)
def _upper_mirror(dim: int) -> np.ndarray:
    """Flat indices that take a dim x dim array to its upper triangle
    mirrored below the diagonal, so that the result is exactly symmetric."""
    k = np.arange(dim)
    return np.minimum.outer(k, k) * dim + np.maximum.outer(k, k)


def _stencil_input(xs, h) -> np.ndarray:
    """The (N, dim) points of a finite-difference metric, after checking its
    step."""
    if not (1e-7 <= h <= 1e-3):
        raise ValueError("finite-difference step h must lie in [1e-7, 1e-3]")
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


def _stencil_states(family, xs, h, etas=None):
    """The N*(4*dim + 1) stencil points of the rows of xs, shape
    (N*(4*dim + 1), dim), and the family's states there, from one batch,
    each with its point's coefficient row of etas if given.  The rows are
    checked before they are repeated, so a refusal names the caller's row."""
    dim = xs.shape[1]
    pts = (xs[:, None] + h * _stencil_offsets(dim)).reshape(-1, dim)
    if etas is None:
        return pts, family.states(pts)
    require_unit_rows(etas)
    return pts, family.states(pts, np.repeat(etas, 1 + 4 * dim, axis=0))


def _difference_quotient(family, xs, psi_all, h):
    """States at the rows of xs and their 4th-order central-difference
    partials along the chart, from the stencil states psi_all of
    _stencil_states: psi has shape (N, 4), dpsi (N, dim, 4)."""
    n, dim = xs.shape
    psi_all = psi_all.reshape(n, 1 + 4 * dim, 4)
    fp1, fm1, fp2, fm2 = (psi_all[:, 1 + k * dim:1 + (k + 1) * dim] for k in range(4))
    dpsi = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
    _require_finite(family, xs, dpsi)
    return psi_all[:, 0], dpsi


def _require_scale(gamma: float):
    """Raise ValueError unless the metric scale gamma is finite and positive."""
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"metric scale gamma must be finite and positive, got {gamma}")


def _qgt_metrics(psi, dpsi, gamma: float) -> np.ndarray:
    """gamma^2 Re(<d_m psi|d_n psi> - <d_m psi|psi><psi|d_n psi>), shape
    (N, dim, dim), from states psi (N, 4) and their partials dpsi
    (N, dim, 4)."""
    _require_scale(gamma)
    overlaps = dpsi @ psi[:, :, None].conj()  # <d_m psi|psi>^*, shape (N, dim, 1)
    qgt = dpsi.conj() @ dpsi.transpose(0, 2, 1) - overlaps.conj() * overlaps.transpose(0, 2, 1)
    g = gamma * gamma * qgt.real
    dim = dpsi.shape[1]
    return g.reshape(len(g), dim * dim).take(_upper_mirror(dim), axis=1)


def numeric_fs_metrics(
    family, xs, gamma: float = 1.0, h: float = DEFAULT_METRIC_STEP, etas=None
) -> np.ndarray:
    """Fubini-Study metrics, shape (N, dim, dim), at the N rows of xs, from
    one evaluation of every stencil state.  family is any object exposing
    .states(xs) and .chart.  etas, an (N, 4) array of coefficient rows, gives
    each point its own coefficients; only a StateFamily of the general orbit
    (C1, C3, C7) takes it (see StateFamily.states)."""
    xs = _stencil_input(xs, h)
    _, psi_all = _stencil_states(family, xs, h, etas)
    return _qgt_metrics(*_difference_quotient(family, xs, psi_all, h), gamma)


def gauge_pair_metrics(family, lam, xs, gamma: float = 1.0):
    """numeric_fs_metrics of family and of phase_twisted(family, lam) at the
    rows of xs, each of shape (N, dim, dim), at the step DEFAULT_METRIC_STEP,
    from one evaluation of the family's stencil states: the twisted stencil
    states are those states times e^{i lam(pts)}, as the twisted family
    computes them."""
    h = DEFAULT_METRIC_STEP
    xs = _stencil_input(xs, h)
    twisted = phase_twisted(family, lam)
    pts, psi_all = _stencil_states(family, xs, h)
    g = _qgt_metrics(*_difference_quotient(family, xs, psi_all, h), gamma)
    twisted_all = twisted.twist(pts, psi_all)
    return g, _qgt_metrics(*_difference_quotient(twisted, xs, twisted_all, h), gamma)


def tangent_fs_metrics(family, xs, gamma: float = 1.0) -> np.ndarray:
    """Fubini-Study metrics, shape (N, dim, dim), at the N rows of xs, from
    the exact state partials of family.frame_jet(xs, 1): one jet per point
    and no step size.  The metric is made of Hermitian inner products,
    which the real orthonormal frame of the coefficients preserves, so the
    states are never formed."""
    psi, dpsi = family.frame_jet(xs, 1)
    _require_finite(family, xs, dpsi)
    return _qgt_metrics(psi, dpsi, gamma)


def numeric_fs_metric(
    family,
    xi,
    gamma: float = 1.0,
    h: float = DEFAULT_METRIC_STEP,
) -> MetricTensor:
    """Fubini-Study metric at one point: the one-row case of
    numeric_fs_metrics, with the coordinate names and the degenerate axes:
    rows whose largest entry is below 1e-12 max(1, largest entry)."""
    g = numeric_fs_metrics(family, np.asarray(xi, dtype=float)[None], gamma, h)[0]
    row_max = np.abs(g).max(axis=1)
    scale = max(row_max.max(), 1.0)
    degenerate = tuple(np.flatnonzero(row_max < 1e-12 * scale).tolist())
    return MetricTensor(g, tuple(family.chart), degenerate)


# Closed forms.  Each takes a batch: one chart point per row of xs, shape
# (N, dim), and one coefficient row per point, etas of shape (N, 4) as
# StateFamily.states takes them, or a single (4,) row shared by every point.
# One point xi of shape (dim,) gives one (dim, dim) metric: analytic_metric_c7
# and analytic_metric_case call the batch forms so.  Coordinates and
# coefficients are read as x.T[k], which is a numpy scalar for one point,
# where x[..., k] would be a 0-d array, several times slower to compute with.

# coordinates of each case's printed closed-form metric
CLOSED_FORM_CHARTS = {
    "C1": ("c_plus",),
    "C2": ("phi",),
    "C3": ("theta", "phi_prime"),
    "C4": ("phi", "c"),
    "C5": ("theta", "phi_prime", "c_prime"),
    "C6": ("phi", "c_prime", "c_plus_prime"),
    "C7": ("theta", "phi_prime", "c3_prime", "c_plus_prime"),
}


def _times(t_re, t_im, z):
    """(Re, Im) of (t_re + i t_im) z, one value per point, multiplied out
    in real arithmetic, which rounds as a product of two complex scalars
    does; numpy's array complex product may fuse multiply-adds and differ
    from it in the last bit."""
    return t_re * z.real - t_im * z.imag, t_re * z.imag + t_im * z.real


def _overlap(etas, omega):
    """(K, J) = (Re, Im) of eta1 conj(eta2) e^{-2 i omega} per row, both
    complex products by _times; d/domega of J is -2K."""
    a = etas.T[0]
    t = _times(a.real, a.imag, np.conj(etas.T[1]))
    return _times(*t, np.exp(-2j * np.asarray(omega, dtype=float)))


def _signed_overlap(etas, omega, phi) -> tuple:
    """_overlap's (K, J), each carrying the sign of cos(phi).

    On the principal branch cos(phi) >= 0 this is the plain catalog (K, J);
    the sign guard extends the closed forms to the full-quadrant phi
    convention, where the phi-row couplings of the metric flip with cos(phi).
    """
    s = branch_sign(phi)
    k, j = _overlap(etas, omega)
    return k * s, j * s


def _batch_shape(etas, xs) -> tuple:
    """The shape of the points: (N,) for a batch, () for one point."""
    return np.broadcast_shapes(etas.shape[:-1], xs.shape[:-1])


def _stacked(rows, shape: tuple) -> np.ndarray:
    """shape + (d, d) array from a d x d nested list of entries, each a
    scalar or an array that broadcasts to shape."""
    g = np.empty(shape + (len(rows), len(rows)))
    for r, row in enumerate(rows):
        for c, value in enumerate(row):
            g[..., r, c] = value
    return g


def _diagonal(entries, shape: tuple) -> np.ndarray:
    """shape + (d, d) diagonal array from its d diagonal entries (see
    _stacked)."""
    g = np.zeros(shape + (len(entries), len(entries)))
    for k, value in enumerate(entries):
        g[..., k, k] = value
    return g


def analytic_metrics_c7(etas, xs, gamma: float = 1.0) -> np.ndarray:
    """Closed-form metrics over the full chart (omega, phi, c3, c_plus),
    shape (N, 4, 4), at the N rows of xs."""
    xs = np.asarray(xs, dtype=float)
    etas = np.asarray(etas, dtype=complex)
    _, p12, m12, p34, m34 = require_unit_rows(etas)
    g2 = gamma * gamma
    j = _signed_overlap(etas, xs.T[0], xs.T[1])[1]
    return _stacked(
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
        ],
        _batch_shape(etas, xs),
    )


def analytic_metric_c7(
    eta: InitialCoefficients, xi, gamma: float = 1.0
) -> MetricTensor:
    """Closed-form metric over the full chart (omega, phi, c3, c_plus) at
    one point: the one-row case of analytic_metrics_c7."""
    return MetricTensor(analytic_metrics_c7(eta.as_array(), xi, gamma), CASE_CHARTS["C7"])


def _theta_from_j(p12, j) -> np.ndarray:
    """Polar angle theta of the (eta1, eta2) sector from eta12_plus and the
    signed J: J = (eta12_plus/2) cos theta."""
    return np.arccos(np.clip(2.0 * j / p12, -1.0, 1.0))


def analytic_metrics_case(f: StateFamily, xs, gamma: float = 1.0, etas=None) -> np.ndarray:
    """Per-case closed-form metrics, shape (N, dim, dim), at the N rows of xs,
    in the coordinates of the printed forms (CLOSED_FORM_CHARTS; see
    analytic_metric_case).  etas, coefficient rows as above, stands in for
    f.eta; its rows must be unit-norm (model.require_unit_rows), else
    ValueError, and classify as f.case (model.classify_rows), else
    CaseMismatchError or the error classify raises for the first row that
    does not."""
    xs = np.asarray(xs, dtype=float)
    given = etas is not None
    etas = np.asarray(etas, dtype=complex) if given else f.eta.as_array()
    a2, p12, m12, p34, m34 = require_unit_rows(etas)
    if given and (found := classify_rows(etas)) != f.case:
        raise CaseMismatchError(f"coefficient rows classify as {found}, not {f.case}")
    n = _batch_shape(etas, xs)
    g2 = gamma * gamma
    label = f.case.label
    if label in ("C3", "C5", "C7"):
        theta = _theta_from_j(p12, _signed_overlap(etas, xs.T[0], xs.T[1])[1])
    if label == "C1":
        return _diagonal([g2 * (p34 - m34 * m34)], n)
    if label == "C2":
        return _diagonal([g2 / 4.0], n)
    if label == "C3":
        return _diagonal([g2 * p12 / 4.0, g2 * p12 * np.sin(theta) ** 2 / 4.0], n)
    if label == "C4":
        al2 = a2.T[f.case.l - 1]
        aj2 = a2.T[f.case.j - 1]
        return _diagonal([g2 * al2 / 4.0, 9.0 * g2 * al2 * aj2], n)
    if label == "C5":
        aj2 = a2.T[f.case.j - 1]
        return _diagonal(
            [
                g2 * p12 / 4.0,
                g2 * p12 * np.sin(theta) ** 2 / 4.0,
                4.0 * g2 * p12 * aj2,
            ],
            n,
        )
    if label == "C6":
        al2 = a2.T[f.case.l - 1]
        s = p34 - m34 * m34
        return _diagonal(
            [
                g2 * al2 / 4.0,
                4.0 * g2 * al2 * (p34 * p34 - m34 * m34) / s,
                g2 * s,
            ],
            n,
        )
    if label == "C7":
        s = p34 - m34 * m34
        return _diagonal(
            [
                g2 * p12 / 4.0,
                g2 * p12 * np.sin(theta) ** 2 / 4.0,
                4.0 * g2 * p12 * (p34 * p34 - m34 * m34) / s,
                g2 * s,
            ],
            n,
        )
    raise ValueError(f"unsupported case {label!r}")


def analytic_metric_case(
    f: StateFamily, xi, gamma: float = 1.0
) -> MetricTensor:
    """Per-case closed-form metric at one point, in the coordinates of the
    printed form: the one-row case of analytic_metrics_case.

    C1/C2/C4 use the family chart itself; C3/C5/C7 are quoted in the
    diagonalizing coordinates (theta, phi', ...) and C6 in (phi, c', c_plus').
    The C4 g_cc, C5 g_c'c' and C6 g_c'c' values are returned exactly as
    cataloged even though the numeric oracle measures 1/9, 1/4 and 1/4 of
    them respectively (see the metric verification report).
    """
    g = analytic_metrics_case(f, xi, gamma)
    return MetricTensor(g, CLOSED_FORM_CHARTS[f.case.label])


@dataclass(frozen=True)
class DiagonalizingTransform:
    """Coefficients of the metric-diagonalizing coordinate change

        omega = omega',  phi = k1 omega' + phi',
        c3 = k2 omega' + k3 phi' + c3',  c_plus = k4 c3' + c_plus',

    with the substitution J = (eta12_plus/2) cos(theta) replacing omega' by
    theta.  k1..k3 are evaluated at the working point because J depends on
    omega there.  Each holds one value per point of diagonalize_metrics.
    """

    k1: float
    k2: float
    k3: float
    k4: float


def diagonalize_metrics(etas, omega, phi) -> DiagonalizingTransform:
    """Transform coefficients k1..k4 at each chart point (omega, phi), one
    per coefficient row; omega and phi are arrays of one value per point, or
    scalars.  Raises ValueError for a row that is not unit-norm
    (model.require_unit_rows) and SingularTransformError, naming the first
    singular point's denominators, if any denominator is below 1e-14 in
    magnitude."""
    etas = np.asarray(etas, dtype=complex)
    _, p12, m12, p34, m34 = require_unit_rows(etas)
    j = _signed_overlap(etas, omega, phi)[1]
    d12, d34 = np.broadcast_arrays(4.0 * j * j - p12 * p12, p34 - m34 * m34)
    singular = (np.abs(d12) < 1e-14) | (np.abs(d34) < 1e-14)
    if singular.any():
        k = np.unravel_index(np.argmax(singular), singular.shape)
        raise SingularTransformError(
            f"transform singular: 4J^2-(eta12+)^2 = {d12[k]:.3e}, "
            f"eta34+-(eta34-)^2 = {d34[k]:.3e}"
        )
    return DiagonalizingTransform(
        k1=4.0 * m12 * j / d12,
        k2=p12 * m12 / (2.0 * d12),
        k3=j / (2.0 * p12),
        k4=2.0 * p12 * m34 / d34,
    )


def pushforwards_c7(etas, xs, gamma: float = 1.0) -> np.ndarray:
    """The closed-form C7 metrics pushed through the diagonalizing transform,
    shape (N, 4, 4), at the N rows of xs.

    The Jacobian uses the frozen k-coefficients together with
    d omega/d theta = eta12_plus sin(theta)/(4K); the result should be the
    diagonal tensor of analytic_metric_case for C7.  Raises ValueError for
    a row that is not unit-norm and SingularTransformError if the
    transform is singular at any point (both from diagonalize_metrics) or
    K vanishes there.
    """
    xs = np.asarray(xs, dtype=float)
    etas = np.asarray(etas, dtype=complex)
    omega, phi = xs.T[0], xs.T[1]
    t = diagonalize_metrics(etas, omega, phi)
    g = analytic_metrics_c7(etas, xs, gamma)
    p12 = require_unit_rows(etas)[1]
    k_re, j = _signed_overlap(etas, omega, phi)
    theta = _theta_from_j(p12, j)
    if (np.abs(k_re) < 1e-14).any():
        raise SingularTransformError("K = Re(eta1 eta2* e^{-2i omega}) vanishes")
    domega_dtheta = p12 * np.sin(theta) / (4.0 * k_re)
    # columns: (theta, phi', c3', c_plus'); rows: (omega, phi, c3, c_plus)
    jac = _stacked(
        [
            [domega_dtheta, 0.0, 0.0, 0.0],
            [t.k1 * domega_dtheta, 1.0, 0.0, 0.0],
            [t.k2 * domega_dtheta, t.k3, 1.0, 0.0],
            [0.0, 0.0, t.k4, 1.0],
        ],
        _batch_shape(etas, xs),
    )
    return jac.swapaxes(-1, -2) @ g @ jac


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
    return MetricTensor(g, ("omega", "c_plus"))


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
        return self.twist(xs, self.base.states(xs))

    def twist(self, xs, states):
        """The base family's states at the rows of xs, given as states,
        times e^{i lam(xs)}."""
        lam = np.asarray(self.lam(xs), dtype=float)
        if lam.shape != (len(xs),):
            raise ValueError(f"phase function returned shape {lam.shape}, not ({len(xs)},)")
        return np.exp(1j * lam)[:, None] * states


def phase_twisted(family, lam) -> _PhaseTwistedFamily:
    """family with every state multiplied by e^{i lam(xs)}; lam maps an
    (N, dim) batch of chart points to N phases."""
    return _PhaseTwistedFamily(family, lam)
