"""Riemannian curvature: exact for state families by the Gauss equation,
by finite differences over any other metric field; the closed-form
uniform-coefficient example (metric, Ricci, scalar 14/gamma^2), and the long
closed-form scalar curvature of the linearly perturbed metric.

Sign convention: Riemann is

    R^r_{smn} = d_m Gamma^r_{ns} - d_n Gamma^r_{ms}
                + Gamma^r_{ml} Gamma^l_{ns} - Gamma^r_{nl} Gamma^l_{ms},

Ricci its (r, m) contraction; a round 2-sphere of radius r then has scalar
curvature +2/r^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FormulaDomainError, SingularMetricError
from .families import StateFamily
from .fubini_study import _require_finite, _require_scale, _upper_mirror, tangent_fs_metrics

DEFAULT_CURVATURE_STEP = 1e-3
SINGULARITY_TOL = 1e-10
# gauss_curvature forms the normal equations of the tangent frame, so its
# error grows with the metric condition: on random C7 families its scalar
# was within 5.2e-8 (relative) of the closed form up to condition 1e6, and
# up to 0.28 off in [1e9, 1e10) (docs/discrepancies.md).  Above this
# condition its note names the bound in place of "exact".
EXACT_CONDITION_LIMIT = 1e6
# cataloged scalar curvature of the uniform-coefficient example at gamma = 1;
# the scalar is UNIFORM_C7_SCALAR / gamma**2
UNIFORM_C7_SCALAR = 14.0


@dataclass(frozen=True)
class MetricField:
    """Metric tensor as a function of chart coordinates.

    evaluator maps an (N, dim) batch of coordinate vectors to an
    (N, dim, dim) array of metrics in one call.  family, set by from_family,
    is the state family whose Fubini-Study metric (scale gamma) the field
    is; curvature_at then takes the exact Gauss equation.
    """

    dim: int
    evaluator: object
    family: object = None
    gamma: float = 1.0

    def __call__(self, xi) -> np.ndarray:
        """The metric at one point xi, shape (dim, dim): the one-row case of
        metrics."""
        return self.metrics(np.asarray(xi, dtype=float)[None])[0]

    def metrics(self, xs) -> np.ndarray:
        """Metrics at the N rows of xs, shape (N, dim, dim), from one
        evaluator call."""
        xs = np.asarray(xs, dtype=float)
        g = np.asarray(self.evaluator(xs), dtype=float)
        if g.shape != (len(xs), self.dim, self.dim):
            raise ValueError(
                f"evaluator returned shape {g.shape}, not {(len(xs), self.dim, self.dim)}"
            )
        return g

    @classmethod
    def from_family(cls, family, gamma: float = 1.0) -> "MetricField":
        """The Fubini-Study metric field of a StateFamily from its order-1
        frame_jet (tangent_fs_metrics), with exact curvature from its order-2
        frame_jet (gauss_curvature).  Wrap numeric_fs_metrics in a MetricField
        for a finite-difference field; any other family object raises TypeError."""
        if not isinstance(family, StateFamily):
            raise TypeError(
                f"from_family needs a StateFamily, got {type(family).__name__}; "
                "wrap its metrics in a MetricField instead"
            )
        return cls(len(family.chart), lambda xs: tangent_fs_metrics(family, xs, gamma), family, gamma)


@dataclass(frozen=True)
class CurvatureReport:
    point: np.ndarray
    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    h: float
    metric_condition: float
    note: str = ""


def _condition_number(evals, points) -> float:
    """Condition number of the first of stacked metrics with eigenvalues
    evals, shape (N, dim); raises SingularMetricError at the first metric
    with an eigenvalue below SINGULARITY_TOL in magnitude."""
    mags = np.abs(evals)
    smallest = mags.min(axis=1)
    singular = smallest < SINGULARITY_TOL
    if singular.any():
        k = int(singular.argmax())
        raise SingularMetricError(
            f"metric singular at {points[k]}: eigenvalues {evals[k]}"
        )
    return float(mags[0].max() / smallest[0])


@lru_cache(maxsize=None)
def _curvature_stencil(dim: int):
    """The distinct metric points of the curvature stencil and where each
    step reads them.

    A step of k half-units (k = 1 is h/2, k = 2 is h) forms Christoffel
    symbols at the 2 dim + 1 centres 0, +k e_mu, -k e_mu, and reads the
    metrics at centre c at c, c + k e_nu, c - k e_nu, in that order.  Steps 1
    and 2 together read 4 dim^2 + 2 dim + 1 distinct points.

    Returns each distinct point as a centre plus a step from it, both
    integer offsets in units of h/2, and rows, for k = 1 then 2, the
    (2 dim + 1, 2 dim + 1) indices of the metrics read.  A point both steps
    read takes the h/2 step's centre and step, so it is evaluated at the
    same float as when each step had its own stencil: on a finite-difference
    metric field (numeric_fs_metrics) the metric's rounding noise at the h/2
    step dominates the result, and moving its points by an ulp moves a
    curvature by up to 1e-4 relative.
    """
    unit = np.concatenate([np.zeros((1, dim), int), np.eye(dim, dtype=int),
                           -np.eye(dim, dtype=int)])
    n = 2 * dim + 1
    centre = np.concatenate([np.repeat(k * unit, n, axis=0) for k in (1, 2)])
    step = np.concatenate([np.tile(k * unit, (n, 1)) for k in (1, 2)])
    _, first, rows = np.unique(centre + step, axis=0, return_index=True,
                               return_inverse=True)
    return centre[first], step[first], rows.reshape(2, n, n)


def _stencil_tensors(g_all, rows, steps):
    """Christoffel, Riemann, Ricci and scalar at the point for each of the
    steps, stacked along a leading step axis, from the metrics g_all read
    through rows (see _curvature_stencil) with central differences of
    those steps.  The inverse metrics of all Christoffel centres are one
    stacked inverse, and the scalar takes the point's, the first
    centre's."""
    dim = g_all.shape[1]
    gc = g_all[rows]  # (step, centre, neighbour, dim, dim)
    two_h = 2.0 * steps[:, None, None, None, None]
    # dg[k, c, m, l, n] = d_m g_{ln} at centre c
    dg = (gc[:, :, 1:dim + 1] - gc[:, :, dim + 1:]) / two_h
    ginv_c = np.linalg.inv(gc[:, :, 0])
    # Gamma^r_{mn} = 1/2 g^{rl} (d_m g_{ln} + d_n g_{lm} - d_l g_{mn})
    t1 = (ginv_c[:, :, None] @ dg).swapaxes(2, 3)
    t3 = (ginv_c @ dg.reshape(dg.shape[:3] + (-1,))).reshape(dg.shape)
    christoffel = 0.5 * (t1 + t1.swapaxes(3, 4) - t3)
    gamma = christoffel[:, 0]
    # dgamma[k, m, r, n, s] = d_m Gamma^r_{ns}, as [k, r, s, m, n]
    dgamma = ((christoffel[:, 1:dim + 1] - christoffel[:, dim + 1:]) / two_h).transpose(0, 2, 4, 1, 3)
    # gamma_gamma[k, r, s, m, n] = Gamma^r_{ml} Gamma^l_{ns}
    gamma_gamma = (gamma.reshape(len(steps), dim * dim, dim) @ gamma.reshape(len(steps), dim, dim * dim))
    gamma_gamma = gamma_gamma.reshape((len(steps),) + (dim,) * 4).transpose(0, 1, 4, 2, 3)
    # R^r_{smn}
    riemann = dgamma - dgamma.swapaxes(3, 4) + gamma_gamma - gamma_gamma.swapaxes(3, 4)
    ricci = riemann.trace(axis1=1, axis2=3)
    ginv = ginv_c[0, 0]
    scalar = ricci.reshape(len(steps), -1) @ ginv.reshape(-1)
    return gamma, riemann, ricci, scalar


def curvature_at(mf: MetricField, xi, h: float = DEFAULT_CURVATURE_STEP) -> CurvatureReport:
    """Curvature tensors at a point.

    On a family field (MetricField.from_family) they are exact, from
    gauss_curvature, and h is unused.  On any other field they come from
    nested central differences at steps h and h/2, combined as
    (4 T(h/2) - T(h))/3 to remove the leading O(h^2) error; every distinct
    metric of the stencil is evaluated once, in one mf.metrics call.  The
    nested differences divide the metric's rounding error by (h/2)^2: over
    numeric_fs_metrics at its default step the scalar was up to 1.4e-2 off
    gauss_curvature's (C5-C7, beta = 1e-3, scalars 6.6-8.6), so prefer
    MetricField.from_family.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"curvature step h must be finite and positive, got {h}")
    xi = np.asarray(xi, dtype=float)
    if mf.family is not None:
        return gauss_curvature(mf.family, xi, mf.gamma)
    centre, step, rows = _curvature_stencil(mf.dim)
    points = (xi + centre * (0.5 * h)) + step * (0.5 * h)
    g_all = mf.metrics(points)
    # every Christoffel centre, the point itself first
    centres = rows[:, :, 0].ravel()
    cond = _condition_number(np.linalg.eigvalsh(g_all[centres]), points[centres])
    # T(h/2) and T(h) stacked, each (Christoffel, Riemann, Ricci, scalar)
    tensors = _stencil_tensors(g_all, rows, np.array([0.5 * h, h]))
    gam, rie, ric, sca = ((4.0 * t[0] - t[1]) / 3.0 for t in tensors)
    return CurvatureReport(xi, gam, rie, ric, float(sca), h, cond)


def gauss_curvature(family, xi, gamma: float = 1.0) -> CurvatureReport:
    """Exact curvature tensors at a point of a state family's Fubini-Study
    metric gamma^2 Re QGT, from family.frame_jet: the family is a
    submanifold of CP^3, of constant holomorphic sectional curvature
    4/gamma^2, so the Gauss equation gives its curvature from the state and
    its first and second chart partials at the point.  Every quantity below
    is built from Hermitian inner products <.|.>, and the frame_jet
    coefficients stand for the states over a real orthonormal frame e
    (e e^T = 1), so each <.|.> is the same on the coefficients as on the
    states: the states are never formed.

    With P = 1 - |psi><psi|, e_m = P d_m psi, a_m = Im<psi|d_m psi>,
    g + i W = <e|e> and D_mn = P d_m d_n psi - i (a_m e_n + a_n e_m):
    Gamma^r_mn = g^rl Re<e_l|D_mn>, the second fundamental form is
    II_mn = D_mn - Gamma^r_mn e_r, and

        R_rsmn = g_rm g_sn - g_rn g_sm + W_rm W_sn - W_rn W_sm + 2 W_rs W_mn
                 + Re<II_rm|II_sn> - Re<II_rn|II_sm>,

    reported with its first index raised (the module's sign convention).
    The note says "exact" up to metric condition EXACT_CONDITION_LIMIT.
    Raises ValueError for gamma not finite and positive,
    ChartSingularityError for a non-finite partial and SingularMetricError
    for a singular metric.
    """
    _require_scale(gamma)
    xi = np.asarray(xi, dtype=float)
    psi, dpsi, d2psi = family.frame_jet(xi[None], 2)
    dim = dpsi.shape[1]
    if not (np.isfinite(dpsi).all() and np.isfinite(d2psi).all()):
        # coordinate m is named if d_m psi or any d_m d_n psi is not finite
        _require_finite(family, xi[None], np.concatenate([dpsi, d2psi.reshape(1, dim, -1)], axis=2))
    psi, dpsi, d2psi = psi[0], dpsi[0], d2psi[0].reshape(dim * dim, 4)
    overlap = dpsi @ psi.conj()  # <psi|d_m psi>
    e = dpsi - np.multiply.outer(overlap, psi)
    q = e.conj() @ e.T
    g, w = q.real, q.imag
    evals, evecs = np.linalg.eigh(g)
    mags = [abs(gamma * gamma * v) for v in evals.tolist()]
    if min(mags) < SINGULARITY_TOL:
        raise SingularMetricError(f"metric singular at {xi}: eigenvalues {gamma * gamma * evals}")
    cond = max(mags) / min(mags)
    # the inverse from the eigenpairs, then one Newton step, which brings
    # it to the accuracy of an LU inverse
    ginv = (evecs / evals) @ evecs.T
    ginv = 2.0 * ginv - ginv @ g @ ginv
    # D and II have one row per (m, n)
    iae = np.multiply.outer(1j * overlap.imag, e)  # i a_m e_n
    d = (d2psi - np.multiply.outer(d2psi @ psi.conj(), psi)
         - (iae + iae.transpose(1, 0, 2)).reshape(-1, 4))
    christoffel = ginv @ (e.conj() @ d.T).real
    ii = d - christoffel.T @ e
    # g_rm g_sn + W_rm W_sn + Re<II_rm|II_sn> = Re of the products of the
    # rows (q_rm, II_rm), at [(r, m), (s, n)]
    rows = np.concatenate([q.reshape(-1, 1), ii], axis=1)
    prod = (rows.conj() @ rows.T).real.reshape((dim,) * 4).transpose(0, 2, 1, 3)
    lowered = prod - prod.transpose(0, 1, 3, 2) + 2.0 * np.multiply.outer(w, w)
    riemann = (ginv @ lowered.reshape(dim, -1)).reshape((dim,) * 4)
    ricci = riemann.trace(axis1=0, axis2=2)
    scalar = float(ginv.reshape(-1) @ ricci.reshape(-1)) / (gamma * gamma)
    # the scalar is taken before the upper triangle is mirrored, so that
    # Ricci is exactly symmetric
    ricci = ricci.take(_upper_mirror(dim))
    christoffel = christoffel.reshape((dim,) * 3)
    if cond <= EXACT_CONDITION_LIMIT:
        note = "exact: Gauss equation"
    else:
        note = f"Gauss equation, loses digits above metric condition {EXACT_CONDITION_LIMIT:.0e}"
    return CurvatureReport(xi, christoffel, riemann, ricci, scalar, 0.0, cond, note)


def sphere_metric_field(radius: float) -> MetricField:
    """Round 2-sphere diag(r^2, r^2 sin^2 theta) in (theta, phi); R = 2/r^2."""

    def ev(xs):
        g = np.zeros((len(xs), 2, 2))
        g[:, 0, 0] = radius**2
        g[:, 1, 1] = radius**2 * np.sin(xs[:, 0]) ** 2
        return g

    return MetricField(2, ev)


def g0_uniform_metric(omega, alpha12: float, gamma: float = 1.0) -> np.ndarray:
    """Closed-form metric at uniform coefficients |eta_k| = 1/2 in the chart
    (omega, phi, c3, c_plus); alpha12 is the relative phase of the first two
    coefficients entering through sin(alpha12 + 2 omega).  omega is a float,
    giving shape (4, 4), or an array of shape S, giving S + (4, 4)."""
    g2 = gamma * gamma
    u = alpha12 + 2.0 * np.asarray(omega, dtype=float)
    g = np.zeros(u.shape + (4, 4))
    g[..., 0, 0] = g2 / 2.0
    g[..., 1, 1] = g2 * (np.cos(2.0 * u) + 3.0) / 32.0
    g[..., 1, 2] = g[..., 2, 1] = g2 * np.sin(u) / 4.0
    g[..., 2, 2] = g2
    g[..., 3, 3] = g2 / 2.0
    return g


def g0_uniform_ricci(omega: float, alpha12: float) -> np.ndarray:
    """Cataloged Ricci tensor of g0_uniform_metric (scale-free)."""
    u = alpha12 + 2.0 * omega
    return np.array(
        [
            [3.0, 0.0, 0.0, 0.0],
            [0.0, (5.0 * math.cos(2.0 * u) + 7.0) / 16.0, math.sin(u) / 2.0, 0.0],
            [0.0, math.sin(u) / 2.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )


def g0_uniform_field(alpha12: float, gamma: float = 1.0) -> MetricField:
    """g0_uniform_metric as a metric field."""
    return MetricField(4, lambda xs: g0_uniform_metric(xs[:, 0], alpha12, gamma))


def _pert_core(omega: float) -> float:
    """Shared factor 4w sin w + sin w + sin 3w - 4w cos w + cos w - cos 5w."""
    return (
        4 * omega * math.sin(omega)
        + math.sin(omega)
        + math.sin(3 * omega)
        - 4 * omega * math.cos(omega)
        + math.cos(omega)
        - math.cos(5 * omega)
    )


def perturbed_scalar_curvature_closed_form(
    omega: float, beta: float, gamma: float = 1.0
) -> float:
    """Closed-form scalar curvature of the uniform-coefficient manifold under
    the linear x-field perturbation, transcribed verbatim from the catalog.

    The formula is a sum of five rational trigonometric blocks times
    cos(2w)/(gamma^2 (cos 4w + 1)^2).  Vanishing denominators raise
    FormulaDomainError naming the factor.  Its beta = 0 limit is compared
    against the constant 14/gamma^2 elsewhere; agreement is measured, not
    assumed.
    """
    w = omega
    sin, cos = math.sin, math.cos
    outer_den = (cos(4 * w) + 1.0) ** 2
    if abs(outer_den) < 1e-12:
        raise FormulaDomainError("(cos 4w + 1)^2 vanishes (w near pi/4 mod pi/2)")
    core = _pert_core(w)

    a1 = 8 * beta * cos(2 * w) ** 4 * (
        4 * w**2 * sin(w)
        + 6 * (w**2 - 2) * sin(w) * cos(2 * w)
        + 8 * w * cos(3 * w)
    )
    a2 = 6 * beta * w**2 * core + w**4 + w**4 * cos(4 * w)

    b1 = (cos(4 * w) + 1) * (
        beta
        * (
            -16 * w**2 * sin(w)
            + 16 * w**2 * sin(3 * w)
            - 2 * (8 * w**2 + 3 * w - 12) * cos(w)
            - 4 * (4 * w**2 + 9 * w - 1) * cos(3 * w)
            + 5 * w * sin(w)
            + 5 * w * sin(3 * w)
            + w * sin(5 * w)
            + w * sin(7 * w)
            - 4 * sin(w)
            + 24 * sin(3 * w)
            + 4 * sin(7 * w)
            - 6 * w * cos(7 * w)
            + 4 * cos(5 * w)
        )
        + 7 * w**3 * cos(2 * w)
        + w**3 * cos(6 * w)
    )
    b2 = 4 * beta * w * core + w**3 + w**3 * cos(4 * w)

    c1 = 2 * sin(4 * w) * (
        2 * beta * (14 * w**3 + 4 * w**2 - 7 * w + 6) * cos(w)
        - 2
        * beta
        * (
            14 * w**3 * sin(w)
            + 10 * w**3 * sin(3 * w)
            - 12 * w**2 * sin(w)
            + 7 * w**2 * sin(3 * w)
            + 7 * w**2 * sin(7 * w)
            + w**2 * cos(7 * w)
            + (4 * w**2 - 3) * cos(5 * w)
            + (10 * w**3 + 5 * w**2 + 12 * w - 3) * cos(3 * w)
            - w * sin(w)
            - w * sin(7 * w)
            + 3 * sin(w)
            - 6 * sin(3 * w)
            - 3 * sin(7 * w)
            + 5 * w * cos(7 * w)
        )
        + w**4 * sin(2 * w)
        + w**4 * sin(6 * w)
    )
    c2 = 6 * beta * w**2 * core + w**4 + w**4 * cos(4 * w)

    d1 = cos(2 * w) * (
        beta
        * (
            160 * w**2 * sin(w)
            - 152 * w**2 * sin(3 * w)
            + 104 * w**2 * sin(5 * w)
            - 104 * w**2 * cos(5 * w)
            - 2 * (80 * w**2 + 9 * w - 32) * cos(w)
            + (-152 * w**2 + 62 * w + 40) * cos(3 * w)
            + 52 * w * sin(w)
            - 46 * w * sin(3 * w)
            + 42 * w * sin(5 * w)
            + 19 * w * sin(7 * w)
            + 7 * w * sin(9 * w)
            + 16 * sin(3 * w)
            + 16 * sin(5 * w)
            - 54 * w * cos(5 * w)
            - 22 * w * cos(9 * w)
            + 24 * cos(5 * w)
            - 4 * cos(7 * w)
            + 4 * cos(9 * w)
        )
        + 19 * w**3
        + 24 * w**3 * cos(4 * w)
        + 5 * w**3 * cos(8 * w)
    )
    d2 = 6 * beta * w * core + w**3 + w**3 * cos(4 * w)

    e1 = cos(2 * w) * (
        -2 * beta * (40 * w**3 + 21 * w**2 - 44 * w + 6) * cos(w)
        + 2 * beta * (-100 * w**3 + 55 * w**2 + 36 * w - 6) * cos(3 * w)
        + beta
        * (
            80 * w**3 * sin(w)
            - 200 * w**3 * sin(3 * w)
            + 136 * w**3 * sin(5 * w)
            + 24 * w**2 * sin(w)
            - 82 * w**2 * sin(3 * w)
            + 54 * w**2 * sin(5 * w)
            + 25 * w**2 * sin(7 * w)
            + 9 * w**2 * sin(9 * w)
            + (-38 * w**2 + 8 * w + 12) * cos(9 * w)
            - 2 * (68 * w**3 + 31 * w**2 - 12 * w - 6) * cos(5 * w)
            - 16 * w * sin(w)
            + 48 * w * sin(3 * w)
            + 48 * w * sin(5 * w)
            + 16 * w * sin(9 * w)
            - 48 * sin(w)
            + 12 * sin(3 * w)
            - 36 * sin(5 * w)
            - 6 * sin(7 * w)
            - 6 * sin(9 * w)
        )
        + 18 * w**4
        + 24 * w**4 * cos(4 * w)
        + 6 * w**4 * cos(8 * w)
    )
    e2 = 6 * beta * w**2 * core + w**4 + w**4 * cos(4 * w)

    for name, den in (("A2", a2), ("B2", b2), ("C2", c2), ("D2", d2), ("E2", e2)):
        if abs(den) < 1e-300:
            raise FormulaDomainError(f"denominator {name} vanishes at omega={omega}")
    total = a1 / a2 + b1 / b2 + c1 / c2 + d1 / d2 + e1 / e2
    return cos(2 * w) / (gamma**2 * outer_den) * total
