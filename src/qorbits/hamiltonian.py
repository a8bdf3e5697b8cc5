"""Two-qubit Hamiltonian matrices, exact and numeric eigensystems, and
first-order perturbed eigenstates.

Basis ordering throughout: |uu>, |ud>, |du>, |dd> with u/d the sigma_3
eigenstates of each qubit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChartError, ResonanceError
from .model import DerivedParams, HamiltonianParams, derive_params

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

# Bell-type stationary eigenvectors (|ud> +- |du>)/sqrt(2)
PSI3 = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
PSI4 = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)

_BELL_ROWS = np.array([PSI3, PSI4])

HERMITICITY_TOL = 1e-14

# Default resonance threshold on the perturbation denominators 2c3 +- omega - c_plus
RESONANCE_THRESHOLD = 1e-6


def build_hamiltonian(p: HamiltonianParams) -> np.ndarray:
    """Assemble b(s3 x 1 + 1 x s3) + sum_j c_j s_j x s_j + beta(s1 x 1 + 1 x s1)."""
    h = p.b * (np.kron(SIGMA_3, ID2) + np.kron(ID2, SIGMA_3))
    h = h + p.c1 * np.kron(SIGMA_1, SIGMA_1)
    h = h + p.c2 * np.kron(SIGMA_2, SIGMA_2)
    h = h + p.c3 * np.kron(SIGMA_3, SIGMA_3)
    if p.beta != 0.0:
        h = h + p.beta * (np.kron(SIGMA_1, ID2) + np.kron(ID2, SIGMA_1))
    return h


@dataclass(frozen=True)
class Spectrum:
    """Energies E1..E4 and eigenvectors psi1..psi4 (rows of `states`)."""

    energies: np.ndarray
    states: np.ndarray

    def residuals(self, h: np.ndarray) -> np.ndarray:
        """||H psi_k - E_k psi_k|| for each k."""
        return np.array(
            [
                np.linalg.norm(h @ self.states[k] - self.energies[k] * self.states[k])
                for k in range(len(self.energies))
            ]
        )


# cos(phi) values down to this are snapped onto the principal branch, so that
# float pi/2-multiples land on the declared branch rather than on rounding
# noise of cos.
BRANCH_SNAP = -1e-12


def branch_sign(phi):
    """+1 on the closed principal branch cos(phi) >= 0, -1 elsewhere; phi may
    be a float or an array."""
    return 1.0 - 2.0 * (np.cos(phi) < BRANCH_SNAP)


def half_angles(phi):
    """s = branch_sign(phi), sqrt((1 + sin phi)/2) = |cos u| and
    sqrt((1 - sin phi)/2) = |sin u|, u = phi/2 - pi/4, which do not cancel:
    psi1 = (s|cos u|, 0, 0, |sin u|), psi2 = (s|sin u|, 0, 0, -|cos u|)."""
    u = 0.5 * np.asarray(phi, dtype=float) - 0.25 * math.pi
    return branch_sign(phi), np.abs(np.cos(u)), np.abs(np.sin(u))


def eigenbases(phi) -> np.ndarray:
    """Eigenvector rows psi1..psi4 at each of an (N,) array of angles, shape
    (N, 4, 4).

    psi1, psi2 live in span(|uu>, |dd>) and are evaluated in the form
    psi1 = (s*sqrt(1+sin phi), 0, 0, sqrt(1-sin phi))/sqrt(2) with
    s = sign(cos phi), which equals the cos(phi)/sqrt(1 -+ sin phi)
    representation wherever the latter is defined and stays finite at the
    pure-field limit |sin phi| -> 1.
    """
    s, cu, su = half_angles(phi)
    bases = np.zeros(np.shape(phi) + (4, 4), dtype=complex)
    bases[..., 0, 0], bases[..., 0, 3] = s * cu, su
    bases[..., 1, 0], bases[..., 1, 3] = s * su, -cu
    bases[..., 2:, :] = _BELL_ROWS
    return bases


def eigvec_pair(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors psi1, psi2 living in span(|uu>, |dd>); see eigenbases."""
    psi1, psi2 = eigenbases(np.array([phi]))[0, :2]
    return psi1, psi2


def analytic_energies(d: DerivedParams, c3: float) -> np.ndarray:
    return np.array(
        [c3 + d.omega, c3 - d.omega, -c3 + d.c_plus, -c3 - d.c_plus]
    )


def analytic_spectrum(p: HamiltonianParams) -> Spectrum:
    """Exact eigensystem of the unperturbed Hamiltonian (beta ignored)."""
    d = derive_params(p)
    if d.degenerate:
        raise DegenerateChartError(
            "omega = 0 (b = 0 and c1 = c2): phi is undefined"
        )
    psi1, psi2 = eigvec_pair(d.phi)
    states = np.array([psi1, psi2, PSI3, PSI4])
    return Spectrum(analytic_energies(d, p.c3), states)


def numeric_spectrum(h: np.ndarray) -> Spectrum:
    """Oracle eigensystem by LAPACK (np.linalg.eigh); eigenvalues ascending.
    eigh reads one triangle only, so a non-Hermitian matrix is refused here."""
    h = np.asarray(h)
    if np.linalg.norm(h - h.conj().T) > HERMITICITY_TOL * max(1.0, np.linalg.norm(h)):
        raise ValueError("matrix is not Hermitian")
    evals, evecs = np.linalg.eigh(h)
    return Spectrum(evals, evecs.T)


def match_states(reference: np.ndarray, candidates: np.ndarray) -> list[int]:
    """Match each reference vector, in order, to the untaken candidate of
    largest overlap |<cand|ref>|, which gives a permutation.  For eigenbases
    of one two-qubit Hamiltonian, matched states have equal energies; within
    a degenerate eigenspace the match is not unique, and a plain argmax per
    reference can repeat an index there."""
    matches: list[int] = []
    for ref in reference:
        overlaps = np.abs(candidates @ ref.conj())
        matches.append(next(int(k) for k in np.argsort(-overlaps) if k not in matches))
    return matches


def perturbation_denominators(omega: float, c3: float, c_plus: float):
    """The two energy denominators 2c3 + omega - c_plus and 2c3 - omega - c_plus."""
    return 2.0 * c3 + omega - c_plus, 2.0 * c3 - omega - c_plus


# Gradients of the denominators 2c3 + omega - c_plus and 2c3 - omega - c_plus
# over (omega, phi, c3, c_plus), one row each.
_DDEN = np.array([[1.0, 0.0, 2.0, -1.0], [-1.0, 0.0, 2.0, -1.0]])


def check_denominators(den1, den2):
    """Raise ResonanceError if either perturbation_denominators value
    (floats or (N,) arrays) lies within RESONANCE_THRESHOLD of 0."""
    den1, den2 = np.atleast_1d(den1, den2)
    near = np.minimum(np.abs(den1), np.abs(den2))
    if np.any(near < RESONANCE_THRESHOLD):
        k = int(np.argmin(near))
        raise ResonanceError(f"perturbation-theory breakdown: denominators ({den1[k]:.3e}, "
                             f"{den2[k]:.3e}) below threshold {RESONANCE_THRESHOLD:.1e}")


def couplings(den1, den2, s, cu, su):
    """Couplings k1, k2 of psi1, psi2 to psi3 under the x-field from the
    perturbation_denominators (after check_denominators) and half_angles."""
    check_denominators(den1, den2)
    # <psi3|V|psi_l> = sqrt(2) (a_l + d_l) for the x-field perturbation V
    return math.sqrt(2) * (s * cu + su) / den1, math.sqrt(2) * (s * su - cu) / den2


def normalize_jet(v, *partials):
    """u = v/|v| over the last axis and the partials of u, one for each
    array of partials of v given, the component axis last: dv of shape
    v.shape[:-1] + (C, K), one row per partial, and d2v of shape
    v.shape[:-1] + (C, C, K).  With p_c = Re<u|dv_c>,

        du_c = (dv_c - u p_c)/|v|
        d2u_cd = (d2v_cd - du_c p_d - du_d p_c - u (Re<du_d|dv_c> + Re<u|d2v_cd>))/|v|

    Returns a tuple of 1 + len(partials) arrays."""
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    u = v / norm
    if not partials:
        return (u,)
    dv = partials[0]
    p = (dv @ u.conj()[..., None]).real
    du = (dv - p * u[..., None, :]) / norm[..., None]
    if len(partials) == 1:
        return u, du
    d2v = partials[1]
    q = (dv @ du.conj().swapaxes(-1, -2)).real + (d2v @ u.conj()[..., None, :, None])[..., 0].real
    d2u = (d2v - du[..., :, None, :] * p[..., None, :, :] - du[..., None, :, :] * p[..., None]
           - u[..., None, None, :] * q[..., None])
    return u, du, d2u / norm[..., None, None]


def _coupling_rows(k1, k2):
    """The rows of k1 C1 + k2 C2 over the frame (psi1, psi2, PSI3, PSI4),
    where C_l couples psi_l to PSI3, for couplings of shape (N,) + S: shape
    (N, 4) + S + (4,)."""
    rows = np.zeros(k1.shape[:1] + (4,) + k1.shape[1:] + (4,))
    rows[:, 0, ..., 2], rows[:, 1, ..., 2] = k1, k2
    rows[:, 2, ..., 0], rows[:, 2, ..., 1] = -k1, -k2
    return rows


def first_order_rows(omega, phi, c3, c_plus, beta: float, order: int = 0) -> tuple:
    """The eigenvector rows corrected to first order in the x-field
    beta(s1 x 1 + 1 x s1), as real coefficients over the unperturbed frame
    e = eigenbases(phi), at chart points given as (N,) arrays: the rows of
    I + beta (k1 C1 + k2 C2),

        psi1 + beta k1 PSI3,   psi2 + beta k2 PSI3,
        PSI3 - beta (k1 psi1 + k2 psi2),   PSI4,

    each normalized, and their exact partials along (omega, phi, c3,
    c_plus) with the frame held fixed, up to the given order: order + 1
    arrays of shapes (N, 4) + (4,) * k + (4,), indexed (point, row,
    coordinate, ..., frame component).  The perturbed eigenbasis is
    rows @ e.  Raises ResonanceError if any point has a denominator
    2c3 +- omega - c_plus within RESONANCE_THRESHOLD.
    """
    s, cu, su = half_angles(phi)
    den = np.array(perturbation_denominators(omega, c3, c_plus))
    k = np.array(couplings(*den, s, cu, su))
    jet = [np.eye(4) + beta * _coupling_rows(*k)]
    if order >= 1:
        # k = num/den with constant denominator gradients; along phi the
        # numerators turn as the frame does, num' = (s/2)(num2, -num1)
        dk = -k[..., None] * _DDEN[:, None] / den[..., None]
        dk[..., 1] += 0.5 * s * np.array([k[1] * den[1], -k[0] * den[0]]) / den
        jet.append(beta * _coupling_rows(*dk))
    if order >= 2:
        # d2k = (d2num - dk dden - dden dk)/den with d2num = -num/4 on phi phi
        d2k = -(dk[..., :, None] * _DDEN[:, None, None] + _DDEN[:, None, :, None] * dk[..., None, :])
        d2k /= den[..., None, None]
        d2k[..., 1, 1] -= 0.25 * k
        jet.append(beta * _coupling_rows(*d2k))
    return normalize_jet(*jet)


def perturbed_eigenstates(p: HamiltonianParams) -> Spectrum:
    """First-order eigenvectors of H + beta(s1 x 1 + 1 x s1) at beta = p.beta,
    energies unchanged."""
    spec = analytic_spectrum(p)
    if p.beta == 0.0:
        return spec
    d = derive_params(p)
    rows = first_order_rows(
        np.array([d.omega]), np.array([d.phi]), np.array([p.c3]),
        np.array([d.c_plus]), p.beta,
    )[0][0]
    return Spectrum(spec.energies.copy(), rows @ spec.states)
