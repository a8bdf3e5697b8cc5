import dataclasses
import math

import numpy as np
import pytest

from qorbits.errors import DegenerateChartError, ResonanceError
from qorbits.hamiltonian import (
    BRANCH_SNAP,
    PSI3,
    PSI4,
    analytic_spectrum,
    branch_sign,
    build_hamiltonian,
    couplings,
    eigenbases,
    eigvec_pair,
    first_order_rows,
    half_angles,
    match_states,
    numeric_spectrum,
    perturbation_denominators,
    perturbed_eigenstates,
)
from qorbits.model import HamiltonianParams, derive_params


def test_build_zero():
    h = build_hamiltonian(HamiltonianParams(0, 0, 0, 0))
    assert np.allclose(h, 0)


def test_build_field_only():
    h = build_hamiltonian(HamiltonianParams(1, 0, 0, 0))
    assert np.allclose(h, np.diag([2, 0, 0, -2]))


def test_build_sigma1_coupling():
    h = build_hamiltonian(HamiltonianParams(0, 1, 0, 0))
    assert np.allclose(h, np.fliplr(np.eye(4)))


def test_build_hermitian_and_traceless(rng):
    for _ in range(25):
        b, c1, c2, c3 = rng.uniform(-2, 2, size=4)
        p = HamiltonianParams(b, c1, c2, c3, beta=abs(rng.normal()) * 0.1)
        h = build_hamiltonian(p)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14
        assert abs(np.trace(h)) < 1e-12


def test_analytic_spectrum_residuals_random(rng):
    worst = 0.0
    for _ in range(100):
        b, c1, c2, c3 = rng.uniform(-2, 2, size=4)
        p = HamiltonianParams(b, c1, c2, c3)
        spec = analytic_spectrum(p)
        worst = max(worst, spec.residuals(build_hamiltonian(p)).max())
        # trace identity and pairwise orthonormality
        assert abs(spec.energies.sum()) < 1e-12
        gram = spec.states.conj() @ spec.states.T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10
    assert worst < 1e-10


def test_psi4_for_any_params(rng):
    for _ in range(10):
        b, c1, c2, c3 = rng.uniform(-2, 2, size=4)
        spec = analytic_spectrum(HamiltonianParams(b, c1, c2, c3))
        assert np.allclose(spec.states[3], PSI4)
        assert spec.energies[3] == pytest.approx(-c3 - (c1 + c2), abs=1e-14)


def test_phi_zero_symmetric_eigenvector():
    spec = analytic_spectrum(HamiltonianParams(0, 1, 0, 0))
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    assert np.allclose(spec.states[0], bell)
    assert spec.energies[0] == pytest.approx(1.0)


def test_pure_field_limit_eigenvectors():
    # c_minus = 0 puts phi at +pi/2; the stable forms stay finite
    spec = analytic_spectrum(HamiltonianParams(0.7, 0.5, 0.5, 0.2))
    assert np.allclose(spec.states[0], [1, 0, 0, 0])
    assert np.allclose(spec.states[1], [0, 0, 0, -1])
    h = build_hamiltonian(HamiltonianParams(0.7, 0.5, 0.5, 0.2))
    assert spec.residuals(h).max() < 1e-12


def test_eigvec_pair_matches_printed_form(rng):
    # the s*sqrt(1 +- sin phi) representation equals cos/sqrt on both branches
    for phi in rng.uniform(-np.pi, np.pi, size=40):
        if abs(math.cos(phi)) < 1e-3:
            continue
        psi1, psi2 = eigvec_pair(phi)
        a1 = math.cos(phi) / math.sqrt(1 - math.sin(phi)) / math.sqrt(2)
        d1 = math.sqrt(1 - math.sin(phi)) / math.sqrt(2)
        a2 = math.cos(phi) / math.sqrt(1 + math.sin(phi)) / math.sqrt(2)
        d2 = -math.sqrt(1 + math.sin(phi)) / math.sqrt(2)
        assert abs(psi1[0] - a1) < 1e-12 and abs(psi1[3] - d1) < 1e-12
        assert abs(psi2[0] - a2) < 1e-12 and abs(psi2[3] - d2) < 1e-12


# the frame's turn along phi: psi1' = s psi2/2, psi2' = -s psi1/2, the Bell
# rows constant
_J = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])


def test_eigenbases_turn_matches_central_differences(rng):
    phis = rng.uniform(-np.pi, np.pi, size=200)
    phis = phis[np.abs(np.cos(phis)) > 0.05]
    h = 1e-6
    fd = (eigenbases(phis + h) - eigenbases(phis - h)) / (2 * h)
    turn = 0.5 * branch_sign(phis)[:, None, None] * (_J @ eigenbases(phis))
    assert np.max(np.abs(turn - fd)) < 1e-8


@pytest.mark.parametrize("phi", [math.pi / 2, -math.pi / 2, math.pi / 2 - 0.5 * BRANCH_SNAP],
                         ids=["half_pi", "minus_half_pi", "snap_band"])
def test_eigenbases_turn_at_pure_field_limit(phi):
    # at sin(phi) = +-1 the cos/sqrt(1 -+ sin) form divides by zero, and in
    # the BRANCH_SNAP band the angle sits just past cos(phi) = 0; the turn
    # is the one-sided derivative of the principal branch, which branch_sign
    # picks, taken from inside it
    assert branch_sign(phi) == 1.0
    h = -math.copysign(1e-4, phi)
    e = eigenbases(phi + h * np.arange(3))
    fd = (-3 * e[0] + 4 * e[1] - e[2]) / (2 * h)
    turn = 0.5 * (_J @ e[0])
    assert np.max(np.abs(turn - fd)) < 1e-7
    assert not turn[2:].any()


def test_eigenbases_are_real_orthogonal():
    # the frame the state jets are coefficients over: real, and e e^T = 1,
    # so Hermitian inner products of coefficients are those of the states;
    # on a sweep through both seams cos(phi) = 0, their BRANCH_SNAP bands
    # and +-pi
    seams = [s * math.pi / 2 + d for s in (1, -1) for d in (0.0, 0.5 * BRANCH_SNAP, -0.5 * BRANCH_SNAP,
                                                              -BRANCH_SNAP, BRANCH_SNAP, 1e-9, -1e-9)]
    phis = np.concatenate([np.linspace(-math.pi, math.pi, 401), seams,
                           np.nextafter([math.pi, -math.pi], 0.0)])
    e = eigenbases(phis)
    assert not e.imag.any()
    assert np.max(np.abs(e @ e.transpose(0, 2, 1) - np.eye(4))) <= 1e-15


def test_branch_sign_boundary():
    assert branch_sign(math.pi / 2) == 1.0
    assert branch_sign(3 * math.pi / 2) == 1.0
    assert branch_sign(3.0) == -1.0


def test_degenerate_chart_refused():
    with pytest.raises(DegenerateChartError):
        analytic_spectrum(HamiltonianParams(0, 0.5, 0.5, 0.3))


def test_numeric_spectrum_diag():
    spec = numeric_spectrum(np.diag([2.0, 0.0, 0.0, -2.0]))
    assert np.allclose(spec.energies, [-2, 0, 0, 2])
    assert np.allclose(np.abs(spec.states.conj() @ spec.states.T), np.eye(4), atol=1e-14)


def test_numeric_spectrum_identity():
    spec = numeric_spectrum(np.eye(4, dtype=complex))
    assert np.allclose(spec.energies, 1.0)
    assert np.allclose(spec.states.conj() @ spec.states.T, np.eye(4), atol=1e-14)


def test_numeric_spectrum_residuals_random(rng):
    for _ in range(40):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = a + a.conj().T
        spec = numeric_spectrum(h)
        assert np.all(np.diff(spec.energies) >= 0)
        assert np.max(np.abs(spec.states.conj() @ spec.states.T - np.eye(4))) < 1e-12
        # each row is an eigenvector
        assert np.max(spec.residuals(h)) < 1e-12


def test_numeric_spectrum_rejects_non_hermitian():
    with pytest.raises(ValueError):
        numeric_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_numeric_matches_analytic_energies(rng):
    for _ in range(40):
        b, c1, c2, c3 = rng.uniform(-2, 2, size=4)
        p = HamiltonianParams(b, c1, c2, c3)
        h = build_hamiltonian(p)
        num = numeric_spectrum(h)
        ana = analytic_spectrum(p)
        assert np.max(np.abs(np.sort(ana.energies) - num.energies)) < 1e-12


def test_match_states_overlap():
    p = HamiltonianParams(0.5, 0.8, 0.2, 0.3)
    ana = analytic_spectrum(p)
    num = numeric_spectrum(build_hamiltonian(p))
    perm = match_states(ana.states, num.states)
    for k, idx in enumerate(perm):
        assert abs(np.vdot(num.states[idx], ana.states[k])) > 1 - 1e-10


# (b, c1, c2, c3) with two energies equal: a point where a plain argmax
# over the overlaps repeats an index, and b = 0, c = (1, 0, 0) with
# E = 1, -1, 1, -1
@pytest.mark.parametrize("b, c1, c2, c3", [
    (1.011889936087087, -1.064401170236132, -0.6877917722422513, 0.15316535279716947),
    (0.0, 1.0, 0.0, 0.0),
])
def test_match_states_permutation_at_degenerate_spectrum(b, c1, c2, c3):
    p = HamiltonianParams(b, c1, c2, c3)
    ana = analytic_spectrum(p)
    num = numeric_spectrum(build_hamiltonian(p))
    perm = match_states(ana.states, num.states)
    assert sorted(perm) == list(range(4))
    assert np.max(np.abs(ana.energies - num.energies[perm])) < 1e-12


def test_match_states_energies_on_random_degenerate_spectra(rng):
    # c3 puts one of E = c3 +- omega level with one of -c3 +- c_plus
    for _ in range(200):
        b, c1, c2 = rng.uniform(-2, 2, size=3)
        d = derive_params(HamiltonianParams(b, c1, c2, 0.0))
        c3 = 0.5 * (rng.choice([-1, 1]) * d.c_plus + rng.choice([-1, 1]) * d.omega)
        p = HamiltonianParams(b, c1, c2, c3)
        ana = analytic_spectrum(p)
        num = numeric_spectrum(build_hamiltonian(p))
        perm = match_states(ana.states, num.states)
        assert sorted(perm) == list(range(4))
        assert np.max(np.abs(ana.energies - num.energies[perm])) < 1e-12


@pytest.mark.parametrize("beta", [1e-3, 0.3])
def test_first_order_rows_over_the_frame(rng, beta):
    # rows @ e against the normalized first-order vectors
    # (psi1 + beta k1 PSI3, psi2 + beta k2 PSI3, PSI3 - beta(k1 psi1 + k2 psi2), PSI4)
    # built one point at a time from eigvec_pair and couplings
    omega, phi, c3, c_plus = rng.uniform(-3, 3, size=(4, 40))
    rows = first_order_rows(omega, phi, c3, c_plus, beta)[0]
    assert rows.dtype == float and rows.shape == (40, 4, 4)
    got = rows @ eigenbases(phi)
    for k in range(len(phi)):
        psi1, psi2 = eigvec_pair(phi[k])
        k1, k2 = couplings(*perturbation_denominators(omega[k], c3[k], c_plus[k]),
                           *half_angles(phi[k]))
        want = np.array([psi1 + beta * k1 * PSI3, psi2 + beta * k2 * PSI3,
                         PSI3 - beta * (k1 * psi1 + k2 * psi2), PSI4])
        want /= np.linalg.norm(want, axis=1, keepdims=True)
        assert np.max(np.abs(got[k] - want)) <= 1e-15, k


def test_perturbed_beta_zero_is_analytic():
    p = HamiltonianParams(0.5, 0.8, 0.2, 0.3)
    a = analytic_spectrum(p)
    z = perturbed_eigenstates(p)
    assert np.allclose(a.states, z.states)
    assert np.allclose(a.energies, z.energies)


def test_perturbed_psi4_unchanged():
    p = HamiltonianParams(0.5, 0.8, 0.2, 0.3)
    spec = perturbed_eigenstates(dataclasses.replace(p, beta=0.05))
    assert np.allclose(spec.states[3], PSI4)


def test_perturbed_residual_scales_as_beta_squared():
    # log-log slope of the residual against the exactly perturbed matrix
    p = HamiltonianParams(0.5, 0.8, 0.2, 0.3)
    betas = np.array([1e-2, 1e-3, 1e-4])
    res = []
    for beta in betas:
        pb = dataclasses.replace(p, beta=beta)
        res.append(perturbed_eigenstates(pb).residuals(build_hamiltonian(pb)).max())
    slope = np.polyfit(np.log(betas), np.log(res), 1)[0]
    assert abs(slope - 2.0) < 0.1


def test_perturbed_matches_numeric_eigenvectors():
    # corrected vectors approach the exact ones of H' at O(beta^2)
    p = HamiltonianParams(0.5, 0.8, 0.2, 0.3)
    ks = []
    for beta in (1e-2, 1e-3, 1e-4):
        pb = dataclasses.replace(p, beta=beta)
        num = numeric_spectrum(build_hamiltonian(pb))
        pert = perturbed_eigenstates(pb)
        perm = match_states(pert.states, num.states)
        worst = 0.0
        for k, idx in enumerate(perm):
            overlap = np.vdot(num.states[idx], pert.states[k])
            aligned = num.states[idx] * np.exp(1j * np.angle(overlap))
            worst = max(worst, np.linalg.norm(aligned - pert.states[k]))
        ks.append(worst / beta**2)
    ks = np.array(ks)
    assert np.max(ks) / np.min(ks) < 2.0  # stable prefactor over two decades


def test_perturbed_first_order_energies_vanish(rng):
    # the x-field perturbation has vanishing diagonal in the eigenbasis, so
    # eigenvalues are unchanged at first order; verified against the exact
    # spectrum of H'
    for _ in range(20):
        b, c1, c2, c3 = rng.uniform(-2, 2, size=4)
        p = HamiltonianParams(b, c1, c2, c3)
        spec = analytic_spectrum(p)
        v = build_hamiltonian(HamiltonianParams(0, 0, 0, 0, beta=1.0))
        diag = [abs(np.vdot(s, v @ s)) for s in spec.states]
        assert max(diag) < 1e-13
        beta = 1e-4
        hp = build_hamiltonian(HamiltonianParams(b, c1, c2, c3, beta=beta))
        exact = numeric_spectrum(hp).energies
        assert np.max(np.abs(np.sort(spec.energies) - exact)) < 40 * beta**2


def test_resonance_error():
    # 2 c3 - omega - c_plus = 0 at c3 = 0.5, omega = 0 + ... pick a resonant set
    p = HamiltonianParams(0.0, 0.6, 0.1, 0.5)  # omega=.5, c+=.7, 2c3-w-c+ = -0.2
    perturbed_eigenstates(dataclasses.replace(p, beta=1e-3))  # fine
    resonant = HamiltonianParams(0.0, 0.35, 0.15, 0.35)
    # omega = 0.2, c_plus = 0.5, 2c3 - omega - c_plus = 0
    with pytest.raises(ResonanceError):
        perturbed_eigenstates(dataclasses.replace(resonant, beta=1e-3))
