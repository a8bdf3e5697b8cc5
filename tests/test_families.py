import math

import numpy as np
import pytest

from qorbits.errors import CaseMismatchError
from qorbits.families import (
    PERIODICITY_SHIFTS,
    check_periodicity,
    evolved_state,
    family_for_case,
)
from qorbits.model import CaseClass, InitialCoefficients, classify

from conftest import random_eta

S2 = 1 / math.sqrt(2)


def aligned(u, v):
    """Max deviation of u from v after removing a global phase."""
    overlap = np.vdot(v, u)
    return np.max(np.abs(u - v * np.exp(1j * np.angle(overlap))))


def test_evolved_state_stationary_eigenstate():
    eta = InitialCoefficients(0, 0, 1, 0)
    st = evolved_state(eta, (0.3, 0.1, 0.9, 0.2))
    assert aligned(st, np.array([0, S2, S2, 0])) < 1e-15


def test_evolved_state_c1_shift_phase():
    eta = InitialCoefficients(0, 0, S2, S2)
    base = (0.7, 0.3, 0.2, 0.4)
    shifted = (0.7, 0.3, 0.2, 0.4 + math.pi)
    s0 = evolved_state(eta, base)
    s1 = evolved_state(eta, shifted)
    assert np.max(np.abs(s1 + s0)) < 1e-14  # global phase -1


def test_evolved_state_c7_quarter_shift_phase_i():
    eta = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
    s0 = evolved_state(eta, (0.7, 0.3, 0.2, 0.4))
    s1 = evolved_state(eta, (0.7 + math.pi, 0.3, 0.2 + math.pi / 2, 0.4))
    assert np.max(np.abs(s1 - 1j * s0)) < 1e-14


def test_family_c2_is_the_phi_eigenvector():
    from qorbits.hamiltonian import eigvec_pair

    eta = InitialCoefficients(1, 0, 0, 0)
    f = family_for_case(classify(eta), eta)
    assert f.chart == ("phi",)
    for phi in (0.0, 0.4, -1.2):
        assert aligned(f.state([phi]), eigvec_pair(phi)[0]) < 1e-15


def test_family_c4_matches_general_evolution():
    # C4 (l=1, j=3): the two-coordinate family agrees with the full evolved
    # state at c = 2 c3 - c_plus + omega, up to a global phase
    eta = InitialCoefficients(S2, 0, S2, 0)
    case = classify(eta)
    assert (case.l, case.j) == (1, 3)
    f = family_for_case(case, eta)
    omega, phi, c3, c_plus = 0.8, 0.35, 0.2, 0.6
    c = 2 * c3 - c_plus + omega
    st_family = f.state([phi, c])
    st_full = evolved_state(eta, (omega, phi, c3, c_plus))
    assert aligned(st_family, st_full) < 1e-14


def test_family_c6_matches_general_evolution():
    eta = InitialCoefficients.normalized(0.6, 0, 0.5, 0.4)
    case = classify(eta)
    assert case.l == 1
    f = family_for_case(case, eta)
    omega, phi, c3, c_plus = 0.9, -0.4, 0.15, 0.7
    c = 2 * c3 + omega
    st_family = f.state([phi, c, c_plus])
    st_full = evolved_state(eta, (omega, phi, c3, c_plus))
    assert aligned(st_family, st_full) < 1e-14


def test_family_c7_equals_evolved_state(rng):
    eta = random_eta(rng, "C7")
    f = family_for_case(classify(eta), eta)
    for _ in range(5):
        xi = rng.uniform(-2, 2, size=4)
        assert np.allclose(f.state(xi), evolved_state(eta, xi))


def test_family_norm_preserved(rng):
    for pattern in ("C1", "C2", "C3", "C4", "C5", "C6", "C7"):
        eta = random_eta(rng, pattern)
        f = family_for_case(classify(eta), eta)
        for _ in range(10):
            xi = rng.uniform(-3, 3, size=f.dim)
            assert abs(np.linalg.norm(f.state(xi)) - 1) < 1e-12


def test_family_case_mismatch_rejected():
    eta = InitialCoefficients(1, 0, 0, 0)
    with pytest.raises(CaseMismatchError):
        family_for_case(CaseClass("C3"), eta)


@pytest.mark.parametrize("pattern", ["C1", "C2", "C3", "C4", "C5", "C6", "C7"])
def test_periodicity_all_cases(pattern, rng):
    eta = random_eta(rng, pattern)
    f = family_for_case(classify(eta), eta)
    report = check_periodicity(f, n_points=20, rng=rng)
    assert len(report.checks) == len(PERIODICITY_SHIFTS[pattern])
    for chk in report.checks:
        assert chk.max_phase_error < 1e-10, (pattern, chk.shift)
        assert chk.min_fidelity > 1 - 1e-10


def test_periodicity_c1_equal_coefficients():
    eta = InitialCoefficients(0, 0, S2, S2)
    f = family_for_case(classify(eta), eta)
    report = check_periodicity(f)
    assert all(c.min_fidelity > 1 - 1e-12 for c in report.checks)


def test_periodicity_requires_unperturbed():
    eta = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
    f = family_for_case(classify(eta), eta, beta=1e-3)
    with pytest.raises(ValueError):
        check_periodicity(f)


def test_perturbed_family_renormalized(rng):
    eta = random_eta(rng, "C7")
    f = family_for_case(classify(eta), eta, beta=5e-3)
    for _ in range(5):
        xi = rng.uniform(-1, 1, size=4)
        assert abs(np.linalg.norm(f.state(xi)) - 1) < 1e-12


def test_perturbed_family_beta_zero_matches():
    eta = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
    f0 = family_for_case(classify(eta), eta)
    fb = family_for_case(classify(eta), eta, beta=1e-5)
    xi = np.array([0.7, 0.3, 0.2, 0.4])
    assert np.max(np.abs(f0.state(xi) - fb.state(xi))) < 1e-3
    assert np.max(np.abs(f0.state(xi) - fb.state(xi))) > 0  # beta does act


def test_reduced_family_uses_frozen_references():
    # C1 under perturbation needs omega/c3/phi references for the corrected
    # eigenvectors; different references give different states
    eta = InitialCoefficients(0, 0, S2, S2)
    case = classify(eta)
    f1 = family_for_case(case, eta, beta=1e-2, frozen={"c3": 0.3, "omega": 0.9})
    f2 = family_for_case(case, eta, beta=1e-2, frozen={"c3": 0.8, "omega": 0.9})
    xi = np.array([0.4])
    assert np.max(np.abs(f1.state(xi) - f2.state(xi))) > 1e-5


def test_perturbed_family_continuous_at_negative_omega():
    # the first-order basis attaches each correction to the eigenvector whose
    # phase it multiplies for either sign of the chart omega, so the
    # perturbed family tends to the unperturbed one as beta -> 0
    eta = InitialCoefficients.normalized(0.6, 0.3 + 0.2j, 0.5, 0.4j)
    f0 = family_for_case(classify(eta), eta)
    fb = family_for_case(classify(eta), eta, beta=1e-7)
    for omega in (-0.7, 0.7):
        xi = np.array([omega, 0.3, 0.2, 0.4])
        assert np.max(np.abs(f0.state(xi) - fb.state(xi))) < 1e-6, omega
