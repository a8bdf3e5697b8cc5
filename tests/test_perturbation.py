import math

import numpy as np
import pytest

from qorbits.errors import NoAdmissiblePointsError, ResonanceError
from qorbits.families import StateFamily, family_for_case
from qorbits.fubini_study import numeric_fs_metric
from qorbits.model import CaseClass, InitialCoefficients, classify
from qorbits.perturbation import (
    audit_metric_correction,
    metric_correction_closed_form,
    numeric_beta_derivative,
    perturbation_aux,
    perturbed_metric_analytic,
)

from conftest import random_eta

CHART = ("omega", "phi", "c3", "c_plus")


def resonance_free_point(rng, margin=0.2):
    while True:
        xi = np.array(
            [
                rng.uniform(0.4, 1.6),
                rng.uniform(-1.2, 1.2),
                rng.uniform(-1.4, 1.4),
                rng.uniform(-1.4, 1.4),
            ]
        )
        d1 = 2 * xi[2] + xi[0] - xi[3]
        d2 = 2 * xi[2] - xi[0] - xi[3]
        if min(abs(d1), abs(d2)) > margin and math.cos(xi[1]) > 0.1:
            return xi


def test_aux_identities(rng):
    # X_pm times its denominator reproduces the shared numerators, and the
    # denominator factorizes through the Y denominators
    for _ in range(100):
        omega = rng.uniform(0.2, 2.0)
        phi = rng.uniform(-1.4, 1.4)
        c3 = rng.uniform(-1.5, 1.5)
        cp = rng.uniform(-1.5, 1.5)
        d = 2 * c3 - cp
        if min(abs(d + omega), abs(d - omega), abs(d * d - omega**2)) < 1e-2:
            continue
        aux = perturbation_aux(omega, phi, c3, cp)
        n_plus = math.sqrt(1 - math.sin(phi)) + math.sqrt(1 + math.sin(phi))
        n_minus = math.sqrt(1 - math.sin(phi)) - math.sqrt(1 + math.sin(phi))
        recon = aux.x_plus * (d + omega) ** 2 * (d - omega) ** 2 / (d * d - omega**2)
        assert abs(recon - n_plus) < 1e-10
        assert abs(aux.y_plus * (d + omega) ** 2 - n_plus) < 1e-12
        assert abs(aux.y_minus * (d - omega) ** 2 - n_minus) < 1e-12


def test_beta_zero_shortcut(rng):
    eta = random_eta(rng, "C7")
    xi = resonance_free_point(rng)
    pm = perturbed_metric_analytic(eta, xi, beta=0.0)
    assert pm.beta == 0.0
    assert np.all(pm.correction == 0)
    assert np.allclose(pm.entries, pm.base.entries)


def test_resonance_raises():
    eta = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
    xi = np.array([0.6, 0.3, 0.5, 0.4])  # 2c3 - omega - c_plus = 0
    with pytest.raises(ResonanceError):
        perturbed_metric_analytic(eta, xi, beta=1e-4)


def test_correction_vanishes_for_c1_to_c3_closed_form():
    # eta1 eta3* and eta2 eta3* vanish identically for these patterns
    for vals in ((0, 0, 0.8, 0.6), (1, 0, 0, 0), (0.8, 0.6, 0, 0)):
        eta = InitialCoefficients.normalized(*vals)
        h = metric_correction_closed_form(eta, np.array([0.7, 0.3, 0.2, 0.4]))
        assert np.all(h == 0.0)


def test_correction_vanishes_for_eta4_c4_patterns():
    # the perturbation annihilates the singlet eigenvector, so the pairs
    # involving eta4 are untouched; note the (eta2, eta3) pair is NOT in this
    # list: the printed corrections themselves are nonzero there (the
    # catalog's prose claims otherwise, refuted by its own formulas and the
    # numeric oracle)
    for vals in ((0, 0.8, 0, 0.6), (0.8, 0, 0, 0.6)):
        eta = InitialCoefficients.normalized(*vals)
        h = metric_correction_closed_form(eta, np.array([0.7, 0.3, 0.2, 0.4]))
        assert np.all(h == 0.0)
    eta23 = InitialCoefficients.normalized(0, 0.8, 0.6, 0)
    h23 = metric_correction_closed_form(eta23, np.array([0.7, 0.3, 0.2, 0.4]))
    assert np.max(np.abs(h23)) > 1e-3


def test_correction_vanishes_numerically_for_unmodified_cases(rng):
    # central beta-difference of the numeric metric at beta = 1e-2: even-order
    # contributions cancel exactly by sector orthogonality, leaving pure
    # finite-difference noise
    beta = 1e-2
    for pattern, vals in (
        ("C1", (0, 0, 0.8, 0.6)),
        ("C2", (1, 0, 0, 0)),
        ("C3", (0.8, 0.6, 0, 0)),
        ("C4(1,4)", (0.8, 0, 0, 0.6)),
        ("C4(2,4)", (0, 0.8, 0, 0.6)),
    ):
        eta = InitialCoefficients.normalized(*vals)
        case = classify(eta)
        f_plus = family_for_case(case, eta, beta=beta)
        f_minus = family_for_case(case, eta, beta=-beta)
        xi = rng.uniform(0.3, 1.0, size=f_plus.dim)
        gp = numeric_fs_metric(f_plus, xi).entries
        gm = numeric_fs_metric(f_minus, xi).entries
        dgdb = np.max(np.abs(gp - gm)) / (2 * beta)
        assert dgdb < 1e-9, (pattern, dgdb)


@pytest.mark.parametrize("vals", [(0.8, 0, 0.6, 0), (0, 0.8, 0.6, 0)])
def test_modified_c4_patterns_have_first_order_correction(vals, rng):
    # both eta3-pairs couple through the perturbation (the triplet Bell
    # eigenvector links to each of the span(uu, dd) eigenvectors)
    eta = InitialCoefficients.normalized(*vals)
    case = classify(eta)
    beta = 1e-2
    fp = family_for_case(case, eta, beta=beta)
    fm = family_for_case(case, eta, beta=-beta)
    xi = np.array([0.4, 0.8])
    dgdb = np.max(
        np.abs(numeric_fs_metric(fp, xi).entries - numeric_fs_metric(fm, xi).entries)
    ) / (2 * beta)
    assert dgdb > 1e-3


def test_numeric_perturbed_metric_beta_zero(rng):
    eta = random_eta(rng, "C7")
    f0 = family_for_case(classify(eta), eta, beta=0.0)
    xi = resonance_free_point(rng)
    g0 = numeric_fs_metric(f0, xi).entries
    g0b = numeric_fs_metric(StateFamily(CaseClass("C7"), eta, CHART, 0.0), xi).entries
    assert np.max(np.abs(g0 - g0b)) < 1e-10


def test_beta_derivative_near_resonance():
    # 2c3 - omega - c_plus = -0.0125 (the point that made `verify --suite all
    # --seed 68` hard-fail): a plain central difference in beta is off the
    # correct closed-form g_omega,omega by 0.17%, Richardson by 1e-8
    eta = InitialCoefficients(
        -0.19921656723445336 - 0.04498278202091074j,
        0.6603840077896056 + 0.33283768447991124j,
        0.05756827823717798 - 0.45445766680076827j,
        0.3036429343026948 - 0.3306908489535613j,
    )
    xi = np.array([0.4593013011353539, 0.45023762966413217, 0.730963418557312, 1.0151208814081656])
    numeric = numeric_beta_derivative(eta, xi)
    closed = metric_correction_closed_form(eta, xi)
    for a, b in ((0, 0), (0, 2), (2, 2)):
        assert abs(numeric[a, b] - closed[a, b]) < 1e-6 * abs(closed[a, b]), (a, b)


def test_linearity_in_beta(rng):
    # (g(beta) - g(0))/beta stable at the percent level across doublings;
    # needs a comfortably resonance-free point or the quadratic term
    # (denominator-squared enhanced) erodes the margin
    eta = random_eta(rng, "C7")
    xi = resonance_free_point(rng, margin=0.6)
    g0 = numeric_fs_metric(
        StateFamily(CaseClass("C7"), eta, CHART, 0.0), xi
    ).entries
    slopes = []
    for beta in (1e-4, 2e-4, 4e-4):
        g = numeric_fs_metric(
            StateFamily(CaseClass("C7"), eta, CHART, beta), xi
        ).entries
        slopes.append((g - g0) / beta)
    s1, s2, s4 = slopes
    scale = np.max(np.abs(s1))
    assert np.max(np.abs(s2 - s1)) < 0.01 * scale
    assert np.max(np.abs(s4 - s1)) < 0.02 * scale


def test_beta_continuity_two_decades(rng):
    # ||g(beta) - g(0)|| <= K beta with K stable over beta in 1e-4..1e-2
    # (the top decade carries up to ~20% quadratic contamination at generic
    # resonance-free points)
    eta = random_eta(rng, "C7")
    xi = resonance_free_point(rng, margin=0.6)
    g0 = numeric_fs_metric(StateFamily(CaseClass("C7"), eta, CHART, 0.0), xi).entries
    ks = []
    for beta in (1e-2, 1e-3, 1e-4):
        g = numeric_fs_metric(StateFamily(CaseClass("C7"), eta, CHART, beta), xi).entries
        ks.append(float(np.max(np.abs(g - g0)) / beta))
    assert max(ks) / min(ks) < 1.35
    assert min(ks) > 0


def test_closed_form_agreement_pattern(rng):
    # eight of the ten components agree with the numeric beta-derivative;
    # the (omega, phi) and (c3, c_plus) components carry verified factor-2
    # transcription slips and stay flagged
    eta = random_eta(rng, "C7")
    pts = [resonance_free_point(rng) for _ in range(10)]
    audit = audit_metric_correction(eta, pts)
    assert audit.n_points == 10
    expected_bad = {"omega-phi", "c3-c_plus"}
    assert set(audit.disagreeing) == expected_bad
    for v in audit.verdicts:
        key = f"{v.component[0]}-{v.component[1]}"
        if key not in expected_bad:
            assert v.max_rel_diff < 1e-3, key


def test_corrected_coefficients_match_oracle(rng):
    # the two flagged components agree once the missing factors of two are
    # restored: (1 -+ 2 eta12m) in the X terms of h_{phi omega} and
    # 4(eta12p - eta34m) in h_{c3 c_plus}
    for _ in range(6):
        eta = random_eta(rng, "C7")
        xi = resonance_free_point(rng)
        omega, phi, c3, cp = xi
        aux = perturbation_aux(omega, phi, c3, cp)
        j = (eta.eta1 * np.conj(eta.eta2) * np.exp(-2j * omega)).imag
        w1 = eta.eta1 * np.conj(eta.eta3) * np.exp(-1j * (2 * c3 + omega - cp))
        w2 = eta.eta2 * np.conj(eta.eta3) * np.exp(-1j * (2 * c3 - omega - cp))
        e1, f1, e2, f2 = w1.imag, w1.real, w2.imag, w2.real
        m12, p12, m34 = eta.eta12_minus, eta.eta12_plus, eta.eta34_minus
        num = numeric_beta_derivative(eta, xi)
        corrected_pw = (
            omega * (1 - 2 * m12) * e1 * aux.x_minus
            - omega * (1 + 2 * m12) * e2 * aux.x_plus
            - (0.5 * f1 + 2 * j * e2) * aux.y_minus
            - (0.5 * f2 - 2 * j * e1) * aux.y_plus
        )
        corrected_3p = 4 * (p12 - m34) * (e1 * aux.y_plus + e2 * aux.y_minus)
        assert abs(num[0, 1] - corrected_pw) < 1e-6
        assert abs(num[2, 3] - corrected_3p) < 1e-6


def test_perturbed_metric_assembles_symmetric(rng):
    eta = random_eta(rng, "C7")
    xi = resonance_free_point(rng)
    pm = perturbed_metric_analytic(eta, xi, beta=1e-3)
    g = pm.entries
    assert np.max(np.abs(g - g.T)) < 1e-14


def test_batched_beta_derivative_equals_single_point(rng):
    eta = random_eta(rng, "C7")
    xs = np.array([resonance_free_point(rng) for _ in range(3)])
    batch = numeric_beta_derivative(eta, xs)
    assert batch.shape == (3, 4, 4)
    for x, d in zip(xs, batch):
        assert np.array_equal(d, numeric_beta_derivative(eta, x))


def test_batched_closed_form_equals_one_point(rng):
    for _ in range(20):
        eta = random_eta(rng, "C7")
        xs = rng.uniform([0.4, -1.2, -1.4, -1.4], [1.6, 1.2, 1.4, 1.4], size=(16, 4))
        batch = metric_correction_closed_form(eta, xs, gamma=0.8)
        rows = np.array([metric_correction_closed_form(eta, x, gamma=0.8) for x in xs])
        assert batch.shape == (16, 4, 4)
        # one point is a batch of one, so it is the row to the bit
        assert batch.tobytes() == rows.tobytes()
        aux = perturbation_aux(*xs.T)
        for k, x in enumerate(xs):
            one = perturbation_aux(*x)
            assert one.y_plus == pytest.approx(aux.y_plus[k], rel=1e-15)
            assert one.x_minus == pytest.approx(aux.x_minus[k], rel=1e-15)


def _one_point_admissible(xi):
    """The audit's admissibility predicate, one point at a time."""
    omega, phi, c3, c_plus = (float(x) for x in xi)
    den1, den2 = 2.0 * c3 + omega - c_plus, 2.0 * c3 - omega - c_plus
    return not (min(abs(den1), abs(den2)) < 1e-2 or math.cos(phi) <= 0.05)


def test_audit_skips_the_points_the_one_point_predicate_skips(rng):
    eta = random_eta(rng, "C7")
    pts = [resonance_free_point(rng) for _ in range(6)]
    pts.insert(1, np.array([0.6, 0.3, 0.5, 1.604]))  # 2c3 + omega - c_plus = -0.004
    pts.insert(4, np.array([0.7, 1.53, 0.2, 0.3]))  # cos(phi) = 0.041
    # cos(phi) a rounding above and below 0.05
    edge = math.acos(0.05)
    pts += [np.array([0.7, phi, 0.2, 0.3]) for phi in (edge, np.nextafter(edge, 2.0))]
    kept = [p for p in pts if _one_point_admissible(p)]
    assert [k for k, p in enumerate(pts) if not _one_point_admissible(p)] == [1, 4, 9]
    audit = audit_metric_correction(eta, pts)
    assert audit.n_points == len(kept)
    assert audit == audit_metric_correction(eta, kept)


def test_audit_with_no_admissible_point_raises():
    # cos(2.0) < 0.05: the only point is off the principal branch
    eta = InitialCoefficients.normalized(0.3 + 0.2j, 0.5, 0.1 - 0.4j, 0.6)
    with pytest.raises(NoAdmissiblePointsError, match="resonance.*cos"):
        audit_metric_correction(eta, [np.array([0.5, 2.0, 0.1, 0.2])])
    with pytest.raises(NoAdmissiblePointsError):
        audit_metric_correction(eta, [])
    # rows of three coordinates are refused, not regrouped into fours
    with pytest.raises(ValueError, match=r"\(N, 4\)"):
        audit_metric_correction(eta, np.full((4, 3), 0.5))


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan])
def test_audit_refuses_metric_scale(gamma, rng):
    # at gamma = 0 both sides were zero and the refuted components agreed
    eta = random_eta(rng)
    pts = [resonance_free_point(rng) for _ in range(4)]
    with pytest.raises(ValueError, match="gamma"):
        audit_metric_correction(eta, pts, gamma=gamma)
