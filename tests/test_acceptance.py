"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` for the line-by-line view).

Two sub-criteria check a catalog claim that independent routes refute; each
asserts the corrected claim, so it fails if the program drifts either way.
The analysis lives in docs/discrepancies.md:

  * criterion 7b: the catalog calls every C4 pattern with eta2 != 0 or
    eta4 != 0 unmodified by the x-field perturbation.  The pattern
    (eta2, eta3) pairs the triplet PSI3 with psi2 and is modified at first
    order.  The closed-form corrections, the first-order family and exact
    eigenvectors of H + beta V all show it; the criterion asserts C1-C3,
    C4(1,4) and C4(2,4) unmodified and C4(1,3), C4(2,3) modified.
  * criterion 10b: the catalog says every condition-table row reaches C = 1.
    The C5 rows pinning phi in {0, pi} table omega = pi/2, where the factor
    sin(2 omega) vanishes, so they measure C = |eta_j|^2; omega = pi/4
    restores C = 1.  The criterion asserts the other 24 rows reach 1 and
    those four rows take exactly these values, confirmed by exact evolution.
"""

import cmath
import math

import numpy as np
import pytest

from qorbits.curvature import (
    MetricField,
    curvature_at,
    g0_uniform_field,
    g0_uniform_ricci,
    perturbed_scalar_curvature_closed_form,
)
from qorbits.entanglement import (
    CASE_FORMULA_STATUS,
    _c5_rows,
    concurrence,
    concurrence_analytic,
    verify_max_entangled_tables,
)
from qorbits.families import (
    PERIODICITY_SHIFTS,
    StateFamily,
    check_periodicity,
    family_for_case,
    sliced_family,
)
from qorbits.fubini_study import (
    analytic_metric_c7,
    analytic_metric_case,
    numeric_fs_metric,
    phase_twisted,
    pushforward_c7,
)
from qorbits.hamiltonian import (
    ID2,
    PSI3,
    PSI4,
    SIGMA_1,
    analytic_spectrum,
    build_hamiltonian,
    eigvec_pair,
    numeric_spectrum,
)
from qorbits.model import CaseClass, HamiltonianParams, InitialCoefficients, classify
from qorbits.perturbation import (
    audit_metric_correction,
    metric_correction_closed_form,
    perturbed_metric_analytic,
)

from conftest import random_eta

S2 = 1 / math.sqrt(2)
CHART = ("omega", "phi", "c3", "c_plus")
X_FIELD = np.kron(SIGMA_1, ID2) + np.kron(ID2, SIGMA_1)

CASE_ETAS = {
    "C1": (0, 0, 0.8, 0.6),
    "C2": (1, 0, 0, 0),
    "C3": (0.8, 0.6, 0, 0),
    "C4": (0.8, 0, 0.6, 0),
    "C5": (0.6, 0.6, 0.5291502622129182, 0),
    "C6": (0.6, 0, 0.565685424949238, 0.565685424949238),
    "C7": (0.5, 0.5, 0.5, 0.5),
}


def report(num, ok, detail=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)


def test_criterion_01_eigensystem_fidelity():
    rng = np.random.default_rng(101)
    worst_res, worst_e = 0.0, 0.0
    for _ in range(200):
        b, c1, c2, c3 = rng.uniform(-2, 2, size=4)
        p = HamiltonianParams(b, c1, c2, c3)
        h = build_hamiltonian(p)
        ana = analytic_spectrum(p)
        num = numeric_spectrum(h)
        worst_res = max(worst_res, float(ana.residuals(h).max()))
        worst_e = max(
            worst_e, float(np.max(np.abs(np.sort(ana.energies) - num.energies)))
        )
    ok = worst_res < 1e-10 and worst_e < 1e-12
    report("01", ok, f"max residual {worst_res:.2e}, max energy dev {worst_e:.2e}")
    assert worst_res < 1e-10
    assert worst_e < 1e-12


def test_criterion_02_periodicity():
    rng = np.random.default_rng(102)
    worst = 0.0
    n_conditions = 0
    for label, vals in CASE_ETAS.items():
        eta = InitialCoefficients.normalized(*vals)
        f = family_for_case(classify(eta), eta)
        rep = check_periodicity(f, n_points=20, rng=rng)
        n_conditions += len(rep.checks)
        worst = max(worst, max(c.max_phase_error for c in rep.checks))
    ok = worst < 1e-10
    report("02", ok, f"{n_conditions} conditions, worst phase error {worst:.2e}")
    assert n_conditions == sum(len(v) for v in PERIODICITY_SHIFTS.values())
    assert worst < 1e-10


def test_criterion_03_metric_oracle_agreement():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        eta = random_eta(rng, "C7")
        xi = np.array(
            [rng.uniform(-2, 2), rng.uniform(-3, 3),
             rng.uniform(-2, 2), rng.uniform(-2, 2)]
        )
        if abs(abs(xi[1]) - math.pi / 2) < 0.05:
            xi[1] += 0.1
        f = family_for_case(classify(eta), eta)
        gn = numeric_fs_metric(f, xi, h=1e-5).entries
        ga = analytic_metric_c7(eta, xi).entries
        worst = max(worst, float(np.max(np.abs(gn - ga))))
    ok = worst < 1e-6
    report("03", ok, f"50 points, max component deviation {worst:.2e}")
    assert worst < 1e-6


def test_criterion_04_case_geometries():
    gamma = 1.3
    # C2: exact gamma^2/4 and circle radius gamma/2
    eta2 = InitialCoefficients(1, 0, 0, 0)
    f2 = family_for_case(classify(eta2), eta2)
    g2 = analytic_metric_case(f2, np.array([0.7]), gamma)
    exact = g2.entries[0, 0] == gamma**2 / 4
    circumference = 2 * math.pi * math.sqrt(g2.entries[0, 0])
    radius = circumference / (2 * math.pi)
    radius_ok = radius == gamma / 2

    # C3: round sphere of radius gamma/2, FD scalar curvature 8/gamma^2
    eta3 = InitialCoefficients.normalized(S2, S2 * cmath.exp(0.4j), 0, 0)

    def ev3(xi):
        return analytic_metric_c7(eta3, [xi[0], xi[1], 0.0, 0.0], gamma).entries[:2, :2]

    r3 = curvature_at(MetricField(2, ev3), np.array([0.3, 0.2])).scalar
    c3_ok = abs(r3 - 8.0 / gamma**2) < 1e-3

    # C4: flat torus
    eta4 = InitialCoefficients.normalized(*CASE_ETAS["C4"])
    f4 = family_for_case(classify(eta4), eta4)
    mf4 = MetricField(2, lambda xi: analytic_metric_case(f4, xi, gamma).entries)
    r4 = curvature_at(mf4, np.array([0.3, 0.4])).scalar
    c4_ok = abs(r4) < 1e-6

    ok = exact and radius_ok and c3_ok and c4_ok
    report(
        "04", ok,
        f"C2 g={g2.entries[0,0]:.6f} (exact), C3 R={r3:.6f} vs {8/gamma**2:.6f}, "
        f"C4 |R|={abs(r4):.2e}",
    )
    assert exact and radius_ok
    assert c3_ok
    assert c4_ok


def test_criterion_05_diagonalization():
    rng = np.random.default_rng(105)
    worst_off = worst_diag = 0.0
    done = 0
    while done < 20:
        eta = random_eta(rng, "C7")
        omega = rng.uniform(-2, 2)
        if abs((eta.eta1 * np.conj(eta.eta2) * np.exp(-2j * omega)).real) < 0.05:
            continue
        done += 1
        xi = np.array([omega, 0.3, 0.2, 0.4])
        gp = pushforward_c7(eta, xi, 1.0)
        f = family_for_case(classify(eta), eta)
        expected = np.diag(analytic_metric_case(f, xi, 1.0).entries)
        off = gp.entries - np.diag(np.diag(gp.entries))
        worst_off = max(worst_off, float(np.max(np.abs(off))))
        worst_diag = max(
            worst_diag, float(np.max(np.abs(np.diag(gp.entries) - expected)))
        )
    ok = worst_off < 1e-10 and worst_diag < 1e-10
    report("05", ok, f"20 eta draws, off-diag {worst_off:.2e}, diag dev {worst_diag:.2e}")
    assert worst_off < 1e-10
    assert worst_diag < 1e-10


def test_criterion_06_c7_curvature():
    # sign convention: the engine gives a round 2-sphere positive scalar
    # curvature, which reproduces the printed (positive) Ricci entries
    worst_scalar, worst_ricci = 0.0, 0.0
    for gamma in (1.0, 1.4):
        fld = g0_uniform_field(0.0, gamma)
        for w in (0.35, 0.6, 1.1):
            rep = curvature_at(fld, np.array([w, 0.3, 0.2, 0.4]))
            worst_scalar = max(
                worst_scalar,
                abs(rep.scalar - 14.0 / gamma**2) * gamma**2 / 14.0,
            )
            worst_ricci = max(
                worst_ricci, float(np.max(np.abs(rep.ricci - g0_uniform_ricci(w, 0.0))))
            )
    ok = worst_scalar < 1e-3 and worst_ricci < 1e-4
    report(
        "06", ok,
        f"scalar rel dev {worst_scalar:.2e}, Ricci dev {worst_ricci:.2e} "
        "(sphere-positive sign convention matches the printed Ricci)",
    )
    assert worst_scalar < 1e-3
    assert worst_ricci < 1e-4


def test_criterion_07a_perturbation_linearity():
    # evaluated at a generic point away from the resonance tubes (energy
    # denominators 0.75 and 0.85); the quadratic-in-beta term is enhanced
    # near resonances and erodes the 1% bound there
    rng = np.random.default_rng(107)
    eta = random_eta(rng, "C7")
    xi = np.array([0.8, 0.3, 0.25, 0.45])
    g0 = numeric_fs_metric(StateFamily(CaseClass("C7"), eta, CHART, 0.0), xi).entries
    betas = (1e-4, 2e-4, 4e-4)
    slopes = [
        (numeric_fs_metric(StateFamily(CaseClass("C7"), eta, CHART, b), xi).entries - g0) / b
        for b in betas
    ]
    scale = float(np.max(np.abs(slopes[0])))
    resid = max(float(np.max(np.abs(s - slopes[0]))) for s in slopes[1:])
    ok = resid < 0.01 * scale
    report("07a", ok, f"linear fit residual {resid:.2e} vs 1% of slope {0.01*scale:.2e}")
    assert resid < 0.01 * scale


class _ExactEigenvectorC4:
    """C4 family over (phi, c) built from exact eigenvectors of H + beta V.

    numpy.linalg.eigh diagonalizes the perturbed matrix; each eigenvector is
    matched to the unperturbed psi_k of largest overlap and phase-aligned to
    it, so the family shares the chart and gauge of the first-order library
    family.  V is added to the matrix because HamiltonianParams rejects
    beta < 0, which the central beta-difference needs.
    """

    chart = ("phi", "c")

    def __init__(self, eta, l, j, beta, frozen):
        self.eta, self.l, self.j, self.beta = eta, l, j, beta
        self.omega, self.c3, self.c_plus = (frozen[k] for k in ("omega", "c3", "c_plus"))

    def states(self, xs):
        return np.array([self.state(xi) for xi in xs])

    def state(self, xi):
        phi, c = xi
        c_minus = self.omega * math.cos(phi)
        p = HamiltonianParams(
            0.5 * self.omega * math.sin(phi),
            0.5 * (self.c_plus + c_minus),
            0.5 * (self.c_plus - c_minus),
            self.c3,
        )
        _, vecs = np.linalg.eigh(build_hamiltonian(p) + self.beta * X_FIELD)
        overlaps = np.array([*eigvec_pair(phi), PSI3, PSI4]).conj() @ vecs
        basis = []
        for row in overlaps:
            m = int(np.argmax(np.abs(row)))
            basis.append(vecs[:, m] * np.conj(row[m]) / abs(row[m]))
        e = self.eta.as_array()
        pref = np.exp(-1j * (self.c3 + (-1) ** self.l * self.omega))
        return pref * (
            e[self.l - 1] * basis[self.l - 1]
            + e[self.j - 1] * np.exp(1j * c) * basis[self.j - 1]
        )


def _beta_slope(make_family, beta, xi):
    """Central beta-difference of the numeric metric: dg/dbeta at beta = 0."""
    return (
        numeric_fs_metric(make_family(beta), xi).entries
        - numeric_fs_metric(make_family(-beta), xi).entries
    ) / (2 * beta)


def test_criterion_07b_unmodified_cases():
    # The catalog calls C1-C3 and every C4 choice with eta2 != 0 or eta4 != 0
    # unmodified at first order.  V = s1 x 1 + 1 x s1 annihilates the singlet
    # PSI4 but couples psi1 and psi2 to the triplet PSI3, so every pattern that
    # pairs PSI3 with psi1 or psi2 -- C4(2,3) included -- gets a first-order
    # cross term in g_phi_phi and g_phi_c.  Three routes agree on that split:
    # the closed-form corrections, the first-order library family and exact
    # eigenvectors of H + beta V.  The criterion asserts the corrected claim:
    # C1-C3, C4(1,4) and C4(2,4) unmodified; C4(1,3) and C4(2,3) modified.
    beta, beta_exact = 1e-2, 1e-3
    frozen = {"omega": 0.9, "c3": 0.35, "c_plus": 0.55}
    closed_point = [0.9, 0.6, 0.35, 0.55]
    patterns = {
        "C1": ((0, 0, 0.8, 0.6), False),
        "C2": ((1, 0, 0, 0), False),
        "C3": ((0.8, 0.6, 0, 0), False),
        "C4(1,4)": ((0.8, 0, 0, 0.6), False),
        "C4(2,4)": ((0, 0.8, 0, 0.6), False),
        "C4(1,3)": ((0.8, 0, 0.6, 0), True),
        "C4(2,3)": ((0, 0.8, 0.6, 0), True),
    }
    outcomes = {}
    for pattern, (vals, modified) in patterns.items():
        eta = InitialCoefficients.normalized(*vals)
        case = classify(eta)
        xi = np.full(case.dimension, 0.6)
        lib = _beta_slope(
            lambda b: family_for_case(case, eta, beta=b, frozen=frozen), beta, xi
        )
        closed = float(np.max(np.abs(metric_correction_closed_form(eta, closed_point))))
        exact_dev = None
        if modified:
            exact = _beta_slope(
                lambda b: _ExactEigenvectorC4(eta, case.l, case.j, b, frozen),
                beta_exact,
                xi,
            )
            exact_dev = float(np.max(np.abs(lib - exact)) / np.max(np.abs(exact)))
        outcomes[pattern] = (modified, float(np.max(np.abs(lib))), closed, exact_dev)

    def holds(modified, dgdb, closed, exact_dev):
        if modified:
            return dgdb > 1e-3 and closed > 1e-3 and exact_dev < 1e-2
        return dgdb < 1e-9 and closed < 1e-12

    ok = all(holds(*v) for v in outcomes.values())
    detail = (
        "refuted catalog item: 'every C4 choice with eta2 != 0 is unmodified' "
        "fails at C4(2,3); "
        + ", ".join(
            f"{k}: dg/db={v[1]:.1e}"
            + (f" (exact eigenvectors rel dev {v[3]:.1e})" if v[0] else "")
            for k, v in outcomes.items()
        )
    )
    report("07b", ok, detail)
    for pattern, (modified, dgdb, closed, exact_dev) in outcomes.items():
        if modified:
            assert dgdb > 1e-3, f"{pattern}: first-order correction {dgdb:.3e} vanished"
            assert closed > 1e-3, f"{pattern}: closed-form correction {closed:.3e} vanished"
            assert exact_dev < 1e-2, (
                f"{pattern}: first-order dg/dbeta deviates from the exact-eigenvector "
                f"route by {exact_dev:.3e} (relative)"
            )
        else:
            assert dgdb < 1e-9, f"{pattern}: unmodified family corrected by {dgdb:.3e}"
            assert closed < 1e-12, f"{pattern}: closed-form correction {closed:.3e}"


def test_criterion_08_perturbation_transcription_audit():
    # soft criterion: the deliverable is the per-component agree/disagree
    # classification; full agreement is not presumed.  The measured pattern
    # (stable across coefficient draws and grids) is frozen here and
    # documented in docs/discrepancies.md.
    rng = np.random.default_rng(108)
    eta = random_eta(rng, "C7")
    pts = []
    while len(pts) < 12:
        xi = np.array(
            [rng.uniform(0.4, 1.6), rng.uniform(-1.2, 1.2),
             rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4)]
        )
        pts.append(xi)
    audit = audit_metric_correction(eta, pts, rel_tol=1e-3)
    agreeing = sorted(
        f"{v.component[0]}-{v.component[1]}" for v in audit.verdicts if v.agrees
    )
    disagreeing = sorted(audit.disagreeing)
    expected_disagreeing = ["c3-c_plus", "omega-phi"]
    ok = disagreeing == expected_disagreeing and len(agreeing) == 8
    report(
        "08", ok,
        f"agree: {len(agreeing)}/10 components; flagged: {disagreeing} "
        "(verified factor-2 coefficient slips, see docs/discrepancies.md)",
    )
    assert audit.n_points > 0
    assert disagreeing == expected_disagreeing
    assert len(agreeing) == 8


def test_criterion_09_perturbed_curvature_closed_form():
    # soft criterion: record the beta -> 0 comparison against 14/gamma^2 and
    # against the finite-difference curvature of the perturbed metric field;
    # agreement is reported, not presumed.
    eta = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
    beta = 1e-4
    rows = []
    # resonance-safe omega only: at (w, 0, 0, 0) the correction denominators
    # are +-w, so small w sits inside the resonance tube
    for w in (0.35, 0.7, 1.1):
        closed0 = perturbed_scalar_curvature_closed_form(w, 0.0, 1.0)
        dev14 = abs(closed0 - 14.0) / 14.0
        closed_b = perturbed_scalar_curvature_closed_form(w, beta, 1.0)

        def ev(xi):
            return perturbed_metric_analytic(eta, xi, 1.0, beta).entries

        numeric_b = curvature_at(MetricField(4, ev), np.array([w, 0.0, 0.0, 0.0])).scalar
        rows.append((w, closed0, dev14, closed_b, numeric_b))
    detail = "; ".join(
        f"w={w}: closed(0)={c0:.3f} (dev from 14: {d:.1%}), "
        f"closed(1e-4)={cb:.3f}, numeric(1e-4)={nb:.3f}"
        for w, c0, d, cb, nb in rows
    )
    # the switch-off claim holds only where cos^2(2w) = 1; recorded
    agreement_at_locus = abs(
        perturbed_scalar_curvature_closed_form(1e-6, 0.0, 1.0) - 14.0
    ) < 1e-6
    report("09", True, detail)
    assert agreement_at_locus
    assert all(math.isfinite(r[3]) and math.isfinite(r[4]) for r in rows)
    # the numeric route stays near the unperturbed constant at small beta,
    # away from the resonance tube
    assert all(abs(r[4] - 14.0) < 1.0 for r in rows)


def test_criterion_10a_concurrence_formulas():
    # each case agrees with 2|ad - bc| on 200 points of its measured validity
    # domain, or carries an explicit flag recorded in CASE_FORMULA_STATUS
    rng = np.random.default_rng(110)
    etas = {
        "C1": InitialCoefficients.normalized(0, 0, 0.8, 0.6 * cmath.exp(0.7j)),
        "C2": InitialCoefficients.normalized(1, 0, 0, 0),
        "C3": InitialCoefficients.normalized(0.8, 0.6 * cmath.exp(0.9j), 0, 0),
        "C4": InitialCoefficients.normalized(0.8, 0, 0.6, 0),
        "C5": InitialCoefficients.normalized(0.5, 0.5, S2, 0),
        "C6": InitialCoefficients.normalized(
            0, 0.6, math.sqrt(0.32) * cmath.exp(0.4j), math.sqrt(0.32) * cmath.exp(0.4j)
        ),
        "C7": InitialCoefficients.normalized(
            0.5, 0.5, 0.5 * cmath.exp(0.6j), 0.5 * cmath.exp(0.6j)
        ),
    }
    flagged = {k: v for k, v in CASE_FORMULA_STATUS.items() if v != ("exact",)}
    worst_by_case = {}
    for label, eta in etas.items():
        f = family_for_case(classify(eta), eta)
        status = CASE_FORMULA_STATUS[label]
        worst = 0.0
        for _ in range(200):
            xi = rng.uniform(-3, 3, size=f.dim)
            if "phi" in f.chart and "cos_phi_pos" in status:
                xi[f.chart.index("phi")] = rng.uniform(-1.4, 1.4)
            if "sin_omega" in status:
                xi[f.chart.index("omega")] = 0.0
            worst = max(
                worst,
                abs(concurrence_analytic(f.case, eta, xi) - concurrence(f.state(xi))),
            )
        worst_by_case[label] = worst
    ok = all(v < 1e-10 for v in worst_by_case.values())
    report(
        "10a", ok,
        "formulas agree on measured domains (worst "
        f"{max(worst_by_case.values()):.1e}); flagged cases: "
        + ", ".join(f"{k}{list(v)}" for k, v in sorted(flagged.items())),
    )
    for label, worst in worst_by_case.items():
        assert worst < 1e-10, label


def _exact_evolution_concurrence(eta, j, omega, phi, c, c_plus=0.5):
    """Concurrence of exp(-iH) psi0 on a Hamiltonian that realizes the C5
    chart point (omega, phi, c) with sin(phi) = 0: b = 0,
    c1 - c2 = omega cos(phi) and 2 c3 + (-1)^j c_plus = c.

    The propagator comes from numpy.linalg.eigh of the full matrix, not from
    the family's phase bookkeeping; psi0 = sum_k eta_k psi_k(phi).
    """
    c_minus = omega * math.cos(phi)
    c3 = 0.5 * (c - (-1) ** j * c_plus)
    p = HamiltonianParams(0.0, 0.5 * (c_plus + c_minus), 0.5 * (c_plus - c_minus), c3)
    energies, vecs = np.linalg.eigh(build_hamiltonian(p))
    psi0 = eta.as_array() @ np.array([*eigvec_pair(phi), PSI3, PSI4])
    return concurrence(vecs @ (np.exp(-1j * energies) * (vecs.conj().T @ psi0)))


def test_criterion_10b_max_entanglement_tables():
    # All 28 rows of the three condition tables, chi = 0, n in {-1, 0, 1, 2}.
    # The catalog says every row reaches C = 1.  The relative phase of psi1
    # and psi2 is e^{2 i omega}, so at phi = 0 the C5 family has
    # C = |2 eta1^2 sin(2 omega) -+ i eta_j^2 e^{2ic}| (sign set by j).  The
    # four rows pinning phi in {0, pi} table omega = pi/2, where sin(2 omega)
    # vanishes and C = |eta_j|^2 for every c; the C7 table of the same catalog
    # pins omega = pi/4, 3 pi/4, consistent with sin(2 omega).  The criterion
    # asserts the corrected claim: the other 24 rows reach 1, and the four
    # rows measure |eta_j|^2 at the tabled omega and 1 at omega = pi/4, both
    # confirmed by exact evolution exp(-iH) psi0.
    n_range = (-1, 0, 1, 2)
    refuted = {"C5 phi=0, j even", "C5 phi=pi, j even", "C5 phi=0, j odd", "C5 phi=pi, j odd"}
    etas = {
        "C5e": InitialCoefficients.normalized(0.5, 0.5, 0, S2),
        "C5o": InitialCoefficients.normalized(0.5, 0.5, S2, 0),
        "C6e": InitialCoefficients.normalized(0, 0.6, math.sqrt(0.32), math.sqrt(0.32)),
        "C6o": InitialCoefficients.normalized(0.6, 0, math.sqrt(0.32), math.sqrt(0.32)),
        "C7": InitialCoefficients.normalized(0.5, 0.5, 0.5, 0.5),
    }
    failing = set()
    n_rows = 0
    worst_others = 0.0
    for eta in etas.values():
        f = family_for_case(classify(eta), eta)
        for row in verify_max_entangled_tables(f, 0.0, n_range=n_range):
            n_rows += 1
            name = f"{row.case} {row.row}"
            if not row.passed:
                failing.add(name)
            if name not in refuted:
                worst_others = max(worst_others, abs(row.measured_concurrence - 1.0))

    # per n on the refuted rows: tabled omega, omega = pi/4, and the exact route
    worst_tabled = worst_restored = worst_exact = 0.0
    for label in ("C5e", "C5o"):
        eta = etas[label]
        f = family_for_case(classify(eta), eta)
        j = f.case.j
        eta_j2 = float(eta.abs2[j - 1])
        for name, phi, omega, jpar, c_fn in _c5_rows(0.0):
            if f"C5 {name}" not in refuted or jpar != j % 2:
                continue
            assert omega == math.pi / 2, name
            for n in n_range:
                c = c_fn(n)
                tabled = concurrence(f.state(np.array([omega, phi, c])))
                restored = concurrence(f.state(np.array([math.pi / 4, phi, c])))
                worst_tabled = max(worst_tabled, abs(tabled - eta_j2))
                worst_restored = max(worst_restored, abs(restored - 1.0))
                worst_exact = max(
                    worst_exact,
                    abs(_exact_evolution_concurrence(eta, j, omega, phi, c) - eta_j2),
                    abs(_exact_evolution_concurrence(eta, j, math.pi / 4, phi, c) - 1.0),
                )
    ok = (
        failing == refuted
        and worst_others < 1e-10
        and max(worst_tabled, worst_restored, worst_exact) < 1e-12
    )
    report(
        "10b", ok,
        f"{n_rows - len(failing)}/{n_rows} rows reach C=1 (worst dev "
        f"{worst_others:.1e}); refuted catalog item: C5 rows at phi in {{0, pi}} "
        f"with omega = pi/2 measure |eta_j|^2 (dev {worst_tabled:.1e}), reach 1 "
        f"at omega = pi/4 (dev {worst_restored:.1e}); exact evolution dev "
        f"{worst_exact:.1e}",
    )
    assert n_rows == 28
    assert failing == refuted, sorted(failing ^ refuted)
    assert worst_others < 1e-10
    assert worst_tabled < 1e-12
    assert worst_restored < 1e-12
    assert worst_exact < 1e-12


def test_criterion_11_gauge_invariance():
    rng = np.random.default_rng(111)
    worst = 0.0
    for label, vals in CASE_ETAS.items():
        eta = InitialCoefficients.normalized(*vals)
        f = family_for_case(classify(eta), eta)
        twisted = phase_twisted(f, lambda xs: xs.sum(axis=1))
        for _ in range(3):
            xi = rng.uniform(0.2, 1.1, size=f.dim)
            dev = float(
                np.max(
                    np.abs(
                        numeric_fs_metric(f, xi).entries
                        - numeric_fs_metric(twisted, xi).entries
                    )
                )
            )
            worst = max(worst, dev)
    ok = worst < 1e-8
    report("11", ok, f"all 7 families, worst deviation {worst:.2e}")
    assert worst < 1e-8


def test_criterion_12_flat_limit():
    rng = np.random.default_rng(112)
    eta = random_eta(rng, "C7")
    f = family_for_case(classify(eta), eta)
    fs = sliced_family(f, {"phi": 0.0})
    mats = [
        numeric_fs_metric(fs, np.array([w, c3, cp])).entries
        for w in (0.2, 0.9, 1.7)
        for c3 in (0.1, 0.8)
        for cp in (0.3, 1.2)
    ]
    variation = max(float(np.max(np.abs(m - mats[0]))) for m in mats)
    ok = variation < 1e-9
    report("12", ok, f"b = 0 slice, max metric variation {variation:.2e}")
    assert variation < 1e-9
