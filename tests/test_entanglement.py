import cmath
import math

import numpy as np
import pytest

from qorbits import families
from qorbits.entanglement import (
    CASE_FORMULA_STATUS,
    concurrence,
    concurrence_analytic,
    concurrences,
    scan_concurrence,
    verify_max_entangled_tables,
)
from qorbits.families import _form_weights, family_for_case, grid_points
from qorbits.model import InitialCoefficients, classify

from conftest import random_eta

S2 = 1 / math.sqrt(2)


def test_concurrence_bell_states():
    assert concurrence(np.array([S2, 0, 0, S2])) == pytest.approx(1.0)
    assert concurrence(np.array([0, S2, S2, 0])) == pytest.approx(1.0)
    assert concurrence(np.array([0, S2, -S2, 0])) == pytest.approx(1.0)


def test_concurrence_product_state():
    assert concurrence(np.array([1, 0, 0, 0])) == 0.0
    single = np.kron([S2, S2], [1, 0])
    assert concurrence(single) == pytest.approx(0.0, abs=1e-15)


def test_concurrence_requires_normalization():
    with pytest.raises(ValueError):
        concurrence(np.array([1.0, 1.0, 0, 0]))


def test_concurrence_rejects_nan_state():
    # a NaN norm fails |norm - 1| > tol too, so it must be caught explicitly;
    # the message prints it as a plain float
    with pytest.raises(ValueError, match="not normalized") as err:
        concurrences([[math.nan, 0, 0, 0]])
    assert str(err.value) == "state not normalized: |psi| = nan"
    with pytest.raises(ValueError, match="not normalized"):
        concurrence(np.array([S2, 0, 0, complex(math.nan, 0)]))


def test_concurrence_range(rng):
    for _ in range(100):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = v / np.linalg.norm(v)
        c = concurrence(v)
        assert 0.0 <= c <= 1.0 + 1e-12


def test_local_unitary_invariance(rng):
    def haar_su2(rng):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    for _ in range(20):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = v / np.linalg.norm(v)
        u = np.kron(haar_su2(rng), haar_su2(rng))
        assert concurrence(u @ v) == pytest.approx(concurrence(v), abs=1e-12)


# agreement domains of the printed formulas, measured against 2|ad - bc|
def _domain_point(rng, f, status):
    xi = rng.uniform(-3, 3, size=f.dim)
    if "phi" in f.chart and "cos_phi_pos" in status:
        xi[f.chart.index("phi")] = rng.uniform(-1.4, 1.4)
    if "sin_omega" in status:
        xi[f.chart.index("omega")] = 0.0  # sin w = sin 2w = 0 locus
    return xi


BATCH_ETAS = {
    "C1": (0, 0, 0.8, 0.6j),
    "C2": (0, 1, 0, 0),
    "C3": (0.8, 0.6 * cmath.exp(0.9j), 0, 0),
    "C4": (0, 0.8, 0, 0.6 * cmath.exp(0.7j)),
    "C5": (0.6, 0.6, 0.4j, 0),
    "C6": (0.6, 0, 0.5 * cmath.exp(1j), 0.5 * cmath.exp(1j)),
    "C7": (0.5, 0.5, 0.5j, 0.5j),
}


@pytest.mark.parametrize("pattern", sorted(BATCH_ETAS))
def test_closed_form_batch_rows_match_points(pattern, rng):
    eta = InitialCoefficients.normalized(*BATCH_ETAS[pattern])
    case = classify(eta)
    xs = rng.uniform(-3, 3, size=(500, case.dimension))
    batch = concurrence_analytic(case, eta, xs)
    points = [concurrence_analytic(case, eta, xi) for xi in xs]
    assert batch.shape == (500,)
    assert all(type(v) is float for v in points)
    points = np.array(points)
    if pattern in ("C3", "C4", "C6"):
        # an array x ** 2 is x * x, a scalar one goes through pow
        assert np.all(np.abs(batch - points) <= 2 * np.spacing(points))
    else:
        assert batch.tobytes() == points.tobytes()


@pytest.mark.parametrize(
    "vals, what",
    [((0.6, 0.5, 0.4j, 0), "eta1 = eta2"), ((0.5, 0.5, 0.6, 0.4), "eta3 = eta4")],
)
def test_closed_form_batch_keeps_preconditions(vals, what):
    eta = InitialCoefficients.normalized(*vals)
    with pytest.raises(ValueError, match=what):
        concurrence_analytic(classify(eta), eta, np.zeros((3, classify(eta).dimension)))


@pytest.mark.parametrize("pattern", ["C1", "C2", "C3", "C4", "C5", "C6", "C7"])
def test_closed_form_agrees_on_domain(pattern, rng):
    if pattern == "C4":
        eta = InitialCoefficients.normalized(0.8, 0, 0.6, 0)  # chi = 0
    elif pattern == "C5":
        eta = InitialCoefficients.normalized(0.5, 0.5, S2, 0)
    elif pattern == "C6":
        a = math.sqrt(0.32)
        eta = InitialCoefficients.normalized(0.6, 0, a * cmath.exp(0.4j), a * cmath.exp(0.4j))
    elif pattern == "C7":
        eta = InitialCoefficients.normalized(0.5, 0.5, 0.5 * cmath.exp(0.6j), 0.5 * cmath.exp(0.6j))
    else:
        eta = random_eta(rng, pattern)
    f = family_for_case(classify(eta), eta)
    status = CASE_FORMULA_STATUS[pattern]
    worst = 0.0
    for _ in range(200):
        xi = _domain_point(rng, f, status)
        worst = max(
            worst,
            abs(concurrence_analytic(f.case, eta, xi) - concurrence(f.state(xi))),
        )
    assert worst < 1e-10, (pattern, worst)


def test_c3_formula_flips_off_principal_branch(rng):
    # documented mismatch: for cos(phi) < 0 the cross term of the printed
    # expression appears with the opposite sign
    eta = InitialCoefficients.normalized(0.8, 0.6 * cmath.exp(0.9j), 0, 0)
    f = family_for_case(classify(eta), eta)
    worst = 0.0
    for _ in range(100):
        xi = np.array([rng.uniform(-3, 3), rng.uniform(1.8, 2.9)])
        worst = max(
            worst,
            abs(concurrence_analytic(f.case, eta, xi) - concurrence(f.state(xi))),
        )
    assert worst > 1e-2


def test_c4_formula_chi_slip(rng):
    # printed phase enters as chi where the oracle requires 2 chi
    eta = InitialCoefficients.normalized(0.8, 0, 0.6 * cmath.exp(0.5j), 0)
    f = family_for_case(classify(eta), eta)
    devs = [
        abs(
            concurrence_analytic(f.case, eta, xi) - concurrence(f.state(xi))
        )
        for xi in rng.uniform(-2, 2, size=(100, 2))
    ]
    assert max(devs) > 1e-2
    # restoring the doubled phase reconciles the two
    l, j = f.case.l, f.case.j
    a2 = eta.abs2
    chi = float(eta.alphas[j - 1] - eta.alphas[l - 1])
    for xi in rng.uniform(-2, 2, size=(50, 2)):
        phi, c = xi
        val = math.sqrt(
            max(
                0.0,
                a2[l - 1] ** 2 * math.cos(phi) ** 2
                + a2[j - 1] ** 2
                - 2
                * (-1) ** (l + j)
                * a2[l - 1]
                * a2[j - 1]
                * math.cos(2 * c + 2 * chi)
                * math.cos(phi),
            )
        )
        assert val == pytest.approx(concurrence(f.state(xi)), abs=1e-12)


def test_c5_formula_sin_omega_slip(rng):
    # printed sin(omega) where the direct computation carries sin(2 omega)
    eta = InitialCoefficients.normalized(0.5, 0.5, S2, 0)
    f = family_for_case(classify(eta), eta)
    case = f.case
    a2 = eta.abs2
    j = case.j
    worst_printed, worst_fixed = 0.0, 0.0
    for _ in range(100):
        xi = np.array(
            [rng.uniform(-3, 3), rng.uniform(-1.4, 1.4), rng.uniform(-3, 3)]
        )
        oracle = concurrence(f.state(xi))
        printed = concurrence_analytic(case, eta, xi)
        omega, phi, c = xi
        t1 = -2 * a2[0] * math.sin(phi) + (-1) ** j * a2[j - 1] * math.cos(2 * c)
        t2 = -2 * a2[0] * math.sin(2 * omega) * math.cos(phi) + (-1) ** j * a2[
            j - 1
        ] * math.sin(2 * c)
        fixed = math.hypot(t1, t2)
        worst_printed = max(worst_printed, abs(printed - oracle))
        worst_fixed = max(worst_fixed, abs(fixed - oracle))
    assert worst_printed > 1e-2
    assert worst_fixed < 1e-12


def test_c2_max_entanglement_structure():
    eta = InitialCoefficients(1, 0, 0, 0)
    f = family_for_case(classify(eta), eta)
    assert concurrence(f.state([0.0])) == pytest.approx(1.0)
    assert concurrence(f.state([math.pi / 2])) == pytest.approx(0.0, abs=1e-15)
    assert concurrence_analytic(f.case, eta, [math.pi / 2]) == pytest.approx(
        0.0, abs=1e-15
    )


def test_c1_max_entangled_condition():
    eta = InitialCoefficients(0, 0, S2, S2)
    f = family_for_case(classify(eta), eta)
    for n in (-1, 0, 1, 2):
        c_plus = ((2 * n + 1) * math.pi - 0.0) / 4
        assert concurrence(f.state([c_plus])) == pytest.approx(1.0, abs=1e-12)
    # with a relative phase chi the condition shifts by -chi/2
    chi = 0.8
    eta = InitialCoefficients.normalized(0, 0, S2, S2 * cmath.exp(1j * chi))
    f = family_for_case(classify(eta), eta)
    c_plus = (math.pi - 2 * chi) / 4
    assert concurrence(f.state([c_plus])) == pytest.approx(1.0, abs=1e-12)


def test_c3_max_entangled_condition(rng):
    # phi = 0 and omega = [(2n+1) pi - 2 chi]/4 for any magnitudes
    chi = 0.5
    for _ in range(5):
        m1 = rng.uniform(0.2, 0.9)
        eta = InitialCoefficients.normalized(
            m1, math.sqrt(1 - m1**2) * cmath.exp(1j * chi), 0, 0
        )
        f = family_for_case(classify(eta), eta)
        for n in (-1, 0, 1, 2):
            omega = ((2 * n + 1) * math.pi - 2 * chi) / 4
            assert concurrence(f.state([omega, 0.0])) == pytest.approx(1.0, abs=1e-12)


def test_tables_c6_c7_all_rows_pass():
    for chi in (0.0, 0.7):
        a = math.sqrt(0.32)
        eta6 = InitialCoefficients.normalized(
            0, 0.6, a * cmath.exp(1j * chi), a * cmath.exp(1j * chi)
        )
        f6 = family_for_case(classify(eta6), eta6)
        for row in verify_max_entangled_tables(f6, chi):
            assert row.passed, (row.row, chi, row.measured_concurrence)
        eta7 = InitialCoefficients.normalized(
            0.5, 0.5, 0.5 * cmath.exp(1j * chi), 0.5 * cmath.exp(1j * chi)
        )
        f7 = family_for_case(classify(eta7), eta7)
        for row in verify_max_entangled_tables(f7, chi):
            assert row.passed, (row.row, chi, row.measured_concurrence)


def test_tables_c5_measured_outcomes():
    # the phi in {0, pi} rows pin omega at pi/2 where the oracle's sin(2w)
    # factor vanishes: the measured concurrence is |eta_j|^2, not 1, for any
    # chi; the other rows pass at chi = 0
    eta = InitialCoefficients.normalized(0.5, 0.5, 0, S2)
    f = family_for_case(classify(eta), eta)
    rows = {r.row: r for r in verify_max_entangled_tables(f, 0.0)}
    assert not rows["phi=0, j even"].passed
    assert rows["phi=0, j even"].measured_concurrence == pytest.approx(0.5, abs=1e-12)
    assert not rows["phi=pi, j even"].passed
    assert rows["phi=pi/2, j even"].passed
    assert rows["phi=3pi/2, j even"].passed
    # moving omega to pi/4 (sin 2w = 1) restores maximal entanglement, which
    # pins the defect to the tabled omega value
    c = 3 * math.pi / 4  # n = 0 row value at chi = 0
    assert concurrence(f.state([math.pi / 4, 0.0, c])) == pytest.approx(
        1.0, abs=1e-12
    )


def test_tables_c5_chi_slip_rows():
    chi = 0.7
    eta = InitialCoefficients.normalized(0.5, 0.5, 0, S2 * cmath.exp(1j * chi))
    f = family_for_case(classify(eta), eta)
    rows = {r.row: r for r in verify_max_entangled_tables(f, chi)}
    assert not rows["phi=pi/2, j even"].passed  # printed -chi, oracle needs -2chi
    assert rows["phi=3pi/2, j even"].passed  # chi cancels as printed


def test_scan_c2_grid():
    eta = InitialCoefficients(1, 0, 0, 0)
    f = family_for_case(classify(eta), eta)
    scan = scan_concurrence(f, {"phi": (0.0, 2 * math.pi, 101)})
    xi_best, val_best = scan.argmax
    assert val_best == pytest.approx(1.0, abs=1e-12)
    assert min(abs(xi_best[0] - 0.0), abs(xi_best[0] - math.pi)) < 1e-12
    assert np.all(scan.values >= -1e-15) and np.all(scan.values <= 1 + 1e-12)


def test_scan_c1_period():
    # measured concurrence period over c_plus is pi/2 (the cos(4 c_plus)
    # dependence), recorded against a dense scan
    eta = InitialCoefficients.normalized(0, 0, 0.8, 0.6)
    f = family_for_case(classify(eta), eta)
    scan = scan_concurrence(f, {"c_plus": (0.0, math.pi, 201)})
    vals = scan.values
    quarter = 100  # pi/2 in index units of pi/200
    assert np.max(np.abs(vals[: quarter + 1] - vals[quarter:])) < 1e-12


def test_scan_stationary_family_constant():
    eta = InitialCoefficients.normalized(0, 0, 0.8, 0.6)
    f = family_for_case(classify(eta), eta)
    scan = scan_concurrence(f, {"c_plus": (0.1, 0.1, 3)})
    assert np.ptp(scan.values) < 1e-14


@pytest.mark.parametrize(
    "grid, match",
    [
        ({"ph": (0.0, 6.2832, 5)}, "'ph' is not in the chart"),
        ({"phi": (0.0, math.nan, 3)}, "endpoints of 'phi' must be finite"),
        ({"phi": (-math.inf, 1.0, 3)}, "endpoints of 'phi' must be finite"),
        ({"phi": (0.0, 1.0, 0)}, "count of 'phi' must be at least 1"),
        ({"phi": (0.0, 1.0, math.inf)}, "count of 'phi' must be at least 1 and an integer"),
        ({"phi": (0.0, 1.0, math.nan)}, "count of 'phi' must be at least 1 and an integer"),
        ({"phi": (0.0, 1.0, 2.7)}, "count of 'phi' must be at least 1 and an integer"),
        # finite endpoints whose span overflows, which made a NaN axis
        ({"phi": (-1e308, 1e308, 3)}, "span of 'phi' overflows"),
        ({"phi": (1e308, -1e308, 1)}, "span of 'phi' overflows"),
    ],
)
def test_scan_rejects_bad_grids(grid, match):
    eta = InitialCoefficients(1, 0, 0, 0)
    f = family_for_case(classify(eta), eta)
    with pytest.raises(ValueError, match=match):
        scan_concurrence(f, grid)


def test_perturbed_scan_matches_per_point_concurrence(rng):
    # C7 at beta = 1e-3 on a 4-D grid where 2 c3 +- omega - c_plus >= 2.6
    eta = random_eta(rng, "C7")
    f = family_for_case(classify(eta), eta, beta=1e-3)
    grid = {"omega": (0.2, 1.0, 5), "phi": (-3.0, 3.0, 7), "c3": (1.6, 2.4, 4),
            "c_plus": (-1.0, -0.4, 3)}
    scan = scan_concurrence(f, grid)
    axes = [np.linspace(*grid[name]) for name in f.chart]
    assert np.array_equal(scan.coords, grid_points(axes))
    assert scan.coords.shape == (5 * 7 * 4 * 3, 4)
    want = [concurrence(f.state(xi)) for xi in scan.coords]
    assert np.max(np.abs(scan.values - want)) <= 1e-14


@pytest.mark.parametrize("grid", [
    {"omega": (0.2, 1.0, 5), "phi": (-3.0, 3.0, 7), "c3": (1.6, 2.4, 4), "c_plus": (-1.0, -0.4, 3)},
    {"phi": (-3.0, 3.0, 9), "c_plus": (-1.0, -0.4, 2)},
    {"c3": (0.0, 1.0, 1)},
])
def test_scan_coordinates_come_from_the_axes(grid, rng):
    # coords is grid_points of the axes, coordinates missing from the grid
    # held at 0, and argmax the point of the largest value
    eta = random_eta(rng, "C7")
    scan = scan_concurrence(family_for_case(classify(eta), eta), grid)
    axes = [np.linspace(*grid[name]) if name in grid else np.array([0.0])
            for name in ("omega", "phi", "c3", "c_plus")]
    assert scan.coords.tobytes() == grid_points(axes).tobytes()
    xi, value = scan.argmax
    k = int(np.argmax(scan.values))
    assert xi.tobytes() == grid_points(axes)[k].tobytes()
    assert value == scan.values[k]


def test_scan_axes_are_bitwise_linspace(rng):
    # the scan builds its axes without np.linspace's per-call overhead but
    # with its arithmetic: single points, equal endpoints, falling axes, a
    # step that underflows, and random endpoints over twelve decades
    eta = InitialCoefficients(1, 0, 0, 0)
    f = family_for_case(classify(eta), eta)
    cases = [(0.3, 0.3, 5), (2.0, -1.0, 1), (1.5, 1.5, 1), (2.0, -3.0, 7), (0.0, 5e-324, 3)]
    for _ in range(300):
        a, b = rng.uniform(-10.0, 10.0, 2) * 10.0 ** rng.integers(-6, 6, 2)
        cases.append((float(a), float(b), int(rng.integers(1, 40))))
    assert sum(a > b for a, b, _ in cases) > 100
    for a, b, n in cases:
        (axis,) = scan_concurrence(f, {"phi": (a, b, n)}).axes
        assert axis.tobytes() == np.linspace(a, b, n).tobytes(), (a, b, n)


def test_concurrences_of_component_first_states_are_bitwise_those_of_rows(rng):
    eta = random_eta(rng, "C7")
    f = family_for_case(classify(eta), eta)
    axes = [np.linspace(-2.0, 2.0, n) for n in (3, 4, 5, 2)]
    rows = f.states(grid_points(axes))
    # the (N, 4) transpose of a component-first (4, N) array
    states = np.ascontiguousarray(rows.T).T
    assert states.T.flags.c_contiguous
    assert concurrences(states).tobytes() == concurrences(rows).tobytes()
    bad = states.copy(order="F")
    bad[7, 2] = math.nan
    with pytest.raises(ValueError, match="not normalized") as err:
        concurrences(bad)
    assert "np.float64" not in str(err.value)


@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_scan_raises_on_a_nan_from_the_jet(beta, monkeypatch, rng):
    # the NaN enters through the weights of the frame form, which the scan
    # reads at every beta
    eta = random_eta(rng, "C7")
    f = family_for_case(classify(eta), eta, beta=beta)

    def nan_weights(*args):
        weights = _form_weights(*args)
        weights[0, -1] = math.nan
        return weights

    monkeypatch.setattr(families, "_form_weights", nan_weights)
    grid = {"omega": (0.2, 1.0, 3), "phi": (-3.0, 3.0, 4), "c3": (1.6, 2.4, 3),
            "c_plus": (-1.0, -0.4, 2)}
    with pytest.raises(ValueError, match="not finite") as err:
        scan_concurrence(f, grid)
    assert "np.float64" not in str(err.value)
