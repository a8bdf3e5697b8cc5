import math
import warnings

import numpy as np
import pytest

from qorbits import families, fubini_study
from qorbits.curvature import MetricField, curvature_at
from qorbits.errors import (
    CaseMismatchError,
    ChartSingularityError,
    ClassificationToleranceError,
    ResonanceError,
    SingularTransformError,
)
from qorbits.hamiltonian import branch_sign
from qorbits.families import constrained_two_param_family, family_for_case, sliced_family
from qorbits.fubini_study import (
    _overlap,
    _signed_overlap,
    _theta_from_j,
    analytic_metric_c7,
    analytic_metric_case,
    analytic_metrics_c7,
    analytic_metrics_case,
    diagonalize_metrics,
    numeric_fs_metric,
    numeric_fs_metrics,
    numeric_fs_metrics_of,
    phase_twisted,
    pushforwards_c7,
    tangent_fs_metrics,
    two_param_metric,
    two_param_metric_printed_offdiag,
)
from qorbits.model import InitialCoefficients, classify, require_unit_rows
from qorbits.verify import DEFAULT_CASE_ETAS, _default_family

from conftest import random_eta, well_posed

S2 = 1 / math.sqrt(2)


def c7_point(rng, phi_range=(-1.3, 1.3)):
    return np.array(
        [
            rng.uniform(-2, 2),
            rng.uniform(*phi_range),
            rng.uniform(-2, 2),
            rng.uniform(-2, 2),
        ]
    )


def test_c2_metric_is_quarter_gamma_squared():
    eta = InitialCoefficients(1, 0, 0, 0)
    f = family_for_case(classify(eta), eta)
    for gamma in (1.0, math.sqrt(2), 2.0):
        g = numeric_fs_metric(f, np.array([0.8]), gamma=gamma)
        assert g.entries[0, 0] == pytest.approx(gamma**2 / 4, abs=1e-9)
        closed = analytic_metric_case(f, np.array([0.8]), gamma)
        assert closed.entries[0, 0] == gamma**2 / 4  # exact


def test_c1_metric_closed_form():
    eta = InitialCoefficients.normalized(0, 0, 0.8, 0.6)
    f = family_for_case(classify(eta), eta)
    g = numeric_fs_metric(f, np.array([0.3]))
    expected = eta.eta34_plus - eta.eta34_minus**2
    assert g.entries[0, 0] == pytest.approx(expected, abs=1e-9)
    closed = analytic_metric_case(f, np.array([0.3]))
    assert closed.entries[0, 0] == pytest.approx(expected, abs=1e-15)


def test_c7_closed_form_matches_numeric(rng):
    worst = 0.0
    for _ in range(50):
        eta = random_eta(rng, "C7")
        xi = c7_point(rng, phi_range=(-3.0, 3.0))
        if abs(abs(xi[1]) - math.pi / 2) < 0.05:
            xi[1] += 0.1  # stay off the eigenvector gauge jump
        f = family_for_case(classify(eta), eta)
        gn = numeric_fs_metric(f, xi, h=1e-5).entries
        ga = analytic_metric_c7(eta, xi).entries
        worst = max(worst, float(np.max(np.abs(gn - ga))))
    assert worst < 1e-6


def test_c7_closed_form_uniform_entries():
    eta = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
    g = analytic_metric_c7(eta, np.array([0.7, 0.3, 0.2, 0.4]), gamma=2.0)
    assert g.entries[2, 2] == pytest.approx(4.0, abs=1e-15)  # 4 g^2 p12 p34


def test_c7_closed_form_zero_couplings_for_balanced_first_pair(rng):
    eta = InitialCoefficients.normalized(0.5, 0.5j, 0.6, 0.4)  # |eta1| = |eta2|
    g = analytic_metric_c7(eta, c7_point(rng)).entries
    assert abs(g[0, 1]) < 1e-15  # eta12_minus factor
    assert abs(g[0, 2]) < 1e-15
    assert abs(g[0, 3]) < 1e-15


def test_metric_gauge_invariance(rng):
    for pattern in ("C1", "C2", "C3", "C4", "C5", "C6", "C7"):
        eta = random_eta(rng, pattern)
        f = family_for_case(classify(eta), eta)
        twisted = phase_twisted(f, lambda xs: xs.sum(axis=1))
        xi = rng.uniform(0.2, 1.1, size=f.dim)
        g0 = numeric_fs_metric(f, xi).entries
        g1 = numeric_fs_metric(twisted, xi).entries
        assert np.max(np.abs(g0 - g1)) < 1e-8, pattern


@pytest.mark.parametrize("label", list(DEFAULT_CASE_ETAS))
def test_gauge_pair_equals_the_two_metrics(label, rng, monkeypatch):
    # a family and its twisted copy at the same points share one stencil of
    # the family's states; each metric is the one-point numeric_fs_metric
    # to the bit
    f = _default_family(label)
    lam = lambda xs: xs.sum(axis=1)  # noqa: E731
    evaluated = []
    states_of = families.states_of
    monkeypatch.setattr(families, "states_of", lambda parts: evaluated.append(parts) or states_of(parts))

    def pair(xs, twin_xs, gamma=1.0):
        """The pair's metrics and the part counts of the states_of passes
        its numeric_fs_metrics_of call takes."""
        evaluated.clear()
        got = numeric_fs_metrics_of([(f, xs), (phase_twisted(f, lam), twin_xs)], gamma)
        return got, [len(parts) for parts in evaluated]

    for gamma in (1.0, 0.7):
        xi = rng.uniform(0.2, 1.0, size=f.dim)
        xs = xi[None]
        (g, gt), passes = pair(xs, xs, gamma)
        # one states_of part per pair: the twisted copy reuses the stencil
        # states of the same points (the same object, not an equal copy)
        assert passes == [1]
        assert g.shape == gt.shape == (1, f.dim, f.dim)
        assert g[0].tobytes() == numeric_fs_metric(f, xi, gamma).entries.tobytes()
        twisted = numeric_fs_metric(phase_twisted(f, lam), xi, gamma).entries
        assert gt[0].tobytes() == twisted.tobytes()
    xs = rng.uniform(0.2, 1.0, size=(1, f.dim))
    assert pair(xs, xs.copy())[1] == [2]


def test_metric_positive_semidefinite(rng):
    for pattern in ("C3", "C5", "C6", "C7"):
        eta = random_eta(rng, pattern)
        f = family_for_case(classify(eta), eta)
        for _ in range(5):
            xi = rng.uniform(-1.2, 1.2, size=f.dim)
            g = numeric_fs_metric(f, xi)
            assert np.linalg.eigvalsh(g.entries).min() > -1e-9


def test_metric_symmetric_finite_and_psd(rng):
    eta = random_eta(rng, "C7")
    f = family_for_case(classify(eta), eta)
    g = numeric_fs_metric(f, c7_point(rng)).entries
    assert np.isfinite(g).all()
    assert np.array_equal(g, g.T)
    assert np.linalg.eigvalsh(g).min() > -1e-9


def test_flat_slice_constant_components(rng):
    # with the z-field off, phi freezes and the remaining 3-chart metric has
    # no coordinate dependence at all
    eta = random_eta(rng, "C7")
    f = family_for_case(classify(eta), eta)
    fs = sliced_family(f, {"phi": 0.0})
    assert fs.chart == ("omega", "c3", "c_plus")
    mats = [
        numeric_fs_metric(fs, np.array([w, c3, cp])).entries
        for w in (0.25, 1.3)
        for c3 in (0.1, 0.9)
        for cp in (0.4, 1.5)
    ]
    variation = max(float(np.max(np.abs(m - mats[0]))) for m in mats)
    assert variation < 1e-9


def test_degenerate_axis_flagged():
    # a chart coordinate that does not move the ray keeps its (zero) row and
    # is flagged rather than dropped
    class Padded:
        chart = ("c_plus", "idle")

        def __init__(self, base):
            self.base = base

        def states(self, xs):
            return self.base.states(xs[:, :1])

    eta = InitialCoefficients(0, 0, S2, S2)
    f = Padded(family_for_case(classify(eta), eta))
    g = numeric_fs_metric(f, np.array([0.4, 0.0]))
    assert g.degenerate_axes == (1,)
    assert g.entries.shape == (2, 2)
    # the live direction is untouched
    assert g.entries[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_diagonalize_c7_pushforward(rng):
    worst_off = worst_diag = 0.0
    done = 0
    while done < 20:
        eta = random_eta(rng, "C7")
        omega = rng.uniform(-2, 2)
        k = (eta.eta1 * np.conj(eta.eta2) * np.exp(-2j * omega)).real
        if abs(k) < 0.05:
            continue
        done += 1
        xi = np.array([omega, 0.3, 0.2, 0.4])
        gamma = 1.3
        gp = pushforwards_c7(eta.as_array(), xi, gamma)
        f = family_for_case(classify(eta), eta)
        diag_expected = np.diag(analytic_metric_case(f, xi, gamma).entries)
        off = gp - np.diag(np.diag(gp))
        worst_off = max(worst_off, float(np.max(np.abs(off))))
        worst_diag = max(
            worst_diag,
            float(np.max(np.abs(np.diag(gp) - diag_expected))),
        )
    assert worst_off < 1e-10
    assert worst_diag < 1e-10


def test_pushforward_takes_one_row_pass_and_one_overlap_per_form(rng, monkeypatch):
    # one each for the two closed forms it composes, and one of its own
    _, rows, xs = _rows_and_points(rng, "C7", 100)
    clear = np.abs(_overlap(rows, xs[:, 0])[0]) >= 0.05
    rows, xs = rows[clear][:20], xs[clear][:20]
    assert len(rows) == 20
    calls = dict.fromkeys(("require_unit_rows", "_overlap"), 0)
    for name in calls:
        def counted(*args, inner=getattr(fubini_study, name), name=name):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(fubini_study, name, counted)
    pushforwards_c7(rows, xs)
    assert calls == {"require_unit_rows": 3, "_overlap": 3}


def test_diagonalize_balanced_pair_kills_k1_k2():
    eta = InitialCoefficients.normalized(0.5, 0.5j, 0.6, 0.4)
    t = diagonalize_metrics(eta.as_array(), 0.6, 0.0)
    assert t.k1 == 0.0
    assert t.k2 == 0.0


def test_diagonalize_k4_zero_for_balanced_34():
    eta = InitialCoefficients.normalized(0.6, 0.4, 0.5, 0.5)
    t = diagonalize_metrics(eta.as_array(), 0.3, 0.0)
    assert t.k4 == 0.0
    f = family_for_case(classify(eta), eta)
    g = analytic_metric_case(f, np.array([0.3, 0.2, 0.1, 0.5]))
    # c_plus' component maximal: gamma^2 eta34_plus
    assert g.entries[3, 3] == pytest.approx(eta.eta34_plus, abs=1e-15)


def test_diagonalize_singular_transform():
    eta = InitialCoefficients.normalized(0.7, 0.3, 0.648074069840786, 0)
    # eta34- = eta34+ makes eta34+ - (eta34-)^2 != 0 generally; force the
    # 12-sector singularity instead: |J| = eta12+/2 requires |eta1| = |eta2|
    # and a quarter-phase; build it explicitly
    eta = InitialCoefficients.normalized(0.5, 0.5j, 0.6, 0.4)
    # J = Im(eta1 conj(eta2) e^{-2iw}) = Im(-0.25i e^{-2iw}); at w = 0:
    # J = -0.25 = -eta12+/2 -> 4J^2 - (eta12+)^2 = 0
    with pytest.raises(SingularTransformError):
        diagonalize_metrics(eta.as_array(), 0.0, 0.0)


def test_case_closed_forms_document_known_ratios(rng):
    # C4: the cataloged g_cc is 9x the gauge-invariant numeric value
    eta4 = InitialCoefficients.normalized(0.8, 0, 0.6, 0)
    f4 = family_for_case(classify(eta4), eta4)
    xi4 = np.array([0.4, 1.1])
    gn4 = numeric_fs_metric(f4, xi4).entries
    ga4 = analytic_metric_case(f4, xi4).entries
    assert gn4[0, 0] == pytest.approx(ga4[0, 0], abs=1e-9)  # g_phiphi agrees
    assert abs(gn4[0, 1]) < 1e-9  # off-diagonal vanishes
    assert gn4[1, 1] == pytest.approx(0.64 * 0.36, abs=1e-9)
    assert ga4[1, 1] / gn4[1, 1] == pytest.approx(9.0, abs=1e-6)

    # C5: cataloged g_c'c' is 4x the numeric g_cc
    eta5 = random_eta(rng, "C5")
    f5 = family_for_case(classify(eta5), eta5)
    xi5 = np.array([0.7, 0.4, 0.9])
    gn5 = numeric_fs_metric(f5, xi5).entries
    ga5 = analytic_metric_case(f5, xi5).entries
    assert ga5[2, 2] / gn5[2, 2] == pytest.approx(4.0, abs=1e-6)

    # C6: cataloged g_c'c' is 4x the numeric diagonalized value
    eta6 = random_eta(rng, "C6")
    f6 = family_for_case(classify(eta6), eta6)
    xi6 = np.array([0.4, 0.8, 0.6])
    gn6 = numeric_fs_metric(f6, xi6).entries
    blk = gn6[1:, 1:]
    diagonalized_cc = blk[0, 0] - blk[0, 1] ** 2 / blk[1, 1]
    ga6 = analytic_metric_case(f6, xi6).entries
    assert gn6[0, 0] == pytest.approx(ga6[0, 0], abs=1e-9)
    assert gn6[2, 2] == pytest.approx(ga6[2, 2], abs=1e-9)  # c_plus' row exact
    assert ga6[1, 1] / diagonalized_cc == pytest.approx(4.0, abs=1e-6)


def test_c3_sphere_closed_form(rng):
    # balanced C3 coefficients: round sphere of radius gamma/2
    eta = InitialCoefficients.normalized(S2, S2 * np.exp(0.4j), 0, 0)
    f = family_for_case(classify(eta), eta)
    g = analytic_metric_case(f, np.array([0.3, 0.2]), gamma=2.0)
    assert g.coords == ("theta", "phi_prime")
    assert g.entries[0, 0] == pytest.approx(1.0, abs=1e-15)  # gamma^2/4
    theta = math.acos(
        2 * (eta.eta1 * np.conj(eta.eta2) * np.exp(-2j * 0.3)).imag
    )
    assert g.entries[1, 1] == pytest.approx(math.sin(theta) ** 2, abs=1e-12)


def test_two_param_metric_alpha_zero_balanced_34():
    eta = InitialCoefficients.normalized(0.8, 0.2, math.sqrt(0.16), math.sqrt(0.16))
    g = two_param_metric(0.0, eta)
    assert abs(g.entries[0, 1]) < 1e-15
    assert g.entries[0, 0] == pytest.approx(
        eta.eta12_plus - eta.eta12_minus**2, abs=1e-15
    )
    assert g.entries[1, 1] == pytest.approx(eta.eta34_plus, abs=1e-15)


def test_two_param_metric_matches_numeric(rng):
    eta = InitialCoefficients.normalized(0.7, 0.4, 0.5, 0.3)
    for alpha in (0.0, 0.7, 1.0):
        fam = constrained_two_param_family(alpha, eta)
        for _ in range(3):
            xi = rng.uniform(0.3, 1.2, size=2)
            gn = numeric_fs_metric(fam, xi).entries
            ga = two_param_metric(alpha, eta).entries
            assert np.max(np.abs(gn - ga)) < 1e-6
        # the cataloged off-diagonal is exactly twice the oracle value
        printed = two_param_metric_printed_offdiag(alpha, eta)
        if abs(ga[0, 1]) > 1e-12:
            assert printed / ga[0, 1] == pytest.approx(2.0, abs=1e-12)


def test_two_param_tangent_metric_matches_closed_form(rng):
    # exact tangents through the constrained embedding: measured 2.2e-16
    eta = InitialCoefficients.normalized(0.7, 0.4, 0.5, 0.3)
    full = family_for_case(classify(eta), eta)
    for alpha in (0.0, 0.7, 1.0):
        fam = constrained_two_param_family(alpha, eta)
        xs = rng.uniform(-2, 2, size=(20, 2))
        gt = tangent_fs_metrics(fam, xs)
        assert np.max(np.abs(gt - two_param_metric(alpha, eta).entries)) < 1e-14
        # the states are the general orbit's at phi = pi/2, c3 = alpha c_plus / 2
        omega, c_plus = xs.T
        embedded = np.column_stack([omega, np.full(20, np.pi / 2), alpha * c_plus / 2, c_plus])
        assert np.max(np.abs(fam.states(xs) - full.states(embedded))) < 1e-14


def test_step_size_guard():
    eta = InitialCoefficients(1, 0, 0, 0)
    f = family_for_case(classify(eta), eta)
    with pytest.raises(ValueError):
        numeric_fs_metric(f, np.array([0.3]), h=1e-2)


def test_chart_singularity_error_names_coordinate():
    class Bad:
        chart = ("good", "bad")

        def states(self, xs):
            v = np.zeros((len(xs), 4), dtype=complex)
            v[:, 0], v[:, 3] = 1.0, xs[:, 1]
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            v[np.abs(xs[:, 1]) > 0.05, 3] = np.nan
            return v

    with pytest.raises(ChartSingularityError, match="bad"):
        numeric_fs_metric(Bad(), np.array([0.0, 0.049999]), h=1e-3)


def _assert_rows_match_single_point(f, xs):
    batch = numeric_fs_metrics(f, xs)
    assert batch.shape == (len(xs), len(f.chart), len(f.chart))
    for x, g in zip(xs, batch):
        assert np.array_equal(g, numeric_fs_metric(f, x).entries)
        assert np.array_equal(g, g.T)


def test_batched_metrics_equal_single_point(rng):
    for pattern in ("C1", "C2", "C3", "C4", "C5", "C6", "C7"):
        eta = random_eta(rng, pattern)
        f = family_for_case(classify(eta), eta)
        _assert_rows_match_single_point(f, rng.uniform(-1.2, 1.2, size=(5, f.dim)))
    f = family_for_case(classify(eta), eta)  # C7
    _assert_rows_match_single_point(
        sliced_family(f, {"phi": 0.3}), rng.uniform(-1.2, 1.2, size=(4, 3))
    )
    _assert_rows_match_single_point(
        phase_twisted(f, lambda xs: xs.sum(axis=1)), rng.uniform(-1.2, 1.2, size=(4, 4))
    )


def test_batched_metrics_reject_bad_input():
    eta = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
    f = family_for_case(classify(eta), eta)
    with pytest.raises(ValueError):
        numeric_fs_metrics(f, np.zeros((2, 4)), h=1e-2)
    with pytest.raises(ValueError):
        numeric_fs_metrics(f, np.zeros(4))
    xs = np.array([[0.7, 0.3, 0.2, 0.4], [0.7, np.nan, 0.2, 0.4]])
    with pytest.raises(ChartSingularityError, match="omega"):
        numeric_fs_metrics(f, xs)


def test_refusals_name_the_callers_shapes(monkeypatch):
    # the points and coefficient rows are checked before the stencil is
    # built: a refusal gives the shapes the caller passed, alone or as one
    # part of a pass, and no state is evaluated
    f7 = _default_family("C7")
    rows = np.full((3, 4), 0.5)
    refused = [
        ((f7, np.zeros((2, 4)), rows), r"^expected \(2, 4\) coefficient rows, got \(3, 4\)$"),
        ((f7, np.zeros((1, 3))), r"^expected \(N, 4\) coordinates, got \(1, 3\)$"),
        ((f7, np.zeros(4)), r"^expected \(N, 4\) coordinates, got \(4,\)$"),
    ]
    monkeypatch.setattr(families, "states_of", lambda parts: pytest.fail("states evaluated"))
    good = (_default_family("C3"), np.zeros((2, 2)))
    for (family, xs, *etas), message in refused:
        with pytest.raises(ValueError, match=message):
            numeric_fs_metrics(family, xs, etas=etas[0] if etas else None)
        with pytest.raises(ValueError, match=message):
            numeric_fs_metrics_of([good, (family, xs, *etas)])


@pytest.mark.parametrize("h", [1e-2, 1e-8, math.nan])
def test_pass_refuses_its_step_before_evaluating_a_state(h, monkeypatch):
    calls = []
    monkeypatch.setattr(families, "states_of", lambda parts: calls.append(parts))

    class Oracle:
        chart = ("c_plus",)

        def states(self, xs):
            calls.append(xs)

    f7 = _default_family("C7")
    xs = np.full((2, 4), 0.3)
    parts = [(f7, xs), (phase_twisted(f7, lambda xs: xs[:, 0]), xs), (Oracle(), [[0.4]])]
    with pytest.raises(ValueError, match=r"step h must lie in \[1e-7, 1e-3\]"):
        numeric_fs_metrics_of(parts, h=h)
    assert calls == []


def test_one_part_keeps_the_message_of_its_states():
    # a refusal that comes from the states of a one-part call is the
    # family's own, with no part index
    eta = InitialCoefficients.normalized(0.6, 0.3 + 0.4j, 0.5, -0.2j)
    f = family_for_case(classify(eta), eta, beta=1e-3)
    xi = np.array([0.9, 0.3, 0.4, 1.7])  # 2 c3 - c_plus + omega = 0
    with pytest.raises(ResonanceError) as want:
        f.state(xi)
    with pytest.raises(ResonanceError) as got:
        numeric_fs_metric(f, xi)
    assert str(got.value) == str(want.value)


def test_twisted_family_takes_coefficient_rows(rng):
    # each row's metric is that of its own twisted family at its own point,
    # to the bit, alone and in a pass
    lam = lambda xs: np.sin(xs).sum(axis=1)  # noqa: E731
    etas = [random_eta(rng, "C7") for _ in range(6)]
    rows = np.array([eta.as_array() for eta in etas])
    f = family_for_case(classify(etas[0]), etas[0])
    xs = rng.uniform(-1.2, 1.2, size=(6, 4))
    batch = numeric_fs_metrics(phase_twisted(f, lam), xs, 0.7, etas=rows)
    for eta, xi, g in zip(etas, xs, batch):
        one = numeric_fs_metric(phase_twisted(family_for_case(classify(eta), eta), lam), xi, 0.7)
        assert g.tobytes() == one.entries.tobytes()
    got = numeric_fs_metrics_of([(f, xs), (phase_twisted(f, lam), xs, rows)], 0.7)
    assert got[1].tobytes() == batch.tobytes()
    assert got[0].tobytes() == numeric_fs_metrics(f, xs, 0.7).tobytes()


@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_tangent_metrics_match_finite_differences(rng, beta):
    for pattern in ("C1", "C2", "C3", "C4", "C5", "C6", "C7"):
        eta = random_eta(rng, pattern)
        f = family_for_case(classify(eta), eta, beta=beta)
        xs = well_posed(f, rng.uniform(-1.3, 1.3, size=(40, f.dim)))
        assert len(xs) >= 10
        gt = tangent_fs_metrics(f, xs, gamma=1.3)
        assert np.max(np.abs(gt - numeric_fs_metrics(f, xs, gamma=1.3))) < 1e-9, pattern
        assert np.array_equal(gt, gt.transpose(0, 2, 1))


def test_tangent_metric_c7_matches_closed_form(rng):
    eta = random_eta(rng, "C7")
    f = family_for_case(classify(eta), eta)
    xs = rng.uniform(-1.5, 1.5, size=(200, 4))
    closed = np.array([analytic_metric_c7(eta, x).entries for x in xs])
    assert np.max(np.abs(tangent_fs_metrics(f, xs) - closed)) < 1e-13


def test_tangent_metrics_name_singular_coordinate():
    class Bad:
        chart = ("good", "bad")

        def frame_jet(self, xs, order):
            psi = np.tile([1.0, 0, 0, 0], (len(xs), 1)).astype(complex)
            dpsi = np.zeros((len(xs), 2, 4), dtype=complex)
            dpsi[1:, 1, 3] = np.inf
            return psi, dpsi

    tangent_fs_metrics(Bad(), np.zeros((1, 2)))
    with pytest.raises(ChartSingularityError, match="'bad'"):
        tangent_fs_metrics(Bad(), np.zeros((3, 2)))
    # the family checks the batch shape
    eta = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        tangent_fs_metrics(family_for_case(classify(eta), eta), np.zeros(4))


def test_slice_family_fields_have_exact_zero_curvature():
    # the field-off slice and the two-parameter manifold have constant
    # metrics; their family fields take the Gauss equation, which reads 0
    # to rounding (measured 1.9e-15 and 7.3e-16), where the stencil on a
    # finite-difference field of the slice reads about 1e-4
    eta = InitialCoefficients.normalized(0.6, 0.3 + 0.4j, 0.5, -0.2j)
    f = family_for_case(classify(eta), eta)
    slice_field = MetricField.from_family(sliced_family(f, {"phi": 0.0}))
    for xi in ([0.2, 0.1, 0.3], [0.9, 0.8, 1.2], [-1.1, 0.4, -0.7]):
        assert abs(curvature_at(slice_field, np.array(xi)).scalar) < 1e-12
    eta2 = InitialCoefficients.normalized(0.7, 0.4, 0.5, 0.3)
    two_param_field = MetricField.from_family(constrained_two_param_family(0.7, eta2))
    for xi in ([0.6, 0.8], [-1.3, 0.2]):
        assert abs(curvature_at(two_param_field, np.array(xi)).scalar) < 1e-12


def test_tangent_field_curvature_matches_finite_difference_field():
    eta = InitialCoefficients.normalized(0.6, 0.3 + 0.4j, 0.5, -0.2j)
    f = family_for_case(classify(eta), eta)
    fd = MetricField(f.dim, lambda xs: numeric_fs_metrics(f, xs))
    for xi in ([0.7, 0.3, 0.2, 0.4], [-0.4, 0.9, 0.6, -1.1]):
        xi = np.array(xi)
        exact = curvature_at(MetricField.from_family(f), xi).scalar
        assert exact == pytest.approx(curvature_at(fd, xi).scalar, rel=1e-2)


def _rows_and_points(rng, pattern, n=60):
    """n random coefficient sets of a case, as objects and as (n, 4) rows,
    and n chart points with phi over (-pi, pi], so cos(phi) takes both signs."""
    etas = [random_eta(rng, pattern) for _ in range(n)]
    xs = rng.uniform(-2, 2, size=(n, len(etas[0]._case.chart)))
    xs[:, 1] = rng.uniform(-math.pi, math.pi, size=n)
    return etas, np.array([eta.as_array() for eta in etas]), xs


def test_overlap_rounds_as_the_one_point_complex_product(rng):
    # J and K per row, bitwise, against the complex scalar products the
    # one-point closed forms used to take
    etas, rows, xs = _rows_and_points(rng, "C7", 500)
    omega, phi = xs[:, 0], xs[:, 1]
    for k, (eta, w, p) in enumerate(zip(etas, omega, phi)):
        z = eta.eta1 * np.conj(eta.eta2) * np.exp(-2j * float(w))
        assert _signed_overlap(rows, omega, phi)[1][k] == float(z.imag) * branch_sign(p)
        assert _overlap(rows, omega)[0][k] == float(z.real)
    # theta goes through a vectorized acos: within a few ulp of math.acos
    scalar = [
        math.acos(max(-1.0, min(1.0, 2.0 * float(z.imag) * branch_sign(p) / eta.eta12_plus)))
        for eta, w, p in zip(etas, omega, phi)
        for z in [eta.eta1 * np.conj(eta.eta2) * np.exp(-2j * float(w))]
    ]
    theta = _theta_from_j(require_unit_rows(rows)[1], _signed_overlap(rows, omega, phi)[1])
    np.testing.assert_array_max_ulp(theta, np.array(scalar), maxulp=4)


def test_batch_closed_forms_equal_per_point_calls(rng):
    etas, rows, xs = _rows_and_points(rng, "C7")
    for gamma in (1.0, 1.3):
        assert np.array_equal(
            analytic_metrics_c7(rows, xs, gamma),
            [analytic_metric_c7(eta, x, gamma).entries for eta, x in zip(etas, xs)],
        )
        assert np.array_equal(
            pushforwards_c7(rows, xs, gamma),
            [pushforwards_c7(eta.as_array(), x, gamma) for eta, x in zip(etas, xs)],
        )
    t = diagonalize_metrics(rows, xs[:, 0], xs[:, 1])
    for k, (eta, x) in enumerate(zip(etas, xs)):
        one = diagonalize_metrics(eta.as_array(), x[0], x[1])
        assert (t.k1[k], t.k2[k], t.k3[k], t.k4[k]) == (one.k1, one.k2, one.k3, one.k4)
    # one (4,) row serves every point
    assert np.array_equal(
        analytic_metrics_c7(rows[0], xs, 1.3),
        [analytic_metric_c7(etas[0], x, 1.3).entries for x in xs],
    )


@pytest.mark.parametrize("pattern", ["C3", "C5", "C7"])
def test_batch_case_closed_forms_equal_per_point_calls(rng, pattern):
    etas, rows, xs = _rows_and_points(rng, pattern)
    f = family_for_case(classify(etas[0]), etas[0])
    batch = analytic_metrics_case(f, xs, 1.3, rows)
    one = [analytic_metric_case(family_for_case(f.case, eta), x, 1.3).entries
           for eta, x in zip(etas, xs)]
    assert np.array_equal(batch, one)
    # without rows, the family's own coefficients at every point
    assert np.array_equal(
        analytic_metrics_case(f, xs, 1.3),
        [analytic_metric_case(f, x, 1.3).entries for x in xs],
    )


def _raises_without_warnings(error, fn, *args):
    # a singular row raises before any division: no RuntimeWarning, no NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error) as info:
            fn(*args)
    return str(info.value)


def test_batch_with_one_singular_row_raises_the_one_point_error(rng):
    _, rows, xs = _rows_and_points(rng, "C7", 8)
    xi = np.array([0.0, 0.3, 0.2, 0.4])
    # 4J^2 = (eta12+)^2 at omega = 0 (see test_diagonalize_singular_transform)
    d12 = InitialCoefficients.normalized(0.5, 0.5j, 0.6, 0.4)
    # K = 0 at omega = 0 where the transform is regular: |eta1| != |eta2|
    k0 = InitialCoefficients.normalized(0.6, 0.3j, 0.5, 0.4)
    for eta, match in ((d12, "transform singular"), (k0, "K = ")):
        with pytest.raises(SingularTransformError, match=match):
            pushforwards_c7(eta.as_array(), xi)
        bad_rows, bad_xs = rows.copy(), xs.copy()
        bad_rows[5], bad_xs[5] = eta.as_array(), xi
        assert match in _raises_without_warnings(SingularTransformError, pushforwards_c7, bad_rows, bad_xs)
    bad_rows[5] = d12.as_array()
    one = _raises_without_warnings(SingularTransformError, diagonalize_metrics, d12.as_array(), 0.0, 0.3)
    batch = _raises_without_warnings(
        SingularTransformError, diagonalize_metrics, bad_rows, bad_xs[:, 0], 0.3
    )
    assert batch == one


def test_batch_case_rows_are_classified(rng):
    etas, rows, xs = _rows_and_points(rng, "C7", 6)
    f = family_for_case(classify(etas[0]), etas[0])
    ambiguous = rows.copy()
    ambiguous[3] = InitialCoefficients.normalized(1.0, 5e-12, 1.0, 1.0).as_array()
    with pytest.raises(ClassificationToleranceError):
        analytic_metrics_case(f, xs, 1.0, ambiguous)
    other = rows.copy()
    other[4] = random_eta(rng, "C5").as_array()
    with pytest.raises(CaseMismatchError, match="row 4 classifies as .*C5"):
        analytic_metrics_case(f, xs, 1.0, other)
    eta5 = random_eta(rng, "C5")
    with pytest.raises(CaseMismatchError):
        analytic_metrics_case(family_for_case(classify(eta5), eta5), xs[:, :3], 1.0, rows)


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, 1e-200, 1e200])
def test_metric_scale_must_be_finite_and_positive(gamma):
    # gamma = 0 zeroed every metric, and so did gamma = 1e-200, whose square
    # is 0; the square of 1e200 is not finite.  The closed forms stay as
    # printed
    eta = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
    f = family_for_case(classify(eta), eta)
    xi = np.array([0.7, 0.3, 0.2, 0.4])
    with pytest.raises(ValueError, match="gamma"):
        numeric_fs_metric(f, xi, gamma=gamma)
    with pytest.raises(ValueError, match="gamma"):
        tangent_fs_metrics(f, xi[None], gamma)
