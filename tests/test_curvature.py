import math

import numpy as np
import pytest

from qorbits.curvature import (
    UNIFORM_C7_SCALAR,
    MetricField,
    curvature_at,
    g0_uniform_field,
    g0_uniform_metric,
    g0_uniform_ricci,
    gauss_curvature,
    perturbed_scalar_curvature_closed_form,
    sphere_metric_field,
)
from qorbits.errors import (
    ChartSingularityError,
    FormulaDomainError,
    ResonanceError,
    SingularMetricError,
)
from qorbits.families import family_for_case
from qorbits.fubini_study import (
    analytic_metric_c7,
    analytic_metrics_c7,
    analytic_metrics_case,
    numeric_fs_metrics,
    phase_twisted,
    tangent_fs_metrics,
)
from qorbits.model import InitialCoefficients, classify

from conftest import random_eta, well_posed


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
def test_sphere_scalar_curvature(radius):
    rep = curvature_at(sphere_metric_field(radius), np.array([1.1, 0.7]))
    assert rep.scalar == pytest.approx(2.0 / radius**2, rel=1e-6)


def test_sphere_einstein_identity():
    mf = sphere_metric_field(1.3)
    xi = np.array([0.9, 0.4])
    rep = curvature_at(mf, xi)
    g = mf(xi)
    assert np.max(np.abs(rep.ricci - 0.5 * rep.scalar * g)) < 1e-5


def _constant_field(g):
    """The metric field equal to the matrix g everywhere."""
    g = np.asarray(g, dtype=float)
    return MetricField(len(g), lambda xs: np.broadcast_to(g, (len(xs),) + g.shape))


def test_flat_constant_metric():
    mf = _constant_field(np.diag([0.16, 2.0736]))
    rep = curvature_at(mf, np.array([0.3, 0.4]))
    assert abs(rep.scalar) < 1e-8
    assert np.max(np.abs(rep.riemann)) < 1e-8


def test_riemann_antisymmetry_and_bianchi():
    rep = curvature_at(g0_uniform_field(0.8), np.array([0.5, 0.3, 0.2, 0.4]))
    r = rep.riemann
    assert np.max(np.abs(r + r.transpose(0, 1, 3, 2))) < 1e-6
    cyclic = r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)
    assert np.max(np.abs(cyclic)) < 1e-5
    assert np.max(np.abs(rep.ricci - rep.ricci.T)) < 1e-6


def test_scale_covariance():
    # metric scaled by k^2 divides the scalar curvature by k^2
    base = g0_uniform_field(0.0, gamma=1.0)
    scaled = g0_uniform_field(0.0, gamma=1.7)
    xi = np.array([0.6, 0.3, 0.2, 0.4])
    r0 = curvature_at(base, xi).scalar
    r1 = curvature_at(scaled, xi).scalar
    assert r1 == pytest.approx(r0 / 1.7**2, rel=1e-6)


def test_stencil_is_fourth_order():
    # the extrapolated stencil's error falls 16-fold per halving of h: on
    # the uniform field |R - 14| read 4.7e-5, 3.0e-6 and 1.8e-7 at these
    # steps, ratios about 16 before rounding takes over at smaller h
    mf, xi = g0_uniform_field(0.0), np.array([0.6, 0.3, 0.2, 0.4])
    errs = [abs(curvature_at(mf, xi, h).scalar - 14.0) for h in (8e-3, 4e-3, 2e-3)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 12.0 < coarse / fine < 20.0


def test_dim1_christoffel_from_stencil():
    # a 1-D field is intrinsically flat, but its Christoffel symbol g'/2g
    # is not zero where the metric varies
    mf = MetricField(1, lambda xs: (1.0 + 0.5 * np.sin(xs))[:, :, None])
    x = 0.3
    rep = curvature_at(mf, np.array([x]))
    expected = 0.5 * math.cos(x) / (2.0 * (1.0 + 0.5 * math.sin(x)))
    assert rep.christoffel.shape == (1, 1, 1)
    assert rep.christoffel[0, 0, 0] == pytest.approx(expected, rel=1e-8)
    assert rep.scalar == 0.0
    assert np.array_equal(rep.ricci, [[0.0]])


def test_singular_metric_rejected():
    mf = _constant_field(np.diag([1.0, 0.0]))
    with pytest.raises(SingularMetricError):
        curvature_at(mf, np.array([0.1, 0.2]))


def test_singular_metric_at_stencil_centre_rejected():
    # singular only at xi + h e_0, a Christoffel centre of the stencil
    h = 1e-3
    xi = np.array([0.3, 0.2])

    def ev(xs):
        g = np.zeros((len(xs), 2, 2))
        g[:, 0, 0] = 1.0
        g[:, 1, 1] = np.where(np.abs(xs[:, 0] - (xi[0] + h)) < h / 4, 0.0, 1.0)
        return g

    mf = MetricField(2, ev)
    assert np.all(np.linalg.eigvalsh(mf(xi)) > 0.5)
    with pytest.raises(SingularMetricError, match=r"singular at \[0\.301"):
        curvature_at(mf, xi, h=h)


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
def test_curvature_step_validated(h):
    with pytest.raises(ValueError, match="step"):
        curvature_at(sphere_metric_field(1.0), np.array([1.1, 0.7]), h=h)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_stencil_evaluates_each_point_once(dim):
    # 4 d^2 + 2 d + 1 distinct points over the steps h and h/2, all in one
    # evaluator call
    calls = []

    def ev(xs):
        calls.append(list(map(tuple, xs)))
        return (1.0 + 0.1 * np.cos(xs))[:, :, None] * np.eye(dim)

    curvature_at(MetricField(dim, ev), np.full(dim, 0.3))
    expected = 4 * dim**2 + 2 * dim + 1
    assert len(calls) == 1
    assert len(calls[0]) == len(set(calls[0])) == expected


def test_evaluator_shape_checked():
    # a per-point evaluator handed a batch returns the wrong shape, named in
    # the error: np.diag of an (N, 2) batch is its diagonal, np.eye(2) one
    # matrix for the whole batch
    per_point = MetricField(2, lambda xi: np.diag(1.0 + 0.1 * np.cos(xi)))
    with pytest.raises(ValueError, match=r"shape \(1,\)"):
        per_point(np.array([0.3, 0.2]))
    with pytest.raises(ValueError, match=r"shape \(2,\)"):
        curvature_at(per_point, np.array([0.3, 0.2]))
    with pytest.raises(ValueError, match=r"shape \(2, 2\), not \(21, 2, 2\)"):
        curvature_at(MetricField(2, lambda xi: np.eye(2)), np.array([0.3, 0.2]))


@pytest.mark.parametrize("field", ["family", "g0", "sphere"])
def test_one_point_call_is_one_row_of_metrics(field):
    mf, xi = {
        "family": (MetricField.from_family(_uniform_c7_family(), 1.3), [0.7, 0.3, 0.2, 0.4]),
        "g0": (g0_uniform_field(0.8, 1.7), [0.5, 0.3, 0.2, 0.4]),
        "sphere": (sphere_metric_field(1.3), [0.9, 0.4]),
    }[field]
    xi = np.array(xi)
    g = mf(xi)
    assert g.shape == (mf.dim, mf.dim)
    assert np.array_equal(g, mf.metrics(xi[None])[0])


# scalar curvatures from evaluating every Christoffel centre's metrics
# separately; sharing the stencil's points may change only their rounding
PINNED_SCALARS = (
    (sphere_metric_field(0.5), (1.1, 0.7), 8.000000002368251),
    (sphere_metric_field(1.3), (0.9, 0.4), 1.1834319524349168),
    (g0_uniform_field(0.0), (0.35, 0.3, 0.2, 0.4), 14.000000000060075),
    (g0_uniform_field(0.8), (0.5, 0.3, 0.2, 0.4), 13.999999779040499),
)


@pytest.mark.parametrize("mf, xi, scalar", PINNED_SCALARS)
def test_scalar_matches_pinned_values(mf, xi, scalar):
    rep = curvature_at(mf, np.array(xi))
    assert rep.scalar == pytest.approx(scalar, rel=1e-9)


def _reference_scalar(mf, xi, h):
    """Richardson scalar curvature with every Christoffel centre's metrics
    evaluated separately, at the points (xi + s e_mu) + s e_nu."""

    def christoffel(c, s):
        ginv = np.linalg.inv(mf(c))
        dg = np.array([(mf(c + s * e) - mf(c - s * e)) / (2 * s) for e in np.eye(mf.dim)])
        t1 = np.einsum("rl,mln->rmn", ginv, dg)
        return 0.5 * (t1 + t1.transpose(0, 2, 1) - np.einsum("rl,lmn->rmn", ginv, dg))

    def scalar(s):
        gam = christoffel(xi, s)
        dgam = np.array(
            [(christoffel(xi + s * e, s) - christoffel(xi - s * e, s)) / (2 * s)
             for e in np.eye(mf.dim)]
        )
        riemann = (
            np.einsum("mrns->rsmn", dgam) - np.einsum("nrms->rsmn", dgam)
            + np.einsum("rml,lns->rsmn", gam, gam) - np.einsum("rnl,lms->rsmn", gam, gam)
        )
        return np.einsum("sn,sn->", np.linalg.inv(mf(xi)), np.einsum("rsrn->sn", riemann))

    return (4 * scalar(h / 2) - scalar(h)) / 3


def _uniform_c7_family():
    eta = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
    return family_for_case(classify(eta), eta)


def _assert_matches_per_centre_reference(mf):
    for xi in ([0.7, 0.3, 0.2, 0.4], [-0.4, 1.1, 0.9, -1.3]):
        xi = np.array(xi)
        ref = _reference_scalar(mf, xi, 1e-3)
        assert curvature_at(mf, xi).scalar == pytest.approx(ref, rel=1e-7)


def test_numeric_field_scalar_matches_per_centre_reference():
    # on a finite-difference metric field, rounding noise moves the curvature
    # by up to 1e-4 relative when the stencil points move by an ulp, so
    # sharing points must leave the h/2 step's points where they were
    f = _uniform_c7_family()
    _assert_matches_per_centre_reference(
        MetricField(f.dim, lambda xs: numeric_fs_metrics(f, xs)))


def test_tangent_field_scalar_matches_per_centre_reference():
    # the exact tangent field is far less sensitive to the stencil's floats;
    # built from its evaluator, with no family, it keeps the stencil route
    f = _uniform_c7_family()
    _assert_matches_per_centre_reference(
        MetricField(f.dim, lambda xs: tangent_fs_metrics(f, xs)))


def test_g0_point_values():
    g, ricci = g0_uniform_metric(0.0, 0.0, gamma=1.0), g0_uniform_ricci(0.0, 0.0)
    assert g[1, 1] == pytest.approx(1.0 / 8.0)
    assert g[1, 2] == 0.0
    assert UNIFORM_C7_SCALAR == 14.0
    assert ricci[1, 1] == pytest.approx(12.0 / 16.0)


def test_g0_equals_c7_closed_form():
    # the uniform-coefficient metric equals the general closed form with the
    # second coefficient carrying the phase alpha12
    for alpha12 in (0.0, 0.8, -1.1):
        for omega in (0.3, 0.9):
            eta = InitialCoefficients.normalized(
                0.5, 0.5 * np.exp(1j * alpha12), 0.5, 0.5
            )
            g_ref = analytic_metric_c7(eta, np.array([omega, 0.2, 0.1, 0.4]))
            g0 = g0_uniform_metric(omega, alpha12)
            assert np.max(np.abs(g_ref.entries - g0)) < 1e-12


def test_g0_batch_equals_per_point_calls(rng):
    omegas = rng.uniform(-3, 3, size=50)
    for alpha12, gamma in ((0.0, 1.0), (0.8, 1.7)):
        batch = g0_uniform_metric(omegas, alpha12, gamma)
        assert np.array_equal(batch, [g0_uniform_metric(float(w), alpha12, gamma) for w in omegas])
        assert np.array_equal(batch, g0_uniform_field(alpha12, gamma).metrics(
            np.column_stack([omegas, rng.uniform(-1, 1, size=(50, 3))])))


@pytest.mark.parametrize("gamma", [1.0, 1.4])
def test_g0_curvature_fourteen(gamma):
    fld = g0_uniform_field(0.0, gamma)
    for w in (0.35, 1.1):
        rep = curvature_at(fld, np.array([w, 0.3, 0.2, 0.4]))
        assert rep.scalar == pytest.approx(14.0 / gamma**2, rel=1e-3)


def test_g0_ricci_matches_catalog():
    for alpha12, w in ((0.0, 0.35), (0.8, 0.5)):
        rep = curvature_at(g0_uniform_field(alpha12), np.array([w, 0.3, 0.2, 0.4]))
        assert np.max(np.abs(rep.ricci - g0_uniform_ricci(w, alpha12))) < 1e-4


def test_g0_curvature_on_numeric_family_field():
    # same scalar from the family field's exact Gauss curvature (measured
    # 5.1e-16)
    eta = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
    f = family_for_case(classify(eta), eta)
    mf = MetricField.from_family(f)
    rep = curvature_at(mf, np.array([0.7, 0.3, 0.2, 0.4]))
    assert rep.scalar == pytest.approx(14.0, rel=1e-13)


def test_c3_sphere_curvature():
    # balanced two-coefficient family: round sphere of radius gamma/2
    eta = InitialCoefficients.normalized(
        1 / math.sqrt(2), np.exp(0.4j) / math.sqrt(2), 0, 0
    )
    for gamma in (1.0, 2.0):
        def ev(xs, gamma=gamma):
            xs = np.column_stack([xs, np.zeros((len(xs), 2))])
            return analytic_metrics_c7(eta.as_array(), xs, gamma)[:, :2, :2]

        mf = MetricField(2, ev)
        rep = curvature_at(mf, np.array([0.3, 0.2]))
        assert abs(rep.scalar - 8.0 / gamma**2) < 1e-3


def test_c4_flat_torus():
    eta = InitialCoefficients.normalized(0.8, 0, 0.6, 0)
    f = family_for_case(classify(eta), eta)
    # cataloged constant metric: exactly flat under the engine
    mf = MetricField(2, lambda xs: analytic_metrics_case(f, xs))
    rep = curvature_at(mf, np.array([0.3, 0.4]))
    assert abs(rep.scalar) < 1e-8
    # family route from exact tangent metrics: flat as well
    mfn = MetricField.from_family(f)
    rep_n = curvature_at(mfn, np.array([0.3, 0.4]))
    assert abs(rep_n.scalar) < 1e-8


def test_perturbed_curvature_closed_form_beta_zero():
    # the transcription reduces at beta = 0 to 10 + 4/cos^2(2w) (in units of
    # 1/gamma^2), verified independently; it meets the constant 14 only where
    # cos^2(2w) = 1, so the switch-off claim holds on that locus alone
    for w in (0.1, 0.3, 0.7, 1.2):
        val = perturbed_scalar_curvature_closed_form(w, 0.0, 1.0)
        derived = 10.0 + 4.0 / math.cos(2 * w) ** 2
        assert val == pytest.approx(derived, rel=1e-9)
    near = perturbed_scalar_curvature_closed_form(0.01, 0.0, 1.0)
    assert near == pytest.approx(14.0, rel=2e-4)
    far = perturbed_scalar_curvature_closed_form(0.7, 0.0, 1.0)
    assert abs(far - 14.0) / 14.0 > 1.0  # deviates strongly off the locus


def test_perturbed_curvature_closed_form_small_beta_finite():
    val = perturbed_scalar_curvature_closed_form(0.7, 1e-4, 1.0)
    assert math.isfinite(val)
    # gamma scaling
    val2 = perturbed_scalar_curvature_closed_form(0.7, 1e-4, 2.0)
    assert val2 == pytest.approx(val / 4.0, rel=1e-12)


def test_perturbed_curvature_pole():
    with pytest.raises(FormulaDomainError):
        perturbed_scalar_curvature_closed_form(math.pi / 4, 1e-4, 1.0)


# ---------------------------------------------------------------------------
# exact curvature of family fields: the Gauss equation


def _stencil_field(f):
    """The family's tangent-metric field built from evaluators: the
    finite-difference stencil route, the oracle of gauss_curvature."""
    return MetricField(f.dim, lambda xs: tangent_fs_metrics(f, xs))


@pytest.mark.parametrize("gamma", [1.0, 1.7])
def test_gauss_uniform_c7_fourteen(gamma):
    f = _uniform_c7_family()
    for xi in ([0.7, 0.3, 0.2, 0.4], [-1.1, -0.9, 2.0, 0.3]):
        rep = gauss_curvature(f, np.array(xi), gamma)
        assert rep.scalar == pytest.approx(14.0 / gamma**2, rel=1e-12)
        assert rep.h == 0.0 and rep.note == "exact: Gauss equation"


def test_gauss_uniform_c7_to_rounding(rng):
    # the inverse metric is refined to LU accuracy: over random uniform
    # points of metric condition <= 100 the scalar is 14 to 1.0e-15 (1.8e-14
    # from the unrefined eigen-inverse)
    worst, n = 0.0, 0
    while n < 60:
        eta = InitialCoefficients(*(0.5 * np.exp(1j * rng.uniform(-math.pi, math.pi, 4))))
        f = family_for_case(classify(eta), eta)
        rep = gauss_curvature(f, rng.uniform([-1.5, -1.2, -1.5, -1.5], [1.5, 1.2, 1.5, 1.5]))
        if rep.metric_condition <= 100:
            worst, n = max(worst, abs(rep.scalar - 14.0) / 14.0), n + 1
    assert worst < 5e-15


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_gauss_balanced_c3_sphere(gamma):
    # round sphere of radius gamma/2
    eta = InitialCoefficients.normalized(1, np.exp(0.4j), 0, 0)
    f = family_for_case(classify(eta), eta)
    rep = gauss_curvature(f, np.array([0.3, 0.2]), gamma)
    assert rep.scalar == pytest.approx(8.0 / gamma**2, rel=1e-12)


def test_gauss_c4_flat():
    eta = InitialCoefficients.normalized(0.8, 0, 0.6, 0)
    f = family_for_case(classify(eta), eta)
    rep = gauss_curvature(f, np.array([0.3, 0.4]))
    assert abs(rep.scalar) < 1e-12
    assert np.max(np.abs(rep.riemann)) < 1e-12


@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_gauss_matches_stencil_on_random_families(rng, beta):
    # at points of metric condition <= 100 the Richardson stencil on the
    # tangent-metric field is accurate to about 1e-8 relative
    for case in ("C3", "C4", "C5", "C6", "C7"):
        eta = random_eta(rng, case)
        f = family_for_case(classify(eta), eta, beta=beta)
        xs = well_posed(f, rng.uniform(-1.2, 1.2, size=(40, f.dim)), 0.3)
        evals = np.linalg.eigvalsh(tangent_fs_metrics(f, xs))
        xs = xs[evals[:, -1] <= 100 * evals[:, 0]][:3]
        assert len(xs) == 3, case
        for xi in xs:
            exact = gauss_curvature(f, xi)
            ref = curvature_at(_stencil_field(f), xi)
            scale = max(1.0, abs(ref.scalar))
            assert abs(exact.scalar - ref.scalar) < 1e-6 * scale, case
            assert np.max(np.abs(exact.ricci - ref.ricci)) < 1e-6 * scale, case
            assert np.max(np.abs(exact.riemann - ref.riemann)) < 1e-6 * scale, case
            assert np.max(np.abs(exact.christoffel - ref.christoffel)) < 1e-9, case
            assert exact.metric_condition == pytest.approx(ref.metric_condition, rel=1e-9)


@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_gauss_matches_stencil_over_formed_states(rng, beta):
    # gauss_curvature and tangent_fs_metrics both read frame coefficients;
    # this oracle forms the states: the Richardson stencil (h = 1e-3) over
    # numeric_fs_metrics (h = 1e-3, 4th-order differences of family.states).
    # Over 8 generic families per case and beta, 3 points of metric
    # condition <= 100 each, on 6 seeds, the worst deviations relative to
    # max(1, |R|) were 9.7e-5 (scalar), 1.3e-5 (Ricci and Riemann) and an
    # absolute 2.4e-8 (Christoffel)
    for case in ("C5", "C6", "C7"):
        eta = random_eta(rng, case)
        f = family_for_case(classify(eta), eta, beta=beta)
        xs = well_posed(f, rng.uniform(-1.2, 1.2, size=(40, f.dim)), 0.3)
        evals = np.linalg.eigvalsh(numeric_fs_metrics(f, xs, h=1e-3))
        xs = xs[evals[:, -1] <= 100 * evals[:, 0]][:3]
        assert len(xs) == 3, case
        field = MetricField(f.dim, lambda xs: numeric_fs_metrics(f, xs, h=1e-3))
        for xi in xs:
            exact = gauss_curvature(f, xi)
            ref = curvature_at(field, xi, h=1e-3)
            scale = max(1.0, abs(ref.scalar))
            assert abs(exact.scalar - ref.scalar) < 1e-3 * scale, case
            assert np.max(np.abs(exact.ricci - ref.ricci)) < 1e-4 * scale, case
            assert np.max(np.abs(exact.riemann - ref.riemann)) < 1e-4 * scale, case
            assert np.max(np.abs(exact.christoffel - ref.christoffel)) < 2e-7, case


@pytest.mark.parametrize("case", ["C1", "C2", "C3", "C4", "C5", "C6", "C7"])
def test_gauss_ricci_exactly_symmetric(case, rng):
    for beta in (0.0, 1e-3):
        eta = random_eta(rng, case)
        f = family_for_case(classify(eta), eta, beta=beta)
        xs = well_posed(f, rng.uniform(-1.2, 1.2, size=(8, f.dim)), 0.3)[:3]
        assert len(xs), case
        for xi in xs:
            ricci = gauss_curvature(f, xi).ricci
            assert ricci.tobytes() == ricci.T.tobytes(), case


def test_gauss_ricci_symmetric_at_the_cli_example():
    # its Ricci differed from its transpose in the last digit before the
    # upper triangle was mirrored
    eta = InitialCoefficients.normalized(0.6, 0.3 + 0.4j, 0.5, -0.2j)
    f = family_for_case(classify(eta), eta)
    ricci = gauss_curvature(f, np.array([0.7, 2.5, 0.2, 0.4])).ricci
    assert ricci.tobytes() == ricci.T.tobytes()


def test_family_field_routes_to_gauss():
    f = _uniform_c7_family()
    xi = np.array([0.7, 0.3, 0.2, 0.4])
    rep = curvature_at(MetricField.from_family(f, gamma=1.3), xi, h=5e-3)
    exact = gauss_curvature(f, xi, 1.3)
    assert rep.scalar == exact.scalar and rep.h == 0.0
    assert np.array_equal(rep.riemann, exact.riemann)
    # so does a 1-D family field (C1): flat, with the report's zeros exact
    eta = InitialCoefficients.normalized(0, 0, 0.6, 0.8)
    c1 = family_for_case(classify(eta), eta)
    rep = curvature_at(MetricField.from_family(c1), np.array([0.3]), h=5e-3)
    exact = gauss_curvature(c1, np.array([0.3]))
    assert rep.note == "exact: Gauss equation" and rep.h == 0.0
    assert rep.scalar == exact.scalar == 0.0
    assert np.array_equal(rep.christoffel, exact.christoffel)
    assert np.array_equal(rep.ricci, [[0.0]]) and np.array_equal(rep.riemann, np.zeros((1,) * 4))
    assert rep.metric_condition == 1.0


def test_from_family_rejects_other_families():
    # a family object without exact partials has no Gauss route; it is
    # refused when the field is built, naming its type
    twisted = phase_twisted(_uniform_c7_family(), lambda xs: xs.sum(axis=1))
    with pytest.raises(TypeError, match="_PhaseTwistedFamily"):
        MetricField.from_family(twisted)


class _StubFamily:
    """Fixed state psi = |uu> with chart partials dpsi and second partials
    d2psi, for the typed errors of gauss_curvature."""

    chart = ("a", "b")

    def __init__(self, dpsi, d2psi):
        self.dpsi, self.d2psi = np.asarray(dpsi, complex), np.asarray(d2psi, complex)

    def frame_jet(self, xs, order):
        psi = np.array([[1.0, 0, 0, 0]], dtype=complex)
        return psi, self.dpsi[None], self.d2psi[None]


def test_gauss_typed_errors(rng):
    d2psi = np.zeros((2, 2, 4))
    with pytest.raises(SingularMetricError):
        gauss_curvature(_StubFamily([[0, 1, 0, 0], [0, 0, 0, 0]], d2psi), [0.1, 0.2])
    d2psi[1, 0, 2] = np.nan
    with pytest.raises(ChartSingularityError, match="'b'"):
        gauss_curvature(_StubFamily([[0, 1, 0, 0], [0, 0, 1, 0]], d2psi), [0.1, 0.2])
    eta = random_eta(rng, "C7")
    f = family_for_case(classify(eta), eta, beta=1e-3)
    omega, c3 = 0.9, 0.4
    with pytest.raises(ResonanceError):
        gauss_curvature(f, np.array([omega, 0.3, c3, 2 * c3 + omega]))


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan])
@pytest.mark.parametrize(
    "coeffs, xi", [((0.5, 0.5, 0.5, 0.5), [0.7, 0.3, 0.2, 0.4]), ((1, 0, 0, 0), [0.3])]
)
def test_family_curvature_refuses_metric_scale(gamma, coeffs, xi):
    # the exact (Gauss) route at dim 4 and at dim 1
    eta = InitialCoefficients.normalized(*coeffs)
    mf = MetricField.from_family(family_for_case(classify(eta), eta), gamma=gamma)
    with pytest.raises(ValueError, match="gamma"):
        curvature_at(mf, np.array(xi))
