import math

import numpy as np
import pytest

from qorbits import model
from qorbits.errors import ClassificationToleranceError, StationaryStateError
from qorbits.model import (
    AMBIGUITY_FACTOR,
    CLASSIFY_TOL,
    CaseClass,
    HamiltonianParams,
    InitialCoefficients,
    classify,
    classify_rows,
    derive_params,
    require_unit_rows,
    unit_row,
)
from qorbits.errors import CaseMismatchError
from qorbits.families import family_for_case

from conftest import random_eta


def test_derive_params_zero_field():
    d = derive_params(HamiltonianParams(0.0, 1.0, 0.0, 0.0))
    assert d.omega == 1.0
    assert d.phi == 0.0
    assert d.c_plus == 1.0
    assert d.c_minus == 1.0
    assert not d.degenerate


def test_derive_params_generic():
    # direct numeric evaluation of the defining formulas
    d = derive_params(HamiltonianParams(0.5, 0.8, 0.2, 0.3))
    assert d.omega == pytest.approx(math.sqrt(1.36), abs=1e-15)
    assert d.omega == pytest.approx(1.1661903789690602, abs=1e-14)
    assert d.phi == pytest.approx(1.0303768265243125, abs=1e-14)
    assert d.c_plus == 1.0
    assert d.c_minus == pytest.approx(0.6, abs=1e-15)


def test_derive_params_degenerate():
    d = derive_params(HamiltonianParams(0.0, 0.5, 0.5, 0.1))
    assert d.omega == 0.0
    assert d.phi == 0.0
    assert d.degenerate
    assert d.c_plus == 1.0


def test_derive_params_branch_identities(rng):
    # omega cos(phi) = c1 - c2 and omega sin(phi) = 2b on the full quadrant set
    for _ in range(100):
        b, c1, c2, c3 = rng.uniform(-2, 2, size=4)
        d = derive_params(HamiltonianParams(b, c1, c2, c3))
        assert abs(d.omega * math.cos(d.phi) - (c1 - c2)) < 1e-12
        assert abs(d.omega * math.sin(d.phi) - 2 * b) < 1e-12
        assert -math.pi < d.phi <= math.pi


def test_params_must_be_finite():
    with pytest.raises(ValueError):
        HamiltonianParams(float("nan"), 0, 0, 0)
    with pytest.raises(ValueError):
        HamiltonianParams(0, float("inf"), 0, 0)


def test_params_take_a_negative_beta():
    assert HamiltonianParams(0.5, 0.8, 0.2, 0.3, beta=-0.1).beta == -0.1


def test_coefficients_normalization_enforced():
    with pytest.raises(ValueError):
        InitialCoefficients(1.0, 1.0, 0.0, 0.0)
    eta = InitialCoefficients.normalized(1.0, 1.0, 0.0, 0.0)
    assert abs(eta.eta1 - 1 / math.sqrt(2)) < 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, math.nan)])
def test_non_finite_coefficients_refused(bad):
    # NaN compares False with any tolerance: the norm test must still refuse it
    with pytest.raises(ValueError, match="normalized"):
        InitialCoefficients(bad, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="finite"):
        InitialCoefficients.normalized(bad, 1, 0, 0)
    with pytest.raises(ValueError, match="finite"):
        unit_row(np.array([0.5, bad, 0.5, 0.5], dtype=complex))


def test_derived_coefficient_combinations():
    eta = InitialCoefficients.normalized(0.6, 0.2j, 0.5, 0.6)
    a = eta.abs2
    assert eta.eta12_plus == pytest.approx(a[0] + a[1], abs=1e-15)
    assert eta.eta12_minus == pytest.approx(a[0] - a[1], abs=1e-15)
    assert eta.eta34_plus == pytest.approx(a[2] + a[3], abs=1e-15)
    assert eta.eta34_minus == pytest.approx(a[2] - a[3], abs=1e-15)
    assert eta.alphas[1] == pytest.approx(math.pi / 2)


CLASSIFY_CASES = [
    ((0, 0, 1 / math.sqrt(2), 1 / math.sqrt(2)), "C1", None, None),
    ((1, 0, 0, 0), "C2", 1, None),
    ((0, 1, 0, 0), "C2", 2, None),
    ((0.8, 0.6, 0, 0), "C3", None, None),
    ((1 / math.sqrt(2), 0, 1 / math.sqrt(2), 0), "C4", 1, 3),
    ((0, 0.8, 0, 0.6), "C4", 2, 4),
    ((0.6, 0.6, 0, 0.5291502622129182), "C5", None, 4),
    ((0.6, 0, 0.5656854, 0.5656854), "C6", 1, None),
    ((0.5, 0.5, 0.5, 0.5), "C7", None, None),
]


@pytest.mark.parametrize("eta_vals,label,l,j", CLASSIFY_CASES)
def test_classify(eta_vals, label, l, j):
    eta = InitialCoefficients.normalized(*eta_vals)
    case = classify(eta)
    assert case.label == label
    assert case.l == l
    assert case.j == j


def test_classify_dimensions_match_table():
    dims = {"C1": 1, "C2": 1, "C3": 2, "C4": 2, "C5": 3, "C6": 3, "C7": 4}
    for eta_vals, label, _, _ in CLASSIFY_CASES:
        case = classify(InitialCoefficients.normalized(*eta_vals))
        assert case.dimension == dims[label]
        assert len(case.chart) == dims[label]


def test_classify_stationary_errors():
    with pytest.raises(StationaryStateError):
        classify(InitialCoefficients(0, 0, 1, 0))
    with pytest.raises(StationaryStateError):
        classify(InitialCoefficients(0, 0, 0, 1))
    # a single eta1 or eta2 is case C2, not stationary: the eigenvector
    # itself sweeps a circle as phi varies
    assert classify(InitialCoefficients(1, 0, 0, 0)).label == "C2"


def test_classify_ambiguous_band():
    # |eta2| = 2.9e-12 lies in the band (CLASSIFY_TOL, 10 CLASSIFY_TOL)
    eta = InitialCoefficients.normalized(1.0, 5e-12, 1.0, 1.0)
    with pytest.raises(ClassificationToleranceError, match=r"eta2.*\(1e-12, 1e-11\)"):
        classify(eta)
    # the band is open: its ends classify, CLASSIFY_TOL as zero and
    # AMBIGUITY_FACTOR * CLASSIFY_TOL as nonzero
    low, high = CLASSIFY_TOL, AMBIGUITY_FACTOR * CLASSIFY_TOL
    a = math.sqrt((1.0 - low**2) / 3.0)
    assert classify(InitialCoefficients(a, low, a, a)) == CaseClass("C6", l=1)
    a = math.sqrt((1.0 - high**2) / 3.0)
    assert classify(InitialCoefficients(a, high, a, a)) == CaseClass("C7")


def test_classify_total_on_random_patterns(rng):
    for pattern in ("C1", "C2", "C3", "C4", "C5", "C6", "C7"):
        for _ in range(20):
            eta = random_eta(rng, pattern)
            assert classify(eta).label == pattern


def test_require_case_mismatch():
    eta = InitialCoefficients.normalized(1, 0, 0, 0)
    with pytest.raises(CaseMismatchError):
        family_for_case(CaseClass("C3"), eta)


def test_cached_magnitudes_equal_a_fresh_computation(rng):
    for pattern in ("C1", "C2", "C3", "C4", "C5", "C6", "C7"):
        eta = random_eta(rng, pattern)
        a = np.abs(eta.as_array()) ** 2
        assert eta.abs2.tobytes() == a.tobytes()
        assert eta.abs2 is eta.abs2
        assert eta.eta12_plus == float(a[0] + a[1])
        assert eta.eta12_minus == float(a[0] - a[1])
        assert eta.eta34_plus == float(a[2] + a[3])
        assert eta.eta34_minus == float(a[2] - a[3])
    with pytest.raises(ValueError):
        eta.abs2[0] = 0.0


def test_caches_stay_out_of_equality_and_hash():
    vals = (0.6, 0.2j, 0.5, 0.6)
    warm, cold = (InitialCoefficients.normalized(*vals) for _ in range(2))
    classify(warm)
    assert "_case" in vars(warm) and "_case" not in vars(cold)
    assert warm == cold and hash(warm) == hash(cold)
    assert {warm: "warm"}[cold] == "warm"
    assert warm != InitialCoefficients.normalized(0.6, 0.2, 0.5, 0.6)


def counting_classify(monkeypatch):
    """The magnitudes the classification body runs on, from now on."""
    calls = []
    body = model._classify

    def counted(mags):
        calls.append(mags)
        return body(mags)

    monkeypatch.setattr(model, "_classify", counted)
    return calls


def test_family_for_case_reuses_the_callers_classification(monkeypatch):
    calls = counting_classify(monkeypatch)
    eta = InitialCoefficients.normalized(0.6, 0.2j, 0.5, 0.6)
    f = family_for_case(classify(eta), eta)
    assert f.case == CaseClass("C7")
    assert len(calls) == 1
    with pytest.raises(CaseMismatchError):
        family_for_case(CaseClass("C3"), eta)
    assert len(calls) == 1


def test_classify_errors_on_every_call_and_a_case_once(monkeypatch):
    calls = counting_classify(monkeypatch)
    ambiguous = InitialCoefficients.normalized(1.0, 5e-12, 1.0, 1.0)
    stationary = InitialCoefficients(0, 0, 1, 0)
    for _ in range(2):
        with pytest.raises(ClassificationToleranceError):
            classify(ambiguous)
        with pytest.raises(StationaryStateError):
            classify(stationary)
    assert len(calls) == 4
    calls.clear()
    eta = InitialCoefficients.normalized(1.0, 1e-9, 1.0, 1.0)
    for _ in range(3):
        assert classify(eta) == CaseClass("C7")
    assert len(calls) == 1


def test_unit_row_scales_as_normalized(rng):
    for _ in range(200):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert np.array_equal(unit_row(v), InitialCoefficients.normalized(*v).as_array())
    with pytest.raises(ValueError):
        unit_row(np.zeros(4, dtype=complex))


def test_batched_unit_row_equals_each_row(rng):
    for scale in (1.0, 1e-3, 1e5):
        rows = scale * (rng.normal(size=(2000, 4)) + 1j * rng.normal(size=(2000, 4)))
        batch = unit_row(rows)
        assert batch.shape == rows.shape
        assert batch.tobytes() == np.array([unit_row(v) for v in rows]).tobytes()
    real = rng.normal(size=(50, 4))
    assert unit_row(real).tobytes() == np.array([unit_row(v) for v in real]).tobytes()


@pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
def test_batched_unit_row_refuses_as_one_row(bad, rng):
    rows = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    rows[3] = 0.0 if bad == 0.0 else [0.5, bad, 0.5, 0.5]
    match = "zero vector" if bad == 0.0 else "finite"
    with pytest.raises(ValueError, match=match):
        unit_row(rows[3])
    with pytest.raises(ValueError, match=match + ".*row 3"):
        unit_row(rows)


@pytest.mark.parametrize("pattern", ["C1", "C3", "C4", "C5", "C6", "C7"])
def test_classify_rows_agrees_with_classify(rng, pattern):
    etas = [random_eta(rng, pattern) for _ in range(30)]
    rows = np.array([eta.as_array() for eta in etas])
    assert classify_rows(rows) == classify(etas[0]) == classify(etas[-1])


def test_classify_rows_raises_at_the_first_odd_row(rng):
    rows = np.array([random_eta(rng, "C7").as_array() for _ in range(6)])
    ambiguous = rows.copy()
    ambiguous[2] = InitialCoefficients.normalized(1.0, 5e-12, 1.0, 1.0).as_array()
    with pytest.raises(ClassificationToleranceError, match="eta2"):
        classify_rows(ambiguous)
    other = rows.copy()
    other[4] = random_eta(rng, "C6").as_array()
    with pytest.raises(CaseMismatchError, match="row 4 classifies as .*C6.*row 0 as .*C7"):
        classify_rows(other)
    stationary = rows.copy()
    stationary[0] = (0, 0, 1, 0)
    with pytest.raises(StationaryStateError):
        classify_rows(stationary)


def test_all_zero_row_names_the_zero_threshold():
    with pytest.raises(StationaryStateError, match="CLASSIFY_TOL = 1e-12"):
        classify_rows(np.zeros((1, 4), dtype=complex))


def test_batched_magnitudes_equal_each_coefficient_set(rng):
    etas = [random_eta(rng, pattern) for pattern in ("C1", "C4", "C7") for _ in range(10)]
    a2, *sums = require_unit_rows(np.array([eta.as_array() for eta in etas]))
    assert a2.tobytes() == np.array([eta.abs2 for eta in etas]).tobytes()
    for name, values in zip(("eta12_plus", "eta12_minus", "eta34_plus", "eta34_minus"), sums):
        assert values.tolist() == [getattr(eta, name) for eta in etas]


def test_unit_row_check_is_the_one_initial_coefficients_applies(rng):
    rows = np.array([random_eta(rng).as_array() for _ in range(5)])
    require_unit_rows(rows)
    for k, scale in ((3, 2.0), (1, 0.0), (4, 1 + 1e-11), (2, math.nan)):
        bad = rows.copy()
        bad[k] *= scale
        with pytest.raises(ValueError, match=f"row {k} must be normalized"):
            require_unit_rows(bad)
        with pytest.raises(ValueError, match="must be normalized"):
            InitialCoefficients(*bad[k])
    # off 1 by 1e-13, inside the tolerance, both accept
    near = rows[0] * math.sqrt(1 + 1e-13)
    require_unit_rows(near[None])
    InitialCoefficients(*near)
