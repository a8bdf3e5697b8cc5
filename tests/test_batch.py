"""Edges of the batched state path: StateFamily.states, the stacked
eigenbasis and the batched concurrence."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qorbits import families
from qorbits.curvature import gauss_curvature
from qorbits.entanglement import concurrence, concurrences
from qorbits.errors import ResonanceError
from qorbits.families import (
    BLOCK_ROWS,
    StateFamily,
    constrained_two_param_family,
    evolved_state,
    family_for_case,
    sliced_family,
)
from qorbits.fubini_study import (
    analytic_metrics_c7,
    analytic_metrics_case,
    diagonalize_metrics,
    numeric_fs_metric,
    numeric_fs_metrics,
    pushforwards_c7,
    tangent_fs_metrics,
)
from qorbits.hamiltonian import BRANCH_SNAP, branch_sign
from qorbits.model import InitialCoefficients, classify

from conftest import random_eta, state_jet, well_posed

CASES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")


def family(rng, pattern, beta=0.0):
    eta = random_eta(rng, pattern)
    return family_for_case(classify(eta), eta, beta=beta)


def test_branch_rows_match_branch_sign():
    # cos(phi) = 0 and its snap band: every row takes branch_sign's branch,
    # including the first angle past the snap, which takes the other one
    phis = [
        math.pi / 2,
        -math.pi / 2,
        -math.pi / 2 + 1e-13,
        -math.pi / 2 - 1e-13,
        math.pi,
        math.pi / 2 - 0.5 * BRANCH_SNAP,
        math.pi / 2 - 2 * BRANCH_SNAP,
    ]
    signs = branch_sign(np.array(phis))
    assert signs.tolist() == [1.0, 1.0, 1.0, 1.0, -1.0, 1.0, -1.0]
    assert [branch_sign(p) for p in phis] == signs.tolist()
    eta = InitialCoefficients(1, 0, 0, 0)
    states = family_for_case(classify(eta), eta).states(np.array(phis)[:, None])
    # psi1 = (s sqrt(1 + sin phi), 0, 0, sqrt(1 - sin phi))/sqrt(2) at the
    # float angle, in 40 digits: in floats 1 -+ sin phi cancels near the seam
    with mpmath.workdps(40):
        for phi, s, psi in zip(phis, signs, states):
            sin = mpmath.sin(mpmath.mpf(phi))
            want = np.array([s * float(mpmath.sqrt((1 + sin) / 2)), 0, 0, float(mpmath.sqrt((1 - sin) / 2))])
            assert np.max(np.abs(psi - want)) < 1e-15, phi


@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_row_permutation_is_bitwise(rng, beta):
    f = family(rng, "C7", beta)
    xs = rng.uniform(-2, 2, size=(2 * BLOCK_ROWS + 37, 4))
    xs[:, 0] = rng.uniform(0.4, 1.6, size=len(xs))
    perm = rng.permutation(len(xs))
    # the permutation moves rows between blocks
    assert np.any(perm[:BLOCK_ROWS] >= BLOCK_ROWS)
    assert np.array_equal(f.states(xs[perm]), f.states(xs)[perm])


def test_unnormalized_row_raises():
    states = np.tile([0.5, 0.5, 0.5, 0.5], (8, 1)).astype(complex)
    assert np.allclose(concurrences(states), 0.0)
    states[5] *= 1 + 1e-6
    with pytest.raises(ValueError, match="not normalized"):
        concurrences(states)
    with pytest.raises(ValueError, match="not normalized"):
        concurrence(states[5])


@pytest.mark.parametrize("scale", [2.0, 0.0])
def test_coefficient_rows_that_are_not_unit_norm_are_refused(rng, scale):
    # a row scaled by 2 would scale every metric by 4, a zero row would give
    # the zero state: each entry that takes coefficient rows names the row
    f = family(rng, "C7")
    xs = rng.uniform(0.2, 1.0, size=(3, 4))
    etas = np.array([random_eta(rng).as_array() for _ in range(3)])
    assert np.isfinite(pushforwards_c7(etas, xs)).all()
    etas[1] *= scale
    entries = [
        lambda: f.states(xs, etas),
        lambda: f.frame_jet(xs, 2, etas),
        lambda: numeric_fs_metrics(f, xs, etas=etas),
        lambda: analytic_metrics_c7(etas, xs),
        lambda: analytic_metrics_case(f, xs, etas=etas),
        lambda: diagonalize_metrics(etas, xs[:, 0], xs[:, 1]),
        lambda: pushforwards_c7(etas, xs),
    ]
    for call in entries:
        with pytest.raises(ValueError, match="coefficient row 1 must be normalized"):
            call()


def test_resonant_row_raises(rng):
    f = family(rng, "C7", beta=1e-3)
    xs = np.array([[0.9, 0.3, 0.2 * k, 0.1] for k in range(6)])
    f.states(xs)
    omega, c3 = 0.9, 0.4
    xs[3] = [omega, 0.3, c3, 2 * c3 + omega]  # 2c3 + omega - c_plus = 0
    with pytest.raises(ResonanceError):
        f.states(xs)


def test_c7_rows_equal_evolved_state_bitwise(rng):
    eta = random_eta(rng, "C7")
    f = family_for_case(classify(eta), eta)
    xs = rng.uniform(-3, 3, size=(BLOCK_ROWS + 5, 4))
    rows = f.states(xs)
    for k in range(0, len(xs), 7):
        assert np.array_equal(rows[k], evolved_state(eta, xs[k]))


@pytest.mark.parametrize("beta", [0.0, 0.3])
def test_tangents_match_central_differences(rng, beta):
    # psi is the states() row; dpsi the exact chart partials of the order-1
    # frame jet, contracted with the frame.  A large beta
    # makes the terms of the first-order couplings show above the
    # finite-difference error
    h = 1e-5
    for case in CASES:
        f = family(rng, case, beta)
        xs = well_posed(f, rng.uniform(-1.3, 1.3, size=(3 * BLOCK_ROWS, f.dim)), 0.5)
        assert len(xs) > BLOCK_ROWS
        psi, dpsi = state_jet(f, xs, 1)
        assert np.array_equal(psi, f.states(xs))
        fd = np.stack(
            [(f.states(xs + h * e) - f.states(xs - h * e)) / (2 * h) for e in np.eye(f.dim)],
            axis=1,
        )
        assert np.max(np.abs(dpsi - fd)) < 5e-9, case


# the bounds sit about 10x above the differences' truncation error, which
# the growing first-order couplings raise with beta (measured 3.2e-13,
# 1.3e-10 and 7.0e-9)
@pytest.mark.parametrize("beta, tol", [(0.0, 3e-12), (1e-3, 1e-9), (0.3, 5e-8)])
def test_hessians_match_central_differences_of_tangents(rng, beta, tol):
    # psi and dpsi are the order-1 jet's rows; d2psi, of the order-2 frame
    # jet contracted with the frame, against 4th-order central differences
    # of the exact tangents, over more than one block of rows
    h = 1e-3
    for case in CASES:
        f = family(rng, case, beta)
        xs = well_posed(f, rng.uniform(-1.3, 1.3, size=(3 * BLOCK_ROWS, f.dim)), 0.5)
        assert len(xs) > BLOCK_ROWS
        psi, dpsi, d2psi = state_jet(f, xs, 2)
        tangents = state_jet(f, xs, 1)
        assert np.array_equal(psi, tangents[0]) and np.array_equal(dpsi, tangents[1])
        assert d2psi.shape == (len(xs), f.dim, f.dim, 4)
        fd = np.stack(
            [(-state_jet(f, xs + 2 * h * e, 1)[1] + 8 * state_jet(f, xs + h * e, 1)[1]
              - 8 * state_jet(f, xs - h * e, 1)[1] + state_jet(f, xs - 2 * h * e, 1)[1]) / (12 * h)
             for e in np.eye(f.dim)],
            axis=1,
        )
        assert np.max(np.abs(d2psi - fd)) < tol, case
        assert np.max(np.abs(d2psi - d2psi.transpose(0, 2, 1, 3))) < 1e-14, case


def _tabled_jet_families(rng):
    """Families whose beta = 0 jets take every part of the phase table's
    operators, by name: C1 (phi held, the frame does not turn), C2 (no
    phase moves), C6 and C7, C7 with phi held on the cos(phi) < 0 branch
    and with omega held, and the constrained two-parameter family (phi
    held, a non-integer phase form)."""
    c7 = family(rng, "C7")
    return {
        "C1": family(rng, "C1"),
        "C2": family(rng, "C2"),
        "C6": family(rng, "C6"),
        "C7": c7,
        "C7 phi held": sliced_family(c7, {"phi": 2.5}),
        "C7 omega held": sliced_family(c7, {"omega": 0.4}),
        "two-parameter": constrained_two_param_family(0.7, c7.eta),
    }


def test_tabled_jets_match_central_differences(rng):
    # at beta = 0 the jets are one a @ (k0 + s k1) from the phase table:
    # the order-2 jet against 4th-order central differences of the order-1
    # jet, both contracted with the frame, with half the rows on the
    # cos(phi) < 0 branch where phi moves; the bound is
    # test_hessians_match_central_differences_of_tangents' at beta = 0
    h = 1e-3
    for name, f in _tabled_jet_families(rng).items():
        xs = rng.uniform(-1.3, 1.3, size=(64, f.dim))
        if "phi" in f.chart:
            xs[::2, f.chart.index("phi")] += math.pi
        phi = xs @ np.array(f.embedding[0][1]) + f.embedding[1][1]
        assert (np.cos(phi) < 0).any() == ("phi" in f.chart or name == "C7 phi held"), name
        psi, dpsi, d2psi = state_jet(f, xs, 2)
        fd = np.stack(
            [(-state_jet(f, xs + 2 * h * e, 1)[1] + 8 * state_jet(f, xs + h * e, 1)[1]
              - 8 * state_jet(f, xs - h * e, 1)[1] + state_jet(f, xs - 2 * h * e, 1)[1]) / (12 * h)
             for e in np.eye(f.dim)],
            axis=1,
        )
        assert np.max(np.abs(d2psi - fd)) < 3e-12, name
        assert np.array_equal(d2psi, d2psi.transpose(0, 2, 1, 3)), name


@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_block_rows_equal_one_row_calls(rng, beta):
    # states and the frame jets of orders 1 and 2 run in blocks: the rows on
    # both sides of a block boundary equal the one-row calls bitwise
    for case in CASES:
        f = family(rng, case, beta)
        xs = well_posed(f, rng.uniform(-1.3, 1.3, size=(3 * BLOCK_ROWS, f.dim)))
        xs = xs[:BLOCK_ROWS + 3]
        assert len(xs) == BLOCK_ROWS + 3
        batch = (f.states(xs), *f.frame_jet(xs, 1), *f.frame_jet(xs, 2))
        for k in (0, BLOCK_ROWS - 1, BLOCK_ROWS, len(xs) - 1):
            row = xs[k:k + 1]
            one = (f.states(row), *f.frame_jet(row, 1), *f.frame_jet(row, 2))
            for part, single in zip(batch, one):
                assert np.array_equal(part[k], single[0]), (case, k)


@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_frame_jet_in_the_frame_is_the_state_jet(rng, beta):
    # states is frame_jet of order 0 contracted with e = eigenbases(phi),
    # bitwise, on both sides of a block boundary, and the jets of lower
    # order are the leading parts of those of higher order
    for case in CASES:
        f = family(rng, case, beta)
        xs = well_posed(f, rng.uniform(-1.3, 1.3, size=(3 * BLOCK_ROWS, f.dim)))[:BLOCK_ROWS + 3]
        assert len(xs) == BLOCK_ROWS + 3
        w, dw, d2w = f.frame_jet(xs, 2)
        assert np.array_equal(w, f.frame_jet(xs, 0)[0])
        assert all(np.array_equal(a, b) for a, b in zip(f.frame_jet(xs, 1), (w, dw))), case
        assert np.array_equal(state_jet(f, xs, 0)[0], f.states(xs)), case


def test_metrics_and_curvature_form_no_state(monkeypatch, rng):
    # tangent_fs_metrics and gauss_curvature read frame_jet coefficients
    # only: no frame, no states
    f = family(rng, "C7", 1e-3)
    xs = well_posed(f, rng.uniform(-1.2, 1.2, size=(20, 4)), 0.3)[:3]
    want = tangent_fs_metrics(f, xs), gauss_curvature(f, xs[0]).riemann

    def forbidden(*args, **kwargs):
        raise AssertionError("states formed")

    monkeypatch.setattr(families, "eigenbases", forbidden)
    monkeypatch.setattr(StateFamily, "states", forbidden)
    assert np.array_equal(tangent_fs_metrics(f, xs), want[0])
    assert np.array_equal(gauss_curvature(f, xs[0]).riemann, want[1])


@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_per_row_coefficients_equal_one_family_per_point(rng, beta):
    # one C7 family with a coefficient row per point against one family per
    # point: 50 points of 17 stencil states each, more than one block
    etas = [random_eta(rng, "C7") for _ in range(50)]
    f = family_for_case(classify(etas[0]), etas[0], beta=beta)
    xs = well_posed(f, rng.uniform(-1.3, 1.3, size=(200, 4)))[:50]
    assert len(xs) == 50 and 17 * len(xs) > BLOCK_ROWS
    rows = np.array([eta.as_array() for eta in etas])
    # at the default scale and step, and at a set scale and step, as
    # qorbits metric --gamma --h-metric takes them
    for options in ({}, {"gamma": 0.7, "h": 1e-4}):
        batch = numeric_fs_metrics(f, xs, etas=rows, **options)
        for eta, xi, g in zip(etas, xs, batch):
            one = numeric_fs_metric(family_for_case(classify(eta), eta, beta=beta), xi, **options)
            assert np.array_equal(g, one.entries), options
    with pytest.raises(ValueError, match="coefficient rows"):
        numeric_fs_metrics(f, xs, etas=rows[:-1])
    with pytest.raises(ValueError, match="coefficient rows"):
        f.states(xs, rows[:-1])
    for case in ("C4", "C5", "C6"):
        g = family(rng, case, beta)
        with pytest.raises(ValueError, match="general orbit"):
            numeric_fs_metrics(g, xs[:, :g.dim], etas=rows)


def test_tangents_reject_resonance_and_bad_shape(rng):
    f = family(rng, "C7", beta=1e-3)
    omega, c3 = 0.9, 0.4
    with pytest.raises(ResonanceError):
        f.frame_jet(np.array([[omega, 0.3, c3, 2 * c3 + omega]]), 1)
    with pytest.raises(ValueError):
        f.frame_jet(np.zeros(4), 1)


# the batch functions at N = 0, each with the shapes of its outputs; the
# frame jets of orders 1 and 2 under the names of the jets they give
EMPTY_BATCH = {
    "states": (lambda f, xs: f.states(xs), [(0, 4)]),
    "tangents": (lambda f, xs: f.frame_jet(xs, 1), [(0, 4), (0, 4, 4)]),
    "hessians": (lambda f, xs: f.frame_jet(xs, 2), [(0, 4), (0, 4, 4), (0, 4, 4, 4)]),
    "numeric_fs_metrics": (numeric_fs_metrics, [(0, 4, 4)]),
    "tangent_fs_metrics": (tangent_fs_metrics, [(0, 4, 4)]),
    "analytic_metrics_c7": (lambda f, xs: analytic_metrics_c7(np.empty((0, 4)), xs), [(0, 4, 4)]),
    "concurrences": (lambda f, xs: concurrences(f.states(xs)), [(0,)]),
}


@pytest.mark.parametrize("beta", [0.0, 1e-3])
@pytest.mark.parametrize("name", sorted(EMPTY_BATCH))
def test_empty_batch(rng, name, beta):
    fn, shapes = EMPTY_BATCH[name]
    out = fn(family(rng, "C7", beta), np.empty((0, 4)))
    out = out if isinstance(out, tuple) else (out,)
    assert [part.shape for part in out] == shapes


@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_hessians_are_c_contiguous(rng, beta):
    # the order-2 frame jet: one-row calls return a block's arrays as
    # computed, longer ones their concatenation; neither is a strided view
    f = family(rng, "C7", beta)
    xs = well_posed(f, rng.uniform(-1.3, 1.3, size=(3 * BLOCK_ROWS, 4)))
    for rows in (xs[:1], xs[:BLOCK_ROWS + 3]):
        assert all(part.flags.c_contiguous for part in f.frame_jet(rows, 2))


@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_states_hold_one_block_of_the_frame(rng, beta):
    # states contracts one block at a time: its peak over 20,000 rows
    # (2.57 MB measured at both betas: the coefficients' blocks and their
    # concatenation) stays below one whole-batch (N, 4, 4) complex frame,
    # which a whole-batch contraction exceeds (7.8 MB measured)
    f = family(rng, "C7", beta)
    xs = well_posed(f, rng.uniform(-1.3, 1.3, size=(30_000, 4)))[:20_000]
    assert len(xs) == 20_000
    tracemalloc.start()
    try:
        f.states(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(xs) * 4 * 4 * 16


def test_states_rejects_bad_shape(rng):
    f = family(rng, "C5")
    with pytest.raises(ValueError):
        f.states(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        f.states(np.zeros(3))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    case=st.sampled_from(CASES),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    beta=st.sampled_from([0.0, 1e-3]),
)
def test_batch_properties(case, seed, n, beta):
    rng = np.random.default_rng(seed)
    eta = random_eta(rng, case)
    f = family_for_case(classify(eta), eta, beta=beta)
    xs = rng.uniform(-3, 3, size=(n, f.dim))
    try:
        rows = f.states(xs)
    except ResonanceError:
        return
    assert np.all(np.abs(np.linalg.norm(rows, axis=1) - 1) < 1e-12)
    c = concurrences(rows)
    assert np.all((c >= 0) & (c <= 1 + 1e-12))
    k = int(rng.integers(n))
    assert np.array_equal(f.state(xs[k]), rows[k])
    tangents = f.frame_jet(xs, 1)
    assert all(np.array_equal(a, b) for a, b in zip(f.frame_jet(xs, 2)[:2], tangents))
