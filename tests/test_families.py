import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qorbits import families, hamiltonian
from qorbits.entanglement import concurrence, concurrences
from qorbits.errors import CaseMismatchError, ResonanceError
from qorbits.families import (
    _FORM_PAIRS,
    _FORM_SIGNS,
    BLOCK_ROWS,
    PERIODICITY_POINTS,
    PERIODICITY_SHIFTS,
    SCAN_BOX,
    StateFamily,
    _embedding_tuples,
    _form_weights,
    _phase_table,
    chart_embedding,
    check_periodicity,
    constrained_two_param_family,
    evolved_state,
    family_for_case,
    grid_points,
    sliced_family,
)
from qorbits.hamiltonian import BRANCH_SNAP, branch_sign, eigenbases, half_angles
from qorbits.model import CaseClass, InitialCoefficients, classify

from conftest import random_eta, state_jet, well_posed

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


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_family_refuses_a_non_finite_beta(beta):
    # a NaN beta would give NaN states, and the chart errors name omega
    eta = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="beta must be finite"):
        family_for_case(classify(eta), eta, beta=beta)


@pytest.mark.parametrize("pattern", ["C1", "C2", "C3", "C4", "C5", "C6", "C7"])
def test_periodicity_all_cases(pattern, rng):
    eta = random_eta(rng, pattern)
    f = family_for_case(classify(eta), eta)
    report = check_periodicity(f, rng)
    assert len(report.checks) == len(PERIODICITY_SHIFTS[pattern])
    for chk in report.checks:
        assert chk.max_phase_error < 1e-10, (pattern, chk.shift)
        assert chk.min_fidelity > 1 - 1e-10


def test_periodicity_c1_equal_coefficients(rng):
    eta = InitialCoefficients(0, 0, S2, S2)
    f = family_for_case(classify(eta), eta)
    report = check_periodicity(f, rng)
    assert all(c.min_fidelity > 1 - 1e-12 for c in report.checks)


def test_periodicity_requires_unperturbed(rng):
    eta = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
    f = family_for_case(classify(eta), eta, beta=1e-3)
    with pytest.raises(ValueError):
        check_periodicity(f, rng)


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
    # eigenvectors, held in its embedding; different references give
    # different states
    eta = InitialCoefficients(0, 0, S2, S2)
    f = family_for_case(classify(eta), eta, beta=1e-2)

    def with_c3(c3):
        E, e0 = (np.array(a) for a in f.embedding)
        e0[families.EMBED_COORDS.index("c3")] = c3
        return dataclasses.replace(f, embedding=_embedding_tuples(E, e0))

    xi = np.array([0.4])
    assert np.max(np.abs(with_c3(0.3).state(xi) - with_c3(0.8).state(xi))) > 1e-5


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


# Largest deviations of slice from base family over 2000 derandomized
# examples: states 5.7e-16, tangents 6.2e-16, hessians 1.8e-15; bounded
# here by 10x.  The embedded phases and basis coordinates round differently
# from the base chart point, so the match is not bitwise.
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    case=st.sampled_from(["C3", "C4", "C5", "C6", "C7"]),
    seed=st.integers(0, 2**32 - 1),
    beta=st.sampled_from([0.0, 1e-3]),
)
def test_slice_matches_base_family_at_embedded_points(case, seed, beta):
    rng = np.random.default_rng(seed)
    eta = random_eta(rng, case)
    f = family_for_case(classify(eta), eta, beta=beta)
    held = rng.random(f.dim) < 0.5
    held[rng.integers(f.dim)] = False
    fixed = {n: float(rng.uniform(-3, 3)) for n, h in zip(f.chart, held) if h}
    s = sliced_family(f, fixed)
    keep = np.flatnonzero(~held)
    assert s.chart == tuple(f.chart[k] for k in keep)
    xs = np.empty((8, f.dim))
    xs[:, keep] = rng.uniform(-3, 3, size=(8, len(keep)))
    xs[:, held] = [fixed[n] for n, h in zip(f.chart, held) if h]
    assume(len(well_posed(f, xs)) == len(xs))
    psi_s, dpsi_s, d2psi_s = state_jet(s, xs[:, keep], 2)
    psi, dpsi, d2psi = state_jet(f, xs, 2)
    assert np.max(np.abs(psi_s - psi)) < 6e-15
    assert np.max(np.abs(dpsi_s - dpsi[:, keep])) < 7e-15
    assert np.max(np.abs(d2psi_s - d2psi[:, keep][:, :, keep])) < 2e-14
    assert np.array_equal(s.states(xs[:, keep]), psi_s)
    assert np.array_equal(state_jet(s, xs[:, keep], 1)[1], dpsi_s)


def test_sliced_family_rejects_unknown_coordinate():
    eta = InitialCoefficients.normalized(0.6, 0.3 + 0.4j, 0.5, -0.2j)
    f = family_for_case(classify(eta), eta)
    with pytest.raises(ValueError, match="'c'"):
        sliced_family(f, {"phi": 0.0, "c": 0.3})


@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_scan_and_states_read_the_one_branch_seam(monkeypatch, beta):
    # hamiltonian.branch_sign owns the seam: with its snap band widened past
    # cos(phi) = -1e-9, the scan and the states both put phi = +-(pi/2 + 1e-9)
    # on the principal branch
    monkeypatch.setattr(hamiltonian, "BRANCH_SNAP", -1e-6)
    seam = math.pi / 2 + 1e-9
    assert branch_sign(np.array([seam, -seam])).tolist() == [1.0, 1.0]
    eta = InitialCoefficients.normalized(0.6, 0.3 + 0.4j, 0.5, -0.2j)
    f = family_for_case(classify(eta), eta, beta=beta)
    axes = [np.array([0.3, 0.9]), np.array([-seam, -1.0, 0.4, seam]), np.array([0.2, 1.9]),
            np.array([-0.7, 0.5])]
    want = concurrences(f.states(grid_points(axes)))
    assert np.max(np.abs(f.grid_concurrences(axes) - want)) < 1e-14


@pytest.mark.parametrize("case", ["C1", "C2", "C3", "C4", "C5", "C6", "C7"])
def test_jet_operators_ride_in_the_shared_phase_table(rng, case):
    # the beta = 0 jet's operators are built once per case and embedding,
    # read-only, one column block per partial; the beta != 0 jet reads the
    # frame's turn from the first-order block of k1
    eta = random_eta(rng, case)
    f = family_for_case(classify(eta), eta)
    table = f._table
    other = random_eta(rng, case)
    assert family_for_case(classify(other), other, beta=1e-3)._table is table
    cols = f.dim * 4 + f.dim**2 * 4
    assert table.k0.shape == table.k1.shape == (4, cols)
    assert table.turn2.shape == (4, f.dim**2 * 4)
    assert not any(a.flags.writeable for a in (table.turn2, table.k0, table.k1))
    # every column has at most one nonzero entry, so each partial is one
    # product per component, rounded the same in any batch
    assert (np.count_nonzero(table.k0, axis=0) <= 1).all()
    assert (np.count_nonzero(table.k1, axis=0) <= 1).all()


def test_chart_embedding_built_once_per_chart():
    chart = ("omega", "phi")
    assert chart_embedding(chart) is chart_embedding(list(chart))
    # omega, phi off their columns; c3, c_plus at DEFAULT_FROZEN, c at 0
    assert chart_embedding(chart)[1] == (0.0, 0.0, 0.35, 0.55, 0.0)


def test_families_share_one_phase_table_per_case_and_embedding(rng):
    f = family_for_case(CaseClass("C7"), random_eta(rng))
    assert f._table is family_for_case(CaseClass("C7"), random_eta(rng))._table
    assert f._table is family_for_case(CaseClass("C7"), random_eta(rng), beta=1e-3)._table
    assert not any(a.flags.writeable for a in f._table)
    sliced = sliced_family(f, {"phi": 0.3})
    two_param = constrained_two_param_family(0.7, f.eta)
    tables = [f._table, sliced._table, two_param._table]
    assert len({id(t) for t in tables}) == 3
    # their states equal those from a table built afresh, bitwise, and the
    # constrained family is the evolved state at its embedded coordinates
    for fam in (sliced, two_param):
        xs = rng.uniform(-2, 2, size=(8, fam.dim))
        fresh = dataclasses.replace(fam)
        fresh.__dict__["_table"] = _phase_table.__wrapped__(
            fam.case.label, fam.case.l, fam.embedding
        )
        assert fam.states(xs).tobytes() == fresh.states(xs).tobytes()
    for omega, c_plus in rng.uniform(-2, 2, size=(8, 2)):
        coords = (omega, math.pi / 2, 0.35 * c_plus, c_plus)
        got = two_param.state(np.array([omega, c_plus]))
        assert np.max(np.abs(got - evolved_state(f.eta, coords))) < 1e-12


@pytest.mark.parametrize("pattern", ["C1", "C2", "C3", "C4", "C5", "C6", "C7"])
def test_periodicity_in_one_batch_equals_the_per_shift_loop(pattern, rng):
    eta = random_eta(rng, pattern)
    f = family_for_case(classify(eta), eta)
    batched, loop = np.random.default_rng(7), np.random.default_rng(7)
    report = check_periodicity(f, batched)
    lo = np.array([-1.4 if name == "phi" else -3.0 for name in f.chart])
    shifts = PERIODICITY_SHIFTS[pattern]
    assert len(report.checks) == len(shifts)
    for chk, (shift, phase) in zip(report.checks, shifts):
        xs = loop.uniform(lo, -lo, size=(20, f.dim))
        xs_shift = xs.copy()
        for name, inc in shift.items():
            xs_shift[:, f.chart.index(name)] += inc
        psi = f.states(np.concatenate([xs, xs_shift]))
        overlaps = np.sum(psi[:20].conj() * psi[20:], axis=1)
        assert chk.shift == shift and chk.expected_phase == phase
        assert chk.min_fidelity == float(np.min(np.abs(overlaps)))
        assert chk.max_phase_error == float(np.max(np.abs(overlaps - phase)))
    assert batched.random() == loop.random()


@pytest.mark.parametrize("pattern", ["C1", "C2", "C3", "C4", "C5", "C6", "C7"])
def test_periodicity_base_points_are_the_uniform_draw(pattern, rng, monkeypatch):
    # the base points are bitwise rng.uniform(lo, -lo, size) of the same
    # generator, which is left where that draw leaves it
    eta = random_eta(rng, pattern)
    f = family_for_case(classify(eta), eta)
    seen = []
    states = StateFamily.states

    def recording(self, xs, etas=None):
        seen.append(xs.copy())
        return states(self, xs, etas)

    monkeypatch.setattr(StateFamily, "states", recording)
    drawn, reference = np.random.default_rng(11), np.random.default_rng(11)
    check_periodicity(f, drawn)
    lo = np.array([-1.4 if name == "phi" else -3.0 for name in f.chart])
    n_shifts = len(PERIODICITY_SHIFTS[pattern])
    want = reference.uniform(lo, -lo, size=(n_shifts, PERIODICITY_POINTS, f.dim))
    (pts,) = seen
    base = pts.reshape(n_shifts, 2, PERIODICITY_POINTS, f.dim)[:, 0]
    assert base.tobytes() == want.tobytes()
    assert drawn.random() == reference.random()


# Axis ranges per chart coordinate, clear of the resonances
# 2 c3 +- omega - c_plus = 0 at the frozen references of every case; phi
# crosses the cos(phi) = 0 branch boundary.
GRID_RANGES = {"omega": (0.2, 1.0), "phi": (-3.0, 3.0), "c3": (1.6, 2.4),
               "c_plus": (-1.0, -0.4), "c": (-2.0, 2.0)}
# Axis lengths per chart dimension: a mixed grid, single points, and grids
# of more than BLOCK_ROWS points, so that the reference states are taken
# in several blocks
GRID_SIZES = {
    1: [(5,), (1,), (BLOCK_ROWS + 88,)],
    2: [(4, 3), (1, 1), (BLOCK_ROWS + 88, 2)],
    3: [(4, 3, 5), (1, 1, 1), (30, 20, 20)],
    4: [(4, 3, 5, 2), (1, 1, 1, 1), (2, 9, 9, 9), (40, 20, 2, 2)],
}


def _grid_axes(f, sizes, held=()):
    """One axis per chart coordinate over GRID_RANGES; the coordinates in
    held are a single 0, as scan_concurrence holds coordinates it is not
    given."""
    return [np.array([0.0]) if name in held else np.linspace(*GRID_RANGES[name], n)
            for name, n in zip(f.chart, sizes)]


@pytest.mark.parametrize("sizes", [(5,), (3, 0, 2), (2, 3, 4, 5)])
def test_grid_points_are_bitwise_the_raveled_meshgrid(sizes, rng):
    axes = [rng.normal(size=n) for n in sizes]
    want = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    assert grid_points(axes).shape == (math.prod(sizes), len(sizes))
    assert grid_points(axes).tobytes() == want.tobytes()
    # no axes: one point, the empty tuple
    assert grid_points([]).shape == (1, 0)


# The test_grid_states_* tests evaluate the states of a tensor grid the way
# scan_concurrence does, through StateFamily.grid_concurrences, which reads
# their concurrences without forming them; the reference is concurrences of
# StateFamily.states on grid_points.
def _assert_grid_concurrences_match(f, axes):
    got = f.grid_concurrences(axes)
    want = concurrences(f.states(grid_points(axes)))
    assert got.shape == want.shape == (math.prod(len(a) for a in axes),)
    assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("beta", [0.0, 1e-3])
@pytest.mark.parametrize("pattern", ["C1", "C2", "C3", "C4", "C5", "C6", "C7"])
def test_grid_states_equal_states_on_the_meshgrid(pattern, beta, rng):
    eta = random_eta(rng, pattern)
    f = family_for_case(classify(eta), eta, beta=beta)
    fams = [f]
    if f.dim > 1:
        name = f.chart[0]
        fams.append(sliced_family(f, {name: float(np.mean(GRID_RANGES[name]))}))
    for fam in fams:
        for sizes in GRID_SIZES[fam.dim]:
            _assert_grid_concurrences_match(fam, _grid_axes(fam, sizes))
        # phi and c held at 0, as in a scan that does not give them
        _assert_grid_concurrences_match(fam, _grid_axes(fam, GRID_SIZES[fam.dim][0], ("phi", "c")))
    # and the per-point route, one state at a time
    axes = _grid_axes(f, GRID_SIZES[f.dim][0])
    want = [concurrence(f.state(xi)) for xi in grid_points(axes)]
    assert np.max(np.abs(f.grid_concurrences(axes) - want)) <= 1e-14


@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_grid_states_on_the_constrained_family(beta, rng):
    # c3 = 1.5 c_plus keeps 2 c3 +- omega - c_plus = 2 c_plus +- omega
    # away from 0 on these axes
    f = dataclasses.replace(constrained_two_param_family(3.0, random_eta(rng)), beta=beta)
    for sizes in GRID_SIZES[2]:
        axes = [np.linspace(0.2, 1.0, sizes[0]), np.linspace(2.5, 3.0, sizes[1])]
        _assert_grid_concurrences_match(f, axes)


@pytest.mark.parametrize("beta", [0.0, 1e-3])
@pytest.mark.parametrize("pattern", ["C4", "C5", "C6", "C7"])
def test_grid_states_of_families_that_share_a_phase_table(pattern, beta, rng):
    # the pair phases are cached per case and embedding, the pair
    # amplitudes per family: two families of one phase table but not one
    # eta, scanned alternately, each scan their own states
    etas = [random_eta(rng, pattern) for _ in range(2)]
    fams = [family_for_case(classify(eta), eta, beta=beta) for eta in etas]
    assert fams[0]._table is fams[1]._table
    for sizes in GRID_SIZES[fams[0].dim][:2] * 2:
        axes = _grid_axes(fams[0], sizes)
        for f in fams:
            _assert_grid_concurrences_match(f, axes)
    axes = _grid_axes(fams[0], GRID_SIZES[fams[0].dim][0])
    assert np.max(np.abs(fams[0].grid_concurrences(axes) - fams[1].grid_concurrences(axes))) > 1e-3


@pytest.mark.parametrize("c3", [0.25, -0.25])
def test_grid_states_raise_at_a_resonance(c3, rng):
    # 2 c3 -+ omega - c_plus = 0 at omega = 0.5, c_plus = 0
    f = family_for_case(CaseClass("C7"), random_eta(rng), beta=1e-3)
    axes = [np.array([0.3, 0.5]), np.array([0.3]), np.array([1.0, c3]), np.array([0.0])]
    with pytest.raises(ResonanceError):
        f.states(grid_points(axes))
    with pytest.raises(ResonanceError):
        f.grid_concurrences(axes)


@pytest.mark.parametrize("beta", [0.0, 1e-3])
@pytest.mark.parametrize("phi_row", [(1.3, -0.7, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)])
@pytest.mark.parametrize("pattern", ["C5", "C7"])
def test_grid_states_under_random_embeddings(pattern, phi_row, beta, rng):
    # phi mixes the first two chart axes, so that the head is two axes and
    # the tail two more at beta = 0, or is held; omega, c3, c_plus and c
    # are random affine maps that keep 2 c3 +- omega - c_plus >= 0.5
    E = rng.uniform(-0.3, 0.3, size=(5, 4))
    E[1] = phi_row
    e0 = np.array([0.4, 0.3, 2.0, -0.5, 0.7])
    f = StateFamily(CaseClass(pattern), random_eta(rng, pattern), ("u", "v", "w", "z"), beta,
                    _embedding_tuples(E, e0))
    _assert_grid_concurrences_match(f, [np.linspace(-1.0, 1.0, n) for n in (5, 7, 3, 4)])


@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_grid_states_across_the_seam(beta, rng):
    # phi values at cos(phi) = 0, 1e-9 off it on both sides, and in and
    # just past the BRANCH_SNAP band, where the state jumps
    seams = []
    for seam in (-math.pi / 2, math.pi / 2):
        seams += [seam, seam - 1e-9, seam + 1e-9]
    seams += [math.pi / 2 - 0.5 * BRANCH_SNAP, math.pi / 2 - 2 * BRANCH_SNAP,
              -math.pi / 2 + 0.5 * BRANCH_SNAP, -math.pi / 2 + 2 * BRANCH_SNAP]
    f = family_for_case(CaseClass("C7"), random_eta(rng), beta=beta)
    axes = _grid_axes(f, (3, 1, 2, 3))
    axes[1] = np.array(seams)
    _assert_grid_concurrences_match(f, axes)


def test_grid_states_reject_wrong_axes(rng):
    f = family_for_case(CaseClass("C7"), random_eta(rng))
    axis = np.linspace(0, 1, 3)
    for axes in ([axis] * 3, [axis] * 5, [axis] * 3 + [axis[None]]):
        with pytest.raises(ValueError, match="expected 4 1-D axes"):
            f.grid_concurrences(axes)


@pytest.mark.parametrize("beta", [0.0, 1e-3])
@pytest.mark.parametrize("empty", range(4))
def test_grid_states_on_an_empty_axis(empty, beta, rng):
    f = family_for_case(CaseClass("C7"), random_eta(rng), beta=beta)
    axes = _grid_axes(f, (3, 3, 3, 3))
    axes[empty] = axes[empty][:0]
    assert f.grid_concurrences(axes).shape == (0,)


@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_grid_states_bound_each_box(beta, monkeypatch, rng):
    # the head, the first two C7 axes at beta = 0 and the whole grid at
    # beta != 0, is taken in C-order boxes of at most SCAN_BOX points, each
    # head point in one box
    f = family_for_case(CaseClass("C7"), random_eta(rng), beta=beta)
    axes = _grid_axes(f, (70, 70, 2, 2))
    want = concurrences(f.states(grid_points(axes)))
    counts = []

    def counted(s, cu, su):
        counts.append(len(s))
        return _form_weights(s, cu, su)

    monkeypatch.setattr(families, "_form_weights", counted)
    got = f.grid_concurrences(axes)
    assert len(counts) > 1 and max(counts) <= SCAN_BOX
    assert sum(counts) == (70 * 70 if beta == 0.0 else len(got))
    assert np.max(np.abs(got - want)) <= 1e-14


def test_grid_states_evaluate_no_eigenbasis_at_beta_zero(monkeypatch, rng):
    # at beta = 0 the frame form needs no basis, no couplings and no jet
    f = family_for_case(CaseClass("C7"), random_eta(rng))
    axes = _grid_axes(f, (8, 8, 8, 8))
    want = concurrences(f.states(grid_points(axes)))

    def forbidden(*args, **kwargs):
        raise AssertionError("called at beta = 0")

    for module, name in ((hamiltonian, "eigenbases"), (families, "first_order_rows"),
                         (families, "couplings")):
        monkeypatch.setattr(module, name, forbidden)
    assert np.max(np.abs(f.grid_concurrences(axes) - want)) <= 1e-14


@pytest.mark.parametrize("phi", [-3.0, -math.pi / 2, -0.4, 0.0, 1.1, math.pi / 2, 2.5, math.pi])
def test_wootters_form_at_beta_zero(phi, rng):
    # ad - bc of psi = sum_k a_k psi_k is
    # (cos phi (a1^2 - a2^2) - 2 s sin phi a1 a2 - a3^2 + a4^2)/2 on both
    # branches s = branch_sign(phi), which _FORM_SIGNS times _form_weights
    # give over the pairs _FORM_PAIRS, from the half angles as at beta != 0
    # and from cos and sin of phi as at beta = 0; in the BRANCH_SNAP band
    # cos phi is s |cos phi|
    for angle in (phi, phi - 0.5 * BRANCH_SNAP):
        bases = eigenbases(np.array([angle]))
        a = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        psi = a @ bases[0]
        direct = psi[:, 0] * psi[:, 3] - psi[:, 1] * psi[:, 2]
        a1, a2, a3, a4 = a.T
        s = branch_sign(angle)
        form = 0.5 * (s * abs(math.cos(angle)) * (a1**2 - a2**2) - 2 * s * math.sin(angle) * a1 * a2
                      - a3**2 + a4**2)
        i, j = _FORM_PAIRS
        s, cu, su = half_angles(np.array([angle]))
        trig = np.cos(np.array([angle])), np.sin(np.array([angle]))
        assert np.max(np.abs(form - direct)) <= 1e-14
        for weights in (_form_weights(s, 2 * cu * su, (cu - su) * (cu + su)),
                        _form_weights(s, np.abs(trig[0]), trig[1])):
            pairs = 0.5 * (a[:, i] * a[:, j]) @ (_FORM_SIGNS * np.append(weights[:, 0], [1.0, 1.0]))
            assert np.max(np.abs(pairs - direct)) <= 1e-14
