"""Evolved-state families: the general four-parameter orbit and its C1..C7
reductions, plus verification of their periodicity phases.

Chart conventions.  Each case's manifold coordinates are the ones listed in
its chart (model.CASE_CHARTS).  A family maps its chart into the coordinates
EMBED_COORDS = (omega, phi, c3, c_plus, c) by one affine embedding
x -> x @ E.T + e0.  Coordinates that appear in a reduced case's phase
bookkeeping but not in its chart (for instance the c3 behind C1's global
prefactor, or the denominators of the perturbed eigenvectors) are frozen at
reference values in e0.  For C4/C5/C6 the combined phase
c = 2 c3 + (-1)^j c_plus [+ (-1)^(l+1) omega] is itself the chart
coordinate: varying c moves only the bracket phase e^{ic}, never the frozen
references.  Slices and constrained submanifolds are the same families with
another embedding (sliced_family, constrained_two_param_family).

Evaluation.  Every case is the general state sum_k eta_k e^{i theta_k} psi_k
with the phases theta_k affine in the chart coordinates (PHASE_FORMS), so one
batched path serves all seven cases: the state and its exact chart partials
up to order 0, 1 or 2 (StateFamily.states, tangents, hessians), from the
phases, which contribute i theta_k', and the eigenbasis jet
hamiltonian.first_order_jet.  state is the one-row case of states; the
second partials serve the Gauss-equation curvature.  On the general orbit
(C1, C3, C7) states also takes one coefficient row per point, so a batch
may mix coefficient sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CaseMismatchError
from .hamiltonian import (
    PSI3,
    PSI4,
    eigvec_pair,
    first_order_jet,
    jet_reads,
    normalize_jet,
)
from .model import (
    CaseClass,
    InitialCoefficients,
    classify,
)

# Non-chart reference values used by reduced-case families; chosen away from
# the perturbative resonances 2 c3 +- omega - c_plus = 0.
DEFAULT_FROZEN = {"omega": 0.9, "phi": 0.3, "c3": 0.35, "c_plus": 0.55}

# Long batches are evaluated in blocks of this many rows, and the batch
# axes of a tensor grid (StateFamily.grid_concurrences) in blocks of this
# many points, which bounds the size of the stacked (rows, 4, 4) eigenbasis.
BLOCK_ROWS = 512

# Coordinates the eigenbasis is evaluated at, in this order.
BASIS_COORDS = ("omega", "phi", "c3", "c_plus")

# Coordinates a chart embeds into: the BASIS_COORDS, then the combined phase
# c of C4/C5/C6.
EMBED_COORDS = BASIS_COORDS + ("c",)

# Phases theta_1..theta_4 of the eigenvector amplitudes, per (case label, l),
# as coefficients over PHASE_SYMBOLS.  The general orbit (C1, C3, C7) has the
# global e^{-i c3} prefactor folded in.  C4 and C6 carry the constant gauge
# phase -(c3 + s omega), s = (-1)^l for C4 and (-1)^(l+1) for C6, and the
# combined phase c on their eta3/eta4 rows; C5 carries c on those rows.
# Rows whose eta_k vanishes are never weighted, so one entry serves both j.
PHASE_SYMBOLS = ("omega", "c3", "c_plus", "c")
_PHASE_ROWS = [EMBED_COORDS.index(n) for n in PHASE_SYMBOLS]
_GENERAL = ((-1, -1, 0, 0), (1, -1, 0, 0), (0, 1, -1, 0), (0, 1, 1, 0))
_ZERO = ((0, 0, 0, 0),) * 4
PHASE_FORMS = {
    ("C1", None): _GENERAL,
    ("C2", 1): _ZERO,
    ("C2", 2): _ZERO,
    ("C3", None): _GENERAL,
    ("C4", 1): ((1, -1, 0, 0),) * 2 + ((1, -1, 0, 1),) * 2,
    ("C4", 2): ((-1, -1, 0, 0),) * 2 + ((-1, -1, 0, 1),) * 2,
    ("C5", None): _GENERAL[:2] + ((0, -1, 0, 1),) * 2,
    ("C6", 1): ((-1, -1, 0, 0),) * 2 + ((-1, -1, -1, 1), (-1, -1, 1, 1)),
    ("C6", 2): ((1, -1, 0, 0),) * 2 + ((1, -1, -1, 1), (1, -1, 1, 1)),
    ("C7", None): _GENERAL,
}


def evolved_state(eta: InitialCoefficients, coords) -> np.ndarray:
    """General evolved state at chart point (omega, phi, c3, c_plus): a
    scalar reference, independent of StateFamily.states."""
    omega, phi, c3, c_plus = coords
    basis = np.array([*eigvec_pair(phi), PSI3, PSI4])
    theta = np.array([-c3 - omega, -c3 + omega, c3 - c_plus, c3 + c_plus])
    amps = eta.as_array() * np.exp(1j * theta)
    return amps @ basis


def chart_embedding(chart, frozen: dict | None = None):
    """The embedding (E, e0) of a chart that reads each chart coordinate off
    its own column and holds every other EMBED_COORDS entry at its frozen
    value: frozen, then DEFAULT_FROZEN, then 0 for c.  Without frozen it
    depends on the chart alone and is built once per chart."""
    if not frozen:
        return _default_embedding(tuple(chart))
    refs = {**DEFAULT_FROZEN, **frozen}
    E = np.zeros((len(EMBED_COORDS), len(chart)))
    e0 = np.zeros(len(EMBED_COORDS))
    for k, name in enumerate(EMBED_COORDS):
        if name in chart:
            E[k, chart.index(name)] = 1.0
        else:
            e0[k] = float(refs.get(name, 0.0))
    return _embedding_tuples(E, e0)


@lru_cache(maxsize=64)
def _default_embedding(chart):
    return chart_embedding(chart, DEFAULT_FROZEN)


def _embedding_tuples(E, e0):
    """(E, e0) as nested tuples, so that families compare and hash by value."""
    return tuple(map(tuple, np.asarray(E, dtype=float))), tuple(np.asarray(e0, dtype=float))


@dataclass(frozen=True)
class StateFamily:
    """A parametrized family of evolved states over a case chart, embedded
    in EMBED_COORDS by embedding = (E, e0), E of shape (5, dim); None stands
    for chart_embedding(chart)."""

    case: CaseClass
    eta: InitialCoefficients
    chart: tuple[str, ...]
    beta: float = 0.0
    embedding: tuple | None = None

    def __post_init__(self):
        if self.embedding is None:
            object.__setattr__(self, "embedding", chart_embedding(self.chart))

    @property
    def dim(self) -> int:
        return len(self.chart)

    @cached_property
    def _table(self):
        """The case's affine maps from chart points (see _phase_table),
        shared by every family of the same case and embedding."""
        return _phase_table(self.case.label, self.case.l, self.embedding)

    @cached_property
    def _tangent_map(self):
        """(8, dim) map onto the chart partials from the phase terms
        amps_k psi_k (top rows, i lin) and the partials along BASIS_COORDS
        (bottom rows, the basis block of the embedding)."""
        lin, _, basis, _ = self._table
        return np.concatenate([1j * lin, basis])

    @cached_property
    def _hessian_map(self):
        """(36, dim^2) map onto the chart second partials, flattened, built
        from the two blocks of _tangent_map: from the phase terms
        amps_k psi_k ((i lin_km)(i lin_kn)), the mixed terms amps_k d_c psi_k
        (i lin_km chart_cn in both orders) and the basis second partials
        sum_k amps_k d_c d_d psi_k (chart_cm chart_dn)."""
        phase, chart = self._tangent_map[:4], self._tangent_map[4:]
        mixed = phase[:, None, :, None] * chart[None, :, None, :]
        return np.concatenate([
            (phase[:, :, None] * phase[:, None, :]).reshape(4, -1),
            (mixed + mixed.transpose(0, 1, 3, 2)).reshape(16, -1),
            (chart[:, None, :, None] * chart[None, :, None, :]).reshape(16, -1),
        ])

    def states(self, xs, etas=None) -> np.ndarray:
        """Normalized states at the rows of an (N, dim) batch, shape (N, 4).
        etas, an (N, 4) array of normalized coefficient rows such as
        InitialCoefficients.as_array() gives, stands in for self.eta row by
        row.  It is taken only where the phase forms are the general orbit
        (C1, C3, C7): there sum_k eta_k e^{i theta_k} psi_k is the evolved
        state for every eta."""
        return self._jet(xs, 0, etas)[0]

    def tangents(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """states(xs) and their exact partials along the chart, shape
        (N, dim, 4), from one eigenbasis and its derivative per row."""
        return self._jet(xs, 1)

    def hessians(self, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """tangents(xs) and the exact second partials along the chart,
        shape (N, dim, dim, 4), from one eigenbasis and its first and second
        derivatives per row."""
        return self._jet(xs, 2)

    def _jet(self, xs, order, etas=None):
        """The states at the rows of an (N, dim) batch and their chart
        partials up to order: order + 1 arrays of shapes
        (N,) + (dim,) * k + (4,), filled in blocks of BLOCK_ROWS rows, with
        the coefficient rows etas (see states) or self.eta."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"expected (N, {self.dim}) coordinates, got {xs.shape}")
        if etas is not None:
            if PHASE_FORMS[self.case.label, self.case.l] is not _GENERAL:
                raise ValueError(
                    f"per-row coefficients need the general orbit (C1, C3, C7), not {self.case.label}"
                )
            etas = np.asarray(etas, dtype=complex)
            if etas.shape != (len(xs), 4):
                raise ValueError(f"expected ({len(xs)}, 4) coefficient rows, got {etas.shape}")
        outs = [np.empty((len(xs),) + (self.dim,) * k + (4,), dtype=complex)
                for k in range(order + 1)]
        for start in range(0, len(xs), BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            rows = self.eta.as_array() if etas is None else etas[block]
            for out, part in zip(outs, self._jet_block(xs[block], order, rows)):
                out[block] = part
        return tuple(outs)

    def _jet_block(self, xs, order, eta_rows):
        """_jet on one block: the phased coefficients
        amps_k = eta_k e^{i theta_k}, eta_rows (4,) or one row per point,
        against the basis jet first_order_jet at the BASIS_COORDS, taken to
        the chart by _tangent_map and _hessian_map, then normalized if
        beta != 0."""
        lin, offset, basis, basis0 = self._table
        coords = xs @ basis.T + basis0
        amps = eta_rows * np.exp(1j * (xs @ lin.T + offset))
        bases = first_order_jet(*coords.T, self.beta, order)
        n = len(xs)
        # stacked matmul keeps the summation order of a single amps @ basis
        jet = [np.matmul(amps[:, None, :], bases[0])[:, 0]]
        if order >= 1:
            # per state component: the phase terms amps_k psi_k and the basis
            # partials sum_k amps_k d psi_k, side by side, taken to the chart
            # in one (4 N, 8) @ (8, dim) product
            phase_terms = amps[:, None, :] * bases[0].transpose(0, 2, 1)
            parts = np.concatenate(
                [phase_terms.reshape(-1, 4),
                 np.matmul(amps[:, None, :], bases[1].reshape(n, 4, -1)).reshape(-1, 4)],
                axis=1,
            )
            jet.append((parts @ self._tangent_map).reshape(n, 4, self.dim))
        if order >= 2:
            # per state component, the terms of _hessian_map side by side
            parts = np.concatenate(
                [phase_terms,
                 (amps[:, None, :, None] * bases[1].transpose(0, 2, 1, 3)).reshape(n, 4, 16),
                 np.matmul(amps[:, None, :], bases[2].reshape(n, 4, -1)).reshape(n, 4, 16)],
                axis=2,
            )
            jet.append((parts @ self._hessian_map).reshape(n, 4, self.dim, self.dim))
        if self.beta != 0.0:
            jet = normalize_jet(*jet)
        # component axis last
        return [part.transpose(0, *range(2, part.ndim), 1) for part in jet]

    def grid_concurrences(self, axes) -> np.ndarray:
        """Concurrences 2|ad - bc| of the normalized states at the
        grid_points(axes) of one 1-D axis per chart coordinate, shape (N,),
        without forming the states: ad - bc is Wootters' bilinear form
        sum_{k<=l} a_k a_l w_kl (_wootters_pairs) of the phased coefficients
        a_k = eta_k e^{i theta_k}.  Since theta is affine, a_k is a product
        of one factor exp(i lin[k, mu] x_mu) per axis value.  The axes up to
        the last one the eigenbasis reads (jet_reads: phi alone at beta = 0)
        form the batch, taken in C-order blocks of BLOCK_ROWS points, each
        with one eigenbasis per distinct point of the axes it reads; the
        later axes form the R columns of one factor table that every block
        shares.  At beta = 0 the basis is unitary and |psi| = |eta| = 1, so a
        block is one (n, 10) @ (10, R) product over the pairs k <= l; at
        beta != 0 it forms v = sum_k a_k b_k and takes
        2|v0 v3 - v1 v2| / |v|^2.  A non-finite value raises ValueError."""
        axes = [np.asarray(a, dtype=float) for a in axes]
        if len(axes) != self.dim or any(a.ndim != 1 for a in axes):
            raise ValueError(f"expected {self.dim} 1-D axes, got {[a.shape for a in axes]}")
        lin, offset, basis, basis0 = self._table
        reads = np.flatnonzero(basis[list(jet_reads(self.beta))].any(axis=0))
        t = reads[-1] + 1 if len(reads) else 0
        # (len(axis), 4) per axis
        factors = [np.exp(1j * np.outer(a, lin[:, mu])) for mu, a in enumerate(axes)]
        tail = np.ones((4, 1))
        for f in factors[t:]:
            tail = (tail[:, :, None] * f.T[:, None, :]).reshape(4, -1)
        if self.beta == 0.0:
            # the tail's share of a_k a_l per pair k <= l, times the 2 of
            # 2|ad - bc|
            tail = 2.0 * tail[_PAIRS[0]] * tail[_PAIRS[1]]
        batch = [len(a) for a in axes[:t]]
        out = np.empty((math.prod(batch), tail.shape[1]))
        amps = self.eta.as_array() * np.exp(1j * offset)
        for start in range(0, len(out), BLOCK_ROWS):
            idx = np.unravel_index(np.arange(start, min(start + BLOCK_ROWS, len(out))), batch) if batch else ()
            head = amps[None]
            for f, i in zip(factors, idx):
                head = head * f[i]
            points = np.array([axes[mu][idx[mu]] for mu in reads]).reshape(len(reads), len(head)).T
            inverse = slice(None)
            if len(reads) < t:
                # distinct points of the axes reads, by their C-order index
                key = np.ravel_multi_index([idx[mu] for mu in reads], [len(axes[mu]) for mu in reads])
                _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
                points = points[first]
            bases = first_order_jet(*(points @ basis[:, reads].T + basis0).T, self.beta)[0]
            if self.beta == 0.0:
                left = head[:, _PAIRS[0]] * head[:, _PAIRS[1]] * _wootters_pairs(bases)[inverse]
                np.abs(left @ tail, out=out[start:start + BLOCK_ROWS])
            else:
                # (component, n, R)
                v = np.matmul(bases[inverse].transpose(2, 0, 1) * head, tail)
                norm2 = (v.real**2 + v.imag**2).sum(axis=0)
                out[start:start + BLOCK_ROWS] = 2.0 * np.abs(v[0] * v[3] - v[1] * v[2]) / norm2
        out = out.reshape(-1)
        if not np.isfinite(out).all():
            raise ValueError(f"concurrence not finite: {out[~np.isfinite(out)][0]!r}")
        return out

    def state(self, xi) -> np.ndarray:
        """Normalized state at chart point xi."""
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coordinates, got {xi.shape}")
        return self.states(xi[None])[0]


def grid_points(axes) -> np.ndarray:
    """The points of the C-order grid of 1-D axes, the raveled
    meshgrid(*axes, indexing="ij"), shape (N, len(axes)); one point (the
    empty tuple) for no axes."""
    shape = tuple(len(a) for a in axes)
    out = np.empty(shape + (len(axes),))
    for mu, a in enumerate(axes):
        out[..., mu] = np.reshape(a, (-1,) + (1,) * (len(axes) - 1 - mu))
    return out.reshape(math.prod(shape), len(axes))


# The row and column indices of the pairs k <= l, in the order of the
# columns of _wootters_pairs: np.triu_indices(4), written out because that
# call costs about 0.15 MB of peak memory at import
_PAIRS = (np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 3]), np.array([0, 1, 2, 3, 1, 2, 3, 2, 3, 3]))


def _wootters_pairs(bases) -> np.ndarray:
    """The weights w_kl, k <= l, of the rows b_k of (N, 4, 4) bases, shape
    (N, 10), for which psi = sum_k a_k b_k has
    psi_0 psi_3 - psi_1 psi_2 = sum_{k<=l} a_k a_l w_kl: the symmetric form
    b_k0 b_l3 + b_l0 b_k3 - b_k1 b_l2 - b_l1 b_k2, halved on the diagonal.
    At beta = 0, with s = branch_sign(phi), the sum is
    (cos phi (a1^2 - a2^2) - 2 s sin phi a1 a2 - a3^2 + a4^2)/2."""
    m = bases[:, :, None, 0] * bases[:, None, :, 3] - bases[:, :, None, 1] * bases[:, None, :, 2]
    w = (m + m.transpose(0, 2, 1))[:, _PAIRS[0], _PAIRS[1]]
    w[:, _PAIRS[0] == _PAIRS[1]] *= 0.5
    return w


@lru_cache(maxsize=128)
def _phase_table(label, l, embedding):
    """The affine maps from chart points x: the phases
    theta = x @ lin.T + offset and the BASIS_COORDS x @ E.T + e0, from the
    phase forms of (label, l) over EMBED_COORDS composed with the embedding.
    They depend on neither eta nor beta; the arrays are read-only because
    families share them."""
    E, e0 = (np.array(a, dtype=float) for a in embedding)
    forms = np.array(PHASE_FORMS[label, l], dtype=float)
    table = forms @ E[_PHASE_ROWS], forms @ e0[_PHASE_ROWS], E[:4], e0[:4]
    for a in table:
        a.setflags(write=False)
    return table


def family_for_case(
    case: CaseClass,
    eta: InitialCoefficients,
    beta: float = 0.0,
    frozen: dict | None = None,
) -> StateFamily:
    """Build the StateFamily for a classified case.

    Raises CaseMismatchError if `case` does not match classify(eta).
    """
    found = classify(eta)
    if found != case:
        raise CaseMismatchError(f"eta classifies as {found}, not {case}")
    return StateFamily(case, eta, case.chart, beta, chart_embedding(case.chart, frozen))


def sliced_family(f: StateFamily, fixed: dict) -> StateFamily:
    """The family f with the chart coordinates named in fixed held at the
    given values, over the remaining coordinates in chart order."""
    for name in fixed:
        if name not in f.chart:
            raise ValueError(f"cannot fix {name!r}: not a coordinate of chart {f.chart}")
    keep = [k for k, name in enumerate(f.chart) if name not in fixed]
    held = [f.chart.index(name) for name in fixed]
    E, e0 = (np.array(a, dtype=float) for a in f.embedding)
    e0 = e0 + E[:, held] @ np.array(list(fixed.values()), dtype=float)
    chart = tuple(f.chart[k] for k in keep)
    return StateFamily(f.case, f.eta, chart, f.beta, _embedding_tuples(E[:, keep], e0))


def constrained_two_param_family(alpha: float, eta: InitialCoefficients) -> StateFamily:
    """The (omega, c_plus) family of the general orbit with c1 = c2
    (phi = pi/2) and c3 = alpha c_plus / 2."""
    E = np.zeros((len(EMBED_COORDS), 2))
    E[0, 0] = E[3, 1] = 1.0
    E[2, 1] = alpha / 2.0
    e0 = np.array([0.0, math.pi / 2.0, 0.0, 0.0, 0.0])
    return StateFamily(CaseClass("C7"), eta, ("omega", "c_plus"), 0.0, _embedding_tuples(E, e0))


# Periodicity shifts per case: (chart-coordinate increments, expected phase).
PERIODICITY_SHIFTS = {
    "C1": [({"c_plus": math.pi}, -1)],
    "C2": [({"phi": 2 * math.pi}, 1)],
    "C3": [
        ({"omega": math.pi}, -1),
        ({"phi": 2 * math.pi}, 1),
    ],
    "C4": [
        ({"phi": 2 * math.pi}, 1),
        ({"c": 2 * math.pi}, 1),
    ],
    "C5": [
        ({"omega": math.pi, "c": math.pi}, -1),
        ({"phi": 2 * math.pi}, 1),
        ({"c": 2 * math.pi}, 1),
    ],
    "C6": [
        ({"phi": 2 * math.pi}, 1),
        ({"c": 2 * math.pi}, 1),
        ({"c": math.pi, "c_plus": math.pi}, 1),
    ],
    "C7": [
        ({"omega": math.pi, "c3": math.pi / 2}, 1j),
        ({"omega": math.pi, "c_plus": math.pi}, -1),
        ({"phi": 2 * math.pi}, 1),
        ({"c3": math.pi}, -1),
        ({"c3": math.pi / 2, "c_plus": math.pi}, -1j),
    ],
}


@dataclass(frozen=True)
class PeriodicityCheck:
    shift: dict
    expected_phase: complex
    min_fidelity: float
    max_phase_error: float

    @property
    def passed(self) -> bool:
        return self.max_phase_error < 1e-10


@dataclass(frozen=True)
class PeriodicityReport:
    case: str
    checks: tuple[PeriodicityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_periodicity(
    f: StateFamily, n_points: int = 20, rng=None
) -> PeriodicityReport:
    """Sample random base points and measure the overlap of psi(xi) with
    psi(xi + P) against the expected pure phase, for every listed shift of
    the family's case.

    Failures are reported, never raised.  Base phi values keep a margin from
    the cos(phi) = 0 gauge jump of the eigenvector branch.
    """
    if f.beta != 0.0:
        raise ValueError("periodicity conditions are defined for beta = 0")
    rng = rng or np.random.default_rng(20240617)
    # base phi in [-1.4, 1.4], every other coordinate in [-3, 3]
    lo = np.array([-1.4 if name == "phi" else -3.0 for name in f.chart])
    shifts = PERIODICITY_SHIFTS[f.case.label]
    # each shift's base points and their shifted copies, all in one batch
    blocks = []
    for shift, _ in shifts:
        xs = rng.uniform(lo, -lo, size=(n_points, f.dim))
        xs_shift = xs.copy()
        for name, inc in shift.items():
            xs_shift[:, f.chart.index(name)] += inc
        blocks += [xs, xs_shift]
    psi = f.states(np.concatenate(blocks)).reshape(len(shifts), 2, n_points, 4)
    checks = []
    for (shift, phase), (base, moved) in zip(shifts, psi):
        # <psi(xi)|psi(xi+P)> equals the quoted phase when
        # psi(xi+P) = phase * psi(xi)
        overlaps = np.sum(base.conj() * moved, axis=1)
        checks.append(
            PeriodicityCheck(
                shift,
                phase,
                float(np.min(np.abs(overlaps))),
                float(np.max(np.abs(overlaps - phase))),
            )
        )
    return PeriodicityReport(f.case.label, tuple(checks))
