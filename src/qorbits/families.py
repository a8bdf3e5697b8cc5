"""Evolved-state families: the general four-parameter orbit and its C1..C7
reductions, plus verification of their periodicity phases.

Chart conventions.  Each case's manifold coordinates are the ones listed in
its chart (model.CASE_CHARTS).  Coordinates that appear in a reduced case's
phase bookkeeping but not in its chart (for instance the c3 behind C1's
global prefactor, or the denominators of the perturbed eigenvectors) are
frozen at reference values stored on the family.  For C4/C5/C6 the combined
phase c = 2 c3 + (-1)^j c_plus [+ (-1)^(l+1) omega] is itself the chart
coordinate: varying c moves only the bracket phase e^{ic}, never the frozen
references.

Evaluation.  Every case is the general state sum_k eta_k e^{i theta_k} psi_k
with the phases theta_k affine in the chart coordinates (PHASE_FORMS), so one
batched path, StateFamily.states, serves all seven cases; state is its
one-row case.  StateFamily.tangents adds the exact partials along the chart:
the phases contribute i theta_k' and the eigenbasis its closed-form
derivative.  StateFamily.hessians adds the exact second partials, for the
Gauss-equation curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CaseMismatchError
from .hamiltonian import (
    PSI3,
    PSI4,
    eigvec_pair,
    first_order_bases,
    first_order_hessian_bases,
    first_order_tangent_bases,
    normalize_with_hessians,
    normalize_with_partials,
)
from .model import (
    CaseClass,
    InitialCoefficients,
    classify,
)

# Non-chart reference values used by reduced-case families; chosen away from
# the perturbative resonances 2 c3 +- omega - c_plus = 0.
DEFAULT_FROZEN = {"omega": 0.9, "phi": 0.3, "c3": 0.35, "c_plus": 0.55}

# Long batches are evaluated in blocks of this many rows, which bounds the
# size of the stacked (rows, 4, 4) eigenbasis.
BLOCK_ROWS = 512

# Coordinates the eigenbasis is evaluated at, in this order.
BASIS_COORDS = ("omega", "phi", "c3", "c_plus")

# Phases theta_1..theta_4 of the eigenvector amplitudes, per (case label, l),
# as coefficients over PHASE_SYMBOLS.  The general orbit (C1, C3, C7) has the
# global e^{-i c3} prefactor folded in.  C4 and C6 carry the constant gauge
# phase -(c3 + s omega), s = (-1)^l for C4 and (-1)^(l+1) for C6, and the
# combined phase c on their eta3/eta4 rows; C5 carries c on those rows.
# Rows whose eta_k vanishes are never weighted, so one entry serves both j.
PHASE_SYMBOLS = ("omega", "c3", "c_plus", "c")
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


@dataclass(frozen=True)
class StateFamily:
    """A parametrized family of evolved states over a case chart."""

    case: CaseClass
    eta: InitialCoefficients
    chart: tuple[str, ...]
    beta: float = 0.0
    frozen: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.chart)

    @cached_property
    def _table(self):
        """The case's affine maps from chart points x: the phases
        theta = x @ lin.T + offset, and the BASIS_COORDS, read from chart
        column cols[k] or, where cols[k] < 0, from the frozen refs[k]."""
        def ref(name):
            return float(self.frozen.get(name, DEFAULT_FROZEN[name]))

        forms = np.array(PHASE_FORMS[self.case.label, self.case.l], dtype=float)
        lin = np.zeros((4, self.dim))
        offset = np.zeros(4)
        for k, name in enumerate(PHASE_SYMBOLS):
            if name in self.chart:
                lin[:, self.chart.index(name)] = forms[:, k]
            elif forms[:, k].any():
                offset += forms[:, k] * ref(name)
        cols = np.array(
            [self.chart.index(n) if n in self.chart else -1 for n in BASIS_COORDS]
        )
        refs = np.array([ref(n) for n in BASIS_COORDS])
        return lin, offset, cols, refs

    @cached_property
    def _tangent_map(self):
        """(8, dim) map onto the chart partials from the phase terms
        amps_k psi_k (top rows, i lin) and the partials along BASIS_COORDS
        (bottom rows, a 1 where chart column cols[c] carries coordinate c;
        frozen coordinates contribute nothing)."""
        lin, _, cols, _ = self._table
        live = np.flatnonzero(cols >= 0)
        chart = np.zeros((4, self.dim))
        chart[live, cols[live]] = 1.0
        return np.concatenate([1j * lin, chart])

    def _rows(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"expected (N, {self.dim}) coordinates, got {xs.shape}")
        return xs

    def states(self, xs) -> np.ndarray:
        """Normalized states at the rows of an (N, dim) batch, shape (N, 4)."""
        xs = self._rows(xs)
        out = np.empty((len(xs), 4), dtype=complex)
        for start in range(0, len(xs), BLOCK_ROWS):
            out[start:start + BLOCK_ROWS] = self._block(xs[start:start + BLOCK_ROWS])
        return out

    def _coords_and_amps(self, xs):
        """The BASIS_COORDS at the rows of xs and the phased coefficients
        eta_k e^{i theta_k}, shape (N, 4) each."""
        lin, offset, cols, refs = self._table
        coords = np.where(cols >= 0, xs[:, cols], refs)
        amps = self.eta.as_array() * np.exp(1j * (xs @ lin.T + offset))
        return coords, amps

    def _block(self, xs) -> np.ndarray:
        coords, amps = self._coords_and_amps(xs)
        basis = first_order_bases(*coords.T, self.beta)
        # stacked matmul keeps the summation order of a single amps @ basis
        out = np.matmul(amps[:, None, :], basis)[:, 0]
        if self.beta != 0.0:
            out /= np.linalg.norm(out, axis=1, keepdims=True)
        return out

    def tangents(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Normalized states at the rows of an (N, dim) batch, shape (N, 4),
        and their exact partials along the chart, shape (N, dim, 4), from
        one eigenbasis and its derivative per row."""
        return self._blocks(xs, self._tangent_block, 2)

    def hessians(self, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """tangents(xs) and the exact second partials along the chart,
        shape (N, dim, dim, 4), from one eigenbasis and its first and second
        derivatives per row."""
        xs = self._rows(xs)
        if len(xs) <= BLOCK_ROWS:
            return self._hessian_block(xs)
        return self._blocks(xs, self._hessian_block, 3)

    def _blocks(self, xs, block_fn, order):
        """The outputs of block_fn over blocks of BLOCK_ROWS rows: the states
        (N, 4) and order - 1 arrays of partials, (N,) + (dim,) * k + (4,)."""
        xs = self._rows(xs)
        outs = [np.empty((len(xs),) + (self.dim,) * k + (4,), dtype=complex)
                for k in range(order)]
        for start in range(0, len(xs), BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            for out, part in zip(outs, block_fn(xs[block])):
                out[block] = part
        return tuple(outs)

    def _partials(self, amps, basis, dbasis):
        """Unnormalized state rows and their chart partials (N, 4, dim)."""
        n = len(amps)
        out = np.matmul(amps[:, None, :], basis)[:, 0]
        # per state component: the phase terms amps_k psi_k and the basis
        # partials sum_k amps_k d psi_k, side by side, taken to the chart in
        # one (4 N, 8) @ (8, dim) product
        parts = np.concatenate(
            [(amps[:, None, :] * basis.transpose(0, 2, 1)).reshape(-1, 4),
             np.matmul(amps[:, None, :], dbasis.reshape(n, 4, -1)).reshape(-1, 4)],
            axis=1,
        )
        return out, (parts @ self._tangent_map).reshape(n, 4, -1)

    def _tangent_block(self, xs):
        coords, amps = self._coords_and_amps(xs)
        out, dout = self._partials(amps, *first_order_tangent_bases(*coords.T, self.beta))
        if self.beta != 0.0:
            out, dout = normalize_with_partials(out, dout)
        return out, dout.transpose(0, 2, 1)

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

    def _hessian_block(self, xs):
        coords, amps = self._coords_and_amps(xs)
        basis, dbasis, d2basis = first_order_hessian_bases(*coords.T, self.beta)
        out, dout = self._partials(amps, basis, dbasis)
        n = len(xs)
        # per state component, the terms of _hessian_map side by side
        parts = np.concatenate(
            [amps[:, None, :] * basis.transpose(0, 2, 1),
             (amps[:, None, :, None] * dbasis.transpose(0, 2, 1, 3)).reshape(n, 4, 16),
             np.matmul(amps[:, None, :], d2basis.reshape(n, 4, -1)).reshape(n, 4, 16)],
            axis=2,
        )
        d2out = (parts @ self._hessian_map).reshape(n, 4, self.dim, self.dim)
        if self.beta != 0.0:
            out, dout, d2out = normalize_with_hessians(out, dout, d2out)
        return out, dout.transpose(0, 2, 1), d2out.transpose(0, 2, 3, 1)

    def state(self, xi) -> np.ndarray:
        """Normalized state at chart point xi."""
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coordinates, got {xi.shape}")
        return self.states(xi[None])[0]


def states_of(family, xs) -> np.ndarray:
    """Rows of family.states(xs), or of per-point family.state calls for
    objects that expose only .state."""
    if hasattr(family, "states"):
        return family.states(xs)
    return np.array([family.state(x) for x in np.asarray(xs, dtype=float)])


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
    return StateFamily(case, eta, case.chart, beta, dict(frozen or {}))


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
    checks = []
    for shift, phase in PERIODICITY_SHIFTS[f.case.label]:
        xs = rng.uniform(lo, -lo, size=(n_points, f.dim))
        xs_shift = xs.copy()
        for name, inc in shift.items():
            xs_shift[:, f.chart.index(name)] += inc
        psi = f.states(np.concatenate([xs, xs_shift]))
        # <psi(xi)|psi(xi+P)> equals the quoted phase when
        # psi(xi+P) = phase * psi(xi)
        overlaps = np.sum(psi[:n_points].conj() * psi[n_points:], axis=1)
        checks.append(
            PeriodicityCheck(
                shift,
                phase,
                float(np.min(np.abs(overlaps))),
                float(np.max(np.abs(overlaps - phase))),
            )
        )
    return PeriodicityReport(f.case.label, tuple(checks))
