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
one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CaseMismatchError
from .hamiltonian import PSI3, PSI4, eigvec_pair, first_order_bases
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

    def states(self, xs) -> np.ndarray:
        """Normalized states at the rows of an (N, dim) batch, shape (N, 4)."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"expected (N, {self.dim}) coordinates, got {xs.shape}")
        out = np.empty((len(xs), 4), dtype=complex)
        for start in range(0, len(xs), BLOCK_ROWS):
            out[start:start + BLOCK_ROWS] = self._block(xs[start:start + BLOCK_ROWS])
        return out

    def _block(self, xs) -> np.ndarray:
        lin, offset, cols, refs = self._table
        coords = np.where(cols >= 0, xs[:, cols], refs)
        basis = first_order_bases(*coords.T, self.beta)
        amps = self.eta.as_array() * np.exp(1j * (xs @ lin.T + offset))
        # stacked matmul keeps the summation order of a single amps @ basis
        out = np.matmul(amps[:, None, :], basis)[:, 0]
        if self.beta != 0.0:
            out /= np.linalg.norm(out, axis=1, keepdims=True)
        return out

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
