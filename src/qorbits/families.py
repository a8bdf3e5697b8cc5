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
batched jet serves all seven cases, StateFamily.frame_jet: the state and its
exact chart partials up to order 0, 1 or 2 as coefficients over the
unperturbed frame e = (psi1, psi2, PSI3, PSI4) = hamiltonian.eigenbases(phi).
The phases contribute i theta_k' and the frame turns along phi as
e' = (s/2) J e, s the branch sign.  At beta = 0 the jet is therefore a fixed
linear map of the phased coefficients a = eta e^{i theta} on each branch,
a @ (k0 + s k1), with operators tabled once per case and embedding
(PhaseTable).  At beta != 0 the first-order rows hamiltonian.first_order_rows
mix the coefficients, and the jet is their product rule with the same
tabled turn, normalized.  e is real and orthonormal, so inner products of
coefficients are those of the states: the Fubini-Study metric and the
Gauss-equation curvature read frame_jet.  _contract, coefficients contracted
with e block by block, is where states are formed: states_of stacks the
frame_jet of order 0 of several families for one _contract,
StateFamily.states is its one-part case and state its one-row case.  On the
general orbit (C1, C3, C7) both take one coefficient row per point, so a
batch may mix coefficient sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, islice
from typing import NamedTuple

import numpy as np

from .errors import CaseMismatchError, QOrbitsError
from .hamiltonian import (
    PSI3,
    PSI4,
    branch_sign,
    couplings,
    eigenbases,
    eigvec_pair,
    first_order_rows,
    half_angles,
    normalize_jet,
    perturbation_denominators,
)
from .model import (
    CASE_CHARTS,
    CaseClass,
    InitialCoefficients,
    classify,
    require_unit_rows,
)

# Non-chart reference values used by reduced-case families; chosen away from
# the perturbative resonances 2 c3 +- omega - c_plus = 0.
DEFAULT_FROZEN = {"omega": 0.9, "phi": 0.3, "c3": 0.35, "c_plus": 0.55}

# Long batches are evaluated in blocks of BLOCK_ROWS rows, which bounds the
# size of the stacked (rows, 4, 4, 4, 4) second partials of the first-order
# rows, and scans
# (StateFamily.grid_concurrences) in C-order boxes of at most SCAN_BOX
# points, which bounds their working set.
BLOCK_ROWS = 512
SCAN_BOX = 4096

# The frame's turn along phi on each branch, psi1' = s psi2/2 and
# psi2' = -s psi1/2: d e/d phi = (s/2) _J @ e, with _J @ _J = -1 on psi1, psi2.
_J = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4])

# Coordinates a chart embeds into: the C7 chart (omega, phi, c3, c_plus), at
# which the eigenbasis is evaluated, then the combined phase c of C4/C5/C6.
EMBED_COORDS = CASE_CHARTS["C7"] + ("c",)

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


@lru_cache(maxsize=64)
def _chart_embedding(chart):
    E = np.zeros((len(EMBED_COORDS), len(chart)))
    e0 = np.zeros(len(EMBED_COORDS))
    for k, name in enumerate(EMBED_COORDS):
        if name in chart:
            E[k, chart.index(name)] = 1.0
        else:
            e0[k] = DEFAULT_FROZEN.get(name, 0.0)
    return _embedding_tuples(E, e0)


def chart_embedding(chart):
    """The embedding (E, e0) of a chart that reads each chart coordinate off
    its own column and holds every other EMBED_COORDS entry at its
    DEFAULT_FROZEN value, 0 for c.  It is built once per chart; a family
    with other reference values takes its own embedding (sliced_family)."""
    return _chart_embedding(tuple(chart))


def _embedding_tuples(E, e0):
    """(E, e0) as nested tuples, so that families compare and hash by value."""
    return tuple(map(tuple, np.asarray(E, dtype=float))), tuple(np.asarray(e0, dtype=float))


@dataclass(frozen=True)
class StateFamily:
    """A parametrized family of evolved states over a case chart, embedded
    in EMBED_COORDS by embedding = (E, e0), E of shape (5, dim); None stands
    for chart_embedding(chart).  A beta that is not finite is refused."""

    case: CaseClass
    eta: InitialCoefficients
    chart: tuple[str, ...]
    beta: float = 0.0
    embedding: tuple | None = None

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta!r}")
        if self.embedding is None:
            object.__setattr__(self, "embedding", chart_embedding(self.chart))

    @property
    def dim(self) -> int:
        return len(self.chart)

    @cached_property
    def _table(self):
        """The case's PhaseTable, shared by every family of the same case
        and embedding."""
        return _phase_table(self.case.label, self.case.l, self.embedding)

    @cached_property
    def _pair_amps(self) -> np.ndarray:
        """The pair products a_i a_j of the amplitudes a = eta e^{i offset}
        at the chart origin over _FORM_PAIRS, times _FORM_SIGNS, shape (5,):
        the factor a scan at beta = 0 takes once per family (read-only)."""
        amps = self._eta_row * np.exp(1j * self._table.offset)
        i, j = _FORM_PAIRS
        pair_amps = _FORM_SIGNS * amps[i] * amps[j]
        pair_amps.setflags(write=False)
        return pair_amps

    @cached_property
    def _eta_row(self) -> np.ndarray:
        """eta.as_array(), read-only: the coefficient row of every point."""
        row = self.eta.as_array()
        row.setflags(write=False)
        return row

    def states(self, xs, etas=None) -> np.ndarray:
        """Normalized states at the rows of an (N, dim) batch, shape (N, 4):
        the one-part case of states_of, frame_jet(xs, 0, etas) contracted
        by _contract."""
        xs = np.asarray(xs, dtype=float)
        return _contract(self.frame_jet(xs, 0, etas)[0], self._frame_phi(xs))

    def _frame_phi(self, xs) -> np.ndarray:
        """phi at the rows of a checked (N, dim) batch, where the frame
        e = eigenbases(phi) of its coefficients is taken."""
        table = self._table
        return (xs @ table.basis.T + table.basis0)[:, 1]

    def frame_jet(self, xs, order, etas=None):
        """The states at the rows of an (N, dim) batch and their chart
        partials up to order, as coefficients over the unperturbed frame
        e = eigenbases(phi), in blocks of BLOCK_ROWS rows: order + 1 complex
        arrays of shapes (N,) + (dim,) * k + (4,), whose products with e are
        the states and partials.  e is real and orthonormal, so every
        Hermitian inner product of the coefficients is that of the states.
        etas, (N, 4) normalized rows as InitialCoefficients.as_array() gives,
        stands in for self.eta row by row on the general orbit (C1, C3, C7),
        whose phase forms give the evolved state for every eta; a row that
        is not unit-norm raises ValueError (model.require_unit_rows)."""
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
            require_unit_rows(etas)
        eta = self._eta_row if etas is None else etas
        if len(xs) <= BLOCK_ROWS:
            # one block, an empty batch too
            return self._frame_block(xs, order, eta)
        blocks = [self._frame_block(xs[k:k + BLOCK_ROWS], order, eta if etas is None else etas[k:k + BLOCK_ROWS])
                  for k in range(0, len(xs), BLOCK_ROWS)]
        return tuple(map(np.concatenate, zip(*blocks)))

    def _frame_block(self, xs, order, eta_rows):
        """The frame_jet of one block from the phased coefficients
        a_k = eta_k e^{i theta_k}, eta_rows (4,) or one row per point.  At
        beta = 0 the partials are a @ (k0 + s k1), the PhaseTable's
        operators.  At beta != 0, w = a @ rows with the first_order_rows
        taken to the chart and the chart partials i lin a of a, then the
        frame's turn along phi by the product rule, then normalized."""
        table = self._table
        a = eta_rows * np.exp(1j * (xs @ table.lin.T + table.offset))
        if self.beta == 0.0:
            return (a,) if order == 0 else self._tabled_jet(xs, order, a)
        n, dim = len(xs), self.dim
        coords = xs @ table.basis.T + table.basis0
        rows = first_order_rows(*coords.T, self.beta, order)
        w = [np.matmul(a[:, None, :], rows[0])[:, 0]]
        if order == 0:
            return normalize_jet(*w)
        da = a[:, None, :] * (1j * table.lin.T)
        # the rows' chart partials, flattened past the row axis
        drows = (table.basis.T @ rows[1]).reshape(n, 4, dim * 4)
        w.append(da @ rows[0] + (a[:, None, :] @ drows).reshape(n, dim, 4))
        if order == 2:
            d2a = da[:, :, None, :] * (1j * table.lin.T)
            d2rows = table.basis.T @ (table.basis.T @ rows[2].reshape(n, 4, 4, 16)).reshape(n, 4, dim, 4, 4)
            cross = (da @ drows).reshape(n, dim, dim, 4)
            w.append(d2a @ rows[0][:, None] + cross + cross.swapaxes(1, 2)
                     + (a[:, None, :] @ d2rows.reshape(n, 4, dim * dim * 4)).reshape(n, dim, dim, 4))
        # d_mu e = s T_mu e (T_mu the first-order columns of k1), so
        # d_mu (w @ e) = (d_mu w + s w T_mu) @ e and d_mu d_nu (w @ e) =
        # (d_mu d_nu w + s d_nu w T_mu + s d_mu w T_nu + w T_mu T_nu) @ e
        s = branch_sign(coords[:, 1])[:, None]
        turn = table.k1[:, :dim * 4]
        if order == 2:
            cross = s[:, None, None] * (w[1] @ turn).reshape(n, dim, dim, 4).swapaxes(1, 2)
            w[2] = w[2] + cross + cross.swapaxes(1, 2) + (w[0] @ table.turn2).reshape(n, dim, dim, 4)
        w[1] = w[1] + s[:, None] * (w[0] @ turn).reshape(n, dim, 4)
        return normalize_jet(*w)

    def _tabled_jet(self, xs, order, a):
        """The frame_jet of one block at beta = 0, order 1 or 2, from the
        phased coefficients a: one a @ (k0 + s k1) over the columns of
        every partial; phi alone is evaluated, for s, and not at all where
        the chart holds it and the frame does not turn."""
        table = self._table
        n, dim = len(xs), self.dim
        cols = dim * 4 if order == 1 else table.k0.shape[1]
        w = a @ table.k0[:, :cols]
        if len(table.head):
            phi = xs @ table.basis[1] + table.basis0[1]
            w += (branch_sign(phi)[:, None] * a) @ table.k1[:, :cols]
        if order == 1:
            return a, w.reshape(n, dim, 4)
        # each order's partials as a C-contiguous array
        return (a, np.ascontiguousarray(w[:, :dim * 4]).reshape(n, dim, 4),
                np.ascontiguousarray(w[:, dim * 4:]).reshape(n, dim, dim, 4))

    def grid_concurrences(self, axes) -> np.ndarray:
        """Concurrences at the grid_points(axes) of one 1-D axis per chart
        coordinate, shape (N,), from the coefficients c of each state over
        the frame e = eigenbases(phi), which is never formed:
        C = |sum_j w_j (c c)_j| / sum|c_k|^2 over the pairs _FORM_PAIRS
        (_FORM_SIGNS, _form_weights).  At beta = 0, c_k = a_k =
        eta_k e^{i theta_k}, sum|c_k|^2 = 1 and each pair product is the
        family's _pair_amps times one factor per axis value, the
        exponentials of the PhaseTable's pair phases (_axis_exps), so the
        grid is (n_head, 5) @ (5, R): the head axes, up to the last one phi
        reads, carry the weights, which read phi alone, and the later ones
        the R columns of the tail, which carries the _pair_amps.  At
        beta != 0 the grid is all head, with c = (a1/N1 - beta k1 a3/N3,
        a2/N2 - beta k2 a3/N3, a3/N3 + beta (k1 a1/N1 + k2 a2/N2), a4) from
        the couplings k and the row norms N = sqrt(1 + beta^2 (k1^2, k2^2,
        k1^2 + k2^2)), and the tail is _FORM_SIGNS.  The head is taken in
        C-order boxes (_boxes) of at most SCAN_BOX points.  A non-finite
        value raises ValueError."""
        axes = [np.asarray(a, dtype=float) for a in axes]
        if len(axes) != self.dim or any(a.ndim != 1 for a in axes):
            raise ValueError(f"expected {self.dim} 1-D axes, got {[a.shape for a in axes]}")
        table = self._table
        shape = [len(a) for a in axes]
        if self.beta:
            t, tail = self.dim, _FORM_SIGNS[:, None]
            amps = self._eta_row * np.exp(1j * table.offset)
            factors = _axis_exps(1j * table.lin, axes)
            # the C7 coordinates x @ basis.T + basis0 as one term per axis value
            terms = [np.multiply.outer(table.basis[:, mu], a) for mu, a in enumerate(axes)]
        else:
            t = len(table.head)
            factors = _axis_exps(table.pairs, axes)
            tail = _box_values(factors[t:], [slice(None)] * (self.dim - t), np.multiply, self._pair_amps)
            # phi = x @ basis[1] + basis0[1] as one term per head-axis value
            terms = [(r * a)[None] for r, a in zip(table.head, axes)]
        out = np.empty((math.prod(shape[:t]), tail.shape[1]))
        rows = max(1, SCAN_BOX // max(1, tail.shape[1]))
        start = 0
        for box in _boxes(shape[:t], SCAN_BOX):
            if self.beta:
                c = _box_values(factors, box, np.multiply, amps)
                omega, phi, c3, c_plus = _box_values(terms, box, np.add, np.zeros(4)) + table.basis0[:, None]
                s, cu, su = half_angles(phi)
                bk1, bk2 = self.beta * np.array(couplings(*perturbation_denominators(omega, c3, c_plus), s, cu, su))
                b1, b2, b3 = c[:3] / np.sqrt(1.0 + np.array([bk1**2, bk2**2, bk1**2 + bk2**2]))
                c = np.array([b1 - bk1 * b3, b2 - bk2 * b3, b3 + bk1 * b1 + bk2 * b2, c[3]])
                head = c[_FORM_PAIRS[0]] * c[_FORM_PAIRS[1]]
                head[:3] *= _form_weights(s, 2.0 * cu * su, (cu - su) * (cu + su))
            else:
                head = _box_values(factors[:t], box, np.multiply, _ONES5)
                phi = _box_values(terms, box, np.add, table.basis0[1:2])[0]
                head[:3] *= _form_weights(branch_sign(phi), np.abs(np.cos(phi)), np.sin(phi))
            block = out[start:start + len(phi)]
            for k in range(0, len(phi), rows):
                np.abs(head[:, k:k + rows].T @ tail, out=block[k:k + rows])
            if self.beta:
                block /= (c.real**2 + c.imag**2).sum(axis=0)[:, None]
            start += len(phi)
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


def states_of(parts) -> np.ndarray:
    """Normalized states of several families in one pass, stacked in part
    order, shape (N_1 + N_2 + ..., 4).  Each part is (family, xs) or
    (family, xs, etas) as StateFamily.states takes them, which is the
    one-part case: every part's frame_jet(xs, 0, etas) is stacked and
    contracted by one _contract, so each part's rows are its own states
    bitwise.  A part that frame_jet refuses raises its error prefixed with
    the part's index and case."""
    jets, phis = [], []
    for k, (family, xs, *etas) in enumerate(parts):
        xs = np.asarray(xs, dtype=float)
        try:
            jets.append(family.frame_jet(xs, 0, *etas)[0])
        except (ValueError, QOrbitsError) as exc:
            raise type(exc)(f"part {k} ({family.case.label}): {exc}") from exc
        phis.append(family._frame_phi(xs))
    return _contract(np.concatenate(jets), np.concatenate(phis))


def _contract(coeffs, phi) -> np.ndarray:
    """The states of (N, 4) coefficients over the frames e = eigenbases(phi)
    of an (N,) array, computed in place in coeffs, BLOCK_ROWS rows at a
    time, so at most one block's frame is held.  Frame and contraction are
    row by row."""
    for k in range(0, len(coeffs), BLOCK_ROWS):
        rows = slice(k, k + BLOCK_ROWS)
        # a stacked matmul keeps the summation order of evolved_state's amps @ basis
        coeffs[rows] = np.matmul(coeffs[rows, None, :], eigenbases(phi[rows]))[:, 0]
    return coeffs


def grid_points(axes) -> np.ndarray:
    """The points of the C-order grid of 1-D axes, the raveled
    meshgrid(*axes, indexing="ij"), shape (N, len(axes)); one point (the
    empty tuple) for no axes."""
    shape = tuple(len(a) for a in axes)
    out = np.empty(shape + (len(axes),))
    for mu, a in enumerate(axes):
        out[..., mu] = np.reshape(a, (-1,) + (1,) * (len(axes) - 1 - mu))
    return out.reshape(math.prod(shape), len(axes))


# (c1^2, c2^2, c1 c2, c3^2, c4^2) as row and column indices of c
_FORM_PAIRS = ([0, 1, 0, 2, 3], [0, 1, 1, 2, 3])

# 2(ad - bc) of sum_k c_k e_k, e = eigenbases(phi), is sum_j w_j (c c)_j
# over the pairs _FORM_PAIRS with the weights
# w = _FORM_SIGNS * (s|cos phi|, s|cos phi|, s sin phi, 1, 1), s the
# branch_sign; scans carry the signs with the pair amplitudes or the tail.
_FORM_SIGNS = np.array([1.0, -1.0, -2.0, -1.0, 1.0])
# the start of a head's pair factors at beta = 0
_ONES5 = np.ones(5)
_FORM_SIGNS.setflags(write=False)
_ONES5.setflags(write=False)


def _form_weights(s, abs_cos, sin) -> np.ndarray:
    """The weights of the first three pairs, c1^2, c2^2 and c1 c2, before
    _FORM_SIGNS, shape (3, N): (s|cos phi|, s|cos phi|, s sin phi) from the
    (N,) branch signs s and |cos phi|, sin phi.  s|cos phi| = cos phi but
    in the snap band of hamiltonian.branch_sign."""
    scos = s * abs_cos
    return np.array([scos, scos, s * sin])


def _boxes(shape, size):
    """The boxes, tuples of one slice per axis, that tile a grid of this
    shape in C-order, each of at most size >= 1 points."""
    if math.prod(shape) <= size:
        yield (slice(None),) * len(shape)
        return
    step = max(1, size // math.prod(shape[1:]))
    for k in range(0, shape[0], step):
        for box in _boxes(shape[1:], size):
            yield (slice(k, k + step),) + box


def _axis_exps(rows, axes) -> list:
    """The tables exp(np.multiply.outer(rows[:, mu], axes[mu])) of an
    (m, len(axes)) array of rows, shape (m, len(axes[mu])) each, from one
    exponential over the values of all axes."""
    shape = [len(a) for a in axes]
    values = np.exp(np.repeat(rows, shape, axis=1) * np.concatenate(axes))
    return [values[:, end - n:end] for n, end in zip(shape, accumulate(shape))]


def _box_values(tables, box, op, init) -> np.ndarray:
    """The values over the points of a box of a grid, in C-order, that op
    combines from init (m,) and one column per axis value of the per-axis
    tables (m, len(axis)): shape (m, points), a new array."""
    out = np.array(init)[:, None]
    for table, part in zip(tables, box):
        out = op(out[:, :, None], table[:, None, part]).reshape(len(out), -1)
    return out


class PhaseTable(NamedTuple):
    """A case's affine maps from chart points x under one embedding: the
    phases theta = x @ lin.T + offset and the C7 coordinates x @ basis.T +
    basis0; the pair phases pairs = 1j (lin[i] + lin[j]) over _FORM_PAIRS,
    shape (5, dim), whose exponentials are the scan's pair factors; head,
    phi's chart row b1 = basis[1] up to the last axis it reads, whose
    length is the head of a scan at beta = 0 (empty if phi is held).

    The square of the frame's turn along the chart T_m = (b1_m/2) J,
    turn2 = T_m T_n = (b1_m b1_n/4) J J, and the operators k0, k1 of the
    jet at beta = 0: with P_m = diag(1j lin[:, m]) and s the branch sign,
    the chart partials of a @ e, a = eta e^{i theta}, are
    a @ (k0 + s k1) @ e, where the first-order columns of k0, k1 are P_m
    and the turn T_m and the second-order ones P_m P_n + T_m T_n and
    P_m T_n + P_n T_m.  Each operator maps a coefficient row to the
    columns of all its partials, shape (4, dim**2 * 4) for turn2 and
    (4, dim * 4 + dim**2 * 4) for k0 and k1."""

    lin: np.ndarray
    offset: np.ndarray
    basis: np.ndarray
    basis0: np.ndarray
    pairs: np.ndarray
    head: np.ndarray
    turn2: np.ndarray
    k0: np.ndarray
    k1: np.ndarray


def _columns(ops) -> np.ndarray:
    """Stacked (..., 4, 4) operators as one (4, n * 4) operator whose
    column block k is the k-th operator in C-order."""
    return ops.reshape(-1, 4, 4).transpose(1, 0, 2).reshape(4, -1)


@lru_cache(maxsize=128)
def _phase_table(label, l, embedding) -> PhaseTable:
    """The PhaseTable of (label, l) from its phase forms over EMBED_COORDS
    composed with the embedding.  It depends on neither eta nor beta; the
    arrays are read-only because families share them."""
    E, e0 = (np.array(a, dtype=float) for a in embedding)
    forms = np.array(PHASE_FORMS[label, l], dtype=float)
    lin = forms @ E[_PHASE_ROWS]
    i, j = _FORM_PAIRS
    t = max(np.flatnonzero(E[1]), default=-1) + 1
    P = (1j * lin.T)[:, :, None] * np.eye(4)
    T = (0.5 * E[1])[:, None, None] * _J
    PT = P[:, None] @ T
    TT = T[:, None] @ T
    k0 = np.concatenate([_columns(P), _columns(P[:, None] @ P + TT)], axis=1)
    k1 = np.concatenate([_columns(T), _columns(PT + PT.swapaxes(0, 1))], axis=1)
    table = PhaseTable(lin, forms @ e0[_PHASE_ROWS], E[:4], e0[:4], 1j * (lin[i] + lin[j]), E[1, :t],
                       _columns(TT), k0, k1)
    for a in table:
        a.setflags(write=False)
    return table


def family_for_case(case: CaseClass, eta: InitialCoefficients, beta: float = 0.0) -> StateFamily:
    """Build the StateFamily for a classified case.

    Raises CaseMismatchError if `case` does not match classify(eta).
    """
    found = classify(eta)
    if found != case:
        raise CaseMismatchError(f"eta classifies as {found}, not {case}")
    return StateFamily(case, eta, case.chart, beta, chart_embedding(case.chart))


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


# Random base points per periodicity shift.
PERIODICITY_POINTS = 20

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


def check_periodicity(fams, rng):
    """Sample PERIODICITY_POINTS random base points from the generator rng
    and measure the overlap of psi(xi) with psi(xi + P) against the
    expected pure phase, for every listed shift of the family's case.
    fams is one StateFamily, which gives its PeriodicityReport, or a
    sequence of them, which gives a tuple of reports in order; the
    families draw their base points in turn, and every state comes from
    one states_of pass.

    Failures are reported, never raised.  Base phi values keep a margin from
    cos(phi) = 0, where the branch sign flips one eigenvector and the state
    jumps.
    """
    one = isinstance(fams, StateFamily)
    fams = [fams] if one else list(fams)
    if any(f.beta != 0.0 for f in fams):
        raise ValueError("periodicity conditions are defined for beta = 0")
    parts, shifts = [], []
    for f in fams:
        # base phi in [-1.4, 1.4], every other coordinate in [-3, 3]
        lo = np.array([-1.4 if name == "phi" else -3.0 for name in f.chart])
        case_shifts = PERIODICITY_SHIFTS[f.case.label]
        # every shift's base points from one draw, which gives the values,
        # in order, of one draw per shift; base points and shifted copies
        # interleaved per shift.  Bitwise the draw rng.uniform(lo, -lo,
        # size), which is slower with array bounds
        xs = lo + (-lo - lo) * rng.random((len(case_shifts), PERIODICITY_POINTS, f.dim))
        incs = np.zeros((len(case_shifts), f.dim))
        for k, (shift, _) in enumerate(case_shifts):
            for name, inc in shift.items():
                incs[k, f.chart.index(name)] = inc
        parts.append((f, np.stack([xs, xs + incs[:, None]], axis=1).reshape(-1, f.dim)))
        shifts += case_shifts
    psi = states_of(parts).reshape(len(shifts), 2, PERIODICITY_POINTS, 4)
    base, moved = psi[:, 0], psi[:, 1]
    # <psi(xi)|psi(xi+P)> equals the quoted phase when psi(xi+P) = phase * psi(xi)
    overlaps = np.sum(base.conj() * moved, axis=2)
    phases = np.array([phase for _, phase in shifts], dtype=complex)
    fidelity = np.abs(overlaps).min(axis=1).tolist()
    error = np.abs(overlaps - phases[:, None]).max(axis=1).tolist()
    checks = iter(
        PeriodicityCheck(shift, phase, fid, err)
        for (shift, phase), fid, err in zip(shifts, fidelity, error)
    )
    reports = tuple(
        PeriodicityReport(f.case.label, tuple(islice(checks, len(PERIODICITY_SHIFTS[f.case.label]))))
        for f in fams
    )
    return reports[0] if one else reports
