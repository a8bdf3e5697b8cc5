"""Concurrence of pure two-qubit states, the per-case closed-form expressions,
and verification of the cataloged maximal-entanglement condition tables.

The direct measure 2|ad - bc| on the evaluated family state is the ground
truth.  The closed forms are transcribed as printed; their measured agreement
domain (see CASE_FORMULA_STATUS) is part of the library's verification
output rather than silently corrected.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .families import StateFamily, grid_points
from .model import InitialCoefficients

NORM_TOL = 1e-9
# the integers n at which every condition-table row is sampled
N_RANGE = (-1, 0, 1, 2)


def concurrences(states) -> np.ndarray:
    """C = 2|ad - bc| of each normalized row (a, b, c, d) of an (N, 4) array."""
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2 or states.shape[1] != 4:
        raise ValueError("states must have 4 amplitudes per row")
    # |z|^2 as re^2 + im^2, not through the hypot of np.abs, on any layout
    mag2 = states.real**2
    mag2 += states.imag**2
    norms = np.sqrt(mag2.sum(axis=1))
    ok = np.abs(norms - 1.0) <= NORM_TOL  # False for a NaN norm too
    if not ok.all():
        raise ValueError(f"state not normalized: |psi| = {float(norms[np.argmin(ok)])!r}")
    a, b, c, d = states.T
    return 2.0 * np.abs(a * d - b * c)


def concurrence(state) -> float:
    """C = 2|ad - bc| of a normalized state (a, b, c, d)."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (4,):
        raise ValueError("state must have 4 amplitudes")
    return float(concurrences(state[None])[0])


def _chi(eta: InitialCoefficients, first: int, second: int) -> float:
    """Relative phase chi = arg(eta_second) - arg(eta_first)."""
    alphas = eta.alphas
    return float(alphas[second - 1] - alphas[first - 1])


def _require(cond: bool, what: str):
    if not cond:
        raise ValueError(f"closed form requires {what}")


def concurrence_analytic(case, eta: InitialCoefficients, xi) -> float | np.ndarray:
    """Cataloged per-case concurrence at chart point xi.

    xi is one point (dim,), giving a float, or a batch (N, dim), giving an
    (N,) array; each printed expression is evaluated on whole coordinate
    arrays.  Each case's stated simplifications are enforced: C5 needs
    eta1 = eta2, C6 needs eta3 = eta4, C7 needs both.  See
    CASE_FORMULA_STATUS for the measured validity domain of each printed
    expression.
    """
    xi = np.asarray(xi, dtype=float)
    value = _closed_form(case, eta, xi.T)
    return float(value) if xi.ndim == 1 else value


def _closed_form(case, eta: InitialCoefficients, xi):
    """The printed expression of the case, on coordinate arrays xi[0..dim-1]."""
    a2 = eta.abs2
    label = case.label
    if label == "C1":
        chi = _chi(eta, 3, 4)
        c_plus = xi[0]
        return np.sqrt(
            np.maximum(
                0.0,
                a2[2] ** 2
                + a2[3] ** 2
                - 2 * a2[2] * a2[3] * np.cos(4 * c_plus + 2 * chi),
            )
        )
    if label == "C2":
        return abs(np.cos(xi[0]))
    if label == "C3":
        chi = _chi(eta, 1, 2)
        omega, phi = xi
        m1, m2 = np.sqrt(a2[0]), np.sqrt(a2[1])
        val = (
            (a2[0] ** 2 + a2[1] ** 2 - 2 * a2[0] * a2[1] * np.cos(4 * omega + 2 * chi))
            * np.cos(phi) ** 2
            + 4 * a2[0] * a2[1] * np.sin(phi) ** 2
            - 4
            * m1
            * m2
            * (a2[0] - a2[1])
            * np.cos(2 * omega + chi)
            * np.sin(phi)
            * np.cos(phi)
        )
        return np.sqrt(np.maximum(0.0, val))
    if label == "C4":
        l, j = case.l, case.j
        chi = _chi(eta, l, j)
        phi, c = xi
        al2, aj2 = a2[l - 1], a2[j - 1]
        val = (
            al2**2 * np.cos(phi) ** 2
            + aj2**2
            - 2 * (-1) ** (l + j) * al2 * aj2 * np.cos(2 * c + chi) * np.cos(phi)
        )
        return np.sqrt(np.maximum(0.0, val))
    if label == "C5":
        _require(abs(eta.eta1 - eta.eta2) < 1e-12, "eta1 = eta2")
        j = case.j
        chi = _chi(eta, 1, j)
        omega, phi, c = xi
        a1 = a2[0]
        aj2 = a2[j - 1]
        t1 = -2 * a1 * np.sin(phi) + (-1) ** j * aj2 * np.cos(2 * c + 2 * chi)
        t2 = (
            -2 * a1 * np.sin(omega) * np.cos(phi)
            + (-1) ** j * aj2 * np.sin(2 * c + 2 * chi)
        )
        return np.sqrt(t1 * t1 + t2 * t2)
    if label == "C6":
        _require(abs(eta.eta3 - eta.eta4) < 1e-12, "eta3 = eta4")
        l = case.l
        chi = _chi(eta, l, 3)
        phi, c, c_plus = xi
        al2 = a2[l - 1]
        a3 = a2[2]
        t1 = (-1) ** (l + 1) * al2 * np.cos(phi) - 2 * a3 * np.sin(
            2 * c + 2 * chi
        ) * np.sin(2 * c_plus)
        t2sq = 4 * a3**2 * np.cos(2 * c + 2 * chi) ** 2 * np.sin(2 * c_plus) ** 2
        return np.sqrt(t1 * t1 + t2sq)
    if label == "C7":
        _require(abs(eta.eta1 - eta.eta2) < 1e-12, "eta1 = eta2")
        _require(abs(eta.eta3 - eta.eta4) < 1e-12, "eta3 = eta4")
        chi = _chi(eta, 1, 3)
        omega, phi, c3, c_plus = xi
        a1, a3 = a2[0], a2[2]
        t1 = 2 * a1 * np.sin(phi) + 2 * a3 * np.sin(2 * c_plus) * np.sin(
            4 * c3 + 2 * chi
        )
        t2 = -2 * a1 * np.sin(2 * omega) * np.cos(phi) + 2 * a3 * np.sin(
            2 * c_plus
        ) * np.cos(4 * c3 + 2 * chi)
        return np.sqrt(t1 * t1 + t2 * t2)
    raise ValueError(f"unsupported case {label!r}")


# Measured agreement of each printed expression against the direct
# 2|ad - bc| oracle (rel/abs deviation < 1e-10 on the stated domain):
#   exact        -- agrees everywhere on the chart
#   cos_phi_pos  -- agrees on the principal branch cos(phi) >= 0; for
#                   cos(phi) < 0 one cross term appears with opposite sign
#   chi_zero     -- agrees only when the relative phase chi vanishes
#                   (the printed phase enters as chi where the oracle
#                   requires 2 chi)
#   sin_omega    -- printed sin(omega) where the oracle requires
#                   sin(2 omega); disagrees wherever they differ
CASE_FORMULA_STATUS = {
    "C1": ("exact",),
    "C2": ("exact",),
    "C3": ("cos_phi_pos",),
    "C4": ("chi_zero",),
    "C5": ("cos_phi_pos", "sin_omega"),
    "C6": ("exact",),
    "C7": ("cos_phi_pos",),
}


@dataclass(frozen=True)
class MaxEntangledCondition:
    case: str
    row: str
    coords: dict
    chi: float
    n: int
    measured_concurrence: float

    @property
    def passed(self) -> bool:
        return abs(self.measured_concurrence - 1.0) < 1e-10


def _c5_rows(chi):
    pi = math.pi
    return [
        ("phi=0, j even", 0.0, pi / 2, 0, lambda n: 3 * pi / 4 + pi * n - chi),
        ("phi=0, j odd", 0.0, pi / 2, 1, lambda n: pi / 4 + pi * n - chi),
        ("phi=pi/2, j even", pi / 2, None, 0, lambda n: ((2 * n + 1) * pi - chi) / 2),
        ("phi=pi/2, j odd", pi / 2, None, 1, lambda n: pi * n - chi),
        ("phi=pi, j even", pi, pi / 2, 0, lambda n: pi / 4 + pi * n - chi),
        ("phi=pi, j odd", pi, pi / 2, 1, lambda n: 3 * pi / 4 + pi * n - chi),
        ("phi=3pi/2, j even", 3 * pi / 2, None, 0, lambda n: pi * n - chi),
        ("phi=3pi/2, j odd", 3 * pi / 2, None, 1, lambda n: ((2 * n + 1) * pi - chi) / 2),
    ]


def _c6_rows(chi):
    pi = math.pi
    return [
        ("phi=0, l even, a", 0.0, 0, lambda n: pi / 4 + pi * n - chi, lambda n: pi / 4 + pi * n),
        ("phi=0, l even, b", 0.0, 0, lambda n: 3 * pi / 4 + pi * n - chi, lambda n: 3 * pi / 4 + pi * n),
        ("phi=0, l odd, a", 0.0, 1, lambda n: pi / 4 + pi * n - chi, lambda n: 3 * pi / 4 + pi * n),
        ("phi=0, l odd, b", 0.0, 1, lambda n: 3 * pi / 4 + pi * n - chi, lambda n: pi / 4 + pi * n),
        ("phi=pi, l even, a", pi, 0, lambda n: pi / 4 + pi * n - chi, lambda n: 3 * pi / 4 + pi * n),
        ("phi=pi, l even, b", pi, 0, lambda n: 3 * pi / 4 + pi * n - chi, lambda n: pi / 4 + pi * n),
        ("phi=pi, l odd, a", pi, 1, lambda n: pi / 4 + pi * n - chi, lambda n: pi / 4 + pi * n),
        ("phi=pi, l odd, b", pi, 1, lambda n: 3 * pi / 4 + pi * n - chi, lambda n: 3 * pi / 4 + pi * n),
    ]


def _c7_rows(chi):
    pi = math.pi
    return [
        ("phi=0, w=pi/4, a", 0.0, pi / 4, lambda n: pi / 4 + pi * n, lambda n: ((2 * n + 1) * pi - 2 * chi) / 4),
        ("phi=0, w=pi/4, b", 0.0, pi / 4, lambda n: 3 * pi / 4 + pi * n, lambda n: (pi * n - chi) / 2),
        ("phi=0, w=3pi/4, a", 0.0, 3 * pi / 4, lambda n: pi / 4 + pi * n, lambda n: (pi * n - chi) / 2),
        ("phi=0, w=3pi/4, b", 0.0, 3 * pi / 4, lambda n: 3 * pi / 4 + pi * n, lambda n: ((2 * n + 1) * pi - 2 * chi) / 4),
        ("phi=pi/2, a", pi / 2, None, lambda n: pi / 4 + pi * n, lambda n: (pi / 2 + 2 * pi * n - 2 * chi) / 4),
        ("phi=pi/2, b", pi / 2, None, lambda n: 3 * pi / 4 + pi * n, lambda n: (3 * pi / 2 + 2 * pi * n - 2 * chi) / 4),
        ("phi=pi, w=pi/4, a", pi, pi / 4, lambda n: pi / 4 + pi * n, lambda n: (pi * n - chi) / 2),
        ("phi=pi, w=pi/4, b", pi, pi / 4, lambda n: 3 * pi / 4 + pi * n, lambda n: ((2 * n + 1) * pi - 2 * chi) / 4),
        ("phi=pi, w=3pi/4, a", pi, 3 * pi / 4, lambda n: pi / 4 + pi * n, lambda n: ((2 * n + 1) * pi - 2 * chi) / 4),
        ("phi=pi, w=3pi/4, b", pi, 3 * pi / 4, lambda n: 3 * pi / 4 + pi * n, lambda n: (pi * n - chi) / 2),
        ("phi=3pi/2, a", 3 * pi / 2, None, lambda n: pi / 4 + pi * n, lambda n: (3 * pi / 2 + 2 * pi * n - 2 * chi) / 4),
        ("phi=3pi/2, b", 3 * pi / 2, None, lambda n: 3 * pi / 4 + pi * n, lambda n: (pi / 2 + 2 * pi * n - 2 * chi) / 4),
    ]


@lru_cache(maxsize=32)
def _condition_table(case, chi):
    """The condition rows of the case at chi, as (row name, reported
    coordinates, the n of each sample) per row, and the chart points of
    every sample in row order, read-only: they depend on neither eta nor
    beta, so they are built once per case and chi."""
    label = case.label
    free_vals = np.linspace(0.2, 2.6, 5)
    # (row name, reported coordinates, [(n, chart point), ...]) per table row
    rows = []
    if label == "C5":
        for name, phi, omega, jpar, c_fn in _c5_rows(chi):
            if jpar != case.j % 2:
                continue
            ws = [omega] if omega is not None else free_vals
            samples = [(n, [w, phi, c_fn(n)]) for n in N_RANGE for w in ws]
            rows.append((name, {"phi": phi, "omega": omega}, samples))
    elif label == "C6":
        for name, phi, lpar, c_fn, cp_fn in _c6_rows(chi):
            if lpar != case.l % 2:
                continue
            samples = [(n, [phi, c_fn(n), cp_fn(n)]) for n in N_RANGE]
            rows.append((name, {"phi": phi}, samples))
    elif label == "C7":
        for name, phi, omega, cp_fn, c3_fn in _c7_rows(chi):
            ws = [omega] if omega is not None else free_vals
            samples = [(n, [w, phi, c3_fn(n), cp_fn(n)]) for n in N_RANGE for w in ws]
            rows.append((name, {"phi": phi, "omega": omega}, samples))
    else:
        raise ValueError("condition tables exist for C5, C6 and C7 only")
    points = np.array([xi for _, _, samples in rows for _, xi in samples], dtype=float)
    points.setflags(write=False)
    return tuple((name, coords, tuple(n for n, _ in samples)) for name, coords, samples in rows), points


def max_entangled_points(f: StateFamily, chi: float) -> np.ndarray:
    """The chart points verify_max_entangled_tables evaluates the family at,
    in order, shape (M, dim), read-only."""
    return _condition_table(f.case, chi)[1]


def verify_max_entangled_tables(f: StateFamily, chi: float, values=None) -> list[MaxEntangledCondition]:
    """Evaluate the family on every cataloged condition row at each n in
    N_RANGE and measure the concurrence; rows with an unconstrained omega
    are sampled at 5 values in [0.2, 2.6].  The worst concurrence over n
    values and samples is recorded per row; failures are reported, never
    raised.  values, the (M,) concurrences at max_entangled_points(f, chi)
    where the caller took them in a batch with other families, stands in
    for concurrences(f.states(...)).
    """
    rows, points = _condition_table(f.case, chi)
    if values is None:
        values = concurrences(f.states(points))
    elif np.shape(values) != (len(points),):
        raise ValueError(f"expected {len(points)} concurrences, got shape {np.shape(values)}")
    values = iter(np.asarray(values, dtype=float).tolist())
    results = []
    for name, coords, ns in rows:
        worst_val, worst_n = None, None
        for n in ns:
            val = next(values)
            if worst_val is None or abs(val - 1) > abs(worst_val - 1):
                worst_val, worst_n = val, n
        results.append(MaxEntangledCondition(f.case.label, name, dict(coords), chi, worst_n, worst_val))
    return results


@dataclass(frozen=True)
class ConcurrenceScan:
    """Concurrences of a grid scan: values at the grid_points of the
    per-coordinate axes, in C-order."""

    axes: tuple
    values: np.ndarray

    @property
    def coords(self) -> np.ndarray:
        """The (N, dim) grid points of values, grid_points(axes)."""
        return grid_points(self.axes)

    @property
    def argmax(self):
        k = int(np.argmax(self.values))
        index = np.unravel_index(k, [len(a) for a in self.axes])
        return np.array([a[i] for a, i in zip(self.axes, index)]), float(self.values[k])


def _linspace(a, b, n: int) -> np.ndarray:
    """np.linspace(a, b, n) for n >= 1, bitwise, with the endpoints taken
    as floats: the same operations in the same order, without its
    per-call dispatch."""
    a, b = float(a), float(b)
    y = np.arange(n, dtype=float)
    delta = b - a
    if n == 1:
        y *= delta
    elif delta / (n - 1) == 0.0:
        # a zero step (equal endpoints, or an underflow), as np.linspace takes it
        y /= n - 1
        y *= delta
    else:
        y *= delta / (n - 1)
    y += a
    if n > 1:
        y[-1] = b
    return y


def scan_concurrence(f: StateFamily, grid: dict) -> ConcurrenceScan:
    """Dense concurrence evaluation over an axis-aligned grid.

    grid maps chart coordinate names to (start, stop, count); missing
    coordinates are held at 0.  A name outside the chart, a non-finite
    endpoint, a span stop - start that overflows or a count that is not a
    finite integer of at least 1 raises ValueError naming the coordinate.
    The values come from one StateFamily.grid_concurrences call, which
    never forms the states.
    """
    unknown = [name for name in grid if name not in f.chart]
    if unknown:
        raise ValueError(f"grid coordinate {unknown[0]!r} is not in the chart {f.chart}")
    axes = []
    for name in f.chart:
        if name in grid:
            a, b, n = grid[name]
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"grid endpoints of {name!r} must be finite, got {a!r}:{b!r}")
            if not math.isfinite(b - a):
                raise ValueError(f"grid span of {name!r} overflows, got {a!r}:{b!r}")
            if not (isinstance(n, numbers.Real) and math.isfinite(n) and n == int(n) and n >= 1):
                raise ValueError(f"grid count of {name!r} must be at least 1 and an integer, got {n!r}")
            axes.append(_linspace(a, b, int(n)))
        else:
            axes.append(np.array([0.0]))
    return ConcurrenceScan(tuple(axes), f.grid_concurrences(axes))
