"""Coupling parameters, derived chart quantities and the C1..C7 case classification.

The physical model is a pair of qubits with exchange couplings (c1, c2, c3),
a z-axis field b and an optional x-axis field beta.  Everything downstream is
parametrized by the derived quantities

    omega = sqrt((2b)^2 + c_minus^2),   c_pm = c1 +- c2,

with the angle phi fixed by (c_minus, 2b) = omega (cos phi, sin phi).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CaseMismatchError,
    ClassificationToleranceError,
    StationaryStateError,
)

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class HamiltonianParams:
    """Dimensionless couplings of the two-qubit Hamiltonian.

    beta is the strength of the x-axis field used as a linear perturbation.
    It is assumed small; any finite value of either sign is taken, and
    every report carries it.
    """

    b: float
    c1: float
    c2: float
    c3: float
    beta: float = 0.0

    def __post_init__(self):
        for name in ("b", "c1", "c2", "c3", "beta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")

    @property
    def c_plus(self) -> float:
        return self.c1 + self.c2

    @property
    def c_minus(self) -> float:
        return self.c1 - self.c2


@dataclass(frozen=True)
class DerivedParams:
    """Chart quantities (omega, phi, c_plus) derived from HamiltonianParams.

    The phi branch is fixed over the full quadrant: (c_minus, 2b) equals
    omega*(cos phi, sin phi) with phi in (-pi, pi].  When omega = 0 the angle
    is undefined; phi is set to 0 and `degenerate` is flagged, and chart-based
    operations must refuse such parameters.
    """

    omega: float
    phi: float
    c_plus: float
    c_minus: float
    degenerate: bool = False


def derive_params(p: HamiltonianParams) -> DerivedParams:
    """Map physical couplings to the (omega, phi, c_plus) chart."""
    two_b = 2.0 * p.b
    omega = math.hypot(two_b, p.c_minus)
    if omega == 0.0:
        return DerivedParams(0.0, 0.0, p.c_plus, p.c_minus, degenerate=True)
    phi = math.atan2(two_b, p.c_minus)
    return DerivedParams(omega, phi, p.c_plus, p.c_minus)


@dataclass(frozen=True)
class InitialCoefficients:
    """Complex coefficients eta_1..eta_4 of the initial state in the eigenbasis.

    A row that is not unit-norm is refused (require_unit_rows).  The
    instance is frozen, so the magnitudes that check returns are kept from
    construction: abs2 = |eta_k|^2 (read-only) and eta12_plus ..
    eta34_minus.  Its case is computed on first read and kept.  These live
    in the instance __dict__, outside the dataclass fields, so equality and
    hashing see only eta_1..eta_4.
    """

    eta1: complex
    eta2: complex
    eta3: complex
    eta4: complex

    def __post_init__(self):
        a, *sums = require_unit_rows(self.as_array())
        a.setflags(write=False)
        # set past the frozen dataclass's __setattr__, outside its fields
        object.__setattr__(self, "abs2", a)
        for name, value in zip(("eta12_plus", "eta12_minus", "eta34_plus", "eta34_minus"), sums):
            object.__setattr__(self, name, float(value))

    @classmethod
    def normalized(cls, eta1, eta2, eta3, eta4) -> "InitialCoefficients":
        """Build coefficients, rescaling to unit norm."""
        return cls(*unit_row(np.array([eta1, eta2, eta3, eta4], dtype=complex)))

    def as_tuple(self):
        return (self.eta1, self.eta2, self.eta3, self.eta4)

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple(), dtype=complex)

    @cached_property
    def _case(self) -> "CaseClass":
        """The case classify returns; a raise leaves nothing cached."""
        return _classify(np.abs(self.as_array()))

    @property
    def alphas(self) -> np.ndarray:
        """Individual phases alpha_k = arg(eta_k); 0 for vanishing coefficients."""
        return np.array(
            [cmath.phase(e) if e != 0 else 0.0 for e in self.as_tuple()]
        )


def require_unit_rows(etas) -> tuple:
    """The magnitudes every closed form is built from: |eta_k|^2 and the
    sums and differences eta12_plus, eta12_minus, eta34_plus, eta34_minus
    of one coefficient row (4,), or of each row of an (N, 4) array, from
    one pass that checks the rows.  Raises ValueError naming the first row
    whose |eta|^2, summed left to right as Python's sum does, is off 1 by
    more than _NORM_TOL or is not finite."""
    abs2 = np.abs(etas) ** 2
    a1, a2, a3, a4 = abs2.T
    norm2 = a1 + a2 + a3 + a4
    ok = abs(norm2 - 1.0) <= _NORM_TOL  # False for a NaN too
    if not ok.all():
        k = int(np.argmin(ok))
        raise ValueError(f"coefficient row {k} must be normalized: |eta|^2 = {float(np.ravel(norm2)[k])!r}")
    return abs2, a1 + a2, a1 - a2, a3 + a4, a3 - a4


def unit_row(v) -> np.ndarray:
    """One coefficient row v scaled to unit norm by its 1-D np.linalg.norm,
    the scaling InitialCoefficients.normalized applies, or each row of an
    (N, 4) batch scaled as alone: the batch's squared norms are stacked
    matmul dot products, which round as the 1-D norm's dot products do.
    Raises ValueError for a row whose norm is zero or not finite (a NaN or
    infinite entry)."""
    if np.ndim(v) == 1:
        n = np.linalg.norm(v)
        if not math.isfinite(n):
            raise ValueError(f"coefficients must be finite with a finite norm, got {v}")
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return v / n
    v = np.asarray(v)
    re, im = v.real, v.imag
    n = np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0])
    bad = ~np.isfinite(n[:, 0])
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"coefficients must be finite with a finite norm, got row {k}: {v[k]}")
    if not n.all():
        raise ValueError(f"cannot normalize the zero vector (row {int(np.argmin(n[:, 0]))})")
    return v / n


# Charts of the per-case state manifolds (Table of dimensions).
CASE_CHARTS = {
    "C1": ("c_plus",),
    "C2": ("phi",),
    "C3": ("omega", "phi"),
    "C4": ("phi", "c"),
    "C5": ("omega", "phi", "c"),
    "C6": ("phi", "c", "c_plus"),
    "C7": ("omega", "phi", "c3", "c_plus"),
}


@dataclass(frozen=True)
class CaseClass:
    """Case label C1..C7 plus, where relevant, the indices (l, j) of the
    nonzero coefficients: l among {1, 2}, j among {3, 4}."""

    label: str
    l: int | None = None
    j: int | None = None

    def __post_init__(self):
        if self.label not in CASE_CHARTS:
            raise ValueError(f"unknown case label {self.label!r}")
        if self.l is not None and self.l not in (1, 2):
            raise ValueError("l must be 1 or 2")
        if self.j is not None and self.j not in (3, 4):
            raise ValueError("j must be 3 or 4")

    @property
    def chart(self) -> tuple[str, ...]:
        return CASE_CHARTS[self.label]

    @property
    def dimension(self) -> int:
        return len(self.chart)


# |eta_i| at or below this counts as zero.
CLASSIFY_TOL = 1e-12

# Magnitudes in (CLASSIFY_TOL, AMBIGUITY_FACTOR * CLASSIFY_TOL) can be
# neither called zero nor confidently nonzero; classification refuses them.
AMBIGUITY_FACTOR = 10.0


def classify(eta: InitialCoefficients) -> CaseClass:
    """Classify initial coefficients by their zero pattern, |eta_i| at or
    below CLASSIFY_TOL counting as zero.  Each coefficient set is
    classified once and its case reused; the errors are raised on every
    call."""
    return eta._case


def classify_rows(etas) -> CaseClass:
    """The case shared by every row of an (N, 4) array of coefficient rows,
    from one pass over their magnitudes: rows with the zero pattern of the
    first and no magnitude in the ambiguity band classify alike.  The first
    row that does not raises classify's error for it, or CaseMismatchError
    if it classifies as another case."""
    mags = np.abs(np.asarray(etas))
    case = _classify(mags[0])
    nz = mags > CLASSIFY_TOL
    odd = ((nz & (mags < AMBIGUITY_FACTOR * CLASSIFY_TOL)) | (nz != nz[0])).any(axis=1)
    if odd.any():
        k = int(odd.argmax())
        raise CaseMismatchError(
            f"coefficient row {k} classifies as {_classify(mags[k])}, row 0 as {case}"
        )
    return case


def _classify(mags: np.ndarray) -> CaseClass:
    """Classify by the coefficient magnitudes |eta_1|..|eta_4|."""
    ambiguous = (mags > CLASSIFY_TOL) & (mags < AMBIGUITY_FACTOR * CLASSIFY_TOL)
    if ambiguous.any():
        idx = int(np.argmax(ambiguous)) + 1
        raise ClassificationToleranceError(
            f"|eta{idx}| = {mags[idx - 1]:.3e} is within the ambiguity band "
            f"({CLASSIFY_TOL:.0e}, {AMBIGUITY_FACTOR * CLASSIFY_TOL:.0e}): "
            "neither zero nor clearly nonzero"
        )
    nz = mags > CLASSIFY_TOL
    nz12 = [k for k in (0, 1) if nz[k]]
    nz34 = [k for k in (2, 3) if nz[k]]

    if not nz12 and len(nz34) == 1:
        raise StationaryStateError(
            f"only eta{nz34[0] + 1} is nonzero: stationary eigenstate, "
            "zero-dimensional orbit"
        )
    if not nz12 and len(nz34) == 2:
        return CaseClass("C1")
    if len(nz12) == 1 and not nz34:
        return CaseClass("C2", l=nz12[0] + 1)
    if len(nz12) == 2 and not nz34:
        return CaseClass("C3")
    if len(nz12) == 1 and len(nz34) == 1:
        return CaseClass("C4", l=nz12[0] + 1, j=nz34[0] + 1)
    if len(nz12) == 2 and len(nz34) == 1:
        return CaseClass("C5", j=nz34[0] + 1)
    if len(nz12) == 1 and len(nz34) == 2:
        return CaseClass("C6", l=nz12[0] + 1)
    if len(nz12) == 2 and len(nz34) == 2:
        return CaseClass("C7")
    raise StationaryStateError(f"all coefficients vanish: every |eta_k| <= CLASSIFY_TOL = {CLASSIFY_TOL:.0e}")
