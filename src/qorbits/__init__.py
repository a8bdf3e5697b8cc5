"""Geometry and entanglement of two-qubit unitary orbits.

A library for constructing the state manifolds generated by anisotropic
Heisenberg-type two-qubit Hamiltonians in a z-axis field (optionally with a
weak noncommuting x-axis field), computing their Fubini-Study metrics and
Riemannian curvature, and characterizing their entanglement via the
concurrence.
"""

__version__ = "0.1.0"

from .model import (
    CaseClass,
    DerivedParams,
    HamiltonianParams,
    InitialCoefficients,
    classify,
    derive_params,
)
from .hamiltonian import (
    Spectrum,
    analytic_spectrum,
    build_hamiltonian,
    numeric_spectrum,
    perturbed_eigenstates,
)
from .families import (
    StateFamily,
    check_periodicity,
    evolved_state,
    family_for_case,
)
from .fubini_study import (
    MetricTensor,
    analytic_metric_c7,
    analytic_metric_case,
    numeric_fs_metric,
    numeric_fs_metrics,
    tangent_fs_metrics,
    two_param_metric,
)
from .curvature import (
    CurvatureReport,
    MetricField,
    curvature_at,
    perturbed_scalar_curvature_closed_form,
)
from .perturbation import (
    PerturbedMetric,
    audit_metric_correction,
    perturbed_metric_analytic,
)
from .entanglement import (
    concurrence,
    concurrence_analytic,
    scan_concurrence,
    verify_max_entangled_tables,
)
