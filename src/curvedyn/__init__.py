"""Curvature-parametrized Hamiltonian systems on spherical, Euclidean,
and hyperbolic 3-spaces: trigonometric kernels, geometry, first
integrals with analytic gradients, Poisson brackets, integrators, and
verification audits."""

from .kappa_core import (
    DomainSingularity,
    arcsin_k,
    arctan_k,
    cos_k,
    sin_k,
    tan_k,
)
from .geometry import ConfigPoint, PhaseState
from .observables import ComplexObservable, Observable
from .systems import SystemSpec, catalog, hamilton_rhs, hamiltonian, make_system
from .dynamics import (
    Trajectory,
    closed_orbit_check,
    integrate,
    poisson_bracket,
    sample_state,
)

__version__ = "0.1.0"

__all__ = [
    "DomainSingularity",
    "cos_k",
    "sin_k",
    "tan_k",
    "arcsin_k",
    "arctan_k",
    "ConfigPoint",
    "PhaseState",
    "Observable",
    "ComplexObservable",
    "SystemSpec",
    "make_system",
    "catalog",
    "hamiltonian",
    "hamilton_rhs",
    "Trajectory",
    "integrate",
    "poisson_bracket",
    "sample_state",
    "closed_orbit_check",
    "__version__",
]
