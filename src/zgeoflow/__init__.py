"""Geodesic flows on curved spaces from a deformed sl(2) Poisson algebra.

Subpackage map:

* :mod:`zgeoflow.dual`      dual numbers, reverse passes, Taylor sweeps, generic scalar math
* :mod:`zgeoflow.phase`     phase points and phase functions
* :mod:`zgeoflow.algebra`   deformed generators, Casimirs, Hamiltonians
* :mod:`zgeoflow.brackets`  exact gradients, Poisson bracket, verification
* :mod:`zgeoflow.geometry`  diagonal metrics and curvature tensors
* :mod:`zgeoflow.charts`    signed-curvature trig, polar charts, momenta
* :mod:`zgeoflow.dynamics`  symplectic integration and conservation reports
* :mod:`zgeoflow.cli`       command-line interface
"""

__version__ = "0.1.0"

from .algebra import (
    DeformedRealization,
    casimir_abstract,
    casimir_m,
    casimir_one,
    hamiltonian_family,
    hamiltonian_integrable,
    hamiltonian_superintegrable,
    integral_extra_2,
    integral_extra_3,
    realize_generators,
    sinhc,
)
from .brackets import (
    bracket_residual,
    check_algebra,
    check_involution,
    gradient,
    gradient_fd,
    gradient_rows,
    independence_rank,
    poisson_bracket,
)
from .charts import (
    PolarPoint,
    SpaceSignature,
    cart_to_polar,
    integrable_polar_system,
    kappa_cos,
    kappa_sin,
    kappa_tan,
    polar_to_cart,
    r_to_rho,
    rho_to_r,
    superintegrable_polar_system,
    transform_to_cartesian,
    transform_to_polar,
)
from .dynamics import conservation_report, integrate
from .geometry import (
    DiagonalMetric,
    christoffel,
    curvature_summary,
    gaussian_curvature_2d,
    line_element_from_hamiltonian,
    metric_from_hamiltonian,
    riemann,
    scalar_curvature,
    sectional_curvature,
)
from .phase import PhaseFunction, PhasePoint

__all__ = [
    "DeformedRealization",
    "DiagonalMetric",
    "PhaseFunction",
    "PhasePoint",
    "PolarPoint",
    "SpaceSignature",
    "bracket_residual",
    "cart_to_polar",
    "casimir_abstract",
    "casimir_m",
    "casimir_one",
    "check_algebra",
    "check_involution",
    "christoffel",
    "conservation_report",
    "curvature_summary",
    "gaussian_curvature_2d",
    "gradient",
    "gradient_fd",
    "gradient_rows",
    "hamiltonian_family",
    "hamiltonian_integrable",
    "hamiltonian_superintegrable",
    "independence_rank",
    "integrable_polar_system",
    "integral_extra_2",
    "integral_extra_3",
    "integrate",
    "kappa_cos",
    "kappa_sin",
    "kappa_tan",
    "line_element_from_hamiltonian",
    "metric_from_hamiltonian",
    "poisson_bracket",
    "polar_to_cart",
    "r_to_rho",
    "realize_generators",
    "rho_to_r",
    "riemann",
    "scalar_curvature",
    "sectional_curvature",
    "sinhc",
    "superintegrable_polar_system",
    "transform_to_cartesian",
    "transform_to_polar",
    "__version__",
]
