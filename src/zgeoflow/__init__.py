"""Geodesic flows on curved spaces from a deformed sl(2) Poisson algebra.

Subpackage map:

* :mod:`zgeoflow.dual`      dual numbers, reverse passes, the compile rule, generic scalar math
* :mod:`zgeoflow.taylor`    Taylor sweeps over reverse records and their compiled code
* :mod:`zgeoflow.kernels`   sinhc and the sine/cosine kernels, one table entry each
* :mod:`zgeoflow.phase`     phase points and phase functions, ``gradient_lists``
* :mod:`zgeoflow.algebra`   deformed generators, Casimirs, Hamiltonians
* :mod:`zgeoflow.brackets`  exact gradients, Poisson bracket, verification
* :mod:`zgeoflow.geometry`  diagonal metrics and curvature tensors
* :mod:`zgeoflow.charts`    signed-curvature trig, polar charts, momenta
* :mod:`zgeoflow.dynamics`  symplectic integration and conservation reports
* :mod:`zgeoflow.cli`       command-line interface
* :mod:`zgeoflow.jsontext`  the reports' JSON text

Importing the package loads none of these: each exported name imports its
module on first access (PEP 562), so ``from zgeoflow import integrate``
loads ``dynamics`` and what it imports, and no more.  The command line
loads ``dual``, ``kernels``, ``phase``, ``algebra`` and ``jsontext`` at
import, and then the one module its command needs: ``brackets`` (and
numpy) for ``verify``, ``dynamics`` for ``simulate``, ``geometry`` for
``curvature``, ``charts`` for ``transform``; a polar run loads ``charts``
too.  ``taylor`` loads with ``charts`` or ``geometry``.
"""

import importlib

__version__ = "0.1.0"

#: each exported name, by the module that defines it
_EXPORTS = {
    "algebra": (
        "DeformedRealization",
        "casimir_abstract",
        "casimir_m",
        "casimir_one",
        "hamiltonian_family",
        "hamiltonian_integrable",
        "hamiltonian_superintegrable",
        "integral_extra_2",
        "integral_extra_3",
        "realize_generators",
    ),
    "brackets": (
        "bracket_residual",
        "check_algebra",
        "check_involution",
        "gradient",
        "gradient_fd",
        "gradient_rows",
        "independence_rank",
        "poisson_bracket",
    ),
    "charts": (
        "PolarPoint",
        "SpaceSignature",
        "cart_to_polar",
        "integrable_polar_system",
        "kappa_cos",
        "kappa_sin",
        "kappa_tan",
        "polar_to_cart",
        "r_to_rho",
        "rho_to_r",
        "superintegrable_polar_system",
        "transform_to_cartesian",
        "transform_to_polar",
    ),
    "dynamics": ("conservation_report", "integrate"),
    "geometry": (
        "DiagonalMetric",
        "christoffel",
        "curvature_summary",
        "gaussian_curvature_2d",
        "line_element_from_hamiltonian",
        "metric_from_hamiltonian",
        "riemann",
        "scalar_curvature",
        "sectional_curvature",
    ),
    "kernels": ("sinhc",),
    "phase": ("PhaseFunction", "PhasePoint"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _EXPORTS or name == "dual":  # the modules the exports import
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
