"""Semiclassical two-spin entanglement dynamics on exact plane-wave trajectories.

The public names load on first use (PEP 562), so ``import laserspin`` and
``import laserspin.cli`` load no numpy before the CLI has set up its
process (see :mod:`laserspin.cli`).
"""

import importlib

# each submodule, with the public names it exports
_EXPORTS = {
    "elliptic": ("JacobiTriple", "complete_K", "jacobi", "jacobi_am"),
    "entanglement": ("concurrence_from_factor",
                     "concurrence_product_analytic",
                     "concurrence_werner_analytic", "density_factor",
                     "product_state",
                     "q_factor", "unitary_orbit_bound",
                     "validate_density_matrix", "werner_state",
                     "wootters_concurrence"),
    "errors": ("ConfigError", "DomainError", "IntegratorError",
               "InvalidStateError"),
    "evolution": ("propagate", "propagate_batch"),
    "simulate": ("evolve_von_neumann",),
    "spinfield": ("BoundStateParams", "DriveTable", "effective_field",
                  "interaction_hamiltonian", "omega_first_principles",
                  "spin_hamiltonian"),
    "trajectory": ("KinematicParams", "LaserParams", "com_acceleration",
                   "com_position", "com_velocity", "field_amplitude",
                   "generating_function", "lorentz_residual",
                   "modulus_from_params", "motion_period",
                   "plane_wave_invariant", "vector_potential", "wave_fields"),
    "validate": ("euler_representation", "interaction_picture_hamiltonian",
                 "interaction_term", "local_propagator",
                 "perturbative_delta_rho_werner", "precession_angle",
                 "psi_integral", "single_spin_propagator", "theta_minus"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
