"""Semiclassical two-spin entanglement dynamics on exact plane-wave trajectories."""

from .elliptic import JacobiTriple, complete_K, jacobi, jacobi_am
from .entanglement import (concurrence_product_analytic,
                           concurrence_werner_analytic, product_state,
                           q_factor, werner_state, wootters_concurrence)
from .errors import (ConfigError, DomainError, IntegratorError,
                     InvalidStateError)
from .evolution import (euler_representation, evolve_von_neumann,
                        interaction_picture_hamiltonian, interaction_term,
                        local_propagator, perturbative_delta_rho_werner,
                        precession_angle, propagate, psi_integral,
                        single_spin_propagator, theta_minus, time_ordered_X,
                        validate_density_matrix)
from .spinfield import (BoundStateParams, EffectiveField, effective_field,
                        interaction_hamiltonian, omega_first_principles,
                        spin_hamiltonian)
from .trajectory import (KinematicParams, LaserParams, com_acceleration,
                         com_position, com_velocity, field_amplitude,
                         generating_function, lorentz_residual,
                         modulus_from_params, motion_period,
                         plane_wave_invariant, vector_potential, wave_fields)

__version__ = "0.1.0"
