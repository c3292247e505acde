"""Quasi-collision trajectory toolkit for the planar restricted 3-centre problem.

Builds resonant periodic orbits of the regularized two-centre flow through
a third perturbing centre, excludes primary collisions, assembles
direction-change chain graphs with their symbolic dynamics, and measures
how perturbed trajectories shadow the collision chains as the third
centre's intensity shrinks.
"""

from .arcs import (ArcLabel, CollisionArc, NondegeneracyCertificate,
                   SafetyReport, arc_family, build_arc, find_admissible_beta,
                   initial_velocities, nondegeneracy_certificate,
                   primary_collision_check, primary_collision_ratios,
                   resonant_params)
from .chains import (ChainGraph, CollisionChain, assemble_chain,
                     build_alphabet, build_graph, count_periodic_chains,
                     entropy_estimate)
from .dynamics import (CentreProximity, EllipticState, EventRecord, Params,
                       PhiCrossing, PrimaryProximity, Trajectory, XiCrossing,
                       centre_potential, integrate, integrate_symplectic,
                       primary_potential, regularized_hamiltonian,
                       trajectory_to_csv, trajectory_to_json, vector_field)
from .errors import (AccuracyError, DomainError, IntegrationError,
                     PlacementError, RangeError, SingularityError,
                     StructuralError, TricentreError, UnsafeCentreError)
from .geometry import (CartesianPoint, EllipticPoint, cartesian_to_elliptic,
                       elliptic_to_cartesian, physical_time_of,
                       transform_matrix, velocity_to_cartesian)
from .periods import (ResonanceSolution, modulus_squares, period_phi,
                      period_xi, resonance_residual, solve_beta_for_energy,
                      solve_resonant_a1, turning_point_xi)
from .shadow import ShadowResult, local_expansion_rate, shoot_segment
from .special import QuadratureResult, adaptive_quadrature, complete_elliptic_k

__version__ = "0.1.0"

# The kernels are pure Python; the flag stays for tools that record it.
NUMBA_ENABLED = False
