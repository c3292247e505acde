"""Quasi-collision trajectory toolkit for the planar restricted 3-centre problem.

Builds resonant periodic orbits of the regularized two-centre flow through
a third perturbing centre, excludes primary collisions, assembles
direction-change chain graphs with their symbolic dynamics, and measures
how perturbed trajectories shadow the collision chains as the third
centre's intensity shrinks.

The names below resolve lazily (PEP 562): `import tricentre` loads no
submodule, and the first access to a name imports the module that defines
it.  The closed-form layer (`periods`, `params`, `exclusion`) never
imports numpy.
"""

import importlib

_EXPORTS = {
    "arcs": ("ArcLabel", "CollisionArc", "arc_family", "build_arc",
             "initial_velocities"),
    "chains": ("ChainGraph", "CollisionChain", "assemble_chain",
               "build_alphabet", "build_graph", "count_periodic_chains",
               "entropy_estimate"),
    "dynamics": ("EventRecord", "PhiCrossing", "Trajectory", "integrate",
                 "trajectory_to_json"),
    "errors": ("DomainError", "IntegrationError", "PlacementError",
               "RangeError", "SingularityError", "StructuralError",
               "TricentreError", "UnsafeCentreError"),
    "exclusion": ("NondegeneracyCertificate", "SafetyReport",
                  "find_admissible_beta", "nondegeneracy_certificate",
                  "primary_collision_check", "primary_collision_ratios",
                  "resonant_params"),
    "geometry": ("CartesianPoint", "EllipticPoint", "cartesian_to_elliptic",
                 "elliptic_to_cartesian", "physical_time_of",
                 "transform_matrix", "velocity_to_cartesian"),
    "params": ("Params",),
    "periods": ("ResonanceSolution", "modulus_squares", "period_phi",
                "period_xi", "solve_beta_for_energy", "solve_resonant_a1",
                "turning_point_xi"),
    "shadow": ("ShadowResult", "local_expansion_rate", "shoot_segment"),
    "special": ("complete_elliptic_k",),
    "_output": ("trajectory_to_csv",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__version__ = "0.1.0"

# The kernels are pure Python; the flag stays for tools that record it.
NUMBA_ENABLED = False

__all__ = sorted(_MODULE_OF) + ["NUMBA_ENABLED"]


def __getattr__(name):
    """Import the defining module of `name` on first access and cache it."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}",
                                                __name__), name)
    elif name in _EXPORTS:  # a submodule, as `import tricentre` once loaded
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
