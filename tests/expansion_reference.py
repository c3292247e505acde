"""Reference expansion rate for the oracle tests.

The earlier ``tricentre.shadow.local_expansion_rate``, kept verbatim: each
branch of the central difference is integrated at tol 1e-12 to its first
exit from the doubled circle, found by a ``CentreProximity`` event.  The
production rate follows each branch along the Kepler conic of strength
eps instead, which leaves out the primaries' field across the disc; the
two must agree to O(eps).
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from event_specs import CentreProximity
from tricentre.dynamics import integrate
from tricentre.errors import DomainError, IntegrationError
from tricentre.geometry import CartesianPoint, EllipticPoint, velocity_to_cartesian
from tricentre.shadow import (_IMPACT_OFFSET_FRAC, _IMPACT_STEP_FRAC,
                              ShadowResult, _cartesian_track,
                              _energy_consistent_state)

_EXIT_SPAN = 4.0            # tau span of a branch, in entry radii over speed
_EXIT_SPAN_MAX = 80.0       # the span again when the first finds no exit


def integrated_expansion_rate(results: Sequence[ShadowResult],
                              eps: float) -> float:
    """Per-passage expansion rate through the centre neighbourhood.

    Takes the arrival state of the first converged segment, offsets it
    across the incoming direction by impact parameters b0 -+ db = (0.25 -+
    0.05) entry radii (energy kept on the zero level), integrates each
    branch through the near-centre swing, reads its first exit from the
    doubled circle, and returns log |d(theta_out)/d(b)| by central
    differences.  A branch runs for 4 entry radii over its speed (the exit
    comes near 2.9), and for 80 only when that run finds no exit; a run's
    steps do not depend on its end until one would pass it, so the exit is
    that of the longer run.  The rate grows as the centre's attraction
    strengthens relative to the passage distance, i.e. as eps decreases at
    fixed b/entry_radius.
    """
    if len(results) < 2:
        raise DomainError("need at least 2 consecutive segments")
    if not all(r.converged for r in results[:2]):
        raise DomainError("expansion rate requires converged segments")
    seg = results[0]
    prm = seg.params.with_eps(eps)
    r_e = seg.entry_radius

    y_arr = seg.arrival_state
    v_cart = velocity_to_cartesian(EllipticPoint(*y_arr[:2]), y_arr[2:])
    v_dir = v_cart / np.hypot(*v_cart)
    normal = np.array([-v_dir[1], v_dir[0]])
    pos0 = _cartesian_track(y_arr[None, :])[0]

    b0 = _IMPACT_OFFSET_FRAC * r_e
    db = _IMPACT_STEP_FRAC * r_e

    def theta_out(b: float) -> float:
        pos = CartesianPoint(*(pos0 + b * normal))
        y0 = _energy_consistent_state(pos, v_dir, prm)
        speed_cart = float(np.hypot(*velocity_to_cartesian(
            EllipticPoint(y0[0], y0[1]), y0[2:])))
        exit_ev = CentreProximity(radius=2.0 * r_e, direction=+1)
        for span in (_EXIT_SPAN, _EXIT_SPAN_MAX):
            traj = integrate(y0, prm, span * r_e / speed_cart, tol=1e-12,
                             events=[exit_ev])
            if traj.events:
                break
        else:
            raise IntegrationError(
                "near-centre passage did not exit the measurement circle")
        y_exit = traj.events[0].state
        v_exit = velocity_to_cartesian(EllipticPoint(y_exit[0], y_exit[1]),
                                       y_exit[2:])
        return math.atan2(v_exit[1], v_exit[0])

    th_plus = theta_out(b0 + db)
    th_minus = theta_out(b0 - db)
    dtheta = math.atan2(math.sin(th_plus - th_minus),
                        math.cos(th_plus - th_minus))
    sensitivity = abs(dtheta) / (2.0 * db)
    if sensitivity <= 0.0:
        raise IntegrationError("degenerate zero sensitivity across the passage")
    return math.log(sensitivity)
