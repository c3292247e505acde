"""An event spec that only the tests use.

The tests time the xi oscillation by its upward crossings of xi = 0.  The
spec follows the protocol of the specs in ``tricentre.dynamics``:
g(states, prm) over an (..., 4) state array, a `direction` and a `kind`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class XiCrossing:
    """Crossing of the confocal ellipse xi = value; direction +1/-1/0=any."""
    value: float
    direction: int = 0
    kind: str = field(default="xi_crossing", init=False)

    def g(self, states: np.ndarray, prm):
        return states[..., 0] - self.value
