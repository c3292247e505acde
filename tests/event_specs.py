"""Event specs that only the tests use.

The tests time the xi oscillation by its upward crossings of xi = 0, and
the integrated oracle of the expansion rate (`expansion_reference.py`)
ends each branch where it leaves a circle around the perturbing centre.
The specs follow the protocol of the specs in ``tricentre.dynamics``:
g(states, prm) over an (..., 4) state array, a `direction` and a `kind`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from tricentre.errors import DomainError
from tricentre.geometry import elliptic_to_xy


@dataclass(frozen=True)
class XiCrossing:
    """Crossing of the confocal ellipse xi = value; direction +1/-1/0=any."""
    value: float
    direction: int = 0
    kind: str = field(default="xi_crossing", init=False)

    def g(self, states: np.ndarray, prm):
        return states[..., 0] - self.value


class CentreProximity(NamedTuple("CentreProximity", [
        ("radius", float), ("direction", int), ("kind", str)])):
    """Crossing of the circle dist(., centre) = radius; -1 means entering."""

    __slots__ = ()
    __getnewargs__ = lambda self: self[:2]  # for copy and pickle

    def __new__(cls, radius: float, direction: int = -1):
        return tuple.__new__(cls, (radius, direction, "centre_proximity"))

    def g(self, states: np.ndarray, prm):
        # a single state is mapped through math, as the stepping kernel does
        lib = math if states.ndim == 1 else np
        c = prm.centre
        if c is None:
            raise DomainError("CentreProximity needs a perturbing centre")
        x, y = elliptic_to_xy(states[..., 0], states[..., 1], lib)
        return (x - c.x) ** 2 + (y - c.y) ** 2 - self.radius ** 2
