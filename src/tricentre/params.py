"""Parameters of one problem instance, on the math-only side of the package.

`Params` is shared by the closed-form layer (resonance solves and the
primary-collision exclusion test) and the integrator.  It lives here,
apart from `dynamics`, so that the closed-form commands can build one
without importing numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .errors import DomainError
from .geometry import CartesianPoint, EllipticPoint, _principal_preimage
from .periods import _check_domain

__all__ = ["Params"]


@dataclass(frozen=True)
class Params:
    """Physical and regime parameters of one problem instance.

    beta = |E|/E1 and a1 = E1/(2a) are the scaled energy parameters of the
    separated system; the admissibility constraints are beta in [0, 1),
    0 < a1 < 1/(1+beta) (which also forces 2*beta*a1 < 1).  The total
    energy E = -2*a*beta*a1 is derived, never stored independently.
    """

    a: float = 1.0
    beta: float = 0.0
    a1: float = 0.25
    q: Fraction = Fraction(1)
    eps: float = 0.0
    centre: Optional[CartesianPoint] = None

    def __post_init__(self):
        if not (self.a > 0.0):
            raise DomainError(f"primary intensity a must be > 0, got {self.a}")
        _check_domain(self.beta, self.a1)
        if 2.0 * self.beta * self.a1 >= 1.0:
            raise DomainError("admissibility requires 2*beta*a1 < 1")
        if not (self.eps >= 0.0):
            raise DomainError(f"eps must be >= 0, got {self.eps}")
        if isinstance(self.q, int):
            object.__setattr__(self, "q", Fraction(self.q))
        if self.q <= 0:
            raise DomainError(f"resonance class q must be positive, got {self.q}")
        if self.centre is None:
            if self.eps > 0.0:
                raise DomainError("a perturbing centre position is required when eps > 0")
        else:
            x, y = self.centre.x, self.centre.y
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DomainError(
                    f"the perturbing centre must be finite, got {self.centre}")
            if math.hypot(x - 1.0, y) < 1e-12 or math.hypot(x + 1.0, y) < 1e-12:
                raise DomainError("the perturbing centre may not coincide with a primary")

    @property
    def energy(self) -> float:
        return -2.0 * self.a * self.beta * self.a1

    @property
    def centre_elliptic(self) -> EllipticPoint:
        if self.centre is None:
            raise DomainError("no perturbing centre configured")
        return _principal_preimage(self.centre)

    def with_eps(self, eps: float) -> "Params":
        return replace(self, eps=eps)
