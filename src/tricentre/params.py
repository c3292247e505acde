"""Parameters of one problem instance, on the math-only side of the package.

`Params` is shared by the closed-form layer (resonance solves and the
primary-collision exclusion test) and the integrator.  It lives here,
apart from `dynamics`, so that the closed-form commands can build one
without importing numpy.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import DomainError
from .geometry import CartesianPoint, EllipticPoint, _principal_point
from .periods import _check_domain, _check_unit_intensity

__all__ = ["Params"]


class Params(NamedTuple("Params", [
        ("a", float), ("beta", float), ("a1", float), ("q", Fraction),
        ("eps", float), ("centre", Optional[CartesianPoint])])):
    """Physical and regime parameters of one problem instance.

    beta = |E|/E1 and a1 = E1/2 are the scaled energy parameters of the
    separated system; the admissibility constraints are beta in [0, 1),
    0 < a1 < 1/(1+beta) (which also forces 2*beta*a1 < 1).  The total
    energy E = -2*beta*a1 is derived, never stored; a is 1.0 (`periods`).
    """

    __slots__ = ()

    def __new__(cls, a: float = 1.0, beta: float = 0.0, a1: float = 0.25,
                q: Fraction = Fraction(1), eps: float = 0.0,
                centre: Optional[CartesianPoint] = None):
        # valid input passes one test; where that fails, the checks of
        # `periods` and `_check_centre` decide, with their own messages
        if not (a == 1.0 and 0.0 <= beta < 1.0
                and 0.0 < a1 < 1.0 / (1.0 + beta)):
            _check_unit_intensity(a)
            _check_domain(beta, a1)
        if 2.0 * beta * a1 >= 1.0:
            raise DomainError("admissibility requires 2*beta*a1 < 1")
        if not 0.0 <= eps < math.inf:
            raise DomainError(f"eps must be finite and >= 0, got {eps}")
        if isinstance(q, int):
            q = Fraction(q)
        if not isinstance(q, Fraction) or q.numerator <= 0:
            raise DomainError("resonance class q must be a positive int or"
                              f" Fraction, got {q!r}")
        if centre is None:
            if eps > 0.0:
                raise DomainError("a perturbing centre position is required when eps > 0")
        elif not 1e-12 <= math.hypot(abs(centre.x) - 1.0, centre.y) < math.inf:
            _check_centre(centre)  # raises on a primary or if not finite
        return tuple.__new__(cls, (a, beta, a1, q, eps, centre))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace too

    @property
    def energy(self) -> float:
        return -2.0 * self.beta * self.a1

    @property
    def centre_elliptic(self) -> EllipticPoint:
        if self.centre is None:
            raise DomainError("no perturbing centre configured")
        return _principal_point(self.centre)

    def with_eps(self, eps: float) -> "Params":
        return self._replace(eps=eps)


def _check_centre(centre: CartesianPoint) -> None:
    """Refuse a centre that no parameters admit: none, not finite, or on a
    primary."""
    if centre is None:
        raise DomainError("no perturbing centre given")
    x, y = centre.x, centre.y
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"the perturbing centre must be finite, got {centre}")
    if math.hypot(x - 1.0, y) < 1e-12 or math.hypot(x + 1.0, y) < 1e-12:
        raise DomainError("the perturbing centre may not coincide with a primary")
