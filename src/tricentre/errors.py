"""Exception hierarchy shared by all tricentre modules.

Error kinds map onto CLI exit codes: domain problems exit 2, an unsafe
perturbing-centre position exits 3, numerical failures exit 4.
"""


class TricentreError(Exception):
    """Base class for all library errors."""


class DomainError(TricentreError):
    """Parameters outside the admissible region (bad beta/a1, m >= 1, ...)."""


class SingularityError(DomainError):
    """Evaluation requested at a singular point (a primary or the centre)."""


class PlacementError(DomainError):
    """Perturbing centre placed outside the turning-point ellipse."""


class RangeError(DomainError):
    """No bracket exists for the requested root (e.g. |energy| too large)."""


class UnsafeCentreError(TricentreError):
    """Primary-collision exclusion test failed for the requested centre."""

    def __init__(self, message, g_plus=None, g_minus=None, nearest=None):
        super().__init__(message)
        self.g_plus = g_plus
        self.g_minus = g_minus
        self.nearest = nearest


class IntegrationError(TricentreError):
    """Trajectory integration aborted (step underflow, exclusion ball, ...)."""


class StructuralError(TricentreError):
    """Graph or chain construction failed a structural guarantee."""
