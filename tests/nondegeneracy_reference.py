"""The finite-difference nondegeneracy certificate, kept as a test oracle.

`tricentre.exclusion.nondegeneracy_certificate` once took the partials of
the resonance residual F = q*T1 - T2 by central differences at steps 1e-6
and 5e-7 and Richardson-extrapolated them; it now differentiates the
closed forms of T1 and T2 exactly.  The earlier certificate is kept here
verbatim, so the tests can check the exact determinant against it; its
residual is the reference one, bitwise the production residual.  Its
error is rounding, about eps*|F|/h ~ 1e-9 relative, not truncation.
"""
from __future__ import annotations

from fractions import Fraction

from quadrature_reference import AccuracyError
from resonance_reference import resonance_residual
from tricentre.exclusion import _DET_THRESHOLD, NondegeneracyCertificate
from tricentre.periods import solve_resonant_a1

_FD_STEP = 1e-6         # finite-difference step of the certificate


def nondegeneracy_certificate(beta: float, q) -> NondegeneracyCertificate:
    """Certify the resonance Jacobian determinant away from zero.

    The Jacobian couples the residual derivatives (dF/dbeta, dF/da1) with
    the energy-constraint row (-2*a1, -2*beta) at the resonant point.
    Partials use central differences of step 1e-6 and its half (second-order
    one-sided in beta at beta = 0); a step-halving disagreement beyond 50%
    flags the step size as unusable.  The certificate passes when the
    row-normalized |det| exceeds 1e-6.
    """
    q = Fraction(q)
    sol = solve_resonant_a1(beta, q)
    a1h = sol.a1_hat

    def det_at(h: float) -> tuple[float, float]:
        if beta >= h:
            f_b = (resonance_residual(beta + h, a1h, q)
                   - resonance_residual(beta - h, a1h, q)) / (2.0 * h)
        else:
            f0 = resonance_residual(beta, a1h, q)
            f1 = resonance_residual(beta + h, a1h, q)
            f2 = resonance_residual(beta + 2.0 * h, a1h, q)
            f_b = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
        f_a = (resonance_residual(beta, a1h + h, q)
               - resonance_residual(beta, a1h - h, q)) / (2.0 * h)
        return f_b, f_a

    fb1, fa1 = det_at(_FD_STEP)
    fb2, fa2 = det_at(0.5 * _FD_STEP)
    f_b = (4.0 * fb2 - fb1) / 3.0
    f_a = (4.0 * fa2 - fa1) / 3.0

    def full_det(fb, fa):
        return fb * (-2.0 * beta) - fa * (-2.0 * a1h)

    d1 = full_det(fb1, fa1)
    d2 = full_det(fb2, fa2)
    det = full_det(f_b, f_a)
    if abs(d1 - d2) > 0.5 * max(abs(det), 1e-300):
        raise AccuracyError(
            f"finite-difference step {_FD_STEP:.3g} is in the nonlinear regime"
            f" (step-halving disagreement {abs(d1-d2):.3g})",
            best_estimate=det)

    row1 = max(abs(f_b), abs(f_a))
    row2 = max(abs(2.0 * a1h), abs(2.0 * beta))
    det_norm = det / (row1 * row2) if row1 > 0.0 and row2 > 0.0 else 0.0
    return NondegeneracyCertificate(
        det_j=det, det_normalized=det_norm, beta=beta, q=q,
        threshold=_DET_THRESHOLD, passed=abs(det_norm) > _DET_THRESHOLD)
