"""Hot numerical kernels: the regularized vector field and the DOPRI5 stepper.

The stepping loops work on plain Python floats and 4-tuples; numpy only
holds the accepted samples.  The Dormand-Prince stage sums are unrolled
with the tableau entries as module floats, summed left to right, and the
two entries that are exactly zero (a71 and e2) are left out.

State layout everywhere: y = (xi, phi, xi', phi') with primes denoting
derivatives in the regularized time tau.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Dormand-Prince 5(4) tableau (row s holds the coefficients of stage s).
A10 = 1.0 / 5.0
A20, A21 = 3.0 / 40.0, 9.0 / 40.0
A30, A31, A32 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
A40, A41, A42, A43 = (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0,
                      -212.0 / 729.0)
A50, A51, A52, A53, A54 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                           49.0 / 176.0, -5103.0 / 18656.0)
A60, A62, A63, A64, A65 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                           -2187.0 / 6784.0, 11.0 / 84.0)
# error weights b - b_hat
E0, E2, E3, E4, E5, E6 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                          -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)

# Quartic dense-output coefficients for the same pair:
# y(tau0 + th*h) = y0 + h * (K^T P) @ (th, th^2, th^3, th^4).
DENSE_P = np.array([
    [1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0,
     -12715105075.0 / 11282082432.0],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0,
     87487479700.0 / 32700410799.0],
    [0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0,
     -10690763975.0 / 1880347072.0],
    [0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0,
     701980252875.0 / 199316789632.0],
    [0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0,
     -1453857185.0 / 822651844.0],
    [0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0,
     69997945.0 / 29380423.0],
])

# Integration status codes.
STATUS_OK = 0
STATUS_STEP_UNDERFLOW = 1
STATUS_ENTERED_EXCLUSION_BALL = 2
STATUS_MAX_STEPS = 3


class StepStats(NamedTuple):
    """What one integration cost; h_min and h_max are 0 with no step taken."""
    accepted: int
    rejected: int
    rhs_evals: int
    h_min: float
    h_max: float


def field(a, energy, eps, cx, cy):
    """Hamilton's equations of the regularized system, d(state)/dtau.

    Returns rhs(xi, phi, xi', phi') -> 4-tuple for the given parameters and
    perturbing centre (cx, cy); the centre is ignored when eps == 0.
    """
    two_a = 2.0 * a
    two_e = 2.0 * energy
    m2eps = -2.0 * eps
    sinh, cosh, sin, cos, sqrt = math.sinh, math.cosh, math.sin, math.cos, math.sqrt

    def rhs(xi, phi, pxi, pphi):
        sh = sinh(xi)
        ch = cosh(xi)
        sp = sin(phi)
        cp = cos(phi)
        dpxi = two_a * sh + two_e * ch * sh
        dpphi = two_e * cp * sp
        if eps != 0.0:
            dx = ch * cp - cx
            dy = sh * sp - cy
            r2 = dx * dx + dy * dy
            if r2 < 1e-300:
                r2 = 1e-300
            r = sqrt(r2)
            v = -1.0 / r
            r3 = r2 * r
            vx = dx / r3
            vy = dy / r3
            vxi = vx * sh * cp + vy * ch * sp
            vphi = -vx * ch * sp + vy * sh * cp
            rho = ch * ch - cp * cp
            dpxi += m2eps * v * ch * sh - eps * vxi * rho
            dpphi += m2eps * v * cp * sp - eps * vphi * rho
        return pxi, pphi, dpxi, dpphi

    return rhs


def dopri5_core(y0, tau1, tol, max_steps, a, energy, eps, cx, cy, r_min):
    """Adaptive Dormand-Prince 5(4) integration from tau = 0 to tau1.

    tol is both the relative and the absolute error target of the PI step
    control.  Returns (status, n, T, Y, KS, stats) where T[:n+1] are the
    accepted times, Y[:n+1] the states, KS[:n] the seven stage derivatives
    of each accepted step (for quartic dense output) and stats a StepStats.

    For eps > 0 the step size is capped proportionally to the distance from
    the perturbing centre and the integration refuses to enter the ball of
    radius r_min around it (status 2).
    """
    cap = 512
    T = np.empty(cap)
    Y = np.empty((cap, 4))
    KS = np.empty((cap, 7, 4))

    T[0] = 0.0
    Y[0] = y0

    span = abs(tau1)
    if span == 0.0:
        return (STATUS_OK, 0, T[:1].copy(), Y[:1].copy(), KS[:0].copy(),
                StepStats(0, 0, 0, 0.0, 0.0))

    rhs = field(a, energy, eps, cx, cy)
    direction = 1.0 if tau1 >= 0.0 else -1.0
    x0, x1, x2, x3 = (float(v) for v in y0)
    k0 = rhs(x0, x1, x2, x3)

    d0 = 0.0
    d1 = 0.0
    for yi, ki in zip((x0, x1, x2, x3), k0):
        sc = tol + tol * abs(yi)
        q0 = abs(yi) / sc
        q1 = abs(ki) / sc
        if q0 > d0:
            d0 = q0
        if q1 > d1:
            d1 = q1
    if d0 > 1e-5 and d1 > 1e-5:
        h_abs = 0.01 * d0 / d1
    else:
        h_abs = 1e-6
    h_abs = min(h_abs, span)

    status = STATUS_OK
    errold = 1e-4
    n = 0
    rejected = 0
    h_lo = math.inf
    h_hi = 0.0
    tau = 0.0
    nattempt = 0
    end_tol = 4.0 * 2.3e-16
    sqrt, cosh, cos, sinh, sin, hypot = (math.sqrt, math.cosh, math.cos,
                                         math.sinh, math.sin, math.hypot)
    while True:
        rem = abs(tau1 - tau)
        if rem <= end_tol * max(abs(tau), abs(tau1)):
            break
        if nattempt >= max_steps:
            status = STATUS_MAX_STEPS
            break
        nattempt += 1

        if eps != 0.0:
            ch = cosh(x0)
            cp = cos(x1)
            d = hypot(ch * cp - cx, sinh(x0) * sin(x1) - cy)
            if d < r_min:
                status = STATUS_ENTERED_EXCLUSION_BALL
                break
            rho = ch * ch - cp * cp
            speed = sqrt(rho * (x2 * x2 + x3 * x3))
            hcap = 0.5 * d / (speed + 1e-300)
            if h_abs > hcap:
                h_abs = hcap

        if h_abs < 1e-14 * max(1.0, abs(tau)):
            status = STATUS_STEP_UNDERFLOW
            break
        if h_abs > rem:
            h_abs = rem
        h = direction * h_abs

        a0, a1, a2, a3 = k0
        k1 = b0, b1, b2, b3 = rhs(x0 + h * (A10 * a0), x1 + h * (A10 * a1),
                                  x2 + h * (A10 * a2), x3 + h * (A10 * a3))
        k2 = c0, c1, c2, c3 = rhs(x0 + h * (A20 * a0 + A21 * b0),
                                  x1 + h * (A20 * a1 + A21 * b1),
                                  x2 + h * (A20 * a2 + A21 * b2),
                                  x3 + h * (A20 * a3 + A21 * b3))
        k3 = d0, d1, d2, d3 = rhs(x0 + h * (A30 * a0 + A31 * b0 + A32 * c0),
                                  x1 + h * (A30 * a1 + A31 * b1 + A32 * c1),
                                  x2 + h * (A30 * a2 + A31 * b2 + A32 * c2),
                                  x3 + h * (A30 * a3 + A31 * b3 + A32 * c3))
        k4 = e0, e1, e2, e3 = rhs(
            x0 + h * (A40 * a0 + A41 * b0 + A42 * c0 + A43 * d0),
            x1 + h * (A40 * a1 + A41 * b1 + A42 * c1 + A43 * d1),
            x2 + h * (A40 * a2 + A41 * b2 + A42 * c2 + A43 * d2),
            x3 + h * (A40 * a3 + A41 * b3 + A42 * c3 + A43 * d3))
        k5 = f0, f1, f2, f3 = rhs(
            x0 + h * (A50 * a0 + A51 * b0 + A52 * c0 + A53 * d0 + A54 * e0),
            x1 + h * (A50 * a1 + A51 * b1 + A52 * c1 + A53 * d1 + A54 * e1),
            x2 + h * (A50 * a2 + A51 * b2 + A52 * c2 + A53 * d2 + A54 * e2),
            x3 + h * (A50 * a3 + A51 * b3 + A52 * c3 + A53 * d3 + A54 * e3))
        n0 = x0 + h * (A60 * a0 + A62 * c0 + A63 * d0 + A64 * e0 + A65 * f0)
        n1 = x1 + h * (A60 * a1 + A62 * c1 + A63 * d1 + A64 * e1 + A65 * f1)
        n2 = x2 + h * (A60 * a2 + A62 * c2 + A63 * d2 + A64 * e2 + A65 * f2)
        n3 = x3 + h * (A60 * a3 + A62 * c3 + A63 * d3 + A64 * e3 + A65 * f3)
        k6 = g0, g1, g2, g3 = rhs(n0, n1, n2, n3)

        q0 = h * (E0 * a0 + E2 * c0 + E3 * d0 + E4 * e0 + E5 * f0 + E6 * g0) \
            / (tol + tol * max(abs(x0), abs(n0)))
        q1 = h * (E0 * a1 + E2 * c1 + E3 * d1 + E4 * e1 + E5 * f1 + E6 * g1) \
            / (tol + tol * max(abs(x1), abs(n1)))
        q2 = h * (E0 * a2 + E2 * c2 + E3 * d2 + E4 * e2 + E5 * f2 + E6 * g2) \
            / (tol + tol * max(abs(x2), abs(n2)))
        q3 = h * (E0 * a3 + E2 * c3 + E3 * d3 + E4 * e3 + E5 * f3 + E6 * g3) \
            / (tol + tol * max(abs(x3), abs(n3)))
        errn = sqrt((q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3) / 4.0)

        if errn <= 1.0:
            tau += h
            x0, x1, x2, x3 = n0, n1, n2, n3
            if n + 2 > cap:
                newcap = cap * 2
                T2 = np.empty(newcap)
                Y2 = np.empty((newcap, 4))
                K2 = np.empty((newcap, 7, 4))
                T2[:cap] = T
                Y2[:cap] = Y
                K2[:cap] = KS
                T, Y, KS = T2, Y2, K2
                cap = newcap
            T[n + 1] = tau
            Y[n + 1] = (n0, n1, n2, n3)
            KS[n] = (k0, k1, k2, k3, k4, k5, k6)
            n += 1
            if h_abs < h_lo:
                h_lo = h_abs
            if h_abs > h_hi:
                h_hi = h_abs
            k0 = k6
            if errn > 0.0:
                fac11 = errn ** 0.17
            else:
                fac11 = 1e-10
            fac = fac11 / errold ** 0.04
            fac = max(0.1, min(5.0, fac / 0.9))
            errold = max(errn, 1e-4)
            h_abs = h_abs / fac
        else:
            rejected += 1
            fac11 = errn ** 0.17
            h_abs = h_abs / min(5.0, fac11 / 0.9)

    stats = StepStats(n, rejected, 1 + 6 * (n + rejected),
                      h_lo if n else 0.0, h_hi)
    return status, n, T[:n + 1].copy(), Y[:n + 1].copy(), KS[:n].copy(), stats

