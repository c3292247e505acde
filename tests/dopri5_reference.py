"""Reference Dormand-Prince 5(4) loop for the kernel oracle test.

This is the earlier numpy-indexed implementation of
``tricentre._kernels.dopri5_core``, kept verbatim (tableau, status codes
and loop).  The production loop on Python floats must reproduce its
(T, Y, KS) exactly, and raise IntegrationError at the last accepted tau
wherever this loop returns a failure status.
"""
from __future__ import annotations

import math

import numpy as np

# Dormand-Prince 5(4) tableau.
_BT_A = np.zeros((7, 7))
_BT_A[1, 0] = 1.0 / 5.0
_BT_A[2, :2] = (3.0 / 40.0, 9.0 / 40.0)
_BT_A[3, :3] = (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0)
_BT_A[4, :4] = (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0,
                -212.0 / 729.0)
_BT_A[5, :5] = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                49.0 / 176.0, -5103.0 / 18656.0)
_BT_A[6, :6] = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0,
                -2187.0 / 6784.0, 11.0 / 84.0)
_BT_E = np.array([71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
                  -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0])

# Integration status codes.
STATUS_OK = 0
STATUS_STEP_UNDERFLOW = 1
STATUS_ENTERED_EXCLUSION_BALL = 2
STATUS_MAX_STEPS = 3


def _dopri5_core_py(y0, tau0, tau1, rtol, atol, h_init, h_max, max_steps,
                    a, energy, eps, cx, cy, r_min):
    """Adaptive Dormand-Prince 5(4) integration with PI step control.

    Returns (status, n, T, Y, KS) where T[:n+1] are the accepted times,
    Y[:n+1] the states and KS[:n] the seven stage derivatives of each
    accepted step (for quartic dense output).  The vector field is inlined
    so the whole loop compiles to one self-contained unit.

    For eps > 0 the step size is capped proportionally to the distance from
    the perturbing centre and the integration refuses to enter the ball of
    radius r_min around it (status 2).
    """
    def rhs(y, out):
        xi = y[0]
        phi = y[1]
        sh = math.sinh(xi)
        ch = math.cosh(xi)
        sp = math.sin(phi)
        cp = math.cos(phi)
        out[0] = y[2]
        out[1] = y[3]
        dpxi = 2.0 * a * sh + 2.0 * energy * ch * sh
        dpphi = 2.0 * energy * cp * sp
        if eps != 0.0:
            x = ch * cp
            yy = sh * sp
            dx = x - cx
            dy = yy - cy
            r2 = dx * dx + dy * dy
            if r2 < 1e-300:
                r2 = 1e-300
            r = math.sqrt(r2)
            v = -1.0 / r
            r3 = r2 * r
            vx = dx / r3
            vy = dy / r3
            vxi = vx * sh * cp + vy * ch * sp
            vphi = -vx * ch * sp + vy * sh * cp
            rho = ch * ch - cp * cp
            dpxi += -2.0 * eps * v * ch * sh - eps * vxi * rho
            dpphi += -2.0 * eps * v * cp * sp - eps * vphi * rho
        out[2] = dpxi
        out[3] = dpphi

    cap = 512
    T = np.empty(cap)
    Y = np.empty((cap, 4))
    KS = np.empty((cap, 7, 4))

    T[0] = tau0
    for i in range(4):
        Y[0, i] = y0[i]

    span = abs(tau1 - tau0)
    if span == 0.0:
        return STATUS_OK, 0, T[:1].copy(), Y[:1].copy(), KS[:0].copy()

    direction = 1.0 if tau1 >= tau0 else -1.0
    y = y0.copy()
    ynew = np.empty(4)
    ytmp = np.empty(4)
    k = np.empty((7, 4))
    rhs(y, k[0])

    if h_init > 0.0:
        h_abs = min(h_init, h_max)
    else:
        d0 = 0.0
        d1 = 0.0
        for i in range(4):
            sc = atol + rtol * abs(y[i])
            q0 = abs(y[i]) / sc
            q1 = abs(k[0, i]) / sc
            if q0 > d0:
                d0 = q0
            if q1 > d1:
                d1 = q1
        if d0 > 1e-5 and d1 > 1e-5:
            h_abs = 0.01 * d0 / d1
        else:
            h_abs = 1e-6
        h_abs = min(h_abs, h_max, span)

    status = STATUS_OK
    errold = 1e-4
    n = 0
    tau = tau0
    nattempt = 0
    while True:
        rem = abs(tau1 - tau)
        if rem <= 4.0 * 2.3e-16 * max(abs(tau), abs(tau1)):
            break
        if nattempt >= max_steps:
            status = STATUS_MAX_STEPS
            break
        nattempt += 1

        if eps != 0.0:
            ch = math.cosh(y[0])
            cp = math.cos(y[1])
            x = ch * cp
            yy = math.sinh(y[0]) * math.sin(y[1])
            d = math.hypot(x - cx, yy - cy)
            if d < r_min:
                status = STATUS_ENTERED_EXCLUSION_BALL
                break
            rho = ch * ch - cp * cp
            speed = math.sqrt(rho * (y[2] * y[2] + y[3] * y[3]))
            hcap = 0.5 * d / (speed + 1e-300)
            if h_abs > hcap:
                h_abs = hcap

        if h_abs < 1e-14 * max(1.0, abs(tau)):
            status = STATUS_STEP_UNDERFLOW
            break
        if h_abs > rem:
            h_abs = rem
        h = direction * h_abs

        for s in range(1, 7):
            for i in range(4):
                acc = 0.0
                for j in range(s):
                    acc += _BT_A[s, j] * k[j, i]
                ytmp[i] = y[i] + h * acc
            if s == 6:
                for i in range(4):
                    ynew[i] = ytmp[i]
            rhs(ytmp, k[s])

        errn = 0.0
        for i in range(4):
            e = 0.0
            for j in range(7):
                e += _BT_E[j] * k[j, i]
            sc = atol + rtol * max(abs(y[i]), abs(ynew[i]))
            q = h * e / sc
            errn += q * q
        errn = math.sqrt(errn / 4.0)

        if errn <= 1.0:
            # accept
            tau += h
            for i in range(4):
                y[i] = ynew[i]
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
            for i in range(4):
                Y[n + 1, i] = y[i]
            for s in range(7):
                for i in range(4):
                    KS[n, s, i] = k[s, i]
            n += 1
            for i in range(4):
                k[0, i] = k[6, i]
            if errn > 0.0:
                fac11 = errn ** 0.17
            else:
                fac11 = 1e-10
            fac = fac11 / errold ** 0.04
            fac = max(0.1, min(5.0, fac / 0.9))
            errold = max(errn, 1e-4)
            h_abs = min(h_abs / fac, h_max)
        else:
            fac11 = errn ** 0.17
            h_abs = h_abs / min(5.0, fac11 / 0.9)

    return status, n, T[:n + 1].copy(), Y[:n + 1].copy(), KS[:n].copy()

