"""Reference DOP853 loop for the kernel oracle test.

A numpy-indexed implementation of ``tricentre._kernels.dop853_core``,
written apart from it: the tableau comes from scipy's copy of Hairer's
coefficients as arrays, every stage sum runs over all earlier stages
(the exact zeros included), the vector field is inlined, and a failure is
a status code.  The production loop on Python floats must reproduce its
(T, Y, stages, steps) exactly, and raise IntegrationError at the last
accepted tau wherever this loop returns a failure status.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as coef

N_STAGES = 12  # stages of a step; stage 12 is f at the new state
A = coef.A[:N_STAGES, :N_STAGES]
B = coef.B
E3 = coef.E3[:N_STAGES]
E5 = coef.E5[:N_STAGES]
DENSE_STAGES = [0, 5, 6, 7, 8, 9, 10, 11, 12]  # what the kernel keeps

# Integration status codes.
STATUS_OK = 0
STATUS_STEP_UNDERFLOW = 1
STATUS_ENTERED_EXCLUSION_BALL = 2
STATUS_MAX_STEPS = 3


def dop853_reference(y0, tau1, tol, max_steps, energy, eps, cx, cy, r_min):
    """Adaptive DOP853 integration from tau = 0 to tau1.

    Returns (status, n, T, Y, K, steps) where T[:n+1] are the accepted
    times, Y[:n+1] the states, K[:n] all 13 stage derivatives of each
    accepted step (stage 12 is f at its end) and steps the n signed step
    sizes.
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
        dpxi = 2.0 * sh + 2.0 * energy * ch * sh
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

    T = [0.0]
    Y = [np.array(y0, dtype=float)]
    K = []
    steps = []

    span = abs(tau1)
    direction = 1.0 if tau1 >= 0.0 else -1.0
    y = np.array(y0, dtype=float)
    ynew = np.empty(4)
    ytmp = np.empty(4)
    k = np.empty((N_STAGES + 1, 4))
    status = STATUS_OK
    n = 0
    if span == 0.0:
        return status, n, np.array(T), np.array(Y), np.empty((0, 13, 4)), \
            np.array(steps)
    rhs(y, k[0])

    d0 = 0.0
    d1 = 0.0
    for i in range(4):
        sc = tol + tol * abs(y[i])
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
    h_abs = min(h_abs, span)

    h_acc = 0.0
    err_acc = 0.0
    tau = 0.0
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

        for s in range(1, N_STAGES):
            for i in range(4):
                acc = 0.0
                for j in range(s):
                    acc += A[s, j] * k[j, i]
                ytmp[i] = y[i] + h * acc
            rhs(ytmp, k[s])
        for i in range(4):
            acc = 0.0
            for j in range(N_STAGES):
                acc += B[j] * k[j, i]
            ynew[i] = y[i] + h * acc

        err5 = 0.0
        err3 = 0.0
        for i in range(4):
            e5 = 0.0
            e3 = 0.0
            for j in range(N_STAGES):
                e5 += E5[j] * k[j, i]
                e3 += E3[j] * k[j, i]
            sc = tol + tol * max(abs(y[i]), abs(ynew[i]))
            q5 = e5 / sc
            q3 = e3 / sc
            err5 += q5 * q5
            err3 += q3 * q3
        deno = err5 + 0.01 * err3
        errn = abs(h) * err5 / math.sqrt(4.0 * deno) if deno > 0.0 else 0.0

        if errn <= 1.0:
            rhs(ynew, k[N_STAGES])
            tau += h
            y[:] = ynew
            T.append(tau)
            Y.append(y.copy())
            K.append(k.copy())
            steps.append(h)
            n += 1
            k[0] = k[N_STAGES]
            fac = errn ** 0.125 / 0.9
            if err_acc > 0.0:
                fac = max(fac, h_acc / h_abs
                          * (errn * errn / err_acc) ** 0.125 / 0.9)
            h_acc = h_abs
            err_acc = max(errn, 1e-2)
            h_abs = h_abs / max(1.0 / 6.0, min(3.0, fac))
        else:
            h_abs = h_abs / min(3.0, errn ** 0.125 / 0.9)

    return (status, n, np.array(T), np.array(Y),
            np.array(K).reshape(-1, N_STAGES + 1, 4), np.array(steps))


def dense_reference(Y, K, steps, rhs):
    """Coefficients of Hairer's seventh-order dense output (contd8) of each
    step, from the extra stages 13 to 15 computed one step at a time."""
    F = np.empty((len(steps), 7, 4))
    for n, h in enumerate(steps):
        k = np.zeros((16, 4))
        k[:13] = K[n]
        for s in (13, 14, 15):
            k[s] = rhs(*(Y[n] + h * (coef.A[s, :s] @ k[:s])))
        dy = Y[n + 1] - Y[n]
        F[n, 0] = dy
        F[n, 1] = h * k[0] - dy
        F[n, 2] = 2.0 * dy - h * (k[12] + k[0])
        F[n, 3:] = h * (coef.D @ k)
    return F
