"""Hot numerical kernels: the regularized vector field, the DOP853 stepper,
the replay of its steps and its dense output.

The stepper is the explicit Runge-Kutta pair of order 8 with error
estimators of orders 5 and 3 (Dormand and Prince; E. Hairer, S. P. Norsett
and G. Wanner, Solving ODEs I, section II.10), with Hairer's step control
and Gustafsson's predictive term.
The stepping loops work on plain Python floats and 4-tuples; the accepted
samples grow in flat array('d') buffers, which become numpy arrays once,
at return; a run that cannot reach its end raises IntegrationError.  A run
also returns its accepted step sizes exactly as taken, so that a second
start state can be replayed on them later, only when it is needed.  The
stage sums are unrolled with the tableau entries as module floats, copied
from Hairer's code (as scipy ships it), summed left to right, and the
entries that are exactly zero are left out.  The seventh-order dense
output needs three more stages per step; dop853_dense computes them, for
every step of a run at once, only when the run is first queried between
its samples.

State layout everywhere: y = (xi, phi, xi', phi') with primes denoting
derivatives in the regularized time tau.
"""
from __future__ import annotations

import math
from array import array
from typing import NamedTuple

import numpy as np

from .errors import IntegrationError

STEP_CALLS = 12   # field calls of an accepted step: 11 stages and f(y_new)
DENSE_CALLS = 3   # field calls of the dense output of one step

# DOP853 tableau: A<s>_<j> weighs stage j in the argument of stage s, B<j>
# gives the eighth-order solution, E5_<j> and E3_<j> the fifth- and
# third-order error estimates.
A1_0 = 5.26001519587677318785587544488e-2
A2_0, A2_1 = (
    1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2)
A3_0, A3_2 = (
    2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2)
A4_0, A4_2, A4_3 = (
    2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1)
A5_0, A5_3, A5_4 = (
    3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1)
A6_0, A6_3, A6_4, A6_5 = (
    3.7109375e-2, 1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2, -1.7578125e-2)
A7_0, A7_3, A7_4, A7_5, A7_6 = (
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3)
A8_0, A8_3, A8_4, A8_5, A8_6, A8_7 = (
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1)
A9_0, A9_3, A9_4, A9_5, A9_6, A9_7, A9_8 = (
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2)
A10_0, A10_3, A10_4, A10_5, A10_6, A10_7, A10_8, A10_9 = (
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022)
A11_0, A11_3, A11_4, A11_5, A11_6, A11_7, A11_8, A11_9, A11_10 = (
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1)
B0, B5, B6, B7, B8, B9, B10, B11 = (
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2)
E5_0, E5_5, E5_6, E5_7, E5_8, E5_9, E5_10, E5_11 = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)
E3_0, E3_5, E3_6, E3_7, E3_8, E3_9, E3_10, E3_11 = (
    B0 - 0.244094488188976377952755905512, B5, B6, B7,
    B8 - 0.733846688281611857341361741547, B9, B10,
    B11 - 0.220588235294117647058823529412e-1)

# The dense output's extra stages 13 to 15 (rows of DENSE_A, over the
# stages 0, 5, 6, ..., 14) and its four higher coefficients (rows of
# DENSE_D, over the stages 0, 5, 6, ..., 15).
DENSE_A = np.array([
    [5.61675022830479523392909219681e-2, 0.0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
     -8.298e-3, 0.0, 0.0],
    [3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2,
     5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2,
     0.0, 0.0, -1.08347328697249322858509316994e-4,
     3.82571090835658412954920192323e-4, -3.40465008687404560802977114492e-4,
     1.41312443674632500278074618366e-1, 0.0],
    [-4.28896301583791923408573538692e-1, -4.69762141536116384314449447206,
     7.68342119606259904184240953878, 4.06898981839711007970213554331,
     3.56727187455281109270669543021e-1, 0.0, 0.0, 0.0,
     -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
     -9.15095847217987001081870187138],
])
DENSE_D = np.array([
    [-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3],
])


class StepStats(NamedTuple):
    """What one integration cost; h_min and h_max are 0 with no step taken."""
    accepted: int
    rejected: int
    rhs_evals: int
    h_min: float
    h_max: float


def field(energy, eps, cx, cy):
    """Hamilton's equations of the regularized system, d(state)/dtau.

    Returns rhs(xi, phi, xi', phi') -> 4-tuple for the given parameters and
    perturbing centre (cx, cy); the centre is ignored when eps == 0.
    """
    two_e = 2.0 * energy
    m2eps = -2.0 * eps
    sinh, cosh, sin, cos, sqrt = math.sinh, math.cosh, math.sin, math.cos, math.sqrt

    def rhs(xi, phi, pxi, pphi):
        sh = sinh(xi)
        ch = cosh(xi)
        sp = sin(phi)
        cp = cos(phi)
        dpxi = 2.0 * sh + two_e * ch * sh
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


def dop853_core(y0, tau1, tol, max_steps, energy, eps, cx, cy, r_min):
    """Adaptive DOP853 integration from tau = 0 to tau1.

    tol is both the relative and the absolute error target.  The error
    norm err is Hairer's combination of the fifth- and third-order
    estimates.  A step h is retried or followed by h / (err^(1/8) / 0.9),
    or, after an accepted step h' of norm err', by the smaller
    h / ((h'/h) (err^2/err')^(1/8) / 0.9) that extrapolates the trend of
    the error (K. Gustafsson, ACM TOMS 20, 1994, as in Hairer's RADAU5,
    with err' at least 0.01); the next step is at most 3 times smaller
    and 6 times larger.  Returns
    (T, Y, KS, stats, steps): with n = stats.accepted steps, T[:n+1] are
    the accepted times, Y[:n+1] the states, KS[:n] the stage derivatives
    0, 5, ..., 11 of each accepted step with f at its end (what
    dop853_dense reads) and steps the n signed step sizes exactly as
    taken, an array('d'); T[i+1] - T[i] may differ from steps[i] by
    rounding.  dop853_replay pushes another start state through those
    steps.  An accepted step costs STEP_CALLS field calls and a rejected
    one STEP_CALLS - 1, as f at its end is never needed.

    For eps > 0 the step size is capped proportionally to the distance from
    the perturbing centre.  IntegrationError, naming the tau of the last
    accepted step, is raised when the run would enter the ball of radius
    r_min around the centre, when the step size underflows and when
    max_steps step attempts have not reached tau1.
    """
    x0, x1, x2, x3 = (float(v) for v in y0)
    T = array("d", (0.0,))
    Y = array("d", (x0, x1, x2, x3))
    KS = array("d")
    steps = array("d")

    span = abs(tau1)
    if span == 0.0:
        return (*_as_numpy(T, Y, KS), StepStats(0, 0, 0, 0.0, 0.0), steps)

    rhs = field(energy, eps, cx, cy)
    direction = 1.0 if tau1 >= 0.0 else -1.0
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

    n = 0
    rejected = 0
    h_acc = 0.0
    err_acc = 0.0
    h_lo = math.inf
    h_hi = 0.0
    tau = 0.0
    nattempt = 0
    end_tol = 4.0 * 2.3e-16
    sqrt, cosh, cos, sinh, sin, hypot = (math.sqrt, math.cosh, math.cos,
                                         math.sinh, math.sin, math.hypot)
    t_append, y_fromlist, ks_fromlist = T.append, Y.fromlist, KS.fromlist
    h_append = steps.append
    while True:
        rem = abs(tau1 - tau)
        if rem <= end_tol * max(abs(tau), abs(tau1)):
            break
        if nattempt >= max_steps:
            raise IntegrationError(
                f"step budget {max_steps} exhausted at tau={tau:.6g}")
        nattempt += 1

        if eps != 0.0:
            ch = cosh(x0)
            cp = cos(x1)
            d = hypot(ch * cp - cx, sinh(x0) * sin(x1) - cy)
            if d < r_min:
                raise IntegrationError(
                    f"trajectory entered the exclusion ball of radius"
                    f" {r_min:.3g} around the perturbing centre at"
                    f" tau={tau:.6g}")
            rho = ch * ch - cp * cp
            speed = sqrt(rho * (x2 * x2 + x3 * x3))
            hcap = 0.5 * d / (speed + 1e-300)
            if h_abs > hcap:
                h_abs = hcap

        if h_abs < 1e-14 * max(1.0, abs(tau)):
            raise IntegrationError(f"step size underflow at tau={tau:.6g}"
                                   " (singularity approach?)")
        if h_abs > rem:
            h_abs = rem
        h = direction * h_abs

        n0, n1, n2, n3, k5, k6, k7, k8, k9, k10, k11 = _stages(
            rhs, x0, x1, x2, x3, k0, h)
        k0_0, k0_1, k0_2, k0_3 = k0
        k5_0, k5_1, k5_2, k5_3 = k5
        k6_0, k6_1, k6_2, k6_3 = k6
        k7_0, k7_1, k7_2, k7_3 = k7
        k8_0, k8_1, k8_2, k8_3 = k8
        k9_0, k9_1, k9_2, k9_3 = k9
        k10_0, k10_1, k10_2, k10_3 = k10
        k11_0, k11_1, k11_2, k11_3 = k11
        e5_0 = (E5_0 * k0_0 + E5_5 * k5_0 + E5_6 * k6_0 + E5_7 * k7_0
              + E5_8 * k8_0 + E5_9 * k9_0 + E5_10 * k10_0 + E5_11 * k11_0)
        e3_0 = (E3_0 * k0_0 + E3_5 * k5_0 + E3_6 * k6_0 + E3_7 * k7_0
              + E3_8 * k8_0 + E3_9 * k9_0 + E3_10 * k10_0 + E3_11 * k11_0)
        e5_1 = (E5_0 * k0_1 + E5_5 * k5_1 + E5_6 * k6_1 + E5_7 * k7_1
              + E5_8 * k8_1 + E5_9 * k9_1 + E5_10 * k10_1 + E5_11 * k11_1)
        e3_1 = (E3_0 * k0_1 + E3_5 * k5_1 + E3_6 * k6_1 + E3_7 * k7_1
              + E3_8 * k8_1 + E3_9 * k9_1 + E3_10 * k10_1 + E3_11 * k11_1)
        e5_2 = (E5_0 * k0_2 + E5_5 * k5_2 + E5_6 * k6_2 + E5_7 * k7_2
              + E5_8 * k8_2 + E5_9 * k9_2 + E5_10 * k10_2 + E5_11 * k11_2)
        e3_2 = (E3_0 * k0_2 + E3_5 * k5_2 + E3_6 * k6_2 + E3_7 * k7_2
              + E3_8 * k8_2 + E3_9 * k9_2 + E3_10 * k10_2 + E3_11 * k11_2)
        e5_3 = (E5_0 * k0_3 + E5_5 * k5_3 + E5_6 * k6_3 + E5_7 * k7_3
              + E5_8 * k8_3 + E5_9 * k9_3 + E5_10 * k10_3 + E5_11 * k11_3)
        e3_3 = (E3_0 * k0_3 + E3_5 * k5_3 + E3_6 * k6_3 + E3_7 * k7_3
              + E3_8 * k8_3 + E3_9 * k9_3 + E3_10 * k10_3 + E3_11 * k11_3)
        sc0 = tol + tol * max(abs(x0), abs(n0))
        sc1 = tol + tol * max(abs(x1), abs(n1))
        sc2 = tol + tol * max(abs(x2), abs(n2))
        sc3 = tol + tol * max(abs(x3), abs(n3))
        e5_0, e5_1, e5_2, e5_3 = e5_0 / sc0, e5_1 / sc1, e5_2 / sc2, e5_3 / sc3
        e3_0, e3_1, e3_2, e3_3 = e3_0 / sc0, e3_1 / sc1, e3_2 / sc2, e3_3 / sc3
        err5 = e5_0 * e5_0 + e5_1 * e5_1 + e5_2 * e5_2 + e5_3 * e5_3
        err3 = e3_0 * e3_0 + e3_1 * e3_1 + e3_2 * e3_2 + e3_3 * e3_3
        deno = err5 + 0.01 * err3
        errn = h_abs * err5 / sqrt(4.0 * deno) if deno > 0.0 else 0.0

        if errn <= 1.0:
            k12 = rhs(n0, n1, n2, n3)
            tau += h
            x0, x1, x2, x3 = n0, n1, n2, n3
            t_append(tau)
            h_append(h)
            y_fromlist([n0, n1, n2, n3])
            ks_fromlist([*k0, *k5, *k6, *k7, *k8, *k9, *k10, *k11, *k12])
            n += 1
            if h_abs < h_lo:
                h_lo = h_abs
            if h_abs > h_hi:
                h_hi = h_abs
            k0 = k12
            # Gustafsson's predictive control: an error that grew since the
            # last accepted step shrinks the next one further
            fac = errn ** 0.125 / 0.9
            if err_acc > 0.0:
                fac = max(fac, h_acc / h_abs
                          * (errn * errn / err_acc) ** 0.125 / 0.9)
            h_acc = h_abs
            err_acc = max(errn, 1e-2)
            h_abs = h_abs / max(1.0 / 6.0, min(3.0, fac))
        else:
            rejected += 1
            h_abs = h_abs / min(3.0, errn ** 0.125 / 0.9)

    stats = StepStats(n, rejected,
                      1 + STEP_CALLS * n + (STEP_CALLS - 1) * rejected,
                      h_lo if n else 0.0, h_hi)
    return (*_as_numpy(T, Y, KS), stats, steps)


def dop853_replay(y0, steps, energy, eps, cx, cy):
    """State reached from y0 through the given DOP853 steps, and the field
    calls that took.

    Takes the steps of a dop853_core run with the same parameters, and
    advances y0 by the same formula (_stages) with no error control, so a
    replay of the run's own start state ends on its last state, bitwise.
    Differencing the ends of two start states then differentiates one
    discrete map (internal numerical differentiation).  Returns
    ((xi, phi, xi', phi'), calls) with calls = 1 + STEP_CALLS*len(steps).
    """
    x0, x1, x2, x3 = (float(v) for v in y0)
    rhs = field(energy, eps, cx, cy)
    k0 = rhs(x0, x1, x2, x3)
    for h in steps:
        x0, x1, x2, x3 = _stages(rhs, x0, x1, x2, x3, k0, h)[:4]
        k0 = rhs(x0, x1, x2, x3)
    return (x0, x1, x2, x3), 1 + STEP_CALLS * len(steps)


def dop853_dense(Y, KS, steps, energy, eps, cx, cy):
    """Seventh-order dense output of the steps of a dop853_core run.

    Computes the three extra stages of every step (DENSE_CALLS field calls
    each) and returns (F, calls): F[i] holds the 7 coefficients of step i,
    in which y(tau_i + th*h_i) = Y[i] + th*(F0 + (1-th)*(F1 + th*(F2 +
    (1-th)*(F3 + th*(F4 + (1-th)*(F5 + th*F6)))))) (Hairer's contd8).
    """
    n = len(KS)
    if n == 0:
        return np.empty((0, 7, 4)), 0
    rhs = field(energy, eps, cx, cy)
    h = np.asarray(steps)[:, None]
    K = np.empty((n, 12, 4))
    K[:, :9] = KS
    for s, row in enumerate(DENSE_A, start=9):
        args = Y[:-1] + h * np.einsum("k,skc->sc", row[:s], K[:, :s])
        K[:, s] = [rhs(*y) for y in args.tolist()]
    dy = Y[1:] - Y[:-1]
    F = np.empty((n, 7, 4))
    F[:, 0] = dy
    F[:, 1] = h * K[:, 0] - dy
    F[:, 2] = 2.0 * dy - h * (K[:, 8] + K[:, 0])
    F[:, 3:] = h[:, :, None] * np.einsum("dk,skc->sdc", DENSE_D, K)
    return F, DENSE_CALLS * n


def _stages(rhs, x0, x1, x2, x3, k0, h):
    """One DOP853 step of size h from x with k0 = rhs(x).

    Returns the eighth-order state n0..n3 and the stage derivatives
    k5..k11, the ones that the error estimates and the dense output read.
    """
    k0_0, k0_1, k0_2, k0_3 = k0
    k1_0, k1_1, k1_2, k1_3 = rhs(
        x0 + h * (A1_0 * k0_0),
        x1 + h * (A1_0 * k0_1),
        x2 + h * (A1_0 * k0_2),
        x3 + h * (A1_0 * k0_3))
    k2_0, k2_1, k2_2, k2_3 = rhs(
        x0 + h * (A2_0 * k0_0 + A2_1 * k1_0),
        x1 + h * (A2_0 * k0_1 + A2_1 * k1_1),
        x2 + h * (A2_0 * k0_2 + A2_1 * k1_2),
        x3 + h * (A2_0 * k0_3 + A2_1 * k1_3))
    k3_0, k3_1, k3_2, k3_3 = rhs(
        x0 + h * (A3_0 * k0_0 + A3_2 * k2_0),
        x1 + h * (A3_0 * k0_1 + A3_2 * k2_1),
        x2 + h * (A3_0 * k0_2 + A3_2 * k2_2),
        x3 + h * (A3_0 * k0_3 + A3_2 * k2_3))
    k4_0, k4_1, k4_2, k4_3 = rhs(
        x0 + h * (A4_0 * k0_0 + A4_2 * k2_0 + A4_3 * k3_0),
        x1 + h * (A4_0 * k0_1 + A4_2 * k2_1 + A4_3 * k3_1),
        x2 + h * (A4_0 * k0_2 + A4_2 * k2_2 + A4_3 * k3_2),
        x3 + h * (A4_0 * k0_3 + A4_2 * k2_3 + A4_3 * k3_3))
    k5 = k5_0, k5_1, k5_2, k5_3 = rhs(
        x0 + h * (A5_0 * k0_0 + A5_3 * k3_0 + A5_4 * k4_0),
        x1 + h * (A5_0 * k0_1 + A5_3 * k3_1 + A5_4 * k4_1),
        x2 + h * (A5_0 * k0_2 + A5_3 * k3_2 + A5_4 * k4_2),
        x3 + h * (A5_0 * k0_3 + A5_3 * k3_3 + A5_4 * k4_3))
    k6 = k6_0, k6_1, k6_2, k6_3 = rhs(
        x0 + h * (A6_0 * k0_0 + A6_3 * k3_0 + A6_4 * k4_0 + A6_5 * k5_0),
        x1 + h * (A6_0 * k0_1 + A6_3 * k3_1 + A6_4 * k4_1 + A6_5 * k5_1),
        x2 + h * (A6_0 * k0_2 + A6_3 * k3_2 + A6_4 * k4_2 + A6_5 * k5_2),
        x3 + h * (A6_0 * k0_3 + A6_3 * k3_3 + A6_4 * k4_3 + A6_5 * k5_3))
    k7 = k7_0, k7_1, k7_2, k7_3 = rhs(
        x0 + h * (A7_0 * k0_0 + A7_3 * k3_0 + A7_4 * k4_0 + A7_5 * k5_0
                  + A7_6 * k6_0),
        x1 + h * (A7_0 * k0_1 + A7_3 * k3_1 + A7_4 * k4_1 + A7_5 * k5_1
                  + A7_6 * k6_1),
        x2 + h * (A7_0 * k0_2 + A7_3 * k3_2 + A7_4 * k4_2 + A7_5 * k5_2
                  + A7_6 * k6_2),
        x3 + h * (A7_0 * k0_3 + A7_3 * k3_3 + A7_4 * k4_3 + A7_5 * k5_3
                  + A7_6 * k6_3))
    k8 = k8_0, k8_1, k8_2, k8_3 = rhs(
        x0 + h * (A8_0 * k0_0 + A8_3 * k3_0 + A8_4 * k4_0 + A8_5 * k5_0
                  + A8_6 * k6_0 + A8_7 * k7_0),
        x1 + h * (A8_0 * k0_1 + A8_3 * k3_1 + A8_4 * k4_1 + A8_5 * k5_1
                  + A8_6 * k6_1 + A8_7 * k7_1),
        x2 + h * (A8_0 * k0_2 + A8_3 * k3_2 + A8_4 * k4_2 + A8_5 * k5_2
                  + A8_6 * k6_2 + A8_7 * k7_2),
        x3 + h * (A8_0 * k0_3 + A8_3 * k3_3 + A8_4 * k4_3 + A8_5 * k5_3
                  + A8_6 * k6_3 + A8_7 * k7_3))
    k9 = k9_0, k9_1, k9_2, k9_3 = rhs(
        x0 + h * (A9_0 * k0_0 + A9_3 * k3_0 + A9_4 * k4_0 + A9_5 * k5_0
                  + A9_6 * k6_0 + A9_7 * k7_0 + A9_8 * k8_0),
        x1 + h * (A9_0 * k0_1 + A9_3 * k3_1 + A9_4 * k4_1 + A9_5 * k5_1
                  + A9_6 * k6_1 + A9_7 * k7_1 + A9_8 * k8_1),
        x2 + h * (A9_0 * k0_2 + A9_3 * k3_2 + A9_4 * k4_2 + A9_5 * k5_2
                  + A9_6 * k6_2 + A9_7 * k7_2 + A9_8 * k8_2),
        x3 + h * (A9_0 * k0_3 + A9_3 * k3_3 + A9_4 * k4_3 + A9_5 * k5_3
                  + A9_6 * k6_3 + A9_7 * k7_3 + A9_8 * k8_3))
    k10 = k10_0, k10_1, k10_2, k10_3 = rhs(
        x0 + h * (A10_0 * k0_0 + A10_3 * k3_0 + A10_4 * k4_0 + A10_5 * k5_0
                  + A10_6 * k6_0 + A10_7 * k7_0 + A10_8 * k8_0 + A10_9 * k9_0),
        x1 + h * (A10_0 * k0_1 + A10_3 * k3_1 + A10_4 * k4_1 + A10_5 * k5_1
                  + A10_6 * k6_1 + A10_7 * k7_1 + A10_8 * k8_1 + A10_9 * k9_1),
        x2 + h * (A10_0 * k0_2 + A10_3 * k3_2 + A10_4 * k4_2 + A10_5 * k5_2
                  + A10_6 * k6_2 + A10_7 * k7_2 + A10_8 * k8_2 + A10_9 * k9_2),
        x3 + h * (A10_0 * k0_3 + A10_3 * k3_3 + A10_4 * k4_3 + A10_5 * k5_3
                  + A10_6 * k6_3 + A10_7 * k7_3 + A10_8 * k8_3 + A10_9 * k9_3))
    k11 = k11_0, k11_1, k11_2, k11_3 = rhs(
        x0 + h * (A11_0 * k0_0 + A11_3 * k3_0 + A11_4 * k4_0 + A11_5 * k5_0
                  + A11_6 * k6_0 + A11_7 * k7_0 + A11_8 * k8_0 + A11_9 * k9_0
                  + A11_10 * k10_0),
        x1 + h * (A11_0 * k0_1 + A11_3 * k3_1 + A11_4 * k4_1 + A11_5 * k5_1
                  + A11_6 * k6_1 + A11_7 * k7_1 + A11_8 * k8_1 + A11_9 * k9_1
                  + A11_10 * k10_1),
        x2 + h * (A11_0 * k0_2 + A11_3 * k3_2 + A11_4 * k4_2 + A11_5 * k5_2
                  + A11_6 * k6_2 + A11_7 * k7_2 + A11_8 * k8_2 + A11_9 * k9_2
                  + A11_10 * k10_2),
        x3 + h * (A11_0 * k0_3 + A11_3 * k3_3 + A11_4 * k4_3 + A11_5 * k5_3
                  + A11_6 * k6_3 + A11_7 * k7_3 + A11_8 * k8_3 + A11_9 * k9_3
                  + A11_10 * k10_3))
    n0 = x0 + h * (B0 * k0_0 + B5 * k5_0 + B6 * k6_0 + B7 * k7_0 + B8 * k8_0
                   + B9 * k9_0 + B10 * k10_0 + B11 * k11_0)
    n1 = x1 + h * (B0 * k0_1 + B5 * k5_1 + B6 * k6_1 + B7 * k7_1 + B8 * k8_1
                   + B9 * k9_1 + B10 * k10_1 + B11 * k11_1)
    n2 = x2 + h * (B0 * k0_2 + B5 * k5_2 + B6 * k6_2 + B7 * k7_2 + B8 * k8_2
                   + B9 * k9_2 + B10 * k10_2 + B11 * k11_2)
    n3 = x3 + h * (B0 * k0_3 + B5 * k5_3 + B6 * k6_3 + B7 * k7_3 + B8 * k8_3
                   + B9 * k9_3 + B10 * k10_3 + B11 * k11_3)
    return n0, n1, n2, n3, k5, k6, k7, k8, k9, k10, k11


def _as_numpy(T, Y, KS):
    """The sample buffers as (n+1,), (n+1, 4) and (n, 9, 4) float arrays."""
    return (np.frombuffer(T), np.frombuffer(Y).reshape(-1, 4),
            np.frombuffer(KS).reshape(-1, 9, 4))
