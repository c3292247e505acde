"""The figure and arc files as the per-point code wrote them: the bitwise
oracle of `figdata`'s shared-motion sampling and of the CLI's column
formatting.

`figdata` once evaluated every track's whole state, speeds included, point
by point, mapped each point through `elliptic_to_xy`, and the CLI built
each CSV row by row from those states.  `figdata` now samples each
distinct xi or phi motion once per figure, positions only, and the CLI
formats a column that tracks share once; the tests check that every file
is byte for byte the one this module builds.  The state here is the
closed form written in one piece, as it was before `SeparatedPath._state`
was split into its two separated motions.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

from tricentre.arcs import SeparatedPath, _self_crossings, am, arc_family
from tricentre.cli import _mirror_sorted, _param_hash
from tricentre.geometry import (EllipticPoint, _linspace,
                                elliptic_to_cartesian, elliptic_to_xy,
                                physical_time_of)
from tricentre.params import Params
from tricentre.periods import (_RESONANCE_TOL, solve_resonant_a1,
                               turning_point_xi)

TRACK_HEADER = ["tau", "xi", "phi", "x", "y"]
ARC_HEADER = ["tau", "xi", "phi", "xi_prime", "phi_prime", "t_physical",
              "x", "y"]


def state(path: SeparatedPath, t, lib) -> tuple:
    """(xi, phi, xi', phi') of path at t over lib (math for a float t,
    numpy for an array), both motions in one expression."""
    phi = am(path._f0 + path._rate * t, path._phi_landen, lib)
    theta = am(path._lam * t + path._v0, path._xi_landen, lib)
    sn, cn, sp = lib.sin(theta), lib.cos(theta), lib.sin(phi)
    half = path._root_u * cn  # tanh(xi/2)
    return (2.0 * lib.atanh(half), phi,
            -2.0 * path._root_u * path._lam * sn
            * lib.sqrt(1.0 - path._m * sn * sn) / (1.0 - half * half),
            path._rate * lib.sqrt(1.0 - path._k2 * (sp * sp)))


def csv_text(header, columns) -> str:
    """Every value formatted "%.17g", row by row; CRLF line ends."""
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    return ",".join(header) + "\r\n" + "".join([row % r for r in zip(*columns)])


def json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"


def _orbit_track(prm: Params, start: EllipticPoint, sign: int, t_span: float,
                 name: str, n_samples: int, crossings: bool):
    """(name, taus, states, x, y, crossings) of one orbit, each point's
    state evaluated on its own."""
    path = SeparatedPath(prm, start, sign, 1, t_span)
    taus = _linspace(0.0, t_span, n_samples)
    states = [state(path, t, math) for t in taus]
    x, y = zip(*(elliptic_to_xy(s[0], s[1], math) for s in states))
    points = None
    if crossings:
        at = [state(path, t, math) for t, _ in _self_crossings(path, prm.q)]
        points = [elliptic_to_xy(s[0], s[1], math) for s in at]
    return name, taus, states, x, y, points


def figure_tracks(which: int, beta: float) -> list:
    """The tracks of figure 3 (the q = 1 family portrait) or of figures
    4-6 (the bundle through (2/3 xi_plus, 0) for q = 1, 2, 2)."""
    q = Fraction(1) if which in (3, 4) else Fraction(2)
    sol = solve_resonant_a1(beta, q)
    t_span = sol.full_period
    if which == 3:
        prm = Params(beta=beta, a1=sol.a1_hat, q=q)
        tracks = [_orbit_track(prm, EllipticPoint(0.0, (k + 0.5) * math.pi
                                                  / 18), 1, t_span,
                               f"orbit_{k:02d}", 2000, False)
                  for k in range(18)]
        return tracks + [_orbit_track(prm, EllipticPoint(0.0, 0.0), sign,
                                      t_span, label, 2000, False)
                         for label, sign in (("colliding_0", 1),
                                             ("colliding_1", -1))]
    centre = EllipticPoint(
        2.0 / 3.0 * turning_point_xi(beta, sol.a1_hat), 0.0)
    prm = Params(beta=beta, a1=sol.a1_hat, q=q,
                 centre=elliptic_to_cartesian(centre))
    return [_orbit_track(prm, centre, sign, t_span, label, 4000, True)
            for label, sign in (("orbit_pos", 1), ("orbit_neg", -1))]


def _track_columns(track, window):
    _, taus, states, xs, ys, _ = track
    rows = [(tau, s[0], s[1], x, y) for tau, s, x, y
            in zip(taus, states, xs, ys)
            if window is None or (window[0] <= x <= window[1]
                                  and window[2] <= y <= window[3])]
    return list(zip(*rows))


def figure_files(which: int, beta: float) -> dict[str, str]:
    """{file name: text} of every file `figs which --beta beta` writes."""
    q = Fraction(1) if which in (3, 4) else Fraction(2)
    payload = {"cmd": f"figs{which}", "beta": beta}
    if which > 3:
        payload["q"] = str(q)
    key = _param_hash(payload)
    tracks = figure_tracks(which, beta)
    crossings = [p for tr in tracks for p in tr[5] or ()]
    doc = {"command": f"figs {which}", "beta": beta, "q": str(q)}
    window = None
    if which == 6:
        cx, cy = zip(*crossings)
        window = doc["window"] = [min(cx) - 0.35, max(cx) + 0.35,
                                  min(cy) - 0.35, max(cy) + 0.35]
    files = {}
    for tr in tracks:
        name = f"fig{which}_{key}_{tr[0]}.csv"
        files[name] = csv_text(TRACK_HEADER, _track_columns(tr, window))
    doc["orbits"] = list(files)
    if which > 3:
        doc["self_intersections"] = [list(p) for p in _mirror_sorted(crossings)]
    files[f"fig{which}_{key}.json"] = json_text(doc)
    return files


def arcs_files(prm: Params, sol, delta: float = 1e-4) -> dict[str, str]:
    """{file name: text} of every file `arcs` writes for prm, whose class
    and beta are sol's: each arc's 1,000-row CSV, evaluated per point, and
    the manifest, whose arrival velocities come from `state`."""
    key = _param_hash({"cmd": "arcs", "beta": prm.beta, "q": str(prm.q),
                       "centre": str(prm.centre), "tol": _RESONANCE_TOL})
    files, records = {}, []
    for arc in arc_family(prm, delta=delta):
        name = (f"arc_{key}_s{'p' if arc.label.sign > 0 else 'm'}"
                f"d{'p' if arc.label.direction > 0 else 'm'}.csv")
        taus = _linspace(0.0, arc.duration, 1000)
        xi, phi, dxi, dphi = zip(*(state(arc.path, t, math) for t in taus))
        x, y = zip(*(elliptic_to_xy(a, b, math) for a, b in zip(xi, phi)))
        files[name] = csv_text(ARC_HEADER, [taus, xi, phi, dxi, dphi,
                                            physical_time_of(taus, xi, phi),
                                            x, y])
        records.append({
            "label": str(arc.label),
            "params": {"beta": prm.beta, "a1": prm.a1, "q": str(prm.q),
                       "eps": prm.eps, "centre": [prm.centre.x, prm.centre.y]},
            "sign": arc.label.sign, "direction": arc.label.direction,
            "duration": arc.duration, "energy": arc.energy,
            "early_collision": arc.early_collision,
            "min_primary_distance": arc.min_primary_distance,
            "closure_error": arc.closure_error, "v0": list(arc.v0),
            "vT": list(state(arc.path, arc.duration, math)[2:]),
            "path_csv": name})
    files[f"arcs_{key}.json"] = json_text(
        {"command": "arcs", "beta": prm.beta, "q": str(prm.q),
         "a1_hat": sol.a1_hat, "energy": sol.energy, "t1": sol.t1,
         "t2": sol.t2, "arcs": records})
    return files
