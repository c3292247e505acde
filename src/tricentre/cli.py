"""Command-line surface: periods, solve, arcs, check, chains, shadow, figs,
integrate.

Outputs are deterministic: file names carry a hash of the effective
parameters, floats are printed with fixed precision and files are written
atomically (write-then-rename).  Exit codes: 0 success, 2 domain error,
3 unsafe centre, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from ._output import write_csv, write_json
from .errors import (AccuracyError, DomainError, IntegrationError,
                     StructuralError, TricentreError, UnsafeCentreError)
from .exclusion import (find_admissible_beta, primary_collision_check,
                        primary_collision_ratios, resonant_params)
from .geometry import CartesianPoint, EllipticPoint, elliptic_to_cartesian
from .params import Params
from .periods import (modulus_squares, period_phi, period_xi,
                      solve_beta_for_energy, solve_resonant_a1,
                      turning_point_xi)

# periods, solve and check run on the math-only modules above; the other
# commands import numpy and the integrating layers inside their bodies.

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_UNSAFE = 3
EXIT_NUMERICAL = 4


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _param_hash(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def _load_config(path: str) -> dict:
    """Flat key = value config document; '#' starts a comment."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line without '=': {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


# Defaults applied after the config file, so that it can set these too.
_DEFAULTS = {"a": "1", "tol": "1e-12", "delta": "1e-4"}


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset options from --config, then from _DEFAULTS; flags win."""
    if getattr(args, "config", None):
        for key, val in _load_config(args.config).items():
            attr = key.replace("-", "_")
            if getattr(args, attr, None) is None:
                setattr(args, attr, val)
    for attr, val in _DEFAULTS.items():
        if hasattr(args, attr) and getattr(args, attr) is None:
            setattr(args, attr, val)


def _frac(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational {text!r}: {exc}") from exc


def _float(text, name: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"cannot parse {name}={text!r}") from exc


def _pair(text, name: str) -> tuple[float, float]:
    parts = str(text).split(",")
    if len(parts) != 2:
        raise DomainError(f"{name} must be two comma-separated numbers, got {text!r}")
    return _float(parts[0], name), _float(parts[1], name)


def _resolve_centre(args):
    if getattr(args, "centre_elliptic", None) is not None:
        xi, phi = _pair(args.centre_elliptic, "--centre-elliptic")
        return EllipticPoint(xi, phi)
    if getattr(args, "centre_xy", None) is not None:
        x, y = _pair(args.centre_xy, "--centre-xy")
        return CartesianPoint(x, y)
    raise DomainError("a centre is required: pass --centre-xy or --centre-elliptic")


def _resolve_beta(args, q: Fraction, a: float, tol: float) -> float:
    has_beta = getattr(args, "beta", None) is not None
    has_energy = getattr(args, "energy", None) is not None
    if has_beta == has_energy:
        raise DomainError("exactly one of --beta / --energy is required")
    if has_beta:
        return _float(args.beta, "--beta")
    energy = _float(args.energy, "--energy")
    return solve_beta_for_energy(q, energy, a, tol).beta


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", None) or "tricentre_out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(args, doc: dict, lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(doc, indent=2, sort_keys=True, default=str))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# commands

def cmd_periods(args) -> int:
    a = _float(args.a, "--a")
    beta = _float(args.beta, "--beta") if args.beta is not None else None
    if beta is None:
        raise DomainError("--beta is required for the periods command")
    tol = _float(args.tol, "--tol")
    doc: dict = {"command": "periods", "a": a, "beta": beta}
    if args.q is not None:
        sol = solve_resonant_a1(beta, _frac(args.q), a, tol)
        a1 = sol.a1_hat
        doc.update(q=str(sol.q), a1_hat=a1, residual=sol.residual,
                   clamped=sol.clamped, energy=sol.energy)
    elif args.a1 is not None:
        a1 = _float(args.a1, "--a1")
    else:
        raise DomainError("pass either --a1 or --q")
    t1 = period_xi(beta, a1, a)
    t2 = period_phi(beta, a1, a)
    k1sq, k2sq = modulus_squares(beta, a1)
    xi_plus = turning_point_xi(beta, a1) if beta > 0.0 else None
    doc.update(a1=a1, t1=t1, t2=t2, kappa1_sq=k1sq, kappa2_sq=k2sq,
               xi_plus=xi_plus)
    lines = [f"a1 = {_fmt(a1)}"]
    if "a1_hat" in doc:
        lines.append(f"residual = {_fmt(doc['residual'])}")
        lines.append(f"energy = {_fmt(doc['energy'])}")
    lines += [
        f"T1 = {_fmt(t1)}",
        f"T2 = {_fmt(t2)}",
        f"kappa1_sq = {_fmt(k1sq)}",
        f"kappa2_sq = {_fmt(k2sq)}",
        "xi_plus = " + (_fmt(xi_plus) if xi_plus is not None
                        else "unbounded (beta = 0)"),
    ]
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_solve(args) -> int:
    a = _float(args.a, "--a")
    tol = _float(args.tol, "--tol")
    if args.q is None:
        raise DomainError("--q is required for the solve command")
    q = _frac(args.q)
    if args.energy is not None:
        sol = solve_beta_for_energy(q, _float(args.energy, "--energy"), a, tol)
    elif args.beta is not None:
        sol = solve_resonant_a1(_float(args.beta, "--beta"), q, a, tol)
    else:
        raise DomainError("pass either --beta or --energy")
    doc = {"command": "solve", "a": a, "q": str(q), "beta": sol.beta,
           "a1_hat": sol.a1_hat, "t1": sol.t1, "t2": sol.t2,
           "energy": sol.energy, "residual": sol.residual,
           "clamped": sol.clamped}
    lines = [f"beta = {_fmt(sol.beta)}",
             f"a1_hat = {_fmt(sol.a1_hat)}",
             f"T1 = {_fmt(sol.t1)}", f"T2 = {_fmt(sol.t2)}",
             f"energy = {_fmt(sol.energy)}",
             f"residual = {_fmt(sol.residual)}"]
    has_centre = (getattr(args, "centre_xy", None) is not None
                  or getattr(args, "centre_elliptic", None) is not None)
    if has_centre:
        centre = _resolve_centre(args)
        beta_adm = find_admissible_beta(centre, q, a, beta_start=sol.beta,
                                        delta=_float(args.delta, "--delta"))
        doc["admissible_beta"] = beta_adm
        lines.append(f"admissible_beta = {_fmt(beta_adm)}")
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_check(args) -> int:
    a = _float(args.a, "--a")
    tol = _float(args.tol, "--tol")
    q = _frac(args.q) if args.q is not None else Fraction(1)
    beta = _resolve_beta(args, q, a, tol)
    centre = _resolve_centre(args)
    prm, _ = resonant_params(centre, q, beta, a, tol)
    report = primary_collision_check(prm, delta=_float(args.delta, "--delta"))
    s_set = sorted(primary_collision_ratios(q))
    doc = {"command": "check", "q": str(q), "beta": beta,
           "g_plus": report.g_plus, "g_minus": report.g_minus,
           "safe": report.safe, "min_separation": report.min_separation,
           "nearest": str(report.nearest), "delta": report.delta,
           "ratio_set": [str(s) for s in s_set]}
    lines = [f"G+ = {_fmt(report.g_plus)}",
             f"G- = {_fmt(report.g_minus)}",
             "S = {" + ", ".join(str(s) for s in s_set) + "}",
             f"min separation = {_fmt(report.min_separation)}"
             f" (nearest {report.nearest})",
             f"verdict: {'SAFE' if report.safe else 'UNSAFE'}"]
    _emit(args, doc, lines)
    return EXIT_OK if report.safe else EXIT_UNSAFE


def cmd_arcs(args) -> int:
    from .arcs import arc_family
    from .dynamics import trajectory_to_csv
    a = _float(args.a, "--a")
    tol = _float(args.tol, "--tol")
    q = _frac(args.q) if args.q is not None else Fraction(1)
    beta = _resolve_beta(args, q, a, tol)
    centre = _resolve_centre(args)
    prm, sol = resonant_params(centre, q, beta, a, tol)
    family = arc_family(prm, tol=tol, delta=_float(args.delta, "--delta"))
    out = _out_dir(args)
    key = _param_hash({"cmd": "arcs", "a": a, "beta": beta, "q": str(q),
                       "centre": str(prm.centre), "tol": tol})
    records = []
    for arc in family:
        stem = (f"arc_{key}_s{'p' if arc.label.sign > 0 else 'm'}"
                f"d{'p' if arc.label.direction > 0 else 'm'}")
        csv_path = out / f"{stem}.csv"
        trajectory_to_csv(arc.path, csv_path)
        records.append({
            "label": str(arc.label),
            "params": {
                "a": arc.params.a, "beta": arc.params.beta,
                "a1": arc.params.a1, "q": str(arc.params.q),
                "eps": arc.params.eps,
                "centre": [arc.params.centre.x, arc.params.centre.y],
            },
            "sign": arc.label.sign,
            "direction": arc.label.direction,
            "duration": arc.duration,
            "energy": arc.energy,
            "early_collision": arc.early_collision,
            "min_primary_distance": arc.min_primary_distance,
            "closure_error": arc.closure_error,
            "v0": list(arc.v0),
            "vT": list(arc.vT),
            "path_csv": csv_path.name,
        })
    manifest = out / f"arcs_{key}.json"
    doc = {"command": "arcs", "a": a, "beta": beta, "q": str(q),
           "a1_hat": sol.a1_hat, "energy": sol.energy,
           "t1": sol.t1, "t2": sol.t2, "arcs": records}
    write_json(manifest, doc)
    _emit(args, {**doc, "manifest": str(manifest)},
          [f"wrote {manifest}"] +
          [f"  {r['label']}: duration={_fmt(r['duration'])}"
           f" early={r['early_collision']} closure={r['closure_error']:.3e}"
           for r in records])
    return EXIT_OK


def cmd_chains(args) -> int:
    from .chains import (assemble_chain, build_alphabet, build_graph,
                         count_periodic_chains, entropy_estimate)
    a = _float(args.a, "--a")
    tol = _float(args.tol, "--tol")
    if args.classes is None:
        raise DomainError("--classes is required (comma-separated rationals)")
    classes = [_frac(c) for c in str(args.classes).split(",") if c.strip()]
    if not classes:
        raise DomainError("empty class list")
    centre = _resolve_centre(args)
    if args.energy is not None:
        energy = _float(args.energy, "--energy")
    elif args.beta is not None:
        sol = solve_resonant_a1(_float(args.beta, "--beta"), classes[0], a, tol)
        energy = sol.energy
    else:
        raise DomainError("pass either --beta or --energy")
    arcs = build_alphabet(centre, classes, energy, a, tol,
                          delta=_float(args.delta, "--delta"))
    graph = build_graph(arcs)
    n_max = 12
    counts = {n: count_periodic_chains(graph, n) for n in range(1, n_max + 1)}
    entropy = entropy_estimate(graph)
    sample = assemble_chain(graph, classes, 2 * max(2, len(classes)))
    out = _out_dir(args)
    key = _param_hash({"cmd": "chains", "a": a, "energy": energy,
                       "classes": [str(c) for c in classes],
                       "centre": str(centre)})
    doc = {"command": "chains", "a": a, "energy": energy,
           "classes": [str(c) for c in classes],
           "graph": graph.to_json_dict(),
           "periodic_counts": {str(n): c for n, c in counts.items()},
           "entropy": entropy,
           "sample_chain": [str(lb) for lb in sample.labels]}
    path = out / f"chains_{key}.json"
    write_json(path, doc)
    lines = [f"alphabet: {len(arcs)} arcs at energy {_fmt(energy)}",
             "P_n (n = 1..12): " + " ".join(str(counts[n])
                                            for n in range(1, n_max + 1)),
             f"entropy = {_fmt(entropy)}",
             f"wrote {path}"]
    _emit(args, {**doc, "output": str(path)}, lines)
    return EXIT_OK


def cmd_shadow(args) -> int:
    from .arcs import arc_family
    from .shadow import local_expansion_rate, shoot_segment
    a = _float(args.a, "--a")
    tol = _float(args.tol, "--tol")
    q = _frac(args.q) if args.q is not None else Fraction(1)
    beta = _resolve_beta(args, q, a, tol)
    centre = _resolve_centre(args)
    if args.eps is None:
        raise DomainError("--eps is required (comma-separated values)")
    eps_list = [_float(e, "--eps") for e in str(args.eps).split(",") if e.strip()]
    prm, _ = resonant_params(centre, q, beta, a, tol)
    arc = arc_family(prm, tol=min(tol, 1e-12),
                     delta=_float(args.delta, "--delta"))[0]
    rows = []
    for eps in eps_list:
        res = shoot_segment(arc, eps)
        row = {"eps": eps, "max_deviation": res.max_deviation,
               "min_c_distance": res.min_c_distance,
               "time_defect": res.time_defect,
               "converged": res.converged,
               "entry_radius": res.entry_radius,
               "residual": res.residual}
        if res.converged and eps > 0.0:
            row["expansion_rate"] = local_expansion_rate([res, res], eps)
        rows.append(row)
    out = _out_dir(args)
    key = _param_hash({"cmd": "shadow", "a": a, "beta": beta, "q": str(q),
                       "centre": str(prm.centre), "eps": eps_list})
    doc = {"command": "shadow", "a": a, "beta": beta, "q": str(q),
           "arc_label": str(arc.label), "arc_duration": arc.duration,
           "rows": rows}
    path = out / f"shadow_{key}.json"
    write_json(path, doc)
    lines = [(f"eps={row['eps']:g}: deviation={row['max_deviation']:.6g}"
              f" min_c={row['min_c_distance']:.6g}"
              f" defect={row['time_defect']:.3g}"
              + (f" rate={row['expansion_rate']:.4g}"
                 if "expansion_rate" in row else "")
              + ("" if row["converged"] else "  [NOT CONVERGED]"))
             for row in rows] + [f"wrote {path}"]
    _emit(args, {**doc, "output": str(path)}, lines)
    if not all(r["converged"] for r in rows):
        raise IntegrationError("one or more shooting solves failed to converge")
    return EXIT_OK


_TRACK_HEADER = ["tau", "xi", "phi", "x", "y"]


def _track_columns(track, window=None):
    """Columns of a figdata.OrbitTrack under _TRACK_HEADER, restricted to
    the samples in window."""
    cols = [track.taus, track.states[:, 0], track.states[:, 1],
            track.x, track.y]
    if window is None:
        return cols
    x0, x1, y0, y1 = window
    keep = ((x0 <= track.x) & (track.x <= x1)
            & (y0 <= track.y) & (track.y <= y1))
    return [c[keep] for c in cols]


def cmd_figs(args) -> int:
    import numpy as np

    from . import figdata
    which = int(args.which)
    out = _out_dir(args)
    a = _float(args.a, "--a")
    if which in (1, 2):
        energy = _float(args.energy, "--energy") if args.energy is not None \
            else -0.5
        key = _param_hash({"cmd": f"figs{which}", "a": a, "energy": energy})
        if which == 1:
            grid, pot, meta = figdata.xi_potential_curve(a, energy)
            header, col = ["xi", "potential"], grid
        else:
            grid, pot, meta = figdata.phi_potential_curve(a, energy)
            header, col = ["phi", "potential"], grid
        csv_path = out / f"fig{which}_{key}.csv"
        write_csv(csv_path, header, [col, pot])
        meta_doc = {"command": f"figs {which}", "a": a, "energy": energy,
                    **meta, "csv": csv_path.name}
        json_path = out / f"fig{which}_{key}.json"
        write_json(json_path, meta_doc)
        _emit(args, meta_doc, [f"wrote {csv_path}", f"wrote {json_path}"])
        return EXIT_OK

    beta = _float(args.beta, "--beta") if args.beta is not None else 1.0 / 7.0
    if which == 3:
        key = _param_hash({"cmd": "figs3", "a": a, "beta": beta})
        tracks = figdata.orbit_family_portrait(beta=beta, q=1, a=a)
        files = []
        for tr in tracks:
            path = out / f"fig3_{key}_{tr.name}.csv"
            write_csv(path, _TRACK_HEADER, _track_columns(tr))
            files.append(path.name)
        doc = {"command": "figs 3", "a": a, "beta": beta, "q": "1",
               "orbits": files}
        json_path = out / f"fig3_{key}.json"
        write_json(json_path, doc)
        _emit(args, doc, [f"wrote {len(files)} orbit files and {json_path}"])
        return EXIT_OK

    if which in (4, 5, 6):
        q = Fraction(1) if which == 4 else Fraction(2)
        key = _param_hash({"cmd": f"figs{which}", "a": a, "beta": beta,
                           "q": str(q)})
        tracks = figdata.orbit_bundle_through(q=q, beta=beta, a=a)
        crossings = []
        for tr in tracks:
            crossings.extend(figdata.polyline_self_intersections(tr.x, tr.y))
        window = None
        if which == 6:
            if not crossings:
                raise StructuralError("no self-intersections found to enlarge")
            cx = np.array([p[0] for p in crossings])
            cy = np.array([p[1] for p in crossings])
            pad = 0.35
            window = (float(cx.min() - pad), float(cx.max() + pad),
                      float(cy.min() - pad), float(cy.max() + pad))
        files = []
        for tr in tracks:
            path = out / f"fig{which}_{key}_{tr.name}.csv"
            write_csv(path, _TRACK_HEADER, _track_columns(tr, window))
            files.append(path.name)
        doc = {"command": f"figs {which}", "a": a, "beta": beta, "q": str(q),
               "orbits": files,
               "self_intersections": [[p[0], p[1]] for p in sorted(crossings)]}
        if window is not None:
            doc["window"] = list(window)
        json_path = out / f"fig{which}_{key}.json"
        write_json(json_path, doc)
        _emit(args, doc,
              [f"wrote {len(files)} orbit files and {json_path}",
               f"self-intersections: {len(crossings)}"])
        return EXIT_OK
    raise DomainError(f"figure index must be 1..6, got {which}")


def cmd_integrate(args) -> int:
    import numpy as np

    from .dynamics import integrate, trajectory_to_csv, trajectory_to_json
    a = _float(args.a, "--a")
    tol = _float(args.tol, "--tol")
    if args.beta is None:
        raise DomainError("--beta is required for integrate")
    beta = _float(args.beta, "--beta")
    if args.q is not None:
        sol = solve_resonant_a1(beta, _frac(args.q), a, tol)
        a1 = sol.a1_hat
        q = sol.q
    elif args.a1 is not None:
        a1 = _float(args.a1, "--a1")
        q = Fraction(1)
    else:
        raise DomainError("pass either --a1 or --q")
    eps = _float(args.eps, "--eps") if args.eps is not None else 0.0
    centre = None
    if (getattr(args, "centre_xy", None) is not None
            or getattr(args, "centre_elliptic", None) is not None):
        centre = _resolve_centre(args)
        if isinstance(centre, EllipticPoint):
            centre = elliptic_to_cartesian(centre)
    prm = Params(a=a, beta=beta, a1=a1, q=q, eps=eps, centre=centre)
    if args.state is None:
        raise DomainError("--state xi,phi,xi_prime,phi_prime is required")
    parts = [_float(p, "--state") for p in str(args.state).split(",")]
    if len(parts) != 4:
        raise DomainError("--state needs exactly 4 components")
    tau_end = _float(args.tau_end, "--tau-end")
    traj = integrate(np.array(parts), prm, tau_end, tol=tol)
    out = _out_dir(args)
    key = _param_hash({"cmd": "integrate", "a": a, "beta": beta, "a1": a1,
                       "eps": eps, "state": parts, "tau_end": tau_end,
                       "tol": tol})
    csv_path = out / f"trajectory_{key}.csv"
    json_path = out / f"trajectory_{key}.json"
    trajectory_to_csv(traj, csv_path)
    trajectory_to_json(traj, json_path)
    doc = {"command": "integrate", "energy_drift": traj.energy_drift,
           "tau_end": tau_end, "csv": str(csv_path), "json": str(json_path)}
    _emit(args, doc, [f"wrote {csv_path}", f"wrote {json_path}",
                      f"energy drift = {traj.energy_drift:.3e}"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    spec = {
        "a": dict(default=None, help="primary intensity (default 1)"),
        "beta": dict(default=None, help="energy-ratio parameter in [0, 1)"),
        "energy": dict(default=None, help="total energy E < 0"),
        "q": dict(default=None, help="resonance class m/n"),
        "a1": dict(default=None, help="separation parameter a1"),
        "classes": dict(default=None, help="comma-separated class list"),
        "centre-xy": dict(default=None, dest="centre_xy",
                          help="perturbing centre as x,y"),
        "centre-elliptic": dict(default=None, dest="centre_elliptic",
                                help="perturbing centre as xi,phi"),
        "eps": dict(default=None, help="third-centre intensity (list for shadow)"),
        "tol": dict(default=None,
                    help="solver/integration tolerance (default 1e-12)"),
        "delta": dict(default=None,
                      help="safety margin in ratio units (default 1e-4)"),
        "state": dict(default=None, help="initial state xi,phi,xi',phi'"),
        "tau-end": dict(default=None, dest="tau_end",
                        help="integration span in rescaled time"),
        "out": dict(default=None, help="output directory"),
        "config": dict(default=None, help="key = value config file"),
    }
    for name in names:
        kw = dict(spec[name])
        p.add_argument(f"--{name}", **kw)
    p.add_argument("--json", action="store_true",
                   help="machine-readable output on stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricentre",
        description="Collision arcs, chain dynamics and shadowing"
                    " experiments for the planar restricted 3-centre problem")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("periods", help="closed-form periods at (beta, a1 | q)")
    _add_common(p, "a", "beta", "a1", "q", "tol", "config")
    p.set_defaults(func=cmd_periods)

    p = sub.add_parser("solve", help="resonance solve for a1_hat or beta")
    _add_common(p, "a", "beta", "energy", "q", "centre-xy",
                "centre-elliptic", "tol", "delta", "config")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="primary-collision exclusion verdict")
    _add_common(p, "a", "beta", "energy", "q", "centre-xy",
                "centre-elliptic", "tol", "delta", "config")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("arcs", help="build and export a 4-arc family")
    _add_common(p, "a", "beta", "energy", "q", "centre-xy",
                "centre-elliptic", "tol", "delta", "out", "config")
    p.set_defaults(func=cmd_arcs)

    p = sub.add_parser("chains", help="alphabet, graph, counts and entropy")
    _add_common(p, "a", "beta", "energy", "classes", "centre-xy",
                "centre-elliptic", "tol", "delta", "out", "config")
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("shadow", help="eps-sweep shadowing experiments")
    _add_common(p, "a", "beta", "energy", "q", "centre-xy",
                "centre-elliptic", "eps", "tol", "delta", "out", "config")
    p.set_defaults(func=cmd_shadow)

    p = sub.add_parser("figs", help="emit the data behind figure N")
    p.add_argument("which", type=int, help="figure index 1..6")
    _add_common(p, "a", "beta", "energy", "out", "config")
    p.set_defaults(func=cmd_figs)

    p = sub.add_parser("integrate", help="integrate one trajectory to CSV/JSON")
    _add_common(p, "a", "beta", "a1", "q", "eps", "centre-xy",
                "centre-elliptic", "state", "tau-end", "tol", "out", "config")
    p.set_defaults(func=cmd_integrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except UnsafeCentreError as exc:
        print(f"error (unsafe centre): {exc}", file=sys.stderr)
        return EXIT_UNSAFE
    except (AccuracyError, IntegrationError, StructuralError) as exc:
        print(f"error (numerical): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DomainError as exc:
        print(f"error (domain): {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except TricentreError as exc:  # pragma: no cover - catch-all guard
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
