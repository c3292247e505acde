"""Command-line surface: periods, solve, arcs, check, chains, shadow, figs,
integrate.

Each option is declared once in `_OPTIONS` and each subcommand once in
`_COMMANDS`; `main` parses every value once against them and refuses
conflicting input and options the subcommand does not use.

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
from typing import Callable, NamedTuple, Optional

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


# ---------------------------------------------------------------------------
# options: a parser raises ValueError, which _prepare reports with the flag

def _floats(count: int):
    """Exactly `count` comma-separated floats, as a list."""
    def parse(text):
        parts = text.split(",")
        if len(parts) != count:
            raise ValueError(f"needs exactly {count} comma-separated numbers")
        return [float(p) for p in parts]
    return parse


def _point(kind):
    pair = _floats(2)
    return lambda text: kind(*pair(text))


def _list(item):
    """One or more comma-separated items; blank items are skipped."""
    def parse(text):
        values = [item(p) for p in text.split(",") if p.strip()]
        if not values:
            raise ValueError("needs at least one value")
        return values
    return parse


class _Option(NamedTuple):
    parse: Callable[[str], object]
    help: str
    default: Optional[str] = None


# Keyed by argparse dest.  A default fills an option only where the
# subcommand takes it outside `required` and the groups, so --beta and
# --energy default only in figs and --q only where --a1 is no alternative.
_OPTIONS = {
    "a": _Option(float, "primary intensity (default 1)", "1"),
    "beta": _Option(float, "energy-ratio parameter in [0, 1)", repr(1.0 / 7.0)),
    "energy": _Option(float, "total energy E < 0", "-0.5"),
    "q": _Option(Fraction, "resonance class m/n", "1"),
    "a1": _Option(float, "separation parameter a1"),
    "classes": _Option(_list(Fraction), "comma-separated class list"),
    "centre_xy": _Option(_point(CartesianPoint), "perturbing centre as x,y"),
    "centre_elliptic": _Option(_point(EllipticPoint),
                               "perturbing centre as xi,phi"),
    "eps": _Option(float, "third-centre intensity (list for shadow)", "0"),
    "tol": _Option(float, "solver/integration tolerance (default 1e-12)",
                   "1e-12"),
    "delta": _Option(float, "safety margin in ratio units (default 1e-4)",
                     "1e-4"),
    "state": _Option(_floats(4), "initial state xi,phi,xi',phi'"),
    "tau_end": _Option(float, "integration span in rescaled time"),
    "out": _Option(str, "output directory"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _load_config(path: str) -> dict:
    """Flat key = value config document; '#' starts a comment.  Keys are
    option names, with '-' or '_'; returned under their argparse dest."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line without '=': {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        name = key.replace("-", "_")
        if name not in _OPTIONS:
            raise DomainError(f"config key {key!r} names no option")
        out[name] = val
    return out


def _centre(args):
    return args.centre_xy if args.centre_xy is not None else args.centre_elliptic


def _resonance(args):
    """resonant_params at the centre for --q and --beta, or the beta that
    puts --q on the --energy level."""
    beta = args.beta
    if beta is None:
        beta = solve_beta_for_energy(args.q, args.energy, args.a, args.tol).beta
    return resonant_params(_centre(args), args.q, beta, args.a, args.tol)


def _out_dir(args) -> Path:
    out = Path(args.out or "tricentre_out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(args, doc: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True, default=str))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# commands

def cmd_periods(args) -> int:
    a, beta = args.a, args.beta
    doc: dict = {"command": "periods", "a": a, "beta": beta}
    if args.q is not None:
        sol = solve_resonant_a1(beta, args.q, a, args.tol)
        a1 = sol.a1_hat
        doc.update(q=str(sol.q), a1_hat=a1, residual=sol.residual,
                   clamped=sol.clamped, energy=sol.energy)
    else:
        a1 = args.a1
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
    a, q, tol = args.a, args.q, args.tol
    if args.energy is not None:
        sol = solve_beta_for_energy(q, args.energy, a, tol)
    else:
        sol = solve_resonant_a1(args.beta, q, a, tol)
    doc = {"command": "solve", "a": a, "q": str(q), "beta": sol.beta,
           "a1_hat": sol.a1_hat, "t1": sol.t1, "t2": sol.t2,
           "energy": sol.energy, "residual": sol.residual,
           "clamped": sol.clamped}
    lines = [f"beta = {_fmt(sol.beta)}",
             f"a1_hat = {_fmt(sol.a1_hat)}",
             f"T1 = {_fmt(sol.t1)}", f"T2 = {_fmt(sol.t2)}",
             f"energy = {_fmt(sol.energy)}",
             f"residual = {_fmt(sol.residual)}"]
    centre = _centre(args)
    if centre is not None:
        beta_adm = find_admissible_beta(centre, q, a, beta_start=sol.beta,
                                        delta=args.delta)
        doc["admissible_beta"] = beta_adm
        lines.append(f"admissible_beta = {_fmt(beta_adm)}")
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_check(args) -> int:
    prm, _ = _resonance(args)
    q, beta = args.q, prm.beta
    report = primary_collision_check(prm, delta=args.delta)
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
    prm, sol = _resonance(args)
    a, q, tol, beta = args.a, args.q, args.tol, prm.beta
    family = arc_family(prm, delta=args.delta)
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
    a, tol, classes = args.a, args.tol, args.classes
    centre = _centre(args)
    energy = args.energy
    if energy is None:
        energy = solve_resonant_a1(args.beta, classes[0], a, tol).energy
    arcs = build_alphabet(centre, classes, energy, a, tol, delta=args.delta)
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
    prm, _ = _resonance(args)
    a, q, beta = args.a, args.q, prm.beta
    arc = arc_family(prm, delta=args.delta)[0]
    rows = []
    for eps in args.eps:
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
                       "centre": str(prm.centre), "eps": args.eps})
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


# Figures 1-2 are potential curves at an energy, 3-6 orbits at a beta;
# figs N takes only the one of --beta / --energy named here.
_FIGURE_PARAMETER = {n: "energy" if n <= 2 else "beta" for n in range(1, 7)}


def cmd_figs(args) -> int:
    from . import figdata
    which, a = args.which, args.a
    out = _out_dir(args)
    if which in (1, 2):
        energy = args.energy
        key = _param_hash({"cmd": f"figs{which}", "a": a, "energy": energy})
        curve = (figdata.xi_potential_curve if which == 1
                 else figdata.phi_potential_curve)
        grid, pot, meta = curve(a, energy)
        csv_path = out / f"fig{which}_{key}.csv"
        write_csv(csv_path, ["xi" if which == 1 else "phi", "potential"],
                  [grid, pot])
        meta_doc = {"command": f"figs {which}", "a": a, "energy": energy,
                    **meta, "csv": csv_path.name}
        json_path = out / f"fig{which}_{key}.json"
        write_json(json_path, meta_doc)
        _emit(args, meta_doc, [f"wrote {csv_path}", f"wrote {json_path}"])
        return EXIT_OK

    beta = args.beta
    if which == 3:
        key = _param_hash({"cmd": "figs3", "a": a, "beta": beta})
        tracks = figdata.orbit_family_portrait(beta=beta, a=a)
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
        cx, cy = [p[0] for p in crossings], [p[1] for p in crossings]
        pad = 0.35
        window = (float(min(cx) - pad), float(max(cx) + pad),
                  float(min(cy) - pad), float(max(cy) + pad))
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


def cmd_integrate(args) -> int:
    from .dynamics import integrate, trajectory_to_csv, trajectory_to_json
    a, beta, tol, eps = args.a, args.beta, args.tol, args.eps
    if args.q is not None:
        sol = solve_resonant_a1(beta, args.q, a, tol)
        a1, q = sol.a1_hat, sol.q
    else:
        a1, q = args.a1, Fraction(1)
    centre = _centre(args)
    if isinstance(centre, EllipticPoint):
        centre = elliptic_to_cartesian(centre)
    prm = Params(a=a, beta=beta, a1=a1, q=q, eps=eps, centre=centre)
    traj = integrate(args.state, prm, args.tau_end, tol=tol)
    out = _out_dir(args)
    key = _param_hash({"cmd": "integrate", "a": a, "beta": beta, "a1": a1,
                       "eps": eps, "centre": str(centre), "state": args.state,
                       "tau_end": args.tau_end, "tol": tol})
    csv_path = out / f"trajectory_{key}.csv"
    json_path = out / f"trajectory_{key}.json"
    trajectory_to_csv(traj, csv_path)
    trajectory_to_json(traj, json_path)
    doc = {"command": "integrate", "energy_drift": traj.energy_drift,
           "tau_end": args.tau_end, "csv": str(csv_path),
           "json": str(json_path)}
    _emit(args, doc, [f"wrote {csv_path}", f"wrote {json_path}",
                      f"energy drift = {traj.energy_drift:.3e}"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# declarations

class _Command(NamedTuple):
    run: Callable
    help: str
    options: tuple                 # in --help order
    required: tuple = ()
    exactly_one: tuple = ()        # groups of options
    at_most_one: tuple = ()
    parse: dict = {}               # parsers that replace _OPTIONS' here
    needs: dict = {}               # option -> group it is used only with


_BETA_OR_ENERGY = ("beta", "energy")
_Q_OR_A1 = ("q", "a1")
_CENTRE = ("centre_xy", "centre_elliptic")
_RESONANCE = ("a", *_BETA_OR_ENERGY, "q", *_CENTRE, "tol", "delta")

_COMMANDS = {
    "periods": _Command(cmd_periods, "closed-form periods at (beta, a1 | q)",
                        ("a", "beta", "a1", "q", "tol"), required=("beta",),
                        exactly_one=(_Q_OR_A1,), needs={"tol": ("q",)}),
    "solve": _Command(cmd_solve, "resonance solve for a1_hat or beta",
                      _RESONANCE, required=("q",),
                      exactly_one=(_BETA_OR_ENERGY,), at_most_one=(_CENTRE,),
                      needs={"delta": _CENTRE}),
    "check": _Command(cmd_check, "primary-collision exclusion verdict",
                      _RESONANCE, exactly_one=(_BETA_OR_ENERGY, _CENTRE)),
    "arcs": _Command(cmd_arcs, "build and export a 4-arc family",
                     (*_RESONANCE, "out"),
                     exactly_one=(_BETA_OR_ENERGY, _CENTRE)),
    "chains": _Command(cmd_chains, "alphabet, graph, counts and entropy",
                       ("a", *_BETA_OR_ENERGY, "classes", *_CENTRE, "tol",
                        "delta", "out"), required=("classes",),
                       exactly_one=(_BETA_OR_ENERGY, _CENTRE)),
    "shadow": _Command(cmd_shadow, "eps-sweep shadowing experiments",
                       ("a", *_BETA_OR_ENERGY, "q", *_CENTRE, "eps", "tol",
                        "delta", "out"), required=("eps",),
                       exactly_one=(_BETA_OR_ENERGY, _CENTRE),
                       parse={"eps": _list(float)}),
    "figs": _Command(cmd_figs, "emit the data behind figure N",
                     ("a", *_BETA_OR_ENERGY, "out")),
    "integrate": _Command(cmd_integrate, "integrate one trajectory to CSV/JSON",
                          ("a", "beta", "a1", "q", "eps", *_CENTRE, "state",
                           "tau_end", "tol", "out"),
                          required=("beta", "state", "tau_end"),
                          exactly_one=(_Q_OR_A1,), at_most_one=(_CENTRE,)),
}


def _prepare(args) -> None:
    """Merge --config into the flags (flags win), enforce the subcommand's
    declaration, fill the defaults and parse every value once, in place.
    A config key the given inputs leave unused is dropped, a flag refused."""
    cmd, values, label = _COMMANDS[args.command], vars(args), args.command
    flags = {name for name in cmd.options if values[name] is not None}
    if args.config:
        for name, text in _load_config(args.config).items():
            if name in cmd.options and values[name] is None:
                values[name] = text
    unused = set()
    if label == "figs":
        if args.which not in _FIGURE_PARAMETER:
            raise DomainError(f"figure index must be 1..6, got {args.which}")
        label = f"figs {args.which}"
        unused = set(_BETA_OR_ENERGY) - {_FIGURE_PARAMETER[args.which]}
    given = {name for name in cmd.options if values[name] is not None}
    for name in sorted(given & unused):
        raise DomainError(f"{label} takes no {_flag(name)}")
    for name in cmd.required:
        if name not in given:
            raise DomainError(f"{_flag(name)} is required for {label}")
    for group in cmd.exactly_one:
        if len(given.intersection(group)) != 1:
            raise DomainError(f"{label} takes exactly one of "
                              + " / ".join(map(_flag, group)))
    for group in cmd.at_most_one:
        if len(given.intersection(group)) > 1:
            raise DomainError(f"{label} takes at most one of "
                              + " / ".join(map(_flag, group)))
    for name, group in cmd.needs.items():
        if name in given and not given.intersection(group):
            if name in flags:
                raise DomainError(f"{label} uses {_flag(name)} only with "
                                  + " / ".join(map(_flag, group)))
            values[name] = None  # a config key may serve other commands
    fixed = unused.union(cmd.required, *cmd.exactly_one, *cmd.at_most_one)
    for name in cmd.options:
        text = values[name]
        if text is None and name not in fixed:
            text = _OPTIONS[name].default
        if text is None:
            continue
        try:
            values[name] = cmd.parse.get(name, _OPTIONS[name].parse)(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(
                f"cannot parse {_flag(name)}={text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricentre",
        description="Collision arcs, chain dynamics and shadowing"
                    " experiments for the planar restricted 3-centre problem")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        if name == "figs":
            p.add_argument("which", type=int, help="figure index 1..6")
        for option in cmd.options:
            p.add_argument(_flag(option), help=_OPTIONS[option].help)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output on stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _prepare(args)
        return _COMMANDS[args.command].run(args)
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
