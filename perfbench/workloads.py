"""The four benchmark workloads, their correctness gates and the layer probes.

Each workload has the same shape:

* ``setup(tracer)``: input generation and fixtures (timed as ``setup_s``);
* ``inputs(k)``: the inputs of pass ``k``, drawn from the seed (untimed);
* ``run(tracer, inputs)``: the timed body, one call into tricentre at a
  time; an operation that raises is recorded, not propagated.  The body
  marks its units with ``tracer.lap`` and wraps each call in
  ``tracer.call``, which records a span in traced runs;
* ``check(k, inputs, result, tally)``: the correctness gate, run outside
  the timed body; every operation of the pass is counted as attempted, and
  as failed when it raised or failed its gate;
* ``facts(result)``: counts read off the returned objects, for the traced
  layer report.

Inputs come only from the seed.  Within one run, alphabet and safety_map
draw fresh inputs for every pass, so no pass repeats the work of an earlier
one; shadow reuses its reference arc (the expensive fixture) and cli
repeats identical commands, because its gate compares the output files of
two runs byte for byte.
"""
from __future__ import annotations

import math
import os
import random
import shutil
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

from tricentre import (CartesianPoint, EllipticPoint, Params, PhiCrossing,
                       arc_family, build_graph, complete_elliptic_k,
                       count_periodic_chains, entropy_estimate,
                       find_admissible_beta, integrate, local_expansion_rate,
                       modulus_squares, nondegeneracy_certificate, period_xi,
                       primary_collision_check, resonant_params, shoot_segment,
                       solve_beta_for_energy, solve_resonant_a1,
                       turning_point_xi)
from tricentre.figdata import orbit_bundle_through, orbit_family_portrait

BETA_REF = 1.0 / 7.0
RESIDUAL_TOL = 1e-12
CHILD_TIMEOUT_S = 150.0


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.append(f"{label}: {'; '.join(problems)}")


def attempt(errors: dict, label: str, fn, *args, **kwargs):
    """Run one operation; a raised exception marks it failed and returns None.

    The recorded message ends with the innermost frames of the traceback.
    """
    try:
        return fn(*args, **kwargs)
    except Exception:  # the benchmark must keep running to count failures
        errors[label] = traceback.format_exc(limit=-3).strip()
        return None


def pass_rng(seed: int, name: str, k) -> random.Random:
    return random.Random(f"{seed}/{name}/{k}")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def fresh_import(root: Path) -> None:
    """Start a fresh interpreter that imports tricentre and exits."""
    subprocess.run([sys.executable, "-c", "import tricentre"],
                   env=child_env(root), check=True, timeout=CHILD_TIMEOUT_S)


def primary_orbit(beta: float = BETA_REF):
    """The q = 1 resonant orbit seeded at the primary (1, 0).

    Every point of it is an unsafe centre for (beta, q = 1): its ratios G+-
    land in the set S (acceptance test 7 samples it the same way).
    """
    sol = solve_resonant_a1(beta, 1)
    prm = Params(a=1.0, beta=beta, a1=sol.a1_hat, q=Fraction(1))
    vxi = 2.0 * math.sqrt(1.0 - beta * sol.a1_hat - sol.a1_hat)
    vphi = 2.0 * math.sqrt(beta * sol.a1_hat + sol.a1_hat)
    return integrate(np.array([0.0, 0.0, vxi, vphi]), prm, 0.8 * sol.t1,
                     tol=1e-12)


def unsafe_centres(orbit, rng: random.Random, n: int, xi_max: float):
    """n points of the primary orbit with |xi| <= xi_max, away from the primary."""
    out = []
    while len(out) < n:
        y = orbit.state_at(rng.uniform(0.05, 0.95) * orbit.tau_final)
        if 0.05 <= abs(y[0]) <= xi_max:
            out.append(EllipticPoint(float(y[0]), float(y[1])))
    return out


def residual_ok(sol) -> bool:
    return abs(sol.residual) <= RESIDUAL_TOL or sol.clamped


# ---------------------------------------------------------------------------

class Alphabet:
    """Equal-energy alphabet over classes {1, 2}, its graph, P_n and entropy.

    The body makes the calls ``build_alphabet`` makes (solve beta for the
    energy, resonant parameters, arc family per class) one layer at a time,
    so that the spans separate periods, arcs and chains.
    """

    name = "alphabet"
    min_passes = 1
    n_max = 12

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.seed = seed
        self.classes = (Fraction(1),) if smoke else (Fraction(1), Fraction(2))

    def setup(self, tr) -> None:
        pass

    def inputs(self, k):
        rng = pass_rng(self.seed, self.name, k)
        centre = CartesianPoint(1.18 + rng.uniform(-1e-3, 1e-3),
                                rng.uniform(-5e-4, 5e-4))
        return centre, -0.05 + rng.uniform(-2e-4, 2e-4)

    def run(self, tr, inp):
        centre, energy = inp
        errors: dict = {}
        families = {}
        for q in self.classes:
            def family(q=q):
                sol = tr.call("periods.solve_beta_for_energy",
                              solve_beta_for_energy, q, energy)
                prm, _ = tr.call("arcs.resonant_params", resonant_params,
                                 centre, q, sol.beta)
                return tr.call("arcs.arc_family", arc_family, prm)
            with tr.lap(f"family q={q}"):
                families[q] = attempt(errors, f"family q={q}", family)
        chain = None
        if all(f is not None for f in families.values()):
            arcs = [arc for fam in families.values() for arc in fam]

            def chain_step():
                graph = tr.call("chains.build_graph", build_graph, arcs)
                counts = [tr.call("chains.count_periodic_chains",
                                  count_periodic_chains, graph, n)
                          for n in range(1, self.n_max + 1)]
                entropy = tr.call("chains.entropy_estimate", entropy_estimate,
                                  graph)
                return graph, counts, entropy
            with tr.lap("chains"):
                chain = attempt(errors, "chains", chain_step)
        return {"families": families, "chain": chain, "errors": errors}

    def check(self, k, inp, res, tally: Tally) -> None:
        errors = res["errors"]
        for q, fam in res["families"].items():
            label = f"family q={q}"
            problems = [errors[label]] if label in errors else []
            for arc in fam or ():
                if not arc.closure_error <= 1e-8:
                    problems.append(f"{arc.label} closure {arc.closure_error:.3g}")
                if not arc.early_collision:
                    t_full = q.numerator * period_xi(arc.params.beta,
                                                     arc.params.a1, arc.params.a)
                    if not abs(arc.duration - t_full) <= 1e-8 * t_full:
                        problems.append(f"{arc.label} duration {arc.duration!r}"
                                        f" != m*T1 {t_full!r}")
            tally.record(f"alphabet pass {k} {label}", problems)
        problems = []
        if res["chain"] is None:
            problems.append(errors.get("chains", "not run: a family failed"))
        else:
            graph, counts, entropy = res["chain"]
            adj = graph.adjacency.astype(np.int64)
            for n, got in enumerate(counts, start=1):
                want = int(np.trace(np.linalg.matrix_power(adj, n)))
                if got != want:
                    problems.append(f"P_{n} = {got}, numpy trace {want}")
            rho = float(np.max(np.abs(np.linalg.eigvals(adj.astype(float)))))
            want_h = math.log(rho) if rho > 0.0 else 0.0
            if not abs(entropy - want_h) <= 1e-9:
                problems.append(f"entropy {entropy!r} != log rho {want_h!r}")
        tally.record(f"alphabet pass {k} chains", problems)

    def facts(self, res) -> dict:
        arcs = [a for fam in res["families"].values() for a in fam or ()]
        out = {}
        if arcs:
            out["arcs.accepted_steps"] = sum(len(a.path.taus) - 1 for a in arcs)
            out["arcs.closure_error.max"] = max(a.closure_error for a in arcs)
        if res["chain"] is not None:
            graph = res["chain"][0]
            out["chains.nodes"] = graph.n_nodes
            out["chains.edges"] = int(graph.adjacency.sum())
        return out

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------

SHADOW_EPS = (("1e-2", 1e-2), ("1e-3", 1e-3), ("1e-4", 1e-4))


class Shadow:
    """Shooting on arc 0 of the q = 1 off-axis reference family.

    The fixture is the family at (2/3 xi+, 0), beta = 1/7, with the centre
    moved by a seeded relative 1e-5 along xi: enough that no two seeds
    share inputs, small enough that the Newton path and its iteration
    counts stay those of the reference problem.
    """

    name = "shadow"
    min_passes = 1

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.seed = seed
        self.arc = None

    def setup(self, tr) -> None:
        rng = pass_rng(self.seed, self.name, "fixture")
        sol = solve_resonant_a1(BETA_REF, 1)
        xi_plus = turning_point_xi(BETA_REF, sol.a1_hat)
        frac = 2.0 / 3.0 * (1.0 + rng.uniform(-1e-5, 1e-5))
        prm, _ = resonant_params(EllipticPoint(frac * xi_plus, 0.0), 1, BETA_REF)
        self.arc = tr.call("arcs.arc_family", arc_family, prm)[0]

    def inputs(self, k):
        return self.arc

    def run(self, tr, arc):
        errors: dict = {}
        segments = {}
        for label, eps in SHADOW_EPS:
            def segment(label=label, eps=eps):
                res = tr.call(f"shadow.shoot_segment.{label}", shoot_segment,
                              arc, eps)
                rate = tr.call("shadow.local_expansion_rate",
                               local_expansion_rate, [res, res], eps)
                return res, rate
            with tr.lap(f"eps={label}"):
                segments[label] = attempt(errors, f"eps={label}", segment)
        return {"segments": segments, "errors": errors}

    def check(self, k, arc, res, tally: Tally) -> None:
        """The criteria of acceptance test 10."""
        segs = res["segments"]
        joint = []
        if all(s is not None for s in segs.values()):
            eps = [e for _, e in SHADOW_EPS]
            devs = [segs[lb][0].max_deviation for lb, _ in SHADOW_EPS]
            rates = [segs[lb][1] for lb, _ in SHADOW_EPS]
            if not all(a > b for a, b in zip(devs, devs[1:])):
                joint.append(f"deviations not decreasing {devs}")
            slope = float(np.polyfit(np.log(eps), np.log(devs), 1)[0])
            if not 0.7 <= slope <= 1.3:
                joint.append(f"deviation slope {slope:.3f} outside [0.7, 1.3]")
            if not all(a < b for a, b in zip(rates, rates[1:])):
                joint.append(f"expansion rates not increasing {rates}")
        for label, eps in SHADOW_EPS:
            problems = list(joint)
            seg = segs[label]
            if seg is None:
                problems.append(res["errors"][f"eps={label}"])
            else:
                shot = seg[0]
                if not shot.converged:
                    problems.append(f"not converged (residual {shot.residual:.3g})")
                if not shot.min_c_distance / eps >= 1.0:
                    problems.append(f"min_c_distance/eps {shot.min_c_distance/eps:.3g}")
            tally.record(f"shadow pass {k} eps={label}", problems)

    def facts(self, res) -> dict:
        segs = res["segments"]
        out = {f"shadow.newton_iterations.{lb}": segs[lb][0].n_iterations
               for lb, _ in SHADOW_EPS if segs[lb] is not None}
        out["shadow.converged_fraction"] = (
            sum(1 for s in segs.values() if s is not None and s[0].converged)
            / len(segs))
        return out

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------

class SafetyMap:
    """Exclusion test over seeded centres x classes {1, 2, 3, 1/2} x 3 betas.

    Centres are drawn inside every turning ellipse of the grid; a few are
    points of the orbit through a primary, which the test must call unsafe
    at (beta = 1/7, q = 1).  No integration happens in the timed body.
    """

    name = "safety_map"
    min_passes = 1
    classes = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2))
    betas = (0.05, BETA_REF, 0.25)

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.seed = seed
        self.n_random, self.n_unsafe, self.n_admissible, self.n_quad = (
            (4, 2, 1, 2) if smoke else (580, 8, 6, 6))

    def setup(self, tr) -> None:
        self.xi_max = 0.9 * min(
            turning_point_xi(b, solve_resonant_a1(b, q).a1_hat)
            for b in self.betas for q in self.classes)
        self.orbit = primary_orbit()

    def inputs(self, k):
        rng = pass_rng(self.seed, self.name, k)
        centres = [EllipticPoint(rng.uniform(0.02, self.xi_max),
                                 rng.uniform(-math.pi, math.pi))
                   for _ in range(self.n_random)]
        unsafe = unsafe_centres(self.orbit, rng, self.n_unsafe, self.xi_max)
        energy = -0.05 + rng.uniform(-1e-3, 1e-3)
        admissible = rng.sample(centres, self.n_admissible)
        quad = rng.sample(range(len(centres) + len(unsafe)), self.n_quad)
        return {"centres": centres + unsafe, "n_random": len(centres),
                "energy": energy, "admissible": admissible, "quad": quad}

    def run(self, tr, inp):
        errors: dict = {}
        solves, certs, cells, energy_solves, adm = {}, {}, {}, {}, {}
        for beta in self.betas:
            for q in self.classes:
                key = (beta, q)
                with tr.lap(f"cells {key}"):
                    solves[key] = attempt(errors, f"solve {key}", tr.call,
                                          "periods.solve_resonant_a1",
                                          solve_resonant_a1, beta, q)
                    certs[key] = attempt(errors, f"cert {key}", tr.call,
                                         "arcs.nondegeneracy_certificate",
                                         nondegeneracy_certificate, beta, q)
                    for i, centre in enumerate(inp["centres"]):
                        cells[(beta, q, i)] = attempt(
                            errors, f"cell {(beta, q, i)}", self._cell, tr,
                            centre, q, beta)
        for q in self.classes:
            with tr.lap(f"admissible {q}"):
                energy_solves[q] = attempt(errors, f"energy {q}", tr.call,
                                           "periods.solve_beta_for_energy",
                                           solve_beta_for_energy, q,
                                           inp["energy"])
                for j, centre in enumerate(inp["admissible"]):
                    adm[(q, j)] = attempt(errors, f"admissible {(q, j)}",
                                          tr.call, "arcs.find_admissible_beta",
                                          find_admissible_beta, centre, q)
        return {"solves": solves, "certs": certs, "cells": cells,
                "energy_solves": energy_solves, "admissible": adm,
                "errors": errors}

    @staticmethod
    def _cell(tr, centre, q, beta):
        prm, sol = tr.call("arcs.resonant_params", resonant_params, centre, q,
                           beta)
        report = tr.call("arcs.primary_collision_check",
                         primary_collision_check, prm)
        return prm, sol, report

    def check(self, k, inp, res, tally: Tally) -> None:
        from scipy.special import ellipk
        errors = res["errors"]

        def problems_of(label, value):
            return [errors[label]] if value is None else []

        for key, sol in res["solves"].items():
            problems = problems_of(f"solve {key}", sol)
            if sol is not None:
                if not residual_ok(sol):
                    problems.append(f"residual {sol.residual:.3g}")
                for m in modulus_squares(sol.beta, sol.a1_hat):
                    ours, ref = complete_elliptic_k(m), float(ellipk(m))
                    if not abs(ours - ref) <= 1e-14 * ref:
                        problems.append(f"K({m!r}) = {ours!r}, scipy {ref!r}")
            tally.record(f"safety_map pass {k} solve {key}", problems)
        for key, cert in res["certs"].items():
            problems = problems_of(f"cert {key}", cert)
            if cert is not None and not cert.passed:
                problems.append(f"det {cert.det_normalized:.3g} below threshold")
            tally.record(f"safety_map pass {k} cert {key}", problems)
        n_random = inp["n_random"]
        for (beta, q, i), cell in res["cells"].items():
            label = f"cell {(beta, q, i)}"
            problems = problems_of(label, cell)
            if cell is not None:
                prm, sol, report = cell
                if not residual_ok(sol):
                    problems.append(f"residual {sol.residual:.3g}")
                if i >= n_random and beta == BETA_REF and q == 1 and report.safe:
                    problems.append("centre on the primary orbit reported safe")
                if i in inp["quad"] and q == self.classes[0]:
                    problems += quad_problems(prm, report)
            tally.record(f"safety_map pass {k} {label}", problems)
        for q, sol in res["energy_solves"].items():
            problems = problems_of(f"energy {q}", sol)
            if sol is not None:
                if not residual_ok(sol):
                    problems.append(f"residual {sol.residual:.3g}")
                if not abs(sol.energy - inp["energy"]) <= 1e-10:
                    problems.append(f"energy {sol.energy!r} != {inp['energy']!r}")
            tally.record(f"safety_map pass {k} energy {q}", problems)
        for (q, j), beta in res["admissible"].items():
            problems = problems_of(f"admissible {(q, j)}", beta)
            if beta is not None:
                prm, _ = resonant_params(inp["admissible"][j], q, beta)
                if not primary_collision_check(prm).safe:
                    problems.append(f"beta {beta!r} is not safe")
            tally.record(f"safety_map pass {k} admissible {(q, j)}", problems)

    def facts(self, res) -> dict:
        reports = [c[2] for c in res["cells"].values() if c is not None]
        if not reports:
            return {}
        return {"arcs.safe_fraction": sum(r.safe for r in reports) / len(reports)}

    def close(self) -> None:
        pass


def quad_problems(prm, report) -> list[str]:
    """G+- of one cell recomputed with scipy quadrature and scipy's K."""
    from scipy.integrate import quad
    from scipy.special import ellipk
    beta, a1, a = prm.beta, prm.a1, prm.a
    c = prm.centre_elliptic
    p_val, _ = quad(lambda p: 1.0 / math.sqrt(beta * a1 * math.cos(p) ** 2 + a1),
                    0.0, c.phi, epsabs=1e-14, epsrel=1e-13, limit=200)
    q_val, _ = quad(lambda x: 1.0 / math.sqrt(math.cosh(x)
                                              - beta * a1 * math.cosh(x) ** 2 - a1),
                    0.0, c.xi, epsabs=1e-14, epsrel=1e-13, limit=200)
    disc = 1.0 - 4.0 * beta * a1 * a1
    k1sq = (a1 * (1.0 - beta) + math.sqrt(disc)) / (2.0 * math.sqrt(disc))
    t1 = 2.0 * math.sqrt(2.0 / a) / disc ** 0.25 * float(ellipk(k1sq))
    pref = 0.5 / math.sqrt(a)
    g_plus = pref * (p_val + q_val) / t1
    g_minus = pref * (p_val - q_val) / t1
    problems = []
    for name, ours, ref in (("G+", report.g_plus, g_plus),
                            ("G-", report.g_minus, g_minus)):
        if not abs(ours - ref) <= 1e-9:
            problems.append(f"{name} = {ours!r}, scipy quad {ref!r}")
    return problems


# ---------------------------------------------------------------------------

class Cli:
    """Fresh ``python -m tricentre`` processes, one at a time.

    Each command runs in its own directory with ``--out .``, so printed
    paths are relative and a second pass must reproduce stdout and every
    output file byte for byte.
    """

    name = "cli"
    min_passes = 2

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.root = root
        self.seed = seed
        self.work = root / ".bench_work" / f"cli-{os.getpid()}-{id(self):x}"

    def setup(self, tr) -> None:
        rng = pass_rng(self.seed, self.name, "inputs")
        sol = solve_resonant_a1(BETA_REF, 1)
        xi_plus = turning_point_xi(BETA_REF, sol.a1_hat)
        safe_xi = 2.0 / 3.0 * xi_plus * (1.0 + rng.uniform(-3e-3, 3e-3))
        unsafe = unsafe_centres(primary_orbit(), rng, 1, 0.9 * xi_plus)[0]
        fig_beta = repr(BETA_REF * (1.0 + rng.uniform(-5e-3, 5e-3)))
        common = ["--q", "1", "--beta", repr(BETA_REF)]
        safe = [f"--centre-elliptic={safe_xi!r},0"]
        commands = [
            ("periods", ["periods", "--q", "1", "--beta",
                         repr(BETA_REF * (1.0 + rng.uniform(-0.01, 0.01)))], 0),
            ("check_safe", ["check", *safe, *common], 0),
            ("check_unsafe", ["check",
                              f"--centre-elliptic={unsafe.xi!r},{unsafe.phi!r}",
                              *common], 3),
            ("arcs", ["arcs", *safe, *common, "--out", "."], 0),
            ("figs3", ["figs", "3", "--beta", fig_beta, "--out", "."], 0),
            ("figs6", ["figs", "6", "--beta", fig_beta, "--out", "."], 0),
        ]
        self.commands = commands
        self.env = child_env(self.root)
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def inputs(self, k):
        return self.work / f"pass{k}"

    def run(self, tr, pass_dir: Path):
        errors: dict = {}
        procs = {}
        for name, args, _ in self.commands:
            cwd = pass_dir / name
            cwd.mkdir(parents=True)
            with tr.lap(name), tr.span(f"cli.{name}"):
                procs[name] = attempt(errors, name, subprocess.run,
                                      [sys.executable, "-m", "tricentre", *args],
                                      cwd=cwd, env=self.env,
                                      capture_output=True,
                                      timeout=CHILD_TIMEOUT_S)
        return {"procs": procs, "errors": errors}

    def check(self, k, pass_dir: Path, res, tally: Tally) -> None:
        first = self.inputs(0)
        for name, _, want_rc in self.commands:
            proc = res["procs"][name]
            problems = []
            if proc is None:
                problems.append(res["errors"][name])
            else:
                if proc.returncode != want_rc:
                    problems.append(f"exit {proc.returncode}, expected {want_rc}:"
                                    f" {proc.stderr.decode(errors='replace')[-300:]}")
                (pass_dir / name / "stdout").write_bytes(proc.stdout)
                if k > 0:
                    problems += _tree_differences(first / name, pass_dir / name)
            tally.record(f"cli pass {k} {name}", problems)
        if k > 0:
            shutil.rmtree(pass_dir, ignore_errors=True)

    def facts(self, res) -> dict:
        written = sum(p.stat().st_size for p in self.inputs(0).rglob("*")
                      if p.is_file() and p.name != "stdout")
        return {"cli.bytes_written": written}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _tree_differences(a: Path, b: Path) -> list[str]:
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"files differ between runs: {names_a} vs {names_b}"]
    return [f"{n} differs between runs" for n in names_a
            if (a / n).read_bytes() != (b / n).read_bytes()]


WORKLOADS = {w.name: w for w in (Alphabet, Shadow, SafetyMap, Cli)}


# ---------------------------------------------------------------------------
# layer probes: fixed calls whose per-call cost the layer report tracks

def reference_orbit(beta: float = BETA_REF, periods: float = 5.0):
    """The plain resonant orbit of ``tricentre.bench``: q = 1, phi0 = 0.3."""
    sol = solve_resonant_a1(beta, 1)
    phi0 = 0.3
    y0 = np.array([0.0, phi0,
                   2.0 * math.sqrt(1.0 - beta * sol.a1_hat - sol.a1_hat),
                   2.0 * math.sqrt(beta * sol.a1_hat * math.cos(phi0) ** 2
                                   + sol.a1_hat)])
    prm = Params(a=1.0, beta=beta, a1=sol.a1_hat, q=Fraction(1))
    return y0, prm, periods * sol.t1, phi0


def probes(tr, root: Path, arc, seed: int) -> dict:
    """Run the per-call probes; returns the counts the metrics divide by."""
    facts = {}
    grid = [i / 256.0 for i in range(256)]
    reps = 20
    with tr.span("special.complete_elliptic_k"):
        for _ in range(reps):
            for m in grid:
                complete_elliptic_k(m)
    facts["special.complete_elliptic_k.calls"] = reps * len(grid)

    y0, prm, span, phi0 = reference_orbit()
    traj = tr.call("dynamics.integrate", integrate, y0, prm, span, tol=1e-12)
    facts["dynamics.integrate.steps"] = len(traj.taus) - 1
    traj = tr.call("dynamics.integrate_events", integrate, y0, prm, span,
                   tol=1e-12, events=[PhiCrossing(phi0), PhiCrossing(-phi0)])
    facts["dynamics.integrate_events.steps"] = len(traj.taus) - 1

    # one shooting residual: most of the arc, eps = 1e-3, shoot_segment's tol
    prm_eps = arc.params.with_eps(1e-3)
    y_start = arc.path.state_at(0.05 * arc.duration)
    for _ in range(3):
        tr.call("dynamics.integrate_short", integrate, y_start, prm_eps,
                0.9 * arc.duration, tol=1e-11)

    rng = pass_rng(seed, "probes", "state_at")
    taus = [rng.uniform(0.0, arc.duration) for _ in range(2000)]
    with tr.span("dynamics.state_at_scalar"):
        for t in taus:
            arc.path.state_at(t)
    facts["dynamics.state_at_scalar.calls"] = len(taus)
    points = np.linspace(0.0, arc.duration, 20000)
    with tr.span("dynamics.state_at_vector"):
        for _ in range(5):
            arc.path.state_at(points)
    facts["dynamics.state_at_vector.points"] = 5 * len(points)

    tr.call("figdata.orbit_family_portrait", orbit_family_portrait)
    tr.call("figdata.orbit_bundle_through", orbit_bundle_through, q=2)
    for _ in range(3):
        tr.call("cli.import", fresh_import, root)
    return facts
