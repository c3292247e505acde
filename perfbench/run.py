"""Run one tricentre benchmark workload and print its metrics.

    python3 perfbench/run.py --workload alphabet --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run sets up the workload several times (``setup_s``
is the median), then repeats the timed body until ``--seconds`` have passed
(at least ``min_passes`` times); ``wall_s`` is the sum over the body's units
of each unit's median time across the passes.  Both times are calibrated
against machine-speed samples taken while they run (see ``calibration.py``),
so that the speed changes of a shared machine cancel.  With
``--trace 1`` it sets up once and runs the same untraced loop, for
``process.cpu_s`` and the reference time of ``trace.overhead_s``; then it
runs one traced pass of every workload plus the layer probes, so that
every per-layer metric comes from every traced run.  Every
pass is checked for correctness outside its timed body.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment and the metrics in readable form.  Spans of a traced run are
written to ``.bench_work/trace-<workload>-seed<seed>.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; PER_CALL and PER_UNIT say how span times become
# metrics, the counts come from the workloads' facts and the probes
LAYER_UNITS = {
    "special.complete_elliptic_k.us": "us",
    "periods.solve_resonant_a1.ms": "ms",
    "periods.solve_beta_for_energy.ms": "ms",
    "periods.calls": "count",
    "arcs.resonant_params.ms": "ms",
    "arcs.primary_collision_check.ms": "ms",
    "arcs.nondegeneracy_certificate.ms": "ms",
    "arcs.find_admissible_beta.ms": "ms",
    "arcs.safe_fraction": "fraction",
    "arcs.arc_family.s": "s",
    "arcs.accepted_steps": "count",
    "arcs.closure_error.max": "length",
    "dynamics.integrate.us_per_step": "us",
    "dynamics.integrate_events.us_per_step": "us",
    "dynamics.integrate_short.ms_per_call": "ms",
    "dynamics.state_at.us_scalar": "us",
    "dynamics.state_at.us_per_point_vector": "us",
    "chains.build_graph.ms": "ms",
    "chains.count_periodic_chains.ms": "ms",
    "chains.entropy_estimate.ms": "ms",
    "chains.nodes": "count",
    "chains.edges": "count",
    "shadow.shoot_segment.s.1e-2": "s",
    "shadow.shoot_segment.s.1e-3": "s",
    "shadow.shoot_segment.s.1e-4": "s",
    "shadow.newton_iterations.1e-2": "count",
    "shadow.newton_iterations.1e-3": "count",
    "shadow.newton_iterations.1e-4": "count",
    "shadow.local_expansion_rate.ms": "ms",
    "shadow.converged_fraction": "fraction",
    "cli.import_s": "s",
    "cli.periods.s": "s",
    "cli.check_safe.s": "s",
    "cli.check_unsafe.s": "s",
    "cli.arcs.s": "s",
    "cli.figs3.s": "s",
    "cli.figs6.s": "s",
    "cli.bytes_written": "bytes",
    "figdata.orbit_family_portrait.s": "s",
    "figdata.orbit_bundle_through.s": "s",
    **{f"{layer}.self_s": "s" for layer in (
        "special", "periods", "dynamics", "arcs", "chains", "shadow",
        "figdata", "cli")},
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}

# mean seconds per span of one name, scaled: metric -> (span name, scale)
PER_CALL = {
    "periods.solve_resonant_a1.ms": ("periods.solve_resonant_a1", 1e3),
    "periods.solve_beta_for_energy.ms": ("periods.solve_beta_for_energy", 1e3),
    "arcs.resonant_params.ms": ("arcs.resonant_params", 1e3),
    "arcs.primary_collision_check.ms": ("arcs.primary_collision_check", 1e3),
    "arcs.nondegeneracy_certificate.ms": ("arcs.nondegeneracy_certificate", 1e3),
    "arcs.find_admissible_beta.ms": ("arcs.find_admissible_beta", 1e3),
    "arcs.arc_family.s": ("arcs.arc_family", 1.0),
    "dynamics.integrate_short.ms_per_call": ("dynamics.integrate_short", 1e3),
    "chains.build_graph.ms": ("chains.build_graph", 1e3),
    "chains.entropy_estimate.ms": ("chains.entropy_estimate", 1e3),
    "shadow.shoot_segment.s.1e-2": ("shadow.shoot_segment.1e-2", 1.0),
    "shadow.shoot_segment.s.1e-3": ("shadow.shoot_segment.1e-3", 1.0),
    "shadow.shoot_segment.s.1e-4": ("shadow.shoot_segment.1e-4", 1.0),
    "shadow.local_expansion_rate.ms": ("shadow.local_expansion_rate", 1e3),
    "cli.import_s": ("cli.import", 1.0),
    "figdata.orbit_family_portrait.s": ("figdata.orbit_family_portrait", 1.0),
    "figdata.orbit_bundle_through.s": ("figdata.orbit_bundle_through", 1.0),
    **{f"cli.{c}.s": (f"cli.{c}", 1.0) for c in (
        "periods", "check_safe", "check_unsafe", "arcs", "figs3", "figs6")},
}

# total span seconds divided by a count from the probes
PER_UNIT = {
    "special.complete_elliptic_k.us": ("special.complete_elliptic_k",
                                       "special.complete_elliptic_k.calls", 1e6),
    "dynamics.integrate.us_per_step": ("dynamics.integrate",
                                       "dynamics.integrate.steps", 1e6),
    "dynamics.integrate_events.us_per_step": (
        "dynamics.integrate_events", "dynamics.integrate_events.steps", 1e6),
    "dynamics.state_at.us_scalar": ("dynamics.state_at_scalar",
                                    "dynamics.state_at_scalar.calls", 1e6),
    "dynamics.state_at.us_per_point_vector": (
        "dynamics.state_at_vector", "dynamics.state_at_vector.points", 1e6),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("alphabet", "shadow", "safety_map", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the timed loop repeats the workload body")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal workload sizes, for the self-test")
    return p.parse_args(argv)


def environment(args) -> dict:
    import numpy
    import tricentre
    src = ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "numba_enabled": bool(tricentre.NUMBA_ENABLED),
            "git_sha": sha, "source_sha256": digest.hexdigest()}


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def timed_loop(wl, seconds: float, tally) -> list[tuple]:
    """Repeat the workload body for `seconds`; gate each pass outside its timing.

    Returns per pass its start and end, its CPU seconds and the
    (start, end) of each of its units.
    """
    from tracing import NullTracer
    passes = []
    start = time.perf_counter()
    k = 0
    while k < wl.min_passes or time.perf_counter() - start < seconds:
        inp = wl.inputs(k)
        tr = NullTracer()
        c0, t0 = cpu_seconds(), time.perf_counter()
        res = wl.run(tr, inp)
        passes.append((t0, time.perf_counter(), cpu_seconds() - c0, tr.laps))
        wl.check(k, inp, res, tally)
        k += 1
    return passes


def untraced_run(args, workloads, tally) -> dict:
    """End-to-end metrics, timed against the machine-speed samples.

    ``setup_s`` is the median calibrated set-up; ``wall_s`` is the sum over
    the body's units of each unit's median calibrated time across passes.
    """
    from calibration import SpeedSampler
    from tracing import NullTracer
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.smoke)
    try:
        with SpeedSampler() as sampler:
            setups = []
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                workloads.fresh_import(ROOT)
                wl.setup(NullTracer())
                setups.append((t0, time.perf_counter()))
            passes = timed_loop(wl, args.seconds, tally)
    finally:
        wl.close()
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "cli":
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    walls = [t1 - t0 for t0, t1, _, _ in passes]
    print(f"uncalibrated: setup median"
          f" {statistics.median(b - a for a, b in setups):.4f} s;"
          f" {len(walls)} passes, median {statistics.median(walls):.4f} s: "
          + " ".join(f"{w:.4f}" for w in walls)
          + f"; reference loop median"
          f" {statistics.median(sampler.durations) * 1e3:.4f} ms")
    units = passes[0][3]
    wall = sum(statistics.median(sampler.calibrated(*p[3][unit]) for p in passes)
               for unit in units)
    return {"setup_s": statistics.median(sampler.calibrated(a, b)
                                         for a, b in setups),
            "wall_s": wall,
            "peak_rss_mb": usage / 1024.0}


def traced_run(args, workloads, tally) -> dict:
    """Per-layer metrics: the untraced loop, then the traced layer pass."""
    from calibration import SpeedSampler
    from tracing import NullTracer, Tracer
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.smoke)
    tr = Tracer()
    facts: dict = {}
    with SpeedSampler() as sampler:
        try:
            wl.setup(NullTracer())
            passes = timed_loop(wl, args.seconds, tally)
        finally:
            wl.close()
        for name, cls in workloads.WORKLOADS.items():
            other = cls(ROOT, args.seed, args.smoke)
            try:
                with tr.span(f"setup.{name}"):
                    other.setup(tr)
                inp = other.inputs(0)
                with tr.span(f"pass.{name}"):
                    res = other.run(tr, inp)
                other.check(0, inp, res, tally)
                facts.update(other.facts(res))
            finally:
                other.close()
            if name == "shadow":
                shadow_arc = other.arc
        facts.update(workloads.probes(tr, ROOT, shadow_arc, args.seed))

    traced = tr.named(f"pass.{args.workload}")[0]
    untraced = statistics.median(sampler.calibrated(t0, t1)
                                 for t0, t1, _, _ in passes)
    metrics = layer_metrics(tr, facts)
    metrics["process.cpu_s"] = statistics.median(p[2] for p in passes)
    metrics["trace.overhead_s"] = (sampler.calibrated(traced.start, traced.end)
                                   - untraced)
    out = ROOT / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"env": environment(args), "facts": facts,
                               "spans": tr.to_json()}, indent=1) + "\n")
    print(f"spans: {len(tr.spans)} written to {out.relative_to(ROOT)}")
    return metrics


def layer_metrics(tr, facts: dict) -> dict:
    out = {}
    for metric, (span, scale) in PER_CALL.items():
        spans = tr.named(span)
        if spans:
            out[metric] = scale * sum(s.duration for s in spans) / len(spans)
    for metric, (span, count_key, scale) in PER_UNIT.items():
        spans = tr.named(span)
        if spans and facts.get(count_key):
            out[metric] = scale * sum(s.duration for s in spans) / facts[count_key]
    counts = tr.named("chains.count_periodic_chains")
    if counts:  # one alphabet pass asks for P_1 .. P_12
        out["chains.count_periodic_chains.ms"] = 1e3 * sum(s.duration
                                                           for s in counts)
    out["periods.calls"] = tr.call_counts().get("periods", 0)
    for layer, seconds in tr.self_times().items():
        if f"{layer}.self_s" in LAYER_UNITS:
            out[f"{layer}.self_s"] = seconds
    for key, value in facts.items():
        if key in LAYER_UNITS:
            out[key] = value
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tricentre" / "__init__.py").is_file():
        print(f"tricentre source not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from workloads import Tally

    # One CPU for this process, its calibration thread and its children, so
    # that the machine-speed samples time the CPU the workload runs on.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass

    print(json.dumps({"env": environment(args)}, sort_keys=True))
    tally = Tally()
    if args.trace:
        values = traced_run(args, workloads, tally)
        units = LAYER_UNITS
    else:
        values = untraced_run(args, workloads, tally)
        units = END_TO_END_UNITS
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    for message in tally.messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    print(f"failed_fraction = {tally.failed / max(tally.attempted, 1):.6g}"
          f" ({tally.failed} of {tally.attempted} operations)")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
