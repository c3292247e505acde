"""Steadiness check: repeat workloads over seeds and compare spreads to bounds.

    python3 perfbench/steady.py --runs 10                  # every workload
    python3 perfbench/steady.py --workloads shadow --runs 5

Each run is a fresh ``run.py --trace 0`` process with its own seed.  For
every end-to-end metric the script prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median``, and flags a spread above the metric's bound in
``BENCHMARK.json``.  The summary is also written to
``.bench_work/steady-<workloads>.json``.  Exits 1 if any run is incorrect
or any spread other than ``setup_s`` exceeds its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(names),
                   help="comma-separated subset of " + ",".join(names))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1000,
                   help="run i uses seed seed0 + i")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, bad = {}, []
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m: [] for m in bounds}
        for i in range(args.runs):
            seed = args.seed0 + i
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                bad.append(f"{workload} seed {seed}: exit {proc.returncode}"
                           f" {proc.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                bad.append(f"{workload} seed {seed}: {result['failed']} of"
                           f" {result['attempted']} operations failed")
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            shown = " ".join(f"{m}={result['metrics'][m]['value']:.5g}"
                             for m in bounds)
            print(f"{workload} seed {seed}"
                  f" ({time.perf_counter() - t0:.0f} s): {shown}", flush=True)
        summary[workload] = {}
        for m, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = spread > bounds[m]
            summary[workload][m] = {"values": vals, "median": med, "q1": q1,
                                    "q3": q3, "spread": spread,
                                    "bound": bounds[m], "over_bound": flag}
            print(f"  {workload:10s} {m:12s} median {med:10.5g}"
                  f"  q1 {q1:10.5g}  q3 {q3:10.5g}  spread {spread:6.3f}"
                  f" (bound {bounds[m]}, target < {bounds[m] / 3:.3f})"
                  + ("  OVER BOUND" if flag else ""), flush=True)
            if flag and m != "setup_s":
                bad.append(f"{workload} {m}: spread {spread:.3f} > {bounds[m]}")
    out = ROOT / ".bench_work" / f"steady-{args.workloads.replace(',', '_')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": args.seconds, "runs": args.runs,
                               "seed0": args.seed0, "workloads": summary,
                               "problems": bad}, indent=1) + "\n")
    for line in bad:
        print(f"PROBLEM {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
