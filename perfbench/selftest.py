"""Smoke-sized self-test of the benchmark (about a minute on 2 cores).

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` keeps to its format (key sets, name and
unit syntax, counts, bounds of at most 0.25 with ``setup_s`` the largest),
runs every workload once at minimal size (``--smoke --seconds 1``) and one
traced run, and checks each result line: its keys, the metric names and
units against ``BENCHMARK.json``, positive values and zero failures.  Last,
it runs the benchmark in a directory holding only ``BENCHMARK.json`` and
the benchmark's files, where it must fail without printing a result.
Exits 1 on the first problem found.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class SelfTestError(Exception):
    pass


def require(ok, what=None) -> None:
    if not ok:
        raise SelfTestError(what)


def check_spec(spec: dict) -> None:
    require(set(spec) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, sorted(spec))
    require(1 <= len(spec["paths"]) <= 16)
    for p in spec["paths"]:
        require(PATH.match(p) and not p.startswith("/") and ".." not in p, p)
        require((ROOT / p).is_dir(), p)
    require(1 <= len(spec["command"]) <= 32)
    require(all(isinstance(c, str) and len(c) <= 200
                for c in spec["command"]))
    require(isinstance(spec["run_seconds"], int)
            and 1 <= spec["run_seconds"] <= 60)
    require(2 <= len(spec["workloads"]) <= 8)
    for w in spec["workloads"]:
        require(set(w) == {"name", "why"}, w)
        require(len(w["why"]) <= 200 and "\n" not in w["why"], w["name"])
    require(1 <= len(spec["end_to_end"]) <= 16)
    require(1 <= len(spec["per_layer"]) <= 128)
    for m in spec["end_to_end"]:
        require(set(m) == {"name", "unit", "better", "bound"}, m)
        require(0 < m["bound"] <= 0.25, m)
    for m in spec["per_layer"]:
        require(set(m) == {"name", "unit", "better"}, m)
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in spec[key]]
    require(len(names) == len(set(names)), "a name is used twice")
    for m in spec["end_to_end"] + spec["per_layer"]:
        require(NAME.match(m["name"]) and UNIT.match(m["unit"]), m)
        require(m["better"] in ("higher", "lower"), m)
    for w in spec["workloads"]:
        require(NAME.match(w["name"]), w)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    require(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower")
    require(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]))
    require(len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024)


def run(command: list[str], cwd: Path, workload: str,
        trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*command, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, expected: list[dict], label: str) -> None:
    require(proc.returncode == 0,
            f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, label)
    require(result["correct"] is True and result["failed"] == 0,
            f"{label}: {result['failed']} failed\n{proc.stderr}")
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1)
    got = result["metrics"]
    require(sorted(got) == sorted(m["name"] for m in expected),
            f"{label}: metric names differ from BENCHMARK.json")
    for m in expected:
        value = got[m["name"]]["value"]
        require(got[m["name"]]["unit"] == m["unit"], (label, m["name"]))
        require(isinstance(value, (int, float)) and math.isfinite(value),
                (label, m["name"]))
        if m["name"] != "trace.overhead_s":  # a difference of two timings
            require(value > 0, (label, m["name"], value))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("BENCHMARK.json: within limits")
    for w in spec["workloads"]:
        check_result(run(spec["command"], ROOT, w["name"], 0),
                     spec["end_to_end"],
                     f"{w['name']} --trace 0")
        print(f"{w['name']} --trace 0: ok", flush=True)
    name = spec["workloads"][0]["name"]
    check_result(run(spec["command"], ROOT, name, 1), spec["per_layer"],
                 f"{name} --trace 1")
    print(f"{name} --trace 1: ok", flush=True)

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, bare / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(spec["command"], bare, name, 0)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        require(proc.returncode != 0 and '"correct"' not in last,
                "the benchmark must fail without the program's source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("without the source: fails as required")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestError as exc:
        print(f"SELFTEST FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
