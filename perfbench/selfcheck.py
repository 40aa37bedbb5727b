#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark itself.

Usage (from the root of a checkout)::

    python3 perfbench/selfcheck.py [--scale 0.1] [--seed 7]

For every workload in ``BENCHMARK.json`` it runs ``perfbench/run.py``
at a small ``--scale``, twice untraced and twice traced with the same
seed, and checks that

* every metric ``BENCHMARK.json`` lists is printed, with its unit;
* the counts that depend only on the seed repeat exactly:
  ``maint.repartitions``, ``dpt.partial_leaves_per_query``,
  ``routing.shards_touched_mean``, ``synopsis_bytes_per_data_byte``
  and the ``serve_read`` accuracy metrics;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  own files, the command fails without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEED_COUNTS_TRACED = ("maint.repartitions", "dpt.partial_leaves_per_query",
                      "routing.shards_touched_mean")
SEED_COUNTS = ("synopsis_bytes_per_data_byte",)
SEED_ACCURACY = ("median_rel_error", "p95_rel_error", "ci_coverage")


def run(cwd: Path, command, workload: str, seed: int, trace: int,
        scale: float, seconds: int):
    args = list(command) + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace",
                            str(trace), "--scale", str(scale)]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc) -> dict:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"run failed ({proc.returncode}):\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            results = []
            for _ in range(2):
                proc = run(ROOT, spec["command"], workload, args.seed,
                           trace, args.scale, spec["run_seconds"])
                try:
                    results.append(result_of(proc))
                except AssertionError as exc:
                    problems.append(f"{workload} trace={trace}: {exc}")
                    break
            if len(results) < 2:
                continue
            first, second = results
            for name, unit in units[trace].items():
                got = first["metrics"].get(name)
                if got is None or got.get("unit") != unit:
                    problems.append(f"{workload} trace={trace}: {name} "
                                    f"missing or not in {unit}: {got}")
            repeat = SEED_COUNTS_TRACED if trace else SEED_COUNTS + (
                SEED_ACCURACY if workload == "serve_read" else ())
            for name in repeat:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                if a != b:
                    problems.append(f"{workload} trace={trace}: {name} "
                                    f"differs for one seed: {a} vs {b}")
            print(f"{workload} trace={trace}: "
                  f"{len(first['metrics'])} metrics, seed counts "
                  f"{[first['metrics'][n]['value'] for n in repeat]}")

    bare = ROOT / ".perfbench_tmp" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["command"], spec["workloads"][0]["name"], 1, 0,
               args.scale, spec["run_seconds"])
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("bare directory: the command did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
