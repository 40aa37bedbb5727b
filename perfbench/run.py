#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload stream_ingest --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` runs the workload untraced and reports its end-to-end
metrics; ``--trace 1`` runs it once untraced and once with span
recorders wrapped around the program's layer boundaries, and reports
the per-layer metrics (plus the tracing overhead between the two).
Progress and detail go to stderr; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness check prints no result and exits 1.  ``--scale`` shrinks
the data for the self-check (``perfbench/selfcheck.py``).

See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stream_ingest", "serve_read", "serve_mixed")

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("ingest_rows_per_s", "rows/s"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("qps_at_slo", "1/s"),
    ("median_rel_error", "ratio"),
    ("p95_rel_error", "ratio"),
    ("ci_coverage", "ratio"),
    ("synopsis_bytes_per_data_byte", "B/B"),
    ("peak_rss_mb", "MB"),
    ("cpu_ms_per_op", "ms"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="data/duration scale (self-check only)")
    return parser.parse_args(argv)


_T0 = time.perf_counter()


def log(message: str) -> None:
    print(f"[perfbench {time.perf_counter() - _T0:6.1f}s] {message}",
          file=sys.stderr, flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no program source at {ROOT / 'src'}; run from a checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import importlib

    import harness
    import layers
    import tracing

    workload = importlib.import_module(args.workload)

    def recorder():
        rec = tracing.SpanRecorder()
        tracing.install(rec)
        return rec

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    t0 = time.perf_counter()
    try:
        # The steal clock's sampling thread only runs for the workloads
        # that read it: in a single-threaded closed loop its wake-ups
        # would only take the GIL from the measured thread.
        with (harness.StealClock() if getattr(workload, "STEAL_CLOCK", True)
              else contextlib.nullcontext()) as clock:
            result = workload.run(seed=args.seed, seconds=args.seconds,
                                  trace=bool(args.trace), scale=args.scale,
                                  rec_factory=recorder, tmp=tmp, log=log,
                                  clock=clock)
    except harness.InvalidRun as exc:
        log(f"INVALID run: {exc}")
        return 3
    except harness.BenchmarkFailure as exc:
        log(f"FAILED correctness check: {exc}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    log(f"{args.workload} seed={args.seed} trace={args.trace} took "
        f"{time.perf_counter() - t0:.1f}s")

    units = dict(layers.PER_LAYER if args.trace else END_TO_END)
    rec = result.get("recorder")
    if rec is not None:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        rec.write(path)
        log(f"{len(rec.spans)} spans written to {path.relative_to(ROOT)}")
    metrics = result["metrics"]
    missing = set(units) - set(metrics)
    if missing:
        log(f"workload did not report {sorted(missing)}")
        return 1
    for name, unit in units.items():
        log(f"  {name:36s} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
