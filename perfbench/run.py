#!/usr/bin/env python3
"""Benchmark chiral_qfim end to end (``--trace 0``) or layer by layer (``--trace 1``).

Run from the repository root:

    python3 perfbench/run.py --workload coherent-grid --seed 0 --seconds 30 --trace 0

Workloads: figure-panels, coherent-grid, point-queries (why each exists:
perfbench/README.md).  The package is imported from ``src/`` of the same
checkout.  The untraced run measures the end-to-end metrics for
``--seconds`` of closed-loop operations; the traced run makes one fixed pass
of the workload, each operation untraced and traced, and reports per-layer
counts and times.  Every operation is checked against the closed forms.
Lines of text precede the result; the last line is one JSON object.
Detailed results, itemised failures and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 11
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS_ENV = "CHIRAL_QFIM_THREADS"
FAILURES_SHOWN = 25

# name -> unit; the first four are times scaled by the machine speed
END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def configure_environment() -> dict:
    """Pin BLAS to one thread and unset CHIRAL_QFIM_THREADS (before numpy loads).

    One client, one thread: on the 2-vCPU machine the benchmark was defined
    on, a second BLAS thread gave no speed on coherent-grid and made every
    operation wait whenever another process held a core.
    """
    record = {"nproc": _nproc()}
    for name in BLAS_ENV:
        os.environ[name] = "1"
        record[name] = "1"
    previous = os.environ.pop(THREADS_ENV, None)
    record[THREADS_ENV] = "unset" if previous is None else f"removed (was {previous!r})"
    return record


def import_package():
    """Import chiral_qfim from this checkout's src/, or return None."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import chiral_qfim
    except ImportError as exc:
        print(f"perfbench: cannot import chiral_qfim from {src}: {exc}", file=sys.stderr)
        return None
    if src not in Path(chiral_qfim.__file__).resolve().parents:
        print(f"perfbench: chiral_qfim resolved outside {src}", file=sys.stderr)
        return None
    return chiral_qfim


def environment(record: dict, seed: int) -> dict:
    import numpy as np

    import chiral_qfim

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        **record,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "chiral_qfim": getattr(chiral_qfim, "__version__", "?"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "machine": platform.machine(),
        "seed": seed,
    }


def setup_probe(workload: str, seed: int) -> tuple:
    """Import plus set-up time in a fresh interpreter, with the slowdown of
    that interpreter."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, slowdown = done.stdout.split()[-2:]
    return float(seconds), float(slowdown)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tally(verdicts):
    attempted = sum(v.attempted for v in verdicts)
    passed = sum(v.passed for v in verdicts)
    failures = [f for v in verdicts for f in v.failures]
    flags = {}
    for v in verdicts:
        for key, count in v.flags.items():
            flags[key] = flags.get(key, 0) + count
    return attempted, passed, failures, flags


def end_to_end_metrics(workload, records, spans, verdicts, setup, meter) -> dict:
    """End-to-end metrics as name -> (value, unit, note); each timed
    interval is scaled by the machine speed around it (calibrate.py), and
    each set-up by the speed of its interpreter (setup_probe.py)."""
    attempted, passed, _, _ = tally(verdicts)
    scaled_records = [
        (index, seconds / meter.local_slowdown(*span), verdict)
        for (index, seconds, verdict), span in zip(records, spans)
    ]
    setup_note = f"median of {len(setup)} fresh set-ups"
    raw = {
        "setup_s": (statistics.median(s for s, _ in setup), setup_note),
        **workload.end_to_end(records),
    }
    scaled = {
        "setup_s": (
            statistics.median(seconds / slowdown for seconds, slowdown in setup),
            setup_note,
        ),
        **workload.end_to_end(scaled_records),
    }
    metrics = {
        name: (value, END_TO_END[name], f"{note}; raw {raw[name][0]:.6g} {END_TO_END[name]}")
        for name, (value, note) in scaled.items()
    }
    metrics["ok_frac"] = (passed / attempted, "ratio", f"{passed}/{attempted} items of the first pass")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", "this process")
    return metrics


def report(args, workload, env, metrics, verdicts, extra_lines) -> dict:
    """Print the text lines and return the result object."""
    from perfbench import oracle, workloads

    attempted, passed, failures, flags = tally(verdicts)
    failed = attempted - passed
    unknown = [f for f in failures if f.known is None]
    by_class = {}
    for known, _ in {(f.known or "UNKNOWN", f.where) for f in failures}:
        by_class[known] = by_class.get(known, 0) + 1
    print(
        f"perfbench workload={args.workload} seed={args.seed}"
        f" seconds={args.seconds:g} trace={args.trace}"
    )
    print(f"why: {workloads.WHY[args.workload]}")
    print(f"seed: {workload.seed_note}")
    print("env: " + json.dumps(env, sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} ({note})")
    print(
        f"fail_frac = {failed / attempted:.6g}"
        f" ({failed}/{attempted} items of the first pass failed)"
    )
    for line in extra_lines:
        print(line)
    print("flags: " + json.dumps(dict(sorted(flags.items()))))
    print("failing items by known defect: " + json.dumps(dict(sorted(by_class.items()))))
    distinct = list(dict.fromkeys(f.line() for f in failures))
    print(f"failed checks: {len(failures)}, {len(distinct)} distinct")
    for line in distinct[:FAILURES_SHOWN]:
        print("  " + line)
    if len(distinct) > FAILURES_SHOWN:
        print(f"  ... {len(distinct) - FAILURES_SHOWN} more in the details file")
    for name, text in sorted(oracle.KNOWN_DEFECTS.items()):
        print(f"known defect {name}: {text}")
    return {
        "correct": not unknown,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = configure_environment()
    if import_package() is None:
        return 2
    from perfbench import calibrate, tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r}; use {known}", file=sys.stderr)
        return 2
    env = environment(record, args.seed)
    meter = calibrate.SpeedMeter()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    detail = {}
    extra_lines = []
    if args.trace:
        tracer = tracing.Tracer()
        traced = workloads.trace_pass(workload, tracer)
        records = traced["records"]
        metrics = {
            name: (value, unit, "one traced pass, unscaled")
            for name, (value, unit) in traced["metrics"].items()
        }
        summary = traced["summary"]
        extra_lines = [
            f"eigh dims seen (dim: calls): {json.dumps(dict(sorted(summary['eigh_dims'].items())))}",
            f"calls per span name: {json.dumps(dict(sorted(summary['calls'].items())))}",
        ]
        fields = ["name", "start", "end", "parent", "op", "info"]
        detail["spans"] = {"fields": fields, "rows": tracer.spans}
    else:
        # set-up probes spread over the run sample the machine at many moments
        setup = []
        probe = functools.partial(setup_probe, args.workload, args.seed)
        chores = [lambda: setup.append(probe())] * SETUP_REPEATS
        records, spans = workloads.measure(workload, args.seconds, meter, chores)
    verdicts = workloads.first_pass(workload, records)
    if not args.trace:
        metrics = end_to_end_metrics(workload, records, spans, verdicts, setup, meter)
        detail["setup_samples_s"] = [seconds for seconds, _ in setup]
    env["machine_slowdown"] = meter.slowdown()
    env["speed_samples"] = sum(len(group) for group in meter.samples)
    env["operations"] = {
        "executed": len(records),
        "per_pass": len(workload.ops),
        "items_executed": sum(v.attempted for _, _, v in records),
        "items_attempted": sum(v.attempted for v in verdicts),
    }
    result = report(args, workload, env, metrics, verdicts, extra_lines)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.update(
        env=env,
        metrics={k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
        op_seconds=[[index, seconds] for index, seconds, _ in records],
        failures=[dataclasses.asdict(f) for v in verdicts for f in v.failures],
    )
    out.write_text(json.dumps(detail))
    print(f"details: {os.path.relpath(out, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
