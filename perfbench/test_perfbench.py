"""Tests of the benchmark itself: the oracle, the trace accounting, and one
tiny pass of every workload.

Run from the repository root:  python3 -m pytest perfbench
"""

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import oracle, run, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return workloads.WORKLOADS[name](seed=3, tiny=True)


def test_oracle_counts_a_perturbed_bound_as_failed():
    grid = tiny("coherent-grid")
    op = grid.ops[0]
    result = grid.execute(op)
    assert grid.check(op, result).passed == 1
    nudged = dict(result.bounds, delta=result.bounds["delta"] * (1.0 + 1e-5))
    verdict = grid.check(op, dataclasses.replace(result, bounds=nudged))
    assert verdict.passed == 0
    assert [(f.quantity, f.known) for f in verdict.failures] == [("delta", None)]


def test_oracle_counts_a_perturbed_csv_cell_and_a_refusal_as_failed():
    panels = tiny("figure-panels")
    op = next(o for o in panels.ops if o[0] == "fig2a/coherent_xd0.05")
    text = panels.execute(op)
    clean = panels.check(op, text)
    assert clean.passed == clean.attempted
    lines = text.splitlines()
    header = lines[1].split(",")
    column = header.index("qfim_numeric.delta_x_s")
    cells = lines[3].split(",")  # x_s = 0.323, inside the domain
    cells[column] = format(float(cells[column]) * 1.001, ".12g")
    lines[3] = ",".join(cells)
    verdict = panels.check(op, "\n".join(lines) + "\n")
    assert verdict.passed == clean.passed - 1
    assert [f.quantity for f in verdict.failures] == ["qfim_numeric.delta_x_s"]

    queries = tiny("point-queries")
    op = queries.ops[0]
    refused = queries.check(op, (3, "", "chiral-qfim: numeric failure: refused"))
    assert refused.passed == 0 and refused.failures[0].reason.startswith("refused")


def test_items_are_counted_over_the_first_pass_and_repeats_must_agree():
    grid = tiny("coherent-grid")
    ops = grid.ops[:2]
    verdicts = [grid.check(op, grid.execute(op)) for op in ops]
    records = [(0, 0.1, verdicts[0]), (1, 0.1, verdicts[1]), (0, 0.1, verdicts[0])]
    first = workloads.first_pass(grid, records)
    assert [v.attempted for v in first] == [1, 1]
    assert [v.passed for v in first] == [1, 1]

    failure = oracle.Failure(grid.name, "x", "delta", 1.0, 2.0, "off closed form", None)
    wrong = dataclasses.replace(verdicts[1], passed=0, failures=[failure])
    first = workloads.first_pass(grid, records + [(1, 0.1, wrong), (1, 0.1, wrong)])
    assert [v.passed for v in first] == [1, 0]
    assert [(f.quantity, f.known) for f in first[1].failures] == [("repeat", None)]


def test_harrell_davis_quantiles():
    values = [3.0, 1.0, 2.0, 5.0, 4.0]
    assert workloads.harrell_davis(values, 0.5) == pytest.approx(3.0)
    assert workloads.harrell_davis([7.0] * 19, 0.9) == pytest.approx(7.0)
    low, high = (workloads.harrell_davis(range(19), q) for q in (0.5, 0.9))
    assert low == pytest.approx(9.0) and 15.0 < high < 17.0


def test_known_classes_come_from_inputs():
    assert not oracle.cap_binds(2.0)
    assert oracle.cap_binds(4.0)
    edge = workloads.cq.ChiralParams(0.1, 0.0)
    assert oracle.known_class(oracle.FOCK_PAIR, edge) == "fock-pair-edge"
    assert oracle.known_class(oracle.SINGLE, edge) is None
    lossless = workloads.cq.ChiralParams(0.0, 0.0)
    assert oracle.known_class(oracle.NOON, lossless) == "lossless-endpoint"
    near_one = workloads.cq.ChiralParams.from_chiral(0.408, 0.5917, 5.11, 0.385)
    assert oracle.known_class(oracle.NOON, near_one) == "rcond-cut"
    inside = workloads.cq.ChiralParams.from_chiral(0.1, 0.5, 5.11, 0.385)
    assert oracle.known_class(oracle.NOON, inside) is None
    assert oracle.known_class(oracle.SINGLE, near_one) is None
    assert oracle.known_class(oracle.COHERENT, edge, 9.0) is None
    assert oracle.known_class(oracle.COHERENT, edge, 9.0, capped=True) == "coherent-cap"


@pytest.mark.parametrize("name", ["coherent-grid", "point-queries", "figure-panels"])
def test_layer_self_times_sum_to_traced_wall_time(name):
    traced = workloads.trace_pass(tiny(name), tracing.Tracer())
    metrics = {k: value for k, (value, _) in traced["metrics"].items()}
    self_total = sum(metrics[f"{layer}.self_ms"] for layer in tracing.LAYERS)
    wall = metrics["trace.wall_ms"]
    overhead = abs(metrics["trace.overhead_frac"]) * wall
    assert self_total <= wall
    assert wall - self_total <= overhead + 1.0
    assert traced["summary"]["calls"][tracing.ROOT] == len(traced["records"])


def _run(capsys, monkeypatch, tmp_path, name, trace):
    for var in run.BLAS_ENV + (run.THREADS_ENV,):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setitem(
        workloads.WORKLOADS, name, functools.partial(workloads.WORKLOADS[name], tiny=True)
    )
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0.2", "--trace", str(trace)])
    assert code == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["figure-panels", "coherent-grid", "point-queries"])
def test_tiny_pass_prints_every_named_metric(capsys, monkeypatch, tmp_path, name, trace):
    lines = _run(capsys, monkeypatch, tmp_path, name, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for metric in expected:
        assert any(line.startswith(f"metric {metric['name']} = ") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env: "))[5:])
    assert env["CHIRAL_QFIM_THREADS"].startswith("removed")
    assert {"nproc", "python", "numpy", "blas", "seed", "operations"} <= set(env)


def test_workload_names_and_reasons_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WHY[entry["name"]]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    argv = ["--workload", "coherent-grid", "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
