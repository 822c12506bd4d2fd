"""The benchmark's workloads and the closed loop that measures them.

Every workload is one client in a closed loop: each operation starts when
the previous one returns, and its output is checked against the closed
forms before the next starts (the check is not timed).  Inputs come only
from the seed; one pass of a workload is a fixed list of operations, and a
run makes at least one whole pass and repeats passes until its time is up.
Items attempted and failed are counted over the first pass, so they depend
on the seed alone; later passes are timed and checked against it.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import random
import statistics
import time
from collections import Counter

import numpy as np

import chiral_qfim as cq
from chiral_qfim import cli, estimation, experiments

from . import oracle
from .oracle import COHERENT, FOCK_PAIR, NOON, SINGLE, Failure
from .tracing import per_layer_metrics, summarize

WHY = {
    "figure-panels": (
        "figure-regeneration traffic (sweep presets fig2a and fig4): per-call"
        " Python and validation overhead and the six-propagation intensity"
        " route dominate, on 4-, 9-, 121- and 169-dim states"
    ),
    "coherent-grid": (
        "large-matrix linalg/estimation/channel work on product inputs in"
        " real arithmetic: acceptance check 1's grid at n0 = 1, 4 plus an"
        " n0 = 9 tier, 121- to 625-dim states"
    ),
    "point-queries": (
        "interactive single-point `bounds --json` calls that pay state"
        " preparation, validation and CLI parsing every time, in complex"
        " arithmetic, where the coherent cutoff cap returns wrong numbers"
    ),
}

FIGURE_PANELS = ("fig2a", "fig4")  # fig3a repeats fig2a's specs
TINY_MEMBERS = ("fig2a/coherent_xd0.05", "fig2a/fock_pair_xd0.05", "fig4/noon")
GRID_TIERS = (1.0, 4.0, 9.0)
GRID_BUDGET = 1e-10
# the n0 = 9 tier keeps these x_d columns of every x_s row (40 of 100
# points), so it holds 1/6 of the operations and p90 falls inside it
GRID_N9_XD_COLUMNS = (0, 3, 6, 9)
QUERY_COUNTS = {COHERENT: 240, SINGLE: 80, NOON: 80}
QUERY_N0_RANGE = (0.5, 64.0)
_STATE_FLAGS = {COHERENT: "coherent", SINGLE: "single-photon", NOON: "noon"}


@dataclasses.dataclass
class Verdict:
    """Outcome of checking one operation: items checked and passed."""

    attempted: int
    passed: int
    failures: list
    flags: Counter = dataclasses.field(default_factory=Counter)
    changed: bool = False


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile (0 < q < 1): the mean of
    all order statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass on
    each [i/n, (i+1)/n].  With few values it is far steadier than a single
    order statistic (Harrell & Davis, Biometrika 69, 635 (1982))."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    t = np.linspace(0.0, 1.0, 100 * n + 1)[1:-1]
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    return float(np.diff(cdf[::100]) @ x / cdf[-1])


# ---------------------------------------------------------------------------
# figure-panels
# ---------------------------------------------------------------------------


def _oracle_params(spec, value: float):
    """Channel parameters at a grid value, built apart from SweepSpec."""
    if spec.vary == "alpha":
        delta = spec.fixed.get("delta", 0.0)
        sigma = spec.fixed.get("sigma", 0.0)
        return cq.ChiralParams(value, value, (sigma + delta) / 2.0, (sigma - delta) / 2.0)
    coords = {name: spec.fixed.get(name, 0.0) for name in cq.CHIRAL_NAMES}
    coords[spec.vary] = value
    return cq.ChiralParams.from_chiral(**coords)


def _cell(text: str):
    return float(text) if text else None


def _status_entries(text: str) -> list:
    """Split a status cell on ';', rejoining message text that held one."""
    entries = []
    for part in text.split(";") if text else ():
        if part.startswith(" ") and entries:
            entries[-1] += ";" + part
        else:
            entries.append(part)
    return entries


class FigurePanels:
    """fig2a then fig4 through ``run_sweep`` plus CSV text; 19 member sweeps.

    An operation is one member sweep; the checked items are its grid rows.
    The presets are fixed, so the seed is unused.
    """

    name = "figure-panels"
    seed_note = "seed unused: the figure presets are fixed"

    def __init__(self, seed: int, tiny: bool = False):
        presets = experiments.figure_presets()
        ops = []
        for panel in FIGURE_PANELS:
            for label, spec in presets[panel]:
                ops.append((f"{panel}/{label}", spec))
        if tiny:
            ops = [
                (label, dataclasses.replace(spec, points=4))
                for label, spec in ops
                if label in TINY_MEMBERS
            ]
        self.ops = ops
        self.oracle = oracle.Oracle()

    def execute(self, op):
        _, spec = op
        rows = experiments.run_sweep(spec)
        return experiments.sweep_to_csv_text(rows, spec)

    def check(self, op, text: str) -> Verdict:
        label, spec = op
        lines = text.splitlines()
        grid = np.linspace(spec.start, spec.stop, spec.points)
        if not lines or not lines[0].startswith("# spec:") or len(lines) != spec.points + 2:
            failure = Failure(self.name, label, "csv", None, None, "malformed CSV", None)
            return Verdict(spec.points, 0, [failure])
        reader = csv.reader(lines[1:])
        header = next(reader)
        verdict = Verdict(spec.points, 0, [])
        for value, cells in zip(grid, reader):
            row = dict(zip(header, cells))
            failures = self._check_row(label, spec, float(value), row, verdict.flags)
            verdict.failures.extend(failures)
            verdict.passed += not failures
        return verdict

    def _check_row(self, label, spec, value, row, flags) -> list:
        kind = spec.input_state.kind
        where = f"{label} {spec.vary}={value:.6g}"
        status = _status_entries(row.get("status", ""))
        coordinate = _cell(row.get(spec.vary, ""))
        if coordinate is None or abs(coordinate - value) > 1e-9 * max(1.0, abs(value)):
            return [Failure(self.name, where, spec.vary, coordinate, value, "grid coordinate", None)]
        try:
            params = _oracle_params(spec, value)
        except cq.DomainError:
            ok = len(status) == 1 and status[0].startswith("invalid-point")
            flags["invalid-point (expected)" if ok else "invalid-point (missing)"] += 1
            reason = "outside the domain but not flagged invalid"
            return [] if ok else [Failure(self.name, where, "status", None, None, reason, None)]
        n0 = spec.input_state.mean_photons if kind == COHERENT else None
        known = oracle.known_class(kind, params, n0)

        def fail(quantity, reason, numeric=None):
            return Failure(self.name, where, quantity, numeric, None, reason, known)

        failures = []
        for entry in status:
            method = entry.split(":", 1)[0]
            if entry.startswith("invalid-point"):
                failures.append(fail("status", "valid point flagged invalid"))
            elif entry.endswith(":unidentifiable"):
                expected = kind == FOCK_PAIR and method == "qfim_numeric.delta_delta"
                flags[f":unidentifiable ({'expected' if expected else 'unexpected'})"] += 1
            elif ":failed:" in entry:
                flags[method + ":failed"] += 1
                failures.append(fail(method, "refused: " + entry))
            else:
                flags[":".join(entry.split(":")[:2])] += 1
        try:
            closed = self.oracle.bounds(kind, params, n0)
            closed_intensity = self.oracle.intensity(kind, params, n0)
        except cq.DomainError as exc:
            return failures + [fail("closed form", f"no closed form: {exc}")]
        for method, refs in (("qfim_numeric", closed), ("intensity_exact", closed_intensity)):
            if f"{method}.delta_x_d" not in row:
                continue
            values = {q: _cell(row.get(f"{method}.delta_{q}", "")) for q in refs}
            failures += oracle.compare(self.name, where, values, refs, known, f"{method}.delta_")
        delta_cell = row.get("qfim_numeric.delta_delta", "")
        if kind == FOCK_PAIR and delta_cell:
            reason = "the fock_pair probe carries no delta information"
            failures.append(fail("qfim_numeric.delta_delta", reason, _cell(delta_cell)))
        return failures

    def end_to_end(self, records) -> dict:
        """Latency and throughput of one median pass.

        Member sweeps differ 40-fold in cost, so each member's median time
        (and passed-row count) over the run's passes enters once; partial
        passes then cannot shift the mix.  A run holds two or three passes,
        so the latency quantiles over the 19 member medians are
        Harrell-Davis estimates rather than single order statistics.
        """
        times, passed = {}, {}
        for index, seconds, verdict in records:
            times.setdefault(index, []).append(seconds)
            passed.setdefault(index, []).append(verdict.passed)
        med_t = [statistics.median(times[i]) for i in sorted(times)]
        med_pass = [statistics.median(passed[i]) for i in sorted(passed)]
        medians = f"{len(med_t)} member medians over {len(records)} sweeps"
        few = medians + "; Harrell-Davis quantile, not sample-supported"
        return {
            "points_per_s": (sum(med_pass) / sum(med_t), medians),
            "op_ms_p50": (harrell_davis(med_t, 0.5) * 1e3, few),
            "op_ms_p90": (harrell_davis(med_t, 0.9) * 1e3, few),
        }


# ---------------------------------------------------------------------------
# coherent-grid
# ---------------------------------------------------------------------------


def _grid_points(rng, n0: float) -> list:
    """Acceptance check 1's 10x10 grid; seeds other than 0 jitter each point
    inside its cell and inside the wedge x_d <= min(0.2 (1 - x_s), x_s)."""
    xs_grid = np.linspace(0.05, 0.9, 10)
    xs_half = (xs_grid[1] - xs_grid[0]) / 2.0
    points = []
    for x_s in xs_grid:
        if rng is not None:
            x_s = min(0.9, max(0.05, x_s + rng.uniform(-xs_half, xs_half)))
        xd_max = min(0.2 * (1.0 - x_s), x_s)
        xd_grid = np.linspace(0.0, xd_max, 10)
        xd_half = (xd_grid[1] - xd_grid[0]) / 2.0
        for j, x_d in enumerate(xd_grid):
            if n0 == 9.0 and j not in GRID_N9_XD_COLUMNS:
                continue
            if rng is not None:
                x_d = min(xd_max, max(0.0, x_d + rng.uniform(-xd_half, xd_half)))
            points.append((float(x_d), float(x_s)))
    return points


class CoherentGrid:
    """``compute_bounds`` for the four chiral parameters on coherent probes
    with uncapped truncation (budget 1e-10) and zero phases."""

    name = "coherent-grid"
    seed_note = "seed 0 is acceptance check 1's grid; other seeds jitter it"

    def __init__(self, seed: int, tiny: bool = False):
        rng = None if seed == 0 else random.Random(seed)
        self.states = {}
        tiers = []
        for n0 in GRID_TIERS:
            amp_p, amp_m = cq.hv_to_pm_amplitudes(math.sqrt(n0), 0.0)
            space, effective = cq.default_coherent_space(
                amp_p, amp_m, budget=GRID_BUDGET, cap=None
            )
            self.states[n0] = cq.coherent_product_state(
                space, amp_p, amp_m, truncation_budget=effective
            )
            points = _grid_points(rng, n0)
            tiers.append([(n0, x_d, x_s) for x_d, x_s in (points[::25] if tiny else points)])
        # interleave the tiers evenly so any prefix of a pass has their mix
        keyed = [
            ((j + 0.5) / len(tier), t, op)
            for t, tier in enumerate(tiers)
            for j, op in enumerate(tier)
        ]
        self.ops = [op for _, _, op in sorted(keyed)]
        self.oracle = oracle.Oracle()

    def execute(self, op):
        n0, x_d, x_s = op
        params = cq.ChiralParams.from_chiral(x_d, x_s, 0.0, 0.0)
        return estimation.compute_bounds(self.states[n0], params, cq.CHIRAL_NAMES)

    def check(self, op, result) -> Verdict:
        n0, x_d, x_s = op
        params = cq.ChiralParams.from_chiral(x_d, x_s, 0.0, 0.0)
        where = f"n0={n0:g} x_d={x_d:.6g} x_s={x_s:.6g}"
        closed = self.oracle.bounds(COHERENT, params, n0)
        numeric = {q: result.bounds.get(q) for q in closed}
        failures = oracle.compare(self.name, where, numeric, closed, None)
        return Verdict(1, int(not failures), failures)

    def end_to_end(self, records) -> dict:
        return _per_op_metrics(records)


def _per_op_metrics(records) -> dict:
    times = [seconds for _, seconds, _ in records]
    passed = sum(verdict.passed for _, _, verdict in records)
    n = f"{len(times)} ops"
    return {
        "points_per_s": (passed / sum(times), n),
        "op_ms_p50": (percentile(times, 50) * 1e3, n),
        "op_ms_p90": (percentile(times, 90) * 1e3, n),
    }


# ---------------------------------------------------------------------------
# point-queries
# ---------------------------------------------------------------------------


def _interior_point(rng) -> tuple:
    """Uniform in the open domain 0 < alpha_+, alpha_- < 1."""
    while True:
        x_s = rng.uniform(0.0, 1.0)
        x_d = rng.uniform(-0.5, 0.5)
        if x_s - abs(x_d) > 0.0 and x_s + abs(x_d) < 1.0:
            return x_d, x_s


class PointQueries:
    """Seeded single-point ``bounds --json`` calls through ``cli.main``.

    Per pass: 60% coherent with n0 log-uniform on [0.5, 64] (stratified, so
    the n0 mix is the same for every seed) through the default capped
    truncation, 20% single-photon, 20% NOON; phases uniform on [0, 2 pi).
    """

    name = "point-queries"
    seed_note = "queries are drawn from the seed"

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        lo, hi = QUERY_N0_RANGE
        queries = []
        for kind, count in QUERY_COUNTS.items():
            count = max(1, count // 40) if tiny else count
            for i in range(count):
                n0 = lo * (hi / lo) ** ((i + rng.random()) / count) if kind == COHERENT else None
                x_d, x_s = _interior_point(rng)
                delta, sigma = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
                # "--xd=-3.5e-05": argparse reads a separate "-3.5e-05" as an option
                argv = [
                    "bounds", f"--state={_STATE_FLAGS[kind]}", f"--xd={x_d!r}",
                    f"--xs={x_s!r}", f"--delta={delta!r}", f"--sigma={sigma!r}", "--json",
                ]
                if n0 is not None:
                    argv.append(f"--n0={n0!r}")
                queries.append((kind, n0, x_d, x_s, delta, sigma, argv))
        rng.shuffle(queries)
        self.ops = queries
        self.oracle = oracle.Oracle()

    def execute(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op[-1])
        return code, out.getvalue(), err.getvalue()

    def check(self, op, output) -> Verdict:
        kind, n0, x_d, x_s, delta, sigma, _ = op
        code, out, err = output
        params = cq.ChiralParams.from_chiral(x_d, x_s, delta, sigma)
        known = oracle.known_class(kind, params, n0, capped=True)
        where = " ".join(arg for arg in op[-1][1:] if arg != "--json")
        if code != 0:
            reason = f"refused with exit {code}: {err.strip()}"
            failure = Failure(self.name, where, "exit", None, None, reason, known)
            return Verdict(1, 0, [failure], Counter({f"exit {code}": 1}))
        try:
            bounds = json.loads(out)["bounds"]
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"unreadable JSON: {exc}"
            failure = Failure(self.name, where, "output", None, None, reason, known)
            return Verdict(1, 0, [failure])
        closed = self.oracle.bounds(kind, params, n0)
        failures = oracle.compare(self.name, where, bounds, closed, known)
        return Verdict(1, int(not failures), failures)

    def end_to_end(self, records) -> dict:
        return _per_op_metrics(records)


WORKLOADS = {cls.name: cls for cls in (FigurePanels, CoherentGrid, PointQueries)}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def _attempt(workload, op):
    """Run one operation; a raised exception is a failed result, not a crash."""
    try:
        return workload.execute(op), None
    except Exception as exc:  # the loop must outlive a failing operation
        return None, f"{type(exc).__name__}: {exc}"


def _raised(workload, op, index: int, message: str) -> Verdict:
    items = op[1].points if isinstance(workload, FigurePanels) else 1
    failure = Failure(workload.name, f"op {index}", "raised", None, None, message, None)
    return Verdict(items, 0, [failure], Counter({"raised": 1}))


def measure(workload, seconds: float, meter, chores=()) -> tuple:
    """Closed loop over one whole pass, then over repeated passes until
    ``seconds`` of wall time.

    Returns (pass index, timed seconds, verdict) per operation and the
    (start, end) of each.  The oracle, the machine speed samples of
    ``meter`` and the ``chores`` (callables, spread evenly over the
    ``seconds``) run between operations and are not timed.
    """
    records, spans = [], []
    ops = workload.ops
    chores = list(chores)
    every = seconds / max(1, len(chores))
    start = time.perf_counter()
    i = done = 0
    meter.sample()
    while i < len(ops) or time.perf_counter() < start + seconds:
        index = i % len(ops)
        op = ops[index]
        t0 = time.perf_counter()
        output, error = _attempt(workload, op)
        t1 = time.perf_counter()
        verdict = _raised(workload, op, index, error) if error else workload.check(op, output)
        records.append((index, t1 - t0, verdict))
        spans.append((t0, t1))
        if done < len(chores) and time.perf_counter() >= start + done * every:
            chores[done]()
            done += 1
            meter.sample()
        else:
            meter.maybe_sample()
        i += 1
    for chore in chores[done:]:
        chore()
    meter.sample()
    return records, spans


def _outcome(verdict) -> tuple:
    return verdict.passed, sorted((f.where, f.quantity) for f in verdict.failures)


def first_pass(workload, records) -> list:
    """The verdict of each operation's first execution, in pass order.

    A later execution whose outcome differs from the first adds an
    unclassified failure to that operation: the same inputs must give the
    same verdict.
    """
    first = {}
    for index, _, verdict in records:
        seen = first.get(index)
        if seen is None:
            first[index] = verdict
        elif _outcome(verdict) != _outcome(seen) and not seen.changed:
            reason = f"outcome differs between passes: {_outcome(seen)} then {_outcome(verdict)}"
            failure = Failure(workload.name, f"op {index}", "repeat", None, None, reason, None)
            first[index] = dataclasses.replace(
                seen, passed=0, failures=seen.failures + [failure], changed=True
            )
    return [first[index] for index in sorted(first)]


def trace_pass(workload, tracer) -> dict:
    """One full pass, each operation run untraced and traced in turn.

    The order alternates between operations so that warm caches favour
    neither side; the traced outputs are checked.
    """
    untraced = traced = 0.0
    records = []
    oracle_before = workload.oracle.closed_s
    for index, op in enumerate(workload.ops):
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if not with_trace:
                t0 = time.perf_counter()
                _attempt(workload, op)
                untraced += time.perf_counter() - t0
                continue
            with tracer.installed():
                t0 = time.perf_counter()
                with tracer.operation(index):
                    output, error = _attempt(workload, op)
                elapsed = time.perf_counter() - t0
            traced += elapsed
            verdict = _raised(workload, op, index, error) if error else workload.check(op, output)
            records.append((index, elapsed, verdict))
    summary = summarize(tracer.spans)
    oracle_s = workload.oracle.closed_s - oracle_before
    metrics = per_layer_metrics(summary, traced, untraced, oracle_s)
    return {"records": records, "metrics": metrics, "summary": summary}
