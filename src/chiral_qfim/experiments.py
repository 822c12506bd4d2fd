"""Parameter-grid sweeps, intensity statistics, and comparison reports.

The sweep engine evaluates quantum and classical sensitivity methods over
one-dimensional parameter grids and writes the results as CSV, one row per
grid point with one column per (method, quantity) pair.  A sweep stays on
its validated ``ParamGrid``, through one grid pass per method (array
formulas for the closed forms), to its CSV columns.  Per-point
failures (invalid parameter combinations, unidentifiable parameters,
vanishing derivatives, closed-form domain limits, failed numeric checks)
never abort a sweep; they are recorded in the row's status column and the
affected cells stay empty.

The ``intensity_exact`` columns read the input populations alone: loss
thins each mode binomially, so each mode's output mean is η times its
input mean, its slope is minus the input mean, and each signal's
variance follows, by the law of total variance, from the thinning and
the conditional output means on the input populations, as sums of
non-negative terms; no loss kernel is called and no output population is
formed.

``figure_presets`` returns the grids behind the three reference figure
families: absorption sensitivities against X_s at four chirality offsets,
and the phase sensitivity against a common absorption α.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .analytic import (
    PROBES,
    InputStateKind,
    default_param_labels,
    delta_columns,
    equal_split_photons,
    fock_benchmark_grid,
)
from .channel import CHIRAL_NAMES, DomainError, ParamGrid
from .estimation import NumericError, compute_bounds_grid
from .fock import (
    TRUNCATION_BUDGET_DEFAULT,
    FockSpace,
    TwoModeState,
    coherent_product_state,
    default_coherent_space,
    hv_to_pm_amplitudes,
    require_loss_cutoff,
)

QFIM_NUMERIC = "qfim_numeric"
QFIM_ANALYTIC = "qfim_analytic"
INTENSITY_EXACT = "intensity_exact"
INTENSITY_ANALYTIC = "intensity_analytic"
FIDELITY_FRINGE = "fidelity_fringe"
SWEEP_METHODS = (
    QFIM_NUMERIC,
    QFIM_ANALYTIC,
    INTENSITY_EXACT,
    INTENSITY_ANALYTIC,
    FIDELITY_FRINGE,
)
# the sweep methods that read a closed form, by its field of the input's ``Probe``
CLOSED_FORMS = {QFIM_ANALYTIC: "bound", INTENSITY_ANALYTIC: "intensity", FIDELITY_FRINGE: "fringe"}

# grid labels: any single chiral coordinate, or a common absorption applied
# to both modes (alpha_plus = alpha_minus = value, phases fixed)
COMMON_ALPHA = "alpha"
VARY_LABELS = CHIRAL_NAMES + (COMMON_ALPHA,)

ALPHA_MAX = 0.999
COMPARE_TOL = 1e-6
DERIVATIVE_FLOOR = 1e-8

FIG2_CAPTION_NOTE = (
    "delta_x_d equals delta_x_s for the coherent input, so a single"
    " coherent column serves both absorption quantities"
)


def _kind_to_dict(kind: InputStateKind) -> dict:
    payload = {"kind": kind.kind}
    if kind.probe.photons is None:
        payload["amp_h"] = [kind.amp_h.real, kind.amp_h.imag]
        payload["amp_v"] = [kind.amp_v.real, kind.amp_v.imag]
    return payload


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional grid sweep of a parameter for one input state."""

    input_state: InputStateKind
    vary: str
    start: float
    stop: float
    points: int
    fixed: dict = field(default_factory=dict)
    methods: tuple = (QFIM_NUMERIC,)
    note: str = ""

    def __post_init__(self):
        if self.vary not in VARY_LABELS:
            raise ValueError(f"vary must be one of {VARY_LABELS}, got {self.vary!r}")
        if self.points < 2:
            raise ValueError(f"a sweep needs at least 2 points, got {self.points}")
        for v in (self.start, self.stop):
            if not math.isfinite(v):
                raise ValueError("sweep range must be finite")
        if self.vary in ("x_s", COMMON_ALPHA):
            lo, hi = sorted((self.start, self.stop))
            if lo < 0.0 or hi > ALPHA_MAX:
                raise ValueError(
                    f"{self.vary} range [{lo}, {hi}] leaves alpha in [0, {ALPHA_MAX}]"
                )
        unknown = set(self.fixed) - set(CHIRAL_NAMES)
        if unknown:
            raise ValueError(f"unknown fixed parameters {sorted(unknown)}")
        if self.vary in self.fixed:
            raise ValueError(f"{self.vary!r} cannot be both varied and fixed")
        if self.vary == COMMON_ALPHA and {"x_d", "x_s"} & set(self.fixed):
            raise ValueError(
                "an alpha sweep sets both absorptions itself; x_d and x_s cannot be fixed"
            )
        if not self.methods:
            raise ValueError("at least one method is required")
        bad = set(self.methods) - set(SWEEP_METHODS)
        if bad:
            raise ValueError(f"unknown methods {sorted(bad)}; expected {SWEEP_METHODS}")
        # a closed form the input lacks is refused here, not flagged at each point
        for method in (m for m in self.methods if m in CLOSED_FORMS):
            having = [p.state for p in PROBES.values() if getattr(p, CLOSED_FORMS[method])]
            if self.input_state.probe.state not in having:
                raise ValueError(f"{method!r} applies to {', '.join(having)} inputs only")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)

    def param_grid(self) -> tuple:
        """``ParamGrid.from_chiral`` on the sweep's grid values; a common
        absorption is x_s at x_d = 0, which an alpha sweep cannot fix."""
        return self._param_grid_at(self.grid())

    def _param_grid_at(self, values: np.ndarray) -> tuple:
        coords = {name: self.fixed.get(name, 0.0) for name in CHIRAL_NAMES}
        coords["x_s" if self.vary == COMMON_ALPHA else self.vary] = values
        return ParamGrid.from_chiral(**coords)

    def to_json(self) -> str:
        payload = {
            "input": _kind_to_dict(self.input_state),
            "vary": self.vary,
            "start": float(self.start),
            "stop": float(self.stop),
            "points": int(self.points),
            "fixed": {k: float(v) for k, v in sorted(self.fixed.items())},
            "methods": list(self.methods),
        }
        if self.note:
            payload["note"] = self.note
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class SweepRow:
    """One grid point: coordinate, method values, and status flags."""

    coordinate: float
    values: dict
    status: tuple = ()

    def __post_init__(self):
        for column, value in self.values.items():
            if value is not None and not math.isfinite(value):
                raise ValueError(f"non-finite value {value!r} in column {column!r}")

    def value(self, method: str, quantity: str):
        return self.values[f"{method}.{quantity}"]


@dataclass(frozen=True)
class SweepTable:
    """A sweep's rows as (N,) arrays: ``coordinates`` and each of ``columns``
    (NaN where a cell is empty), with each row's ``status`` flags; indexing
    or iterating gives ``SweepRow``s."""

    coordinates: np.ndarray
    columns: dict
    status: list

    def __len__(self) -> int:
        return len(self.coordinates)

    def __getitem__(self, i: int) -> SweepRow:
        values = {column: cells[i].item() for column, cells in self.columns.items()}
        values = {column: None if math.isnan(v) else v for column, v in values.items()}
        return SweepRow(self.coordinates[i].item(), values, self.status[i])


@functools.lru_cache(maxsize=8, typed=True)
def prepare_input_state(
    kind: InputStateKind, cutoff: int | None = None, budget: float | None = None
) -> TwoModeState:
    """Truncated two-mode density matrix for an input kind.

    The quantum inputs get their exact minimal spaces, or ``cutoff`` in
    both modes, and take no ``budget``.  Coherent inputs get the smallest
    space whose per-mode Poisson tail meets ``budget`` (default
    ``TRUNCATION_BUDGET_DEFAULT``), or ``cutoff`` in both modes, which must
    meet the same budget; a coherent cutoff past ``MAX_LOSS_CUTOFF`` is
    refused before the state is built.

    The last 8 distinct calls, keyed by their arguments as passed, keep
    their state (an LRU; ``typed``, so a float cutoff is still refused
    after the int one was built), so a sweep, or the members of a preset
    that share an input, build, check and factor it once, and its
    ``mode_inputs``, ``output_blocks`` and ``kraus_tables`` are formed on
    its first bound only; the state is read-only, so callers share it
    safely.  Refusals raise every time, and no result is cached.  The
    memory held is at most 8 of the largest states kept.  At cutoff
    ``MAX_LOSS_CUTOFF`` an H-polarized coherent input (every ``--n0``
    probe) holds one 1030 × 1030 complex factor for both modes, about
    17 MB, about 8.5 MB of real loss tables and, once bounded, about 17 MB
    of phase generator: about 43 MB.  The largest, a probe with two
    distinct complex mode factors, holds two factors, 34 MB of complex
    tables and the generator: about 85 MB, so 680 MB for 8.  A quantum
    input on an explicit ``cutoff`` c holds (c + 1)⁴ entries in its dense
    ρ and as many in its loss table.  ``prepare_input_state.cache_clear()``
    drops them all.
    """
    probe = kind.probe
    if probe.builder is not None:
        if budget is not None:
            raise DomainError("--budget applies only to coherent inputs")
        cutoff = probe.cutoff if cutoff is None else cutoff
        return probe.builder(FockSpace(cutoff, cutoff))
    amp_p, amp_m = hv_to_pm_amplitudes(kind.amp_h, kind.amp_v)
    tail = TRUNCATION_BUDGET_DEFAULT if budget is None else budget
    if cutoff is None:
        space, tail = default_coherent_space(amp_p, amp_m, budget=tail)
    else:
        space = FockSpace(cutoff, cutoff)
    # refused before the factors, (cutoff + 1)² each, are formed
    require_loss_cutoff(max(space.cutoff_plus, space.cutoff_minus))
    return coherent_product_state(space, amp_p, amp_m, truncation_budget=tail)


# the signs s of the signals n₊ + s n₋ of x_d and x_s
_SIGNS = np.array([-1.0, 1.0])


def _intensity_moments(state: TwoModeState, grid: ParamGrid) -> tuple:
    """The variances of the signals n₊ − n₋ and n₊ + n₋ at each point of
    ``grid``, as a (2, B) array, and the signals' shared exact slope
    ∂⟨n₊⟩/∂α₊ + ∂⟨n₋⟩/∂α₋, (B,), from the input populations alone.

    The phase stage leaves populations alone, and loss thins each mode's
    input level n binomially: the count it leaves has mean nη and variance
    α nη (Monras & Paris, PRL 98, 160401 (2007)).  So over the input
    populations P[n₊, n₋] (``diag rho``, or outer(diag ρ₊, diag ρ₋) from
    the factors of a product input), whose marginals q± have means μ± =
    Σ n q±, each mode's output mean is ⟨n±⟩ = η±μ±, with slope −μ±, and no
    output population is formed.  By the law of total variance
    Var(n₊ + s n₋) = α₊⟨n₊⟩ + α₋⟨n₋⟩ + Σ P (w₊ + s w₋)², with w± =
    η±(n − μ±) the conditional output mean less ⟨n±⟩.  The trace 1 − Σ P
    that a truncated input leaves out counts as vacuum, at w = −⟨n⟩, so
    each variance equals E[n²] − E[n]² on the populations as they are.
    Every variance is then a sum of non-negative terms and keeps its
    relative precision where the counts are nearly certain or the signal
    nearly noiseless.  Loss preserves the trace, so the output's is the
    input's, which ``TwoModeState`` checks when it is built.
    """
    space = state.space
    if state.factors is None:
        pops = np.diag(state.rho).real.reshape(space.cutoff_plus + 1, space.cutoff_minus + 1)
    else:
        pops = np.outer(*(np.diag(factor).real for factor in state.factors))
    n_plus, n_minus = np.arange(space.cutoff_plus + 1), np.arange(space.cutoff_minus + 1)
    mu_plus, mu_minus = pops.sum(axis=1) @ n_plus, pops.sum(axis=0) @ n_minus
    eta_plus, eta_minus = grid.eta_plus, grid.eta_minus
    mean_p, mean_m = eta_plus * mu_plus, eta_minus * mu_minus
    w_plus = eta_plus[:, None] * (n_plus - mu_plus)
    w_minus = eta_minus[:, None] * (n_minus - mu_minus)
    thinning_p, thinning_m = grid.alpha_plus * mean_p, grid.alpha_minus * mean_m
    missing = 1.0 - pops.sum()
    # Σ P (w₊ + s w₋)² at each point for s = −1, +1, summed point by point
    spread = w_plus[:, :, None] + _SIGNS[:, None, None, None] * w_minus[:, None, :]
    spread *= spread
    spread *= pops
    between = spread.reshape(2, len(grid), pops.size).sum(axis=2)
    signals = mean_p + _SIGNS[:, None] * mean_m
    variances = thinning_p + thinning_m + between + missing * signals**2
    return variances, np.full(len(grid), -(mu_plus + mu_minus))


def _intensity_columns(state: TwoModeState, grid: ParamGrid) -> dict:
    """δx_d and δx_s from intensity measurement at each point of ``grid``,
    by sweep quantity, from ``_intensity_moments``.

    Each is the signal's noise over its exact slope, NaN where the slope is
    below ``DERIVATIVE_FLOOR`` and the signal does not move.  The signal is
    ⟨n₊⟩ + s⟨n₋⟩ and ∂/∂x = ∂/∂α₊ + s ∂/∂α₋, so both targets' signals have
    the slope ∂⟨n₊⟩/∂α₊ + ∂⟨n₋⟩/∂α₋.
    """
    variances, derivative = _intensity_moments(state, grid)
    usable = np.abs(derivative) >= DERIVATIVE_FLOOR
    slope = np.where(usable, np.abs(derivative), 1.0)
    delta = np.where(usable, np.sqrt(np.maximum(variances, 0.0)) / slope, np.nan)
    return {"delta_x_d": delta[0], "delta_x_s": delta[1]}


# ---------------------------------------------------------------------------
# per-method evaluation
# ---------------------------------------------------------------------------


def method_quantities(kind: InputStateKind, method: str) -> tuple:
    """Column quantities a method contributes for an input kind."""
    if method == QFIM_NUMERIC:
        return delta_columns(kind.probe.labels)
    if method == QFIM_ANALYTIC:
        return kind.probe.bound_columns
    if method in (INTENSITY_EXACT, INTENSITY_ANALYTIC):
        return ("delta_x_d", "delta_x_s")
    return ("value",)


def sweep_columns(spec: SweepSpec) -> tuple:
    cols = []
    for method in spec.methods:
        for quantity in method_quantities(spec.input_state, method):
            cols.append(f"{method}.{quantity}")
    return tuple(cols)


def _bound_columns(state: TwoModeState, grid: ParamGrid, labels: tuple) -> dict:
    """One grid pass's bounds and x_d-x_s covariance, by sweep quantity."""
    result = compute_bounds_grid(state, grid, labels)
    bounds = np.where(result.identifiable, result.bounds, np.nan)
    columns = {f"delta_{p}": bounds[:, i] for i, p in enumerate(result.params)}
    return {**columns, "cov_x_d_x_s": result.covariance("x_d", "x_s")}


def _closed_form_columns(kind: InputStateKind, method: str, grid: ParamGrid) -> dict:
    """The closed form behind a sweep method at every point of ``grid``, as
    columns by quantity plus, for a form that takes limits, a ``limit``
    column; raises what the scalar call raises at a point that fails."""
    result = getattr(kind.probe, CLOSED_FORMS[method])(kind, grid)
    quantities = method_quantities(kind, method)
    columns = {q: result.values.get(q.removeprefix("delta_")) for q in quantities}
    if "cov_x_d_x_s" in columns:
        columns["cov_x_d_x_s"] = result.covariances[("x_d", "x_s")]
    if result.limit is not None:
        columns["limit"] = result.limit
    return columns


# what fails at one point flags that point's row, never the sweep
POINT_ERRORS = (ValueError, NumericError)


def _each_point(batch, grid: ParamGrid) -> tuple:
    """``batch(grid)``'s columns and the error message of each point that
    failed, by its index; when it raises, each half again, so that a failing
    point gets NaN cells and its own message, from a call on it alone, and
    every other point its own cells.  One failing point among B costs at
    most 1 + 2·⌈log₂ B⌉ calls, and a ``batch`` that fails at every point
    2B − 1."""
    try:
        return batch(grid), {}
    except POINT_ERRORS as exc:
        if len(grid) == 1:
            return {}, {0: str(exc)}
    half = len(grid) // 2
    (head, head_failed), (tail, tail_failed) = (
        _each_point(batch, grid[:half]),
        _each_point(batch, grid[half:]),
    )
    parts = ((head, half), (tail, len(grid) - half))
    columns = {
        key: np.concatenate([part.get(key, np.full(size, np.nan)) for part, size in parts])
        for key in {**head, **tail}
    }
    return columns, {**head_failed, **{half + b: message for b, message in tail_failed.items()}}


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate every requested method at every grid point, in grid order.

    Each method runs once over the grid of valid points, through
    ``_each_point``, and fills its columns whole; flags are kept for the
    flagged rows only.  A failed point's cells are NaN from ``_each_point``
    already, so each column takes the grid's cells unmasked, at the grid
    points' rows: one slice when every point is valid.  Failures are kept
    as their messages: a stored exception would hold this frame through its
    traceback, a cycle that keeps every result alive until the garbage
    collector runs.
    """
    state = prepare_input_state(spec.input_state)
    kind = spec.input_state
    labels = default_param_labels(kind)
    coordinates = spec.grid()
    grid, invalid = spec._param_grid_at(coordinates)
    flags = {row: [f"invalid-point:{m}"] for row, m in enumerate(invalid) if m is not None}
    # the row of each grid point, and the rows of all of them as one index
    at = [row for row, m in enumerate(invalid) if m is None] if flags else range(len(grid))
    rows = at if flags else slice(None)
    names = sweep_columns(spec)
    columns = dict(zip(names, np.full((len(names), len(invalid)), np.nan)))
    # method -> (grid pass to columns by quantity, what an empty cell means)
    numeric = {
        QFIM_NUMERIC: (lambda part: _bound_columns(state, part, labels), "unidentifiable"),
        INTENSITY_EXACT: (lambda part: _intensity_columns(state, part), "vanishing-derivative"),
    }
    for method in spec.methods if len(grid) else ():
        closed_form = functools.partial(_closed_form_columns, kind, method)
        batch, reason = numeric.get(method, (closed_form, "unavailable"))
        values, failed = _each_point(batch, grid)
        for b, message in failed.items():
            flags.setdefault(at[b], []).append(f"{method}:failed:{message}")
        # a closed form's limit column reads 1.0, not True, once joined to a failed part
        if "limit" in values:
            for b in np.flatnonzero(values["limit"] == 1.0).tolist():
                flags.setdefault(at[b], []).append(f"{method}:limit-evaluated")
        for quantity in method_quantities(kind, method):
            column = f"{method}.{quantity}"
            columns[column][rows] = values.get(quantity, np.nan)  # a failed point's is NaN
            empty = "unavailable" if quantity == "cov_x_d_x_s" else reason
            for b in np.flatnonzero(np.isnan(columns[column][rows])).tolist():
                if b not in failed:
                    flags.setdefault(at[b], []).append(f"{column}:{empty}")
    status = [()] * len(invalid)
    for row, row_flags in flags.items():
        status[row] = tuple(row_flags)
    return SweepTable(coordinates, columns, status)


def flags_by_reason(statuses) -> dict:
    """Flagged rows per flag reason, the most common first, from each row's
    status tuple (``SweepTable.status``).

    A reason is a flag without its message: ``invalid-point`` for
    ``invalid-point:<message>``, ``<method>:failed`` for
    ``<method>:failed:<message>``, and the whole flag otherwise.
    """
    counts = Counter()
    for status in statuses:
        reasons = []
        for flag in status:
            head, _, rest = flag.partition(":")
            reasons.append(head if head == "invalid-point" else f"{head}:{rest.partition(':')[0]}")
        counts.update(dict.fromkeys(reasons, 1))
    return dict(counts.most_common())


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _csv_cell(text: str) -> str:
    """Quote a text cell when it would otherwise break the row apart.

    Numeric cells never need this; status messages may carry commas."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _row_cells(rows: SweepTable, spec: SweepSpec, lead: tuple = ()) -> list:
    """Each row's cells, joined by commas: the ``lead`` columns and the
    sweep's, 12 significant digits and empty where NaN, then its status.

    One "%.12g" template per row writes what format(v, ".12g") writes each
    cell, and "nan" for a NaN and in no other number, so emptying "nan"
    before the status is added leaves an undefined cell empty."""
    numbers = np.column_stack([*lead, *(rows.columns[c] for c in sweep_columns(spec))])
    template = ",".join(["%.12g"] * numbers.shape[1])
    return [
        f"{(template % tuple(values)).replace('nan', '')},{_csv_cell(';'.join(status))}"
        for values, status in zip(numbers.tolist(), rows.status)
    ]


def sweep_to_csv_text(rows: SweepTable, spec: SweepSpec) -> str:
    """Rows as CSV text with a `# spec:` comment carrying the sweep spec.

    Cells hold 12 significant digits; undefined cells are empty and
    explained in the status column.
    """
    head = [f"# spec: {spec.to_json()}", ",".join([spec.vary, *sweep_columns(spec), "status"])]
    return "\n".join([*head, *_row_cells(rows, spec, (rows.coordinates,))]) + "\n"


def panel_to_csv_text(members) -> str:
    """One wide CSV for a figure panel's ``(label, spec, rows)`` members.

    Each member's spec goes on its own ``# spec:`` line and its columns are
    prefixed with its label; the members must share one sweep grid.
    """
    (_, first, base), *rest = members
    for _, _, rows in rest:
        if len(rows) != len(base) or not (
            np.abs(rows.coordinates - base.coordinates) <= 1e-12
        ).all():
            raise ValueError("panel members disagree on the sweep grid")
    head = [f"# spec: {label}: {spec.to_json()}" for label, spec, _ in members]
    header = [first.vary]
    for label, spec, _ in members:
        header.extend(f"{label}.{column}" for column in sweep_columns(spec))
        header.append(f"{label}.status")
    cells = [_row_cells(base, first, (base.coordinates,))]
    cells += [_row_cells(rows, spec) for _, spec, rows in rest]
    return "\n".join([*head, ",".join(header), *map(",".join, zip(*cells))]) + "\n"


# ---------------------------------------------------------------------------
# analytic-vs-numeric comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationStats:
    max_abs: float
    mean_abs: float
    points: int
    worst_coordinate: float | None = None


@dataclass(frozen=True)
class ComparisonReport:
    """Per-quantity deviation statistics between the two QFIM routes."""

    input_state: InputStateKind
    stats: dict
    flagged: tuple
    notes: tuple = ()

    @property
    def max_bound_deviation(self) -> float:
        worst = 0.0
        for name, s in self.stats.items():
            if name.startswith("delta_"):
                worst = max(worst, s.max_abs)
        return worst


def compare_analytic_numeric(
    kind: InputStateKind, grid: SweepSpec, tol: float = COMPARE_TOL
) -> ComparisonReport:
    """Sweep both QFIM routes and report their per-quantity deviations.

    Deviations above ``tol``, of the bounds and of the covariance, are
    listed with their grid coordinate.  A coherent kind outside the
    closed forms' equal split is refused, not reported as agreeing.
    """
    if kind != grid.input_state:
        raise ValueError("the input kind and the sweep spec's input must match")
    if kind.probe.photons is None:
        equal_split_photons(kind)  # else no coherent grid point has a closed form
    missing = {QFIM_NUMERIC, QFIM_ANALYTIC} - set(grid.methods)
    if missing:
        raise ValueError(
            f"comparison needs methods {sorted(missing)} in the sweep's method list"
        )
    rows = run_sweep(grid)
    quantities = [q for q in kind.probe.bound_columns if q in method_quantities(kind, QFIM_NUMERIC)]
    stats = {}
    flagged = []
    notes = []
    for quantity in quantities:
        numeric, analytic = (rows.columns[f"{m}.{quantity}"] for m in (QFIM_NUMERIC, QFIM_ANALYTIC))
        both = ~(np.isnan(numeric) | np.isnan(analytic))
        coords, devs = rows.coordinates[both], np.abs(numeric - analytic)[both]
        cells = zip(coords.tolist(), numeric[both].tolist(), analytic[both].tolist(), devs.tolist())
        flagged.extend((c, quantity, n, a, dev) for c, n, a, dev in cells if dev > tol)
        if devs.size:
            stats[quantity] = DeviationStats(
                max_abs=float(devs.max()),
                mean_abs=sum(devs.tolist()) / len(devs),
                points=len(devs),
                worst_coordinate=float(coords[devs.argmax()]),
            )
    if kind.probe.benchmark_note:
        points, invalid = grid.param_grid()
        bound = rows.columns[f"{QFIM_ANALYTIC}.delta_x_d"][[m is None for m in invalid]]
        bounded = (bound != 0.0) & ~np.isnan(bound)
        benchmark = fock_benchmark_grid(points[bounded]).values["x_d"]
        gaps = (np.abs(bound[bounded] - benchmark) / bound[bounded]).tolist()
        if gaps:
            notes.append(
                "NOON vs photon-pair benchmark on delta_x_d: max relative gap"
                f" {max(gaps):.3e}, mean {sum(gaps) / len(gaps):.3e}"
                " (logged as data, not asserted)"
            )
    return ComparisonReport(
        input_state=kind, stats=stats, flagged=tuple(flagged), notes=tuple(notes)
    )


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

FIG_XD_VALUES = (0.005, 0.05, 0.1, 0.2)
FIG_XS_RANGE = (0.01, 0.95, 95)
FIG4_ALPHA_RANGE = (0.0, 0.9, 91)


def _absorption_panel(x_d: float, note: str = "") -> tuple:
    start, stop, points = FIG_XS_RANGE
    specs = []
    for label, kind in (
        ("coherent", InputStateKind.coherent(1.0)),
        ("single_photon", InputStateKind.single_photon_h()),
        ("noon", InputStateKind.noon_hv()),
        ("fock_pair", InputStateKind.fock_one_plus_one_minus()),
    ):
        methods = [QFIM_NUMERIC, QFIM_ANALYTIC, INTENSITY_EXACT]
        if kind.probe.intensity is not None:
            methods.append(INTENSITY_ANALYTIC)
        specs.append(
            (
                label,
                SweepSpec(
                    input_state=kind,
                    vary="x_s",
                    start=start,
                    stop=stop,
                    points=points,
                    fixed={"x_d": x_d},
                    methods=tuple(methods),
                    note=note,
                ),
            )
        )
    return tuple(specs)


SURFACE_NOTE = (
    "surface panel: the union of the captioned chirality offsets; plot"
    " the rows of all x_d slices together"
)
BENCHMARK_NOTE = (
    "benchmark panel: compare the noon delta_x_d bound with the"
    " photon-pair benchmark column"
)


def figure_presets() -> dict:
    """Sweep specs regenerating the reference figures' data.

    Keys ``fig2a``–``fig2f`` and ``fig3a``–``fig3f`` follow the caption
    panels: (a) the surface over both absorption coordinates, realized as
    the union of the line panels; (b)–(e) sensitivity against X_s at the
    four chirality offsets; (f) the NOON bound next to the photon-pair
    benchmark.  The two figure families plot the delta_x_s and delta_x_d
    columns of the same data.  ``fig4`` sweeps a common absorption for
    the phase bound, with a two-photon coherent reference.
    """
    presets = {}
    for fig in ("fig2", "fig3"):
        note = FIG2_CAPTION_NOTE if fig == "fig2" else ""
        surface = []
        for letter, x_d in zip("bcde", FIG_XD_VALUES):
            panel = _absorption_panel(x_d, note)
            presets[f"{fig}{letter}"] = panel
            surface.extend(
                (f"{label}_xd{x_d:g}", replace(spec, note=SURFACE_NOTE))
                for label, spec in panel
            )
        presets[f"{fig}a"] = tuple(surface)
        benchmark = [
            (label, replace(spec, note=BENCHMARK_NOTE))
            for label, spec in _absorption_panel(FIG_XD_VALUES[0])
            if label in ("noon", "fock_pair")
        ]
        presets[f"{fig}f"] = tuple(benchmark)
    start, stop, points = FIG4_ALPHA_RANGE
    fig4 = []
    for label, kind in (
        ("single_photon", InputStateKind.single_photon_h()),
        ("coherent_n2", InputStateKind.coherent(math.sqrt(2.0))),
        ("noon", InputStateKind.noon_hv()),
    ):
        fig4.append(
            (
                label,
                SweepSpec(
                    input_state=kind,
                    vary=COMMON_ALPHA,
                    start=start,
                    stop=stop,
                    points=points,
                    methods=(QFIM_NUMERIC, QFIM_ANALYTIC),
                ),
            )
        )
    presets["fig4"] = tuple(fig4)
    return presets
