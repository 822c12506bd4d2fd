"""Parameter-grid sweeps, intensity statistics, and comparison reports.

The sweep engine evaluates quantum and classical sensitivity methods over
one-dimensional parameter grids and writes the results as CSV, one row per
grid point with one column per (method, quantity) pair.  Per-point
failures (invalid parameter combinations, unidentifiable parameters,
vanishing derivatives, closed-form domain limits) never abort a sweep;
they are recorded in the row's status column and the affected cells stay
empty.

``figure_presets`` returns the grids behind the three reference figure
families: absorption sensitivities against X_s at four chirality offsets,
and the phase sensitivity against a common absorption α.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .analytic import (
    COHERENT,
    FOCK_ONE_PLUS_ONE_MINUS,
    InputStateKind,
    coherent_bounds,
    coherent_intensity_sensitivities,
    default_param_labels,
    equal_split_photons,
    fidelity_fringe,
    fock_benchmark_bound,
    noon_catalog,
    noon_intensity_sensitivities,
    single_photon_catalog,
)
from .channel import CHIRAL_NAMES, ChiralParams, DomainError, mode_population_transfer
from .estimation import compute_bounds
from .fock import (
    NOON_HV,
    SINGLE_PHOTON_H,
    FockSpace,
    TwoModeState,
    coherent_product_state,
    default_coherent_space,
    fock_product_state,
    hv_to_pm_amplitudes,
    hv_to_pm_state,
    require_trace_window,
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
    if kind.kind == COHERENT:
        payload["amp_h"] = [kind.amp_h.real, kind.amp_h.imag]
        payload["amp_v"] = [kind.amp_v.real, kind.amp_v.imag]
    return payload


def _kind_from_dict(payload: dict) -> InputStateKind:
    kind = payload["kind"]
    if kind == COHERENT:
        amp_h = complex(*payload.get("amp_h", (0.0, 0.0)))
        amp_v = complex(*payload.get("amp_v", (0.0, 0.0)))
        return InputStateKind.coherent(amp_h, amp_v)
    return InputStateKind(kind=kind)


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
    output_path: str | None = None
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
        if FIDELITY_FRINGE in self.methods and self.input_state.kind not in (
            SINGLE_PHOTON_H,
            NOON_HV,
        ):
            raise ValueError(
                f"{FIDELITY_FRINGE!r} applies to single-photon and NOON inputs only"
            )

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)

    def params_at(self, value: float) -> ChiralParams:
        if self.vary == COMMON_ALPHA:
            return ChiralParams.from_chiral(
                0.0, value, self.fixed.get("delta", 0.0), self.fixed.get("sigma", 0.0)
            )
        coords = {name: self.fixed.get(name, 0.0) for name in CHIRAL_NAMES}
        coords[self.vary] = value
        return ChiralParams.from_chiral(**coords)

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
        if self.output_path:
            payload["output"] = self.output_path
        if self.note:
            payload["note"] = self.note
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        payload = json.loads(text)
        return cls(
            input_state=_kind_from_dict(payload["input"]),
            vary=payload["vary"],
            start=float(payload["start"]),
            stop=float(payload["stop"]),
            points=int(payload["points"]),
            fixed={k: float(v) for k, v in payload.get("fixed", {}).items()},
            methods=tuple(payload.get("methods", (QFIM_NUMERIC,))),
            output_path=payload.get("output"),
            note=payload.get("note", ""),
        )


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


def prepare_input_state(kind: InputStateKind) -> TwoModeState:
    """Truncated two-mode density matrix for an input kind.

    The quantum inputs get their exact minimal spaces; coherent inputs get
    the default tail-budgeted space.
    """
    if kind.kind == COHERENT:
        amp_p, amp_m = hv_to_pm_amplitudes(kind.amp_h, kind.amp_v)
        space, budget = default_coherent_space(amp_p, amp_m)
        return coherent_product_state(space, amp_p, amp_m, truncation_budget=budget)
    if kind.kind == SINGLE_PHOTON_H:
        return hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1))
    if kind.kind == NOON_HV:
        return hv_to_pm_state(NOON_HV, FockSpace(2, 2))
    return fock_product_state(FockSpace(1, 1), 1, 1)


class IntensityStatistics(NamedTuple):
    """Exact first and second moments of the two output mode intensities."""

    mean_plus: float
    mean_minus: float
    var_plus: float
    var_minus: float
    covariance: float


def _output_populations(
    state: TwoModeState, params: ChiralParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Output populations P[n₊, n₋] and their exact ∂/∂α₊ and ∂/∂α₋.

    The phase stage leaves populations alone and loss maps them among
    themselves, so only the input diagonal goes through each mode's
    transfer matrix; a product input gives it as outer(diag ρ₊, diag ρ₋).
    The output trace must stay in the state's window.
    """
    space = state.space
    if state.factors is None:
        pops = np.diag(state.rho).real.reshape(space.cutoff_plus + 1, space.cutoff_minus + 1)
    else:
        pops = np.outer(*(np.diag(factor).real for factor in state.factors))
    t_plus, dt_plus = mode_population_transfer(space.cutoff_plus, params.alpha_plus)
    t_minus, dt_minus = mode_population_transfer(space.cutoff_minus, params.alpha_minus)
    out = t_plus @ pops @ t_minus.T
    require_trace_window(out.sum(), state.trace_deficit_budget)
    return out, dt_plus @ pops @ t_minus.T, t_plus @ pops @ dt_minus.T


def _mean_counts(pops: np.ndarray) -> tuple[float, float]:
    """⟨n₊⟩ and ⟨n₋⟩ over populations P[n₊, n₋]; linear in P."""
    return (
        float(np.arange(pops.shape[0]) @ pops.sum(axis=1)),
        float(np.arange(pops.shape[1]) @ pops.sum(axis=0)),
    )


def _moments(pops: np.ndarray) -> IntensityStatistics:
    n_plus, n_minus = np.arange(pops.shape[0]), np.arange(pops.shape[1])
    mean_p, mean_m = _mean_counts(pops)
    var_p = float(n_plus**2 @ pops.sum(axis=1)) - mean_p**2
    var_m = float(n_minus**2 @ pops.sum(axis=0)) - mean_m**2
    cov = float(n_plus @ pops @ n_minus) - mean_p * mean_m
    return IntensityStatistics(mean_p, mean_m, var_p, var_m, cov)


def intensity_statistics(
    kind: InputStateKind, params: ChiralParams, state: TwoModeState | None = None
) -> IntensityStatistics:
    """Moments of n₊ and n₋ on the channel output, traced exactly.

    Both number operators are diagonal in the Fock basis, so the moments
    are sums over the output populations; nothing is sampled.
    """
    if state is None:
        state = prepare_input_state(kind)
    return _moments(_output_populations(state, params)[0])


def _intensity_sensitivities(state: TwoModeState, params: ChiralParams) -> dict:
    """δx_d and δx_s from intensity measurement, from one population pass.

    Maps each target to ``(sensitivity, derivative)``: the signal's noise
    over its exact slope, or None where the slope is below the floor.
    """
    pops, d_plus, d_minus = _output_populations(state, params)
    stats = _moments(pops)
    out = {}
    for target, sign in (("x_d", -1.0), ("x_s", 1.0)):
        # the signal is ⟨n₊⟩ + sign·⟨n₋⟩, and ∂/∂x = ∂/∂α₊ + sign·∂/∂α₋
        d_mean_p, d_mean_m = _mean_counts(d_plus + sign * d_minus)
        derivative = d_mean_p + sign * d_mean_m
        variance = stats.var_plus + stats.var_minus + 2.0 * sign * stats.covariance
        sensitivity = None
        if abs(derivative) >= DERIVATIVE_FLOOR:
            sensitivity = math.sqrt(max(variance, 0.0)) / abs(derivative)
        out[target] = (sensitivity, derivative)
    return out


def error_propagation_sensitivity(
    kind: InputStateKind,
    params: ChiralParams,
    target: str,
    state: TwoModeState | None = None,
) -> float:
    """δX from intensity measurement: noise over moved signal.

    The signal is ⟨n₊⟩ − ⟨n₋⟩ for x_d and ⟨n₊⟩ + ⟨n₋⟩ otherwise, its noise
    combines the exact variances and covariance, and the denominator is
    the signal's exact derivative, taken from the differentiated loss
    weights (the phases do not move populations, so the derivative is zero
    for delta and sigma).  A derivative below 1e-8 means the measurement
    carries no first-order information and is rejected.
    """
    if target not in CHIRAL_NAMES:
        raise ValueError(f"target must be one of {CHIRAL_NAMES}, got {target!r}")
    if state is None:
        state = prepare_input_state(kind)
    sensitivity, derivative = _intensity_sensitivities(state, params).get(target, (None, 0.0))
    if sensitivity is None:
        raise DomainError(
            f"the intensity signal does not move with {target!r} here"
            f" (derivative {derivative:.3e}); no first-order sensitivity"
        )
    return sensitivity


# ---------------------------------------------------------------------------
# per-method evaluation
# ---------------------------------------------------------------------------


def _bound_quantities(kind: InputStateKind) -> tuple:
    labels = default_param_labels(kind)
    return tuple(f"delta_{p}" for p in labels) + ("cov_x_d_x_s",)


def method_quantities(kind: InputStateKind, method: str) -> tuple:
    """Column quantities a method contributes for an input kind."""
    if method == QFIM_NUMERIC:
        return _bound_quantities(kind)
    if method == QFIM_ANALYTIC:
        if kind.kind == FOCK_ONE_PLUS_ONE_MINUS:
            return ("delta_x_d", "delta_x_s")
        return _bound_quantities(kind)
    if method in (INTENSITY_EXACT, INTENSITY_ANALYTIC):
        return ("delta_x_d", "delta_x_s")
    return ("value",)


def sweep_columns(spec: SweepSpec) -> tuple:
    cols = []
    for method in spec.methods:
        for quantity in method_quantities(spec.input_state, method):
            cols.append(f"{method}.{quantity}")
    return tuple(cols)


def _eval_qfim_numeric(kind, params, state, cells, flags):
    labels = default_param_labels(kind)
    result = compute_bounds(state, params, labels)
    for p in labels:
        column = f"{QFIM_NUMERIC}.delta_{p}"
        b = result.bound(p)
        cells[column] = b
        if b is None:
            flags.append(f"{column}:unidentifiable")
    column = f"{QFIM_NUMERIC}.cov_x_d_x_s"
    cov = result.covariances.get(("x_d", "x_s")) if result.covariances else None
    cells[column] = cov
    if cov is None:
        flags.append(f"{column}:unavailable")


def _eval_qfim_analytic(kind, params, cells, flags):
    if kind.kind == COHERENT:
        report = coherent_bounds(params, equal_split_photons(kind))
        cov = report.covariances.get(("x_d", "x_s"))
    elif kind.kind in (SINGLE_PHOTON_H, NOON_HV):
        catalog = (
            single_photon_catalog(params)
            if kind.kind == SINGLE_PHOTON_H
            else noon_catalog(params)
        )
        report = catalog.bounds
        cov = report.covariances.get(("x_d", "x_s"))
        if report.notes:
            flags.append(f"{QFIM_ANALYTIC}:limit-evaluated")
    else:
        report = fock_benchmark_bound(params)
        cov = None
    for quantity in method_quantities(kind, QFIM_ANALYTIC):
        if quantity == "cov_x_d_x_s":
            cells[f"{QFIM_ANALYTIC}.{quantity}"] = cov
            if cov is None:
                flags.append(f"{QFIM_ANALYTIC}.{quantity}:unavailable")
            continue
        param = quantity.removeprefix("delta_")
        value = report.values.get(param)
        cells[f"{QFIM_ANALYTIC}.{quantity}"] = value
        if value is None:
            flags.append(f"{QFIM_ANALYTIC}.{quantity}:unavailable")


def _eval_intensity_exact(params, state, cells, flags):
    for target, (sensitivity, _) in _intensity_sensitivities(state, params).items():
        column = f"{INTENSITY_EXACT}.delta_{target}"
        cells[column] = sensitivity
        if sensitivity is None:
            flags.append(f"{column}:vanishing-derivative")


def _eval_intensity_analytic(kind, params, cells, flags):
    if kind.kind == COHERENT:
        report = coherent_intensity_sensitivities(params, kind=kind)
    elif kind.kind == SINGLE_PHOTON_H:
        report = single_photon_catalog(params).intensity
    elif kind.kind == NOON_HV:
        report = noon_intensity_sensitivities(params)
    else:
        raise DomainError("no closed-form intensity sensitivities for this input")
    for target in ("x_d", "x_s"):
        cells[f"{INTENSITY_ANALYTIC}.delta_{target}"] = report.values[target]


def evaluate_point(spec: SweepSpec, state: TwoModeState, value: float) -> SweepRow:
    columns = sweep_columns(spec)
    cells = {c: None for c in columns}
    flags = []
    kind = spec.input_state
    try:
        params = spec.params_at(value)
    except (DomainError, ValueError) as exc:
        return SweepRow(
            coordinate=float(value),
            values=cells,
            status=(f"invalid-point:{exc}",),
        )
    for method in spec.methods:
        try:
            if method == QFIM_NUMERIC:
                _eval_qfim_numeric(kind, params, state, cells, flags)
            elif method == QFIM_ANALYTIC:
                _eval_qfim_analytic(kind, params, cells, flags)
            elif method == INTENSITY_EXACT:
                _eval_intensity_exact(params, state, cells, flags)
            elif method == INTENSITY_ANALYTIC:
                _eval_intensity_analytic(kind, params, cells, flags)
            else:
                cells[f"{FIDELITY_FRINGE}.value"] = fidelity_fringe(kind, params)
        except (DomainError, ValueError) as exc:
            flags.append(f"{method}:failed:{exc}")
    return SweepRow(coordinate=float(value), values=cells, status=tuple(flags))


def run_sweep(spec: SweepSpec) -> list:
    """Evaluate every requested method at every grid point, in grid order."""
    state = prepare_input_state(spec.input_state)
    return [evaluate_point(spec, state, v) for v in spec.grid()]


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if value is None:
        return ""
    return format(value, ".12g")


def _csv_cell(text: str) -> str:
    """Quote a text cell when it would otherwise break the row apart.

    Numeric cells never need this; status messages may carry commas."""
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_sweep_csv(rows, spec: SweepSpec, target) -> None:
    """Write rows as CSV with a `# spec:` comment carrying the sweep spec.

    ``target`` is a path or a text file object.  Cells hold 12 significant
    digits; undefined cells are empty and explained in the status column.
    """
    if hasattr(target, "write"):
        _write_csv(rows, spec, target)
        return
    with open(target, "w", encoding="utf-8", newline="") as handle:
        _write_csv(rows, spec, handle)


def _write_csv(rows, spec: SweepSpec, handle) -> None:
    columns = sweep_columns(spec)
    handle.write(f"# spec: {spec.to_json()}\n")
    handle.write(",".join([spec.vary, *columns, "status"]) + "\n")
    for row in rows:
        cells = [_format_cell(row.coordinate)]
        cells.extend(_format_cell(row.values[c]) for c in columns)
        cells.append(_csv_cell(";".join(row.status)))
        handle.write(",".join(cells) + "\n")


def sweep_to_csv_text(rows, spec: SweepSpec) -> str:
    buffer = io.StringIO()
    _write_csv(rows, spec, buffer)
    return buffer.getvalue()


def panel_to_csv_text(members) -> str:
    """One wide CSV for a figure panel's ``(label, spec, rows)`` members.

    Each member's spec goes on its own ``# spec:`` line and its columns are
    prefixed with its label; the members must share one sweep grid.
    """
    base = members[0][2]
    for _, _, rows in members[1:]:
        same = len(rows) == len(base) and all(
            abs(a.coordinate - b.coordinate) <= 1e-12 for a, b in zip(rows, base)
        )
        if not same:
            raise ValueError("panel members disagree on the sweep grid")
    buffer = io.StringIO()
    for label, spec, _ in members:
        buffer.write(f"# spec: {label}: {spec.to_json()}\n")
    header = [members[0][1].vary]
    for label, spec, _ in members:
        header.extend(f"{label}.{column}" for column in sweep_columns(spec))
        header.append(f"{label}.status")
    buffer.write(",".join(header) + "\n")
    for i, base_row in enumerate(base):
        cells = [_format_cell(base_row.coordinate)]
        for _, spec, rows in members:
            row = rows[i]
            cells.extend(_format_cell(row.values[c]) for c in sweep_columns(spec))
            cells.append(_csv_cell(";".join(row.status)))
        buffer.write(",".join(cells) + "\n")
    return buffer.getvalue()


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
    if kind.kind == COHERENT:
        equal_split_photons(kind)  # else no grid point has a closed form
    missing = {QFIM_NUMERIC, QFIM_ANALYTIC} - set(grid.methods)
    if missing:
        raise ValueError(
            f"comparison needs methods {sorted(missing)} in the sweep's method list"
        )
    rows = run_sweep(grid)
    quantities = [
        q
        for q in method_quantities(kind, QFIM_ANALYTIC)
        if q in method_quantities(kind, QFIM_NUMERIC)
    ]
    stats = {}
    flagged = []
    notes = []
    for quantity in quantities:
        devs = []
        # start below zero so even an all-zero column records a coordinate
        worst = (-1.0, None)
        for row in rows:
            numeric = row.values[f"{QFIM_NUMERIC}.{quantity}"]
            analytic = row.values[f"{QFIM_ANALYTIC}.{quantity}"]
            if numeric is None or analytic is None:
                continue
            dev = abs(numeric - analytic)
            devs.append(dev)
            if dev > worst[0]:
                worst = (dev, row.coordinate)
            if dev > tol:
                flagged.append((row.coordinate, quantity, numeric, analytic, dev))
        if devs:
            stats[quantity] = DeviationStats(
                max_abs=float(max(devs)),
                mean_abs=float(sum(devs) / len(devs)),
                points=len(devs),
                worst_coordinate=worst[1],
            )
    if kind.kind == NOON_HV:
        gaps = []
        for row in rows:
            analytic = row.values[f"{QFIM_ANALYTIC}.delta_x_d"]
            if analytic is None or analytic == 0.0:
                continue
            try:
                benchmark = fock_benchmark_bound(grid.params_at(row.coordinate))
            except (DomainError, ValueError):
                continue
            gaps.append(abs(analytic - benchmark.value("x_d")) / analytic)
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


def _absorption_inputs(n0_amp: float) -> tuple:
    return (
        ("coherent", InputStateKind.coherent(n0_amp)),
        ("single_photon", InputStateKind.single_photon_h()),
        ("noon", InputStateKind.noon_hv()),
        ("fock_pair", InputStateKind.fock_one_plus_one_minus()),
    )


def _absorption_panel(x_d: float, note: str = "") -> tuple:
    start, stop, points = FIG_XS_RANGE
    specs = []
    for label, kind in _absorption_inputs(1.0):
        methods = [QFIM_NUMERIC, QFIM_ANALYTIC, INTENSITY_EXACT]
        if kind.kind != FOCK_ONE_PLUS_ONE_MINUS:
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
