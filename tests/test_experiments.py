"""Sweep engine: grids, moments, error propagation, CSV, comparisons."""

import csv
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from chiral_qfim.analytic import (
    FOCK_ONE_PLUS_ONE_MINUS,
    PROBES,
    InputStateKind,
    coherent_bounds,
    coherent_intensity_sensitivities,
    noon_catalog,
    noon_intensity_sensitivities,
    single_photon_catalog,
)
from chiral_qfim import channel, estimation, experiments
from chiral_qfim.channel import (
    CHIRAL_NAMES,
    COORDS_ALPHA_PHI,
    ChiralParams,
    DomainError,
    ParamGrid,
)
from chiral_qfim.estimation import NumericError, QfimResult, compute_bounds
from chiral_qfim.experiments import (
    FIDELITY_FRINGE,
    INTENSITY_ANALYTIC,
    INTENSITY_EXACT,
    QFIM_ANALYTIC,
    QFIM_NUMERIC,
    SweepRow,
    SweepSpec,
    compare_analytic_numeric,
    figure_presets,
    flags_by_reason,
    method_quantities,
    panel_to_csv_text,
    prepare_input_state,
    run_sweep,
    sweep_columns,
    sweep_to_csv_text,
)
from chiral_qfim.fock import (
    NOON_HV,
    SINGLE_PHOTON_H,
    FockSpace,
    TruncationError,
    TwoModeState,
    coherent_product_state,
    default_coherent_space,
    fock_product_state,
    hv_to_pm_amplitudes,
    hv_to_pm_state,
)
from oracles import _population_transfer, kraus_loss, population_moments

SP = InputStateKind.single_photon_h()
NOON = InputStateKind.noon_hv()
COH1 = InputStateKind.coherent(1.0)
FOCK = InputStateKind.fock_one_plus_one_minus()
COH_HV = InputStateKind.coherent(0.6 + 0.2j, 0.3)


def spec_for(kind, **overrides):
    base = dict(
        input_state=kind,
        vary="x_s",
        start=0.1,
        stop=0.5,
        points=3,
        methods=(QFIM_NUMERIC, QFIM_ANALYTIC),
    )
    base.update(overrides)
    return SweepSpec(**base)


# ---------------------------------------------------------------------------
# spec validation and serialization
# ---------------------------------------------------------------------------


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="vary must be one of"):
        spec_for(SP, vary="theta")
    with pytest.raises(ValueError, match="at least 2 points"):
        spec_for(SP, points=1)
    with pytest.raises(ValueError, match="alpha in"):
        spec_for(SP, vary="alpha", stop=1.0)
    with pytest.raises(ValueError, match="alpha in"):
        spec_for(SP, start=-0.2)
    with pytest.raises(ValueError, match="unknown fixed parameters"):
        spec_for(SP, fixed={"xd": 0.1})
    with pytest.raises(ValueError, match="cannot be both varied and fixed"):
        spec_for(SP, fixed={"x_s": 0.1})
    for name in ("x_d", "x_s"):
        with pytest.raises(ValueError, match="x_d and x_s cannot be fixed"):
            spec_for(SP, vary="alpha", start=0.1, stop=0.3, fixed={name: 0.05})
    with pytest.raises(ValueError, match="at least one method"):
        spec_for(SP, methods=())
    with pytest.raises(ValueError, match="unknown methods"):
        spec_for(SP, methods=("qfim",))
    with pytest.raises(ValueError, match="applies to single-photon, noon inputs only"):
        spec_for(COH1, methods=(FIDELITY_FRINGE,))


def test_param_grid_common_alpha():
    spec = spec_for(SP, vary="alpha", start=0.0, stop=0.9, points=4, fixed={"delta": 0.4})
    grid, invalid = spec.param_grid()
    assert invalid == [None] * 4
    assert grid.alpha_plus.tolist() == grid.alpha_minus.tolist() == [0.0, 0.3, 0.6, 0.9]
    assert grid.delta == pytest.approx(0.4, abs=1e-15)
    assert grid.phi_plus + grid.phi_minus == pytest.approx(0.0, abs=1e-15)


def test_param_grid_gives_each_rejected_point_the_chiral_params_message():
    spec = spec_for(SP, vary="x_d", start=-0.5, stop=0.5, points=11, fixed={"x_s": 0.3})
    grid, invalid = spec.param_grid()
    expected, valid = [], []
    for value in spec.grid():
        try:
            valid.append(ChiralParams.from_chiral(value, 0.3, 0.0, 0.0).values(COORDS_ALPHA_PHI))
            expected.append(None)
        except DomainError as exc:
            expected.append(str(exc))
    assert invalid == expected
    assert list(zip(*grid.values(COORDS_ALPHA_PHI))) == valid
    assert 0 < len(grid) < len(invalid)


def test_sweep_row_rejects_non_finite_cells():
    with pytest.raises(ValueError, match="non-finite"):
        SweepRow(coordinate=0.1, values={"m.q": float("nan")})


def test_prepare_input_state_spaces():
    assert prepare_input_state(SP).space == FockSpace(1, 1)
    assert prepare_input_state(NOON).space == FockSpace(2, 2)
    assert prepare_input_state(FOCK).space == FockSpace(1, 1)
    coherent = prepare_input_state(COH1)
    assert coherent.space.cutoff_plus >= 6
    assert np.trace(coherent.rho).real == pytest.approx(1.0, abs=1e-9)


def test_prepare_input_state_runs_no_eigensolve(monkeypatch, fresh_input_states):
    # ρ = ψψ† is PSD by construction; only the TwoModeState checks run
    def refuse(*args, **kwargs):
        raise AssertionError("input preparation ran an eigensolve")

    monkeypatch.setattr(TwoModeState, "validate_psd", refuse)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for kind in (COH1, SP, NOON, FOCK):
        assert prepare_input_state(kind).trace() == pytest.approx(1.0, abs=1e-9)


def _coherent_reference(kind, space, budget):
    amp_p, amp_m = hv_to_pm_amplitudes(kind.amp_h, kind.amp_v)
    if space is None:
        space, budget = default_coherent_space(amp_p, amp_m, budget=budget)
    return coherent_product_state(space, amp_p, amp_m, truncation_budget=budget)


@pytest.mark.parametrize(
    "kind, cutoff, budget, reference",
    [
        (SP, None, None, lambda: hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1))),
        (NOON, None, None, lambda: hv_to_pm_state(NOON_HV, FockSpace(2, 2))),
        (FOCK, None, None, lambda: fock_product_state(FockSpace(1, 1), 1, 1)),
        (SP, 3, None, lambda: hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(3, 3))),
        (NOON, 4, None, lambda: hv_to_pm_state(NOON_HV, FockSpace(4, 4))),
        (FOCK, 2, None, lambda: fock_product_state(FockSpace(2, 2), 1, 1)),
        (COH1, None, None, lambda: _coherent_reference(COH1, None, 1e-10)),
        (COH1, None, 1e-6, lambda: _coherent_reference(COH1, None, 1e-6)),
        (COH1, 30, 1e-6, lambda: _coherent_reference(COH1, FockSpace(30, 30), 1e-6)),
        # without a budget an explicit cutoff must meet the default one
        (COH1, 10, None, lambda: _coherent_reference(COH1, FockSpace(10, 10), 1e-10)),
        (COH_HV, 12, None, lambda: _coherent_reference(COH_HV, FockSpace(12, 12), 1e-10)),
    ],
)
def test_prepare_input_state_equals_the_state_built_by_hand(kind, cutoff, budget, reference):
    state, expected = prepare_input_state(kind, cutoff, budget), reference()
    assert state.space == expected.space
    assert state.trace_deficit_budget == expected.trace_deficit_budget
    if expected.factors is None:
        assert state.factors is None
        assert np.array_equal(state.rho, expected.rho)
    else:
        assert all(map(np.array_equal, state.factors, expected.factors))


def test_prepare_input_state_refuses_a_budget_for_a_quantum_kind_and_a_short_cutoff():
    for kind in (SP, NOON, FOCK):
        with pytest.raises(DomainError, match="--budget applies only to coherent inputs"):
            prepare_input_state(kind, budget=1e-9)
    with pytest.raises(TruncationError, match="cutoff >= 16 required"):
        prepare_input_state(InputStateKind.coherent(2.0), 3, 1e-10)
    # a cutoff is held to the default budget too: its own tail is not accepted
    with pytest.raises(TruncationError, match="tail 1.710e-10 > budget 1.000e-10; cutoff >= 10"):
        prepare_input_state(COH1, 9)


def test_prepare_input_state_keeps_one_read_only_state_per_input(fresh_input_states):
    state = prepare_input_state(NOON)
    assert prepare_input_state(NOON) is state and prepare_input_state(NOON, 4) is not state
    assert not state.rho.flags.writeable
    # the key is typed: a float cutoff is refused however the int one was built
    prepare_input_state(SP, 2)
    with pytest.raises(ValueError, match="cutoff_plus must be a nonnegative integer"):
        prepare_input_state(SP, 2.0)
    # a refusal is not kept: it raises again
    for _ in range(2):
        with pytest.raises(TruncationError, match="cutoff >= 10"):
            prepare_input_state(COH1, 9)
    info = prepare_input_state.cache_info()
    assert (info.hits, info.currsize, info.maxsize) == (1, 3, 8)


def _count_builders(monkeypatch) -> Counter:
    """Calls of each state builder that ``prepare_input_state`` reads: the
    coherent product's, and each quantum probe's in the probe table."""
    built = Counter()

    def counting(name, builder):
        def count(*args, **kwargs):
            built[name] += 1
            return builder(*args, **kwargs)

        return count

    product = counting("coherent_product_state", experiments.coherent_product_state)
    monkeypatch.setattr(experiments, "coherent_product_state", product)
    for kind, probe in PROBES.items():
        if probe.builder:
            monkeypatch.setitem(PROBES, kind, replace(probe, builder=counting(kind, probe.builder)))
    return built


def test_a_preset_builds_each_distinct_input_once(monkeypatch, fresh_input_states):
    # fig2a's 16 members sweep four inputs, each at four chirality offsets
    members = figure_presets()["fig2a"]
    built = _count_builders(monkeypatch)
    for _, spec in members:
        run_sweep(spec)
    assert len(members) == 16 and len({spec.input_state for _, spec in members}) == 4
    assert sum(built.values()) == 4
    assert built == {
        "coherent_product_state": 1,
        SINGLE_PHOTON_H: 1,
        NOON_HV: 1,
        FOCK_ONE_PLUS_ONE_MINUS: 1,
    }


def test_every_preset_member_csv_is_the_same_from_a_fresh_or_a_kept_state(fresh_input_states):
    members = [member for panel in figure_presets().values() for member in panel]
    fresh = []
    for _, spec in members:
        prepare_input_state.cache_clear()
        fresh.append(sweep_to_csv_text(run_sweep(spec), spec))
    prepare_input_state.cache_clear()
    kept = [sweep_to_csv_text(run_sweep(spec), spec) for _, spec in members]
    # 71 members over 5 inputs: every member after an input's first reads
    # the state that first one built and bounded
    assert prepare_input_state.cache_info().misses == 5
    for (label, _), fresh_text, kept_text in zip(members, fresh, kept, strict=True):
        assert kept_text.encode() == fresh_text.encode(), label


# ---------------------------------------------------------------------------
# intensity statistics and error propagation
# ---------------------------------------------------------------------------


def intensity_signals(kind, params):
    """The variances of the signals n₊ − n₋ and n₊ + n₋ at one point, and
    their shared slope, from the population route."""
    state = prepare_input_state(kind)
    variances, slope = experiments._intensity_moments(state, ParamGrid([params]))
    return variances[:, 0].tolist(), float(slope[0])


def test_intensity_signals_single_photon():
    # ⟨n₊⟩ = 0.2 and ⟨n₋⟩ = 0.3 with one photon at most: Var n₊ = 0.16,
    # Var n₋ = 0.21 and Cov = −0.06, so Var(n₊ ∓ n₋) = 0.37 ± 0.12
    variances, slope = intensity_signals(SP, ChiralParams(alpha_plus=0.6, alpha_minus=0.4))
    assert variances == pytest.approx([0.49, 0.25], abs=1e-12)
    # ⟨n±⟩ = η±/2
    assert slope == pytest.approx(-1.0, abs=1e-12)


def test_intensity_signals_coherent_modes_uncorrelated():
    # uncorrelated Poisson modes: Var(n₊ ∓ n₋) = ⟨n₊⟩ + ⟨n₋⟩ = 1 − x_s, the
    # two variances 4|Cov| apart
    variances, slope = intensity_signals(COH1, ChiralParams.from_chiral(0.1, 0.4, 0.3, 0.0))
    assert abs(variances[0] - variances[1]) <= 4e-10
    # the default truncation budget leaves a ~1e-10 tail in the moments
    assert variances == pytest.approx([0.6, 0.6], abs=1e-8)
    assert slope == pytest.approx(-1.0, abs=1e-8)


def test_intensity_signals_vacuum_input():
    params = ChiralParams(alpha_plus=0.3, alpha_minus=0.2)
    assert intensity_signals(InputStateKind.coherent(0.0), params) == ([0.0, 0.0], 0.0)


def intensity_sensitivity(kind, params, target, state=None):
    """δ``target`` from intensity measurement at one point, from the population
    route; None where the signal does not move."""
    state = prepare_input_state(kind) if state is None else state
    value = experiments._intensity_columns(state, ParamGrid([params]))[f"delta_{target}"][0]
    return None if math.isnan(value) else float(value)


def test_error_propagation_reference_values():
    coh = intensity_sensitivity(COH1, ChiralParams.from_chiral(0.0, 0.5, 0.0, 0.0), "x_s")
    assert coh == pytest.approx(0.707107, abs=1e-6)
    sp = intensity_sensitivity(SP, ChiralParams.from_chiral(0.1, 0.5, 0.0, 0.0), "x_d")
    assert sp == pytest.approx(0.7, abs=1e-8)
    # the exact cancellation leaves only sqrt(machine epsilon) noise
    noon = intensity_sensitivity(NOON, ChiralParams(alpha_plus=0.0, alpha_minus=0.0), "x_s")
    assert noon == pytest.approx(0.0, abs=1e-7)


# interior points, then the wedge edges alpha_- = 0, alpha_+ = 0 and x_s = 0.95
INTENSITY_POINTS = [(0.1, 0.5), (0.005, 0.3), (0.05, 0.05), (-0.05, 0.05), (0.04, 0.95)]


def _coherent_probe(n0, budget):
    amp_p, amp_m = hv_to_pm_amplitudes(math.sqrt(n0), 0.0)
    space, effective = default_coherent_space(amp_p, amp_m, budget=budget, cap=None)
    return coherent_product_state(space, amp_p, amp_m, truncation_budget=effective)


@pytest.mark.parametrize("x_d, x_s", INTENSITY_POINTS)
def test_intensity_route_matches_closed_forms(x_d, x_s):
    params = ChiralParams.from_chiral(x_d, x_s, 0.3, 0.1)
    cases = [
        (SP, None, single_photon_catalog(params).intensity, 1e-9),
        (NOON, None, noon_intensity_sensitivities(params), 1e-9),
    ]
    for n0 in (1.0, 2.0):
        kind = InputStateKind.coherent(math.sqrt(n0))
        closed = coherent_intensity_sensitivities(params, n0)
        # the closed form describes the untruncated beam: a 1e-16 tail keeps
        # truncation below the tolerance, while the default 1e-10 budget
        # alone shifts the sensitivities by up to about 4e-9
        cases.append((kind, _coherent_probe(n0, 1e-16), closed, 1e-9))
        cases.append((kind, None, closed, 1e-8))
    for kind, state, closed, rel in cases:
        for target in ("x_d", "x_s"):
            value = intensity_sensitivity(kind, params, target, state)
            assert value == pytest.approx(closed.values[target], rel=rel, abs=0)


@pytest.mark.parametrize("kind", [SP, NOON, COH1, FOCK])
def test_intensity_signals_equal_dense_population_moments(kind):
    # the output populations and their α-derivatives by the Kraus loop on ρ
    state = prepare_input_state(kind)
    n_plus, n_minus = state.space.number_grids()
    signals = np.array([n_plus - n_minus, n_plus + n_minus])
    for params in (
        ChiralParams(0.6, 0.4, 0.3, -0.2),
        ChiralParams(0.0, 0.35, 0.1, 0.0),
        ChiralParams(0.2, 0.0, 0.0, 0.4),
    ):
        alphas = (params.alpha_plus, params.alpha_minus)
        out, d_plus, d_minus = kraus_loss(state.rho, state.space, *alphas)
        pops = np.diag(out).real
        dense = pops @ (signals**2).T - (pops @ signals.T) ** 2
        slope = np.diag(d_plus).real @ n_plus + np.diag(d_minus).real @ n_minus
        variances, value = intensity_signals(kind, params)
        np.testing.assert_allclose(variances, dense, rtol=0, atol=1e-12)
        assert value == pytest.approx(slope, abs=1e-12)


# the probes of the intensity moments: three dense-free quantum inputs, and
# coherent H, elliptical and circular probes, the last two at unequal cutoffs
POPULATION_PROBES = {
    "single-photon": SP,
    "noon": NOON,
    "photon-pair": FOCK,
    "coherent-h": COH1,
    "elliptical": InputStateKind.coherent(1.0, 0.5j),
    "circular": InputStateKind.coherent(1.0, 1.0j),
}
EDGE_ABSORPTIONS = (0.0, 1e-300, 1e-13, 0.3, 1 - 1e-6)


@pytest.mark.parametrize("kind", list(POPULATION_PROBES.values()), ids=list(POPULATION_PROBES))
def test_intensity_moments_match_the_joint_population_route(kind):
    state = prepare_input_state(kind)
    pairs = [(a, b) for a in EDGE_ABSORPTIONS for b in EDGE_ABSORPTIONS]
    grid = ParamGrid([ChiralParams(a, b, 0.3, 0.1) for a, b in pairs])
    ref_variances, ref_slopes, ref_columns = population_moments(state, grid)
    variances, slope = experiments._intensity_moments(state, grid)
    # both signals' slope is −(⟨n₊⟩ + ⟨n₋⟩) of the input
    for ref_slope in ref_slopes:
        np.testing.assert_allclose(slope, ref_slope, rtol=1e-14, atol=0)
    # every variance is a sum of non-negative terms in both routes; a count
    # centred on a mean that is exact to its last bit, ε⟨n⟩, keeps (ε⟨n⟩)²
    # where its variance is 0, and no output mean exceeds |slope|
    gap = np.abs(variances - ref_variances)
    assert np.all(gap <= 1e-14 * ref_variances + 1e-30 * slope**2)
    columns = experiments._intensity_columns(state, grid)
    for quantity, expected in ref_columns.items():
        value = columns[quantity]
        assert np.array_equal(np.isnan(value), np.isnan(expected))
        np.testing.assert_allclose(value, expected, rtol=1e-14, atol=0, err_msg=quantity)


@pytest.mark.parametrize("kind", list(POPULATION_PROBES.values()), ids=list(POPULATION_PROBES))
def test_intensity_cells_of_a_point_do_not_depend_on_its_grid(kind):
    state = prepare_input_state(kind)
    rng = np.random.default_rng(37)
    alphas = rng.uniform(0.0, 0.99, (2, 37))
    alphas[:, :5] = EDGE_ABSORPTIONS, EDGE_ABSORPTIONS[::-1]
    grid = ParamGrid([ChiralParams(a, b) for a, b in alphas.T.tolist()])
    columns = experiments._intensity_columns(state, grid)
    halves = [experiments._intensity_columns(state, part) for part in (grid[:18], grid[18:])]
    alone = [experiments._intensity_columns(state, grid[b]) for b in range(len(grid))]
    for quantity, cells in columns.items():
        joined = np.concatenate([half[quantity] for half in halves])
        assert np.array_equal(cells, joined, equal_nan=True)
        one_point = np.concatenate([point[quantity] for point in alone])
        assert np.array_equal(cells, one_point, equal_nan=True)


@pytest.mark.parametrize("kind", [NOON, COH1], ids=["dense", "per_mode"])
def test_intensity_columns_of_an_empty_grid_are_empty(kind):
    # as the bound pass and every closed form give them: (0,) columns
    state, empty = prepare_input_state(kind), ParamGrid(())
    columns = experiments._intensity_columns(state, empty)
    assert set(columns) == {"delta_x_d", "delta_x_s"}
    bounds = experiments._bound_columns(state, empty, experiments.default_param_labels(kind))
    for cells in (*columns.values(), *bounds.values()):
        assert cells.shape == (0,)


def test_intensity_moments_hold_no_dense_transfer_stack():
    # 200 points of an n0 = 60 probe (cutoff 71): a (B, d, d) float64 stack
    # is 8.3 MB, and the joint-population route held eight of them
    state = prepare_input_state(InputStateKind.coherent(math.sqrt(60.0)))
    d = state.space.cutoff_plus + 1
    assert d == state.space.cutoff_minus + 1 == 72
    grid, _ = ParamGrid.from_chiral(0.05, np.linspace(0.06, 0.9, 200), 0.0, 0.0)
    assert len(grid) == 200
    assert _peak_bytes(lambda: experiments._intensity_columns(state, grid)) < 4 * 200 * d * d * 8


def test_error_propagation_rejects_phase_targets():
    # the phases move no population, so only x_d and x_s have a column
    params = ChiralParams.from_chiral(0.1, 0.5, 0.2, 0.0)
    columns = experiments._intensity_columns(prepare_input_state(SP), ParamGrid([params]))
    assert set(columns) == {"delta_x_d", "delta_x_s"}
    # the vacuum's signal does not move: no sensitivity, NaN in the sweep column
    vacuum = InputStateKind.coherent(0.0)
    for target in ("x_d", "x_s"):
        assert intensity_sensitivity(vacuum, params, target) is None
    spec = spec_for(vacuum, methods=(INTENSITY_EXACT,))
    row = run_sweep(spec)[0]
    assert row.values == {f"{INTENSITY_EXACT}.delta_{t}": None for t in ("x_d", "x_s")}


# ---------------------------------------------------------------------------
# sweeps and CSV
# ---------------------------------------------------------------------------


def test_run_sweep_degenerate_two_points():
    spec = spec_for(
        SP,
        points=2,
        fixed={"x_d": 0.02},
        methods=(QFIM_NUMERIC, QFIM_ANALYTIC, INTENSITY_EXACT, INTENSITY_ANALYTIC),
    )
    rows = run_sweep(spec)
    assert len(rows) == 2
    assert [r.coordinate for r in rows] == [0.1, 0.5]
    for row in rows:
        assert row.status == ()
        for column in sweep_columns(spec):
            assert row.values[column] is not None
    text = sweep_to_csv_text(rows, spec)
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert lines[0].startswith("# spec: ")
    assert lines[1].split(",")[0] == "x_s"
    assert lines[1].split(",")[-1] == "status"


def test_run_sweep_flags_failures_and_continues():
    spec = spec_for(NOON, start=0.05, stop=0.15, points=3, fixed={"x_d": 0.1})
    rows = run_sweep(spec)
    assert len(rows) == 3
    # x_s = 0.05 gives alpha_minus < 0: no parameters at all
    assert any(flag.startswith("invalid-point:") for flag in rows[0].status)
    assert all(v is None for v in rows[0].values.values())
    # x_s = 0.1 gives alpha_minus = 0: the catalog reports its limit, pipeline works
    assert "qfim_analytic:limit-evaluated" in rows[1].status
    assert not any(":failed:" in flag for flag in rows[1].status)
    assert math.isfinite(rows[1].values[f"{QFIM_ANALYTIC}.delta_x_d"])
    assert rows[1].values[f"{QFIM_NUMERIC}.delta_delta"] is not None
    # x_s = 0.15 is a regular point
    assert rows[2].status == ()


def test_sweep_csv_round_trip_and_formatting():
    spec = spec_for(SP, points=3, fixed={"x_d": 0.02}, methods=(QFIM_NUMERIC,))
    rows = run_sweep(spec)
    text = sweep_to_csv_text(rows, spec)
    lines = text.strip().split("\n")
    assert lines[0] == f"# spec: {spec.to_json()}"
    header = lines[1].split(",")
    assert header == ["x_s", *sweep_columns(spec), "status"]
    first = lines[2].split(",")
    assert first[0] == "0.1"
    value = float(first[1])
    assert value == pytest.approx(rows[0].values[header[1]], rel=1e-11)
    assert "nan" not in text.lower()


def test_sweep_csv_empty_marker_for_undefined_cells():
    spec = spec_for(
        InputStateKind.fock_one_plus_one_minus(),
        points=2,
        methods=(QFIM_NUMERIC,),
    )
    rows = run_sweep(spec)
    text = sweep_to_csv_text(rows, spec)
    lines = text.strip().split("\n")
    header = lines[1].split(",")
    first = lines[2].split(",")
    # the photon-pair state carries no phase reference: delta stays empty
    # with a status flag; the absorption covariance is a real (zero) value
    assert first[header.index(f"{QFIM_NUMERIC}.delta_delta")] == ""
    assert first[header.index(f"{QFIM_NUMERIC}.cov_x_d_x_s")] == "0"
    assert "unidentifiable" in first[-1]


def test_sweep_csv_quotes_status_messages_with_commas():
    # x_s below x_d makes alpha_minus negative; the refusal message quotes
    # the interval "[0, 1)", whose comma must not split the CSV row
    spec = spec_for(SP, points=2, start=0.02, stop=0.2, fixed={"x_d": 0.05})
    rows = run_sweep(spec)
    assert any("," in flag for flag in rows[0].status)
    text = sweep_to_csv_text(rows, spec)
    lines = text.strip().split("\n")
    parsed = list(csv.reader(lines[1:]))
    assert all(len(line) == len(parsed[0]) for line in parsed)
    assert "alpha_minus" in parsed[1][-1]


def _reference_cell(value) -> str:
    return "" if value is None else format(value, ".12g")


def _reference_status(status) -> str:
    text = ";".join(status)
    return '"' + text.replace('"', '""') + '"' if any(ch in text for ch in ',"\n') else text


def reference_csv_text(rows, spec) -> str:
    """A sweep's CSV written a row at a time, one format(v, '.12g') per cell."""
    columns = sweep_columns(spec)
    lines = [f"# spec: {spec.to_json()}", ",".join([spec.vary, *columns, "status"])]
    for row in rows:
        cells = [_reference_cell(row.coordinate)]
        cells += [_reference_cell(row.values[column]) for column in columns]
        lines.append(",".join([*cells, _reference_status(row.status)]))
    return "\n".join(lines) + "\n"


SPECIAL_VALUES = [-0.0, 5e-324, -1e-300, 1e-5, 1e16, 123456789012345.0, 3.0, 0.1 + 0.2, 1 / 3]


def special_value_rows(spec, coordinates=None):
    """Six rows of floating-point edge cases (−0, a subnormal, exponent
    notation, digits past 12) with empty cells, and status messages to
    quote; a row holds no ±inf (``SweepRow`` refuses one)."""
    columns = sweep_columns(spec)
    cells = np.resize(SPECIAL_VALUES, (6, len(columns) + 1))
    cells[3, 2] = cells[4, 1] = cells[5, -1] = math.nan
    return experiments.SweepTable(
        cells[:, 0] if coordinates is None else coordinates,
        {column: cells[:, k + 1] for k, column in enumerate(columns)},
        [(), ("x:failed:a, b",), (), ('y "z"',), (), ()],
    )


SPECIAL_SPEC = spec_for(SP, points=6, methods=(QFIM_NUMERIC, QFIM_ANALYTIC, INTENSITY_EXACT))
FIGURE_MEMBERS = [*figure_presets()["fig2a"], *figure_presets()["fig4"]]
CSV_MEMBERS = [*FIGURE_MEMBERS, ("special-values", SPECIAL_SPEC)]


@pytest.mark.parametrize("label, spec", CSV_MEMBERS, ids=[m[0] for m in CSV_MEMBERS])
def test_figure_member_csv_equals_a_per_row_reference_writer(label, spec):
    rows = special_value_rows(spec) if label == "special-values" else run_sweep(spec)
    assert sweep_to_csv_text(rows, spec) == reference_csv_text(rows, spec)


def reference_panel_csv_text(members) -> str:
    """A panel's CSV written a row at a time, one format(v, '.12g') per cell."""
    lines = [f"# spec: {label}: {spec.to_json()}" for label, spec, _ in members]
    header = [members[0][1].vary]
    for label, spec, _ in members:
        header += [f"{label}.{column}" for column in sweep_columns(spec)] + [f"{label}.status"]
    lines.append(",".join(header))
    for i, base in enumerate(members[0][2]):
        cells = [_reference_cell(base.coordinate)]
        for _, spec, rows in members:
            row = rows[i]
            cells += [_reference_cell(row.values[column]) for column in sweep_columns(spec)]
            cells.append(_reference_status(row.status))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def special_value_panel():
    grid = np.array([0.1, -0.0, 5e-324, 0.1 + 0.2, 1.0 / 3.0, 1e16])
    specs = [("a", SPECIAL_SPEC), ("b", spec_for(SP, points=6, methods=(INTENSITY_EXACT,)))]
    return [(label, spec, special_value_rows(spec, grid)) for label, spec in specs]


@pytest.mark.parametrize("panel", ["fig2e", "fig4", "special-values"])
def test_panel_csv_equals_a_per_row_reference_writer(panel):
    if panel == "special-values":
        members = special_value_panel()
    else:
        members = [(label, spec, run_sweep(spec)) for label, spec in figure_presets()[panel]]
    assert panel_to_csv_text(members) == reference_panel_csv_text(members)


@pytest.mark.parametrize("label", ["coherent_xd0.2", "noon_xd0.2"])
def test_a_figure_sweep_builds_no_per_point_objects(monkeypatch, label):
    # x_d = 0.2 puts the first grid values outside the domain
    spec = dict(figure_presets()["fig2a"])[label]
    built = Counter()
    for cls in (ChiralParams, QfimResult):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    rows = run_sweep(spec)
    counts = dict(built)
    invalid = [row for row in rows if row.status[:1] and row.status[0].startswith("invalid-point")]
    # the grid check formats a rejected point's message without a ChiralParams
    assert 0 < len(invalid) < len(rows)
    assert counts == {}


def test_sweep_handles_fully_singular_points():
    vacuum = InputStateKind.coherent(0.0)
    spec = spec_for(vacuum, points=2, methods=(QFIM_NUMERIC,))
    rows = run_sweep(spec)
    for row in rows:
        assert all(v is None for v in row.values.values())
        assert any("unidentifiable" in flag for flag in row.status)
        assert any("unavailable" in flag for flag in row.status)


# ---------------------------------------------------------------------------
# cross-method invariants on sweep rows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind", [InputStateKind.coherent(0.8, 0.6j), InputStateKind.coherent(1.0, 1j)]
)
def test_sweep_refuses_equal_split_closed_forms_for_phased_coherent_probes(kind):
    # both coherent closed forms assume |amp+| = |amp-|, which a relative
    # H/V phase breaks: their cells stay empty and are flagged
    methods = (QFIM_NUMERIC, QFIM_ANALYTIC, INTENSITY_EXACT, INTENSITY_ANALYTIC)
    spec = spec_for(
        kind, start=0.3, stop=0.5, points=2, fixed={"x_d": 0.05}, methods=methods
    )
    for row in run_sweep(spec):
        for method in (QFIM_ANALYTIC, INTENSITY_ANALYTIC):
            assert any(
                flag.startswith(f"{method}:failed:") and "zero relative phase" in flag
                for flag in row.status
            )
            assert all(
                value is None
                for column, value in row.values.items()
                if column.startswith(f"{method}.")
            )
        assert row.values[f"{INTENSITY_EXACT}.delta_x_d"] is not None


@pytest.mark.parametrize(
    "kind", [InputStateKind.coherent(0.8, -0.6), InputStateKind.coherent(-0.8, 0.6)]
)
def test_sweep_gives_anti_phase_coherent_probes_their_closed_forms(kind):
    # anti-phase H/V amplitudes still split the photons equally between
    # the circular modes, so the equal-split closed forms apply
    pairs = ((QFIM_NUMERIC, QFIM_ANALYTIC), (INTENSITY_EXACT, INTENSITY_ANALYTIC))
    spec = spec_for(
        kind,
        start=0.3,
        stop=0.5,
        points=2,
        fixed={"x_d": 0.05},
        methods=tuple(method for pair in pairs for method in pair),
    )
    for row in run_sweep(spec):
        assert not any(":failed:" in flag for flag in row.status)
        for numeric, analytic in pairs:
            for quantity in method_quantities(kind, analytic):
                assert row.value(analytic, quantity) == pytest.approx(
                    row.value(numeric, quantity), abs=1e-6
                )


def test_saturation_rows_for_coherent_and_single_photon():
    for kind in (COH1, SP):
        spec = spec_for(
            kind,
            start=0.1,
            stop=0.9,
            points=5,
            fixed={"x_d": 0.02},
            methods=(QFIM_ANALYTIC, INTENSITY_EXACT),
        )
        for row in run_sweep(spec):
            for quantity in ("delta_x_d", "delta_x_s"):
                analytic = row.value(QFIM_ANALYTIC, quantity)
                exact = row.value(INTENSITY_EXACT, quantity)
                assert exact == pytest.approx(analytic, abs=1e-8)


def test_gap_rows_for_noon():
    spec = spec_for(
        NOON,
        vary="alpha",
        start=0.05,
        stop=0.85,
        points=5,
        methods=(QFIM_ANALYTIC, INTENSITY_EXACT),
    )
    for row in run_sweep(spec):
        assert row.value(QFIM_ANALYTIC, "delta_x_d") <= (
            row.value(INTENSITY_EXACT, "delta_x_d") + 1e-10
        )


def test_fig4_origin_hierarchy_values():
    for kind, expected in (
        (SP, 1.0),
        (InputStateKind.coherent(math.sqrt(2.0)), 1.0 / math.sqrt(2.0)),
        (NOON, 0.5),
    ):
        spec = spec_for(kind, vary="alpha", start=0.0, stop=0.9, points=2)
        row = run_sweep(spec)[0]
        assert row.value(QFIM_NUMERIC, "delta_delta") == pytest.approx(
            expected, abs=1e-8
        )
        assert row.value(QFIM_ANALYTIC, "delta_delta") == pytest.approx(
            expected, abs=1e-10
        )
        if kind.kind != "coherent":
            assert any("limit-evaluated" in flag for flag in row.status)


# ---------------------------------------------------------------------------
# analytic-vs-numeric comparison
# ---------------------------------------------------------------------------


def test_compare_coherent_grid():
    for x_d in (0.0, 0.05, 0.1):
        spec = spec_for(
            COH1, start=0.15, stop=0.85, points=5, fixed={"x_d": x_d}
        )
        report = compare_analytic_numeric(COH1, spec)
        assert report.max_bound_deviation <= 1e-6
        assert report.stats["cov_x_d_x_s"].points == 5
        assert not [f for f in report.flagged if f[1] == "cov_x_d_x_s"]
        assert not any("sign" in n for n in report.notes)


def test_compare_single_photon_and_noon_grids():
    for kind in (SP, NOON):
        for x_d in (0.005, 0.05):
            spec = spec_for(
                kind, start=0.1, stop=0.9, points=5, fixed={"x_d": x_d}
            )
            report = compare_analytic_numeric(kind, spec)
            assert report.max_bound_deviation <= 1e-6
            assert not [f for f in report.flagged if f[1].startswith("delta_")]
    noon_spec = spec_for(NOON, start=0.1, stop=0.9, points=5, fixed={"x_d": 0.05})
    noon_report = compare_analytic_numeric(NOON, noon_spec)
    assert any("benchmark" in note for note in noon_report.notes)


def test_compare_requires_both_routes_and_matching_kind():
    spec = spec_for(SP, methods=(QFIM_NUMERIC,))
    with pytest.raises(ValueError, match="comparison needs methods"):
        compare_analytic_numeric(SP, spec)
    with pytest.raises(ValueError, match="must match"):
        compare_analytic_numeric(NOON, spec_for(SP))
    # a phased coherent probe has no closed form to compare against
    phased = InputStateKind.coherent(0.8, 0.6j)
    with pytest.raises(DomainError, match="zero relative phase"):
        compare_analytic_numeric(phased, spec_for(phased, fixed={"x_d": 0.05}))


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------


def test_figure_presets_cover_reference_grids():
    presets = figure_presets()
    assert sorted(presets) == sorted(
        [f"fig2{c}" for c in "abcdef"] + [f"fig3{c}" for c in "abcdef"] + ["fig4"]
    )
    assert len(presets["fig2a"]) == 16
    assert sorted(dict(presets["fig3f"])) == ["fock_pair", "noon"]
    panel = dict(presets["fig2b"])
    assert sorted(panel) == ["coherent", "fock_pair", "noon", "single_photon"]
    spec = panel["noon"]
    assert spec.vary == "x_s"
    assert (spec.start, spec.stop, spec.points) == (0.01, 0.95, 95)
    assert spec.fixed == {"x_d": 0.005}
    assert dict(presets["fig2c"])["coherent"].fixed == {"x_d": 0.05}
    assert dict(presets["fig3e"])["noon"].fixed == {"x_d": 0.2}
    assert "coherent column" in panel["coherent"].note

    fig4 = dict(presets["fig4"])
    assert sorted(fig4) == ["coherent_n2", "noon", "single_photon"]
    assert fig4["coherent_n2"].input_state.mean_photons == pytest.approx(2.0)
    assert fig4["noon"].vary == "alpha"
    assert (fig4["noon"].start, fig4["noon"].stop, fig4["noon"].points) == (
        0.0,
        0.9,
        91,
    )


def test_preset_panel_runs_end_to_end():
    presets = figure_presets()
    label, spec = presets["fig3b"][1]
    assert label == "single_photon"
    small = SweepSpec(
        input_state=spec.input_state,
        vary=spec.vary,
        start=0.2,
        stop=0.8,
        points=4,
        fixed=spec.fixed,
        methods=spec.methods,
    )
    rows = run_sweep(small)
    x_d_bounds = [r.value(QFIM_ANALYTIC, "delta_x_d") for r in rows]
    assert all(b is not None for b in x_d_bounds)
    # a more strongly absorbing sample pins its absorption down better
    assert x_d_bounds == sorted(x_d_bounds, reverse=True)


# ---------------------------------------------------------------------------
# bright coherent probes: the default truncation at any brightness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n0", [8.0, 20.0, 60.0])
def test_bright_coherent_probe_matches_closed_form(n0):
    params = ChiralParams.from_chiral(x_d=0.1, x_s=0.3, delta=0.0, sigma=0.0)
    state = prepare_input_state(InputStateKind.coherent(math.sqrt(n0)))
    result = compute_bounds(state, params, CHIRAL_NAMES)
    closed = coherent_bounds(params, n0).values
    for name in CHIRAL_NAMES:
        assert result.bound(name) == pytest.approx(closed[name], rel=1e-6)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_product_input_never_forms_the_two_mode_matrix():
    # a dense rho on this 1681-dim space would be 45 MB
    space = FockSpace(40, 40)
    amp_p, amp_m = hv_to_pm_amplitudes(math.sqrt(20.0), 0.3j)
    params = ChiralParams.from_chiral(x_d=0.1, x_s=0.3, delta=0.7, sigma=0.3)
    built = []
    assert _peak_bytes(lambda: built.append(coherent_product_state(space, amp_p, amp_m))) < 2e6
    state = built[0]
    assert _peak_bytes(lambda: compute_bounds(state, params, CHIRAL_NAMES)) < 2e6
    grid = ParamGrid([params])
    assert _peak_bytes(lambda: experiments._intensity_columns(state, grid)) < 2e6
    assert "rho" not in vars(state)


def point_at(spec, b):
    """Point b of a sweep's valid grid as ChiralParams."""
    grid, _ = spec.param_grid()
    return ChiralParams(*(float(c[b]) for c in grid.values(COORDS_ALPHA_PHI)))


def _coarse_members():
    """Every fig2a and fig4 member on a 7-point grid, plus each fig2a member
    started at x_s = x_d, where the minus mode is lossless (fig4 starts at
    alpha = 0, where both are)."""
    presets = figure_presets()
    for label, spec in presets["fig2a"] + presets["fig4"]:
        yield label, replace(spec, points=7)
    for label, spec in presets["fig2a"]:
        yield f"{label}@alpha_minus=0", replace(spec, start=spec.fixed["x_d"], points=7)


@pytest.mark.parametrize("name", list(POPULATION_PROBES))
def test_the_intensity_slope_is_the_dense_transfer_slope_with_no_kernel_call(monkeypatch, name):
    # the slope is the input's −(μ₊ + μ₋), with no loss kernel call, and
    # matches Σ m ∂p/∂α with ∂p from the dense ∂T/∂α to 1e-15
    state = prepare_input_state(POPULATION_PROBES[name])
    grid = ParamGrid(
        [ChiralParams(a, b, 0.3, 0.1) for a in EDGE_ABSORPTIONS for b in (*EDGE_ABSORPTIONS, 0.6)]
    )

    def refuse(*args, **kwargs):
        raise AssertionError("the intensity moments called the loss kernel")

    for module in (channel, estimation):
        monkeypatch.setattr(module, "factored_loss_output", refuse)
    _, slope = experiments._intensity_moments(state, grid)
    space = state.space
    if state.factors is None:
        pops = np.diag(state.rho).real.reshape(space.cutoff_plus + 1, space.cutoff_minus + 1)
    else:
        pops = np.outer(*(np.diag(factor).real for factor in state.factors))
    expected = 0.0
    for q, alpha in ((pops.sum(axis=1), grid.alpha_plus), (pops.sum(axis=0), grid.alpha_minus)):
        _, d_transfer = _population_transfer(len(q) - 1, alpha)
        expected = expected + ((d_transfer @ q) * np.arange(len(q))).sum(axis=1)
    assert np.all(np.abs(slope - expected) <= 1e-15 * np.abs(expected))


@pytest.mark.parametrize("label, spec", list(_coarse_members()), ids=lambda v: str(v)[:40])
def test_grid_sweep_equals_the_batch_of_one(monkeypatch, label, spec):
    rows = run_sweep(spec)
    each_point = experiments._each_point

    def one_point_at_a_time(batch, grid):
        # a batch of more than one point fails, so the bisection runs each alone
        def alone(part):
            if len(part) > 1:
                raise NumericError("one point at a time")
            return batch(part)

        return each_point(alone, grid)

    monkeypatch.setattr(experiments, "_each_point", one_point_at_a_time)
    per_point = run_sweep(spec)
    # the same bits: no point's arithmetic depends on the grid around it
    assert list(rows) == list(per_point)
    if spec.fixed.get("x_d", 0.0) > spec.start:
        assert rows[0].status[0].startswith("invalid-point:")


@pytest.mark.parametrize("kind", [NOON, COH1], ids=["dense", "per_mode"])
def test_a_sweep_across_both_domain_edges_puts_each_point_in_its_own_row(kind):
    # x_d from −0.5 to 0.5 at x_s = 0.4 leaves an absorption negative at
    # both ends: the valid points are the rows between, each with its own cells
    methods = (QFIM_NUMERIC, QFIM_ANALYTIC, INTENSITY_EXACT)
    spec = spec_for(kind, vary="x_d", start=-0.5, stop=0.5, points=21, fixed={"x_s": 0.4})
    table = run_sweep(replace(spec, methods=methods))
    state, labels = prepare_input_state(kind), experiments.default_param_labels(kind)
    valid = []
    for row, x_d in zip(table, spec.grid().tolist(), strict=True):
        try:
            point = ParamGrid([ChiralParams.from_chiral(x_d, 0.4, 0.0, 0.0)])
        except DomainError as exc:
            assert row.status == (f"invalid-point:{exc}",)
            assert set(row.values.values()) == {None}
            continue
        valid.append(x_d)
        cells = {
            QFIM_NUMERIC: experiments._bound_columns(state, point, labels),
            QFIM_ANALYTIC: experiments._closed_form_columns(kind, QFIM_ANALYTIC, point),
            INTENSITY_EXACT: experiments._intensity_columns(state, point),
        }
        for column, value in row.values.items():
            method, quantity = column.split(".")
            expected = cells[method][quantity][0].item()
            assert value == (None if math.isnan(expected) else expected), column
    assert valid == [x for x in spec.grid().tolist() if abs(x) <= 0.4]
    assert 0 < len(valid) < len(table)


@pytest.mark.parametrize("kind", [NOON, COH1], ids=["dense", "per_mode"])
@pytest.mark.parametrize("fill", [math.nan, 0.0], ids=["nan", "zero"])
def test_a_failing_point_flags_only_its_own_row(monkeypatch, kind, fill):
    # x_d = 0.03 keeps every point's alpha_plus apart from every alpha_minus
    spec = spec_for(kind, start=0.2, stop=0.6, points=5, fixed={"x_d": 0.03})
    spec = replace(spec, methods=(QFIM_NUMERIC, QFIM_ANALYTIC, INTENSITY_EXACT))
    clean = run_sweep(spec)
    broken = point_at(spec, 2)
    kernel = channel.factored_loss_output
    moments = experiments._intensity_moments

    def failing_kernel_at_one_point(factor_tables, spectra, owners, alpha):
        # the one loss kernel, dense or per mode: fill the output of every
        # problem that reads the broken absorption
        out = kernel(factor_tables, spectra, owners, alpha)
        out[(np.reshape(alpha, (len(owners), -1)) == broken.alpha_plus).any(axis=1)] = fill
        return out

    def failing_moments_at_one_point(state, grid):
        # the intensity moments read no kernel output: they raise where the
        # grid holds the broken point
        if (grid.alpha_plus == broken.alpha_plus).any():
            raise NumericError(f"intensity moments refused at alpha_plus={broken.alpha_plus}")
        return moments(state, grid)

    for module in (channel, estimation):
        monkeypatch.setattr(module, "factored_loss_output", failing_kernel_at_one_point)
    monkeypatch.setattr(experiments, "_intensity_moments", failing_moments_at_one_point)
    rows = run_sweep(spec)
    state = prepare_input_state(kind)
    with pytest.raises((DomainError, ValueError, NumericError)) as numeric:
        compute_bounds(state, broken, experiments.default_param_labels(kind))
    with pytest.raises((DomainError, ValueError, NumericError)) as intensity:
        experiments._intensity_columns(state, ParamGrid([broken]))
    failed = tuple(f for f in rows[2].status if ":failed:" in f)
    assert failed == (
        f"{QFIM_NUMERIC}:failed:{numeric.value}",
        f"{INTENSITY_EXACT}:failed:{intensity.value}",
    )
    if fill == 0.0 and kind == COH1:
        assert numeric.type is NumericError
    for i, (row, ref) in enumerate(zip(rows, clean, strict=True)):
        if i == 2:
            analytic = f"{QFIM_ANALYTIC}.delta_x_d"
            assert row.values[f"{QFIM_NUMERIC}.delta_x_d"] is None
            assert row.values[analytic] == ref.values[analytic]
            continue
        # every other point's cells keep their bits through the bisection
        assert row == ref


@pytest.mark.parametrize("kind", [NOON, COH1], ids=["dense", "per_mode"])
def test_a_qfim_that_is_not_psd_flags_only_its_own_row(monkeypatch, kind):
    spec = spec_for(kind, start=0.2, stop=0.6, points=5, fixed={"x_d": 0.03})
    spec = replace(spec, methods=(QFIM_NUMERIC, QFIM_ANALYTIC))
    clean = run_sweep(spec)
    broken = point_at(spec, 2)
    # the builder probes' native blocks, whose phase block is checked PSD
    name = "_product_blocks" if kind == COH1 else "_dense_blocks"
    route = getattr(estimation, name)

    def negated_at_one_point(state, grid):
        blocks = route(state, grid)
        at = grid.alpha_plus == broken.alpha_plus
        if kind == COH1:  # the diagonal information and its finite part
            for info in blocks[:2]:
                info[at, 2:] *= -1.0
        else:  # the phase QFIM
            blocks[2][at] *= -1.0
        return blocks

    monkeypatch.setattr(estimation, name, negated_at_one_point)
    with pytest.raises(NumericError, match="QFIM has negative eigenvalue") as refused:
        compute_bounds(prepare_input_state(kind), broken, experiments.default_param_labels(kind))
    rows = run_sweep(spec)
    failed = tuple(f for f in rows[2].status if ":failed:" in f)
    assert failed == (f"{QFIM_NUMERIC}:failed:{refused.value}",)
    for i, (row, ref) in enumerate(zip(rows, clean, strict=True)):
        if i != 2:
            # every other point's cells keep their bits through the bisection
            assert row == ref


@pytest.mark.parametrize("method", [QFIM_NUMERIC, QFIM_ANALYTIC])
def test_a_failing_point_costs_few_grid_calls(monkeypatch, method):
    spec = spec_for(NOON, start=0.1, stop=0.6, points=95, fixed={"x_d": 0.03}, methods=(method,))
    clean = run_sweep(spec)
    broken = point_at(spec, 47).alpha_plus
    # the numeric grid pass, or the NOON bound form of the probe table
    probe = PROBES[NOON_HV]
    grid_route = experiments.compute_bounds_grid if method == QFIM_NUMERIC else probe.bound
    calls = []

    def failing_at_one_point(*args):
        points = next(arg for arg in args if isinstance(arg, ParamGrid))
        calls.append(len(points))
        if broken in points.alpha_plus:
            raise NumericError(f"a grid of {len(points)} points fails")
        return grid_route(*args)

    if method == QFIM_NUMERIC:
        monkeypatch.setattr(experiments, "compute_bounds_grid", failing_at_one_point)
    else:
        monkeypatch.setitem(PROBES, NOON_HV, replace(probe, bound=failing_at_one_point))
    rows = run_sweep(spec)
    # bisection: the whole grid, then two halves per level down to the point
    assert calls[0] == 95
    assert len(calls) <= 1 + 2 * math.ceil(math.log2(95)) == 15
    assert rows[47].status == (f"{method}:failed:a grid of 1 points fails",)
    for i, (row, ref) in enumerate(zip(rows, clean, strict=True)):
        if i != 47:
            # the bisection's smaller grids give every other point the same bits
            assert row == ref


def test_a_closed_form_failing_at_one_point_flags_only_its_own_row(monkeypatch):
    # the grid starts at x_s = x_d, where the minus mode is lossless: the
    # closed form's limit there must survive the bisection
    spec = spec_for(NOON, start=0.03, stop=0.63, points=5, fixed={"x_d": 0.03})
    clean = run_sweep(spec)
    assert clean[0].status[0] == f"{QFIM_ANALYTIC}:limit-evaluated"
    broken = point_at(spec, 2)
    closed_form_columns = experiments._closed_form_columns

    def past_the_domain_at_one_point(kind, method, grid):
        at_broken = grid.alpha_plus == broken.alpha_plus
        moved = grid[:]
        moved.alpha_plus = np.where(at_broken, 1.0, grid.alpha_plus)
        return closed_form_columns(kind, method, moved)

    monkeypatch.setattr(experiments, "_closed_form_columns", past_the_domain_at_one_point)
    rows = run_sweep(spec)
    object.__setattr__(broken, "alpha_plus", 1.0)
    with pytest.raises(DomainError) as scalar:
        noon_catalog(broken)
    assert rows[2].status == clean[2].status + (f"{QFIM_ANALYTIC}:failed:{scalar.value}",)
    for column, value in rows[2].values.items():
        if column.startswith(QFIM_ANALYTIC):
            assert value is None
        else:
            assert value == clean[2].values[column]
    for i, (row, ref) in enumerate(zip(rows, clean, strict=True)):
        if i != 2:
            assert row.status == ref.status and row.values == ref.values


def test_closed_form_flags_keep_their_order_at_the_lossless_endpoint():
    spec = dict(figure_presets()["fig4"])["noon"]
    row = run_sweep(replace(spec, points=4))[0]
    assert row.coordinate == 0.0
    assert row.status == (
        f"{QFIM_ANALYTIC}:limit-evaluated",
        f"{QFIM_ANALYTIC}.cov_x_d_x_s:unavailable",
    )


def test_flags_are_grouped_by_reason():
    statuses = [
        ("invalid-point:alpha_minus must lie in [0, 1), got -0.1",),
        ("qfim_numeric.delta_delta:unidentifiable", "qfim_numeric:failed:x"),
        ("qfim_numeric.delta_delta:unidentifiable",),
        ("qfim_numeric:failed:y", "qfim_numeric:failed:z"),
        (),
    ]
    assert flags_by_reason(statuses) == {
        "qfim_numeric:failed": 2,
        "qfim_numeric.delta_delta:unidentifiable": 2,
        "invalid-point": 1,
    }
    assert list(flags_by_reason(statuses))[0] == "qfim_numeric.delta_delta:unidentifiable"
