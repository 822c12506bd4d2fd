"""Sweep engine: grids, moments, error propagation, CSV, comparisons."""

import csv
import io
import math
import tracemalloc

import numpy as np
import pytest

from chiral_qfim.analytic import (
    InputStateKind,
    coherent_bounds,
    coherent_intensity_sensitivities,
    noon_intensity_sensitivities,
    single_photon_catalog,
)
from chiral_qfim import experiments
from chiral_qfim.channel import CHIRAL_NAMES, ChiralParams, DomainError, apply_channel_kraus
from chiral_qfim.estimation import compute_bounds
from chiral_qfim.experiments import (
    FIDELITY_FRINGE,
    INTENSITY_ANALYTIC,
    INTENSITY_EXACT,
    QFIM_ANALYTIC,
    QFIM_NUMERIC,
    SweepRow,
    SweepSpec,
    compare_analytic_numeric,
    error_propagation_sensitivity,
    figure_presets,
    intensity_statistics,
    method_quantities,
    prepare_input_state,
    run_sweep,
    sweep_columns,
    sweep_to_csv_text,
    write_sweep_csv,
)
from chiral_qfim.fock import (
    FockSpace,
    TwoModeState,
    coherent_product_state,
    default_coherent_space,
    hv_to_pm_amplitudes,
)

SP = InputStateKind.single_photon_h()
NOON = InputStateKind.noon_hv()
COH1 = InputStateKind.coherent(1.0)
FOCK = InputStateKind.fock_one_plus_one_minus()


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
    with pytest.raises(ValueError, match="single-photon and NOON"):
        spec_for(COH1, methods=(FIDELITY_FRINGE,))


def test_sweep_spec_json_round_trip():
    spec = SweepSpec(
        input_state=InputStateKind.coherent(0.8, 0.2j),
        vary="delta",
        start=0.0,
        stop=math.pi,
        points=7,
        fixed={"x_s": 0.3, "x_d": 0.05},
        methods=(QFIM_NUMERIC, QFIM_ANALYTIC, INTENSITY_EXACT),
        output_path="out.csv",
        note="caption check",
    )
    assert SweepSpec.from_json(spec.to_json()) == spec
    assert SweepSpec.from_json(spec_for(NOON).to_json()) == spec_for(NOON)


def test_params_at_common_alpha():
    spec = spec_for(SP, vary="alpha", start=0.0, stop=0.9, fixed={"delta": 0.4})
    params = spec.params_at(0.3)
    assert params.alpha_plus == params.alpha_minus == 0.3
    assert params.delta == pytest.approx(0.4, abs=1e-15)
    assert params.sigma == pytest.approx(0.0, abs=1e-15)


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


def test_prepare_input_state_runs_no_eigensolve(monkeypatch):
    # ρ = ψψ† is PSD by construction; only the TwoModeState checks run
    def refuse(*args, **kwargs):
        raise AssertionError("input preparation ran an eigensolve")

    monkeypatch.setattr(TwoModeState, "validate_psd", refuse)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for kind in (COH1, SP, NOON, FOCK):
        assert prepare_input_state(kind).trace() == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# intensity statistics and error propagation
# ---------------------------------------------------------------------------


def test_intensity_statistics_single_photon():
    params = ChiralParams(alpha_plus=0.6, alpha_minus=0.4)
    stats = intensity_statistics(SP, params)
    assert stats.mean_plus == pytest.approx(0.2, abs=1e-12)
    assert stats.mean_minus == pytest.approx(0.3, abs=1e-12)
    assert stats.var_plus == pytest.approx(0.2 * 0.8, abs=1e-12)
    assert stats.var_minus == pytest.approx(0.3 * 0.7, abs=1e-12)
    assert stats.covariance == pytest.approx(-0.06, abs=1e-12)


def test_intensity_statistics_coherent_modes_uncorrelated():
    params = ChiralParams.from_chiral(0.1, 0.4, 0.3, 0.0)
    stats = intensity_statistics(COH1, params)
    assert stats.covariance == pytest.approx(0.0, abs=1e-10)
    assert stats.var_plus == pytest.approx(stats.mean_plus, abs=1e-9)
    assert stats.var_minus == pytest.approx(stats.mean_minus, abs=1e-9)
    # the default truncation budget leaves a ~1e-10 tail in the moments
    assert stats.mean_plus + stats.mean_minus == pytest.approx(0.6, abs=1e-8)


def test_intensity_statistics_vacuum_input():
    stats = intensity_statistics(
        InputStateKind.coherent(0.0), ChiralParams(alpha_plus=0.3, alpha_minus=0.2)
    )
    assert stats == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_error_propagation_reference_values():
    coh = error_propagation_sensitivity(
        COH1, ChiralParams.from_chiral(0.0, 0.5, 0.0, 0.0), "x_s"
    )
    assert coh == pytest.approx(0.707107, abs=1e-6)
    sp = error_propagation_sensitivity(
        SP, ChiralParams.from_chiral(0.1, 0.5, 0.0, 0.0), "x_d"
    )
    assert sp == pytest.approx(0.7, abs=1e-8)
    # the exact cancellation leaves only sqrt(machine epsilon) noise
    noon = error_propagation_sensitivity(
        NOON, ChiralParams(alpha_plus=0.0, alpha_minus=0.0), "x_s"
    )
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
            value = error_propagation_sensitivity(kind, params, target, state)
            assert value == pytest.approx(closed.values[target], rel=rel, abs=0)


@pytest.mark.parametrize("kind", [SP, NOON, COH1, FOCK])
def test_intensity_statistics_equal_dense_population_moments(kind):
    state = prepare_input_state(kind)
    for params in (
        ChiralParams(0.6, 0.4, 0.3, -0.2),
        ChiralParams(0.0, 0.35, 0.1, 0.0),
        ChiralParams(0.2, 0.0, 0.0, 0.4),
    ):
        pops = np.diag(apply_channel_kraus(state, params).rho).real
        n_plus, n_minus = state.space.number_grids()
        mean_p, mean_m = pops @ n_plus, pops @ n_minus
        dense = (
            mean_p,
            mean_m,
            pops @ n_plus**2 - mean_p**2,
            pops @ n_minus**2 - mean_m**2,
            pops @ (n_plus * n_minus) - mean_p * mean_m,
        )
        np.testing.assert_allclose(intensity_statistics(kind, params), dense, rtol=0, atol=1e-12)


def test_error_propagation_rejects_phase_targets():
    with pytest.raises(DomainError, match="does not move"):
        error_propagation_sensitivity(SP, ChiralParams.from_chiral(0.1, 0.5, 0.2, 0.0), "delta")
    with pytest.raises(ValueError, match="target must be one of"):
        error_propagation_sensitivity(SP, ChiralParams.from_chiral(0.1, 0.5, 0.2, 0.0), "theta")


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
    buffer = io.StringIO()
    write_sweep_csv(rows, spec, buffer)
    lines = buffer.getvalue().strip().split("\n")
    recovered = SweepSpec.from_json(lines[0].removeprefix("# spec: "))
    assert recovered == spec
    header = lines[1].split(",")
    assert header == ["x_s", *sweep_columns(spec), "status"]
    first = lines[2].split(",")
    assert first[0] == "0.1"
    value = float(first[1])
    assert value == pytest.approx(rows[0].values[header[1]], rel=1e-11)
    assert "nan" not in buffer.getvalue().lower()


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
    assert _peak_bytes(lambda: experiments._intensity_sensitivities(state, params)) < 2e6
    assert "rho" not in vars(state)
