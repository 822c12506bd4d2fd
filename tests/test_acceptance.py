"""End-to-end acceptance checks, one per packaged guarantee.

Every test emits a single pass/fail verdict line.  The line is printed
immediately (visible under ``pytest -s``) and also recorded in ``VERDICTS``,
which the conftest terminal-summary hook replays after capture ends so the
verdicts appear in every run.

Checks 1-3 and 6-10 take their shared residuals and tolerances from
``chiral_qfim.checks``, the functions ``chiral-qfim selftest`` runs on its
single-point defaults; here they run on wider grids, and each test adds
only the assertions the selftest has no counterpart for.
"""

import math
import sys
import time

import numpy as np

from chiral_qfim import (
    CHIRAL_NAMES,
    ChiralParams,
    FockSpace,
    InputStateKind,
    apply_channel_kraus,
    checks,
    coherent_bounds,
    coherent_product_state,
    compute_bounds,
    default_coherent_space,
    default_param_labels,
    fidelity_fringe,
    hermitian_eigen,
    hv_to_pm_amplitudes,
    noon_catalog,
    prepare_input_state,
    single_photon_catalog,
)

VERDICTS: list = []


def report(name: str, passed: bool, detail: str = "") -> bool:
    line = f"[{name}] {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f": {detail}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    return passed


def coherent_state_for(n0: float, budget: float = 1e-10):
    """Uncapped tail-budgeted truncation for an H-polarized coherent probe."""
    amp_p, amp_m = hv_to_pm_amplitudes(math.sqrt(n0), 0.0)
    space, effective = default_coherent_space(amp_p, amp_m, budget=budget, cap=None)
    return coherent_product_state(space, amp_p, amp_m, truncation_budget=effective)


def absorption_grid():
    """10x10 chirality grid as (x_d, x_s) pairs inside the physical wedge."""
    for x_s in np.linspace(0.05, 0.9, 10):
        for x_d in np.linspace(0.0, min(0.2 * (1.0 - x_s), x_s), 10):
            yield float(x_d), float(x_s)


def absorption_points():
    return [ChiralParams.from_chiral(x_d, x_s, 0.0, 0.0) for x_d, x_s in absorption_grid()]


def test_coherent_intensity_saturates_qfim_bound_on_grid():
    t0 = time.perf_counter()
    points = absorption_points()
    probes = [(n0, coherent_state_for(n0)) for n0 in (1.0, 4.0)]
    shared = checks.coherent_saturation(points, probes)
    elapsed = time.perf_counter() - t0
    ok = shared.passed and elapsed < 5.0
    assert report(
        "1 coherent saturation",
        ok,
        f"closed-form gap {shared.measured['closed_form_gap']:.1e}, pipeline gap"
        f" {shared.residual:.1e}, {len(points) * len(probes)} points in {elapsed:.2f}s",
    )


def test_single_photon_catalog_and_pipeline_agree_on_grid():
    points = absorption_points()
    shared = checks.single_photon_saturation(points)
    kind = InputStateKind.single_photon_h()
    state = prepare_input_state(kind)
    labels = default_param_labels(kind)
    worst_formula = 0.0
    for (x_d, x_s), params in zip(absorption_grid(), points):
        result = compute_bounds(state, params, labels)
        worst_formula = max(
            worst_formula,
            abs(result.bound("x_d") ** 2 - (1.0 - x_s - x_d**2)),
            abs(result.bound("x_s") ** 2 - x_s * (1.0 - x_s)),
            abs(result.covariance("x_d", "x_s") - (-x_s * x_d)),
        )
    ok = shared.passed and worst_formula <= 1e-6
    assert report(
        "2 single-photon saturation",
        ok,
        f"closed-form gap {shared.measured['closed_form_gap']:.1e}, variance/covariance"
        f" gap {worst_formula:.1e}",
    )


def test_noon_bound_beats_weaker_probes_and_vanishes_with_loss():
    shared = checks.noon_advantage()
    noon = shared.measured["noon"]
    single = shared.measured["single-photon"]
    coherent2 = compute_bounds(
        coherent_state_for(2.0), checks.WEAK_ABSORPTION_POINT, CHIRAL_NAMES
    ).bound("x_d")
    noon_kind = InputStateKind.noon_hv()
    trail = []
    for x_s in (1e-1, 1e-2, 1e-3):
        weak = ChiralParams.from_chiral(x_s / 2.0, x_s, 0.0, 0.0)
        trail.append(
            compute_bounds(
                prepare_input_state(noon_kind), weak, default_param_labels(noon_kind)
            ).bound("x_d")
        )
    ok = (
        shared.passed
        and noon < coherent2
        and trail[0] > trail[1] > trail[2]
        and trail[2] <= 0.05
    )
    assert report(
        "3 noon advantage",
        ok,
        f"x_d bounds {noon:.4f} (noon) vs {single:.4f} (single photon) vs"
        f" {coherent2:.4f} (coherent n0=2); noon bound {trail[2]:.4f} at"
        " x_s=0.001 along x_d=x_s/2",
    )


def test_coherent_floor_at_zero_absorption():
    params = ChiralParams.from_chiral(0.0, 0.0, 0.0, 0.0)
    target = math.sqrt(0.5)
    closed_gap = abs(coherent_bounds(params, 2.0).value("x_d") - target)
    numeric = compute_bounds(
        coherent_state_for(2.0, budget=1e-15), params, CHIRAL_NAMES
    ).bound("x_d")
    numeric_gap = abs(numeric - target)
    ok = closed_gap <= 1e-10 and numeric_gap <= 1e-10
    assert report(
        "4 coherent floor",
        ok,
        f"deviation from sqrt(1/2): closed {closed_gap:.1e},"
        f" pipeline {numeric_gap:.1e}",
    )


def test_phase_bound_values_at_vanishing_absorption():
    alpha = 1e-6
    params = ChiralParams(
        alpha_plus=alpha, alpha_minus=alpha, phi_plus=0.0, phi_minus=0.0
    )
    single_kind = InputStateKind.single_photon_h()
    noon_kind = InputStateKind.noon_hv()
    single = compute_bounds(
        prepare_input_state(single_kind), params, default_param_labels(single_kind)
    ).bound("delta")
    coherent2 = compute_bounds(coherent_state_for(2.0), params, CHIRAL_NAMES).bound(
        "delta"
    )
    noon = compute_bounds(
        prepare_input_state(noon_kind), params, default_param_labels(noon_kind)
    ).bound("delta")
    ok = (
        abs(single - 1.0) <= 1e-3
        and abs(coherent2 - math.sqrt(0.5)) <= 1e-3
        and abs(noon - 0.5) <= 1e-3
    )
    assert report(
        "5a phase hierarchy endpoints",
        ok,
        f"delta bounds {single:.6f} (single photon), {coherent2:.6f}"
        f" (coherent n0=2), {noon:.6f} (noon)",
    )


def test_phase_bound_ratios_across_absorption_range():
    # With equal absorption alpha on both modes and eta = 1 - alpha the delta
    # bounds are 1/sqrt(eta) (single photon), 1/sqrt(2 eta) (coherent n0=2)
    # and 1/(2 eta) (noon, whose phase QFI N^2 eta^N falls faster with loss).
    # The proportion is therefore 2 sqrt(eta) : sqrt(2 eta) : 1, which is
    # 2 : sqrt(2) : 1 only at zero absorption (check 5a), and the ordering
    # noon < coherent < single photon holds up to alpha = 0.5.
    single_kind = InputStateKind.single_photon_h()
    noon_kind = InputStateKind.noon_hv()
    pipeline_probes = (
        (prepare_input_state(single_kind), default_param_labels(single_kind)),
        (coherent_state_for(2.0), CHIRAL_NAMES),
        (prepare_input_state(noon_kind), default_param_labels(noon_kind)),
    )
    tolerance = {"closed-form": 1e-10, "pipeline": 1e-6}
    deviations = {route: [] for route in tolerance}
    misordered = []
    alphas = [float(alpha) for alpha in np.linspace(0.0, 0.3, 7)]
    for alpha in alphas:
        eta = 1.0 - alpha
        params = ChiralParams(
            alpha_plus=alpha, alpha_minus=alpha, phi_plus=0.0, phi_minus=0.0
        )
        routes = {
            "closed-form": (
                single_photon_catalog(params).bounds.value("delta"),
                coherent_bounds(params, 2.0).value("delta"),
                noon_catalog(params).bounds.value("delta"),
            ),
            "pipeline": tuple(
                compute_bounds(state, params, labels).bound("delta")
                for state, labels in pipeline_probes
            ),
        }
        for route, (single, coherent2, noon) in routes.items():
            if not noon < coherent2 < single:
                misordered.append(f"{route} at alpha={alpha:.2f}")
            for label, ratio, target in (
                ("single-photon/noon", single / noon, 2.0 * math.sqrt(eta)),
                ("coherent/noon", coherent2 / noon, math.sqrt(2.0 * eta)),
                ("single-photon/coherent", single / coherent2, math.sqrt(2.0)),
            ):
                deviations[route].append((abs(ratio - target), alpha, label))
    worst = {route: max(entries) for route, entries in deviations.items()}
    ok = not misordered and all(
        worst[route][0] <= limit for route, limit in tolerance.items()
    )
    gaps = "; ".join(
        f"{route} gap {deviation:.1e} at alpha={alpha:.2f} ({label})"
        for route, (deviation, alpha, label) in worst.items()
    )
    order = "noon < coherent n0=2 < single photon"
    order += (
        f" broken: {', '.join(misordered)}"
        if misordered
        else f" at all {len(alphas)} alphas on both routes"
    )
    assert report(
        "5b phase hierarchy ratios",
        ok,
        f"2 sqrt(eta) : sqrt(2 eta) : 1 over alpha in [0, 0.3]; {gaps}; {order}",
    )


def test_closed_form_sld_for_damped_coherent_mode():
    shared = checks.coherent_sld_closed_form()
    output, eta_derivative, expected = checks.damped_coherent_mode()
    equation_gap = float(
        np.abs(
            eta_derivative.drho - 0.5 * (expected @ output.rho + output.rho @ expected)
        ).max()
    )
    ok = shared.passed and equation_gap <= 1e-8
    assert report(
        "6 damped-coherent SLD closed form",
        ok,
        f"support-coupled gap {shared.residual:.1e}, defining-equation gap"
        f" {equation_gap:.1e} at cutoff 20",
    )


def test_absorption_phase_qfim_cross_block_vanishes():
    cases = [
        ChiralParams.from_chiral(fraction * x_s, x_s, 0.4, 0.25)
        for x_s in (0.1, 0.4, 0.7)
        for fraction in (0.0, 0.3)
    ]
    cross = checks.absorption_phase_zero_block(cases)
    comm = checks.absorption_phase_commutator()
    assert report(
        "7 absorption-phase decoupling",
        cross.passed and comm.passed,
        f"largest QFIM cross entry {cross.residual:.1e}; [L_d, G_delta] max entry"
        f" {comm.residual:g}",
    )


def test_fringe_period_halves_for_the_two_photon_probe():
    shared = checks.fringe_period_doubling(samples=41)
    overlap_gap = 0.0
    for kind in (InputStateKind.single_photon_h(), InputStateKind.noon_hv()):
        state = prepare_input_state(kind)
        psi = hermitian_eigen(state.rho).eigenvectors[:, -1]
        for delta in np.linspace(0.0, 2.0 * math.pi, 9):
            params = ChiralParams.from_chiral(0.1, 0.5, float(delta), 0.0)
            output = apply_channel_kraus(state, params)
            overlap = float(np.real(psi.conj() @ output.rho @ psi))
            overlap_gap = max(
                overlap_gap, abs(overlap - fidelity_fringe(kind, params))
            )
    ok = shared.passed and overlap_gap <= 1e-10
    assert report(
        "8 fringe period doubling",
        ok,
        f"two-photon half-period shift {shared.residual:.1e}, one-photon shift"
        f" {shared.measured['single_photon_shift']:.3f}, formula-vs-channel gap"
        f" {overlap_gap:.1e}",
    )


def test_channel_routes_and_semigroup_agree():
    steps = (
        checks.ROUTES_POINT,
        ChiralParams(alpha_plus=0.25, alpha_minus=0.15, phi_plus=0.1, phi_minus=0.3),
    )
    amp_p, amp_m = hv_to_pm_amplitudes(math.sqrt(0.5), 0.0)
    states = (
        coherent_product_state(FockSpace(6, 6), amp_p, amp_m, truncation_budget=1e-7),
        prepare_input_state(InputStateKind.single_photon_h()),
        prepare_input_state(InputStateKind.noon_hv()),
        prepare_input_state(InputStateKind.fock_one_plus_one_minus()),
    )
    routes = checks.channel_routes_agreement(states)
    semigroup = checks.channel_semigroup_composition(states, steps)
    assert report(
        "9 engine cross-validation",
        routes.passed and semigroup.passed,
        f"Kraus-vs-RK4 gap {routes.residual:.1e}, semigroup composition gap"
        f" {semigroup.residual:.1e} over four input states",
    )


def test_photon_pair_bound_matches_benchmark_formula():
    grid = [
        ChiralParams(
            alpha_plus=float(alpha_plus),
            alpha_minus=float(alpha_minus),
            phi_plus=0.0,
            phi_minus=0.0,
        )
        for alpha_plus in np.linspace(0.05, 0.9, 6)
        for alpha_minus in np.linspace(0.05, 0.9, 6)
    ]
    shared = checks.benchmark_bound_match(grid)
    assert report(
        "10 photon-pair benchmark",
        shared.passed,
        f"largest gap to sqrt(a+(1-a+)+a-(1-a-))/2 over the grid: {shared.residual:.1e}",
    )
