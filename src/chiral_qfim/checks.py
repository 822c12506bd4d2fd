"""Invariant checks shared by ``chiral-qfim selftest`` and the acceptance suite.

Each function checks one packaged guarantee and returns a ``CheckResult``:
its worst residual, the tolerance that residual must meet, and a one-line
note.  Inputs that the two callers choose differently (grid points, probe
states, parameter pairs) are arguments; their defaults are the quick cases
the selftest runs, and the acceptance suite passes its wider grids.  The
tolerances are the module constants below, so both callers hold every
invariant to the same bound.

``CHECKS`` lists the checks in the order the selftest reports them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import (
    PROBES,
    InputStateKind,
    coherent_bounds_grid,
    coherent_intensity_grid,
    coherent_slds,
    default_param_labels,
    fidelity_fringe,
    fock_benchmark_grid,
    single_photon_grid,
)
from .channel import CHIRAL_NAMES, ChiralParams, ParamGrid, apply_channel_kraus, apply_channel_rk4
from .estimation import (
    ParamDerivative,
    _distinct_problems,
    _eigenbasis_qfim,
    _rank_one_qfim,
    _top_eigenpairs,
    channel_derivatives,
    compute_bounds,
    compute_bounds_grid,
    solve_sld,
)
from .experiments import prepare_input_state
from .fock import (
    NOON_HV,
    SINGLE_PHOTON_H,
    FockSpace,
    TwoModeState,
    coherent_product_state,
    mode_operators,
)
from .linalg import commutator, hermitian_eigen, require_hermitian

# numeric SLD against its closed form, on support-coupled pairs
SLD_TOL = 1e-8
# absorption-phase entries of the QFIM
CROSS_BLOCK_TOL = 1e-10
# number-diagonal operators commute in exact arithmetic
COMMUTATOR_TOL = 0.0
# closed-form QFIM bound against the closed-form intensity sensitivity
EXACT_TOL = 1e-12
# numeric pipeline against a closed-form bound
PIPELINE_TOL = 1e-6
# noon x_d bound minus single-photon x_d bound must fall below this
ADVANTAGE_TOL = 0.0
# two-photon fringe under a half-period shift of delta
FRINGE_TOL = 1e-12
# the one-photon fringe must move at least this much under the same shift
FRINGE_MOVEMENT_MIN = 0.1
# Kraus map against the RK4-integrated rate equation
ROUTES_TOL = 1e-8
# two damping steps against one with the composed parameters
SEMIGROUP_TOL = 1e-10
# rank-one single-mode QFIMs against the full eigensolve, relative
RANK_ONE_TOL = 1e-12
# photon counting's absorption block against the eigenbasis one, relative:
# exact for the quantum probes, to a coherent state's truncation error
COUNTING_TOL = 1e-12
COUNTING_COHERENT_TOL = 1e-8

ABSORPTION = ("x_d", "x_s")

REFERENCE_POINT = ChiralParams.from_chiral(0.05, 0.3, 0.4, 0.2)
WEAK_ABSORPTION_POINT = ChiralParams.from_chiral(0.005, 0.01, 0.0, 0.0)
ROUTES_POINT = ChiralParams(alpha_plus=0.3, alpha_minus=0.1, phi_plus=0.4, phi_minus=0.2)
SEMIGROUP_STEPS = (
    ChiralParams(alpha_plus=0.2, alpha_minus=0.1, phi_plus=0.3, phi_minus=0.1),
    ChiralParams(alpha_plus=0.25, alpha_minus=0.15, phi_plus=0.2, phi_minus=0.4),
)
BENCHMARK_POINT = ChiralParams(alpha_plus=0.5, alpha_minus=0.5, phi_plus=0.0, phi_minus=0.0)
RANK_ONE_ALPHAS = (0.0, 0.3, 1.0 - 1e-6)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one invariant check.

    ``note`` summarizes the check for the selftest report and describes its
    default inputs.  ``measured`` holds the secondary values a check gates
    on besides its residual, keyed by name; it is not part of the report.
    """

    name: str
    residual: float
    tolerance: float
    passed: bool
    note: str = ""
    measured: dict = field(default_factory=dict)

    def summary(self) -> dict:
        """The reported fields, as ``selftest --json`` prints them."""
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "note": self.note,
        }


def _max_abs(matrix) -> float:
    return float(np.abs(matrix).max(initial=0.0))


def _bound_gap(results, closed: dict) -> float:
    """Largest gap between the pipeline's absorption bounds and ``closed``."""
    return max(_max_abs([r.bound(name) for r in results] - closed[name]) for name in ABSORPTION)


def damped_coherent_mode():
    """One damped coherent mode and the closed form of its SLD.

    The plus arm holds |beta|^2 = 1 and the minus arm is vacuum, at
    alpha = 0.5 and cutoff 20.  Returns the channel output, the derivative
    of the output with respect to the transmitted fraction eta_plus, and
    the closed-form SLD n_plus/(1 - alpha) - |beta|^2.
    """
    alpha, mean_n = 0.5, 1.0
    space = FockSpace(20, 0)
    state = coherent_product_state(space, math.sqrt(mean_n), 0.0, truncation_budget=1e-15)
    params = ChiralParams(alpha_plus=alpha, alpha_minus=alpha, phi_plus=0.0, phi_minus=0.0)
    output, derivs = channel_derivatives(state, params, ("alpha_plus",))
    eta_derivative = ParamDerivative(param="eta_plus", drho=-derivs[0].drho)
    expected = mode_operators(space).n_plus / (1.0 - alpha) - mean_n * np.eye(space.dim)
    return output, eta_derivative, expected


def coherent_sld_closed_form() -> CheckResult:
    """Numeric SLD of the damped coherent mode against its closed form.

    SLDs are only determined on the support pairs, cut at the threshold that
    ``solve_sld`` reports; entries coupling two kernel directions are gauge
    and stay unchecked.
    """
    output, eta_derivative, expected = damped_coherent_mode()
    sld = solve_sld(output, eta_derivative)
    dec = hermitian_eigen(output.rho)
    lam, v = dec.eigenvalues, dec.eigenvectors
    keep = np.add.outer(lam, lam) > sld.meta["support_threshold"]
    diff = v.conj().T @ (sld.L - expected) @ v
    residual = _max_abs(np.where(keep, diff, 0.0))
    return CheckResult(
        name="coherent-sld-closed-form",
        residual=residual,
        tolerance=SLD_TOL,
        passed=residual <= SLD_TOL,
        note="damped coherent mode, alpha=0.5, mean photon number 1",
    )


def absorption_phase_zero_block(points=(REFERENCE_POINT,)) -> CheckResult:
    """Largest absorption-phase QFIM entry of the three closed-form probes."""
    worst = 0.0
    for kind in (
        InputStateKind.coherent(1.0),
        InputStateKind.single_photon_h(),
        InputStateKind.noon_hv(),
    ):
        labels = default_param_labels(kind)
        for result in compute_bounds_grid(prepare_input_state(kind), ParamGrid(points), labels):
            for absorption in ABSORPTION:
                for phase in ("delta", "sigma"):
                    if phase in labels:
                        worst = max(worst, abs(result.entry(absorption, phase)))
    return CheckResult(
        name="absorption-phase-zero-block",
        residual=worst,
        tolerance=CROSS_BLOCK_TOL,
        passed=worst <= CROSS_BLOCK_TOL,
        note="largest QFIM cross entry over the three input kinds",
    )


def absorption_phase_commutator() -> CheckResult:
    """[L_d, G_delta] at REFERENCE_POINT for the coherent n0 = 1 probe.

    L_d is the x_d SLD of the ``coherent_slds`` catalog and G_delta =
    n_plus - n_minus generates the differential phase.  Neither depends on
    the probe, so it is truncated to a 6 x 6 space (tail 1e-6) to keep the
    catalog cheap.
    """
    space = FockSpace(6, 6)
    l_d = coherent_slds(REFERENCE_POINT, 1.0, space, truncation_budget=1e-5)["x_d"]
    ops = mode_operators(space)
    residual = _max_abs(commutator(l_d, ops.n_plus - ops.n_minus))
    return CheckResult(
        name="absorption-phase-commutator",
        residual=residual,
        tolerance=COMMUTATOR_TOL,
        passed=residual <= COMMUTATOR_TOL,
        note="number-diagonal operators commute exactly",
    )


def coherent_saturation(points=(REFERENCE_POINT,), probes=None) -> CheckResult:
    """Intensity measurement saturates the coherent absorption bounds.

    ``probes`` pairs each mean photon number with its truncated input
    state; the default is n0 = 1 on the default truncation.  The residual
    is the pipeline's gap to the closed-form bound; ``measured`` carries
    the closed-form bound's gap to the intensity sensitivity.
    """
    if probes is None:
        probes = ((1.0, prepare_input_state(InputStateKind.coherent(1.0))),)
    grid = ParamGrid(points)
    exact_gap = 0.0
    numeric_gap = 0.0
    for n0, state in probes:
        closed = coherent_bounds_grid(grid, n0).values
        meter = coherent_intensity_grid(grid, n0).values
        results = compute_bounds_grid(state, grid, CHIRAL_NAMES)
        for name in ABSORPTION:
            exact_gap = max(exact_gap, _max_abs(closed[name] - meter[name]))
        numeric_gap = max(numeric_gap, _bound_gap(results, closed))
    return CheckResult(
        name="coherent-saturation",
        residual=numeric_gap,
        tolerance=PIPELINE_TOL,
        passed=exact_gap <= EXACT_TOL and numeric_gap <= PIPELINE_TOL,
        note=f"intensity matches the closed-form bound to {exact_gap:.1e}",
        measured={"closed_form_gap": exact_gap},
    )


def single_photon_saturation(points=(REFERENCE_POINT,)) -> CheckResult:
    """Intensity measurement saturates the single-photon absorption bounds.

    The residual and ``measured`` split as in ``coherent_saturation``.
    """
    kind = InputStateKind.single_photon_h()
    grid = ParamGrid(points)
    closed, meter = (form.values for form in single_photon_grid(grid))
    results = compute_bounds_grid(prepare_input_state(kind), grid, default_param_labels(kind))
    exact_gap = max(_max_abs(closed[name] - meter[name]) for name in ABSORPTION)
    numeric_gap = _bound_gap(results, closed)
    return CheckResult(
        name="single-photon-saturation",
        residual=numeric_gap,
        tolerance=PIPELINE_TOL,
        passed=exact_gap <= EXACT_TOL and numeric_gap <= PIPELINE_TOL,
        note=f"intensity matches the closed-form bound to {exact_gap:.1e}",
        measured={"closed_form_gap": exact_gap},
    )


def noon_advantage() -> CheckResult:
    """The noon x_d bound beats the single-photon one at weak absorption.

    ``measured`` carries both bounds, keyed ``noon`` and ``single-photon``.
    """
    values = {}
    for label, kind in (
        ("noon", InputStateKind.noon_hv()),
        ("single-photon", InputStateKind.single_photon_h()),
    ):
        result = compute_bounds(
            prepare_input_state(kind), WEAK_ABSORPTION_POINT, default_param_labels(kind)
        )
        values[label] = result.bound("x_d")
    margin = values["noon"] - values["single-photon"]
    return CheckResult(
        name="noon-advantage",
        residual=margin,
        tolerance=ADVANTAGE_TOL,
        passed=margin < ADVANTAGE_TOL,
        note=(
            f"x_d bound: noon {values['noon']:.6g}"
            f" vs single-photon {values['single-photon']:.6g}"
        ),
        measured=values,
    )


def fringe_period_doubling(samples: int = 33) -> CheckResult:
    """The two-photon fringe repeats under delta -> delta + pi.

    ``samples`` values of delta span [0, pi] at x_d = 0.1, x_s = 0.5.  The
    one-photon fringe must move under the same shift; its largest movement
    is ``measured["single_photon_shift"]``.
    """

    def shift(kind, delta):
        return abs(
            fidelity_fringe(kind, ChiralParams.from_chiral(0.1, 0.5, delta, 0.0))
            - fidelity_fringe(kind, ChiralParams.from_chiral(0.1, 0.5, delta + math.pi, 0.0))
        )

    deltas = [float(d) for d in np.linspace(0.0, math.pi, samples)]
    residual = max(shift(NOON_HV, d) for d in deltas)
    moved = max(shift(SINGLE_PHOTON_H, d) for d in deltas)
    return CheckResult(
        name="fringe-period-doubling",
        residual=residual,
        tolerance=FRINGE_TOL,
        passed=residual <= FRINGE_TOL and moved >= FRINGE_MOVEMENT_MIN,
        note=f"single-photon fringe moves {moved:.3g} under a half-period shift",
        measured={"single_photon_shift": moved},
    )


def channel_routes_agreement(states=None) -> CheckResult:
    """Kraus map against the RK4-integrated rate equation at ROUTES_POINT.

    ``states`` defaults to the noon and single-photon inputs, the probes
    whose loss takes the dense route.
    """
    if states is None:
        kinds = (InputStateKind.noon_hv(), InputStateKind.single_photon_h())
        states = [prepare_input_state(kind) for kind in kinds]
    residual = 0.0
    for state in states:
        kraus = apply_channel_kraus(state, ROUTES_POINT)
        rk4 = apply_channel_rk4(state, ROUTES_POINT)
        residual = max(residual, _max_abs(kraus.rho - rk4.rho))
    return CheckResult(
        name="channel-routes-agreement",
        residual=residual,
        tolerance=ROUTES_TOL,
        passed=residual <= ROUTES_TOL,
        note="Kraus map vs RK4-integrated rate equation on the noon and single-photon inputs",
    )


def channel_semigroup_composition(states=None, steps=SEMIGROUP_STEPS) -> CheckResult:
    """Two damping steps equal one step with the composed parameters.

    ``steps`` is the (first, second) parameter pair; ``states`` defaults
    to the noon and single-photon inputs, the probes whose loss takes the
    dense route.
    """
    first, second = steps
    total = ChiralParams(
        alpha_plus=1.0 - (1.0 - first.alpha_plus) * (1.0 - second.alpha_plus),
        alpha_minus=1.0 - (1.0 - first.alpha_minus) * (1.0 - second.alpha_minus),
        phi_plus=first.phi_plus + second.phi_plus,
        phi_minus=first.phi_minus + second.phi_minus,
    )
    if states is None:
        kinds = (InputStateKind.noon_hv(), InputStateKind.single_photon_h())
        states = [prepare_input_state(kind) for kind in kinds]
    residual = 0.0
    for state in states:
        stepped = apply_channel_kraus(apply_channel_kraus(state, first), second)
        direct = apply_channel_kraus(state, total)
        residual = max(residual, _max_abs(stepped.rho - direct.rho))
    return CheckResult(
        name="channel-semigroup-composition",
        residual=residual,
        tolerance=SEMIGROUP_TOL,
        passed=residual <= SEMIGROUP_TOL,
        note="two damping steps equal one with the composed parameters, noon and single photon",
    )


def benchmark_bound_match(points=(BENCHMARK_POINT,)) -> CheckResult:
    """Photon-pair pipeline bounds against the benchmark formula, x_d and x_s."""
    kind = InputStateKind.fock_one_plus_one_minus()
    grid = ParamGrid(points)
    closed = fock_benchmark_grid(grid).values
    results = compute_bounds_grid(prepare_input_state(kind), grid, default_param_labels(kind))
    residual = _bound_gap(results, closed)
    return CheckResult(
        name="benchmark-bound-match",
        residual=residual,
        tolerance=PIPELINE_TOL,
        passed=residual <= PIPELINE_TOL,
        note="photon-pair input, alpha=0.5 on both modes",
    )


def mode_problems(kind: InputStateKind, alphas) -> tuple:
    """The single-mode problems of the probe ``kind`` at ``alphas``, every
    distinct mode input at each: the loss outputs, their d/dalpha and the
    phase generator of their levels."""
    inputs = prepare_input_state(kind).mode_inputs
    rows = [list(alphas)] * len(inputs.tables)
    output, d_alpha, _, _ = _distinct_problems(inputs, rows)
    return output, d_alpha, inputs.phase_generator


def rank_one_route(problems=None) -> CheckResult:
    """The product route's rank-one QFIMs against the full eigensolve.

    ``problems`` holds (outputs, d/dalpha, phase generator) stacks, by
    default the coherent n0 = 4 probe's at RANK_ONE_ALPHAS
    (``mode_problems``).  Every problem must take the rank-one route, and
    its (alpha, phi) QFIM must match the eigenbasis QFIM of the same output;
    the residual is the largest gap relative to its problem's largest
    entry.  ``measured`` counts the problems and those solved as rank one.
    """
    if problems is None:
        problems = [mode_problems(InputStateKind.coherent(2.0), RANK_ONE_ALPHAS)]
    residual, counts = 0.0, {"problems": 0, "rank_one": 0}
    for output, d_alpha, generator in problems:
        hermitian = require_hermitian(output)
        lam, t, rank_one = _top_eigenpairs(hermitian)
        fast = _rank_one_qfim(hermitian, lam, t, d_alpha)
        full = _eigenbasis_qfim(hermitian, [d_alpha, generator * output])
        scale = np.maximum(np.abs(full).max(axis=(1, 2)), np.finfo(float).tiny)
        residual = max(residual, float((np.abs(fast - full).max(axis=(1, 2)) / scale).max()))
        counts["problems"] += len(output)
        counts["rank_one"] += int(rank_one.sum())
    return CheckResult(
        name="rank-one-route",
        residual=residual,
        tolerance=RANK_ONE_TOL,
        passed=counts["rank_one"] == counts["problems"] and residual <= RANK_ONE_TOL,
        note=f"coherent n0=4, {counts['rank_one']} of {counts['problems']} problems rank one",
        measured=counts,
    )


def _general(state: TwoModeState) -> TwoModeState:
    """The same input without its builder flag, for the general route."""
    if state.factors is None:
        return state.with_rho(state.rho)
    return TwoModeState(
        state.space,
        label=state.label,
        trace_deficit_budget=state.trace_deficit_budget,
        factors=state.factors,
    )


def check_1_points() -> list:
    """Acceptance check 1's 10 x 10 (x_d, x_s) grid inside the physical
    wedge, at zero phase and at the phases (delta, sigma) = (0.7, -0.3)."""
    return [
        ChiralParams.from_chiral(float(x_d), float(x_s), delta, sigma)
        for delta, sigma in ((0.0, 0.0), (0.7, -0.3))
        for x_s in np.linspace(0.05, 0.9, 10)
        for x_d in np.linspace(0.0, min(0.2 * (1.0 - x_s), x_s), 10)
    ]


def counting_attains_absorption(points=None, probes=None) -> CheckResult:
    """Photon counting attains the QFIM's absorption block on the builder
    probes.

    For each state of ``probes`` (by default coherent n0 = 4, cut at a
    1e-12 Poisson tail, and each quantum probe of ``PROBES``) the
    two-block route's native (α₊, α₋) block, counting's on the output
    populations, is compared at ``points`` (by default ``check_1_points()``)
    with the eigenbasis block of the same outputs on the general route (the
    input without its builder flag).  The residual is the largest gap
    relative to the eigenbasis block's largest entry over the untruncated
    probes; ``measured`` carries it and the truncated (coherent) probes',
    held to COUNTING_COHERENT_TOL.  Both coherent blocks carry the
    truncation error of the bound: at the default 1e-10 tail the eigenbasis
    block sits 2e-8 off the closed form at α₋ = 0, counting's 5e-9, hence
    the tighter tail here.
    """
    if probes is None:
        coherent = prepare_input_state(InputStateKind.coherent(2.0), budget=1e-12)
        kinds = [InputStateKind(kind) for kind, probe in PROBES.items() if probe.builder]
        probes = (coherent, *(prepare_input_state(kind) for kind in kinds))
    grid = ParamGrid(check_1_points() if points is None else points)
    labels = ("alpha_plus", "alpha_minus")
    gaps = {"exact": 0.0, "truncated": 0.0}
    for state in probes:
        counting = compute_bounds_grid(state, grid, labels).F
        eigenbasis = compute_bounds_grid(_general(state), grid, labels).F
        scale = np.abs(eigenbasis).max(axis=(1, 2))
        gap = float((np.abs(counting - eigenbasis).max(axis=(1, 2)) / scale).max())
        key = "truncated" if state.trace_deficit_budget else "exact"
        gaps[key] = max(gaps[key], gap)
    return CheckResult(
        name="counting-attains-absorption",
        residual=gaps["exact"],
        tolerance=COUNTING_TOL,
        passed=gaps["exact"] <= COUNTING_TOL and gaps["truncated"] <= COUNTING_COHERENT_TOL,
        note=(
            "photon counting's absorption block equals the eigenbasis one on four probes,"
            f" coherent n0=4 within {gaps['truncated']:.1e}"
        ),
        measured=gaps,
    )


CHECKS = (
    coherent_sld_closed_form,
    absorption_phase_zero_block,
    absorption_phase_commutator,
    coherent_saturation,
    single_photon_saturation,
    noon_advantage,
    fringe_period_doubling,
    channel_routes_agreement,
    channel_semigroup_composition,
    benchmark_bound_match,
    rank_one_route,
    counting_attains_absorption,
)
