"""Tests for the numerical QFIM pipeline: derivatives, SLDs, assembly, bounds."""

import itertools
import math
from functools import partial

import numpy as np
import pytest

from chiral_qfim.analytic import (
    PROBES,
    InputStateKind,
    default_param_labels,
    fock_benchmark_grid,
    noon_grid,
    single_photon_grid,
)
from chiral_qfim.channel import (
    ALPHA_PHI_NAMES,
    CHIRAL_NAMES,
    ChiralParams,
    ParamGrid,
    apply_channel_kraus,
)
from chiral_qfim import channel, checks, estimation, experiments, fock
from chiral_qfim.estimation import (
    NumericError,
    ParamDerivative,
    channel_derivatives,
    compute_bounds,
    compute_bounds_grid,
    invert_and_bound,
    solve_sld,
)
from chiral_qfim.fock import (
    NOON_HV,
    SINGLE_PHOTON_H,
    FockSpace,
    TwoModeState,
    coherent_product_state,
    default_coherent_space,
    fock_product_state,
    hv_to_pm_amplitudes,
    hv_to_pm_state,
    mode_operators,
)
from chiral_qfim.linalg import require_hermitian
from oracles import (
    finite_difference,
    mode_output_and_alpha_derivative,
    rank_one_qfim_by_solve,
    sld_route_bounds,
)


def coherent_state_n0(n0: float, space: FockSpace, budget: float = 1e-13):
    amp_p, amp_m = hv_to_pm_amplitudes(math.sqrt(n0), 0.0)
    return coherent_product_state(space, amp_p, amp_m, truncation_budget=budget)


PARAMS_REF = ChiralParams.from_chiral(x_d=0.1, x_s=0.5, delta=0.7, sigma=0.3)


def derivative(state, params, label):
    """The exact ∂ρ_out/∂label alone."""
    return channel_derivatives(state, params, (label,))[1][0]


# ---------------------------------------------------------------------------
# channel_derivatives
# ---------------------------------------------------------------------------


def test_delta_derivative_of_diagonal_state_vanishes():
    state = fock_product_state(FockSpace(2, 2), 1, 1)
    d = derivative(state, PARAMS_REF, "delta")
    assert np.max(np.abs(d.drho)) == 0.0


def test_single_photon_delta_derivative_off_diagonal_magnitude():
    space = FockSpace(1, 1)
    state = hv_to_pm_state(SINGLE_PHOTON_H, space)
    d = derivative(state, PARAMS_REF, "delta")
    i10 = space.index(1, 0)
    i01 = space.index(0, 1)
    expected = 0.5 * math.sqrt(PARAMS_REF.eta_plus * PARAMS_REF.eta_minus)
    assert abs(d.drho[i10, i01]) == pytest.approx(expected, abs=1e-12)
    mask = np.ones_like(d.drho, dtype=bool)
    mask[i10, i01] = mask[i01, i10] = False
    assert np.max(np.abs(d.drho[mask])) < 1e-14


def test_finite_difference_matches_analytic_on_noon():
    params = ChiralParams(alpha_plus=0.3, alpha_minus=0.1, phi_plus=0.4, phi_minus=0.0)
    state = hv_to_pm_state(NOON_HV, FockSpace(2, 2))
    labels = ("alpha_plus", "alpha_minus", "phi_plus", "x_d", "delta")
    for d_an in channel_derivatives(state, params, labels)[1]:
        d_fd, _ = finite_difference(state, params, d_an.param)
        assert np.max(np.abs(d_an.drho - d_fd)) < 1e-7, d_an.param


def test_finite_difference_uses_one_sided_stencil_at_boundary():
    params = ChiralParams(alpha_plus=0.0, alpha_minus=0.2)
    state = hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1))
    d_fd, stencil = finite_difference(state, params, "alpha_plus")
    assert stencil == "forward"
    d_an = derivative(state, params, "alpha_plus")
    assert np.max(np.abs(d_fd - d_an.drho)) < 1e-7


def test_chiral_derivative_is_combination_of_native_ones():
    state = hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1))
    d_xd = derivative(state, PARAMS_REF, "x_d")
    d_p = derivative(state, PARAMS_REF, "alpha_plus")
    d_m = derivative(state, PARAMS_REF, "alpha_minus")
    assert np.max(np.abs(d_xd.drho - (d_p.drho - d_m.drho))) < 1e-13


def test_channel_derivatives_rejects_unknown_labels():
    state = hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1))
    with pytest.raises(ValueError, match="unknown parameter"):
        channel_derivatives(state, PARAMS_REF, ("x_q",))
    with pytest.raises(NumericError, match="Hermiticity"):
        ParamDerivative(param="x_d", drho=np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_channel_derivatives_shares_output_and_matches_singles():
    state = hv_to_pm_state(NOON_HV, FockSpace(2, 2))
    output, derivs = channel_derivatives(state, PARAMS_REF, CHIRAL_NAMES)
    direct = apply_channel_kraus(state, PARAMS_REF)
    assert np.max(np.abs(output.rho - direct.rho)) == 0.0
    for d in derivs:
        single = derivative(state, PARAMS_REF, d.param)
        assert np.max(np.abs(d.drho - single.drho)) < 1e-14


# ---------------------------------------------------------------------------
# solve_sld
# ---------------------------------------------------------------------------


def test_pure_state_sld_is_twice_the_derivative():
    # lossless, phase-only channel keeps the single-photon state pure
    params = ChiralParams(alpha_plus=0.0, alpha_minus=0.0, phi_plus=0.45, phi_minus=-0.2)
    state = hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1))
    output, derivs = channel_derivatives(state, params, ("delta",))
    sld = solve_sld(output, derivs[0])
    assert np.max(np.abs(sld.L - 2.0 * derivs[0].drho)) < 1e-12
    assert sld.support_rank == 1
    assert sld.residual < 1e-12


def test_single_mode_coherent_sld_diagonal_entries():
    # one lossy mode with a mean-1 coherent input; the transmitted-fraction
    # SLD is the closed form n/(1−α) − |β|², with diagonal entries 2n−1 at
    # α = 0.5; the solver orientation is α, i.e. the negative of that form
    space = FockSpace(20, 0)
    state = coherent_product_state(space, 1.0, 0.0, truncation_budget=1e-15)
    params = ChiralParams(alpha_plus=0.5, alpha_minus=0.0)
    output, derivs = channel_derivatives(state, params, ("alpha_plus",))
    sld = solve_sld(output, derivs[0])
    n_op = mode_operators(space).n_plus
    closed_form = -(n_op / (1.0 - 0.5) - 1.0 * np.eye(space.dim))

    w, v = np.linalg.eigh(output.rho)
    keep = np.add.outer(w, w) > 1e-10 * w.max()
    diff = v.conj().T @ (sld.L - closed_form) @ v
    assert np.max(np.abs(diff[keep])) < 1e-8

    resid = derivs[0].drho - 0.5 * (closed_form @ output.rho + output.rho @ closed_form)
    assert np.max(np.abs(resid)) < 1e-8


def test_single_photon_absorption_sld_matches_diagonal_form():
    # the diagonal form diag(−1/η₊, 1/η₋, 0) on {|1,0⟩,|0,1⟩,|0,0⟩} is an
    # exact solution of the defining equation; the solver returns the same
    # operator on every support-coupled pair and zeroes the kernel gauge
    # (the damped one-photon sector is rank one, so a gauge exists)
    params = ChiralParams.from_chiral(x_d=0.1, x_s=0.5, delta=0.0, sigma=0.0)
    space = FockSpace(1, 1)
    state = hv_to_pm_state(SINGLE_PHOTON_H, space)
    output, derivs = channel_derivatives(state, params, ("x_d",))
    sld = solve_sld(output, derivs[0])
    diagonal_form = np.zeros((space.dim, space.dim))
    i10, i01 = space.index(1, 0), space.index(0, 1)
    diagonal_form[i10, i10] = -1.0 / params.eta_plus
    diagonal_form[i01, i01] = 1.0 / params.eta_minus

    resid = derivs[0].drho - 0.5 * (
        diagonal_form @ output.rho + output.rho @ diagonal_form
    )
    assert np.max(np.abs(resid)) < 1e-12

    lam, vecs = np.linalg.eigh(output.rho)
    keep = np.add.outer(lam, lam) > 1e-10 * lam.max()
    diff = vecs.conj().T @ (sld.L - diagonal_form) @ vecs
    assert np.max(np.abs(diff[keep])) < 1e-12
    assert sld.support_rank == 2


def test_sld_metadata_counts_kernel_pairs():
    output, derivs = channel_derivatives(
        hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(2, 2)), PARAMS_REF, ("x_s",)
    )
    sld = solve_sld(output, derivs[0])
    dim = output.space.dim
    assert sld.meta["kernel_pairs_zeroed"] == (dim - sld.support_rank) ** 2
    assert sld.meta["max_dropped_weight"] < 1e-8


# ---------------------------------------------------------------------------
# QFIM assembly
# ---------------------------------------------------------------------------


def coherent_qfim(params, n0=1.0, labels=CHIRAL_NAMES):
    return compute_bounds(coherent_state_n0(n0, FockSpace(14, 14)), params, labels)


def test_coherent_qfim_absorption_entry():
    params = ChiralParams.from_chiral(x_d=0.1, x_s=0.5, delta=0.0, sigma=0.0)
    res = coherent_qfim(params)
    expected = 1.0 * (1 - 0.5) / ((1 - 0.5) ** 2 - 0.1**2)  # 0.5/0.24
    assert res.entry("x_d", "x_d") == pytest.approx(2.083333, abs=1e-6)
    assert res.entry("x_d", "x_d") == pytest.approx(expected, abs=1e-6)
    assert res.entry("x_s", "x_s") == pytest.approx(expected, abs=1e-6)
    # the absorption cross entry is positive with magnitude N₀·X_d/D
    assert res.entry("x_d", "x_s") == pytest.approx(0.1 / 0.24, abs=1e-6)


def test_single_photon_qfim_phase_entry():
    params = ChiralParams.from_chiral(x_d=0.1, x_s=0.5, delta=0.7, sigma=0.0)
    state = hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1))
    res = compute_bounds(state, params, CHIRAL_NAMES)
    assert res.entry("delta", "delta") == pytest.approx(0.48, abs=1e-10)
    assert res.entry("x_d", "x_d") == pytest.approx(0.5 / 0.24, abs=1e-10)
    assert res.entry("x_s", "x_s") == pytest.approx(0.5 / 0.24 + 2.0, abs=1e-10)
    assert res.entry("x_d", "x_s") == pytest.approx(0.1 / 0.24, abs=1e-10)


def test_absorption_phase_cross_entries_vanish_for_all_inputs():
    params = ChiralParams.from_chiral(x_d=0.1, x_s=0.4, delta=0.6, sigma=0.2)
    states = [
        coherent_state_n0(1.0, FockSpace(12, 12), budget=1e-10),
        hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1)),
        hv_to_pm_state(NOON_HV, FockSpace(2, 2)),
    ]
    for state in states:
        res = compute_bounds(state, params, CHIRAL_NAMES)
        for absorb in ("x_d", "x_s"):
            for phase in ("delta", "sigma"):
                assert abs(res.entry(absorb, phase)) < 1e-10, state.label


def test_block_partition_detected():
    params = ChiralParams.from_chiral(x_d=0.1, x_s=0.5, delta=0.7, sigma=0.0)
    state = hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1))
    res = compute_bounds(state, params, CHIRAL_NAMES)
    assert ("x_d", "x_s") in res.blocks
    assert any("delta" in b and "x_d" not in b for b in res.blocks)


def test_sld_route_equals_eigenbasis_route():
    params = ChiralParams.from_chiral(x_d=0.1, x_s=0.5, delta=0.7, sigma=0.3)
    for state in (
        hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(2, 2)),
        hv_to_pm_state(NOON_HV, FockSpace(3, 3)),
        coherent_state_n0(1.0, FockSpace(12, 12), budget=1e-10),
    ):
        fast = compute_bounds(state, params, CHIRAL_NAMES)
        slow = sld_route_bounds(state, params, CHIRAL_NAMES)
        assert np.max(np.abs(fast.F - slow.F)) < 1e-10, state.label


def test_qfim_rejects_duplicate_labels():
    state = hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1))
    with pytest.raises(ValueError, match="duplicate"):
        compute_bounds(state, PARAMS_REF, ("x_d", "x_d"))


@pytest.mark.parametrize(
    "state",
    [hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1)), fock_product_state(FockSpace(1, 1), 1, 1)],
    ids=["dense", "product"],
)
def test_qfim_rejects_an_empty_label_tuple(state):
    # refused at the boundary, on an empty grid too, before any solve
    for grid in (ParamGrid([PARAMS_REF]), ParamGrid(())):
        with pytest.raises(ValueError, match="no parameter labels"):
            compute_bounds_grid(state, grid, ())
    with pytest.raises(ValueError, match="no parameter labels"):
        compute_bounds(state, PARAMS_REF, [])


def test_grid_bounds_take_an_int_index_and_refuse_any_other():
    state = hv_to_pm_state(NOON_HV, FockSpace(2, 2))
    points = [ChiralParams(0.1, 0.2), ChiralParams(0.3, 0.2, 0.4), ChiralParams(0.5, 0.1)]
    grid = compute_bounds_grid(state, ParamGrid(points), QUANTUM_LABELS)
    for b in (1, np.int64(1), np.intp(-2)):
        assert grid[b].bounds == compute_bounds(state, points[1], QUANTUM_LABELS).bounds
    for index in (slice(0, 1), slice(0, 3), np.array([True, False, True]), [0], 1.0, None):
        with pytest.raises(TypeError, match=f"not {type(index).__name__}$"):
            grid[index]
    with pytest.raises(IndexError):
        grid[3]


def test_qfim_positive_semidefinite_on_grid():
    state = hv_to_pm_state(NOON_HV, FockSpace(2, 2))
    for x_s in (0.1, 0.4, 0.8):
        for x_d in (0.0, 0.05):
            params = ChiralParams.from_chiral(x_d=x_d, x_s=x_s, delta=0.3, sigma=0.0)
            res = compute_bounds(state, params, CHIRAL_NAMES)
            assert np.linalg.eigvalsh(res.F)[0] > -1e-9
            for p, b in res.bounds.items():
                if b is not None:
                    assert np.isfinite(b) and b >= 0.0


# ---------------------------------------------------------------------------
# invert_and_bound
# ---------------------------------------------------------------------------


def test_single_photon_bounds_closed_forms():
    params = ChiralParams.from_chiral(x_d=0.1, x_s=0.5, delta=0.7, sigma=0.0)
    state = hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1))
    res = compute_bounds(state, params, CHIRAL_NAMES)
    assert res.bound("x_d") == pytest.approx(math.sqrt(1 - 0.5 - 0.01), abs=1e-9)
    assert res.bound("x_d") == pytest.approx(0.7, abs=1e-9)
    assert res.bound("x_s") == pytest.approx(math.sqrt(0.5 * 0.5), abs=1e-9)
    assert res.covariance("x_d", "x_s") == pytest.approx(-0.05, abs=1e-9)
    assert res.bound("delta") == pytest.approx(1.443376, abs=1e-6)
    assert res.identifiable["sigma"] is False
    assert res.bound("sigma") is None


def test_coherent_bounds_closed_forms():
    params = ChiralParams.from_chiral(x_d=0.1, x_s=0.5, delta=0.0, sigma=0.0)
    res = coherent_qfim(params)
    assert res.bound("x_d") == pytest.approx(math.sqrt(0.5), abs=1e-6)
    assert res.bound("x_s") == pytest.approx(math.sqrt(0.5), abs=1e-6)
    # the numerical covariance between the absorption estimates is negative
    assert res.covariance("x_d", "x_s") == pytest.approx(-0.1, abs=1e-6)
    assert res.bound("delta") == pytest.approx(1.443376, abs=1e-6)
    assert res.bound("sigma") == pytest.approx(1.443376, abs=1e-6)
    assert res.covariance("delta", "sigma") == pytest.approx(0.416667, abs=1e-6)
    assert all(res.identifiable.values())


def test_fock_input_has_no_phase_information():
    state = fock_product_state(FockSpace(2, 2), 1, 1)
    params = ChiralParams.from_chiral(x_d=0.1, x_s=0.5, delta=0.7, sigma=0.3)
    res = compute_bounds(state, params, CHIRAL_NAMES)
    assert res.identifiable == {"x_d": True, "x_s": True, "delta": False, "sigma": False}
    expected = math.sqrt(0.6 * 0.4 + 0.4 * 0.6) / 2.0
    assert res.bound("x_d") == pytest.approx(expected, abs=1e-9)
    assert res.bound("x_s") == pytest.approx(expected, abs=1e-9)
    assert res.covariance("delta", "sigma") is None


def test_fully_singular_qfim_flags_everything():
    state = fock_product_state(FockSpace(2, 2), 1, 1)
    params = ChiralParams.from_chiral(x_d=0.1, x_s=0.5, delta=0.7, sigma=0.3)
    res = compute_bounds(state, params, ("delta", "sigma"))
    assert res.identifiable == {"delta": False, "sigma": False}
    assert res.bounds == {"delta": None, "sigma": None}
    assert res.meta.get("fully_singular") is True
    assert res.covariances == {}


def test_covariance_of_a_fully_singular_result_is_none():
    state = fock_product_state(FockSpace(2, 2), 1, 1)
    params = ChiralParams.from_chiral(x_d=0.1, x_s=0.5, delta=0.7, sigma=0.3)
    res = compute_bounds(state, params, ("delta", "sigma"))
    assert res.meta["fully_singular"] and res.covariances == {}
    assert res.covariance("delta", "sigma") is None
    assert res.covariance("sigma", "delta") is None
    with pytest.raises(KeyError):
        res.covariance("delta", "x_d")
    assert not res.F_inverse.any()


NOON_LABELS = ("x_d", "x_s", "delta")


def test_invert_and_bound_refuses_a_qfim_that_is_not_psd():
    labels = ("x_d", "x_s")
    with pytest.raises(NumericError, match="QFIM has negative eigenvalue -1.000e-03"):
        invert_and_bound(labels, np.diag([1.0, -1e-3]))
    # the tolerance is QFIM_PSD_TOL·max(1, max|F|), on F's own scale: a
    # diagonal entry of F that is no more negative than that is kept, and
    # leaves its parameter unidentifiable
    scale = 1e6
    kept = -0.5 * estimation.QFIM_PSD_TOL * scale
    result = invert_and_bound(labels, np.diag([scale, kept]))
    assert result.identifiable == {"x_d": True, "x_s": False}
    assert result.bound("x_d") == pytest.approx(1e-3, rel=1e-15)


def noon_delta_closed_form(params: ChiralParams) -> float:
    eta_p, eta_m = params.eta_plus, params.eta_minus
    return math.sqrt((eta_p**2 + eta_m**2) / (8.0 * eta_p**2 * eta_m**2))


@pytest.mark.parametrize("alphas", [(0.3, 0.1), (0.9999, 0.3)])
def test_bounds_do_not_depend_on_parameter_units(alphas):
    state = hv_to_pm_state(NOON_HV, FockSpace(2, 2))
    result = compute_bounds(state, ChiralParams(*alphas, 0.2, 0.0), NOON_LABELS)
    # F' = B F B is the QFIM of theta_i / b_i, whose bounds are bound_i / b_i
    b = np.array([1e-4, 1.0, 1e4])
    scaled = invert_and_bound(NOON_LABELS, result.F * np.outer(b, b))
    assert result.identifiable == {p: True for p in NOON_LABELS}
    assert scaled.identifiable == result.identifiable
    for i, p in enumerate(NOON_LABELS):
        assert scaled.bound(p) == pytest.approx(result.bound(p) / b[i], rel=1e-12)
    assert scaled.blocks == result.blocks


def test_invert_and_bound_reports_the_groups_of_the_qfim_it_inverts():
    # the groups are read from F, so a coupled QFIM inverted alone, or on
    # the SLD route, is grouped as compute_bounds groups it at its point
    params = ChiralParams.from_chiral(x_d=0.1, x_s=0.5, delta=0.7, sigma=0.3)
    coherent = coherent_state_n0(1.0, FockSpace(12, 12), budget=1e-10)
    noon = hv_to_pm_state(NOON_HV, FockSpace(2, 2))
    for state, groups in (
        (coherent, (("x_d", "x_s"), ("delta", "sigma"))),
        (noon, (("x_d", "x_s"), ("delta",), ("sigma",))),
    ):
        # the general route inverts F as invert_and_bound does, to the bit;
        # the two-block route inverts each native block on its own
        two_block = compute_bounds(state, params, CHIRAL_NAMES)
        result = compute_bounds(general(state), params, CHIRAL_NAMES)
        assert result.blocks == two_block.blocks == groups
        inverted = invert_and_bound(CHIRAL_NAMES, result.F)
        assert inverted.blocks == groups
        assert np.array_equal(inverted.F_inverse, result.F_inverse)
        assert inverted.bounds == result.bounds
        assert invert_and_bound(CHIRAL_NAMES, two_block.F).blocks == groups
        assert sld_route_bounds(state, params, CHIRAL_NAMES).blocks == groups


def test_noon_delta_bound_next_to_full_absorption_on_both_routes():
    # F_delta ~ 8e-8 sits twelve decades below F_x_d ~ 2e4, yet its bound is finite
    params = ChiralParams(0.9999, 0.3)
    expected = noon_delta_closed_form(params)
    assert expected == pytest.approx(3535.5339, abs=1e-4)
    state = hv_to_pm_state(NOON_HV, FockSpace(2, 2))
    for result in (
        compute_bounds(state, params, NOON_LABELS),
        sld_route_bounds(state, params, NOON_LABELS),
    ):
        assert result.identifiable["delta"]
        assert result.bound("delta") == pytest.approx(expected, abs=1e-6)


def test_pure_phase_channel_delta_bound_is_unity():
    params = ChiralParams.from_chiral(x_d=0.0, x_s=0.0, delta=0.5, sigma=0.0)
    state = hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1))
    res = compute_bounds(state, params, ("delta",))
    assert res.bound("delta") == pytest.approx(1.0, abs=1e-8)


def test_coherent_bound_scales_inverse_square_root_of_intensity():
    params = ChiralParams.from_chiral(x_d=0.05, x_s=0.3, delta=0.0, sigma=0.0)
    previous = None
    for n0 in (0.5, 1.0, 2.0, 4.0):
        space = FockSpace(16, 16)
        res = compute_bounds(
            coherent_state_n0(n0, space, budget=1e-9), params, ("x_d", "x_s")
        )
        b = res.bound("x_d")
        assert b == pytest.approx(math.sqrt((1 - 0.3) / n0), abs=1e-6)
        if previous is not None:
            assert b < previous
        previous = b


# ---------------------------------------------------------------------------
# native against chiral coordinates
# ---------------------------------------------------------------------------


def test_native_qfim_equals_reparameterized_chiral():
    state = hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1))
    params = ChiralParams(alpha_plus=0.6, alpha_minus=0.4)
    native = compute_bounds(state, params, ("alpha_plus", "alpha_minus"))
    chiral = compute_bounds(state, params, ("x_d", "x_s"))
    # J[a, i] = ∂(x_d, x_s)_a/∂(alpha_plus, alpha_minus)_i, and F_native = Jᵀ F_chiral J
    jacobian = np.array([[0.5, -0.5], [0.5, 0.5]])
    pushed = invert_and_bound(native.params, jacobian.T @ chiral.F @ jacobian)
    assert np.max(np.abs(pushed.F - native.F)) < 1e-8
    assert pushed.bounds["alpha_plus"] == pytest.approx(native.bounds["alpha_plus"], abs=1e-8)


# ---------------------------------------------------------------------------
# product inputs: the per-mode route against the dense two-mode route
# ---------------------------------------------------------------------------

ROUTE_TOL = 1e-9


def uncapped_coherent(amp_h: complex, amp_v: complex):
    amp_p, amp_m = hv_to_pm_amplitudes(amp_h, amp_v)
    space, budget = default_coherent_space(amp_p, amp_m, cap=None)
    return coherent_product_state(space, amp_p, amp_m, truncation_budget=budget)


# counting against the QFIM's absorption block of a coherent state cut at
# the default 1e-10 tail: the truncation error of the bound
COUNTING_TOL = 1e-8
ABSORPTION = ("x_d", "x_s")


# the same input without its builder flag: the general route
general = checks._general


def without_factors(state):
    return TwoModeState(
        state.space, state.rho, trace_deficit_budget=state.trace_deficit_budget
    )


def dense_two_block(state):
    """A builder's product input as its dense matrix, still flagged: the
    two-block route on joint populations and output blocks."""
    return fock._two_block(
        TwoModeState(state.space, state.rho, trace_deficit_budget=state.trace_deficit_budget)
    )


def assert_same_bounds(result, other, tol):
    assert result.params == other.params
    assert result.identifiable == other.identifiable
    assert np.max(np.abs(result.F - other.F)) <= tol * np.max(np.abs(other.F))
    for p in result.params:
        if other.identifiable[p]:
            assert result.bound(p) == pytest.approx(other.bound(p), rel=tol, abs=0)


def assert_routes_agree(state, params, labels, counting_tol=None):
    """On the general route, per-mode bounds match the dense eigenbasis and
    SLD routes; the two-block route matches its dense form, and, to
    ``counting_tol`` where given, the general route: counting attains the
    absorption block up to a coherent state's truncation."""
    per_mode = compute_bounds(general(state), params, labels)
    assert per_mode.meta["route"] == "per_mode" and per_mode.meta["inversion"] == "general"
    for other in (
        compute_bounds(without_factors(state), params, labels),
        sld_route_bounds(state, params, labels),
    ):
        assert other.meta["route"] != "per_mode"
        assert_same_bounds(per_mode, other, ROUTE_TOL)
    two_block = compute_bounds(state, params, labels)
    dense = compute_bounds(dense_two_block(state), params, labels)
    assert two_block.meta["route"] == "per_mode" and dense.meta["route"] == "eigenbasis"
    assert two_block.meta["inversion"] == dense.meta["inversion"] == "two_block"
    assert_same_bounds(two_block, dense, ROUTE_TOL)
    if counting_tol is not None:
        assert_same_bounds(two_block, per_mode, counting_tol)
    return two_block


@pytest.mark.parametrize("n0", [1.0, 4.0])
def test_per_mode_route_matches_dense_for_h_coherent_probes(n0):
    state = uncapped_coherent(math.sqrt(n0), 0.0)
    for params in (
        ChiralParams.from_chiral(x_d=0.05, x_s=0.3, delta=0.0, sigma=0.0),
        PARAMS_REF,
    ):
        result = assert_routes_agree(state, params, CHIRAL_NAMES, COUNTING_TOL)
        assert all(result.identifiable.values())


def test_per_mode_route_matches_dense_for_elliptical_probe():
    # complex amplitudes in both modes and nonzero phases: the complex path
    state = uncapped_coherent(1.1, 0.6 - 0.5j)
    assert all(np.iscomplexobj(f) and f.imag.any() for f in state.factors)
    for labels in (CHIRAL_NAMES, ALPHA_PHI_NAMES):
        assert_routes_agree(state, PARAMS_REF, labels, COUNTING_TOL)


def test_per_mode_route_matches_dense_for_fock_pair_with_lossless_edges():
    # on a lossless edge the general route's support cut drops the zero
    # population and misses the closed form; the two-block route meets it
    state = fock_product_state(FockSpace(1, 1), 1, 1)
    for x_d, x_s in ((0.1, 0.4), (0.2, 0.2), (-0.2, 0.2)):
        params = ChiralParams.from_chiral(x_d=x_d, x_s=x_s, delta=0.7, sigma=0.3)
        interior = params.alpha_plus > 0.0 and params.alpha_minus > 0.0
        result = assert_routes_agree(state, params, CHIRAL_NAMES, 1e-12 if interior else None)
        assert result.identifiable == {"x_d": True, "x_s": True, "delta": False, "sigma": False}
        closed = fock_benchmark_grid(ParamGrid([params])).values
        for p in ABSORPTION:
            assert result.bound(p) == pytest.approx(closed[p][0], rel=1e-12)


def test_per_mode_route_scales_each_block_by_the_other_mode_trace():
    # truncation tails near 1e-2 leave each mode's output trace visibly below 1
    for cutoff, n0 in ((3, 1.0), (6, 4.0)):
        amp_p, amp_m = hv_to_pm_amplitudes(math.sqrt(n0), 0.3j)
        space = FockSpace(cutoff, cutoff)
        state = coherent_product_state(space, amp_p, amp_m, truncation_budget=2e-2)
        assert state.trace() < 0.995
        assert_routes_agree(state, PARAMS_REF, CHIRAL_NAMES)


def test_per_mode_route_forms_label_subsets_and_native_labels():
    state = uncapped_coherent(1.0, 0.0)
    for labels in (
        ("delta", "x_d"),
        ("x_s",),
        ("sigma", "delta"),
        ALPHA_PHI_NAMES,
        ("phi_minus", "alpha_plus"),
    ):
        result = assert_routes_agree(state, PARAMS_REF, labels, COUNTING_TOL)
        assert result.params == labels
    # three labels in one native block are dependent, so none is
    # identifiable; the other block's label keeps its bound
    labels = ("x_d", "x_s", "alpha_plus", "delta")
    delta = compute_bounds(state, PARAMS_REF, ("delta",))
    for flagged in (state, dense_two_block(state)):
        three = compute_bounds(flagged, PARAMS_REF, labels)
        assert three.meta["inversion"] == "two_block"
        assert three.identifiable == dict(zip(labels, (False, False, False, True)))
        assert three.bound("delta") == pytest.approx(delta.bound("delta"), rel=ROUTE_TOL, abs=0)
        assert not three.F_inverse[:3].any() and not three.F_inverse[:, :3].any()
    general_three = compute_bounds(general(state), PARAMS_REF, labels)
    assert general_three.identifiable == three.identifiable
    with pytest.raises(ValueError, match="duplicate"):
        compute_bounds(state, PARAMS_REF, ("x_d", "x_d"))
    with pytest.raises(ValueError, match="unknown parameter"):
        compute_bounds(state, PARAMS_REF, ("x_q",))


def test_mode_factors_come_only_from_product_constructors():
    state = uncapped_coherent(2.0, 0.0)
    rho_plus, rho_minus = state.factors
    assert np.max(np.abs(np.kron(rho_plus, rho_minus) - state.rho)) < 1e-15
    assert state.with_rho(state.rho).factors is None
    assert apply_channel_kraus(state, PARAMS_REF).factors is None
    assert without_factors(state).factors is None
    assert hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1)).factors is None
    fock = fock_product_state(FockSpace(2, 3), 1, 2)
    assert np.array_equal(np.kron(*fock.factors), fock.rho)


def test_per_mode_route_solves_single_modes_only(monkeypatch):
    state = uncapped_coherent(2.0, 0.0)
    n = len(CHIRAL_NAMES)
    calls = _record_linalg(monkeypatch)
    compute_bounds(state, PARAMS_REF, CHIRAL_NAMES)
    # the rank-one input is factored with no eigensolve; each mode's output
    # is solved as rank one, with no linear solve, and the native blocks
    # need no eigensolve
    assert calls == []
    calls.clear()
    compute_bounds(general(state), PARAMS_REF, CHIRAL_NAMES)
    # the general route: the QFIM with its equilibrated form
    assert calls == [("eigh", (2, n, n))]
    calls.clear()
    dense = without_factors(state)
    compute_bounds(dense, PARAMS_REF, CHIRAL_NAMES)
    # the two-mode output, one block, then the equilibrated QFIM
    assert calls == [("eigh", (1, state.space.dim, state.space.dim)), ("eigh", (2, n, n))]


def coherent_pm(amp_plus: complex, amp_minus: complex):
    space, budget = default_coherent_space(amp_plus, amp_minus)
    return coherent_product_state(space, amp_plus, amp_minus, truncation_budget=budget)


def per_mode_kernel_qfim(state, points, labels):
    """The labels' symmetric QFIM stack from one kernel pass and one unpadded
    stack of problems per mode, each solved by the per-problem rule of
    ``estimation._mode_qfims``, with ∂ρ/∂φ formed from the kernel's output
    before its Hermitian part is taken."""
    blocks, traces = [], []
    for mode, factor in zip(("plus", "minus"), state.factors):
        alphas = [getattr(p, f"alpha_{mode}") for p in points]
        output, d_alpha = mode_output_and_alpha_derivative(factor, alphas)
        hermitian = require_hermitian(output)
        generator = fock.phase_generator(np.arange(len(factor)))
        blocks.append(estimation._mode_qfims(output, hermitian, d_alpha, generator)[0])
        traces.append(np.trace(hermitian, axis1=1, axis2=2).real[:, None, None])
    native = np.zeros((len(points), len(ALPHA_PHI_NAMES), len(ALPHA_PHI_NAMES)))
    native[:, 0::2, 0::2] = blocks[0] * traces[1]
    native[:, 1::2, 1::2] = blocks[1] * traces[0]
    pullback = estimation._native_pullback(labels)
    f = pullback.T @ native @ pullback
    return (f + np.swapaxes(f, 1, 2)) / 2.0


STACK_POINTS = [PARAMS_REF, ChiralParams(0.0, 0.35, 0.2, -0.4), ChiralParams(0.6, 0.1)]


@pytest.mark.parametrize(
    "make_state",
    [
        lambda: coherent_pm(1.5, 0.3),
        lambda: coherent_pm(2 + 0.5j, 0.0),
        lambda: coherent_pm(0.0, 1.2),
        lambda: fock_product_state(FockSpace(1, 3), 1, 2),
    ],
    ids=["coherent-17-6", "coherent-complex-23-0", "coherent-0-14", "fock-1-2"],
)
def test_stacked_route_matches_per_mode_kernel_and_dense_route(make_state):
    # unequal cutoffs: the smaller factor is padded with zero levels.  The
    # dense route's support rule is relative to the joint largest eigenvalue,
    # which moves bounds by 2e-11 at this 1e-10 truncation, so it is held to
    # ROUTE_TOL and the per-mode kernel, whose rule is the stack's, to 1e-12
    state = general(make_state())
    assert state.space.cutoff_plus != state.space.cutoff_minus
    for labels in (CHIRAL_NAMES, ALPHA_PHI_NAMES):
        stacked = compute_bounds_grid(state, ParamGrid(STACK_POINTS), labels)
        f = per_mode_kernel_qfim(state, STACK_POINTS, labels)
        kernel = estimation._inverted(labels, f, {})
        dense = [compute_bounds(without_factors(state), p, labels) for p in STACK_POINTS]
        for result, *references in zip(stacked, kernel, dense, strict=True):
            assert result.meta["route"] == "per_mode"
            for reference, rel in zip(references, (1e-12, ROUTE_TOL)):
                assert result.blocks == reference.blocks
                assert result.identifiable == reference.identifiable
                for p in labels:
                    if reference.identifiable[p]:
                        expected = reference.bound(p)
                        assert result.bound(p) == pytest.approx(expected, rel=rel, abs=0)


@pytest.mark.parametrize("n0", [1.0, 4.0, 9.0])
def test_stacked_route_is_bit_identical_to_per_mode_kernel_on_equal_cutoffs(n0):
    # an H-polarized coherent probe has equal mode cutoffs, so nothing is
    # padded and each mode's matrices are those the per-mode kernel solves
    state = general(coherent_pm(*hv_to_pm_amplitudes(math.sqrt(n0), 0.0)))
    assert state.space.cutoff_plus == state.space.cutoff_minus
    for point in STACK_POINTS:
        result = compute_bounds(state, point, CHIRAL_NAMES)
        f = per_mode_kernel_qfim(state, [point], CHIRAL_NAMES)
        (reference,) = estimation._inverted(CHIRAL_NAMES, f, {})
        assert np.array_equal(result.F, f[0])
        assert result.bounds == reference.bounds


def _record_linalg(monkeypatch) -> list:
    """(name, shape of the matrix stack) of each ``np.linalg.eigh``,
    ``eigvalsh`` and ``solve`` call."""
    calls = []
    for name in ("eigh", "eigvalsh", "solve"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


def test_a_product_grid_takes_one_table_pass_and_one_mode_solve(monkeypatch):
    state = coherent_pm(1.5, 0.3)
    assert state.space == FockSpace(17, 6)
    calls = _record_linalg(monkeypatch)
    # the state factors each distinct input once, unpadded, on first read:
    # both are rank one, so neither needs an eigensolve
    inputs = state.mode_inputs
    assert calls == [] and inputs.spectra.shape == (2, 1)
    passes, kernel = [], estimation.factored_output_and_alpha_derivative

    def counting_kernel(tables, spectra, owners, alpha, derivatives=True):
        passes.append((tables.shape[-2] - 1, np.shape(alpha), derivatives))
        return kernel(tables, spectra, owners, alpha, derivatives)

    monkeypatch.setattr(estimation, "factored_output_and_alpha_derivative", counting_kernel)
    compute_bounds_grid(state, ParamGrid(STACK_POINTS), CHIRAL_NAMES)
    # the modes' six absorptions hold five distinct problems (α₊ = 0.6
    # twice), one absorption per stack entry at the common cutoff 17, each
    # output of rank one and solved once, with no linear solve and no
    # α-derivative: counting reads the outputs' populations, and the native
    # blocks need no eigensolve
    assert passes == [(17, (5,), False)]
    assert calls == []
    assert state.mode_inputs is inputs
    calls.clear()
    passes.clear()
    compute_bounds_grid(general(state), ParamGrid(STACK_POINTS), CHIRAL_NAMES)
    # the general route: the kernel's α-derivatives, then each QFIM with its
    # equilibrated form, for the PSD check and the inversion at once
    b = len(STACK_POINTS)
    assert passes == [(17, (5,), True)]
    assert calls == [("eigh", (2 * b, 4, 4))]


def test_one_point_makes_no_linalg_call_and_rebuilds_no_invariant(monkeypatch):
    state = coherent_pm(*hv_to_pm_amplitudes(2.0, 0.0))
    caches = (
        estimation._native_pullback,
        estimation._two_block_plan,
        channel._root_binomials,
    )
    inputs = state.mode_inputs  # the state's factors, formed once
    read, kernel = [], estimation.factored_output_and_alpha_derivative

    def recording_kernel(tables, spectra, owners, alpha, derivatives=True):
        read.append(tables)
        return kernel(tables, spectra, owners, alpha, derivatives)

    monkeypatch.setattr(estimation, "factored_output_and_alpha_derivative", recording_kernel)
    calls = _record_linalg(monkeypatch)
    first = compute_bounds(state, PARAMS_REF, CHIRAL_NAMES)
    # the rank-one mode stack with no linear solve, and no eigensolve for
    # the native blocks
    assert calls == []
    misses = [cache.cache_info().misses for cache in caches]
    second = compute_bounds(state, PARAMS_REF, CHIRAL_NAMES)
    # the pullback, the block plan and the loss binomials come from their
    # caches, and the kernel reads the loss tables
    # the state formed: both modes of an H-polarized probe read its one input
    assert calls == []
    assert [cache.cache_info().misses for cache in caches] == misses
    assert state.mode_inputs is inputs
    assert read[1] is read[0] is inputs.tables and inputs.reads == (0, 0)
    assert len(inputs.tables) == len(inputs.spectra) == 1
    for array in (inputs.tables, inputs.spectra):
        assert not array.flags.writeable and array.dtype == np.float64
    assert not estimation._native_pullback(CHIRAL_NAMES).flags.writeable
    assert np.array_equal(second.F_inverse, first.F_inverse) and second.bounds == first.bounds


def test_the_phase_generators_are_formed_once_per_state(monkeypatch):
    # -i(n_j - n_k) depends only on the state's levels: each route reads the
    # read-only generator its state formed, and a second call rebuilds none
    product = coherent_pm(*hv_to_pm_amplitudes(2.0, 0.0))
    noon = hv_to_pm_state(NOON_HV, FockSpace(2, 2))
    built, generator = [], fock.phase_generator

    def counting(n):
        built.append(np.shape(n))
        return generator(n)

    monkeypatch.setattr(fock, "phase_generator", counting)
    calls = _record_linalg(monkeypatch)
    cases = (
        (product, CHIRAL_NAMES, lambda: product.mode_inputs.phase_generator, []),
        (noon, QUANTUM_LABELS, lambda: noon.output_blocks.phase_generators, ["eigh"]),
    )
    for state, labels, read, output_solves in cases:
        first = compute_bounds(state, PARAMS_REF, labels)
        formed = read()
        calls.clear()
        second = compute_bounds(state, PARAMS_REF, labels)
        # the output stack, rank one per mode with no linear solve for the
        # product, and no eigensolve for the native blocks
        assert [name for name, _ in calls] == output_solves
        assert read() is formed
        assert not formed.flags.writeable and formed.dtype == np.complex128
        with pytest.raises(ValueError, match="read-only"):
            formed[..., 0, 1] = 1.0
        assert np.array_equal(second.F_inverse, first.F_inverse) and second.bounds == first.bounds
    d = product.mode_inputs.phase_generator.shape[-1]
    assert built == [(d,), (2, 4, 1, 2)]
    n = np.arange(d)
    assert np.array_equal(product.mode_inputs.phase_generator, -1j * (n[:, None] - n[None, :]))


def test_a_dense_state_keeps_its_output_blocks(monkeypatch):
    # the blocks, their padded levels and their phase generators depend only
    # on the state: a second call reads what the first formed
    state = hv_to_pm_state(NOON_HV, FockSpace(2, 2))
    scans, scan = [], fock._reachable_blocks

    def counting(scanned):
        scans.append(scanned)
        return scan(scanned)

    monkeypatch.setattr(fock, "_reachable_blocks", counting)
    first = compute_bounds(state, PARAMS_REF, CHIRAL_NAMES)
    blocks = state.output_blocks
    second = compute_bounds(state, PARAMS_REF, CHIRAL_NAMES)
    assert scans == [state] and state.output_blocks is blocks
    assert blocks.blocks == ((0,), (1,), (2, 6), (3,))
    assert blocks.levels.shape == (4, 1, 2) and blocks.phase_generators.shape == (2, 4, 1, 2, 2)
    assert not blocks.levels.flags.writeable and not blocks.phase_generators.flags.writeable
    assert np.array_equal(second.F, first.F) and second.bounds == first.bounds


CHECK_1_POINTS = [
    ChiralParams.from_chiral(float(x_d), float(x_s), 0.0, 0.0)
    for x_s in np.linspace(0.05, 0.9, 10)
    for x_d in np.linspace(0.0, min(0.2 * (1.0 - x_s), x_s), 10)
]


def h_coherent(n0: float):
    return coherent_pm(*hv_to_pm_amplitudes(math.sqrt(n0), 0.0))


def elliptical_coherent(v: complex):
    """An H/V coherent probe with V amplitude v times its H amplitude √2."""
    return coherent_pm(*hv_to_pm_amplitudes(math.sqrt(2.0), v * math.sqrt(2.0)))


def photon_pair():
    return fock_product_state(FockSpace(1, 1), 1, 1)


@pytest.mark.parametrize(
    "make_state",
    [
        *(pytest.param(lambda n0=n0: h_coherent(n0), id=str(n0)) for n0 in (1.0, 4.0, 9.0)),
        pytest.param(photon_pair, id="photon-pair"),
        pytest.param(lambda: elliptical_coherent(0.5j), id="elliptical"),
        pytest.param(lambda: fock_product_state(FockSpace(3, 1), 3, 1), id="unequal-ranks"),
    ],
)
def test_a_one_point_call_is_bit_identical_to_its_grid_row(make_state):
    # acceptance check 1's grid: the grid of one is the grid route, row for
    # row, though the grid solves each distinct mode problem once; with
    # unequal Fock factors the modes' outputs have ranks 4 and 2, and each
    # problem is cut at its own support count, in the grid as alone
    state = make_state()
    grid = compute_bounds_grid(state, ParamGrid(CHECK_1_POINTS), CHIRAL_NAMES)
    for b, point in enumerate(CHECK_1_POINTS):
        one, row = compute_bounds(state, point, CHIRAL_NAMES), grid[b]
        assert np.array_equal(one.F, grid.F[b])
        assert np.array_equal(one.F_inverse, grid.F_inverse[b])
        assert one.bounds == row.bounds and one.covariances == row.covariances
        assert one.identifiable == row.identifiable and one.blocks == row.blocks


def _record_solves(monkeypatch) -> list:
    """The number of single-mode problems in each call of the loss kernel."""
    solves, kernel = [], estimation.factored_output_and_alpha_derivative

    def recording_kernel(tables, spectra, owners, alpha, derivatives=True):
        results = kernel(tables, spectra, owners, alpha, derivatives)
        solves.append(math.prod(results[0].shape[:-2]))
        return results

    monkeypatch.setattr(estimation, "factored_output_and_alpha_derivative", recording_kernel)
    return solves


@pytest.mark.parametrize(
    "panel, label, problems, points",
    [("fig4", "coherent_n2", 91, 91), ("fig2a", "coherent_xd0.005", 116, 95)],
)
def test_a_figure_member_solves_each_distinct_mode_problem_once(
    monkeypatch, panel, label, problems, points
):
    # both modes of the H-polarized probe read one input: fig4's common
    # absorption makes one problem of each point's two, and along fig2a's
    # rows α₊ of one row is α₋ of another, to the bit
    spec = dict(experiments.figure_presets()[panel])[label]
    experiments.prepare_input_state(spec.input_state)
    solves = _record_solves(monkeypatch)
    calls = _record_linalg(monkeypatch)
    experiments.run_sweep(spec)
    assert solves == [problems]
    # the prepared state's rank-one input is factored with no eigensolve;
    # every problem's output is rank one, and each is solved once, with no
    # linear solve; the native blocks need no eigensolve
    assert calls == []


# ---------------------------------------------------------------------------
# single-mode problems: rank one without an eigensolve, any other by eigh
# ---------------------------------------------------------------------------

EDGE_ALPHAS = [0.0, 1e-300, 1e-13, 0.3, 0.999, 1.0 - 1e-6]


def seeded_problems(rng, d: int, count: int, spectrum, kind: str):
    """``count`` seeded Hermitian outputs with eigenvalues ``spectrum`` (of
    length d, on random eigenvectors), each with a random Hermitian ∂/∂α."""

    def draw(*shape):
        x = rng.normal(size=shape)
        return x + 1j * rng.normal(size=shape) if kind == "complex" else x

    q, _ = np.linalg.qr(draw(count, d, d))
    output = (q * np.asarray(spectrum)[None, None, :]) @ np.swapaxes(q, 1, 2).conj()
    h = draw(count, d, d)
    return require_hermitian(output), h + np.swapaxes(h, 1, 2).conj()


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("d", [2, 3, 11, 25, 72])
def test_rank_one_route_matches_the_eigensolve_on_seeded_rank_one_problems(d, kind):
    # one eigenvalue 1, the rest at 1e-12 or below: inside the support cut
    rng = np.random.default_rng(d)
    spectrum = np.concatenate((1e-12 * rng.random(d - 1), [1.0]))
    output, d_alpha = seeded_problems(rng, d, 6, spectrum, kind)
    generator = fock.phase_generator(np.arange(d))
    result = checks.rank_one_route([(output, d_alpha, generator)])
    assert result.passed and result.residual <= 1e-13
    f, _ = estimation._mode_qfims(output, output, d_alpha, generator)
    if kind == "real":
        assert not f[:, 0, 1].any() and not f[:, 1, 0].any()


@pytest.mark.parametrize(
    "kind, dtype",
    [
        *((InputStateKind.coherent(math.sqrt(n0)), np.float64) for n0 in (1.0, 4.0, 9.0, 60.0)),
        (InputStateKind.coherent(1.0, 0.5j), np.float64),
        (InputStateKind.coherent(1.0, 1j), np.float64),
        (InputStateKind.coherent(1.0, 0.5), np.complex128),
    ],
    ids=["h-1", "h-4", "h-9", "h-60", "elliptical", "circular", "complex-factors"],
)
def test_rank_one_route_matches_the_eigensolve_on_builder_probes_at_the_edges(kind, dtype):
    # each mode input at every absorption of the edge grid
    problems = checks.mode_problems(kind, EDGE_ALPHAS)
    assert problems[0].dtype == dtype
    result = checks.rank_one_route([problems])
    assert result.passed and result.residual <= 1e-13


def _assert_rank_one_matches_the_solve(output, d_alpha):
    # with ∂ρ/∂α as the general route solves, and φ alone as the two-block
    # route does: within 1e-14 of each problem's largest entry
    hermitian = require_hermitian(output)
    lam, t, rank_one = estimation._top_eigenpairs(hermitian)
    assert rank_one.all()
    for d in (d_alpha, None):
        fast = estimation._rank_one_qfim(hermitian, lam, t, d)
        solved = rank_one_qfim_by_solve(hermitian, lam, t, d)
        scale = np.abs(solved).max(axis=(1, 2), keepdims=True)
        assert (np.abs(fast - solved) <= 1e-14 * scale).all()


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("d", [2, 3, 11, 25, 72])
def test_rank_one_route_matches_the_linear_solve_on_seeded_rank_one_problems(d, kind):
    rng = np.random.default_rng(d)
    spectrum = np.concatenate((1e-12 * rng.random(d - 1), [1.0]))
    _assert_rank_one_matches_the_solve(*seeded_problems(rng, d, 6, spectrum, kind))


@pytest.mark.parametrize(
    "kind",
    [
        *(InputStateKind.coherent(math.sqrt(n0)) for n0 in (1.0, 4.0, 9.0, 60.0)),
        InputStateKind.coherent(1.0, 0.5j),
        InputStateKind.coherent(1.0, 1j),
        InputStateKind.coherent(1.0, 0.5),
    ],
    ids=["h-1", "h-4", "h-9", "h-60", "elliptical", "circular", "complex-factors"],
)
def test_rank_one_route_matches_the_linear_solve_on_builder_probes_at_the_edges(kind):
    output, d_alpha, _ = checks.mode_problems(kind, EDGE_ALPHAS)
    _assert_rank_one_matches_the_solve(output, d_alpha)


@pytest.mark.parametrize("ratio", [0.4e-10, 0.5e-10, 0.6e-10])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_mixtures_near_the_support_cut_take_the_eigensolve_and_keep_its_bits(ratio, kind):
    # every other eigenvalue at ratio·λ₁: the remainder's norm passes θ/2
    d = 11
    spectrum = np.full(d, ratio)
    spectrum[-1] = 1.0
    output, d_alpha = seeded_problems(np.random.default_rng(3), d, 4, spectrum, kind)
    generator = fock.phase_generator(np.arange(d))
    f, solved = estimation._mode_qfims(output, output, d_alpha, generator)
    assert solved == {"rank_one_problems": 0, "eigensolved_problems": 4}
    expected = estimation._eigenbasis_qfim(output, [d_alpha, generator * output])
    assert np.array_equal(f, expected)


def test_a_stack_that_mixes_both_routes_gives_each_problem_its_bits_alone():
    # the photon pair's mode is rank one only at the lossless edge and where
    # the absorbed population is below the cut; seeded complex problems of
    # both kinds interleave the routes in a complex stack
    inputs = photon_pair().mode_inputs
    pair = estimation._distinct_problems(inputs, [[0.0, 0.3, 1e-13, 0.6, 1.0 - 1e-6]])[:2]
    rng = np.random.default_rng(11)
    spectra = (np.concatenate((1e-13 * rng.random(4), [1.0])), np.linspace(0.1, 1.0, 5))
    both = [seeded_problems(rng, 5, 3, spectrum, "complex") for spectrum in spectra]
    order = [0, 3, 1, 4, 2, 5]  # the routes alternate
    synthetic = [np.concatenate(arrays)[order] for arrays in zip(*both)]
    for (output, d_alpha), routes in ((pair, (2, 3)), (synthetic, (3, 3))):
        generator = fock.phase_generator(np.arange(output.shape[-1]))
        hermitian = require_hermitian(output)
        f, solved = estimation._mode_qfims(output, hermitian, d_alpha, generator)
        assert (solved["rank_one_problems"], solved["eigensolved_problems"]) == routes
        for b in range(len(output)):
            alone = [a[b : b + 1] for a in (output, hermitian, d_alpha)]
            assert np.array_equal(estimation._mode_qfims(*alone, generator)[0][0], f[b])
    # and the whole product route, point by point against its grid row: the
    # general route solves (α, φ) on both routes, the two-block route φ
    # alone, where every output of the pair is diagonal
    points = [ChiralParams(0.0, 0.3), ChiralParams(0.3, 0.0), ChiralParams(0.0, 0.0), PARAMS_REF]
    for make_state, routes in ((lambda: general(photon_pair()), (1, 3, None)), (photon_pair, (0, 0, 4))):
        grid = compute_bounds_grid(make_state(), ParamGrid(points), CHIRAL_NAMES)
        assert _problem_counts_of(grid.meta) == routes
        for b, point in enumerate(points):
            assert np.array_equal(compute_bounds(make_state(), point, CHIRAL_NAMES).F, grid.F[b])


def _problem_counts_of(meta) -> tuple:
    """Problems solved as rank one, by eigensolve and as diagonal (None
    where the route solves (α, φ), which a diagonal output does not skip)."""
    return (
        meta["rank_one_problems"],
        meta["eigensolved_problems"],
        meta.get("diagonal_problems"),
    )


def _problem_counts(state, points, labels=CHIRAL_NAMES):
    return _problem_counts_of(compute_bounds_grid(state, ParamGrid(points), labels).meta)


@pytest.mark.parametrize("n0", [1.0, 4.0, 9.0])
def test_check_1_grid_solves_every_mode_problem_as_rank_one(n0):
    rank_one, eigensolved, diagonal = _problem_counts(h_coherent(n0), CHECK_1_POINTS)
    assert rank_one > 0 and eigensolved == 0 and diagonal == 0


def test_every_coherent_figure_member_solves_every_mode_problem_as_rank_one():
    presets = experiments.figure_presets()
    members = [
        spec
        for panel in ("fig2a", "fig4")
        for label, spec in presets[panel]
        if label.startswith("coherent")
    ]
    assert len(members) == 5
    for spec in members:
        state = experiments.prepare_input_state(spec.input_state)
        grid, _ = spec.param_grid()
        labels = default_param_labels(spec.input_state)
        meta = compute_bounds_grid(state, grid, labels).meta
        rank_one, eigensolved, diagonal = _problem_counts_of(meta)
        assert rank_one > 0 and eigensolved == 0 and diagonal == 0


def test_a_bright_coherent_probe_solves_its_mode_problems_as_rank_one():
    # `bounds --state coherent --n0 60`: cutoff 71
    state = experiments.prepare_input_state(InputStateKind.coherent(math.sqrt(60.0)))
    point = ChiralParams.from_chiral(0.1, 0.3, 0.0, 0.0)
    assert _problem_counts(state, [point]) == (2, 0, 0)


def test_the_photon_pair_interior_takes_the_eigensolve_and_dense_inputs_count_nothing():
    # check 1's grid reaches α₋ = 0 on its edge x_d = x_s, where the mode is
    # |1⟩⟨1|: one distinct absorption, solved as rank one on the general
    # route; the two-block route solves φ alone, and every output of the
    # pair is diagonal, with φ information 0 and no eigenpair
    interior = [p for p in CHECK_1_POINTS if p.alpha_minus > 0.0]
    assert len(interior) < len(CHECK_1_POINTS)
    rank_one, eigensolved, diagonal = _problem_counts(general(photon_pair()), interior)
    assert rank_one == 0 and eigensolved > 0 and diagonal is None
    assert _problem_counts(general(photon_pair()), CHECK_1_POINTS)[0] == 1
    rank_one, eigensolved, diagonal = _problem_counts(photon_pair(), CHECK_1_POINTS)
    assert rank_one == eigensolved == 0 and diagonal > 0
    noon = hv_to_pm_state(NOON_HV, FockSpace(2, 2))
    meta = compute_bounds(noon, PARAMS_REF, QUANTUM_LABELS).meta
    assert "rank_one_problems" not in meta and meta["route"] == "eigenbasis"


@pytest.mark.parametrize("label", ["fock_pair_xd0.005", "fock_pair_xd0.2"])
def test_a_photon_pair_figure_member_makes_no_eigensolve(monkeypatch, label):
    # each mode's output is diagonal: its φ information is 0 with no
    # eigenpair, and counting reads the α block from its populations
    spec = dict(experiments.figure_presets()["fig2a"])[label]
    state = experiments.prepare_input_state(spec.input_state)
    calls = _record_linalg(monkeypatch)
    experiments.run_sweep(spec)
    assert calls == []
    grid, _ = spec.param_grid()
    labels = default_param_labels(spec.input_state)
    meta = compute_bounds_grid(state, grid, labels).meta
    rank_one, eigensolved, diagonal = _problem_counts_of(meta)
    assert rank_one == eigensolved == 0 and diagonal > 0


@pytest.mark.parametrize("vary", ["delta", "sigma"])
def test_a_product_phase_sweep_solves_at_most_two_problems(monkeypatch, vary):
    kind = InputStateKind.coherent(math.sqrt(2.0))
    spec = experiments.SweepSpec(kind, vary, 0.0, 3.0, 20, fixed={"x_d": 0.05, "x_s": 0.3})
    solves = _record_solves(monkeypatch)
    table = experiments.run_sweep(spec)
    assert sum(solves) <= 2 and len(table.status) == 20
    monkeypatch.undo()
    state, labels = experiments.prepare_input_state(kind), default_param_labels(kind)
    grid, _ = spec.param_grid()
    for b in range(len(grid)):
        point = ChiralParams(*(coord.item() for coord in grid[b].values("alpha_phi")))
        one, row = compute_bounds(state, point, labels), table[b]
        for p in labels:
            assert row.values[f"qfim_numeric.delta_{p}"] == one.bounds[p]
        assert row.values["qfim_numeric.cov_x_d_x_s"] == one.covariance("x_d", "x_s")


@pytest.mark.parametrize(
    "make_state, reads",
    [
        (lambda: h_coherent(2.0), (0, 0)),
        (photon_pair, (0, 0)),
        (lambda: elliptical_coherent(0.5j), (0, 1)),
        (lambda: elliptical_coherent(1j), (0, 1)),
    ],
    ids=["h", "photon-pair", "elliptical", "circular"],
)
def test_each_mode_reads_its_own_input_unless_the_factors_are_equal(monkeypatch, make_state, reads):
    state = make_state()
    inputs = state.mode_inputs
    assert inputs.reads == reads and len(inputs.tables) == max(reads) + 1
    solves = _record_solves(monkeypatch)
    # a common absorption is one problem only where both modes read one input
    compute_bounds(state, ChiralParams(0.3, 0.3), CHIRAL_NAMES)
    swapped = ParamGrid([ChiralParams(0.3, 0.2), ChiralParams(0.2, 0.3)])
    compute_bounds_grid(state, swapped, CHIRAL_NAMES)
    assert solves == [len(inputs.tables), 2 * len(inputs.tables)]


def _record_derivative_wrappers(monkeypatch):
    built = []
    original = ParamDerivative.__post_init__

    def recording(self):
        built.append(self.param)
        original(self)

    monkeypatch.setattr(ParamDerivative, "__post_init__", recording)
    return built


QUANTUM_LABELS = ("x_d", "x_s", "delta")


@pytest.mark.parametrize(
    "make_state, labels",
    [
        (lambda: uncapped_coherent(1.0, 0.0), CHIRAL_NAMES),
        (lambda: hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1)), QUANTUM_LABELS),
        (lambda: hv_to_pm_state(NOON_HV, FockSpace(2, 2)), QUANTUM_LABELS),
        (lambda: fock_product_state(FockSpace(1, 1), 1, 1), QUANTUM_LABELS),
    ],
    ids=["coherent", "single-photon", "noon", "photon-pair"],
)
def test_default_route_builds_no_derivative_wrappers(monkeypatch, make_state, labels):
    state = make_state()
    built = _record_derivative_wrappers(monkeypatch)
    result = compute_bounds(state, PARAMS_REF, labels)
    assert built == []
    assert result.params == labels
    # the SLD route still wraps its derivatives, and agrees
    reference = sld_route_bounds(state, PARAMS_REF, labels)
    assert built == list(labels)
    np.testing.assert_allclose(result.F, reference.F, rtol=1e-8, atol=1e-10)


def test_channel_derivatives_returns_param_derivative_records(monkeypatch):
    state = hv_to_pm_state(NOON_HV, FockSpace(2, 2))
    built = _record_derivative_wrappers(monkeypatch)
    output, derivs = channel_derivatives(state, PARAMS_REF, QUANTUM_LABELS)
    assert all(type(d) is ParamDerivative for d in derivs)
    assert [d.param for d in derivs] == built == list(QUANTUM_LABELS)
    # the records carry the matrices the unwrapped default route uses
    wrapped = estimation._eigenbasis_qfim(output.rho[None], [d.drho[None] for d in derivs])[0]
    unwrapped = compute_bounds(state, PARAMS_REF, QUANTUM_LABELS).F
    assert np.max(np.abs(unwrapped - wrapped)) <= 1e-14 * np.max(np.abs(wrapped))


def graph_walk_blocks(params: tuple, f: np.ndarray) -> tuple:
    """Reference grouping of one QFIM: a depth-first walk that tests each
    |F_ij| > RCOND·sqrt(F_ii F_jj) (either order) as it reaches it."""
    n = len(params)
    root = np.sqrt(np.maximum(np.diag(f), 0.0))
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        stack, group = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            group.append(i)
            for j in range(n):
                coupled = max(abs(f[i, j]), abs(f[j, i])) > estimation.RCOND * root[i] * root[j]
                if not seen[j] and coupled:
                    seen[j] = True
                    stack.append(j)
        blocks.append(tuple(params[i] for i in sorted(group)))
    return tuple(blocks)


@pytest.mark.parametrize("n", [3, 4])
def test_stacked_block_detection_equals_the_graph_walk(n):
    params = CHIRAL_NAMES[:n]
    pairs = list(itertools.combinations(range(n), 2))
    diagonals = [np.ones(n), np.arange(n) + 1.0, np.eye(n)[0], 1.0 - np.eye(n)[n - 1], np.zeros(n)]
    stack = []
    # every symmetric coupling pattern: 8 for n = 3, 64 for n = 4
    for pattern in itertools.product((False, True), repeat=len(pairs)):
        for diag in diagonals:
            f = np.diag(diag)
            root = np.sqrt(diag)
            for (i, j), coupled in zip(pairs, pattern):
                # just above or below the unit-free cut; 0 where a diagonal is 0
                scale = root[i] * root[j] or 1.0
                f[i, j] = f[j, i] = scale * (10.0 if coupled else 0.1) * estimation.RCOND
                if not coupled and root[i] * root[j] == 0.0:
                    f[i, j] = f[j, i] = 0.0
            stack.append(f)
    assert len(stack) == 2 ** len(pairs) * len(diagonals)
    groups = [estimation._coupled_groups(params, f) for f in stack]
    assert groups == [graph_walk_blocks(params, f) for f in stack]
    # the patterns are all distinct, so every grouping of n parameters shows up
    assert len(set(groups)) == {3: 5, 4: 15}[n]


# ---------------------------------------------------------------------------
# dense inputs: one solve per output block, at φ = 0
# ---------------------------------------------------------------------------

QUANTUM_STATES = {
    "noon": (hv_to_pm_state(NOON_HV, FockSpace(2, 2)), noon_grid),
    "single_photon": (hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1)), single_photon_grid),
}


@pytest.mark.parametrize("name", QUANTUM_STATES)
def test_block_route_solves_no_eigenproblem_larger_than_its_blocks(monkeypatch, name):
    state, _ = QUANTUM_STATES[name]
    state = state.with_rho(state.rho)  # fresh: it factors its input on first use
    dims = []
    original = np.linalg.eigh

    def recording(a, *args, **kwargs):
        dims.append(np.shape(a)[-2:])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    grid = ParamGrid([PARAMS_REF, ChiralParams(0.2, 0.6)])
    result = compute_bounds_grid(state, grid, QUANTUM_LABELS)
    # the input's blocks are rank one, so the state's loss tables take no
    # eigensolve: the 2 x 2 block stack, then the equilibrated QFIMs
    assert dims == [(2, 2), (3, 3)]
    assert state.kraus_tables[1].shape == (1, 1)
    assert result[0].meta["route"] == "eigenbasis"
    dims.clear()
    compute_bounds_grid(state, grid, QUANTUM_LABELS)
    # a second call reads the tables the state formed
    assert dims == [(2, 2), (3, 3)]


@pytest.mark.parametrize("name", QUANTUM_STATES)
def test_block_route_bounds_do_not_depend_on_the_phases(name):
    state, _ = QUANTUM_STATES[name]
    for labels in (QUANTUM_LABELS, ALPHA_PHI_NAMES):
        for alphas in ((0.3, 0.1), (1e-13, 0.999), (0.6, 0.6)):
            phased = compute_bounds(state, ChiralParams(*alphas, 0.3, -0.2), labels)
            plain = compute_bounds(state, ChiralParams(*alphas), labels)
            assert np.array_equal(phased.F, plain.F)
            assert np.array_equal(phased.F_inverse, plain.F_inverse)
            assert phased.bounds == plain.bounds


def test_an_empty_block_contributes_nothing_and_a_product_mode_still_raises():
    empty = np.zeros((1, 2, 2))
    d_rho = np.array([[[1.0, 0.0], [0.0, -1.0]]])
    with pytest.raises(NumericError, match="density matrix has no positive eigenvalue"):
        estimation._eigenbasis_qfim(empty, [d_rho])
    assert not estimation._eigenbasis_qfim(empty, [d_rho], allow_empty=True).any()
    # a product of two negative modes is a state whose modes are not
    flipped = coherent_product_state(FockSpace(3, 3), 0.3, 0.2, truncation_budget=1e-3)
    state = TwoModeState(
        flipped.space, factors=tuple(-f for f in flipped.factors), trace_deficit_budget=2e-3
    )
    with pytest.raises(NumericError, match="density matrix has no positive eigenvalue"):
        compute_bounds(state, PARAMS_REF, CHIRAL_NAMES)


EDGE_ALPHAS = (0.0, 1e-300, 1e-13, 1e-9, 1e-6, 0.3, 0.999, 1 - 1e-6)
COHERENT_N0_4 = InputStateKind.coherent(2.0)


def table_state(probe):
    """A quantum probe's state by its builder in the probe table, on its least cutoff."""
    return probe.builder(FockSpace(probe.cutoff, probe.cutoff))


# each builder probe of the probe table, the coherent one at n0 = 4, with the
# closed form of its bounds and its default labels: the coherent forms bound
# all four jointly
EDGE_PROBES = {
    **{
        probe.state: (table_state(probe), partial(probe.bound, InputStateKind(kind)), probe.labels)
        for kind, probe in PROBES.items()
        if probe.builder
    },
    "coherent_n0_4": (
        h_coherent(4.0),
        partial(COHERENT_N0_4.probe.bound, COHERENT_N0_4),
        COHERENT_N0_4.probe.labels,
    ),
}


def _edge_cells():
    for name in EDGE_PROBES:
        for alphas in itertools.product(EDGE_ALPHAS, repeat=2):
            params = ChiralParams(*alphas, 0.3, -0.2)
            yield pytest.param(name, params, id=f"{name}-{alphas[0]:g}-{alphas[1]:g}")


@pytest.mark.parametrize("name, params", _edge_cells())
def test_block_route_is_right_or_unidentifiable_on_the_edge_grid(name, params):
    # every label that the closed form bounds is right, to 1e-6 or within
    # 1e-12 of a limit 0, and never flagged; a label it gives no bound (the
    # photon pair's delta) is flagged unidentifiable
    state, closed, labels = EDGE_PROBES[name]
    reference = closed(ParamGrid([params])).values
    result = compute_bounds(state, params, labels)
    assert result.meta["inversion"] == "two_block"
    for label in labels:
        if label not in reference:
            assert result.bounds[label] is None, label
            continue
        value = result.bounds[label]
        assert value == pytest.approx(reference[label][0], rel=1e-6, abs=1e-12), label


BUILDER_PROBES = {
    "coherent_n0_1": lambda: h_coherent(1.0),
    "coherent_n0_4": lambda: h_coherent(4.0),
    "elliptical": lambda: elliptical_coherent(0.5j),
    "fock_3_1": lambda: fock_product_state(FockSpace(3, 1), 3, 1),
    **{probe.state: partial(table_state, probe) for probe in PROBES.values() if probe.builder},
}


@pytest.mark.parametrize("name", BUILDER_PROBES)
def test_each_builder_flag_agrees_with_the_eigenbasis_qfim_at_phased_points(name):
    # the native QFIM of the output at its phase, by the eigenbasis formula:
    # no α-φ cross block, and a φ block of rank one along δ for the dense
    # probes, whose photon number is fixed
    state = BUILDER_PROBES[name]()
    assert state.two_block and not state.with_rho(state.rho).two_block
    rng = np.random.default_rng(7)
    for alphas, phases in zip(rng.uniform(0.0, 0.95, (6, 2)), rng.uniform(-3.0, 3.0, (6, 2))):
        params = ChiralParams(*alphas, *phases)
        output, derivs = channel_derivatives(state, params, ALPHA_PHI_NAMES)
        f = estimation._eigenbasis_qfim(output.rho[None], [d.drho[None] for d in derivs])[0]
        scale = np.abs(f).max()
        assert np.abs(f[:2, 2:]).max() <= 1e-12 * scale
        if state.factors is None:
            phase = f[2:, 2:]
            assert phase[0, 0] > 0.0
            assert abs(phase[0, 1] + phase[0, 0]) <= 1e-12 * phase[0, 0]
            assert abs(phase[1, 1] - phase[0, 0]) <= 1e-12 * phase[0, 0]


def test_a_random_complex_pure_state_takes_the_general_route_and_keeps_its_bits():
    # no builder fixes its blocks: its cross block is not 0, so it is
    # inverted whole, as _inverted inverts its block QFIM
    space, rng = FockSpace(2, 2), np.random.default_rng(3)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    state = TwoModeState(space, np.outer(psi, psi.conj()) / np.vdot(psi, psi).real)
    assert not state.two_block
    points = [PARAMS_REF, ChiralParams(0.6, 0.05, 1.0, -0.3), ChiralParams(1e-9, 0.999)]
    grid = ParamGrid(points)
    for labels in (CHIRAL_NAMES, ALPHA_PHI_NAMES, QUANTUM_LABELS):
        result = compute_bounds_grid(state, grid, labels)
        assert result.meta["inversion"] == "general" and result.meta["route"] == "eigenbasis"
        f, _ = estimation._block_qfim(state, grid, estimation._native_pullback(labels))
        reference = estimation._inverted(labels, (f + f.swapaxes(1, 2)) / 2.0, {})
        assert np.array_equal(result.F, reference.F)
        assert np.array_equal(result.F_inverse, reference.F_inverse)
        assert np.array_equal(result.identifiable, reference.identifiable)
    native = compute_bounds(state, points[0], ALPHA_PHI_NAMES).F
    assert np.abs(native[:2, 2:]).max() > 1e-3 * np.abs(native).max()


@pytest.mark.parametrize("name", QUANTUM_STATES)
def test_block_route_matches_the_closed_forms_at_interior_points(name):
    state, closed = QUANTUM_STATES[name]
    rng = np.random.default_rng(11)
    alphas, phases = rng.uniform(0.0, 1.0, (2, 300)), rng.uniform(-3.0, 3.0, (2, 300))
    grid = ParamGrid([ChiralParams(*p) for p in np.vstack([alphas, phases]).T])
    result = compute_bounds_grid(state, grid, QUANTUM_LABELS)
    reference = closed(grid)[0]
    assert result.identifiable.all()
    for j, label in enumerate(QUANTUM_LABELS):
        np.testing.assert_allclose(result.bounds[:, j], reference.values[label], rtol=1e-12, atol=0)
