"""Closed-form catalog: values, solver agreement, and invariants."""

import math

import numpy as np
import pytest

from chiral_qfim import analytic
from chiral_qfim.analytic import (
    INTENSITY_MEASUREMENT,
    PROBES,
    QFIM_BOUND,
    InputStateKind,
    SensitivityReport,
    coherent_bounds,
    coherent_bounds_grid,
    coherent_intensity_grid,
    coherent_intensity_sensitivities,
    coherent_slds,
    default_param_labels,
    equal_split_photons,
    fidelity_fringe,
    fock_benchmark_bound,
    fock_benchmark_grid,
    noon_catalog,
    noon_grid,
    noon_intensity_grid,
    noon_intensity_sensitivities,
    single_photon_catalog,
    single_photon_grid,
)
from chiral_qfim.channel import ChiralParams, DomainError, ParamGrid, apply_channel_kraus
from chiral_qfim.estimation import (
    channel_derivatives,
    compute_bounds,
    solve_sld,
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
    mode_operators,
)

PARAMS_REF = ChiralParams.from_chiral(0.1, 0.5, 0.7, 0.3)


def support_coupled_difference(rho, l_a, l_b, tol=1e-10):
    """Max difference between two SLD candidates on support-coupled pairs.

    Kernel×kernel entries are pure gauge and never enter any trace with
    rho, so they are excluded from the comparison.
    """
    lam, v = np.linalg.eigh(rho)
    coupled = (lam[:, None] + lam[None, :]) > tol
    diff = v.conj().T @ (l_a - l_b) @ v
    return float(np.max(np.abs(np.where(coupled, diff, 0.0))))


# ---------------------------------------------------------------------------
# kinds, labels, report validation
# ---------------------------------------------------------------------------


def test_input_state_kinds_expose_mean_photon_numbers():
    assert InputStateKind.coherent(0.8).mean_photons == pytest.approx(0.64)
    assert InputStateKind.coherent(1.0, 1.0).mean_photons == pytest.approx(2.0)
    assert InputStateKind.single_photon_h().mean_photons == 1.0
    assert InputStateKind.noon_hv().mean_photons == 2.0
    assert InputStateKind.fock_one_plus_one_minus().mean_photons == 2.0


def test_input_state_kind_rejects_bad_construction():
    with pytest.raises(ValueError, match="unknown input state kind"):
        InputStateKind(kind="thermal")
    for amp in ("amp_h", "amp_v"):
        with pytest.raises(ValueError, match="amplitudes only apply to the coherent kind"):
            InputStateKind(kind=NOON_HV, **{amp: 1.0})
    with pytest.raises(ValueError, match="finite"):
        InputStateKind.coherent(float("inf"))
    # the vacuum is a valid kind; operations needing photons reject it themselves
    assert InputStateKind.coherent(0.0).mean_photons == 0.0
    with pytest.raises(DomainError, match="must be positive"):
        coherent_bounds(PARAMS_REF, n0=InputStateKind.coherent(0.0).mean_photons)


def test_zero_relative_phase_detection():
    assert InputStateKind.coherent(0.8, 0.6).zero_relative_phase
    assert InputStateKind.coherent(0.8).zero_relative_phase
    assert not InputStateKind.coherent(0.8, 0.6j).zero_relative_phase
    # anti-phase amplitudes still split the photons equally: |amp+| = |amp-|
    assert InputStateKind.coherent(0.8, -0.6).zero_relative_phase
    assert InputStateKind.coherent(-0.8, 0.6).zero_relative_phase
    assert InputStateKind.single_photon_h().zero_relative_phase


def test_default_param_labels_by_kind():
    assert default_param_labels(InputStateKind.coherent(1.0)) == (
        "x_d",
        "x_s",
        "delta",
        "sigma",
    )
    for kind in (SINGLE_PHOTON_H, NOON_HV, "fock_one_plus_one_minus"):
        assert default_param_labels(kind) == ("x_d", "x_s", "delta")
    with pytest.raises(ValueError, match="unknown input state kind"):
        default_param_labels("squeezed")


def test_sensitivity_report_validates_entries():
    with pytest.raises(ValueError, match="finite and nonnegative"):
        SensitivityReport(method=QFIM_BOUND, values={"x_d": -0.1})
    with pytest.raises(ValueError, match="finite and nonnegative"):
        SensitivityReport(method=QFIM_BOUND, values={"x_d": float("nan")})
    with pytest.raises(ValueError, match="unknown method"):
        SensitivityReport(method="tomography", values={})
    report = SensitivityReport(method=QFIM_BOUND, values={"x_d": 0.5})
    assert report.value("x_d") == 0.5


# ---------------------------------------------------------------------------
# coherent input
# ---------------------------------------------------------------------------


def test_coherent_bounds_reference_point():
    report = coherent_bounds(PARAMS_REF, n0=1.0)
    assert report.method == QFIM_BOUND
    assert report.value("x_d") == pytest.approx(0.707107, abs=1e-6)
    assert report.value("x_s") == pytest.approx(0.707107, abs=1e-6)
    assert report.value("delta") == pytest.approx(1.443376, abs=1e-6)
    assert report.value("sigma") == pytest.approx(1.443376, abs=1e-6)
    assert report.covariances[("x_d", "x_s")] == pytest.approx(-0.1, abs=1e-12)
    assert report.covariances[("delta", "sigma")] == pytest.approx(
        0.1 / 0.24, abs=1e-12
    )
    assert not report.notes


def test_coherent_bounds_covariances_vanish_without_chirality():
    report = coherent_bounds(ChiralParams.from_chiral(0.0, 0.4, 0.2, 0.1), n0=3.0)
    assert report.covariances[("x_d", "x_s")] == 0.0
    assert report.covariances[("delta", "sigma")] == 0.0


def test_coherent_bounds_rejects_nonpositive_photon_number():
    with pytest.raises(DomainError, match="must be positive"):
        coherent_bounds(PARAMS_REF, n0=0.0)


def test_coherent_covariance_matches_pipeline():
    """cov(x_d, x_s) = -x_d/n0 in the catalog and in the numeric pipeline.

    Per-mode QFI n0/(2 eta_pm) inverts to cov = -(eta_- - eta_+)/(2 n0).
    """
    for n0 in (1.0, 4.0):
        amp_p, amp_m = hv_to_pm_amplitudes(math.sqrt(n0), 0.0)
        space, budget = default_coherent_space(amp_p, amp_m, budget=1e-13, cap=None)
        state = coherent_product_state(space, amp_p, amp_m, truncation_budget=budget)
        pipeline = compute_bounds(state, PARAMS_REF, ("x_d", "x_s"))
        catalog = coherent_bounds(PARAMS_REF, n0=n0).covariances[("x_d", "x_s")]
        assert catalog == -PARAMS_REF.x_d / n0
        assert pipeline.covariance("x_d", "x_s") == pytest.approx(catalog, abs=1e-8)


def test_coherent_intensity_saturates_bounds():
    for x_s in (0.05, 0.3, 0.7):
        for n0 in (1.0, 4.0):
            params = ChiralParams.from_chiral(0.2 * x_s, x_s, 0.0, 0.0)
            intensity = coherent_intensity_sensitivities(params, n0)
            bound = coherent_bounds(params, n0)
            assert intensity.method == INTENSITY_MEASUREMENT
            for label in ("x_d", "x_s"):
                assert intensity.value(label) == pytest.approx(
                    bound.value(label), abs=1e-12
                )
    half_loss = coherent_intensity_sensitivities(
        ChiralParams.from_chiral(0.05, 0.5, 0.0, 0.0), 4.0
    )
    assert half_loss.value("x_d") == pytest.approx(0.353553, abs=1e-6)


def test_coherent_intensity_accepts_matching_kind():
    # in phase or anti-phase, the kind's photons split equally between the modes
    for kind in (InputStateKind.coherent(2.0), InputStateKind.coherent(1.6, -1.2)):
        report = coherent_intensity_sensitivities(PARAMS_REF, equal_split_photons(kind))
        assert report.value("x_s") == pytest.approx(math.sqrt(0.5 / 4.0), abs=1e-12)
        assert report.value("x_d") == pytest.approx(math.sqrt(0.5 / 4.0), abs=1e-12)


def test_equal_split_photons_rejects_relative_phase_and_non_coherent_kinds():
    with pytest.raises(DomainError, match="zero relative phase"):
        equal_split_photons(InputStateKind.coherent(0.8, 0.6j))
    with pytest.raises(ValueError, match="coherent input kind"):
        equal_split_photons(InputStateKind.single_photon_h())


def test_coherent_slds_match_numerical_solver():
    params = ChiralParams(alpha_plus=0.3, alpha_minus=0.2, phi_plus=0.3, phi_minus=0.1)
    n0 = 0.64
    # the defining-equation residual scales with the truncation-tail
    # amplitude, so the residual check needs a couple of rows of headroom
    space = FockSpace(14, 14)
    catalog = coherent_slds(params, n0, space, truncation_budget=1e-13)
    assert list(catalog) == ["x_d", "x_s", "delta", "sigma"]

    amp_p, amp_m = hv_to_pm_amplitudes(0.8, 0.0)
    state = coherent_product_state(space, amp_p, amp_m, truncation_budget=1e-13)
    output, derivs = channel_derivatives(state, params, ("x_d", "x_s", "delta", "sigma"))
    rho = output.rho
    for (label, l_mat), drho in zip(catalog.items(), derivs):
        assert drho.param == label
        # the closed-form SLD solves the defining equation for the numeric ∂ρ
        residual = drho.drho - 0.5 * (l_mat @ rho + rho @ l_mat)
        assert np.max(np.abs(residual)) < 1e-9
        assert abs(np.trace(rho @ l_mat)) < 1e-9
        solver = solve_sld(output, drho)
        assert support_coupled_difference(rho, l_mat, solver.L) < 1e-7


def test_coherent_slds_equal_absorption_form():
    alpha, n0 = 0.25, 2.0
    params = ChiralParams(alpha_plus=alpha, alpha_minus=alpha)
    space = FockSpace(12, 12)
    catalog = coherent_slds(params, n0, space)
    ops = mode_operators(space)
    expected = -(ops.n_plus + ops.n_minus) / (1.0 - alpha) + n0 * np.eye(space.dim)
    np.testing.assert_allclose(catalog["x_s"], expected, atol=1e-12)


def test_coherent_slds_rejects_nonpositive_photon_number():
    with pytest.raises(DomainError, match="must be positive"):
        coherent_slds(PARAMS_REF, 0.0, FockSpace(4, 4))


def test_coherent_slds_refuse_an_input_tail_above_the_budget():
    # the damped output's tail fits the budget; the input's does not
    with pytest.raises(TruncationError, match="cutoff >= 10 required"):
        coherent_slds(ChiralParams(0.9, 0.9), 1.0, FockSpace(6, 6), truncation_budget=1e-10)


# ---------------------------------------------------------------------------
# single-photon input
# ---------------------------------------------------------------------------


def test_single_photon_catalog_reference_point():
    catalog = single_photon_catalog(PARAMS_REF)
    assert catalog.rho_support.shape == (3, 3)
    assert np.trace(catalog.rho_support).real == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(
        np.diag(catalog.qfim),
        [0.5 / 0.24, 0.5 / 0.24 + 2.0, 0.48],
        atol=1e-12,
    )
    assert catalog.qfim[0, 1] == pytest.approx(0.1 / 0.24, abs=1e-12)
    assert catalog.bounds.value("x_d") == pytest.approx(0.7, abs=1e-12)
    assert catalog.bounds.value("x_s") == pytest.approx(0.5, abs=1e-12)
    assert catalog.bounds.value("delta") == pytest.approx(
        math.sqrt(1.0 / 0.48), abs=1e-12
    )
    assert catalog.bounds.covariances[("x_d", "x_s")] == pytest.approx(
        -0.05, abs=1e-12
    )
    for label in ("x_d", "x_s"):
        assert catalog.intensity.value(label) == pytest.approx(
            catalog.bounds.value(label), abs=1e-12
        )


def test_single_photon_bounds_equal_block_inversion():
    for x_s in (0.1, 0.3, 0.6, 0.9):
        for frac in (0.0, 0.5, 1.0):
            x_d = frac * min(0.2 * (1.0 - x_s), x_s)
            params = ChiralParams.from_chiral(x_d, x_s, 0.4, 0.0)
            catalog = single_photon_catalog(params)
            inv = np.linalg.inv(catalog.qfim[:2, :2])
            assert catalog.bounds.value("x_d") == pytest.approx(
                math.sqrt(inv[0, 0]), abs=1e-12
            )
            assert catalog.bounds.value("x_s") == pytest.approx(
                math.sqrt(inv[1, 1]), abs=1e-12
            )
            assert catalog.bounds.covariances[("x_d", "x_s")] == pytest.approx(
                inv[0, 1], abs=1e-12
            )
            assert catalog.bounds.value("delta") == pytest.approx(
                1.0 / math.sqrt(catalog.qfim[2, 2]), abs=1e-12
            )


def test_single_photon_catalog_matches_pipeline():
    params = ChiralParams(alpha_plus=0.3, alpha_minus=0.1, phi_plus=0.4)
    space = FockSpace(1, 1)
    state = hv_to_pm_state(SINGLE_PHOTON_H, space)
    output, derivs = channel_derivatives(state, params, ("x_d", "x_s", "delta"))
    pipeline = compute_bounds(state, params, ("x_d", "x_s", "delta"))
    catalog = single_photon_catalog(params)

    np.testing.assert_allclose(catalog.qfim, pipeline.F, atol=1e-10)
    for label in ("x_d", "x_s", "delta"):
        assert catalog.bounds.value(label) == pytest.approx(
            pipeline.bound(label), abs=1e-10
        )
    assert catalog.bounds.covariances[("x_d", "x_s")] == pytest.approx(
        pipeline.covariance("x_d", "x_s"), abs=1e-10
    )

    order = [space.index(1, 0), space.index(0, 1), space.index(0, 0)]
    np.testing.assert_allclose(
        catalog.rho_support, output.rho[np.ix_(order, order)], atol=1e-12
    )

    embedded = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for label in ("x_d", "delta"):
        embedded[:] = 0.0
        embedded[np.ix_(order, order)] = catalog.slds[label]
        solver = solve_sld(output, derivs[["x_d", "x_s", "delta"].index(label)])
        assert support_coupled_difference(output.rho, embedded, solver.L) < 1e-8


def test_single_photon_lossless_point_reports_limits():
    catalog = single_photon_catalog(ChiralParams.from_chiral(0.0, 0.0, 0.3, 0.0))
    assert catalog.slds is None
    assert catalog.qfim is None
    assert catalog.bounds.value("x_d") == pytest.approx(1.0, abs=1e-12)
    assert catalog.bounds.value("x_s") == 0.0
    assert catalog.bounds.value("delta") == pytest.approx(1.0, abs=1e-12)
    assert any("1/X_s" in note for note in catalog.bounds.notes)
    assert catalog.intensity.value("x_d") == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# NOON input
# ---------------------------------------------------------------------------


def test_noon_catalog_matches_pipeline():
    params = ChiralParams(alpha_plus=0.3, alpha_minus=0.1, phi_plus=0.4)
    space = FockSpace(2, 2)
    state = hv_to_pm_state(NOON_HV, space)
    output, derivs = channel_derivatives(state, params, ("x_d", "x_s", "delta"))
    pipeline = compute_bounds(state, params, ("x_d", "x_s", "delta"))
    catalog = noon_catalog(params)

    np.testing.assert_allclose(catalog.qfim, pipeline.F, atol=1e-7)
    for label in ("x_d", "x_s", "delta"):
        assert catalog.bounds.value(label) == pytest.approx(
            pipeline.bound(label), abs=1e-7
        )

    order = [
        space.index(2, 0),
        space.index(0, 2),
        space.index(1, 0),
        space.index(0, 1),
        space.index(0, 0),
    ]
    np.testing.assert_allclose(
        catalog.rho_support, output.rho[np.ix_(order, order)], atol=1e-12
    )

    embedded = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for label in ("x_d", "x_s", "delta"):
        embedded[:] = 0.0
        embedded[np.ix_(order, order)] = catalog.slds[label]
        solver = solve_sld(output, derivs[["x_d", "x_s", "delta"].index(label)])
        assert support_coupled_difference(output.rho, embedded, solver.L) < 1e-7


def test_noon_lossless_endpoint_reports_limits():
    catalog = noon_catalog(ChiralParams.from_chiral(0.0, 0.0, 0.5, 0.0))
    assert catalog.slds is None
    assert catalog.qfim is None
    assert catalog.bounds.value("x_d") == 0.0
    assert catalog.bounds.value("x_s") == 0.0
    assert catalog.bounds.value("delta") == pytest.approx(0.5, abs=1e-12)
    assert catalog.intensity.value("x_d") == pytest.approx(1.0, abs=1e-12)
    assert catalog.intensity.value("x_s") == pytest.approx(0.0, abs=1e-12)
    assert any("limit" in note for note in catalog.bounds.notes)


def test_noon_delta_bound_continuous_at_endpoint():
    near = noon_catalog(ChiralParams(alpha_plus=1e-6, alpha_minus=1e-6))
    exact = noon_catalog(ChiralParams(alpha_plus=0.0, alpha_minus=0.0))
    assert near.bounds.value("delta") == pytest.approx(
        exact.bounds.value("delta"), abs=1e-5
    )


def test_noon_catalog_at_tiny_absorption_matches_pipeline():
    params = ChiralParams(alpha_plus=8.8e-7, alpha_minus=0.3, phi_plus=0.2)
    state = hv_to_pm_state(NOON_HV, FockSpace(2, 2))
    pipeline = compute_bounds(state, params, ("x_d", "x_s", "delta"))
    catalog = noon_catalog(params)
    assert catalog.qfim is not None and not catalog.bounds.notes
    for label in ("x_d", "x_s", "delta"):
        assert catalog.bounds.value(label) == pytest.approx(
            pipeline.bound(label), rel=1e-6
        )
    assert catalog.bounds.covariances[("x_d", "x_s")] == pytest.approx(
        pipeline.covariance("x_d", "x_s"), rel=1e-6
    )


@pytest.mark.parametrize("alphas", [(0.1, 0.0), (0.4, 0.0), (0.0, 0.4)])
def test_noon_catalog_with_one_lossless_mode_is_a_continuous_limit(alphas):
    catalog = noon_catalog(ChiralParams(*alphas))
    assert catalog.slds is None
    assert catalog.qfim is None
    assert any("limit" in note for note in catalog.bounds.notes)
    # the lossless mode's absorption is known exactly, which leaves the
    # photon-pair benchmark for both absorption coordinates
    benchmark = fock_benchmark_bound(ChiralParams(*alphas))
    for label in ("x_d", "x_s"):
        assert catalog.bounds.value(label) == pytest.approx(
            benchmark.value(label), rel=1e-12
        )
    lossy = max(alphas)
    previous = math.inf
    for small in (1e-3, 1e-6, 1e-9, 1e-12):
        near = noon_catalog(
            ChiralParams(*(a if a else small for a in alphas))
        ).bounds
        gap = max(
            abs(near.value(label) - catalog.bounds.value(label))
            for label in ("x_d", "x_s", "delta")
        )
        cov_gap = abs(
            near.covariances[("x_d", "x_s")] - catalog.bounds.covariances[("x_d", "x_s")]
        )
        assert gap < previous
        assert max(gap, cov_gap) <= small / lossy
        previous = gap


def test_noon_bounds_equal_block_inversion():
    rng = np.random.default_rng(11)
    for a_p, a_m in 10.0 ** rng.uniform(-3.0, math.log10(0.999), size=(200, 2)):
        catalog = noon_catalog(ChiralParams(a_p, a_m, 0.3, 0.0))
        inv = np.linalg.inv(catalog.qfim[:2, :2])
        assert catalog.bounds.value("x_d") == pytest.approx(
            math.sqrt(inv[0, 0]), rel=1e-11
        )
        assert catalog.bounds.value("x_s") == pytest.approx(
            math.sqrt(inv[1, 1]), rel=1e-11
        )
        assert catalog.bounds.covariances[("x_d", "x_s")] == pytest.approx(
            inv[0, 1], rel=1e-11, abs=1e-11 * math.sqrt(inv[0, 0] * inv[1, 1])
        )
        assert catalog.bounds.value("delta") == pytest.approx(
            1.0 / math.sqrt(catalog.qfim[2, 2]), rel=1e-12
        )


def test_noon_intensity_closed_form():
    catalog = noon_catalog(ChiralParams(alpha_plus=0.2, alpha_minus=0.2))
    assert catalog.intensity.value("x_d") == pytest.approx(
        0.5 * math.sqrt(2.88), abs=1e-12
    )
    assert catalog.intensity.value("x_s") == pytest.approx(
        0.5 * math.sqrt(0.32), abs=1e-12
    )


def test_noon_bounds_beat_noon_intensity_on_x_d():
    """The QFIM bound improves on intensity measurement for the NOON input."""
    for alpha in (0.05, 0.2, 0.4):
        catalog = noon_catalog(ChiralParams(alpha_plus=alpha, alpha_minus=alpha))
        assert catalog.bounds.value("x_d") < catalog.intensity.value("x_d")


# ---------------------------------------------------------------------------
# Fock benchmark and fidelity fringes
# ---------------------------------------------------------------------------


def test_fock_benchmark_reference_value_and_pipeline_match():
    params = ChiralParams(alpha_plus=0.5, alpha_minus=0.5)
    report = fock_benchmark_bound(params)
    assert report.value("x_d") == pytest.approx(0.353553, abs=1e-6)
    assert report.value("x_s") == report.value("x_d")

    space = FockSpace(1, 1)
    # the factors dropped: the dense two-mode route
    state = TwoModeState(space, fock_product_state(space, 1, 1).rho)
    pipeline = compute_bounds(state, params, ("x_d", "x_s"))
    assert report.value("x_d") == pytest.approx(pipeline.bound("x_d"), abs=1e-7)

    lossless = fock_benchmark_bound(ChiralParams(alpha_plus=0.0, alpha_minus=0.0))
    assert lossless.value("x_d") == 0.0


def test_fidelity_fringe_reference_values():
    params = ChiralParams.from_chiral(0.1, 0.5, 0.0, 0.0)
    assert fidelity_fringe(SINGLE_PHOTON_H, params) == pytest.approx(
        0.494949, abs=1e-6
    )
    quarter = ChiralParams.from_chiral(0.1, 0.5, math.pi / 4.0, 0.0)
    assert fidelity_fringe(NOON_HV, quarter) == pytest.approx(0.13, abs=1e-6)


def test_fidelity_fringe_period_doubling():
    for delta in (0.0, 0.3, 1.1):
        base = ChiralParams.from_chiral(0.1, 0.5, delta, 0.0)
        shifted = ChiralParams.from_chiral(0.1, 0.5, delta + math.pi, 0.0)
        assert fidelity_fringe(NOON_HV, shifted) == pytest.approx(
            fidelity_fringe(NOON_HV, base), abs=1e-12
        )
    single_base = ChiralParams.from_chiral(0.1, 0.5, 0.0, 0.0)
    single_shift = ChiralParams.from_chiral(0.1, 0.5, math.pi, 0.0)
    assert (
        abs(
            fidelity_fringe(SINGLE_PHOTON_H, single_base)
            - fidelity_fringe(SINGLE_PHOTON_H, single_shift)
        )
        > 0.1
    )


def test_fidelity_fringe_matches_channel_overlap():
    params = ChiralParams(alpha_plus=0.3, alpha_minus=0.1, phi_plus=0.7, phi_minus=0.2)
    for kind, cutoffs in ((SINGLE_PHOTON_H, (1, 1)), (NOON_HV, (2, 2))):
        space = FockSpace(*cutoffs)
        state = hv_to_pm_state(kind, space)
        output = apply_channel_kraus(state, params)
        lam, v = np.linalg.eigh(state.rho)
        psi = v[:, -1]
        overlap = float((psi.conj() @ output.rho @ psi).real)
        assert fidelity_fringe(kind, params) == pytest.approx(overlap, abs=1e-10)


def test_fidelity_fringe_stays_in_unit_interval():
    for x_s in (0.0, 0.3, 0.9):
        for frac in (0.0, 1.0):
            x_d = frac * min(0.2 * (1.0 - x_s), x_s)
            for delta in np.linspace(0.0, 2.0 * math.pi, 9):
                params = ChiralParams.from_chiral(x_d, x_s, float(delta), 0.0)
                for kind in (SINGLE_PHOTON_H, NOON_HV):
                    assert 0.0 <= fidelity_fringe(kind, params) <= 1.0


def test_fidelity_fringe_rejects_other_kinds():
    with pytest.raises(ValueError, match="fidelity fringes are defined"):
        fidelity_fringe(InputStateKind.coherent(1.0), PARAMS_REF)
    with pytest.raises(ValueError, match="fidelity fringes are defined"):
        fidelity_fringe("fock_one_plus_one_minus", PARAMS_REF)


# ---------------------------------------------------------------------------
# cross-state invariants
# ---------------------------------------------------------------------------


def test_weak_absorption_bound_hierarchy():
    """NOON ≤ single photon ≤ coherent with one photon, at weak absorption."""
    for x_s in (0.01, 0.05, 0.1):
        for x_d in (0.0, min(0.05, x_s / 2.0)):
            params = ChiralParams.from_chiral(x_d, x_s, 0.2, 0.0)
            coherent = coherent_bounds(params, n0=1.0)
            single = single_photon_catalog(params)
            if params.alpha_minus == 0.0:
                continue
            noon = noon_catalog(params)
            for label in ("x_d", "x_s", "delta"):
                assert (
                    noon.bounds.value(label)
                    <= single.bounds.value(label) + 1e-12
                )
                assert (
                    single.bounds.value(label)
                    <= coherent.value(label) + 1e-12
                )


def test_single_photon_delta_bound_equals_one_photon_coherent():
    """δΔ for the single photon coincides with the coherent N₀ = 1 bound."""
    for x_s in (0.1, 0.4, 0.8):
        params = ChiralParams.from_chiral(0.1 * x_s, x_s, 0.9, 0.0)
        single = single_photon_catalog(params)
        coherent = coherent_bounds(params, n0=1.0)
        assert single.bounds.value("delta") == pytest.approx(
            coherent.value("delta"), abs=1e-12
        )


# ---------------------------------------------------------------------------
# grid axis: each closed form over many points equals it at each point alone
# ---------------------------------------------------------------------------


def _out_of_domain(alpha_plus: float, alpha_minus: float = 0.3) -> ChiralParams:
    """Parameters with an alpha outside [0, 1), which ChiralParams refuses,
    so they are set past its constructor.  alpha_plus >= 1 makes
    (1-X_s)^2 - X_d^2 <= 0 and so reaches the closed forms' domain check.
    """
    params = ChiralParams(0.5, 0.3, 0.2, -0.1)
    object.__setattr__(params, "alpha_plus", alpha_plus)
    object.__setattr__(params, "alpha_minus", alpha_minus)
    return params


def _wedge_and_edges() -> list:
    rng = np.random.default_rng(2021)
    alphas = rng.uniform(0.0, 1.0, size=(500, 2)).tolist()
    phases = rng.uniform(-math.pi, math.pi, size=(500, 2)).tolist()
    return [ChiralParams(*a, *phi) for a, phi in zip(alphas, phases)] + [
        ChiralParams(0.0, 0.0, 0.4, 0.1),  # x_s = 0, that is alpha+ = alpha- = 0
        ChiralParams(0.0, 0.3, 0.2, 0.0),  # alpha+ = 0
        ChiralParams(0.3, 0.0, 0.2, 0.0),  # alpha- = 0
        _out_of_domain(1.0),  # d = 0
        _out_of_domain(1.5),  # d < 0, and negative radicands in the other forms
        _out_of_domain(-0.5, -0.5),  # gain: d > 0 but negative radicands
    ]


# name -> (grid form, scalar form); a fringe is read from its grid's "value"
CLOSED_FORMS = {
    "coherent_bounds": (lambda g: coherent_bounds_grid(g, 2.5), lambda p: coherent_bounds(p, 2.5)),
    "coherent_intensity": (
        lambda g: coherent_intensity_grid(g, 2.5),
        lambda p: coherent_intensity_sensitivities(p, 2.5),
    ),
    "single_photon.bounds": (
        lambda g: single_photon_grid(g)[0],
        lambda p: single_photon_catalog(p).bounds,
    ),
    "single_photon.intensity": (
        lambda g: single_photon_grid(g)[1],
        lambda p: single_photon_catalog(p).intensity,
    ),
    "noon.bounds": (lambda g: noon_grid(g)[0], lambda p: noon_catalog(p).bounds),
    "noon.intensity": (lambda g: noon_grid(g)[1], lambda p: noon_catalog(p).intensity),
    "noon_intensity": (noon_intensity_grid, noon_intensity_sensitivities),
    "fock_benchmark": (fock_benchmark_grid, fock_benchmark_bound),
    "fringe.single_photon": (
        lambda g: PROBES[SINGLE_PHOTON_H].fringe(SINGLE_PHOTON_H, g),
        lambda p: fidelity_fringe(SINGLE_PHOTON_H, p),
    ),
    "fringe.noon": (
        lambda g: PROBES[NOON_HV].fringe(NOON_HV, g),
        lambda p: fidelity_fringe(NOON_HV, p),
    ),
}


def _outcome(call):
    """repr of what ``call()`` returns (exact to the bit, sign of zero
    included), or the type and message of what it raises."""
    try:
        return repr(call())
    except (DomainError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_grid_closed_forms_equal_the_scalar_forms_bit_for_bit(name):
    grid_form, scalar_form = CLOSED_FORMS[name]
    points = _wedge_and_edges()
    scalar = [_outcome(lambda: scalar_form(params)) for params in points]
    failing = [b for b, got in enumerate(scalar) if got.startswith(("DomainError", "ValueError"))]
    # only the three points outside the domain fail, and not in every form
    assert set(failing) <= set(range(len(points) - 3, len(points)))
    inside = [params for b, params in enumerate(points) if b not in failing]
    grid = grid_form(ParamGrid(inside))
    for b, params in enumerate(inside):
        if name.startswith("fringe"):
            got = _outcome(lambda: grid.report(b).value("value"))
        else:
            got = _outcome(lambda: grid.report(b))
        assert got == _outcome(lambda: scalar_form(params)), (name, params)
    # a grid holding one failing point raises that point's scalar error
    for b in failing:
        holding = ParamGrid([*inside[:7], points[b], *inside[7:]])
        assert _outcome(lambda: grid_form(holding)) == scalar[b], (name, points[b])


@pytest.mark.parametrize("catalog", [single_photon_grid, noon_grid])
def test_grid_closed_forms_keep_the_domain_check_at_each_point(catalog):
    for form in (lambda grid: [coherent_bounds_grid(grid, 1.0)], catalog):
        # the first failing point's error, whatever follows it
        with pytest.raises(DomainError) as first:
            form(ParamGrid([PARAMS_REF, _out_of_domain(1.0), PARAMS_REF, _out_of_domain(1.5)]))
        assert str(first.value) == "(1-X_s)^2 - X_d^2 = 0.0 must be positive"
        # alpha+ = 1.5 fails the domain check before any value is checked
        with pytest.raises(DomainError) as past:
            form(ParamGrid([PARAMS_REF, _out_of_domain(1.5)]))
        assert type(past.value) is DomainError
        assert str(past.value) == "(1-X_s)^2 - X_d^2 = -0.35 must be positive"
        for grid in form(ParamGrid([PARAMS_REF, PARAMS_REF])):
            assert grid.report(0) == grid.report(1)


def test_grid_sensitivity_check_names_the_first_bad_value():
    # alpha+ = 1.5: eta+ = -0.5 makes both noon intensity radicands negative;
    # gain on both modes keeps d = 2.25 > 0, yet the x_s radicand is negative
    past, gain = _out_of_domain(1.5), _out_of_domain(-0.5, -0.5)
    for points, name in (([PARAMS_REF, past, gain], "x_d"), ([PARAMS_REF, gain, past], "x_s")):
        with pytest.raises(ValueError) as grid:
            noon_intensity_grid(ParamGrid(points))
        assert type(grid.value) is ValueError
        assert str(grid.value) == f"sensitivity for {name!r} must be finite and nonnegative, got nan"
    with pytest.raises(ValueError, match="'x_d' must be finite and nonnegative, got nan"):
        noon_intensity_sensitivities(past)
    # the catalog fails at the gain point as its intensity does, before its
    # bounds, and so does its grid
    with pytest.raises(ValueError, match="'x_s' must be finite and nonnegative, got nan") as scalar:
        noon_catalog(gain)
    with pytest.raises(ValueError) as grid:
        noon_grid(ParamGrid([PARAMS_REF, gain]))
    assert str(grid.value) == str(scalar.value)


def test_the_noon_bound_form_forms_no_intensity(monkeypatch):
    # the probe's bound form, which qfim_analytic reads, gives noon_grid's
    # bounds without forming the intensity values that noon_grid checks first
    points = [PARAMS_REF, ChiralParams(0.0, 0.2), ChiralParams(0.1, 0.35, 0.4, 0.0)]
    bounds, _ = noon_grid(ParamGrid(points))

    def refuse(grid):
        raise AssertionError("the bound form formed the intensity values")

    monkeypatch.setattr(analytic, "noon_intensity_grid", refuse)
    kind = InputStateKind(kind=NOON_HV)
    alone = PROBES[NOON_HV].bound(kind, ParamGrid(points))
    for b in range(len(points)):
        assert alone.report(b) == bounds.report(b)
    with pytest.raises(DomainError, match="must be positive"):
        PROBES[NOON_HV].bound(kind, ParamGrid([PARAMS_REF, _out_of_domain(1.5)]))


def test_noon_grid_gives_no_covariance_where_both_modes_are_lossless():
    points = [ChiralParams(0.0, 0.0, 0.3, 0.0), ChiralParams(0.0, 0.2), PARAMS_REF]
    bounds, _ = noon_grid(ParamGrid(points))
    cov = bounds.covariances[("x_d", "x_s")]
    assert math.isnan(cov[0]) and not np.isnan(cov[1:]).any()
    assert bounds.limit.tolist() == [True, True, False]
    assert bounds.values["x_d"][0] == 0.0 and bounds.values["x_s"][0] == 0.0
    assert bounds.report(0).covariances == {}
    assert bounds.report(0).notes and not bounds.report(2).notes
    assert noon_catalog(points[0]).bounds == bounds.report(0)


@pytest.mark.parametrize("alphas", [(1e-300, 1e-300), (1e-170, 1e-200), (1.5e-155, 1.5e-155)])
def test_noon_catalog_takes_the_limit_where_the_absorptions_underflow(alphas):
    # X_s² + X_d² and D underflow to 0 (or 2/D overflows) though both α > 0:
    # the grid flags the limit and the catalog returns the limit catalog
    params = ChiralParams(*alphas, 0.3, -0.2)
    bounds, _ = noon_grid(ParamGrid([params]))
    assert bounds.limit.tolist() == [True]
    assert math.isnan(bounds.covariances[("x_d", "x_s")][0])
    catalog = noon_catalog(params)
    assert catalog.slds is None and catalog.qfim is None
    assert catalog.bounds == bounds.report(0)
    assert catalog.bounds.value("x_d") == 0.0 and catalog.bounds.value("x_s") == 0.0
    assert catalog.bounds.value("delta") == pytest.approx(0.5, rel=1e-12)
    assert any("underflows" in note for note in catalog.bounds.notes)


def test_noon_catalog_takes_the_limit_where_one_inverse_absorption_overflows():
    # α₊ = 5e-324 keeps D finite, but the catalog's 1/(α₊η₊) overflows
    params = ChiralParams(5e-324, 0.3)
    bounds, _ = noon_grid(ParamGrid([params]))
    assert bounds.limit.tolist() == [True]
    catalog = noon_catalog(params)
    assert catalog.slds is None and catalog.qfim is None
    assert catalog.bounds == bounds.report(0)
    assert catalog.bounds.notes
    assert catalog.bounds.value("x_d") == catalog.bounds.value("x_s") == 0.229128784747792
