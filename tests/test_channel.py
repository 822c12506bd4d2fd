import math
import tracemalloc

import numpy as np
import pytest

from chiral_qfim import channel, estimation, experiments
from chiral_qfim.analytic import InputStateKind
from chiral_qfim.channel import (
    CHIRAL_NAMES,
    COORDS_ALPHA_PHI,
    COORDS_CHIRAL,
    ChiralParams,
    DomainError,
    RatePicture,
    apply_channel_kraus,
    apply_channel_rk4,
    channel_output_and_alpha_derivatives,
    channel_phi_derivative,
    coordinate_jacobian,
    mode_output_and_alpha_derivative,
    mode_population_transfer,
    noon_output_analytic,
)
from chiral_qfim.estimation import channel_derivatives, compute_bounds
from chiral_qfim.fock import (
    NOON_HV,
    SINGLE_PHOTON_H,
    FockSpace,
    TwoModeState,
    coherent_product_state,
    default_coherent_space,
    fock_product_state,
    hv_to_pm_state,
    mode_operators,
)


def random_density(rng, space):
    a = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal(
        (space.dim, space.dim)
    )
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return TwoModeState(space=space, rho=rho, label="random")


def test_params_validation():
    p = ChiralParams(0.3, 0.1, 0.7, 0.2)
    assert p.x_s == pytest.approx(0.2)
    assert p.x_d == pytest.approx(0.1)
    assert p.delta == pytest.approx(0.5)
    assert p.sigma == pytest.approx(0.9)
    assert p.eta_plus == pytest.approx(0.7)
    with pytest.raises(DomainError):
        ChiralParams(1.0, 0.0)
    with pytest.raises(DomainError):
        ChiralParams(-0.1, 0.0)
    with pytest.raises(DomainError):
        ChiralParams(0.1, 0.2, math.nan, 0.0)


def test_from_chiral_round_trip():
    p = ChiralParams.from_chiral(x_d=0.1, x_s=0.3, delta=0.5, sigma=1.1)
    assert p.alpha_plus == pytest.approx(0.4)
    assert p.alpha_minus == pytest.approx(0.2)
    assert p.phi_plus == pytest.approx(0.8)
    assert p.phi_minus == pytest.approx(0.3)
    again = ChiralParams.from_chiral(p.x_d, p.x_s, p.delta, p.sigma)
    for name in ("alpha_plus", "alpha_minus", "phi_plus", "phi_minus"):
        assert getattr(again, name) == pytest.approx(getattr(p, name), abs=1e-15)


def test_rate_picture_round_trip():
    for t in (1.0, 0.5, 3.0):
        p = ChiralParams(0.6, 0.25, 1.3, -0.4)
        r = p.to_rates(t=t)
        assert r.gamma_plus == pytest.approx(-math.log(0.4) / (2 * t))
        back = r.to_params()
        for name in ("alpha_plus", "alpha_minus", "phi_plus", "phi_minus"):
            assert getattr(back, name) == pytest.approx(getattr(p, name), abs=1e-12)


def test_rate_picture_validation():
    with pytest.raises(DomainError):
        RatePicture(-0.1, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        RatePicture(0.1, 0.1, 0.0, 0.0, t=0.0)
    with pytest.raises(DomainError):
        ChiralParams(0.1, 0.1).to_rates(t=-1.0)


def test_coordinate_jacobian_blocks():
    j = coordinate_jacobian(COORDS_ALPHA_PHI, COORDS_CHIRAL)
    expected = np.array(
        [
            [0.5, -0.5, 0, 0],
            [0.5, 0.5, 0, 0],
            [0, 0, 1, -1],
            [0, 0, 1, 1],
        ]
    )
    np.testing.assert_allclose(j.matrix, expected, atol=0)
    j_inv = coordinate_jacobian(COORDS_CHIRAL, COORDS_ALPHA_PHI)
    np.testing.assert_allclose(j.matrix @ j_inv.matrix, np.eye(4), atol=1e-14)
    np.testing.assert_allclose(
        coordinate_jacobian(COORDS_CHIRAL, COORDS_CHIRAL).matrix, np.eye(4), atol=0
    )
    with pytest.raises(ValueError):
        coordinate_jacobian("polar", COORDS_CHIRAL)


def test_kraus_identity_channel():
    space = FockSpace(2, 2)
    state = hv_to_pm_state(NOON_HV, space)
    out = apply_channel_kraus(state, ChiralParams(0.0, 0.0, 0.0, 0.0))
    np.testing.assert_allclose(out.rho, state.rho, atol=1e-15)


def test_kraus_coherent_to_coherent():
    # dropped input coherences across the cutoff have magnitude ~ sqrt(tail)
    # and partially re-enter the kept block under damping, so the entrywise
    # agreement scales with sqrt(budget); a tight budget makes the check sharp
    budget = 1e-13
    params = ChiralParams(0.3, 0.45, 0.7, -0.2)
    amp_plus, amp_minus = 0.8, 0.5 + 0.3j
    space, _ = default_coherent_space(amp_plus, amp_minus, budget=budget, cap=None)
    state = coherent_product_state(space, amp_plus, amp_minus, truncation_budget=budget)
    out = apply_channel_kraus(state, params)
    expected = coherent_product_state(
        space,
        amp_plus * math.sqrt(params.eta_plus) * np.exp(-1j * params.phi_plus),
        amp_minus * math.sqrt(params.eta_minus) * np.exp(-1j * params.phi_minus),
        truncation_budget=budget,
    )
    assert np.max(np.abs(out.rho - expected.rho)) <= 1e-7
    assert abs(out.trace() - state.trace()) <= 1e-12


def test_kraus_single_photon_example():
    space = FockSpace(1, 1)
    state = hv_to_pm_state(SINGLE_PHOTON_H, space)
    params = ChiralParams(0.6, 0.4, 0.3, 0.0)
    out = apply_channel_kraus(state, params)
    k10, k01, k00 = space.index(1, 0), space.index(0, 1), space.index(0, 0)
    assert out.rho[k10, k10].real == pytest.approx(0.2)
    assert out.rho[k01, k01].real == pytest.approx(0.3)
    assert out.rho[k00, k00].real == pytest.approx(0.5)
    off = out.rho[k10, k01]
    assert abs(off) == pytest.approx(0.5 * math.sqrt(0.24))
    # off-diagonal carries e^{−iΔ} in this package's convention
    expected = 0.5 * math.sqrt(0.4 * 0.6) * np.exp(-1j * params.delta)
    assert off == pytest.approx(expected)
    out.validate_psd()


def test_rk4_identity_params():
    space = FockSpace(2, 2)
    state = hv_to_pm_state(NOON_HV, space)
    out = apply_channel_rk4(state, ChiralParams(0.0, 0.0, 0.0, 0.0), steps=50)
    np.testing.assert_allclose(out.rho, state.rho, atol=1e-12)


def test_rk4_agrees_with_kraus_on_noon():
    space = FockSpace(2, 2)
    state = hv_to_pm_state(NOON_HV, space)
    params = ChiralParams(0.3, 0.1, 0.7, 0.2)
    out_rk4 = apply_channel_rk4(state, params)
    out_kraus = apply_channel_kraus(state, params)
    assert np.max(np.abs(out_rk4.rho - out_kraus.rho)) <= 1e-8
    assert out_rk4.meta["rk4_trace_drift"] <= 1e-9
    assert out_rk4.meta["rk4_hermiticity_drift"] <= 1e-10
    assert "rk4_warning" not in out_rk4.meta


def test_rk4_single_mode_coherent_amplitude_decay():
    amp = 0.6
    space, _ = default_coherent_space(amp, 0.0)
    state = coherent_product_state(space, amp, 0.0)
    params = ChiralParams(0.4, 0.0, 0.5, 0.0)
    out = apply_channel_rk4(state, params, steps=400)
    ops = mode_operators(space)
    got = out.expectation(ops.a_plus)
    gamma = -math.log(1 - 0.4) / 2.0
    expected = amp * np.exp(-1j * 0.5 - gamma)
    assert got == pytest.approx(expected, abs=1e-8)


def test_rk4_step_warning_metadata():
    space = FockSpace(2, 2)
    state = hv_to_pm_state(NOON_HV, space)
    out = apply_channel_rk4(state, ChiralParams(0.9, 0.8, 2.5, 1.0), steps=2)
    assert "rk4_warning" in out.meta
    with pytest.raises(ValueError):
        apply_channel_rk4(state, ChiralParams(0.1, 0.1), steps=0)


def test_noon_analytic_lossless_limit():
    space = FockSpace(2, 2)
    params = ChiralParams(0.0, 0.0, 0.45, 0.1)
    out = noon_output_analytic(params, space)
    state = hv_to_pm_state(NOON_HV, space)
    k20, k02 = space.index(2, 0), space.index(0, 2)
    assert out.rho[k20, k20] == pytest.approx(0.5)
    assert out.rho[k02, k20] == pytest.approx(-0.5 * np.exp(2j * params.delta))
    # applying the channel to the projector gives the same matrix
    np.testing.assert_allclose(out.rho, apply_channel_kraus(state, params).rho, atol=1e-14)


def test_noon_analytic_vacuum_weight():
    space = FockSpace(2, 2)
    out = noon_output_analytic(ChiralParams(0.5, 0.5, 0.0, 0.0), space)
    k00 = space.index(0, 0)
    assert out.rho[k00, k00].real == pytest.approx(0.25)


def test_noon_analytic_matches_kraus_on_grid():
    space = FockSpace(2, 2)
    state = hv_to_pm_state(NOON_HV, space)
    worst = 0.0
    for ap in np.linspace(0.0, 0.8, 5):
        for am in np.linspace(0.0, 0.8, 5):
            for delta in np.linspace(-1.5, 2.5, 5):
                params = ChiralParams(ap, am, delta, 0.0)
                direct = noon_output_analytic(params, space)
                oracle = apply_channel_kraus(state, params)
                worst = max(worst, np.max(np.abs(direct.rho - oracle.rho)))
    assert worst <= 1e-12


def test_complete_positivity_spot_check():
    rng = np.random.default_rng(17)
    space = FockSpace(3, 2)
    for _ in range(5):
        state = random_density(rng, space)
        params = ChiralParams(
            rng.uniform(0, 0.95), rng.uniform(0, 0.95), rng.uniform(-2, 2), rng.uniform(-2, 2)
        )
        out = apply_channel_kraus(state, params)
        assert np.linalg.eigvalsh(out.rho)[0] >= -1e-10
        assert abs(out.trace() - 1.0) <= 1e-12


def test_semigroup_composition():
    rng = np.random.default_rng(29)
    space = FockSpace(3, 3)
    state = random_density(rng, space)
    first = ChiralParams(0.3, 0.15, 0.4, -0.1)
    second = ChiralParams(0.2, 0.5, 0.25, 0.7)
    combined = ChiralParams(
        1 - first.eta_plus * second.eta_plus,
        1 - first.eta_minus * second.eta_minus,
        first.phi_plus + second.phi_plus,
        first.phi_minus + second.phi_minus,
    )
    two_step = apply_channel_kraus(apply_channel_kraus(state, first), second)
    one_step = apply_channel_kraus(state, combined)
    assert np.max(np.abs(two_step.rho - one_step.rho)) <= 1e-10


def test_photon_number_decay_all_inputs():
    params = ChiralParams(0.35, 0.6, 0.3, 0.8)
    space = FockSpace(2, 2)
    inputs = [
        hv_to_pm_state(SINGLE_PHOTON_H, space),
        hv_to_pm_state(NOON_HV, space),
    ]
    cspace, _ = default_coherent_space(0.7, 0.4)
    inputs.append(coherent_product_state(cspace, 0.7, 0.4))
    for state in inputs:
        ops = mode_operators(state.space)
        out = apply_channel_kraus(state, params)
        for n_op, eta in ((ops.n_plus, params.eta_plus), (ops.n_minus, params.eta_minus)):
            n_in = state.expectation(n_op).real
            n_out = out.expectation(n_op).real
            assert abs(n_out - eta * n_in) <= 1e-10


def finite_difference_alpha(state, params, mode, h=1e-5):
    kw = dict(
        alpha_plus=params.alpha_plus,
        alpha_minus=params.alpha_minus,
        phi_plus=params.phi_plus,
        phi_minus=params.phi_minus,
    )
    name = f"alpha_{mode}"
    alpha = kw[name]
    if alpha >= h:
        hi = dict(kw, **{name: alpha + h})
        lo = dict(kw, **{name: alpha - h})
        return (
            apply_channel_kraus(state, ChiralParams(**hi)).rho
            - apply_channel_kraus(state, ChiralParams(**lo)).rho
        ) / (2 * h)
    # second-order one-sided stencil at the α = 0 boundary
    f0 = apply_channel_kraus(state, ChiralParams(**kw)).rho
    f1 = apply_channel_kraus(state, ChiralParams(**dict(kw, **{name: alpha + h}))).rho
    f2 = apply_channel_kraus(state, ChiralParams(**dict(kw, **{name: alpha + 2 * h}))).rho
    return (-3 * f0 + 4 * f1 - f2) / (2 * h)


@pytest.mark.parametrize("mode", ["plus", "minus"])
def test_alpha_derivative_matches_finite_difference(mode):
    params = ChiralParams(0.3, 0.45, 0.6, -0.3)
    space = FockSpace(2, 2)
    states = [hv_to_pm_state(NOON_HV, space), hv_to_pm_state(SINGLE_PHOTON_H, space)]
    cspace, _ = default_coherent_space(0.8, 0.5)
    states.append(coherent_product_state(cspace, 0.8, 0.5))
    for state in states:
        _, d_plus, d_minus = channel_output_and_alpha_derivatives(state, params)
        exact = d_plus if mode == "plus" else d_minus
        approx = finite_difference_alpha(state, params, mode)
        assert np.max(np.abs(exact - approx)) <= 1e-8
        assert abs(np.trace(exact)) <= 1e-9
        assert np.max(np.abs(exact - exact.conj().T)) <= 1e-10


def test_alpha_derivative_at_zero_loss():
    params = ChiralParams(0.0, 0.2, 0.1, 0.0)
    space = FockSpace(2, 2)
    state = hv_to_pm_state(NOON_HV, space)
    output, exact, _ = channel_output_and_alpha_derivatives(state, params)
    approx = finite_difference_alpha(state, params, "plus")
    assert np.max(np.abs(exact - approx)) <= 1e-7
    np.testing.assert_array_equal(output.rho, apply_channel_kraus(state, params).rho)


def _count_weight_passes(monkeypatch):
    """Record the cutoff of every loss-table pass, dense or population."""
    cutoffs = []
    tables = channel._loss_tables

    def counting(cutoff, alpha):
        cutoffs.append(cutoff)
        return tables(cutoff, alpha)

    monkeypatch.setattr(channel, "_loss_tables", counting)
    return cutoffs


def _refuse_dense_propagation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the intensity route propagated the full density matrix")

    for module in (channel, estimation, experiments):
        if hasattr(module, "apply_channel_kraus"):
            monkeypatch.setattr(module, "apply_channel_kraus", refuse)
    monkeypatch.setattr(channel, "_rotated_input", refuse)


def test_channel_consumers_take_one_weight_pass_per_mode(monkeypatch):
    cutoffs = _count_weight_passes(monkeypatch)
    # unequal cutoffs tell the two modes' passes apart
    state = hv_to_pm_state(NOON_HV, FockSpace(2, 3))
    params = ChiralParams(0.3, 0.45, 0.6, -0.3)
    channel_derivatives(state, params, CHIRAL_NAMES)
    assert cutoffs == [2, 3]

    _refuse_dense_propagation(monkeypatch)
    cutoffs.clear()
    experiments.error_propagation_sensitivity(InputStateKind.noon_hv(), params, "x_d", state)
    assert cutoffs == [2, 3]
    experiments.intensity_statistics(InputStateKind.noon_hv(), params, state)
    assert cutoffs == [2, 3, 2, 3]


def test_sweep_point_takes_one_population_pass_for_both_targets(monkeypatch):
    spec = experiments.SweepSpec(
        input_state=InputStateKind.noon_hv(),
        vary="x_s",
        start=0.2,
        stop=0.6,
        points=2,
        fixed={"x_d": 0.05},
        methods=(experiments.INTENSITY_EXACT,),
    )
    state = hv_to_pm_state(NOON_HV, FockSpace(2, 3))
    cutoffs = _count_weight_passes(monkeypatch)
    _refuse_dense_propagation(monkeypatch)
    row = experiments.evaluate_point(spec, state, 0.4)
    assert cutoffs == [2, 3]
    assert row.status == ()
    for target in ("x_d", "x_s"):
        assert row.values[f"{experiments.INTENSITY_EXACT}.delta_{target}"] > 0.0


def _loss_weights_by_comb(cutoff, alpha):
    """W_k[m, m'] and its alpha-derivative from math.comb, one entry at a time."""
    size = cutoff + 1
    weights = np.zeros((size, size, size))
    derivatives = np.zeros_like(weights)
    eta = 1.0 - alpha
    for k in range(size):
        for m in range(size - k):
            for mp in range(size - k):
                binom = math.sqrt(math.comb(m + k, k) * math.comb(mp + k, k))
                half = (m + mp) / 2.0
                weights[k, m, mp] = binom * eta**half * alpha**k
                # d/dalpha of alpha^k eta^half, with 0^0 = 1
                d_alpha_k = k * alpha ** (k - 1) if k > 0 else 0.0
                d_eta = -half * eta ** (half - 1.0) if half > 0 else 0.0
                derivatives[k, m, mp] = binom * (d_alpha_k * eta**half + alpha**k * d_eta)
    return weights, derivatives


@pytest.mark.parametrize("cutoff", [0, 1, 12, 70, 100])
@pytest.mark.parametrize("alpha", [0.0, 1e-9, 0.35, 0.999])
def test_loss_weights_match_binomial_formula(cutoff, alpha):
    # W = (c.g)_k (x) g_k and dW = (dc.g)_k (x) g_k - W (m+m')/(2 eta), as the kernel forms them
    weighted, d_weighted, g, h = channel._loss_tables(cutoff, alpha)
    weights = weighted[:, :, None] * g[:, None, :]
    derivatives = d_weighted[:, :, None] * g[:, None, :] - weights * (h[:, None] + h[None, :])
    ref_w, ref_d = _loss_weights_by_comb(cutoff, alpha)
    # relative to the largest entry, so underflowed tails do not matter
    assert np.max(np.abs(weights - ref_w)) <= 1e-14 * np.max(np.abs(ref_w))
    assert np.max(np.abs(derivatives - ref_d)) <= 1e-14 * np.max(np.abs(ref_d))
    transfer, d_transfer = mode_population_transfer(cutoff, alpha)
    np.testing.assert_allclose(transfer.sum(axis=0), 1.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(d_transfer.sum(axis=0), 0.0, rtol=0, atol=1e-13)


def test_loss_weight_cache_holds_only_small_tables():
    channel._root_binomials.cache_clear()
    for cutoff, alpha in ((100, 0.3), (12, 0.3), (12, 0.7)):
        tables = channel._loss_tables(cutoff, alpha)
        assert all(table.size <= (cutoff + 1) ** 2 for table in tables)
    # one entry per cutoff, whatever the alpha
    assert channel._root_binomials.cache_info().currsize == 2
    cached = channel._root_binomials(100) + channel._root_binomials(12)
    assert sum(table.nbytes for table in cached) < 1_000_000


def test_dense_route_makes_no_cutoff_fold_copy():
    space = FockSpace(24, 24)
    product = coherent_product_state(space, 1.5, 0.8 + 0.3j, truncation_budget=1e-6)
    state = TwoModeState(space, product.rho, trace_deficit_budget=product.trace_deficit_budget)
    params = ChiralParams(0.3, 0.4, 0.2, 0.5)
    tracemalloc.start()
    try:
        channel_output_and_alpha_derivatives(state, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a gathered copy of the 4-index tensor alone would be 25 copies of rho
    assert peak < 16 * state.rho.nbytes


def test_single_mode_kernel_holds_no_cube():
    # one (cutoff+1)^3 weight cube alone would be 8 MB at cutoff 100
    factor = coherent_product_state(FockSpace(0, 100), 0.0, 3.5 + 3.5j).factors[1]
    tracemalloc.start()
    try:
        mode_output_and_alpha_derivative(factor, 0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("mode", ["plus", "minus"])
def test_phi_derivative_matches_finite_difference(mode):
    params = ChiralParams(0.3, 0.45, 0.6, -0.3)
    space = FockSpace(2, 2)
    state = hv_to_pm_state(NOON_HV, space)
    out = apply_channel_kraus(state, params)
    exact = channel_phi_derivative(out, mode)
    h = 1e-6
    name = f"phi_{mode}"
    kw = dict(
        alpha_plus=0.3, alpha_minus=0.45, phi_plus=0.6, phi_minus=-0.3
    )
    hi = dict(kw, **{name: kw[name] + h})
    lo = dict(kw, **{name: kw[name] - h})
    approx = (
        apply_channel_kraus(state, ChiralParams(**hi)).rho
        - apply_channel_kraus(state, ChiralParams(**lo)).rho
    ) / (2 * h)
    assert np.max(np.abs(exact - approx)) <= 1e-8
    assert abs(np.trace(exact)) <= 1e-12


@pytest.mark.parametrize("alpha_plus", [0.0, 0.35])
def test_single_mode_kernel_factors_the_two_mode_engine(alpha_plus):
    # at zero phase; phased agreement is assert_routes_agree's, at PARAMS_REF
    params = ChiralParams(alpha_plus, 0.45)
    for state in (
        coherent_product_state(default_coherent_space(0.8, 0.5j)[0], 0.8, 0.5j),
        fock_product_state(FockSpace(2, 3), 2, 1),
    ):
        rho_plus, rho_minus = state.factors
        out_plus, d_plus = mode_output_and_alpha_derivative(rho_plus, params.alpha_plus)
        out_minus, d_minus = mode_output_and_alpha_derivative(rho_minus, params.alpha_minus)
        joint, exact_plus, exact_minus = channel_output_and_alpha_derivatives(state, params)
        assert np.max(np.abs(np.kron(out_plus, out_minus) - joint.rho)) <= 1e-15
        assert np.max(np.abs(np.kron(d_plus, out_minus) - exact_plus)) <= 1e-14
        assert np.max(np.abs(np.kron(out_plus, d_minus) - exact_minus)) <= 1e-14


@pytest.mark.parametrize("alpha", [0.0, 1e-9, 0.35, 0.999])
def test_population_transfer_is_the_diagonal_of_the_loss_map(alpha):
    pops = np.random.default_rng(5).random(6)
    out, d_out = mode_output_and_alpha_derivative(np.diag(pops), alpha)
    transfer, d_transfer = mode_population_transfer(5, alpha)
    np.testing.assert_allclose(transfer @ pops, np.diag(out), rtol=0, atol=1e-14)
    np.testing.assert_allclose(d_transfer @ pops, np.diag(d_out), rtol=0, atol=1e-14)
    # bit-identical to the kernel's table products on the diagonal m = m':
    # T[m, m+k] = (c.g)[k, m] g[k, m], minus T (h[m] + h[m]) in the derivative
    for cutoff in (0, 1, 2, 12, 24, 70, 100):
        weighted, d_weighted, g, h = channel._loss_tables(cutoff, alpha)
        rows, cols = np.triu_indices(cutoff + 1)
        transfer, d_transfer = mode_population_transfer(cutoff, alpha)
        expected = np.zeros_like(transfer)
        expected[rows, cols] = (weighted * g)[cols - rows, rows]
        np.testing.assert_array_equal(transfer, expected)
        expected[rows, cols] = (d_weighted * g)[cols - rows, rows] - expected[rows, cols] * (
            h[rows] + h[rows]
        )
        np.testing.assert_array_equal(d_transfer, expected)


def test_loss_weights_past_int64_binomials():
    # C(m+k, k) overflows int64 from cutoff 67 on; here the cutoff is 100
    space, budget = default_coherent_space(0.0, 7.0, cap=None)
    assert space == FockSpace(0, 100)
    state = coherent_product_state(space, 0.0, 7.0, truncation_budget=budget)
    params = ChiralParams(0.3, 0.4, 0.2, 0.5)
    assert apply_channel_kraus(state, params).trace() == pytest.approx(state.trace(), abs=1e-12)
    out, d_alpha = mode_output_and_alpha_derivative(state.factors[1], 0.4)
    assert abs(np.trace(out) - np.trace(state.factors[1])) <= 1e-12
    assert abs(np.trace(d_alpha)) <= 1e-12
    labels = ("alpha_minus", "phi_minus")
    per_mode = compute_bounds(state, params, labels)
    dense = compute_bounds(
        TwoModeState(space, state.rho, trace_deficit_budget=state.trace_deficit_budget),
        params,
        labels,
    )
    assert per_mode.meta["route"] == "per_mode" and dense.meta["route"] == "eigenbasis"
    # a damped coherent mode stays coherent with amplitude sqrt(eta)*7:
    # F_alpha = 49/eta and F_phi = 4*49*eta
    eta = 0.6
    for result in (per_mode, dense):
        assert result.bound("alpha_minus") == pytest.approx(math.sqrt(eta / 49.0), rel=1e-6)
        assert result.bound("phi_minus") == pytest.approx(0.5 / math.sqrt(49.0 * eta), rel=1e-6)
    for p in labels:
        assert per_mode.bound(p) == pytest.approx(dense.bound(p), rel=1e-9, abs=0)
