import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from chiral_qfim import channel, estimation, experiments, fock
from chiral_qfim.analytic import InputStateKind
from chiral_qfim.channel import (
    ALPHA_PHI_NAMES,
    CHIRAL_NAMES,
    ChiralParams,
    DomainError,
    ParamGrid,
    RatePicture,
    apply_channel_kraus,
    apply_channel_rk4,
    grid_loss_outputs,
    loss_output_slopes,
    loss_population_slope,
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
    hv_to_pm_amplitudes,
    hv_to_pm_state,
    mode_operators,
)
from chiral_qfim.linalg import real_if_exact
from oracles import (
    _population_transfer,
    finite_difference,
    kraus_loss,
    mode_output_and_alpha_derivative,
    noon_output_analytic,
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


@pytest.mark.parametrize("coordinate", range(4))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.1, 1.0])
def test_param_grid_messages_match_chiral_params(coordinate, value):
    coords = [0.05, 0.3, 0.4, 0.2]
    coords[coordinate] = value
    try:
        ChiralParams.from_chiral(*coords)
        expected = None
    except DomainError as exc:
        expected = str(exc)
    grid, errors = ParamGrid.from_chiral(*(np.array([c]) for c in coords))
    assert errors == [expected]
    assert len(grid) == (expected is None)


def test_param_grid_int_index_gives_the_one_point_grid():
    points = [ChiralParams(0.1, 0.2, 0.3, 0.4), ChiralParams(0.5, 0.6, -0.7), ChiralParams(0, 0.9)]
    grid = ParamGrid(points)
    for index, point in ((0, points[0]), (2, points[2]), (-1, points[2]), (np.int64(1), points[1])):
        one = grid[index]
        assert len(one) == 1
        for got, expected in zip(one.values("alpha_phi"), point.values("alpha_phi")):
            assert got.tolist() == [expected]
    with pytest.raises(IndexError):
        grid[3]
    # slices and masks keep their points
    assert grid[1:].alpha_plus.tolist() == [0.5, 0.0]
    assert grid[np.array([True, False, True])].phi_plus.tolist() == [0.3, 0.0]


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
    assert out[k20, k20] == pytest.approx(0.5)
    assert out[k02, k20] == pytest.approx(-0.5 * np.exp(2j * params.delta))
    # applying the channel to the projector gives the same matrix
    np.testing.assert_allclose(out, apply_channel_kraus(state, params).rho, atol=1e-14)


def test_noon_analytic_vacuum_weight():
    space = FockSpace(2, 2)
    out = noon_output_analytic(ChiralParams(0.5, 0.5, 0.0, 0.0), space)
    k00 = space.index(0, 0)
    assert out[k00, k00].real == pytest.approx(0.25)


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
                worst = max(worst, np.max(np.abs(direct - oracle.rho)))
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


@pytest.mark.parametrize("mode", ["plus", "minus"])
def test_alpha_derivative_matches_finite_difference(mode):
    params = ChiralParams(0.3, 0.45, 0.6, -0.3)
    space = FockSpace(2, 2)
    states = [hv_to_pm_state(NOON_HV, space), hv_to_pm_state(SINGLE_PHOTON_H, space)]
    cspace, _ = default_coherent_space(0.8, 0.5)
    states.append(coherent_product_state(cspace, 0.8, 0.5))
    name = f"alpha_{mode}"
    for state in states:
        exact = channel_derivatives(state, params, (name,))[1][0].drho
        approx, _ = finite_difference(state, params, name)
        assert np.max(np.abs(exact - approx)) <= 1e-8
        assert abs(np.trace(exact)) <= 1e-9
        assert np.max(np.abs(exact - exact.conj().T)) <= 1e-10


def test_alpha_derivative_at_zero_loss():
    params = ChiralParams(0.0, 0.2, 0.1, 0.0)
    space = FockSpace(2, 2)
    state = hv_to_pm_state(NOON_HV, space)
    output, derivs = channel_derivatives(state, params, ("alpha_plus",))
    approx, stencil = finite_difference(state, params, "alpha_plus")
    assert stencil == "forward"
    assert np.max(np.abs(derivs[0].drho - approx)) <= 1e-7
    np.testing.assert_array_equal(output.rho, apply_channel_kraus(state, params).rho)


def _count_kernel_calls(monkeypatch):
    """Record every call of the loss kernel, dense or per mode, as the
    tuple of its table's cutoffs, one per mode."""
    cutoffs = []
    kernel = channel.factored_loss_output

    def counting_kernel(factor_tables, spectra, owners, alpha):
        cutoffs.append(tuple(d - 1 for d in factor_tables.shape[1:-1]))
        return kernel(factor_tables, spectra, owners, alpha)

    for module in (channel, estimation):
        monkeypatch.setattr(module, "factored_loss_output", counting_kernel)
    return cutoffs


def _refuse_dense_propagation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the intensity route propagated the full density matrix")

    for module in (channel, estimation, experiments):
        if hasattr(module, "apply_channel_kraus"):
            monkeypatch.setattr(module, "apply_channel_kraus", refuse)
    monkeypatch.setattr(channel, "grid_loss_outputs", refuse)


def test_channel_derivatives_take_one_kernel_call_and_intensity_none(monkeypatch):
    cutoffs = _count_kernel_calls(monkeypatch)
    # one kernel call on the dense table of both modes, at their unequal cutoffs
    state = hv_to_pm_state(NOON_HV, FockSpace(2, 3))
    params = ChiralParams(0.3, 0.45, 0.6, -0.3)
    channel_derivatives(state, params, CHIRAL_NAMES)
    assert cutoffs == [(2, 3)]

    # the intensity moments follow from the input populations alone
    _refuse_dense_propagation(monkeypatch)
    cutoffs.clear()
    experiments._intensity_columns(state, ParamGrid([params]))
    experiments._intensity_moments(state, ParamGrid([params]))
    assert cutoffs == []


def test_sweep_takes_one_stacked_numeric_pass_and_no_intensity_kernel_call(monkeypatch):
    # unequal amplitudes give unequal cutoffs: the numeric route stacks both
    # modes at their common cutoff, and the intensity route calls no kernel
    kind = InputStateKind.coherent(1.0, 0.5j)
    space = experiments.prepare_input_state(kind).space
    assert space.cutoff_plus != space.cutoff_minus
    cutoffs = _count_kernel_calls(monkeypatch)
    for points in (2, 7, 95):
        spec = experiments.SweepSpec(
            input_state=kind,
            vary="x_s",
            start=0.01,
            stop=0.95,
            points=points,
            fixed={"x_d": 0.005},
            methods=(experiments.QFIM_NUMERIC, experiments.INTENSITY_EXACT),
        )
        cutoffs.clear()
        experiments.run_sweep(spec)
        assert cutoffs == [(max(space.cutoff_plus, space.cutoff_minus),)]

    # the intensity route propagates nothing, and serves both targets
    _refuse_dense_propagation(monkeypatch)
    spec = experiments.SweepSpec(
        input_state=InputStateKind.noon_hv(),
        vary="x_s",
        start=0.2,
        stop=0.6,
        points=5,
        fixed={"x_d": 0.05},
        methods=(experiments.INTENSITY_EXACT,),
    )
    cutoffs.clear()
    rows = experiments.run_sweep(spec)
    assert cutoffs == []
    for row in rows:
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


def transfer_by_columns(cutoff, alpha):
    """One mode's dense transfer matrix T (``oracles._population_transfer``),
    its ∂T/∂α by ``loss_population_slope`` column by column, each column
    being the output populations of a basis input, and the conditional
    means u[n] = Σ_m m T[m, n] at one absorption."""
    transfer = _population_transfer(cutoff, [alpha])[0][0]
    d_transfer = loss_population_slope(transfer, alpha, axis=0)
    return transfer, d_transfer, np.arange(cutoff + 1) @ transfer


@pytest.mark.parametrize("cutoff", [0, 1, 12, 70, 100])
@pytest.mark.parametrize("alpha", [0.0, 1e-9, 0.35, 0.999])
def test_loss_weights_match_binomial_formula(cutoff, alpha):
    # the population transfer T[m, m+k] is the diagonal W_k[m, m] of the loss map
    transfer, d_transfer, u = transfer_by_columns(cutoff, alpha)
    ref_w, ref_d = _loss_weights_by_comb(cutoff, alpha)
    rows, cols = np.triu_indices(cutoff + 1)
    expected, d_expected = np.zeros_like(transfer), np.zeros_like(d_transfer)
    expected[rows, cols] = ref_w[cols - rows, rows, rows]
    d_expected[rows, cols] = ref_d[cols - rows, rows, rows]
    # relative to the largest entry, so underflowed tails do not matter
    assert np.max(np.abs(transfer - expected)) <= 1e-14 * np.max(np.abs(expected))
    assert np.max(np.abs(d_transfer - d_expected)) <= 1e-14 * np.max(np.abs(d_expected))
    np.testing.assert_allclose(transfer.sum(axis=0), 1.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(d_transfer.sum(axis=0), 0.0, rtol=0, atol=1e-13)
    # u[n] = Σ_m m T[m, n] is the binomial mean n η that the intensity
    # moments take for each level's conditional mean
    np.testing.assert_allclose(u, np.arange(cutoff + 1) * (1.0 - alpha), rtol=1e-13, atol=0)


@pytest.mark.parametrize("cutoff", [1, 2, 12, 70])
def test_the_loss_slope_of_the_output_populations_is_the_transfer_slope(cutoff):
    # dT[m, n]/dα = ((m + 1) T[m + 1, n] − m T[m, n])/η: the output
    # populations give their own slope, on a mode or along either mode of a
    # joint population array, against ∂T/∂α formed as a dense matrix
    rng = np.random.default_rng(cutoff)
    inputs = [*np.eye(cutoff + 1)[[0, cutoff // 2, cutoff]], rng.random(cutoff + 1)]
    alphas = np.array([0.0, 1e-300, 1e-13, 0.3, 0.999, 1.0 - 1e-6])
    transfer, d_transfer = _population_transfer(cutoff, alphas)
    for q in inputs:
        p, d_p = transfer @ q, d_transfer @ q
        slope = loss_population_slope(p, alphas[:, None])
        assert np.max(np.abs(slope - d_p)) <= 1e-14 * np.max(np.abs(d_p))
        # both modes read q at the same absorption
        joint = p[:, :, None] * p[:, None, :]
        for axis, expected in ((1, d_p[:, :, None] * p[:, None]), (2, p[:, :, None] * d_p[:, None])):
            along = loss_population_slope(joint, alphas[:, None, None], axis=axis)
            assert np.max(np.abs(along - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_loss_weight_cache_holds_only_small_tables():
    cache = channel._root_binomials
    cache.cache_clear()
    for cutoff, alpha in ((100, 0.3), (12, 0.3), (12, 0.7)):
        results = mode_output_and_alpha_derivative(np.eye(cutoff + 1) / (cutoff + 1), alpha)
        assert all(result.shape == (cutoff + 1, cutoff + 1) for result in results)
    # one entry per cutoff, whatever the alpha
    assert cache.cache_info().currsize == 2
    cached = cache(100) + cache(12)
    assert sum(table.nbytes for table in cached) < 1_000_000


def test_max_loss_cutoff_is_the_largest_whose_binomials_fit_a_float64():
    # the largest binomial of a cutoff's tables, C(cutoff, cutoff // 2) <
    # 2^cutoff, fits while the cutoff is at most float64's largest binary
    # exponent, so the search steps up from there to the first that overflows
    cutoff = sys.float_info.max_exp
    while True:
        try:
            float(math.comb(cutoff + 1, (cutoff + 1) // 2))
        except OverflowError:
            break
        cutoff += 1
    assert cutoff == fock.MAX_LOSS_CUTOFF == 1029
    assert math.isfinite(float(math.comb(1029, 514)))
    with pytest.raises(OverflowError):
        float(math.comb(1030, 515))


def test_loss_tables_refuse_a_cutoff_past_float64_before_building(monkeypatch):
    limit = fock.MAX_LOSS_CUTOFF
    # the binomials are built as running sums: none is summed before the refusal
    sums, accumulate = [], itertools.accumulate
    monkeypatch.setattr(itertools, "accumulate", lambda row: sums.append(row) or accumulate(row))
    with pytest.raises(OverflowError, match=f"cutoff {limit + 1} exceeds {limit}"):
        fock._root_binomials(limit + 1)
    assert sums == []
    fock._root_binomials.cache_clear()
    fock._root_binomials(3)
    assert len(sums) == 4  # the spy sees the rows of a table that is built
    monkeypatch.undo()
    # below the limit each entry is still √C(m+k, k), rounded once
    root, k, half_k = fock._root_binomials(80)
    exact = [[math.comb(i + j, j) if i + j <= 80 else 0 for i in range(81)] for j in range(81)]
    assert np.array_equal(root, np.sqrt(np.array(exact, dtype=float)))
    assert np.array_equal(k, np.arange(81)) and np.array_equal(half_k, np.arange(81) / 2)


def test_dense_route_makes_no_cutoff_fold_copy():
    space = FockSpace(24, 24)
    product = coherent_product_state(space, 1.5, 0.8 + 0.3j, truncation_budget=1e-6)
    state = TwoModeState(space, product.rho, trace_deficit_budget=product.trace_deficit_budget)
    tracemalloc.start()
    try:
        grid_loss_outputs(state, [0.3], [0.4])
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
    name = f"phi_{mode}"
    exact = channel_derivatives(state, params, (name,))[1][0].drho
    approx, _ = finite_difference(state, params, name)
    assert np.max(np.abs(exact - approx)) <= 1e-8
    assert abs(np.trace(exact)) <= 1e-12


@pytest.mark.parametrize("alpha_plus", [0.0, 0.35])
def test_single_mode_kernel_factors_the_two_mode_engine(alpha_plus):
    params = ChiralParams(alpha_plus, 0.45)
    for state in (
        coherent_product_state(default_coherent_space(0.8, 0.5j)[0], 0.8, 0.5j),
        fock_product_state(FockSpace(2, 3), 2, 1),
    ):
        rho_plus, rho_minus = state.factors
        out_plus, d_plus = mode_output_and_alpha_derivative(rho_plus, params.alpha_plus)
        out_minus, d_minus = mode_output_and_alpha_derivative(rho_minus, params.alpha_minus)
        joint = grid_loss_outputs(state, [params.alpha_plus], [params.alpha_minus])
        exact_plus, exact_minus = loss_output_slopes(
            joint, ([params.alpha_plus], [params.alpha_minus]), state.space
        )
        assert np.max(np.abs(np.kron(out_plus, out_minus) - joint[0])) <= 1e-15
        assert np.max(np.abs(np.kron(d_plus, out_minus) - exact_plus[0])) <= 1e-14
        assert np.max(np.abs(np.kron(out_plus, d_minus) - exact_minus[0])) <= 1e-14


def _probe(amp_h, amp_v):
    amp_plus, amp_minus = hv_to_pm_amplitudes(amp_h, amp_v)
    space, budget = default_coherent_space(amp_plus, amp_minus)
    return coherent_product_state(space, amp_plus, amp_minus, truncation_budget=budget)


def _random_factor(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _indefinite_factor(rng, d):
    """A Hermitian unit-trace factor with negative eigenvalues."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (a + a.conj().T) / 2
    h += (1.0 - np.trace(h).real) / d * np.eye(d)
    assert np.linalg.eigvalsh(h)[0] < 0 < np.linalg.eigvalsh(h)[-1]
    return h


def _kernel_inputs():
    rng = np.random.default_rng(11)
    mixed = TwoModeState(
        FockSpace(5, 4), factors=(_random_factor(rng, 6), _indefinite_factor(rng, 5))
    )
    return {
        "coherent-h": _probe(math.sqrt(2.0), 0.0),
        "elliptical": _probe(math.sqrt(2.0), 0.5j * math.sqrt(2.0)),
        "circular": _probe(math.sqrt(2.0), 1j * math.sqrt(2.0)),
        "fock-2-1": fock_product_state(FockSpace(2, 3), 2, 1),
        "mixed-indefinite": mixed,
    }


KERNEL_EDGE_ALPHAS = (0.0, 1e-300, 1e-13, 0.35, 0.999, 1 - 1e-6)


@pytest.mark.parametrize("name", list(_kernel_inputs()))
def test_factored_kernel_matches_the_two_mode_engine_on_every_input_kind(name):
    # the product route's kernel, on each mode's factor, against the Kraus
    # loop over the Kronecker product
    state = _kernel_inputs()[name]
    rho_plus, rho_minus = state.factors
    alphas = np.array(KERNEL_EDGE_ALPHAS)
    out_plus, d_plus = mode_output_and_alpha_derivative(rho_plus, alphas)
    out_minus, d_minus = mode_output_and_alpha_derivative(rho_minus, alphas[::-1])
    # on the scale of each matrix, since at 1 − 1e-6 the slope's 1/η takes
    # ∂/∂α to entries near 1e3.  Factoring costs the output a few ulps: the
    # eigh reconstruction W S W† of the indefinite factor alone is 1.1e-15
    # from it, where the loop reads the input's own entries
    for b, point in enumerate(zip(alphas, alphas[::-1])):
        joint, exact_plus, exact_minus = kraus_loss(state.rho, state.space, *point)
        for factored, exact, tol in (
            (np.kron(out_plus[b], out_minus[b]), joint, 2e-15),
            (np.kron(d_plus[b], out_minus[b]), exact_plus, 1e-14),
            (np.kron(out_plus[b], d_minus[b]), exact_minus, 1e-14),
        ):
            scale = max(1.0, np.max(np.abs(exact)))
            assert np.max(np.abs(factored - exact)) <= tol * scale


@pytest.mark.parametrize("amp", [7.0, 3.5 + 3.5j], ids=["real", "complex"])
def test_a_stacked_kernel_call_holds_no_cube(amp):
    # 16 absorptions at cutoff 100: one (cutoff+1)^3 cube per absorption
    # would be 8 MB each in real storage.  The kernel holds a fixed count of
    # (16, 101, 101) arrays besides its two results, 4 MB per 8 bytes of entry
    factor = coherent_product_state(FockSpace(0, 100), 0.0, amp).factors[1]
    tracemalloc.start()
    try:
        out, d_out = mode_output_and_alpha_derivative(factor, np.linspace(0.0, 0.9, 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == d_out.shape == (16, 101, 101)
    assert peak < out.nbytes + d_out.nbytes + 4e6 * out.itemsize / 8


@pytest.mark.parametrize("alpha", [0.0, 1e-9, 0.35, 0.999])
def test_population_transfer_is_the_diagonal_of_the_loss_map(alpha):
    pops = np.random.default_rng(5).random(6)
    out, d_out = mode_output_and_alpha_derivative(np.diag(pops), alpha)
    transfer, d_transfer, _ = transfer_by_columns(5, alpha)
    np.testing.assert_allclose(transfer @ pops, np.diag(out), rtol=0, atol=1e-14)
    np.testing.assert_allclose(d_transfer @ pops, np.diag(d_out), rtol=0, atol=1e-14)
    d_p = loss_population_slope(np.diag(out), alpha)
    np.testing.assert_allclose(d_p, np.diag(d_out), rtol=0, atol=1e-14)


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


# ---------------------------------------------------------------------------
# output blocks: the sectors loss keeps apart, from the input pattern alone
# ---------------------------------------------------------------------------


def walked_output_blocks(state):
    """Reference blocks: every output entry that each nonzero input entry
    reaches under each (k, l) loss shift, then a graph walk over the levels."""
    dp, dm = state.space.cutoff_plus + 1, state.space.cutoff_minus + 1
    neighbours = {}
    for a, b, c, d in zip(*np.nonzero(state.rho.reshape(dp, dm, dp, dm))):
        for k in range(min(a, c) + 1):
            for l in range(min(b, d) + 1):
                ket, bra = (a - k) * dm + b - l, (c - k) * dm + d - l
                neighbours.setdefault(ket, set()).add(bra)
                neighbours.setdefault(bra, set()).add(ket)
    seen, blocks = set(), []
    for start in sorted(neighbours):
        if start not in seen:
            stack, block = [start], set()
            while stack:
                level = stack.pop()
                if level not in block:
                    block.add(level)
                    stack.extend(neighbours[level] - block)
            seen |= block
            blocks.append(tuple(sorted(block)))
    return tuple(blocks)


def sparse_mixture(rng, space, terms):
    """A mixture of ``terms`` random pure states, each on two or three levels."""
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    for _ in range(terms):
        psi = np.zeros(space.dim, dtype=complex)
        levels = rng.choice(space.dim, size=min(space.dim, rng.integers(2, 4)), replace=False)
        psi[levels] = rng.standard_normal(len(levels)) + 1j * rng.standard_normal(len(levels))
        rho += np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    return TwoModeState(space, rho / terms, label="sparse mixture")


def test_output_blocks_of_the_quantum_inputs():
    noon = hv_to_pm_state(NOON_HV, FockSpace(2, 2))
    # |0,0⟩, |0,1⟩, the (|0,2⟩, |2,0⟩) coherence, |1,0⟩; the levels (1,1),
    # (1,2), (2,1), (2,2) are never populated
    assert noon.output_blocks.blocks == ((0,), (1,), (2, 6), (3,))
    single = hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1))
    assert single.output_blocks.blocks == ((0,), (1, 2))
    assert hv_to_pm_state(NOON_HV, FockSpace(4, 3)).output_blocks.blocks == (
        (0,), (1,), (2, 8), (4,),
    )


def test_a_dense_coherent_input_is_one_block():
    product = coherent_product_state(FockSpace(6, 4), 1.1, 0.6 - 0.5j, truncation_budget=1e-2)
    state = TwoModeState(product.space, product.rho, trace_deficit_budget=4e-2)
    assert state.output_blocks.blocks == (tuple(range(state.space.dim)),)
    # an empty mode leaves its excited levels out of every output
    vacuum_minus = coherent_product_state(FockSpace(6, 4), 1.1, 0.0, truncation_budget=1e-2)
    state = TwoModeState(vacuum_minus.space, vacuum_minus.rho, trace_deficit_budget=2e-2)
    assert state.output_blocks.blocks == (tuple(range(0, state.space.dim, 5)),)


@pytest.mark.parametrize("cutoffs", [(1, 1), (2, 3), (3, 2), (4, 4), (6, 1)])
def test_output_blocks_equal_the_walked_reachable_pattern(cutoffs):
    rng = np.random.default_rng(sum(cutoffs))
    space = FockSpace(*cutoffs)
    for terms in (1, 2, 3, 5, 8) * 4:
        state = sparse_mixture(rng, space, terms)
        assert state.output_blocks.blocks == walked_output_blocks(state)
        # a Hermitian input need not hold the populations of the levels it couples
        upper = np.triu(state.rho * rng.integers(0, 2, state.rho.shape), 1)
        rho = upper + upper.conj().T
        rho[0, 0] = 1.0
        hermitian = TwoModeState(space, rho, label="hermitian")
        assert hermitian.output_blocks.blocks == walked_output_blocks(hermitian)
    assert random_density(rng, space).output_blocks.blocks == (tuple(range(space.dim)),)


def test_output_blocks_hold_every_output_of_the_grid():
    # this mixture's eigenvectors leave the kernel up to 9e-14 of rounding
    # outside its output blocks, which the one-point outputs must not keep
    mixture = sparse_mixture(np.random.default_rng(2), FockSpace(3, 2), 3)
    states = [
        hv_to_pm_state(NOON_HV, FockSpace(2, 2)),
        hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(2, 1)),
        mixture,
    ]
    alphas = np.array((0.0, 1e-300, 0.3, 1 - 1e-6))
    alpha_plus, alpha_minus = np.repeat(alphas, 4), np.tile(alphas, 4)
    for state in states:
        blocks = state.output_blocks.blocks
        inside = np.zeros((state.space.dim, state.space.dim), dtype=bool)
        for block in blocks:
            inside[np.ix_(block, block)] = True
        assert not inside.all()
        output = grid_loss_outputs(state, alpha_plus, alpha_minus)
        raw = (output, *loss_output_slopes(output, (alpha_plus, alpha_minus), state.space))
        if state is mixture:
            assert max(np.max(np.abs(stack[:, ~inside])) for stack in raw) > 1e-14
        else:
            # a rank-1 input's block factors exactly: the grid route itself
            # writes nothing outside its blocks
            for stack in raw:
                assert not stack[:, ~inside].any()
        for a, b in zip(alpha_plus.tolist(), alpha_minus.tolist()):
            params = ChiralParams(a, b, 0.4, -0.7)
            output, derivs = channel_derivatives(state, params, ALPHA_PHI_NAMES)
            kraus = apply_channel_kraus(state, params).rho
            for matrix in (kraus, output.rho, *(d.drho for d in derivs)):
                assert not matrix[~inside].any()


def _dense_inputs():
    rng = np.random.default_rng(7)
    return {
        "noon-2-2": hv_to_pm_state(NOON_HV, FockSpace(2, 2)),
        "noon-4-3": hv_to_pm_state(NOON_HV, FockSpace(4, 3)),
        "single-photon-1-1": hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1)),
        "single-photon-2-1": hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(2, 1)),
        "sparse-mixture": sparse_mixture(rng, FockSpace(3, 2), 3),
        "full-rank": random_density(rng, FockSpace(3, 2)),
        "noon-3-3": hv_to_pm_state(NOON_HV, FockSpace(3, 3)),
        "single-photon-3-3": hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(3, 3)),
        "photon-pair-3-3": TwoModeState(
            FockSpace(3, 3), fock_product_state(FockSpace(3, 3), 1, 1).rho
        ),
        "random-pure-3-3": random_pure(rng, FockSpace(3, 3)),
    }


def random_pure(rng, space):
    psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return TwoModeState(space, np.outer(psi, psi.conj()) / np.vdot(psi, psi).real, label="pure")


# the absorptions at which ∂ρ/∂α = L(ρ)/η is checked against the Kraus loop,
# and with them the edge grid of the kernel tests
LOSS_GENERATOR_ALPHAS = (0.0, 1e-300, 1e-13, 1e-6, 0.3, 0.999, 1 - 1e-6)
DENSE_EDGE_ALPHAS = tuple(sorted({*LOSS_GENERATOR_ALPHAS, *KERNEL_EDGE_ALPHAS}))


@pytest.mark.parametrize("name", list(_dense_inputs()))
def test_dense_route_matches_the_kraus_loop(name):
    # the kernel on the state's table of both modes, and ∂ρ/∂α± = L±(ρ)/η±
    # of each output, over the edge grid of absorption pairs, against the
    # Kraus loop on the input's own entries
    state = _dense_inputs()[name]
    alphas = np.array(DENSE_EDGE_ALPHAS)
    alpha_plus, alpha_minus = np.repeat(alphas, len(alphas)), np.tile(alphas, len(alphas))
    output = grid_loss_outputs(state, alpha_plus, alpha_minus)
    slopes = loss_output_slopes(output, (alpha_plus, alpha_minus), state.space)
    # the rank-1 probes stay within an ulp or two; a mixed input's eigh
    # reconstruction costs its output a few ulps, as in the product route
    mixed = name in ("sparse-mixture", "full-rank")
    tols = (2e-15, 1e-14, 1e-14) if mixed else (1e-15,) * 3
    for b, point in enumerate(zip(alpha_plus, alpha_minus)):
        references = kraus_loss(state.rho, state.space, *point)
        for result, reference, tol in zip((output, *slopes), references, tols):
            scale = max(1.0, np.max(np.abs(reference)))
            assert np.max(np.abs(result[b] - reference)) <= tol * scale
        # each ∂ρ/∂α within 1e-14 of its own largest entry
        for slope, reference in zip(slopes, references[1:]):
            assert np.max(np.abs(slope[b] - reference)) <= 1e-14 * np.max(np.abs(reference))
    # on the diagonal the matrix slope is the slope of the populations, to the bit
    levels = (state.space.cutoff_plus + 1, state.space.cutoff_minus + 1)
    p = output.diagonal(0, 1, 2).reshape(len(output), *levels)
    for axis, (slope, alpha) in enumerate(zip(slopes, (alpha_plus, alpha_minus)), 1):
        populations = loss_population_slope(p, alpha[:, None, None], axis)
        assert np.array_equal(slope.diagonal(0, 1, 2).reshape(p.shape), populations)


@pytest.mark.parametrize("n0", [1, 4, 60, 400])
def test_the_loss_slope_of_a_coherent_mode_is_the_kraus_derivative(n0):
    # ∂ρ/∂α = L(ρ)/η of each output of one coherent mode, at cutoffs 12 to
    # 534, against the Kraus loop's derivative of its weights.  Near the
    # photon-number peak the two terms of L(ρ), each about n̄ρ, cancel to
    # about √n̄ρ, so the output's rounding reaches ∂ρ/∂α as about √n̄ ulps of
    # max|∂ρ| on either side: at n0 = 400, α = 0.3 a 40-digit sum puts the
    # slope 5.4e-14 and the Kraus loop 2.0e-14 of max|∂ρ| from the exact value
    space, budget = default_coherent_space(math.sqrt(n0), 0.0)
    state = coherent_product_state(space, math.sqrt(n0), 0.0, truncation_budget=budget)
    factor = real_if_exact(state.factors[0])
    alphas = np.array(LOSS_GENERATOR_ALPHAS)
    out, d_out = mode_output_and_alpha_derivative(factor, alphas)
    tol = 1e-14 * max(1.0, math.sqrt(n0) / 2.0)
    for b, alpha in enumerate(alphas):
        reference = kraus_loss(factor, space, alpha, 0.0)[1]
        assert np.max(np.abs(d_out[b] - reference)) <= tol * np.max(np.abs(reference))
    # on the diagonal the matrix slope is the slope of the populations, to the bit
    p = out.diagonal(0, 1, 2)
    assert np.array_equal(d_out.diagonal(0, 1, 2), loss_population_slope(p, alphas[:, None]))


@pytest.mark.parametrize("name", list(_dense_inputs()))
def test_a_dense_state_factors_its_input_once_block_by_block(name):
    state = _dense_inputs()[name]
    tables, spectra = state.kraus_tables
    assert state.kraus_tables[0] is tables and state.kraus_tables[1] is spectra
    assert not tables.flags.writeable and not spectra.flags.writeable
    assert tables.dtype == real_if_exact(state.rho).dtype
    dp, dm, dim = state.space.cutoff_plus + 1, state.space.cutoff_minus + 1, state.space.dim
    rank = spectra.shape[-1]
    assert tables.shape == (1, dp, dm, dim * rank)
    # the (k, l) = (0, 0) columns are the eigenvectors, each on one block's levels
    w = tables.reshape(dim, dim, rank)[:, 0]
    rebuilt = (spectra[0] * w) @ w.conj().T
    assert np.max(np.abs(rebuilt - state.rho)) <= 1e-15 * dim
    blocks = [set(block) for block in state.output_blocks.blocks]
    for vector in w.T:
        assert any(set(np.flatnonzero(vector).tolist()) <= block for block in blocks)


@pytest.mark.parametrize("alpha_plus", KERNEL_EDGE_ALPHAS)
def test_the_kraus_loop_gives_the_noon_closed_form(alpha_plus):
    # the reference loop itself, against the closed-form NOON output
    space = FockSpace(2, 3)
    state = hv_to_pm_state(NOON_HV, space)
    for alpha_minus in KERNEL_EDGE_ALPHAS:
        output = kraus_loss(state.rho, space, alpha_plus, alpha_minus)[0]
        closed = noon_output_analytic(ChiralParams(alpha_plus, alpha_minus), space)
        assert np.max(np.abs(output - closed)) <= 1e-15
