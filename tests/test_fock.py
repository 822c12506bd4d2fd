import math

import numpy as np
import pytest

from chiral_qfim.fock import (
    NOON_HV,
    SINGLE_PHOTON_H,
    FockSpace,
    StateValidationError,
    TruncationError,
    TwoModeState,
    coherent_product_state,
    default_coherent_space,
    fock_product_state,
    hv_to_pm_amplitudes,
    hv_to_pm_state,
    min_cutoff_for_tail,
    mode_operators,
    poisson_tail,
)
from chiral_qfim.linalg import NonHermitianError, commutator


def basis_vector(space, n_plus, n_minus):
    v = np.zeros(space.dim, dtype=complex)
    v[space.index(n_plus, n_minus)] = 1.0
    return v


def test_index_bijection():
    space = FockSpace(3, 2)
    assert space.dim == 12
    for k in range(space.dim):
        n_plus, n_minus = space.occupations(k)
        assert space.index(n_plus, n_minus) == k
        assert k == n_plus * (space.cutoff_minus + 1) + n_minus


def test_index_out_of_range():
    space = FockSpace(1, 1)
    with pytest.raises(TruncationError):
        space.index(2, 0)


def test_space_rejects_negative_cutoff():
    with pytest.raises(ValueError):
        FockSpace(-1, 2)


def test_number_operator_cutoff_one():
    ops = mode_operators(FockSpace(1, 1))
    np.testing.assert_allclose(ops.n_plus, np.diag([0.0, 0, 1, 1]), atol=0)
    np.testing.assert_allclose(ops.n_minus, np.diag([0.0, 1, 0, 1]), atol=0)


def test_annihilation_lowers_single_photon():
    space = FockSpace(1, 1)
    ops = mode_operators(space)
    out = ops.a_plus @ basis_vector(space, 1, 0)
    np.testing.assert_allclose(out, basis_vector(space, 0, 0), atol=0)


def test_cross_mode_operators_commute():
    ops = mode_operators(FockSpace(2, 2))
    assert np.max(np.abs(commutator(ops.a_plus, ops.a_minus_dag))) == 0.0


def test_ladder_commutator_defect_location():
    space = FockSpace(2, 1)
    ops = mode_operators(space)
    c = commutator(ops.a_plus, ops.a_plus_dag)
    expected = np.eye(space.dim, dtype=complex)
    for n_minus in range(space.cutoff_minus + 1):
        k = space.index(space.cutoff_plus, n_minus)
        expected[k, k] = -space.cutoff_plus
    np.testing.assert_allclose(c, expected, atol=1e-13)


def test_number_grids_match_index_map():
    space = FockSpace(2, 3)
    n_plus, n_minus = space.number_grids()
    for k in range(space.dim):
        assert (n_plus[k], n_minus[k]) == space.occupations(k)


def test_coherent_vacuum():
    space = FockSpace(2, 2)
    state = coherent_product_state(space, 0.0, 0.0)
    expected = np.zeros((space.dim, space.dim), dtype=complex)
    expected[space.index(0, 0), space.index(0, 0)] = 1.0
    np.testing.assert_allclose(state.rho, expected, atol=0)


def test_coherent_mean_photon_number():
    space, _ = default_coherent_space(0.6, 0.0)
    state = coherent_product_state(space, 0.6, 0.0)
    ops = mode_operators(space)
    assert abs(state.expectation(ops.n_plus).real - 0.36) <= 1e-9
    assert abs(state.expectation(ops.n_minus).real) <= 1e-12


def test_hv_coherent_amplitude_mapping():
    amp_plus, amp_minus = hv_to_pm_amplitudes(0.8, 0.0)
    assert amp_plus == pytest.approx(0.8 / math.sqrt(2))
    assert amp_minus == pytest.approx(0.8 / math.sqrt(2))
    # the map preserves total intensity for any H/V amplitudes
    a, b = 0.3 - 0.2j, 1.1 + 0.4j
    p, m = hv_to_pm_amplitudes(a, b)
    assert abs(p) ** 2 + abs(m) ** 2 == pytest.approx(abs(a) ** 2 + abs(b) ** 2)


def test_hv_single_photon_map_is_unitary():
    # images of |1_H> and |1_V> stay orthonormal
    h_image = np.array([1.0, 1.0]) / math.sqrt(2)
    v_image = np.array([1.0j, -1.0j]) / math.sqrt(2)
    assert abs(np.vdot(h_image, h_image) - 1) <= 1e-15
    assert abs(np.vdot(v_image, v_image) - 1) <= 1e-15
    assert abs(np.vdot(h_image, v_image)) <= 1e-15


def test_single_photon_h_entries():
    space = FockSpace(2, 2)
    state = hv_to_pm_state(SINGLE_PHOTON_H, space)
    k10, k01 = space.index(1, 0), space.index(0, 1)
    for i in (k10, k01):
        for j in (k10, k01):
            assert state.rho[i, j] == pytest.approx(0.5)
    assert state.trace() == pytest.approx(1.0, abs=1e-15)
    purity = np.trace(state.rho @ state.rho).real
    assert abs(purity - 1.0) <= 1e-12


def test_noon_entries():
    space = FockSpace(2, 2)
    state = hv_to_pm_state(NOON_HV, space)
    k20, k02 = space.index(2, 0), space.index(0, 2)
    assert state.rho[k20, k02] == pytest.approx(-0.5)
    assert state.rho[k20, k20] == pytest.approx(0.5)
    purity = np.trace(state.rho @ state.rho).real
    assert abs(purity - 1.0) <= 1e-12


def test_hv_state_insufficient_cutoff():
    with pytest.raises(TruncationError):
        hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(0, 1))
    with pytest.raises(TruncationError):
        hv_to_pm_state(NOON_HV, FockSpace(2, 1))
    with pytest.raises(ValueError):
        hv_to_pm_state("circular", FockSpace(2, 2))


def test_fock_product_state():
    space = FockSpace(2, 2)
    vac = fock_product_state(space, 0, 0)
    assert vac.rho[space.index(0, 0), space.index(0, 0)] == 1.0
    one_one = fock_product_state(space, 1, 1)
    assert np.count_nonzero(one_one.rho) == 1
    ops = mode_operators(space)
    assert one_one.expectation(ops.n_plus).real == pytest.approx(1.0)
    assert one_one.expectation(ops.n_minus).real == pytest.approx(1.0)


def test_poisson_tail_matches_complement():
    mean, cutoff = 2.0, 12
    head = sum(
        math.exp(-mean) * mean**k / math.factorial(k) for k in range(cutoff + 1)
    )
    assert poisson_tail(mean, cutoff) == pytest.approx(1.0 - head, abs=1e-15)
    assert poisson_tail(0.0, 0) == 0.0


def test_min_cutoff_for_tail_is_tight():
    mean, budget = 1.0, 1e-10
    c = min_cutoff_for_tail(mean, budget)
    assert poisson_tail(mean, c) <= budget < poisson_tail(mean, c - 1)
    # the smallest cutoff within budget, as a cutoff-by-cutoff search finds it
    means = [0.0, 1e-6, 0.01, 0.5, 2.0, 4.5, 8.0, 32.0, 333.3, *range(50, 1001, 50)]
    for mean in means:
        for budget in (10.0**-e for e in range(2, 17)):
            c = min_cutoff_for_tail(mean, budget)
            assert poisson_tail(mean, c) <= budget
            assert c == 0 or poisson_tail(mean, c - 1) > budget


def test_coherent_truncation_error_reports_required_cutoff():
    space = FockSpace(2, 2)
    with pytest.raises(TruncationError) as err:
        coherent_product_state(space, 1.5, 0.0)
    needed = min_cutoff_for_tail(1.5**2, 1e-10)
    assert str(needed) in str(err.value)


def test_default_coherent_space_cap_relaxes_budget():
    space, effective = default_coherent_space(2.0, 2.0, budget=1e-10, cap=12)
    assert space.cutoff_plus == 12 and space.cutoff_minus == 12
    assert effective > 1e-10
    assert effective == pytest.approx(poisson_tail(4.0, 12))
    # uncapped request honors the budget exactly
    space2, eff2 = default_coherent_space(2.0, 0.0, budget=1e-10, cap=None)
    assert eff2 == 1e-10
    assert poisson_tail(4.0, space2.cutoff_plus) <= 1e-10


def test_product_state_holds_only_its_factors():
    space = FockSpace(2, 3)
    state = coherent_product_state(space, 0.3, 0.2j, truncation_budget=1e-2)
    assert "rho" not in vars(state)
    assert state.trace() == pytest.approx(np.trace(np.kron(*state.factors)).real, abs=1e-15)
    # the dense route reads rho, which is formed once from the factors
    np.testing.assert_array_equal(state.rho, np.kron(*state.factors))
    assert vars(state)["rho"] is state.rho
    fock = fock_product_state(space, 2, 1)
    assert "rho" not in vars(fock)
    k = space.index(2, 1)
    assert np.count_nonzero(fock.rho) == 1 and fock.rho[k, k] == 1.0


def test_product_factors_are_checked_like_rho():
    space = FockSpace(1, 1)
    vacuum = np.diag([1.0, 0.0])
    with pytest.raises(StateValidationError, match="shape"):
        TwoModeState(space, factors=(vacuum, np.eye(3) / 3))
    with pytest.raises(NonHermitianError):
        TwoModeState(space, factors=(vacuum, np.array([[1.0, 1.0], [0.0, 0.0]])))
    with pytest.raises(StateValidationError, match="trace"):
        TwoModeState(space, factors=(vacuum, vacuum * 0.5))
    with pytest.raises(StateValidationError, match="either"):
        TwoModeState(space)
    with pytest.raises(StateValidationError, match="either"):
        TwoModeState(space, np.kron(vacuum, vacuum), factors=(vacuum, vacuum))


def test_state_validation_rejects_bad_inputs():
    space = FockSpace(1, 1)
    good = np.zeros((4, 4), dtype=complex)
    good[0, 0] = 1.0
    with pytest.raises(StateValidationError):
        TwoModeState(space=space, rho=np.eye(3, dtype=complex) / 3)
    with pytest.raises(NonHermitianError):
        bad = good.copy()
        bad[0, 1] = 1.0
        TwoModeState(space=space, rho=bad)
    with pytest.raises(StateValidationError):
        TwoModeState(space=space, rho=good * 0.5)
    with pytest.raises(StateValidationError):
        TwoModeState(space=space, rho=good * 1.5)


def test_coherent_state_rejects_nan_amplitude():
    # the TwoModeState checks are the boundary that catches this
    with pytest.raises(ValueError, match="NaN or Inf"):
        coherent_product_state(FockSpace(10, 10), complex("nan"), 0.5)
    with pytest.raises(ValueError, match="NaN or Inf"):
        coherent_product_state(FockSpace(10, 10), 0.5, complex(0.0, float("nan")))


def test_validate_psd_flags_negative_eigenvalue():
    space = FockSpace(1, 0)
    rho = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
    state = TwoModeState(space=space, rho=rho)
    with pytest.raises(StateValidationError):
        state.validate_psd()
