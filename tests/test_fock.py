import math

import numpy as np
import pytest

from chiral_qfim import fock
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
    mode_factor_tables,
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


def test_poisson_tail_of_a_bright_mean_below_its_cutoff():
    # the first tail term, p_11 at mean 800, underflows; the tail is all of the mass
    assert poisson_tail(800.0, 10) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(TruncationError, match="cutoff >= 534 required"):
        coherent_product_state(FockSpace(10, 10), 20.0, 20.0j)


def test_poisson_tail_of_a_bright_mean_stays_a_probability():
    # each term's log-space rounding carried these sums a few ulps past 1
    for cutoff in range(6):
        assert 1.0 - 1e-11 < poisson_tail(40.0, cutoff) <= 1.0
    # the mean and cutoffs of the ulp-budget test whose tails summed to
    # 1.0000000000000342: the tails read 1, and the six budgets of that test
    # at those tails, 1 + a few ulps, stay refused
    mean = 208.10959349020408
    for cutoff in (58, 69):
        tail = poisson_tail(mean, cutoff)
        assert tail == 1.0
        for budget in (1.0000000000000342, 1.000000000000034, 1.000000000000034):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\)"):
                min_cutoff_for_tail(mean, budget)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\)"):
            min_cutoff_for_tail(mean, tail)


def test_bright_coherent_factor_keeps_its_weight():
    # e^{-|amp|^2/2} underflows at |amp|^2 = 1600, yet the state is whole
    budget = 1e-10
    cutoff = min_cutoff_for_tail(1600.0, budget)
    state = coherent_product_state(FockSpace(cutoff, 0), 40.0j, 0.0, truncation_budget=budget)
    assert 1.0 - budget <= state.trace() <= 1.0
    factor, n = state.factors[0], np.arange(cutoff + 1)
    assert np.diag(factor).real @ n == pytest.approx(1600.0, rel=1e-9)
    # adjacent levels keep the amplitude's phase: v_{n+1}/v_n = amp/sqrt(n+1)
    assert factor[1601, 1600] / factor[1600, 1600] == pytest.approx(40.0j / math.sqrt(1601))


def test_min_cutoff_for_tail_is_tight():
    mean, budget = 1.0, 1e-10
    c = min_cutoff_for_tail(mean, budget)
    assert poisson_tail(mean, c) <= budget < poisson_tail(mean, c - 1)
    # the smallest cutoff within budget, as a cutoff-by-cutoff search finds it
    means = [0.0, 1e-6, 0.01, 0.5, 2.0, 4.5, 8.0, 32.0, 333.3, *range(50, 1001, 50)]
    for mean in means:
        for budget in (0.0, *(10.0**-e for e in range(2, 17))):
            c = min_cutoff_for_tail(mean, budget)
            assert poisson_tail(mean, c) <= budget
            assert c == 0 or poisson_tail(mean, c - 1) > budget


def test_min_cutoff_for_tail_agrees_with_poisson_tail_at_ulp_budgets():
    # budgets at a tail value and one ulp either side of it, where two
    # summation orders used to disagree: the cutoff returned must be the
    # one the tail itself accepts, and the state builder must take it
    rng = np.random.default_rng(2026)
    for amp in 10.0 ** rng.uniform(-1.5, 1.25, 150):
        mean = abs(amp) ** 2  # as the state builder forms it
        for c in rng.integers(0, int(mean + 8.0 * math.sqrt(mean)) + 10, 4).tolist():
            tail = poisson_tail(mean, c)
            for budget in (tail, math.nextafter(tail, 0.0), math.nextafter(tail, 1.0)):
                if budget <= 0.0:
                    continue
                if budget >= 1.0:
                    # a tail of 1 is no budget: a budget lies in [0, 1)
                    with pytest.raises(ValueError, match=r"must lie in \[0, 1\)"):
                        min_cutoff_for_tail(mean, budget)
                    continue
                k = min_cutoff_for_tail(mean, budget)
                assert poisson_tail(mean, k) <= budget
                assert k == 0 or budget < poisson_tail(mean, k - 1)
                taken = k, budget
        coherent_product_state(FockSpace(taken[0], 0), amp, 0.0, truncation_budget=taken[1])


@pytest.mark.parametrize("budget", [1.0, 1.5, math.inf, math.nan, -1e-300])
def test_a_budget_outside_the_tail_probabilities_is_refused_where_it_enters(budget):
    message = rf"truncation budget must lie in \[0, 1\), got {budget!r}"
    with pytest.raises(ValueError, match=message):
        min_cutoff_for_tail(4.0, budget)
    with pytest.raises(ValueError, match=message):
        min_cutoff_for_tail(0.0, budget)
    with pytest.raises(ValueError, match=message):
        coherent_product_state(FockSpace(20, 20), 1.0, 1.0, truncation_budget=budget)
    with pytest.raises(ValueError, match=message):
        default_coherent_space(1.0, 1.0, budget=budget)


def test_coherent_cutoffs_of_the_presets_and_check_1_are_pinned():
    # (n0 -> cutoff per mode) of H-polarized probes at the default budget
    for n0, cutoff in ((1.0, 10), (2.0, 12), (4.0, 16), (9.0, 24), (60.0, 71)):
        space, _ = default_coherent_space(*hv_to_pm_amplitudes(math.sqrt(n0), 0.0))
        assert (space.cutoff_plus, space.cutoff_minus) == (cutoff, cutoff)


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


def _count_calls(monkeypatch, *names) -> dict:
    """The arguments of each call of the named ``fock`` functions."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(fock, name)

        def counting(*args, _name=name, _original=original):
            calls[_name].append(args)
            return _original(*args)

        monkeypatch.setattr(fock, name, counting)
    return calls


@pytest.mark.parametrize("amp_v", [0.0, 0.5, 0.5j], ids=["h", "elliptical-equal", "elliptical"])
def test_coherent_preparation_solves_each_distinct_mode_once(monkeypatch, amp_v):
    amp_plus, amp_minus = hv_to_pm_amplitudes(2.0, amp_v)
    distinct_means = len({abs(amp_plus) ** 2, abs(amp_minus) ** 2})
    reference_space, reference_budget = default_coherent_space(amp_plus, amp_minus)
    # each mode's factor built on its own, as two separate solves would
    cutoffs = (reference_space.cutoff_plus, reference_space.cutoff_minus)
    reference = TwoModeState(
        reference_space,
        factors=[fock._coherent_factor(*mode) for mode in zip((amp_plus, amp_minus), cutoffs)],
        trace_deficit_budget=2.0 * reference_budget,
    ).factors
    calls = _count_calls(monkeypatch, "min_cutoff_for_tail", "poisson_tail", "_coherent_factor")
    space, budget = default_coherent_space(amp_plus, amp_minus)
    assert (space, budget) == (reference_space, reference_budget)
    assert len(calls["min_cutoff_for_tail"]) == distinct_means
    state = coherent_product_state(space, amp_plus, amp_minus, truncation_budget=budget)
    # an H-polarized probe (equal amplitudes) checks one tail and builds one
    # factor; equal means alone share the tail check
    assert len(calls["poisson_tail"]) == distinct_means
    assert len(calls["_coherent_factor"]) == len({amp_plus, amp_minus})
    for factor, expected in zip(state.factors, reference, strict=True):
        assert factor.tobytes() == expected.tobytes()


def test_a_coherent_refusal_names_mode_plus_first():
    for amp_minus in (1.5, 1.5j, 3.0):
        with pytest.raises(TruncationError, match="^mode plus cutoff 2 "):
            coherent_product_state(FockSpace(2, 2), 1.5, amp_minus)
    with pytest.raises(TruncationError, match="^mode minus cutoff 2 "):
        coherent_product_state(FockSpace(20, 2), 1.5, 1.5)


def _builder_made_states():
    for n0 in (0.5, 1.0, 4.0, 9.0, 64.0):
        for amp_v in (0.0, 0.5j, 1j, 0.3 - 0.2j):
            amp_plus, amp_minus = hv_to_pm_amplitudes(math.sqrt(n0), amp_v * math.sqrt(n0))
            space, budget = default_coherent_space(amp_plus, amp_minus)
            yield coherent_product_state(space, amp_plus, amp_minus, truncation_budget=budget)
    space = FockSpace(3, 2)
    for n_plus in range(4):
        for n_minus in range(3):
            yield fock_product_state(space, n_plus, n_minus)


@pytest.mark.parametrize("cutoff", [0, 1, 67, 270, fock.MAX_LOSS_CUTOFF])
def test_loss_binomials_are_math_comb_rounded_once(cutoff):
    # each row of C(m+k, k) is the running sum of the row before, over exact
    # ints; every entry must be math.comb's, rounded to float once, and its
    # square root, with 0 past the cutoff.  At the largest cutoff, where all
    # of math.comb takes seconds, every 32nd row and the anti-diagonal m + k
    # = cutoff (the largest binomials, up to C(1029, 514) near float max)
    root = fock._root_binomials(cutoff)[0]
    assert root.shape == (cutoff + 1, cutoff + 1) and root.dtype == np.float64
    rows = range(0, cutoff + 1, 1 if cutoff < 1000 else 32)
    for k in rows:
        exact = [math.comb(m + k, k) if m + k <= cutoff else 0 for m in range(cutoff + 1)]
        assert np.array_equal(root[k], np.sqrt(np.array(exact, dtype=float))), k
    top = [float(math.comb(cutoff, k)) for k in range(cutoff + 1)]
    assert np.array_equal(root[np.arange(cutoff + 1), cutoff - np.arange(cutoff + 1)], np.sqrt(top))


def test_every_builder_made_factor_has_rank_one():
    for state in _builder_made_states():
        inputs = state.mode_inputs
        k, d = len(inputs.tables), inputs.phase_generator.shape[-1]
        assert inputs.tables.shape == (k, d, d)
        assert inputs.spectra.shape == (k, 1) and (inputs.spectra > 0).all()
        # the k = 0 column is the factor's eigenvector: s w w† is the input,
        # padded with zero levels to the common size d
        w = inputs.tables[:, :, :1]
        rebuilt = inputs.spectra[:, None, :] * w @ np.swapaxes(w, 1, 2).conj()
        padded = np.zeros((k, d, d), complex)
        for pad, factor in zip(padded, state.factors):
            pad[: len(factor), : len(factor)] = factor
        assert np.max(np.abs(rebuilt - padded)) <= 1e-15 * state.space.dim


def test_factor_tables_keep_rank_and_sign():
    pops = np.random.default_rng(5).random(6)
    tables, spectra = mode_factor_tables([np.diag(pops), -np.diag(pops[:4])], 8)
    # a mixed input keeps every eigenpair, padded to 8 levels; the negated one
    # keeps its signs, padded with zero weights to the common rank
    assert tables.shape == (2, 8, 8 * 6) and spectra.shape == (2, 6)
    assert np.array_equal(np.sort(spectra[0]), np.sort(pops))
    assert np.array_equal(np.sort(spectra[1][:4]), np.sort(-pops[:4]))
    assert not spectra[1][4:].any() and not tables[1][:, 6 * 4 :].any()
    # R[m, (k, i)] = sqrt(C(m+k, k)) w_i[m+k]
    root = fock._root_binomials(7)[0]
    w = tables[0].reshape(8, 8, 6)[:, 0]
    for k in range(8):
        shifted = np.zeros_like(w)
        shifted[: 8 - k] = w[k:]
        np.testing.assert_array_equal(tables[0].reshape(8, 8, 6)[:, k], root[k][:, None] * shifted)


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


def test_a_state_is_read_only_and_owns_its_arrays():
    # one prepared state serves every caller that asks for its input, so
    # nothing can write to it in place, nor through the arrays it was given
    space = FockSpace(2, 2)
    rho, meta = hv_to_pm_state(NOON_HV, space).rho.copy(), {"source": "noon"}
    dense = TwoModeState(space, rho, meta=meta)
    rho[0, 0], meta["step"] = 1.0, 0
    assert dense.rho[0, 0] == 0.0 and dict(dense.meta) == {"source": "noon"}
    product = coherent_product_state(FockSpace(4, 4), 0.3, 0.3, truncation_budget=1e-6)
    pair = fock_product_state(FockSpace(1, 1), 1, 1)
    # an H-polarized probe's one factor serves both modes and is held once
    assert product.factors[0] is product.factors[1]
    for array in (dense.rho, product.rho, pair.rho, *product.factors, *pair.factors):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            array *= 2.0
    for state in (dense, product, pair):
        with pytest.raises(TypeError, match="does not support item assignment"):
            state.meta["source"] = "changed"
    # with_rho merges meta into a new state and leaves this one as it was
    moved = dense.with_rho(dense.rho, label="moved", step=1)
    assert moved is not dense and moved.label == "moved" and dense.label == ""
    assert dict(moved.meta) == {"source": "noon", "step": 1}
    assert dict(dense.meta) == {"source": "noon"}
    assert np.array_equal(moved.rho, dense.rho) and not moved.rho.flags.writeable


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


def _record_eigh(monkeypatch) -> list:
    shapes, original = [], np.linalg.eigh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return shapes


def _builder_blocks() -> list:
    """Every input and input block the builders make: coherent factors (real
    and complex, dim and bright), Fock projectors, and the NOON and
    single-photon blocks that hold the input."""
    factors = [fock._coherent_factor(amp, 40) for amp in (1.0, 2.0 - 0.7j, 0.3j)]
    factors.append(fock._coherent_factor(6.0, 120))
    factors += fock_product_state(FockSpace(3, 2), 3, 1).factors
    for kind, space in ((NOON_HV, FockSpace(2, 2)), (SINGLE_PHOTON_H, FockSpace(1, 1))):
        state = hv_to_pm_state(kind, space)
        for block in state.output_blocks.blocks:
            if state.rho[np.ix_(block, block)].any():
                factors.append(state.rho[np.ix_(block, block)])
    return factors


def test_rank_one_inputs_factor_from_a_column_with_no_eigensolve(monkeypatch):
    blocks = _builder_blocks()
    blocks.append(-blocks[0])  # a negated input keeps its sign
    eigh = np.linalg.eigh
    shapes = _record_eigh(monkeypatch)
    for block in blocks:
        s, w = fock._eigenpairs(block)
        assert shapes == [] and s.shape == (1,) and w.shape == (len(block), 1)
        # the signed eigenvalue of largest magnitude, and s w w† is the matrix
        lam = eigh(block)[0]
        tol = len(block) * np.finfo(float).eps * abs(s[0])
        assert abs(s[0] - lam[np.argmax(np.abs(lam))]) <= tol
        assert np.abs(s[0] * (w @ w.conj().T) - block).max() <= tol


def test_other_matrices_take_one_eigensolve_and_keep_its_pairs(monkeypatch):
    noise = np.random.default_rng(2).normal(size=(11, 11))
    cases = {
        "mixture": (np.diag([0.7, 0.3, 0.0]), 2),
        "rank one above the keep rule": (
            fock._coherent_factor(1.0, 10).real + 1e-12 * (noise + noise.T),
            11,
        ),
        "indefinite, zero diagonal": (np.array([[0.0, 1.0], [1.0, 0.0]]), 2),
        "zero": (np.zeros((3, 3)), 0),
    }
    eigh = np.linalg.eigh
    shapes = _record_eigh(monkeypatch)
    for case, kept in cases.values():
        s, w = fock._eigenpairs(case)
        assert shapes == [case.shape] and len(s) == kept
        shapes.clear()
        lam, vectors = eigh(case)
        keep = np.abs(lam) > len(case) * np.finfo(float).eps * np.abs(lam).max()
        assert np.array_equal(s, lam[keep]) and np.array_equal(w, vectors[:, keep])
