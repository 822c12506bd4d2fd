import re

import numpy as np
import pytest

from chiral_qfim import linalg
from chiral_qfim.linalg import (
    DimensionMismatchError,
    EigenConvergenceError,
    NonHermitianError,
    as_complex_matrix,
    commutator,
    hermitian_eigen,
    hermiticity_defect,
    require_hermitian,
)


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_hermitian(rng, n):
    a = random_complex(rng, n)
    return (a + a.conj().T) / 2


def assert_small_residuals(dec, a):
    """Reconstruction within 1e-10 * max(1, max|A|), orthonormality within 1e-10."""
    assert dec.reconstruction_residual(a) <= 1e-10 * max(1.0, np.abs(a).max())
    assert dec.orthonormality_residual() <= 1e-10


def test_trace_cyclic_against_double_loop():
    rng = np.random.default_rng(11)
    a = random_complex(rng, 5)
    b = random_complex(rng, 5)
    tr_ab = np.trace(a @ b)
    # independent double-loop evaluation of tr(BA)
    tr_ba = 0.0 + 0.0j
    for i in range(5):
        for k in range(5):
            tr_ba += b[i, k] * a[k, i]
    assert abs(tr_ab - tr_ba) <= 1e-12 * max(1.0, abs(tr_ab))


def test_as_complex_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_complex_matrix(np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(ValueError):
        as_complex_matrix(np.array([[np.inf, 0], [0, 0]]))


@pytest.mark.parametrize("backend", ["lapack", "jacobi"])
def test_eigen_diagonal(backend):
    a = np.diag([0.3, 0.7]).astype(complex)
    dec = hermitian_eigen(a, backend=backend)
    assert_small_residuals(dec, a)
    np.testing.assert_allclose(dec.eigenvalues, [0.3, 0.7], atol=1e-14)
    np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-12)


@pytest.mark.parametrize("backend", ["lapack", "jacobi"])
def test_eigen_pauli_y(backend):
    pauli_y = np.array([[0, -1j], [1j, 0]])
    dec = hermitian_eigen(pauli_y, backend=backend)
    assert_small_residuals(dec, pauli_y)
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("backend", ["lapack", "jacobi"])
def test_eigen_reconstruction_9x9(backend):
    rng = np.random.default_rng(23)
    a = random_hermitian(rng, 9)
    dec = hermitian_eigen(a, backend=backend)
    assert_small_residuals(dec, a)
    assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_backends_agree():
    rng = np.random.default_rng(5)
    for n in (2, 6, 17):
        a = random_hermitian(rng, n)
        lam_l = hermitian_eigen(a, backend="lapack").eigenvalues
        lam_j = hermitian_eigen(a, backend="jacobi").eigenvalues
        np.testing.assert_allclose(lam_j, lam_l, atol=1e-12 * max(1.0, np.abs(a).max()))


def test_eigen_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eigen(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eigen_unknown_backend():
    with pytest.raises(ValueError):
        hermitian_eigen(np.eye(2, dtype=complex), backend="qr")


def test_jacobi_sweep_budget_exhaustion_reports_residual(monkeypatch):
    rng = np.random.default_rng(3)
    a = random_hermitian(rng, 30)
    monkeypatch.setattr(linalg, "JACOBI_SWEEP_BUDGET", 1)
    with pytest.raises(EigenConvergenceError) as err:
        hermitian_eigen(a, backend="jacobi")
    assert err.value.residual > 0


def test_commutator_self_is_zero():
    rng = np.random.default_rng(2)
    a = random_complex(rng, 4)
    np.testing.assert_allclose(commutator(a, a), np.zeros((4, 4)), atol=0)


def test_commutator_ladder_defect_top_level():
    # single-mode ladder at cutoff 6: [a, a†] = I except the top diagonal entry
    cutoff = 6
    a = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for n in range(1, cutoff + 1):
        a[n - 1, n] = np.sqrt(n)
    c = commutator(a, a.conj().T)
    expected = np.eye(cutoff + 1, dtype=complex)
    expected[cutoff, cutoff] = -cutoff
    np.testing.assert_allclose(c, expected, atol=1e-13)


def test_commutator_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        commutator(np.zeros((2, 2)), np.zeros((3, 3)))


def test_diagonal_observables_commute_exactly():
    # number-diagonal operators such as the absorption SLDs and phase
    # generators commute entry for entry
    n_plus = np.diag([0.0, 0, 1, 1, 2, 2]).astype(complex)
    n_minus = np.diag([0.0, 1, 0, 1, 0, 1]).astype(complex)
    l_d = n_minus / 0.4 - n_plus / 0.6
    g_delta = n_plus - n_minus
    assert np.max(np.abs(commutator(l_d, g_delta))) == 0.0


def test_unitary_conjugation_preserves_hermiticity():
    rng = np.random.default_rng(31)
    x = random_hermitian(rng, 8)
    u = hermitian_eigen(random_hermitian(rng, 8)).eigenvectors
    y = u @ x @ u.conj().T
    assert hermiticity_defect(y) <= 1e-12 * max(1.0, np.abs(y).max())


def test_require_hermitian_symmetrizes_within_tolerance():
    a = np.array([[1.0, 1e-14j], [0.0, 2.0]])
    h = require_hermitian(a)
    assert hermiticity_defect(h) == 0.0
    with pytest.raises(NonHermitianError):
        require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_checks_reduce_over_the_last_two_axes():
    rng = np.random.default_rng(7)
    stack = np.stack([random_hermitian(rng, 4) * s for s in (1.0, 1e3, 1e-3)])
    assert hermiticity_defect(stack).shape == (3,)
    h = require_hermitian(stack)
    for i in range(3):
        np.testing.assert_array_equal(h[i], require_hermitian(stack[i]))
    real = stack.real + np.swapaxes(stack.real, 1, 2)
    assert require_hermitian(real).dtype == np.float64
    # each matrix is held to its own scale: 1e-10 passes at 1e3, not at 1e-3
    skewed = stack.copy()
    skewed[1, 0, 1] += 1e-10
    require_hermitian(skewed)
    skewed[2, 0, 1] += 1e-10
    with pytest.raises(NonHermitianError, match="1.000e-10 exceeds 1.0e-12"):
        require_hermitian(skewed)
    skewed[2, 0, 1] = np.nan
    with pytest.raises(ValueError, match="NaN or Inf"):
        require_hermitian(skewed)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["+inf", "-inf"])
def test_require_hermitian_rejects_a_lone_off_diagonal_inf(value, dtype):
    # inf <= tol * inf holds, so the defect test alone would let it through
    a = np.eye(3, dtype=dtype)
    a[0, 2] = value
    with pytest.raises(ValueError, match="NaN or Inf"):
        require_hermitian(a)
    with pytest.raises(ValueError, match="NaN or Inf"):
        require_hermitian(np.stack([np.eye(3, dtype=dtype), a]))


def test_require_hermitian_reports_nonfinite_before_a_hermiticity_defect():
    # finiteness is checked over the whole stack first: a NaN in a later
    # matrix is reported, not the defect of an earlier one
    stack = np.stack([np.eye(3), np.eye(3)]).astype(complex)
    stack[0, 0, 1] = 1.0
    stack[1, 1, 1] = np.nan
    with pytest.raises(ValueError, match="NaN or Inf") as raised:
        require_hermitian(stack)
    assert not isinstance(raised.value, NonHermitianError)
    stack[1, 1, 1] = 1.0
    with pytest.raises(NonHermitianError, match=re.escape("max|A - A†| = 1.000e+00")):
        require_hermitian(stack)
