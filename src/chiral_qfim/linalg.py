"""Dense matrix kernel.

Validation, Hermiticity checks, commutators, and a Hermitian
eigendecomposition for the operator sizes this package works with (a few
hundred rows at most).
Matrices are plain ``numpy.ndarray`` objects, ``float64`` where exactly
real and ``complex128`` otherwise: ``require_hermitian``, ``real_if_exact``
and ``hermitian_eigen`` keep real input real, since a real symmetric matrix
solves faster and keeps the products after it real, and only
``as_complex_matrix`` coerces to ``complex128``.  Scalars are Python/NumPy
numbers.  Finiteness (no NaN/Inf) and
Hermiticity are checked where a matrix crosses a public entry point; the
Hermiticity checks reduce over the last two axes, so they also check a
stack of matrices at once.  The eigensolvers'
residuals are checked by the test suite, not on every call.

Two eigensolver backends are provided:

* ``"lapack"`` (default): ``numpy.linalg.eigh``, fast and robust.
* ``"jacobi"``: cyclic Jacobi rotations in pure Python/NumPy, at most
  ``JACOBI_SWEEP_BUDGET`` sweeps.  Orders of magnitude slower, but
  independent of LAPACK; it exists as the reference backend and is
  cross-checked against ``"lapack"`` in the test suite.
  The eigensolve share of a bound computation is the ``perfbench``
  ``--trace 1`` row ``linalg.eigh_share``.

All tolerances are absolute-relative hybrids, ``tol * max(1, scale)``,
because entries span [0, 1] but can be exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
JACOBI_SWEEP_BUDGET = 100
JACOBI_OFF_TOL = 1e-14  # times ||A||_F


class DimensionMismatchError(ValueError):
    """Operands with incompatible shapes."""


class NonHermitianError(ValueError):
    """A matrix required to be Hermitian exceeds the Hermiticity tolerance."""


class EigenConvergenceError(RuntimeError):
    """Eigensolver failed to converge or to meet its residual bounds."""

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise DimensionMismatchError(f"empty matrix of shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA for square matrices of the same shape."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(
            f"commutator needs equal square shapes, got {a.shape} and {b.shape}"
        )
    return a @ b - b @ a


def real_if_exact(a: np.ndarray) -> np.ndarray:
    """``a`` in real storage when its imaginary part is exactly zero; a real
    array is returned as it is, with no pass over its entries."""
    return a.real if a.dtype.kind == "c" and not np.count_nonzero(a.imag) else a


def adjoint(a: np.ndarray) -> np.ndarray:
    """A† over the last two axes, as a view when ``a`` is real."""
    a_t = a.swapaxes(-1, -2)
    return a_t.conj() if a.dtype.kind == "c" else a_t


def hermiticity_defect(a: np.ndarray):
    """max |A - A†| over the last two axes: a float for one matrix, an array for a stack."""
    defect = np.max(np.abs(a - adjoint(a)), axis=(-2, -1))
    return float(defect) if defect.ndim == 0 else defect


def require_hermitian(a, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate and return the exactly Hermitian part (A + A†)/2.

    ``a`` is one matrix or a stack of them along leading axes; each must be
    finite and Hermitian within ``tol * max(1, max|A|)`` of its own entries.
    A NaN or ∞ anywhere in the stack raises first, before A − A† is formed,
    then the first matrix that is not Hermitian.  Real input stays real.
    Finiteness is read from max|A|, which is NaN or ∞ exactly when an entry
    is.
    """
    a = np.asarray(a)
    if a.dtype != np.float64:
        a = a.astype(np.complex128, copy=False)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise DimensionMismatchError(f"expected a square matrix, got {a.shape}")
    scale = np.abs(a).max(axis=(-2, -1))
    if np.count_nonzero(scale < np.inf) < scale.size:
        raise ValueError("matrix contains NaN or Inf entries")
    a_h = adjoint(a)
    defect = np.abs(a - a_h).max(axis=(-2, -1))
    ok = defect <= tol * np.maximum(1.0, scale)
    if np.count_nonzero(ok) < ok.size:
        first = np.unravel_index(np.argmin(ok), ok.shape)
        raise NonHermitianError(
            f"matrix is not Hermitian: max|A - A†| = {defect[first]:.3e}"
            f" exceeds {tol:.1e} * max(1, {scale[first]:.3e})"
        )
    return 0.5 * (a + a_h)


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization A = V diag(w) V† of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    corresponding orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def reconstruction_residual(self, a: np.ndarray) -> float:
        return float(np.max(np.abs(self.reconstruct() - a)))

    def orthonormality_residual(self) -> float:
        v = self.eigenvectors
        return float(np.max(np.abs(v.conj().T @ v - np.eye(self.dim))))


def hermitian_eigen(a, backend: str = "lapack") -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input is validated to be square and Hermitian within
    ``HERMITICITY_TOL * max(1, max|A|)`` and symmetrized before solving.
    """
    h = require_hermitian(a)
    if backend == "lapack":
        # a real symmetric matrix solves ~4x faster and yields real
        # eigenvectors, which downstream products inherit
        w, v = np.linalg.eigh(real_if_exact(h))
    elif backend == "jacobi":
        w, v = _jacobi_eigh(h)
    else:
        raise ValueError(f"unknown eigensolver backend {backend!r}")
    return EigenDecomposition(eigenvalues=np.asarray(w, dtype=float), eigenvectors=v)


def _offdiag_norm(h: np.ndarray) -> float:
    off = h - np.diag(np.diag(h))
    return float(np.linalg.norm(off))


def _jacobi_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi rotations for a complex Hermitian matrix.

    Each (p, q) pass first strips the phase of h[p,q] and then applies the
    classical symmetric rotation that zeroes it.  Convergence is declared
    when the off-diagonal Frobenius norm drops below
    ``JACOBI_OFF_TOL * ||A||_F``.
    """
    n = h.shape[0]
    h = h.astype(np.complex128, copy=True)
    v = np.eye(n, dtype=np.complex128)
    if n == 1:
        return np.array([h[0, 0].real]), v

    threshold = JACOBI_OFF_TOL * float(np.linalg.norm(h))
    converged = False
    for _ in range(JACOBI_SWEEP_BUDGET):
        if _offdiag_norm(h) <= threshold:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = h[p, q]
                mag = abs(apq)
                if mag == 0.0:
                    continue
                phase = apq / mag
                app = h[p, p].real
                aqq = h[q, q].real
                tau = (aqq - app) / (2.0 * mag)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                pbar = np.conj(phase)
                # H <- U† H U with U = [[c, s],[-s*pbar, c*pbar]] on (p, q)
                col_p = h[:, p].copy()
                col_q = h[:, q].copy()
                h[:, p] = c * col_p - s * pbar * col_q
                h[:, q] = s * col_p + c * pbar * col_q
                row_p = h[p, :].copy()
                row_q = h[q, :].copy()
                h[p, :] = c * row_p - s * phase * row_q
                h[q, :] = s * row_p + c * phase * row_q
                h[p, q] = 0.0
                h[q, p] = 0.0
                h[p, p] = h[p, p].real
                h[q, q] = h[q, q].real
                col_p = v[:, p].copy()
                col_q = v[:, q].copy()
                v[:, p] = c * col_p - s * pbar * col_q
                v[:, q] = s * col_p + c * pbar * col_q
    else:
        converged = _offdiag_norm(h) <= threshold
    if not converged:
        raise EigenConvergenceError(
            f"Jacobi sweep budget of {JACOBI_SWEEP_BUDGET} exhausted",
            residual=_offdiag_norm(h),
        )
    w = np.real(np.diag(h))
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]
