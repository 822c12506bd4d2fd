"""Two-mode truncated Fock space in the ± circular-polarization basis.

Index bookkeeping, mode operators, the H/V → ± basis map, and the input
states used throughout the package.

Basis convention
----------------
A two-mode number state |n₊, n₋⟩ lives at flat index

    k = n₊ * (cutoff_minus + 1) + n₋      (mode + major)

shared by every module.  The circular modes are defined from the H/V
(linear) modes by a₊† = (a_H† − i a_V†)/√2 and a₋† = (a_H† + i a_V†)/√2,
so that

    |1_H, 0_V⟩  →  (|1₊,0₋⟩ + |0₊,1₋⟩)/√2
    |1_H, 1_V⟩  →  (|2₊,0₋⟩ − |0₊,2₋⟩)/√2   (up to a dropped global phase)
    |amp_H, amp_V⟩ coherent  →  product coherent with
        amp₊ = (amp_H + i·amp_V)/√2,  amp₋ = (amp_H − i·amp_V)/√2.

The sign placement inside the two-photon state is convention-dependent;
this choice is fixed here once and every downstream closed form is
validated numerically against channel evolution in this convention.

States are stored in the ± basis only; H/V appears solely in constructors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import as_complex_matrix, require_hermitian

TRUNCATION_BUDGET_DEFAULT = 1e-10
PSD_TOL = 1e-10

SINGLE_PHOTON_H = "single_photon_h"
NOON_HV = "noon_hv"


class TruncationError(ValueError):
    """A requested state does not fit in the given truncated space."""


class StateValidationError(ValueError):
    """A density matrix violates the TwoModeState invariants."""


def require_trace_window(tr: complex, budget: float) -> None:
    """A density matrix trace must be real and lie in [1 − budget, 1]."""
    if abs(tr.imag) > 1e-12:
        raise StateValidationError(f"trace has imaginary part {tr.imag:.3e}")
    lo = 1.0 - budget - 1e-12
    if not (lo <= tr.real <= 1.0 + 1e-12):
        raise StateValidationError(
            f"trace {tr.real!r} outside [{lo!r}, 1] for budget {budget:.3e}"
        )


@dataclass(frozen=True)
class FockSpace:
    """Truncated two-mode Fock space with per-mode photon-number cutoffs."""

    cutoff_plus: int
    cutoff_minus: int

    def __post_init__(self):
        for name in ("cutoff_plus", "cutoff_minus"):
            c = getattr(self, name)
            if not isinstance(c, (int, np.integer)) or c < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {c!r}")

    @property
    def dim(self) -> int:
        return (self.cutoff_plus + 1) * (self.cutoff_minus + 1)

    def index(self, n_plus: int, n_minus: int) -> int:
        if not (0 <= n_plus <= self.cutoff_plus and 0 <= n_minus <= self.cutoff_minus):
            raise TruncationError(
                f"occupation ({n_plus}, {n_minus}) outside cutoffs"
                f" ({self.cutoff_plus}, {self.cutoff_minus})"
            )
        return n_plus * (self.cutoff_minus + 1) + n_minus

    def occupations(self, k: int) -> tuple[int, int]:
        return divmod(k, self.cutoff_minus + 1)

    def number_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays of length dim giving n₊ and n₋ for each basis index."""
        n_plus = np.repeat(np.arange(self.cutoff_plus + 1), self.cutoff_minus + 1)
        n_minus = np.tile(np.arange(self.cutoff_minus + 1), self.cutoff_plus + 1)
        return n_plus, n_minus


class ModeOperators(NamedTuple):
    a_plus: np.ndarray
    a_plus_dag: np.ndarray
    n_plus: np.ndarray
    a_minus: np.ndarray
    a_minus_dag: np.ndarray
    n_minus: np.ndarray


def _ladder(cutoff: int) -> np.ndarray:
    a = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    for n in range(1, cutoff + 1):
        a[n - 1, n] = math.sqrt(n)
    return a


def mode_operators(space: FockSpace) -> ModeOperators:
    """Truncated annihilation/creation/number operators for both modes.

    On the truncated space [a, a†] = I except at the top Fock level, where
    the (cutoff, cutoff) entry is -cutoff instead of 1.
    """
    ap = _ladder(space.cutoff_plus)
    am = _ladder(space.cutoff_minus)
    ip = np.eye(space.cutoff_plus + 1, dtype=np.complex128)
    im = np.eye(space.cutoff_minus + 1, dtype=np.complex128)
    a_plus = np.kron(ap, im)
    a_minus = np.kron(ip, am)
    return ModeOperators(
        a_plus=a_plus,
        a_plus_dag=a_plus.conj().T,
        n_plus=a_plus.conj().T @ a_plus,
        a_minus=a_minus,
        a_minus_dag=a_minus.conj().T,
        n_minus=a_minus.conj().T @ a_minus,
    )


@dataclass(frozen=True, init=False, eq=False)
class TwoModeState:
    """Density matrix on a truncated two-mode Fock space.

    A state holds its density matrix ``rho`` or, for a product ρ₊ ⊗ ρ₋,
    only its single-mode ``factors`` (ρ₊, ρ₋); only the product
    constructors of this module pass them.  Reading ``rho`` on a product
    forms ρ₊ ⊗ ρ₋ once, for the dense route.  ``trace_deficit_budget``
    bounds how far below 1 the trace may sit due to truncation.  Shape,
    finiteness and Hermiticity of ρ or of each factor, and the trace
    window, are checked at construction; positivity only by
    ``validate_psd``, since the constructors here build PSD ψψ† matrices.
    """

    space: FockSpace
    label: str
    trace_deficit_budget: float
    meta: dict
    factors: tuple | None = field(repr=False)

    def __init__(
        self,
        space: FockSpace,
        rho: np.ndarray | None = None,
        label: str = "",
        trace_deficit_budget: float = 0.0,
        meta: dict | None = None,
        *,
        factors: tuple | None = None,
    ):
        if (rho is None) == (factors is None):
            raise StateValidationError("a state takes either rho or factors")
        # frozen: fill the instance dict directly, then validate
        vars(self).update(space=space, label=label, meta={} if meta is None else meta)
        vars(self).update(trace_deficit_budget=trace_deficit_budget, factors=factors)
        if rho is not None:
            vars(self)["rho"] = rho
        self.__post_init__()

    def __post_init__(self):
        if self.factors is None:
            vars(self)["rho"] = _checked(self.rho, self.space.dim)
        else:
            dims = (self.space.cutoff_plus + 1, self.space.cutoff_minus + 1)
            factors = zip(self.factors, dims, strict=True)
            vars(self)["factors"] = tuple(_checked(f, dim) for f, dim in factors)
        require_trace_window(self._complex_trace(), self.trace_deficit_budget)

    @functools.cached_property
    def rho(self) -> np.ndarray:
        """ρ₊ ⊗ ρ₋ of a product state, formed on first read."""
        return np.kron(*self.factors)

    def _complex_trace(self) -> complex:
        if self.factors is None:
            return np.trace(self.rho)
        return np.trace(self.factors[0]) * np.trace(self.factors[1])

    def validate_psd(self, tol: float = PSD_TOL) -> "TwoModeState":
        lam_min = float(np.linalg.eigvalsh(self.rho)[0])
        if lam_min < -tol:
            raise StateValidationError(f"negative eigenvalue {lam_min:.3e}")
        return self

    def trace(self) -> float:
        return float(self._complex_trace().real)

    def expectation(self, op: np.ndarray) -> complex:
        return complex(np.trace(self.rho @ op))

    def with_rho(
        self, rho: np.ndarray, label: str | None = None, trace_deficit_budget=None, **meta
    ) -> "TwoModeState":
        """A dense state on the same space; unset fields are kept, ``meta`` merged."""
        if trace_deficit_budget is None:
            trace_deficit_budget = self.trace_deficit_budget
        label = self.label if label is None else label
        return TwoModeState(self.space, rho, label, trace_deficit_budget, {**self.meta, **meta})


def _checked(matrix, dim: int) -> np.ndarray:
    """A finite Hermitian dim × dim matrix, returned exactly Hermitian."""
    matrix = as_complex_matrix(matrix)
    if matrix.shape != (dim, dim):
        raise StateValidationError(f"matrix shape {matrix.shape} does not match dim {dim}")
    return require_hermitian(matrix, tol=1e-12)


def poisson_tail(mean: float, cutoff: int) -> float:
    """P(N > cutoff) for N ~ Poisson(mean), summed directly for accuracy."""
    if mean < 0:
        raise ValueError(f"mean must be nonnegative, got {mean}")
    if mean == 0.0:
        return 0.0
    # log of p_{cutoff+1}, then accumulate the tail term by term
    k = cutoff + 1
    log_term = -mean + k * math.log(mean) - math.lgamma(k + 1)
    term = math.exp(log_term)
    total = 0.0
    while term > total * 1e-18 + 1e-320:
        total += term
        k += 1
        term *= mean / k
    return total


def min_cutoff_for_tail(mean: float, budget: float) -> int:
    """Smallest cutoff whose ``poisson_tail`` is within ``budget``, in one pass.

    The Poisson terms are formed once, up to the first past the mean below
    budget·1e-18; each tail is a suffix sum of them, never 1 − head.
    """
    if mean < 0:
        raise ValueError(f"mean must be nonnegative, got {mean}")
    if mean == 0.0:
        return 0
    log_mean, terms = math.log(mean), []
    while len(terms) <= mean or terms[-1] > budget * 1e-18:
        k = len(terms)
        if k > 10_001:
            raise TruncationError(f"no practical cutoff reaches tail budget {budget}")
        terms.append(math.exp(-mean + k * log_mean - math.lgamma(k + 1)))
    # tails[c] = P(N > c), the sum of terms c+1 onward
    tails = np.cumsum(terms[:0:-1])[::-1]
    return int(np.argmax(tails <= budget))


def hv_to_pm_amplitudes(amp_h: complex, amp_v: complex) -> tuple[complex, complex]:
    """Coherent amplitudes in the ± basis for an H/V coherent input."""
    return (
        (amp_h + 1j * amp_v) / math.sqrt(2),
        (amp_h - 1j * amp_v) / math.sqrt(2),
    )


def default_coherent_space(
    amp_plus: complex,
    amp_minus: complex,
    budget: float = TRUNCATION_BUDGET_DEFAULT,
    cap: int | None = None,
) -> tuple[FockSpace, float]:
    """Smallest space meeting the per-mode Poisson tail budget.

    Returns the space together with the per-mode budget it meets: ``budget``
    itself, or the larger tail left where a ``cap`` on the cutoff binds.
    """
    cutoffs = []
    effective = budget
    for amp in (amp_plus, amp_minus):
        c = min_cutoff_for_tail(abs(amp) ** 2, budget)
        if cap is not None and c > cap:
            c = cap
            effective = max(effective, poisson_tail(abs(amp) ** 2, c))
        cutoffs.append(c)
    return FockSpace(cutoff_plus=cutoffs[0], cutoff_minus=cutoffs[1]), effective


def _coherent_factor(amp: complex, cutoff: int) -> np.ndarray:
    vec = np.zeros(cutoff + 1, dtype=np.complex128)
    vec[0] = math.exp(-0.5 * abs(amp) ** 2)
    for n in range(1, cutoff + 1):
        vec[n] = vec[n - 1] * amp / math.sqrt(n)
    return np.outer(vec, vec.conj())


def coherent_product_state(
    space: FockSpace,
    amp_plus: complex,
    amp_minus: complex,
    truncation_budget: float = TRUNCATION_BUDGET_DEFAULT,
) -> TwoModeState:
    """Truncated |amp₊⟩⊗|amp₋⟩ as its two mode factors (not renormalized).

    The Poisson tail mass beyond each cutoff must not exceed
    ``truncation_budget``; the trace deficit is then at most twice that.
    """
    for amp, cutoff, name in (
        (amp_plus, space.cutoff_plus, "plus"),
        (amp_minus, space.cutoff_minus, "minus"),
    ):
        tail = poisson_tail(abs(amp) ** 2, cutoff)
        if tail > truncation_budget:
            needed = min_cutoff_for_tail(abs(amp) ** 2, truncation_budget)
            raise TruncationError(
                f"mode {name} cutoff {cutoff} keeps Poisson tail {tail:.3e}"
                f" > budget {truncation_budget:.3e}; cutoff >= {needed} required"
            )
    return TwoModeState(
        space,
        label=f"coherent(amp+={amp_plus!r}, amp-={amp_minus!r})",
        trace_deficit_budget=2.0 * truncation_budget,
        factors=(
            _coherent_factor(amp_plus, space.cutoff_plus),
            _coherent_factor(amp_minus, space.cutoff_minus),
        ),
    )


def hv_to_pm_state(kind: str, space: FockSpace) -> TwoModeState:
    """The H/V-defined quantum inputs, expressed in the ± basis.

    ``single_photon_h``: |1_H,0_V⟩ → (|1₊,0₋⟩+|0₊,1₋⟩)/√2 projector.
    ``noon_hv``:        |1_H,1_V⟩ → (|2₊,0₋⟩−|0₊,2₋⟩)/√2 projector.
    """
    psi = np.zeros(space.dim, dtype=np.complex128)
    if kind == SINGLE_PHOTON_H:
        if space.cutoff_plus < 1 or space.cutoff_minus < 1:
            raise TruncationError("single_photon_h needs cutoffs >= 1 in both modes")
        psi[space.index(1, 0)] = 1.0 / math.sqrt(2)
        psi[space.index(0, 1)] = 1.0 / math.sqrt(2)
    elif kind == NOON_HV:
        if space.cutoff_plus < 2 or space.cutoff_minus < 2:
            raise TruncationError("noon_hv needs cutoffs >= 2 in both modes")
        psi[space.index(2, 0)] = 1.0 / math.sqrt(2)
        psi[space.index(0, 2)] = -1.0 / math.sqrt(2)
    else:
        raise ValueError(f"unknown H/V state kind {kind!r}")
    rho = np.outer(psi, psi.conj())
    return TwoModeState(space=space, rho=rho, label=kind)


def fock_product_state(space: FockSpace, n_plus: int, n_minus: int) -> TwoModeState:
    """|n₊, n₋⟩ projector, as its two mode factors."""
    space.index(n_plus, n_minus)  # raises TruncationError outside the cutoffs
    cutoffs = (space.cutoff_plus, space.cutoff_minus)
    factors = tuple(np.diag(np.eye(c + 1)[n]) for c, n in zip(cutoffs, (n_plus, n_minus)))
    return TwoModeState(space, label=f"fock({n_plus},{n_minus})", factors=factors)
