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

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import as_complex_matrix, require_hermitian

TRUNCATION_BUDGET_DEFAULT = 1e-10
COHERENT_CUTOFF_CAP = 12
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


@dataclass(frozen=True)
class TwoModeState:
    """Density matrix on a truncated two-mode Fock space.

    ``trace_deficit_budget`` bounds how far below 1 the trace may sit due
    to truncation (0 for states that fit exactly).  Shape, finiteness,
    Hermiticity and the trace window are checked at construction; positive
    semidefiniteness is checked only on request, by ``validate_psd``, since
    a full eigensolve would dominate the runtime.  The constructors of this
    module build ρ = ψψ†, which is PSD by construction, and do not call it.

    ``factors`` holds the single-mode density matrices (ρ₊, ρ₋) with
    ρ = ρ₊ ⊗ ρ₋ when the state is known to be a product.  Only the product
    constructors of this module set it; every other state, including any
    made by ``with_rho``, has ``None``, so a changed ρ never keeps stale
    factors.
    """

    space: FockSpace
    rho: np.ndarray
    label: str = ""
    trace_deficit_budget: float = 0.0
    meta: dict = field(default_factory=dict)
    factors: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        rho = as_complex_matrix(self.rho)
        if rho.shape != (self.space.dim, self.space.dim):
            raise StateValidationError(
                f"density matrix shape {rho.shape} does not match space dim {self.space.dim}"
            )
        rho = require_hermitian(rho, tol=1e-12)
        require_trace_window(np.trace(rho), self.trace_deficit_budget)
        object.__setattr__(self, "rho", rho)

    def validate_psd(self, tol: float = PSD_TOL) -> "TwoModeState":
        lam_min = float(np.linalg.eigvalsh(self.rho)[0])
        if lam_min < -tol:
            raise StateValidationError(f"negative eigenvalue {lam_min:.3e}")
        return self

    def trace(self) -> float:
        return float(np.trace(self.rho).real)

    def expectation(self, op: np.ndarray) -> complex:
        return complex(np.trace(self.rho @ op))

    def with_rho(
        self,
        rho: np.ndarray,
        label: str | None = None,
        trace_deficit_budget: float | None = None,
        **meta,
    ) -> "TwoModeState":
        return TwoModeState(
            space=self.space,
            rho=rho,
            label=self.label if label is None else label,
            trace_deficit_budget=(
                self.trace_deficit_budget
                if trace_deficit_budget is None
                else trace_deficit_budget
            ),
            meta={**self.meta, **meta},
        )


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
    cutoff = 0
    while poisson_tail(mean, cutoff) > budget:
        cutoff += 1
        if cutoff > 10_000:
            raise TruncationError(f"no practical cutoff reaches tail budget {budget}")
    return cutoff


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
    cap: int | None = COHERENT_CUTOFF_CAP,
) -> tuple[FockSpace, float]:
    """Smallest space meeting the per-mode Poisson tail budget, capped.

    Returns the space together with the effective per-mode budget, which is
    larger than ``budget`` when the cap binds (the actual tail mass then
    becomes the guaranteed bound).
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


def _coherent_vector(amp: complex, cutoff: int) -> np.ndarray:
    vec = np.zeros(cutoff + 1, dtype=np.complex128)
    vec[0] = math.exp(-0.5 * abs(amp) ** 2)
    for n in range(1, cutoff + 1):
        vec[n] = vec[n - 1] * amp / math.sqrt(n)
    return vec


def coherent_product_state(
    space: FockSpace,
    amp_plus: complex,
    amp_minus: complex,
    truncation_budget: float = TRUNCATION_BUDGET_DEFAULT,
) -> TwoModeState:
    """Truncated |amp₊⟩⊗|amp₋⟩ as a density matrix (not renormalized).

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
    vec_plus = _coherent_vector(amp_plus, space.cutoff_plus)
    vec_minus = _coherent_vector(amp_minus, space.cutoff_minus)
    psi = np.kron(vec_plus, vec_minus)
    rho = np.outer(psi, psi.conj())
    state = TwoModeState(
        space=space,
        rho=rho,
        label=f"coherent(amp+={amp_plus!r}, amp-={amp_minus!r})",
        trace_deficit_budget=2.0 * truncation_budget,
    )
    factors = (np.outer(vec_plus, vec_plus.conj()), np.outer(vec_minus, vec_minus.conj()))
    object.__setattr__(state, "factors", factors)
    return state


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
    """|n₊, n₋⟩ projector."""
    rho = np.zeros((space.dim, space.dim), dtype=np.complex128)
    k = space.index(n_plus, n_minus)
    rho[k, k] = 1.0
    state = TwoModeState(space=space, rho=rho, label=f"fock({n_plus},{n_minus})")
    factors = []
    for cutoff, n in ((space.cutoff_plus, n_plus), (space.cutoff_minus, n_minus)):
        projector = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
        projector[n, n] = 1.0
        factors.append(projector)
    object.__setattr__(state, "factors", tuple(factors))
    return state
