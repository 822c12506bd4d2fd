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
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .linalg import real_if_exact, require_hermitian

TRUNCATION_BUDGET_DEFAULT = 1e-10
PSD_TOL = 1e-10
COHERENT_VECTOR_TOL = 1e-12

SINGLE_PHOTON_H = "single_photon_h"
NOON_HV = "noon_hv"


class TruncationError(ValueError):
    """A requested state does not fit in the given truncated space."""


class StateValidationError(ValueError):
    """A density matrix violates the TwoModeState invariants."""


def require_trace_window(tr, budget: float) -> None:
    """A density matrix trace must be real and lie in [1 − budget, 1].

    ``tr`` is one trace or an array of them; the first that fails raises.
    """
    tr = np.asarray(tr)
    lo = 1.0 - budget - 1e-12
    bad = ~((lo <= tr.real) & (tr.real <= 1.0 + 1e-12))
    if tr.dtype.kind == "c":
        bad |= np.abs(tr.imag) > 1e-12
    if not np.count_nonzero(bad):
        return
    tr = tr.flat[np.argmax(bad)]
    if abs(tr.imag) > 1e-12:
        raise StateValidationError(f"trace has imaginary part {tr.imag:.3e}")
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


# The largest cutoff whose loss binomials all fit in a float64: the largest
# of them, C(cutoff, ⌊cutoff/2⌋), overflows first at cutoff 1030.
MAX_LOSS_CUTOFF = 1029


def require_loss_cutoff(cutoff: int) -> None:
    """Refuse, before any table is built, a cutoff past ``MAX_LOSS_CUTOFF``."""
    if cutoff > MAX_LOSS_CUTOFF:
        raise OverflowError(
            f"cutoff {cutoff} exceeds {MAX_LOSS_CUTOFF}, the largest whose loss"
            " binomials fit in a float64"
        )


@functools.lru_cache(maxsize=64)
def _root_binomials(cutoff: int) -> tuple:
    """α-independent, read-only tables, cached per cutoff.

    ``root[k, m] = √C(m+k, k)`` for m+k ≤ cutoff and 0 beyond, where the
    k-photon-loss Kraus operator has no entry.  Row k of the binomials is
    the running sum of row k − 1, C(m+k, k) = Σ_{j≤m} C(j+k−1, k−1), over
    Python ints, so each is exact before its one rounding to float and
    holds past int64 (cutoff ≥ 67), up to ``MAX_LOSS_CUTOFF``.  ``k`` =
    0..cutoff and ``half_k`` = k/2 are the exponents of the loss tables.
    """
    require_loss_cutoff(cutoff)
    m = np.arange(cutoff + 1)
    binomials = np.zeros((cutoff + 1, cutoff + 1))
    row = [1] * (cutoff + 1)  # C(m, 0)
    for k in m.tolist():
        binomials[k, : len(row)] = list(map(float, row))
        row = list(itertools.accumulate(row[:-1]))
    tables = (np.sqrt(binomials), m, m / 2)
    for table in tables:
        table.flags.writeable = False
    return tables


def _eigenpairs(matrix) -> tuple:
    """ρ = Σ_i s_i w_i w_i† of a Hermitian matrix, keeping the eigenpairs
    with |s_i| > n·ε·max|s| (n its levels, numpy's ``matrix_rank``
    tolerance) with their signs, so an indefinite or negated matrix keeps
    its sign; a zero matrix keeps none.

    A rank-one matrix, as every input and input block the builders make
    is, is factored from its largest-diagonal column j with no eigensolve:
    x = A[:, j]/√|A_jj|, s = sign(A_jj)‖x‖² and w = x/‖x‖, taken when
    max|A − s ww†| ≤ n·ε·|s|, what the rule drops.  Any other matrix takes
    one ``eigh``."""
    a = real_if_exact(matrix)
    tol = len(a) * np.finfo(float).eps
    pivot = a.diagonal().real
    j = int(np.abs(pivot).argmax())
    if pivot[j]:
        x = a[:, j] / math.sqrt(abs(pivot[j]))
        norm = math.sqrt(np.vdot(x, x).real)
        s, w = math.copysign(norm * norm, pivot[j]), x[:, None] / norm
        if np.abs(a - s * (w @ w.conj().T)).max() <= tol * abs(s):
            return np.array([s]), w
    s, w = np.linalg.eigh(a)
    keep = np.abs(s) > tol * np.abs(s).max()
    return s[keep], w[:, keep]


def _kraus_table(vectors: np.ndarray, levels: tuple) -> np.ndarray:
    """R[m, k, i] = Π_j √C(m_j+k_j, k_j) w_i[m+k] (*levels, *levels, r) of
    the columns w_i of ``vectors`` (dim, r), on the flat levels of modes of
    ``levels`` levels each; zero where m+k passes them."""
    modes, rank = len(levels), vectors.shape[-1]
    padded = np.zeros((*(2 * d for d in levels), rank), vectors.dtype)
    padded[tuple(map(slice, levels))] = vectors.reshape(*levels, rank)
    # shifted[m, k, i] = padded[m + k, i]: each mode's stride steps both m and k
    strides = padded.strides[:-1] * 2 + padded.strides[-1:]
    shifted = np.ndarray((*levels, *levels, rank), padded.dtype, padded, 0, strides)
    weight = 1.0
    for j, d in enumerate(levels):
        axes = [1] * (2 * modes)
        axes[j] = axes[modes + j] = d
        weight = weight * _root_binomials(d - 1)[0].T.reshape(axes)
    return weight[..., None] * shifted


def mode_factor_tables(matrices, d: int) -> tuple:
    """The α-free loss tables of single-mode Hermitian matrices of at most
    d levels: R (N, d, d·r) and the signed spectra s (N, r).

    Each matrix is factored by ``_eigenpairs`` as ρ = Σ_i s_i w_i w_i†,
    and R[m, (k, i)] = √C(m+k, k) w_i[m+k] (``_kraus_table``), zero where
    m+k passes the matrix's levels; the tables are zero-padded to the common
    rank r, with s = 0 there.  Every input the builders of this module make
    has rank 1.
    """
    pairs = [_eigenpairs(matrix) for matrix in matrices]
    rank = max(len(s) for s, _ in pairs)
    tables = np.zeros((len(pairs), d, d, rank), np.result_type(*(w for _, w in pairs)))
    spectra = np.zeros((len(pairs), rank))
    for table, spectrum, (s, w) in zip(tables, spectra, pairs):
        padded = np.zeros((d, len(s)), w.dtype)
        padded[: len(w)] = w
        table[..., : len(s)] = _kraus_table(padded, (d,))
        spectrum[: len(s)] = s
    return tables.reshape(len(pairs), d, d * rank), spectra


def phase_generator(n: np.ndarray) -> np.ndarray:
    """G[j, k] = −i(n_j − n_k), so that ∂ρ/∂φ = −i[diag(n), ρ] = G ⊙ ρ; a
    stack of ``n`` vectors gives a stack of generators."""
    return -1j * (n[..., :, None] - n[..., None, :])


class ModeInputs(NamedTuple):
    """A product state's K distinct mode inputs at their common size d: the
    index of the input that each mode, + then −, reads, each input's loss
    ``tables`` (K, d, d·r) and signed ``spectra`` (K, r) from
    ``mode_factor_tables``, and the phase generator of d levels (d, d)."""

    reads: tuple
    tables: np.ndarray
    spectra: np.ndarray
    phase_generator: np.ndarray


class OutputBlocks(NamedTuple):
    """A dense state's output ``blocks`` (tuples of levels, from
    ``_reachable_blocks``), each block's levels padded to the largest block's
    size s with the level ``dim``, which holds zeros, as ``levels`` (K, 1,
    s), the phase generators of n₊ and of n₋ on each block's padded levels,
    ``phase_generators`` (2, K, 1, s, s), and whether loss shifts no input
    entry into a block of more than one level, ``unshifted``."""

    blocks: tuple
    levels: np.ndarray
    phase_generators: np.ndarray
    unshifted: bool


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
    forms ρ₊ ⊗ ρ₋ once, for the dense route.  Reading ``mode_inputs``
    compares the factors once, for the per-mode route: it keeps each
    distinct padded factor once and records which one each mode reads, so
    equal factors (an H-polarized coherent probe, the photon pair) are one
    input.
    ``trace_deficit_budget`` bounds how far below 1 the trace may sit due
    to truncation.  Shape, finiteness and Hermiticity of ρ or of each
    factor, and the trace window, are checked at construction; positivity
    only by ``validate_psd``, since the constructors here build PSD ψψ†
    matrices.  The state owns read-only copies of ρ and of each factor (a
    factor passed for both modes is held once) and a read-only ``meta``
    mapping, so one state can serve many callers
    (``experiments.prepare_input_state`` keeps the states it builds).
    """

    space: FockSpace
    label: str
    trace_deficit_budget: float
    meta: MappingProxyType
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
        meta = MappingProxyType({} if meta is None else dict(meta))
        vars(self).update(space=space, label=label, meta=meta)
        vars(self).update(trace_deficit_budget=trace_deficit_budget, factors=factors)
        if rho is not None:
            vars(self)["rho"] = rho
        self.__post_init__()

    def __post_init__(self):
        if self.factors is None:
            vars(self)["rho"] = _checked(self.rho, self.space.dim)
        else:
            dims = (self.space.cutoff_plus + 1, self.space.cutoff_minus + 1)
            modes = [((id(f), dim), f) for f, dim in zip(self.factors, dims, strict=True)]
            checked = {}  # a factor passed for both modes is checked and held once
            for key, factor in modes:
                if key not in checked:
                    checked[key] = _checked(factor, key[1])
            vars(self)["factors"] = tuple(checked[key] for key, _ in modes)
        require_trace_window(self._complex_trace(), self.trace_deficit_budget)

    @functools.cached_property
    def rho(self) -> np.ndarray:
        """ρ₊ ⊗ ρ₋ of a product state, formed on first read, read-only."""
        rho = np.kron(*self.factors)
        rho.flags.writeable = False
        return rho

    @functools.cached_property
    def mode_inputs(self) -> ModeInputs:
        """A product's distinct single-mode inputs, formed, compared and
        factored once.

        The factors are compared padded with zero levels to their common
        size d; a factor equal to the first, as in an H-polarized coherent
        probe or the photon pair, is not an input again (K = 1).  Each
        distinct factor, unpadded, gives its loss tables, real when the
        distinct factors are exactly real.  Every array, the phase generator
        of d levels included, is read-only."""
        factors = [real_if_exact(factor) for factor in self.factors]
        d = max(len(factor) for factor in factors)
        padded = np.zeros((2, d, d), dtype=np.result_type(*factors))
        for pad, factor in zip(padded, factors):
            pad[: len(factor), : len(factor)] = factor
        reads = (0, 0) if np.array_equal(*padded) else (0, 1)
        inputs = ModeInputs(
            reads, *mode_factor_tables(factors[: max(reads) + 1], d), phase_generator(np.arange(d))
        )
        for array in inputs[1:]:
            array.flags.writeable = False
        return inputs

    @functools.cached_property
    def output_blocks(self) -> OutputBlocks:
        """The index blocks of every channel output of this state, read from
        the input's nonzero pattern alone (``_reachable_blocks``), with their
        padded levels and phase generators, formed once; the arrays are
        read-only."""
        (blocks, unshifted), dim = _reachable_blocks(self), self.space.dim
        size = max(map(len, blocks))
        levels = np.array([block + (dim,) * (size - len(block)) for block in blocks])[:, None]
        numbers = np.array(np.divmod(levels, self.space.cutoff_minus + 1))
        output_blocks = OutputBlocks(blocks, levels, phase_generator(numbers), unshifted)
        for array in output_blocks[1:3]:
            array.flags.writeable = False
        return output_blocks

    @functools.cached_property
    def diagonal_loss_sld(self) -> bool:
        """Whether the matrix proves ∂ρ/∂α± = ½{G±, ρ}, G± diagonal, for every
        output, decided once.  The SLD G± then commutes with n±: the QFIM in
        native (α₊, α₋, φ₊, φ₋) has no α-φ cross block, and its α block
        tr(ρ G G) = Σ (∂p)²/p is photon counting's.  A dense input proves it
        when loss shifts no input entry into an output block of more than
        one level (``OutputBlocks.unshifted``): each is then D ρ D, D =
        diag(η₊^(n₊/2) η₋^(n₋/2)).  A product does when each distinct factor
        is diagonal, which loss keeps diagonal, or a truncated coherent
        projector whose Poisson tail is within ``trace_deficit_budget``
        (``_coherent_vector``), which loss keeps coherent, |√η β⟩, to it."""
        if self.factors is None:
            return self.output_blocks.unshifted
        inputs, budget = self.mode_inputs, self.trace_deficit_budget
        return all(
            (np.count_nonzero(spectrum) == 1 and _coherent_vector(table[:, 0], budget))
            or np.count_nonzero(factor) == np.count_nonzero(factor.diagonal())
            for factor, table, spectrum in zip(self.factors, inputs.tables, inputs.spectra)
        )

    @functools.cached_property
    def kraus_tables(self) -> tuple:
        """The loss tables of ``rho`` for ``channel.factored_loss_output``,
        formed once: R (1, d₊, d₋, dim·r), R[(m₊, m₋), (k, l, i)] =
        √C(m₊+k, k) √C(m₋+l, l) w_i[m₊+k, m₋+l] (``_kraus_table``), and the
        signed spectra (1, r).  The input is its own α = 0 output, so it is
        block diagonal in its ``output_blocks``: each block it holds is
        factored apart by ``_eigenpairs``, and no eigenproblem is larger than
        a block.  Both arrays are read-only, real when ``rho`` is exactly real."""
        rho, basis = real_if_exact(self.rho), np.eye(self.space.dim)
        # a block that only loss fills holds no eigenpair of the input
        held = set(np.flatnonzero(rho.any(axis=1)).tolist())
        blocks = [block for block in self.output_blocks.blocks if not held.isdisjoint(block)]
        pairs = [_eigenpairs(rho[np.ix_(block, block)]) for block in blocks]
        spectra = np.concatenate([s for s, _ in pairs])[None]
        vectors = np.hstack([basis[:, block] @ w for block, (_, w) in zip(blocks, pairs)])
        levels = (self.space.cutoff_plus + 1, self.space.cutoff_minus + 1)
        tables = _kraus_table(vectors, levels).reshape(1, *levels, -1)
        for array in (tables, spectra):
            array.flags.writeable = False
        return tables, spectra

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
    """A finite Hermitian dim × dim complex matrix, returned as a new,
    exactly Hermitian, read-only array."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (dim, dim):
        raise StateValidationError(f"matrix shape {matrix.shape} does not match dim {dim}")
    checked = require_hermitian(matrix)
    checked.flags.writeable = False
    return checked


def _reachable_blocks(state: TwoModeState) -> tuple:
    """The index blocks of every channel output of ``state``, read from the
    input's nonzero pattern alone: tuples of levels, in order of their
    lowest level; and whether no input entry that loss shifts reaches a
    block of more than one level.

    The phase stage rescales each entry in place, and loss maps |a,b⟩⟨c,d|
    to |a−k,b−l⟩⟨c−k,d−l|, so an output entry can be nonzero only where an
    input entry reaches it: an OR over every (k, l) shift, formed per mode
    as a suffix OR along the shared ket-bra diagonal, by doubling.  A shift
    other than (0, 0) is one step in either mode, then any shift.  Two
    levels share a block when a reachable entry couples them; a level that
    no entry reaches is empty at every point and belongs to no block.  The
    blocks follow from minimum-label propagation, each pass O(dim²).
    """
    space = state.space
    dp, dm = space.cutoff_plus + 1, space.cutoff_minus + 1
    reach = (state.rho != 0).reshape(dp, dm, dp, dm)
    shift = 1
    while shift < max(dp, dm):
        if shift < dp:
            reach[:-shift, :, :-shift] |= reach[shift:, :, shift:]
        if shift < dm:
            reach[:, :-shift, :, :-shift] |= reach[:, shift:, :, shift:]
        shift *= 2
    shifted = np.zeros_like(reach)
    shifted[:-1, :, :-1] = reach[1:, :, 1:]
    shifted[:, :-1, :, :-1] |= reach[:, 1:, :, 1:]
    # a Hermitian input reaches a symmetric pattern; each level starts at
    # its least neighbour (0 if unreached)
    reach = reach.reshape(space.dim, space.dim)
    label = reach.argmax(axis=1)
    while True:
        # the least label among a level and its neighbours, then that label's own
        hooked = np.where(reach, label, label[:, None]).min(axis=1)
        hooked = hooked[hooked]
        if hooked.tolist() == label.tolist():
            break
        label = hooked
    blocks = {}
    for level, (root, reached) in enumerate(zip(label.tolist(), reach.any(axis=1).tolist())):
        if reached:
            blocks.setdefault(root, []).append(level)
    blocks, shifted = tuple(map(tuple, blocks.values())), shifted.reshape(space.dim, space.dim)
    return blocks, not any(shifted[np.ix_(b, b)].any() for b in blocks if len(b) > 1)


def _tail_sum(mean: float, cutoff: int, terms: dict) -> float:
    """P(N > cutoff) for N ~ Poisson(0 < mean < ∞): the terms from k =
    cutoff + 1 on, added in increasing k, through the first past the mean
    below 1e-18 of the sum.  Each term P(N = k) is formed in log space, so a
    bright mean whose first terms underflow keeps its tail, and is kept in
    ``terms`` for the next sum over the same mean.  The sum is capped at 1:
    the terms' log-space rounding can carry a bright mean's sum from a small
    cutoff a few ulps past it.
    """
    log_mean, total, k = math.log(mean), 0.0, cutoff + 1
    while True:
        term = terms.get(k)
        if term is None:
            term = terms[k] = math.exp(-mean + k * log_mean - math.lgamma(k + 1))
        total += term
        if k > mean and term <= total * 1e-18:
            return min(total, 1.0)
        k += 1


def poisson_tail(mean: float, cutoff: int) -> float:
    """P(N > cutoff) for N ~ Poisson(mean), summed directly for accuracy."""
    if mean < 0:
        raise ValueError(f"mean must be nonnegative, got {mean}")
    if not 0.0 < mean < math.inf:
        return 0.0  # no photons, or a non-finite mean that the state's checks reject
    return _tail_sum(mean, cutoff, {})


def require_tail_budget(budget: float) -> None:
    """A truncation budget is a Poisson tail probability, in [0, 1)."""
    if not 0.0 <= budget < 1.0:
        raise ValueError(f"truncation budget must lie in [0, 1), got {budget!r}")


def min_cutoff_for_tail(mean: float, budget: float) -> int:
    """Smallest cutoff c whose ``poisson_tail`` is within ``budget``.

    The search compares the very sums ``poisson_tail`` forms, over one set
    of terms: steps up from the mean, then bisection, keep P(N > lo) >
    budget >= P(N > hi) until hi = lo + 1, so the cutoff returned has
    poisson_tail(c) <= budget < poisson_tail(c − 1).
    """
    require_tail_budget(budget)
    if mean < 0:
        raise ValueError(f"mean must be nonnegative, got {mean}")
    if mean == 0.0:
        return 0
    if not mean < math.inf:
        raise TruncationError(f"no practical cutoff reaches tail budget {budget}")
    terms = {}
    # P(N > lo) > budget, with P(N > -1) = 1, and P(N > hi) <= budget once found
    lo, hi, step = -1, int(mean), 1 + int(math.sqrt(mean))
    while _tail_sum(mean, hi, terms) > budget:
        if hi > 10_000:
            raise TruncationError(f"no practical cutoff reaches tail budget {budget}")
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _tail_sum(mean, mid, terms) > budget:
            lo = mid
        else:
            hi = mid
    return hi


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
    Modes of equal mean photon number share one cutoff search.
    """
    means = (abs(amp_plus) ** 2, abs(amp_minus) ** 2)
    cutoffs = {}
    effective = budget
    for mean in dict.fromkeys(means):  # an H-polarized probe's modes share one search
        c = min_cutoff_for_tail(mean, budget)
        if cap is not None and c > cap:
            c = cap
            effective = max(effective, poisson_tail(mean, c))
        cutoffs[mean] = c
    return FockSpace(cutoff_plus=cutoffs[means[0]], cutoff_minus=cutoffs[means[1]]), effective


def _coherent_vector(w: np.ndarray, budget: float) -> bool:
    """Whether w ∝ β^n/√n! to rounding, cut in its tail: √(n+1) w_{n+1} =
    β w_n below its last nonzero level, β fitted by least squares, within
    COHERENT_VECTOR_TOL of max √(n+1) w_{n+1}, and |β⟩'s Poisson mass past
    that level within ``budget``; not a number state |n > 0⟩."""
    top = int(np.flatnonzero(w)[-1])
    below, above = w[:top], np.sqrt(np.arange(1, top + 1)) * w[1 : top + 1]
    norm = np.vdot(below, below).real
    if not norm:
        return not top  # the vacuum, or a number state
    beta = np.vdot(below, above) / norm
    fits = np.abs(above - beta * below).max() <= COHERENT_VECTOR_TOL * np.abs(above).max()
    return bool(fits) and poisson_tail(abs(beta) ** 2, top) <= budget


def _coherent_factor(amp: complex, cutoff: int) -> np.ndarray:
    """|amp⟩⟨amp| on levels 0..cutoff, unnormalized: v_n = e^{−|amp|²/2} amp^n/√n!.

    The recurrence v_n = v_{n−1}·amp/√n starts at the first level whose
    magnitude, formed in log space, exceeds e^{−690}: a bright amplitude,
    whose e^{−|amp|²/2} underflows, keeps its weight, and the levels below
    stay 0.  The start's phase is left out, a global phase of v.
    """
    vec = np.zeros(cutoff + 1, dtype=np.complex128)
    mean, start = abs(amp) ** 2, 0
    log_mag = -0.5 * mean
    while log_mag < -690.0 and start < cutoff:
        start += 1
        log_mag = -0.5 * mean + start * math.log(abs(amp)) - 0.5 * math.lgamma(start + 1)
    vec[start] = math.exp(log_mag)
    for n in range(start + 1, cutoff + 1):
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
    Modes of equal mean and cutoff share one tail check, and modes of equal
    amplitude and cutoff (an H-polarized probe) one factor.
    """
    require_tail_budget(truncation_budget)
    modes = {"plus": (amp_plus, space.cutoff_plus), "minus": (amp_minus, space.cutoff_minus)}
    # the first mode of each distinct (mean, cutoff), so a refusal names plus first
    checks = {}
    for name, (amp, cutoff) in modes.items():
        checks.setdefault((abs(amp) ** 2, cutoff), name)
    for (mean, cutoff), name in checks.items():
        tail = poisson_tail(mean, cutoff)
        if tail > truncation_budget:
            needed = min_cutoff_for_tail(mean, truncation_budget)
            raise TruncationError(
                f"mode {name} cutoff {cutoff} keeps Poisson tail {tail:.3e}"
                f" > budget {truncation_budget:.3e}; cutoff >= {needed} required"
            )
    factors = {mode: _coherent_factor(*mode) for mode in dict.fromkeys(modes.values())}
    return TwoModeState(
        space,
        label=f"coherent(amp+={amp_plus!r}, amp-={amp_minus!r})",
        trace_deficit_budget=2.0 * truncation_budget,
        factors=tuple(factors[mode] for mode in modes.values()),
    )


# the ± amplitudes of the H/V-defined quantum inputs, by level (n₊, n₋)
_HV_AMPLITUDES = {
    SINGLE_PHOTON_H: {(1, 0): 1.0 / math.sqrt(2), (0, 1): 1.0 / math.sqrt(2)},
    NOON_HV: {(2, 0): 1.0 / math.sqrt(2), (0, 2): -1.0 / math.sqrt(2)},
}


def hv_to_pm_state(kind: str, space: FockSpace) -> TwoModeState:
    """The H/V-defined quantum inputs, expressed in the ± basis.

    ``single_photon_h``: |1_H,0_V⟩ → (|1₊,0₋⟩+|0₊,1₋⟩)/√2 projector.
    ``noon_hv``:        |1_H,1_V⟩ → (|2₊,0₋⟩−|0₊,2₋⟩)/√2 projector.
    """
    if kind not in _HV_AMPLITUDES:
        raise ValueError(f"unknown H/V state kind {kind!r}")
    psi = np.zeros(space.dim, dtype=np.complex128)
    for levels, amplitude in _HV_AMPLITUDES[kind].items():
        psi[space.index(*levels)] = amplitude  # raises TruncationError outside the cutoffs
    rho = np.outer(psi, psi.conj())
    return TwoModeState(space=space, rho=rho, label=kind)


def fock_product_state(space: FockSpace, n_plus: int, n_minus: int) -> TwoModeState:
    """|n₊, n₋⟩ projector, as its two mode factors."""
    space.index(n_plus, n_minus)  # raises TruncationError outside the cutoffs
    cutoffs = (space.cutoff_plus, space.cutoff_minus)
    factors = tuple(np.diag(np.eye(c + 1)[n]) for c, n in zip(cutoffs, (n_plus, n_minus)))
    return TwoModeState(space, label=f"fock({n_plus},{n_minus})", factors=factors)
