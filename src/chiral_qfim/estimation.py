"""Numerical quantum Cramér–Rao pipeline.

Everything here is obtained by linear algebra on channel outputs, with no
closed-form input: parameter derivatives of ρ come from exact
differentiation of the Kraus weights, the QFIM is
F_xy = Σ_(j,k) 2 Re[∂ρ̃_x(j,k) conj(∂ρ̃_y(j,k))]/(λ_j+λ_k) over the
support pairs of the eigenbasis of ρ, and bounds follow from its
inverse.  This module is the route that the closed-form catalog is
checked against, so it must stay independent of that catalog.
``solve_sld`` solves one symmetric logarithmic derivative explicitly, for
the checks that compare it with a closed form.  Both the QFIM and the SLD
keep the pairs that ``_support_threshold`` defines, the one support cut;
``solve_sld`` reports the threshold it applied.

``compute_bounds_grid`` is the one route, over a grid of points, with
stacked results; ``compute_bounds`` is its grid of one, as a QfimResult.
It takes one of two inversions, which ``GridBounds.meta["inversion"]``
names.

The two-block inversion serves the inputs whose builder fixes the QFIM's
structure (``TwoModeState.two_block``: coherent, Fock product, single
photon and NOON): in native (α₊, α₋, φ₊, φ₋) it is two blocks with no α-φ
cross block, and photon counting attains the absorption block (Monras &
Paris, PRL 98, 160401 (2007); Adesso et al., PRA 79, 040305(R) (2009)).
Both blocks come from one kernel call that forms the loss outputs alone,
with no ∂ρ/∂α: the α block is counting's Σ (∂p)²/p on the outputs'
populations, ∂p/∂α from p itself (``channel.loss_population_slope``), and
the φ block the QFIM of ∂ρ/∂φ±.  Each block is inverted on its own, in
native coordinates, with no eigensolve: a product's blocks are diagonal;
a dense input's α block is inverted by the Cauchy–Binet form, as sums of
non-negative terms in log space, each zero population a limit, and its φ
block as a plain 2×2, checked PSD, whose smaller equilibrated eigenvalue
is cut at RCOND.  A zero population with ∂p ≠ 0 then pins its direction
exactly, and a block with one weak and one strong direction keeps both.
More than two labels in one block are dependent, so they are reported
unidentifiable, and the other block is bounded as usual.

The general inversion serves every other input: the labels' full QFIM is
formed and pseudo-inverted (``_inverted``).  Product inputs (states
carrying per-mode ``factors``) are solved as one stack of their distinct
single-mode problems, one per (mode input, absorption): both modes of an
H-polarized coherent probe or of the photon pair read one input, so a
common absorption, an absorption that recurs across points, or a phase
sweep is solved once and gathered back to each point; both inversions
share this.  Loss maps a coherent state to a coherent state, so a coherent
mode's output support is one vector: such a problem is solved from its
top eigenpair, found by power steps, with no linear solve, the inverse of
ρ + λ expanded about λtt† (``_rank_one_qfim``), and any other by an
eigensolve.  For φ alone, which is all the two-block inversion asks of a
mode, an output with no coherence (every output of a Fock product) has φ
information 0 and takes neither.  ``_mode_qfims`` applies the rule, and
``GridBounds.meta`` counts the problems each route solved.  Any other input is solved block
by block, over a stack of the output blocks that the input's nonzero
pattern fixes (``TwoModeState.output_blocks``), with the blocks' QFIMs
summed.  Both take their outputs from one call of the loss kernel
(``channel.factored_output_and_alpha_derivative``), on the single-mode
tables of a product's factors or the two-mode table of any other input.
Both solve at zero phase: the phase stage
e^{−i(φ₊n₊ + φ₋n₋)} is a unitary that commutes with n₊ and n₋, so it
leaves the QFIM unchanged.  Only ``channel_derivatives``, which returns an
output at its phase, applies ``channel.phase_stage``.  One eigensolve of
the stacked [F; D F D] both checks each QFIM PSD, on F's own scale, and
inverts it (``_inverted``, which ``invert_and_bound`` shares).

What depends only on the state, the labels or the cutoff is built once and
kept read-only: per state, a product's distinct padded mode inputs with
their loss tables, each distinct factor factored once, and the phase
generator −i(n_j − n_k) of their levels (``TwoModeState.mode_inputs``),
and a dense input's output blocks with their padded levels and the phase
generators of n₊ and n₋ on them (``TwoModeState.output_blocks``) and its
loss tables, each input block factored once (``TwoModeState.kraus_tables``),
all formed on the first bound, with no eigensolve for a rank-one factor
or block, which is every one the builders make (``fock._eigenpairs``);
per label tuple, the native-to-label pullback (``_native_pullback``) and
the split over the native blocks (``_two_block_plan``); per cutoff, the
loss binomials, exact running sums, and their exponent arrays
(``fock._root_binomials``).  Per input kind (with its cutoff and budget),
the prepared state itself is kept, read-only, in a bounded LRU of 8
(``experiments.prepare_input_state``), so the sweeps of one input, and
the members of a preset that share it, build, check and factor it once
and form its per-state tables on its first bound.  Results are never
cached: each call solves its own points, one grid or one point alike.

Parameter labels are either the native channel coordinates
("alpha_plus", "alpha_minus", "phi_plus", "phi_minus") or the chiral
combinations ("x_d", "x_s", "delta", "sigma").  Derivatives are taken
natively and the chiral labels formed as constant linear combinations.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import (
    ALPHA_PHI_NAMES,
    CHIRAL_NAMES,
    ChiralParams,
    ParamGrid,
    factored_output_and_alpha_derivative,
    grid_output_and_alpha_derivatives,
    loss_population_slope,
    phase_derivative,
    phase_stage,
    point_output_and_alpha_derivatives,
)
from .fock import ModeInputs, TwoModeState, require_trace_window
from .linalg import (
    adjoint,
    as_complex_matrix,
    hermitian_eigen,
    hermiticity_defect,
    real_if_exact,
    require_hermitian,
)

SUPPORT_RCOND = 1e-10
SLD_RESIDUAL_TOL = 1e-8
QFIM_PSD_TOL = 1e-9
RCOND = 1e-10
KERNEL_COMPONENT_TOL = 1e-6
# power steps that find a single-mode output's top eigenpair
POWER_STEPS = 3

ALL_PARAM_NAMES = ALPHA_PHI_NAMES + CHIRAL_NAMES

# chiral labels as constant combinations of native derivatives
_CHIRAL_COMBOS = {
    "x_d": (("alpha_plus", 1.0), ("alpha_minus", -1.0)),
    "x_s": (("alpha_plus", 1.0), ("alpha_minus", 1.0)),
    "delta": (("phi_plus", 0.5), ("phi_minus", -0.5)),
    "sigma": (("phi_plus", 0.5), ("phi_minus", 0.5)),
}


class NumericError(RuntimeError):
    """A numerical guarantee of the pipeline could not be met."""


@dataclass(frozen=True)
class ParamDerivative:
    """Hermitian, (near-)traceless ∂ρ_out/∂param."""

    param: str
    drho: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        drho = as_complex_matrix(self.drho)
        scale = max(1.0, float(np.abs(drho).max()))
        defect = hermiticity_defect(drho)
        if defect > 1e-10 * scale:
            raise NumericError(
                f"derivative for {self.param!r} has Hermiticity defect {defect:.3e}"
            )
        tr = abs(complex(np.trace(drho)))
        if tr > 1e-9:
            raise NumericError(f"derivative for {self.param!r} has trace {tr:.3e}")
        object.__setattr__(self, "drho", (drho + drho.conj().T) / 2.0)


@dataclass(frozen=True)
class SldMatrix:
    """Symmetric logarithmic derivative restricted to the support of ρ."""

    param: str
    L: np.ndarray
    support_rank: int
    residual: float
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class QfimResult:
    """One point of a ``GridBounds``: the QFIM F over an ordered parameter
    set, its inverse, and by label the bounds, None where unidentifiable,
    and which parameters F identifies; the covariances and parameter groups
    are read from F⁻¹ and F."""

    params: tuple
    F: np.ndarray
    F_inverse: np.ndarray
    bounds: dict
    identifiable: dict
    meta: dict = field(default_factory=dict)

    @functools.cached_property
    def covariances(self) -> dict:
        """(F⁻¹)_ij for each pair of labels i < j, None where either is
        unidentifiable; empty where F vanishes."""
        if self.meta.get("fully_singular"):
            return {}
        p, inv = self.params, self.F_inverse.tolist()
        ok = [self.identifiable[q] for q in p]
        pairs = itertools.combinations(range(len(p)), 2)
        return {(p[i], p[j]): inv[i][j] if ok[i] and ok[j] else None for i, j in pairs}

    @functools.cached_property
    def blocks(self) -> tuple:
        """The parameter groups that F couples (``_coupled_groups``)."""
        return _coupled_groups(self.params, self.F)

    def bound(self, param: str) -> float | None:
        return self.bounds[param]

    def covariance(self, p1: str, p2: str) -> float | None:
        """cov(p1, p2); None where either is unidentifiable, as when F = 0."""
        if p1 not in self.params or p2 not in self.params:
            raise KeyError((p1, p2))
        return self.covariances.get((p1, p2), self.covariances.get((p2, p1)))

    def entry(self, p1: str, p2: str) -> float:
        return float(self.F[self.params.index(p1), self.params.index(p2)])


@dataclass
class GridBounds:
    """Inverted QFIMs along a grid axis: F and F⁻¹ (B, n, n), bounds (B, n),
    defined where ``identifiable``, and where F vanishes.  ``meta`` names
    the route, the inversion (``two_block`` or ``general``) and the state,
    and for a product input how many distinct single-mode problems each
    route solved (``rank_one_problems``, ``eigensolved_problems``, and on
    the two-block inversion ``diagonal_problems``, outputs with no
    coherence).
    ``grid_bounds[b]`` is point b as one ``QfimResult``, for an int b;
    slice the arrays themselves for a part of the grid."""

    params: tuple
    F: np.ndarray
    F_inverse: np.ndarray
    bounds: np.ndarray
    identifiable: np.ndarray
    fully_singular: np.ndarray
    meta: dict

    def __len__(self) -> int:
        return len(self.F)

    def __getitem__(self, b: int) -> QfimResult:
        if not isinstance(b, (int, np.integer)):
            raise TypeError(f"GridBounds indices must be integers, not {type(b).__name__}")
        p, ok, lost = self.params, self.identifiable[b].tolist(), bool(self.fully_singular[b])
        return QfimResult(
            params=p,
            F=self.F[b],
            F_inverse=self.F_inverse[b],
            bounds={name: v if k else None for name, v, k in zip(p, self.bounds[b].tolist(), ok)},
            identifiable=dict(zip(p, ok)),
            meta={**self.meta, "fully_singular": True} if lost else dict(self.meta),
        )

    def covariance(self, p1: str, p2: str) -> np.ndarray:
        """cov(p1, p2) at each point, NaN where either is unidentifiable."""
        i, j = self.params.index(p1), self.params.index(p2)
        ok = self.identifiable[:, i] & self.identifiable[:, j]
        return np.where(ok, self.F_inverse[:, i, j], np.nan)


def channel_derivatives(
    input_state: TwoModeState, params: ChiralParams, param_labels
) -> tuple[TwoModeState, list[ParamDerivative]]:
    """Channel output together with ∂ρ for each requested parameter.

    The loss output and both α-derivatives come from one call of the loss
    kernel on the state's ``kraus_tables``, zero outside its
    ``output_blocks`` (``channel.point_output_and_alpha_derivatives``), and
    the phase stage then acts on all three.  The output is
    checked once: finite, Hermitian and in the trace window.  The
    φ-derivatives come from the checked output, and each label's matrix is
    their constant combination.
    """
    labels = tuple(param_labels)
    pullback = _native_pullback(labels)
    space = input_state.space
    loss = point_output_and_alpha_derivatives(input_state, params)
    output, d_plus, d_minus = phase_stage(loss, space, params)
    output = require_hermitian(output)
    require_trace_window(np.trace(output), input_state.trace_deficit_budget)
    phases = [phase_derivative(output, n) for n in space.number_grids()]
    native = [d_plus, d_minus, *phases]
    mats = [sum(w * d for w, d in zip(pullback[:, j], native) if w) for j in range(len(labels))]
    return input_state.with_rho(output), [
        ParamDerivative(param=p, drho=m) for p, m in zip(labels, mats)
    ]


def _support_threshold(lam: np.ndarray, allow_empty: bool = False) -> np.ndarray:
    """The support cut of ascending spectra ``lam`` (..., d): a pair (j, k)
    of a spectrum lies on the support when λ_j + λ_k exceeds the returned
    SUPPORT_RCOND·λ_max, shaped (..., 1); the other pairs belong to the
    kernel.  A spectrum whose λ_max ≤ 0 raises, or with ``allow_empty`` (a
    block that the channel leaves empty) keeps no pair: its threshold is ∞.
    """
    threshold = SUPPORT_RCOND * lam[..., -1:]
    empty = threshold <= 0.0
    if np.count_nonzero(empty):
        if not allow_empty:
            raise NumericError("density matrix has no positive eigenvalue")
        threshold[empty] = np.inf
    return threshold


def solve_sld(rho_state: TwoModeState, drho: ParamDerivative) -> SldMatrix:
    """Solve ∂ρ = ½(Lρ + ρL) spectrally on the support of ρ.

    In the eigenbasis of ρ, L_jk = 2 ∂ρ_jk/(λ_j + λ_k) on the pairs that
    ``_support_threshold`` keeps; the kernel pairs are zeroed (their count
    and dropped weight go into metadata).  The residual reported is
    ‖∂ρ − ½(Lρ + ρL)‖_max projected onto the kept pairs.
    """
    dec = hermitian_eigen(rho_state.rho)
    lam, v = dec.eigenvalues, dec.eigenvectors
    threshold = float(_support_threshold(lam)[0])
    pair_sums = np.add.outer(lam, lam)
    keep = pair_sums > threshold
    dtilde = v.conj().T @ drho.drho @ v
    ltilde = np.where(keep, 2.0 * dtilde / np.where(keep, pair_sums, 1.0), 0.0)
    l_mat = v @ ltilde @ v.conj().T
    l_mat = (l_mat + l_mat.conj().T) / 2.0
    # end-to-end residual of the defining equation, on the kept pairs
    r = drho.drho - 0.5 * (l_mat @ rho_state.rho + rho_state.rho @ l_mat)
    rtilde = v.conj().T @ r @ v
    residual = float(np.abs(np.where(keep, rtilde, 0.0)).max())
    scale = max(1.0, float(np.abs(drho.drho).max()))
    if residual > SLD_RESIDUAL_TOL * scale:
        raise NumericError(
            f"SLD residual {residual:.3e} exceeds {SLD_RESIDUAL_TOL:.1e}"
            f" for parameter {drho.param!r}"
        )
    support_rank = int(np.sum(lam > threshold))
    dropped = np.abs(np.where(keep, 0.0, dtilde))
    return SldMatrix(
        param=drho.param,
        L=l_mat,
        support_rank=support_rank,
        residual=residual,
        meta={
            "kernel_pairs_zeroed": int(np.sum(~keep)),
            "max_dropped_weight": float(dropped.max()) if dropped.size else 0.0,
            "support_threshold": threshold,
        },
    )


def _coupled_groups(params: tuple, f: np.ndarray) -> tuple:
    """The groups of ``params`` that the (n, n) QFIM ``f`` joins: i and j
    are coupled when |F_ij| or |F_ji| > RCOND·sqrt(F_ii F_jj), a unit-free
    test, and a group is a connected set of coupled parameters, in the
    order of its first member."""
    root = np.sqrt(np.maximum(f.diagonal(), 0.0))
    adj = np.abs(f) > RCOND * root[:, None] * root[None, :]
    adj = (adj | adj.T).tolist()
    group = list(range(len(params)))
    for i, j in itertools.combinations(range(len(params)), 2):
        if adj[i][j] and group[i] != group[j]:
            group = [group[i] if g == group[j] else g for g in group]
    return tuple(
        tuple(p for p, g in zip(params, group) if g == label) for label in dict.fromkeys(group)
    )


def _eigenbasis_qfim(
    rho, mats, pullback: np.ndarray | None = None, modes: int = 1, allow_empty: bool = False
):
    """F[b, x, y] = Σ_{kept (j,k)} 2 Re[∂ρ̃_x(j,k) · conj(∂ρ̃_y(j,k))]/(λ_j+λ_k).

    ``rho`` stacks ``modes`` blocks of B exactly Hermitian matrices (one per
    block of one output, or one in all for a product's single-mode
    problems) and ``mats`` one such stack of ∂ρ matrices per parameter,
    and gives each matrix's QFIM.
    Each is cut at its own scale, by ``_support_threshold`` as in
    ``solve_sld``; with ``allow_empty``, a matrix with no support gives 0.
    With a ``pullback`` B, the QFIM is that of the labels
    ∂ρ̃_y = Σ_x B[x, y] ∂ρ̃_x, combined after the rotation.
    """
    lam, v = np.linalg.eigh(real_if_exact(rho))
    threshold = _support_threshold(lam, allow_empty)
    # Every kept pair (λ_j + λ_k > threshold) has an index with λ > threshold/2,
    # among the last s of the ascending λ, so rotating ∂ρ onto those rows alone
    # is exact; each (other, last-s) pair adds what its mirror does, by
    # hermiticity, so the mirrors double the weight of the other columns.  A
    # point's matrices share its largest s, and the points of each s are solved
    # apart: no point's sums, nor its bits, depend on the rest of the stack.
    s = (lam > 0.5 * threshold).sum(axis=1)
    if modes > 1:
        s = s.reshape(modes, -1).max(axis=0)
    s = s.tolist()
    if min(s) == max(s):
        return _rotated_qfim(lam, v, threshold, mats, s[0], pullback)
    s_all = np.array(s * modes)
    order = np.argsort(s_all, kind="stable")  # each run of one s, then back in point order
    parts = [
        _rotated_qfim(lam[at], v[at], threshold[at], [m[at] for m in mats], s_all[at[0]], pullback)
        for at in np.split(order, np.flatnonzero(np.diff(s_all[order])) + 1)
    ]
    return np.concatenate(parts)[np.argsort(order)]


def _rotated_qfim(lam, v, threshold, mats, s: int, pullback) -> np.ndarray:
    """``_eigenbasis_qfim`` where every kept pair has an index among the last s."""
    pair_sums = lam[:, -s:, None] + lam[:, None, :]
    keep = pair_sums > threshold[:, :, None]
    weight = np.divide(2.0, pair_sums, out=np.zeros(pair_sums.shape), where=keep)
    weight[:, :, : lam.shape[1] - s] *= 2.0
    real_basis = v.dtype.kind != "c"
    v_s = adjoint(v[:, :, -s:])
    rows = [v_s @ (real_if_exact(m) if real_basis else m) @ v for m in mats]
    rows = np.concatenate([row[:, None] for row in rows], axis=1)
    if pullback is not None:
        rows = np.einsum("xy,bxjk->byjk", pullback, rows)
    rows = rows.reshape(*rows.shape[:2], -1)
    weighted = weight.reshape(len(weight), 1, -1) * rows
    return (weighted @ adjoint(rows)).real


@functools.lru_cache(maxsize=64)
def _native_pullback(param_labels: tuple) -> np.ndarray:
    """B with ∂ρ/∂label_j = Σ_i B[i, j] ∂ρ/∂native_i, rows in ALPHA_PHI_NAMES
    order; read-only, and cached per label tuple."""
    b = np.zeros((len(ALPHA_PHI_NAMES), len(param_labels)))
    for j, p in enumerate(param_labels):
        if p in ALPHA_PHI_NAMES:
            b[ALPHA_PHI_NAMES.index(p), j] = 1.0
        elif p in _CHIRAL_COMBOS:
            for native, weight in _CHIRAL_COMBOS[p]:
                b[ALPHA_PHI_NAMES.index(native), j] = weight
        else:
            raise ValueError(
                f"unknown parameter {p!r}; expected one of {ALL_PARAM_NAMES}"
            )
    b.flags.writeable = False
    return b


def _block_stack(input_state: TwoModeState, grid: ParamGrid, derivatives: bool, which) -> tuple:
    """A dense input's checked loss outputs (B, dim, dim) at each grid
    point, the blocks ``which`` (an index into ``output_blocks``) of each,
    and with ``derivatives`` those of their ∂/∂α₊, ∂/∂α₋, as a (1 or 3,
    K·B, s, s) stack, and ∂/∂φ₊, ∂/∂φ₋ of those output blocks (2, K·B, s,
    s).

    Loss keeps each mode's coherence order, so every output is block
    diagonal in the ``output_blocks`` of the input.  The blocks of each
    output are gathered into one zero-padded stack, at φ± = 0, where a real
    input keeps real outputs.  The outputs are checked once, finite,
    Hermitian and in the trace window, and the ∂/∂φ± come from the checked
    blocks and each gathered level's (n₊, n₋).
    """
    _, levels, phase_generators = input_state.output_blocks
    levels, phase_generators = levels[which], phase_generators[:, which]
    dim, size = input_state.space.dim, levels.shape[-1]
    loss = grid_output_and_alpha_derivatives(
        input_state, grid.alpha_plus, grid.alpha_minus, derivatives
    )
    output = require_hermitian(loss[0])
    require_trace_window(np.trace(output, axis1=1, axis2=2), input_state.trace_deficit_budget)
    padded = np.zeros((len(loss), len(grid), dim + 1, dim + 1), output.dtype)
    padded[:, :, :dim, :dim] = output, *loss[1:]
    # (·, K, B, s, s): block k of each point's output and α-derivatives
    points = np.arange(len(grid))[:, None, None]
    stack = padded[:, points, levels[..., None], levels[..., None, :]]
    d_phi = (phase_generators * stack[0]).reshape(2, -1, size, size)
    return output, stack.reshape(len(loss), -1, size, size), d_phi


def _block_qfim(input_state: TwoModeState, grid: ParamGrid, pullback: np.ndarray) -> tuple:
    """The labels' QFIM at each grid point of a dense input, block by block,
    with no count of single-mode problems: an empty dict.

    An output's QFIM is the sum of its blocks' QFIMs (``_block_stack``),
    each cut at its own λ_max; a block that the channel leaves empty at a
    point gives 0 there.  A fully coherent input is one block, the whole
    output.
    """
    _, (output, d_plus, d_minus), d_phi = _block_stack(input_state, grid, True, slice(None))
    modes = len(input_state.output_blocks.blocks)
    f = _eigenbasis_qfim(output, [d_plus, d_minus, *d_phi], pullback, modes, allow_empty=True)
    return f.reshape(modes, len(grid), *f.shape[1:]).sum(axis=0), {}


def _distinct_problems(inputs: ModeInputs, rows: list, derivatives: bool = True) -> tuple:
    """Loss outputs, and with ``derivatives`` their ∂/∂α, for each distinct
    (input, absorption) pair, from one list of absorptions per input, N
    problems in all, in one kernel call on the inputs' loss tables; with
    each input's distinct absorptions and the index of each entry of
    ``rows`` among them."""
    distinct, at = [], []
    for row in rows:
        # the row's distinct absorptions, numbered on from the rows before
        start = sum(map(len, distinct))
        index = {a: start + i for i, a in enumerate(dict.fromkeys(row))}
        distinct.append(list(index))
        at += map(index.get, row)
    owners = [owner for owner, row in enumerate(distinct) for _ in row]
    problems = [a for row in distinct for a in row]
    tables, spectra = inputs.tables, inputs.spectra
    loss = factored_output_and_alpha_derivative(tables, spectra, owners, problems, derivatives)
    return (*loss, distinct, np.array(at))


def _top_eigenpairs(rho: np.ndarray) -> tuple:
    """The top eigenpair (λ, t) of each exactly Hermitian matrix of ``rho``
    (N, d, d), λ (N, 1, 1) and unit t (N, d, 1), by ``POWER_STEPS`` power
    steps from its largest-diagonal column, and whether t alone is its
    support.

    It is when λ > 0 and ‖ρ − λtt†‖_F ≤ θ/2 less a rounding margin,
    θ = SUPPORT_RCOND·λ: every other eigenvalue of ρ then lies within θ/2
    of 0 (Weyl), so the support cut of ``_eigenbasis_qfim`` keeps exactly
    the pairs of t with each eigenvector.  A zero column gives t = 0 and
    λ = 0, which is refused.
    """
    start = rho.diagonal(0, 1, 2).real.argmax(axis=1)
    rt = rho[np.arange(len(rho)), :, start][..., None]
    for _ in range(POWER_STEPS):
        t = rt / np.maximum(np.sqrt((adjoint(rt) @ rt).real), np.finfo(float).tiny)
        rt = rho @ t
    lam = (adjoint(t) @ rt).real
    defect = np.linalg.norm(rho - lam * (t @ adjoint(t)), axis=(1, 2))
    # eigh's spectrum and the defect itself are exact to a few d·ε·λ
    cut = (0.5 * SUPPORT_RCOND - 16 * rho.shape[-1] * np.finfo(float).eps) * lam[:, 0, 0]
    return lam, t, (lam[:, 0, 0] > 0.0) & (defect <= cut)


def _rank_one_qfim(rho, lam, t, d_alpha=None) -> np.ndarray:
    """The φ QFIMs (N, 1, 1), or with ``d_alpha`` the (α, φ) QFIMs (N, 2,
    2), of single-mode problems whose support is the top eigenvector t of
    ρ, with eigenvalue λ (``_top_eigenpairs``).

    The support pairs are (t, k) for every eigenvector k of ρ, so
    ``_eigenbasis_qfim``'s sum is F_xy = 4 Re u_x†(ρ + λ)⁻¹u_y − a_x a_y/λ,
    u_x = (∂ρ/∂x)t and a_x = t†u_x.  ρ = λtt† + E with ‖E‖_F ≤ θ/2 =
    5e-11·λ, and (λ(1 + tt†))⁻¹ = P/λ, P = 1 − ½tt†, so with no solve
    (ρ + λ)⁻¹u = Pu/λ − P E Pu/λ², E Pu = ρPu − ½λ t a, short of a term of
    order (5e-11)²·|u|/λ, below rounding.  u_φ = −i[n, ρ]t = −i(λ n∘t −
    ρ(n∘t)) is carried without its −i, which turns the cross entry into Im;
    in real arithmetic it is exactly 0.
    """
    nt = np.arange(rho.shape[-1])[:, None] * t
    u = lam * nt - rho @ nt
    if d_alpha is not None:
        u = np.concatenate((d_alpha @ t, u), axis=2)
    a = adjoint(u) @ t
    half_ta = 0.5 * (t @ adjoint(a))  # ½ t t†u
    pu = u - half_ta
    e_pu = rho @ pu - lam * half_ta
    x = pu / lam - (e_pu - t @ (0.5 * (adjoint(t) @ e_pu))) / lam**2
    h = 4.0 * (adjoint(u) @ x) - (a @ adjoint(a)) / lam
    f = np.ascontiguousarray(h.real)
    if d_alpha is not None:
        f[:, 0, 1] = f[:, 1, 0] = h[:, 0, 1].imag
    return f


def _mode_qfims(output, hermitian, d_alpha, generator) -> tuple:
    """The (α, φ) QFIMs (N, 2, 2) of single-mode problems, or with
    ``d_alpha`` None their φ QFIMs (N, 1, 1), from their loss outputs as the
    kernel gives them and as ``require_hermitian`` returns them, their ∂/∂α
    and the phase generator of their levels; with the number of problems
    solved as rank one, by eigensolve and, for φ alone, as diagonal.

    For φ alone, an output with no nonzero coherence, as loss makes of
    every Fock-product input, has ∂ρ/∂φ = G∘ρ = 0 and so information 0
    exactly, with no eigenpair formed; the support cut still refuses it
    with no positive population.  A problem whose output support is one
    vector (``_top_eigenpairs``), as loss makes of every coherent input,
    takes ``_rank_one_qfim``; any other takes ``_eigenbasis_qfim``, with its
    ∂ρ/∂φ formed for it alone, where the support cut refuses an output with
    no positive eigenvalue.  Each problem is solved on its own, so its bits
    do not depend on the rest of the stack.
    """
    size = 1 if d_alpha is None else 2
    f = np.zeros((len(output), size, size))
    todo, counts = np.arange(len(output)), {}
    if d_alpha is None:
        coherence = np.count_nonzero(output, axis=(1, 2)) > np.count_nonzero(
            output.diagonal(0, 1, 2), axis=1
        )
        counts["diagonal_problems"] = len(output) - int(np.count_nonzero(coherence))
        if counts["diagonal_problems"]:
            # a diagonal output's eigenvalues are its populations
            _support_threshold(hermitian[~coherence].diagonal(0, 1, 2).real.max(1, keepdims=True))
            if not coherence.any():
                return f, {"rank_one_problems": 0, "eigensolved_problems": 0, **counts}
            todo = np.flatnonzero(coherence)
            output, hermitian = output[todo], hermitian[todo]
    lam, t, rank_one = _top_eigenpairs(hermitian)
    one, rest = np.flatnonzero(rank_one), np.flatnonzero(~rank_one)
    if len(one):
        d_one = None if d_alpha is None else d_alpha[one]
        f[todo[one]] = _rank_one_qfim(hermitian[one], lam[one], t[one], d_one)
    if len(rest):
        # ∂ρ/∂φ of the unsymmetrized output: an unpadded mode then gets the
        # same bits as when it is solved alone
        mats = [generator * output[rest]]
        if d_alpha is not None:
            mats.insert(0, d_alpha[rest])
        f[todo[rest]] = _eigenbasis_qfim(hermitian[rest], mats)
    return f, {"rank_one_problems": len(one), "eigensolved_problems": len(rest), **counts}


def _product_stack(input_state: TwoModeState, grid: ParamGrid, derivatives: bool) -> tuple:
    """A product input's distinct single-mode problems at the grid's
    points, solved by ``_mode_qfims``: their (α, φ) QFIMs (N, 2, 2) with
    ``derivatives``, else their φ QFIMs (N, 1, 1), with how many problems
    each route solved; their loss outputs as ``require_hermitian`` returns
    them and their absorptions (N,); and for each point's modes, + then −,
    the index of its problem and its output trace, (2, B) each.

    The channel acts on each mode separately, so a product input ρ₊ ⊗ ρ₋
    gives the product output ρ₊' ⊗ ρ₋', and each mode's part, at φ = 0,
    depends only on the mode's input and absorption: a single-mode
    problem.  The state's ``mode_inputs`` holds each distinct input once,
    with its loss tables padded to the common cutoff with zero levels,
    which loss keeps empty; the absorptions of the modes that read an
    input are pooled and each distinct one is solved once, in one kernel
    call (``_distinct_problems``).  Repeated absorptions collapse: both
    modes of one input at a common absorption, an α₊ equal to another
    point's α₋, or a phase sweep.  Each problem is solved on its own, so
    its bits do not depend on the other mode of its point.  The output
    stack is checked once, finite and Hermitian, and each point's product
    of output traces must lie in the window.
    """
    inputs = input_state.mode_inputs
    # one row of absorptions per input, pooled over the modes that read it
    rows = [[] for _ in inputs.tables]
    for k, alphas in zip(inputs.reads, (grid.alpha_plus, grid.alpha_minus)):
        rows[k] += alphas.tolist()
    output, *d_alpha, distinct, at = _distinct_problems(inputs, rows, derivatives)
    hermitian = require_hermitian(output)
    d_alpha = d_alpha[0] if derivatives else None
    f, solved = _mode_qfims(output, hermitian, d_alpha, inputs.phase_generator)
    at = at.reshape(2, len(grid))
    tr = hermitian.diagonal(0, 1, 2).real.sum(axis=1)[at]
    require_trace_window(tr[0] * tr[1], input_state.trace_deficit_budget)
    return f, solved, hermitian, np.concatenate(distinct), at, tr


def _product_qfim(input_state: TwoModeState, grid: ParamGrid, pullback: np.ndarray) -> tuple:
    """The labels' QFIM at each grid point of a product input, from one
    stack of its distinct single-mode problems (``_product_stack``), with
    how many problems each route solved.

    Its native QFIM splits into an (α₊, φ₊) block, solved on ρ₊' alone and
    scaled by tr ρ₋', and the mirror (α₋, φ₋) block; the cross blocks are
    tr ∂ρ₊' · tr ∂ρ₋' = 0.  The requested labels follow through the
    constant native-to-label pullback, the same combinations
    ``channel_derivatives`` forms.
    """
    f, solved, _, _, at, tr = _product_stack(input_state, grid, derivatives=True)
    f_plus, f_minus = f[at]
    # ALPHA_PHI_NAMES interleaves the modes: (α₊, α₋, φ₊, φ₋)
    native = np.zeros((len(grid), len(ALPHA_PHI_NAMES), len(ALPHA_PHI_NAMES)))
    native[:, 0::2, 0::2] = f_plus * tr[1][:, None, None]
    native[:, 1::2, 1::2] = f_minus * tr[0][:, None, None]
    return pullback.T @ native @ pullback, solved


class _BlockPlan(NamedTuple):
    """How a label tuple splits over the native blocks (α₊, α₋) and (φ₊,
    φ₋) (``_two_block_plan``).  ``blocks``: per block holding one or two
    labels, the block's index, its labels' indices, their pullback columns
    b_j (2, L) and the rows e_j (2, 2) with label_j = e_j·(the block's
    coordinates).  ``lost`` (n,): the labels of a block holding more than
    two.  For a diagonal native F (4 entries F_k): ``pair_weights`` (4, n,
    n), with F⁻¹ of the two-label blocks Σ_k pair_weights[k]/F_k, ``reads``
    (4, n), whether a label of a two-label block reads coordinate k,
    ``alone`` (n,), whether a label is alone in its block, and
    ``lone_weights`` (4, L), b_k² of each such label."""

    blocks: tuple
    lost: np.ndarray
    pair_weights: np.ndarray
    reads: np.ndarray
    alone: np.ndarray
    lone_weights: np.ndarray


@functools.lru_cache(maxsize=64)
def _two_block_plan(param_labels: tuple) -> _BlockPlan:
    """The labels' ``_BlockPlan``; read-only, cached per label tuple.

    Two labels of a block are its coordinates, e = B⁻¹ of their columns.
    One label b alone is bounded with the block's other coordinate b⊥
    known: its rows are those of the coordinates (b, b⊥), so e_0 = b/|b|²
    and e_1 ∥ b⊥.  More than two labels of a block are dependent, no two
    of them parallel, so none is identifiable, whatever the block's F: they
    are lost, with 0 in their rows of F⁻¹.
    """
    pullback, n, blocks = _native_pullback(param_labels), len(param_labels), []
    pair_weights, lone_weights = np.zeros((4, n, n)), np.zeros((4, n))
    lost = np.zeros(n, bool)
    for block in range(2):
        columns = pullback[2 * block : 2 * block + 2]
        members = np.flatnonzero(columns.any(axis=0))
        if len(members) > 2:
            lost[members] = True
            continue
        if not len(members):
            continue
        columns, at = columns[:, members], slice(2 * block, 2 * block + 2)
        if len(members) == 1:
            lone_weights[at, members[0]] = columns[:, 0] ** 2
            rows = np.linalg.inv(np.column_stack((columns[:, 0], [-columns[1, 0], columns[0, 0]])))
        else:
            rows = np.linalg.inv(columns)
            # e_jm e_km of each coordinate m, at (m, j, k)
            pair_weights[at, members[:, None], members] = (rows[:, None, :] * rows[None]).T
        blocks.append((block, members, columns, rows))
    alone = lone_weights.any(axis=0)
    reads = pair_weights.any(axis=2)
    plan = _BlockPlan(tuple(blocks), lost, pair_weights, reads, alone, lone_weights[:, alone])
    for array in (*plan[1:], *(a for block in blocks for a in block[1:])):
        array.flags.writeable = False
    return plan


def _diagonal_bounds(info, plan: _BlockPlan) -> tuple:
    """F⁻¹ (B, n, n) and which labels are identified (B, n), from a
    diagonal native F, ``info`` (B, 4), each entry in [0, ∞]: ∞ where a
    zero population has ∂p ≠ 0, the limit.

    A label of a two-label block: e_jᵀF⁻¹e_k = Σ_m e_jm e_km/F_m, a
    coordinate with F_m = 0 adding nothing, and a label that reads it is
    not identified.  A label b alone: 1/Σ_m b_m² F_m, 0 where an F_m it
    reads is ∞, not identified where the sum is 0.  Each F_m, an eigenvalue
    of F, must not fall below −QFIM_PSD_TOL·max(1, |F_m|), and is taken as
    0 if it does not reach 0.  Every product is exact and every sum has at
    most two nonzero terms, so a point's bits do not depend on its stack.
    """
    # the tolerance is at least QFIM_PSD_TOL, so |F| is read only past it
    if info.min() < -QFIM_PSD_TOL:
        negative = info < -QFIM_PSD_TOL * np.maximum(1.0, np.abs(info))
        if negative.any():
            raise NumericError(f"QFIM has negative eigenvalue {info[negative][0]:.3e}")
    kernel = info <= 0.0
    inverse = np.divide(1.0, info, out=np.zeros(info.shape), where=~kernel)
    pair = plan.pair_weights
    f_inv = (inverse @ pair.reshape(4, -1)).reshape(len(info), *pair.shape[1:])
    identifiable = ~(kernel @ plan.reads) & ~plan.lost
    alone = plan.alone
    if alone.any():
        weights, infinite = plan.lone_weights, np.isinf(info)
        hit = infinite @ (weights > 0.0)
        total = np.where(infinite | kernel, 0.0, info) @ weights
        lone = np.divide(1.0, total, out=np.zeros(total.shape), where=total > 0.0)
        lone[hit] = 0.0
        identifiable[:, alone] = hit | (total > 0.0)
        f_inv[:, alone, alone] = lone
    return f_inv, identifiable


@functools.lru_cache(maxsize=16)
def _pairs(m: int) -> tuple:
    """The index pairs i < j of m pieces, read-only, cached per m."""
    pairs = np.triu_indices(m, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _log_sum_top(order, x) -> tuple:
    """The top ``order`` among the terms of ``x`` (…, M) that are not −∞, −1
    where none is, and log Σ exp(x) over the terms of that order, along
    the last axis.  A term's order counts the zero populations it divides
    by: a term of higher order is infinitely larger, so the terms below
    the top order drop out of the limit."""
    order = np.where(x > -np.inf, order, -1)
    top = order.max(axis=-1)
    x = np.where(order == top[..., None], x, -np.inf)
    peak = x.max(axis=-1)
    peak = np.where(peak > -np.inf, peak, 0.0)
    # summed along contiguous rows, so a point's bits do not depend on its stack
    terms = np.ascontiguousarray(np.exp(x - peak[..., None]))
    return top, peak + np.log(terms.sum(axis=-1))


def _level_pieces(p, g) -> tuple:
    """The counting information of output levels with populations p (B, M)
    and gradients g (B, M, 2), as rank-one pieces g gᵀ/p: each piece's
    order, 1 where p = 0 and g ≠ 0 (an infinite piece, taken as the limit
    p → 0), else 0; its log weight log(|g|²/p), or log |g|² at order 1, −∞
    where g = 0; and the unit direction of g."""
    norm = np.sqrt((g * g).sum(axis=-1))
    zero = p == 0.0
    log_weight = 2.0 * np.log(norm) - np.log(np.where(zero, 1.0, p))
    direction = g / np.where(norm > 0.0, norm, 1.0)[..., None]
    return (zero & (norm > 0.0)).astype(int), log_weight, direction


_SIGNS = np.array([1.0, -1.0])
_SIGNS.flags.writeable = False


def _phase_pieces(f) -> tuple:
    """The native phase QFIMs f (B, 2, 2), checked PSD, as two rank-one
    pieces each, in ``_level_pieces``' form.

    The smaller eigenvalue of each f must not fall below
    −QFIM_PSD_TOL·max(1, max|f|).  On the unit-diagonal C = D f D, D =
    diag(f)^(−1/2), with off-diagonal c, f = Σ± (1 ± c)/2 (a, ±b)(a, ±b)ᵀ,
    a = √f₀₀ and b = √f₁₁, and the piece of eigenvalue 1 − |c| is cut where
    1 − |c| ≤ RCOND·(1 + |c|), the rule ``_inverted`` applies to C.
    """
    f00, f11, f01 = f[:, 0, 0], f[:, 1, 1], f[:, 0, 1]
    lam_min = 0.5 * (f00 + f11) - np.hypot(0.5 * (f00 - f11), f01)
    if np.count_nonzero(lam_min < -QFIM_PSD_TOL):
        negative = lam_min < -QFIM_PSD_TOL * np.maximum(1.0, np.abs(f).max(axis=(1, 2)))
        if negative.any():
            raise NumericError(f"QFIM has negative eigenvalue {lam_min[np.argmax(negative)]:.3e}")
    a, b = np.sqrt(np.maximum(f00, 0.0)), np.sqrt(np.maximum(f11, 0.0))
    root, total = a * b, a * a + b * b
    c = np.clip(np.divide(f01, root, out=np.zeros_like(root), where=root > 0.0), -1.0, 1.0)
    weight = (0.5 * total)[:, None] * (1.0 + _SIGNS * c[:, None])
    cut = 1.0 - np.abs(c) <= RCOND * (1.0 + np.abs(c))
    weight[cut, (c[cut] > 0.0).astype(int)] = 0.0  # the piece of eigenvalue 1 − |c|
    direction = np.empty((len(f), 2, 2))
    direction[:, :, 0], direction[:, :, 1] = a[:, None], b[:, None] * _SIGNS
    direction /= np.sqrt(np.where(total > 0.0, total, 1.0))[:, None, None]
    return np.zeros(weight.shape, int), np.log(weight), direction


def _piece_sum(a, b) -> np.ndarray:
    """Σ_i a_i b_iᵀ over the pieces i of (B, M, k) stacks, as products and
    sums apart, not matmul, whose kernel may fuse them, so that mirror
    terms no longer cancel to 0; each sum runs along one contiguous row,
    so a point's bits do not depend on its stack."""
    terms = a[:, :, :, None] * b[:, :, None, :]
    return np.ascontiguousarray(terms.transpose(0, 2, 3, 1)).sum(axis=-1)


def _block_covariance(pieces, columns, rows) -> tuple:
    """The covariance (B, L, L) of a block's labels and which it identifies
    (B, L), from the block's information as rank-one pieces
    (``_level_pieces``: order, log weight w_i and unit direction u_i, each
    (B, M)).  A label b alone in its block, with the other coordinate
    known, has the variance 1/bᵀFb, bᵀFb = Σ_i e^{w_i} (u_i·b)² summed at its
    top order, 0 where that is an infinite piece.

    F⁻¹ = adj F/det F with adj F = Σ_i e^{w_i} h_i h_iᵀ, h_i = u_i turned by
    90°, and det F = Σ_{i<j} e^{w_i+w_j} (u_i × u_j)² (Cauchy–Binet): both
    are sums of non-negative terms, so nothing cancels, and each is summed
    in log space at its top order (``_log_sum_top``), which takes each zero
    population as a limit.  e_jᵀF⁻¹e_k = Σ_i X_ij X_ik with X_ij =
    e^{(w_i − log det)/2} h_i·e_j.  Where det F vanishes, F is the heaviest
    piece's direction g alone: e_j is identified where it lies along g, to
    KERNEL_COMPONENT_TOL, and F⁺ = g gᵀ/Σ e^{w_i} at order 0, 0 at order 1
    (an infinite piece); where F is 0 nothing is identified.  A label whose
    variance is not finite is not identified, with 0 in its row.
    """
    order, log_weight, direction = pieces
    if columns.shape[1] == 1:
        # bᵀFb = Σ_i e^{w_i} (u_i·b)², at its top order
        along = 2.0 * np.log(np.abs((direction * columns[:, 0]).sum(axis=-1)))
        top, log_info = _log_sum_top(order, log_weight + along)
        variance = np.where(top > 0, 0.0, np.exp(-log_info))
        ok = np.isfinite(variance)
        return np.where(ok, variance, 0.0)[:, None, None], ok[:, None]
    turned = direction[..., ::-1] * np.array([-1.0, 1.0])
    i, j = _pairs(direction.shape[1])
    cross = (turned[:, i] * direction[:, j]).sum(axis=-1)
    pair = log_weight[:, i] + log_weight[:, j] + 2.0 * np.log(np.abs(cross))
    top, log_det = _log_sum_top(order[:, i] + order[:, j], pair)
    full = log_det > -np.inf
    # −∞ − −∞ is NaN where det F = 0, and that row is replaced below
    log_c = np.where(order == top[:, None], log_weight - log_det[:, None], -np.inf)
    vectors, ok = turned, np.ones((len(order), 2), bool)
    if not full.all():
        # det F = 0: the heaviest piece's direction g alone
        top_one, log_sum = _log_sum_top(order, log_weight)
        heavy = np.where(order == top_one[:, None], log_weight, -np.inf).argmax(axis=1)
        points = np.arange(len(order))
        alone = np.full(log_c.shape, -np.inf)
        alone[points, heavy] = np.where(top_one == 0, -log_sum, -np.inf)
        log_c = np.where(full[:, None], log_c, alone)
        vectors = np.where(full[:, None, None], turned, direction)
        kernel = np.abs((turned[points, heavy][:, None] * rows).sum(axis=-1))
        along = kernel <= KERNEL_COMPONENT_TOL * np.hypot(rows[:, 0], rows[:, 1])
        ok = full[:, None] | ((log_sum > -np.inf)[:, None] & along)
    x = np.exp(0.5 * log_c)[..., None] * (vectors[:, :, None] * rows).sum(axis=-1)
    cov = _piece_sum(x, x)
    ok &= np.isfinite(cov.diagonal(0, 1, 2))
    return np.where(np.isfinite(cov), cov, 0.0), ok


def _product_blocks(input_state: TwoModeState, grid: ParamGrid) -> tuple:
    """The diagonal native information of a product input at each grid
    point, (B, 4) in ALPHA_PHI_NAMES order with ∞ where a zero population
    has ∂p ≠ 0, its finite part (B, 4), and how many single-mode problems
    each route solved.

    One kernel call, with no derivatives, gives each distinct problem's
    loss output and φ QFIM (``_product_stack``).  Every entry is one mode's,
    scaled by the other mode's output trace.  The α entries come from
    counting: Σ (∂p)²/p over p > 0, with p the output's diagonal and ∂p/∂α
    from p (``channel.loss_population_slope``).
    """
    f_phi, solved, hermitian, distinct, at, tr = _product_stack(input_state, grid, False)
    p = hermitian.diagonal(0, 1, 2).real
    d_p = loss_population_slope(p, distinct[:, None])
    regular = p > 0.0
    f_alpha = (d_p * np.divide(d_p, p, out=np.zeros(p.shape), where=regular)).sum(axis=1)
    # (B, 4) in native order, each mode's entries scaled by the other's trace
    finite = (np.concatenate((f_alpha[at], f_phi[at, 0, 0])) * tr[[1, 0, 1, 0]]).T
    info = finite.copy()
    info[:, :2][(~regular & (d_p != 0.0)).any(axis=1)[at].T] = np.inf
    return info, finite, solved


@functools.lru_cache(maxsize=64)
def _block_levels(blocks: tuple, minus_levels: int) -> tuple:
    """The output blocks that hold a coherence, more than one level, which
    alone add to the φ block, and the levels some block holds, no other
    ever populated, each beside its mirror (n₋, n₊), so that at α₊ = α₋
    their terms of a covariance cancel to 0 before the next is added;
    cached per block layout."""
    numbers = [divmod(level, minus_levels) for block in blocks for level in block]
    numbers.sort(key=lambda n: (sum(n), max(n), n))
    held = np.array([a * minus_levels + b for a, b in numbers])
    coherent = np.array([k for k, block in enumerate(blocks) if len(block) > 1], int)
    for array in (coherent, held):
        array.flags.writeable = False
    return coherent, held


def _dense_blocks(input_state: TwoModeState, grid: ParamGrid) -> tuple:
    """The native blocks of a dense input at each grid point: the α block
    as rank-one pieces (``_level_pieces``) and its finite part (B, 2, 2),
    and the φ block (B, 2, 2), from one kernel call with no derivatives
    (``_block_stack``).

    The α block comes from counting on the joint output populations, the
    output's diagonal, with ∂p/∂α± from p along each mode's levels
    (``channel.loss_population_slope``); each level is one piece.  The φ
    block is ``_eigenbasis_qfim`` on ∂ρ/∂φ± of the output blocks, in native
    φ, summed over the blocks; only the blocks that hold a coherence are
    gathered, since ∂ρ/∂φ± vanishes on the others.
    """
    blocks, space, points = input_state.output_blocks.blocks, input_state.space, len(grid)
    levels = (space.cutoff_plus + 1, space.cutoff_minus + 1)
    coherent, held = _block_levels(blocks, levels[1])
    output, (stack,), d_phi = _block_stack(input_state, grid, False, coherent)
    f_phi = np.zeros((points, 2, 2))
    if len(coherent):
        f = _eigenbasis_qfim(stack, list(d_phi), None, len(coherent))
        f_phi = f.reshape(len(coherent), points, 2, 2).sum(axis=0)
    p = output.diagonal(0, 1, 2).real.reshape(points, *levels)
    g = np.empty((*p.shape, 2))
    g[..., 0] = loss_population_slope(p, grid.alpha_plus[:, None, None], axis=1)
    g[..., 1] = loss_population_slope(p, grid.alpha_minus[:, None, None], axis=2)
    p, g = p.reshape(points, -1)[:, held], g.reshape(points, -1, 2)[:, held]
    scaled = g * np.divide(1.0, p, out=np.zeros(p.shape), where=p > 0.0)[..., None]
    return _level_pieces(p, g), _piece_sum(scaled, g), f_phi


@np.errstate(divide="ignore", invalid="ignore")
def _two_block_bounds(
    input_state: TwoModeState, grid: ParamGrid, labels: tuple, plan: _BlockPlan
) -> GridBounds:
    """Bounds at each grid point of a state whose builder fixes the two
    native blocks (``TwoModeState.two_block``), block by block.

    The α block is photon counting's, which attains the QFIM's for these
    inputs, and the φ block the QFIM's from the outputs alone; the α-φ
    cross block is 0.  Each block holding a label is inverted on its own,
    in native coordinates, so a block with one weak and one strong
    direction keeps both, and a zero population is a limit, not a cut: a
    product's blocks are diagonal (``_product_blocks``,
    ``_diagonal_bounds``), a dense input's are sums of rank-one pieces
    (``_dense_blocks``, ``_phase_pieces``, ``_block_covariance``).  F and
    F⁻¹ are reported in label coordinates, with 0 between the blocks; F's
    α block is the finite part, the levels with p > 0.  The log of a zero
    weight is −∞ by design, so the route runs with numpy's divide and
    invalid warnings off; every input it reads is checked finite first.
    """
    n, points = len(labels), len(grid)
    pullback = _native_pullback(labels)
    if input_state.factors is not None:
        route, (info, finite, solved) = "per_mode", _product_blocks(input_state, grid)
        f = (pullback.T * finite[:, None, :]) @ pullback
        f_inv, identifiable = _diagonal_bounds(info, plan)
    else:
        route, solved = "eigenbasis", {}
        alpha, f_alpha, f_phi = _dense_blocks(input_state, grid)
        pieces = (alpha, _phase_pieces(f_phi))
        native = np.zeros((points, 4, 4))
        native[:, :2, :2], native[:, 2:, 2:] = f_alpha, f_phi
        f_inv, identifiable = np.zeros((points, n, n)), np.zeros((points, n), bool)
        for block, members, columns, rows in plan.blocks:
            cov, ok = _block_covariance(pieces[block], columns, rows)
            f_inv[:, members[:, None], members], identifiable[:, members] = cov, ok
        f = pullback.T @ native @ pullback
    f = (f + f.swapaxes(1, 2)) / 2.0
    bounds = np.sqrt(np.maximum(f_inv.diagonal(0, 1, 2), 0.0))
    singular = ~f.any(axis=(1, 2)) & ~identifiable.any(axis=1)
    meta = {"route": route, "inversion": "two_block", "state_label": input_state.label, **solved}
    return GridBounds(labels, f, f_inv, bounds, identifiable, singular, meta)


def _inverted(params: tuple, f: np.ndarray, meta: dict) -> GridBounds:
    """The symmetric (B, n, n) QFIM stack ``f`` checked PSD and inverted at
    each point, as ``invert_and_bound`` describes, in one stacked pass.

    One eigensolve of the (2B, n, n) stack [F; D F D] serves both: F's own
    spectrum is the PSD check, on F's own scale, and D F D's the inversion.
    """
    diag = f.diagonal(0, 1, 2)
    d = np.power(diag, -0.5, out=np.zeros(diag.shape), where=diag > 0.0)
    scale = d[:, :, None] * d[:, None, :]
    w, v = np.linalg.eigh(np.concatenate((f, f * scale)))
    w_min, w, v = w[: len(f), 0], w[len(f) :], v[len(f) :]
    # the tolerance is at least QFIM_PSD_TOL, so max|F| is read only past it
    if np.count_nonzero(w_min < -QFIM_PSD_TOL):
        negative = w_min < -QFIM_PSD_TOL * np.maximum(1.0, np.abs(f).max(axis=(1, 2)))
        if negative.any():
            raise NumericError(f"QFIM has negative eigenvalue {w_min[np.argmax(negative)]:.3e}")
    w_max = w[:, -1]
    kept = w > RCOND * w_max[:, None]
    inv_w = np.divide(1.0, w, out=np.zeros(w.shape), where=kept)
    f_inv = ((v * inv_w[:, None, :]) @ v.swapaxes(1, 2)) * scale
    f_inv = (f_inv + f_inv.swapaxes(1, 2)) / 2.0
    kernel = np.where(kept[:, None, :], 0.0, np.abs(v)).max(axis=2)
    identifiable = kernel <= KERNEL_COMPONENT_TOL
    bounds = np.sqrt(np.maximum(f_inv.diagonal(0, 1, 2), 0.0))
    # a point whose F vanishes is fully singular: nothing identifiable, F⁻¹ = 0
    return GridBounds(params, f, f_inv, bounds, identifiable, w_max <= 0.0, meta)


def invert_and_bound(params, F) -> QfimResult:
    """The QFIM ``F`` over the labels ``params``, pseudo-inverted on its
    identifiable subspace, as a QfimResult.

    The cut is made on the unit-diagonal C = D F D, D = diag(F)^(-1/2)
    (0 where F_jj = 0), at RCOND of its largest eigenvalue (in [1, n]), so
    like the bounds it does not depend on the parameters' units; then
    F⁻¹ = D C⁺ D.  Bounds are δX_j = sqrt((F⁻¹)_jj); parameters
    overlapping the kernel of C are flagged unidentifiable, without bound.
    F must be PSD: an eigenvalue below −QFIM_PSD_TOL·max(1, max|F|) raises
    NumericError, read from the same eigensolve as the inversion.
    """
    return _inverted(tuple(params), np.asarray(F, dtype=float)[None], {})[0]


def compute_bounds_grid(input_state: TwoModeState, grid: ParamGrid, param_labels) -> GridBounds:
    """Bounds at each point of ``grid``: evolve, differentiate, QFIM,
    invert, bound.

    One pass serves every point: each layer, from the loss tables through
    the eigensolves, the QFIM's PSD check and the inversion, carries a
    leading grid axis of len(params).  A product input (one carrying
    ``factors``) is solved as one stack of its distinct single-mode
    problems, any other as one stack of its output blocks, each cut at its
    own scale; both at φ± = 0,
    so the bounds at any phases equal those at zero phase.  Every check
    applies at each point, and the first point that fails one raises, with
    the message ``compute_bounds`` gives there.
    """
    labels = tuple(param_labels)
    if not labels:
        raise ValueError("no parameter labels given")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate parameter labels in {labels}")
    pullback = _native_pullback(labels)
    if not len(grid):
        return _inverted(labels, np.zeros((0, len(labels), len(labels))), {})
    if input_state.two_block:
        return _two_block_bounds(input_state, grid, labels, _two_block_plan(labels))
    if input_state.factors is not None:
        route, qfim = "per_mode", _product_qfim
    else:
        route, qfim = "eigenbasis", _block_qfim
    f, solved = qfim(input_state, grid, pullback)
    f = (f + f.swapaxes(1, 2)) / 2.0  # exactly symmetric
    meta = {"route": route, "inversion": "general", "state_label": input_state.label}
    return _inverted(labels, f, {**meta, **solved})


def compute_bounds(input_state: TwoModeState, params: ChiralParams, param_labels) -> QfimResult:
    """``compute_bounds_grid`` on a grid of one point, as its QfimResult."""
    return compute_bounds_grid(input_state, ParamGrid([params]), param_labels)[0]
