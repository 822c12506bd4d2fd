"""Numerical quantum Cramér–Rao pipeline.

Everything here is obtained by linear algebra on channel outputs, with no
closed-form input: parameter derivatives of ρ come from exact
differentiation of the Kraus weights, the QFIM is
F_xy = Σ_(j,k) 2 Re[∂ρ̃_x(j,k) conj(∂ρ̃_y(j,k))]/(λ_j+λ_k) over the
support pairs of the eigenbasis of ρ, and bounds follow from its
pseudo-inverse.  This module is the route that the closed-form catalog is
checked against, so it must stay independent of that catalog.
``solve_sld`` solves one symmetric logarithmic derivative explicitly, for
the checks that compare it with a closed form.  Both the QFIM and the SLD
keep the pairs that ``_support_threshold`` defines, the one support cut;
``solve_sld`` reports the threshold it applied.

``compute_bounds_grid`` is the one route, over a grid of points, with
stacked results; ``compute_bounds`` is its grid of one, as a QfimResult.
Product inputs (states carrying per-mode ``factors``) are solved as one
stack of their distinct single-mode problems, one per (mode input,
absorption): both modes of an H-polarized coherent probe or of the photon
pair read one input, so a common absorption, an absorption that recurs
across points, or a phase sweep is solved once and gathered back to each
point.  Loss maps a coherent state to a coherent state, so a coherent
mode's output support is one vector: such a problem is solved from its
top eigenpair, found by power steps, and one linear solve
(``_rank_one_qfim``), any other (the photon pair's interior) by an
eigensolve; ``_mode_qfims`` applies the rule, and ``GridBounds.meta``
counts the problems each route solved.  Any other input is solved block
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
per label tuple, the native-to-label pullback (``_native_pullback``); per
cutoff, the loss binomials and their exponent arrays
(``fock._root_binomials``).  Results are never cached:
each call solves its own points, one grid or one point alike.

Parameter labels are either the native channel coordinates
("alpha_plus", "alpha_minus", "phi_plus", "phi_minus") or the chiral
combinations ("x_d", "x_s", "delta", "sigma").  Derivatives are taken
natively and the chiral labels formed as constant linear combinations.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    ALPHA_PHI_NAMES,
    CHIRAL_NAMES,
    ChiralParams,
    ParamGrid,
    factored_output_and_alpha_derivative,
    grid_output_and_alpha_derivatives,
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
    the route and the state, and for a product input how many distinct
    single-mode problems each route solved (``rank_one_problems``,
    ``eigensolved_problems``).
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


def _block_qfim(input_state: TwoModeState, grid: ParamGrid, pullback: np.ndarray) -> tuple:
    """The labels' QFIM at each grid point of a dense input, block by block,
    with no count of single-mode problems: an empty dict.

    Loss keeps each mode's coherence order, so every output is block
    diagonal in the ``output_blocks`` of the input, and its QFIM is the sum
    of its blocks' QFIMs.  The blocks of each output and of its native
    derivatives are gathered into one zero-padded (K·B, s, s) stack, each
    cut at its own λ_max; a block that the channel leaves empty at a point
    gives 0 there.  A fully coherent input is one block, the whole output.
    Every point is solved at φ± = 0, where a real input keeps real
    outputs.  The output stack is checked once, finite, Hermitian and in
    the trace window.
    """
    blocks, levels, phase_generators = input_state.output_blocks
    dim, size = input_state.space.dim, levels.shape[-1]
    output, d_plus, d_minus = grid_output_and_alpha_derivatives(
        input_state, grid.alpha_plus, grid.alpha_minus
    )
    output = require_hermitian(output)
    require_trace_window(np.trace(output, axis1=1, axis2=2), input_state.trace_deficit_budget)
    padded = np.zeros((3, len(grid), dim + 1, dim + 1), output.dtype)
    padded[:, :, :dim, :dim] = output, d_plus, d_minus
    # (3, K, B, s, s): block k of each point's output and α-derivatives
    points = np.arange(len(grid))[:, None, None]
    stack = padded[:, points, levels[..., None], levels[..., None, :]]
    # ∂/∂φ± of the checked outputs, from each gathered level's (n₊, n₋)
    d_phi = (phase_generators * stack[0]).reshape(2, -1, size, size)
    output, d_plus, d_minus = stack.reshape(3, -1, size, size)
    mats = [d_plus, d_minus, *d_phi]
    f = _eigenbasis_qfim(output, mats, pullback, len(blocks), allow_empty=True)
    return f.reshape(len(blocks), len(grid), *f.shape[1:]).sum(axis=0), {}


def _distinct_problems(inputs: ModeInputs, rows: list) -> tuple:
    """Loss outputs and their ∂/∂α for each distinct (input, absorption)
    pair, from one list of absorptions per input, N problems in all, in
    one kernel call on the inputs' loss tables; with the index of each
    entry of ``rows`` among them."""
    problems, owners, at = [], [], []
    for owner, row in enumerate(rows):
        # the row's distinct absorptions, numbered on from the rows before
        index = {a: len(problems) + i for i, a in enumerate(dict.fromkeys(row))}
        problems += index
        owners += [owner] * len(index)
        at += map(index.get, row)
    tables, spectra = inputs.tables, inputs.spectra
    output, d_alpha = factored_output_and_alpha_derivative(tables, spectra, owners, problems)
    return output, d_alpha, np.array(at)


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


def _rank_one_qfim(rho, d_alpha, lam, t) -> np.ndarray:
    """The (α, φ) QFIMs (N, 2, 2) of single-mode problems whose support is
    the top eigenvector t of ρ, with eigenvalue λ (``_top_eigenpairs``).

    The support pairs are (t, k) for every eigenvector k of ρ, so
    ``_eigenbasis_qfim``'s sum is F_xy = 4 Re u_x†(ρ + λ)⁻¹u_y − a_x a_y/λ,
    u_x = (∂ρ/∂x)t and a_x = t†u_x: one solve per problem, of a matrix with
    condition number at most 2.  u_φ = −i[n, ρ]t = −i(λ n∘t − ρ(n∘t)) is
    carried without its −i, which turns the cross entry into Im; in real
    arithmetic it is exactly 0.
    """
    nt = np.arange(rho.shape[-1])[:, None] * t
    u = np.concatenate((d_alpha @ t, lam * nt - rho @ nt), axis=2)
    x = np.linalg.solve(rho + lam * np.eye(rho.shape[-1]), u)
    a = adjoint(u) @ t
    h = 4.0 * (adjoint(u) @ x) - (a @ adjoint(a)) / lam
    f = np.ascontiguousarray(h.real)
    f[:, 0, 1] = f[:, 1, 0] = h[:, 0, 1].imag
    return f


def _mode_qfims(output, hermitian, d_alpha, generator) -> tuple:
    """The (α, φ) QFIMs (N, 2, 2) of single-mode problems, from their loss
    outputs as the kernel gives them and as ``require_hermitian`` returns
    them, their ∂/∂α and the phase generator of their levels; with the
    number of problems solved as rank one and by eigensolve.

    A problem whose output support is one vector (``_top_eigenpairs``), as
    loss makes of every coherent input, takes ``_rank_one_qfim``; any
    other takes ``_eigenbasis_qfim``, with its ∂ρ/∂φ formed for it alone,
    where the support cut refuses an output with no positive eigenvalue.
    Both solve each problem on its own, so its bits do not depend on the
    rest of the stack.
    """
    lam, t, rank_one = _top_eigenpairs(hermitian)
    f = np.empty((len(output), 2, 2))
    one, rest = np.flatnonzero(rank_one), np.flatnonzero(~rank_one)
    if len(one):
        f[one] = _rank_one_qfim(hermitian[one], d_alpha[one], lam[one], t[one])
    if len(rest):
        # ∂ρ/∂φ of the unsymmetrized output: an unpadded mode then gets the
        # same bits as when it is solved alone
        d_phi = generator * output[rest]
        f[rest] = _eigenbasis_qfim(hermitian[rest], [d_alpha[rest], d_phi])
    return f, {"rank_one_problems": len(one), "eigensolved_problems": len(rest)}


def _product_qfim(input_state: TwoModeState, grid: ParamGrid, pullback: np.ndarray) -> tuple:
    """The labels' QFIM at each grid point of a product input, from one
    stack of its distinct single-mode problems, with how many problems
    each route solved (``_mode_qfims``).

    The channel acts on each mode separately, so a product input ρ₊ ⊗ ρ₋
    gives the product output ρ₊' ⊗ ρ₋'.  Its native QFIM splits into an
    (α₊, φ₊) block, solved on ρ₊' alone and scaled by tr ρ₋', and the
    mirror (α₋, φ₋) block; the cross blocks are tr ∂ρ₊' · tr ∂ρ₋' = 0.
    Each block is solved at φ = 0, so it depends only on the mode's input
    and absorption: a single-mode problem.  The state's ``mode_inputs``
    holds each distinct input once, with its loss tables padded to the
    common cutoff with zero levels, which loss keeps empty; the
    absorptions of the modes that read
    an input are pooled and each distinct one is solved once, then every
    point gathers its two modes' blocks and output traces.  Repeated
    absorptions collapse: both modes of one input at a common absorption,
    an α₊ equal to another point's α₋, or a phase sweep.  Each problem is
    solved on its own, so its bits do not depend on the other mode of its
    point.  The output stack is checked once, finite and Hermitian, and
    each point's product of output traces must lie in the window.
    The requested labels follow through the constant native-to-label
    pullback, the same combinations ``channel_derivatives`` forms.
    """
    inputs = input_state.mode_inputs
    # one row of absorptions per input, pooled over the modes that read it
    rows = [[] for _ in inputs.tables]
    for k, alphas in zip(inputs.reads, (grid.alpha_plus, grid.alpha_minus)):
        rows[k] += alphas.tolist()
    output, d_alpha, at = _distinct_problems(inputs, rows)
    hermitian = require_hermitian(output)
    f, solved = _mode_qfims(output, hermitian, d_alpha, inputs.phase_generator)
    f, tr = f[at], hermitian.trace(0, 1, 2)[at]
    f_plus, f_minus = f.reshape(2, len(grid), 2, 2)
    tr_plus, tr_minus = tr.reshape(2, len(grid))
    require_trace_window(tr_plus * tr_minus, input_state.trace_deficit_budget)
    # ALPHA_PHI_NAMES interleaves the modes: (α₊, α₋, φ₊, φ₋)
    native = np.zeros((len(grid), len(ALPHA_PHI_NAMES), len(ALPHA_PHI_NAMES)))
    native[:, 0::2, 0::2] = f_plus * tr_minus.real[:, None, None]
    native[:, 1::2, 1::2] = f_minus * tr_plus.real[:, None, None]
    return pullback.T @ native @ pullback, solved


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
    if input_state.factors is not None:
        route, qfim = "per_mode", _product_qfim
    else:
        route, qfim = "eigenbasis", _block_qfim
    f, solved = qfim(input_state, grid, pullback)
    f = (f + f.swapaxes(1, 2)) / 2.0  # exactly symmetric
    return _inverted(labels, f, {"route": route, "state_label": input_state.label, **solved})


def compute_bounds(input_state: TwoModeState, params: ChiralParams, param_labels) -> QfimResult:
    """``compute_bounds_grid`` on a grid of one point, as its QfimResult."""
    return compute_bounds_grid(input_state, ParamGrid([params]), param_labels)[0]
