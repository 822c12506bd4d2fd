"""Numerical quantum Cramér–Rao pipeline.

Everything here is obtained by linear algebra on channel outputs, with no
closed-form input: parameter derivatives of ρ come from exact
differentiation of the Kraus weights (central differences of the channel
output remain as the oracle that checks them), the symmetric logarithmic
derivatives L are solved spectrally on the support of ρ, the QFIM is
F_ij = ½ tr[ρ(L_iL_j + L_jL_i)], and bounds follow from its pseudo-inverse.
This module is the oracle that the closed-form catalog is checked against,
so it must stay independent of that catalog.

Product inputs (states carrying per-mode ``factors``) take a per-mode
route on the default exact method: the output is a product, so the QFIM
is solved as two single-mode problems instead of one two-mode
eigendecomposition.  The dense two-mode route serves everything else and
is the oracle the per-mode route is tested against.

Parameter labels are either the native channel coordinates
("alpha_plus", "alpha_minus", "phi_plus", "phi_minus") or the chiral
combinations ("x_d", "x_s", "delta", "sigma").  Central differences
perturb the requested coordinate directly; the exact route differentiates
natively and forms the constant linear combinations, giving two genuinely
independent derivative paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (
    ALPHA_PHI_NAMES,
    CHIRAL_NAMES,
    COORDS_CHIRAL,
    ChiralParams,
    CoordinateJacobian,
    DomainError,
    apply_channel_kraus,
    channel_output_and_alpha_derivatives,
    channel_phi_derivative,
    mode_output_and_alpha_derivative,
)
from .fock import TwoModeState, require_trace_window
from .linalg import as_complex_matrix, hermitian_eigen, hermiticity_defect

CENTRAL_DIFFERENCE = "central_difference"
ANALYTIC_KRAUS = "analytic_kraus"

FD_STEP_SCALE = 1e-5
SUPPORT_RCOND = 1e-10
SLD_RESIDUAL_TOL = 1e-8
QFIM_PSD_TOL = 1e-9
RCOND = 1e-10
KERNEL_COMPONENT_TOL = 1e-6

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
    method: str
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
    """QFIM over an ordered parameter set, with bounds once inverted.

    ``bounds``/``covariances``/``sqfim``/``identifiable`` are filled by
    ``invert_and_bound``; ``sqfim`` holds sqrt((F⁻¹)_ij) with NaN where
    the entry is negative or involves an unidentifiable parameter.
    """

    params: tuple
    F: np.ndarray
    blocks: tuple
    F_inverse: np.ndarray | None = None
    bounds: dict | None = None
    covariances: dict | None = None
    sqfim: np.ndarray | None = None
    identifiable: dict | None = None
    meta: dict = field(default_factory=dict)

    def bound(self, param: str) -> float | None:
        if self.bounds is None:
            raise ValueError("bounds not computed; call invert_and_bound first")
        return self.bounds[param]

    def covariance(self, p1: str, p2: str) -> float | None:
        if self.covariances is None:
            raise ValueError("covariances not computed; call invert_and_bound first")
        key = (p1, p2) if (p1, p2) in self.covariances else (p2, p1)
        return self.covariances[key]

    def entry(self, p1: str, p2: str) -> float:
        return float(self.F[self.params.index(p1), self.params.index(p2)])


def _shifted_params(params: ChiralParams, name: str, value: float) -> ChiralParams:
    if name in ALPHA_PHI_NAMES:
        kw = dict(zip(ALPHA_PHI_NAMES, params.values("alpha_phi")))
        kw[name] = value
        return ChiralParams(**kw)
    kw = dict(zip(CHIRAL_NAMES, params.values(COORDS_CHIRAL)))
    kw[name] = value
    return ChiralParams.from_chiral(**kw)


def _param_value(params: ChiralParams, name: str) -> float:
    if name in ALPHA_PHI_NAMES:
        return dict(zip(ALPHA_PHI_NAMES, params.values("alpha_phi")))[name]
    return dict(zip(CHIRAL_NAMES, params.values(COORDS_CHIRAL)))[name]


def _rho_at(input_state: TwoModeState, params: ChiralParams) -> np.ndarray:
    return apply_channel_kraus(input_state, params).rho


def _finite_difference(
    input_state: TwoModeState, params: ChiralParams, name: str
) -> tuple[np.ndarray, dict]:
    x = _param_value(params, name)
    h0 = FD_STEP_SCALE * max(1.0, abs(x))
    last_error = None
    for shrink in range(3):
        h = h0 / 10.0**shrink
        meta = {"step": h}
        if shrink:
            meta["step_shrunk"] = True
        # central stencil when both neighbors are in the domain
        try:
            hi = _shifted_params(params, name, x + h)
            lo = _shifted_params(params, name, x - h)
            drho = (_rho_at(input_state, hi) - _rho_at(input_state, lo)) / (2 * h)
            meta["stencil"] = "central"
            return drho, meta
        except DomainError as err:
            last_error = err
        # one-sided second-order stencils at a domain boundary
        for direction, sign in (("forward", 1.0), ("backward", -1.0)):
            try:
                f0 = _rho_at(input_state, params)
                f1 = _rho_at(input_state, _shifted_params(params, name, x + sign * h))
                f2 = _rho_at(
                    input_state, _shifted_params(params, name, x + 2 * sign * h)
                )
                drho = sign * (-3.0 * f0 + 4.0 * f1 - f2) / (2 * h)
                meta["stencil"] = direction
                return drho, meta
            except DomainError as err:
                last_error = err
    raise NumericError(
        f"no valid finite-difference stencil for {name!r} at {x!r}: {last_error}"
    )


def rho_derivative(
    input_state: TwoModeState,
    params: ChiralParams,
    param: str,
    method: str = ANALYTIC_KRAUS,
) -> ParamDerivative:
    """∂ρ_out/∂param of the channel output for the given input state."""
    if param not in ALL_PARAM_NAMES:
        raise ValueError(f"unknown parameter {param!r}; expected one of {ALL_PARAM_NAMES}")
    if method == ANALYTIC_KRAUS:
        return channel_derivatives(input_state, params, (param,))[1][0]
    if method == CENTRAL_DIFFERENCE:
        drho, meta = _finite_difference(input_state, params, param)
        return ParamDerivative(param=param, drho=drho, method=method, meta=meta)
    raise ValueError(f"unknown derivative method {method!r}")


def channel_derivatives(
    input_state: TwoModeState,
    params: ChiralParams,
    param_labels,
    method: str = ANALYTIC_KRAUS,
) -> tuple[TwoModeState, list[ParamDerivative]]:
    """Channel output together with ∂ρ for each requested parameter.

    The exact route takes its matrices from ``_exact_derivatives``.
    """
    if method != ANALYTIC_KRAUS:
        return apply_channel_kraus(input_state, params), [
            rho_derivative(input_state, params, p, method=method) for p in param_labels
        ]
    labels = tuple(param_labels)
    output, mats = _exact_derivatives(input_state, params, labels)
    return output, [
        ParamDerivative(param=p, drho=m, method=ANALYTIC_KRAUS)
        for p, m in zip(labels, mats)
    ]


def _exact_derivatives(
    input_state: TwoModeState, params: ChiralParams, labels: tuple
) -> tuple[TwoModeState, list[np.ndarray]]:
    """Channel output and the exact ∂ρ matrix of each label, unwrapped.

    The output and both α-derivatives come from one loss weight pass per
    mode, the φ-derivatives from the output, and every label through the
    constant native-to-label pullback.
    """
    pullback = _native_pullback(labels)
    output, d_alpha_plus, d_alpha_minus = channel_output_and_alpha_derivatives(
        input_state, params
    )
    native = (
        d_alpha_plus,
        d_alpha_minus,
        channel_phi_derivative(output, "plus"),
        channel_phi_derivative(output, "minus"),
    )
    mats = [
        sum(w * d for w, d in zip(pullback[:, j], native) if w)
        for j in range(len(labels))
    ]
    return output, mats


def solve_sld(rho_state: TwoModeState, drho: ParamDerivative) -> SldMatrix:
    """Solve ∂ρ = ½(Lρ + ρL) spectrally on the support of ρ.

    In the eigenbasis of ρ, L_jk = 2 ∂ρ_jk/(λ_j + λ_k); pairs with
    λ_j + λ_k ≤ 1e-10·λ_max belong to the kernel and are zeroed (their
    count and dropped weight go into metadata).  The residual reported is
    ‖∂ρ − ½(Lρ + ρL)‖_max projected onto the kept pairs.
    """
    dec = hermitian_eigen(rho_state.rho)
    lam = dec.eigenvalues
    v = dec.eigenvectors
    lam_max = float(lam[-1])
    if lam_max <= 0.0:
        raise NumericError("density matrix has no positive eigenvalue")
    threshold = SUPPORT_RCOND * lam_max
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


def _detect_blocks(params: tuple, f: np.ndarray) -> tuple:
    """Parameter groups coupled by |F_ij| > RCOND·sqrt(F_ii F_jj), a unit-free test."""
    n = len(params)
    root = np.sqrt(np.maximum(np.diag(f), 0.0))
    adj = np.abs(f) > RCOND * root[:, None] * root
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        stack, group = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            group.append(i)
            for j in range(n):
                if not seen[j] and (adj[i, j] or adj[j, i]):
                    seen[j] = True
                    stack.append(j)
        blocks.append(tuple(params[i] for i in sorted(group)))
    return tuple(blocks)


def _finish_qfim(params: tuple, f: np.ndarray, meta: dict) -> QfimResult:
    f = np.real((f + f.T) / 2.0)
    scale = max(1.0, float(np.abs(f).max()))
    w_min = float(np.linalg.eigvalsh(f)[0])
    if w_min < -QFIM_PSD_TOL * scale:
        raise NumericError(f"QFIM has negative eigenvalue {w_min:.3e}")
    return QfimResult(params=params, F=f, blocks=_detect_blocks(params, f), meta=meta)


def assemble_qfim(rho_state: TwoModeState, slds) -> QfimResult:
    """F_ij = ½ tr[ρ(L_iL_j + L_jL_i)] from explicitly solved SLDs."""
    params = tuple(s.param for s in slds)
    _require_distinct(params)
    n = len(slds)
    rho = rho_state.rho
    left = [rho @ s.L for s in slds]
    f = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            t = complex(np.sum(left[i] * slds[j].L.T))
            f[i, j] = f[j, i] = t.real
    return _finish_qfim(params, f, {"route": "sld", "state_label": rho_state.label})


def _eigenbasis_qfim(rho: np.ndarray, mats) -> np.ndarray:
    """F_ab = Σ_{kept (j,k)} 2 Re[∂ρ̃_a(j,k) · conj(∂ρ̃_b(j,k))]/(λ_j+λ_k).

    ``mats`` are the ∂ρ matrices; the support rule keeps pairs with
    λ_j + λ_k > 1e-10·λ_max, as ``solve_sld`` does.
    """
    dec = hermitian_eigen(rho)
    lam = dec.eigenvalues
    v = dec.eigenvectors
    lam_max = float(lam[-1])
    if lam_max <= 0.0:
        raise NumericError("density matrix has no positive eigenvalue")
    threshold = SUPPORT_RCOND * lam_max
    # Every kept pair (λ_j + λ_k > threshold) has at least one index with
    # λ > threshold/2, so rotating ∂ρ onto those rows alone is exact; the
    # mirrored (kernel, support) pairs contribute the same real addend by
    # hermiticity and are restored by the second sum below.
    support = lam > 0.5 * threshold
    v_s = v[:, support]
    pair_sums = lam[support, None] + lam[None, :]
    keep = pair_sums > threshold
    weight = np.where(keep, 2.0 / np.where(keep, pair_sums, 1.0), 0.0)
    mirror = weight[:, ~support]
    real_basis = not np.iscomplexobj(v)
    mats = [m.real if real_basis and not m.imag.any() else m for m in mats]
    rows = [(v_s.conj().T @ m) @ v for m in mats]
    n = len(mats)
    f = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            prod = (rows[i] * np.conj(rows[j])).real
            val = float(np.sum(weight * prod) + np.sum(mirror * prod[:, ~support]))
            f[i, j] = f[j, i] = val
    return f


def _require_distinct(params: tuple) -> None:
    if len(set(params)) != len(params):
        raise ValueError(f"duplicate parameter labels in {params}")


def qfim_from_derivatives(rho_state: TwoModeState, derivs) -> QfimResult:
    """QFIM directly in the eigenbasis of ρ, bypassing explicit SLDs.

    Algebraically identical to the SLD route (same support rule) at one
    eigendecomposition plus two rotations per parameter.
    """
    return _matrices_qfim(
        rho_state, tuple(d.param for d in derivs), [d.drho for d in derivs]
    )


def _matrices_qfim(rho_state: TwoModeState, params: tuple, mats) -> QfimResult:
    _require_distinct(params)
    f = _eigenbasis_qfim(rho_state.rho, mats)
    return _finish_qfim(
        params, f, {"route": "eigenbasis", "state_label": rho_state.label}
    )


def _native_pullback(param_labels: tuple) -> np.ndarray:
    """B with ∂ρ/∂label_j = Σ_i B[i, j] ∂ρ/∂native_i, rows in ALPHA_PHI_NAMES order."""
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
    return b


def _product_qfim(
    input_state: TwoModeState, params: ChiralParams, param_labels
) -> QfimResult:
    """QFIM of a product input, solved one mode at a time.

    The channel acts on each mode separately, so a product input ρ₊ ⊗ ρ₋
    gives the product output ρ₊' ⊗ ρ₋'.  Its native QFIM splits into an
    (α₊, φ₊) block, solved on ρ₊' alone and scaled by tr ρ₋', and the
    mirror (α₋, φ₋) block; the cross blocks are tr ∂ρ₊' · tr ∂ρ₋' = 0.
    Each block is solved at φ = 0: the phase stage is the unitary e^{−iφn},
    which commutes with n and so leaves the mode's (α, φ) block unchanged.
    The requested labels follow through the constant native-to-label
    pullback, the same combinations ``channel_derivatives`` forms.
    """
    labels = tuple(param_labels)
    _require_distinct(labels)
    pullback = _native_pullback(labels)
    blocks, traces = [], []
    alphas = (params.alpha_plus, params.alpha_minus)
    for mode, factor, alpha in zip(("plus", "minus"), input_state.factors, alphas):
        output, d_alpha = mode_output_and_alpha_derivative(factor, alpha)
        n = np.arange(output.shape[0])
        d_phi = -1j * (n[:, None] - n[None, :]) * output
        index = [ALPHA_PHI_NAMES.index(f"{name}_{mode}") for name in ("alpha", "phi")]
        blocks.append((index, _eigenbasis_qfim(output, [d_alpha, d_phi])))
        traces.append(np.trace(output))
    require_trace_window(traces[0] * traces[1], input_state.trace_deficit_budget)
    native = np.zeros((len(ALPHA_PHI_NAMES), len(ALPHA_PHI_NAMES)))
    for (index, block), other_trace in zip(blocks, reversed(traces)):
        native[np.ix_(index, index)] = block * other_trace.real
    return _finish_qfim(
        labels,
        pullback.T @ native @ pullback,
        {"route": "per_mode", "state_label": input_state.label},
    )


def invert_and_bound(qfim: QfimResult) -> QfimResult:
    """Pseudo-invert F on its identifiable subspace and extract bounds.

    The cut is made on the unit-diagonal C = D F D, D = diag(F)^(-1/2)
    (0 where F_jj = 0), at RCOND of its largest eigenvalue (in [1, n]), so
    like the bounds it does not depend on the parameters' units; then
    F⁻¹ = D C⁺ D.  Bounds are δX_j = sqrt((F⁻¹)_jj); parameters
    overlapping the kernel of C are flagged unidentifiable, without bound.
    """
    f = qfim.F
    n = len(qfim.params)
    # a Python loop over the few diagonal entries costs less than masked array ops
    d = np.array([x**-0.5 if x > 0.0 else 0.0 for x in np.diag(f).tolist()])
    scale = d[:, None] * d
    w, v = np.linalg.eigh(f * scale)
    w_max = float(w[-1])
    if w_max <= 0.0:
        identifiable = {p: False for p in qfim.params}
        return replace(
            qfim,
            F_inverse=np.zeros_like(f),
            bounds={p: None for p in qfim.params},
            covariances={},
            sqfim=np.full_like(f, np.nan),
            identifiable=identifiable,
            meta={**qfim.meta, "fully_singular": True},
        )
    kept = w > RCOND * w_max
    inv_w = np.where(kept, 1.0 / np.where(kept, w, 1.0), 0.0)
    f_inv = ((v * inv_w) @ v.T) * scale
    f_inv = (f_inv + f_inv.T) / 2.0
    flagged = np.abs(v[:, ~kept]).max(axis=1, initial=0.0) > KERNEL_COMPONENT_TOL
    identifiable = {p: not bool(flagged[i]) for i, p in enumerate(qfim.params)}
    bounds = {}
    for i, p in enumerate(qfim.params):
        bounds[p] = math.sqrt(max(f_inv[i, i], 0.0)) if identifiable[p] else None
    covariances = {}
    for i in range(n):
        for j in range(i + 1, n):
            pi, pj = qfim.params[i], qfim.params[j]
            covariances[(pi, pj)] = (
                float(f_inv[i, j]) if identifiable[pi] and identifiable[pj] else None
            )
    sqfim = np.full_like(f, np.nan)
    for i in range(n):
        for j in range(n):
            pi, pj = qfim.params[i], qfim.params[j]
            if identifiable[pi] and identifiable[pj] and f_inv[i, j] >= 0.0:
                sqfim[i, j] = math.sqrt(f_inv[i, j])
    return replace(
        qfim,
        F_inverse=f_inv,
        bounds=bounds,
        covariances=covariances,
        sqfim=sqfim,
        identifiable=identifiable,
    )


def reparameterize_qfim(qfim: QfimResult, jacobian: CoordinateJacobian) -> QfimResult:
    """Transform a QFIM from jacobian.from_coords into jacobian.to_coords.

    Uses the pullback F' = Bᵀ F B with B = ∂(from)/∂(to).  Subsets of the
    four parameters are supported as long as the transformation does not
    mix them with the missing ones (true for the absorption and phase
    sectors separately).
    """
    from_names = _coords_names(jacobian.from_coords)
    to_names = _coords_names(jacobian.to_coords)
    for p in qfim.params:
        if p not in from_names:
            raise ValueError(
                f"QFIM parameter {p!r} is not part of coordinate set"
                f" {jacobian.from_coords!r}"
            )
    b_full = np.linalg.inv(jacobian.matrix)  # ∂(from)/∂(to), constant
    idx = [from_names.index(p) for p in qfim.params]
    # the subset must be closed under the transformation
    complement = [i for i in range(4) if i not in idx]
    sub = b_full[np.ix_(idx, complement)]
    if complement and np.abs(sub).max() > 1e-14:
        raise ValueError(
            "requested parameter subset mixes with omitted coordinates;"
            " reparameterize the full set instead"
        )
    b = b_full[np.ix_(idx, idx)]
    f_new = b.T @ qfim.F @ b
    new_params = tuple(to_names[i] for i in idx)
    result = _finish_qfim(new_params, f_new, {**qfim.meta, "reparameterized": True})
    if qfim.bounds is not None:
        result = invert_and_bound(result)
    return result


def _coords_names(label: str) -> tuple:
    if label == "alpha_phi":
        return ALPHA_PHI_NAMES
    if label == COORDS_CHIRAL:
        return CHIRAL_NAMES
    raise ValueError(f"unknown coordinate set {label!r}")


def compute_bounds(
    input_state: TwoModeState,
    params: ChiralParams,
    param_labels,
    method: str = ANALYTIC_KRAUS,
    via_slds: bool = False,
) -> QfimResult:
    """Full pipeline: evolve, differentiate, QFIM, invert, bound.

    A product input (one carrying ``factors``) on the default exact route
    is solved one mode at a time; every other input, central differences
    and ``via_slds`` run on the full two-mode density matrix.  ``via_slds``
    switches from the eigenbasis route to the explicit SLD route
    (identical results, used for cross-validation).  The default route
    hands its ∂ρ matrices to the QFIM unwrapped; only the other routes
    build ``ParamDerivative`` records.
    """
    if method == ANALYTIC_KRAUS and not via_slds:
        if input_state.factors is not None:
            return invert_and_bound(_product_qfim(input_state, params, param_labels))
        labels = tuple(param_labels)
        output, mats = _exact_derivatives(input_state, params, labels)
        return invert_and_bound(_matrices_qfim(output, labels, mats))
    output, derivs = channel_derivatives(input_state, params, param_labels, method)
    if via_slds:
        slds = [solve_sld(output, d) for d in derivs]
        qfim = assemble_qfim(output, slds)
    else:
        qfim = qfim_from_derivatives(output, derivs)
    return invert_and_bound(qfim)
