"""The chiral transmission channel and its parameter bookkeeping.

A lossy birefringent medium acts independently on the two circular modes:
mode ± suffers a net absorption α± ∈ [0, 1) and a net phase shift φ±.  The
package works in three equivalent coordinate systems:

  * raw channel parameters (α₊, α₋, φ₊, φ₋),
  * chiral coordinates X_d = (α₊−α₋)/2, X_s = (α₊+α₋)/2,
    Δ = φ₊−φ₋, Σ = φ₊+φ₋ (circular dichroism X_d and birefringence Δ
    carry the chirality signal),
  * the rate picture γ± = −ln(1−α±)/(2t), θ± = φ±/t of the underlying
    master equation, with propagation time normalized to t = 1.

Two independent evolution engines are provided and must agree: an exact
Kraus map (per-mode phase rotation composed with binomial photon loss)
and a fixed-step RK4 integration of the Lindblad generator.  The Kraus
engine is the oracle for everything downstream; the RK4 engine exists
to check it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, TwoModeState
from .linalg import hermiticity_defect

COORDS_ALPHA_PHI = "alpha_phi"
COORDS_CHIRAL = "chiral"

ALPHA_PHI_NAMES = ("alpha_plus", "alpha_minus", "phi_plus", "phi_minus")
CHIRAL_NAMES = ("x_d", "x_s", "delta", "sigma")

RK4_DEFAULT_STEPS = 400
RK4_GLOBAL_ERROR_TOL = 1e-8


class DomainError(ValueError):
    """Channel parameters outside the physical domain."""


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ChiralParams:
    """Net absorption and phase shift per circular mode, α± ∈ [0, 1)."""

    alpha_plus: float
    alpha_minus: float
    phi_plus: float = 0.0
    phi_minus: float = 0.0

    def __post_init__(self):
        for name in ("alpha_plus", "alpha_minus"):
            a = _require_finite(name, getattr(self, name))
            if not (0.0 <= a < 1.0):
                raise DomainError(f"{name} must lie in [0, 1), got {a!r}")
            object.__setattr__(self, name, a)
        for name in ("phi_plus", "phi_minus"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))

    @property
    def eta_plus(self) -> float:
        return 1.0 - self.alpha_plus

    @property
    def eta_minus(self) -> float:
        return 1.0 - self.alpha_minus

    @property
    def x_d(self) -> float:
        return (self.alpha_plus - self.alpha_minus) / 2.0

    @property
    def x_s(self) -> float:
        return (self.alpha_plus + self.alpha_minus) / 2.0

    @property
    def delta(self) -> float:
        return self.phi_plus - self.phi_minus

    @property
    def sigma(self) -> float:
        return self.phi_plus + self.phi_minus

    @classmethod
    def from_chiral(cls, x_d: float, x_s: float, delta: float, sigma: float) -> "ChiralParams":
        return cls(
            alpha_plus=x_s + x_d,
            alpha_minus=x_s - x_d,
            phi_plus=(sigma + delta) / 2.0,
            phi_minus=(sigma - delta) / 2.0,
        )

    def to_rates(self, t: float = 1.0) -> "RatePicture":
        if t <= 0:
            raise DomainError(f"propagation time must be positive, got {t!r}")
        return RatePicture(
            gamma_plus=-math.log1p(-self.alpha_plus) / (2.0 * t),
            gamma_minus=-math.log1p(-self.alpha_minus) / (2.0 * t),
            theta_plus=self.phi_plus / t,
            theta_minus=self.phi_minus / t,
            t=t,
        )

    def values(self, coords: str) -> tuple[float, float, float, float]:
        if coords == COORDS_ALPHA_PHI:
            return (self.alpha_plus, self.alpha_minus, self.phi_plus, self.phi_minus)
        if coords == COORDS_CHIRAL:
            return (self.x_d, self.x_s, self.delta, self.sigma)
        raise ValueError(f"unknown coordinate set {coords!r}")


@dataclass(frozen=True)
class RatePicture:
    """Master-equation rates: damping γ± and phase θ± over time t."""

    gamma_plus: float
    gamma_minus: float
    theta_plus: float
    theta_minus: float
    t: float = 1.0

    def __post_init__(self):
        for name in ("gamma_plus", "gamma_minus", "theta_plus", "theta_minus", "t"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.t <= 0:
            raise DomainError(f"propagation time must be positive, got {self.t!r}")
        if self.gamma_plus < 0 or self.gamma_minus < 0:
            raise DomainError("damping rates must be nonnegative")

    def to_params(self) -> ChiralParams:
        return ChiralParams(
            alpha_plus=-math.expm1(-2.0 * self.gamma_plus * self.t),
            alpha_minus=-math.expm1(-2.0 * self.gamma_minus * self.t),
            phi_plus=self.theta_plus * self.t,
            phi_minus=self.theta_minus * self.t,
        )


@dataclass(frozen=True)
class CoordinateJacobian:
    """Constant Jacobian ∂(to)/∂(from) between the two coordinate sets."""

    matrix: np.ndarray
    from_coords: str
    to_coords: str


_J_CHIRAL_FROM_ALPHA = np.array(
    [
        [0.5, -0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 1.0, -1.0],
        [0.0, 0.0, 1.0, 1.0],
    ]
)

_J_ALPHA_FROM_CHIRAL = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [-1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, -0.5, 0.5],
    ]
)


def coordinate_jacobian(from_coords: str, to_coords: str) -> CoordinateJacobian:
    """Jacobian between (α₊,α₋,φ₊,φ₋) and (X_d,X_s,Δ,Σ), row = target."""
    known = {COORDS_ALPHA_PHI, COORDS_CHIRAL}
    for label in (from_coords, to_coords):
        if label not in known:
            raise ValueError(f"unknown coordinate set {label!r}; expected one of {sorted(known)}")
    if from_coords == to_coords:
        matrix = np.eye(4)
    elif to_coords == COORDS_CHIRAL:
        matrix = _J_CHIRAL_FROM_ALPHA.copy()
    else:
        matrix = _J_ALPHA_FROM_CHIRAL.copy()
    return CoordinateJacobian(matrix=matrix, from_coords=from_coords, to_coords=to_coords)


def _phase_factor(space: FockSpace, params: ChiralParams) -> np.ndarray:
    """u[k] = e^{−i(φ₊ n₊ + φ₋ n₋)} so that ρ → ρ ∘ (u u†)."""
    n_plus, n_minus = space.number_grids()
    return np.exp(-1j * (params.phi_plus * n_plus + params.phi_minus * n_minus))


def _rotated_input(state: TwoModeState, params: ChiralParams) -> np.ndarray:
    """Phase-stage output, dropped to real storage when exactly real.

    Loss weights are real, so a real array here keeps the whole damping
    stage in real arithmetic (about twice as fast) with identical values.
    """
    rho = state.rho
    if params.phi_plus != 0.0 or params.phi_minus != 0.0:
        u = _phase_factor(state.space, params)
        return rho * np.outer(u, u.conj())
    if not rho.imag.any():
        return rho.real
    return rho


@functools.lru_cache(maxsize=64)
def _loss_tables(cutoff: int) -> tuple:
    """α-independent tables of one mode's loss map, cached per cutoff.

    ``root[k, m] = √C(m+k, k)`` for m+k ≤ cutoff and 0 beyond, so every
    weight built from it vanishes where the k-photon-loss Kraus operator
    has no entry; ``half_msum[m, m'] = (m+m')/2``.  Each binomial is exact
    before its one rounding to float64, so the table holds past the int64
    range (cutoff ≥ 67).  ``rows``, ``cols`` index the upper triangle of
    the population transfer matrix, T[m, m+k].  The arrays are read-only
    and of size (cutoff+1)² at most, so nothing cached grows with α.
    """
    m = np.arange(cutoff + 1)
    root = np.sqrt(
        [[float(math.comb(i + k, k)) if i + k <= cutoff else 0.0 for i in m] for k in m]
    )
    rows, cols = np.triu_indices(cutoff + 1)
    tables = (root, np.add.outer(m, m) / 2.0, rows, cols)
    for table in tables:
        table.flags.writeable = False
    return tables


def _scale_loss_weights(weights: np.ndarray, half_msum: np.ndarray, alpha: float) -> tuple:
    """Scale root binomials (loss count k first) in place into the loss
    weights of ``_loss_weights``, and return them with their ∂/∂α, for any
    layout of (m, m') that ``half_msum`` = (m+m')/2 broadcasts against."""
    if alpha == 0.0:
        derivatives = np.zeros_like(weights)
        derivatives[0] = -half_msum * weights[0]
        derivatives[1:2] = weights[1:2]
        weights[1:] = 0.0
        return weights, derivatives
    eta = 1.0 - alpha
    k = np.arange(len(weights)).reshape((-1,) + (1,) * (weights.ndim - 1))
    weights *= eta**half_msum
    # α^k by the scalar pow, which rounds correctly; numpy's vectorized
    # power can be an ulp off
    weights *= np.array([alpha**i for i in range(len(weights))]).reshape(k.shape)
    return weights, weights * (k / alpha - half_msum / eta)


def _loss_weights(cutoff: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """One mode's binomial photon-loss weights W[k, m, m'] and their ∂/∂α.

    The k-photon-loss Kraus operator maps ρ[m+k, m'+k] into position
    (m, m') with weight

        W[k, m, m'] = √(C(m+k,k) C(m'+k,k)) · η^{(m+m')/2} · α^k,  η = 1−α,

    zero where m+k or m'+k exceeds the cutoff, and
    ∂W/∂α = W · (k/α − (m+m')/(2η)).  Both are (cutoff+1)³ arrays built by
    broadcasting.  The α = 0 limit is explicit: only k = 0 survives in W,
    and only k = 0 and k = 1 in ∂W.  The population transfer matrix is the
    diagonal slice, T[m, m+k] = W[k, m, m].
    """
    root, half_msum, _, _ = _loss_tables(cutoff)
    return _scale_loss_weights(root[:, :, None] * root[:, None, :], half_msum, alpha)


def _damp_mode(rho: np.ndarray, weights: np.ndarray, axes: tuple[int, int]) -> np.ndarray:
    """Apply one mode's loss weights to the (ket, bra) ``axes`` of ``rho``.

    out[.., m, .., m', ..] = Σ_k W[k, m, m'] ρ[.., m+k, .., m'+k, ..].  The
    shifted input is a strided view of a copy zero-padded along ``axes``,
    so the contraction over k reads ρ in place instead of gathering a
    (cutoff+1)-fold copy of it.
    """
    d = rho.shape[axes[0]]
    shape, window = list(rho.shape), [slice(None)] * rho.ndim
    for axis in axes:
        shape[axis], window[axis] = 2 * d - 1, slice(d)
    padded = np.zeros(shape, dtype=rho.dtype)
    padded[tuple(window)] = rho
    strides = padded.strides
    # shifted[k, .., m, .., m', ..] = padded[.., m+k, .., m'+k, ..]
    shifted = np.ndarray(
        (d, *rho.shape), rho.dtype, padded, 0, (strides[axes[0]] + strides[axes[1]], *strides)
    )
    index = "abcd"[: rho.ndim]
    return np.einsum(f"k{index[axes[0]]}{index[axes[1]]},k{index}->{index}", weights, shifted)


def _apply_damping(
    rho: np.ndarray, space: FockSpace, weights_plus: np.ndarray, weights_minus: np.ndarray
) -> np.ndarray:
    dp = space.cutoff_plus + 1
    dm = space.cutoff_minus + 1
    # axes (ket+, ket−, bra+, bra−)
    rho4 = _damp_mode(rho.reshape(dp, dm, dp, dm), weights_plus, (0, 2))
    return _damp_mode(rho4, weights_minus, (1, 3)).reshape(dp * dm, dp * dm)


def apply_channel_kraus(state: TwoModeState, params: ChiralParams) -> TwoModeState:
    """Exact channel action: phase rotation then binomial photon loss.

    The two stages commute, and the loss map is exactly trace preserving
    on any truncation containing the input support.
    """
    space = state.space
    rho = _rotated_input(state, params)
    rho = _apply_damping(
        rho,
        space,
        _loss_weights(space.cutoff_plus, params.alpha_plus)[0],
        _loss_weights(space.cutoff_minus, params.alpha_minus)[0],
    )
    return state.with_rho(rho)


def mode_output_and_alpha_derivative(
    rho: np.ndarray, alpha: float, phi: float
) -> tuple[np.ndarray, np.ndarray]:
    """One mode's channel output and its exact ∂/∂α, from one weight pass.

    ``rho`` is a single-mode density matrix on Fock levels 0..cutoff.  The
    phase stage multiplies entry (n, n') by e^{−iφ(n−n')}; the loss stage
    and its α-derivative apply the binomial weights of the two-mode engine
    with the same kernel.  Storage stays real when the rotated input is.
    """
    if phi != 0.0:
        u = np.exp(-1j * phi * np.arange(rho.shape[0]))
        rho = rho * np.outer(u, u.conj())
    elif not rho.imag.any():
        rho = rho.real
    weights, derivatives = _loss_weights(rho.shape[0] - 1, alpha)
    return _damp_mode(rho, weights, (0, 1)), _damp_mode(rho, derivatives, (0, 1))


def channel_output_and_alpha_derivatives(
    state: TwoModeState, params: ChiralParams
) -> tuple[TwoModeState, np.ndarray, np.ndarray]:
    """Channel output and its exact ∂/∂α₊, ∂/∂α₋ from one weight pass per mode.

    Each α-derivative swaps one mode's loss weights for their derivatives;
    the phase stage and the other mode's loss are α-independent, so they
    apply unchanged.  The derivatives are traceless Hermitian matrices,
    not states.
    """
    space = state.space
    rho = _rotated_input(state, params)
    weights_plus, d_plus = _loss_weights(space.cutoff_plus, params.alpha_plus)
    weights_minus, d_minus = _loss_weights(space.cutoff_minus, params.alpha_minus)
    return (
        state.with_rho(_apply_damping(rho, space, weights_plus, weights_minus)),
        _apply_damping(rho, space, d_plus, weights_minus),
        _apply_damping(rho, space, weights_plus, d_minus),
    )


def mode_population_transfer(cutoff: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """One mode's photon-number transfer matrix T and its exact ∂T/∂α.

    Loss maps populations to populations: p_out[m] = Σ_k T[m, m+k] p[m+k]
    with T[m, m+k] = W[k, m, m], the diagonal slice of the loss weights,
    so the intensity moments never need the coherences; only that slice
    is built.
    """
    root, half_msum, rows, cols = _loss_tables(cutoff)
    weights, derivatives = _scale_loss_weights(root * root, np.diagonal(half_msum), alpha)
    transfer = np.zeros((cutoff + 1, cutoff + 1))
    d_transfer = np.zeros_like(transfer)
    transfer[rows, cols] = weights[cols - rows, rows]
    d_transfer[rows, cols] = derivatives[cols - rows, rows]
    return transfer, d_transfer


def channel_phi_derivative(
    output_state: TwoModeState, mode: str
) -> np.ndarray:
    """Exact ∂ρ_out/∂φ_mode = −i[n_mode, ρ_out], evaluated elementwise."""
    if mode not in ("plus", "minus"):
        raise ValueError(f"mode must be 'plus' or 'minus', got {mode!r}")
    n_plus, n_minus = output_state.space.number_grids()
    n = n_plus if mode == "plus" else n_minus
    return -1j * (n[:, None] - n[None, :]) * output_state.rho


def _rk4_rhs_builder(space: FockSpace, rates: RatePicture):
    """Vectorized Lindblad right-hand side.

    dρ/dt = −i[θ₊n₊+θ₋n₋, ρ] + Σ± γ±(2 a± ρ a±† − n±ρ − ρn±), exploiting
    that both number operators are diagonal and a ρ a† is an index shift.
    """
    n_plus, n_minus = space.number_grids()
    dim = space.dim
    hvec = rates.theta_plus * n_plus + rates.theta_minus * n_minus
    linear = -1j * (hvec[:, None] - hvec[None, :]) - (
        rates.gamma_plus * np.add.outer(n_plus, n_plus)
        + rates.gamma_minus * np.add.outer(n_minus, n_minus)
    )
    stride_plus = space.cutoff_minus + 1
    keep_plus = dim - stride_plus  # rows with n₊ < cutoff₊ are contiguous
    w_plus = np.sqrt(n_plus[:keep_plus] + 1.0)
    jump_plus = 2.0 * rates.gamma_plus * np.outer(w_plus, w_plus)
    idx_minus = np.where(n_minus < space.cutoff_minus)[0]
    w_minus = np.sqrt(n_minus[idx_minus] + 1.0)
    jump_minus = 2.0 * rates.gamma_minus * np.outer(w_minus, w_minus)
    src_minus = idx_minus + 1
    dst = np.ix_(idx_minus, idx_minus)
    src = np.ix_(src_minus, src_minus)

    def rhs(rho: np.ndarray) -> np.ndarray:
        out = linear * rho
        if keep_plus > 0:
            out[:keep_plus, :keep_plus] += jump_plus * rho[stride_plus:, stride_plus:]
        if idx_minus.size > 0:
            out[dst] += jump_minus * rho[src]
        return out

    return rhs


def _rk4_step(rho: np.ndarray, rhs, h: float) -> np.ndarray:
    k1 = rhs(rho)
    k2 = rhs(rho + 0.5 * h * k1)
    k3 = rhs(rho + 0.5 * h * k2)
    k4 = rhs(rho + h * k3)
    return rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def apply_channel_rk4(
    state: TwoModeState, params: ChiralParams, steps: int = RK4_DEFAULT_STEPS
) -> TwoModeState:
    """Fixed-step RK4 integration of the master equation over t ∈ [0, 1].

    Independent of the Kraus engine; used to cross-validate it.  Result
    metadata records the trace and Hermiticity drift plus a step-doubling
    estimate of the global error; a warning string is attached when the
    estimate exceeds 1e-8.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps!r}")
    rates = params.to_rates(t=1.0)
    rhs = _rk4_rhs_builder(state.space, rates)
    h = 1.0 / steps
    rho = state.rho.copy()
    # step-doubling local error estimate on the first step
    coarse = _rk4_step(rho, rhs, h)
    fine = _rk4_step(_rk4_step(rho, rhs, h / 2.0), rhs, h / 2.0)
    local_err = float(np.max(np.abs(coarse - fine))) / 15.0
    global_err_estimate = local_err * steps
    rho = coarse
    for _ in range(steps - 1):
        rho = _rk4_step(rho, rhs, h)
    trace_drift = abs(float(np.trace(rho).real) - state.trace())
    herm_drift = hermiticity_defect(rho)
    meta = {
        "rk4_steps": steps,
        "rk4_trace_drift": trace_drift,
        "rk4_hermiticity_drift": herm_drift,
        "rk4_global_error_estimate": global_err_estimate,
    }
    if global_err_estimate > RK4_GLOBAL_ERROR_TOL:
        meta["rk4_warning"] = (
            f"estimated global error {global_err_estimate:.3e} exceeds"
            f" {RK4_GLOBAL_ERROR_TOL:.1e}; increase steps"
        )
    return state.with_rho(
        rho,
        trace_deficit_budget=state.trace_deficit_budget + 1e-9,
        **meta,
    )


def noon_output_analytic(params: ChiralParams, space: FockSpace) -> TwoModeState:
    """Closed-form channel output for the two-photon NOON input.

    Seven nonzero entries: three diagonal decay products per the binomial
    loss weights, plus the |2,0⟩⟨0,2| coherence damped by η₊η₋ and rotated
    by e^{−i2Δ} (in this package's sign convention, verified against the
    Kraus engine).
    """
    if space.cutoff_plus < 2 or space.cutoff_minus < 2:
        raise ValueError("noon_output_analytic needs cutoffs >= 2 in both modes")
    ap, am = params.alpha_plus, params.alpha_minus
    hp, hm = params.eta_plus, params.eta_minus
    rho = np.zeros((space.dim, space.dim), dtype=np.complex128)
    k20 = space.index(2, 0)
    k02 = space.index(0, 2)
    k10 = space.index(1, 0)
    k01 = space.index(0, 1)
    k00 = space.index(0, 0)
    rho[k20, k20] = 0.5 * hp**2
    rho[k02, k02] = 0.5 * hm**2
    rho[k10, k10] = ap * hp
    rho[k01, k01] = am * hm
    rho[k00, k00] = 0.5 * (ap**2 + am**2)
    cross = -0.5 * hp * hm * np.exp(-2j * params.delta)
    rho[k20, k02] = cross
    rho[k02, k20] = np.conj(cross)
    return TwoModeState(space=space, rho=rho, label="noon_output_analytic")
