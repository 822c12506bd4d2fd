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


def _rotated_input(state: TwoModeState, params: ChiralParams) -> np.ndarray:
    """Phase-stage output as the tensor ρ[ket+, ket−, bra+, bra−].

    ρ → ρ ∘ (u u†) with u[k] = e^{−i(φ₊ n₊ + φ₋ n₋)}, dropped to real
    storage when exactly real: loss weights are real, so the whole damping
    stage then runs in real arithmetic (about twice as fast).
    """
    space, rho = state.space, state.rho
    if params.phi_plus != 0.0 or params.phi_minus != 0.0:
        n_plus, n_minus = space.number_grids()
        u = np.exp(-1j * (params.phi_plus * n_plus + params.phi_minus * n_minus))
        rho = rho * np.outer(u, u.conj())
    elif not rho.imag.any():
        rho = rho.real
    dp, dm = space.cutoff_plus + 1, space.cutoff_minus + 1
    return rho.reshape(dp, dm, dp, dm)


@functools.lru_cache(maxsize=64)
def _root_binomials(cutoff: int) -> tuple:
    """α-independent, read-only (cutoff+1)² tables, cached per cutoff.

    ``root[k, m] = √C(m+k, k)`` for m+k ≤ cutoff and 0 beyond, where the
    k-photon-loss Kraus operator has no entry; each binomial is exact
    before its one rounding, so it holds past int64 (cutoff ≥ 67).
    ``rows``, ``cols`` index the upper triangle T[m, m+k].
    """
    m = np.arange(cutoff + 1)
    root = np.sqrt(
        [[float(math.comb(i + k, k)) if i + k <= cutoff else 0.0 for i in m] for k in m]
    )
    tables = (root, *np.triu_indices(cutoff + 1))
    for table in tables:
        table.flags.writeable = False
    return tables


def _loss_tables(cutoff: int, alpha: float) -> tuple:
    """One mode's loss map and its ∂/∂α as (cutoff+1)² tables.

    The k-photon-loss Kraus operator maps ρ[m+k, m'+k] into (m, m') with
    weight W[k, m, m'] = c_k g[k, m] g[k, m'], where

        g[k, m] = √C(m+k, k) · η^{m/2},   c_k = α^k,   η = 1 − α,

    and ∂W/∂α = dc_k g[k, m] g[k, m'] − W (m+m')/(2η), dc_k = k α^{k−1}.
    Returns (c·g, dc·g, g, h) with h[m] = m/(2η).  Nothing divides by α,
    so α = 0 is exact: c = (1, 0, ..) and dc = (0, 1, 0, ..).
    """
    eta = 1.0 - alpha
    # powers by the scalar pow, which rounds correctly; numpy's vectorized
    # power can be an ulp off
    g = _root_binomials(cutoff)[0] * np.array([eta ** (m / 2) for m in range(cutoff + 1)])
    c = np.array([[alpha**k] for k in range(cutoff + 1)])
    dc = np.array([[k * alpha ** (k - 1) if k else 0.0] for k in range(cutoff + 1)])
    return c * g, dc * g, g, np.arange(cutoff + 1) / (2.0 * eta)


def _damp_mode(rho: np.ndarray, tables: tuple, axes: tuple, derivative: bool = True):
    """Apply one mode's loss tables to the (ket, bra) ``axes`` of ``rho``.

    out[.., m, .., m', ..] = Σ_k W[k, m, m'] ρ[.., m+k, .., m'+k, ..] with
    W = (c·g)_k ⊗ g_k, and with ``derivative`` also ∂out/∂α.  The shifted
    input is a strided view of a zero-padded copy, so the contraction over
    k reads ρ in place instead of gathering a (cutoff+1)-fold copy of it.
    """
    weighted, d_weighted, g, h = tables
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
    spec = f"k{index[axes[0]]},k{index[axes[1]]},k{index}->{index}"
    out = np.einsum(spec, weighted, g, shifted)
    if not derivative:
        return out
    ket, bra = [1] * rho.ndim, [1] * rho.ndim
    ket[axes[0]] = bra[axes[1]] = d
    return out, np.einsum(spec, d_weighted, g, shifted) - out * (h.reshape(ket) + h.reshape(bra))


def apply_channel_kraus(state: TwoModeState, params: ChiralParams) -> TwoModeState:
    """Exact channel action: phase rotation then binomial photon loss.

    The two stages commute, and the loss map is exactly trace preserving
    on any truncation containing the input support.
    """
    space = state.space
    rho = _rotated_input(state, params)
    for cutoff, alpha, axes in (
        (space.cutoff_plus, params.alpha_plus, (0, 2)),
        (space.cutoff_minus, params.alpha_minus, (1, 3)),
    ):
        rho = _damp_mode(rho, _loss_tables(cutoff, alpha), axes, derivative=False)
    return state.with_rho(rho.reshape(space.dim, space.dim))


def mode_output_and_alpha_derivative(
    rho: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """One mode's loss output and its exact ∂/∂α, from one table pass.

    ``rho`` is a single-mode density matrix on Fock levels 0..cutoff; the
    kernel is the two-mode engine's.  Storage stays real when ``rho`` is.
    """
    if not rho.imag.any():
        rho = rho.real
    return _damp_mode(rho, _loss_tables(rho.shape[0] - 1, alpha), (0, 1))


def channel_output_and_alpha_derivatives(
    state: TwoModeState, params: ChiralParams
) -> tuple[TwoModeState, np.ndarray, np.ndarray]:
    """Channel output and its exact ∂/∂α₊, ∂/∂α₋ from one table pass per mode.

    The mode-plus loss stage and its ∂/∂α₊ are formed once; the mode-minus
    loss maps the stage to the output and ∂/∂α₋, and its ∂/∂α₊ to the
    output's.  The derivatives are traceless Hermitian matrices, not states.
    """
    space = state.space
    rho = _rotated_input(state, params)
    tables_plus = _loss_tables(space.cutoff_plus, params.alpha_plus)
    tables_minus = _loss_tables(space.cutoff_minus, params.alpha_minus)
    stage, d_stage = _damp_mode(rho, tables_plus, (0, 2))
    output, d_minus = _damp_mode(stage, tables_minus, (1, 3))
    d_plus = _damp_mode(d_stage, tables_minus, (1, 3), derivative=False)
    return (
        state.with_rho(output.reshape(space.dim, space.dim)),
        d_plus.reshape(space.dim, space.dim),
        d_minus.reshape(space.dim, space.dim),
    )


def mode_population_transfer(cutoff: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """One mode's photon-number transfer matrix T and its exact ∂T/∂α.

    Loss maps populations to populations: p_out[m] = Σ_k T[m, m+k] p[m+k]
    with T[m, m+k] = W[k, m, m] = (c·g)[k, m] g[k, m], the diagonal of the
    loss map, so the intensity moments never need the coherences.
    """
    weighted, d_weighted, g, h = _loss_tables(cutoff, alpha)
    _, rows, cols = _root_binomials(cutoff)
    k = cols - rows
    transfer = np.zeros((cutoff + 1, cutoff + 1))
    d_transfer = np.zeros_like(transfer)
    transfer[rows, cols] = (weighted * g)[k, rows]
    d_transfer[rows, cols] = (d_weighted * g)[k, rows] - transfer[rows, cols] * 2 * h[rows]
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
