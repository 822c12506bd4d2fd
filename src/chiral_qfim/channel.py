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
Kraus map (per-mode binomial photon loss composed with phase rotation)
and a fixed-step RK4 integration of the Lindblad generator.  The Kraus
engine is the oracle for everything downstream; the RK4 engine exists
to check it.

Loss and phase commute, and the phase stage is a unitary diagonal in the
number basis, so it leaves every QFIM unchanged: the loss engine takes the
absorptions only, and ``phase_stage`` follows it where an output is
returned at a phase (``apply_channel_kraus``, ``channel_derivatives``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, TwoModeState, _root_binomials, mode_factor_tables, phase_generator
from .linalg import hermiticity_defect, real_if_exact

COORDS_ALPHA_PHI = "alpha_phi"
COORDS_CHIRAL = "chiral"

ALPHA_PHI_NAMES = ("alpha_plus", "alpha_minus", "phi_plus", "phi_minus")
CHIRAL_NAMES = ("x_d", "x_s", "delta", "sigma")

RK4_DEFAULT_STEPS = 400
RK4_GLOBAL_ERROR_TOL = 1e-8


class DomainError(ValueError):
    """Channel parameters outside the physical domain."""


def _domain_message(name: str, value: float) -> str | None:
    """Why coordinate ``name`` cannot take ``value``, or None: every
    coordinate is finite, and an absorption lies in [0, 1)."""
    if not math.isfinite(value):
        return f"{name} must be finite, got {value!r}"
    if name.startswith("alpha") and not 0.0 <= value < 1.0:
        return f"{name} must lie in [0, 1), got {value!r}"
    return None


def _checked_coordinate(name: str, value: float) -> float:
    value = float(value)
    message = _domain_message(name, value)
    if message is not None:
        raise DomainError(message)
    return value


@dataclass(frozen=True)
class ChiralParams:
    """Net absorption and phase shift per circular mode, α± ∈ [0, 1)."""

    alpha_plus: float
    alpha_minus: float
    phi_plus: float = 0.0
    phi_minus: float = 0.0

    def __post_init__(self):
        for name in ALPHA_PHI_NAMES:
            object.__setattr__(self, name, _checked_coordinate(name, getattr(self, name)))

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


class ParamGrid:
    """Channel parameters as one (B,) array per coordinate: the grid axis of
    the numeric routes and the closed forms.  ``ParamGrid(params)`` takes a
    sequence of ChiralParams, ``from_chiral`` validates coordinate arrays.
    The derived coordinates are ChiralParams' own properties, so a closed
    form reads the same floats at a grid point as at that point alone."""

    eta_plus, eta_minus = ChiralParams.eta_plus, ChiralParams.eta_minus
    x_d, x_s, delta = ChiralParams.x_d, ChiralParams.x_s, ChiralParams.delta
    values = ChiralParams.values

    def __init__(self, params):
        coords = np.array([p.values(COORDS_ALPHA_PHI) for p in params], dtype=float)
        self.alpha_plus, self.alpha_minus, self.phi_plus, self.phi_minus = coords.reshape(-1, 4).T

    def __len__(self) -> int:
        return len(self.alpha_plus)

    def __getitem__(self, index) -> "ParamGrid":
        """The points at ``index``, a slice or a mask, as a grid; an int
        gives the one-point grid at that index."""
        if isinstance(index, (int, np.integer)):
            index = [index]
        part = ParamGrid(())
        coords = (coord[index] for coord in self.values(COORDS_ALPHA_PHI))
        part.alpha_plus, part.alpha_minus, part.phi_plus, part.phi_minus = coords
        return part

    @classmethod
    def from_chiral(cls, x_d, x_s, delta, sigma) -> tuple:
        """The grid of the points ``ChiralParams.from_chiral`` accepts, and
        per point None or the message it raises there: checked elementwise,
        with the message formed, as ChiralParams forms it, only at a
        rejected point."""
        coords = np.broadcast_arrays(x_s + x_d, x_s - x_d, (sigma + delta) / 2, (sigma - delta) / 2)
        coords = np.array(coords, dtype=float)
        ok = np.isfinite(coords).all(axis=0) & ((coords[:2] >= 0) & (coords[:2] < 1)).all(axis=0)
        errors = [None] * ok.size
        for b in np.flatnonzero(~ok).tolist():
            messages = map(_domain_message, ALPHA_PHI_NAMES, coords[:, b].tolist())
            errors[b] = next(filter(None, messages))
        grid = cls(())
        grid.alpha_plus, grid.alpha_minus, grid.phi_plus, grid.phi_minus = coords[:, ok]
        return grid, errors


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
            object.__setattr__(self, name, _checked_coordinate(name, getattr(self, name)))
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


def phase_stage(rho: np.ndarray, space: FockSpace, params: ChiralParams) -> np.ndarray:
    """The channel's phase stage ρ ∘ (u u†), u[k] = e^{−i(φ₊n₊ + φ₋n₋)} at
    the phases of ``params``, on a matrix of ``space`` or a stack of them:
    outputs, or their α-derivatives, since the stage is linear in ρ and does
    not depend on α."""
    n_plus, n_minus = space.number_grids()
    u = np.exp(-1j * (params.phi_plus * n_plus + params.phi_minus * n_minus))
    return rho * (u[:, None] * u.conj())


def _loss_tables(cutoff: int, alpha) -> tuple:
    """One mode's loss map and its ∂/∂α as (cutoff+1)² tables.

    The k-photon-loss Kraus operator maps ρ[m+k, m'+k] into (m, m') with
    weight W[k, m, m'] = c_k g[k, m] g[k, m'], where

        g[k, m] = √C(m+k, k) · η^{m/2},   c_k = α^k,   η = 1 − α,

    and ∂W/∂α = dc_k g[k, m] g[k, m'] − W (m+m')/(2η), dc_k = k α^{k−1}.
    Returns (c·g, dc·g, g, h) with h[m] = m/(2η).  ``alpha`` is one value
    or an array of them, whose shape then leads every table.  Nothing
    divides by α, so α = 0 is exact: c = (1, 0, ..) and dc = (0, 1, 0, ..).
    """
    alpha = np.asarray(alpha, dtype=float)
    eta = 1.0 - alpha[..., None]
    root, _, _, k, half_k, k_minus_one = _root_binomials(cutoff)
    g = root * eta[..., None, :] ** half_k
    c = alpha[..., None, None] ** k[:, None]
    dc = k[:, None] * alpha[..., None, None] ** k_minus_one[:, None]
    return c * g, dc * g, g, k / (2.0 * eta)


def _damp_mode(rho: np.ndarray, tables: tuple, axes: tuple, derivative: bool = True):
    """Apply one mode's loss tables to the (ket, bra) ``axes`` of ``rho``.

    out[b, .., m, .., m', ..] = Σ_k W[b, k, m, m'] ρ[b, .., m+k, .., m'+k, ..]
    with W = (c·g)_k ⊗ g_k at each grid point b, and with ``derivative``
    also ∂out/∂α.  The tables' leading axes are the grid's; ``rho`` leads
    with as many, each of the grid's length or of one entry that every
    point along it shares.  The shifted input is a strided view of a flat
    buffer holding each of ρ's matrices followed by as many zeros (with a
    zero stride along a shared axis), so the contraction over k reads ρ in
    place.  A shift past the last level reads on into the next row or the
    zero tail, where its weight g[k, m] (m+k > cutoff) is exactly zero.
    """
    weighted, d_weighted, g, h = tables
    lead, d = weighted.ndim - 2, rho.shape[axes[0]]
    size = math.prod(rho.shape[lead:])
    flat = np.zeros((*rho.shape[:lead], 2 * size), dtype=rho.dtype)
    window = flat[..., :size].reshape(rho.shape)
    window[...] = rho
    strides = [stride if n > 1 else 0 for stride, n in zip(window.strides, rho.shape[:lead])]
    strides += [window.strides[axes[0]] + window.strides[axes[1]], *window.strides[lead:]]
    # shifted[b, k, .., m, .., m', ..] = window[b, .., m+k, .., m'+k, ..]
    shape = (*weighted.shape[:lead], d, *rho.shape[lead:])
    shifted = np.ndarray(shape, rho.dtype, flat, 0, strides)
    index = "pqrs"[: rho.ndim - lead]
    ket, bra = index[axes[0] - lead], index[axes[1] - lead]
    spec = f"...k{ket},...k{bra},...k{index}->...{index}"
    out = np.einsum(spec, weighted, g, shifted)
    if not derivative:
        return out
    h_ket = [*h.shape[:-1]] + [1] * (rho.ndim - lead)
    h_bra = list(h_ket)
    h_ket[axes[0]] = h_bra[axes[1]] = d
    d_out = np.einsum(spec, d_weighted, g, shifted)
    d_out -= out * (h.reshape(h_ket) + h.reshape(h_bra))
    return out, d_out


def apply_channel_kraus(state: TwoModeState, params: ChiralParams) -> TwoModeState:
    """Exact channel action: binomial photon loss, then the phase stage.

    The two stages commute, and the loss map is exactly trace preserving
    on any truncation containing the input support.
    """
    output = grid_output_and_alpha_derivatives(state, [params.alpha_plus], [params.alpha_minus])[0]
    return state.with_rho(phase_stage(output[0], state.space, params))


def factored_output_and_alpha_derivative(tables, spectra, owners, alpha) -> tuple:
    """One mode's loss outputs and their exact ∂/∂α for N problems, each an
    input factor and an absorption, as two batched matrix products with no
    d³ tensor.

    Loss has the Kraus form ρ → Σ_k K_k ρ K_k†, K_k = √(α^k) diag(g_k)
    shift_k (Monras & Paris, PRL 98, 160401 (2007)), so an input
    ρ = Σ_i s_i w_i w_i† gives, with D = diag(η^{m/2}) and h_m = m/(2η),

        out = (D R) diag(s ⊗ c) (D R)†,
        ∂out/∂α = (D R) diag(s ⊗ dc) (D R)† − out ⊙ (h_m + h_m′),

    c_k = α^k and dc_k = k α^{k−1}, from the α-free ``tables``
    R[m, (k, i)] = √C(m+k, k) w_i[m+k] (K, d, d·r) and signed ``spectra``
    s (K, r) of ``fock.mode_factor_tables``.  Problem n reads input
    ``owners[n]`` at absorption ``alpha[n]``; both results are (N, d, d).
    D stays with R, so every term is bounded by a binomial weight and no
    product overflows where η^m underflows.  Nothing divides by α, so
    α = 0 is exact; the arithmetic is real when the tables are.
    """
    alpha = np.asarray(alpha, dtype=float)[:, None]
    eta = 1.0 - alpha
    _, _, _, k, half_k, k_minus_one = _root_binomials(tables.shape[-2] - 1)
    owners = np.asarray(owners)
    spectra = spectra[owners, None, :]

    def columns(weights):
        """diag(s ⊗ weights) as rows that scale the columns (k, i)."""
        return (weights[:, :, None] * spectra).reshape(len(weights), 1, -1)

    scaled = tables[owners]
    scaled *= (eta**half_k)[:, :, None]
    rows = scaled * columns(k * alpha**k_minus_one)
    # (D R)† is read from D R's buffer, conjugated in place when complex, and
    # the rows of c reuse those of dc: two (N, d, d·r) arrays besides the results
    real = scaled.dtype.kind != "c"
    scaled_h = (scaled if real else np.conjugate(scaled, out=scaled)).swapaxes(1, 2)
    d_out = rows @ scaled_h
    unconjugated = scaled if real else np.conjugate(scaled, out=rows)
    rows = np.multiply(unconjugated, columns(alpha**k), out=rows)
    out = rows @ scaled_h
    del rows, scaled, scaled_h, unconjugated
    h = half_k / eta
    d_out -= out * (h[:, :, None] + h[:, None, :])
    return out, d_out


def mode_output_and_alpha_derivative(rho: np.ndarray, alpha) -> tuple[np.ndarray, np.ndarray]:
    """One mode's loss output and its exact ∂/∂α.

    ``rho`` is a single-mode Hermitian matrix on Fock levels 0..cutoff, or
    a stack of them, each factored by ``fock.mode_factor_tables`` and
    passed to ``factored_output_and_alpha_derivative``, the kernel of the
    product route.  ``alpha`` is one value or an array whose shape leads
    both results, its first axis over a stack's matrices.  Storage stays
    real when ``rho`` is.
    """
    rho = np.asarray(rho)
    alpha = np.asarray(alpha, dtype=float)
    d = rho.shape[-1]
    tables, spectra = mode_factor_tables(rho.reshape(-1, d, d), d)
    owners = np.repeat(np.arange(len(tables)), alpha.size // len(tables))
    out, d_out = factored_output_and_alpha_derivative(tables, spectra, owners, alpha.reshape(-1))
    return out.reshape(*alpha.shape, d, d), d_out.reshape(*alpha.shape, d, d)


def grid_output_and_alpha_derivatives(state: TwoModeState, alpha_plus, alpha_minus) -> tuple:
    """Loss outputs and their exact ∂/∂α₊, ∂/∂α₋ at each pair of absorptions.

    ``alpha_plus`` and ``alpha_minus`` are (B,) arrays; each result is a
    (B, dim, dim) stack at zero phase, from one table pass per mode.  The
    mode-plus loss stage and its ∂/∂α₊ are formed once; the mode-minus
    loss maps the stage to the output and ∂/∂α₋, and its ∂/∂α₊ to the
    output's.  The outputs are unchecked, and the derivatives are
    traceless Hermitian matrices, not states.
    """
    space = state.space
    # one input that every point shares, in real storage when exactly real:
    # loss weights are real, so the whole damping stage then runs in real
    # arithmetic (about twice as fast)
    rho = real_if_exact(state.rho)
    dp, dm = space.cutoff_plus + 1, space.cutoff_minus + 1
    tables_plus = _loss_tables(space.cutoff_plus, alpha_plus)
    tables_minus = _loss_tables(space.cutoff_minus, alpha_minus)
    stage, d_stage = _damp_mode(rho.reshape(1, dp, dm, dp, dm), tables_plus, (1, 3))
    output, d_minus = _damp_mode(stage, tables_minus, (2, 4))
    d_plus = _damp_mode(d_stage, tables_minus, (2, 4), derivative=False)
    shape = (-1, space.dim, space.dim)
    return output.reshape(shape), d_plus.reshape(shape), d_minus.reshape(shape)


def mode_population_transfer(cutoff: int, alpha) -> tuple[np.ndarray, np.ndarray]:
    """One mode's photon-number transfer matrix T and its exact ∂T/∂α.

    Loss maps populations to populations: p_out[m] = Σ_k T[m, m+k] p[m+k]
    with T[m, m+k] = W[k, m, m] = (c·g)[k, m] g[k, m], the diagonal of the
    loss map, so the intensity moments never need the coherences.  An
    array of ``alpha`` values leads both results with its shape.
    """
    weighted, d_weighted, g, h = _loss_tables(cutoff, alpha)
    _, rows, cols = _root_binomials(cutoff)[:3]
    k = cols - rows
    transfer = np.zeros((*g.shape[:-2], cutoff + 1, cutoff + 1))
    d_transfer = np.zeros_like(transfer)
    g = g[..., k, rows]
    transfer[..., rows, cols] = weighted[..., k, rows] * g
    d_transfer[..., rows, cols] = d_weighted[..., k, rows] * g - transfer[..., rows, cols] * 2 * h[
        ..., rows
    ]
    return transfer, d_transfer


def phase_derivative(rho: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Exact ∂ρ/∂φ = −i[diag(n), ρ] elementwise, for ρ or a stack of them;
    a stack of ``n`` vectors broadcasts against the matrices' leading axes.
    The bound routes multiply by their state's stored ``phase_generator``."""
    return phase_generator(n) * rho


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
