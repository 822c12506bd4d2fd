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
to check it.  Loss has one kernel, ``factored_loss_output``, which forms
outputs only: a product input's factors call it one mode at a time, any
other input on the two-mode table of its matrix.  Loss is the semigroup
e^{tL}, t = −ln(1 − α), so every output gives its own derivative,
∂ρ/∂α = L(ρ)/(1 − α), which ``loss_population_slope`` forms along one
mode's levels of output matrices or of their populations, and
``loss_output_slopes`` for each mode of a stack of outputs.  Loss maps
populations among themselves one mode at a time, by binomial thinning, so
photon statistics follow from the input populations with no pass over the
transfer matrix (``experiments._intensity_moments``).

Loss and phase commute, and the phase stage is a unitary diagonal in the
number basis, so it leaves every QFIM unchanged: the loss engine takes the
absorptions only, and ``phase_stage`` follows it where an output is
returned at a phase (``apply_channel_kraus``, ``channel_derivatives``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, TwoModeState, _root_binomials
from .linalg import hermiticity_defect

COORDS_ALPHA_PHI = "alpha_phi"
COORDS_CHIRAL = "chiral"

ALPHA_PHI_NAMES = ("alpha_plus", "alpha_minus", "phi_plus", "phi_minus")
CHIRAL_NAMES = ("x_d", "x_s", "delta", "sigma")

RK4_DEFAULT_STEPS = 100
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
        rejected point, from its first coordinate that fails."""
        coords = np.empty((4, np.broadcast(x_d, x_s, delta, sigma).size))
        coords[0], coords[1] = x_s + x_d, x_s - x_d
        coords[2], coords[3] = (sigma + delta) / 2, (sigma - delta) / 2
        # an absorption outside [0, 1), NaN included, or a phase not finite
        bad = np.concatenate((~((coords[:2] >= 0) & (coords[:2] < 1)), ~np.isfinite(coords[2:])))
        ok = ~bad.any(axis=0)
        errors = [None] * ok.size
        kept = coords
        if not ok.all():
            rejected = np.flatnonzero(~ok)
            first = bad[:, rejected].argmax(axis=0)
            found = coords[first, rejected].tolist()
            for b, name, value in zip(rejected.tolist(), first.tolist(), found):
                errors[b] = _domain_message(ALPHA_PHI_NAMES[name], value)
            kept = coords[:, ok]
        grid = cls.__new__(cls)  # filled here, with no sequence of points to convert
        grid.alpha_plus, grid.alpha_minus, grid.phi_plus, grid.phi_minus = kept
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
    the phases of ``params``, on a matrix of ``space`` or a stack of them.
    It commutes with loss and with its generator L, so an output's
    α-derivatives may be formed before or after it."""
    n_plus, n_minus = space.number_grids()
    u = np.exp(-1j * (params.phi_plus * n_plus + params.phi_minus * n_minus))
    return rho * (u[:, None] * u.conj())


def apply_channel_kraus(state: TwoModeState, params: ChiralParams) -> TwoModeState:
    """Exact channel action: binomial photon loss, then the phase stage.

    The two stages commute, and the loss map is exactly trace preserving
    on any truncation containing the input support.
    """
    output = point_loss_output(state, params)
    return state.with_rho(phase_stage(output, state.space, params))


def factored_loss_output(tables, spectra, owners, alpha) -> np.ndarray:
    """Loss outputs for N problems, each an input factor and one absorption
    per mode of its table, as batched matrix products with no d³ tensor: the
    one loss kernel, which forms outputs only (``loss_population_slope``
    gives their ∂/∂α).  Loss has the Kraus form ρ → Σ_k K_k ρ K_k†, K_k =
    √(α^k) diag(g_k) shift_k on each mode (Monras & Paris, PRL 98, 160401
    (2007)), so an input ρ = Σ_i s_i w_i w_i† gives, with D = diag(Π_j
    η_j^{m_j/2}) on the levels m = (m_1, ..),

        out = (D R) diag(s ⊗ c_1 ⊗ ..) (D R)†,

    c_k = α^k per mode, from the α-free ``tables`` R[m, (k, i)] = Π_j
    √C(m_j+k_j, k_j) w_i[m+k] (K, *levels, dim·r) and signed ``spectra`` s
    (K, r): one mode's from ``fock.mode_factor_tables``, two modes' from
    ``TwoModeState.kraus_tables``.  A table holds dim × dim·r entries: cheap
    at rank 1, dim³·r for a large input of rank r.  Problem n reads input
    ``owners[n]`` at the absorptions ``alpha[n]``; the outputs are (N, dim,
    dim).  D stays with R, so no product overflows where η^m underflows.
    Nothing divides by α, so α = 0 is exact; the arithmetic is real when
    the tables are.
    """
    levels = tables.shape[1:-1]
    n, modes = len(owners), len(levels)
    alpha = np.asarray(alpha, dtype=float).reshape(n, modes)
    owners = np.asarray(owners)
    scaled = tables[owners]
    # diag(s ⊗ c_1 ⊗ ..) as a row that scales the columns (k, i), and per mode
    # j D's factor η_j^{m_j/2} along its levels' axis
    columns = spectra[owners].reshape((n,) + (1,) * modes + (-1,))
    for j, d in enumerate(levels):
        _, k, half_k = _root_binomials(d - 1)
        axes = (n,) + (1,) * j + (d,) + (1,) * (modes - j)
        columns = columns * (alpha[:, j, None] ** k).reshape(axes)
        scaled *= ((1.0 - alpha[:, j, None]) ** half_k).reshape(axes)
    scaled = scaled.reshape(n, math.prod(levels), -1)
    rows = scaled * columns.reshape(n, 1, -1)
    # (D R)† is read from D R's own buffer, conjugated in place when complex
    if scaled.dtype.kind == "c":
        np.conjugate(scaled, out=scaled)
    return rows @ scaled.swapaxes(1, 2)


def grid_loss_outputs(state: TwoModeState, alpha_plus, alpha_minus) -> np.ndarray:
    """Loss outputs at each pair of absorptions, (B, dim, dim) at zero
    phase for the (B,) arrays ``alpha_plus`` and ``alpha_minus``, from one
    call of the loss kernel on the state's ``kraus_tables``, real when the
    input is exactly real.  The outputs are unchecked.
    """
    tables, spectra = state.kraus_tables
    alpha = np.column_stack((alpha_plus, alpha_minus))
    return factored_loss_output(tables, spectra, [0] * len(alpha), alpha)


def point_loss_output(state: TwoModeState, params: ChiralParams) -> np.ndarray:
    """The loss output at one point, (dim, dim) at zero phase, exactly zero
    outside the state's ``output_blocks``: on a mixed input with structural
    zeros the kernel's eigenvectors leave rounding on entries that no input
    entry reaches, which a second channel step would read as nonzero.
    """
    output = grid_loss_outputs(state, [params.alpha_plus], [params.alpha_minus])[0]
    output[outside_blocks(state)] = 0.0
    return output


def outside_blocks(state: TwoModeState) -> np.ndarray:
    """The (dim, dim) mask of the entries that no block of the state's
    ``output_blocks`` holds: every channel output, and each of its
    α-derivatives, is 0 there in exact arithmetic."""
    outside = np.ones((state.space.dim, state.space.dim), dtype=bool)
    for block in state.output_blocks.blocks:
        outside[np.ix_(block, block)] = False
    return outside


def loss_population_slope(rho, alpha, axis: int = -1, bra_axis: int | None = None) -> np.ndarray:
    """∂/∂α of loss outputs ``rho`` from the outputs alone, for the mode of
    absorption ``alpha`` (broadcast against ``rho``): of populations along
    its levels on ``axis``, or, with a ``bra_axis``, of matrices along its
    ket levels on ``axis`` and its bra levels on ``bra_axis``.

    Loss at transmission η = 1 − α is the semigroup e^{tL}, t = −ln η, with
    L(ρ) = aρa† − ½{n, ρ} on the mode (Monras & Paris), so ∂ρ/∂α = L(ρ)/η,
    ∂ρ[m, m′]/∂α = (√((m+1)(m′+1)) ρ[m+1, m′+1] − ½(m + m′) ρ[m, m′])/η
    with ρ past the last level 0, exact on a truncated space, since loss
    never raises the photon number.  Its diagonal, ((m + 1) p_{m+1} −
    m p_m)/η, is the populations' slope to the bit: both weights are exact.
    """
    ket = axis % rho.ndim
    bra = ket if bra_axis is None else bra_axis % rho.ndim

    def levels(at, start=0):
        return np.arange(start, rho.shape[at]).reshape((-1,) + (1,) * (rho.ndim - at - 1))

    lower = tuple(slice(None, -1) if i in (ket, bra) else slice(None) for i in range(rho.ndim))
    upper = tuple(slice(1, None) if i in (ket, bra) else slice(None) for i in range(rho.ndim))
    slope = -0.5 * (levels(ket) + levels(bra)) * rho
    slope[lower] += np.sqrt(levels(ket, 1) * levels(bra, 1)) * rho[upper]
    slope /= 1.0 - alpha
    return slope


def loss_output_slopes(outputs, alphas, space: FockSpace | None = None) -> list:
    """∂/∂α of loss outputs (..., dim, dim) for each mode, at its absorptions
    ``alphas[j]`` (...): ``loss_population_slope`` along the mode's ket and
    bra levels.  The outputs are on ``space``'s two modes (α₊, α₋), or
    without one on the dim levels of one mode (α)."""
    levels = (space.cutoff_plus + 1, space.cutoff_minus + 1) if space else outputs.shape[-1:]
    joint, at = outputs.reshape(outputs.shape[:-2] + levels * 2), (1,) * 2 * len(levels)
    return [
        loss_population_slope(joint, np.reshape(a, np.shape(a) + at), j - len(at), j - len(levels))
        .reshape(outputs.shape)
        for j, a in enumerate(alphas)
    ]


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
