"""Reference routes that the tests compare the package against.

Each reaches a quantity that ``chiral_qfim`` computes once by an
independent way:

* ``finite_difference``: ∂ρ_out by differences of the Kraus output, against
  the exact derivatives of ``channel_derivatives``;
* ``sld_route_bounds``: the QFIM assembled from explicitly solved SLDs,
  F_ij = ½ tr[ρ(L_iL_j + L_jL_i)], against the eigenbasis and per-mode
  routes of ``compute_bounds``;
* ``noon_output_analytic``: the closed-form channel output of the NOON
  input, against the Kraus engine;
* ``kraus_loss``: the loss output and its exact α-derivatives by a loop
  over the Kraus operators, each reading the input's own entries through a
  slice and differentiating its weights, against the factored loss kernel
  and against ∂ρ/∂α = L(ρ_out)/(1 − α), which the package forms from each
  output by the loss generator L;
* ``population_moments``: the intensity signals' variances and slopes, and
  the sensitivities, from the joint output populations T₊ P T₋ᵀ and their
  α-derivatives, against the intensity moments, which read the input
  populations alone;
* ``rank_one_qfim_by_solve``: the QFIMs of rank-one single-mode problems by
  one linear solve of (ρ + λ)x = u each, against the package's expansion of
  that inverse about λtt†.

``mode_output_and_alpha_derivative`` runs the package's loss kernel on one
mode's matrix, and its slope rule on the output, for the tests that solve
a single mode alone.
"""

import dataclasses

import numpy as np

from chiral_qfim.channel import (
    ALPHA_PHI_NAMES,
    CHIRAL_NAMES,
    COORDS_ALPHA_PHI,
    COORDS_CHIRAL,
    ChiralParams,
    DomainError,
    apply_channel_kraus,
    factored_loss_output,
    loss_output_slopes,
)
from chiral_qfim.estimation import (
    QfimResult,
    channel_derivatives,
    invert_and_bound,
    solve_sld,
)
from chiral_qfim.experiments import DERIVATIVE_FLOOR
from chiral_qfim.fock import _root_binomials, mode_factor_tables, require_trace_window
from chiral_qfim.linalg import adjoint

FD_STEP_SCALE = 1e-5


def finite_difference(state, params: ChiralParams, name: str) -> tuple:
    """∂ρ_out/∂``name`` and the stencil that gave it.

    The central stencil, or a second-order one-sided one ("forward" or
    "backward") where a neighbour leaves the domain.  ``name`` is a native
    or a chiral coordinate, perturbed directly in its own coordinate set.
    """
    native = name in ALPHA_PHI_NAMES
    names = ALPHA_PHI_NAMES if native else CHIRAL_NAMES
    values = dict(zip(names, params.values(COORDS_ALPHA_PHI if native else COORDS_CHIRAL)))
    x = values[name]
    h = FD_STEP_SCALE * max(1.0, abs(x))

    def rho_at(steps):
        shifted = {**values, name: x + steps * h}
        point = ChiralParams(**shifted) if native else ChiralParams.from_chiral(**shifted)
        return apply_channel_kraus(state, point).rho

    try:
        return (rho_at(1) - rho_at(-1)) / (2 * h), "central"
    except DomainError:
        pass
    for stencil, sign in (("forward", 1), ("backward", -1)):
        try:
            drho = sign * (-3.0 * rho_at(0) + 4.0 * rho_at(sign) - rho_at(2 * sign)) / (2 * h)
            return drho, stencil
        except DomainError:
            continue
    raise DomainError(f"no finite-difference stencil for {name!r} at {x!r}")


def assemble_qfim(rho: np.ndarray, slds) -> np.ndarray:
    """F_ij = ½ tr[ρ(L_iL_j + L_jL_i)] = Re tr[ρ L_i L_j] from solved SLDs."""
    left = [rho @ s.L for s in slds]
    f = np.array([[np.sum(a * s.L.T).real for s in slds] for a in left])
    return (f + f.T) / 2.0


def sld_route_bounds(state, params: ChiralParams, labels) -> QfimResult:
    """Bounds through explicit SLDs on the two-mode output, one per label."""
    output, derivs = channel_derivatives(state, params, labels)
    f = assemble_qfim(output.rho, [solve_sld(output, d) for d in derivs])
    return dataclasses.replace(invert_and_bound(labels, f), meta={"route": "sld"})


def mode_output_and_alpha_derivative(rho: np.ndarray, alpha) -> tuple[np.ndarray, np.ndarray]:
    """One mode's loss output and its exact ∂/∂α.

    ``rho`` is a single-mode Hermitian matrix on Fock levels 0..cutoff, or
    a stack of them, each factored by ``fock.mode_factor_tables`` and
    passed to ``channel.factored_loss_output``, the kernel of the product
    route; ∂/∂α is ``channel.loss_output_slopes`` of each output.
    ``alpha`` is one value or an array whose shape leads both results, its
    first axis over a stack's matrices.  Storage stays real when ``rho`` is.
    """
    rho = np.asarray(rho)
    alpha = np.asarray(alpha, dtype=float)
    d = rho.shape[-1]
    tables, spectra = mode_factor_tables(rho.reshape(-1, d, d), d)
    owners = np.repeat(np.arange(len(tables)), alpha.size // len(tables))
    out = factored_loss_output(tables, spectra, owners, alpha.reshape(-1))
    (d_out,) = loss_output_slopes(out, [alpha.reshape(-1)])
    return out.reshape(*alpha.shape, d, d), d_out.reshape(*alpha.shape, d, d)


def noon_output_analytic(params: ChiralParams, space) -> np.ndarray:
    """Closed-form channel output of the two-photon NOON input.

    Seven nonzero entries: three diagonal decay products per the binomial
    loss weights, plus the |2,0⟩⟨0,2| coherence damped by η₊η₋ and rotated
    by e^{−i2Δ}.
    """
    ap, am = params.alpha_plus, params.alpha_minus
    hp, hm = params.eta_plus, params.eta_minus
    k20, k02, k10, k01, k00 = (space.index(*n) for n in ((2, 0), (0, 2), (1, 0), (0, 1), (0, 0)))
    rho = np.zeros((space.dim, space.dim), dtype=np.complex128)
    rho[k20, k20] = 0.5 * hp**2
    rho[k02, k02] = 0.5 * hm**2
    rho[k10, k10] = ap * hp
    rho[k01, k01] = am * hm
    rho[k00, k00] = 0.5 * (ap**2 + am**2)
    rho[k20, k02] = -0.5 * hp * hm * np.exp(-2j * params.delta)
    rho[k02, k20] = np.conj(rho[k20, k02])
    return rho


def _loss_weights(cutoff: int, k: int, alpha: float) -> tuple:
    """One mode's k-photon weights α^k w_m w_m', w_m = √C(m+k, k) η^(m/2),
    on the levels m, m' ≤ cutoff − k, and their exact α-derivative by the
    product rule, (k α^(k−1) − α^k (m + m')/(2η)) w_m w_m', each binomial
    an exact int, C(m+k, k) = C(m−1+k, k)(m+k)/m from C(k, k) = 1."""
    size, eta = cutoff + 1 - k, 1.0 - alpha
    binomials = [1]
    for m in range(1, size):
        binomials.append(binomials[-1] * (m + k) // m)
    half = np.arange(size) / 2.0
    w = np.sqrt(np.array(binomials, dtype=float)) * eta**half
    d_alpha_k = k * alpha ** (k - 1) if k else 0.0  # with 0^0 = 1
    weights = np.outer(w, w)
    derivatives = (d_alpha_k - alpha**k * np.add.outer(half, half) / eta) * weights
    return alpha**k * weights, derivatives


def kraus_loss(rho: np.ndarray, space, alpha_plus: float, alpha_minus: float) -> tuple:
    """Binomial loss of a two-mode matrix ``rho`` and its exact ∂/∂α₊,
    ∂/∂α₋, one (k, l) Kraus pair at a time: the input entries
    ρ[(m₊+k, m₋+l), (m₊'+k, m₋'+l)], read as a slice, weighted per mode."""
    dp, dm = space.cutoff_plus + 1, space.cutoff_minus + 1
    rho = np.asarray(rho).reshape(dp, dm, dp, dm)
    out, d_plus, d_minus = (np.zeros(rho.shape, np.result_type(rho, float)) for _ in range(3))
    minus = [_loss_weights(dm - 1, l, alpha_minus) for l in range(dm)]
    for k in range(dp):
        w_plus, dw_plus = _loss_weights(dp - 1, k, alpha_plus)
        for l, (w_minus, dw_minus) in enumerate(minus):
            shifted = rho[k:, l:, k:, l:]
            for target, a, b in (
                (out, w_plus, w_minus),
                (d_plus, dw_plus, w_minus),
                (d_minus, w_plus, dw_minus),
            ):
                target[: dp - k, : dm - l, : dp - k, : dm - l] += (
                    a[:, None, :, None] * b[None, :, None, :] * shifted
                )
    return tuple(m.reshape(space.dim, space.dim) for m in (out, d_plus, d_minus))


def _population_transfer(cutoff: int, alpha) -> tuple:
    """One mode's dense transfer matrices T[m, m+k] = C(m+k, k) η^m α^k and
    ∂T/∂α = k α^{k−1} C(m+k, k) η^m − T m/η, one (cutoff+1)² pair per
    absorption of the (B,) array ``alpha``."""
    root, k, half_k = _root_binomials(cutoff)
    rows, cols = np.triu_indices(cutoff + 1)
    alpha = np.asarray(alpha, dtype=float)[..., None]
    eta = 1.0 - alpha
    lost = cols - rows
    g = root[lost, rows] * eta ** half_k[rows]
    transfer = np.zeros((*alpha.shape[:-1], cutoff + 1, cutoff + 1))
    d_transfer = np.zeros_like(transfer)
    kept, h = alpha**lost * g * g, k[rows] / (2.0 * eta)
    transfer[..., rows, cols] = kept
    d_alpha_k = k[lost] * alpha ** np.maximum(lost - 1, 0)  # with 0^0 = 1
    d_transfer[..., rows, cols] = d_alpha_k * g * g - kept * 2 * h
    return transfer, d_transfer


def population_moments(state, grid) -> tuple:
    """The variances and the slopes of the signals n₊ − n₋ and n₊ + n₋, each
    a (2, B) array, and the δx_d, δx_s columns at each point of ``grid``,
    from the joint output populations P_out = T₊ P T₋ᵀ and their ∂/∂α₊,
    ∂/∂α₋, formed as (B, d₊, d₋) stacks from each mode's dense transfer
    matrices.  The slope of n₊ + s n₋ is its derivative along its target,
    ∂/∂α₊ + s ∂/∂α₋.  Each variance is a centred sum over P_out, with the
    trace 1 − Σ P that a truncated input leaves out at the vacuum, as
    E[n²] − E[n]² on the populations reads it."""
    space = state.space
    if state.factors is None:
        pops = np.diag(state.rho).real.reshape(space.cutoff_plus + 1, space.cutoff_minus + 1)
    else:
        pops = np.outer(*(np.diag(factor).real for factor in state.factors))
    t_plus, dt_plus = _population_transfer(space.cutoff_plus, grid.alpha_plus)
    t_minus, dt_minus = _population_transfer(space.cutoff_minus, grid.alpha_minus)
    t_minus, dt_minus = np.swapaxes(t_minus, 1, 2), np.swapaxes(dt_minus, 1, 2)
    out = t_plus @ pops @ t_minus
    require_trace_window(out.sum(axis=(1, 2)), state.trace_deficit_budget)
    d_plus, d_minus = dt_plus @ pops @ t_minus, t_plus @ pops @ dt_minus
    missing = 1.0 - pops.sum()
    n_plus = np.arange(space.cutoff_plus + 1)[None, :, None]
    n_minus = np.arange(space.cutoff_minus + 1)[None, None, :]

    def total(joint, values):
        return (joint * values).sum(axis=(1, 2))

    mean_p, mean_m = total(out, n_plus), total(out, n_minus)
    # each count about its mean, (B, d₊, 1) and (B, 1, d₋)
    a, b = n_plus - mean_p[:, None, None], n_minus - mean_m[:, None, None]
    variances, slopes, columns = [], [], {}
    for target, sign in (("x_d", -1.0), ("x_s", 1.0)):
        derivative = total(d_plus + sign * d_minus, n_plus + sign * n_minus)
        variance = total(out, (a + sign * b) ** 2) + missing * (mean_p + sign * mean_m) ** 2
        usable = np.abs(derivative) >= DERIVATIVE_FLOOR
        slope = np.where(usable, np.abs(derivative), 1.0)
        noise = np.sqrt(np.maximum(variance, 0.0))
        columns[f"delta_{target}"] = np.where(usable, noise / slope, np.nan)
        variances.append(variance)
        slopes.append(derivative)
    return np.array(variances), np.array(slopes), columns


def rank_one_qfim_by_solve(rho, lam, t, d_alpha=None) -> np.ndarray:
    """``estimation._rank_one_qfim`` by one solve per problem: F_xy = 4 Re
    u_x†(ρ + λ)⁻¹u_y − a_x a_y/λ, u_x = (∂ρ/∂x)t, a_x = t†u_x, with u_φ
    carried without its −i, so that the (α, φ) entry is Im."""
    nt = np.arange(rho.shape[-1])[:, None] * t
    u = lam * nt - rho @ nt
    if d_alpha is not None:
        u = np.concatenate((d_alpha @ t, u), axis=2)
    x = np.linalg.solve(rho + lam * np.eye(rho.shape[-1]), u)
    a = adjoint(u) @ t
    h = 4.0 * (adjoint(u) @ x) - (a @ adjoint(a)) / lam
    f = np.ascontiguousarray(h.real)
    if d_alpha is not None:
        f[:, 0, 1] = f[:, 1, 0] = h[:, 0, 1].imag
    return f
