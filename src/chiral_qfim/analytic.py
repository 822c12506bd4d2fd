"""Closed-form sensitivity catalog for the supported input states.

Every quantity the numerical pipeline produces has a closed-form
counterpart here: SLDs, QFIM entries, Cramér–Rao bounds, covariances,
intensity-measurement sensitivities, the |1₊,1₋⟩ benchmark bound, and the
projective fidelity fringes.  The comparison harness in ``experiments``
checks the two against each other.  ``PROBES`` holds each input kind's
facts and forms, read wherever the kinds differ.  A note on a report
marks a limit: at a lossless point, where entries containing 1/α or 1/X_s
diverge, the bounds are the finite limits of their closed forms.

Phase convention: output coherences carry e^{−iΔ} (one-photon) and
e^{−2iΔ} (two-photon) factors, matching the channel module's
e^{−i(φ₊n₊+φ₋n₋)} rotation.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .channel import CHIRAL_NAMES, ChiralParams, DomainError, ParamGrid
from .fock import (
    NOON_HV,
    SINGLE_PHOTON_H,
    FockSpace,
    TwoModeState,
    coherent_product_state,
    fock_product_state,
    hv_to_pm_amplitudes,
    hv_to_pm_state,
    mode_operators,
)

COHERENT = "coherent"
FOCK_ONE_PLUS_ONE_MINUS = "fock_one_plus_one_minus"
# Σ is no label of the quantum inputs, whose outputs carry no photon-number
# coherence and hence no Σ dependence
QUANTUM_LABELS = ("x_d", "x_s", "delta")

QFIM_BOUND = "qfim_bound"
INTENSITY_MEASUREMENT = "intensity_measurement"
FIDELITY_FRINGE = "fidelity_fringe"
_METHODS = (QFIM_BOUND, INTENSITY_MEASUREMENT, FIDELITY_FRINGE)

@dataclass(frozen=True)
class InputStateKind:
    """One of the input states in ``PROBES``, with its mean photon number.

    Coherent inputs carry their H/V amplitudes; the quantum inputs are
    parameter-free.  Use the classmethod constructors.
    """

    kind: str
    amp_h: complex = 0j
    amp_v: complex = 0j

    def __post_init__(self):
        expected = tuple(PROBES)
        if self.kind not in expected:
            raise ValueError(f"unknown input state kind {self.kind!r}; expected one of {expected}")
        if self.probe.photons is None:
            for amp in (self.amp_h, self.amp_v):
                if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                    raise ValueError("coherent amplitudes must be finite")
        elif self.amp_h != 0j or self.amp_v != 0j:
            raise ValueError(f"amplitudes only apply to the coherent kind, not {self.kind!r}")

    @classmethod
    def coherent(cls, amp_h: complex, amp_v: complex = 0j) -> "InputStateKind":
        return cls(kind=COHERENT, amp_h=complex(amp_h), amp_v=complex(amp_v))

    @classmethod
    def single_photon_h(cls) -> "InputStateKind":
        return cls(kind=SINGLE_PHOTON_H)

    @classmethod
    def noon_hv(cls) -> "InputStateKind":
        return cls(kind=NOON_HV)

    @classmethod
    def fock_one_plus_one_minus(cls) -> "InputStateKind":
        return cls(kind=FOCK_ONE_PLUS_ONE_MINUS)

    @property
    def probe(self) -> "Probe":
        return PROBES[self.kind]

    @property
    def mean_photons(self) -> float:
        photons = self.probe.photons
        return abs(self.amp_h) ** 2 + abs(self.amp_v) ** 2 if photons is None else photons

    @property
    def zero_relative_phase(self) -> bool:
        """True when the H and V amplitudes are in phase or anti-phase.

        |amp±|² = (N ∓ 2 Im(amp_h* amp_v))/2, so the circular modes share
        the photons equally exactly when Im(amp_h* amp_v) = 0.
        """
        return (self.amp_h.conjugate() * self.amp_v).imag == 0.0


@dataclass(frozen=True)
class Probe:
    """One input kind's facts, its record in ``PROBES``: every site where
    the kinds differ reads them here.

    The closed forms ``bound``, ``intensity`` and ``fringe`` map (kind,
    grid) to a ``SensitivityGrid``, and are None where the kind has none.
    The coherent kind has no ``photons`` (its amplitudes set them), no
    ``cutoff`` and no ``builder``: its tail budget sizes its space.
    """

    state: str  # the --state name
    labels: tuple  # estimated by default
    bound: Callable
    bound_columns: tuple  # the sweep quantities ``bound`` gives
    intensity: Callable | None = None
    fringe: Callable | None = None
    photons: float | None = None
    cutoff: int | None = None  # the least per-mode cutoff of ``builder``'s state
    builder: Callable[[FockSpace], TwoModeState] | None = None
    benchmark_note: bool = False  # compare notes its gap to the photon-pair benchmark


def probe_of(kind: InputStateKind | str) -> Probe:
    """The record of ``kind``, an ``InputStateKind`` or its name."""
    return (kind if isinstance(kind, InputStateKind) else InputStateKind(kind)).probe


def default_param_labels(kind: InputStateKind | str) -> tuple:
    """Parameters estimated by default for each input state."""
    return probe_of(kind).labels


def delta_columns(labels: tuple) -> tuple:
    """The sweep quantities of a bound on ``labels``: δ of each, then the x_d–x_s covariance."""
    return tuple(f"delta_{p}" for p in labels) + ("cov_x_d_x_s",)


@dataclass(frozen=True)
class SensitivityReport:
    """A set of per-parameter sensitivities from one method."""

    method: str
    values: dict
    covariances: dict = field(default_factory=dict)
    notes: tuple = ()

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {_METHODS}")
        for p, v in self.values.items():
            if not (math.isfinite(v) and v >= 0.0):
                raise _value_error(p, v)

    def value(self, param: str) -> float:
        return self.values[param]


def _value_error(param: str, value: float) -> ValueError:
    return ValueError(f"sensitivity for {param!r} must be finite and nonnegative, got {value!r}")


class SensitivityGrid(NamedTuple):
    """One method's closed-form sensitivities at each point of a grid.

    ``values`` and ``covariances`` hold (B,) arrays, a covariance NaN where
    none is given; ``notes`` apply where ``limit`` is set.  A grid is only
    built when every point passes the checks of its scalar call, which
    otherwise raises, so each point reads as that call returns it.
    """

    method: str
    values: dict
    covariances: dict
    notes: tuple = ()
    limit: np.ndarray | None = None

    def report(self, b: int = 0) -> SensitivityReport:
        """Point b as the scalar call returns it."""
        covariances = {pair: float(c[b]) for pair, c in self.covariances.items()}
        return SensitivityReport(
            method=self.method,
            values={p: float(v[b]) for p, v in self.values.items()},
            covariances={k: c for k, c in covariances.items() if not math.isnan(c)},
            notes=self.notes if self.limit is not None and self.limit[b] else (),
        )


def _require_domain(d: np.ndarray) -> None:
    """Raise what the scalar calls raise at the first point where
    (1-X_s)^2 - X_d^2 = ``d`` is not positive."""
    outside = np.flatnonzero(d <= 0.0)
    if outside.size:
        raise DomainError(f"(1-X_s)^2 - X_d^2 = {float(d[outside[0]])!r} must be positive")


def _checked_grid(method, values, covariances=None, **notes):
    """A SensitivityGrid of ``values``, checked as ``SensitivityReport``
    checks each point: at the first point holding a value that is not
    finite and nonnegative, the first such value's error is raised."""
    stacked = np.array(list(values.values()))
    bad = ~(np.isfinite(stacked) & (stacked >= 0.0))
    if bad.any():
        b = int(bad.any(axis=0).argmax())
        k = int(bad[:, b].argmax())
        raise _value_error(list(values)[k], float(stacked[k, b]))
    return SensitivityGrid(method, values, covariances or {}, **notes)


def _require_photons(n0: float) -> None:
    if n0 <= 0.0:
        raise DomainError(f"mean photon number must be positive, got {n0!r}")


# ---------------------------------------------------------------------------
# coherent input
# ---------------------------------------------------------------------------


def equal_split_photons(kind: InputStateKind) -> float:
    """N₀ of a coherent kind that the coherent closed forms describe.

    ``coherent_bounds`` and ``coherent_intensity_sensitivities`` take
    |amp₊|² = |amp₋|² = N₀/2, which holds when the H and V amplitudes
    are in phase or anti-phase; a kind with any other relative phase is
    rejected.
    """
    if kind.probe.photons is not None:
        raise ValueError(f"expected a coherent input kind, got {kind.kind!r}")
    if not kind.zero_relative_phase:
        raise DomainError(
            "the coherent closed forms require zero relative phase, modulo pi,"
            " between the H and V amplitudes"
        )
    return kind.mean_photons


@np.errstate(divide="ignore", invalid="ignore")
def coherent_bounds_grid(grid: ParamGrid, n0: float) -> SensitivityGrid:
    """``coherent_bounds`` at each point of ``grid``."""
    _require_photons(n0)
    d = grid.eta_plus * grid.eta_minus
    _require_domain(d)
    absorb = np.sqrt((1.0 - grid.x_s) / n0)
    phase = np.sqrt((1.0 - grid.x_s) / (n0 * d))
    return _checked_grid(
        QFIM_BOUND,
        {"x_d": absorb, "x_s": absorb, "delta": phase, "sigma": phase},
        {
            # 0.0 − x keeps x_d = 0 at +0.0, which prints as 0, not -0
            ("x_d", "x_s"): 0.0 - grid.x_d / n0,
            ("delta", "sigma"): grid.x_d / (n0 * d),
        },
    )


def coherent_bounds(params: ChiralParams, n0: float) -> SensitivityReport:
    """Closed-form bound matrix entries for a coherent input."""
    return coherent_bounds_grid(ParamGrid([params]), n0).report()


@np.errstate(invalid="ignore")
def coherent_intensity_grid(grid: ParamGrid, n0: float) -> SensitivityGrid:
    """``coherent_intensity_sensitivities`` at each point of ``grid``."""
    _require_photons(n0)
    value = np.sqrt((1.0 - grid.x_s) / n0)
    return _checked_grid(INTENSITY_MEASUREMENT, {"x_d": value, "x_s": value})


def coherent_intensity_sensitivities(params: ChiralParams, n0: float) -> SensitivityReport:
    """Error-propagation sensitivities of mode-intensity measurements.

    The closed form splits N₀ equally between the circular modes (see
    ``equal_split_photons``).  Equals ``coherent_bounds`` on X_d and X_s at
    every parameter point (the intensity measurement saturates the bound).
    """
    return coherent_intensity_grid(ParamGrid([params]), n0).report()


def coherent_slds(
    params: ChiralParams, n0: float, space: FockSpace, truncation_budget: float = 1e-10
) -> dict:
    """Matrix realizations of the four coherent-state SLDs on ``space``, as
    ``{label: L}`` over ``CHIRAL_NAMES``.

    L_d and L_s are number-operator combinations; L_Δ and L_Σ are
    commutator realizations −i[G, ρ_out] with G = n₊ − n₋ and n₊ + n₋
    (the output stays pure, so the pure-state identity L = 2 ∂ρ applies).
    ρ_out is in closed form too: the truncated damped coherent product with
    amplitudes √η± a± e^{−iφ±}, where a± carry N₀ H-polarized.  The input
    |a₊, a₋⟩ must keep each mode's tail within ``truncation_budget`` on
    ``space``.  The SLD of the transmitted-fraction difference η₊ − η₋ is
    the negative of L_d.
    """
    _require_photons(n0)
    amp_p, amp_m = hv_to_pm_amplitudes(math.sqrt(n0), 0.0)
    # built for its refusal of a tail above the budget
    coherent_product_state(space, amp_p, amp_m, truncation_budget=truncation_budget)
    rho = coherent_product_state(
        space,
        math.sqrt(params.eta_plus) * amp_p * cmath.exp(-1j * params.phi_plus),
        math.sqrt(params.eta_minus) * amp_m * cmath.exp(-1j * params.phi_minus),
        truncation_budget=truncation_budget,
    ).rho
    ops = mode_operators(space)
    eta_p, eta_m = params.eta_plus, params.eta_minus
    g_delta = ops.n_plus - ops.n_minus
    g_sigma = ops.n_plus + ops.n_minus
    return {
        "x_d": ops.n_minus / eta_m - ops.n_plus / eta_p,
        "x_s": -ops.n_plus / eta_p - ops.n_minus / eta_m + n0 * np.eye(space.dim),
        "delta": -1j * (g_delta @ rho - rho @ g_delta),
        "sigma": -1j * (g_sigma @ rho - rho @ g_sigma),
    }


# ---------------------------------------------------------------------------
# single-photon input
# ---------------------------------------------------------------------------


class _Catalog(NamedTuple):
    """The fields shared by the single-photon and NOON catalogs."""

    rho_support: np.ndarray
    slds: dict | None
    qfim: np.ndarray | None
    bounds: SensitivityReport
    intensity: SensitivityReport
    qfim_params = ("x_d", "x_s", "delta")


class SinglePhotonCatalog(_Catalog):
    """(rho_support, slds, qfim, bounds, intensity) over {|1,0⟩,|0,1⟩,|0,0⟩}.

    At X_s = 0 the vacuum weight vanishes and the entries containing 1/X_s
    diverge; there ``slds`` and ``qfim`` are None while the bounds, whose
    closed forms stay finite, carry a note.
    """

    __slots__ = ()


@np.errstate(divide="ignore", invalid="ignore")
def single_photon_grid(grid: ParamGrid) -> tuple:
    """``single_photon_catalog``'s (bounds, intensity) at each point of ``grid``;
    raises what the catalog call raises at a point that fails.
    """
    eta_p, eta_m, x_d, x_s = grid.eta_plus, grid.eta_minus, grid.x_d, grid.x_s
    _require_domain(eta_p * eta_m)
    values = {
        "x_d": np.sqrt(1.0 - x_s - x_d**2),
        "x_s": np.sqrt(x_s * (1.0 - x_s)),
        "delta": np.sqrt((eta_p + eta_m) / (2.0 * eta_p * eta_m)),
    }
    lossless = x_s == 0.0
    bounds = _checked_grid(
        QFIM_BOUND,
        values,
        {("x_d", "x_s"): np.where(lossless, 0.0, -x_s * x_d)},
        notes=(
            "lossless point: the vacuum weight vanishes, the entries"
            " containing 1/X_s diverge, and no finite QFIM or L_s"
            " realization exists; the bounds are their finite limits",
        ),
        limit=lossless,
    )
    # checked with the bounds
    intensity = {"x_d": values["x_d"], "x_s": values["x_s"]}
    return bounds, SensitivityGrid(INTENSITY_MEASUREMENT, intensity, {})


def single_photon_catalog(params: ChiralParams) -> SinglePhotonCatalog:
    """Closed-form state, SLDs, QFIM, and bounds for the |1_H⟩ input.

    The support basis is {|1,0⟩, |0,1⟩, |0,0⟩} and the QFIM rows follow
    ``qfim_params`` = (x_d, x_s, delta); Σ carries no information for this
    input and is omitted.  Intensity measurement saturates the absorption
    bounds, so ``intensity`` equals ``bounds`` on X_d and X_s.
    """
    bounds, intensity = (g.report() for g in single_photon_grid(ParamGrid([params])))
    eta_p, eta_m = params.eta_plus, params.eta_minus
    x_d, x_s, delta = params.x_d, params.x_s, params.delta
    d = eta_p * eta_m

    coherence = 0.5 * math.sqrt(d) * cmath.exp(-1j * delta)
    rho_support = np.array(
        [
            [0.5 * eta_p, coherence, 0.0],
            [coherence.conjugate(), 0.5 * eta_m, 0.0],
            [0.0, 0.0, x_s],
        ],
        dtype=np.complex128,
    )
    if bounds.notes:
        return SinglePhotonCatalog(rho_support, None, None, bounds, intensity)

    l_d = np.diag([-1.0 / eta_p, 1.0 / eta_m, 0.0]).astype(np.complex128)
    l_s = np.diag([-1.0 / eta_p, -1.0 / eta_m, 1.0 / x_s]).astype(np.complex128)
    z = -2j * math.sqrt(d) * cmath.exp(-1j * delta) / (eta_p + eta_m)
    l_delta = np.zeros((3, 3), dtype=np.complex128)
    l_delta[0, 1], l_delta[1, 0] = z, z.conjugate()
    slds = {"x_d": l_d, "x_s": l_s, "delta": l_delta}

    f_dd = (1.0 - x_s) / d
    f_ss = (1.0 - x_s) / d + 1.0 / x_s
    f_ds = x_d / d
    f_delta = 2.0 * eta_p * eta_m / (eta_p + eta_m)
    qfim = np.array(
        [[f_dd, f_ds, 0.0], [f_ds, f_ss, 0.0], [0.0, 0.0, f_delta]]
    )
    return SinglePhotonCatalog(rho_support, slds, qfim, bounds, intensity)


# ---------------------------------------------------------------------------
# NOON input
# ---------------------------------------------------------------------------


class NoonCatalog(_Catalog):
    """(rho_support, slds, qfim, bounds, intensity) over the two-photon support.

    Support basis order: {|2,0⟩, |0,2⟩, |1,0⟩, |0,1⟩, |0,0⟩}.  The bounds
    are finite on the whole wedge.  Where an α is 0 the entries containing
    1/α diverge; there ``slds`` and ``qfim`` are None and the bounds carry
    their limits (0 for both absorptions at α₊ = α₋ = 0), with a note.
    """

    __slots__ = ()


def _noon_rho_support(params: ChiralParams) -> np.ndarray:
    eta_p, eta_m = params.eta_plus, params.eta_minus
    a_p, a_m = params.alpha_plus, params.alpha_minus
    cross = -0.5 * eta_p * eta_m * cmath.exp(-2j * params.delta)
    pops = [0.5 * eta_p**2, 0.5 * eta_m**2, a_p * eta_p, a_m * eta_m, 0.5 * (a_p**2 + a_m**2)]
    rho = np.diag(pops).astype(np.complex128)
    rho[0, 1], rho[1, 0] = cross, cross.conjugate()
    return rho


@np.errstate(invalid="ignore")
def noon_intensity_grid(grid: ParamGrid) -> SensitivityGrid:
    """``noon_intensity_sensitivities`` at each point of ``grid``."""
    eta_p, eta_m = grid.eta_plus, grid.eta_minus
    return _checked_grid(
        INTENSITY_MEASUREMENT,
        {
            "x_d": 0.5 * np.sqrt(eta_p + eta_m + 2.0 * eta_p * eta_m),
            "x_s": 0.5 * np.sqrt(eta_p + eta_m - 2.0 * eta_p * eta_m),
        },
    )


def noon_intensity_sensitivities(params: ChiralParams) -> SensitivityReport:
    """Intensity-measurement sensitivities for the |1_H,1_V⟩ input.

    Defined on the whole parameter domain; unlike the catalogued QFIM
    these contain no 1/α factors.
    """
    return noon_intensity_grid(ParamGrid([params])).report()


def noon_grid(grid: ParamGrid) -> tuple:
    """``noon_catalog``'s (bounds, intensity) at each point of ``grid``;
    raises what the catalog call raises at a point that fails, checking the
    domain, then the intensity values, then the bound values."""
    _require_domain(grid.eta_plus * grid.eta_minus)
    intensity = noon_intensity_grid(grid)
    return noon_bounds_grid(grid), intensity


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def noon_bounds_grid(grid: ParamGrid) -> SensitivityGrid:
    """``noon_catalog``'s bounds at each point of ``grid``, with no
    intensity values; raises at a point that fails, checking the domain,
    then the bound values.

    The absorption bounds come from the (X_d, X_s) QFIM block multiplied
    through by p·s, p = α₊η₊α₋η₋ and s = X_s² + X_d², whose entries g are
    polynomials: var X_d = 2 g_ss/D, var X_s = 2 g_dd/D, cov = −2 g_ds/D,
    D = 4[(α₊−α₋)² + 2α₊α₋(η₊η₋ + α₊α₋)].  D > 0 on the whole wedge but
    at α₊ = α₋ = 0.  Where 2/D is not finite (D = 0, or D so small that
    the absorptions underflow, as at α± = 1e-300), the bounds take their
    limit 0, no covariance is given, and ``limit`` is set, as it is where
    an α is 0 or so small that the catalog's 1/(α±η±) overflows.
    """
    a_p, a_m = grid.alpha_plus, grid.alpha_minus
    eta_p, eta_m = grid.eta_plus, grid.eta_minus
    x_d, x_s = grid.x_d, grid.x_s
    _require_domain(eta_p * eta_m)
    f_delta = 8.0 * eta_p**2 * eta_m**2 / (eta_p**2 + eta_m**2)

    s = x_s**2 + x_d**2
    p = a_p * eta_p * a_m * eta_m
    # p times the 1/(α±η±) terms of the QFIM block
    r_p = (1.0 - 2.0 * a_p) ** 2 * a_m * eta_m
    r_m = (1.0 - 2.0 * a_m) ** 2 * a_p * eta_p
    g_dd = s * (4.0 * p + r_p + r_m) + 4.0 * p * x_d**2
    g_ss = s * (4.0 * p + r_p + r_m) + 4.0 * p * x_s**2
    g_ds = s * (r_p - r_m) + 4.0 * p * x_s * x_d
    d = 4.0 * ((a_p - a_m) ** 2 + 2.0 * a_p * a_m * (eta_p * eta_m + a_p * a_m))
    scale = 2.0 / d
    given = np.isfinite(scale)
    scale = np.where(given, scale, 0.0)
    return _checked_grid(
        QFIM_BOUND,
        {
            "x_d": np.sqrt(scale * g_ss),
            "x_s": np.sqrt(scale * g_dd),
            "delta": 1.0 / np.sqrt(f_delta),
        },
        # 0.0 − x keeps a vanishing covariance at +0.0
        {("x_d", "x_s"): np.where(given, 0.0 - scale * g_ds, np.nan)},
        notes=(
            "lossless mode: an absorption vanishes (or underflows), the entries"
            " containing 1/alpha diverge, and no finite QFIM or SLD realization"
            " exists; the bounds are the limits of the closed form",
        ),
        limit=~(np.isfinite(1.0 / (a_p * eta_p)) & np.isfinite(1.0 / (a_m * eta_m)) & given),
    )


def noon_catalog(params: ChiralParams) -> NoonCatalog:
    """Closed-form state, SLDs, QFIM, and bounds for the |1_H,1_V⟩ input.

    The bounds are those of ``noon_grid``.  The QFIM and SLDs hold 1/α and
    1/(X_s² + X_d²), so where an α is 0 or 1/α overflows, or where the
    absorptions underflow and ``noon_grid`` takes the limit, they are None
    and the bounds, limits there, carry a note.
    """
    bounds, intensity = (g.report() for g in noon_grid(ParamGrid([params])))
    rho_support = _noon_rho_support(params)
    if bounds.notes:
        return NoonCatalog(rho_support, None, None, bounds, intensity)

    a_p, a_m = params.alpha_plus, params.alpha_minus
    eta_p, eta_m = params.eta_plus, params.eta_minus
    x_d, x_s, delta = params.x_d, params.x_s, params.delta
    s = x_s**2 + x_d**2
    f_delta = 8.0 * eta_p**2 * eta_m**2 / (eta_p**2 + eta_m**2)
    q_p = (1.0 - 2.0 * a_p) ** 2 / (a_p * eta_p)
    q_m = (1.0 - 2.0 * a_m) ** 2 / (a_m * eta_m)
    f_dd = 4.0 + q_p + q_m + 4.0 * x_d**2 / s
    f_ss = 4.0 + q_p + q_m + 4.0 * x_s**2 / s
    f_ds = 4.0 * x_s * x_d / s + q_p - q_m
    qfim = np.array(
        [[f_dd, f_ds, 0.0], [f_ds, f_ss, 0.0], [0.0, 0.0, f_delta]]
    )
    u_p = (1.0 - 2.0 * a_p) / (a_p * eta_p)
    u_m = (1.0 - 2.0 * a_m) / (a_m * eta_m)
    l_d = np.diag([-2.0 / eta_p, 2.0 / eta_m, u_p, -u_m, 2.0 * x_d / s]).astype(np.complex128)
    l_s = np.diag([-2.0 / eta_p, -2.0 / eta_m, u_p, u_m, 2.0 * x_s / s]).astype(np.complex128)
    z = 4j * eta_p * eta_m * cmath.exp(-2j * delta) / (eta_p**2 + eta_m**2)
    l_delta = np.zeros((5, 5), dtype=np.complex128)
    l_delta[0, 1], l_delta[1, 0] = z, z.conjugate()
    slds = {"x_d": l_d, "x_s": l_s, "delta": l_delta}
    return NoonCatalog(rho_support, slds, qfim, bounds, intensity)


# ---------------------------------------------------------------------------
# Fock benchmark and fidelity fringes
# ---------------------------------------------------------------------------


@np.errstate(invalid="ignore")
def fock_benchmark_grid(grid: ParamGrid) -> SensitivityGrid:
    """``fock_benchmark_bound`` at each point of ``grid``."""
    value = np.sqrt(grid.alpha_plus * grid.eta_plus + grid.alpha_minus * grid.eta_minus) / 2.0
    return _checked_grid(QFIM_BOUND, {"x_d": value, "x_s": value})


def fock_benchmark_bound(params: ChiralParams) -> SensitivityReport:
    """Bound for the |1₊,1₋⟩ product input: √(α₊η₊ + α₋η₋)/2 for X_d and X_s."""
    return fock_benchmark_grid(ParamGrid([params])).report()


@np.errstate(invalid="ignore")
def _single_photon_fringe(kind: InputStateKind, grid: ParamGrid) -> SensitivityGrid:
    root = np.sqrt((1.0 - grid.x_s) ** 2 - grid.x_d**2)
    value = 0.5 * (1.0 - grid.x_s + root * np.cos(grid.delta))
    return _checked_grid(FIDELITY_FRINGE, {"value": value})


@np.errstate(invalid="ignore")
def _noon_fringe(kind: InputStateKind, grid: ParamGrid) -> SensitivityGrid:
    a = (1.0 - grid.x_s) ** 2 + grid.x_d**2
    b = (1.0 - grid.x_s) ** 2 - grid.x_d**2
    return _checked_grid(FIDELITY_FRINGE, {"value": 0.5 * (a + b * np.cos(2.0 * grid.delta))})


def fidelity_fringe(kind: InputStateKind | str, params: ChiralParams) -> float:
    """Projective fidelity ⟨ψ_in|ρ_out|ψ_in⟩ for the inputs with a ``fringe``.

    The single-photon fringe oscillates with period 2π in Δ; the NOON
    fringe with period π (doubled frequency).
    """
    probe = probe_of(kind)
    if probe.fringe is None:
        names = ", ".join(other.state for other in PROBES.values() if other.fringe)
        raise ValueError(f"fidelity fringes are defined for the {names} inputs, not {probe.state}")
    return probe.fringe(kind, ParamGrid([params])).report().value("value")


# ---------------------------------------------------------------------------
# the probe table
# ---------------------------------------------------------------------------


PROBES = {
    COHERENT: Probe(
        "coherent",
        CHIRAL_NAMES,
        bound=lambda kind, grid: coherent_bounds_grid(grid, equal_split_photons(kind)),
        bound_columns=delta_columns(CHIRAL_NAMES),
        intensity=lambda kind, grid: coherent_intensity_grid(grid, equal_split_photons(kind)),
    ),
    SINGLE_PHOTON_H: Probe(
        "single-photon",
        QUANTUM_LABELS,
        bound=lambda kind, grid: single_photon_grid(grid)[0],
        bound_columns=delta_columns(QUANTUM_LABELS),
        intensity=lambda kind, grid: single_photon_grid(grid)[1],
        fringe=_single_photon_fringe,
        photons=1.0,
        cutoff=1,
        builder=functools.partial(hv_to_pm_state, SINGLE_PHOTON_H),
    ),
    NOON_HV: Probe(
        "noon",
        QUANTUM_LABELS,
        bound=lambda kind, grid: noon_bounds_grid(grid),
        bound_columns=delta_columns(QUANTUM_LABELS),
        intensity=lambda kind, grid: noon_intensity_grid(grid),
        fringe=_noon_fringe,
        photons=2.0,
        cutoff=2,
        builder=functools.partial(hv_to_pm_state, NOON_HV),
        benchmark_note=True,
    ),
    FOCK_ONE_PLUS_ONE_MINUS: Probe(
        "fock-pair",
        QUANTUM_LABELS,
        # the benchmark bounds the absorptions alone, with no covariance
        bound=lambda kind, grid: fock_benchmark_grid(grid),
        bound_columns=("delta_x_d", "delta_x_s"),
        photons=2.0,
        cutoff=1,
        builder=lambda space: fock_product_state(space, 1, 1),
    ),
}
