"""Closed-form correctness oracle for every benchmark operation.

Each numeric bound the program returns is compared with the closed-form
catalog (``coherent_bounds``, ``single_photon_catalog``, ``noon_catalog``,
``fock_benchmark_bound``, and the matching intensity sensitivities) to
``TOL * max(1, |closed|)``, the tolerance of acceptance check 1 and of
``COMPARE_TOL``.  An operation fails when it raised, was refused, or has a
value off its closed form; a refusal and a wrong number count the same.

Failures are never filtered.  Each one is tagged with the known-defect
class its *inputs* fall in (``KNOWN_DEFECTS``), or with none; a run is
``correct`` only when every failure has a known class, so a new kind of
wrong number flips it while the known defects stay counted in ``failed``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

import chiral_qfim as cq

TOL = 1e-6

# the per-mode cutoff cap of default_coherent_space when the benchmark was
# defined; fixed here so that lifting the cap changes outcomes, not classes
COHERENT_CAP_AT_DEFINITION = 12
DEFAULT_BUDGET = 1e-10
NOON_ALPHA_FLOOR = 1e-6
# the numeric pseudo-inverse keeps QFIM eigenvalues above this share of the
# largest (INVERT_RCOND when the benchmark was defined); the factor 2 covers
# the numeric QFIM's rounding against the closed form near the cut
INVERT_RCOND_AT_DEFINITION = 1e-10
RCOND_MARGIN = 2.0

KNOWN_DEFECTS = {
    "coherent-cap": (
        "default coherent truncation is capped at 12 per mode and silently"
        " widens the tail budget (ROADMAP item 1)"
    ),
    "fock-pair-edge": (
        "fock_pair numeric bound at the wedge edge (one alpha = 0) disagrees"
        " with fock_benchmark_bound"
    ),
    "lossless-endpoint": (
        "single-photon/NOON numeric absorption bounds at alpha+ = alpha- = 0"
        " disagree with the closed-form limits 0"
    ),
    "noon-edge": (
        "the NOON closed form refuses points with one alpha below 1e-6, so"
        " the sweep row carries a refused method"
    ),
    "rcond-cut": (
        "the numeric pseudo-inverse drops QFIM eigenvalues below 1e-10 of the"
        " largest, so a parameter with a finite closed-form bound (NOON delta"
        " as one alpha nears 1) is reported unidentifiable, without a bound"
    ),
}

COHERENT = "coherent"
SINGLE = "single_photon_h"
NOON = "noon_hv"
FOCK_PAIR = "fock_one_plus_one_minus"


@dataclass(frozen=True)
class Failure:
    """One failed check: where, what, the numeric and closed-form values."""

    workload: str
    where: str
    quantity: str
    numeric: float | None
    closed: float | None
    reason: str
    known: str | None

    def line(self) -> str:
        tag = self.known or "UNKNOWN"
        return (
            f"[{tag}] {self.workload} {self.where} {self.quantity}:"
            f" numeric {_fmt(self.numeric)} closed {_fmt(self.closed)} ({self.reason})"
        )


def _fmt(value) -> str:
    return "-" if value is None else format(value, ".10g")


def off(numeric, closed: float) -> bool:
    """True when ``numeric`` is missing or off ``closed`` beyond the tolerance."""
    if numeric is None or not math.isfinite(numeric):
        return True
    return abs(numeric - closed) > TOL * max(1.0, abs(closed))


def cap_binds(n0: float) -> bool:
    """Whether the default coherent truncation for an H-polarized probe of
    mean photon number ``n0`` needs more than the capped cutoff."""
    mean_per_mode = n0 / 2.0
    return cq.poisson_tail(mean_per_mode, COHERENT_CAP_AT_DEFINITION) > DEFAULT_BUDGET


def known_class(kind: str, params, n0: float | None = None, capped: bool = False):
    """Known-defect class of an operation, decided from its inputs alone."""
    if kind == COHERENT:
        return "coherent-cap" if capped and cap_binds(n0) else None
    a_p, a_m = params.alpha_plus, params.alpha_minus
    if kind in (SINGLE, NOON) and a_p == 0.0 and a_m == 0.0:
        return "lossless-endpoint"
    if kind == FOCK_PAIR and min(a_p, a_m) == 0.0:
        return "fock-pair-edge"
    if kind == NOON and min(a_p, a_m) < NOON_ALPHA_FLOOR:
        return "noon-edge"
    if kind in (SINGLE, NOON) and rcond_cuts(kind, params):
        return "rcond-cut"
    return None


def rcond_cuts(kind: str, params) -> bool:
    """Whether the closed-form QFIM of a single-photon or NOON probe has an
    eigenvalue the numeric pseudo-inverse would cut."""
    catalog = cq.single_photon_catalog(params) if kind == SINGLE else cq.noon_catalog(params)
    qfim = catalog[2]
    if qfim is None:
        return False
    w = np.linalg.eigvalsh(qfim)
    return w[0] <= RCOND_MARGIN * INVERT_RCOND_AT_DEFINITION * w[-1]


class Oracle:
    """Closed-form references, with the time spent computing them."""

    def __init__(self):
        self.closed_s = 0.0

    def bounds(self, kind: str, params, n0: float | None = None) -> dict:
        """Closed-form bound per parameter; raises DomainError off-domain."""
        t0 = time.perf_counter()
        try:
            if kind == COHERENT:
                return dict(cq.coherent_bounds(params, n0).values)
            if kind == SINGLE:
                return dict(cq.single_photon_catalog(params).bounds.values)
            if kind == NOON:
                return dict(cq.noon_catalog(params).bounds.values)
            return dict(cq.fock_benchmark_bound(params).values)
        finally:
            self.closed_s += time.perf_counter() - t0

    def intensity(self, kind: str, params, n0: float | None = None) -> dict:
        """Closed-form intensity-measurement sensitivities ({} for fock_pair)."""
        t0 = time.perf_counter()
        try:
            if kind == COHERENT:
                return dict(cq.coherent_intensity_sensitivities(params, n0).values)
            if kind == SINGLE:
                return dict(cq.single_photon_catalog(params).intensity.values)
            if kind == NOON:
                return dict(cq.noon_intensity_sensitivities(params).values)
            return {}
        finally:
            self.closed_s += time.perf_counter() - t0


def compare(workload, where, values, closed, known, prefix=""):
    """Failures for every closed-form quantity that ``values`` misses."""
    failures = []
    for name, ref in closed.items():
        got = values.get(name)
        if off(got, ref):
            reason = "missing" if got is None else "off closed form"
            failures.append(
                Failure(workload, where, prefix + name, got, ref, reason, known)
            )
    return failures
