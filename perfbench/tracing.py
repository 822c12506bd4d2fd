"""In-memory spans around the calls into each layer of chiral_qfim.

The traced run wraps public functions by patching each name in the
namespace of the module that looks it up at call time (``experiments``,
``estimation``, ``cli``, plus ``linalg`` and ``fock`` for the Hermiticity
check) and patches ``TwoModeState.__post_init__`` and
``ParamDerivative.__post_init__`` on their classes.  A span records its
name, start, end, parent span and operation id; a layer's self time is its
spans' durations minus the time their child spans cover.  Every span hangs
below one ``bench.op`` root per operation, so the self times of all layers
sum to the traced operation wall time.

Names missing from a later version of the package are skipped, and the
metrics they feed read zero.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

from chiral_qfim import cli, estimation, experiments, fock, linalg

_MODULES = {
    "cli": cli,
    "estimation": estimation,
    "experiments": experiments,
    "fock": fock,
    "linalg": linalg,
}

_CATALOG = (
    "coherent_bounds",
    "coherent_intensity_sensitivities",
    "single_photon_catalog",
    "noon_catalog",
    "noon_intensity_sensitivities",
    "fock_benchmark_bound",
    "fidelity_fringe",
)
_PREPARE = (
    "prepare_input_state",
    "default_coherent_space",
    "coherent_product_state",
    "hv_to_pm_state",
    "fock_product_state",
)

# (module, attribute, span name)
PATCHES = (
    ("cli", "main", "cli.main"),
    ("cli", "compute_bounds", "estimation.bounds"),
    *(("cli", name, "fock.prepare") for name in _PREPARE),
    ("experiments", "run_sweep", "experiments.sweep"),
    ("experiments", "sweep_to_csv_text", "experiments.csv"),
    ("experiments", "intensity_statistics", "experiments.intensity"),
    ("experiments", "apply_channel_kraus", "channel.kraus"),
    ("experiments", "channel_derivatives", "estimation.derivs"),
    ("experiments", "qfim_from_derivatives", "estimation.qfim"),
    ("experiments", "invert_and_bound", "estimation.invert"),
    *(("experiments", name, "fock.prepare") for name in _PREPARE),
    *(("experiments", name, "analytic.catalog") for name in _CATALOG),
    ("estimation", "compute_bounds", "estimation.bounds"),
    ("estimation", "channel_derivatives", "estimation.derivs"),
    ("estimation", "qfim_from_derivatives", "estimation.qfim"),
    ("estimation", "invert_and_bound", "estimation.invert"),
    ("estimation", "apply_channel_kraus", "channel.kraus"),
    ("estimation", "channel_alpha_derivative", "channel.dalpha"),
    ("estimation", "channel_phi_derivative", "channel.dphi"),
    ("estimation", "hermitian_eigen", "linalg.eigh"),
    ("linalg", "require_hermitian", "linalg.hermitian_check"),
    ("fock", "require_hermitian", "linalg.hermitian_check"),
)
# (module, class, method, span name)
CLASS_PATCHES = (
    ("fock", "TwoModeState", "__post_init__", "fock.state_init"),
    ("estimation", "ParamDerivative", "__post_init__", "estimation.deriv_init"),
)

LAYERS = ("cli", "experiments", "estimation", "channel", "fock", "linalg", "analytic", "bench")
ROOT = "bench.op"

# computed eigensolve cost model: symmetric QR with eigenvectors takes about
# 9 n^3 real flops (Golub & Van Loan); complex arithmetic costs 4x that
EIGH_FLOPS_REAL = 9.0
EIGH_FLOPS_COMPLEX = 36.0


def _eigh_info(args, kwargs, result):
    vectors = result.eigenvectors
    return (vectors.shape[0], bool(vectors.dtype.kind == "c"))


def _state_info(args, kwargs, result):
    return args[0].space.dim


def _coherent_tail_info(args, kwargs, result):
    space, amp_plus, amp_minus = args[0], args[1], args[2]
    return max(
        fock.poisson_tail(abs(amp_plus) ** 2, space.cutoff_plus),
        fock.poisson_tail(abs(amp_minus) ** 2, space.cutoff_minus),
    )


_INFO = {
    ("estimation", "hermitian_eigen"): _eigh_info,
    ("cli", "coherent_product_state"): _coherent_tail_info,
    ("experiments", "coherent_product_state"): _coherent_tail_info,
    ("fock", "TwoModeState"): _state_info,
}


class Tracer:
    """Collects spans while its patches are installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, info]
        self._stack = []
        self._op = -1

    def _wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                try:
                    rec[5] = info(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature loses the detail, not the call
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every wrapped name for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, span in PATCHES:
                module = _MODULES[mod_name]
                original = getattr(module, attr, None)
                if original is None:
                    continue
                info = _INFO.get((mod_name, attr))
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original, info))
            for mod_name, cls_name, method, span in CLASS_PATCHES:
                cls = getattr(_MODULES[mod_name], cls_name, None)
                original = getattr(cls, method, None) if cls is not None else None
                if original is None:
                    continue
                info = _INFO.get((mod_name, cls_name))
                saved.append((cls, method, original))
                setattr(cls, method, self._wrap(span, original, info))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Root span for one benchmark operation."""
        self._op = op_id
        rec = [ROOT, 0.0, 0.0, -1, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self._op = -1


def summarize(spans) -> dict:
    """Per-name counts, inclusive and self seconds, and per-layer self time."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = Counter()
    inclusive = defaultdict(float)
    self_s = defaultdict(float)
    layer_self = {layer: 0.0 for layer in LAYERS}
    outer_prepare = 0.0
    eigh_dims = Counter()
    eigh_flops = 0.0
    eigh_bytes = 0.0
    dim_max = 0
    tail_max = 0.0
    for i, (name, start, end, parent, _, info) in enumerate(spans):
        duration = end - start
        own = duration - covered[i]
        calls[name] += 1
        inclusive[name] += duration
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if name == "fock.prepare" and (parent < 0 or spans[parent][0] != "fock.prepare"):
            outer_prepare += duration
        if name == "linalg.eigh" and info is not None:
            n, is_complex = info
            eigh_dims[n] += 1
            eigh_flops += (EIGH_FLOPS_COMPLEX if is_complex else EIGH_FLOPS_REAL) * n**3
            eigh_bytes += (2 * n * n) * (16 if is_complex else 8) + 8 * n
        elif name == "fock.state_init" and info is not None:
            dim_max = max(dim_max, info)
        elif name == "fock.prepare" and info is not None:
            tail_max = max(tail_max, info)
    return {
        "calls": calls,
        "inclusive_s": inclusive,
        "self_s": self_s,
        "layer_self_s": layer_self,
        "prepare_s": outer_prepare,
        "eigh_dims": eigh_dims,
        "eigh_flops": eigh_flops,
        "eigh_bytes": eigh_bytes,
        "dim_max": dim_max,
        "tail_mass_max": tail_max,
    }


def per_layer_metrics(summary: dict, traced_s: float, untraced_s: float, oracle_s: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, as name -> (value, unit)."""
    calls, incl, own = summary["calls"], summary["inclusive_s"], summary["self_s"]
    eigh_dims = summary["eigh_dims"]
    ms = 1e3
    values = {
        "experiments.intensity_calls": (calls["experiments.intensity"], "count"),
        "experiments.intensity_ms": (incl["experiments.intensity"] * ms, "ms"),
        "experiments.sweep_self_ms": (own["experiments.sweep"] * ms, "ms"),
        "experiments.csv_ms": (incl["experiments.csv"] * ms, "ms"),
        "channel.kraus_calls": (calls["channel.kraus"], "count"),
        "channel.kraus_ms": (incl["channel.kraus"] * ms, "ms"),
        "channel.dalpha_calls": (calls["channel.dalpha"], "count"),
        "channel.dalpha_ms": (incl["channel.dalpha"] * ms, "ms"),
        "linalg.eigh_calls": (calls["linalg.eigh"], "count"),
        "linalg.eigh_ms": (incl["linalg.eigh"] * ms, "ms"),
        "linalg.eigh_share": (incl["linalg.eigh"] / traced_s if traced_s > 0 else 0.0, "ratio"),
        "linalg.eigh_dim_max": (max(eigh_dims) if eigh_dims else 0, "dim"),
        "linalg.eigh_gflop_computed": (summary["eigh_flops"] / 1e9, "GFLOP"),
        "linalg.eigh_mb_computed": (summary["eigh_bytes"] / 1e6, "MB"),
        "linalg.hermitian_checks": (calls["linalg.hermitian_check"], "count"),
        "estimation.qfim_self_ms": (own["estimation.qfim"] * ms, "ms"),
        "estimation.derivs_self_ms": (own["estimation.derivs"] * ms, "ms"),
        "estimation.deriv_inits": (calls["estimation.deriv_init"], "count"),
        "fock.state_inits": (calls["fock.state_init"], "count"),
        "fock.state_init_ms": (incl["fock.state_init"] * ms, "ms"),
        "fock.prepare_ms": (summary["prepare_s"] * ms, "ms"),
        "fock.dim_max": (summary["dim_max"], "dim"),
        "fock.tail_mass_max": (summary["tail_mass_max"], "prob"),
        "analytic.closed_ms": (oracle_s * ms, "ms"),
        "trace.wall_ms": (traced_s * ms, "ms"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0, "ratio"),
    }
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = (summary["layer_self_s"][layer] * ms, "ms")
    return values
