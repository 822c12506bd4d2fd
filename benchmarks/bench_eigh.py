#!/usr/bin/env python3
"""Timing evidence for the eigensolver choice.

The per-point hot path of the dense two-mode route is one Hermitian
eigendecomposition of the output density matrix plus a handful of dense
matrix products.  The default backend, ``numpy.linalg.eigh``, dispatches
straight to LAPACK, which already runs as optimized native code, so a
bespoke compiled kernel could at best tie it while adding a build
toolchain.  Two measurements back this up:

* lapack vs jacobi per matrix: what reimplementing the solver outside
  LAPACK costs (the pure-Python Jacobi backend stands in for a from-scratch
  kernel before native-code tuning);
* the eigensolve share of a full bound computation on the dense two-mode
  route: even an infinitely fast solver could not shift the end-to-end
  time by more than that slice.  (Product inputs such as coherent probes
  are solved one mode at a time and never diagonalize the two-mode
  output.)

Run:  python3 benchmarks/bench_eigh.py [--repeats N]
"""

import argparse
import math
import statistics
import time

from chiral_qfim import (
    CHIRAL_NAMES,
    ChiralParams,
    FockSpace,
    InputStateKind,
    TwoModeState,
    apply_channel_kraus,
    coherent_product_state,
    compute_bounds,
    hermitian_eigen,
    hv_to_pm_amplitudes,
    prepare_input_state,
)

PARAMS = ChiralParams.from_chiral(0.05, 0.3, 0.4, 0.2)


def timed(fn, repeats: int) -> float:
    """Median wall time of ``fn()`` over ``repeats`` calls, in seconds."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def sample_outputs():
    """Channel outputs at the matrix sizes the package actually meets."""
    amp_p, amp_m = hv_to_pm_amplitudes(1.0, 0.0)
    cases = [
        ("single photon", prepare_input_state(InputStateKind.single_photon_h())),
        ("noon pair", prepare_input_state(InputStateKind.noon_hv())),
        (
            "coherent, cutoff 6",
            coherent_product_state(
                FockSpace(6, 6), amp_p, amp_m, truncation_budget=1e-5
            ),
        ),
        (
            "coherent, cutoff 12",
            coherent_product_state(FockSpace(12, 12), amp_p, amp_m),
        ),
    ]
    return [(label, apply_channel_kraus(state, PARAMS)) for label, state in cases]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats",
        type=int,
        default=20,
        help="timing repeats for the fast paths (jacobi uses fewer)",
    )
    args = parser.parse_args()

    print(f"{'matrix':<22}{'dim':>5}{'lapack':>12}{'jacobi':>14}{'slowdown':>10}")
    for label, output in sample_outputs():
        dim = output.rho.shape[0]
        lapack = timed(lambda: hermitian_eigen(output.rho), args.repeats)
        jacobi = timed(
            lambda: hermitian_eigen(output.rho, backend="jacobi"),
            max(1, args.repeats // 10),
        )
        print(
            f"{label:<22}{dim:>5}{lapack * 1e3:>10.3f} ms"
            f"{jacobi * 1e3:>11.2f} ms{jacobi / lapack:>9.0f}x"
        )

    amp_p, amp_m = hv_to_pm_amplitudes(1.0, 0.0)
    product = coherent_product_state(FockSpace(12, 12), amp_p, amp_m)
    # without its mode factors the state takes the dense two-mode route,
    # the one that diagonalizes the full output
    state = TwoModeState(
        product.space, product.rho, trace_deficit_budget=product.trace_deficit_budget
    )
    output = apply_channel_kraus(state, PARAMS)
    total = timed(lambda: compute_bounds(state, PARAMS, CHIRAL_NAMES), args.repeats)
    eigh_only = timed(lambda: hermitian_eigen(output.rho), args.repeats)
    share = 100.0 * eigh_only / total
    print()
    print(
        f"dense two-mode bound computation, coherent cutoff 12: {total * 1e3:.1f} ms;"
        f" one eigendecomposition: {eigh_only * 1e3:.3f} ms ({share:.0f}% of it)"
    )
    print(
        "LAPACK is already native code and a small slice of the whole;"
        " a compiled kernel has nothing left to win."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
