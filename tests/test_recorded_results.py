"""One-point and sweep results recorded from an earlier build, as ``float.hex``.

A change that only reorganizes the numeric pipeline must not move its
numbers.  ``one_point_results.json`` holds F, F⁻¹, the bounds, the
identifiable flags and the parameter groups of ``compute_bounds`` at a few
points of each probe the package builds, with default and native labels.
F, F⁻¹ and the bounds are compared at 1e-13 relative, entry (i, j) on the
scale sqrt(|X_ii X_jj|) of its matrix, so another BLAS build still passes;
the flags and groups must match exactly.  ``sweep_results.json`` holds
every tenth row of each member sweep of every figure preset
(``run_sweep``): each numeric cell, compared at 1e-13 relative, empty
cells empty, and the row's status, which must match exactly.

To record a file again, from the build whose numbers are the reference:

    PYTHONPATH=src python tests/test_recorded_results.py one-point
    PYTHONPATH=src python tests/test_recorded_results.py sweeps
"""

import json
import math
import pathlib
import sys

import numpy as np
import pytest

from chiral_qfim.analytic import COHERENT, FOCK_ONE_PLUS_ONE_MINUS, default_param_labels
from chiral_qfim.channel import ALPHA_PHI_NAMES, ChiralParams
from chiral_qfim.estimation import compute_bounds
from chiral_qfim.experiments import figure_presets, run_sweep
from chiral_qfim.fock import (
    NOON_HV,
    SINGLE_PHOTON_H,
    FockSpace,
    coherent_product_state,
    default_coherent_space,
    fock_product_state,
    hv_to_pm_amplitudes,
    hv_to_pm_state,
)

RECORD = pathlib.Path(__file__).with_name("one_point_results.json")
SWEEP_RECORD = pathlib.Path(__file__).with_name("sweep_results.json")
RTOL = 1e-13


def _coherent(amp_h: complex, amp_v: complex):
    amp_plus, amp_minus = hv_to_pm_amplitudes(amp_h, amp_v)
    space, budget = default_coherent_space(amp_plus, amp_minus)
    return coherent_product_state(space, amp_plus, amp_minus, truncation_budget=budget)


# (x_d, x_s, delta, sigma) per point
_COHERENT_POINTS = ((0.0, 0.05, 0.0, 0.0), (0.05, 0.3, 0.4, 0.2), (0.15, 0.7, -0.1, 0.9))
_TWO_POINTS = ((0.1, 0.5, 0.7, 0.3), (-0.02, 0.2, 0.0, 0.0))

# name: (state builder, default-label kind, points)
CASES = {
    **{
        f"coherent_h_n0_{n0:g}": (
            lambda n0=n0: _coherent(math.sqrt(n0), 0.0), COHERENT, _COHERENT_POINTS
        )
        for n0 in (1.0, 4.0, 9.0)
    },
    "elliptical": (
        lambda: _coherent(math.sqrt(2.0), 0.5j * math.sqrt(2.0)), COHERENT, _TWO_POINTS
    ),
    "photon_pair": (
        lambda: fock_product_state(FockSpace(1, 1), 1, 1), FOCK_ONE_PLUS_ONE_MINUS, _TWO_POINTS
    ),
    "noon": (lambda: hv_to_pm_state(NOON_HV, FockSpace(2, 2)), NOON_HV, _TWO_POINTS),
    "single_photon": (
        lambda: hv_to_pm_state(SINGLE_PHOTON_H, FockSpace(1, 1)), SINGLE_PHOTON_H, _TWO_POINTS
    ),
}


def _cases():
    """(key, state builder, labels, point) for every case, label set and point."""
    for name, (make_state, kind, points) in CASES.items():
        label_sets = (("default", default_param_labels(kind)), ("native", ALPHA_PHI_NAMES))
        for labels_name, labels in label_sets:
            for b, point in enumerate(points):
                yield f"{name}/{labels_name}/{b}", make_state, labels, point


def _result(make_state, labels, point):
    return compute_bounds(make_state(), ChiralParams.from_chiral(*point), labels)


def _hex(matrix) -> list:
    return [[float(x).hex() for x in row] for row in np.asarray(matrix).tolist()]


def _entry(result) -> dict:
    return {
        "params": list(result.params),
        "F": _hex(result.F),
        "F_inverse": _hex(result.F_inverse),
        "bounds": [None if v is None else float(v).hex() for v in result.bounds.values()],
        "identifiable": list(result.identifiable.values()),
        "blocks": [list(group) for group in result.blocks],
    }


def _from_hex(rows) -> np.ndarray:
    return np.array([[float.fromhex(x) for x in row] for row in rows])


def _assert_close(actual, recorded, what):
    scale = np.sqrt(np.abs(np.diagonal(recorded)))
    tol = RTOL * np.outer(scale, scale)
    gap = np.abs(actual - recorded)
    assert (gap <= tol).all(), f"{what}: largest gap {gap.max():.3e}"


RECORDED = json.loads(RECORD.read_text()) if RECORD.exists() else {}


@pytest.mark.parametrize(
    "key, make_state, labels, point", [pytest.param(*case, id=case[0]) for case in _cases()]
)
def test_one_point_results_match_the_record(key, make_state, labels, point):
    result, entry = _result(make_state, labels, point), RECORDED[key]
    assert list(result.params) == entry["params"]
    _assert_close(result.F, _from_hex(entry["F"]), f"{key} F")
    _assert_close(result.F_inverse, _from_hex(entry["F_inverse"]), f"{key} F_inverse")
    for name, value, recorded in zip(result.params, result.bounds.values(), entry["bounds"]):
        if recorded is None:
            assert value is None, f"{key} {name}"
        else:
            recorded = float.fromhex(recorded)
            assert abs(value - recorded) <= RTOL * recorded, f"{key} {name}"
    assert list(result.identifiable.values()) == entry["identifiable"]
    assert [list(group) for group in result.blocks] == entry["blocks"]


SWEEP_STRIDE = 10


def _sweep_members():
    """(key, spec) for every member sweep of every figure preset."""
    for panel, members in figure_presets().items():
        for label, spec in members:
            yield f"{panel}/{label}", spec


def _sweep_entry(spec) -> dict:
    """Every SWEEP_STRIDE-th row of the sweep: its cells as ``float.hex``,
    None where empty, and its status flags joined by ";"."""
    table = run_sweep(spec)
    rows = range(0, len(table), SWEEP_STRIDE)
    cells = {
        column: [None if math.isnan(v) else float(v).hex() for v in values[::SWEEP_STRIDE].tolist()]
        for column, values in table.columns.items()
    }
    return {"rows": list(rows), "columns": cells, "status": [";".join(table.status[i]) for i in rows]}


SWEEP_RECORDED = json.loads(SWEEP_RECORD.read_text()) if SWEEP_RECORD.exists() else {}


@pytest.mark.parametrize(
    "key, spec", [pytest.param(*member, id=member[0]) for member in _sweep_members()]
)
def test_sweep_results_match_the_record(key, spec):
    entry, recorded = _sweep_entry(spec), SWEEP_RECORDED[key]
    assert entry["rows"] == recorded["rows"]
    assert entry["status"] == recorded["status"]
    assert list(entry["columns"]) == list(recorded["columns"])
    for column, cells in recorded["columns"].items():
        for row, value, cell in zip(recorded["rows"], entry["columns"][column], cells):
            where = f"{key} {column} row {row}"
            if cell is None:
                assert value is None, where
            else:
                cell = float.fromhex(cell)
                assert value is not None, where
                assert abs(float.fromhex(value) - cell) <= RTOL * abs(cell), where


def _record_one_point():
    lines = (f"{json.dumps(key)}: {json.dumps(_entry(_result(*case)))}" for key, *case in _cases())
    RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def _record_sweeps():
    lines = (f"{json.dumps(key)}: {json.dumps(_sweep_entry(spec))}" for key, spec in _sweep_members())
    SWEEP_RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    recorders = {"one-point": _record_one_point, "sweeps": _record_sweeps}
    if len(sys.argv) != 2 or sys.argv[1] not in recorders:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(recorders)}}}")
    recorders[sys.argv[1]]()
