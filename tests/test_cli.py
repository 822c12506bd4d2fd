"""Command-line front end: subcommands, config merging, and exit codes."""

import csv
import json
import math

import pytest

from chiral_qfim import checks
from chiral_qfim.analytic import coherent_bounds
from chiral_qfim.channel import ChiralParams
from chiral_qfim.cli import (
    EXIT_INVALID,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_SELFTEST,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.splitlines() if not line.startswith("# spec:")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_single_photon_table_contains_reference_value(capsys):
    code, out, err = run_cli(
        capsys, "bounds", "--state", "single-photon", "--xs", "0.5", "--xd", "0.1"
    )
    assert code == EXIT_OK
    assert err == ""
    assert "0.7" in out
    assert "QFIM" in out
    assert "[x_d, x_s]" in out and "[delta]" in out
    assert "unidentifiable" not in out


def test_bounds_coherent_phase_bound_json(capsys):
    code, out, err = run_cli(
        capsys,
        "bounds",
        "--state",
        "coherent",
        "--n0",
        "1",
        "--xs",
        "0.5",
        "--xd",
        "0.1",
        "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["bounds"]["delta"] == pytest.approx(1.443376, abs=1e-6)
    assert payload["bounds"]["sigma"] == pytest.approx(1.443376, abs=1e-6)
    # the pipeline covariance convention: negative for positive x_d
    assert payload["covariances"]["x_d,x_s"] == pytest.approx(-0.1, abs=1e-6)
    assert list(payload) == sorted(payload)


@pytest.mark.parametrize("n0", [8, 20, 60])
def test_bounds_bright_coherent_json_matches_closed_form(capsys, n0):
    # the default truncation meets its tail budget at any brightness
    argv = ["bounds", "--state", "coherent", "--n0", str(n0), "--xd", "0.1", "--xs", "0.3"]
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == EXIT_OK, err
    closed = coherent_bounds(ChiralParams.from_chiral(0.1, 0.3, 0.0, 0.0), n0).values
    for name, bound in json.loads(out)["bounds"].items():
        assert bound == pytest.approx(closed[name], rel=1e-6)


def test_bounds_noon_delta_next_to_full_absorption_json(capsys):
    code, out, err = run_cli(
        capsys,
        "bounds",
        "--state",
        "noon",
        "--alpha-plus",
        "0.9999",
        "--alpha-minus",
        "0.3",
        "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    # closed form sqrt((eta+^2 + eta-^2) / (8 eta+^2 eta-^2))
    expected = math.sqrt((1e-8 + 0.49) / (8.0 * 1e-8 * 0.49))
    assert payload["bounds"]["delta"] == pytest.approx(expected, abs=1e-6)
    assert payload["identifiable"]["delta"] is True


def test_bounds_rejects_alpha_above_one(capsys):
    code, out, err = run_cli(
        capsys, "bounds", "--state", "noon", "--alpha-plus", "1.2"
    )
    assert code == EXIT_INVALID
    assert "alpha_plus" in err
    assert "Traceback" not in err


def test_bounds_rejects_mixed_coordinate_flags(capsys):
    code, out, err = run_cli(
        capsys,
        "bounds",
        "--state",
        "single-photon",
        "--xs",
        "0.5",
        "--alpha-plus",
        "0.3",
    )
    assert code == EXIT_INVALID
    assert "mixed coordinates" in err


def test_bounds_coherent_needs_photon_number(capsys):
    code, out, err = run_cli(capsys, "bounds", "--state", "coherent", "--xs", "0.5")
    assert code == EXIT_INVALID
    assert "--n0" in err


def test_bounds_cutoff_too_small_for_budget(capsys):
    code, out, err = run_cli(
        capsys,
        "bounds",
        "--state",
        "coherent",
        "--n0",
        "4",
        "--cutoff",
        "3",
        "--budget",
        "1e-10",
        "--xs",
        "0.3",
    )
    assert code == EXIT_INVALID
    assert "cutoff" in err


def test_bounds_explicit_cutoff_accepts_its_own_tail(capsys):
    # without --budget the requested cutoff wins over the default budget
    code, out, err = run_cli(
        capsys,
        "bounds",
        "--state",
        "coherent",
        "--n0",
        "1",
        "--cutoff",
        "9",
        "--xs",
        "0.3",
        "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["bounds"]["x_s"] == pytest.approx(math.sqrt(0.7), abs=1e-4)


def test_bounds_amplitude_flags(capsys):
    # H amplitude sqrt(2) is the two-photon coherent reference
    code, out, err = run_cli(
        capsys,
        "bounds",
        "--state",
        "coherent",
        "--amp-h",
        "1.4142135623730951",
        "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["bounds"]["x_d"] == pytest.approx(math.sqrt(0.5), abs=1e-8)


def test_bounds_rejects_amp_and_n0_together(capsys):
    code, out, err = run_cli(
        capsys,
        "bounds",
        "--state",
        "coherent",
        "--n0",
        "1",
        "--amp-h",
        "1.0",
    )
    assert code == EXIT_INVALID
    assert "not both" in err


def test_bounds_rejects_bad_amplitude_text(capsys):
    code, out, err = run_cli(
        capsys, "bounds", "--state", "coherent", "--amp-h", "one"
    )
    assert code == EXIT_INVALID
    assert "--amp-h" in err


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_config_file_supplies_flags_and_flags_override(capsys, tmp_path):
    config = tmp_path / "point.json"
    config.write_text(
        json.dumps({"schema": 1, "state": "single-photon", "xs": 0.5, "xd": 0.1})
    )
    code, out, err = run_cli(capsys, "bounds", "--config", str(config), "--json")
    assert code == EXIT_OK
    assert json.loads(out)["bounds"]["x_d"] == pytest.approx(0.7, abs=1e-9)

    code, out, err = run_cli(
        capsys, "bounds", "--config", str(config), "--xd", "0.2", "--json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["parameters"]["x_d"] == pytest.approx(0.2)


def test_config_file_requires_schema(capsys, tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"state": "noon"}))
    code, out, err = run_cli(capsys, "bounds", "--config", str(config))
    assert code == EXIT_INVALID
    assert "schema" in err


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"schema": 1, "state": "noon", "xss": 0.5}))
    code, out, err = run_cli(capsys, "bounds", "--config", str(config))
    assert code == EXIT_INVALID
    assert "xss" in err


def test_missing_config_file_is_io_failure(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "bounds", "--config", str(tmp_path / "absent.json")
    )
    assert code == EXIT_IO


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_custom_sweep_two_points_gives_two_rows(capsys):
    code, out, err = run_cli(
        capsys,
        "sweep",
        "--state",
        "single-photon",
        "--vary",
        "x_s",
        "--start",
        "0.1",
        "--stop",
        "0.5",
        "--points",
        "2",
        "--fix",
        "x_d=0.02",
    )
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert len(rows) == 2
    assert header[0] == "x_s"
    assert "2 rows" in err  # summary goes to stderr when CSV is on stdout


def test_sweep_writes_file_with_summary(capsys, tmp_path):
    target = tmp_path / "sweep.csv"
    code, out, err = run_cli(
        capsys,
        "sweep",
        "--state",
        "noon",
        "--vary",
        "x_s",
        "--start",
        "0.1",
        "--stop",
        "0.3",
        "--points",
        "3",
        "--methods",
        "qfim_analytic",
        "--output",
        str(target),
    )
    assert code == EXIT_OK
    assert "wrote" in out and "3 rows" in out
    header, rows = parse_csv(target.read_text())
    assert len(rows) == 3


def test_sweep_custom_grid_requires_range_flags(capsys):
    code, out, err = run_cli(capsys, "sweep", "--state", "noon", "--vary", "x_s")
    assert code == EXIT_INVALID
    assert "--start" in err


def test_sweep_unknown_preset_lists_options(capsys):
    code, out, err = run_cli(capsys, "sweep", "--preset", "figZ")
    assert code == EXIT_INVALID
    assert "fig4" in err


def test_preset_fig4_origin_values(capsys, tmp_path):
    target = tmp_path / "fig4.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--preset", "fig4", "--output", str(target)
    )
    assert code == EXIT_OK
    header, rows = parse_csv(target.read_text())
    origin = rows[0]
    assert float(origin[0]) == 0.0
    expected = {
        "single_photon.qfim_analytic.delta_delta": 1.0,
        "coherent_n2.qfim_analytic.delta_delta": 0.707107,
        "noon.qfim_analytic.delta_delta": 0.5,
    }
    for column, value in expected.items():
        assert float(origin[header.index(column)]) == pytest.approx(value, abs=1e-6)


def test_preset_fig3b_noon_beats_single_photon_at_low_xs(capsys, tmp_path):
    target = tmp_path / "fig3b.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--preset", "fig3b", "--output", str(target)
    )
    assert code == EXIT_OK
    header, rows = parse_csv(target.read_text())
    first = rows[0]
    assert float(first[0]) == pytest.approx(0.01)
    noon = float(first[header.index("noon.qfim_numeric.delta_x_d")])
    single = float(first[header.index("single_photon.qfim_numeric.delta_x_d")])
    assert noon < single


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_clean_grid_exits_zero(capsys):
    code, out, err = run_cli(
        capsys,
        "compare",
        "--state",
        "single-photon",
        "--points",
        "3",
        "--fix",
        "x_d=0.02",
        "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["max_bound_deviation"] <= 1e-6
    assert payload["flagged"] == []
    for stats in payload["stats"].values():
        assert stats["worst_coordinate"] is not None


def test_compare_overtight_tolerance_exits_numeric(capsys):
    code, out, err = run_cli(
        capsys,
        "compare",
        "--state",
        "single-photon",
        "--points",
        "2",
        "--tol",
        "1e-20",
    )
    assert code == EXIT_NUMERIC
    assert "flagged" in out


# ---------------------------------------------------------------------------
# fringe
# ---------------------------------------------------------------------------


def test_fringe_point_reference_values(capsys):
    code, out, err = run_cli(
        capsys,
        "fringe",
        "--state",
        "noon",
        "--xs",
        "0.5",
        "--xd",
        "0.1",
        "--delta",
        str(math.pi / 4),
        "--json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["value"] == pytest.approx(0.13, abs=1e-9)

    code, out, err = run_cli(
        capsys,
        "fringe",
        "--state",
        "single-photon",
        "--xs",
        "0.5",
        "--xd",
        "0.1",
    )
    assert code == EXIT_OK
    assert "0.494948974" in out


def test_fringe_scan_writes_rows(capsys):
    code, out, err = run_cli(
        capsys,
        "fringe",
        "--state",
        "single-photon",
        "--xs",
        "0.5",
        "--xd",
        "0.1",
        "--points",
        "5",
    )
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert len(rows) == 5
    assert header == ["delta", "fidelity_fringe.value", "status"]
    assert float(rows[0][1]) == pytest.approx(0.494948974278, abs=1e-9)


def test_fringe_scan_rejects_fixed_delta(capsys):
    code, out, err = run_cli(
        capsys,
        "fringe",
        "--state",
        "noon",
        "--xs",
        "0.5",
        "--delta",
        "0.3",
        "--points",
        "4",
    )
    assert code == EXIT_INVALID
    assert "drop --delta" in err


def test_fringe_rejects_coherent_input(capsys):
    code, out, err = run_cli(
        capsys, "fringe", "--state", "coherent", "--n0", "1", "--delta", "0.3"
    )
    assert code == EXIT_INVALID


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def test_selftest_passes_and_names_every_check(capsys):
    code, out, err = run_cli(capsys, "selftest")
    assert code == EXIT_OK
    for name in (
        "coherent-sld-closed-form",
        "absorption-phase-zero-block",
        "absorption-phase-commutator",
        "coherent-saturation",
        "single-photon-saturation",
        "noon-advantage",
        "fringe-period-doubling",
        "channel-routes-agreement",
        "channel-semigroup-composition",
        "benchmark-bound-match",
    ):
        assert name in out
    assert "residual" in out
    assert "10 checks passed" in out
    assert "FAIL" not in out


def test_selftest_json_residuals_within_tolerance(capsys):
    code, out, err = run_cli(capsys, "selftest", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 10
    for check in payload["checks"]:
        assert check["passed"] is True
        assert check["residual"] <= check["tolerance"]


def test_selftest_reports_a_failing_check(capsys, monkeypatch):
    def broken():
        return checks.CheckResult(
            name="coherent-saturation", residual=1.0, tolerance=1e-6, passed=False
        )

    registry = list(checks.CHECKS)
    registry[3] = broken
    monkeypatch.setattr(checks, "CHECKS", tuple(registry))
    code, out, err = run_cli(capsys, "selftest")
    assert code == EXIT_SELFTEST
    assert "FAIL coherent-saturation" in out
    assert "checks passed" not in out
    assert "selftest: FAILED at check 'coherent-saturation'" in err
    code, out, err = run_cli(capsys, "selftest", "--json")
    assert code == EXIT_SELFTEST
    payload = json.loads(out)
    assert payload["passed"] is False
    assert [c["passed"] for c in payload["checks"]].count(False) == 1


# ---------------------------------------------------------------------------
# exit codes and top-level behavior
# ---------------------------------------------------------------------------


def test_unwritable_output_is_io_failure(capsys):
    code, out, err = run_cli(
        capsys,
        "sweep",
        "--state",
        "noon",
        "--vary",
        "x_s",
        "--start",
        "0.1",
        "--stop",
        "0.3",
        "--points",
        "2",
        "--output",
        "/nonexistent-dir/rows.csv",
    )
    assert code == EXIT_IO
    assert "i/o failure" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK


def test_missing_subcommand_exits_invalid(capsys):
    assert main([]) == EXIT_INVALID


def test_exit_codes_are_distinct():
    codes = (EXIT_OK, EXIT_SELFTEST, EXIT_INVALID, EXIT_NUMERIC, EXIT_IO)
    assert codes == (0, 1, 2, 3, 4)
