"""Command-line front end: subcommands, config merging, and exit codes."""

import csv
import json
import math
from functools import partial

import pytest

from chiral_qfim import checks, experiments
from chiral_qfim.analytic import (
    PROBES,
    InputStateKind,
    coherent_bounds,
    default_param_labels,
)
from chiral_qfim.channel import ChiralParams, ParamGrid
from chiral_qfim.cli import (
    EXIT_INVALID,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_SELFTEST,
    _input_kind,
    build_parser,
    main,
    merge_config,
)
from chiral_qfim.experiments import CLOSED_FORMS, SweepSpec, prepare_input_state
from chiral_qfim.fock import MAX_LOSS_CUTOFF, FockSpace, TruncationError


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


def test_bounds_json_of_a_fully_singular_point_has_no_covariances(capsys):
    # the vacuum probe carries no information: F = 0 at every point
    point = ("--xs", "0.3", "--xd", "0.1")
    code, out, _ = run_cli(capsys, "bounds", "--state", "coherent", "--n0", "0", *point, "--json")
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["fully_singular"] is True
    assert payload["covariances"] == {}


# the closed form of each state's bounds at a grid, from the probe table: the
# coherent one at n0 = 4
BOUND_KINDS = [
    InputStateKind.coherent(2.0),
    *(InputStateKind(name) for name, probe in PROBES.items() if probe.builder),
]
BOUND_FORMS = {kind.probe.state: partial(kind.probe.bound, kind) for kind in BOUND_KINDS}
# the edge points at which the bounds were once wrong, or flagged, with exit 0:
# (state, extra flags, alpha_plus, alpha_minus, labels checked)
EDGE_ROWS = [
    ("noon", (), 0.1, 1e-12, ("x_d", "x_s")),
    ("noon", (), 1e-13, 0.3, ("x_d", "x_s")),
    ("fock-pair", (), 1e-12, 0.2, ("x_d", "x_s")),
    ("coherent", ("--n0", "4"), 0.3, 1.0 - 1e-12, ("x_d", "x_s", "delta", "sigma")),
    ("fock-pair", (), 0.0, 0.2, ("x_d", "x_s")),
    ("fock-pair", (), 0.0, 0.0, ("x_d", "x_s")),
    ("noon", (), 0.0, 0.0, ("x_d", "x_s")),
    ("single-photon", (), 0.0, 0.0, ("x_s",)),
    ("noon", (), 0.1, 0.0, ("x_d", "x_s")),
    ("noon", (), 0.4, 0.0, ("x_d", "x_s")),
]


@pytest.mark.parametrize(
    "state, flags, alpha_plus, alpha_minus, labels",
    EDGE_ROWS,
    ids=[f"{row[0]}-{row[2]!r}-{row[3]!r}" for row in EDGE_ROWS],
)
def test_bounds_json_is_right_at_the_edge_rows(
    capsys, state, flags, alpha_plus, alpha_minus, labels
):
    code, out, err = run_cli(
        capsys,
        "bounds",
        "--state",
        state,
        *flags,
        "--alpha-plus",
        repr(alpha_plus),
        "--alpha-minus",
        repr(alpha_minus),
        "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    closed = BOUND_FORMS[state](ParamGrid([ChiralParams(alpha_plus, alpha_minus)])).values
    for label in labels:
        assert payload["identifiable"][label], label
        expected = closed[label][0]
        assert payload["bounds"][label] == pytest.approx(expected, rel=1e-6, abs=1e-12), label


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


@pytest.mark.parametrize("cutoff, tail", [(20, "9.647e-01"), (40, "3.231e-02"), (60, "4.485e-07")])
def test_bounds_explicit_cutoff_is_held_to_the_default_budget(capsys, cutoff, tail):
    # without --budget a requested cutoff must still meet the default budget:
    # at cutoff 60 the x_d bound would be 1.3e-5 off the closed form
    point = ("bounds", "--state", "coherent", "--n0", "60", "--xd", "0.05", "--xs", "0.2")
    code, out, err = run_cli(capsys, *point, "--cutoff", str(cutoff))
    assert code == EXIT_INVALID
    assert out == ""
    assert f"keeps Poisson tail {tail} > budget 1.000e-10; cutoff >= 71 required" in err
    closed = coherent_bounds(ChiralParams.from_chiral(0.05, 0.2, 0.0, 0.0), 60.0).values
    for flags, rel in ((("--cutoff", "71"), 1e-8), (("--cutoff", "40", "--budget", "0.05"), 0.2)):
        code, out, err = run_cli(capsys, *point, *flags, "--json")
        assert code == EXIT_OK
        assert json.loads(out)["bounds"]["x_d"] == pytest.approx(closed["x_d"], rel=rel)


@pytest.mark.parametrize("budget", ["1", "inf", "nan", "-1"])
@pytest.mark.parametrize("cutoff", [(), ("--cutoff", "20")], ids=["searched", "given"])
def test_bounds_refuses_a_budget_that_is_not_a_tail_probability(capsys, budget, cutoff):
    # a budget of 1 or more once built a cutoff-0 vacuum, printed all four
    # parameters unidentifiable and exited 0
    argv = ("bounds", "--state", "coherent", "--n0", "4", "--xd", "0.05", "--xs", "0.3")
    code, out, err = run_cli(capsys, *argv, *cutoff, "--budget", budget)
    assert code == EXIT_INVALID
    assert out == ""
    value = float(budget)
    assert err == f"chiral-qfim: invalid input: truncation budget must lie in [0, 1), got {value!r}\n"


def test_bounds_bright_coherent_below_its_cutoff_names_the_cutoff(capsys):
    # the Poisson tail of mean 800 at cutoff 10 is 1, not an underflowed 0
    argv = ("bounds", "--state", "coherent", "--n0", "1600", "--cutoff", "10")
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert "keeps Poisson tail 1.000e+00 > budget 1.000e-10; cutoff >= 986 required" in err


def test_bounds_refuses_a_cutoff_past_the_loss_tables_at_once(
    capsys, monkeypatch, fresh_input_states
):
    # n0 = 3000 needs cutoff 1753 per mode, past the largest whose loss
    # binomials fit in a float64: refused before the state is built
    built = []
    monkeypatch.setattr(experiments, "coherent_product_state", lambda *args, **kw: built.append(1))
    argv = ("bounds", "--state", "coherent", "--n0", "3000", "--json")
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_NUMERIC
    assert out == "" and built == []
    assert f"cutoff 1753 exceeds {MAX_LOSS_CUTOFF}, the largest" in err


@pytest.mark.parametrize("state, cutoff", [("single-photon", 3), ("noon", 4), ("fock-pair", 2)])
def test_bounds_cutoff_enlarges_a_quantum_state_without_moving_its_bounds(capsys, state, cutoff):
    point = ("bounds", "--state", state, "--xd", "0.05", "--xs", "0.3", "--delta", "0.4", "--json")
    code, out, err = run_cli(capsys, *point)
    assert code == EXIT_OK
    minimal = json.loads(out)["bounds"]
    code, out, err = run_cli(capsys, *point, "--cutoff", str(cutoff))
    assert code == EXIT_OK
    enlarged = json.loads(out)["bounds"]
    assert enlarged.keys() == minimal.keys()
    for label, value in minimal.items():
        assert enlarged[label] == pytest.approx(value, rel=1e-9)


@pytest.mark.parametrize("state", ["single-photon", "noon", "fock-pair"])
def test_bounds_refuses_a_budget_for_a_quantum_state(capsys, state):
    code, out, err = run_cli(capsys, "bounds", "--state", state, "--budget", "1e-9", "--xs", "0.3")
    assert code == EXIT_INVALID
    assert out == ""
    assert err == "chiral-qfim: invalid input: --budget applies only to coherent inputs\n"


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


def run_with_config(capsys, tmp_path, payload, *argv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema": 1, **payload}))
    return run_cli(capsys, *argv, "--config", str(config))


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"state": "noon", "xs": True}, "--xs must be a number, got True"),
        ({"state": "noon", "xs": "0.5"}, "--xs must be a number, got '0.5'"),
        ({"state": "noon", "cutoff": 3.0}, "--cutoff must be an integer, got 3.0"),
        (
            {"state": "coherent", "amp_h": "bad"},
            "--amp-h expects a complex number such as '0.6+0.2j', got 'bad'",
        ),
        ({"state": "noon", "fix": {"x_d": "a"}}, "fix[x_d] must be a number, got 'a'"),
        ({"state": "bogus"}, "unknown state 'bogus'; choose one of"),
        # every known key is checked, in a fixed order, also one bounds does not read
        ({"state": "noon", "points": "x"}, "--points must be an integer, got 'x'"),
        ({"state": "noon", "n0": "x", "xd": "y"}, "--xd must be a number, got 'y'"),
        # a value that is not a string, hashable or not, is no state either
        ({"state": ["noon"]}, "unknown state ['noon']; choose one of"),
        ({"state": 1}, "unknown state 1; choose one of"),
    ],
)
def test_config_file_checks_each_value(capsys, tmp_path, payload, message):
    code, out, err = run_with_config(capsys, tmp_path, payload, "bounds")
    assert code == EXIT_INVALID
    assert err.startswith(f"chiral-qfim: invalid input: {message}")


@pytest.mark.parametrize("amp", ["amp_h", "amp_v"])
def test_sweep_config_refuses_amplitudes_on_a_quantum_state(capsys, tmp_path, amp):
    payload = {"state": "noon", amp: "1.0", "points": 3}
    code, out, err = run_with_config(capsys, tmp_path, payload, "sweep")
    assert code == EXIT_INVALID and out == ""
    assert "--n0/--amp-h/--amp-v apply to --state coherent, not 'noon'" in err


@pytest.mark.parametrize("key", ["config", "subcommand"])
def test_config_file_refuses_the_config_and_subcommand_keys(capsys, tmp_path, key):
    code, out, err = run_with_config(capsys, tmp_path, {"state": "noon", key: "x"}, "bounds")
    assert code == EXIT_INVALID
    assert f"unknown config keys ['{key}']" in err


def test_config_file_accepts_the_options_of_other_subcommands(capsys, tmp_path):
    payload = {"state": "noon", "xs": 0.3, "preset": "fig2a", "tol": 1e-3, "vary": "x_s"}
    code, out, err = run_with_config(capsys, tmp_path, payload, "bounds", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["parameters"]["x_s"] == pytest.approx(0.3)


def test_selftest_config_with_only_json(capsys, tmp_path, monkeypatch):
    def passing():
        return checks.CheckResult(name="stub", residual=0.0, tolerance=1e-6, passed=True)

    monkeypatch.setattr(checks, "CHECKS", (passing,))
    code, out, err = run_with_config(capsys, tmp_path, {"json": True}, "selftest")
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True
    assert err == ""


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


def test_sweep_summary_groups_flags_by_reason(capsys):
    # x_s = 0 leaves alpha_minus = -0.05 outside the domain
    argv = ["sweep", "--state", "fock-pair", "--vary", "x_s", "--start", "0", "--stop", "0.6"]
    argv += ["--points", "3", "--fix", "x_d=0.05"]
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert err.strip() == (
        "3 rows, 3 flagged points"
        " (2 qfim_numeric.delta_delta:unidentifiable, 1 invalid-point)"
    )
    code, _, err = run_cli(capsys, *argv, "--json")
    assert json.loads(err) == {
        "rows": 3,
        "flagged_points": 3,
        "flags_by_reason": {"qfim_numeric.delta_delta:unidentifiable": 2, "invalid-point": 1},
    }


def _state_flags(probe) -> tuple:
    """``--state`` for a probe of the probe table, with ``--n0`` for the coherent one."""
    return ("--state", probe.state, *(("--n0", "1") if probe.photons is None else ()))


@pytest.mark.parametrize("name", list(PROBES))
def test_each_probe_record_agrees_with_its_name_labels_and_builder(name, fresh_input_states):
    probe = PROBES[name]
    parser = build_parser()
    kind = _input_kind(merge_config(parser, parser.parse_args(["bounds", *_state_flags(probe)])))
    assert kind.kind == name and kind.probe is probe
    assert probe.labels == default_param_labels(kind) == default_param_labels(name)
    # the state its builder, or the coherent product, gives carries the flag
    assert prepare_input_state(kind).two_block
    if probe.builder:
        assert kind.mean_photons == probe.photons
        with pytest.raises(TruncationError):  # its cutoff is the least
            probe.builder(FockSpace(probe.cutoff - 1, probe.cutoff - 1))


# each (input kind, closed-form sweep method) pair whose form the probe table marks absent
ABSENT_FORMS = [
    (name, method)
    for name, probe in PROBES.items()
    for method, form in CLOSED_FORMS.items()
    if getattr(probe, form) is None
]


def test_the_probe_table_marks_three_closed_forms_absent():
    assert sorted((PROBES[name].state, method) for name, method in ABSENT_FORMS) == [
        ("coherent", "fidelity_fringe"),
        ("fock-pair", "fidelity_fringe"),
        ("fock-pair", "intensity_analytic"),
    ]


@pytest.mark.parametrize("name, method", ABSENT_FORMS)
def test_a_closed_form_the_probe_lacks_is_refused_by_the_spec(capsys, name, method):
    # one rule for every absent form: the spec refuses it, so no point is flagged
    refusal = f"'{method}' applies to .* inputs only"
    with pytest.raises(ValueError, match=refusal):
        SweepSpec(InputStateKind(name), "x_s", 0.05, 0.9, 7, methods=(method,))
    grid = ("--vary", "x_s", "--start", "0.05", "--stop", "0.9", "--points", "7")
    flags = (*_state_flags(PROBES[name]), *grid, "--methods", method)
    code, out, err = run_cli(capsys, "sweep", *flags)
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("chiral-qfim: invalid input: ") and "inputs only" in err


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


def test_compare_noon_with_an_edge_point_exits_zero(capsys):
    # the default x_s grid starts at x_s = x_d, where the minus mode is lossless
    code, out, err = run_cli(capsys, "compare", "--state", "noon", "--fix", "x_d=0.05", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["max_bound_deviation"] <= 1e-6
    assert payload["flagged"] == []


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
        "rank-one-route",
        "counting-attains-absorption",
    ):
        assert name in out
    assert "residual" in out
    assert "12 checks passed" in out
    assert "FAIL" not in out


def test_selftest_json_residuals_within_tolerance(capsys):
    code, out, err = run_cli(capsys, "selftest", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 12
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
