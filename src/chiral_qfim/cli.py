"""Command-line front end for the chirality sensitivity pipeline.

Subcommands
-----------
``bounds``    quantum Cramér–Rao bounds at one parameter point
``sweep``     figure-grade sensitivity sweeps written as CSV
``compare``   closed-form versus numerical-pipeline deviation report
``fringe``    output-fidelity fringe values and scans
``selftest``  packaged invariant checks with per-check residuals

Configuration comes from flags or from a JSON file (``--config``) whose
keys mirror the long flag names; flags override file values, and the file
must carry ``"schema": 1``.  Exit codes: 0 success, 1 selftest failure,
2 invalid input, 3 numeric failure, 4 I/O failure.  Errors print one
explanatory line, never a stack trace.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import checks
from .analytic import (
    COHERENT,
    FOCK_ONE_PLUS_ONE_MINUS,
    NOON_HV,
    SINGLE_PHOTON_H,
    InputStateKind,
    default_param_labels,
    fidelity_fringe,
)
from .channel import ALPHA_PHI_NAMES, CHIRAL_NAMES, ChiralParams, DomainError
from .estimation import compute_bounds
from .experiments import (
    COMPARE_TOL,
    FIDELITY_FRINGE,
    QFIM_ANALYTIC,
    QFIM_NUMERIC,
    SWEEP_METHODS,
    SweepSpec,
    compare_analytic_numeric,
    figure_presets,
    flags_by_reason,
    panel_to_csv_text,
    prepare_input_state,
    run_sweep,
    sweep_to_csv_text,
)
from .fock import (
    TRUNCATION_BUDGET_DEFAULT,
    FockSpace,
    StateValidationError,
    TruncationError,
    TwoModeState,
    coherent_product_state,
    default_coherent_space,
    fock_product_state,
    hv_to_pm_amplitudes,
    hv_to_pm_state,
    poisson_tail,
)

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_INVALID = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

CONFIG_SCHEMA = 1

STATE_CHOICES = {
    "coherent": COHERENT,
    "single-photon": SINGLE_PHOTON_H,
    "noon": NOON_HV,
    "fock-pair": FOCK_ONE_PLUS_ONE_MINUS,
}

_CHIRAL_BY_FLAG = {"xd": "x_d", "xs": "x_s", "delta": "delta", "sigma": "sigma"}

_CONFIG_KEYS = frozenset(
    {
        "schema",
        "state",
        "xd",
        "xs",
        "delta",
        "sigma",
        "alpha_plus",
        "alpha_minus",
        "phi_plus",
        "phi_minus",
        "n0",
        "amp_h",
        "amp_v",
        "cutoff",
        "budget",
        "preset",
        "vary",
        "start",
        "stop",
        "points",
        "fix",
        "methods",
        "output",
        "tol",
        "json",
    }
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliConfig:
    """One resolved command: file config merged under the given flags."""

    subcommand: str
    state: str | None
    point: dict
    n0: float | None
    amp_h: complex | None
    amp_v: complex | None
    cutoff: int | None
    budget: float | None
    preset: str | None
    vary: str | None
    start: float | None
    stop: float | None
    points: int | None
    fixed: dict | None
    methods: tuple | None
    output: str | None
    tol: float | None
    emit_json: bool


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiral-qfim",
        description=(
            "Sensitivity bounds for the four chirality parameters of a lossy"
            " birefringent channel: closed forms, a numerical pipeline, and"
            " figure-grade sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (schema 1); flags override it")
        p.add_argument(
            "--json",
            action="store_true",
            default=None,
            help="emit machine-readable JSON with stable key order",
        )

    def state_flags(p):
        p.add_argument(
            "--state",
            choices=sorted(STATE_CHOICES),
            help="input state kind",
        )
        p.add_argument("--n0", type=float, help="coherent mean photon number (H-polarized)")
        p.add_argument("--amp-h", help="coherent H amplitude, e.g. '0.6+0.2j'")
        p.add_argument("--amp-v", help="coherent V amplitude")

    def point_flags(p):
        p.add_argument("--xd", type=float, help="differential absorption (alpha_+ - alpha_-)/2")
        p.add_argument("--xs", type=float, help="mean absorption (alpha_+ + alpha_-)/2")
        p.add_argument("--delta", type=float, help="differential phase phi_+ - phi_-")
        p.add_argument("--sigma", type=float, help="common phase phi_+ + phi_-")
        p.add_argument("--alpha-plus", type=float, help="absorption of the + mode")
        p.add_argument("--alpha-minus", type=float, help="absorption of the - mode")
        p.add_argument("--phi-plus", type=float, help="phase of the + mode")
        p.add_argument("--phi-minus", type=float, help="phase of the - mode")

    def grid_flags(p):
        p.add_argument("--vary", help="swept coordinate: x_d, x_s, delta, sigma, or alpha")
        p.add_argument("--start", type=float, help="first grid value")
        p.add_argument("--stop", type=float, help="last grid value")
        p.add_argument("--points", type=int, help="number of grid points")
        p.add_argument(
            "--fix",
            action="append",
            metavar="NAME=VALUE",
            help="hold a coordinate fixed (repeatable)",
        )

    p_bounds = sub.add_parser(
        "bounds", help="QFIM, its inverse, and per-parameter bounds at one point"
    )
    state_flags(p_bounds)
    point_flags(p_bounds)
    p_bounds.add_argument("--cutoff", type=int, help="force the per-mode Fock cutoff")
    p_bounds.add_argument(
        "--budget", type=float, help="coherent truncation tail budget per mode"
    )
    common(p_bounds)

    p_sweep = sub.add_parser("sweep", help="write a sensitivity sweep as CSV")
    state_flags(p_sweep)
    grid_flags(p_sweep)
    p_sweep.add_argument(
        "--preset",
        help="named figure grid (fig2a-fig2f, fig3a-fig3f, fig4) instead of a custom grid",
    )
    p_sweep.add_argument(
        "--methods",
        help="comma-separated subset of " + ", ".join(SWEEP_METHODS),
    )
    p_sweep.add_argument("--output", help="CSV path (default: CSV to stdout)")
    common(p_sweep)

    p_compare = sub.add_parser(
        "compare",
        help=(
            "closed-form vs numerical deviations over a grid;"
            " exits 3 when a bound column deviates beyond --tol"
        ),
    )
    state_flags(p_compare)
    grid_flags(p_compare)
    p_compare.add_argument(
        "--tol", type=float, help=f"flagging threshold (default {COMPARE_TOL:g})"
    )
    common(p_compare)

    p_fringe = sub.add_parser(
        "fringe", help="output-fidelity fringe: one value, or a scan over delta"
    )
    state_flags(p_fringe)
    point_flags(p_fringe)
    p_fringe.add_argument(
        "--points", type=int, help="scan delta over a grid with this many points"
    )
    p_fringe.add_argument("--start", type=float, help="scan start (default 0)")
    p_fringe.add_argument("--stop", type=float, help="scan stop (default 2*pi)")
    p_fringe.add_argument("--output", help="CSV path for scans (default: stdout)")
    common(p_fringe)

    p_self = sub.add_parser(
        "selftest", help="run the packaged invariant checks and report residuals"
    )
    common(p_self)

    return parser


def _load_config_file(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise DomainError(f"config file {path!r} must hold a JSON object")
    if data.get("schema") != CONFIG_SCHEMA:
        raise DomainError(
            f"config file {path!r} needs \"schema\": {CONFIG_SCHEMA},"
            f" got {data.get('schema')!r}"
        )
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise DomainError(f"unknown config keys {unknown} in {path!r}")
    return data


def _as_float(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{name} must be a number, got {value!r}")
    return float(value)


def _as_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return value


def _parse_complex(name: str, value) -> complex:
    if isinstance(value, (int, float, complex)) and not isinstance(value, bool):
        return complex(value)
    try:
        return complex(str(value).strip())
    except ValueError:
        raise DomainError(
            f"{name} expects a complex number such as '0.6+0.2j', got {value!r}"
        ) from None


def _parse_fix(value) -> dict:
    fixed = {}
    if isinstance(value, dict):
        for key, item in value.items():
            fixed[str(key)] = _as_float(f"fix[{key}]", item)
        return fixed
    for item in value:
        name, sep, text = str(item).partition("=")
        if not sep or not name:
            raise DomainError(f"--fix expects NAME=VALUE, got {item!r}")
        try:
            fixed[name.strip()] = float(text)
        except ValueError:
            raise DomainError(f"--fix {item!r}: {text!r} is not a number") from None
    return fixed


def _parse_methods(value) -> tuple:
    if isinstance(value, str):
        names = [part.strip() for part in value.split(",") if part.strip()]
    else:
        names = [str(part) for part in value]
    return tuple(names)


def merge_config(args: argparse.Namespace) -> CliConfig:
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(name):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        return file_cfg.get(name)

    state = pick("state")
    if state is not None and state not in STATE_CHOICES:
        raise DomainError(
            f"unknown state {state!r}; choose one of {', '.join(sorted(STATE_CHOICES))}"
        )

    point = {}
    for flag, name in _CHIRAL_BY_FLAG.items():
        value = pick(flag)
        point[name] = None if value is None else _as_float(f"--{flag}", value)
    for name in ALPHA_PHI_NAMES:
        value = pick(name)
        flag = "--" + name.replace("_", "-")
        point[name] = None if value is None else _as_float(flag, value)

    n0 = pick("n0")
    amp_h = pick("amp_h")
    amp_v = pick("amp_v")
    cutoff = pick("cutoff")
    budget = pick("budget")
    points = pick("points")
    fix = pick("fix")
    methods = pick("methods")
    tol = pick("tol")
    start = pick("start")
    stop = pick("stop")

    return CliConfig(
        subcommand=args.subcommand,
        state=state,
        point=point,
        n0=None if n0 is None else _as_float("--n0", n0),
        amp_h=None if amp_h is None else _parse_complex("--amp-h", amp_h),
        amp_v=None if amp_v is None else _parse_complex("--amp-v", amp_v),
        cutoff=None if cutoff is None else _as_int("--cutoff", cutoff),
        budget=None if budget is None else _as_float("--budget", budget),
        preset=pick("preset"),
        vary=pick("vary"),
        start=None if start is None else _as_float("--start", start),
        stop=None if stop is None else _as_float("--stop", stop),
        points=None if points is None else _as_int("--points", points),
        fixed=None if fix is None else _parse_fix(fix),
        methods=None if methods is None else _parse_methods(methods),
        output=pick("output"),
        tol=None if tol is None else _as_float("--tol", tol),
        emit_json=bool(pick("json")),
    )


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------


def _input_kind(cfg: CliConfig) -> InputStateKind:
    if cfg.state is None:
        raise DomainError(
            "no input state selected; pass --state "
            + "/".join(sorted(STATE_CHOICES))
        )
    kind_name = STATE_CHOICES[cfg.state]
    if kind_name != COHERENT:
        if cfg.n0 is not None or cfg.amp_h is not None or cfg.amp_v is not None:
            raise DomainError(
                f"--n0/--amp-h/--amp-v apply to --state coherent, not {cfg.state!r}"
            )
        if kind_name == SINGLE_PHOTON_H:
            return InputStateKind.single_photon_h()
        if kind_name == NOON_HV:
            return InputStateKind.noon_hv()
        return InputStateKind.fock_one_plus_one_minus()
    if cfg.amp_h is not None or cfg.amp_v is not None:
        if cfg.n0 is not None:
            raise DomainError("give either --n0 or explicit --amp-h/--amp-v, not both")
        return InputStateKind.coherent(cfg.amp_h or 0j, cfg.amp_v or 0j)
    if cfg.n0 is None:
        raise DomainError(
            "a coherent input needs --n0 (mean photon number) or --amp-h/--amp-v"
        )
    if not (math.isfinite(cfg.n0) and cfg.n0 >= 0.0):
        raise DomainError(f"--n0 must be a finite nonnegative number, got {cfg.n0!r}")
    return InputStateKind.coherent(math.sqrt(cfg.n0), 0j)


def _point_params(cfg: CliConfig) -> ChiralParams:
    chiral = {n: cfg.point[n] for n in CHIRAL_NAMES if cfg.point.get(n) is not None}
    native = {n: cfg.point[n] for n in ALPHA_PHI_NAMES if cfg.point.get(n) is not None}
    if chiral and native:
        raise DomainError(
            "mixed coordinates: use either --xd/--xs/--delta/--sigma or"
            " --alpha-plus/--alpha-minus/--phi-plus/--phi-minus, not both"
        )
    if native:
        return ChiralParams(**{n: native.get(n, 0.0) for n in ALPHA_PHI_NAMES})
    return ChiralParams.from_chiral(
        chiral.get("x_d", 0.0),
        chiral.get("x_s", 0.0),
        chiral.get("delta", 0.0),
        chiral.get("sigma", 0.0),
    )


def _input_state(cfg: CliConfig, kind: InputStateKind) -> TwoModeState:
    if kind.kind != COHERENT:
        if cfg.budget is not None:
            raise DomainError("--budget applies only to coherent inputs")
        if cfg.cutoff is None:
            return prepare_input_state(kind)
        space = FockSpace(cfg.cutoff, cfg.cutoff)
        if kind.kind == FOCK_ONE_PLUS_ONE_MINUS:
            return fock_product_state(space, 1, 1)
        return hv_to_pm_state(kind.kind, space)
    amp_p, amp_m = hv_to_pm_amplitudes(kind.amp_h, kind.amp_v)
    budget = TRUNCATION_BUDGET_DEFAULT if cfg.budget is None else cfg.budget
    if cfg.cutoff is None:
        space, budget = default_coherent_space(amp_p, amp_m, budget=budget)
    else:
        space = FockSpace(cfg.cutoff, cfg.cutoff)
        if cfg.budget is None:
            # an explicit cutoff wins: accept whatever tail it leaves
            budget = max(
                budget,
                poisson_tail(abs(amp_p) ** 2, space.cutoff_plus),
                poisson_tail(abs(amp_m) ** 2, space.cutoff_minus),
            )
    return coherent_product_state(space, amp_p, amp_m, truncation_budget=budget)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "unidentifiable"
    return format(value, ".9g")


def _matrix_lines(title: str, labels, matrix) -> list:
    lines = [title]
    lines.append("  " + " ".join(f"{text:>14}" for text in ("", *labels)))
    for label, row in zip(labels, matrix):
        cells = " ".join(f"{v:>14.6g}" for v in row)
        lines.append(f"  {label:>14} {cells}")
    return lines


def _bounds_payload(cfg, params, labels, result) -> dict:
    inverse = result.F_inverse
    return {
        "state": cfg.state,
        "parameters": {
            **dict(zip(ALPHA_PHI_NAMES, params.values("alpha_phi"))),
            **dict(zip(CHIRAL_NAMES, params.values("chiral"))),
        },
        "labels": list(labels),
        "qfim": [[float(v) for v in row] for row in result.F],
        "qfim_inverse": None
        if inverse is None
        else [[float(v) for v in row] for row in inverse],
        "bounds": {label: result.bounds.get(label) for label in labels},
        "covariances": {f"{a},{b}": v for (a, b), v in (result.covariances or {}).items()},
        "identifiable": dict(result.identifiable or {}),
        "blocks": [list(block) for block in result.blocks],
        "fully_singular": bool(result.meta.get("fully_singular", False)),
    }


def _bounds_text(payload: dict) -> str:
    lines = [f"input state     {payload['state']}"]
    pars = payload["parameters"]
    lines.append(
        "native          "
        + " ".join(f"{n}={format(pars[n], '.9g')}" for n in ALPHA_PHI_NAMES)
    )
    lines.append(
        "chiral          "
        + " ".join(f"{n}={format(pars[n], '.9g')}" for n in CHIRAL_NAMES)
    )
    labels = payload["labels"]
    lines.append(
        "blocks          "
        + " ".join("[" + ", ".join(block) + "]" for block in payload["blocks"])
    )
    lines.extend(_matrix_lines("QFIM", labels, payload["qfim"]))
    if payload["qfim_inverse"] is None:
        lines.append("inverse         none (QFIM singular on every parameter)")
    else:
        lines.extend(_matrix_lines("inverse", labels, payload["qfim_inverse"]))
    lines.append("bounds (single-probe standard deviation)")
    for label in labels:
        flag = "" if payload["identifiable"].get(label, False) else "  [unidentifiable]"
        lines.append(f"  {label:>14} {_fmt(payload['bounds'][label]):>14}{flag}")
    if payload["covariances"]:
        lines.append("covariances")
        for key, value in sorted(payload["covariances"].items()):
            a, b = key.split(",")
            lines.append(f"  cov({a}, {b}) = {_fmt(value)}")
    return "\n".join(lines)


def cmd_bounds(cfg: CliConfig) -> int:
    kind = _input_kind(cfg)
    params = _point_params(cfg)
    state = _input_state(cfg, kind)
    labels = default_param_labels(kind)
    result = compute_bounds(state, params, labels)
    payload = _bounds_payload(cfg, params, labels, result)
    if cfg.emit_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(_bounds_text(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _custom_spec(cfg: CliConfig, kind: InputStateKind, default_methods) -> SweepSpec:
    for flag, value in (
        ("--vary", cfg.vary),
        ("--start", cfg.start),
        ("--stop", cfg.stop),
        ("--points", cfg.points),
    ):
        if value is None:
            raise DomainError(f"custom sweep needs {flag} (or use --preset)")
    methods = default_methods if cfg.methods is None else cfg.methods
    return SweepSpec(
        input_state=kind,
        vary=cfg.vary,
        start=cfg.start,
        stop=cfg.stop,
        points=cfg.points,
        fixed=cfg.fixed or {},
        methods=tuple(methods),
    )


def _emit_csv(cfg: CliConfig, text: str, n_rows: int, rows: list) -> None:
    reasons = flags_by_reason(rows)
    flagged = sum(1 for row in rows if row.status)
    summary = {"rows": n_rows, "flagged_points": flagged, "flags_by_reason": reasons}
    groups = ", ".join(f"{count} {reason}" for reason, count in reasons.items())
    line = f"{n_rows} rows, {flagged} flagged points" + (f" ({groups})" if groups else "")
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        summary["output"] = cfg.output
        line = f"wrote {cfg.output}: {line}"
    else:
        sys.stdout.write(text)
    if cfg.emit_json:
        line = json.dumps(summary, sort_keys=True)
    print(line, file=sys.stdout if cfg.output else sys.stderr)


def cmd_sweep(cfg: CliConfig) -> int:
    if cfg.preset is not None:
        presets = figure_presets()
        if cfg.preset not in presets:
            raise DomainError(
                f"unknown preset {cfg.preset!r}; available:"
                f" {', '.join(sorted(presets))}"
            )
        members = [(label, spec, run_sweep(spec)) for label, spec in presets[cfg.preset]]
        text = panel_to_csv_text(members)
        n_rows = len(members[0][2])
        rows = [row for _, _, member_rows in members for row in member_rows]
    else:
        kind = _input_kind(cfg)
        spec = _custom_spec(cfg, kind, default_methods=(QFIM_NUMERIC,))
        rows = run_sweep(spec)
        text = sweep_to_csv_text(rows, spec)
        n_rows = len(rows)
    _emit_csv(cfg, text, n_rows, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(cfg: CliConfig) -> int:
    kind = _input_kind(cfg)
    spec = SweepSpec(
        input_state=kind,
        vary=cfg.vary or "x_s",
        start=0.05 if cfg.start is None else cfg.start,
        stop=0.9 if cfg.stop is None else cfg.stop,
        points=8 if cfg.points is None else cfg.points,
        fixed=cfg.fixed or {},
        methods=(QFIM_NUMERIC, QFIM_ANALYTIC),
    )
    tol = COMPARE_TOL if cfg.tol is None else cfg.tol
    report = compare_analytic_numeric(kind, spec, tol=tol)
    bound_flags = [item for item in report.flagged if item[1].startswith("delta_")]
    payload = {
        "state": cfg.state,
        "tolerance": tol,
        "grid": json.loads(spec.to_json()),
        "stats": {
            quantity: {
                "max_abs": stats.max_abs,
                "mean_abs": stats.mean_abs,
                "points": stats.points,
                "worst_coordinate": stats.worst_coordinate,
            }
            for quantity, stats in report.stats.items()
        },
        "flagged": [
            {
                "coordinate": coordinate,
                "quantity": quantity,
                "numeric": numeric,
                "analytic": analytic,
                "deviation": deviation,
            }
            for coordinate, quantity, numeric, analytic, deviation in report.flagged
        ],
        "notes": list(report.notes),
        "max_bound_deviation": report.max_bound_deviation,
    }
    if cfg.emit_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        lines = [
            f"comparison for {cfg.state}: {spec.vary} in"
            f" [{format(spec.start, '.9g')}, {format(spec.stop, '.9g')}]"
            f" ({spec.points} points), fixed {cfg.fixed or {}}"
        ]
        lines.append(f"  {'quantity':<16} {'max_abs':>12} {'mean_abs':>12}  worst at")
        for quantity, stats in sorted(report.stats.items()):
            lines.append(
                f"  {quantity:<16} {stats.max_abs:>12.4e} {stats.mean_abs:>12.4e}"
                f"  {spec.vary}={format(stats.worst_coordinate, '.9g')}"
            )
        if report.flagged:
            lines.append(f"flagged above {tol:g}:")
            for coordinate, quantity, numeric, analytic, deviation in report.flagged:
                lines.append(
                    f"  {spec.vary}={format(coordinate, '.9g')} {quantity}:"
                    f" numeric {format(numeric, '.9g')} vs analytic"
                    f" {format(analytic, '.9g')} (dev {deviation:.3e})"
                )
        else:
            lines.append(f"flagged above {tol:g}: none")
        for note in report.notes:
            lines.append(f"note: {note}")
        lines.append(f"max bound deviation: {report.max_bound_deviation:.4e}")
        print("\n".join(lines))
    return EXIT_NUMERIC if bound_flags else EXIT_OK


# ---------------------------------------------------------------------------
# fringe
# ---------------------------------------------------------------------------


def cmd_fringe(cfg: CliConfig) -> int:
    kind = _input_kind(cfg)
    if cfg.points is None:
        params = _point_params(cfg)
        value = fidelity_fringe(kind, params)
        if cfg.emit_json:
            payload = {
                "state": cfg.state,
                "delta": params.delta,
                "x_d": params.x_d,
                "x_s": params.x_s,
                "value": value,
            }
            print(json.dumps(payload, sort_keys=True))
        else:
            print(
                f"fidelity fringe for {cfg.state} at delta="
                f"{format(params.delta, '.9g')}: {format(value, '.9g')}"
            )
        return EXIT_OK
    if cfg.point.get("delta") is not None:
        raise DomainError("a fringe scan varies delta itself; drop --delta")
    if any(cfg.point.get(name) is not None for name in ALPHA_PHI_NAMES):
        raise DomainError(
            "fringe scans fix the chiral coordinates --xd/--xs/--sigma;"
            " native flags cannot be held fixed while delta varies"
        )
    fixed = {
        name: cfg.point[name]
        for name in ("x_d", "x_s", "sigma")
        if cfg.point.get(name) is not None
    }
    spec = SweepSpec(
        input_state=kind,
        vary="delta",
        start=0.0 if cfg.start is None else cfg.start,
        stop=2.0 * math.pi if cfg.stop is None else cfg.stop,
        points=cfg.points,
        fixed=fixed,
        methods=(FIDELITY_FRINGE,),
    )
    rows = run_sweep(spec)
    text = sweep_to_csv_text(rows, spec)
    _emit_csv(cfg, text, len(rows), rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def cmd_selftest(cfg: CliConfig) -> int:
    results = []
    first_failure = None
    for check in checks.CHECKS:
        result = check()
        results.append(result)
        if not cfg.emit_json:
            mark = "ok  " if result.passed else "FAIL"
            line = (
                f"{mark} {result.name:<32} residual {result.residual: 11.4e}"
                f"  tol {result.tolerance:.1e}"
            )
            if result.note:
                line += f"  ({result.note})"
            print(line)
        if first_failure is None and not result.passed:
            first_failure = result.name
    if cfg.emit_json:
        payload = {
            "checks": [result.summary() for result in results],
            "passed": first_failure is None,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    if first_failure is not None:
        print(f"selftest: FAILED at check {first_failure!r}", file=sys.stderr)
        return EXIT_SELFTEST
    if not cfg.emit_json:
        print(f"selftest: {len(results)} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_HANDLERS = {
    "bounds": cmd_bounds,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "fringe": cmd_fringe,
    "selftest": cmd_selftest,
}


def _fail(code: int, category: str, exc: Exception) -> int:
    print(f"chiral-qfim: {category}: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    try:
        cfg = merge_config(args)
        return _HANDLERS[cfg.subcommand](cfg)
    except np.linalg.LinAlgError as exc:
        return _fail(EXIT_NUMERIC, "numeric failure", exc)
    except OSError as exc:
        return _fail(EXIT_IO, "i/o failure", exc)
    except (DomainError, TruncationError, StateValidationError, ValueError) as exc:
        return _fail(EXIT_INVALID, "invalid input", exc)
    except (ArithmeticError, RuntimeError) as exc:
        return _fail(EXIT_NUMERIC, "numeric failure", exc)
    except Exception as exc:  # no stack traces reach end users
        return _fail(EXIT_NUMERIC, f"internal error ({type(exc).__name__})", exc)


if __name__ == "__main__":
    sys.exit(main())
