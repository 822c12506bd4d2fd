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
from dataclasses import asdict

import numpy as np

from . import checks
from .analytic import PROBES, InputStateKind, default_param_labels, fidelity_fringe
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
from .fock import StateValidationError, TruncationError

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_INVALID = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

CONFIG_SCHEMA = 1

# --state name -> input kind
STATE_CHOICES = {probe.state: kind for kind, probe in PROBES.items()}

_CHIRAL_BY_FLAG = {"xd": "x_d", "xs": "x_s", "delta": "delta", "sigma": "sigma"}

# one flagged deviation of a ComparisonReport, field by field
_FLAGGED_FIELDS = ("coordinate", "quantity", "numeric", "analytic", "deviation")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

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


def _config_keys(parser: argparse.ArgumentParser) -> set:
    """Keys a config file may hold: every subcommand's option names and
    ``schema``, but not ``config`` or ``subcommand``."""
    names = set().union(*(vars(parser.parse_args([name])) for name in _HANDLERS))
    return names - {"config", "subcommand"} | {"schema"}


def _load_config_file(path: str, keys: set) -> dict:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise DomainError(f"config file {path!r} must hold a JSON object")
    if data.get("schema") != CONFIG_SCHEMA:
        raise DomainError(
            f"config file {path!r} needs \"schema\": {CONFIG_SCHEMA},"
            f" got {data.get('schema')!r}"
        )
    unknown = sorted(set(data) - keys)
    if unknown:
        raise DomainError(f"unknown config keys {unknown} in {path!r}")
    return data


def _as_state(name: str, value) -> str:
    if not isinstance(value, str) or value not in STATE_CHOICES:
        raise DomainError(
            f"unknown state {value!r}; choose one of {', '.join(sorted(STATE_CHOICES))}"
        )
    return value


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


def _parse_fix(name: str, value) -> dict:
    fixed = {}
    if isinstance(value, dict):
        for key, item in value.items():
            fixed[str(key)] = _as_float(f"fix[{key}]", item)
        return fixed
    for item in value:
        coordinate, sep, text = str(item).partition("=")
        if not sep or not coordinate:
            raise DomainError(f"{name} expects NAME=VALUE, got {item!r}")
        try:
            fixed[coordinate.strip()] = float(text)
        except ValueError:
            raise DomainError(f"{name} {item!r}: {text!r} is not a number") from None
    return fixed


def _parse_methods(name: str, value) -> tuple:
    if isinstance(value, str):
        names = [part.strip() for part in value.split(",") if part.strip()]
    else:
        names = [str(part) for part in value]
    return tuple(names)


# option -> check of its merged value, in the order the checks run
_CHECKERS = {
    "state": _as_state,
    **dict.fromkeys((*_CHIRAL_BY_FLAG, *ALPHA_PHI_NAMES, "n0"), _as_float),
    "amp_h": _parse_complex,
    "amp_v": _parse_complex,
    "cutoff": _as_int,
    "budget": _as_float,
    "start": _as_float,
    "stop": _as_float,
    "points": _as_int,
    "fix": _parse_fix,
    "methods": _parse_methods,
    "tol": _as_float,
}


def merge_config(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """``args`` with each option that no flag set taken from the
    ``--config`` file, and each value checked in ``_CHECKERS`` order; a
    file value is checked even where this subcommand has no such option."""
    file_cfg = _load_config_file(args.config, _config_keys(parser)) if args.config else {}
    for name in {**_CHECKERS, **vars(args), **file_cfg}:
        value = getattr(args, name, None)
        if value is None:
            value = file_cfg.get(name)
        if value is not None and name in _CHECKERS:
            value = _CHECKERS[name]("--" + name.replace("_", "-"), value)
        setattr(args, name, value)
    return args


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------


def _input_kind(args) -> InputStateKind:
    if args.state is None:
        raise DomainError(
            "no input state selected; pass --state "
            + "/".join(sorted(STATE_CHOICES))
        )
    kind_name = STATE_CHOICES[args.state]
    if PROBES[kind_name].photons is not None:
        if args.n0 is not None or args.amp_h is not None or args.amp_v is not None:
            raise DomainError(
                f"--n0/--amp-h/--amp-v apply to --state coherent, not {args.state!r}"
            )
        return InputStateKind(kind_name)
    if args.amp_h is not None or args.amp_v is not None:
        if args.n0 is not None:
            raise DomainError("give either --n0 or explicit --amp-h/--amp-v, not both")
        return InputStateKind.coherent(args.amp_h or 0j, args.amp_v or 0j)
    if args.n0 is None:
        raise DomainError(
            "a coherent input needs --n0 (mean photon number) or --amp-h/--amp-v"
        )
    if not (math.isfinite(args.n0) and args.n0 >= 0.0):
        raise DomainError(f"--n0 must be a finite nonnegative number, got {args.n0!r}")
    return InputStateKind.coherent(math.sqrt(args.n0), 0j)


def _given(args, flags) -> dict:
    """The coordinates of ``flags`` that a flag or the config file set, by
    chiral or native name."""
    values = {_CHIRAL_BY_FLAG.get(flag, flag): getattr(args, flag) for flag in flags}
    return {name: value for name, value in values.items() if value is not None}


def _point_params(args) -> ChiralParams:
    chiral = _given(args, _CHIRAL_BY_FLAG)
    native = _given(args, ALPHA_PHI_NAMES)
    if chiral and native:
        raise DomainError(
            "mixed coordinates: use either --xd/--xs/--delta/--sigma or"
            " --alpha-plus/--alpha-minus/--phi-plus/--phi-minus, not both"
        )
    if native:
        return ChiralParams(**{n: native.get(n, 0.0) for n in ALPHA_PHI_NAMES})
    return ChiralParams.from_chiral(*(chiral.get(n, 0.0) for n in CHIRAL_NAMES))


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


def _bounds_payload(args, params, labels, result) -> dict:
    return {
        "state": args.state,
        "parameters": {
            **dict(zip(ALPHA_PHI_NAMES, params.values("alpha_phi"))),
            **dict(zip(CHIRAL_NAMES, params.values("chiral"))),
        },
        "labels": list(labels),
        "qfim": [[float(v) for v in row] for row in result.F],
        "qfim_inverse": [[float(v) for v in row] for row in result.F_inverse],
        "bounds": dict(result.bounds),
        "covariances": {f"{a},{b}": v for (a, b), v in result.covariances.items()},
        "identifiable": dict(result.identifiable),
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
    lines.extend(_matrix_lines("inverse", labels, payload["qfim_inverse"]))
    lines.append("bounds (single-probe standard deviation)")
    for label in labels:
        flag = "" if payload["identifiable"][label] else "  [unidentifiable]"
        lines.append(f"  {label:>14} {_fmt(payload['bounds'][label]):>14}{flag}")
    if payload["covariances"]:
        lines.append("covariances")
        for key, value in sorted(payload["covariances"].items()):
            a, b = key.split(",")
            lines.append(f"  cov({a}, {b}) = {_fmt(value)}")
    return "\n".join(lines)


def cmd_bounds(args) -> int:
    kind = _input_kind(args)
    params = _point_params(args)
    state = prepare_input_state(kind, args.cutoff, args.budget)
    labels = default_param_labels(kind)
    result = compute_bounds(state, params, labels)
    payload = _bounds_payload(args, params, labels, result)
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(_bounds_text(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _custom_spec(args, kind: InputStateKind, default_methods) -> SweepSpec:
    for flag, value in (
        ("--vary", args.vary),
        ("--start", args.start),
        ("--stop", args.stop),
        ("--points", args.points),
    ):
        if value is None:
            raise DomainError(f"custom sweep needs {flag} (or use --preset)")
    methods = default_methods if args.methods is None else args.methods
    return SweepSpec(
        input_state=kind,
        vary=args.vary,
        start=args.start,
        stop=args.stop,
        points=args.points,
        fixed=args.fix or {},
        methods=tuple(methods),
    )


def _emit_csv(args, text: str, n_rows: int, statuses: list) -> None:
    reasons = flags_by_reason(statuses)
    flagged = sum(1 for status in statuses if status)
    summary = {"rows": n_rows, "flagged_points": flagged, "flags_by_reason": reasons}
    groups = ", ".join(f"{count} {reason}" for reason, count in reasons.items())
    line = f"{n_rows} rows, {flagged} flagged points" + (f" ({groups})" if groups else "")
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        summary["output"] = args.output
        line = f"wrote {args.output}: {line}"
    else:
        sys.stdout.write(text)
    if args.json:
        line = json.dumps(summary, sort_keys=True)
    print(line, file=sys.stdout if args.output else sys.stderr)


def cmd_sweep(args) -> int:
    if args.preset is not None:
        presets = figure_presets()
        if args.preset not in presets:
            raise DomainError(
                f"unknown preset {args.preset!r}; available:"
                f" {', '.join(sorted(presets))}"
            )
        members = [(label, spec, run_sweep(spec)) for label, spec in presets[args.preset]]
        text = panel_to_csv_text(members)
        n_rows = len(members[0][2])
        statuses = [status for _, _, rows in members for status in rows.status]
    else:
        kind = _input_kind(args)
        spec = _custom_spec(args, kind, default_methods=(QFIM_NUMERIC,))
        rows = run_sweep(spec)
        text = sweep_to_csv_text(rows, spec)
        n_rows, statuses = len(rows), rows.status
    _emit_csv(args, text, n_rows, statuses)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args) -> int:
    kind = _input_kind(args)
    spec = SweepSpec(
        input_state=kind,
        vary=args.vary or "x_s",
        start=0.05 if args.start is None else args.start,
        stop=0.9 if args.stop is None else args.stop,
        points=8 if args.points is None else args.points,
        fixed=args.fix or {},
        methods=(QFIM_NUMERIC, QFIM_ANALYTIC),
    )
    tol = COMPARE_TOL if args.tol is None else args.tol
    report = compare_analytic_numeric(kind, spec, tol=tol)
    bound_flags = [item for item in report.flagged if item[1].startswith("delta_")]
    payload = {
        "state": args.state,
        "tolerance": tol,
        "grid": json.loads(spec.to_json()),
        "stats": {quantity: asdict(stats) for quantity, stats in report.stats.items()},
        "flagged": [dict(zip(_FLAGGED_FIELDS, item)) for item in report.flagged],
        "notes": list(report.notes),
        "max_bound_deviation": report.max_bound_deviation,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        lines = [
            f"comparison for {args.state}: {spec.vary} in"
            f" [{format(spec.start, '.9g')}, {format(spec.stop, '.9g')}]"
            f" ({spec.points} points), fixed {args.fix or {}}"
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


def cmd_fringe(args) -> int:
    kind = _input_kind(args)
    if args.points is None:
        params = _point_params(args)
        value = fidelity_fringe(kind, params)
        if args.json:
            payload = {
                "state": args.state,
                "delta": params.delta,
                "x_d": params.x_d,
                "x_s": params.x_s,
                "value": value,
            }
            print(json.dumps(payload, sort_keys=True))
        else:
            print(
                f"fidelity fringe for {args.state} at delta="
                f"{format(params.delta, '.9g')}: {format(value, '.9g')}"
            )
        return EXIT_OK
    if args.delta is not None:
        raise DomainError("a fringe scan varies delta itself; drop --delta")
    if _given(args, ALPHA_PHI_NAMES):
        raise DomainError(
            "fringe scans fix the chiral coordinates --xd/--xs/--sigma;"
            " native flags cannot be held fixed while delta varies"
        )
    fixed = _given(args, ("xd", "xs", "sigma"))
    spec = SweepSpec(
        input_state=kind,
        vary="delta",
        start=0.0 if args.start is None else args.start,
        stop=2.0 * math.pi if args.stop is None else args.stop,
        points=args.points,
        fixed=fixed,
        methods=(FIDELITY_FRINGE,),
    )
    rows = run_sweep(spec)
    text = sweep_to_csv_text(rows, spec)
    _emit_csv(args, text, len(rows), rows.status)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def cmd_selftest(args) -> int:
    results = []
    first_failure = None
    for check in checks.CHECKS:
        result = check()
        results.append(result)
        if not args.json:
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
    if args.json:
        payload = {
            "checks": [result.summary() for result in results],
            "passed": first_failure is None,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    if first_failure is not None:
        print(f"selftest: FAILED at check {first_failure!r}", file=sys.stderr)
        return EXIT_SELFTEST
    if not args.json:
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
        args = merge_config(parser, args)
        return _HANDLERS[args.subcommand](args)
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
