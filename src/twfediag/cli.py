"""Command-line interface: panel ingestion, estimation, diagnostics,
robustness sweeps, and synthetic-panel generation.

Data goes to files or standard output; diagnostics go to standard error.
Exit codes: 0 success, 1 data/validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import sys

from . import __version__

# Start-up is most of a small run's time, so the module level imports only
# what parsing needs: each command imports the layers (and numpy) and the
# standard modules it uses. Options whose default belongs to the library
# (--bins, --bandwidth, --grid-points, --level) are passed on only when
# given.

SWEEP_HEADER = [
    "label", "beta", "ci_low", "ci_high",
    "share_negative_treated", "n_obs", "n_treated",
]


def _checked(convert, accept, requirement: str):
    """argparse type: convert the text, then refuse a value outside its range."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}")
        return value

    return parse


def _parse_horizons(text: str) -> list[int]:
    return [int(h) for h in text.split(",") if h.strip() != ""]


LEVEL = _checked(float, lambda v: 0 < v < 1, "a confidence level in (0, 1)")
BANDWIDTH = _checked(float, lambda v: 0 < v <= 1, "a bandwidth in (0, 1]")
GRID_POINTS = _checked(int, lambda v: 2 <= v <= 10**6, "an integer from 2 to 1000000")
BINS = _checked(int, lambda v: 1 <= v <= 10**6, "an integer from 1 to 1000000")
SEED = _checked(int, lambda v: v >= 0, "a non-negative integer")
HORIZONS = _checked(
    _parse_horizons,
    lambda hs: len(hs) > 0 and min(hs) >= 0,
    "a comma-separated list of non-negative integers",
)


def _add_data_args(p: argparse.ArgumentParser):
    p.add_argument("--data", required=True, help="panel CSV (long format, header row)")
    p.add_argument("--unit", required=True, help="unit-identifier column")
    p.add_argument("--time", required=True, help="integer period column")
    p.add_argument("--outcome", required=True, help="outcome column")
    p.add_argument("--treatment", help="0/1 treatment column (omit when using --adoption)")
    p.add_argument("--adoption", help="adoption-schedule CSV (unit,adoption_period)")
    p.add_argument(
        "--treat-from",
        choices=["adoption-year", "next-year"],
        default="adoption-year",
        help="with --adoption: treated from the adoption period, or from the period "
             "after it (the schedule shifted by one, read by every command)",
    )


def _add_inference_arg(p: argparse.ArgumentParser):
    p.add_argument(
        "--cluster",
        choices=["unit", "none"],
        default="unit",
        help="cluster standard errors by unit, or use classical errors",
    )


def _inference(args) -> str:
    return "cluster_by_unit" if args.cluster == "unit" else "classical"


def _digest(*paths: str | None) -> str:
    import hashlib

    h = hashlib.sha256()
    for path in paths:
        if path:
            with open(path, "rb") as f:
                for block in iter(lambda: f.read(1 << 20), b""):  # 1 MiB at a time
                    h.update(block)
    return h.hexdigest()


def _given(args, *names: str) -> dict:
    """The named options the user gave, as keyword arguments."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _load(args, schedule_needed: bool = False):
    """(dataset, adoption schedule) from the data options: --adoption's schedule,
    else the treated column's (schedule_from_data) if schedule_needed, else None."""
    from .errors import TwfeDiagError
    from .panel import (AdoptionSchedule, apply_adoption_schedule, load_panel_csv,
                        load_schedule_csv, schedule_from_data)

    if args.treatment is None and args.adoption is None:
        raise TwfeDiagError("provide --treatment and/or --adoption")
    dataset = load_panel_csv(
        args.data, args.unit, args.time, args.outcome, args.treatment
    )
    schedule = None
    if args.adoption is not None:
        schedule = load_schedule_csv(args.adoption)
        if args.treat_from == "next-year":  # one period later; no int64 period follows 2**63-1
            schedule = AdoptionSchedule({u: None if a in (None, 2**63 - 1) else a + 1
                                         for u, a in schedule.entries.items()})
        dataset = apply_adoption_schedule(dataset, schedule)
    elif schedule_needed:
        schedule = schedule_from_data(dataset)
    return dataset, schedule


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _sweep_csv(path: str, sweep) -> None:
    from .panel import coded, write_csv

    # every cell as text, so a nan interval (se 0) reads nan, not missing
    write_csv(path, SWEEP_HEADER, [coded([p.label for p in sweep.points]),
                                   *(coded([repr(getattr(p, name)) for p in sweep.points])
                                     for name in SWEEP_HEADER[1:])])
    for label, reason in sweep.skipped:
        print(f"skipped {label}: {reason}", file=sys.stderr)


def _null_nan(x: float):
    """x, or None (JSON null) for a nan, which JSON cannot hold."""
    return None if x != x else x


def _coef_dict(row) -> dict:
    return {
        "estimate": row.estimate,
        "se": row.se,
        "t_stat": _null_nan(row.t_stat),
        "p_value": _null_nan(row.p_value),
    }


def cmd_estimate(args) -> int:
    import json
    import time

    from .diagnostics import homogeneity_test, weight_report
    from .errors import TwfeDiagError
    from .twfe import fit_twfe

    dataset, _ = _load(args)
    fit = fit_twfe(dataset, _inference(args))
    report = weight_report(fit)
    try:
        homog = homogeneity_test(fit)
    except TwfeDiagError as exc:
        homog, skipped = None, f"{type(exc).__name__}: {exc}"
    doc = {
        "config": {
            "data": args.data,
            "unit": args.unit,
            "time": args.time,
            "outcome": args.outcome,
            "treatment": args.treatment,
            "adoption": args.adoption,
            "treat_from": args.treat_from,
            "cluster": args.cluster,
        },
        "fit": {
            "beta": fit.beta,
            "se": fit.se,
            "p_value": _null_nan(fit.p_value),
            "dof": fit.dof,
            "n_obs": fit.n_obs,
            "n_treated": fit.n_treated,
            "inference": fit.inference,
        },
        "weights": {
            "n_treated": report.n_treated,
            "n_treated_negative": report.n_treated_negative,
            "share_treated_negative": report.share_treated_negative,
            "n_control_positive": report.n_control_positive,
        },
        "homogeneity": None if homog is None else {
            "resid_treatment": _coef_dict(homog.b_resid_treatment),
            "treat_group": _coef_dict(homog.b_treat_group),
            "interaction": _coef_dict(homog.b_interaction),
            "n_obs": homog.n_obs,
            "inference": homog.inference,
        },
        "version": __version__,
        "input_digest": _digest(args.data, args.adoption),
    }
    if not args.no_timestamp:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if args.out is not None:
        _write_text(args.out, text)
        print(
            f"beta={fit.beta:.2f} se={fit.se:.2f} p={fit.p_value:.2f} "
            f"n={fit.n_obs} treated={fit.n_treated} "
            f"negative_treated={report.n_treated_negative}"
        )
    else:
        sys.stdout.write(text)
    if homog is None:
        print(f"skipped homogeneity: {skipped}", file=sys.stderr)
    return 0


def cmd_weights(args) -> int:
    import numpy as np

    from .diagnostics import STATUS, weight_grid, weight_report
    from .panel import write_csv
    from .twfe import fit_twfe

    dataset, schedule = _load(args, schedule_needed=args.out_grid is not None)
    fit = fit_twfe(dataset)
    report = weight_report(fit, **_given(args, "bins"))
    if args.out_hist is not None:
        write_csv(args.out_hist, ["bin_low", "bin_high", "treated_count", "control_count"],
                  [list(column) for column in zip(*report.histogram)])  # a tuple is labels
    if args.out_grid is not None:
        grid = weight_grid(fit, schedule)
        # each cell's row and column code, row by row
        row, column = np.divmod(np.arange(grid.weight.size, dtype=np.int32), len(grid.periods))
        write_csv(args.out_grid, ["unit", "period", "status", "weight"], [
            (grid.units, row), (grid.periods, column),
            (STATUS, grid.status.ravel()), grid.weight.ravel(),  # nan where missing
        ])
    print(
        f"treated={report.n_treated} negative_treated={report.n_treated_negative} "
        f"share={report.share_treated_negative:.2f}",
        file=sys.stderr,
    )
    return 0


def cmd_scatter(args) -> int:
    from .diagnostics import residual_scatter
    from .panel import coded, write_csv
    from .twfe import fit_twfe

    dataset, _ = _load(args)
    fit = fit_twfe(dataset)
    scatter = residual_scatter(fit, **_given(args, "bandwidth", "grid_points"))
    prefix = args.out_prefix
    curves = {"control": scatter.control, "treated": scatter.treated}
    write_csv(f"{prefix}_points.csv", ["resid_treatment", "resid_outcome", "treated"],
              [fit.residualized_treatment, fit.residualized_outcome, ((0, 1), fit.treatment)])
    write_csv(f"{prefix}_lines.csv", ["group", "slope", "intercept"],
              [coded(list(curves)), [c.slope for c in curves.values()],
               [c.intercept for c in curves.values()]])
    smooth = [(group, x, y) for group, c in curves.items() for x, y in c.smoothed]
    write_csv(f"{prefix}_smooth.csv", ["group", "x", "y"],
              [coded([g for g, _, _ in smooth]), [x for _, x, _ in smooth], [y for _, _, y in smooth]])
    return 0


def cmd_sweep_endyear(args) -> int:
    from .errors import InvalidSweep
    from .robustness import sweep_end_year

    dataset, _ = _load(args)
    if not dataset.periods and None in (args.first_end, args.last_end):
        raise InvalidSweep("the panel has no data rows to take a default end-year range from")
    first = args.first_end if args.first_end is not None else dataset.periods[0]
    last = args.last_end if args.last_end is not None else dataset.periods[-1]
    sweep = sweep_end_year(dataset, first, last, _inference(args), **_given(args, "level"))
    _sweep_csv(args.out, sweep)
    return 0


def cmd_sweep_horizon(args) -> int:
    from .robustness import sweep_post_horizon

    dataset, schedule = _load(args, schedule_needed=True)
    sweep = sweep_post_horizon(
        dataset, schedule, args.horizons, _inference(args), **_given(args, "level")
    )
    _sweep_csv(args.out, sweep)
    return 0


def cmd_jackknife(args) -> int:
    from .robustness import leave_one_unit_out

    dataset, schedule = _load(args, schedule_needed=True)
    sweep = leave_one_unit_out(dataset, schedule, _inference(args), **_given(args, "level"))
    _sweep_csv(args.out, sweep)
    return 0


def cmd_simulate(args) -> int:
    from .panel import write_panel_csv
    from .synth import generate_panel, spec_from_json

    spec = spec_from_json(args.spec, seed=args.seed)
    dataset = generate_panel(spec)
    write_panel_csv(dataset, args.out)
    print(f"wrote {len(dataset)} observations to {args.out}", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    import json

    from .panel import validate

    dataset, _ = _load(args)
    report = validate(dataset)
    text = json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"
    if args.out is not None:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0 if report.is_valid else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twfediag",
        description="Two-way fixed-effects estimation and diagnostics for "
                    "staggered-adoption panels",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="fit, weight summary, homogeneity test -> JSON")
    _add_data_args(p)
    _add_inference_arg(p)
    p.add_argument("--out", help="report JSON path (default: standard output)")
    p.add_argument("--no-timestamp", action="store_true", help="omit the timestamp field")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("weights", help="weight histogram and unit-by-period grid CSVs")
    _add_data_args(p)
    p.add_argument("--bins", type=BINS, default=argparse.SUPPRESS,
                   help="histogram bins, 1 to 1000000")
    p.add_argument("--out-hist", help="histogram CSV path")
    p.add_argument("--out-grid", help="grid CSV path")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("scatter", help="residual scatter, fit lines, smoothed curves CSVs")
    _add_data_args(p)
    p.add_argument("--bandwidth", type=BANDWIDTH, default=argparse.SUPPRESS)
    p.add_argument("--grid-points", type=GRID_POINTS, default=argparse.SUPPRESS,
                   help="smoothing grid points per group, 2 to 1000000")
    p.add_argument("--out-prefix", required=True,
                   help="writes <prefix>_points.csv, <prefix>_lines.csv, <prefix>_smooth.csv")
    p.set_defaults(func=cmd_scatter)

    for name, func in (("sweep-endyear", cmd_sweep_endyear),
                       ("sweep-horizon", cmd_sweep_horizon),
                       ("jackknife", cmd_jackknife)):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} robustness sweep CSV")
        _add_data_args(p)
        _add_inference_arg(p)
        p.add_argument("--level", type=LEVEL, default=argparse.SUPPRESS, help="confidence level")
        p.add_argument("--out", required=True, help="sweep CSV path")
        if name == "sweep-endyear":
            p.add_argument("--first-end", type=int)
            p.add_argument("--last-end", type=int)
            p.set_defaults(usage_error=p.error)
        if name == "sweep-horizon":
            p.add_argument("--horizons", required=True, type=HORIZONS,
                           help="comma-separated non-negative horizons, e.g. 0,1,2,5")
        p.set_defaults(func=func)

    p = sub.add_parser("simulate", help="generate a synthetic panel CSV from a JSON spec")
    p.add_argument("--spec", required=True, help="generator spec JSON")
    p.add_argument("--seed", type=SEED, help="override the spec's seed")
    p.add_argument("--out", required=True, help="panel CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="structural validation report JSON")
    _add_data_args(p)
    p.add_argument("--out", help="report JSON path (default: standard output)")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "first_end", None) is not None and args.last_end is not None \
            and args.first_end > args.last_end:
        args.usage_error(f"--first-end {args.first_end} is after --last-end {args.last_end}")
    from .errors import TwfeDiagError

    try:
        return args.func(args)
    except (TwfeDiagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"error: out of memory. {exc}".strip(), file=sys.stderr)
        return 1


def run() -> int:
    """The process entry point (`twfediag`, `python -m twfediag.cli`):
    main() with the cyclic garbage collector off, the heap frozen on exit.

    A command makes no reference cycles that grow with its input (only the
    argument parser's fixed graph), and reference counting frees the rest,
    so collections would only re-scan the objects numpy's import leaves;
    freezing them spares interpreter shutdown the same scan. Callers of
    main() keep their own collector state.
    """
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
