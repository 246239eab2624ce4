"""Run one twfediag CLI invocation with spans around every layer call.

    python3 perfbench/traced_cli.py SPANS.json INVOCATION_ID -- <twfediag arguments>

Times ``import twfediag.cli`` and counts the modules it loads, wraps the
public functions of the layer modules (see tracer.instrument), runs
``twfediag.cli.main`` inside a ``cli.main`` span, writes all spans and
counts to SPANS.json and exits with main's exit code. twfediag must be
importable (run.py sets PYTHONPATH to the checkout's ``src``).
"""

import sys

from tracer import Tracer, instrument

LAYERS = ("panel", "synth", "twfe", "lsq", "diagnostics", "robustness")


def _solve_counts(args, kwargs, result):
    n, k = args[0].values.shape
    return {"lsq.design_bytes": 8 * n * k, "lsq.qr_flops": 2 * n * k * k - 2 * k ** 3 / 3}


def _sweep_counts(args, kwargs, result):
    return {"robustness.points": len(result.points), "robustness.skipped": len(result.skipped)}


COUNTERS = {
    "panel.load_panel_csv": lambda a, k, result: {"panel.rows_parsed": len(result)},
    "lsq.solve_least_squares": _solve_counts,
    "robustness.sweep_end_year": _sweep_counts,
    "robustness.sweep_post_horizon": _sweep_counts,
    "robustness.leave_one_unit_out": _sweep_counts,
}


def main() -> int:
    spans_path, invocation, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json INVOCATION_ID -- ARGS...")
    tracer = Tracer(invocation)
    before = len(sys.modules)
    with tracer.span("import"):
        import twfediag.cli
    tracer.count("import.modules", len(sys.modules) - before)

    from twfediag.panel import PanelDataset

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "twfediag"]
    instrument(tracer, modules, LAYERS, COUNTERS)
    PanelDataset.restrict = tracer.wrap("panel.PanelDataset.restrict", PanelDataset.restrict)
    built = PanelDataset.__post_init__

    def count_built(self):
        tracer.count("panel.observations_built", len(self.observations))
        built(self)

    PanelDataset.__post_init__ = count_built

    code = 1
    try:
        with tracer.span("cli.main"):
            code = twfediag.cli.main(argv)
    except SystemExit as exc:  # argparse exits for --version and usage errors
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
