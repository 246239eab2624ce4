"""Benchmark of the twfediag CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N]

One run makes the workload's inputs from the seed, sets up (input
generation plus an untimed ``--version`` warm-up) three times, then runs
rounds of the workload's invocation sequence in a closed loop: one client,
each invocation a fresh ``python3 -m twfediag.cli`` subprocess started
after the previous one exited. A round is started only while it is
expected to end within ``--seconds``; at least one round always runs.
Every output is checked by an oracle (oracle.py); an invocation fails if
it exits non-zero or its output is wrong.

With ``--trace 0`` the last stdout line gives the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` the run instead makes one untraced and
one traced round (traced_cli.py in fresh interpreters) and gives the
per-layer metrics. Both print a detailed JSON report (every subcommand
timing with its sample count, the environment, the failures) on stderr.
``--report`` runs every workload both ways, prints all of it on stdout and
exits 1 if any check failed.

Program processes get OPENBLAS_NUM_THREADS and OMP_NUM_THREADS set to the
number of CPUs this process may use, the default a user gets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# The oracles' numpy calls run between invocations; idle OpenBLAS worker
# threads spin for a while after a call and would take CPU from the next
# timed child. The harness needs no parallel BLAS, so it uses one thread.
# Set before numpy is imported; program processes get their own setting.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from tracer import self_times
from workloads import STDOUT, VERSION, WORKLOADS, Step

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
INVOCATION_TIMEOUT_S = 120  # a hung invocation is killed and counted as failed
CHECK_ERRORS = (OSError, ValueError, LookupError, TypeError)


@dataclass
class Invocation:
    metric: str
    wall: float
    cpu: float
    rss_mb: float
    error: Optional[str]
    spans: Optional[dict] = None


def threads() -> str:
    return str(len(os.sched_getaffinity(0)))


def program_env() -> dict[str, str]:
    """The caller's environment, with twfediag importable from the checkout
    and BLAS threads at the CPU count. Bytecode caching is left on, and in
    the checkout, as a user has it, so the warm-up's .pyc files are used."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads(), OMP_NUM_THREADS=threads())
    return env


def invoke(step: Step, wd: Path, env: dict, trace_to: Optional[Path] = None) -> Invocation:
    """Run one step and check its output; the timing covers spawn to exit."""
    for name in step.outputs:
        (wd / name).unlink(missing_ok=True)
    if trace_to is None:
        argv = [sys.executable, "-m", "twfediag.cli", *step.args]
    else:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_to), trace_to.stem, "--", *step.args]
    with open(wd / STDOUT, "wb") as out, open(wd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=wd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        lines = (wd / "stderr.txt").read_text(errors="replace").strip().splitlines()
        error = f"exit {code}: {lines[-1] if lines else ''}"
    else:
        try:
            error = step.check(wd)
        except CHECK_ERRORS as exc:
            error = f"output unreadable: {type(exc).__name__}: {exc}"
    spans = None
    if trace_to is not None and trace_to.exists():
        spans = json.loads(trace_to.read_text(encoding="utf-8"))
    return Invocation(step.metric, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, error and f"{step.metric}: {error}", spans)


def setup(workload: str, seed: int, wd: Path, env: dict) -> tuple[list[Step], list[float]]:
    """Make the inputs and warm up, SETUPS times; returns the steps and
    each set-up's duration."""
    durations = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        steps = WORKLOADS[workload](np.random.default_rng(seed), ROOT, wd)
        invoke(VERSION, wd, env)
        durations.append(time.perf_counter() - start)
    return steps, durations


def timing(values: list[float]) -> dict:
    """Median with its sample count; from 20 samples on, also the highest
    percentile that has at least 10 samples above it."""
    out = {"value": statistics.median(values), "unit": "s", "samples": len(values)}
    n = len(values)
    if n >= 20:
        out[f"p{100 * (n - 10) // n}"] = sorted(values)[n - 11]
    return out


def end_to_end(setups: list[float], rounds: list[list[Invocation]]) -> dict:
    invocations = [i for r in rounds for i in r]
    walls = defaultdict(list)
    for i in invocations:
        walls[i.metric].append(i.wall)
    ok = sum(i.error is None for i in invocations) / len(invocations)
    return {
        "setup_s": timing(setups),
        **{metric: timing(values) for metric, values in walls.items()},
        "session_s": timing([sum(i.wall for i in r) for r in rounds]),
        "peak_rss_mb": {"value": max(i.rss_mb for i in invocations), "unit": "MB"},
        "ok_share": {"value": ok, "unit": "ratio"},
        "failed_share": {"value": 1.0 - ok, "unit": "ratio"},
    }


def per_layer(plain: list[Invocation], traced: list[Invocation], units: dict[str, str]) -> dict:
    """Per-layer totals over one traced round; process.cpu_s comes from the
    untraced round, trace.overhead_s compares the two."""
    incl, own, counts = defaultdict(float), defaultdict(float), defaultdict(float)
    unattributed = 0.0
    for inv in traced:
        if inv.spans is None:
            continue
        spans = inv.spans["spans"]
        for (name, start, end, *_), self_s in zip(spans, self_times(spans)):
            incl[name] += end - start
            own[name] += self_s
            if name in ("import", "cli.main"):
                unattributed -= end - start
        for key, amount in inv.spans["counts"].items():
            counts[key] += amount
        unattributed += inv.wall
    attempted = counts["robustness.points"] + counts["robustness.skipped"]
    values = {
        "import.s": incl["import"],
        "import.modules": counts["import.modules"],
        "cli.self_s": own["cli.main"],
        "panel.load_s": incl["panel.load_panel_csv"],
        "panel.rows_parsed": counts["panel.rows_parsed"],
        "panel.apply_schedule_s": incl["panel.apply_adoption_schedule"],
        "panel.validate_s": incl["panel.validate"],
        "panel.write_s": incl["panel.write_panel_csv"],
        "panel.restrict_s": incl["panel.PanelDataset.restrict"],
        "panel.restrict_calls": counts["panel.PanelDataset.restrict.calls"],
        "panel.observations_built": counts["panel.observations_built"],
        "synth.generate_s": incl["synth.generate_panel"],
        "twfe.fit_s": incl["twfe.fit_twfe"],
        "twfe.fit_self_s": own["twfe.fit_twfe"],
        "twfe.fit_calls": counts["twfe.fit_twfe.calls"],
        "lsq.solve_s": incl["lsq.solve_least_squares"],
        "lsq.solve_calls": counts["lsq.solve_least_squares.calls"],
        "lsq.covariance_s": incl["lsq.classical_covariance"] + incl["lsq.cluster_robust_covariance"],
        "lsq.tdist_s": incl["lsq.t_test"] + incl["lsq.t_critical"],
        "lsq.design_bytes": counts["lsq.design_bytes"],
        "lsq.qr_flops": counts["lsq.qr_flops"],
        "diagnostics.weight_report_s": incl["diagnostics.weight_report"],
        "diagnostics.weight_grid_s": incl["diagnostics.weight_grid"],
        "diagnostics.homogeneity_s": incl["diagnostics.homogeneity_test"],
        "diagnostics.scatter_s": incl["diagnostics.residual_scatter"],
        "robustness.self_s": sum(own[f"robustness.{f}"] for f in
                                 ("sweep_end_year", "sweep_post_horizon", "leave_one_unit_out")),
        "robustness.points": counts["robustness.points"],
        "robustness.skipped": counts["robustness.skipped"],
        "robustness.useful_ratio": counts["robustness.points"] / attempted if attempted else 0.0,
        "process.cpu_s": sum(i.cpu for i in plain),
        "process.unattributed_s": unattributed,
        "trace.overhead_s": sum(i.wall for i in traced) - sum(i.wall for i in plain),
    }
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def invocation_profile(inv: Invocation) -> dict:
    """Wall, import share and the span with the largest self time, for one
    traced invocation."""
    spans = inv.spans["spans"]
    own = defaultdict(float)
    for (name, *_), self_s in zip(spans, self_times(spans)):
        own[name] += self_s
    imported = sum(end - start for name, start, end, *_ in spans if name == "import")
    inner = {k: v for k, v in own.items() if k not in ("import", "cli.main")}
    return {
        "metric": inv.metric,
        "wall_s": inv.wall,
        "import_share": imported / inv.wall,
        "largest_self": max(inner, key=inner.get) if inner else "cli.main",
    }


def environment(seed: int) -> dict:
    """Machine, library versions, thread settings, seed and program commit."""
    cache = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                cache[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    model = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache": cache,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "program_env": {"OPENBLAS_NUM_THREADS": threads(), "OMP_NUM_THREADS": threads()},
        "seed": seed,
        "commit": commit,
    }


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run in a fresh work directory under the checkout."""
    env = program_env()
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    wd = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    try:
        steps, setups = setup(workload, seed, wd, env)
        if trace:
            plain = [invoke(s, wd, env) for s in steps]
            traced = [invoke(s, wd, env, wd / f"{workload}-{k}.json") for k, s in enumerate(steps)]
            rounds = [plain, traced]
            units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
            metrics = per_layer(plain, traced, units)
            detail = {"invocations": [invocation_profile(i) for i in traced if i.spans]}
        else:
            rounds, start = [], time.perf_counter()
            while True:
                began = time.perf_counter()
                rounds.append([invoke(s, wd, env) for s in steps])
                now = time.perf_counter()
                if now - start + (now - began) > seconds:
                    break
            metrics = end_to_end(setups, rounds)
            detail = {"rounds": len(rounds)}
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    errors = [i.error for r in rounds for i in r if i.error]
    return {
        "workload": workload,
        "trace": int(trace),
        "attempted": sum(len(r) for r in rounds),
        "failed": len(errors),
        "errors": errors[:10],
        "metrics": metrics,
        **detail,
    }


def result_line(result: dict, names: list[str]) -> str:
    """The result, printed as the last stdout line: the named metrics as
    value and unit, plus the invocation counts."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n]["value"], "unit": result["metrics"][n]["unit"]}
                    for n in names},
    })


def report(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced; one line per metric. Exit 1 if
    any output check failed."""
    print(json.dumps({"environment": environment(seed)}, indent=1))
    failed = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run(workload, seed, seconds, trace)
            failed += result["failed"]
            print(f"\n== {workload} ({'traced' if trace else 'untraced'}, "
                  f"{result['attempted']} invocations, {result['failed']} failed)")
            for name, m in result["metrics"].items():
                extra = "".join(f" {k}={v}" for k, v in m.items() if k not in ("value", "unit"))
                print(f"{name:30s} {m['value']:.6g} {m['unit']}{extra}")
            for line in result["errors"]:
                print(f"FAILED {line}")
            for inv in result.get("invocations", ()):
                print(f"  {inv['metric']:18s} wall {inv['wall_s']:.3f} s  import share "
                      f"{inv['import_share']:.2f}  largest self time: {inv['largest_self']}")
    return 1 if failed else 0


def main(argv: Optional[list[str]] = None) -> int:
    if not (ROOT / "src" / "twfediag" / "cli.py").is_file():
        print(f"error: no twfediag sources under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced and traced and print every metric")
    args = parser.parse_args(argv)
    if args.report:
        return report(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required without --report")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({**result, "environment": environment(args.seed)}), file=sys.stderr)
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    print(result_line(result, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
