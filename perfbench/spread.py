"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 1-10 [--workloads paper_cli,sweeps] [--out FILE]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
and reports per metric the median of the runs' values and the distance
between their first and third quartiles (``statistics.quantiles(n=4)``)
as a share of that median, next to the metric's bound. Exits 1 if a run
fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", help="also write the summary as JSON to this file")
    args = parser.parse_args()
    summary, ok = {}, True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            median = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][m["name"]] = {"median": median, "iqr_share": spread, "bound": m["bound"],
                                            "values": v}
            print(f"{workload:13s} {m['name']:12s} median {median:10.4f} {m['unit']:5s} "
                  f"iqr/median {spread:.4f} (bound {m['bound']})", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"seeds": args.seeds, "workloads": summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
