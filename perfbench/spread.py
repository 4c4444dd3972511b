"""Run every workload with several seeds, one fresh interpreter per run, and
report for each end-to-end metric its median, quartiles and spread (the
distance between the quartiles as a share of the median). Run from the
repository root:

    python3 perfbench/spread.py --runs 10                  # the workloads of BENCHMARK.json
    python3 perfbench/spread.py --runs 5 --workload derive-par --first-seed 100
    python3 perfbench/spread.py --runs 10 --out perfbench/baseline.json

With `--trace`, each workload instead gets two traced runs with the same
seed under different hash seeds; the script checks that their inputs,
outputs and per-layer counts are identical and reports the per-layer metrics.

With `--out`, the runs are written out with the machine they ran on and the
map from each per-layer metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int = 0, hashseed: str = "random"):
    """The result object of one run, and its trace line (traced runs only)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True)
    lines = p.stdout.splitlines()
    trace_line = next((line for line in lines if line.startswith("trace ")), "")
    return json.loads(lines[-1]), trace_line


def traced(workload: str, seed: int, seconds: int) -> dict:
    (first, line0), (_, line1) = (one_run(workload, seed, seconds, 1, h) for h in ("0", "1"))
    same = line0.split()[-3:] == line1.split()[-3:]
    print(f"{workload}: {line0.split(': ', 1)[1]}")
    print(f"  second run under another hash seed: {'identical' if same else 'DIFFERENT'} inputs, outputs and counts")
    for name, m in first["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    return {"seed": seed, "repeats_exactly": same, "trace": line0, "failed": first["failed"],
            "metrics": {k: m["value"] for k, m in first["metrics"].items()}}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=["derive-par", "prove-binders", "check-specs"])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg(),
    }
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {"machine": machine, "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        if args.trace:
            report["workloads"][workload] = traced(workload, args.first_seed, args.seconds)
            continue
        runs = [one_run(workload, args.first_seed + i, args.seconds)[0] for i in range(args.runs)]
        failed = sum(r["failed"] for r in runs)
        attempted = [r["attempted"] for r in runs]
        print(f"{workload}: {len(runs)} runs, operations per run {min(attempted)}-{max(attempted)}, failed {failed}")
        stats = {}
        for name, bound in bounds.items():
            s = summary([r["metrics"][name]["value"] for r in runs])
            stats[name] = s
            flag = "ok" if s["spread"] < bound / 3 else ("within bound" if s["spread"] <= bound else "TOO WIDE")
            print(f"  {name:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.3f} (bound {bound}) {flag}")
        report["workloads"][workload] = {
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "operations_per_run": attempted,
            "failed": failed,
            "metrics": stats,
        }
    if args.out:
        sys.path.insert(0, str(HERE))
        from tracing import PER_LAYER

        report["per_layer_moves"] = {name: moves for name, _, _, moves in PER_LAYER}
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
