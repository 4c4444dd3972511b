"""Benchmark of the nomsos library API: `derive-par`, `prove-binders` and
`check-specs`.

One client drives the API in a closed loop from this single-threaded
process: the next operation starts when the previous one returns. Every
output is checked. Run from the repository root:

    python3 perfbench/run.py --workload prove-binders --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # one row per workload

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced run (see tracing.py), and its spans are written to perfbench/out/.

On a shared 2-vCPU virtual machine (Python 3.11) the speed of the
interpreter drifts with what other tenants run: the same operation takes
between 1 and 1.9 times its fastest time, in stretches of seconds to
minutes, so that whole runs can go by at the slow level. Raw wall times
therefore mostly measure the machine. The benchmark times a fixed piece of
pure-Python work, `reference()`, between every two operations, and scales
each operation's wall time by REFERENCE_S over the mean of the reference
times just before and after it: times are reported in seconds at the speed
at which the reference takes REFERENCE_S (its time on that machine when it
runs fast). The reference does not use nomsos, so a change to the program
moves these times as it moves wall times. The latency of an operation is
the median of these scaled times over its class in the run: a derive-par
state occurs once per run, so its own time is used; a prove-binders
(template, k) pair or a check-specs text recurs in every round.
Throughput and percentiles are taken over these latencies; the raw wall
throughput is shown in the row as wall_ops_per_s. Set-up is timed in fresh
interpreters, half before and half after the timed phase, each scaled by
the reference times around it, and the median is reported.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Set-up is measured this many times, each in a fresh interpreter.
SETUP_REPEATS = 8

# Seconds that reference() takes when the machine above runs fast.
REFERENCE_S = 3.2e-3

SETUP_PROBE = (
    "import sys; sys.path[:0] = {paths!r}; import workloads; "
    "workloads.load({name!r}, {seed!r}); print('ready', flush=True)"
)


@dataclass(frozen=True)
class _Node:
    op: int
    args: tuple


def _tree(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node(0, (i % 5,))
    return _Node(1 + i % 2, (_tree(depth - 1, 3 * i + 1), _tree(depth - 1, 7 * i + 2)))


def _leaves(node: _Node, memo: dict) -> int:
    if node not in memo:
        memo[node] = 1 if node.op == 0 else sum(_leaves(a, memo) for a in node.args)
    return memo[node]


def reference() -> float:
    """Seconds that a fixed piece of work takes now. Like the program, it
    builds and hashes frozen dataclasses, memoises in a dict and sorts
    strings, so other tenants slow it by about as much as they slow the
    program; it hashes only ints, so its work does not depend on
    PYTHONHASHSEED."""
    t0 = time.perf_counter()
    for i in range(4):
        memo: dict = {}
        _leaves(_tree(7, i), memo)
        sorted(f"{n.op}:{n.args[0] if n.op == 0 else len(memo)}" for n in memo)
    return time.perf_counter() - t0


def scaled(t: float, before: float, after: float) -> float:
    """Wall time `t` in seconds at the reference speed."""
    return t * REFERENCE_S / ((before + after) / 2)


def measure_setup(name: str, seed: int, repeats: int) -> list[float]:
    """Times from interpreter start to ready-to-run: `import nomsos`,
    parsing the spec(s), generating and parsing the inputs."""
    code = SETUP_PROBE.format(paths=[str(SRC), str(HERE)], name=name, seed=seed)
    times = []
    for _ in range(repeats):
        before = reference()
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            t = time.perf_counter() - t0
            p.stdout.read()
        if p.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {p.returncode}")
        times.append(scaled(t, before, reference()))
    return times


def timed(w, item):
    """Run one operation; returns (seconds, output or None, ok)."""
    t0 = time.perf_counter()
    try:
        out = w.run(item)
    except Exception:  # a raising operation counts as failed
        return time.perf_counter() - t0, None, False
    t = time.perf_counter() - t0
    return t, out, w.check(item, out)


def run_untraced(w, seconds: float) -> dict:
    """Whole rounds until the next one would end after `seconds`."""
    by_kind: dict[str, list[float]] = defaultdict(list)
    kinds: list[str] = []
    wall = 0.0
    failed = 0
    start = time.perf_counter()
    rounds = 0
    before = reference()
    while True:
        for item in w.rounds[rounds % len(w.rounds)]:
            t, _, ok = timed(w, item)
            after = reference()
            by_kind[item.kind].append(scaled(t, before, after))
            before = after
            wall += t
            kinds.append(item.kind)
            failed += not ok
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    typical = {kind: statistics.median(ts) for kind, ts in by_kind.items()}
    latencies = [typical[kind] for kind in kinds]
    n = len(latencies)
    return {
        "attempted": n,
        "failed": failed,
        "ops_per_s": (n - failed) / sum(latencies),
        "wall_ops_per_s": (n - failed) / wall,
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10)[8],
    }


def run_traced(w, tracer, seconds: float) -> dict:
    """Alternate an untraced and a traced pass over the same operations
    until the next pair would end after `seconds`."""
    ops = [item for r in w.rounds[: w.trace_rounds] for item in r]
    plain_s = traced_s = 0.0
    failed = pairs = 0
    outputs: list[str] = []
    start = time.perf_counter()
    while True:
        for item in ops:
            t, _, ok = timed(w, item)
            plain_s += t
            failed += not ok
        for i, item in enumerate(ops):
            tracer.begin(pairs * len(ops) + i)
            try:
                t, out, ok = timed(w, item)
            finally:
                tracer.finish()
            traced_s += t
            failed += not ok
            if pairs == 0:
                outputs.append(w.output_text(out) if out is not None else "raised")
        if pairs == 0:
            counts = json.dumps(tracer.counts(), sort_keys=True)  # of one traced pass
        tracer.fold()
        pairs += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / pairs > seconds:
            break
    metrics = tracer.metrics(pairs * len(ops))
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    print(
        f"trace {w.name}: ops={len(ops)} pairs={pairs} spans={len(tracer.kept[0])} "
        f"inputs_sha={workloads.sha(chr(10).join(i.text for i in ops))} "
        f"outputs_sha={workloads.sha(chr(10).join(outputs))} counts_sha={workloads.sha(counts)}"
    )
    return {"attempted": 2 * pairs * len(ops), "failed": failed, "metrics": metrics}


def result_line(attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def settle() -> None:
    """The inputs stay alive for the whole run; freeze them so that the
    collector does not rescan them during every operation, as it would not
    in a CLI call that holds only its own inputs."""
    gc.collect()
    gc.freeze()


def bench(name: str, seed: int, seconds: float, trace: bool) -> int:
    if trace:
        from tracing import PER_LAYER, SETUP_OP, Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin(SETUP_OP)
        w = workloads.load(name, seed)
        tracer.finish()
        settle()
        r = run_traced(w, tracer, seconds)
        tracer.uninstall()
        tracer.write(HERE / "out" / f"spans-{name}.csv")
        units = {m: u for m, u, _, _ in PER_LAYER}
        metrics = {m: (v, units[m]) for m, v in r["metrics"].items()}
        print(result_line(r["attempted"], r["failed"], metrics))
        return 0

    setup = measure_setup(name, seed, SETUP_REPEATS // 2)
    w = workloads.load(name, seed)
    settle()
    r = run_untraced(w, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += measure_setup(name, seed, SETUP_REPEATS - SETUP_REPEATS // 2)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (r["ops_per_s"], "1/s"),
        "latency_p50_s": (r["latency_p50_s"], "s"),
        "latency_p90_s": (r["latency_p90_s"], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    row = {
        "failed_frac": (r["failed"] / r["attempted"], "frac"),
        **metrics,
        "wall_ops_per_s": (r["wall_ops_per_s"], "1/s"),
    }
    print(f"{name:14s} n={r['attempted']:<5d} " + "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in row.items()))
    print(result_line(r["attempted"], r["failed"], metrics))
    return 0


def bench_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh interpreter; one row per workload."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
        cmd += ["--seconds", str(seconds), "--trace", str(int(trace))]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = p.stdout.splitlines()
        if p.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {p.returncode}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[-2:] if trace else lines[-2:-1]))
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "nomsos" / "__init__.py").is_file():
        print(f"perfbench: no nomsos sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return bench_all(args.seed, args.seconds, bool(args.trace))
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
