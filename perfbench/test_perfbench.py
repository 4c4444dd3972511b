"""Tests of the benchmark itself: its checks catch wrong outputs, its trace
adds up and separates the layers, and its inputs and counts are
deterministic. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def loaded():
    return {name: workloads.load(name, 7) for name in workloads.WORKLOADS}


def cheapest(w, n: int):
    """The n cheapest inputs of a workload's first round, in a fixed order."""
    items = sorted(w.rounds[0], key=lambda i: len(i.text))
    return items[:n]


def traced(w, items):
    tracer = Tracer()
    tracer.install()
    try:
        for i, item in enumerate(items):
            tracer.begin(i)
            try:
                out = w.run(item)
            finally:
                tracer.finish()
            assert w.check(item, out)
    finally:
        tracer.uninstall()
    return tracer


class OneRound:
    """A workload restricted to one round of chosen inputs, with an optional
    corruption of every output."""

    def __init__(self, w, items, corrupt=None):
        self.w, self.rounds, self.corrupt = w, [items], corrupt
        self.name = w.name

    def run(self, item):
        out = self.w.run(item)
        return self.corrupt(out) if self.corrupt else out

    def check(self, item, out):
        return self.w.check(item, out)


def test_clean_round_has_no_failures(loaded):
    for w in loaded.values():
        r = run.run_untraced(OneRound(w, cheapest(w, 3)), seconds=0)
        assert (r["attempted"], r["failed"]) == (3, 0)


def test_dropped_derivation_raises_failed_frac(loaded):
    from nomsos.engine import Enumeration

    w = loaded["derive-par"]
    drop = lambda e: Enumeration(e.derivations[1:], e.truncated)  # noqa: E731
    r = run.run_untraced(OneRound(w, cheapest(w, 3), drop), seconds=0)
    assert r["attempted"] == 3 and r["failed"] == 3


def test_wrong_verdicts_and_reports_fail(loaded):
    from nomsos.engine import ProveOutcome

    w = loaded["prove-binders"]
    lose_tree = lambda out: (ProveOutcome(None, False), None)  # noqa: E731
    items = [i for i in cheapest(w, 18) if i.expect][:2]
    assert run.run_untraced(OneRound(w, items, lose_tree), seconds=0)["failed"] == 2

    w = loaded["check-specs"]
    drop_last = lambda reports: reports[:-1] + [reports[0]]  # noqa: E731
    assert run.run_untraced(OneRound(w, cheapest(w, 2), drop_last), seconds=0)["failed"] == 2


def test_raising_operation_counts_as_failed(loaded):
    w = loaded["check-specs"]

    def boom(out):
        raise RuntimeError("injected")

    assert run.run_untraced(OneRound(w, cheapest(w, 2), boom), seconds=0)["failed"] == 2


def test_span_self_times_add_up_to_the_operation(loaded):
    for w in loaded.values():
        tracer = traced(w, cheapest(w, 2))
        own = tracer.self_times()
        for op in (0, 1):
            spans = [i for i, o in enumerate(tracer.ops) if o == op]
            root = [i for i in spans if tracer.parent[i] == -1]
            assert len(root) == 1
            total = tracer.end[root[0]] - tracer.start[root[0]]
            assert sum(own[i] for i in spans) == total
            assert all(own[i] >= 0 for i in spans)


def test_check_specs_never_reaches_the_engine(loaded):
    w = loaded["check-specs"]
    counts = traced(w, cheapest(w, 2)).counts()
    layers = {name.split(".")[0] for name in counts}
    assert not layers & {"engine", "matching"}
    assert {"parser", "formats", "freshness", "spec"} <= layers


def test_derive_par_never_reaches_formats_or_freshness(loaded):
    w = loaded["derive-par"]
    counts = traced(w, cheapest(w, 2)).counts()
    layers = {name.split(".")[0] for name in counts}
    assert not layers & {"formats", "freshness"}
    assert {"engine", "matching", "alpha", "terms", "atoms", "printer"} <= layers


def test_metrics_cover_every_per_layer_name(loaded):
    from tracing import PER_LAYER

    w = loaded["prove-binders"]
    metrics = traced(w, cheapest(w, 2)).metrics(2)
    assert set(metrics) | {"trace.overhead_frac"} == {m[0] for m in PER_LAYER}
    assert metrics["engine.replay_s"] > 0 and metrics["atoms.perm.calls"] > 0


def test_uninstall_restores_the_package():
    import nomsos.alpha
    import nomsos.atoms
    import nomsos.engine

    normalize = nomsos.alpha.normalize
    compose = nomsos.atoms.Permutation.__dict__["compose"]
    tracer = Tracer()
    tracer.install()
    assert nomsos.engine.normalize is not normalize
    assert nomsos.atoms.Permutation.__dict__["compose"] is not compose
    tracer.uninstall()
    assert nomsos.engine.normalize is normalize and nomsos.alpha.normalize is normalize
    assert nomsos.atoms.Permutation.__dict__["compose"] is compose


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        a, b, c = (workloads.load(name, s) for s in (3, 3, 4))
        texts = lambda w: [i.text for r in w.rounds for i in r]  # noqa: E731
        assert texts(a) == texts(b)
        assert texts(a) != texts(c)


def test_counts_and_outputs_repeat_in_process(loaded):
    for w in loaded.values():
        items = cheapest(w, 2)
        first, second = traced(w, items), traced(w, items)
        assert first.counts() == second.counts()
        outs = [[w.output_text(w.run(i)) for i in items] for _ in range(2)]
        assert outs[0] == outs[1]


def trace_line(hashseed: str, seed: int, seconds: int = 0) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "check-specs"]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True)
    lines = p.stdout.splitlines()
    assert json.loads(lines[-1])["failed"] == 0
    return next(line for line in lines if line.startswith("trace "))


def test_trace_repeats_across_hash_seeds():
    a, b = trace_line("0", 5), trace_line("1", 5, seconds=15)
    assert "pairs=1 " in a and "pairs=1 " not in b  # counts are per traced pass
    assert a.split()[-3:] == b.split()[-3:]  # inputs, outputs and counts
    c = trace_line("0", 6)
    assert a.split()[-3] != c.split()[-3]  # another seed, other inputs


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "derive-par", "--seed", "1"]
    cmd += ["--seconds", "1", "--trace", "0"]
    p = subprocess.run(cmd, cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60)
    assert p.returncode != 0
    assert "correct" not in p.stdout
