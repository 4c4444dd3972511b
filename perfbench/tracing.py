"""Boundary tracing of the nomsos layers, installed from outside the package.

Every layer is a module of `src/nomsos/`. The tracer replaces, in each
module's namespace, the names through which that module calls a function of
the package: the names it imported from other layers (`from .alpha import
normalize` binds `nomsos.engine.normalize`), and its own public functions
(which is how lazy imports and the benchmark itself reach them). Methods of
`Permutation` are wrapped on the class. A call opens a span only when it
crosses from one layer into another, so recursion inside a layer costs a
check but records nothing; the checkers of `formats` are the exception and
get a span even when `check_all` calls them.

Spans (name, start, end, parent, operation id) are kept in flat arrays and
folded into totals between passes; the first batch is written out when the
run ends. A span's self time is its
duration minus the durations of its child spans, so the self times of one
operation add up to the duration of its root span.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array
from collections import Counter

LAYERS = (
    "atoms",
    "terms",
    "alpha",
    "freshness",
    "matching",
    "engine",
    "spec",
    "formats",
    "parser",
    "printer",
)
PERM_METHODS = (
    "__call__",
    "compose",
    "inverse",
    "conjugate",
    "support",
    "of",
    "identity",
    "swap",
    "from_swaps",
)
# Spans recorded even when the caller is in the same layer.
NESTED = frozenset(
    {"formats.check_equivariant", "formats.check_stratification", "formats.check_acr"}
)
# Spans whose result is recorded as a yes/no outcome.
OUTCOME = {"matching.match_term": bool, "freshness.entails": bool}
# Spans whose text argument is counted in bytes.
TEXT_ARG = {"parser.parse_spec": 0, "parser.parse_term_str": 1}

SETUP_OP = -1

# Per-layer metrics: (name, unit, better, the end-to-end metric and workload
# it should move). Times and counts are per traced operation.
PER_LAYER = (
    ("engine.self_s", "s/op", "lower", "ops_per_s, latency_p50_s on derive-par and prove-binders; none on check-specs"),
    ("engine.derivations", "nodes/op", "lower", "ops_per_s on derive-par and prove-binders (proof-tree nodes the engine built)"),
    ("engine.replay_s", "s/op", "lower", "latency_p50_s on prove-binders only"),
    ("matching.match_term.calls", "calls/op", "lower", "ops_per_s, latency_p50_s on derive-par and prove-binders; none on check-specs"),
    ("matching.self_s", "s/op", "lower", "ops_per_s, latency_p50_s on derive-par and prove-binders; none on check-specs"),
    ("matching.hit_frac", "frac", "higher", "ops_per_s on derive-par and prove-binders"),
    ("alpha.self_s", "s/op", "lower", "latency_p90_s on prove-binders first, derive-par second"),
    ("alpha.normalize.calls", "calls/op", "lower", "latency_p90_s on prove-binders first, derive-par second"),
    ("alpha.nt_support.calls", "calls/op", "lower", "latency_p90_s on prove-binders first, derive-par second"),
    ("alpha.nt_fresh.calls", "calls/op", "lower", "latency_p90_s on prove-binders first, derive-par second"),
    ("terms.self_s", "s/op", "lower", "ops_per_s on derive-par and prove-binders, most on derive-par"),
    ("terms.calls", "calls/op", "lower", "ops_per_s on derive-par and prove-binders, most on derive-par"),
    ("atoms.self_s", "s/op", "lower", "latency_p50_s on prove-binders"),
    ("atoms.perm.calls", "calls/op", "lower", "latency_p50_s on prove-binders"),
    ("atoms.fresh_atoms.calls", "calls/op", "lower", "latency_p50_s on prove-binders"),
    ("printer.self_s", "s/op", "lower", "latency_p90_s on derive-par"),
    ("printer.term_str.calls", "calls/op", "lower", "latency_p90_s on derive-par"),
    ("freshness.self_s", "s/op", "lower", "latency_p50_s, ops_per_s on check-specs only"),
    ("freshness.entails.calls", "calls/op", "lower", "latency_p50_s, ops_per_s on check-specs only"),
    ("freshness.entails_true_frac", "frac", "higher", "latency_p50_s, ops_per_s on check-specs only"),
    ("freshness.nf.calls", "calls/op", "lower", "latency_p50_s, ops_per_s on check-specs only"),
    ("formats.check_equivariant_s", "s/op", "lower", "latency_p50_s, ops_per_s on check-specs only"),
    ("formats.check_stratification_s", "s/op", "lower", "latency_p50_s, ops_per_s on check-specs only"),
    ("formats.check_acr_s", "s/op", "lower", "latency_p50_s, ops_per_s on check-specs only"),
    ("formats.self_s", "s/op", "lower", "latency_p50_s, ops_per_s on check-specs only"),
    ("spec.validate_spec_s", "s/op", "lower", "latency_p50_s, ops_per_s on check-specs only"),
    ("parser.self_s", "s/op", "lower", "latency_p50_s on check-specs; setup_s on every workload"),
    ("parser.bytes_per_s", "B/s", "higher", "latency_p50_s on check-specs; setup_s on every workload"),
    ("trace.overhead_frac", "frac", "lower", "none: ops_per_s untraced / ops_per_s traced - 1"),
)


class Tracer:
    def __init__(self) -> None:
        self.op: int | None = None  # current operation id; None: not tracing
        self.layers = ["bench"]  # layer of each open span
        self.open_spans = [-1]  # index of each open span
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.counters: Counter[str] = Counter()  # counts made outside spans
        self.totals: dict[str, Counter] = {
            k: Counter() for k in ("layer_ns", "span_ns", "calls", "hits", "bytes")
        }
        self.kept: tuple | None = None  # the first batch of spans, for write()
        self._saved: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.ops = array("i")
        self.outcome: dict[int, bool] = {}
        self.nbytes: dict[int, int] = {}

    # --- spans -----------------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.open_spans[-1])
        self.ops.append(self.op)  # type: ignore[arg-type]
        self.end.append(0)
        self.layers.append(layer)
        self.open_spans.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.open_spans.pop()
        self.layers.pop()

    def begin(self, op: int) -> None:
        """Start recording operation `op` under a root span of its own."""
        self.op = op
        self._root = self._open("bench.op" if op != SETUP_OP else "bench.setup", "bench")

    def finish(self) -> None:
        self._close(self._root)
        self.op = None

    def _wrap(self, fn, name: str, layer: str):
        tr = self
        nested = name in NESTED
        outcome = OUTCOME.get(name)
        text_arg = TEXT_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tr.op is None or (tr.layers[-1] == layer and not nested):
                return fn(*args, **kwargs)
            i = tr._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._close(i)
            if outcome is not None:
                tr.outcome[i] = outcome(result)
            if text_arg is not None:
                tr.nbytes[i] = len(args[text_arg].encode("utf-8"))
            return result

        return traced

    # --- installing the wrappers -------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {name: importlib.import_module(f"nomsos.{name}") for name in LAYERS}
        wrappers: dict = {}
        for mod_name, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if not isinstance(fn, types.FunctionType):
                    continue
                parts = fn.__module__.split(".")
                if len(parts) != 2 or parts[0] != "nomsos" or parts[1] not in mods:
                    continue
                layer = parts[1]
                if layer == mod_name and attr.startswith("_"):
                    continue
                w = wrappers.get(fn)
                if w is None:
                    w = wrappers[fn] = self._wrap(fn, f"{layer}.{fn.__name__}", layer)
                self._patch(mod, attr, w)

        perm = mods["atoms"].Permutation
        for meth in PERM_METHODS:
            raw = perm.__dict__[meth]
            if isinstance(raw, staticmethod):
                w = staticmethod(self._wrap(raw.__func__, f"atoms.perm.{meth}", "atoms"))
            else:
                w = self._wrap(raw, f"atoms.perm.{meth}", "atoms")
            self._patch(perm, meth, w)

        engine = mods["engine"]
        tree_cls = engine.ProofTree
        tr = self

        def counted_tree(*args, **kwargs):
            if tr.op is not None:
                tr.counters["engine.derivations"] += 1
            return tree_cls(*args, **kwargs)

        self._patch(engine, "ProofTree", counted_tree)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # --- results -------------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time of every span of the current batch, in nanoseconds."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def fold(self) -> None:
        """Add the current batch of spans to the totals and start a new one.
        Call only between operations. The first batch is kept for write()."""
        t = self.totals
        own = self.self_times()
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            dur = self.end[i] - self.start[i]
            if i in self.nbytes:
                t["bytes"]["parser"] += self.nbytes[i]
                t["bytes"]["parser_ns"] += dur
            if self.ops[i] == SETUP_OP:
                continue
            layer = name.partition(".")[0]
            t["layer_ns"][layer] += own[i]
            t["span_ns"][name] += dur
            t["calls"][name] += 1
            t["calls"][layer] += 1
            if name.startswith("atoms.perm."):
                t["calls"]["atoms.perm"] += 1
            if i in self.outcome:
                t["hits"][name] += self.outcome[i]
        if self.kept is None:
            self.kept = (self.name, self.start, self.end, self.parent, self.ops)
        self._reset()

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-operation layer metrics over every traced operation. Set-up
        spans count only towards the parser's throughput."""
        self.fold()
        layer_ns, span_ns, calls, hits, nbytes = (
            self.totals[k] for k in ("layer_ns", "span_ns", "calls", "hits", "bytes")
        )

        def share(name: str) -> float:
            return hits[name] / calls[name] if calls[name] else 0.0

        n = max(n_ops, 1)
        out = {f"{layer}.self_s": layer_ns[layer] / 1e9 / n for layer in LAYERS}
        out.update(
            {
                "engine.derivations": self.counters["engine.derivations"] / n,
                "engine.replay_s": span_ns["engine.replay"] / 1e9 / n,
                "matching.match_term.calls": calls["matching.match_term"] / n,
                "matching.hit_frac": share("matching.match_term"),
                "alpha.normalize.calls": calls["alpha.normalize"] / n,
                "alpha.nt_support.calls": calls["alpha.nt_support"] / n,
                "alpha.nt_fresh.calls": calls["alpha.nt_fresh"] / n,
                "terms.calls": calls["terms"] / n,
                "atoms.perm.calls": calls["atoms.perm"] / n,
                "atoms.fresh_atoms.calls": calls["atoms.fresh_atoms"] / n,
                "printer.term_str.calls": calls["printer.term_str"] / n,
                "freshness.entails.calls": calls["freshness.entails"] / n,
                "freshness.entails_true_frac": share("freshness.entails"),
                "freshness.nf.calls": calls["freshness.nf"] / n,
                "formats.check_equivariant_s": span_ns["formats.check_equivariant"] / 1e9 / n,
                "formats.check_stratification_s": span_ns["formats.check_stratification"] / 1e9 / n,
                "formats.check_acr_s": span_ns["formats.check_acr"] / 1e9 / n,
                "spec.validate_spec_s": span_ns["spec.validate_spec"] / 1e9 / n,
                "parser.bytes_per_s": (
                    nbytes["parser"] / (nbytes["parser_ns"] / 1e9) if nbytes["parser_ns"] else 0.0
                ),
            }
        )
        return {name: out[name] for name, *_ in PER_LAYER if name in out}

    def counts(self) -> dict[str, int]:
        """Exact call counts by span name, for the determinism check."""
        self.fold()
        c = Counter({k: v for k, v in self.totals["calls"].items() if "." in k})
        c.update(self.counters)
        return dict(sorted(c.items()))

    def write(self, path) -> None:
        """Write the first batch of spans as CSV, times in ns from its first span."""
        self.fold()
        name, start, end, parent, ops = self.kept
        t0 = start[0] if start else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write("span,parent,op,name,start_ns,end_ns\n")
            for i, nid in enumerate(name):
                f.write(f"{i},{parent[i]},{ops[i]},{self.names[nid]},{start[i] - t0},{end[i] - t0}\n")
