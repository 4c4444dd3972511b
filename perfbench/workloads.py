"""The three benchmark workloads: input generation from a seed, the timed
operation, and the check of each operation's output.

Every workload yields its operations in *rounds*. A round is a fixed mix of
inputs (every cost band, every (template, k) pair, every spec text), so that
runs with different seeds measure the same mix in another order and, for
derive-par and prove-binders, with other concrete inputs. The benchmark only
ever stops between rounds.

The workloads import `nomsos` when they are constructed, so that the import
is part of the measured set-up time; `src/` must be on `sys.path` by then.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = ROOT / "src" / "nomsos" / "corpus"
EXPECTED = HERE / "expected.json"


@dataclass(frozen=True)
class Item:
    """One operation's input: its text, its parsed arguments, what the check
    compares the output with, and its class. Operations of one class do the
    same work: one derive-par state, one prove-binders (template, k) pair
    under any renaming, one check-specs text."""

    text: str
    args: tuple
    expect: object
    kind: str


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def load_pi():
    """pi.spec, parsed through the parser layer (traced when tracing)."""
    from nomsos import parser

    return parser.parse_spec((CORPUS / "pi.spec").read_text(encoding="utf-8"))


# --- derive-par ----------------------------------------------------------------

LEAVES = (
    "out(a,b,null)",
    "out(b,a,null)",
    "in(a,[c]null)",
    "in(b,[c]out(c,a,null))",
    "new([c]out(a,c,null))",
    "sum(out(a,b,null),in(b,[c]null))",
)
WIDTHS = (3, 4, 5, 6, 7)
STRATA = 50


def random_par(rng: random.Random, width: int) -> str:
    """A `par` composition of `width` leaves with a random binary shape."""
    if width == 1:
        return rng.choice(LEAVES)
    left = rng.randint(1, width - 1)
    return f"par({random_par(rng, left)},{random_par(rng, width - left)})"


def derivations_text(enum) -> str:
    """Printed form of an enumeration: every transition, its fresh atoms and
    its proof tree, in the engine's order."""
    from nomsos.engine import transition_str, tree_text
    from nomsos.printer import atom_str

    lines = [f"truncated={enum.truncated}"]
    for d in enum.derivations:
        fresh = ",".join(atom_str(a) for a in d.fresh_atoms)
        lines.append(f"{transition_str(d.transition)} fresh={fresh}")
        lines.append(tree_text(d.tree))
    return "\n".join(lines)


class DerivePar:
    """One operation: `enumerate_transitions(pi.spec, state)` at the default
    budget, on a state from the recorded pool.

    The pool is split into STRATA bands of equal size by the time each state
    took when it was recorded. A round takes one state from every band, each
    band read in a seeded order, so runs with different seeds have nearly
    the same cost profile, and a run sees no state twice until it has used
    the whole pool. With bands of 10 states, the median and the 90th
    percentile of a run moved by a twentieth across seeds; with bands of 50
    they moved by a tenth to a fifth."""

    name = "derive-par"
    trace_rounds = 1  # rounds that one traced pass covers

    def __init__(self, seed: int):
        from nomsos import parser

        self.spec = load_pi()
        pool = sorted(load_expected()["derive-par"], key=lambda e: (e["cost_s"], e["state"]))
        rng = random.Random(f"derive-par/{seed}")
        n = len(pool)
        bands = [pool[i * n // STRATA : (i + 1) * n // STRATA] for i in range(STRATA)]
        for band in bands:
            rng.shuffle(band)
        self.rounds = []
        for row in zip(*bands):
            items = [
                Item(
                    e["state"],
                    (parser.parse_term_str(self.spec, e["state"]),),
                    e["sha256"],
                    e["state"],
                )
                for e in row
            ]
            rng.shuffle(items)
            self.rounds.append(items)

    def run(self, item: Item):
        from nomsos import engine

        return engine.enumerate_transitions(self.spec, *item.args)

    def check(self, item: Item, out) -> bool:
        # Regression check against the output recorded at the seed commit,
        # not an independent oracle.
        return not out.truncated and sha(derivations_text(out)) == item.expect

    def output_text(self, out) -> str:
        return derivations_text(out)


# --- prove-binders -------------------------------------------------------------


def wrap(k: int, inner: str) -> str:
    """k vacuous restrictions around `inner`; `u` never occurs free in it."""
    for _ in range(k):
        inner = f"new([u]{inner})"
    return inner


# (name, provable, claim(k, A, B) -> (source, target)). A and B are the free
# atoms; the bound names u, v, w are never drawn for them.
TEMPLATES = (
    (
        "open-through",
        True,
        lambda k, A, B: (
            wrap(k, f"new([w]out({A},w,null))"),
            f"(boutA({A},{B}), {wrap(k, 'null')})",
        ),
    ),
    (
        "close",
        True,
        lambda k, A, B: (
            f"par({wrap(k, f'new([w]out({A},w,null))')}, in({A},[v]out(v,v,null)))",
            f"(tauA, new([w]par({wrap(k, 'null')}, out(w,w,null))))",
        ),
    ),
    (
        "restricted-out",
        False,
        lambda k, A, B: (
            wrap(k, f"new([w]out(w,{B},null))"),
            f"(outA({A},{B}), {wrap(k, 'new([w]null)')})",
        ),
    ),
)
MAX_K = 5
FREE_NAMES = "abcdefgh"
PROVE_ROUNDS = 20


class ProveBinders:
    """One operation: `prove` of a claim, then `replay` of the returned tree.
    Each round holds every (template, k) pair once, k = 0-5, in a seeded
    order and under a seeded renaming of the free atoms."""

    name = "prove-binders"
    trace_rounds = 1

    def __init__(self, seed: int):
        from nomsos import parser

        self.spec = load_pi()
        rng = random.Random(f"prove-binders/{seed}")
        self.rounds = []
        for _ in range(PROVE_ROUNDS):
            items = []
            for name, provable, claim in TEMPLATES:
                for k in range(MAX_K + 1):
                    A, B = rng.sample(FREE_NAMES, 2)
                    src, tgt = claim(k, A, B)
                    args = (
                        parser.parse_term_str(self.spec, src),
                        parser.parse_term_str(self.spec, tgt),
                    )
                    items.append(Item(f"{name}-{k}: {src} -> {tgt}", args, provable, f"{name}-{k}"))
            rng.shuffle(items)
            self.rounds.append(items)

    def run(self, item: Item):
        from nomsos import engine

        outcome = engine.prove(self.spec, *item.args)
        errors = None if outcome.tree is None else engine.replay(self.spec, outcome.tree)
        return outcome, errors

    def check(self, item: Item, out) -> bool:
        # Oracle: the verdicts are known by hand and kept under renaming by
        # equivariance; every returned tree must replay clean.
        outcome, errors = out
        if item.expect:
            return outcome.tree is not None and errors == []
        return outcome.tree is None and not outcome.truncated

    def output_text(self, out) -> str:
        from nomsos.engine import tree_text

        outcome, errors = out
        if outcome.tree is None:
            return f"unprovable truncated={outcome.truncated}"
        return tree_text(outcome.tree) + f"\nreplay errors={errors}"


# --- check-specs ---------------------------------------------------------------

SCALED = (2, 3, 4)
_COPIED_RULES = ("SumL", "SumR", "ParL", "ParR", "ParResL", "ParResR", "CloseL", "CloseR")


def mutants(text: str) -> list[tuple[str, str]]:
    """Every variant of the spec with one `fresh`, `label` or `order` line
    dropped, named after the line's rule or line number."""
    lines = text.splitlines()
    rule = ""
    out = []
    for i, line in enumerate(lines):
        s = line.strip()
        if s.startswith("rule "):
            rule = s.split()[1]
        kind = s.split(" ", 1)[0]
        if kind in ("fresh", "label", "order"):
            where = rule if kind != "order" else f"line{i + 1}"
            body = "\n".join(lines[:i] + lines[i + 1 :]) + "\n"
            out.append((f"drop-{kind}-{where}", body))
    return out


def scaled(text: str, n: int) -> str:
    """pi.spec plus n - 1 renamed copies of the sum and par constructors, of
    their rules (close included) and of their order cases."""
    copied: list[str] = []
    in_rule = False
    for line in text.splitlines():
        s = line.strip()
        if s.startswith("rule "):
            in_rule = s.split()[1] in _COPIED_RULES
        if in_rule or s.startswith(("order sum(", "order par(")):
            copied.append(line)
        if s.startswith("conclusion"):
            in_rule = False
    extra = []
    for i in range(2, n + 1):
        extra.append(f"func sum{i} : pr * pr -> pr ;\nfunc par{i} : pr * pr -> pr ;")
        for line in copied:
            line = line.replace("sum(", f"sum{i}(").replace("par(", f"par{i}(")
            if line.startswith("rule "):
                name = line.split()[1]
                line = line.replace(f"rule {name}", f"rule {name}{i}", 1)
            extra.append(line)
    return text + "\n" + "\n".join(extra) + "\n"


def spec_texts() -> list[tuple[str, str]]:
    """All check-specs inputs as (name, text), in a fixed order."""
    pi = (CORPUS / "pi.spec").read_text(encoding="utf-8")
    broken = (CORPUS / "pi-broken.spec").read_text(encoding="utf-8")
    out = [("pi", pi), ("pi-broken", broken)]
    out += [(f"mutant-{name}", body) for name, body in mutants(pi)]
    out += [(f"scaled-{n}", scaled(pi, n)) for n in SCALED]
    return out


def reports_text(reports) -> str:
    return "\n".join(r.text() for r in reports)


CHECK_ROUNDS = 200


class CheckSpecs:
    """One operation: `check_all(parse_spec(text))`. Each round holds every
    spec text once, in a seeded order."""

    name = "check-specs"
    trace_rounds = 2

    def __init__(self, seed: int):
        import nomsos  # noqa: F401  (part of the set-up a CLI user pays)

        expected = load_expected()["check-specs"]
        items = [Item(text, (), expected[name], name) for name, text in spec_texts()]
        rng = random.Random(f"check-specs/{seed}")
        self.rounds = []
        for _ in range(CHECK_ROUNDS):
            rng.shuffle(items)
            self.rounds.append(list(items))

    def run(self, item: Item):
        from nomsos import formats, parser

        return formats.check_all(parser.parse_spec(item.text))

    def check(self, item: Item, reports) -> bool:
        name = item.kind
        verdicts = [r.passed for r in reports]
        if name.startswith("scaled-") or name == "pi":
            # Oracle: pi.spec and its renamed copies pass all four checks.
            if verdicts != [True] * 4:
                return False
        elif name == "pi-broken":
            # Oracle: only the residual alpha-conversion check fails, at ParResL.
            failing = [c.rule for c in reports[-1].checks if c.status == "fail"]
            if verdicts != [True, True, True, False] or failing != ["ParResL"]:
                return False
        # Regression check against the reports recorded at the seed commit.
        return verdicts == item.expect["passed"] and sha(reports_text(reports)) == item.expect["sha256"]

    def output_text(self, reports) -> str:
        return reports_text(reports)


WORKLOADS = {w.name: w for w in (DerivePar, ProveBinders, CheckSpecs)}


def load(name: str, seed: int):
    """Set-up: import nomsos, parse the spec(s), generate and parse inputs."""
    return WORKLOADS[name](seed)
