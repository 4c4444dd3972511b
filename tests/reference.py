"""A plain reference search for the derivation engine: the engine's pass,
stale-read and depth-cut rules and nothing else. Its table is keyed by the
literal subgoal (state, extra atoms), with the engine's atom pool; every
rule is tried on every subgoal in spec order, matching tries every binder
candidate, and every freshness assertion is built per candidate and decided
with `nt_fresh`. No rule plans, head index, orbit keys, shared records,
unobserved binders or delta joins: the engine keyed by the literal subgoal
must return exactly what this search returns, trees included. It keeps
built instances and pools, which the oracle test builds many times over.

`LeastFixedPoint` is ground truth for `derive` on a decreasing spec: the
same rules over one atom universe, with no depth cut."""

from functools import cache
from types import SimpleNamespace

from nomsos import Budget, Derivation, Enumeration, MetaAtom, ProofTree, ProveOutcome, Transition
from nomsos import normalize, nt_fresh, nt_support, term_str
from nomsos.matching import AtomPool, MatchState, bind_metas
from nomsos.terms import meta_atoms, resolve

from interpreted import instance, match_term

_instances: dict = {}
_support = cache(nt_support)


def _instance(pattern, metas, subst):
    key = (pattern, frozenset(metas.items()), frozenset(subst.items()))
    if key not in _instances:
        _instances[key] = instance(pattern, metas, subst)
    return _instances[key]


@cache
def _schematic(patterns: tuple, atoms: tuple = ()) -> tuple[MetaAtom, ...]:
    metas = set(atoms).union(*map(meta_atoms, patterns))
    return tuple(sorted((m for m in metas if isinstance(m, MetaAtom)), key=lambda m: m.name))


class ReferenceSearch:
    def __init__(self, spec, budget: Budget):
        self.spec = spec
        self.budget = budget
        self.table: dict[tuple, SimpleNamespace] = {}
        self.passes = 0
        self.truncated = self.changed = self.stale = False

    def run(self, state, extra) -> dict:
        for _ in range(max(self.budget.depth, 1)):
            self.passes += 1
            self.changed = self.stale = False
            residuals = self.solve(state, extra, self.budget.depth)
            if not (self.changed and self.stale):
                return residuals
        self.truncated = True
        return residuals

    def solve(self, state, extra, depth) -> dict:
        # Each residual with its first tree, the last pass that reached the
        # entry, and whether that pass has solved it.
        new = SimpleNamespace(residuals={}, reached=0, settled=False)
        entry = self.table.setdefault((state, extra), new)
        if entry.reached == self.passes:
            if not entry.settled:
                self.stale = True
        elif depth <= 0:
            self.truncated = self.stale = True
        else:
            entry.reached = self.passes
            entry.settled = False
            pool = AtomPool(tuple(sorted(_support(state) | extra)), self.budget.fresh)
            for rule in self.spec.rules:
                for st in match_term(rule.conclusion.source, state, MatchState(), pool):
                    self.join(rule, 0, st, (), (state, extra, pool, depth, entry))
            entry.settled = True
        return entry.residuals

    def join(self, rule, i, st, children, at) -> None:
        """Join the premises from the i-th on, then conclude."""
        state, extra, pool, depth, entry = at
        if i < len(rule.premises):
            premise = rule.premises[i]
            for st1 in bind_metas(_schematic((premise.source,)), st, pool):
                source = _instance(premise.source, st1.metas, st1.subst)
                below = self.solve(source, extra.union(st1.metas.values()), depth - 1)
                for residual, tree in list(below.items()):
                    for st2 in match_term(premise.target, residual, st1, pool):
                        self.join(rule, i + 1, st2, children + (tree,), at)
            return
        if rule.excluded_label(st.subst) is not None:
            return
        terms = (rule.conclusion.target, *(ra.term for ra in rule.env))
        for st1 in bind_metas(_schematic(terms, tuple(ra.atom for ra in rule.env)), st, pool):
            discharged = []
            for ra in rule.env:
                atom = resolve(ra.atom, st1.metas)
                t = _instance(ra.term, st1.metas, st1.subst)
                if not nt_fresh(atom, t):
                    break
                discharged.append((atom, t))
            else:
                residual = _instance(rule.conclusion.target, st1.metas, st1.subst)
                if residual not in entry.residuals:
                    atoms = tuple(sorted(st1.metas.items()))
                    subst = tuple(sorted(st1.subst.items(), key=lambda kv: kv[0].name))
                    transition = Transition(state, residual)
                    entry.residuals[residual] = ProofTree(
                        rule.name, atoms, subst, transition, children, tuple(discharged)
                    )
                    self.changed = True


class LeastFixedPoint(ReferenceSearch):
    """The least set of transitions closed under the rules, over one atom
    universe: free(root) plus `Budget.fresh` fresh atoms per sort, the pool of
    every subgoal. The table is keyed by the state alone, a cycle reads the
    entry as it stands, and passes run, with no depth cut, until one adds
    nothing. It ends only where the subgoal states are finite, as on a spec
    whose rules decrease from conclusion to premises."""

    def run(self, state, extra=frozenset()) -> dict:
        self.pool = AtomPool(tuple(sorted(_support(state))), self.budget.fresh)
        self.changed = True
        while self.changed:
            self.passes += 1
            self.changed = False
            residuals = self.solve(state, extra, 0)
        return residuals

    def solve(self, state, extra, depth) -> dict:
        entry = self.table.setdefault(state, SimpleNamespace(residuals={}, reached=0))
        if entry.reached < self.passes:
            entry.reached = self.passes
            for rule in self.spec.rules:
                for st in match_term(rule.conclusion.source, state, MatchState(), self.pool):
                    self.join(rule, 0, st, (), (state, extra, self.pool, depth, entry))
        return entry.residuals


def enumerate_transitions(spec, state, budget: Budget = Budget()) -> Enumeration:
    s = normalize(state)
    search = ReferenceSearch(spec, budget)
    base = nt_support(s)
    derivations = [
        Derivation(Transition(s, residual), tree, tuple(sorted(nt_support(residual) - base)))
        for residual, tree in search.run(s, frozenset()).items()
    ]
    derivations.sort(key=lambda d: term_str(d.transition.residual))
    return Enumeration(tuple(derivations), search.truncated, s)


def prove(spec, source, target, budget: Budget = Budget()) -> ProveOutcome:
    r = normalize(target)
    search = ReferenceSearch(spec, budget)
    tree = search.run(normalize(source), nt_support(r)).get(r)
    return ProveOutcome(tree, tree is None and search.truncated)
