"""Transition derivation: matching rule conclusions against states,
discharging premises and freshness side conditions, and assembling proof
trees.

The search is tabled: a memo maps each (state, candidate-atom set) subgoal
to the residuals found so far, and a cycle is cut by returning the current
table entry.  Such a read is stale, as is the entry of a subgoal the depth
budget cuts off: it may still grow.  The search reruns only after a pass
that made a stale read and added a residual; a pass without stale reads
built every entry from complete ones, so another pass would find nothing
new, and the first tree found for each residual is kept.  Atom
instantiations are drawn from the free atoms of the state plus a bounded
number of fresh representatives per sort; by equivariance of the rule set,
the fresh representatives stand for their whole orbit.

Every term in the search is canonical by construction: the entry points
normalise the state (and `prove` its target) once, matching binds variables
only to canonical terms, and `normalize(p, st.metas, st.subst)` builds
premise sources, freshness terms and residuals in canonical form, using each
bound term as it is.  Matching itself moves a subject only where it flips it
under an abstraction or a delayed permutation.  `replay` does not rely on
this: it instantiates the rule from scratch and compares with
`alpha_eq`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .alpha import _free_atoms, alpha_eq, normalize, nt_fresh
from .atoms import Atom
from .matching import AtomPool, MatchState, bind_metas, match_term
from .printer import atom_str, term_str
from .spec import Formula, Rule, Spec
from .terms import (
    MetaAtom,
    RawTerm,
    Variable,
    instantiate,
    is_ground,
    meta_atoms,
    resolve,
    subst_apply,
    term_vars,
)


@dataclass(frozen=True)
class Budget:
    depth: int = 1000
    fresh: int = 2


@dataclass(frozen=True)
class Transition:
    """A state paired with a residual, both in canonical form."""

    state: RawTerm
    residual: RawTerm


@dataclass(frozen=True)
class ProofTree:
    rule_name: str
    atoms: tuple[tuple[str, Atom], ...]
    subst: tuple[tuple[Variable, RawTerm], ...]
    transition: Transition
    children: tuple["ProofTree", ...]
    discharged: tuple[tuple[Atom, RawTerm], ...]


@dataclass(frozen=True)
class Derivation:
    transition: Transition
    tree: ProofTree
    fresh_atoms: tuple[Atom, ...]
    """Atoms in the residual drawn from outside the state's support; when
    non-empty the derivation is an orbit representative."""


@dataclass(frozen=True)
class Enumeration:
    derivations: tuple[Derivation, ...]
    truncated: bool


@dataclass(frozen=True)
class ProveOutcome:
    tree: Optional[ProofTree]
    truncated: bool


def transition_str(tr: Transition) -> str:
    return f"{term_str(tr.state)} -> {term_str(tr.residual)}"


def _by_name(metas: Iterable[MetaAtom]) -> tuple[MetaAtom, ...]:
    return tuple(sorted(metas, key=lambda m: m.name))


@dataclass(frozen=True)
class _PremisePlan:
    premise: Formula
    metas: tuple[MetaAtom, ...]
    variables: frozenset[Variable]


@dataclass(frozen=True)
class _RulePlan:
    """What the search needs of a rule beyond the rule itself, worked out
    once: the schematic atoms the conclusion still has to bind and the
    variables the residual and freshness conditions need. Schematic atoms
    are sorted by name."""

    rule: Rule
    premises: tuple[_PremisePlan, ...]
    pending: tuple[MetaAtom, ...]
    conclusion_vars: frozenset[Variable]

    @staticmethod
    def of(rule: Rule) -> "_RulePlan":
        pending = set(meta_atoms(rule.conclusion.target))
        conclusion_vars = set(term_vars(rule.conclusion.target))
        for ra in rule.env:
            pending |= meta_atoms(ra.term)
            if isinstance(ra.atom, MetaAtom):
                pending.add(ra.atom)
            conclusion_vars |= term_vars(ra.term)
        return _RulePlan(
            rule=rule,
            premises=tuple(
                _PremisePlan(p, _by_name(meta_atoms(p.source)), term_vars(p.source))
                for p in rule.premises
            ),
            pending=_by_name(pending),
            conclusion_vars=frozenset(conclusion_vars),
        )


class _Search:
    def __init__(self, spec: Spec, budget: Budget):
        self.budget = budget
        self.plans = tuple(_RulePlan.of(rule) for rule in spec.rules)
        self.table: dict[tuple, dict[RawTerm, ProofTree]] = {}
        self.truncated = False
        self.changed = False
        self.stale = False
        # The keys this pass has reached: False while a key is being solved,
        # True once it is settled.
        self.settled: dict[tuple, bool] = {}

    def run(self, state: RawTerm, extra: frozenset[Atom]) -> dict[RawTerm, ProofTree]:
        while True:
            self.changed = False
            self.stale = False
            self.settled = {}
            entry = self._solve(state, extra, self.budget.depth)
            if not (self.changed and self.stale):
                return entry

    def _solve(
        self, state: RawTerm, extra: frozenset[Atom], depth: int
    ) -> dict[RawTerm, ProofTree]:
        key = (state, extra)
        entry = self.table.setdefault(key, {})
        settled = self.settled.get(key)
        if settled is not None:
            if not settled:
                self.stale = True
            return entry
        if depth <= 0:
            self.truncated = True
            self.stale = True
            return entry
        self.settled[key] = False
        pool = AtomPool(
            tuple(sorted(_free_atoms(state) | extra)), self.budget.fresh
        )
        for plan in self.plans:
            for st in match_term(plan.rule.conclusion.source, state, MatchState(), pool):
                self._premises(plan, 0, st, (), state, extra, depth, pool, entry)
        self.settled[key] = True
        return entry

    def _premises(
        self,
        plan: _RulePlan,
        i: int,
        st: MatchState,
        children: tuple[ProofTree, ...],
        state: RawTerm,
        extra: frozenset[Atom],
        depth: int,
        pool: AtomPool,
        entry: dict[RawTerm, ProofTree],
    ) -> None:
        if i == len(plan.premises):
            self._conclude(plan, st, children, state, pool, entry)
            return
        pp = plan.premises[i]
        # Matching binds variables to ground terms only, so the source is
        # ground exactly when all of its variables are bound.
        if not st.subst.keys() >= pp.variables:
            return
        for st1 in bind_metas(pp.metas, st, pool):
            src = normalize(pp.premise.source, st1.metas, st1.subst)
            inner_extra = extra | set(st1.metas.values())
            subgoals = self._solve(src, frozenset(inner_extra), depth - 1)
            for residual, subtree in list(subgoals.items()):
                for st2 in match_term(pp.premise.target, residual, st1, pool):
                    self._premises(
                        plan, i + 1, st2, children + (subtree,), state, extra, depth, pool, entry
                    )

    def _conclude(
        self,
        plan: _RulePlan,
        st: MatchState,
        children: tuple[ProofTree, ...],
        state: RawTerm,
        pool: AtomPool,
        entry: dict[RawTerm, ProofTree],
    ) -> None:
        rule = plan.rule
        if not st.subst.keys() >= plan.conclusion_vars:
            return
        if rule.excluded_label(st.subst) is not None:
            return
        for st1 in bind_metas(plan.pending, st, pool):
            discharged = []
            ok = True
            for ra in rule.env:
                atom = resolve(ra.atom, st1.metas)
                t = normalize(ra.term, st1.metas, st1.subst)
                if atom in _free_atoms(t):
                    ok = False
                    break
                discharged.append((atom, t))
            if not ok:
                continue
            residual = normalize(rule.conclusion.target, st1.metas, st1.subst)
            if residual in entry:
                continue
            entry[residual] = ProofTree(
                rule_name=rule.name,
                atoms=tuple(sorted(st1.metas.items())),
                subst=tuple(sorted(st1.subst.items(), key=lambda kv: kv[0].name)),
                transition=Transition(state, residual),
                children=children,
                discharged=tuple(discharged),
            )
            self.changed = True


def enumerate_transitions(
    spec: Spec,
    state: RawTerm,
    budget: Budget = Budget(),
    extra_atoms: Iterable[Atom] = (),
) -> Enumeration:
    s = normalize(state)
    base = _free_atoms(s) | set(extra_atoms)
    search = _Search(spec, budget)
    table = search.run(s, frozenset(extra_atoms))
    derivations = []
    for residual, tree in table.items():
        fresh = tuple(sorted(_free_atoms(residual) - base))
        derivations.append(Derivation(Transition(s, residual), tree, fresh))
    derivations.sort(key=lambda d: term_str(d.transition.residual))
    return Enumeration(tuple(derivations), search.truncated)


def prove(
    spec: Spec, source: RawTerm, target: RawTerm, budget: Budget = Budget()
) -> ProveOutcome:
    r = normalize(target)
    enum = enumerate_transitions(
        spec, source, budget, extra_atoms=tuple(sorted(_free_atoms(r)))
    )
    for d in enum.derivations:
        if d.transition.residual == r:
            return ProveOutcome(d.tree, False)
    return ProveOutcome(None, enum.truncated)


def replay(spec: Spec, tree: ProofTree) -> list[str]:
    """Re-check every node of a proof tree against its rule; returns the
    list of violations (empty when the tree is valid)."""

    errors: list[str] = []
    rule = spec.rule(tree.rule_name)
    if rule is None:
        return [f"unknown rule {tree.rule_name!r}"]
    asg = dict(tree.atoms)
    subst = dict(tree.subst)
    where = f"node {tree.rule_name}"
    unbound = [m.name for m in rule.metas if m.name not in asg] + sorted(
        v.name for v in set().union(*map(term_vars, rule.terms())) if v not in subst
    )
    if unbound:
        return [f"{where}: no binding for {', '.join(unbound)}"]
    loose = sorted(v.name for v, t in subst.items() if not is_ground(t))
    if loose:
        return [f"{where}: {name} is bound to a term that is not ground" for name in loose]

    def inst(t: RawTerm) -> RawTerm:
        return subst_apply(subst, instantiate(t, asg))

    if not alpha_eq(inst(rule.conclusion.source), tree.transition.state):
        errors.append(f"{where}: conclusion source mismatch")
    if not alpha_eq(inst(rule.conclusion.target), tree.transition.residual):
        errors.append(f"{where}: conclusion target mismatch")
    if len(tree.children) != len(rule.premises):
        errors.append(f"{where}: expected {len(rule.premises)} premises")
    else:
        for premise, child in zip(rule.premises, tree.children):
            if not alpha_eq(inst(premise.source), child.transition.state):
                errors.append(f"{where}: premise source mismatch")
            if not alpha_eq(inst(premise.target), child.transition.residual):
                errors.append(f"{where}: premise target mismatch")
            errors.extend(replay(spec, child))
    for ra in rule.env:
        atom = resolve(ra.atom, asg)
        if not nt_fresh(atom, inst(ra.term)):
            errors.append(f"{where}: freshness {atom_str(atom)} # {term_str(inst(ra.term))} fails")
    head = rule.excluded_label(subst)
    if head is not None:
        errors.append(f"{where}: label {head} is excluded")
    return errors


def tree_dict(tree: ProofTree) -> dict:
    return {
        "rule": tree.rule_name,
        "atoms": {n: atom_str(a) for n, a in tree.atoms},
        "subst": {v.name: term_str(t) for v, t in tree.subst},
        "state": term_str(tree.transition.state),
        "residual": term_str(tree.transition.residual),
        "freshness": [
            f"{atom_str(a)} # {term_str(t)}" for a, t in tree.discharged
        ],
        "children": [tree_dict(c) for c in tree.children],
    }


def tree_text(tree: ProofTree, indent: int = 0) -> str:
    pad = "  " * indent
    lines = [f"{pad}{transition_str(tree.transition)}   [{tree.rule_name}]"]
    for a, t in tree.discharged:
        lines.append(f"{pad}  with {atom_str(a)} # {term_str(t)}")
    for child in tree.children:
        lines.append(tree_text(child, indent + 1))
    return "\n".join(lines)
