"""Residual signatures, transition rules with schematic atoms, binding-name
and stratification declarations, and whole-specification validation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .alpha import _free_atoms, normalize
from .atoms import (
    AtomSortRef,
    BaseSort,
    NominalSort,
    Signature,
    prod_parts,
    sort_str,
    validate_signature,
    wellformed_sort,
)
from .freshness import Assertion
from .matching import AtomPool, MatchState, match_term
from .printer import formula_str
from .terms import (
    App,
    Atm,
    AtomLike,
    Atom,
    MetaAtom,
    RawTerm,
    SortError,
    Tup,
    Var,
    Variable,
    app_args,
    instantiate,
    meta_atoms,
    sort_check,
    support,
    term_vars,
)


@dataclass(frozen=True)
class Formula:
    """A residual formula: source -> target."""

    source: RawTerm
    target: RawTerm

    def __str__(self) -> str:
        return formula_str(self.source, self.target)


@dataclass(frozen=True)
class Rule:
    """A transition rule. `metas` are schematic atoms quantified over all
    atoms of their sort; instances may identify two of them. `label_excluded`
    restricts a label variable to actions whose head constructor is not
    among the listed ones."""

    name: str
    metas: tuple[MetaAtom, ...]
    premises: tuple[Formula, ...]
    env: tuple[Assertion, ...]
    conclusion: Formula
    label_excluded: tuple[tuple[Variable, tuple[str, ...]], ...] = ()

    def excluded_for(self, var: Variable) -> tuple[str, ...]:
        return tuple(c for v, excl in self.label_excluded if v == var for c in excl)

    def excluded_label(self, subst: Mapping[Variable, RawTerm]) -> Optional[str]:
        """The head constructor of a label that `subst` binds to a
        constrained label variable and that its constraint excludes, or
        None when the substitution keeps every label constraint."""
        for v, excl in self.label_excluded:
            bound = subst.get(v)
            if isinstance(bound, App) and bound.func in excl:
                return bound.func
        return None

    def terms(self) -> list[RawTerm]:
        out = [self.conclusion.source, self.conclusion.target]
        for p in self.premises:
            out += [p.source, p.target]
        out += [a.term for a in self.env]
        return out

    def atoms(self) -> frozenset[Atom]:
        """The concrete atoms written in the rule: in its terms and as the
        atoms of its freshness assertions."""
        return frozenset().union(
            *map(support, self.terms()),
            (a.atom for a in self.env if isinstance(a.atom, Atom)),
        )


@dataclass(frozen=True)
class ResidualSignature:
    signature: Signature
    state_sort: NominalSort
    residual_sort: NominalSort


@dataclass(frozen=True)
class StratCase:
    """One clause of the stratification declaration: a (state, label) pattern
    pair with optional atom constraints, mapping to a constant measure or to
    1 + max over recursive calls on head-pattern variables."""

    head: RawTerm
    label: RawTerm
    constraints: tuple[tuple[str, str, bool], ...]  # (meta, meta, must_equal)
    base: Optional[int]  # constant measure, or None when recursive
    recursion: tuple[tuple[Variable, RawTerm], ...]  # (variable, label pattern)


@dataclass
class Spec:
    rsig: ResidualSignature
    rules: tuple[Rule, ...]
    bn: dict[str, tuple[int, ...]] = field(default_factory=dict)
    strat: tuple[StratCase, ...] = ()
    variables: dict[str, Variable] = field(default_factory=dict)

    @property
    def signature(self) -> Signature:
        return self.rsig.signature

    def rule(self, name: str) -> Optional[Rule]:
        for r in self.rules:
            if r.name == name:
                return r
        return None

    # --- NTS mode ------------------------------------------------------

    @property
    def nts_mode(self) -> bool:
        """True when the residual sort is a pair (action, state) of base
        sorts, the shape required for binding names and the ACR format."""
        parts = prod_parts(self.rsig.residual_sort)
        return (
            len(parts) == 2
            and isinstance(parts[0], BaseSort)
            and parts[1] == self.rsig.state_sort
            and isinstance(self.rsig.state_sort, BaseSort)
        )

    @property
    def action_sort(self) -> Optional[NominalSort]:
        return prod_parts(self.rsig.residual_sort)[0] if self.nts_mode else None

    def split_residual(self, t: RawTerm) -> Optional[tuple[RawTerm, RawTerm]]:
        """The (label, target) components of a residual-sorted pattern."""
        if isinstance(t, Tup) and len(t.items) == 2:
            return t.items[0], t.items[1]
        return None


def bn_eval(spec: Spec, label: RawTerm) -> frozenset[AtomLike]:
    """Binding names of an action: the atoms (or schematic atoms) at the
    declared binding positions of the label's head constructor."""
    if not isinstance(label, App):
        raise ValueError(f"not a constructor-headed action: {label}")
    positions = spec.bn.get(label.func, ())
    if not positions:
        return frozenset()
    args = app_args(label)
    out: set[AtomLike] = set()
    for pos in positions:
        item = args[pos - 1]
        if not isinstance(item, Atm):
            raise ValueError(f"binding position {pos} of {label.func} is not an atom")
        out.add(item.atom)
    return frozenset(out)


def check_constraints(
    constraints: tuple[tuple[str, str, bool], ...], assignment: dict[str, Atom]
) -> bool:
    for m1, m2, must_equal in constraints:
        if (assignment[m1] == assignment[m2]) != must_equal:
            return False
    return True


def strat_eval(spec: Spec, p: RawTerm, label: RawTerm) -> Optional[int]:
    """Order of a ground (state, action) pair under the stratification
    declaration; None stands for undefined. Inside measure arithmetic an
    undefined recursive call contributes 0. First matching case wins.

    A clause's schematic atoms range over the free atoms of the normalised
    state and action plus one fresh atom per schematic atom of the clause,
    so every way the clause can match is tried up to renaming, and the
    order does not change when one permutation renames state and action."""
    p = normalize(p)
    label = normalize(label)
    free = tuple(sorted(_free_atoms(p) | _free_atoms(label)))
    for case in spec.strat:
        pool = AtomPool(free, len(meta_atoms(case.head) | meta_atoms(case.label)))
        found = next(
            (
                st2
                for st in match_term(case.label, label, MatchState(), pool)
                for st2 in match_term(case.head, p, st, pool)
                if check_constraints(case.constraints, st2.metas)
            ),
            None,
        )
        if found is None:
            continue
        if case.base is not None:
            return case.base
        best = 0
        for var, labpat in case.recursion:
            sub = found.subst.get(var)
            if sub is None:
                continue  # recursion position not bound by this pattern
            sub_label = instantiate(labpat, found.metas)
            r = strat_eval(spec, sub, sub_label)
            best = max(best, r if r is not None else 0)
        return 1 + best
    return None


# --- validation ---------------------------------------------------------------


def _label_positions_ground(spec: Spec, formula: Formula) -> list[str]:
    """NTS-mode action checks: the residual must be a (label, target) pair
    whose label is a bare variable of the action sort or is variable-free."""
    errors: list[str] = []
    pair = spec.split_residual(formula.target)
    if pair is None:
        errors.append(f"residual is not a (label, target) pair: {formula}")
        return errors
    label, _ = pair
    if isinstance(label, Var):
        if label.var.sort != spec.action_sort:
            errors.append(f"label variable {label.var.name} is not action-sorted")
    elif term_vars(label):
        errors.append(f"action must be ground: {label} in {formula}")
    return errors


def validate_spec(spec: Spec) -> list[str]:
    """Aggregate well-formedness report; empty iff the spec is well-formed."""
    report = validate_signature(spec.signature)
    sig = spec.signature

    seen: set[str] = set()
    for rule in spec.rules:
        if rule.name in seen:
            report.append(f"duplicate rule name: {rule.name}")
        seen.add(rule.name)

    for sort, what in ((spec.rsig.state_sort, "state"), (spec.rsig.residual_sort, "residual")):
        if not wellformed_sort(sig, sort):
            report.append(f"{what} sort is ill-formed: {sort_str(sort)}")

    for rule in spec.rules:
        prefix = f"rule {rule.name}"
        for formula, what in [(rule.conclusion, "conclusion")] + [
            (p, f"premise {i + 1}") for i, p in enumerate(rule.premises)
        ]:
            try:
                s = sort_check(sig, formula.source)
                if s != spec.rsig.state_sort:
                    report.append(f"{prefix}: {what} source has sort {sort_str(s)}, expected state sort")
                s = sort_check(sig, formula.target)
                if s != spec.rsig.residual_sort:
                    report.append(f"{prefix}: {what} target has sort {sort_str(s)}, expected residual sort")
            except SortError as e:
                report.append(f"{prefix}: {what}: {e}")
            if spec.nts_mode:
                report.extend(f"{prefix}: {e}" for e in _label_positions_ground(spec, formula))
        for assertion in rule.env:
            try:
                sort_check(sig, assertion.term)
            except SortError as e:
                report.append(f"{prefix}: freshness assertion: {e}")

        # premise schedulability: left-to-right grounding order
        bound = term_vars(rule.conclusion.source)
        for i, p in enumerate(rule.premises):
            missing = term_vars(p.source) - bound
            if missing:
                names = ", ".join(sorted(v.name for v in missing))
                report.append(f"{prefix}: unschedulable premise {i + 1}: unbound {names}")
            bound |= term_vars(p.target)
        loose = term_vars(rule.conclusion.target) - bound
        if loose:
            names = ", ".join(sorted(v.name for v in loose))
            report.append(f"{prefix}: conclusion target mentions unbindable {names}")
        for assertion in rule.env:
            loose = term_vars(assertion.term) - bound
            if loose:
                names = ", ".join(sorted(v.name for v in loose))
                report.append(f"{prefix}: freshness assertion mentions unbindable {names}")

        for v, excl in rule.label_excluded:
            if v.sort != spec.action_sort:
                report.append(f"{prefix}: label constraint on non-action variable {v.name}")
            for c in excl:
                decl = sig.func(c)
                if decl is None or (spec.action_sort and decl.result != spec.action_sort.name):  # type: ignore[union-attr]
                    report.append(f"{prefix}: label constraint names non-action constructor {c}")

    # bn positions must select atom-sorted argument positions
    for fname, positions in spec.bn.items():
        decl = sig.func(fname)
        if decl is None:
            report.append(f"bn: unknown constructor {fname}")
            continue
        parts = prod_parts(decl.arg)
        for pos in positions:
            if pos < 1 or pos > len(parts):
                report.append(f"bn: {fname} has no argument position {pos}")
            elif not isinstance(parts[pos - 1], AtomSortRef):
                report.append(f"bn: position {pos} of {fname} is not of atom sort")

    for i, case in enumerate(spec.strat):
        prefix = f"order clause {i + 1}"
        if not isinstance(case.head, App):
            report.append(f"{prefix}: head pattern is not constructor-headed")
            continue
        head_vars = term_vars(case.head)
        for var, _ in case.recursion:
            if var not in head_vars:
                report.append(f"{prefix}: recursive call on {var.name}, absent from the head pattern")
        case_metas = {m.name for m in meta_atoms(case.head) | meta_atoms(case.label)}
        for m1, m2, _ in case.constraints:
            for m in (m1, m2):
                if m not in case_metas:
                    report.append(f"{prefix}: constraint names unknown atom {m}")

    return report
