"""Static format checkers: absence of concrete atoms (closure of the rule
set under permutations), stratification coverage/decrease, and the residual
alpha-conversion constraints.

The last two work per label instance. A label instance is a `Rule`: the rule
itself when its conclusion label is headed by a constructor, and otherwise
one instance (`Rule.instance`) per action constructor the label variable may
stand for (minus its excluded labels), with fresh schematic atoms at the
constructor's atom positions and fresh variables elsewhere."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional

from .atoms import (
    AbsSort,
    Atom,
    AtomSort,
    AtomSortRef,
    BaseSort,
    FuncDecl,
    NominalSort,
    ProdSort,
    Signature,
    fresh_atoms,
    prod_parts,
)
from .freshness import Assertion, entails, nf
from .printer import _atomlike_str, atom_str, env_str, term_str
from .spec import Rule, Spec, StratCase, bn_eval, validate_spec
from .terms import (
    Abs,
    App,
    Atm,
    AtomLike,
    MetaAtom,
    RawTerm,
    Susp,
    Tup,
    Var,
    Variable,
    app,
    instantiate,
    subst_apply,
    support,
    term_vars,
)


@dataclass(frozen=True)
class RuleCheck:
    rule: str
    status: str  # pass | fail | unknown | skipped
    constraint: str = ""
    witness: str = ""

    def line(self) -> str:
        out = f"{self.rule}: {self.status}"
        if self.constraint:
            out += f" [{self.constraint}]"
        if self.witness:
            out += f" -- {self.witness}"
        return out


@dataclass(frozen=True)
class CheckReport:
    name: str
    checks: tuple[RuleCheck, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.status in ("pass", "skipped") for c in self.checks)

    def text(self) -> str:
        verdict = "pass" if self.passed else "fail"
        lines = [f"{self.name}: {verdict}"]
        lines += [f"  {c.line()}" for c in self.checks]
        lines += [f"  note: {n}" for n in self.notes]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "rules": [
                {
                    "rule": c.rule,
                    "status": c.status,
                    "constraint": c.constraint,
                    "witness": c.witness,
                }
                for c in self.checks
            ],
            "notes": list(self.notes),
        }


# --- equivariant format -------------------------------------------------------


def check_equivariant(spec: Spec) -> CheckReport:
    """A rule set written without concrete atom literals is closed under
    every sort-preserving permutation: permuting an instance is the same as
    permuting the assignment of its schematic atoms."""
    checks = []
    for rule in spec.rules:
        literals = rule.atoms()
        if literals:
            a = min(literals)
            other = Atom(a.sort, a.index + 1)
            checks.append(
                RuleCheck(
                    rule.name,
                    "fail",
                    "equivariance",
                    f"concrete atom {atom_str(a)}; the image under "
                    f"({atom_str(a)} {atom_str(other)}) is not a rule",
                )
            )
        else:
            checks.append(RuleCheck(rule.name, "pass"))
    return CheckReport("equivariant format", tuple(checks))


# --- label instantiation ------------------------------------------------------


def _residual(t: RawTerm) -> tuple[RawTerm, RawTerm]:
    """The (label, target) of a residual of a label instance."""
    pair = Spec.split_residual(t)
    if pair is None:
        raise ValueError(f"residual is not a (label, target) pair: {term_str(t)}")
    return pair


def describe(inst: Rule) -> str:
    """A label instance as `Rule@head`, head the constructor of its label."""
    label = _residual(inst.conclusion.target)[0]
    head = label.func if isinstance(label, App) else term_str(label)
    return f"{inst.name}@{head}"


def _premise_parts(inst: Rule) -> Iterator[tuple[RawTerm, RawTerm, RawTerm]]:
    """(source, label, target) per premise, the target the whole residual."""
    for p in inst.premises:
        yield p.source, _residual(p.target)[0], p.target


def _fresh_label_term(decl: FuncDecl, taken: set[str]) -> tuple[RawTerm, list[MetaAtom]]:
    """A most general pattern for one action constructor: fresh schematic
    atoms at atom positions, fresh variables elsewhere."""
    items: list[RawTerm] = []
    new_metas: list[MetaAtom] = []
    counter = 0

    def fresh_name(prefix: str) -> str:
        nonlocal counter
        while True:
            counter += 1
            n = f"{prefix}{counter}"
            if n not in taken:
                taken.add(n)
                return n

    for part in prod_parts(decl.arg):
        if isinstance(part, AtomSortRef):
            m = MetaAtom(fresh_name("_b"), part.sort)
            new_metas.append(m)
            items.append(Atm(m))
        else:
            items.append(Var(Variable(fresh_name("_v"), part)))
    return app(decl.name, *items), new_metas


def label_instances(spec: Spec, rule: Rule) -> list[Rule]:
    """The rule itself when its conclusion label is headed by a constructor;
    for a label variable, one instance per action constructor it may stand
    for, the label a most general pattern with fresh schematic atoms."""
    pair = spec.split_residual(rule.conclusion.target)
    if pair is None:
        return []
    label = pair[0]
    if isinstance(label, App):
        return [rule]
    action = spec.action_sort
    if not isinstance(label, Var) or not isinstance(action, BaseSort):
        return []
    excluded = rule.excluded_for(label.var)
    taken = {m.name for m in rule.metas}
    out = []
    for decl in spec.signature.constructors_of(action.name):
        if decl.name in excluded:
            continue
        term, new_metas = _fresh_label_term(decl, set(taken))
        inst = rule.instance({}, {label.var: term})
        out.append(replace(inst, metas=rule.metas + tuple(new_metas)))
    return out


# --- symbolic matching of stratification cases against rule patterns -----------


@dataclass
class _Bind:
    """Images of one case's variables and schematic atoms inside a rule
    pattern."""

    vars: dict[Variable, RawTerm] = field(default_factory=dict)
    metas: dict[str, AtomLike] = field(default_factory=dict)
    # pairs of rule atoms a case meta maps to twice: the case only matches
    # instances that identify them
    identifications: list[tuple[AtomLike, AtomLike]] = field(default_factory=list)

    def bind_meta(self, m: MetaAtom, a: AtomLike) -> None:
        """Bind a case's schematic atom to a rule atom, or, when it is
        already bound to another one, record that the two are identified."""
        seen = self.metas.setdefault(m.name, a)
        if seen != a:
            self.identifications.append((seen, a))


def _sym_match(case_pat: RawTerm, rule_pat: RawTerm, bind: _Bind) -> Optional[bool]:
    """Structural match of a case pattern against a rule pattern (both may
    contain schematic parts). True = match, False = definite mismatch,
    None = outside the sufficient conditions."""
    match case_pat:
        case Var(v):
            if v in bind.vars:
                return bind.vars[v] == rule_pat
            bind.vars[v] = rule_pat
            return True
        case Atm(m) if isinstance(m, MetaAtom):
            if not isinstance(rule_pat, Atm):
                return False if isinstance(rule_pat, (App, Tup, Abs)) else None
            bind.bind_meta(m, rule_pat.atom)
            return True
        case App(f, arg):
            if isinstance(rule_pat, App):
                if rule_pat.func != f:
                    return False
                return _sym_match(arg, rule_pat.arg, bind)
            return None if isinstance(rule_pat, (Var, Susp)) else False
        case Tup(items):
            if isinstance(rule_pat, Tup) and len(rule_pat.items) == len(items):
                for c, r in zip(items, rule_pat.items):
                    res = _sym_match(c, r, bind)
                    if res is not True:
                        return res
                return True
            return None if isinstance(rule_pat, (Var, Susp)) else False
        case Abs(a, body):
            if isinstance(rule_pat, Abs):
                if isinstance(a, MetaAtom):
                    bind.bind_meta(a, rule_pat.binder)
                    return _sym_match(body, rule_pat.body, bind)
                return None
            return None if isinstance(rule_pat, (Var, Susp)) else False
    return None


def _assignment(
    blocks: Iterable[list[MetaAtom]], avoid: frozenset[Atom]
) -> dict[str, Atom]:
    """Atoms for the schematic atoms of a partition: ordered by their least
    name, the i-th block of a sort gets the i-th atom of that sort outside
    `avoid`, the rule's concrete atoms, so blocks are identified with no
    atom the rule writes."""
    by_sort: dict[AtomSort, list[list[MetaAtom]]] = {}
    for block in sorted(blocks, key=lambda b: min(m.name for m in b)):
        by_sort.setdefault(block[0].sort, []).append(block)
    asg: dict[str, Atom] = {}
    for sort, sort_blocks in by_sort.items():
        for block, a in zip(sort_blocks, fresh_atoms(sort, avoid, len(sort_blocks))):
            for m in block:
                asg[m.name] = a
    return asg


def _forced_distinct(inst: Rule, x: AtomLike, y: AtomLike) -> bool:
    """True when identifying two schematic atoms makes the rule's freshness
    environment inconsistent, so no valid instance identifies them."""
    if not isinstance(x, MetaAtom) or not isinstance(y, MetaAtom):
        return isinstance(x, Atom) and isinstance(y, Atom) and x != y
    blocks = [[m] for m in set(inst.metas) - {x, y}] + [[x, y]]
    return not nf(inst.instance(_assignment(blocks, inst.atoms())).env).is_consistent


@dataclass(frozen=True)
class CaseMatch:
    case: StratCase
    guaranteed: bool  # every env-consistent instance of the rule matches
    bind: _Bind


def case_matches(spec: Spec, inst: Rule) -> tuple[list[CaseMatch], bool]:
    """Stratification cases that can match some valid instance of the rule's
    conclusion. The flag reports whether any case shape fell outside the
    sufficient matching conditions (status unknown)."""
    out = []
    saw_unknown = False
    label = _residual(inst.conclusion.target)[0]
    for case in spec.strat:
        bind = _Bind()
        res = _sym_match(case.label, label, bind)
        if res is True:
            res = _sym_match(case.head, inst.conclusion.source, bind)
        if res is None:
            saw_unknown = True
            continue
        if res is False:
            continue
        satisfiable = True
        guaranteed = True
        for x, y in bind.identifications:
            guaranteed = False
            if _forced_distinct(inst, x, y):
                satisfiable = False
                break
        for m1, m2, must_equal in case.constraints:
            if not satisfiable:
                break
            x = bind.metas.get(m1)
            y = bind.metas.get(m2)
            if x is None or y is None:
                saw_unknown = True
                satisfiable = False
                break
            if must_equal:
                if x != y:
                    guaranteed = False
                    if _forced_distinct(inst, x, y):
                        satisfiable = False
                        break
            else:
                if x == y:
                    satisfiable = False
                    break
                if not _forced_distinct(inst, x, y):
                    guaranteed = False
        if satisfiable:
            out.append(CaseMatch(case, guaranteed, bind))
    return out, saw_unknown


# --- stratification ------------------------------------------------------------


def check_stratification(spec: Spec) -> CheckReport:
    checks = []
    defined: list[str] = []
    for rule in spec.rules:
        instances = label_instances(spec, rule)
        status = "pass"
        constraint = ""
        witness = ""
        unknown = False
        for inst in instances:
            matches, saw_unknown = case_matches(spec, inst)
            unknown = unknown or saw_unknown
            if matches:
                defined.append(describe(inst))
            try:
                binding = bn_eval(spec, _residual(inst.conclusion.target)[0])
            except ValueError:
                binding = frozenset()
            if binding and not any(m.guaranteed for m in matches):
                status = "fail"
                constraint = "coverage"
                witness = (
                    f"{describe(inst)}: the conclusion label binds "
                    f"{', '.join(sorted(_atomlike_str(b) for b in binding))} "
                    "but no stratification case is guaranteed to match"
                )
                break
            problem = _check_decrease(spec, inst, matches)
            if problem is not None:
                status = "fail"
                constraint = "decrease"
                witness = f"{describe(inst)}: {problem}"
                break
        if status == "pass" and unknown:
            status = "unknown"
            constraint = "decrease"
            witness = "rule shape outside the syntactic sufficient conditions"
        checks.append(RuleCheck(rule.name, status, constraint, witness))
    notes = ("defined order: " + (", ".join(defined) if defined else "none"),)
    return CheckReport("stratification", tuple(checks), notes)


def _check_decrease(
    spec: Spec, inst: Rule, matches: list[CaseMatch]
) -> Optional[str]:
    """Every premise source must be a variable covered by a recursive call of
    each matching case, with the premise label equal to the call's label."""
    if not inst.premises:
        return None
    parts = list(_premise_parts(inst))
    for cm in matches:
        if cm.case.base is not None:
            return (
                f"case with constant measure {cm.case.base} matches a rule "
                "with premises"
            )
        bind = cm.bind
        calls = []
        for v, labpat in cm.case.recursion:
            label = subst_apply(bind.vars, instantiate(labpat, bind.metas))
            calls.append((bind.vars.get(v, Var(v)), label))
        for psource, plabel, _ in parts:
            if not isinstance(psource, Var):
                return f"premise source {term_str(psource)} is not a variable"
            ok = any(
                src == psource and lab == plabel for src, lab in calls
            )
            if not ok:
                return (
                    f"premise {term_str(psource)} -> ... @ {term_str(plabel)} "
                    "has no matching recursive call"
                )
    return None


# --- residual alpha-conversion constraints --------------------------------------


def _smallest_closed(sig: Signature, sort: NominalSort, avoid: set[Atom]) -> Optional[RawTerm]:
    """Smallest ground term of a sort. Per atom sort, its free atoms are the
    least atom not in `avoid` and its binders the next one, so the term is
    fresh for everything a check puts in `avoid`."""
    atoms = {alpha: fresh_atoms(alpha, avoid, 2) for alpha in sig.atom_sorts}
    best: dict[str, tuple[int, RawTerm]] = {}
    for _ in range(len(sig.functions) + 1):
        changed = False
        for f in sig.functions:
            r = _closed(f.arg, atoms, best)
            if r is None:
                continue
            size, term = 1 + r[0], App(f.name, r[1])
            cur = best.get(f.result)
            if cur is None or size < cur[0]:
                best[f.result] = (size, term)
                changed = True
        if not changed:
            break
    r = _closed(sort, atoms, best)
    return r[1] if r is not None else None


def _closed(
    s: NominalSort,
    atoms: dict[AtomSort, list[Atom]],
    best: dict[str, tuple[int, RawTerm]],
) -> Optional[tuple[int, RawTerm]]:
    """Size and term of the smallest ground term of sort `s` built from the
    smallest term found so far for each base sort."""
    match s:
        case AtomSortRef(alpha):
            return 1, Atm(atoms[alpha][0])
        case AbsSort(alpha, body):
            b = _closed(body, atoms, best)
            if b is None:
                return None
            return 1 + b[0], Abs(atoms[alpha][1], b[1])
        case ProdSort(parts):
            total, items = 1, []
            for p in parts:
                r = _closed(p, atoms, best)
                if r is None:
                    return None
                total += r[0]
                items.append(r[1])
            return total, Tup(tuple(items))
        case BaseSort(name):
            return best.get(name)
    return None


def _partitions(metas: list[MetaAtom]) -> list[list[list[MetaAtom]]]:
    """All partitions whose blocks are sort-homogeneous (schematic atoms can
    only be identified within a sort)."""
    if not metas:
        return [[]]
    first, rest = metas[0], metas[1:]
    out = []
    for part in _partitions(rest):
        out.append([[first]] + part)
        for i, block in enumerate(part):
            if block[0].sort == first.sort:
                out.append(part[:i] + [[first] + block] + part[i + 1 :])
    return out


def check_acr(spec: Spec) -> CheckReport:
    checks = []
    for rule in spec.rules:
        instances = [
            inst
            for inst in label_instances(spec, rule)
            if case_matches(spec, inst)[0]
        ]
        if not instances:
            checks.append(
                RuleCheck(rule.name, "skipped", "", "no defined-order instance")
            )
            continue
        failure: Optional[RuleCheck] = None
        for inst in instances:
            failure = _check_acr_instance(spec, inst)
            if failure is not None:
                break
        checks.append(failure or RuleCheck(rule.name, "pass"))
    return CheckReport("residual alpha-conversion format", tuple(checks))


def _check_acr_instance(spec: Spec, inst: Rule) -> Optional[RuleCheck]:
    premise_vars: set[Variable] = set()
    for s, _, t in _premise_parts(inst):
        premise_vars |= term_vars(s) | term_vars(t)
    other_vars = set(term_vars(_residual(inst.conclusion.target)[1]))
    for ra in inst.env:
        other_vars |= term_vars(ra.term)
    d_vars = term_vars(inst.conclusion.source) - premise_vars - other_vars

    # The atoms of the rule, with every atom a partition below can give a
    # schematic atom; the closed terms and the fresh candidates avoid them.
    literals = inst.atoms()
    taken = set(literals)
    for sort in {m.sort for m in inst.metas}:
        taken |= set(fresh_atoms(sort, literals, len(inst.metas)))

    gamma: dict[Variable, RawTerm] = {}
    for v in sorted(d_vars, key=lambda v: v.name):
        t = _smallest_closed(spec.signature, v.sort, taken)
        if t is None:
            return RuleCheck(
                inst.name,
                "fail",
                "(ii)",
                f"{describe(inst)}: no closed term inhabits the sort of {v.name}",
            )
        gamma[v] = t
        taken |= support(t)

    metas = sorted(set(inst.metas), key=lambda m: m.name)
    for partition in _partitions(metas):
        asg = _assignment(partition, literals)
        r = inst.instance(asg)
        source = r.conclusion.source
        target_pair = r.conclusion.target
        env = frozenset(r.env)
        prem = list(_premise_parts(r))

        gamma_source = subst_apply(gamma, source)
        rule_atoms = set(support(source)) | set(asg.values())
        for s, l, t in prem:
            rule_atoms |= support(s) | support(t)
        rule_atoms |= support(target_pair)
        excluded = {c for c in support(source) if not nf([Assertion(c, source)]).all}
        candidates = sorted(rule_atoms - excluded)
        sorts = {a.sort for a in rule_atoms} | set(spec.signature.atom_sorts)
        for s in sorted(sorts, key=lambda s: s.name):
            candidates += fresh_atoms(s, taken, 1)

        binders = bn_eval(spec, _residual(r.conclusion.target)[0])
        for a in candidates:
            lhs1 = frozenset({Assertion(a, target_pair)}) | env
            rhs1 = frozenset(Assertion(a, t) for _, _, t in prem)
            if not entails(lhs1, rhs1):
                return _acr_fail(inst, "(i)", partition, a, lhs1, rhs1)
            lhs2 = lhs1 | frozenset(Assertion(a, s) for s, _, _ in prem)
            rhs2 = frozenset({Assertion(a, gamma_source)})
            if not entails(lhs2, rhs2):
                return _acr_fail(inst, "(ii)", partition, a, lhs2, rhs2)
        for b in binders:
            assert isinstance(b, Atom)
            lhs3 = env | frozenset(
                Assertion(b, s) for s, l, _ in prem if b in bn_eval(spec, l)
            )
            rhs3 = frozenset({Assertion(b, gamma_source)})
            if not entails(lhs3, rhs3):
                return _acr_fail(inst, "(iii)", partition, b, lhs3, rhs3)
    return None


def _acr_fail(
    inst: Rule,
    constraint: str,
    partition: list[list[MetaAtom]],
    atom: Atom,
    lhs: frozenset[Assertion],
    rhs: frozenset[Assertion],
) -> RuleCheck:
    ident = " ".join(
        "{" + ",".join(m.name for m in block) + "}" for block in partition
    )
    return RuleCheck(
        inst.name,
        "fail",
        constraint,
        f"{describe(inst)} with atoms {ident}, candidate {atom_str(atom)}: "
        f"{env_str(lhs)} does not entail {env_str(rhs)}",
    )


def check_all(spec: Spec) -> list[CheckReport]:
    errors = validate_spec(spec)
    wf = CheckReport(
        "well-formedness",
        tuple(
            [RuleCheck("spec", "pass")]
            if not errors
            else [RuleCheck("spec", "fail", "validation", e) for e in errors]
        ),
    )
    reports = [wf]
    if not errors:
        reports.append(check_equivariant(spec))
        reports.append(check_stratification(spec))
        reports.append(check_acr(spec))
    return reports
