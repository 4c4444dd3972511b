"""Static format checkers: absence of concrete atoms (closure of the rule
set under permutations), stratification coverage/decrease, and the residual
alpha-conversion constraints.

The last two work per label instance. A label instance is a `Rule`: the rule
itself when its conclusion label is headed by a constructor, and otherwise
one instance (`Rule.instance`) per action constructor the label variable may
stand for (minus its excluded labels), with fresh schematic atoms at the
constructor's atom positions and fresh variables elsewhere.

Stratification owns the defined order: it matches every label instance
against the order cases once, and its report's `defined` holds the instances
some case matches. The residual alpha-conversion check constrains exactly
those, so `check_acr(spec, defined)` reads them instead of matching again.

Matching a case against a label instance has one "unknown" rule: a case
shape other than a variable against a rule variable or delayed permutation,
and a concrete atom, binder or delayed permutation in the case, fall outside
the sufficient conditions. So, in both checks, does a label instance with
a premise residual that is not a (label, target) pair. A match leaves
pairs of rule atoms that must be equal or must differ, decided together:
the case matches when some partition that `_consistent_partitions` yields
(the ones the ACR check decides; with none, the schematic atoms as
written) satisfies every pair, and is guaranteed to when all do. A pair of
a schematic and a concrete atom, which no partition identifies, is open:
it can match but is never guaranteed. Neither check decides more than
`PARTITION_CAP` partitions of an instance: past the cap, a case that needs
them and the instance's ACR check are unknown, with the cap as reason."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from itertools import count
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
from .freshness import Assertion, entails_reduced, is_consistent_reduced, nf, reduce
from .printer import atom_str, env_str, term_str
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
    meta_atoms,
    resolve,
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
    # stratification only, not printed: the label instances some order case
    # matches, in rule order and then instance order
    defined: tuple[Rule, ...] = ()

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
            "rules": [asdict(c) for c in self.checks],
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
    """The (label, target) of the conclusion residual of a label instance,
    a pair by `label_instances`."""
    pair = Spec.split_residual(t)
    if pair is None:
        raise ValueError(f"residual is not a (label, target) pair: {term_str(t)}")
    return pair


def describe(inst: Rule) -> str:
    """A label instance as `Rule@head`, head the constructor of its label."""
    label = _residual(inst.conclusion.target)[0]
    head = label.func if isinstance(label, App) else term_str(label)
    return f"{inst.name}@{head}"


def _premise_parts(inst: Rule) -> Optional[list[tuple[RawTerm, RawTerm, RawTerm]]]:
    """(source, label, target) per premise, the target the whole residual;
    None when a premise residual is not a (label, target) pair."""
    parts = []
    for p in inst.premises:
        pair = Spec.split_residual(p.target)
        if pair is None:
            return None
        parts.append((p.source, pair[0], p.target))
    return parts


def _fresh_label_term(decl: FuncDecl, taken: set[str]) -> tuple[RawTerm, list[MetaAtom]]:
    """A most general pattern for one action constructor: fresh schematic
    atoms at atom positions, fresh variables elsewhere. Names `_b<i>` and
    `_v<i>` share one counter and skip the names in `taken`: the rule's
    schematic atoms and variables, so no variable of the rule is captured."""
    items: list[RawTerm] = []
    new_metas: list[MetaAtom] = []
    numbers = count(1)
    for part in prod_parts(decl.arg):
        prefix = "_b" if isinstance(part, AtomSortRef) else "_v"
        name = next(n for n in (f"{prefix}{i}" for i in numbers) if n not in taken)
        if isinstance(part, AtomSortRef):
            new_metas.append(MetaAtom(name, part.sort))
            items.append(Atm(new_metas[-1]))
        else:
            items.append(Var(Variable(name, part)))
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
    taken = {m.name for m in rule.metas} | {v.name for t in rule.terms() for v in term_vars(t)}
    out = []
    for decl in spec.signature.constructors_of(action.name):
        if decl.name in excluded:
            continue
        term, new_metas = _fresh_label_term(decl, taken)
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
    None = outside the sufficient conditions (see the module docstring)."""
    if isinstance(case_pat, Var):
        seen = bind.vars.setdefault(case_pat.var, rule_pat)
        return seen == rule_pat
    if isinstance(rule_pat, (Var, Susp)):
        return None
    match case_pat:
        case App(f, arg):
            if not isinstance(rule_pat, App) or rule_pat.func != f:
                return False
            return _sym_match(arg, rule_pat.arg, bind)
        case Tup(items):
            if not isinstance(rule_pat, Tup) or len(rule_pat.items) != len(items):
                return False
            for c, r in zip(items, rule_pat.items):
                if (res := _sym_match(c, r, bind)) is not True:
                    return res
            return True
        case Atm(MetaAtom() as m):
            if not isinstance(rule_pat, Atm):
                return False
            bind.bind_meta(m, rule_pat.atom)
            return True
        case Abs(a, body):
            if not isinstance(rule_pat, Abs):
                return False
            if not isinstance(a, MetaAtom):
                return None
            bind.bind_meta(a, rule_pat.binder)
            return _sym_match(body, rule_pat.body, bind)
    return None  # a concrete case atom, or a delayed permutation


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


def _partitions(metas: list[MetaAtom]) -> Iterator[list[list[MetaAtom]]]:
    """All partitions whose blocks are sort-homogeneous (schematic atoms can
    only be identified within a sort), yielded one at a time."""
    if not metas:
        yield []
        return
    first, rest = metas[0], metas[1:]
    for part in _partitions(rest):
        yield [[first]] + part
        for i, block in enumerate(part):
            if block[0].sort == first.sort:
                yield part[:i] + [[first] + block] + part[i + 1 :]


# The most partitions of a label instance's schematic atoms that a check
# decides, above the 877 of seven atoms; past it the check reports unknown.
PARTITION_CAP = 1000


class _TooManyPartitions(Exception):
    """A label instance has more than `PARTITION_CAP` partitions."""


def _capped(inst: Rule) -> str:
    return f"{describe(inst)}: more than {PARTITION_CAP} partitions of its schematic atoms"


def _consistent_partitions(
    inst: Rule,
) -> Iterator[tuple[list[list[MetaAtom]], dict[str, Atom], frozenset[Assertion]]]:
    """In `_partitions` order, each partition of a label instance's schematic
    atoms whose freshness environment, under its `_assignment`, is consistent,
    with that assignment and environment reduced. Each is judged on its own
    env: one identifying a pair may be inconsistent while a coarser one is not.
    Raises `_TooManyPartitions` on reaching a partition past the cap."""
    literals = inst.atoms()
    for i, partition in enumerate(_partitions(sorted(set(inst.metas), key=lambda m: m.name))):
        if i == PARTITION_CAP:
            raise _TooManyPartitions
        asg = _assignment(partition, literals)
        env = nf(Assertion(resolve(a.atom, asg), instantiate(a.term, asg)) for a in inst.env)
        if is_consistent_reduced(env):
            yield partition, asg, env


@dataclass(frozen=True)
class CaseMatch:
    case: StratCase
    guaranteed: bool  # every env-consistent instance of the rule matches
    bind: _Bind


def case_matches(spec: Spec, inst: Rule) -> tuple[list[CaseMatch], Optional[str]]:
    """Stratification cases that can match some valid instance of the rule's
    conclusion, and why a case could not be decided (status unknown), if
    one could not: its shape fell outside the sufficient matching
    conditions, or it needs the partitions of an instance past the cap. The
    atom pairs are the identifications, which must be equal, then the
    `when` constraints."""
    out = []
    unknown: Optional[str] = None
    label = _residual(inst.conclusion.target)[0]
    asgs: Optional[list[dict[str, Atom]]] = None  # of `_consistent_partitions`, once
    capped = False
    for case in spec.strat:
        bind = _Bind()
        res = _sym_match(case.label, label, bind)
        if res is True:
            res = _sym_match(case.head, inst.conclusion.source, bind)
        if res is not True:
            if res is None:
                unknown = unknown or _OUTSIDE
            continue
        pairs = [(x, y, True) for x, y in bind.identifications] + [
            (bind.metas.get(m1), bind.metas.get(m2), eq) for m1, m2, eq in case.constraints
        ]
        if any(x is None or y is None for x, y, _ in pairs):
            unknown = unknown or _OUTSIDE
            continue
        # a schematic atom against a concrete one stays open: no partition
        # identifies the two, though an instance may
        decided = [p for p in pairs if isinstance(p[0], MetaAtom) == isinstance(p[1], MetaAtom)]
        if any(isinstance(x, MetaAtom) and x != y for x, y, _ in decided):
            if asgs is None and not capped:
                try:
                    asgs = [asg for _, asg, _ in _consistent_partitions(inst)]
                except _TooManyPartitions:
                    capped = True
            if capped:
                unknown = unknown or _capped(inst)
                continue
        # with no consistent partition, the schematic atoms as written
        holds = [
            all((resolve(x, asg) == resolve(y, asg)) == eq for x, y, eq in decided)
            for asg in asgs or [{}]
        ]
        if any(holds):
            out.append(CaseMatch(case, all(holds) and len(decided) == len(pairs), bind))
    return out, unknown


# --- stratification ------------------------------------------------------------

# The witness of an unknown verdict: a case shape the matcher cannot decide,
# or a premise residual that is not a (label, target) pair.
_OUTSIDE = "rule shape outside the syntactic sufficient conditions"


def check_stratification(spec: Spec) -> CheckReport:
    checks = []
    defined: list[Rule] = []
    for rule in spec.rules:
        failure: Optional[RuleCheck] = None
        unknown: Optional[str] = None
        for inst in label_instances(spec, rule):
            matches, why = case_matches(spec, inst)
            unknown = unknown or why or (_OUTSIDE if _premise_parts(inst) is None else None)
            if matches:
                defined.append(inst)
            if failure is None:
                failure = _strat_failure(spec, inst, matches)
        if failure is None and unknown:
            failure = RuleCheck(rule.name, "unknown", "decrease", unknown)
        checks.append(failure or RuleCheck(rule.name, "pass"))
    notes = ("defined order: " + (", ".join(map(describe, defined)) or "none"),)
    return CheckReport("stratification", tuple(checks), notes, tuple(defined))


def _strat_failure(spec: Spec, inst: Rule, matches: list[CaseMatch]) -> Optional[RuleCheck]:
    """The coverage or decrease failure of one label instance, if any."""
    binding = bn_eval(spec, _residual(inst.conclusion.target)[0])
    if binding and not any(m.guaranteed for m in matches):
        return RuleCheck(
            inst.name,
            "fail",
            "coverage",
            f"{describe(inst)}: the conclusion label binds "
            f"{', '.join(sorted(atom_str(b) for b in binding))} "
            "but no stratification case is guaranteed to match",
        )
    problem = _check_decrease(inst, matches)
    if problem is None:
        return None
    return RuleCheck(inst.name, "fail", "decrease", f"{describe(inst)}: {problem}")


def _check_decrease(inst: Rule, matches: list[CaseMatch]) -> Optional[str]:
    """Every premise source must be a variable covered by a recursive call of
    each matching case, with the premise label equal to the call's label."""
    parts = _premise_parts(inst)
    if not inst.premises or parts is None:
        return None  # nothing to decrease, or an unknown shape
    for cm in matches:
        if cm.case.base is not None:
            return (
                f"case with constant measure {cm.case.base} matches a rule "
                "with premises"
            )
        bind = cm.bind
        calls = [
            (bind.vars.get(v, Var(v)), subst_apply(bind.vars, instantiate(labpat, bind.metas)))
            for v, labpat in cm.case.recursion
        ]
        for psource, plabel, _ in parts:
            if not isinstance(psource, Var):
                return f"premise source {term_str(psource)} is not a variable"
            if (psource, plabel) not in calls:
                return (
                    f"premise {term_str(psource)} -> ... @ {term_str(plabel)} "
                    "has no matching recursive call"
                )
    return None


# --- residual alpha-conversion constraints --------------------------------------


class _ClosedTerms:
    """The smallest ground term of each sort of a signature, worked out once
    per check up to its atoms: a stored term has a schematic atom
    (`_placeholder`) for the free atoms of each atom sort and another for
    its binders."""

    def __init__(self, sig: Signature):
        self.atom_sorts = sig.atom_sorts
        self.best: dict[str, tuple[int, RawTerm]] = {}
        for _ in range(len(sig.functions) + 1):
            changed = False
            for f in sig.functions:
                r = _closed(f.arg, self.best)
                if r is not None and (f.result not in self.best or 1 + r[0] < self.best[f.result][0]):
                    self.best[f.result] = (1 + r[0], App(f.name, r[1]))
                    changed = True
            if not changed:
                break

    def smallest(self, sort: NominalSort, avoid: set[Atom]) -> Optional[RawTerm]:
        """Smallest ground term of a sort. Per atom sort, its free atoms are
        the least atom not in `avoid` and its binders the next one, so the
        term is fresh for everything a check puts in `avoid`."""
        r = _closed(sort, self.best)
        moved = {
            _placeholder(alpha, i).name: a
            for alpha in self.atom_sorts
            for i, a in enumerate(fresh_atoms(alpha, avoid, 2))
        }
        return None if r is None else instantiate(r[1], moved)


def _placeholder(alpha: AtomSort, i: int) -> MetaAtom:
    """The schematic atom a stored closed term has for its free atoms of
    `alpha` (i = 0) or for its binders of `alpha` (i = 1)."""
    return MetaAtom(f"{('free', 'bound')[i]} {alpha.name}", alpha)


def _closed(s: NominalSort, best: dict[str, tuple[int, RawTerm]]) -> Optional[tuple[int, RawTerm]]:
    """Size and term of the smallest ground term of sort `s` built from the
    smallest term found so far for each base sort."""
    match s:
        case AtomSortRef(alpha):
            return 1, Atm(_placeholder(alpha, 0))
        case AbsSort(alpha, body):
            b = _closed(body, best)
            if b is None:
                return None
            return 1 + b[0], Abs(_placeholder(alpha, 1), b[1])
        case ProdSort(parts):
            total, items = 1, []
            for p in parts:
                r = _closed(p, best)
                if r is None:
                    return None
                total += r[0]
                items.append(r[1])
            return total, Tup(tuple(items))
        case BaseSort(name):
            return best.get(name)
    return None


def check_acr(spec: Spec, defined: tuple[Rule, ...]) -> CheckReport:
    """Constraints (i)-(iii) on each label instance of `defined`, the
    instances on which `check_stratification(spec)` defines the order."""
    checks = []
    closed = _ClosedTerms(spec.signature)
    for rule in spec.rules:
        instances = [inst for inst in defined if inst.name == rule.name]
        if not instances:
            checks.append(
                RuleCheck(rule.name, "skipped", "", "no defined-order instance")
            )
            continue
        failures = (_check_acr_instance(spec, inst, closed) for inst in instances)
        checks.append(next(filter(None, failures), RuleCheck(rule.name, "pass")))
    return CheckReport("residual alpha-conversion format", tuple(checks))


def _check_acr_instance(spec: Spec, inst: Rule, closed: _ClosedTerms) -> Optional[RuleCheck]:
    """Constraints (i)-(iii) on one label instance, for each partition of its
    schematic atoms whose env, reduced once, is consistent; on the others every
    left side holds the env, so (i)-(iii) hold. Each assertion about a candidate
    atom is reduced once; an obligation is a union and an inclusion of them."""
    if _premise_parts(inst) is None:
        return RuleCheck(inst.name, "unknown", "", f"{describe(inst)}: {_OUTSIDE}")

    # D-variables: source variables that occur nowhere else in the rule
    d_vars = term_vars(inst.conclusion.source).difference(
        *(term_vars(t) for p in inst.premises for t in (p.source, p.target)),
        term_vars(_residual(inst.conclusion.target)[1]),
        *(term_vars(a.term) for a in inst.env),
    )

    # The atoms of the rule, with every atom a partition below can give a
    # schematic atom; the closed terms and the fresh candidates avoid them.
    literals = inst.atoms()
    taken = set(literals)
    for sort in {m.sort for m in inst.metas}:
        taken |= set(fresh_atoms(sort, literals, len(inst.metas)))

    gamma: dict[Variable, RawTerm] = {}
    for v in sorted(d_vars, key=lambda v: v.name):
        t = closed.smallest(v.sort, taken)
        if t is None:
            return RuleCheck(
                inst.name,
                "fail",
                "(ii)",
                f"{describe(inst)}: no closed term inhabits the sort of {v.name}",
            )
        gamma[v] = t
        taken |= support(t)

    # Collected once: the source's atoms and schematic atoms, whose images
    # under a partition's assignment are the atoms of the instance's source,
    # and the concrete atoms of the rule's formulas, which with the images
    # of all schematic atoms are the atoms of the instance's formulas.
    source_atoms = support(inst.conclusion.source) | meta_atoms(inst.conclusion.source)
    fixed = frozenset().union(
        *(support(f.source) | support(f.target) for f in (inst.conclusion, *inst.premises))
    )
    fresh = [
        a
        for s in sorted(spec.signature.atom_sorts, key=lambda s: s.name)
        for a in fresh_atoms(s, taken, 1)
    ]

    try:
        for partition, asg, env in _consistent_partitions(inst):
            r = inst.instance(asg)
            parts = _premise_parts(r)
            assert parts is not None  # as for inst: instantiating keeps each pair
            source, target_pair = r.conclusion.source, r.conclusion.target
            gamma_source = subst_apply(gamma, source)
            sources = [s for s, _, _ in parts]
            targets = [t for _, _, t in parts]

            source_support = (resolve(c, asg) for c in source_atoms)
            excluded = {c for c in source_support if isinstance(c, Atom) and not reduce(c, source)}
            candidates = sorted((set(asg.values()) | fixed) - excluded) + fresh

            for a in candidates:
                lhs1 = env | reduce(a, target_pair)
                if not entails_reduced(lhs1, _reduce_each(a, targets)):
                    return _acr_fail(inst, "(i)", partition, a, r.env, [target_pair], targets)
                lhs2 = lhs1 | _reduce_each(a, sources)
                if not entails_reduced(lhs2, reduce(a, gamma_source)):
                    lhs = [target_pair, *sources]
                    return _acr_fail(inst, "(ii)", partition, a, r.env, lhs, [gamma_source])
            for b in bn_eval(spec, _residual(target_pair)[0]):
                assert isinstance(b, Atom)
                # the sources of the premises whose label, in r, binds b
                bound = [s for s, l, _ in parts if b in bn_eval(spec, l)]
                if not entails_reduced(env | _reduce_each(b, bound), reduce(b, gamma_source)):
                    return _acr_fail(inst, "(iii)", partition, b, r.env, bound, [gamma_source])
    except _TooManyPartitions:
        return RuleCheck(inst.name, "unknown", "", _capped(inst))
    return None


def _reduce_each(a: Atom, terms: Iterable[RawTerm]) -> frozenset[Assertion]:
    return frozenset().union(*(reduce(a, t) for t in terms))


def _acr_fail(
    inst: Rule,
    constraint: str,
    partition: list[list[MetaAtom]],
    atom: Atom,
    env: Iterable[Assertion],
    lhs: Iterable[RawTerm],
    rhs: Iterable[RawTerm],
) -> RuleCheck:
    """The failure of a constraint, its witness the entailment as written:
    env with atom # t for t in lhs does not entail atom # t for t in rhs."""
    left = frozenset(env) | {Assertion(atom, t) for t in lhs}
    right = frozenset(Assertion(atom, t) for t in rhs)
    ident = " ".join(
        "{" + ",".join(m.name for m in block) + "}" for block in partition
    )
    return RuleCheck(
        inst.name,
        "fail",
        constraint,
        f"{describe(inst)} with atoms {ident}, candidate {atom_str(atom)}: "
        f"{env_str(left)} does not entail {env_str(right)}",
    )


def check_all(spec: Spec) -> list[CheckReport]:
    errors = validate_spec(spec)
    failed = [RuleCheck("spec", "fail", "validation", e) for e in errors]
    reports = [CheckReport("well-formedness", tuple(failed or [RuleCheck("spec", "pass")]))]
    if not errors:
        reports.append(check_equivariant(spec))
        strat = check_stratification(spec)
        reports += [strat, check_acr(spec, strat.defined)]
    return reports
