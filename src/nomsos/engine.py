"""Transition derivation: matching rule conclusions against states,
discharging premises and freshness side conditions, and assembling proof
trees.

The search is tabled: a memo maps each (state, candidate-atom set) subgoal
to the residuals found so far, and a cycle is cut by returning the current
table entry.  Such a read is stale, as is the entry of a subgoal the depth
budget cuts off: it may still grow.  The search reruns only after a pass
that made a stale read and added a residual; a pass without stale reads
built every entry from complete ones, so another pass would find nothing
new, and the first tree found for each residual is kept.  A rule that
cycles through its own conclusion can add a deeper residual on every pass,
so the search makes at most `Budget.depth` passes (at least one) and reports
`truncated` when the last still called for another.  A pass solves again
every entry it reaches, but joins semi-naively: an entry and its views only
grow, in insertion order, so a solve skips each combination of premise
residuals that the entry's last solve joined.  It still reads every subgoal
in the same order and at the same depth, so the cuts and the first tree of
each residual stay the same.  Atom
instantiations are drawn from the free atoms of the state plus a bounded
number of fresh representatives per sort; by equivariance of the rule set,
the fresh representatives stand for their whole orbit.

Each rule's plan is worked out once per spec, with one rule index: a map
from each head constructor of a conclusion source to the plans whose source
has that head or is not an application, in rule order. Its `None` bucket
holds the latter alone, for a subgoal of any other head. A subgoal is
matched only against its bucket (first-argument indexing), so it finds the
same matches in the same order. Matching binds every schematic atom it
meets, so by the time a rule's conclusion is reached the atoms of its
conclusion source and of each premise's source and target are fixed, and so
is every variable. Per match, each freshness term that these alone fix is
built once, with its free atoms; an assertion whose atom is fixed too is
decided then, and a failure rejects the match before any pending atom is
bound. Only a term that mentions a pending atom is built per candidate;
every other assertion is a set membership test. A rule without
premises may also have unobserved binders (`_unobserved_binders`): a
schematic binder `c` of its source that it reads only through `[c]x` and
through concretions `((c e))*x` at an `e # [c]x`. Both are invariant under
alpha-renaming, so every candidate for `c` gives the same discharged terms
and residuals, and matching binds `c` to the subject's binder alone, the
option it tries first anyway: the same residuals with the same first trees.

The table is keyed by orbit, in one map from each subgoal reached to its
record. A subgoal's candidate atoms, per sort the sorted free and extra
atoms and then the fresh ones, are renamed in order to atoms 0, 1, 2, ...;
a subgoal that this renaming leaves in place is a representative, whose
record holds a new entry and views its residuals as they are. Any other
subgoal's record shares the entry of its representative's record, which
the search solves once, and carries its residuals back with the inverse
permutation. Trees are carried back lazily, as a subtree and the permutation
still to apply, and moved only when a derivation or a proof leaves the
engine. When a rule has a concrete atom the relation need not be
equivariant, and every subgoal is its own representative. Renaming keeps
the order of the candidates but not the index order of the atoms, which
breaks ties where matching tries the subject's own binder, the least atom
not free in it, first. So a tree carried back may name such a binder
differently from the first tree of a search keyed by the literal subgoal;
it replays all the same.

Keys of one state whose extra atoms differ only in atoms that the entry of
the first one absorbs share its record (`_Search._shared`). An absorbed
atom is free in the state, so the pool holds it either way, and each
record the entry's solve joined absorbs it too or has it among the
premise's own atoms (`_absorbed`). So every node below sees the same pool,
makes the same matches in the same order and builds the same residuals
with the same first trees: the answers cannot change. This needs every
entry complete once settled, so the search shares only where no subgoal
recurs below itself and no depth cut falls: every rule is `_decreasing`,
and the depth budget exceeds the applications in the state.

The plan also holds each rule's patterns compiled into closures, built
once per spec: a matcher (`matching.matcher`) for the conclusion source and
for each premise target, and a builder (`alpha.builder`) for each premise
source, each freshness term and the conclusion target. The search calls
only these, and walks no pattern tree. Every term in the search is
canonical by construction: the entry points normalise the state (and
`prove` its target) once, matching binds variables only to canonical terms,
and the builders build premise sources, freshness terms and residuals in
canonical form, using each bound term as it is.  Matching itself moves a
subject only where it flips it under an abstraction or a delayed
permutation.  `replay` does not rely on
this: it checks the raw instance `Rule.instance` against the tree, with
`alpha_eq`."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable, NamedTuple, Optional

from .alpha import Builder, _free_atoms, _rename, alpha_eq, builder, normalize, nt_fresh
from .atoms import Atom, Permutation
from .matching import AtomPool, Matcher, MatchState, bind_metas, matcher
from .printer import assertion_str, atom_str, formula_str, term_str
from .spec import Rule, Spec, validate_spec
from .terms import (
    Abs,
    App,
    AtomLike,
    MetaAtom,
    RawTerm,
    Susp,
    Tup,
    Var,
    Variable,
    _walk,
    is_ground,
    meta_atoms,
    resolve,
    term_vars,
)


@dataclass(frozen=True)
class Budget:
    depth: int = 1000
    fresh: int = 2

    def __post_init__(self) -> None:
        for name, value in (("depth", self.depth), ("fresh", self.fresh)):
            if value < 0:
                raise ValueError(f"budget {name} must be non-negative, got {value}")


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
    state: Optional[RawTerm] = None
    """The canonical form of the state searched from; None only in an
    enumeration built by hand from the first two fields."""


@dataclass(frozen=True)
class ProveOutcome:
    tree: Optional[ProofTree]
    truncated: bool


def transition_str(tr: Transition) -> str:
    return formula_str(tr.state, tr.residual)


def _by_name(metas: Iterable[MetaAtom]) -> tuple[MetaAtom, ...]:
    return tuple(sorted(metas, key=lambda m: m.name))


@dataclass(frozen=True)
class _PremisePlan:
    """A premise: the schematic atoms its source still has to bind, the
    builder of its source and the matcher of its target."""

    metas: tuple[MetaAtom, ...]
    source: Builder
    target: Matcher


@dataclass(frozen=True)
class _FreshnessPlan:
    """A freshness assertion of a rule: its atom, whether its term and its
    atom are fixed when the search reaches the conclusion, and the builder
    of its term."""

    atom: AtomLike
    term_fixed: bool
    atom_fixed: bool
    build: Builder


def _unobserved_binders(rule: Rule) -> frozenset[MetaAtom]:
    """The schematic binders of an axiom that the rule reads only up to
    alpha-equivalence: each `c` that the conclusion source has once, as the
    binder of `[c]x` for a variable `x` found nowhere else in the source,
    that is the atom of no freshness assertion, and such that elsewhere `c`
    and `x` occur only inside `[c]x` or, in the target, inside a concretion
    `((c e))*x` with `fresh e # [c]x` in the env. Any other binder for `c`
    gives an alpha-equivalent instance: the same discharged terms and
    residuals. A rule with premises has none, since a premise subgoal
    takes every bound atom as an extra atom, so each binder reaches
    another key."""
    if rule.premises:
        return frozenset()
    source, target = rule.conclusion.source, rule.conclusion.target
    walked = list(_walk(source))
    out = set()
    for c in meta_atoms(source) - {ra.atom for ra in rule.env}:
        if walked.count(c) != 1:
            continue
        for x in term_vars(source):
            bound = Abs(c, Var(x))
            fresh = [ra.atom for ra in rule.env if ra.term == bound]
            concretions = [Susp(((c, e),), Var(x)) for e in fresh]
            concretions += [Susp(((e, c),), Var(x)) for e in fresh]
            places = [(source, [bound]), (target, [bound, *concretions])]
            places += [(ra.term, [bound]) for ra in rule.env]
            if not any({c, x} & set(_walk(t, hidden)) for t, hidden in places):
                out.add(c)
    return frozenset(out)


@dataclass(frozen=True)
class _RulePlan:
    """What the search needs of a rule beyond the rule itself, worked out
    once: the schematic atoms each premise source and the conclusion still
    have to bind, sorted by name, the split of its freshness assertions,
    and the binders its source match takes at the subject's binder alone
    (see `_unobserved_binders`). Matching binds every schematic atom it
    meets, so those of the conclusion source and of each premise's source
    and target are fixed by the time the conclusion is reached.

    Each pattern the search reads is compiled here, once: the matcher of the
    conclusion source (with the unobserved binders fixed in it), the
    matcher of each premise target, and the builder of each premise source,
    each freshness term and the conclusion target. A conclusion binds every
    schematic atom of `names` and every variable of `variables`, each sorted
    by name, which is the order of a proof tree's atoms and substitution."""

    rule: Rule
    premises: tuple[_PremisePlan, ...]
    env: tuple[_FreshnessPlan, ...]
    pending: tuple[MetaAtom, ...]
    unobserved: frozenset[MetaAtom]
    source: Matcher
    target: Builder
    names: tuple[str, ...]
    variables: tuple[Variable, ...]

    @staticmethod
    def of(rule: Rule) -> "_RulePlan":
        source, target = rule.conclusion.source, rule.conclusion.target
        fixed = meta_atoms(source).union(
            *(meta_atoms(p.source) | meta_atoms(p.target) for p in rule.premises)
        )
        pending = meta_atoms(target) - fixed
        env = []
        for ra in rule.env:
            term_metas = meta_atoms(ra.term)
            atom_fixed = not isinstance(ra.atom, MetaAtom) or ra.atom in fixed
            pending |= term_metas - fixed
            if not atom_fixed:
                pending |= {ra.atom}
            env.append(_FreshnessPlan(ra.atom, term_metas <= fixed, atom_fixed, builder(ra.term)))
        unobserved = _unobserved_binders(rule)
        bound_vars = term_vars(source).union(*(term_vars(p.target) for p in rule.premises))
        return _RulePlan(
            rule=rule,
            premises=tuple(
                _PremisePlan(_by_name(meta_atoms(p.source)), builder(p.source), matcher(p.target))
                for p in rule.premises
            ),
            env=tuple(env),
            pending=_by_name(pending),
            unobserved=unobserved,
            source=matcher(source, unobserved),
            target=builder(target),
            names=tuple(m.name for m in _by_name(fixed | pending)),
            variables=tuple(sorted(bound_vars, key=lambda v: v.name)),
        )


def _head(term: RawTerm) -> Optional[str]:
    return term.func if isinstance(term, App) else None


def _head_index(plans: tuple[_RulePlan, ...]) -> dict[Optional[str], tuple[_RulePlan, ...]]:
    """For each head constructor of a conclusion source, the plans whose
    conclusion source has that head or is not an application, in rule
    order; under None, the latter alone, for a state of any other head.
    Only these can match a state, so matching against them alone finds the
    same matches in the same order (first-argument indexing)."""
    heads = [_head(p.rule.conclusion.source) for p in plans]
    return {f: tuple(p for p, g in zip(plans, heads) if g in (None, f)) for f in (None, *heads)}


def _decreasing(rule: Rule) -> bool:
    """Whether each premise source of the rule is a variable of its
    conclusion source, an application: then a premise subgoal has fewer
    applications than the subgoal it is a premise of."""
    source = rule.conclusion.source
    return all(
        isinstance(p.source, Var) and isinstance(source, App) and p.source.var in term_vars(source)
        for p in rule.premises
    )


def _applications(t: RawTerm) -> int:
    """The constructor applications in a term."""
    count, stack = 0, [t]
    while stack:
        match stack.pop():
            case App(_, arg):
                count += 1
                stack.append(arg)
            case Abs(_, body) | Susp(_, body):
                stack.append(body)
            case Tup(items):
                stack.extend(items)
    return count


class _Plans(NamedTuple):
    """What the search works out once per spec: the plans of the rules
    indexed by the head of their conclusion source (see `_head_index`),
    whether the rule set is equivariant, and whether every rule is
    `_decreasing`. A rule with a concrete atom breaks equivariance: every
    key is then its own representative."""

    rules: tuple[Rule, ...]
    by_head: dict[Optional[str], tuple[_RulePlan, ...]]
    equivariant: bool
    decreasing: bool


def _plans(spec: Spec) -> _Plans:
    """The plans of the spec's rules, worked out on its first search and
    kept on the spec for as long as its rules are the same tuple. An
    ill-formed spec raises `ValueError` with `validate_spec`'s report: the
    search relies on every rule variable being bound by the time it is
    needed, and on every residual having the residual sort."""
    kept = spec.search_plans
    if not isinstance(kept, _Plans) or kept.rules is not spec.rules:
        report = validate_spec(spec)
        if report:
            raise ValueError("ill-formed spec: " + "; ".join(report))
        kept = spec.search_plans = _Plans(
            spec.rules,
            _head_index(tuple(map(_RulePlan.of, spec.rules))),
            not any(rule.atoms() for rule in spec.rules),
            all(map(_decreasing, spec.rules)),
        )
    return kept


class _Carried(NamedTuple):
    """A proof tree still to be moved by `perm`: a subtree carried back from
    an orbit representative. It lives only inside the search; `_force`
    applies every pending permutation before a tree leaves the engine."""

    tree: "ProofTree"
    perm: Permutation


class _Entry:
    """One orbit representative: its state, extra atoms and pool, the
    residuals found so far with the first tree of each, and the pass that
    last reached it (`settled` once that pass solved it). `joined` is None
    until the entry is first solved; then it maps each record its last
    solve read to the length of the record's view at the first such read.
    Every combination of residuals below those lengths was joined then.
    `absorbed` caches `_absorbed` once a lookup asks for it."""

    __slots__ = ("state", "extra", "pool", "residuals", "reached", "settled", "joined", "absorbed")

    def __init__(self, state: RawTerm, extra: frozenset[Atom], pool: AtomPool):
        self.state = state
        self.extra = extra
        self.pool = pool
        self.residuals: dict[RawTerm, ProofTree] = {}
        self.reached = 0
        self.settled = False
        self.joined: Optional[dict[_Record, int]] = None
        self.absorbed: Optional[frozenset[Atom]] = None


class _Record:
    """One literal key: the entry of its representative, the permutation
    that carries that entry back (None when the key is its own
    representative), and the entry as carried back so far. An entry only
    grows and never replaces a residual, so the view is extended with the
    residuals added since the last call."""

    __slots__ = ("entry", "inverse", "view")

    def __init__(self, entry: _Entry, inverse: Optional[Permutation]):
        self.entry = entry
        self.inverse = inverse
        self.view: dict[RawTerm, ProofTree | _Carried] = (
            entry.residuals if inverse is None else {}
        )

    def carried(self) -> dict[RawTerm, ProofTree | _Carried]:
        inverse = self.inverse
        if inverse is not None and len(self.view) < len(self.entry.residuals):
            for residual, tree in islice(self.entry.residuals.items(), len(self.view), None):
                self.view[_rename(inverse.image, residual)] = _Carried(tree, inverse)
        return self.view

    def moved(self, atoms: frozenset[Atom]) -> frozenset[Atom]:
        """Atoms of the entry, carried back to this record's key."""
        if self.inverse is None:
            return atoms
        image = self.inverse.image
        return frozenset([image.get(a, a) for a in atoms])


def _absorbed(entry: _Entry) -> frozenset[Atom]:
    """The free atoms of a settled entry's state whose presence among its
    extra atoms no subgoal below can see: each record its solve joined
    absorbs such an atom too, or has it among the premise's own atoms."""
    if entry.absorbed is None:
        atoms = _free_atoms(entry.state)
        for record in entry.joined:
            absorbed = record.moved(_absorbed(record.entry))
            atoms &= absorbed | (record.moved(record.entry.extra) - entry.extra)
        entry.absorbed = atoms
    return entry.absorbed


class _Search:
    def __init__(self, spec: Spec, budget: Budget):
        self.budget = budget
        _, self.by_head, self.equivariant, self.decreasing = _plans(spec)
        self.records: dict[tuple, _Record] = {}
        # The records made while sharing, by state and the extra atoms not free in it.
        self.by_state: dict[tuple, list[tuple[frozenset[Atom], _Record]]] = {}
        self.sharing = False
        self.truncated = False
        self.changed = False
        self.stale = False
        self.passes = 0

    def run(
        self, state: RawTerm, extra: frozenset[Atom]
    ) -> dict[RawTerm, ProofTree | _Carried]:
        # Under decreasing rules every chain of subgoals is shorter than the
        # applications in the state: no cycle, no cut, no stale read.
        self.sharing = self.decreasing and self.budget.depth > _applications(state)
        for _ in range(max(self.budget.depth, 1)):
            self.passes += 1
            self.changed = False
            self.stale = False
            entry = self._solve(self._record(state, extra), self.budget.depth)
            if not (self.changed and self.stale):
                return entry
        self.truncated = True
        return entry

    def _canonical(self, pool: AtomPool) -> dict[Atom, Atom]:
        """The renaming that maps, per sort, the pool's candidates in order
        onto atoms 0, 1, 2, ...; the atoms it maps onto are sent back to
        the candidates it frees, in order, so it is a bijection. Empty when
        a rule has a concrete atom."""
        moved = {}
        if self.equivariant:
            for sort in {a.sort for a in pool.atoms}:
                for i, c in enumerate(pool.candidates(sort)):
                    if c.index != i:
                        moved[c] = Atom(sort, i)
            images = set(moved.values())
            moved.update(zip(sorted(images - moved.keys()), sorted(moved.keys() - images)))
        return moved

    def _record(self, state: RawTerm, extra: frozenset[Atom]) -> _Record:
        """The record of a key, made when the key is first reached. A key
        that `_shared` matches takes that record. Otherwise a key that
        `_canonical` leaves in place is its own representative and gets a
        new entry; any other key shares the entry of its representative's
        record, carried back by the inverse renaming."""
        key = (state, extra)
        record = self.records.get(key)
        if record is None:
            free = _free_atoms(state)
            same = self.by_state.setdefault((state, extra - free), []) if self.sharing else []
            record = self._shared(same, extra)
            if record is None:
                pool = AtomPool(tuple(sorted(free | extra)), self.budget.fresh)
                moved = self._canonical(pool)
                if moved:
                    rep_extra = frozenset(moved.get(a, a) for a in extra)
                    rep = self._record(_rename(moved, state), rep_extra)
                    record = _Record(rep.entry, Permutation({b: a for a, b in moved.items()}))
                else:
                    record = _Record(_Entry(state, extra, pool), None)
                same.append((extra, record))
            self.records[key] = record
        return record

    def _shared(
        self, same: list[tuple[frozenset[Atom], _Record]], extra: frozenset[Atom]
    ) -> Optional[_Record]:
        """Of the records made for keys of one state whose extra atoms differ
        from `extra` only in atoms free in the state, one whose entry absorbs
        them all (`_absorbed`)."""
        for other, record in same:
            if extra ^ other <= record.moved(_absorbed(record.entry)):
                return record
        return None

    def _solve(self, record: _Record, depth: int) -> dict[RawTerm, ProofTree | _Carried]:
        entry = record.entry
        if entry.reached == self.passes:
            if not entry.settled:
                self.stale = True
        elif depth <= 0:
            self.truncated = True
            self.stale = True
        else:
            entry.reached = self.passes
            entry.settled = False
            joined, entry.joined = entry.joined, {}
            for plan in self.by_head.get(_head(entry.state), self.by_head[None]):
                for st in plan.source(entry.state, MatchState(), entry.pool):
                    self._premises(plan, 0, st, (), entry, depth, joined)
            entry.settled = True
        return record.carried()

    def _premises(
        self,
        plan: _RulePlan,
        i: int,
        st: MatchState,
        children: tuple[ProofTree | _Carried, ...],
        entry: _Entry,
        depth: int,
        joined: Optional[dict[_Record, int]],
    ) -> None:
        """Join premise i onwards: `joined` is the last solve's marks until a residual is new."""
        if i == len(plan.premises):
            if joined is None:
                self._conclude(plan, st, children, entry)
            return
        pp = plan.premises[i]
        pool = entry.pool
        for st1 in bind_metas(pp.metas, st, pool):
            src = pp.source(st1.metas, st1.subst)
            record = self._record(src, entry.extra.union(st1.metas.values()))
            items = list(self._solve(record, depth - 1).items())
            entry.joined.setdefault(record, len(items))
            old = 0 if joined is None else joined.get(record, 0)
            # At the last premise, old residuals complete joined combinations.
            for k in range(old if i + 1 == len(plan.premises) else 0, len(items)):
                residual, subtree = items[k]
                below = joined if k < old else None
                for st2 in pp.target(residual, st1, pool):
                    self._premises(plan, i + 1, st2, children + (subtree,), entry, depth, below)

    def _conclude(
        self,
        plan: _RulePlan,
        st: MatchState,
        children: tuple[ProofTree | _Carried, ...],
        entry: _Entry,
    ) -> None:
        rule = plan.rule
        if rule.excluded_label(st.subst) is not None:
            return
        # Each fixed term, built once per match with its free atoms; an
        # assertion whose atom is fixed too is decided here.
        known: list[Optional[tuple[RawTerm, frozenset[Atom]]]] = []
        for fp in plan.env:
            if not fp.term_fixed:
                known.append(None)
                continue
            t = fp.build(st.metas, st.subst)
            free = _free_atoms(t)
            if fp.atom_fixed and resolve(fp.atom, st.metas) in free:
                return
            known.append((t, free))
        residuals = entry.residuals
        for st1 in bind_metas(plan.pending, st, entry.pool):
            metas, subst = st1.metas, st1.subst
            discharged = []
            ok = True
            for fp, fixed in zip(plan.env, known):
                atom = resolve(fp.atom, metas)
                if fixed is None:
                    t = fp.build(metas, subst)
                    free = _free_atoms(t)
                else:
                    t, free = fixed
                if atom in free:
                    ok = False
                    break
                discharged.append((atom, t))
            if not ok:
                continue
            residual = plan.target(metas, subst)
            if residual in residuals:
                continue
            residuals[residual] = ProofTree(
                rule_name=rule.name,
                atoms=tuple([(n, metas[n]) for n in plan.names]),
                subst=tuple([(v, subst[v]) for v in plan.variables]),
                transition=Transition(entry.state, residual),
                children=children,
                discharged=tuple(discharged),
            )
            self.changed = True


def _force(
    tree: ProofTree | _Carried, perm: Permutation = Permutation.identity()
) -> ProofTree:
    """The proof tree `perm` moves `tree` to, with every subtree carried
    back: no `_Carried` node is left in it."""
    if isinstance(tree, _Carried):
        perm = perm.compose(tree.perm)
        tree = tree.tree
    children = tuple(_force(c, perm) for c in tree.children)
    if perm.is_identity:
        if all(c is d for c, d in zip(children, tree.children)):
            return tree
        return replace(tree, children=children)
    image = perm.image
    return ProofTree(
        rule_name=tree.rule_name,
        atoms=tuple((n, image.get(a, a)) for n, a in tree.atoms),
        subst=tuple((v, _rename(image, t)) for v, t in tree.subst),
        transition=Transition(
            _rename(image, tree.transition.state), _rename(image, tree.transition.residual)
        ),
        children=children,
        discharged=tuple((image.get(a, a), _rename(image, t)) for a, t in tree.discharged),
    )


_SEARCH_TOO_DEEP = (
    "the proof search nests too deeply for the recursion limit: "
    "lower the depth budget (--depth, Budget.depth)"
)


def enumerate_transitions(spec: Spec, state: RawTerm, budget: Budget = Budget()) -> Enumeration:
    """The transitions of `state`, each with its first proof tree. A state
    nested too deeply to normalise raises `RecursionError`; a search whose
    subgoals or trees nest too deeply raises `ValueError`."""
    s = normalize(state)
    base = _free_atoms(s)
    search = _Search(spec, budget)
    derivations = []
    try:
        for residual, tree in search.run(s, frozenset()).items():
            fresh = tuple(sorted(_free_atoms(residual) - base))
            derivations.append(Derivation(Transition(s, residual), _force(tree), fresh))
    except RecursionError:
        raise ValueError(_SEARCH_TOO_DEEP) from None
    derivations.sort(key=lambda d: term_str(d.transition.residual))
    return Enumeration(tuple(derivations), search.truncated, s)


def prove(
    spec: Spec, source: RawTerm, target: RawTerm, budget: Budget = Budget()
) -> ProveOutcome:
    """The first proof tree of `source -> target`; raises as
    `enumerate_transitions` does."""
    r = normalize(target)
    s = normalize(source)
    search = _Search(spec, budget)
    try:
        tree = search.run(s, _free_atoms(r)).get(r)
        if tree is None:
            return ProveOutcome(None, search.truncated)
        return ProveOutcome(_force(tree), False)
    except RecursionError:
        raise ValueError(_SEARCH_TOO_DEEP) from None


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

    r = rule.instance(asg, subst)
    if not alpha_eq(r.conclusion.source, tree.transition.state):
        errors.append(f"{where}: conclusion source mismatch")
    if not alpha_eq(r.conclusion.target, tree.transition.residual):
        errors.append(f"{where}: conclusion target mismatch")
    if len(tree.children) != len(r.premises):
        errors.append(f"{where}: expected {len(r.premises)} premises")
    else:
        for premise, child in zip(r.premises, tree.children):
            if not alpha_eq(premise.source, child.transition.state):
                errors.append(f"{where}: premise source mismatch")
            if not alpha_eq(premise.target, child.transition.residual):
                errors.append(f"{where}: premise target mismatch")
            errors.extend(replay(spec, child))
    for ra in r.env:
        if not nt_fresh(ra.atom, ra.term):
            errors.append(f"{where}: freshness {ra} fails")
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
        "freshness": [assertion_str(a, t) for a, t in tree.discharged],
        "children": [tree_dict(c) for c in tree.children],
    }


def tree_text(tree: ProofTree, indent: int = 0) -> str:
    pad = "  " * indent
    lines = [f"{pad}{transition_str(tree.transition)}   [{tree.rule_name}]"]
    for a, t in tree.discharged:
        lines.append(f"{pad}  with {assertion_str(a, t)}")
    for child in tree.children:
        lines.append(tree_text(child, indent + 1))
    return "\n".join(lines)
