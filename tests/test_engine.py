"""Transition derivation: proof-tree search, enumeration, and replay."""

import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

import nomsos
from nomsos import (
    Budget,
    corpus_path,
    enumerate_transitions,
    normalize,
    nt_support,
    parse_spec,
    parse_term_str,
    prove,
    replay,
    term_str,
    transition_str,
    tree_dict,
    tree_text,
)
from nomsos.matching import AtomPool, MatchState, match_term
from nomsos.terms import Var, instantiate, subst_apply, term_vars

from conftest import atoms, random_state, random_term


def _t(spec, s):
    return parse_term_str(spec, s)


def _residuals(spec, s, **kw):
    enum = enumerate_transitions(spec, _t(spec, s), **kw)
    return sorted(term_str(d.transition.residual) for d in enum.derivations)


def test_output_axiom(pi_spec):
    assert _residuals(pi_spec, "out(a, b, null)") == ["(outA(a, b), null)"]


def test_input_binder_instantiation(pi_spec):
    # the received name ranges over the support of the state plus the
    # configured number of fresh atoms (default budget: 2 fresh)
    rs = _residuals(pi_spec, "in(a, [c]out(c, c, null))")
    assert "(inA(a, a), out(a, a, null))" in rs
    assert "(inA(a, b), out(b, b, null))" in rs
    assert len(rs) == 3  # a itself plus two fresh receipts


def test_scope_opening_tree(pi_spec):
    out = prove(
        pi_spec,
        _t(pi_spec, "new([b]out(a, b, null))"),
        _t(pi_spec, "(boutA(a, b), null)"),
    )
    tree = out.tree
    assert tree is not None
    assert tree.rule_name == "Open"
    assert len(tree.children) == 1
    child = tree.children[0]
    assert child.rule_name == "Out"
    assert child.children == ()
    assert transition_str(child.transition) == "out(a, b, null) -> (outA(a, b), null)"
    assert tree.discharged == ((tree.discharged[0][0], tree.discharged[0][1]),)
    assert "with b # a" in tree_text(tree)
    d = tree_dict(tree)
    assert d["rule"] == "Open" and d["children"][0]["rule"] == "Out"


def test_restricted_output_not_provable(pi_spec):
    out = prove(
        pi_spec,
        _t(pi_spec, "new([b]out(a, b, null))"),
        _t(pi_spec, "(outA(a, b), null)"),
    )
    assert out.tree is None and not out.truncated


def test_communication_with_scope_closing(pi_spec):
    rs = _residuals(pi_spec, "par(new([b]out(a, b, null)), in(a, [c]null))")
    assert "(tauA, new([a]par(null, null)))" in rs


def test_replication(pi_spec):
    rs = _residuals(pi_spec, "rep(out(a, b, null))")
    assert rs == ["(outA(a, b), par(null, rep(out(a, b, null))))"]


def test_sum_and_par(pi_spec):
    rs = _residuals(pi_spec, "sum(out(a, b, null), out(b, a, null))")
    assert "(outA(a, b), null)" in rs and "(outA(b, a), null)" in rs
    rs = _residuals(pi_spec, "par(out(a, b, null), null)")
    assert rs == ["(outA(a, b), par(null, null))"]


def test_restriction_blocks_restricted_channel(pi_spec):
    assert _residuals(pi_spec, "new([a]out(a, b, null))") == []
    # but an unrelated restriction commutes with the step (the residual
    # binder is printed in canonical form, renamed to the least free atom)
    rs = _residuals(pi_spec, "new([c]out(a, b, null))")
    assert rs == ["(outA(a, b), new([a]null))"]


def test_no_transitions_from_null(pi_spec):
    assert _residuals(pi_spec, "null") == []


def test_replay_accepts_all_enumerated_trees(pi_spec):
    rng = random.Random(11)
    for _ in range(60):
        p = random_state(rng, pi_spec, depth=3)
        enum = enumerate_transitions(pi_spec, p)
        for d in enum.derivations:
            assert replay(pi_spec, d.tree) == [], tree_text(d.tree)


def test_prove_agrees_with_enumeration(pi_spec):
    rng = random.Random(12)
    for _ in range(40):
        p = random_state(rng, pi_spec, depth=3)
        enum = enumerate_transitions(pi_spec, p)
        for d in enum.derivations:
            out = prove(pi_spec, d.transition.state, d.transition.residual)
            assert out.tree is not None, transition_str(d.transition)


def test_enumeration_deterministic(pi_spec):
    rng = random.Random(13)
    for _ in range(20):
        p = random_state(rng, pi_spec, depth=3)
        r1 = [transition_str(d.transition) for d in
              enumerate_transitions(pi_spec, p).derivations]
        r2 = [transition_str(d.transition) for d in
              enumerate_transitions(pi_spec, p).derivations]
        assert r1 == r2
        assert r1 == sorted(r1)


def test_depth_budget_truncation(pi_spec):
    deep = "out(a, b, null)"
    for _ in range(5):
        deep = f"par({deep}, null)"
    enum = enumerate_transitions(pi_spec, _t(pi_spec, deep), Budget(depth=2))
    assert enum.truncated and not enum.derivations
    enum = enumerate_transitions(pi_spec, _t(pi_spec, deep), Budget(depth=20))
    assert not enum.truncated and enum.derivations


def test_negative_budget_is_rejected():
    for field in ("depth", "fresh"):
        with pytest.raises(ValueError, match=f"budget {field} must be non-negative"):
            Budget(**{field: -1})
    assert Budget(depth=0).depth == 0


def test_fresh_budget_controls_input_width(pi_spec):
    rs = _residuals(pi_spec, "in(a, [c]null)", budget=Budget(fresh=1))
    assert rs == ["(inA(a, a), null)", "(inA(a, b), null)"]
    rs = _residuals(pi_spec, "in(a, [c]null)", budget=Budget(fresh=3))
    assert len(rs) == 4


def test_stale_read_forces_another_pass():
    # Comm reads sum(x2,x1) while sum(x1,x2) is still being solved: the
    # first pass sees a partial table entry, so a second pass must run.
    text = corpus_path("pi.spec").read_text(encoding="utf-8")
    text = text[: text.index("rule SumR")] + text[text.index("rule ParL") :]
    text = text.replace(
        "rule SumL",
        "rule Comm :\n  premise sum(x2,x1) -> (l, y) ;\n"
        "  conclusion sum(x1,x2) -> (l, y) ;\n\nrule SumL",
    )
    spec = parse_spec(text)
    state = "par(sum(out(a,b,null), in(b,[c]null)), sum(in(b,[c]null), out(a,b,null)))"
    enum = enumerate_transitions(spec, _t(spec, state))
    assert len(enum.derivations) == 8
    assert not enum.truncated


def _complete(rng, spec, rule, st, pool):
    """Every binding of the rule's remaining schematic atoms from the pool,
    with each remaining variable bound to a random canonical term."""
    unbound = [m for m in rule.metas if m.name not in st.metas]
    for combo in product(*(pool.candidates(m.sort) for m in unbound)):
        st1 = st
        for m, a in zip(unbound, combo):
            st1 = st1.with_meta(m.name, a)
        free = set().union(*map(term_vars, rule.terms())) - st1.subst.keys()
        for v in sorted(free, key=lambda v: v.name):
            st1 = st1.with_var(v, normalize(random_term(rng, spec, v.sort, 2, atoms(3))))
        yield st1


def test_instantiate_canon_is_full_normalisation(pi_spec):
    # Matching binds variables to canonical terms and canonical form is
    # local, so the engine's instantiation, which uses each bound term as
    # it is, agrees with normalising the whole instance.
    rng = random.Random(31)
    checked = Counter()
    moved = Counter()  # instances that full normalisation changes
    for _ in range(40):
        state = normalize(random_state(rng, pi_spec, depth=3))
        pool = AtomPool(tuple(sorted(nt_support(state))), 2)
        for rule in pi_spec.rules:
            for st in match_term(rule.conclusion.source, state, MatchState(), pool):
                for st1 in _complete(rng, pi_spec, rule, st, pool):
                    patterns = [rule.conclusion.target]
                    patterns += [p.source for p in rule.premises]
                    patterns += [ra.term for ra in rule.env]
                    for p in patterns:
                        raw = subst_apply(st1.subst, instantiate(p, st1.metas))
                        full = normalize(raw)
                        assert normalize(p, st1.metas, st1.subst) == full, rule.name
                        checked[rule.name] += 1
                        moved[rule.name] += raw != full
    # binder-free, a binder that is not yet least, a delayed permutation
    assert checked["ParL"] and not moved["ParL"]
    assert moved["Res"] and moved["CloseL"]
    assert moved["In"]


def test_deep_chain_fits_the_stack(pi_spec):
    # A sum chain 300 deep derives its one transition untruncated; one
    # about 340 deep overflows the stack in `normalize`, which recurses
    # three frames per level.
    deep = "out(a, b, null)"
    for _ in range(300):
        deep = f"sum({deep}, null)"
    enum = enumerate_transitions(pi_spec, _t(pi_spec, deep))
    assert not enum.truncated
    assert [term_str(d.transition.residual) for d in enum.derivations] == [
        "(outA(a, b), null)"
    ]


_DEEP_CHAIN_CHILD = """
from nomsos import Atm, Atom, AtomSort, App, Tup, load_corpus
from nomsos import alpha_eq, enumerate_transitions, nt_support, prove
null = App("null", Tup(()))
a, b = (Atm(Atom(AtomSort("ch"), i)) for i in range(2))
t = App("out", Tup((a, b, null)))
for _ in range(100_000):
    t = App("sum", Tup((t, null)))
spec = load_corpus("pi.spec")
for name, call in [
    ("enumerate_transitions", lambda: enumerate_transitions(spec, t)),
    ("prove", lambda: prove(spec, t, t)),
    ("alpha_eq", lambda: alpha_eq(t, t)),
    ("nt_support", lambda: nt_support(t)),
]:
    try:
        call()
        print(name, "returned")
    except RecursionError:
        print(name, "RecursionError")
"""


def test_deep_chain_raises_before_the_c_hash():
    # The tuple hash of a term recurses in C without a depth guard, and a
    # chain 50 000 deep crashes the interpreter. Every entry point
    # normalises first, in Python, so it raises RecursionError instead.
    src = Path(nomsos.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = subprocess.run(
        [sys.executable, "-c", _DEEP_CHAIN_CHILD],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == [
        f"{name} RecursionError"
        for name in ("enumerate_transitions", "prove", "alpha_eq", "nt_support")
    ]


def test_replay_reports_malformed_trees(pi_spec):
    # Each broken tree gets a violation message instead of an exception.
    tree = prove(
        pi_spec,
        _t(pi_spec, "new([b]out(a, b, null))"),
        _t(pi_spec, "(boutA(a, b), null)"),
    ).tree
    assert tree is not None and replay(pi_spec, tree) == []
    (child,) = tree.children
    (a,) = atoms(1)
    x, y = pi_spec.variables["x"], pi_spec.variables["y"]
    broken = {
        # In binds c and Res binds c and l, which the tree leaves unbound
        "child as In": replace(tree, children=(replace(child, rule_name="In"),)),
        "root as Res": replace(tree, rule_name="Res"),
        "no subst": replace(tree, subst=()),
        "unknown rule": replace(tree, children=(replace(child, rule_name="Nope"),)),
        "missing premise": replace(tree, children=()),
        "b # a fails": replace(tree, atoms=(("a", a), ("b", a))),
        "x not ground": replace(
            tree, children=(replace(child, subst=((x, Var(y)),)),)
        ),
    }
    expected = {
        "child as In": "node In: no binding for c",
        "root as Res": "node Res: no binding for c, l",
        "no subst": "node Open: no binding for x, y",
        "unknown rule": "unknown rule 'Nope'",
        "missing premise": "node Open: expected 1 premises",
        "b # a fails": "node Open: freshness a # a fails",
        "x not ground": "node Out: x is bound to a term that is not ground",
    }
    for what, t in broken.items():
        assert expected[what] in replay(pi_spec, t), what


def test_replay_reports_an_excluded_label(pi_spec):
    # A ParResL tree relabelled ParL matches ParL's premise and conclusion,
    # but ParL excludes the bound-output label the tree carries.
    tree = prove(
        pi_spec,
        _t(pi_spec, "par(new([b]out(a, b, null)), null)"),
        _t(pi_spec, "(boutA(a, b), par(null, null))"),
    ).tree
    assert tree is not None and tree.rule_name == "ParResL"
    assert replay(pi_spec, tree) == []
    label = pi_spec.variables["l"]
    relabelled = replace(
        tree,
        rule_name="ParL",
        subst=tree.subst + ((label, _t(pi_spec, "boutA(a, b)")),),
    )
    assert replay(pi_spec, relabelled) == ["node ParL: label boutA is excluded"]
