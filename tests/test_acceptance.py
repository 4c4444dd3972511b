"""Acceptance suite: the end-to-end guarantees the package makes.

Every test here is exact-equality or a zero-failures-tolerated property over
seeded random data, runnable on commodity hardware.
"""

import itertools
import random
import time

from nomsos import (
    App,
    Atm,
    Permutation,
    Susp,
    act,
    alpha_eq,
    check_acr,
    check_all,
    check_stratification,
    corpus_path,
    enumerate_transitions,
    entails,
    nf,
    normalize,
    nt_support,
    parse_entailment_str,
    parse_env_str,
    parse_term_str,
    prove,
    subst_act,
    subst_apply,
    transition_str,
)
from nomsos.cli import main as cli_main

from conftest import (
    PR,
    all_ground_terms,
    atoms,
    oracle_alpha,
    random_perm,
    random_state,
    random_swaps,
    random_term,
)
from test_freshness import slow_nf


# 1. The bundled process-calculus corpus passes all four static checks
#    (well-formedness, equivariant format, stratification, residual
#    alpha-conversion) in under ten seconds.
def test_corpus_passes_all_checks_quickly(pi_spec):
    start = time.monotonic()
    reports = check_all(pi_spec)
    elapsed = time.monotonic() - start
    assert len(reports) == 4
    assert all(r.passed for r in reports), [r.text() for r in reports]
    assert elapsed < 10.0


# 2. Scope extrusion produces exactly the expected two-node proof tree,
#    compared node by node.
def test_scope_extrusion_proof_tree_exact(pi_spec):
    source = parse_term_str(pi_spec, "new([b]out(a, b, null))")
    target = parse_term_str(pi_spec, "(boutA(a, b), null)")
    outcome = prove(pi_spec, source, target)
    root = outcome.tree
    assert root is not None and not outcome.truncated

    assert root.rule_name == "Open"
    assert transition_str(root.transition) == (
        "new([b]out(a, b, null)) -> (boutA(a, b), null)"
    )
    assert len(root.discharged) == 1
    fresh_atom, fresh_in = root.discharged[0]
    assert normalize(Atm(fresh_atom)) == parse_term_str(pi_spec, "b")
    assert normalize(fresh_in) == parse_term_str(pi_spec, "a")
    assert len(root.children) == 1

    leaf = root.children[0]
    assert leaf.rule_name == "Out"
    assert transition_str(leaf.transition) == (
        "out(a, b, null) -> (outA(a, b), null)"
    )
    assert leaf.children == () and leaf.discharged == ()


# 3. Entailment regression table: exact booleans for the judgements that
#    motivate and certify the residual alpha-conversion condition on the
#    corpus.
def test_entailment_regression_table(pi_spec):
    table = [
        # committing a binder into the residual target must NOT entail
        # freshness in the unbound target
        (
            "{c # (boutA(a,b), new([c]y)), c # boutA(a,b)}"
            " |- {c # (boutA(a,b), y)}",
            False,
        ),
        # free output: freshness in the residual gives freshness in the source
        ("{c # (outA(a,b), x)} |- {c # out(a,b,x)}", True),
        # left choice at a bound output: the three format obligations
        ("{c # (boutA(a,b), y1)} |- {c # (boutA(a,b), y1)}", True),
        ("{c # (boutA(a,b), y1), c # x1} |- {c # sum(x1, null)}", True),
        ("{b # x1} |- {b # sum(x1, null)}", True),
        # scope opening: the three format obligations
        ("{c # (boutA(a,b), y), b # a} |- {c # (boutA(a,b), y)}", True),
        ("{c # (boutA(a,b), y), b # a, c # x} |- {c # new([b]x)}", True),
        ("{b # x, b # a} |- {b # new([b]x)}", True),
    ]
    for judgement, expected in table:
        left, right = parse_entailment_str(pi_spec, judgement)
        assert entails(left, right) is expected, judgement

    reduced = nf(parse_env_str(pi_spec, "{b # new([b]x)}"))
    assert reduced == frozenset()


# 4. The freshness simplification rules are confluent and terminating:
#    every reduction order reaches the same normal form.
def test_freshness_rewriting_confluent(pi_spec):
    from nomsos import Assertion

    rng = random.Random(2024)
    pool = atoms(4)
    variables = list(pi_spec.variables.values())
    for _ in range(200):
        env = [
            (rng.choice(pool),
             random_term(rng, pi_spec, PR, depth=5, pool=pool,
                         variables=variables, susp=True))
            for _ in range(rng.randrange(1, 4))
        ]
        canonical = nf([Assertion(a, t) for a, t in env])
        for _ in range(10):
            assert slow_nf(env, rng) == canonical


# 5. Substitution interacts with the permutation action as the laws demand:
#    applying a permutation commutes with applying a substitution, and the
#    lifted substitution action agrees with conjugation.
def test_substitution_permutation_laws(pi_spec):
    rng = random.Random(31)
    pool = atoms(4)
    variables = list(pi_spec.variables.values())
    pr_vars = [v for v in variables if v.sort == PR]
    for _ in range(1000):
        pi = random_perm(rng, pool)
        t = random_term(rng, pi_spec, PR, depth=3, pool=pool,
                        variables=variables, susp=True)
        phi = {
            v: random_term(rng, pi_spec, v.sort, depth=2, pool=pool,
                           variables=variables, susp=True)
            for v in rng.sample(pr_vars, rng.randrange(1, 4))
        }
        phi_pi = subst_act(pi, phi)
        # permutation action commutes with substitution
        assert act(pi, subst_apply(phi, t)) == subst_apply(phi_pi, act(pi, t))
        # the lifted action is conjugation of the extension
        assert subst_apply(phi_pi, t) == act(
            pi, subst_apply(phi, act(pi.inverse(), t))
        )


# 6. Interpretation discharges delayed permutations: a suspension denotes the
#    pushed-through action, and normalisation is equivariant on ground terms.
def test_interpretation_of_suspensions(pi_spec):
    rng = random.Random(32)
    pool = atoms(4)
    for _ in range(1000):
        swaps = random_swaps(rng, pool)
        pi = Permutation.from_swaps(swaps)
        p = random_term(rng, pi_spec, PR, depth=4, pool=pool, susp=True)
        assert normalize(Susp(swaps, p)) == normalize(act(pi, p))
        # equivariance of the normal form
        assert normalize(act(pi, normalize(p))) == normalize(act(pi, p))
        # equivariance of support
        assert nt_support(act(pi, p)) == frozenset(
            pi(a) for a in nt_support(p)
        )


# 7. The transition relation is equivariant: the image of any derivable
#    transition under a permutation is itself derivable.
def test_engine_equivariance(pi_spec):
    rng = random.Random(33)
    pool = atoms(4)
    for _ in range(500):
        p = random_state(rng, pi_spec, depth=4)
        a, b = rng.sample(pool, 2)
        pi = Permutation.swap(a, b)
        for d in enumerate_transitions(pi_spec, p).derivations:
            outcome = prove(
                pi_spec,
                act(pi, d.transition.state),
                act(pi, d.transition.residual),
            )
            assert outcome.tree is not None, transition_str(d.transition)


# 8. Alpha-conversion of residuals: renaming the exported name of a bound
#    output to any sufficiently fresh atom yields another derivable residual.
def test_alpha_conversion_of_residuals(pi_spec):
    from nomsos import Atom

    rng = random.Random(34)
    checked = 0
    for _ in range(100):
        p = random_state(rng, pi_spec, depth=4)
        for d in enumerate_transitions(pi_spec, p).derivations:
            residual = d.transition.residual
            label, target = pi_spec.split_residual(residual)
            if not (isinstance(label, App) and label.func == "boutA"):
                continue
            bound = label.arg.items[1].atom
            used = nt_support(d.transition.state) | nt_support(residual)
            fresh = next(
                Atom(bound.sort, i)
                for i in itertools.count()
                if Atom(bound.sort, i) not in used
            )
            swapped = act(Permutation.swap(bound, fresh), residual)
            outcome = prove(pi_spec, d.transition.state, swapped)
            assert outcome.tree is not None, (
                f"{transition_str(d.transition)} renamed to {fresh}"
            )
            checked += 1
    assert checked > 0


# 9. Negative control: the corpus variant missing one freshness premise is
#    rejected by the residual alpha-conversion check with a constraint-(iii)
#    diagnostic naming the offending rule, and the CLI exits nonzero.
def test_broken_corpus_rejected(pi_broken_spec, capsys):
    report = check_acr(pi_broken_spec, check_stratification(pi_broken_spec).defined)
    assert not report.passed
    failures = [c for c in report.checks if c.status == "fail"]
    assert failures and all(c.rule == "ParResL" for c in failures)
    assert any("(iii)" in c.constraint for c in failures)

    exit_code = cli_main(["check", str(corpus_path("pi-broken.spec"))])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "ParResL" in out


# 10. Alpha-equivalence agrees with the brute-force rebinding oracle on every
#     pair of ground process terms of size at most five over two atoms.
def test_alpha_oracle_exhaustive(pi_spec):
    pool = atoms(2)
    terms = [
        t
        for size in range(1, 6)
        for t in all_ground_terms(pi_spec, PR, size, pool)
    ]
    assert len(terms) == 85
    for s, t in itertools.product(terms, terms):
        assert alpha_eq(s, t) == oracle_alpha(s, t), (s, t)
