"""Workbench for transition-rule specifications over nominal terms: sorted
atoms and permutations, raw terms with delayed permutations, canonical forms
modulo alpha, a freshness-constraint solver, rule-format checkers, and a
proof-search engine for deriving transitions."""

from .alpha import alpha_eq, normalize, nt_fresh, nt_support
from .atoms import (
    AbsSort,
    Atom,
    AtomSort,
    AtomSortRef,
    BaseSort,
    FuncDecl,
    Permutation,
    ProdSort,
    Signature,
    fresh_atoms,
    prod,
)
from .engine import (
    Budget,
    Derivation,
    Enumeration,
    ProofTree,
    ProveOutcome,
    Transition,
    enumerate_transitions,
    prove,
    replay,
    transition_str,
    tree_dict,
    tree_text,
)
from .formats import (
    CheckReport,
    RuleCheck,
    check_acr,
    check_all,
    check_equivariant,
    check_stratification,
)
from .freshness import Assertion, entails, is_consistent, nf, tautology
from .parser import (
    ParseError,
    parse_entailment_str,
    parse_env_str,
    parse_formula_str,
    parse_spec,
    parse_term_str,
)
from .printer import atom_str, env_str, term_str
from .spec import (
    Formula,
    ResidualSignature,
    Rule,
    Spec,
    StratCase,
    bn_eval,
    strat_eval,
    validate_spec,
)
from .terms import (
    Abs,
    App,
    Atm,
    MetaAtom,
    RawTerm,
    SortError,
    Susp,
    Tup,
    Var,
    Variable,
    act,
    app,
    instantiate,
    is_ground,
    sort_check,
    subst_act,
    subst_apply,
    support,
)

__version__ = "0.1.0"


def corpus_path(name: str = "pi.spec"):
    """Path of a bundled specification file."""
    from importlib.resources import files

    return files("nomsos").joinpath("corpus", name)


def load_corpus(name: str = "pi.spec") -> Spec:
    return parse_spec(corpus_path(name).read_text(encoding="utf-8"))
