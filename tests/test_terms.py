import inspect
import random
from dataclasses import FrozenInstanceError

import pytest

from icrl.corpus import gen_term
from icrl.terms import (
    HAS_F,
    HAS_FUSE,
    HAS_LATTICE,
    HAS_RDIV,
    MAX_TERM_DEPTH,
    normalize_for_theory,
    E,
    F,
    ConstE,
    ConstF,
    Fuse,
    Join,
    LDiv,
    Meet,
    ParseError,
    RDiv,
    Sequent,
    Term,
    Theory,
    Var,
    check_term_for_theory,
    complexity,
    double_neg,
    neg_translation,
    parse_leq,
    parse_sequent,
    parse_term,
    print_sequent,
    print_term,
    subst_f_to_e,
    subterms,
)

x, y, z = Var("x"), Var("y"), Var("z")


def test_parse_basic_constructors():
    assert parse_term("x \\ x", Theory.ICRL) == LDiv(x, x)
    assert parse_term("x / y") == RDiv(x, y)
    assert parse_term("x * y") == Fuse(x, y)
    assert parse_term("x /\\ y") == Meet(x, y)
    assert parse_term("x \\/ y") == Join(x, y)
    assert parse_term("e") == E


def test_parse_tilde_expands_to_ldiv_e():
    assert parse_term("~~x", Theory.ICRL) == LDiv(LDiv(x, E), E)
    assert parse_term("~x * y") == Fuse(LDiv(x, E), y)


def test_parse_casari_derived_connectives():
    # -x + y expands through "not a := a -> f" and "a + b := -a -> b"
    assert parse_term("-x + y", Theory.CA) == LDiv(LDiv(LDiv(x, F), F), y)
    assert parse_term("-x", Theory.CA) == LDiv(x, F)
    assert parse_term("x -> y", Theory.CA) == LDiv(x, y)


def test_parse_precedence():
    assert parse_term("x * y \\ z") == LDiv(Fuse(x, y), z)
    assert parse_term("x \\ y /\\ z") == Meet(LDiv(x, y), z)
    assert parse_term("x /\\ y \\/ z") == Join(Meet(x, y), z)
    assert parse_term("x /\\ y /\\ z") == Meet(Meet(x, y), z)
    assert parse_term("(x \\ y) \\ z") == LDiv(LDiv(x, y), z)


def test_parse_arrow_commutative_only():
    assert parse_term("x -> y", Theory.CICRL) == LDiv(x, y)
    with pytest.raises(ParseError):
        parse_term("x -> y", Theory.ICRL)


def test_parse_rdiv_normalized_in_ca():
    # in ca mode both residuals collapse to the arrow, stored as \
    assert parse_term("x / y", Theory.CA) == LDiv(y, x)
    assert parse_term("x / y", Theory.CICRL) == RDiv(x, y)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_term("x \\ y \\ z")  # non-associative residuals
    with pytest.raises(ParseError):
        parse_term("f", Theory.ICRL)  # f needs the pointed signature
    with pytest.raises(ParseError):
        parse_term("x /\\ y", Theory.SIRM)  # outside the m-sequent signature
    with pytest.raises(ParseError):
        parse_term("x * y", Theory.PSEUDO_BCI)
    with pytest.raises(ParseError):
        parse_term("x +", Theory.CA)
    with pytest.raises(ParseError):
        parse_term("x + y", Theory.CICRL)  # + needs f, hence pointed
    err = None
    try:
        parse_term("x ? y")
    except ParseError as e:
        err = e
    assert err is not None and err.position == 2


# meets and joins are outside every m-sequent signature, fusion outside the
# two bci-like ones; each must be refused wherever it occurs
M_SEQUENT_REJECTED = [
    (th, text)
    for th in (Theory.SIRM, Theory.PSEUDO_BCI, Theory.SIRCOM, Theory.BCI)
    for text in ("x /\\ y", "x \\/ y", "x \\ (y /\\ e)", "(x \\/ y) / x")
] + [(th, text) for th in (Theory.PSEUDO_BCI, Theory.BCI) for text in ("x * y", "x \\ (y * e)")]


@pytest.mark.parametrize("theory, text", M_SEQUENT_REJECTED)
def test_m_sequent_signature_rejected_by_the_parser(theory, text):
    with pytest.raises(ParseError):
        parse_term(text, theory)
    with pytest.raises(ParseError):
        parse_sequent(f"{text} => x", theory)
    with pytest.raises(ParseError):
        parse_sequent(f"x => {text}", theory)


def test_print_examples():
    assert print_term(LDiv(x, x)) == "x \\ x"
    assert print_term(E) == "e"
    assert print_term(Meet(Join(x, y), E)) == "(x \\/ y) /\\ e"
    assert print_term(LDiv(LDiv(x, E), E)) == "(x \\ e) \\ e"


def test_parse_sequent_shapes():
    s = parse_sequent("x, x \\ e, y => y", Theory.ICRL)
    assert s == Sequent((x, LDiv(x, E), y), (y,))
    assert parse_sequent("=> e") == Sequent((), (E,))
    # ca admits empty and multi right sides
    assert parse_sequent("f =>", Theory.CA) == Sequent((F,), ())
    assert parse_sequent("=> e, f", Theory.CA) == Sequent((), (E, F))
    with pytest.raises(ParseError):
        parse_sequent("x => y, z", Theory.ICRL)
    with pytest.raises(ParseError):
        parse_sequent("x =>", Theory.ICRL)


def test_parse_leq():
    assert parse_leq("x * y <= e") == (Fuse(x, y), E)


def test_complexity():
    assert complexity(x) == 1
    assert complexity(LDiv(x, x)) == 3
    assert complexity(Fuse(Meet(x, y), E)) == 5


def test_neg_translation_examples():
    assert neg_translation(E) == E
    assert neg_translation(x) == Meet(x, E)
    assert neg_translation(LDiv(x, y)) == Meet(LDiv(Meet(x, E), Meet(y, E)), E)
    with pytest.raises(ValueError):
        neg_translation(F)


def test_neg_translation_guards_every_variable():
    rng = random.Random(7)
    for _ in range(200):
        t = gen_term(rng, num_vars=3, depth=4)
        tr = neg_translation(t)
        assert not any(isinstance(s, ConstF) for s in subterms(tr))
        # every variable occurrence sits directly under a meet with e
        for s in subterms(tr):
            for child in (getattr(s, "l", None), getattr(s, "r", None)):
                if isinstance(child, Var):
                    assert isinstance(s, Meet) and s.r == E


def test_double_neg():
    assert double_neg(x) == LDiv(LDiv(x, E), E)
    assert double_neg(E) == LDiv(LDiv(E, E), E)
    assert double_neg(Fuse(x, y)) == LDiv(LDiv(Fuse(x, y), E), E)


def test_round_trip_random_terms():
    rng = random.Random(20240911)
    for _ in range(500):
        t = gen_term(rng, num_vars=3, depth=4, pointed=False)
        assert parse_term(print_term(t), Theory.ICRL) == t
    for _ in range(200):
        # ca collapses / into \, so round-trip the normalized form
        t = normalize_for_theory(gen_term(rng, num_vars=2, depth=4, pointed=True), Theory.CA)
        assert parse_term(print_term(t), Theory.CA) == t


def test_round_trip_random_sequents():
    rng = random.Random(99)
    for _ in range(200):
        nl = rng.randint(0, 3)
        terms = tuple(gen_term(rng, num_vars=2, depth=3) for _ in range(nl))
        s = Sequent(terms, (gen_term(rng, num_vars=2, depth=3),))
        assert parse_sequent(print_sequent(s), Theory.ICRL) == s


# Every term class is a dataclass with eq=False, which keeps object's own
# equality and hash: equal live terms are one object, so both are identity.


@pytest.mark.parametrize("cls", [Meet, Join, Fuse, LDiv, RDiv])
def test_binary_hash_is_the_dataclass_hash(cls):
    assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    t = cls(Var("x"), cls(Var("y"), E))
    assert hash(t) == object.__hash__(t)
    assert t is cls(Var("x"), cls(Var("y"), E))
    assert t != cls(Var("x"), cls(Var("z"), E))
    x, y = Var("x"), Var("y")
    others = {hash(c(x, y)) for c in (Meet, Join, Fuse, LDiv, RDiv) if c is not cls}
    assert hash(cls(x, y)) not in others


def test_leaf_hashes_are_the_dataclass_hashes():
    for cls in (Term, Var, ConstE, ConstF):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    assert hash(Var("x")) == object.__hash__(Var("x")) != hash(Var("y"))
    assert hash(E) != hash(F) and E != F


def test_deep_chain_hashes_without_recursion():
    t = Var("x")
    for _ in range(10_000):
        t = Fuse(t, Var("y"))
    assert hash(t) == object.__hash__(t)
    assert t in {t} and t == t


def test_terms_are_slotted_and_frozen():
    x, y = Var("x"), Var("y")
    for t in (x, E, F, Meet(x, y), Join(x, y), Fuse(x, y), LDiv(x, y), RDiv(x, y), Sequent((x,), (y,))):
        assert not hasattr(t, "__dict__")
    with pytest.raises(FrozenInstanceError):
        x.name = "y"
    with pytest.raises(FrozenInstanceError):
        Fuse(x, y).l = y


@pytest.mark.parametrize("parse, text", [
    (parse_term, "{deep}"),
    (parse_sequent, "{deep} => x"),
    (parse_leq, "x <= {deep}"),
])
def test_deep_nesting_is_a_parse_error(parse, text):
    deep = "(" * 1200 + "x" + ")" * 1200
    with pytest.raises(ParseError, match="term nested too deeply"):
        parse(text.format(deep=deep))


def depth_chains(n):
    """Terms of depth n: a join chain, a ~ chain and right-nested residuals."""
    return ("x" + " \\/ x" * (n - 1), "~" * (n - 1) + "x", "x \\ (" * (n - 1) + "x" + ")" * (n - 1))


def test_terms_at_the_depth_limit_round_trip():
    for text in depth_chains(MAX_TERM_DEPTH):
        t = parse_term(text)
        assert parse_term(print_term(t)) == t


@pytest.mark.parametrize(
    "text", depth_chains(MAX_TERM_DEPTH + 1), ids=("join", "tilde", "residual")
)
def test_terms_over_the_depth_limit_are_parse_errors(text):
    for parse, form in ((parse_term, "{t}"), (parse_sequent, "x => {t}"), (parse_leq, "{t} <= x")):
        with pytest.raises(ParseError, match=f"more than {MAX_TERM_DEPTH} levels"):
            parse(form.format(t=text))


def test_subst_f_to_e_shares_f_free_subterms():
    x, y = Var("x"), Var("y")
    free = Fuse(x, LDiv(y, E))
    assert subst_f_to_e(free) is free
    t = Meet(free, LDiv(x, F))
    out = subst_f_to_e(t)
    assert out == Meet(free, LDiv(x, E))
    assert out.l is free


def _walked_bits(t):
    bits = 0
    for sub in subterms(t):
        if isinstance(sub, ConstF):
            bits |= HAS_F
        elif isinstance(sub, (Meet, Join)):
            bits |= HAS_LATTICE
        elif isinstance(sub, Fuse):
            bits |= HAS_FUSE
        elif isinstance(sub, RDiv):
            bits |= HAS_RDIV
    return bits


def _walked_check(t, theory):
    """The message of the check as a walk over every subterm gives it, or None."""
    for sub in subterms(t):
        if isinstance(sub, ConstF) and not theory.pointed:
            return f"constant f not allowed in theory {theory.value}"
        if isinstance(sub, (Meet, Join)) and not theory.has_lattice_ops:
            return f"lattice connectives not allowed in theory {theory.value}"
        if isinstance(sub, Fuse) and not theory.has_fuse:
            return f"fusion not allowed in theory {theory.value}"
    return None


def test_signature_bits_are_what_a_walk_finds():
    rng = random.Random("signature-bits")
    signatures = [(a, b, c) for a in (False, True) for b in (False, True) for c in (False, True)]
    refused = 0
    for k in range(2000):
        lattice, fuse, pointed = signatures[k % len(signatures)]
        t = gen_term(
            rng, num_vars=rng.randint(1, 3), depth=rng.randint(0, 6),
            lattice=lattice, fuse=fuse, pointed=pointed,
        )
        assert t._sig == _walked_bits(t), t
        for th in Theory:
            try:
                check_term_for_theory(t, th)
                message = None
            except ValueError as e:
                message = str(e)
            assert message == _walked_check(t, th), (t, th)
            refused += message is not None
        # the readers of the bits
        assert subst_f_to_e(t)._sig == t._sig & ~HAS_F
        ca = normalize_for_theory(t, Theory.CA)
        assert ca._sig == t._sig & ~HAS_RDIV and (ca is t) is not bool(t._sig & HAS_RDIV)
    assert 2000 < refused < 2000 * len(Theory)


# each theory's facts, in declaration order: pointed, commutative,
# multiple_conclusion, oracle, has_lattice_ops, has_fuse
THEORY_FACTS = {
    "rl": (False, False, False, None, True, True),
    "irl": (False, False, False, None, True, True),
    "icrl": (False, False, False, "lg", True, True),
    "cicrl": (False, True, False, "ablg", True, True),
    "sirm": (False, False, False, "lg", False, True),
    "pseudobci": (False, False, False, "lg", False, False),
    "sircom": (False, True, False, "ablg", False, True),
    "bci": (False, True, False, "ablg", False, False),
    "ca": (True, True, True, "ablg", True, True),
}
FACT_NAMES = (
    "pointed", "commutative", "multiple_conclusion", "oracle", "has_lattice_ops", "has_fuse",
)


def test_each_theory_carries_its_facts_as_plain_attributes():
    assert [th.value for th in Theory] == list(THEORY_FACTS)
    for th in Theory:
        assert tuple(getattr(th, name) for name in FACT_NAMES) == THEORY_FACTS[th.value], th
        assert Theory(th.value) is th
        assert hash(th) == object.__hash__(th)
        assert repr(th) == f"<Theory.{th.name}: {th.value!r}>"
    # read from the member's own dict, with no descriptor on the class
    for name in FACT_NAMES:
        assert inspect.getattr_static(Theory, name, None) is None, name
        assert all(name in vars(th) for th in Theory), name
