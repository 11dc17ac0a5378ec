import random

import pytest

from icrl import prover
from icrl.corpus import gen_sequent, gen_term
from icrl.prover import (
    CUT,
    GENAX_ID,
    ID,
    LG_W,
    Certificate,
    Proof,
    check_proof,
    check_proof_detailed,
    decide_equation,
    make_cut,
    proof_from_json,
    proof_to_json,
    search,
    search_lgw_explicit,
)
from icrl.terms import (
    E,
    Fuse,
    LDiv,
    RDiv,
    Sequent,
    Theory,
    Var,
    parse_sequent,
    parse_term,
    print_sequent,
)

x, y = Var("x"), Var("y")


def seq(text, th=Theory.ICRL):
    return parse_sequent(text, th)


def test_integrally_closed_axioms_derivable():
    assert search(seq("x \\ x => e"), Theory.ICRL).derivable
    assert search(seq("x / x => e"), Theory.ICRL).derivable
    assert not search(seq("x \\ x => e"), Theory.RL).derivable
    assert not search(seq("x / x => e"), Theory.RL).derivable


def test_genaxid_example():
    out = search(seq("x, x \\ e, y => y"), Theory.ICRL)
    assert out.derivable
    assert out.proof.rule == GENAX_ID
    assert out.proof.certificates and out.proof.certificates[0].oracle == "lg"
    assert check_proof(out.proof, Theory.ICRL, allow_cut=False)


def test_explicit_formulation_examples():
    out = search_lgw_explicit(seq("x, x \\ e, y => y"), Theory.ICRL)
    assert out.derivable
    assert any(n.rule == LG_W for n in out.proof.walk())
    assert check_proof(out.proof, Theory.ICRL, allow_cut=False)
    assert search_lgw_explicit(seq("x \\ x => e"), Theory.ICRL).derivable
    assert not search_lgw_explicit(seq("e => x"), Theory.ICRL).derivable


def test_not_derivable_examples():
    assert not search(seq("e => x"), Theory.ICRL).derivable
    assert not search(seq("x => e"), Theory.ICRL).derivable


def test_decide_equation_lemma_equivalences():
    # ~(x \ y) = ~y / ~x   and   ~(y / x) = ~x \ ~y   hold in icrl
    s1 = parse_term("~(x \\ y)")
    t1 = parse_term("~y / ~x")
    assert decide_equation(s1, t1, Theory.ICRL)
    s2 = parse_term("~(y / x)")
    t2 = parse_term("~x \\ ~y")
    assert decide_equation(s2, t2, Theory.ICRL)
    assert not decide_equation(x, E, Theory.ICRL)


def test_casari_f_idempotent():
    th = Theory.CA
    assert search(seq("f * f => f", th), th).derivable
    assert search(seq("f => f * f", th), th).derivable
    assert decide_equation(parse_term("f * f", th), parse_term("f", th), th)


def test_casari_empty_succedent_needs_f():
    th = Theory.CA
    assert search(seq("f =>", th), th).derivable
    assert not search(seq("x =>", th), th).derivable
    assert not search(seq("x, y =>", th), th).derivable
    assert not search(seq("=>", th), th).derivable


def test_commutative_modes():
    assert search(seq("x * y => y * x", Theory.CICRL), Theory.CICRL).derivable
    assert not search(seq("x * y => y * x"), Theory.ICRL).derivable
    assert search(seq("x -> y, x => y", Theory.CICRL), Theory.CICRL).derivable
    assert search(seq("x, x -> y => y", Theory.BCI), Theory.BCI).derivable


def test_irl_weakening():
    assert search(seq("x => e"), Theory.IRL).derivable
    assert search(seq("x, y => y"), Theory.IRL).derivable
    assert not search(seq("x => e"), Theory.RL).derivable
    assert not search(seq("e => x"), Theory.IRL).derivable


def test_check_proof_examples():
    p = Proof(Sequent((x,), (x,)), ID)
    assert check_proof(p, Theory.RL)
    # a fuse-right node whose split is inconsistent with its premises
    bad = Proof(
        Sequent((x, y), (Fuse(x, y),)),
        "fuse-right",
        (Proof(Sequent((y,), (x,)), ID), Proof(Sequent((x,), (y,)), ID)),
    )
    ok, path, msg = check_proof_detailed(bad, Theory.RL)
    assert not ok
    # id premises are themselves broken, but the root must already fail
    good = Proof(
        Sequent((x, y), (Fuse(x, y),)),
        "fuse-right",
        (Proof(Sequent((x,), (x,)), ID), Proof(Sequent((y,), (y,)), ID)),
    )
    assert check_proof(good, Theory.RL)


def test_check_proof_revalidates_certificates():
    p = search(seq("x, x \\ e, y => y"), Theory.ICRL).proof
    assert p.rule == GENAX_ID and check_proof(p, Theory.ICRL)
    first, *rest = p.certificates

    def with_first(cert):
        return Proof(p.conclusion, p.rule, p.premises, (cert, *rest))

    wrong_oracle = with_first(Certificate("ablg", first.sequent))
    assert check_proof_detailed(wrong_oracle, Theory.ICRL) == (
        False, (), "certificate oracle 'ablg' wrong for theory"
    )
    refuted = with_first(Certificate("lg", seq("x => e")))
    assert check_proof_detailed(refuted, Theory.ICRL) == (
        False, (), "certificate failed re-validation: x => e"
    )
    # the failing node is found below the root, with its path
    root = Proof(Sequent((E, *p.conclusion.left), p.conclusion.right), "e-left", (refuted,))
    assert check_proof_detailed(root, Theory.ICRL) == (
        False, (0,), "certificate failed re-validation: x => e"
    )
    # a theory without an oracle takes no certificate, even on a node that
    # needs none
    certified_id = Proof(Sequent((x,), (x,)), ID, (), (Certificate("lg", seq("x => x")),))
    assert check_proof_detailed(certified_id, Theory.RL) == (
        False, (), "certificate oracle 'lg' wrong for theory"
    )


def test_check_proof_cut_gating():
    d1 = Proof(Sequent((x,), (x,)), ID)
    d2 = Proof(Sequent((x,), (x,)), ID)
    cut = make_cut(d1, d2, 0)
    assert cut.rule == CUT
    assert check_proof(cut, Theory.RL, allow_cut=True)
    assert not check_proof(cut, Theory.RL, allow_cut=False)


def test_search_proofs_pass_cut_free_checker():
    rng = random.Random(1234)
    theories = [
        Theory.RL,
        Theory.IRL,
        Theory.ICRL,
        Theory.CICRL,
        Theory.SIRM,
        Theory.PSEUDO_BCI,
        Theory.SIRCOM,
        Theory.BCI,
    ]
    checked = 0
    for i in range(400):
        th = theories[i % len(theories)]
        s = gen_sequent(rng, num_vars=2, depth=2, lattice=th.has_lattice_ops, fuse=th.has_fuse)
        out = search(s, th)
        if out.derivable:
            assert check_proof(out.proof, th, allow_cut=False), (th, s)
            assert out.proof.conclusion == s
            checked += 1
    assert checked > 40


def test_ca_search_proofs_pass_checker():
    from icrl.terms import normalize_for_theory

    rng = random.Random(77)
    checked = 0
    for _ in range(200):
        s = gen_sequent(
            rng, num_vars=2, depth=2, max_left=2, max_right=2, pointed=True
        )
        out = search(s, Theory.CA)
        if out.derivable:
            norm = Sequent(
                tuple(normalize_for_theory(t, Theory.CA) for t in s.left),
                tuple(normalize_for_theory(t, Theory.CA) for t in s.right),
            )
            assert check_proof(out.proof, Theory.CA, allow_cut=False), s
            assert out.proof.conclusion == norm
            checked += 1
    assert checked > 15


def test_formulations_agree_quick():
    rng = random.Random(5150)
    for _ in range(60):
        s = gen_sequent(rng, num_vars=2, depth=2)
        a = search(s, Theory.ICRL).derivable
        b = search_lgw_explicit(s, Theory.ICRL).derivable
        assert a == b, s


def test_theory_monotonicity_on_corpus():
    rng = random.Random(99)
    for _ in range(80):
        s = gen_sequent(rng, num_vars=2, depth=2)
        if search(s, Theory.RL).derivable:
            assert search(s, Theory.ICRL).derivable, s
        if search(s, Theory.ICRL).derivable:
            assert search(s, Theory.CICRL).derivable, s


def test_proof_json_round_trip_bit_exact():
    out = search(seq("x, x \\ e, y => y"), Theory.ICRL)
    blob = proof_to_json(out.proof)
    back = proof_from_json(blob, Theory.ICRL)
    assert back == out.proof
    assert proof_to_json(back) == blob
    out2 = search_lgw_explicit(seq("x \\ x, e => e"), Theory.ICRL)
    blob2 = proof_to_json(out2.proof)
    assert proof_to_json(proof_from_json(blob2, Theory.ICRL)) == blob2


def test_outcome_statistics_present():
    out = search(seq("x \\ x => e"), Theory.RL)
    assert not out.derivable
    assert out.proof is None
    assert out.nodes_expanded >= 1
    assert out.max_depth >= 0


def test_statistics_do_not_depend_on_earlier_searches():
    # the goal memo lives for one search call
    first, second = (search(seq("x => x"), Theory.ICRL) for _ in range(2))
    assert first.nodes_expanded == second.nodes_expanded == 1
    assert first.proof == second.proof


def test_m_sequent_shape_enforced():
    with pytest.raises(ValueError):
        search(Sequent((parse_term("x /\\ y"),), (E,)), Theory.SIRM)
    with pytest.raises(ValueError):
        search(Sequent((Fuse(x, y),), (E,)), Theory.PSEUDO_BCI)


# Every alternative search tries on three goals, in order: a sequence, a
# cicrl multiset and a ca goal.  Between them they reach every split rule
# place (front, back, before, after, prefix), the sub-multisets of a
# multiset context and ca's pairs of left and right sub-multisets.  The
# golden proofs pin only the first alternative that succeeds.
ALTERNATIVE_ORDER = {
    (Theory.RL, "x /\\ y, x \\ y, z / x => y * z"): [
        "meet-left-1: x, x \\ y, z / x => y * z",
        "meet-left-2: y, x \\ y, z / x => y * z",
        "ldiv-left: x /\\ y => x | y, z / x => y * z",
        "ldiv-left: => x | x /\\ y, y, z / x => y * z",
        "rdiv-left: => x | x /\\ y, x \\ y, z => y * z",
        "fuse-right: => y | x /\\ y, x \\ y, z / x => z",
        "fuse-right: x /\\ y => y | x \\ y, z / x => z",
        "fuse-right: x /\\ y, x \\ y => y | z / x => z",
        "fuse-right: x /\\ y, x \\ y, z / x => y | => z",
    ],
    (Theory.CICRL, "x, x, y, x \\ y => y \\ x"): [
        "ldiv-right: x, x, x \\ y, y, y => x",
        "ldiv-left: => x | x, x, y, y => y \\ x",
        "ldiv-left: x => x | x, y, y => y \\ x",
        "ldiv-left: x, x => x | y, y => y \\ x",
        "ldiv-left: y => x | x, x, y => y \\ x",
        "ldiv-left: x, y => x | x, y => y \\ x",
        "ldiv-left: x, x, y => x | y => y \\ x",
    ],
    (Theory.CA, "x \\ y, e => x * y, y \\ z"): [
        "e-left: x \\ y => x * y, y \\ z",
        "arrow-right: e, x \\ y, y => x * y, z",
        "ablg-w: x \\ y => x * y, y \\ z",
        "fuse-right: => x | e, x \\ y => y, y \\ z",
        "fuse-right: => x, y \\ z | e, x \\ y => y",
        "fuse-right: e => x | x \\ y => y, y \\ z",
        "fuse-right: e => x, y \\ z | x \\ y => y",
        "fuse-right: x \\ y => x | e => y, y \\ z",
        "fuse-right: x \\ y => x, y \\ z | e => y",
        "fuse-right: e, x \\ y => x | => y, y \\ z",
        "fuse-right: e, x \\ y => x, y \\ z | => y",
        "arrow-left: => x | e, y => x * y, y \\ z",
        "arrow-left: => x, x * y | e, y => y \\ z",
        "arrow-left: => x, y \\ z | e, y => x * y",
        "arrow-left: => x, x * y, y \\ z | e, y => ",
        "arrow-left: e => x | y => x * y, y \\ z",
        "arrow-left: e => x, x * y | y => y \\ z",
        "arrow-left: e => x, y \\ z | y => x * y",
        "arrow-left: e => x, x * y, y \\ z | y => ",
    ],
}


@pytest.mark.parametrize("theory, text", list(ALTERNATIVE_ORDER), ids=str)
def test_alternatives_come_in_the_pinned_order(theory, text):
    s = seq(text, theory)
    left = prover._sort_ms(s.left) if theory.commutative else s.left
    right = prover._sort_ms(s.right) if theory.multiple_conclusion else s.right
    alternatives = [
        f"{rule}: " + " | ".join(print_sequent(Sequent(*g)) for g in goals)
        for rule, _, goals in prover._alternatives((left, right), prover._Ctx(theory, False))
    ]
    assert alternatives == ALTERNATIVE_ORDER[theory, text]
