import random

import pytest

from icrl.corpus import _derivable_premise_for, gen_proof_with_cuts, gen_sequent
from icrl.cutelim import eliminate_cuts
from icrl.prover import (
    CUT,
    E_RIGHT,
    ER,
    GENAX_ID,
    ID,
    JOIN_LEFT,
    JOIN_RIGHT_1,
    LG_W,
    MEET_LEFT_1,
    MEET_RIGHT,
    Certificate,
    Proof,
    check_proof,
    make_cut,
    search,
)
from icrl.terms import E, F, Join, LDiv, Meet, Sequent, Theory, Var, parse_sequent, parse_term

x, y = Var("x"), Var("y")


def proof_of(text, th=Theory.ICRL):
    out = search(parse_sequent(text, th), th)
    assert out.derivable, text
    return out.proof


def test_identity_cut_collapses():
    th = Theory.RL
    d1 = proof_of("x => x \\/ y", th)
    d2 = Proof(Sequent((Join(x, y),), (Join(x, y),)), "id")
    p = make_cut(d1, d2, 0)
    assert check_proof(p, th, allow_cut=True)
    q = eliminate_cuts(p, th)
    assert q.conclusion == p.conclusion
    assert check_proof(q, th, allow_cut=False)
    assert q == d1  # cutting against the identity axiom returns the subproof


def test_principal_meet_cut():
    th = Theory.RL
    d1 = proof_of("x, y => (x * y) /\\ (x * (y \\/ x))", th)  # ends in meet-right
    d2 = proof_of("(x * y) /\\ (x * (y \\/ x)) => x * y", th)  # meet-left principal
    p = make_cut(d1, d2, 0)
    assert check_proof(p, th, allow_cut=True)
    q = eliminate_cuts(p, th)
    assert q.conclusion == parse_sequent("x, y => x * y", th)
    assert check_proof(q, th, allow_cut=False)
    assert all(n.rule != CUT for n in q.walk())


def test_cut_inside_lgw_block_widens_side_condition():
    th = Theory.ICRL
    # d1 derives  x \ e, e => ~x  (right rule then axioms)
    d1 = proof_of("x \\ e, e => ~x", th)
    # d2 deletes a block containing ~x:  x, ~x, y => y  explicit formulation
    from icrl.prover import search_lgw_explicit

    out = search_lgw_explicit(parse_sequent("x, ~x, y => y", th), th)
    assert out.derivable
    d2 = out.proof
    # find the position of ~x in d2's conclusion
    pos = d2.conclusion.left.index(parse_term("~x"))
    p = make_cut(d1, d2, pos)
    assert check_proof(p, th, allow_cut=True)
    q = eliminate_cuts(p, th)
    assert q.conclusion == p.conclusion
    assert check_proof(q, th, allow_cut=False)


@pytest.mark.parametrize(
    "left, pos, expected, rules",
    [
        ("x \\ x, e, y \\ y", 1, "x \\ x, y \\ y => e", [LG_W, LG_W, E_RIGHT]),
        ("e, y \\ y", 0, "y \\ y => e", [LG_W, E_RIGHT]),
    ],
)
def test_cut_on_the_identity_formula_of_a_generalized_identity(left, pos, expected, rules):
    # the cut formula e is the identity formula of a hand-built genax-id node:
    # the reduct re-inserts its validated context around => e by weakening
    th = Theory.ICRL
    s = parse_sequent(f"{left} => e", th)
    certs = (
        Certificate("lg", Sequent(s.left[:pos], (E,))),
        Certificate("lg", Sequent(s.left[pos + 1 :], (E,))),
    )
    d2 = Proof(s, GENAX_ID, (), certs)
    p = make_cut(Proof(Sequent((), (E,)), E_RIGHT), d2, pos)
    assert check_proof(p, th, allow_cut=True)
    q = eliminate_cuts(p, th)
    assert q.conclusion == parse_sequent(expected, th)
    assert [n.rule for n in q.walk()] == rules
    assert check_proof(q, th, allow_cut=False)


def test_eliminate_rejects_ill_formed():
    bad = Proof(Sequent((x,), (y,)), "id")
    with pytest.raises(ValueError):
        eliminate_cuts(bad, Theory.RL)


@pytest.mark.parametrize("theory", [Theory.RL, Theory.IRL, Theory.ICRL, Theory.SIRM])
def test_random_cuts_eliminate_sequence_theories(theory):
    rng = random.Random(theory.value)  # str seeds do not depend on PYTHONHASHSEED
    done = 0
    attempts = 0
    while done < 12 and attempts < 400:
        attempts += 1
        from icrl.corpus import gen_sequent

        s = gen_sequent(rng, num_vars=2, depth=2, max_left=2,
                        lattice=theory.has_lattice_ops, fuse=theory.has_fuse)
        out = search(s, theory)
        if not (out.derivable and s.left):
            continue
        pos = rng.randrange(len(s.left))
        donor_goal = Sequent((s.left[pos],), (s.left[pos],))
        donor = search(donor_goal, theory).proof
        p = make_cut(donor, out.proof, pos)
        if not check_proof(p, theory, allow_cut=True):
            continue
        q = eliminate_cuts(p, theory)
        assert q.conclusion == p.conclusion
        assert check_proof(q, theory, allow_cut=False), (theory, s)
        done += 1
    assert done >= 12


def test_generated_multi_cut_proofs():
    rng = random.Random(20240202)
    done = 0
    attempts = 0
    while done < 25 and attempts < 600:
        attempts += 1
        p, th = gen_proof_with_cuts(rng, num_vars=2, depth=2)
        if p is None:
            continue
        assert check_proof(p, th, allow_cut=True)
        q = eliminate_cuts(p, th)
        assert q.conclusion == p.conclusion, th
        assert check_proof(q, th, allow_cut=False), th
        assert all(n.rule != CUT for n in q.walk())
        done += 1
    assert done >= 25


def test_ca_cut_elimination():
    th = Theory.CA
    rng = random.Random(7)
    done = 0
    attempts = 0
    while done < 10 and attempts < 400:
        attempts += 1
        s = gen_sequent(rng, num_vars=2, depth=2, max_left=2, max_right=2, pointed=True)
        out = search(s, th)
        if not (out.derivable and out.proof.conclusion.left):
            continue
        concl = out.proof.conclusion
        pos = rng.randrange(len(concl.left))
        donor = search(Sequent((concl.left[pos],), (concl.left[pos],)), th).proof
        p = make_cut(donor, out.proof, pos)
        if not check_proof(p, th, allow_cut=True):
            continue
        q = eliminate_cuts(p, th)
        assert q.conclusion == p.conclusion
        assert check_proof(q, th, allow_cut=False), s
        done += 1
    assert done >= 10


def test_generated_multi_cut_ca_proofs_eliminate():
    # gen_proof_with_cuts never draws ca (the golden fixture pins its draws),
    # so this builds ca proofs the same way to reach the multiple-conclusion
    # reduction with one to three cuts
    th = Theory.CA
    rng = random.Random("ca-multi-cut")
    done = multi = attempts = 0
    while done < 20 and attempts < 400:
        attempts += 1
        s = gen_sequent(rng, num_vars=2, depth=2, max_left=2, max_right=2, pointed=True)
        out = search(s, th)
        if not (out.derivable and s.left):
            continue
        proof = out.proof
        for _ in range(rng.randint(1, 3)):
            concl = proof.conclusion
            if not concl.left:
                break
            pos = rng.randrange(len(concl.left))
            donor = _derivable_premise_for(rng, concl.left[pos], th)
            if donor is None:
                break
            proof = make_cut(donor, proof, pos)
        cuts = sum(n.rule == CUT for n in proof.walk())
        if not cuts or not check_proof(proof, th, allow_cut=True):
            continue
        q = eliminate_cuts(proof, th)
        assert q.conclusion == proof.conclusion, s
        assert check_proof(q, th, allow_cut=False), s
        assert all(n.rule != CUT for n in q.walk())
        done += 1
        multi += cuts > 1
    assert done >= 20 and multi >= 5


@pytest.mark.parametrize("connective", ["meet", "join"])
def test_ca_principal_cut_behind_a_right_context(connective):
    # d1's right rule introduces the cut formula behind f and an er step
    # moves it to the front for the cut, so the principal cut is reduced at
    # right position 1 of d1's last right rule
    th = Theory.CA
    if connective == "meet":
        s = Meet(x, y)
        premises = (proof_of("x /\\ y => f, x", th), proof_of("x /\\ y => f, y", th))
        d1 = Proof(Sequent((s,), (F, s)), MEET_RIGHT, premises)
        d2 = Proof(Sequent((s,), (x,)), MEET_LEFT_1, (Proof(Sequent((x,), (x,)), ID),))
    else:
        s = Join(x, y)
        d1 = Proof(Sequent((x,), (F, s)), JOIN_RIGHT_1, (proof_of("x => f, x", th),))
        premises = (proof_of("x => x \\/ y", th), proof_of("y => x \\/ y", th))
        d2 = Proof(Sequent((s,), (s,)), JOIN_LEFT, premises)
    d1 = Proof(Sequent(d1.conclusion.left, (s, F)), ER, (d1,))
    p = make_cut(d1, d2, 0)
    assert check_proof(p, th, allow_cut=True)
    q = eliminate_cuts(p, th)
    assert q.conclusion == p.conclusion
    assert check_proof(q, th, allow_cut=False)
    assert all(n.rule != CUT for n in q.walk())
