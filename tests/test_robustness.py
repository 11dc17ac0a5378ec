"""Adversarial and stress coverage beyond the acceptance scale."""

import json
import random

import pytest

from icrl.cli import run
from icrl.corpus import gen_sequent
from icrl.cutelim import eliminate_cuts
from icrl.lg_oracle import semigroup_contains_identity
from icrl.prover import (
    check_proof,
    make_cut,
    proof_from_json,
    search,
    search_lgw_explicit,
)
from icrl.terms import F, Sequent, Theory, parse_sequent
from tests_helpers_oracles import bfs_identity_oracle


def test_identity_beyond_bfs_horizon():
    # x and x^-9: the identity needs a product of ten generators, out of
    # reach for the depth-8 closure but found by saturation
    gens = frozenset({(("x", 1),), (("x", -1),) * 9})
    assert bfs_identity_oracle(gens, 8) is False
    assert semigroup_contains_identity(gens) is True
    assert bfs_identity_oracle(gens, 10) is True


def test_ca_cut_with_nonempty_right_context():
    th = Theory.CA
    rng = random.Random(321)
    done = 0
    attempts = 0
    while done < 12 and attempts < 600:
        attempts += 1
        s = gen_sequent(rng, num_vars=2, depth=2, max_left=2, max_right=2, pointed=True)
        out = search(s, th)
        if not (out.derivable and out.proof.conclusion.left):
            continue
        concl = out.proof.conclusion
        pos = rng.randrange(len(concl.left))
        cut_formula = concl.left[pos]
        # donor with a non-trivial right context: G2 => s, f
        donor_goal = Sequent((cut_formula,), (cut_formula, F))
        donor_out = search(donor_goal, th)
        if not donor_out.derivable:
            continue
        p = make_cut(donor_out.proof, out.proof, pos)
        assert check_proof(p, th, allow_cut=True), s
        q = eliminate_cuts(p, th)
        assert q.conclusion == p.conclusion
        assert check_proof(q, th, allow_cut=False), s
        done += 1
    assert done >= 12


def test_ca_cut_through_arrow_left_with_leading_context():
    # arrow-left with formulas before its principal one (a non-empty G1) is
    # schema-valid; cut elimination must still find the principal formula
    from icrl.prover import ARROW_LEFT, ID, Proof
    from icrl.terms import parse_term

    th = Theory.CA
    x, y, z = (parse_term(v, th) for v in "xyz")
    t = parse_term("x -> z", th)
    rest = search(Sequent((y, z), (z, y)), th).proof
    d1 = Proof(Sequent((y, t, x), (z, y)), ARROW_LEFT, (Proof(Sequent((x,), (x,)), ID), rest))
    p = make_cut(d1, Proof(Sequent((z,), (z,)), ID), 0)
    assert check_proof(p, th, allow_cut=True)
    q = eliminate_cuts(p, th)
    assert q.conclusion == p.conclusion
    assert check_proof(q, th, allow_cut=False)


def test_ca_arrow_left_puts_the_right_context_of_premise_one_last():
    # G1, s -> t, G2, G3 => D1, D2 from G2 => s, D2 and G1, t, G3 => D1; a
    # cut on a formula of D1 permutes into the second premise
    from icrl.prover import ABLG_W, ARROW_LEFT, ID, Proof

    th = Theory.CA
    p1 = Proof(parse_sequent("x => x, e", th), ABLG_W, (Proof(parse_sequent("x => x", th), ID),))
    p2 = Proof(parse_sequent("y => y", th), ID)
    d1 = Proof(parse_sequent("x -> y, x => y, e", th), ARROW_LEFT, (p1, p2))
    assert check_proof(d1, th)
    assert not check_proof(Proof(parse_sequent("x -> y, x => e, y", th), ARROW_LEFT, (p1, p2)), th)
    p = make_cut(d1, p2, 0)
    q = eliminate_cuts(p, th)
    assert q.conclusion == p.conclusion
    assert check_proof(q, th, allow_cut=False)


def test_cut_elimination_on_explicit_formulation_proofs():
    rng = random.Random(808)
    done = 0
    attempts = 0
    while done < 20 and attempts < 600:
        attempts += 1
        th = rng.choice([Theory.ICRL, Theory.CICRL])
        s = gen_sequent(rng, num_vars=2, depth=2, max_left=2)
        out = search_lgw_explicit(s, th)
        if not (out.derivable and s.left):
            continue
        pos = rng.randrange(len(s.left))
        donor_goal = Sequent((s.left[pos],), (s.left[pos],))
        donor = search_lgw_explicit(donor_goal, th).proof
        p = make_cut(donor, out.proof, pos)
        if not check_proof(p, th, allow_cut=True):
            continue
        q = eliminate_cuts(p, th)
        assert q.conclusion == p.conclusion
        assert check_proof(q, th, allow_cut=False), (th, s)
        done += 1
    assert done >= 20


@pytest.mark.parametrize("theory", [Theory.CICRL, Theory.SIRCOM, Theory.BCI])
def test_random_cuts_eliminate_exchange_theories(theory):
    rng = random.Random(theory.value)  # str seeds do not depend on PYTHONHASHSEED
    done = 0
    attempts = 0
    while done < 10 and attempts < 500:
        attempts += 1
        s = gen_sequent(rng, num_vars=2, depth=2, max_left=2,
                        lattice=theory.has_lattice_ops, fuse=theory.has_fuse)
        out = search(s, theory)
        if not (out.derivable and s.left):
            continue
        pos = rng.randrange(len(s.left))
        donor = search(Sequent((s.left[pos],), (s.left[pos],)), theory).proof
        p = make_cut(donor, out.proof, pos)
        if not check_proof(p, theory, allow_cut=True):
            continue
        q = eliminate_cuts(p, theory)
        assert q.conclusion == p.conclusion
        assert check_proof(q, theory, allow_cut=False), (theory, s)
        done += 1
    assert done >= 10


def test_malformed_proof_json_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rule": "id"}')
    assert run(["check", "--theory", "icrl", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "malformed proof node" in err
    bad.write_text('{"conclusion": "x => x", "rule": "id", "certificate": {"oracle": "lg"}}')
    assert run(["check", "--theory", "icrl", str(bad)]) == 2
    bad.write_text("not json at all")
    assert run(["check", "--theory", "icrl", str(bad)]) == 2
    with pytest.raises(ValueError):
        proof_from_json("[1, 2]", Theory.ICRL)


def test_cli_unknown_theory_and_missing_file(capsys):
    assert run(["prove", "--theory", "nonsense", "x => x"]) == 2
    assert "unknown theory" in capsys.readouterr().err
    assert run(["check", "--theory", "icrl", "/nonexistent/path.json"]) == 2


def test_cli_finmod_pbci_signature(tmp_path, capsys):
    # the two-element group's division reduct is a pseudo BCI-algebra
    alg = {"size": 2, "e": 0, "ldiv": [0, 1, 1, 0], "rdiv": [0, 1, 1, 0]}
    path = tmp_path / "pbci.json"
    path.write_text(json.dumps(alg))
    assert run(["finmod", "validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "VALID" in out
    # breaking antisymmetry of the derived order must be caught
    alg["ldiv"] = [0, 0, 0, 0]
    path.write_text(json.dumps(alg))
    assert run(["finmod", "validate", str(path)]) == 1


def test_cli_finmod_refute_by_theory_ca(capsys):
    code = run(["finmod", "refute", "--theory", "ca", "--max-size", "3", "x, y =>"])
    out = capsys.readouterr().out
    assert code == 0 and "countermodel" in out
    code = run(["finmod", "refute", "--theory", "ca", "--max-size", "3", "f =>"])
    assert code == 1


def test_vacuous_structural_instances_check():
    # weakening with an empty block and exchange of empty segments are
    # schema-valid (conclusion equals premise); search never emits them but
    # externally supplied proofs may contain them
    from icrl.prover import EL, ID, LG_W, W, Proof
    from icrl.terms import Var

    x = Var("x")
    leaf = Proof(Sequent((x,), (x,)), ID)
    assert check_proof(Proof(Sequent((x,), (x,)), W, (leaf,)), Theory.IRL)
    assert check_proof(Proof(Sequent((x,), (x,)), EL, (leaf,)), Theory.CICRL)
    assert check_proof(Proof(Sequent((x,), (x,)), LG_W, (leaf,)), Theory.ICRL)
    # and they survive cut elimination as inputs
    p = make_cut(leaf, Proof(Sequent((x,), (x,)), W, (leaf,)), 0)
    q = eliminate_cuts(p, Theory.IRL)
    assert q.conclusion == p.conclusion
    assert check_proof(q, Theory.IRL, allow_cut=False)


def test_powerset_residuation_brute_force():
    from test_finmod import powerset_of_two

    a = powerset_of_two()
    for xx in range(4):
        for bb in range(4):
            for cc in range(4):
                fused = a.leq[a.fuse[xx][bb]][cc]
                assert a.leq[bb][a.ldiv[xx][cc]] == fused
                assert a.leq[xx][a.rdiv[cc][bb]] == fused
