"""Acceptance criteria, one test per criterion, zero tolerance unless stated.

Each test prints one PASS line (visible with -s or -rP); any failure trips
the assert with a description of the first disagreement.
"""

import itertools
import random

from icrl import ablg_oracle, lg_oracle
from icrl.ablg_oracle import strict_infeasible
from icrl.corpus import gen_proof_with_cuts, gen_sequent, gen_term
from icrl.cutelim import eliminate_cuts
from icrl.finmod import check_property, enumerate_algebras, refute
from icrl.prover import check_proof, decide_equation, search, search_lgw_explicit
from icrl.terms import (
    E,
    Sequent,
    Theory,
    neg_translation,
    parse_sequent,
    parse_term,
    print_sequent,
    print_term,
    sequent_complexity,
)
from tests_helpers_oracles import bfs_identity_oracle, gordan_infeasible, vector


def _report(n, text):
    print(f"ACCEPTANCE {n:02d} PASS - {text}")


def test_criterion_01_derivability_corpus():
    cases = [
        ("x \\ x => e", Theory.ICRL, True),
        ("x / x => e", Theory.ICRL, True),
        ("~(x \\ y) => ~y / ~x", Theory.ICRL, True),
        ("~y / ~x => ~(x \\ y)", Theory.ICRL, True),
        ("~(y / x) => ~x \\ ~y", Theory.ICRL, True),
        ("~x \\ ~y => ~(y / x)", Theory.ICRL, True),
        ("f * f => f", Theory.CA, True),
        ("f => f * f", Theory.CA, True),
    ]
    for text, th, expected in cases:
        out = search(parse_sequent(text, th), th)
        assert out.derivable == expected, f"{text} [{th.value}]"
    _report(1, f"derivability corpus ({len(cases)} sequents, exact)")


def test_criterion_02_glivenko():
    rng = random.Random(20200901)
    n = 200
    for i in range(n):
        t = gen_term(rng, num_vars=2, depth=4)
        goal = Sequent((t,), (E,))
        oracle_says = lg_oracle.lg_valid_leq_e(t)
        prover_says = search(goal, Theory.ICRL).derivable
        assert oracle_says == prover_says, f"lg vs icrl at #{i}: {print_term(t)}"
        oracle_says = ablg_oracle.ablg_valid_leq_e(t)
        prover_says = search(goal, Theory.CICRL).derivable
        assert oracle_says == prover_says, f"ablg vs cicrl at #{i}: {print_term(t)}"
    _report(2, f"Glivenko cross-check: {n} terms, lg=icrl and ablg=cicrl, 100%")


def test_criterion_03_formulation_equivalence():
    rng = random.Random(31415)
    done = 0
    while done < 200:
        s = gen_sequent(rng, num_vars=2, depth=2, max_left=3)
        if sequent_complexity(s) > 12:
            continue
        for th in (Theory.ICRL, Theory.CICRL):
            a = search(s, th).derivable
            b = search_lgw_explicit(s, th).derivable
            assert a == b, f"{th.value} formulations disagree: {print_sequent(s)}"
        done += 1
    _report(3, "formulation equivalence: 200 sequents x {icrl, cicrl}, 100%")


def test_criterion_04_conservativity_sirmonoids():
    rng = random.Random(271828)
    for i in range(150):
        m = gen_sequent(rng, num_vars=2, depth=2, lattice=False, fuse=True)
        a = search(m, Theory.SIRM).derivable
        b = search(m, Theory.ICRL).derivable
        assert a == b, f"sirm vs icrl at #{i}: {print_sequent(m)}"
    for i in range(150):
        m = gen_sequent(rng, num_vars=2, depth=2, lattice=False, fuse=False)
        a = search(m, Theory.PSEUDO_BCI).derivable
        b = search(m, Theory.ICRL).derivable
        assert a == b, f"pbci vs icrl at #{i}: {print_sequent(m)}"
    _report(4, "conservativity: 150 m-sequents sirm=icrl and 150 pbci=icrl, 100%")


def test_criterion_05_conservativity_casari():
    rng = random.Random(1618)
    for i in range(150):
        s = gen_sequent(rng, num_vars=2, depth=2, max_left=2)
        a = search(s, Theory.CA).derivable
        b = search(s, Theory.CICRL).derivable
        assert a == b, f"ca vs cicrl at #{i}: {print_sequent(s)}"
    # f-free sequents with an empty succedent are never ca-derivable
    for i in range(150):
        nl = rng.randint(0, 3)
        left = tuple(gen_term(rng, num_vars=2, depth=2) for _ in range(nl))
        out = search(Sequent(left, ()), Theory.CA)
        assert not out.derivable, f"empty succedent derived: {left}"
    _report(5, "conservativity: 150 f-free sequents ca=cicrl; 150 empty-succedent rejections")


def test_criterion_06_negative_cone():
    rng = random.Random(14142)
    for i in range(100):
        s = gen_term(rng, num_vars=2, depth=2)
        t = gen_term(rng, num_vars=2, depth=2)
        a = decide_equation(s, t, Theory.IRL)
        b = decide_equation(neg_translation(s), neg_translation(t), Theory.ICRL)
        assert a == b, f"negative cone at #{i}: {print_term(s)} = {print_term(t)}"
    _report(6, "negative-cone translation: 100 equations irl=icrl-translated, 100%")


def test_criterion_07_cut_elimination():
    rng = random.Random(577215)
    done = 0
    attempts = 0
    while done < 100 and attempts < 4000:
        attempts += 1
        p, th = gen_proof_with_cuts(rng, num_vars=2, depth=2)
        if p is None:
            continue
        q = eliminate_cuts(p, th)
        assert q.conclusion == p.conclusion, th
        assert check_proof(q, th, allow_cut=False), (th, print_sequent(p.conclusion))
        done += 1
    assert done >= 100, f"only {done} cut-bearing proofs generated"
    _report(7, f"cut elimination: {done} proofs with 1-3 cuts, same conclusion, cut-free, 100%")


def test_criterion_08_finite_structure_theory():
    checked = 0
    for n in (1, 2, 3, 4):
        for alg in enumerate_algebras(n, "rl"):
            checked += 1
            ic = check_property(alg, "integrally_closed")
            integral = check_property(alg, "integral")
            assert ic == integral, f"size-{n} algebra: integrally closed {ic} vs integral {integral}"
            if check_property(alg, "e_cyclic"):
                expectations = [
                    check_property(alg, "neg_swap_ldiv"),
                    check_property(alg, "neg_swap_rdiv"),
                    check_property(alg, "neg_cancel_left"),
                    check_property(alg, "neg_cancel_right"),
                ]
                assert all(v == ic for v in expectations), f"size-{n} equivalence failure"
            if ic:
                assert check_property(alg, "torsion_free", n), f"size-{n} torsion failure"
    sir2 = enumerate_algebras(2, "sirmonoid")
    group = [a for a in sir2 if not check_property(a, "integral")]
    assert len(group) == 1, "the two-element group should be the unique non-integral size-2 sirmonoid"
    z2 = group[0]
    assert z2.fuse[1][1] == z2.e
    _report(8, f"finite structure theory: {checked} residuated lattices of size <= 4; "
               "2-element group found among sirmonoids")


def test_criterion_09_oracle_internal_duality():
    rng = random.Random(662607)
    systems = 0
    for _ in range(400):
        rows = tuple(
            vector({v: rng.randint(-3, 3) for v in ("x", "y", "z")[: rng.randint(1, 3)]})
            for _ in range(rng.randint(1, 4))
        )
        assert strict_infeasible(rows) == gordan_infeasible(rows), rows
        systems += 1
    conclusive = 0
    for _ in range(250):
        gens = set()
        for _ in range(rng.randint(1, 3)):
            w = lg_oracle.concat_words(
                (),
                [(rng.choice("xy"), rng.choice((1, -1))) for _ in range(rng.randint(1, 4))],
            )
            if w:
                gens.add(w)
        if not gens:
            continue
        automaton = lg_oracle.semigroup_contains_identity(frozenset(gens))
        bfs = bfs_identity_oracle(gens, 8)
        if bfs:
            conclusive += 1
            assert automaton, f"automaton misses identity found by closure: {gens}"
        if not automaton:
            assert not bfs, f"closure finds identity the automaton denies: {gens}"
    _report(9, f"oracle duality: {systems} systems FM=Gordan; automaton vs depth-8 closure "
               f"({conclusive} conclusive hits)")


def test_criterion_10_soundness_against_finite_models():
    rng = random.Random(602214)
    plan = [
        (Theory.RL, "rl", False),
        (Theory.IRL, "integral", False),
        (Theory.ICRL, "integral", False),
        (Theory.CICRL, "integral", True),
        (Theory.SIRM, "sirmonoid", False),
        (Theory.PSEUDO_BCI, "sirmonoid", False),
        (Theory.SIRCOM, "sirmonoid", True),
        (Theory.BCI, "sirmonoid", True),
        (Theory.CA, "casari", True),
    ]
    derivable_seen = 0
    for i in range(270):
        th, cls, comm = plan[i % len(plan)]
        s = gen_sequent(
            rng,
            num_vars=2,
            depth=2,
            max_left=2,
            lattice=th.has_lattice_ops,
            fuse=th.has_fuse,
            pointed=th.pointed,
            max_right=2 if th.multiple_conclusion else 1,
        )
        out = search(s, th)
        if not out.derivable:
            continue
        derivable_seen += 1
        hit = refute(out.proof.conclusion, 3, cls, commutative=comm)
        assert hit is None, (
            f"finite countermodel contradicts derivability [{th.value}]: "
            f"{print_sequent(s)} refuted by size-{hit[0].size} algebra at {hit[1]}"
        )
    assert derivable_seen >= 40
    _report(10, f"soundness: {derivable_seen} derivable sequents across all nine theories, "
                "no finite countermodel at size <= 3")
