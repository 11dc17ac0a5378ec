"""Semantic pruning: search fails every goal that a valuation of the integer
bank refutes, in Z or, for irl, in its negative cone and then in the
4-element chain.  These tests do not trust the search: they compare it with
the unpruned search (and irl's cone+chain search with its cone-only one),
check the semantics on every golden proof, and check both lane evaluators
lane by lane against scalar evaluation."""

import json
import random
from pathlib import Path

import pytest

from icrl import finmod, lg_oracle, prover
from icrl.corpus import gen_sequent, gen_term
from icrl.prover import proof_from_json, proof_to_json, search, search_lgw_explicit
from icrl.terms import (
    HAS_F, ConstF, E, Fuse, Join, LDiv, Meet, RDiv, Theory, Var, parse_sequent, subterms, variables,
)
from tests_helpers_oracles import eval_cone, eval_int

GOLDEN = Path(__file__).with_name("golden_proofs.json")

x = Var("x")


def _population():
    """25 seeded sequents per theory over 2 variables at depth 2, unlike the
    golden ones, in both formulations where the theory has an oracle."""
    for th in Theory:
        rng = random.Random(f"pruning-{th.value}")
        for _ in range(25):
            s = gen_sequent(
                rng, num_vars=2, depth=2, max_left=3,
                lattice=th.has_lattice_ops, fuse=th.has_fuse, pointed=th.pointed,
                max_right=2 if th.multiple_conclusion else 1,
            )
            yield th, search, s
            if th.oracle is not None and not th.multiple_conclusion:
                yield th, search_lgw_explicit, s


def _outcomes():
    return [(find(s, th), th) for th, find, s in _population()]


def test_pruned_and_unpruned_search_find_the_same_proofs(monkeypatch):
    pruned = _outcomes()
    monkeypatch.setattr(prover, "_refuted", lambda goal, cone: False)
    unpruned = _outcomes()
    assert len(pruned) == 375
    for (a, th), (b, _) in zip(pruned, unpruned):
        assert a.derivable == b.derivable
        if a.derivable:
            assert proof_to_json(a.proof) == proof_to_json(b.proof)
        # pruning only removes failing subtrees; max_depth may still rise, when a
        # goal first met in a pruned subtree is next met deeper down
        assert a.nodes_expanded <= b.nodes_expanded
    # the population has both verdicts, and pruning saves work on it
    assert 0 < sum(a.derivable for a, _ in pruned) < len(pruned)
    assert sum(a.nodes_expanded for a, _ in pruned) < sum(b.nodes_expanded for b, _ in unpruned)


def test_no_golden_proof_node_is_refuted():
    checked = 0
    for case in json.loads(GOLDEN.read_text(encoding="utf-8")):
        if case["proof"] is None:
            continue
        th = Theory(case["theory"])
        for node in proof_from_json(case["proof"], th).walk():
            goal = (node.conclusion.left, node.conclusion.right)
            assert not prover._refuted(goal, th is Theory.IRL), (case["sequent"], goal)
            if th is Theory.IRL:
                assert not lg_oracle._chain_refutes(goal), (case["sequent"], goal)
            checked += 1
    assert checked > 800


def _unpack(lanes):
    assert lanes >> (lg_oracle._STRIDE * lg_oracle._LANES) == 0, "no bits above the last lane"
    mask = (1 << lg_oracle._STRIDE) - 1
    values = []
    for i in range(lg_oracle._LANES):
        lane = (lanes >> (lg_oracle._STRIDE * i)) & mask
        assert lane >> lg_oracle._FIELD == 0, "guard bit clear"
        values.append(lane - lg_oracle._BIAS)
    return values


def _valuations(t, cone):
    names = sorted(variables(t))
    columns = [lg_oracle._bank_values(n) for n in names]
    if cone:
        columns = [[-abs(v) for v in column] for column in columns]
    return [dict(zip(names, lane)) for lane in zip(*columns)] or [{}] * lg_oracle._LANES


def test_lanes_match_scalar_evaluation_on_every_lane():
    rng = random.Random("pruning-lanes")
    for _ in range(1500):
        t = gen_term(rng, num_vars=rng.randint(1, 3), depth=rng.randint(1, 6), pointed=True)
        for cone, scalar in ((False, eval_int), (True, eval_cone)):
            lanes, bound = lg_oracle.lanes(t, cone)
            assert bool(t._sig & HAS_F) is any(type(sub) is ConstF for sub in subterms(t))
            expected = [scalar(t, v) for v in _valuations(t, cone)]
            assert _unpack(lanes) == expected, (t, cone)
            assert max(map(abs, expected)) <= bound
            if cone:
                assert max(expected) <= 0, "the cone's values lie below e"


def _doubled(t, times):
    """t fused with itself `times` times over: 2**times copies, shared as a DAG."""
    for _ in range(times):
        t = Fuse(t, t)
    return t


@pytest.mark.parametrize("cone", [False, True])
def test_lanes_stand_aside_past_the_field(cone):
    t = Meet(x, LDiv(x, E))  # min(x, -x): -|x| in Z and in the cone alike
    lanes, bound = lg_oracle.lanes(_doubled(t, 13), cone)
    assert bound == 3 * 2**13
    assert _unpack(lanes) == [2**13 * -abs(v) for v in lg_oracle._bank_values("x")]
    # 3 * 2**14 exceeds the 16-bit field, and so does a goal whose total could
    assert lg_oracle.lanes(_doubled(t, 14), cone) is None
    assert lg_oracle.lanes(RDiv(E, _doubled(t, 14)), cone) is None
    positive = _doubled(Join(x, E), 13)  # 2**13 max(x, 0), positive on some lanes of Z
    assert prover._refuted(((positive,), (E,)), False)
    assert not prover._refuted(((positive, positive), (E,)), False)
    assert not prover._refuted(((_doubled(t, 14),), ()), cone)


def test_a_goal_is_refuted_by_its_sum_on_one_lane():
    # Z: x => x * x fails where x < 0; the cone takes only values <= 0
    square = (x,), (Fuse(x, x),)
    assert prover._refuted(square, False) and prover._refuted(square, True)
    # e => x is refuted in both; x => e only in Z, since the cone lies below e
    assert prover._refuted(((), (x,)), True)
    assert prover._refuted(((x,), (E,)), False) and not prover._refuted(((x,), (E,)), True)
    # an empty right side is f = 0 (ca)
    assert prover._refuted(((Join(x, E),), ()), False)
    assert not prover._refuted(((Meet(x, E),), ()), False)


def test_a_refuted_root_expands_nothing():
    out = search(parse_sequent("x => e", Theory.ICRL), Theory.ICRL)
    assert not out.derivable and out.nodes_expanded == 0 and out.max_depth == 0


# --- the 4-chain bank of irl ------------------------------------------------------


def _chain_algebra() -> finmod.FiniteAlgebra:
    """The chain 0 < 1 < 2 < 3 = e with the bank's literal fusion table, its
    residuals computed from that table."""
    fuse, chain = lg_oracle.CHAIN_FUSE, range(4)
    return finmod.FiniteAlgebra(
        size=4,
        e=3,
        leq=tuple(tuple(a <= b for b in chain) for a in chain),
        meet=tuple(tuple(min(a, b) for b in chain) for a in chain),
        join=tuple(tuple(max(a, b) for b in chain) for a in chain),
        fuse=fuse,
        ldiv=tuple(tuple(max(c for c in chain if fuse[a][c] <= b) for b in chain) for a in chain),
        rdiv=tuple(tuple(max(c for c in chain if fuse[c][b] <= a) for b in chain) for a in chain),
    )


def test_the_chain_is_the_smallest_non_commutative_integral_algebra():
    chain = _chain_algebra()
    assert finmod.validate(chain) == []
    assert all(chain.le(a, chain.e) for a in range(4)) and not chain.is_commutative()
    assert chain in finmod.enumerate_algebras(4, "integral")
    assert all(a.is_commutative() for n in (1, 2, 3) for a in finmod.enumerate_algebras(n, "integral"))


def _chain_values(masks):
    """Each lane's value in the chain, from a term's down-set masks."""
    return [sum(1 - (d >> i & 1) for d in masks) for i in range(lg_oracle._LANES)]


def test_chain_lanes_match_the_algebra_on_every_lane():
    chain = _chain_algebra()
    rng = random.Random("pruning-chain")
    for _ in range(1500):
        t = gen_term(rng, num_vars=rng.randint(1, 3), depth=rng.randint(1, 6), pointed=False)
        masks = lg_oracle._chain_lanes(t)
        assert masks[0] & ~masks[1] == 0 and masks[1] & ~masks[2] == 0, "down-sets are nested"
        names = sorted(variables(t))
        columns = [_chain_values(lg_oracle._chain_var(n)) for n in names]
        valuations = [dict(zip(names, lane)) for lane in zip(*columns)] or [{}] * lg_oracle._LANES
        assert _chain_values(masks) == [finmod.eval_term(chain, v, t) for v in valuations], t


def test_each_variable_takes_each_chain_value_on_16_lanes():
    for name in ("x", "y", "z", "v1"):
        values = _chain_values(lg_oracle._chain_var(name))
        assert sorted(values) == sorted(list(range(4)) * 16)
    assert lg_oracle._chain_var("x") != lg_oracle._chain_var("y")


def test_the_chain_refutes_what_the_cone_cannot():
    y = Var("y")
    goal = (Fuse(x, y),), (Fuse(y, x),)
    assert prover._refuted(goal, True)
    assert lg_oracle.refuting_valuation(goal, True) is None  # the cone does not refute it
    assert lg_oracle._chain_refutes(goal)
    assert not lg_oracle._chain_refutes(((Fuse(x, y),), (Join(Fuse(y, x), Fuse(x, y)),)))


def test_the_chain_changes_no_irl_verdict_or_proof(monkeypatch):
    rng = random.Random("pruning-chain-irl")  # 120 irl sequents, 3 variables, depth 3
    population = [gen_sequent(rng, num_vars=3, depth=3, max_left=3) for _ in range(120)]
    both = [search(s, Theory.IRL) for s in population]
    monkeypatch.setattr(lg_oracle, "_chain_refutes", lambda goal: 0)
    cone = [search(s, Theory.IRL) for s in population]
    for s, a, b in zip(population, both, cone):
        assert a.derivable == b.derivable, s
        if a.derivable:
            assert proof_to_json(a.proof) == proof_to_json(b.proof), s
        assert a.nodes_expanded <= b.nodes_expanded, s
    assert 0 < sum(a.derivable for a in both) < len(both)
    assert sum(a.nodes_expanded for a in both) < sum(b.nodes_expanded for b in cone)
