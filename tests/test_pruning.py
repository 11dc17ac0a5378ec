"""Semantic pruning: search fails every goal that a valuation of the integer
bank refutes, in Z or, for irl, in its negative cone.  These tests do not
trust the search: they compare it with the unpruned search, check the
semantics on every golden proof, and check the lane evaluator lane by lane
against scalar evaluation."""

import json
import random
from pathlib import Path

import pytest

from icrl import ablg_oracle, lg_oracle, prover
from icrl.corpus import gen_sequent, gen_term
from icrl.prover import proof_from_json, proof_to_json, search, search_lgw_explicit
from icrl.terms import (
    E, Fuse, Join, LDiv, Meet, RDiv, Theory, Var, parse_sequent, variables,
)

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
            checked += 1
    assert checked > 800


def _cone_value(t, valuation):
    """Scalar evaluation in the negative cone of Z: x \\ y = y / x = min(0, y - x)."""
    if isinstance(t, Var):
        return valuation[t.name]
    if not isinstance(t, (Meet, Join, Fuse, LDiv, RDiv)):
        return 0  # e and f
    a, b = _cone_value(t.l, valuation), _cone_value(t.r, valuation)
    if isinstance(t, Meet):
        return min(a, b)
    if isinstance(t, Join):
        return max(a, b)
    if isinstance(t, Fuse):
        return a + b
    return min(0, b - a if isinstance(t, LDiv) else a - b)


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
        for cone, scalar in ((False, ablg_oracle.eval_int), (True, _cone_value)):
            lanes, bound = prover._lanes(t, cone)
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
    lanes, bound = prover._lanes(_doubled(t, 13), cone)
    assert bound == 3 * 2**13
    assert _unpack(lanes) == [2**13 * -abs(v) for v in lg_oracle._bank_values("x")]
    # 3 * 2**14 exceeds the 16-bit field, and so does a goal whose total could
    assert prover._lanes(_doubled(t, 14), cone) is None
    assert prover._lanes(RDiv(E, _doubled(t, 14)), cone) is None
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
