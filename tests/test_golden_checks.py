"""Checker verdicts are pinned on seeded one-point mutations of pinned proofs.

Every node of every proof in `golden_proofs.json` and `golden_cutelim.json`
(both the cut proof and its cut-free output) is mutated in a few seeded
ways: its rule replaced by another rule of the theory, its premises
reversed, one conclusion formula dropped, duplicated or swapped with its
neighbour on either side, or one formula dropped from one premise.  The
fixture holds `check_proof_detailed` of each mutated proof, so a refactor of
the checker must accept and reject exactly what it did, failing at the same
node with the same message.  Regenerate the fixture only for an intended
change of the checker:

    PYTHONPATH=src python tests/test_golden_checks.py > tests/golden_checks.json
"""

import json
import random
import sys
from pathlib import Path

from icrl.prover import (
    CUT,
    Proof,
    allowed_rules,
    check_proof_detailed,
    proof_from_dict,
    proof_from_json,
)
from icrl.terms import Sequent, Theory

HERE = Path(__file__).parent
FIXTURE = HERE / "golden_checks.json"


def _proofs():
    """(theory, proof, cuts allowed) for every pinned proof, in fixture order."""
    for case in json.loads((HERE / "golden_proofs.json").read_text(encoding="utf-8")):
        if case["proof"] is not None:
            th = Theory(case["theory"])
            yield th, proof_from_json(case["proof"], th), False
    for case in json.loads((HERE / "golden_cutelim.json").read_text(encoding="utf-8")):
        th = Theory(case["theory"])
        yield th, proof_from_dict(case["cut_proof"], th), True
        yield th, proof_from_dict(case["cut_free"], th), False


def _paths(p: Proof, path=()):
    """Paths of all nodes, root first."""
    yield path
    for k, q in enumerate(p.premises):
        yield from _paths(q, path + (k,))


def _replace(p: Proof, path, node: Proof) -> Proof:
    if not path:
        return node
    k = path[0]
    premises = p.premises[:k] + (_replace(p.premises[k], path[1:], node),) + p.premises[k + 1 :]
    return Proof(p.conclusion, p.rule, premises, p.certificates)


def _edit(seq: tuple, kind: str, i: int) -> tuple:
    if kind == "drop":
        return seq[:i] + seq[i + 1 :]
    if kind == "dup":
        return seq[: i + 1] + seq[i:]
    return seq[:i] + (seq[i + 1], seq[i]) + seq[i + 2 :]  # swap with the next


def _with_side(s: Sequent, side: str, new: tuple) -> Sequent:
    return Sequent(new, s.right) if side == "left" else Sequent(s.left, new)


def _mutants(rng: random.Random, node: Proof, th: Theory):
    """(label, mutated node) pairs for one node."""
    others = sorted(allowed_rules(th) - {node.rule})
    rule = rng.choice(others)
    yield f"rule {rule}", Proof(node.conclusion, rule, node.premises, node.certificates)
    if len(node.premises) > 1:
        yield "reverse", Proof(node.conclusion, node.rule, node.premises[::-1], node.certificates)
    c = node.conclusion
    edits = [
        (kind, side, i)
        for side, seq in (("left", c.left), ("right", c.right))
        for kind in ("drop", "dup", "swap")
        for i in range(len(seq) - (kind == "swap"))
    ]
    if edits:
        kind, side, i = rng.choice(edits)
        seq = c.left if side == "left" else c.right
        concl = _with_side(c, side, _edit(seq, kind, i))
        yield f"{kind} {side} {i}", Proof(concl, node.rule, node.premises, node.certificates)
    drops = [
        (k, side, i)
        for k, q in enumerate(node.premises)
        for side, seq in (("left", q.conclusion.left), ("right", q.conclusion.right))
        for i in range(len(seq))
    ]
    if drops:
        k, side, i = rng.choice(drops)
        q = node.premises[k]
        seq = q.conclusion.left if side == "left" else q.conclusion.right
        q = Proof(_with_side(q.conclusion, side, _edit(seq, "drop", i)), q.rule, q.premises,
                  q.certificates)
        premises = node.premises[:k] + (q,) + node.premises[k + 1 :]
        yield f"premise {k} drop {side} {i}", Proof(node.conclusion, node.rule, premises,
                                                    node.certificates)


def _checked():
    """(proof number, mutated node's path, mutation, [ok, failing path, message])."""
    for n, (th, proof, allow_cut) in enumerate(_proofs()):
        rng = random.Random(f"golden-check-{n}")
        for path in _paths(proof):
            node = proof
            for k in path:
                node = node.premises[k]
            for label, mutant in _mutants(rng, node, th):
                ok, at, message = check_proof_detailed(_replace(proof, path, mutant), th, allow_cut)
                yield n, list(path), label, [ok, None if at is None else list(at), message]


def test_checker_verdicts_match_golden():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    # both verdicts, failures above the mutated node, and a disallowed cut
    assert any(ok for ok, _, _ in expected) and not all(ok for ok, _, _ in expected)
    actual = list(_checked())
    assert any(got[1] not in (None, path) for _, path, _, got in actual)
    assert any(label == "rule " + CUT and not got[0] for _, _, label, got in actual)
    assert len(actual) == len(expected)
    for (n, path, label, got), want in zip(actual, expected):
        assert got == want, (n, path, label)


if __name__ == "__main__":
    sys.stdout.write("[\n")
    sys.stdout.write(",\n".join(json.dumps(c[-1]) for c in _checked()))
    sys.stdout.write("\n]\n")
