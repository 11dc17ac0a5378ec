"""Cut elimination output is pinned byte for byte on seeded cut proofs.

Each case holds a proof with cuts and the cut-free proof that
`eliminate_cuts` returns for it, both as proof JSON objects (equal objects
print to equal proof JSON).  Searched proofs of seeded sequents of every
theory, half of them explicit-weakening proofs where the theory has an
oracle, are cut against a partner: an identity `t => t` expanded one step
(its last rule introduces t, so the cut turns principal), a searched proof
of a small context around t, or in ca a proof of `t => t, f`, whose right
context survives the cut.  Two expanded identities are also cut against
each other, and multi-cut proofs come from `corpus.gen_proof_with_cuts`.
Regenerate the fixture only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_cutelim.py > tests/golden_cutelim.json
"""

import json
import random
import sys
from pathlib import Path

from icrl.corpus import _derivable_premise_for, gen_proof_with_cuts, gen_sequent
from icrl.cutelim import eliminate_cuts
from icrl.prover import (
    ARROW_RIGHT,
    E_LEFT,
    E_RIGHT,
    F_LEFT,
    F_RIGHT,
    FUSE_LEFT,
    JOIN_LEFT,
    LDIV_RIGHT,
    MEET_RIGHT,
    RDIV_RIGHT,
    Proof,
    check_proof,
    make_cut,
    proof_from_dict,
    proof_to_json,
    search,
    search_lgw_explicit,
)
from icrl.terms import E, F, ConstE, ConstF, Fuse, Join, LDiv, Meet, RDiv, Sequent, Theory

FIXTURE = Path(__file__).with_name("golden_cutelim.json")

PER_THEORY = 12
MULTI_CUT = 16


def _searched(left, right, th):
    out = search(Sequent(left, right), th)
    return out.proof if out.derivable else None


def _expanded_identity(t, th):
    """A proof of `t => t` whose last rule introduces t, or None (variables)."""
    if isinstance(t, ConstE):
        return Proof(Sequent((E,), (E,)), E_LEFT, (Proof(Sequent((), (E,)), E_RIGHT),))
    if isinstance(t, ConstF):
        return Proof(Sequent((F,), (F,)), F_RIGHT, (Proof(Sequent((F,), ()), F_LEFT),))
    if isinstance(t, Meet):
        rule, goals = MEET_RIGHT, [((t,), (t.l,)), ((t,), (t.r,))]
    elif isinstance(t, Join):
        rule, goals = JOIN_LEFT, [((t.l,), (t,)), ((t.r,), (t,))]
    elif isinstance(t, Fuse):
        rule, goals = FUSE_LEFT, [((t.l, t.r), (t,))]
    elif isinstance(t, LDiv) and th.multiple_conclusion:
        rule, goals = ARROW_RIGHT, [((t, t.l), (t.r,))]
    elif isinstance(t, LDiv):
        rule, goals = LDIV_RIGHT, [((t.l, t), (t.r,))]
    elif isinstance(t, RDiv):
        rule, goals = RDIV_RIGHT, [((t, t.r), (t.l,))]
    else:
        return None
    premises = tuple(_searched(gl, gr, th) for gl, gr in goals)
    if None in premises:
        return None
    return Proof(Sequent((t,), (t,)), rule, premises)


def _cut(rng, found, th):
    """A cut of the searched proof `found` against a partner proof of one of
    its formulas, or None; the kind of partner is drawn from rng."""
    left, right = found.conclusion.left, found.conclusion.right
    kind = rng.randrange(5 if th.multiple_conclusion else 4)
    if kind == 0:
        d2 = _expanded_identity(right[0], th) if right else None
        return None if d2 is None else make_cut(found, d2, 0)
    if not left:
        return None
    pos = rng.randrange(len(left))
    t = left[pos]
    if kind == 1:
        d1 = _expanded_identity(t, th)
    elif kind == 2:
        d1 = _derivable_premise_for(rng, t, th)
    elif kind == 3:
        # two expanded identities: a principal cut on either side
        d1 = _expanded_identity(t, th)
        return None if d1 is None else make_cut(d1, d1, 0)
    else:
        d1 = _searched((t,), (t, F), th)
    return None if d1 is None else make_cut(d1, found, pos)


def _single_cuts(th):
    rng = random.Random(f"golden-cut-{th.value}")
    explicit = th.oracle is not None and not th.multiple_conclusion
    count = PER_THEORY * (6 if th.multiple_conclusion else 1)  # ca has the most rebuild cases
    made = attempts = 0
    while made < count and attempts < 1000:
        attempts += 1
        s = gen_sequent(
            rng, num_vars=2, depth=2, max_left=2,
            lattice=th.has_lattice_ops, fuse=th.has_fuse, pointed=th.pointed,
            max_right=2 if th.multiple_conclusion else 1,
        )
        find = search_lgw_explicit if explicit and made % 2 else search
        out = find(s, th)
        if not out.derivable:
            continue
        p = _cut(rng, out.proof, th)
        if p is None or not check_proof(p, th, allow_cut=True):
            continue
        yield p
        made += 1


def _cases():
    for th in Theory:
        for p in _single_cuts(th):
            yield th, p
    rng = random.Random("golden-cut-multi")
    made = 0
    while made < MULTI_CUT:
        p, th = gen_proof_with_cuts(rng, num_vars=2, depth=2)
        if p is not None:
            yield th, p
            made += 1


def _as_dict(p: Proof) -> dict:
    return json.loads(proof_to_json(p))


def _golden():
    return [
        {
            "theory": th.value,
            "cut_proof": _as_dict(p),
            "cut_free": _as_dict(eliminate_cuts(p, th)),
        }
        for th, p in _cases()
    ]


def test_cut_elimination_matches_golden():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert {c["theory"] for c in expected} == {th.value for th in Theory}
    right_context = False
    for case in expected:
        th = Theory(case["theory"])
        p = proof_from_dict(case["cut_proof"], th)
        right_context |= th.multiple_conclusion and len(p.premises[0].conclusion.right) > 1
        got = _as_dict(eliminate_cuts(p, th))
        assert got == case["cut_free"], (case["theory"], case["cut_proof"]["conclusion"])
    assert right_context  # a ca cut whose first premise has a right context


if __name__ == "__main__":
    sys.stdout.write("[\n")
    sys.stdout.write(",\n".join(json.dumps(c, sort_keys=True) for c in _golden()))
    sys.stdout.write("\n]\n")
