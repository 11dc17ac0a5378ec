"""Terms are interned at construction: equal terms built anywhere since the
intern table was last emptied are one object, and emptying the table changes
no result."""

import copy
import json
import pickle
import random
import sys
import threading

import pytest

from icrl import prover, terms
from icrl.corpus import gen_term
from icrl.prover import check_proof, proof_from_json, proof_to_json, search
from icrl.terms import (
    MAX_TERM_DEPTH,
    E,
    F,
    ConstE,
    ConstF,
    Fuse,
    Join,
    LDiv,
    Meet,
    RDiv,
    Theory,
    Var,
    neg_translation,
    normalize_for_theory,
    parse_sequent,
    parse_term,
    print_term,
    subst_f_to_e,
    subterms,
)
from test_golden_proofs import FIXTURE, _golden


def _deep(depth):
    """A term of the given depth over every connective and leaf."""
    t = Var("x")
    conns = (Meet, Join, Fuse, LDiv, RDiv)
    for i in range(depth - 1):
        t = conns[i % 5](t, (Var("y"), E, F)[i % 3])
    return t


def test_equal_terms_built_anywhere_are_one_object():
    x, y = Var("x"), Var("y")
    assert Var("x") is x and ConstE() is E and ConstF() is F
    assert parse_term("x * (y \\ e)") is Fuse(x, LDiv(y, E))
    assert parse_term("~x /\\ y \\/ e") is Join(Meet(LDiv(x, E), y), E)
    assert parse_sequent("x, y => x * y").right[0] is Fuse(x, y)
    assert normalize_for_theory(RDiv(x, Fuse(y, F)), Theory.CA) is LDiv(Fuse(y, F), x)
    assert parse_term("x / y", Theory.CA) is LDiv(y, x)
    assert subst_f_to_e(Meet(LDiv(x, F), F)) is Meet(LDiv(x, E), E)
    assert neg_translation(LDiv(x, y)) is Meet(LDiv(Meet(x, E), Meet(y, E)), E)
    rng = random.Random(15)
    for _ in range(300):
        t = gen_term(rng, num_vars=3, depth=4, pointed=False)
        assert parse_term(print_term(t)) is t
    proof = search(parse_sequent("x, y \\ e => x * (y \\ e)"), Theory.ICRL).proof
    back = proof_from_json(proof_to_json(proof), Theory.ICRL)
    assert all(a is b for a, b in zip(back.conclusion.left, proof.conclusion.left))
    assert back.conclusion.right[0] is proof.conclusion.right[0]


@pytest.mark.parametrize("roundtrip", [
    copy.copy,
    copy.deepcopy,
    lambda t: pickle.loads(pickle.dumps(t)),
], ids=["copy", "deepcopy", "pickle"])
def test_copy_deepcopy_and_pickle_return_the_interned_term(roundtrip):
    t = _deep(MAX_TERM_DEPTH)
    assert sum(1 for _ in subterms(t)) == 2 * MAX_TERM_DEPTH - 1
    for u in (t, t.l, Var("z"), E, F):
        assert roundtrip(u) is u
    # across an emptying of the table the copy is equal, not identical
    prover.clear_caches()
    u = roundtrip(t)
    assert u == t and hash(u) == hash(t)


def test_terms_from_before_an_emptying_equal_their_twins():
    old = [_deep(12), parse_term("(x \\/ y) \\ e * ~x"), Var("x")]
    prover.clear_caches()
    new = [_deep(12), parse_term("(x \\/ y) \\ e * ~x"), Var("x")]
    for a, b in zip(old, new):
        assert a is not b
        assert a == b and b == a and hash(a) == hash(b)
        assert {a: 1}[b] == 1
    # a connective over an old child hashes and compares like the new one
    assert Fuse(old[0], E) == Fuse(new[0], E)
    assert hash(Fuse(old[0], E)) == hash(Fuse(new[0], E))


def test_clear_caches_empties_the_table():
    parse_term("x * y \\ z /\\ e")
    assert len(terms._TABLE) > 0
    prover.clear_caches()
    assert len(terms._TABLE) == 0


def test_threads_racing_on_a_miss_return_one_term():
    texts = [print_term(gen_term(random.Random(k), num_vars=3, depth=5)) for k in range(300)]
    prover.clear_caches()
    built = [None] * 6
    start = threading.Barrier(len(built))

    def build(i):
        start.wait()
        built[i] = [parse_term(text) for text in texts]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(len(built))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for ts in built[1:]:
        assert all(a is b for a, b in zip(built[0], ts))
    assert all(parse_term(text) is t for text, t in zip(texts, built[0]))


def test_the_table_empties_itself_at_its_cap(monkeypatch):
    prover.clear_caches()
    monkeypatch.setattr(terms, "INTERN_CAP", 8)
    t = Var("x")
    for _ in range(100):
        t = Fuse(t, Var("y"))
        assert len(terms._TABLE) <= 8
    assert hash(t) == hash((Fuse._tag, t.l, t.r))


def test_emptying_the_table_midway_changes_no_result(monkeypatch):
    # with a cap of 8 the table empties every few constructions, so goals,
    # memo keys and cache keys mix terms from either side of an emptying
    monkeypatch.setattr(terms, "INTERN_CAP", 8)
    prover.clear_caches()
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert _golden() == expected
    for case in expected:
        if case["proof"] is not None:
            th = Theory(case["theory"])
            back = proof_from_json(case["proof"], th)
            assert proof_to_json(back) == case["proof"]
            assert check_proof(back, th)
