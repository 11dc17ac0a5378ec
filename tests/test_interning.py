"""Terms are hash-consed in a weak table: equal live terms built anywhere are
one object, an entry leaves the table when its term dies, and a term built
after its twin died is a new term that changes no result."""

import copy
import gc
import json
import pickle
import random
import subprocess
import sys
import threading
import weakref

import pytest

from icrl import ablg_oracle, lg_oracle, prover, terms
from icrl.corpus import gen_term
from icrl.prover import check_proof, proof_from_json, proof_to_json, search
from icrl.terms import (
    HAS_F,
    HAS_FUSE,
    HAS_LATTICE,
    HAS_RDIV,
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
from test_golden_proofs import FIXTURE, _case, _cases


def _deep(depth):
    """A term of the given depth over every connective and leaf."""
    t = Var("x")
    conns = (Meet, Join, Fuse, LDiv, RDiv)
    for i in range(depth - 1):
        t = conns[i % 5](t, (Var("y"), E, F)[i % 3])
    return t


def _clear_every_cache():
    """Empty every cache that holds terms, so that the terms nothing else
    holds die and leave the table."""
    for module in (prover, lg_oracle, ablg_oracle):
        module.clear_caches()
    print_term.cache_clear()


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
    # after the caches are emptied, the copy of a live term is still that term
    prover.clear_caches()
    for u in (t, t.l, Var("z"), E, F):
        assert roundtrip(u) is u
    assert roundtrip(t)._sig == HAS_F | HAS_LATTICE | HAS_FUSE | HAS_RDIV


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


def test_emptying_the_table_midway_changes_no_result():
    # every case starts from empty caches, so the terms of the cases before
    # it have died and left the table, and their ids are free for its own
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = []
    for th, formulation, text in _cases():
        _clear_every_cache()
        got.append(_case(th, formulation, text))
    assert got == expected
    for case in expected:
        if case["proof"] is not None:
            _clear_every_cache()
            th = Theory(case["theory"])
            back = proof_from_json(case["proof"], th)
            assert proof_to_json(back) == case["proof"]
            assert check_proof(back, th)


def test_terms_built_over_reused_ids_have_their_own_class_and_children():
    rng = random.Random(18)
    conns = (Meet, Join, Fuse, LDiv, RDiv)
    live = [Var("x"), Var("y"), E, F]
    seen = {}  # id -> a weak reference to the term last seen there
    reused = 0
    for _ in range(20_000):
        cls, l, r = rng.choice(conns), rng.choice(live), rng.choice(live)
        t = cls(l, r)
        assert type(t) is cls and t.l is l and t.r is r
        old = seen.get(id(t))
        reused += old is not None and old() is None
        seen[id(t)] = weakref.ref(t)
        if rng.random() < 0.3:
            live.append(t)
        if len(live) > 40:
            del live[rng.randrange(4, len(live))]
    assert reused > 1000
    for cls in conns:
        for l in live:
            for r in live:
                t = cls(l, r)
                assert type(t) is cls and t.l is l and t.r is r


def test_an_entry_leaves_the_table_with_its_term():
    _clear_every_cache()
    gc.collect()  # no garbage cycle holding terms is left to die midway
    before = len(terms._TABLE)
    t = parse_term("(v1 \\/ v2) * v3 \\ v4 /\\ e")
    assert print_term(t) == "(v1 \\/ v2) * v3 \\ v4 /\\ e"
    assert len(terms._TABLE) == before + 8
    del t
    assert len(terms._TABLE) == before + 8  # print_term's cache holds it
    _clear_every_cache()
    assert len(terms._TABLE) == before


def test_the_oracle_and_prover_caches_hold_no_term_once_cleared():
    # print_term's cache holds every term it printed, so prover.clear_caches()
    # empties it with the formula tables
    clear = (prover.clear_caches, lg_oracle.clear_caches, ablg_oracle.clear_caches)
    for fn in clear:
        fn()
    gc.collect()
    before = len(terms._TABLE)
    s = parse_sequent("u * (u \\ e), w => w", Theory.ICRL)
    res = search(s, Theory.ICRL)
    assert res.derivable and proof_to_json(res.proof)
    del s, res
    for fn in clear:
        fn()
    assert len(terms._TABLE) == before


def test_an_interpreter_exiting_with_live_terms_prints_nothing():
    # live terms die, and their entries' callbacks run, while the interpreter
    # shuts down; an exception raised there would only be printed to stderr
    code = (
        "from icrl import prover\n"
        "from icrl.terms import Theory, parse_sequent\n"
        "s = parse_sequent('x, y \\\\ e => x * (y \\\\ e)', Theory.ICRL)\n"
        "print(prover.search(s, Theory.ICRL).derivable)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")
