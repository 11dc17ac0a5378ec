import os
import random
import subprocess
import sys

import pytest

import icrl
from icrl import ablg_oracle, lg_oracle
from icrl.corpus import gen_term
from icrl.lg_oracle import (
    GnfSizeError,
    concat_words,
    invert_word,
    lg_valid_leq_e,
    lg_valid_sequent,
    semigroup_contains_identity,
    sequent_goal,
)
from icrl.terms import E, F, Fuse, Join, LDiv, Meet, Sequent, Var, parse_sequent, parse_term
from tests_helpers_oracles import bfs_identity_oracle, eval_int, rounds_identity_oracle, to_gnf

x, y = Var("x"), Var("y")

wx = (("x", 1),)
wX = (("x", -1),)
wy = (("y", 1),)
wY = (("y", -1),)


def test_to_gnf_examples():
    # x \ x reduces to the identity word
    assert to_gnf(LDiv(x, x)).meetands_by_joinand == (((),),)
    # x \/ (x \ e): two singleton joinands, x and x^-1
    gnf = to_gnf(Join(x, LDiv(x, E)))
    assert set(gnf.meetands_by_joinand) == {(wx,), (wX,)}
    # (x /\ y) \ e = x^-1 \/ y^-1: hand-computed inverse of a meet
    gnf = to_gnf(parse_term("(x /\\ y) \\ e"))
    assert set(gnf.meetands_by_joinand) == {(wX,), (wY,)}


def test_to_gnf_meet_inverse_matches_integer_semantics():
    # cross-check (x /\ y) \ e against min/max/+ evaluation at integer points
    t = parse_term("(x /\\ y) \\ e")
    for vx in range(-2, 3):
        for vy in range(-2, 3):
            val = {"x": vx, "y": vy}
            direct = eval_int(t, val)
            via_gnf = max(-vx, -vy)  # x^-1 \/ y^-1
            assert direct == via_gnf


def test_semigroup_contains_identity_examples():
    assert semigroup_contains_identity(frozenset({wx, wX})) is True
    assert semigroup_contains_identity(frozenset({wx})) is False
    # x^-1 and y x y^-1: balanced products stay reduced-nontrivial
    conj = concat_words((), (("y", 1), ("x", 1), ("y", -1)))
    assert semigroup_contains_identity(frozenset({wX, conj})) is False
    assert bfs_identity_oracle({wX, conj}, 8) is False


def test_bfs_identity_oracle_examples():
    assert bfs_identity_oracle({wx, wX}, 2) is True
    assert bfs_identity_oracle({wx}, 10) is False
    ab = concat_words(wx, wy)
    BA = concat_words(wY, wX)
    assert bfs_identity_oracle({ab, BA}, 2) is True


def test_lg_valid_leq_e_examples():
    assert lg_valid_leq_e(Fuse(x, LDiv(x, E))) is True
    assert lg_valid_leq_e(x) is False
    assert lg_oracle.refuting_valuation(((x,), (E,))) is not None
    assert lg_valid_leq_e(Meet(LDiv(x, E), x)) is True


def test_lg_valid_sequent_examples():
    assert lg_valid_sequent(parse_sequent("x, x \\ e => e")) is True
    assert lg_valid_sequent(parse_sequent("=> e")) is True
    assert lg_valid_sequent(parse_sequent("x => e")) is False


def test_lg_valid_sequent_general_right_side():
    assert lg_valid_sequent(parse_sequent("x, y => x * y")) is True
    assert lg_valid_sequent(parse_sequent("x => x \\/ y")) is True
    assert lg_valid_sequent(parse_sequent("x \\/ y => x")) is False


def test_sequent_goal_leaves_out_a_right_side_of_e():
    assert sequent_goal((x, y), (E,)) == Fuse(x, y)
    assert sequent_goal((x,), ()) is x
    assert sequent_goal((), (E,)) is E
    assert sequent_goal((), (x,)) == Fuse(E, LDiv(x, E))
    assert sequent_goal((x,), (y, x)) == Fuse(x, LDiv(Fuse(y, x), E))
    # f is not e to the l-group oracle: it reaches z_refutes, which refuses it
    with pytest.raises(ValueError, match="pointed term"):
        lg_valid_sequent(Sequent((x,), (F,)))


def test_free_reduction_confluence_random_orders():
    rng = random.Random(5)

    def reduce_random(pairs):
        word = list(pairs)
        while True:
            sites = [
                i
                for i in range(len(word) - 1)
                if word[i][0] == word[i + 1][0] and word[i][1] == -word[i + 1][1]
            ]
            if not sites:
                return tuple(word)
            i = rng.choice(sites)
            del word[i : i + 2]

    for _ in range(300):
        letters = [(rng.choice("xyz"), rng.choice((1, -1))) for _ in range(rng.randint(0, 12))]
        expect = concat_words((), letters)
        for _ in range(3):
            assert reduce_random(letters) == expect


def _random_generator_set(rng):
    gens = set()
    for _ in range(rng.randint(1, 4)):
        letters = [(rng.choice("xy"), rng.choice((1, -1))) for _ in range(rng.randint(1, 4))]
        w = concat_words((), letters)
        if w:
            gens.add(w)
    return gens or {wx}


def test_automaton_agrees_with_bfs_closure():
    rng = random.Random(31337)
    for _ in range(250):
        gens = _random_generator_set(rng)
        automaton_says = semigroup_contains_identity(frozenset(gens))
        bfs_says = bfs_identity_oracle(gens, 8)
        if bfs_says:
            assert automaton_says, f"BFS found identity, automaton missed it: {gens}"
        if not automaton_says:
            assert not bfs_says, f"automaton denies identity BFS found: {gens}"


def _random_words(rng, count, length):
    """A set of `count` distinct non-empty reduced words over x, y, z, each
    reduced from 1 to `length` random letters."""
    gens = set()
    while len(gens) < count:
        letters = [(rng.choice("xyz"), rng.choice((1, -1))) for _ in range(rng.randint(1, length))]
        gens.add(concat_words((), letters) or wx)
    return frozenset(gens)


def test_worklist_agrees_with_round_based_saturation_on_random_sets():
    rng = random.Random("worklist")
    answers = [0, 0]
    for _ in range(2000):
        gens = _random_words(rng, rng.randint(1, 8), 8)
        assert semigroup_contains_identity(gens) is rounds_identity_oracle(gens), gens
        answers[semigroup_contains_identity(gens)] += 1
    assert min(answers) > 200, answers
    # many words: the worklist returns early on a True answer
    large_true = 0
    for _ in range(40):
        gens = _random_words(rng, rng.randint(21, 28), 6)
        assert semigroup_contains_identity(gens) is rounds_identity_oracle(gens), gens
        large_true += semigroup_contains_identity(gens)
    assert large_true >= 20
    # sets whose words share trie states, against the reference's one path per
    # word: a word with some of its proper prefixes, words that differ only in
    # their last letter, and one-letter words with their inverses
    letters = [(v, s) for v in "xyz" for s in (1, -1)]
    for family in ("prefixes", "last letter", "letters"):
        answers = [0, 0]
        for _ in range(300):
            word = next(iter(_random_words(rng, 1, 8)))
            if family == "prefixes":
                shared = {word[:i] for i in range(1, len(word)) if rng.random() < 0.5}
            elif family == "last letter":
                # no last letter that would cancel against the one before it
                ends = [(v, s) for v, s in letters if word[-2:-1] != ((v, -s),)]
                shared = {word[:-1] + (a,) for a in rng.sample(ends, 3)}
            else:
                shared = {(a,) for a in rng.sample(letters, 2)}
                shared |= {invert_word(w) for w in shared if rng.random() < 0.5}
            gens = frozenset({word} | shared) | _random_words(rng, rng.randint(0, 3), 6)
            assert semigroup_contains_identity(gens) is rounds_identity_oracle(gens), gens
            answers[semigroup_contains_identity(gens)] += 1
        assert min(answers) > 20, (family, answers)


def test_worklist_agrees_with_round_based_saturation_on_oracle_blocks(monkeypatch):
    # every generator set lg_valid_leq_e asks about, on cold caches
    met = []
    saturate = lg_oracle.semigroup_contains_identity

    def record(gens):
        met.append(gens)
        return saturate(gens)

    lg_oracle.clear_caches()
    monkeypatch.setattr(lg_oracle, "semigroup_contains_identity", record)
    rng = random.Random("worklist-blocks")
    for _ in range(2000):
        try:
            lg_valid_leq_e(gen_term(rng, num_vars=3, depth=rng.randint(4, 6)))
        except GnfSizeError:
            pass
    assert len(met) > 300
    assert any(len(gens) > 20 for gens in met)
    for gens in met:
        assert saturate(gens) is rounds_identity_oracle(gens), gens


def test_lg_validity_implies_ablg_validity():
    rng = random.Random(424242)
    for _ in range(200):
        t = gen_term(rng, num_vars=2, depth=3)
        if lg_valid_leq_e(t):
            assert ablg_oracle.ablg_valid_leq_e(t), f"lg-valid but not ablg-valid: {t}"


def test_refutation_soundness_on_corpus():
    rng = random.Random(8)
    found, unexplained = 0, 0
    for _ in range(150):
        t = gen_term(rng, num_vars=3, depth=3)
        if lg_valid_leq_e(t):
            continue
        val = lg_oracle.refuting_valuation(((t,), (E,)))
        if val is None:
            unexplained += 1  # abelian refutation is sufficient, not necessary
        else:
            found += 1
            assert eval_int(t, val) > 0
    assert found > 0


def test_gnf_size_cap_is_a_hard_error(monkeypatch):
    # (x0 \/ e) * ... * (x9 \/ e) distributes to 1024 joinands
    t = Join(Var("x0"), E)
    for i in range(1, 10):
        t = Fuse(t, Join(Var(f"x{i}"), E))
    lg_oracle.clear_caches()
    ablg_oracle.clear_caches()
    monkeypatch.setattr(lg_oracle, "WORD_CAP", 50)
    with pytest.raises(GnfSizeError):
        to_gnf(t)
    monkeypatch.setattr(lg_oracle, "WORD_CAP", 2000)
    assert len(to_gnf(t).meetands_by_joinand) == 1024


# t * t <= e for t = e /\ (x0 \/ y0) /\ ... /\ (x8 \/ y8): t has 2**9 meet
# blocks of ten elements each, so t * t would have 2**18 blocks of 100
_WIDE = " /\\ ".join(["e"] + [f"(x{i} \\/ y{i})" for i in range(9)])
_CAPPED_SQUARE = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from icrl.cli import run
sys.exit(run(["oracle", sys.argv[1], "({_WIDE}) * ({_WIDE}) <= e"]))
"""


@pytest.mark.parametrize("oracle", ["lg", "ablg"])
def test_the_word_cap_is_checked_before_a_product_is_built(oracle):
    # in a child process with 1 GiB of address space: a cap checked only on
    # what distribution has built lets this query grow until memory runs out
    src = os.path.dirname(os.path.dirname(icrl.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    cmd = [sys.executable, "-c", _CAPPED_SQUARE, oracle]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == f"error: normal form would exceed the word cap ({lg_oracle.WORD_CAP})\n"


def test_pointed_input_rejected():
    from icrl.terms import Theory

    with pytest.raises(ValueError):
        lg_valid_leq_e(parse_term("f \\ e", Theory.CA))


def test_a_term_asked_directly_and_as_a_sequent_is_cached_once():
    t = parse_term("x * (x \\ e)")
    lg_oracle.clear_caches()
    lg_valid_leq_e(t)
    lg_valid_sequent(Sequent((t,), (E,)))
    assert lg_valid_leq_e.cache_info().currsize == 1


def test_clear_caches_empties_the_sequent_cache():
    s = parse_sequent("x, x \\ e => e")
    assert lg_valid_sequent(s) is lg_valid_sequent(s) is True
    assert lg_valid_sequent.cache_info().hits >= 1
    lg_oracle.clear_caches()
    assert lg_valid_sequent.cache_info().currsize == 0


_SATURATION_COUNTS = """
import random
from icrl import lg_oracle
from icrl.corpus import gen_term

rng = random.Random(4)
for _ in range(300):
    try:
        lg_oracle.lg_valid_leq_e(gen_term(rng, num_vars=3, depth=4))
    except lg_oracle.GnfSizeError:
        pass
print(lg_oracle.semigroup_contains_identity.cache_info())
"""


def test_saturation_calls_do_not_depend_on_the_hash_seed():
    # meet blocks are frozensets; checking them in iteration order made the
    # short-circuit, and so the saturation calls, follow PYTHONHASHSEED
    src = os.path.dirname(os.path.dirname(icrl.__file__))
    counts = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        cmd = [sys.executable, "-c", _SATURATION_COUNTS]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        counts.add(proc.stdout)
    assert len(counts) == 1, counts
