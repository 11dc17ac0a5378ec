import itertools
import random

from icrl.ablg_oracle import (
    abelianize,
    ablg_valid_leq_e,
    ablg_valid_sequent,
    strict_infeasible,
)
from icrl import ablg_oracle, lg_oracle
from icrl.corpus import gen_sequent, gen_term
from icrl.terms import Fuse, Sequent, Theory, Var, parse_sequent, parse_term
from tests_helpers_oracles import eval_int, gordan_infeasible, to_gnf, vector, vector_of_word

x, y = Var("x"), Var("y")


def lf(**kw):
    return vector(kw)


def test_abelianize_examples():
    # x * y * ((y * x) \ e)  collapses to the zero vector
    t = parse_term("x * y * ((y * x) \\ e)")
    assert abelianize(t) == (((),),)
    # x \/ (x \ e)
    blocks = abelianize(parse_term("x \\/ (x \\ e)"))
    assert set(blocks) == {(lf(x=1),), (lf(x=-1),)}
    # x \ y
    assert abelianize(parse_term("x \\ y")) == ((lf(x=-1, y=1),),)


def test_strict_infeasible_examples():
    assert strict_infeasible((lf(x=1), lf(x=-1))) is True
    assert strict_infeasible((lf(x=1),)) is False
    assert strict_infeasible(((), lf(x=1))) is True  # the zero vector: 0 > 0
    cyc = (lf(x=1, y=-1), lf(y=1, z=-1), lf(z=1, x=-1))
    assert strict_infeasible(cyc) is True
    assert gordan_infeasible(cyc) is True
    # grid confirmation: no integer point in [-3,3]^3 satisfies all three
    for p in itertools.product(range(-3, 4), repeat=3):
        vx, vy, vz = p
        assert not (vx - vy > 0 and vy - vz > 0 and vz - vx > 0)


def test_ablg_valid_sequent_examples():
    assert ablg_valid_sequent(parse_sequent("x * y => y * x", Theory.CICRL)) is True
    assert ablg_valid_sequent(parse_sequent("x /\\ y => x", Theory.CICRL)) is True
    s = parse_sequent("x \\/ y => x", Theory.CICRL)
    assert ablg_valid_sequent(s) is False
    val = lg_oracle.refuting_valuation((s.left, s.right))
    assert val is not None
    assert max(val["x"], val["y"]) > val["x"]


def test_ablg_multiple_conclusion_and_f():
    # empty right side is the empty sum f, which maps to e
    assert ablg_valid_sequent(parse_sequent("f =>", Theory.CA)) is True
    assert ablg_valid_sequent(parse_sequent("=> e, f", Theory.CA)) is True
    assert ablg_valid_sequent(parse_sequent("x =>", Theory.CA)) is False
    assert ablg_valid_sequent(parse_sequent("f => f * f", Theory.CA)) is True


def test_abelianize_is_the_collapsed_group_normal_form():
    # distributing over exponent vectors commutes with collapsing the words
    # of the free-group normal form (abelianization is a homomorphism)
    rng = random.Random(4242)
    for _ in range(200):
        t = gen_term(rng, num_vars=3, depth=rng.randint(1, 4))
        words = to_gnf(t).meetands_by_joinand
        collapsed = lg_oracle._absorb(
            frozenset(frozenset(vector_of_word(w) for w in block) for block in words)
        )
        expected = tuple(sorted(tuple(sorted(b)) for b in collapsed))
        assert abelianize(t) == expected, t


def _random_system(rng):
    rows = []
    for _ in range(rng.randint(1, 4)):
        rows.append(lf(**{v: rng.randint(-3, 3) for v in ("x", "y", "z")[: rng.randint(1, 3)]}))
    return tuple(rows)


def test_fourier_motzkin_agrees_with_gordan():
    rng = random.Random(777)
    for _ in range(400):
        sys = _random_system(rng)
        assert strict_infeasible(sys) == gordan_infeasible(sys), sys


def test_left_permutation_invariance():
    rng = random.Random(12)
    for _ in range(100):
        s = gen_sequent(rng, num_vars=2, depth=2, max_left=3)
        perm = list(s.left)
        rng.shuffle(perm)
        assert ablg_valid_sequent(s) == ablg_valid_sequent(Sequent(tuple(perm), s.right))


def test_grid_agreement_one_directional():
    rng = random.Random(2024)
    refuted = 0
    for _ in range(200):
        s = gen_sequent(rng, num_vars=3, depth=2, max_left=2)
        valid = ablg_valid_sequent(s)
        val = lg_oracle.refuting_valuation((s.left, s.right))
        if valid:
            assert val is None, f"oracle says valid but grid refutes: {s} at {val}"
        elif val is not None:
            refuted += 1
    assert refuted > 0


def test_eval_int():
    t = parse_term("(x /\\ e) * (y \\/ e)")
    assert eval_int(t, {"x": -2, "y": 5}) == -2 + 5
    assert eval_int(t, {"x": 1, "y": -1}) == 0


def test_clear_caches_empties_the_sequent_cache():
    s = parse_sequent("x * y => y * x", Theory.CICRL)
    assert ablg_valid_sequent(s) is ablg_valid_sequent(s) is True
    assert ablg_valid_sequent.cache_info().hits >= 1
    ablg_oracle.clear_caches()
    assert ablg_valid_sequent.cache_info().currsize == 0
