"""The integer fast path in front of both group oracles: `lg_oracle.z_refutes`
evaluates a term under 64 valuations in Z at once, packed into one int."""

import os
import random
import subprocess
import sys

import pytest

import icrl
from icrl import ablg_oracle, lg_oracle
from icrl.corpus import gen_term
from icrl.lg_oracle import GnfSizeError, z_refutes
from icrl.terms import E, Fuse, Join, Meet, Theory, Var, parse_term, product_term, variables

x = Var("x")


def _lane_valuations(t):
    names = sorted(variables(t))
    columns = [lg_oracle._bank_values(n) for n in names]
    return [dict(zip(names, lane)) for lane in zip(*columns)]


def test_kernel_matches_scalar_evaluation_on_every_lane():
    rng = random.Random("z-kernel")
    refuted = 0
    for _ in range(2000):
        t = gen_term(rng, num_vars=rng.randint(1, 3), depth=rng.randint(1, 6))
        valuations = _lane_valuations(t)
        assert len(valuations) == 64 or not valuations
        expected = any(ablg_oracle.eval_int(t, v) > 0 for v in valuations)
        assert z_refutes(t) is expected, t
        refuted += expected
    assert 0 < refuted < 2000


def test_refuted_terms_are_invalid_for_the_normal_form_procedures():
    # the filter answers only what the normal forms would: every refuted term
    # has a meet block outside the semigroup test and one that FM finds feasible
    rng = random.Random("z-exact")
    checked = 0
    for _ in range(300):
        t = gen_term(rng, num_vars=rng.randint(1, 3), depth=rng.randint(1, 4))
        if not z_refutes(t):
            continue
        blocks = lg_oracle.to_gnf(t).meetands_by_joinand
        assert not all(lg_oracle.semigroup_contains_identity(frozenset(b)) for b in blocks), t
        assert not all(
            ablg_oracle.strict_infeasible(ablg_oracle.StrictSystem(b)) for b in ablg_oracle.abelianize(t)
        ), t
        checked += 1
    assert checked > 100


def test_every_bank_value_lies_in_the_range_and_each_occurs():
    for name in ("x", "y", "z", "x0", "a long variable name"):
        values = lg_oracle._bank_values(name)
        assert len(values) == 64
        assert sorted(set(values)) == list(range(-3, 4))


@pytest.mark.parametrize("oracle", [lg_oracle.lg_valid_leq_e, ablg_oracle.ablg_valid_leq_e])
def test_pointed_input_raises_even_when_z_refutes_it(oracle):
    # (x \/ e) * f would be refuted with f = 0; the oracles take f-free terms
    t = parse_term("(x \\/ e) * f", Theory.CA)
    with pytest.raises(ValueError):
        oracle(t)
    with pytest.raises(ValueError):
        z_refutes(t)


def test_z_refutes_answers_once_per_term():
    t = parse_term("(x \\/ e) * (y /\\ e)")
    lg_oracle.clear_caches()
    assert z_refutes(t) is True
    hits = z_refutes.cache_info().hits
    assert z_refutes(parse_term("(x \\/ e) * (y /\\ e)")) is True  # an equal term built apart
    assert z_refutes.cache_info().hits == hits + 1
    assert z_refutes.cache_info().currsize == 1
    lg_oracle.clear_caches()
    assert z_refutes.cache_info().currsize == 0
    # both oracles ask it of the same term: one evaluation
    lg_oracle.lg_valid_leq_e(t)
    ablg_oracle.ablg_valid_leq_e(t)
    assert z_refutes.cache_info()[:2] == (1, 1)  # (hits, misses)


def test_pointed_input_raises_again_since_errors_are_not_cached():
    t = parse_term("(x \\/ e) * f", Theory.CA)
    lg_oracle.clear_caches()
    for _ in range(2):
        with pytest.raises(ValueError):
            z_refutes(t)
    assert z_refutes.cache_info().currsize == 0


def _doubled(t, times):
    """t fused with itself `times` times over: 2**times copies, shared as a DAG."""
    for _ in range(times):
        t = Fuse(t, t)
    return t


def test_doubling_past_the_lane_field_is_not_refuted_and_never_wraps():
    positive = Join(x, E)  # max(x, 0): positive on lanes with x > 0
    negative = Meet(x, parse_term("x \\ e"))  # min(x, -x) <= 0 on every lane
    for times in range(40):
        # |value| <= 3 * 2**times; wrapping would turn large negatives positive
        assert z_refutes(_doubled(negative, times)) is False
    assert all(z_refutes(_doubled(positive, times)) for times in range(12))
    # 3 * 2**14 exceeds the 16-bit field: the filter stands aside
    assert z_refutes(_doubled(positive, 14)) is False


_BANK_VALUES = """
from icrl import lg_oracle
print([lg_oracle._bank_values(n) for n in ("x", "y", "z", "x0", "v12")])
"""


def test_bank_does_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(icrl.__file__))
    outputs = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", _BANK_VALUES], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs


def _factors(op):
    return product_term(op(Var(f"x{i}"), E) for i in range(10))


@pytest.fixture
def word_cap_50(monkeypatch):
    # a cached answer would hide the cap, so both oracles start cold
    lg_oracle.clear_caches()
    ablg_oracle.clear_caches()
    monkeypatch.setattr(lg_oracle, "WORD_CAP", 50)


@pytest.mark.parametrize("oracle", [lg_oracle.lg_valid_leq_e, ablg_oracle.ablg_valid_leq_e])
def test_z_refutable_terms_answer_without_reaching_the_word_cap(oracle, word_cap_50):
    # (x0 \/ e) * ... * (x9 \/ e) distributes to 2**10 words, over the cap
    assert oracle(_factors(Join)) is False


@pytest.mark.parametrize("oracle", [lg_oracle.lg_valid_leq_e, ablg_oracle.ablg_valid_leq_e])
def test_the_cap_is_still_an_error_when_the_answer_needs_the_normal_form(oracle, word_cap_50):
    # (x0 /\ e) * ... * (x9 /\ e) <= e holds in Z, so only the normal form can answer
    t = _factors(Meet)
    assert not z_refutes(t)
    with pytest.raises(GnfSizeError):
        oracle(t)
