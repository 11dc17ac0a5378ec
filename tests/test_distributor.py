"""The group oracles' distributors: each caches the normal form of every
proper subterm it meets, never the term asked, and its cached forms equal
the uncached recursion's."""

import random

import pytest

from icrl import ablg_oracle, lg_oracle
from icrl.corpus import gen_term
from icrl.lg_oracle import GnfSizeError, _absorb
from icrl.terms import Theory, parse_term, subterms

from tests_helpers_oracles import absorbed, reference_abelianize, reference_jom

# (module, its distributor, the form the oracle reads, the uncached reference, the validity query)
ORACLES = {
    "lg": (lg_oracle, lg_oracle._to_jom, lg_oracle._to_jom, reference_jom, lg_oracle.lg_valid_leq_e),
    "ablg": (ablg_oracle, ablg_oracle._to_vectors, ablg_oracle.abelianize, reference_abelianize,
             ablg_oracle.ablg_valid_leq_e),
}


def _answer(fn, t):
    try:
        return fn(t)
    except GnfSizeError:
        return GnfSizeError


def _terms(seed: str, count: int):
    rng = random.Random(seed)
    return [gen_term(rng, num_vars=3, depth=rng.randint(1, 6)) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_cached_forms_equal_the_uncached_recursion(name, monkeypatch):
    # with the cap lowered, the few terms whose forms near 100000 words raise
    # at once in both, instead of taking seconds each
    monkeypatch.setattr(lg_oracle, "WORD_CAP", 10_000)
    module, _, form, reference, _ = ORACLES[name]
    terms = _terms(f"distributor-{name}", 1000)
    expected = {t: _answer(reference, t) for t in terms}
    rng = random.Random(name)
    module.clear_caches()
    for session in range(2):
        # one shuffled session that shares its subterms, then a cold one
        order = list(terms)
        rng.shuffle(order)
        for t in order:
            assert _answer(form, t) == expected[t], (session, t)
        module.clear_caches()


def _proper_subterms(t):
    return set(subterms(t)) - {t}


# neither refuted in Z, so both oracles build their normal forms
QUERIES = ("(x /\\ e) * (y \\ (x * y) /\\ e)", "((x /\\ e) * (y \\ x) /\\ e) / (e \\/ x * x)")


@pytest.mark.parametrize("name", sorted(ORACLES))
@pytest.mark.parametrize("text", QUERIES)
def test_a_query_caches_its_proper_subterms_but_not_itself(name, text):
    module, distributor, _, _, valid = ORACLES[name]
    t = parse_term(text, Theory.ICRL)
    assert not lg_oracle.z_refutes(t)
    module.clear_caches()
    valid(t)
    proper = _proper_subterms(t)
    cache = distributor.cached
    info = cache.cache_info()
    assert info.currsize == len(proper)
    for sub in proper:
        cache(sub)
    after = cache.cache_info()
    assert (after.hits, after.misses) == (info.hits + len(proper), info.misses)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_clear_caches_empties_the_distributor(name):
    module, distributor, _, _, valid = ORACLES[name]
    module.clear_caches()
    valid(parse_term(QUERIES[0], Theory.ICRL))
    assert distributor.cached.cache_info().currsize > 0
    module.clear_caches()
    assert distributor.cached.cache_info().currsize == 0


# t has 2**9 meet blocks of ten elements each, so t * t would have 2**18 blocks of 100
_WIDE = " /\\ ".join(["e"] + [f"(x{i} \\/ y{i})" for i in range(9)])


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_the_word_cap_holds_when_the_factors_are_cached(name):
    module, distributor, _, _, valid = ORACLES[name]
    module.clear_caches()
    wide = parse_term(_WIDE, Theory.ICRL)
    assert valid(wide) is True
    square = parse_term(f"({_WIDE}) * ({_WIDE})", Theory.ICRL)
    assert distributor.cached.cache_info().currsize == len(_proper_subterms(square)) - 1
    with pytest.raises(GnfSizeError):
        valid(square)


def _families(rng: random.Random):
    """Seeded families of blocks over a small universe: random ones, ones of
    one length, and nested chains mixed with other blocks."""
    universe = range(8)
    for _ in range(300):
        yield {frozenset(rng.sample(universe, rng.randint(0, 5))) for _ in range(rng.randint(0, 12))}
    for size in range(5):
        for _ in range(20):
            yield {frozenset(rng.sample(universe, size)) for _ in range(rng.randint(1, 12))}
    for _ in range(100):
        order = rng.sample(universe, 8)
        chain = {frozenset(order[:k]) for k in rng.sample(range(9), rng.randint(1, 6))}
        yield chain | {frozenset(rng.sample(universe, rng.randint(1, 5))) for _ in range(rng.randint(0, 4))}


def test_absorb_keeps_exactly_the_blocks_without_a_proper_subset():
    for family in _families(random.Random("absorb")):
        assert _absorb(family) == absorbed(family), family
        assert _absorb(frozenset(family)) == absorbed(family), family
