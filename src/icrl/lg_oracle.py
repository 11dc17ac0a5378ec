"""Validity of t <= e over all lattice-ordered groups.

The decision chain: rewrite the term into a join-of-meets of freely reduced
group words (residuals become inverses, fusion becomes concatenation, the
lattice operations are distributed out), then decide each meet block by the
subsemigroup criterion: a meet of group words is <= e in every l-group
exactly when the identity lies in the subsemigroup its words generate.

That criterion is imported from the ordered-group literature and quarantined
behind this module: `semigroup_contains_identity` decides membership of the
identity in a finitely generated subsemigroup of a free group by worklist
saturation of a rational-subset automaton (cubic in the words' total length,
stopped at the first identity path), tested against a brute-force closure.

Every entry point takes only its query; the one resource limit is WORD_CAP,
past which distribution raises GnfSizeError rather than truncating.

Before any normal form, `z_refutes` evaluates the term in the l-group of
integers under a fixed bank of valuations, once per term (cached); Z is an
abelian l-group, so a positive value refutes t <= e for both oracles.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from functools import lru_cache

from .terms import ConstE, ConstF, E, Fuse, Join, LDiv, Meet, RDiv, Sequent, Term, Var, product_term

# A group word is a freely reduced tuple of (variable, sign) letters;
# the empty tuple is the group identity.
Letter = tuple[str, int]
GroupWord = tuple[Letter, ...]

# the most group elements a join-of-meets may hold during distribution
WORD_CAP = 100_000


class GnfSizeError(RuntimeError):
    """Distribution to join-of-meets form exceeded WORD_CAP."""


@dataclass(frozen=True)
class GroupNormalForm:
    """Join of meets of group words: joinands outer, meetands inner."""

    meetands_by_joinand: tuple[tuple[GroupWord, ...], ...]

    def __post_init__(self):
        assert self.meetands_by_joinand, "a normal form has at least one joinand"
        assert all(block for block in self.meetands_by_joinand)


def concat_words(w1: GroupWord, w2: GroupWord) -> GroupWord:
    stack = list(w1)
    for v, s in w2:
        if stack and stack[-1][0] == v and stack[-1][1] == -s:
            stack.pop()
        else:
            stack.append((v, s))
    return tuple(stack)


def invert_word(w: GroupWord) -> GroupWord:
    return tuple((v, -s) for v, s in reversed(w))


# Internally a join-of-meets is a frozenset of frozensets of group elements.


def _absorb(jom):
    """Drop meet blocks that contain another block: the bigger meet lies
    below the smaller one, so the join absorbs it."""
    blocks = sorted(jom, key=len)
    kept: list = []
    for m in blocks:
        if not any(n <= m for n in kept):
            kept.append(m)
    return frozenset(kept)


def distribute(t: Term, gen, unit, mul, inv) -> frozenset:
    """Join-of-meets equal to t, distributed over a group: `gen(name)` is a
    variable's generator, `unit` the identity, `mul` the product and `inv`
    the inverse.

    Residuals become products with an inverse, so one algorithm serves the
    free group (words) and its abelian image (exponent vectors).  Raises
    GnfSizeError once the total number of elements exceeds WORD_CAP.
    """

    def capped(j):
        if sum(len(block) for block in j) > WORD_CAP:
            raise GnfSizeError(f"normal form exceeded the word cap ({WORD_CAP})")
        return j

    def fuse(a, b):
        out = set()
        for m in a:
            for n in b:
                out.add(frozenset(mul(w, v) for w in m for v in n))
        return capped(_absorb(frozenset(out)))

    def invert(a):
        # (V_i /\_j w_ij)^-1 = /\_i V_j w_ij^-1, distributed back to join-of-meets
        # incrementally: deduplication and absorption keep the frontier small
        out = {frozenset()}
        for m in a:
            inverted = sorted({inv(w) for w in m})
            out = _absorb({blk | {w} for blk in out for w in inverted})
            capped(out)
        return frozenset(out)

    def go(t):
        if isinstance(t, Var):
            return frozenset({frozenset({gen(t.name)})})
        if isinstance(t, ConstE):
            return frozenset({frozenset({unit})})
        if isinstance(t, ConstF):
            raise ValueError("pointed term: replace f by e before calling a group oracle")
        if isinstance(t, Meet):
            a, b = go(t.l), go(t.r)
            return capped(_absorb(frozenset(m | n for m in a for n in b)))
        if isinstance(t, Join):
            return capped(_absorb(go(t.l) | go(t.r)))
        if isinstance(t, Fuse):
            return fuse(go(t.l), go(t.r))
        if isinstance(t, LDiv):
            return fuse(invert(go(t.l)), go(t.r))
        if isinstance(t, RDiv):
            return fuse(go(t.l), invert(go(t.r)))
        raise TypeError(f"not a term: {t!r}")

    return go(t)


def _word_gen(name: str) -> GroupWord:
    return ((name, 1),)


def _to_jom(t: Term):
    """Join-of-meets of freely reduced words equal to t in every l-group."""
    return distribute(t, _word_gen, (), concat_words, invert_word)


def to_gnf(t: Term) -> GroupNormalForm:
    """Join-of-meets of group words equal to t in every l-group."""
    jom = _to_jom(t)
    return GroupNormalForm(tuple(sorted(tuple(sorted(m)) for m in jom)))


# --- rational-subset automaton ----------------------------------------------


@lru_cache(maxsize=65536)
def semigroup_contains_identity(gens: frozenset[GroupWord]) -> bool:
    """True iff some non-empty product of the generators reduces to e.

    Decided on a finite automaton over signed letters with epsilon edges that
    accepts every non-empty concatenation of the generators: each generator
    is a path of letter edges from state 0 to state 1, and an epsilon edge
    leads from 1 back to 0.  Saturation adds p =eps=> q whenever
    p -a-> x =eps*=> y -a^-1-> q, and the identity is such a product exactly
    when saturation reaches 0 =eps*=> 1.  A worklist pops each pair of eps*
    once, closes it under transitivity, fires the rule through per-state
    edge indexes and returns as soon as 0 =eps*=> 1: for n states, at most
    n^2 pops of O(n) set work each.
    """
    if not gens:
        raise ValueError("generator set must be non-empty")
    if () in gens:
        return True
    out: list[dict[Letter, list[int]]] = [{}, {}]  # state -> letter -> targets
    into: list[list[tuple[int, Letter]]] = [[], []]  # x -> (p, a^-1) per edge p -a-> x
    for word in sorted(gens):
        path = [0, *range(len(out), len(out) + len(word) - 1), 1]
        out += [{} for _ in word[1:]]
        into += [[] for _ in word[1:]]
        for p, (v, sign), q in zip(path, word, path[1:]):
            out[p].setdefault((v, sign), []).append(q)
            into[q].append((p, (v, -sign)))
    reach: list[set[int]] = [set() for _ in out]  # reach[x]: every y with x =eps*=> y
    back: list[set[int]] = [set() for _ in out]  # back[y]: every x with x =eps*=> y
    work: list[tuple[int, int]] = []

    def add(x, y):
        reach[x].add(y)
        back[y].add(x)
        work.append((x, y))

    for s in range(len(out)):
        add(s, s)
    add(1, 0)
    while work:
        x, y = work.pop()
        for z in reach[y] - reach[x]:
            add(x, z)
        for w in back[x] - back[y]:
            add(w, y)
        for p, inv in into[x]:
            for q in out[y].get(inv, ()):
                if q not in reach[p]:
                    add(p, q)
        if 1 in reach[0]:
            return True
    return False


# --- refutation in Z ------------------------------------------------------------

# The bank's 64 valuations are evaluated at once: a subterm's 64 values are
# packed into one int, lane i at bits [17 i, 17 i + 17).  A lane holds the
# value plus _BIAS in its low 16 bits, so the biased field is never negative
# and orders like the value, and a guard bit above it that is zero between
# operations.
_LANES = 64
_FIELD = 16
_STRIDE = _FIELD + 1
_BIAS = 1 << (_FIELD - 1)
_LIMIT = _BIAS - 1  # |value| <= _LIMIT keeps every lane inside its field
_BANK_RANGE = 3  # variable values lie in [-3, 3]
_ONES = sum(1 << (_STRIDE * i) for i in range(_LANES))
_BIASES = _BIAS * _ONES  # every lane 0
_GUARDS = (1 << _FIELD) * _ONES
_POSITIVE = (_BIAS + 1) * _ONES  # every lane 1


class _LaneOverflow(Exception):
    """A lane's value could leave its field."""


def _bank_values(name: str) -> tuple[int, ...]:
    """The variable's value in each valuation of the bank: every value in
    [-3, 3] nine or ten times, in an order shuffled from the crc32 of the
    name's bytes, so the bank does not follow PYTHONHASHSEED."""
    values = [i % (2 * _BANK_RANGE + 1) - _BANK_RANGE for i in range(_LANES)]
    random.Random(zlib.crc32(name.encode("utf-8"))).shuffle(values)
    return tuple(values)


@lru_cache(maxsize=4096)
def _var_lanes(name: str) -> int:
    return sum((v + _BIAS) << (_STRIDE * i) for i, v in enumerate(_bank_values(name)))


def _ge_mask(a: int, b: int) -> int:
    """All 16 field bits of each lane where a >= b, zero elsewhere."""
    # a lane of (a | guard) - b is 2**16 + a - b > 0: no borrow leaves the
    # lane, and its guard bit survives exactly when a >= b
    ge = ((a | _GUARDS) - b) & _GUARDS
    return ge - (ge >> _FIELD)


@lru_cache(maxsize=65536)
def z_refutes(t: Term) -> bool:
    """True if some valuation of the bank makes t > 0 in the integers
    (meet = min, join = max, fusion = +, residuals = differences).

    Then t <= e fails in Z, hence in every l-group and every abelian
    l-group.  False proves nothing; it is also the answer whenever a lane's
    value could leave its 16-bit field, so no lane ever wraps.
    """
    memo: dict[int, tuple[int, int]] = {}  # id(subterm) -> (lanes, bound on |value|)

    def go(t):
        hit = memo.get(id(t))
        if hit is not None:
            return hit
        cls = type(t)
        if cls is Var:
            out = (_var_lanes(t.name), _BANK_RANGE)
        elif cls is ConstE:
            out = (_BIASES, 0)
        elif cls is ConstF:
            raise ValueError("pointed term: replace f by e before calling a group oracle")
        else:
            a, bound_a = go(t.l)
            b, bound_b = go(t.r)
            if cls is Meet or cls is Join:
                pick = (a ^ b) & _ge_mask(a, b)
                out = (a ^ pick if cls is Meet else b ^ pick, max(bound_a, bound_b))
            else:
                bound = bound_a + bound_b
                if bound > _LIMIT:
                    raise _LaneOverflow
                if cls is Fuse:
                    out = (a + b - _BIASES, bound)
                elif cls is LDiv:
                    out = (b - a + _BIASES, bound)
                elif cls is RDiv:
                    out = (a - b + _BIASES, bound)
                else:
                    raise TypeError(f"not a term: {t!r}")
        memo[id(t)] = out
        return out

    try:
        lanes, _ = go(t)
    except _LaneOverflow:
        return False
    return _ge_mask(lanes, _POSITIVE) != 0


# --- validity ----------------------------------------------------------------


@lru_cache(maxsize=65536)
def lg_valid_leq_e(t: Term) -> bool:
    """True iff t <= e holds in every lattice-ordered group."""
    if z_refutes(t):
        return False
    jom = _to_jom(t)
    # smallest block first, in a fixed order: the first invalid block ends the
    # check, so iterating the frozenset would make the work follow the hash seed
    blocks = sorted(jom, key=lambda block: (len(block), sorted(block)))
    return all(semigroup_contains_identity(frozenset(block)) for block in blocks)


@lru_cache(maxsize=65536)
def lg_valid_sequent(s: Sequent) -> bool:
    """Sequent validity over l-groups: product(left) <= right."""
    if len(s.right) != 1:
        raise ValueError("the l-group oracle takes single-conclusion sequents")
    u = s.right[0]
    t = product_term(s.left)
    if not isinstance(u, ConstE):
        t = Fuse(t, LDiv(u, E))
    return lg_valid_leq_e(t)


def clear_caches():
    z_refutes.cache_clear()
    semigroup_contains_identity.cache_clear()
    lg_valid_leq_e.cache_clear()
    lg_valid_sequent.cache_clear()
