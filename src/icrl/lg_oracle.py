"""Validity of t <= e over all lattice-ordered groups.

The decision chain: rewrite the term into a join-of-meets of freely reduced
group words (residuals become inverses, fusion becomes concatenation, the
lattice operations are distributed out), then decide each meet block by the
subsemigroup criterion: a meet of group words is <= e in every l-group
exactly when the identity lies in the subsemigroup its words generate.

That criterion is imported from the ordered-group literature and quarantined
behind this module: `semigroup_contains_identity` decides membership of the
identity in a finitely generated subsemigroup of a free group by worklist
saturation of a rational-subset automaton built as the words' prefix trie
(cubic in its states, 2 plus one per distinct non-empty proper prefix of a
word; stopped at the first identity path), tested against a brute-force
closure and against saturation of one path per word.

Both group oracles reduce a sequent to one term t <= e by `sequent_goal`.
Every entry point takes only its query; the one resource limit is WORD_CAP:
distribution raises GnfSizeError, rather than truncating, before it builds
a join-of-meets that could pass it.  Each group has one `distributor`, here
over words (`_to_jom`), which caches the forms of the proper subterms of
every query, so a session distributes each formula once, whichever query
asks; `clear_caches()` here empties that cache.

The integer bank lives here too: `lanes` evaluates a term under 64 fixed
valuations at once, in Z or in its negative cone, each variable valued in
[-3, 3] (in the cone, -|v|), packed as 16-bit lanes of one int.
`refuting_lanes` asks it whether a goal's left side sums to more than its
right side.  Before any normal form, `z_refutes` asks it about the term,
once per term (cached): Z is an abelian l-group, so a positive value refutes
t <= e for both oracles.  It refuses a term with f first, from the term's
signature bits.  irl's second bank is the 4-element chain `CHAIN`, a
`finmod.FiniteAlgebra` evaluated on finmod's byte lanes, 64 valuations at
once; `_chain_refutes` asks it whether a goal's left product is not below
its one right formula.  Search prunes its goals with both banks
(`prover._refuted`), and `icrl oracle` and `icrl prove` report the first
refuting integer valuation (`refuting_valuation`).  `clear_caches()` here
and `prover.clear_caches()` both empty the banks' caches (`clear_banks`).
"""

from __future__ import annotations

import random
import zlib
from functools import lru_cache
from itertools import groupby

from . import finmod
from .terms import (
    HAS_F, ConstE, ConstF, E, Fuse, Join, LDiv, Meet, RDiv, Sequent, Term, Var, product_term,
    variables,
)

# A group word is a freely reduced tuple of (variable, sign) letters;
# the empty tuple is the group identity.
Letter = tuple[str, int]
GroupWord = tuple[Letter, ...]

# the most group elements a join-of-meets may hold during distribution
WORD_CAP = 100_000


class GnfSizeError(RuntimeError):
    """Distribution to join-of-meets form exceeded WORD_CAP."""


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
    below the smaller one, so the join absorbs it.  A block is compared only
    with the kept blocks strictly shorter than it: of two distinct blocks of
    one length neither contains the other."""
    if len(jom) < 2:
        return frozenset(jom)
    kept: list = []
    for _, group in groupby(sorted(jom, key=len), len):
        shorter = tuple(kept)
        kept += [m for m in group if not any(n <= m for n in shorter)]
    return frozenset(kept)


_CONNECTIVES = (Meet, Join, Fuse, LDiv, RDiv)


def distributor(gen, unit, mul, inv):
    """The join-of-meets normal form over one group: `gen(name)` is a
    variable's generator, `unit` the identity, `mul` the product and `inv`
    the inverse.

    Residuals become products with an inverse, so one algorithm serves the
    free group (words) and its abelian image (exponent vectors).  Returns
    `form`, which builds a term's join-of-meets from its children's; these
    come from `form.cached`, an lru cache of the form of every proper
    subterm met so far, keyed by the interned term.  The term asked is not
    stored: the oracles cache their answer about it, and its form is the
    largest and used once.  Raises GnfSizeError before building a
    join-of-meets that could hold more than WORD_CAP elements, from the
    sizes of what it is built from.
    """
    unit_form = frozenset({frozenset({unit})})

    def check(size):
        if size > WORD_CAP:
            raise GnfSizeError(f"normal form would exceed the word cap ({WORD_CAP})")

    def total(j):
        return sum(map(len, j))

    def fuse(a, b):
        # every form is absorbed already, so the unit form leaves the other one
        if a == unit_form:
            return b
        if b == unit_form:
            return a
        check(total(a) * total(b))
        out = set()
        for m in a:
            for n in b:
                out.add(frozenset(mul(w, v) for w in m for v in n))
        return _absorb(out)

    def invert(a):
        # (V_i /\_j w_ij)^-1 = /\_i V_j w_ij^-1, distributed back to join-of-meets
        # incrementally: deduplication and absorption keep the frontier small
        out = {frozenset()}
        for m in a:
            inverted = sorted({inv(w) for w in m})
            check((total(out) + len(out)) * len(inverted))
            out = _absorb({blk | {w} for blk in out for w in inverted})
        return frozenset(out)

    def form(t):
        cls = type(t)
        if cls is Var:
            return frozenset({frozenset({gen(t.name)})})
        if cls is ConstE:
            return unit_form
        if cls is ConstF:
            raise ValueError("pointed term: replace f by e before calling a group oracle")
        if cls not in _CONNECTIVES:
            raise TypeError(f"not a term: {t!r}")
        a, b = cached(t.l), cached(t.r)
        if cls is Meet:
            check(len(b) * total(a) + len(a) * total(b))
            return _absorb({m | n for m in a for n in b})
        if cls is Join:
            check(total(a) + total(b))
            return _absorb(a | b)
        if cls is Fuse:
            return fuse(a, b)
        if cls is LDiv:
            return fuse(invert(a), b)
        return fuse(a, invert(b))

    cached = form.cached = lru_cache(maxsize=65536)(form)
    return form


def _word_gen(name: str) -> GroupWord:
    return ((name, 1),)


# Join-of-meets of freely reduced words equal to t in every l-group.
_to_jom = distributor(_word_gen, (), concat_words, invert_word)


# --- rational-subset automaton ----------------------------------------------


@lru_cache(maxsize=65536)
def semigroup_contains_identity(gens: frozenset[GroupWord]) -> bool:
    """True iff some non-empty product of the generators reduces to e.

    Decided on a finite automaton over signed letters with epsilon edges that
    accepts every non-empty concatenation of the generators: the generators'
    prefix trie, whose paths from state 0 to state 1 spell exactly the
    generators, and an epsilon edge from 1 back to 0.  Words share the states
    of their common prefixes, and a word's last letter leads from the state of
    its longest proper prefix into 1, so there are 2 + (distinct non-empty
    proper prefixes) states, at most 2 + sum(|w| - 1); saturating any
    automaton of the same rational set decides the question (Benois 1969).
    Saturation adds p =eps=> q whenever p -a-> x =eps*=> y -a^-1-> q, and
    the identity is such a product exactly when saturation reaches
    0 =eps*=> 1.  A worklist pops each pair of eps* once, closes it under
    transitivity, fires the rule through per-state edge indexes and returns
    as soon as 0 =eps*=> 1: for n states, at most n^2 pops of O(n) set work
    each.
    """
    if not gens:
        raise ValueError("generator set must be non-empty")
    if () in gens:
        return True
    out: list[dict[Letter, list[int]]] = [{}, {}]  # state -> letter -> targets
    into: list[list[tuple[int, Letter]]] = [[], []]  # x -> (p, a^-1) per edge p -a-> x
    inner: dict[tuple[int, Letter], int] = {}  # (p, a) -> the trie state after p -a->

    def edge(p, a, q):
        out[p].setdefault(a, []).append(q)
        into[q].append((p, (a[0], -a[1])))

    for word in sorted(gens):
        p = 0
        for a in word[:-1]:
            q = inner.get((p, a))
            if q is None:
                q = inner[p, a] = len(out)
                out.append({})
                into.append([])
                edge(p, a, q)
            p = q
        edge(p, word[-1], 1)
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


# --- evaluation in Z -----------------------------------------------------------

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
def lanes(t: Term, cone: bool) -> tuple[int, int] | None:
    """t's value under each valuation of the bank, packed, with f = e = 0:
    in Z (meet = min, join = max, fusion = +, residuals = differences) or,
    with `cone`, in its negative cone, where a variable's value v becomes
    -|v| and x \\ y = y / x = min(0, y - x).

    Returns the lanes and a bound on every lane's absolute value; None when
    a lane could leave its 16-bit field, so no lane ever wraps.
    """
    cls = type(t)
    if cls is Var:
        packed = _var_lanes(t.name)
        if cone:
            neg = 2 * _BIASES - packed
            packed ^= (packed ^ neg) & _ge_mask(packed, neg)
        return packed, _BANK_RANGE
    if cls is ConstE or cls is ConstF:
        return _BIASES, 0
    left, right = lanes(t.l, cone), lanes(t.r, cone)
    if left is None or right is None:
        return None
    (a, bound_a), (b, bound_b) = left, right
    if cls is Meet or cls is Join:
        pick = (a ^ b) & _ge_mask(a, b)
        return (a ^ pick if cls is Meet else b ^ pick), max(bound_a, bound_b)
    bound = bound_a + bound_b
    if bound > _LIMIT:
        return None
    if cls is Fuse:
        return a + b - _BIASES, bound
    packed = (b - a if cls is LDiv else a - b) + _BIASES
    if cone:  # min(0, packed)
        packed ^= (packed ^ _BIASES) & _ge_mask(packed, _BIASES)
    return packed, bound


# A goal L => R of search, or a sequent's two sides.
Goal = tuple[tuple[Term, ...], tuple[Term, ...]]


def refuting_lanes(goal: Goal, cone: bool) -> int:
    """The lanes whose valuation makes the goal L => R false, as a mask: the
    field bits of the lanes of Z or, with `cone`, of its negative cone where
    the sum of L's values exceeds that of R's (an empty side sums to
    e = f = 0).  0 proves nothing; it is also the answer when the total could
    leave the lane field."""
    L, R = goal
    total = _BIASES * (1 + len(R) - len(L))
    bound = 0
    for sign, side in ((1, L), (-1, R)):
        for t in side:
            hit = lanes(t, cone)
            if hit is None:
                return 0
            total += sign * hit[0]
            bound += hit[1]
    return _ge_mask(total, _POSITIVE) if bound <= _LIMIT else 0


def refuting_valuation(goal: Goal, cone: bool = False) -> dict[str, int] | None:
    """The bank's first valuation that makes the goal L => R false in Z or,
    with `cone`, in its negative cone, by variable name; None when
    `refuting_lanes` finds none."""
    mask = refuting_lanes(goal, cone)
    if not mask:
        return None
    lane = ((mask & -mask).bit_length() - 1) // _STRIDE
    names = set().union(*map(variables, goal[0] + goal[1]))
    values = {name: _bank_values(name)[lane] for name in sorted(names)}
    return {name: -abs(v) for name, v in values.items()} if cone else values


# --- evaluation in the 4-chain -------------------------------------------------

# irl's second bank is the chain 0 < 1 < 2 < 3 = e with this fusion (row a,
# column b): the smallest integral residuated lattice that is not commutative,
# so it refutes goals that fail only for lack of commutativity, which the
# cone cannot.  Every finite integral residuated lattice is a model of irl.
# Only the fusion and the order are stated; finmod derives the rest.
CHAIN_FUSE = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 2, 2), (0, 1, 2, 3))
_CHAIN_ORDER = tuple(tuple(a <= b for b in range(4)) for a in range(4))
CHAIN = finmod._finish(4, 3, _CHAIN_ORDER, CHAIN_FUSE, *finmod._lattice_tables(4, _CHAIN_ORDER))


@lru_cache(maxsize=4096)
def _chain_var(name: str) -> int:
    """A variable's lanes: each value of the chain on 16 of the 64, in an
    order shuffled from the crc32 of the name's bytes, as `_bank_values`."""
    values = [i * CHAIN.size // _LANES for i in range(_LANES)]
    random.Random(zlib.crc32(name.encode("utf-8"))).shuffle(values)
    return int.from_bytes(bytes(values), "little")


# the chain's 64 valuations, each term's and product's lanes kept for the session
_CHAIN_LANES = finmod.Lanes(CHAIN, _LANES, _chain_var)
_CHAIN_LANES.value = lru_cache(maxsize=65536)(_CHAIN_LANES.value)
_CHAIN_LANES.product = lru_cache(maxsize=65536)(_CHAIN_LANES.product)


def _chain_refutes(goal: Goal) -> int:
    """The lanes, a nonzero byte each, where the product of L is not below
    R's one formula in the chain; 0 for any other number of formulas."""
    return _CHAIN_LANES.refuting(*goal) if len(goal[1]) == 1 else 0


@lru_cache(maxsize=65536)
def z_refutes(t: Term) -> bool:
    """True if some valuation of the bank makes t > 0 in Z.

    Then t <= e fails in Z, hence in every l-group and every abelian
    l-group.  False proves nothing.  A term containing f raises ValueError
    from its signature bits, before any lane is evaluated; both oracles ask
    this first, so they refuse it before any normal form too.
    """
    if t._sig & HAS_F:
        raise ValueError("pointed term: replace f by e before calling a group oracle")
    return refuting_lanes(((t,), ()), False) != 0


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
    return all(semigroup_contains_identity(block) for block in blocks)


def sequent_goal(left: tuple[Term, ...], right: tuple[Term, ...]) -> Term:
    """The term whose inequation t <= e holds in a group exactly when
    product(left) <= product(right) does: product(left) when the right
    product is e, else product(left) * (product(right) \\ e).  Both group
    oracles reduce their sequents to it."""
    t, u = product_term(left), product_term(right)
    return t if u is E else Fuse(t, LDiv(u, E))


@lru_cache(maxsize=65536)
def lg_valid_sequent(s: Sequent) -> bool:
    """Sequent validity over l-groups: product(left) <= right."""
    if len(s.right) != 1:
        raise ValueError("the l-group oracle takes single-conclusion sequents")
    return lg_valid_leq_e(sequent_goal(s.left, s.right))


def clear_banks():
    """Empty the banks' caches, which hold terms."""
    lanes.cache_clear()
    _CHAIN_LANES.value.cache_clear()
    _CHAIN_LANES.product.cache_clear()


def clear_caches():
    """Empty every cache of this module: the banks', the answers' and
    the word distributor's (`_to_jom.cached`)."""
    clear_banks()
    _to_jom.cached.cache_clear()
    z_refutes.cache_clear()
    semigroup_contains_identity.cache_clear()
    lg_valid_leq_e.cache_clear()
    lg_valid_sequent.cache_clear()
