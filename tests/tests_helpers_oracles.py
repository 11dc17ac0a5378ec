"""Independent cross-checks and scalar references for the oracle tests."""

from dataclasses import dataclass
from fractions import Fraction

from icrl import lg_oracle
from icrl.lg_oracle import GnfSizeError, GroupWord, _to_jom, concat_words, invert_word
from icrl.terms import ConstE, ConstF, Fuse, Join, LDiv, Meet, RDiv, Term, Var


def eval_int(t: Term, valuation: dict[str, int]) -> int:
    """Scalar evaluation in the l-group of integers, with f = e = 0: meet =
    min, join = max, fusion = +; the reference for `lg_oracle.lanes`."""
    if isinstance(t, Var):
        return valuation[t.name]
    if isinstance(t, (ConstE, ConstF)):
        return 0
    a, b = eval_int(t.l, valuation), eval_int(t.r, valuation)
    if isinstance(t, Meet):
        return min(a, b)
    if isinstance(t, Join):
        return max(a, b)
    if isinstance(t, Fuse):
        return a + b
    if isinstance(t, LDiv):
        return b - a
    if isinstance(t, RDiv):
        return a - b
    raise TypeError(f"not a term: {t!r}")


def eval_cone(t: Term, valuation: dict[str, int]) -> int:
    """Scalar evaluation in the negative cone of Z, with f = e = 0 and
    x \\ y = y / x = min(0, y - x); the reference for `lg_oracle.lanes`
    with `cone`.  The valuation's values must be at most 0."""
    if isinstance(t, Var):
        return valuation[t.name]
    if isinstance(t, (ConstE, ConstF)):
        return 0
    a, b = eval_cone(t.l, valuation), eval_cone(t.r, valuation)
    if isinstance(t, Meet):
        return min(a, b)
    if isinstance(t, Join):
        return max(a, b)
    if isinstance(t, Fuse):
        return a + b
    if isinstance(t, LDiv):
        return min(0, b - a)
    if isinstance(t, RDiv):
        return min(0, a - b)
    raise TypeError(f"not a term: {t!r}")


@dataclass(frozen=True)
class GroupNormalForm:
    """Join of meets of group words: joinands outer, meetands inner."""

    meetands_by_joinand: tuple[tuple[GroupWord, ...], ...]

    def __post_init__(self):
        assert self.meetands_by_joinand, "a normal form has at least one joinand"
        assert all(block for block in self.meetands_by_joinand)


def to_gnf(t: Term) -> GroupNormalForm:
    """Join-of-meets of group words equal to t in every l-group, sorted."""
    jom = _to_jom(t)
    return GroupNormalForm(tuple(sorted(tuple(sorted(m)) for m in jom)))


def absorbed(jom) -> frozenset:
    """The blocks of jom that have no proper subset among the others: the
    definition that `lg_oracle._absorb` computes."""
    return frozenset(m for m in jom if not any(n < m for n in jom))


def reference_distribute(t: Term, gen, unit, mul, inv) -> frozenset:
    """The join-of-meets of t over a group, distributed from the leaves on
    every call, without caches or shortcuts: the reference for
    `lg_oracle.distributor`, with the same WORD_CAP checks."""

    def check(size):
        if size > lg_oracle.WORD_CAP:
            raise GnfSizeError("normal form would exceed the word cap")

    def total(j):
        return sum(map(len, j))

    def fuse(a, b):
        check(total(a) * total(b))
        return absorbed({frozenset(mul(w, v) for w in m for v in n) for m in a for n in b})

    def invert(a):
        out = {frozenset()}
        for m in a:
            inverted = sorted({inv(w) for w in m})
            check((total(out) + len(out)) * len(inverted))
            out = absorbed({blk | {w} for blk in out for w in inverted})
        return frozenset(out)

    def go(t):
        if isinstance(t, Var):
            return frozenset({frozenset({gen(t.name)})})
        if isinstance(t, ConstE):
            return frozenset({frozenset({unit})})
        if isinstance(t, ConstF):
            raise ValueError("pointed term")
        a, b = go(t.l), go(t.r)
        if isinstance(t, Meet):
            check(len(b) * total(a) + len(a) * total(b))
            return absorbed({m | n for m in a for n in b})
        if isinstance(t, Join):
            check(total(a) + total(b))
            return absorbed(a | b)
        if isinstance(t, Fuse):
            return fuse(a, b)
        if isinstance(t, LDiv):
            return fuse(invert(a), b)
        if isinstance(t, RDiv):
            return fuse(a, invert(b))
        raise TypeError(f"not a term: {t!r}")

    return go(t)


def reference_jom(t: Term) -> frozenset:
    """Join-of-meets of freely reduced words, as `lg_oracle._to_jom`."""
    return reference_distribute(t, lambda name: ((name, 1),), (), concat_words, invert_word)


def reference_abelianize(t: Term) -> tuple:
    """Join-of-meets of exponent vectors, sorted, as `ablg_oracle.abelianize`."""

    def add(a, b):
        d = dict(a)
        for v, c in b:
            d[v] = d.get(v, 0) + c
        return vector(d)

    def neg(a):
        return tuple((v, -c) for v, c in a)

    blocks = reference_distribute(t, lambda name: ((name, 1),), (), add, neg)
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def rounds_identity_oracle(gens) -> bool:
    """Round-based automaton saturation, the reference for the worklist in
    `lg_oracle.semigroup_contains_identity`.

    Each generator keeps its own path of letter edges from state 0 to state
    1, with no state shared between words, and an epsilon edge leads from 1
    back to 0; so it also cross-checks the oracle's prefix-trie construction,
    an automaton of the same rational set.  Every round recomputes each state's
    epsilon-closure from scratch and adds an epsilon edge p -> q whenever
    p -a-> r =eps*=> s -a^-1-> q; the rounds stop when one adds nothing, and
    the identity is a product of generators iff 0 =eps*=> 1 then.
    """
    gens = frozenset(gens)
    if not gens:
        raise ValueError("generator set must be non-empty")
    if () in gens:
        return True
    targets: dict = {}  # (state, letter) -> targets
    inverse_edges = []  # (p, a^-1, r) for every letter edge p -a-> r
    num_states = 2
    for word in sorted(gens):
        prev = 0
        for i, (v, sign) in enumerate(word):
            if i == len(word) - 1:
                dst = 1
            else:
                dst, num_states = num_states, num_states + 1
            targets.setdefault((prev, (v, sign)), set()).add(dst)
            inverse_edges.append((prev, (v, -sign), dst))
            prev = dst
    eps: dict[int, set[int]] = {1: {0}}
    changed = True
    while changed:
        changed = False
        closure = []
        for s in range(num_states):
            reach = {s}
            stack = [s]
            while stack:
                for r in eps.get(stack.pop(), ()):
                    if r not in reach:
                        reach.add(r)
                        stack.append(r)
            closure.append(reach)
        for p, inv, r in inverse_edges:
            for s in closure[r]:
                for q in targets.get((s, inv), ()):
                    dsts = eps.setdefault(p, set())
                    if q not in dsts:
                        dsts.add(q)
                        changed = True
    return 1 in closure[0]


def bfs_identity_oracle(gens, depth: int) -> bool:
    """Sound but incomplete closure check: products of at most `depth` generators.

    An independent cross-check for the automaton answer of
    `lg_oracle.semigroup_contains_identity`.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    gens = set(gens)
    frontier = set(gens)
    seen = set(frontier)
    for _ in range(depth - 1):
        if () in frontier:
            return True
        frontier = {concat_words(w, g) for w in frontier for g in gens} - seen
        seen |= frontier
    return () in seen


def vector(coeffs: dict[str, int]) -> tuple[tuple[str, int], ...]:
    """The exponent vector with these coefficients, as `ablg_oracle` holds
    it: sorted (variable, coefficient) pairs without zero coefficients."""
    return tuple(sorted((v, c) for v, c in coeffs.items() if c))


def vector_of_word(word) -> tuple[tuple[str, int], ...]:
    """The exponent vector of a group word: its image in the free abelian group."""
    d: dict[str, int] = {}
    for v, s in word:
        d[v] = d.get(v, 0) + s
    return vector(d)


def _phase1_feasible(eqs: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    """Is {x >= 0 : eqs . x = rhs} non-empty?  Bland's rule, exact pivots."""
    m = len(eqs)
    n = len(eqs[0]) if m else 0
    table = []
    for i in range(m):
        row = list(eqs[i])
        b = rhs[i]
        if b < 0:
            row = [-a for a in row]
            b = -b
        row += [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        row.append(b)
        table.append(row)
    basis = [n + i for i in range(m)]
    total = n + m

    while True:
        entering = None
        for j in range(total):
            rc = (Fraction(1) if j >= n else Fraction(0)) - sum(
                table[i][j] for i in range(m) if basis[i] >= n
            )
            if rc < 0:
                entering = j
                break
        if entering is None:
            break
        pivot = None
        for i in range(m):
            if table[i][entering] > 0:
                ratio = table[i][-1] / table[i][entering]
                if pivot is None or ratio < pivot[0] or (
                    ratio == pivot[0] and basis[i] < basis[pivot[1]]
                ):
                    pivot = (ratio, i)
        if pivot is None:
            raise RuntimeError("phase-1 objective is bounded; no pivot row found")
        _, pi = pivot
        pv = table[pi][entering]
        table[pi] = [a / pv for a in table[pi]]
        for i in range(m):
            if i != pi and table[i][entering] != 0:
                f = table[i][entering]
                table[i] = [a - f * b for a, b in zip(table[i], table[pi])]
        basis[pi] = entering

    artificial_mass = sum(table[i][-1] for i in range(m) if basis[i] >= n)
    return artificial_mass == 0


def gordan_infeasible(rows: tuple[tuple[tuple[str, int], ...], ...]) -> bool:
    """Gordan duality: the strict system {<r, x> > 0 for each vector r of
    rows} is infeasible iff some non-zero non-negative combination of its
    rows is the zero vector.

    An independent cross-check for `ablg_oracle.strict_infeasible`, which
    decides the same question by Fourier-Motzkin elimination.
    """
    if not rows:
        return False
    all_vars = sorted({v for r in rows for v, _ in r})
    eqs = []
    rhs = []
    for v in all_vars:
        eqs.append([Fraction(dict(r).get(v, 0)) for r in rows])
        rhs.append(Fraction(0))
    eqs.append([Fraction(1)] * len(rows))  # normalization: lambda sums to 1
    rhs.append(Fraction(1))
    return _phase1_feasible(eqs, rhs)
