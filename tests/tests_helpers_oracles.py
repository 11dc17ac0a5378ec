"""Independent cross-checks for the oracle tests."""

from fractions import Fraction

from icrl.ablg_oracle import LinearForm, StrictSystem
from icrl.lg_oracle import concat_words


def rounds_identity_oracle(gens) -> bool:
    """Round-based automaton saturation, the reference for the worklist in
    `lg_oracle.semigroup_contains_identity`.

    Each generator is a path of letter edges from state 0 to state 1, and an
    epsilon edge leads from 1 back to 0.  Every round recomputes each state's
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


def linear_form_of_word(word) -> LinearForm:
    """The exponent vector of a group word: its image in the free abelian group."""
    d: dict[str, int] = {}
    for v, s in word:
        d[v] = d.get(v, 0) + s
    return LinearForm.from_dict(d)


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


def gordan_infeasible(sys: StrictSystem) -> bool:
    """Gordan duality: the strict system is infeasible iff some non-zero
    non-negative combination of its rows is the zero form.

    An independent cross-check for `ablg_oracle.strict_infeasible`, which
    decides the same question by Fourier-Motzkin elimination.
    """
    rows = sys.rows
    if not rows:
        return False
    all_vars = sorted({v for r in rows for v, _ in r.coeffs})
    eqs = []
    rhs = []
    for v in all_vars:
        eqs.append([Fraction(r.as_dict().get(v, 0)) for r in rows])
        rhs.append(Fraction(0))
    eqs.append([Fraction(1)] * len(rows))  # normalization: lambda sums to 1
    rhs.append(Fraction(1))
    return _phase1_feasible(eqs, rhs)
