"""Independent cross-checks for the oracle tests."""

from fractions import Fraction

from icrl.ablg_oracle import LinearForm, StrictSystem
from icrl.lg_oracle import concat_words


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
