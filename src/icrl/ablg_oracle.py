r"""Validity over all abelian lattice-ordered groups.

Terms abelianize to joins of meets of integer exponent vectors, each a plain
sorted tuple of (variable, coefficient) pairs with the zero coefficients left
out, as a group word is one of (variable, sign) letters; () is the zero
vector.  A meet block /\_j c_j <= 0 is valid over the rationals exactly when
the strict system {<c_j, x> > 0 for all j} is infeasible.  Rational
validity coincides with abelian l-group validity for these homogeneous
inequations, and integer points suffice for refutations (scale a rational
solution).

The distribution into join-of-meets form is `lg_oracle.distributor`, the
same algorithm the l-group oracle runs over free-group words, here built
once over exponent vectors (abelianization is a group homomorphism).  It
caches the form of every proper subterm of a query, never the query's own;
`clear_caches()` here empties that cache.  Before it runs,
`lg_oracle.z_refutes` tries the integers, an abelian l-group, under the
bank of valuations of the package's one integer evaluator, `lg_oracle.lanes`;
a positive value answers INVALID without a normal form.  The evaluator's
cache is emptied by `lg_oracle.clear_caches()` and `prover.clear_caches()`,
not by `clear_caches()` here.  A sequent becomes a query by
`lg_oracle.sequent_goal` once f is mapped to e.

Infeasibility is decided by exact Fourier-Motzkin elimination, the block's
vectors read as integer rows, gcd-normalized.  No floating point anywhere;
the tests cross-check it against Gordan certificates found by an exact
phase-1 simplex.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import lg_oracle
from .terms import Sequent, Term, subst_f_to_e

Vector = tuple[tuple[str, int], ...]


def _add(a: Vector, b: Vector) -> Vector:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for v, c in b:
        d[v] = d.get(v, 0) + c
    return tuple(sorted((v, c) for v, c in d.items() if c))


def _neg(a: Vector) -> Vector:
    return tuple((v, -c) for v, c in a)


# A variable's vector is its one-letter group word.
_to_vectors = lg_oracle.distributor(lg_oracle._word_gen, (), _add, _neg)


def abelianize(t: Term) -> tuple[tuple[Vector, ...], ...]:
    """Join-of-meets of exponent vectors: the group normal form, collapsed.

    Distributes in the abelian image directly, so the vectors merge during
    distribution, which keeps intermediate sizes down.
    """
    blocks = _to_vectors(t)
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


# --- exact Fourier-Motzkin ----------------------------------------------------


def _normalize_row(pairs) -> Vector | None:
    """The row of the (variable, coefficient) pairs divided by the gcd of its
    coefficients; None for the zero row."""
    row = sorted((v, c) for v, c in pairs if c)
    g = 0
    for _, c in row:
        g = gcd(g, c)
    return tuple((v, c // g) for v, c in row) or None


def strict_infeasible(block: tuple[Vector, ...]) -> bool:
    """True iff no rational point x makes <r, x> > 0 for every vector r of
    the block; decided by Fourier-Motzkin elimination."""
    rows = set()
    for form in block:
        if not form:
            return True  # 0 > 0
        rows.add(_normalize_row(form))
    while rows:
        var = min(r[0][0] for r in rows)
        pos, neg, rest = [], [], set()
        for r in rows:
            c = dict(r).get(var, 0)
            if c > 0:
                pos.append(r)
            elif c < 0:
                neg.append(r)
            else:
                rest.add(r)
        for p in pos:
            pc = dict(p)[var]
            for n in neg:
                nc = dict(n)[var]
                combined: dict[str, int] = {}
                for v, c in p:
                    combined[v] = combined.get(v, 0) + c * (-nc)
                for v, c in n:
                    combined[v] = combined.get(v, 0) + c * pc
                norm = _normalize_row(combined.items())
                if norm is None:
                    return True  # strict combination collapsed to 0 > 0
                rest.add(norm)
        rows = rest
    return False


# --- validity -----------------------------------------------------------------


@lru_cache(maxsize=65536)
def ablg_valid_leq_e(t: Term) -> bool:
    """True iff t <= e holds in every abelian l-group (f already mapped to e)."""
    if lg_oracle.z_refutes(t):
        return False
    for block in abelianize(t):
        if not strict_infeasible(block):
            return False
    return True


@lru_cache(maxsize=65536)
def ablg_valid_sequent(s: Sequent) -> bool:
    """Sequent validity over abelian l-groups, both sequent shapes.

    f is identified with e first (abelian l-groups are the pointed algebras
    with f = e), which collapses the right-side sum into a product; the empty
    right side is the empty sum f, hence e after the identification.
    """
    left = tuple(subst_f_to_e(t) for t in s.left)
    right = tuple(subst_f_to_e(t) for t in s.right)
    return ablg_valid_leq_e(lg_oracle.sequent_goal(left, right))


def clear_caches():
    """Empty the answers' caches and the vector distributor's
    (`_to_vectors.cached`)."""
    _to_vectors.cached.cache_clear()
    ablg_valid_leq_e.cache_clear()
    ablg_valid_sequent.cache_clear()
