r"""Validity over all abelian lattice-ordered groups.

Terms abelianize to joins of meets of integer exponent vectors; a meet block
/\_j c_j <= 0 is valid over the rationals exactly when the strict system
{<c_j, x> > 0 for all j} is infeasible.  Rational validity coincides with
abelian l-group validity for these homogeneous inequations, and integer
points suffice for refutations (scale a rational solution).

The distribution into join-of-meets form is `lg_oracle.distribute`, the same
algorithm the l-group oracle runs over free-group words, here run over
exponent vectors (abelianization is a group homomorphism).  Before it runs,
`lg_oracle.z_refutes` tries the integers, an abelian l-group, under the
bank of valuations of the package's one integer evaluator, `lg_oracle.lanes`;
a positive value answers INVALID without a normal form.  The evaluator's
cache is emptied by `lg_oracle.clear_caches()` and `prover.clear_caches()`,
not by `clear_caches()` here.

Infeasibility is decided by exact Fourier-Motzkin elimination (integer rows,
gcd-normalized).  No floating point anywhere; the tests cross-check it
against Gordan certificates found by an exact phase-1 simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from . import lg_oracle
from .terms import E, Fuse, LDiv, Sequent, Term, product_term, subst_f_to_e


@dataclass(frozen=True, order=True)
class LinearForm:
    """Integer exponent vector; zero coefficients are omitted."""

    coeffs: tuple[tuple[str, int], ...]

    @classmethod
    def from_dict(cls, d: dict[str, int]) -> "LinearForm":
        return cls(tuple(sorted((v, c) for v, c in d.items() if c != 0)))

    def as_dict(self) -> dict[str, int]:
        return dict(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs


@dataclass(frozen=True)
class StrictSystem:
    """Rows read as <row, x> > 0."""

    rows: tuple[LinearForm, ...]


def _lf_add(a: LinearForm, b: LinearForm) -> LinearForm:
    d = dict(a.coeffs)
    for v, c in b.coeffs:
        d[v] = d.get(v, 0) + c
    return LinearForm.from_dict(d)


def _lf_neg(a: LinearForm) -> LinearForm:
    return LinearForm(tuple((v, -c) for v, c in a.coeffs))


def _lf_gen(name: str) -> LinearForm:
    return LinearForm(((name, 1),))


def abelianize(t: Term) -> tuple[tuple[LinearForm, ...], ...]:
    """Join-of-meets of exponent vectors: the group normal form, collapsed.

    Distributes in the abelian image directly, so the vectors merge during
    distribution, which keeps intermediate sizes down.
    """
    blocks = lg_oracle.distribute(t, _lf_gen, LinearForm(()), _lf_add, _lf_neg)
    return tuple(sorted(tuple(sorted(b, key=lambda f: f.coeffs)) for b in blocks))


# --- exact Fourier-Motzkin ----------------------------------------------------


def _normalize_row(d: dict[str, int]) -> tuple[tuple[str, int], ...] | None:
    d = {v: c for v, c in d.items() if c != 0}
    if not d:
        return None
    g = 0
    for c in d.values():
        g = gcd(g, abs(c))
    return tuple(sorted((v, c // g) for v, c in d.items()))


def strict_infeasible(sys: StrictSystem) -> bool:
    """True iff no rational point makes every row strictly positive.

    Decided by Fourier-Motzkin elimination.
    """
    rows = set()
    for form in sys.rows:
        if form.is_zero:
            return True  # 0 > 0
        rows.add(_normalize_row(form.as_dict()))
    rows.discard(None)
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
                norm = _normalize_row(combined)
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
        if not strict_infeasible(StrictSystem(tuple(block))):
            return False
    return True


def _sequent_goal(s: Sequent) -> Term:
    """The term t with t <= e valid over abelian l-groups iff s is, both
    sequent shapes.

    f is identified with e first (abelian l-groups are the pointed algebras
    with f = e), which collapses the right-side sum into a product; the empty
    right side is the empty sum f, hence e after the identification.
    """
    left = product_term(subst_f_to_e(t) for t in s.left)
    right = product_term(subst_f_to_e(t) for t in s.right)
    return Fuse(left, LDiv(right, E))


@lru_cache(maxsize=65536)
def ablg_valid_sequent(s: Sequent) -> bool:
    """Sequent validity over abelian l-groups, both sequent shapes."""
    return ablg_valid_leq_e(_sequent_goal(s))


def clear_caches():
    ablg_valid_leq_e.cache_clear()
    ablg_valid_sequent.cache_clear()
