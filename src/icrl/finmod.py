"""Finite-algebra workbench: validation, properties, enumeration, refutation.

Every algebra has one order, `FiniteAlgebra.le`: the lattice order when it
has a meet, and otherwise the one its residual induces (a below b iff
a\\b = e), as in semi-integral residuated pomonoids; those store no order
table.  `validate` checks that order once and the signature's axioms over it.

Residuated lattices are enumerated lattice-first, over one labeled
representative of each lattice: every residuated fusion preserves joins in
each argument, so it is determined by its values on join-irreducible pairs;
those are filled in by a monotone DFS, each value first bounded by the unit,
and the resulting table is kept only when the unit, associativity, and
residual existence checks pass.  Isomorphic candidates share their lattice
representative, so isomorphism rejection takes the least serialized tables
over that lattice's automorphisms; sirmonoid candidates all have e = 0 and
are compared over the relabelings that fix it.  The first candidate of each
isomorphism class is kept.

Terms are evaluated on `Lanes`, one valuation per byte of an int, each
operation one byte translation through its table: `refute` and irl's 4-chain
bank in `lg_oracle` both run on them; `eval_term` is the scalar reference.

Countermodels found here certify non-derivability: finite integral algebras
are integrally closed, so any theory between them and the full variety is
refuted soundly.  No completeness is claimed: the integrally closed variety
has no finite model property.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from .terms import (
    ConstE,
    ConstF,
    F,
    Fuse,
    Join,
    LDiv,
    Meet,
    RDiv,
    Sequent,
    Term,
    Theory,
    Var,
    sequent_variables,
)

MAX_SIZE = {"rl": 5, "integral": 5, "sirmonoid": 4, "casari": 5}

# The table of each connective.
_TABLE_OF = {Meet: "meet", Join: "join", Fuse: "fuse", LDiv: "ldiv", RDiv: "rdiv"}

Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FiniteAlgebra:
    size: int
    e: int
    f: int | None = None
    leq: tuple[tuple[bool, ...], ...] | None = None
    meet: Table | None = None
    join: Table | None = None
    fuse: Table | None = None
    ldiv: Table | None = None
    rdiv: Table | None = None

    @property
    def signature(self) -> str:
        if self.meet is not None:
            return "rl"
        if self.fuse is not None:
            return "sirmonoid"
        return "pbci"

    def le(self, a: int, b: int) -> bool:
        """The algebra's order: lattice order, or the residual one when there is no meet."""
        if self.meet is None:
            return self.ldiv[a][b] == self.e
        if self.leq is not None:
            return self.leq[a][b]
        return self.meet[a][b] == a

    @cached_property
    def byte_tables(self) -> dict[str, bytes]:
        """Each table the algebra has, as `Lanes` reads it: 256 bytes, T[a][b]
        at byte a * size + b; "nle" is the table of "not below"."""
        tables = {key: getattr(self, key) for key in _TABLE_OF.values()}
        tables["nle"] = [[not self.le(x, y) for y in range(self.size)] for x in range(self.size)]
        return {
            key: bytes(v for row in tab for v in row).ljust(256, b"\0")
            for key, tab in tables.items() if tab is not None
        }

    def is_commutative(self) -> bool:
        """Fusion equals its transpose or, without one, ldiv that of rdiv."""
        if self.fuse is None:
            return self.ldiv == tuple(zip(*self.rdiv))
        return self.fuse == tuple(zip(*self.fuse))


# --- construction helpers ---------------------------------------------------


def _tbl(rows) -> Table:
    return tuple(tuple(r) for r in rows)


def _entry(key: str, v, bit: bool = False):
    """v if it is an integer (a bool is not), as a bool if bit and it is 0 or 1."""
    if type(v) is not int or (bit and v not in (0, 1)):
        raise ValueError(f"{key!r}: {v!r} is not {'0 or 1' if bit else 'an integer'}")
    return bool(v) if bit else v


def algebra_from_dict(d: dict) -> FiniteAlgebra:
    """The algebra of a JSON object; `size`, `e`, `f` and every table entry
    must be integers, and every `leq` entry 0 or 1."""
    if not isinstance(d, dict):
        raise ValueError("an algebra must be a JSON object")
    for key in ("size", "e"):
        if key not in d:
            raise ValueError(f"missing key {key!r}")
    n = _entry("size", d["size"])

    def unflatten(key, bit=False):
        if key not in d or d[key] is None:
            return None
        flat = d[key]
        if not isinstance(flat, list) or len(flat) != n * n:
            raise ValueError(f"table {key!r} must be a list of {n * n} entries")
        return _tbl(tuple(_entry(key, flat[i * n + j], bit) for j in range(n)) for i in range(n))

    return FiniteAlgebra(
        size=n,
        e=_entry("e", d["e"]),
        f=None if d.get("f") is None else _entry("f", d["f"]),
        leq=unflatten("leq", bit=True),
        **{key: unflatten(key) for key in _TABLE_OF.values()},
    )


def algebra_to_dict(a: FiniteAlgebra) -> dict:
    out: dict = {"size": a.size, "e": a.e}
    if a.f is not None:
        out["f"] = a.f
    if a.leq is not None:
        out["leq"] = [int(v) for row in a.leq for v in row]
    for key in _TABLE_OF.values():
        tab = getattr(a, key)
        if tab is not None:
            out[key] = [v for row in tab for v in row]
    return out


def load_algebra(path: str) -> FiniteAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_dict(json.load(fh))


# --- validation ---------------------------------------------------------------


# The tables each signature needs.
_NEEDS = {
    "rl": ("meet", "join", "fuse", "ldiv", "rdiv"),
    "sirmonoid": ("fuse", "ldiv", "rdiv"),
    "pbci": ("ldiv", "rdiv"),
}


def validate(a: FiniteAlgebra) -> list[str]:
    """All axiom violations for the algebra's signature; empty iff genuine.
    The order `a.le` is built once and must be a partial order; then come
    the lattice axioms (rl) or the sirmonoid axioms (sirmonoid, pbci), and
    for a fusion the monoid and residuation laws over the same order."""
    v = _range_ok(a)
    if v:
        return v
    sig = a.signature
    v = [f"missing table {key}" for key in _NEEDS[sig] if getattr(a, key) is None]
    if sig != "rl":
        if a.join is not None:  # a meet table makes the signature rl
            v.append(f"{sig} signature must not carry lattice tables")
        if a.leq is not None:
            v.append(f"{sig} signature must not carry an order table")
    if v:
        return v
    rng = range(a.size)
    le = [[a.le(x, y) for y in rng] for x in rng]
    for x in rng:
        if not le[x][x]:
            v.append(f"order not reflexive at {x}")
        for y in rng:
            if x != y and le[x][y] and le[y][x]:
                v.append(f"order not antisymmetric at ({x},{y})")
            for z in rng:
                if le[x][y] and le[y][z] and not le[x][z]:
                    v.append(f"order not transitive at ({x},{y},{z})")
    v.extend(_lattice_axioms(a, le) if sig == "rl" else _sirmonoid_axioms(a))
    if a.fuse is not None:
        v.extend(_monoid_axioms(a, le))
    return v


def _range_ok(a: FiniteAlgebra) -> list[str]:
    out = []
    n = a.size
    for key in _TABLE_OF.values():
        tab = getattr(a, key)
        if tab is None:
            continue
        if len(tab) != n or any(len(r) != n for r in tab):
            out.append(f"table {key} is not {n}x{n}")
            continue
        if any(not (0 <= v < n) for r in tab for v in r):
            out.append(f"table {key} has out-of-range entries")
    if not (0 <= a.e < n):
        out.append("unit index out of range")
    if a.f is not None and not (0 <= a.f < n):
        out.append("f index out of range")
    return out


def _lattice_axioms(a: FiniteAlgebra, le) -> list[str]:
    """Meet and join are the greatest lower and least upper bounds; so a
    stored order table is the meet's order."""
    v = []
    rng = range(a.size)
    for x in rng:
        for y in rng:
            m, j = a.meet[x][y], a.join[x][y]
            if not (le[m][x] and le[m][y]):
                v.append(f"meet({x},{y}) not a lower bound")
            if not (le[x][j] and le[y][j]):
                v.append(f"join({x},{y}) not an upper bound")
            for z in rng:
                if le[z][x] and le[z][y] and not le[z][m]:
                    v.append(f"meet({x},{y}) not greatest at {z}")
                if le[x][z] and le[y][z] and not le[j][z]:
                    v.append(f"join({x},{y}) not least at {z}")
    return v


def _sirmonoid_axioms(a: FiniteAlgebra) -> list[str]:
    """The equational axioms (i)-(iv) of semi-integral residuated pomonoids;
    (vi) is antisymmetry.  (iii) makes e maximal, and (i)-(iv) give x/x = e
    and b/a = e iff a below b; with a fusion, residuation and associativity
    give (v), (xy)\\z = y\\(x\\z)."""
    v = []
    e = a.e
    ld, rd = a.ldiv, a.rdiv
    rng = range(a.size)
    for x in rng:
        if ld[e][x] != x:
            v.append(f"axiom (iii) e\\x = x fails at {x}")
        if rd[x][e] != x:
            v.append(f"axiom (iv) x/e = x fails at {x}")
        for y in rng:
            for z in rng:
                if rd[rd[ld[x][z]][ld[y][z]]][ld[x][y]] != e:
                    v.append(f"axiom (i) fails at ({x},{y},{z})")
                if ld[rd[y][x]][ld[rd[z][y]][rd[z][x]]] != e:
                    v.append(f"axiom (ii) fails at ({x},{y},{z})")
    return v


def _monoid_axioms(a: FiniteAlgebra, le) -> list[str]:
    """e is the unit of an associative fusion residuated by ldiv and rdiv:
    b <= a\\c iff ab <= c iff a <= c/b."""
    v = []
    fuse, rng = a.fuse, range(a.size)
    for x in rng:
        if fuse[a.e][x] != x or fuse[x][a.e] != x:
            v.append(f"unit law fails at {x}")
    for x in rng:
        for y in rng:
            for z in rng:
                if fuse[fuse[x][y]][z] != fuse[x][fuse[y][z]]:
                    v.append(f"associativity fails at ({x},{y},{z})")
                fused = le[fuse[x][y]][z]
                if le[y][a.ldiv[x][z]] != fused:
                    v.append(f"residuation (ldiv) fails at ({x},{y},{z})")
                if le[x][a.rdiv[z][y]] != fused:
                    v.append(f"residuation (rdiv) fails at ({x},{y},{z})")
    return v


# --- term evaluation -----------------------------------------------------------


def eval_term(a: FiniteAlgebra, valuation: dict[str, int], t: Term) -> int:
    if isinstance(t, Var):
        if t.name not in valuation:
            raise ValueError(f"unbound variable {t.name!r}")
        return valuation[t.name]
    if isinstance(t, ConstE):
        return a.e
    if isinstance(t, ConstF):
        if a.f is None:
            raise ValueError("algebra is not pointed")
        return a.f
    l, r = eval_term(a, valuation, t.l), eval_term(a, valuation, t.r)
    table = getattr(a, _TABLE_OF[type(t)])
    if table is None:
        raise ValueError(f"operation {type(t).__name__} not in this signature")
    return table[l][r]


# The most valuations `refute` asks of an algebra at once.
MAX_LANES = 1 << 16


class Lanes:
    """An algebra's operations on `width` valuations at once, one per byte
    ("lane") of a Python int; `leaf(name)` gives a variable's lanes.  An
    operation takes lanes x and y to the bytes of x * size + y translated
    through its `FiniteAlgebra.byte_tables` entry: no carry crosses a lane
    while size * size <= 256, which MAX_SIZE keeps."""

    def __init__(self, a: FiniteAlgebra, width: int, leaf):
        self.algebra, self.width, self.leaf = a, width, leaf
        self.size, self.tables = a.size, a.byte_tables
        self.ones = int.from_bytes(b"\x01" * width, "little")

    def op(self, table: str, x: int, y: int) -> int:
        pairs = (x * self.size + y).to_bytes(self.width, "little")
        return int.from_bytes(pairs.translate(self.tables[table]), "little")

    def value(self, t: Term) -> int:
        cls = type(t)
        if cls is Var:
            return self.leaf(t.name)
        if cls is ConstE or cls is ConstF:
            return eval_term(self.algebra, {}, t) * self.ones
        x, y = self.value(t.l), self.value(t.r)
        if _TABLE_OF[cls] not in self.tables:
            raise ValueError(f"operation {cls.__name__} not in this signature")
        return self.op(_TABLE_OF[cls], x, y)

    def product(self, terms: tuple[Term, ...]) -> int:
        """The lanes of the fusion of terms (e for none), split in halves that a cache reuses."""
        if len(terms) < 2:
            return self.value(terms[0]) if terms else self.algebra.e * self.ones
        half = len(terms) // 2
        return self.op("fuse", self.product(terms[:half]), self.product(terms[half:]))

    def refuting(self, left: tuple[Term, ...], right: tuple[Term, ...]) -> int:
        """The lanes where left => right fails, a nonzero byte each: the
        product of left is not below right's one formula or, with several
        or none, their sum, a + b = (a \\ f) \\ b, the empty sum f."""
        product = self.product(left)
        if len(right) == 1:
            return self.op("nle", product, self.value(right[0]))
        if self.algebra.f is None:
            raise ValueError("multiple-conclusion sequents need a pointed algebra")
        total = right[-1] if right else F
        for t in reversed(right[:-1]):
            total = LDiv(LDiv(t, F), total)
        return self.op("nle", product, self.value(total))


# --- properties ------------------------------------------------------------------


def check_property(a: FiniteAlgebra, name: str, arg: int | None = None) -> bool:
    """Exhaustive evaluation of a named property's quantifiers."""
    n, e = a.size, a.e
    rng = range(n)

    def neg(x):
        return a.ldiv[x][e]

    if name == "integral":
        return all(a.le(x, e) for x in rng)
    if name == "integrally_closed":
        return all(a.ldiv[x][x] == e and a.rdiv[x][x] == e for x in rng)
    if name == "e_cyclic":
        return all(a.ldiv[x][e] == a.rdiv[e][x] for x in rng)
    if name == "commutative":
        return a.is_commutative()
    if name == "neg_swap_ldiv":
        return all(neg(a.ldiv[x][y]) == a.rdiv[neg(y)][neg(x)] for x in rng for y in rng)
    if name == "neg_swap_rdiv":
        return all(neg(a.rdiv[y][x]) == a.ldiv[neg(x)][neg(y)] for x in rng for y in rng)
    if name == "neg_cancel_left":
        return all(
            a.le(y, e)
            for x in rng
            for y in rng
            if a.le(a.fuse[a.fuse[x][neg(x)]][y], e)
        )
    if name == "neg_cancel_right":
        return all(
            a.le(y, e)
            for x in rng
            for y in rng
            if a.le(a.fuse[a.fuse[y][neg(x)]][x], e)
        )
    if name == "torsion_free":
        bound = arg if arg is not None else n
        for x in rng:
            power = e
            for _ in range(1, bound + 1):
                power = a.fuse[power][x]
                if power == e and x != e:
                    return False
        return True
    if name in ("rl", "sirmonoid"):
        return a.signature == name and not validate(a)
    if name == "pbci":
        if a.ldiv is None or a.rdiv is None:
            return False
        reduct = FiniteAlgebra(size=n, e=e, ldiv=a.ldiv, rdiv=a.rdiv)
        return not validate(reduct)
    if name == "casari":
        if a.f is None or a.signature != "rl":
            raise ValueError("casari check needs a pointed lattice-signature algebra")
        if not (a.is_commutative() and check_property(a, "integrally_closed")):
            return False
        if a.fuse[a.f][a.f] != a.f:
            return False
        return all(a.ldiv[a.ldiv[x][a.f]][a.f] == x for x in rng)
    raise ValueError(f"unknown property {name!r}")


# --- enumeration -------------------------------------------------------------------

# Built on first use inside enumerate_algebras and emptied by clear_caches():
# the lattice representatives of each size and the automorphisms of each
# representative's order.
_LATTICE_REPS: dict[int, list] = {}
_AUTOMORPHISMS: dict = {}


def _partial_orders(n: int):
    """All labeled partial orders on 0..n-1 as leq tables, in the order of
    itertools.product over the pairs i < j, each incomparable (0), i below j
    (1) or j below i (2).  An order is transitive iff each of its three-element
    restrictions is, so the DFS checks a triple when the last of its three
    pairs is set and never extends a prefix that has failed one."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {p: t for t, p in enumerate(pairs)}
    closing = [
        [
            k for k in range(n)
            if k not in (i, j)
            and index[min(i, k), max(i, k)] < t
            and index[min(j, k), max(j, k)] < t
        ]
        for t, (i, j) in enumerate(pairs)
    ]
    leq = [[i == j for j in range(n)] for i in range(n)]

    def transitive(triple):
        return not any(
            leq[a][b] and leq[b][c] and not leq[a][c]
            for a, b, c in itertools.permutations(triple)
        )

    def assign(t):
        if t == len(pairs):
            yield _tbl(leq)
            return
        i, j = pairs[t]
        for rel in (0, 1, 2):
            leq[i][j], leq[j][i] = rel == 1, rel == 2
            if all(transitive((i, j, k)) for k in closing[t]):
                yield from assign(t + 1)
        leq[i][j] = leq[j][i] = False

    yield from assign(0)


def _lattice_tables(n, leq):
    """(meet, join) for a lattice order, or None: the meet of i and j is the
    element whose down-set is their common down-set, and dually."""
    down = [sum(1 << k for k in range(n) if leq[k][i]) for i in range(n)]
    up = [sum(1 << k for k in range(n) if leq[i][k]) for i in range(n)]
    below = {m: i for i, m in enumerate(down)}
    above = {m: i for i, m in enumerate(up)}
    meet = [[below.get(down[i] & down[j]) for j in range(n)] for i in range(n)]
    join = [[above.get(up[i] & up[j]) for j in range(n)] for i in range(n)]
    if any(None in row for row in meet) or any(None in row for row in join):
        return None
    return _tbl(meet), _tbl(join)


def _relabel_order(leq, perm):
    """The order that perm carries leq to: perm[x] below perm[y] iff x below y."""
    n = len(leq)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(tuple(leq[inv[x]][inv[y]] for y in range(n)) for x in range(n))


def _lattice_reps(n: int):
    """One labeled representative per isomorphism class of n-element lattices,
    the first of its class among the labeled partial orders; searching fuse
    tables over representatives still reaches every algebra up to
    isomorphism.  An order that relabels an earlier representative is skipped
    before its meet and join are built."""
    reps = _LATTICE_REPS.get(n)
    if reps is None:
        reps, seen = [], set()
        for leq in _partial_orders(n):
            if leq in seen:
                continue
            tables = _lattice_tables(n, leq)
            if tables is not None:
                reps.append((leq, *tables))
                seen.update(_relabel_order(leq, p) for p in itertools.permutations(range(n)))
        _LATTICE_REPS[n] = reps
    return reps


def _automorphisms(leq):
    """The permutations that carry the order to itself."""
    autos = _AUTOMORPHISMS.get(leq)
    if autos is None:
        autos = _AUTOMORPHISMS[leq] = [
            p for p in itertools.permutations(range(len(leq)))
            if _relabel_order(leq, p) == leq
        ]
    return autos


def _join_irreducibles(n, leq, join):
    out = []
    for x in range(n):
        strictly_below = [y for y in range(n) if leq[y][x] and y != x]
        if not strictly_below:
            continue  # bottom is the empty join
        acc = None
        for y in strictly_below:
            acc = y if acc is None else join[acc][y]
        if acc != x:
            out.append(x)
    return out


def _enumerate_rl(n: int, integral_only: bool):
    for leq, meet, join in _lattice_reps(n):
        bottom = next(x for x in range(n) if all(leq[x][y] for y in range(n)))
        top = next(x for x in range(n) if all(leq[y][x] for y in range(n)))
        jis = _join_irreducibles(n, leq, join)
        decomp = [
            tuple(j for j in jis if leq[j][x]) for x in range(n)
        ]
        e_candidates = [top] if integral_only else range(n)
        for e in e_candidates:
            yield from _fill_fuse(n, leq, meet, join, jis, decomp, bottom, e)


def _fill_fuse(n, leq, meet, join, jis, decomp, bottom, e):
    """Fuse tables with unit e, by a monotone DFS over the values on pairs of
    join-irreducibles; each table is their join-preserving extension.  Each
    cell's values are first bounded by the unit and monotonicity: j <= e
    gives jk <= k, k <= e gives jk <= j, e <= j gives k <= jk and e <= k
    gives j <= jk, so the bounds drop only tables that _finish rejects."""
    cells = [(j, k) for j in jis for k in jis]
    choices = [
        [
            v for v in range(n)
            if (leq[v][k] or not leq[j][e]) and (leq[v][j] or not leq[k][e])
            and (leq[k][v] or not leq[e][j]) and (leq[j][v] or not leq[e][k])
        ]
        for j, k in cells
    ]
    # the earlier cells below and above each cell, whose values bound its own
    below = [
        [c for c in range(idx) if leq[cells[c][0]][j] and leq[cells[c][1]][k]]
        for idx, (j, k) in enumerate(cells)
    ]
    above = [
        [c for c in range(idx) if leq[j][cells[c][0]] and leq[k][cells[c][1]]]
        for idx, (j, k) in enumerate(cells)
    ]
    at = {cell: idx for idx, cell in enumerate(cells)}
    spans = [
        [[at[j, k] for j in decomp[x] for k in decomp[y]] for y in range(n)]
        for x in range(n)
    ]
    values = [0] * len(cells)

    def joined(x, y):
        acc = bottom
        for c in spans[x][y]:
            acc = join[acc][values[c]]
        return acc

    def assign(idx):
        if idx == len(cells):
            fuse = _tbl([joined(x, y) for y in range(n)] for x in range(n))
            alg = _finish(n, e, leq, fuse, meet, join)
            if alg is not None:
                yield alg
            return
        for v in choices[idx]:
            if all(leq[values[c]][v] for c in below[idx]) and all(
                leq[v][values[c]] for c in above[idx]
            ):
                values[idx] = v
                yield from assign(idx + 1)

    yield from assign(0)


def _greatest(leq, sols):
    """The greatest element of sols under leq, or None if there is none."""
    best = [b for b in sols if all(leq[b2][b] for b2 in sols)]
    return best[0] if len(best) == 1 else None


def _residuals(n, leq, fuse):
    """Residual tables ldiv[a][c] = max{b : a*b <= c} and
    rdiv[c][a] = max{b : b*a <= c}, or None when some maximum is missing."""
    ldiv = [[0] * n for _ in range(n)]
    rdiv = [[0] * n for _ in range(n)]
    for a in range(n):
        for c in range(n):
            ldiv[a][c] = _greatest(leq, [b for b in range(n) if leq[fuse[a][b]][c]])
            if ldiv[a][c] is None:
                return None
            rdiv[c][a] = _greatest(leq, [b for b in range(n) if leq[fuse[b][a]][c]])
            if rdiv[c][a] is None:
                return None
    return ldiv, rdiv


def _finish(n, e, order, fuse, meet=None, join=None):
    """The validated algebra with this order and fusion and its residuals,
    or None.  With a meet the order is stored, and a table that is not a
    monoid is rejected before the residuals.  Without one, e is maximal and
    fusion monotone, so the residual induces the order (x \\ y = e iff
    x <= y) and none is stored."""
    rng = range(n)
    if meet is not None:
        for x in rng:
            if fuse[e][x] != x or fuse[x][e] != x:
                return None
            for y in rng:
                for z in rng:
                    if fuse[fuse[x][y]][z] != fuse[x][fuse[y][z]]:
                        return None
    residuals = _residuals(n, order, fuse)
    if residuals is None:
        return None
    ldiv, rdiv = residuals
    if meet is None:
        order = None
    alg = FiniteAlgebra(
        size=n, e=e, leq=order, meet=meet, join=join, fuse=fuse,
        ldiv=_tbl(ldiv), rdiv=_tbl(rdiv),
    )
    return None if validate(alg) else alg


def _orbit_key(a: FiniteAlgebra, perms):
    """The algebra's order table and its least serialization under perms, a
    group of relabelings that carries the order, meet and join tables to
    themselves: two candidates share the key iff one of perms carries one to
    the other."""
    n = a.size
    rng = range(n)
    tables = (a.fuse, a.ldiv, a.rdiv)
    best = None
    for perm in perms:
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        serial = [perm[a.e], -1 if a.f is None else perm[a.f]]
        for t in tables:
            serial.extend(perm[t[inv[x]][inv[y]]] for x in rng for y in rng)
        key = tuple(serial)
        if best is None or key < best:
            best = key
    return a.leq, best


def _enumerate_monoids(n: int, e: int):
    """All monoid tables on 0..n-1 with unit e, associativity-pruned DFS."""
    cells = [(x, y) for x in range(n) for y in range(n) if x != e and y != e]
    fuse = [[0] * n for _ in range(n)]
    for x in range(n):
        fuse[e][x] = x
        fuse[x][e] = x
    known = [[x == e or y == e for y in range(n)] for x in range(n)]

    def assoc_ok(x, y):
        # check all triples whose four lookups are now determined
        for a_ in range(n):
            for b_ in range(n):
                for c_ in range(n):
                    if not (known[a_][b_] and known[b_][c_]):
                        continue
                    ab = fuse[a_][b_]
                    bc = fuse[b_][c_]
                    if known[ab][c_] and known[a_][bc]:
                        if fuse[ab][c_] != fuse[a_][bc]:
                            return False
        return True

    def assign(idx):
        if idx == len(cells):
            yield _tbl(fuse)
            return
        x, y = cells[idx]
        for v in range(n):
            fuse[x][y] = v
            known[x][y] = True
            if assoc_ok(x, y):
                yield from assign(idx + 1)
            known[x][y] = False

    yield from assign(0)


def _enumerate_sirmonoids(n: int):
    e = 0  # isomorphisms can move the unit to 0, so one position reaches every class
    # the orders in which e is maximal, the same for every fuse table
    orders = [
        below for below in _partial_orders(n)
        if not any(below[e][x] for x in range(n) if x != e)
    ]
    for fuse in _enumerate_monoids(n, e):
        for below in orders:
            # monotonicity of fusion
            if any(
                below[x][y]
                and not (below[fuse[z][x]][fuse[z][y]] and below[fuse[x][z]][fuse[y][z]])
                for x in range(n)
                for y in range(n)
                for z in range(n)
            ):
                continue
            alg = _finish(n, e, below, fuse)
            if alg is not None:
                yield alg


def _enumerate_casari(n: int):
    for base in enumerate_algebras(n, "integral"):
        for f in range(n):
            cand = replace(base, f=f)
            if check_property(cand, "casari"):
                yield cand


@lru_cache(maxsize=None)
def enumerate_algebras(size: int, cls: str) -> tuple[FiniteAlgebra, ...]:
    """All non-isomorphic validated algebras of the class at this size: of
    each isomorphism class, the first candidate the generator builds.  The
    order and the labels are part of the answer, since `refute` returns the
    first countermodel it meets.  Every table this needs is built here, on
    first use, and emptied by `clear_caches()`."""
    if cls not in MAX_SIZE:
        raise ValueError(f"unknown class {cls!r} (expected one of {sorted(MAX_SIZE)})")
    if size < 1 or size > MAX_SIZE[cls]:
        raise ValueError(f"size {size} out of range for class {cls} (max {MAX_SIZE[cls]})")
    if cls == "rl":
        gen = _enumerate_rl(size, integral_only=False)
    elif cls == "integral":
        gen = _enumerate_rl(size, integral_only=True)
    elif cls == "sirmonoid":
        gen = _enumerate_sirmonoids(size)
    else:
        gen = _enumerate_casari(size)
    # e = 0 in every sirmonoid candidate, so isomorphisms fix it; lattice
    # candidates share their representative's order, so isomorphisms are its
    # automorphisms
    fixing_e = [(0, *p) for p in itertools.permutations(range(1, size))]
    seen = set()
    out = []
    for alg in gen:
        perms = fixing_e if cls == "sirmonoid" else _automorphisms(alg.leq)
        key = _orbit_key(alg, perms)
        if key not in seen:
            seen.add(key)
            out.append(alg)
    return tuple(out)


# --- refutation ---------------------------------------------------------------------


def countermodel_class(th: Theory) -> tuple[str, bool]:
    """The algebra class `refute` searches for the theory, and whether only
    its commutative members count; each such algebra is a model of the
    theory, so a countermodel there refutes derivability."""
    if th.multiple_conclusion:
        return "casari", True
    if not th.has_lattice_ops:
        return "sirmonoid", th.commutative
    return ("rl" if th is Theory.RL else "integral"), th.commutative


def refute(
    s: Sequent,
    size_bound: int,
    cls: str,
    commutative: bool = False,
) -> tuple[FiniteAlgebra, dict[str, int]] | None:
    """Search validated algebras of the class up to the bound for a falsifying
    valuation: the first algebra in census order that has one, with its first
    in itertools.product order, asked on `Lanes` MAX_LANES at most at once.
    A hit certifies non-derivability for every theory whose algebras include
    the class; exhausting the bound proves nothing."""
    if cls not in MAX_SIZE:
        raise ValueError(f"unknown class {cls!r} (expected one of {sorted(MAX_SIZE)})")
    if size_bound < 1:
        raise ValueError(f"size bound {size_bound} must be at least 1")
    if size_bound > MAX_SIZE[cls]:
        raise ValueError(f"size bound {size_bound} exceeds the cap for {cls} ({MAX_SIZE[cls]})")
    names = sorted(sequent_variables(s))
    for size in range(1, size_bound + 1):
        # valuation i in itertools.product order gives each name a digit of
        # i in base size, at its place; a pass asks `width` of them at once
        count, width = size ** len(names), 1
        while width < count and width * size <= MAX_LANES:
            width *= size
        places = [size ** (len(names) - 1 - j) for j in range(len(names))]
        ones = int.from_bytes(b"\x01" * width, "little")
        for alg in enumerate_algebras(size, cls):
            if commutative and not alg.is_commutative():
                continue
            for start in range(0, count, width):
                env = {
                    n: _column(size, p, width) if p < width else start // p % size * ones
                    for n, p in zip(names, places)
                }
                mask = Lanes(alg, width, env.__getitem__).refuting(s.left, s.right)
                if mask:
                    i = start + ((mask & -mask).bit_length() - 1) // 8
                    return alg, {n: i // p % size for n, p in zip(names, places)}
    return None


@lru_cache(maxsize=None)
def _column(size: int, place: int, width: int) -> int:
    """The lanes where lane i holds i // place % size."""
    period = b"".join(bytes([v]) * place for v in range(size))
    return int.from_bytes(period * (width // len(period)), "little")


# --- negative cone --------------------------------------------------------------------


def negative_cone(a: FiniteAlgebra) -> FiniteAlgebra:
    """Subalgebra on the elements below e, with residuals clipped by e."""
    if a.signature != "rl":
        raise ValueError("negative cone is defined for the lattice signature")
    universe = [x for x in range(a.size) if a.le(x, a.e)]
    idx = {x: i for i, x in enumerate(universe)}

    def sub(table, clip=False):
        # a clipped entry is met with e, back into the cone
        return _tbl(
            [idx[a.meet[table[x][y]][a.e] if clip else table[x][y]] for y in universe]
            for x in universe
        )

    return FiniteAlgebra(
        size=len(universe),
        e=idx[a.e],
        leq=tuple(tuple(a.le(x, y) for y in universe) for x in universe),
        meet=sub(a.meet),
        join=sub(a.join),
        fuse=sub(a.fuse),
        ldiv=sub(a.ldiv, clip=True),
        rdiv=sub(a.rdiv, clip=True),
    )


def clear_caches():
    enumerate_algebras.cache_clear()
    _column.cache_clear()
    _LATTICE_REPS.clear()
    _AUTOMORPHISMS.clear()
