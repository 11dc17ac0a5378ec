"""Seeded benchmark inputs and the benchmark's own semantics for them.

Inputs are built here as small trees and handed to the package only as
text, so the package never sees how they were made.  The same
trees are evaluated here, without the program, to check its verdicts:

* in the l-group of integers Z (meet = min, join = max, fusion = +,
  residuals = subtraction, f = e = 0), a model of every theory except irl;
* in the two-element Boolean algebra (fusion = meet, e = top), a model of
  rl and irl;
* in a finite algebra given by its tables, to re-check a countermodel.

A tree is ("var", name), ("e",), ("f",) or (op, left, right) with op one of
the ASCII connectives below.
"""

from __future__ import annotations

import hashlib
import itertools
import random

VARS = ("x", "y", "z")
FUSE, LDIV, RDIV, MEET, JOIN = "*", "\\", "/", "/\\", "\\/"
E = ("e",)
F = ("f",)

# Theories with their signatures: (lattice connectives, fusion).
SIGNATURE = {
    "rl": (True, True),
    "irl": (True, True),
    "icrl": (True, True),
    "cicrl": (True, True),
    "sirm": (False, True),
    "pseudobci": (False, False),
    "sircom": (False, True),
    "bci": (False, False),
    "ca": (True, True),
}

# Valuations tried in Z: every point of [-2, 2]^3.
Z_BANK = tuple(dict(zip(VARS, p)) for p in itertools.product(range(-2, 3), repeat=len(VARS)))
BOOL_BANK = tuple(dict(zip(VARS, p)) for p in itertools.product((0, 1), repeat=len(VARS)))


def var(name: str):
    return ("var", name)


def gen_term(rng: random.Random, depth: int, theory: str):
    """Random term over the theory's signature, at most `depth` deep.

    The shape follows the package's corpus generator (three variables and e
    as leaves, a leaf with probability 1/4 below the root) but f is never
    drawn, matching the ROADMAP baseline workload.
    """
    lattice, fuse = SIGNATURE[theory]
    leaves = [var(n) for n in VARS] + [E]
    ops = [LDIV, RDIV] + ([FUSE] if fuse else []) + ([MEET, JOIN] if lattice else [])

    def go(d: int):
        if d <= 0 or rng.random() < 0.25:
            return rng.choice(leaves)
        return (rng.choice(ops), go(d - 1), go(d - 1))

    return go(depth)


def input_digest(texts) -> str:
    """SHA-256 of the input list, one text per line."""
    h = hashlib.sha256()
    for s in texts:
        h.update(s.encode("utf-8") + b"\n")
    return h.hexdigest()


# --- semantics ----------------------------------------------------------------


def eval_z(t, val) -> int:
    tag = t[0]
    if tag == "var":
        return val[t[1]]
    if len(t) == 1:
        return 0
    a, b = eval_z(t[1], val), eval_z(t[2], val)
    if tag == FUSE:
        return a + b
    if tag == LDIV:
        return b - a
    if tag == RDIV:
        return a - b
    if tag == MEET:
        return min(a, b)
    return max(a, b)


def eval_bool(t, val) -> int:
    tag = t[0]
    if tag == "var":
        return val[t[1]]
    if tag == "e":
        return 1
    if tag == "f":
        raise ValueError("the two-element Boolean algebra is not pointed")
    a, b = eval_bool(t[1], val), eval_bool(t[2], val)
    if tag in (FUSE, MEET):
        return min(a, b)
    if tag == LDIV:
        return max(1 - a, b)
    if tag == RDIV:
        return max(1 - b, a)
    return max(a, b)


def z_refutes(left, right) -> bool:
    """Some valuation in the bank falsifies sum(left) <= sum(right) in Z.

    Single- and multiple-conclusion sequents read the same way in Z,
    because f = e = 0 turns the right-side sum into integer addition.
    """
    return any(
        sum(eval_z(t, v) for t in left) > sum(eval_z(t, v) for t in right) for v in Z_BANK
    )


def bool_refutes(left, right) -> bool:
    """Some valuation falsifies meet(left) <= right in the Boolean algebra 2."""
    (r,) = right
    return any(min((eval_bool(t, v) for t in left), default=1) > eval_bool(r, v) for v in BOOL_BANK)


def refuted(theory: str, left, right) -> bool:
    """The benchmark's own evidence that a sequent is NOT DERIVABLE: a
    refutation in a model of the theory (Z for every theory but irl, the
    Boolean algebra 2 for rl and irl)."""
    if theory != "irl" and z_refutes(left, right):
        return True
    return theory in ("rl", "irl") and bool_refutes(left, right)


def eval_in_algebra(alg, t, val) -> int:
    """Value of a tree in a finite algebra, read from its tables."""
    tag = t[0]
    if tag == "var":
        return val[t[1]]
    if tag == "e":
        return alg.e
    if tag == "f":
        return alg.f
    a, b = eval_in_algebra(alg, t[1], val), eval_in_algebra(alg, t[2], val)
    table = {FUSE: alg.fuse, LDIV: alg.ldiv, RDIV: alg.rdiv, MEET: alg.meet, JOIN: alg.join}[tag]
    return table[a][b]


def algebra_leq(alg, a: int, b: int) -> bool:
    """The lattice order, or for a pomonoid the residual order a\\b = e."""
    if alg.leq is not None:
        return bool(alg.leq[a][b])
    if alg.meet is not None:
        return alg.meet[a][b] == a
    return alg.ldiv[a][b] == alg.e


def algebra_falsifies(alg, val, left, right) -> bool:
    """The single-conclusion sequent fails in the algebra under the valuation."""
    (r,) = right
    lv = alg.e
    for t in left:
        lv = alg.fuse[lv][eval_in_algebra(alg, t, val)]
    return not algebra_leq(alg, lv, eval_in_algebra(alg, r, val))


# --- workload inputs ------------------------------------------------------------

# Master seed of the item populations.  Per-item cost is heavy-tailed (a few
# sequents in a hundred take a thousand times the median), so two
# independent samples of the size one run can afford differ by far more
# than any regression worth catching.  The population is therefore fixed,
# and the run's seed varies only its order (see `Presentation`).
POPULATION_SEED = 0

def random_sequents(theories, count: int, depth: int, max_left: int, max_right: int = 1):
    """`count` sequents of the fixed population, theories round-robin.

    The number of left terms cycles through 0..max_left within each theory,
    and for multiple-conclusion theories the number of right terms cycles
    through 0..max_right, so each shape is equally common and only the
    terms themselves are random.
    """
    rng = random.Random(f"sequents:{','.join(theories)}:{depth}:{POPULATION_SEED}")
    out = []
    for i in range(count):
        th = theories[i % len(theories)]
        k = i // len(theories)
        nl = k % (max_left + 1)
        nr = (k // (max_left + 1)) % (max_right + 1) if th == "ca" else 1
        left = tuple(gen_term(rng, depth, th) for _ in range(nl))
        right = tuple(gen_term(rng, depth, th) for _ in range(nr))
        out.append((th, left, right))
    return out


def random_terms(count: int, depth: int):
    rng = random.Random(f"terms:{depth}:{POPULATION_SEED}")
    return [gen_term(rng, depth, "icrl") for _ in range(count)]


class Presentation:
    """How one run's seed presents the fixed population to the package: in
    an order of its own, as fully parenthesized ASCII text.

    The seed changes nothing else.  Renaming the variables, swapping the
    arguments of meets and joins or reordering commutative sides would
    preserve validity, but the package iterates over sets of terms and
    sorts by printed terms, so each changes the order it works in, and
    with it the cost of a quarter of the prove-seq items, some twofold.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(f"presentation:{seed}")

    def shuffle(self, items: list) -> list:
        items = list(items)
        self.rng.shuffle(items)
        return items

    def text(self, t) -> str:
        """Fully parenthesized ASCII rendering, accepted by `icrl.parse_term`."""
        if t[0] == "var":
            return t[1]
        if len(t) == 1:
            return t[0]
        return f"({self.text(t[1])} {t[0]} {self.text(t[2])})"

    def sequent_text(self, left, right) -> str:
        return ", ".join(self.text(t) for t in left) + " => " + ", ".join(self.text(t) for t in right)


def _schemata():
    """Derivable sequent schemata over x, y, z, per theory."""
    x, y, z = (var(n) for n in VARS)

    def op(o):
        return lambda a, b: (o, a, b)

    fu, ld, rd, me, jo = op(FUSE), op(LDIV), op(RDIV), op(MEET), op(JOIN)
    every = [
        ((x,), (x,)),
        ((E, x), (x,)),
        ((x, E), (x,)),
        ((x, ld(x, y)), (y,)),
        ((rd(y, x), x), (y,)),
        ((x,), (ld(rd(y, x), y),)),
    ]
    fusion = [
        ((x, y), (fu(x, y),)),
        ((fu(x, fu(y, z)),), (fu(fu(x, y), z),)),
        ((fu(x, ld(x, y)),), (y,)),
    ]
    lattice = [
        ((me(x, y),), (x,)),
        ((y,), (jo(x, y),)),
        ((me(x, y),), (me(y, x),)),
        ((fu(x, jo(y, z)),), (jo(fu(x, y), fu(x, z)),)),
    ]
    commutative = [((fu(x, y),), (fu(y, x),)), ((y, x, ld(x, ld(y, z))), (z,))]
    closed = [((ld(x, x),), (E,)), ((rd(x, x),), (E,))]
    composition = [
        ((), (rd(rd(ld(x, z), ld(y, z)), ld(x, y)),)),
        ((), (ld(rd(y, x), ld(rd(z, y), rd(z, x))),)),
    ]
    exchange = [
        ((), (ld(ld(x, ld(y, z)), ld(y, ld(x, z))),)),
        ((), (ld(ld(x, y), ld(ld(y, z), ld(x, z))),)),
    ]
    return {
        "rl": every + fusion + lattice,
        "irl": every + fusion + lattice + [((x, y), (x,)), ((fu(x, y),), (y,))],
        "icrl": every + fusion + lattice + closed + [((ld(x, E),), (rd(E, x),))],
        "cicrl": every + fusion + lattice + closed + commutative,
        "sirm": every + fusion + closed,
        "pseudobci": every + composition,
        "sircom": every + fusion + closed + commutative,
        "bci": every + composition + exchange + [((ld(x, ld(y, z)),), (ld(y, ld(x, z)),))],
        "ca": every + fusion + lattice + commutative + [
            ((ld(ld(x, F), F),), (x,)),
            ((x,), (ld(ld(x, F), F),)),
            ((x, ld(x, F)), ()),
            ((), (x, ld(x, F))),
        ],
    }


SCHEMATA = _schemata()


def substitute(t, sub):
    if t[0] == "var":
        return sub[t[1]]
    if len(t) == 1:
        return t
    return (t[0], substitute(t[1], sub), substitute(t[2], sub))


def schema_instances(per_theory: int, depth: int):
    """Substitution instances of the schemata, theories round-robin.

    Derivability is closed under substitution, so every instance is
    DERIVABLE in its theory.  Schemata cycle in order; only the substituted
    terms are random.
    """
    rng = random.Random(f"schemata:{depth}:{POPULATION_SEED}")
    out = []
    for k in range(per_theory):
        for th, schemata in SCHEMATA.items():
            left, right = schemata[k % len(schemata)]
            sub = {n: gen_term(rng, depth, th) for n in VARS}
            out.append((th, tuple(substitute(t, sub) for t in left), tuple(substitute(t, sub) for t in right)))
    return out
