"""`validate`'s verdicts are pinned on the census and its one-cell mutants.

For each class and size up to its cap, and for the pseudo BCI reduct
(`fuse` dropped) of each sirmonoid, every enumerated algebra is taken with
20 seeded mutants of it, each with one cell of one of its tables changed to
another value in range (an order entry flipped).  The fixture holds, per
algebra, a string of its verdict and its mutants' verdicts, 1 for valid and
0 for invalid, and the verdicts of a few targeted algebras, each breaking
one check that no mutant breaks alone.  So a refactor of `validate` must
accept and reject exactly what it did, and deleting any one of its checks
fails this test; its messages may change.  Regenerate the fixture only for
an intended change of the axioms:

    PYTHONPATH=src python tests/test_golden_validate.py > tests/golden_validate.json
"""

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

from icrl import finmod
from test_finmod import two_chain, z2_sirmonoid

FIXTURE = Path(__file__).with_name("golden_validate.json")
MUTANTS = 20
CLASSES = {**finmod.MAX_SIZE, "pbci": finmod.MAX_SIZE["sirmonoid"]}
TABLES = ("leq", "meet", "join", "fuse", "ldiv", "rdiv")


def algebras(cls: str, n: int):
    if cls == "pbci":
        return [dataclasses.replace(a, fuse=None) for a in finmod.enumerate_algebras(n, "sirmonoid")]
    return finmod.enumerate_algebras(n, cls)


def _with_cell(a, key, x, y, value):
    rows = [list(r) for r in getattr(a, key)]
    rows[x][y] = value
    return dataclasses.replace(a, **{key: tuple(map(tuple, rows))})


def mutants(a, rng: random.Random):
    """MUTANTS seeded draws from the algebra's one-cell mutants, or none if it
    has none (a one-element algebra without an order table)."""
    n = a.size
    cells = [
        (key, x, y, value)
        for key in TABLES
        if getattr(a, key) is not None
        for x in range(n)
        for y in range(n)
        for value in ((not a.leq[x][y],) if key == "leq" else range(n))
        if value != getattr(a, key)[x][y]
    ]
    if not cells:
        return []
    return [_with_cell(a, *rng.choice(cells)) for _ in range(MUTANTS)]


def _alg(n, e, **tables):
    """The algebra with these row-major tables, as an algebra file gives them."""
    return finmod.algebra_from_dict({"size": n, "e": e, **tables})


def targeted():
    """Algebras that each break one check of `validate` that no mutant
    above breaks alone, by name."""
    chain, z2 = two_chain(), z2_sirmonoid()
    return {
        "missing table": dataclasses.replace(chain, rdiv=None),
        "lattice table on a sirmonoid": dataclasses.replace(z2, join=chain.join),
        "order table on a pseudo BCI-algebra": dataclasses.replace(z2, fuse=None, leq=((1, 0), (0, 1))),
        "table not n x n": dataclasses.replace(chain, fuse=((0, 0), (0,))),
        "entry out of range": dataclasses.replace(chain, ldiv=((1, 2), (0, 1))),
        "unit out of range": dataclasses.replace(chain, e=2),
        "f out of range": dataclasses.replace(chain, f=-1),
        "unit law": dataclasses.replace(chain, e=0),
        # a Goedel chain, 1 < 2 < 0, whose 2 is not below itself
        "order not reflexive": _alg(
            3, 0, leq=[1, 0, 0, 1, 1, 1, 1, 0, 0], meet=[0, 1, 1, 1, 1, 1, 1, 1, 1],
            join=[0, 0, 0, 0, 1, 0, 0, 0, 0], fuse=[0, 1, 2, 1, 1, 1, 2, 1, 2],
            ldiv=[0, 1, 1, 0, 0, 0, 0, 1, 1], rdiv=[0, 0, 0, 1, 0, 1, 1, 0, 1],
        ),
        # Z3, with x below x + 1: every pair has a meet and a join
        "order not transitive": _alg(
            3, 0, meet=[0, 0, 2, 0, 1, 1, 2, 1, 2], join=[0, 1, 0, 1, 1, 2, 0, 2, 2],
            fuse=[0, 1, 2, 1, 2, 0, 2, 0, 1], ldiv=[0, 1, 2, 2, 0, 1, 1, 2, 0],
            rdiv=[0, 2, 1, 1, 0, 2, 2, 1, 0],
        ),
        # a pseudo BCI-algebra whose 1 and 2 are below each other
        "order not antisymmetric": _alg(3, 0, ldiv=[0, 1, 2, 0, 0, 0, 0, 0, 0], rdiv=[0, 0, 0, 1, 0, 0, 2, 0, 0]),
        # the four-element chain with 2 * 2 = 1 and 1 * 1 = 0
        "associativity": _alg(
            4, 3, meet=[0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 2, 2, 0, 1, 2, 3],
            join=[0, 1, 2, 3, 1, 1, 2, 3, 2, 2, 2, 3, 3, 3, 3, 3],
            fuse=[0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 2, 0, 1, 2, 3],
            ldiv=[3, 3, 3, 3, 1, 3, 3, 3, 0, 2, 3, 3, 0, 1, 2, 3],
            rdiv=[3, 1, 0, 0, 3, 3, 2, 1, 3, 3, 3, 2, 3, 3, 3, 3],
        ),
    }


def verdicts(cls: str, n: int) -> list[str]:
    rng = random.Random(f"{cls}:{n}")
    return [
        "".join("0" if finmod.validate(b) else "1" for b in (a, *mutants(a, rng)))
        for a in algebras(cls, n)
    ]


@pytest.mark.parametrize("cls", sorted(CLASSES))
def test_verdicts_match_the_fixture(cls):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))[cls]
    assert sorted(expected, key=int) == [str(n) for n in range(1, CLASSES[cls] + 1)]
    for n, entry in expected.items():
        assert verdicts(cls, int(n)) == entry, (cls, n)


def test_targeted_verdicts_match_the_fixture():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))["targeted"]
    assert {name: not finmod.validate(a) for name, a in targeted().items()} == expected


if __name__ == "__main__":
    out = {cls: {str(n): verdicts(cls, n) for n in range(1, cap + 1)} for cls, cap in CLASSES.items()}
    out["targeted"] = {name: not finmod.validate(a) for name, a in targeted().items()}
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
