"""finmod's census is pinned, and checked against the unpruned enumerator.

For each class and size up to its cap, the fixture holds the number of
algebras and the sha256 of their `algebra_to_dict` list; for rl and
integral, also the number of commutative members and of negative cones up
to isomorphism.  A change to the enumerator must return the same algebras
with the same labels in the same order, so every countermodel `refute`
finds stays the same.  At sizes up to 4 the enumerator must also equal, as
a tuple, the reference in `tests_helpers_algebras.py`, which builds every
candidate and rejects isomorphs over all n! relabelings.  Regenerate the
fixture only for an intended change of the census:

    PYTHONPATH=src:tests python tests/test_golden_finmod.py > tests/golden_finmod.json
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from icrl import finmod
from tests_helpers_algebras import (
    canonical_form,
    lattice_reps,
    partial_orders,
    reference_algebras,
)

FIXTURE = Path(__file__).with_name("golden_finmod.json")


def census(cls: str, n: int) -> dict:
    algs = finmod.enumerate_algebras(n, cls)
    text = json.dumps(
        [finmod.algebra_to_dict(a) for a in algs], sort_keys=True, separators=(",", ":")
    )
    entry = {"count": len(algs), "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if cls in ("rl", "integral"):
        entry["commutative"] = sum(a.is_commutative() for a in algs)
        entry["negative_cones"] = len({canonical_form(finmod.negative_cone(a)) for a in algs})
    return entry


@pytest.mark.parametrize("cls", sorted(finmod.MAX_SIZE))
def test_census_matches_the_fixture(cls):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))[cls]
    assert sorted(expected, key=int) == [str(n) for n in range(1, finmod.MAX_SIZE[cls] + 1)]
    for n, entry in expected.items():
        assert census(cls, int(n)) == entry, (cls, n)


@pytest.mark.parametrize("cls", sorted(finmod.MAX_SIZE))
def test_enumeration_equals_the_unpruned_reference(cls):
    for n in range(1, 5):
        assert finmod.enumerate_algebras(n, cls) == reference_algebras(n, cls), (cls, n)


def test_orders_and_lattice_representatives_equal_the_reference():
    for n in range(1, 5):
        assert list(finmod._partial_orders(n)) == list(partial_orders(n))
    finmod.clear_caches()
    for n in range(1, 6):
        assert finmod._lattice_reps(n) == list(lattice_reps(n))


def test_tables_are_built_on_first_use_and_emptied_by_clear_caches():
    finmod.clear_caches()
    assert not finmod._LATTICE_REPS and not finmod._AUTOMORPHISMS
    finmod.enumerate_algebras(3, "rl")
    assert finmod._LATTICE_REPS and finmod._AUTOMORPHISMS
    finmod.clear_caches()
    assert not finmod._LATTICE_REPS and not finmod._AUTOMORPHISMS


if __name__ == "__main__":
    out = {
        cls: {str(n): census(cls, n) for n in range(1, cap + 1)}
        for cls, cap in finmod.MAX_SIZE.items()
    }
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
