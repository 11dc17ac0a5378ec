"""Proof JSON and search counters are pinned on seeded sequents of every theory.

The fixture holds, for each case, the proof JSON that search emits (or null
when the sequent is not derivable) and the search's `nodes_expanded` and
`max_depth` from one search call, for both weakening formulations where the
theory has an oracle.  Refactors of search, emission or the oracles must keep
these bytes.  Regenerate the fixture only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_proofs.py > tests/golden_proofs.json
"""

import json
import random
import sys
from pathlib import Path

from icrl.corpus import gen_sequent
from icrl.prover import proof_to_json, search, search_lgw_explicit
from icrl.terms import Theory, parse_sequent, print_sequent

FIXTURE = Path(__file__).with_name("golden_proofs.json")

# (count, variables, depth, max left terms) per theory: the one-variable
# depth-2 sequents are derivable often enough to pin many proofs.
SHAPES = ((30, 1, 2, 2), (20, 2, 1, 3))

# Sequents whose proof or search counters depend on the order in which a
# generator yields its alternatives, which the seeded cases above do not catch.
# ca tries fuse-left and the meet-lefts per principal formula in turn (trying
# every fuse-left first finds another proof); cicrl tries every fuse-left
# before any meet-left (the other order expands more goals before failing).
_CICRL_ORDER = "y * (x * e * (x /\\ e)), x /\\ e / y \\/ y => (y \\ x \\/ y) / (y * y / x * y)"
ORDER_SENSITIVE = (
    (Theory.CA, "generalized-axioms", "e /\\ x, x * e => e * f, f \\ x"),
    (Theory.CICRL, "generalized-axioms", _CICRL_ORDER),
    (Theory.CICRL, "explicit-weakening", _CICRL_ORDER),
)


def _cases():
    for th in Theory:
        rng = random.Random(f"golden-{th.value}")
        for count, num_vars, depth, max_left in SHAPES:
            for _ in range(count):
                s = gen_sequent(
                    rng, num_vars=num_vars, depth=depth, max_left=max_left,
                    lattice=th.has_lattice_ops, fuse=th.has_fuse, pointed=th.pointed,
                    max_right=2 if th.multiple_conclusion else 1,
                )
                yield th, "generalized-axioms", print_sequent(s)
                if th.oracle is not None and not th.multiple_conclusion:
                    yield th, "explicit-weakening", print_sequent(s)
    yield from ORDER_SENSITIVE


def _case(th: Theory, formulation: str, text: str) -> dict:
    find = search if formulation == "generalized-axioms" else search_lgw_explicit
    out = find(parse_sequent(text, th), th)
    return {
        "theory": th.value,
        "formulation": formulation,
        "sequent": text,
        "proof": proof_to_json(out.proof) if out.derivable else None,
        "nodes_expanded": out.nodes_expanded,
        "max_depth": out.max_depth,
    }


def _golden():
    return [_case(th, form, text) for th, form, text in _cases()]


def test_proof_json_matches_golden():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    # the fixture covers every theory, both formulations and both verdicts
    assert {c["theory"] for c in expected} == {th.value for th in Theory}
    explicit = {c["theory"] for c in expected if c["formulation"] == "explicit-weakening"}
    assert explicit == {"icrl", "cicrl", "sirm", "pseudobci", "sircom", "bci"}
    assert any(c["proof"] for c in expected) and any(c["proof"] is None for c in expected)

    actual = _golden()
    assert [c["sequent"] for c in actual] == [c["sequent"] for c in expected]
    for got, want in zip(actual, expected):
        assert got == want, (got["theory"], got["formulation"], got["sequent"])


if __name__ == "__main__":
    json.dump(_golden(), sys.stdout, indent=1)
    sys.stdout.write("\n")
