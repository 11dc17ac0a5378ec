"""`parse_sequent` reads each formula text once per session: a table per
theory maps the stripped text of every formula of an accepted sequent to its
term, and a sequent whose formulas are all there is built without lexing.
The table has two writers: the parser, for the formulas of each sequent it
accepts, and `enter_subformulas`, for every subterm of a proof's root, which
the parser reads back as itself.  The table holds its terms alive, so they
stay the interned ones and reading from it changes no result."""

import copy
import json
from pathlib import Path

import pytest

from icrl import prover, terms
from icrl.prover import proof_from_dict, proof_from_json, proof_to_json, search
from icrl.terms import (
    E, F, LDiv, ParseError, RDiv, Sequent, Theory, Var, parse_leq, parse_sequent, parse_term,
    print_sequent, print_term, subterms,
)
from test_golden_parse import FIXTURE, _inputs


def _golden_sequent_inputs():
    """(theory, text, pinned result) of every sequent input of the parse fixture."""
    expected = iter(json.loads(FIXTURE.read_text(encoding="utf-8")))
    for th in Theory:
        for kind in ("term", "sequent", "leq"):
            for text in _inputs(th, kind):
                want = next(expected)
                if kind == "sequent":
                    yield th, text, want


def _read(th, text):
    """(printed sequent, sequent), or ([message, position], None)."""
    try:
        s = parse_sequent(text, th)
    except ParseError as e:
        return [str(e), e.position], None
    return print_sequent(s), s


@pytest.fixture
def parser_calls(monkeypatch):
    """How many times parse_sequent has run the parser."""
    calls = []
    parse = terms._parse_sequent

    def counted(text, theory):
        calls.append(text)
        return parse(text, theory)

    monkeypatch.setattr(terms, "_parse_sequent", counted)
    return calls


def test_golden_inputs_read_alike_cold_warm_and_after_clearing(parser_calls):
    cases = list(_golden_sequent_inputs())
    prover.clear_caches()
    cold = [_read(th, text) for th, text, _ in cases]
    assert [out for out, _ in cold] == [want for _, _, want in cases]
    accepted = sum(s is not None for _, s in cold)
    assert 0 < accepted < len(cases)

    del parser_calls[:]
    warm = [_read(th, text) for th, text, _ in cases]
    assert [out for out, _ in warm] == [out for out, _ in cold]
    # every accepted text is answered from the table, with the very terms
    # read cold; every rejected one goes to the parser and raises again
    assert len(parser_calls) == len(cases) - accepted
    for (_, s), (_, w) in zip(cold, warm):
        if s is not None:
            assert all(a is b for a, b in zip(s.left + s.right, w.left + w.right))

    prover.clear_caches()
    again = [_read(th, text) for th, text, _ in cases]
    assert [out for out, _ in again] == [out for out, _ in cold]


def test_a_failing_text_raises_again_when_its_formulas_are_known():
    prover.clear_caches()
    parse_sequent("x, y => x", Theory.ICRL)
    parse_sequent("x => y", Theory.ICRL)
    # every piece is in the table, but icrl takes one term on the right
    for text, message, position in [
        ("x, y => x, y", "theory icrl requires exactly one term on the right, found 2", 0),
        ("x, y =>", "theory icrl requires exactly one term on the right, found 0", 0),
        ("x, , y => x", "expected a term, found ','", 3),
        ("x => y => x", "expected EOF, found '=>'", 7),
    ]:
        for _ in range(2):
            with pytest.raises(ParseError) as e:
                parse_sequent(text, Theory.ICRL)
            assert str(e.value) == f"{message} (at position {position})"
            assert e.value.position == position


# the results the parser gave before the table, for texts whose split at
# '=>' does not follow the tokens, and for whitespace around the pieces
_VARIANTS = [
    ("x <=> y => z", ["unexpected character '>' (at position 4)", 4]),
    ("x<=>y=>z", ["unexpected character '>' (at position 3)", 3]),
    ("  x  <=>  y  =>  z  ", ["unexpected character '>' (at position 7)", 7]),
    ("x <=> y", ["unexpected character '>' (at position 4)", 4]),
    ("x < => y", ["unexpected character '<' (at position 2)", 2]),
    ("x <= => y", ["expected SEQ, found '<=' (at position 2)", 2]),
    ("x =>> y", ["unexpected character '>' (at position 4)", 4]),
    ("x\t=>\ty", "x => y"),
    ("\nx ,y=>x", "x, y => x"),
    (" => x", "=> x"),
]


@pytest.mark.parametrize("text, want", _VARIANTS)
def test_arrows_and_whitespace_read_as_before(text, want):
    prover.clear_caches()
    parse_sequent("x, y => z", Theory.ICRL)  # every identifier is in the table
    assert [_read(Theory.ICRL, text)[0] for _ in range(2)] == [want, want]


def test_the_table_is_kept_per_theory():
    prover.clear_caches()
    x, y = Var("x"), Var("y")
    for _ in range(2):
        assert parse_sequent("x / y => z", Theory.CA).left[0] is LDiv(y, x)
        assert parse_sequent("x / y => z", Theory.ICRL).left[0] is RDiv(x, y)
    assert parse_sequent("f => f", Theory.CA).left[0] is F
    with pytest.raises(ParseError, match="constant f not allowed in theory rl"):
        parse_sequent("f => f", Theory.RL)


def _current(t):
    """Whether t and its subterms are the terms the intern table holds now."""
    for sub in subterms(t):
        key = sub.name if isinstance(sub, Var) else (type(sub), id(sub.l), id(sub.r))
        ref = terms._TABLE.get(key)
        if sub is not E and sub is not F and (ref is None or ref() is not sub):
            return False
    return True


def test_no_hit_returns_a_term_from_before_an_emptying(monkeypatch, parser_calls):
    small = ["x => x", "x, y => y", "y => x \\ y"]
    large = ["x * y, y / x => x /\\ y", "(x \\/ y) * z => z \\ (y * x)"]
    want = {text: print_sequent(parse_sequent(text, Theory.ICRL)) for text in small + large}
    # with a cap of 4 the formula table empties every few texts, and the
    # large texts hold more formulas than the small ones
    monkeypatch.setattr(terms, "FORMULA_CAP", 4)
    prover.clear_caches()
    hits = 0
    for k in range(30):
        for text in (small[k % 3], small[k % 3], large[k % 2], large[k % 2]):
            calls = len(parser_calls)
            s = parse_sequent(text, Theory.ICRL)
            if len(parser_calls) == calls:
                hits += 1
                assert all(_current(t) for t in s.left + s.right), text
            assert print_sequent(s) == want[text]
    assert hits >= 20


# --- the second writer: a proof root's subformulas ------------------------------------


def _accepted_formulas():
    """(theory, formula) of every golden parse input that the parser accepts."""
    for th in Theory:
        for kind, read in (("term", parse_term), ("sequent", parse_sequent), ("leq", parse_leq)):
            for text in _inputs(th, kind):
                try:
                    out = read(text, th)
                except ParseError:
                    continue
                if isinstance(out, Sequent):
                    yield from ((th, t) for t in out.left + out.right)
                else:
                    yield from ((th, t) for t in (out if isinstance(out, tuple) else (out,)))


def test_every_subterm_of_an_accepted_formula_reads_back_as_itself():
    seen = set()
    for th, t in _accepted_formulas():
        for u in subterms(t):
            if (th, u) not in seen:
                seen.add((th, u))
                assert parse_term(print_term(u), th) is u, (th, print_term(u))
    assert len(seen) > 4000
    assert {th for th, _ in seen} == set(Theory)


def test_golden_proofs_are_lexed_at_few_nodes_besides_the_root(parser_calls):
    nodes = lexed = 0
    for case in json.loads(Path(__file__).with_name("golden_proofs.json").read_text("utf-8")):
        if case["proof"] is not None:
            prover.clear_caches()
            del parser_calls[:]
            nodes += proof_from_json(case["proof"], Theory(case["theory"])).size()
            lexed += len(parser_calls)
    # tests/test_proof_json.py checks that each node reads as the parser reads it
    assert nodes > 800 and lexed < nodes // 2


def test_a_cut_free_proof_is_lexed_at_its_root_only(parser_calls):
    text = "x, y \\ e, (x \\/ y) * z => x * (y \\ e) * (x \\/ y) * z"
    proof = search(parse_sequent(text, Theory.IRL), Theory.IRL).proof
    blob = proof_to_json(proof)
    prover.clear_caches()
    del parser_calls[:]
    back = proof_from_json(blob, Theory.IRL)
    assert parser_calls == [text] and back == proof and back.size() > 5


_ROOT = "x, y \\ e => x * (y \\ e)"


@pytest.mark.parametrize("bad", [
    "x * => x",
    "x, y => x, y",  # every piece is a subformula, but irl takes one on the right
    "x * (y \\ e)",  # no '=>'
    "x => y \\ e => x",
    "x => x # y",
    "e, f => x",
])
def test_a_malformed_node_below_the_root_raises_as_the_parser_does(bad):
    node = json.loads(proof_to_json(search(parse_sequent(_ROOT), Theory.IRL).proof))
    node["premises"][0]["conclusion"] = bad
    with pytest.raises(ParseError) as want:
        terms._parse_sequent(bad, Theory.IRL)
    for _ in range(2):  # cold, and with the root's subformulas in the table
        with pytest.raises(ParseError) as got:
            proof_from_dict(copy.deepcopy(node), Theory.IRL)
        assert (str(got.value), got.value.position) == (str(want.value), want.value.position)
    node["premises"][0] = 5
    with pytest.raises(ValueError, match="malformed proof node: expected an object"):
        proof_from_dict(node, Theory.IRL)


def test_a_node_outside_the_root_is_read_by_the_parser(parser_calls):
    prover.clear_caches()
    d = {
        "conclusion": _ROOT,
        "rule": "w",
        "premises": [
            {"conclusion": "z => z", "rule": "id"},
            {"conclusion": "y \\ e => y \\ e", "rule": "id"},
        ],
    }
    p = proof_from_dict(d, Theory.IRL)
    assert parser_calls == [_ROOT, "z => z"]
    assert p.premises[0].conclusion == terms._parse_sequent("z => z", Theory.IRL)
    assert p.premises[1].conclusion.left[0] is LDiv(Var("y"), E)
