"""`parse_sequent` reads each formula text once per session: a table per
theory maps the stripped text of every formula of an accepted sequent to its
term, and a sequent whose formulas are all there is built without lexing.
The parser is the table's only writer, and the table holds its terms alive,
so they stay the interned ones and reading from it changes no result."""

import json

import pytest

from icrl import prover, terms
from icrl.terms import (
    E, F, LDiv, ParseError, RDiv, Theory, Var, parse_sequent, print_sequent, subterms,
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
