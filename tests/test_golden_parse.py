"""Parser results and parse errors are pinned on seeded inputs of every theory.

For each theory and each of `parse_term`, `parse_sequent` and `parse_leq`,
the inputs are: random texts over the theory's signature, texts over the
whole ASCII syntax (so signature errors are met), one-token mutations of
both, random garbage, and nesting chains of each kind at and past
`MAX_TERM_DEPTH`.  The fixture holds, per input, the printed result, or the
error message and position.  A rewrite of the lexer or parser must build
the same trees and raise the same errors at the same positions.  Regenerate
the fixture only for an intended change of the term syntax:

    PYTHONPATH=src python tests/test_golden_parse.py > tests/golden_parse.json
"""

import json
import random
import re
import sys
from pathlib import Path

from icrl.terms import (
    MAX_TERM_DEPTH,
    ParseError,
    Theory,
    parse_leq,
    parse_sequent,
    parse_term,
    print_sequent,
    print_term,
)

FIXTURE = Path(__file__).with_name("golden_parse.json")

ATOMS = ("x", "y", "z'", "_u", "e", "f")
PREFIXES = ("~", "-")
BINARY = ("*", "\\", "/", "->", "/\\", "\\/", "+")
# tokens a mutation may insert, including characters the lexer rejects
VOCAB = ATOMS + PREFIXES + BINARY + ("(", ")", ",", "=>", "<=", "#", "²", "x²")
GARBAGE = list("xyef_'2 \t*\\/~-+(),=<>#.;é²∧") + ["->", "=>", "/\\", "\\/"]
# a rough split into tokens, only to choose what to mutate
_TOKEN = re.compile(r"/\\|\\/|->|=>|<=|[A-Za-z_][\w']*|\S")


def _signature(th: Theory):
    """(atoms, prefixes, binary operators) of the theory's ASCII syntax."""
    atoms = [a for a in ATOMS if a != "f" or th.pointed]
    prefixes = ["~"] + (["-"] if th.pointed else [])
    ops = ["\\", "/"] + (["*"] if th.has_fuse else [])
    ops += ["/\\", "\\/"] if th.has_lattice_ops else []
    ops += ["->"] if th.commutative else []
    ops += ["+"] if th.pointed and th.commutative else []
    return atoms, prefixes, ops


def _text(rng: random.Random, sig, depth: int) -> str:
    atoms, prefixes, ops = sig
    if depth <= 0 or rng.random() < 0.25:
        t = rng.choice(atoms)
    else:
        sep = rng.choice(("", " ", " ", "  "))
        l, r = _text(rng, sig, depth - 1), _text(rng, sig, depth - 1)
        if rng.random() < 0.6:
            l = f"({l})"
        if rng.random() < 0.6:
            r = f"({r})"
        t = f"{l}{sep}{rng.choice(ops)}{sep}{r}"
    if rng.random() < 0.15:
        t = rng.choice(prefixes) + (t if len(t) < 3 else f"({t})")
    return t


def _mutate(rng: random.Random, text: str) -> str:
    toks = _TOKEN.findall(text)
    i = rng.randrange(len(toks) + 1)
    kind = rng.choice(("drop", "dup", "replace", "insert"))
    if kind == "insert" or i == len(toks):
        toks.insert(i, rng.choice(VOCAB))
    elif kind == "drop":
        del toks[i]
    elif kind == "dup":
        toks.insert(i, toks[i])
    else:
        toks[i] = rng.choice(VOCAB)
    return rng.choice((" ", "")).join(toks)


def _chains(n: int) -> list[str]:
    """Nestings of each kind, n levels of the nesting construct deep."""
    return [
        "(" * n + "x" + ")" * n,
        " \\/ ".join(["x"] * n),
        " * ".join(["x"] * n),
        " + ".join(["x"] * n),
        "~" * n + "x",
        "-" * n + "x",
        "x" + " * (x" * (n - 1) + ")" * (n - 1),
        "(" * (n - 1) + "x" + " \\ x)" * (n - 1),
        "x / (" * (n - 1) + "x" + ")" * (n - 1),
        "~(" * n + "x" + ")" * n,
    ]


def _inputs(th: Theory, kind: str):
    rng = random.Random(f"golden-parse-{th.value}-{kind}")
    full = (ATOMS, PREFIXES, BINARY)
    terms = [_text(rng, _signature(th), rng.randint(0, 4)) for _ in range(30)]
    terms += [_text(rng, full, rng.randint(0, 3)) for _ in range(15)]
    if kind == "term":
        texts = terms
    elif kind == "leq":
        texts = [f"{rng.choice(terms)} <= {rng.choice(terms)}" for _ in range(30)]
    else:
        texts = []
        for _ in range(30):
            left = ", ".join(rng.sample(terms, rng.randint(0, 3)))
            right = ", ".join(rng.sample(terms, rng.choice((1, 1, 1, 0, 2))))
            texts.append(f"{left} => {right}")
    texts += [_mutate(rng, rng.choice(texts)) for _ in range(2 * len(texts))]
    texts += ["".join(rng.choices(GARBAGE, k=rng.randint(0, 16))) for _ in range(20)]
    for n in (MAX_TERM_DEPTH - 1, MAX_TERM_DEPTH, MAX_TERM_DEPTH + 1, 2000):
        for chain in _chains(n):
            texts.append(
                {"term": chain, "leq": f"x <= {chain}", "sequent": f"y, {chain} => x"}[kind]
            )
    return texts


def _parsed(th: Theory, kind: str, text: str):
    """The printed result, or [message, position] of the ParseError."""
    try:
        if kind == "term":
            return print_term(parse_term(text, th))
        if kind == "leq":
            s, t = parse_leq(text, th)
            return f"{print_term(s)} <= {print_term(t)}"
        return print_sequent(parse_sequent(text, th))
    except ParseError as e:
        return [str(e), e.position]


def _cases():
    for th in Theory:
        for kind in ("term", "sequent", "leq"):
            for text in _inputs(th, kind):
                yield th, kind, text, _parsed(th, kind, text)


def test_parses_match_golden():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = list(_cases())
    assert len(actual) == len(expected)
    # both outcomes, and the depth limit both met and passed
    assert any(isinstance(want, str) for want in expected)
    assert any(isinstance(want, list) and "too deeply" in want[0] for want in expected)
    for (th, kind, text, got), want in zip(actual, expected):
        assert got == want, (th.value, kind, text)


if __name__ == "__main__":
    sys.stdout.write("[\n")
    sys.stdout.write(",\n".join(json.dumps(c[-1]) for c in _cases()))
    sys.stdout.write("\n]\n")
