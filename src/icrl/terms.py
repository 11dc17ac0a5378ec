"""Term language for residuated-lattice reasoning.

Terms are built from the eight core constructors (variables, the unit e,
the extra constant f, meet, join, fusion, and the two residuals).  Derived
connectives (~t, -t, s -> t, s + t) are expanded at parse time and never
stored, so every downstream consumer sees only the core constructors.

ASCII grammar, tightest-binding first:

    ~ -        prefix (~t = t \\ e, -t = t \\ f)
    *          fusion, left-associative
    \\ /       residuals, non-associative (chains need parentheses)
    ->         arrow (commutative theories only), non-associative
    /\\        meet, left-associative
    \\/        join, left-associative
    +          plus (-a -> b; pointed commutative only), left-associative

Sequents are written  t1, t2, ... => u  with a comma-separated right side in
multiple-conclusion mode; either side may be empty there.

`Theory`'s members carry each theory mode's signature, sequent shape and
group oracle as plain attributes, stated once in one table.

Terms are hash-consed in a weak table (Filliâtre & Conchon, "Type-safe
modular hash-consing", 2006): a constructor called on the arguments of a
live term returns that term, so equal live terms are one object, and `==`
and `hash` are object identity.  Each term also holds its signature bits
`_sig`: the union over its subterms of HAS_F (the constant f), HAS_LATTICE
(meet or join), HAS_FUSE and HAS_RDIV (the right residual).  The signature
check, the f-to-e substitution, ca's residual normalization and the group
oracles' refusal of f read them instead of walking the term.
`parse_sequent` keeps a formula table per theory, from the stripped text of
a formula to its term, and answers from it when every formula of a sequent
is there.  It has two writers: the parser enters each formula of a sequent
it accepts, and `enter_subformulas` enters the printed text of every
subterm of such a sequent, which the parser reads back as that subterm.
Each formula table empties itself at FORMULA_CAP entries; `clear_table()`
empties them all and print_term's cache.
"""

from __future__ import annotations

import enum
import re
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar


class Term:
    """Base class for term AST nodes.  Instances are immutable and
    hash-consed: a constructor called again on the arguments of a live term
    returns that term, so equal live terms are one object, and equality and
    hashing are object identity."""

    __slots__ = ("__weakref__",)


class _Ref(weakref.ref):
    """The intern table's weak reference to a term, holding its own key."""

    __slots__ = ("key",)


# The intern table: every live variable (keyed by its name) and connective
# (by its class and its children's ids), each by a weak reference.  A term
# holds its children, so while it lives their ids name them.  When it dies,
# CPython calls its reference's callback before it releases the children,
# and the callback removes the entry if that entry is still a dead
# reference, so it never removes a newer term's entry.
_TABLE: dict = {}


def _remove(ref):
    _remove_dead_weakref(_TABLE, ref.key)


def _enter(key, t: Term) -> Term:
    """Enter the new term t under key, or return the live term that another
    thread entered there first."""
    ref = _Ref(t, _remove)
    ref.key = key
    while True:
        old = _TABLE.setdefault(key, ref)
        if old is ref:
            return t
        u = old()
        if u is not None:
            return u
        _remove_dead_weakref(_TABLE, key)


# parse_sequent's formula tables, one per theory, and the size at which each
# empties itself: as many entries as each lru cache of the package holds.
_FORMULAS: dict = {}
FORMULA_CAP = 1 << 16

# The signature bits (see the module docstring); e, variables and the left
# residual set none.
HAS_F, HAS_LATTICE, HAS_FUSE, HAS_RDIV = 1, 2, 4, 8


def clear_table():
    """Empty the formula tables and print_term's cache, which hold terms.
    The intern table needs no emptying: an entry leaves it when its term dies."""
    _FORMULAS.clear()
    print_term.cache_clear()


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Var(Term):
    name: str
    _sig: ClassVar[int] = 0

    def __new__(cls, name: str):
        ref = _TABLE.get(name)
        t = ref() if ref is not None else None
        if t is None:
            t = _new(cls)
            _set_name(t, name)
            t = _enter(name, t)
        return t

    def __reduce__(self):
        return Var, (self.name,)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class ConstE(Term):
    _sig: ClassVar[int] = 0

    def __new__(cls):
        return E


@dataclass(frozen=True, slots=True, eq=False, init=False)
class ConstF(Term):
    _sig: ClassVar[int] = HAS_F

    def __new__(cls):
        return F


@dataclass(frozen=True, slots=True, eq=False, init=False)
class _Binary(Term):
    """A binary connective.  Its signature bits, the children's and the
    class's own, are stored beside the children at construction."""

    l: Term
    r: Term
    _sig: int = field(repr=False)
    _bit: ClassVar[int] = 0

    def __new__(cls, l: Term, r: Term):
        key = (cls, id(l), id(r))
        ref = _TABLE.get(key)
        t = ref() if ref is not None else None
        if t is None:
            t = _new(cls)
            _set_l(t, l)
            _set_r(t, r)
            _set_sig(t, l._sig | r._sig | cls._bit)
            t = _enter(key, t)
        return t

    def __reduce__(self):
        return type(self), (self.l, self.r)


# A new term is filled through the slot descriptors, which a frozen
# dataclass's own __setattr__ refuses.
_new = object.__new__
_set_name = Var.name.__set__
_set_l, _set_r, _set_sig = _Binary.l.__set__, _Binary.r.__set__, _Binary._sig.__set__


class Meet(_Binary):
    __slots__ = ()
    _bit = HAS_LATTICE


class Join(_Binary):
    __slots__ = ()
    _bit = HAS_LATTICE


class Fuse(_Binary):
    __slots__ = ()
    _bit = HAS_FUSE


class LDiv(_Binary):
    """Left residual l \\ r."""

    __slots__ = ()


class RDiv(_Binary):
    """Right residual l / r."""

    __slots__ = ()
    _bit = HAS_RDIV


# The constants are built once; their constructors return these.
E = _new(ConstE)
F = _new(ConstF)


class Theory(enum.Enum):
    """The nine supported theory modes.

    The theory fixes the signature (`has_fuse`, `has_lattice_ops`, and f when
    `pointed`), the sequent shape (`commutative`: multisets; and
    `multiple_conclusion`), and which validity oracle, "lg", "ablg" or None,
    backs the weakening side-condition (`oracle`).  Each member's row below
    states them once, as plain attributes.  Members are singletons, so they
    hash by identity and the Theory-keyed tables are looked up in C.
    """

    # value, pointed, commutative, multiple_conclusion, oracle, has_lattice_ops, has_fuse
    RL = "rl", False, False, False, None, True, True
    IRL = "irl", False, False, False, None, True, True
    ICRL = "icrl", False, False, False, "lg", True, True
    CICRL = "cicrl", False, True, False, "ablg", True, True
    SIRM = "sirm", False, False, False, "lg", False, True
    PSEUDO_BCI = "pseudobci", False, False, False, "lg", False, False
    SIRCOM = "sircom", False, True, False, "ablg", False, True
    BCI = "bci", False, True, False, "ablg", False, False
    CA = "ca", True, True, True, "ablg", True, True

    def __new__(cls, value, pointed, commutative, multiple_conclusion, oracle,
                has_lattice_ops, has_fuse):
        self = object.__new__(cls)
        self._value_ = value
        self.pointed = pointed
        self.commutative = commutative
        self.multiple_conclusion = multiple_conclusion
        self.oracle = oracle
        self.has_lattice_ops = has_lattice_ops
        self.has_fuse = has_fuse
        return self

    __hash__ = object.__hash__


def theory_from_name(name: str) -> Theory:
    try:
        return Theory(name.strip().lower())
    except ValueError:
        valid = ", ".join(t.value for t in Theory)
        raise ValueError(f"unknown theory {name!r} (expected one of: {valid})") from None


@dataclass(frozen=True, slots=True, init=False)
class Sequent:
    """left |- right, both tuples of terms.

    In single-conclusion modes the right side has length exactly one; the
    multiple-conclusion mode allows any length on either side.
    """

    left: tuple[Term, ...]
    right: tuple[Term, ...]

    def __init__(self, left: tuple[Term, ...], right: tuple[Term, ...]):
        _set_left(self, left)
        _set_right(self, right)


# filled through the slot descriptors, as terms are
_set_left, _set_right = Sequent.left.__set__, Sequent.right.__set__


class ParseError(ValueError):
    """Syntax or signature error, with the offending position in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# --- lexer ----------------------------------------------------------------

# A token after any whitespace: two-character operators before one-character
# ones, then identifiers (a letter or '_', then letters, digits, '_' and "'").
# The first class also admits digits that are not decimal, such as '²'.
_TOKEN = re.compile(r"\s*(/\\|\\/|->|=>|<=|[-*\\/~+(),]|[^\W\d][\w']*)")


def _lex(text: str) -> list[str]:
    """The tokens of text, then "" for its end.  Raises the ParseError for a
    character that starts no token, before any parsing."""
    toks = _TOKEN.findall(text)
    # findall skips what starts no token, so then the tokens miss a character
    if not text.isascii() or len("".join(toks)) != len("".join(text.split())):
        _positions(text)
    toks.append("")
    return toks


def _positions(text: str) -> list[int]:
    """Where each token of text starts, then its end; raises the ParseError for
    the first character that starts no token.  Used only to report an error."""
    spans = [m.span(1) for m in _TOKEN.finditer(text)] + [(len(text), len(text))]
    end = 0
    for start, stop in spans:
        skipped = text[end:start].lstrip()
        c = skipped[:1] or text[start : start + 1]
        if skipped or (c.isalnum() and not c.isalpha()):
            raise ParseError(f"unexpected character {c!r}", start - len(skipped))
        end = stop
    return [start for start, _ in spans]


# --- parser ---------------------------------------------------------------

# The deepest term, and the deepest parenthesis nesting, that the parser
# accepts (a variable has depth 1).  Printing can put each level of a term in
# parentheses, and the parser spends at most four stack frames per
# parenthesis, so every accepted term is printed, read back, searched and
# checked well inside the interpreter's stack.
MAX_TERM_DEPTH = 64
_TOO_DEEP = f"term nested too deeply (more than {MAX_TERM_DEPTH} levels)"

# Binary operators: binding level, loosest first, and constructor.  The levels
# of \ and / and of -> do not associate.  a + b is -a -> b, that is (a \ f) \ b.
_BINARY = {
    "+": (0, LDiv),
    "\\/": (1, Join),
    "/\\": (2, Meet),
    "->": (3, LDiv),
    "\\": (4, LDiv),
    "/": (4, RDiv),
    "*": (5, Fuse),
}
# The printer's operator and level for each constructor: '+' and '->' are
# only read, so LDiv is printed as '\'.
_PRINTED = {build: (op, level) for op, (level, build) in _BINARY.items() if op not in ("+", "->")}
_NON_ASSOCIATIVE = {
    3: "'->' is non-associative; parenthesize chained arrows",
    4: "residuals are non-associative; parenthesize chained \\ or /",
}
_EXPECTED = {"": "EOF", ")": "RPAR", "=>": "SEQ", "<=": "LEQ"}


def _depth_over(t: Term, limit: int) -> bool:
    """Whether t is deeper than limit, found without recursion."""
    stack = [(t, 1)]
    while stack:
        t, d = stack.pop()
        if d > limit:
            return True
        if isinstance(t, _Binary):
            stack.append((t.l, d + 1))
            stack.append((t.r, d + 1))
    return False


class _Parser:
    def __init__(self, text: str, theory: Theory):
        self.text = text
        self.toks = _lex(text)
        self.i = 0  # the next token
        self.theory = theory
        self.parens = 0  # open parentheses around the current position

    def error(self, message: str, at: int) -> ParseError:
        """The ParseError at token number `at`."""
        return ParseError(message, _positions(self.text)[at])

    def expect(self, tok: str):
        if self.toks[self.i] != tok:
            raise self.error(f"expected {_EXPECTED[tok]}, found {self.toks[self.i]!r}", self.i)
        self.i += 1

    def formula(self) -> Term:
        """A whole term of the input, no deeper than MAX_TERM_DEPTH."""
        start = self.i
        t = self.binary(0)
        # depth <= connectives + 1 <= tokens other than brackets, as each operator
        # builds one connective (a '+' two) and brings an operand of its own
        n = self.i - start
        if n > MAX_TERM_DEPTH and n - 2 * self.toks[start : self.i].count("(") > MAX_TERM_DEPTH:
            if _depth_over(t, MAX_TERM_DEPTH):
                raise self.error(_TOO_DEEP, start)
        return t

    def binary(self, floor: int) -> Term:
        """A term whose operators outside parentheses bind at level `floor` or
        tighter, read by precedence climbing."""
        toks, th = self.toks, self.theory
        t = self.unary() if toks[self.i] in ("~", "-") else self.atom()
        while (op := toks[self.i]) in _BINARY:
            level, build = _BINARY[op]
            if level < floor:
                break
            at = self.i
            self.i += 1
            if op == "*" and not th.has_fuse:
                raise self.error(f"'*' not in the signature of theory {th.value}", at)
            if level in (1, 2) and not th.has_lattice_ops:
                lattice = f"lattice connective not in the signature of theory {th.value}"
                raise self.error(lattice, at + 1)  # at the token after the operator
            if op == "->" and not th.commutative:
                arrow = f"'->' is only available in commutative theories, not {th.value}"
                raise self.error(arrow, at)
            if op == "+":
                if not (th.pointed and th.commutative):
                    raise self.error(f"'+' not available in theory {th.value}", at)
                t = LDiv(t, F)
            t = build(t, self.binary(level + 1))
            if level in _NON_ASSOCIATIVE and _BINARY.get(toks[self.i], (None,))[0] == level:
                raise self.error(_NON_ASSOCIATIVE[level], self.i)
        return t

    def unary(self) -> Term:
        """An atom under its prefix operators, read in a loop: chains of ~ and -
        do not recurse."""
        start = self.i
        while self.toks[self.i] in ("~", "-"):
            if self.toks[self.i] == "-" and not self.theory.pointed:
                raise self.error("'-' requires the pointed signature (theory ca)", self.i)
            self.i += 1
        prefixes = self.toks[start : self.i]
        t = self.atom()
        for tok in reversed(prefixes):
            t = LDiv(t, E if tok == "~" else F)
        return t

    def atom(self) -> Term:
        at = self.i
        tok = self.toks[at]
        self.i += 1
        if tok == "(":
            self.parens += 1
            if self.parens > MAX_TERM_DEPTH:
                raise self.error(_TOO_DEEP, at)
            t = self.binary(0)
            self.expect(")")
            self.parens -= 1
            return t
        if tok == "e":
            return E
        if tok == "f":
            if not self.theory.pointed:
                raise self.error(f"constant f not allowed in theory {self.theory.value}", at)
            return F
        if tok[:1].isalpha() or tok[:1] == "_":
            return Var(tok)
        missing = f"expected a term, found {tok!r}" if tok else "unexpected end of input"
        raise self.error(missing, at)


def _parse(text: str, theory: Theory, read):
    """Run `read` on a parser over `text` and check that it used all of it.
    Running out of stack (when called from deep in one) is a ParseError at
    the position the parser reached."""
    p = _Parser(text, theory)
    try:
        out = read(p)
    except RecursionError:
        raise p.error("term nested too deeply", p.i) from None
    p.expect("")
    return out


def parse_term(text: str, theory: Theory = Theory.ICRL) -> Term:
    """Parse a term, expanding derived connectives to the core constructors."""
    return normalize_for_theory(_parse(text, theory, _Parser.formula), theory)


def parse_sequent(text: str, theory: Theory = Theory.ICRL) -> Sequent:
    """Parse 't1, ..., tn => u' (or a comma-separated right side in ca mode).

    The text is split at its one '=>' and at commas.  When the theory's
    formula table holds every piece, stripped, the sequent is built from it
    without lexing.  Otherwise the parser reads the whole text and, when it
    accepts it with one term per piece, enters each piece.  The table's
    other writer, `enter_subformulas`, enters only texts that the parser
    reads back as their terms, so a text is answered from the table only
    when the parser would accept it, with the same terms."""
    table = _FORMULAS.setdefault(theory, {})
    sides = text.split("=>")
    if len(sides) != 2:
        return _parse_sequent(text, theory)
    head, tail = sides
    left = [p.strip() for p in head.split(",")] if head.strip() else []
    right = [p.strip() for p in tail.split(",")] if tail.strip() else []
    if len(right) == 1 or theory.multiple_conclusion:
        try:
            return Sequent(tuple([table[p] for p in left]), tuple([table[p] for p in right]))
        except KeyError:
            pass
    s = _parse_sequent(text, theory)
    if len(s.left) == len(left) and len(s.right) == len(right):
        if len(table) >= FORMULA_CAP:  # spacing variants of a text add no terms
            table.clear()
        table.update(zip(left, s.left))
        table.update(zip(right, s.right))
    return s


def enter_subformulas(s: Sequent, theory: Theory):
    """Enter print_term(u) -> u into the theory's formula table for every
    subterm u of s, a sequent that parse_sequent returned for this theory.
    The parser reads print_term(u) back as u: u's variables are
    identifiers, its connectives are in the theory's signature, it holds
    no '/' in ca (it was normalized), and it is no deeper than the formula
    the parser accepted."""
    table = _FORMULAS.setdefault(theory, {})
    if len(table) >= FORMULA_CAP:
        table.clear()
    stack = [*s.left, *s.right]
    while stack:
        u = stack.pop()
        table[print_term(u)] = u
        if isinstance(u, _Binary):
            stack.append(u.l)
            stack.append(u.r)


def _parse_sequent(text: str, theory: Theory) -> Sequent:
    """The parser's reading of a sequent text."""

    def side(p: _Parser) -> tuple[Term, ...]:
        if p.toks[p.i] in ("=>", ""):
            return ()
        terms = [normalize_for_theory(p.formula(), theory)]
        while p.toks[p.i] == ",":
            p.i += 1
            terms.append(normalize_for_theory(p.formula(), theory))
        return tuple(terms)

    def sequent(p: _Parser):
        left = side(p)
        p.expect("=>")
        return left, side(p)

    left, right = _parse(text, theory, sequent)
    if not theory.multiple_conclusion and len(right) != 1:
        raise ParseError(
            f"theory {theory.value} requires exactly one term on the right, found {len(right)}", 0
        )
    return Sequent(left, right)


def parse_leq(text: str, theory: Theory = Theory.ICRL) -> tuple[Term, Term]:
    """Parse an inequation 's <= t'."""

    def leq(p: _Parser):
        s = p.formula()
        p.expect("<=")
        return s, p.formula()

    s, t = _parse(text, theory, leq)
    return normalize_for_theory(s, theory), normalize_for_theory(t, theory)


# --- printing -------------------------------------------------------------

_LEVEL_ATOM = 1 + max(level for level, _ in _BINARY.values())  # binds tightest


def _level(t: Term) -> int:
    return _PRINTED[type(t)][1] if isinstance(t, _Binary) else _LEVEL_ATOM


@lru_cache(maxsize=65536)
def print_term(t: Term) -> str:
    """Render a term with minimal parentheses; parse_term round-trips it."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, ConstE):
        return "e"
    if isinstance(t, ConstF):
        return "f"
    op, lvl = _PRINTED[type(t)]
    ls = print_term(t.l)
    rs = print_term(t.r)
    if _level(t.l) < lvl or (lvl in _NON_ASSOCIATIVE and _level(t.l) == lvl):
        ls = f"({ls})"
    if _level(t.r) <= lvl:
        rs = f"({rs})"
    return f"{ls} {op} {rs}"


def print_sequent(s: Sequent) -> str:
    left = ", ".join(print_term(t) for t in s.left)
    right = ", ".join(print_term(t) for t in s.right)
    return f"{left} => {right}" if left else f"=> {right}"


# --- measures and translations ---------------------------------------------


def complexity(t: Term) -> int:
    """Number of connective, constant, and variable occurrences."""
    if isinstance(t, _Binary):
        return 1 + complexity(t.l) + complexity(t.r)
    return 1


def sequent_complexity(s: Sequent) -> int:
    return sum(complexity(t) for t in s.left) + sum(complexity(t) for t in s.right)


def subterms(t: Term):
    yield t
    if isinstance(t, _Binary):
        yield from subterms(t.l)
        yield from subterms(t.r)


def variables(t: Term) -> set[str]:
    return {sub.name for sub in subterms(t) if isinstance(sub, Var)}


def sequent_variables(s: Sequent) -> set[str]:
    out: set[str] = set()
    for t in s.left + s.right:
        out |= variables(t)
    return out


def neg_translation(t: Term) -> Term:
    """The negative-cone translation: guards every variable with a meet with e
    and clips both residuals by e.  Defined for f-free terms only."""
    if isinstance(t, ConstE):
        return E
    if isinstance(t, Var):
        return Meet(t, E)
    if isinstance(t, ConstF):
        raise ValueError("negative-cone translation is defined for f-free terms only")
    l, r = neg_translation(t.l), neg_translation(t.r)
    if isinstance(t, (Meet, Join, Fuse)):
        return type(t)(l, r)
    return Meet(type(t)(l, r), E)


def double_neg(t: Term) -> Term:
    """(t \\ e) \\ e."""
    return LDiv(LDiv(t, E), E)


def subst_f_to_e(t: Term) -> Term:
    """t with f replaced by e; subterms without f are shared, not copied."""
    if not t._sig & HAS_F:
        return t
    if t is F:
        return E
    return type(t)(subst_f_to_e(t.l), subst_f_to_e(t.r))


def normalize_for_theory(t: Term, theory: Theory) -> Term:
    """In the ca mode both residuals collapse to the arrow; store l \\ r only."""
    if theory is not Theory.CA or not t._sig & HAS_RDIV:
        return t
    if isinstance(t, RDiv):
        return LDiv(normalize_for_theory(t.r, theory), normalize_for_theory(t.l, theory))
    return type(t)(normalize_for_theory(t.l, theory), normalize_for_theory(t.r, theory))


def product_term(terms) -> Term:
    """Left-to-right fusion of a sequence of terms; the empty product is e."""
    terms = list(terms)
    if not terms:
        return E
    out = terms[0]
    for t in terms[1:]:
        out = Fuse(out, t)
    return out


# The signature bits each theory forbids.
_FORBIDDEN = {
    th: (0 if th.pointed else HAS_F)
    | (0 if th.has_lattice_ops else HAS_LATTICE)
    | (0 if th.has_fuse else HAS_FUSE)
    for th in Theory
}


def check_term_for_theory(t: Term, theory: Theory):
    """Raise ValueError when t uses connectives outside the theory's signature.
    Its bits tell whether it does; the walk finds the first such subterm."""
    if not t._sig & _FORBIDDEN[theory]:
        return
    for sub in subterms(t):
        if isinstance(sub, ConstF) and not theory.pointed:
            raise ValueError(f"constant f not allowed in theory {theory.value}")
        if isinstance(sub, (Meet, Join)) and not theory.has_lattice_ops:
            raise ValueError(f"lattice connectives not allowed in theory {theory.value}")
        if isinstance(sub, Fuse) and not theory.has_fuse:
            raise ValueError(f"fusion not allowed in theory {theory.value}")


def check_sequent_for_theory(s: Sequent, theory: Theory):
    if not theory.multiple_conclusion and len(s.right) != 1:
        raise ValueError(
            f"theory {theory.value} requires single-conclusion sequents, "
            f"got {len(s.right)} right terms"
        )
    for t in s.left + s.right:
        check_term_for_theory(t, theory)
