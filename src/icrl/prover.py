"""Backward cut-free proof search, proof checking, and proof serialization.

Search is exhaustive backtracking over the backward-readable rule instances,
memoized per goal with failure caching for the length of one search call;
termination needs no loop check because every premise of every rule has
strictly smaller total complexity (weakening steps must delete a non-empty
block).  A goal that one of 64 fixed integer valuations refutes fails at
once, before any rule is tried.  They are evaluated by `lg_oracle.lanes`,
the package's one evaluator in the integers, in Z or, for irl, in the
negative cone of Z; `clear_caches()` here empties its cache, as
`lg_oracle.clear_caches()` does.

Two formulations of the oracle-weakening rule are implemented:

* `search` uses the pushed-up axiom form: generalized identity axioms
  (context around the identity formula validated block-wise by the oracle)
  and generalized unit axioms (whole left side validated).
* `search_lgw_explicit` keeps plain axioms and applies the weakening rule
  itself backward, deleting oracle-validated blocks.

The two must agree; the corpus suites cross-check them.

Commutative theories are searched over multiset-quotiented sequents and the
found derivation is then linearized: rule nodes are emitted in a convenient
literal order and explicit exchange steps rewrite them into the requested
one, so every emitted proof passes the sequence-literal checker.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, NamedTuple

from . import ablg_oracle, lg_oracle
from .terms import (
    ConstE,
    ConstF,
    E,
    F,
    Fuse,
    Join,
    LDiv,
    Meet,
    RDiv,
    Sequent,
    Term,
    Theory,
    check_sequent_for_theory,
    clear_table,
    normalize_for_theory,
    parse_sequent,
    print_sequent,
    print_term,
)

# rule names (stable strings; these appear in proof JSON)
ID = "id"
CUT = "cut"
E_LEFT = "e-left"
E_RIGHT = "e-right"
F_LEFT = "f-left"
F_RIGHT = "f-right"
FUSE_LEFT = "fuse-left"
FUSE_RIGHT = "fuse-right"
MEET_LEFT_1 = "meet-left-1"
MEET_LEFT_2 = "meet-left-2"
MEET_RIGHT = "meet-right"
JOIN_LEFT = "join-left"
JOIN_RIGHT_1 = "join-right-1"
JOIN_RIGHT_2 = "join-right-2"
LDIV_LEFT = "ldiv-left"
LDIV_RIGHT = "ldiv-right"
RDIV_LEFT = "rdiv-left"
RDIV_RIGHT = "rdiv-right"
ARROW_LEFT = "arrow-left"
ARROW_RIGHT = "arrow-right"
LG_W = "lg-w"
ABLG_W = "ablg-w"
W = "w"
EL = "el"
ER = "er"
GENAX_ID = "genax-id"
GENAX_E = "genax-e"

_BASE_LATTICE = frozenset(
    {
        ID,
        CUT,
        E_LEFT,
        E_RIGHT,
        FUSE_LEFT,
        FUSE_RIGHT,
        MEET_LEFT_1,
        MEET_LEFT_2,
        MEET_RIGHT,
        JOIN_LEFT,
        JOIN_RIGHT_1,
        JOIN_RIGHT_2,
        LDIV_LEFT,
        LDIV_RIGHT,
        RDIV_LEFT,
        RDIV_RIGHT,
    }
)
_BASE_MONOID = frozenset(
    {ID, CUT, E_LEFT, E_RIGHT, FUSE_LEFT, FUSE_RIGHT, LDIV_LEFT, LDIV_RIGHT, RDIV_LEFT, RDIV_RIGHT}
)

_RULES: dict[Theory, frozenset[str]] = {
    Theory.RL: _BASE_LATTICE,
    Theory.IRL: _BASE_LATTICE | {W},
    Theory.ICRL: _BASE_LATTICE | {LG_W, GENAX_ID, GENAX_E},
    Theory.CICRL: _BASE_LATTICE | {EL, ABLG_W, GENAX_ID, GENAX_E},
    Theory.SIRM: _BASE_MONOID | {LG_W, GENAX_ID, GENAX_E},
    Theory.PSEUDO_BCI: (_BASE_MONOID - {FUSE_LEFT, FUSE_RIGHT}) | {LG_W, GENAX_ID, GENAX_E},
    Theory.SIRCOM: _BASE_MONOID | {EL, ABLG_W, GENAX_ID, GENAX_E},
    Theory.BCI: (_BASE_MONOID - {FUSE_LEFT, FUSE_RIGHT}) | {EL, ABLG_W, GENAX_ID, GENAX_E},
    Theory.CA: frozenset(
        {
            ID,
            CUT,
            EL,
            ER,
            E_LEFT,
            E_RIGHT,
            F_LEFT,
            F_RIGHT,
            FUSE_LEFT,
            FUSE_RIGHT,
            MEET_LEFT_1,
            MEET_LEFT_2,
            MEET_RIGHT,
            JOIN_LEFT,
            JOIN_RIGHT_1,
            JOIN_RIGHT_2,
            ARROW_LEFT,
            ARROW_RIGHT,
            ABLG_W,
        }
    ),
}


def allowed_rules(theory: Theory) -> frozenset[str]:
    return _RULES[theory]


class ContextRule(NamedTuple):
    side: str  # "left" or "right": the side of the principal formula
    connective: type  # the principal formula's class
    parts: Callable  # principal -> per premise, the subterms that replace it


# The context rules: each premise replaces one principal occurrence, in place,
# by some of its immediate subterms and keeps everything else.  The checker,
# the three search generators, commutative emission and cut elimination all
# read these shapes from here.
CONTEXT_RULES: dict[str, ContextRule] = {
    E_LEFT: ContextRule("left", ConstE, lambda t: ((),)),
    F_RIGHT: ContextRule("right", ConstF, lambda t: ((),)),
    FUSE_LEFT: ContextRule("left", Fuse, lambda t: ((t.l, t.r),)),
    MEET_LEFT_1: ContextRule("left", Meet, lambda t: ((t.l,),)),
    MEET_LEFT_2: ContextRule("left", Meet, lambda t: ((t.r,),)),
    JOIN_RIGHT_1: ContextRule("right", Join, lambda t: ((t.l,),)),
    JOIN_RIGHT_2: ContextRule("right", Join, lambda t: ((t.r,),)),
    JOIN_LEFT: ContextRule("left", Join, lambda t: ((t.l,), (t.r,))),
    MEET_RIGHT: ContextRule("right", Meet, lambda t: ((t.l,), (t.r,))),
}


class SplitRule(NamedTuple):
    side: str  # the side of the principal formula; on the right it comes first
    connective: type  # the principal formula's class
    aux: Callable  # principal -> the formula that premise 1 gains
    kept: Callable  # principal -> the formula that takes the principal's place
    ctx: str  # where premise 1's context sits: "front", "back", "before", "after", "prefix"


# The split rules.  With one premise (ctx "front" or "back") the premise
# replaces the principal by `kept` and adds `aux` at that end of the left side.
# With two, premise 1 is G => aux, D: G is the block of the left side just
# "before" or just "after" the principal, or a "prefix" of it (fuse-right),
# and D, empty in single-conclusion theories, is the block of the right side
# just after the principal (fuse-right) or at its back.  Premise 2 keeps the
# rest, with `kept` in the principal's place.  The checker, commutative
# emission and cut elimination read these shapes from here.
SPLIT_RULES: dict[str, SplitRule] = {
    LDIV_RIGHT: SplitRule("right", LDiv, lambda t: t.l, lambda t: t.r, "front"),
    RDIV_RIGHT: SplitRule("right", RDiv, lambda t: t.r, lambda t: t.l, "back"),
    ARROW_RIGHT: SplitRule("right", LDiv, lambda t: t.l, lambda t: t.r, "back"),
    FUSE_RIGHT: SplitRule("right", Fuse, lambda t: t.l, lambda t: t.r, "prefix"),
    LDIV_LEFT: SplitRule("left", LDiv, lambda t: t.l, lambda t: t.r, "before"),
    RDIV_LEFT: SplitRule("left", RDiv, lambda t: t.r, lambda t: t.l, "after"),
    ARROW_LEFT: SplitRule("left", LDiv, lambda t: t.l, lambda t: t.r, "after"),
}

# The other rule families: every rule is a context rule, a split rule, cut or one of these.
AXIOMS = frozenset({ID, E_RIGHT, F_LEFT, GENAX_ID, GENAX_E})
WEAKENING = frozenset({W, LG_W, ABLG_W})
EXCHANGE = frozenset({EL, ER})


@dataclass(frozen=True)
class Certificate:
    """Record of an oracle-validated side-condition."""

    oracle: str
    sequent: Sequent


@dataclass(frozen=True)
class Proof:
    conclusion: Sequent
    rule: str
    premises: tuple["Proof", ...] = ()
    certificates: tuple[Certificate, ...] = ()

    def walk(self):
        yield self
        for p in self.premises:
            yield from p.walk()

    def size(self) -> int:
        return 1 + sum(p.size() for p in self.premises)


@dataclass
class SearchOutcome:
    derivable: bool
    proof: Proof | None
    nodes_expanded: int
    max_depth: int


def oracle_valid(oracle: str, s: Sequent) -> bool:
    if oracle == "lg":
        return lg_oracle.lg_valid_sequent(s)
    if oracle == "ablg":
        return ablg_oracle.ablg_valid_sequent(s)
    raise ValueError(f"unknown oracle {oracle!r}")


# --- proof JSON ----------------------------------------------------------------


# A proof is the text json.dumps(..., indent=2, sort_keys=True) makes of
# {"certificate": {"oracle", "sequents"}, "conclusion", "premises", "rule"},
# with the certificate only where there is one.  It is written directly, since
# the indenting encoder is pure Python.


def proof_to_json(p: Proof) -> str:
    out: list[str] = []
    _write_proof(p, "\n", out)
    return "".join(out) + "\n"


def _write_proof(p: Proof, nl: str, out: list[str]):
    """Append p to out as an object whose closing brace follows nl."""
    inner, item = nl + "  ", nl + "    "
    out.append("{")
    if p.certificates:
        sequents = f",{item}  ".join(_quote(print_sequent(c.sequent)) for c in p.certificates)
        out.append(
            f'{inner}"certificate": {{{item}"oracle": {_quote(p.certificates[0].oracle)},'
            f'{item}"sequents": [{item}  {sequents}{item}]{inner}}},'
        )
    out.append(f'{inner}"conclusion": {_quote(print_sequent(p.conclusion))},{inner}"premises": [')
    for k, q in enumerate(p.premises):
        out.append("," + item if k else item)
        _write_proof(q, item, out)
    out.append(f'{inner if p.premises else ""}],{inner}"rule": {_quote(p.rule)}{nl}}}')


def proof_from_dict(d: dict, theory: Theory) -> Proof:
    """The proof d describes.  Its sequents are read by `parse_sequent`, whose
    formula table lexes each distinct formula text once per session."""
    if not isinstance(d, dict):
        raise ValueError("malformed proof node: expected an object")
    try:
        conclusion = d["conclusion"]
        rule = d["rule"]
    except KeyError as missing:
        raise ValueError(f"malformed proof node: missing key {missing}") from None
    premises = d.get("premises", [])
    if not (isinstance(conclusion, str) and isinstance(rule, str) and isinstance(premises, list)):
        raise ValueError("malformed proof node: expected string conclusion and rule, premise list")
    certs = ()
    if "certificate" in d:
        c = d["certificate"] if isinstance(d["certificate"], dict) else {}
        sequents = c.get("sequents")
        typed = isinstance(sequents, list) and all(isinstance(s, str) for s in sequents)
        if not (typed and isinstance(c.get("oracle"), str)):
            raise ValueError("malformed certificate: expected an oracle name and sequent strings")
        certs = tuple(Certificate(c["oracle"], parse_sequent(s, theory)) for s in sequents)
    return Proof(
        conclusion=parse_sequent(conclusion, theory),
        rule=rule,
        premises=tuple(proof_from_dict(q, theory) for q in premises),
        certificates=certs,
    )


def proof_from_json(text: str, theory: Theory) -> Proof:
    return proof_from_dict(json.loads(text), theory)


# --- schema analysis / checking -------------------------------------------------

# An analysis is a dict describing one way a node instantiates its rule schema;
# "obligations" lists the oracle queries the instantiation depends on.


def _without(seq: tuple, i: int) -> tuple:
    return seq[:i] + seq[i + 1 :]


def _analyses(node: Proof, theory: Theory):
    """Yield candidate instantiations of node's rule schema (obligations unchecked)."""
    rule = node.rule
    concl = node.conclusion
    prem = node.premises
    L, R = concl.left, concl.right
    multiple = theory.multiple_conclusion

    if rule == ID:
        if not prem and len(L) == 1 and len(R) == 1 and L[0] == R[0]:
            yield {}
        return

    if rule == E_RIGHT:
        if not prem and not L and R == (E,):
            yield {}
        return

    if rule == F_LEFT:
        if not prem and L == (F,) and R == ():
            yield {}
        return

    if rule == GENAX_E:
        if not prem and len(R) == 1 and R[0] == E:
            yield {"obligations": [Sequent(L, (E,))]}
        return

    if rule == GENAX_ID:
        if not prem and len(R) == 1:
            u = R[0]
            for i, t in enumerate(L):
                if t == u:
                    yield {
                        "i": i,
                        "obligations": [Sequent(L[:i], (E,)), Sequent(L[i + 1 :], (E,))],
                    }
        return

    spec = CONTEXT_RULES.get(rule)
    if spec is not None:
        left = spec.side == "left"
        if not (left or multiple or len(R) == 1):
            return
        side, fixed = (L, R) if left else (R, L)
        goals = []  # each premise's side of the principal
        for p in prem:
            pL, pR = p.conclusion.left, p.conclusion.right
            if (pR if left else pL) != fixed:
                return
            goals.append(pL if left else pR)
        for i, t in enumerate(side):
            if not isinstance(t, spec.connective):
                continue
            subs = spec.parts(t)
            if len(subs) != len(goals):
                return
            for g, sub in zip(goals, subs):
                if g != side[:i] + sub + side[i + 1 :]:
                    break
            else:
                yield {"i": i}
        return

    split = SPLIT_RULES.get(rule)
    if split is not None:
        yield from _split_analyses(split, L, R, prem, multiple)
        return

    if rule == CUT and len(prem) == 2:
        p1, p2 = prem
        p1L, p1R = p1.conclusion.left, p1.conclusion.right
        p2L, p2R = p2.conclusion.left, p2.conclusion.right
        # single-conclusion: the cut formula is p1's only right formula
        if p1R and (multiple or len(p1R) == 1) and R == p1R[1:] + p2R:
            s = p1R[0]
            for j, t in enumerate(p2L):
                if t == s and L == p2L[:j] + p1L + p2L[j + 1 :]:
                    yield {"j": j}
    if len(prem) != 1:
        return
    pL, pR = prem[0].conclusion.left, prem[0].conclusion.right

    if rule in WEAKENING:
        if multiple:  # ca deletes the back of both sides
            nl, nr = len(pL), len(pR)
            if L[:nl] == pL and R[:nr] == pR:
                yield {"obligations": [Sequent(L[nl:], R[nr:])]}
            return
        # a block L[i:j] of the left side; vacuous (empty) blocks are schema-valid
        for i in range(len(L) + 1):
            for j in range(i, len(L) + 1):
                if pL == L[:i] + L[j:] and pR == R:
                    if rule == W:
                        yield {"i": i, "j": j}
                    else:
                        yield {"i": i, "j": j, "obligations": [Sequent(L[i:j], (E,))]}
        return

    if rule in EXCHANGE:
        side, other, pside, pother = (L, R, pL, pR) if rule == EL else (R, L, pR, pL)
        if pother == other and len(pside) == len(side):
            n = len(side)
            for a in range(n + 1):
                for b in range(a, n + 1):
                    for c in range(b, n + 1):
                        # side = G1 P1 P2 G2 with P1 = side[a:b], P2 = side[b:c]
                        if pside == side[:a] + side[b:c] + side[a:b] + side[c:]:
                            yield {"a": a, "b": b, "c": c}


def _split_analyses(spec: SplitRule, L: tuple, R: tuple, prem: tuple, multiple: bool):
    """Instances of a split rule: its principal at "i" on its side and, with
    two premises, premise 1's contexts at "g" on the left and "d" on the
    right."""
    left = spec.side == "left"
    one = spec.ctx in ("front", "back")
    if len(prem) != (1 if one else 2):
        return
    if left:
        positions = range(len(L))
    elif R and (multiple or len(R) == 1):
        positions = (0,)
    else:
        return
    first = prem[0].conclusion
    if not (one or multiple or len(first.right) == 1):
        return
    last = prem[-1].conclusion
    for i in positions:
        t = L[i] if left else R[i]
        if not isinstance(t, spec.connective):
            continue
        aux, kept = (spec.aux(t),), (spec.kept(t),)
        if one:
            gained = aux + L if spec.ctx == "front" else L + aux
            if first.left == gained and last.right == kept + R[1:]:
                yield {"i": i}
            continue
        G, D = first.left, first.right[1:]
        g = {"prefix": 0, "before": i - len(G), "after": i + 1}[spec.ctx]
        d = 1 if not left else len(R) - len(D)
        if first.right[:1] != aux or g < 0 or d < 0:
            continue
        if L[g : g + len(G)] != G or R[d : d + len(D)] != D:
            continue
        rest_l, rest_r = L[:g] + L[g + len(G) :], R[:d] + R[d + len(D) :]
        if left:
            j = i if i < g else i - len(G)
            rest_l = rest_l[:j] + kept + rest_l[j + 1 :]
        else:
            rest_r = kept + rest_r[1:]
        if last.left == rest_l and last.right == rest_r:
            yield {"i": i, "g": g, "d": d}


class CheckFailure(Exception):
    def __init__(self, path: tuple[int, ...], message: str):
        super().__init__(message)
        self.path = path
        self.message = message


def _check_node(node: Proof, theory: Theory, allow_cut: bool, path: tuple[int, ...]):
    if node.rule == CUT and not allow_cut:
        raise CheckFailure(path, "cut rule used but cuts are disallowed")
    if node.rule not in allowed_rules(theory):
        raise CheckFailure(path, f"rule {node.rule} not available in theory {theory.value}")
    try:
        analyze_node(node, theory)
    except CheckFailure as e:
        raise CheckFailure(path, e.message) from None
    # recorded certificates must themselves re-validate
    for cert in node.certificates:
        if theory.oracle is None or cert.oracle != theory.oracle:
            raise CheckFailure(path, f"certificate oracle {cert.oracle!r} wrong for theory")
        if not oracle_valid(cert.oracle, cert.sequent):
            raise CheckFailure(
                path, f"certificate failed re-validation: {print_sequent(cert.sequent)}"
            )
    for idx, premise in enumerate(node.premises):
        _check_node(premise, theory, allow_cut, path + (idx,))


def check_proof(p: Proof, theory: Theory, allow_cut: bool = False) -> bool:
    return check_proof_detailed(p, theory, allow_cut)[0]


def check_proof_detailed(p: Proof, theory: Theory, allow_cut: bool = False):
    """(ok, path-to-failing-node, message)."""
    try:
        _check_node(p, theory, allow_cut, ())
    except CheckFailure as e:
        return False, e.path, e.message
    return True, None, None


def analyze_node(node: Proof, theory: Theory) -> dict:
    """First schema instantiation whose obligations hold; raises if none."""
    for analysis in _analyses(node, theory):
        if all(oracle_valid(theory.oracle, s) for s in analysis.get("obligations", [])):
            return analysis
    raise CheckFailure((), f"node does not instantiate rule {node.rule}")


# --- backward search -------------------------------------------------------------


@dataclass
class _Step:
    rule: str
    data: dict
    goals: list  # the premise goals, as the alternative generator built them
    premises: list["_Step"]


@dataclass
class _Ctx:
    theory: Theory
    explicit: bool
    memo: dict = field(default_factory=dict)  # goal -> _Step, or None for a failed goal
    nodes: int = 0
    max_depth: int = 0
    rules: frozenset = field(init=False)
    multiset: bool = field(init=False)
    cone: bool = field(init=False)  # goals are refuted in the negative cone, not in Z
    alts: Callable = field(init=False)  # the theory's alternative generator

    def __post_init__(self):
        th = self.theory
        self.rules = allowed_rules(th)
        self.multiset = th.commutative
        self.cone = th is Theory.IRL
        if th.multiple_conclusion:
            self.alts = _alts_ca
        elif th.commutative:
            self.alts = _alts_multiset
        else:
            self.alts = _alts_sequence

    def oracle_e(self, terms: tuple[Term, ...]) -> bool:
        return oracle_valid(self.theory.oracle, Sequent(terms, (E,)))

    def oracle_seq(self, left: tuple[Term, ...], right: tuple[Term, ...]) -> bool:
        return oracle_valid(self.theory.oracle, Sequent(left, right))


def _sort_ms(terms) -> tuple[Term, ...]:
    return tuple(sorted(terms, key=print_term))


def _ms_subtract(ms: tuple, sub: tuple) -> tuple:
    out = list(ms)
    for t in sub:
        out.remove(t)
    return tuple(out)


def _submultisets(ms: tuple):
    """All sub-multisets of a sorted tuple, distinct as multisets."""
    if not ms:
        yield ()
        return
    # group equal elements, choose a count for each group
    groups: list[tuple[Term, int]] = []
    for t in ms:
        if groups and groups[-1][0] == t:
            groups[-1] = (t, groups[-1][1] + 1)
        else:
            groups.append((t, 1))

    def go(idx: int):
        if idx == len(groups):
            yield ()
            return
        t, n = groups[idx]
        for rest in go(idx + 1):
            for k in range(n + 1):
                yield (t,) * k + rest

    yield from go(0)


def _contiguous_blocks(n: int):
    for i in range(n):
        for j in range(i + 1, n + 1):
            yield i, j


# Alternative generators yield (rule, data, premise_goals).  Goals are
# (left, right) pairs; multiset modes keep both sides sorted.  Steps keep the
# premise goals, so sequence-mode data carries only oracle certificates.  The
# order of the alternatives decides which proof is found, so each generator
# spells out its own order.


def _first_positions(seq: tuple) -> list[int]:
    """Positions of the first occurrence of each distinct term."""
    seen: set[Term] = set()
    return [i for i, t in enumerate(seq) if not (t in seen or seen.add(t))]


def _stage(*groups: tuple[str, ...]) -> tuple[dict, dict]:
    """Context rules in the order a generator tries them: group by group, and
    within a group each rule in turn at each principal position.  Compiled to
    a map per side from principal class to (group index, [(rule, parts)])."""
    by_side: tuple[dict, dict] = ({}, {})
    for g, group in enumerate(groups):
        for rule in group:
            spec = CONTEXT_RULES[rule]
            entry = by_side[spec.side == "right"].setdefault(spec.connective, (g, []))
            assert entry[0] == g and spec.side == CONTEXT_RULES[group[0]].side
            entry[1].append((rule, spec.parts))
    return by_side


_FIRST = _stage((E_LEFT,), (FUSE_LEFT,), (MEET_LEFT_1, MEET_LEFT_2), (JOIN_RIGHT_1, JOIN_RIGHT_2))
_BRANCHING = _stage((JOIN_LEFT,), (MEET_RIGHT,))
_CA_FIRST = _stage((E_LEFT,), (F_RIGHT,), (FUSE_LEFT, MEET_LEFT_1, MEET_LEFT_2))
_CA_JOIN_RIGHT = _stage((JOIN_RIGHT_1, JOIN_RIGHT_2))
_CA_JOIN_LEFT = _stage((JOIN_LEFT,))
_CA_MEET_RIGHT = _stage((MEET_RIGHT,))


def _context_alts(ctx: _Ctx, goal, stage: tuple[dict, dict], left_positions, right_positions):
    """Alternatives of the stage's context rules that the theory has, with
    principals at the given positions of each side."""
    L, R = goal
    left_classes, right_classes = stage
    hits = []
    for i in left_positions:
        entry = left_classes.get(type(L[i]))
        if entry is not None:
            hits.append((entry[0], i, True, entry[1]))
    for i in right_positions:
        entry = right_classes.get(type(R[i]))
        if entry is not None:
            hits.append((entry[0], i, False, entry[1]))
    if len(hits) > 1:
        hits.sort()  # by group, then position; no two hits share both
    for _, i, left, rules in hits:
        side = L if left else R
        t = side[i]
        for rule, parts in rules:
            if rule not in ctx.rules:
                continue
            goals = []
            for sub in parts(t):
                if not ctx.multiset:
                    new = side[:i] + sub + side[i + 1 :]
                elif sub:
                    new = _sort_ms(side[:i] + side[i + 1 :] + sub)
                else:
                    new = side[:i] + side[i + 1 :]
                goals.append((new, R) if left else (L, new))
            yield rule, {"principal": t}, goals


def _alts_sequence(goal, ctx: _Ctx):
    L, R = goal
    u = R[0]
    th = ctx.theory
    rules = ctx.rules

    # axioms
    if len(L) == 1 and L[0] == u:
        yield ID, {}, []
    if not L and u == E:
        yield E_RIGHT, {}, []
    if not ctx.explicit and GENAX_E in rules and u == E and ctx.oracle_e(L):
        yield GENAX_E, {"certs": (Sequent(L, (E,)),)}, []
    if not ctx.explicit and GENAX_ID in rules:
        for i, t in enumerate(L):
            if t == u and ctx.oracle_e(L[:i]) and ctx.oracle_e(L[i + 1 :]):
                yield GENAX_ID, {"certs": (Sequent(L[:i], (E,)), Sequent(L[i + 1 :], (E,)))}, []

    # single-premise rules
    every = range(len(L))
    yield from _context_alts(ctx, goal, _FIRST, every, (0,))
    if isinstance(u, LDiv):
        yield LDIV_RIGHT, {}, [((u.l,) + L, (u.r,))]
    if isinstance(u, RDiv):
        yield RDIV_RIGHT, {}, [(L + (u.r,), (u.l,))]
    if W in rules:
        for i, j in _contiguous_blocks(len(L)):
            yield W, {}, [(L[:i] + L[j:], R)]
    if ctx.explicit and th.oracle is not None:
        rule = LG_W if th.oracle == "lg" else ABLG_W
        for i, j in _contiguous_blocks(len(L)):
            block = L[i:j]
            if ctx.oracle_e(block):
                yield rule, {"certs": (Sequent(block, (E,)),)}, [(L[:i] + L[j:], R)]

    # branching rules
    yield from _context_alts(ctx, goal, _BRANCHING, every, (0,))
    for i, t in enumerate(L):
        if isinstance(t, LDiv):
            for k in range(i + 1):
                yield LDIV_LEFT, {}, [
                    (L[k:i], (t.l,)),
                    (L[:k] + (t.r,) + L[i + 1 :], R),
                ]
        if isinstance(t, RDiv):
            for j in range(i + 1, len(L) + 1):
                yield RDIV_LEFT, {}, [
                    (L[i + 1 : j], (t.r,)),
                    (L[:i] + (t.l,) + L[j:], R),
                ]
    if isinstance(u, Fuse) and FUSE_RIGHT in rules:
        for k in range(len(L) + 1):
            yield FUSE_RIGHT, {}, [(L[:k], (u.l,)), (L[k:], (u.r,))]


def _alts_multiset(goal, ctx: _Ctx):
    L, R = goal  # L sorted; R length 1
    u = R[0]
    th = ctx.theory
    rules = ctx.rules

    if len(L) == 1 and L[0] == u:
        yield ID, {}, []
    if not L and u == E:
        yield E_RIGHT, {}, []
    if not ctx.explicit and GENAX_E in rules and u == E and ctx.oracle_e(L):
        yield GENAX_E, {"certs": (Sequent(L, (E,)),)}, []
    if not ctx.explicit and GENAX_ID in rules:
        seen = set()
        for t in L:
            if t == u and t not in seen:
                seen.add(t)
                rest = _remove_one(L, t)
                if ctx.oracle_e(rest):
                    yield GENAX_ID, {"u": t, "rest": rest}, []

    distinct = _first_positions(L)
    yield from _context_alts(ctx, goal, _FIRST, distinct, (0,))
    if isinstance(u, LDiv):
        yield LDIV_RIGHT, {"principal": u}, [(_sort_ms(L + (u.l,)), (u.r,))]
    if isinstance(u, RDiv):
        yield RDIV_RIGHT, {"principal": u}, [(_sort_ms(L + (u.r,)), (u.l,))]
    if ctx.explicit and th.oracle is not None:
        for block in _submultisets(L):
            if block and ctx.oracle_e(block):
                data = {"del_l": block, "del_r": (), "certs": (Sequent(block, (E,)),)}
                yield ABLG_W, data, [(_ms_subtract(L, block), R)]

    yield from _context_alts(ctx, goal, _BRANCHING, distinct, (0,))
    for t in (L[i] for i in distinct):
        if isinstance(t, (LDiv, RDiv)):
            rule = LDIV_LEFT if isinstance(t, LDiv) else RDIV_LEFT
            s_aux = t.l if isinstance(t, LDiv) else t.r
            t_sub = t.r if isinstance(t, LDiv) else t.l
            rest = _remove_one(L, t)
            for sub in _submultisets(rest):
                yield rule, {"principal": t, "sub_l": sub, "sub_r": ()}, [
                    (sub, (s_aux,)),
                    (_sort_ms(_ms_subtract(rest, sub) + (t_sub,)), R),
                ]
    if isinstance(u, Fuse) and FUSE_RIGHT in rules:
        for sub in _submultisets(L):
            data = {"principal": u, "sub_l": sub, "sub_r": ()}
            yield FUSE_RIGHT, data, [(sub, (u.l,)), (_ms_subtract(L, sub), (u.r,))]


def _alts_ca(goal, ctx: _Ctx):
    L, R = goal  # both sorted multisets
    if len(L) == 1 and len(R) == 1 and L[0] == R[0]:
        yield ID, {}, []
    if not L and R == (E,):
        yield E_RIGHT, {}, []
    if L == (F,) and not R:
        yield F_LEFT, {}, []

    distinctL, distinctR = _first_positions(L), _first_positions(R)
    yield from _context_alts(ctx, goal, _CA_FIRST, distinctL, distinctR)
    for i in distinctR:
        t = R[i]
        yield from _context_alts(ctx, goal, _CA_JOIN_RIGHT, (), (i,))
        if isinstance(t, LDiv):
            rest = _remove_one(R, t)
            yield ARROW_RIGHT, {"principal": t}, [(_sort_ms(L + (t.l,)), _sort_ms(rest + (t.r,)))]

    # oracle weakening: delete a non-empty pair of sub-multisets
    for dl in _submultisets(L):
        for dr in _submultisets(R):
            if not dl and not dr:
                continue
            if ctx.oracle_seq(dl, dr):
                yield ABLG_W, {"del_l": dl, "del_r": dr, "certs": (Sequent(dl, dr),)}, [
                    (_ms_subtract(L, dl), _ms_subtract(R, dr))
                ]

    yield from _context_alts(ctx, goal, _CA_JOIN_LEFT, distinctL, ())
    for i in distinctR:
        t = R[i]
        yield from _context_alts(ctx, goal, _CA_MEET_RIGHT, (), (i,))
        if isinstance(t, Fuse):
            restR = _remove_one(R, t)
            for sl in _submultisets(L):
                for sr in _submultisets(restR):
                    yield FUSE_RIGHT, {"principal": t, "sub_l": sl, "sub_r": sr}, [
                        (sl, _sort_ms(sr + (t.l,))),
                        (_ms_subtract(L, sl), _sort_ms(_ms_subtract(restR, sr) + (t.r,))),
                    ]
    for t in (L[i] for i in distinctL):
        if isinstance(t, LDiv):
            restL = _remove_one(L, t)
            for sl in _submultisets(restL):
                for sr in _submultisets(R):
                    # premise1: sl => t.l, sr     premise2: rest, t.r => R - sr
                    yield ARROW_LEFT, {"principal": t, "sub_l": sl, "sub_r": sr}, [
                        (sl, _sort_ms(sr + (t.l,))),
                        (_sort_ms(_ms_subtract(restL, sl) + (t.r,)), _ms_subtract(R, sr)),
                    ]


# --- semantic pruning ---------------------------------------------------------------

# Every theory searched here but irl is sound for the integers with f = e = 0:
# Z is an l-group, so integrally closed, and a commutative model of ca.  irl is
# sound for the negative cone of Z, with x \ y = y / x = min(0, y - x).  So a
# goal that a valuation of lg_oracle's bank makes false there is not derivable, and
# since search stops at its first success, failing it at once removes only a
# failing subtree: the proof found is the same.


def _refuted(goal, cone: bool) -> bool:
    """True if a valuation of the bank makes the goal L => R false in Z or,
    with `cone`, in its negative cone.  False proves nothing."""
    return lg_oracle.refuting_lanes(goal, cone) != 0


def clear_caches():
    lg_oracle.lanes.cache_clear()
    clear_table()  # the terms' formula tables


def _prove(goal, ctx: _Ctx, depth: int):
    memo = ctx.memo
    if goal in memo:
        return memo[goal]
    if _refuted(goal, ctx.cone):
        memo[goal] = None
        return None
    ctx.nodes += 1
    ctx.max_depth = max(ctx.max_depth, depth)
    for rule, data, premise_goals in ctx.alts(goal, ctx):
        premises = []
        for g in premise_goals:
            sub = _prove(g, ctx, depth + 1)
            if sub is None:
                break
            premises.append(sub)
        else:
            step = _Step(rule, data, premise_goals, premises)
            memo[goal] = step
            return step
    memo[goal] = None
    return None


# --- linearization ----------------------------------------------------------------


def _remove_one(seq: tuple, item: Term) -> tuple:
    i = seq.index(item)
    return _without(seq, i)


def _remove_last(seq: tuple, item: Term) -> tuple:
    i = len(seq) - 1 - seq[::-1].index(item)
    return _without(seq, i)


def _exchange_chain(proof: Proof, target: tuple, side: str) -> Proof:
    """Stack el/er nodes under `proof` until the given side reads `target`."""
    rule = EL if side == "left" else ER
    current = list(proof.conclusion.left if side == "left" else proof.conclusion.right)
    assert sorted(map(print_term, current)) == sorted(map(print_term, target)), "not a permutation"
    out = proof
    goal = list(target)
    for i in range(len(goal)):
        if current[i] == goal[i]:
            continue
        j = i + 1 + current[i + 1 :].index(goal[i])
        while j > i:
            current[j - 1], current[j] = current[j], current[j - 1]
            if side == "left":
                concl = Sequent(tuple(current), out.conclusion.right)
            else:
                concl = Sequent(out.conclusion.left, tuple(current))
            out = Proof(concl, rule, (out,))
            j -= 1
    return out


def _emit_sequence(step: _Step, goal, oracle: str | None) -> Proof:
    """Literal proof for the non-commutative modes (goals are sequences)."""
    L, R = goal
    concl = Sequent(L, R)
    certs = tuple(Certificate(oracle, s) for s in step.data.get("certs", ()))
    premises = tuple(
        _emit_sequence(sub, g, oracle) for sub, g in zip(step.premises, step.goals)
    )
    return Proof(concl, step.rule, premises, certs)


def _emit_commutative(step: _Step, target_left: tuple, target_right: tuple) -> Proof:
    """Literal proof for the commutative modes, whose goals are sorted multisets.

    Each node is built in a convenient order; exchange steps below it then
    rewrite its conclusion into the target order.
    """
    rule, data = step.rule, step.data
    TL, TR = target_left, target_right
    emit = _emit_commutative

    if rule in (ID, E_RIGHT, F_LEFT):
        return Proof(Sequent(TL, TR), rule)
    spec = CONTEXT_RULES.get(rule)
    if spec is not None:
        t = data["principal"]
        left = spec.side == "left"
        side = TL if left else TR
        i = side.index(t)
        premises = []
        for q, sub in zip(step.premises, spec.parts(t)):
            new = side[:i] + sub + side[i + 1 :]
            premises.append(emit(q, new, TR) if left else emit(q, TL, new))
        return Proof(Sequent(TL, TR), rule, tuple(premises))
    if rule == GENAX_E:
        return Proof(Sequent(TL, TR), rule, (), (Certificate("ablg", Sequent(TL, (E,))),))
    if rule == GENAX_ID:
        t = data["u"]
        rest = _remove_last(TL, t)
        certs = (
            Certificate("ablg", Sequent(rest, (E,))),
            Certificate("ablg", Sequent((), (E,))),
        )
        node = Proof(Sequent(rest + (t,), TR), rule, (), certs)
        return _exchange_chain(node, TL, "left")

    # weakening deletes sorted sub-multisets; the split rules are assembled
    if rule == ABLG_W:
        dl, dr = data["del_l"], data["del_r"]
        rest_l, rest_r = _ms_subtract(TL, dl), _ms_subtract(TR, dr)
        p = emit(step.premises[0], rest_l, rest_r)
        certs = tuple(Certificate("ablg", c) for c in data["certs"])
        node = Proof(Sequent(rest_l + dl, rest_r + dr), rule, (p,), certs)
    else:
        spec = SPLIT_RULES[rule]
        t = data["principal"]
        aux, kept = (spec.aux(t),), (spec.kept(t),)
        if len(step.premises) == 1:
            rest_r = _remove_last(TR, t)
            gained = aux + TL if spec.ctx == "front" else TL + aux
            premises = (emit(step.premises[0], gained, kept + rest_r),)
        else:
            # premise 1 takes the sub-multisets sub_l => sub_r, premise 2 the rest
            sl, sr = data["sub_l"], data["sub_r"]
            left = spec.side == "left"
            rest_l = _ms_subtract(_remove_one(TL, t) if left else TL, sl)
            rest_r = _ms_subtract(TR if left else _remove_one(TR, t), sr)
            last = (kept + rest_l, rest_r) if left else (rest_l, kept + rest_r)
            premises = (emit(step.premises[0], sl, aux + sr), emit(step.premises[1], *last))
        node = assemble_split(rule, t, premises)
    node = _exchange_chain(node, TL, "left")
    return _exchange_chain(node, TR, "right")


def assemble_split(rule: str, t: Term, premises: tuple[Proof, ...]) -> Proof:
    """The node of split rule `rule` with principal t, its conclusion read off
    premises that are laid out as the rule reads them with no context before
    the principal's block: with one premise, aux at its ctx end of the left
    side and kept first on the right; with two, aux first on premise 1's
    right and kept first on premise 2's principal side."""
    spec = SPLIT_RULES[rule]
    last = premises[-1].conclusion
    if len(premises) == 1:
        left = last.left[1:] if spec.ctx == "front" else last.left[:-1]
        return Proof(Sequent(left, (t,) + last.right[1:]), rule, premises)
    first = premises[0].conclusion
    G, D = first.left, first.right[1:]
    if spec.side == "right":
        concl = Sequent(G + last.left, (t,) + D + last.right[1:])
    else:
        block = G + (t,) if spec.ctx == "before" else (t,) + G
        concl = Sequent(block + last.left[1:], last.right + D)
    return Proof(concl, rule, premises)


# --- entry points ------------------------------------------------------------------


def _run_search(s: Sequent, theory: Theory, explicit: bool) -> SearchOutcome:
    check_sequent_for_theory(s, theory)
    s = Sequent(
        tuple(normalize_for_theory(t, theory) for t in s.left),
        tuple(normalize_for_theory(t, theory) for t in s.right),
    )
    ctx = _Ctx(theory, explicit)
    if theory.multiple_conclusion:
        goal = (_sort_ms(s.left), _sort_ms(s.right))
    elif theory.commutative:
        goal = (_sort_ms(s.left), s.right)
    else:
        goal = (s.left, s.right)
    step = _prove(goal, ctx, 0)
    if step is None:
        return SearchOutcome(False, None, ctx.nodes, ctx.max_depth)
    if theory.commutative:
        proof = _emit_commutative(step, s.left, s.right)
    else:
        proof = _emit_sequence(step, goal, theory.oracle)
    return SearchOutcome(True, proof, ctx.nodes, ctx.max_depth)


def search(s: Sequent, theory: Theory) -> SearchOutcome:
    """Cut-free backward search; oracle theories use the generalized axioms."""
    return _run_search(s, theory, explicit=False)


def search_lgw_explicit(s: Sequent, theory: Theory) -> SearchOutcome:
    """Backward search applying the oracle weakening rule itself (block
    deletion) with plain identity/unit axioms; the generalized-axiom
    formulation is validated against this one."""
    if theory.multiple_conclusion or theory.oracle is None:
        raise ValueError(
            "explicit-weakening search applies to the oracle single-conclusion theories"
        )
    return _run_search(s, theory, explicit=True)


def decide_equation(s: Term, t: Term, theory: Theory) -> bool:
    """Equational validity: both sequents s => t and t => s derivable."""
    s = normalize_for_theory(s, theory)
    t = normalize_for_theory(t, theory)
    a = search(Sequent((s,), (t,)), theory)
    if not a.derivable:
        return False
    return search(Sequent((t,), (s,)), theory).derivable


def make_cut(p1: Proof, p2: Proof, pos: int) -> Proof:
    """Assemble a literal cut node from a proof of G2 => s (first premise)
    and a proof whose left side has s at index pos (second premise)."""
    s = p1.conclusion.right[0]
    d1 = p1.conclusion.right[1:]
    L2 = p2.conclusion.left
    if L2[pos] != s:
        raise ValueError("cut formula mismatch")
    concl = Sequent(L2[:pos] + p1.conclusion.left + L2[pos + 1 :], d1 + p2.conclusion.right)
    return Proof(concl, CUT, (p1, p2))

