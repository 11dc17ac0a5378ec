"""Backward cut-free proof search, proof checking, and proof serialization.

Search is exhaustive backtracking over the backward-readable rule instances,
memoized per goal with failure caching for the length of one search call;
termination needs no loop check because every premise of every rule has
strictly smaller total complexity (weakening steps must delete a non-empty
block).  A goal that one of 64 fixed integer valuations refutes fails at
once, before any rule is tried.  They are evaluated by lg_oracle's one lane
evaluator, in Z or, for irl, in the negative cone of Z and then in a
4-element chain; `clear_caches()` here empties its caches, as
`lg_oracle.clear_caches()` does.

Two formulations of the oracle-weakening rule are implemented:

* `search` uses the pushed-up axiom form: generalized identity axioms
  (context around the identity formula validated block-wise by the oracle)
  and generalized unit axioms (whole left side validated).
* `search_lgw_explicit` keeps plain axioms and applies the weakening rule
  itself backward, deleting oracle-validated blocks.

The two must agree; the corpus suites cross-check them.

Each theory's rules are read off its signature.  The checker compares a
split-rule node's sides with `assemble_split`'s layout of its premises.
One generator, `_alternatives`, serves every theory: it tries the axioms,
the first stage of rule groups in the theory's stage table, the weakenings,
then the branching stage.  A split rule's premise goals are read off
`SPLIT_RULES`.

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
    enter_subformulas,
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


def _rules_of(th: Theory) -> frozenset[str]:
    """The theory's rules, read off its signature and structural rules."""
    rules = {ID, CUT, E_LEFT, E_RIGHT}
    if th.has_fuse:
        rules |= {FUSE_LEFT, FUSE_RIGHT}
    if th.has_lattice_ops:
        rules |= {MEET_LEFT_1, MEET_LEFT_2, MEET_RIGHT, JOIN_LEFT, JOIN_RIGHT_1, JOIN_RIGHT_2}
    if th.pointed:
        rules |= {F_LEFT, F_RIGHT}
    if th.multiple_conclusion:  # one arrow for both residuals, and exchange on the right
        rules |= {ARROW_LEFT, ARROW_RIGHT, ER}
    else:
        rules |= {LDIV_LEFT, LDIV_RIGHT, RDIV_LEFT, RDIV_RIGHT}
    if th.commutative:
        rules.add(EL)
    if th.oracle is not None:
        rules.add(LG_W if th.oracle == "lg" else ABLG_W)
        if not th.multiple_conclusion:
            rules |= {GENAX_ID, GENAX_E}
    if th is Theory.IRL:
        rules.add(W)
    return frozenset(rules)


_RULES: dict[Theory, frozenset[str]] = {th: _rules_of(th) for th in Theory}


def allowed_rules(theory: Theory) -> frozenset[str]:
    return _RULES[theory]


class ContextRule(NamedTuple):
    side: str  # "left" or "right": the side of the principal formula
    connective: type  # the principal formula's class
    parts: Callable  # principal -> per premise, the subterms that replace it


# The context rules: each premise replaces one principal occurrence, in place,
# by some of its immediate subterms and keeps everything else.  The checker,
# search, commutative emission and cut elimination all read these shapes from
# here.
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
# rest, with `kept` in the principal's place.  The checker, search,
# commutative emission and cut elimination read these shapes from here.
SPLIT_RULES: dict[str, SplitRule] = {
    LDIV_RIGHT: SplitRule("right", LDiv, lambda t: t.l, lambda t: t.r, "front"),
    RDIV_RIGHT: SplitRule("right", RDiv, lambda t: t.r, lambda t: t.l, "back"),
    ARROW_RIGHT: SplitRule("right", LDiv, lambda t: t.l, lambda t: t.r, "back"),
    FUSE_RIGHT: SplitRule("right", Fuse, lambda t: t.l, lambda t: t.r, "prefix"),
    LDIV_LEFT: SplitRule("left", LDiv, lambda t: t.l, lambda t: t.r, "before"),
    RDIV_LEFT: SplitRule("left", RDiv, lambda t: t.r, lambda t: t.l, "after"),
    ARROW_LEFT: SplitRule("left", LDiv, lambda t: t.l, lambda t: t.r, "after"),
}

# The plain axioms: a node, or a goal, L => R with no premises that passes
# the rule's test.  The checker reads them here; search reads those of its
# theory, in this order, from `_AXIOMS_OF`.
PLAIN_AXIOMS: dict[str, Callable] = {
    ID: lambda L, R: len(L) == 1 and len(R) == 1 and L[0] == R[0],
    E_RIGHT: lambda L, R: not L and R == (E,),
    F_LEFT: lambda L, R: L == (F,) and not R,
}
_AXIOMS_OF = {th: [(r, a) for r, a in PLAIN_AXIOMS.items() if r in _RULES[th]] for th in Theory}

# The other rule families: every rule is a context rule, a split rule, cut or one of these.
AXIOMS = frozenset({*PLAIN_AXIOMS, GENAX_ID, GENAX_E})
WEAKENING = frozenset({W, LG_W, ABLG_W})
EXCHANGE = frozenset({EL, ER})


@dataclass(frozen=True)
class Certificate:
    """Record of an oracle-validated side-condition."""

    oracle: str
    sequent: Sequent


@dataclass(frozen=True, slots=True, init=False)
class Proof:
    conclusion: Sequent
    rule: str
    premises: tuple["Proof", ...] = ()
    certificates: tuple[Certificate, ...] = ()

    def __init__(self, conclusion: Sequent, rule: str, premises: tuple["Proof", ...] = (),
                 certificates: tuple[Certificate, ...] = ()):
        _set_conclusion(self, conclusion)
        _set_rule(self, rule)
        _set_premises(self, premises)
        _set_certificates(self, certificates)

    def walk(self):
        yield self
        for p in self.premises:
            yield from p.walk()

    def size(self) -> int:
        return 1 + sum(p.size() for p in self.premises)


# A proof node is filled through the slot descriptors, which a frozen
# dataclass's own __setattr__ refuses, as terms and sequents are.
_set_conclusion, _set_rule = Proof.conclusion.__set__, Proof.rule.__set__
_set_premises, _set_certificates = Proof.premises.__set__, Proof.certificates.__set__


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
    formula table lexes each distinct formula text once per session.  Once
    the root conclusion is read, every subterm of it is entered there too,
    so a node whose formulas are subformulas of the root, as in a cut-free
    proof, is read without lexing."""
    return _node_from_dict(d, theory, True)


def _node_from_dict(d: dict, theory: Theory, root: bool) -> Proof:
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
    conclusion = parse_sequent(conclusion, theory)
    if root and premises:
        enter_subformulas(conclusion, theory)
    return Proof(
        conclusion=conclusion,
        rule=rule,
        premises=tuple(_node_from_dict(q, theory, False) for q in premises),
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
    prem = node.premises
    L, R = node.conclusion.left, node.conclusion.right
    multiple = theory.multiple_conclusion

    holds = PLAIN_AXIOMS.get(rule)
    if holds is not None:
        if not prem and holds(L, R):
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

    if rule in SPLIT_RULES:
        yield from _split_analyses(rule, L, R, prem, multiple)
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


def _split_analyses(rule: str, L: tuple, R: tuple, prem: tuple, multiple: bool):
    """Instances of a split rule, each matching the sides `assemble_split` reads
    off the premises: its principal at "i" on its side and, with two premises,
    premise 1's contexts at "g" on the left and "d" on the right."""
    spec = SPLIT_RULES[rule]
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
    first, last = prem[0].conclusion, prem[-1].conclusion
    if not (one or multiple or len(first.right) == 1):
        return
    for i in positions:
        t = L[i] if left else R[i]
        if not isinstance(t, spec.connective):
            continue
        at = i - len(first.left) if spec.ctx == "before" else i  # kept's place, left rules
        if one:  # the sequences that aux and kept must lead
            aux_leads = first.left if spec.ctx == "front" else first.left[::-1]
            kept_leads = first.right
        else:
            aux_leads = first.right
            kept_leads = last.left[at:] if left else last.right
        if at < 0 or aux_leads[:1] != (spec.aux(t),) or kept_leads[:1] != (spec.kept(t),):
            continue
        if _split_sides(rule, t, prem, at) == (L, R):
            d = len(last.right) if left else 1
            yield {"i": i} if one else {"i": i, "g": at + (spec.ctx == "after"), "d": d}


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
    goals: list  # the premise goals, as `_alternatives` built them
    premises: list["_Step"]


@dataclass
class _Ctx:
    theory: Theory
    explicit: bool
    memo: dict = field(default_factory=dict)  # goal -> _Step, or None for a failed goal
    nodes: int = 0
    max_depth: int = 0
    rules: frozenset = field(init=False)
    cone: bool = field(init=False)  # goals are refuted in the negative cone, not in Z
    axioms: list = field(init=False)  # the theory's plain axioms, from `_AXIOMS_OF`
    table: tuple = field(init=False)  # the theory's stages, compiled by `_stage`
    weakens: bool = field(init=False)  # a weakening step is tried between the stages

    def __post_init__(self):
        th = self.theory
        self.rules = allowed_rules(th)
        self.cone = th is Theory.IRL
        self.axioms = _AXIOMS_OF[th]
        self.table = _STAGED[th]
        self.weakens = self.explicit or W in self.rules or th.multiple_conclusion

    def oracle_e(self, terms: tuple[Term, ...]) -> bool:
        return oracle_valid(self.theory.oracle, Sequent(terms, (E,)))


def _sort_ms(terms: tuple) -> tuple[Term, ...]:
    return tuple(sorted(terms, key=print_term)) if len(terms) > 1 else terms


def _ms_subtract(ms: tuple, sub: tuple) -> tuple:
    if not sub:
        return ms
    out = list(ms)
    for t in sub:
        out.remove(t)
    return tuple(out)


def _submultisets(ms: tuple):
    """All sub-multisets of a sorted tuple, distinct as multisets."""
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


def _first_positions(seq: tuple) -> range | list[int]:
    """Positions of the first occurrence of each distinct term."""
    if len(seq) < 2:
        return range(len(seq))
    seen: set[Term] = set()
    return [i for i, t in enumerate(seq) if not (t in seen or seen.add(t))]


# The order in which search tries the context and split rules decides which
# proof it finds.  It is two stages of rule groups, the branching one after the
# weakenings.  A stage tries its groups in turn, and a group each principal
# position in turn, its rules in order there.
_SINGLE_STAGES = (
    ((E_LEFT,), (FUSE_LEFT,), (MEET_LEFT_1, MEET_LEFT_2), (JOIN_RIGHT_1, JOIN_RIGHT_2),
     (LDIV_RIGHT, RDIV_RIGHT)),
    ((JOIN_LEFT,), (MEET_RIGHT,), (LDIV_LEFT, RDIV_LEFT), (FUSE_RIGHT,)),
)
_CA_STAGES = (
    ((E_LEFT,), (F_RIGHT,), (FUSE_LEFT, MEET_LEFT_1, MEET_LEFT_2),
     (JOIN_RIGHT_1, JOIN_RIGHT_2, ARROW_RIGHT)),
    ((JOIN_LEFT,), (MEET_RIGHT, FUSE_RIGHT), (ARROW_LEFT,)),
)


def _stage(th: Theory) -> tuple[dict, dict]:
    """The theory's stages, compiled to a map per side from principal class to
    (stage, group index, [(rule, context parts or None, split rule or None)]),
    for the rules the theory has.  Every group is one-sided and no class sits
    in two groups on one side (`tests/test_structure.py` checks both), so
    sorting a stage's principals by (group, position) gives its order."""
    by_side: tuple[dict, dict] = ({}, {})
    for s, groups in enumerate(_CA_STAGES if th.multiple_conclusion else _SINGLE_STAGES):
        for g, group in enumerate(groups):
            for rule in (r for r in group if r in _RULES[th]):
                context, split = CONTEXT_RULES.get(rule), SPLIT_RULES.get(rule)
                spec = context or split
                entry = by_side[spec.side == "right"].setdefault(spec.connective, (s, g, []))
                entry[2].append((rule, context.parts if context else None, split))
    return by_side


_STAGED = {th: _stage(th) for th in Theory}


# The alternatives of a goal are (rule, data, premise goals).  Goals are
# (left, right) pairs; multiset modes keep both sides sorted.  Steps keep the
# premise goals, so data carries only the principal, oracle certificates and
# ablg-w's deleted sub-multisets.


def _alternatives(goal, ctx: _Ctx):
    """Every backward rule step on goal, in the order search tries them: the
    axioms and generalized axioms, the first stage of the theory's table, the
    weakenings, then the branching stage.  The theory has every rule whose
    connective the goal holds, since `check_sequent_for_theory` passed the
    root goal."""
    L, R = goal
    multiset = ctx.theory.commutative
    for rule, holds in ctx.axioms:
        if holds(L, R):
            yield rule, {}, []
    if multiset:
        left_positions, right_positions = _first_positions(L), _first_positions(R)
    else:
        left_positions, right_positions = range(len(L)), (0,)
    if not ctx.explicit and GENAX_ID in ctx.rules:
        u = R[0]
        if u == E and ctx.oracle_e(L):
            yield GENAX_E, {"certs": (Sequent(L, (E,)),)}, []
        for i in left_positions:
            if L[i] != u:
                continue
            if multiset:  # commutative: the rest is one block
                if ctx.oracle_e(_without(L, i)):
                    yield GENAX_ID, {"principal": u}, []
            elif ctx.oracle_e(L[:i]) and ctx.oracle_e(L[i + 1 :]):
                yield GENAX_ID, {"certs": (Sequent(L[:i], (E,)), Sequent(L[i + 1 :], (E,)))}, []

    left_classes, right_classes = ctx.table
    staged: tuple[list, list] = ([], [])
    for i in left_positions:
        entry = left_classes.get(type(L[i]))
        if entry is not None:
            staged[entry[0]].append((entry[1], i, True, entry[2]))
    for i in right_positions:
        entry = right_classes.get(type(R[i]))
        if entry is not None:
            staged[entry[0]].append((entry[1], i, False, entry[2]))
    split_goals = _split_multiset if multiset else _split_sequence
    for stage, hits in enumerate(staged):
        if stage and ctx.weakens:
            yield from _weakenings(goal, ctx)
        if len(hits) > 1:
            hits.sort()  # by group, then position; no two hits share both
        for _, i, left, rules in hits:
            side = L if left else R
            t = side[i]
            data = {"principal": t}
            for rule, parts, split in rules:
                if split is not None:
                    for goals in split_goals(split, t, i, goal, ctx):
                        yield rule, data, goals
                    continue
                goals = []
                for sub in parts(t):
                    if not multiset:
                        new = side[:i] + sub + side[i + 1 :]
                    elif sub:
                        new = _sort_ms(side[:i] + side[i + 1 :] + sub)
                    else:
                        new = side[:i] + side[i + 1 :]
                    goals.append((new, R) if left else (L, new))
                yield rule, data, goals


def _split_sequence(spec: SplitRule, t: Term, i: int, goal, ctx: _Ctx):
    """Premise goals of a split rule on sequences, principal t at i.  Premise
    1's block of the left side grows from the left: L[k:i] just before the
    principal, L[i+1:j] just after it, or the prefix L[:k]."""
    L, R = goal
    aux, kept = (spec.aux(t),), (spec.kept(t),)
    if spec.ctx == "front":
        yield [(aux + L, kept)]
    elif spec.ctx == "back":
        yield [(L + aux, kept)]
    elif spec.ctx == "before":
        for k in range(i + 1):
            yield [(L[k:i], aux), (L[:k] + kept + L[i + 1 :], R)]
    elif spec.ctx == "after":
        for j in range(i + 1, len(L) + 1):
            yield [(L[i + 1 : j], aux), (L[:i] + kept + L[j:], R)]
    else:
        for k in range(len(L) + 1):
            yield [(L[:k], aux), (L[k:], kept)]


def _split_multiset(spec: SplitRule, t: Term, i: int, goal, ctx: _Ctx):
    """Premise goals of a split rule on sorted multisets, principal t at i:
    t is removed, aux and kept inserted.  With two premises, premise 1 takes
    each sub-multiset of the left context and, in ca, of the right one."""
    L, R = goal
    aux, kept = (spec.aux(t),), (spec.kept(t),)
    if spec.ctx in ("front", "back"):  # one premise, a right rule
        yield [(_sort_ms(L + aux), _sort_ms(_without(R, i) + kept))]
        return
    left = spec.side == "left"
    rest_l, rest_r = (_without(L, i), R) if left else (L, _without(R, i))
    rights = []  # per sub-multiset of the right context, premise 1's right side and premise 2's
    for sr in _submultisets(rest_r) if ctx.theory.multiple_conclusion else ((),):
        keep_r = _ms_subtract(rest_r, sr)
        rights.append((_sort_ms(sr + aux), keep_r if left else _sort_ms(keep_r + kept)))
    for sl in _submultisets(rest_l):
        keep_l = _ms_subtract(rest_l, sl)
        if left:
            keep_l = _sort_ms(keep_l + kept)
        for first_r, keep_r in rights:
            yield [(sl, first_r), (keep_l, keep_r)]


def _weakenings(goal, ctx: _Ctx):
    """The weakening steps of a theory whose context `weakens`: irl's w and
    explicit lg-w delete a contiguous block of the left side, ablg-w a
    sub-multiset of it or, in ca, a non-empty pair of sub-multisets, one of
    each side."""
    L, R = goal
    th = ctx.theory
    if not th.commutative:
        for i in range(len(L)):
            for j in range(i + 1, len(L) + 1):
                if W in ctx.rules:
                    yield W, {}, [(L[:i] + L[j:], R)]
                elif ctx.oracle_e(L[i:j]):
                    yield LG_W, {"certs": (Sequent(L[i:j], (E,)),)}, [(L[:i] + L[j:], R)]
        return
    rights = list(_submultisets(R)) if th.multiple_conclusion else [()]
    for dl in _submultisets(L):
        for dr in rights:
            cert = Sequent(dl, dr if th.multiple_conclusion else (E,))
            if (dl or dr) and oracle_valid(th.oracle, cert):
                data = {"del_l": dl, "del_r": dr, "certs": (cert,)}
                yield ABLG_W, data, [(_ms_subtract(L, dl), _ms_subtract(R, dr))]


# --- semantic pruning ---------------------------------------------------------------

# Every theory searched here but irl is sound for the integers with f = e = 0:
# Z is an l-group, so integrally closed, and a commutative model of ca.  irl is
# sound for the negative cone of Z, with x \ y = y / x = min(0, y - x), and for
# every finite integral residuated lattice, such as lg_oracle's 4-element chain,
# which it is pruned in when the cone refutes nothing.  So a goal that a
# valuation of lg_oracle's banks makes false is not derivable, and since search
# stops at its first success, failing it at once removes only a failing
# subtree: the proof found is the same.


def _refuted(goal, cone: bool) -> bool:
    """True if a valuation of the banks makes the goal L => R false in Z or,
    with `cone`, in its negative cone or the 4-chain.  False proves nothing."""
    return bool(lg_oracle.refuting_lanes(goal, cone) or cone and lg_oracle._chain_refutes(goal))


def clear_caches():
    lg_oracle.clear_banks()
    clear_table()  # the terms' formula tables and print_term's cache


def _prove(goal, ctx: _Ctx, depth: int):
    memo = ctx.memo
    if goal in memo:
        return memo[goal]
    if _refuted(goal, ctx.cone):
        memo[goal] = None
        return None
    ctx.nodes += 1
    ctx.max_depth = max(ctx.max_depth, depth)
    for rule, data, premise_goals in _alternatives(goal, ctx):
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
    return _without(seq, seq.index(item))


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

    if rule in PLAIN_AXIOMS:
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
        t = data["principal"]
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
            # premise 1 takes sub-multisets sl => aux, sr, premise 2 the rest
            sl, sr = step.goals[0]
            sr = _remove_one(sr, aux[0])
            left = spec.side == "left"
            rest_l = _ms_subtract(_remove_one(TL, t) if left else TL, sl)
            rest_r = _ms_subtract(TR if left else _remove_one(TR, t), sr)
            last = (kept + rest_l, rest_r) if left else (rest_l, kept + rest_r)
            premises = (emit(step.premises[0], sl, aux + sr), emit(step.premises[1], *last))
        node = assemble_split(rule, t, premises)
    node = _exchange_chain(node, TL, "left")
    return _exchange_chain(node, TR, "right")


def assemble_split(rule: str, t: Term, premises: tuple[Proof, ...]) -> Proof:
    """The node of split rule `rule` with principal t; a left rule's principal block leads."""
    return Proof(Sequent(*_split_sides(rule, t, premises, 0)), rule, premises)


def _split_sides(rule: str, t: Term, premises: tuple[Proof, ...], at: int) -> tuple:
    """The conclusion's sides, read off premises laid out as the rule reads
    them: with one, aux at its ctx end of the left side and kept first on the
    right; with two, aux first on premise 1's right, and kept first on premise
    2's right or at `at` on its left, where the principal's block goes."""
    spec = SPLIT_RULES[rule]
    last = premises[-1].conclusion
    if len(premises) == 1:
        left = last.left[1:] if spec.ctx == "front" else last.left[:-1]
        return left, (t,) + last.right[1:]
    first = premises[0].conclusion
    G, D = first.left, first.right[1:]
    if spec.side == "right":
        return G + last.left, (t,) + D + last.right[1:]
    block = G + (t,) if spec.ctx == "before" else (t,) + G
    return last.left[:at] + block + last.left[at + 1 :], last.right + D


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

