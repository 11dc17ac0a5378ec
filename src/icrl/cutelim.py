"""Cut elimination as an executable proof transformation.

Topmost cuts are reduced first: premises are made cut-free, then the cut is
eliminated by induction on (cut-formula complexity, height).  One reduction
serves both sequent shapes: it cuts d1 (L1 => R1) against d2 (L2 => R2) on
the formula at right position rpos of d1 and left position lpos of d2; a
single-conclusion cut is the case R1 = (s,), rpos = 0.  When the cut formula
is not principal in a premise's last rule, one parametric step per side
permutes the cut upward: `_locate` says, for every rule family, which
premises keep the formula and where.  Principal pairs reduce to cuts on
proper subterms, all in `_principal`.  When a weakening deleted the cut
formula, the validated block is widened instead and the oracle is
re-queried for the fresh certificate.

The shapes differ in two places only.  `_rebuild` builds a permuted node
literally with the target conclusion in single-conclusion theories; the
multiple-conclusion mode builds it in a canonical layout (split rules
through `prover.assemble_split`), and exchange steps, which its calculus
provides anyway, then restore the required order.  `_widen` widens a left
block in single-conclusion theories and the back zones in ca.
"""

from __future__ import annotations

from .prover import (
    ABLG_W,
    AXIOMS,
    CONTEXT_RULES,
    CUT,
    E_LEFT,
    E_RIGHT,
    EL,
    EXCHANGE,
    F_LEFT,
    F_RIGHT,
    FUSE_LEFT,
    FUSE_RIGHT,
    GENAX_E,
    GENAX_ID,
    ID,
    JOIN_LEFT,
    JOIN_RIGHT_1,
    JOIN_RIGHT_2,
    LG_W,
    MEET_LEFT_1,
    MEET_LEFT_2,
    MEET_RIGHT,
    SPLIT_RULES,
    W,
    WEAKENING,
    Certificate,
    Proof,
    _exchange_chain,
    _remove_one,
    _without,
    analyze_node,
    assemble_split,
    check_proof_detailed,
    oracle_valid,
)
from .terms import E, Sequent, Theory


class CutEliminationError(RuntimeError):
    pass


def _requery(theory: Theory, s: Sequent) -> Certificate:
    if not oracle_valid(theory.oracle, s):
        raise CutEliminationError(f"widened side-condition unexpectedly refuted: {s}")
    return Certificate(theory.oracle, s)


def _is_principal(node: Proof, analysis: dict, side: str, pos: int) -> bool:
    spec = CONTEXT_RULES.get(node.rule) or SPLIT_RULES.get(node.rule)
    return spec is not None and spec.side == side and analysis["i"] == pos


def _locate(node: Proof, analysis: dict, side: str, pos: int) -> list[tuple[int, int]]:
    """Where the formula at `pos` on `side` of node's conclusion, which is not
    its principal formula, sits in node's premises: a (premise, position) pair
    for each premise that keeps it, none when a weakening deletes it."""
    rule, left = node.rule, side == "left"
    if rule in EXCHANGE:
        if (rule == EL) == left:  # the blocks [a, b) and [b, c) swap places
            a, b, c = analysis["a"], analysis["b"], analysis["c"]
            if a <= pos < b:
                pos += c - b
            elif b <= pos < c:
                pos -= b - a
        return [(0, pos)]
    if rule in WEAKENING:
        kept = node.premises[0].conclusion
        if "i" not in analysis:  # ca deletes the back of both sides
            return [(0, pos)] if pos < len(kept.left if left else kept.right) else []
        i, j = analysis["i"], analysis["j"]
        if not left or pos < i:
            return [(0, pos)]
        return [(0, pos - (j - i))] if pos >= j else []
    spec = CONTEXT_RULES.get(rule)
    if spec is not None:
        i = analysis["i"]
        if spec.side != side or pos < i:
            return [(k, pos) for k in range(len(node.premises))]
        principal = (node.conclusion.left if left else node.conclusion.right)[i]
        return [(k, pos + len(sub) - 1) for k, sub in enumerate(spec.parts(principal))]
    spec = SPLIT_RULES.get(rule)
    if spec is None:  # axioms
        return []
    if len(node.premises) == 1:  # aux joins the left side at its ctx end
        return [(0, pos + (left and spec.ctx == "front"))]
    first = node.premises[0].conclusion
    if left:
        start, n = analysis["g"], len(first.left)
    else:
        start, n = analysis["d"], len(first.right) - 1
    if start <= pos < start + n:  # premise 1's context; on the right it follows aux
        return [(0, pos - start + (not left))]
    return [(1, pos - n if pos >= start else pos)]


def _reduce_premises(node: Proof, analysis: dict, side: str, pos: int, reduce) -> tuple:
    """node's premises, each one that keeps the tracked formula replaced by
    reduce(premise, the formula's position there)."""
    premises = list(node.premises)
    for k, at in _locate(node, analysis, side, pos):
        premises[k] = reduce(premises[k], at)
    return tuple(premises)


def eliminate_cuts(p: Proof, theory: Theory) -> Proof:
    """Cut-free proof with the same conclusion; input must check with cuts."""
    ok, path, msg = check_proof_detailed(p, theory, allow_cut=True)
    if not ok:
        raise ValueError(f"ill-formed input proof at node {list(path)}: {msg}")
    return _elim(p, theory)


def _elim(node: Proof, theory: Theory) -> Proof:
    premises = tuple(_elim(q, theory) for q in node.premises)
    if node.rule != CUT:
        return Proof(node.conclusion, node.rule, premises, node.certificates)
    rebuilt = Proof(node.conclusion, CUT, premises, node.certificates)
    d1, d2 = premises
    return _reduce(d1, d2, analyze_node(rebuilt, theory)["j"], 0, theory)


def _reduce(d1: Proof, d2: Proof, lpos: int, rpos: int, th: Theory) -> Proof:
    """Cut-free proof of  L2[:lpos] + L1 + L2[lpos+1:] => (R1 - rpos) + R2  from
    cut-free d1 (L1 => R1) and d2 (L2 => R2) with R1[rpos] at L2[lpos]."""
    L1, R1 = d1.conclusion.left, d1.conclusion.right
    L2, R2 = d2.conclusion.left, d2.conclusion.right
    assert L2[lpos] == R1[rpos]
    target = Sequent(L2[:lpos] + L1 + L2[lpos + 1 :], _without(R1, rpos) + R2)
    out = _cases(d1, d2, lpos, rpos, th, target)
    if out.conclusion != target:  # a canonical ca layout: restore the order
        out = _exchange_chain(out, target.left, "left")
        out = _exchange_chain(out, target.right, "right")
        if out.conclusion != target:
            raise CutEliminationError(f"reduction produced {out.conclusion} instead of {target}")
    return out


def _cases(d1, d2, lpos, rpos, th, target):
    """_reduce's cases: d1's last rule first, then d2's."""
    L1, R1 = d1.conclusion.left, d1.conclusion.right
    L2, R2 = d2.conclusion.left, d2.conclusion.right
    r1, r2 = d1.rule, d2.rule

    # -- d1 is the identity axiom
    if r1 == ID:
        return d2

    # -- d1 is a generalized identity axiom: re-insert its validated context
    if r1 == GENAX_ID:
        i = analyze_node(d1, th)["i"]
        out = _wrap_insert(d2, L1[i + 1 :], lpos + 1, th)
        return _wrap_insert(out, L1[:i], lpos, th)

    # -- the cut formula is parametric in d1's last rule: permute upward
    if r1 not in AXIOMS:
        a1 = analyze_node(d1, th)
        if r1 in WEAKENING and not _locate(d1, a1, "right", rpos):
            return _widen(d1, a1, "right", rpos, Sequent(_without(L2, lpos), R2), target, th)
        if not _is_principal(d1, a1, "right", rpos):
            reduce = lambda q, at: _reduce(q, d2, lpos, at, th)
            return _rebuild(d1, a1, _reduce_premises(d1, a1, "right", rpos, reduce), target, th)

    # -- d1 introduced the cut formula (a right rule or a unit axiom);
    #    analyze d2 around the tracked occurrence
    if r2 == ID:
        return d1

    if r2 == GENAX_ID:
        i2 = analyze_node(d2, th)["i"]
        if i2 == lpos:
            out = _wrap_insert(d1, L2[:lpos], 0, th)
            return _wrap_insert(out, L2[lpos + 1 :], lpos + len(L1), th)
        i2p = i2 + (len(L1) - 1 if i2 > lpos else 0)
        certs = (
            _requery(th, Sequent(target.left[:i2p], (E,))),
            _requery(th, Sequent(target.left[i2p + 1 :], (E,))),
        )
        return Proof(target, GENAX_ID, (), certs)

    if r2 == GENAX_E:
        return Proof(target, GENAX_E, (), (_requery(th, Sequent(target.left, (E,))),))

    if r2 == F_LEFT:  # d1 introduced this f on the right
        if r1 != F_RIGHT:
            raise CutEliminationError(f"f cut against {r1}")
        return d1.premises[0]

    a2 = analyze_node(d2, th)
    if _is_principal(d2, a2, "left", lpos):
        return _principal(d1, d2, a2, lpos, rpos, th)
    if r2 in WEAKENING and not _locate(d2, a2, "left", lpos):
        return _widen(d2, a2, "left", lpos, Sequent(L1, _without(R1, rpos)), target, th)
    reduce = lambda q, at: _reduce(d1, q, at, rpos, th)
    return _rebuild(d2, a2, _reduce_premises(d2, a2, "left", lpos, reduce), target, th)


def _principal(d1, d2, a2, lpos, rpos, th):
    """d1's right rule and d2's left rule both introduce the cut formula."""
    r1, r2 = d1.rule, d2.rule
    p = d2.premises
    if r2 == E_LEFT and r1 == E_RIGHT:
        return p[0]
    if r2 == E_LEFT and r1 == GENAX_E:
        return _wrap_insert(p[0], d1.conclusion.left, lpos, th)
    if r2 == FUSE_LEFT and r1 == FUSE_RIGHT:
        q1, q2 = d1.premises
        return _reduce(q1, _reduce(q2, p[0], lpos + 1, 0, th), lpos, 0, th)
    if r2 in (MEET_LEFT_1, MEET_LEFT_2) and r1 == MEET_RIGHT:
        q = d1.premises[0 if r2 == MEET_LEFT_1 else 1]
        return _reduce(q, p[0], lpos, rpos, th)
    if r2 == JOIN_LEFT and r1 in (JOIN_RIGHT_1, JOIN_RIGHT_2):
        q = p[0 if r1 == JOIN_RIGHT_1 else 1]
        return _reduce(d1.premises[0], q, lpos, rpos, th)
    if r2 in SPLIT_RULES and r1 in SPLIT_RULES:  # an implication, aux a and kept b
        # cut premise 1 (G => a, D) into d1's premise on a, then the result,
        # where b follows D, into premise 2 on b
        p1, p2 = p
        aux = 0 if SPLIT_RULES[r1].ctx == "front" else len(d1.conclusion.left)
        rx = _reduce(p1, d1.premises[0], aux, 0, th)
        kept = a2["g"] if SPLIT_RULES[r2].ctx == "before" else lpos
        return _reduce(rx, p2, kept, len(p1.conclusion.right) - 1, th)
    raise CutEliminationError(f"principal {r2} cut against {r1}")


def _widen(node, analysis, side, pos, other, target, th):
    """node, a weakening, deleted the cut formula (at pos on side): its premise,
    weakened to take the other cut premise's formulas `other` as well."""
    if not th.multiple_conclusion:  # widen the left block that node deletes
        i, j = analysis["i"], analysis["j"]
        block = target.left[i : j - 1 + len(other.left)]
        certs = () if node.rule == W else (_requery(th, Sequent(block, (E,))),)
        return Proof(target, node.rule, node.premises, certs)
    # ca deletes back zones: node's own, less the cut formula, then the other
    # premise's formulas; on the right d1's come first, as in the target
    p = node.premises[0]
    n, m = len(p.conclusion.left), len(p.conclusion.right)
    L, R = node.conclusion.left, node.conclusion.right
    if side == "left":  # node is d2
        return _rb_ablg(p, _without(L, pos)[n:] + other.left, other.right + R[m:], th)
    return _rb_ablg(p, L[n:] + other.left, _without(R, pos)[m:] + other.right, th)


def _wrap_insert(proof: Proof, block: tuple, at: int, theory: Theory) -> Proof:
    """Insert an oracle-validated block into the left side (weakening node)."""
    if not block:
        return proof
    rule = LG_W if theory.oracle == "lg" else ABLG_W
    cert = _requery(theory, Sequent(block, (E,)))
    L = proof.conclusion.left
    concl = Sequent(L[:at] + block + L[at:], proof.conclusion.right)
    return Proof(concl, rule, (proof,), (cert,))


def _rb_ablg(p: Proof, zoneL: tuple, zoneR: tuple, th: Theory) -> Proof:
    cert = _requery(th, Sequent(zoneL, zoneR))
    concl = Sequent(p.conclusion.left + zoneL, p.conclusion.right + zoneR)
    return Proof(concl, ABLG_W, (p,), (cert,))


def _move(proof: Proof, side: str, t, back: bool = False) -> Proof:
    """Exchange the first occurrence of t on `side` to the front (or back)."""
    rest = _remove_one(proof.conclusion.left if side == "left" else proof.conclusion.right, t)
    return _exchange_chain(proof, rest + (t,) if back else (t,) + rest, side)


def _rebuild(node: Proof, analysis: dict, premises: tuple, target: Sequent, th: Theory) -> Proof:
    """node's rule over reduced premises: literally with the target conclusion
    in single-conclusion theories, in a canonical layout in ca."""
    rule = node.rule
    if not th.multiple_conclusion:
        return Proof(target, rule, premises, node.certificates)
    if rule in EXCHANGE:  # _reduce restores any order
        return premises[0]
    if rule in WEAKENING:
        p = node.premises[0].conclusion
        zoneL, zoneR = node.conclusion.left[len(p.left) :], node.conclusion.right[len(p.right) :]
        return _rb_ablg(premises[0], zoneL, zoneR, th)
    spec = CONTEXT_RULES.get(rule) or SPLIT_RULES.get(rule)
    if spec is None:
        raise CutEliminationError(f"unhandled rule in ca reduction: {rule}")
    left = spec.side == "left"
    t = (node.conclusion.left if left else node.conclusion.right)[analysis["i"]]
    if rule in SPLIT_RULES:
        aux, kept = spec.aux(t), spec.kept(t)
        if len(premises) == 1:
            p = _move(premises[0], "left", aux, back=spec.ctx == "back")
            premises = (_move(p, "right", kept),)
        else:
            premises = (_move(premises[0], "right", aux), _move(premises[1], spec.side, kept))
        return assemble_split(rule, t, premises)
    # a context rule, its principal first on its side: each premise is
    # exchanged to read the principal's subterms followed by the context the
    # first premise leaves, and the other side is read from the first premise
    parts = spec.parts(t)
    first = premises[0].conclusion
    rest, other = (first.left, first.right) if left else (first.right, first.left)
    for sub in parts[0]:
        rest = _remove_one(rest, sub)
    out = []
    for q, sub in zip(premises, parts):
        q = _exchange_chain(q, sub + rest, spec.side)
        out.append(_exchange_chain(q, other, "right" if left else "left"))
    concl = Sequent((t,) + rest, other) if left else Sequent(other, (t,) + rest)
    return Proof(concl, rule, tuple(out))
