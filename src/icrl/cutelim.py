"""Cut elimination as an executable proof transformation.

Topmost cuts are reduced first: premises are made cut-free, then the cut is
eliminated by induction on (cut-formula complexity, height): parametric
steps permute the cut into a premise, principal pairs reduce to cuts on
proper subterms, and the oracle-weakening rule has its three special cases,
including the one where the cut formula sits inside a validated block and
the side-condition is widened (the oracle is re-queried for the fresh
certificate).

Single-conclusion reductions rebuild every node literally with exact zone
arithmetic.  The multiple-conclusion mode rebuilds nodes in a canonical
layout and then restores the required order with explicit exchange steps,
which its calculus provides anyway.
"""

from __future__ import annotations

from .prover import (
    ABLG_W,
    ARROW_LEFT,
    ARROW_RIGHT,
    CUT,
    E_LEFT,
    E_RIGHT,
    EL,
    ER,
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
    LDIV_LEFT,
    LDIV_RIGHT,
    LG_W,
    MEET_LEFT_1,
    MEET_LEFT_2,
    MEET_RIGHT,
    RDIV_LEFT,
    RDIV_RIGHT,
    W,
    CONTEXT_RULES,
    Certificate,
    Proof,
    _exchange_chain,
    _remove_one,
    _without,
    analyze_node,
    check_proof_detailed,
    oracle_valid,
)
from .terms import E, Sequent, Theory


class CutEliminationError(RuntimeError):
    pass


def _ins(seq: tuple, i: int, block: tuple) -> tuple:
    return seq[:i] + block + seq[i:]


def _requery(theory: Theory, s: Sequent) -> Certificate:
    if not oracle_valid(theory.oracle, s):
        raise CutEliminationError(f"widened side-condition unexpectedly refuted: {s}")
    return Certificate(theory.oracle, s)


def _map_swap(pos: int, a: int, b: int, c: int) -> int:
    """Conclusion position -> premise position across an exchange of
    blocks [a,b) and [b,c)."""
    if a <= pos < b:
        return pos + (c - b)
    if b <= pos < c:
        return pos - (b - a)
    return pos


def _shift(node: Proof, i: int, pos: int, side: str) -> int:
    """How far node's context rule, its principal at i, moves a tracked
    position on `side` from the conclusion to the premises."""
    spec = CONTEXT_RULES[node.rule]
    if spec.side != side or i >= pos:
        return 0
    principal = (node.conclusion.left if side == "left" else node.conclusion.right)[i]
    return len(spec.parts(principal)[0]) - 1


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
    analysis = analyze_node(rebuilt, theory)
    d1, d2 = premises
    if theory.multiple_conclusion:
        return _reduce_ca(d1, d2, analysis["j"], 0, theory)
    return _reduce(d1, d2, analysis["j"], theory)


# --- single-conclusion reduction -------------------------------------------------


def _wrap_insert(proof: Proof, block: tuple, at: int, theory: Theory) -> Proof:
    """Insert an oracle-validated block into the left side (weakening node)."""
    if not block:
        return proof
    rule = LG_W if theory.oracle == "lg" else ABLG_W
    cert = _requery(theory, Sequent(block, (E,)))
    concl = Sequent(_ins(proof.conclusion.left, at, block), proof.conclusion.right)
    return Proof(concl, rule, (proof,), (cert,))


def _reduce(d1: Proof, d2: Proof, pos: int, th: Theory) -> Proof:
    """Cut-free proof of  L2[:pos] + L1 + L2[pos+1:] => u  from cut-free
    d1 (=> s) and d2 (s at left position pos)."""
    s = d1.conclusion.right[0]
    G2 = d1.conclusion.left
    L2, R2 = d2.conclusion.left, d2.conclusion.right
    assert L2[pos] == s
    target = Sequent(L2[:pos] + G2 + L2[pos + 1 :], R2)
    delta = len(G2) - 1

    out = _reduce_cases(d1, d2, pos, th, s, G2, L2, R2, target, delta)
    if out.conclusion != target:
        raise CutEliminationError(
            f"reduction produced {out.conclusion} instead of {target}"
        )
    return out


def _reduce_cases(d1, d2, pos, th, s, G2, L2, R2, target, delta):
    r1 = d1.rule

    # -- d1 is the identity axiom
    if r1 == ID:
        return d2

    # -- d1 is a generalized identity axiom: re-insert its validated context
    if r1 == GENAX_ID:
        i = analyze_node(d1, th)["i"]
        out = _wrap_insert(d2, G2[i + 1 :], pos + 1, th)
        return _wrap_insert(out, G2[:i], pos, th)

    # -- rules of d1 in which the cut formula is parametric: permute upward
    if r1 in CONTEXT_RULES and CONTEXT_RULES[r1].side == "left":
        return Proof(target, r1, tuple(_reduce(q, d2, pos, th) for q in d1.premises))
    if r1 == LDIV_LEFT:
        p1, p2 = d1.premises
        r = _reduce(p2, d2, pos, th)
        return Proof(target, r1, (p1, r))
    if r1 == RDIV_LEFT:
        p1, p2 = d1.premises
        r = _reduce(p2, d2, pos, th)
        return Proof(target, r1, (p1, r))
    if r1 in (W, LG_W, ABLG_W):
        a = analyze_node(d1, th)
        i, j = a["i"], a["j"]
        r = _reduce(d1.premises[0], d2, pos, th)
        concl = Sequent(_ins(r.conclusion.left, pos + i, G2[i:j]), target.right)
        return Proof(concl, r1, (r,), d1.certificates)
    if r1 == EL:
        r = _reduce(d1.premises[0], d2, pos, th)
        return Proof(target, EL, (r,))

    # -- d1 now ends with a right rule (or unit/generalized-unit axiom);
    #    analyze d2 around the tracked occurrence
    r2rule = d2.rule

    if r2rule == ID:
        return d1

    if r2rule == GENAX_ID:
        i2 = analyze_node(d2, th)["i"]
        if i2 == pos:
            out = _wrap_insert(d1, L2[:pos], 0, th)
            return _wrap_insert(out, L2[pos + 1 :], pos + len(G2), th)
        i2p = i2 + (delta if i2 > pos else 0)
        certs = (
            _requery(th, Sequent(target.left[:i2p], (E,))),
            _requery(th, Sequent(target.left[i2p + 1 :], (E,))),
        )
        return Proof(target, GENAX_ID, (), certs)

    if r2rule == GENAX_E:
        return Proof(target, GENAX_E, (), (_requery(th, Sequent(target.left, (E,))),))

    a2 = analyze_node(d2, th)

    spec = CONTEXT_RULES.get(r2rule)
    if spec is not None:
        i = a2["i"]
        p = d2.premises
        if spec.side == "left" and i == pos:  # principal: d1 introduced s on the right
            if r2rule == E_LEFT:
                if r1 == E_RIGHT:
                    return p[0]
                if r1 == GENAX_E:
                    return _wrap_insert(p[0], G2, pos, th)
                raise CutEliminationError(f"unit cut against {r1}")
            if r2rule == FUSE_LEFT:
                q1, q2 = d1.premises
                return _reduce(q1, _reduce(q2, p[0], pos + 1, th), pos, th)
            if r2rule == JOIN_LEFT:
                return _reduce(d1.premises[0], p[0 if r1 == JOIN_RIGHT_1 else 1], pos, th)
            return _reduce(d1.premises[0 if r2rule == MEET_LEFT_1 else 1], p[0], pos, th)
        posp = pos + _shift(d2, i, pos, "left")
        return Proof(target, r2rule, tuple(_reduce(d1, q, posp, th) for q in p))

    if r2rule == LDIV_LEFT:
        i, k = a2["i"], a2["k"]
        p1, p2 = d2.premises
        if i == pos:  # principal: s = a \ b
            q = d1.premises[0]
            rx = _reduce(p1, q, 0, th)
            return _reduce(rx, p2, k, th)
        if k <= pos < i:
            r = _reduce(d1, p1, pos - k, th)
            return Proof(target, LDIV_LEFT, (r, p2))
        posp = pos if pos < k else pos - i + k
        r = _reduce(d1, p2, posp, th)
        return Proof(target, LDIV_LEFT, (p1, r))

    if r2rule == RDIV_LEFT:
        i, j = a2["i"], a2["j"]
        p1, p2 = d2.premises
        if i == pos:  # principal: s = b / a
            q = d1.premises[0]
            rx = _reduce(p1, q, len(G2), th)
            return _reduce(rx, p2, pos, th)
        if i < pos < j:
            r = _reduce(d1, p1, pos - i - 1, th)
            return Proof(target, RDIV_LEFT, (r, p2))
        posp = pos if pos < i else pos - (j - i - 1)
        r = _reduce(d1, p2, posp, th)
        return Proof(target, RDIV_LEFT, (p1, r))

    if r2rule == LDIV_RIGHT:
        r = _reduce(d1, d2.premises[0], pos + 1, th)
        return Proof(target, LDIV_RIGHT, (r,))

    if r2rule == RDIV_RIGHT:
        r = _reduce(d1, d2.premises[0], pos, th)
        return Proof(target, RDIV_RIGHT, (r,))

    if r2rule == FUSE_RIGHT:
        k = a2["k"]
        p1, p2 = d2.premises
        if pos < k:
            r = _reduce(d1, p1, pos, th)
            return Proof(target, FUSE_RIGHT, (r, p2))
        r = _reduce(d1, p2, pos - k, th)
        return Proof(target, FUSE_RIGHT, (p1, r))

    if r2rule in (W, LG_W, ABLG_W):
        i, j = a2["i"], a2["j"]
        p = d2.premises[0]
        if i <= pos < j:
            # the cut formula was deleted: widen the block, keep the premise
            block = L2[i:pos] + G2 + L2[pos + 1 : j]
            certs = () if r2rule == W else (_requery(th, Sequent(block, (E,))),)
            return Proof(target, r2rule, (p,), certs)
        posp = pos - (j - i) if pos >= j else pos
        r = _reduce(d1, p, posp, th)
        ip = i + (delta if i > pos else 0)
        concl = Sequent(_ins(r.conclusion.left, ip, L2[i:j]), target.right)
        return Proof(concl, r2rule, (r,), d2.certificates)

    if r2rule == EL:
        a, b, c = a2["a"], a2["b"], a2["c"]
        posp = _map_swap(pos, a, b, c)
        r = _reduce(d1, d2.premises[0], posp, th)
        return Proof(target, EL, (r,))

    raise CutEliminationError(f"unhandled cut: d1 rule {r1}, d2 rule {r2rule}")


# --- multiple-conclusion reduction ------------------------------------------------


def _patch(proof: Proof, target: Sequent) -> Proof:
    out = _exchange_chain(proof, target.left, "left")
    out = _exchange_chain(out, target.right, "right")
    if out.conclusion != target:
        raise CutEliminationError(f"patched to {out.conclusion}, wanted {target}")
    return out


def _front_right(proof: Proof, t) -> Proof:
    R = proof.conclusion.right
    i = R.index(t)
    return _exchange_chain(proof, (t,) + _without(R, i), "right")


def _front_left(proof: Proof, t) -> Proof:
    L = proof.conclusion.left
    i = L.index(t)
    return _exchange_chain(proof, (t,) + _without(L, i), "left")


def _back_left(proof: Proof, t) -> Proof:
    L = proof.conclusion.left
    i = L.index(t)
    return _exchange_chain(proof, _without(L, i) + (t,), "left")


def _reduce_ca(d1: Proof, d2: Proof, lpos: int, rpos: int, th: Theory) -> Proof:
    """Cut-free proof of  L2[:lpos]+L1+L2[lpos+1:] => (R1 - rpos) + R2."""
    L1, R1 = d1.conclusion.left, d1.conclusion.right
    L2, R2 = d2.conclusion.left, d2.conclusion.right
    s = R1[rpos]
    assert L2[lpos] == s
    target = Sequent(L2[:lpos] + L1 + L2[lpos + 1 :], _without(R1, rpos) + R2)
    out = _reduce_ca_cases(d1, d2, lpos, rpos, th, target)
    return _patch(out, target)


def _reduce_ca_cases(d1, d2, lpos, rpos, th, target):
    L2, R2 = d2.conclusion.left, d2.conclusion.right
    r1 = d1.rule

    if r1 == ID:
        return d2

    # ---- is the tracked occurrence parametric in d1's last rule?
    if r1 == EL:
        return _reduce_ca(d1.premises[0], d2, lpos, rpos, th)
    if r1 == ER:
        a = analyze_node(d1, th)
        return _reduce_ca(d1.premises[0], d2, lpos, _map_swap(rpos, a["a"], a["b"], a["c"]), th)
    spec = CONTEXT_RULES.get(r1)
    if spec is not None:
        i = analyze_node(d1, th)["i"]
        if spec.side == "right" and i == rpos:
            return _reduce_ca_d2(d1, d2, lpos, rpos, th, target)
        rposp = rpos + _shift(d1, i, rpos, "right")
        rs = [_reduce_ca(q, d2, lpos, rposp, th) for q in d1.premises]
        return _rebuild(r1, d1, i, rs)
    if r1 == ARROW_RIGHT:
        t = d1.conclusion.right[0]
        if rpos != 0:
            r = _reduce_ca(d1.premises[0], d2, lpos, rpos, th)
            return _rb_arrow_right(t, r)
        return _reduce_ca_d2(d1, d2, lpos, rpos, th, target)
    if r1 == FUSE_RIGHT:
        t = d1.conclusion.right[0]
        q1, q2 = d1.premises
        if rpos != 0:
            n_d1 = len(q1.conclusion.right) - 1  # size of D1
            if rpos - 1 < n_d1:
                r = _reduce_ca(q1, d2, lpos, rpos, th)
                return _rb_fuse_right(t, r, q2)
            r = _reduce_ca(q2, d2, lpos, rpos - n_d1, th)
            return _rb_fuse_right(t, q1, r)
        return _reduce_ca_d2(d1, d2, lpos, rpos, th, target)
    if r1 == ARROW_LEFT:
        p1, p2 = d1.premises
        t = d1.conclusion.left[analyze_node(d1, th)["i"]]
        n_d1 = len(p2.conclusion.right)  # size of D1
        if rpos < n_d1:
            r = _reduce_ca(p2, d2, lpos, rpos, th)
            return _rb_arrow_left(t, p1, r)
        r = _reduce_ca(p1, d2, lpos, rpos - n_d1 + 1, th)
        return _rb_arrow_left(t, r, p2)
    if r1 == ABLG_W:
        p = d1.premises[0]
        nl, nr = len(p.conclusion.left), len(p.conclusion.right)
        zoneL = d1.conclusion.left[nl:]
        zoneR = d1.conclusion.right[nr:]
        if rpos < nr:
            r = _reduce_ca(p, d2, lpos, rpos, th)
            return _rb_ablg(r, zoneL, zoneR, th)
        # widening: s sits inside the validated right zone
        zR = _without(zoneR, rpos - nr)
        return _rb_ablg(p, zoneL + _without(L2, lpos), zR + R2, th)
    if r1 == E_RIGHT:
        # s = e principal; d2 analysis decides
        return _reduce_ca_d2(d1, d2, lpos, rpos, th, target)

    raise CutEliminationError(f"unhandled d1 rule in ca reduction: {r1}")


def _reduce_ca_d2(d1, d2, lpos, rpos, th, target):
    """d1 is principal at the tracked occurrence; permute through d2."""
    L1, R1 = d1.conclusion.left, d1.conclusion.right
    r2 = d2.rule

    if r2 == ID:
        return d1
    if r2 == EL:
        a = analyze_node(d2, th)
        return _reduce_ca(d1, d2.premises[0], _map_swap(lpos, a["a"], a["b"], a["c"]), rpos, th)
    if r2 == ER:
        return _reduce_ca(d1, d2.premises[0], lpos, rpos, th)
    if r2 == F_LEFT:
        # principal f cut: d1 introduced this f on the right
        if d1.rule != F_RIGHT:
            raise CutEliminationError(f"f cut against {d1.rule}")
        return d1.premises[0]
    spec = CONTEXT_RULES.get(r2)
    if spec is not None:
        i = analyze_node(d2, th)["i"]
        p = d2.premises
        if spec.side == "left" and i == lpos:  # principal: d1 introduced s at rpos
            if r2 == E_LEFT and d1.rule == E_RIGHT:
                return p[0]
            if r2 == FUSE_LEFT and d1.rule == FUSE_RIGHT:
                q1, q2 = d1.premises
                return _reduce_ca(q1, _reduce_ca(q2, p[0], lpos + 1, 0, th), lpos, 0, th)
            if r2 in (MEET_LEFT_1, MEET_LEFT_2) and d1.rule == MEET_RIGHT:
                q = d1.premises[0 if r2 == MEET_LEFT_1 else 1]
                return _reduce_ca(q, p[0], lpos, rpos, th)
            if r2 == JOIN_LEFT and d1.rule in (JOIN_RIGHT_1, JOIN_RIGHT_2):
                q = p[0 if d1.rule == JOIN_RIGHT_1 else 1]
                return _reduce_ca(d1.premises[0], q, lpos, rpos, th)
            raise CutEliminationError(f"principal {r2} cut against {d1.rule}")
        lposp = lpos + _shift(d2, i, lpos, "left")
        rs = [_reduce_ca(d1, q, lposp, rpos, th) for q in p]
        return _rebuild(r2, d2, i, rs)
    if r2 == ARROW_RIGHT:
        t = d2.conclusion.right[0]
        r = _reduce_ca(d1, d2.premises[0], lpos, rpos, th)
        return _rb_arrow_right(t, r)
    if r2 == FUSE_RIGHT:
        t = d2.conclusion.right[0]
        p1, p2 = d2.premises
        n_g1 = len(p1.conclusion.left)
        if lpos < n_g1:
            r = _reduce_ca(d1, p1, lpos, rpos, th)
            return _rb_fuse_right(t, r, p2)
        r = _reduce_ca(d1, p2, lpos - n_g1, rpos, th)
        return _rb_fuse_right(t, p1, r)
    if r2 == ARROW_LEFT:
        a = analyze_node(d2, th)
        i, j = a["i"], a["j"]
        t = d2.conclusion.left[i]
        p1, p2 = d2.premises
        if i == lpos:  # principal arrow cut
            if d1.rule != ARROW_RIGHT:
                raise CutEliminationError(f"arrow cut against {d1.rule}")
            q = d1.premises[0]
            r1x = _reduce_ca(p1, q, len(d1.conclusion.left), 0, th)
            b_index = len(p1.conclusion.right) - 1  # t.r lands after D2
            return _reduce_ca(r1x, p2, lpos, b_index, th)
        if i < lpos < j:
            r = _reduce_ca(d1, p1, lpos - i - 1, rpos, th)
            return _rb_arrow_left(t, r, p2)
        lposp = lpos if lpos < i else i + 1 + (lpos - j)
        r = _reduce_ca(d1, p2, lposp, rpos, th)
        return _rb_arrow_left(t, p1, r)
    if r2 == ABLG_W:
        p = d2.premises[0]
        nl, nr = len(p.conclusion.left), len(p.conclusion.right)
        zoneL = d2.conclusion.left[nl:]
        zoneR = d2.conclusion.right[nr:]
        if lpos < nl:
            r = _reduce_ca(d1, p, lpos, rpos, th)
            return _rb_ablg(r, zoneL, zoneR, th)
        # widening: s sits inside the validated left zone
        zL = _without(zoneL, lpos - nl)
        return _rb_ablg(p, zL + L1, _without(R1, rpos) + zoneR, th)

    raise CutEliminationError(f"unhandled d2 rule in ca reduction: {r2}")


# canonical multiple-conclusion rebuilds (order fixed afterwards by _patch)


def _rebuild(rule: str, node: Proof, i: int, premises) -> Proof:
    """A context rule over rebuilt premises, its principal (node's formula at
    i) first on its side: each premise is exchanged to read the principal's
    subterms followed by the context the first premise leaves, and the other
    side is read from the first premise."""
    spec = CONTEXT_RULES[rule]
    left = spec.side == "left"
    t = (node.conclusion.left if left else node.conclusion.right)[i]
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


def _rb_arrow_right(t, p: Proof) -> Proof:
    p = _back_left(p, t.l)
    p = _front_right(p, t.r)
    return Proof(
        Sequent(p.conclusion.left[:-1], (t,) + p.conclusion.right[1:]), ARROW_RIGHT, (p,)
    )


def _rb_arrow_left(t, p1: Proof, p2: Proof) -> Proof:
    p1 = _front_right(p1, t.l)
    p2 = _front_left(p2, t.r)
    concl = Sequent(
        (t,) + p1.conclusion.left + p2.conclusion.left[1:],
        p2.conclusion.right + p1.conclusion.right[1:],
    )
    return Proof(concl, ARROW_LEFT, (p1, p2))


def _rb_fuse_right(t, p1: Proof, p2: Proof) -> Proof:
    p1 = _front_right(p1, t.l)
    p2 = _front_right(p2, t.r)
    concl = Sequent(
        p1.conclusion.left + p2.conclusion.left,
        (t,) + p1.conclusion.right[1:] + p2.conclusion.right[1:],
    )
    return Proof(concl, FUSE_RIGHT, (p1, p2))


def _rb_ablg(p: Proof, zoneL: tuple, zoneR: tuple, th: Theory) -> Proof:
    cert = _requery(th, Sequent(zoneL, zoneR))
    concl = Sequent(p.conclusion.left + zoneL, p.conclusion.right + zoneR)
    return Proof(concl, ABLG_W, (p,), (cert,))
