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
    if r1 in (E_LEFT, FUSE_LEFT, MEET_LEFT_1, MEET_LEFT_2):
        r = _reduce(d1.premises[0], d2, pos, th)
        return Proof(target, r1, (r,))
    if r1 == JOIN_LEFT:
        ra = _reduce(d1.premises[0], d2, pos, th)
        rb = _reduce(d1.premises[1], d2, pos, th)
        return Proof(target, r1, (ra, rb))
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

    if r2rule == E_LEFT:
        i = a2["i"]
        p = d2.premises[0]
        if i == pos:  # principal: the cut formula is this unit occurrence
            if r1 == E_RIGHT:
                return p
            if r1 == GENAX_E:
                return _wrap_insert(p, G2, pos, th)
            raise CutEliminationError(f"unit cut against {r1}")
        posp = pos - (1 if i < pos else 0)
        r = _reduce(d1, p, posp, th)
        return Proof(target, E_LEFT, (r,))

    if r2rule == FUSE_LEFT:
        i = a2["i"]
        p = d2.premises[0]
        if i == pos:  # principal fuse cut
            q1, q2 = d1.premises
            r1x = _reduce(q2, p, pos + 1, th)
            return _reduce(q1, r1x, pos, th)
        posp = pos + (1 if i < pos else 0)
        r = _reduce(d1, p, posp, th)
        return Proof(target, FUSE_LEFT, (r,))

    if r2rule in (MEET_LEFT_1, MEET_LEFT_2):
        i = a2["i"]
        p = d2.premises[0]
        if i == pos:  # principal meet cut
            q = d1.premises[0 if r2rule == MEET_LEFT_1 else 1]
            return _reduce(q, p, pos, th)
        r = _reduce(d1, p, pos, th)
        return Proof(target, r2rule, (r,))

    if r2rule == JOIN_LEFT:
        i = a2["i"]
        pa, pb = d2.premises
        if i == pos:  # principal join cut
            p = pa if r1 == JOIN_RIGHT_1 else pb
            return _reduce(d1.premises[0], p, pos, th)
        ra = _reduce(d1, pa, pos, th)
        rb = _reduce(d1, pb, pos, th)
        return Proof(target, JOIN_LEFT, (ra, rb))

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

    if r2rule in (JOIN_RIGHT_1, JOIN_RIGHT_2):
        r = _reduce(d1, d2.premises[0], pos, th)
        return Proof(target, r2rule, (r,))

    if r2rule == MEET_RIGHT:
        ra = _reduce(d1, d2.premises[0], pos, th)
        rb = _reduce(d1, d2.premises[1], pos, th)
        return Proof(target, MEET_RIGHT, (ra, rb))

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
    if r1 == E_LEFT:
        r = _reduce_ca(d1.premises[0], d2, lpos, rpos, th)
        return Proof(Sequent((E,) + r.conclusion.left, r.conclusion.right), E_LEFT, (r,))
    if r1 == F_RIGHT:
        i = analyze_node(d1, th)["i"]
        if i != rpos:
            rposp = rpos - (1 if i < rpos else 0)
            r = _reduce_ca(d1.premises[0], d2, lpos, rposp, th)
            f = d1.conclusion.right[i]
            return Proof(Sequent(r.conclusion.left, (f,) + r.conclusion.right), F_RIGHT, (r,))
        return _reduce_ca_d2(d1, d2, lpos, rpos, th, target)
    if r1 == FUSE_LEFT:
        t = _principal_left(d1)
        r = _reduce_ca(d1.premises[0], d2, lpos, rpos, th)
        return _rb_one_left(FUSE_LEFT, t, (t.l, t.r), r)
    if r1 in (MEET_LEFT_1, MEET_LEFT_2):
        t = _principal_left(d1)
        sub = t.l if r1 == MEET_LEFT_1 else t.r
        r = _reduce_ca(d1.premises[0], d2, lpos, rpos, th)
        return _rb_one_left(r1, t, (sub,), r)
    if r1 == JOIN_LEFT:
        t = _principal_left(d1)
        ra = _reduce_ca(d1.premises[0], d2, lpos, rpos, th)
        rb = _reduce_ca(d1.premises[1], d2, lpos, rpos, th)
        return _rb_join_left(t, ra, rb)
    if r1 in (JOIN_RIGHT_1, JOIN_RIGHT_2):
        a = analyze_node(d1, th)
        t = d1.conclusion.right[a["i"]]
        if a["i"] != rpos:
            sub = t.l if r1 == JOIN_RIGHT_1 else t.r
            r = _reduce_ca(d1.premises[0], d2, lpos, rpos, th)
            return _rb_one_right(r1, t, sub, r)
        return _reduce_ca_d2(d1, d2, lpos, rpos, th, target)
    if r1 == MEET_RIGHT:
        a = analyze_node(d1, th)
        t = d1.conclusion.right[a["i"]]
        if a["i"] != rpos:
            ra = _reduce_ca(d1.premises[0], d2, lpos, rpos, th)
            rb = _reduce_ca(d1.premises[1], d2, lpos, rpos, th)
            return _rb_meet_right(t, ra, rb)
        return _reduce_ca_d2(d1, d2, lpos, rpos, th, target)
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
        t = _principal_left(d1)
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
    s = d2.conclusion.left[lpos]

    if r2 == ID:
        return d1
    if r2 == EL:
        a = analyze_node(d2, th)
        return _reduce_ca(d1, d2.premises[0], _map_swap(lpos, a["a"], a["b"], a["c"]), rpos, th)
    if r2 == ER:
        return _reduce_ca(d1, d2.premises[0], lpos, rpos, th)
    if r2 == E_LEFT:
        i = analyze_node(d2, th)["i"]
        p = d2.premises[0]
        if i == lpos:  # principal unit cut; d1 ends with the unit axiom
            if d1.rule != E_RIGHT:
                raise CutEliminationError(f"unit cut against {d1.rule}")
            return p
        lposp = lpos - (1 if i < lpos else 0)
        r = _reduce_ca(d1, p, lposp, rpos, th)
        return Proof(Sequent((E,) + r.conclusion.left, r.conclusion.right), E_LEFT, (r,))
    if r2 == F_LEFT:
        # principal f cut: d1 introduced this f on the right
        if d1.rule != F_RIGHT:
            raise CutEliminationError(f"f cut against {d1.rule}")
        return d1.premises[0]
    if r2 == F_RIGHT:
        i = analyze_node(d2, th)["i"]
        f = d2.conclusion.right[i]
        r = _reduce_ca(d1, d2.premises[0], lpos, rpos, th)
        return Proof(Sequent(r.conclusion.left, (f,) + r.conclusion.right), F_RIGHT, (r,))
    if r2 == FUSE_LEFT:
        t = _principal_left(d2)
        i = analyze_node(d2, th)["i"]
        p = d2.premises[0]
        if i == lpos:  # principal fuse cut
            if d1.rule != FUSE_RIGHT:
                raise CutEliminationError(f"fuse cut against {d1.rule}")
            q1, q2 = d1.premises
            r1x = _reduce_ca(q2, p, lpos + 1, 0, th)
            return _reduce_ca(q1, r1x, lpos, 0, th)
        lposp = lpos + (1 if i < lpos else 0)
        r = _reduce_ca(d1, p, lposp, rpos, th)
        return _rb_one_left(FUSE_LEFT, t, (t.l, t.r), r)
    if r2 in (MEET_LEFT_1, MEET_LEFT_2):
        a = analyze_node(d2, th)
        i = a["i"]
        t = d2.conclusion.left[i]
        p = d2.premises[0]
        if i == lpos:  # principal meet cut
            if d1.rule != MEET_RIGHT:
                raise CutEliminationError(f"meet cut against {d1.rule}")
            q = d1.premises[0 if r2 == MEET_LEFT_1 else 1]
            return _reduce_ca(q, p, lpos, rpos, th)
        r = _reduce_ca(d1, p, lpos, rpos, th)
        sub = t.l if r2 == MEET_LEFT_1 else t.r
        return _rb_one_left(r2, t, (sub,), r)
    if r2 == JOIN_LEFT:
        a = analyze_node(d2, th)
        i = a["i"]
        t = d2.conclusion.left[i]
        pa, pb = d2.premises
        if i == lpos:  # principal join cut (d1 is join-right-k)
            if d1.rule == JOIN_RIGHT_1:
                return _reduce_ca(d1.premises[0], pa, lpos, rpos, th)
            if d1.rule == JOIN_RIGHT_2:
                return _reduce_ca(d1.premises[0], pb, lpos, rpos, th)
            raise CutEliminationError(f"join cut against {d1.rule}")
        ra = _reduce_ca(d1, pa, lpos, rpos, th)
        rb = _reduce_ca(d1, pb, lpos, rpos, th)
        return _rb_join_left(t, ra, rb)
    if r2 in (JOIN_RIGHT_1, JOIN_RIGHT_2):
        a = analyze_node(d2, th)
        t = d2.conclusion.right[a["i"]]
        sub = t.l if r2 == JOIN_RIGHT_1 else t.r
        r = _reduce_ca(d1, d2.premises[0], lpos, rpos, th)
        return _rb_one_right(r2, t, sub, r)
    if r2 == MEET_RIGHT:
        a = analyze_node(d2, th)
        t = d2.conclusion.right[a["i"]]
        ra = _reduce_ca(d1, d2.premises[0], lpos, rpos, th)
        rb = _reduce_ca(d1, d2.premises[1], lpos, rpos, th)
        return _rb_meet_right(t, ra, rb)
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


def _principal_left(node: Proof):
    """Principal left formula of a left rule: the conclusion/premise multiset
    difference identifies it without re-deriving the full analysis."""
    concl = _count(node.conclusion.left)
    prem = _count(node.premises[0].conclusion.left)
    for t, n in concl.items():
        if n > prem.get(t, 0):
            return t
    raise CutEliminationError("no principal left formula found")


def _count(seq):
    out: dict = {}
    for t in seq:
        out[t] = out.get(t, 0) + 1
    return out


# canonical multiple-conclusion rebuilds (order fixed afterwards by _patch)


def _rb_one_left(rule: str, t, subs: tuple, p: Proof) -> Proof:
    rest = p.conclusion.left
    for sub in subs:
        rest = _remove_one(rest, sub)
    p = _exchange_chain(p, subs + rest, "left")
    return Proof(Sequent((t,) + rest, p.conclusion.right), rule, (p,))


def _rb_one_right(rule: str, t, sub, p: Proof) -> Proof:
    rest = _remove_one(p.conclusion.right, sub)
    p = _exchange_chain(p, (sub,) + rest, "right")
    return Proof(Sequent(p.conclusion.left, (t,) + rest), rule, (p,))


def _rb_join_left(t, pa: Proof, pb: Proof) -> Proof:
    rest = _remove_one(pa.conclusion.left, t.l)
    right = pa.conclusion.right
    pa = _exchange_chain(pa, (t.l,) + rest, "left")
    pb = _exchange_chain(pb, (t.r,) + rest, "left")
    pb = _exchange_chain(pb, right, "right")
    return Proof(Sequent((t,) + rest, right), JOIN_LEFT, (pa, pb))


def _rb_meet_right(t, pa: Proof, pb: Proof) -> Proof:
    rest = _remove_one(pa.conclusion.right, t.l)
    left = pa.conclusion.left
    pa = _exchange_chain(pa, (t.l,) + rest, "right")
    pb = _exchange_chain(pb, (t.r,) + rest, "right")
    pb = _exchange_chain(pb, left, "left")
    return Proof(Sequent(left, (t,) + rest), MEET_RIGHT, (pa, pb))


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
