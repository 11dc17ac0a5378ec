"""Seeded random term/sequent generation and the cross-decider corpus runner.

Everything here is deterministic given the seed: suites are driven by
`random.Random(seed)` and report the seed back, so acceptance runs are
reproducible byte for byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from . import ablg_oracle, finmod, lg_oracle, prover
from .cutelim import eliminate_cuts
from .prover import check_proof, make_cut, search, search_lgw_explicit
from .terms import (
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
    Var,
    neg_translation,
    print_sequent,
    print_term,
    sequent_complexity,
)

_DEFAULT_VARS = ("x", "y", "z")


def gen_term(
    rng: random.Random,
    num_vars: int = 2,
    depth: int = 3,
    lattice: bool = True,
    fuse: bool = True,
    pointed: bool = False,
    leaf_bias: float = 0.25,
) -> Term:
    """Random term over the requested signature, depth-bounded."""
    names = _DEFAULT_VARS[:num_vars]
    leaves: list[Term] = [Var(n) for n in names] + [E]
    if pointed:
        leaves.append(F)
    ops = [LDiv, RDiv]
    if fuse:
        ops.append(Fuse)
    if lattice:
        ops += [Meet, Join]

    def go(d: int) -> Term:
        if d <= 0 or rng.random() < leaf_bias:
            return rng.choice(leaves)
        op = rng.choice(ops)
        return op(go(d - 1), go(d - 1))

    return go(depth)


def gen_sequent(
    rng: random.Random,
    num_vars: int = 2,
    depth: int = 2,
    max_left: int = 3,
    lattice: bool = True,
    fuse: bool = True,
    pointed: bool = False,
    max_right: int = 1,
) -> Sequent:
    nl = rng.randint(0, max_left)
    nr = 1 if max_right == 1 else rng.randint(0, max_right)
    kw = dict(num_vars=num_vars, depth=depth, lattice=lattice, fuse=fuse, pointed=pointed)
    return Sequent(
        tuple(gen_term(rng, **kw) for _ in range(nl)),
        tuple(gen_term(rng, **kw) for _ in range(nr)),
    )


# --- cross-decider suites ---------------------------------------------------


@dataclass
class SuiteReport:
    name: str
    kind: str
    seed: int
    count: int
    agreements: int = 0
    disagreements: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "seed": self.seed,
            "count": self.count,
            "agreements": self.agreements,
            "disagreements": self.disagreements,
            "ok": self.ok,
        }


def _record(report: SuiteReport, label: str, a, b):
    if a == b:
        report.agreements += 1
    else:
        report.disagreements.append(f"{label}: {a} vs {b}")


def run_suite(spec: dict) -> SuiteReport:
    """Run one cross-check suite described by a corpus-file entry.

    Recognized kinds: glivenko-lg, glivenko-ablg, formulation-icrl,
    formulation-cicrl, conservativity-sirm, conservativity-pbci,
    conservativity-ca, negative-cone, cutelim, soundness-finmod.
    """
    kind = spec["kind"]
    count = int(spec.get("count", 50))
    seed = int(spec.get("seed", 0))
    depth = int(spec.get("depth", 3))
    num_vars = int(spec.get("vars", 2))
    name = spec.get("name", kind)
    rng = random.Random(seed)
    report = SuiteReport(name=name, kind=kind, seed=seed, count=count)

    if kind in ("glivenko-lg", "glivenko-ablg"):
        for i in range(count):
            t = gen_term(rng, num_vars=num_vars, depth=depth)
            goal = Sequent((t,), (E,))
            if kind == "glivenko-lg":
                oracle_says = lg_oracle.lg_valid_leq_e(t)
                prover_says = search(goal, Theory.ICRL).derivable
            else:
                oracle_says = ablg_oracle.ablg_valid_sequent(goal)
                prover_says = search(goal, Theory.CICRL).derivable
            _record(report, f"{i}: {print_term(t)} <= e", oracle_says, prover_says)
    elif kind in ("formulation-icrl", "formulation-cicrl"):
        th = Theory.ICRL if kind == "formulation-icrl" else Theory.CICRL
        max_c = int(spec.get("max_complexity", 12))
        i = 0
        while i < count:
            s = gen_sequent(rng, num_vars=num_vars, depth=depth)
            if sequent_complexity(s) > max_c:
                continue
            _record(
                report,
                f"{i}: {print_sequent(s)}",
                search(s, th).derivable,
                search_lgw_explicit(s, th).derivable,
            )
            i += 1
    elif kind in ("conservativity-sirm", "conservativity-pbci"):
        fuse = kind == "conservativity-sirm"
        th = Theory.SIRM if fuse else Theory.PSEUDO_BCI
        for i in range(count):
            s = gen_sequent(rng, num_vars=num_vars, depth=depth, lattice=False, fuse=fuse)
            _record(
                report,
                f"{i}: {print_sequent(s)}",
                search(s, th).derivable,
                search(s, Theory.ICRL).derivable,
            )
    elif kind == "conservativity-ca":
        for i in range(count):
            s = gen_sequent(rng, num_vars=num_vars, depth=depth)
            _record(
                report,
                f"{i}: {print_sequent(s)}",
                search(s, Theory.CA).derivable,
                search(s, Theory.CICRL).derivable,
            )
    elif kind == "negative-cone":
        for i in range(count):
            s = gen_term(rng, num_vars=num_vars, depth=depth)
            t = gen_term(rng, num_vars=num_vars, depth=depth)
            _record(
                report,
                f"{i}: {print_term(s)} ~ {print_term(t)}",
                prover.decide_equation(s, t, Theory.IRL),
                prover.decide_equation(neg_translation(s), neg_translation(t), Theory.ICRL),
            )
    elif kind == "cutelim":
        made = 0
        attempts = 0
        while made < count and attempts < count * 60:
            attempts += 1
            p, th = gen_proof_with_cuts(rng, num_vars=num_vars, depth=depth)
            if p is None:
                continue
            q = eliminate_cuts(p, th)
            ok = q.conclusion == p.conclusion and check_proof(q, th, allow_cut=False)
            _record(report, f"{made}: {print_sequent(p.conclusion)} [{th.value}]", True, ok)
            made += 1
        report.count = made
    elif kind == "soundness-finmod":
        theories = [Theory.RL, Theory.IRL, Theory.ICRL, Theory.CICRL, Theory.SIRM, Theory.BCI]
        bound = int(spec.get("max_size", 3))
        for i in range(count):
            th = theories[i % len(theories)]
            s = gen_sequent(
                rng, num_vars=num_vars, depth=depth, lattice=th.has_lattice_ops, fuse=th.has_fuse
            )
            if not search(s, th).derivable:
                report.agreements += 1
                continue
            cls, commutative = finmod.countermodel_class(th)
            cm = finmod.refute(s, bound, cls, commutative=commutative)
            _record(report, f"{i}: {print_sequent(s)} [{th.value}]", None, cm)
    else:
        raise ValueError(f"unknown suite kind {kind!r}")

    return report


def gen_proof_with_cuts(rng: random.Random, num_vars: int = 2, depth: int = 2):
    """Assemble a checkable proof containing 1-3 cut nodes, or (None, th).

    Corpus derivations are cut together: a derivable goal with a non-empty
    left side donates a cut formula, and a derivable premise for it is found
    among simple candidate contexts.
    """
    th = rng.choice([mode for mode in Theory if not mode.multiple_conclusion])
    for _ in range(12):
        s = gen_sequent(rng, num_vars=num_vars, depth=depth, max_left=2,
                        lattice=th.has_lattice_ops, fuse=th.has_fuse)
        out = search(s, th)
        if not (out.derivable and s.left):
            continue
        proof = out.proof
        n_cuts = rng.randint(1, 3)
        for _ in range(n_cuts):
            concl = proof.conclusion
            if not concl.left:
                break
            pos = rng.randrange(len(concl.left))
            cut_formula = concl.left[pos]
            donor = _derivable_premise_for(rng, cut_formula, th)
            if donor is None:
                break
            proof = make_cut(donor, proof, pos)
        if any(n.rule == "cut" for n in proof.walk()):
            return proof, th
    return None, th


def _derivable_premise_for(rng: random.Random, t: Term, th: Theory):
    """A proof of some context => t, preferring a non-trivial left side."""
    candidates = [
        Sequent((E, t), (t,)),
        Sequent((t, E), (t,)),
        Sequent((Fuse(t, E),) if th.has_fuse else (t,), (t,)),
        Sequent((t,), (t,)),
    ]
    if th.oracle is not None:
        x = Var("x")
        candidates.insert(0, Sequent((LDiv(x, x), t), (t,)))
    rng.shuffle(candidates)
    for c in candidates:
        out = search(c, th)
        if out.derivable:
            return out.proof
    return None


def corpus_run(spec: dict) -> tuple[int, dict]:
    """Run every suite in a corpus file; exit status 1 on any disagreement."""
    suites = spec.get("suites")
    if not isinstance(suites, list) or not suites:
        raise ValueError("corpus spec must contain a non-empty 'suites' list")
    reports = [run_suite(s) for s in suites]
    ok = all(r.ok for r in reports)
    payload = {
        "suites": [r.as_dict() for r in reports],
        "ok": ok,
    }
    return (0 if ok else 1), payload


def load_corpus_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
