"""The four workloads: their items, how an item runs, and how it is checked.

An item is one input, given to the package as text, taken through to a
checked verdict.  `run_item` is the timed part; `summarize` and
`check_item` run afterwards, untimed.  `check_item` raises `WrongVerdict`
when the package's answer contradicts the benchmark's own evidence or
fails the package's own checker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import gen

DERIVABLE, NOT_DERIVABLE = "DERIVABLE", "NOT DERIVABLE"

# Countermodel classes for the theories whose NOT DERIVABLE verdicts
# `certify` asks `finmod.refute` about, and the largest size searched.
REFUTE_CLASS = {"rl": "rl", "irl": "integral", "sirm": "sirmonoid"}
REFUTE_SIZE = 4

# Limits on one item, in seconds at the reference speed (see `run.Limiter`);
# an item that runs longer is undecided.
# throughput_per_s is a mean over a heavy tail, and under a high limit a
# handful of slow cold items decide it.  A certify item may pay a cold
# size-4 enumeration of sirmonoids, about 1 s, and must still decide.
COLD_LIMIT_S = 0.5
SESSION_LIMIT_S = 2.0


class WrongVerdict(Exception):
    """The package's output is wrong; the run must fail."""


@dataclass(frozen=True)
class Item:
    kind: str  # "prove", "oracle", "schema", "cut" or "refute"
    theory: str
    left: tuple  # the benchmark's trees, over x, y, z
    right: tuple
    text: str  # what the package is given
    cuts: tuple = ()  # for "cut": (position seed, donor puts e first) per cut


def make_items(pres: gen.Presentation, kind: str, rows, cuts=None) -> list[Item]:
    """Items of one kind from population rows (theory, left, right)."""
    out = []
    for i, (th, left, right) in enumerate(rows):
        text = pres.text(right[0]) if kind == "oracle" else pres.sequent_text(left, right)
        out.append(Item(kind, th, left, right, text, cuts[i] if cuts else ()))
    return out


class Package:
    """The package's modules, imported once; the workloads call through
    these module objects so that a traced pass sees every call."""

    def __init__(self):
        import icrl.ablg_oracle
        import icrl.cutelim
        import icrl.finmod
        import icrl.lg_oracle
        import icrl.prover
        import icrl.terms

        self.terms = icrl.terms
        self.prover = icrl.prover
        self.lg_oracle = icrl.lg_oracle
        self.ablg_oracle = icrl.ablg_oracle
        self.cutelim = icrl.cutelim
        self.finmod = icrl.finmod
        self.modules = {
            name: getattr(self, name)
            for name in ("terms", "prover", "lg_oracle", "ablg_oracle", "cutelim", "finmod")
        }

    def cache_counts(self) -> dict:
        """(hits, misses) of each of the package's lru caches, by name."""
        fns = {
            "print_term": self.terms.print_term,
            "lg_valid_leq_e": self.lg_oracle.lg_valid_leq_e,
            "semigroup_contains_identity": self.lg_oracle.semigroup_contains_identity,
            "ablg_valid_leq_e": self.ablg_oracle.ablg_valid_leq_e,
            "enumerate_algebras": self.finmod.enumerate_algebras,
        }
        return {name: tuple(fn.cache_info()[:2]) for name, fn in fns.items()}

    def clear_caches(self):
        """Empty every cache the package keeps across calls.  A cache that a
        later version of the package keeps across calls must be emptied by
        one of the `clear_caches()` functions called here."""
        self.prover.clear_caches()
        self.lg_oracle.clear_caches()
        self.ablg_oracle.clear_caches()
        self.finmod.clear_caches()
        self.terms.print_term.cache_clear()


def _prove(pkg: Package, item: Item, out: dict):
    th = pkg.terms.Theory(item.theory)
    s = pkg.terms.parse_sequent(item.text, th)
    res = pkg.prover.search(s, th)
    out["query"] = s
    out["search"] = res
    if res.derivable:
        back = pkg.prover.proof_from_json(pkg.prover.proof_to_json(res.proof), th)
        out["proof"] = back
        out["checked"] = pkg.prover.check_proof(back, th)
    return th, s, res


def _oracle(pkg: Package, item: Item, out: dict):
    t = pkg.terms.parse_term(item.text, pkg.terms.Theory.ICRL)
    out["lg"] = pkg.lg_oracle.lg_valid_leq_e(t)
    out["ablg"] = pkg.ablg_oracle.ablg_valid_leq_e(t)


def _cut(pkg: Package, item: Item, out: dict):
    th, s, res = _prove(pkg, item, out)
    if not res.derivable:
        return
    proof = res.proof
    E, Sequent = pkg.terms.E, pkg.terms.Sequent
    for pos_seed, e_first in item.cuts:
        left = proof.conclusion.left
        pos = pos_seed % len(left)
        t = left[pos]
        donor = pkg.prover.search(Sequent((E, t) if e_first else (t, E), (t,)), th)
        proof = pkg.prover.make_cut(donor.proof, proof, pos)
    cut_free = pkg.cutelim.eliminate_cuts(proof, th)
    out["cut_proof"] = proof
    out["cut_free"] = cut_free
    out["cut_checked"] = pkg.prover.check_proof(cut_free, th, allow_cut=False)


def _refute(pkg: Package, item: Item, out: dict):
    th, s, res = _prove(pkg, item, out)
    if not res.derivable:
        out["countermodel"] = pkg.finmod.refute(s, REFUTE_SIZE, REFUTE_CLASS[item.theory])


RUNNERS = {"prove": _prove, "oracle": _oracle, "schema": _prove, "cut": _cut, "refute": _refute}


def run_item(pkg: Package, item: Item, out: dict):
    """The timed part of an item; results go into `out` as they appear."""
    RUNNERS[item.kind](pkg, item, out)


def summarize(out: dict) -> dict:
    """Verdict and counts of a finished item, computed outside the timing."""
    if "lg" in out:
        return {"verdict": f"lg {out['lg']}, ablg {out['ablg']}"}
    res = out["search"]
    rec = {
        "verdict": DERIVABLE if res.derivable else NOT_DERIVABLE,
        "goals": res.nodes_expanded,
        "depth": res.max_depth,
    }
    if res.derivable:
        rec["proof_nodes"] = out["proof"].size()
        rec["checked"] = out["checked"]
    if "cut_free" in out:
        rec["cuts_in"] = sum(1 for n in out["cut_proof"].walk() if n.rule == "cut")
        rec["nodes_in"] = out["cut_proof"].size()
        rec["nodes_out"] = out["cut_free"].size()
        rec["cut_checked"] = out["cut_checked"]
    cm = out.get("countermodel")
    if cm is not None:
        rec["countermodel"] = [cm[0].size, sorted(cm[1].items())]
    return rec


def check_item(pkg: Package, item: Item, out: dict):
    """Check a decided item without trusting the search; raise WrongVerdict."""

    def fail(why):
        raise WrongVerdict(f"{item.kind} item [{item.theory}] {item.text}: {why}")

    if item.kind == "oracle":
        if out["lg"] and not out["ablg"]:
            fail("l-group valid but not abelian l-group valid")
        t = item.right[0]
        if any(gen.eval_z(t, v) > 0 for v in gen.Z_BANK) and (out["lg"] or out["ablg"]):
            fail("refuted in Z but reported valid")
        return
    res = out["search"]
    if res.derivable:
        if not out["checked"]:
            fail("the proof fails check_proof")
        if out["proof"] != res.proof:
            fail("the proof does not survive the JSON round trip")
        if out["proof"].conclusion != out["query"]:
            fail("the proof's conclusion is not the query")
        if gen.refuted(item.theory, item.left, item.right):
            fail("DERIVABLE, but refuted in a model of the theory")
    elif item.kind in ("schema", "cut"):
        fail("a substitution instance of a derivable schema is reported NOT DERIVABLE")
    if item.kind == "cut":
        if out["cut_free"].conclusion != out["cut_proof"].conclusion:
            fail("cut elimination changed the conclusion")
        if any(n.rule == "cut" for n in out["cut_free"].walk()) or not out["cut_checked"]:
            fail("the cut-free proof has cuts or fails check_proof(allow_cut=False)")
    if item.kind == "refute" and out.get("countermodel") is not None:
        alg, val = out["countermodel"]
        violations = pkg.finmod.validate(alg)
        if violations:
            fail(f"countermodel is not an algebra of its class: {violations[:3]}")
        if not gen.algebra_falsifies(alg, val, item.left, item.right):
            fail("countermodel does not falsify the sequent")


# --- the workloads -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    items: int  # fixed size of the untraced run
    trace_items: int  # prefix taken by the traced run
    session: bool  # caches kept across the items of a pass
    limit_s: float  # limit on one item

    def build(self, seed: int) -> list[Item]:
        return ITEM_MAKERS[self.name](gen.Presentation(seed), self.items)


def _prove_seq(pres, n):
    rows = gen.random_sequents(("rl", "irl", "icrl", "sirm", "pseudobci"), n, depth=3, max_left=4)
    return pres.shuffle(make_items(pres, "prove", rows))


def _prove_comm(pres, n):
    rows = gen.random_sequents(("cicrl", "sircom", "bci", "ca"), n, depth=2, max_left=4, max_right=2)
    return pres.shuffle(make_items(pres, "prove", rows))


def _oracle_deep(pres, n):
    rows = [("icrl", (), (t,)) for t in gen.random_terms(n, depth=6)]
    return pres.shuffle(make_items(pres, "oracle", rows))


def _certify(pres, n):
    """n/9 schema instances per theory; a cut item for every other instance
    with a non-empty left side, one or two unit-law cuts each; n/3 random
    rl, irl and sirm sequents for refutation.  Kinds run in that order, so
    cut items find the session's caches filled by the schema items."""
    rows = gen.schema_instances(n // 9, depth=2)
    rng = random.Random(f"cuts:{gen.POPULATION_SEED}")
    cut_rows = [r for r in rows[::2] if r[1]]
    cuts = [tuple((rng.randrange(1 << 16), rng.random() < 0.5) for _ in range(rng.randint(1, 2))) for _ in cut_rows]
    refute_rows = gen.random_sequents(tuple(REFUTE_CLASS), n // 3, depth=2, max_left=2)
    return (
        pres.shuffle(make_items(pres, "schema", rows))
        + pres.shuffle(make_items(pres, "cut", cut_rows, cuts))
        + pres.shuffle(make_items(pres, "refute", refute_rows))
    )


ITEM_MAKERS = {
    "prove-seq": _prove_seq,
    "prove-comm": _prove_comm,
    "oracle-deep": _oracle_deep,
    "certify": _certify,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("prove-seq", items=500, trace_items=300, session=False, limit_s=COLD_LIMIT_S),
        Workload("prove-comm", items=150, trace_items=80, session=False, limit_s=COLD_LIMIT_S),
        Workload("oracle-deep", items=400, trace_items=300, session=False, limit_s=COLD_LIMIT_S),
        Workload("certify", items=540, trace_items=10_000, session=True, limit_s=SESSION_LIMIT_S),
    )
}
