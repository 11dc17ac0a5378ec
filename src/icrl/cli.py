"""Command-line front end.

Exit codes: 0 = affirmative (derivable / valid / countermodel found /
all suites agree), 1 = negative, 2 = usage, limit or internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import ablg_oracle, corpus, finmod, lg_oracle, prover
from .cutelim import eliminate_cuts
from .terms import (
    Sequent,
    Theory,
    parse_leq,
    parse_sequent,
    print_sequent,
    theory_from_name,
)

AFFIRMATIVE, NEGATIVE, ERROR = 0, 1, 2


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in payload.get("lines", []):
            print(line)


def _theory(args) -> Theory:
    return theory_from_name(args.theory)


def cmd_prove(args) -> int:
    th = _theory(args)
    s = parse_sequent(args.sequent, th)
    out = (
        prover.search_lgw_explicit(s, th)
        if args.explicit_lgw
        else prover.search(s, th)
    )
    verdict = "DERIVABLE" if out.derivable else "NOT DERIVABLE"
    payload = {
        "command": "prove",
        "theory": th.value,
        "sequent": print_sequent(s),
        "formulation": "explicit-weakening" if args.explicit_lgw else "generalized-axioms",
        "derivable": out.derivable,
        "nodes_expanded": out.nodes_expanded,
        "max_depth": out.max_depth,
        "lines": [f"{verdict}: {print_sequent(s)} [{th.value}]"],
    }
    if not out.derivable and th is not Theory.IRL:  # Z is a model of every other theory
        _add_refutation(payload, s)
    if out.derivable and args.emit_proof:
        with open(args.emit_proof, "w", encoding="utf-8") as fh:
            fh.write(prover.proof_to_json(out.proof))
        payload["proof_file"] = args.emit_proof
    _emit(payload, args.format)
    return AFFIRMATIVE if out.derivable else NEGATIVE


def cmd_check(args) -> int:
    th = _theory(args)
    with open(args.proof, "r", encoding="utf-8") as fh:
        p = prover.proof_from_json(fh.read(), th)
    ok, path, msg = prover.check_proof_detailed(p, th, allow_cut=not args.no_cut)
    payload = {
        "command": "check",
        "theory": th.value,
        "allow_cut": not args.no_cut,
        "valid": ok,
        "lines": ["VALID" if ok else f"INVALID at node {list(path)}: {msg}"],
    }
    if not ok:
        payload["failure_path"] = list(path)
        payload["failure_message"] = msg
    _emit(payload, args.format)
    return AFFIRMATIVE if ok else NEGATIVE


def cmd_elimcut(args) -> int:
    th = _theory(args)
    with open(args.proof, "r", encoding="utf-8") as fh:
        p = prover.proof_from_json(fh.read(), th)
    q = eliminate_cuts(p, th)
    blob = prover.proof_to_json(q)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(blob)
        print(f"cut-free proof of {print_sequent(q.conclusion)} written to {args.output}")
    else:
        sys.stdout.write(blob)
    return AFFIRMATIVE


def _add_refutation(payload: dict, s: Sequent) -> bool:
    """Add the Z bank's valuation that refutes s to the payload, if there is
    one; whether there is."""
    refutation = lg_oracle.refuting_valuation((s.left, s.right))
    if refutation is None:
        return False
    payload["refuting_valuation"] = refutation
    payload["lines"].append(
        "refuting integer valuation: "
        + ", ".join(f"{k} = {v}" for k, v in sorted(refutation.items()))
    )
    return True


def _parse_oracle_input(text: str, th: Theory) -> Sequent:
    if "=>" in text:
        return parse_sequent(text, th)
    s, t = parse_leq(text, th)
    return Sequent((s,), (t,))


def cmd_oracle(args) -> int:
    if args.oracle == "lg":
        s = _parse_oracle_input(args.query, Theory.ICRL)
        valid = lg_oracle.lg_valid_sequent(s)
    else:
        s = _parse_oracle_input(args.query, Theory.CA)
        valid = ablg_oracle.ablg_valid_sequent(s)
    payload = {
        "command": "oracle",
        "oracle": args.oracle,
        "sequent": print_sequent(s),
        "valid": valid,
        "lines": ["VALID" if valid else "INVALID"],
    }
    if not valid and not _add_refutation(payload, s) and args.oracle == "lg":
        payload["lines"].append(
            "no refutation in the integer bank; instance may need a non-abelian order"
        )
    _emit(payload, args.format)
    return AFFIRMATIVE if valid else NEGATIVE


def cmd_finmod_validate(args) -> int:
    alg = finmod.load_algebra(args.file)
    violations = finmod.validate(alg)
    payload = {
        "command": "finmod-validate",
        "file": args.file,
        "signature": alg.signature,
        "violations": violations,
        "valid": not violations,
        "lines": ["INVALID:"] + [f"  {v}" for v in violations] if violations else ["VALID ALGEBRA"],
    }
    _emit(payload, args.format)
    return AFFIRMATIVE if not violations else NEGATIVE


def cmd_finmod_refute(args) -> int:
    th = theory_from_name(args.theory) if args.theory else None
    if th is not None:
        cls, commutative = finmod.countermodel_class(th)
    else:
        cls, commutative = args.cls, args.commutative
    s = parse_sequent(args.sequent, th or Theory.ICRL)
    hit = finmod.refute(s, args.max_size, cls, commutative=commutative)
    payload = {
        "command": "finmod-refute",
        "sequent": print_sequent(s),
        "class": cls,
        "commutative": commutative,
        "max_size": args.max_size,
        "found": hit is not None,
    }
    if hit is None:
        payload["lines"] = [f"no countermodel up to size {args.max_size}"]
    else:
        alg, val = hit
        payload["algebra"] = finmod.algebra_to_dict(alg)
        payload["valuation"] = val
        payload["lines"] = [
            f"countermodel of size {alg.size} found",
            "valuation: " + ", ".join(f"{k} = {v}" for k, v in sorted(val.items())),
            json.dumps(finmod.algebra_to_dict(alg), sort_keys=True),
        ]
    _emit(payload, args.format)
    return AFFIRMATIVE if hit is not None else NEGATIVE


def cmd_finmod_enumerate(args) -> int:
    algebras = finmod.enumerate_algebras(args.size, args.cls)
    payload = {
        "command": "finmod-enumerate",
        "size": args.size,
        "class": args.cls,
        "count": len(algebras),
        "algebras": [finmod.algebra_to_dict(a) for a in algebras],
        "lines": [f"{len(algebras)} non-isomorphic {args.cls} algebras of size {args.size}"]
        + [json.dumps(finmod.algebra_to_dict(a), sort_keys=True) for a in algebras],
    }
    _emit(payload, args.format)
    return AFFIRMATIVE


def cmd_corpus_run(args) -> int:
    spec = corpus.load_corpus_file(args.file)
    code, payload = corpus.corpus_run(spec)
    payload["command"] = "corpus-run"
    payload["lines"] = []
    for rep in payload["suites"]:
        status = "ok" if rep["ok"] else f"{len(rep['disagreements'])} DISAGREEMENTS"
        payload["lines"].append(
            f"{rep['name']}: {rep['agreements']}/{rep['count']} agree (seed {rep['seed']}) {status}"
        )
        for d in rep["disagreements"]:
            payload["lines"].append(f"  !! {d}")
    payload["lines"].append("ALL SUITES AGREE" if payload["ok"] else "DISAGREEMENT DETECTED")
    _emit(payload, args.format)
    return AFFIRMATIVE if code == 0 else NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    theories = ", ".join(t.value for t in Theory)
    ap = argparse.ArgumentParser(
        prog="icrl",
        description="Decision procedures for integrally closed residuated lattices "
        "and relatives: proof search, validity oracles, cut elimination, finite models.",
        epilog=f"Theories: {theories}.  Term grammar: /\\ meet, \\/ join, * fusion, "
        "\\ and / residuals (non-associative), ~t = t \\ e, -t = t \\ f, "
        "-> arrow (commutative theories), + (ca only); "
        "sequents: 't1, t2 => u' (single-conclusion) or 't1 => u1, u2' (ca).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("prove", help="backward proof search for a sequent")
    p.add_argument("--theory", required=True, help=f"one of: {theories}")
    p.add_argument("--emit-proof", metavar="PATH", help="write the found proof as JSON")
    p.add_argument("--explicit-lgw", action="store_true",
                   help="search with explicit weakening steps instead of generalized axioms")
    p.add_argument("sequent")
    add_format(p)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("check", help="check a proof object against a theory's rules")
    p.add_argument("--theory", required=True)
    p.add_argument("--no-cut", action="store_true", help="reject proofs that use cut")
    p.add_argument("proof", help="proof JSON file")
    add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("elimcut", help="transform a proof into a cut-free one")
    p.add_argument("--theory", required=True)
    p.add_argument("-o", "--output", metavar="PATH")
    p.add_argument("proof", help="proof JSON file")
    p.set_defaults(func=cmd_elimcut)

    p = sub.add_parser("oracle", help="validity oracles for (abelian) l-groups")
    osub = p.add_subparsers(dest="oracle", required=True)
    for name, doc in (("lg", "all lattice-ordered groups"), ("ablg", "all abelian l-groups")):
        op = osub.add_parser(name, help=f"validity over {doc}")
        op.add_argument("query", help="'t <= e' or a sequent 's1, ... => t'")
        add_format(op)
        op.set_defaults(func=cmd_oracle, oracle=name)

    p = sub.add_parser("finmod", help="finite-model workbench")
    fsub = p.add_subparsers(dest="finmod_command", required=True)

    fp = fsub.add_parser("validate", help="validate an algebra JSON file")
    fp.add_argument("file")
    add_format(fp)
    fp.set_defaults(func=cmd_finmod_validate)

    fp = fsub.add_parser("refute", help="search finite countermodels for a sequent")
    fp.add_argument("--class", dest="cls", default="integral",
                    choices=sorted(finmod.MAX_SIZE), help="algebra class to search")
    fp.add_argument("--commutative", action="store_true")
    fp.add_argument("--theory", help="pick class and commutativity from a theory instead")
    fp.add_argument("--max-size", type=int, default=4)
    fp.add_argument("sequent")
    add_format(fp)
    fp.set_defaults(func=cmd_finmod_refute)

    fp = fsub.add_parser("enumerate", help="enumerate algebras of a class up to isomorphism")
    fp.add_argument("--size", type=int, required=True)
    fp.add_argument("--class", dest="cls", default="rl", choices=sorted(finmod.MAX_SIZE))
    add_format(fp)
    fp.set_defaults(func=cmd_finmod_enumerate)

    p = sub.add_parser("corpus-run", help="run seeded cross-decider suites from a corpus file")
    p.add_argument("file", help="corpus JSON file")
    add_format(p)
    p.set_defaults(func=cmd_corpus_run)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return ERROR if e.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`icrl ... | head`): nothing left to report,
        # and the buffered rest must not fail again at interpreter exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return ERROR
    except Exception as e:
        # a crash (even RecursionError on deep nesting) must not read as NEGATIVE
        print(f"error: {e}", file=sys.stderr)
        return ERROR


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
