import json
import subprocess
import sys

import pytest

from icrl import cli, finmod, lg_oracle, prover
from icrl.cli import run
from icrl.finmod import algebra_to_dict
from icrl.prover import Certificate, Proof, proof_from_json
from icrl.terms import MAX_TERM_DEPTH, Theory, parse_sequent, parse_term, print_term
from test_terms import depth_chains
from tests_helpers_oracles import eval_cone, eval_int


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prove_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "prove", "--theory", "icrl", "x \\ x => e")
    assert code == 0
    assert "DERIVABLE" in out
    code, out, _ = run_cli(capsys, "prove", "--theory", "rl", "x \\ x => e")
    assert code == 1
    assert "NOT DERIVABLE" in out
    code, _, err = run_cli(capsys, "prove", "--theory", "icrl", "x => ")
    assert code == 2
    assert "error" in err


def test_prove_reports_the_refuting_integer_valuation(capsys):
    for th, text in (("icrl", "x => x * x"), ("ca", "x => x, x")):
        code, out, _ = run_cli(capsys, "prove", "--theory", th, "--format", "json", text)
        assert code == 1
        payload = json.loads(out)
        val = payload["refuting_valuation"]
        # the valuation refutes the sequent in Z: the left side exceeds the right
        s = parse_sequent(text, Theory(th))
        left, right = (sum(eval_int(t, val) for t in side) for side in (s.left, s.right))
        assert left > right, (th, val)
        assert payload["lines"][1] == f"refuting integer valuation: x = {val['x']}"
        code, out, _ = run_cli(capsys, "prove", "--theory", th, text)
        assert out.splitlines()[1] == f"refuting integer valuation: x = {val['x']}"
    # x \ x => e holds in Z, so the bank does not refute it in rl
    code, out, _ = run_cli(capsys, "prove", "--theory", "rl", "--format", "json", "x \\ x => e")
    assert code == 1 and "refuting_valuation" not in json.loads(out)
    code, out, _ = run_cli(capsys, "prove", "--theory", "rl", "x \\ x => e")
    assert out.splitlines() == ["NOT DERIVABLE: x \\ x => e [rl]"]
    # Z is not a model of irl, but its negative cone is: the valuation lies
    # below 0, and the left side exceeds the right in the cone
    text = "x => x * x"
    code, out, _ = run_cli(capsys, "prove", "--theory", "irl", "--format", "json", text)
    assert code == 1
    payload = json.loads(out)
    val = payload["refuting_valuation"]
    s = parse_sequent(text, Theory.IRL)
    left, right = (sum(eval_cone(t, val) for t in side) for side in (s.left, s.right))
    assert max(val.values()) <= 0 and left > right, val
    assert payload["lines"][1] == f"refuting negative-cone valuation: x = {val['x']}"
    code, out, _ = run_cli(capsys, "prove", "--theory", "irl", text)
    assert out.splitlines()[1] == f"refuting negative-cone valuation: x = {val['x']}"


def test_oracle_reports_when_the_integer_bank_refutes_nothing(capsys):
    # a commutator: at most e in every abelian l-group, so Z cannot refute it,
    # but not in every l-group
    query = "x * y * (x \\ e) * (y \\ e) <= e"
    code, out, _ = run_cli(capsys, "oracle", "lg", query)
    assert code == 1
    assert out.splitlines()[1:] == [
        "no refutation in the integer bank; instance may need a non-abelian order"
    ]
    code, out, _ = run_cli(capsys, "oracle", "ablg", query)
    assert code == 0 and out.splitlines()[-1] == "VALID"


def test_prove_reports_a_countermodel_when_only_the_chain_refutes_irl(capsys):
    # x * y => y * x holds in the negative cone, which is commutative, but
    # fails in irl's non-commutative 4-chain: the finite algebra stands in
    text = "x * y => y * x"
    code, out, _ = run_cli(capsys, "prove", "--theory", "irl", "--format", "json", text)
    assert code == 1
    payload = json.loads(out)
    assert "refuting_valuation" not in payload
    alg = finmod.algebra_from_dict(payload["countermodel"]["algebra"])
    val = payload["countermodel"]["valuation"]
    assert finmod.validate(alg) == []
    s = parse_sequent(text, Theory.IRL)
    left, right = (finmod.eval_term(alg, val, side[0]) for side in (s.left, s.right))
    assert not alg.le(left, right), val
    line = f"countermodel of size {alg.size}: x = {val['x']}, y = {val['y']}"
    assert payload["lines"][1:] == [line]
    code, out, _ = run_cli(capsys, "prove", "--theory", "irl", text)
    assert out.splitlines()[1:] == [line]


def test_prove_emit_and_check_round_trip(tmp_path, capsys):
    proof_path = tmp_path / "p.json"
    code, _, _ = run_cli(
        capsys, "prove", "--theory", "icrl", "--emit-proof", str(proof_path),
        "x, x \\ e, y => y",
    )
    assert code == 0
    blob = proof_path.read_text()
    p = proof_from_json(blob, Theory.ICRL)
    assert p.conclusion.right
    code, out, _ = run_cli(capsys, "check", "--theory", "icrl", "--no-cut", str(proof_path))
    assert code == 0 and "VALID" in out
    # a proof checked under the wrong theory fails
    code, out, _ = run_cli(capsys, "check", "--theory", "rl", str(proof_path))
    assert code == 1


def test_check_reports_a_refuted_certificate(tmp_path, capsys):
    th = Theory.ICRL
    p = prover.search(parse_sequent("x, x \\ e, y => y", th), th).proof
    certs = (Certificate("lg", parse_sequent("x => e", th)), *p.certificates[1:])
    path = tmp_path / "p.json"
    path.write_text(prover.proof_to_json(Proof(p.conclusion, p.rule, p.premises, certs)))
    code, out, _ = run_cli(capsys, "check", "--theory", "icrl", str(path))
    assert (code, out) == (1, "INVALID at node []: certificate failed re-validation: x => e\n")


def test_elimcut_cli(tmp_path, capsys):
    import random

    from icrl.corpus import gen_proof_with_cuts
    from icrl.prover import proof_to_json

    rng = random.Random(11)
    p, th = None, None
    while p is None:
        p, th = gen_proof_with_cuts(rng)
    src = tmp_path / "cut.json"
    dst = tmp_path / "nocut.json"
    src.write_text(proof_to_json(p))
    code, out, _ = run_cli(
        capsys, "elimcut", "--theory", th.value, "-o", str(dst), str(src)
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "check", "--theory", th.value, "--no-cut", str(dst))
    assert code == 0


def test_oracle_cli(capsys):
    code, out, _ = run_cli(capsys, "oracle", "lg", "x * (x \\ e) <= e")
    assert code == 0 and "VALID" in out
    code, out, _ = run_cli(capsys, "oracle", "lg", "x <= e")
    assert code == 1
    assert "refuting integer valuation" in out
    code, out, _ = run_cli(capsys, "oracle", "ablg", "x \\/ y => x")
    assert code == 1
    assert "x = " in out
    # the reported valuation refutes the query in Z: the left side exceeds the right
    cases = (("lg", "x <= e", "x", "e"), ("ablg", "x \\/ y => x", "x \\/ y", "x"))
    for oracle, query, left, right in cases:
        code, out, _ = run_cli(capsys, "oracle", oracle, "--format", "json", query)
        assert code == 1
        val = json.loads(out)["refuting_valuation"]
        left_value, right_value = (eval_int(parse_term(text, Theory.CA), val) for text in (left, right))
        assert left_value > right_value, (query, val)


def test_oracle_cli_reports_a_non_abelian_instance_without_a_grid_search():
    # lg-INVALID but valid in Z, so no valuation refutes it; a search of the
    # 7**10 points of [-3, 3]**10 would not finish within the timeout
    names = [f"x{i}" for i in range(10)]
    query = " * ".join(names) + " <= " + " * ".join(reversed(names))
    cmd = [sys.executable, "-m", "icrl.cli", "oracle", "lg", query]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "INVALID" in proc.stdout and "non-abelian" in proc.stdout


def test_finmod_cli(tmp_path, capsys):
    from tests_helpers_algebras import two_chain_dict

    path = tmp_path / "chain.json"
    path.write_text(json.dumps(two_chain_dict()))
    code, out, _ = run_cli(capsys, "finmod", "validate", str(path))
    assert code == 0 and "VALID" in out
    bad = two_chain_dict()
    bad["ldiv"] = [0, 1, 0, 1]
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "finmod", "validate", str(path))
    assert code == 1

    code, out, _ = run_cli(
        capsys, "finmod", "refute", "--class", "integral", "--max-size", "3", "e => x"
    )
    assert code == 0 and "countermodel" in out
    code, out, _ = run_cli(
        capsys, "finmod", "refute", "--class", "integral", "--max-size", "3", "x \\ x => e"
    )
    assert code == 1

    code, out, _ = run_cli(capsys, "finmod", "enumerate", "--size", "2", "--class", "rl")
    assert code == 0 and "1 non-isomorphic" in out
    code, _, err = run_cli(capsys, "finmod", "enumerate", "--size", "9", "--class", "rl")
    assert code == 2


def test_finmod_validate_rejects_non_integer_entries(tmp_path, capsys):
    from tests_helpers_algebras import two_chain_dict

    path = tmp_path / "chain.json"
    for key, value in (("fuse", [0.4, 0, 0, 1]), ("leq", [7, 1, 0, 1]), ("e", True)):
        path.write_text(json.dumps({**two_chain_dict(), key: value}))
        code, out, err = run_cli(capsys, "finmod", "validate", str(path))
        assert (code, out) == (2, "") and repr(key) in err
    # malformed files: the message names the key, or the JSON object expected
    without_size = {k: v for k, v in two_chain_dict().items() if k != "size"}
    for blob, message in (
        (without_size, "missing key 'size'"),
        ([two_chain_dict()], "an algebra must be a JSON object"),
        ({**two_chain_dict(), "meet": 5}, "table 'meet' must be a list of 4 entries"),
    ):
        path.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "finmod", "validate", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_finmod_refute_theory_excludes_class_and_commutative(capsys):
    # an rl algebra refutes x => e, but --theory irl would search integral ones
    for extra in (("--class", "rl"), ("--commutative",)):
        code, out, err = run_cli(capsys, "finmod", "refute", "--theory", "irl", *extra, "x => e")
        assert (code, out) == (2, "") and "cannot be combined" in err
    code, out, _ = run_cli(capsys, "finmod", "refute", "--class", "rl", "x => e")
    assert code == 0 and "countermodel" in out
    code, out, _ = run_cli(capsys, "finmod", "refute", "x => e")  # integral by default
    assert code == 1 and "no countermodel" in out


def test_finmod_refute_casari_reads_f(capsys):
    # --class casari parses in ca's signature, as --theory ca does
    for how in (("--class", "casari"), ("--theory", "ca")):
        code, out, _ = run_cli(capsys, "finmod", "refute", *how, "--max-size", "3", "e => f")
        assert code == 0 and "countermodel of size 2 found" in out
        code, out, _ = run_cli(capsys, "finmod", "refute", *how, "--max-size", "3", "f => e")
        assert code == 1 and "no countermodel up to size 3" in out
    # the other classes keep icrl's signature, which has no f
    code, out, err = run_cli(capsys, "finmod", "refute", "--class", "integral", "e => f")
    assert (code, out) == (2, "") and "constant f not allowed in theory icrl" in err


def test_corpus_run_cli(tmp_path, capsys, monkeypatch):
    spec = {
        "suites": [
            {"name": "glv", "kind": "glivenko-lg", "count": 12, "seed": 5, "vars": 2, "depth": 3},
            {"name": "conserv", "kind": "conservativity-sirm", "count": 8, "seed": 6, "depth": 2},
        ]
    }
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "corpus-run", str(path))
    assert code == 0
    assert "ALL SUITES AGREE" in out

    # a faulty oracle that misreports on a slice of inputs must be caught
    honest = lg_oracle.lg_valid_leq_e

    def flipped(t, *args):
        ans = honest(t, *args)
        return not ans if print_term(t).count("x") % 2 == 1 else ans

    monkeypatch.setattr(lg_oracle, "lg_valid_leq_e", flipped)
    code, out, _ = run_cli(capsys, "corpus-run", str(path))
    assert code == 1
    assert "DISAGREEMENT" in out


def test_crash_exits_with_error_not_negative(capsys):
    # the recursive-descent parser runs out of stack on deep nesting
    deep = "(" * 1200 + "x" + ")" * 1200
    code, _, err = run_cli(capsys, "prove", "--theory", "icrl", f"{deep} => x")
    assert code == 2
    assert err.startswith("error: ")


def test_a_crash_without_a_message_names_its_type(capsys, monkeypatch):
    def crash(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_prove", crash)
    code, _, err = run_cli(capsys, "prove", "--theory", "icrl", "x => x")
    assert code == 2
    assert err == "error: MemoryError\n"


def test_deep_nesting_is_a_parse_error(capsys):
    deep = "(" * 1200 + "x" + ")" * 1200
    code, _, err = run_cli(capsys, "prove", "--theory", "icrl", f"{deep} => x")
    assert code == 2
    assert "nested too deeply" in err
    assert "(at position" in err


def test_terms_at_the_depth_limit_prove_and_check(tmp_path, capsys):
    proof_path = tmp_path / "p.json"
    for text in depth_chains(MAX_TERM_DEPTH):
        emit = ("--emit-proof", str(proof_path))
        code, _, _ = run_cli(capsys, "prove", "--theory", "icrl", *emit, f"{text} => {text}")
        assert code == 0
        code, _, _ = run_cli(capsys, "check", "--theory", "icrl", str(proof_path))
        assert code == 0
    for text in depth_chains(MAX_TERM_DEPTH + 1):
        code, _, err = run_cli(capsys, "prove", "--theory", "icrl", f"{text} => x")
        assert code == 2
        assert "nested too deeply" in err


def test_enumeration_beyond_the_cap_is_refused():
    cmd = [sys.executable, "-m", "icrl.cli", "finmod", "enumerate", "--size", "5", "--class", "sirmonoid"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert "out of range" in proc.stderr


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_refute_bound_below_one_is_an_error(capsys, bound):
    # an empty search would print "no countermodel" and exit 1, a negative
    code, out, err = run_cli(
        capsys, "finmod", "refute", "--max-size", bound, "--class", "rl", "x => e"
    )
    assert code == 2 and out == ""
    assert "must be at least 1" in err


def test_closed_stdout_is_a_quiet_error():
    cmd = [sys.executable, "-m", "icrl.cli", "finmod", "enumerate", "--size", "3", "--class", "rl"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader goes away, as `icrl ... | head -0` would
    err = proc.stderr.read().decode()
    assert proc.wait() == 2
    assert "Errno 32" not in err and "Traceback" not in err


def test_json_output_deterministic():
    cmd = [
        sys.executable, "-m", "icrl.cli", "prove", "--theory", "icrl",
        "--format", "json", "x \\ x => e",
    ]
    r1 = subprocess.run(cmd, capture_output=True, text=True)
    r2 = subprocess.run(cmd, capture_output=True, text=True)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    payload = json.loads(r1.stdout)
    assert payload["derivable"] is True
