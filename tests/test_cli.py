import json
import subprocess
import sys

import pytest

from icrl import lg_oracle
from icrl.cli import run
from icrl.finmod import algebra_to_dict
from icrl.prover import proof_from_json
from icrl.terms import MAX_TERM_DEPTH, Theory, parse_sequent, parse_term, print_term
from test_terms import depth_chains
from tests_helpers_oracles import eval_int


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
    # x \ x => e holds in Z, so the bank does not refute it in rl; and Z is
    # not a model of irl, so irl reports no integer valuation
    for th, text in (("rl", "x \\ x => e"), ("irl", "x => x * x")):
        code, out, _ = run_cli(capsys, "prove", "--theory", th, "--format", "json", text)
        assert code == 1 and "refuting_valuation" not in json.loads(out), (th, text)
        code, out, _ = run_cli(capsys, "prove", "--theory", th, text)
        assert out.splitlines() == [f"NOT DERIVABLE: {text} [{th}]"]


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
