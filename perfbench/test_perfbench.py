"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def pkg():
    return workloads.Package()


def first(workload: str, kind: str, pred=lambda item: True, seed: int = 1) -> workloads.Item:
    return next(it for it in workloads.WORKLOADS[workload].build(seed) if it.kind == kind and pred(it))


def constant(value, cached):
    """A stand-in for a cached package function that always answers `value`;
    it keeps the cache handles `clear_caches()` needs."""

    def fn(*args):
        return value

    fn.cache_clear, fn.cache_info = cached.cache_clear, cached.cache_info
    return fn


def run_checked(pkg, item):
    pkg.clear_caches()
    out: dict = {}
    workloads.run_item(pkg, item, out)
    workloads.check_item(pkg, item, out)
    return out


# --- generator ------------------------------------------------------------------


def test_inputs_are_a_function_of_the_seed():
    for wl in workloads.WORKLOADS.values():
        a = [it.text for it in wl.build(7)]
        b = [it.text for it in wl.build(7)]
        c = [it.text for it in wl.build(8)]
        assert a == b, wl.name
        assert a != c, wl.name
        assert len(a) == len(c)
        assert gen.input_digest(a) == gen.input_digest(b) != gen.input_digest(c)


def test_presentation_preserves_the_population():
    """Seeds only reorder the items, so every seed gives the same items."""

    def shape(items):
        return sorted((it.theory, it.kind, it.left, it.right) for it in items)

    for wl in workloads.WORKLOADS.values():
        assert shape(wl.build(1)) == shape(wl.build(2)), wl.name


def test_z_semantics():
    x, y = gen.var("x"), gen.var("y")
    assert gen.refuted("rl", (x,), (y,))
    assert not gen.refuted("rl", ((gen.MEET, x, y),), (x,))
    # x, y => x holds in integral algebras: not refuted for irl, refuted in Z
    assert not gen.refuted("irl", (x, y), (x,))
    assert gen.refuted("icrl", (x, y), (x,))
    # x, x \ f => (empty) is derivable in ca
    assert not gen.refuted("ca", (x, (gen.LDIV, x, gen.F)), ())


# --- verdict checks ---------------------------------------------------------------


def test_unpatched_items_pass_their_checks(pkg):
    for workload, kind in (("certify", "schema"), ("certify", "cut"), ("certify", "refute"), ("oracle-deep", "oracle")):
        run_checked(pkg, first(workload, kind))


def test_flipped_search_verdict_is_caught(pkg, monkeypatch):
    item = first("certify", "schema")
    monkeypatch.setattr(pkg.prover, "search", lambda s, th: pkg.prover.SearchOutcome(False, None, 0, 0))
    with pytest.raises(workloads.WrongVerdict, match="NOT DERIVABLE"):
        run_checked(pkg, item)


def test_failed_proof_check_is_caught(pkg, monkeypatch):
    item = first("certify", "schema")
    monkeypatch.setattr(pkg.prover, "check_proof", lambda p, th, allow_cut=False: False)
    with pytest.raises(workloads.WrongVerdict, match="check_proof"):
        run_checked(pkg, item)


def test_derivable_claim_refuted_in_z_is_caught(pkg, monkeypatch):
    item = first("prove-seq", "prove", lambda it: it.theory == "rl" and gen.refuted("rl", it.left, it.right))
    identity = first("certify", "schema", lambda it: it.theory == "rl" and it.left == (gen.var("x"),))
    proof = pkg.prover.search(pkg.terms.parse_sequent(identity.text, pkg.terms.Theory.RL), pkg.terms.Theory.RL).proof

    def wrong(s, th):
        return pkg.prover.SearchOutcome(True, pkg.prover.Proof(s, proof.rule, proof.premises), 1, 0)

    monkeypatch.setattr(pkg.prover, "search", wrong)
    monkeypatch.setattr(pkg.prover, "check_proof", lambda p, th, allow_cut=False: True)
    with pytest.raises(workloads.WrongVerdict, match="refuted"):
        run_checked(pkg, item)


def test_valid_claim_on_z_refuted_term_is_caught(pkg, monkeypatch):
    item = first("oracle-deep", "oracle", lambda it: any(gen.eval_z(it.right[0], v) > 0 for v in gen.Z_BANK))
    monkeypatch.setattr(pkg.lg_oracle, "lg_valid_leq_e", constant(True, pkg.lg_oracle.lg_valid_leq_e))
    monkeypatch.setattr(pkg.ablg_oracle, "ablg_valid_leq_e", constant(True, pkg.ablg_oracle.ablg_valid_leq_e))
    with pytest.raises(workloads.WrongVerdict, match="refuted in Z"):
        run_checked(pkg, item)


def test_lg_valid_without_ablg_valid_is_caught(pkg, monkeypatch):
    item = first("oracle-deep", "oracle")
    monkeypatch.setattr(pkg.lg_oracle, "lg_valid_leq_e", constant(True, pkg.lg_oracle.lg_valid_leq_e))
    monkeypatch.setattr(pkg.ablg_oracle, "ablg_valid_leq_e", constant(False, pkg.ablg_oracle.ablg_valid_leq_e))
    with pytest.raises(workloads.WrongVerdict, match="abelian"):
        run_checked(pkg, item)


def test_countermodel_that_does_not_falsify_is_caught(pkg, monkeypatch):
    item = first("certify", "refute", lambda it: it.theory == "rl" and gen.refuted("rl", it.left, it.right))
    trivial = pkg.finmod.enumerate_algebras(1, "rl")[0]
    names = list(gen.VARS)
    monkeypatch.setattr(pkg.finmod, "refute", lambda s, size, cls: (trivial, dict.fromkeys(names, 0)))
    with pytest.raises(workloads.WrongVerdict, match="does not falsify"):
        run_checked(pkg, item)


def test_wrong_verdict_fails_the_run(pkg, monkeypatch, capsys):
    monkeypatch.setattr(pkg.prover, "search", lambda s, th: pkg.prover.SearchOutcome(False, None, 0, 0))
    assert run.main(["--workload", "certify", "--seed", "1", "--seconds", "1"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False


def test_harrell_davis_quantiles():
    assert run.harrell_davis([3.0] * 10, 0.9) == pytest.approx(3.0)
    assert run.harrell_davis(list(range(1, 102)), 0.5) == pytest.approx(51.0)
    values = [1.0, 1.1, 1.2, 5.0, 9.0, 40.0, 41.0, 300.0]
    assert run.harrell_davis(values, 0.5) < run.harrell_davis(values, 0.9) < max(values)
    # an undecided item enters at the limit and pulls p90 toward it
    assert run.harrell_davis(values + [500.0], 0.9) > run.harrell_davis(values + [300.0], 0.9)


# --- tracing ---------------------------------------------------------------------


def span(name, start, end, parent):
    return [name, start, end, parent, 0, None, None]


def test_self_time_arithmetic():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 5.0, 6.0, 0),
        span("a1", 2.0, 3.0, 1),
        span("leaf", 11.0, 12.5, -1),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.5]
    # children that overlap or reach past the parent count once, clipped
    spans = [span("p", 0.0, 4.0, -1), span("c1", 1.0, 3.0, 0), span("c2", 2.0, 5.0, 0)]
    assert tracing.self_times(spans)[0] == 1.0
    assert tracing.contexts([span("prover.search", 0, 3, -1), span("x", 1, 2, 0), span("y", 1, 2, 1)]) == [
        None,
        "prover.search",
        "prover.search",
    ]


def test_wrappers_forward_caches_and_uninstall(pkg):
    originals = {(m, a): getattr(pkg.modules[m], a) for m, a, _, _ in tracing.WRAPPED}
    tracer = tracing.Tracer()
    tracer.install(pkg.modules)
    try:
        pkg.clear_caches()  # reaches the lru caches through the wrappers
        assert pkg.lg_oracle.lg_valid_leq_e.cache_info().currsize == 0
        run_checked(pkg, first("prove-comm", "prove", lambda it: it.theory == "ca"))
        names = {s[tracing.NAME] for s in tracer.spans}
        assert {"terms.parse", "prover.search", "prover.oracle_valid", "ablg_oracle.ablg_valid_leq_e"} <= names
        assert all(s[tracing.END] >= s[tracing.START] for s in tracer.spans)
    finally:
        tracer.uninstall()
    assert all(getattr(pkg.modules[m], a) is fn for (m, a), fn in originals.items())


# --- determinism -----------------------------------------------------------------

# Short items, chosen by their text so that every process picks the same
# ones, decide well inside the limit; certify runs whole.
SAMPLE = {"prove-seq": 40, "prove-comm": 16, "oracle-deep": 15, "certify": 10_000}
SHORT = 60

COUNTS_SCRIPT = """
import json, math, sys
sys.path[:0] = sys.argv[1:3]
import run, tracing, workloads
pkg = workloads.Package()
out = {}
for name, n in json.loads(sys.argv[3]).items():
    wl = workloads.WORKLOADS[name]
    items = [it for it in wl.build(5) if wl.session or len(it.text) <= int(sys.argv[4])][:n]
    metrics, mismatches, records = run.traced_run(pkg, wl, items, run.Limiter(), math.inf)
    assert not mismatches, mismatches
    out[name] = {k: v for k, v in metrics.items() if tracing.unit_of(k) != "ms" and not k.startswith("bench.")}
    out[name]["outcomes"] = run.outcome_counts(records)
print(json.dumps(out, sort_keys=True))
"""


def layer_counts(hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, "-c", COUNTS_SCRIPT, str(HERE), str(SRC), json.dumps(SAMPLE), str(SHORT)],
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(proc.stdout)


# `lg_valid_leq_e` stops at the first invalid meet block while iterating a
# frozenset, whose order follows string hashes; so how many blocks reach the
# saturation depends on PYTHONHASHSEED.  Every other count must not.
HASH_ORDERED = {"lg_oracle.saturation_calls", "lg_oracle.gnf_words", "lg_oracle.saturation.hit_ratio"}


def test_counts_repeat_across_runs_and_hash_seeds():
    a, b, c = layer_counts(0), layer_counts(0), layer_counts(3)
    assert a == b
    for name, counts in a.items():
        assert counts["outcomes"] == {"decided": counts["outcomes"]["decided"]}, name
        other = {k: v for k, v in c[name].items() if k not in HASH_ORDERED}
        assert {k: v for k, v in counts.items() if k not in HASH_ORDERED} == other, name
    assert a["prove-seq"]["prover.goals_expanded"] > 0
    assert a["prove-comm"]["ablg_oracle.queries"] > 0
    assert a["oracle-deep"]["lg_oracle.queries"] > 0
    assert a["certify"]["cutelim.cuts_in"] > 0
    assert a["certify"]["finmod.algebras.rl"] > 0


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = run.end_to_end([1.0, None], 0.1, 30.0, 0.5)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}
    layer = list(tracing.layer_metrics([], {}, [])) + ["bench.trace_overhead_frac"]
    design = json.loads((HERE / "design.json").read_text())
    for wl in workloads.WORKLOADS.values():
        recorded = design["workloads"][wl.name]
        assert (recorded["items"], recorded["trace_items"]) == (wl.items, wl.trace_items), wl.name
        assert design["per_item_limit_s"][wl.name] == wl.limit_s, wl.name
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: tracing.unit_of(k) for k in layer}
