"""Proof JSON: the pinned proofs survive a load and a dump byte for byte, a
load reads every formula as the parser does, and wrongly typed fields are
clean errors.  Proof nodes and sequents stay frozen records through copy
and pickle."""

import copy
import json
import pickle
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest

from icrl.cli import run
from icrl.prover import Proof, proof_from_dict, proof_from_json, proof_to_json
from icrl.terms import Theory, _parse_sequent

HERE = Path(__file__).parent


def _golden_proofs():
    for case in json.loads((HERE / "golden_proofs.json").read_text(encoding="utf-8")):
        if case["proof"] is not None:
            yield Theory(case["theory"]), case["proof"]


def _same_nodes(p: Proof, d: dict, th: Theory):
    """p was loaded from d: each node holds what the parser makes of its text,
    whether the load read it from the formula table or not."""
    assert p.conclusion == _parse_sequent(d["conclusion"], th), d["conclusion"]
    certs = d.get("certificate", {"sequents": []})["sequents"]
    assert [c.sequent for c in p.certificates] == [_parse_sequent(s, th) for s in certs]
    assert len(p.premises) == len(d["premises"])
    for q, e in zip(p.premises, d["premises"]):
        _same_nodes(q, e, th)


def test_golden_proofs_load_and_dump_byte_identically():
    blobs = list(_golden_proofs())
    assert {th for th, _ in blobs} == set(Theory)
    for th, blob in blobs:
        assert proof_to_json(proof_from_json(blob, th)) == blob


def test_loading_parses_each_formula_as_parse_sequent_does():
    certified = 0
    for th, blob in _golden_proofs():
        p = proof_from_json(blob, th)
        _same_nodes(p, json.loads(blob), th)
        certified += any(q.certificates for q in p.walk())
    assert certified  # certificate sequents are compared too


def test_proofs_and_sequents_are_frozen_records():
    th, blob = next(iter(_golden_proofs()))
    p = proof_from_json(blob, th)
    for record in (p, p.conclusion):
        assert not hasattr(record, "__dict__")
        for f in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))
    twin = proof_from_json(blob, th)
    assert twin == p and hash(twin) == hash(p) and repr(twin) == repr(p)
    assert twin.conclusion == p.conclusion and hash(twin.conclusion) == hash(p.conclusion)
    assert Proof(p.conclusion, p.rule) == Proof(conclusion=p.conclusion, rule=p.rule, premises=())


@pytest.mark.parametrize("roundtrip", [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["copy", "deepcopy", "pickle"])
def test_golden_proofs_copy_and_unpickle_equal(roundtrip):
    for th, blob in _golden_proofs():
        p = proof_from_json(blob, th)
        back = roundtrip(p)
        assert back == p and proof_to_json(back) == blob


def test_golden_cut_proofs_load_and_dump_to_the_same_dicts():
    cases = json.loads((HERE / "golden_cutelim.json").read_text(encoding="utf-8"))
    for case in cases:
        th = Theory(case["theory"])
        for d in (case["cut_proof"], case["cut_free"]):
            assert json.loads(proof_to_json(proof_from_dict(d, th))) == d


def test_non_ascii_names_are_written_as_json_dumps_writes_them():
    node = {
        "certificate": {"oracle": "lg", "sequents": ["é, x' => é", "ß_1 => ß_1"]},
        "conclusion": "é, x' => é",
        "premises": [{"conclusion": "é => é", "premises": [], "rule": "id"}],
        "rule": "lg-w",
    }
    p = proof_from_dict(node, Theory.ICRL)
    assert proof_to_json(p) == json.dumps(node, indent=2, sort_keys=True) + "\n"


_X = {"conclusion": "x => x", "rule": "id"}


@pytest.mark.parametrize(
    "node, message",
    [
        ({"conclusion": 5, "rule": "id"}, "malformed proof node"),
        ({"conclusion": "x => x", "rule": ["id"]}, "malformed proof node"),
        ({**_X, "premises": 5}, "malformed proof node"),
        ({**_X, "rule": "w", "premises": [{"conclusion": ["x => x"], "rule": "id"}]},
         "malformed proof node"),
        ({**_X, "certificate": {"oracle": 1, "sequents": ["x => x"]}}, "malformed certificate"),
        ({**_X, "certificate": {"oracle": "lg", "sequents": "x => x"}}, "malformed certificate"),
        ({**_X, "certificate": {"oracle": "lg", "sequents": [5]}}, "malformed certificate"),
        ({**_X, "certificate": ["lg", ["x => x"]]}, "malformed certificate"),
    ],
)
def test_wrongly_typed_fields_are_clean_errors(node, message, tmp_path, capsys):
    with pytest.raises(ValueError, match=message):
        proof_from_dict(node, Theory.ICRL)
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(node))
    assert run(["check", "--theory", "icrl", str(path)]) == 2
    assert message in capsys.readouterr().err
