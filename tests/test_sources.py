"""JSONL corpus source: schema-enforced ingestion equals the parquet path;
malformed lines/rows are dropped (dead-letter at read)."""

import json
import sys
import types

import pandas as pd
import pyarrow.parquet as pq

import ray.data as rd

from ocr_platform_ray import corpus, oracle, pipeline
from ocr_platform_ray.kernels.extract import ExtractConfig
from ocr_platform_ray.pipeline import build_extract_pipeline
from ocr_platform_ray.sources import read_corpus_jsonl, write_corpus_jsonl


def test_jsonl_equals_parquet_pipeline(tmp_path):
    docs = corpus.generate_docs(30, seed=77)
    jl = tmp_path / "docs.jsonl"
    write_corpus_jsonl(docs, str(jl))
    expected = oracle.oracle_extract_docs(docs, ExtractConfig())
    ds = read_corpus_jsonl(str(jl))
    out = build_extract_pipeline(ds)
    got = {}
    for b in out.iter_batches(batch_size=64, batch_format="pyarrow"):
        for r in b.to_pylist():
            got[r["doc_id"]] = [
                (s["kind"], s["text"], s["media_ref"], s["offset"])
                for s in r["spans_out"]
            ]
    assert got == expected


def test_malformed_lines_dropped(tmp_path):
    jl = tmp_path / "bad.jsonl"
    rows = [
        json.dumps({"doc_id": "ok-1", "spans": [
            {"kind": "text", "text": "hi", "media_ref": "", "offset": 0}]}),
        "{not json",
        json.dumps({"doc_id": 42, "spans": []}),            # wrong doc_id type
        json.dumps({"doc_id": "ok-2", "spans": [
            {"kind": "weird", "text": "", "media_ref": "", "offset": 0}]}),  # bad kind
        json.dumps({"doc_id": "ok-3", "spans": []}),
    ]
    jl.write_text("\n".join(rows) + "\n")
    ds = read_corpus_jsonl(str(jl))
    ids = sorted(r["doc_id"] for r in ds.take_all())
    assert ids == ["ok-1", "ok-3"]


def test_coercion_contract_edge_shapes(tmp_path):
    """The reader's coercion contract on valid-JSON edge shapes: null and
    missing fields coerce to defaults, extra keys are ignored, rows with
    no doc_id, an unknown span kind or an out-of-int32 offset are
    dropped."""
    jl = tmp_path / "clean.jsonl"
    rows = [
        # nominal row
        json.dumps({"doc_id": "a", "spans": [
            {"kind": "text", "text": "hi", "media_ref": "", "offset": 3}]}),
        # null text / media_ref -> "", missing offset -> 0
        json.dumps({"doc_id": "b", "spans": [
            {"kind": "image", "text": None, "media_ref": None}]}),
        # missing spans -> empty list
        json.dumps({"doc_id": "c"}),
        # extra keys ignored (top level and span level)
        json.dumps({"doc_id": "d", "junk": 1, "spans": [
            {"kind": "text", "text": "x", "media_ref": "", "offset": 0,
             "extra": True}]}),
        # missing doc_id -> dropped; bad kind -> dropped
        json.dumps({"spans": []}),
        json.dumps({"doc_id": "e", "spans": [
            {"kind": "video", "text": "", "media_ref": "", "offset": 0}]}),
        # span offset outside int32 -> dropped, not a failed batch
        json.dumps({"doc_id": "f", "spans": [
            {"kind": "text", "text": "x", "media_ref": "", "offset": 2**40}]}),
    ]
    jl.write_text("\n".join(rows) + "\n")
    got = {r["doc_id"]: r["spans"] for r in read_corpus_jsonl(str(jl)).take_all()}
    assert sorted(got) == ["a", "b", "c", "d"]
    assert got["a"] == [{"kind": "text", "text": "hi", "media_ref": "", "offset": 3}]
    assert got["b"] == [{"kind": "image", "text": "", "media_ref": "", "offset": 0}]
    assert got["c"] == []
    assert got["d"] == [{"kind": "text", "text": "x", "media_ref": "", "offset": 0}]


def test_read_corpus_dispatches_to_lance(monkeypatch):
    """With ``lance`` importable, the io seam hands the path and the
    reader's arguments to ``ray.data.read_lance``."""
    calls = []
    monkeypatch.setitem(sys.modules, "lance", types.ModuleType("lance"))
    monkeypatch.setattr(
        rd, "read_lance", lambda path, **kw: calls.append((path, kw)) or "lance-ds"
    )
    got = pipeline.read_corpus("s3://bucket/docs.lance", columns=["doc_id", "spans"])
    assert got == "lance-ds"
    assert calls == [("s3://bucket/docs.lance", {"columns": ["doc_id", "spans"]})]


def test_read_corpus_falls_back_to_parquet(monkeypatch, tmp_path):
    """Without ``lance`` the seam reads Parquet, schema metadata stripped."""
    def no_lance(*_a, **_k):
        raise AssertionError("read_lance called without lance")

    monkeypatch.setitem(sys.modules, "lance", None)  # import lance -> ImportError
    monkeypatch.setattr(rd, "read_lance", no_lance)
    path = tmp_path / "documents.parquet"
    pd.DataFrame({"doc_id": [1, 2], "text": ["a", "b"]}).to_parquet(path)
    ds = pipeline.read_corpus(str(path), columns=["doc_id"])
    assert sorted(r["doc_id"] for r in ds.take_all()) == [1, 2]
    assert not ds.schema().base_schema.metadata
