"""Tenant scoping as a data-model column (reference multi-tenancy: every
job/object is tenant-scoped, routes_jobs.py:52-63): tenant_id flows
corpus -> extraction output untouched, scope_tenant filters, and shard
manifests count docs per tenant."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data as rd

from ocr_platform_ray import corpus
from ocr_platform_ray.checkpoint import load_manifests, run_job
from ocr_platform_ray.pipeline import (
    build_extract_pipeline,
    corpus_from_documents,
    scope_tenant,
)


def _tenant_docs(n=24, seed=5):
    docs = corpus.generate_docs(n, seed=seed)
    tbl = corpus.docs_to_table(docs)
    tenants = pa.array(
        [f"t{i % 3}" for i in range(len(docs))], pa.string()
    )
    return tbl.append_column("tenant_id", tenants)


def test_tenant_passthrough_and_scoped_equals_filtered():
    tbl = _tenant_docs()
    full = build_extract_pipeline(rd.from_arrow(tbl)).to_pandas()
    assert "tenant_id" in full.columns
    # tenant survives extraction row-aligned with its doc
    want = dict(
        zip(tbl.column("doc_id").to_pylist(), tbl.column("tenant_id").to_pylist())
    )
    assert dict(zip(full["doc_id"], full["tenant_id"])) == want
    scoped = build_extract_pipeline(
        scope_tenant(rd.from_arrow(tbl), "t1")
    ).to_pandas()
    assert set(scoped["tenant_id"]) == {"t1"}
    key = lambda df: df.sort_values("doc_id").reset_index(drop=True)
    filtered = key(full[full["tenant_id"] == "t1"])
    scoped = key(scoped)
    assert scoped["doc_id"].tolist() == filtered["doc_id"].tolist()
    assert scoped["n_spans_out"].tolist() == filtered["n_spans_out"].tolist()


def test_scope_tenant_compares_the_id_as_a_value():
    """A tenant id is compared as a value, never pasted into an
    expression: an id that reads like a filter clause, or one with a
    quote in it, selects exactly its own rows."""
    ids = ["t0", "t0' or tenant_id != '", "o'brien"]
    tbl = pa.table({
        "doc_id": [f"d{i}" for i in range(3 * len(ids))],
        "tenant_id": ids * 3,
    })
    for tid in ids:
        got = scope_tenant(rd.from_arrow(tbl), tid).take_all()
        want = [d for d, t in zip(tbl["doc_id"].to_pylist(), ids * 3) if t == tid]
        assert sorted(r["doc_id"] for r in got) == want
        assert {r["tenant_id"] for r in got} == {tid}


def test_corpus_from_documents_carries_tenant():
    ds = corpus_from_documents("/root/testdata/sf0.001")
    assert "tenant_id" in ds.schema().names
    row = ds.take(1)[0]
    assert row["tenant_id"] == f"t{int(row['doc_id'].split('-')[-1]) % 4}"


def test_manifest_counts_docs_per_tenant(tmp_path):
    in_path = tmp_path / "docs.parquet"
    tbl = _tenant_docs()
    pq.write_table(tbl, in_path)
    out = str(tmp_path / "out")
    run_job(str(in_path), out, n_shards=2)
    ms = load_manifests(out)
    merged = {}
    for m in ms:
        for t, n in m["n_docs_by_tenant"].items():
            merged[t] = merged.get(t, 0) + n
    want = {}
    for t in tbl.column("tenant_id").to_pylist():
        want[t] = want.get(t, 0) + 1
    assert merged == want


def test_no_tenant_column_manifest_empty(tmp_path):
    in_path = tmp_path / "docs.parquet"
    pq.write_table(corpus.generate_corpus_table(10, seed=2), in_path)
    out = str(tmp_path / "out")
    run_job(str(in_path), out, n_shards=1)
    (m,) = load_manifests(out)
    assert m["n_docs_by_tenant"] == {}


def test_job_tenant_scope_and_resume_invalidation(tmp_path, ray_session):
    """--tenant scopes the whole checkpointed job and participates in the
    resume fingerprint: rerunning with a different tenant invalidates and
    reruns the shards instead of silently reusing the other tenant's
    output."""
    inp = os.path.join(str(tmp_path), "docs.parquet")
    out = os.path.join(str(tmp_path), "out")
    pq.write_table(_tenant_docs(18, seed=7), inp)
    s1 = run_job(inp, out, n_shards=2, tenant="t1")
    assert s1["shards_ran"] == [0, 1]
    got = pq.read_table(
        os.path.join(out, "part-00000")
    ).column("tenant_id").to_pylist() + pq.read_table(
        os.path.join(out, "part-00001")
    ).column("tenant_id").to_pylist()
    assert set(got) == {"t1"} and len(got) == 6  # 18 docs / 3 tenants
    # same tenant resumes
    s2 = run_job(inp, out, n_shards=2, tenant="t1")
    assert s2["shards_ran"] == [] and s2["shards_skipped"] == [0, 1]
    # different tenant invalidates + reruns
    s3 = run_job(inp, out, n_shards=2, tenant="t2")
    assert sorted(s3["shards_invalidated"]) == [0, 1]
    assert s3["shards_ran"] == [0, 1]
    got3 = pq.read_table(
        os.path.join(out, "part-00000")
    ).column("tenant_id").to_pylist()
    assert set(got3) <= {"t2"}
