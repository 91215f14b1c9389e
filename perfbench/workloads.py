"""The benchmark's workloads.

Each workload writes its seeded inputs, computes its expected outputs once
in this process (untimed), and then offers:

- ``warm_up()``: one small pass, the last step of set-up;
- ``run_pass()``: one timed unit of work, returning ``(wall_s, result)``;
- ``check(result)``: output rows that differ from the expected ones
  (untimed);
- ``trace(tracer, untraced_wall)``: the per-layer metrics of one traced
  pass plus the in-process layer walks.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import os
import shutil
import time
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq

from . import data, layers


# the extraction workloads draw their docs from a seeded pool this many
# times their size (see data.spread_pick)
POOL = 16


# ----------------------------------------------------------- span digests

def seq_digest(doc_id: str, seq) -> int:
    """64-bit digest of one output row: doc id and its ordered
    (kind, text, media_ref, offset) span sequence."""
    canon = repr((doc_id, [tuple(s) for s in seq])).encode()
    return int.from_bytes(hashlib.blake2b(canon, digest_size=8).digest(), "little", signed=True)


def digest_batch(batch: pa.Table) -> pa.Table:
    """Pipeline consumer: one (doc_id, digest) row per output row."""
    ids = batch.column("doc_id").to_pylist()
    spans = batch.column("spans_out").to_pylist()
    return pa.table({
        "doc_id": ids,
        "digest": [
            seq_digest(d, [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in row])
            for d, row in zip(ids, spans)
        ],
    })


def oracle_digests(docs: list[dict]) -> dict[str, int]:
    from ocr_platform_ray.oracle import oracle_extract_docs

    return {d: seq_digest(d, seq) for d, seq in oracle_extract_docs(docs).items()}


def count_mismatches(expected: dict[str, int], got: list[tuple[str, int]]) -> int:
    """Rows that are wrong, duplicated, unexpected or missing."""
    seen: set[str] = set()
    bad = 0
    for doc_id, dig in got:
        if doc_id in seen or expected.get(doc_id) != dig:
            bad += 1
        seen.add(doc_id)
    return bad + sum(1 for d in expected if d not in seen)


# ------------------------------------------------------- extract_fused

class ExtractFused:
    """``build_extract_pipeline(corpus_from_documents(dir))``: the flagship
    fused path, consumed through a distributed digest map."""

    name = "extract_fused"
    n_docs = 1000

    def __init__(self, work: str, seed: int):
        self.seed = seed
        self.in_dir = os.path.join(work, "in")
        self.warm_dir = os.path.join(work, "warm")

    @property
    def rows(self) -> int:
        return self.n_docs

    def make_inputs(self) -> None:
        from ocr_platform_ray.corpus import spans_from_document

        pool = data.documents_table(self.n_docs * POOL, self.seed)
        # the spans corpus_from_documents derives from each row (replica 0)
        spans = [
            spans_from_document(d, t)
            for d, t in zip(pool.column("doc_id").to_pylist(), pool.column("text").to_pylist())
        ]
        keep = data.spread_pick([data.image_count(s) for s in spans], self.n_docs)
        docs = pool.take(keep)
        data.write_tables(self.in_dir, {"documents": docs})
        data.write_tables(self.warm_dir, {"documents": data.documents_table(32, self.seed + 1)})
        self.docs = [
            {"doc_id": f"doc-0-{d:08d}", "spans": spans[i], "tenant_id": f"t{d % 4}"}
            for i, d in zip(keep, docs.column("doc_id").to_pylist())
        ]

    def expected(self) -> None:
        self.expect = oracle_digests(self.docs)

    def _pipeline(self, in_dir: str):
        from ocr_platform_ray.pipeline import (
            PipelineOptions, build_extract_pipeline, corpus_from_documents,
        )

        out = build_extract_pipeline(corpus_from_documents(in_dir), opts=PipelineOptions())
        return out.map_batches(digest_batch, batch_format="pyarrow")

    def warm_up(self) -> None:
        self._pipeline(self.warm_dir).take_all()

    def run_pass(self):
        t0 = time.perf_counter()
        ds = self._pipeline(self.in_dir)
        rows = ds.take_all()
        wall = time.perf_counter() - t0
        self.last_ds = ds
        return wall, rows

    def check(self, rows) -> int:
        return count_mismatches(self.expect, [(r["doc_id"], r["digest"]) for r in rows])

    def trace(self, tracer: layers.Tracer, untraced_wall: float) -> tuple[dict, int]:
        from ocr_platform_ray.schema import DOCUMENTS_TENANT_SCHEMA
        from ocr_platform_ray.stages.extract import ExtractStage

        with tracer.span("pass.traced"):
            wall, rows = self.run_pass()
        bad = self.check(rows)
        text = self.last_ds.stats()
        ops = layers.parse_stats(text)
        tracer.stats = {"text": text, "operators": ops}
        m = layers.ray_data_metrics(ops)
        table = pa.Table.from_pylist(self.docs, schema=DOCUMENTS_TENANT_SCHEMA)
        m.update(layers.layer_walk(self.docs, table, [ExtractStage()], tracer))
        m["pipeline.traced_wall_s"] = wall
        m["pipeline.gap_s"] = wall - m["stages.normalize_s"] - m["stages.extract_s"]
        m["trace.overhead_s"] = wall - untraced_wall
        return m, bad


# ------------------------------------------------------- job_two_phase

class JobTwoPhase:
    """``checkpoint.run_job(two_phase=True)`` over a heavy-tailed corpus
    written as parquet parts: detect -> checkpoint write -> read ->
    recognize -> write -> manifest commit, one Dataset per shard and
    phase. The traced run adds a resume no-op and a one-doc rerun."""

    name = "job_two_phase"
    n_docs = 300
    n_files = 8
    n_shards = 2

    def __init__(self, work: str, seed: int):
        self.seed = seed
        self.work = work
        self.in_dir = os.path.join(work, "in")
        self.warm_dir = os.path.join(work, "warm")
        self.k = 0

    @property
    def rows(self) -> int:
        return self.n_docs

    def make_inputs(self) -> None:
        from ocr_platform_ray import corpus, media

        pool = corpus.generate_docs(self.n_docs * POOL, self.seed)
        keep = data.spread_pick([data.image_count(d["spans"]) for d in pool], self.n_docs)
        self.docs = [pool[i] for i in keep]
        data.write_split(self.in_dir, corpus.docs_to_table(self.docs), self.n_files)
        data.write_split(self.warm_dir, corpus.generate_corpus_table(16, self.seed + 1), 1)
        self.rerun_doc = self.docs[self.n_docs // 2]["doc_id"]
        self.dead_letters = 0
        for doc in self.docs:
            for sp in doc["spans"]:
                if sp["kind"] == "image":
                    try:
                        media.parse_ref(sp["media_ref"])
                    except ValueError:
                        self.dead_letters += 1

    def expected(self) -> None:
        self.expect = oracle_digests(self.docs)

    def _job(self, in_dir: str, out_dir: str, **kw) -> dict:
        from ocr_platform_ray.checkpoint import run_job

        return run_job(in_dir, out_dir, n_shards=kw.pop("n_shards", self.n_shards),
                       two_phase=True, **kw)

    def warm_up(self) -> None:
        out = os.path.join(self.work, "warm-out")
        self._job(self.warm_dir, out, n_shards=1)
        shutil.rmtree(out, ignore_errors=True)

    def run_pass(self):
        self.k += 1
        out = os.path.join(self.work, f"out-{self.k}")
        t0 = time.perf_counter()
        self._job(self.in_dir, out)
        return time.perf_counter() - t0, out

    def check(self, out: str) -> int:
        """Digest mismatches of the committed parts, plus any difference of
        the manifest totals from the input's docs and dead-letter count."""
        from ocr_platform_ray.checkpoint import load_manifests

        got = []
        for f in sorted(glob.glob(os.path.join(out, "part-*", "*.parquet"))):
            got.extend(
                (r["doc_id"], r["digest"])
                for r in digest_batch(pq.read_table(f, columns=["doc_id", "spans_out"])).to_pylist()
            )
        man = load_manifests(out)
        bad = count_mismatches(self.expect, got)
        bad += abs(sum(m["n_docs"] for m in man) - self.n_docs)
        bad += abs(sum(m["n_span_errors"] for m in man) - self.dead_letters)
        shutil.rmtree(out, ignore_errors=True)
        return bad

    def trace(self, tracer: layers.Tracer, untraced_wall: float) -> tuple[dict, int]:
        from ocr_platform_ray.checkpoint import load_manifests
        from ocr_platform_ray.corpus import docs_to_table
        from ocr_platform_ray.stages.extract import DetectStage, RecognizeStage

        out = os.path.join(self.work, "out-traced")
        # GRAFT_STATS makes each shard print its Dataset.stats() to stderr
        err = io.StringIO()
        prev = os.environ.get("GRAFT_STATS")
        os.environ["GRAFT_STATS"] = "1"
        try:
            with tracer.span("pass.traced"), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                self._job(self.in_dir, out)
                wall = time.perf_counter() - t0
        finally:
            if prev is None:
                del os.environ["GRAFT_STATS"]
            else:
                os.environ["GRAFT_STATS"] = prev
        ops = layers.parse_stats(err.getvalue())
        tracer.stats = {"text": err.getvalue(), "operators": ops}
        man = load_manifests(out)
        tracer.manifests = man
        m = layers.ray_data_metrics(ops)
        m.update(layers.checkpoint_metrics(man, out))
        with tracer.span("checkpoint.resume_noop"):
            t0 = time.perf_counter()
            noop = self._job(self.in_dir, out)
            m["checkpoint.resume_noop_s"] = time.perf_counter() - t0
        with tracer.span("checkpoint.rerun"):
            t0 = time.perf_counter()
            rerun = self._job(self.in_dir, out, invalidate_doc_ids=[self.rerun_doc])
            m["checkpoint.rerun_s"] = time.perf_counter() - t0
        bad = self.check(out)
        bad += len(noop["shards_ran"]) + abs(len(rerun["shards_ran"]) - 1)
        m.update(layers.layer_walk(
            self.docs, docs_to_table(self.docs), [DetectStage(), RecognizeStage()], tracer
        ))
        m["pipeline.traced_wall_s"] = wall
        m["pipeline.gap_s"] = wall - m["stages.normalize_s"] - m["stages.extract_s"]
        m["trace.overhead_s"] = wall - untraced_wall
        return m, bad


# ----------------------------------------------------------- query_mix

def _norm(v):
    if isinstance(v, float):
        return None if v != v else round(v, 6)
    if hasattr(v, "item"):  # numpy scalar
        return _norm(v.item())
    return v


def frame_mismatches(got, want) -> int:
    """Rows in one frame's multiset but not the other's (floats compared
    to 6 decimals, column order ignored)."""
    if sorted(got.columns) != sorted(want.columns):
        return len(got) + len(want)

    def rows(df) -> Counter:
        cols = sorted(df.columns)
        return Counter(tuple(_norm(v) for v in r) for r in df[cols].itertuples(index=False))

    a, b = rows(got), rows(want)
    return sum(((a - b) + (b - a)).values())


def minhash_reference(docs: pa.Table, threshold: float = 0.7):
    """Single-process LSH candidates from the same band rows: every pair
    sharing a (band, band_hash) bucket among its first 64 doc ids whose
    signatures agree on >= threshold of their hashes."""
    import numpy as np
    import pandas as pd

    from ocr_platform_ray.functions.dedup import minhash_band_rows

    bands = minhash_band_rows(docs.select(["doc_id", "text"])).to_pandas()
    bands = bands[bands.duplicated(["band", "band_hash"], keep=False)]
    pairs: dict[tuple[int, int], float] = {}
    for _key, sub in bands.groupby(["band", "band_hash"]):
        sub = sub.drop_duplicates("doc_id").sort_values("doc_id").head(64)
        sigs = np.stack([np.frombuffer(s, dtype=np.uint64) for s in sub["sig"]])
        ids = sub["doc_id"].tolist()
        eq = (sigs[:, None, :] == sigs[None, :, :]).mean(axis=2)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                if eq[i, j] >= threshold:
                    pairs[(ids[i], ids[j])] = round(float(eq[i, j]), 6)
    return pd.DataFrame(
        [(a, b, e) for (a, b), e in sorted(pairs.items())],
        columns=["doc_a", "doc_b", "est_jaccard"],
    )


class QueryMix:
    """Four registry queries, one per functions module family: exact dedup
    (groupby), MinHash LSH banding, a TPC-H Q3-shaped hash join and
    30-minute sessionization of an events stream."""

    name = "query_mix"
    n_docs = 500
    n_events = 10_000
    n_orders = 10_000

    def __init__(self, work: str, seed: int):
        self.seed = seed
        self.in_dir = os.path.join(work, "in")
        self.warm_dir = os.path.join(work, "warm")

    def make_inputs(self) -> None:
        self.tables = {
            "documents": data.documents_table(self.n_docs, self.seed),
            "events": data.events_table(self.n_events, self.n_events // 60, self.seed),
            **data.tpch_tables(self.n_orders, self.seed),
        }
        data.write_tables(self.in_dir, self.tables)
        data.write_tables(self.warm_dir, {"documents": data.documents_table(32, self.seed + 1)})

    @property
    def rows(self) -> int:
        """Input rows the four queries read."""
        return sum(t.num_rows for t in self.tables.values())

    def expected(self) -> None:
        import duckdb

        from ocr_platform_ray.queries import oracle_sql

        sql = oracle_sql()
        con = duckdb.connect()
        try:
            for t in self.tables:
                path = os.path.join(self.in_dir, f"{t}.parquet")
                con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
            self.expect = {
                q: con.execute(sql[q]).df()
                for q in layers.QUERIES if q != "q_minhash_pairs"
            }
        finally:
            con.close()
        self.expect["q_minhash_pairs"] = minhash_reference(self.tables["documents"])

    def warm_up(self) -> None:
        from ocr_platform_ray.queries import q_exact_dedup

        q_exact_dedup(self.warm_dir).to_pandas()

    def _run(self, tracer: layers.Tracer | None):
        from ocr_platform_ray import queries

        out, times = {}, {}
        for q in layers.QUERIES:
            with tracer.span(f"queries.{q}") if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                out[q] = getattr(queries, q)(self.in_dir).to_pandas()
                times[q] = time.perf_counter() - t0
        return sum(times.values()), out, times

    def run_pass(self):
        wall, out, _times = self._run(None)
        return wall, out

    def check(self, out) -> int:
        return sum(frame_mismatches(out[q], self.expect[q]) for q in layers.QUERIES)

    def trace(self, tracer: layers.Tracer, untraced_wall: float) -> tuple[dict, int]:
        with tracer.span("pass.traced"):
            wall, out, times = self._run(tracer)
        m = {f"queries.{q}_s": s for q, s in times.items()}
        m["pipeline.traced_wall_s"] = wall
        m["trace.overhead_s"] = wall - untraced_wall
        return m, self.check(out)


WORKLOADS = {w.name: w for w in (ExtractFused, JobTwoPhase, QueryMix)}

