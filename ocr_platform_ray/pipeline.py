"""Pipeline assembly: Ray Data Dataset graphs for the extraction engine.

Physical design (SURVEY §4, §7.4):
- the main path has ZERO shuffles — every span of a document lives in its
  row, so normalize / detect / recognize / merge are all row-local;
- skew (north_rule): one mechanism, sized once at ingest. The bench
  corpus's read splits into 2 x CPU blocks (below), so every CPU has
  stage tasks at any CPU count; the stage maps over whole blocks and
  walks each in bounded 32-doc kernel batches (``uniform_batch_size``).
  Every span of a doc lives in its row, so no doc is ever split across
  batches and nothing re-shuffles rows by cost. On the bench corpus
  (sf0.1: image spans per doc mean 3, p99 35, max 40) a 32-doc batch's
  cost varies little. A span-count bucket split over a materialized
  boundary used to be selectable; it measured +4 s at sf0.1 and was
  slower at every point of a heavy-tail grid (BENCH/BASELINE.md), so it
  is gone;
- one stage class, ``ExtractStage``, runs every extraction Dataset: the
  fused run (recognize on), the two-phase detect phase (recognize off; it
  writes the ``detect`` checkpoint column) and the recognize phase
  (recognize on over that column), so the two paths cannot drift;
- the stage is a task map over a callable stage instance: stage state
  (glyph templates) is built at import once per worker process, and Ray
  reuses task workers across Datasets in a session, so no actor pool
  starts per Dataset (a two-phase job executes one per shard and phase).
  Task maps also let Ray Data fuse the normalize prefix into the stage's
  operator, and cannot reserve every CPU the way a fixed actor pool can;
- every task on the extraction path (the reads, the job's shard pick,
  tenant scope and dedup-survivor filter, normalize, the stage, the
  result overrides and the job's writes) takes the same remote args,
  ``PipelineOptions().remote_args()``, and the stage sets no batch size,
  so Ray Data fuses a checkpoint phase into one operator from the read
  to the write, one task per input block: an operator with different
  args, or a map with a batch size after a read, would start an operator
  of its own;
- extraction Datasets run without Ray Data's per-operator resource
  reservation (``_stage_map``). The reservation allocator holds at least
  one task's CPU for every operator, so on a 2-CPU session a light
  consumer map after the stage kept one slot and the stage ran one task
  at a time. The flag is set on the Dataset's own ``DataContext`` copy,
  never on the global one, so query Datasets keep Ray's default;
- the bench corpus splits at the read (``override_num_blocks`` = 2 x CPU),
  not through a repartition barrier, so ``to_spans`` fuses into the
  stage's operator (to_spans -> prepare -> stage is one operator) and the
  stage sees up to 2 x CPU tasks at any CPU count. Ray Data never fuses
  a split read (``ReadParquet->SplitBlocks``) into the map after it, so
  that read stays an operator of its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from .corpus import spans_from_document
from .kernels.extract import ExtractConfig
from .stages.extract import BATCH_DOCS, ExtractStage
from .stages.normalize import normalize_spans_batch


@dataclass
class PipelineOptions:
    """The extraction path's two settings: the docs per kernel batch inside
    a stage call and the retry budget of every task."""

    uniform_batch_size: int = BATCH_DOCS
    # retry budget (reference: Celery autoretry <=3/<=2, ocr_tasks.py:58-65;
    # here: per-task retries of a crashed worker, lineage re-executes
    # blocks). Ray Data's task default retries forever, so a poison row
    # that kills its worker would loop.
    max_task_retries: int = 3

    def remote_args(self) -> dict:
        """Ray remote args of every task on the extraction path: the reads,
        the maps and the job's writes. Ray Data fuses two operators only
        when their args match, so one set makes a checkpoint phase's read,
        maps and write one operator."""
        return {"num_cpus": 1, "max_retries": self.max_task_retries}

    def task_kwargs(self) -> dict:
        """``map_batches`` arguments of every map on the extraction path,
        the stage's included."""
        return {"batch_format": "pyarrow", **self.remote_args()}


def read_corpus(path: str, **kwargs) -> rd.Dataset:
    """Lance-shaped io seam: reads Lance when available, else Parquet
    (SURVEY §7.0 — pylance is optional; single documented swap point).
    ``kwargs`` go to the reader. The Parquet path's metadata strip takes
    the stage's remote args, so it fuses into the stage's operator."""
    try:
        import lance  # noqa: F401
    except ImportError:
        from .sources import read_parquet_clean

        return read_parquet_clean(path, remote_args=PipelineOptions().remote_args(), **kwargs)
    return rd.read_lance(path, **kwargs)


def corpus_from_documents(sf_dir: str, replicate: int = 1) -> rd.Dataset:
    """Interleaved-span corpus derived deterministically from the driver's
    ``documents`` table (doc_id, text) — the bench input (TESTDATA.md).

    ``replicate`` scales the corpus r-fold with distinct doc ids and
    distinct image seeds per replica (used by the scaling benchmark so
    compute, not fixed pipeline overhead, dominates the measurement)."""
    replicate = max(1, replicate)

    def to_spans(batch: pa.Table) -> pa.Table:
        from .schema import DOCUMENTS_TENANT_SCHEMA

        rows = []
        for d, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            for r in range(replicate):
                rows.append(
                    {
                        "doc_id": f"doc-{r}-{int(d):08d}",
                        "spans": spans_from_document(int(d) + r * 1_000_000, t),
                        # tenant scoping column (reference multi-tenancy):
                        # same derivation as the q_tenant_stats oracle SQL
                        "tenant_id": f"t{int(d) % 4}",
                    }
                )
        return pa.Table.from_pylist(rows, schema=DOCUMENTS_TENANT_SCHEMA)

    # A single small parquet file reads as ~16 blocks whatever the CPU
    # count; stage-task parallelism equals block count, so split the read
    # itself into 2 blocks per CPU. The metadata strip and to_spans carry
    # the stage's remote args, so both fuse into the stage's operator with
    # no barrier between (real corpora arrive in many files and read as
    # many blocks anyway).
    try:
        ncpu = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        ncpu = 8
    return read_corpus(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        override_num_blocks=2 * max(1, ncpu),
    ).map_batches(to_spans, **PipelineOptions().task_kwargs())


def scope_tenant(ds: rd.Dataset, tenant_id: str) -> rd.Dataset:
    """Tenant-scoping filter (reference J3: every job/listing is filtered
    by tenant_id, routes_jobs.py:52-63). The id is compared as a value,
    never pasted into an expression, so any string selects exactly its
    own rows. A map with the extraction path's remote args, so it fuses
    into the stage's operator — at scale, tenant-partitioned input
    directories make this a pruned read instead."""

    def in_tenant(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("tenant_id"), tenant_id))

    return ds.map_batches(in_tenant, **PipelineOptions().task_kwargs())


def _prepared(ds: rd.Dataset, opts: PipelineOptions) -> rd.Dataset:
    """Cheap vectorized prefix: text normalize."""
    return ds.map_batches(normalize_spans_batch, **opts.task_kwargs())


def _stage_map(ds: rd.Dataset, stage, opts: PipelineOptions) -> rd.Dataset:
    """``stage`` (a callable stage instance) as one task map over whole
    blocks; the stage bounds its own kernel batches (``ExtractStage``
    walks a block ``uniform_batch_size`` docs at a time). It takes
    ``task_kwargs`` like every other map on the path and sets no batch
    size, so the read and the maps before it and the write after it fuse
    into its operator, one task per input block, and no pool starts per
    Dataset. The trade-off: a block under ``uniform_batch_size`` docs is
    one task of its own, never bundled with the next block, so an input
    of many tiny files makes many small tasks.

    The Dataset runs without Ray Data's per-operator resource reservation,
    which holds at least one task's CPU for every operator: a light map
    after the stage would otherwise keep a slot the stage cannot use. The
    flag is set on ``ds.context``, the ``DataContext`` copy the lineage
    captured when it was created, so it also covers the caller's input
    lineage and any consumer map added to the result later (the point: a
    downstream map must not take the stage's slot), and never touches
    ``DataContext.get_current()``."""
    ds.context.op_resource_reservation_enabled = False
    return ds.map_batches(stage, batch_size=None, **opts.task_kwargs())


def build_extract_pipeline(
    ds: rd.Dataset,
    cfg: ExtractConfig | None = None,
    opts: PipelineOptions | None = None,
    overrides: list[dict] | None = None,
) -> rd.Dataset:
    """Flagship fused pipeline: docs -> normalize -> ``ExtractStage`` ->
    extracted span sequences. Overrides (human-edit analogue) are
    broadcast once via ``ray.put``."""
    cfg = cfg or ExtractConfig()
    opts = opts or PipelineOptions()
    ov_ref = ray.put(overrides) if overrides else None
    stage = ExtractStage(cfg, ov_ref, batch_size=opts.uniform_batch_size)
    return _stage_map(_prepared(ds, opts), stage, opts)


def apply_result_overrides(
    extracted: rd.Dataset, result_overrides: list[dict] | None
) -> rd.Dataset:
    """Human-edit analogue of PATCH /jobs/{id}/result
    (/root/reference/apps/api/app/api/v1/routes_jobs.py:252-270 — the
    job's whole result JSON is replaced): rows whose doc_id appears in the
    override table get their span sequence replaced wholesale at merge
    time. The table is broadcast once via ``ray.put`` (small side), never
    re-shipped per batch, and fetched once per worker process. Aggregates
    are recomputed from the replacement (confidences read 1.0 — the text
    is human-verified, the reference stores no conf for edited results);
    ``n_span_errors`` is preserved (the edit doesn't un-poison the source
    media). The map takes the stage's remote args, so it fuses into the
    stage's operator."""
    if not result_overrides:
        return extracted
    ov_ref = ray.put(
        {r["doc_id"]: list(r["spans_out"]) for r in result_overrides}
    )
    return extracted.map_batches(
        _override_results(ov_ref), **PipelineOptions().task_kwargs()
    )


@functools.lru_cache(maxsize=8)
def _result_override_table(ov_ref) -> dict:
    """Per-worker memo of a broadcast result-override table, keyed by its
    ObjectRef: fetched once per process, not per batch. Callers only read
    the returned dict."""
    return ray.get(ov_ref)


def _override_results(ov_ref):
    def override_results(batch: pa.Table) -> pa.Table:
        import numpy as np

        ov = _result_override_table(ov_ref)
        doc_ids = batch.column("doc_id").to_pylist()
        hit = np.fromiter((d in ov for d in doc_ids), dtype=bool, count=len(doc_ids))
        if not hit.any():
            return batch
        from .schema import EXTRACTED_SCHEMA
        from .stages.extract import _with_passthrough

        # Only the overridden rows (small side by construction) are
        # materialized row-wise; every other row keeps its original Arrow
        # buffers (filter is a zero-copy-ish mask, no to_pylist).
        over_idx = np.flatnonzero(hit)
        err_col = batch.column("n_span_errors")
        over_rows = []
        for i in over_idx:
            spans = [
                {
                    "kind": s["kind"],
                    "text": s["text"],
                    "media_ref": s.get("media_ref", ""),
                    "offset": j,
                }
                for j, s in enumerate(ov[doc_ids[i]])
            ]
            over_rows.append(
                {
                    "doc_id": doc_ids[i],
                    "spans_out": spans,
                    "n_spans_out": len(spans),
                    "n_blocks": sum(1 for s in spans if s["kind"] == "image"),
                    "min_conf": 1.0,
                    "mean_conf": 1.0,
                    "n_span_errors": err_col[int(i)].as_py(),
                }
            )
        over_tbl = _with_passthrough(
            pa.Table.from_pylist(over_rows, schema=EXTRACTED_SCHEMA),
            batch.take(pa.array(over_idx)),
        ).select(batch.column_names)
        keep_tbl = batch.filter(pa.array(~hit))
        combined = pa.concat_tables([keep_tbl, over_tbl])
        # restore the batch's original row order
        perm = np.concatenate([np.flatnonzero(~hit), over_idx])
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm))
        return combined.take(pa.array(inv))

    return override_results


def build_detect_pipeline(
    ds: rd.Dataset,
    cfg: ExtractConfig | None = None,
    opts: PipelineOptions | None = None,
) -> rd.Dataset:
    """Two-phase, phase 1 (reference run_job -> DETECT_DONE): the same
    ``ExtractStage`` with recognize off emits doc rows with the embedded
    ``detect`` column. Checkpoint this to parquet."""
    cfg = cfg or ExtractConfig()
    opts = opts or PipelineOptions()
    stage = ExtractStage(cfg, recognize=False, batch_size=opts.uniform_batch_size)
    return _stage_map(_prepared(ds, opts), stage, opts)


def build_recognize_pipeline(
    detected: rd.Dataset,
    cfg: ExtractConfig | None = None,
    opts: PipelineOptions | None = None,
    overrides: list[dict] | None = None,
) -> rd.Dataset:
    """Two-phase, phase 2 (reference run_ocr_job): ``ExtractStage`` over
    the detect checkpoint takes each span's boxes from its ``detect``
    entry (or its override, the human edit) instead of detecting, and
    emits extracted span sequences. Input rows already carry ``detect``
    and normalized text, so no prefix map runs."""
    cfg = cfg or ExtractConfig()
    opts = opts or PipelineOptions()
    ov_ref = ray.put(overrides) if overrides else None
    stage = ExtractStage(cfg, ov_ref, batch_size=opts.uniform_batch_size)
    return _stage_map(detected, stage, opts)
