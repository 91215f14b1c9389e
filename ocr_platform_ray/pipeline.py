"""Pipeline assembly: Ray Data Dataset graphs for the extraction engine.

Physical design (SURVEY §4, §7.4):
- the main path has ZERO shuffles — every span of a document lives in its
  row, so normalize / detect / recognize / merge are all row-local;
- skew (north_rule): handled by batch-cost bounding. Measured on the bench
  corpus (sf0.1): n_image_spans mean 3, p99 35, max 40 — a uniform 32-doc
  batch's cost variance is small, and a uniform single stage matches the
  round-1 two-branch bucket split while reading + normalizing the corpus
  exactly ONCE and keeping full streaming overlap (the split re-executed
  the shared prefix per branch = 2x read). For corpora with a true heavy
  tail (docs with hundreds of images), ``skew_mode="bucketed"`` restores
  per-bucket batch sizes over a materialized prepared boundary (still one
  scan; costs the pipelining overlap — measured +4 s at sf0.1, which is
  why it is opt-in).
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
- extraction Datasets run without Ray Data's per-operator resource
  reservation (``_bucketed``). The reservation allocator holds at least
  one task's CPU for every operator, so on a 2-CPU session a light
  consumer map after the stage kept one slot and the stage ran one task
  at a time. The flag is set on the Dataset's own ``DataContext`` copy,
  never on the global one, so query Datasets keep Ray's default;
- the bench corpus splits at the read (``override_num_blocks`` = 2 x CPU),
  not through a repartition barrier, so ``to_spans`` fuses into the
  stage's operator (to_spans -> prepare -> stage is one operator) and the
  stage sees up to 2 x CPU tasks at any CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass

import pyarrow as pa

import ray
import ray.data as rd

from .corpus import spans_from_document
from .kernels.extract import ExtractConfig
from .stages.extract import ExtractStage
from .stages.normalize import count_spans_batch, normalize_spans_batch


@dataclass
class PipelineOptions:
    """Physical knobs (per-stage resources; GPU slot kept for real deploys)."""

    heavy_threshold: int = 9        # docs with >= this many image spans are "heavy"
    light_batch_size: int = 64      # bucketed mode: light-bucket batch size
    heavy_batch_size: int = 2       # bucketed mode: one heavy doc can't straggle a batch
    uniform_batch_size: int = 32    # uniform mode (measured best of 8/16/32/64 at sf0.1)
    skew_mode: str = "uniform"      # "uniform" | "bucketed" (extreme heavy tails)
    concurrency: int | None = None  # cap on concurrent stage tasks; None -> no cap
    num_cpus: float = 1.0
    num_gpus: float = 0.0           # plumbed through for GPU clusters; 0 in sandbox
    # retry budget (reference: Celery autoretry <=3/<=2, ocr_tasks.py:58-65;
    # here: per-task retries of a crashed worker, lineage re-executes
    # blocks). Ray Data's task default retries forever, so a poison row
    # that kills its worker would loop.
    max_task_retries: int = 3

    def task_kwargs(self) -> dict:
        """``map_batches`` arguments of the prepare maps. The stage map
        takes the same remote args, so Ray Data fuses prepare and stage
        into one operator when no cap or GPU sets them apart."""
        return {
            "batch_format": "pyarrow",
            "num_cpus": self.num_cpus,
            "max_retries": self.max_task_retries,
        }

    def stage_kwargs(self) -> dict:
        """``map_batches`` arguments of the stage map: ``task_kwargs`` plus
        the GPU slot and the cap on concurrent stage tasks."""
        kw = self.task_kwargs()
        if self.num_gpus:
            kw["num_gpus"] = self.num_gpus
        kw["concurrency"] = self.concurrency
        return kw


def read_corpus(path: str, **kwargs) -> rd.Dataset:
    """Lance-shaped io seam: reads Lance when available, else Parquet
    (SURVEY §7.0 — pylance is optional; single documented swap point).
    ``kwargs`` go to the reader. The Parquet path's metadata strip takes
    the stage's remote args, so it fuses into the stage's operator."""
    try:
        import lance  # noqa: F401
    except ImportError:
        from .sources import read_parquet_clean

        return read_parquet_clean(path, map_kwargs=PipelineOptions().task_kwargs(), **kwargs)
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
    by tenant_id, routes_jobs.py:52-63). A cheap row filter — at scale,
    tenant-partitioned input directories make this a pruned read instead."""
    return ds.filter(expr=f"tenant_id == '{tenant_id}'")


def _prepared(ds: rd.Dataset, opts: PipelineOptions | None = None) -> rd.Dataset:
    """Cheap vectorized prefix: span counts (skew key) + text normalize."""
    kw = (opts or PipelineOptions()).task_kwargs()
    ds = ds.map_batches(count_spans_batch, **kw)
    return ds.map_batches(normalize_spans_batch, **kw)


def _bucketed(ds: rd.Dataset, stage, opts: PipelineOptions) -> rd.Dataset:
    """Skew-handled stage over already-prepared rows (must carry
    ``n_image_spans``). ``stage`` is a callable stage instance; Ray Data runs
    it as a task map, so no pool starts per Dataset and the prepare maps
    fuse into the stage's operator.

    Default ("uniform"): ONE task map with a moderate uniform batch size.
    Single scan, zero branches, full streaming overlap; batch-cost variance
    is bounded because batch cost is a 32-doc sum (see module docstring).

    "bucketed": materialize the cheap prepared boundary once, then split by
    span-count bucket with per-bucket batch sizes and union. Branching a
    lazy Dataset re-executes the shared prefix per branch (round 1 read +
    normalized the corpus twice); materializing first pins the prepared
    blocks in the object store (spilling to local disk beyond memory), at
    the cost of the read/stage overlap (~+4 s at sf0.1). Two other
    designs were measured and rejected: the lazy two-branch split (2x read
    at any scale) and a generator rebatch stage feeding a
    ``batch_size=None`` stage (yielded chunks are re-coalesced by the
    output block builder up to target_max_block_size, so the stage saw
    giant mixed batches). Every row passes the expensive stage exactly
    once in all modes.

    The Dataset runs without Ray Data's per-operator resource reservation,
    which holds at least one task's CPU for every operator: a light map
    after the stage would otherwise keep a slot the stage cannot use. The
    flag is set on ``ds.context``, the ``DataContext`` copy the lineage
    captured when it was created, so it also covers the caller's input
    lineage and any consumer map added to the result later (the point: a
    downstream map must not take the stage's slot), and never touches
    ``DataContext.get_current()``."""
    ds.context.op_resource_reservation_enabled = False
    kw = opts.stage_kwargs()
    if opts.skew_mode != "bucketed":
        return ds.map_batches(stage, batch_size=opts.uniform_batch_size, **kw)
    prepared = ds.materialize()
    light = prepared.filter(expr=f"n_image_spans < {opts.heavy_threshold}")
    heavy = prepared.filter(expr=f"n_image_spans >= {opts.heavy_threshold}")
    out_light = light.map_batches(stage, batch_size=opts.light_batch_size, **kw)
    out_heavy = heavy.map_batches(stage, batch_size=opts.heavy_batch_size, **kw)
    return out_light.union(out_heavy)


def build_extract_pipeline(
    ds: rd.Dataset,
    cfg: ExtractConfig | None = None,
    opts: PipelineOptions | None = None,
    overrides: list[dict] | None = None,
) -> rd.Dataset:
    """Flagship fused pipeline: docs -> normalize -> (bucketed)
    ``ExtractStage`` -> extracted span sequences. Overrides (human-edit
    analogue) are broadcast once via ``ray.put``."""
    cfg = cfg or ExtractConfig()
    opts = opts or PipelineOptions()
    ov_ref = ray.put(overrides) if overrides else None
    return _bucketed(_prepared(ds, opts), ExtractStage(cfg, ov_ref), opts)


def apply_result_overrides(
    extracted: rd.Dataset, result_overrides: list[dict] | None
) -> rd.Dataset:
    """Human-edit analogue of PATCH /jobs/{id}/result
    (/root/reference/apps/api/app/api/v1/routes_jobs.py:252-270 — the
    job's whole result JSON is replaced): rows whose doc_id appears in the
    override table get their span sequence replaced wholesale at merge
    time. The table is broadcast once via ``ray.put`` (small side), never
    re-shipped per batch. Aggregates are recomputed from the replacement
    (confidences read 1.0 — the text is human-verified, the reference
    stores no conf for edited results); ``n_span_errors`` is preserved
    (the edit doesn't un-poison the source media)."""
    if not result_overrides:
        return extracted
    ov_ref = ray.put(
        {r["doc_id"]: list(r["spans_out"]) for r in result_overrides}
    )

    def fn(batch: pa.Table) -> pa.Table:
        import numpy as np

        ov = ray.get(ov_ref)
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

    return extracted.map_batches(fn, batch_format="pyarrow")


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
    return _bucketed(_prepared(ds, opts), ExtractStage(cfg, recognize=False), opts)


def build_recognize_pipeline(
    detected: rd.Dataset,
    cfg: ExtractConfig | None = None,
    opts: PipelineOptions | None = None,
    overrides: list[dict] | None = None,
) -> rd.Dataset:
    """Two-phase, phase 2 (reference run_ocr_job): ``ExtractStage`` over
    the detect checkpoint takes each span's boxes from its ``detect``
    entry (or its override, the human edit) instead of detecting, and
    emits extracted span sequences. Input rows already carry ``detect`` +
    ``n_image_spans``; the bucket split reuses them without re-counting."""
    cfg = cfg or ExtractConfig()
    opts = opts or PipelineOptions()
    ov_ref = ray.put(overrides) if overrides else None
    return _bucketed(detected, ExtractStage(cfg, ov_ref), opts)
