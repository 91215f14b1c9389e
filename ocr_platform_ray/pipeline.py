"""Pipeline assembly: Ray Data Dataset graphs for the extraction engine.

Physical design (SURVEY §4, §7.4):
- the main path has ZERO shuffles — every span of a document lives in its
  row, so normalize / detect / recognize / merge are all row-local;
- skew (north_rule): one mechanism, sized once at ingest. Every read
  plans at least 2 x CPU equal-row units (below), so every CPU has
  stage tasks at any CPU count; the stage maps over whole blocks and
  walks each in bounded 32-doc kernel batches (``BATCH_DOCS``).
  Every span of a doc lives in its row, so no doc is ever split across
  batches and nothing re-shuffles rows by cost. On the bench corpus
  (sf0.1: image spans per doc mean 3, p99 35, max 40) a 32-doc batch's
  cost varies little. A span-count bucket split over a materialized
  boundary used to be selectable; it measured +4 s at sf0.1 and was
  slower at every point of a heavy-tail grid (BENCH/BASELINE.md), so it
  is gone;
- one builder, ``build_extract_pipeline``, makes every extraction
  Dataset (normalize, then the one stage class, ``ExtractStage``): the
  fused run (recognize on), the two-phase detect phase (recognize off; it
  writes the ``detect`` checkpoint column) and the recognize phase
  (recognize on over that column), so the two paths cannot drift. The
  recognize phase normalizes text the detect phase already normalized; a
  no-op, since normalize is idempotent, and the map fuses into the
  stage's operator;
- both human edits resolve inside that stage from one broadcast edit
  table: box overrides replace a span's boxes before extraction, result
  overrides replace a row's spans as it is assembled, so no map follows
  the stage and no row is re-materialized after it;
- the stage is a task map over a callable stage instance: stage state
  (glyph templates) is built at import once per worker process, and Ray
  reuses task workers across Datasets in a session, so no actor pool
  starts per Dataset (a two-phase job executes one per phase).
  Task maps also let Ray Data fuse the normalize prefix into the stage's
  operator, and cannot reserve every CPU the way a fixed actor pool can;
- every task on the extraction path (the read, the job's tenant scope
  and dedup-survivor filter, normalize, the stage and the job's writes)
  takes the same remote args, ``PipelineOptions().remote_args()``, and
  the stage sets no batch size, so Ray Data fuses every extraction
  Dataset into one operator from the read to the stage (to the write,
  in a checkpoint phase), one task per read unit: an operator with
  different args, or a map with a batch size, would start an operator
  of its own;
- extraction Datasets run without Ray Data's per-operator resource
  reservation (``_stage_map``). The reservation allocator holds at least
  one task's CPU for every operator, so on a 2-CPU session a light
  consumer map after the stage kept one slot and the stage ran one task
  at a time. The flag is set on the Dataset's own ``DataContext`` copy,
  never on the global one, so query Datasets keep Ray's default;
- reads are planned on the driver, not by Ray ("Partition, Don't
  Sort!", VLDB 2024: size partitions once, at ingest). ``plan_reads``
  cuts parquet row ranges (whole files from their footers,
  ``file_ranges``) into contiguous units of equal row count, the one cut
  rule for read tasks and for a job's shards; ``read_planned`` turns
  them into driver-side items and one map that reads each unit's row
  groups, so the read is fused into the stage's operator (operator
  fusion, "ML Inference Pipeline Execution Using Pure SQL Based on
  Operator Fusion", ICDE 2025). A Ray ``read_parquet`` would instead sample the files with
  remote tasks before the plan exists, and read as an operator of its
  own in front of the stage (a split read, ``ReadParquet->SplitBlocks``,
  is never fused), whose task holds a CPU while the stage's second task
  waits for the executor's next 0.1 s scheduling tick.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import ClassVar

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from .corpus import spans_from_document
from .functions import cluster_cpus
from .kernels.extract import ExtractConfig
from .stages.extract import BATCH_DOCS, ExtractStage, overrides_to_lookup
from .stages.normalize import normalize_spans_batch


@dataclass
class PipelineOptions:
    """The extraction path's one setting, the retry budget of every task.
    ``uniform_batch_size``, the docs per kernel batch inside a stage call,
    is fixed at ``BATCH_DOCS``."""

    uniform_batch_size: ClassVar[int] = BATCH_DOCS
    # retry budget (reference: Celery autoretry <=3/<=2, ocr_tasks.py:58-65;
    # here: per-task retries of a crashed worker, lineage re-executes
    # blocks). Ray Data's task default retries forever, so a poison row
    # that kills its worker would loop.
    max_task_retries: int = 3

    def remote_args(self) -> dict:
        """Ray remote args of every task on the extraction path: the read,
        the maps and the job's writes. Ray Data fuses two operators only
        when their args match, so one set makes a checkpoint phase's read,
        maps and write one operator."""
        return {"num_cpus": 1, "max_retries": self.max_task_retries}

    def task_kwargs(self) -> dict:
        """``map_batches`` arguments of every map on the extraction path,
        the stage's included."""
        return {"batch_format": "pyarrow", **self.remote_args()}


# The column that tags each row of a checkpoint run with its shard id
# (the ``shard`` of its ``plan_reads`` range). The phase writes partition
# on it, so the committed files never hold it.
SHARD_COL = "_shard"


def parquet_files(path: str) -> list[str]:
    """``path`` itself, or the ``.parquet`` files directly in the directory
    ``path``, sorted."""
    if not os.path.isdir(path):
        return [path]
    return sorted(
        os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")
    )


def file_ranges(paths: list[str]) -> list[dict]:
    """The whole-file row range ``{"path", "start": 0, "num_rows"}`` of
    each of ``paths``, from its parquet footer. A footer that does not
    parse fails here with pyarrow's error type, naming its file (pyarrow's
    own message names none)."""
    out = []
    for p in paths:
        try:
            n = pq.read_metadata(p).num_rows
        except (pa.ArrowInvalid, OSError) as e:
            raise type(e)(f"{p}: {e}") from e
        out.append({"path": p, "start": 0, "num_rows": n})
    return out


def plan_reads(ranges: list[dict], n_units: int | None = None) -> list[dict]:
    """Cut the parquet row ranges ``ranges`` (``{"path", "start",
    "num_rows"}``, each with an optional ``shard`` id), in order, into
    contiguous read units of equal row count (within one row): no data
    page is read and no Ray task runs. ``n_units`` defaults to max(2 x
    CPU, the footers' uncompressed bytes of the ranges over
    ``DataContext.target_max_block_size``), so every CPU has stage tasks
    and no unit outgrows a block; it never exceeds the row count. A unit
    may span ranges and files. Each is ``{"pieces": [range, ...]}``: the
    part of each range the unit keeps, with the range's other keys. An
    input with no rows plans one unit of one empty piece, so its read
    still has the schema."""
    if not ranges:
        raise ValueError("plan_reads needs at least one range")
    # first row of each range in the concatenation (ends with the total)
    at = [0, *accumulate(r["num_rows"] for r in ranges)]
    total = at[-1]
    if n_units is None:
        row_bytes = {}
        for path in {r["path"] for r in ranges}:
            m = pq.read_metadata(path)
            size = sum(m.row_group(g).total_byte_size for g in range(m.num_row_groups))
            row_bytes[path] = size / max(m.num_rows, 1)
        nbytes = sum(row_bytes[r["path"]] * r["num_rows"] for r in ranges)
        target = rd.DataContext.get_current().target_max_block_size
        n_units = max(2 * cluster_cpus(), int(-(-nbytes // target)))
    n_units = max(1, min(n_units, total))
    if total == 0:
        return [{"pieces": [dict(ranges[0], num_rows=0)]}]
    units = []
    for u in range(n_units):
        lo, hi = u * total // n_units, (u + 1) * total // n_units
        pieces = []
        i = bisect_right(at, lo) - 1
        while at[i] < hi:
            # the unit's rows in range i, range-local: [a, b)
            a, b = max(lo, at[i]) - at[i], min(hi, at[i + 1]) - at[i]
            if a < b:
                pieces.append(dict(ranges[i], start=ranges[i]["start"] + a, num_rows=b - a))
            i += 1
        units.append({"pieces": pieces})
    return units


def read_unit(unit: dict, columns: list[str] | None = None) -> pa.Table:
    """The rows of one ``plan_reads`` unit: of each piece, only the row
    groups of its file it overlaps (found from the footer opening the file
    reads), sliced to the piece, with the schema metadata stripped
    (pandas-written parquet carries a ``{b'pandas': ...}`` dict;
    ``hash(pa.Schema)`` raises on it, so Ray's block-bundling
    ``unify_schemas`` would log "Failed to hash the schemas" in every
    worker). When the pieces carry shard ids, each row gets its piece's
    in ``SHARD_COL``."""
    tables = []
    for p in unit["pieces"]:
        lo, hi = p["start"], p["start"] + p["num_rows"]
        with pq.ParquetFile(p["path"]) as f:
            m = f.metadata
            # file-local first row of each row group (ends with the total)
            at = [0, *accumulate(m.row_group(g).num_rows for g in range(m.num_row_groups))]
            first = bisect_right(at, lo) - 1
            groups = list(range(first, bisect_left(at, hi))) if hi > lo else []
            t = f.read_row_groups(groups, columns=columns)
        tables.append(t.slice(lo - at[first], p["num_rows"]).replace_schema_metadata(None))
    out = pa.concat_tables(tables)
    if "shard" in unit["pieces"][0]:
        rows = [p["num_rows"] for p in unit["pieces"]]
        sids = np.repeat([p["shard"] for p in unit["pieces"]], rows).astype(np.int32)
        out = out.append_column(SHARD_COL, pa.array(sids, pa.int32()))
    return out


def read_planned(units: list[dict], columns: list[str] | None = None) -> rd.Dataset:
    """The rows of ``units`` (``plan_reads``) as a Dataset of one block
    per unit. The units are driver-side items and the read is a map under
    the extraction path's remote args, so it fuses into the stage's
    operator: no read operator, split or sampling task runs in front of
    the stage, and the stage gets one task per unit."""

    def read_units(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([read_unit(u, columns) for u in batch.to_pylist()])

    # one block per unit: left to itself, from_items packs more items than
    # its detected parallelism (200 blocks by default) several to a block
    return rd.from_items(units, override_num_blocks=len(units)).map_batches(
        read_units, **PipelineOptions().task_kwargs()
    )


def read_corpus(path: str, columns: list[str] | None = None) -> rd.Dataset:
    """Lance-shaped io seam (SURVEY §7.0; single documented swap point),
    dispatched on the path: a ``.lance`` dataset reads through
    ``rd.read_lance`` and needs pylance, which is optional, so without it
    the read fails naming the package; any other path is Parquet,
    planned on the driver (``plan_reads``) and read inside the stage's
    operator (``read_planned``)."""
    if path.rstrip("/").endswith(".lance"):
        try:
            import lance  # noqa: F401
        except ImportError as e:
            raise ImportError(
                f"read_corpus: {path} is a Lance dataset; reading it needs "
                "pylance (pip install pylance)"
            ) from e
        return rd.read_lance(path, columns=columns)
    return read_planned(plan_reads(file_ranges(parquet_files(path))), columns)


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

    # A single small file plans as 2 x CPU read units, so every CPU has
    # stage tasks; to_spans fuses into the stage's operator with the read.
    return read_corpus(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
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


def _stage_map(ds: rd.Dataset, stage, opts: PipelineOptions) -> rd.Dataset:
    """``stage`` (a callable stage instance) as one task map over whole
    blocks; the stage bounds its own kernel batches (``ExtractStage``
    walks a block ``BATCH_DOCS`` docs at a time). It takes
    ``task_kwargs`` like every other map on the path and sets no batch
    size, so the read and the maps before it and the write after it fuse
    into its operator, one task per input block (a ``plan_reads`` unit),
    and no pool starts per Dataset. A Dataset that does not come from
    the planned read keeps its own blocks: a block under ``BATCH_DOCS``
    docs is one task of its own, never bundled with the next block.

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
    recognize: bool = True,
    result_overrides: list[dict] | None = None,
) -> rd.Dataset:
    """Every extraction Dataset: docs -> normalize -> ``ExtractStage`` ->
    extracted span sequences, or, with ``recognize`` off, doc rows with
    the ``detect`` checkpoint column (reference run_job -> DETECT_DONE).
    Over a detect checkpoint the stage takes each span's boxes from its
    ``detect`` entry (reference run_ocr_job). The human edits, box
    overrides (PATCH /jobs/{id}/detect, routes_jobs.py:230-249) and
    result overrides (PATCH /jobs/{id}/result, :252-270: a doc's whole
    span sequence replaced), are indexed on the driver into one table and
    broadcast once via ``ray.put``; with no edit nothing is put."""
    opts = opts or PipelineOptions()
    ov_ref = (
        ray.put(overrides_to_lookup(overrides, result_overrides))
        if overrides or result_overrides
        else None
    )
    ds = ds.map_batches(normalize_spans_batch, **opts.task_kwargs())
    return _stage_map(ds, ExtractStage(cfg, ov_ref, recognize), opts)
