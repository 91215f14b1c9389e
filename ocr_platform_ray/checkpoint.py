"""Per-partition checkpointing: atomic shard outputs + lineage manifests.

The reference's resume property is its job state machine: DONE /
DETECT_DONE rows are skipped on re-run (/root/reference/apps/worker/app/
tasks/ocr_tasks.py:73-79), with persisted intermediates in Postgres/MinIO.
Here (FIXTURES.md F4): the corpus is split into shards; each shard's
output is written to a temp dir and atomically renamed, then a manifest
row (lineage: doc range, counts, content hash — the reference's sha256
upload checksum analogue, routes_jobs.py:66 — plus wall-time/throughput
metrics) commits it. A shard is complete iff its manifest exists, so a
partial write can never look finished. Resume = set-difference against
committed manifests (a metadata-only anti-join).

Shard planning: one cut rule, ``pipeline.plan_reads``, the one that
cuts read tasks. The input's files, in order, are whole-file row ranges
read from their footers; ``plan_shards`` cuts them into ``n_shards``
contiguous row ranges of equal row count (within one row), which may
span files. A shard's lineage is its ranges (path, first row, row
count), so a file whose row count changes moves the ranges and reruns
the shards they cover, and an invalidated doc_id's owner is found by
reading the doc_id column of the shards' ranges.

One run covers every pending shard (planned, not already committed) with
one Dataset per phase: a single planned read of the pending shards'
ranges (``pipeline.plan_reads`` again: equal-row read units that may
span shards), each range tagged with its shard id, so every row carries
its shard id as it loads, and a single
``write_parquet(partition_cols=[SHARD_COL])`` that writes one directory
per shard, so a two-phase job runs two Datasets whatever its shard
count, and reads only the pending shards' rows. The read and the write
fuse with the stage, so each phase is one operator. Assigning rows to
shards at ingest, not re-reading the input per shard, is the
"Partition, Don't Sort!" (VLDB 2024) point. Both
phases end in one step (``_run_phase``): the partitioned write, then each
shard's directory renamed into place under the phase's root (``detect/``
before the recognize phase reads it back, the DETECT_DONE boundary; the
output directory itself for the last phase). The commit stays per shard:
a shard's old manifest goes before its directory is replaced, and its
new one, over the lineage stats and sha256 of what was written, lands
last.

The retry and commit unit is the run, not the shard: a run that fails
commits none of its shards, so one shard that always fails (a corrupt
input file) keeps every other shard of its run from committing, and each
retry recomputes the whole run. A job of more than ``RUN_SHARDS`` shards
runs in runs of that many, which bounds what one failure holds back.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from .functions import resolve_broadcast
from .kernels.extract import ExtractConfig
from .pipeline import (
    SHARD_COL,
    PipelineOptions,
    build_extract_pipeline,
    file_ranges,
    parquet_files,
    plan_reads,
    read_planned,
    read_unit,
    scope_tenant,
)
from .rng import hash_str

# Most shards one run covers. Ray's partitioned write leaves pyarrow's
# ``write_dataset(max_partitions=1024)`` default in place, which fails a
# written batch whose rows fall in more partitions; a run of at most this
# many shards can never make one, whatever the batch shape. A job of more
# shards runs one run after another, each committing on its own.
RUN_SHARDS = 1024

# First retry delay of a failed run; each later one doubles
# (``_retry_delay_s``).
RETRY_BASE_S = 1.0


@dataclass
class ShardPlan:
    shard_id: int
    ranges: list[dict]  # parquet row ranges {"path", "start", "num_rows"}


def plan_shards(in_path: str, n_shards: int) -> list[ShardPlan]:
    """The input's rows cut by ``plan_reads`` into ``n_shards`` contiguous
    row ranges of equal row count. A shard past the row count gets an
    empty range at the input's end, so it still commits, empty. A file
    whose footer does not parse fails here, naming it, before any run."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be at least 1, got {n_shards}")
    ranges = file_ranges(parquet_files(in_path))
    units = plan_reads(ranges, n_units=n_shards)
    end = dict(ranges[-1], start=ranges[-1]["num_rows"], num_rows=0)
    return [
        ShardPlan(i, units[i]["pieces"] if i < len(units) else [end])
        for i in range(n_shards)
    ]


def _pending_dataset(plans: list[ShardPlan]) -> rd.Dataset:
    """The ``plans`` shards' rows, one planned read of their ranges, each
    row tagged with its shard id in ``SHARD_COL``."""
    return read_planned(
        plan_reads([dict(r, shard=p.shard_id) for p in plans for r in p.ranges])
    )


def _run_phase(
    ds: rd.Dataset, out_dir: str, root: str, plans: list[ShardPlan], phase: str
) -> dict[int, str]:
    """One checkpoint phase: write ``ds`` under ``root`` in one directory per
    shard, then commit each shard's as ``root/part-NNNNN`` by rename (a
    shard the write gave no rows commits an empty one); returns {shard id:
    committed directory}. The shard's manifest is removed first, so an old
    manifest never certifies the new data. The write takes the stage's
    remote args, so it fuses into the stage's operator. ``GRAFT_STATS``
    prints the phase's ``ds.stats()`` to stderr (the reference's per-stage
    timing analogue, orchestrator.py:38-72), so the JSON summary on stdout
    stays machine-readable."""
    tmp = os.path.join(root, ".tmp-run")
    shutil.rmtree(tmp, ignore_errors=True)
    ds.write_parquet(
        tmp, partition_cols=[SHARD_COL], ray_remote_args=PipelineOptions().remote_args()
    )
    if os.environ.get("GRAFT_STATS"):
        print(f"--- {phase} phase stats ---\n{ds.stats()}", file=sys.stderr)
    dirs = {}
    for plan in plans:
        sid = plan.shard_id
        with contextlib.suppress(FileNotFoundError):
            os.remove(_manifest_path(out_dir, sid))
        src = os.path.join(tmp, f"{SHARD_COL}={sid}")
        dirs[sid] = dst = os.path.join(root, f"part-{sid:05d}")
        shutil.rmtree(dst, ignore_errors=True)
        if os.path.isdir(src):
            os.replace(src, dst)
        else:
            os.makedirs(dst)
    shutil.rmtree(tmp, ignore_errors=True)
    return dirs


def _manifest_path(out_dir: str, shard_id: int) -> str:
    return os.path.join(out_dir, "manifest", f"part-{shard_id:05d}.json")


def completed_shards(out_dir: str) -> set[int]:
    mdir = os.path.join(out_dir, "manifest")
    if not os.path.isdir(mdir):
        return set()
    out = set()
    for f in os.listdir(mdir):
        if f.startswith("part-") and f.endswith(".json"):
            out.add(int(f[5:-5]))
    return out


def load_manifests(out_dir: str) -> list[dict]:
    out = []
    for sid in sorted(completed_shards(out_dir)):
        with open(_manifest_path(out_dir, sid)) as f:
            out.append(json.load(f))
    return out


def _content_sha256(part_dir: str) -> str:
    h = hashlib.sha256()
    for f in sorted(os.listdir(part_dir)):
        with open(os.path.join(part_dir, f), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def config_sig(
    cfg: ExtractConfig | None,
    overrides: list[dict] | None,
    two_phase: bool,
    result_overrides: list[dict] | None = None,
    dedup: str = "none",
    tenant: str | None = None,
) -> str:
    """Fingerprint of everything that shapes a shard's output besides its
    input rows. Recorded in the manifest; resume validates it so outputs
    produced under a different config can't silently mix into a run."""
    import dataclasses

    payload = {
        "cfg": dataclasses.asdict(cfg or ExtractConfig()),
        "overrides": overrides or [],
        "result_overrides": result_overrides or [],
        "two_phase": bool(two_phase),
        "dedup": dedup,
        "tenant": tenant,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def _keep_survivors(survivors_ref):
    """Keep the rows whose doc_id is in the broadcast sorted survivor
    array, resolved once per worker process."""

    def keep_survivors(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch.column("doc_id"), value_set=resolve_broadcast(survivors_ref))
        return batch.filter(mask)

    return keep_survivors


def _written_stats(part_dir: str) -> dict:
    """Lineage stats of a written shard, read in-process from just the
    parquet columns they need (no Dataset re-scan). A shard with no rows
    has no parquet file."""
    import pyarrow.parquet as pq

    files = sorted(
        os.path.join(part_dir, f) for f in os.listdir(part_dir)
        if f.endswith(".parquet")
    )
    cols = ["doc_id", "n_spans_out", "n_blocks", "n_span_errors"]
    if files and "tenant_id" in pq.read_schema(files[0]).names:
        cols.append("tenant_id")
    t = (
        pq.ParquetDataset(files).read(columns=cols)
        if files
        else pa.table({c: [] for c in cols})
    )

    def total(name: str) -> int:
        return int(pc.sum(t.column(name)).as_py() or 0)

    ids = [d for d in t.column("doc_id").to_pylist() if d]
    # per-tenant doc counts (reference tenant scoping made auditable: the
    # manifest shows whose documents a shard holds; {} when the corpus
    # carries no tenant column)
    tenants: dict[str, int] = {}
    if "tenant_id" in cols:
        for v in pc.value_counts(t.column("tenant_id")).to_pylist():
            tenants[str(v["values"])] = int(v["counts"])
    return {
        "doc_id_min": min(ids, default=""),
        "doc_id_max": max(ids, default=""),
        "n_docs": t.num_rows,
        "n_spans_out": total("n_spans_out"),
        "n_blocks": total("n_blocks"),
        # dead-letter surfacing (reference FAILED-job analogue): spans whose
        # media could not be parsed/rendered — 0 on a healthy corpus
        "n_span_errors": total("n_span_errors"),
        "n_docs_by_tenant": dict(sorted(tenants.items())),
    }


def _run_pending(
    plans: list[ShardPlan],
    out_dir: str,
    n_shards: int,
    sig: str,
    cfg: ExtractConfig | None = None,
    overrides: list[dict] | None = None,
    two_phase: bool = False,
    result_overrides: list[dict] | None = None,
    survivors_ref=None,
    tenant: str | None = None,
) -> None:
    """Run the extract pipeline over every shard of ``plans`` as one
    Dataset per phase, each committed per shard by ``_run_phase``, then
    write each shard's manifest over its lineage stats and content hash.

    ``two_phase`` mirrors the reference's E1/E2 flow (run_job ->
    DETECT_DONE -> run_ocr_job): the detect phase commits under
    ``detect/part-NNNNN`` (the human-editable intermediate) and the
    output phase reads it back; output is identical to the fused path.
    ``overrides`` and ``result_overrides`` (PATCH detect and result
    analogues) reach the last phase's stage as one edit table."""
    t0 = time.perf_counter()
    ds = _pending_dataset(plans)
    if tenant is not None:
        # tenant-scoped run (reference: every job is tenant-filtered,
        # routes_jobs.py:52-63); part of config_sig, so switching tenants
        # on the same output dir invalidates and reruns the shards
        ds = scope_tenant(ds, tenant)
    if survivors_ref is not None:
        # dedup pre-pass survivors (broadcast once): non-survivor docs are
        # dropped before any extraction compute. At a scale where even the
        # id set outgrows a node, replace with a semi-join against the
        # survivors parquet instead of a broadcast set.
        ds = ds.map_batches(
            _keep_survivors(survivors_ref), **PipelineOptions().task_kwargs()
        )
    stage_times: dict[str, float] = {}
    if two_phase:
        t = time.perf_counter()
        det = build_extract_pipeline(ds, cfg, recognize=False)
        dirs = _run_phase(det, out_dir, os.path.join(out_dir, "detect"), plans, "detect")
        stage_times["detect_s"] = round(time.perf_counter() - t, 4)
        detected = [
            dict(r, shard=sid) for sid, d in dirs.items()
            for r in file_ranges(parquet_files(d))
        ]
        # no detect file at all: every pending shard is empty, and so is ds
        if detected:
            ds = read_planned(plan_reads(detected))
    t = time.perf_counter()
    out = build_extract_pipeline(
        ds, cfg, overrides=overrides, result_overrides=result_overrides
    )
    dirs = _run_phase(out, out_dir, out_dir, plans, "recognize" if two_phase else "extract")
    if two_phase:
        stage_times["recognize_s"] = round(time.perf_counter() - t, 4)
    # every manifest of the run carries the run's wall, stage walls and
    # shard ids, so a reader counts a shared run once
    wall = time.perf_counter() - t0
    run_shards = [p.shard_id for p in plans]
    for plan in plans:
        sid = plan.shard_id
        part_dir = dirs[sid]
        st = _written_stats(part_dir)
        manifest = {
            "partition_id": sid,
            "lineage": {"ranges": plan.ranges},
            **st,
            "n_shards": n_shards,
            "config_sig": sig,
            "content_sha256": _content_sha256(part_dir),
            "wall_time_s": round(wall, 4),
            "docs_per_s": round(st["n_docs"] / wall, 3) if wall > 0 else None,
            "two_phase": two_phase,
            "stage_times": stage_times,
            "run_shards": run_shards,
            "status": "DONE",
        }
        mpath = _manifest_path(out_dir, sid)
        os.makedirs(os.path.dirname(mpath), exist_ok=True)
        tmp_m = mpath + ".tmp"
        with open(tmp_m, "w") as f:
            json.dump(manifest, f, indent=2)
        os.replace(tmp_m, mpath)  # manifest commit last


def _manifest_valid(manifest: dict, plan: ShardPlan, n_shards: int, sig: str) -> bool:
    """A committed manifest only counts for resume if its lineage (the
    shard's row ranges), shard count and config fingerprint all match the
    freshly computed plan — re-running with a different --shards, input or
    config must rerun the shard, not silently mix incompatible outputs."""
    return (
        (manifest.get("lineage") or {}).get("ranges") == plan.ranges
        and manifest.get("n_shards") == n_shards
        and manifest.get("config_sig") == sig
    )


def _shard_owns_docs(plan: ShardPlan, doc_ids: set[str]) -> bool:
    """Whether any of ``doc_ids`` is in this shard's INPUT: a pruned read
    of the doc_id column of just its ranges. Input-side on purpose: a doc
    dropped from the output by the dedup pre-pass still maps to its
    owning shard."""
    ids = read_unit({"pieces": plan.ranges}, ["doc_id"]).column("doc_id")
    return any(str(v) in doc_ids for v in ids.to_pylist())


def _retry_delay_s(shard_id: int, attempt: int, base_s: float) -> float:
    """Exponential backoff with deterministic jitter, capped at 600 s —
    the reference's Celery autoretry shape (retry_backoff=True,
    retry_backoff_max=600, retry_jitter — ocr_tasks.py:58-65)."""
    delay = base_s * (2**attempt)
    jitter = (hash_str(f"{shard_id}:{attempt}") % 1000) / 1000.0
    return min(600.0, delay * (0.5 + jitter))


def run_job(
    in_path: str,
    out_dir: str,
    n_shards: int = 8,
    cfg: ExtractConfig | None = None,
    overrides: list[dict] | None = None,
    resume: bool = True,
    two_phase: bool = False,
    shard_retries: int = 2,
    result_overrides: list[dict] | None = None,
    dedup: str = "none",
    invalidate_doc_ids: list[str] | None = None,
    tenant: str | None = None,
) -> dict:
    """Full checkpointed job. Returns a summary incl. which shards ran vs
    were skipped (resume anti-join against committed manifests, each
    validated against the current plan's lineage + config) and which
    previously-committed shards were invalidated and rerun. The pending
    shards run together, one Dataset per phase (``_run_pending``), in
    runs of at most ``RUN_SHARDS`` shards. A failed run commits nothing
    and retries whole, up to ``shard_retries`` times, with capped
    exponential backoff (reference Celery semantics), leaving the shards
    an earlier run committed as they are. So one shard that always fails
    keeps every shard of its run from committing, and a driver killed
    mid-run loses that run's work. Ray's per-task retries
    (``PipelineOptions.max_task_retries``) absorb worker crashes inside a
    run.

    ``invalidate_doc_ids`` is the per-document requeue/rerun hook
    (reference POST /jobs/{id}/rerun forces one job's re-processing,
    routes_jobs.py:119-175): committed shards owning any listed doc_id are
    invalidated and rerun; every other shard's checkpoint is reused.
    Granularity is the shard (the checkpoint unit), so one rerun doc
    recomputes only its shard, never the corpus.

    ``dedup="exact"`` runs a whole-document exact-dedup pre-pass over the
    full input, scoped to ``tenant`` when one is given, so a doc is never
    dropped for a copy another tenant holds (vectorized span-signature
    hash; the shuffle carries only 16-byte signatures), commits the
    survivor doc_id list under
    ``out_dir/dedup/`` (atomic, reused on resume), and the run drops
    non-survivors before extraction — the training-data composition
    read -> dedup -> extract."""
    plans = plan_shards(in_path, n_shards)
    os.makedirs(out_dir, exist_ok=True)
    sig = config_sig(cfg, overrides, two_phase, result_overrides, dedup, tenant)

    survivors_ref = None
    if dedup == "exact":
        import ray

        import pyarrow.parquet as pq

        from .functions.dedup import dedup_survivor_doc_ids

        surv_dir = os.path.join(out_dir, "dedup")
        surv_meta_path = os.path.join(surv_dir, "meta.json")
        # the survivors list depends on BOTH the config AND the input —
        # validate it against the shards' row ranges like _manifest_valid
        # does, else a new or grown input file on resume would reuse a
        # stale list and silently drop every new document
        meta = {"config_sig": sig, "ranges": [r for p in plans for r in p.ranges]}
        have = False
        if resume and os.path.isfile(surv_meta_path):
            with open(surv_meta_path) as f:
                have = json.load(f) == meta
        if not have:
            tmp = os.path.join(out_dir, ".tmp-dedup")
            shutil.rmtree(tmp, ignore_errors=True)
            os.makedirs(tmp, exist_ok=True)
            full = _pending_dataset(plans)
            if tenant is not None:
                full = scope_tenant(full, tenant)
            dedup_survivor_doc_ids(full).write_parquet(tmp)
            with open(os.path.join(tmp, "meta.json"), "w") as f:
                json.dump(meta, f)
            shutil.rmtree(surv_dir, ignore_errors=True)
            os.replace(tmp, surv_dir)
        surv = set()
        for f in sorted(os.listdir(surv_dir)):
            if f.endswith(".parquet"):
                surv.update(
                    pq.read_table(
                        os.path.join(surv_dir, f), columns=["doc_id"]
                    ).column("doc_id").to_pylist()
                )
        ids = sorted(surv)
        survivors_ref = ray.put(pa.array(ids))
        # the survivors shape every shard's output, so the manifests are
        # validated against them too: a copy added anywhere in the input
        # that changes which doc survives reruns every shard, not only
        # the shards whose ranges moved
        sig = hashlib.sha256("\n".join([sig, *ids]).encode()).hexdigest()[:16]
    done: set[int] = set()
    invalidated: list[int] = []
    for sid in completed_shards(out_dir):
        if sid >= n_shards:
            # stale shard from a wider plan: drop manifest AND data so a
            # consumer globbing part-*/ can't read orphan outputs and the
            # final summary can't double-count — applies with or without
            # resume (resume=False still writes under the narrower plan)
            invalidated.append(sid)
            os.remove(_manifest_path(out_dir, sid))
            for d in ("", "detect"):
                shutil.rmtree(
                    os.path.join(out_dir, d, f"part-{sid:05d}"), ignore_errors=True
                )
            continue
        if not resume:
            continue  # shard reruns; its run removes the manifest first
        with open(_manifest_path(out_dir, sid)) as f:
            manifest = json.load(f)
        if _manifest_valid(manifest, plans[sid], n_shards, sig):
            done.add(sid)
        else:
            invalidated.append(sid)
            os.remove(_manifest_path(out_dir, sid))  # shard must rerun
    if invalidate_doc_ids:
        targets = {str(d) for d in invalidate_doc_ids}
        for sid in sorted(done):
            if _shard_owns_docs(plans[sid], targets):
                done.discard(sid)
                invalidated.append(sid)
                os.remove(_manifest_path(out_dir, sid))
    pending = [p for p in plans if p.shard_id not in done]
    t0 = time.perf_counter()
    for start in range(0, len(pending), RUN_SHARDS):
        run = pending[start : start + RUN_SHARDS]
        for attempt in range(shard_retries + 1):
            try:
                _run_pending(
                    run, out_dir, n_shards, sig, cfg=cfg, overrides=overrides,
                    two_phase=two_phase, result_overrides=result_overrides,
                    survivors_ref=survivors_ref, tenant=tenant,
                )
                break
            except Exception:
                if attempt == shard_retries:
                    raise
                time.sleep(_retry_delay_s(run[0].shard_id, attempt, RETRY_BASE_S))
    manifests = load_manifests(out_dir)
    return {
        "out_dir": out_dir,
        "n_shards": n_shards,
        "shards_ran": [p.shard_id for p in pending],
        "shards_skipped": sorted(done),
        "shards_invalidated": sorted(invalidated),
        "n_docs": sum(m["n_docs"] for m in manifests),
        "n_blocks": sum(m["n_blocks"] for m in manifests),
        "n_span_errors": sum(m.get("n_span_errors", 0) for m in manifests),
        "wall_time_s": round(time.perf_counter() - t0, 4),
    }
