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

Shard planning: a multi-file input shards by file groups (lineage = the
file list — no re-read amplification; this is the 100 TB path where one
shard = one input partition directory). A single-file input falls back to
hash-of-doc_id filtering (test-scale convenience).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

import ray.data as rd

from .kernels.extract import ExtractConfig
from .pipeline import (
    PipelineOptions,
    apply_result_overrides,
    build_detect_pipeline,
    build_extract_pipeline,
    build_recognize_pipeline,
)
from .rng import hash_str


@dataclass
class ShardPlan:
    shard_id: int
    files: list[str] = field(default_factory=list)   # file-group shard
    hash_mod: tuple[int, int] | None = None          # (i, n) doc_id-hash shard
    input_path: str | None = None


def plan_shards(input_path: str, n_shards: int) -> list[ShardPlan]:
    if n_shards < 1:
        raise ValueError(f"n_shards must be at least 1, got {n_shards}")
    if os.path.isdir(input_path):
        files = sorted(
            os.path.join(input_path, f)
            for f in os.listdir(input_path)
            if f.endswith(".parquet")
        )
        if len(files) >= n_shards:
            plans = [ShardPlan(i, files=[]) for i in range(n_shards)]
            for k, f in enumerate(files):
                plans[k % n_shards].files.append(f)
            return plans
    return [
        ShardPlan(i, hash_mod=(i, n_shards), input_path=input_path)
        for i in range(n_shards)
    ]


def _shard_dataset(plan: ShardPlan) -> rd.Dataset:
    remote_args = PipelineOptions().remote_args()
    if plan.files:
        return rd.read_parquet(plan.files, ray_remote_args=remote_args)
    ds = rd.read_parquet(plan.input_path, ray_remote_args=remote_args)
    i, n = plan.hash_mod

    def pick(batch: pa.Table) -> pa.Table:
        # vectorized FNV-1a (bit-equal to hash_str per row, so existing
        # manifests' shard assignment is preserved across resume)
        from .rng import hash_str_np

        h = hash_str_np(batch.column("doc_id"))
        return batch.filter(pa.array(h % np.uint64(n) == np.uint64(i)))

    return ds.map_batches(pick, **PipelineOptions().task_kwargs())


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


@functools.lru_cache(maxsize=8)
def _survivor_array(survivors_ref) -> pa.Array:
    """Per-worker memo of the broadcast survivor set as a sorted Arrow
    array, keyed by its ObjectRef: fetched and converted once per process,
    not per batch."""
    import ray

    return pa.array(sorted(ray.get(survivors_ref)))


def _keep_survivors(survivors_ref):
    def keep_survivors(batch: pa.Table) -> pa.Table:
        mask = pa.compute.is_in(
            batch.column("doc_id"), value_set=_survivor_array(survivors_ref)
        )
        return batch.filter(mask)

    return keep_survivors


def _written_stats(part_dir: str) -> dict:
    """Lineage stats of a written shard, read in-process from just the
    parquet columns they need (no Dataset re-scan). A shard with no rows
    has no parquet file."""
    import pyarrow.compute as pc
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


def run_shard(
    plan: ShardPlan,
    out_dir: str,
    cfg: ExtractConfig | None = None,
    overrides: list[dict] | None = None,
    two_phase: bool = False,
    n_shards: int | None = None,
    sig: str | None = None,
    result_overrides: list[dict] | None = None,
    survivors_ref=None,
    tenant: str | None = None,
) -> dict:
    """Run the extract pipeline for one shard; atomic write + manifest commit.

    ``two_phase`` mirrors the reference's E1/E2 flow (run_job ->
    DETECT_DONE -> run_ocr_job): the detect output is persisted under
    ``detect/part-NNNNN`` (the human-editable intermediate) and recognize
    consumes that checkpoint; output is identical to the fused path.
    ``result_overrides`` (PATCH result analogue) replaces whole extracted
    span sequences at merge, after either path."""
    t0 = time.perf_counter()
    # the reads and writes take the stage's remote args, so each phase is
    # one operator from the read to the write, one task per input block.
    # A fresh dict per call: a read adds its scheduling strategy to the
    # dict it is given, which would then keep a write from fusing.
    opts = PipelineOptions()
    sid = plan.shard_id
    part_dir = os.path.join(out_dir, f"part-{sid:05d}")
    tmp_dir = os.path.join(out_dir, f".tmp-part-{sid:05d}")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir, exist_ok=True)

    ds = _shard_dataset(plan)
    if tenant is not None:
        # tenant-scoped run (reference: every job is tenant-filtered,
        # routes_jobs.py:52-63); part of config_sig, so switching tenants
        # on the same output dir invalidates and reruns the shards
        from .pipeline import scope_tenant

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
        det_dir = os.path.join(out_dir, "detect", f"part-{sid:05d}")
        det_tmp = os.path.join(out_dir, "detect", f".tmp-part-{sid:05d}")
        shutil.rmtree(det_tmp, ignore_errors=True)
        os.makedirs(det_tmp, exist_ok=True)
        t_det = time.perf_counter()
        det = build_detect_pipeline(ds, cfg=cfg)
        det.write_parquet(det_tmp, ray_remote_args=opts.remote_args())
        stage_times["detect_s"] = round(time.perf_counter() - t_det, 4)
        if os.environ.get("GRAFT_STATS"):
            print(
                f"--- shard {sid} detect stats ---\n{det.stats()}",
                file=sys.stderr,
            )
        shutil.rmtree(det_dir, ignore_errors=True)
        os.replace(det_tmp, det_dir)  # DETECT_DONE boundary committed
        detected = rd.read_parquet(det_dir, ray_remote_args=opts.remote_args())
        t_rec = time.perf_counter()
        out = build_recognize_pipeline(detected, cfg=cfg, overrides=overrides)
        out = apply_result_overrides(out, result_overrides)
        out.write_parquet(tmp_dir, ray_remote_args=opts.remote_args())
        stage_times["recognize_s"] = round(time.perf_counter() - t_rec, 4)
    else:
        out = build_extract_pipeline(ds, cfg=cfg, overrides=overrides)
        out = apply_result_overrides(out, result_overrides)
        out.write_parquet(tmp_dir, ray_remote_args=opts.remote_args())
    if os.environ.get("GRAFT_STATS"):
        # per-stage wall/cpu breakdown (reference's per-stage INFO timing
        # analogue, orchestrator.py:38-72) — stderr so the one-line JSON
        # summary on stdout stays machine-readable
        print(
            f"--- shard {sid} stats ---\n{out.stats()}",
            file=sys.stderr,
        )

    st = _written_stats(tmp_dir)
    wall = time.perf_counter() - t0

    shutil.rmtree(part_dir, ignore_errors=True)
    os.replace(tmp_dir, part_dir)  # atomic data commit
    manifest = {
        "partition_id": sid,
        "lineage": {
            "files": plan.files,
            "hash_mod": list(plan.hash_mod) if plan.hash_mod else None,
            "input_path": plan.input_path,
        },
        **st,
        "n_shards": n_shards,
        "config_sig": sig
        if sig is not None
        else config_sig(cfg, overrides, two_phase, result_overrides),
        "content_sha256": _content_sha256(part_dir),
        "wall_time_s": round(wall, 4),
        "docs_per_s": round(st["n_docs"] / wall, 3) if wall > 0 else None,
        "two_phase": two_phase,
        "stage_times": stage_times,
        "status": "DONE",
    }
    mpath = _manifest_path(out_dir, sid)
    os.makedirs(os.path.dirname(mpath), exist_ok=True)
    tmp_m = mpath + ".tmp"
    with open(tmp_m, "w") as f:
        json.dump(manifest, f, indent=2)
    os.replace(tmp_m, mpath)  # manifest commit last
    return manifest


def _manifest_valid(manifest: dict, plan: ShardPlan, n_shards: int, sig: str) -> bool:
    """A committed manifest only counts for resume if its lineage (input
    files / hash partition / path), shard count and config fingerprint all
    match the freshly computed plan — re-running with a different --shards,
    input directory or config must rerun the shard, not silently mix
    incompatible outputs."""
    lin = manifest.get("lineage") or {}
    return (
        lin.get("files") == plan.files
        and lin.get("hash_mod") == (list(plan.hash_mod) if plan.hash_mod else None)
        and lin.get("input_path") == plan.input_path
        and manifest.get("n_shards") == n_shards
        and manifest.get("config_sig") == sig
    )


def _shard_owns_docs(plan: ShardPlan, doc_ids: set[str]) -> bool:
    """Whether any of ``doc_ids`` belongs to this shard's INPUT — the hash
    rule for hash shards (metadata-only); the doc_id column of the shard's
    files otherwise (a pruned single-column read of just this shard's
    files). Input-side on purpose: a doc dropped from the output by the
    dedup pre-pass still maps to its owning shard."""
    if plan.hash_mod is not None:
        i, n = plan.hash_mod
        return any(hash_str(d) % n == i for d in doc_ids)
    import pyarrow.parquet as pq

    for f in plan.files:
        col = pq.read_table(f, columns=["doc_id"]).column("doc_id").to_pylist()
        if any(str(v) in doc_ids for v in col):
            return True
    return False


def _retry_delay_s(shard_id: int, attempt: int, base_s: float) -> float:
    """Exponential backoff with deterministic jitter, capped at 600 s —
    the reference's Celery autoretry shape (retry_backoff=True,
    retry_backoff_max=600, retry_jitter — ocr_tasks.py:58-65)."""
    delay = base_s * (2**attempt)
    jitter = (hash_str(f"{shard_id}:{attempt}") % 1000) / 1000.0
    return min(600.0, delay * (0.5 + jitter))


def run_job(
    input_path: str,
    out_dir: str,
    n_shards: int = 8,
    cfg: ExtractConfig | None = None,
    overrides: list[dict] | None = None,
    resume: bool = True,
    two_phase: bool = False,
    shard_retries: int = 2,
    retry_base_s: float = 1.0,
    result_overrides: list[dict] | None = None,
    dedup: str = "none",
    invalidate_doc_ids: list[str] | None = None,
    tenant: str | None = None,
) -> dict:
    """Full checkpointed job. Returns a summary incl. which shards ran vs
    were skipped (resume anti-join against committed manifests, each
    validated against the current plan's lineage + config) and which
    previously-committed shards were invalidated and rerun. Failed shards
    retry with capped exponential backoff (reference Celery semantics).

    ``invalidate_doc_ids`` is the per-document requeue/rerun hook
    (reference POST /jobs/{id}/rerun forces one job's re-processing,
    routes_jobs.py:119-175): committed shards owning any listed doc_id are
    invalidated and rerun; every other shard's checkpoint is reused.
    Granularity is the shard (the checkpoint unit), so one rerun doc
    recomputes only its shard, never the corpus.

    ``dedup="exact"`` runs a whole-document exact-dedup pre-pass over the
    full input (vectorized span-signature hash; the shuffle carries only
    16-byte signatures), commits the survivor doc_id list under
    ``out_dir/dedup/`` (atomic, reused on resume), and every shard drops
    non-survivors before extraction — the training-data composition
    read -> dedup -> extract."""
    plans = plan_shards(input_path, n_shards)
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
        # validate input lineage like _manifest_valid does, else adding an
        # input file on resume would reuse a stale list and silently drop
        # every new document
        inputs = sorted({f for p in plans for f in p.files}) or [
            plans[0].input_path
        ]
        meta = {"config_sig": sig, "inputs": inputs}
        have = False
        if resume and os.path.isfile(surv_meta_path):
            with open(surv_meta_path) as f:
                have = json.load(f) == meta
        if not have:
            tmp = os.path.join(out_dir, ".tmp-dedup")
            shutil.rmtree(tmp, ignore_errors=True)
            os.makedirs(tmp, exist_ok=True)
            full = rd.read_parquet(
                inputs if plans[0].files else plans[0].input_path
            )
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
        survivors_ref = ray.put(surv)
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
            shutil.rmtree(
                os.path.join(out_dir, f"part-{sid:05d}"), ignore_errors=True
            )
            continue
        if not resume:
            continue  # shard reruns anyway; manifest will be overwritten
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
    ran, skipped = [], []
    t0 = time.perf_counter()
    for plan in plans:
        if plan.shard_id in done:
            skipped.append(plan.shard_id)
            continue
        for attempt in range(shard_retries + 1):
            try:
                run_shard(
                    plan, out_dir, cfg=cfg, overrides=overrides,
                    two_phase=two_phase, n_shards=n_shards, sig=sig,
                    result_overrides=result_overrides,
                    survivors_ref=survivors_ref, tenant=tenant,
                )
                break
            except Exception:
                if attempt == shard_retries:
                    raise
                time.sleep(_retry_delay_s(plan.shard_id, attempt, retry_base_s))
        ran.append(plan.shard_id)
    manifests = load_manifests(out_dir)
    return {
        "out_dir": out_dir,
        "n_shards": n_shards,
        "shards_ran": ran,
        "shards_skipped": skipped,
        "shards_invalidated": sorted(invalidated),
        "n_docs": sum(m["n_docs"] for m in manifests),
        "n_blocks": sum(m["n_blocks"] for m in manifests),
        "n_span_errors": sum(m.get("n_span_errors", 0) for m in manifests),
        "wall_time_s": round(time.perf_counter() - t0, 4),
    }
