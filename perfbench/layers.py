"""Per-layer measurement for the traced run.

Everything here times calls into the engine's public functions from the
benchmark's side of the boundary; no engine code is changed:

- kernels: ``media.render``, ``kernels.extract.detect_image``,
  ``kernels.extract.prepare_recognize`` and ``recognizek.decode_strips``,
  called in this process over a workload's whole corpus;
- stages: ``count_spans_batch`` + ``normalize_spans_batch`` and the actor
  stage classes, called in this process at the pipeline batch size;
- ray_data: the per-operator lines of ``Dataset.stats()``;
- checkpoint: the shard manifests a job commits.
"""

from __future__ import annotations

import os
import re
import statistics
import time
from contextlib import contextmanager

import pyarrow as pa

from ocr_platform_ray.pipeline import PipelineOptions

BATCH = PipelineOptions().uniform_batch_size  # the actor stage's batch size
RAY_OPS = ("read", "repartition", "prepare", "extract", "consume")
QUERIES = ("q_exact_dedup", "q_minhash_pairs", "q_shipping_priority", "q_sessions")


def metric_names() -> list[str]:
    """Every per-layer metric, in report order. Each traced run reports all
    of them; a layer a workload does not exercise reads 0."""
    names = [
        "kernels.render_s", "kernels.detect_s", "kernels.prepare_s",
        "kernels.decode_s", "kernels.images", "kernels.boxes",
        "kernels.strips", "kernels.docs_per_core_s",
        "stages.normalize_s", "stages.extract_s", "stages.assemble_s",
        "stages.extract.batch_p50_ms", "stages.extract.batch_p90_ms",
    ]
    for op in RAY_OPS:
        names += [f"ray_data.{op}.{f}" for f in ("tasks", "blocks", "remote_wall_s", "udf_s")]
    names += [
        "ray_data.extract.rows_per_task", "ray_data.extract.peak_heap_mb",
        "pipeline.traced_wall_s", "pipeline.gap_s", "trace.overhead_s",
        "checkpoint.detect_s", "checkpoint.recognize_s", "checkpoint.commit_s",
        "checkpoint.shard_skew", "checkpoint.resume_noop_s",
        "checkpoint.rerun_s", "checkpoint.dead_letters",
        "checkpoint.bytes_written",
    ]
    names += [f"queries.{q}_s" for q in QUERIES]
    return names


_UNITS = (
    (".docs_per_core_s", "docs/core-s"), (".shard_skew", "ratio"),
    (".bytes_written", "bytes"), ("_ms", "ms"), ("_mb", "MiB"), ("_s", "s"),
)


def unit_of(name: str) -> str:
    return next((u for suffix, u in _UNITS if name.endswith(suffix)), "count")


class Tracer:
    """In-memory spans (name, start, end, parent) at layer boundaries,
    written out once when the run ends."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.stats: dict = {}  # Dataset.stats() text and parsed operators
        self.manifests: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {
            "id": sid, "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self.t0, "end": None, **attrs,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self.t0

    def duration(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


# ------------------------------------------------- kernels + stages layers

def layer_walk(docs: list[dict], table: pa.Table, stages: list, tracer: Tracer) -> dict:
    """In-process kernel and stage times over a corpus, batch by batch.

    For each pipeline-sized batch of ``docs`` the fused path's kernels are
    called one by one (render, detect, prepare per image span; one decode
    call per batch, as the actor stage makes), then the same rows of
    ``table`` go through normalize and the actor ``stages`` (instances
    built untimed, as an actor's ``__init__`` is). Pairing the two per
    batch keeps drift on a shared box out of their difference,
    ``stages.assemble_s``. A span whose media cannot be rendered is a dead
    letter and adds no kernel work."""
    from ocr_platform_ray import media
    from ocr_platform_ray.kernels import recognizek
    from ocr_platform_ray.kernels.extract import (
        ExtractConfig, detect_image, prepare_recognize,
    )
    from ocr_platform_ray.stages.normalize import count_spans_batch, normalize_spans_batch

    cfg = ExtractConfig()
    t = {"render": 0.0, "detect": 0.0, "prepare": 0.0, "decode": 0.0}
    n = {"images": 0, "boxes": 0, "strips": 0}
    norm_s = 0.0
    batch_ms: list[float] = []
    clock = time.perf_counter
    for b in range(0, len(docs), BATCH):
        with tracer.span("kernels", batch=b // BATCH):
            strips_batch: list = []
            for doc in docs[b : b + BATCH]:
                for sp in doc["spans"]:
                    if sp["kind"] != "image":
                        continue
                    t0 = clock()
                    try:
                        img = media.render(sp["media_ref"])
                    except (ValueError, KeyError, IndexError, OverflowError):
                        continue
                    t1 = clock()
                    boxes, w, h = detect_image(sp["media_ref"], cfg, img=img)
                    t2 = clock()
                    strips, _ = prepare_recognize(sp["media_ref"], boxes, w, h, cfg, img=img)
                    t3 = clock()
                    t["render"] += t1 - t0
                    t["detect"] += t2 - t1
                    t["prepare"] += t3 - t2
                    n["images"] += 1
                    n["boxes"] += len(boxes)
                    n["strips"] += len(strips)
                    strips_batch.extend(strips)
            t0 = clock()
            recognizek.decode_strips(strips_batch)
            t["decode"] += clock() - t0
        batch = table.slice(b, BATCH)
        with tracer.span("stages.normalize", batch=b // BATCH):
            t0 = clock()
            batch = normalize_spans_batch(count_spans_batch(batch))
            norm_s += clock() - t0
        with tracer.span("stages.extract", batch=b // BATCH):
            t0 = clock()
            for stage in stages:
                batch = stage(batch)
            batch_ms.append((clock() - t0) * 1000.0)
    kernel_s = sum(t.values())
    extract_s = sum(batch_ms) / 1000.0
    deciles = statistics.quantiles(batch_ms, n=10) if len(batch_ms) > 1 else batch_ms * 9
    return {
        **{f"kernels.{k}_s": v for k, v in t.items()},
        **{f"kernels.{k}": v for k, v in n.items()},
        "kernels.docs_per_core_s": len(docs) / kernel_s if kernel_s else 0.0,
        "stages.normalize_s": norm_s,
        "stages.extract_s": extract_s,
        "stages.assemble_s": extract_s - kernel_s,
        "stages.extract.batch_p50_ms": statistics.median(batch_ms),
        "stages.extract.batch_p90_ms": deciles[8],
    }


# ----------------------------------------------------------- ray_data layer

_OP = re.compile(r"^Operator \d+ (?P<name>.+?): (?P<rest>.*)$", re.M)
_COUNTS = re.compile(r"(\d+) tasks executed, (\d+) blocks produced")
_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def _total_s(body: str, label: str) -> float:
    """Sum of the ``label ... <x> total`` lines of an operator (one line,
    or one per sub-operator of an all-to-all operator)."""
    return sum(
        float(v) * _UNIT_S[u]
        for v, u in re.findall(rf"^\t?\* {label}: .*?, ([\d.]+)(us|ms|s) total", body, re.M)
    )


def op_class(name: str) -> str:
    """Map a Ray Data operator name onto the layer it belongs to; a fused
    operator belongs to its most expensive part."""
    if any(s in name for s in ("ExtractStage", "DetectStage", "RecognizeStage")):
        return "extract"
    if any(s in name for s in ("to_spans", "count_spans", "normalize_spans")):
        return "prepare"
    if "Repartition" in name:
        return "repartition"
    if "Read" in name or "_strip_schema_metadata" in name:
        return "read"
    return "consume"


def parse_stats(text: str) -> list[dict]:
    """Top-level operators of ``Dataset.stats()`` text (several datasets'
    texts may be concatenated)."""
    ops = []
    matches = list(_OP.finditer(text))
    for i, m in enumerate(matches):
        body = text[m.end() : matches[i + 1].start() if i + 1 < len(matches) else len(text)]
        body = body.split("\nDataset ", 1)[0]
        # a map operator counts on its header line; an all-to-all one on
        # each of its sub-operator lines
        counts = _COUNTS.findall(m.group("rest")) or _COUNTS.findall(body)
        heap = re.findall(r"^\t?\* Peak heap memory usage \(MiB\): [\d.]+ min, ([\d.]+) max", body, re.M)
        rpt = re.search(r"^\* Output rows per task: .*?, ([\d.]+) mean", body, re.M)
        ops.append({
            "name": m.group("name"),
            "class": op_class(m.group("name")),
            "tasks": sum(int(c[0]) for c in counts),
            "blocks": sum(int(c[1]) for c in counts),
            "remote_wall_s": _total_s(body, "Remote wall time"),
            "udf_s": _total_s(body, "UDF time"),
            "peak_heap_mb": max(map(float, heap), default=0.0),
            "rows_per_task": float(rpt.group(1)) if rpt else 0.0,
        })
    return ops


def ray_data_metrics(ops: list[dict]) -> dict:
    """Sum operators per layer class (a sharded job runs each class once
    per shard and phase)."""
    out = {}
    for cls in RAY_OPS:
        mine = [o for o in ops if o["class"] == cls]
        for f in ("tasks", "blocks", "remote_wall_s", "udf_s"):
            out[f"ray_data.{cls}.{f}"] = sum(o[f] for o in mine)
    ext = [o for o in ops if o["class"] == "extract"]
    out["ray_data.extract.rows_per_task"] = (
        statistics.mean(o["rows_per_task"] for o in ext) if ext else 0.0
    )
    out["ray_data.extract.peak_heap_mb"] = max((o["peak_heap_mb"] for o in ext), default=0.0)
    return out


# --------------------------------------------------------- checkpoint layer

def checkpoint_metrics(manifests: list[dict], out_dir: str) -> dict:
    walls = [m["wall_time_s"] for m in manifests]
    det = sum(m["stage_times"].get("detect_s", 0.0) for m in manifests)
    rec = sum(m["stage_times"].get("recognize_s", 0.0) for m in manifests)
    size = 0
    for d, _, files in os.walk(out_dir):
        size += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    return {
        "checkpoint.detect_s": det,
        "checkpoint.recognize_s": rec,
        "checkpoint.commit_s": sum(walls) - det - rec,
        "checkpoint.shard_skew": max(walls) / statistics.median(walls) if walls else 0.0,
        "checkpoint.dead_letters": sum(m.get("n_span_errors", 0) for m in manifests),
        "checkpoint.bytes_written": size,
    }
