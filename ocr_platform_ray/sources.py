"""Corpus sources beyond Parquet/Lance: JSONL ingestion with schema
enforcement (SURVEY §2.2 P16 — malformed rows are dropped and counted
rather than failing the read; the reference marks such jobs FAILED,
ocr_tasks.py:204-212).

Interleaved-doc JSONL row shape:
    {"doc_id": "...", "spans": [{"kind": "text", "text": "...",
     "media_ref": "", "offset": 0}, ...]}
"""

from __future__ import annotations

import json

import pyarrow as pa

import ray.data as rd

from .schema import DOCUMENTS_SCHEMA


def _strip_schema_metadata(t: pa.Table) -> pa.Table:
    return t.replace_schema_metadata(None)


def read_parquet_clean(*args, **kwargs) -> rd.Dataset:
    """``read_parquet`` + a zero-copy schema-metadata strip. Pandas-written
    parquet (the test tables) carries a ``{b'pandas': ...}`` schema-
    metadata dict; ``hash(pa.Schema)`` raises TypeError on dict metadata,
    so every downstream block-bundling ``unify_schemas`` logs "Failed to
    hash the schemas" in the WORKER (where no log filter of the calling
    process can reach) and misses Ray's set() dedup early exit. Metadata
    carries no data — stripping it at the seam keeps worker logs clean
    and the early exit hot. Plan topology and scan pruning (columns=/
    filter=) are unchanged. The query library reads through here; the
    extraction path plans its reads instead (``pipeline.plan_reads``)."""
    return rd.read_parquet(*args, **kwargs).map_batches(
        _strip_schema_metadata, zero_copy_batch=True, batch_format="pyarrow"
    )


def _coerce_row(obj: dict) -> dict | None:
    """Validate + coerce one parsed JSON object to the documents schema;
    None for structurally malformed rows (dead-letter), including a span
    offset outside the schema's int32."""
    try:
        doc_id = obj["doc_id"]
        if not isinstance(doc_id, str):
            return None
        spans = []
        for sp in obj.get("spans") or []:
            kind = sp.get("kind")
            offset = int(sp.get("offset", 0))
            if kind not in ("text", "image") or not -2**31 <= offset < 2**31:
                return None
            spans.append(
                {
                    "kind": kind,
                    "text": str(sp.get("text") or ""),
                    "media_ref": str(sp.get("media_ref") or ""),
                    "offset": offset,
                }
            )
        return {"doc_id": doc_id, "spans": spans}
    except (KeyError, TypeError, ValueError, AttributeError):
        return None


def _parse_lines(batch: pa.Table) -> pa.Table:
    """Per-line dead-letter parse of a ``read_text`` batch: blank lines,
    malformed JSON lines and rows failing the coercion contract are
    dropped row-by-row."""
    rows = []
    for line in batch.column("text").to_pylist():
        line = (line or "").strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        row = _coerce_row(obj)
        if row is not None:
            rows.append(row)
    return pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA)


def read_corpus_jsonl(path: str) -> rd.Dataset:
    """Read an interleaved-document corpus from JSONL file(s): read_text
    + a per-batch parse (read_json cannot enforce the nested span struct
    against heterogeneous rows). Each line is parsed and coerced to the
    documents schema on its own (``_coerce_row``), so a malformed line
    drops only its own row."""
    return rd.read_text(path).map_batches(_parse_lines, batch_format="pyarrow")


def write_corpus_jsonl(docs: list[dict], path: str) -> None:
    """Write corpus rows as JSONL (test/interchange helper)."""
    with open(path, "w") as f:
        for d in docs:
            f.write(json.dumps(d) + "\n")


def parquet_layout_audit(sf_dir: str, tables: tuple | None = None) -> pa.Table:
    """Storage-layout introspection for every input table: row-group
    count and sizes, row counts, compressed bytes, column count — the
    pre-flight read-path audit (Ray Data parallelizes reads by row
    group, so ONE giant row group serializes the whole scan; tiny row
    groups bloat scheduling; and the min/max stats these groups carry
    are what makes ``filter=`` pushdown prune at all).

    Driver-local metadata reads (parquet footers only — no data pages
    touched); at 100 TB the same loop runs as a map over the file
    listing. Rows-only driver check (no SQL oracle: DuckDB exposes no
    row-group metadata for a view)."""
    import os

    import pyarrow.parquet as pq

    if tables is None:
        tables = (
            "region", "nation", "customer", "supplier", "part",
            "orders", "lineitem", "events", "documents", "embeddings",
        )
    out = {
        "table": [], "n_rows": [], "n_row_groups": [],
        "max_rg_rows": [], "compressed_bytes": [], "n_columns": [],
    }
    for t in tables:
        path = os.path.join(sf_dir, f"{t}.parquet")
        if not os.path.exists(path):
            continue
        f = pq.ParquetFile(path)
        md = f.metadata
        rg_rows = [md.row_group(i).num_rows for i in range(md.num_row_groups)]
        comp = sum(
            md.row_group(i).total_byte_size
            for i in range(md.num_row_groups)
        )
        out["table"].append(t)
        out["n_rows"].append(md.num_rows)
        out["n_row_groups"].append(md.num_row_groups)
        out["max_rg_rows"].append(max(rg_rows) if rg_rows else 0)
        out["compressed_bytes"].append(comp)
        out["n_columns"].append(md.num_columns)
    return pa.Table.from_pydict(
        {
            "table": pa.array(out["table"], pa.string()),
            "n_rows": pa.array(out["n_rows"], pa.int64()),
            "n_row_groups": pa.array(out["n_row_groups"], pa.int64()),
            "max_rg_rows": pa.array(out["max_rg_rows"], pa.int64()),
            "compressed_bytes": pa.array(
                out["compressed_bytes"], pa.int64()
            ),
            "n_columns": pa.array(out["n_columns"], pa.int64()),
        }
    )
