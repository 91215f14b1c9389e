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


def read_parquet_clean(*args, map_kwargs: dict | None = None, **kwargs) -> rd.Dataset:
    """``read_parquet`` + a zero-copy schema-metadata strip. Pandas-written
    parquet (the test tables) carries a ``{b'pandas': ...}`` schema-
    metadata dict; ``hash(pa.Schema)`` raises TypeError on dict metadata,
    so every downstream block-bundling ``unify_schemas`` logs "Failed to
    hash the schemas" in the WORKER (where no log filter of the calling
    process can reach) and misses Ray's set() dedup early exit. Metadata
    carries no data — stripping it at the seam keeps worker logs clean
    and the early exit hot. Plan topology and scan pruning (columns=/
    filter=) are unchanged.

    The strip's ``map_batches`` takes ``map_kwargs`` as its remote args
    (default: Ray's). Ray Data fuses two maps only when their remote
    args match, so a caller whose next map sets its own args (the
    flagship's ``PipelineOptions().task_kwargs()``) passes them here to
    keep the strip inside that map's operator."""
    kw = {"batch_format": "pyarrow", **(map_kwargs or {})}
    return rd.read_parquet(*args, **kwargs).map_batches(
        _strip_schema_metadata, zero_copy_batch=True, **kw
    )


def _coerce_row(obj: dict) -> dict | None:
    """Validate + coerce one parsed JSON object to the documents schema;
    None for structurally malformed rows (dead-letter)."""
    try:
        doc_id = obj["doc_id"]
        if not isinstance(doc_id, str):
            return None
        spans = []
        for sp in obj.get("spans") or []:
            kind = sp.get("kind")
            if kind not in ("text", "image"):
                return None
            spans.append(
                {
                    "kind": kind,
                    "text": str(sp.get("text") or ""),
                    "media_ref": str(sp.get("media_ref") or ""),
                    "offset": int(sp.get("offset", 0)),
                }
            )
        return {"doc_id": doc_id, "spans": spans}
    except (KeyError, TypeError, ValueError, AttributeError):
        return None


def _parse_lines_scalar(lines: list[str]) -> pa.Table:
    """Per-line dead-letter path: malformed JSON lines and rows failing
    the coercion contract are dropped row-by-row."""
    rows = []
    for line in lines:
        line = line.strip()
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
    """Read an interleaved-document corpus from JSONL file(s).

    read_text + per-batch parsing with TWO paths (read_json cannot
    enforce the nested span struct against heterogeneous rows):

    - fast path: the whole line batch parses in one vectorized
      ``polars.read_ndjson`` pass against the strict schema, then
      row-level validation (doc_id present, every span kind in
      {text,image}) and null coercion run as columnar expressions;
    - dead-letter path: if ANY line is malformed (bad JSON, wrong types),
      strict parsing raises and the batch falls back to the original
      per-line loop, dropping exactly the bad rows.

    Clean corpora — the overwhelmingly common case at scale — never pay
    the per-line Python loop; a batch containing damage pays it once."""
    import io

    import polars as pl

    span_dtype = pl.List(
        pl.Struct(
            {
                "kind": pl.String,
                "text": pl.String,
                "media_ref": pl.String,
                "offset": pl.Int32,
            }
        )
    )

    def _fast_path_agrees(df: "pl.DataFrame", n_lines: int) -> bool:
        """The vectorized parse is trusted only when it provably matches
        the scalar contract: no line silently dropped or type-coerced
        (polars casts a JSON number to a schema'd String; the scalar path
        dead-letters that row)."""
        if df.height != n_lines:
            return False  # some line was silently skipped
        if df.schema.get("doc_id") != pl.String:
            return False
        stype = df.schema.get("spans")
        if stype is None:
            return True  # no row had spans: all coerce to empty lists
        if not (stype == pl.List and stype.inner == pl.Struct):
            return False
        fields = dict(stype.inner.to_schema())
        for name in ("kind", "text", "media_ref"):
            if name not in fields or fields[name] != pl.String:
                return False
        return "offset" in fields and fields["offset"] in (pl.Int64, pl.Int32)

    def parse(batch: pa.Table) -> pa.Table:
        lines = [
            ln for ln in batch.column("text").to_pylist() if ln and ln.strip()
        ]
        if not lines:
            return DOCUMENTS_SCHEMA.empty_table()
        try:
            df = pl.read_ndjson(
                io.BytesIO("\n".join(lines).encode()),
                infer_schema_length=None,
            )
        except Exception:
            return _parse_lines_scalar(lines)
        if not _fast_path_agrees(df, len(lines)):
            return _parse_lines_scalar(lines)
        if "spans" not in df.columns:
            df = df.with_columns(pl.lit(None, dtype=span_dtype).alias("spans"))
        df = df.select("doc_id", "spans")
        # row validation, columnar: doc_id present; every span kind valid
        # (a null/unknown kind drops the whole row, same as _coerce_row)
        kind_ok = (
            pl.col("spans")
            .list.eval(
                pl.element()
                .struct.field("kind")
                .is_in(["text", "image"])
                .fill_null(False)
            )
            .list.all()
            .fill_null(True)  # missing spans == no spans == valid
        )
        df = df.filter(pl.col("doc_id").is_not_null() & kind_ok)
        # null coercion inside each span struct (text/media_ref -> "",
        # offset -> 0), and null span lists -> empty lists
        df = df.with_columns(
            pl.col("spans")
            .list.eval(
                pl.struct(
                    kind=pl.element().struct.field("kind"),
                    text=pl.element().struct.field("text").fill_null(""),
                    media_ref=pl.element()
                    .struct.field("media_ref")
                    .fill_null(""),
                    offset=pl.element().struct.field("offset").fill_null(0),
                )
            )
            .fill_null(pl.lit([], dtype=span_dtype))
        )
        return df.to_arrow().cast(DOCUMENTS_SCHEMA)

    return rd.read_text(path).map_batches(parse, batch_format="pyarrow")


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
