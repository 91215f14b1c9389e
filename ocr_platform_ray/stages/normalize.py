"""Stateless vectorized stages over doc rows: text normalize (and span
counting for the benchmark).

``normalize_spans_batch`` is the vectorized (pyarrow.compute / RE2)
implementation of the scalar spec in ``kernels.textnorm``; the conformance
suite holds them equal. Runs zero-copy over Arrow batches — no Python loop
over rows or spans.

Reference analogue: postprocess hook (/root/reference/libs/ocr_core/
ocr_core/pipeline/postprocess.py:4-6) generalized to the contract's
boilerplate-strip/normalize stage for native text spans.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..kernels.textnorm import BOILERPLATE_RE, WS_RE
from ..schema import SPAN_STRUCT

_TRIM_CHARS = " \t\n\r\x0b\x0c"


def _list_parts(col) -> tuple[np.ndarray, pa.StructArray]:
    """ListArray column -> (per-row counts, flattened values). Slice-safe."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    counts = pc.list_value_length(col).fill_null(0).to_numpy().astype(np.int64)
    values = col.flatten()
    return counts, values


def _rebuild_list(counts: np.ndarray, values: pa.Array) -> pa.ListArray:
    offsets = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), values)


def count_spans_batch(batch: pa.Table) -> pa.Table:
    """Add the n_image_spans column (image spans per doc — the reference's
    pdf page-count analogue, routes_jobs.py:68-73). The extraction path
    does not run it; perfbench's stage walk is its only importer, kept
    like ``DetectStage`` and ``RecognizeStage``."""
    counts, values = _list_parts(batch.column("spans"))
    is_img = pc.equal(values.field("kind"), "image").to_numpy(zero_copy_only=False)
    parent = np.repeat(np.arange(len(counts)), counts)
    n_img = np.bincount(parent[is_img], minlength=len(counts)).astype(np.int32)
    out = batch
    if "n_image_spans" in out.column_names:
        out = out.drop_columns(["n_image_spans"])
    return out.append_column("n_image_spans", pa.array(n_img))


def normalize_text_array(text: pa.Array) -> pa.Array:
    """Vectorized normalize: boilerplate strip -> whitespace collapse -> trim."""
    out = pc.replace_substring_regex(
        text, pattern="(?s)" + BOILERPLATE_RE, replacement=" "
    )
    out = pc.replace_substring_regex(out, pattern=WS_RE, replacement=" ")
    return pc.utf8_trim(out, characters=_TRIM_CHARS)


def normalize_spans_batch(batch: pa.Table) -> pa.Table:
    """Normalize the text of kind='text' spans in place (list structure,
    span indices and offsets unchanged — override span_idx stays valid)."""
    counts, values = _list_parts(batch.column("spans"))
    kind = values.field("kind")
    text = values.field("text")
    is_text = pc.equal(kind, "text")
    new_text = pc.if_else(is_text, normalize_text_array(text), text)
    new_values = pa.StructArray.from_arrays(
        [kind, new_text, values.field("media_ref"), values.field("offset")],
        fields=list(SPAN_STRUCT),
    )
    new_col = _rebuild_list(counts, new_values)
    idx = batch.column_names.index("spans")
    return batch.set_column(idx, "spans", new_col)
