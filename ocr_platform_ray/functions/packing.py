"""Sequence packing: assign documents to fixed-token-budget training
sequences (the "pack short documents into 2k/4k/8k-token rows" step of an
LLM pre-training data pipeline).

Packing is inherently sequential, so a single global greedy pass cannot
scale; instead docs are hash-bucketed (deterministically, by md5 of the
id — same keyed pseudo-random contract as ``dedup.stratified_sample``)
and each bucket is packed independently in md5 order. The result is a
pure function of (corpus, max_tokens, n_buckets): stable across runs,
partitionings and cluster sizes, at the cost of at most one underfull
trailing sequence per bucket (n_buckets << n_sequences, so the packing
efficiency loss is negligible at scale — and measurable: see
``seq_fill`` in the output).

Scale notes: token counting is a vectorized row-local map; the one
shuffle is a groupby over ``n_buckets`` keys carrying (id, n_tokens, sort
key) — never text; the greedy fill inside each bucket walks SEQUENCE
boundaries via searchsorted over the cumulative token counts (O(n_seqs
log n_docs), not a per-doc Python loop).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..md5np import md5_hex


def _pack_boundaries(tokens: np.ndarray, max_tokens: int) -> np.ndarray:
    """Greedy fill in given order: start indices of each sequence.

    A sequence takes docs while the running token sum stays <= max_tokens;
    a doc longer than max_tokens gets a sequence of its own. Boundaries
    are found with searchsorted over the cumulative sum — O(n_sequences
    log n_docs)."""
    csum = np.cumsum(tokens, dtype=np.int64)
    starts = [0]
    i = 0
    n = len(tokens)
    while True:
        base = csum[i - 1] if i > 0 else 0
        # last j with csum[j] - base <= max_tokens
        j = int(np.searchsorted(csum, base + max_tokens, side="right"))
        if j <= i:  # oversize doc: own sequence
            j = i + 1
        if j >= n:
            break
        starts.append(j)
        i = j
    return np.asarray(starts, dtype=np.int64)


def pack_sequences(
    ds: rd.Dataset,
    max_tokens: int = 512,
    id_col: str = "doc_id",
    tokens_col: str = "n_tokens",
    n_buckets: int = 64,
) -> rd.Dataset:
    """Docs (with a precomputed ``tokens_col``) -> packed-sequence
    assignment: one output row per doc with its bucket, sequence id,
    position in the sequence, and the sequence's total fill.

    Output columns: ``id_col``, ``n_tokens``, ``seq_id`` (string,
    "<bucket>-<k>"), ``seq_pos``, ``seq_tokens``, ``seq_fill`` (fraction
    of max_tokens used — the packing-efficiency metric)."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        hexs = md5_hex(batch.column(id_col))
        # vectorized hex-pair -> 0..255: two ascii nibbles per row
        pairs = (
            pc.utf8_slice_codeunits(hexs, 0, 2)
            .to_numpy(zero_copy_only=False)
            .astype("S2")
            .view(np.uint8)
            .reshape(-1, 2)
            .astype(np.int64)
        )
        nib = pairs - 48 - 39 * (pairs >= 97)  # '0'-'9'->0-9, 'a'-'f'->10-15
        first = nib[:, 0] * 16 + nib[:, 1]
        batch = batch.append_column("__bucket", pa.array(first % n_buckets))
        return batch.append_column("__sk", hexs)

    keyed = ds.select_columns([id_col, tokens_col]).map_batches(
        add_bucket, batch_format="pyarrow"
    )

    def pack_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["__sk", id_col], kind="mergesort").reset_index(drop=True)
        bucket = int(g["__bucket"].iloc[0])
        tokens = g[tokens_col].to_numpy(dtype=np.int64)
        starts = _pack_boundaries(tokens, max_tokens)
        n = len(g)
        ends = np.append(starts[1:], n)
        seq_idx = np.repeat(np.arange(len(starts)), ends - starts)
        seq_pos = np.arange(n) - starts[seq_idx]
        seq_tokens = np.add.reduceat(tokens, starts)
        return pd.DataFrame(
            {
                id_col: g[id_col],
                "n_tokens": tokens,
                "seq_id": f"{bucket}-" + pd.Series(seq_idx).astype(str),
                "seq_pos": seq_pos,
                "seq_tokens": seq_tokens[seq_idx],
                "seq_fill": np.round(seq_tokens[seq_idx] / max_tokens, 6),
            }
        )

    # map_groups, not apply_per_partition: pack_bucket reads its bucket id
    return keyed.groupby("__bucket").map_groups(pack_bucket, batch_format="pandas")
