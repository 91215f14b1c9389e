"""End-to-end corpus curation: the composed training-data pipeline a user
of this library runs before training — quality gate, exact dedup, split
assignment, per-split budget accounting. One streaming graph built
entirely from the operator library (no new semantics here), proving the
operators compose: filter -> per-batch-combined dedup -> hash join back
for payload columns -> md5 split -> partial aggregation.

Generalizes the reference's per-job progress accounting
(/root/reference/apps/api/app/api/v1/routes_jobs.py job counters) to a
corpus-curation report, SQL-reproducible end to end.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray.data as rd

import numpy as np

from . import apply_per_partition, textstats
from .dedup import _text_hash64, shuffle_blocks, train_test_split

QUALITY_CUT = 0.5


def curation_summary(ds: rd.Dataset) -> rd.Dataset:
    """(doc_id, text) corpus -> per-split curation report: (split, n_docs,
    tokens) after a quality gate (score >= QUALITY_CUT) and exact text
    dedup (min doc_id survives).

    Scale shape: ONE scan — quality + token counts are row-local; the
    dedup groupby carries each survivor's n_tokens as payload (identical
    texts have identical token counts, so the min-doc winner's count IS
    the survivor's count — no join back, no second corpus scan), keyed
    on the int64 text hash so the shuffle sorts on fixed-width keys;
    split assignment is row-local md5; the final groupby moves 3 partial
    rows per batch."""
    import pandas as pd

    scored = ds.map_batches(textstats.quality_batch, batch_format="pyarrow")
    kept = scored.filter(expr=f"quality_score >= {QUALITY_CUT}")

    def dedup_partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["doc_id", "text", "n_tokens"]).to_pandas()
        win = df.loc[df.groupby("text")["doc_id"].idxmin()]
        cb = (_text_hash64(pa.array(win["text"])) & np.uint64(1023)).astype(
            np.int64
        )
        return pa.Table.from_pydict(
            {"cb": cb, "text": win["text"], "doc_id": win["doc_id"],
             "n_tokens": win["n_tokens"].astype("int64")}
        )

    def dedup_final(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized sub-groupby per sorted block of hash buckets, not
        # one Ray group per distinct text; exact text equality decides
        win = g.loc[g.groupby("text")["doc_id"].idxmin()]
        return win[["doc_id", "n_tokens"]]

    survivors = apply_per_partition(
        kept.map_batches(dedup_partial, batch_format="pyarrow")
        .repartition(shuffle_blocks()),
        "cb",
        dedup_final,
    )
    labeled = train_test_split(survivors)

    def partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        return (
            pl.from_arrow(batch.select(["split", "n_tokens"]))
            .group_by("split")
            .agg(
                pl.len().alias("n_docs"),
                pl.col("n_tokens").sum().alias("tokens"),
            )
            .to_arrow()
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "split": [g["split"].iloc[0]],
                "n_docs": [int(g["n_docs"].sum())],
                "tokens": [int(g["tokens"].sum())],
            }
        )

    return (
        labeled.map_batches(partial, batch_format="pyarrow")
        .repartition(shuffle_blocks())
        .groupby("split")
        .map_groups(final, batch_format="pandas")
        .sort("split")
    )
