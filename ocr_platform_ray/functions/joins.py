"""Join strategies over Datasets.

Three tiers, picked by side sizes (SURVEY §2.4 — the reference's only join
is a per-row dict join; these are the cross-table generalizations a
100 TB engine needs). Every tier runs as Ray tasks; none starts actors:

- broadcast map-side join (small dimension side): ``ray.put`` once, lookup
  inside map_batches — no shuffle (see relational.top_customers);
- bucketed hash join (both sides large): :func:`bucketed_merge_join` —
  both sides hash the key into coarse buckets, ONE sort shuffle on the
  bucket co-locates them, and a pandas merge runs once per sorted block
  (inner/left/semi/anti; also the place to salt hot keys);
- as-of join (Ray Data has no native one): :func:`asof_join` — the same
  key-bucket shuffle + one ``pd.merge_asof(by=key)`` per block, and
  :func:`range_join_count` for interval counts. Partitioning assumption:
  all rows of one key fit one block (true for per-user event history;
  salt by time range for pathological keys).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray.data as rd

from . import apply_per_partition


def _as_arrow_type(t) -> pa.DataType:
    """Coerce a Dataset.schema() entry to an Arrow DataType. Arrow schemas
    pass through; pandas-block schemas carry numpy dtypes or python classes
    (object-dtype string columns arrive as ``object``/``str``)."""
    if isinstance(t, pa.DataType):
        return t
    if t in (str, object):
        return pa.string()
    if t is bytes:
        return pa.binary()
    if t is bool:
        return pa.bool_()
    if t is int:
        return pa.int64()
    if t is float:
        return pa.float64()
    import numpy as np

    dt = np.dtype(t)
    if dt.kind == "O":
        return pa.string()
    return pa.from_numpy_dtype(dt)


def bucketed_merge_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str,
    right_on: str | None = None,
    how: str = "inner",
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
    compact: bool = False,
) -> rd.Dataset:
    """Explicit partitioned hash join: both sides get bucket =
    hash(key) % 64 (polars/Rust hash — key-type generic: int, string,
    date, null), one sort on the bucket co-locates matching buckets, and
    one pandas merge per sorted block joins them
    (:func:`apply_per_partition` — a block holds whole buckets, and equal
    keys share a bucket). Tasks only: no join actors. NULL join keys
    follow SQL equality (match nothing; preserved by left/anti).

    ``how``: "inner" | "left" (unmatched left rows keep nulls in right
    columns) | "semi" (left rows WITH a match, left columns only) |
    "anti" (left rows WITHOUT a match, left columns only).

    ``left_schema``/``right_schema``: pass explicitly when known — it
    skips the ``Dataset.schema()`` peek (which partially EXECUTES a lazy
    upstream) and is REQUIRED when a side can be statically empty (a
    filter that may keep nothing yields ``schema() is None``)."""
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"unsupported how={how!r}")
    right_on = right_on or on
    lsch = left_schema if left_schema is not None else left.schema()
    rsch = right_schema if right_schema is not None else right.schema()
    if lsch is None or rsch is None:
        raise ValueError(
            "bucketed_merge_join: a side is statically empty and its schema "
            "is unknowable — pass left_schema/right_schema explicitly"
        )
    lcols = list(lsch.names)
    rcols = list(rsch.names)
    # Dataset.schema() on pandas blocks (e.g. a map_groups output feeding a
    # second join) reports numpy dtypes / python classes, not Arrow types —
    # normalize so the null-padding below works for any upstream block kind
    types = {n: _as_arrow_type(t) for n, t in zip(lsch.names, lsch.types)}
    types.update({n: _as_arrow_type(t) for n, t in zip(rsch.names, rsch.types)})
    all_cols = lcols + [c for c in rcols if c not in lcols]
    out_cols = lcols if how in ("semi", "anti") else all_cols
    out_fields = [(c, types[c]) for c in out_cols]

    def prep(side: str, key: str, own_cols: list[str]):
        def fn(batch: pa.Table) -> pa.Table:
            import numpy as np
            import polars as pl

            n = batch.num_rows
            arrays, names = [], []
            for c in all_cols:  # pad to the common schema so union is sound
                names.append(c)
                arrays.append(
                    batch.column(c) if c in own_cols else pa.nulls(n, types[c])
                )
            # key-type-generic bucket (int/string/date/null): polars hashes
            # any Arrow column; both sides hash the same value identically
            kc = batch.column(key)
            if isinstance(kc, pa.ChunkedArray):
                kc = kc.combine_chunks()
            h = pl.from_arrow(kc).hash(seed=0).to_numpy().astype(np.uint64)
            names += ["__bucket", "__side"]
            arrays += [
                pa.array((h % np.uint64(64)).astype(np.int64)),
                pa.array([side] * n),
            ]
            return pa.Table.from_arrays(arrays, names=names)

        return fn

    lb = left.map_batches(prep("l", on, lcols), batch_format="pyarrow")
    rb = right.map_batches(prep("r", right_on, rcols), batch_format="pyarrow")

    def _typed(out: pd.DataFrame):
        return pa.Table.from_arrays(
            [pa.array(out[c], type=t, from_pandas=True) for c, t in out_fields],
            names=[c for c, _ in out_fields],
        )

    def merge(g: pd.DataFrame):
        gl = g[g["__side"] == "l"][lcols]
        gr = g[g["__side"] == "r"][rcols]
        # SQL equality semantics: a NULL key matches nothing (pandas merge
        # would happily pair NaN with NaN) — split null-key left rows out
        # and drop null-key right rows before matching
        null_l = gl[gl[on].isna()]
        gl = gl[gl[on].notna()]
        gr = gr[gr[right_on].notna()]
        if how == "inner":
            if gl.empty or gr.empty:
                return _typed(pd.DataFrame(columns=out_cols))
            return _typed(gl.merge(gr, left_on=on, right_on=right_on, how="inner"))
        if how in ("semi", "anti"):
            matched = gl[on].isin(set(gr[right_on]))
            out = gl[matched] if how == "semi" else gl[~matched]
            if how == "anti" and not null_l.empty:
                out = pd.concat([out, null_l])
            return _typed(out)
        # left outer: matched rows merge; unmatched keep nulls on the right
        if gr.empty:
            out = gl.reindex(columns=out_cols)
        else:
            out = gl.merge(gr, left_on=on, right_on=right_on, how="left")
        if not null_l.empty:
            out = pd.concat([out.reindex(columns=out_cols),
                             null_l.reindex(columns=out_cols)])
        return _typed(out.reindex(columns=out_cols))

    u = lb.union(rb)
    if compact:
        # tiny-intermediate compaction (the dedup shuffle_blocks idiom):
        # the sort shuffle pays O(input blocks x reduce groups) scheduling,
        # so when both sides are pre-aggregated partials in many small
        # blocks, coalescing first is a measured win. NOT safe to force on
        # full-table joins — a 100 TB side squeezed into ncpu/2 blocks
        # would blow worker heaps.
        from .dedup import shuffle_blocks

        u = u.repartition(shuffle_blocks())
    return apply_per_partition(u, "__bucket", merge)


def _add_key_bucket(key: str):
    """Coarse key-hash bucket column: the sort shuffles on one int64 of
    256 values instead of the raw key, and per-key semantics are
    restored inside each sorted block with vectorized pandas
    (merge_asof by=, groupby). Key-type generic
    (int/string/null — polars hashes any Arrow column; null keys hash
    deterministically and are handled by the per-bucket logic)."""
    import numpy as np
    import polars as pl

    def fn(batch: pa.Table) -> pa.Table:
        col = batch.column(key)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        h = pl.from_arrow(col).hash(seed=0).to_numpy().astype(np.uint64)
        kb = (h % np.uint64(256)).astype(np.int64)
        out = batch
        if "__kb" in out.column_names:
            out = out.drop_columns(["__kb"])
        return out.append_column("__kb", pa.array(kb))

    return fn


def range_join_count(
    left: rd.Dataset,
    right: rd.Dataset,
    key: str,
    ts: str,
    lo_offset: int,
    hi_offset: int,
    count_name: str = "n_in_range",
) -> rd.Dataset:
    """For each left row, count right rows of the same ``key`` with
    right.ts in [left.ts + lo_offset, left.ts + hi_offset) — the
    interval/range-join aggregate (e.g. "views in the hour before each
    click"). One shuffle on the key; inside each group the count is two
    ``np.searchsorted`` probes against the sorted right timestamps
    (O((nl+nr) log nr) per key, no pairwise expansion). Partitioning
    assumption: one key's rows fit one group (same as asof_join; salt by
    time range for pathological keys)."""
    import numpy as np

    lsch = left.schema()
    lcols = list(lsch.names)
    types = {n: t for n, t in zip(lsch.names, lsch.types)}
    out_fields = [(c, types[c]) for c in lcols] + [(count_name, pa.int64())]

    def tag(side: str):
        def fn(batch: pa.Table) -> pa.Table:
            arrays, names = [], []
            for c in lcols:
                names.append(c)
                if c in batch.column_names:
                    arrays.append(batch.column(c))
                else:
                    arrays.append(pa.nulls(batch.num_rows, types[c]))
            names.append("__side")
            arrays.append(pa.array([side] * batch.num_rows))
            return pa.Table.from_arrays(arrays, names=names)

        return fn

    lb = left.map_batches(tag("l"), batch_format="pyarrow")
    rb = right.select_columns([key, ts]).map_batches(
        tag("r"), batch_format="pyarrow"
    )

    def count(g: pd.DataFrame):
        # one sorted block of many keys: in-process loop per key (two
        # searchsorted probes each) instead of one Ray group per key
        parts: list[tuple[pd.DataFrame, np.ndarray]] = []
        # null keys match nothing (SQL equality): count 0, row preserved
        null_l = g[(g["__side"] == "l") & g[key].isna()]
        if not null_l.empty:
            parts.append((null_l, np.zeros(len(null_l), dtype=np.int64)))
        for _kv, sub in g.groupby(key, sort=False):
            gl = sub[sub["__side"] == "l"]
            if gl.empty:
                continue
            rts = np.sort(sub.loc[sub["__side"] == "r", ts].to_numpy())
            lts = gl[ts].to_numpy()
            if np.issubdtype(lts.dtype, np.datetime64):
                # offsets are in the timestamp's storage unit (us for
                # timestamp[us] parquet columns)
                lts = lts.astype("datetime64[us]").astype(np.int64)
                rts = rts.astype("datetime64[us]").astype(np.int64)
            n = np.searchsorted(rts, lts + hi_offset, side="left") - (
                np.searchsorted(rts, lts + lo_offset, side="left")
            )
            parts.append((gl, n.astype(np.int64)))
        if not parts:
            return pa.Table.from_arrays(
                [pa.array([], t) for _, t in out_fields],
                names=[n for n, _ in out_fields],
            )
        gl_all = pd.concat([p[0] for p in parts])
        n_all = np.concatenate([p[1] for p in parts])
        arrays = [
            pa.array(gl_all[c], type=t, from_pandas=True)
            for c, t in out_fields[:-1]
        ]
        arrays.append(pa.array(n_all))
        return pa.Table.from_arrays(arrays, names=[c for c, _ in out_fields])

    both = lb.union(rb).map_batches(_add_key_bucket(key), batch_format="pyarrow")
    from .dedup import shuffle_blocks

    return apply_per_partition(
        both.repartition(shuffle_blocks()), "__kb", count
    )


def asof_join(
    left: rd.Dataset,
    right: rd.Dataset,
    key: str,
    ts: str,
    value_cols: list[str],
    suffix: str = "_matched",
) -> rd.Dataset:
    """For each left row, attach the most recent right row of the same
    ``key`` with right.ts <= left.ts (DuckDB ASOF LEFT JOIN semantics).

    Both sides are tagged, unioned (schemas padded), grouped by key, and
    matched with ``pd.merge_asof`` over the sorted group — one shuffle on
    the key, everything else row-local."""
    lsch, rsch = left.schema(), right.schema()
    lcols = list(lsch.names)
    rcols = [key, ts] + value_cols
    # deterministic union column list + true types computed ONCE on the
    # driver (per-worker set() iteration order varies with PYTHONHASHSEED,
    # and padding everything as int64 breaks string/float value_cols)
    types = {n: t for n, t in zip(lsch.names, lsch.types)}
    types.update({n: t for n, t in zip(rsch.names, rsch.types)})
    all_cols = lcols + [c for c in rcols if c not in lcols]

    def tag(side: str):
        def fn(batch: pa.Table) -> pa.Table:
            arrays, names = [], []
            for c in all_cols:
                names.append(c)
                if c in batch.column_names:
                    arrays.append(batch.column(c))
                else:
                    arrays.append(pa.nulls(batch.num_rows, types[c]))
            names.append("__side")
            arrays.append(pa.array([side] * batch.num_rows))
            return pa.Table.from_arrays(arrays, names=names)

        return fn

    lb = left.map_batches(tag("l"), batch_format="pyarrow")
    rb = right.select_columns(rcols).map_batches(tag("r"), batch_format="pyarrow")

    # typed output schema (pandas promotes int cols with NaN/nulls to
    # float64 inside the group — rebuild with the true Arrow types)
    out_fields = [(c, types[c]) for c in lcols] + [
        (c + suffix, types[c]) for c in [ts] + value_cols
    ]

    def match(g: pd.DataFrame):
        # one sorted block of many keys: ONE pandas merge_asof with by=key
        # handles them all vectorized (one Ray group per key costs ~100us
        # of per-group overhead x |keys| — measured ~2x slower)
        gl = g[g["__side"] == "l"][lcols].sort_values(ts, kind="mergesort")
        gr = g[g["__side"] == "r"][rcols].sort_values(ts, kind="mergesort")
        if gl.empty:
            return pa.Table.from_arrays(
                [pa.array([], t) for _, t in out_fields],
                names=[n for n, _ in out_fields],
            )
        # SQL equality semantics: a null key matches nothing — split those
        # left rows out (merge_asof raises on null by-keys) and emit them
        # with null matched columns
        null_l = gl[gl[key].isna()]
        gl_k = gl[gl[key].notna()]
        gr_k = gr[gr[key].notna()]
        renames = {c: c + suffix for c in [ts] + value_cols}
        gr_k = gr_k.rename(columns=renames)
        matched_cols = [c + suffix for c in [ts] + value_cols]
        if gl_k.empty:
            out = pd.DataFrame(columns=lcols + matched_cols)
        elif gr_k.empty:
            out = gl_k.reindex(columns=lcols + matched_cols)
        else:
            out = pd.merge_asof(
                gl_k, gr_k, left_on=ts, right_on=ts + suffix, by=key,
                direction="backward",
            )
        if not null_l.empty:
            out = pd.concat([out, null_l.reindex(columns=lcols + matched_cols)])
        return pa.Table.from_arrays(
            [pa.array(out[n], type=t, from_pandas=True) for n, t in out_fields],
            names=[n for n, _ in out_fields],
        )

    both = lb.union(rb).map_batches(
        _add_key_bucket(key), batch_format="pyarrow"
    )
    from .dedup import shuffle_blocks

    return apply_per_partition(
        both.repartition(shuffle_blocks()), "__kb", match
    )


def snapshot_diff(
    a: rd.Dataset,
    b: rd.Dataset,
    id_col: str = "doc_id",
    group_col: str = "source",
    text_col: str = "text",
) -> rd.Dataset:
    """CDC-style diff between two corpus snapshots (crawl N vs crawl
    N+1): per ``group_col``, how many documents were added, removed,
    changed, or unchanged. The reference's capability analogue is the
    job-status delta listing (`apps/api/app/api/v1/routes_jobs.py` list
    endpoint diffing); at training-data scale this is the standard
    "what changed between snapshot releases" audit.

    Scale shape: neither snapshot's TEXT ever crosses the wire — each
    side reduces per batch to (id, group, pinned md5-u32 content hash),
    the per-id compare is ONE bucketed group pass over the union
    (both rows of an id land in the same bucket), and the output is the
    tiny (group, status) count table merged in a single-bucket pass.
    Each snapshot is assumed unique per id (snapshot semantics — apply
    a latest-record compaction first if not; see
    ``relational.compact_latest``). The content hash is the pinned
    md5 32-bit prefix (``md5np.md5_u32`` == SQL
    ``('0x' || substr(md5(text), 1, 8))::UBIGINT``), stable across
    processes and library builds; a 32-bit collision would report
    'unchanged' for a changed doc identically on engine and oracle
    sides (the comparison contract IS the hash)."""
    import numpy as np
    import pyarrow.compute as pc

    from ..md5np import md5_u32
    from . import bucketed_group_apply

    def prep(side: int):
        def f(batch: pa.Table) -> pa.Table:
            h = md5_u32(batch.column(text_col)).astype(np.int64)
            return pa.table(
                {
                    "id": pc.cast(batch.column(id_col), pa.int64()),
                    "g": pc.cast(batch.column(group_col), pa.string()),
                    "h": pa.array(h, pa.int64()),
                    "side": pa.array(
                        np.full(len(batch), side, np.int8), pa.int8()
                    ),
                }
            )

        return f

    from .dedup import shuffle_blocks

    # the hashed union is 4 thin columns across 2x the read parallelism
    # in tiny blocks — compact before the groupby shuffle (measured:
    # 5.4 s -> ~2 s at sf0.1/32, same plan otherwise)
    u = (
        a.map_batches(prep(0), batch_format="pyarrow")
        .union(b.map_batches(prep(1), batch_format="pyarrow"))
        .repartition(shuffle_blocks())
    )

    def per_bucket(t: pa.Table) -> pa.Table:
        import polars as pl

        d = pl.from_arrow(t)
        per_id = d.group_by("id").agg(
            pl.col("h").filter(pl.col("side") == 0).first().alias("ha"),
            pl.col("h").filter(pl.col("side") == 1).first().alias("hb"),
            pl.col("g").filter(pl.col("side") == 0).first().alias("ga"),
            pl.col("g").filter(pl.col("side") == 1).first().alias("gb"),
        )
        per_id = per_id.with_columns(
            pl.coalesce(pl.col("ga"), pl.col("gb")).alias("group"),
            pl.when(pl.col("ha").is_null())
            .then(pl.lit("added"))
            .when(pl.col("hb").is_null())
            .then(pl.lit("removed"))
            .when(pl.col("ha") != pl.col("hb"))
            .then(pl.lit("changed"))
            .otherwise(pl.lit("unchanged"))
            .alias("status"),
        )
        return (
            per_id.group_by(["group", "status"])
            .agg(pl.len().cast(pl.Int64).alias("n"))
            .to_arrow()
        )

    partials = bucketed_group_apply(u, "id", per_bucket,
                                    batch_format="pyarrow")

    def merge(t: pa.Table) -> pa.Table:
        import polars as pl

        return (
            pl.from_arrow(t)
            .group_by(["group", "status"])
            .agg(pl.col("n").sum())
            .rename({"group": group_col})
            .to_arrow()
        )

    # (group x status) is tiny — one single-bucket pass merges partials
    return bucketed_group_apply(
        partials, ["group", "status"], merge, n_buckets=1,
        batch_format="pyarrow",
    )


def bloom_semi_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str,
    right_on: str | None = None,
    m_bits: int = 1 << 20,
    n_probes: int = 4,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> rd.Dataset:
    """Bloom-pre-filtered EXACT semi join — the classic distributed-join
    pushdown: the right side's keys are summarized once into an
    ``m_bits`` Bloom filter (per-batch bit partials, driver OR, ONE
    ``ray.put`` broadcast of m/8 bytes), every left batch drops rows
    that can't possibly match BEFORE any shuffle, and the surviving
    residue goes through the exact :func:`bucketed_merge_join`
    ``how="semi"`` — so false positives are eliminated and the result
    equals the plain semi join row-for-row, while the shuffle moves
    only the pre-filtered fraction. For a selective right side the
    filter is the whole game: a 0.1% match rate means 99.9% of the
    left never enters the join exchange.

    Keys hash via the PINNED md5 double-hash probe positions over their
    decimal-string form (``_bloom_positions`` — version-stable across
    heterogeneous workers; the polars-hash caveat documented there
    applies to any cross-process filter bits)."""
    import numpy as np
    import pyarrow.compute as pc

    import ray

    from . import resolve_broadcast
    from .dedup import _bloom_positions

    right_on = right_on or on
    n_bytes = m_bits // 8

    def bloom_partial(batch: pa.Table) -> pa.Table:
        keys = pc.cast(batch.column(right_on), pa.string())
        pos = _bloom_positions(keys, m_bits, n_probes).ravel()
        bits = np.zeros(n_bytes, np.uint8)
        np.bitwise_or.at(
            bits,
            (pos // 8).astype(np.int64),
            (np.uint8(1) << (pos % 8).astype(np.uint8)),
        )
        return pa.Table.from_pydict(
            {"bits": pa.array([bits.tobytes()], pa.binary())}
        )

    parts = right.select_columns([right_on]).map_batches(
        bloom_partial, batch_format="pyarrow"
    ).take_all()
    merged = np.zeros(n_bytes, np.uint8)
    for r in parts:
        merged |= np.frombuffer(r["bits"], np.uint8)
    ref = ray.put(merged)

    def pre_filter(batch: pa.Table) -> pa.Table:
        bits = resolve_broadcast(ref)
        keys = pc.cast(batch.column(on), pa.string())
        pos = _bloom_positions(keys, m_bits, n_probes)
        probe = (
            bits[(pos // 8).astype(np.int64)]
            & (np.uint8(1) << (pos % 8).astype(np.uint8))
        ) != 0
        return batch.filter(pa.array(probe.all(axis=1)))

    pre = left.map_batches(pre_filter, batch_format="pyarrow")
    lsch = left_schema if left_schema is not None else left.schema()
    rsch = right_schema if right_schema is not None else right.schema()
    return bucketed_merge_join(
        pre, right, on, right_on=right_on, how="semi",
        left_schema=lsch, right_schema=rsch,
    )
