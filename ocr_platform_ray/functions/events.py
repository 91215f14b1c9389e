"""Stream-shaped operators over the events table (event-log pattern:
tumbling windows, sessionization). Ray Data has no event-time runtime;
windows are computed as (key, window_id) aggregates with per-batch partial
pre-aggregation, sessions as a bucketed (user_id, ts)-sorted gap scan
(ordering contract: rows are sorted by (user_id, ts) inside each bucket
before the gap scan)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from . import apply_per_partition, default_n_buckets, round_half_away_np

US_PER_HOUR = 3_600_000_000

# coarse buckets for the window-merge groupbys: a window aggregation has
# ~|event_types| x |windows| distinct keys (tens of thousands at bench
# scale, unbounded over a long-lived event log), and one map_groups call
# per key pays pandas-DataFrame construction per WINDOW — measured 5 s at
# sf0.01 for 13.5k sliding windows. Sort on a hash bucket instead and run
# ONE vectorized sub-groupby per sorted block (apply_per_partition); the
# UDF cost is paid per block regardless of key count. Bucket count is
# sized to the cluster (default_n_buckets, ~4 per CPU).


def _merged_windows(partials: rd.Dataset) -> rd.Dataset:
    """Merge per-batch (event_type, window_id, n_events, value_sum)
    partials: coarse-bucket by key hash, one vectorized pandas sub-groupby
    per sorted block. Partial rows are sorted by the full row (value_sum
    included) before summing so float accumulation order — and therefore
    the 6dp-rounded result — is a pure function of the data, not of
    shuffle arrival order."""
    import polars as pl

    nb = default_n_buckets()  # resolved once on the driver, captured below

    def add_bucket(batch: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(batch)
            .with_columns(
                ((pl.col("event_type").hash(seed=0)
                  ^ pl.col("window_id").hash(seed=1))
                 % nb).cast(pl.Int64).alias("cb")
            )
            .to_arrow()
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["event_type", "window_id", "n_events", "value_sum"],
            kind="mergesort",
        )
        agg = g.groupby(["event_type", "window_id"], as_index=False, sort=True).agg(
            n_events=("n_events", "sum"), value_sum=("value_sum", "sum")
        )
        agg["n_events"] = agg["n_events"].astype(np.int64)
        agg["value_sum"] = round_half_away_np(agg["value_sum"].to_numpy(), 6)
        return agg

    return apply_per_partition(
        partials.map_batches(add_bucket, batch_format="pyarrow"), "cb", final
    )


def tumbling_window_counts(ds: rd.Dataset, window_us: int = US_PER_HOUR) -> rd.Dataset:
    """Per (event_type, window) count + value sum. Partial aggregation in
    map_batches (one row per key per batch) shrinks the groupby shuffle to
    ~|keys| x |batches| rows."""

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        win = ts // window_us
        df = pd.DataFrame(
            {
                "event_type": batch.column("event_type").to_pylist(),
                "window_id": win,
                "value": batch.column("value").to_numpy(zero_copy_only=False),
            }
        )
        agg = df.groupby(["event_type", "window_id"], as_index=False).agg(
            n_events=("value", "size"), value_sum=("value", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    return _merged_windows(ds.map_batches(partial, batch_format="pyarrow"))


def sliding_window_counts(
    ds: rd.Dataset,
    window_us: int = US_PER_HOUR,
    slide_us: int = US_PER_HOUR // 4,
) -> rd.Dataset:
    """Sliding windows: each event lands in every window [w*slide,
    w*slide + window) containing its ts — exploded per batch (numpy
    repeat), then the same partial-agg + groupby as tumbling windows."""

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        w_hi = ts // slide_us
        w_lo = (ts - window_us) // slide_us + 1
        counts = (w_hi - w_lo + 1).astype(np.int64)
        ev = np.repeat(
            np.asarray(batch.column("event_type").to_pylist(), dtype=object), counts
        )
        val = np.repeat(batch.column("value").to_numpy(zero_copy_only=False), counts)
        # per-event window ids: w_lo[i] .. w_hi[i]
        offs = np.concatenate([[0], np.cumsum(counts)])
        win = np.arange(offs[-1]) - np.repeat(offs[:-1], counts) + np.repeat(w_lo, counts)
        df = pd.DataFrame({"event_type": ev, "window_id": win, "value": val})
        agg = df.groupby(["event_type", "window_id"], as_index=False).agg(
            n_events=("value", "size"), value_sum=("value", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    return _merged_windows(ds.map_batches(partial, batch_format="pyarrow"))


def event_gaps(ds: rd.Dataset) -> rd.Dataset:
    """LAG window analogue: per-user gap (microseconds) from the previous
    event in (ts, event_id) order; each user's FIRST event is dropped (it
    has no predecessor), so the output is null-free int64 — exact integer
    math, no float accumulation. Users hash-bucket (all of a user's events
    co-locate), ONE vectorized diff per bucket — no per-user Ray group."""
    from . import bucketed_group_apply

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        ts = g["ts"].astype("int64").to_numpy()
        first = np.empty(len(g), dtype=bool)
        first[0] = True
        first[1:] = uid[1:] != uid[:-1]
        gap = np.diff(ts, prepend=ts[0])
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy()[~first],
                "gap_us": gap[~first],
            }
        )

    return bucketed_group_apply(
        ds.select_columns(["event_id", "user_id", "ts"]), "user_id", per_bucket
    )


def rolling_avg_per_user(ds: rd.Dataset, preceding: int = 2) -> rd.Dataset:
    """Rolling-frame window analogue: per-user mean of ``value`` over the
    frame (``preceding`` rows + current) in (ts, event_id) order, rounded
    to 6dp. The frame sum is accumulated OLDEST-FIRST ((v[-2]+v[-1])+v[0])
    to match the natural left-to-right accumulation a window engine uses,
    then divided by the actual frame length (shorter at each user's head).
    Bucketed like the other per-user windows: one vectorized grouped-shift
    pass per bucket."""
    from . import bucketed_group_apply, round_half_away_np

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        grp = g.groupby("user_id", sort=False)["value"]
        total = np.zeros(len(g), dtype=np.float64)
        count = np.zeros(len(g), dtype=np.int64)
        # oldest lag first so fp addition order is deterministic
        for k in range(preceding, 0, -1):
            lagged = grp.shift(k).to_numpy()
            ok = ~np.isnan(lagged)
            total[ok] += lagged[ok]
            count += ok
        total += g["value"].to_numpy()
        count += 1
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "rolling_avg": round_half_away_np(total / count, 6),
            }
        )

    return bucketed_group_apply(
        ds.select_columns(["event_id", "user_id", "ts", "value"]),
        "user_id",
        per_bucket,
    )


def sessions_per_user(ds: rd.Dataset, gap_minutes: int = 30) -> rd.Dataset:
    """Session count per user: a session starts at a user's first event or
    when the gap from their previous event exceeds ``gap_minutes``.

    Users are coarse-bucketed by hash (all of one user's events land in
    one bucket, every bucket in one sorted block) and each block runs ONE
    vectorized pass: sort by (user_id, ts), mark session starts where the
    user changes or the gap exceeds the threshold, then a pandas
    sub-groupby sums starts per user — the UDF runs once per block, not
    once per user or per bucket."""
    import polars as pl

    gap_us = gap_minutes * 60_000_000
    nb = default_n_buckets()  # resolved once on the driver, captured below

    def add_bucket(batch: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(batch)
            .with_columns(
                (pl.col("user_id").hash(seed=0) % nb)
                .cast(pl.Int64).alias("cb")
            )
            .to_arrow()
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        ts = g["ts"].astype("int64").to_numpy()
        new_user = np.empty(len(g), dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        start = new_user | (np.diff(ts, prepend=ts[0]) > gap_us)
        agg = (
            pd.DataFrame({"user_id": uid, "s": start.astype(np.int64)})
            .groupby("user_id", as_index=False)
            .agg(n_sessions=("s", "sum"), n_events=("s", "size"))
        )
        agg["n_sessions"] = agg["n_sessions"].astype(np.int64)
        agg["n_events"] = agg["n_events"].astype(np.int64)
        return agg

    return apply_per_partition(
        ds.select_columns(["user_id", "ts"]).map_batches(
            add_bucket, batch_format="pyarrow"
        ),
        "cb",
        per_bucket,
    )


def new_users_by_day(ds: rd.Dataset) -> rd.Dataset:
    """Cohort-entry counts: for each calendar day, how many users were
    seen for the FIRST time that day (min-ts per user, truncated to day)
    — the growth/cohort primitive every event-log warehouse computes
    (reference analogue: the per-job first-seen bookkeeping in
    apps/api/app/api/v1/routes_jobs.py's listing counters).

    Scale shape: (1) per-batch min-ts per user (one row per user per
    batch — the shuffle never carries raw events); (2) users hash-bucket
    (:func:`~ocr_platform_ray.functions.bucketed_group_apply`) and each
    bucket reduces min-per-user then pre-counts per DAY — emitting at
    most |days| rows per bucket; (3) the tiny (day, n) partials
    hash-bucket by day for the final sum. All int64/date math — exact,
    no float accumulation anywhere."""
    from . import bucketed_group_apply

    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": batch.column("user_id").to_numpy(),
                "ts": batch.column("ts").cast(pa.int64()).to_numpy(),
            }
        )
        agg = df.groupby("user_id", as_index=False).agg(first_ts=("ts", "min"))
        return pa.Table.from_pandas(agg, preserve_index=False)

    partials = ds.select_columns(["user_id", "ts"]).map_batches(
        partial, batch_format="pyarrow"
    )

    def per_user_bucket(g: pd.DataFrame) -> pd.DataFrame:
        first = g.groupby("user_id", as_index=False).agg(
            first_ts=("first_ts", "min")
        )
        day = (first["first_ts"].to_numpy() // DAY_US).astype(np.int64)
        cnt = pd.DataFrame({"day_id": day}).groupby(
            "day_id", as_index=False
        ).agg(n=("day_id", "size"))
        return cnt

    day_partials = bucketed_group_apply(partials, "user_id", per_user_bucket)

    def per_day_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("day_id", as_index=False).agg(n_new_users=("n", "sum"))
        day_us = agg["day_id"].to_numpy() * DAY_US
        return pd.DataFrame(
            {
                "day": np.array(day_us, dtype="datetime64[us]").astype(
                    "datetime64[D]"
                ).astype(str),
                "n_new_users": agg["n_new_users"].astype(np.int64),
            }
        )

    return bucketed_group_apply(day_partials, "day_id", per_day_bucket)


def funnel_counts(
    ds: rd.Dataset, stages: tuple = ("view", "click", "purchase")
) -> pa.Table:
    """Ordered-funnel conversion: n_stage1 = users with a stage-1 event,
    n_stage2 = users with a stage-2 event STRICTLY AFTER their first
    stage-1 event, n_stage3 = ... strictly after that stage-2 event
    (min-ts semantics at every hop, so the answer is deterministic and
    SQL-expressible). The product-analytics staple over an event log.

    Scale shape: the input filters to the three stage types at the read
    (one boolean kernel per batch), users hash-bucket so one user's
    events co-locate, and each bucket runs three vectorized merge+min
    passes (stage-k rows joined to the per-user stage-(k-1) timestamp,
    strict-greater filter, groupby-min). Only ≤ n_buckets three-int
    partial rows reach the driver — a bounded merge, same contract as
    cross-source dup totals."""
    import pyarrow.compute as pc

    from . import bucketed_group_apply

    s1, s2, s3 = stages

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch.column("event_type"),
                                     value_set=pa.array([s1, s2, s3])))

    slim = ds.select_columns(["user_id", "ts", "event_type"]).map_batches(
        keep, batch_format="pyarrow"
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["ts"] = g["ts"].astype("int64")
        t1 = (
            g[g["event_type"] == s1]
            .groupby("user_id", as_index=False)
            .agg(t1=("ts", "min"))
        )
        m2 = g[g["event_type"] == s2].merge(t1, on="user_id", how="inner")
        t2 = (
            m2[m2["ts"] > m2["t1"]]
            .groupby("user_id", as_index=False)
            .agg(t2=("ts", "min"))
        )
        m3 = g[g["event_type"] == s3].merge(t2, on="user_id", how="inner")
        t3 = (
            m3[m3["ts"] > m3["t2"]]
            .groupby("user_id", as_index=False)
            .agg(t3=("ts", "min"))
        )
        return pd.DataFrame(
            {"n_stage1": [len(t1)], "n_stage2": [len(t2)], "n_stage3": [len(t3)]}
        )

    parts = bucketed_group_apply(slim, "user_id", per_bucket).take_all()
    return pa.Table.from_pydict(
        {
            "n_stage1": pa.array([sum(r["n_stage1"] for r in parts)], pa.int64()),
            "n_stage2": pa.array([sum(r["n_stage2"] for r in parts)], pa.int64()),
            "n_stage3": pa.array([sum(r["n_stage3"] for r in parts)], pa.int64()),
        }
    )


def range_window_sum(
    ds: rd.Dataset,
    interval_us: int = US_PER_HOUR,
) -> rd.Dataset:
    """RANGE-frame window analogue: per event, the sum of ``value`` over
    the SAME USER's events with ts in ``[ts - interval, ts]`` — the
    time-interval frame (`RANGE BETWEEN INTERVAL .. PRECEDING AND CURRENT
    ROW`), which unlike the ROWS frame includes ALL rows tied on ts (SQL
    peer semantics), so the result is independent of tie order.

    Scale shape: users hash-bucket (one user's events co-locate) and each
    bucket runs ONE vectorized pass — sort by (user_id, ts), build a
    composite int64 key ``user_rank * SHIFT + (ts - ts_min)`` with
    ``SHIFT > ts-span + interval`` so a single pair of searchsorted calls
    finds every row's frame bounds across ALL users at once, then the
    frame sum is a cumsum difference. The composite key bounds users per
    call at ``2^63 / SHIFT`` (loud guard): a call gets one sorted block,
    about one input block of rows, far below it at any corpus size; an
    input of few large blocks trips it, and splitting the input into
    more blocks clears it. Rounded 6dp (DuckDB's segment-tree
    accumulation order differs from a linear cumsum in the last
    ulps)."""
    from . import bucketed_group_apply, round_half_away_np

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        ts = g["ts"].astype("int64").to_numpy()
        val = g["value"].to_numpy(dtype=np.float64)
        new = np.empty(len(g), dtype=bool)
        new[0] = True
        new[1:] = uid[1:] != uid[:-1]
        rank = np.cumsum(new) - 1
        dts = ts - ts.min()
        shift = int(dts.max()) + interval_us + 2
        if (rank[-1] + 1) > (2**63 - 1) // max(shift, 1):
            raise ValueError(
                "range_window_sum: too many users in one sorted block "
                "for the composite key — split the input into more "
                "blocks (ds.repartition)"
            )
        key = rank * shift + dts
        lo = np.searchsorted(key, key - interval_us, side="left")
        hi = np.searchsorted(key, key, side="right")
        cs = np.concatenate([[0.0], np.cumsum(val)])
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "range_sum": round_half_away_np(cs[hi] - cs[lo], 6),
            }
        )

    return bucketed_group_apply(
        ds.select_columns(["event_id", "user_id", "ts", "value"]),
        "user_id",
        per_bucket,
    )


def event_type_lift(ds: rd.Dataset, max_types: int = 1000) -> pa.Table:
    """Market-basket association lift between event types over users:
    ``lift(a,b) = P(a,b) / (P(a) P(b))`` with probabilities over DISTINCT
    users — the co-occurrence affinity report (lift > 1: types attract;
    < 1: repel). All inputs to the float expression are exact
    order-free integer counts, so the 6dp-rounded lift is a pure
    function of the data — bit-identical to the SQL oracle.

    Scale shape: per-batch distinct (user, type) combiner rows; users
    hash-bucket (one user's types co-locate, each user counted in
    exactly one bucket), and each bucket emits integer partials — per-
    type user counts, per-PAIR co-occurrence counts (vectorized polars
    self-join on the deduped bucket), and its distinct-user count. The
    driver merges <= (types^2 + types + 1) x n_buckets int rows under a
    loud ``max_types`` guard; raw events never shuffle."""
    import polars as pl

    from . import bucketed_group_apply, round_half_away

    def partial(batch: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(batch)
            .select(["user_id", "event_type"])
            .unique()
            .to_arrow()
        )

    partials = ds.select_columns(["user_id", "event_type"]).map_batches(
        partial, batch_format="pyarrow"
    )

    def per_bucket(g: pa.Table) -> pa.Table:
        # arrow in/out: tiny per-group pandas string frames are the
        # measured map_groups pathology (see the q_js_divergence BENCH
        # note) — this operator went 7.4 s -> ~2 s on the switch
        d = pl.from_arrow(g).unique()
        singles = d.group_by("event_type").agg(
            pl.col("user_id").n_unique().alias("c")
        )
        pairs = (
            d.join(d, on="user_id")
            .filter(pl.col("event_type") < pl.col("event_type_right"))
            .group_by(["event_type", "event_type_right"])
            .len()
            .rename({"len": "c"})
        )
        out = pl.concat(
            [
                singles.select(
                    pl.lit(0, dtype=pl.Int64).alias("kind"),
                    pl.col("event_type").alias("a"),
                    pl.lit("").alias("b"),
                    pl.col("c").cast(pl.Int64),
                ),
                pairs.select(
                    pl.lit(1, dtype=pl.Int64).alias("kind"),
                    pl.col("event_type").alias("a"),
                    pl.col("event_type_right").alias("b"),
                    pl.col("c").cast(pl.Int64),
                ),
                pl.DataFrame(
                    {"kind": [2], "a": [""], "b": [""],
                     "c": [int(d["user_id"].n_unique())]},
                    schema={"kind": pl.Int64, "a": pl.String,
                            "b": pl.String, "c": pl.Int64},
                ),
            ]
        )
        return out.to_arrow()

    rows = bucketed_group_apply(
        partials, "user_id", per_bucket, batch_format="pyarrow"
    ).take_all()
    df = pd.DataFrame(rows)
    nu = int(df[df["kind"] == 2]["c"].sum())
    singles = (
        df[df["kind"] == 0].groupby("a", as_index=False)["c"].sum()
    )
    if len(singles) > max_types:
        raise ValueError(
            f"event_type_lift: > {max_types} event types — the pairwise "
            "report is quadratic; raise max_types deliberately"
        )
    sc = dict(zip(singles["a"], singles["c"]))
    pairs = (
        df[df["kind"] == 1]
        .groupby(["a", "b"], as_index=False)["c"]
        .sum()
        .sort_values(["a", "b"], kind="mergesort")
    )
    lift = [
        round_half_away(float(c * nu) / float(sc[a] * sc[b]), 6)
        for a, b, c in zip(pairs["a"], pairs["b"], pairs["c"])
    ]
    return pa.Table.from_pydict(
        {
            "type_a": pairs["a"].tolist(),
            "type_b": pairs["b"].tolist(),
            "n_users_both": pa.array(
                pairs["c"].astype("int64").tolist(), pa.int64()
            ),
            "lift": pa.array(lift, pa.float64()),
        }
    )


def compact_latest(
    ds: rd.Dataset,
    key_cols: list[str] | None = None,
    order_cols: list[str] | None = None,
) -> rd.Dataset:
    """Latest-record compaction (the CDC/upsert pattern, reference
    semantics: a job row's newest state wins —
    apps/api/app/api/v1/routes_jobs.py keeps one current row per job):
    keep exactly the row with the greatest ``order_cols`` tuple per
    ``key_cols`` group; the last ``order_cols`` column must make the
    order total (unique per key) so the survivor — and any SQL engine's
    ``row_number() = 1`` — is deterministic.

    Scale shape: a per-batch combiner first reduces every batch to one
    row per key it contains (the raw log never shuffles), then the
    per-key-bucket merge applies the SAME argmax once per bucket — the
    idempotent-combiner pattern every windowed merge in this module
    uses. Shuffle volume is O(distinct keys x batches), independent of
    log length."""
    from . import bucketed_group_apply

    keys = key_cols or ["user_id", "event_type"]
    order = order_cols or ["ts", "event_id"]

    def newest(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            keys + order,
            ascending=[True] * len(keys) + [False] * len(order),
            kind="mergesort",
        )
        return df.drop_duplicates(keys, keep="first")

    combined = ds.map_batches(
        lambda b: pa.Table.from_pandas(newest(b.to_pandas()), preserve_index=False),
        batch_format="pyarrow",
    )
    return bucketed_group_apply(combined, keys, newest)


def retention_counts(
    ds: rd.Dataset, offsets: tuple[int, ...] = (1, 7)
) -> rd.Dataset:
    """Cohort retention: for each cohort day (a user's FIRST active day),
    the cohort size and how many of those users were active again exactly
    ``d0 + k`` days later, per offset k — the day-1/day-7 retention table
    every event warehouse computes. All-integer counts -> bit-exact vs
    the SQL DISTINCT-join oracle.

    Scale shape: (1) per-batch DISTINCT (user, day) rows — the shuffle
    never carries raw events, at most |users| x |days| rows per batch;
    (2) users hash-bucket (`bucketed_group_apply`), each bucket resolves
    d0 = min(day) per user and pre-counts cohort size and per-offset
    hits per DAY — emitting <= |days| x (1 + |offsets|) rows per bucket;
    (3) tiny (day, col, n) partials sum in a final day-bucketed pass."""
    from . import bucketed_group_apply

    DAY_US = 86_400_000_000
    offs = list(offsets)

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": batch.column("user_id").to_numpy(),
                "day": (
                    batch.column("ts").cast(pa.int64()).to_numpy() // DAY_US
                ).astype(np.int64),
            }
        ).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    partials = ds.select_columns(["user_id", "ts"]).map_batches(
        partial, batch_format="pyarrow"
    )

    def per_user_bucket(g: pd.DataFrame) -> pd.DataFrame:
        df = g.drop_duplicates(["user_id", "day"])
        d0 = df.groupby("user_id")["day"].min().rename("d0")
        dfj = df.join(d0, on="user_id")
        out = d0.value_counts().rename("n_users").to_frame()
        out.index.name = "day_id"
        for k in offs:
            hit = dfj[dfj["day"] == dfj["d0"] + k]
            out[f"ret_{k}"] = hit.groupby("d0")["user_id"].size()
        out = out.fillna(0).astype(np.int64)
        return out.reset_index()

    day_partials = bucketed_group_apply(partials, "user_id", per_user_bucket)

    def per_day_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("day_id", as_index=False).sum()
        day_us = agg.pop("day_id").to_numpy() * DAY_US
        cols = {
            "cohort_day": np.array(day_us, dtype="datetime64[us]").astype(
                "datetime64[D]"
            ).astype(str)
        }
        cols["n_users"] = agg["n_users"].astype(np.int64)
        for k in offs:
            cols[f"ret_{k}"] = agg[f"ret_{k}"].astype(np.int64)
        return pd.DataFrame(cols)

    return bucketed_group_apply(day_partials, "day_id", per_day_bucket)


def user_paths(ds: rd.Dataset, max_steps: int = 20, sep: str = "->") -> rd.Dataset:
    """Per-user journey string: the first ``max_steps`` event types in
    (ts, event_id) order joined with ``sep`` — the SQL
    ``string_agg(... ORDER BY rn) WHERE rn <= K`` session-path report.
    (ts, event_id) is a total order, so the string is deterministic and
    engine-independent.

    Scale shape: a per-batch combiner first trims every user to its
    max_steps EARLIEST events in that batch (keeping a superset of the
    global head is safe: the bucket-side trim re-applies the same rule),
    so the shuffle carries <= max_steps rows per user per batch instead
    of the full log; the path assembles once per user inside the user
    bucket."""
    from . import bucketed_group_apply

    cols = ["user_id", "event_type", "ts", "event_id"]

    def trim(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": batch.column("user_id").to_numpy(),
                "event_type": batch.column("event_type").to_pylist(),
                "ts": batch.column("ts").cast(pa.int64()).to_numpy(),
                "event_id": batch.column("event_id").to_numpy(),
            }
        ).sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        return pa.Table.from_pandas(
            df.groupby("user_id").head(max_steps), preserve_index=False
        )

    def per_bucket(tb: pa.Table) -> pa.Table:
        df = tb.to_pandas()
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        df = df.groupby("user_id").head(max_steps)
        agg = df.groupby("user_id")["event_type"].agg(sep.join)
        return pa.Table.from_pandas(
            agg.rename("path").reset_index(), preserve_index=False
        )

    trimmed = ds.select_columns(cols).map_batches(
        trim, batch_format="pyarrow"
    )
    return bucketed_group_apply(
        trimmed, "user_id", per_bucket, batch_format="pyarrow"
    )


def event_transitions(
    ds: rd.Dataset, max_pairs: int = 1_000_000
) -> pa.Table:
    """Global first-order transition matrix: counts of consecutive
    (prev_type -> next_type) steps per user in (ts, event_id) order —
    the Markov-chain summary of an event log. All-integer counts.

    Scale shape: adjacency spans batch boundaries, so each user's rows
    co-locate once (the user-bucketed shuffle every per-user window op
    here uses); each bucket LAGs within users vectorized and emits
    <= |types|^2 count partials; partials merge on the driver under a
    loud ``max_pairs`` guard (|distinct types|^2 is report-sized by
    definition)."""
    from . import bucketed_group_apply

    cols = ["user_id", "event_type", "ts", "event_id"]

    def to_cols(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "user_id": batch.column("user_id"),
                "event_type": batch.column("event_type"),
                "ts": batch.column("ts").cast(pa.int64()),
                "event_id": batch.column("event_id"),
            }
        )

    def per_bucket(tb: pa.Table) -> pa.Table:
        # arrow group OUTPUT: tiny per-bucket string frames are the
        # known pandas-block pathology (q_js_divergence finding)
        df = tb.to_pandas()
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        prev = df.groupby("user_id")["event_type"].shift()
        m = prev.notna()
        t = pd.DataFrame(
            {"prev_type": prev[m], "next_type": df["event_type"][m]}
        )
        agg = t.groupby(["prev_type", "next_type"], as_index=False).size()
        return pa.Table.from_pandas(
            agg.rename(columns={"size": "n"}), preserve_index=False
        )

    partials = bucketed_group_apply(
        ds.select_columns(cols).map_batches(to_cols, batch_format="pyarrow"),
        "user_id",
        per_bucket,
        batch_format="pyarrow",
    ).take(max_pairs + 1)
    if len(partials) > max_pairs:
        raise ValueError(
            f"event_transitions: > {max_pairs} (type, type) partials — "
            "the type vocabulary is not report-sized; raise max_pairs "
            "deliberately"
        )
    df = pd.DataFrame(partials, columns=["prev_type", "next_type", "n"])
    agg = df.groupby(["prev_type", "next_type"], as_index=False)["n"].sum()
    agg["n"] = agg["n"].astype(np.int64)
    return pa.Table.from_pandas(agg, preserve_index=False)


def daily_counts_pct_change(ds: rd.Dataset) -> rd.Dataset:
    """Day-over-day percent change of event volume per type — the
    monitoring series every pipeline dashboard draws. Per-batch
    (type, day) integer count partials, per-type-bucketed LAG over the
    (tiny: |types| x |days|) aggregated series; the first day of each
    type is dropped (no predecessor). pct = (n - prev) / prev, one float
    division per point, 6dp."""
    from . import bucketed_group_apply, round_half_away_np

    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": batch.column("event_type").to_pylist(),
                "day_id": (
                    batch.column("ts").cast(pa.int64()).to_numpy() // DAY_US
                ).astype(np.int64),
            }
        )
        agg = df.groupby(["event_type", "day_id"], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    def per_bucket(tb: pa.Table) -> pa.Table:
        df = tb.to_pandas()
        agg = df.groupby(["event_type", "day_id"], as_index=False)["size"].sum()
        agg = agg.sort_values(["event_type", "day_id"], kind="mergesort")
        prev = agg.groupby("event_type")["size"].shift()
        m = prev.notna()
        day_us = agg["day_id"][m].to_numpy() * DAY_US
        out = pd.DataFrame(
            {
                "event_type": agg["event_type"][m],
                "day": np.array(day_us, dtype="datetime64[us]").astype(
                    "datetime64[D]"
                ).astype(str),
                "n": agg["size"][m].astype(np.int64),
                "pct_change": round_half_away_np(
                    (agg["size"][m].to_numpy() - prev[m].to_numpy())
                    / prev[m].to_numpy(),
                    6,
                ),
            }
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    partials = ds.select_columns(["event_type", "ts"]).map_batches(
        partial, batch_format="pyarrow"
    )
    return bucketed_group_apply(
        partials, "event_type", per_bucket, batch_format="pyarrow"
    )


def daily_counts_filled(ds: rd.Dataset, max_cells: int = 200_000) -> rd.Dataset:
    """Gap-filled per-type daily volume: one row per (event_type, day)
    for EVERY day in the corpus's global [min_day, max_day] range — days
    with no events of a type appear with n = 0 (the
    generate_series ⨯ types LEFT JOIN report; resampling a sparse event
    log onto a dense calendar is the standard prep for any
    time-series / control-chart stage downstream).

    Scale shape: per-batch (type, day) int count partials — the collect
    moves one row per distinct (type, day) per batch, never events —
    merged on the driver under a loud ``max_cells`` guard (the dense
    calendar grid is |types| x |days|: bounded by construction for any
    log a human reads as a daily series; a million-cell grid is a
    groupby, not a calendar report). All-integer, engine-exact."""
    import numpy as np

    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": batch.column("event_type").to_pylist(),
                "day_id": batch.column("ts").cast(pa.int64()).to_numpy()
                // DAY_US,
            }
        )
        agg = df.groupby(["event_type", "day_id"], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    long = ds.select_columns(["event_type", "ts"]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_cells + 1)
    if len(long) > max_cells:
        raise ValueError(
            f"daily_counts_filled: > {max_cells} (type, day) partials — "
            "this is not calendar-report-shaped; raise max_cells "
            "deliberately"
        )
    if not long:
        return rd.from_arrow(
            pa.Table.from_pydict(
                {"event_type": pa.array([], pa.string()),
                 "day": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        )
    df = pd.DataFrame(long, columns=["event_type", "day_id", "size"])
    agg = df.groupby(["event_type", "day_id"])["size"].sum()
    types = sorted(df["event_type"].unique())
    days = np.arange(df["day_id"].min(), df["day_id"].max() + 1)
    grid = agg.reindex(
        pd.MultiIndex.from_product([types, days],
                                   names=["event_type", "day_id"]),
        fill_value=0,
    ).reset_index()
    day_str = (grid["day_id"].to_numpy() * DAY_US).astype(
        "datetime64[us]"
    ).astype("datetime64[D]").astype(str)
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "event_type": pa.array(grid["event_type"], pa.string()),
                "day": pa.array(day_str, pa.string()),
                "n": pa.array(grid["size"].to_numpy(np.int64)),
            }
        )
    )


def ewma_daily(
    ds: rd.Dataset, alpha: float = 0.3, max_cells: int = 200_000
) -> rd.Dataset:
    """EWMA control line over the gap-filled per-type daily series:
    s_0 = n_0, s_t = alpha*n_t + (1-alpha)*s_{t-1} along the dense
    calendar (the streaming anomaly-detection prep — a spike reads as
    n_t far above yesterday's smoothed line). The recurrence is a single
    dependency chain, so the engine's vectorized-across-types day loop
    computes BIT-identical doubles to the SQL recursive CTE — the oracle
    is exact, not tolerance-based.

    Scale shape: identical to daily_counts_filled (per-batch (type, day)
    int partials, loud max_cells driver guard); the recurrence runs over
    the tiny dense grid, vectorized across types per day step."""
    import numpy as np

    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": batch.column("event_type").to_pylist(),
                "day_id": batch.column("ts").cast(pa.int64()).to_numpy()
                // DAY_US,
            }
        )
        agg = df.groupby(["event_type", "day_id"], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    long = ds.select_columns(["event_type", "ts"]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_cells + 1)
    if len(long) > max_cells:
        raise ValueError(
            f"ewma_daily: > {max_cells} (type, day) partials — raise "
            "max_cells deliberately"
        )
    if not long:
        return rd.from_arrow(
            pa.Table.from_pydict(
                {"event_type": pa.array([], pa.string()),
                 "day": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64()),
                 "ewma": pa.array([], pa.float64())}
            )
        )
    df = pd.DataFrame(long, columns=["event_type", "day_id", "size"])
    agg = df.groupby(["event_type", "day_id"])["size"].sum()
    types = sorted(df["event_type"].unique())
    days = np.arange(df["day_id"].min(), df["day_id"].max() + 1)
    grid = agg.reindex(
        pd.MultiIndex.from_product([types, days],
                                   names=["event_type", "day_id"]),
        fill_value=0,
    ).to_numpy(np.int64).reshape(len(types), len(days))
    ew = np.empty(grid.shape, dtype=np.float64)
    ew[:, 0] = grid[:, 0].astype(np.float64)
    for t in range(1, len(days)):
        # one fused expression per step == the recursive CTE's arithmetic
        ew[:, t] = alpha * grid[:, t] + (1.0 - alpha) * ew[:, t - 1]
    day_str = (days * DAY_US).astype("datetime64[us]").astype(
        "datetime64[D]"
    ).astype(str)
    from . import round_half_away_np

    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "event_type": pa.array(np.repeat(types, len(days)),
                                       pa.string()),
                "day": pa.array(np.tile(day_str, len(types)), pa.string()),
                "n": pa.array(grid.ravel()),
                "ewma": pa.array(round_half_away_np(ew.ravel(), 6)),
            }
        )
    )


def cumulative_users_by_day(
    ds: rd.Dataset, max_cells: int = 200_000
) -> rd.Dataset:
    """Cumulative distinct users per calendar day: for every day in the
    global event range, how many users had been seen at least once by
    the end of it — the growth-curve complement of new_users_by_day
    (cumulative count distinct is not windowable in one pass in SQL
    either; the standard rewrite is first-seen-day + a running sum, and
    that is exactly the distributed shape here).

    Scale shape: per-batch min-ts-per-user combiner (raw events never
    shuffle), user-bucketed exact first-day resolve emitting <= |days|
    int rows per bucket, then a driver cumsum over the dense day grid
    under a loud ``max_cells`` guard. The global max day comes from one
    pruned-column streamed Dataset.max. All-integer."""
    from . import bucketed_group_apply

    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": batch.column("user_id").to_numpy(),
                "ts": batch.column("ts").cast(pa.int64()).to_numpy(),
            }
        )
        agg = df.groupby("user_id", as_index=False).agg(first_ts=("ts", "min"))
        return pa.Table.from_pandas(agg, preserve_index=False)

    partials = ds.select_columns(["user_id", "ts"]).map_batches(
        partial, batch_format="pyarrow"
    )

    def per_user_bucket(g: pd.DataFrame) -> pd.DataFrame:
        first = g.groupby("user_id", as_index=False).agg(
            first_ts=("first_ts", "min")
        )
        day = (first["first_ts"].to_numpy() // DAY_US).astype(np.int64)
        return pd.DataFrame({"day_id": day}).groupby(
            "day_id", as_index=False
        ).agg(n=("day_id", "size"))

    day_rows = bucketed_group_apply(
        partials, "user_id", per_user_bucket
    ).take(max_cells + 1)
    if len(day_rows) > max_cells:
        raise ValueError(
            f"cumulative_users_by_day: > {max_cells} (day, n) partials — "
            "raise max_cells deliberately"
        )
    if not day_rows:
        return rd.from_arrow(
            pa.Table.from_pydict(
                {"day": pa.array([], pa.string()),
                 "cum_users": pa.array([], pa.int64())}
            )
        )
    hi_ts = ds.select_columns(["ts"]).max("ts")
    hi_day = int(pa.scalar(hi_ts).cast(pa.timestamp("us")).cast(
        pa.int64()
    ).as_py()) // DAY_US
    df = pd.DataFrame(day_rows, columns=["day_id", "n"])
    agg = df.groupby("day_id")["n"].sum()
    days = np.arange(int(agg.index.min()), hi_day + 1)
    dense = agg.reindex(days, fill_value=0).to_numpy(np.int64)
    day_str = (days * DAY_US).astype("datetime64[us]").astype(
        "datetime64[D]"
    ).astype(str)
    return rd.from_arrow(
        pa.Table.from_pydict(
            {"day": pa.array(day_str, pa.string()),
             "cum_users": pa.array(np.cumsum(dense))}
        )
    )


def rolling_corr_daily(
    ds: rd.Dataset,
    type_x: str = "view",
    type_y: str = "click",
    window: int = 7,
    max_cells: int = 200_000,
) -> rd.Dataset:
    """Rolling cross-series correlation: Pearson corr between two event
    types' daily volumes over a trailing ROWS window on the dense
    calendar (do clicks still track views this week? — the
    relationship-drift audit on top of the gap-filled grid).

    Exactness: window correlation is computed from INTEGER window sums
    (w·Σxy − Σx·Σy over w·Σx² − (Σx)² ...), derived via int64 cumsums of
    the same (type, day) count partials daily_counts_filled uses — the
    oracle SQL uses the identical algebraic form over exact BIGINT
    window sums (NOT the engine-specific corr() accumulator), so both
    sides divide the same integers and the value-hash match is exact.
    Zero-variance windows emit NULL on both sides."""
    import numpy as np

    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": batch.column("event_type").to_pylist(),
                "day_id": batch.column("ts").cast(pa.int64()).to_numpy()
                // DAY_US,
            }
        )
        df = df[df["event_type"].isin([type_x, type_y])]
        agg = df.groupby(["event_type", "day_id"], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    long = ds.select_columns(["event_type", "ts"]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_cells + 1)
    if len(long) > max_cells:
        raise ValueError(
            f"rolling_corr_daily: > {max_cells} partials — raise "
            "max_cells deliberately"
        )
    empty = pa.Table.from_pydict(
        {"day": pa.array([], pa.string()),
         "roll_corr": pa.array([], pa.float64())}
    )
    if not long:
        return rd.from_arrow(empty)
    df = pd.DataFrame(long, columns=["event_type", "day_id", "size"])
    agg = df.groupby(["event_type", "day_id"])["size"].sum()
    days = np.arange(df["day_id"].min(), df["day_id"].max() + 1)

    def dense(t):
        if t in agg.index.get_level_values(0):
            return agg.loc[t].reindex(days, fill_value=0).to_numpy(np.int64)
        return np.zeros(len(days), dtype=np.int64)

    x, y = dense(type_x), dense(type_y)

    def winsum(v: np.ndarray) -> np.ndarray:
        c = np.concatenate([[0], np.cumsum(v)])
        lo = np.maximum(np.arange(len(v)) - (window - 1), 0)
        return c[np.arange(1, len(v) + 1)] - c[lo]

    w_n = np.minimum(np.arange(len(days)) + 1, window).astype(np.int64)
    sx, sy = winsum(x), winsum(y)
    sxx, syy, sxy = winsum(x * x), winsum(y * y), winsum(x * y)
    num = (w_n * sxy - sx * sy).astype(np.float64)
    den = ((w_n * sxx - sx * sx) * (w_n * syy - sy * sy)).astype(np.float64)
    ok = den > 0.0
    from . import round_half_away_np

    corr = np.where(ok, num / np.sqrt(np.where(ok, den, 1.0)), np.nan)
    corr = np.where(ok, round_half_away_np(corr, 6), np.nan)
    day_str = (days * DAY_US).astype("datetime64[us]").astype(
        "datetime64[D]"
    ).astype(str)
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "day": pa.array(day_str, pa.string()),
                "roll_corr": pa.array(
                    [None if not o else float(c)
                     for o, c in zip(ok, corr)], pa.float64()
                ),
            }
        )
    )


def props_field_stats(
    ds: rd.Dataset, field: str = "k", max_groups: int = 100_000
) -> rd.Dataset:
    """Semi-structured sidecar parse: extract an integer field from the
    JSON ``props`` column and aggregate it per event_type — the
    schema-on-read step every event log needs before its payload can be
    queried (reference keeps payloads as opaque JSON strings too:
    detect/result JSON blobs, `apps/worker/app/tasks/ocr_tasks.py`).

    Vectorized: polars ``str.json_path_match`` runs ONE native JSONPath
    scan per batch (no per-row ``json.loads`` in the hot path); rows
    whose props lack the field (or hold a non-integer) drop with a
    per-batch count folded into the partials, never an error. Scale: the
    parse is row-local, each batch emits |event_types| tiny partial rows
    (n, sum, min, max — all int64), and the driver merge is bounded by a
    loud ``max_groups`` guard. All-integer outputs make the DuckDB
    ``json_extract`` oracle exact."""
    import polars as pl

    def partial(batch: pa.Table) -> pa.Table:
        s = pl.from_arrow(batch.column("props"))
        if s.dtype != pl.String:
            s = s.cast(pl.String)
        k = s.str.json_path_match(f"$.{field}").cast(pl.Int64, strict=False)
        tb = pl.DataFrame(
            {"g": pl.from_arrow(batch.column("event_type")), "k": k}
        ).drop_nulls("k")
        agg = tb.group_by("g").agg(
            n=pl.len().cast(pl.Int64),
            s=pl.col("k").sum(),
            mn=pl.col("k").min(),
            mx=pl.col("k").max(),
        )
        return agg.to_arrow()

    rows = ds.select_columns(["event_type", "props"]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_groups + 1)
    if len(rows) > max_groups:
        raise ValueError(
            f"props_field_stats: > {max_groups} group partials — raise "
            "max_groups deliberately"
        )
    acc: dict = {}
    for r in rows:
        g = r["g"]
        n0, s0, mn0, mx0 = acc.get(g, (0, 0, None, None))
        acc[g] = (
            n0 + int(r["n"]),
            s0 + int(r["s"]),
            int(r["mn"]) if mn0 is None else min(mn0, int(r["mn"])),
            int(r["mx"]) if mx0 is None else max(mx0, int(r["mx"])),
        )
    gs = sorted(acc)
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "event_type": pa.array(gs, pa.string()),
                "n": pa.array([acc[g][0] for g in gs], pa.int64()),
                "sum_k": pa.array([acc[g][1] for g in gs], pa.int64()),
                "min_k": pa.array([acc[g][2] for g in gs], pa.int64()),
                "max_k": pa.array([acc[g][3] for g in gs], pa.int64()),
            }
        )
    )


DAY_US = 86_400_000_000


def _daily_cells(ds: rd.Dataset, max_cells: int, who: str) -> pd.DataFrame:
    """Shared combiner for daily-series diagnostics: one streamed pass of
    per-batch (event_type, day_id) integer count partials (the ewma_daily
    shape — the shuffle-free alternative for a driver-bounded grid),
    merged on the driver under a loud ``max_cells`` guard. Returns the
    merged (event_type, day_id, n) frame; empty frame for an empty log."""
    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": batch.column("event_type").to_pylist(),
                "day_id": batch.column("ts").cast(pa.int64()).to_numpy()
                // DAY_US,
            }
        )
        agg = df.groupby(["event_type", "day_id"], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    long = ds.select_columns(["event_type", "ts"]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_cells + 1)
    if len(long) > max_cells:
        raise ValueError(
            f"{who}: > {max_cells} (type, day) partials — raise "
            "max_cells deliberately"
        )
    if not long:
        return pd.DataFrame(columns=["event_type", "day_id", "n"])
    df = pd.DataFrame(long, columns=["event_type", "day_id", "size"])
    return df.groupby(["event_type", "day_id"], as_index=False).agg(
        n=("size", "sum")
    )


def mann_kendall_daily(
    ds: rd.Dataset, max_cells: int = 200_000, max_days: int = 20_000
) -> rd.Dataset:
    """Mann–Kendall trend test per event type over the OBSERVED daily
    count series (the nonparametric is-this-metric-drifting monitor —
    no linearity or distribution assumption, robust to spikes):
    S = Σ_{i<j} sign(n_j − n_i) over day-ordered pairs, variance with
    the tie correction Var = (m(m−1)(2m+5) − Σ_t t(t−1)(2t+5)) / 18,
    Z = (S∓1)/sqrt(Var) (continuity-corrected, 0 when S = 0).

    Exactness: S, m and the tie sums are INTEGERS derived from the exact
    daily-count grid (one streamed combiner pass, ewma_daily's shape, no
    shuffle); both engines then evaluate one identical float expression
    (cast → /18.0 → sqrt → divide, 6dp half-away round) — the m ≤ 20k
    guard keeps m³ < 2^53 so every cast is exact. The O(m²) pairwise
    sign sum runs vectorized on the tiny per-type day series (a year is
    365 points; the guard is loud, and the 100 TB path pre-bins days
    into weeks rather than raising it)."""
    import numpy as np

    cells = _daily_cells(ds, max_cells, "mann_kendall_daily")
    out_t: list = []
    out_m: list = []
    out_s: list = []
    out_z: list = []
    from . import round_half_away

    for t, sub in cells.groupby("event_type", sort=True):
        sub = sub.sort_values("day_id", kind="mergesort")
        n = sub["n"].to_numpy(np.int64)
        m = len(n)
        if m > max_days:
            raise ValueError(
                f"mann_kendall_daily: {m} days for type {t!r} > "
                f"{max_days} — pre-bin to weeks or raise max_days"
            )
        ii, jj = np.triu_indices(m, k=1)
        s = int(np.sign(n[jj] - n[ii]).sum())
        _, tie_counts = np.unique(n, return_counts=True)
        tk = tie_counts.astype(np.int64)
        tie = int((tk * (tk - 1) * (2 * tk + 5)).sum())
        var = (float(m * (m - 1) * (2 * m + 5) - tie)) / 18.0
        out_t.append(t)
        out_m.append(m)
        out_s.append(s)
        if var <= 0.0:
            out_z.append(None)
        elif s > 0:
            out_z.append(round_half_away((float(s) - 1.0) / np.sqrt(var), 6))
        elif s < 0:
            out_z.append(round_half_away((float(s) + 1.0) / np.sqrt(var), 6))
        else:
            out_z.append(0.0)
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "event_type": pa.array(out_t, pa.string()),
                "n_days": pa.array(out_m, pa.int64()),
                "s_stat": pa.array(out_s, pa.int64()),
                "z": pa.array(out_z, pa.float64()),
            }
        )
    )


def acf_daily(
    ds: rd.Dataset, max_lag: int = 7, max_cells: int = 200_000
) -> rd.Dataset:
    """Lag-k autocorrelation (k = 1..max_lag) of the gap-filled per-type
    daily count series — the seasonality/burstiness diagnostic (a strong
    lag-7 peak = weekly cycle; slow decay = long bursts). Defined as the
    Pearson correlation between the series and its k-day shift over the
    overlapping pairs (the SQL ``corr(n, lag(n, k))`` form, NOT the
    fixed-global-mean textbook ACF — so the DuckDB oracle is the same
    estimator).

    Exactness: the gap-filled grid is integer (missing days are true
    zeros on both engines); per (type, k) the five moments (m, Σx, Σy,
    Σx², Σy², Σxy) accumulate in int64 — corr is then ONE float
    expression per cell, matching DuckDB's corr at 6dp (the
    corr_by_group precedent). The grid is driver-bounded by the same
    loud guard as ewma_daily; lags are a dense O(max_lag · days)
    vectorized pass, no shuffle."""
    import numpy as np

    cells = _daily_cells(ds, max_cells, "acf_daily")
    out_t: list = []
    out_k: list = []
    out_m: list = []
    out_r: list = []
    from . import round_half_away

    if len(cells):
        types = sorted(cells["event_type"].unique())
        days = np.arange(
            cells["day_id"].min(), cells["day_id"].max() + 1
        )
        grid = (
            cells.set_index(["event_type", "day_id"])["n"]
            .reindex(
                pd.MultiIndex.from_product(
                    [types, days], names=["event_type", "day_id"]
                ),
                fill_value=0,
            )
            .to_numpy(np.int64)
            .reshape(len(types), len(days))
        )
        for ti, t in enumerate(types):
            x = grid[ti]
            for k in range(1, max_lag + 1):
                if len(x) <= k:
                    continue
                a = x[k:]          # n at day d
                b = x[:-k]         # n at day d-k (the lag)
                m = len(a)
                sx = int(a.sum()); sy = int(b.sum())
                sxx = int((a * a).sum()); syy = int((b * b).sum())
                sxy = int((a * b).sum())
                dx = m * sxx - sx * sx
                dy = m * syy - sy * sy
                out_t.append(t)
                out_k.append(k)
                out_m.append(m)
                if dx <= 0 or dy <= 0:
                    out_r.append(None)  # constant side -> corr undefined
                else:
                    r = float(m * sxy - sx * sy) / (
                        np.sqrt(float(dx)) * np.sqrt(float(dy))
                    )
                    out_r.append(round_half_away(r, 6))
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "event_type": pa.array(out_t, pa.string()),
                "lag": pa.array(out_k, pa.int64()),
                "n_pairs": pa.array(out_m, pa.int64()),
                "acf": pa.array(out_r, pa.float64()),
            }
        )
    )


def xcorr_daily(
    ds: rd.Dataset, max_lag: int = 7, max_cells: int = 200_000
) -> rd.Dataset:
    """Cross-type lead-lag correlation: for every ORDERED pair of event
    types (a ≠ b) and lag k = 0..max_lag, the Pearson correlation of
    a's gap-filled daily count with b's k days EARLIER — the
    does-signups-lead-purchases / do-errors-follow-deploys diagnostic
    (a peak at k > 0 means b leads a by k days; the (b, a) row covers
    the other direction).

    Exactness and shape are acf_daily's (same integer grid, same int64
    five-moment cells, one corr float expression per (a, b, k) at 6dp);
    output is |T|·(|T|−1)·(max_lag+1) rows — driver-trivial for any
    sane type cardinality, and the grid guard is the same loud one."""
    import numpy as np

    cells = _daily_cells(ds, max_cells, "xcorr_daily")
    out_a: list = []
    out_b: list = []
    out_k: list = []
    out_m: list = []
    out_r: list = []
    from . import round_half_away

    if len(cells):
        types = sorted(cells["event_type"].unique())
        days = np.arange(cells["day_id"].min(), cells["day_id"].max() + 1)
        grid = (
            cells.set_index(["event_type", "day_id"])["n"]
            .reindex(
                pd.MultiIndex.from_product(
                    [types, days], names=["event_type", "day_id"]
                ),
                fill_value=0,
            )
            .to_numpy(np.int64)
            .reshape(len(types), len(days))
        )
        for ai, ta in enumerate(types):
            for bi, tb in enumerate(types):
                if ai == bi:
                    continue
                for k in range(0, max_lag + 1):
                    if len(days) <= k:
                        continue
                    a = grid[ai][k:]       # a at day d
                    b = grid[bi][: len(days) - k]  # b at day d-k
                    m = len(a)
                    sx = int(a.sum()); sy = int(b.sum())
                    sxx = int((a * a).sum()); syy = int((b * b).sum())
                    sxy = int((a * b).sum())
                    dx = m * sxx - sx * sx
                    dy = m * syy - sy * sy
                    out_a.append(ta)
                    out_b.append(tb)
                    out_k.append(k)
                    out_m.append(m)
                    if dx <= 0 or dy <= 0:
                        out_r.append(None)
                    else:
                        r = float(m * sxy - sx * sy) / (
                            np.sqrt(float(dx)) * np.sqrt(float(dy))
                        )
                        out_r.append(round_half_away(r, 6))
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "type_a": pa.array(out_a, pa.string()),
                "type_b": pa.array(out_b, pa.string()),
                "lag": pa.array(out_k, pa.int64()),
                "n_pairs": pa.array(out_m, pa.int64()),
                "xcorr": pa.array(out_r, pa.float64()),
            }
        )
    )


def cusum_daily(
    ds: rd.Dataset,
    k_frac: float = 0.1,
    max_cells: int = 200_000,
) -> rd.Dataset:
    """One-sided CUSUM control line over the gap-filled per-type daily
    series: S_0 = max(0, x_0 − μ − k), S_t = max(0, S_{t−1} + (x_t − μ
    − k)) with reference level μ = the series mean and slack k =
    ``k_frac``·μ (Page 1954 — the sustained-shift detector the EWMA
    line complements: EWMA tracks level, CUSUM accumulates evidence of
    a persistent upward drift and resets at 0 while in control).

    Exactness: like ewma_daily the recurrence is a single dependency
    chain over the tiny dense grid — both engines evaluate max(0,
    S + ((x − μ) − k)) in the same op order with μ and k derived from
    the SAME integers (grid total / day count), so the SQL recursive
    CTE computes bit-identical doubles and the oracle is exact. Same
    combiner shape and loud grid guard as ewma_daily; the day loop is
    vectorized across types."""
    import numpy as np

    cells = _daily_cells(ds, max_cells, "cusum_daily")
    if not len(cells):
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "event_type": pa.array([], pa.string()),
                    "day": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "cusum": pa.array([], pa.float64()),
                }
            )
        )
    types = sorted(cells["event_type"].unique())
    days = np.arange(cells["day_id"].min(), cells["day_id"].max() + 1)
    grid = (
        cells.set_index(["event_type", "day_id"])["n"]
        .reindex(
            pd.MultiIndex.from_product(
                [types, days], names=["event_type", "day_id"]
            ),
            fill_value=0,
        )
        .to_numpy(np.int64)
        .reshape(len(types), len(days))
    )
    m = float(len(days))
    mu = grid.sum(axis=1).astype(np.float64) / m        # per-type mean
    slack = k_frac * mu
    cu = np.empty(grid.shape, dtype=np.float64)
    # same op order as the recursive CTE: max(0, prev + ((n - mu) - k))
    cu[:, 0] = np.maximum(
        0.0, (grid[:, 0].astype(np.float64) - mu) - slack
    )
    for t in range(1, len(days)):
        cu[:, t] = np.maximum(
            0.0, cu[:, t - 1] + ((grid[:, t].astype(np.float64) - mu)
                                 - slack)
        )
    day_str = (days * DAY_US).astype("datetime64[us]").astype(
        "datetime64[D]"
    ).astype(str)
    from . import round_half_away_np

    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "event_type": pa.array(
                    np.repeat(types, len(days)), pa.string()
                ),
                "day": pa.array(np.tile(day_str, len(types)), pa.string()),
                "n": pa.array(grid.ravel()),
                "cusum": pa.array(round_half_away_np(cu.ravel(), 6)),
            }
        )
    )


def dow_profile(ds: rd.Dataset, max_cells: int = 200_000) -> rd.Dataset:
    """Day-of-week seasonality profile per event type over the
    gap-filled daily grid: per (type, dow) the number of calendar days,
    total events, mean events/day and the share of the type's volume —
    the weekly-shape audit that explains an acf_daily lag-7 peak
    (0 = Sunday .. 6 = Saturday, the SQL dayofweek convention; missing
    days count as true zero days on both engines).

    Exactness: counts and totals are integers from the same combiner
    grid as ewma_daily; mean and share are ONE division each at 6dp."""
    import numpy as np

    cells = _daily_cells(ds, max_cells, "dow_profile")
    out: dict = {
        "event_type": [], "dow": [], "n_days": [], "total": [],
        "mean_n": [], "share": [],
    }
    from . import round_half_away

    if len(cells):
        types = sorted(cells["event_type"].unique())
        days = np.arange(cells["day_id"].min(), cells["day_id"].max() + 1)
        grid = (
            cells.set_index(["event_type", "day_id"])["n"]
            .reindex(
                pd.MultiIndex.from_product(
                    [types, days], names=["event_type", "day_id"]
                ),
                fill_value=0,
            )
            .to_numpy(np.int64)
            .reshape(len(types), len(days))
        )
        # 1970-01-01 (day_id 0) was a Thursday; dayofweek(Sunday) = 0
        dows = (days + 4) % 7
        for ti, t in enumerate(types):
            type_total = int(grid[ti].sum())
            for dow in range(7):
                mask = dows == dow
                nd = int(mask.sum())
                if nd == 0:
                    continue
                tot = int(grid[ti][mask].sum())
                out["event_type"].append(t)
                out["dow"].append(dow)
                out["n_days"].append(nd)
                out["total"].append(tot)
                out["mean_n"].append(
                    round_half_away(float(tot) / float(nd), 6)
                )
                out["share"].append(
                    None if type_total == 0 else
                    round_half_away(float(tot) / float(type_total), 6)
                )
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "event_type": pa.array(out["event_type"], pa.string()),
                "dow": pa.array(out["dow"], pa.int64()),
                "n_days": pa.array(out["n_days"], pa.int64()),
                "total": pa.array(out["total"], pa.int64()),
                "mean_n": pa.array(out["mean_n"], pa.float64()),
                "share": pa.array(out["share"], pa.float64()),
            }
        )
    )


def burstiness_by_type(ds: rd.Dataset) -> rd.Dataset:
    """Burstiness coefficient B = (σ − μ)/(σ + μ) of the inter-event
    gaps per event type (Goh & Barabási 2008): −1 for a perfectly
    periodic stream, → 0 for Poisson, → 1 for heavy-tailed bursts —
    the point-process sibling of the daily-grid monitors (CUSUM/EWMA
    see level shifts; burstiness sees CLUMPING at the raw-timestamp
    scale).

    Exactness: gaps are int64 microseconds in (ts, event_id) order;
    n/Σg/Σg² accumulate as exact PYTHON ints (Σg² can exceed int64 —
    the SQL side accumulates HUGEINT), then both engines cast the SAME
    exact integers to double and evaluate one mirrored expression
    (σ² = Σg²/n − μ², 6dp). Scale note: one group per event type (few
    types by construction here); a high-cardinality key would ride
    bucketed_group_apply with per-key sub-sorts instead."""
    import numpy as np

    from . import round_half_away

    def per_type(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        ts = g["ts"].astype("int64").to_numpy()
        if len(ts) < 2:
            return pd.DataFrame(
                columns=["event_type", "n_gaps", "mean_gap_us",
                         "burstiness"]
            )
        gaps = np.diff(ts)
        n = int(len(gaps))
        sg = int(gaps.sum())                      # < 2^63 (span bound)
        sg2 = sum(int(x) * int(x) for x in gaps)  # exact python int
        nf = float(n)
        mf = float(sg) / nf
        vf = float(sg2) / nf - mf * mf
        if vf > 0.0:
            s = np.sqrt(vf)
            b = (s - mf) / (s + mf)
            bv = round_half_away(float(b), 6)
        elif mf > 0.0:
            bv = -1.0          # σ = 0, periodic
        else:
            bv = None          # all gaps zero
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "n_gaps": [n],
                "mean_gap_us": [round_half_away(mf, 6)],
                "burstiness": [bv],
            }
        )

    return (
        ds.select_columns(["event_type", "ts", "event_id"])
        .groupby("event_type")
        .map_groups(per_type, batch_format="pandas")
    )


def holt_daily(ds: rd.Dataset, max_cells: int = 200_000) -> rd.Dataset:
    """Holt double exponential smoothing (level + linear trend, Holt
    1957) over the gap-filled per-type daily series with α = 0.3,
    β = 0.1 — the forecasting-grade smoother that the EWMA line lacks:
    EWMA lags a drifting series systematically, Holt's trend term b_t
    tracks the drift itself, so (level, trend) is the state a capacity
    forecaster would actually extrapolate from.

    Recurrence (both engines evaluate these literal-constant forms):
    l_0 = x_0, b_0 = x_1 − x_0 (0 when the grid has a single day);
    l_t = 0.3·x_t + 0.7·(l_{t−1} + b_{t−1});
    b_t = 0.1·(l_t − l_{t−1}) + 0.9·b_{t−1}.
    Exactness: a single dependency chain over the tiny dense grid (the
    ewma/cusum contract) — the SQL recursive CTE evaluates the SAME
    op-order expressions on the SAME integer grid, so doubles are
    bit-identical and 6dp rounding is cosmetic. The recursive step
    spells l_t out twice (CTEs can't reference a computed alias), which
    is still the identical value. Same combiner + loud grid guard as
    ewma_daily; the day loop is vectorized across types."""
    cells = _daily_cells(ds, max_cells, "holt_daily")
    if not len(cells):
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "event_type": pa.array([], pa.string()),
                    "day": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "level": pa.array([], pa.float64()),
                    "trend": pa.array([], pa.float64()),
                }
            )
        )
    types = sorted(cells["event_type"].unique())
    days = np.arange(cells["day_id"].min(), cells["day_id"].max() + 1)
    grid = (
        cells.set_index(["event_type", "day_id"])["n"]
        .reindex(
            pd.MultiIndex.from_product(
                [types, days], names=["event_type", "day_id"]
            ),
            fill_value=0,
        )
        .to_numpy(np.int64)
        .reshape(len(types), len(days))
    )
    x = grid.astype(np.float64)
    lv = np.empty_like(x)
    tr = np.empty_like(x)
    lv[:, 0] = x[:, 0]
    tr[:, 0] = (x[:, 1] - x[:, 0]) if len(days) > 1 else 0.0
    for t in range(1, len(days)):
        l_new = 0.3 * x[:, t] + 0.7 * (lv[:, t - 1] + tr[:, t - 1])
        tr[:, t] = 0.1 * (l_new - lv[:, t - 1]) + 0.9 * tr[:, t - 1]
        lv[:, t] = l_new
    day_str = (days * DAY_US).astype("datetime64[us]").astype(
        "datetime64[D]"
    ).astype(str)
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "event_type": pa.array(
                    np.repeat(types, len(days)), pa.string()
                ),
                "day": pa.array(np.tile(day_str, len(types)), pa.string()),
                "n": pa.array(grid.ravel()),
                "level": pa.array(round_half_away_np(lv.ravel(), 6)),
                "trend": pa.array(round_half_away_np(tr.ravel(), 6)),
            }
        )
    )


def theil_sen_daily(ds: rd.Dataset, max_cells: int = 200_000) -> rd.Dataset:
    """Theil–Sen robust trend line per event type over the gap-filled
    daily grid: slope = median of all pairwise slopes
    (n_j − n_i)/(j − i), intercept = median of (n_i − slope·i) — the
    estimator Mann–Kendall's S says EXISTS a trend for; Theil–Sen says
    how steep, with 29% breakdown (a week of outage days cannot drag it
    the way it drags OLS).

    Exactness: the grid is exact integers (the ewma/cusum combiner);
    each pairwise slope is ONE double division both engines perform
    identically; medians use DuckDB quantile_cont's WEIGHTED
    interpolation lo·(1−frac) + hi·frac over the sorted doubles (the
    grouped_quantiles contract — numpy's lerp differs by an ulp), and
    the intercept pass reuses the UNROUNDED slope. 6dp at the end.

    Scale: O(days²) pairs per type — days is the bounded dense-grid
    axis (the max_cells guard), ~5k days of log is 12.5M slope doubles
    per type on the driver; a longer horizon would sample day pairs or
    segment the series, stated here so the guard is the contract."""
    cells = _daily_cells(ds, max_cells, "theil_sen_daily")
    if not len(cells):
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "event_type": pa.array([], pa.string()),
                    "n_days": pa.array([], pa.int64()),
                    "slope": pa.array([], pa.float64()),
                    "intercept": pa.array([], pa.float64()),
                }
            )
        )
    types = sorted(cells["event_type"].unique())
    days = np.arange(cells["day_id"].min(), cells["day_id"].max() + 1)
    grid = (
        cells.set_index(["event_type", "day_id"])["n"]
        .reindex(
            pd.MultiIndex.from_product(
                [types, days], names=["event_type", "day_id"]
            ),
            fill_value=0,
        )
        .to_numpy(np.int64)
        .reshape(len(types), len(days))
    )
    m = len(days)
    ii, jj = np.triu_indices(m, k=1)
    denom = (jj - ii).astype(np.float64)
    idx = np.arange(m, dtype=np.float64)

    def q50(v: np.ndarray) -> float:
        v = np.sort(v, kind="stable")
        pos = (len(v) - 1) * 0.5
        lo = int(np.floor(pos))
        frac = pos - lo
        hi = min(lo + 1, len(v) - 1)
        return v[lo] * (1.0 - frac) + v[hi] * frac

    if m < 2:
        # a single-day grid has no pairwise slope: no rows (the SQL
        # pair self-join is empty too)
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "event_type": pa.array([], pa.string()),
                    "n_days": pa.array([], pa.int64()),
                    "slope": pa.array([], pa.float64()),
                    "intercept": pa.array([], pa.float64()),
                }
            )
        )
    slopes, inters = [], []
    for r in range(len(types)):
        x = grid[r].astype(np.float64)
        s = q50((x[jj] - x[ii]) / denom)
        slopes.append(s)
        inters.append(q50(x - s * idx))
    from . import round_half_away

    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "event_type": pa.array(types, pa.string()),
                "n_days": pa.array([m] * len(types), pa.int64()),
                "slope": pa.array(
                    [round_half_away(float(s), 6) for s in slopes],
                    pa.float64(),
                ),
                "intercept": pa.array(
                    [round_half_away(float(b), 6) for b in inters],
                    pa.float64(),
                ),
            }
        )
    )


def rolling_median_daily(
    ds: rd.Dataset, half_window: int = 3, max_cells: int = 200_000
) -> rd.Dataset:
    """Centered rolling MEDIAN (window = ``half_window`` each side) of
    the gap-filled per-type daily count series — the robust smoother a
    monitoring line should prefer over the rolling MEAN when single-day
    spikes are expected (one outage day pollutes a 7-day mean for a
    week; the median ignores it).

    Exactness: windows at the series edges TRUNCATE (the SQL window
    frame semantics — no NULL padding), and the median interpolates
    with DuckDB quantile_cont's weighted form lo·(1−frac) + hi·frac
    over the sorted window, so the oracle
    ``quantile_cont(n, 0.5) OVER (ROWS BETWEEN h PRECEDING AND h
    FOLLOWING)`` is exact. The per-position loop is over the bounded
    dense-grid day axis (the max_cells guard), each step sorting
    ≤ 2h+1 ints — driver work O(days · types · h log h)."""
    cells = _daily_cells(ds, max_cells, "rolling_median_daily")
    if not len(cells):
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "event_type": pa.array([], pa.string()),
                    "day": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "median7": pa.array([], pa.float64()),
                }
            )
        )
    types = sorted(cells["event_type"].unique())
    days = np.arange(cells["day_id"].min(), cells["day_id"].max() + 1)
    grid = (
        cells.set_index(["event_type", "day_id"])["n"]
        .reindex(
            pd.MultiIndex.from_product(
                [types, days], names=["event_type", "day_id"]
            ),
            fill_value=0,
        )
        .to_numpy(np.int64)
        .reshape(len(types), len(days))
    )
    m = len(days)
    med = np.empty((len(types), m), np.float64)
    for t in range(m):
        lo, hi = max(0, t - half_window), min(m, t + half_window + 1)
        w = np.sort(grid[:, lo:hi], axis=1).astype(np.float64)
        k = hi - lo
        pos = (k - 1) * 0.5
        i0 = int(np.floor(pos))
        frac = pos - i0
        i1 = min(i0 + 1, k - 1)
        med[:, t] = w[:, i0] * (1.0 - frac) + w[:, i1] * frac
    day_str = (days * DAY_US).astype("datetime64[us]").astype(
        "datetime64[D]"
    ).astype(str)
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "event_type": pa.array(
                    np.repeat(types, m), pa.string()
                ),
                "day": pa.array(np.tile(day_str, len(types)), pa.string()),
                "n": pa.array(grid.ravel()),
                "median7": pa.array(
                    round_half_away_np(med.ravel(), 6)
                ),
            }
        )
    )


def changepoint_daily(ds: rd.Dataset, max_cells: int = 200_000) -> rd.Dataset:
    """Single best mean-shift changepoint per event type over the
    gap-filled daily series (the first step of binary segmentation /
    offline CUSUM): the split t maximizing the between-segment sum of
    squares, which for a split into (n1, S1) and (n2, S2) is EXACTLY
    d²/(n1·n2·m) with d = S1·n2 − S2·n1 — an all-integer numerator and
    denominator, so both engines compute the identical double per t
    from identical integers and the argmax (ties → smallest t) is
    deterministic across engines. Complements cusum_daily: CUSUM says
    WHETHER a sustained shift exists, this says WHERE it is and by how
    much.

    Emits (event_type, cp_day, score, mean_before, mean_after) — cp_day
    is the first day OF the new regime; all floats 6dp mirrored; types
    need ≥ 2 grid days (one candidate split) or they are dropped (the
    SQL inner join drops them too). Driver work is O(days) per type on
    the guard-bounded grid."""
    cells = _daily_cells(ds, max_cells, "changepoint_daily")
    empty = pa.Table.from_pydict(
        {
            "event_type": pa.array([], pa.string()),
            "cp_day": pa.array([], pa.string()),
            "score": pa.array([], pa.float64()),
            "mean_before": pa.array([], pa.float64()),
            "mean_after": pa.array([], pa.float64()),
        }
    )
    if not len(cells):
        return rd.from_arrow(empty)
    types = sorted(cells["event_type"].unique())
    days = np.arange(cells["day_id"].min(), cells["day_id"].max() + 1)
    m = len(days)
    if m < 2:
        return rd.from_arrow(empty)
    grid = (
        cells.set_index(["event_type", "day_id"])["n"]
        .reindex(
            pd.MultiIndex.from_product(
                [types, days], names=["event_type", "day_id"]
            ),
            fill_value=0,
        )
        .to_numpy(np.int64)
        .reshape(len(types), m)
    )
    from . import round_half_away

    pre = np.cumsum(grid, axis=1)  # S1 at split t = pre[:, t-1]
    tot = pre[:, -1]
    recs = []
    for r, ty in enumerate(types):
        n1 = np.arange(1, m, dtype=np.int64)
        n2 = m - n1
        S1 = pre[r, :-1]
        S2 = tot[r] - S1
        d = S1 * n2 - S2 * n1
        # identical doubles on both engines: one division of exact ints
        score = (d.astype(np.float64) * d.astype(np.float64)) / (
            (n1 * n2 * m).astype(np.float64)
        )
        best = int(np.argmax(score))  # first max == smallest t tie-break
        t = best + 1
        recs.append(
            {
                "event_type": ty,
                "cp_day": str(
                    ((days[t]) * DAY_US)
                    .astype("datetime64[us]")
                    .astype("datetime64[D]")
                ),
                "score": round_half_away(float(score[best]), 6),
                "mean_before": round_half_away(
                    float(S1[best]) / float(t), 6
                ),
                "mean_after": round_half_away(
                    float(S2[best]) / float(m - t), 6
                ),
            }
        )
    return rd.from_arrow(pa.Table.from_pylist(recs, schema=empty.schema))


def stl_daily(ds: rd.Dataset, max_cells: int = 200_000) -> rd.Dataset:
    """STL-lite decomposition of the per-type daily series into
    trend + weekly seasonal + remainder: trend = centered 7-day moving
    AVERAGE over FULL windows only (NULL at the 3-day edges — the SQL
    full-frame mirror), seasonal = per-(type, dow) mean of the
    detrended interior, remainder = n − trend − seasonal. The
    three-way split is what turns "counts moved" into "trend moved vs
    the usual Friday bump vs an anomaly" — the triage the raw series
    can't do.

    Exactness: trend is Σ7/7.0 of exact ints; seasonal averages a
    handful of detrended doubles per (type, dow) — non-negative-free
    but cancellation-free (magnitudes bounded by daily counts), so
    summation-order ulps stay relative and 6dp absorbs them (the
    repo's irrational-sum contract); remainder mirrors per-row op
    order n − trend − seasonal. dow convention = SQL dayofweek
    (0 = Sunday). Driver work on the guard-bounded grid."""
    cells = _daily_cells(ds, max_cells, "stl_daily")
    if not len(cells):
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "event_type": pa.array([], pa.string()),
                    "day": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "trend": pa.array([], pa.float64()),
                    "seasonal": pa.array([], pa.float64()),
                    "remainder": pa.array([], pa.float64()),
                }
            )
        )
    types = sorted(cells["event_type"].unique())
    days = np.arange(cells["day_id"].min(), cells["day_id"].max() + 1)
    m = len(days)
    grid = (
        cells.set_index(["event_type", "day_id"])["n"]
        .reindex(
            pd.MultiIndex.from_product(
                [types, days], names=["event_type", "day_id"]
            ),
            fill_value=0,
        )
        .to_numpy(np.int64)
        .reshape(len(types), m)
    )
    trend = np.full((len(types), m), np.nan)
    if m >= 7:
        csum = np.concatenate(
            [np.zeros((len(types), 1), np.int64), np.cumsum(grid, axis=1)],
            axis=1,
        )
        win = (csum[:, 7:] - csum[:, :-7]).astype(np.float64) / 7.0
        trend[:, 3 : m - 3] = win
    detr = grid.astype(np.float64) - trend  # NaN at edges
    # dow 0 = Sunday: epoch day 0 (1970-01-01) is a Thursday = 4
    dow = (days + 4) % 7
    seasonal = np.full((len(types), m), np.nan)
    for d in range(7):
        mask = dow == d
        sub = detr[:, mask]
        ok = ~np.isnan(sub)
        cnt = ok.sum(axis=1)
        s = np.where(ok, sub, 0.0).sum(axis=1)
        mean_d = np.where(cnt > 0, s / np.maximum(cnt, 1), np.nan)
        seasonal[:, mask] = mean_d[:, None]
    remainder = grid.astype(np.float64) - trend - seasonal
    day_str = (days * DAY_US).astype("datetime64[us]").astype(
        "datetime64[D]"
    ).astype(str)
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "event_type": pa.array(np.repeat(types, m), pa.string()),
                "day": pa.array(np.tile(day_str, len(types)), pa.string()),
                "n": pa.array(grid.ravel()),
                "trend": pa.array(round_half_away_np(trend.ravel(), 6)),
                "seasonal": pa.array(
                    round_half_away_np(seasonal.ravel(), 6)
                ),
                "remainder": pa.array(
                    round_half_away_np(remainder.ravel(), 6)
                ),
            }
        )
    )


def bollinger_daily(
    ds: rd.Dataset,
    window: int = 7,
    n_sigma: float = 2.0,
    max_cells: int = 200_000,
) -> rd.Dataset:
    """Bollinger control bands over the gap-filled per-type daily count
    series: trailing ``window``-day mean +- ``n_sigma`` sample standard
    deviations, plus a breach flag — the volatility-adaptive volume
    monitor (a fixed-threshold alert pages on every weekend dip; the
    band widens exactly when the series is noisy).

    Exactness contract: window sums Sw = sum(n) and Qw = sum(n^2) are
    exact int64 (counts on the filled grid), both engines then evaluate
    ONE mirrored float chain — mean = Sw/k, var = max((Qw - Sw^2/k)
    / (k-1), 0) (the max() guard fires identically on both sides:
    DuckDB errors on sqrt(negative), and an all-equal window cancels to
    a signed ulp), sd = sqrt(var), bands = mean -+ n_sigma*sd — with
    the breach comparison done on the UNROUNDED band. Edge windows
    truncate (SQL frame semantics); the k = 1 first day has no sample
    sd (NULL sd/bands/breach).

    Scale shape: one streamed combiner pass of (type, day) integer
    count partials (the ewma_daily shape — raw events never shuffle),
    grid work on the driver under the loud ``max_cells`` guard."""
    DAY_US = 86_400_000_000

    cells = _daily_cells(ds, max_cells, "bollinger_daily")
    empty = {
        "event_type": pa.array([], pa.string()),
        "day": pa.array([], pa.string()),
        "n": pa.array([], pa.int64()),
        "mean_w": pa.array([], pa.float64()),
        "sd_w": pa.array([], pa.float64()),
        "upper": pa.array([], pa.float64()),
        "lower": pa.array([], pa.float64()),
        "breach": pa.array([], pa.int64()),
    }
    if not len(cells):
        return rd.from_arrow(pa.Table.from_pydict(empty))
    types = sorted(cells["event_type"].unique())
    days = np.arange(cells["day_id"].min(), cells["day_id"].max() + 1)
    grid = (
        cells.set_index(["event_type", "day_id"])["n"]
        .reindex(
            pd.MultiIndex.from_product(
                [types, days], names=["event_type", "day_id"]
            ),
            fill_value=0,
        )
        .to_numpy(np.int64)
        .reshape(len(types), len(days))
    )
    m = len(days)
    cs = np.cumsum(grid, axis=1)
    csq = np.cumsum(grid * grid, axis=1)
    t = np.arange(m)
    lo = np.maximum(0, t - (window - 1))
    k = (t - lo + 1).astype(np.int64)
    sw = cs[:, t] - np.where(lo > 0, cs[:, lo - 1], 0)
    qw = csq[:, t] - np.where(lo > 0, csq[:, lo - 1], 0)
    kf = k.astype(np.float64)
    swf = sw.astype(np.float64)
    qwf = qw.astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = swf / kf
        var = np.maximum((qwf - swf * swf / kf) / (kf - 1.0), 0.0)
        sd = np.sqrt(var)
    upper = mean + n_sigma * sd
    lower = mean - n_sigma * sd
    nf = grid.astype(np.float64)
    breach = ((nf > upper) | (nf < lower)).astype(np.int64)
    ok = np.broadcast_to(k >= 2, grid.shape)
    day_str = (days * DAY_US).astype("datetime64[us]").astype(
        "datetime64[D]"
    ).astype(str)

    def masked(v: np.ndarray, decimals: int | None = 6) -> pa.Array:
        vals = v.ravel()
        mask = ~ok.ravel()
        if decimals is not None:
            vals = round_half_away_np(vals, decimals)
            return pa.array(vals, pa.float64(), mask=mask)
        return pa.array(vals, pa.int64(), mask=mask)

    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "event_type": pa.array(np.repeat(types, m), pa.string()),
                "day": pa.array(np.tile(day_str, len(types)), pa.string()),
                "n": pa.array(grid.ravel()),
                "mean_w": masked(mean),
                "sd_w": masked(sd),
                "upper": masked(upper),
                "lower": masked(lower),
                "breach": masked(breach, None),
            }
        )
    )


def kaplan_meier(
    ds: rd.Dataset,
    target_type: str = "purchase",
    max_times: int = 100_000,
) -> rd.Dataset:
    """Kaplan-Meier time-to-conversion curve: for each user, the days
    from their FIRST event to their first ``target_type`` event; users
    who never convert are right-CENSORED at the corpus's last day.
    S(t) = prod_{t_i <= t} (1 - d_i / n_i) over distinct conversion
    times — the product-limit estimator (Kaplan & Meier 1958), the
    censoring-correct answer to "what fraction converts within k days?"
    (a naive conversion-rate-by-day UNDERSTATES late conversion because
    recent signups haven't had time to convert yet).

    Exactness contract: d_i (conversions at t_i) and n_i (at risk:
    observation time >= t_i, censored users counted — events precede
    censorings at equal times, the standard convention) are exact
    integers from the (time, converted) histogram; survival mirrors the
    SQL ``exp(sum(ln(1 - d/n)) OVER (ORDER BY t))`` running chain
    (np.cumsum of np.log — same left-to-right order; 6dp absorbs libm
    ulps). A time with d = n (everyone remaining converts) zeroes the
    curve from there on BOTH sides via an identical integer flag —
    DuckDB's ln(0) errors, so the term is CASE-guarded, never evaluated.

    Scale shape: pass 1 is a per-batch per-user (first-day,
    first-target-day, last-day) combiner + one user-bucketed merge (the
    new_users_by_day shape); per-user rows materialize (4 ints/user —
    object-store-spillable at any user count); the corpus max-day is a
    Dataset.max over that tiny table; pass 2 re-streams it into a
    (time, converted) integer histogram bounded by the day span (loud
    ``max_times`` guard). Raw events never shuffle."""
    from . import bucketed_group_apply
    from .dedup import shuffle_blocks

    DAY_US = 86_400_000_000
    SENT = np.int64(2**62)  # "never converted" min-merge sentinel

    def partial(batch: pa.Table) -> pa.Table:
        day = batch.column("ts").cast(pa.int64()).to_numpy() // DAY_US
        is_t = np.asarray(
            pa.compute.equal(batch.column("event_type"), target_type)
        )
        df = pd.DataFrame(
            {
                "user_id": batch.column("user_id").to_numpy(
                    zero_copy_only=False
                ),
                "fd": day,
                "cd": np.where(is_t, day, SENT),
                "hi": day,
            }
        )
        agg = df.groupby("user_id", as_index=False).agg(
            fd=("fd", "min"), cd=("cd", "min"), hi=("hi", "max")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("user_id", as_index=False).agg(
            fd=("fd", "min"), cd=("cd", "min"), hi=("hi", "max")
        )

    users = bucketed_group_apply(
        ds.select_columns(["user_id", "event_type", "ts"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(shuffle_blocks()),
        "user_id",
        merge,
    ).materialize()
    if users.count() == 0:
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "t_days": pa.array([], pa.int64()),
                    "n_risk": pa.array([], pa.int64()),
                    "n_conv": pa.array([], pa.int64()),
                    "survival": pa.array([], pa.float64()),
                }
            )
        )
    gmax = int(users.max("hi"))

    def hist(batch: pa.Table) -> pa.Table:
        fd = batch.column("fd").to_numpy()
        cd = batch.column("cd").to_numpy()
        conv = cd < SENT
        df = pd.DataFrame(
            {
                "t": np.where(conv, cd - fd, gmax - fd),
                "conv": conv.astype(np.int64),
            }
        )
        agg = df.groupby(["t", "conv"], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    rows = users.map_batches(hist, batch_format="pyarrow").take(max_times + 1)
    if len(rows) > max_times:
        raise ValueError(
            f"kaplan_meier: > {max_times} (time, flag) partials — "
            "pre-bin times to weeks or raise max_times"
        )
    h = (
        pd.DataFrame(rows)
        .groupby(["t", "conv"], as_index=False)
        .agg(n=("size", "sum"))
        .sort_values("t", kind="mergesort")
    )
    total = int(h["n"].sum())
    leave = h.groupby("t", sort=True)["n"].sum()  # exits at t (any kind)
    churn = (
        h[h["conv"] == 1].set_index("t")["n"].reindex(leave.index, fill_value=0)
    )
    # at-risk just before each time: total minus all exits strictly before
    before = leave.cumsum().shift(1, fill_value=0)
    times = leave.index.to_numpy(np.int64)
    d = churn.to_numpy(np.int64)
    n_risk = total - before.to_numpy(np.int64)
    ev = d > 0
    t_e, d_e, n_e = times[ev], d[ev], n_risk[ev]
    dead = np.cumsum(d_e == n_e) > 0
    with np.errstate(divide="ignore"):
        term = np.where(
            d_e < n_e,
            np.log(1.0 - d_e.astype(np.float64) / n_e.astype(np.float64)),
            0.0,
        )
    surv = np.where(dead, 0.0, np.exp(np.cumsum(term)))
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "t_days": pa.array(t_e, pa.int64()),
                "n_risk": pa.array(n_e, pa.int64()),
                "n_conv": pa.array(d_e, pa.int64()),
                "survival": pa.array(
                    round_half_away_np(surv, 6), pa.float64()
                ),
            }
        )
    )


def cohort_matrix(ds: rd.Dataset, max_cells: int = 200_000) -> rd.Dataset:
    """Weekly cohort-retention triangle: users grouped by first-active
    week, and for each (cohort, week-offset) cell the count of cohort
    members active in that week plus the retention ratio vs the cohort
    size — the full matrix behind the day-1/day-7 summary
    (:func:`retention_counts`), the curve a growth team reads cohort
    decay from.

    Exactness: every cell is an exact integer (distinct (user, week)
    membership, offset = week − cohort-week); retention is ONE mirrored
    division (cell / cohort-size, where the offset-0 cell IS the cohort
    size by construction). Weeks are epoch-weeks (epoch_us // 7-days —
    no ISO-calendar dependence on either engine).

    Scale shape: per-batch DISTINCT (user, week) pre-aggregation, one
    user-bucketed merge resolving each user's cohort and emitting
    per-bucket (cohort, offset) count partials; only weeks² cells reach
    the driver (loud ``max_cells`` guard). Raw events never shuffle."""
    from . import bucketed_group_apply
    from .dedup import shuffle_blocks

    WEEK_US = 604_800_000_000

    def partial(batch: pa.Table) -> pa.Table:
        wk = batch.column("ts").cast(pa.int64()).to_numpy() // WEEK_US
        df = pd.DataFrame(
            {
                "user_id": batch.column("user_id").to_numpy(
                    zero_copy_only=False
                ),
                "wk": wk,
            }
        ).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "wk"])
        cw = g.groupby("user_id")["wk"].transform("min")
        cells = pd.DataFrame(
            {"cohort_week": cw, "offset_weeks": g["wk"] - cw}
        )
        return cells.groupby(
            ["cohort_week", "offset_weeks"], as_index=False
        ).size()

    parts = bucketed_group_apply(
        ds.select_columns(["user_id", "ts"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(shuffle_blocks()),
        "user_id",
        per_bucket,
    ).take(max_cells + 1)
    if len(parts) > max_cells:
        raise ValueError(
            f"cohort_matrix: > {max_cells} (cohort, offset) partials — "
            "pre-bin to months or raise max_cells"
        )
    if not parts:
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "cohort_week": pa.array([], pa.int64()),
                    "offset_weeks": pa.array([], pa.int64()),
                    "n_users": pa.array([], pa.int64()),
                    "retention": pa.array([], pa.float64()),
                }
            )
        )
    m = (
        pd.DataFrame(parts)
        .groupby(["cohort_week", "offset_weeks"], as_index=False)
        .agg(n_users=("size", "sum"))
        .sort_values(["cohort_week", "offset_weeks"], kind="mergesort")
    )
    size0 = m[m["offset_weeks"] == 0].set_index("cohort_week")["n_users"]
    n0 = m["cohort_week"].map(size0).to_numpy(np.int64)
    ret = m["n_users"].to_numpy(np.int64).astype(np.float64) / n0.astype(
        np.float64
    )
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "cohort_week": pa.array(
                    m["cohort_week"].to_numpy(np.int64), pa.int64()
                ),
                "offset_weeks": pa.array(
                    m["offset_weeks"].to_numpy(np.int64), pa.int64()
                ),
                "n_users": pa.array(
                    m["n_users"].to_numpy(np.int64), pa.int64()
                ),
                "retention": pa.array(
                    round_half_away_np(ret, 6), pa.float64()
                ),
            }
        )
    )


def rfm_segments(ds: rd.Dataset, max_cells: int = 1_000_000) -> pa.Table:
    """RFM segmentation: per user Recency (days since last event),
    Frequency (event count) and Monetary (summed value in cents), each
    cut into quintiles by the tie-stable max-rank rule
    tile = ceil(5 * rank_max / n) — then the segment grid (r_tile,
    f_tile, m_tile, n_users, share), the classic marketing-segmentation
    cube ("5-5-5 champions" vs "1-1-1 lost").

    Tile contract: rank_max = count(v' <= v) makes tied users land in
    the SAME tile on both engines (no id tie-break needed), and the
    ceiling is computed in INTEGER arithmetic ((rank*5 + n − 1) // n ==
    SQL's windowed ``(count(*) OVER (RANGE ...) * 5 + n − 1) // n``) —
    no float boundary anywhere; share is the only division, 6dp.

    Scale shape: per-batch per-user (last-day, count, cents) combiner +
    one user-bucketed merge; per-user rows materialize
    (object-store-spillable); each dimension reduces to a (value,
    count) histogram — bounded by distinct values under the loud
    ``max_cells`` guard (recency/frequency are small-domain integers;
    monetary is cents and the guard is the documented contract — bucket
    cents first if a corpus exceeds it); tile maps broadcast via
    ray.put and the final pass emits (r,f,m)-tile count partials. Raw
    events never shuffle."""
    from . import bucketed_group_apply, resolve_broadcast, round_half_away
    from .dedup import shuffle_blocks

    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        day = batch.column("ts").cast(pa.int64()).to_numpy() // DAY_US
        cents = np.rint(
            batch.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        df = pd.DataFrame(
            {
                "user_id": batch.column("user_id").to_numpy(
                    zero_copy_only=False
                ),
                "last": day,
                "f": np.ones(len(day), np.int64),
                "m": cents,
            }
        )
        agg = df.groupby("user_id", as_index=False).agg(
            last=("last", "max"), f=("f", "sum"), m=("m", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("user_id", as_index=False).agg(
            last=("last", "max"), f=("f", "sum"), m=("m", "sum")
        )

    users = bucketed_group_apply(
        ds.select_columns(["user_id", "ts", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(shuffle_blocks()),
        "user_id",
        merge,
    ).materialize()
    n_users = users.count()
    if n_users == 0:
        return pa.Table.from_pydict(
            {
                "r_tile": pa.array([], pa.int64()),
                "f_tile": pa.array([], pa.int64()),
                "m_tile": pa.array([], pa.int64()),
                "n_users": pa.array([], pa.int64()),
                "share": pa.array([], pa.float64()),
            }
        )
    gmax = int(users.max("last"))

    def dim_hist(batch: pa.Table) -> pa.Table:
        out = []
        vals = {
            "r": gmax - batch.column("last").to_numpy(),
            "f": batch.column("f").to_numpy(),
            "m": batch.column("m").to_numpy(),
        }
        for dim, v in vals.items():
            agg = (
                pd.DataFrame({"v": v})
                .groupby("v", as_index=False)
                .size()
            )
            agg.insert(0, "dim", dim)
            out.append(agg)
        return pa.Table.from_pandas(
            pd.concat(out, ignore_index=True), preserve_index=False
        )

    rows = users.map_batches(dim_hist, batch_format="pyarrow").take(
        max_cells + 1
    )
    if len(rows) > max_cells:
        raise ValueError(
            f"rfm_segments: > {max_cells} (dim, value) partials — "
            "bucket the monetary cents first or raise max_cells"
        )
    h = (
        pd.DataFrame(rows)
        .groupby(["dim", "v"], as_index=False)
        .agg(n=("size", "sum"))
    )
    import ray

    maps = {}
    for dim, sub in h.groupby("dim"):
        sub = sub.sort_values("v", kind="mergesort")
        vals = sub["v"].to_numpy(np.int64)
        rank_max = np.cumsum(sub["n"].to_numpy(np.int64))
        tile = (rank_max * 5 + n_users - 1) // n_users
        maps[dim] = (vals, tile.astype(np.int64))
    maps_ref = ray.put(maps)

    def assign(batch: pa.Table) -> pa.Table:
        mp = resolve_broadcast(maps_ref)

        def tile_of(dim: str, v: np.ndarray) -> np.ndarray:
            vals, tiles = mp[dim]
            return tiles[np.searchsorted(vals, v)]

        r = gmax - batch.column("last").to_numpy()
        f = batch.column("f").to_numpy()
        m = batch.column("m").to_numpy()
        df = pd.DataFrame(
            {
                "r_tile": tile_of("r", r),
                "f_tile": tile_of("f", f),
                "m_tile": tile_of("m", m),
            }
        )
        agg = df.groupby(
            ["r_tile", "f_tile", "m_tile"], as_index=False
        ).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    seg_rows = users.map_batches(assign, batch_format="pyarrow").take_all()
    seg = (
        pd.DataFrame(seg_rows)
        .groupby(["r_tile", "f_tile", "m_tile"], as_index=False)
        .agg(n_users=("size", "sum"))
        .sort_values(["r_tile", "f_tile", "m_tile"], kind="mergesort")
    )
    share = seg["n_users"].to_numpy(np.int64).astype(np.float64) / float(
        n_users
    )
    return pa.Table.from_pydict(
        {
            "r_tile": pa.array(seg["r_tile"].to_numpy(np.int64)),
            "f_tile": pa.array(seg["f_tile"].to_numpy(np.int64)),
            "m_tile": pa.array(seg["m_tile"].to_numpy(np.int64)),
            "n_users": pa.array(seg["n_users"].to_numpy(np.int64)),
            "share": pa.array(round_half_away_np(share, 6), pa.float64()),
        }
    )


def xmr_chart(ds: rd.Dataset, max_cells: int = 200_000) -> rd.Dataset:
    """XmR (individuals + moving range) control chart per event type
    over the gap-filled daily count series: center = series mean,
    natural process limits = center ± 2.66 · mean-moving-range (the
    Shewhart individuals-chart constant 3/d2, d2 = 1.128), breach flag
    per day — the SPC cousin of the Bollinger monitor (GLOBAL limits
    from overall process variation, where Bollinger adapts locally).

    Exactness: Σx and Σ|Δx| are exact integers on the filled grid; both
    engines evaluate one mirrored chain (center = Σx/m, amr =
    Σ|Δx|/(m−1), limits = center ± 2.66·amr) and compare the UNROUNDED
    limits for the breach flag. A single-day grid (m = 1) yields NULL
    stats on both sides.

    Scale shape: the ewma_daily combiner (one streamed pass of integer
    (type, day) partials, loud ``max_cells`` guard); grid work on the
    driver."""
    DAY_US = 86_400_000_000

    cells = _daily_cells(ds, max_cells, "xmr_chart")
    empty = {
        "event_type": pa.array([], pa.string()),
        "day": pa.array([], pa.string()),
        "n": pa.array([], pa.int64()),
        "center": pa.array([], pa.float64()),
        "ucl": pa.array([], pa.float64()),
        "lcl": pa.array([], pa.float64()),
        "breach": pa.array([], pa.int64()),
    }
    if not len(cells):
        return rd.from_arrow(pa.Table.from_pydict(empty))
    types = sorted(cells["event_type"].unique())
    days = np.arange(cells["day_id"].min(), cells["day_id"].max() + 1)
    grid = (
        cells.set_index(["event_type", "day_id"])["n"]
        .reindex(
            pd.MultiIndex.from_product(
                [types, days], names=["event_type", "day_id"]
            ),
            fill_value=0,
        )
        .to_numpy(np.int64)
        .reshape(len(types), len(days))
    )
    m = len(days)
    s = grid.sum(axis=1)
    if m >= 2:
        mr_sum = np.abs(np.diff(grid, axis=1)).sum(axis=1)
        center = s.astype(np.float64) / float(m)
        amr = mr_sum.astype(np.float64) / float(m - 1)
        ucl = center + 2.66 * amr
        lcl = center - 2.66 * amr
        nf = grid.astype(np.float64)
        breach = (
            (nf > ucl[:, None]) | (nf < lcl[:, None])
        ).astype(np.int64)
        mask = np.zeros(grid.shape, bool)
    else:
        center = amr = ucl = lcl = np.zeros(len(types), np.float64)
        breach = np.zeros(grid.shape, np.int64)
        mask = np.ones(grid.shape, bool)
    day_str = (days * DAY_US).astype("datetime64[us]").astype(
        "datetime64[D]"
    ).astype(str)

    def rep(v: np.ndarray) -> pa.Array:
        return pa.array(
            round_half_away_np(np.repeat(v, m), 6),
            pa.float64(),
            mask=mask.ravel(),
        )

    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "event_type": pa.array(np.repeat(types, m), pa.string()),
                "day": pa.array(np.tile(day_str, len(types)), pa.string()),
                "n": pa.array(grid.ravel()),
                "center": rep(center),
                "ucl": rep(ucl),
                "lcl": rep(lcl),
                "breach": pa.array(
                    breach.ravel(), pa.int64(), mask=mask.ravel()
                ),
            }
        )
    )


def hour_dow_heatmap(ds: rd.Dataset, max_cells: int = 200_000) -> rd.Dataset:
    """Hour-of-day × day-of-week activity heatmap (0 = Sunday, the SQL
    dayofweek convention): event counts and volume share per (dow,
    hour) cell — the load-shape profile capacity planning reads
    ("Tuesday 14:00 is 3× the Sunday 04:00 trough").

    Exactness: cells are exact integer count partials (at most 168 per
    batch); share is one division at 6dp. One streamed combiner pass,
    nothing shuffles."""
    US_PER_HOUR_ = 3_600_000_000
    DAY_US = 86_400_000_000
    from . import round_half_away

    def partial(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        day = us // DAY_US
        df = pd.DataFrame(
            {
                "dow": (day + 4) % 7,
                "hour": (us // US_PER_HOUR_) % 24,
            }
        )
        agg = df.groupby(["dow", "hour"], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    rows = ds.select_columns(["ts"]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_cells + 1)
    if len(rows) > max_cells:  # pragma: no cover - 168 x blocks bound
        raise ValueError(f"hour_dow_heatmap: > {max_cells} partials")
    if not rows:
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "dow": pa.array([], pa.int64()),
                    "hour": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "share": pa.array([], pa.float64()),
                }
            )
        )
    h = (
        pd.DataFrame(rows)
        .groupby(["dow", "hour"], as_index=False)
        .agg(n=("size", "sum"))
        .sort_values(["dow", "hour"], kind="mergesort")
    )
    tot = int(h["n"].sum())
    share = h["n"].to_numpy(np.int64).astype(np.float64) / float(tot)
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "dow": pa.array(h["dow"].to_numpy(np.int64)),
                "hour": pa.array(h["hour"].to_numpy(np.int64)),
                "n": pa.array(h["n"].to_numpy(np.int64)),
                "share": pa.array(
                    round_half_away_np(share, 6), pa.float64()
                ),
            }
        )
    )


def zero_runs(ds: rd.Dataset, max_cells: int = 200_000) -> pa.Table:
    """Outage/gap report: maximal runs of ZERO-count days per event
    type on the gap-filled daily grid — (start_day, end_day, run_len)
    per silence, the "collector was down for 3 days in March" table
    that a plain daily-counts query hides (missing days simply don't
    appear in it).

    Exactness: pure integer run-length encoding of the zero mask (the
    SQL gaps-and-islands row_number rewrite) — no float anywhere.
    Shape: the ewma_daily combiner (one streamed pass, loud
    ``max_cells`` guard), run detection on the tiny driver grid."""
    DAY_US = 86_400_000_000

    cells = _daily_cells(ds, max_cells, "zero_runs")
    out = {"event_type": [], "start_day": [], "end_day": [], "run_len": []}
    if len(cells):
        types = sorted(cells["event_type"].unique())
        days = np.arange(cells["day_id"].min(), cells["day_id"].max() + 1)
        grid = (
            cells.set_index(["event_type", "day_id"])["n"]
            .reindex(
                pd.MultiIndex.from_product(
                    [types, days], names=["event_type", "day_id"]
                ),
                fill_value=0,
            )
            .to_numpy(np.int64)
            .reshape(len(types), len(days))
        )

        def day_s(d: int) -> str:
            return str(
                np.int64(d * DAY_US).astype("datetime64[us]")
                .astype("datetime64[D]")
            )

        for ti, t in enumerate(types):
            z = grid[ti] == 0
            edges = np.diff(np.concatenate(([0], z.view(np.int8), [0])))
            starts = np.flatnonzero(edges == 1)
            ends = np.flatnonzero(edges == -1)  # exclusive
            for a, b in zip(starts, ends):
                out["event_type"].append(t)
                out["start_day"].append(day_s(int(days[a])))
                out["end_day"].append(day_s(int(days[b - 1])))
                out["run_len"].append(int(b - a))
    # pa.Table, not Dataset: a gap-free corpus legitimately yields ZERO
    # rows and an empty Ray Dataset drops its schema (the texts_intersect
    # hazard); an empty Arrow table keeps it
    return pa.Table.from_pydict(
        {
            "event_type": pa.array(out["event_type"], pa.string()),
            "start_day": pa.array(out["start_day"], pa.string()),
            "end_day": pa.array(out["end_day"], pa.string()),
            "run_len": pa.array(out["run_len"], pa.int64()),
        }
    )


def first_touch_attribution(
    ds: rd.Dataset,
    target_type: str = "purchase",
    max_channels: int = 100_000,
) -> pa.Table:
    """First-touch attribution: credit each user's conversions to the
    event type of their FIRST-ever event ((ts, event_id) total order)
    and report per channel the user count, converted-user count and
    conversion rate — the "which entry point brings buyers" table
    (last-touch is :func:`asof` territory; first-touch is the
    acquisition view).

    Exactness: the first event is selected by an exact total order
    (min (ts, event_id) — event_id breaks timestamp ties, mirroring
    the SQL row_number() ORDER BY ts, event_id), conversion counts are
    exact integers, rate is one division at 6dp.

    Scale shape: per-batch per-user combiner rows (first-candidate
    tuple + target count) + one user-bucketed merge; per-channel
    integer cells reach the driver under a loud guard. Raw events
    never shuffle."""
    from . import bucketed_group_apply, round_half_away
    from .dedup import shuffle_blocks

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": batch.column("user_id").to_numpy(
                    zero_copy_only=False
                ),
                "ts": batch.column("ts").cast(pa.int64()).to_numpy(),
                "event_id": batch.column("event_id").to_numpy(
                    zero_copy_only=False
                ),
                "event_type": batch.column("event_type").to_pylist(),
            }
        )
        df["npurch"] = (df["event_type"] == target_type).astype(np.int64)
        first = (
            df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
            .groupby("user_id", as_index=False)
            .agg(
                ts=("ts", "first"),
                event_id=("event_id", "first"),
                channel=("event_type", "first"),
                npurch=("npurch", "sum"),
            )
        )
        return pa.Table.from_pandas(first, preserve_index=False)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
            .groupby("user_id", as_index=False)
            .agg(
                ts=("ts", "first"),
                event_id=("event_id", "first"),
                channel=("channel", "first"),
                npurch=("npurch", "sum"),
            )
        )

    users = bucketed_group_apply(
        ds.select_columns(["user_id", "event_id", "event_type", "ts"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(shuffle_blocks()),
        "user_id",
        merge,
    )

    def per_channel(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "channel": batch.column("channel").to_pylist(),
                "conv": (
                    batch.column("npurch").to_numpy() > 0
                ).astype(np.int64),
            }
        )
        agg = df.groupby("channel", as_index=False).agg(
            n_users=("conv", "size"), n_converted=("conv", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    rows = users.map_batches(per_channel, batch_format="pyarrow").take(
        max_channels + 1
    )
    if len(rows) > max_channels:
        raise ValueError(
            f"first_touch_attribution: > {max_channels} channel partials"
        )
    agg = (
        pd.DataFrame(rows)
        .groupby("channel", as_index=False)
        .agg(n_users=("n_users", "sum"), n_converted=("n_converted", "sum"))
        .sort_values("channel", kind="mergesort")
    )
    rate = [
        round_half_away(float(c) / float(n), 6)
        for c, n in zip(agg["n_converted"], agg["n_users"])
    ]
    return pa.Table.from_pydict(
        {
            "channel": pa.array(agg["channel"].tolist(), pa.string()),
            "n_users": pa.array(agg["n_users"].to_numpy(np.int64)),
            "n_converted": pa.array(
                agg["n_converted"].to_numpy(np.int64)
            ),
            "conv_rate": pa.array(rate, pa.float64()),
        }
    )


def value_drift_psi(
    ds: rd.Dataset, n_bins: int = 10, max_cells: int = 200_000
) -> pa.Table:
    """Temporal drift monitor: Population Stability Index of each event
    type's VALUE distribution, first half of the time range vs second
    half (split at the midpoint day) — "did the payment-amount
    distribution move between January and February?" without choosing
    a reference snapshot by hand. Laplace-smoothed like
    :func:`~ocr_platform_ray.functions.textstats.psi_by_source`:
    psi = Σ_b (p_b − q_b)·ln(p_b/q_b), p_b = (n1_b+1)/(n1+B).

    Exactness: global min/max (bin range) and the midpoint day are
    exact reductions; the bin index mirrors the SQL float chain
    ((v − mn)/(mx − mn)·B, floor, clip) on identical input doubles;
    counts are exact integers and the PSI is B mirrored double terms
    per type at 6dp.

    Scale shape: two streamed passes (a 4-number global reduce, then
    (type, half, bin) integer count partials under a loud guard) —
    events never shuffle."""
    from . import round_half_away

    DAY_US = 86_400_000_000

    def extremes(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        day = batch.column("ts").cast(pa.int64()).to_numpy() // DAY_US
        return pa.Table.from_pydict(
            {
                "mn": [float(v.min())], "mx": [float(v.max())],
                "dmin": [int(day.min())], "dmax": [int(day.max())],
            }
        )

    parts = ds.select_columns(["value", "ts"]).map_batches(
        extremes, batch_format="pyarrow"
    ).take_all()
    if not parts:
        return pa.Table.from_pydict(
            {
                "event_type": pa.array([], pa.string()),
                "n_first": pa.array([], pa.int64()),
                "n_second": pa.array([], pa.int64()),
                "psi": pa.array([], pa.float64()),
            }
        )
    mn = min(r["mn"] for r in parts)
    mx = max(r["mx"] for r in parts)
    dmin = min(r["dmin"] for r in parts)
    dmax = max(r["dmax"] for r in parts)
    mid = (dmin + dmax + 1) // 2

    def binned(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        day = batch.column("ts").cast(pa.int64()).to_numpy() // DAY_US
        if mx == mn:
            b = np.zeros(len(v), np.int64)
        else:
            b = np.minimum(
                np.floor((v - mn) / (mx - mn) * n_bins).astype(np.int64),
                n_bins - 1,
            )
        df = pd.DataFrame(
            {
                "event_type": batch.column("event_type").to_pylist(),
                "half": (day >= mid).astype(np.int64),
                "b": b,
            }
        )
        agg = df.groupby(["event_type", "half", "b"], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    rows = ds.select_columns(["event_type", "value", "ts"]).map_batches(
        binned, batch_format="pyarrow"
    ).take(max_cells + 1)
    if len(rows) > max_cells:
        raise ValueError(f"value_drift_psi: > {max_cells} partials")
    c = (
        pd.DataFrame(rows)
        .groupby(["event_type", "half", "b"], as_index=False)
        .agg(n=("size", "sum"))
    )
    out = {"event_type": [], "n_first": [], "n_second": [], "psi": []}
    bf = float(n_bins)
    for t, sub in c.groupby("event_type", sort=True):
        n1b = np.zeros(n_bins, np.int64)
        n2b = np.zeros(n_bins, np.int64)
        for _, r in sub.iterrows():
            (n1b if r["half"] == 0 else n2b)[int(r["b"])] += int(r["n"])
        m1, m2 = int(n1b.sum()), int(n2b.sum())
        p = (n1b.astype(np.float64) + 1.0) / (float(m1) + bf)
        q = (n2b.astype(np.float64) + 1.0) / (float(m2) + bf)
        psi = float(((p - q) * np.log(p / q)).sum())
        out["event_type"].append(t)
        out["n_first"].append(m1)
        out["n_second"].append(m2)
        out["psi"].append(round_half_away(psi, 6))
    return pa.Table.from_pydict(
        {
            "event_type": pa.array(out["event_type"], pa.string()),
            "n_first": pa.array(out["n_first"], pa.int64()),
            "n_second": pa.array(out["n_second"], pa.int64()),
            "psi": pa.array(out["psi"], pa.float64()),
        }
    )


def funnel_within(
    ds: rd.Dataset,
    stages: tuple = ("view", "click", "purchase"),
    window_us: int = 86_400_000_000,
) -> pa.Table:
    """Time-boxed funnel: like :func:`funnel_counts` but each hop must
    land STRICTLY AFTER the previous stage's timestamp AND within
    ``window_us`` of it — the product question as actually asked
    ("clicked within 24 h of the first view"), because an unlimited
    funnel credits conversions months later.

    Semantics (deterministic, SQL-expressible): t1 = min stage-1 ts;
    t2 = min stage-2 ts in (t1, t1 + W]; t3 = min stage-3 ts in
    (t2, t2 + W]. Exact int64 microseconds throughout; the output is
    three integers plus two mirrored single-division rates.

    Scale shape: identical to funnel_counts — stage-filtered read,
    user-bucketed vectorized merge+min hops, three-int partials."""
    import pyarrow.compute as pc

    from . import bucketed_group_apply, round_half_away

    s1, s2, s3 = stages

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch.column("event_type"),
                                     value_set=pa.array([s1, s2, s3])))

    slim = ds.select_columns(["user_id", "ts", "event_type"]).map_batches(
        keep, batch_format="pyarrow"
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["ts"] = g["ts"].astype("int64")
        t1 = (
            g[g["event_type"] == s1]
            .groupby("user_id", as_index=False)
            .agg(t1=("ts", "min"))
        )
        m2 = g[g["event_type"] == s2].merge(t1, on="user_id", how="inner")
        t2 = (
            m2[(m2["ts"] > m2["t1"]) & (m2["ts"] <= m2["t1"] + window_us)]
            .groupby("user_id", as_index=False)
            .agg(t2=("ts", "min"))
        )
        m3 = g[g["event_type"] == s3].merge(t2, on="user_id", how="inner")
        t3 = (
            m3[(m3["ts"] > m3["t2"]) & (m3["ts"] <= m3["t2"] + window_us)]
            .groupby("user_id", as_index=False)
            .agg(t3=("ts", "min"))
        )
        return pd.DataFrame(
            {"n_stage1": [len(t1)], "n_stage2": [len(t2)],
             "n_stage3": [len(t3)]}
        )

    parts = bucketed_group_apply(slim, "user_id", per_bucket).take_all()
    n1 = sum(r["n_stage1"] for r in parts)
    n2 = sum(r["n_stage2"] for r in parts)
    n3 = sum(r["n_stage3"] for r in parts)
    return pa.Table.from_pydict(
        {
            "n_stage1": pa.array([n1], pa.int64()),
            "n_stage2": pa.array([n2], pa.int64()),
            "n_stage3": pa.array([n3], pa.int64()),
            "rate12": pa.array(
                [None if n1 == 0 else
                 round_half_away(float(n2) / float(n1), 6)],
                pa.float64(),
            ),
            "rate23": pa.array(
                [None if n2 == 0 else
                 round_half_away(float(n3) / float(n2), 6)],
                pa.float64(),
            ),
        }
    )


def scd2_intervals(ds: rd.Dataset) -> rd.Dataset:
    """SCD Type-2 history build: collapse each user's event stream into
    validity intervals of CONSECUTIVE equal event_type runs —
    (user_id, event_type, valid_from_us, valid_to_us, n_events), where
    valid_to is the next run's start (-1 while current) — the
    warehouse dimension-history pattern (Kimball SCD2) that
    :func:`compact_latest` truncates to latest-only.

    Exactness: run boundaries come from the exact (ts, event_id) total
    order (the SQL row_number contract); all outputs are int64
    microseconds / counts — no floats.

    Scale shape: this op inherently needs each user's full ordered
    history in one place, so event rows DO co-locate via ONE
    user-bucketed shuffle (the sessions contract: one user's history
    fits a worker; hot synthetic users would need salting + a two-level
    merge); runs are then a vectorized lag/cumsum scan per bucket."""
    from . import bucketed_group_apply

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort"
        ).copy()
        g["ts"] = g["ts"].astype("int64")
        new_user = g["user_id"] != g["user_id"].shift()
        new_type = g["event_type"] != g["event_type"].shift()
        brk = (new_user | new_type).to_numpy()
        run = np.cumsum(brk)
        g["run"] = run
        r = g.groupby(["user_id", "run"], as_index=False).agg(
            event_type=("event_type", "first"),
            valid_from_us=("ts", "min"),
            n_events=("ts", "size"),
        )
        nxt = r.groupby("user_id")["valid_from_us"].shift(-1)
        # -1 while current: a plain int64 column, no nullable dtype
        r["valid_to_us"] = nxt.fillna(-1).astype(np.int64)
        return r[
            ["user_id", "event_type", "valid_from_us", "valid_to_us",
             "n_events"]
        ]

    return bucketed_group_apply(
        ds.select_columns(["user_id", "event_id", "event_type", "ts"]),
        "user_id",
        per_bucket,
    )


def twap_per_user(ds: rd.Dataset) -> rd.Dataset:
    """Time-weighted average value (TWAP) per user: each observation
    weighted by how long it was "current" (until the user's next
    event) — the finance/metering aggregate where a plain mean
    over-counts bursts (10 rapid-fire readings of 99 should not drown
    one day-long reading of 1).

    Semantics (deterministic): order by (ts, event_id); weight_i =
    us_{i+1} − us_i; the LAST observation has no duration and is
    dropped (SQL: lead() IS NULL). Users with a single event emit no
    row. twap = Σ v_i·w_i / Σ w_i — weights are exact int64
    microseconds, the weighted sum is one float chain at 6dp.

    Scale shape: the sessions contract — ONE user-bucketed shuffle,
    vectorized lead/diff scan per bucket, one output row per user."""
    from . import bucketed_group_apply, round_half_away_np

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort"
        ).copy()
        g["us"] = g["ts"].astype("int64")
        nxt = g.groupby("user_id")["us"].shift(-1)
        w = (nxt - g["us"]).to_numpy()
        keep = ~np.isnan(w)
        sub = pd.DataFrame(
            {
                "user_id": g["user_id"].to_numpy()[keep],
                "wv": g["value"].to_numpy()[keep] * w[keep],
                "w": w[keep],
            }
        )
        agg = sub.groupby("user_id", as_index=False).agg(
            n=("w", "size"), sw=("w", "sum"), swv=("wv", "sum")
        )
        sw = agg["sw"].to_numpy()
        with np.errstate(invalid="ignore", divide="ignore"):
            tw = round_half_away_np(agg["swv"].to_numpy() / sw, 6)
        # all observations at one instant: total weight 0, TWAP
        # undefined (SQL CASE -> NULL)
        agg["twap"] = np.where(sw > 0, tw, np.nan)
        return agg[["user_id", "n", "twap"]]

    return bucketed_group_apply(
        ds.select_columns(["user_id", "event_id", "ts", "value"]),
        "user_id",
        per_bucket,
    )


def active_days_histogram(
    ds: rd.Dataset, max_cells: int = 1_000_000
) -> pa.Table:
    """Engagement depth histogram: distinct active DAYS per user,
    histogrammed as (active_days, n_users) — the one-chart answer to
    "are we a daily habit or a monthly drop-in?" (the shape, not the
    mean, is the product signal: bimodal = two user populations).

    Exactness: all integers (distinct (user, day) membership). Scale
    shape: per-batch distinct pre-aggregation, one user-bucketed
    merge emitting per-bucket histogram partials, tiny driver merge —
    raw events never shuffle."""
    from . import bucketed_group_apply
    from .dedup import shuffle_blocks

    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": batch.column("user_id").to_numpy(
                    zero_copy_only=False
                ),
                "day": batch.column("ts").cast(pa.int64()).to_numpy()
                // DAY_US,
            }
        ).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        days = (
            g.drop_duplicates(["user_id", "day"])
            .groupby("user_id", as_index=False)
            .agg(active_days=("day", "size"))
        )
        hist = days.groupby("active_days", as_index=False).size()
        return hist.rename(columns={"size": "n_users"})

    rows = bucketed_group_apply(
        ds.select_columns(["user_id", "ts"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(shuffle_blocks()),
        "user_id",
        per_bucket,
    ).take(max_cells + 1)
    if len(rows) > max_cells:
        raise ValueError(
            f"active_days_histogram: > {max_cells} histogram partials"
        )
    h = (
        pd.DataFrame(rows)
        .groupby("active_days", as_index=False)["n_users"]
        .sum()
        .sort_values("active_days", kind="mergesort")
    )
    return pa.Table.from_pydict(
        {
            "active_days": pa.array(h["active_days"].to_numpy(np.int64)),
            "n_users": pa.array(h["n_users"].to_numpy(np.int64)),
        }
    )


def gumbel_daily(ds: rd.Dataset, horizon: int = 30,
                 max_cells: int = 200_000) -> rd.Dataset:
    """Gumbel extreme-value fit per event type over the gap-filled
    daily count series (method of moments: beta = s·sqrt(6)/pi,
    mu = mean − gamma·beta) plus the ``horizon``-day RETURN LEVEL
    x_T = mu − beta·ln(−ln(1 − 1/T)) — the capacity-planning number
    ("the daily volume exceeded about once a month") that a mean+2sd
    rule understates for heavy upper tails.

    Exactness: Σx and Σx² are exact integers; both engines evaluate
    ONE mirrored chain with IDENTICAL constant doubles (sqrt(6.0),
    pi() == np.pi, and the Euler-Mascheroni literal
    0.5772156649015329 written out on both sides), 6dp. m < 2 yields
    NULLs."""
    from . import round_half_away

    cells = _daily_cells(ds, max_cells, "gumbel_daily")
    out = {"event_type": [], "n_days": [], "mu": [], "beta": [],
           "ret_level": []}
    if len(cells):
        types = sorted(cells["event_type"].unique())
        days = np.arange(cells["day_id"].min(), cells["day_id"].max() + 1)
        grid = (
            cells.set_index(["event_type", "day_id"])["n"]
            .reindex(
                pd.MultiIndex.from_product(
                    [types, days], names=["event_type", "day_id"]
                ),
                fill_value=0,
            )
            .to_numpy(np.int64)
            .reshape(len(types), len(days))
        )
        m = len(days)
        gam = 0.5772156649015329
        for ti, t in enumerate(types):
            x = grid[ti]
            s = int(x.sum())
            q = int((x * x).sum())
            out["event_type"].append(t)
            out["n_days"].append(m)
            if m < 2:
                out["mu"].append(None)
                out["beta"].append(None)
                out["ret_level"].append(None)
                continue
            mf = float(m)
            mean = float(s) / mf
            var = (float(q) - float(s) * float(s) / mf) / (mf - 1.0)
            sd = float(np.sqrt(max(var, 0.0)))
            beta = sd * float(np.sqrt(6.0)) / float(np.pi)
            mu = mean - gam * beta
            ret = mu - beta * float(
                np.log(-np.log(1.0 - 1.0 / float(horizon)))
            )
            out["mu"].append(round_half_away(mu, 6))
            out["beta"].append(round_half_away(beta, 6))
            out["ret_level"].append(round_half_away(ret, 6))
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "event_type": pa.array(out["event_type"], pa.string()),
                "n_days": pa.array(out["n_days"], pa.int64()),
                "mu": pa.array(out["mu"], pa.float64()),
                "beta": pa.array(out["beta"], pa.float64()),
                "ret_level": pa.array(out["ret_level"], pa.float64()),
            }
        )
    )


def dispersion_daily(
    ds: rd.Dataset, max_cells: int = 200_000
) -> rd.Dataset:
    """Poisson overdispersion audit per event type: variance-to-mean
    ratio (VMR) of the gap-filled daily counts and the chi-square
    index of dispersion D = (m−1)·s²/mean — a steady Poisson stream
    has VMR ≈ 1; VMR >> 1 means bursty arrivals (campaigns, retries,
    crawler storms) and every Poisson-assuming alert threshold is
    mis-calibrated.

    Exactness: integer Σx/Σx², one mirrored float chain, 6dp; a
    zero-mean (silent) type yields NULLs on both engines."""
    from . import round_half_away

    cells = _daily_cells(ds, max_cells, "dispersion_daily")
    out = {"event_type": [], "n_days": [], "mean_n": [], "vmr": [],
           "dispersion": []}
    if len(cells):
        types = sorted(cells["event_type"].unique())
        days = np.arange(cells["day_id"].min(), cells["day_id"].max() + 1)
        grid = (
            cells.set_index(["event_type", "day_id"])["n"]
            .reindex(
                pd.MultiIndex.from_product(
                    [types, days], names=["event_type", "day_id"]
                ),
                fill_value=0,
            )
            .to_numpy(np.int64)
            .reshape(len(types), len(days))
        )
        m = len(days)
        for ti, t in enumerate(types):
            x = grid[ti]
            s = int(x.sum())
            q = int((x * x).sum())
            out["event_type"].append(t)
            out["n_days"].append(m)
            if m < 2 or s == 0:
                out["mean_n"].append(None)
                out["vmr"].append(None)
                out["dispersion"].append(None)
                continue
            mf = float(m)
            mean = float(s) / mf
            var = (float(q) - float(s) * float(s) / mf) / (mf - 1.0)
            out["mean_n"].append(round_half_away(mean, 6))
            out["vmr"].append(round_half_away(var / mean, 6))
            out["dispersion"].append(
                round_half_away((mf - 1.0) * var / mean, 6)
            )
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "event_type": pa.array(out["event_type"], pa.string()),
                "n_days": pa.array(out["n_days"], pa.int64()),
                "mean_n": pa.array(out["mean_n"], pa.float64()),
                "vmr": pa.array(out["vmr"], pa.float64()),
                "dispersion": pa.array(out["dispersion"], pa.float64()),
            }
        )
    )


def runs_test_daily(
    ds: rd.Dataset, max_cells: int = 200_000
) -> rd.Dataset:
    """Wald-Wolfowitz runs test per event type: is the daily series'
    above/below-median pattern RANDOM, or does it trend/oscillate?
    Too few runs = regime persistence (the series sits above the
    median for long stretches — drift); too many = alternation
    (day-parity artifacts). The distribution-free randomness check
    that complements Mann-Kendall (which only sees monotone trend).

    Contract: the median is the DuckDB quantile_cont weighted form
    over the filled grid (integer counts, so the cut is exact at .0 or
    .5 — a float compare with no rounding hazard); days EQUAL to the
    median are EXCLUDED (the standard convention); R, n1, n2 are
    integers and z = (R − muR)/sigmaR is one mirrored chain, NULL when
    n1·n2 = 0."""
    from . import round_half_away

    cells = _daily_cells(ds, max_cells, "runs_test_daily")
    out = {"event_type": [], "n_above": [], "n_below": [], "n_runs": [],
           "z": []}
    if len(cells):
        types = sorted(cells["event_type"].unique())
        days = np.arange(cells["day_id"].min(), cells["day_id"].max() + 1)
        grid = (
            cells.set_index(["event_type", "day_id"])["n"]
            .reindex(
                pd.MultiIndex.from_product(
                    [types, days], names=["event_type", "day_id"]
                ),
                fill_value=0,
            )
            .to_numpy(np.int64)
            .reshape(len(types), len(days))
        )
        m = len(days)
        for ti, t in enumerate(types):
            x = grid[ti]
            w = np.sort(x).astype(np.float64)
            pos = (m - 1) * 0.5
            i0 = int(np.floor(pos))
            frac = pos - i0
            i1 = min(i0 + 1, m - 1)
            med = w[i0] * (1.0 - frac) + w[i1] * frac
            xf = x.astype(np.float64)
            sign = xf[xf != med] > med
            n1 = int(sign.sum())
            n2 = int(len(sign) - n1)
            runs = int(1 + (sign[1:] != sign[:-1]).sum()) if len(sign) else 0
            out["event_type"].append(t)
            out["n_above"].append(n1)
            out["n_below"].append(n2)
            out["n_runs"].append(runs)
            if n1 == 0 or n2 == 0:
                out["z"].append(None)
                continue
            n1f, n2f = float(n1), float(n2)
            nf = n1f + n2f
            mu = 2.0 * n1f * n2f / nf + 1.0
            var = (
                2.0 * n1f * n2f * (2.0 * n1f * n2f - nf)
                / (nf * nf * (nf - 1.0))
            )
            if var <= 0.0:
                out["z"].append(None)
            else:
                out["z"].append(
                    round_half_away(
                        (float(runs) - mu) / float(np.sqrt(var)), 6
                    )
                )
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "event_type": pa.array(out["event_type"], pa.string()),
                "n_above": pa.array(out["n_above"], pa.int64()),
                "n_below": pa.array(out["n_below"], pa.int64()),
                "n_runs": pa.array(out["n_runs"], pa.int64()),
                "z": pa.array(out["z"], pa.float64()),
            }
        )
    )


def p_chart_daily(
    ds: rd.Dataset,
    flag_type: str = "error",
    max_cells: int = 200_000,
) -> rd.Dataset:
    """p-chart (attribute control chart) for the daily ``flag_type``
    RATE: per observed day, p_t = flagged/total vs the process center
    p̄ = Σflagged/Σtotal with per-day 3-sigma limits
    p̄ ± 3·sqrt(p̄(1−p̄)/n_t) — the correct daily-error-rate monitor
    when daily volume varies (a fixed threshold fires on quiet days
    and sleeps through busy ones; the p-chart's limits widen exactly
    when n_t is small). Limits clip to [0, 1] on both engines.

    Exactness: (day, flagged, total) are exact integers from one
    streamed combiner pass; center and limits are mirrored float
    chains, breach compares the UNROUNDED limits; 6dp output."""
    from . import round_half_away_np

    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        day = batch.column("ts").cast(pa.int64()).to_numpy() // DAY_US
        et = batch.column("event_type").to_pylist()
        df = pd.DataFrame(
            {
                "day": day,
                "tot": np.ones(len(day), np.int64),
                "err": np.array(
                    [1 if t == flag_type else 0 for t in et], np.int64
                ),
            }
        )
        agg = df.groupby("day", as_index=False).agg(
            tot=("tot", "sum"), err=("err", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    rows = ds.select_columns(["event_type", "ts"]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_cells + 1)
    if len(rows) > max_cells:
        raise ValueError(f"p_chart_daily: > {max_cells} day partials")
    empty = {
        "day": pa.array([], pa.string()),
        "n": pa.array([], pa.int64()),
        "n_flag": pa.array([], pa.int64()),
        "p": pa.array([], pa.float64()),
        "ucl": pa.array([], pa.float64()),
        "lcl": pa.array([], pa.float64()),
        "breach": pa.array([], pa.int64()),
    }
    if not rows:
        return rd.from_arrow(pa.Table.from_pydict(empty))
    h = (
        pd.DataFrame(rows)
        .groupby("day", as_index=False)
        .agg(tot=("tot", "sum"), err=("err", "sum"))
        .sort_values("day", kind="mergesort")
    )
    tot = h["tot"].to_numpy(np.int64)
    err = h["err"].to_numpy(np.int64)
    pbar = float(int(err.sum())) / float(int(tot.sum()))
    nf = tot.astype(np.float64)
    p = err.astype(np.float64) / nf
    half = 3.0 * np.sqrt(pbar * (1.0 - pbar) / nf)
    ucl = np.minimum(pbar + half, 1.0)
    lcl = np.maximum(pbar - half, 0.0)
    breach = ((p > ucl) | (p < lcl)).astype(np.int64)
    day_str = (h["day"].to_numpy(np.int64) * DAY_US).astype(
        "datetime64[us]"
    ).astype("datetime64[D]").astype(str)
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "day": pa.array(day_str, pa.string()),
                "n": pa.array(tot),
                "n_flag": pa.array(err),
                "p": pa.array(round_half_away_np(p, 6), pa.float64()),
                "ucl": pa.array(
                    round_half_away_np(ucl, 6), pa.float64()
                ),
                "lcl": pa.array(
                    round_half_away_np(lcl, 6), pa.float64()
                ),
                "breach": pa.array(breach, pa.int64()),
            }
        )
    )


def interarrival_fit(ds: rd.Dataset, max_cells: int = 200_000) -> rd.Dataset:
    """Arrival-process fit per event type: mean inter-arrival seconds,
    the coefficient of variation of the gaps, and the implied hourly
    rate — a Poisson process has CV ≈ 1 (the dispersion_daily audit
    seen from the gap side; CV >> 1 = bursty, CV << 1 = metronomic).

    Gaps are between CONSECUTIVE events of a type in (ts, event_id)
    order, floored to whole seconds ((t₂−t₁) // 1e6 of the µs stamps —
    integer division on BOTH engines, so every moment stays an exact
    integer). Distributed shape: events co-locate per (type, day)
    bucket — never one Ray group per type, and sub-day binning is the
    documented escape if one type-day exceeds a worker — where one
    vectorized sorted-diff pass emits (n, Σd, Σd²) partials plus the
    bucket's first/last stamp; the driver merges the bounded
    (type, day) partial table and stitches the cross-day boundary gaps
    from the first/last columns (consecutive NONEMPTY days chain, so
    silent days cost nothing). Emits one row per type: n_gaps,
    mean_gap_s, cv_gap (NULL when n<2 or mean=0), per_hour
    (3600/mean, NULL when mean=0), 6dp."""
    from . import bucketed_group_apply, round_half_away

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized shift-mask (the event_gaps idiom): gaps between
        # same-(type,day) neighbors in the sorted frame, then ONE
        # grouped aggregation — no Python loop over groups
        g = g.sort_values(["event_type", "day_id", "ts"], kind="mergesort")
        et = g["event_type"].to_numpy()
        day = g["day_id"].to_numpy(np.int64)
        t = g["ts"].astype("int64").to_numpy()
        first = np.empty(len(g), dtype=bool)
        first[0] = True
        first[1:] = (et[1:] != et[:-1]) | (day[1:] != day[:-1])
        d = np.diff(t, prepend=t[0]) // 1_000_000
        d[first] = 0
        frame = pd.DataFrame(
            {
                "event_type": et,
                "day_id": day,
                "t": t,
                "pair": (~first).astype(np.int64),
                "d": d,
                "dd": d * d,
            }
        )
        agg = frame.groupby(["event_type", "day_id"], as_index=False).agg(
            n_ev=("t", "size"), first_t=("t", "first"), last_t=("t", "last"),
            np_=("pair", "sum"), s=("d", "sum"), q=("dd", "sum"),
        )
        return agg

    with_day = ds.select_columns(["event_type", "ts"]).map_batches(
        lambda b: b.append_column(
            "day_id",
            pa.array(b.column("ts").cast(pa.int64()).to_numpy() // DAY_US),
        ),
        batch_format="pyarrow",
    )
    rows = bucketed_group_apply(
        with_day, ["event_type", "day_id"], per_bucket,
        batch_format="pandas",
    ).take(max_cells + 1)
    if len(rows) > max_cells:
        raise ValueError(
            "interarrival_fit: > max_cells (type, day) partials — raise "
            "max_cells deliberately"
        )
    by_type: dict = {}
    for r in rows:
        by_type.setdefault(r["event_type"], []).append(r)
    out = {"event_type": [], "n_gaps": [], "mean_gap_s": [], "cv_gap": [],
           "per_hour": []}
    import math

    for et in sorted(by_type):
        parts = sorted(by_type[et], key=lambda r: r["day_id"])
        n = sum(int(r["np_"]) for r in parts)
        s = sum(int(r["s"]) for r in parts)
        q = sum(int(r["q"]) for r in parts)
        for prev, cur in zip(parts, parts[1:]):
            d = (int(cur["first_t"]) - int(prev["last_t"])) // 1_000_000
            n += 1
            s += d
            q += d * d
        if n == 0:
            continue  # single-event type: no gap row on either engine
        out["event_type"].append(et)
        out["n_gaps"].append(n)
        mean = float(s) / float(n)
        out["mean_gap_s"].append(round_half_away(mean, 6))
        if n < 2 or s == 0:
            out["cv_gap"].append(None)
        else:
            var = (float(q) - float(s) * float(s) / float(n)) / float(n - 1)
            cv = 0.0 if var <= 0.0 else math.sqrt(var) / mean
            out["cv_gap"].append(round_half_away(cv, 6))
        out["per_hour"].append(
            None if s == 0 else round_half_away(3600.0 / mean, 6)
        )
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "event_type": pa.array(out["event_type"], pa.string()),
                "n_gaps": pa.array(out["n_gaps"], pa.int64()),
                "mean_gap_s": pa.array(out["mean_gap_s"], pa.float64()),
                "cv_gap": pa.array(out["cv_gap"], pa.float64()),
                "per_hour": pa.array(out["per_hour"], pa.float64()),
            }
        )
    )


def event_trigrams(ds: rd.Dataset, k: int = 20) -> rd.Dataset:
    """Top-k behavior sequences: the most frequent CONSECUTIVE
    event-type trigrams across all user journeys in (ts, event_id)
    order — the sequence-mining staple (what do users actually do in
    threes) behind funnel design; the 3-step generalization of
    event_transitions.

    Users hash-bucket (one vectorized double-shift per bucket — never a
    Ray group per user); each bucket emits its own trigram COUNTS
    (≤ |types|³ rows), so the shuffle carries counts, not events, and
    the driver merges a tiny table. Deterministic top-k: (n DESC,
    e1, e2, e3)."""
    from . import bucketed_group_apply

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        n = len(g)
        if n < 3:
            return pd.DataFrame(
                {"e1": [], "e2": [], "e3": [], "n": []}
            ).astype({"e1": str, "e2": str, "e3": str, "n": np.int64})
        same2 = uid[2:] == uid[:-2]  # rows i-2, i-1, i share the user
        tri = pd.DataFrame(
            {"e1": et[:-2][same2], "e2": et[1:-1][same2], "e3": et[2:][same2]}
        )
        agg = tri.groupby(["e1", "e2", "e3"], as_index=False).size()
        return agg.rename(columns={"size": "n"})

    parts = bucketed_group_apply(
        ds.select_columns(["event_id", "user_id", "ts", "event_type"]),
        "user_id",
        per_bucket,
        batch_format="pandas",
    ).to_pandas()
    if not len(parts):
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "e1": pa.array([], pa.string()),
                    "e2": pa.array([], pa.string()),
                    "e3": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        )
    agg = parts.groupby(["e1", "e2", "e3"], as_index=False).agg(
        n=("n", "sum")
    )
    agg = agg.sort_values(
        ["n", "e1", "e2", "e3"], ascending=[False, True, True, True],
        kind="mergesort",
    ).head(k)
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "e1": pa.array(agg["e1"], pa.string()),
                "e2": pa.array(agg["e2"], pa.string()),
                "e3": pa.array(agg["e3"], pa.string()),
                "n": pa.array(agg["n"].astype("int64"), pa.int64()),
            }
        )
    )


def gap_quantiles(
    ds: rd.Dataset, qs: tuple = (0.25, 0.5, 0.75), max_cells: int = 500_000
) -> rd.Dataset:
    """Robust quartiles of the inter-arrival gap (whole seconds, the
    interarrival_fit definition) per event type — the outlier-immune
    complement of the mean/CV fit: p50 is the typical cadence even when
    one outage gap dominates the mean.

    Same distributed shape as interarrival_fit ((type, day) buckets,
    driver-stitched boundaries) but each bucket emits its gap VALUE
    HISTOGRAM (distinct seconds → counts, bounded: gaps repeat heavily
    at second resolution) alongside the boundary first/last row; the
    driver merges histograms and interpolates with DuckDB
    quantile_cont's weighted form lo·(1−frac) + hi·frac on the exact
    cumulative counts."""
    from . import bucketed_group_apply, round_half_away

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # fully vectorized (the event_gaps shift-mask idiom — a Python
        # loop over gaps here measured 60+ s at sf0.1)
        g = g.sort_values(["event_type", "day_id", "ts"], kind="mergesort")
        et = g["event_type"].to_numpy()
        day = g["day_id"].to_numpy(np.int64)
        t = g["ts"].astype("int64").to_numpy()
        first = np.empty(len(g), dtype=bool)
        first[0] = True
        first[1:] = (et[1:] != et[:-1]) | (day[1:] != day[:-1])
        d = np.diff(t, prepend=t[0]) // 1_000_000
        hh = (
            pd.DataFrame(
                {
                    "event_type": et[~first],
                    "day_id": day[~first],
                    "a": d[~first],
                }
            )
            .groupby(["event_type", "day_id", "a"], as_index=False)
            .size()
            .rename(columns={"size": "b"})
        )
        hh["kind"] = 0
        gb = (
            pd.DataFrame({"event_type": et, "day_id": day, "t": t})
            .groupby(["event_type", "day_id"], as_index=False)
            .agg(a=("t", "first"), b=("t", "last"))
        )
        gb["kind"] = 1
        cols = ["event_type", "day_id", "kind", "a", "b"]
        return pd.concat([hh[cols], gb[cols]], ignore_index=True)

    with_day = ds.select_columns(["event_type", "ts"]).map_batches(
        lambda b: b.append_column(
            "day_id",
            pa.array(b.column("ts").cast(pa.int64()).to_numpy() // DAY_US),
        ),
        batch_format="pyarrow",
    )
    df = (
        bucketed_group_apply(
            with_day, ["event_type", "day_id"], per_bucket,
            batch_format="pandas",
        )
        .limit(max_cells + 1)
        .to_pandas()
    )
    if len(df) > max_cells:
        raise ValueError(
            "gap_quantiles: > max_cells histogram partials — raise "
            "max_cells deliberately or bin the gaps"
        )
    hist: dict = {}
    hd = df[df["kind"] == 0]
    for et, sub in hd.groupby("event_type"):
        agg = sub.groupby("a")["b"].sum()
        hist[et] = dict(zip(agg.index.astype(int), agg.to_numpy()))
    bd = df[df["kind"] == 1].sort_values(["event_type", "day_id"])
    prev_last = bd.groupby("event_type")["b"].shift(1)
    ok = prev_last.notna().to_numpy()
    bdd = (
        (bd["a"].to_numpy(np.int64)[ok] -
         prev_last.to_numpy()[ok].astype(np.int64)) // 1_000_000
    )
    for et, dv in zip(bd["event_type"].to_numpy()[ok], bdd):
        hist.setdefault(et, {})
        hist[et][int(dv)] = hist[et].get(int(dv), 0) + 1
    out = {"event_type": [], "n_gaps": []}
    qnames = [f"p{int(round(q * 100))}" for q in qs]
    for qn in qnames:
        out[qn] = []
    for et in sorted(hist):
        h = hist[et]
        if not h:
            continue
        vals = np.array(sorted(h), dtype=np.int64)
        cnts = np.array([h[v] for v in vals], dtype=np.int64)
        cum = np.cumsum(cnts)
        n = int(cum[-1])
        if n == 0:
            continue
        out["event_type"].append(et)
        out["n_gaps"].append(n)
        for qn, q in zip(qnames, qs):
            pos = (n - 1) * float(q)
            lo = int(np.floor(pos))
            frac = pos - lo
            a = float(vals[np.searchsorted(cum, lo + 1)])
            b = float(vals[np.searchsorted(cum, min(lo + 2, n))])
            out[qn].append(
                round_half_away(a * (1.0 - frac) + b * frac, 6)
            )
    cols = {
        "event_type": pa.array(out["event_type"], pa.string()),
        "n_gaps": pa.array(out["n_gaps"], pa.int64()),
    }
    for qn in qnames:
        cols[qn] = pa.array(out[qn], pa.float64())
    return rd.from_arrow(pa.Table.from_pydict(cols))


# a per-user type bitmask is an int64: bits 0..62, so at most 63 types
MAX_MASK_TYPES = 63


def _type_bits(types: list) -> dict:
    """Sorted distinct event types -> {type: 1 << rank}. Raises ValueError
    past MAX_MASK_TYPES types instead of overflowing the int64 mask."""
    if len(types) > MAX_MASK_TYPES:
        raise ValueError(
            f"{len(types)} distinct event types: the per-user bitmask "
            f"holds at most {MAX_MASK_TYPES} (int64)"
        )
    return {t: 1 << i for i, t in enumerate(types)}


def user_segment_profile(ds: rd.Dataset) -> rd.Dataset:
    """Audience segment algebra: every user collapses to a BITMASK of
    the event types they ever performed (bit = rank of the type in the
    sorted distinct-type list), and the output is the user count per
    mask — the full inclusion–exclusion overlap profile ("did X and Y
    but never Z") in one table of ≤ 2^k rows, instead of one
    INTERSECT/EXCEPT query per combination.

    Shape: per-batch distinct (user, type) partials shrink the shuffle
    to at most one row per pair per batch; users hash-bucket; inside a
    bucket one vectorized pivot ORs the powers per user and counts per
    mask, so the driver merges ≤ 2^k · n_buckets partial counts. The
    type→bit map is collected once (distinct types are tiny) and
    shipped in the task closure."""
    from . import bucketed_group_apply

    pairs = ds.select_columns(["user_id", "event_type"])

    def distinct_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    # materialize ONCE: dp is consumed by unique() AND the bucketed
    # pass below, and each consumption would otherwise re-run the
    # corpus scan; the distinct partials are ≤ users × types rows
    dp = pairs.map_batches(
        distinct_partial, batch_format="pyarrow"
    ).materialize()
    types = sorted(dp.unique("event_type"))
    bit = _type_bits(types)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "event_type"])
        g = g.assign(p=g["event_type"].map(bit).astype(np.int64))
        masks = g.groupby("user_id", sort=False)["p"].sum()  # distinct -> OR
        cnt = masks.value_counts().rename_axis("mask").reset_index(name="n")
        return cnt

    parts = bucketed_group_apply(dp, "user_id", per_bucket).to_pandas()
    agg = parts.groupby("mask", as_index=False).agg(n_users=("n", "sum"))
    agg = agg.sort_values("mask", kind="mergesort")
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "mask": pa.array(agg["mask"].astype("int64"), pa.int64()),
                "n_users": pa.array(agg["n_users"].astype("int64"), pa.int64()),
            }
        )
    )


def hour_entropy(ds: rd.Dataset, max_cells: int = 200_000) -> rd.Dataset:
    """Hour-of-day concentration per event type: Shannon entropy (nats)
    of the 24-bin hour histogram plus the active-hour count — a
    uniformly-spread type scores ln 24 ≈ 3.178, a cron job scores ~0;
    the scalar companion of the hour × dow heatmap for alerting on
    schedule drift.

    One streamed (type, hour) count combiner (hour =
    (epoch_µs // 3600e6) % 24, matching extract(hour) for naive
    timestamps), bounded driver merge; the entropy sum's terms are all
    non-negative so summation order stays ulp-safe at 6dp."""
    import math

    from . import round_half_away

    HOUR_US = 3_600_000_000

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.column("ts").cast(pa.int64()).to_numpy()
        df = pd.DataFrame(
            {
                "event_type": batch.column("event_type").to_pylist(),
                "h": (t // HOUR_US) % 24,
            }
        )
        agg = df.groupby(["event_type", "h"], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    rows = ds.select_columns(["event_type", "ts"]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_cells + 1)
    if len(rows) > max_cells:
        raise ValueError(
            "hour_entropy: > max_cells (type, hour) partials — raise "
            "max_cells deliberately"
        )
    acc: dict = {}
    for r in rows:
        key = (r["event_type"], int(r["h"]))
        acc[key] = acc.get(key, 0) + int(r["size"])
    by_type: dict = {}
    for (et, h), n in acc.items():
        by_type.setdefault(et, {})[h] = n
    out = {"event_type": [], "n_events": [], "hour_entropy_nats": [],
           "n_active_hours": []}
    for et in sorted(by_type):
        hist = by_type[et]
        tot = sum(hist.values())
        ent = 0.0
        for h in sorted(hist):
            p = float(hist[h]) / float(tot)
            ent += -p * math.log(p)
        out["event_type"].append(et)
        out["n_events"].append(tot)
        out["hour_entropy_nats"].append(round_half_away(ent, 6))
        out["n_active_hours"].append(len(hist))
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "event_type": pa.array(out["event_type"], pa.string()),
                "n_events": pa.array(out["n_events"], pa.int64()),
                "hour_entropy_nats": pa.array(
                    out["hour_entropy_nats"], pa.float64()
                ),
                "n_active_hours": pa.array(
                    out["n_active_hours"], pa.int64()
                ),
            }
        )
    )


def type_user_overlap(ds: rd.Dataset) -> rd.Dataset:
    """Pairwise audience overlap between event types: |users doing
    both| / |users doing either| (Jaccard) for every type pair with a
    non-empty intersection — which behaviors share an audience and
    which are disjoint funnels.

    Derived from the SAME distinct (user, type) → per-user bitmask
    reduction as :func:`user_segment_profile` (one bucketed shuffle of
    distinct pairs); the pairwise counts then come from the ≤ 2^k mask
    histogram driver-side — n_both = Σ counts with both bits set — so
    no user-level self-join ever runs."""
    from . import bucketed_group_apply, round_half_away

    pairs = ds.select_columns(["user_id", "event_type"])

    def distinct_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    dp = pairs.map_batches(
        distinct_partial, batch_format="pyarrow"
    ).materialize()
    types = sorted(dp.unique("event_type"))
    bit = _type_bits(types)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "event_type"])
        g = g.assign(p=g["event_type"].map(bit).astype(np.int64))
        masks = g.groupby("user_id", sort=False)["p"].sum()
        return masks.value_counts().rename_axis("mask").reset_index(
            name="n"
        )

    parts = bucketed_group_apply(dp, "user_id", per_bucket).to_pandas()
    agg = parts.groupby("mask")["n"].sum()
    mask_n = dict(zip(agg.index.astype(int), agg.to_numpy()))
    out = {"t1": [], "t2": [], "n_both": [], "n_either": [],
           "jaccard": []}
    for i, t1 in enumerate(types):
        for t2 in types[i + 1:]:
            b1, b2 = bit[t1], bit[t2]
            n_both = sum(
                n for m, n in mask_n.items() if (m & b1) and (m & b2)
            )
            if n_both == 0:
                continue  # mirror the SQL inner-join contract
            n_either = sum(
                n for m, n in mask_n.items() if (m & b1) or (m & b2)
            )
            out["t1"].append(t1)
            out["t2"].append(t2)
            out["n_both"].append(int(n_both))
            out["n_either"].append(int(n_either))
            out["jaccard"].append(
                round_half_away(float(n_both) / float(n_either), 6)
            )
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "t1": pa.array(out["t1"], pa.string()),
                "t2": pa.array(out["t2"], pa.string()),
                "n_both": pa.array(out["n_both"], pa.int64()),
                "n_either": pa.array(out["n_either"], pa.int64()),
                "jaccard": pa.array(out["jaccard"], pa.float64()),
            }
        )
    )


def conversion_lag_quantiles(
    ds: rd.Dataset,
    from_type: str = "signup",
    to_type: str = "purchase",
    max_cells: int = 500_000,
) -> rd.Dataset:
    """Exact day-lag quartiles from a user's FIRST ``from_type`` event
    to their FIRST ``to_type`` event at or after it — the uncensored
    complement of the Kaplan–Meier conversion curve (this is the
    answer to "for users who DID convert, how long did it take").

    Users hash-bucket (both firsts of one user co-locate); each bucket
    emits a day-lag COUNT histogram, merged driver-side under the loud
    guard, and the quartiles mirror quantile_cont's weighted
    interpolation. Lag days = (Δepoch_µs) // 86 400e6, exact integer
    floor on both engines; users whose first target precedes their
    first source (or who lack either) are excluded."""
    import numpy as np

    from . import bucketed_group_apply, round_half_away

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        t = g["ts"].astype("int64")
        src = (
            g[g["event_type"] == from_type]
            .assign(t=t)
            .groupby("user_id")["t"]
            .min()
        )
        dst = (
            g[g["event_type"] == to_type]
            .assign(t=t)
            .groupby("user_id")["t"]
            .min()
        )
        both = pd.concat([src.rename("s"), dst.rename("d")], axis=1).dropna()
        lag = (both["d"].astype(np.int64)
               - both["s"].astype(np.int64)) // DAY_US
        lag = lag[lag >= 0]
        agg = lag.value_counts().rename_axis("lag").reset_index(name="n")
        return agg

    df = (
        bucketed_group_apply(
            ds.select_columns(["user_id", "event_type", "ts"]),
            "user_id",
            per_bucket,
        )
        .limit(max_cells + 1)
        .to_pandas()
    )
    if len(df) > max_cells:
        raise ValueError(
            "conversion_lag_quantiles: > max_cells lag partials — raise "
            "max_cells deliberately"
        )
    out = {"n_converted": [], "p25_days": [], "p50_days": [],
           "p75_days": []}
    if len(df):
        agg = df.groupby("lag")["n"].sum().sort_index()
        vals = agg.index.to_numpy(np.int64)
        cnts = agg.to_numpy(np.int64)
        cum = np.cumsum(cnts)
        n = int(cum[-1])
        out["n_converted"].append(n)
        for col, q in (("p25_days", 0.25), ("p50_days", 0.5),
                       ("p75_days", 0.75)):
            pos = (n - 1) * q
            lo = int(np.floor(pos))
            frac = pos - lo
            a = float(vals[np.searchsorted(cum, lo + 1)])
            b = float(vals[np.searchsorted(cum, min(lo + 2, n))])
            out[col].append(round_half_away(a * (1.0 - frac) + b * frac, 6))
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "n_converted": pa.array(out["n_converted"], pa.int64()),
                "p25_days": pa.array(out["p25_days"], pa.float64()),
                "p50_days": pa.array(out["p50_days"], pa.float64()),
                "p75_days": pa.array(out["p75_days"], pa.float64()),
            }
        )
    )
