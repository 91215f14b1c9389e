"""Relational patterns: partial-aggregated groupby and broadcast map-side
join + top-k, over the TPC-H-ish driver tables. These demonstrate the two
shuffle-minimizing idioms every wide stage in this repo uses:
pre-aggregate inside map_batches, broadcast the small side via ray.put."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from . import (
    bucketed_group_apply,
    resolve_broadcast,
    round_half_away,
    round_half_away_np,
)


def pricing_summary(lineitem: rd.Dataset, cutoff: str = "1998-09-02") -> rd.Dataset:
    """TPC-H Q1-shaped: filter by ship date, per-(returnflag, linestatus)
    sums/counts. Vectorized per-batch partials -> tiny groupby."""
    cutoff_ts = pa.scalar(cutoff).cast(pa.timestamp("us"))

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.less_equal(batch.column("l_shipdate"), cutoff_ts))
        if batch.num_rows == 0:
            return pa.Table.from_pydict(
                {
                    "l_returnflag": pa.array([], pa.string()),
                    "l_linestatus": pa.array([], pa.string()),
                    "sum_qty": pa.array([], pa.float64()),
                    "sum_base_price": pa.array([], pa.float64()),
                    "sum_disc_price": pa.array([], pa.float64()),
                    "n_rows": pa.array([], pa.int64()),
                }
            )
        disc_price = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        )
        df = pd.DataFrame(
            {
                "l_returnflag": batch.column("l_returnflag").to_pylist(),
                "l_linestatus": batch.column("l_linestatus").to_pylist(),
                "qty": batch.column("l_quantity").to_numpy(zero_copy_only=False),
                "price": batch.column("l_extendedprice").to_numpy(zero_copy_only=False),
                "disc_price": disc_price.to_numpy(zero_copy_only=False),
            }
        )
        agg = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("qty", "sum"),
            sum_base_price=("price", "sum"),
            sum_disc_price=("disc_price", "sum"),
            n_rows=("qty", "size"),
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    partials = lineitem.map_batches(partial, batch_format="pyarrow")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_returnflag": [g["l_returnflag"].iloc[0]],
                "l_linestatus": [g["l_linestatus"].iloc[0]],
                "sum_qty": [round_half_away(float(g["sum_qty"].sum()), 2)],
                # whole currency units: at ~1e9 magnitudes the pandas-vs-
                # DuckDB summation-order error (~0.03) exceeds cents rounding
                "sum_base_price": [round_half_away(float(g["sum_base_price"].sum()), 0)],
                "sum_disc_price": [round_half_away(float(g["sum_disc_price"].sum()), 0)],
                "n_rows": [int(g["n_rows"].sum())],
            }
        )

    return partials.groupby(["l_returnflag", "l_linestatus"]).map_groups(
        final, batch_format="pandas"
    )


def top_customers(
    orders: rd.Dataset, customer_path: str, k: int = 10
) -> rd.Dataset:
    """Top-k customers by total order value: the customer dimension is
    broadcast once via ray.put (map-side join — J1's cross-table
    generalization, SURVEY §2.4); orders aggregate per batch first."""
    import pyarrow.parquet as pq

    import ray

    cust = pq.read_table(customer_path, columns=["c_custkey", "c_name"])
    lookup_ref = ray.put(
        dict(zip(cust.column("c_custkey").to_pylist(), cust.column("c_name").to_pylist()))
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "o_custkey": batch.column("o_custkey").to_numpy(),
                "total": batch.column("o_totalprice").to_numpy(),
            }
        )
        agg = df.groupby("o_custkey", as_index=False).agg(
            total_spent=("total", "sum"), n_orders=("total", "size")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    partials = orders.map_batches(partial, batch_format="pyarrow")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        # full sort first: float accumulation order is data-determined
        g = g.sort_values(
            ["o_custkey", "total_spent", "n_orders"], kind="mergesort"
        )
        agg = g.groupby("o_custkey", as_index=False).agg(
            total_spent=("total_spent", "sum"), n_orders=("n_orders", "sum")
        )
        lk = resolve_broadcast(lookup_ref)
        agg["c_name"] = agg["o_custkey"].map(lk).fillna("")
        agg["total_spent"] = round_half_away_np(agg["total_spent"].to_numpy(), 2)
        agg["n_orders"] = agg["n_orders"].astype("int64")
        agg = agg.rename(columns={"o_custkey": "c_custkey"})
        return agg.sort_values(
            ["total_spent", "c_custkey"], ascending=[False, True],
            kind="mergesort",
        ).head(k)[["c_custkey", "c_name", "total_spent", "n_orders"]]

    # custkeys hash-bucket: one vectorized merge + name-resolve per bucket
    # (one Ray group per customer would pay a DataFrame per key); each
    # bucket pre-trims to its own top-k before the global sort
    per_cust = bucketed_group_apply(partials, "o_custkey", final, n_buckets=256)
    # tie-break matches the oracle's ORDER BY total_spent DESC, c_custkey
    return per_cust.sort(
        ["total_spent", "c_custkey"], descending=[True, False]
    ).limit(k)


def revenue_by_customer(
    lineitem: rd.Dataset,
    orders: rd.Dataset,
    customer_path: str,
    k: int = 20,
) -> rd.Dataset:
    """Top-k customers by returned-item revenue (TPC-H Q10-shaped):
    lineitem(R) ⋈ orders ⋈ customer, grouped per customer.

    The three-table composition of this repo's join idioms: the big⋈big
    edge (lineitem ⋈ orders) goes through ONE native hash join, but only
    after lineitem is pre-aggregated per l_orderkey inside map_batches
    (~4 lineitems/order -> the shuffle moves one row per order, not one
    per lineitem); the result is pre-aggregated again per o_custkey
    before the final groupby; and the customer dimension (names for the
    k winners) is broadcast once via ray.put, never shuffled."""
    import pyarrow.parquet as pq

    import ray

    from .joins import bucketed_merge_join

    cust = pq.read_table(customer_path, columns=["c_custkey", "c_name"])
    lookup_ref = ray.put(
        dict(
            zip(cust.column("c_custkey").to_pylist(), cust.column("c_name").to_pylist())
        )
    )

    def per_order(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        )
        df = pd.DataFrame(
            {
                "l_orderkey": batch.column("l_orderkey").to_numpy(),
                "rev": rev.to_numpy(zero_copy_only=False),
            }
        )
        agg = df.groupby("l_orderkey", as_index=False).agg(rev=("rev", "sum"))
        return pa.Table.from_pandas(agg, preserve_index=False)

    per_order_rev = lineitem.map_batches(per_order, batch_format="pyarrow")
    joined = bucketed_merge_join(
        per_order_rev,
        orders.select_columns(["o_orderkey", "o_custkey"]),
        on="l_orderkey",
        right_on="o_orderkey",
    )

    def per_cust(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "o_custkey": batch.column("o_custkey").to_numpy(),
                "rev": batch.column("rev").to_numpy(),
            }
        )
        agg = df.groupby("o_custkey", as_index=False).agg(rev=("rev", "sum"))
        return pa.Table.from_pandas(agg, preserve_index=False)

    partials = joined.map_batches(per_cust, batch_format="pyarrow")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "rev"], kind="mergesort")
        agg = g.groupby("o_custkey", as_index=False).agg(rev=("rev", "sum"))
        lk = resolve_broadcast(lookup_ref)
        agg["c_name"] = agg["o_custkey"].map(lk).fillna("")
        agg["revenue"] = round_half_away_np(agg["rev"].to_numpy(), 0)
        agg = agg.rename(columns={"o_custkey": "c_custkey"})
        return agg.sort_values(
            ["revenue", "c_custkey"], ascending=[False, True], kind="mergesort"
        ).head(k)[["c_custkey", "c_name", "revenue"]]

    # custkeys hash-bucket (vectorized merge per bucket, per-bucket top-k)
    per_customer = bucketed_group_apply(
        partials, "o_custkey", final, n_buckets=256
    )
    # tie-break matches the oracle's ORDER BY revenue DESC, c_custkey
    return per_customer.sort(
        ["revenue", "c_custkey"], descending=[True, False]
    ).limit(k)


def grouped_topk(
    ds: rd.Dataset,
    key_col: str,
    val_col: str,
    k: int,
    id_col: str,
) -> rd.Dataset:
    """Per-key top-k — the `QUALIFY row_number() OVER (PARTITION BY key
    ORDER BY val DESC, id) <= k` shape, without a global sort.

    Map side: each batch keeps only its own top-k rows PER KEY (vectorized
    polars sort + group head), so the shuffle carries at most
    k x |keys-in-batch| rows per batch regardless of input size. Reduce
    side: keys hash-bucket into 256 buckets (``bucketed_group_apply``)
    and one vectorized final top-k runs per bucket. Tie order is the
    oracle's: val DESC, id ASC."""
    import polars as pl

    from . import bucketed_group_apply

    def topk(d: pl.DataFrame) -> pl.DataFrame:
        return (
            d.sort([val_col, id_col], descending=[True, False])
            .group_by(key_col, maintain_order=True)
            .head(k)
        )

    def partial(batch: pa.Table) -> pa.Table:
        return topk(pl.from_arrow(batch)).to_arrow()

    partials = ds.select_columns([key_col, id_col, val_col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def final(g: pa.Table) -> pa.Table:
        return topk(pl.from_arrow(g)).select(key_col, id_col, val_col).to_arrow()

    return bucketed_group_apply(
        partials, key_col, final, n_buckets=256, batch_format="pyarrow"
    )


def zscore_by_group(
    ds: rd.Dataset,
    group_col: str,
    value_col: str,
    out_col: str = "z",
    max_groups: int = 100_000,
) -> rd.Dataset:
    """Per-group z-score normalization: ``(x - mean_g) / std_g`` rounded
    6dp — the cross-group score-calibration step before thresholding a
    quality signal across languages/sources (each group's distribution
    differs, so a single global cutoff over- or under-prunes some
    groups). Degenerate groups (std == 0, e.g. a single row) get z = 0.

    Scale shape (the :func:`~ocr_platform_ray.functions.similarity.
    centroid_distances` idiom): (1) per-batch (n, sum, sum-of-squares)
    partials merge to per-group moments — three float64s per group,
    collected once under the loud ``max_groups`` guard and broadcast via
    ``ray.put``; (2) one vectorized map_batches with a searchsorted
    gather computes z per row. No row-level shuffle; the population-std
    formula sqrt(ss/n - (s/n)^2) is what the DuckDB oracle computes too,
    so only float summation order differs between engines (absorbed by
    the 6dp round)."""
    import numpy as np
    import ray

    from . import resolve_broadcast, round_half_away_np

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": batch.column(group_col).to_pandas(),
                "x": batch.column(value_col).to_numpy(zero_copy_only=False)
                .astype(np.float64),
            }
        )
        agg = df.groupby("g", sort=False)["x"].agg(["count", "sum"])
        agg["ss"] = df.assign(x2=df["x"] ** 2).groupby("g", sort=False)[
            "x2"
        ].sum()
        return pa.Table.from_pydict(
            {
                group_col: pa.array(agg.index),
                "n": pa.array(agg["count"].to_numpy().astype(np.int64)),
                "s": pa.array(agg["sum"].to_numpy()),
                "ss": pa.array(agg["ss"].to_numpy()),
            }
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                group_col: [g[group_col].iloc[0]],
                "n": [int(g["n"].sum())],
                "s": [float(g["s"].sum())],
                "ss": [float(g["ss"].sum())],
            }
        )

    rows = (
        ds.select_columns([group_col, value_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(group_col)
        .map_groups(merge, batch_format="pandas")
        .take(max_groups + 1)
    )
    if len(rows) > max_groups:
        raise ValueError(
            f"zscore_by_group: > {max_groups} groups — the moments table "
            "no longer fits the broadcast contract; raise max_groups "
            "deliberately"
        )
    keys = np.array(sorted(r[group_col] for r in rows))
    stats = {r[group_col]: r for r in rows}
    mean = np.array([stats[k]["s"] / stats[k]["n"] for k in keys])
    var = np.maximum(
        np.array(
            [
                stats[k]["ss"] / stats[k]["n"]
                - (stats[k]["s"] / stats[k]["n"]) ** 2
                for k in keys
            ]
        ),
        0.0,
    )
    std = np.sqrt(var)
    ref = ray.put((keys, mean, std))

    def score(batch: pa.Table) -> pa.Table:
        k, m, sd = resolve_broadcast(ref)
        # unify dtypes so searchsorted compares vectorized (string group
        # keys come back as object arrays from Arrow)
        g = batch.column(group_col).to_numpy(zero_copy_only=False).astype(
            k.dtype
        )
        x = batch.column(value_col).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        pos = np.searchsorted(k, g)
        z = np.where(sd[pos] > 0, (x - m[pos]) / np.where(sd[pos] > 0,
                                                          sd[pos], 1.0), 0.0)
        return batch.append_column(
            out_col, pa.array(round_half_away_np(z, 6), pa.float64())
        )

    return ds.map_batches(score, batch_format="pyarrow")


def supplier_volume_by_nation(
    lineitem: rd.Dataset,
    orders: rd.Dataset,
    sf_dir: str,
    region: str = "ASIA",
    date_lo: str = "1995-01-01",
    date_hi: str = "1996-01-01",
) -> rd.Dataset:
    """TPC-H Q5-shaped six-table join: revenue per nation from lineitems
    whose supplier AND ordering customer sit in the same nation of one
    region, over one order-date year.

    The multi-way-join composition of this repo's idioms: region, nation,
    supplier and customer are DIMENSIONS — broadcast once via ``ray.put``
    as sorted int arrays (searchsorted gather per batch; customer is the
    largest at ~150k keys/sf1 — two int arrays, still broadcast-sized; at
    true warehouse scale swap the customer edge to
    ``joins.bucketed_merge_join``).
    Both fact tables pre-reduce BEFORE the single big⋈big shuffle:
    orders filter to the date year and region nations, lineitem gathers
    its supplier nation, filters to region nations, and pre-aggregates
    revenue per (l_orderkey, nation) inside map_batches. The lone
    bucketed join then moves one row per surviving order per side, the
    equality filter c_nat == s_nat runs per joined batch, and per-batch
    partials reduce to ≤ |nations| rows before the final tiny groupby
    (deterministic key-sorted accumulation, half-away rounding to whole
    currency units — the revenue_by_customer float contract)."""
    import numpy as np
    import pyarrow.parquet as pq

    import ray

    from .joins import bucketed_merge_join

    nat = pq.read_table(f"{sf_dir}/nation.parquet")
    reg = pq.read_table(f"{sf_dir}/region.parquet")
    rkey = {
        r["r_regionkey"]: r["r_name"] for r in reg.to_pylist()
    }
    region_nations = sorted(
        r["n_nationkey"] for r in nat.to_pylist()
        if rkey[r["n_regionkey"]] == region
    )
    nation_names = {r["n_nationkey"]: r["n_name"] for r in nat.to_pylist()}

    sup = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )

    def sorted_pair(t: pa.Table, k: str, v: str):
        keys = t.column(k).to_numpy()
        vals = t.column(v).to_numpy().astype(np.int32)
        order = np.argsort(keys, kind="mergesort")
        return keys[order], vals[order]

    sup_ref = ray.put(sorted_pair(sup, "s_suppkey", "s_nationkey"))
    cust_ref = ray.put(sorted_pair(cust, "c_custkey", "c_nationkey"))
    nat_set = np.array(region_nations, dtype=np.int32)

    lo = pa.scalar(date_lo).cast(pa.timestamp("us"))
    hi = pa.scalar(date_hi).cast(pa.timestamp("us"))

    def order_side(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(batch.column("o_orderdate"), lo),
            pc.less(batch.column("o_orderdate"), hi),
        )
        batch = batch.filter(m)
        keys, vals = resolve_broadcast(cust_ref)
        ck = batch.column("o_custkey").to_numpy()
        c_nat = vals[np.searchsorted(keys, ck)]
        ok = np.isin(c_nat, nat_set)
        return pa.Table.from_pydict(
            {
                "o_orderkey": pa.array(
                    batch.column("o_orderkey").to_numpy()[ok], pa.int64()
                ),
                "c_nat": pa.array(c_nat[ok], pa.int32()),
            }
        )

    def line_side(batch: pa.Table) -> pa.Table:
        keys, vals = resolve_broadcast(sup_ref)
        sk = batch.column("l_suppkey").to_numpy()
        s_nat = vals[np.searchsorted(keys, sk)]
        ok = np.isin(s_nat, nat_set)
        rev = (
            batch.column("l_extendedprice").to_numpy()
            * (1.0 - batch.column("l_discount").to_numpy())
        )[ok]
        df = pd.DataFrame(
            {
                "l_orderkey": batch.column("l_orderkey").to_numpy()[ok],
                "s_nat": s_nat[ok],
                "rev": rev,
            }
        )
        agg = df.groupby(["l_orderkey", "s_nat"], as_index=False).agg(
            rev=("rev", "sum")
        )
        agg["s_nat"] = agg["s_nat"].astype(np.int32)
        return pa.Table.from_pandas(agg, preserve_index=False)

    o_slim = orders.select_columns(
        ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(order_side, batch_format="pyarrow")
    l_slim = lineitem.select_columns(
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(line_side, batch_format="pyarrow")

    joined = bucketed_merge_join(
        l_slim, o_slim, on="l_orderkey", right_on="o_orderkey"
    )

    def partial(batch: pa.Table) -> pa.Table:
        same = pc.equal(batch.column("s_nat"), batch.column("c_nat"))
        batch = batch.filter(same)
        df = pd.DataFrame(
            {
                "nationkey": batch.column("s_nat").to_numpy(),
                "rev": batch.column("rev").to_numpy(),
            }
        )
        agg = df.groupby("nationkey", as_index=False).agg(rev=("rev", "sum"))
        agg["nationkey"] = agg["nationkey"].astype(np.int32)
        return pa.Table.from_pandas(agg, preserve_index=False)

    partials = joined.map_batches(partial, batch_format="pyarrow")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["nationkey", "rev"], kind="mergesort")
        agg = g.groupby("nationkey", as_index=False).agg(rev=("rev", "sum"))
        return pd.DataFrame(
            {
                "n_name": agg["nationkey"].map(nation_names),
                "revenue": round_half_away_np(agg["rev"].to_numpy(), 0),
            }
        )

    return (
        bucketed_group_apply(partials, "nationkey", final, n_buckets=64)
        .sort(["revenue", "n_name"], descending=[True, False])
    )


def corr_by_group(
    ds: rd.Dataset,
    group_col: str,
    x_col: str,
    y_col: str,
    max_groups: int = 100_000,
) -> rd.Dataset:
    """Per-group Pearson correlation of two numeric columns — the
    feature-vs-feature diagnostic (does quantity predict price? does doc
    length predict quality score?) computed with MERGEABLE CENTERED
    co-moments, never a per-row shuffle.

    Two streamed passes (the zscore_by_group trade): pass 1 collects
    per-group means under the loud ``max_groups`` guard and broadcasts
    them; pass 2 accumulates per-batch partials of the CENTERED sums
    (n, Σdx, Σdy, Σdx², Σdy², Σdxdy) — centering at the broadcast mean
    keeps every accumulator near zero, so no catastrophic cancellation —
    and the final per-group reduce applies the exact re-centering
    correction (Σdxdy − ΣdxΣdy/n), making the result algebraically
    identical to corr() no matter how closely the pass-1 mean matched.
    DuckDB's corr() computes the same sample correlation; the 6dp
    half-away round absorbs summation-order ulps."""
    import numpy as np
    import ray

    def mean_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": batch.column(group_col).to_pandas(),
                "x": batch.column(x_col).to_numpy(zero_copy_only=False)
                .astype(np.float64),
                "y": batch.column(y_col).to_numpy(zero_copy_only=False)
                .astype(np.float64),
            }
        )
        agg = df.groupby("g", as_index=False).agg(
            n=("x", "size"), sx=("x", "sum"), sy=("y", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    def mean_merge(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "g": [g["g"].iloc[0]],
                "n": [int(g["n"].sum())],
                "sx": [float(g["sx"].sum())],
                "sy": [float(g["sy"].sum())],
            }
        )

    cols = ds.select_columns([group_col, x_col, y_col])
    rows = (
        cols.map_batches(mean_partial, batch_format="pyarrow")
        .groupby("g")
        .map_groups(mean_merge, batch_format="pandas")
        .take(max_groups + 1)
    )
    if len(rows) > max_groups:
        raise ValueError(
            f"corr_by_group: > {max_groups} groups — raise max_groups "
            "deliberately or pre-filter"
        )
    keys = np.array(sorted(r["g"] for r in rows))
    by = {r["g"]: r for r in rows}
    mx = np.array([by[k]["sx"] / by[k]["n"] for k in keys])
    my = np.array([by[k]["sy"] / by[k]["n"] for k in keys])
    means_ref = ray.put((keys, mx, my))

    def co_partial(batch: pa.Table) -> pa.Table:
        k, cx, cy = resolve_broadcast(means_ref)
        g = batch.column(group_col).to_numpy(zero_copy_only=False).astype(
            k.dtype
        )
        x = batch.column(x_col).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        y = batch.column(y_col).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        pos = np.searchsorted(k, g)
        dx = x - cx[pos]
        dy = y - cy[pos]
        df = pd.DataFrame(
            {
                "g": g,
                "dx": dx,
                "dy": dy,
                "dxx": dx * dx,
                "dyy": dy * dy,
                "dxy": dx * dy,
            }
        )
        agg = df.groupby("g", as_index=False).agg(
            n=("dx", "size"), sdx=("dx", "sum"), sdy=("dy", "sum"),
            sxx=("dxx", "sum"), syy=("dyy", "sum"), sxy=("dxy", "sum"),
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    def co_merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["g", "sxy"], kind="mergesort")
        n = int(g["n"].sum())
        sdx, sdy = float(g["sdx"].sum()), float(g["sdy"].sum())
        sxx = float(g["sxx"].sum()) - sdx * sdx / n
        syy = float(g["syy"].sum()) - sdy * sdy / n
        sxy = float(g["sxy"].sum()) - sdx * sdy / n
        denom = np.sqrt(sxx * syy)
        # constant x or y -> undefined correlation (DuckDB corr() -> NULL)
        c = round_half_away(sxy / denom, 6) if denom > 0 else float("nan")
        return pd.DataFrame(
            {group_col: [g["g"].iloc[0]], "corr_xy": [c]}
        )

    return (
        cols.map_batches(co_partial, batch_format="pyarrow")
        .groupby("g")
        .map_groups(co_merge, batch_format="pandas")
    )


def shape_moments_by_group(
    ds: rd.Dataset,
    group_col: str,
    value_col: str,
    max_groups: int = 100_000,
) -> rd.Dataset:
    """Per-group sample skewness and excess kurtosis — the distribution-
    shape diagnostic (is this source's value distribution heavy-tailed?
    did a pipeline change skew a feature?) with the bias corrections
    DuckDB's ``skewness()`` / ``kurtosis()`` apply (Fisher g1/g2
    adjusted: n/((n-1)(n-2))·M3/s³ and the (n-2)(n-3)-corrected M4
    form).

    Same two-streamed-pass scheme as :func:`corr_by_group`: pass 1
    collects per-group means under the loud ``max_groups`` guard and
    broadcasts them; pass 2 accumulates CENTERED power sums per batch
    (n, Σd, Σd², Σd³, Σd⁴ with d = x − m̂) — centering keeps the 3rd/4th
    powers near zero so float64 carries them exactly where raw Σx⁴
    would lose digits — and the merge re-centers algebraically at the
    true mean (δ = Σd/n):  M2 = Σd² − nδ²,  M3 = Σd³ − 3δΣd² + 2nδ³,
    M4 = Σd⁴ − 4δΣd³ + 6δ²Σd² − 3nδ⁴. NULL contract matches DuckDB:
    skewness needs n ≥ 3, kurtosis n ≥ 4, both need nonzero variance."""
    import numpy as np
    import ray

    def mean_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": batch.column(group_col).to_pandas(),
                "x": batch.column(value_col).to_numpy(zero_copy_only=False)
                .astype(np.float64),
            }
        )
        agg = df.groupby("g", as_index=False).agg(
            n=("x", "size"), sx=("x", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    def mean_merge(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "g": [g["g"].iloc[0]],
                "n": [int(g["n"].sum())],
                "sx": [float(g["sx"].sum())],
            }
        )

    cols = ds.select_columns([group_col, value_col])
    rows = (
        cols.map_batches(mean_partial, batch_format="pyarrow")
        .groupby("g")
        .map_groups(mean_merge, batch_format="pandas")
        .take(max_groups + 1)
    )
    if len(rows) > max_groups:
        raise ValueError(
            f"shape_moments_by_group: > {max_groups} groups — raise "
            "max_groups deliberately or pre-filter"
        )
    keys = np.array(sorted(r["g"] for r in rows))
    by = {r["g"]: r for r in rows}
    means = np.array([by[k]["sx"] / by[k]["n"] for k in keys])
    means_ref = ray.put((keys, means))

    def moment_partial(batch: pa.Table) -> pa.Table:
        k, m = resolve_broadcast(means_ref)
        g = batch.column(group_col).to_numpy(zero_copy_only=False).astype(
            k.dtype
        )
        x = batch.column(value_col).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        d = x - m[np.searchsorted(k, g)]
        d2 = d * d
        df = pd.DataFrame(
            {"g": g, "d": d, "d2": d2, "d3": d2 * d, "d4": d2 * d2}
        )
        agg = df.groupby("g", as_index=False).agg(
            n=("d", "size"), sd=("d", "sum"), s2=("d2", "sum"),
            s3=("d3", "sum"), s4=("d4", "sum"),
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    def moment_merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["g", "s2"], kind="mergesort")
        n = int(g["n"].sum())
        sd = float(g["sd"].sum())
        s2, s3, s4 = (float(g[c].sum()) for c in ("s2", "s3", "s4"))
        delta = sd / n
        m2 = s2 - n * delta * delta
        m3 = s3 - 3.0 * delta * s2 + 2.0 * n * delta**3
        m4 = s4 - 4.0 * delta * s3 + 6.0 * delta * delta * s2 - 3.0 * n * delta**4
        var = m2 / (n - 1) if n > 1 else 0.0
        skew = (
            round_half_away(
                n / ((n - 1.0) * (n - 2.0)) * m3 / var**1.5, 6
            )
            if n >= 3 and var > 0
            else float("nan")
        )
        kurt = (
            round_half_away(
                n * (n + 1.0) / ((n - 1.0) * (n - 2.0) * (n - 3.0))
                * m4 / (var * var)
                - 3.0 * (n - 1.0) ** 2 / ((n - 2.0) * (n - 3.0)),
                6,
            )
            if n >= 4 and var > 0
            else float("nan")
        )
        return pd.DataFrame(
            {group_col: [g["g"].iloc[0]], "skew": [skew], "kurt": [kurt]}
        )

    return (
        cols.map_batches(moment_partial, batch_format="pyarrow")
        .groupby("g")
        .map_groups(moment_merge, batch_format="pandas")
    )


def ntile_by_group(
    ds: rd.Dataset,
    group_col: str,
    order_col: str,
    id_col: str,
    k: int = 4,
    max_cells: int = 1_000_000,
) -> rd.Dataset:
    """Exact SQL ``NTILE(k) OVER (PARTITION BY g ORDER BY v, id)`` —
    the rank-based equal-population bucketing (quartile labels for
    curriculum mixing, tier assignment) — WITHOUT a global sort.

    DuckDB's fill rule is matched exactly: with n rows and q = n//k,
    r = n%k, the first r tiles hold q+1 rows, the rest q (verified
    against ntile() directly; n < k degenerates to tile = rank+1).

    Distributed shape: pass 1 collects per-(g, v) counts — per-batch
    pre-aggregated, so the shuffle carries |groups x distinct v| rows
    per batch, and the merged table lands on the driver under the loud
    ``max_cells`` guard (the pivot/rollup bounded-driver-state trade:
    an integer order column has bounded cardinality; for an unbounded
    float measure, quantile-bucket it first). The driver derives each
    tie-group's exclusive prefix offset within its group and broadcasts
    one small frame via ray.put. Pass 2 is ONE coarse-bucketed pass
    over (g, v) tie-groups (``bucketed_group_apply``): rank within the
    tie by id (deterministic total order), add the broadcast offset,
    and apply the fill rule vectorized."""
    import numpy as np
    import ray

    def cnt(batch: pa.Table) -> pa.Table:
        import polars as pl

        return (
            pl.from_arrow(batch.select([group_col, order_col]))
            .group_by([group_col, order_col])
            .len()
            .rename({"len": "n"})
            .to_arrow()
        )

    cols = ds.select_columns([group_col, order_col, id_col])
    parts = (
        cols.map_batches(cnt, batch_format="pyarrow")
        .take(max_cells + 1)
    )
    if len(parts) > max_cells:
        raise ValueError(
            f"ntile_by_group: > {max_cells} (group, order-value) cells — "
            "quantile-bucket the order column first or raise max_cells"
        )
    cells = (
        pd.DataFrame(parts)
        .groupby([group_col, order_col], as_index=False)["n"]
        .sum()
        .sort_values([group_col, order_col], kind="mergesort")
    )
    grp = cells.groupby(group_col)["n"]
    cells["off"] = grp.cumsum() - cells["n"]
    n_by_g = grp.sum().to_dict()
    ref = ray.put((cells[[group_col, order_col, "off"]], n_by_g))

    def assign(bucket: pd.DataFrame) -> pd.DataFrame:
        off_df, totals = resolve_broadcast(ref)
        d = bucket.merge(off_df, on=[group_col, order_col], how="left")
        d = d.sort_values(
            [group_col, order_col, id_col], kind="mergesort"
        )
        pos = (
            d["off"].to_numpy(np.int64)
            + d.groupby([group_col, order_col]).cumcount().to_numpy()
        )
        n = d[group_col].map(totals).to_numpy(np.int64)
        q, r = n // k, n % k
        big = pos < r * (q + 1)
        tile = np.where(
            big,
            pos // np.maximum(q + 1, 1),
            r + (pos - r * (q + 1)) // np.maximum(q, 1),
        ) + 1
        return pd.DataFrame(
            {
                id_col: d[id_col].to_numpy(),
                group_col: d[group_col].to_numpy(),
                "tile": tile.astype(np.int64),
            }
        )

    return bucketed_group_apply(cols, [group_col, order_col], assign)


def rollup_orders(ds: rd.Dataset, max_leaves: int = 100_000) -> rd.Dataset:
    """GROUP BY ROLLUP(year, priority) over orders — the hierarchy-
    subtotal report (leaf rows + per-year subtotals + grand total) in ONE
    corpus pass: SQL computes each rollup level over the raw rows; here
    every level derives from the LEAF partials, which is algebraically
    identical for sums/counts (and float-safe at whole-unit rounding, the
    q_pricing contract).

    Scale shape: per-batch (year, priority, n, revenue) partials — the
    shuffle carries |years x priorities| rows per batch; the merged leaf
    table collects under a loud ``max_leaves`` guard (a true hierarchy is
    small by definition; a million-leaf rollup is a groupby, not a
    report) and the driver emits all three levels with deterministic
    key-sorted accumulation. Rolled-up columns use the 'ALL' sentinel
    (both engines COALESCE, sidestepping NULL-vs-NaN hashing drift)."""
    import numpy as np

    def partial(batch: pa.Table) -> pa.Table:
        yr = pc.year(batch.column("o_orderdate")).to_numpy(zero_copy_only=False)
        # EXACT integer cents: prices sit on the .01 grid, so float sums
        # routinely end in .50 and round differently per accumulation
        # order — a leaf-derived year subtotal flipped vs DuckDB's
        # raw-row sum at sf0.01 (caught by the two-scale sweep). Integer
        # sums are order-free; the oracle casts to cents the same way.
        cents = np.rint(
            batch.column("o_totalprice").to_numpy() * 100.0
        ).astype(np.int64)
        df = pd.DataFrame(
            {
                "year": yr.astype(np.int64),
                "priority": batch.column("o_orderpriority").to_pylist(),
                "cents": cents,
            }
        )
        agg = df.groupby(["year", "priority"], as_index=False).agg(
            n_orders=("cents", "size"), cents=("cents", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    leaves = (
        ds.select_columns(["o_orderdate", "o_orderpriority", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .take(max_leaves + 1)
    )
    if len(leaves) > max_leaves:
        raise ValueError(
            f"rollup_orders: > {max_leaves} leaf partials — this is a "
            "groupby-sized key space, not a rollup report; raise "
            "max_leaves deliberately"
        )
    df = pd.DataFrame(leaves)
    leaf = df.groupby(["year", "priority"], as_index=False).agg(
        n_orders=("n_orders", "sum"), cents=("cents", "sum")
    )
    yearly = leaf.groupby("year", as_index=False).agg(
        n_orders=("n_orders", "sum"), cents=("cents", "sum")
    )
    yearly["priority"] = "ALL"
    grand = pd.DataFrame(
        {
            "year": [-1],
            "priority": ["ALL"],
            "n_orders": [int(yearly["n_orders"].sum())],
            "cents": [int(yearly["cents"].sum())],
        }
    )
    out = pd.concat([leaf, yearly, grand], ignore_index=True)
    out["year"] = out["year"].map(lambda y: "ALL" if y == -1 else str(y))
    out["n_orders"] = out["n_orders"].astype(np.int64)
    out["revenue"] = round_half_away_np(
        out["cents"].to_numpy(dtype=np.float64) / 100.0, 0
    )
    out = out.drop(columns=["cents"])
    return rd.from_arrow(
        pa.Table.from_pandas(
            out[["year", "priority", "n_orders", "revenue"]],
            preserve_index=False,
        )
    )


def pivot_counts(
    ds: rd.Dataset,
    row_col: str,
    col_col: str,
    values: list[str],
    max_rows: int = 100_000,
) -> rd.Dataset:
    """SQL ``PIVOT ... IN (values)`` analogue: the wide crosstab of row
    counts — one output row per distinct ``row_col`` value, one int64
    column ``n_<v>`` per PINNED pivot value (SQL PIVOT requires the IN
    list too; rows whose ``col_col`` is outside ``values`` are ignored,
    matching ``sum(CASE WHEN col = v THEN 1 ELSE 0 END)``).

    Scale shape: per-batch (row, col) count partials — the shuffle
    carries at most ``|rows| x |values|`` tiny int rows per batch, never
    the corpus; the merged long table collects on the driver under a
    loud ``max_rows`` guard (a pivot report with a million row labels is
    a groupby, not a pivot) and the wide layout is a driver-side
    reshape of that tiny table. All-integer math, so the result is
    bit-exact vs any SQL engine."""
    import numpy as np

    vset = list(dict.fromkeys(values))

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().rename(columns={row_col: "r", col_col: "c"})
        df = df[df["c"].isin(vset)]
        agg = df.groupby(["r", "c"], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    long = (
        ds.select_columns([row_col, col_col])
        .map_batches(partial, batch_format="pyarrow")
        .take(max_rows + 1)
    )
    if len(long) > max_rows:
        raise ValueError(
            f"pivot_counts: > {max_rows} long partials — this key space "
            "is groupby-sized, not a pivot report; raise max_rows "
            "deliberately"
        )
    df = pd.DataFrame(long, columns=["r", "c", "size"])
    merged = df.groupby(["r", "c"])["size"].sum()
    wide = merged.unstack("c", fill_value=0)
    # every pinned value gets a column even when absent from the data,
    # exactly like the CASE-WHEN oracle
    for v in vset:
        if v not in wide.columns:
            wide[v] = 0
    wide = wide[vset].astype(np.int64)
    wide.columns = [f"n_{v}" for v in vset]
    out = wide.reset_index().rename(columns={"r": row_col}).sort_values(row_col)
    return rd.from_arrow(pa.Table.from_pandas(out, preserve_index=False))


def mode_by_group(
    ds: rd.Dataset,
    group_col: str,
    val_col: str,
    count_name: str = "n",
) -> rd.Dataset:
    """Per-group MODE with a deterministic tie-break: the most frequent
    ``val_col`` per ``group_col`` (ties -> smallest value), plus its
    count — the ``row_number() OVER (ORDER BY count DESC, val)``-equals-1
    shape every SQL engine reproduces exactly (all-integer counts).

    Scale shape: per-batch (group, value) count partials first — the
    shuffle carries one int row per distinct (group, value) per batch,
    never the raw rows — then the per-group argmax runs once per coarse
    bucket (`bucketed_group_apply`), not once per key."""
    import numpy as np

    from . import bucketed_group_apply

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        agg = df.groupby([group_col, val_col], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    def argmax(df: pd.DataFrame) -> pd.DataFrame:
        merged = df.groupby([group_col, val_col], as_index=False)["size"].sum()
        merged = merged.sort_values(
            [group_col, "size", val_col],
            ascending=[True, False, True],
            kind="mergesort",
        ).drop_duplicates(group_col, keep="first")
        merged[count_name] = merged.pop("size").astype(np.int64)
        return merged

    partials = ds.select_columns([group_col, val_col]).map_batches(
        partial, batch_format="pyarrow"
    )
    return bucketed_group_apply(partials, group_col, argmax)


def fk_orphan_audit(
    edges: list[tuple[str, rd.Dataset, str, rd.Dataset, str]],
) -> rd.Dataset:
    """Referential-integrity audit over integer FK -> PK edges: for each
    ``(name, fact, fk_col, dim, pk_col)`` edge report the number of
    DISTINCT FK values and how many of them have no PK match (orphans) —
    the data-quality gate a warehouse runs before trusting a join (the
    reference trusts Postgres FK constraints; a lake has to audit).

    Scale shape: ALL edges resolve in ONE key-bucketed shuffle — each
    side emits per-batch DISTINCT (edge, key, side) partials (side 0 =
    FK, 1 = PK; one int row per distinct key per batch), the tagged
    union co-locates by (edge, key) hash, and every bucket pre-counts
    its FK keys and side-0-only orphans; the <= n_buckets x |edges|
    count partials merge on the driver. The first cut (per-edge anti
    merge-joins + streaming counts) was 12 sequential shuffle stages and
    14.7 s at sf0.1/32; this single-pass form runs the same audit in one."""
    import numpy as np

    from . import bucketed_group_apply

    def tag(edge: int, side: int, col: str):
        def fn(batch: pa.Table) -> pa.Table:
            v = batch.column(col).to_numpy(zero_copy_only=False)
            if not np.issubdtype(v.dtype, np.integer):
                raise TypeError(
                    f"fk_orphan_audit: key column {col!r} must be integer"
                )
            u = np.unique(v).astype(np.int64)
            n = len(u)
            return pa.Table.from_pydict(
                {
                    "e": np.full(n, edge, np.int64),
                    "k": u,
                    "side": np.full(n, side, np.int64),
                }
            )

        return fn

    parts = []
    for ei, (name, fact, fk_col, dim, pk_col) in enumerate(edges):
        parts.append(
            fact.select_columns([fk_col]).map_batches(
                tag(ei, 0, fk_col), batch_format="pyarrow"
            )
        )
        parts.append(
            dim.select_columns([pk_col]).map_batches(
                tag(ei, 1, pk_col), batch_format="pyarrow"
            )
        )
    u = parts[0].union(*parts[1:])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for e, sub in df.groupby("e", sort=False):
            piv = sub.groupby("k")["side"].agg(["min", "max"])
            is_fk = piv["min"] == 0
            out.append(
                (int(e), int(is_fk.sum()),
                 int((is_fk & (piv["max"] == 0)).sum()))
            )
        return pd.DataFrame(out, columns=["e", "n_keys", "n_orphans"])

    from .dedup import shuffle_blocks

    # the union carries ~6 x 64 tiny blocks; compacting first keeps the
    # groupby's per-block fixed costs off the critical path (measured
    # 15 s -> ~2 s for the bucketed pass at sf0.1/32)
    partials = bucketed_group_apply(
        u.repartition(shuffle_blocks()), ["e", "k"], per_bucket
    )
    tiny = pd.DataFrame(
        partials.take_all(), columns=["e", "n_keys", "n_orphans"]
    )
    agg = tiny.groupby("e").sum()
    names = [e[0] for e in edges]
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "fk": pa.array(names, pa.string()),
                "n_keys": pa.array(
                    [int(agg.loc[i, "n_keys"]) if i in agg.index else 0
                     for i in range(len(edges))],
                    pa.int64(),
                ),
                "n_orphans": pa.array(
                    [int(agg.loc[i, "n_orphans"]) if i in agg.index else 0
                     for i in range(len(edges))],
                    pa.int64(),
                ),
            }
        )
    )


def shipping_priority(
    lineitem: rd.Dataset,
    orders: rd.Dataset,
    customer: rd.Dataset,
    segment: str = "BUILDING",
    cutoff: str = "1995-03-15",
    k: int = 10,
) -> rd.Dataset:
    """TPC-H Q3-shaped shipping-priority query: top-k orders by revenue
    (sum of l_extendedprice * (1 - l_discount) over post-cutoff
    lineitems) among orders placed before the cutoff by customers of one
    market segment. Revenue is EXACT: per-row half-away cent rounding to
    BIGINT, integer sums everywhere, one /100 at the end — the
    rollup_orders float contract.

    Scale shape: the segment's custkeys broadcast as one sorted int
    array (1/|segments| of customer — broadcast-sized far beyond sf1;
    swap to a bucketed_merge_join edge at true warehouse scale, same
    note as Q5); orders filter to (date, segment-member) and carry only
    3 columns; lineitem pre-aggregates cents per l_orderkey INSIDE
    map_batches before the one fact⋈fact bucketed hash join (tasks only;
    both sides' schemas are passed, so no side is executed early to
    learn them); per-order totals finalize in an orderkey-bucketed pass
    that emits only each block's local top-k, and the <= k x blocks
    candidates resolve with a k-row sort.limit."""
    import numpy as np

    import ray

    from . import bucketed_group_apply, resolve_broadcast
    from .joins import bucketed_merge_join

    seg_keys = np.sort(
        np.unique(
            np.concatenate(
                [
                    b.column("c_custkey")
                    .filter(pc.equal(b.column("c_mktsegment"), segment))
                    .to_numpy(zero_copy_only=False)
                    for b in customer.select_columns(
                        ["c_custkey", "c_mktsegment"]
                    ).iter_batches(batch_format="pyarrow")
                ]
                or [np.empty(0, np.int64)]
            )
        )
    ).astype(np.int64)
    seg_ref = ray.put(seg_keys)
    cut = pa.scalar(cutoff).cast(pa.timestamp("us"))
    # each side is cast to its join schema, so the join needs no schema()
    # peek (which would run the selective filters ahead of time)
    o_schema = pa.schema(
        [("o_orderkey", pa.int64()), ("o_orderdate", pa.timestamp("us")),
         ("o_orderpriority", pa.string())]
    )
    li_schema = pa.schema([("l_orderkey", pa.int64()), ("cents", pa.int64())])

    # generator UDFs: a selective filter leaves some batches EMPTY, and
    # yielding nothing skips the block instead of emitting an empty one
    def order_side(batch: pa.Table):
        batch = batch.filter(pc.less(batch.column("o_orderdate"), cut))
        keys = resolve_broadcast(seg_ref)
        ck = batch.column("o_custkey").to_numpy().astype(np.int64)
        pos = np.searchsorted(keys, ck)
        ok = pos < len(keys)
        ok[ok] = keys[pos[ok]] == ck[ok]
        batch = batch.filter(pa.array(ok))
        if batch.num_rows:
            yield batch.select(o_schema.names).cast(o_schema)

    def line_side(batch: pa.Table):
        batch = batch.filter(pc.greater(batch.column("l_shipdate"), cut))
        if batch.num_rows == 0:
            return
        rev = batch.column("l_extendedprice").to_numpy() * (
            1.0 - batch.column("l_discount").to_numpy()
        )
        cents = np.floor(np.abs(rev) * 100.0 + 0.5).astype(np.int64) * np.where(
            rev >= 0, 1, -1
        )
        df = pd.DataFrame(
            {
                "l_orderkey": batch.column("l_orderkey").to_numpy(),
                "cents": cents,
            }
        )
        agg = df.groupby("l_orderkey", as_index=False)["cents"].sum()
        yield pa.Table.from_pandas(agg, schema=li_schema, preserve_index=False)

    o = orders.select_columns(
        ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(order_side, batch_format="pyarrow")
    li = lineitem.select_columns(
        ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
    ).map_batches(line_side, batch_format="pyarrow")
    joined = bucketed_merge_join(
        li, o, on="l_orderkey", right_on="o_orderkey",
        left_schema=li_schema, right_schema=o_schema,
    )

    def topk_of(df: pd.DataFrame) -> pd.DataFrame:
        tot = df.groupby(
            ["l_orderkey", "o_orderdate", "o_orderpriority"], as_index=False
        )["cents"].sum()
        tot = tot.sort_values(
            ["cents", "o_orderdate", "l_orderkey"],
            ascending=[False, True, True],
            kind="mergesort",
        ).head(k)
        return tot

    cands = bucketed_group_apply(joined, "l_orderkey", topk_of)

    def finish(batch: pa.Table) -> pa.Table:
        cents = batch.column("cents").to_numpy()
        rev = np.floor(np.abs(cents)) / 100.0 * np.where(cents >= 0, 1.0, -1.0)
        return batch.drop_columns(["cents"]).append_column(
            "revenue", pa.array(rev, pa.float64())
        )

    # deterministic k-row resolve: exact integer cents make ties stable
    return (
        cands.sort(["cents", "o_orderdate", "l_orderkey"],
                   descending=[True, False, False])
        .limit(k)
        .map_batches(finish, batch_format="pyarrow")
    )


def _schema_seeded(src: rd.Dataset, col: str, out: rd.Dataset) -> rd.Dataset:
    """Union a 0-row explicitly-typed seed block in front of ``out`` so an
    all-empty result (e.g. a disjoint INTERSECT) keeps its schema — Ray
    drops the schema of an all-empty dataset, which fails the driver's
    column check even though 0 rows match the oracle."""
    import numpy as np

    sch = src.schema()
    typ = dict(zip(sch.names, sch.types))[col]
    if not isinstance(typ, pa.DataType):
        # pandas-backed datasets report Python types, not Arrow ones
        typ = (
            pa.string()
            if typ in (str, object)
            else pa.from_numpy_dtype(np.dtype(typ))
        )
    seed = rd.from_arrow(pa.Table.from_pydict({col: pa.array([], typ)}))
    return seed.union(out)


def except_distinct(
    left: rd.Dataset, right: rd.Dataset, col: str
) -> rd.Dataset:
    """SQL ``EXCEPT`` (set difference with distinct semantics) on one
    column: the distinct ``col`` values of ``left`` that never appear in
    ``right``. One key-bucketed shuffle of PRE-DISTINCTED values: each
    side first reduces to unique values per batch (tagged 0/1), the union
    co-locates by value hash, and a per-bucket groupby keeps values whose
    max tag is 0 — exact, duplicate-safe, no driver collection."""
    import numpy as np

    from . import bucketed_group_apply

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            u = np.unique(batch.column(col).to_numpy(zero_copy_only=False))
            return pa.Table.from_pydict(
                {col: pa.array(u), "__side": np.full(len(u), side, np.int64)}
            )

        return fn

    u = left.select_columns([col]).map_batches(
        tag(0), batch_format="pyarrow"
    ).union(
        right.select_columns([col]).map_batches(tag(1), batch_format="pyarrow")
    )

    def keep(t: pa.Table) -> pa.Table:
        # arrow group OUTPUT: many tiny pandas string frames from
        # map_groups are pathological (the q_js_divergence finding)
        df = t.to_pandas()
        mx = df.groupby(col)["__side"].max()
        return pa.Table.from_pandas(
            mx[mx == 0].index.to_frame(index=False), preserve_index=False
        )

    from .dedup import shuffle_blocks

    compact = u.repartition(shuffle_blocks())
    return _schema_seeded(
        left, col,
        bucketed_group_apply(compact, col, keep, batch_format="pyarrow"),
    )


def intersect_distinct(
    left: rd.Dataset, right: rd.Dataset, col: str
) -> rd.Dataset:
    """SQL ``INTERSECT`` (set intersection with distinct semantics) on
    one column — the sibling of :func:`except_distinct`, same one-shuffle
    tagged-union shape: keep values whose bucket group saw BOTH tags."""
    import numpy as np

    from . import bucketed_group_apply

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            u = np.unique(batch.column(col).to_numpy(zero_copy_only=False))
            return pa.Table.from_pydict(
                {col: pa.array(u), "__side": np.full(len(u), side, np.int64)}
            )

        return fn

    u = left.select_columns([col]).map_batches(
        tag(0), batch_format="pyarrow"
    ).union(
        right.select_columns([col]).map_batches(tag(1), batch_format="pyarrow")
    )

    def keep(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        ag = df.groupby(col)["__side"].agg(["min", "max"])
        return pa.Table.from_pandas(
            ag[(ag["min"] == 0) & (ag["max"] == 1)].index.to_frame(
                index=False
            ),
            preserve_index=False,
        )

    from .dedup import shuffle_blocks

    compact = u.repartition(shuffle_blocks())
    return _schema_seeded(
        left, col,
        bucketed_group_apply(compact, col, keep, batch_format="pyarrow"),
    )


def cube_orders(ds: rd.Dataset, max_leaves: int = 100_000) -> rd.Dataset:
    """GROUP BY CUBE(year, priority) — all four grouping sets (leaf, per
    year, per priority, grand total) derived from ONE corpus pass of
    integer-cents leaf partials, the :func:`rollup_orders` contract
    extended with the per-priority axis (CUBE = every subset of the
    grouping columns; deriving subtotals from merged leaves is
    algebraically exact for integer sums/counts)."""
    import numpy as np

    def partial(batch: pa.Table) -> pa.Table:
        yr = pc.year(batch.column("o_orderdate")).to_numpy(zero_copy_only=False)
        cents = np.rint(
            batch.column("o_totalprice").to_numpy() * 100.0
        ).astype(np.int64)
        df = pd.DataFrame(
            {
                "year": yr.astype(np.int64),
                "priority": batch.column("o_orderpriority").to_pylist(),
                "cents": cents,
            }
        )
        agg = df.groupby(["year", "priority"], as_index=False).agg(
            n_orders=("cents", "size"), cents=("cents", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    leaves = (
        ds.select_columns(["o_orderdate", "o_orderpriority", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .take(max_leaves + 1)
    )
    if len(leaves) > max_leaves:
        raise ValueError(
            f"cube_orders: > {max_leaves} leaf partials — this is a "
            "groupby-sized key space, not a cube report; raise "
            "max_leaves deliberately"
        )
    df = pd.DataFrame(leaves)
    leaf = df.groupby(["year", "priority"], as_index=False).agg(
        n_orders=("n_orders", "sum"), cents=("cents", "sum")
    )
    yearly = leaf.groupby("year", as_index=False).agg(
        n_orders=("n_orders", "sum"), cents=("cents", "sum")
    )
    yearly["priority"] = "ALL"
    by_prio = leaf.groupby("priority", as_index=False).agg(
        n_orders=("n_orders", "sum"), cents=("cents", "sum")
    )
    by_prio["year"] = -1
    grand = pd.DataFrame(
        {
            "year": [-1],
            "priority": ["ALL"],
            "n_orders": [int(leaf["n_orders"].sum())],
            "cents": [int(leaf["cents"].sum())],
        }
    )
    out = pd.concat([leaf, yearly, by_prio, grand], ignore_index=True)
    out["year"] = out["year"].map(lambda y: "ALL" if y == -1 else str(y))
    out["n_orders"] = out["n_orders"].astype(np.int64)
    out["revenue"] = round_half_away_np(
        out["cents"].to_numpy(dtype=np.float64) / 100.0, 0
    )
    out = out.drop(columns=["cents"])
    return rd.from_arrow(
        pa.Table.from_pandas(
            out[["year", "priority", "n_orders", "revenue"]],
            preserve_index=False,
        )
    )


def regr_by_group(
    ds: rd.Dataset,
    group_col: str,
    x_col: str,
    y_col: str,
    max_groups: int = 100_000,
    x_scale: float = 1.0,
) -> rd.Dataset:
    """Per-group simple OLS regression of y on x — slope, intercept and
    r2, the trend-detection diagnostic (is value drifting over time per
    event type?). Same mergeable CENTERED co-moment scheme as
    :func:`corr_by_group` (two streamed passes, broadcast means, exact
    re-centering correction), matching DuckDB's regr_slope /
    regr_intercept / regr_r2 population co-moments. ``x_scale`` divides
    x up front (e.g. microseconds -> seconds) so magnitudes stay sane;
    apply the same scaling in the oracle."""
    import numpy as np

    import ray

    def mean_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": batch.column(group_col).to_pandas(),
                "x": batch.column(x_col).to_numpy(zero_copy_only=False)
                .astype(np.float64) / x_scale,
                "y": batch.column(y_col).to_numpy(zero_copy_only=False)
                .astype(np.float64),
            }
        )
        agg = df.groupby("g", as_index=False).agg(
            n=("x", "size"), sx=("x", "sum"), sy=("y", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    def mean_merge(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "g": [g["g"].iloc[0]],
                "n": [int(g["n"].sum())],
                "sx": [float(g["sx"].sum())],
                "sy": [float(g["sy"].sum())],
            }
        )

    cols = ds.select_columns([group_col, x_col, y_col])
    rows = (
        cols.map_batches(mean_partial, batch_format="pyarrow")
        .groupby("g")
        .map_groups(mean_merge, batch_format="pandas")
        .take(max_groups + 1)
    )
    if len(rows) > max_groups:
        raise ValueError(
            f"regr_by_group: > {max_groups} groups — raise max_groups "
            "deliberately or pre-filter"
        )
    keys = np.array(sorted(r["g"] for r in rows))
    by = {r["g"]: r for r in rows}
    mx = np.array([by[k]["sx"] / by[k]["n"] for k in keys])
    my = np.array([by[k]["sy"] / by[k]["n"] for k in keys])
    means_ref = ray.put((keys, mx, my))

    def co_partial(batch: pa.Table) -> pa.Table:
        k, cx, cy = resolve_broadcast(means_ref)
        g = batch.column(group_col).to_numpy(zero_copy_only=False).astype(
            k.dtype
        )
        x = batch.column(x_col).to_numpy(zero_copy_only=False).astype(
            np.float64
        ) / x_scale
        y = batch.column(y_col).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        pos = np.searchsorted(k, g)
        dx = x - cx[pos]
        dy = y - cy[pos]
        df = pd.DataFrame(
            {
                "g": g,
                "dx": dx,
                "dy": dy,
                "dxx": dx * dx,
                "dyy": dy * dy,
                "dxy": dx * dy,
            }
        )
        agg = df.groupby("g", as_index=False).agg(
            n=("dx", "size"), sdx=("dx", "sum"), sdy=("dy", "sum"),
            sxx=("dxx", "sum"), syy=("dyy", "sum"), sxy=("dxy", "sum"),
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    def co_merge(g: pd.DataFrame) -> pd.DataFrame:
        k, cx, cy = resolve_broadcast(means_ref)
        g = g.sort_values(["g", "sxy"], kind="mergesort")
        n = int(g["n"].sum())
        sdx, sdy = float(g["sdx"].sum()), float(g["sdy"].sum())
        sxx = float(g["sxx"].sum()) - sdx * sdx / n
        syy = float(g["syy"].sum()) - sdy * sdy / n
        sxy = float(g["sxy"].sum()) - sdx * sdy / n
        pos = int(np.searchsorted(k, g["g"].iloc[0]))
        mx_t = cx[pos] + sdx / n
        my_t = cy[pos] + sdy / n
        if sxx > 0:
            slope = sxy / sxx
            icpt = my_t - slope * mx_t
            r2 = (sxy * sxy) / (sxx * syy) if syy > 0 else float("nan")
            out = [round_half_away(slope, 6), round_half_away(icpt, 6),
                   round_half_away(r2, 6) if r2 == r2 else float("nan")]
        else:
            out = [float("nan")] * 3
        return pd.DataFrame(
            {
                group_col: [g["g"].iloc[0]],
                "slope": [out[0]],
                "intercept": [out[1]],
                "r2": [out[2]],
            }
        )

    return (
        cols.map_batches(co_partial, batch_format="pyarrow")
        .groupby("g")
        .map_groups(co_merge, batch_format="pandas")
    )


def returned_item_report(
    lineitem: rd.Dataset,
    orders: rd.Dataset,
    sf_dir: str,
    date_lo: str = "1996-01-01",
    date_hi: str = "1996-04-01",
    k: int = 20,
) -> rd.Dataset:
    """TPC-H Q10-shaped returned-item report: top-k customers by revenue
    lost to returned lineitems (l_returnflag = 'R') of one order-date
    quarter, with the customer's name/balance/nation attached. Revenue
    is EXACT (per-row half-away cent rounding to BIGINT, integer sums,
    one /100 at the end — the shipping_priority float contract), so the
    (revenue DESC, c_custkey) top-k is deterministic across engines.

    Scale shape: orders filter to the quarter and carry only
    (orderkey, custkey); lineitem filters to 'R' rows and pre-aggregates
    cents per l_orderkey INSIDE map_batches before the one fact⋈fact
    orderkey hash join; per-customer totals finalize in a
    custkey-bucketed pass emitting only its local top-k, the
    <= k x n_buckets candidates resolve with a k-row sort.limit, and the
    name/acctbal/nation attributes attach to the FINAL k rows only (a
    k-row driver lookup against a filtered customer read — the big
    attribute columns never enter the join)."""
    import numpy as np
    import pyarrow.parquet as pq

    from . import bucketed_group_apply
    from .joins import bucketed_merge_join

    lo = pa.scalar(date_lo).cast(pa.timestamp("us"))
    hi = pa.scalar(date_hi).cast(pa.timestamp("us"))
    # each side is cast to its join schema, so the join needs no schema()
    # peek (the shipping_priority contract)
    o_schema = pa.schema([("o_orderkey", pa.int64()), ("o_custkey", pa.int64())])
    li_schema = pa.schema([("l_orderkey", pa.int64()), ("cents", pa.int64())])

    def order_side(batch: pa.Table):
        m = pc.and_(
            pc.greater_equal(batch.column("o_orderdate"), lo),
            pc.less(batch.column("o_orderdate"), hi),
        )
        batch = batch.filter(m)
        if batch.num_rows:
            yield batch.select(o_schema.names).cast(o_schema)

    def line_side(batch: pa.Table):
        batch = batch.filter(
            pc.equal(batch.column("l_returnflag"), "R")
        )
        if batch.num_rows == 0:
            return
        rev = batch.column("l_extendedprice").to_numpy() * (
            1.0 - batch.column("l_discount").to_numpy()
        )
        cents = np.floor(np.abs(rev) * 100.0 + 0.5).astype(
            np.int64
        ) * np.where(rev >= 0, 1, -1)
        df = pd.DataFrame(
            {
                "l_orderkey": batch.column("l_orderkey").to_numpy(),
                "cents": cents,
            }
        )
        agg = df.groupby("l_orderkey", as_index=False)["cents"].sum()
        yield pa.Table.from_pandas(agg, schema=li_schema, preserve_index=False)

    o = orders.select_columns(
        ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(order_side, batch_format="pyarrow")
    li = lineitem.select_columns(
        ["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"]
    ).map_batches(line_side, batch_format="pyarrow")
    joined = bucketed_merge_join(
        li, o, on="l_orderkey", right_on="o_orderkey",
        left_schema=li_schema, right_schema=o_schema,
    )

    def topk_of(df: pd.DataFrame) -> pd.DataFrame:
        tot = df.groupby("o_custkey", as_index=False)["cents"].sum()
        return tot.sort_values(
            ["cents", "o_custkey"], ascending=[False, True], kind="mergesort"
        ).head(k)

    cands = bucketed_group_apply(joined, "o_custkey", topk_of)
    top = (
        cands.sort(["cents", "o_custkey"], descending=[True, False])
        .limit(k)
        .take_all()
    )
    keys = [int(r["o_custkey"]) for r in top]
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
        filters=[("c_custkey", "in", keys)] if keys else None,
    ).to_pandas().set_index("c_custkey")
    nat = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nname = dict(
        zip(nat.column("n_nationkey").to_pylist(),
            nat.column("n_name").to_pylist())
    )
    out = pa.Table.from_pydict(
        {
            "c_custkey": pa.array(keys, pa.int64()),
            "c_name": pa.array(
                [cust.loc[ck, "c_name"] for ck in keys], pa.string()
            ),
            "revenue": pa.array(
                [int(r["cents"]) / 100.0 for r in top], pa.float64()
            ),
            "c_acctbal": pa.array(
                [float(cust.loc[ck, "c_acctbal"]) for ck in keys],
                pa.float64(),
            ),
            "n_name": pa.array(
                [nname[int(cust.loc[ck, "c_nationkey"])] for ck in keys],
                pa.string(),
            ),
        }
    )
    return rd.from_arrow(out)


def welch_t_by_group(
    ds: rd.Dataset,
    group_col: str,
    val_col: str,
    max_groups: int = 100_000,
) -> rd.Dataset:
    """Per-group Welch two-sample t-statistic of an INTEGER measure vs
    the rest of the corpus (the is-this-slice-different audit next to
    the chi-square mix test): t = (m_g - m_r) / sqrt(s2_g/n_g + s2_r/n_r)
    with Welch-Satterthwaite dof.

    Exactness: one streamed pass of per-batch integer moment partials
    (n, Σx, Σx²) per group — bigint driver merge, so the doubles both
    engines derive are computed FROM IDENTICAL integers; the oracle SQL
    uses the same algebraic variance form ((Σx² - (Σx)²/n)/(n-1)) rather
    than var_samp's streaming accumulator, making the value-hash match
    exact, not tolerance-based. Complement-side moments are totals minus
    the group's — no second scan. Groups with n < 2 on either side emit
    NULL t (the SQL NULLIF contract)."""
    import numpy as np

    def partial(batch: pa.Table) -> pa.Table:
        x = batch.column(val_col).to_numpy().astype(np.int64)
        df = pd.DataFrame(
            {"g": batch.column(group_col).to_pylist(), "x": x, "xx": x * x}
        )
        agg = df.groupby("g", as_index=False).agg(
            n=("x", "size"), sx=("x", "sum"), sxx=("xx", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    rows = ds.select_columns([group_col, val_col]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_groups + 1)
    if len(rows) > max_groups:
        raise ValueError(
            f"welch_t_by_group: > {max_groups} group partials — raise "
            "max_groups deliberately"
        )
    acc: dict = {}
    for r in rows:
        g = r["g"]
        n0, s0, q0 = acc.get(g, (0, 0, 0))
        acc[g] = (n0 + int(r["n"]), s0 + int(r["sx"]), q0 + int(r["sxx"]))
    N = sum(v[0] for v in acc.values())
    S = sum(v[1] for v in acc.values())
    Q = sum(v[2] for v in acc.values())

    out_g, out_n, out_t, out_dof = [], [], [], []
    from . import round_half_away

    for g in sorted(acc):
        n, s, q = acc[g]
        nr, sr, qr = N - n, S - s, Q - q
        out_g.append(g)
        out_n.append(n)
        if n < 2 or nr < 2:
            out_t.append(None)
            out_dof.append(None)
            continue
        # all-double arithmetic in the same op order as the oracle SQL
        # (sums are < 2^53 so the BIGINT -> DOUBLE casts are exact and
        # every subsequent IEEE op matches DuckDB bit-for-bit)
        nf, sf, qf = float(n), float(s), float(q)
        nrf, srf, qrf = float(nr), float(sr), float(qr)
        m, mr = sf / nf, srf / nrf
        v = (qf - sf * sf / nf) / (nf - 1.0)
        vr = (qrf - srf * srf / nrf) / (nrf - 1.0)
        se2 = v / nf + vr / nrf
        if se2 <= 0.0:
            out_t.append(None)
            out_dof.append(None)
            continue
        t = (m - mr) / np.sqrt(se2)
        dof = se2 * se2 / (
            (v / nf) * (v / nf) / (nf - 1.0)
            + (vr / nrf) * (vr / nrf) / (nrf - 1.0)
        )
        out_t.append(round_half_away(float(t), 6))
        out_dof.append(round_half_away(float(dof), 6))
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                group_col: pa.array(out_g, pa.string()),
                "n": pa.array(out_n, pa.int64()),
                "t_stat": pa.array(out_t, pa.float64()),
                "dof": pa.array(out_dof, pa.float64()),
            }
        )
    )


def mannwhitney_by_group(
    ds: rd.Dataset,
    group_col: str,
    val_col: str,
    max_cells: int = 1_000_000,
) -> rd.Dataset:
    """Per-group Mann–Whitney U (rank-sum) statistic of an INTEGER
    measure vs the rest of the corpus — the nonparametric sibling of
    welch_t_by_group for skewed measures where a mean test misleads.

    U_g = R_g − n_g(n_g+1)/2 with tie-averaged ranks. Exactness: one
    streamed pass of (group, value) integer count partials (driver merge
    under a loud guard); tie-averaged ranks are half-integers derived
    from exact cumulative counts, so every product/sum both engines
    compute is exactly representable (< 2^53) and the value-hash match
    is exact with NO op-order mirroring needed. Scale: like ks_by_source
    the value domain bounds driver state — pre-bin at 100 TB, the guard
    is loud."""
    import numpy as np

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": batch.column(group_col).to_pylist(),
                "v": batch.column(val_col).to_numpy().astype(np.int64),
            }
        )
        agg = df.groupby(["g", "v"], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    rows = ds.select_columns([group_col, val_col]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_cells + 1)
    if len(rows) > max_cells:
        raise ValueError(
            f"mannwhitney_by_group: > {max_cells} (group, value) "
            "partials — pre-bin the value column or raise max_cells "
            "deliberately"
        )
    df = pd.DataFrame(rows, columns=["g", "v", "size"])
    cnt = df.groupby(["g", "v"])["size"].sum()
    groups = sorted(df["g"].unique())
    vals = np.sort(df["v"].unique())
    grid = cnt.reindex(
        pd.MultiIndex.from_product([groups, vals], names=["g", "v"]),
        fill_value=0,
    ).to_numpy(np.int64).reshape(len(groups), len(vals))
    tot = grid.sum(axis=0)
    cum = tot.cumsum()
    # tie-averaged rank of every occurrence of value v:
    #   (count before v) + (count at v + 1)/2 — a half-integer
    avg_rank = (cum - tot).astype(np.float64) + (
        tot + 1
    ).astype(np.float64) / 2.0
    from . import round_half_away

    out_u: list = []
    out_n: list = []
    for i in range(len(groups)):
        ng = int(grid[i].sum())
        out_n.append(ng)
        rsum = float((grid[i].astype(np.float64) * avg_rank).sum())
        u = rsum - float(ng) * float(ng + 1) / 2.0
        out_u.append(round_half_away(u, 6))
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                group_col: pa.array(groups, pa.string()),
                "n": pa.array(out_n, pa.int64()),
                "u_stat": pa.array(out_u, pa.float64()),
            }
        )
    )


def weighted_median_by_group(
    ds: rd.Dataset,
    group_col: str,
    val_col: str,
    weight_col: str,
    max_cells: int = 1_000_000,
) -> rd.Dataset:
    """Per-group weighted median: the smallest value whose cumulative
    INTEGER weight reaches half the group's total (2·cumw ≥ totw — an
    all-integer comparison, so the tie/threshold edge is exact on both
    engines). The weight column must already be integral (int64);
    callers convert currency to cents etc. in a row-local map first.

    One streamed pass of (group, value) weight-sum partials, driver
    merge under a loud guard, then a cumsum scan per group over the
    sorted value grid. Scale: driver state is |groups| × |distinct
    values| — for low-cardinality measures (quantities, grades, bins)
    this is tiny at any corpus size; pre-bin wide domains."""
    import numpy as np

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": batch.column(group_col).to_pylist(),
                "v": batch.column(val_col).to_numpy(),
                "w": batch.column(weight_col).to_numpy().astype(np.int64),
            }
        )
        agg = df.groupby(["g", "v"], as_index=False)["w"].sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    rows = ds.select_columns([group_col, val_col, weight_col]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_cells + 1)
    if len(rows) > max_cells:
        raise ValueError(
            f"weighted_median_by_group: > {max_cells} (group, value) "
            "partials — pre-bin the value column or raise max_cells "
            "deliberately"
        )
    df = pd.DataFrame(rows, columns=["g", "v", "w"])
    agg = df.groupby(["g", "v"])["w"].sum().reset_index()
    out_g: list = []
    out_v: list = []
    for g, sub in agg.groupby("g"):
        sub = sub.sort_values("v")
        w = sub["w"].to_numpy(np.int64)
        cw = w.cumsum()
        tw = int(cw[-1])
        idx = int(np.searchsorted(2 * cw, tw))
        out_g.append(g)
        out_v.append(float(sub["v"].to_numpy()[idx]))
    order = np.argsort(np.asarray(out_g, dtype=object))
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                group_col: pa.array(
                    [out_g[i] for i in order], pa.string()
                ),
                "wmedian": pa.array(
                    [out_v[i] for i in order], pa.float64()
                ),
            }
        )
    )


def large_orders(
    lineitem: rd.Dataset,
    orders: rd.Dataset,
    customer: rd.Dataset,
    min_qty: int = 300,
) -> rd.Dataset:
    """TPC-H Q18-shaped "large volume customer" report: orders whose
    total line-item quantity exceeds ``min_qty``, annotated with the
    buying customer. Reference parity: the OCR platform's job listing
    joins job rows to their owning tenant the same way
    (apps/api/app/api/v1/routes_jobs.py job+user read path).

    Scale shape: lineitem (the 100 TB side) is reduced FIRST — a
    vectorized per-batch polars partial sum per l_orderkey, then the
    coarse-bucketed exact sum — so only (orderkey, sum_qty) partials
    ever shuffle, and only the >min_qty survivors (a tiny fraction)
    enter the two hash joins. Quantities sit on an integer grid, so the
    partial sums are exact int64 (order-free) on both engines."""
    import numpy as np  # noqa: F401 — parity with sibling helpers

    def partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        d = pl.from_arrow(batch).with_columns(
            pl.col("l_quantity").round(0).cast(pl.Int64).alias("q")
        )
        agg = d.group_by("l_orderkey").agg(pl.col("q").sum().alias("sum_qty"))
        return agg.select(["l_orderkey", "sum_qty"]).to_arrow()

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_orderkey", as_index=False)["sum_qty"].sum()
        g = g[g["sum_qty"] > min_qty]
        return g.astype({"l_orderkey": "int64", "sum_qty": "int64"})

    big = bucketed_group_apply(
        lineitem.map_batches(partial, batch_format="pyarrow"),
        "l_orderkey",
        per_bucket,
    )
    from .joins import bucketed_merge_join

    # explicit schemas: the survivor set can be statically EMPTY (every
    # order under the threshold), and passing them skips the schema-peek
    # partial execution of the upstream aggregation
    big_schema = pa.schema(
        [("l_orderkey", pa.int64()), ("sum_qty", pa.int64())]
    )
    orders_schema = pa.schema(
        [
            ("o_orderkey", pa.int64()),
            ("o_custkey", pa.int64()),
            ("o_totalprice", pa.float64()),
        ]
    )
    # compact=True: both union sides here are narrow — (orderkey,
    # sum_qty) partials and the 3-int-column pruned orders projection —
    # and the compaction width scales with cluster CPUs; measured 26%
    # faster at sf0.1/8 (3.38 -> 2.49 s). Revisit if a side approaches
    # corpus scale (see bucketed_merge_join docstring).
    with_orders = bucketed_merge_join(
        big,
        orders,
        on="l_orderkey",
        right_on="o_orderkey",
        left_schema=big_schema,
        right_schema=orders_schema,
        compact=True,
    )
    out = bucketed_merge_join(
        with_orders,
        customer,
        on="o_custkey",
        right_on="c_custkey",
        left_schema=pa.schema(
            list(zip(big_schema.names, big_schema.types))
            + list(zip(orders_schema.names, orders_schema.types))
        ),
        right_schema=pa.schema(
            [("c_custkey", pa.int64()), ("c_name", pa.string())]
        ),
        compact=True,
    )

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(
            ["c_custkey", "c_name", "o_orderkey", "o_totalprice", "sum_qty"]
        )

    return out.map_batches(project, batch_format="pyarrow")


def k_anonymity_audit(ds: rd.Dataset, quasi_cols: list[str], k: int = 10) -> rd.Dataset:
    """Governance/privacy audit: quasi-identifier combinations shared by
    FEWER than ``k`` rows — the groups whose members are re-identifiable
    under the k-anonymity model (Sweeney 2002, public). Mirrors the
    reference's tenant-scoped listing guarantees (SURVEY §2 J3) turned
    into a corpus-wide audit.

    Scale shape: exact integer crosstab partials inside map_batches
    (one row per distinct quasi-tuple per batch), then the coarse-bucketed
    exact merge — the shuffle carries at most (distinct tuples x batches)
    counter rows, never data rows, and the audit output is bounded by the
    number of rare tuples. No driver collection."""

    def partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        d = pl.from_arrow(batch.select(quasi_cols))
        return d.group_by(quasi_cols).agg(pl.len().cast(pl.Int64).alias("n")).to_arrow()

    def per_bucket(t: pa.Table) -> pa.Table:
        # Arrow/polars all the way down: the audit is usually EMPTY on a
        # healthy corpus, and polars keeps the column types on a 0-row
        # frame (an empty pandas object column would degrade to null).
        import polars as pl

        g = (
            pl.from_arrow(t)
            .group_by(quasi_cols)
            .agg(pl.col("n").sum().alias("n"))
            .filter(pl.col("n") < k)
        )
        return g.select([*quasi_cols, "n"]).to_arrow()

    return bucketed_group_apply(
        ds.map_batches(partial, batch_format="pyarrow"),
        quasi_cols,
        per_bucket,
        batch_format="pyarrow",
    )


def promo_revenue_share(
    lineitem: rd.Dataset,
    part: rd.Dataset,
    promo_type: str = "PROMO",
) -> rd.Dataset:
    """TPC-H Q14-shaped promotion-effect metric: the percentage of
    window revenue earned by parts of the promo type (the caller pushes
    the ship-date window into the lineitem read).

    Scale shape: lineitem pre-aggregates exact integer revenue units
    (cents x (100 - discount-cents) = 10^-4 units, order-free int64)
    per l_partkey INSIDE map_batches, so the partkey join moves one row
    per (batch, partkey), not one per lineitem; part brings only
    (p_partkey, p_type); the joined partials collapse to two global
    int64 counters, and the final percentage divides identical integers
    on both engines so round(.., 6) is exact. int64 headroom: a row
    contributes <= ~1e9 units, so ~9e9 window rows per counter —
    the date window keeps real workloads far inside that."""
    import numpy as np

    def per_part(batch: pa.Table) -> pa.Table:
        price_c = np.round(
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        disc_c = np.round(
            batch.column("l_discount").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        df = pd.DataFrame(
            {
                "l_partkey": batch.column("l_partkey").to_numpy(),
                "units": price_c * (100 - disc_c),
            }
        )
        agg = df.groupby("l_partkey", as_index=False)["units"].sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    from .joins import bucketed_merge_join

    joined = bucketed_merge_join(
        lineitem.map_batches(per_part, batch_format="pyarrow"),
        part,
        on="l_partkey",
        right_on="p_partkey",
        left_schema=pa.schema(
            [("l_partkey", pa.int64()), ("units", pa.int64())]
        ),
        right_schema=pa.schema(
            [("p_partkey", pa.int64()), ("p_type", pa.string())]
        ),
        # compact=True: per-partkey partials ⋈ the 2-column part catalog
        compact=True,
    )

    def reduce_batch(batch: pa.Table) -> pa.Table:
        units = batch.column("units").to_numpy(zero_copy_only=False)
        promo_mask = pc.equal(
            batch.column("p_type"), pa.scalar(promo_type)
        ).to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "k": pa.array([0], pa.int64()),
                "promo_units": pa.array([int(units[promo_mask].sum())], pa.int64()),
                "total_units": pa.array([int(units.sum())], pa.int64()),
            }
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        promo = int(g["promo_units"].sum())
        total = int(g["total_units"].sum())
        pct = 100.0 * promo / total if total else 0.0
        return pd.DataFrame({"promo_pct": [round_half_away(pct, 6)]})

    return (
        joined.map_batches(reduce_batch, batch_format="pyarrow")
        .groupby("k")
        .map_groups(final, batch_format="pandas")
    )


def nation_profit(
    lineitem: rd.Dataset,
    orders: rd.Dataset,
    sf_dir: str,
    name_token: str = "bolt",
) -> rd.Dataset:
    """TPC-H Q9-shaped product-line profit: revenue per (supplier
    nation, order year) restricted to parts whose name contains
    ``name_token``.

    Scale composition (all repo idioms): the part restriction is a
    bucketed SEMI join on partkey (no part payload travels; works even
    when the matching-part set outgrows a broadcast); supplier->nation
    is a broadcast dimension lookup applied in the SAME pass that
    pre-aggregates exact integer revenue units per (orderkey, nation);
    the single big-big edge (orderkey -> order year) is one bucketed
    hash join over those partials; the final (nation, year) groupby is
    a few hundred keys. Exact int64 cents x (100-disc) units."""
    import numpy as np

    import pyarrow.parquet as pq
    import ray

    from .joins import bucketed_merge_join

    part = rd.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey"],
        filter=pc.match_substring(pc.field("p_name"), name_token),
    )
    li = bucketed_merge_join(
        lineitem,
        part,
        on="l_partkey",
        right_on="p_partkey",
        how="semi",
        left_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("l_partkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("l_extendedprice", pa.float64()),
                ("l_discount", pa.float64()),
            ]
        ),
        right_schema=pa.schema([("p_partkey", pa.int64())]),
    )

    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    nat = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nk_to_name = dict(
        zip(
            nat.column("n_nationkey").to_pylist(),
            nat.column("n_name").to_pylist(),
        )
    )
    supp_ref = ray.put(
        dict(
            zip(
                supp.column("s_suppkey").to_pylist(),
                [
                    nk_to_name[nk]
                    for nk in supp.column("s_nationkey").to_pylist()
                ],
            )
        )
    )

    def per_order_nation(batch: pa.Table) -> pa.Table:
        lk = resolve_broadcast(supp_ref)
        price_c = np.round(
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        disc_c = np.round(
            batch.column("l_discount").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        df = pd.DataFrame(
            {
                "l_orderkey": batch.column("l_orderkey").to_numpy(),
                "n_name": pd.Series(
                    batch.column("l_suppkey").to_numpy()
                ).map(lk),
                "units": price_c * (100 - disc_c),
            }
        )
        agg = df.groupby(["l_orderkey", "n_name"], as_index=False)["units"].sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    partials = li.map_batches(per_order_nation, batch_format="pyarrow")
    joined = bucketed_merge_join(
        partials,
        orders,
        on="l_orderkey",
        right_on="o_orderkey",
        left_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("n_name", pa.string()),
                ("units", pa.int64()),
            ]
        ),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_orderdate", pa.timestamp("us"))]
        ),
        # compact=True: (orderkey, nation, units) partials ⋈ the 2-column
        # pruned orders projection — both narrow; width scales with CPUs
        compact=True,
    )

    def per_group(batch: pa.Table) -> pa.Table:
        years = (
            batch.column("o_orderdate")
            .to_pandas()
            .dt.year.to_numpy()
            .astype(np.int64)
        )
        df = pd.DataFrame(
            {
                "n_name": batch.column("n_name").to_pandas(),
                "o_year": years,
                "units": batch.column("units").to_numpy(zero_copy_only=False),
            }
        )
        agg = df.groupby(["n_name", "o_year"], as_index=False)["units"].sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["n_name", "o_year"], as_index=False)["units"].sum()
        agg["revenue"] = round_half_away_np(
            agg["units"].to_numpy(np.float64) / 1e4, 2
        )
        return agg[["n_name", "o_year", "revenue"]]

    return bucketed_group_apply(
        joined.map_batches(per_group, batch_format="pyarrow"),
        ["n_name", "o_year"],
        final,
    )


def top_supplier(
    lineitem: rd.Dataset,
    sf_dir: str,
) -> rd.Dataset:
    """TPC-H Q15-shaped top supplier: the supplier(s) with the maximum
    revenue in the caller's ship-date window — the distributed
    argmax-with-ties pattern WITHOUT a global sort: per-supplier exact
    integer partials inside map_batches, one coarse-bucketed sum (the
    shuffle carries one int row per (batch, supplier)), a scalar
    Dataset.max over the per-supplier sums (driver receives ONE number),
    then a row-local == filter keeps every tied winner. Supplier names
    are a broadcast dimension lookup."""
    import numpy as np

    import pyarrow.parquet as pq
    import ray

    def per_supp(batch: pa.Table) -> pa.Table:
        price_c = np.round(
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        disc_c = np.round(
            batch.column("l_discount").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        df = pd.DataFrame(
            {
                "l_suppkey": batch.column("l_suppkey").to_numpy(),
                "units": price_c * (100 - disc_c),
            }
        )
        agg = df.groupby("l_suppkey", as_index=False)["units"].sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_suppkey", as_index=False)["units"].sum()
        return g.astype({"l_suppkey": "int64", "units": "int64"})

    sums = bucketed_group_apply(
        lineitem.map_batches(per_supp, batch_format="pyarrow"),
        "l_suppkey",
        per_bucket,
    ).materialize()  # tiny (one row per supplier); consumed twice below

    best = sums.max("units")

    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    name_ref = ray.put(
        dict(
            zip(
                supp.column("s_suppkey").to_pylist(),
                supp.column("s_name").to_pylist(),
            )
        )
    )

    def winners(batch: pa.Table) -> pa.Table:
        lk = resolve_broadcast(name_ref)
        df = batch.to_pandas()
        df = df[df["units"] == best]
        return pa.Table.from_pydict(
            {
                "s_suppkey": pa.array(df["l_suppkey"], pa.int64()),
                "s_name": pa.array(
                    df["l_suppkey"].map(lk), pa.string()
                ),
                "total_revenue": pa.array(
                    round_half_away_np(
                        df["units"].to_numpy(np.float64) / 1e4, 2
                    ),
                    pa.float64(),
                ),
            }
        )

    return sums.map_batches(winners, batch_format="pyarrow")


def nation_trade_revenue(sf_dir: str) -> rd.Dataset:
    """TPC-H Q7-shaped trade-volume matrix: exact revenue per
    (customer nation, supplier nation, order year).

    Same composition as nation_trade_pagerank's edge pass (cited there):
    customer/supplier nation maps broadcast once (sorted searchsorted
    gather), lineitem pre-aggregates integer units per (orderkey,
    supp-nation) inside map_batches, ONE orderkey hash join, then
    (src, dst, year) partials into a ~|nations|² x years groupby."""
    import numpy as np

    import pyarrow.parquet as pq
    import ray

    from . import resolve_broadcast
    from .joins import bucketed_merge_join

    nat = pq.read_table(f"{sf_dir}/nation.parquet")
    names = {
        int(k): n
        for k, n in zip(
            nat.column("n_nationkey").to_numpy().astype(np.int64),
            nat.column("n_name").to_pylist(),
        )
    }

    def sorted_pair(path: str, k: str, v: str):
        t = pq.read_table(path, columns=[k, v])
        keys = t.column(k).to_numpy()
        vals = t.column(v).to_numpy().astype(np.int64)
        order = np.argsort(keys, kind="mergesort")
        return keys[order], vals[order]

    cust_ref = ray.put(
        sorted_pair(f"{sf_dir}/customer.parquet", "c_custkey", "c_nationkey")
    )
    sup_ref = ray.put(
        sorted_pair(f"{sf_dir}/supplier.parquet", "s_suppkey", "s_nationkey")
    )

    def order_side(batch: pa.Table) -> pa.Table:
        keys, vals = resolve_broadcast(cust_ref)
        ck = batch.column("o_custkey").to_numpy()
        years = (
            batch.column("o_orderdate")
            .to_pandas()
            .dt.year.to_numpy()
            .astype(np.int64)
        )
        return pa.Table.from_pydict(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "src": pa.array(vals[np.searchsorted(keys, ck)], pa.int64()),
                "o_year": pa.array(years, pa.int64()),
            }
        )

    def line_side(batch: pa.Table) -> pa.Table:
        keys, vals = resolve_broadcast(sup_ref)
        sk = batch.column("l_suppkey").to_numpy()
        price_c = np.round(
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        disc_c = np.round(
            batch.column("l_discount").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        df = pd.DataFrame(
            {
                "l_orderkey": batch.column("l_orderkey").to_numpy(),
                "dst": vals[np.searchsorted(keys, sk)],
                "units": price_c * (100 - disc_c),
            }
        )
        agg = df.groupby(["l_orderkey", "dst"], as_index=False)["units"].sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(order_side, batch_format="pyarrow")
    lines = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(line_side, batch_format="pyarrow")

    joined = bucketed_merge_join(
        lines, orders, on="l_orderkey", right_on="o_orderkey"
    )

    def per_cell(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "src": batch.column("src").to_numpy(),
                "dst": batch.column("dst").to_numpy(),
                "o_year": batch.column("o_year").to_numpy(),
                "units": batch.column("units").to_numpy(),
            }
        )
        agg = df.groupby(["src", "dst", "o_year"], as_index=False)["units"].sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["src", "dst", "o_year"], as_index=False)["units"].sum()
        agg["cust_nation"] = agg["src"].map(names)
        agg["supp_nation"] = agg["dst"].map(names)
        agg["revenue"] = round_half_away_np(
            agg["units"].to_numpy(np.float64) / 1e4, 2
        )
        return agg[["cust_nation", "supp_nation", "o_year", "revenue"]]

    return bucketed_group_apply(
        joined.map_batches(per_cell, batch_format="pyarrow"),
        ["src", "dst", "o_year"],
        final,
    )


def percent_rank_by_group(
    ds: rd.Dataset, group_col: str, value_col: str, out_col: str = "pr"
) -> rd.Dataset:
    """SQL percent_rank() OVER (PARTITION BY group ORDER BY value):
    (rank - 1) / (n - 1) with min-rank ties, 0 for single-row groups.
    Coarse-bucketed per-group evaluation (all rows of one group
    co-locate; the rank is an integer so the division is bit-identical
    to the oracle's)."""
    import numpy as np

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, g in df.groupby(group_col, sort=False):
            n = len(g)
            if n == 1:
                pr = np.zeros(1)
            else:
                rank = g[value_col].rank(method="min").to_numpy(np.float64)
                pr = (rank - 1.0) / float(n - 1)
            h = g.copy()
            h[out_col] = round_half_away_np(pr, 6)
            out.append(h)
        return pd.concat(out, ignore_index=True)

    return bucketed_group_apply(ds, group_col, per_bucket)


def customer_order_distribution(
    orders: rd.Dataset, customer: rd.Dataset
) -> rd.Dataset:
    """TPC-H Q13-shaped customer distribution: how many customers placed
    exactly c orders (in the caller's date window), INCLUDING the
    zero-order bucket a plain inner join would drop.

    Scale shape: the LEFT OUTER JOIN customer->orders never runs — only
    its aggregate is needed, so orders reduces to (custkey, n) partials
    inside map_batches, one coarse-bucketed sum yields per-customer
    counts, and a second two-level count collapses those to the
    histogram (domain = max orders per customer, tiny). The zero bucket
    is pure arithmetic: |customer| (a metadata count, no scan) minus the
    sum of the nonzero histogram (driver-collected, bounded by the
    count domain). The customer table itself never shuffles.

    Reference shape: TPC-H Q13 (SELECT c_count, count(*) FROM customer
    LEFT JOIN orders ... GROUP BY c_custkey) GROUP BY c_count)."""
    import numpy as np

    def per_cust_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {"c_custkey": batch.column("o_custkey").to_numpy(), "n": 1}
        )
        agg = df.groupby("c_custkey", as_index=False)["n"].sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    def per_bucket_sum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("c_custkey", as_index=False)["n"].sum()
        return pd.DataFrame(
            {"c_count": g["n"].astype("int64")}
        )

    counts = bucketed_group_apply(
        orders.map_batches(per_cust_partial, batch_format="pyarrow"),
        "c_custkey",
        per_bucket_sum,
    )

    def hist_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({"c_count": batch.column("c_count").to_numpy(), "m": 1})
        agg = df.groupby("c_count", as_index=False)["m"].sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    def hist_final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("c_count", as_index=False)["m"].sum()
        return pd.DataFrame(
            {
                "c_count": g["c_count"].astype("int64"),
                "custdist": g["m"].astype("int64"),
            }
        )

    hist = bucketed_group_apply(
        counts.map_batches(hist_partial, batch_format="pyarrow"),
        "c_count",
        hist_final,
    )
    # the histogram is bounded by the per-customer count domain (tens of
    # rows at any scale), so driver collection here is safe
    rows = hist.take_all()
    n_customers = customer.count()
    n_nonzero = int(sum(r["custdist"] for r in rows))
    tbl = pa.Table.from_pydict(
        {
            "c_count": pa.array(
                [int(r["c_count"]) for r in rows] + [0], pa.int64()
            ),
            "custdist": pa.array(
                [int(r["custdist"]) for r in rows]
                + [int(n_customers - n_nonzero)],
                pa.int64(),
            ),
        }
    )
    return rd.from_arrow(tbl)


def small_quantity_revenue(
    lineitem: rd.Dataset, sf_dir: str, brand: str = "Brand#23"
) -> rd.Dataset:
    """TPC-H Q17-shaped small-quantity revenue: average yearly revenue
    lost if orders below 20% of a part's average order quantity were no
    longer taken, for one brand's parts.

    The reference formulation is a CORRELATED scalar subquery
    (l_quantity < 0.2 * avg(l_quantity) per part). Distributed shape:
    the correlation key IS the group key, so the subquery folds into a
    single group-local pass — a bucketed semi join restricts lineitem
    to the brand's parts (no part payload travels, no broadcast ceiling
    on the matching-part set), then one bucketed group-apply per
    partkey computes the average AND the below-threshold revenue sum in
    the same vectorized frame. The threshold compare is exact integer
    arithmetic: qty < 0.2*avg  <=>  qc*5*cnt < sum(qc) in quantity
    cents, so both engines agree bit-for-bit. Only (bucket, units)
    counter rows leave the group stage."""
    import numpy as np

    import pyarrow.parquet as _pq  # noqa: F401 — parity with siblings

    from .joins import bucketed_merge_join

    part = rd.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey"],
        filter=pc.field("p_brand") == brand,
    )
    li = bucketed_merge_join(
        lineitem,
        part,
        on="l_partkey",
        right_on="p_partkey",
        how="semi",
        left_schema=pa.schema(
            [
                ("l_partkey", pa.int64()),
                ("l_quantity", pa.float64()),
                ("l_extendedprice", pa.float64()),
            ]
        ),
        right_schema=pa.schema([("p_partkey", pa.int64())]),
    )

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        qc = np.round(df["l_quantity"].to_numpy(np.float64) * 100.0).astype(
            np.int64
        )
        pc_ = np.round(
            df["l_extendedprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        w = pd.DataFrame({"k": df["l_partkey"].to_numpy(), "qc": qc, "pc": pc_})
        g = w.groupby("k")
        s = g["qc"].transform("sum").to_numpy(np.int64)
        c = g["qc"].transform("count").to_numpy(np.int64)
        mask = w["qc"].to_numpy(np.int64) * 5 * c < s
        return pd.DataFrame(
            {"k": [0], "units": [int(w["pc"].to_numpy(np.int64)[mask].sum())]}
        )

    partials = bucketed_group_apply(li, "l_partkey", per_part)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "avg_yearly": [
                    round_half_away(
                        float(df["units"].sum()) / 100.0 / 7.0, 2
                    )
                ]
            }
        )

    return partials.groupby("k").map_groups(final, batch_format="pandas")


def disjunctive_revenue(lineitem: rd.Dataset, part: rd.Dataset) -> rd.Dataset:
    """TPC-H Q19-shaped disjunctive-predicate revenue: sum of discounted
    revenue where any of three (brand, size range, quantity range)
    branch conjunctions holds — predicates that straddle BOTH join
    sides, so no single side can evaluate them alone.

    Distributed shape: the caller pushes the ENVELOPE of the branches
    (union of quantity ranges, union of brands/sizes) into the two
    parquet reads — the cheap, sound part of the disjunction — then one
    bucketed partkey join co-locates the survivors and the residual
    branch masks evaluate vectorized (numpy boolean algebra) on the
    joined batches. Output is two global int64 counters; exact integer
    cents x (100 - discount-cents) units."""
    import numpy as np

    from .joins import bucketed_merge_join

    joined = bucketed_merge_join(
        lineitem,
        part,
        on="l_partkey",
        right_on="p_partkey",
        left_schema=pa.schema(
            [
                ("l_partkey", pa.int64()),
                ("l_quantity", pa.float64()),
                ("l_extendedprice", pa.float64()),
                ("l_discount", pa.float64()),
            ]
        ),
        right_schema=pa.schema(
            [
                ("p_partkey", pa.int64()),
                ("p_brand", pa.string()),
                ("p_size", pa.int32()),
            ]
        ),
        compact=True,
    )

    BRANCHES = [
        ("Brand#12", 1, 5, 1.0, 11.0),
        ("Brand#23", 1, 10, 10.0, 20.0),
        ("Brand#5", 1, 15, 20.0, 30.0),
    ]

    def partial(batch: pa.Table) -> pa.Table:
        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        size = batch.column("p_size").to_numpy(zero_copy_only=False)
        brand = batch.column("p_brand").to_pandas().to_numpy()
        keep = np.zeros(len(qty), dtype=bool)
        for b, s_lo, s_hi, q_lo, q_hi in BRANCHES:
            keep |= (
                (brand == b)
                & (size >= s_lo)
                & (size <= s_hi)
                & (qty >= q_lo)
                & (qty <= q_hi)
            )
        price_c = np.round(
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False)[keep]
            * 100.0
        ).astype(np.int64)
        disc_c = np.round(
            batch.column("l_discount").to_numpy(zero_copy_only=False)[keep]
            * 100.0
        ).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "k": pa.array([0], pa.int64()),
                "units": pa.array(
                    [int((price_c * (100 - disc_c)).sum())], pa.int64()
                ),
                "n_items": pa.array([int(keep.sum())], pa.int64()),
            }
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "revenue": [
                    round_half_away(float(g["units"].sum()) / 1e4, 2)
                ],
                "n_items": [int(g["n_items"].sum())],
            }
        )

    return (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby("k")
        .map_groups(final, batch_format="pandas")
    )


def sales_opportunity(
    sf_dir: str, cutoff: str = "2001-01-01"
) -> rd.Dataset:
    """TPC-H Q22-shaped sales opportunity: per nation, the count and
    total balance of customers whose account balance beats the average
    positive balance but who placed no order since ``cutoff``.

    Distributed shape for the two subqueries: the scalar one (global
    average positive balance) is a one-pass partial aggregate whose
    TWO integers (cent sum, count) come back to the driver — the
    above-average filter then runs row-local as bal_c * n > sum_c,
    exact in int64, no float average ever compared. The NOT EXISTS
    becomes a bucketed ANTI join against the date-pruned orders
    projection (one int64 column travels). The final per-nation rollup
    is 25 keys — partial counters inside map_batches, tiny groupby."""
    import numpy as np

    from .joins import bucketed_merge_join

    cust_cols = ["c_custkey", "c_nationkey", "c_acctbal"]

    def bal_partial(batch: pa.Table) -> pa.Table:
        bc = np.round(
            batch.column("c_acctbal").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        pos = bc[bc > 0]
        return pa.Table.from_pydict(
            {
                "k": pa.array([0], pa.int64()),
                "s": pa.array([int(pos.sum())], pa.int64()),
                "n": pa.array([len(pos)], pa.int64()),
            }
        )

    stats = (
        rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_acctbal"])
        .map_batches(bal_partial, batch_format="pyarrow")
        .groupby("k")
        .sum(["s", "n"])
        .take_all()
    )
    sum_c, n_pos = int(stats[0]["sum(s)"]), int(stats[0]["sum(n)"])

    def rich(batch: pa.Table) -> pa.Table:
        bc = np.round(
            batch.column("c_acctbal").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        keep = bc * n_pos > sum_c
        return pa.Table.from_pydict(
            {
                "c_custkey": pa.array(
                    batch.column("c_custkey").to_numpy()[keep], pa.int64()
                ),
                "c_nationkey": pa.array(
                    batch.column("c_nationkey")
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64)[keep],
                    pa.int64(),
                ),
                "bal_c": pa.array(bc[keep], pa.int64()),
            }
        )

    candidates = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=cust_cols
    ).map_batches(rich, batch_format="pyarrow")

    recent = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey"],
        filter=pc.field("o_orderdate")
        >= pa.scalar(cutoff).cast(pa.timestamp("us")),
    )
    silent = bucketed_merge_join(
        candidates,
        recent,
        on="c_custkey",
        right_on="o_custkey",
        how="anti",
        left_schema=pa.schema(
            [
                ("c_custkey", pa.int64()),
                ("c_nationkey", pa.int64()),
                ("bal_c", pa.int64()),
            ]
        ),
        right_schema=pa.schema([("o_custkey", pa.int64())]),
    )

    def nation_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "c_nationkey": batch.column("c_nationkey").to_numpy(),
                "numcust": 1,
                "bal_c": batch.column("bal_c").to_numpy(),
            }
        )
        agg = df.groupby("c_nationkey", as_index=False).agg(
            numcust=("numcust", "sum"), bal_c=("bal_c", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("c_nationkey", as_index=False).agg(
            numcust=("numcust", "sum"), bal_c=("bal_c", "sum")
        )
        return pd.DataFrame(
            {
                "c_nationkey": g["c_nationkey"].astype("int64"),
                "numcust": g["numcust"].astype("int64"),
                "totacctbal": round_half_away_np(
                    g["bal_c"].to_numpy(np.float64) / 100.0, 2
                ),
            }
        )

    return bucketed_group_apply(
        silent.map_batches(nation_partial, batch_format="pyarrow"),
        "c_nationkey",
        final,
    )


def fraction_of_total(
    lineitem: rd.Dataset, mean_mult_num: int = 5, mean_mult_den: int = 4
) -> rd.Dataset:
    """TPC-H Q11-shaped important-stock filter: the part keys whose
    lineitem revenue exceeds ``mean_mult_num/mean_mult_den`` times the
    MEAN per-key revenue — a HAVING clause against a scalar subquery
    over the same aggregation. (TPC-H's fixed global fraction is
    scale-UNSTABLE — 0.01%/SF of total shrinks per-key as the key count
    grows and selects nothing at 10x — so the threshold here is
    relative to the mean share, which keeps the survivor fraction
    stable at any scale; s > m·mean  <=>  s·n·den > num·total, exact
    in integers.)

    Distributed shape: the per-key cent sums build once (per-batch
    partials, one coarse-bucketed sum) and MATERIALIZE — the key-sum
    table is bounded by |part| rows, orders of magnitude under the
    lineitem input, and holding it lets all three consumers (the
    global total, the key count, and the threshold filter) run
    without a second corpus scan. The total comes back as ONE int via
    Dataset.sum; the filter is row-local exact integer compare."""
    import numpy as np

    def per_part(batch: pa.Table) -> pa.Table:
        price_c = np.round(
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
            * 100.0
        ).astype(np.int64)
        df = pd.DataFrame(
            {"l_partkey": batch.column("l_partkey").to_numpy(), "s": price_c}
        )
        agg = df.groupby("l_partkey", as_index=False)["s"].sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_partkey", as_index=False)["s"].sum()
        return g.astype({"l_partkey": "int64", "s": "int64"})

    keysums = bucketed_group_apply(
        lineitem.map_batches(per_part, batch_format="pyarrow"),
        "l_partkey",
        per_bucket,
    ).materialize()  # one row per part key; consumed three times below

    total = int(keysums.sum("s"))
    n_keys = keysums.count()

    # integer-exact threshold, overflow-free at any scale: for integer s,
    # s*n*den > num*total  <=>  s > floor(num*total / (n*den)) — the
    # division happens ONCE in arbitrary-precision Python ints, the
    # per-row compare stays a single vectorized int64 op
    thr = (mean_mult_num * total) // (int(n_keys) * mean_mult_den)

    def keep(batch: pa.Table) -> pa.Table:
        s = batch.column("s").to_numpy(zero_copy_only=False).astype(np.int64)
        mask = s > thr
        return pa.Table.from_pydict(
            {
                "l_partkey": pa.array(
                    batch.column("l_partkey").to_numpy()[mask], pa.int64()
                ),
                "value": pa.array(
                    round_half_away_np(s[mask].astype(np.float64) / 100.0, 2),
                    pa.float64(),
                ),
            }
        )

    return keysums.map_batches(keep, batch_format="pyarrow")


def market_share(
    sf_dir: str, region: str = "ASIA", nation: str = "NATION_7"
) -> rd.Dataset:
    """TPC-H Q8-shaped market share: per order year, the fraction of
    ``region``'s customer-side revenue supplied by ``nation`` — the
    numerator/denominator conditional-aggregation pattern where one
    groupby carries BOTH sums and one float division lands at the end.

    Distributed shape: supplier->is-target-nation and nation->region
    are broadcast dimension lookups (tiny); lineitem pre-aggregates
    exact integer (units, units from the target nation) per orderkey
    inside map_batches; ONE bucketed orderkey join attaches (year,
    custkey); a second bucketed custkey join attaches the customer
    nation — the scale-safe alternative to broadcasting the customer
    table. The region filter then drops row-local and (year) partials
    collapse to a handful of rows; the share divides two exact int64
    sums once."""
    import numpy as np

    import pyarrow.parquet as pq
    import ray

    from .joins import bucketed_merge_join

    nat = pq.read_table(f"{sf_dir}/nation.parquet")
    reg = pq.read_table(f"{sf_dir}/region.parquet")
    rk = {
        int(k): n
        for k, n in zip(
            reg.column("r_regionkey").to_numpy(),
            reg.column("r_name").to_pylist(),
        )
    }
    # nationkey -> (is target nation, is in target region)
    target_nk = {
        int(k)
        for k, n in zip(
            nat.column("n_nationkey").to_numpy(),
            nat.column("n_name").to_pylist(),
        )
        if n == nation
    }
    region_nk = {
        int(k)
        for k, g in zip(
            nat.column("n_nationkey").to_numpy(),
            nat.column("n_regionkey").to_numpy(),
        )
        if rk[int(g)] == region
    }
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    sk = supp.column("s_suppkey").to_numpy().astype(np.int64)
    s_target = np.isin(
        supp.column("s_nationkey").to_numpy().astype(np.int64),
        np.array(sorted(target_nk), dtype=np.int64),
    )
    order_s = np.argsort(sk, kind="mergesort")
    supp_ref = ray.put((sk[order_s], s_target[order_s]))
    region_ref = ray.put(np.array(sorted(region_nk), dtype=np.int64))

    def per_order(batch: pa.Table) -> pa.Table:
        keys, is_t = resolve_broadcast(supp_ref)
        s = batch.column("l_suppkey").to_numpy()
        pos = np.searchsorted(keys, s)
        t = is_t[np.minimum(pos, len(keys) - 1)]
        price_c = np.round(
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
            * 100.0
        ).astype(np.int64)
        disc_c = np.round(
            batch.column("l_discount").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        units = price_c * (100 - disc_c)
        df = pd.DataFrame(
            {
                "l_orderkey": batch.column("l_orderkey").to_numpy(),
                "units": units,
                "units_n": np.where(t, units, 0),
            }
        )
        agg = df.groupby("l_orderkey", as_index=False)[
            ["units", "units_n"]
        ].sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(per_order, batch_format="pyarrow")

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    with_orders = bucketed_merge_join(
        li,
        orders,
        on="l_orderkey",
        right_on="o_orderkey",
        left_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("units", pa.int64()),
                ("units_n", pa.int64()),
            ]
        ),
        right_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("o_custkey", pa.int64()),
                ("o_orderdate", pa.timestamp("us")),
            ]
        ),
        compact=True,
    )

    def per_cust(batch: pa.Table) -> pa.Table:
        years = (
            batch.column("o_orderdate")
            .to_pandas()
            .dt.year.to_numpy()
            .astype(np.int64)
        )
        df = pd.DataFrame(
            {
                "o_custkey": batch.column("o_custkey").to_numpy(),
                "o_year": years,
                "units": batch.column("units").to_numpy(zero_copy_only=False),
                "units_n": batch.column("units_n").to_numpy(
                    zero_copy_only=False
                ),
            }
        )
        agg = df.groupby(["o_custkey", "o_year"], as_index=False)[
            ["units", "units_n"]
        ].sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    with_cust = bucketed_merge_join(
        with_orders.map_batches(per_cust, batch_format="pyarrow"),
        cust,
        on="o_custkey",
        right_on="c_custkey",
        left_schema=pa.schema(
            [
                ("o_custkey", pa.int64()),
                ("o_year", pa.int64()),
                ("units", pa.int64()),
                ("units_n", pa.int64()),
            ]
        ),
        right_schema=pa.schema(
            [("c_custkey", pa.int64()), ("c_nationkey", pa.int32())]
        ),
        compact=True,
    )

    def per_year(batch: pa.Table) -> pa.Table:
        rnk = resolve_broadcast(region_ref)
        nk = (
            batch.column("c_nationkey")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        keep = np.isin(nk, rnk)
        df = pd.DataFrame(
            {
                "o_year": batch.column("o_year").to_numpy(
                    zero_copy_only=False
                )[keep],
                "units": batch.column("units").to_numpy(zero_copy_only=False)[
                    keep
                ],
                "units_n": batch.column("units_n").to_numpy(
                    zero_copy_only=False
                )[keep],
            }
        )
        agg = df.groupby("o_year", as_index=False)[["units", "units_n"]].sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_year", as_index=False)[["units", "units_n"]].sum()
        return pd.DataFrame(
            {
                "o_year": g["o_year"].astype("int64"),
                "mkt_share": round_half_away_np(
                    g["units_n"].to_numpy(np.float64)
                    / g["units"].to_numpy(np.float64),
                    6,
                ),
            }
        )

    return bucketed_group_apply(
        with_cust.map_batches(per_year, batch_format="pyarrow"),
        "o_year",
        final,
    )


def order_priority_count(
    orders: rd.Dataset,
    lineitem: rd.Dataset,
    grace_days: int = 30,
) -> rd.Dataset:
    """TPC-H Q4-shaped order-priority check: count orders per priority
    that had at least one line item shipped more than ``grace_days``
    after the order date — the correlated EXISTS subquery turned into a
    max-reduce + join. Reference parity: the OCR platform's job listing
    filters jobs whose any-page status breaches an SLA the same way
    (apps/api/app/api/v1/routes_jobs.py list/status path).

    Scale shape: the EXISTS predicate ``any(l_shipdate > o_orderdate +
    grace)`` is equivalent to ``max(l_shipdate) > o_orderdate + grace``,
    so lineitem (the 100 TB side) reduces FIRST to one (orderkey,
    max_ship) row per order via a per-batch polars max partial + coarse
    bucketed exact merge; only those narrow partials shuffle. The pruned
    quarter of orders then bucket-joins the reduced side and the final
    per-priority count is a five-row groupby. No driver collection, no
    broadcast of anything unbounded."""
    import numpy as np

    def partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        d = pl.from_arrow(batch)
        return (
            d.group_by("l_orderkey")
            .agg(pl.col("l_shipdate").max().alias("max_ship"))
            .to_arrow()
        )

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_orderkey", as_index=False)["max_ship"].max()
        return g

    reduced = bucketed_group_apply(
        lineitem.map_batches(partial, batch_format="pyarrow"),
        "l_orderkey",
        per_bucket,
    )
    from .joins import bucketed_merge_join

    joined = bucketed_merge_join(
        orders,
        reduced,
        on="o_orderkey",
        right_on="l_orderkey",
        left_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("o_orderdate", pa.timestamp("us")),
                ("o_orderpriority", pa.string()),
            ]
        ),
        right_schema=pa.schema(
            [("l_orderkey", pa.int64()), ("max_ship", pa.timestamp("us"))]
        ),
        compact=True,
    )
    grace_us = np.int64(grace_days) * np.int64(86_400_000_000)

    def count_partial(batch: pa.Table) -> pa.Table:
        od = batch.column("o_orderdate").to_numpy(zero_copy_only=False)
        ms = batch.column("max_ship").to_numpy(zero_copy_only=False)
        late = ms.astype("datetime64[us]").view("int64") > (
            od.astype("datetime64[us]").view("int64") + grace_us
        )
        df = pd.DataFrame(
            {
                "o_orderpriority": np.asarray(
                    batch.column("o_orderpriority").to_pylist(), dtype=object
                )[late]
            }
        )
        agg = df.groupby("o_orderpriority", as_index=False).size()
        agg = agg.rename(columns={"size": "order_count"})
        return pa.Table.from_pandas(agg, preserve_index=False)

    partials = joined.map_batches(count_partial, batch_format="pyarrow")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_orderpriority": [g["o_orderpriority"].iloc[0]],
                "order_count": [int(g["order_count"].sum())],
            }
        )

    return partials.groupby("o_orderpriority").map_groups(
        final, batch_format="pandas"
    )


def priority_line_counts(
    lineitem: rd.Dataset,
    orders: rd.Dataset,
    high: tuple[str, ...] = ("1-URGENT", "2-HIGH"),
) -> rd.Dataset:
    """TPC-H Q12-shaped shipping-mode check (adapted: the synthetic
    lineitem has no l_shipmode, so l_returnflag is the grouping axis):
    per flag, how many shipped lines belonged to HIGH-priority orders vs
    lower — the CASE-conditional aggregate over a fact-to-dimension join.

    Scale shape: lineitem reduces FIRST to one (orderkey, flag, n) count
    row per distinct pair per batch (<= 3x orders rows total), the
    bucketed join attaches o_orderpriority, and the conditional sums
    collapse per batch before a <=3-row final groupby. Counts are exact
    integers on both engines."""

    def partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        d = pl.from_arrow(batch)
        return (
            d.group_by(["l_orderkey", "l_returnflag"])
            .agg(pl.len().cast(pl.Int64).alias("n"))
            .to_arrow()
        )

    from .joins import bucketed_merge_join

    joined = bucketed_merge_join(
        lineitem.map_batches(partial, batch_format="pyarrow"),
        orders,
        on="l_orderkey",
        right_on="o_orderkey",
        left_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("l_returnflag", pa.string()),
                ("n", pa.int64()),
            ]
        ),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_orderpriority", pa.string())]
        ),
        compact=True,
    )
    high_set = list(high)

    def cond_partial(batch: pa.Table) -> pa.Table:
        import numpy as np

        n = batch.column("n").to_numpy(zero_copy_only=False)
        is_high = pc.is_in(
            batch.column("o_orderpriority"), value_set=pa.array(high_set)
        ).to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "l_returnflag": batch.column("l_returnflag").to_pylist(),
                "high_line_count": np.where(is_high, n, 0),
                "low_line_count": np.where(is_high, 0, n),
            }
        )
        agg = df.groupby("l_returnflag", as_index=False)[
            ["high_line_count", "low_line_count"]
        ].sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    partials = joined.map_batches(cond_partial, batch_format="pyarrow")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_returnflag": [g["l_returnflag"].iloc[0]],
                "high_line_count": [int(g["high_line_count"].sum())],
                "low_line_count": [int(g["low_line_count"].sum())],
            }
        )

    return partials.groupby("l_returnflag").map_groups(
        final, batch_format="pandas"
    )


def waiting_suppliers(
    sf_dir: str,
    late_days: int = 60,
    k: int = 20,
) -> rd.Dataset:
    """TPC-H Q21-shaped "suppliers who kept orders waiting": for
    finished ('F') multi-supplier orders where EXACTLY ONE supplier
    shipped a line more than ``late_days`` after the order date, count
    qualifying orders per that sole late supplier — the
    semi-join + double anti-join of Q21 folded into one group-local
    pass per order. Adapted predicate: the synthetic lineitem has no
    commit/receipt dates, so late = l_shipdate > o_orderdate + interval.

    Scale shape: lineitem is pre-shrunk per batch to distinct
    (orderkey, suppkey, late-flag OR-merged) rows, joined (bucketed) to
    the pruned 'F' orders for the date, then ONE bucketed group pass per
    orderkey computes n_distinct_suppliers / n_late / the sole late
    suppkey — all vectorized polars inside the bucket. Per-supplier
    counts merge in a tiny groupby and the supplier dimension (bounded:
    ~10k/sf rows) is broadcast once via ray.put for the name lookup."""
    import numpy as np
    import pyarrow.parquet as pq

    import ray

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate"],
        filter=pc.field("o_orderstatus") == "F",
    )
    lineitem = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    )

    def pair_partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        d = pl.from_arrow(batch)
        return (
            d.group_by(["l_orderkey", "l_suppkey"])
            .agg(pl.col("l_shipdate").max().alias("max_ship"))
            .to_arrow()
        )

    from .joins import bucketed_merge_join

    joined = bucketed_merge_join(
        lineitem.map_batches(pair_partial, batch_format="pyarrow"),
        orders,
        on="l_orderkey",
        right_on="o_orderkey",
        left_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("max_ship", pa.timestamp("us")),
            ]
        ),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_orderdate", pa.timestamp("us"))]
        ),
        compact=True,
    )
    late_us = np.int64(late_days) * np.int64(86_400_000_000)

    def per_order_bucket(t: pa.Table) -> pa.Table:
        import polars as pl

        d = pl.from_arrow(t).with_columns(
            (
                pl.col("max_ship").cast(pl.Int64)
                > pl.col("o_orderdate").cast(pl.Int64) + int(late_us)
            ).alias("late")
        )
        per_order = d.group_by("l_orderkey").agg(
            pl.col("l_suppkey").n_unique().cast(pl.Int64).alias("n_supp"),
            pl.col("l_suppkey")
            .filter(pl.col("late"))
            .n_unique()
            .cast(pl.Int64)
            .alias("n_late"),
            pl.col("l_suppkey")
            .filter(pl.col("late"))
            .max()
            .alias("late_supp"),
        )
        hits = per_order.filter(
            (pl.col("n_supp") > 1) & (pl.col("n_late") == 1)
        )
        agg = hits.group_by("late_supp").agg(
            pl.len().cast(pl.Int64).alias("numwait")
        )
        return agg.rename({"late_supp": "s_suppkey"}).to_arrow()

    per_supp = bucketed_group_apply(
        joined, "l_orderkey", per_order_bucket, batch_format="pyarrow"
    )

    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    names_ref = ray.put(
        dict(
            zip(
                supp.column("s_suppkey").to_pylist(),
                supp.column("s_name").to_pylist(),
            )
        )
    )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("s_suppkey", as_index=False)["numwait"].sum()
        lk = resolve_broadcast(names_ref)
        return pd.DataFrame(
            {
                "s_name": agg["s_suppkey"].map(lk),
                "numwait": agg["numwait"].astype("int64"),
            }
        )

    merged = bucketed_group_apply(per_supp, "s_suppkey", final, n_buckets=64)
    # s_name is unique, so (numwait DESC, s_name ASC) is a total order —
    # the head-k cut is deterministic on both engines
    return merged.sort(["numwait", "s_name"], descending=[True, False]).limit(k)


def part_supplier_counts(
    sf_dir: str,
    exclude_brand: str = "Brand#45",
    exclude_type_prefix: str = "PROMO",
    sizes: tuple[int, ...] = (1, 5, 10, 15, 20, 25, 30, 35),
    min_acctbal: float = 1000.0,
) -> rd.Dataset:
    """TPC-H Q16-shaped supplier-count-per-part-descriptor (adapted:
    no partsupp table, so the shipped (l_partkey, l_suppkey) pairs stand
    in for partsupp; the "customer complaints" NOT IN exclusion becomes
    suppliers below ``min_acctbal``): per (brand, type, size), how many
    DISTINCT eligible suppliers shipped such a part.

    Scale shape: the excluded-supplier keyset (bounded by the supplier
    dimension) broadcasts once via ray.put and filters with np.isin; the
    100 TB lineitem side shrinks per batch to distinct (partkey,
    suppkey) pairs before the bucketed join with the pruned part
    dimension; the count-distinct then runs as a SECOND bucketed pass
    keyed by the descriptor triple (distinct suppliers must dedup ACROSS
    partkeys sharing a descriptor, so the two passes use different
    keys). Counts are exact integers."""
    import numpy as np
    import pyarrow.parquet as pq

    import ray

    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_acctbal"]
    )
    bad = pc.less(supp.column("s_acctbal"), pa.scalar(min_acctbal))
    bad_keys = np.sort(
        supp.column("s_suppkey").filter(bad).to_numpy(zero_copy_only=False)
    )
    bad_ref = ray.put(bad_keys)

    part = rd.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_type", "p_size"],
        filter=(
            (pc.field("p_brand") != exclude_brand)
            & pc.field("p_size").isin(list(sizes))
        ),
    )
    lineitem = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )

    def pair_partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        ok = ~np.isin(
            batch.column("l_suppkey").to_numpy(zero_copy_only=False),
            resolve_broadcast(bad_ref),
        )
        d = pl.from_arrow(batch.filter(pa.array(ok)))
        return d.unique(["l_partkey", "l_suppkey"]).to_arrow()

    from .joins import bucketed_merge_join

    joined = bucketed_merge_join(
        lineitem.map_batches(pair_partial, batch_format="pyarrow"),
        part,
        on="l_partkey",
        right_on="p_partkey",
        left_schema=pa.schema(
            [("l_partkey", pa.int64()), ("l_suppkey", pa.int64())]
        ),
        right_schema=pa.schema(
            [
                ("p_partkey", pa.int64()),
                ("p_brand", pa.string()),
                ("p_type", pa.string()),
                ("p_size", pa.int32()),
            ]
        ),
        compact=True,
    )
    # the type-prefix exclusion is residual (LIKE has no parquet pushdown)
    def residual(batch: pa.Table) -> pa.Table:
        import polars as pl

        keep = pc.invert(
            pc.starts_with(batch.column("p_type"), exclude_type_prefix)
        )
        d = pl.from_arrow(batch.filter(keep)).with_columns(
            pl.col("p_size").cast(pl.Int64)
        )
        return d.unique(
            ["p_brand", "p_type", "p_size", "l_suppkey"]
        ).select(["p_brand", "p_type", "p_size", "l_suppkey"]).to_arrow()

    pairs = joined.map_batches(residual, batch_format="pyarrow")

    def count_bucket(t: pa.Table) -> pa.Table:
        import polars as pl

        d = pl.from_arrow(t)
        return (
            d.group_by(["p_brand", "p_type", "p_size"])
            .agg(
                pl.col("l_suppkey")
                .n_unique()
                .cast(pl.Int64)
                .alias("supplier_cnt")
            )
            .to_arrow()
        )

    return bucketed_group_apply(
        pairs,
        ["p_brand", "p_type", "p_size"],
        count_bucket,
        batch_format="pyarrow",
    )


def min_cost_supplier(
    sf_dir: str,
    region: str = "EUROPE",
    part_type: str = "STANDARD",
    max_size: int = 15,
    k: int = 100,
) -> rd.Dataset:
    """TPC-H Q2-shaped minimum-cost supplier (adapted: no partsupp
    table, so "supply cost" is the MINIMUM observed line price in
    integer cents per shipped (partkey, suppkey) pair; the part
    predicate is ``p_type = part_type AND p_size <= max_size``): for
    each qualifying part, the region's suppliers achieving that part's
    region-wide minimum cost, with account balance / nation attached —
    the correlated MIN subquery of Q2 (reference capability:
    order-by-aggregate listing, `apps/api/app/api/v1/routes_jobs.py`
    job listing sort) expressed as one per-partkey group pass.

    Scale shape: the region's supplier dimension (bounded) broadcasts
    once via ray.put — both as an np.isin eligibility filter on the
    100 TB lineitem scan and as the attribute lookup at the very end;
    lineitem shrinks per batch to min-cents per (partkey, suppkey)
    BEFORE the bucketed join with the pruned part dimension; the
    correlated min + keep-ties runs as ONE bucketed per-partkey group
    pass (partials re-min inside, all vectorized polars). Cost is
    exact integer cents end-to-end; the float division happens once on
    the k output rows. (s_acctbal DESC, n_name, s_name, p_partkey) is
    a total order (s_name unique per supplier, partkey distinct per
    supplier row), so the LIMIT cut is deterministic."""
    import numpy as np
    import pyarrow.parquet as pq

    import ray

    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name", "s_acctbal", "s_nationkey"],
    )
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    reg = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    rkeys = reg.column("r_regionkey").filter(
        pc.equal(reg.column("r_name"), region)
    )
    nmask = pc.is_in(nation.column("n_regionkey"), value_set=rkeys)
    nkeys = nation.column("n_nationkey").filter(nmask)
    nnames = dict(
        zip(
            nation.column("n_nationkey").filter(nmask).to_pylist(),
            nation.column("n_name").filter(nmask).to_pylist(),
        )
    )
    smask = pc.is_in(
        supp.column("s_nationkey"), value_set=nkeys.cast(pa.int32())
    )
    eligible = supp.filter(smask)
    attrs = {
        int(s): (float(b), str(n), nnames[int(nk)])
        for s, b, n, nk in zip(
            eligible.column("s_suppkey").to_pylist(),
            eligible.column("s_acctbal").to_pylist(),
            eligible.column("s_name").to_pylist(),
            eligible.column("s_nationkey").to_pylist(),
        )
    }
    keyset = np.sort(np.fromiter(attrs.keys(), dtype=np.int64))
    keys_ref = ray.put(keyset)
    attrs_ref = ray.put(attrs)

    part = rd.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey"],
        filter=(
            (pc.field("p_type") == part_type)
            & (pc.field("p_size") <= max_size)
        ),
    )
    lineitem = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice"],
    )

    def pair_min(batch: pa.Table) -> pa.Table:
        import polars as pl

        ok = np.isin(
            batch.column("l_suppkey").to_numpy(zero_copy_only=False),
            resolve_broadcast(keys_ref),
        )
        d = pl.from_arrow(batch.filter(pa.array(ok))).with_columns(
            (pl.col("l_extendedprice") * 100)
            .round()
            .cast(pl.Int64)
            .alias("cost_cents")
        )
        return (
            d.group_by(["l_partkey", "l_suppkey"])
            .agg(pl.col("cost_cents").min())
            .to_arrow()
        )

    from .joins import bucketed_merge_join

    joined = bucketed_merge_join(
        lineitem.map_batches(pair_min, batch_format="pyarrow"),
        part,
        on="l_partkey",
        right_on="p_partkey",
        how="semi",
        left_schema=pa.schema(
            [
                ("l_partkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("cost_cents", pa.int64()),
            ]
        ),
        right_schema=pa.schema([("p_partkey", pa.int64())]),
        compact=True,
    )

    def per_part(t: pa.Table) -> pa.Table:
        import polars as pl

        d = (
            pl.from_arrow(t)
            .group_by(["l_partkey", "l_suppkey"])
            .agg(pl.col("cost_cents").min())
        )
        return (
            d.filter(
                pl.col("cost_cents")
                == pl.col("cost_cents").min().over("l_partkey")
            )
            .to_arrow()
        )

    winners = bucketed_group_apply(
        joined, "l_partkey", per_part, batch_format="pyarrow"
    )

    def attach(batch: pa.Table) -> pa.Table:
        lk = resolve_broadcast(attrs_ref)
        rows = [
            lk[int(s)]
            for s in batch.column("l_suppkey").to_pylist()
        ]
        return pa.table(
            {
                "s_acctbal": pa.array(
                    [r[0] for r in rows], type=pa.float64()
                ),
                "s_name": pa.array([r[1] for r in rows], type=pa.string()),
                "n_name": pa.array([r[2] for r in rows], type=pa.string()),
                "p_partkey": batch.column("l_partkey"),
                "min_cost": pc.divide(
                    pc.cast(batch.column("cost_cents"), pa.float64()),
                    pa.scalar(100.0),
                ),
            }
        )

    out = winners.map_batches(attach, batch_format="pyarrow")
    return out.sort(
        ["s_acctbal", "n_name", "s_name", "p_partkey"],
        descending=[True, False, False, False],
    ).limit(k)


def accelerating_part_suppliers(
    sf_dir: str,
    nation: str = "NATION_3",
    name_prefix: str = "red ",
    year: int = 1997,
) -> rd.Dataset:
    """TPC-H Q20-shaped "suppliers with excess recent volume" (adapted:
    no partsupp/availqty, so the correlated-aggregate predicate becomes
    "the pair's ``year`` shipped quantity exceeds HALF its all-time
    shipped quantity"; Q20's ``p_name like 'forest%'`` keeps its shape
    via ``name_prefix``): the DISTINCT names of ``nation``'s suppliers
    having at least one such accelerating part.

    Scale shape: quantities are summed as integer centi-units (exact —
    the comparison is ``2*qty_year > qty_all`` in int64, no 0.5 float);
    the nation's supplier keyset (bounded) broadcasts via ray.put and
    prunes the 100 TB scan per batch BEFORE the per-(partkey, suppkey)
    partial sums; partials merge + the threshold test run in one
    bucketed pass; the prefix-filtered part dimension semi-joins
    bucketed (LIKE has no parquet pushdown, so the filter is residual
    on the pruned two-column read). Output is the tiny distinct-name
    list, totally ordered by the unique s_name."""
    import numpy as np
    import pyarrow.parquet as pq

    import ray

    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name", "s_nationkey"],
    )
    nat = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nkeys = nat.column("n_nationkey").filter(
        pc.equal(nat.column("n_name"), nation)
    )
    smask = pc.is_in(
        supp.column("s_nationkey"), value_set=nkeys.cast(pa.int32())
    )
    eligible = supp.filter(smask)
    names = dict(
        zip(
            eligible.column("s_suppkey").to_pylist(),
            eligible.column("s_name").to_pylist(),
        )
    )
    keyset = np.sort(np.fromiter(names.keys(), dtype=np.int64))
    keys_ref = ray.put(keyset)
    names_ref = ray.put(names)

    part = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    ).map_batches(
        lambda t: t.filter(
            pc.starts_with(t.column("p_name"), name_prefix)
        ).select(["p_partkey"]),
        batch_format="pyarrow",
    )
    lineitem = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
    )
    import datetime as _dt

    y0 = _dt.datetime(year, 1, 1)
    y1 = _dt.datetime(year + 1, 1, 1)

    def pair_partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        ok = np.isin(
            batch.column("l_suppkey").to_numpy(zero_copy_only=False),
            resolve_broadcast(keys_ref),
        )
        d = pl.from_arrow(batch.filter(pa.array(ok))).with_columns(
            (pl.col("l_quantity") * 100)
            .round()
            .cast(pl.Int64)
            .alias("q_c")
        )
        d = d.with_columns(
            pl.when(
                (pl.col("l_shipdate") >= y0) & (pl.col("l_shipdate") < y1)
            )
            .then(pl.col("q_c"))
            .otherwise(0)
            .alias("q_y")
        )
        return (
            d.group_by(["l_partkey", "l_suppkey"])
            .agg(pl.col("q_c").sum().alias("qty_all"),
                 pl.col("q_y").sum().alias("qty_year"))
            .to_arrow()
        )

    from .joins import bucketed_merge_join

    pairs = bucketed_merge_join(
        lineitem.map_batches(pair_partial, batch_format="pyarrow"),
        part,
        on="l_partkey",
        right_on="p_partkey",
        how="semi",
        left_schema=pa.schema(
            [
                ("l_partkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("qty_all", pa.int64()),
                ("qty_year", pa.int64()),
            ]
        ),
        right_schema=pa.schema([("p_partkey", pa.int64())]),
        compact=True,
    )

    def merge_test(t: pa.Table) -> pa.Table:
        import polars as pl

        d = (
            pl.from_arrow(t)
            .group_by(["l_partkey", "l_suppkey"])
            .agg(pl.col("qty_all").sum(), pl.col("qty_year").sum())
        )
        hits = d.filter(pl.col("qty_year") * 2 > pl.col("qty_all"))
        return hits.select(pl.col("l_suppkey").unique()).to_arrow()

    winners = bucketed_group_apply(
        pairs, ["l_partkey", "l_suppkey"], merge_test,
        batch_format="pyarrow",
    )

    def to_names(t: pa.Table) -> pa.Table:
        import polars as pl

        lk = resolve_broadcast(names_ref)
        uniq = pl.from_arrow(t)["l_suppkey"].unique().to_list()
        return pa.table(
            {"s_name": pa.array(sorted(lk[int(s)] for s in uniq),
                                type=pa.string())}
        )

    # the distinct-suppkey set is tiny (bounded by one nation's
    # suppliers); one single-bucket group pass dedups across buckets and
    # resolves names in the same call
    final = bucketed_group_apply(
        winners, "l_suppkey", to_names, n_buckets=1,
        batch_format="pyarrow",
    )
    return final.sort("s_name")


def spearman_by_group(
    ds: rd.Dataset,
    group_col: str,
    x_col: str,
    y_col: str,
    max_distinct: int = 1_000_000,
    max_group_rows: int = 1_000_000,
) -> rd.Dataset:
    """Per-group Spearman rank correlation — the monotonic-association
    diagnostic (does length track token count? does quality rank follow
    LM score?) that, unlike :func:`corr_by_group`, is robust to
    outliers and nonlinear-but-monotone relationships.

    EXACT integer shape: with ties, Spearman is Pearson over AVERAGE
    ranks, and the average rank of value v in a group is
    (2·|{<v}| + |{=v}| + 1) / 2 — so DOUBLED ranks are integers
    (SQL: ``2*RANK() + COUNT(*) OVER (PARTITION BY g, v) - 1``), every
    moment (n, Σr, Σr², Σrxry) accumulates in int64 with NO float
    drift, and both engines evaluate one identical final float
    expression (6dp half-away round). Overflow guard: Σrxry ≤ 4n³, so
    int64 is exact up to ~1.3e6 rows per group — ``max_group_rows``
    raises loudly beyond that (the 100 TB path would switch to the
    centered-float co-moment scheme of :func:`corr_by_group`).

    Distributed shape (two streamed passes, no per-row shuffle):
    pass 1 aggregates distinct (group, value) COUNTS per batch (a
    combiner: output is bounded by distinct values, not rows), merges
    them in one small groupby, collects under the loud ``max_distinct``
    guard, and broadcasts per-group sorted value arrays with their
    doubled-rank prefix sums via ray.put; pass 2 maps every row to its
    doubled ranks by searchsorted and emits per-(batch, group) int64
    moment partials — one tiny groupby merge computes the final rho.
    """
    import numpy as np
    import ray

    def count_partial(batch: pa.Table) -> pa.Table:
        out = []
        for col, tag in ((x_col, 0), (y_col, 1)):
            df = pd.DataFrame(
                {
                    "g": batch.column(group_col).to_pandas(),
                    "v": batch.column(col).to_numpy(zero_copy_only=False)
                    .astype(np.float64),
                }
            )
            agg = df.groupby(["g", "v"], as_index=False).agg(
                c=("v", "size")
            )
            agg["axis"] = tag
            out.append(agg)
        return pa.Table.from_pandas(
            pd.concat(out, ignore_index=True), preserve_index=False
        )

    def count_merge(g: pd.DataFrame) -> pd.DataFrame:
        # one call per BUCKET (bucketed_group_apply), vectorized sub-group
        return g.groupby(["g", "v", "axis"], as_index=False).agg(
            c=("c", "sum")
        )

    from .dedup import shuffle_blocks

    cols = ds.select_columns([group_col, x_col, y_col])
    partials = cols.map_batches(
        count_partial, batch_format="pyarrow", batch_size=4096
    )
    # compact the many tiny per-batch partial blocks before the bucketed
    # groupby (the window-merge idiom) — the distinct-count stream is a
    # combiner output, orders of magnitude smaller than the corpus
    # limit().to_pandas(), NOT take(): take() row-iterates the pandas
    # blocks map_groups emits (~ms per ROW); to_pandas concatenates them
    # vectorized (measured 3.7 s -> 0.2 s for 2.5k rows at sf0.1)
    counts_df = (
        bucketed_group_apply(
            partials.repartition(shuffle_blocks()),
            ["g", "v", "axis"],
            count_merge,
            batch_format="pandas",
            n_buckets=shuffle_blocks(),
        )
        .limit(max_distinct + 1)
        .to_pandas()
    )
    if len(counts_df) > max_distinct:
        raise ValueError(
            f"spearman_by_group: > {max_distinct} distinct (group, value) "
            "pairs — raise max_distinct deliberately or bin the values"
        )
    # per (group, axis): sorted values + doubled-rank array
    maps: dict[tuple, tuple] = {}
    for (g, axis), sub in counts_df.groupby(["g", "axis"], sort=False):
        sub = sub.sort_values("v", kind="mergesort")
        vals = sub["v"].to_numpy(dtype=np.float64)
        cnts = sub["c"].to_numpy(dtype=np.int64)
        n_g = int(cnts.sum())
        if n_g > max_group_rows:
            raise ValueError(
                f"spearman_by_group: group {g!r} has {n_g} rows — int64 "
                "rank moments overflow beyond ~1.3e6; raise "
                "max_group_rows only after switching to float co-moments"
            )
        before = np.concatenate(([0], np.cumsum(cnts)[:-1]))
        rank2 = 2 * before + cnts + 1  # doubled average rank, int64
        maps[(g, axis)] = (vals, rank2)
    gkeys = sorted({g for (g, _) in maps})
    maps_ref = ray.put((gkeys, maps))

    def moment_partial(batch: pa.Table) -> pa.Table:
        keys, mp = resolve_broadcast(maps_ref)
        g = batch.column(group_col).to_pandas().to_numpy()
        x = batch.column(x_col).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        y = batch.column(y_col).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        recs = []
        for gk in pd.unique(g):
            m = g == gk
            vx, rx_map = mp[(gk, 0)]
            vy, ry_map = mp[(gk, 1)]
            rx = rx_map[np.searchsorted(vx, x[m])]
            ry = ry_map[np.searchsorted(vy, y[m])]
            recs.append(
                {
                    "g": gk,
                    "n": int(m.sum()),
                    "sx": int(rx.sum()),
                    "sy": int(ry.sum()),
                    "sxy": int((rx * ry).sum()),
                    "sx2": int((rx * rx).sum()),
                    "sy2": int((ry * ry).sum()),
                }
            )
        return pa.Table.from_pylist(recs)

    def rho_merge(g: pd.DataFrame) -> pd.DataFrame:
        n = int(g["n"].sum())
        sx, sy = int(g["sx"].sum()), int(g["sy"].sum())
        sxy = int(g["sxy"].sum())
        sx2, sy2 = int(g["sx2"].sum()), int(g["sy2"].sum())
        dx = n * sx2 - sx * sx
        dy = n * sy2 - sy * sy
        if dx == 0 or dy == 0:
            rho = float("nan")  # constant column -> undefined (SQL NULL)
        else:
            rho = round_half_away(
                float(n * sxy - sx * sy)
                / (np.sqrt(float(dx)) * np.sqrt(float(dy))),
                6,
            )
        return pd.DataFrame(
            {group_col: [g["g"].iloc[0]], "n": [n], "spearman": [rho]}
        )

    return (
        cols.map_batches(
            moment_partial, batch_format="pyarrow", batch_size=4096
        )
        .groupby("g")
        .map_groups(rho_merge, batch_format="pandas")
    )


def auc_by_group(
    ds: rd.Dataset,
    group_col: str,
    score_col: str,
    label_col: str,
    max_cells: int = 1_000_000,
) -> rd.Dataset:
    """Per-group ROC AUC of an INTEGER score ranking a binary label —
    the classifier-quality audit (does doc length actually discriminate
    English docs? does a quality score rank gold labels above noise?).
    AUC is the Mann–Whitney statistic normalized to [0, 1]:
    AUC = (R_pos − n_pos(n_pos+1)/2) / (n_pos · n_neg) with tie-averaged
    (midrank) ranks, so ties contribute 1/2 — the standard trapezoidal
    ROC area.

    Exactness (the mannwhitney_by_group scheme): one streamed pass of
    per-batch (group, score) → (n, n_pos) integer partials — the shuffle
    carries score-histogram cells, never rows; driver merge under a loud
    ``max_cells`` guard (the score domain bounds driver state — pre-bin
    a float score at 100 TB). Midranks are half-integers from exact
    cumulative counts; every product/sum both engines compute is exactly
    representable (< 2^53), so the 6dp value-hash match is exact with no
    op-order mirroring needed beyond the final division.

    Emits one row per group: (group, n_pos, n_neg, auc); auc is NULL
    when either class is empty (AUC undefined)."""
    import numpy as np

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": batch.column(group_col).to_pylist(),
                "s": batch.column(score_col).to_numpy().astype(np.int64),
                "y": batch.column(label_col)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
            }
        )
        agg = df.groupby(["g", "s"], as_index=False).agg(
            n=("y", "size"), npos=("y", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    rows = ds.select_columns([group_col, score_col, label_col]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_cells + 1)
    if len(rows) > max_cells:
        raise ValueError(
            f"auc_by_group: > {max_cells} (group, score) partials — "
            "pre-bin the score column or raise max_cells deliberately"
        )
    out_g: list = []
    out_np: list = []
    out_nn: list = []
    out_auc: list = []
    if rows:
        df = pd.DataFrame(rows, columns=["g", "s", "n", "npos"])
        cnt = df.groupby(["g", "s"], as_index=False).agg(
            n=("n", "sum"), npos=("npos", "sum")
        )
        for g, sub in cnt.groupby("g", sort=True):
            sub = sub.sort_values("s", kind="mergesort")
            n = sub["n"].to_numpy(np.int64)
            npos = sub["npos"].to_numpy(np.int64)
            cum_before = np.cumsum(n) - n
            # tie-averaged rank of every occurrence at score s:
            #   (count below s) + (count at s + 1)/2 — a half-integer
            midrank = cum_before.astype(np.float64) + (
                n + 1
            ).astype(np.float64) / 2.0
            n_pos = int(npos.sum())
            n_neg = int(n.sum()) - n_pos
            out_g.append(g)
            out_np.append(n_pos)
            out_nn.append(n_neg)
            if n_pos == 0 or n_neg == 0:
                out_auc.append(None)
                continue
            r_pos = float((npos.astype(np.float64) * midrank).sum())
            auc = (
                r_pos - float(n_pos) * (float(n_pos) + 1.0) / 2.0
            ) / (float(n_pos) * float(n_neg))
            out_auc.append(round_half_away(auc, 6))
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                group_col: pa.array(out_g, pa.string()),
                "n_pos": pa.array(out_np, pa.int64()),
                "n_neg": pa.array(out_nn, pa.int64()),
                "auc": pa.array(out_auc, pa.float64()),
            }
        )
    )


def categorical_mutual_info(
    ds: rd.Dataset,
    a_col: str,
    b_col: str,
    max_cells: int = 100_000,
) -> rd.Dataset:
    """Mutual information (bits) between two categorical columns, plus
    the marginal entropies and the normalized MI — the label-leakage /
    association audit (how much does source predict lang? a high NMI
    means per-source sampling silently skews the language mix).
    MI = Σ_ij (n_ij/N)·log2(N·n_ij / (n_i·n_j)), H = −Σ p·log2 p,
    NMI = MI / max(H_a, H_b) (0 when either entropy is 0).

    Exactness: one streamed pass of per-batch (a, b) integer crosstab
    partials (the chi-square shape — cells bound driver state, loud
    guard); every count both engines see is identical, the log2 terms
    are evaluated per CELL and summed over the ≤max_cells crosstab in
    sorted-cell order on the engine side — the 6dp half-away round
    absorbs libm/summation-order ulps (the js_divergence contract)."""
    import numpy as np

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "a": batch.column(a_col).to_pylist(),
                "b": batch.column(b_col).to_pylist(),
            }
        )
        agg = df.groupby(["a", "b"], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    rows = ds.select_columns([a_col, b_col]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_cells + 1)
    if len(rows) > max_cells:
        raise ValueError(
            f"categorical_mutual_info: > {max_cells} (a, b) cells — "
            "raise max_cells deliberately"
        )
    from . import round_half_away

    if not rows:
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "n_cells": pa.array([0], pa.int64()),
                    "mi_bits": pa.array([None], pa.float64()),
                    "h_a_bits": pa.array([None], pa.float64()),
                    "h_b_bits": pa.array([None], pa.float64()),
                    "nmi": pa.array([None], pa.float64()),
                }
            )
        )
    df = pd.DataFrame(rows, columns=["a", "b", "size"])
    cells = (
        df.groupby(["a", "b"], as_index=False)["size"].sum()
        .sort_values(["a", "b"], kind="mergesort")
    )
    n_ij = cells["size"].to_numpy(np.int64).astype(np.float64)
    n = float(n_ij.sum())
    na = cells.groupby("a")["size"].sum()
    nb = cells.groupby("b")["size"].sum()
    n_i = na.reindex(cells["a"]).to_numpy(np.int64).astype(np.float64)
    n_j = nb.reindex(cells["b"]).to_numpy(np.int64).astype(np.float64)
    mi = float(((n_ij / n) * np.log2(n * n_ij / (n_i * n_j))).sum())
    pa_ = na.to_numpy(np.int64).astype(np.float64) / n
    pb_ = nb.to_numpy(np.int64).astype(np.float64) / n
    h_a = float(-(pa_ * np.log2(pa_)).sum())
    h_b = float(-(pb_ * np.log2(pb_)).sum())
    hmax = max(h_a, h_b)
    nmi = None if hmax == 0.0 else mi / hmax
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "n_cells": pa.array([len(cells)], pa.int64()),
                "mi_bits": pa.array([round_half_away(mi, 6)], pa.float64()),
                "h_a_bits": pa.array([round_half_away(h_a, 6)], pa.float64()),
                "h_b_bits": pa.array([round_half_away(h_b, 6)], pa.float64()),
                "nmi": pa.array(
                    [None if nmi is None else round_half_away(nmi, 6)],
                    pa.float64(),
                ),
            }
        )
    )


def _joint_cells(
    ds: rd.Dataset,
    cols: list[str],
    max_cells: int,
    who: str,
) -> pd.DataFrame:
    """Shared combiner for value-histogram statistics: one streamed pass
    of per-batch distinct-``cols`` COUNT partials (output bounded by
    distinct cells, never rows), a bucketed merge, and a driver collect
    under a loud ``max_cells`` guard. Returns (cols..., c). At 100 TB
    the guard is the contract: pre-bin continuous values so the cell
    space stays driver-sized, exactly like the spearman/auc siblings."""
    from .dedup import shuffle_blocks

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(cols).to_pandas()
        agg = df.groupby(cols, as_index=False, sort=False).size()
        return pa.Table.from_pandas(
            agg.rename(columns={"size": "c"}), preserve_index=False
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(cols, as_index=False).agg(c=("c", "sum"))

    cells = (
        bucketed_group_apply(
            ds.select_columns(cols)
            .map_batches(partial, batch_format="pyarrow", batch_size=4096)
            .repartition(shuffle_blocks()),
            cols,
            merge,
            batch_format="pandas",
            n_buckets=shuffle_blocks(),
        )
        .limit(max_cells + 1)
        .to_pandas()
    )
    if len(cells) > max_cells:
        raise ValueError(
            f"{who}: > {max_cells} distinct cells — raise max_cells "
            "deliberately or bin the values first"
        )
    return cells


def kendall_tau_by_group(
    ds: rd.Dataset,
    group_col: str,
    x_col: str,
    y_col: str,
    max_cells: int = 1_000_000,
    chunk: int = 1024,
) -> rd.Dataset:
    """Per-group Kendall tau-b — the ordinal-association audit that
    complements spearman_by_group: tau counts CONCORDANT vs DISCORDANT
    pairs directly, so it is interpretable as a probability difference
    and markedly more robust to a few wild ranks than rho.

    EXACT all-integer shape: over the joint (x, y) value histogram of a
    group (cells (x_i, y_i, c_i)), concordant pairs
    C = Σ_{x_a<x_b, y_a<y_b} c_a·c_b and discordant D likewise with
    y_a>y_b — pure int64 products; marginal tie-pair counts
    n1 = Σ_x c_x(c_x−1)/2, n2 likewise on y, and n0 = n(n−1)/2. Both
    engines then evaluate ONE mirrored float expression
    tau_b = (C − D) / (sqrt(n0−n1)·sqrt(n0−n2)), 6dp half-away
    (NULL when either marginal is constant). The SQL oracle is the
    literal cells self-join, so the value-hash match is exact.

    Distributed shape: the corpus pass is the `_joint_cells` combiner
    (shuffle carries distinct-cell counts, never rows); the pair count
    runs on the collected cells per group as CHUNKED numpy O(m²/chunk)
    matmuls — vectorized, no Python pair loop. m is bounded by the loud
    ``max_cells`` guard; at 100 TB pre-bin x/y so cells stay bounded
    (the spearman/auc contract)."""
    import numpy as np

    cells = _joint_cells(
        ds, [group_col, x_col, y_col], max_cells, "kendall_tau_by_group"
    )
    if not len(cells):
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    group_col: pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "tau": pa.array([], pa.float64()),
                }
            )
        )
    recs = []
    for gk, sub in cells.groupby(group_col, sort=True):
        x = sub[x_col].to_numpy(np.float64)
        y = sub[y_col].to_numpy(np.float64)
        c = sub["c"].to_numpy(np.int64)
        n = int(c.sum())
        n0 = n * (n - 1) // 2
        sx = pd.Series(c).groupby(x).sum().to_numpy(np.int64)
        sy = pd.Series(c).groupby(y).sum().to_numpy(np.int64)
        n1 = int((sx * (sx - 1) // 2).sum())
        n2 = int((sy * (sy - 1) // 2).sum())
        C = 0
        D = 0
        for lo in range(0, len(c), chunk):
            hi = min(lo + chunk, len(c))
            xlt = x[lo:hi, None] < x[None, :]
            ylt = y[lo:hi, None] < y[None, :]
            ygt = y[lo:hi, None] > y[None, :]
            C += int(((xlt & ylt).astype(np.int64) @ c) @ c[lo:hi])
            D += int(((xlt & ygt).astype(np.int64) @ c) @ c[lo:hi])
        dx, dy = n0 - n1, n0 - n2
        if dx > 0 and dy > 0:
            tau = round_half_away(
                float(C - D) / (np.sqrt(float(dx)) * np.sqrt(float(dy))),
                6,
            )
        else:
            tau = None
        recs.append({group_col: gk, "n": n, "tau": tau})
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                group_col: pa.array([r[group_col] for r in recs]),
                "n": pa.array([r["n"] for r in recs], pa.int64()),
                "tau": pa.array([r["tau"] for r in recs], pa.float64()),
            }
        )
    )


def kruskal_wallis(
    ds: rd.Dataset,
    group_col: str,
    value_col: str,
    max_cells: int = 1_000_000,
) -> rd.Dataset:
    """Kruskal–Wallis H (one-way ANOVA on ranks, tie-corrected) — does
    the VALUE distribution differ across groups at all: the k-sample
    generalization of mannwhitney_by_group and the gatekeeper a curation
    pipeline runs before trusting any per-group threshold (if doc length
    doesn't differ by language, per-language length cuts are noise).

    EXACT midrank shape (recipe of the mannwhitney/auc siblings):
    doubled midranks r2_v = 2·|{<v}| + |{=v}| + 1 are integers from the
    global value histogram; per-group doubled rank sums s2_g accumulate
    exactly (HUGEINT / python int). To avoid the catastrophic
    cancellation of the textbook Σ R²/n − 3(N+1) form (float error there
    scales with N³, which 6dp does NOT absorb at sf0.1), both engines
    evaluate the algebraically identical DEVIATION form
        H = 3/(N(N+1)) · Σ_g d_g²/n_g,   d_g = s2_g − n_g·(N+1)
    (d_g = 2·n_g·(mean_rank_g − grand_mean_rank), an exact integer), then
    divide by the tie correction 1 − Σ(t³−t)/(N³−N). Every term is
    non-negative, so summation-order ulps stay relative and 6dp is safe.

    Distributed shape: one `_joint_cells` combiner pass (shuffle carries
    distinct (group, value) counts); rank arithmetic is driver-side
    integer work on the bounded cells. Emits ONE row (n, k, h); h NULL
    when every value is identical (tie correction 0)."""
    import numpy as np

    cells = _joint_cells(
        ds, [group_col, value_col], max_cells, "kruskal_wallis"
    )
    if not len(cells):
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "n": pa.array([], pa.int64()),
                    "k": pa.array([], pa.int64()),
                    "h": pa.array([], pa.float64()),
                }
            )
        )
    # global doubled midranks from the value marginal
    marg = cells.groupby(value_col, as_index=False).agg(t=("c", "sum"))
    marg = marg.sort_values(value_col, kind="mergesort")
    t = marg["t"].to_numpy(np.int64)
    before = np.concatenate(([0], np.cumsum(t)[:-1]))
    r2 = 2 * before + t + 1
    rank_of = dict(zip(marg[value_col].tolist(), r2.tolist()))
    N = int(t.sum())
    tie_sum = int(sum(int(tv) ** 3 - int(tv) for tv in t))
    S = 0.0
    k = 0
    for gk, sub in cells.groupby(group_col, sort=True):
        c = sub["c"].to_numpy(np.int64)
        rr = np.array(
            [rank_of[v] for v in sub[value_col].tolist()], dtype=np.int64
        )
        n_g = int(c.sum())
        s2 = int((c * rr).sum())
        d = s2 - n_g * (N + 1)
        S += float(d * d) / float(n_g)
        k += 1
    denom = N**3 - N
    corr = 1.0 - float(tie_sum) / float(denom) if denom > 0 else 0.0
    if corr > 0.0:
        h = round_half_away(
            (3.0 * S / (float(N) * float(N + 1))) / corr, 6
        )
    else:
        h = None
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "n": pa.array([N], pa.int64()),
                "k": pa.array([k], pa.int64()),
                "h": pa.array([h], pa.float64()),
            }
        )
    )


def profile_table(
    ds: rd.Dataset,
    columns: list[str],
) -> rd.Dataset:
    """Column profiler — per column: row count, NULL count and EXACT
    distinct count — the schema-drift / data-quality audit every
    ingestion run does before trusting a new drop (a lang column whose
    distinct count jumped 10x is a parser regression, not new data).

    Distributed-exact distinct WITHOUT a driver value collect: pass 1
    melts each batch to its per-batch UNIQUE non-null (column, value)
    pairs (a combiner — low-cardinality columns collapse immediately);
    the pairs hash-bucket into ``shuffle_blocks()`` buckets via
    ``bucketed_group_apply`` on (column, value), so each distinct pair
    lands in exactly one bucket and a per-bucket ``drop_duplicates`` +
    size-by-column is an exact partition of the global distinct count;
    the collect moves one int row per (bucket, column). Pass 2 is a
    trivial count/NULL-count partial. Values are compared as their
    string cast (injective for the int/string columns this profiles;
    floats should be profiled via histogram operators instead — stated
    contract)."""
    import numpy as np
    import polars as pl

    from .dedup import shuffle_blocks

    def melt_unique(batch: pa.Table) -> pa.Table:
        d = pl.from_arrow(batch.select(columns))
        parts = []
        for c in columns:
            v = d[c].drop_nulls().cast(pl.Utf8).unique()
            parts.append(
                pl.DataFrame({"col": [c] * len(v), "val": v})
            )
        return pl.concat(parts).to_arrow() if parts else pa.table(
            {"col": pa.array([], pa.string()),
             "val": pa.array([], pa.string())}
        )

    def bucket_distinct(g: pd.DataFrame) -> pd.DataFrame:
        u = g.drop_duplicates(["col", "val"])
        out = u.groupby("col", as_index=False).size()
        return out.rename(columns={"size": "nd"})

    nd = (
        bucketed_group_apply(
            ds.map_batches(melt_unique, batch_format="pyarrow"),
            ["col", "val"],
            bucket_distinct,
            n_buckets=shuffle_blocks(),
        )
        .to_pandas()
        .groupby("col", as_index=False)
        .agg(n_distinct=("nd", "sum"))
    )

    def meta_partial(batch: pa.Table) -> pa.Table:
        recs = []
        for c in columns:
            col = batch.column(c)
            recs.append(
                {"col": c, "n": len(col), "n_null": col.null_count}
            )
        return pa.Table.from_pylist(recs)

    meta = (
        ds.select_columns(columns)
        .map_batches(meta_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("col", as_index=False)
        .agg(n=("n", "sum"), n_null=("n_null", "sum"))
    )
    out = meta.merge(nd, on="col", how="left")
    out["n_distinct"] = out["n_distinct"].fillna(0).astype(np.int64)
    out = out.sort_values("col", kind="mergesort")
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "column": pa.array(out["col"], pa.string()),
                "n": pa.array(out["n"].astype(np.int64)),
                "n_null": pa.array(out["n_null"].astype(np.int64)),
                "n_distinct": pa.array(out["n_distinct"]),
            }
        )
    )


def carry_forward(
    ds: rd.Dataset,
    group_col: str,
    order_cols: list[str],
    value_col: str,
    mark_col: str,
    mark_value,
    out_col: str = "carried",
    id_cols: list[str] | None = None,
) -> rd.Dataset:
    """LOCF (last observation carried forward) feature join: for every
    row, the most recent ``value_col`` among the group's PRIOR-or-equal
    rows where ``mark_col == mark_value`` — the classic point-in-time
    feature ("last purchase amount as of each event") that a naive join
    would leak future data into. SQL mirror: ``last_value(CASE WHEN mark
    THEN value END IGNORE NULLS) OVER (PARTITION BY group ORDER BY
    order_cols ROWS UNBOUNDED PRECEDING)``. EXACT: values are COPIED,
    never computed, so the oracle hash-matches with no float contract.

    Scale shape: groups hash-bucket (``bucketed_group_apply`` — all of
    one group's rows co-locate), the fill inside is a vectorized
    index-carry (np.maximum.accumulate over marked positions), and the
    output streams one row per input row. The documented caveat is the
    usual one-group-fits-a-worker partitioning assumption."""
    import numpy as np

    cols = [group_col, *order_cols, value_col, mark_col]
    if id_cols:
        cols += [c for c in id_cols if c not in cols]

    def fill(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col, *order_cols], kind="mergesort")
        mark = (g[mark_col] == mark_value).to_numpy()
        # restart the carry at each group boundary within the bucket
        gk = g[group_col].to_numpy()
        new_grp = np.empty(len(g), bool)
        new_grp[0] = True
        new_grp[1:] = gk[1:] != gk[:-1]
        idx = np.where(mark, np.arange(len(g)), -1)
        start = np.where(new_grp, np.arange(len(g)), -1)
        np.maximum.accumulate(start, out=start)
        np.maximum.accumulate(idx, out=idx)
        valid = idx >= start  # a carried value from BEFORE the group
        vals = g[value_col].to_numpy()
        out = g[[c for c in g.columns if c not in (mark_col, value_col)]]
        out = out.copy()
        out[out_col] = np.where(valid & (idx >= 0), vals[np.maximum(idx, 0)],
                                np.nan)
        return out

    from .dedup import shuffle_blocks

    return bucketed_group_apply(
        ds.select_columns(cols), group_col, fill,
        n_buckets=shuffle_blocks(),
    )


def cume_dist_by_group(
    ds: rd.Dataset, group_col: str, value_col: str, out_col: str = "cd"
) -> rd.Dataset:
    """SQL cume_dist() OVER (PARTITION BY group ORDER BY value):
    count(v' <= v) / n (max-rank ties). Same coarse-bucketed shape as
    :func:`percent_rank_by_group` — the rank is an integer so the single
    division is bit-identical to the oracle's."""
    import numpy as np

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, g in df.groupby(group_col, sort=False):
            rank = g[value_col].rank(method="max").to_numpy(np.float64)
            h = g.copy()
            h[out_col] = round_half_away_np(rank / float(len(g)), 6)
            out.append(h)
        return pd.concat(out, ignore_index=True)

    return bucketed_group_apply(ds, group_col, per_bucket)


def revenue_concentration(
    lineitem: rd.Dataset, sf_dir: str
) -> pa.Table:
    """Supplier revenue concentration per nation: Herfindahl-Hirschman
    index (sum of squared supplier revenue shares), top-supplier share,
    and supplier count — the market-concentration audit (HHI > 0.25 ~
    antitrust "highly concentrated").

    Exactness contract: revenue accumulates in int64 units
    (cents x (100 - disc)); HHI = sum(r_i^2) / total^2 evaluated with
    PYTHON arbitrary-precision integers (sum of ~1e18-scale squares
    overflows int64 — the oracle mirrors with HUGEINT), so each output
    is ONE exact-integer division rounded 6dp — no float summation
    order anywhere.

    Scale shape: supplier -> nation is a broadcast dict applied in the
    same pass that pre-aggregates per-(nation, supplier) units; one
    coarse-bucketed merge yields per-supplier totals; nations x ~1 rows
    reach the driver (25 nations) — lineitem never shuffles."""
    import numpy as np

    import pyarrow.parquet as pq
    import ray

    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    nat = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nk_to_name = dict(
        zip(
            nat.column("n_nationkey").to_pylist(),
            nat.column("n_name").to_pylist(),
        )
    )
    supp_ref = ray.put(
        dict(
            zip(
                supp.column("s_suppkey").to_pylist(),
                [nk_to_name[nk] for nk in supp.column("s_nationkey").to_pylist()],
            )
        )
    )

    def partial(batch: pa.Table) -> pa.Table:
        lk = resolve_broadcast(supp_ref)
        price_c = np.round(
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        disc_c = np.round(
            batch.column("l_discount").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        sk = batch.column("l_suppkey").to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "n_name": pd.Series(sk).map(lk),
                "l_suppkey": sk,
                "units": price_c * (100 - disc_c),
            }
        )
        agg = df.groupby(["n_name", "l_suppkey"], as_index=False)["units"].sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["n_name", "l_suppkey"], as_index=False)["units"].sum()

    per_supp = bucketed_group_apply(
        lineitem.map_batches(partial, batch_format="pyarrow"),
        "l_suppkey",
        per_bucket,
    ).to_pandas()

    rows = {c: [] for c in ("n_name", "n_suppliers", "hhi", "top_share")}
    for nname, sub in per_supp.groupby("n_name", sort=True):
        units = [int(u) for u in sub["units"]]  # Python ints: exact squares
        total = sum(units)
        sumsq = sum(u * u for u in units)
        rows["n_name"].append(nname)
        rows["n_suppliers"].append(len(units))
        # mirror the oracle's CAST(.. AS DOUBLE)/CAST(.. AS DOUBLE):
        # round each exact integer to double FIRST, then one division
        # (sumsq > 2^53, so the conversion order is part of the contract)
        rows["hhi"].append(
            round_half_away(float(sumsq) / float(total * total), 6)
        )
        rows["top_share"].append(
            round_half_away(float(max(units)) / float(total), 6)
        )
    return pa.Table.from_pydict(
        {
            "n_name": pa.array(rows["n_name"], pa.string()),
            "n_suppliers": pa.array(rows["n_suppliers"], pa.int64()),
            "hhi": pa.array(rows["hhi"], pa.float64()),
            "top_share": pa.array(rows["top_share"], pa.float64()),
        }
    )


def diversity_by_group(
    ds: rd.Dataset,
    group_col: str,
    cat_col: str,
    max_cells: int = 1_000_000,
) -> pa.Table:
    """Categorical diversity audit per group: Shannon entropy (bits),
    Simpson's unbiased diversity index 1 - sum n_i(n_i-1) / (N(N-1)),
    and the category count — the corpus-balance report (is source X a
    language monoculture?) that complements chi-square (which tests
    deviation from the GLOBAL mix; this measures each group's own
    spread).

    Exactness contract: the (group, category) crosstab is exact
    integers (one streamed combiner pass, the _joint_cells shape);
    Simpson's numerator/denominator are exact int64 with ONE mirrored
    division; Shannon is a per-cell log2 sum at 6dp (the
    source_lang_mi contract — O(1) magnitudes absorb libm/order ulps).
    Groups with N = 1 have undefined Simpson (NULL on both sides)."""
    import numpy as np

    cells = _joint_cells(ds, [group_col, cat_col], max_cells,
                         "diversity_by_group")
    out = {
        group_col: [], "n_rows": [], "n_cats": [],
        "shannon_bits": [], "simpson": [],
    }
    for g, sub in cells.groupby(group_col, sort=True):
        n = sub["c"].to_numpy(np.int64)
        tot = int(n.sum())
        p = n.astype(np.float64) / float(tot)
        shannon = float(-(p * np.log2(p)).sum())
        out[group_col].append(g)
        out["n_rows"].append(tot)
        out["n_cats"].append(len(n))
        out["shannon_bits"].append(round_half_away(shannon, 6))
        if tot >= 2:
            num = int((n * (n - 1)).sum())
            out["simpson"].append(
                round_half_away(
                    1.0 - float(num) / float(tot * (tot - 1)), 6
                )
            )
        else:
            out["simpson"].append(None)
    return pa.Table.from_pydict(
        {
            group_col: pa.array(out[group_col], pa.string()),
            "n_rows": pa.array(out["n_rows"], pa.int64()),
            "n_cats": pa.array(out["n_cats"], pa.int64()),
            "shannon_bits": pa.array(out["shannon_bits"], pa.float64()),
            "simpson": pa.array(out["simpson"], pa.float64()),
        }
    )


def decile_revenue_shares(
    orders: rd.Dataset, k: int = 10, max_cells: int = 1_000_000
) -> pa.Table:
    """Lorenz-style customer concentration report: rank customers by
    total order revenue, cut into k equal-population tiles (SQL
    ``NTILE(k) OVER (ORDER BY rev, custkey)`` semantics), and report
    each tile's customer count, exact revenue, revenue share, and
    cumulative share — "the top decile books 38% of revenue".

    Tie-insensitive derivation (why no second pass is needed): NTILE
    assigns tied revenues to tiles by the custkey tie-break, but tied
    rows carry IDENTICAL revenue, so each tile's SUM depends only on
    the (revenue, count) histogram — the engine slices the sorted
    histogram by the exact NTILE fill rule (first N%k tiles get
    N//k + 1 rows) with pure integer arithmetic, no per-customer pass.

    Exactness: revenue accumulates as int64 cents (per-batch combiner +
    one custkey-bucketed merge — orders never shuffle); the histogram
    (distinct revenue values) collects under the loud ``max_cells``
    guard; share = cents/total is one mirrored division and cum_share
    mirrors the SQL running window sum term-for-term (np.cumsum ==
    left-to-right)."""
    import numpy as np

    from .dedup import shuffle_blocks

    def partial(batch: pa.Table) -> pa.Table:
        cents = np.rint(
            batch.column("o_totalprice").to_numpy() * 100.0
        ).astype(np.int64)
        df = pd.DataFrame(
            {
                "o_custkey": batch.column("o_custkey").to_numpy(
                    zero_copy_only=False
                ),
                "cents": cents,
            }
        )
        return pa.Table.from_pandas(
            df.groupby("o_custkey", as_index=False)["cents"].sum(),
            preserve_index=False,
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("o_custkey", as_index=False)["cents"].sum()

    cust = bucketed_group_apply(
        orders.select_columns(["o_custkey", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(shuffle_blocks()),
        "o_custkey",
        merge,
    )

    def hist(batch: pa.Table) -> pa.Table:
        df = batch.select(["cents"]).to_pandas()
        agg = df.groupby("cents", as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    rows = cust.map_batches(hist, batch_format="pyarrow").take(max_cells + 1)
    if len(rows) > max_cells:
        raise ValueError(
            f"decile_revenue_shares: > {max_cells} distinct revenue "
            "values — bucket revenues first or raise max_cells"
        )
    h = (
        pd.DataFrame(rows)
        .groupby("cents", as_index=False)
        .agg(n=("size", "sum"))
        .sort_values("cents", kind="mergesort")
    )
    vals = h["cents"].to_numpy(np.int64)
    cnt = h["n"].to_numpy(np.int64)
    n_total = int(cnt.sum())
    q, r = divmod(n_total, k)
    starts = np.array(
        [j * (q + 1) if j < r else r * (q + 1) + (j - r) * q
         for j in range(k)],
        np.int64,
    )
    ends = np.append(starts[1:], n_total)
    # positions covered by each value run
    run_end = np.cumsum(cnt)
    run_start = run_end - cnt
    tile_n = np.zeros(k, np.int64)
    tile_cents = np.zeros(k, dtype=object)
    for j in range(k):
        ov = np.minimum(run_end, ends[j]) - np.maximum(run_start, starts[j])
        ov = np.maximum(ov, 0)
        tile_n[j] = int(ov.sum())
        tile_cents[j] = int((ov * vals).sum())
    total = sum(int(c) for c in tile_cents)
    share = np.array(
        [float(int(c)) / float(total) for c in tile_cents], np.float64
    )
    cum = np.cumsum(share)
    return pa.Table.from_pydict(
        {
            "tile": pa.array(np.arange(1, k + 1), pa.int64()),
            "n_customers": pa.array(tile_n, pa.int64()),
            "revenue_cents": pa.array(
                [int(c) for c in tile_cents], pa.int64()
            ),
            "share": pa.array(round_half_away_np(share, 6), pa.float64()),
            "cum_share": pa.array(round_half_away_np(cum, 6), pa.float64()),
        }
    )


def crosstab_residuals(
    ds: rd.Dataset,
    a_col: str,
    b_col: str,
    max_cells: int = 1_000_000,
) -> pa.Table:
    """Adjusted (standardized Pearson) residuals per contingency cell:
    (O − E) / sqrt(E (1 − ra/N)(1 − cb/N)) — the follow-up to a
    significant chi-square that answers WHICH (source, lang) cell
    deviates and in which direction (|residual| > 2 ≈ cell-level
    significance; Agresti, Categorical Data Analysis §3.3).

    Exactness: the crosstab and both margins are exact integers (one
    streamed _joint_cells pass); each output is a PER-CELL mirrored
    float chain (E = ra·cb/N, then one subtraction, one sqrt, one
    division) — no cross-cell float accumulation anywhere. Degenerate
    margins (a single row or column: the variance term is 0) yield
    NULL on both engines."""
    import numpy as np

    cells = _joint_cells(ds, [a_col, b_col], max_cells,
                         "crosstab_residuals")
    cells = cells.sort_values([a_col, b_col], kind="mergesort")
    ra = cells.groupby(a_col)["c"].transform("sum").to_numpy(np.int64)
    cb = cells.groupby(b_col)["c"].transform("sum").to_numpy(np.int64)
    n = int(cells["c"].sum())
    o = cells["c"].to_numpy(np.int64)
    nf = float(n)
    raf, cbf = ra.astype(np.float64), cb.astype(np.float64)
    e = raf * cbf / nf
    denom_sq = e * (1.0 - raf / nf) * (1.0 - cbf / nf)
    ok = denom_sq > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        resid = (o.astype(np.float64) - e) / np.sqrt(denom_sq)
    return pa.Table.from_pydict(
        {
            a_col: pa.array(cells[a_col].tolist(), pa.string()),
            b_col: pa.array(cells[b_col].tolist(), pa.string()),
            "n": pa.array(o, pa.int64()),
            "expected": pa.array(
                round_half_away_np(e, 6), pa.float64()
            ),
            "adj_residual": pa.array(
                round_half_away_np(resid, 6), pa.float64(), mask=~ok
            ),
        }
    )


def odds_ratio_by_group(
    ds: rd.Dataset,
    group_col: str,
    flag_col: str,
    max_cells: int = 1_000_000,
) -> pa.Table:
    """One-vs-rest odds ratio per group for a boolean outcome, with the
    Woolf log-SE 95% CI: OR = (a·d)/(b·c) over the 2×2 cell counts
    (a = flagged in group, b = unflagged in group, c/d = rest) — the
    effect-SIZE companion to the two-proportion z-test (which only says
    "different", not "how many times more likely").

    Exactness: all four cells are exact integers (one streamed
    _joint_cells pass over (group, flag)); OR is one mirrored integer→
    float division chain, ln(OR) ± 1.96·sqrt(1/a+1/b+1/c+1/d) evaluated
    in the same op order on both engines, 6dp. Any zero cell → NULL OR
    and CI on both sides (no continuity fudge — report, don't adjust)."""
    import numpy as np

    cells = _joint_cells(ds, [group_col, flag_col], max_cells,
                         "odds_ratio_by_group")
    piv = (
        cells.pivot_table(
            index=group_col, columns=flag_col, values="c",
            aggfunc="sum", fill_value=0,
        )
        .reindex(columns=[True, False], fill_value=0)
        .sort_index()
    )
    a = piv[True].to_numpy(np.int64)
    b = piv[False].to_numpy(np.int64)
    ta, tb = int(a.sum()), int(b.sum())
    c = ta - a
    d = tb - b
    ok = (a > 0) & (b > 0) & (c > 0) & (d > 0)
    af, bf, cf, df_ = (
        a.astype(np.float64), b.astype(np.float64),
        c.astype(np.float64), d.astype(np.float64),
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        orr = (af * df_) / (bf * cf)
        se = np.sqrt(1.0 / af + 1.0 / bf + 1.0 / cf + 1.0 / df_)
        lo = np.exp(np.log(orr) - 1.96 * se)
        hi = np.exp(np.log(orr) + 1.96 * se)
    return pa.Table.from_pydict(
        {
            group_col: pa.array(piv.index.tolist(), pa.string()),
            "n_flag": pa.array(a, pa.int64()),
            "n_noflag": pa.array(b, pa.int64()),
            "odds_ratio": pa.array(
                round_half_away_np(orr, 6), pa.float64(), mask=~ok
            ),
            "ci_lo": pa.array(
                round_half_away_np(lo, 6), pa.float64(), mask=~ok
            ),
            "ci_hi": pa.array(
                round_half_away_np(hi, 6), pa.float64(), mask=~ok
            ),
        }
    )


def wilson_ci_by_group(
    ds: rd.Dataset,
    group_col: str,
    flag_col: str,
    z: float = 1.96,
    max_cells: int = 1_000_000,
) -> pa.Table:
    """Wilson score 95% confidence interval for a proportion per group —
    the CI that stays inside [0, 1] and behaves at p̂ near 0/1 where the
    Wald interval collapses (Brown, Cai & DasGupta 2001 recommend it as
    the default): center = (p̂ + z²/2n)/(1 + z²/n), half-width =
    z·sqrt(p̂(1−p̂)/n + z²/4n²)/(1 + z²/n).

    Exactness: (flagged, total) are exact integers from one streamed
    _joint_cells pass; each group's CI is ONE mirrored float chain in
    the literal op order above, 6dp. n = 0 groups cannot occur (a group
    exists only with rows); p̂ ∈ {0, 1} is fine — Wilson never divides
    by p̂(1−p̂)."""
    import numpy as np

    cells = _joint_cells(ds, [group_col, flag_col], max_cells,
                         "wilson_ci_by_group")
    piv = (
        cells.pivot_table(
            index=group_col, columns=flag_col, values="c",
            aggfunc="sum", fill_value=0,
        )
        .reindex(columns=[True, False], fill_value=0)
        .sort_index()
    )
    a = piv[True].to_numpy(np.int64)
    n = a + piv[False].to_numpy(np.int64)
    af, nf = a.astype(np.float64), n.astype(np.float64)
    p = af / nf
    z2 = z * z
    denom = 1.0 + z2 / nf
    center = (p + z2 / (2.0 * nf)) / denom
    half = z * np.sqrt(p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)) / denom
    return pa.Table.from_pydict(
        {
            group_col: pa.array(piv.index.tolist(), pa.string()),
            "n": pa.array(n, pa.int64()),
            "n_flag": pa.array(a, pa.int64()),
            "p_hat": pa.array(
                round_half_away_np(p, 6), pa.float64()
            ),
            "ci_lo": pa.array(
                round_half_away_np(center - half, 6), pa.float64()
            ),
            "ci_hi": pa.array(
                round_half_away_np(center + half, 6), pa.float64()
            ),
        }
    )


def skyline_parts(
    parts: rd.Dataset, max_candidates: int = 1_000_000
) -> pa.Table:
    """2-D skyline (Pareto frontier) over parts: all parts not
    DOMINATED on (price low, size high) — b dominates a when
    b.price <= a.price AND b.size >= a.size with at least one strict —
    the classic "best tradeoff set" query (Börzsönyi et al., ICDE
    2001), the multi-objective shortlist a buyer actually reads.

    Distributed correctness: dominance is transitive, so every GLOBAL
    skyline point survives its batch's LOCAL skyline — one streamed
    local-prune pass emits per-batch survivors, and the driver re-runs
    the same prune on the (loudly guarded) union. The per-batch prune
    is the sort-scan algorithm: collapse to distinct (price, size)
    pairs, keep the max-size pair per price, then a prefix-max scan
    over ascending price (all integer/double comparisons — no float
    arithmetic at all, so the NOT EXISTS oracle matches exactly;
    duplicate (price, size) rows tie and BOTH survive, the SQL
    strict-somewhere semantics)."""
    import numpy as np

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        # survivors among rows; ties on (price, size) all kept
        pairs = (
            df.groupby(["p_retailprice", "p_size"], as_index=False)
            .size()
            .sort_values(
                ["p_retailprice", "p_size"],
                ascending=[True, False],
                kind="mergesort",
            )
        )
        # per price level only the max size can survive
        lead = pairs.groupby("p_retailprice", as_index=False).first()
        s = lead["p_size"].to_numpy()
        # survive iff size strictly above every cheaper part's size
        run = np.maximum.accumulate(s)
        prev = np.concatenate(([np.iinfo(np.int64).min], run[:-1]))
        keep_lead = lead[s > prev]
        key = set(
            zip(keep_lead["p_retailprice"], keep_lead["p_size"])
        )
        mask = [
            (p, z) in key
            for p, z in zip(df["p_retailprice"], df["p_size"])
        ]
        return df[mask]

    def local(batch: pa.Table) -> pa.Table:
        df = batch.select(
            ["p_partkey", "p_size", "p_retailprice"]
        ).to_pandas()
        return pa.Table.from_pandas(prune(df), preserve_index=False)

    rows = parts.map_batches(local, batch_format="pyarrow").take(
        max_candidates + 1
    )
    if len(rows) > max_candidates:
        raise ValueError(
            f"skyline_parts: > {max_candidates} local-skyline "
            "candidates — the frontier is degenerate; check the data"
        )
    df = pd.DataFrame(rows)
    if not len(df):
        return pa.Table.from_pydict(
            {
                "p_partkey": pa.array([], pa.int64()),
                "p_size": pa.array([], pa.int32()),
                "p_retailprice": pa.array([], pa.float64()),
            }
        )
    out = prune(df).sort_values("p_partkey", kind="mergesort")
    return pa.Table.from_pandas(
        out.reset_index(drop=True), preserve_index=False
    )


def order_size_histogram(
    lineitem: rd.Dataset, max_cells: int = 1_000_000
) -> pa.Table:
    """Lines-per-order histogram: (n_lines, n_orders) — the join-skew
    audit for the orderkey hash joins this library leans on (a fat
    right tail means some orders carry many times the average join
    work; TPC-H caps at 7, real order logs don't).

    Exactness: all integers. Scale shape: per-batch per-order count
    partials, one orderkey-bucketed merge, per-bucket histogram rows
    (≤ max-lines distinct counts each) merged on the driver under the
    loud ``max_cells`` guard — lineitem never shuffles."""
    import numpy as np

    from .dedup import shuffle_blocks

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "l_orderkey": batch.column("l_orderkey").to_numpy(
                    zero_copy_only=False
                )
            }
        )
        agg = df.groupby("l_orderkey", as_index=False).size()
        agg = agg.rename(columns={"size": "cnt"})
        return pa.Table.from_pandas(agg, preserve_index=False)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        per_order = g.groupby("l_orderkey", as_index=False)["cnt"].sum()
        hist = per_order.groupby("cnt", as_index=False).size()
        return hist.rename(columns={"size": "n_orders"})

    rows = bucketed_group_apply(
        lineitem.select_columns(["l_orderkey"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(shuffle_blocks()),
        "l_orderkey",
        per_bucket,
    ).take(max_cells + 1)
    if len(rows) > max_cells:
        raise ValueError(
            f"order_size_histogram: > {max_cells} histogram partials"
        )
    h = (
        pd.DataFrame(rows)
        .groupby("cnt", as_index=False)["n_orders"]
        .sum()
        .sort_values("cnt", kind="mergesort")
    )
    return pa.Table.from_pydict(
        {
            "n_lines": pa.array(h["cnt"].to_numpy(np.int64)),
            "n_orders": pa.array(h["n_orders"].to_numpy(np.int64)),
        }
    )


def l_diversity_audit(
    ds: rd.Dataset,
    quasi_cols: list,
    sensitive_col: str,
    max_cells: int = 1_000_000,
) -> pa.Table:
    """l-diversity privacy audit — the follow-up to k-anonymity
    (:func:`k_anonymity_audit`): a quasi-identifier class can be large
    (k-anonymous) yet still leak if every member shares the SAME
    sensitive value; l-diversity counts DISTINCT sensitive values per
    class (Machanavajjhala et al., ICDE 2006). Rows with l_distinct = 1
    are homogeneous classes — releasing the quasi-identifiers reveals
    the sensitive attribute outright.

    Exactness: one streamed _joint_cells pass over quasi + sensitive
    (counter rows shuffle, never data rows); n_rows and l_distinct are
    pure integers."""
    import numpy as np

    cells = _joint_cells(
        ds, list(quasi_cols) + [sensitive_col], max_cells,
        "l_diversity_audit",
    )
    g = (
        cells.groupby(list(quasi_cols), as_index=False)
        .agg(n_rows=("c", "sum"), l_distinct=("c", "size"))
        .sort_values(list(quasi_cols), kind="mergesort")
    )
    out = {}
    for c in quasi_cols:
        col = g[c]
        if col.dtype == object:
            out[c] = pa.array(col.tolist(), pa.string())
        else:
            out[c] = pa.array(col.to_numpy(np.int64), pa.int64())
    out["n_rows"] = pa.array(g["n_rows"].to_numpy(np.int64))
    out["l_distinct"] = pa.array(g["l_distinct"].to_numpy(np.int64))
    return pa.Table.from_pydict(out)


def segment_migration(
    orders: rd.Dataset, k: int = 4, max_cells: int = 1_000_000
) -> pa.Table:
    """Customer revenue-segment MIGRATION matrix: quartile in the first
    half of the order history vs quartile in the second half (split at
    the midpoint order day), with tile 0 = inactive in that half — the
    "are our champions churning or climbing" table behind every
    customer-success dashboard; a static segmentation can look stable
    while half the top tier rotates out.

    Tile contract: within each half, ACTIVE customers rank by exact
    int64 revenue cents under the tie-stable max-rank rule
    tile = (rank·k + n − 1) // n (integer arithmetic, the rfm_segments
    contract); inactive customers take tile 0. Every cell of the
    output is an exact integer.

    Scale shape: per-batch per-customer (h1, h2) cents combiner + one
    custkey-bucketed merge; per-half revenue HISTOGRAMS (distinct cents
    values, loud ``max_cells`` guard) drive broadcast tile maps; the
    joint (tile_h1, tile_h2) counts merge on the driver. Orders never
    shuffle."""
    import numpy as np
    import ray

    from . import resolve_broadcast
    from .dedup import shuffle_blocks

    DAY_US = 86_400_000_000

    def extremes(batch: pa.Table) -> pa.Table:
        day = batch.column("o_orderdate").cast(pa.int64()).to_numpy() // DAY_US
        return pa.Table.from_pydict(
            {"dmin": [int(day.min())], "dmax": [int(day.max())]}
        )

    parts = orders.select_columns(["o_orderdate"]).map_batches(
        extremes, batch_format="pyarrow"
    ).take_all()
    if not parts:
        return pa.Table.from_pydict(
            {
                "tile_h1": pa.array([], pa.int64()),
                "tile_h2": pa.array([], pa.int64()),
                "n_customers": pa.array([], pa.int64()),
            }
        )
    dmin = min(r["dmin"] for r in parts)
    dmax = max(r["dmax"] for r in parts)
    mid = (dmin + dmax + 1) // 2

    def partial(batch: pa.Table) -> pa.Table:
        day = batch.column("o_orderdate").cast(pa.int64()).to_numpy() // DAY_US
        cents = np.rint(
            batch.column("o_totalprice").to_numpy() * 100.0
        ).astype(np.int64)
        first = day < mid
        df = pd.DataFrame(
            {
                "o_custkey": batch.column("o_custkey").to_numpy(
                    zero_copy_only=False
                ),
                "c1": np.where(first, cents, 0),
                "c2": np.where(first, 0, cents),
            }
        )
        agg = df.groupby("o_custkey", as_index=False).agg(
            c1=("c1", "sum"), c2=("c2", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("o_custkey", as_index=False).agg(
            c1=("c1", "sum"), c2=("c2", "sum")
        )

    cust = bucketed_group_apply(
        orders.select_columns(["o_custkey", "o_orderdate", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(shuffle_blocks()),
        "o_custkey",
        merge,
    ).materialize()

    def hist(batch: pa.Table) -> pa.Table:
        out = []
        for half in ("c1", "c2"):
            v = batch.column(half).to_numpy()
            v = v[v > 0]
            agg = (
                pd.DataFrame({"v": v}).groupby("v", as_index=False).size()
            )
            agg.insert(0, "half", half)
            out.append(agg)
        return pa.Table.from_pandas(
            pd.concat(out, ignore_index=True), preserve_index=False
        )

    rows = cust.map_batches(hist, batch_format="pyarrow").take(max_cells + 1)
    if len(rows) > max_cells:
        raise ValueError(
            f"segment_migration: > {max_cells} histogram partials"
        )
    h = (
        pd.DataFrame(rows)
        .groupby(["half", "v"], as_index=False)
        .agg(n=("size", "sum"))
    )
    maps = {}
    for half, sub in h.groupby("half"):
        sub = sub.sort_values("v", kind="mergesort")
        vals = sub["v"].to_numpy(np.int64)
        rank = np.cumsum(sub["n"].to_numpy(np.int64))
        n = int(rank[-1])
        tile = (rank * k + n - 1) // n
        maps[half] = (vals, tile.astype(np.int64))
    maps_ref = ray.put(maps)

    def assign(batch: pa.Table) -> pa.Table:
        mp = resolve_broadcast(maps_ref)

        def tiles(half: str, v: np.ndarray) -> np.ndarray:
            vals, tl = mp[half]
            out = np.zeros(len(v), np.int64)
            act = v > 0
            if act.any() and len(vals):
                out[act] = tl[np.searchsorted(vals, v[act])]
            return out

        c1 = batch.column("c1").to_numpy()
        c2 = batch.column("c2").to_numpy()
        df = pd.DataFrame(
            {"tile_h1": tiles("c1", c1), "tile_h2": tiles("c2", c2)}
        )
        agg = df.groupby(["tile_h1", "tile_h2"], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    cells = cust.map_batches(assign, batch_format="pyarrow").take_all()
    m = (
        pd.DataFrame(cells)
        .groupby(["tile_h1", "tile_h2"], as_index=False)
        .agg(n_customers=("size", "sum"))
        .sort_values(["tile_h1", "tile_h2"], kind="mergesort")
    )
    return pa.Table.from_pydict(
        {
            "tile_h1": pa.array(m["tile_h1"].to_numpy(np.int64)),
            "tile_h2": pa.array(m["tile_h2"].to_numpy(np.int64)),
            "n_customers": pa.array(m["n_customers"].to_numpy(np.int64)),
        }
    )


def repeat_purchase_stats(
    lineitem: rd.Dataset, orders: rd.Dataset
) -> pa.Table:
    """Repeat-purchase summary: of all (customer, part) pairs ever
    transacted, how many recur across MULTIPLE distinct orders — the
    replenishment-vs-one-off signal that separates consumable SKUs
    from one-time buys (TPC-H's generator makes repeats rare; a real
    retail log shows a fat repeat head).

    Exactness: all integers — distinct (custkey, partkey, orderkey)
    triples, then a per-pair distinct-order count and three summary
    integers plus ONE division.

    Scale shape: lineitem pre-reduces to distinct (orderkey, partkey)
    per batch BEFORE the join (the Q5 pre-reduction contract), then ONE
    orderkey hash join attaches custkey; triples dedup inside a
    (custkey, partkey)-bucketed pass that emits per-bucket partial
    summaries — only integer partials reach the driver."""
    import numpy as np

    from .dedup import shuffle_blocks
    from .joins import bucketed_merge_join

    def lre(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "l_orderkey": batch.column("l_orderkey").to_numpy(
                    zero_copy_only=False
                ),
                "l_partkey": batch.column("l_partkey").to_numpy(
                    zero_copy_only=False
                ),
            }
        ).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    lp = lineitem.select_columns(["l_orderkey", "l_partkey"]).map_batches(
        lre, batch_format="pyarrow"
    )
    joined = bucketed_merge_join(
        lp,
        orders.select_columns(["o_orderkey", "o_custkey"]),
        on="l_orderkey",
        right_on="o_orderkey",
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        t = g.drop_duplicates(["o_custkey", "l_partkey", "l_orderkey"])
        per_pair = t.groupby(
            ["o_custkey", "l_partkey"], as_index=False
        ).agg(n=("l_orderkey", "size"))
        n = per_pair["n"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "n_pairs": [len(n)],
                "n_repeat": [int((n >= 2).sum())],
                "max_orders": [int(n.max()) if len(n) else 0],
            }
        )

    parts = bucketed_group_apply(
        joined.repartition(shuffle_blocks()),
        ["o_custkey", "l_partkey"],
        per_bucket,
    ).take_all()
    n_pairs = sum(r["n_pairs"] for r in parts)
    n_repeat = sum(r["n_repeat"] for r in parts)
    max_orders = max((r["max_orders"] for r in parts), default=0)
    from . import round_half_away

    return pa.Table.from_pydict(
        {
            "n_pairs": pa.array([n_pairs], pa.int64()),
            "n_repeat": pa.array([n_repeat], pa.int64()),
            "repeat_rate": pa.array(
                [
                    None
                    if n_pairs == 0
                    else round_half_away(
                        float(n_repeat) / float(n_pairs), 6
                    )
                ],
                pa.float64(),
            ),
            "max_orders": pa.array([max_orders], pa.int64()),
        }
    )


# ------------------------------------------------------- variance decomposition

def _int_moment_acc(
    ds: rd.Dataset,
    group_col: str,
    val_expr,
    max_groups: int,
    who: str,
) -> dict:
    """Shared integer-moment collector for the classical one-way tests:
    one streamed pass of per-batch (n, Σx, Σx²) partials per group —
    the welch_t_by_group combiner shape — merged driver-side with exact
    Python ints under a loud ``max_groups`` guard. ``val_expr`` maps the
    batch to the int64 value vector (identity for anova, |2x − 2·median|
    for Brown–Forsythe).

    The per-batch Σx and Σx² are exact Python ints too: x² overflows
    int64 once |x| > 3_037_000_499 (and a sum of smaller squares can
    still wrap), so the values go to object dtype before the product and
    the partials travel as decimal strings — the HUGEINT the oracle SQL
    sums in."""

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.column(group_col).to_pylist()
        x = val_expr(batch).astype(object)
        df = pd.DataFrame({"g": g, "x": x, "xx": x * x})
        agg = df.groupby("g", as_index=False).agg(
            n=("x", "size"), sx=("x", "sum"), sxx=("xx", "sum")
        )
        agg["sx"] = agg["sx"].map(str)
        agg["sxx"] = agg["sxx"].map(str)
        return pa.Table.from_pandas(agg, preserve_index=False)

    rows = ds.map_batches(partial, batch_format="pyarrow").take(
        max_groups + 1
    )
    if len(rows) > max_groups:
        raise ValueError(
            f"{who}: > {max_groups} group partials — raise max_groups "
            "deliberately"
        )
    acc: dict = {}
    for r in rows:
        g = r["g"]
        n0, s0, q0 = acc.get(g, (0, 0, 0))
        acc[g] = (n0 + int(r["n"]), s0 + int(r["sx"]), q0 + int(r["sxx"]))
    return acc


def _anova_f_from_acc(acc: dict) -> tuple:
    """One-way ANOVA F from exact per-group integer moments.

    Cancellation-safe deviation form (the kruskal_wallis lesson): the
    between sum of squares uses d_g = N·s_g − n_g·S (an EXACT Python
    int), SSB = Σ d_g²/n_g / N², and the within terms (n_g·q_g − s_g²)
    /n_g are exact-integer numerators too — every float term is
    non-negative, so summation-order ulps stay relative and 6dp is
    safe. The oracle SQL mirrors the same algebra over HUGEINTs.
    Returns (N, k, f, ssb, ssw) with f None when dof or SSW collapse."""
    N = sum(v[0] for v in acc.values())
    S = sum(v[1] for v in acc.values())
    k = len(acc)
    sb = 0.0
    sw = 0.0
    for g in sorted(acc):
        n, s, q = acc[g]
        d = N * s - n * S
        sb += float(d * d) / float(n)
        sw += float(n * q - s * s) / float(n)
    ssb = sb / (float(N) * float(N)) if N else 0.0
    ssw = sw
    if k < 2 or N <= k or ssw <= 0.0:
        return N, k, None, ssb, ssw
    f = (ssb / float(k - 1)) / (ssw / float(N - k))
    return N, k, f, ssb, ssw


def anova_f_by_group(
    ds: rd.Dataset,
    group_col: str,
    val_col: str,
    max_groups: int = 100_000,
) -> rd.Dataset:
    """Classical one-way ANOVA F of an INTEGER measure across groups —
    the parametric complement of kruskal_wallis (rank-based) and the
    k-sample generalization of welch_t_by_group: does the group MEAN
    differ anywhere, plus the variance-explained effect size
    eta² = SSB/(SSB+SSW).

    Distributed shape: one streamed integer-moment combiner pass (the
    shuffle carries one (n, Σx, Σx²) row per group per batch, never
    documents), bounded driver merge. Emits ONE row (n, k, f_stat,
    eta2); f NULL when k < 2, N ≤ k or SSW = 0, eta2 NULL when the
    total sum of squares is 0 (all values identical)."""
    import numpy as np

    def ident(batch: pa.Table) -> "np.ndarray":
        return batch.column(val_col).to_numpy().astype(np.int64)

    acc = _int_moment_acc(
        ds.select_columns([group_col, val_col]), group_col, ident,
        max_groups, "anova_f_by_group",
    )
    if not acc:
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "n": pa.array([], pa.int64()),
                    "k": pa.array([], pa.int64()),
                    "f_stat": pa.array([], pa.float64()),
                    "eta2": pa.array([], pa.float64()),
                }
            )
        )
    N, k, f, ssb, ssw = _anova_f_from_acc(acc)
    tot = ssb + ssw
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "n": pa.array([N], pa.int64()),
                "k": pa.array([k], pa.int64()),
                "f_stat": pa.array(
                    [None if f is None else round_half_away(f, 6)],
                    pa.float64(),
                ),
                "eta2": pa.array(
                    [None if tot <= 0.0 else round_half_away(ssb / tot, 6)],
                    pa.float64(),
                ),
            }
        )
    )


def brown_forsythe(
    ds: rd.Dataset,
    group_col: str,
    val_col: str,
    max_cells: int = 1_000_000,
    max_groups: int = 100_000,
) -> rd.Dataset:
    """Brown–Forsythe test (Levene with the group MEDIAN center): are
    the group VARIANCES equal — the homoscedasticity gate a pipeline
    runs before trusting pooled-variance statistics on sliced corpora.
    F is the one-way ANOVA F of z = |x − median_g|.

    Exactness: F is scale-invariant, so both engines compute it on
    w = |2x − m2_g| where m2_g = 2·median_g is an EXACT integer (the
    median of integers is a multiple of ½) — all moments stay integer
    and the float chain mirrors _anova_f_from_acc. Two streamed passes:
    a (group, value) histogram combiner for the exact medians (driver-
    bounded by ``max_cells`` distinct cells, the kruskal shape), then
    the integer-moment combiner over w with the tiny m2 map shipped in
    the task closure. Emits ONE row (n, k, f_bf)."""
    import numpy as np

    cells = _joint_cells(
        ds.select_columns([group_col, val_col]),
        [group_col, val_col],
        max_cells,
        "brown_forsythe",
    )
    if not len(cells):
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "n": pa.array([], pa.int64()),
                    "k": pa.array([], pa.int64()),
                    "f_bf": pa.array([], pa.float64()),
                }
            )
        )
    m2: dict = {}
    for gk, sub in cells.groupby(group_col, sort=True):
        sub = sub.sort_values(val_col, kind="mergesort")
        v = sub[val_col].to_numpy(np.int64)
        c = sub["c"].to_numpy(np.int64)
        cum = np.cumsum(c)
        ng = int(cum[-1])
        if ng % 2 == 1:
            pos = (ng + 1) // 2
            m2[gk] = 2 * int(v[np.searchsorted(cum, pos)])
        else:
            lo = int(v[np.searchsorted(cum, ng // 2)])
            hi = int(v[np.searchsorted(cum, ng // 2 + 1)])
            m2[gk] = lo + hi

    def absdev(batch: pa.Table) -> "np.ndarray":
        g = batch.column(group_col).to_pylist()
        x = batch.column(val_col).to_numpy().astype(np.int64)
        m = np.fromiter((m2[v] for v in g), dtype=np.int64, count=len(g))
        return np.abs(2 * x - m)

    acc = _int_moment_acc(
        ds.select_columns([group_col, val_col]), group_col, absdev,
        max_groups, "brown_forsythe",
    )
    N, k, f, _, _ = _anova_f_from_acc(acc)
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "n": pa.array([N], pa.int64()),
                "k": pa.array([k], pa.int64()),
                "f_bf": pa.array(
                    [None if f is None else round_half_away(f, 6)],
                    pa.float64(),
                ),
            }
        )
    )


# ------------------------------------------------------------- market basket

def basket_pairs(lineitem: rd.Dataset, k: int = 20) -> rd.Dataset:
    """Frequently-bought-together: top-k part pairs by co-occurrence
    across orders, with the association lift
    n_pair · N_orders / (n_p1 · n_p2) — the market-basket staple over
    the TPC-H lines.

    Shape: orders hash-bucket; inside a bucket one vectorized
    self-merge per order (baskets are small — the merge is
    |basket|²-bounded per order, not per bucket) emits TAGGED partial
    rows — kind 0 = pair counts, kind 1 = per-part order counts,
    kind 2 = order count — so ONE bucketed merge aggregates all three
    tables and the pair table never leaves the cluster: top-k is a
    distributed sort+limit, and only the ≤ 2k winning parts' counts
    are fetched back (an is_in filter), never the part table."""
    import numpy as np

    lp = lineitem.select_columns(["l_orderkey", "l_partkey"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["l_orderkey", "l_partkey"])
        m = g.merge(g, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        pairs = m.groupby(
            ["l_partkey_x", "l_partkey_y"], as_index=False
        ).size()
        parts = g.groupby("l_partkey", as_index=False).size()
        n_orders = g["l_orderkey"].nunique()
        out = pd.DataFrame(
            {
                "kind": np.concatenate(
                    [
                        np.zeros(len(pairs), np.int64),
                        np.ones(len(parts), np.int64),
                        np.full(1, 2, np.int64),
                    ]
                ),
                "a": np.concatenate(
                    [
                        pairs["l_partkey_x"].to_numpy(np.int64),
                        parts["l_partkey"].to_numpy(np.int64),
                        np.full(1, -1, np.int64),
                    ]
                ),
                "b": np.concatenate(
                    [
                        pairs["l_partkey_y"].to_numpy(np.int64),
                        np.full(len(parts), -1, np.int64),
                        np.full(1, -1, np.int64),
                    ]
                ),
                "n": np.concatenate(
                    [
                        pairs["size"].to_numpy(np.int64),
                        parts["size"].to_numpy(np.int64),
                        np.full(1, n_orders, np.int64),
                    ]
                ),
            }
        )
        return out

    from .dedup import shuffle_blocks

    tagged = bucketed_group_apply(lp, "l_orderkey", per_bucket)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["kind", "a", "b"], as_index=False).agg(
            n=("n", "sum")
        )

    # coarse merge buckets (the shuffle_blocks idiom): the tagged
    # partials are narrow int rows — many reduce groups cost more in
    # scheduling than the pandas sub-groupby saves
    merged = bucketed_group_apply(
        tagged.repartition(shuffle_blocks()),
        ["kind", "a", "b"],
        merge,
        n_buckets=shuffle_blocks(),
    ).materialize()  # consumed three times below; partials are compact

    top = (
        merged.filter(expr="kind == 0")
        .sort(["n", "a", "b"], descending=[True, False, False])
        .limit(k)
        .to_pandas()
    )
    if not len(top):
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "p1": pa.array([], pa.int64()),
                    "p2": pa.array([], pa.int64()),
                    "n_pair": pa.array([], pa.int64()),
                    "lift": pa.array([], pa.float64()),
                }
            )
        )
    want = pa.array(sorted(set(top["a"]) | set(top["b"])), pa.int64())

    def pick(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch.column("a"), value_set=want))

    pc_rows = (
        merged.filter(expr="kind == 1")
        .map_batches(pick, batch_format="pyarrow")
        .take_all()
    )
    part_n = {int(r["a"]): int(r["n"]) for r in pc_rows}
    n_orders = sum(
        int(r["n"]) for r in merged.filter(expr="kind == 2").take_all()
    )
    out = {"p1": [], "p2": [], "n_pair": [], "lift": []}
    for _, r in top.iterrows():
        p1, p2, np_ = int(r["a"]), int(r["b"]), int(r["n"])
        out["p1"].append(p1)
        out["p2"].append(p2)
        out["n_pair"].append(np_)
        out["lift"].append(
            round_half_away(
                float(np_) * float(n_orders)
                / (float(part_n[p1]) * float(part_n[p2])),
                6,
            )
        )
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "p1": pa.array(out["p1"], pa.int64()),
                "p2": pa.array(out["p2"], pa.int64()),
                "n_pair": pa.array(out["n_pair"], pa.int64()),
                "lift": pa.array(out["lift"], pa.float64()),
            }
        )
    )


def reorder_cadence(
    orders: rd.Dataset,
    customer: rd.Dataset,
    max_cells: int = 500_000,
) -> rd.Dataset:
    """Repeat-purchase cadence per market segment: the median and p90 of
    the day gaps between a customer's CONSECUTIVE orders — the
    composite join → per-key window → grouped-quantile pipeline in one
    co-grouped pass.

    Shape: both tables tag and union, customers hash-bucket (the
    asof_join co-group idiom — one shuffle total, no separate join
    stage); inside a bucket the segment lookup is a dict over the
    bucket's customers and the gap scan is the vectorized shift-mask
    idiom; each bucket emits a (segment, gap_days) COUNT histogram, so
    the driver merges bounded cells and mirrors quantile_cont's
    weighted interpolation exactly. Gap days are
    (Δepoch_µs) // 86 400e6 — integer floor division on BOTH engines."""
    import numpy as np

    from . import bucketed_group_apply, round_half_away

    DAY_US = 86_400_000_000

    def tag_cust(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.Table.from_pydict(
            {
                "key": batch.column("c_custkey").cast(pa.int64()),
                "side": pa.array(np.zeros(n, np.int64)),
                "seg": batch.column("c_mktsegment"),
                "t": pa.array(np.zeros(n, np.int64)),
            }
        )

    def tag_ord(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.Table.from_pydict(
            {
                "key": batch.column("o_custkey").cast(pa.int64()),
                "side": pa.array(np.ones(n, np.int64)),
                "seg": pa.array([""] * n, pa.string()),
                "t": batch.column("o_orderdate").cast(pa.int64()),
            }
        )

    tagged = customer.select_columns(
        ["c_custkey", "c_mktsegment"]
    ).map_batches(tag_cust, batch_format="pyarrow").union(
        orders.select_columns(["o_custkey", "o_orderdate"]).map_batches(
            tag_ord, batch_format="pyarrow"
        )
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cust = g[g["side"] == 0]
        seg_of = dict(zip(cust["key"].to_numpy(), cust["seg"]))
        o = g[g["side"] == 1].sort_values(["key", "t"], kind="mergesort")
        key = o["key"].to_numpy()
        t = o["t"].to_numpy(np.int64)
        if not len(o):
            return pd.DataFrame({"seg": [], "gap": [], "n": []}).astype(
                {"seg": str, "gap": np.int64, "n": np.int64}
            )
        first = np.empty(len(o), dtype=bool)
        first[0] = True
        first[1:] = key[1:] != key[:-1]
        gap = np.diff(t, prepend=t[0]) // DAY_US
        hist = pd.DataFrame(
            {
                "seg": pd.Series(key[~first]).map(seg_of),
                "gap": gap[~first],
            }
        )
        return (
            hist.groupby(["seg", "gap"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )

    df = (
        bucketed_group_apply(tagged, "key", per_bucket)
        .limit(max_cells + 1)
        .to_pandas()
    )
    if len(df) > max_cells:
        raise ValueError(
            "reorder_cadence: > max_cells histogram partials — raise "
            "max_cells deliberately or bin the gaps"
        )
    out = {"mktsegment": [], "n_gaps": [], "p50_days": [], "p90_days": []}
    if len(df):
        for seg, sub in df.groupby("seg", sort=True):
            agg = sub.groupby("gap")["n"].sum().sort_index()
            vals = agg.index.to_numpy(np.int64)
            cnts = agg.to_numpy(np.int64)
            cum = np.cumsum(cnts)
            n = int(cum[-1])
            out["mktsegment"].append(seg)
            out["n_gaps"].append(n)
            for col, q in (("p50_days", 0.5), ("p90_days", 0.9)):
                pos = (n - 1) * q
                lo = int(np.floor(pos))
                frac = pos - lo
                a = float(vals[np.searchsorted(cum, lo + 1)])
                b = float(vals[np.searchsorted(cum, min(lo + 2, n))])
                out[col].append(
                    round_half_away(a * (1.0 - frac) + b * frac, 6)
                )
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "mktsegment": pa.array(out["mktsegment"], pa.string()),
                "n_gaps": pa.array(out["n_gaps"], pa.int64()),
                "p50_days": pa.array(out["p50_days"], pa.float64()),
                "p90_days": pa.array(out["p90_days"], pa.float64()),
            }
        )
    )
