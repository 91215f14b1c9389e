"""Iterative graph algorithms over edge datasets: weighted PageRank.

The reference platform has no graph operators; this module belongs to
the training-data operator library (SURVEY.md "beyond the reference"):
centrality over an entity interaction graph is a standard curation
signal (source/site authority weighting — e.g. Common Crawl ranks hosts
by harmonic/PageRank centrality before sampling).

Scale shape: the DISTRIBUTED work is edge aggregation — per-batch
(src, dst) count partials, so the shuffle/collect moves one int row per
distinct edge per batch, never the raw fact rows. The aggregated edge
list is collected on the driver under a loud ``max_edges`` guard and
the power iteration itself is a vectorized numpy kernel over it. That
is the right trade whenever the AGGREGATED graph is bounded (node sets
like nations / sources / crawl hosts: the 100 TB corpus has billions of
rows but the host graph has ~1e8 edges, driver-sized after
aggregation). For graphs whose aggregated edge list exceeds the guard,
each power-iteration sweep becomes one broadcast (ranks via ``ray.put``)
+ one bucketed dst-sum pass — the ``length_islands`` distributed
label-propagation pattern — rather than a silent materialization; the
guard message says so.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..sources import read_parquet_clean


def pagerank_kernel(
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
    nodes: np.ndarray,
    damping: float = 0.85,
    n_iter: int = 5,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted PageRank power iteration (numpy, deterministic).

    ``nodes`` is the full node universe (isolated nodes included — they
    are dangling and redistribute their mass uniformly, the standard
    formulation). Returns (sorted nodes, rank) with ranks summing to 1
    at every iteration:

        r_{t+1}(v) = (1-d)/N + d * ( sum_{u->v} r_t(u) * w(u,v)/out_w(u)
                                     + dangling_mass_t / N )
    """
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    n = len(nodes)
    if n == 0:
        return nodes, np.zeros(0)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    si = np.searchsorted(nodes, src)
    di = np.searchsorted(nodes, dst)
    if len(si) and (
        (si >= n).any()
        or (di >= n).any()
        or (nodes[np.minimum(si, n - 1)] != src).any()
        or (nodes[np.minimum(di, n - 1)] != dst).any()
    ):
        raise ValueError("pagerank_kernel: edge endpoint outside `nodes`")
    out_w = np.zeros(n)
    np.add.at(out_w, si, w)
    dangling = out_w == 0.0
    frac = w / out_w[si] if len(si) else w
    r = np.full(n, 1.0 / n)
    for _ in range(n_iter):
        contrib = np.zeros(n)
        np.add.at(contrib, di, r[si] * frac)
        dm = float(r[dangling].sum())
        r = (1.0 - damping) / n + damping * (contrib + dm / n)
    return nodes, r


def edge_counts(
    ds: rd.Dataset,
    src_col: str,
    dst_col: str,
    weight_col: str | None = None,
    max_edges: int = 2_000_000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate a fact dataset into a bounded weighted edge list.

    Per-batch (src, dst) count/sum partials — the collect moves one int
    row per distinct edge per batch, never the raw rows — merged on the
    driver under the loud ``max_edges`` guard (past it, PageRank should
    switch to the broadcast-ranks + bucketed-dst-sum sweep described in
    the module docstring, not a bigger driver heap)."""

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if weight_col is None:
            agg = df.groupby([src_col, dst_col], as_index=False).size()
            agg = agg.rename(columns={"size": "w"})
        else:
            agg = df.groupby([src_col, dst_col], as_index=False)[weight_col].sum()
            agg = agg.rename(columns={weight_col: "w"})
        return pa.Table.from_pandas(agg, preserve_index=False)

    cols = [src_col, dst_col] + ([weight_col] if weight_col else [])
    long = ds.select_columns(cols).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_edges + 1)
    if len(long) > max_edges:
        raise ValueError(
            f"edge_counts: > {max_edges} edge partials — the aggregated "
            "graph exceeds driver bounds; use the distributed "
            "broadcast-ranks sweep (see functions/graphs.py docstring) "
            "or raise max_edges deliberately"
        )
    df = pd.DataFrame(long, columns=[src_col, dst_col, "w"])
    agg = df.groupby([src_col, dst_col], as_index=False)["w"].sum()
    return (
        agg[src_col].to_numpy(np.int64),
        agg[dst_col].to_numpy(np.int64),
        agg["w"].to_numpy(np.int64),
    )


def nation_trade_pagerank(
    sf_dir: str,
    damping: float = 0.85,
    n_iter: int = 5,
) -> rd.Dataset:
    """PageRank over the nation-level trade graph: one directed edge
    customer-nation -> supplier-nation per lineitem (weight = lineitem
    count), node universe = all nations (isolated nations are dangling).

    Composition of the repo's join idioms (supplier_volume_by_nation):
    customer and supplier nation maps are DIMENSIONS broadcast once via
    ``ray.put`` (sorted int arrays, searchsorted gather per batch); the
    lineitem side pre-aggregates (l_orderkey, dst_nation, count) inside
    map_batches before the ONE big⋈big orderkey hash join; joined
    batches reduce to (src, dst, w) partials — at most |nations|² tiny
    int rows per batch — and the power iteration runs on the aggregated
    ≤ |nations|² edge list. Output floats rounded half-away at 6 dp on
    both engine and oracle sides (the repo float contract)."""
    import pyarrow.parquet as pq

    import ray

    from . import resolve_broadcast, round_half_away_np
    from .joins import bucketed_merge_join

    nat = pq.read_table(f"{sf_dir}/nation.parquet")
    nation_keys = nat.column("n_nationkey").to_numpy().astype(np.int64)
    nation_names = {
        int(k): n
        for k, n in zip(nation_keys, nat.column("n_name").to_pylist())
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
        return pa.Table.from_pydict(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "src": pa.array(vals[np.searchsorted(keys, ck)], pa.int64()),
            }
        )

    def line_side(batch: pa.Table) -> pa.Table:
        keys, vals = resolve_broadcast(sup_ref)
        sk = batch.column("l_suppkey").to_numpy()
        df = pd.DataFrame(
            {
                "l_orderkey": batch.column("l_orderkey").to_numpy(),
                "dst": vals[np.searchsorted(keys, sk)],
            }
        )
        agg = df.groupby(["l_orderkey", "dst"], as_index=False).size()
        return pa.Table.from_pydict(
            {
                "l_orderkey": pa.array(agg["l_orderkey"], pa.int64()),
                "dst": pa.array(agg["dst"], pa.int64()),
                "w": pa.array(agg["size"], pa.int64()),
            }
        )

    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    ).map_batches(order_side, batch_format="pyarrow")
    lines = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    ).map_batches(line_side, batch_format="pyarrow")

    joined = bucketed_merge_join(
        lines, orders, on="l_orderkey", right_on="o_orderkey"
    )
    src, dst, w = edge_counts(joined, "src", "dst", weight_col="w")

    nodes, rank = pagerank_kernel(
        src, dst, w, nation_keys, damping=damping, n_iter=n_iter
    )
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "n_name": pa.array(
                    [nation_names[int(v)] for v in nodes], pa.string()
                ),
                "pagerank": pa.array(round_half_away_np(rank, 6)),
            }
        )
    )


def cosupply_triangles(
    ds: rd.Dataset,
    key_col: str = "l_orderkey",
    node_col: str = "l_suppkey",
    max_edges: int = 2_000_000,
    max_nodes: int = 4_000,
) -> rd.Dataset:
    """Per-node triangle participation + local clustering coefficient
    over the co-occurrence graph (nodes connected iff they appear under
    the same key — suppliers co-supplying an order, hosts co-cited by a
    document): the community-density signal curation pipelines use to
    separate organic clusters (high clustering) from hub spam (high
    degree, near-zero clustering).

    Distributed shape: pair generation is ``bucketed_group_apply`` over
    the KEY (all rows of one key land in one bucket; the pandas
    self-merge inside is vectorized), emitting per-bucket DISTINCT
    undirected pairs (a < b) — a combiner, so the collect moves one row
    per distinct edge per bucket, never the raw rows — then a driver
    merge under the loud ``max_edges`` guard (same contract as
    edge_counts). The triangle kernel is a dense boolean matmul
    T = (A @ A) * A with row sums = 2·triangles-per-node — O(|V|³) but
    vectorized and exact-integer; ``max_nodes`` bounds it loudly (the
    100 TB path: hash-partition edges by min-node and run the standard
    forward-adjacency intersection per partition — same counts, no
    dense matrix).

    Output one row per node WITH at least one edge: (node, degree,
    n_triangles, clustering), clustering = 2T/(d(d−1)) at 6dp
    (NULL when degree < 2); all counts exact integers so the SQL
    triple-self-join oracle value-hash matches."""
    from . import bucketed_group_apply, round_half_away_np
    from .dedup import shuffle_blocks

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates([key_col, node_col])
        m = g.merge(g, on=key_col, suffixes=("_a", "_b"))
        m = m[m[f"{node_col}_a"] < m[f"{node_col}_b"]]
        out = m[[f"{node_col}_a", f"{node_col}_b"]].drop_duplicates()
        return out.rename(
            columns={f"{node_col}_a": "na", f"{node_col}_b": "nb"}
        )

    pair_stream = bucketed_group_apply(
        ds.select_columns([key_col, node_col]),
        key_col,
        pairs_in_bucket,
        n_buckets=shuffle_blocks(),
    )
    # limit().to_pandas(), NOT take(): take() row-iterates the pandas
    # blocks map_groups emits (the spearman_by_group measured pitfall)
    long = pair_stream.limit(max_edges + 1).to_pandas()
    if len(long) > max_edges:
        raise ValueError(
            "cosupply_triangles: > "
            f"{max_edges} per-bucket edge partials — hash-partition by "
            "min-node (module docstring) or raise max_edges deliberately"
        )
    empty = pa.Table.from_pydict(
        {
            node_col: pa.array([], pa.int64()),
            "degree": pa.array([], pa.int64()),
            "n_triangles": pa.array([], pa.int64()),
            "clustering": pa.array([], pa.float64()),
        }
    )
    if not len(long):
        return rd.from_arrow(empty)
    edges = long.drop_duplicates(["na", "nb"])
    na = edges["na"].to_numpy(np.int64)
    nb = edges["nb"].to_numpy(np.int64)
    nodes = np.unique(np.concatenate([na, nb]))
    if len(nodes) > max_nodes:
        raise ValueError(
            f"cosupply_triangles: {len(nodes)} nodes > max_nodes="
            f"{max_nodes} — the dense kernel is O(|V|^2) memory; switch "
            "to the per-partition adjacency-intersection path"
        )
    ia = np.searchsorted(nodes, na)
    ib = np.searchsorted(nodes, nb)
    A = np.zeros((len(nodes), len(nodes)), dtype=np.int64)
    A[ia, ib] = 1
    A[ib, ia] = 1
    tri2 = ((A @ A) * A).sum(axis=1)  # = 2 * triangles per node
    deg = A.sum(axis=1)
    clus = np.full(len(nodes), np.nan)
    m2 = deg >= 2
    clus[m2] = round_half_away_np(
        (2.0 * (tri2[m2] / 2).astype(np.float64))
        / (deg[m2].astype(np.float64) * (deg[m2] - 1).astype(np.float64)),
        6,
    )
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                node_col: pa.array(nodes, pa.int64()),
                "degree": pa.array(deg, pa.int64()),
                "n_triangles": pa.array(tri2 // 2, pa.int64()),
                "clustering": pa.array(clus, pa.float64()),
            }
        )
    )
