"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Scale pattern for every operator here: vectorized per-batch signature
computation (combiner / partial aggregation) BEFORE the one unavoidable
groupby, so the all-to-all shuffle moves signatures, not documents.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from . import apply_per_partition, cluster_cpus

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)

# Blocks to compact small intermediate tables into before a groupby shuffle:
# Ray's sort-based shuffle costs O(input blocks x reduce tasks) scheduling, so
# tiny exploded tables in many blocks pay seconds of pure overhead. At real
# scale the intermediates are large and keep their natural partitioning.
SHUFFLE_BLOCKS = 8  # floor (measured sweet spot for tiny intermediates)


def shuffle_blocks() -> int:
    """Pre-groupby compaction width: floor of SHUFFLE_BLOCKS at test scale,
    scaling with the cluster so reduce parallelism isn't hard-capped at 8
    blocks on a 256-node cluster (half the CPUs: the map side of the
    shuffle still needs slots while reducers run)."""
    return max(SHUFFLE_BLOCKS, cluster_cpus() // 2)


def _text_hash64(texts: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Vectorized stable 64-bit hash of an Arrow column, strings or ints
    (polars/Rust, seed 0)."""
    import polars as pl

    s = pl.Series("t", pa.chunked_array([texts]) if isinstance(texts, pa.Array) else texts)
    return s.hash(seed=0).to_numpy().astype(np.uint64)


def pair_bucket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """256-way coarse bucket of an int64 key pair (dedup shuffle key)."""
    return (a * 31 + b) & 255


def distinct_pairs(
    pairs: rd.Dataset, key_cols: list[str], pre_bucketed: bool = False
) -> rd.Dataset:
    """Distinct rows by key pair: ~256 coarse pair buckets, one sort on
    the bucket and a pandas drop_duplicates per sorted block (cheaper
    than one Ray group per pair or per bucket).

    ``pre_bucketed=True``: the producing stage already emitted the int
    'pb' bucket column (and ideally pre-deduped within its own groups),
    so the extra map + compaction stages are skipped — one groupby is the
    whole dedup (the r4->r5 q_minhash_pairs fixed-overhead fix)."""

    def add_pb(batch: pa.Table) -> pa.Table:
        a = batch.column(key_cols[0]).to_numpy().astype(np.int64)
        b = batch.column(key_cols[1]).to_numpy().astype(np.int64)
        return batch.append_column("pb", pa.array(pair_bucket(a, b)))

    def dedupe(g: pd.DataFrame) -> pd.DataFrame:
        # deterministic winner per pair: sort by every column and keep the
        # LAST duplicate, so a bool 'truncated' flag resolves to OR
        # (True sorts after False) instead of shuffle-arrival order —
        # a pair found in both a capped and an uncapped bucket must
        # consistently read truncated=True
        g = g.sort_values(list(g.columns), kind="mergesort")
        return g.drop_duplicates(key_cols, keep="last").drop(columns=["pb"])

    if not pre_bucketed:
        pairs = pairs.map_batches(add_pb, batch_format="pyarrow").repartition(
            shuffle_blocks()
        )
    return apply_per_partition(pairs, "pb", dedupe)


# ---------------------------------------------------------------- exact dedup

def exact_dedup_min_doc(ds: rd.Dataset) -> rd.Dataset:
    """Keep min(doc_id) per distinct text -> (doc_id) rows.

    Per-batch combiner (pandas groupby within the batch) shrinks the
    shuffle to at most one row per distinct text per batch; the global
    groupby is KEYED on the COARSE-BUCKETED 64-bit text hash so the
    shuffle's sort/partition comparisons run on int64, not multi-KB
    strings, AND the reduce side pays one vectorized sub-groupby per
    sorted block instead of one Ray group per distinct text — the text column
    still travels as payload and equality is verified exactly inside the
    bucket (a hash collision merely co-locates two texts). Equivalent
    SQL: SELECT min(doc_id) AS doc_id FROM documents GROUP BY text.
    """

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().groupby("text", as_index=False)["doc_id"].min()
        cb = (_text_hash64(pa.array(df["text"])) & np.uint64(1023)).astype(
            np.int64
        )
        return pa.Table.from_pydict(
            {"cb": cb, "text": df["text"], "doc_id": df["doc_id"]}
        )

    partials = ds.select_columns(["doc_id", "text"]).map_batches(
        partial, batch_format="pyarrow"
    )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("text", as_index=False)["doc_id"].min()[["doc_id"]]

    return apply_per_partition(
        partials.repartition(shuffle_blocks()), "cb", final
    )


# ------------------------------------------------------------- MinHash + LSH

N_HASHES = 64
N_BANDS = 16
ROWS_PER_BAND = N_HASHES // N_BANDS

# fixed affine coefficients (splitmix64 of 1..k — deterministic, no RNG state)
def _coeffs(k: int) -> tuple[np.ndarray, np.ndarray]:
    from ..rng import mix64

    a = np.array([mix64(i * 2 + 1) | 1 for i in range(k)], dtype=np.uint64)
    b = np.array([mix64(i * 2 + 2) for i in range(k)], dtype=np.uint64)
    return a, b


_A, _B = _coeffs(N_HASHES)


def shingles_of(text: str, n: int = 3) -> list[str]:
    toks = text.split()
    if len(toks) < n:
        return [" ".join(toks)] if toks else []
    return [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]


def _shingle_hashes3(col) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized 3-token shingle hashes for a text column: polars token
    split (\\S+ == str.split()), shingles from three aligned list slices
    (byte-identical to ' '.join(toks[i:i+3])), rows with 1-2 tokens fall
    back to the whole-join shingle like ``shingles_of``. Returns
    (hashes in row-major shingle order, shingle count per row)."""
    import polars as pl

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    toks = pl.from_arrow(col).str.extract_all(r"\S+")
    lens = toks.list.len().to_numpy().astype(np.int64)
    counts = np.where(lens >= 3, lens - 2, (lens > 0).astype(np.int64))
    d = pl.DataFrame({"i": np.arange(len(lens)), "t": toks})
    tri = (
        d.filter(pl.col("t").list.len() >= 3)
        .select(
            "i",
            a=pl.col("t").list.slice(0, pl.col("t").list.len() - 2),
            b=pl.col("t").list.slice(1, pl.col("t").list.len() - 2),
            c=pl.col("t").list.slice(2),
        )
        .explode(["a", "b", "c"])
        .select("i", s=pl.col("a") + " " + pl.col("b") + " " + pl.col("c"))
    )
    short = (
        d.filter(
            (pl.col("t").list.len() > 0) & (pl.col("t").list.len() < 3)
        )
        .select("i", s=pl.col("t").list.join(" "))
    )
    allsh = pl.concat([tri, short]).sort("i", maintain_order=True)
    h = allsh.select(pl.col("s").hash(seed=0)).to_series().to_numpy().astype(
        np.uint64
    )
    return h, counts


def minhash_band_rows(batch: pa.Table) -> pa.Table:
    """Docs -> exploded (doc_id, band, band_hash, sig) rows.

    Signature math is numpy-vectorized over all 3-token shingles of the
    batch (``_shingle_hashes3``): one 64-bit base hash per shingle
    (polars), k affine transforms, min per doc via minimum.reduceat.
    Keep batch_size moderate (<=1024): the intermediate is
    n_shingles x 64 u64.
    """
    doc_ids = batch.column("doc_id").to_pylist()
    n_docs = batch.num_rows
    base, counts = _shingle_hashes3(batch.column("text"))
    starts = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    n_shingles_total = int(counts.sum())
    sig = np.full((n_docs, N_HASHES), np.iinfo(np.uint64).max, dtype=np.uint64)
    if n_shingles_total:
        with np.errstate(over="ignore"):
            tf = (base[:, None] * _A[None, :] + _B[None, :]) & _MASK64
        # reduceat needs non-empty segments; docs with 0 shingles keep MAX
        nonempty = counts > 0
        if nonempty.any():
            red = np.minimum.reduceat(tf, starts[nonempty], axis=0)
            sig[nonempty] = red
    # band hashes: chained multiply-xor over each band's rows, vectorized
    # across (doc, band) at once — ROWS_PER_BAND tiny passes over an
    # (n_docs, N_BANDS) array, no per-band Python assembly
    P = np.uint64(0x100000001B3)
    sig3 = sig.reshape(n_docs, N_BANDS, ROWS_PER_BAND)
    h = np.full((n_docs, N_BANDS), np.uint64(0xCBF29CE484222325), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(ROWS_PER_BAND):
            h = ((h ^ sig3[:, :, j]) * P) & _MASK64
    # band-major row layout (band 0's docs, band 1's docs, ...) — same
    # rows as before, order irrelevant to the downstream groupby
    doc_col = pa.chunked_array(
        [pa.array(doc_ids, pa.int64())] * N_BANDS
    )
    band_col = pa.array(
        np.repeat(np.arange(N_BANDS, dtype=np.int32), n_docs)
    )
    hash_col = pa.array(h.T.reshape(-1).astype(np.int64))
    sig_arr = pa.array([s.tobytes() for s in sig], pa.binary())
    sig_col = pa.chunked_array([sig_arr] * N_BANDS)
    return pa.Table.from_arrays(
        [doc_col, band_col, hash_col, sig_col],
        schema=pa.schema(
            [
                ("doc_id", pa.int64()),
                ("band", pa.int32()),
                ("band_hash", pa.int64()),
                ("sig", pa.binary()),
            ]
        ),
    )


def minhash_dup_pairs(ds: rd.Dataset, threshold: float = 0.7) -> rd.Dataset:
    """Near-dup candidate pairs with estimated Jaccard >= threshold.

    docs -> band rows -> groupby(band, band_hash) -> pairwise signature
    agreement within each (small) bucket -> distinct pairs. The shuffle
    carries (doc_id, 512-byte sig), never the text. Hot buckets are capped
    (cap=64 members) — a degenerate all-identical corpus would otherwise
    produce O(n^2) pairs; the cap is logged in the row output by the
    'truncated' flag on pairs from capped buckets.
    """
    # One map emits band rows AND the coarse sort key (bucket-of-
    # buckets, ~1024 keys): per-LSH-bucket pair generation happens in a
    # pandas sub-groupby INSIDE each sorted block — one UDF call per
    # block, not per LSH bucket or per coarse bucket, and fusing the key
    # into the band map drops a whole operator from the plan.
    def bands_with_cb(batch: pa.Table) -> pa.Table:
        t = minhash_band_rows(batch)
        cb = np.bitwise_and(
            t.column("band_hash").to_numpy().astype(np.int64), 1023
        )
        return t.append_column("cb", pa.array(cb))

    bands = ds.select_columns(["doc_id", "text"]).map_batches(
        bands_with_cb, batch_format="pyarrow", batch_size=512
    )

    def coarse_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # most LSH buckets are singletons: drop them in one vectorized
        # pass so the python loop only visits buckets that can pair
        g = g[g.duplicated(["band", "band_hash"], keep=False)]
        out = {"doc_a": [], "doc_b": [], "est_jaccard": [], "truncated": []}
        for (_band, _bh), sub in g.groupby(["band", "band_hash"], sort=True):
            sub = sub.drop_duplicates("doc_id").sort_values("doc_id")
            if len(sub) < 2:
                continue
            members = sub.head(64)
            truncated = len(sub) > 64
            sigs = np.stack(
                [np.frombuffer(s, dtype=np.uint64) for s in members["sig"]]
            )
            ids = members["doc_id"].tolist()
            eq = (sigs[:, None, :] == sigs[None, :, :]).mean(axis=2)
            ii, jj = np.triu_indices(len(ids), k=1)
            keep = eq[ii, jj] >= threshold
            ida = np.asarray(ids, dtype=np.int64)
            ik, jk = ii[keep], jj[keep]
            out["doc_a"].extend(ida[ik].tolist())
            out["doc_b"].extend(ida[jk].tolist())
            out["est_jaccard"].extend(
                np.round(eq[ik, jk].astype(np.float64), 6).tolist()
            )
            out["truncated"].extend([truncated] * int(keep.sum()))
        df = pd.DataFrame(out)
        # pre-dedup within this coarse group with the SAME deterministic
        # winner rule as distinct_pairs (sort all, keep last => truncated
        # resolves to OR), and emit the pair-dedup bucket key here so the
        # global distinct is a single groupby (no extra map/repartition)
        df["pb"] = pair_bucket(
            df["doc_a"].to_numpy(dtype=np.int64),
            df["doc_b"].to_numpy(dtype=np.int64),
        )
        df = df.sort_values(list(df.columns), kind="mergesort")
        return df.drop_duplicates(["doc_a", "doc_b"], keep="last")

    pairs = apply_per_partition(
        bands.repartition(shuffle_blocks()), "cb", coarse_pairs
    )
    return distinct_pairs(pairs, ["doc_a", "doc_b"], pre_bucketed=True)


def local_component_roots(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact in-memory connected components of an edge list ``(a[i],
    b[i])``: returns ``(nodes, roots)`` — the sorted distinct node ids
    and each node's component label (min node id of the component).
    Vectorized min-label with pointer doubling: O(E + N) numpy work per
    pass, O(log diameter) passes, no Python per-edge loop — the shared
    kernel for batch-local edge contraction AND the bounded driver-side
    CC path."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ia, ib = inv[: len(a)], inv[len(a):]
    lbl = np.arange(len(nodes))
    while True:
        new = lbl.copy()
        m = np.minimum(lbl[ia], lbl[ib])
        np.minimum.at(new, ia, m)
        np.minimum.at(new, ib, m)
        new = np.minimum(new, new[new])  # pointer doubling
        if np.array_equal(new, lbl):
            break
        lbl = new
    return nodes, nodes[lbl]


def connected_components_labels(
    pairs: rd.Dataset, max_iters: int = 50
) -> rd.Dataset:
    """Distributed connected components over an undirected edge list
    (doc_a, doc_b) -> (doc_id, label) rows, label = min doc_id of the
    component. Iterative min-label propagation: each round joins labels to
    the (symmetric) edge list and takes the per-node min over
    self + neighbor labels — edges and labels stay distributed, per-round
    cost is two groupby shuffles over the EDGE set (orders of magnitude
    smaller than the corpus). Converges in O(component diameter) rounds
    (near-dup clusters are clique-like: typically 1-3); ``max_iters`` is a
    pathological-chain backstop. The label sum strictly decreases until
    fixpoint, so it doubles as the convergence test."""

    # int64 sentinels instead of nulls: a null in an int column makes
    # pandas materialize the whole group as float64, silently corrupting
    # ids above 2^53 (exactly the hashed-id regime this path serves)
    NO_NODE = np.int64(np.iinfo(np.int64).min)  # ids are arbitrary int64
    NO_LBL = np.int64(np.iinfo(np.int64).max)

    def sym(batch: pa.Table) -> pa.Table:
        # Batch-LOCAL contraction before anything shuffles: resolve the
        # components of this batch's edges in-memory and emit STAR edges
        # (member -> batch-local root) instead of the raw edges.
        # Exactness is unchanged (same components, min-label still finds
        # the global min), but a chain contained in one batch contracts
        # to diameter 1, so the GLOBAL propagation rounds collapse from
        # component diameter to roughly the number of batch boundaries a
        # component spans (measured: the worst-case chain-topology
        # caller dropped 11.5 s -> ~6 s at sf0.1/32; clique-shaped
        # near-dup graphs were already diameter-1 and keep their rounds).
        a = batch.column("doc_a").to_numpy().astype(np.int64)
        b = batch.column("doc_b").to_numpy().astype(np.int64)
        if len(a) == 0:
            empty = np.empty(0, np.int64)
            return pa.Table.from_pydict(
                {"node": empty, "neigh": empty, "__lbl": empty, "cb": empty}
            )
        nodes, roots = local_component_roots(a, b)
        keep = roots != nodes
        # self-edge-only nodes would otherwise vanish from the edge set
        single = ~keep & ~np.isin(nodes, roots[keep])
        sa = np.concatenate([nodes[keep], nodes[single]])
        sb = np.concatenate([roots[keep], nodes[single]])
        node = np.concatenate([sa, sb])
        neigh = np.concatenate([sb, sa])
        return pa.Table.from_pydict(
            {
                "node": node,
                "neigh": neigh,
                "__lbl": np.full(len(node), NO_LBL),
                "cb": neigh & 1023,  # coarse shuffle key (bucket-of-neighs)
            }
        )

    edges = (
        pairs.select_columns(["doc_a", "doc_b"])
        .map_batches(sym, batch_format="pyarrow")
        .repartition(shuffle_blocks())
        .materialize()  # reused every round; edge set, not corpus
    )

    # initial labels: label(node) = node, one row per distinct node
    def init_partial(batch: pa.Table) -> pa.Table:
        u = np.unique(batch.column("node").to_numpy())
        return pa.Table.from_pydict({"node": u, "cb": u & 1023})

    def init_final(g: pd.DataFrame) -> pd.DataFrame:
        u = g["node"].drop_duplicates()
        return pd.DataFrame({"node": u, "label": u})

    labels = apply_per_partition(
        edges.map_batches(init_partial, batch_format="pyarrow"), "cb",
        init_final,
    ).materialize()

    def label_sum(lbl: rd.Dataset) -> int:
        return int(lbl.sum("label") or 0)

    def pad_labels(batch: pa.Table) -> pa.Table:
        # label rows join the edge stream keyed by the node they label
        n = batch.num_rows
        node = batch.column("node")
        return pa.Table.from_pydict(
            {
                "node": np.full(n, NO_NODE),
                "neigh": node,
                "__lbl": batch.column("label"),
                "cb": pa.array(
                    node.to_numpy(zero_copy_only=False).astype(np.int64) & 1023
                ),
            }
        )

    def spread(g: pd.DataFrame) -> pd.DataFrame:
        # per neigh: min label among its label rows (edge rows carry the
        # NO_LBL sentinel, which never wins the min — every neigh has a
        # real label row); emit it to every adjacent node
        m = g.groupby("neigh")["__lbl"].min().rename("label")
        nodes = g.loc[g["node"] != NO_NODE, ["neigh", "node"]]
        out = nodes.join(m, on="neigh")
        return pd.DataFrame(
            {
                "node": out["node"].astype(np.int64),
                "label": out["label"].astype(np.int64),
            }
        )

    def take_min(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("node", as_index=False)["label"].min()
        return m[["node", "label"]]

    def add_node_cb(batch: pa.Table) -> pa.Table:
        node = batch.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
        out = batch
        if "cb" in out.column_names:
            out = out.drop_columns(["cb"])
        return out.append_column("cb", pa.array(node & 1023))

    prev_sum = label_sum(labels)
    for _ in range(max_iters):
        both = edges.union(labels.map_batches(pad_labels, batch_format="pyarrow"))
        neigh_labels = apply_per_partition(
            both.repartition(shuffle_blocks()), "cb", spread
        )
        labels = apply_per_partition(
            neigh_labels.union(labels)
            .map_batches(add_node_cb, batch_format="pyarrow")
            .repartition(shuffle_blocks()),
            "cb",
            take_min,
        ).materialize()
        cur = label_sum(labels)
        if cur == prev_sum:
            break
        prev_sum = cur

    def to_doc_rows(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"doc_id": batch.column("node"), "label": batch.column("label")}
        )

    return labels.map_batches(to_doc_rows, batch_format="pyarrow")


# Pair counts below this resolve on the driver (exact union-find over a
# take_all'd list — the standard trick while pairs fit one machine);
# above it, or when cc_mode="distributed", label propagation runs instead.
CC_DRIVER_MAX_PAIRS = 2_000_000


def minhash_dedup_keep(
    ds: rd.Dataset, threshold: float = 0.7, cc_mode: str = "auto"
) -> rd.Dataset:
    """Near-dup removal: cluster candidate pairs (connected components) and
    keep min(doc_id) per cluster -> (doc_id) rows of survivors.

    The pair set is orders of magnitude smaller than the corpus (LSH
    candidates), so components resolve with driver-side union-find while
    pairs fit the driver (<= CC_DRIVER_MAX_PAIRS); beyond that — a
    pathological near-dup-heavy corpus — ``connected_components_labels``
    runs distributed min-label propagation over the pair Dataset with no
    driver materialization. ``cc_mode``: "auto" | "driver" | "distributed".
    The corpus itself is always filtered distributed with a broadcast
    drop-set — documents never leave workers."""
    import ray

    labels = component_labels(
        minhash_dup_pairs(ds, threshold).select_columns(["doc_a", "doc_b"]),
        cc_mode=cc_mode,
    )

    def non_roots(batch: pa.Table) -> pa.Table:
        keep_mask = pa.compute.not_equal(
            batch.column("doc_id"), batch.column("label")
        )
        return batch.filter(keep_mask).select(["doc_id"])

    # the drop set is one int per duplicate doc — still broadcastable
    # at any pair scale that fits the LSH caps; a corpus where even
    # THIS overflows would anti-join labels against the corpus instead
    drop = {
        int(r["doc_id"])
        for r in labels.map_batches(
            non_roots, batch_format="pyarrow"
        ).take_all()
    }
    drop_ref = ray.put(np.sort(np.fromiter(drop, np.int64, len(drop))))

    def keep(batch: pa.Table) -> pa.Table:
        # broadcast drop-set is a SORTED int64 array: membership resolves
        # with one vectorized searchsorted per batch, no Python row loop
        darr = ray.get(drop_ref)
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        pos = np.searchsorted(darr, ids)
        hit = pos < len(darr)
        hit[hit] = darr[pos[hit]] == ids[hit]
        return batch.filter(pa.array(~hit)).select(["doc_id"])

    return ds.map_batches(keep, batch_format="pyarrow")


# ------------------------------------------------------------------- SimHash

def simhash_batch(batch: pa.Table) -> pa.Table:
    """Add simhash64 (int64 bit-pattern): sign-sum of token-hash bits.
    Token split + hash fully vectorized (polars \\S+ extract == str.split,
    explode, hash in one pass)."""
    import polars as pl

    doc_ids = batch.column("doc_id")
    col = batch.column("text")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    toks = pl.from_arrow(col).str.extract_all(r"\S+")
    lens = toks.list.len().to_numpy().astype(np.int64)
    starts = np.zeros(len(lens), dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    n_toks = int(lens.sum())
    n = batch.num_rows
    out = np.zeros(n, dtype=np.uint64)
    if n_toks:
        H = (
            pl.DataFrame({"t": toks})
            .explode("t")
            .drop_nulls()
            .select(pl.col("t").hash(seed=0))
            .to_series()
            .to_numpy()
            .astype(np.uint64)
        )
        bits = ((H[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
            np.int64
        ) * 2 - 1
        seg = np.asarray(starts, dtype=np.int64)
        nonempty = np.diff(np.append(seg, n_toks)) > 0
        if nonempty.any():
            sums = np.add.reduceat(bits, seg[nonempty], axis=0)
            vals = (sums > 0).astype(np.uint64)
            packed = np.zeros(vals.shape[0], dtype=np.uint64)
            for b in range(64):
                packed |= vals[:, b] << np.uint64(b)
            out[nonempty] = packed
    return pa.Table.from_arrays(
        [doc_ids, pa.array(out.astype(np.int64))], names=["doc_id", "simhash64"]
    )


def simhash_dup_pairs(ds: rd.Dataset, max_hamming: int = 3) -> rd.Dataset:
    """Near-dup pairs with Hamming(simhash) <= max_hamming.

    Pigeonhole blocking: 4 x 16-bit blocks — any pair within distance 3
    shares at least one block; bucket-groupby per block, verify Hamming in
    the bucket, distinct pairs."""
    sh = ds.select_columns(["doc_id", "text"]).map_batches(
        simhash_batch, batch_format="pyarrow"
    )
    return hamming_dup_pairs(sh, max_hamming=max_hamming)


def hamming_dup_pairs(sh: rd.Dataset, max_hamming: int = 3) -> rd.Dataset:
    """Near-dup pairs over ANY 64-bit signature column — the pigeonhole
    blocking + in-bucket vectorized-Hamming verify shared by text simhash
    and image perceptual hashes (multimodal.image_dup_pairs). Input
    contract: columns (doc_id:int64, simhash64:int64 bit-pattern).

    The 4 x 16-bit block split guarantees recall only for
    ``max_hamming <= 3`` (a pair at distance d can disagree in at most d
    blocks, so with 4 blocks any pair at d <= 3 shares one) — enforced
    loudly rather than silently losing pairs."""
    if max_hamming > 3:
        raise ValueError(
            "hamming_dup_pairs: 4-block pigeonhole guarantees recall only "
            f"for max_hamming <= 3 (got {max_hamming})"
        )
    return _hamming_dup_pairs_impl(sh, max_hamming, max_bucket=64)


def _hamming_dup_pairs_impl(
    sh: rd.Dataset, max_hamming: int, max_bucket: int
) -> rd.Dataset:

    def explode_blocks(batch: pa.Table) -> pa.Table:
        # emits the coarse groupby key alongside the block rows (fused,
        # same reasoning as minhash_dup_pairs' bands_with_cb)
        ids = batch.column("doc_id").to_numpy()
        h = batch.column("simhash64").to_numpy().astype(np.uint64)
        out = {"doc_id": [], "block": [], "block_val": [], "simhash64": []}
        for blk in range(4):
            out["doc_id"].extend(ids.tolist())
            out["block"].extend([blk] * len(ids))
            out["block_val"].extend(
                ((h >> np.uint64(16 * blk)) & np.uint64(0xFFFF)).astype(np.int64).tolist()
            )
            out["simhash64"].extend(h.astype(np.int64).tolist())
        t = pa.Table.from_pydict(out)
        blk = t.column("block").to_numpy().astype(np.int64)
        bv = t.column("block_val").to_numpy().astype(np.int64)
        return t.append_column("cb", pa.array(blk * 256 + (bv & 255)))

    blocks = sh.map_batches(explode_blocks, batch_format="pyarrow")

    def coarse_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g.duplicated(["block", "block_val"], keep=False)]  # singleton buckets can't pair
        out = {"doc_a": [], "doc_b": [], "hamming": [], "truncated": []}
        for (_blk, _bv), sub in g.groupby(["block", "block_val"], sort=True):
            sub = sub.drop_duplicates("doc_id").sort_values("doc_id")
            if len(sub) < 2:
                continue
            truncated = len(sub) > max_bucket  # capped hot bucket: pairs may be missed
            sub = sub.head(max_bucket)
            ids = np.asarray(sub["doc_id"].tolist())
            hs = sub["simhash64"].to_numpy().astype(np.uint64)
            # vectorized pairwise Hamming: XOR -> bytes -> unpackbits -> sum
            x = (hs[:, None] ^ hs[None, :]).copy()
            ham = np.unpackbits(x.view(np.uint8).reshape(len(ids), len(ids), 8), axis=2).sum(
                axis=2
            )
            ii, jj = np.triu_indices(len(ids), k=1)
            keep = ham[ii, jj] <= max_hamming
            out["doc_a"].extend(ids[ii[keep]].tolist())
            out["doc_b"].extend(ids[jj[keep]].tolist())
            out["hamming"].extend(ham[ii[keep], jj[keep]].astype(int).tolist())
            out["truncated"].extend([truncated] * int(keep.sum()))
        # explicit dtypes: an all-empty bucket otherwise yields float64
        # columns and a spurious mixed-schema warning from the executor
        df = pd.DataFrame(out).astype(
            {"doc_a": np.int64, "doc_b": np.int64, "hamming": np.int64,
             "truncated": bool}
        )
        # pre-dedup + fused pair-bucket key (see minhash coarse_pairs)
        df["pb"] = pair_bucket(
            df["doc_a"].to_numpy(dtype=np.int64),
            df["doc_b"].to_numpy(dtype=np.int64),
        )
        df = df.sort_values(list(df.columns), kind="mergesort")
        return df.drop_duplicates(["doc_a", "doc_b"], keep="last")

    pairs = apply_per_partition(
        blocks.repartition(shuffle_blocks()), "cb", coarse_pairs
    )
    return distinct_pairs(pairs, ["doc_a", "doc_b"], pre_bucketed=True)


# -------------------------------------------------------- exact n-gram Jaccard

def verify_pairs_jaccard(
    pairs: list[tuple[int, int]], ds: rd.Dataset, n_shingle: int = 3
) -> rd.Dataset:
    """Exact n-gram Jaccard for candidate pairs: the needed doc texts are a
    small set -> broadcast {doc_id: shingle-set} via ray.put, score pairs
    in a map_batches over the pair list (no shuffle)."""
    import ray

    needed = sorted({d for p in pairs for d in p})

    def collect(batch: pa.Table) -> pa.Table:
        mask = pa.compute.is_in(batch.column("doc_id"), value_set=pa.array(needed))
        return batch.filter(mask)

    small = ds.select_columns(["doc_id", "text"]).map_batches(
        collect, batch_format="pyarrow"
    ).take_all()
    lookup_ref = ray.put(
        {r["doc_id"]: set(shingles_of(r["text"], n_shingle)) for r in small}
    )

    def score(batch: pa.Table) -> pa.Table:
        lk = ray.get(lookup_ref)
        ja = []
        for a, b in zip(
            batch.column("doc_a").to_pylist(), batch.column("doc_b").to_pylist()
        ):
            sa, sb = lk.get(a, set()), lk.get(b, set())
            union = len(sa | sb)
            ja.append(round(len(sa & sb) / union, 6) if union else 0.0)
        return batch.append_column("jaccard", pa.array(ja, pa.float64()))

    pair_tbl = pa.Table.from_pydict(
        {
            "doc_a": [a for a, _ in pairs],
            "doc_b": [b for _, b in pairs],
        }
    )
    return rd.from_arrow(pair_tbl).map_batches(score, batch_format="pyarrow")


# ----------------------------------------------- whole-document exact dedup

def doc_signature_batch(batch: pa.Table) -> pa.Table:
    """Doc rows -> (doc_id, doc_h64, doc_h64b): a 128-bit signature of the
    FULL span sequence (kind, text, media_ref, offset — polars hashes the
    nested list<struct> column natively, vectorized, two independent
    seeds). Dedup-by-128-bit-hash is the content-addressing contract:
    collision probability ~n^2/2^129 is negligible at any corpus size
    (~1e-20 at 10^12 docs), vs percent-level for a single 64-bit hash."""
    import polars as pl

    col = batch.column("spans")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    s = pl.from_arrow(col)
    ha = s.hash(seed=0).to_numpy().astype(np.int64)
    hb = s.hash(seed=1).to_numpy().astype(np.int64)
    return pa.Table.from_pydict(
        {"doc_id": batch.column("doc_id"), "doc_h64": ha, "doc_h64b": hb}
    )


def dedup_survivor_doc_ids(ds: rd.Dataset) -> rd.Dataset:
    """Exact whole-document dedup pre-pass: keep min(doc_id) per distinct
    document -> (doc_id) survivor rows. The shuffle carries only
    (128-bit signature, doc_id) rows, never spans; per-batch combiner
    first, then ~1024 coarse buckets, one sort on the bucket and the
    per-signature sub-groupby in pandas once per sorted block (one Ray
    group per distinct doc would pay per-group overhead x corpus size)."""

    def partial(batch: pa.Table) -> pa.Table:
        sig = doc_signature_batch(batch).to_pandas()
        df = sig.groupby(["doc_h64", "doc_h64b"], as_index=False)["doc_id"].min()
        df["cb"] = df["doc_h64"].to_numpy().astype(np.int64) & 1023
        return pa.Table.from_pandas(df, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["doc_h64", "doc_h64b"], as_index=False)["doc_id"].min()[
            ["doc_id"]
        ]

    return apply_per_partition(
        partials.repartition(shuffle_blocks()), "cb", final
    )


# --------------------------------------------------------- stratified sample

def stratified_sample(
    ds: rd.Dataset, group_col: str, k: int, id_col: str = "doc_id"
) -> rd.Dataset:
    """Deterministic stratified sample: the k rows per group with the
    smallest md5(id) — a keyed pseudo-random order both this engine and
    any SQL engine can reproduce (ORDER BY md5(CAST(id AS VARCHAR))), so
    the sample is stable across runs, partitionings and systems.

    Per-batch combiner keeps only k candidates per group per batch, so the
    groupby shuffle moves O(k x groups x batches) rows, never the corpus.
    The standard per-stratum downsampling step of a training-data mix."""
    from ..md5np import md5_hex

    def add_key(batch: pa.Table) -> pa.Table:
        # vectorized MD5 (md5np) — same digests as hashlib/SQL md5(), no
        # per-row Python loop over the corpus
        return batch.append_column("__sk", md5_hex(batch.column(id_col)))

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df.sort_values(["__sk", id_col], kind="mergesort")
        return pa.Table.from_pandas(
            df.groupby(group_col, sort=False).head(k), preserve_index=False
        )

    partials = ds.map_batches(add_key, batch_format="pyarrow").map_batches(
        partial, batch_format="pyarrow"
    )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["__sk", id_col], kind="mergesort").head(k)
        return g.drop(columns=["__sk"])

    return partials.groupby(group_col).map_groups(final, batch_format="pandas")


def token_budget_select(
    ds: rd.Dataset,
    group_col: str,
    budget: int,
    weight_col: str = "n_tokens",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Per-group token-budget selection: walk each group's rows in the
    keyed pseudo-random md5(id) order (the :func:`stratified_sample`
    contract) and keep rows while the group's running sum of
    ``weight_col`` stays <= ``budget`` — the mixture-building step that
    caps each source/language at a fixed token budget, reproducible in
    SQL as ``SUM(w) OVER (PARTITION BY g ORDER BY md5(id), id ROWS
    UNBOUNDED PRECEDING) <= budget``.

    Scale: the per-batch combiner applies the same filter locally first —
    with non-negative weights a row's true prefix sum in the merged order
    is >= its within-batch prefix sum (merging can only ADD earlier rows),
    so a locally over-budget row can never be selected globally. The
    groupby shuffle therefore moves at most the plausible survivors
    (O(budget / min_weight) rows per group per batch), never the corpus.
    Groups are whole sources/languages — few keys, so a plain groupby
    (not the coarse-bucket idiom) is the right final merge."""
    from ..md5np import md5_hex

    def add_key(batch: pa.Table) -> pa.Table:
        return batch.append_column("__sk", md5_hex(batch.column(id_col)))

    def select(df: pd.DataFrame) -> pd.DataFrame:
        if (df[weight_col].to_numpy() < 0).any():
            raise ValueError(
                "token_budget_select: negative weights break the "
                "prefix-sum monotonicity the combiner relies on"
            )
        df = df.sort_values(["__sk", id_col], kind="mergesort")
        run = df.groupby(group_col, sort=False)[weight_col].cumsum()
        return df[run.to_numpy() <= budget]

    partials = ds.map_batches(add_key, batch_format="pyarrow").map_batches(
        lambda b: pa.Table.from_pandas(select(b.to_pandas()), preserve_index=False),
        batch_format="pyarrow",
    )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return select(g).drop(columns=["__sk"])

    return partials.groupby(group_col).map_groups(final, batch_format="pandas")


# ------------------------------------------------- deterministic data split

def train_test_split(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    fractions: tuple[float, float] = (0.8, 0.1),
) -> rd.Dataset:
    """Assign every row a deterministic train/valid/test split label.

    The label is a pure function of ``md5(id)`` — the same keyed
    pseudo-random contract as :func:`stratified_sample`, so the assignment
    is stable across runs, partitionings, cluster sizes AND reproducible
    by any SQL engine: the first byte of the md5 digest (two hex chars)
    lands in 0..255 and is cut at ``floor(f_train*256)`` /
    ``floor((f_train+f_valid)*256)``. Embarrassingly parallel — a
    row-local map, no shuffle; the standard corpus-split step of a
    training-data pipeline."""
    from ..md5np import md5_hex

    if fractions[0] < 0 or fractions[1] < 0 or fractions[0] + fractions[1] > 1:
        raise ValueError(
            "train_test_split: fractions must be non-negative and sum to <= 1"
        )
    cut1 = int(fractions[0] * 256)
    cut2 = int((fractions[0] + fractions[1]) * 256)
    # a cut of 256 means "every bucket": 'g' sorts after every 2-hex-char
    # prefix, so the lexicographic compare stays correct (format() would
    # yield the 3-char '100', which sorts BEFORE most 2-char prefixes)
    hex1 = "g" if cut1 >= 256 else format(cut1, "02x")
    hex2 = "g" if cut2 >= 256 else format(cut2, "02x")

    def assign(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        h2 = pc.utf8_slice_codeunits(md5_hex(batch.column(id_col)), 0, 2)
        split = pc.if_else(
            pc.less(h2, hex1),
            pa.scalar("train"),
            pc.if_else(pc.less(h2, hex2), pa.scalar("valid"), pa.scalar("test")),
        )
        return batch.append_column("split", split)

    return ds.map_batches(assign, batch_format="pyarrow")


# ------------------------------------ LSH candidates + exact n-gram Jaccard

def ngram_jaccard_dup_pairs(
    ds: rd.Dataset,
    threshold: float = 0.8,
    candidate_threshold: float = 0.5,
    n_shingle: int = 3,
    max_candidate_pairs: int = 200_000,
) -> rd.Dataset:
    """Near-dup pairs by EXACT character n-gram Jaccard, with MinHash+LSH
    candidate generation so no all-pairs pass ever runs.

    Two stages: (1) :func:`minhash_dup_pairs` at a deliberately lower
    ``candidate_threshold`` (recall knob — LSH + signature agreement at
    0.5 keeps essentially every true >=0.8 pair as a candidate while the
    banded LSH prunes the quadratic space); (2) exact shingle-set Jaccard
    on just the candidate pairs (:func:`verify_pairs_jaccard`), keeping
    only ``jaccard >= threshold``. The verify step broadcasts shingle sets
    for the candidate doc set only — ``max_candidate_pairs`` caps the
    candidate PAIR count so a degenerate corpus (everything
    near-identical) fails loudly instead of OOMing the driver; raise it
    only if the candidate set fits one node.
    """
    cand = minhash_dup_pairs(ds, threshold=candidate_threshold)
    pair_rows = (
        cand.select_columns(["doc_a", "doc_b"])
        .limit(max_candidate_pairs + 1)
        .take_all()
    )
    if len(pair_rows) > max_candidate_pairs:
        raise ValueError(
            f"ngram_jaccard_dup_pairs: more than {max_candidate_pairs} "
            "candidate pairs — lower candidate recall (raise "
            "candidate_threshold) or raise max_candidate_pairs if the "
            "candidate set fits one node"
        )
    pairs = sorted((r["doc_a"], r["doc_b"]) for r in pair_rows)
    if not pairs:
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        )
    scored = verify_pairs_jaccard(pairs, ds, n_shingle=n_shingle)
    return scored.filter(expr=f"jaccard >= {threshold}")


# ------------------------------------- seeded global shuffle (rank order)

def seeded_shuffle_rank(
    ds: rd.Dataset, id_col: str = "doc_id", seed: int = 0, bucket_chars: int = 2
) -> rd.Dataset:
    """Assign every row its position in a deterministic seeded global
    shuffle — the reproducible training-order pass of a data pipeline.

    Order key = ``md5(CAST(id AS VARCHAR) || ':<seed>')``, the same keyed
    pseudo-random contract as :func:`stratified_sample`, so any SQL engine
    reproduces the order (``row_number() OVER (ORDER BY md5(...), id)``).

    Distributed rank without a global sort: the key's first
    ``bucket_chars`` hex chars split rows into 16^bucket_chars
    range-ordered buckets (hex prefix order == md5 key order). Pass 1
    counts rows per bucket (one tiny count table per batch, merged on the
    driver — bounded by 16^bucket_chars ints, never rows); pass 2 ranks
    within each bucket (groupby + local sort) and adds the bucket's
    exclusive prefix offset. Raise ``bucket_chars`` to 3-4 at corpus
    scale so each bucket's (id, key) pairs fit a worker."""
    from ..md5np import md5_hex

    n_buckets = 16 ** bucket_chars
    salt = f":{seed}"

    def add_key(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids_str = pc.cast(batch.column(id_col), pa.string())
        keyed = pc.binary_join_element_wise(ids_str, salt, "")
        sk = md5_hex(keyed)
        bucket = pc.utf8_slice_codeunits(sk, 0, bucket_chars)
        t = pa.table({id_col: batch.column(id_col)})
        return t.append_column("__sk", sk).append_column("__bucket", bucket)

    keyed = ds.select_columns([id_col]).map_batches(add_key, batch_format="pyarrow")

    def count_partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        return (
            pl.from_arrow(batch.select(["__bucket"]))
            .group_by("__bucket")
            .len()
            .rename({"len": "n"})
            .to_arrow()
        )

    counts = np.zeros(n_buckets, dtype=np.int64)
    for part in keyed.map_batches(count_partial, batch_format="pyarrow").take_all():
        counts[int(part["__bucket"], 16)] += part["n"]
    offsets = {format(b, f"0{bucket_chars}x"): int(o)
               for b, o in enumerate(np.cumsum(counts) - counts)}

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["__sk", id_col], kind="mergesort")
        base = offsets[g["__bucket"].iloc[0]]
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(),
                "shuffle_pos": base + np.arange(len(g), dtype=np.int64),
            }
        )

    # map_groups, not apply_per_partition: rank reads its bucket's offset
    return (
        keyed.repartition(shuffle_blocks())
        .groupby("__bucket")
        .map_groups(rank, batch_format="pandas")
    )


# ------------------------------------- benchmark / eval decontamination

def _batch_token_ngrams(batch: pa.Table, n: int, id_col: str, keep_id: bool):
    """Per-batch token ``n``-grams as a polars frame of ``g`` (space-joined
    tokens), optionally with the owning row id — shared by the broadcast
    and sharded decontamination paths. Fully vectorized: tokens via
    str.extract_all, n-grams from n aligned list slices (same zip trick
    as top_bigrams)."""
    import polars as pl

    from .textstats import TOKEN_RE

    cols = {"t": pl.from_arrow(batch.column("text"))}
    if keep_id:
        cols[id_col] = pl.from_arrow(batch.column(id_col))
    toks = pl.DataFrame(cols).with_columns(
        pl.col("t").str.extract_all(TOKEN_RE).alias("t")
    )
    parts = [
        pl.col("t").list.slice(j, pl.col("t").list.len() - (n - 1)).alias(f"__g{j}")
        for j in range(n)
    ]
    out = toks.select([c for c in cols if c != "t"] + parts).explode(
        [f"__g{j}" for j in range(n)]
    ).drop_nulls()
    expr = pl.col("__g0")
    for j in range(1, n):
        expr = expr + " " + pl.col(f"__g{j}")
    return out.select(
        ([pl.col(id_col)] if keep_id else []) + [expr.alias("g")]
    )


def decontaminate_against_eval(
    ds: rd.Dataset,
    n: int = 3,
    id_col: str = "doc_id",
    max_eval_ngrams: int = 2_000_000,
) -> rd.Dataset:
    """Benchmark-decontamination pass: flag TRAIN-split documents sharing
    any token ``n``-gram with the TEST split (the eval set). Splits come
    from :func:`train_test_split`'s md5 contract, so the whole operation
    is reproducible by any SQL engine.

    Scale shape: the eval side of a decontamination job is a benchmark —
    tiny next to the corpus — so its distinct n-gram set is collected
    once (LOUDLY guarded by ``max_eval_ngrams``; past that cap you want a
    distributed semi-join on exploded n-grams instead) and broadcast via
    ``ray.put``. The train side streams as plain tasks: the sorted
    n-gram array resolves once per worker process (per-worker broadcast
    cache — actor-style amortization without a per-query pool spawn) and
    each batch resolves membership via ``np.searchsorted`` — vectorized,
    no per-batch index rebuild, no shuffle at all. Returns
    (id, n_overlap) for contaminated train docs only."""
    import polars as pl
    import ray

    labeled = train_test_split(ds.select_columns([id_col, "text"]), id_col=id_col)

    def batch_ngrams(batch: pa.Table, keep_id: bool) -> pl.DataFrame:
        return _batch_token_ngrams(batch, n=n, id_col=id_col, keep_id=keep_id)

    def eval_partial(batch: pa.Table) -> pa.Table:
        return (
            batch_ngrams(batch, keep_id=False).unique().to_arrow()
        )

    eval_grams: set[str] = set()
    for row in (
        labeled.filter(expr="split == 'test'")
        .map_batches(eval_partial, batch_format="pyarrow")
        .take_all()
    ):
        eval_grams.add(row["g"])
        if len(eval_grams) > max_eval_ngrams:
            raise ValueError(
                f"decontaminate_against_eval: eval n-gram set exceeds "
                f"max_eval_ngrams={max_eval_ngrams}; use a distributed "
                "semi-join on exploded n-grams for a corpus-scale eval side"
            )
    grams_ref = ray.put(np.sort(np.array(sorted(eval_grams), dtype=object).astype(str)))

    from . import resolve_broadcast

    def contamination_check(batch: pa.Table) -> pa.Table:
        grams = resolve_broadcast(grams_ref)  # sorted once per worker
        per_doc = batch_ngrams(batch, keep_id=True).unique()
        if not len(per_doc):
            return pa.Table.from_pydict(
                {id_col: pa.array([], pa.int64()),
                 "n_overlap": pa.array([], pa.int64())}
            )
        g = per_doc["g"].to_numpy().astype(str)
        pos = np.searchsorted(grams, g)
        # ok[ok] idiom: safe when the eval n-gram set is EMPTY (an empty
        # or token-free test split) — no -1 indexing into a size-0 array
        hit = pos < len(grams)
        hit[hit] = grams[pos[hit]] == g[hit]
        hits = per_doc.filter(pl.Series(hit)).group_by(id_col).len()
        return (
            hits.rename({"len": "n_overlap"})
            .cast({"n_overlap": pl.Int64})
            .to_arrow()
        )

    return labeled.filter(expr="split == 'train'").map_batches(
        contamination_check, batch_format="pyarrow"
    )


def decontaminate_against_eval_sharded(
    ds: rd.Dataset,
    n: int = 3,
    id_col: str = "doc_id",
    n_shards: int = 8,
) -> rd.Dataset:
    """Corpus-scale variant of :func:`decontaminate_against_eval`: the
    eval n-gram set is hash-partitioned across ``n_shards`` membership
    actors instead of being collected on the driver, so there is NO
    ``max_eval_ngrams`` ceiling — an eval side the size of a corpus
    shard-streams in and the driver never holds a single n-gram.

    Same semantics (identical (id, n_overlap) rows; the tests pin
    equality against the broadcast path). Two streamed passes, zero
    shuffle:

    1. eval INGEST: each test-split batch's distinct n-grams are
       partitioned by ``md5_u32(g) % n_shards`` (pinned md5 prefix — the
       mapping is stable by spec across processes and library builds) and
       pushed with ONE rpc per owning actor per batch; actors accumulate
       a set, then ``seal()`` into a sorted array for searchsorted.
    2. train CHECK: each train batch's per-doc distinct n-grams are
       partitioned the same way; one membership rpc per owning actor per
       batch, masks recombined row-locally, hits counted per doc.

    Raw Ray actors are the documented escape hatch here: a shared
    build-then-probe index is mutable cross-batch state the Dataset API
    cannot express (same pattern as ``state/dedup_index.py``)."""
    import polars as pl
    import ray

    # num_cpus=0: the shards are memory-resident indexes doing bounded
    # searchsorted probes per rpc; reserving CPU slots for them can
    # deadlock the streaming executor on small clusters (actor handles
    # outlive the call inside the returned lazy dataset's closure). Size
    # n_shards to spread MEMORY across nodes, not CPU.
    @ray.remote(num_cpus=0)
    class GramShard:
        def __init__(self):
            self.grams: set[str] | None = set()
            self.arr: np.ndarray | None = None

        def add(self, grams: list[str]) -> int:
            self.grams.update(grams)
            return len(self.grams)

        def seal(self) -> int:
            self.arr = np.array(sorted(self.grams), dtype=object).astype(str)
            self.grams = None
            return len(self.arr)

        def contains(self, grams: list[str]) -> list[bool]:
            g = np.array(grams, dtype=object).astype(str)
            pos = np.searchsorted(self.arr, g)
            ok = pos < len(self.arr)
            ok[ok] = self.arr[pos[ok]] == g[ok]
            return ok.tolist()

    # consumed twice (eval pass, train pass) but NOT materialized: the
    # split is a row-local md5 map, so re-streaming from source is cheaper
    # at corpus scale than holding every text in the object store
    labeled = train_test_split(ds.select_columns([id_col, "text"]), id_col=id_col)
    actors = [GramShard.remote() for _ in range(n_shards)]

    def shard_of(frame: pl.DataFrame) -> np.ndarray:
        # PINNED md5-based routing (md5np.md5_u32), not polars Series.hash:
        # the eval and train passes hash in DIFFERENT worker processes, and
        # polars documents its hash values as unstable across versions — a
        # cluster with heterogeneous polars builds would silently misroute
        # probes and under-report contamination. md5 is stable by spec.
        from ..md5np import md5_u32

        return (md5_u32(frame["g"].to_arrow()) % np.uint32(n_shards)).astype(
            np.int64
        )

    def ingest(batch: pa.Table) -> pa.Table:
        grams = _batch_token_ngrams(batch, n=n, id_col=id_col, keep_id=False).unique()
        sh = shard_of(grams)
        futs = []
        for a in range(n_shards):
            part = grams.filter(pl.Series(sh == a))["g"].to_list()
            if part:
                futs.append(actors[a].add.remote(part))
        ray.get(futs)  # batch counted done only once its grams are indexed
        return pa.Table.from_pydict({"n_grams": pa.array([len(grams)], pa.int64())})

    # drive the ingest pass to completion (take_all over one tiny count
    # row per batch), then freeze every shard for probing
    labeled.filter(expr="split == 'test'").map_batches(
        ingest, batch_format="pyarrow"
    ).take_all()
    ray.get([a.seal.remote() for a in actors])

    def check(batch: pa.Table) -> pa.Table:
        per_doc = _batch_token_ngrams(batch, n=n, id_col=id_col, keep_id=True).unique()
        if not len(per_doc):
            return pa.Table.from_pydict(
                {id_col: pa.array([], pa.int64()),
                 "n_overlap": pa.array([], pa.int64())}
            )
        sh = shard_of(per_doc)
        hit = np.zeros(len(per_doc), dtype=bool)
        futs, masks = {}, {}
        for a in range(n_shards):
            m = sh == a
            if m.any():
                masks[a] = m
                futs[a] = actors[a].contains.remote(
                    per_doc.filter(pl.Series(m))["g"].to_list()
                )
        for a, fut in futs.items():
            hit[masks[a]] = ray.get(fut)
        hits = per_doc.filter(pl.Series(hit)).group_by(id_col).len()
        return (
            hits.rename({"len": "n_overlap"})
            .cast({"n_overlap": pl.Int64})
            .to_arrow()
        )

    return labeled.filter(expr="split == 'train'").map_batches(
        check, batch_format="pyarrow", batch_size=512
    )


# ------------------------------ deterministic negative sampling (pairs)

def negative_pairs(
    ds: rd.Dataset, id_col: str = "doc_id", seed: int = 0
) -> rd.Dataset:
    """Deterministic negative sampling for contrastive training: every
    row pairs with the row half a revolution away in the seeded global
    shuffle order — a reproducible derangement (no row pairs with
    itself for n >= 2), SQL-expressible via the same md5 row_number
    contract as :func:`seeded_shuffle_rank`.

    Composition, not new machinery: shuffle rank -> row-local target
    position -> int-keyed hash join of the rank table with itself.
    Output: (id, partner_id)."""
    from .joins import bucketed_merge_join

    ranks = seeded_shuffle_rank(ds, id_col=id_col, seed=seed)
    n = ds.count()
    half = n // 2

    def add_target(batch: pa.Table) -> pa.Table:
        pos = batch.column("shuffle_pos").to_numpy()
        tgt = (pos + half) % n
        return pa.Table.from_pydict(
            {id_col: batch.column(id_col),
             "target": pa.array(tgt.astype(np.int64), pa.int64())}
        )

    left = ranks.map_batches(add_target, batch_format="pyarrow")
    right = ranks.map_batches(
        lambda b: pa.Table.from_pydict(
            {"partner_" + id_col: b.column(id_col),
             "target": pa.compute.cast(b.column("shuffle_pos"), pa.int64())}
        ),
        batch_format="pyarrow",
    )
    joined = bucketed_merge_join(left, right, on="target")
    return joined.select_columns([id_col, "partner_" + id_col])


def dedup_lines(
    ds: rd.Dataset,
    line_tokens: int = 16,
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Line-level EXACT dedup across the whole corpus — the
    RefinedWeb/CCNet-style pass that removes boilerplate lines repeated
    across documents (public technique: Penedo et al. 2023 dedup at
    sub-document granularity). Documents split into consecutive
    non-overlapping windows of ``line_tokens`` tokens ("lines"); a line
    survives only at its FIRST occurrence corpus-wide (min (doc_id,
    line_idx) over exact line text); documents re-emit as the
    space-join of their surviving lines in order. Docs whose every line
    was seen earlier (or with no tokens) vanish.

    Shape: row-local vectorized explode (polars int_ranges + list slice
    — same window arithmetic as chunk_documents), then the exact-dedup
    idiom: the keep-first groupby keys on the coarse-bucketed 64-bit
    LINE HASH (int shuffle comparisons; line text travels as payload,
    equality verified exactly inside the bucket so a collision merely
    co-locates), then reassembly groups by doc-id hash bucket. Two
    text-carrying shuffles, both over 1024 buckets, no global sort.

    Returns (doc_id, dedup_text, n_kept)."""
    import polars as pl

    from . import bucketed_group_apply
    from .textstats import TOKEN_RE

    step = int(line_tokens)
    if step <= 0:
        raise ValueError("dedup_lines: line_tokens must be positive")

    def explode_lines(batch: pa.Table) -> pa.Table:
        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        d = pl.DataFrame(
            {id_col: pl.from_arrow(batch.column(id_col)),
             "t": pl.from_arrow(col)}
        ).with_columns(pl.col("t").str.extract_all(TOKEN_RE).alias("t"))
        d = (
            d.with_columns(
                pl.int_ranges(0, pl.col("t").list.len(), step).alias("start")
            )
            .explode("start")
            .drop_nulls("start")
            .with_columns(
                (pl.col("start") // step).alias("line_idx"),
                pl.col("t").list.slice(pl.col("start"), step)
                .list.join(" ").alias("line"),
            )
            .select(id_col, "line_idx", "line")
        )
        return d.to_arrow()

    lines = ds.select_columns([id_col, "text"]).map_batches(
        explode_lines, batch_format="pyarrow"
    )

    def keep_first(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(["line", id_col, "line_idx"], kind="mergesort")
        return g.drop_duplicates("line", keep="first")

    kept = bucketed_group_apply(
        lines, "line", keep_first, n_buckets=1024, batch_format="pandas"
    )

    def reassemble(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values([id_col, "line_idx"], kind="mergesort")
        agg = g.groupby(id_col, as_index=False).agg(
            dedup_text=("line", " ".join), n_kept=("line", "size")
        )
        agg["n_kept"] = agg["n_kept"].astype(np.int64)
        return agg

    return bucketed_group_apply(
        kept, id_col, reassemble, n_buckets=1024, batch_format="pandas"
    )


def duplicate_ngram_occurrences(
    ds: rd.Dataset,
    n: int = 8,
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Every occurrence of a duplicated token ``n``-gram beyond its first
    — the DETECTION core of exact substring dedup (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better": repeated
    long spans across documents are memorization fuel; this surfaces
    them as (doc, token-position) rows a removal/masking pass consumes).

    An occurrence is "first" at the minimum (doc_id, pos) over the exact
    gram text, corpus-wide. Shape: one row-local OVERLAPPING-window
    explode (the dedup_lines slice idiom, stride 1), then ONE bucketed
    keep-first scan keyed on the gram — all rows of a gram co-locate, so
    rank>1 marking is exact; the shuffle carries (gram, doc_id, pos)
    rows once, no global sort. Returns (doc_id, pos) with pos the
    0-based token index where the duplicated gram starts."""
    import polars as pl

    from . import bucketed_group_apply
    from .textstats import TOKEN_RE

    if n <= 0:
        raise ValueError("duplicate_ngram_occurrences: n must be positive")

    def explode_grams(batch: pa.Table) -> pa.Table:
        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        d = pl.DataFrame(
            {id_col: pl.from_arrow(batch.column(id_col)),
             "t": pl.from_arrow(col)}
        ).with_columns(pl.col("t").str.extract_all(TOKEN_RE).alias("t"))
        d = (
            d.with_columns(
                pl.int_ranges(
                    # list.len() is u32 — cast BEFORE subtracting or a doc
                    # shorter than n tokens underflows to ~4e9 positions
                    0, pl.col("t").list.len().cast(pl.Int64) - (n - 1)
                ).alias("pos")
            )
            .explode("pos")
            .drop_nulls("pos")
        )
        if d.height == 0:
            # polars degenerates list.slice to dtype null on 0-row frames
            return pa.table(
                {
                    id_col: pa.array([], batch.schema.field(id_col).type),
                    "pos": pa.array([], pa.int64()),
                    "gram": pa.array([], pa.string()),
                }
            )
        d = d.with_columns(
            pl.col("t").list.slice(pl.col("pos"), n)
            .list.join(" ").alias("gram"),
            pl.col("pos").cast(pl.Int64),
        ).select(id_col, "pos", "gram")
        return d.to_arrow()

    grams = ds.select_columns([id_col, "text"]).map_batches(
        explode_grams, batch_format="pyarrow"
    )

    def non_first(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(["gram", id_col, "pos"], kind="mergesort")
        dup = g[g.duplicated("gram", keep="first")]
        return dup[[id_col, "pos"]]

    return bucketed_group_apply(
        grams, "gram", non_first, batch_format="pandas"
    )


def remove_duplicate_ngrams(
    ds: rd.Dataset,
    n: int = 8,
    id_col: str = "doc_id",
) -> rd.Dataset:
    """The REMOVAL pass of exact substring dedup (Lee et al. 2022): drop
    every token covered by a duplicated ``n``-gram occurrence beyond its
    corpus-wide first (:func:`duplicate_ngram_occurrences`) and rebuild
    each document as the space-joined surviving token sequence
    (``text_clean``; n-gram-granular approximation of the paper's
    suffix-array spans — the contract is exact and oracle-checkable).

    Scale shape: detection is the gram-bucketed scan; removal adds ONE
    more doc_id-bucketed shuffle over a UNION of (a) the doc rows
    carrying text once (marker ``pos=-1``) and (b) the (doc_id, pos)
    occurrence markers — both key on ``id_col`` so they co-locate, no
    join that replicates text per occurrence. Rebuild is vectorized
    polars per bucket (tokenize, explode with index, anti-join covered
    indices, group-join). Docs with no surviving tokens (or no tokens)
    come back with ``text_clean=''`` — every input row is preserved."""
    import numpy as np
    import polars as pl

    from . import bucketed_group_apply
    from .textstats import TOKEN_RE

    occ = duplicate_ngram_occurrences(ds, n=n, id_col=id_col)

    def tag_docs(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: batch.column(id_col),
                "pos": pa.array(np.full(batch.num_rows, -1, dtype=np.int64)),
                "text": batch.column("text").cast(pa.string()),
            }
        )

    def tag_occ(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: batch.column(id_col),
                "pos": batch.column("pos"),
                "text": pa.nulls(batch.num_rows, pa.string()),
            }
        )

    tagged = (
        ds.select_columns([id_col, "text"])
        .map_batches(tag_docs, batch_format="pyarrow")
        .union(occ.map_batches(tag_occ, batch_format="pyarrow"))
    )

    def rebuild(g: "pd.DataFrame") -> "pd.DataFrame":
        d = pl.from_pandas(g)
        docs = d.filter(pl.col("pos") < 0).select(id_col, "text")
        occp = d.filter(pl.col("pos") >= 0).select(id_col, "pos")
        empty_agg = pl.DataFrame(
            schema={id_col: docs.schema[id_col], "text_clean": pl.String}
        )
        words = (
            docs.with_columns(
                pl.col("text").str.extract_all(TOKEN_RE).alias("t")
            )
            .with_columns(
                pl.int_ranges(
                    0, pl.col("t").list.len().cast(pl.Int64)
                ).alias("ti")
            )
            .explode(["t", "ti"])
            .drop_nulls("ti")
            .select(id_col, "ti", "t")
        )
        if occp.height and words.height:
            cov = (
                occp.with_columns(
                    pl.int_ranges(
                        pl.col("pos"), pl.col("pos") + n
                    ).alias("ti")
                )
                .explode("ti")
                .unique([id_col, "ti"])
                .select(id_col, "ti")
            )
            words = words.join(cov, on=[id_col, "ti"], how="anti")
        if words.height:
            agg = (
                words.sort("ti")
                .group_by(id_col)
                .agg(pl.col("t"))
                .with_columns(pl.col("t").list.join(" ").alias("text_clean"))
                .select(id_col, "text_clean")
            )
        else:
            agg = empty_agg
        out = (
            docs.select(id_col)
            .join(agg, on=id_col, how="left")
            .with_columns(pl.col("text_clean").fill_null(""))
        )
        return out.to_pandas()

    return bucketed_group_apply(
        tagged, id_col, rebuild, batch_format="pandas"
    )


def duplicate_coverage(
    ds: rd.Dataset,
    n: int = 8,
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Per-doc duplicated-token coverage — the ANALYSIS companion of
    exact substring dedup: how much of each document is covered by
    duplicated ``n``-gram occurrences beyond their corpus-wide first
    (:func:`duplicate_ngram_occurrences`). The ratio drives the
    drop-vs-clean decision (drop a doc that is mostly duplicate, excise
    spans otherwise). Returns (doc_id, n_covered, n_tokens, dup_ratio)
    with dup_ratio = round(n_covered / max(1, n_tokens), 6), DuckDB
    half-away rounding.

    Scale shape: same as the removal pass — one doc-bucketed shuffle
    over a union of per-doc token counts (pos=-1 marker rows; the TEXT
    never travels here, only its count) and the occurrence markers;
    covered positions are de-duplicated vectorized per bucket."""
    import polars as pl

    from . import bucketed_group_apply, round_half_away_np
    from .textstats import TOKEN_RE

    occ = duplicate_ngram_occurrences(ds, n=n, id_col=id_col)

    def tag_docs(batch: pa.Table) -> pa.Table:
        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n_tok = (
            pl.from_arrow(col)
            .str.extract_all(TOKEN_RE)
            .list.len()
            .cast(pl.Int64)
            .to_numpy()
        )
        return pa.table(
            {
                id_col: batch.column(id_col),
                "pos": pa.array(np.full(batch.num_rows, -1, dtype=np.int64)),
                "n_tok": pa.array(n_tok),
            }
        )

    def tag_occ(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: batch.column(id_col),
                "pos": batch.column("pos"),
                "n_tok": pa.array(
                    np.zeros(batch.num_rows, dtype=np.int64)
                ),
            }
        )

    tagged = (
        ds.select_columns([id_col, "text"])
        .map_batches(tag_docs, batch_format="pyarrow")
        .union(occ.map_batches(tag_occ, batch_format="pyarrow"))
    )

    def stats(g: "pd.DataFrame") -> "pd.DataFrame":
        docs = g[g["pos"] < 0][[id_col, "n_tok"]]
        occp = g[g["pos"] >= 0][[id_col, "pos"]]
        if len(occp):
            ids = np.repeat(occp[id_col].to_numpy(), n)
            ti = (occp["pos"].to_numpy()[:, None] + np.arange(n)).ravel()
            cnt = (
                pd.DataFrame({id_col: ids, "ti": ti})
                .drop_duplicates()
                .groupby(id_col)
                .size()
            )
        else:
            cnt = pd.Series(dtype=np.int64)
        out = pd.DataFrame(
            {
                id_col: docs[id_col].to_numpy(),
                "n_covered": docs[id_col]
                .map(cnt)
                .fillna(0)
                .astype(np.int64)
                .to_numpy(),
                "n_tokens": docs["n_tok"].astype(np.int64).to_numpy(),
            }
        )
        out["dup_ratio"] = round_half_away_np(
            out["n_covered"].to_numpy()
            / np.maximum(1, out["n_tokens"].to_numpy()),
            6,
        )
        return out

    return bucketed_group_apply(
        tagged, id_col, stats, batch_format="pandas"
    )


def duplicate_spans(
    ds: rd.Dataset,
    n: int = 8,
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Maximal duplicated SPANS per doc: the token intervals
    [pos, pos+n) of :func:`duplicate_ngram_occurrences` merged where
    they overlap or touch (gaps-and-islands) — the span-granular view a
    masking/redaction pass consumes instead of raw gram starts. Returns
    (doc_id, span_start, span_end, n_grams) with span_end exclusive and
    n_grams the number of merged occurrences.

    Scale shape: detection's gram-bucketed scan, then ONE doc-bucketed
    groupby over the (doc_id, pos) markers only; the merge is a
    vectorized pandas cummax/shift islands pass per bucket (no per-doc
    Python loop)."""
    from . import bucketed_group_apply

    occ = duplicate_ngram_occurrences(ds, n=n, id_col=id_col)

    def merge(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values([id_col, "pos"], kind="mergesort").reset_index(
            drop=True
        )
        g["e"] = g["pos"] + n
        cm = g.groupby(id_col)["e"].cummax()
        prev = cm.groupby(g[id_col]).shift(1)
        new_island = prev.isna() | (g["pos"] > prev)
        gid = new_island.groupby(g[id_col]).cumsum()
        out = (
            g.assign(gid=gid)
            .groupby([id_col, "gid"], as_index=False)
            .agg(
                span_start=("pos", "min"),
                span_end=("e", "max"),
                n_grams=("pos", "size"),
            )
            .drop(columns=["gid"])
        )
        for c in ("span_start", "span_end", "n_grams"):
            out[c] = out[c].astype(np.int64)
        return out

    return bucketed_group_apply(
        occ, id_col, merge, batch_format="pandas"
    )


def cross_source_duplication(
    ds: rd.Dataset,
    text_col: str = "text",
    source_col: str = "source",
    max_partial_rows: int = 2_000_000,
) -> pa.Table:
    """Cross-source duplication matrix: for every unordered source pair,
    how many DISTINCT texts appear verbatim in both — the
    where-is-my-corpus-copied-from diagnostic that decides which source
    to keep during exact dedup. Returns an arrow table (source_a,
    source_b, n_shared_texts) with source_a < source_b.

    Scale shape: per-batch distinct (text, source) combiner, ONE
    text-hash-bucketed groupby (texts co-locate, so the per-text source
    set is complete in its bucket; pair emission is a vectorized
    self-merge over the duplicated texts only), then a driver-side sum
    over partials bounded by 1024 buckets x |sources|^2 rows (the
    SOURCE-pair space, not the text space) — guarded loudly by
    ``max_partial_rows`` like the other bounded driver merges. A
    distributed final stage is deliberately NOT used: when no text is
    shared, every partial is empty and Ray Data drops the schema of an
    all-empty dataset, so the no-duplicates answer would come back
    column-less; the arrow return carries its schema always."""

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()[[text_col, source_col]].drop_duplicates()
        cb = (_text_hash64(pa.array(df[text_col])) & np.uint64(1023)).astype(
            np.int64
        )
        return pa.Table.from_pydict(
            {"cb": cb, text_col: df[text_col], source_col: df[source_col]}
        )

    partials = ds.select_columns([text_col, source_col]).map_batches(
        partial, batch_format="pyarrow"
    )

    out_schema = pa.schema(
        [
            ("source_a", pa.string()),
            ("source_b", pa.string()),
            ("n_shared_texts", pa.int64()),
        ]
    )

    def pairs(g: pd.DataFrame) -> pa.Table:
        # returns ARROW with an explicit schema: empty pandas blocks are
        # schema-less to Ray, which would leave a no-duplicate corpus's
        # result with no columns at all
        g = g.drop_duplicates([text_col, source_col])
        nsrc = g.groupby(text_col)[source_col].transform("nunique")
        multi = g[nsrc >= 2][[text_col, source_col]]
        if multi.empty:
            return out_schema.empty_table()
        m = multi.merge(multi, on=text_col, suffixes=("_a", "_b"))
        m = m[m[f"{source_col}_a"] < m[f"{source_col}_b"]]
        out = (
            m.groupby(
                [f"{source_col}_a", f"{source_col}_b"], as_index=False
            )
            .size()
            .rename(
                columns={
                    f"{source_col}_a": "source_a",
                    f"{source_col}_b": "source_b",
                    "size": "n_shared_texts",
                }
            )
        )
        return pa.Table.from_pandas(
            out, schema=out_schema, preserve_index=False
        )

    per_bucket = apply_per_partition(
        partials.repartition(shuffle_blocks()), "cb", pairs
    )

    rows = per_bucket.take(max_partial_rows + 1)
    if len(rows) > max_partial_rows:
        raise ValueError(
            f"cross_source_duplication: > {max_partial_rows} partial "
            "pair rows — the source cardinality is far beyond the "
            "matrix contract; raise max_partial_rows deliberately"
        )
    df = pd.DataFrame(rows, columns=["source_a", "source_b", "n_shared_texts"])
    if len(df):
        df = df.groupby(["source_a", "source_b"], as_index=False)[
            "n_shared_texts"
        ].sum()
    return pa.Table.from_pandas(df, schema=out_schema, preserve_index=False)


def sample_to_mixture(
    ds: rd.Dataset,
    group_col: str,
    weights: dict,
    total: int,
    id_col: str = "doc_id",
    max_groups: int = 100_000,
) -> rd.Dataset:
    """Deterministic mixture sampling — the data-MIXING pass of an LM
    training pipeline (weight sources/domains to a target distribution,
    public technique: e.g. The Pile / LLaMA corpus weighting): aim for
    ``total`` rows distributed per normalized ``weights``; each group
    keeps its k_g = min(n_g, floor(w_norm * total)) rows with the
    smallest md5(id) — the same keyed pseudo-random order as
    :func:`stratified_sample`, so the sample is stable across runs,
    partitionings and engines (ORDER BY md5(CAST(id AS VARCHAR)), id).
    Groups absent from ``weights`` are dropped. Undersized groups yield
    what they have (no oversampling) — the shortfall is visible as
    len(result) < total.

    Group sizes come from a tiny distributed aggregate (one (group, n)
    row per batch partial, merged on the driver under a LOUD
    ``max_groups`` guard — mixture groups are sources/domains, orders of
    magnitude fewer than rows); k_g broadcasts with the weights. The
    selection pass reuses the stratified shape: per-batch top-k_g per
    group, then one bucketed final top-k_g, so the shuffle moves
    O(k x groups x batches) rows, never the corpus.

    Float contract: w_norm * total uses plain IEEE doubles on both sides
    (weights are summed in sorted-group-key order); pass weights that are
    exact binary fractions (0.5, 0.25, ...) when bit-identical k_g
    against a SQL engine matters."""
    import math

    from . import bucketed_group_apply
    from ..md5np import md5_hex

    proj = ds.select_columns(
        [id_col, group_col] if id_col != group_col else [id_col]
    )

    def count_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().groupby(group_col, as_index=False).agg(
            n=(id_col, "size")
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    counts: dict = {}
    for r in proj.map_batches(count_partial, batch_format="pyarrow").take_all():
        counts[r[group_col]] = counts.get(r[group_col], 0) + int(r["n"])
        if len(counts) > max_groups:
            raise ValueError(
                f"sample_to_mixture: more than max_groups={max_groups} "
                f"distinct {group_col} values — mixture sampling keys on "
                "coarse sources/domains; pre-bucket finer keys first"
            )
    wsum = 0.0
    for g in sorted(weights):
        wsum += float(weights[g])
    if wsum <= 0:
        raise ValueError("sample_to_mixture: weights must sum > 0")
    k_by_group = {
        g: min(counts.get(g, 0), int(math.floor(float(w) / wsum * total)))
        for g, w in weights.items()
    }

    def add_key(batch: pa.Table) -> pa.Table:
        return batch.append_column("__sk", md5_hex(batch.column(id_col)))

    def keep_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[group_col].isin(k_by_group)]
        if not len(df):
            return df
        df = df.sort_values(["__sk", id_col], kind="mergesort")
        ranks = df.groupby(group_col, sort=False).cumcount()
        lim = df[group_col].map(k_by_group)
        return df[ranks < lim]

    def partial(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(
            keep_topk(batch.to_pandas()), preserve_index=False
        )

    partials = proj.map_batches(add_key, batch_format="pyarrow").map_batches(
        partial, batch_format="pyarrow"
    )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return keep_topk(g).drop(columns=["__sk"])

    return bucketed_group_apply(partials, group_col, final, n_buckets=64)


# ------------------------------------------------------- weighted sampling

def weighted_sample(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    weight_col: str = "n_chars",
    k: int = 100,
    seed: int = 7,
) -> rd.Dataset:
    """Deterministic weighted sampling WITHOUT replacement
    (Efraimidis–Spirtes A-ES, public algorithm): every row gets the key
    ``u^(1/w)`` with ``u`` a pinned md5-derived uniform and ``w`` its
    positive weight; the global top-k keys ARE a weighted sample without
    replacement. Replaces RNG state with the library's md5 contract
    (:func:`stratified_sample`/:func:`shuffle_rank`), so any SQL engine
    reproduces the exact sample: ``u = ('0x' || substr(md5(id || ':s'),
    1, 8))::UBIGINT / 2^32``, ``ORDER BY pow(u, 1.0/w) DESC, id LIMIT k``.

    Scale shape: score is row-local (one vectorized md5 + pow per batch);
    each batch pre-trims to its own top-k, so the global sort sees at
    most k x |batches| rows, never the corpus. Non-positive weights
    raise loudly (the algorithm is undefined there and SQL pow would
    silently diverge)."""
    from ..md5np import md5_u32

    salt = f":{seed}"

    def score_partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        w = batch.column(weight_col).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        if len(w) and w.min() <= 0:
            raise ValueError(
                "weighted_sample: non-positive weight — A-ES keys are "
                "undefined for w <= 0; filter or shift weights first"
            )
        ids_str = pc.cast(batch.column(id_col), pa.string())
        keyed = pc.binary_join_element_wise(ids_str, salt, "")
        u = md5_u32(keyed).astype(np.float64) / 4294967296.0
        score = u ** (1.0 / w)
        t = pa.table(
            {id_col: batch.column(id_col), "sample_score": pa.array(score)}
        )
        # local top-k pre-trim (ties on score broken by id, matching the
        # oracle's ORDER BY ... DESC, id)
        idx = np.lexsort(
            (batch.column(id_col).to_numpy(zero_copy_only=False), -score)
        )[:k]
        return t.take(pa.array(np.sort(idx)))

    scored = ds.select_columns([id_col, weight_col]).map_batches(
        score_partial, batch_format="pyarrow"
    )

    def round_score(batch: pa.Table) -> pa.Table:
        from . import round_half_away_np

        s = round_half_away_np(batch.column("sample_score").to_numpy(), 6)
        return batch.set_column(
            batch.schema.get_field_index("sample_score"),
            "sample_score",
            pa.array(s, pa.float64()),
        )

    return (
        scored.sort(["sample_score", id_col], descending=[True, False])
        .limit(k)
        .map_batches(round_score, batch_format="pyarrow")
    )


def systematic_sample(
    ds: rd.Dataset, every: int = 50, id_col: str = "doc_id", seed: int = 7
) -> rd.Dataset:
    """Systematic (every k-th) sampling along the deterministic seeded
    shuffle order — the fixed-rate corpus probe whose membership any SQL
    engine reproduces (``row_number() OVER (ORDER BY md5(id || ':seed'),
    id)`` modulo k). Composes :func:`seeded_shuffle_rank` (distributed
    exact rank, no global sort) with a row-local modulo filter."""
    ranked = seeded_shuffle_rank(ds, id_col=id_col, seed=seed)

    def keep(batch: pa.Table) -> pa.Table:
        pos = batch.column("shuffle_pos").to_numpy()
        return batch.filter(pa.array(pos % every == 0)).select([id_col])

    return ranked.map_batches(keep, batch_format="pyarrow")


def dup_cluster_histogram(ds: rd.Dataset) -> rd.Dataset:
    """Histogram of exact-duplicate-text cluster sizes — the dedup audit
    (how much of the corpus is 2x, 3x, Nx repeated?): one row per
    cluster size with the number of clusters of that size. The shuffle
    carries (md5(text), count) integer partials, never text; per-digest
    counts merge in a digest-bucketed pass that emits per-size partial
    histograms, and the tiny (size, n) rows reduce in one final pass.
    All-integer -> bit-exact vs the nested GROUP BY oracle."""
    from ..md5np import md5_hex
    from . import bucketed_group_apply

    def partial(batch: pa.Table) -> pa.Table:
        h = md5_hex(batch.column("text"))
        df = pd.DataFrame({"h": h.to_pandas()})
        agg = df.groupby("h", as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    partials = ds.select_columns(["text"]).map_batches(
        partial, batch_format="pyarrow"
    )

    def per_digest_bucket(g: pd.DataFrame) -> pd.DataFrame:
        per = g.groupby("h")["size"].sum()
        hist = per.value_counts()
        return pd.DataFrame(
            {
                "cluster_size": hist.index.astype(np.int64),
                "n": hist.to_numpy().astype(np.int64),
            }
        )

    sizes = bucketed_group_apply(partials, "h", per_digest_bucket)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        agg = df.groupby("cluster_size", as_index=False)["n"].sum()
        agg["n_clusters"] = agg.pop("n").astype(np.int64)
        return agg

    return bucketed_group_apply(sizes, "cluster_size", final)


# --------------------------------------------- Bloom-gated incremental dedup

def _bloom_positions(texts, m_bits: int, n_probes: int) -> np.ndarray:
    """(n, n_probes) uint64 Bloom probe positions per text, via double
    hashing h1 + i*h2 over two independent 64-bit halves of the PINNED
    md5 digest (version-stable across worker processes, unlike polars'
    Series.hash — the decontaminate-shard lesson applies doubly here: a
    seen/new hash mismatch would silently turn duplicates into "novel").
    h2 is forced odd so for power-of-two m the probe stride never
    collapses onto one position."""
    from ..md5np import md5_u32x4

    w = md5_u32x4(texts).astype(np.uint64)
    h1 = (w[:, 0] << np.uint64(32)) | w[:, 1]
    h2 = ((w[:, 2] << np.uint64(32)) | w[:, 3]) | np.uint64(1)
    i = np.arange(n_probes, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(m_bits)


def _digest128(texts) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) uint64 halves of the full 128-bit md5 digest — the exact
    identity key used by the verify pass (the dup_cluster_histogram
    digest-identity contract: a full-width md5 collision, not a Bloom
    collision, is the only way two distinct texts merge)."""
    from ..md5np import md5_u32x4

    w = md5_u32x4(texts).astype(np.uint64)
    return (w[:, 0] << np.uint64(32)) | w[:, 1], (w[:, 2] << np.uint64(32)) | w[:, 3]


def _pack128(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Pack (hi, lo) uint64 pairs into lexicographically sortable 16-byte
    void scalars (big-endian), so 128-bit membership tests run as ONE
    vectorized searchsorted instead of a Python set loop per row."""
    a = np.empty((len(hi), 2), dtype=">u8")
    a[:, 0] = hi
    a[:, 1] = lo
    return np.ascontiguousarray(a).view("V16").ravel()


def _member128(packed: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Vectorized membership of packed 128-bit keys in a sorted packed set."""
    if len(sorted_set) == 0:
        return np.zeros(len(packed), dtype=bool)
    idx = np.searchsorted(sorted_set, packed)
    ok = idx < len(sorted_set)
    ok[ok] = sorted_set[idx[ok]] == packed[ok]
    return ok


def bloom_novel_docs(
    ds_new: rd.Dataset,
    ds_seen: rd.Dataset,
    m_bits: int = 1 << 23,
    n_probes: int = 7,
    max_candidates: int = 2_000_000,
) -> rd.Dataset:
    """Incremental exact dedup of a NEW batch against an already-ingested
    SEEN corpus: returns the (doc_id) rows of ``ds_new`` whose text does
    not appear anywhere in ``ds_seen`` — SQL ``SELECT d.doc_id FROM new d
    WHERE NOT EXISTS (SELECT 1 FROM seen s WHERE s.text = d.text)`` —
    with EXACT semantics (the Bloom filter only prunes; every positive is
    re-verified against the seen corpus by full 128-bit digest).

    This is the 10^12-document ingest pattern (reference analogue: the
    job-resume manifest anti-join, checkpoint.py, generalized from
    doc_ids to content): a fixed-size bit array stands in for the
    unboundedly large seen-key set, so the steady-state cost of "is this
    document new?" is one broadcast-bitmap probe per row with NO join and
    NO shuffle. Four streamed passes, zero all-to-all:

      1. seen -> Bloom bitmap: per-batch UNIQUE probe positions (the
         combiner; positions are ≤ n_probes x rows uint64s, far smaller
         than shipping per-batch 1 MiB bitmaps), compacted to
         shuffle_blocks() blocks, OR'd into one bitmap per block, final
         OR on the driver (bounded: shuffle_blocks() x m_bits/8 bytes).
      2. new -> candidate digests: probe the ray.put-broadcast bitmap;
         rows with any probe bit clear are DEFINITELY novel. The
         all-bits-set survivors (true dups + the m/n-tunable false
         positives) are collected under the loud ``max_candidates``
         driver guard — at 10 bits/key the FP mass is ~1% of |new|.
      3. seen -> matched digests: re-stream seen (the decontaminate
         re-stream trade: scan twice rather than materialize a 100 TB
         text column), keeping only digests in the broadcast candidate
         set — one vectorized searchsorted per batch.
      4. new -> novel doc_ids: candidates whose digest did NOT match any
         seen row are novel after all (Bloom false positives), emitted
         together with the step-2 definite-novels in one final pass.

    At two cluster sizes the whole operator scales like a map: every
    pass is an embarrassingly parallel scan against broadcast state
    (bitmap / sorted digest arrays), so throughput follows CPU count
    with no shuffle barrier anywhere.
    """
    import ray

    if m_bits % 64:
        raise ValueError("m_bits must be a multiple of 64")
    n_words = m_bits // 64

    # ---- pass 1: seen -> bitmap ------------------------------------
    def seen_positions(batch: pa.Table) -> pa.Table:
        pos = _bloom_positions(batch.column("text"), m_bits, n_probes)
        return pa.Table.from_pydict({"p": np.unique(pos)})

    def or_block(batch: pa.Table) -> pa.Table:
        words = np.zeros(n_words, dtype=np.uint64)
        pos = batch.column("p").to_numpy()
        np.bitwise_or.at(words, pos >> 6, np.uint64(1) << (pos & np.uint64(63)))
        return pa.Table.from_pydict({"bm": [words.tobytes()]})

    bm_rows = (
        ds_seen.select_columns(["text"])
        .map_batches(seen_positions, batch_format="pyarrow")
        .repartition(shuffle_blocks())
        .map_batches(or_block, batch_format="pyarrow")
        .take_all()
    )
    words = np.zeros(n_words, dtype=np.uint64)
    for r in bm_rows:
        words |= np.frombuffer(r["bm"], dtype=np.uint64)
    bm_ref = ray.put(words)

    # ---- pass 2: new -> candidate digests --------------------------
    def candidates(batch: pa.Table) -> pa.Table:
        from . import resolve_broadcast

        bm = resolve_broadcast(bm_ref)
        pos = _bloom_positions(batch.column("text"), m_bits, n_probes)
        hit = ((bm[pos >> 6] >> (pos & np.uint64(63))) & np.uint64(1)).all(axis=1)
        hi, lo = _digest128(batch.column("text"))
        return pa.Table.from_pydict({"hi": hi[hit], "lo": lo[hit]})

    cand = (
        ds_new.select_columns(["text"])
        .map_batches(candidates, batch_format="pyarrow")
        .take_all()
    )
    if len(cand) > max_candidates:
        raise ValueError(
            f"bloom_novel_docs: {len(cand)} candidates exceed max_candidates="
            f"{max_candidates}; raise m_bits (lower FP rate) or the cap"
        )
    cand_set = np.sort(
        np.unique(
            _pack128(
                np.array([r["hi"] for r in cand], dtype=np.uint64),
                np.array([r["lo"] for r in cand], dtype=np.uint64),
            )
        )
    )
    cand_ref = ray.put(cand_set)

    # ---- pass 3: seen -> digests that really exist ------------------
    def matched(batch: pa.Table) -> pa.Table:
        from . import resolve_broadcast

        cs = resolve_broadcast(cand_ref)
        hi, lo = _digest128(batch.column("text"))
        keep = _member128(_pack128(hi, lo), cs)
        return pa.Table.from_pydict({"hi": hi[keep], "lo": lo[keep]})

    dup_rows = (
        ds_seen.select_columns(["text"])
        .map_batches(matched, batch_format="pyarrow")
        .take_all()
    )
    dup_set = np.sort(
        np.unique(
            _pack128(
                np.array([r["hi"] for r in dup_rows], dtype=np.uint64),
                np.array([r["lo"] for r in dup_rows], dtype=np.uint64),
            )
        )
    )
    dup_ref = ray.put(dup_set)

    # ---- pass 4: new -> novel doc_ids --------------------------------
    def novel(batch: pa.Table) -> pa.Table:
        from . import resolve_broadcast

        ds_ = resolve_broadcast(dup_ref)
        hi, lo = _digest128(batch.column("text"))
        keep = ~_member128(_pack128(hi, lo), ds_)
        return pa.Table.from_pydict({"doc_id": batch.column("doc_id").to_numpy()[keep]})

    return ds_new.select_columns(["doc_id", "text"]).map_batches(
        novel, batch_format="pyarrow"
    )


def novel_docs_sharded(
    ds_new: rd.Dataset,
    ds_seen: rd.Dataset,
    n_shards: int = 8,
) -> rd.Dataset:
    """Corpus-scale variant of :func:`bloom_novel_docs`: the seen-corpus
    digest set is hash-partitioned across ``n_shards`` membership actors
    instead of flowing through driver collects, so there is NO
    ``max_candidates`` ceiling and no broadcast-bitmap size limit — both
    sides can be 100 TB. Same semantics (novel = text appears nowhere in
    seen, by full 128-bit pinned-md5 digest identity; the tests pin
    equality against the Bloom path and brute force).

    Two streamed passes, zero shuffle (the decontaminate_sharded shape
    with documents in place of n-grams):

    1. seen INGEST: each batch's unique digests route by
       ``hi64 % n_shards`` (md5 is stable by spec across processes and
       library builds) with one rpc per owning actor per batch; actors
       accumulate raw packed bytes, then ``seal()`` into one sorted
       array for searchsorted probes.
    2. new CHECK: each batch's digests probe the same shards; masks
       recombine row-locally and the novel doc_ids emit directly.

    Raw Ray actors are the documented escape hatch (state/dedup_index.py
    pattern): a build-then-probe mutable index is cross-batch state the
    Dataset API cannot express. Prefer :func:`bloom_novel_docs` when the
    seen side fits a broadcast bitmap — its probes are rpc-free.
    """
    import ray

    @ray.remote(num_cpus=0)  # memory-resident index; CPU slots would
    class DigestShard:       # deadlock small clusters (see GramShard)
        def __init__(self):
            self.chunks: list[bytes] | None = []
            self.arr: np.ndarray | None = None

        def add(self, packed: bytes) -> int:
            self.chunks.append(packed)
            return len(self.chunks)

        def seal(self) -> int:
            raw = b"".join(self.chunks)
            self.arr = np.unique(np.frombuffer(raw, dtype="V16"))
            self.chunks = None
            return len(self.arr)

        def contains(self, packed: bytes) -> np.ndarray:
            return _member128(np.frombuffer(packed, dtype="V16"), self.arr)

    actors = [DigestShard.remote() for _ in range(n_shards)]

    def _route(hi: np.ndarray) -> np.ndarray:
        return (hi % np.uint64(n_shards)).astype(np.int64)

    def ingest(batch: pa.Table) -> pa.Table:
        hi, lo = _digest128(batch.column("text"))
        packed = np.unique(_pack128(hi, lo))
        sh = _route(
            np.frombuffer(packed.tobytes(), dtype=">u8").reshape(-1, 2)[:, 0]
            .astype(np.uint64)
        )
        futs = [
            actors[a].add.remote(packed[sh == a].tobytes())
            for a in range(n_shards)
            if (sh == a).any()
        ]
        ray.get(futs)  # a batch counts done only once its digests are indexed
        return pa.Table.from_pydict({"n": pa.array([len(packed)], pa.int64())})

    ds_seen.select_columns(["text"]).map_batches(
        ingest, batch_format="pyarrow"
    ).take_all()
    ray.get([a.seal.remote() for a in actors])

    def check(batch: pa.Table) -> pa.Table:
        hi, lo = _digest128(batch.column("text"))
        packed = _pack128(hi, lo)
        sh = _route(hi)
        seen = np.zeros(len(packed), dtype=bool)
        futs, masks = {}, {}
        for a in range(n_shards):
            m = sh == a
            if m.any():
                masks[a] = m
                futs[a] = actors[a].contains.remote(packed[m].tobytes())
        for a, fut in futs.items():
            seen[masks[a]] = ray.get(fut)
        return pa.Table.from_pydict(
            {"doc_id": batch.column("doc_id").to_numpy()[~seen]}
        )

    return ds_new.select_columns(["doc_id", "text"]).map_batches(
        check, batch_format="pyarrow", batch_size=512
    )


def priority_dedup(ds: rd.Dataset) -> rd.Dataset:
    """Exact dedup with SOURCE PRIORITY: for each distinct text keep the
    row with the lowest ``prio`` (most-trusted source), tie-broken by
    min doc_id — the curated-beats-crawl merge step when unioning
    corpora of different provenance (the Pile / RefinedWeb layering).
    Input columns: doc_id (int64), text (string), prio (int64).

    Same scale contract as exact_dedup_min_doc: the per-batch combiner
    keeps one winner per distinct text per batch (the (prio, doc_id)
    argmin is associative, so batch-local then bucket-global composition
    is exact), winners co-locate via the coarse-bucketed int64 text
    hash, and the in-bucket pandas sub-groupby re-applies the same
    argmin with exact string equality (a hash collision merely
    co-locates two texts)."""

    def partial(batch: pa.Table) -> pa.Table:
        df = (
            batch.select(["doc_id", "text", "prio"])
            .to_pandas()
            .sort_values(["prio", "doc_id"], kind="mergesort")
            .drop_duplicates("text", keep="first")
        )
        cb = (_text_hash64(pa.array(df["text"])) & np.uint64(1023)).astype(
            np.int64
        )
        return pa.Table.from_pydict(
            {
                "cb": cb,
                "text": df["text"],
                "doc_id": df["doc_id"],
                "prio": df["prio"],
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.sort_values(["prio", "doc_id"], kind="mergesort")
            .drop_duplicates("text", keep="first")[["doc_id"]]
        )

    return apply_per_partition(
        partials.repartition(shuffle_blocks()), "cb", final
    )


def leakage_safe_split(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    fractions: tuple[float, float] = (0.8, 0.1),
) -> rd.Dataset:
    """Duplicate-cluster-aware train/valid/test split: every EXACT
    duplicate of a text lands on the SAME side, so no evaluation row is
    a verbatim copy of a training row (train->test leakage through
    copies — the failure mode group-aware splitting exists to prevent;
    :func:`train_test_split` keys on the row id and gives no such
    guarantee). Cluster id = min(id) over identical text (SQL:
    ``min(id) OVER (PARTITION BY text)``); the split label is the same
    md5 two-hex-char cut as :func:`train_test_split`, applied to the
    CLUSTER id instead of the row id — singleton texts therefore split
    exactly like ``train_test_split`` of their cluster head.

    Scale shape: text never shuffles — each batch reduces rows to
    (md5-hex content key, id) thin pairs, ONE digest-bucketed group
    pass computes the per-cluster min id AND the split label inside the
    bucket (vectorized), and only (id, split) comes back. Near-dup
    clusters: feed cluster labels from the minhash CC family as
    ``text_col`` to get the same guarantee for near-duplicates."""
    import pyarrow.compute as pc

    from . import bucketed_group_apply
    from ..md5np import md5_hex

    if fractions[0] < 0 or fractions[1] < 0 or fractions[0] + fractions[1] > 1:
        raise ValueError(
            "leakage_safe_split: fractions must be non-negative and sum "
            "to <= 1"
        )
    cut1 = int(fractions[0] * 256)
    cut2 = int((fractions[0] + fractions[1]) * 256)
    hex1 = "g" if cut1 >= 256 else format(cut1, "02x")
    hex2 = "g" if cut2 >= 256 else format(cut2, "02x")

    def pairs(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id": pc.cast(batch.column(id_col), pa.int64()),
                "k": md5_hex(batch.column(text_col)),
            }
        )

    def per_bucket(t: pa.Table) -> pa.Table:
        import polars as pl

        d = pl.from_arrow(t).with_columns(
            pl.col("id").min().over("k").alias("cid")
        )
        h2 = pc.utf8_slice_codeunits(
            md5_hex(d["cid"].cast(pl.Utf8).to_arrow()), 0, 2
        )
        split = pc.if_else(
            pc.less(h2, hex1),
            pa.scalar("train"),
            pc.if_else(
                pc.less(h2, hex2), pa.scalar("valid"), pa.scalar("test")
            ),
        )
        return pa.table(
            {id_col: d["id"].to_arrow(), "split": split}
        )

    thin = ds.map_batches(pairs, batch_format="pyarrow")
    return bucketed_group_apply(thin, "k", per_bucket,
                                batch_format="pyarrow")


def component_labels(
    pairs: rd.Dataset, cc_mode: str = "auto", max_iters: int = 50
) -> rd.Dataset:
    """(doc_a, doc_b) edges -> (doc_id, label) rows for every node of
    the edge set, label = min doc id of the component — the labeling
    counterpart of :func:`minhash_dedup_keep`'s survivor filter, shared
    by cluster-aware consumers (leakage-safe splitting, cluster
    histograms). Same size policy: the (LSH-capped) pair set resolves
    with driver union-find while it fits (<= CC_DRIVER_MAX_PAIRS);
    beyond that, :func:`connected_components_labels` runs distributed
    min-label propagation with no driver materialization. The pair set
    is materialized ONCE (count + labeling would otherwise each
    re-execute the upstream pipeline)."""
    pairs = pairs.materialize()
    if cc_mode == "auto":
        cc_mode = (
            "driver" if pairs.count() <= CC_DRIVER_MAX_PAIRS else "distributed"
        )
    if cc_mode == "distributed":
        return connected_components_labels(pairs, max_iters=max_iters)

    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    nodes: set[int] = set()
    for r in pairs.take_all():
        a, b = int(r["doc_a"]), int(r["doc_b"])
        nodes.add(a)
        nodes.add(b)
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    out = sorted(nodes)
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(out, pa.int64()),
                "label": pa.array([find(n) for n in out], pa.int64()),
            }
        )
    )


def kfold_summary(
    docs: rd.Dataset, n_folds: int = 5, max_cells: int = 100_000
) -> pa.Table:
    """Deterministic k-fold cross-validation assignment + per-fold audit
    (doc count, char sum/mean, distinct languages) — the split-balance
    check run before training k quality classifiers on disjoint folds.

    Fold contract (version-stable, mirrors the repo's md5 split family):
    fold = md5_u32(doc_id) % n_folds == DuckDB
    ``('0x' || substr(md5(CAST(doc_id AS VARCHAR)),1,8))::UBIGINT % n``.

    Scale shape: fold assignment is row-local; each batch emits one
    (fold, lang, n, sum_chars) partial row per (fold, lang) cell —
    n_folds x n_langs per batch — and the driver merges integer cells
    under a loud ``max_cells`` guard. Documents never shuffle."""
    from ..md5np import md5_u32
    from . import round_half_away

    def partial(batch: pa.Table) -> pa.Table:
        fold = (md5_u32(batch.column("doc_id")) % np.uint32(n_folds)).astype(
            np.int64
        )
        df = pd.DataFrame(
            {
                "fold": fold,
                "lang": batch.column("lang").to_pandas(),
                "n": 1,
                "sum_chars": batch.column("n_chars").to_numpy(
                    zero_copy_only=False
                ),
            }
        )
        agg = df.groupby(["fold", "lang"], as_index=False).agg(
            n=("n", "sum"), sum_chars=("sum_chars", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    cells = docs.map_batches(partial, batch_format="pyarrow").to_pandas()
    if len(cells) > max_cells:
        raise ValueError(
            f"kfold_summary: {len(cells)} partial cells exceed {max_cells}"
        )
    merged = cells.groupby(["fold", "lang"], as_index=False).agg(
        n=("n", "sum"), sum_chars=("sum_chars", "sum")
    )
    out = {c: [] for c in ("fold", "n_docs", "sum_chars", "mean_chars", "n_langs")}
    for fold, sub in merged.groupby("fold", sort=True):
        n = int(sub["n"].sum())
        sc = int(sub["sum_chars"].sum())
        out["fold"].append(int(fold))
        out["n_docs"].append(n)
        out["sum_chars"].append(sc)
        out["mean_chars"].append(round_half_away(float(sc) / float(n), 6))
        out["n_langs"].append(int(sub["lang"].nunique()))
    return pa.Table.from_pydict(
        {
            "fold": pa.array(out["fold"], pa.int64()),
            "n_docs": pa.array(out["n_docs"], pa.int64()),
            "sum_chars": pa.array(out["sum_chars"], pa.int64()),
            "mean_chars": pa.array(out["mean_chars"], pa.float64()),
            "n_langs": pa.array(out["n_langs"], pa.int64()),
        }
    )


def partition_balance(
    ds: rd.Dataset, key: str, n_parts: int = 256
) -> pa.Table:
    """Shard-balance audit for a proposed partitioning key: hash every
    row into ``n_parts`` buckets on the pinned md5 contract
    (md5_u32(key) % n_parts) and report the size distribution — min /
    max / mean bucket size, coefficient of variation, and the
    max/mean imbalance factor. This is the pre-flight check before
    ``write_parquet`` partitioning or a bucketed shuffle: an imbalance
    of 3 means the hottest shard does 3× the work of the average one
    and bounds the whole stage at scale.

    Exactness: bucket counts are exact integers (per-batch bincount
    partials merged as a fixed-length int64 vector — commutative, no
    shuffle); mean/cv/imbalance are mirrored float expressions over
    Σc and Σc² (exact int64), 6dp. Empty buckets COUNT (a key space
    that misses buckets is itself imbalance), so the oracle
    right-joins a generated bucket range."""
    from ..md5np import md5_u32
    from . import round_half_away

    def partial(batch: pa.Table) -> pa.Table:
        b = (md5_u32(batch.column(key)) % np.uint32(n_parts)).astype(
            np.int64
        )
        counts = np.bincount(b, minlength=n_parts).astype(np.int64)
        return pa.Table.from_pydict({"c": [counts.tobytes()]})

    total = np.zeros(n_parts, dtype=np.int64)
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        total += np.frombuffer(row["c"], dtype=np.int64)
    n_rows = int(total.sum())
    if n_rows == 0:
        return pa.Table.from_pydict(
            {
                "n_rows": pa.array([0], pa.int64()),
                "n_parts": pa.array([n_parts], pa.int64()),
                "n_used": pa.array([0], pa.int64()),
                "min_n": pa.array([0], pa.int64()),
                "max_n": pa.array([0], pa.int64()),
                "mean_n": pa.array([None], pa.float64()),
                "cv": pa.array([None], pa.float64()),
                "imbalance": pa.array([None], pa.float64()),
            }
        )
    s = n_rows
    q = int((total * total).sum())
    pf = float(n_parts)
    mean = float(s) / pf
    var = float(q) / pf - mean * mean
    cv = float(np.sqrt(max(var, 0.0))) / mean
    return pa.Table.from_pydict(
        {
            "n_rows": pa.array([n_rows], pa.int64()),
            "n_parts": pa.array([n_parts], pa.int64()),
            "n_used": pa.array([int((total > 0).sum())], pa.int64()),
            "min_n": pa.array([int(total.min())], pa.int64()),
            "max_n": pa.array([int(total.max())], pa.int64()),
            "mean_n": pa.array([round_half_away(mean, 6)], pa.float64()),
            "cv": pa.array([round_half_away(cv, 6)], pa.float64()),
            "imbalance": pa.array(
                [round_half_away(float(total.max()) / mean, 6)],
                pa.float64(),
            ),
        }
    )


def srm_check(
    ds: rd.Dataset, id_col: str = "doc_id", n_arms: int = 2
) -> pa.Table:
    """Sample-ratio-mismatch (SRM) audit for the repo's deterministic
    md5 split contract: assign every row to one of ``n_arms`` equal
    arms via md5_u32(id) % n and chi-square the arm counts against the
    uniform expectation — the first thing to check before trusting ANY
    A/B readout (an SRM chi-square p < 0.001 means the assignment or
    logging is broken and every downstream metric is garbage).

    Exactness: arm counts are exact integers (commutative bincount
    partials, no shuffle); chi2 = Σ (n_i − E)²/E with E = N/n is one
    mirrored float chain (the Σ is over ``n_arms`` terms in ascending
    arm order on the engine; 6dp absorbs the SQL sum's order), and for
    n_arms = 2 the signed z = (n_0 − n_1)/sqrt(N) is also reported."""
    from ..md5np import md5_u32
    from . import round_half_away

    def partial(batch: pa.Table) -> pa.Table:
        arm = (md5_u32(batch.column(id_col)) % np.uint32(n_arms)).astype(
            np.int64
        )
        counts = np.bincount(arm, minlength=n_arms).astype(np.int64)
        return pa.Table.from_pydict({"c": [counts.tobytes()]})

    total = np.zeros(n_arms, dtype=np.int64)
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        total += np.frombuffer(row["c"], dtype=np.int64)
    n = int(total.sum())
    if n == 0:
        return pa.Table.from_pydict(
            {
                "n_rows": pa.array([0], pa.int64()),
                "n_arms": pa.array([n_arms], pa.int64()),
                "min_arm": pa.array([0], pa.int64()),
                "max_arm": pa.array([0], pa.int64()),
                "chi2": pa.array([None], pa.float64()),
                "z": pa.array([None], pa.float64()),
            }
        )
    e = float(n) / float(n_arms)
    chi2 = float(
        sum((float(c) - e) * (float(c) - e) / e for c in total)
    )
    z = (
        round_half_away(
            (float(total[0]) - float(total[1])) / float(np.sqrt(float(n))),
            6,
        )
        if n_arms == 2
        else None
    )
    return pa.Table.from_pydict(
        {
            "n_rows": pa.array([n], pa.int64()),
            "n_arms": pa.array([n_arms], pa.int64()),
            "min_arm": pa.array([int(total.min())], pa.int64()),
            "max_arm": pa.array([int(total.max())], pa.int64()),
            "chi2": pa.array([round_half_away(chi2, 6)], pa.float64()),
            "z": pa.array([z], pa.float64()),
        }
    )


def dup_bytes_by_source(ds: rd.Dataset, max_groups: int = 100_000) -> rd.Dataset:
    """Storage-waste ledger of exact duplication: per source, how many
    documents are NON-KEEPER copies of a global exact-text group
    (keeper = min doc_id corpus-wide) and how many bytes deleting them
    reclaims — the capacity-planning view of exact_dedup (counts say
    "how many dups", this says "what it costs, and whose").

    Same shuffle shape as exact_dedup_min_doc: per-batch combiner rows
    (coarse text-hash bucket, text, source, n, Σbytes, min doc_id) —
    at most one row per (text, source) per batch; the bucketed merge
    resolves each text group's global keeper and debits every source's
    copies EXCEPT the keeper's one copy (identical text ⇒ identical
    byte length, so the keeper correction is one strlen). Driver sums
    per source (bounded by the source count)."""

    def partial(batch: pa.Table) -> pa.Table:
        bts = pa.compute.binary_length(batch.column("text")).to_numpy()
        df = pd.DataFrame(
            {
                "text": batch.column("text").to_pylist(),
                "source": batch.column("source").to_pylist(),
                "doc_id": batch.column("doc_id").to_numpy(),
                "b": bts.astype(np.int64),
            }
        )
        agg = df.groupby(["text", "source"], as_index=False).agg(
            n=("doc_id", "size"), sb=("b", "sum"), mind=("doc_id", "min"),
            bl=("b", "first"),
        )
        cb = (_text_hash64(pa.array(agg["text"])) & np.uint64(1023)).astype(
            np.int64
        )
        agg.insert(0, "cb", cb)
        return pa.Table.from_pandas(agg, preserve_index=False)

    partials = ds.select_columns(["doc_id", "source", "text"]).map_batches(
        partial, batch_format="pyarrow"
    )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["text", "source"], as_index=False).agg(
            n=("n", "sum"), sb=("sb", "sum"), mind=("mind", "min"),
            bl=("bl", "first"),
        )
        # global keeper per text = the (text, source) row holding the
        # corpus-min doc_id; debit every copy except that one
        kidx = agg.groupby("text")["mind"].idxmin()
        keeper = pd.Series(False, index=agg.index)
        keeper.loc[kidx] = True
        agg["n_dup"] = agg["n"] - keeper.astype(np.int64)
        agg["bytes"] = agg["sb"] - keeper.astype(np.int64) * agg["bl"]
        out = agg[agg["n_dup"] > 0]
        return out[["source", "n_dup", "bytes"]]

    rows = apply_per_partition(
        partials.repartition(shuffle_blocks()), "cb", merge
    ).take(max_groups + 1)
    if len(rows) > max_groups:
        raise ValueError(
            "dup_bytes_by_source: > max_groups source partials — raise "
            "max_groups deliberately"
        )
    acc: dict = {}
    for r in rows:
        n0, b0 = acc.get(r["source"], (0, 0))
        acc[r["source"]] = (n0 + int(r["n_dup"]), b0 + int(r["bytes"]))
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "source": pa.array(sorted(acc), pa.string()),
                "n_dup_docs": pa.array(
                    [acc[s][0] for s in sorted(acc)], pa.int64()
                ),
                "bytes_reclaimable": pa.array(
                    [acc[s][1] for s in sorted(acc)], pa.int64()
                ),
            }
        )
    )
