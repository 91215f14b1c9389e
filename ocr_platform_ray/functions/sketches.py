"""Mergeable sketches: HyperLogLog approximate distinct count.

The mergeable-sketch pattern for wide aggregations at scale: each batch
emits ONE serialized sketch per key (vectorized register update), a tiny
groupby merges registers with elementwise max — the shuffle moves
2^p-byte sketches, never values. Deterministic (splitmix64-derived
hashing, no RNG), standard published algorithm (Flajolet et al.).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from . import apply_per_partition
from .dedup import _text_hash64

P = 12                 # 4096 registers; relative error ~ 1.04/sqrt(2^p) ~ 1.6%
M = 1 << P
_ALPHA = 0.7213 / (1 + 1.079 / M)


def _hash_rank(values: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (register index, rank) per value."""
    h = _text_hash64(values)
    idx = (h & np.uint64(M - 1)).astype(np.int64)
    rest = h >> np.uint64(P)
    # rank = position of first set bit in the remaining 64-p bits, 1-based;
    # rest==0 -> max rank
    nz = rest != 0
    rank = np.full(len(h), 64 - P + 1, dtype=np.uint8)
    # bit_length via log2 on uint64->float is unsafe for high bits; do it
    # with a binary search on integers (vectorized, exact)
    r = rest[nz]
    bl = np.zeros(r.shape, dtype=np.uint8)  # bit_length of r
    for shift in (32, 16, 8, 4, 2, 1):
        m = r >= (np.uint64(1) << np.uint64(shift))
        bl[m] += shift
        r = np.where(m, r >> np.uint64(shift), r)
    bl += 1  # bit_length: highest set bit position (1-based)
    rank[nz] = ((64 - P) - bl + 1).astype(np.uint8)
    return idx, rank


def _registers(values: pa.Array) -> np.ndarray:
    """Vectorized register array for one batch of values."""
    regs = np.zeros(M, dtype=np.uint8)
    if len(values) == 0:
        return regs
    idx, rank = _hash_rank(values)
    np.maximum.at(regs, idx, rank)
    return regs


# Sparse partial encoding: a key with few distinct values in a batch emits
# (idx: u2, rank: u1) pairs instead of a dense 2^p-byte register block, so
# high-cardinality keys (many keys x few rows each) don't turn the partials
# into the big table. Format byte 'S' = sparse pairs, 'D' = dense registers;
# sparse wins whenever 3 bytes/pair < M bytes.

def _encode_regs(idxs: np.ndarray, ranks: np.ndarray) -> bytes:
    if 3 * len(idxs) < M:
        return b"S" + idxs.astype("<u2").tobytes() + ranks.astype(np.uint8).tobytes()
    regs = np.zeros(M, dtype=np.uint8)
    np.maximum.at(regs, idxs, ranks)
    return b"D" + regs.tobytes()


def _merge_sketch_into(regs: np.ndarray, blob: bytes) -> None:
    if blob[:1] == b"D":
        np.maximum(regs, np.frombuffer(blob, dtype=np.uint8, offset=1), out=regs)
    else:
        n = (len(blob) - 1) // 3
        idxs = np.frombuffer(blob, dtype="<u2", count=n, offset=1).astype(np.int64)
        ranks = np.frombuffer(blob, dtype=np.uint8, count=n, offset=1 + 2 * n)
        np.maximum.at(regs, idxs, ranks)


def estimate(regs: np.ndarray) -> float:
    """Standard HLL estimate with small-range correction."""
    regs = regs.astype(np.float64)
    est = _ALPHA * M * M / np.sum(2.0 ** (-regs))
    if est <= 2.5 * M:
        zeros = int((regs == 0).sum())
        if zeros:
            est = M * np.log(M / zeros)
    return float(est)


def sketch_partials(batch: pa.Table, key: str, value: str) -> pa.Table:
    """One (key, encoded sketch) row per key of the batch — the mergeable
    HLL partial. Fully vectorized: factorize keys (nulls are their own
    group, matching SQL GROUP BY on a nullable key), lexsort (key, idx),
    one reduceat for max rank per (key, idx); sketches sparse-encode below
    the density threshold so high-cardinality keys (many keys x few rows
    each) emit bytes proportional to their distinct values, not 2^p."""
    keys = batch.column(key)
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    if batch.num_rows == 0:
        return pa.Table.from_pydict(
            {key: pa.array([], keys.type), "sketch": pa.array([], pa.binary())}
        )
    codes, _ = pd.factorize(keys.to_pandas(), use_na_sentinel=False)
    vcol = batch.column(value)
    if isinstance(vcol, pa.ChunkedArray):
        vcol = vcol.combine_chunks()
    idx, rank = _hash_rank(vcol)
    order = np.lexsort((idx, codes))
    c_s, i_s, r_s = codes[order], idx[order], rank[order]
    new_pair = np.ones(len(c_s), dtype=bool)
    new_pair[1:] = (c_s[1:] != c_s[:-1]) | (i_s[1:] != i_s[:-1])
    starts = np.nonzero(new_pair)[0]
    pair_rank = np.maximum.reduceat(r_s, starts)
    pair_code, pair_idx = c_s[starts], i_s[starts]
    key_change = np.ones(len(starts), dtype=bool)
    key_change[1:] = pair_code[1:] != pair_code[:-1]
    key_starts = np.nonzero(key_change)[0]
    bounds = np.append(key_starts, len(starts))
    out_s = [
        _encode_regs(pair_idx[a:b], pair_rank[a:b])
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    # first occurrence of each code keeps the true Arrow key values
    # (incl. nulls) without going to Python; emitted codes are sorted
    # (lexsort) and every code appears, so np.unique aligns exactly
    first_pos = np.unique(codes, return_index=True)[1]
    return pa.Table.from_pydict(
        {
            key: keys.take(pa.array(first_pos)),
            "sketch": pa.array(out_s, pa.binary()),
        }
    )


def approx_distinct_per_key(
    ds: rd.Dataset, key: str, value: str
) -> rd.Dataset:
    """Approximate distinct ``value`` count per ``key``: per-batch partial
    sketches (sparse- or dense-encoded, see ``sketch_partials``) ->
    groupby merge (elementwise max) -> estimate."""

    partials = ds.select_columns([key, value]).map_batches(
        lambda b: sketch_partials(b, key, value), batch_format="pyarrow"
    )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        regs = np.zeros(M, dtype=np.uint8)
        for s in g["sketch"]:
            _merge_sketch_into(regs, s)
        return pd.DataFrame(
            {
                key: [g[key].iloc[0]],
                "approx_distinct": [int(round(estimate(regs)))],
            }
        )

    return partials.groupby(key).map_groups(merge, batch_format="pandas")


def exact_distinct_per_key(ds: rd.Dataset, key: str, value: str) -> rd.Dataset:
    """EXACT distinct ``value`` count per ``key`` (plus total row count) —
    the exact counterpart of :func:`approx_distinct_per_key`, shaped like
    ``SELECT key, count(*), count(DISTINCT value) GROUP BY key``.

    Three shrinking stages: (1) per-batch groupby (key, md5(value))
    with a row count — the shuffle carries one row per distinct pair per
    batch, never the payload; (2) coarse-bucket by the 128-bit digest so
    identical pairs co-locate, per-bucket dedup + per-key partial counts;
    (3) a tiny per-key merge of <= n_buckets partials. The digest is
    md5 (128-bit), not a 64-bit hash: at 10^12 rows a 64-bit key expects
    ~27k birthday collisions (silent undercount), md5 expects none."""
    import polars as pl

    from ..md5np import md5_hex
    from . import bucketed_group_apply

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.Table.from_pydict(
                {key: pa.array([], batch.schema.field(key).type),
                 "h": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        t = pa.table(
            {key: batch.column(key), "h": md5_hex(batch.column(value))}
        )
        return (
            pl.from_arrow(t)
            .group_by([key, "h"])
            .agg(pl.len().cast(pl.Int64).alias("n"))
            .to_arrow()
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        pairs = g.groupby([key, "h"], as_index=False).agg(n=("n", "sum"))
        out = pairs.groupby(key, as_index=False).agg(
            n_rows=("n", "sum"), n_distinct=("h", "size")
        )
        out["n_rows"] = out["n_rows"].astype(np.int64)
        out["n_distinct"] = out["n_distinct"].astype(np.int64)
        return out

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(key, as_index=False).agg(
            n_rows=("n_rows", "sum"), n_distinct=("n_distinct", "sum")
        )
        out["n_rows"] = out["n_rows"].astype(np.int64)
        out["n_distinct"] = out["n_distinct"].astype(np.int64)
        return out

    partials = bucketed_group_apply(
        ds.select_columns([key, value]).map_batches(
            partial, batch_format="pyarrow"
        ),
        "h",
        per_bucket,
    )
    # per-key merge of <= n_buckets partial rows each — bucketed again so
    # a high-cardinality key column never pays one Ray group per key
    return bucketed_group_apply(partials, key, merge_bucket)


# ---------------------------------------------------- mergeable quantile sketch

SKETCH_POINTS = 256   # stride-sample size per (batch, key); rank error <= N/(2*S)


def _stride_sample(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equi-depth summary of one batch: S order statistics at stride
    centers, each carrying weight n/S (all points, weight 1, when n <= S).
    Deterministic; merging summaries keeps total rank error <= N/(2S)."""
    v = np.sort(vals.astype(np.float64))
    n = len(v)
    if n <= SKETCH_POINTS:
        return v, np.ones(n)
    idx = ((np.arange(SKETCH_POINTS) + 0.5) * n / SKETCH_POINTS).astype(np.int64)
    return v[np.minimum(idx, n - 1)], np.full(SKETCH_POINTS, n / SKETCH_POINTS)


def quantile_sketch_per_key(
    ds: rd.Dataset, key: str, value: str, quantiles: dict[str, float]
) -> rd.Dataset:
    """Approximate per-key quantiles via a mergeable equi-depth summary:
    each batch emits one (points, weights) summary per key (<= 4 KB), the
    groupby merges summaries by weighted concatenation — the shuffle moves
    summaries, never values. ``quantiles``: {output_col: q}. Deterministic;
    rank error bounded by 1/(2*SKETCH_POINTS) of the key's row count."""

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                key: batch.column(key).to_pylist(),
                value: batch.column(value).to_numpy(zero_copy_only=False),
            }
        )
        out_k, out_p, out_w = [], [], []
        for kv, sub in df.groupby(key, sort=True):
            pts, wts = _stride_sample(sub[value].to_numpy())
            out_k.append(kv)
            out_p.append(pts.tobytes())
            out_w.append(wts.tobytes())
        return pa.Table.from_pydict(
            {key: out_k, "points": out_p, "weights": out_w},
            schema=pa.schema(
                [(key, batch.column(key).type),
                 ("points", pa.binary()), ("weights", pa.binary())]
            ),
        )

    partials = ds.select_columns([key, value]).map_batches(
        partial, batch_format="pyarrow"
    )

    def merge_one(g: pd.DataFrame) -> dict:
        pts = np.concatenate([np.frombuffer(p, dtype=np.float64) for p in g["points"]])
        wts = np.concatenate([np.frombuffer(w, dtype=np.float64) for w in g["weights"]])
        order = np.argsort(pts, kind="mergesort")
        pts, wts = pts[order], wts[order]
        cum = np.cumsum(wts)
        total = cum[-1]
        row = {key: g[key].iloc[0]}
        for name, q in quantiles.items():
            # smallest point whose cumulative weight reaches q*total
            i = int(np.searchsorted(cum, q * total, side="left"))
            row[name] = round(float(pts[min(i, len(pts) - 1)]), 6)
        return row

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # keys hash-bucket (bucketed_group_apply): the per-key numpy merge
        # runs in a plain loop over the bucket's keys — Ray scheduling is
        # paid per bucket, not per key
        return pd.DataFrame(
            [merge_one(sub) for _, sub in g.groupby(key, sort=True)]
        )

    from . import bucketed_group_apply

    return bucketed_group_apply(partials, key, merge_bucket, n_buckets=256)


# --------------------------------------- distributed EXACT quantile (selection)

def exact_quantile(
    ds: rd.Dataset,
    col: str,
    q: float,
    n_bins: int = 8192,
    collect_cap: int = 4_000_000,
    interpolation: str = "numpy",
) -> float:
    """EXACT global quantile_cont of a numeric column by distributed
    selection — no global sort, no full-column materialization.

    Three streaming passes over the single projected column:
    1. per-batch (count, min, max) partials -> global range (driver merges
       a few ints per batch);
    2. per-batch fixed-bin histograms -> one (n_bins,) count vector on
       the driver; the cumulative counts locate the buckets holding order
       statistics k = floor((n-1)q) and k+1;
    3. only the values whose bin index lands in those buckets are
       collected (guarded by ``collect_cap`` — a pathological all-ties
       bucket degrades loudly, not by OOM) and the two order statistics
       picked locally.
    Returns the linearly interpolated order statistic. ``interpolation``
    picks the float FORM of that lerp — the two differ by an ulp at some
    fracs (see :func:`grouped_quantiles`): "numpy" (default, pinned by
    the property suite against np.quantile) uses numpy's
    ``b - (b-a)*(1-t)`` fixup for t>=0.5; "duckdb" uses quantile_cont's
    weighted ``lo*(1-frac) + hi*frac`` — use it when the cut is compared
    against values an SQL oracle also buckets (q_quality_buckets)."""
    return exact_quantiles(ds, col, [q], n_bins, collect_cap, interpolation)[0]


def exact_quantiles(
    ds: rd.Dataset,
    col: str,
    qs: list[float],
    n_bins: int = 8192,
    collect_cap: int = 4_000_000,
    interpolation: str = "numpy",
) -> list[float]:
    """:func:`exact_quantile` for SEVERAL fractions in the SAME three
    streaming passes: the range scan, the histogram scan and the
    candidate-value collect are shared, so k cuts cost what one does —
    at 100 TB each pass is a full-corpus scan and paying it per fraction
    is pure waste (q_quality_buckets' two tercile cuts went from 6 to 3
    dataset executions). Per-fraction arithmetic (order statistics,
    interpolation) is bit-identical to the scalar path."""
    proj = ds.select_columns([col])

    def minmax(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        v = batch.column(col)
        return pa.Table.from_pydict(
            {
                "n": pa.array([batch.num_rows], pa.int64()),
                "lo": pa.array([pc.min(v).as_py()], pa.float64()),
                "hi": pa.array([pc.max(v).as_py()], pa.float64()),
            }
        )

    parts = proj.map_batches(minmax, batch_format="pyarrow").take_all()
    n = sum(p["n"] for p in parts)
    if n == 0:
        raise ValueError("exact_quantile: empty input")
    # empty blocks (possible after filter/repartition) emit n=0 partials
    # whose lo/hi are null — skip them instead of comparing None to float
    nonempty = [p for p in parts if p["n"] > 0]
    lo = min(p["lo"] for p in nonempty)
    hi = max(p["hi"] for p in nonempty)
    if lo == hi:
        return [float(lo)] * len(qs)
    edges = np.linspace(lo, hi, n_bins + 1)

    def hist(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        counts, _ = np.histogram(v, bins=edges)
        return pa.Table.from_pydict(
            {"counts": pa.array([counts.tobytes()], pa.binary())}
        )

    counts = np.zeros(n_bins, dtype=np.int64)
    for p in proj.map_batches(hist, batch_format="pyarrow").take_all():
        counts += np.frombuffer(p["counts"], dtype=np.int64)
    cum = np.cumsum(counts)
    per_q = []  # (k, frac, b_k, b_k1) per fraction
    want: set[int] = set()
    for q in qs:
        h = (n - 1) * q
        k = int(np.floor(h))
        frac = h - k
        b_k = int(np.searchsorted(cum, k + 1))
        b_k1 = int(np.searchsorted(cum, k + 2)) if k + 1 < n else b_k
        per_q.append((k, frac, b_k, b_k1))
        want |= {b_k, b_k1}
    if sum(int(counts[b]) for b in want) > collect_cap:
        raise ValueError(
            "exact_quantile: candidate bucket exceeds collect_cap "
            f"({collect_cap}); raise n_bins or the cap for this distribution"
        )

    def pick(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        # same binning rule as np.histogram: right-closed last bin
        idx = np.minimum(np.searchsorted(edges, v, side="right") - 1, n_bins - 1)
        keep = np.isin(idx, list(want))
        return pa.Table.from_pydict({col: pa.array(v[keep], pa.float64())})

    vals = np.sort(
        np.array(
            [r[col] for r in proj.map_batches(pick, batch_format="pyarrow").take_all()]
        )
    )
    # vals holds the UNION of all fractions' candidate buckets, so the
    # index of the k-th order statistic within vals is k minus the values
    # in bins below b_k that were NOT collected: k - cum[<b_k] + (counts
    # of collected bins below b_k). For a single fraction this reduces to
    # the original k - before arithmetic.
    want_arr = np.array(sorted(want))

    def order_stat(k: int, b: int) -> float:
        below = int(cum[b - 1]) if b > 0 else 0
        coll_below = int(counts[want_arr[want_arr < b]].sum())
        return float(vals[k - below + coll_below])

    out = []
    for k, frac, b_k, b_k1 in per_q:
        x_k = order_stat(k, b_k)
        x_k1 = order_stat(k + 1, b_k1) if k + 1 < n else x_k
        if interpolation == "duckdb":
            out.append(float(x_k * (1.0 - frac) + x_k1 * frac))
            continue
        # numpy/pandas lerp, INCLUDING its frac>=0.5 precision fixup
        # (numpy computes b - (b-a)*(1-t) there; the naive a + t*(b-a)
        # form can land one ulp away — a hypothesis-found divergence at
        # n=2, q=0.5)
        diff = x_k1 - x_k
        res = x_k1 - diff * (1.0 - frac) if frac >= 0.5 else x_k + frac * diff
        out.append(float(res))
    return out


def percent_rank_transform(
    ds: rd.Dataset,
    col: str,
    out_col: str = "pct",
    max_distinct: int = 2_000_000,
) -> rd.Dataset:
    """EXACT global ``percent_rank()`` (rank-1)/(N-1) of a numeric column
    appended per row — the rank-normalization pass of a quality-scoring
    pipeline — with NO global sort and no full-column materialization.

    Scale shape: one pass of per-batch (value, n) distinct-count partials
    (the column is expected to be pre-rounded/discretized, e.g. a 6-dp
    score — ``max_distinct`` guards the assumption loudly), one bucketed
    merge, and a driver-side cumulative table of at most ``max_distinct``
    rows broadcast via ``ray.put``; the transform pass is a searchsorted
    per batch. Ranking uses strict-below counts, so ties share a rank —
    exactly DuckDB's ``percent_rank() OVER (ORDER BY col)``. Output is
    rounded via the half-away 6-dp contract for oracle comparison."""
    import pandas as pd
    import ray

    from . import bucketed_group_apply, resolve_broadcast
    from .dedup import shuffle_blocks

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        if np.isnan(v).any():
            raise ValueError(
                f"percent_rank_transform: column {col!r} contains NaN — "
                "rank of NaN is undefined; filter or impute upstream"
            )
        uv, counts = np.unique(v, return_counts=True)
        return pa.Table.from_pydict(
            {
                "v": pa.array(uv, pa.float64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    partials = ds.select_columns([col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("v", as_index=False).agg(n=("n", "sum"))
        agg["n"] = agg["n"].astype("int64")
        return agg

    # materialize the merged counts in the OBJECT STORE first, so the
    # guard fires on a metadata count() before anything reaches the
    # driver heap (a non-discretized column would otherwise OOM the
    # driver inside take_all before the ValueError could trigger)
    merged = bucketed_group_apply(
        partials.repartition(shuffle_blocks()), "v", merge
    ).materialize()
    n_distinct = merged.count()
    if n_distinct > max_distinct:
        raise ValueError(
            f"percent_rank_transform: {n_distinct} distinct values exceeds "
            f"max_distinct={max_distinct} — the column is not the bounded "
            "discretized score this operator assumes; raise deliberately"
        )
    rows = merged.take_all()
    vals = np.array([r["v"] for r in rows], dtype=np.float64)
    cnts = np.array([r["n"] for r in rows], dtype=np.int64)
    order = np.argsort(vals, kind="mergesort")
    vals, cnts = vals[order], cnts[order]
    below = np.concatenate([[0], np.cumsum(cnts)[:-1]]).astype(np.float64)
    n_total = int(cnts.sum())
    denom = max(1, n_total - 1)  # percent_rank of a 1-row frame is 0
    table_ref = ray.put((vals, np.floor(below / denom * 1e6 + 0.5) / 1e6))

    def assign(batch: pa.Table) -> pa.Table:
        tvals, tpct = resolve_broadcast(table_ref)
        v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        idx = np.searchsorted(tvals, v, side="left")
        return batch.append_column(
            out_col, pa.array(tpct[idx], pa.float64())
        )

    return ds.map_batches(assign, batch_format="pyarrow")


# ------------------------------ heavy hitters (bounded-shuffle approx top-k)

def heavy_hitter_tokens(
    ds: rd.Dataset, k: int = 20, capacity: int = 4096
) -> rd.Dataset:
    """Approximate top-k tokens with DETERMINISTIC error bounds and a
    bounded shuffle — the scale path next to ``textstats.top_tokens``
    (whose shuffle carries one row per distinct token per batch: fine
    until the vocabulary explodes).

    Each batch keeps only its ``capacity`` most frequent tokens plus the
    largest dropped count as that batch's threshold (the SpaceSaving /
    Mergeable-Summaries bound, Agarwal et al. 2012, public knowledge).
    For a token observed with total n across batches where it survived,
    true_count <= n + (T - tb_sum) where T is the sum of every batch's
    threshold and tb_sum the sum over batches where it survived — all
    order-independent sums, so the result is deterministic for a given
    partitioning, and EXACT (n_max == n_min) whenever no batch dropped
    anything. Output: (token, n_min, n_max) sorted by n_min desc."""
    import pandas as pd
    import polars as pl

    from .dedup import shuffle_blocks
    from .textstats import TOKEN_RE

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        counts = (
            pl.DataFrame({"t": pl.from_arrow(col)})
            .select(pl.col("t").str.extract_all(TOKEN_RE).alias("tok"))
            .explode("tok")
            .drop_nulls()
            .group_by("tok")
            .len()
            .sort(["len", "tok"], descending=[True, False])
        )
        kept = counts.head(capacity)
        thr = int(counts["len"][capacity]) if len(counts) > capacity else 0
        out = (
            kept.rename({"tok": "token", "len": "n"})
            .with_columns(pl.lit(thr, dtype=pl.Int64).alias("tb"))
            .cast({"n": pl.Int64})
        )
        # one in-band sentinel row carries this batch's threshold (tokens
        # match [a-z0-9]+, so "\x00" cannot collide); robust to any
        # downstream re-batching of the partial blocks
        sent = pl.DataFrame(
            {"token": ["\x00"], "n": [0], "tb": [thr]},
            schema={"token": pl.String, "n": pl.Int64, "tb": pl.Int64},
        )
        return pl.concat([out, sent]).to_arrow()

    # materialize ONCE: the partials are capacity-bounded (<= capacity+1
    # rows per input batch), and both consumers below — the sentinel
    # threshold scan and the filtered groupby — would otherwise each
    # re-execute the tokenize+count pass over the whole corpus (2x scan)
    partials = ds.map_batches(partial, batch_format="pyarrow").materialize()
    total_t = sum(
        r["tb"]
        for r in partials.map_batches(
            lambda b: b.filter(pa.compute.equal(b.column("token"), "\x00")),
            batch_format="pyarrow",
        ).take_all()
    )
    partials = partials.map_batches(
        lambda b: b.filter(pa.compute.not_equal(b.column("token"), "\x00")),
        batch_format="pyarrow",
    )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        n = int(g["n"].sum())
        tb_sum = int(g["tb"].sum())
        return pd.DataFrame(
            {
                "token": [g["token"].iloc[0]],
                "n_min": [n],
                "n_max": [n + (total_t - tb_sum)],
            }
        )

    return (
        partials.repartition(shuffle_blocks())
        .groupby("token")
        .map_groups(final, batch_format="pandas")
        .sort(["n_min", "token"], descending=[True, False])
        .limit(k)
    )


def grouped_quantiles(
    ds: rd.Dataset,
    key_col: str,
    val_col: str,
    qs: tuple = (0.25, 0.5, 0.75, 0.95),
) -> rd.Dataset:
    """EXACT per-group quantile_cont — one wide row per key with a
    ``q{100q}`` column per requested quantile.

    Keys hash-bucket into 256 buckets (``bucketed_group_apply``), so
    all of one key's values co-locate, and ONE vectorized pass per
    bucket computes every quantile for every key in it: sort by (key,
    val), locate per-key group offsets, gather the two order statistics
    per (key, q), and interpolate with DuckDB quantile_cont's WEIGHTED form
    lo*(1-frac) + hi*frac — NOT numpy's lerp: the two differ by an ulp
    at some fracs (measured at q=0.95, frac=0.75: numpy's
    b-(b-a)*(1-t) gives ...749999999998, DuckDB ...75).
    :func:`exact_quantile` keeps the numpy form because its property
    suite pins it against np.quantile.

    Partitioning assumption (documented contract): one KEY's values must
    fit in a bucket worker's memory — this is the per-group EXACT path;
    for a global quantile over an un-groupable column use
    :func:`exact_quantile` (histogram selection, never collects values),
    and for bounded-memory approximations :func:`quantile_sketch`."""
    from . import bucketed_group_apply

    cols = {f"q{int(round(q * 100))}": float(q) for q in qs}

    def per_bucket(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values([key_col, val_col], kind="mergesort")
        keys = g[key_col].to_numpy()
        vals = g[val_col].to_numpy(dtype=np.float64)
        # per-key group offsets in the sorted frame
        new = np.empty(len(g), dtype=bool)
        new[0] = True
        new[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, len(g)))
        out = {key_col: keys[starts]}
        for name, q in cols.items():
            pos = (counts - 1) * q
            lo = np.floor(pos).astype(np.int64)
            frac = pos - lo
            a = vals[starts + lo]
            b = vals[starts + np.minimum(lo + 1, counts - 1)]
            out[name] = a * (1.0 - frac) + b * frac
        return pd.DataFrame(out)

    return bucketed_group_apply(
        ds.select_columns([key_col, val_col]), key_col, per_bucket,
        n_buckets=256, batch_format="pandas",
    )


def grouped_mad_outliers(
    ds: rd.Dataset,
    key_col: str,
    val_col: str,
    id_col: str,
    k: float = 3.0,
    max_groups: int = 100_000,
) -> rd.Dataset:
    """Robust per-group outlier flag: ``|x - median_g| > k * MAD_g`` where
    MAD is the median absolute deviation — the length/score anomaly gate
    that, unlike the z-score, a few extreme documents cannot drag (mean
    and std are unbounded-influence; median and MAD have breakdown 50%).

    Three streamed passes, each already a library primitive: (1)
    :func:`grouped_quantiles` computes the exact per-group median
    (DuckDB's quantile_cont WEIGHTED interpolation form, so the cut
    bit-matches the oracle); the ≤ ``max_groups`` medians collect under a
    loud guard and broadcast via ``ray.put``; (2) the same machinery runs
    over the derived |x − median_g| column for the per-group MAD; (3) one
    vectorized map_batches flags every row. The corpus is re-streamed
    rather than materialized between passes — the decontaminate /
    quality-zscore 100 TB trade. All compared quantities here are exact
    halves in binary floating point (int values, q=0.5), so the strict
    ``>`` cannot straddle an ulp between engines."""
    import ray

    from . import resolve_broadcast

    def collect_medians(d: rd.Dataset, vcol: str) -> dict:
        rows = grouped_quantiles(d, key_col, vcol, qs=(0.5,)).take(
            max_groups + 1
        )
        if len(rows) > max_groups:
            raise ValueError(
                f"grouped_mad_outliers: > {max_groups} groups — raise "
                "max_groups deliberately"
            )
        return {r[key_col]: r["q50"] for r in rows}

    med = collect_medians(ds.select_columns([key_col, val_col]), val_col)
    keys = np.array(sorted(med))
    medv = np.array([med[kk] for kk in keys], dtype=np.float64)
    med_ref = ray.put((keys, medv))

    def add_ad(batch: pa.Table) -> pa.Table:
        kk, mm = resolve_broadcast(med_ref)
        g = batch.column(key_col).to_numpy(zero_copy_only=False).astype(
            kk.dtype
        )
        x = batch.column(val_col).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        ad = np.abs(x - mm[np.searchsorted(kk, g)])
        return batch.append_column("ad", pa.array(ad, pa.float64()))

    with_ad = ds.select_columns([id_col, key_col, val_col]).map_batches(
        add_ad, batch_format="pyarrow"
    )
    mad = collect_medians(with_ad, "ad")
    madv = np.array([mad[kk] for kk in keys], dtype=np.float64)
    mad_ref = ray.put((keys, medv, madv))

    def flag(batch: pa.Table) -> pa.Table:
        kk, mm, dd = resolve_broadcast(mad_ref)
        g = batch.column(key_col).to_numpy(zero_copy_only=False).astype(
            kk.dtype
        )
        x = batch.column(val_col).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        pos = np.searchsorted(kk, g)
        out = np.abs(x - mm[pos]) > k * dd[pos]
        return pa.Table.from_pydict(
            {
                id_col: batch.column(id_col),
                key_col: batch.column(key_col),
                "is_outlier": pa.array(out.astype(np.int64), pa.int64()),
            }
        )

    return ds.select_columns([id_col, key_col, val_col]).map_batches(
        flag, batch_format="pyarrow"
    )


# ------------------------------------------------------- count-min sketch

CMS_DEPTH = 4


def cms_token_counts(
    ds: rd.Dataset,
    probe_tokens: list[str],
    width: int = 1 << 13,
) -> pa.Table:
    """Count-min sketch token-frequency estimation (Cormode & Muthukrishnan
    2005, public algorithm) — the third mergeable sketch next to HLL
    (distinct) and the equi-depth quantile summary: ONE ``depth x width``
    int64 counter grid summarizes the whole corpus's token counts in
    ~256 KB, with the one-sided guarantee ``true <= est <= true + eN``
    (e = e/width... width 8192 -> overestimate <= 0.03% of total tokens
    per row, min over 4 rows in practice far tighter). Use it when you
    need ad-hoc frequency probes at 100 TB without a vocabulary-sized
    shuffle: the exact paths (``top_tokens``/``heavy_hitter_tokens``)
    move one row per distinct token per batch; the sketch moves a
    constant-size grid per batch, pre-merged in 64 hash buckets so no
    reducer ever sees more than a bucket's worth.

    Hashing is the library's pinned md5 contract (four independent u32
    words from one digest — :func:`~ocr_platform_ray.md5np.md5_u32x4`),
    and the grid is a pure SUM of per-batch grids, so estimates are
    bit-identical under ANY partitioning — golden-pinnable, unlike
    per-batch-capacity candidate tracking.

    Returns one row per probe token: (token, est_n). Estimates for the
    probe set only (callers pick probes from an exact pass or a domain
    list); the sketch itself never stores tokens."""
    import polars as pl

    from ..md5np import md5_u32x4
    from .textstats import TOKEN_RE

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        counts = (
            pl.DataFrame({"t": pl.from_arrow(col)})
            .select(pl.col("t").str.extract_all(TOKEN_RE).alias("tok"))
            .explode("tok")
            .drop_nulls()
            .group_by("tok")
            .len()
        )
        grid = np.zeros((CMS_DEPTH, width), dtype=np.int64)
        if len(counts):
            h = md5_u32x4(counts["tok"].to_arrow()) % np.uint32(width)
            n = counts["len"].to_numpy().astype(np.int64)
            for d in range(CMS_DEPTH):
                np.add.at(grid[d], h[:, d], n)
        # 64-way deterministic pre-merge key: grid content hash
        cb = int(grid.sum() % 64)
        return pa.Table.from_pydict(
            {"cb": [cb], "payload": [grid.tobytes()]},
            schema=pa.schema([("cb", pa.int64()), ("payload", pa.binary())]),
        )

    def merge_bucket(g: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        acc = np.zeros(CMS_DEPTH * width, dtype=np.int64)
        for p in g["payload"]:
            acc += np.frombuffer(p, dtype=np.int64)
        return pd.DataFrame({"payload": [acc.tobytes()]})

    parts = apply_per_partition(
        ds.select_columns(["text"]).map_batches(partial, batch_format="pyarrow"),
        "cb",
        merge_bucket,
    ).take_all()
    grid = np.zeros(CMS_DEPTH * width, dtype=np.int64)
    for r in parts:
        grid += np.frombuffer(r["payload"], dtype=np.int64)
    grid = grid.reshape(CMS_DEPTH, width)

    probes = sorted(set(probe_tokens))
    if probes:
        h = md5_u32x4(pa.array(probes, pa.string())) % np.uint32(width)
        est = np.min(
            np.stack([grid[d, h[:, d]] for d in range(CMS_DEPTH)]), axis=0
        )
    else:
        est = np.array([], dtype=np.int64)
    return pa.Table.from_pydict(
        {"token": pa.array(probes, pa.string()),
         "est_n": pa.array(est.astype(np.int64), pa.int64())}
    )


def gini_by_group(
    ds: rd.Dataset,
    group_col: str,
    val_col: str,
    max_cells: int = 1_000_000,
) -> rd.Dataset:
    """Exact per-group Gini coefficient of an integer measure (the
    inequality audit of a training mix: how concentrated document length
    / token budget is within each source). Uses the rank form
    ``G = (2 * sum(i * x_i) - (n + 1) * sum(x)) / (n * sum(x))`` over the
    ascending-sorted values — with ties the rank sum is invariant to tie
    order (equal x share the index block), so ANY row_number order by
    value reproduces it, which is what makes an exact SQL window oracle
    possible.

    Scale shape: no sort and no per-row shuffle — each batch emits
    (group, value, count) histogram partials (integer measures have
    bounded distinct values: doc lengths, token counts), the merged
    histogram collects under a loud ``max_cells`` guard, and the driver
    computes each group's exact rank sum from cumulative counts with
    PYTHON INTEGER math (no overflow, no float accumulation): a distinct
    value v with count c starting at 1-based rank p contributes
    ``v * (c*p + c*(c-1)/2)`` to sum(i * x_i). One float division at the
    end, rounded 6dp half-away like every ratio oracle in this repo."""
    from . import round_half_away_np

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().rename(columns={group_col: "g", val_col: "v"})
        agg = df.groupby(["g", "v"], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    cells = (
        ds.select_columns([group_col, val_col])
        .map_batches(partial, batch_format="pyarrow")
        .take(max_cells + 1)
    )
    if len(cells) > max_cells:
        raise ValueError(
            f"gini_by_group: > {max_cells} histogram partials — the "
            "measure is not low-cardinality enough for the histogram "
            "path; bin it first or raise max_cells deliberately"
        )
    df = pd.DataFrame(cells, columns=["g", "v", "size"])
    hist = df.groupby(["g", "v"])["size"].sum().reset_index()
    hist = hist.sort_values(["g", "v"], kind="mergesort")

    groups, ginis = [], []
    for g, sub in hist.groupby("g", sort=True):
        v = [int(x) for x in sub["v"]]
        c = [int(x) for x in sub["size"]]
        n = sum(c)
        s = sum(vi * ci for vi, ci in zip(v, c))
        p = 1  # 1-based rank where the next value block starts
        sr = 0  # sum of rank_i * x_i, exact
        for vi, ci in zip(v, c):
            sr += vi * (ci * p + ci * (ci - 1) // 2)
            p += ci
        num = 2 * sr - (n + 1) * s
        groups.append(g)
        ginis.append(float(num) / float(n * s))
    out = pd.DataFrame(
        {group_col: groups, "gini": round_half_away_np(np.array(ginis), 6)}
    )
    return rd.from_arrow(pa.Table.from_pandas(out, preserve_index=False))


def group_fingerprint(
    ds: rd.Dataset,
    group_col: str,
    content_col: str,
) -> rd.Dataset:
    """Per-group order-insensitive content checksum — the anti-entropy /
    cross-cluster table-verification primitive: ``n_rows`` plus the
    BIGINT SUM of each row's pinned md5 32-bit prefix
    (``('0x' || substr(md5(x), 1, 8))::UBIGINT`` in SQL, `md5np.md5_u32`
    here — the same version-stable digest contract the split/sample
    family uses). Addition is commutative, so the checksum is
    partition-order independent by construction, and all-integer, so two
    engines either match bit-exactly or genuinely differ.

    Scale shape: each batch emits one (group, n, sum) partial — the
    shuffle carries a few ints per group per batch; the group merge is a
    tiny groupby. Sum bound: 2^32 per row -> overflows int64 only past
    ~2^31 rows per group; uint64 accumulation + a documented BIGINT cast
    keeps the SQL comparison exact far beyond any real shard size."""
    from ..md5np import md5_u32

    def partial(batch: pa.Table) -> pa.Table:
        u32 = md5_u32(batch.column(content_col)).astype(np.uint64)
        df = pd.DataFrame(
            {"g": batch.column(group_col).to_pandas(), "h": u32.astype(np.int64)}
        )
        agg = df.groupby("g", as_index=False).agg(
            n_rows=("h", "size"), checksum=("h", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("g", as_index=False).agg(
            n_rows=("n_rows", "sum"), checksum=("checksum", "sum")
        )
        out["n_rows"] = out["n_rows"].astype(np.int64)
        out["checksum"] = out["checksum"].astype(np.int64)
        return out.rename(columns={"g": group_col})

    from . import bucketed_group_apply

    partials = ds.select_columns([group_col, content_col]).map_batches(
        partial, batch_format="pyarrow"
    )
    return bucketed_group_apply(partials, "g", merge)


def first_digit_counts(
    ds: rd.Dataset, group_col: str, val_col: str
) -> rd.Dataset:
    """Benford-style first-significant-digit audit of a positive integer
    measure: per (group, leading digit) row counts — the classic
    fabricated-data / pipeline-bug screen (a corpus whose length
    distribution suddenly loses its Benford shape usually gained a
    generator or a truncation bug). Digits come from the decimal string
    (exactly SQL's ``substr(CAST(v AS VARCHAR), 1, 1)`` — no float log10
    boundary risk); rows with v <= 0 are excluded on both sides.
    All-integer counts; per-batch (group, digit) partials then a tiny
    bucketed merge."""
    from . import bucketed_group_apply

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": batch.column(group_col).to_pandas(),
                "v": batch.column(val_col).to_numpy(zero_copy_only=False),
            }
        )
        df = df[df["v"] > 0]
        df["digit"] = df["v"].astype(np.int64).astype(str).str[0].astype(np.int64)
        agg = df.groupby(["g", "digit"], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["g", "digit"], as_index=False)["size"].sum()
        out["n"] = out.pop("size").astype(np.int64)
        return out.rename(columns={"g": group_col})

    partials = ds.select_columns([group_col, val_col]).map_batches(
        partial, batch_format="pyarrow"
    )
    return bucketed_group_apply(partials, ["g", "digit"], merge)


def winsorized_mean_by_group(
    ds: rd.Dataset,
    group_col: str,
    val_col: str,
    lo: float = 0.05,
    hi: float = 0.95,
) -> rd.Dataset:
    """Per-group winsorized mean: values clipped to the group's exact
    [q_lo, q_hi] quantile_cont band before averaging — the robust-mean
    calibration a scoring pipeline uses when a few outliers would drag a
    plain mean. Two streamed passes: (1) exact per-group cuts via
    :func:`grouped_quantiles` (DuckDB's weighted interpolation form),
    broadcast as a tiny dict; (2) per-batch clip + (sum, n) partials,
    merged with value-sorted accumulation so the 6dp-rounded mean is a
    pure function of the data."""
    import ray

    from . import bucketed_group_apply, resolve_broadcast, round_half_away_np

    cuts = grouped_quantiles(ds, group_col, val_col, qs=(lo, hi))
    lo_name = f"q{int(round(lo * 100))}"
    hi_name = f"q{int(round(hi * 100))}"
    cut_map = {
        r[group_col]: (r[lo_name], r[hi_name]) for r in cuts.take_all()
    }
    cut_ref = ray.put(cut_map)

    def partial(batch: pa.Table) -> pa.Table:
        cm = resolve_broadcast(cut_ref)
        df = pd.DataFrame(
            {
                "g": batch.column(group_col).to_pandas(),
                "v": batch.column(val_col).to_numpy(zero_copy_only=False),
            }
        )
        lo_v = df["g"].map(lambda g: cm[g][0]).to_numpy()
        hi_v = df["g"].map(lambda g: cm[g][1]).to_numpy()
        df["v"] = np.minimum(np.maximum(df["v"].to_numpy(), lo_v), hi_v)
        df = df.sort_values(["g", "v"], kind="mergesort")
        agg = df.groupby("g", as_index=False).agg(
            s=("v", "sum"), n=("v", "size")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["g", "s"], kind="mergesort")
        agg = df.groupby("g", as_index=False).agg(s=("s", "sum"), n=("n", "sum"))
        out = pd.DataFrame(
            {
                group_col: agg["g"],
                "wmean": round_half_away_np(
                    agg["s"].to_numpy() / agg["n"].to_numpy(), 6
                ),
            }
        )
        return out

    partials = ds.select_columns([group_col, val_col]).map_batches(
        partial, batch_format="pyarrow"
    )
    return bucketed_group_apply(partials, "g", merge)


def source_balance_chi2(ds: rd.Dataset, max_cells: int = 100_000) -> rd.Dataset:
    """Per-source chi-square statistic against the corpus-wide lang
    distribution — the mix-balance audit (a source whose language mix
    drifts from the corpus shows up as a large chi2). All counts are
    exact integer (source, lang) crosstab partials; the driver evaluates
    sum over langs (in sorted-lang order, matched by the oracle's
    per-group accumulation) of (o - e)^2 / e with e = n_s * n_l / N,
    rounded 6dp."""
    from . import bucketed_group_apply, round_half_away

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "source": batch.column("source").to_pandas(),
                "lang": batch.column("lang").to_pandas(),
            }
        )
        agg = df.groupby(["source", "lang"], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    cells = (
        ds.select_columns(["source", "lang"])
        .map_batches(partial, batch_format="pyarrow")
        .take(max_cells + 1)
    )
    if len(cells) > max_cells:
        raise ValueError(
            f"source_balance_chi2: > {max_cells} crosstab partials — "
            "not a report-sized key space; raise max_cells deliberately"
        )
    df = pd.DataFrame(cells, columns=["source", "lang", "size"])
    c = df.groupby(["source", "lang"])["size"].sum()
    wide = c.unstack("lang", fill_value=0).sort_index(axis=1)
    ns = wide.sum(axis=1).astype(np.int64)
    nl = wide.sum(axis=0).astype(np.int64)
    N = int(ns.sum())
    out_g, out_chi = [], []
    for g in wide.index:
        chi = 0.0
        for lang in wide.columns:  # sorted lang order on both sides
            e = int(ns[g]) * int(nl[lang]) / N
            o = int(wide.loc[g, lang])
            chi += (o - e) ** 2 / e
        out_g.append(g)
        out_chi.append(round_half_away(chi, 6))
    return rd.from_arrow(
        pa.Table.from_pydict(
            {"source": pa.array(out_g, pa.string()),
             "chi2": pa.array(out_chi, pa.float64())}
        )
    )


def geomean_by_group(
    ds: rd.Dataset, group_col: str, val_col: str
) -> rd.Dataset:
    """Per-group geometric mean of a positive measure
    (``exp(avg(ln v))`` — the right average for ratio-like quality
    scores). Per-batch (sum of logs, n) partials with group-sorted
    accumulation, one exp at the end, 6dp. Rows with v <= 0 are excluded
    on both engine and oracle sides (ln undefined)."""
    from . import bucketed_group_apply, round_half_away_np

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": batch.column(group_col).to_pandas(),
                "v": batch.column(val_col).to_numpy(zero_copy_only=False)
                .astype(np.float64),
            }
        )
        df = df[df["v"] > 0]
        df["lv"] = np.log(df["v"].to_numpy())
        df = df.sort_values(["g", "lv"], kind="mergesort")
        agg = df.groupby("g", as_index=False).agg(s=("lv", "sum"), n=("lv", "size"))
        return pa.Table.from_pandas(agg, preserve_index=False)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["g", "s"], kind="mergesort")
        agg = df.groupby("g", as_index=False).agg(s=("s", "sum"), n=("n", "sum"))
        return pd.DataFrame(
            {
                group_col: agg["g"],
                "geomean": round_half_away_np(
                    np.exp(agg["s"].to_numpy() / agg["n"].to_numpy()), 6
                ),
            }
        )

    partials = ds.select_columns([group_col, val_col]).map_batches(
        partial, batch_format="pyarrow"
    )
    return bucketed_group_apply(partials, "g", merge)


def grouped_hist_quantiles(
    ds: rd.Dataset,
    group_col: str,
    val_col: str,
    qs: tuple = (0.5, 0.95),
    max_cells: int = 1_000_000,
) -> rd.Dataset:
    """Exact per-group quantile_cont of an INTEGER measure from
    histogram partials — the :func:`gini_by_group` trade applied to
    quantiles: bounded distinct values mean the shuffle carries
    (group, value, count) rows, never the measure column, and the exact
    positional interpolation (DuckDB's weighted lo*(1-f)+hi*f form) runs
    on the driver from cumulative counts under a loud ``max_cells``
    guard. Use :func:`grouped_quantiles` when values are continuous."""
    from . import bucketed_group_apply, round_half_away

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": batch.column(group_col).to_pandas(),
                "v": batch.column(val_col).to_numpy(zero_copy_only=False),
            }
        )
        agg = df.groupby(["g", "v"], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    cells = (
        ds.select_columns([group_col, val_col])
        .map_batches(partial, batch_format="pyarrow")
        .take(max_cells + 1)
    )
    if len(cells) > max_cells:
        raise ValueError(
            f"grouped_hist_quantiles: > {max_cells} histogram partials — "
            "the measure is not low-cardinality; use grouped_quantiles "
            "or raise max_cells deliberately"
        )
    df = pd.DataFrame(cells, columns=["g", "v", "size"])
    hist = df.groupby(["g", "v"])["size"].sum().reset_index()
    hist = hist.sort_values(["g", "v"], kind="mergesort")
    names = [f"q{int(round(q * 100))}" for q in qs]
    out = {group_col: [], **{nm: [] for nm in names}}
    for g, sub in hist.groupby("g", sort=True):
        v = sub["v"].to_numpy(dtype=np.float64)
        c = sub["size"].to_numpy(dtype=np.int64)
        cum = np.cumsum(c)
        n = int(cum[-1])
        out[group_col].append(g)
        for nm, q in zip(names, qs):
            pos = (n - 1) * q
            lo = int(np.floor(pos))
            frac = pos - lo
            i_lo = int(np.searchsorted(cum, lo + 1))
            i_hi = int(np.searchsorted(cum, min(lo + 1, n - 1) + 1))
            val = v[i_lo] * (1.0 - frac) + v[i_hi] * frac
            out[nm].append(round_half_away(float(val), 6))
    tbl = {group_col: pa.array(out[group_col])}
    for nm in names:
        tbl[nm] = pa.array(out[nm], pa.float64())
    return rd.from_arrow(pa.Table.from_pydict(tbl))


def kmv_set_overlap(
    ds: rd.Dataset,
    key: str,
    value: str,
    k: int = 256,
    max_partial_rows: int = 2_000_000,
) -> pa.Table:
    """KMV (k-minimum-values) distinct sketches per ``key`` plus PAIRWISE
    set-overlap estimates (union / intersection / Jaccard) between every
    key pair — the sketch-join that answers "how much do the audiences of
    two event types overlap?" without ever shuffling the raw value sets.

    Hash contract is the repo's pinned md5 32-bit prefix
    (:func:`ocr_platform_ray.md5np.md5_u32` == DuckDB
    ``('0x' || substr(md5(CAST(v AS VARCHAR)),1,8))::UBIGINT``), so a
    DuckDB oracle reproduces the estimates EXACTLY. All set math is
    defined over the 32-bit hash sets themselves (collisions collapse
    identically on both sides):

    - nd_x   = |H_x| clipped into the sketch: exact when |H_x| <= k
    - est_x  = |H_x| if |H_x| <= k else (k-1) * 2^32 / kth_smallest(H_x)
    - est_union = |H_a (+) H_b| when both sketches are complete, else
      (k-1) * 2^32 / kth_smallest(distinct(sk_a (+) sk_b))  (standard
      KMV union: combined sketch is a valid KMV of the union)
    - est_intersect = est_a + est_b - est_union (inclusion-exclusion,
      clipped at >= 0 on NEITHER side: the oracle must match raw)
    - jaccard_est = est_intersect / est_union

    Scale shape (100 TB): each batch emits at most ``k`` smallest hashes
    per key (vectorized unique + partition), a repartition-compacted
    second combiner level collapses blocks, and only the final
    keys x k partial rows (loudly guarded by ``max_partial_rows``)
    reach the driver for the tiny pairwise evaluation — the raw
    ``value`` column never shuffles. Estimator: Bar-Yossef et al.,
    "Counting distinct elements in a data stream" (RANDOM 2002).
    """
    from ..md5np import md5_u32
    from . import round_half_away

    def partial(batch: pa.Table) -> pa.Table:
        keys_np = batch.column(key).to_numpy(zero_copy_only=False)
        hv = md5_u32(batch.column(value)).astype(np.int64)
        df = pd.DataFrame({"k": keys_np, "hv": hv}).drop_duplicates()
        out = df.sort_values(["k", "hv"]).groupby("k", sort=False).head(k)
        return pa.Table.from_pandas(out, preserve_index=False)

    def combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().drop_duplicates()
        out = df.sort_values(["k", "hv"]).groupby("k", sort=False).head(k)
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow")
    # second combiner level: compact the (n_blocks x keys x k) partials
    # onto a few blocks and re-trim, so the driver merge below is
    # bounded by ~n_compact_blocks x keys x k rows regardless of input
    # block count (the 100 TB path; at test scale it's one block).
    from .dedup import shuffle_blocks

    parts = parts.repartition(shuffle_blocks()).map_batches(
        combine, batch_format="pyarrow"
    )
    pdf = parts.to_pandas()
    if len(pdf) > max_partial_rows:
        raise ValueError(
            f"kmv_set_overlap: {len(pdf)} partial rows exceed the "
            f"{max_partial_rows} driver guard — raise k-compaction level"
        )
    pdf = pdf.drop_duplicates()
    sketches: dict = {}
    for kk, sub in pdf.groupby("k", sort=True):
        hs = np.sort(sub["hv"].to_numpy(dtype=np.int64))[:k]
        sketches[kk] = hs
    names = sorted(sketches)
    two32 = 4294967296.0

    def est_one(hs: np.ndarray) -> float:
        if len(hs) < k:
            return float(len(hs))
        return (k - 1) * two32 / float(hs[k - 1])

    rows = {c: [] for c in (
        "type_a", "type_b", "est_a", "est_b", "est_union",
        "est_intersect", "jaccard_est",
    )}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            ha, hb = sketches[a], sketches[b]
            ea, eb = est_one(ha), est_one(hb)
            u = np.unique(np.concatenate([ha, hb]))
            if len(ha) < k and len(hb) < k:
                eu = float(len(u))
            else:
                eu = (k - 1) * two32 / float(np.sort(u)[k - 1])
            ei = ea + eb - eu
            rows["type_a"].append(a)
            rows["type_b"].append(b)
            rows["est_a"].append(round_half_away(ea, 6))
            rows["est_b"].append(round_half_away(eb, 6))
            rows["est_union"].append(round_half_away(eu, 6))
            rows["est_intersect"].append(round_half_away(ei, 6))
            rows["jaccard_est"].append(round_half_away(ei / eu, 6))
    return pa.Table.from_pydict(
        {
            "type_a": pa.array(rows["type_a"], pa.string()),
            "type_b": pa.array(rows["type_b"], pa.string()),
            "est_a": pa.array(rows["est_a"], pa.float64()),
            "est_b": pa.array(rows["est_b"], pa.float64()),
            "est_union": pa.array(rows["est_union"], pa.float64()),
            "est_intersect": pa.array(rows["est_intersect"], pa.float64()),
            "jaccard_est": pa.array(rows["jaccard_est"], pa.float64()),
        }
    )


def grouped_quantile_disc(
    ds: rd.Dataset,
    group_col: str,
    value_col: str,
    qs: tuple = (0.25, 0.5, 0.75, 0.9),
    max_cells: int = 1_000_000,
) -> pa.Table:
    """SQL ``quantile_disc`` per group: the EXACT data value at sorted
    index ceil(q·n) − 1 (DuckDB's rule, verified empirically) — the
    discrete companion of the interpolating quantile_cont family, for
    when the answer must be a value that actually occurs (a real
    latency sample, a real document length), not a synthetic midpoint.

    Exactness: the per-(group, value) histogram is exact (doubles
    compare bit-identically to the parquet source on both engines);
    the index is computed with the same float ceil expression both
    sides; selection is pure integer cumsum + searchsorted. No float
    arithmetic touches the VALUES at all.

    Scale shape: per-batch count partials bounded by distinct values,
    driver merge under the loud ``max_cells`` guard (the repo-wide
    histogram-quantile contract: pre-bin truly continuous measures)."""
    import polars as pl

    def partial(batch: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(batch.select([group_col, value_col]))
            .group_by([group_col, value_col])
            .len()
            .rename({"len": "n"})
            .cast({"n": pl.Int64})
            .to_arrow()
        )

    rows = ds.select_columns([group_col, value_col]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_cells + 1)
    if len(rows) > max_cells:
        raise ValueError(
            f"grouped_quantile_disc: > {max_cells} (group, value) "
            "cells — pre-bin the measure or raise max_cells"
        )
    h = (
        pd.DataFrame(rows)
        .groupby([group_col, value_col], as_index=False)["n"]
        .sum()
    )
    out = {group_col: [], "n": [], "q": [], "value": []}
    for g, sub in h.groupby(group_col, sort=True):
        sub = sub.sort_values(value_col, kind="mergesort")
        vals = sub[value_col].to_numpy()
        cum = np.cumsum(sub["n"].to_numpy(np.int64))
        n = int(cum[-1])
        for q in qs:
            idx = int(np.ceil(q * float(n))) - 1
            idx = min(max(idx, 0), n - 1)
            pos = int(np.searchsorted(cum, idx + 1))
            out[group_col].append(g)
            out["n"].append(n)
            out["q"].append(float(q))
            out["value"].append(float(vals[pos]))
    return pa.Table.from_pydict(
        {
            group_col: pa.array(out[group_col], pa.string()),
            "n": pa.array(out["n"], pa.int64()),
            "q": pa.array(out["q"], pa.float64()),
            "value": pa.array(out["value"], pa.float64()),
        }
    )
