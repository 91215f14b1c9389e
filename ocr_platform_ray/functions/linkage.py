"""Record-linkage operators: blocked edit-distance pair verification and
a full-coverage connected-components labeling — the "are these two rows
the same entity" layer of a training-data pipeline (reference analogue:
the dedup/idempotency checks around result rows,
apps/api/app/api/v1/routes_jobs.py's one-current-row-per-job contract,
re-expressed as corpus-scale operators).

Ray-Data-first shape: candidate pairs come from cheap SQL-expressible
BLOCKING keys (never all-pairs), the O(len^2) edit-distance DP runs
vectorized ACROSS pairs inside each bucket (numpy min-plus scan — the
only Python loop is over DP rows), and component labels ride the
existing distributed min-label propagation in
:func:`~ocr_platform_ray.functions.dedup.connected_components_labels`.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from . import bucketed_group_apply, round_half_away_np


def levenshtein_bytes_block(A: list[bytes], B: list[bytes]) -> np.ndarray:
    """Exact Levenshtein distances for n ``(A[i], B[i])`` byte-string
    pairs at once, vectorized across the PAIR axis.

    Unit contract: BYTES of the UTF-8 encoding — DuckDB's
    ``levenshtein()`` is byte-based (``levenshtein('café','cafe') = 2``),
    and matching the oracle exactly is the point.

    The classic row-rolling DP has a sequential dependency along j
    (``cur[j] = min(..., cur[j-1]+1)``); that chain is a min-plus prefix
    scan, so with ``D[j] = min(prev[j]+1, prev[j-1]+cost)`` it resolves
    as ``cur[j] = j + cummin(D[k]-k)`` — one ``np.minimum.accumulate``
    per DP row. Total work is O(maxlen_A) vector steps of width
    (n_pairs x maxlen_B): the Python interpreter is on the short axis,
    every O(len^2 x pairs) cell stays in numpy."""
    n = len(A)
    if n == 0:
        return np.empty(0, np.int64)
    la = np.array([len(a) for a in A], np.int64)
    lb = np.array([len(b) for b in B], np.int64)
    La, Lb = int(la.max()), int(lb.max())
    Am = np.zeros((n, max(La, 1)), np.uint8)
    Bm = np.zeros((n, max(Lb, 1)), np.uint8)
    for i, (a, b) in enumerate(zip(A, B)):
        if a:
            Am[i, : len(a)] = np.frombuffer(a, np.uint8)
        if b:
            Bm[i, : len(b)] = np.frombuffer(b, np.uint8)
    j = np.arange(Lb + 1, dtype=np.int32)
    prev = np.broadcast_to(j, (n, Lb + 1)).copy()
    out = np.empty(n, np.int64)
    base = la == 0
    out[base] = lb[base]
    for i in range(1, La + 1):
        cost = (Am[:, i - 1 : i] != Bm[:, :Lb]).astype(np.int32)
        D = np.empty((n, Lb + 1), np.int32)
        D[:, 0] = i
        np.minimum(prev[:, 1:] + 1, prev[:, :-1] + cost, out=D[:, 1:])
        T = D - j
        np.minimum.accumulate(T, axis=1, out=T)
        cur = T + j
        hit = la == i
        if hit.any():
            out[hit] = cur[hit, lb[hit]].astype(np.int64)
        prev = cur
    return out


def edit_distance_pairs(
    ds: rd.Dataset,
    block_cols: list[str],
    id_col: str = "doc_id",
    text_col: str = "text",
    len_col: str = "n_chars",
    len_bucket: int = 10,
    max_pairs_per_bucket: int = 200_000,
) -> rd.Dataset:
    """Blocked edit-distance near-dup verification: for every pair of
    rows sharing ``(block_cols..., len_col // len_bucket)`` emit
    ``(doc_a, doc_b, dist, sim)`` with the exact byte-Levenshtein
    distance and ``sim = round(1 - dist / max(byte_len), 6)``.

    Scale shape: blocking keys co-locate via the repo's coarse-bucket
    groupby (`bucketed_group_apply`), so candidate generation is
    per-block all-pairs — never corpus all-pairs — and the DP runs once
    per BUCKET over every pair it contains (pair-axis vectorized).
    A loud ``max_pairs_per_bucket`` guard catches degenerate blocking
    (one giant block is an O(n^2) bug, not a workload)."""
    blk = list(block_cols) + ["__lb"]

    def pairs_of(df: pd.DataFrame) -> pd.DataFrame:
        ia: list[np.ndarray] = []
        ib: list[np.ndarray] = []
        n_pairs = 0
        groups = []
        for _, sub in df.groupby(blk, sort=False):
            m = len(sub)
            if m < 2:
                continue
            sub = sub.sort_values(id_col, kind="mergesort")
            iu, iv = np.triu_indices(m, k=1)
            n_pairs += len(iu)
            if n_pairs > max_pairs_per_bucket:
                raise ValueError(
                    f"edit_distance_pairs: > {max_pairs_per_bucket} "
                    "candidate pairs in one bucket — the blocking key is "
                    "degenerate (near-constant); tighten block_cols or "
                    "raise max_pairs_per_bucket deliberately"
                )
            groups.append(sub)
            ia.append(iu)
            ib.append(iv)
        if not groups:
            return pd.DataFrame(
                {
                    "doc_a": pd.Series([], dtype=np.int64),
                    "doc_b": pd.Series([], dtype=np.int64),
                    "dist": pd.Series([], dtype=np.int64),
                    "sim": pd.Series([], dtype=np.float64),
                }
            )
        A: list[bytes] = []
        B: list[bytes] = []
        da: list[np.ndarray] = []
        db: list[np.ndarray] = []
        for sub, iu, iv in zip(groups, ia, ib):
            enc = [t.encode("utf-8") for t in sub[text_col]]
            ids = sub[id_col].to_numpy()
            A.extend(enc[i] for i in iu)
            B.extend(enc[i] for i in iv)
            da.append(ids[iu])
            db.append(ids[iv])
        dist = levenshtein_bytes_block(A, B)
        mx = np.maximum(
            np.array([len(a) for a in A], np.int64),
            np.array([len(b) for b in B], np.int64),
        )
        sim = np.where(mx > 0, 1.0 - dist / np.maximum(mx, 1), 1.0)
        return pd.DataFrame(
            {
                "doc_a": np.concatenate(da).astype(np.int64),
                "doc_b": np.concatenate(db).astype(np.int64),
                "dist": dist,
                "sim": round_half_away_np(sim, 6),
            }
        )

    def add_lb(batch: pa.Table) -> pa.Table:
        lb = pa.compute.divide(
            batch.column(len_col), pa.scalar(len_bucket, pa.int64())
        )
        return batch.append_column("__lb", lb)

    prepped = ds.select_columns(
        list(block_cols) + [id_col, text_col, len_col]
    ).map_batches(add_lb, batch_format="pyarrow")
    return bucketed_group_apply(prepped, blk, pairs_of)


def length_island_components(
    ds: rd.Dataset, bucket_div: int = 100, cc_mode: str = "auto"
) -> rd.Dataset:
    """Full-coverage connected components over a deterministic,
    SQL-checkable graph: within each ``(lang, source)`` stream (docs in
    ``doc_id`` order), consecutive docs are linked when they share a
    length bucket (``n_chars // bucket_div``). Components are therefore
    maximal same-bucket RUNS — the gaps-and-islands shape — so an exact
    window-SQL oracle exists, while the ENGINE path is the real
    distributed min-label propagation over multi-hop chain edges (the
    worst-case topology for label propagation: diameter == run length).
    Docs with no edge are their own singleton component.

    Returns ``(doc_id, component)`` for EVERY doc, component = min
    doc_id of the island. ``cc_mode``: "auto" resolves the edge set on
    the driver while it fits (<= CC_DRIVER_MAX_PAIRS, the minhash-keep
    policy) and falls back to distributed propagation past that;
    "driver" / "distributed" pin a path (tests pin two-path equality).

    Scale shape: edges per (lang, source) come from one coarse-bucketed
    groupby; distributed propagation shuffles only the (batch-contracted)
    edge set per round; the label join-back is the repo's bucketed merge
    join keyed on doc_id, or a broadcast searchsorted fill on the driver
    path."""
    from .dedup import connected_components_labels
    from .joins import bucketed_merge_join

    def edges_of(df: pd.DataFrame) -> pd.DataFrame:
        outs_a: list[np.ndarray] = []
        outs_b: list[np.ndarray] = []
        for _, sub in df.groupby(["lang", "source"], sort=False):
            sub = sub.sort_values("doc_id", kind="mergesort")
            ids = sub["doc_id"].to_numpy()
            lb = (sub["n_chars"].to_numpy() // bucket_div).astype(np.int64)
            link = lb[1:] == lb[:-1]
            outs_a.append(ids[:-1][link])
            outs_b.append(ids[1:][link])
        a = np.concatenate(outs_a) if outs_a else np.empty(0, np.int64)
        b = np.concatenate(outs_b) if outs_b else np.empty(0, np.int64)
        return pd.DataFrame(
            {"doc_a": a.astype(np.int64), "doc_b": b.astype(np.int64)}
        )

    import ray

    from .dedup import CC_DRIVER_MAX_PAIRS, local_component_roots

    docs = ds.select_columns(["doc_id", "lang", "source", "n_chars"])
    edges = bucketed_group_apply(docs, ["lang", "source"], edges_of).materialize()
    n_edges = edges.count()

    if n_edges == 0 or edges.schema() is None:
        # no edges anywhere (Ray drops the schema of an all-empty
        # dataset): every doc is its own singleton component
        return ds.select_columns(["doc_id"]).map_batches(
            lambda b: pa.Table.from_pydict(
                {"doc_id": b.column("doc_id"), "component": b.column("doc_id")}
            ),
            batch_format="pyarrow",
        )

    if cc_mode == "auto":
        cc_mode = (
            "driver" if n_edges <= CC_DRIVER_MAX_PAIRS else "distributed"
        )

    if cc_mode == "driver":
        # bounded driver-side resolve (the minhash-keep policy): the
        # vectorized kernel labels a few million edges in-memory, and the
        # (sorted nodes, roots) pair broadcasts so the corpus-wide label
        # fill is one searchsorted per batch — no join shuffle at all
        rows = edges.take_all()
        a = np.fromiter((r["doc_a"] for r in rows), np.int64, n_edges)
        b = np.fromiter((r["doc_b"] for r in rows), np.int64, n_edges)
        nodes, roots = local_component_roots(a, b)
        lk_ref = ray.put((nodes, roots))

        def fill_broadcast(batch: pa.Table) -> pa.Table:
            from . import resolve_broadcast

            nd, rt = resolve_broadcast(lk_ref)
            ids = batch.column("doc_id").to_numpy().astype(np.int64)
            pos = np.searchsorted(nd, ids)
            hit = pos < len(nd)
            hit[hit] = nd[pos[hit]] == ids[hit]
            comp = ids.copy()
            comp[hit] = rt[pos[hit]]
            return pa.Table.from_pydict(
                {"doc_id": batch.column("doc_id"), "component": comp}
            )

        return ds.select_columns(["doc_id"]).map_batches(
            fill_broadcast, batch_format="pyarrow"
        )

    # edge set too big for the driver: real distributed min-label
    # propagation (batch-contracted stars), then a bucketed merge join
    # back onto the corpus
    labels = connected_components_labels(edges)
    joined = bucketed_merge_join(
        ds.select_columns(["doc_id"]), labels, on="doc_id", how="left"
    )

    def fill(batch: pa.Table) -> pa.Table:
        comp = pa.compute.coalesce(
            pa.compute.cast(batch.column("label"), pa.int64()),
            batch.column("doc_id"),
        )
        return pa.Table.from_pydict(
            {"doc_id": batch.column("doc_id"), "component": comp}
        )

    return joined.map_batches(fill, batch_format="pyarrow")


def minhash_edit_verified_pairs(
    ds: rd.Dataset,
    threshold: float = 0.7,
    min_sim: float = 0.4,
    max_candidates: int = 200_000,
) -> pa.Table:
    """The LSH-then-verify composition: MinHash+LSH candidate pairs
    (recall stage) re-scored with the EXACT byte-Levenshtein normalized
    similarity (precision stage) — the standard two-stage near-dup
    pipeline, here wiring the repo's two components together. Keeps
    pairs with ``sim >= min_sim``; output (doc_a, doc_b, est_jaccard,
    sim) sorted by (doc_a, doc_b).

    Scale shape: candidates are LSH-capped (orders of magnitude smaller
    than the corpus) and collect under a loud ``max_candidates`` guard;
    the needed texts broadcast once via ray.put (the
    verify_pairs_jaccard pattern), and the DP runs pair-axis-vectorized
    per batch of pairs. Not SQL-expressible (LSH) -> golden-pinned."""
    import ray

    from . import round_half_away_np
    from .dedup import minhash_dup_pairs

    cands = (
        minhash_dup_pairs(ds, threshold)
        .select_columns(["doc_a", "doc_b", "est_jaccard"])
        .take(max_candidates + 1)
    )
    if len(cands) > max_candidates:
        raise ValueError(
            f"minhash_edit_verified_pairs: > {max_candidates} LSH "
            "candidates — raise max_candidates deliberately"
        )
    if not cands:
        return pa.Table.from_pydict(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "est_jaccard": pa.array([], pa.float64()),
                "sim": pa.array([], pa.float64()),
            }
        )
    needed = sorted({r["doc_a"] for r in cands} | {r["doc_b"] for r in cands})

    def collect(batch: pa.Table) -> pa.Table:
        mask = pa.compute.is_in(
            batch.column("doc_id"), value_set=pa.array(needed)
        )
        return batch.filter(mask)

    small = (
        ds.select_columns(["doc_id", "text"])
        .map_batches(collect, batch_format="pyarrow")
        .take_all()
    )
    lk_ref = ray.put(
        {r["doc_id"]: r["text"].encode("utf-8") for r in small}
    )

    def score(batch: pa.Table) -> pa.Table:
        from . import resolve_broadcast

        lk = resolve_broadcast(lk_ref)
        A = [lk[a] for a in batch.column("doc_a").to_pylist()]
        B = [lk[b] for b in batch.column("doc_b").to_pylist()]
        dist = levenshtein_bytes_block(A, B)
        mx = np.maximum(
            np.array([len(a) for a in A], np.int64),
            np.array([len(b) for b in B], np.int64),
        )
        sim = np.where(mx > 0, 1.0 - dist / np.maximum(mx, 1), 1.0)
        return batch.append_column(
            "sim", pa.array(round_half_away_np(sim, 6), pa.float64())
        )

    pair_tbl = pa.Table.from_pydict(
        {
            "doc_a": pa.array([r["doc_a"] for r in cands], pa.int64()),
            "doc_b": pa.array([r["doc_b"] for r in cands], pa.int64()),
            "est_jaccard": pa.array(
                [r["est_jaccard"] for r in cands], pa.float64()
            ),
        }
    )
    scored = (
        rd.from_arrow(pair_tbl)
        .map_batches(score, batch_format="pyarrow")
        .to_pandas()
    )
    scored = scored[scored["sim"] >= min_sim].sort_values(
        ["doc_a", "doc_b"], kind="mergesort"
    )
    return pa.Table.from_pandas(scored, preserve_index=False)


def sorted_neighborhood_pairs(
    ds: rd.Dataset,
    window: int = 5,
    key_chars: int = 32,
    prefix_chars: int = 2,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> rd.Dataset:
    """Sorted-neighborhood blocking (Hernández & Stolfo 1995): rank the
    corpus by a normalized content sort key (lowercased, non-[a-z0-9]
    stripped, first ``key_chars`` chars, ``id_col`` tie-break) and emit
    every candidate pair within ``window`` ranks — the classic
    record-linkage alternative to LSH blocking: near-identical prefixes
    become ADJACENT in sort order regardless of their hash distance.
    Output: (doc_a, doc_b, rank_gap) with doc_a the lower-ranked doc,
    0 < rank_gap <= window. EXACT (all-integer ranks), so the SQL
    self-join ``b.rk - a.rk <= window`` over ``row_number() OVER (ORDER
    BY sk, id)`` is a value-hash oracle.

    Distributed exact rank without a global sort (the
    seeded_shuffle_rank scheme, range-bucketed by the key's first
    ``prefix_chars`` chars — prefix order == key order): pass 1 counts
    rows per prefix bucket (driver-bounded: <= 37^prefix_chars + 1
    ints), pass 2 ranks inside each bucket and adds the exclusive
    prefix offset. Content prefixes skew (natural text clusters on
    common openings) — raise ``prefix_chars`` at corpus scale so the
    hottest bucket's (key, id) pairs fit a worker; the ranks-only
    shuffle never carries text. Pair generation is windowed-bucket
    local: every row lands in rank-bucket floor(rk/window) and its
    successor, and a pair is emitted ONLY in the lower member's native
    bucket — each qualifying pair materializes exactly once, no
    dedup shuffle."""
    import polars as pl

    from .dedup import shuffle_blocks

    def add_key(batch: pa.Table) -> pa.Table:
        d = pl.from_arrow(batch.select([id_col, text_col]))
        d = d.with_columns(
            pl.col(text_col)
            .str.to_lowercase()
            .str.replace_all(r"[^a-z0-9]", "")
            .str.slice(0, key_chars)
            .alias("__sk")
        ).drop(text_col)
        d = d.with_columns(
            pl.col("__sk").str.slice(0, prefix_chars).alias("__bucket")
        )
        return d.to_arrow()

    keyed = ds.select_columns([id_col, text_col]).map_batches(
        add_key, batch_format="pyarrow"
    ).materialize()  # two consumers (count pass + rank pass): one scan

    def count_partial(batch: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(batch.select(["__bucket"]))
            .group_by("__bucket")
            .len()
            .rename({"len": "n"})
            .to_arrow()
        )

    acc: dict = {}
    for part in keyed.map_batches(
        count_partial, batch_format="pyarrow"
    ).take_all():
        acc[part["__bucket"]] = acc.get(part["__bucket"], 0) + int(part["n"])
    buckets = sorted(acc)  # lexicographic == sort-key range order
    offsets: dict = {}
    run = 0
    for b in buckets:
        offsets[b] = run
        run += acc[b]

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["__sk", id_col], kind="mergesort")
        base = offsets[g["__bucket"].iloc[0]]
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(),
                "rk": base + np.arange(len(g), dtype=np.int64),
            }
        )

    # map_groups, not apply_per_partition: rank reads its bucket id
    ranked = (
        keyed.repartition(shuffle_blocks())
        .groupby("__bucket")
        .map_groups(rank, batch_format="pandas")
    )

    def to_window_buckets(batch: pa.Table) -> pa.Table:
        rk = batch.column("rk").to_numpy()
        ids = batch.column(id_col)
        wb = rk // window
        t = pa.table(
            {
                id_col: pa.concat_arrays(
                    [ids.combine_chunks()] * 2
                ) if isinstance(ids, pa.ChunkedArray) else pa.concat_arrays(
                    [ids] * 2
                ),
                # each row visits its native rank-bucket AND the
                # PREVIOUS one, so a pair's lower member is always
                # native in some bucket that also holds the higher
                # member (whose floor is at most one bucket ahead)
                "rk": pa.array(np.concatenate([rk, rk]), pa.int64()),
                "wb": pa.array(np.concatenate([wb, wb - 1]), pa.int64()),
            }
        )
        return t

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # g holds MANY wb keys (bucketed_group_apply contract: fn
        # sub-groups). Sort by (wb, rk); a wb segment has <= 2*window
        # rows (natives + visitors from wb+1), so every qualifying pair
        # is a same-segment pair at sorted-offset d in [1, 2*window).
        # Loop over d (bounded by the WINDOW, not the data), vectorized
        # across all segments at each d.
        g = g.sort_values(["wb", "rk"], kind="mergesort")
        rk = g["rk"].to_numpy(np.int64)
        wb = g["wb"].to_numpy(np.int64)
        ids = g[id_col].to_numpy()
        out_a, out_b, out_gap = [], [], []
        for d in range(1, 2 * window):
            if d >= len(rk):
                break
            ra, rb = rk[:-d], rk[d:]
            gap = rb - ra
            keep = (
                (wb[:-d] == wb[d:])
                & (gap > 0)
                & (gap <= window)
                # emit once: only where the LOWER member is native
                & ((ra // window) == wb[:-d])
            )
            out_a.append(ids[:-d][keep])
            out_b.append(ids[d:][keep])
            out_gap.append(gap[keep])
        if not out_a:
            return pd.DataFrame(
                {"doc_a": pd.Series([], dtype=ids.dtype),
                 "doc_b": pd.Series([], dtype=ids.dtype),
                 "rank_gap": pd.Series([], dtype=np.int64)}
            )
        return pd.DataFrame(
            {
                "doc_a": np.concatenate(out_a),
                "doc_b": np.concatenate(out_b),
                "rank_gap": np.concatenate(out_gap),
            }
        )

    return bucketed_group_apply(
        ranked.map_batches(to_window_buckets, batch_format="pyarrow"),
        "wb",
        pairs_in_bucket,
        n_buckets=shuffle_blocks(),
    )


def jaro_winkler_bytes_block(A: list[bytes], B: list[bytes]) -> np.ndarray:
    """Jaro–Winkler similarity for n ``(A[i], B[i])`` byte-string pairs
    at once, vectorized across the PAIR axis, matching DuckDB's
    ``jaro_winkler_similarity`` bit-for-bit (rapidfuzz semantics,
    empirically pinned in tests/test_round5_batch18.py):

    - BYTES of the UTF-8 encoding (``jaro('café','cafe')`` treats the
      é as two non-matching bytes);
    - match window w = max(⌊max(la,lb)/2⌋ − 1, 0), greedy first-unmatched
      assignment left-to-right;
    - transpositions t = ⌊mismatched-positions / 2⌋ (floor, NOT the
      Winkler half — pinned: jaro('ABCDVWXYZ','BCADVWXYZ') = 0.962963);
    - jaro = (m/la + m/lb + (m−t)/m) / 3 evaluated left-to-right;
    - Winkler boost ONLY when jaro > 0.7: jw = jaro + (l·0.1)·(1−jaro)
      with l = common prefix capped at 4; either side empty → 0.

    The per-position loop is over the SHORT axis (max key length);
    every O(len_a × len_b × pairs) cell stays in numpy — the
    levenshtein_bytes_block execution contract."""
    n = len(A)
    if n == 0:
        return np.zeros(0)
    la = np.fromiter((len(a) for a in A), np.int64, n)
    lb = np.fromiter((len(b) for b in B), np.int64, n)
    maxa = int(la.max())
    maxb = int(lb.max())
    if maxa == 0 or maxb == 0:
        return np.zeros(n)
    MA = np.full((n, maxa), -1, np.int16)
    MB = np.full((n, maxb), -2, np.int16)  # distinct pads never match
    for i, a in enumerate(A):
        if a:
            MA[i, : len(a)] = np.frombuffer(a, np.uint8)
    for i, b in enumerate(B):
        if b:
            MB[i, : len(b)] = np.frombuffer(b, np.uint8)
    w = np.maximum(np.maximum(la, lb) // 2 - 1, 0)
    amatch = np.zeros((n, maxa), bool)
    bmatch = np.zeros((n, maxb), bool)
    jj = np.arange(maxb)[None, :]
    for i in range(maxa):
        cand = (
            (MB == MA[:, i : i + 1])
            & ~bmatch
            & (jj >= (i - w)[:, None])
            & (jj <= (i + w)[:, None])
            & (jj < lb[:, None])
        )
        hit = cand.any(axis=1)
        first = cand.argmax(axis=1)
        bmatch[hit, first[hit]] = True
        amatch[:, i] = hit
    m = amatch.sum(axis=1).astype(np.int64)
    maxm = max(int(m.max()), 1)
    SA = np.full((n, maxm), -1, np.int16)
    SB = np.full((n, maxm), -2, np.int16)
    ra = np.cumsum(amatch, axis=1) - 1
    rows, cols = np.nonzero(amatch)
    SA[rows, ra[rows, cols]] = MA[rows, cols]
    rb = np.cumsum(bmatch, axis=1) - 1
    rows, cols = np.nonzero(bmatch)
    SB[rows, rb[rows, cols]] = MB[rows, cols]
    kk = np.arange(maxm)[None, :]
    diffs = ((SA != SB) & (kk < m[:, None])).sum(axis=1)
    t = diffs // 2
    mf = m.astype(np.float64)
    sim = mf / np.maximum(la, 1)
    sim = sim + mf / np.maximum(lb, 1)
    sim = sim + (mf - t) / np.maximum(mf, 1)
    sim = sim / 3.0
    sim = np.where(m > 0, sim, 0.0)
    minl = np.minimum(np.minimum(la, lb), 4)
    pl = np.zeros(n, np.int64)
    alive = np.ones(n, bool)
    for i in range(min(4, maxa, maxb)):
        eq = alive & (i < minl) & (MA[:, i] == MB[:, i])
        pl += eq
        alive &= eq
    return np.where(
        sim > 0.7, sim + (pl.astype(np.float64) * 0.1) * (1.0 - sim), sim
    )


def jw_blocked_pairs(
    ds: rd.Dataset,
    threshold: float = 0.9,
    key_chars: int = 32,
    block_chars: int = 4,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_block_pairs: int = 5_000_000,
) -> rd.Dataset:
    """Jaro–Winkler candidate scoring under equality blocking: pairs of
    docs whose normalized keys (lowercased, non-[a-z0-9] stripped,
    first ``key_chars`` chars) share their first ``block_chars`` chars,
    scored with :func:`jaro_winkler_bytes_block` and kept at
    ``jw >= threshold`` — the name-matching workhorse of record linkage
    (Winkler's census dedup), complementing the edit-distance verifier:
    JW rewards shared prefixes, exactly what titles/headers duplicate.

    Distributed shape: blocking keys are computed per batch (polars,
    mirrors the SQL normalization), blocks co-locate via
    ``bucketed_group_apply`` (all rows of one block in one bucket;
    sub-grouped inside), pairs materialize block-locally with
    ``np.triu_indices`` over the ``id_col``-sorted rows (so doc_a <
    doc_b and the SQL self-join ``a.id < b.id`` is the exact oracle),
    and the kernel scores the whole bucket's pairs in one vectorized
    call. A bucket whose blocks imply more than ``max_block_pairs``
    raises loudly (hot prefixes at corpus scale → raise ``block_chars``,
    the SNM skew remedy). Output: (doc_a, doc_b, jw) at 6dp."""
    import polars as pl

    from . import round_half_away_np
    from .dedup import shuffle_blocks

    def add_key(batch: pa.Table) -> pa.Table:
        d = pl.from_arrow(batch.select([id_col, text_col]))
        d = d.with_columns(
            pl.col(text_col)
            .str.to_lowercase()
            .str.replace_all(r"[^a-z0-9]", "")
            .str.slice(0, key_chars)
            .alias("__sk")
        ).drop(text_col)
        return d.with_columns(
            pl.col("__sk").str.slice(0, block_chars).alias("__blk")
        ).to_arrow()

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col], kind="mergesort")
        blk = g["__blk"].to_numpy()
        order = np.argsort(blk, kind="stable")  # group by block, id-stable
        blk = blk[order]
        ids = g[id_col].to_numpy()[order]
        sks = g["__sk"].to_numpy()[order]
        # contiguous block segments
        new = np.empty(len(g), bool)
        new[0] = True
        new[1:] = blk[1:] != blk[:-1]
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, len(g)))
        n_pairs = int((counts * (counts - 1) // 2).sum())
        if n_pairs > max_block_pairs:
            raise ValueError(
                f"jw_blocked_pairs: {n_pairs} candidate pairs in one "
                "bucket — hot blocking prefix; raise block_chars or "
                "max_block_pairs deliberately"
            )
        ii_all, jj_all = [], []
        for s, c in zip(starts, counts):
            if c < 2:
                continue
            ii, jj = np.triu_indices(int(c), k=1)
            ii_all.append(ii + s)
            jj_all.append(jj + s)
        if not ii_all:
            return pd.DataFrame(
                {"doc_a": pd.Series([], dtype=ids.dtype),
                 "doc_b": pd.Series([], dtype=ids.dtype),
                 "jw": pd.Series([], dtype=np.float64)}
            )
        ii = np.concatenate(ii_all)
        jj = np.concatenate(jj_all)
        enc = np.char.encode(sks.astype(str), "utf-8")
        jw = jaro_winkler_bytes_block(
            [bytes(x) for x in enc[ii]], [bytes(x) for x in enc[jj]]
        )
        keep = jw >= threshold
        return pd.DataFrame(
            {
                "doc_a": ids[ii[keep]],
                "doc_b": ids[jj[keep]],
                "jw": round_half_away_np(jw[keep], 6),
            }
        )

    keyed = ds.select_columns([id_col, text_col]).map_batches(
        add_key, batch_format="pyarrow"
    )
    return bucketed_group_apply(
        keyed, "__blk", pairs_in_bucket, n_buckets=shuffle_blocks()
    )


def token_jaccard_join(
    ds: rd.Dataset,
    tau: float = 0.9,
    group_col: str = "source",
    id_col: str = "doc_id",
    text_col: str = "text",
    token_re: str = "[a-z0-9]+",
    max_candidates_per_group: int = 5_000_000,
) -> rd.Dataset:
    """EXACT set-similarity self-join (Jaccard over distinct token
    sets >= tau) within ``group_col`` blocks — the verification-grade
    companion to MinHash: LSH finds probable near-dups, this finds ALL
    pairs above the threshold, exactly, via PPJoin-style prefix
    filtering (Xiao et al. 2008 / Chaudhuri et al. 2006).

    Filter correctness (the reason no qualifying pair is missed): order
    each group's vocabulary by (doc-frequency, token-id) and keep each
    doc's first L = |d| − ⌈tau·|d|⌉ + 1 tokens as its PREFIX. If
    J(A,B) >= tau then |A∩B| >= ⌈tau·|A|⌉; were A's prefix disjoint
    from B, every intersecting token would sit in A's suffix of size
    ⌈tau·|A|⌉ − 1 — contradiction, so every qualifying pair collides in
    the prefix inverted index (plus the standard length filter
    |A| >= tau·|B|). Candidates are then verified with TRUE sorted-id
    intersection — integer counts, so jaccard = i/(|A|+|B|−i) is one
    mirrored float division and the SQL token-join oracle value-hash
    matches exactly.

    Distributed shape: tokenization is a streamed vectorized pass
    (polars extract_all + list.unique); groups co-locate via
    ``bucketed_group_apply`` (one group's docs fit a worker — the
    repo-wide bucketed contract); vocabulary ids come from np.unique
    INSIDE the group (no hashing, no collision risk). The loud
    ``max_candidates_per_group`` guard flags degenerate blocking; at
    100 TB the group key must be a real partitioner (crawl host,
    shard) and the hottest group bounds the worker.

    Output: (group, doc_a, doc_b, n_inter, n_union, jaccard) with
    doc_a < doc_b, jaccard 6dp."""
    import polars as pl

    from . import round_half_away_np
    from .dedup import shuffle_blocks

    def tokenize(batch: pa.Table) -> pa.Table:
        d = pl.from_arrow(batch.select([group_col, id_col, text_col]))
        return (
            d.with_columns(
                pl.col(text_col)
                .str.to_lowercase()
                .str.extract_all(token_re)
                .list.unique()
                .alias("__toks")
            )
            .drop(text_col)
            .to_arrow()
        )

    def join_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out_g, out_a, out_b, out_i, out_u = [], [], [], [], []
        for gk, sub in g.groupby(group_col, sort=False):
            sub = sub.sort_values(id_col, kind="mergesort")
            ids = sub[id_col].to_numpy()
            tok_lists = [
                np.asarray(t, dtype=object) for t in sub["__toks"]
            ]
            all_tok = (
                np.concatenate(tok_lists)
                if tok_lists
                else np.array([], dtype=object)
            )
            vocab, inv = np.unique(all_tok, return_inverse=True)
            freq = np.bincount(inv, minlength=len(vocab))
            # global-order rank: rare tokens first (max pruning), id
            # tie-break; order is engine-internal (any fixed order is
            # correct), so no cross-group coordination is needed
            order = np.lexsort((np.arange(len(vocab)), freq))
            rank_of = np.empty(len(vocab), np.int64)
            rank_of[order] = np.arange(len(vocab))
            # per-doc sorted-rank arrays
            doc_ranks = []
            pos = 0
            for t in tok_lists:
                r = np.sort(rank_of[inv[pos : pos + len(t)]])
                pos += len(t)
                doc_ranks.append(r)
            sizes = np.array([len(r) for r in doc_ranks], np.int64)
            # prefix inverted index
            index: dict = {}
            for i, r in enumerate(doc_ranks):
                # conservative ceil (an ulp-overshot ceil would SHORTEN
                # the prefix and could miss a qualifying pair; a longer
                # prefix only adds candidates)
                L = len(r) - int(np.ceil(tau * len(r) - 1e-9)) + 1
                for tk in r[: max(L, 0)]:
                    index.setdefault(int(tk), []).append(i)
            cand = set()
            n_cand = 0
            for lst in index.values():
                for ai in range(len(lst)):
                    for bi in range(ai + 1, len(lst)):
                        n_cand += 1
                        if n_cand > max_candidates_per_group:
                            raise ValueError(
                                "token_jaccard_join: candidate pairs "
                                f"exceed {max_candidates_per_group} in "
                                f"group {gk!r} — degenerate blocking; "
                                "tighten group_col or raise the guard "
                                "deliberately"
                            )
                        a, b = lst[ai], lst[bi]
                        # length filter, epsilon-relaxed (never prune
                        # a boundary pair the oracle keeps)
                        if (
                            sizes[a] >= tau * sizes[b] - 1e-9
                            and sizes[b] >= tau * sizes[a] - 1e-9
                        ):
                            cand.add((a, b))
            for a, b in cand:
                ra, rb = doc_ranks[a], doc_ranks[b]
                i = len(np.intersect1d(ra, rb, assume_unique=True))
                u = int(sizes[a] + sizes[b] - i)
                # the keep test mirrors the SQL division literally
                if u > 0 and float(i) / float(u) >= tau:
                    out_g.append(gk)
                    out_a.append(ids[a])
                    out_b.append(ids[b])
                    out_i.append(i)
                    out_u.append(u)
        jac = np.array(out_i, np.float64) / np.maximum(
            np.array(out_u, np.float64), 1.0
        )
        return pd.DataFrame(
            {
                group_col: out_g,
                "doc_a": out_a,
                "doc_b": out_b,
                "n_inter": np.array(out_i, np.int64),
                "n_union": np.array(out_u, np.int64),
                "jaccard": round_half_away_np(jac, 6),
            }
        )

    return bucketed_group_apply(
        ds.select_columns([group_col, id_col, text_col]).map_batches(
            tokenize, batch_format="pyarrow"
        ),
        group_col,
        join_in_bucket,
        n_buckets=shuffle_blocks(),
    )


def token_containment_join(
    ds: rd.Dataset,
    tau: float = 0.8,
    group_col: str = "source",
    id_col: str = "doc_id",
    text_col: str = "text",
    token_re: str = "[a-z0-9]+",
    max_candidates_per_group: int = 5_000_000,
) -> rd.Dataset:
    """EXACT directed set-CONTAINMENT self-join: all ordered pairs
    (A, B) within a ``group_col`` block where |A ∩ B| / |A| >= tau over
    distinct token sets — the "is document A essentially a subset of
    B?" test that Jaccard misses (a paragraph quoted inside a long
    article has high containment but low Jaccard), the
    boilerplate/quotation/template detector.

    Filter correctness: if C(A→B) >= tau then |A∩B| >= ceil(tau·|A|),
    so A's PREFIX of its L = |A| − ceil(tau·|A|) + 1 rarest tokens
    (doc-frequency order) must intersect B — were it disjoint, the
    whole intersection would fit in A's suffix of size
    ceil(tau·|A|) − 1, a contradiction. Unlike the symmetric Jaccard
    join there is NO length filter on B (B may be arbitrarily larger),
    so the inverted index posts EVERY token of every doc and only the
    probe side is prefix-trimmed; prefixes are rarest-first, keeping
    posting lists short. Candidates verify with true sorted-id
    intersection; the keep test mirrors the SQL float division
    literally, so the oracle value-hash matches exactly.

    Distributed shape: streamed vectorized tokenization, then one
    ``bucketed_group_apply`` co-locating each group (the repo-wide
    bucketed contract: one group's docs fit a worker; at 100 TB the
    group key must be a real partitioner — crawl host, shard). The
    loud ``max_candidates_per_group`` guard flags degenerate blocking.

    Output: (group, doc_a, doc_b, n_inter, size_a, containment) with
    doc_a the CONTAINED side (ordered pairs, both directions may
    appear), containment 6dp."""
    import polars as pl

    from .dedup import shuffle_blocks

    def tokenize(batch: pa.Table) -> pa.Table:
        d = pl.from_arrow(batch.select([group_col, id_col, text_col]))
        return (
            d.with_columns(
                pl.col(text_col)
                .str.to_lowercase()
                .str.extract_all(token_re)
                .list.unique()
                .alias("__toks")
            )
            .drop(text_col)
            .to_arrow()
        )

    def join_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out_g, out_a, out_b, out_i, out_sa = [], [], [], [], []
        for gk, sub in g.groupby(group_col, sort=False):
            sub = sub.sort_values(id_col, kind="mergesort")
            ids = sub[id_col].to_numpy()
            tok_lists = [
                np.asarray(t, dtype=object) for t in sub["__toks"]
            ]
            all_tok = (
                np.concatenate(tok_lists)
                if tok_lists
                else np.array([], dtype=object)
            )
            vocab, inv = np.unique(all_tok, return_inverse=True)
            freq = np.bincount(inv, minlength=len(vocab))
            order = np.lexsort((np.arange(len(vocab)), freq))
            rank_of = np.empty(len(vocab), np.int64)
            rank_of[order] = np.arange(len(vocab))
            doc_ranks = []
            pos = 0
            for t in tok_lists:
                r = np.sort(rank_of[inv[pos : pos + len(t)]])
                pos += len(t)
                doc_ranks.append(r)
            # full inverted index (every token of every doc: the
            # probed side has no prefix bound in a containment join)
            index: dict = {}
            for i, r in enumerate(doc_ranks):
                for tk in r:
                    index.setdefault(int(tk), []).append(i)
            n_cand = 0
            for a, ra in enumerate(doc_ranks):
                if len(ra) == 0:
                    continue
                # conservative ceil (an overshot ceil would shorten the
                # prefix and could miss a qualifying pair)
                L = len(ra) - int(np.ceil(tau * len(ra) - 1e-9)) + 1
                cand = set()
                for tk in ra[: max(L, 0)]:
                    for b in index.get(int(tk), ()):
                        if b != a:
                            cand.add(b)
                n_cand += len(cand)
                if n_cand > max_candidates_per_group:
                    raise ValueError(
                        "token_containment_join: candidate pairs exceed "
                        f"{max_candidates_per_group} in group {gk!r} — "
                        "degenerate blocking; tighten group_col or "
                        "raise the guard deliberately"
                    )
                for b in cand:
                    i = len(
                        np.intersect1d(ra, doc_ranks[b], assume_unique=True)
                    )
                    # mirror the SQL division literally
                    if float(i) / float(len(ra)) >= tau:
                        out_g.append(gk)
                        out_a.append(ids[a])
                        out_b.append(ids[b])
                        out_i.append(i)
                        out_sa.append(len(ra))
        cont = np.array(out_i, np.float64) / np.maximum(
            np.array(out_sa, np.float64), 1.0
        )
        return pd.DataFrame(
            {
                group_col: out_g,
                "doc_a": out_a,
                "doc_b": out_b,
                "n_inter": np.array(out_i, np.int64),
                "size_a": np.array(out_sa, np.int64),
                "containment": round_half_away_np(cont, 6),
            }
        )

    return bucketed_group_apply(
        ds.select_columns([group_col, id_col, text_col]).map_batches(
            tokenize, batch_format="pyarrow"
        ),
        group_col,
        join_in_bucket,
        n_buckets=shuffle_blocks(),
    )


def dup_degree_histogram(
    ds: rd.Dataset,
    tau: float = 0.8,
    group_col: str = "source",
    id_col: str = "doc_id",
    text_col: str = "text",
    max_degree_rows: int = 1_000_000,
) -> pa.Table:
    """Near-duplicate GRAPH degree distribution: for every document,
    the number of within-group partners with token-Jaccard >= ``tau``
    (via the exact :func:`token_jaccard_join`), histogrammed as
    (degree, n_docs) INCLUDING the zero-degree mass — the shape check
    that separates "a few giant template clusters" (heavy tail: dedup
    will collapse whole sources) from "scattered pairwise near-dups"
    (degree ≤ 2: dedup is cheap), before committing to a keep policy.

    Exactness: degrees are exact integers (each qualifying unordered
    pair contributes one to both endpoints); the zero-degree row is
    total-docs minus docs-with-partners — all integer, oracle-exact.

    Scale shape: rides the join's bucketed contract; pair endpoints
    pre-count per batch and merge on the driver under a loud
    ``max_degree_rows`` guard (a degree table larger than that means
    the join itself was the problem)."""
    import numpy as np

    total = ds.count()
    pairs = token_jaccard_join(
        ds, tau=tau, group_col=group_col, id_col=id_col,
        text_col=text_col,
    )

    def endpoints(batch: pa.Table) -> pa.Table:
        import pandas as pd

        d = pd.concat(
            [
                batch.select(["doc_a"]).to_pandas().rename(
                    columns={"doc_a": "d"}
                ),
                batch.select(["doc_b"]).to_pandas().rename(
                    columns={"doc_b": "d"}
                ),
            ],
            ignore_index=True,
        )
        return pa.Table.from_pandas(
            d.groupby("d", as_index=False).size(), preserve_index=False
        )

    rows = pairs.map_batches(endpoints, batch_format="pyarrow").take(
        max_degree_rows + 1
    )
    if len(rows) > max_degree_rows:
        raise ValueError(
            f"dup_degree_histogram: > {max_degree_rows} endpoint "
            "partials — the pair set is degenerate; raise tau"
        )
    import pandas as pd

    if rows:
        deg = (
            pd.DataFrame(rows)
            .groupby("d", as_index=False)
            .agg(degree=("size", "sum"))
        )
        hist = deg.groupby("degree", as_index=False).size()
        n_with = int(deg["d"].nunique())
    else:
        hist = pd.DataFrame({"degree": [], "size": []})
        n_with = 0
    degrees = [0] + [int(x) for x in hist["degree"]]
    counts = [total - n_with] + [int(x) for x in hist["size"]]
    keep = [(d, c) for d, c in zip(degrees, counts) if c > 0]
    keep.sort()
    return pa.Table.from_pydict(
        {
            "degree": pa.array([d for d, _ in keep], pa.int64()),
            "n_docs": pa.array([c for _, c in keep], pa.int64()),
        }
    )
