"""Similarity search over an embedding column (list<float>).

- brute-force cosine top-k: numpy matmul per batch against a broadcast
  query matrix + per-batch partial top-k, tiny global reduce (the exact
  baseline);
- LSH-bucketed variant (random signed hyperplanes): the scale path —
  candidates come only from the query's bucket and Hamming-1 neighbours.
Embedding near-duplicate pairs (cosine >= tau) use the same LSH blocking.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..rng import mix64


def _emb_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    arr = batch.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if len(arr) == 0:
        # reshape(0, -1) raises on a size-0 array; dim is unknowable here
        return np.zeros((0, 0), dtype=np.float64)
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(len(arr), -1)


def _cosine(mat: np.ndarray, q: np.ndarray) -> np.ndarray:
    qn = q / max(np.linalg.norm(q), 1e-30)
    norms = np.linalg.norm(mat, axis=1)
    return (mat @ qn) / np.maximum(norms, 1e-30)


def topk_cosine(ds: rd.Dataset, query: list[float], k: int = 10) -> rd.Dataset:
    """Exact top-k by cosine similarity to ``query``.

    Per-batch partial top-k (vectorized) -> global sort+limit over ~k rows
    per batch — the full table is never collected or shuffled."""
    import ray

    q_ref = ray.put(np.asarray(query, dtype=np.float64))

    def partial(batch: pa.Table) -> pa.Table:
        q = ray.get(q_ref)
        sims = _cosine(_emb_matrix(batch), q)
        take = min(k, len(sims))
        idx = np.argpartition(-sims, take - 1)[:take] if take else np.array([], int)
        return pa.Table.from_pydict(
            {
                "vec_id": batch.column("vec_id").take(pa.array(idx)),
                "cos_sim": pa.array(np.round(sims[idx], 6)),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    # tie-break on vec_id so a cos_sim tie at the rank-k boundary picks the
    # same rows as the oracle's ORDER BY cos_sim DESC, vec_id
    return partials.sort(["cos_sim", "vec_id"], descending=[True, False]).limit(k)


def hybrid_rrf(
    docs_ds: rd.Dataset,
    emb_ds: rd.Dataset,
    query_terms: list[str],
    query_vec: list[float],
    k: int = 10,
    pool: int = 50,
    rrf_k: int = 60,
    id_col: str = "doc_id",
) -> pa.Table:
    """Hybrid retrieval via reciprocal-rank fusion (Cormack et al. 2009 —
    public knowledge; the standard BM25 + dense-retrieval combiner):
    fetch the top ``pool`` docs by BM25 keyword score and the top
    ``pool`` by embedding cosine, rank each list by (rounded score DESC,
    id ASC), and fuse with ``rrf = sum over lists of 1/(rrf_k + rank)``.
    Absent-from-a-list contributes nothing (rank reported as 0). Returns
    the top ``k`` (id, rrf_score, bm25_rank, cos_rank).

    Scale shape: both component retrievals are the library's streamed
    per-batch partial-top-k operators — the corpus is never collected;
    only the two <= ``pool``-row ranked lists reach the driver for the
    closed-form fusion. The rrf terms are sums of <= 2 exact doubles, so
    the 6dp-rounded fusion score is engine-independent by construction."""
    from .textstats import bm25_topk

    bm = bm25_topk(docs_ds, query_terms, k=pool, id_col=id_col)
    bm_rows = bm.sort(["score", id_col], descending=[True, False]).take_all()
    cos = topk_cosine(emb_ds, query_vec, k=pool)
    cos_rows = cos.sort(
        ["cos_sim", "vec_id"], descending=[True, False]
    ).take_all()

    fused: dict[int, list[int]] = {}
    for r, row in enumerate(bm_rows, 1):
        fused.setdefault(int(row[id_col]), [0, 0])[0] = r
    for r, row in enumerate(cos_rows, 1):
        fused.setdefault(int(row["vec_id"]), [0, 0])[1] = r
    out = []
    for i, (br, cr) in fused.items():
        s = (1.0 / (rrf_k + br) if br else 0.0) + (
            1.0 / (rrf_k + cr) if cr else 0.0
        )
        out.append((i, float(np.floor(s * 1e6 + 0.5) / 1e6), br, cr))
    out.sort(key=lambda t: (-t[1], t[0]))
    out = out[:k]
    return pa.table(
        {
            id_col: pa.array([t[0] for t in out], pa.int64()),
            "rrf_score": pa.array([t[1] for t in out], pa.float64()),
            "bm25_rank": pa.array([t[2] for t in out], pa.int64()),
            "cos_rank": pa.array([t[3] for t in out], pa.int64()),
        }
    )


N_PLANES = 12


def _planes(dim: int, n_planes: int = N_PLANES) -> np.ndarray:
    """Deterministic pseudo-random hyperplanes (splitmix64 -> uniform)."""
    vals = np.array(
        [mix64(i) / float(1 << 64) - 0.5 for i in range(dim * n_planes)]
    )
    return vals.reshape(n_planes, dim)


def lsh_bucket_ids(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (mat @ planes.T) > 0
    out = np.zeros(mat.shape[0], dtype=np.int64)
    for b in range(planes.shape[0]):
        out |= bits[:, b].astype(np.int64) << b
    return out


def topk_cosine_lsh(
    ds: rd.Dataset, query: list[float], k: int = 10, n_planes: int = N_PLANES
) -> rd.Dataset:
    """Approximate top-k: only vectors whose LSH bucket is the query's
    bucket or differs by one bit are scored (multi-probe). Same output
    schema as topk_cosine; recall < 1 by design (scale path)."""
    import ray

    q = np.asarray(query, dtype=np.float64)
    planes = _planes(len(q), n_planes)
    qb = int(lsh_bucket_ids(q[None, :], planes)[0])
    probe = {qb} | {qb ^ (1 << b) for b in range(n_planes)}
    q_ref = ray.put(q)
    probe_ref = ray.put(probe)

    def partial(batch: pa.Table) -> pa.Table:
        qv = ray.get(q_ref)
        pr = ray.get(probe_ref)
        mat = _emb_matrix(batch)
        buckets = lsh_bucket_ids(mat, planes)
        mask = np.isin(buckets, list(pr))
        if not mask.any():
            return pa.Table.from_pydict(
                {"vec_id": pa.array([], pa.int64()), "cos_sim": pa.array([], pa.float64())}
            )
        sims = _cosine(mat[mask], qv)
        ids = batch.column("vec_id").to_numpy()[mask]
        take = min(k, len(sims))
        idx = np.argpartition(-sims, take - 1)[:take]
        return pa.Table.from_pydict(
            {"vec_id": pa.array(ids[idx]), "cos_sim": pa.array(np.round(sims[idx], 6))}
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.sort(["cos_sim", "vec_id"], descending=[True, False]).limit(k)


def _train_centroids(
    sample: np.ndarray, n_centroids: int, n_iters: int = 5
) -> np.ndarray:
    """Deterministic spherical k-means on a sample: init = first K sample
    rows (caller passes them vec_id-sorted), Lloyd iterations with
    normalized means; an emptied cluster keeps its previous centroid."""
    nm = sample / np.maximum(np.linalg.norm(sample, axis=1), 1e-30)[:, None]
    cent = nm[:n_centroids].copy()
    for _ in range(n_iters):
        assign = np.argmax(nm @ cent.T, axis=1)
        for c in range(len(cent)):
            members = nm[assign == c]
            if len(members):
                m = members.mean(axis=0)
                cent[c] = m / max(np.linalg.norm(m), 1e-30)
    return cent


def topk_cosine_ivf(
    ds: rd.Dataset,
    query: list[float],
    k: int = 10,
    n_centroids: int = 16,
    n_probe: int = 4,
    sample_mod: int = 4,
    sample_cap_per_centroid: int = 64,
) -> rd.Dataset:
    """IVF-style approximate top-k: vectors partition into inverted lists
    by nearest spherical-k-means centroid; only the query's ``n_probe``
    nearest lists are scored. Centroid training collects a BOUNDED sample
    (at most ``sample_cap_per_centroid * n_centroids`` rows): each batch
    keeps its candidates with the smallest mix64(vec_id), a tiny
    sort+limit picks the global smallest — deterministic and
    partitioning-invariant (every global winner survives its own batch's
    cut), and the driver never holds more than the cap regardless of
    corpus size. Assignment + scoring are one vectorized map_batches over
    the corpus; recall < 1 by design (scale path next to ``topk_cosine``'s
    exact baseline)."""
    import ray

    from ..rng import mix64_np

    cap = sample_cap_per_centroid * n_centroids

    def pick_sample(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy()
        sub = batch.filter(pa.array(ids % sample_mod == 0))
        sk = mix64_np(sub.column("vec_id").to_numpy().astype(np.uint64))
        if sub.num_rows > cap:
            keep = np.argpartition(sk, cap - 1)[:cap]
            sub, sk = sub.take(pa.array(keep)), sk[keep]
        return sub.append_column("__sk", pa.array(sk, pa.uint64()))

    sample_rows = sorted(
        ds.select_columns(["vec_id", "embedding"])
        .map_batches(pick_sample, batch_format="pyarrow")
        .sort("__sk")
        .limit(cap)
        .take_all(),
        key=lambda r: r["vec_id"],
    )
    sample = np.array([r["embedding"] for r in sample_rows], dtype=np.float64)
    cent = _train_centroids(sample, min(n_centroids, len(sample)))
    q = np.asarray(query, dtype=np.float64)
    qn = q / max(np.linalg.norm(q), 1e-30)
    probe = np.argsort(-(cent @ qn))[:n_probe]
    cent_ref = ray.put(cent)
    probe_ref = ray.put(set(int(p) for p in probe))

    def partial(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        pr = ray.get(probe_ref)
        mat = _emb_matrix(batch)
        nm = mat / np.maximum(np.linalg.norm(mat, axis=1), 1e-30)[:, None]
        assign = np.argmax(nm @ c.T, axis=1)
        mask = np.isin(assign, list(pr))
        if not mask.any():
            return pa.Table.from_pydict(
                {"vec_id": pa.array([], pa.int64()),
                 "cos_sim": pa.array([], pa.float64())}
            )
        sims = nm[mask] @ qn  # cosine vs normalized query
        ids = batch.column("vec_id").to_numpy()[mask]
        take = min(k, len(sims))
        idx = np.argpartition(-sims, take - 1)[:take]
        return pa.Table.from_pydict(
            {"vec_id": pa.array(ids[idx]),
             "cos_sim": pa.array(np.round(sims[idx], 6))}
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.sort(["cos_sim", "vec_id"], descending=[True, False]).limit(k)


def label_centroids(ds: rd.Dataset) -> rd.Dataset:
    """Per-label embedding centroid (class prototype) summary: (label,
    n_vecs, centroid_norm) where centroid = elementwise mean of the
    label's vectors. Mergeable partial aggregation: each batch emits one
    (sum-vector, count) per label — the shuffle moves one d-dim float64
    vector per label per batch, never the embeddings. The standard
    class-prototype / centroid-init computation for a training corpus."""

    def partial(batch: pa.Table) -> pa.Table:
        mat = _emb_matrix(batch)
        labels = batch.column("label").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), mat.shape[1] if mat.size else 0))
        np.add.at(sums, inv, mat)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "label": pa.array(uniq),
                "n": pa.array(counts),
                "vec_sum": pa.array([s.tobytes() for s in sums], pa.binary()),
            }
        )

    partials = ds.select_columns(["label", "embedding"]).map_batches(
        partial, batch_format="pyarrow"
    )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        total = None
        for b in g["vec_sum"]:
            v = np.frombuffer(b, dtype=np.float64)
            total = v.copy() if total is None else total + v
        n = int(g["n"].sum())
        mean = total / n
        return pd.DataFrame(
            {
                "label": [int(g["label"].iloc[0])],
                "n_vecs": [n],
                "centroid_norm": [round(float(np.sqrt((mean * mean).sum())), 6)],
            }
        )

    return partials.groupby("label").map_groups(merge, batch_format="pandas")


def centroid_distances(ds: rd.Dataset, max_labels: int = 100_000) -> rd.Dataset:
    """Per-vector euclidean distance to its LABEL centroid — the
    class-prototype outlier signal of embedding quality filtering
    (far-from-centroid vectors are mislabel/noise candidates; the same
    prototype math as :func:`label_centroids`). Returns (vec_id, label,
    dist) with dist rounded 6dp half-away.

    Two streamed passes, no vector shuffle: (1) per-batch (sum-vector,
    count) partials merge to per-label MEAN vectors — one d-dim float64
    per label, collected once under the loud ``max_labels`` guard and
    broadcast via ``ray.put``; (2) one vectorized map_batches computing
    sqrt(sum((v - centroid[label])^2)) per row with a searchsorted
    gather, no per-row Python."""
    import ray

    from . import resolve_broadcast

    def partial(batch: pa.Table) -> pa.Table:
        mat = _emb_matrix(batch)
        labels = batch.column("label").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), mat.shape[1] if mat.size else 0))
        np.add.at(sums, inv, mat)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "label": pa.array(uniq),
                "n": pa.array(counts),
                "vec_sum": pa.array([s.tobytes() for s in sums], pa.binary()),
            }
        )

    partials = ds.select_columns(["label", "embedding"]).map_batches(
        partial, batch_format="pyarrow"
    )

    rows = partials.groupby("label").map_groups(
        _merge_centroid, batch_format="pandas"
    ).take(max_labels + 1)
    if len(rows) > max_labels:
        raise ValueError(
            f"centroid_distances: > {max_labels} labels — the centroid "
            "table no longer fits the broadcast contract; raise "
            "max_labels deliberately"
        )
    keys = np.array(sorted(int(r["label"]) for r in rows), dtype=np.int64)
    means = {int(r["label"]): np.frombuffer(r["mean"], np.float64)
             for r in rows}
    M = np.stack([means[int(k)] for k in keys]) if len(keys) else np.zeros(
        (0, 0)
    )
    ref = ray.put((keys, M))

    def dist_batch(batch: pa.Table) -> pa.Table:
        k, m = resolve_broadcast(ref)
        mat = _emb_matrix(batch).astype(np.float64)
        labels = batch.column("label").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        idx = np.searchsorted(k, labels)
        diff = mat - m[idx]
        d = np.sqrt((diff * diff).sum(axis=1))
        d = np.floor(d * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "label": pa.array(labels, pa.int64()),
                "dist": pa.array(d, pa.float64()),
            }
        )

    return ds.select_columns(["vec_id", "label", "embedding"]).map_batches(
        dist_batch, batch_format="pyarrow"
    )


def augment_with_planted(ds: rd.Dataset, id_offset: int = 100000) -> rd.Dataset:
    """Deterministic near-dup augmentation (driver embeddings have no
    natural near-dups — max off-diagonal cosine 0.51): for every even
    vec_id, add a copy with the first half of the vector doubled (cosine
    to its source lands in ~[0.94, 0.97], far above natural pairs). The
    same derivation is SQL-expressible (list_concat/list_transform), so
    the exact-dup operator gets a value-level DuckDB oracle."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy()
        mat = _emb_matrix(batch)
        sel = ids % 2 == 0
        half = mat.shape[1] // 2
        planted = mat[sel].copy()
        planted[:, :half] *= 2.0
        out_ids = np.concatenate([ids, ids[sel] + id_offset])
        out_mat = np.concatenate([mat, planted])
        return pa.Table.from_pydict(
            {
                "vec_id": pa.array(out_ids, pa.int64()),
                "embedding": pa.array(list(out_mat), pa.list_(pa.float64())),
            }
        )

    return ds.select_columns(["vec_id", "embedding"]).map_batches(
        fn, batch_format="pyarrow"
    )


def embedding_dup_pairs_exact(
    ds: rd.Dataset, tau: float = 0.8, max_rows: int = 200_000
) -> rd.Dataset:
    """EXACT near-duplicate vector pairs (cosine >= tau): blocked brute
    force — the normalized reference matrix is broadcast once via
    ``ray.put`` and every batch matmuls against it, emitting pairs with
    vec_id_a < vec_id_b. Quadratic compute distributed over batches; the
    reference side must fit one node's memory (same contract as the
    broadcast query matrix in ``topk_cosine``), ENFORCED by ``max_rows``:
    collection stops at max_rows + 1 and raises instead of OOMing the
    driver — a mis-aimed call at corpus scale degrades loudly. This is the
    exact baseline with full recall; ``embedding_dup_pairs`` (LSH
    blocking) is the scale path when guaranteed recall isn't required."""
    import ray

    # limit() bounds how much the driver ever materializes: on overflow we
    # see exactly max_rows + 1 rows and fail fast, never the full corpus
    ref = ds.select_columns(["vec_id", "embedding"]).limit(max_rows + 1).take_all()
    if len(ref) > max_rows:
        raise ValueError(
            f"embedding_dup_pairs_exact: input exceeds max_rows={max_rows} "
            "(the exact baseline broadcasts the whole table); use "
            "embedding_dup_pairs (LSH) for corpus-scale inputs or raise "
            "max_rows explicitly if the table fits one node"
        )
    ref.sort(key=lambda r: r["vec_id"])
    ref_ids = np.array([r["vec_id"] for r in ref], dtype=np.int64)
    ref_mat = np.array([r["embedding"] for r in ref], dtype=np.float64)
    ref_norm = ref_mat / np.maximum(
        np.linalg.norm(ref_mat, axis=1), 1e-30
    )[:, None]
    ref_ref = ray.put((ref_ids, ref_norm))

    def pairs(batch: pa.Table) -> pa.Table:
        rids, rnorm = ray.get(ref_ref)
        ids = batch.column("vec_id").to_numpy().astype(np.int64)
        mat = _emb_matrix(batch)
        nm = mat / np.maximum(np.linalg.norm(mat, axis=1), 1e-30)[:, None]
        sims = nm @ rnorm.T
        ii, jj = np.nonzero((sims >= tau) & (ids[:, None] < rids[None, :]))
        return pa.Table.from_pydict(
            {
                "vec_id_a": pa.array(ids[ii], pa.int64()),
                "vec_id_b": pa.array(rids[jj], pa.int64()),
                "cos_sim": pa.array(np.round(sims[ii, jj], 6), pa.float64()),
            }
        )

    return ds.map_batches(pairs, batch_format="pyarrow")


def embedding_dup_pairs(
    ds: rd.Dataset, tau: float = 0.95, n_planes: int = 8
) -> rd.Dataset:
    """Near-duplicate vector pairs (cosine >= tau) via LSH blocking:
    bucket-groupby on the hyperplane signature, pairwise verify within
    buckets (capped at 128 members), distinct pairs."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        mat = _emb_matrix(batch)
        planes = _planes(mat.shape[1] if mat.size else 1, n_planes)
        b = lsh_bucket_ids(mat, planes) if mat.size else np.array([], np.int64)
        return pa.Table.from_pydict(
            {
                "vec_id": batch.column("vec_id"),
                "bucket": pa.array(b),
                "embedding": batch.column("embedding"),
            }
        )

    bucketed = ds.map_batches(add_bucket, batch_format="pyarrow")

    from .dedup import distinct_pairs, pair_bucket, shuffle_blocks

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates("vec_id").sort_values("vec_id").head(128)
        ids = g["vec_id"].to_numpy(dtype=np.int64)
        mat = np.stack(g["embedding"].to_numpy()) if len(g) else np.zeros((0, 1))
        mat = mat.astype(np.float64)
        norms = np.maximum(np.linalg.norm(mat, axis=1), 1e-30)
        nm = mat / norms[:, None]
        sims = nm @ nm.T
        # upper-triangle threshold mask, fully vectorized (the minhash /
        # simhash coarse_pairs idiom — no per-pair Python loop)
        ii, jj = np.triu_indices(len(ids), k=1)
        keep = sims[ii, jj] >= tau
        ii, jj = ii[keep], jj[keep]
        df = pd.DataFrame(
            {
                "vec_id_a": ids[ii],
                "vec_id_b": ids[jj],
                "cos_sim": np.round(sims[ii, jj], 6),
            }
        )
        # pre-dedup + fused pair-bucket key (see minhash coarse_pairs)
        df["pb"] = pair_bucket(
            df["vec_id_a"].to_numpy(dtype=np.int64),
            df["vec_id_b"].to_numpy(dtype=np.int64),
        )
        df = df.sort_values(list(df.columns), kind="mergesort")
        return df.drop_duplicates(["vec_id_a", "vec_id_b"], keep="last")

    pairs = (
        bucketed.repartition(shuffle_blocks())
        .groupby("bucket")
        .map_groups(bucket_pairs, batch_format="pandas")
    )
    return distinct_pairs(pairs, ["vec_id_a", "vec_id_b"], pre_bucketed=True)


KMEANS_DRIVER_MERGE_MAX = 4096


def kmeans_clusters(
    ds: rd.Dataset,
    n_clusters: int = 8,
    n_iters: int = 5,
    id_col: str = "vec_id",
    include_embedding: bool = False,
    driver_merge_max: int = KMEANS_DRIVER_MERGE_MAX,
) -> rd.Dataset:
    """Distributed spherical k-means (Lloyd) over the embedding column —
    the semantic-clustering pass of a training-data pipeline (domain
    mixing, cluster-balanced sampling, near-dup triage).

    Fully distributed: initial centroids are the ``n_clusters`` vectors
    with the smallest ``mix64(id)`` (deterministic and
    partitioning-invariant — per-batch partial top-k, tiny global
    sort+limit, like the IVF sampler). Each Lloyd iteration is ONE
    vectorized ``map_batches`` pass: assign rows to the argmax-cosine
    centroid and emit per-(batch, cluster) partial sums — K rows of one
    d-dim float64 vector each, so the driver collects at most
    K x n_batches tiny rows per iteration, never embeddings. Partials are
    merged in a fixed order (cluster, batch-min id) so the result does
    not depend on task completion order; an emptied cluster keeps its
    centroid. When K > ``driver_merge_max`` the per-cluster merge itself
    runs distributed (``groupby("cluster").map_groups`` over the partial
    rows, identical per-cluster tag order -> bit-identical centroids) so
    the driver collects K merged rows instead of K x n_batches partials —
    the web-scale-K path. The final pass emits (id, cluster,
    cos_to_centroid) — iterative and not SQL-expressible, so the query
    pins a per-cluster summary golden instead of an oracle."""
    import ray

    from ..rng import mix64_np

    # Iterative algorithm: n_iters + 2 passes over the same two columns.
    # Materializing the PRUNED projection once (ids + vectors only, the
    # algorithm's working set — object-store resident, spillable) replaces
    # n_iters re-reads of the source; this is the standard Lloyd caching
    # tradeoff, not a mid-pipeline materialization of a transform result.
    emb = ds.select_columns([id_col, "embedding"]).materialize()

    def pick_init(batch: pa.Table) -> pa.Table:
        sk = mix64_np(batch.column(id_col).to_numpy().astype(np.uint64))
        if batch.num_rows > n_clusters:
            keep = np.argpartition(sk, n_clusters - 1)[:n_clusters]
            batch, sk = batch.take(pa.array(keep)), sk[keep]
        return batch.append_column("__sk", pa.array(sk, pa.uint64()))

    init_rows = sorted(
        emb.map_batches(pick_init, batch_format="pyarrow")
        .sort("__sk")
        .limit(n_clusters)
        .take_all(),
        key=lambda r: r[id_col],
    )
    cent = np.array([r["embedding"] for r in init_rows], dtype=np.float64)
    cent /= np.maximum(np.linalg.norm(cent, axis=1), 1e-30)[:, None]
    k = len(cent)

    def make_partial(cent_ref):
        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(cent_ref)
            mat = _emb_matrix(batch)
            nm = mat / np.maximum(np.linalg.norm(mat, axis=1), 1e-30)[:, None]
            assign = np.argmax(nm @ c.T, axis=1)
            uniq, inv = np.unique(assign, return_inverse=True)
            sums = np.zeros((len(uniq), nm.shape[1]))
            np.add.at(sums, inv, nm)
            counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
            tag = int(batch.column(id_col).to_numpy().min()) if batch.num_rows else 0
            return pa.Table.from_pydict(
                {
                    "cluster": pa.array(uniq.astype(np.int64)),
                    "n": pa.array(counts),
                    "vec_sum": pa.array([s.tobytes() for s in sums], pa.binary()),
                    "tag": pa.array(np.full(len(uniq), tag, np.int64)),
                }
            )

        return partial

    def merge_cluster(g: pa.Table) -> pa.Table:
        # one cluster's partials, summed in fixed tag order — the exact
        # float-accumulation sequence the driver-side loop uses
        order = np.argsort(g.column("tag").to_numpy(), kind="stable")
        bufs = g.column("vec_sum").to_pylist()
        s = np.frombuffer(bufs[order[0]], dtype=np.float64).copy()
        for i in order[1:]:
            s += np.frombuffer(bufs[i], dtype=np.float64)
        return pa.Table.from_pydict(
            {
                "cluster": pa.array([int(g.column("cluster")[0].as_py())], pa.int64()),
                "n": pa.array([int(g.column("n").to_numpy().sum())], pa.int64()),
                "vec_sum": pa.array([s.tobytes()], pa.binary()),
                "tag": pa.array([0], pa.int64()),
            }
        )

    for _ in range(n_iters):
        prev = cent.copy()
        cent_ref = ray.put(cent)
        partials = emb.map_batches(make_partial(cent_ref), batch_format="pyarrow")
        if k > driver_merge_max:
            # web-scale K: merge per cluster distributed; the driver sees
            # K rows (one per nonempty cluster), never K x n_batches
            partials = partials.groupby("cluster").map_groups(
                merge_cluster, batch_format="pyarrow"
            )
        parts = sorted(
            partials.take_all(), key=lambda r: (r["cluster"], r["tag"])
        )
        sums = np.zeros_like(cent)
        counts = np.zeros(k, dtype=np.int64)
        for r in parts:
            sums[r["cluster"]] += np.frombuffer(r["vec_sum"], dtype=np.float64)
            counts[r["cluster"]] += r["n"]
        nonempty = counts > 0
        mean = sums[nonempty] / counts[nonempty][:, None]
        cent[nonempty] = mean / np.maximum(
            np.linalg.norm(mean, axis=1), 1e-30
        )[:, None]
        if np.array_equal(prev, cent):
            # converged: centroids are BIT-identical to the previous
            # pass, so every further Lloyd pass would recompute exactly
            # the same assignment and the same centroids — stopping early
            # cannot change the result, it only skips no-op corpus scans
            break

    cent_ref = ray.put(cent)

    def assign_final(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        mat = _emb_matrix(batch)
        nm = mat / np.maximum(np.linalg.norm(mat, axis=1), 1e-30)[:, None]
        sims = nm @ c.T
        assign = np.argmax(sims, axis=1)
        best = np.round(sims[np.arange(len(assign)), assign], 6)
        cols = {
            id_col: batch.column(id_col),
            "cluster": pa.array(assign.astype(np.int64)),
            "cos_to_centroid": pa.array(best, pa.float64()),
        }
        if include_embedding:
            # consumers like semantic_dedup_keep need the vectors next to
            # the label (Acero joins reject list payload columns)
            cols["embedding"] = batch.column("embedding")
        return pa.Table.from_pydict(cols)

    return emb.map_batches(assign_final, batch_format="pyarrow")


def kmeans_summary(ds: rd.Dataset, n_clusters: int = 8, n_iters: int = 5) -> rd.Dataset:
    """Per-cluster summary of :func:`kmeans_clusters`: (cluster, n_vecs,
    mean_sim) via mergeable per-batch partial sums — the compact
    cluster-quality table a curation pipeline reports."""
    import pandas as pd

    assigned = kmeans_clusters(ds, n_clusters=n_clusters, n_iters=n_iters)

    def partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        return (
            pl.from_arrow(batch)
            .group_by("cluster")
            .agg(
                pl.len().cast(pl.Int64).alias("n_vecs"),
                pl.col("cos_to_centroid").sum().alias("sim_sum"),
            )
            .to_arrow()
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        n = int(g["n_vecs"].sum())
        s = float(g["sim_sum"].sum())
        return pd.DataFrame(
            {
                "cluster": [int(g["cluster"].iloc[0])],
                "n_vecs": [n],
                "mean_sim": [round(s / n, 6)],
            }
        )

    # compact the tiny partial rows before the groupby: empty source
    # blocks otherwise flow through the sort as schema-less empty blocks
    # (map fns are never invoked on them) and trip Ray's mixed-schema
    # warning; width scales with K so huge-K summaries stay parallel
    width = max(1, n_clusters // 512)
    return (
        assigned.map_batches(partial, batch_format="pyarrow")
        .repartition(width)
        .groupby("cluster")
        .map_groups(final, batch_format="pandas")
        .sort("cluster")
    )


def _greedy_prune_rows(
    nm: np.ndarray, tau: float, block: int = 2048
) -> np.ndarray:
    """Greedy SemDeDup keep-set over row-normalized vectors ``nm`` (rows
    in candidate order): row i survives iff its max cosine to every
    SURVIVING earlier row is < ``tau``. Blocked-BLAS evaluation of the
    exact sequential rule: each block scores against the accumulated kept
    matrix in ONE matmul (rows killed by earlier blocks drop out before
    any within-block work), then the survivors resolve their within-block
    order from a single block x block matmul — the only remaining Python
    loop walks block-local survivors doing O(|kept-in-block|) numpy max
    lookups. Identical output to the row-at-a-time greedy loop."""
    n = len(nm)
    kept: list[int] = []
    for start in range(0, n, block):
        blk = nm[start : start + block]
        alive = np.ones(len(blk), dtype=bool)
        if kept:
            sims = blk @ nm[kept].T
            alive = sims.max(axis=1) < tau if sims.shape[1] else alive
        cand = np.flatnonzero(alive)
        if not len(cand):
            continue
        cs = blk[cand] @ blk[cand].T
        keep_local: list[int] = []
        for ii in range(len(cand)):
            if not keep_local or float(cs[ii, keep_local].max()) < tau:
                keep_local.append(ii)
        kept.extend((start + cand[keep_local]).tolist())
    return np.asarray(kept, dtype=np.int64)


def semantic_dedup_keep(
    ds: rd.Dataset,
    n_clusters: int | None = None,
    tau: float = 0.95,
    n_iters: int = 5,
    id_col: str = "vec_id",
    max_cluster: int = 100_000,
) -> rd.Dataset:
    """SemDeDup-style semantic deduplication (Abbas et al. 2023, public
    knowledge): partition embeddings with distributed k-means, then
    within each cluster greedily drop vectors whose cosine to an
    already-kept vector is >= ``tau``. Keeps (id, cluster) rows for the
    survivors.

    Scale shape: the pairwise work is confined to one cluster at a time
    (groupby on the k-means label — the partitioning IS the blocking),
    with a loud ``max_cluster`` cap; candidate order inside a cluster is
    (cos_to_centroid desc, id) so the most central representative of
    every near-dup group survives, deterministically and independent of
    partitioning. The in-cluster prune is blocked BLAS
    (:func:`_greedy_prune_rows`), not a per-row loop.

    ``n_clusters=None`` derives K from the corpus size so the default
    never trips ``max_cluster`` silently: K = max(8, ceil(4n /
    max_cluster)) targets an AVERAGE cluster of max_cluster/4, leaving 4x
    skew headroom (small corpora keep K=8, so small-sf goldens are
    unaffected). Pass an explicit K to override."""
    import pandas as pd

    if n_clusters is None:
        n_rows = ds.count()
        n_clusters = max(8, -(-4 * n_rows // max_cluster))

    joined = kmeans_clusters(
        ds, n_clusters=n_clusters, n_iters=n_iters, id_col=id_col,
        include_embedding=True,
    )

    def prune(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) > max_cluster:
            raise ValueError(
                f"semantic_dedup_keep: cluster size {len(g)} exceeds "
                f"max_cluster={max_cluster}; raise n_clusters for this corpus"
            )
        g = g.sort_values(
            ["cos_to_centroid", id_col], ascending=[False, True], kind="mergesort"
        )
        mat = np.stack(g["embedding"].to_numpy()).astype(np.float64)
        nm = mat / np.maximum(np.linalg.norm(mat, axis=1), 1e-30)[:, None]
        out = g.iloc[_greedy_prune_rows(nm, tau)]
        return pd.DataFrame(
            {id_col: out[id_col].to_numpy(), "cluster": out["cluster"].to_numpy()}
        )

    return joined.groupby("cluster").map_groups(prune, batch_format="pandas")


def quantize_embeddings(ds: rd.Dataset, id_col: str = "vec_id") -> rd.Dataset:
    """Symmetric per-vector int8 quantization of the embedding column —
    the 4x storage/bandwidth reduction an embedding store needs at corpus
    scale. Row-local and vectorized: q = round(x * 127 / max|x|) per
    vector, stored as fixed-width binary with the float scale alongside;
    dequantized value = q * scale / 127 (max reconstruction error
    scale/254 per dimension)."""

    def fn(batch: pa.Table) -> pa.Table:
        mat = _emb_matrix(batch)
        amax = np.maximum(np.abs(mat).max(axis=1), 1e-30)
        q = np.round(mat / amax[:, None] * 127.0).astype(np.int8)
        dim = mat.shape[1] if mat.size else 0
        # fixed_size_binary(dim): one contiguous buffer for the whole
        # column — probes view it zero-copy as an (n, dim) int8 matrix
        # instead of materializing every cell through Python
        qvec = pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(dim), batch.num_rows, [None, pa.py_buffer(q.tobytes())]
        )
        return pa.Table.from_pydict(
            {
                id_col: batch.column(id_col),
                "scale": pa.array(amax, pa.float64()),
                "qvec": qvec,
                "dim": pa.array(
                    np.full(batch.num_rows, dim),
                    pa.int32(),
                ),
            }
        )

    return ds.select_columns([id_col, "embedding"]).map_batches(
        fn, batch_format="pyarrow"
    )


def topk_cosine_int8(
    qds: rd.Dataset, query: list[float], k: int = 10, id_col: str = "vec_id"
) -> rd.Dataset:
    """Approximate top-k cosine over int8-quantized vectors (the output
    of :func:`quantize_embeddings`): per-batch dequantize-and-matmul
    against the broadcast query, partial top-k, tiny global reduce —
    same shape as ``topk_cosine``, 4x less data read. Cosine is
    scale-invariant per vector, so per-vector symmetric quantization
    perturbs each similarity by at most ~1/127 per dimension pair."""
    import ray

    q = np.asarray(query, dtype=np.float64)
    qn = q / max(np.linalg.norm(q), 1e-30)
    q_ref = ray.put(qn)

    def partial(batch: pa.Table) -> pa.Table:
        qv = ray.get(q_ref)
        if not batch.num_rows:
            return pa.Table.from_pydict(
                {id_col: pa.array([], pa.int64()),
                 "cos_sim": pa.array([], pa.float64())}
            )
        dim = int(batch.column("dim")[0].as_py())
        raw = batch.column("qvec")
        if isinstance(raw, pa.ChunkedArray):
            raw = raw.combine_chunks()
        # zero-copy buffer view of the fixed_size_binary column (offset-
        # aware: a sliced array's data buffer starts at offset*dim bytes)
        flat = np.frombuffer(raw.buffers()[1], dtype=np.int8)
        start = raw.offset * dim
        flat = flat[start : start + batch.num_rows * dim]
        mat = flat.reshape(batch.num_rows, dim).astype(np.float64)
        # per-vector scale cancels in cosine; normalize the int grid directly
        nm = mat / np.maximum(np.linalg.norm(mat, axis=1), 1e-30)[:, None]
        sims = nm @ qv
        take = min(k, len(sims))
        idx = np.argpartition(-sims, take - 1)[:take]
        return pa.Table.from_pydict(
            {
                id_col: batch.column(id_col).take(pa.array(idx)),
                "cos_sim": pa.array(np.round(sims[idx], 6)),
            }
        )

    return (
        qds.map_batches(partial, batch_format="pyarrow")
        .sort(["cos_sim", id_col], descending=[True, False])
        .limit(k)
    )


# ------------------------------------------------------------------- PCA

_PCA_SCALE = 1 << 20  # fixed-point quantum for split-invariant moments


def pca_fit(
    ds: rd.Dataset, col: str = "embedding"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit PCA over an embedding column in ONE streamed pass of mergeable
    second-moment partials: per batch (n, Σx, ΣxxT) — d + d² numbers per
    batch, never rows — then a d×d driver eigendecomposition (d is the
    embedding dim: 64 here, a few thousand for real models — always
    driver-sized; the ROW count is what's unbounded).

    Split-invariance contract: embeddings are quantized to int64
    fixed-point (2^-20 quantum ≈ 1e-6, below the output rounding) and the
    moments accumulate as EXACT integers (driver merge in Python bigints,
    so 10^12-row sums can't overflow int64) — the fitted components are
    bit-identical regardless of how Ray splits blocks, unlike a float
    partial sum whose value depends on block boundaries. Component sign
    is pinned (largest-|coefficient| entry made positive) so the
    eigenbasis is deterministic too.

    Returns (mean d, components k=d rows ordered by descending
    eigenvalue, eigenvalues descending).
    """

    def partial(batch: pa.Table) -> pa.Table:
        x = _emb_matrix(batch, col)
        if x.size == 0:
            return pa.Table.from_pydict(
                {"n": pa.array([], pa.int64()),
                 "sx": pa.array([], pa.list_(pa.int64())),
                 "sxx": pa.array([], pa.list_(pa.int64()))}
            )
        xq = np.rint(x * _PCA_SCALE).astype(np.int64)
        sxx = xq.T @ xq  # int64: |x|~1 -> entries < n_batch * 2^40
        return pa.Table.from_pydict(
            {
                "n": pa.array([len(xq)], pa.int64()),
                "sx": pa.array([xq.sum(axis=0).tolist()], pa.list_(pa.int64())),
                "sxx": pa.array([sxx.ravel().tolist()], pa.list_(pa.int64())),
            }
        )

    rows = ds.select_columns([col]).map_batches(
        partial, batch_format="pyarrow"
    ).take_all()
    if not rows:
        raise ValueError("pca_fit: empty dataset")
    n = 0
    sx = None
    sxx = None
    for r in rows:
        n += int(r["n"])
        bsx = [int(v) for v in r["sx"]]
        bsxx = [int(v) for v in r["sxx"]]
        if sx is None:
            sx, sxx = bsx, bsxx
        else:
            sx = [a + b for a, b in zip(sx, bsx)]
            sxx = [a + b for a, b in zip(sxx, bsxx)]
    d = len(sx)
    if n < 2:
        raise ValueError("pca_fit: need >= 2 rows")
    # cov_ij = (n*SXX_ij - SX_i*SX_j) / (n*(n-1)*S²), numerator exact
    s2 = _PCA_SCALE * _PCA_SCALE
    cov = np.empty((d, d), dtype=np.float64)
    for i in range(d):
        ri = sxx[i * d: (i + 1) * d]
        si = sx[i]
        for j in range(d):
            cov[i, j] = float(n * ri[j] - si * sx[j]) / (n * (n - 1) * s2)
    mean = np.array([float(v) for v in sx]) / (n * _PCA_SCALE)
    eigval, eigvec = np.linalg.eigh(cov)
    order = np.argsort(eigval, kind="stable")[::-1]
    eigval = eigval[order]
    comps = eigvec[:, order].T.copy()
    for i in range(d):  # sign pin: largest-|coefficient| entry positive
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return mean, comps, eigval


def pca_project(
    ds: rd.Dataset,
    k: int = 2,
    id_col: str = "vec_id",
    col: str = "embedding",
    round_dp: int = 6,
) -> rd.Dataset:
    """Project every row onto the top-k principal components: pca_fit's
    one moments pass, then a second streamed pass computing the row-local
    (x - mean) @ compsᵀ — the corpus is never collected or shuffled.
    Output (id_col, pc1..pck) rounded half-away at ``round_dp``."""
    import ray

    from . import round_half_away_np

    mean, comps, _ = pca_fit(ds, col)
    if k > len(comps):
        raise ValueError(f"pca_project: k={k} > dim={len(comps)}")
    model_ref = ray.put((mean, comps[:k]))

    def project(batch: pa.Table) -> pa.Table:
        from . import resolve_broadcast

        mu, c = resolve_broadcast(model_ref)
        x = _emb_matrix(batch, col)
        out = {id_col: batch.column(id_col)}
        if x.size == 0:
            proj = np.zeros((batch.num_rows, len(c)))
        else:
            proj = (x - mu) @ c.T
        for i in range(len(c)):
            out[f"pc{i + 1}"] = pa.array(
                round_half_away_np(proj[:, i], round_dp)
            )
        return pa.Table.from_pydict(out)

    return ds.select_columns([id_col, col]).map_batches(
        project, batch_format="pyarrow"
    )


# ------------------------------------------------------- product quantization

_PQ_Q = 1 << 28  # per-row int64 quantum for split-invariant codebook sums


def pq_train(
    ds: rd.Dataset,
    m: int = 8,
    ksub: int = 16,
    n_iter: int = 5,
    id_col: str = "vec_id",
) -> np.ndarray:
    """Train product-quantization codebooks (m subspaces x ksub codes)
    over the L2-normalized embedding column — the classic ANN memory
    path: a d-dim float32 vector compresses to m uint8 codes (64 bytes ->
    8 here), which is what makes a 10^12-vector index object-store-
    resident at 100 TB scale.

    Scale/determinism shape (the kmeans + logreg contracts combined):
    initial codebooks come from the ksub vectors with the smallest
    mix64(id) (partitioning-invariant partial top-k); each Lloyd
    iteration is ONE streamed pass emitting per-(subspace, code) partial
    sums with per-ROW int64 fixed-point quantization, merged exactly in
    Python bigints — codebooks are BIT-IDENTICAL across block splits.
    Returns codebooks as (m, ksub, d/m) float64.
    """
    from ..rng import mix64_np

    import ray

    emb = ds.select_columns([id_col, "embedding"]).materialize()

    def pick_init(batch: pa.Table) -> pa.Table:
        sk = mix64_np(batch.column(id_col).to_numpy().astype(np.uint64))
        if batch.num_rows > ksub:
            keep = np.argpartition(sk, ksub - 1)[:ksub]
            batch, sk = batch.take(pa.array(keep)), sk[keep]
        return batch.append_column("__sk", pa.array(sk, pa.uint64()))

    init_rows = sorted(
        emb.map_batches(pick_init, batch_format="pyarrow")
        .sort("__sk")
        .limit(ksub)
        .take_all(),
        key=lambda r: r[id_col],
    )
    init = np.array([r["embedding"] for r in init_rows], dtype=np.float64)
    init /= np.maximum(np.linalg.norm(init, axis=1), 1e-30)[:, None]
    d = init.shape[1]
    if d % m:
        raise ValueError(f"pq_train: dim {d} not divisible by m={m}")
    ds_sub = d // m
    books = init.reshape(len(init), m, ds_sub).transpose(1, 0, 2).copy()
    if len(init) < ksub:
        raise ValueError("pq_train: fewer rows than ksub")

    for _ in range(n_iter):
        books_ref = ray.put(books)

        def tpass(batch: pa.Table) -> pa.Table:
            from . import resolve_broadcast

            x = _emb_matrix(batch)
            if x.size == 0:
                return pa.Table.from_pydict(
                    {"s": pa.array([], pa.int64()),
                     "code": pa.array([], pa.int64()),
                     "n": pa.array([], pa.int64()),
                     "qsum": pa.array([], pa.list_(pa.int64()))}
                )
            bks = resolve_broadcast(books_ref)
            x = x / np.maximum(np.linalg.norm(x, axis=1), 1e-30)[:, None]
            xs = x.reshape(len(x), m, ds_sub)
            out_s, out_c, out_n, out_q = [], [], [], []
            for s in range(m):
                sub = xs[:, s, :]
                # min-L2 assignment: argmax(2 c·x - |c|²)
                cb = bks[s]
                score = 2.0 * (sub @ cb.T) - (cb * cb).sum(axis=1)
                assign = np.argmax(score, axis=1)
                xq = np.rint(sub * _PQ_Q).astype(np.int64)
                for c in np.unique(assign):
                    rows = xq[assign == c]
                    out_s.append(s)
                    out_c.append(int(c))
                    out_n.append(len(rows))
                    out_q.append(rows.sum(axis=0).tolist())
            return pa.Table.from_pydict(
                {"s": pa.array(out_s, pa.int64()),
                 "code": pa.array(out_c, pa.int64()),
                 "n": pa.array(out_n, pa.int64()),
                 "qsum": pa.array(out_q, pa.list_(pa.int64()))}
            )

        rows = emb.map_batches(tpass, batch_format="pyarrow").take_all()
        acc: dict = {}
        for r in rows:
            key = (int(r["s"]), int(r["code"]))
            qs = [int(v) for v in r["qsum"]]
            if key in acc:
                n0, q0 = acc[key]
                acc[key] = (n0 + int(r["n"]), [a + b for a, b in zip(q0, qs)])
            else:
                acc[key] = (int(r["n"]), qs)
        new = books.copy()
        for (s, c), (n, qs) in acc.items():
            if n:
                new[s, c] = np.array([float(v) for v in qs]) / (_PQ_Q * n)
        books = new
    return books


def pq_topk_cosine(
    ds: rd.Dataset,
    query: list[float],
    k: int = 10,
    m: int = 8,
    ksub: int = 16,
    n_iter: int = 5,
    id_col: str = "vec_id",
    rerank_oversample: int = 0,
) -> rd.Dataset:
    """Approximate top-k by cosine via PQ asymmetric-distance scan:
    train codebooks (pq_train), then ONE streamed pass that encodes each
    row to its m codes and scores it with the query's precomputed
    (m x ksub) inner-product table — per-batch partial top-k, k-row
    global resolve. The full-precision corpus is read once per Lloyd
    pass and once to scan; the SCAN cost model is the point: at serving
    scale the stored index is the m uint8 codes (m bytes/vector).

    ``rerank_oversample > 0`` adds the standard two-stage retrieval
    tail: the ADC scan keeps ``k x oversample`` candidates, then ONE
    targeted pass re-scores only those ids with exact cosine (broadcast
    sorted id array, vectorized membership) and returns the exact-scored
    top-k as (id, cos_sim) — recall recovers toward exact while the
    bulk scan still touches only codes."""
    import ray

    from . import round_half_away_np

    books = pq_train(ds, m=m, ksub=ksub, n_iter=n_iter, id_col=id_col)
    q = np.asarray(query, dtype=np.float64)
    q = q / max(np.linalg.norm(q), 1e-30)
    ds_sub = books.shape[2]
    table = np.einsum("skd,sd->sk", books, q.reshape(m, ds_sub))
    model_ref = ray.put((books, table))

    def scan(batch: pa.Table) -> pa.Table:
        from . import resolve_broadcast

        bks, tab = resolve_broadcast(model_ref)
        x = _emb_matrix(batch)
        if x.size == 0:
            return pa.Table.from_pydict(
                {id_col: pa.array([], pa.int64()),
                 "adc_sim": pa.array([], pa.float64())}
            )
        x = x / np.maximum(np.linalg.norm(x, axis=1), 1e-30)[:, None]
        xs = x.reshape(len(x), m, ds_sub)
        sim = np.zeros(len(x))
        for s in range(m):
            cb = bks[s]
            score = 2.0 * (xs[:, s, :] @ cb.T) - (cb * cb).sum(axis=1)
            sim += tab[s, np.argmax(score, axis=1)]
        take = min(k, len(sim))
        idx = (np.argpartition(-sim, take - 1)[:take]
               if take else np.array([], int))
        return pa.Table.from_pydict(
            {id_col: batch.column(id_col).take(pa.array(idx)),
             "adc_sim": pa.array(round_half_away_np(sim[idx], 6))}
        )

    partials = ds.select_columns([id_col, "embedding"]).map_batches(
        scan, batch_format="pyarrow"
    )
    if not rerank_oversample:
        return partials.sort(
            ["adc_sim", id_col], descending=[True, False]
        ).limit(k)

    cand = (
        partials.sort(["adc_sim", id_col], descending=[True, False])
        .limit(k * rerank_oversample)
        .take_all()
    )
    cand_ids = np.sort(np.array([int(r[id_col]) for r in cand], np.int64))
    ids_ref = ray.put(cand_ids)

    def rescore(batch: pa.Table) -> pa.Table:
        from . import resolve_broadcast, round_half_away_np as rnd

        ids = resolve_broadcast(ids_ref)
        rid = batch.column(id_col).to_numpy().astype(np.int64)
        pos = np.searchsorted(ids, rid)
        ok = pos < len(ids)
        ok[ok] = ids[pos[ok]] == rid[ok]
        batch = batch.filter(pa.array(ok))
        if batch.num_rows == 0:
            return pa.Table.from_pydict(
                {id_col: pa.array([], pa.int64()),
                 "cos_sim": pa.array([], pa.float64())}
            )
        x = _emb_matrix(batch)
        sims = _cosine(x, np.asarray(query, dtype=np.float64))
        return pa.Table.from_pydict(
            {id_col: batch.column(id_col),
             "cos_sim": pa.array(rnd(sims, 6))}
        )

    exact = ds.select_columns([id_col, "embedding"]).map_batches(
        rescore, batch_format="pyarrow"
    )
    return exact.sort(["cos_sim", id_col], descending=[True, False]).limit(k)


def _merge_centroid(g: pd.DataFrame) -> pd.DataFrame:
    """One label's (vec_sum, n) partials -> its mean vector. Each component
    is a ``math.fsum`` (exactly rounded), so the mean does not depend on
    the order in which the groupby hands over the partials."""
    import math

    sums = np.stack([np.frombuffer(b, dtype=np.float64) for b in g["vec_sum"]])
    total = np.array([math.fsum(col) for col in sums.T.tolist()], dtype=np.float64)
    n = int(g["n"].sum())
    return pd.DataFrame(
        {
            "label": [int(g["label"].iloc[0])],
            "mean": [(total / n).tobytes()],
        }
    )


def label_margin(ds: rd.Dataset, max_labels: int = 100_000) -> rd.Dataset:
    """Mislabel-candidate audit: per vector, the euclidean margin
    d_own − d_nearest_other between its OWN label centroid and the
    closest FOREIGN centroid — positive margin means the vector sits
    closer to another class's prototype than its own (the classic
    confident-mislabel signal a labeled-training-set curation pass
    ranks by). Returns (vec_id, label, margin, confusable).

    Same two-pass shape as :func:`centroid_distances` (per-batch
    (sum-vector, count) partials → per-label means, broadcast once via
    ``ray.put``), but the scoring pass computes the distance to EVERY
    centroid — vectorized per centroid (k small by the broadcast
    contract), sqrt'd per pair exactly like the oracle's per-(vec,
    label) sum, then min over foreign labels. Vectors whose label has
    no other label to compare against emit NULL margin."""
    import ray

    from . import resolve_broadcast, round_half_away_np

    def partial(batch: pa.Table) -> pa.Table:
        mat = _emb_matrix(batch)
        labels = batch.column("label").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), mat.shape[1] if mat.size else 0))
        np.add.at(sums, inv, mat)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "label": pa.array(uniq),
                "n": pa.array(counts),
                "vec_sum": pa.array([s.tobytes() for s in sums], pa.binary()),
            }
        )

    partials = ds.select_columns(["label", "embedding"]).map_batches(
        partial, batch_format="pyarrow"
    )

    rows = partials.groupby("label").map_groups(
        _merge_centroid, batch_format="pandas"
    ).take(max_labels + 1)
    if len(rows) > max_labels:
        raise ValueError(
            f"label_margin: > {max_labels} labels — raise max_labels "
            "deliberately"
        )
    keys = np.array(sorted(int(r["label"]) for r in rows), dtype=np.int64)
    means = {int(r["label"]): np.frombuffer(r["mean"], np.float64)
             for r in rows}
    M = np.stack([means[int(k)] for k in keys]) if len(keys) else np.zeros(
        (0, 0)
    )
    ref = ray.put((keys, M))

    def score(batch: pa.Table) -> pa.Table:
        k, m = resolve_broadcast(ref)
        mat = _emb_matrix(batch).astype(np.float64)
        labels = batch.column("label").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        n = len(labels)
        if n == 0 or len(k) == 0:
            return pa.table(
                {
                    "vec_id": batch.column("vec_id"),
                    "label": pa.array(labels, pa.int64()),
                    "margin": pa.array([None] * n, pa.float64()),
                    "confusable": pa.array([None] * n, pa.int64()),
                }
            )
        # distance matrix rows×centroids, per-centroid vectorized (k is
        # broadcast-bounded); sqrt per pair mirrors the oracle exactly
        D = np.empty((n, len(k)))
        for j in range(len(k)):
            diff = mat - m[j]
            D[:, j] = np.sqrt((diff * diff).sum(axis=1))
        own_idx = np.searchsorted(k, labels)
        d_own = D[np.arange(n), own_idx]
        D[np.arange(n), own_idx] = np.inf
        d_other = D.min(axis=1)
        has_other = np.isfinite(d_other)
        margin = round_half_away_np(d_own - d_other, 6)
        conf = (d_own > d_other).astype(np.int64)
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "label": pa.array(labels, pa.int64()),
                "margin": pa.array(
                    np.where(has_other, margin, np.nan), pa.float64(),
                    from_pandas=True,
                ),
                "confusable": pa.Array.from_pandas(
                    pd.Series(np.where(has_other, conf, np.nan)),
                    type=pa.int64(),
                ),
            }
        )

    return ds.select_columns(["vec_id", "label", "embedding"]).map_batches(
        score, batch_format="pyarrow"
    )
