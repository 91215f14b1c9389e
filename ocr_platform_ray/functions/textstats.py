"""Text analysis over a (doc_id, text, ...) table: token counting, quality
scoring, language ID, document fingerprinting. All vectorized per batch
(pyarrow.compute / polars), no Python loop over rows in hot paths.

These generalize the reference's postprocess hook ("TODO: spell
correction, normalization, domain dictionaries" — /root/reference/libs/
ocr_core/ocr_core/pipeline/postprocess.py:5) into the analysis stages a
100 TB training-data pipeline needs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

TOKEN_RE = "[a-z0-9]+"           # lowercase corpus; kept in sync with oracle SQL
ALPHA_RE = "[a-z]"

# tiny per-language stopword profiles for the n-gram/stopword heuristic
LANG_STOPWORDS = {
    "en": ["the", "and", "of", "to", "a", "in", "is"],
    "fr": ["le", "la", "et", "les", "des", "un", "est"],
    "es": ["el", "los", "de", "y", "que", "en", "es"],
    "de": ["der", "die", "und", "das", "ein", "ist", "nicht"],
    "zh": ["de", "shi", "le", "zai", "you", "wo", "ta"],
}
_LANGS = sorted(LANG_STOPWORDS)


def token_count_batch(batch: pa.Table) -> pa.Table:
    """Add n_tokens (regex word count) — SQL: len(regexp_extract_all(...))."""
    n = pc.count_substring_regex(batch.column("text"), pattern=TOKEN_RE)
    return batch.append_column("n_tokens", pc.cast(n, pa.int64()))


def quality_batch(batch: pa.Table) -> pa.Table:
    """Add quality-signal columns (length/alpha ratio/score), rounded to 6dp
    so the DuckDB oracle hashes identically."""
    text = batch.column("text")
    n_chars = pc.cast(pc.utf8_length(text), pa.float64())
    n_alpha = pc.cast(pc.count_substring_regex(text, pattern=ALPHA_RE), pa.float64())
    n_tok = pc.cast(pc.count_substring_regex(text, pattern=TOKEN_RE), pa.float64())
    # numpy floor-based rounding (floor(x*1e6+0.5)/1e6) — produces the
    # identical double DuckDB's round() does; pyarrow's pc.round can land on
    # a different nearest-double for the same 6-decimal value
    nc = n_chars.to_numpy(zero_copy_only=False)
    na = n_alpha.to_numpy(zero_copy_only=False)
    nt = n_tok.to_numpy(zero_copy_only=False)
    denom = np.maximum(nc, 1.0)
    alpha_ratio = pa.array(np.floor(na / denom * 1e6 + 0.5) / 1e6)
    raw_score = np.minimum(nt / 100.0, 1.0) * (na / denom)
    score = pa.array(np.floor(raw_score * 1e6 + 0.5) / 1e6)
    out = batch.append_column("n_tokens", pc.cast(n_tok, pa.int64()))
    out = out.append_column("alpha_ratio", alpha_ratio)
    return out.append_column("quality_score", score)


def word_entropy_batch(batch: pa.Table) -> pa.Table:
    """Add ``word_entropy``: Shannon entropy (bits, 6dp) of each doc's
    unigram token distribution — low entropy flags boilerplate and
    repeated-phrase spam (complements :func:`repetition_batch`'s Gopher
    n-gram signal). Row-local and vectorized: polars extract_all ->
    explode -> (row, token) counts -> windowed total -> -sum(p*log2(p))
    per row; no Python loop. Token-free docs score 0.0.

    Matches ``round(-sum((c/n)*log2(c/n)), 6)`` over
    ``regexp_extract_all(text, '[a-z0-9]+')`` in SQL; the +0.0 in both
    engines folds IEEE -0.0 (single-token docs) to +0.0 so the value
    hash agrees."""
    import polars as pl

    col = batch.column("text")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    ent = np.zeros(len(batch), dtype=np.float64)
    ex = (
        pl.DataFrame({"i": np.arange(len(batch), dtype=np.int64),
                      "t": pl.from_arrow(col)})
        .select("i", pl.col("t").str.extract_all(TOKEN_RE).alias("tok"))
        .explode("tok")
        .drop_nulls()
    )
    if len(ex):
        h = (
            ex.group_by(["i", "tok"]).len(name="c")
            .with_columns((pl.col("c") / pl.col("c").sum().over("i")).alias("p"))
            .with_columns((-(pl.col("p") * pl.col("p").log(2.0))).alias("term"))
            .group_by("i").agg(pl.col("term").sum().alias("h"))
        )
        ent[h["i"].to_numpy()] = h["h"].to_numpy()
    ent = np.floor((ent + 0.0) * 1e6 + 0.5) / 1e6
    return batch.append_column("word_entropy", pa.array(ent, pa.float64()))


def langid_batch(batch: pa.Table) -> pa.Table:
    """Add pred_lang via stopword-profile scoring (vectorized regex counts
    per language; argmax, ties by language-code order). Heuristic — not
    SQL-expressible; driver records a rows-only check."""
    text = batch.column("text")
    scores = np.zeros((batch.num_rows, len(_LANGS)), dtype=np.int64)
    for j, lang in enumerate(_LANGS):
        pattern = r"\b(" + "|".join(LANG_STOPWORDS[lang]) + r")\b"
        scores[:, j] = pc.count_substring_regex(text, pattern=pattern).to_numpy(
            zero_copy_only=False
        )
    best = scores.argmax(axis=1)  # first max -> language-code order ties
    pred = pa.array([_LANGS[i] for i in best])
    conf = scores.max(axis=1) / np.maximum(scores.sum(axis=1), 1)
    conf = np.floor(conf * 1e6 + 0.5) / 1e6  # half away from zero, like DuckDB
    out = batch.append_column("pred_lang", pred)
    return out.append_column("lang_conf", pa.array(conf))


# GPT2-style pretokenizer shape (public knowledge), RE2-compatible so the
# DuckDB oracle can run the identical pattern.
BPE_TOKEN_RE = r"'[a-z]+| ?[a-z0-9]+| ?[^a-z0-9 \t\n\r]+"


def bpe_token_count_batch(batch: pa.Table) -> pa.Table:
    """Add n_bpe_tokens: BPE-ish pretokenizer piece count (contractions,
    space-prefixed words/numbers, punctuation runs)."""
    n = pc.count_substring_regex(batch.column("text"), pattern=BPE_TOKEN_RE)
    return batch.append_column("n_bpe_tokens", pc.cast(n, pa.int64()))


def winnow_fingerprints_batch(
    batch: pa.Table, k: int = 8, w: int = 16
) -> pa.Table:
    """Add fingerprints: winnowed rolling-hash document fingerprints
    (Schleimer/Wilkerson/Aiken winnowing, public algorithm): Rabin-Karp
    hashes of all k-grams of the text, then the minimum hash of each
    w-window, deduplicated — the classic near-copy detection sketch.
    Vectorized: the rolling hash is one cumsum-style pass per batch via
    numpy; window minima via sliding_window_view."""
    import numpy as np

    B = np.uint64(1000003)
    doc_ids = batch.column("doc_id")
    texts = batch.column("text").to_pylist()
    out: list[list[int]] = []
    with np.errstate(over="ignore"):
        Bk = B ** np.uint64(k - 1)
        for t in texts:
            data = np.frombuffer(t.encode("utf-8", "ignore"), dtype=np.uint8).astype(
                np.uint64
            )
            n = len(data) - k + 1
            if n <= 0:
                out.append([])
                continue
            # rolling Rabin-Karp: h[0] = sum B^j c[j]; h[i+1] = (h[i]-c[i]*B^(k-1))*B + c[i+k]
            powers = B ** np.arange(k - 1, -1, -1, dtype=np.uint64)
            h = np.empty(n, dtype=np.uint64)
            h[0] = (data[:k] * powers).sum()
            # vectorized recurrence: h[i] = c[i]*B^{k-1} + c[i+1]*B^{k-2} ... —
            # compute via correlation: windows * powers summed; sliding view
            win = np.lib.stride_tricks.sliding_window_view(data, k)
            h = (win * powers[None, :]).sum(axis=1)
            if n < w:
                fps = {int(h.min())}
            else:
                mins = np.lib.stride_tricks.sliding_window_view(h, w).min(axis=1)
                fps = set(mins.astype(np.int64).tolist())
            out.append(sorted(int(x) for x in np.asarray(list(fps), dtype=np.int64)))
    return pa.Table.from_arrays(
        [doc_ids, pa.array(out, type=pa.list_(pa.int64()))],
        names=["doc_id", "fingerprints"],
    )


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Add fp64: stable 64-bit content fingerprint of the text (polars
    vectorized hash — Rust, no Python loop). Used as the exact-dedup /
    shuffle key so wide text never has to move through a groupby."""
    import polars as pl

    s = pl.from_arrow(batch.column("text"))
    if isinstance(s, pl.DataFrame):  # polars>=1 returns Series for ChunkedArray
        s = s.to_series()
    fp = s.hash(seed=0).cast(pl.Int64, wrap_numerical=True)
    return batch.append_column("fp64", fp.to_arrow())


def _topk_counts(partials, key_col: str, k: int):
    """Shared merge/top-k tail for corpus-wide frequency passes: merge the
    per-batch (key, n) partials in a key-hash-bucketed groupby (ONE
    vectorized sub-groupby per bucket — one Ray group per distinct key
    would pay a pandas DataFrame construction per vocabulary entry), each
    bucket keeps only its own top-k, then (n DESC, key ASC) — the oracle
    ORDER BY tie-break — and limit(k) over the <= n_buckets x k
    survivors."""
    import pandas as pd

    from . import bucketed_group_apply
    from .dedup import shuffle_blocks

    def final(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(key_col, as_index=False).agg(n=("n", "sum"))
        agg["n"] = agg["n"].astype(np.int64)
        return agg.sort_values(
            ["n", key_col], ascending=[False, True], kind="mergesort"
        ).head(k)

    merged = bucketed_group_apply(
        partials.repartition(shuffle_blocks()), key_col, final, n_buckets=256
    )
    return merged.sort(["n", key_col], descending=[True, False]).limit(k)


def top_tokens(ds, k: int = 20):
    """Corpus-wide top-k tokens by occurrence count (the vocabulary /
    frequency pass of a training-data pipeline). Per-batch combiner: one
    (token, count) row per distinct token per batch (polars extract_all +
    explode, vectorized); the shuffle carries token partials, never text."""
    import polars as pl

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
        return counts.rename({"tok": "token", "len": "n"}).to_arrow()

    return _topk_counts(
        ds.map_batches(partial, batch_format="pyarrow"), "token", k
    )


def top_bigrams(ds, k: int = 20):
    """Corpus-wide top-k token bigrams (adjacent-pair counts — the n-gram
    statistics pass). Same combiner shape as ``top_tokens``: polars
    extract_all, zip each token list with its own shift via paired list
    slices, explode, per-batch counts, shared merge/top-k tail."""
    import polars as pl

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        toks = pl.DataFrame({"t": pl.from_arrow(col)}).select(
            pl.col("t").str.extract_all(TOKEN_RE).alias("t")
        )
        pairs = toks.select(
            pl.col("t").list.slice(0, pl.col("t").list.len() - 1).alias("a"),
            pl.col("t").list.slice(1).alias("b"),
        ).explode(["a", "b"]).drop_nulls()
        counts = (
            pairs.select((pl.col("a") + " " + pl.col("b")).alias("bigram"))
            .group_by("bigram")
            .len()
        )
        return counts.rename({"len": "n"}).to_arrow()

    return _topk_counts(
        ds.map_batches(partial, batch_format="pyarrow"), "bigram", k
    )


def top_tfidf_terms(ds, k: int = 20):
    """Corpus-wide top-k terms by total TF-IDF — the term-weighting pass of
    a training-data / retrieval pipeline (tfidf = n * ln(N / df), the
    classic unsmoothed formulation).

    Per-batch combiner emits one (token, n, df) row per distinct token per
    batch — total occurrences plus the number of the batch's DOCUMENTS
    containing the token (each document is exactly one row, so per-batch
    doc counts sum to the true corpus df). The shuffle carries those tiny
    partials, never text; N comes from ``ds.count()`` (parquet metadata).
    Rounded via the floor(x*1e6+0.5)/1e6 DuckDB-round contract so the SQL
    oracle value-hashes identically."""
    import pandas as pd
    import polars as pl

    from .dedup import shuffle_blocks

    n_corpus = ds.count()

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        toks = pl.DataFrame({"t": pl.from_arrow(col)}).select(
            pl.col("t").str.extract_all(TOKEN_RE).alias("tok")
        )
        n_part = (
            toks.explode("tok").drop_nulls().group_by("tok").len().rename({"len": "n"})
        )
        df_part = (
            toks.select(pl.col("tok").list.unique())
            .explode("tok")
            .drop_nulls()
            .group_by("tok")
            .len()
            .rename({"len": "df"})
        )
        return (
            n_part.join(df_part, on="tok", how="inner")
            .rename({"tok": "token"})
            .to_arrow()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized merge per token-hash BUCKET (not per token);
        # per-token totals are complete within the bucket, so each bucket
        # may pre-trim to its own top-k before the global sort
        agg = g.groupby("token", as_index=False).agg(
            n=("n", "sum"), df=("df", "sum")
        )
        n = agg["n"].to_numpy(dtype=np.float64)
        dfv = agg["df"].to_numpy(dtype=np.float64)
        agg["tfidf"] = np.floor(n * np.log(n_corpus / dfv) * 1e6 + 0.5) / 1e6
        agg["n"] = agg["n"].astype("int64")
        agg["df"] = agg["df"].astype("int64")
        return agg.sort_values(
            ["tfidf", "token"], ascending=[False, True], kind="mergesort"
        ).head(k)

    from . import bucketed_group_apply

    merged = bucketed_group_apply(
        partials.repartition(shuffle_blocks()), "token", final, n_buckets=256
    )
    return merged.sort(["tfidf", "token"], descending=[True, False]).limit(k)


def inverted_index(ds, max_postings: int = 32):
    """Corpus inverted index: per token, document frequency, total term
    frequency, and the first ``max_postings`` doc ids (ascending,
    comma-joined) — the retrieval-side index build of a corpus pipeline.

    The postings column is a bounded SAMPLE by contract (doc_freq still
    counts every document): full posting lists at 100 TB are written
    sharded by token bucket, not returned as one row. Scale shape: the
    per-batch combiner fully pre-aggregates — one (token, doc_freq,
    total_tf, first-``max_postings`` sorted doc ids) row per distinct
    token per BATCH (documents are disjoint across batches, so capped
    sorted posting prefixes merge associatively) — so the shuffle
    carries O(vocab x blocks) rows, never the O(vocab x docs) posting
    matrix, and ONE token-bucketed groupby assembles the index."""
    import numpy as np
    import pandas as pd
    import polars as pl

    from . import bucketed_group_apply
    from .dedup import shuffle_blocks

    def partial(batch: pa.Table) -> pa.Table:
        d = pl.from_arrow(batch).select("doc_id", "text")
        per = (
            d.select(
                pl.col("doc_id"),
                pl.col("text").str.extract_all(TOKEN_RE).alias("token"),
            )
            .explode("token")
            .drop_nulls()
            .group_by(["token", "doc_id"])
            .len()
            .rename({"len": "tf"})
            .group_by("token")
            .agg(
                pl.len().alias("doc_freq"),
                pl.col("tf").sum().alias("total_tf"),
                pl.col("doc_id").sort().head(max_postings).alias("post"),
            )
        )
        return per.to_arrow()

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def merge_post(lists) -> str:
        ids = np.sort(np.concatenate([np.asarray(v, dtype=np.int64)
                                      for v in lists]))[:max_postings]
        return ",".join(str(int(v)) for v in ids)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("token", as_index=False).agg(
            doc_freq=("doc_freq", "sum"),
            total_tf=("total_tf", "sum"),
            postings=("post", merge_post),
        )
        agg["doc_freq"] = agg["doc_freq"].astype("int64")
        agg["total_tf"] = agg["total_tf"].astype("int64")
        return agg

    return bucketed_group_apply(
        partials.repartition(shuffle_blocks()), "token", final
    )


def pmi_pairs(ds, vocab_k: int = 100, min_co: int = 5, k: int = 50,
              score: str = "pmi"):
    """Top-k token pairs by document-level pointwise mutual information
    over the ``vocab_k`` most frequent tokens — the collocation /
    phrase-mining pass of a corpus pipeline. ``score="llr"`` switches
    the ranking to Dunning's log-likelihood ratio G² (Dunning 1993) —
    the classic complement that doesn't over-reward rare pairs the way
    PMI does (a 2-doc pair can top PMI; G² weights by evidence mass);
    the count plumbing is identical, only the driver-side scoring
    changes (all four O·ln(O/E) terms in a FIXED order, + 0.0 to
    normalize a −0.0 round).

    pmi(a, b) = ln(n_co * N / (df_a * df_b)) over DOCUMENT co-occurrence
    (each doc counts once per pair). The vocabulary is a bounded driver
    collect (``vocab_k`` rows, loud cap) broadcast via ``ray.put``; each
    batch emits integer-keyed partial counts — pair key ia*V+ib (ia<ib),
    single key ia*V+ia, doc-count key V*V — so the shuffle carries at
    most V*(V+1)/2 + 1 int64 keys regardless of corpus size. Pair
    emission inside a batch is np.triu_indices over each document's
    distinct vocab-index set (the minhash/simhash bucket idiom), counted
    with one bincount per batch."""
    import polars as pl
    import ray

    from . import bucketed_group_apply, resolve_broadcast
    from .dedup import shuffle_blocks

    if vocab_k > 512:
        raise ValueError(
            f"vocab_k={vocab_k}: the V^2 pair-key space and the driver "
            "vocab collect are bounded by design; raise deliberately"
        )
    vocab_rows = top_tokens(ds, k=vocab_k).take_all()
    vocab = [r["token"] for r in vocab_rows]
    V = len(vocab)
    vocab_ref = ray.put({t: i for i, t in enumerate(vocab)})

    def partial(batch: pa.Table) -> pa.Table:
        idx_map = resolve_broadcast(vocab_ref)
        d = pl.from_arrow(batch).select("text").with_row_index("row")
        dt = (
            d.select(
                pl.col("row"),
                pl.col("text").str.extract_all(TOKEN_RE).alias("token"),
            )
            .explode("token")
            .drop_nulls()
            .with_columns(
                pl.col("token")
                .replace_strict(idx_map, default=None, return_dtype=pl.Int64)
                .alias("idx")
            )
            .drop_nulls("idx")
            .unique(["row", "idx"])
            .sort(["row", "idx"])
        )
        rows = dt["row"].to_numpy()
        idxs = dt["idx"].to_numpy()
        keys = [np.array([V * V], dtype=np.int64)]
        counts = [np.array([batch.num_rows], dtype=np.int64)]
        if len(idxs):
            keys.append(idxs * V + idxs)  # singles (document frequency)
            counts.append(np.ones(len(idxs), dtype=np.int64))
            # per-doc pair emission: np.triu over each doc's index set
            bounds = np.flatnonzero(np.diff(rows)) + 1
            for doc_idx in np.split(idxs, bounds):
                if len(doc_idx) < 2:
                    continue
                ia, ib = np.triu_indices(len(doc_idx), k=1)
                keys.append(doc_idx[ia] * V + doc_idx[ib])
                counts.append(np.ones(len(ia), dtype=np.int64))
        key = np.concatenate(keys)
        cnt = np.concatenate(counts)
        # in-batch combine: one row per distinct key
        uk, inv = np.unique(key, return_inverse=True)
        return pa.Table.from_pydict(
            {"key": uk, "n": np.bincount(inv, weights=cnt).astype(np.int64)}
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def merge(g):
        agg = g.groupby("key", as_index=False).agg(n=("n", "sum"))
        agg["n"] = agg["n"].astype("int64")
        return agg

    merged = bucketed_group_apply(
        partials.repartition(shuffle_blocks()), "key", merge
    ).take_all()  # bounded: <= V*(V+1)/2 + 1 rows by construction

    counts = {int(r["key"]): int(r["n"]) for r in merged}
    n_docs = counts.pop(V * V)
    score_col = "pmi" if score == "pmi" else "llr"
    out = {"token_a": [], "token_b": [], "n_co": [], score_col: []}
    for key, n_co in counts.items():
        ia, ib = divmod(key, V)
        if ia == ib or n_co < min_co:
            continue
        da, db = counts[ia * V + ia], counts[ib * V + ib]
        if score == "pmi":
            val = np.log(n_co * float(n_docs) / (da * db))
            # DuckDB round(): half away from zero (pmi can be negative)
            val = np.sign(val) * np.floor(np.abs(val) * 1e6 + 0.5) / 1e6
        else:
            import math

            Nd, A, B, C = (float(n_docs), float(da), float(db),
                           float(n_co))
            t = C * math.log(C / (A * B / Nd))
            if A - C > 0:
                t += (A - C) * math.log((A - C) / (A * (Nd - B) / Nd))
            if B - C > 0:
                t += (B - C) * math.log((B - C) / ((Nd - A) * B / Nd))
            if Nd - A - B + C > 0:
                t += (Nd - A - B + C) * math.log(
                    (Nd - A - B + C) / ((Nd - A) * (Nd - B) / Nd)
                )
            g2 = 2.0 * t
            val = (np.sign(g2) * np.floor(np.abs(g2) * 1e6 + 0.5) / 1e6
                   + 0.0)
        ta, tb = sorted((vocab[ia], vocab[ib]))  # lexicographic, like SQL
        out["token_a"].append(ta)
        out["token_b"].append(tb)
        out["n_co"].append(n_co)
        out[score_col].append(float(val))
    order = sorted(
        range(len(out[score_col])),
        key=lambda i: (-out[score_col][i], out["token_a"][i],
                       out["token_b"][i]),
    )[:k]
    return pa.Table.from_pydict(
        {
            "token_a": pa.array(
                [out["token_a"][i] for i in order], pa.string()
            ),
            "token_b": pa.array(
                [out["token_b"][i] for i in order], pa.string()
            ),
            "n_co": pa.array([out["n_co"][i] for i in order], pa.int64()),
            score_col: pa.array(
                [out[score_col][i] for i in order], pa.float64()
            ),
        }
    )


def repetition_batch(batch: pa.Table) -> pa.Table:
    """Add dup_bigram_ratio: 1 - distinct/total token bigrams — the
    Gopher-family repetition filter signal (Rae et al. 2021, "Scaling
    Language Models", repetition heuristics; public knowledge). Rows with
    < 2 tokens score 0. Vectorized: polars bigram explode + two grouped
    counts, no Python loop; round via the DuckDB floor contract."""
    import polars as pl

    col = batch.column("text")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    toks = pl.DataFrame({"t": pl.from_arrow(col)}).select(
        pl.col("t").str.extract_all(TOKEN_RE).alias("t")
    )
    bi = (
        toks.with_row_index("i")
        .select(
            "i",
            a=pl.col("t").list.slice(0, pl.col("t").list.len() - 1),
            b=pl.col("t").list.slice(1),
        )
        .explode(["a", "b"])
        .drop_nulls()
        .select("i", g=pl.col("a") + " " + pl.col("b"))
        .group_by("i")
        .agg(total=pl.len(), uniq=pl.col("g").n_unique())
    )
    ratio = np.zeros(batch.num_rows)
    idx = bi["i"].to_numpy()
    ratio[idx] = 1.0 - bi["uniq"].to_numpy() / bi["total"].to_numpy()
    ratio = np.floor(ratio * 1e6 + 0.5) / 1e6
    return batch.append_column("dup_bigram_ratio", pa.array(ratio))


def _vocab_partial(batch: pa.Table) -> pa.Table:
    """Per-batch vocabulary combiner: one (token, n) row per distinct
    token per batch — the shuffle/collect after this carries integer
    partials, never text."""
    import polars as pl

    col = batch.column("text")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return (
        pl.DataFrame({"t": pl.from_arrow(col)})
        .select(pl.col("t").str.extract_all(TOKEN_RE).alias("tok"))
        .explode("tok")
        .drop_nulls()
        .group_by("tok")
        .len()
        .rename({"tok": "token", "len": "n"})
        .cast({"n": pl.Int64})
        .to_arrow()
    )


def vocab_counts(ds):
    """EXACT corpus vocabulary counts as a Dataset of (token, n) rows,
    each token exactly once globally.

    Per-batch combiner (:func:`_vocab_partial`) -> ONE coarse-bucketed
    merge (~1024 hash buckets of tokens sorted into blocks, one polars
    sub-groupby per block — the repo's standard many-small-keys idiom):
    the shuffle carries (token, n) partials, never text, and the UDF
    runs once per sorted block, not once per distinct token."""
    import polars as pl

    from . import apply_per_partition
    from .dedup import shuffle_blocks

    def vocab_partial(batch: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(_vocab_partial(batch))
            .with_columns(
                (pl.col("token").hash(seed=0) & 1023).cast(pl.Int64).alias("cb")
            )
            .to_arrow()
        )

    def merge_bucket(g: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(g)
            .group_by("token")
            .agg(pl.col("n").sum())
            .select("token", "n")
            .to_arrow()
        )

    return apply_per_partition(
        ds.select_columns(["text"])
        .map_batches(vocab_partial, batch_format="pyarrow")
        .repartition(shuffle_blocks()),
        "cb",
        merge_bucket,
        batch_format="pyarrow",
    )


def _score_batch(batch: pa.Table, tokens, lps, lp_oov) -> pa.Table:
    """Score one batch against a (sorted tokens, logprobs, oov) unigram
    model: tokens explode with row index, logprobs resolve via
    ``np.searchsorted`` (misses -> lp_oov; the exact variant never
    misses by construction), per-doc mean rounded to 6dp."""
    import polars as pl

    col = batch.column("text")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    ex = (
        pl.DataFrame(
            {"doc_id": pl.from_arrow(batch.column("doc_id")),
             "t": pl.from_arrow(col)}
        )
        .select(
            "doc_id",
            pl.col("t").str.extract_all(TOKEN_RE).alias("tok"),
        )
        .explode("tok")
        .drop_nulls()
    )
    if not len(ex):
        return pa.Table.from_pydict(
            {"doc_id": pa.array([], batch.column("doc_id").type),
             "mean_logprob": pa.array([], pa.float64()),
             "n_tok": pa.array([], pa.int64())}
        )
    toks = ex["tok"].to_numpy().astype(str)
    if len(tokens):
        pos = np.minimum(np.searchsorted(tokens, toks), len(tokens) - 1)
        lp = np.where(tokens[pos] == toks, lps[pos], lp_oov)
    else:
        lp = np.full(len(toks), lp_oov)
    agg = (
        ex.with_columns(pl.Series("lp", lp))
        .group_by("doc_id", maintain_order=True)
        .agg(pl.col("lp").mean().alias("m"), pl.len().alias("n_tok"))
    )
    m = np.floor(agg["m"].to_numpy() * 1e6 + 0.5) / 1e6
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(agg["doc_id"].to_list()),
            "mean_logprob": pa.array(m, pa.float64()),
            "n_tok": pa.array(agg["n_tok"].to_numpy().astype(np.int64),
                              pa.int64()),
        }
    )


def _make_scorer(vocab_ref):
    """Task-pool scoring stage shared by the exact and top-N LM
    variants: the broadcast (sorted tokens, logprobs, oov_logprob) tuple
    resolves once per worker process (:func:`..resolve_broadcast`), then
    batches score row-locally (:func:`_score_batch`)."""
    from . import resolve_broadcast

    def score(batch: pa.Table) -> pa.Table:
        return _score_batch(batch, *resolve_broadcast(vocab_ref))

    return score


def unigram_logprob_batchfn(ds, max_vocab: int = 5_000_000):
    """CCNet-family language-model quality scoring (public knowledge:
    Wenzek et al. 2020 score documents by LM perplexity; here the LM is
    the corpus's own add-one-smoothed unigram model, so the whole
    operation stays SQL-reproducible): two passes —

    1. per-batch (token, n) partials (:func:`_vocab_partial`) streamed to
       the driver and merged INCREMENTALLY (polars group-by sum every few
       partial blocks) under a LOUD ``max_vocab`` guard — this exact
       variant holds the merged vocabulary on the driver by definition,
       so a distributed pre-merge shuffle buys nothing and costs two
       all-to-alls of pure fixed overhead (measured ~4 s at any sf);
       driver memory stays bounded at merged-vocab + a few partials.
       Past the guard use :func:`unigram_logprob_topn`, which never
       collects the full vocabulary. The model broadcasts once via
       ``ray.put`` as (sorted tokens, logprob) arrays;
    2. a row-local scoring pass (:func:`_make_scorer`): every token is in
       the vocab by construction.

    Returns a Dataset of (doc_id, mean_logprob, n_tok) for docs with at
    least one token."""
    import polars as pl
    import ray

    parts = ds.select_columns(["text"]).map_batches(
        _vocab_partial, batch_format="pyarrow"
    )
    merged: pl.DataFrame | None = None
    pending: list[pl.DataFrame] = []

    def _merge(m, pend):
        frames = ([m] if m is not None else []) + pend
        out = (
            pl.concat(frames)
            .group_by("token")
            .agg(pl.col("n").sum())
        )
        if out.height > max_vocab:
            raise ValueError(
                f"unigram_logprob: vocabulary exceeds max_vocab={max_vocab}; "
                "use unigram_logprob_topn for web-scale vocabularies"
            )
        return out

    for tb in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        if tb.num_rows:
            pending.append(pl.from_arrow(tb).select("token", "n"))
        if len(pending) >= 64:
            merged = _merge(merged, pending)
            pending = []
    if pending:
        merged = _merge(merged, pending)
    if merged is None:
        merged = pl.DataFrame({"token": pl.Series([], dtype=pl.Utf8),
                               "n": pl.Series([], dtype=pl.Int64)})
    merged = merged.sort("token")
    tokens = merged["token"].to_numpy().astype(str)
    n_total = int(merged["n"].sum()) if merged.height else 0
    v = merged.height
    lps = (np.log((merged["n"].to_numpy().astype(np.float64) + 1.0)
                  / (n_total + v))
           if v else np.array([], np.float64))
    vocab_ref = ray.put((tokens, lps, float(np.log(1.0 / max(n_total + v, 1)))))

    return ds.select_columns(["doc_id", "text"]).map_batches(
        _make_scorer(vocab_ref), batch_format="pyarrow"
    )


def unigram_logprob_topn(ds, top_n: int = 65_536):
    """Web-scale variant of :func:`unigram_logprob_batchfn`: the model is
    the top-``top_n`` tokens (by count desc, token asc — deterministic
    ties) plus ONE out-of-vocabulary bucket, so the driver never holds
    more than ``top_n`` (token, n) rows no matter the corpus vocabulary.

    Fully distributed: exact counts via :func:`vocab_counts`; corpus
    totals (n_total, |V|) from per-batch integer partials; top-N by
    per-batch partial top-N + a tiny global sort/limit over at most
    n_batches x top_n candidate rows. Every OOV token scores as the
    AVERAGE leftover count c_oov = (n_total - top_mass) / (|V| - N) under
    the same add-one smoothing, keeping the whole model a pure function
    of exact corpus statistics — deterministic across partitionings and
    still SQL-reproducible (LIMIT + LEFT JOIN + CASE), unlike a sampled
    or sketched vocabulary."""
    import polars as pl
    import ray

    vocab = vocab_counts(ds)

    def totals_partial(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "v": pa.array([batch.num_rows], pa.int64()),
                "n": pa.array([int(n.sum())], pa.int64()),
            }
        )

    def partial_topn(batch: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(batch)
            .sort(["n", "token"], descending=[True, False])
            .head(top_n)
            .select("token", "n")
            .to_arrow()
        )

    # vocab is consumed twice (totals + top-N): materialize the merged
    # (token, n) table once — vocabulary-sized, object-store resident
    vocab = vocab.materialize()
    totals = vocab.map_batches(totals_partial, batch_format="pyarrow").take_all()
    v = sum(r["v"] for r in totals)
    n_total = sum(r["n"] for r in totals)
    top_rows = (
        vocab.map_batches(partial_topn, batch_format="pyarrow")
        .sort(["n", "token"], descending=[True, False])
        .limit(top_n)
        .take_all()
    )
    order = np.argsort(np.array([r["token"] for r in top_rows], dtype=object))
    tokens = np.array([top_rows[i]["token"] for i in order], dtype=object).astype(str)
    cnts = np.array([top_rows[i]["n"] for i in order], dtype=np.float64)
    top_mass = float(cnts.sum())
    denom = float(n_total + v)
    lps = np.log((cnts + 1.0) / denom) if len(cnts) else np.array([], np.float64)
    if v > len(tokens):
        c_oov = (n_total - top_mass) / (v - len(tokens))
        lp_oov = float(np.log((c_oov + 1.0) / denom))
    else:  # whole vocabulary fits: no OOV tokens exist; value is unused
        lp_oov = float(np.log(1.0 / max(denom, 1.0)))
    vocab_ref = ray.put((tokens, lps, lp_oov))

    return ds.select_columns(["doc_id", "text"]).map_batches(
        _make_scorer(vocab_ref), batch_format="pyarrow"
    )


def _bigram_partial(batch: pa.Table) -> pa.Table:
    """Per-batch exact (w1, w2, n) bigram-count partial: tokens explode
    per doc, the next token arrives via a grouped shift (frame order is
    doc-contiguous after explode, so shift(-1).over(doc) is the in-doc
    successor), doc-final positions drop. One tiny pre-aggregated row
    per distinct in-batch bigram — PLUS one (w, '', n) sentinel row per
    distinct in-batch unigram ('' can never be a token, TOKEN_RE matches
    >= 1 char), so the SAME scan also carries the vocabulary and a
    separate distinct-unigram pass is unnecessary."""
    import polars as pl

    col = batch.column("text")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    uni = (
        pl.DataFrame({"i": np.arange(len(batch), dtype=np.int64),
                      "t": pl.from_arrow(col)})
        .select("i", pl.col("t").str.extract_all(TOKEN_RE).alias("tok"))
        .explode("tok")
        .drop_nulls()
    )
    ex = (
        uni.with_columns(pl.col("tok").shift(-1).over("i").alias("t2"))
        .drop_nulls("t2")
    )
    agg = ex.group_by(["tok", "t2"]).len(name="n")
    vagg = uni.group_by("tok").len(name="n")
    return pa.Table.from_pydict(
        {
            "w1": pa.array(
                agg["tok"].to_list() + vagg["tok"].to_list(), pa.string()
            ),
            "w2": pa.array(
                agg["t2"].to_list() + [""] * vagg.height, pa.string()
            ),
            "n": pa.array(
                np.concatenate(
                    [agg["n"].to_numpy(), vagg["n"].to_numpy()]
                ).astype(np.int64),
                pa.int64(),
            ),
        }
    )


def bigram_logprob(ds, max_vocab: int = 5_000_000, score_ds=None):
    """Bigram LM quality scoring — the conditional-probability upgrade of
    :func:`unigram_logprob_batchfn` (CCNet-family scoring, Wenzek et al.
    2020, with the corpus's own add-one-smoothed bigram model so the
    whole operation stays SQL-reproducible): per-doc mean of
    ``ln((c(w1,w2) + 1) / (c1(w1) + V))`` over every adjacent token pair,
    where ``c`` is the exact corpus bigram count, ``c1(w1)`` the count of
    ``w1`` as a left context (= sum of its bigram counts) and ``V`` the
    exact distinct-unigram vocabulary size. Repetitive/boilerplate text
    scores HIGH (its transitions are common), incoherent text LOW.

    TWO streamed scans, none materializing the corpus: (1) per-batch
    (w1, w2, n) partials — bigram rows plus (w, '', n) unigram sentinel
    rows, so the same scan carries the vocabulary — merged INCREMENTALLY
    on the driver under a LOUD ``max_vocab`` guard (the same
    bounded-merge contract as the unigram exact variant — past the
    guard, a top-N bigram model with an OOV bucket is the scale path,
    the :func:`unigram_logprob_topn` shape); (2) a row-local scoring
    pass against the broadcast (sorted 'w1 w2' keys, logprobs, sorted
    contexts, context counts, V) model — unseen pairs score
    ``ln(1 / (c1(w1) + V))``, unseen contexts ``ln(1 / V)`` (never hit
    when scoring the training corpus itself, as the oracle does).

    Returns (doc_id, mean_logprob, n_bigrams) for docs with >= 2 tokens;
    shorter docs have no transitions and are absent on both sides.
    ``score_ds`` scores a DIFFERENT corpus under ``ds``'s model (held-out
    evaluation — where the OOV fallbacks actually fire); default scores
    the training corpus itself, which is what the SQL oracle can check."""
    import polars as pl
    import ray

    from . import resolve_broadcast

    parts = ds.select_columns(["text"]).map_batches(
        _bigram_partial, batch_format="pyarrow"
    )
    merged: pl.DataFrame | None = None
    pending: list[pl.DataFrame] = []

    def _merge(m, pend):
        frames = ([m] if m is not None else []) + pend
        out = pl.concat(frames).group_by(["w1", "w2"]).agg(pl.col("n").sum())
        if out.height > max_vocab:
            raise ValueError(
                f"bigram_logprob: bigram vocabulary exceeds "
                f"max_vocab={max_vocab}; a top-N bigram model with an OOV "
                "bucket (the unigram_logprob_topn shape) is the scale path"
            )
        return out

    for tb in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        if tb.num_rows:
            pending.append(pl.from_arrow(tb).select("w1", "w2", "n"))
        if len(pending) >= 64:
            merged = _merge(merged, pending)
            pending = []
    if pending:
        merged = _merge(merged, pending)
    if merged is None:
        merged = pl.DataFrame(
            {"w1": pl.Series([], dtype=pl.Utf8),
             "w2": pl.Series([], dtype=pl.Utf8),
             "n": pl.Series([], dtype=pl.Int64)}
        )

    v = int(merged.filter(pl.col("w2") == "").height)
    merged = merged.filter(pl.col("w2") != "")
    ctx = merged.group_by("w1").agg(pl.col("n").sum()).sort("w1")
    ctx_tokens = ctx["w1"].to_numpy().astype(str)
    ctx_counts = ctx["n"].to_numpy().astype(np.float64)
    merged = merged.with_columns(
        (pl.col("w1") + " " + pl.col("w2")).alias("k")
    ).sort("k")
    keys = merged["k"].to_numpy().astype(str)
    kpos = np.searchsorted(ctx_tokens, merged["w1"].to_numpy().astype(str))
    lps = np.log(
        (merged["n"].to_numpy().astype(np.float64) + 1.0)
        / (ctx_counts[kpos] + v)
    ) if merged.height else np.array([], np.float64)
    ref = ray.put((keys, lps, ctx_tokens, ctx_counts, float(max(v, 1))))

    def score(batch: pa.Table) -> pa.Table:
        bkeys, blps, bctx, bcnt, bv = resolve_broadcast(ref)
        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ex = (
            pl.DataFrame(
                {"doc_id": pl.from_arrow(batch.column("doc_id")),
                 "t": pl.from_arrow(col)}
            )
            .select("doc_id",
                    pl.col("t").str.extract_all(TOKEN_RE).alias("tok"))
            .explode("tok")
            .drop_nulls()
            .with_columns(pl.col("tok").shift(-1).over("doc_id").alias("t2"))
            .drop_nulls("t2")
        )
        if not len(ex):
            return pa.Table.from_pydict(
                {"doc_id": pa.array([], batch.column("doc_id").type),
                 "mean_logprob": pa.array([], pa.float64()),
                 "n_bigrams": pa.array([], pa.int64())}
            )
        w1 = ex["tok"].to_numpy().astype(str)
        pair = np.char.add(np.char.add(w1, " "),
                           ex["t2"].to_numpy().astype(str))
        if len(bctx):
            cpos = np.minimum(np.searchsorted(bctx, w1), len(bctx) - 1)
            c1 = np.where(bctx[cpos] == w1, bcnt[cpos], 0.0)
        else:
            c1 = np.zeros(len(w1))
        if len(bkeys):
            ppos = np.minimum(np.searchsorted(bkeys, pair), len(bkeys) - 1)
            lp = np.where(bkeys[ppos] == pair, blps[ppos],
                          np.log(1.0 / (c1 + bv)))
        else:
            lp = np.log(1.0 / (c1 + bv))
        agg = (
            ex.with_columns(pl.Series("lp", lp))
            .group_by("doc_id", maintain_order=True)
            .agg(pl.col("lp").mean().alias("m"), pl.len().alias("nb"))
        )
        m = np.floor(agg["m"].to_numpy() * 1e6 + 0.5) / 1e6
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(agg["doc_id"].to_list()),
                "mean_logprob": pa.array(m, pa.float64()),
                "n_bigrams": pa.array(
                    agg["nb"].to_numpy().astype(np.int64), pa.int64()
                ),
            }
        )

    target = score_ds if score_ds is not None else ds
    return target.select_columns(["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow"
    )


GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_rules_batch(batch: pa.Table) -> pa.Table:
    """Gopher quality-filter signals (Rae et al. 2021, "Scaling Language
    Models: ... Gopher", App. A1.1 — public knowledge) per document, plus
    the combined ``gopher_keep`` decision. Row-local and fully vectorized
    (RE2 count kernels, numpy ratio math) — the canonical pre-training
    quality gate a 100 TB pipeline runs right after language ID.

    Signals (words = whitespace-delimited ``\\S+`` runs; lines = ``\\n``
    splits; ratios 6dp floor-rounded to hash-match the SQL oracle):

    - ``n_words``; ``mean_word_len`` = non-space chars / words
    - ``symbol_ratio`` = (#, …, ``...`` occurrences) / words
    - ``alpha_word_ratio`` = words containing a letter / words
    - ``bullet_line_ratio`` / ``ellipsis_line_ratio`` — lines starting
      with a bullet char, lines ending in an ellipsis
    - ``stopword_hits`` — how many of Gopher's 8 required stopwords
      appear as whole words
    - ``gopher_keep`` — the paper's thresholds: 50 <= words <= 100k,
      3 <= mean word length <= 10, symbol ratio <= 0.1, alpha-word
      ratio >= 0.8, bullet lines <= 90%, ellipsis lines <= 30%,
      >= 2 stopwords. Comparisons run on the ROUNDED ratios so both
      engines cut on the identical double.

    The repetition half of Gopher's filter (duplicate n-gram fraction)
    is :func:`repetition_batch`; this is the document-statistics half."""
    text = batch.column("text")
    n_words = pc.count_substring_regex(text, pattern=r"\S+").to_numpy(
        zero_copy_only=False
    ).astype(np.float64)
    nonspace = pc.count_substring_regex(text, pattern=r"\S").to_numpy(
        zero_copy_only=False
    ).astype(np.float64)
    symbols = (
        pc.count_substring(text, pattern="#").to_numpy(zero_copy_only=False)
        + pc.count_substring(text, pattern="…").to_numpy(zero_copy_only=False)
        + pc.count_substring_regex(text, pattern=r"\.\.\.").to_numpy(
            zero_copy_only=False
        )
    ).astype(np.float64)
    alpha_words = pc.count_substring_regex(
        text, pattern=r"\S*[A-Za-z]\S*"
    ).to_numpy(zero_copy_only=False).astype(np.float64)
    n_lines = (
        pc.count_substring(text, pattern="\n").to_numpy(zero_copy_only=False)
        + 1
    ).astype(np.float64)
    bullet_lines = pc.count_substring_regex(
        text, pattern=r"(?m)^[ \t]*[-*•]"
    ).to_numpy(zero_copy_only=False).astype(np.float64)
    ellipsis_lines = pc.count_substring_regex(
        text, pattern=r"(?m)(\.\.\.|…)[ \t]*$"
    ).to_numpy(zero_copy_only=False).astype(np.float64)
    hits = np.zeros(len(batch), dtype=np.int64)
    for w in GOPHER_STOPWORDS:
        hits += (
            pc.count_substring_regex(text, pattern=rf"\b{w}\b")
            .to_numpy(zero_copy_only=False)
            > 0
        )

    def r6(x: np.ndarray) -> np.ndarray:
        return np.floor(x * 1e6 + 0.5) / 1e6

    wden = np.maximum(n_words, 1.0)
    mean_word_len = r6(nonspace / wden)
    symbol_ratio = r6(symbols / wden)
    alpha_word_ratio = r6(alpha_words / wden)
    bullet_line_ratio = r6(bullet_lines / n_lines)
    ellipsis_line_ratio = r6(ellipsis_lines / n_lines)
    keep = (
        (n_words >= 50)
        & (n_words <= 100_000)
        & (mean_word_len >= 3.0)
        & (mean_word_len <= 10.0)
        & (symbol_ratio <= 0.1)
        & (alpha_word_ratio >= 0.8)
        & (bullet_line_ratio <= 0.9)
        & (ellipsis_line_ratio <= 0.3)
        & (hits >= 2)
    )
    out = batch.append_column("n_words", pa.array(n_words.astype(np.int64)))
    out = out.append_column("mean_word_len", pa.array(mean_word_len))
    out = out.append_column("symbol_ratio", pa.array(symbol_ratio))
    out = out.append_column("alpha_word_ratio", pa.array(alpha_word_ratio))
    out = out.append_column("bullet_line_ratio", pa.array(bullet_line_ratio))
    out = out.append_column("ellipsis_line_ratio", pa.array(ellipsis_line_ratio))
    out = out.append_column("stopword_hits", pa.array(hits))
    return out.append_column("gopher_keep", pa.array(keep))


def temperature_weights(ds, tau: float = 0.7, group_col: str = "lang",
                        max_groups: int = 100_000):
    """Temperature-scaled sampling weights per group (multilingual
    pre-training mixing, public knowledge: Conneau et al. 2020 XLM-R §3 /
    Raffel et al. 2020 mT5): with p_g = group token share, sample group g
    with probability w_g = p_g^tau / sum_h p_h^tau. tau < 1 upsamples
    low-resource groups; ``upsample`` = w_g / p_g is the implied per-doc
    repetition factor.

    Distributed shape: per-batch (group, n_tokens) partials (one tiny row
    per in-batch group) -> small groupby sum -> the <= ``max_groups``-row
    result collects to the driver (LOUD guard — groups are languages /
    sources, orders of magnitude under the cap at any corpus size) for
    the closed-form normalize, sorted by group so the float reduction
    order is deterministic. Returns a pyarrow Table
    (group, n_tokens, weight, upsample), 6dp."""
    import polars as pl

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        g = batch.column(group_col)
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        agg = (
            pl.DataFrame(
                {"g": pl.from_arrow(g),
                 "n": pl.from_arrow(
                     pc.count_substring_regex(col, pattern=TOKEN_RE))}
            )
            .group_by("g")
            .agg(pl.col("n").sum())
        )
        return pa.Table.from_pydict(
            {group_col: pa.array(agg["g"].to_list(), pa.string()),
             "n_tokens": pa.array(
                 agg["n"].to_numpy().astype(np.int64), pa.int64())}
        )

    import pandas as pd

    from ray.data.aggregate import Sum

    counts = (
        ds.select_columns([group_col, "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(Sum("n_tokens", alias_name="n_tokens"))
        .take_all()
    )
    if len(counts) > max_groups:
        raise ValueError(
            f"temperature_weights: more than max_groups={max_groups} "
            f"groups — temperature mixing is defined over languages/"
            "sources; a per-document key is the wrong input"
        )
    df = pd.DataFrame(counts).sort_values(group_col).reset_index(drop=True)
    nt = df["n_tokens"].to_numpy().astype(np.float64)
    p = nt / nt.sum()
    pw = np.power(p, tau)
    w = pw / pw.sum()
    r6 = lambda x: np.floor(x * 1e6 + 0.5) / 1e6
    return pa.Table.from_pydict(
        {
            group_col: pa.array(df[group_col], pa.string()),
            "n_tokens": pa.array(df["n_tokens"].to_numpy().astype(np.int64)),
            "weight": pa.array(r6(w), pa.float64()),
            "upsample": pa.array(r6(w / p), pa.float64()),
        }
    )


def _gram_frame(batch: pa.Table, id_col: str):
    """(id, gram) polars frame: unigram tokens plus space-joined adjacent
    bigrams (the DSIR hashed-n-gram featurization, orders 1+2)."""
    import polars as pl

    col = batch.column("text")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    ids = batch.column(id_col)
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    uni = (
        pl.DataFrame({"id": pl.from_arrow(ids), "t": pl.from_arrow(col)})
        .select("id", pl.col("t").str.extract_all(TOKEN_RE).alias("g"))
        .explode("g")
        .drop_nulls()
    )
    bi = (
        uni.with_columns(
            (pl.col("g") + " " + pl.col("g").shift(-1).over("id")).alias("g2")
        )
        .drop_nulls("g2")
        .select("id", pl.col("g2").alias("g"))
    )
    return pl.concat([uni, bi])


def dsir_scores(ds, target_ds, n_buckets: int = 1024, id_col: str = "doc_id"):
    """DSIR importance scores (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling" — public knowledge): score
    every corpus doc by how target-like its hashed n-gram profile is.
    Features are unigrams + space-joined bigrams hashed into
    ``n_buckets`` buckets with the PINNED md5-prefix hash (``md5_u32 %
    m`` == SQL ``('0x' || substr(md5(g), 1, 8))::UBIGINT % m`` — the
    version-stable routing contract, not polars' unstable hash). Bucket
    bag models with add-one smoothing give per-bucket
    ``lr_b = ln p_target(b) - ln q_corpus(b)``; a doc's score is the sum
    of ``lr`` over its grams (round 6dp), its normalized form available
    as score/n_grams downstream. Selection = top-k or threshold on the
    score — both already library primitives.

    Scale shape: two streamed counting passes emit per-batch (bucket, n)
    partials — at most ``n_buckets`` tiny rows each — merged by one
    small groupby; the two m-long dense vectors collapse to a broadcast
    ``lr`` table read once per scoring task; the scoring pass is
    row-local (explode -> md5 gather -> per-doc sum), zero shuffle.
    Nothing driver-side ever exceeds ``n_buckets`` rows."""
    import polars as pl
    import ray

    from ray.data.aggregate import Sum

    from . import resolve_broadcast
    from ..md5np import md5_u32

    m = int(n_buckets)

    def bucket_partial(batch: pa.Table) -> pa.Table:
        ex = _gram_frame(batch, id_col)
        if not len(ex):
            return pa.Table.from_pydict(
                {"bkt": pa.array([], pa.int64()),
                 "n": pa.array([], pa.int64())}
            )
        bkt = (md5_u32(pa.array(ex["g"].to_list(), pa.string())) % m).astype(
            np.int64
        )
        agg = (
            pl.DataFrame({"bkt": bkt})
            .group_by("bkt")
            .len(name="n")
        )
        return pa.Table.from_pydict(
            {"bkt": pa.array(agg["bkt"].to_numpy(), pa.int64()),
             "n": pa.array(agg["n"].to_numpy().astype(np.int64), pa.int64())}
        )

    def dense_counts(d) -> np.ndarray:
        rows = (
            d.select_columns([id_col, "text"])
            .map_batches(bucket_partial, batch_format="pyarrow")
            .groupby("bkt")
            .aggregate(Sum("n", alias_name="n"))
            .take_all()
        )  # <= m rows by construction
        out = np.zeros(m, dtype=np.float64)
        for r in rows:
            out[int(r["bkt"])] = float(r["n"])
        return out

    tc = dense_counts(target_ds)
    cc = dense_counts(ds)
    lr = np.log((tc + 1.0) / (tc.sum() + m)) - np.log(
        (cc + 1.0) / (cc.sum() + m)
    )
    ref = ray.put(lr)

    def score(batch: pa.Table) -> pa.Table:
        blr = resolve_broadcast(ref)
        ex = _gram_frame(batch, id_col)
        if not len(ex):
            return pa.Table.from_pydict(
                {id_col: pa.array([], batch.column(id_col).type),
                 "dsir_score": pa.array([], pa.float64()),
                 "n_grams": pa.array([], pa.int64())}
            )
        bkt = md5_u32(pa.array(ex["g"].to_list(), pa.string())) % m
        agg = (
            ex.with_columns(pl.Series("lr", blr[bkt]))
            .group_by("id", maintain_order=True)
            .agg(pl.col("lr").sum().alias("s"), pl.len().alias("n"))
        )
        s = np.floor(agg["s"].to_numpy() * 1e6 + 0.5) / 1e6
        return pa.Table.from_pydict(
            {
                id_col: pa.array(agg["id"].to_list()),
                "dsir_score": pa.array(s, pa.float64()),
                "n_grams": pa.array(
                    agg["n"].to_numpy().astype(np.int64), pa.int64()
                ),
            }
        )

    return ds.select_columns([id_col, "text"]).map_batches(
        score, batch_format="pyarrow"
    )


def bm25_topk(ds, query_terms, k: int = 10, k1: float = 1.2,
              b: float = 0.75, id_col: str = "doc_id"):
    """BM25 top-k retrieval over the corpus — the keyword-search baseline
    (Robertson/Spärck Jones probabilistic ranking, Lucene IDF form
    ln((N - df + 0.5)/(df + 0.5) + 1)) that complements the embedding
    ANN family for corpus triage ("find the docs about X").

    Two streamed scans, zero shuffle beyond a k-row sort:

    1. corpus stats — per-batch ONE partial row (n_docs, total token
       length, per-query-term document frequency) reduced by
       ``Dataset.sum``; the reduce payload is (T+2) ints per batch.
    2. scoring — per-batch vectorized polars/numpy: explode tokens,
       keep query-term hits via searchsorted, tf by bincount on
       (row, term) keys sorted for a deterministic add order, score
       rounded 6dp half-away; each batch emits only its LOCAL top-k, so
       the global sort sees k x n_batches rows, not the corpus.

    Returns the global top ``k`` (doc_id, score) rows ordered by
    (score DESC, doc_id ASC) — ties broken on the ROUNDED score exactly
    like the DuckDB oracle. Docs containing no query term never score."""
    import polars as pl

    terms = sorted(set(query_terms))
    if not terms:
        raise ValueError("bm25_topk: query_terms must be non-empty")
    T = len(terms)
    terms_arr = np.array(terms, dtype=str)

    def stats_partial(batch: pa.Table) -> pa.Table:
        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        toks = pl.from_arrow(col).str.extract_all(TOKEN_RE)
        lens = toks.list.len().cast(pl.Int64).to_numpy()
        d = (
            pl.DataFrame({"i": np.arange(len(lens)), "t": toks})
            .explode("t")
            .drop_nulls("t")
            .unique()
        )
        out = {
            "n_docs": [len(lens)],
            "total_len": [int(lens.sum())],
        }
        if d.height:
            tv = d["t"].to_numpy().astype(str)
            pos = np.minimum(np.searchsorted(terms_arr, tv), T - 1)
            hit = terms_arr[pos] == tv
            counts = np.bincount(pos[hit], minlength=T)
        else:
            counts = np.zeros(T, dtype=np.int64)
        for j in range(T):
            out[f"df_{j}"] = [int(counts[j])]
        return pa.Table.from_pydict(out)

    stats = ds.select_columns(["text"]).map_batches(
        stats_partial, batch_format="pyarrow"
    )
    sums = stats.sum(["n_docs", "total_len"] + [f"df_{j}" for j in range(T)])
    n_docs = int(sums["sum(n_docs)"])
    avgdl = float(sums["sum(total_len)"]) / max(1, n_docs)
    df = np.array(
        [int(sums[f"sum(df_{j})"]) for j in range(T)], dtype=np.float64
    )
    idf = np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)

    def score_batch(batch: pa.Table) -> pa.Table:
        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        base = pl.DataFrame(
            {id_col: pl.from_arrow(batch.column(id_col)),
             "t": pl.from_arrow(col)}
        ).with_columns(pl.col("t").str.extract_all(TOKEN_RE).alias("t"))
        dlen = base["t"].list.len().cast(pl.Int64).to_numpy()
        ex = (
            base.with_row_index("i")
            .select("i", "t")
            .explode("t")
            .drop_nulls("t")
        )
        empty = pa.table(
            {
                id_col: pa.array([], batch.schema.field(id_col).type),
                "score": pa.array([], pa.float64()),
            }
        )
        if not ex.height:
            return empty
        tv = ex["t"].to_numpy().astype(str)
        pos = np.minimum(np.searchsorted(terms_arr, tv), T - 1)
        hit = terms_arr[pos] == tv
        if not hit.any():
            return empty
        rows = ex["i"].to_numpy().astype(np.int64)[hit]
        term = pos[hit]
        key = rows * T + term
        tf = np.bincount(key, minlength=len(dlen) * T).reshape(-1, T)
        # rows with at least one query term
        alive = tf.sum(axis=1) > 0
        tf = tf[alive].astype(np.float64)
        dl = dlen[alive].astype(np.float64)
        denom = tf + k1 * (1.0 - b + b * (dl / avgdl))[:, None]
        contrib = np.where(
            tf > 0, idf[None, :] * tf * (k1 + 1.0) / denom, 0.0
        )
        # fixed ascending-term add order -> deterministic float sum
        score = np.floor(contrib.sum(axis=1) * 1e6 + 0.5) / 1e6
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)[alive]
        # local top-k only: (score desc, id asc)
        order = np.lexsort((ids, -score))[:k]
        return pa.table(
            {
                id_col: pa.array(ids[order],
                                 batch.schema.field(id_col).type),
                "score": pa.array(score[order], pa.float64()),
            }
        )

    scored = ds.select_columns([id_col, "text"]).map_batches(
        score_batch, batch_format="pyarrow"
    )
    return scored.sort(["score", id_col], descending=[True, False]).limit(k)


def chunk_documents(ds, chunk_tokens: int = 64, overlap: int = 16):
    """Token-window document chunking — the context-chunking pass of a
    RAG / training pipeline: each doc explodes into windows of
    ``chunk_tokens`` tokens stepping by ``chunk_tokens - overlap``
    (the canonical text is the space-joined token window, so the whole
    derivation is SQL-reproducible). Row-local flat-map, fully
    vectorized (polars token extract + per-row window starts + list
    slices + explode); no shuffle. Output: (doc_id, chunk_idx,
    chunk_text, n_tokens); docs with no tokens emit nothing. A window is
    emitted at every start in {0, step, 2*step, ...} with start <
    n_tokens — so the final window may consist entirely of tokens
    already covered by the previous window's overlap (the DuckDB oracle
    implements the identical range rule)."""
    import polars as pl

    step = chunk_tokens - overlap
    if step <= 0:
        raise ValueError("chunk_documents: overlap must be < chunk_tokens")

    def fn(batch: pa.Table) -> pa.Table:
        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        d = pl.DataFrame(
            {"doc_id": pl.from_arrow(batch.column("doc_id")),
             "t": pl.from_arrow(col)}
        ).with_columns(pl.col("t").str.extract_all(TOKEN_RE).alias("t"))
        n = pl.col("t").list.len()
        # window starts 0, step, 2*step, ... while start < n_tokens;
        # int_ranges is empty for n == 0, dropping tokenless docs
        d = (
            d.with_columns(pl.int_ranges(0, n, step).alias("start"))
            .explode("start")
            .drop_nulls("start")
            .with_columns(
                pl.col("t").list.slice(pl.col("start"), chunk_tokens).alias("w"),
                (pl.col("start") // step).alias("chunk_idx"),
            )
            .select(
                "doc_id",
                pl.col("chunk_idx").cast(pl.Int64),
                pl.col("w").list.join(" ").alias("chunk_text"),
                pl.col("w").list.len().cast(pl.Int64).alias("n_tokens"),
            )
        )
        return d.to_arrow()

    return ds.select_columns(["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow"
    )


# PII patterns — RE2 syntax so pyarrow (re2) and DuckDB (re2) agree exactly.
PII_EMAIL_RE = r"[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}"
PII_PHONE_RE = r"\b555-[0-9]{1,4}\b"
PII_IPV4_RE = r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b"


def redact_pii(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Scrub PII from a text column — the redaction pass of a
    training-data curation pipeline: emails, phone-shaped numbers and
    IPv4 addresses replace with typed placeholders, and per-row match
    counts are emitted for audit. Fully vectorized (pyarrow re2 kernels,
    shared patterns with the DuckDB oracle); row-local, no shuffle.

    Order matters and is part of the contract: emails first (an email
    can contain digit runs), then IPv4 (dotted quads would otherwise be
    half-eaten by the phone rule), then phones."""
    text = batch.column(text_col)
    n_emails = pc.cast(pc.count_substring_regex(text, pattern=PII_EMAIL_RE),
                       pa.int64())
    n_ips = pc.cast(pc.count_substring_regex(text, pattern=PII_IPV4_RE),
                    pa.int64())
    n_phones = pc.cast(pc.count_substring_regex(text, pattern=PII_PHONE_RE),
                       pa.int64())
    clean = pc.replace_substring_regex(text, pattern=PII_EMAIL_RE,
                                       replacement="<EMAIL>")
    clean = pc.replace_substring_regex(clean, pattern=PII_IPV4_RE,
                                       replacement="<IP>")
    clean = pc.replace_substring_regex(clean, pattern=PII_PHONE_RE,
                                       replacement="<PHONE>")
    out = batch.append_column("clean_text", clean)
    out = out.append_column("n_emails", n_emails)
    out = out.append_column("n_ips", n_ips)
    return out.append_column("n_phones", n_phones)


def js_divergence_by_source(
    ds,
    source_col: str = "source",
    text_col: str = "text",
    max_sources: int = 64,
):
    """Pairwise Jensen-Shannon divergence (bits) between the token
    distributions of every two corpus slices — the distribution-drift
    diagnostic run before mixing sources into a training set (public
    measure; Lin 1991). JS = 0.5 KL(P||M) + 0.5 KL(Q||M), M = (P+Q)/2,
    over the full shared vocabulary (a token absent from one side
    contributes p/2 mass to M — no smoothing constant to tune).

    Scale shape: (1) per-batch (source, token, n) combiner rows — the
    shuffle carries vocabulary partials, never text — materialized ONCE
    (the heavy-hitters lesson: two consumers would otherwise re-tokenize
    the corpus); (2) per-source totals are a tiny groupby collected under
    the loud ``max_sources`` guard; (3) tokens hash-bucket and each
    bucket pivots to a token x source count matrix and emits one partial
    JS sum per (pair, bucket) — C(S,2) x ``default_n_buckets()`` bounded
    rows; (4) the driver sorts partials (deterministic float
    accumulation) and sums.
    6dp half-away round on both engines absorbs libm ln() ulps."""
    import pandas as pd
    import polars as pl

    import ray.data as rd  # noqa: F401

    from . import bucketed_group_apply, round_half_away

    def partial(batch: pa.Table) -> pa.Table:
        t = pl.from_arrow(
            batch.select([source_col, text_col])
        ).with_columns(pl.col(text_col).str.extract_all(TOKEN_RE).alias("tok"))
        return (
            t.select([source_col, "tok"])
            .explode("tok")
            .drop_nulls()
            .group_by([source_col, "tok"])
            .len()
            .rename({"len": "n"})
            .cast({"n": pl.Int64})
            .to_arrow()
        )

    partials = ds.select_columns([source_col, text_col]).map_batches(
        partial, batch_format="pyarrow"
    ).materialize()

    # per-source token totals: one <=max_sources-row partial per block,
    # merged on the DRIVER — integer sums are order-free so no Ray
    # groupby is needed (a groupby here measured 2.5 s of fixed shuffle
    # overhead on a 38k-row partials table). Driver rows are bounded by
    # max_sources x n_blocks; insert one compaction map_batches before
    # the collect if a corpus ever makes that matter.
    def tot_partial(batch: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(batch)
            .group_by(source_col)
            .agg(pl.col("n").sum())
            .to_arrow()
        )

    tot_rows = partials.map_batches(
        tot_partial, batch_format="pyarrow"
    ).take_all()
    acc: dict = {}
    for r in tot_rows:
        acc[r[source_col]] = acc.get(r[source_col], 0) + int(r["n"])
    if len(acc) > max_sources:
        raise ValueError(
            f"js_divergence_by_source: > {max_sources} sources — the "
            "pairwise output is quadratic; raise max_sources deliberately"
        )
    sources = sorted(acc)
    totals = {s: float(n) for s, n in acc.items()}
    pairs = [
        (a, b) for i, a in enumerate(sources) for b in sources[i + 1:]
    ]

    src_index = {s: i for i, s in enumerate(sources)}
    tot_vec = np.array([totals[s] for s in sources])
    pair_a = pa.array([a for a, _ in pairs], pa.string())
    pair_b = pa.array([b for _, b in pairs], pa.string())
    ii = np.array([src_index[a] for a, _ in pairs])
    jj = np.array([src_index[b] for _, b in pairs])

    def per_bucket(g: pa.Table) -> pa.Table:
        # token x source probability matrix, then EVERY pair's KL terms in
        # one broadcast: ta[t,i,j] = P[t,i] * ln(2 P[t,i] / (P[t,i] +
        # P[t,j])) and the j-side term is its transpose, so js_mat =
        # 0.5 (ta.sum(0) + ta.sum(0).T) — no per-pair Python loop. Arrow
        # in/out: emitting per-group PANDAS string frames from map_groups
        # measured 10.4 s for 27 tiny buckets at sf0.1; the identical
        # arrow-block output runs in ~2 s.
        gd = g.to_pandas()
        tok_codes, _ = pd.factorize(gd["tok"], sort=True)
        src_codes = gd[source_col].map(src_index).to_numpy()
        T = int(tok_codes.max()) + 1 if len(gd) else 0
        P = np.zeros((T, len(sources)))
        np.add.at(P, (tok_codes, src_codes), gd["n"].to_numpy(dtype=np.float64))
        P /= tot_vec
        X = P[:, :, None]
        S_ = X + P[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = np.where(X > 0, X * np.log(np.where(X > 0, 2.0 * X / S_, 1.0)), 0.0)
        half = ta.sum(axis=0)
        js_mat = 0.5 * (half + half.T) / np.log(2.0)
        return pa.table(
            {"src_a": pair_a, "src_b": pair_b,
             "part": pa.array(js_mat[ii, jj])}
        )

    rows = bucketed_group_apply(
        partials, "tok", per_bucket, batch_format="pyarrow",
    ).take_all()
    df = pd.DataFrame(rows).sort_values(
        ["src_a", "src_b", "part"], kind="mergesort"
    )
    agg = df.groupby(["src_a", "src_b"], as_index=False)["part"].sum()
    return pa.Table.from_pydict(
        {
            "src_a": agg["src_a"].tolist(),
            "src_b": agg["src_b"].tolist(),
            "js_bits": [round_half_away(v, 6) for v in agg["part"]],
        }
    )


def compression_stats(
    ds,
    group_col: str = "source",
    level: int = 6,
    dup_ratio_pct: int = 35,
):
    """Per-group zlib compressibility audit — the cheap repetition /
    boilerplate signal web-scale curation uses alongside the Gopher
    rules (highly compressible text is template or repeated content): per
    group emit ``n_docs``, total raw and deflate(level)-compressed UTF-8
    byte counts, the aggregate ``compression_ratio`` (compressed/raw,
    6dp), and ``n_highly_compressible`` — docs whose per-doc ratio falls
    below ``dup_ratio_pct``/100 (compared in INTEGERS:
    ``100*comp < pct*raw``, no float boundary).

    Not SQL-expressible (no deflate in DuckDB) -> golden-pinned,
    rows-only at the driver. Determinism: zlib output is fixed for a
    given level and library build, and every aggregate here is an
    INTEGER sum (partition-order independent); the one float division
    happens after the merge. Scale shape: the compressor is C-speed and
    streams per batch (the unavoidable per-row Python loop hands each
    text straight to zlib — cost is dominated by the compression
    itself); partials are a few ints per group per batch."""
    import zlib

    import pandas as pd

    from . import bucketed_group_apply, round_half_away_np

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        raw = np.array([len(t.encode("utf-8")) for t in texts], np.int64)
        comp = np.array(
            [len(zlib.compress(t.encode("utf-8"), level)) for t in texts],
            np.int64,
        )
        df = pd.DataFrame(
            {
                "g": batch.column(group_col).to_pandas(),
                "n_docs": 1,
                "raw_bytes": raw,
                "comp_bytes": comp,
                "n_highly_compressible": (100 * comp < dup_ratio_pct * raw
                                          ).astype(np.int64),
            }
        )
        agg = df.groupby("g", as_index=False).sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("g", as_index=False).sum()
        for c in ("n_docs", "raw_bytes", "comp_bytes", "n_highly_compressible"):
            out[c] = out[c].astype(np.int64)
        out["compression_ratio"] = round_half_away_np(
            out["comp_bytes"].to_numpy() / out["raw_bytes"].to_numpy(), 6
        )
        return out.rename(columns={"g": group_col})

    partials = ds.select_columns([group_col, "text"]).map_batches(
        partial, batch_format="pyarrow"
    )
    return bucketed_group_apply(partials, "g", merge)


def vocab_overlap_by_source(ds, max_pairs: int = 100_000):
    """Pairwise Jaccard similarity between per-source VOCABULARIES
    (distinct token sets) — the set-overlap counterpart of the
    distributional JS divergence: how much two sources share words at
    all, regardless of frequency. All-integer co-occurrence math, one
    float division per pair (6dp).

    Scale shape: per-batch DISTINCT (source, token) partials, then ONE
    token-bucketed pass — every bucket dedups its (source, token) rows
    exactly, emits per-token source-pair co-occurrence counts AND
    per-source distinct-token counts (as diagonal (s, s, n) rows); the
    <= (|sources|^2) x n_buckets partials merge on the driver under a
    loud guard. The corpus never shuffles — only (source, token) rows."""
    import pandas as pd

    from . import bucketed_group_apply, round_half_away_np

    def partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        src = batch.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        d = pl.DataFrame(
            {"source": pl.Series(src), "t": pl.Series(col)}
        ).with_columns(pl.col("t").str.extract_all(TOKEN_RE))
        out = d.explode("t").drop_nulls("t").unique(["source", "t"])
        return out.to_arrow()

    def per_bucket(tb: pa.Table) -> pa.Table:
        df = tb.to_pandas().drop_duplicates(["source", "t"])
        # per-source distinct-token partials ride as diagonal rows
        diag = df.groupby("source", as_index=False).size()
        diag = pd.DataFrame(
            {"src_a": diag["source"], "src_b": diag["source"],
             "n": diag["size"].astype(np.int64)}
        )
        rows_a, rows_b = [], []
        for _, sub in df.groupby("t", sort=False):
            ss = np.sort(sub["source"].to_numpy())
            if len(ss) < 2:
                continue
            iu, iv = np.triu_indices(len(ss), k=1)
            rows_a.append(ss[iu])
            rows_b.append(ss[iv])
        if rows_a:
            pairs = pd.DataFrame(
                {"src_a": np.concatenate(rows_a),
                 "src_b": np.concatenate(rows_b)}
            ).groupby(["src_a", "src_b"], as_index=False).size()
            pairs["n"] = pairs.pop("size").astype(np.int64)
            out = pd.concat([diag, pairs], ignore_index=True)
        else:
            out = diag
        return pa.Table.from_pandas(out, preserve_index=False)

    partials = (
        ds.select_columns(["source", "text"])
        .map_batches(partial, batch_format="pyarrow")
    )
    rows = bucketed_group_apply(
        partials, "t", per_bucket, batch_format="pyarrow"
    ).take(max_pairs + 1)
    if len(rows) > max_pairs:
        raise ValueError(
            f"vocab_overlap_by_source: > {max_pairs} pair partials — "
            "too many sources for the all-pairs report; raise max_pairs "
            "deliberately"
        )
    df = pd.DataFrame(rows, columns=["src_a", "src_b", "n"])
    agg = df.groupby(["src_a", "src_b"])["n"].sum()
    totals = {a: int(v) for (a, b), v in agg.items() if a == b}
    pairs = agg[[a != b for a, b in agg.index]].reset_index()
    co = pairs["n"].to_numpy().astype(np.int64)
    na = pairs["src_a"].map(totals).to_numpy().astype(np.int64)
    nb = pairs["src_b"].map(totals).to_numpy().astype(np.int64)
    jac = round_half_away_np(co / (na + nb - co), 6)
    import ray.data as rd

    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "src_a": pa.array(pairs["src_a"].tolist(), pa.string()),
                "src_b": pa.array(pairs["src_b"].tolist(), pa.string()),
                "jaccard": pa.array(jac, pa.float64()),
            }
        )
    )


def vocab_growth(ds, seed: int = 7, n_slices: int = 10, n_docs: int | None = None):
    """Heaps-law vocabulary-growth curve: cumulative distinct tokens
    after each decile of the corpus in the seeded md5 training-shuffle
    order — the is-more-data-still-adding-vocabulary audit that sizes
    tokenizer/vocab budgets before a training run.

    Shape: the seeded_shuffle_rank contract assigns every doc its global
    position (no global sort); ONE orderkey hash join attaches positions
    to texts; per-batch polars tokenize emits local min-position per
    token (the shuffle carries one (token, fp) row per distinct token
    per batch — never token occurrences); a token-bucketed min merge
    yields each token's first position; the decile histogram is ten
    integer partials per batch summed on the driver. All-integer, exact
    vs the SQL min-pos rewrite of cumulative COUNT DISTINCT."""
    import pandas as pd
    import polars as pl

    import ray.data as rd

    from . import bucketed_group_apply
    from .dedup import seeded_shuffle_rank
    from .joins import bucketed_merge_join

    ranks = seeded_shuffle_rank(ds.select_columns(["doc_id"]), seed=seed)
    if n_docs is None:
        n_docs = ds.count()
    # ceil(N*d/10.0) in DOUBLE — the oracle's op order (fraction parts
    # are >= 0.1 away from integers, so float ceil is exact here)
    thr = np.ceil(
        n_docs * np.arange(1, n_slices + 1) / float(n_slices)
    ).astype(np.int64)

    joined = bucketed_merge_join(
        ds.select_columns(["doc_id", "text"]),
        ranks,
        on="doc_id",
    )

    def tok_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.Table.from_pydict(
                {"token": pa.array([], pa.string()),
                 "fp": pa.array([], pa.int64())}
            )
        df = (
            pl.from_arrow(batch.select(["text", "shuffle_pos"]))
            .with_columns(pl.col("text").str.extract_all(TOKEN_RE).alias("tok"))
            .drop("text")
            .explode("tok")
            .drop_nulls("tok")
            .group_by("tok")
            .agg(pl.col("shuffle_pos").min().alias("fp"))
            .rename({"tok": "token"})
        )
        return df.to_arrow()

    partials = joined.map_batches(tok_partial, batch_format="pyarrow")

    def min_merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("token", as_index=False)["fp"].min()[["fp"]]

    firstpos = bucketed_group_apply(partials, "token", min_merge)

    def hist(batch: pa.Table) -> pa.Table:
        fp = batch.column("fp").to_numpy()
        # decile where the token first counts: first threshold > fp
        d0 = np.searchsorted(thr, fp, side="right")
        counts = np.bincount(d0, minlength=n_slices)[:n_slices]
        return pa.Table.from_pydict(
            {"d": pa.array(np.arange(1, n_slices + 1, dtype=np.int64)),
             "n": pa.array(counts.astype(np.int64))}
        )

    acc = np.zeros(n_slices, dtype=np.int64)
    for r in firstpos.map_batches(hist, batch_format="pyarrow").take_all():
        acc[int(r["d"]) - 1] += int(r["n"])
    return rd.from_arrow(
        pa.Table.from_pydict(
            {"decile": pa.array(np.arange(1, n_slices + 1, dtype=np.int64)),
             "vocab": pa.array(np.cumsum(acc))}
        )
    )


def langid_confusion(ds, max_cells: int = 100_000):
    """Confusion matrix of the n-gram langid heuristic against the
    corpus's ground-truth ``lang`` column — the model-evaluation counts
    every curation pipeline should emit before trusting a classifier
    gate (per-class precision/recall derive from these rows by two
    divisions). One streamed pass: langid per batch (row-local), then
    (truth, pred) integer count partials merged on the driver under a
    loud ``max_cells`` guard (|langs|² cells — bounded by construction).
    All-integer, exact vs the SQL CASE-expression oracle."""
    import pandas as pd

    import ray.data as rd

    def partial(batch: pa.Table) -> pa.Table:
        scored = langid_batch(batch)
        df = pd.DataFrame(
            {
                "lang": scored.column("lang").to_pylist(),
                "pred_lang": scored.column("pred_lang").to_pylist(),
            }
        )
        agg = df.groupby(["lang", "pred_lang"], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    long = ds.select_columns(["doc_id", "text", "lang"]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_cells + 1)
    if len(long) > max_cells:
        raise ValueError(
            f"langid_confusion: > {max_cells} cells — raise max_cells "
            "deliberately"
        )
    df = pd.DataFrame(long, columns=["lang", "pred_lang", "size"])
    agg = (
        df.groupby(["lang", "pred_lang"], as_index=False)["size"]
        .sum()
        .rename(columns={"size": "n"})
        .sort_values(["lang", "pred_lang"])
    )
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "lang": pa.array(agg["lang"], pa.string()),
                "pred_lang": pa.array(agg["pred_lang"], pa.string()),
                "n": pa.array(agg["n"].to_numpy(np.int64)),
            }
        )
    )


def psi_by_source(ds, n_bins: int = 10, max_cells: int = 100_000):
    """Population Stability Index of each source's quality-score
    distribution against the whole corpus — the drift monitor run
    between pipeline snapshots (PSI > 0.25 is the classic
    retrain/investigate threshold). Laplace-smoothed:
    psi = Σ_b (p_b − q_b)·ln(p_b/q_b), p_b = (n_sb+1)/(n_s+B),
    q_b = (n_cb+1)/(N+B).

    One streamed pass: row-local quality score (the q_quality kernel,
    6dp-rounded so both engines bin identically), equal-width bin on
    [0,1], (source, bin) integer count partials merged on the driver
    under a loud guard; the PSI itself is |sources| × B trivial double
    ops from exact integers, mirrored op-for-op in the oracle SQL."""
    import pandas as pd

    import ray.data as rd

    def partial(batch: pa.Table) -> pa.Table:
        scored = quality_batch(batch)
        score = scored.column("quality_score").to_numpy()
        b = np.minimum(np.floor(score * 10).astype(np.int64), n_bins - 1)
        df = pd.DataFrame(
            {"source": batch.column("source").to_pylist(), "b": b}
        )
        agg = df.groupby(["source", "b"], as_index=False).size()
        return pa.Table.from_pandas(agg, preserve_index=False)

    long = ds.select_columns(["text", "source"]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_cells + 1)
    if len(long) > max_cells:
        raise ValueError(
            f"psi_by_source: > {max_cells} cells — raise max_cells "
            "deliberately"
        )
    from . import round_half_away

    df = pd.DataFrame(long, columns=["source", "b", "size"])
    agg = df.groupby(["source", "b"])["size"].sum()
    sources = sorted(df["source"].unique())
    grid = agg.reindex(
        pd.MultiIndex.from_product([sources, range(n_bins)],
                                   names=["source", "b"]),
        fill_value=0,
    ).to_numpy(np.int64).reshape(len(sources), n_bins)
    tot = grid.sum(axis=0)          # corpus bin counts
    n_src = grid.sum(axis=1)
    n_all = int(tot.sum())
    out = []
    for i, src in enumerate(sources):
        p = (grid[i] + 1.0) / (n_src[i] + float(n_bins))
        q = (tot + 1.0) / (n_all + float(n_bins))
        psi = float(((p - q) * np.log(p / q)).sum())
        out.append(round_half_away(psi, 6))
    return rd.from_arrow(
        pa.Table.from_pydict(
            {"source": pa.array(sources, pa.string()),
             "psi": pa.array(out, pa.float64())}
        )
    )


def ks_by_source(
    ds,
    group_col: str = "source",
    val_col: str = "n_chars",
    max_cells: int = 1_000_000,
):
    """Two-sample Kolmogorov–Smirnov D statistic of each group's INTEGER
    measure distribution vs its complement (rest of corpus) — the
    nonparametric drift monitor next to [[psi]]/JS/chi2: D is the max
    ECDF gap, sensitive to location AND shape shifts that binned PSI
    smooths away.

    Exactness: one streamed pass of per-batch (group, value) integer
    count partials; the driver merges them under a loud ``max_cells``
    guard and evaluates both ECDFs on the shared sorted value grid, so
    every double each engine derives comes FROM IDENTICAL integers via
    the same op order (cast, divide, subtract, abs, max, round) — the
    value-hash match is exact. Groups whose complement is empty emit
    NULL. Scale: at 100 TB the value domain must be pre-binned (PSI's
    move); the guard makes an unbinned overflow loud, never silent."""
    import pandas as pd

    import ray.data as rd

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
            f"ks_by_source: > {max_cells} (group, value) partials — "
            "pre-bin the value column or raise max_cells deliberately"
        )
    df = pd.DataFrame(rows, columns=["g", "v", "size"])
    cnt = df.groupby(["g", "v"])["size"].sum()
    groups = sorted(df["g"].unique())
    vals = np.sort(df["v"].unique())
    grid = cnt.reindex(
        pd.MultiIndex.from_product([groups, vals], names=["g", "v"]),
        fill_value=0,
    ).to_numpy(np.int64).reshape(len(groups), len(vals))
    ct = grid.sum(axis=0).cumsum()          # corpus cumulative counts
    n_all = int(ct[-1])
    from . import round_half_away

    out_d: list = []
    ns_out: list = []
    for i in range(len(groups)):
        cs = grid[i].cumsum()
        ns = int(cs[-1])
        nr = n_all - ns
        ns_out.append(ns)
        if nr == 0:
            out_d.append(None)
            continue
        d = np.abs(
            cs.astype(np.float64) / float(ns)
            - (ct - cs).astype(np.float64) / float(nr)
        ).max()
        out_d.append(round_half_away(float(d), 6))
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                group_col: pa.array(groups, pa.string()),
                "n": pa.array(ns_out, pa.int64()),
                "ks_d": pa.array(out_d, pa.float64()),
            }
        )
    )


def c4_line_filter(
    ds: rd.Dataset,
    text_col: str = "page",
    id_col: str = "doc_id",
    min_words: int = 5,
    min_kept_lines: int = 3,
    batch_size: int = 4096,
):
    """C4-style line-level cleaning (Raffel et al. 2020 "Exploring the
    Limits of Transfer Learning with a Unified Text-to-Text Transformer"
    §2.2, public knowledge) — the classic Common-Crawl page filter a web
    pipeline runs right after main-content extraction (the reference's
    postprocess hook generalized the same way as :func:`gopher_rules_batch`):

    - a LINE survives iff it ends in terminal punctuation (``.!?``
      optionally followed by a closing quote/bracket, trailing
      spaces/tabs ignored), has at least ``min_words`` whitespace words,
      and does not mention ``javascript`` (case-insensitive);
    - a DOCUMENT survives iff it does not contain ``{`` or the phrase
      ``lorem ipsum`` (case-insensitive) anywhere, and at least
      ``min_kept_lines`` of its lines survive;
    - surviving documents re-emit as the newline-join of their surviving
      lines, in order.

    Scale: fully row-local (one vectorized polars pass per batch, Rust
    regex count/match kernels) — zero shuffle, streams at any corpus
    size. ``batch_size`` is explicit because the polars list.eval plan
    has ~40 ms fixed compile cost per CALL: parquet reads of small
    tables arrive as sub-100-row blocks and per-block batches would pay
    that fixed cost 64x (measured 2.4 s -> 0.1 s at sf0.1 when bundled
    to 4096 rows). Returns (id_col, clean_text, n_lines, n_kept) for
    kept docs."""
    import polars as pl

    term_re = r'[.!?]["”\')\]]*$'

    def fn(batch: pa.Table) -> pa.Table:
        d = pl.from_arrow(batch)
        d = d.filter(
            ~pl.col(text_col).str.to_lowercase().str.contains(
                "lorem ipsum", literal=True
            )
            & ~pl.col(text_col).str.contains("{", literal=True)
        )
        d = d.with_columns(pl.col(text_col).str.split("\n").alias("ls"))
        d = d.with_columns(
            pl.col("ls")
            .list.eval(
                pl.element().filter(
                    pl.element()
                    .str.strip_chars_end(" \t")
                    .str.contains(term_re)
                    & (pl.element().str.count_matches(r"\S+") >= min_words)
                    & ~pl.element()
                    .str.to_lowercase()
                    .str.contains("javascript", literal=True)
                )
            )
            .alias("kept")
        )
        d = d.with_columns(
            pl.col("ls").list.len().cast(pl.Int64).alias("n_lines"),
            pl.col("kept").list.len().cast(pl.Int64).alias("n_kept"),
            pl.col("kept").list.join("\n").alias("clean_text"),
        )
        return (
            d.filter(pl.col("n_kept") >= min_kept_lines)
            .select(id_col, "clean_text", "n_lines", "n_kept")
            .to_arrow()
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        fn, batch_format="pyarrow", batch_size=batch_size
    )


def langid_kappa(ds, max_cells: int = 100_000) -> rd.Dataset:
    """Cohen's kappa of the langid heuristic vs the ground-truth
    ``lang`` column — chance-corrected agreement, the single-number
    companion to :func:`langid_confusion` (accuracy alone overstates a
    classifier on imbalanced language mixes). Derived ENTIRELY from the
    confusion counts, so the distributed work is identical to
    langid_confusion's one streamed pass; the k x k reduction is
    driver-trivial. All-integer until the one final division:
    kappa = (N·agree − Σ_k row_k·col_k) / (N² − Σ_k row_k·col_k),
    6dp half-away round — both engines evaluate the identical
    expression on identical int64 terms. NaN when the denominator is 0
    (single-class degenerate corpus; SQL NULL)."""
    import pandas as pd

    import ray.data as rd

    from . import round_half_away

    rows = langid_confusion(ds, max_cells=max_cells).take(max_cells + 1)
    if len(rows) > max_cells:
        raise ValueError(f"langid_kappa: > {max_cells} confusion cells")
    df = pd.DataFrame(rows)
    n_total = int(df["n"].sum())
    agree = int(df.loc[df["lang"] == df["pred_lang"], "n"].sum())
    row_m = df.groupby("lang")["n"].sum()
    col_m = df.groupby("pred_lang")["n"].sum()
    chance = int(
        sum(
            int(row_m[k]) * int(col_m[k])
            for k in row_m.index
            if k in col_m.index
        )
    )
    den = n_total * n_total - chance
    kappa = (
        round_half_away(float(n_total * agree - chance) / float(den), 6)
        if den != 0
        else float("nan")
    )
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "kappa": pa.array([kappa], pa.float64()),
                "n_docs": pa.array([n_total], pa.int64()),
            }
        )
    )


def langid_calibration(ds, max_cells: int = 100_000) -> rd.Dataset:
    """Reliability diagram (calibration curve) of the langid heuristic:
    predictions bucketed by confidence decile (bin = min(floor(10·conf),
    9)), with per-bin count, correct count, accuracy and mean
    confidence — the classifier-eval companion to
    :func:`langid_confusion` / :func:`langid_kappa` that shows WHERE the
    confidence score over- or under-states accuracy (a well-calibrated
    gate has accuracy ≈ mean_conf per bin; curation pipelines threshold
    on conf, so miscalibration directly moves the kept set).

    Exactness contract: conf is the 6dp-rounded langid score (identical
    on both engines by the q_langid oracle), summed as INTEGER
    micro-units (round-half-away(conf·1e6)) so the per-bin mean is one
    exact int64 sum + one mirrored float expression; accuracy likewise
    (int counts, one division, 6dp). One streamed pass, ≤10 partial
    rows per batch, driver merge under the loud ``max_cells`` guard."""
    import pandas as pd

    import ray.data as rd

    from . import round_half_away

    def partial(batch: pa.Table) -> pa.Table:
        scored = langid_batch(batch)
        conf = scored.column("lang_conf").to_numpy(zero_copy_only=False)
        ok = (
            pc.equal(scored.column("lang"), scored.column("pred_lang"))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        df = pd.DataFrame(
            {
                "bin": np.minimum(
                    np.floor(conf * 10.0).astype(np.int64), 9
                ),
                "ok": ok,
                # half-away-from-zero to integer micro-units, exactly
                # DuckDB round(conf * 1000000) for non-negative conf
                "conf_micro": np.floor(conf * 1e6 + 0.5).astype(np.int64),
            }
        )
        agg = df.groupby("bin", as_index=False).agg(
            n=("ok", "size"),
            n_correct=("ok", "sum"),
            s_micro=("conf_micro", "sum"),
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    long = (
        ds.select_columns(["doc_id", "text", "lang"])
        .map_batches(partial, batch_format="pyarrow", batch_size=4096)
        .take(max_cells + 1)
    )
    if len(long) > max_cells:
        raise ValueError(
            f"langid_calibration: > {max_cells} partial rows — raise "
            "max_cells deliberately"
        )
    df = pd.DataFrame(long)
    agg = df.groupby("bin", as_index=False).agg(
        n=("n", "sum"), n_correct=("n_correct", "sum"),
        s_micro=("s_micro", "sum"),
    ).sort_values("bin")
    n = agg["n"].to_numpy(np.int64)
    nc = agg["n_correct"].to_numpy(np.int64)
    sm = agg["s_micro"].to_numpy(np.int64)
    acc = [round_half_away(float(c) * 1.0 / float(k), 6) for c, k in zip(nc, n)]
    mc = [
        round_half_away(float(s) / 1000000.0 / float(k), 6)
        for s, k in zip(sm, n)
    ]
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "bin": pa.array(agg["bin"].to_numpy(np.int64)),
                "n": pa.array(n),
                "n_correct": pa.array(nc),
                "accuracy": pa.array(acc, pa.float64()),
                "mean_conf": pa.array(mc, pa.float64()),
            }
        )
    )


def zipf_slope(ds, top_n: int = 100):
    """Zipf-law fit over the top-N token frequencies: OLS of ln(count)
    on ln(rank) with the (count DESC, token ASC) deterministic rank —
    the vocabulary-health audit (natural text sits near slope −1;
    boilerplate-heavy or templated corpora flatten, spam steepens).
    Emits ONE row: (n_tokens, slope, intercept, r2), 6dp.

    Scale shape: the heavy pass IS :func:`top_tokens` (per-batch token
    combiner, bucketed top-k merge — the shuffle carries (token, count)
    partials, never text); the regression runs on the N ≤ a-few-hundred
    surviving rows on the driver. Float contract: ln() terms are
    irrational, so exactness is by the corr_by_group precedent — both
    engines compute the same closed-form OLS over the same N doubles
    and the 6dp half-away round absorbs summation-order ulps (oracle:
    DuckDB regr_slope/regr_intercept/regr_r2 over the ranked top-N)."""
    import pandas as pd

    import ray.data as rd

    from . import round_half_away

    top = top_tokens(ds, k=top_n).to_pandas()
    n = len(top)
    if n < 2:
        return rd.from_arrow(
            pa.Table.from_pydict(
                {
                    "n_tokens": pa.array([n], pa.int64()),
                    "slope": pa.array([None], pa.float64()),
                    "intercept": pa.array([None], pa.float64()),
                    "r2": pa.array([None], pa.float64()),
                }
            )
        )
    # top_tokens returns rows already in (n DESC, token ASC) order —
    # rank 1 is the most frequent token, the oracle's ROW_NUMBER()
    x = np.log(np.arange(1, n + 1, dtype=np.float64))
    y = np.log(top["n"].to_numpy(np.int64).astype(np.float64))
    xm = float(x.sum()) / n
    ym = float(y.sum()) / n
    sxx = float(((x - xm) * (x - xm)).sum())
    sxy = float(((x - xm) * (y - ym)).sum())
    syy = float(((y - ym) * (y - ym)).sum())
    slope = sxy / sxx
    intercept = ym - slope * xm
    r2 = None if syy == 0.0 else (sxy * sxy) / (sxx * syy)
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "n_tokens": pa.array([n], pa.int64()),
                "slope": pa.array([round_half_away(slope, 6)], pa.float64()),
                "intercept": pa.array(
                    [round_half_away(intercept, 6)], pa.float64()
                ),
                "r2": pa.array(
                    [None if r2 is None else round_half_away(r2, 6)],
                    pa.float64(),
                ),
            }
        )
    )


def hapax_by_group(
    ds,
    group_col: str = "source",
    text_col: str = "text",
    max_groups: int = 10_000,
):
    """Per-slice vocabulary richness: total token occurrences, distinct
    vocabulary size, hapax legomena count (tokens seen exactly ONCE in
    that slice), hapax share of the vocabulary and type-token ratio —
    the lexical-diversity audit (templated/boilerplate sources show low
    TTR and a thin hapax tail; natural text keeps a fat one, per Zipf).

    Scale shape (the js_divergence combiner): per-batch (group, token)
    count partials — the shuffle carries vocabulary partials, never
    text; a token-hash bucketed merge computes exact per-(group, token)
    totals inside each bucket (a token lives in exactly ONE bucket, so
    "count == 1" is decidable bucket-locally) and emits ≤|groups| tiny
    stat rows per bucket; the driver sums integers (order-free) under a
    loud ``max_groups`` guard. Ratios are ONE division each at 6dp —
    exact (integer-derived) on both engines."""
    import pandas as pd
    import polars as pl

    import ray.data as rd

    from . import bucketed_group_apply, round_half_away
    from .dedup import shuffle_blocks

    def partial(batch: pa.Table) -> pa.Table:
        t = pl.from_arrow(
            batch.select([group_col, text_col])
        ).with_columns(
            pl.col(text_col).str.extract_all(TOKEN_RE).alias("tok")
        )
        return (
            t.select([group_col, "tok"])
            .explode("tok")
            .drop_nulls()
            .group_by([group_col, "tok"])
            .len()
            .rename({"len": "n"})
            .cast({"n": pl.Int64})
            .to_arrow()
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby([group_col, "tok"], as_index=False)["n"].sum()
        stats = tot.groupby(group_col).agg(
            n_occurrences=("n", "sum"),
            n_distinct=("n", "size"),
            n_hapax=("n", lambda s: int((s == 1).sum())),
        )
        return stats.reset_index()

    partials = ds.select_columns([group_col, text_col]).map_batches(
        partial, batch_format="pyarrow"
    )
    rows = bucketed_group_apply(
        partials.repartition(shuffle_blocks()),
        "tok",
        per_bucket,
        batch_format="pandas",
        n_buckets=64,
    ).take(max_groups * 64 + 1)
    if len(rows) > max_groups * 64:
        raise ValueError(
            f"hapax_by_group: > {max_groups} groups — raise max_groups "
            "deliberately"
        )
    acc: dict = {}
    for r in rows:
        g = r[group_col]
        o, d, h = acc.get(g, (0, 0, 0))
        acc[g] = (
            o + int(r["n_occurrences"]),
            d + int(r["n_distinct"]),
            h + int(r["n_hapax"]),
        )
    gs = sorted(acc)
    out_ratio = []
    out_ttr = []
    for g in gs:
        o, d, h = acc[g]
        out_ratio.append(
            None if d == 0 else round_half_away(float(h) / float(d), 6)
        )
        out_ttr.append(
            None if o == 0 else round_half_away(float(d) / float(o), 6)
        )
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                group_col: pa.array(gs, pa.string()),
                "n_occurrences": pa.array(
                    [acc[g][0] for g in gs], pa.int64()
                ),
                "n_distinct": pa.array([acc[g][1] for g in gs], pa.int64()),
                "n_hapax": pa.array([acc[g][2] for g in gs], pa.int64()),
                "hapax_share": pa.array(out_ratio, pa.float64()),
                "ttr": pa.array(out_ttr, pa.float64()),
            }
        )
    )


def flesch_reading_ease(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Flesch reading-ease per document (Flesch 1948) from three
    regex-mirrored counts — words = ``[^ \\t\\n]+`` runs, sentences =
    ``[.!?]+`` runs, syllables ≈ lowercase vowel-group ``[aeiouy]+``
    runs (the standard no-dictionary approximation) — the classic
    readability gate a curation pipeline applies alongside
    gopher_rules: very low scores flag run-on boilerplate, very high
    ones flag telegraphic fragment spam.

    EXACT: the three counts are integers (polars count_matches ==
    DuckDB len(regexp_extract_all(..)), parity pinned in tests across
    unicode/whitespace edge cases), then ONE mirrored float expression
    206.835 − 1.015·(w/s) − 84.6·(sy/w) at 6dp; NULL when a doc has no
    sentence or no word (both divisions undefined). One streamed
    vectorized pass, no shuffle — embarrassingly parallel at 100 TB."""
    import polars as pl

    import ray.data as rd  # noqa: F401 — type context

    from . import round_half_away_np

    def per_batch(batch: pa.Table) -> pa.Table:
        d = pl.from_arrow(batch.select([id_col, text_col]))
        d = d.with_columns(
            pl.col(text_col).str.count_matches(r"[^ \t\n]+")
            .cast(pl.Int64).alias("w"),
            pl.col(text_col).str.count_matches(r"[.!?]+")
            .cast(pl.Int64).alias("s"),
            pl.col(text_col).str.to_lowercase()
            .str.count_matches(r"[aeiouy]+")
            .cast(pl.Int64).alias("sy"),
        ).drop(text_col)
        out = d.to_arrow()
        w = out.column("w").to_numpy().astype(np.float64)
        s = out.column("s").to_numpy().astype(np.float64)
        sy = out.column("sy").to_numpy().astype(np.float64)
        ok = (w > 0) & (s > 0)
        fl = np.full(len(w), np.nan)
        fl[ok] = (
            206.835
            - 1.015 * (w[ok] / s[ok])
            - 84.6 * (sy[ok] / w[ok])
        )
        return out.append_column(
            "flesch", pa.array(round_half_away_np(fl, 6), pa.float64())
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        per_batch, batch_format="pyarrow"
    )


def two_proportion_ztest(
    ds,
    group_col: str,
    flag_expr,
    max_groups: int = 100_000,
):
    """Per-group two-proportion z-test of a boolean row flag against
    the REST of the corpus (pooled-variance form) — the segment-vs-rest
    rate audit (is this source's digit-bearing-doc rate actually
    different, or is the gap noise?) that turns per-group shares into
    comparable significance scores.

    ``flag_expr`` is a polars expression producing the boolean flag per
    row (mirrored literally by the oracle SQL). EXACT integer shape:
    one streamed pass of per-batch (group, n, x) count partials —
    the classic combiner, shuffle carries two ints per group per batch
    — then z = (p1 − p2)/sqrt(p̂(1−p̂)(1/n1 + 1/n2)) as ONE mirrored
    float expression over exact integers at 6dp (NULL when the pooled
    rate is degenerate or either side empty). ``max_groups`` bounds the
    driver merge loudly."""
    import pandas as pd
    import polars as pl

    import ray.data as rd  # noqa: F401

    from . import round_half_away

    def partial(batch: pa.Table) -> pa.Table:
        d = pl.from_arrow(batch)
        d = d.with_columns(flag_expr.cast(pl.Int64).alias("__f"))
        return (
            d.group_by(group_col)
            .agg(n=pl.len().cast(pl.Int64), x=pl.col("__f").sum())
            .to_arrow()
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    if len(parts) > max_groups * 64:
        raise ValueError("two_proportion_ztest: partial stream exceeds "
                         "bounds — raise max_groups deliberately")
    df = pd.DataFrame(parts).groupby(group_col, as_index=False).agg(
        n=("n", "sum"), x=("x", "sum")
    )
    if len(df) > max_groups:
        raise ValueError(
            f"two_proportion_ztest: {len(df)} groups > max_groups"
        )
    N = int(df["n"].sum())
    X = int(df["x"].sum())
    recs = []
    for _, row in df.sort_values(group_col).iterrows():
        n1, x1 = int(row["n"]), int(row["x"])
        n2, x2 = N - n1, X - x1
        if n1 == 0 or n2 == 0:
            z = None
        else:
            p1 = float(x1) / float(n1)
            p2 = float(x2) / float(n2)
            pp = float(x1 + x2) / float(n1 + n2)
            den = pp * (1.0 - pp) * (1.0 / float(n1) + 1.0 / float(n2))
            z = (
                round_half_away((p1 - p2) / np.sqrt(den), 6)
                if den > 0.0
                else None
            )
        recs.append(
            {group_col: row[group_col], "n": n1, "x": x1, "z": z}
        )
    import ray.data as rdm

    return rdm.from_arrow(
        pa.Table.from_pydict(
            {
                group_col: pa.array([r[group_col] for r in recs]),
                "n": pa.array([r["n"] for r in recs], pa.int64()),
                "x": pa.array([r["x"] for r in recs], pa.int64()),
                "z": pa.array([r["z"] for r in recs], pa.float64()),
            }
        )
    )


def bigram_cond_entropy(
    ds,
    text_col: str = "text",
    max_rows: int = 1_000_000,
):
    """Corpus-level bigram statistics: total/distinct bigram counts,
    bigram entropy H(X,Y), first-token entropy H(X) and the CONDITIONAL
    entropy H(Y|X) = H(X,Y) − H(X) in bits — the sequence-predictability
    measure (natural prose runs ~6-8 bits/word conditional; templated or
    boilerplate-heavy corpora collapse toward 0, making this a
    generation-diversity audit that unigram entropy misses).

    Identity used: H(Y|X) = (Σ_x c_x·log2 c_x − Σ_xy c_xy·log2 c_xy)/N
    where c_x is the first-token marginal of the bigram table — both
    sums are over EXACT integer counts, evaluated per token-hash bucket
    (a first-token's whole row of the bigram table lives in ONE bucket,
    so the marginal is bucket-local) and merged on the driver; the 6dp
    round absorbs libm/summation-order ulps (the js_divergence / MI
    contract).

    Scale shape (the hapax_by_group combiner): per-batch (a, b) bigram
    count partials via vectorized polars list-shift — the shuffle
    carries bigram vocabulary partials, never text; each bucket emits
    ONE 4-number row."""
    import pandas as pd
    import polars as pl

    import numpy as np

    from . import bucketed_group_apply, round_half_away
    from .dedup import shuffle_blocks

    def partial(batch: pa.Table) -> pa.Table:
        t = pl.from_arrow(batch.select([text_col])).with_columns(
            pl.col(text_col).str.extract_all(TOKEN_RE).alias("tok")
        )
        t = t.with_columns(pl.col("tok").list.shift(-1).alias("nxt"))
        d = (
            t.select(["tok", "nxt"])
            .explode(["tok", "nxt"])
            .drop_nulls()
        )
        return (
            d.group_by(["tok", "nxt"])
            .len()
            .rename({"len": "n"})
            .cast({"n": pl.Int64})
            .to_arrow()
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby(["tok", "nxt"], as_index=False)["n"].sum()
        c = tot["n"].to_numpy(np.int64).astype(np.float64)
        cx = (
            tot.groupby("tok")["n"].sum().to_numpy(np.int64)
            .astype(np.float64)
        )
        return pd.DataFrame(
            {
                "nn": [int(c.sum())],
                "nd": [len(c)],
                "sxy": [float((c * np.log2(c)).sum())],
                "sx": [float((cx * np.log2(cx)).sum())],
            }
        )

    partials = ds.select_columns([text_col]).map_batches(
        partial, batch_format="pyarrow"
    )
    rows = bucketed_group_apply(
        partials.repartition(shuffle_blocks()),
        "tok",
        per_bucket,
        batch_format="pandas",
        n_buckets=64,
    ).take(max_rows)
    if not rows:
        return pa.Table.from_pydict(
            {
                "n_bigrams": pa.array([0], pa.int64()),
                "n_distinct": pa.array([0], pa.int64()),
                "h_bigram": pa.array([None], pa.float64()),
                "h_first": pa.array([None], pa.float64()),
                "h_cond": pa.array([None], pa.float64()),
            }
        )
    df = pd.DataFrame(rows)
    nn = int(df["nn"].sum())
    nd = int(df["nd"].sum())
    sxy = float(df["sxy"].sum())
    sx = float(df["sx"].sum())
    nf = float(nn)
    hb = float(np.log2(nf)) - sxy / nf
    hf = float(np.log2(nf)) - sx / nf
    return pa.Table.from_pydict(
        {
            "n_bigrams": pa.array([nn], pa.int64()),
            "n_distinct": pa.array([nd], pa.int64()),
            "h_bigram": pa.array([round_half_away(hb, 6)], pa.float64()),
            "h_first": pa.array([round_half_away(hf, 6)], pa.float64()),
            "h_cond": pa.array(
                [round_half_away(hb - hf, 6)], pa.float64()
            ),
        }
    )


def heaps_law(ds, seed: int = 7, n_slices: int = 10):
    """Heaps-law fit over the vocabulary-growth curve: V(N) ≈ k·N^β,
    estimated as OLS of ln V on ln N over the :func:`vocab_growth`
    decile points — β (typically 0.4–0.6 for natural text; β → 0 means
    the corpus has stopped adding vocabulary, β ≈ 1 flags id-like token
    pollution) plus ln k and r² — the one-row answer to "will 10× more
    data need a bigger tokenizer vocab?".

    Exactness: the curve points are exact integers (vocab_growth's
    min-first-position contract); the fit mirrors DuckDB regr_* via
    mean-centered sums (the zipf_slope contract, ≤ ``n_slices`` points,
    6dp absorbs libm/order ulps). Zero-vocab points are excluded on
    both sides (ln guard)."""
    from . import round_half_away

    n_docs = ds.count()
    curve = vocab_growth(
        ds, seed=seed, n_slices=n_slices, n_docs=n_docs
    ).to_pandas()
    thr = np.ceil(
        n_docs * np.arange(1, n_slices + 1) / float(n_slices)
    ).astype(np.int64)
    v = curve["vocab"].to_numpy(np.int64)
    keep = (v > 0) & (thr > 0)
    x = np.log(thr[keep].astype(np.float64))
    y = np.log(v[keep].astype(np.float64))
    n = len(x)
    if n < 2:
        return pa.Table.from_pydict(
            {
                "n_points": pa.array([n], pa.int64()),
                "beta": pa.array([None], pa.float64()),
                "ln_k": pa.array([None], pa.float64()),
                "r2": pa.array([None], pa.float64()),
            }
        )
    xm = float(x.sum()) / n
    ym = float(y.sum()) / n
    sxx = float(((x - xm) * (x - xm)).sum())
    sxy = float(((x - xm) * (y - ym)).sum())
    syy = float(((y - ym) * (y - ym)).sum())
    beta = sxy / sxx
    ln_k = ym - beta * xm
    # DuckDB regr_r2 convention: zero y-variance (a saturated vocab
    # curve) reports a perfect fit, not NULL — verified empirically
    r2 = 1.0 if syy == 0.0 else (sxy * sxy) / (sxx * syy)
    return pa.Table.from_pydict(
        {
            "n_points": pa.array([n], pa.int64()),
            "beta": pa.array([round_half_away(beta, 6)], pa.float64()),
            "ln_k": pa.array([round_half_away(ln_k, 6)], pa.float64()),
            "r2": pa.array([round_half_away(r2, 6)], pa.float64()),
        }
    )


def hill_tail_by_group(
    ds,
    group_col: str = "source",
    value_col: str = "n_chars",
    k: int = 100,
    max_groups: int = 10_000,
):
    """Hill tail-index estimator per group: over the top k+1 order
    statistics of ``value_col``, alpha = k / Σ ln(x_(i) / x_(k+1)) —
    the heavy-tail exponent of document lengths (alpha ≤ 2 means the
    length distribution has infinite variance: batch-size planning by
    MEAN length will OOM on the tail; alpha ≥ 3-4 is a tame tail).
    Hill (1975), the standard POT tail estimator.

    Determinism: only the top-(k+1) VALUE MULTISET enters the formula,
    and the multiset of the k+1 largest values is unique regardless of
    how ties at the boundary are broken — so no id tie-break is needed
    and the SQL row_number() oracle matches exactly. Groups with fewer
    than k+1 rows are skipped (both sides); an all-equal tail (Σ = 0)
    yields NULL on both sides. The ln-sum is the zipf/mannwhitney 6dp
    contract.

    Scale shape: per-batch per-group top-(k+1) value pre-trim (the
    weighted_sample top-k idiom), so the driver merge holds ≤ groups ×
    (k+1) ints under the loud ``max_groups`` guard."""
    import pandas as pd

    from . import round_half_away

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([group_col, value_col]).to_pandas()
        top = (
            df.sort_values(value_col, ascending=False, kind="mergesort")
            .groupby(group_col, sort=False)
            .head(k + 1)
        )
        return pa.Table.from_pandas(top, preserve_index=False)

    rows = ds.select_columns([group_col, value_col]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_groups * (k + 1) + 1)
    if len(rows) > max_groups * (k + 1):
        raise ValueError(
            f"hill_tail_by_group: > {max_groups} groups — raise "
            "max_groups deliberately"
        )
    df = pd.DataFrame(rows)
    out_g, out_k, out_a = [], [], []
    for g, sub in df.groupby(group_col, sort=True):
        v = np.sort(sub[value_col].to_numpy(np.int64))[::-1][: k + 1]
        if len(v) < k + 1:
            continue  # needs a full tail sample (oracle: rk = k+1 row)
        xk = float(v[k])
        ls = float(np.log(v[:k].astype(np.float64) / xk).sum())
        out_g.append(g)
        out_k.append(k)
        out_a.append(
            None if ls <= 0.0 else round_half_away(float(k) / ls, 6)
        )
    return pa.Table.from_pydict(
        {
            group_col: pa.array(out_g, pa.string()),
            "k_used": pa.array(out_k, pa.int64()),
            "alpha": pa.array(out_a, pa.float64()),
        }
    )


def vocab_coverage(
    ds,
    qs: tuple = (0.5, 0.9, 0.99),
    max_levels: int = 1_000_000,
):
    """Vocabulary budget: how many distinct tokens (taken most-frequent
    first) cover 50% / 90% / 99% of all token OCCURRENCES — the direct
    sizing input for a tokenizer vocab or a stopword list ("1,200
    types cover 90% of this corpus; the other 400k types are the
    tail"). k_q = min k such that the top-k type counts sum to
    >= q·total.

    Determinism: k_q depends only on the COUNT MULTISET (ties between
    equal-count tokens cannot change it), so no token tie-break is
    needed and the SQL window rewrite matches exactly. The crossing
    level's partial take mirrors one float chain (target = q·total,
    ceil((target − occ_before)/c)) on both engines; everything else is
    exact integers.

    Scale shape: exact per-token counts via the token-hash bucketed
    merge (the hapax_by_group combiner), each bucket emitting its
    (count, n_tokens) HISTOGRAM — distinct count-levels, not tokens,
    reach the driver (loud ``max_levels`` guard; count-of-counts is
    Zipf-compact)."""
    import pandas as pd
    import polars as pl

    from . import bucketed_group_apply
    from .dedup import shuffle_blocks

    def partial(batch: pa.Table) -> pa.Table:
        t = pl.from_arrow(batch.select(["text"])).with_columns(
            pl.col("text").str.extract_all(TOKEN_RE).alias("tok")
        )
        return (
            t.select(["tok"])
            .explode("tok")
            .drop_nulls()
            .group_by("tok")
            .len()
            .rename({"len": "n"})
            .cast({"n": pl.Int64})
            .to_arrow()
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("tok", as_index=False)["n"].sum()
        hist = tot.groupby("n", as_index=False).size()
        return hist.rename(columns={"n": "c", "size": "nt"})

    rows = bucketed_group_apply(
        ds.select_columns(["text"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(shuffle_blocks()),
        "tok",
        per_bucket,
        batch_format="pandas",
        n_buckets=64,
    ).take(max_levels + 1)
    if len(rows) > max_levels:
        raise ValueError(
            f"vocab_coverage: > {max_levels} count-levels — raise "
            "max_levels deliberately"
        )
    cols = {"total_occurrences": [], "vocab_size": []}
    for q in qs:
        cols[f"k{int(round(q * 100))}"] = []
    if not rows:
        for k in cols:
            cols[k].append(0)
        return pa.Table.from_pydict(
            {k: pa.array(v, pa.int64()) for k, v in cols.items()}
        )
    h = (
        pd.DataFrame(rows)
        .groupby("c", as_index=False)["nt"]
        .sum()
        .sort_values("c", ascending=False, kind="mergesort")
    )
    c = h["c"].to_numpy(np.int64)
    nt = h["nt"].to_numpy(np.int64)
    occ = c * nt
    cum_occ = np.cumsum(occ)
    cum_tok = np.cumsum(nt)
    total = int(cum_occ[-1])
    vocab = int(cum_tok[-1])
    cols["total_occurrences"].append(total)
    cols["vocab_size"].append(vocab)
    for q in qs:
        target = q * float(total)
        i = int(np.searchsorted(cum_occ, target))
        # first level whose cumulative occurrences reach the target
        # (searchsorted 'left' == the SQL cum_occ >= target filter,
        # because counts are integers and target is a float)
        while cum_occ[i] < target:  # pragma: no cover - float guard
            i += 1
        occ_before = int(cum_occ[i]) - int(occ[i])
        tok_before = int(cum_tok[i]) - int(nt[i])
        k = tok_before + int(
            np.ceil((target - float(occ_before)) / float(c[i]))
        )
        cols[f"k{int(round(q * 100))}"].append(k)
    return pa.Table.from_pydict(
        {k: pa.array(v, pa.int64()) for k, v in cols.items()}
    )


def head_prefixes(
    ds,
    group_col: str = "source",
    text_col: str = "text",
    prefix_len: int = 16,
    k: int = 5,
    max_cells: int = 2_000_000,
    side: str = "head",
):
    """Boilerplate-head detector: the ``k`` most common ``prefix_len``-
    character document OPENINGS per group, with counts and share of the
    group — template farms and scraped nav-headers show up as one
    prefix covering half a source, which per-doc quality scores miss
    entirely. ``side="tail"`` flips to document ENDINGS (footer/signature
    boilerplate — the SQL right() mirror) and names the column
    ``suffix``.

    Determinism: rank by (count DESC, prefix ASC) — fully ordered, the
    SQL row_number contract. Exact integer counts (one streamed
    (group, prefix) combiner; distinct prefixes reach the driver under
    the loud ``max_cells`` guard — at 100 TB pre-hash prefixes into a
    fixed bucket space first), share is one division at 6dp."""
    import pandas as pd
    import polars as pl

    from . import round_half_away

    def partial(batch: pa.Table) -> pa.Table:
        t = pl.from_arrow(batch.select([group_col, text_col]))
        sl = (
            pl.col(text_col).str.slice(0, prefix_len)
            if side == "head"
            else pl.col(text_col).str.slice(-prefix_len)
        )
        return (
            t.with_columns(sl.alias("pfx"))
            .group_by([group_col, "pfx"])
            .len()
            .rename({"len": "n"})
            .cast({"n": pl.Int64})
            .to_arrow()
        )

    rows = ds.select_columns([group_col, text_col]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_cells + 1)
    if len(rows) > max_cells:
        raise ValueError(
            f"head_prefixes: > {max_cells} (group, prefix) partials — "
            "hash-bucket prefixes first or raise max_cells"
        )
    h = (
        pd.DataFrame(rows)
        .groupby([group_col, "pfx"], as_index=False)["n"]
        .sum()
    )
    out_name = "prefix" if side == "head" else "suffix"
    out = {group_col: [], "rank": [], out_name: [], "n_docs": [],
           "share": []}
    for g, sub in h.groupby(group_col, sort=True):
        tot = int(sub["n"].sum())
        top = sub.sort_values(
            ["n", "pfx"], ascending=[False, True], kind="mergesort"
        ).head(k)
        for i, (_, r) in enumerate(top.iterrows(), start=1):
            out[group_col].append(g)
            out["rank"].append(i)
            out[out_name].append(r["pfx"])
            out["n_docs"].append(int(r["n"]))
            out["share"].append(
                round_half_away(float(int(r["n"])) / float(tot), 6)
            )
    return pa.Table.from_pydict(
        {
            group_col: pa.array(out[group_col], pa.string()),
            "rank": pa.array(out["rank"], pa.int64()),
            out_name: pa.array(out[out_name], pa.string()),
            "n_docs": pa.array(out["n_docs"], pa.int64()),
            "share": pa.array(out["share"], pa.float64()),
        }
    )


def utf8_audit(ds: rd.Dataset, max_groups: int = 100_000) -> rd.Dataset:
    """Encoding-health audit per source: how much of the corpus is
    multibyte UTF-8 — doc counts, total continuation-byte overhead
    (byte length − char length, an EXACT integer both engines agree on:
    DuckDB strlen(text) − length(text)) and the overhead ratio. A
    source whose ratio jumps between crawls usually changed charset
    handling upstream; a pure-ASCII source suddenly showing overhead is
    mojibake.

    One streamed pass of per-batch integer partials via the zero-copy
    Arrow kernels (binary_length = bytes, utf8_length = chars — no
    Python row loop), bounded driver merge, one float division per
    source."""

    def partial(batch: pa.Table) -> pa.Table:
        ob = pc.binary_length(batch.column("text")).to_numpy().astype(np.int64)
        ch = pc.utf8_length(batch.column("text")).to_numpy().astype(np.int64)
        over = ob - ch
        import pandas as pd

        df = pd.DataFrame(
            {
                "g": batch.column("source").to_pylist(),
                "n": 1,
                "mb": (over > 0).astype(np.int64),
                "ov": over,
                "ch": ch,
            }
        )
        agg = df.groupby("g", as_index=False).sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    rows = ds.select_columns(["source", "text"]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_groups + 1)
    if len(rows) > max_groups:
        raise ValueError(
            "utf8_audit: > max_groups source partials — raise max_groups "
            "deliberately"
        )
    acc: dict = {}
    for r in rows:
        n0, m0, o0, c0 = acc.get(r["g"], (0, 0, 0, 0))
        acc[r["g"]] = (
            n0 + int(r["n"]), m0 + int(r["mb"]),
            o0 + int(r["ov"]), c0 + int(r["ch"]),
        )
    import ray.data as rd

    from . import round_half_away

    out = {"source": [], "n_docs": [], "n_multibyte": [],
           "overhead_bytes": [], "overhead_ratio": []}
    for g in sorted(acc):
        n, m, o, c = acc[g]
        out["source"].append(g)
        out["n_docs"].append(n)
        out["n_multibyte"].append(m)
        out["overhead_bytes"].append(o)
        out["overhead_ratio"].append(
            None if c == 0 else round_half_away(float(o) / float(c), 6)
        )
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "source": pa.array(out["source"], pa.string()),
                "n_docs": pa.array(out["n_docs"], pa.int64()),
                "n_multibyte": pa.array(out["n_multibyte"], pa.int64()),
                "overhead_bytes": pa.array(out["overhead_bytes"], pa.int64()),
                "overhead_ratio": pa.array(out["overhead_ratio"], pa.float64()),
            }
        )
    )


def char_classes(ds: rd.Dataset, max_groups: int = 100_000) -> rd.Dataset:
    """Character-class profile per source: ASCII letter / digit /
    whitespace / other ratios over total characters — the cheap
    what-is-this-corpus-made-of fingerprint (code-heavy sources spike
    'other', table dumps spike digits, and a ratio shift between two
    crawls of the same source flags a template change).

    Counts come from the SAME RE2 class patterns on both engines
    (pyarrow count_substring_regex here, regexp_replace-and-length in
    the DuckDB oracle — single-char classes, so matches = characters);
    integer partials merge driver-side and each ratio is one float
    division, 6dp."""

    def partial(batch: pa.Table) -> pa.Table:
        txt = batch.column("text")
        ch = pc.utf8_length(txt).to_numpy().astype(np.int64)
        let = pc.count_substring_regex(txt, "[a-zA-Z]").to_numpy().astype(
            np.int64
        )
        dig = pc.count_substring_regex(txt, "[0-9]").to_numpy().astype(
            np.int64
        )
        ws = pc.count_substring_regex(txt, "[ \\t\\n\\r]").to_numpy().astype(
            np.int64
        )
        import pandas as pd

        df = pd.DataFrame(
            {
                "g": batch.column("source").to_pylist(),
                "ch": ch,
                "let": let,
                "dig": dig,
                "ws": ws,
            }
        )
        return pa.Table.from_pandas(
            df.groupby("g", as_index=False).sum(), preserve_index=False
        )

    rows = ds.select_columns(["source", "text"]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_groups + 1)
    if len(rows) > max_groups:
        raise ValueError(
            "char_classes: > max_groups source partials — raise "
            "max_groups deliberately"
        )
    acc: dict = {}
    for r in rows:
        c0, l0, d0, w0 = acc.get(r["g"], (0, 0, 0, 0))
        acc[r["g"]] = (
            c0 + int(r["ch"]), l0 + int(r["let"]),
            d0 + int(r["dig"]), w0 + int(r["ws"]),
        )
    import ray.data as rd

    from . import round_half_away

    out = {"source": [], "n_chars": [], "letter_ratio": [],
           "digit_ratio": [], "space_ratio": [], "other_ratio": []}
    for g in sorted(acc):
        c, l, d, w = acc[g]
        out["source"].append(g)
        out["n_chars"].append(c)
        if c == 0:
            for k in ("letter_ratio", "digit_ratio", "space_ratio",
                      "other_ratio"):
                out[k].append(None)
            continue
        cf = float(c)
        out["letter_ratio"].append(round_half_away(float(l) / cf, 6))
        out["digit_ratio"].append(round_half_away(float(d) / cf, 6))
        out["space_ratio"].append(round_half_away(float(w) / cf, 6))
        out["other_ratio"].append(
            round_half_away(float(c - l - d - w) / cf, 6)
        )
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "source": pa.array(out["source"], pa.string()),
                "n_chars": pa.array(out["n_chars"], pa.int64()),
                "letter_ratio": pa.array(out["letter_ratio"], pa.float64()),
                "digit_ratio": pa.array(out["digit_ratio"], pa.float64()),
                "space_ratio": pa.array(out["space_ratio"], pa.float64()),
                "other_ratio": pa.array(out["other_ratio"], pa.float64()),
            }
        )
    )


def line_profile(ds: rd.Dataset, max_groups: int = 100_000) -> rd.Dataset:
    """Layout fingerprint per source: average lines per document and
    average characters per line — prose runs long lines (60-100 chars),
    code/tables/navigation dumps run short ones, so a source whose
    avg_line_len collapses between crawls started shipping markup as
    text. Lines = newline count + 1; chars-per-line counts non-newline
    characters only.

    One streamed pass of exact integer partials (newline counts via the
    zero-copy Arrow count_substring kernel), bounded driver merge, two
    float divisions per source at 6dp — the utf8_audit shape."""

    def partial(batch: pa.Table) -> pa.Table:
        txt = batch.column("text")
        ch = pc.utf8_length(txt).to_numpy().astype(np.int64)
        nl = pc.count_substring(txt, "\n").to_numpy().astype(np.int64)
        import pandas as pd

        df = pd.DataFrame(
            {
                "g": batch.column("source").to_pylist(),
                "n": 1,
                "ch": ch,
                "nl": nl,
            }
        )
        return pa.Table.from_pandas(
            df.groupby("g", as_index=False).sum(), preserve_index=False
        )

    rows = ds.select_columns(["source", "text"]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_groups + 1)
    if len(rows) > max_groups:
        raise ValueError(
            "line_profile: > max_groups source partials — raise "
            "max_groups deliberately"
        )
    acc: dict = {}
    for r in rows:
        n0, c0, l0 = acc.get(r["g"], (0, 0, 0))
        acc[r["g"]] = (n0 + int(r["n"]), c0 + int(r["ch"]), l0 + int(r["nl"]))
    import ray.data as rd

    from . import round_half_away

    out = {"source": [], "n_docs": [], "n_lines": [],
           "avg_lines_per_doc": [], "avg_line_len": []}
    for g in sorted(acc):
        n, c, l = acc[g]
        lines = l + n  # nl + 1 per doc
        out["source"].append(g)
        out["n_docs"].append(n)
        out["n_lines"].append(lines)
        out["avg_lines_per_doc"].append(
            round_half_away(float(lines) / float(n), 6)
        )
        out["avg_line_len"].append(
            None if lines == 0
            else round_half_away(float(c - l) / float(lines), 6)
        )
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "source": pa.array(out["source"], pa.string()),
                "n_docs": pa.array(out["n_docs"], pa.int64()),
                "n_lines": pa.array(out["n_lines"], pa.int64()),
                "avg_lines_per_doc": pa.array(
                    out["avg_lines_per_doc"], pa.float64()
                ),
                "avg_line_len": pa.array(out["avg_line_len"], pa.float64()),
            }
        )
    )


def tokenizer_fertility(ds: rd.Dataset, max_groups: int = 100_000) -> rd.Dataset:
    """Tokenizer-parity audit per language: characters per BPE-style
    token and tokens per document — the multilingual-fairness metric
    (a language whose chars/token is half the corpus average pays ~2×
    the context budget per unit of text, and its docs truncate first).
    Uses the SAME pretokenizer regex as n_bpe_tokens so the two
    surfaces can never drift.

    One streamed pass of exact integer partials (chars via utf8_length,
    tokens via count_substring_regex — both zero-copy Arrow kernels),
    bounded driver merge, two float divisions per language at 6dp."""

    def partial(batch: pa.Table) -> pa.Table:
        txt = batch.column("text")
        ch = pc.utf8_length(txt).to_numpy().astype(np.int64)
        tok = pc.count_substring_regex(txt, BPE_TOKEN_RE).to_numpy().astype(
            np.int64
        )
        import pandas as pd

        df = pd.DataFrame(
            {
                "g": batch.column("lang").to_pylist(),
                "n": 1,
                "ch": ch,
                "tok": tok,
            }
        )
        return pa.Table.from_pandas(
            df.groupby("g", as_index=False).sum(), preserve_index=False
        )

    rows = ds.select_columns(["lang", "text"]).map_batches(
        partial, batch_format="pyarrow"
    ).take(max_groups + 1)
    if len(rows) > max_groups:
        raise ValueError(
            "tokenizer_fertility: > max_groups lang partials — raise "
            "max_groups deliberately"
        )
    acc: dict = {}
    for r in rows:
        n0, c0, t0 = acc.get(r["g"], (0, 0, 0))
        acc[r["g"]] = (n0 + int(r["n"]), c0 + int(r["ch"]),
                       t0 + int(r["tok"]))
    import ray.data as rd

    from . import round_half_away

    out = {"lang": [], "n_docs": [], "n_tokens": [],
           "chars_per_token": [], "tokens_per_doc": []}
    for g in sorted(acc):
        n, c, t = acc[g]
        out["lang"].append(g)
        out["n_docs"].append(n)
        out["n_tokens"].append(t)
        out["chars_per_token"].append(
            None if t == 0 else round_half_away(float(c) / float(t), 6)
        )
        out["tokens_per_doc"].append(
            round_half_away(float(t) / float(n), 6)
        )
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "lang": pa.array(out["lang"], pa.string()),
                "n_docs": pa.array(out["n_docs"], pa.int64()),
                "n_tokens": pa.array(out["n_tokens"], pa.int64()),
                "chars_per_token": pa.array(
                    out["chars_per_token"], pa.float64()
                ),
                "tokens_per_doc": pa.array(
                    out["tokens_per_doc"], pa.float64()
                ),
            }
        )
    )
