"""Query registry: one entry per implemented operator/pipeline
(SURVEY.md §2 + the training-data operators), each a callable(sf_dir) ->
Dataset/Table, with a DuckDB oracle SQL string where the operator is
SQL-expressible (driver correctness gate).

Column names match between Ray results and oracle SQL exactly (the driver
sorts columns by name and value-hashes). Float aggregates are rounded on
BOTH sides so summation order can't flip the hash.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from .functions import bpe, dedup, events, relational, similarity, textstats

from .functions import round_half_away
from .pipeline import PipelineOptions, build_extract_pipeline, corpus_from_documents
from .stages.normalize import normalize_text_array


def _read_parquet(*args, **kwargs) -> rd.Dataset:
    """Metadata-stripped read (sources.read_parquet_clean): see that
    docstring for why pandas schema metadata must not reach workers."""
    from .sources import read_parquet_clean

    return read_parquet_clean(*args, **kwargs)


def _docs(sf_dir: str, columns=None) -> rd.Dataset:
    return _read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


# --------------------------------------------------------------- text / docs

def q_normalize_docs(sf_dir: str) -> rd.Dataset:
    def fn(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "norm_text": normalize_text_array(batch.column("text")),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


def q_token_count(sf_dir: str) -> rd.Dataset:
    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(textstats.token_count_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "n_tokens"])
    )


def q_quality(sf_dir: str) -> rd.Dataset:
    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(textstats.quality_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "n_tokens", "alpha_ratio", "quality_score"])
    )


def q_word_entropy(sf_dir: str) -> rd.Dataset:
    """Unigram token-entropy quality signal per doc (bits, 6dp) — exact
    window/groupby oracle; low entropy = boilerplate/repetition."""
    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(textstats.word_entropy_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "word_entropy"])
    )


def q_token_budget(sf_dir: str) -> rd.Dataset:
    """Per-source token-budget mixture selection: keep docs in md5(doc_id)
    order while each source's running token count stays <= 800 — exact
    running-sum window oracle."""
    ds = (
        _docs(sf_dir, ["doc_id", "source", "text"])
        .map_batches(textstats.token_count_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "source", "n_tokens"])  # text stays out of the shuffle
    )
    out = dedup.token_budget_select(ds, group_col="source", budget=800)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["doc_id", "source", "n_tokens"])

    return out.map_batches(project, batch_format="pyarrow")


def q_quality_zscore(sf_dir: str) -> rd.Dataset:
    """Per-language z-score calibration of the quality signal — the
    cross-group normalization step before a single threshold prunes a
    multilingual corpus. Exact oracle (same population-std formula on
    both sides; 6dp half-away)."""
    ds = (
        _docs(sf_dir, ["doc_id", "lang", "text"])
        .map_batches(textstats.quality_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "lang", "quality_score"])
    )
    return relational.zscore_by_group(
        ds, group_col="lang", value_col="quality_score"
    )


def q_bigram_lm_score(sf_dir: str) -> rd.Dataset:
    """Bigram-LM quality score (CCNet-family, conditional-probability
    upgrade of q_lm_score): per-doc mean ln((c(w1,w2)+1)/(c1(w1)+V)),
    exact corpus model — exact LEAD-window oracle."""
    return textstats.bigram_logprob(_docs(sf_dir, ["doc_id", "text"]))


def q_gopher_rules(sf_dir: str) -> rd.Dataset:
    """Gopher document-statistics quality gate (Rae et al. 2021): per-doc
    word/line-shape signals + combined keep decision. Row-local, exact
    list_filter/regexp oracle."""
    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(textstats.gopher_rules_batch, batch_format="pyarrow")
        .select_columns(
            [
                "doc_id", "n_words", "mean_word_len", "symbol_ratio",
                "alpha_word_ratio", "bullet_line_ratio",
                "ellipsis_line_ratio", "stopword_hits", "gopher_keep",
            ]
        )
    )


def q_temperature_weights(sf_dir: str) -> pa.Table:
    """Temperature-scaled (tau=0.7) per-language sampling weights
    (XLM-R/mT5 mixing) from exact token shares — exact pow() oracle."""
    return textstats.temperature_weights(
        _docs(sf_dir, ["lang", "text"]), tau=0.7
    )


def q_dsir_scores(sf_dir: str) -> rd.Dataset:
    """DSIR importance scores vs the lang='en' target slice: hashed
    unigram+bigram bucket log-ratios summed per doc — exact pinned-md5
    bucket oracle."""
    corpus = _docs(sf_dir, ["doc_id", "text"])
    target = _read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        filter=(pc.field("lang") == "en"),
    )
    return textstats.dsir_scores(corpus, target, n_buckets=1024)


def q_langid(sf_dir: str) -> rd.Dataset:
    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(textstats.langid_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "pred_lang", "lang_conf"])
    )


def q_fingerprint(sf_dir: str) -> rd.Dataset:
    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(textstats.fingerprint_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "fp64"])
    )


def q_bpe_token_count(sf_dir: str) -> rd.Dataset:
    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(textstats.bpe_token_count_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "n_bpe_tokens"])
    )


def q_winnow_fingerprints(sf_dir: str) -> rd.Dataset:
    """Winnowed rolling-hash fingerprints (rows-only: list column)."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        textstats.winnow_fingerprints_batch, batch_format="pyarrow"
    )


def q_top_tokens(sf_dir: str) -> rd.Dataset:
    """Corpus-wide top-20 token frequencies (vocabulary pass)."""
    return textstats.top_tokens(_docs(sf_dir, ["text"]), k=20)


def q_top_bigrams(sf_dir: str) -> rd.Dataset:
    """Corpus-wide top-20 token-bigram frequencies (n-gram statistics)."""
    return textstats.top_bigrams(_docs(sf_dir, ["text"]), k=20)


def q_inverted_index(sf_dir: str) -> rd.Dataset:
    """Token -> (doc_freq, total_tf, first-32 postings) inverted index —
    exact DuckDB oracle; postings cap is part of the contract."""
    return textstats.inverted_index(_docs(sf_dir, ["doc_id", "text"]))


def q_pmi_pairs(sf_dir: str) -> pa.Table:
    """Top-50 token pairs by document-level PMI over the top-100 vocab
    (collocation mining) — exact DuckDB oracle."""
    return textstats.pmi_pairs(_docs(sf_dir, ["text"]))


def q_duplicate_ngrams(sf_dir: str) -> rd.Dataset:
    """Occurrences of duplicated 8-token grams beyond their corpus-wide
    first (exact substring-dedup detection) — exact DuckDB oracle."""
    return dedup.duplicate_ngram_occurrences(
        _docs(sf_dir, ["doc_id", "text"]), n=8
    )


def q_remove_dup_ngrams(sf_dir: str) -> rd.Dataset:
    """Exact substring-dedup REMOVAL: docs rebuilt without tokens covered
    by duplicated 8-grams beyond their corpus-wide first — exact DuckDB
    window+anti-join oracle."""
    return dedup.remove_duplicate_ngrams(
        _docs(sf_dir, ["doc_id", "text"]), n=8
    )


def q_bm25(sf_dir: str) -> rd.Dataset:
    """BM25 top-10 keyword retrieval for ('merge','scan','window') —
    exact DuckDB oracle (Lucene IDF form, 6dp half-away rounding,
    doc_id tie-break on both engines)."""
    return textstats.bm25_topk(
        _docs(sf_dir, ["doc_id", "text"]),
        ["merge", "scan", "window"],
        k=10,
    )


def q_hybrid_rrf(sf_dir: str) -> pa.Table:
    """Hybrid retrieval: reciprocal-rank fusion of BM25 ('merge','scan',
    'window') and cosine-vs-vec-0 top-50 lists, top-10 fused — exact
    full-outer-join oracle."""
    return similarity.hybrid_rrf(
        _docs(sf_dir, ["doc_id", "text"]),
        _emb(sf_dir),
        ["merge", "scan", "window"],
        _query_vec(sf_dir),
        k=10,
        pool=50,
    )


def q_bpe_merges(sf_dir: str) -> pa.Table:
    """BPE tokenizer training (Sennrich et al. 2016) over the corpus
    word dictionary: first 40 merges with weighted pair counts —
    deterministic, golden-pinned (iterative; not SQL-expressible)."""
    return bpe.bpe_train(_docs(sf_dir, ["text"]), n_merges=40)


def q_bpe_encode(sf_dir: str) -> rd.Dataset:
    """Per-doc BPE token counts under the 40 merges trained on the same
    corpus — the tokenizer-application pass; golden-pinned."""
    merges = bpe.bpe_train(_docs(sf_dir, ["text"]), n_merges=40)
    return bpe.bpe_encode_counts(_docs(sf_dir, ["doc_id", "text"]), merges)


def q_cross_source_dups(sf_dir: str) -> pa.Table:
    """Cross-source duplication matrix (distinct texts shared verbatim by
    each source pair) — exact DuckDB self-join oracle."""
    return dedup.cross_source_duplication(
        _docs(sf_dir, ["text", "source"])
    )


def q_dup_spans(sf_dir: str) -> rd.Dataset:
    """Maximal duplicated token spans per doc (gaps-and-islands merge of
    duplicated-8-gram intervals) — exact DuckDB window oracle."""
    return dedup.duplicate_spans(_docs(sf_dir, ["doc_id", "text"]), n=8)


def q_dup_coverage(sf_dir: str) -> rd.Dataset:
    """Per-doc duplicated-8-gram token coverage (drop-vs-clean signal
    of exact substring dedup) — exact DuckDB oracle."""
    return dedup.duplicate_coverage(_docs(sf_dir, ["doc_id", "text"]), n=8)


def q_quality_percentile(sf_dir: str) -> rd.Dataset:
    """Exact global percent_rank of the quality score appended per doc —
    distributed rank-normalization with no global sort (value-histogram
    broadcast + searchsorted). Exact DuckDB window-function oracle."""
    from .functions.sketches import percent_rank_transform

    scored = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        textstats.quality_batch, batch_format="pyarrow"
    ).select_columns(["doc_id", "quality_score"])
    return percent_rank_transform(
        scored, "quality_score", out_col="quality_pct"
    )


def q_repetition(sf_dir: str) -> rd.Dataset:
    """Gopher-family repetition signal: duplicate-bigram ratio per doc
    (row-local, vectorized) — exact DuckDB oracle."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        textstats.repetition_batch, batch_format="pyarrow"
    ).select_columns(["doc_id", "dup_bigram_ratio"])


def q_top_tfidf(sf_dir: str) -> rd.Dataset:
    """Corpus-wide top-20 terms by total TF-IDF (term-weighting pass) —
    exact DuckDB oracle (same unsmoothed n*ln(N/df) on both sides)."""
    return textstats.top_tfidf_terms(_docs(sf_dir, ["text"]), k=20)


def q_heavy_hitters(sf_dir: str) -> rd.Dataset:
    """Bounded-shuffle approximate top-20 tokens (SpaceSaving-style
    truncated partials with deterministic error bounds). At driver scale
    no batch truncates, so n_min == n_max == the exact counts and the
    DuckDB oracle is exact; the truncation regime is pinned by a
    bound-bracketing unit test."""
    from .functions.sketches import heavy_hitter_tokens

    return heavy_hitter_tokens(_docs(sf_dir, ["text"]), k=20)


def q_chunk_documents(sf_dir: str) -> rd.Dataset:
    """Token-window chunking (64-token windows, 16 overlap) — the RAG /
    training context-chunking pass; row-local flat-map, exact DuckDB
    oracle over the same range/slice arithmetic."""
    return textstats.chunk_documents(
        _docs(sf_dir, ["doc_id", "text"]), chunk_tokens=64, overlap=16
    )


def q_profile_events(sf_dir: str) -> rd.Dataset:
    """Per-column data-quality profile of the events table (row/null
    counts, typed min/max) from mergeable per-batch partials — exact
    DuckDB oracle (UNION ALL of per-column aggregates)."""
    from .functions.profiling import profile_columns

    ds = _read_parquet(f"{sf_dir}/events.parquet")
    return profile_columns(ds, ["event_id", "user_id", "value", "event_type"])


def q_lm_score(sf_dir: str) -> rd.Dataset:
    """CCNet-family LM quality score: per-doc mean unigram logprob under
    the corpus's own add-one-smoothed model (vocab broadcast once, scored
    by an actor pool) — exact DuckDB oracle."""
    return textstats.unigram_logprob_batchfn(_docs(sf_dir, ["doc_id", "text"]))


def q_lm_score_topn(sf_dir: str) -> rd.Dataset:
    """Web-scale LM quality score: top-256 token vocabulary + one
    average-count OOV bucket, built fully distributed (the driver never
    holds the merged vocabulary) — exact DuckDB oracle (LIMIT + LEFT
    JOIN + CASE over the same exact counts). top_n=256 is far below the
    test corpora's vocabulary so the OOV path is genuinely exercised."""
    return textstats.unigram_logprob_topn(
        _docs(sf_dir, ["doc_id", "text"]), top_n=256
    )


def q_line_dedup(sf_dir: str) -> rd.Dataset:
    """RefinedWeb-style corpus-wide exact LINE dedup: 16-token lines, a
    line survives only at its first (doc_id, line_idx) occurrence, docs
    reassemble from surviving lines — exact DuckDB oracle (row_number
    over line groups + ordered string_agg)."""
    from .functions.dedup import dedup_lines

    return dedup_lines(_docs(sf_dir, ["doc_id", "text"]), line_tokens=16)


def q_redact_pii(sf_dir: str) -> rd.Dataset:
    """PII redaction audit: deterministic synthetic PII (email for
    doc_id % 3 != 0, phone for doc_id % 2 == 0, IP for doc_id % 5 == 0)
    is appended to each doc on BOTH sides, then scrubbed with shared RE2
    patterns — exact DuckDB oracle (same regexp_replace chain)."""
    from .functions.textstats import redact_pii

    def inject(batch: pa.Table) -> pa.Table:
        doc_id = batch.column("doc_id").to_numpy(zero_copy_only=False)
        text = batch.column("text").to_pandas().reset_index(drop=True)
        ids = pd.Series(doc_id.astype(str))
        email = (" mail user" + ids + "@mail.example").where(
            pd.Series(doc_id % 3 != 0), "")
        phone = (" call 555-" + pd.Series((doc_id % 10000).astype(str))).where(
            pd.Series(doc_id % 2 == 0), "")
        ip = (" host 10.0." + pd.Series((doc_id % 256).astype(str)) + ".7").where(
            pd.Series(doc_id % 5 == 0), "")
        out = text + email + phone + ip
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(out, pa.string())],
            names=["doc_id", "text"],
        )

    injected = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        inject, batch_format="pyarrow"
    )
    return injected.map_batches(redact_pii, batch_format="pyarrow").drop_columns(
        ["text"]
    )


def q_top_docs_per_lang(sf_dir: str) -> rd.Dataset:
    """Per-key top-k (QUALIFY shape): 3 longest docs per language,
    ties by doc_id — per-batch partial top-k per key, bucketed final,
    no global sort."""
    from .functions.relational import grouped_topk

    ds = _read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "doc_id", "n_chars"]
    )
    return grouped_topk(ds, key_col="lang", val_col="n_chars", k=3,
                        id_col="doc_id")


def q_value_quantiles_by_type(sf_dir: str) -> rd.Dataset:
    """Exact per-group quantile_cont over events.value by event_type
    (keys hash-bucketed, one vectorized multi-quantile pass per bucket)."""
    from .functions.sketches import grouped_quantiles

    ds = _read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    return grouped_quantiles(ds, key_col="event_type", val_col="value")


def q_mixture_sample(sf_dir: str) -> rd.Dataset:
    """Data-mixing sampler: target 200 docs at source weights
    src0:0.5, src1:0.25, src2:0.25 (exact binary fractions so k_g float
    math is bit-identical to the SQL side), selection by smallest
    md5(doc_id) per source — exact QUALIFY oracle."""
    from .functions.dedup import sample_to_mixture

    ds = _read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    return sample_to_mixture(
        ds, "source", {"src0": 0.5, "src1": 0.25, "src2": 0.25}, total=200
    )


def q_quality_buckets(sf_dir: str) -> rd.Dataset:
    """CCNet-style quality bucketing (Wenzek et al. 2020 split corpora
    into head/middle/tail by score terciles): exact global tercile cuts
    via the distributed histogram-selection quantile (no sort, no
    collect), then a row-local bucket assignment. Tie safety: the cuts
    are computed with DuckDB quantile_cont's weighted interpolation form
    (interpolation="duckdb"), so a 6dp quality_score exactly equal to a
    tercile cut buckets identically on both engines — the numpy lerp
    form can land an ulp away at some fracs and flip a <= on a tie."""
    from .functions.sketches import exact_quantiles

    scored = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        textstats.quality_batch, batch_format="pyarrow"
    ).select_columns(["doc_id", "quality_score"])
    scored = scored.materialize()  # consumed 3x: two cuts + assignment
    c1, c2 = exact_quantiles(
        scored, "quality_score", [1.0 / 3.0, 2.0 / 3.0], interpolation="duckdb"
    )

    def assign(batch: pa.Table) -> pa.Table:
        import numpy as np

        s = batch.column("quality_score").to_numpy(zero_copy_only=False)
        bucket = np.where(s <= c1, "tail", np.where(s <= c2, "middle", "head"))
        return batch.append_column("bucket", pa.array(bucket.astype(object)))

    return scored.map_batches(assign, batch_format="pyarrow")


def q_lang_stats(sf_dir: str) -> rd.Dataset:
    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "lang": batch.column("lang").to_pylist(),
                "n_chars": batch.column("n_chars").to_numpy(),
            }
        )
        agg = df.groupby("lang", as_index=False).agg(
            n_docs=("n_chars", "size"), chars_sum=("n_chars", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        n = int(g["n_docs"].sum())
        return pd.DataFrame(
            {
                "lang": [g["lang"].iloc[0]],
                "n_docs": [n],
                "avg_chars": [round_half_away(float(g["chars_sum"].sum()) / n, 4)],
            }
        )

    return (
        _docs(sf_dir, ["lang", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .map_groups(final, batch_format="pandas")
    )


def q_distinct_langs(sf_dir: str) -> pa.Table:
    """Native Dataset.unique coverage (distinct values of one column)."""
    vals = sorted(_docs(sf_dir, ["lang"]).unique("lang"))
    return pa.Table.from_pydict({"lang": vals})


def q_top_sources(sf_dir: str) -> rd.Dataset:
    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({"source": batch.column("source").to_pylist()})
        agg = df.groupby("source", as_index=False).size().rename(columns={"size": "n_docs"})
        return pa.Table.from_pandas(agg, preserve_index=False)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"source": [g["source"].iloc[0]], "n_docs": [int(g["n_docs"].sum())]}
        )

    return (
        _docs(sf_dir, ["source"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .map_groups(final, batch_format="pandas")
        .sort(["n_docs", "source"], descending=[True, False])
        .limit(5)
    )


def q_tenant_stats(sf_dir: str) -> rd.Dataset:
    """Tenant-scoped aggregate (reference multi-tenancy, J3): derive the
    tenant column (same rule as corpus_from_documents), scope to one
    tenant with the filter helper, aggregate per source — exact
    WHERE-clause DuckDB oracle."""
    from .pipeline import scope_tenant

    def add_tenant(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        return batch.append_column(
            "tenant_id", pa.array([f"t{int(d) % 4}" for d in ids], pa.string())
        )

    ds = scope_tenant(
        _docs(sf_dir, ["doc_id", "source", "n_chars"]).map_batches(
            add_tenant, batch_format="pyarrow"
        ),
        "t1",
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "source": batch.column("source").to_pylist(),
                "n_chars": batch.column("n_chars").to_numpy(),
            }
        )
        agg = df.groupby("source", as_index=False).agg(
            n_docs=("n_chars", "size"), sum_chars=("n_chars", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "source": [g["source"].iloc[0]],
                "n_docs": [int(g["n_docs"].sum())],
                "sum_chars": [int(g["sum_chars"].sum())],
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .map_groups(final, batch_format="pandas")
    )


# -------------------------------------------------------------------- dedup

def q_stratified_sample(sf_dir: str) -> rd.Dataset:
    """Deterministic stratified sample: 5 docs per language, chosen by
    smallest md5(doc_id) — a keyed pseudo-random order reproducible in
    SQL (ORDER BY md5(...)), so the sample is an exact-oracle query."""
    ds = _docs(sf_dir, ["doc_id", "lang"])
    out = dedup.stratified_sample(ds, group_col="lang", k=5)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["doc_id", "lang"])

    return out.map_batches(project, batch_format="pyarrow")


def q_exact_dedup(sf_dir: str) -> rd.Dataset:
    return dedup.exact_dedup_min_doc(_docs(sf_dir, ["doc_id", "text"]))


def q_minhash_pairs(sf_dir: str) -> rd.Dataset:
    out = dedup.minhash_dup_pairs(_docs(sf_dir, ["doc_id", "text"]), threshold=0.7)
    return out.select_columns(["doc_a", "doc_b", "est_jaccard"])


def q_simhash_pairs(sf_dir: str) -> rd.Dataset:
    return dedup.simhash_dup_pairs(_docs(sf_dir, ["doc_id", "text"]), max_hamming=3)


def q_jaccard_dups(sf_dir: str) -> rd.Dataset:
    """Exact n-gram Jaccard near-dups over MinHash+LSH candidates (the
    two-stage recall/precision composition — no all-pairs pass)."""
    out = dedup.ngram_jaccard_dup_pairs(
        _docs(sf_dir, ["doc_id", "text"]), threshold=0.8, candidate_threshold=0.5
    )
    return out.select_columns(["doc_a", "doc_b", "jaccard"])


def q_train_test_split(sf_dir: str) -> rd.Dataset:
    """Deterministic 80/10/10 corpus split keyed on md5(doc_id) — exact
    DuckDB oracle (same two-hex-char cut on both sides)."""
    return dedup.train_test_split(_docs(sf_dir, ["doc_id"])).select_columns(
        ["doc_id", "split"]
    )


def q_shuffle_rank(sf_dir: str) -> rd.Dataset:
    """Seeded global training-shuffle order: every doc's position under
    ORDER BY md5(id || ':7') — distributed rank via 256 hex-prefix range
    buckets + prefix offsets, no global sort. Exact DuckDB oracle
    (row_number() OVER the same key)."""
    return dedup.seeded_shuffle_rank(_docs(sf_dir, ["doc_id"]), seed=7)


def q_quality_gate(sf_dir: str) -> rd.Dataset:
    """Median-gated quality filter: docs at/above the EXACT corpus median
    quality score, via distributed selection (histogram refinement — no
    global sort, no full-column collect). Exact DuckDB quantile_cont
    oracle."""
    from .functions.sketches import exact_quantile

    scored = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        textstats.quality_batch, batch_format="pyarrow"
    )
    med = exact_quantile(scored, "quality_score", 0.5)

    def count_partial(batch: pa.Table) -> pa.Table:
        qs = batch.column("quality_score").to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "n_total": pa.array([batch.num_rows], pa.int64()),
                "n_kept": pa.array([int((qs >= med).sum())], pa.int64()),
            }
        )

    partials = scored.map_batches(count_partial, batch_format="pyarrow").to_pandas()
    return pa.Table.from_pydict(
        {
            "n_total": pa.array([int(partials["n_total"].sum())], pa.int64()),
            "n_kept": pa.array([int(partials["n_kept"].sum())], pa.int64()),
        }
    )


def q_curation_summary(sf_dir: str) -> rd.Dataset:
    """Composed curation pipeline: quality gate -> exact dedup -> hash
    join back -> md5 split -> per-split doc/token budget. Exact DuckDB
    oracle over the identical composition."""
    from .functions.curation import curation_summary

    return curation_summary(_docs(sf_dir, ["doc_id", "text"]))


def q_decontaminate(sf_dir: str) -> rd.Dataset:
    """Benchmark decontamination: train-split docs sharing any token
    3-gram with the test split. Eval n-gram set broadcast once (loud size
    guard), train side streams through an actor-pool membership index —
    exact DuckDB oracle over the same md5 split cuts."""
    return dedup.decontaminate_against_eval(_docs(sf_dir, ["doc_id", "text"]), n=3)


def q_decontaminate_sharded(sf_dir: str) -> rd.Dataset:
    """Corpus-scale decontamination: identical semantics to
    q_decontaminate, but the eval n-gram set lives hash-partitioned
    across membership actors (no driver collection, no size ceiling) —
    same exact DuckDB oracle."""
    return dedup.decontaminate_against_eval_sharded(
        _docs(sf_dir, ["doc_id", "text"]), n=3, n_shards=4
    )


def q_negative_pairs(sf_dir: str) -> rd.Dataset:
    """Deterministic contrastive negative sampling: each doc pairs with
    the doc half a revolution away in the seeded shuffle order (a
    reproducible derangement) — shuffle rank composed with an int-keyed
    hash join; exact row_number-based DuckDB oracle."""
    return dedup.negative_pairs(_docs(sf_dir, ["doc_id"]), seed=7)


def q_pack_sequences(sf_dir: str) -> rd.Dataset:
    """Pack docs into 512-token training sequences (hash-bucketed greedy
    fill, deterministic across partitionings)."""
    from .functions import packing

    docs = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(textstats.token_count_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "n_tokens"])
    )
    return packing.pack_sequences(docs, max_tokens=512)


# --------------------------------------------------------------- similarity

def _query_vec(sf_dir: str) -> list[float]:
    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    idx = t.column("vec_id").to_pylist().index(0)
    return t.column("embedding").to_pylist()[idx]


def _emb(sf_dir: str) -> rd.Dataset:
    return _read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )


def q_ann_topk(sf_dir: str) -> rd.Dataset:
    out = similarity.topk_cosine(_emb(sf_dir), _query_vec(sf_dir), k=10)
    return out.sort(["cos_sim", "vec_id"], descending=[True, False])


def q_ann_topk_lsh(sf_dir: str) -> rd.Dataset:
    out = similarity.topk_cosine_lsh(_emb(sf_dir), _query_vec(sf_dir), k=10)
    return out.sort(["cos_sim", "vec_id"], descending=[True, False])


def q_ann_topk_ivf(sf_dir: str) -> rd.Dataset:
    """IVF-partitioned approximate top-k (spherical k-means inverted
    lists, n_probe nearest lists scored) — the third ANN tier next to the
    exact brute force and the LSH multiprobe (rows-only: recall < 1)."""
    out = similarity.topk_cosine_ivf(_emb(sf_dir), _query_vec(sf_dir), k=10)
    return out.sort(["cos_sim", "vec_id"], descending=[True, False])


def q_ann_topk_pq(sf_dir: str) -> rd.Dataset:
    """Product-quantization ANN (the m-bytes-per-vector memory path:
    split-invariant Lloyd codebooks, asymmetric-distance code scan) with
    the standard exact re-rank tail over 5x-oversampled candidates —
    recall@10 = 1.0 vs exact on this corpus (raw ADC 0.6; thresholds
    pinned in tests/test_pq.py). Iterative training — rows-only, golden
    pinned."""
    out = similarity.pq_topk_cosine(
        _emb(sf_dir), _query_vec(sf_dir), k=10, m=32, ksub=16,
        rerank_oversample=5,
    )
    return out.sort(["cos_sim", "vec_id"], descending=[True, False])


def q_ann_topk_int8(sf_dir: str) -> rd.Dataset:
    """Top-k cosine over int8-quantized vectors (4x storage path):
    quantize -> dequantized-grid matmul -> partial top-k. Quantization
    perturbs similarities -> golden-pinned (recall vs exact asserted in
    tests)."""
    qds = similarity.quantize_embeddings(_emb(sf_dir))
    out = similarity.topk_cosine_int8(qds, _query_vec(sf_dir), k=10)
    return out.sort(["cos_sim", "vec_id"], descending=[True, False])


def q_label_centroids(sf_dir: str) -> rd.Dataset:
    """Per-label embedding centroid summary (class prototypes): mergeable
    per-batch sum-vectors, one d-dim float64 per label per batch through
    the shuffle — exact DuckDB oracle via unnest + per-dim avg."""
    ds = _read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )
    return similarity.label_centroids(ds).sort("label")


def q_kmeans_summary(sf_dir: str) -> rd.Dataset:
    """Distributed spherical k-means (5 Lloyd iterations, deterministic
    mix64 init) cluster summary — iterative, not SQL-expressible; pinned
    by a sf0.001 golden + partitioning-invariance test."""
    return similarity.kmeans_summary(_emb(sf_dir), n_clusters=8)


def q_logreg_label(sf_dir: str) -> rd.Dataset:
    """Distributed logistic-regression training (one-vs-rest on the
    embeddings table's label column, 8 full-batch GD iterations): one
    streamed gradient pass per iteration with per-ROW int64 fixed-point
    quantization, so the fitted weights are bit-identical across block
    splits. Iterative — not SQL-expressible; pinned by the sf0.001
    golden + brute-force-equality/invariance tests (tests/test_ml.py)."""
    from .functions.ml import logreg_label_query

    return logreg_label_query(
        _read_parquet(
            f"{sf_dir}/embeddings.parquet",
            columns=["vec_id", "embedding", "label"],
        ),
        target_label=0,
    )


def q_embedding_pca(sf_dir: str) -> rd.Dataset:
    """Top-2 PCA projection of the embeddings table: one mergeable
    second-moment pass (exact int64 fixed-point partials, so the fit is
    bit-identical across block splits) + a d×d driver eigh + one
    row-local projection pass. No SQL eigendecomposition — rows-only,
    pinned by the sf0.001 golden + brute-force-equality/invariance
    tests (tests/test_pca.py)."""
    return similarity.pca_project(_emb(sf_dir), k=2)


def q_centroid_dist(sf_dir: str) -> rd.Dataset:
    """Per-vector euclidean distance to its label centroid (embedding
    outlier signal) — exact DuckDB unnest/avg/join oracle."""
    ds = _read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "label", "embedding"],
    )
    return similarity.centroid_distances(ds)


def q_semantic_dedup(sf_dir: str) -> rd.Dataset:
    """SemDeDup-style semantic dedup over the planted-augmented table:
    k-means blocking + within-cluster greedy cosine pruning (tau=0.94
    sits inside the planted near-dup band). Iterative + approximate ->
    golden-pinned, partitioning-invariance tested."""
    kept = similarity.semantic_dedup_keep(
        similarity.augment_with_planted(_emb(sf_dir)), tau=0.94
    )
    return kept.sort("vec_id")


def q_embedding_dups(sf_dir: str) -> rd.Dataset:
    """LSH-blocked near-dup pairs over the planted-augmented table (scale
    path; recall < 1 by design -> rows-only driver check)."""
    return similarity.embedding_dup_pairs(
        similarity.augment_with_planted(_emb(sf_dir)), tau=0.8
    )


def q_embedding_dups_exact(sf_dir: str) -> rd.Dataset:
    """Exact near-dup pairs (blocked brute force, full recall) over the
    planted-augmented table — value-level DuckDB oracle."""
    out = similarity.embedding_dup_pairs_exact(
        similarity.augment_with_planted(_emb(sf_dir)), tau=0.8
    )
    return out.sort(["vec_id_a", "vec_id_b"])


# ------------------------------------------------------------------- events

def q_window_counts(sf_dir: str) -> rd.Dataset:
    return events.tumbling_window_counts(
        _read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"])
    )


def q_sessions(sf_dir: str) -> rd.Dataset:
    return events.sessions_per_user(
        _read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    )


def q_approx_distinct_users(sf_dir: str) -> rd.Dataset:
    """HyperLogLog approximate distinct users per event type (mergeable
    sketch: per-batch partial registers -> elementwise-max merge; rows-only
    — estimates deviate from exact counts by design, ~1.6% at p=12)."""
    from .functions.sketches import approx_distinct_per_key

    ds = _read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])
    return approx_distinct_per_key(ds, "event_type", "user_id")


def q_event_gaps(sf_dir: str) -> rd.Dataset:
    """LAG window analogue: per-user microsecond gap from the previous
    event in (ts, event_id) order; first event per user dropped (exact
    int64 math — no nulls, no float accumulation)."""
    return events.event_gaps(
        _read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
        )
    )


def q_rolling_avg(sf_dir: str) -> rd.Dataset:
    """ROWS-frame window analogue: per-user rolling mean of value over
    (2 PRECEDING .. CURRENT ROW) in (ts, event_id) order, rounded 6dp."""
    return events.rolling_avg_per_user(
        _read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "user_id", "ts", "value"],
        )
    )


def q_distinct_texts_per_source(sf_dir: str) -> rd.Dataset:
    """Exact COUNT(DISTINCT text) per source — the exact counterpart of
    q_approx_distinct_users: per-batch (source, md5(text)) partials, so
    the shuffle never carries document payloads, 128-bit digests so
    10^12-row corpora don't birthday-collide (64-bit would undercount)."""
    from .functions.sketches import exact_distinct_per_key

    ds = _read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )
    return exact_distinct_per_key(ds, "source", "text")


def q_running_total(sf_dir: str) -> rd.Dataset:
    """Window-function analogue: per-user running sum of value in ts order.
    Users hash-bucket (all of a user's events co-locate); ONE vectorized
    pass per bucket: sort by (user_id, ts, event_id), grouped cumsum,
    vectorized rounding — no per-user Ray group, no per-row Python loop."""
    from .functions import bucketed_group_apply, round_half_away_np

    ds = _read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        run = g.groupby("user_id", sort=False)["value"].cumsum()
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "running_value": round_half_away_np(run.to_numpy(), 6),
            }
        )

    return bucketed_group_apply(ds, "user_id", per_bucket)


def q_first_events_per_user(sf_dir: str) -> rd.Dataset:
    """Top-k-per-group (row_number window analogue): each user's first 3
    events in (ts, event_id) order — bucketed, one vectorized grouped
    head(3) per bucket."""
    from .functions import bucketed_group_apply

    ds = _read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        return g.groupby("user_id", sort=False).head(3)[["user_id", "event_id"]]

    return bucketed_group_apply(ds, "user_id", per_bucket)


def q_value_histogram(sf_dir: str) -> rd.Dataset:
    """Binned aggregate (histogram) of event values: bucket = floor(v/10),
    per-batch bincount partials -> tiny groupby merge."""
    ds = _read_parquet(f"{sf_dir}/events.parquet", columns=["value"])

    def partial(batch: pa.Table) -> pa.Table:
        import numpy as np

        v = batch.column("value").to_numpy(zero_copy_only=False)
        b = np.floor(v / 10.0).astype(np.int64)
        uniq, counts = np.unique(b, return_counts=True)
        return pa.Table.from_pydict(
            {"bucket": uniq, "n_events": counts.astype(np.int64)}
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "bucket": [int(g["bucket"].iloc[0])],
                "n_events": [int(g["n_events"].sum())],
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(final, batch_format="pandas")
    )


def q_asof_view_before_click(sf_dir: str) -> rd.Dataset:
    """As-of join: each click event matched to the user's most recent
    prior (or simultaneous) view event."""
    from .functions.joins import asof_join

    # row filter pushed to the parquet read (row-group pruning): only
    # click/view rows leave storage, and only the needed columns
    clicks = _read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"],
        filter=(pc.field("event_type") == "click"),
    )
    views = _read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"],
        filter=(pc.field("event_type") == "view"),
    )
    out = asof_join(clicks, views, key="user_id", ts="ts", value_cols=[])

    # rename via an arrow batch op (Dataset.rename_columns trips on
    # pandas-format blocks emitted by map_groups in ray 2.49)
    def project(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch.column("event_id"), batch.column("ts_matched")],
            names=["event_id", "matched_ts"],
        )

    return out.map_batches(project, batch_format="pyarrow")


def q_views_before_click(sf_dir: str) -> rd.Dataset:
    """Range join: for each click, how many views by the same user landed
    in the preceding hour [ts-1h, ts). One key shuffle + per-user sorted
    searchsorted counts (no pairwise expansion)."""
    from .functions.joins import range_join_count

    clicks = _read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"],
        filter=(pc.field("event_type") == "click"),
    )
    views = _read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"],
        filter=(pc.field("event_type") == "view"),
    )
    out = range_join_count(
        clicks, views, key="user_id", ts="ts",
        lo_offset=-3_600_000_000, hi_offset=0,  # us: [-1h, 0)
    )

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["event_id", "n_in_range"])

    return out.map_batches(project, batch_format="pyarrow")


def q_customers_no_orders(sf_dir: str) -> rd.Dataset:
    """Anti join (bucketed): customers that never placed a big order
    (> 300k — the synthetic data gives every customer SOME order, so the
    unrestricted anti join would be empty and exercise nothing)."""
    from .functions.joins import bucketed_merge_join

    cust = _read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
    orders = _read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).filter(expr="o_totalprice > 300000")

    def distinct_keys(batch: pa.Table) -> pa.Table:
        import numpy as np

        u = np.unique(batch.column("o_custkey").to_numpy())
        return pa.Table.from_pydict({"o_custkey": u})

    order_keys = orders.map_batches(
        distinct_keys, batch_format="pyarrow", batch_size=16384
    )
    return bucketed_merge_join(
        cust, order_keys, on="c_custkey", right_on="o_custkey", how="anti"
    )


# --------------------------------------------------------------- relational

def q_pricing(sf_dir: str) -> rd.Dataset:
    # ship-date predicate pushed into the parquet read (row-group pruning);
    # pricing_summary's own filter stays as a correctness guard for direct
    # callers and is a no-op on the pre-filtered rows
    return relational.pricing_summary(
        _read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=[
                "l_returnflag",
                "l_linestatus",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
                "l_shipdate",
            ],
            filter=(
                pc.field("l_shipdate")
                <= pa.scalar("1998-09-02").cast(pa.timestamp("us"))
            ),
        )
    )


def q_price_quantiles_sketch(sf_dir: str) -> rd.Dataset:
    """Approximate per-flag price quantiles via the mergeable equi-depth
    sketch (the shuffle carries <=4 KB summaries, never rows) — the
    scale path next to q_price_quantiles' exact map_groups (rows-only:
    approximate by design; accuracy pinned by unit test + golden)."""
    from .functions.sketches import quantile_sketch_per_key

    ds = _read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_extendedprice"]
    )
    return quantile_sketch_per_key(
        ds, "l_returnflag", "l_extendedprice",
        {"median_price": 0.5, "p95_price": 0.95},
    )


def q_price_quantiles(sf_dir: str) -> rd.Dataset:
    """Percentile aggregates per group (exact, linear interpolation —
    matches DuckDB quantile_cont)."""
    ds = _read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_extendedprice"]
    )

    def per_flag(g: pd.DataFrame) -> pd.DataFrame:
        q = g["l_extendedprice"].quantile([0.5, 0.95], interpolation="linear")
        return pd.DataFrame(
            {
                "l_returnflag": [g["l_returnflag"].iloc[0]],
                "median_price": [round_half_away(float(q.loc[0.5]), 2)],
                "p95_price": [round_half_away(float(q.loc[0.95]), 2)],
            }
        )

    return ds.groupby("l_returnflag").map_groups(per_flag, batch_format="pandas")


def q_top_customers(sf_dir: str) -> rd.Dataset:
    out = relational.top_customers(
        _read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
        ),
        f"{sf_dir}/customer.parquet",
        k=10,
    )
    return out.sort(["total_spent", "c_custkey"], descending=[True, False])


def q_sliding_windows(sf_dir: str) -> rd.Dataset:
    return events.sliding_window_counts(
        _read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"])
    )


def q_top_events(sf_dir: str) -> rd.Dataset:
    """Distributed sort + limit (A5/top-k analogue over a large table)."""
    ds = _read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "value"])
    return ds.sort(["value", "event_id"], descending=[True, False]).limit(20)


def q_lineitem_agg(sf_dir: str) -> rd.Dataset:
    """Native ray.data.aggregate API coverage (Sum/Mean/Max/Count)."""
    from ray.data.aggregate import Count, Max, Mean, Sum

    ds = _read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_discount", "l_extendedprice"],
    )
    agg = ds.groupby("l_returnflag").aggregate(
        Sum("l_quantity", alias_name="sum_qty"),
        Mean("l_discount", alias_name="avg_disc"),
        Max("l_extendedprice", alias_name="max_price"),
        Count(alias_name="n_rows"),
    )

    def rounded(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "sum_qty": pa.array(
                    [round_half_away(v, 2) for v in batch.column("sum_qty").to_pylist()]
                ),
                "avg_disc": pa.array(
                    [round_half_away(v, 6) for v in batch.column("avg_disc").to_pylist()]
                ),
                "max_price": pa.array(
                    [round_half_away(v, 2) for v in batch.column("max_price").to_pylist()]
                ),
                "n_rows": batch.column("n_rows"),
            }
        )

    return agg.map_batches(rounded, batch_format="pyarrow")


def q_orders_by_nation(sf_dir: str) -> rd.Dataset:
    """Bucketed hash join (joins.bucketed_merge_join) orders x customer ->
    per-nation aggregate. Orders are partial-aggregated per custkey INSIDE
    map_batches before the join (the join is against a per-custkey
    dimension, so the probe side shrinks ~10x and the shuffle moves
    partials, not rows) — the difference from
    q_orders_by_nation_bucketed, which joins raw order rows."""
    from .functions.joins import bucketed_merge_join

    orders = _read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    cust = _read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )

    def pre_agg(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "o_custkey": batch.column("o_custkey").to_numpy(),
                "total": batch.column("o_totalprice").to_numpy(),
            }
        )
        agg = df.groupby("o_custkey", as_index=False).agg(
            n_orders=("total", "size"), total=("total", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    # large batches so in-batch custkey dedupe actually shrinks the shuffle
    order_partials = orders.map_batches(
        pre_agg, batch_format="pyarrow", batch_size=16384
    )
    joined = bucketed_merge_join(
        order_partials, cust, on="o_custkey", right_on="c_custkey"
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "nation": batch.column("c_nationkey").to_numpy(),
                "n_orders": batch.column("n_orders").to_numpy(),
                "total": batch.column("total").to_numpy(),
            }
        )
        agg = df.groupby("nation", as_index=False).agg(
            n_orders=("n_orders", "sum"), total_spent=("total", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "nation": [int(g["nation"].iloc[0])],
                "n_orders": [int(g["n_orders"].sum())],
                "total_spent": [round_half_away(float(g["total_spent"].sum()), 2)],
            }
        )

    return joined.map_batches(partial, batch_format="pyarrow").groupby(
        "nation"
    ).map_groups(final, batch_format="pandas")


def q_orders_by_nation_bucketed(sf_dir: str) -> rd.Dataset:
    """Same result via the bucketed join over raw order rows (no
    per-custkey pre-aggregation; same oracle SQL)."""
    from .functions.joins import bucketed_merge_join

    orders = _read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    cust = _read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    joined = bucketed_merge_join(orders, cust, on="o_custkey", right_on="c_custkey")

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "nation": batch.column("c_nationkey").to_numpy(zero_copy_only=False),
                "total": batch.column("o_totalprice").to_numpy(zero_copy_only=False),
            }
        )
        agg = df.groupby("nation", as_index=False).agg(
            n_orders=("total", "size"), total_spent=("total", "sum")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "nation": [int(g["nation"].iloc[0])],
                "n_orders": [int(g["n_orders"].sum())],
                "total_spent": [round_half_away(float(g["total_spent"].sum()), 2)],
            }
        )

    return joined.map_batches(partial, batch_format="pyarrow").groupby(
        "nation"
    ).map_groups(final, batch_format="pandas")


def q_revenue_by_customer(sf_dir: str) -> rd.Dataset:
    """Three-table join (TPC-H Q10-shaped): lineitem(returnflag=R) ⋈
    orders ⋈ customer, top-20 customers by revenue. The returnflag filter
    is pushed into the parquet read; see relational.revenue_by_customer
    for the per-stage shuffle-minimization."""
    lineitem = _read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=(pc.field("l_returnflag") == "R"),
    )
    orders = _read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    return relational.revenue_by_customer(
        lineitem, orders, f"{sf_dir}/customer.parquet", k=20
    )


def q_minhash_dedup_docs(sf_dir: str) -> rd.Dataset:
    """Near-dup removal survivors (connected components over LSH pairs)."""
    return dedup.minhash_dedup_keep(_docs(sf_dir, ["doc_id", "text"]), threshold=0.85)


def q_bloom_novel(sf_dir: str) -> rd.Dataset:
    """Bloom-gated incremental exact dedup: the doc_id%3==0 "new ingest
    batch" docs whose text never appears in the doc_id%3!=0 "already
    ingested" corpus. The Bloom bitmap only prunes — every positive is
    re-verified against the seen corpus, so the result equals the SQL
    NOT EXISTS anti-join exactly."""
    docs = _docs(sf_dir, ["doc_id", "text"])

    def _part(is_new: bool):
        def pick(batch: pa.Table) -> pa.Table:
            rem0 = batch.column("doc_id").to_numpy() % 3 == 0
            return batch.filter(pa.array(rem0 if is_new else ~rem0))

        return pick

    return dedup.bloom_novel_docs(
        docs.map_batches(_part(True), batch_format="pyarrow"),
        docs.map_batches(_part(False), batch_format="pyarrow"),
    )


def q_novel_sharded(sf_dir: str) -> rd.Dataset:
    """Actor-sharded variant of q_bloom_novel (same NOT EXISTS oracle):
    the seen-corpus digest index lives across membership actors, so
    neither side pays a driver collect or a broadcast size ceiling —
    the both-sides-100TB path."""
    docs = _docs(sf_dir, ["doc_id", "text"])

    def _part(is_new: bool):
        def pick(batch: pa.Table) -> pa.Table:
            rem0 = batch.column("doc_id").to_numpy() % 3 == 0
            return batch.filter(pa.array(rem0 if is_new else ~rem0))

        return pick

    return dedup.novel_docs_sharded(
        docs.map_batches(_part(True), batch_format="pyarrow"),
        docs.map_batches(_part(False), batch_format="pyarrow"),
    )


# ------------------------------------------------------------- multimodal

def q_media_features(sf_dir: str) -> rd.Dataset:
    """Binary media column -> decode/resize/feature actor stage (npy AND
    png codecs real end-to-end — the table alternates them by doc id;
    rows-only check)."""
    from .functions import multimodal

    return multimodal.media_features(sf_dir)


def q_image_dups(sf_dir: str) -> rd.Dataset:
    """Image near-dup pairs via perceptual dHash + the shared pigeonhole
    hamming blocker: payloads stay on the decode actors, only (id, hash)
    rows shuffle. Duplicate-text docs render identical images -> pinned
    hamming-0 pairs (golden; no SQL can decode images)."""
    from .functions import multimodal

    return multimodal.image_dup_pairs(sf_dir)


def q_media_features_jpeg(sf_dir: str) -> rd.Dataset:
    """The same feature stage over a baseline-JPEG-encoded media table
    (capped subset): drives the pure-stdlib lossy codec seam end-to-end
    through the driver gate. Deterministic encoder -> golden-pinned."""
    from .functions import multimodal

    return multimodal.media_features_jpeg(sf_dir)


def q_audio_features(sf_dir: str) -> rd.Dataset:
    """Binary AUDIO column -> stdlib-wave decode + feature actor stage
    (duration/rms/peak/zero-crossings over deterministic PCM16 clips keyed
    by doc id). Sine synthesis is not SQL-expressible -> golden-pinned."""
    from .functions import multimodal

    return multimodal.audio_features(sf_dir)


def q_video_frame_features(sf_dir: str) -> rd.Dataset:
    """Binary VIDEO column (true ISO BMFF mp4 payloads, raw-gray sample
    entry) -> container demux + every-2nd-frame sample -> per-frame image
    features (capped subset — codec-seam path like the jpeg table).
    Container math is not SQL-expressible -> golden-pinned."""
    from .functions import multimodal

    return multimodal.video_frame_features(sf_dir)


# ------------------------------------------------- extraction (non-SQL ops)

def q_video_frame_features_mjpeg(sf_dir: str) -> rd.Dataset:
    """Motion-JPEG variant of the video pipeline: mp4 payloads carry
    standard 'jpeg' sample entries (per-sample baseline JPEG, per-sample
    stsz) instead of the private raw-gray fourcc — same demux ->
    FrameSample -> features path, capped smaller because the sequential
    entropy coder makes mjpeg a codec/interop seam, not a throughput
    payload. Not SQL-expressible -> golden-pinned."""
    from .functions import multimodal

    return multimodal.video_frame_features(sf_dir, limit=96, codec="mjpeg")


def q_extract_flagship(sf_dir: str) -> rd.Dataset:
    """The flagship interleaved-extraction pipeline over the corpus derived
    from the documents table (rows-only driver check; the real conformance
    gate is the oracle suite in tests/)."""
    ds = corpus_from_documents(sf_dir)
    return build_extract_pipeline(ds, opts=PipelineOptions())


def q_detect_boxes(sf_dir: str) -> rd.Dataset:
    """Two-phase detect stage output as the span-level DETECT view
    (doc_id, span_idx, page dims, box count) — the reference's detect_result
    checkpoint made queryable (rows-only check)."""
    import pyarrow.compute as _pc

    from .stages.extract import detect_rows_view

    ds = corpus_from_documents(sf_dir)
    detected = build_extract_pipeline(ds, opts=PipelineOptions(), recognize=False)
    view = detected.map_batches(detect_rows_view, batch_format="pyarrow")

    def project(batch: pa.Table) -> pa.Table:
        n_boxes = _pc.list_value_length(batch.column("boxes"))
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "span_idx": batch.column("span_idx"),
                "width": batch.column("width"),
                "height": batch.column("height"),
                "n_boxes": _pc.cast(n_boxes, pa.int32()),
            }
        )

    return view.map_batches(project, batch_format="pyarrow")


def q_extract_summary(sf_dir: str) -> pa.Table:
    """Corpus-level aggregate of the flagship output (deterministic single
    row; rows-only check that pins totals across rounds)."""
    out = q_extract_flagship(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "n_docs": [batch.num_rows],
                "n_spans_out": [int(pc.sum(batch.column("n_spans_out")).as_py() or 0)],
                "n_blocks": [int(pc.sum(batch.column("n_blocks")).as_py() or 0)],
            }
        )

    parts = out.map_batches(partial, batch_format="pyarrow").take_all()
    return pa.Table.from_pydict(
        {
            "n_docs": [sum(r["n_docs"] for r in parts)],
            "n_spans_out": [sum(r["n_spans_out"] for r in parts)],
            "n_blocks": [sum(r["n_blocks"] for r in parts)],
        }
    )


def q_new_users_by_day(sf_dir: str) -> rd.Dataset:
    """Cohort-entry counts: users first seen per calendar day (min-ts per
    user, day-truncated) — exact int math, two bucketed merges, the raw
    event rows never shuffle."""
    return events.new_users_by_day(
        _read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    )


def q_funnel(sf_dir: str) -> "pa.Table":
    """Ordered view->click->purchase funnel (strictly-after min-ts hops):
    per-user-bucket vectorized merge+min passes, bounded 3-int driver
    merge."""
    return events.funnel_counts(
        _read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
        )
    )


def q_event_type_lift(sf_dir: str) -> "pa.Table":
    """Market-basket lift between event types over distinct users: all
    inputs are exact order-free integer counts, so the 6dp lift is a
    pure function of the data; raw events never shuffle."""
    return events.event_type_lift(
        _read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
        )
    )


def q_orders_rollup(sf_dir: str) -> rd.Dataset:
    """GROUP BY ROLLUP(year, priority) in one pass: leaf partials
    shuffle; subtotal levels derive from merged leaves (bounded driver
    table); 'ALL' sentinels on rolled-up columns."""
    from .functions.relational import rollup_orders

    return rollup_orders(
        _read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderdate", "o_orderpriority", "o_totalprice"],
        )
    )


def q_js_divergence(sf_dir: str) -> "pa.Table":
    """Pairwise Jensen-Shannon divergence (bits) between per-source token
    distributions — one tokenize pass (vocabulary partials materialized
    once), token-bucketed pair partials, bounded driver merge."""
    return textstats.js_divergence_by_source(
        _read_parquet(
            f"{sf_dir}/documents.parquet", columns=["source", "text"]
        )
    )


def q_cms_token_counts(sf_dir: str) -> "pa.Table":
    """Count-min sketch frequency probes for the exact top-50 tokens:
    constant-size mergeable grids per batch (never a vocabulary shuffle),
    pinned md5 hashing -> partition-independent estimates (golden)."""
    from .functions.sketches import cms_token_counts

    docs = _read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    probes = [
        r["token"] for r in textstats.top_tokens(docs, k=50).take_all()
    ]
    return cms_token_counts(docs, probes)


def q_weighted_sample(sf_dir: str) -> rd.Dataset:
    """Deterministic A-ES weighted sample (k=100, weight = n_chars): per-
    batch md5-uniform scoring + local top-k pre-trim, k-row global sort."""
    return dedup.weighted_sample(
        _read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
        )
    )


def q_range_window_sum(sf_dir: str) -> rd.Dataset:
    """RANGE-frame (1-hour interval) per-user rolling value sum — the
    time-interval window semantic (tie-order independent, SQL peer rows
    included), one bucketed shuffle + composite-key searchsorted pass."""
    return events.range_window_sum(
        _read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "user_id", "ts", "value"],
        )
    )


def q_supplier_volume(sf_dir: str) -> rd.Dataset:
    """TPC-H Q5-shaped six-table join (region/nation/supplier/customer
    broadcast, both fact sides pre-reduced, ONE orderkey hash join)."""
    from .functions.relational import supplier_volume_by_nation

    return supplier_volume_by_nation(
        _read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
        ),
        _read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_orderdate"],
        ),
        sf_dir,
    )


def q_nation_pagerank(sf_dir: str) -> rd.Dataset:
    """Weighted PageRank over the nation-level trade graph: one directed
    edge customer-nation -> supplier-nation per lineitem (weight =
    lineitem count via orders ⋈ lineitem), 5 damped power iterations
    (d=0.85) with dangling mass redistributed. The oracle runs the SAME
    five iterations unrolled as SQL CTEs (see _pagerank_sql)."""
    from .functions.graphs import nation_trade_pagerank

    return nation_trade_pagerank(sf_dir, damping=0.85, n_iter=5)


def _pagerank_sql(n_iter: int = 5, d: float = 0.85) -> str:
    """Unrolled power-iteration oracle for q_nation_pagerank: edge
    aggregation via the same joins, then one (dangling-mass, rank) CTE
    pair per iteration — identical arithmetic to pagerank_kernel."""
    parts = [
        "WITH co AS (SELECT o.o_orderkey AS k,"
        " CAST(c.c_nationkey AS BIGINT) AS src"
        " FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey),"
        " sl AS (SELECT l.l_orderkey AS k,"
        " CAST(s.s_nationkey AS BIGINT) AS dst, count(*) AS w"
        " FROM lineitem l JOIN supplier s ON l.l_suppkey = s.s_suppkey"
        " GROUP BY 1, 2),"
        " e AS (SELECT src, dst, CAST(sum(w) AS DOUBLE) AS w"
        " FROM co JOIN sl USING (k) GROUP BY 1, 2),"
        " outw AS (SELECT src, sum(w) AS ow FROM e GROUP BY 1),"
        " nodes AS (SELECT CAST(n_nationkey AS BIGINT) AS v, n_name"
        " FROM nation),"
        " nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM nodes),"
        " r0 AS (SELECT v, 1.0/(SELECT n FROM nn) AS r FROM nodes)"
    ]
    for t in range(n_iter):
        parts.append(
            f", d{t} AS (SELECT coalesce(sum(r), 0) AS dm FROM r{t}"
            f" WHERE v NOT IN (SELECT src FROM outw))"
            f", r{t + 1} AS (SELECT nodes.v,"
            f" (1 - {d})/(SELECT n FROM nn)"
            f" + {d}*(coalesce(inc.s, 0)"
            f" + (SELECT dm FROM d{t})/(SELECT n FROM nn)) AS r"
            f" FROM nodes LEFT JOIN ("
            f"SELECT e.dst AS v2, sum(r{t}.r * e.w / outw.ow) AS s"
            f" FROM e JOIN r{t} ON e.src = r{t}.v"
            f" JOIN outw ON outw.src = e.src"
            f" GROUP BY e.dst) inc ON inc.v2 = nodes.v)"
        )
    parts.append(
        f" SELECT nodes.n_name, round(r{n_iter}.r, 6) AS pagerank"
        f" FROM r{n_iter} JOIN nodes ON nodes.v = r{n_iter}.v"
    )
    return "".join(parts)


def q_corr_by_group(sf_dir: str) -> rd.Dataset:
    """Per-returnflag Pearson corr(l_quantity, l_extendedprice) via
    mergeable CENTERED co-moments (two streamed passes, no row shuffle)."""
    from .functions.relational import corr_by_group

    return corr_by_group(
        _read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_returnflag", "l_quantity", "l_extendedprice"],
        ),
        "l_returnflag",
        "l_quantity",
        "l_extendedprice",
    )


def q_spearman_docs(sf_dir: str) -> rd.Dataset:
    """Per-lang Spearman rank corr(n_chars, n_tokens) — monotonic
    association robust to outliers; EXACT integer doubled-rank moments
    (2*RANK + tie-count - 1), one identical final float expression on
    both engines."""
    from .functions.relational import spearman_by_group

    def add_tokens(batch: pa.Table) -> pa.Table:
        n_tok = pc.add(
            pc.count_substring(batch.column("text"), pattern=" "), 1
        )
        return batch.append_column(
            "n_tokens", pc.cast(n_tok, pa.int64())
        )

    ds = _docs(sf_dir, ["lang", "n_chars", "text"]).map_batches(
        add_tokens, batch_format="pyarrow"
    )
    return spearman_by_group(ds, "lang", "n_chars", "n_tokens")


def q_langid_kappa(sf_dir: str) -> rd.Dataset:
    """Cohen's kappa of the langid heuristic vs ground truth — chance-
    corrected agreement from the confusion counts (all-integer terms,
    one final division, 6dp)."""
    return textstats.langid_kappa(
        _docs(sf_dir, ["doc_id", "text", "lang"])
    )


def q_langid_calibration(sf_dir: str) -> rd.Dataset:
    """Reliability diagram of the langid gate: per confidence-decile
    bin, (n, n_correct, accuracy, mean_conf) — integer-exact sums, one
    mirrored float expression each."""
    return textstats.langid_calibration(
        _docs(sf_dir, ["doc_id", "text", "lang"])
    )


def q_length_outliers(sf_dir: str) -> rd.Dataset:
    """Robust per-lang length anomaly gate: |n_chars - median| > 3 x MAD
    (three streamed passes over grouped exact medians; breakdown-50%
    robust, unlike the z-score gate)."""
    from .functions.sketches import grouped_mad_outliers

    return grouped_mad_outliers(
        _read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
        ),
        "lang",
        "n_chars",
        "doc_id",
    )


def q_pivot_lang_by_source(sf_dir: str) -> rd.Dataset:
    """SQL PIVOT analogue: wide source x lang document-count crosstab —
    per-batch (row, col) count partials, driver reshape of the tiny
    merged long table; all-integer, bit-exact vs the CASE-WHEN oracle."""
    from .functions.relational import pivot_counts

    return pivot_counts(
        _read_parquet(
            f"{sf_dir}/documents.parquet", columns=["lang", "source"]
        ),
        "source",
        "lang",
        values=["de", "en", "es", "fr", "zh"],
    )


def q_compact_latest(sf_dir: str) -> rd.Dataset:
    """Latest-record (CDC/upsert) compaction: one surviving row per
    (user_id, event_type) — the newest by (ts, event_id). Per-batch
    argmax combiner (the raw log never shuffles), bucketed exact merge."""
    from .functions.events import compact_latest

    return compact_latest(_read_parquet(f"{sf_dir}/events.parquet"))


def q_gini_by_source(sf_dir: str) -> rd.Dataset:
    """Exact per-source Gini coefficient of doc length (training-mix
    inequality audit) — histogram partials + integer rank-sum math, no
    sort; exact SQL window oracle (rank form is tie-order invariant)."""
    from .functions.sketches import gini_by_group

    return gini_by_group(
        _read_parquet(
            f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
        ),
        "source",
        "n_chars",
    )


def q_edit_pairs(sf_dir: str) -> rd.Dataset:
    """Blocked edit-distance near-dup verification: exact byte-level
    Levenshtein (+ 6dp normalized sim) for every doc pair sharing
    (lang, source, n_chars//10) — pair-axis-vectorized DP (min-plus
    scan), blocking keys co-located by coarse-bucket groupby. Matches
    DuckDB's byte-based levenshtein() exactly."""
    from .functions.linkage import edit_distance_pairs

    return edit_distance_pairs(
        _read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "text", "lang", "source", "n_chars"],
        ),
        block_cols=["lang", "source"],
    )


def q_length_islands(sf_dir: str) -> rd.Dataset:
    """Full-coverage connected components over deterministic chain edges
    (consecutive same-length-bucket docs per (lang, source)) — drives the
    REAL distributed min-label propagation on its worst-case topology
    (diameter == run length) against an exact gaps-and-islands window
    oracle; singletons label themselves."""
    from .functions.linkage import length_island_components

    return length_island_components(
        _read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "lang", "source", "n_chars"],
        )
    )


def q_modal_event_type(sf_dir: str) -> rd.Dataset:
    """Per-user MODE of event_type (ties -> smallest type) with its
    count — per-batch (user, type) count partials, bucketed argmax;
    all-integer, exact QUALIFY oracle."""
    from .functions.relational import mode_by_group

    return mode_by_group(
        _read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
        ),
        "user_id",
        "event_type",
    )


def q_source_fingerprint(sf_dir: str) -> rd.Dataset:
    """Per-source order-insensitive content checksum (anti-entropy table
    verification): n_rows + BIGINT sum of the pinned md5 32-bit prefix
    of text — commutative integer sums, bit-exact vs the SQL md5
    substring form."""
    from .functions.sketches import group_fingerprint

    return group_fingerprint(
        _read_parquet(
            f"{sf_dir}/documents.parquet", columns=["source", "text"]
        ),
        "source",
        "text",
    )


def q_compression_stats(sf_dir: str) -> rd.Dataset:
    """Per-source zlib compressibility audit (boilerplate/repetition
    curation signal): integer byte partials + one post-merge division;
    golden-pinned (no deflate in SQL)."""
    from .functions.textstats import compression_stats

    return compression_stats(
        _read_parquet(
            f"{sf_dir}/documents.parquet", columns=["source", "text"]
        )
    )


def q_retention(sf_dir: str) -> rd.Dataset:
    """Day-1/day-7 cohort retention: per cohort day (first active day),
    cohort size + users active again exactly k days later — distinct
    (user, day) partials, user-bucketed cohort resolve, day-bucketed
    integer sums; exact DISTINCT-join oracle."""
    from .functions.events import retention_counts

    return retention_counts(
        _read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    )


def q_ref_integrity(sf_dir: str) -> rd.Dataset:
    """Referential-integrity audit over three FK edges (orders->customer,
    lineitem->orders, lineitem->supplier): distinct-FK partials + bucketed
    anti merge-join per edge; all-integer counts, exact LEFT-JOIN-null
    oracle."""
    from .functions.relational import fk_orphan_audit

    return fk_orphan_audit(
        [
            (
                "orders.o_custkey->customer",
                _read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"]),
                "o_custkey",
                _read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey"]),
                "c_custkey",
            ),
            (
                "lineitem.l_orderkey->orders",
                _read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"]),
                "l_orderkey",
                _read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderkey"]),
                "o_orderkey",
            ),
            (
                "lineitem.l_suppkey->supplier",
                _read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_suppkey"]),
                "l_suppkey",
                _read_parquet(f"{sf_dir}/supplier.parquet", columns=["s_suppkey"]),
                "s_suppkey",
            ),
        ]
    )


def q_returned_items(sf_dir: str) -> rd.Dataset:
    """TPC-H Q10-shaped: top-20 customers by revenue lost to returned
    ('R') lineitems of one order-date quarter, name/balance/nation
    attached to the final k rows only. Exact integer-cents revenue, so
    the (revenue DESC, custkey) top-k is deterministic."""
    from .functions.relational import returned_item_report

    return returned_item_report(
        _read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_extendedprice", "l_discount",
                     "l_returnflag"],
        ),
        _read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_orderdate"],
        ),
        sf_dir,
    )


def q_daily_filled(sf_dir: str) -> rd.Dataset:
    """Gap-filled per-type daily volume over the global day range —
    days with no events of a type appear with n = 0 (the
    generate_series ⨯ types LEFT JOIN calendar report)."""
    from .functions.events import daily_counts_filled

    return daily_counts_filled(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts"])
    )


def q_psi_by_source(sf_dir: str) -> rd.Dataset:
    """Population Stability Index of each source's quality-score
    distribution vs the corpus (Laplace-smoothed, 10 equal-width bins on
    the 6dp-rounded score so both engines bin identically) — the
    distribution-drift monitor."""
    return textstats.psi_by_source(_docs(sf_dir, ["text", "source"]))


def q_rolling_corr(sf_dir: str) -> rd.Dataset:
    """7-day rolling Pearson correlation between view and click daily
    volumes on the dense calendar — computed from exact integer window
    sums on both sides (the oracle uses the algebraic form over BIGINT
    window sums, not corr()'s accumulator), so the match is exact."""
    from .functions.events import rolling_corr_daily

    return rolling_corr_daily(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts"]),
        "view", "click", window=7,
    )


def q_langid_confusion(sf_dir: str) -> rd.Dataset:
    """Confusion matrix of the langid heuristic vs the ground-truth lang
    column — classifier-evaluation counts (per-class precision/recall
    derive by two divisions). All-integer; oracle composes the q_langid
    CASE expression."""
    return textstats.langid_confusion(
        _docs(sf_dir, ["doc_id", "text", "lang"])
    )


def q_vocab_growth(sf_dir: str) -> rd.Dataset:
    """Heaps-law vocabulary-growth curve: cumulative distinct tokens at
    each decile of the seeded md5 training-shuffle order — min-first-
    position per token (the SQL rewrite of cumulative COUNT DISTINCT),
    all-integer decile histogram."""
    return textstats.vocab_growth(
        _docs(sf_dir, ["doc_id", "text"]), seed=7
    )


def q_welch_t(sf_dir: str) -> rd.Dataset:
    """Per-lang Welch two-sample t of n_chars vs the rest of the corpus
    (slice-vs-complement audit): one integer moments pass, bigint merge,
    all-double finalization in the oracle's exact op order."""
    from .functions.relational import welch_t_by_group

    return welch_t_by_group(
        _read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["lang", "n_chars"]),
        "lang",
        "n_chars",
    )


def q_cumulative_users(sf_dir: str) -> rd.Dataset:
    """Cumulative distinct users per calendar day (first-seen-day +
    running sum — the one-pass rewrite of windowed COUNT DISTINCT):
    min-ts-per-user combiner, user-bucketed first-day resolve, driver
    cumsum over the dense day grid. All-integer, exact oracle."""
    from .functions.events import cumulative_users_by_day

    return cumulative_users_by_day(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["user_id", "ts"])
    )


def q_ewma_daily(sf_dir: str) -> rd.Dataset:
    """EWMA control line over the gap-filled per-type daily series
    (s_t = 0.3 n_t + 0.7 s_{t-1}): a single-dependency-chain recurrence,
    so the vectorized engine and the SQL recursive CTE compute
    bit-identical doubles — an EXACT oracle for an iterative/streaming
    operator."""
    from .functions.events import ewma_daily

    return ewma_daily(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts"]),
        alpha=0.3,
    )


def q_shipping_priority(sf_dir: str) -> rd.Dataset:
    """TPC-H Q3-shaped: top-10 orders by post-cutoff lineitem revenue for
    pre-cutoff orders of one customer segment — broadcast segment keys,
    per-batch cents pre-aggregation before the single orderkey hash join,
    bucketed per-order totals with local top-k, k-row global resolve.
    Exact integer-cents revenue."""
    from .functions.relational import shipping_priority

    return shipping_priority(
        _read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        ),
        _read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        ),
        _read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
        ),
    )


def q_texts_except(sf_dir: str) -> rd.Dataset:
    """SQL EXCEPT set-op: distinct texts exclusive to src0 (never seen in
    any other source) — pre-distincted tagged union, one value-bucketed
    keep-if-max-tag-is-left pass; exact EXCEPT oracle."""
    from .functions.relational import except_distinct

    return except_distinct(
        _read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["text", "source"],
            filter=(pc.field("source") == "src0"),
        ),
        _read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["text", "source"],
            filter=(pc.field("source") != "src0"),
        ),
        "text",
    )


def q_user_paths(sf_dir: str) -> rd.Dataset:
    """Per-user journey string (string_agg ORDER BY shape): first 20
    event types in (ts, event_id) order joined with '->' — per-batch
    head-trim combiner, user-bucketed assembly; deterministic total
    order, exact oracle."""
    from .functions.events import user_paths

    return user_paths(_read_parquet(f"{sf_dir}/events.parquet"))


def q_event_transitions(sf_dir: str) -> "pa.Table":
    """Markov transition matrix: counts of consecutive
    (prev_type -> next_type) steps per user in (ts, event_id) order —
    user-bucketed vectorized LAG, |types|^2 count partials, bounded
    driver merge; exact LAG-window oracle."""
    from .functions.events import event_transitions

    return event_transitions(_read_parquet(f"{sf_dir}/events.parquet"))


def _schema_safe_table(ds: rd.Dataset) -> "pa.Table":
    """Driver-gate materialization that keeps the schema of an all-empty
    result: ``Dataset.to_pandas()`` on an empty dataset returns a
    COLUMN-LESS frame (fails the gate's column check even when 0 rows is
    the correct answer), while ``ds.schema()`` still knows the columns."""
    tbls = list(ds.iter_batches(batch_format="pyarrow"))
    tbls = [t for t in tbls if t.num_rows]
    if tbls:
        return pa.concat_tables(tbls, promote_options="default")
    sch = ds.schema()
    return pa.Table.from_pydict(
        {n: pa.array([], t) for n, t in zip(sch.names, sch.types)}
    )


def q_texts_intersect(sf_dir: str) -> "pa.Table":
    """SQL INTERSECT set-op: distinct texts seen in BOTH src0 and the
    rest of the corpus — one tagged-union bucketed pass; exact oracle.
    May legitimately be EMPTY (sf0.01 has no cross-source dup texts), so
    the result materializes schema-safe."""
    from .functions.relational import intersect_distinct

    return _schema_safe_table(intersect_distinct(
        _read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["text", "source"],
            filter=(pc.field("source") == "src0"),
        ),
        _read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["text", "source"],
            filter=(pc.field("source") != "src0"),
        ),
        "text",
    ))


def q_orders_cube(sf_dir: str) -> rd.Dataset:
    """GROUP BY CUBE(year, priority): all four grouping sets derived
    from one integer-cents leaf pass (the rollup contract + the
    per-priority axis); exact oracle."""
    from .functions.relational import cube_orders

    return cube_orders(
        _read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderdate", "o_orderpriority", "o_totalprice"],
        )
    )


def q_first_digit(sf_dir: str) -> rd.Dataset:
    """Benford-style first-significant-digit audit of doc lengths per
    source — decimal-string digits (exactly SQL substr semantics),
    all-integer counts; exact oracle."""
    from .functions.sketches import first_digit_counts

    return first_digit_counts(
        _read_parquet(
            f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
        ),
        "source",
        "n_chars",
    )


def q_winsorized_value(sf_dir: str) -> rd.Dataset:
    """Per-event-type winsorized mean of value (clipped to the exact
    [p5, p95] quantile_cont band): two streamed passes — grouped exact
    cuts broadcast, then clip + (sum, n) partials; 6dp."""
    from .functions.sketches import winsorized_mean_by_group

    return winsorized_mean_by_group(
        _read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "value"]
        ),
        "event_type",
        "value",
    )


def q_vocab_overlap(sf_dir: str) -> rd.Dataset:
    """Pairwise Jaccard between per-source vocabularies (distinct token
    sets): distinct (source, token) partials, one token-bucketed
    co-occurrence pass, all-integer counts; exact oracle."""
    from .functions.textstats import vocab_overlap_by_source

    return vocab_overlap_by_source(
        _read_parquet(
            f"{sf_dir}/documents.parquet", columns=["source", "text"]
        )
    )


def q_systematic_sample(sf_dir: str) -> rd.Dataset:
    """Every-50th-doc systematic sample along the seeded md5 shuffle
    order — distributed exact rank (no global sort) + row-local modulo;
    exact QUALIFY oracle."""
    from .functions.dedup import systematic_sample

    return systematic_sample(
        _read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    )


def q_source_balance_chi2(sf_dir: str) -> rd.Dataset:
    """Per-source chi-square vs the corpus lang distribution (mix-drift
    audit): exact integer crosstab partials, sorted-lang driver
    evaluation, 6dp."""
    from .functions.sketches import source_balance_chi2

    return source_balance_chi2(
        _read_parquet(
            f"{sf_dir}/documents.parquet", columns=["source", "lang"]
        )
    )


def q_value_trend(sf_dir: str) -> rd.Dataset:
    """Per-event-type OLS trend of value over time (x in DAYS since
    epoch): slope / intercept / r2 via mergeable centered co-moments
    (the corr_by_group scheme); matches regr_slope / regr_intercept /
    regr_r2 at 6dp."""
    from .functions.relational import regr_by_group

    return regr_by_group(
        _read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
        ),
        "event_type",
        "ts",
        "value",
        x_scale=86_400_000_000.0,  # microseconds -> days
    )


def q_daily_pct_change(sf_dir: str) -> rd.Dataset:
    """Day-over-day percent change of event volume per type — integer
    count partials, per-type LAG over the tiny aggregated series."""
    from .functions.events import daily_counts_pct_change

    return daily_counts_pct_change(
        _read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])
    )


def q_geomean_length(sf_dir: str) -> rd.Dataset:
    """Per-lang geometric mean of doc length (exp of the mean log) —
    log-sum partials, group-sorted accumulation, 6dp."""
    from .functions.sketches import geomean_by_group

    return geomean_by_group(
        _read_parquet(
            f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"]
        ),
        "lang",
        "n_chars",
    )


def q_ship_latency(sf_dir: str) -> rd.Dataset:
    """Order-to-ship latency percentiles per priority: one orderkey hash
    join, integer day diffs, exact histogram quantile_cont (bounded
    distinct day values — the shuffle never carries the measure)."""
    import numpy as np

    from .functions.joins import bucketed_merge_join
    from .functions.sketches import grouped_hist_quantiles

    DAY_US = 86_400_000_000
    li = _read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    )
    o = _read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )
    joined = bucketed_merge_join(li, o, on="l_orderkey", right_on="o_orderkey")

    def diff(batch: "pa.Table") -> "pa.Table":
        d = (
            batch.column("l_shipdate").cast(pa.int64()).to_numpy()
            - batch.column("o_orderdate").cast(pa.int64()).to_numpy()
        ) // DAY_US
        return pa.Table.from_pydict(
            {
                "o_orderpriority": batch.column("o_orderpriority"),
                "d_days": d.astype(np.int64),
            }
        )

    return grouped_hist_quantiles(
        joined.map_batches(diff, batch_format="pyarrow"),
        "o_orderpriority",
        "d_days",
        qs=(0.5, 0.95),
    )


def q_dup_cluster_histogram(sf_dir: str) -> rd.Dataset:
    """Exact-duplicate cluster-size histogram (dedup audit): md5-digest
    count partials, digest-bucketed merge, tiny (size, n) reduce —
    all-integer, text never shuffles."""
    from .functions.dedup import dup_cluster_histogram

    return dup_cluster_histogram(
        _read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    )


def q_value_shape(sf_dir: str) -> rd.Dataset:
    """Per-event-type sample skewness + excess kurtosis of value — the
    distribution-shape drift monitor, DuckDB-bias-corrected (Fisher
    g1/g2), via two streamed passes of mergeable centered power sums."""
    from .functions.relational import shape_moments_by_group

    return shape_moments_by_group(
        _read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "value"]
        ),
        "event_type",
        "value",
    )


def q_doc_ntiles(sf_dir: str) -> rd.Dataset:
    """NTILE(4) quartile label per document within its language, ordered
    by (n_chars, doc_id) — exact SQL window semantics, distributed via
    per-(lang, n_chars) count offsets + one coarse-bucketed tie pass."""
    from .functions.relational import ntile_by_group

    return ntile_by_group(
        _read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "lang", "n_chars"],
        ),
        "lang",
        "n_chars",
        "doc_id",
        k=4,
    )


def q_minhash_edit_verified(sf_dir: str) -> "pa.Table":
    """Two-stage near-dup pipeline composition: MinHash+LSH candidates
    (recall) re-scored with exact byte-Levenshtein normalized similarity
    (precision), keep sim >= 0.4. LSH -> not SQL; golden-pinned."""
    from .functions.linkage import minhash_edit_verified_pairs

    return minhash_edit_verified_pairs(
        _read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    )


def q_props_stats(sf_dir: str) -> rd.Dataset:
    """Schema-on-read over the JSON props sidecar: vectorized JSONPath
    extraction of props.k (polars native scan per batch, no per-row
    json.loads) + all-integer per-event_type stats — exact DuckDB
    json_extract oracle."""
    from .functions.events import props_field_stats

    return props_field_stats(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "props"])
    )


def q_ks_by_source(sf_dir: str) -> rd.Dataset:
    """Two-sample Kolmogorov-Smirnov D of each source's n_chars
    distribution vs its complement — nonparametric drift monitor next
    to PSI/JS/chi2; exact oracle (shared integer grid, mirrored op
    order)."""
    from .functions.textstats import ks_by_source

    return ks_by_source(
        _read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["source", "n_chars"])
    )


def q_mannwhitney_lang(sf_dir: str) -> rd.Dataset:
    """Per-lang Mann-Whitney U of n_chars vs the rest of the corpus —
    the rank-based slice audit (robust to the heavy length tail that
    skews q_welch_t); half-integer tie-averaged ranks make the oracle
    match exact."""
    from .functions.relational import mannwhitney_by_group

    return mannwhitney_by_group(
        _read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["lang", "n_chars"]),
        "lang",
        "n_chars",
    )


def q_weighted_median_qty(sf_dir: str) -> rd.Dataset:
    """Revenue-weighted median order quantity per returnflag: weights
    are exact integer cents (row-local round(price*100) map), so the
    2*cumw >= totw threshold comparison is all-integer on both
    engines."""
    from .functions.relational import weighted_median_by_group

    def cents(batch: "pa.Table") -> "pa.Table":
        import numpy as np

        w = np.round(
            batch.column("l_extendedprice").to_numpy() * 100.0
        ).astype(np.int64)
        return batch.drop_columns(["l_extendedprice"]).append_column(
            "w_cents", pa.array(w, pa.int64())
        )

    ds = _read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    ).map_batches(cents, batch_format="pyarrow")
    return weighted_median_by_group(
        ds, "l_returnflag", "l_quantity", "w_cents"
    ).rename_columns(["l_returnflag", "wmedian_qty"])


def q_q6_revenue(sf_dir: str) -> rd.Dataset:
    """TPC-H Q6 forecast-revenue: ONE filtered scan, ZERO shuffle — the
    ship-year / discount-band / quantity-cap predicate is pushed into the
    parquet read (row groups outside it never leave storage), each batch
    reduces to a single exact-integer partial (cents x discount-cents =
    10^-4 units, order-free int64), and the single-key groupby merges a
    handful of partial rows. The 100 TB cost is the pruned scan itself."""
    import numpy as np

    ds = _read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_extendedprice", "l_discount"],
        filter=(
            (pc.field("l_shipdate") >= pa.scalar("1996-01-01").cast(pa.timestamp("us")))
            & (pc.field("l_shipdate") < pa.scalar("1997-01-01").cast(pa.timestamp("us")))
            & (pc.field("l_discount") >= 0.05)
            & (pc.field("l_discount") <= 0.07)
            & (pc.field("l_quantity") < 24.0)
        ),
    )

    def partial(batch: pa.Table) -> pa.Table:
        price_c = np.round(
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        disc_c = np.round(
            batch.column("l_discount").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "k": pa.array([0], pa.int64()),
                "units": pa.array([int((price_c * disc_c).sum())], pa.int64()),
                "n_items": pa.array([batch.num_rows], pa.int64()),
            }
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "revenue": [round_half_away(float(g["units"].sum()) / 1e4, 2)],
                "n_items": [int(g["n_items"].sum())],
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("k")
        .map_groups(final, batch_format="pandas")
    )


def q_large_orders(sf_dir: str) -> rd.Dataset:
    """TPC-H Q18 large-volume-customer report: orders whose summed line
    quantity exceeds 300, joined to the buying customer. The 100 TB
    lineitem side reduces to (orderkey, sum_qty) partials before any
    shuffle; only the rare survivors enter the two hash joins."""
    return relational.large_orders(
        _read_parquet(
            f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
        ),
        _read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_totalprice"],
        ),
        _read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
        ),
        min_qty=300,
    )


def q_k_anonymity(sf_dir: str) -> "pa.Table":
    """k-anonymity governance audit over the customer quasi-identifiers
    (nationkey, mktsegment): the combinations shared by fewer than k=10
    customers — the re-identifiable slices a release review must flag.
    Exact integer crosstab partials; counter rows, not data rows, shuffle.
    May legitimately be EMPTY at larger scales (denser quasi-groups), so
    the result materializes schema-safe."""
    return _schema_safe_table(relational.k_anonymity_audit(
        _read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_nationkey", "c_mktsegment"]
        ),
        ["c_nationkey", "c_mktsegment"],
        k=10,
    ))


def q_promo_revenue(sf_dir: str) -> rd.Dataset:
    """TPC-H Q14 promotion effect: share of a ship-date window's revenue
    earned by PROMO-type parts. Lineitem pre-aggregates exact integer
    revenue units per partkey before the one bucketed partkey join; two
    global int64 counters finish it."""
    return relational.promo_revenue_share(
        _read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_extendedprice", "l_discount"],
            filter=(
                (pc.field("l_shipdate")
                 >= pa.scalar("1996-03-01").cast(pa.timestamp("us")))
                & (pc.field("l_shipdate")
                   < pa.scalar("1996-07-01").cast(pa.timestamp("us")))
            ),
        ),
        _read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]),
    )


def q_nation_profit(sf_dir: str) -> rd.Dataset:
    """TPC-H Q9-shaped product-line profit: revenue per (supplier
    nation, order year) for parts whose name contains 'bolt' — a
    semi-join part restriction, broadcast supplier->nation lookup, one
    bucketed orderkey join over integer partials."""
    return relational.nation_profit(
        _read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=[
                "l_orderkey",
                "l_partkey",
                "l_suppkey",
                "l_extendedprice",
                "l_discount",
            ],
        ),
        _read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
        ),
        sf_dir,
        name_token="bolt",
    )


def q_priority_dedup(sf_dir: str) -> rd.Dataset:
    """Priority-source exact dedup: one survivor per distinct text, the
    row whose source index is lowest (curated-beats-crawl), tie-broken
    by min doc_id. The priority is a row-local int map (source 'srcN' ->
    N); only (text winner per batch) rows shuffle."""
    def add_prio(batch: pa.Table) -> pa.Table:
        prio = pc.cast(
            pc.utf8_slice_codeunits(batch.column("source"), 3, 99), pa.int64()
        )
        return batch.append_column("prio", prio)

    return dedup.priority_dedup(
        _docs(sf_dir, ["doc_id", "source", "text"]).map_batches(
            add_prio, batch_format="pyarrow"
        )
    )


def q_top_supplier(sf_dir: str) -> rd.Dataset:
    """TPC-H Q15 top supplier: max-revenue supplier(s) in a 3-month
    ship window — distributed argmax with ties, no global sort (one
    scalar leaves the cluster)."""
    return relational.top_supplier(
        _read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_suppkey", "l_extendedprice", "l_discount"],
            filter=(
                (pc.field("l_shipdate")
                 >= pa.scalar("1996-01-01").cast(pa.timestamp("us")))
                & (pc.field("l_shipdate")
                   < pa.scalar("1996-04-01").cast(pa.timestamp("us")))
            ),
        ),
        sf_dir,
    )


def q_nation_trade(sf_dir: str) -> rd.Dataset:
    """TPC-H Q7-shaped trade matrix: exact revenue per (customer
    nation, supplier nation, order year) — broadcast nation maps, one
    orderkey hash join over integer partials."""
    return relational.nation_trade_revenue(sf_dir)


def q_percent_rank(sf_dir: str) -> rd.Dataset:
    """percent_rank() window per language over document length — the
    relative-position normalization used to compare quality thresholds
    across languages; integer min-ranks make the oracle bit-exact."""
    return relational.percent_rank_by_group(
        _docs(sf_dir, ["doc_id", "lang", "n_chars"]), "lang", "n_chars"
    )


def q_custdist(sf_dir: str) -> rd.Dataset:
    """TPC-H Q13 customer distribution: how many customers placed
    exactly c orders in Q1-1996, INCLUDING the zero bucket — the outer
    join that never runs (only its aggregate is computed)."""
    return relational.customer_order_distribution(
        _read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey"],
            filter=(
                (pc.field("o_orderdate")
                 >= pa.scalar("1996-01-01").cast(pa.timestamp("us")))
                & (pc.field("o_orderdate")
                   < pa.scalar("1996-04-01").cast(pa.timestamp("us")))
            ),
        ),
        _read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey"]),
    )


def q_small_qty_revenue(sf_dir: str) -> rd.Dataset:
    """TPC-H Q17 small-quantity revenue for Brand#23 parts — the
    correlated per-part average folded into one group-local pass with
    an exact integer threshold compare."""
    return relational.small_quantity_revenue(
        _read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_quantity", "l_extendedprice"],
        ),
        sf_dir,
        brand="Brand#23",
    )


def q_disjunctive_revenue(sf_dir: str) -> rd.Dataset:
    """TPC-H Q19 disjunctive-predicate revenue: three (brand, size,
    quantity) OR-branches straddling the partkey join — envelope pushed
    to the reads, residual masks vectorized after one bucketed join."""
    return relational.disjunctive_revenue(
        _read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=[
                "l_partkey",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
            ],
            filter=pc.field("l_quantity") <= 30.0,
        ),
        _read_parquet(
            f"{sf_dir}/part.parquet",
            columns=["p_partkey", "p_brand", "p_size"],
            filter=(
                pc.field("p_brand").isin(["Brand#12", "Brand#23", "Brand#5"])
                & (pc.field("p_size") <= 15)
            ),
        ),
    )


def q_sales_opportunity(sf_dir: str) -> rd.Dataset:
    """TPC-H Q22-shaped sales opportunity: per-nation count + balance
    of above-average-balance customers with no order since 2001 —
    scalar-subquery broadcast + bucketed anti join."""
    return relational.sales_opportunity(sf_dir, cutoff="2001-01-01")


def q_important_parts(sf_dir: str) -> rd.Dataset:
    """TPC-H Q11-shaped important stock: part keys whose revenue
    exceeds 1.25x the mean per-key revenue (the scale-stable form of
    Q11's fixed-fraction HAVING) — HAVING vs a scalar subquery, via a
    materialized key-sum table consumed by the total, the key count
    and the filter."""
    return relational.fraction_of_total(
        _read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_extendedprice"],
        ),
        mean_mult_num=5,
        mean_mult_den=4,
    )


def q_market_share(sf_dir: str) -> rd.Dataset:
    """TPC-H Q8-shaped market share: NATION_7's share of ASIA-customer
    revenue per order year — conditional numerator/denominator sums
    through two bucketed joins and broadcast dimension maps."""
    return relational.market_share(sf_dir, region="ASIA", nation="NATION_7")


def q_order_priority(sf_dir: str) -> rd.Dataset:
    """TPC-H Q4 order-priority check (adapted: no l_commitdate, so
    "late" = any line shipped >30 days after the order date) — the
    correlated EXISTS rewritten as max(l_shipdate) per order, reduced
    before the join."""
    return relational.order_priority_count(
        _read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
            filter=(
                (pc.field("o_orderdate")
                 >= pa.scalar("1996-01-01").cast(pa.timestamp("us")))
                & (pc.field("o_orderdate")
                   < pa.scalar("1996-04-01").cast(pa.timestamp("us")))
            ),
        ),
        _read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_shipdate"],
        ),
        grace_days=30,
    )


def q_priority_lines(sf_dir: str) -> rd.Dataset:
    """TPC-H Q12-shaped conditional join aggregate (adapted: the
    synthetic lineitem has no l_shipmode, so l_returnflag is the axis):
    high- vs low-priority line counts per return flag for 1997
    shipments."""
    return relational.priority_line_counts(
        _read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_returnflag"],
            filter=(
                (pc.field("l_shipdate")
                 >= pa.scalar("1997-01-01").cast(pa.timestamp("us")))
                & (pc.field("l_shipdate")
                   < pa.scalar("1998-01-01").cast(pa.timestamp("us")))
            ),
        ),
        _read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_orderpriority"],
        ),
    )


def q_waiting_suppliers(sf_dir: str) -> rd.Dataset:
    """TPC-H Q21-shaped sole-late-supplier report over finished orders
    (late = shipped >60 days after the order date)."""
    return relational.waiting_suppliers(sf_dir, late_days=60, k=20)


def q_part_suppliers(sf_dir: str) -> rd.Dataset:
    """TPC-H Q16-shaped distinct-supplier census per part descriptor,
    with the NOT-IN supplier exclusion (acctbal < 1000 stands in for
    complaints; shipped pairs stand in for partsupp)."""
    return relational.part_supplier_counts(sf_dir)


def q_min_cost_supplier(sf_dir: str) -> rd.Dataset:
    """TPC-H Q2-shaped minimum-cost supplier per qualifying part
    (adapted: min observed line price in cents stands in for the
    missing partsupp supplycost; STANDARD parts of size <= 15,
    suppliers in EUROPE)."""
    return relational.min_cost_supplier(
        sf_dir, region="EUROPE", part_type="STANDARD", max_size=15, k=100
    )


def q_accelerating_suppliers(sf_dir: str) -> rd.Dataset:
    """TPC-H Q20-shaped excess-recent-volume supplier list (adapted:
    a pair's 1997 shipped quantity exceeding half its all-time
    quantity stands in for the availqty comparison; 'red '-prefixed
    parts, NATION_3 suppliers)."""
    return relational.accelerating_part_suppliers(
        sf_dir, nation="NATION_3", name_prefix="red ", year=1997
    )


def q_snapshot_diff(sf_dir: str) -> rd.Dataset:
    """CDC snapshot diff per source: documents (crawl N) vs a
    deterministically derived crawl N+1 — docs in md5(doc_id) bucket 0
    removed, bucket 1 re-crawled with changed text, bucket 2 cloned as
    new docs (id -(doc_id+1)) — counted as added / removed / changed /
    unchanged WITHOUT shipping text (pinned md5-u32 content hashes)."""
    import numpy as np

    from .functions.joins import snapshot_diff
    from .md5np import md5_u32

    cols = ["doc_id", "text", "source"]
    a = _docs(sf_dir, cols)

    def derive_b(batch: pa.Table) -> pa.Table:
        import polars as pl

        bk = (md5_u32(batch.column("doc_id")) % np.uint32(10)).astype(
            np.int64
        )
        d = pl.from_arrow(batch).with_columns(pl.Series("bk", bk))
        base = d.filter(pl.col("bk") != 0).with_columns(
            pl.when(pl.col("bk") == 1)
            .then(pl.col("text") + pl.lit(" [rev2]"))
            .otherwise(pl.col("text"))
            .alias("text")
        )
        added = d.filter(pl.col("bk") == 2).with_columns(
            (-(pl.col("doc_id") + 1)).alias("doc_id")
        )
        return pl.concat([base, added]).select(cols).to_arrow()

    b = _docs(sf_dir, cols).map_batches(derive_b, batch_format="pyarrow")
    return snapshot_diff(a, b)


def q_main_content(sf_dir: str) -> rd.Dataset:
    """HTML main-content extraction (north-rule boilerplate strip / DOM
    heuristics): each document's text is deterministically wrapped into
    a full HTML page — head+title, a nav bar of links, the escaped text
    as the content block, a footer of links — then the link-density
    block extractor recovers the main text. The oracle is the
    round-trip invariant itself: main_text == the original text,
    SQL-checkable without re-implementing the parser. Contract the
    invariant relies on (holds for the synthetic corpus at every sf;
    asserted here so a corpus change fails loudly, not as a hash
    mismatch): texts carry no leading/trailing whitespace (the
    extractor strips blocks) and no NUL bytes (the block-split
    sentinel)."""
    from .functions.html_extract import escape_html, extract_main_html

    def wrap(batch: pa.Table) -> pa.Table:
        import polars as pl

        d = pl.from_arrow(batch)
        bad = d["text"].str.contains(r"(?s)^\s|\s$|\x00").any()
        if bad:
            raise ValueError(
                "q_main_content round-trip contract violated: a text has "
                "leading/trailing whitespace or a NUL byte"
            )
        html = (
            pl.lit(
                "<html><head><title>doc</title>"
                "<style>p{margin:0}</style></head><body>"
                '<nav><a href="#">Home</a> | <a href="#">About</a> | '
                '<a href="#">Archive</a></nav><div><p>'
            )
            + escape_html(pl.col("text"))
            + pl.lit(
                '</p></div><footer><a href="#">Contact</a> '
                '<a href="#">Terms</a><!-- built --></footer>'
                "</body></html>"
            )
        ).alias("html")
        return d.select("doc_id", html).to_arrow()

    pages = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        wrap, batch_format="pyarrow"
    )
    return extract_main_html(pages)


def q_leakage_split(sf_dir: str) -> rd.Dataset:
    """Duplicate-cluster-aware 80/10/10 split: exact copies of a text
    always land on the same side (no train->test leakage through
    duplicates); the md5 cut applies to min(doc_id) over identical
    text."""
    return dedup.leakage_safe_split(_docs(sf_dir, ["doc_id", "text"]))


def q_leakage_split_neardup(sf_dir: str) -> rd.Dataset:
    """NEAR-dup leakage-safe split: MinHash(0.7) candidate pairs ->
    distributed connected-component labels -> docs left-joined to their
    cluster label (singletons keep their own id) -> the same md5
    cluster-head cut. Rows-only (MinHash isn't SQL-expressible); the
    guarantee — every candidate pair co-assigned — is pinned in tests
    at sf0.001."""
    from .functions.joins import bucketed_merge_join

    docs = _docs(sf_dir, ["doc_id", "text"])
    pairs = dedup.minhash_dup_pairs(docs, threshold=0.7).map_batches(
        lambda t: t.select(["doc_a", "doc_b"]), batch_format="pyarrow"
    )
    labels = dedup.component_labels(pairs)
    ids = _docs(sf_dir, ["doc_id"])
    joined = bucketed_merge_join(
        ids,
        labels,
        on="doc_id",
        how="left",
        left_schema=pa.schema([("doc_id", pa.int64())]),
        right_schema=pa.schema(
            [("doc_id", pa.int64()), ("label", pa.int64())]
        ),
        compact=True,
    )

    def fill(batch: pa.Table) -> pa.Table:
        lbl = pc.coalesce(
            pc.cast(batch.column("label"), pa.int64()),
            batch.column("doc_id"),
        )
        return pa.table(
            {"doc_id": batch.column("doc_id"), "label": lbl}
        )

    keyed = joined.map_batches(fill, batch_format="pyarrow")
    return dedup.leakage_safe_split(keyed, text_col="label")


def q_c4_filter(sf_dir: str) -> rd.Dataset:
    """C4 line-level page cleaning (Raffel et al. 2020 §2.2) over pages
    deterministically rendered from the corpus, q_main_content-style:
    each document's tokens are grouped into 8-token lines, each line gets
    a content-derived ending (char-length mod 5 == 0 -> a trailing
    " javascript library" bait, else mod 3 picks "." / "!" / bare), and
    doc_id mod 13 / mod 17 inject the "{" and "lorem ipsum" document
    baits — so every C4 rule (terminal punctuation, min words,
    javascript line drop, lorem-ipsum / brace document drop, >= 3 kept
    lines) is exercised and the oracle can re-render the identical page
    in SQL list lambdas."""
    import polars as pl

    from .functions.textstats import c4_line_filter

    def render(batch: pa.Table) -> pa.Table:
        d = pl.from_arrow(batch)
        e = (
            d.with_columns(pl.col("text").str.split(" ").alias("toks"))
            .with_columns(
                pl.int_ranges(0, pl.col("toks").list.len(), 8).alias("start")
            )
            .explode("start")
            .drop_nulls("start")
            .with_columns(
                pl.col("toks")
                .list.slice(pl.col("start"), 8)
                .list.join(" ")
                .alias("s")
            )
            .with_columns(
                pl.when(pl.col("s").str.len_chars() % 5 == 0)
                .then(pl.col("s") + pl.lit(" javascript library"))
                .when(pl.col("s").str.len_chars() % 3 == 0)
                .then(pl.col("s") + pl.lit("."))
                .when(pl.col("s").str.len_chars() % 3 == 1)
                .then(pl.col("s") + pl.lit("!"))
                .otherwise(pl.col("s"))
                .alias("line")
            )
            .group_by("doc_id", maintain_order=True)
            .agg(pl.col("line").str.join("\n").alias("page"))
        )
        e = e.with_columns(
            pl.when(pl.col("doc_id") % 13 == 0)
            .then(pl.col("page") + pl.lit("\n{ config }"))
            .when(pl.col("doc_id") % 17 == 3)
            .then(pl.lit("Lorem ipsum dolor sit amet.\n") + pl.col("page"))
            .otherwise(pl.col("page"))
            .alias("page")
        )
        return e.select("doc_id", "page").to_arrow()

    # batch_size bundles the read's sub-100-row blocks: the polars
    # explode/group_by render plan has the same ~50 ms per-call compile
    # cost documented on c4_line_filter (3.7 s -> 0.6 s at sf0.1)
    pages = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        render, batch_format="pyarrow", batch_size=4096
    )
    return c4_line_filter(pages)


def q_length_auc(sf_dir: str) -> rd.Dataset:
    """Per-source ROC AUC of n_chars ranking lang='en' — the does-this-
    feature-discriminate audit; exact integer midrank rank-sum (the
    Mann–Whitney normalization), one final division at 6dp."""
    from .functions.relational import auc_by_group

    def add_label(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "y",
            pc.cast(pc.equal(batch.column("lang"), "en"), pa.int64()),
        )

    ds = _docs(sf_dir, ["source", "n_chars", "lang"]).map_batches(
        add_label, batch_format="pyarrow"
    )
    return auc_by_group(ds, "source", "n_chars", "y")


def q_mann_kendall(sf_dir: str) -> rd.Dataset:
    """Mann–Kendall trend test per event type over observed daily
    counts: integer S and tie-corrected variance from the exact daily
    grid, continuity-corrected Z in one mirrored float expression."""
    from .functions.events import mann_kendall_daily

    return mann_kendall_daily(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts"])
    )


def q_acf_daily(sf_dir: str) -> rd.Dataset:
    """Lag-1..7 autocorrelation of the gap-filled per-type daily series
    (weekly-seasonality / burstiness diagnostic) — int64 moments over
    the integer grid, corr at 6dp (corr_by_group contract)."""
    from .functions.events import acf_daily

    return acf_daily(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts"]),
        max_lag=7,
    )


def q_source_lang_mi(sf_dir: str) -> rd.Dataset:
    """Mutual information (bits) between source and lang — the
    label-leakage / sampling-skew audit; integer crosstab combiner,
    per-cell log2 terms, 6dp (js_divergence float contract)."""
    from .functions.relational import categorical_mutual_info

    return categorical_mutual_info(
        _docs(sf_dir, ["source", "lang"]), "source", "lang"
    )


def q_hapax_by_source(sf_dir: str) -> rd.Dataset:
    """Per-source vocabulary richness: occurrences / distinct / hapax
    counts, hapax share and type-token ratio — all-integer token-hash
    bucketed merge, two exact divisions at 6dp."""
    return textstats.hapax_by_group(
        _docs(sf_dir, ["source", "text"]), "source"
    )


def q_xcorr_daily(sf_dir: str) -> rd.Dataset:
    """Cross-type lead-lag correlation (lag 0..7) over the gap-filled
    daily grid — ordered type pairs, int64 moments, corr at 6dp."""
    from .functions.events import xcorr_daily

    return xcorr_daily(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts"]),
        max_lag=7,
    )


def q_snm_pairs(sf_dir: str) -> rd.Dataset:
    """Sorted-neighborhood blocking candidates (Hernández & Stolfo):
    pairs within 5 ranks of the normalized-prefix sort order —
    distributed exact rank (range-bucketed, no global sort), windowed
    buckets emit each pair exactly once; all-integer oracle."""
    from .functions.linkage import sorted_neighborhood_pairs

    return sorted_neighborhood_pairs(
        _docs(sf_dir, ["doc_id", "text"]), window=5
    )


def q_burstiness(sf_dir: str) -> rd.Dataset:
    """Inter-event burstiness B = (σ−μ)/(σ+μ) per type (Goh &
    Barabási): exact int gap moments (Σg² in HUGEINT/python-int), one
    mirrored float expression at 6dp."""
    from .functions.events import burstiness_by_type

    return burstiness_by_type(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_id", "event_type", "ts"])
    )


def q_holt_daily(sf_dir: str) -> rd.Dataset:
    """Holt level+trend smoothing (α=0.3, β=0.1) per event type over
    the gap-filled daily grid: recursive-CTE mirror, bit-identical
    doubles (the ewma/cusum contract)."""
    from .functions.events import holt_daily

    return holt_daily(
        _read_parquet(f"{sf_dir}/events.parquet",
                      columns=["event_type", "ts"])
    )


def q_kendall_len_words(sf_dir: str) -> rd.Dataset:
    """Kendall tau-b between char count and space count per lang:
    all-integer concordant/discordant pair counts over the joint value
    histogram, one mirrored float expression."""
    from .functions.relational import kendall_tau_by_group

    def add_spaces(batch: pa.Table) -> pa.Table:
        import polars as pl

        d = pl.from_arrow(batch)
        return d.with_columns(
            pl.col("text").str.count_matches(" ", literal=True)
            .cast(pl.Int64).alias("n_spaces")
        ).drop("text").to_arrow()

    docs = _docs(sf_dir, ["lang", "n_chars", "text"]).map_batches(
        add_spaces, batch_format="pyarrow"
    )
    return kendall_tau_by_group(docs, "lang", "n_chars", "n_spaces")


def q_kruskal_len_by_lang(sf_dir: str) -> rd.Dataset:
    """Kruskal–Wallis H: does doc length differ across languages —
    exact doubled midranks, cancellation-free deviation form, tie
    correction mirrored."""
    from .functions.relational import kruskal_wallis

    return kruskal_wallis(_docs(sf_dir, ["lang", "n_chars"]),
                          "lang", "n_chars")


def q_triangles(sf_dir: str) -> rd.Dataset:
    """Per-supplier triangle count + clustering coefficient on the
    co-supply graph (suppliers sharing an order): bucketed pair
    combiner, exact dense-matmul kernel, integer oracle."""
    from .functions.graphs import cosupply_triangles

    return cosupply_triangles(
        _read_parquet(f"{sf_dir}/lineitem.parquet",
                      columns=["l_orderkey", "l_suppkey"])
    )


def q_jw_pairs(sf_dir: str) -> rd.Dataset:
    """Jaro–Winkler >= 0.9 pairs under 4-char prefix blocking: the
    kernel bit-matches DuckDB jaro_winkler_similarity (rapidfuzz
    semantics, pinned in tests), pair-axis vectorized."""
    from .functions.linkage import jw_blocked_pairs

    return jw_blocked_pairs(_docs(sf_dir, ["doc_id", "text"]))


def q_theil_sen(sf_dir: str) -> rd.Dataset:
    """Theil–Sen robust trend (median pairwise slope + median
    intercept) per event type over the gap-filled daily grid; medians
    via the quantile_cont weighted-interpolation mirror."""
    from .functions.events import theil_sen_daily

    return theil_sen_daily(
        _read_parquet(f"{sf_dir}/events.parquet",
                      columns=["event_type", "ts"])
    )


def q_profile_docs(sf_dir: str) -> rd.Dataset:
    """Column profile of documents (n / NULLs / exact distinct):
    distributed distinct via per-batch unique melt + hash-bucketed
    partition counting — no driver value collect."""
    from .functions.relational import profile_table

    return profile_table(
        _docs(sf_dir, ["doc_id", "lang", "source", "n_chars"]),
        ["doc_id", "lang", "source", "n_chars"],
    )


def q_last_purchase(sf_dir: str) -> rd.Dataset:
    """Point-in-time LOCF feature: last purchase value as of each
    event per user (IGNORE NULLS window mirror) — values copied, so
    the oracle is exact with no float contract."""
    from .functions.relational import carry_forward

    return carry_forward(
        _read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "ts", "user_id", "event_type", "value"],
        ),
        group_col="user_id",
        order_cols=["ts", "event_id"],
        value_col="value",
        mark_col="event_type",
        mark_value="purchase",
        out_col="last_purchase_value",
    )


def q_rolling_median(sf_dir: str) -> rd.Dataset:
    """Centered 7-day rolling median of daily counts per event type
    (edge windows truncate); quantile_cont window-frame mirror."""
    from .functions.events import rolling_median_daily

    return rolling_median_daily(
        _read_parquet(f"{sf_dir}/events.parquet",
                      columns=["event_type", "ts"])
    )


def q_changepoint(sf_dir: str) -> rd.Dataset:
    """Best mean-shift changepoint per event type: between-segment SS
    score from exact integer prefix sums, deterministic argmax
    (identical doubles both engines, ties -> smallest split)."""
    from .functions.events import changepoint_daily

    return changepoint_daily(
        _read_parquet(f"{sf_dir}/events.parquet",
                      columns=["event_type", "ts"])
    )


def q_stl_daily(sf_dir: str) -> rd.Dataset:
    """STL-lite trend/weekly-seasonal/remainder decomposition of the
    daily grid: full-window 7-day mean trend, dow-mean seasonal of the
    detrended interior, mirrored per-row remainder."""
    from .functions.events import stl_daily

    return stl_daily(
        _read_parquet(f"{sf_dir}/events.parquet",
                      columns=["event_type", "ts"])
    )


def q_flesch(sf_dir: str) -> rd.Dataset:
    """Flesch reading ease per doc from regex-mirrored word/sentence/
    vowel-group counts; one mirrored float expression, NULL when a doc
    has no sentence or word."""
    from .functions.textstats import flesch_reading_ease

    return flesch_reading_ease(_docs(sf_dir, ["doc_id", "text"]))


def q_digit_ztest(sf_dir: str) -> rd.Dataset:
    """Two-proportion z-test per source: digit-bearing-doc rate vs the
    rest of the corpus (pooled variance); exact integer partials, one
    mirrored float expression."""
    import polars as pl

    from .functions.textstats import two_proportion_ztest

    return two_proportion_ztest(
        _docs(sf_dir, ["source", "text"]),
        "source",
        pl.col("text").str.contains(r"[0-9]"),
    )


def q_token_jaccard(sf_dir: str) -> rd.Dataset:
    """Exact set-similarity self-join (token Jaccard >= 0.9) within
    source blocks via PPJoin prefix filtering + true intersection
    verify — finds ALL qualifying pairs, exactly."""
    from .functions.linkage import token_jaccard_join

    return token_jaccard_join(
        _docs(sf_dir, ["source", "doc_id", "text"]), tau=0.9
    )


def q_cusum_daily(sf_dir: str) -> rd.Dataset:
    """One-sided CUSUM control line per event type (Page 1954): single
    dependency chain over the gap-filled grid, bit-identical to the
    SQL recursive CTE (the ewma_daily contract)."""
    from .functions.events import cusum_daily

    return cusum_daily(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts"]),
        k_frac=0.1,
    )


def q_dow_profile(sf_dir: str) -> rd.Dataset:
    """Day-of-week seasonality profile per event type over the filled
    grid (0=Sunday) — integer days/totals, mean and share one division
    each at 6dp."""
    from .functions.events import dow_profile

    return dow_profile(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts"])
    )


def q_zipf_slope(sf_dir: str) -> rd.Dataset:
    """Zipf-law OLS fit (ln count vs ln rank) over the top-100 tokens —
    vocabulary-health audit; heavy pass is the top_tokens combiner, the
    regression is driver-side over 100 rows, 6dp vs regr_slope."""
    return textstats.zipf_slope(_docs(sf_dir, ["doc_id", "text"]), top_n=100)


def q_repeat_purchase(sf_dir: str) -> pa.Table:
    """Repeat-purchase summary over (customer, part) pairs: ONE
    orderkey hash join after per-batch pre-reduction, all-integer."""
    return relational.repeat_purchase_stats(
        _read_parquet(f"{sf_dir}/lineitem.parquet",
                        columns=["l_orderkey", "l_partkey"]),
        _read_parquet(f"{sf_dir}/orders.parquet",
                        columns=["o_orderkey", "o_custkey"]),
    )


def q_segment_migration(sf_dir: str) -> pa.Table:
    """Customer revenue-quartile migration between the two halves of
    the order history (tile 0 = inactive in that half) — exact integer
    cells, tie-stable max-rank tiles."""
    return relational.segment_migration(
        _read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey", "o_orderdate", "o_totalprice"],
        ),
        k=4,
    )


def q_p_chart(sf_dir: str) -> rd.Dataset:
    """p-chart for the daily error-event rate: per-day 3-sigma limits
    around the process center, volume-aware."""
    return events.p_chart_daily(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts"]),
        flag_type="error",
    )


def q_head_prefixes(sf_dir: str) -> pa.Table:
    """Top-5 16-char document openings per source with share —
    boilerplate/template-head detector."""
    return textstats.head_prefixes(
        _docs(sf_dir, ["source", "text"]), prefix_len=16, k=5
    )


def q_gumbel_daily(sf_dir: str) -> rd.Dataset:
    """Gumbel method-of-moments fit + 30-day return level per event
    type over the filled daily grid — peak-load capacity planning."""
    return events.gumbel_daily(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts"]),
        horizon=30,
    )


def q_dispersion_daily(sf_dir: str) -> rd.Dataset:
    """Poisson overdispersion (variance-to-mean + chi-square index)
    per event type — bursty-arrivals audit."""
    return events.dispersion_daily(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts"])
    )


def q_runs_test(sf_dir: str) -> rd.Dataset:
    """Wald-Wolfowitz runs test of the above/below-median daily
    pattern per event type — regime-persistence vs alternation."""
    return events.runs_test_daily(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts"])
    )


def q_vocab_coverage(sf_dir: str) -> pa.Table:
    """Vocabulary budget: distinct tokens needed to cover 50/90/99% of
    occurrences — count-multiset-deterministic, histogram-of-counts
    shuffle only."""
    return textstats.vocab_coverage(_docs(sf_dir, ["text"]))


def q_parquet_audit(sf_dir: str) -> pa.Table:
    """Storage-layout audit: row-group counts/sizes per input table
    (footer metadata only). Rows-only driver check — DuckDB exposes no
    row-group metadata for a view."""
    from .sources import parquet_layout_audit

    return parquet_layout_audit(sf_dir)


def q_twap(sf_dir: str) -> rd.Dataset:
    """Time-weighted average value per user (each observation weighted
    by its holding duration; last observation dropped)."""
    return events.twap_per_user(
        _read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["user_id", "event_id", "ts", "value"],
        )
    )


def q_active_days(sf_dir: str) -> pa.Table:
    """Distinct-active-days-per-user histogram — the engagement-depth
    shape; all-integer."""
    return events.active_days_histogram(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["user_id", "ts"])
    )


def q_funnel_24h(sf_dir: str) -> pa.Table:
    """Time-boxed view->click->purchase funnel (each hop within 24 h,
    strictly after) with per-hop conversion rates."""
    return events.funnel_within(
        _read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["user_id", "ts", "event_type"],
        ),
        window_us=86_400_000_000,
    )


def q_scd2(sf_dir: str) -> rd.Dataset:
    """SCD Type-2 validity intervals of consecutive equal event_type
    runs per user ((ts, event_id) total order; valid_to = next run's
    start, -1 while current) — all-integer, no NULLs."""
    return events.scd2_intervals(
        _read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["user_id", "event_id", "event_type", "ts"],
        )
    )


def q_l_diversity(sf_dir: str) -> pa.Table:
    """l-diversity audit: distinct sources per (lang, length-bucket)
    quasi-class — homogeneous classes (l = 1) leak the sensitive
    attribute even when k-anonymous."""
    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": batch.column("lang"),
                "bucket": pc.divide(
                    batch.column("n_chars"), pa.scalar(500, pa.int64())
                ),
                "source": batch.column("source"),
            }
        )

    return relational.l_diversity_audit(
        _docs(sf_dir, ["lang", "source", "n_chars"]).map_batches(
            prep, batch_format="pyarrow"
        ),
        ["lang", "bucket"],
        "source",
    )


def q_value_drift(sf_dir: str) -> pa.Table:
    """Temporal PSI drift of the value distribution per event type
    (first half vs second half of the time range, Laplace-smoothed)."""
    return events.value_drift_psi(
        _read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_type", "value", "ts"],
        )
    )


def q_zero_runs(sf_dir: str) -> pa.Table:
    """Outage report: maximal zero-count day runs per event type on
    the filled grid — pure integer run-length encoding."""
    return events.zero_runs(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts"])
    )


def q_first_touch(sf_dir: str) -> pa.Table:
    """First-touch attribution: conversions credited to each user's
    first-ever event type ((ts, event_id) total order)."""
    return events.first_touch_attribution(
        _read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["user_id", "event_id", "event_type", "ts"],
        ),
        target_type="purchase",
    )


def q_order_sizes(sf_dir: str) -> pa.Table:
    """Lines-per-order histogram — the orderkey join-skew audit."""
    return relational.order_size_histogram(
        _read_parquet(f"{sf_dir}/lineitem.parquet",
                        columns=["l_orderkey"])
    )


def q_skyline(sf_dir: str) -> pa.Table:
    """Pareto frontier of parts on (price low, size high) — the
    multi-objective shortlist; local-prune + driver re-prune, pure
    comparisons (no float math), exact NOT EXISTS oracle."""
    return relational.skyline_parts(
        _read_parquet(
            f"{sf_dir}/part.parquet",
            columns=["p_partkey", "p_size", "p_retailprice"],
        )
    )


def q_value_disc_quantiles(sf_dir: str) -> pa.Table:
    """quantile_disc(0.25/0.5/0.75/0.9) of event value per type — the
    exact-occurring-value quantile family (ceil(q n) - 1 index rule)."""
    from .functions.sketches import grouped_quantile_disc

    return grouped_quantile_disc(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "value"]),
        "event_type",
        "value",
    )


def q_heaps_law(sf_dir: str) -> pa.Table:
    """Heaps-law exponent fit over the vocab-growth decile curve —
    'will 10x more data need a bigger vocab?' in one row."""
    return textstats.heaps_law(_docs(sf_dir, ["doc_id", "text"]), seed=7)


def q_srm(sf_dir: str) -> pa.Table:
    """Sample-ratio-mismatch chi-square for the md5 %2 split contract —
    the A/B sanity gate; exact arm counts, mirrored chi2/z chain."""
    return dedup.srm_check(_docs(sf_dir, ["doc_id"]), n_arms=2)


def q_hill_tail(sf_dir: str) -> pa.Table:
    """Hill heavy-tail exponent of document lengths per source (top-101
    order statistics; tie-insensitive value multiset)."""
    return textstats.hill_tail_by_group(
        _docs(sf_dir, ["source", "doc_id", "n_chars"]), k=100
    )


def q_wilson_ci(sf_dir: str) -> pa.Table:
    """Wilson 95% CI for the contains-a-digit share per source — the
    proportion interval that behaves near 0/1."""
    def flag(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "source": batch.column("source"),
                "has_digit": pc.match_substring_regex(
                    batch.column("text"), "[0-9]"
                ),
            }
        )

    return relational.wilson_ci_by_group(
        _docs(sf_dir, ["source", "text"]).map_batches(
            flag, batch_format="pyarrow"
        ),
        "source",
        "has_digit",
    )


def q_cond_entropy(sf_dir: str) -> pa.Table:
    """Bigram conditional entropy H(next|current) in bits — the
    sequence-predictability audit; token-hash bucketed integer counts,
    marginals bucket-local, mirrored log2 chain."""
    return textstats.bigram_cond_entropy(_docs(sf_dir, ["text"]))


def q_dup_degree(sf_dir: str) -> pa.Table:
    """Near-dup graph degree histogram at exact token-Jaccard >= 0.8
    (zero-degree mass included) — template-cluster shape check."""
    from .functions.linkage import dup_degree_histogram

    return dup_degree_histogram(
        _docs(sf_dir, ["source", "doc_id", "text"]), tau=0.8
    )


def q_rfm(sf_dir: str) -> pa.Table:
    """RFM quintile segmentation (recency/frequency/monetary) with the
    tie-stable integer max-rank tile rule — segment counts + shares."""
    return events.rfm_segments(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["user_id", "ts", "value"])
    )


def q_xmr_chart(sf_dir: str) -> rd.Dataset:
    """XmR individuals control chart per event type (center ± 2.66 x
    mean moving range, global limits) — integer Σx/Σ|Δx|, mirrored
    limit chain, unrounded breach comparison."""
    return events.xmr_chart(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts"])
    )


def q_hour_dow(sf_dir: str) -> rd.Dataset:
    """Hour-of-day x day-of-week load heatmap (0=Sunday) — exact
    integer cells, one share division."""
    return events.hour_dow_heatmap(
        _read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])
    )


def q_cohort_matrix(sf_dir: str) -> rd.Dataset:
    """Weekly cohort-retention triangle (first-active week x offset,
    exact distinct-membership integers, one mirrored division)."""
    return events.cohort_matrix(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["user_id", "ts"])
    )


def q_partition_balance(sf_dir: str) -> pa.Table:
    """Shard-balance audit of doc_id over 256 md5 hash buckets —
    exact integer bucket counts, mirrored cv/imbalance expressions."""
    return dedup.partition_balance(
        _docs(sf_dir, ["doc_id"]), "doc_id", n_parts=256
    )


def q_crosstab_residuals(sf_dir: str) -> pa.Table:
    """Adjusted Pearson residuals per (source, lang) cell — WHICH cell
    drives the chi-square; exact margins, per-cell float chain."""
    return relational.crosstab_residuals(
        _docs(sf_dir, ["source", "lang"]), "source", "lang"
    )


def q_odds_ratio(sf_dir: str) -> pa.Table:
    """One-vs-rest odds ratio per language for contains-a-digit, with
    Woolf 95% CI — exact 2x2 integer cells, mirrored ln/exp chain."""
    def flag(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": batch.column("lang"),
                "has_digit": pc.match_substring_regex(
                    batch.column("text"), "[0-9]"
                ),
            }
        )

    return relational.odds_ratio_by_group(
        _docs(sf_dir, ["lang", "text"]).map_batches(
            flag, batch_format="pyarrow"
        ),
        "lang",
        "has_digit",
    )


def q_bollinger_daily(sf_dir: str) -> rd.Dataset:
    """Bollinger bands (trailing 7-day mean +- 2 sample sd) over the
    gap-filled per-type daily count grid, with breach flags — integer
    window sums, one mirrored float chain, sqrt guard fires identically
    on both engines."""
    return events.bollinger_daily(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts"])
    )


def q_kaplan_meier(sf_dir: str) -> rd.Dataset:
    """Kaplan-Meier time-to-conversion curve (first event -> first
    purchase; non-converters censored at corpus end) — integer (d, n)
    histogram, survival mirrors the SQL running exp(sum(ln)) chain."""
    return events.kaplan_meier(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["user_id", "event_type", "ts"]),
        target_type="purchase",
    )


def q_diversity(sf_dir: str) -> pa.Table:
    """Shannon (bits) + unbiased Simpson diversity of the language mix
    per source — exact integer crosstab, log2 sum at 6dp."""
    return relational.diversity_by_group(
        _docs(sf_dir, ["source", "lang"]), "source", "lang"
    )


def q_containment_pairs(sf_dir: str) -> rd.Dataset:
    """EXACT directed token-set containment join (|A∩B|/|A| >= 0.8
    within source) — the quotation/boilerplate superset detector;
    PPJoin-style rarest-prefix probe, full verification."""
    from .functions.linkage import token_containment_join

    return token_containment_join(
        _docs(sf_dir, ["source", "doc_id", "text"]), tau=0.8
    )


def q_decile_shares(sf_dir: str) -> pa.Table:
    """Customer revenue deciles (exact NTILE(10) fill rule applied to
    the revenue histogram — tie-insensitive sums, no per-customer
    pass) with share and cumulative share."""
    return relational.decile_revenue_shares(
        _read_parquet(f"{sf_dir}/orders.parquet",
                        columns=["o_custkey", "o_totalprice"]),
        k=10,
    )


def q_kmv_overlap(sf_dir: str) -> pa.Table:
    """Pairwise audience-overlap estimates between event types via KMV
    distinct sketches (k=256) on the pinned md5 32-bit hash — exact
    oracle because the estimator is a deterministic function of the
    k smallest hashes, which SQL reproduces with row_number()."""
    from .functions.sketches import kmv_set_overlap

    return kmv_set_overlap(
        _read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "user_id"]),
        key="event_type",
        value="user_id",
        k=256,
    )


def q_hhi_by_nation(sf_dir: str) -> pa.Table:
    """Supplier revenue concentration per nation (Herfindahl index +
    top-supplier share) — exact integer units, HUGEINT-mirrored squares,
    one double division per output."""
    return relational.revenue_concentration(
        _read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_suppkey", "l_extendedprice", "l_discount"],
        ),
        sf_dir,
    )


def q_cume_dist(sf_dir: str) -> rd.Dataset:
    """cume_dist() window per language over document length — the
    upper-tail companion of q_percent_rank (max-rank ties)."""
    return relational.cume_dist_by_group(
        _docs(sf_dir, ["doc_id", "lang", "n_chars"]), "lang", "n_chars"
    )


def q_kfold_stats(sf_dir: str) -> pa.Table:
    """5-fold deterministic CV assignment + per-fold balance audit
    (md5 % 5 fold contract; integer cells, one mean division)."""
    return dedup.kfold_summary(
        _docs(sf_dir, ["doc_id", "lang", "n_chars"]), n_folds=5
    )


def q_anova_chars(sf_dir: str) -> rd.Dataset:
    """Classical one-way ANOVA F of document length across languages
    (+ eta² effect size) — the parametric complement of
    q_kruskal_len_by_lang; exact integer moments, deviation-form SSB."""
    return relational.anova_f_by_group(
        _docs(sf_dir, ["lang", "n_chars"]), "lang", "n_chars"
    )


def q_brown_forsythe(sf_dir: str) -> rd.Dataset:
    """Brown–Forsythe variance-homogeneity F of document length across
    sources (Levene with the group median, computed on the exact-integer
    doubled deviations |2x − 2·median| — F is scale-invariant)."""
    return relational.brown_forsythe(
        _docs(sf_dir, ["source", "n_chars"]), "source", "n_chars"
    )


def q_interarrival(sf_dir: str) -> rd.Dataset:
    """Per-type arrival-process fit: mean inter-arrival seconds, gap CV
    (Poisson ⇒ ≈1) and implied hourly rate — (type, day)-bucketed gap
    partials with driver-stitched day boundaries."""
    return events.interarrival_fit(
        _read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
        )
    )


def q_event_trigrams(sf_dir: str) -> rd.Dataset:
    """Top-20 consecutive event-type trigrams across user journeys —
    the 3-step sequence-mining generalization of q_event_transitions;
    deterministic (n DESC, e1, e2, e3) tiebreak."""
    return events.event_trigrams(
        _read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "user_id", "ts", "event_type"],
        )
    )


def q_utf8_audit(sf_dir: str) -> rd.Dataset:
    """Per-source UTF-8 multibyte overhead audit (byte length − char
    length, exact integers; mojibake/charset-drift detector)."""
    return textstats.utf8_audit(
        _docs(sf_dir, ["source", "text"])
    )


def q_gap_quantiles(sf_dir: str) -> rd.Dataset:
    """Per-type inter-arrival gap quartiles (whole seconds) — the
    robust complement of q_interarrival's mean/CV fit; exact
    quantile_cont mirror over the merged gap histogram."""
    return events.gap_quantiles(
        _read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
        )
    )


def q_segment_profile(sf_dir: str) -> rd.Dataset:
    """Audience segment algebra: user count per event-type bitmask —
    the full inclusion-exclusion overlap profile in ≤ 2^k rows."""
    return events.user_segment_profile(
        _read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
        )
    )


def q_basket_pairs(sf_dir: str) -> rd.Dataset:
    """Market-basket top-20 part pairs by order co-occurrence with
    association lift — order-bucketed self-merge, tagged partials, the
    pair table never leaves the cluster."""
    return relational.basket_pairs(
        _read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_partkey"],
        )
    )


def q_reorder_cadence(sf_dir: str) -> rd.Dataset:
    """Repeat-purchase cadence per market segment (median/p90 day gap
    between a customer's consecutive orders) — one co-grouped shuffle:
    join + per-key window + grouped quantile fused."""
    return relational.reorder_cadence(
        _read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
        ),
        _read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_mktsegment"],
        ),
    )


def q_char_classes(sf_dir: str) -> rd.Dataset:
    """Per-source character-class fingerprint (ASCII letter / digit /
    whitespace / other ratios) — same RE2 classes on both engines."""
    return textstats.char_classes(_docs(sf_dir, ["source", "text"]))


def q_tail_suffixes(sf_dir: str) -> pa.Table:
    """Top-5 16-char document ENDINGS per source with share — the
    footer/signature-boilerplate complement of q_head_prefixes."""
    return textstats.head_prefixes(
        _docs(sf_dir, ["source", "text"]), prefix_len=16, k=5, side="tail"
    )


def q_label_margin(sf_dir: str) -> rd.Dataset:
    """Mislabel-candidate audit over the labeled embeddings: per-vector
    margin between the own-label centroid distance and the nearest
    foreign centroid distance (+ confusable flag)."""
    return similarity.label_margin(
        _read_parquet(
            f"{sf_dir}/embeddings.parquet",
            columns=["vec_id", "label", "embedding"],
        )
    )


def q_hour_entropy(sf_dir: str) -> rd.Dataset:
    """Hour-of-day Shannon entropy per event type (nats) — schedule
    concentration scalar next to the hour x dow heatmap."""
    return events.hour_entropy(
        _read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
        )
    )


def q_type_user_overlap(sf_dir: str) -> rd.Dataset:
    """Pairwise audience Jaccard between event types from the per-user
    bitmask histogram — no user-level self-join."""
    return events.type_user_overlap(
        _read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
        )
    )


def q_conversion_lag(sf_dir: str) -> rd.Dataset:
    """Exact day-lag quartiles from first signup to first purchase for
    CONVERTED users — the uncensored complement of q_kaplan_meier."""
    return events.conversion_lag_quantiles(
        _read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["user_id", "event_type", "ts"],
        )
    )


def q_dup_bytes(sf_dir: str) -> rd.Dataset:
    """Storage-waste ledger of exact duplication per source (non-keeper
    copies + bytes reclaimable; keeper = corpus-min doc_id). The
    synthetic corpus has no exact dups, so every 10th doc is
    re-syndicated as a deterministic copy (doc_id + 1e6, same source)
    on BOTH engines — the q_embedding_dups_exact augmentation
    contract."""
    docs = _docs(sf_dir, ["doc_id", "source", "text"])

    def copies(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        sub = batch.filter(pa.array(ids % 10 == 0))
        return pa.Table.from_pydict(
            {
                "doc_id": pc.add(sub.column("doc_id"), pa.scalar(1_000_000)),
                "source": sub.column("source"),
                "text": sub.column("text"),
            }
        )

    aug = docs.union(docs.map_batches(copies, batch_format="pyarrow"))
    return dedup.dup_bytes_by_source(aug)


def q_size_price_slope(sf_dir: str) -> rd.Dataset:
    """Price-vs-size OLS elasticity per part type (slope/intercept/r2)
    — the regr_by_group co-moment scheme over the part dimension."""
    return relational.regr_by_group(
        _read_parquet(
            f"{sf_dir}/part.parquet",
            columns=["p_type", "p_size", "p_retailprice"],
        ),
        "p_type", "p_size", "p_retailprice",
    )


def q_streaming_dedup(sf_dir: str) -> rd.Dataset:
    """Streaming cross-batch MinHash dedup via the band-sharded mutable
    index actors (the raw-actor escape hatch for state the Dataset API
    can't express) — rows-only driver check: one (doc_id, is_duplicate)
    row per document, count deterministic; which copy survives depends
    on arrival order (documented), so no value oracle."""
    from .state.dedup_index import streaming_dedup

    return streaming_dedup(_docs(sf_dir, ["doc_id", "text"]))


def q_line_profile(sf_dir: str) -> rd.Dataset:
    """Per-source layout fingerprint: avg lines/doc and avg chars/line
    (newline-count integers, zero-copy Arrow kernel)."""
    return textstats.line_profile(_docs(sf_dir, ["source", "text"]))


def q_spend_gini(sf_dir: str) -> rd.Dataset:
    """Order-value inequality per order priority: exact Gini over
    integer cents (the gini_by_group rank-form histogram scheme)."""
    import numpy as np

    from .functions.sketches import gini_by_group

    orders = _read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_totalprice"],
    )

    def cents(batch: pa.Table) -> pa.Table:
        v = batch.column("o_totalprice").to_numpy()
        return pa.Table.from_pydict(
            {
                "o_orderpriority": batch.column("o_orderpriority"),
                "cents": pa.array(
                    np.floor(v * 100.0 + 0.5).astype(np.int64)
                ),
            }
        )

    return gini_by_group(
        orders.map_batches(cents, batch_format="pyarrow"),
        "o_orderpriority",
        "cents",
    )


def q_llr_bigrams(sf_dir: str) -> pa.Table:
    """Top-50 collocations by Dunning's log-likelihood ratio G² —
    the evidence-weighted complement of q_pmi_pairs on the same
    document-co-occurrence counts."""
    return textstats.pmi_pairs(
        _docs(sf_dir, ["doc_id", "text"]), score="llr"
    )


def q_bloom_semijoin(sf_dir: str) -> rd.Dataset:
    """Orders from high-balance customers via the Bloom-pre-filtered
    exact semi join (classic distributed-join pushdown): the selective
    customer side broadcasts 128 KB of filter bits, ~99% of orders
    never enter the join shuffle, and the exact bucketed semi join
    cleans up the false positives — result == plain SQL semi join."""
    from .functions.joins import bloom_semi_join

    orders = _read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderpriority"],
    )
    rich = _read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_acctbal"]
    ).filter(expr="c_acctbal > 9000.0")
    joined = bloom_semi_join(
        orders, rich, on="o_custkey", right_on="c_custkey",
        right_schema=pa.schema(
            [pa.field("c_custkey", pa.int64()),
             pa.field("c_acctbal", pa.float64())]
        ),
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().groupby(
            "o_orderpriority", as_index=False
        ).size()
        return pa.Table.from_pandas(df, preserve_index=False)

    parts = joined.map_batches(partial, batch_format="pyarrow").take_all()
    acc: dict = {}
    for r in parts:
        acc[r["o_orderpriority"]] = acc.get(r["o_orderpriority"], 0) + int(
            r["size"]
        )
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "o_orderpriority": pa.array(sorted(acc), pa.string()),
                "n_orders": pa.array(
                    [acc[k] for k in sorted(acc)], pa.int64()
                ),
            }
        )
    )


def q_tokenizer_fertility(sf_dir: str) -> rd.Dataset:
    """Per-language tokenizer-parity audit: chars per BPE-style token +
    tokens per doc (the multilingual context-budget fairness metric)."""
    return textstats.tokenizer_fertility(
        _docs(sf_dir, ["lang", "text"])
    )


NORM_SQL = (
    "trim(regexp_replace(regexp_replace(text,"
    " '\\[\\[AD\\]\\].*?\\[\\[/AD\\]\\]', ' ', 'gs'),"
    " '[ \\t\\n\\r\\f\\v]+', ' ', 'g'))"
)


def oracle_sql() -> dict:
    """DuckDB equivalents for the SQL-expressible queries. Non-SQL ops
    (extraction, LSH/minhash/simhash, langid heuristic, LSH ANN) are
    intentionally absent -> driver records rows-only checks."""
    sql = _oracle_sql_base()
    # the sharded variant is semantics-identical to the broadcast one
    sql["q_decontaminate_sharded"] = sql["q_decontaminate"]
    # Cohen's kappa derives from the confusion counts: reuse the
    # q_langid_confusion CTE verbatim so the CASE expression can never
    # drift between the two oracles
    # the calibration curve reuses the q_langid CTE verbatim (doc_id,
    # pred_lang, lang_conf) — same no-drift rationale as kappa below
    sql["q_langid_calibration"] = (
        f"WITH pred AS ({sql['q_langid']}),"
        " j AS (SELECT"
        " CAST(least(floor(p.lang_conf * 10), 9) AS BIGINT) AS bin,"
        " CASE WHEN d.lang = p.pred_lang THEN 1 ELSE 0 END AS ok,"
        " CAST(round(p.lang_conf * 1000000) AS BIGINT) AS conf_micro"
        " FROM documents d JOIN pred p ON d.doc_id = p.doc_id)"
        " SELECT bin, count(*)::BIGINT AS n, sum(ok)::BIGINT AS n_correct,"
        " round(sum(ok) * 1.0 / count(*), 6) AS accuracy,"
        " round(sum(conf_micro) / 1000000.0 / count(*), 6) AS mean_conf"
        " FROM j GROUP BY 1"
    )
    sql["q_langid_kappa"] = (
        f"WITH conf AS ({sql['q_langid_confusion']}),"
        " tot AS (SELECT sum(n)::BIGINT AS nn,"
        " sum(CASE WHEN lang = pred_lang THEN n ELSE 0 END)::BIGINT"
        " AS agree FROM conf),"
        " marg AS (SELECT coalesce(sum(r.rn * c.cn), 0)::BIGINT AS chance"
        " FROM (SELECT lang AS k, sum(n)::BIGINT AS rn FROM conf"
        "       GROUP BY 1) r"
        " JOIN (SELECT pred_lang AS k, sum(n)::BIGINT AS cn FROM conf"
        "       GROUP BY 1) c ON r.k = c.k)"
        " SELECT CASE WHEN nn * nn - chance = 0 THEN NULL"
        " ELSE round(CAST(nn * agree - chance AS DOUBLE)"
        " / CAST(nn * nn - chance AS DOUBLE), 6) END AS kappa,"
        " nn AS n_docs FROM tot, marg"
    )
    return sql


def _oracle_sql_base() -> dict:
    return {
        "q_tokenizer_fertility": (
            "WITH s AS (SELECT lang, count(*)::BIGINT AS n,"
            " sum(length(text))::BIGINT AS ch,"
            " sum(len(regexp_extract_all(text,"
            " '''[a-z]+| ?[a-z0-9]+| ?[^a-z0-9 \\t\\n\\r]+')))::BIGINT"
            " AS tok FROM documents GROUP BY 1)"
            " SELECT lang, n AS n_docs, tok AS n_tokens,"
            " CASE WHEN tok = 0 THEN NULL ELSE"
            " round(ch::DOUBLE / tok::DOUBLE, 6) END AS chars_per_token,"
            " round(tok::DOUBLE / n::DOUBLE, 6) AS tokens_per_doc FROM s"
        ),
        "q_bloom_semijoin": (
            "SELECT o_orderpriority, count(*)::BIGINT AS n_orders"
            " FROM orders WHERE o_custkey IN (SELECT c_custkey"
            " FROM customer WHERE c_acctbal > 9000.0)"
            " GROUP BY 1"
        ),
        "q_llr_bigrams": (
            "WITH allt AS (SELECT doc_id, unnest(regexp_extract_all(text,"
            " '[a-z0-9]+')) AS token FROM documents),"
            " vocab AS (SELECT token FROM allt GROUP BY token"
            "  ORDER BY count(*) DESC, token LIMIT 100),"
            " dt AS (SELECT DISTINCT doc_id, token FROM allt"
            "  WHERE token IN (SELECT token FROM vocab)),"
            " df AS (SELECT token, count(*) AS d FROM dt GROUP BY token),"
            " co AS (SELECT a.token AS ta, b.token AS tb, count(*) AS n_co"
            "  FROM dt a JOIN dt b USING (doc_id) WHERE a.token < b.token"
            "  GROUP BY 1, 2 HAVING count(*) >= 5),"
            " nn AS (SELECT count(*)::DOUBLE AS nd FROM documents),"
            " sc AS (SELECT ta, tb, n_co,"
            "  da.d::DOUBLE AS a, db.d::DOUBLE AS b, n_co::DOUBLE AS c,"
            "  nn.nd FROM co JOIN df da ON da.token = co.ta"
            "  JOIN df db ON db.token = co.tb CROSS JOIN nn)"
            " SELECT ta AS token_a, tb AS token_b, n_co,"
            " round(2.0 * (c * ln(c / (a * b / nd))"
            "  + CASE WHEN a - c > 0 THEN (a - c)"
            "    * ln((a - c) / (a * (nd - b) / nd)) ELSE 0 END"
            "  + CASE WHEN b - c > 0 THEN (b - c)"
            "    * ln((b - c) / ((nd - a) * b / nd)) ELSE 0 END"
            "  + CASE WHEN nd - a - b + c > 0 THEN (nd - a - b + c)"
            "    * ln((nd - a - b + c) / ((nd - a) * (nd - b) / nd))"
            "    ELSE 0 END), 6) + 0.0 AS llr"
            " FROM sc ORDER BY llr DESC, token_a, token_b LIMIT 50"
        ),
        "q_line_profile": (
            "WITH s AS (SELECT source, count(*)::BIGINT AS n,"
            " sum(length(text))::BIGINT AS ch,"
            " sum(length(text) - length(replace(text, chr(10), '')))"
            "::BIGINT AS nl FROM documents GROUP BY 1)"
            " SELECT source, n AS n_docs, (nl + n)::BIGINT AS n_lines,"
            " round((nl + n)::DOUBLE / n::DOUBLE, 6) AS avg_lines_per_doc,"
            " CASE WHEN nl + n = 0 THEN NULL ELSE"
            " round((ch - nl)::DOUBLE / (nl + n)::DOUBLE, 6)"
            " END AS avg_line_len FROM s"
        ),
        "q_spend_gini": (
            "WITH c AS (SELECT o_orderpriority,"
            " CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT) AS cents"
            " FROM orders),"
            " r AS (SELECT o_orderpriority, cents, row_number() OVER ("
            " PARTITION BY o_orderpriority ORDER BY cents) AS rn FROM c)"
            " SELECT o_orderpriority, round((2 * sum(rn * cents) -"
            " (count(*) + 1) * sum(cents)) /"
            " (count(*) * sum(cents)), 6) AS gini"
            " FROM r GROUP BY 1"
        ),
        "q_size_price_slope": (
            "SELECT p_type,"
            " round(regr_slope(p_retailprice, p_size), 6) AS slope,"
            " round(regr_intercept(p_retailprice, p_size), 6)"
            " AS intercept,"
            " round(regr_r2(p_retailprice, p_size), 6) AS r2"
            " FROM part GROUP BY p_type"
        ),
        "q_conversion_lag": (
            "WITH s AS (SELECT user_id, min(epoch_us(ts)) AS t FROM events"
            " WHERE event_type = 'signup' GROUP BY 1),"
            " d AS (SELECT user_id, min(epoch_us(ts)) AS t FROM events"
            " WHERE event_type = 'purchase' GROUP BY 1),"
            " lg AS (SELECT (d.t - s.t) // 86400000000 AS lag"
            " FROM s JOIN d USING (user_id) WHERE d.t >= s.t)"
            " SELECT count(*)::BIGINT AS n_converted,"
            " round(quantile_cont(lag, 0.25), 6) AS p25_days,"
            " round(quantile_cont(lag, 0.50), 6) AS p50_days,"
            " round(quantile_cont(lag, 0.75), 6) AS p75_days"
            " FROM lg HAVING count(*) > 0"
        ),
        "q_dup_bytes": (
            "WITH aug AS (SELECT doc_id, source, text FROM documents"
            " UNION ALL SELECT doc_id + 1000000, source, text"
            " FROM documents WHERE doc_id % 10 = 0),"
            " k AS (SELECT text, min(doc_id) AS keeper FROM aug"
            " GROUP BY 1)"
            " SELECT d.source, count(*)::BIGINT AS n_dup_docs,"
            " sum(strlen(d.text))::BIGINT AS bytes_reclaimable"
            " FROM aug d JOIN k ON d.text = k.text"
            " AND d.doc_id != k.keeper GROUP BY 1"
        ),
        "q_hour_entropy": (
            "WITH c AS (SELECT event_type,"
            " extract(hour FROM ts)::BIGINT AS h, count(*)::BIGINT AS n"
            " FROM events GROUP BY 1, 2),"
            " t AS (SELECT event_type, sum(n)::BIGINT AS tot FROM c"
            " GROUP BY 1)"
            " SELECT c.event_type, t.tot AS n_events,"
            " round(sum(-(c.n::DOUBLE / t.tot::DOUBLE)"
            " * ln(c.n::DOUBLE / t.tot::DOUBLE)), 6)"
            " AS hour_entropy_nats,"
            " count(*)::BIGINT AS n_active_hours"
            " FROM c JOIN t USING (event_type) GROUP BY 1, 2"
        ),
        "q_type_user_overlap": (
            "WITH ut AS (SELECT DISTINCT user_id, event_type"
            " FROM events),"
            " cnt AS (SELECT event_type, count(*)::BIGINT AS c FROM ut"
            " GROUP BY 1),"
            " bo AS (SELECT a.event_type AS t1, b.event_type AS t2,"
            " count(*)::BIGINT AS n_both FROM ut a JOIN ut b"
            " ON a.user_id = b.user_id"
            " AND a.event_type < b.event_type GROUP BY 1, 2)"
            " SELECT bo.t1, bo.t2, bo.n_both,"
            " (c1.c + c2.c - bo.n_both)::BIGINT AS n_either,"
            " round(bo.n_both::DOUBLE"
            " / (c1.c + c2.c - bo.n_both)::DOUBLE, 6) AS jaccard"
            " FROM bo JOIN cnt c1 ON c1.event_type = bo.t1"
            " JOIN cnt c2 ON c2.event_type = bo.t2"
        ),
        "q_tail_suffixes": (
            "WITH p AS (SELECT source, right(text, 16) AS sfx"
            " FROM documents),"
            " c AS (SELECT source, sfx, count(*)::BIGINT AS n FROM p"
            " GROUP BY 1, 2),"
            " t AS (SELECT source, sum(n)::BIGINT AS tot FROM c"
            " GROUP BY 1),"
            " r AS (SELECT source, sfx, n, row_number() OVER"
            " (PARTITION BY source ORDER BY n DESC, sfx) AS rk FROM c)"
            " SELECT r.source, r.rk AS rank, r.sfx AS suffix,"
            " r.n AS n_docs, round(CAST(r.n AS DOUBLE)"
            " / CAST(t.tot AS DOUBLE), 6) AS share FROM r"
            " JOIN t ON t.source = r.source WHERE r.rk <= 5"
        ),
        "q_label_margin": (
            "WITH ex AS (SELECT vec_id, label,"
            " unnest(CAST(embedding AS DOUBLE[])) AS val,"
            " unnest(range(len(embedding))) AS dim FROM embeddings),"
            " m AS (SELECT label, dim, avg(val) AS mv FROM ex"
            " GROUP BY 1, 2),"
            " d AS (SELECT ex.vec_id, ex.label, m.label AS clabel,"
            " sqrt(sum((ex.val - m.mv) * (ex.val - m.mv))) AS dist"
            " FROM ex JOIN m ON ex.dim = m.dim GROUP BY 1, 2, 3),"
            " own AS (SELECT vec_id, label, dist AS d_own FROM d"
            " WHERE label = clabel),"
            " oth AS (SELECT vec_id, min(dist) AS d_other FROM d"
            " WHERE label != clabel GROUP BY 1)"
            " SELECT o.vec_id, o.label,"
            " round(o.d_own - t.d_other, 6) AS margin,"
            " CASE WHEN o.d_own > t.d_other THEN 1 ELSE 0"
            " END::BIGINT AS confusable"
            " FROM own o JOIN oth t USING (vec_id)"
        ),
        "q_reorder_cadence": (
            "WITH o AS (SELECT c.c_mktsegment AS seg,"
            " epoch_us(o.o_orderdate) AS t,"
            " lag(epoch_us(o.o_orderdate)) OVER (PARTITION BY o.o_custkey"
            " ORDER BY o.o_orderdate, o.o_orderkey) AS p"
            " FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey),"
            " g AS (SELECT seg, (t - p) // 86400000000 AS gap FROM o"
            " WHERE p IS NOT NULL)"
            " SELECT seg AS mktsegment, count(*)::BIGINT AS n_gaps,"
            " round(quantile_cont(gap, 0.5), 6) AS p50_days,"
            " round(quantile_cont(gap, 0.9), 6) AS p90_days"
            " FROM g GROUP BY 1"
        ),
        "q_char_classes": (
            "WITH s AS (SELECT source, sum(length(text))::BIGINT AS c,"
            " sum(length(regexp_replace(text, '[^a-zA-Z]', '', 'g')))"
            "::BIGINT AS l,"
            " sum(length(regexp_replace(text, '[^0-9]', '', 'g')))"
            "::BIGINT AS d,"
            " sum(length(regexp_replace(text, '[^ \\t\\n\\r]', '', 'g')))"
            "::BIGINT AS w FROM documents GROUP BY 1)"
            " SELECT source, c AS n_chars,"
            " CASE WHEN c = 0 THEN NULL ELSE"
            " round(l::DOUBLE / c::DOUBLE, 6) END AS letter_ratio,"
            " CASE WHEN c = 0 THEN NULL ELSE"
            " round(d::DOUBLE / c::DOUBLE, 6) END AS digit_ratio,"
            " CASE WHEN c = 0 THEN NULL ELSE"
            " round(w::DOUBLE / c::DOUBLE, 6) END AS space_ratio,"
            " CASE WHEN c = 0 THEN NULL ELSE"
            " round((c - l - d - w)::DOUBLE / c::DOUBLE, 6)"
            " END AS other_ratio FROM s"
        ),
        "q_segment_profile": (
            "WITH tt AS (SELECT event_type,"
            " row_number() OVER (ORDER BY event_type) - 1 AS bit"
            " FROM (SELECT DISTINCT event_type FROM events)),"
            " um AS (SELECT e.user_id,"
            " sum(DISTINCT (1::BIGINT << tt.bit))::BIGINT AS mask"
            " FROM events e JOIN tt USING (event_type) GROUP BY 1)"
            " SELECT mask, count(*)::BIGINT AS n_users FROM um GROUP BY 1"
        ),
        "q_basket_pairs": (
            "WITH lp AS (SELECT DISTINCT l_orderkey, l_partkey"
            " FROM lineitem),"
            " nn AS (SELECT count(DISTINCT l_orderkey)::BIGINT AS n_orders"
            " FROM lp),"
            " pcnt AS (SELECT l_partkey, count(*)::BIGINT AS c FROM lp"
            " GROUP BY 1),"
            " pr AS (SELECT a.l_partkey AS p1, b.l_partkey AS p2,"
            " count(*)::BIGINT AS n_pair FROM lp a JOIN lp b"
            " ON a.l_orderkey = b.l_orderkey"
            " AND a.l_partkey < b.l_partkey GROUP BY 1, 2),"
            " top AS (SELECT * FROM pr"
            " ORDER BY n_pair DESC, p1, p2 LIMIT 20)"
            " SELECT t.p1, t.p2, t.n_pair,"
            " round(t.n_pair::DOUBLE * nn.n_orders::DOUBLE"
            " / (c1.c::DOUBLE * c2.c::DOUBLE), 6) AS lift"
            " FROM top t, nn, pcnt c1, pcnt c2"
            " WHERE c1.l_partkey = t.p1 AND c2.l_partkey = t.p2"
        ),
        "q_event_trigrams": (
            "WITH o AS (SELECT user_id, event_type AS e3,"
            " lag(event_type, 1) OVER w AS e2,"
            " lag(event_type, 2) OVER w AS e1 FROM events"
            " WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),"
            " t AS (SELECT e1, e2, e3, count(*)::BIGINT AS n FROM o"
            " WHERE e1 IS NOT NULL GROUP BY 1, 2, 3)"
            " SELECT e1, e2, e3, n FROM t"
            " ORDER BY n DESC, e1, e2, e3 LIMIT 20"
        ),
        "q_utf8_audit": (
            "SELECT source, count(*)::BIGINT AS n_docs,"
            " sum(CASE WHEN strlen(text) > length(text) THEN 1 ELSE 0"
            " END)::BIGINT AS n_multibyte,"
            " sum(strlen(text) - length(text))::BIGINT AS overhead_bytes,"
            " CASE WHEN sum(length(text)) = 0 THEN NULL ELSE"
            " round(sum(strlen(text) - length(text))::DOUBLE"
            " / sum(length(text))::DOUBLE, 6) END AS overhead_ratio"
            " FROM documents GROUP BY 1"
        ),
        "q_gap_quantiles": (
            "WITH o AS (SELECT event_type, epoch_us(ts) AS t,"
            " lag(epoch_us(ts)) OVER (PARTITION BY event_type"
            " ORDER BY ts, event_id) AS p FROM events),"
            " g AS (SELECT event_type, (t - p) // 1000000 AS d"
            " FROM o WHERE p IS NOT NULL)"
            " SELECT event_type, count(*)::BIGINT AS n_gaps,"
            " round(quantile_cont(d, 0.25), 6) AS p25,"
            " round(quantile_cont(d, 0.50), 6) AS p50,"
            " round(quantile_cont(d, 0.75), 6) AS p75"
            " FROM g GROUP BY 1"
        ),
        "q_anova_chars": (
            "WITH g AS (SELECT lang, count(*)::HUGEINT AS n,"
            " sum(n_chars)::HUGEINT AS s,"
            " sum(n_chars::HUGEINT * n_chars::HUGEINT) AS q"
            " FROM documents GROUP BY 1),"
            " t AS (SELECT sum(n) AS nn, sum(s) AS ss,"
            " count(*)::HUGEINT AS k FROM g),"
            " p AS (SELECT ((t.nn*g.s - g.n*t.ss)"
            " * (t.nn*g.s - g.n*t.ss))::DOUBLE / g.n::DOUBLE AS bt,"
            " (g.n*g.q - g.s*g.s)::DOUBLE / g.n::DOUBLE AS wt"
            " FROM g CROSS JOIN t),"
            " u AS (SELECT sum(bt) AS sb, sum(wt) AS sw FROM p)"
            " SELECT t.nn::BIGINT AS n, t.k::BIGINT AS k,"
            " CASE WHEN t.k < 2 OR t.nn <= t.k OR sw <= 0 THEN NULL"
            " ELSE round(((sb / (t.nn::DOUBLE * t.nn::DOUBLE))"
            " / (t.k - 1)::DOUBLE) / (sw / (t.nn - t.k)::DOUBLE), 6)"
            " END AS f_stat,"
            " CASE WHEN sb / (t.nn::DOUBLE*t.nn::DOUBLE) + sw <= 0"
            " THEN NULL ELSE round((sb/(t.nn::DOUBLE*t.nn::DOUBLE))"
            " / (sb/(t.nn::DOUBLE*t.nn::DOUBLE) + sw), 6) END AS eta2"
            " FROM u CROSS JOIN t"
        ),
        "q_brown_forsythe": (
            "WITH med AS (SELECT source,"
            " CAST(round(2*quantile_cont(n_chars, 0.5)) AS BIGINT) AS m2"
            " FROM documents GROUP BY 1),"
            " w AS (SELECT d.source AS g,"
            " abs(2*d.n_chars - m.m2)::HUGEINT AS w"
            " FROM documents d JOIN med m USING (source)),"
            " g AS (SELECT g, count(*)::HUGEINT AS n, sum(w) AS s,"
            " sum(w*w) AS q FROM w GROUP BY 1),"
            " t AS (SELECT sum(n) AS nn, sum(s) AS ss,"
            " count(*)::HUGEINT AS k FROM g),"
            " p AS (SELECT ((t.nn*g.s - g.n*t.ss)"
            " * (t.nn*g.s - g.n*t.ss))::DOUBLE / g.n::DOUBLE AS bt,"
            " (g.n*g.q - g.s*g.s)::DOUBLE / g.n::DOUBLE AS wt"
            " FROM g CROSS JOIN t),"
            " u AS (SELECT sum(bt) AS sb, sum(wt) AS sw FROM p)"
            " SELECT t.nn::BIGINT AS n, t.k::BIGINT AS k,"
            " CASE WHEN t.k < 2 OR t.nn <= t.k OR sw <= 0 THEN NULL"
            " ELSE round(((sb / (t.nn::DOUBLE * t.nn::DOUBLE))"
            " / (t.k - 1)::DOUBLE) / (sw / (t.nn - t.k)::DOUBLE), 6)"
            " END AS f_bf FROM u CROSS JOIN t"
        ),
        "q_interarrival": (
            "WITH o AS (SELECT event_type, epoch_us(ts) AS t,"
            " lag(epoch_us(ts)) OVER (PARTITION BY event_type"
            " ORDER BY ts, event_id) AS p FROM events),"
            " g AS (SELECT event_type, (t - p) // 1000000 AS d"
            " FROM o WHERE p IS NOT NULL),"
            " a AS (SELECT event_type, count(*)::BIGINT AS n,"
            " sum(d)::BIGINT AS s, sum(d::HUGEINT * d::HUGEINT) AS q"
            " FROM g GROUP BY 1)"
            " SELECT event_type, n AS n_gaps,"
            " round(s::DOUBLE / n::DOUBLE, 6) AS mean_gap_s,"
            " CASE WHEN n < 2 OR s = 0 THEN NULL ELSE round("
            " CASE WHEN (q::DOUBLE - s::DOUBLE*s::DOUBLE/n::DOUBLE)"
            " / (n-1)::DOUBLE <= 0 THEN 0.0"
            " ELSE sqrt((q::DOUBLE - s::DOUBLE*s::DOUBLE/n::DOUBLE)"
            " / (n-1)::DOUBLE) / (s::DOUBLE / n::DOUBLE) END, 6)"
            " END AS cv_gap,"
            " CASE WHEN s = 0 THEN NULL"
            " ELSE round(3600.0 / (s::DOUBLE / n::DOUBLE), 6)"
            " END AS per_hour FROM a"
        ),
        "q_repeat_purchase": (
            "WITH t AS (SELECT DISTINCT o.o_custkey, l.l_partkey,"
            " l.l_orderkey FROM lineitem l"
            " JOIN orders o ON o.o_orderkey = l.l_orderkey),"
            " p AS (SELECT o_custkey, l_partkey,"
            " count(*)::BIGINT AS n FROM t GROUP BY 1, 2)"
            " SELECT count(*)::BIGINT AS n_pairs,"
            " sum(CASE WHEN n >= 2 THEN 1 ELSE 0 END)::BIGINT"
            " AS n_repeat,"
            " round(CAST(sum(CASE WHEN n >= 2 THEN 1 ELSE 0 END)"
            " AS DOUBLE) / CAST(count(*) AS DOUBLE), 6) AS repeat_rate,"
            " max(n)::BIGINT AS max_orders FROM p"
        ),
        "q_segment_migration": (
            # midpoint-day split; per-half tiles via the RANGE-window
            # max-rank rule over ACTIVE customers; inactive -> tile 0
            "WITH d AS (SELECT o_custkey,"
            " epoch_us(o_orderdate) // 86400000000 AS day,"
            " CAST(round(o_totalprice * 100) AS BIGINT) AS cents"
            " FROM orders),"
            " mm AS (SELECT (min(day) + max(day) + 1) // 2 AS mid"
            " FROM d),"
            " u AS (SELECT o_custkey,"
            " sum(CASE WHEN day < (SELECT mid FROM mm) THEN cents"
            " ELSE 0 END)::BIGINT AS c1,"
            " sum(CASE WHEN day >= (SELECT mid FROM mm) THEN cents"
            " ELSE 0 END)::BIGINT AS c2 FROM d GROUP BY 1),"
            " a1 AS (SELECT o_custkey, c1 FROM u WHERE c1 > 0),"
            " n1 AS (SELECT count(*)::BIGINT AS n FROM a1),"
            " t1 AS (SELECT o_custkey, (count(*) OVER (ORDER BY c1"
            " RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) * 4"
            " + (SELECT n FROM n1) - 1) // (SELECT n FROM n1) AS tile"
            " FROM a1),"
            " a2 AS (SELECT o_custkey, c2 FROM u WHERE c2 > 0),"
            " n2 AS (SELECT count(*)::BIGINT AS n FROM a2),"
            " t2 AS (SELECT o_custkey, (count(*) OVER (ORDER BY c2"
            " RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) * 4"
            " + (SELECT n FROM n2) - 1) // (SELECT n FROM n2) AS tile"
            " FROM a2)"
            " SELECT coalesce(t1.tile, 0)::BIGINT AS tile_h1,"
            " coalesce(t2.tile, 0)::BIGINT AS tile_h2,"
            " count(*)::BIGINT AS n_customers FROM u"
            " LEFT JOIN t1 ON t1.o_custkey = u.o_custkey"
            " LEFT JOIN t2 ON t2.o_custkey = u.o_custkey"
            " GROUP BY 1, 2"
        ),
        "q_p_chart": (
            "WITH g AS (SELECT date_trunc('day', ts) AS day,"
            " count(*)::BIGINT AS tot,"
            " sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END)"
            " ::BIGINT AS err FROM events GROUP BY 1),"
            " t AS (SELECT CAST(sum(err) AS DOUBLE)"
            " / CAST(sum(tot) AS DOUBLE) AS pbar FROM g)"
            " SELECT strftime(day, '%Y-%m-%d') AS day, tot AS n,"
            " err AS n_flag,"
            " round(CAST(err AS DOUBLE) / CAST(tot AS DOUBLE), 6) AS p,"
            " round(least(t.pbar + 3.0 * sqrt(t.pbar * (1.0 - t.pbar)"
            " / CAST(tot AS DOUBLE)), 1.0), 6) AS ucl,"
            " round(greatest(t.pbar - 3.0 * sqrt(t.pbar"
            " * (1.0 - t.pbar) / CAST(tot AS DOUBLE)), 0.0), 6) AS lcl,"
            " CAST(CAST(err AS DOUBLE) / CAST(tot AS DOUBLE)"
            " > least(t.pbar + 3.0 * sqrt(t.pbar * (1.0 - t.pbar)"
            " / CAST(tot AS DOUBLE)), 1.0)"
            " OR CAST(err AS DOUBLE) / CAST(tot AS DOUBLE)"
            " < greatest(t.pbar - 3.0 * sqrt(t.pbar * (1.0 - t.pbar)"
            " / CAST(tot AS DOUBLE)), 0.0) AS BIGINT) AS breach"
            " FROM g CROSS JOIN t"
        ),
        "q_head_prefixes": (
            "WITH p AS (SELECT source, substr(text, 1, 16) AS pfx"
            " FROM documents),"
            " c AS (SELECT source, pfx, count(*)::BIGINT AS n FROM p"
            " GROUP BY 1, 2),"
            " t AS (SELECT source, sum(n)::BIGINT AS tot FROM c"
            " GROUP BY 1),"
            " r AS (SELECT source, pfx, n, row_number() OVER"
            " (PARTITION BY source ORDER BY n DESC, pfx) AS rk FROM c)"
            " SELECT r.source, r.rk AS rank, r.pfx AS prefix,"
            " r.n AS n_docs, round(CAST(r.n AS DOUBLE)"
            " / CAST(t.tot AS DOUBLE), 6) AS share FROM r"
            " JOIN t ON t.source = r.source WHERE r.rk <= 5"
        ),
        "q_gumbel_daily": (
            # shared grid CTE; constants written identically on both
            # sides (sqrt(6.0), pi(), the Euler-Mascheroni literal)
            "WITH c AS (SELECT event_type,"
            " date_trunc('day', ts) AS day, count(*)::BIGINT AS n"
            " FROM events GROUP BY 1, 2),"
            " b AS (SELECT min(day) AS lo, max(day) AS hi FROM c),"
            " days AS (SELECT unnest(generate_series((SELECT lo FROM b),"
            " (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),"
            " tt AS (SELECT DISTINCT event_type FROM events),"
            " grid AS (SELECT tt.event_type, days.day,"
            " coalesce(c.n, 0)::BIGINT AS n FROM days CROSS JOIN tt"
            " LEFT JOIN c ON c.day = days.day"
            " AND c.event_type = tt.event_type),"
            " st AS (SELECT event_type, count(*)::BIGINT AS m,"
            " sum(n)::BIGINT AS s, sum(n * n)::BIGINT AS q FROM grid"
            " GROUP BY 1),"
            " e AS (SELECT event_type, m,"
            " CAST(s AS DOUBLE) / CAST(m AS DOUBLE) AS mean,"
            " sqrt(greatest((CAST(q AS DOUBLE) - CAST(s AS DOUBLE)"
            " * CAST(s AS DOUBLE) / CAST(m AS DOUBLE))"
            " / (CAST(m AS DOUBLE) - 1.0), 0.0))"
            " * sqrt(6.0) / pi() AS beta FROM st WHERE m >= 2)"
            " SELECT event_type, m AS n_days,"
            " round(mean - 0.5772156649015329 * beta, 6) AS mu,"
            " round(beta, 6) AS beta,"
            " round((mean - 0.5772156649015329 * beta)"
            " - beta * ln(-ln(1.0 - 1.0 / 30.0)), 6) AS ret_level"
            " FROM e"
        ),
        "q_dispersion_daily": (
            "WITH c AS (SELECT event_type,"
            " date_trunc('day', ts) AS day, count(*)::BIGINT AS n"
            " FROM events GROUP BY 1, 2),"
            " b AS (SELECT min(day) AS lo, max(day) AS hi FROM c),"
            " days AS (SELECT unnest(generate_series((SELECT lo FROM b),"
            " (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),"
            " tt AS (SELECT DISTINCT event_type FROM events),"
            " grid AS (SELECT tt.event_type, days.day,"
            " coalesce(c.n, 0)::BIGINT AS n FROM days CROSS JOIN tt"
            " LEFT JOIN c ON c.day = days.day"
            " AND c.event_type = tt.event_type),"
            " st AS (SELECT event_type, count(*)::BIGINT AS m,"
            " sum(n)::BIGINT AS s, sum(n * n)::BIGINT AS q FROM grid"
            " GROUP BY 1),"
            " e AS (SELECT event_type, m, s,"
            " CAST(s AS DOUBLE) / CAST(m AS DOUBLE) AS mean,"
            " (CAST(q AS DOUBLE) - CAST(s AS DOUBLE)"
            " * CAST(s AS DOUBLE) / CAST(m AS DOUBLE))"
            " / (CAST(m AS DOUBLE) - 1.0) AS var FROM st)"
            " SELECT event_type, m AS n_days,"
            " CASE WHEN m >= 2 AND s > 0 THEN round(mean, 6) END"
            " AS mean_n,"
            " CASE WHEN m >= 2 AND s > 0 THEN round(var / mean, 6) END"
            " AS vmr,"
            " CASE WHEN m >= 2 AND s > 0 THEN"
            " round((CAST(m AS DOUBLE) - 1.0) * var / mean, 6) END"
            " AS dispersion FROM e"
        ),
        "q_runs_test": (
            # median = quantile_cont weighted form on the filled grid;
            # equal-to-median days excluded (standard convention)
            "WITH c AS (SELECT event_type,"
            " date_trunc('day', ts) AS day, count(*)::BIGINT AS n"
            " FROM events GROUP BY 1, 2),"
            " b AS (SELECT min(day) AS lo, max(day) AS hi FROM c),"
            " days AS (SELECT unnest(generate_series((SELECT lo FROM b),"
            " (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),"
            " tt AS (SELECT DISTINCT event_type FROM events),"
            " grid AS (SELECT tt.event_type, days.day,"
            " coalesce(c.n, 0)::BIGINT AS n FROM days CROSS JOIN tt"
            " LEFT JOIN c ON c.day = days.day"
            " AND c.event_type = tt.event_type),"
            " md AS (SELECT event_type, quantile_cont(n, 0.5) AS med"
            " FROM grid GROUP BY 1),"
            " f AS (SELECT grid.event_type, grid.day,"
            " CAST(grid.n AS DOUBLE) > md.med AS sgn FROM grid"
            " JOIN md ON md.event_type = grid.event_type"
            " WHERE CAST(grid.n AS DOUBLE) <> md.med),"
            " rr AS (SELECT event_type, sgn, CASE WHEN lag(sgn) OVER"
            " (PARTITION BY event_type ORDER BY day) IS DISTINCT"
            " FROM sgn THEN 1 ELSE 0 END AS chg FROM f),"
            " st AS (SELECT tt.event_type,"
            " coalesce(sum(CASE WHEN rr.sgn THEN 1 ELSE 0 END), 0)"
            " ::BIGINT AS n1,"
            " coalesce(sum(CASE WHEN rr.sgn THEN 0 ELSE 1 END), 0)"
            " ::BIGINT AS n2,"
            " coalesce(sum(rr.chg), 0)::BIGINT AS runs0,"
            " count(rr.sgn)::BIGINT AS cnt FROM tt"
            " LEFT JOIN rr ON rr.event_type = tt.event_type GROUP BY 1),"
            " z AS (SELECT event_type, n1, n2,"
            " CASE WHEN cnt > 0 THEN runs0 ELSE 0 END AS n_runs,"
            " CAST(n1 AS DOUBLE) AS n1f, CAST(n2 AS DOUBLE) AS n2f"
            " FROM st)"
            " SELECT event_type, n1 AS n_above, n2 AS n_below,"
            " n_runs,"
            " CASE WHEN n1 > 0 AND n2 > 0 AND"
            " 2.0 * n1f * n2f * (2.0 * n1f * n2f - (n1f + n2f))"
            " / ((n1f + n2f) * (n1f + n2f) * ((n1f + n2f) - 1.0)) > 0"
            " THEN round((CAST(n_runs AS DOUBLE)"
            " - (2.0 * n1f * n2f / (n1f + n2f) + 1.0))"
            " / sqrt(2.0 * n1f * n2f * (2.0 * n1f * n2f - (n1f + n2f))"
            " / ((n1f + n2f) * (n1f + n2f) * ((n1f + n2f) - 1.0))), 6)"
            " END AS z FROM z"
        ),
        "q_vocab_coverage": (
            # count-of-counts window rewrite; the crossing level's
            # partial take mirrors the engine's float chain
            "WITH tok AS (SELECT unnest(regexp_extract_all(text,"
            " '[a-z0-9]+')) AS token FROM documents),"
            " tc AS (SELECT token, count(*)::BIGINT AS c FROM tok"
            " GROUP BY 1),"
            " h AS (SELECT c, count(*)::BIGINT AS nt FROM tc"
            " GROUP BY 1),"
            " t AS (SELECT sum(c * nt)::BIGINT AS total,"
            " sum(nt)::BIGINT AS vocab FROM h),"
            " o AS (SELECT c, nt, sum(c * nt) OVER w AS cum_occ,"
            " sum(nt) OVER w AS cum_tok FROM h WINDOW w AS"
            " (ORDER BY c DESC ROWS UNBOUNDED PRECEDING)),"
            " k50 AS (SELECT CAST(cum_tok - nt AS BIGINT)"
            " + CAST(ceil((0.5 * CAST(t.total AS DOUBLE)"
            " - CAST(cum_occ - c * nt AS DOUBLE))"
            " / CAST(c AS DOUBLE)) AS BIGINT) AS k FROM o CROSS JOIN t"
            " WHERE CAST(cum_occ AS DOUBLE)"
            " >= 0.5 * CAST(t.total AS DOUBLE)"
            " ORDER BY c DESC LIMIT 1),"
            " k90 AS (SELECT CAST(cum_tok - nt AS BIGINT)"
            " + CAST(ceil((0.9 * CAST(t.total AS DOUBLE)"
            " - CAST(cum_occ - c * nt AS DOUBLE))"
            " / CAST(c AS DOUBLE)) AS BIGINT) AS k FROM o CROSS JOIN t"
            " WHERE CAST(cum_occ AS DOUBLE)"
            " >= 0.9 * CAST(t.total AS DOUBLE)"
            " ORDER BY c DESC LIMIT 1),"
            " k99 AS (SELECT CAST(cum_tok - nt AS BIGINT)"
            " + CAST(ceil((0.99 * CAST(t.total AS DOUBLE)"
            " - CAST(cum_occ - c * nt AS DOUBLE))"
            " / CAST(c AS DOUBLE)) AS BIGINT) AS k FROM o CROSS JOIN t"
            " WHERE CAST(cum_occ AS DOUBLE)"
            " >= 0.99 * CAST(t.total AS DOUBLE)"
            " ORDER BY c DESC LIMIT 1)"
            " SELECT t.total AS total_occurrences, t.vocab"
            " AS vocab_size, k50.k AS k50, k90.k AS k90, k99.k AS k99"
            " FROM t CROSS JOIN k50 CROSS JOIN k90 CROSS JOIN k99"
        ),
        "q_twap": (
            "WITH o AS (SELECT user_id, value, epoch_us(ts) AS us,"
            " lead(epoch_us(ts)) OVER (PARTITION BY user_id"
            " ORDER BY ts, event_id) AS nxt FROM events),"
            " w AS (SELECT user_id, value,"
            " CAST(nxt - us AS DOUBLE) AS wt FROM o"
            " WHERE nxt IS NOT NULL)"
            " SELECT user_id, count(*)::BIGINT AS n,"
            " CASE WHEN sum(wt) > 0 THEN"
            " round(sum(value * wt) / sum(wt), 6) END AS twap"
            " FROM w GROUP BY 1"
        ),
        "q_active_days": (
            "WITH d AS (SELECT DISTINCT user_id,"
            " epoch_us(ts) // 86400000000 AS day FROM events),"
            " u AS (SELECT user_id, count(*)::BIGINT AS active_days"
            " FROM d GROUP BY 1)"
            " SELECT active_days, count(*)::BIGINT AS n_users FROM u"
            " GROUP BY 1"
        ),
        "q_funnel_24h": (
            "WITH e AS (SELECT user_id, event_type, epoch_us(ts) AS us"
            " FROM events),"
            " s1 AS (SELECT user_id, min(us) AS t1 FROM e"
            " WHERE event_type = 'view' GROUP BY 1),"
            " s2 AS (SELECT e.user_id, min(us) AS t2 FROM e"
            " JOIN s1 ON s1.user_id = e.user_id"
            " WHERE e.event_type = 'click' AND e.us > s1.t1"
            " AND e.us <= s1.t1 + 86400000000 GROUP BY 1),"
            " s3 AS (SELECT e.user_id, min(us) AS t3 FROM e"
            " JOIN s2 ON s2.user_id = e.user_id"
            " WHERE e.event_type = 'purchase' AND e.us > s2.t2"
            " AND e.us <= s2.t2 + 86400000000 GROUP BY 1),"
            " n AS (SELECT (SELECT count(*) FROM s1)::BIGINT AS n1,"
            " (SELECT count(*) FROM s2)::BIGINT AS n2,"
            " (SELECT count(*) FROM s3)::BIGINT AS n3)"
            " SELECT n1 AS n_stage1, n2 AS n_stage2, n3 AS n_stage3,"
            " CASE WHEN n1 > 0 THEN round(CAST(n2 AS DOUBLE)"
            " / CAST(n1 AS DOUBLE), 6) END AS rate12,"
            " CASE WHEN n2 > 0 THEN round(CAST(n3 AS DOUBLE)"
            " / CAST(n2 AS DOUBLE), 6) END AS rate23 FROM n"
        ),
        "q_scd2": (
            "WITH o AS (SELECT user_id, event_id, event_type,"
            " epoch_us(ts) AS us, row_number() OVER"
            " (PARTITION BY user_id ORDER BY ts, event_id) AS rn"
            " FROM events),"
            " m AS (SELECT *, CASE WHEN lag(event_type) OVER"
            " (PARTITION BY user_id ORDER BY rn)"
            " IS DISTINCT FROM event_type THEN 1 ELSE 0 END AS brk"
            " FROM o),"
            " g AS (SELECT *, sum(brk) OVER (PARTITION BY user_id"
            " ORDER BY rn ROWS UNBOUNDED PRECEDING) AS run FROM m),"
            " r AS (SELECT user_id, event_type, run,"
            " min(us)::BIGINT AS valid_from_us,"
            " count(*)::BIGINT AS n_events FROM g GROUP BY 1, 2, 3)"
            " SELECT user_id, event_type, valid_from_us,"
            " coalesce(lead(valid_from_us) OVER (PARTITION BY user_id"
            " ORDER BY valid_from_us), -1) AS valid_to_us, n_events FROM r"
        ),
        "q_l_diversity": (
            "WITH f AS (SELECT lang, n_chars // 500 AS bucket, source"
            " FROM documents)"
            " SELECT lang, bucket, count(*)::BIGINT AS n_rows,"
            " count(DISTINCT source)::BIGINT AS l_distinct FROM f"
            " GROUP BY 1, 2"
        ),
        "q_value_drift": (
            # global-range equal-width bins; Laplace-smoothed PSI,
            # first half vs second half at the midpoint day
            "WITH d AS (SELECT event_type, value,"
            " epoch_us(ts) // 86400000000 AS day FROM events),"
            " gm AS (SELECT min(value) AS mn, max(value) AS mx,"
            " min(day) AS dmin, max(day) AS dmax FROM d),"
            " binned AS (SELECT event_type,"
            " CASE WHEN gm.mx = gm.mn THEN 0 ELSE"
            " least(CAST(floor((value - gm.mn) / (gm.mx - gm.mn)"
            " * 10) AS BIGINT), 9) END AS b,"
            " CASE WHEN day >= (gm.dmin + gm.dmax + 1) // 2 THEN 1"
            " ELSE 0 END AS half FROM d CROSS JOIN gm),"
            " c AS (SELECT event_type, half, b, count(*)::BIGINT AS n"
            " FROM binned GROUP BY 1, 2, 3),"
            " t AS (SELECT DISTINCT event_type FROM d),"
            " bins AS (SELECT unnest(range(0, 10)) AS b),"
            " piv AS (SELECT t.event_type, bins.b,"
            " coalesce(c0.n, 0)::BIGINT AS n1,"
            " coalesce(c1.n, 0)::BIGINT AS n2"
            " FROM t CROSS JOIN bins"
            " LEFT JOIN c c0 ON c0.event_type = t.event_type"
            " AND c0.b = bins.b AND c0.half = 0"
            " LEFT JOIN c c1 ON c1.event_type = t.event_type"
            " AND c1.b = bins.b AND c1.half = 1),"
            " tt AS (SELECT event_type, sum(n1)::BIGINT AS m1,"
            " sum(n2)::BIGINT AS m2 FROM piv GROUP BY 1),"
            " terms AS (SELECT piv.event_type,"
            " ((CAST(n1 AS DOUBLE) + 1.0)"
            " / (CAST(m1 AS DOUBLE) + 10.0)"
            " - (CAST(n2 AS DOUBLE) + 1.0)"
            " / (CAST(m2 AS DOUBLE) + 10.0))"
            " * ln(((CAST(n1 AS DOUBLE) + 1.0)"
            " / (CAST(m1 AS DOUBLE) + 10.0))"
            " / ((CAST(n2 AS DOUBLE) + 1.0)"
            " / (CAST(m2 AS DOUBLE) + 10.0))) AS term"
            " FROM piv JOIN tt ON tt.event_type = piv.event_type)"
            " SELECT tt.event_type, tt.m1 AS n_first,"
            " tt.m2 AS n_second, round(sum(term), 6) AS psi"
            " FROM terms JOIN tt ON tt.event_type = terms.event_type"
            " GROUP BY 1, 2, 3"
        ),
        "q_zero_runs": (
            # gaps-and-islands rewrite over the filled grid
            "WITH c AS (SELECT event_type,"
            " date_trunc('day', ts) AS day, count(*)::BIGINT AS n"
            " FROM events GROUP BY 1, 2),"
            " b AS (SELECT min(day) AS lo, max(day) AS hi FROM c),"
            " days AS (SELECT unnest(generate_series((SELECT lo FROM b),"
            " (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),"
            " tt AS (SELECT DISTINCT event_type FROM events),"
            " grid AS (SELECT tt.event_type, days.day,"
            " coalesce(c.n, 0)::BIGINT AS n FROM days CROSS JOIN tt"
            " LEFT JOIN c ON c.day = days.day"
            " AND c.event_type = tt.event_type),"
            " z AS (SELECT event_type, day,"
            " CASE WHEN n = 0 THEN 1 ELSE 0 END AS isz,"
            " row_number() OVER (PARTITION BY event_type"
            " ORDER BY day) AS rn FROM grid),"
            " g2 AS (SELECT *, rn - row_number() OVER"
            " (PARTITION BY event_type, isz ORDER BY day) AS grp"
            " FROM z)"
            " SELECT event_type,"
            " strftime(min(day), '%Y-%m-%d') AS start_day,"
            " strftime(max(day), '%Y-%m-%d') AS end_day,"
            " count(*)::BIGINT AS run_len FROM g2 WHERE isz = 1"
            " GROUP BY event_type, grp"
        ),
        "q_first_touch": (
            "WITH r AS (SELECT user_id, event_type, row_number() OVER"
            " (PARTITION BY user_id ORDER BY ts, event_id) AS rn"
            " FROM events),"
            " f AS (SELECT user_id, event_type AS channel FROM r"
            " WHERE rn = 1),"
            " p AS (SELECT user_id, sum(CASE WHEN"
            " event_type = 'purchase' THEN 1 ELSE 0 END)::BIGINT AS np"
            " FROM events GROUP BY 1)"
            " SELECT f.channel, count(*)::BIGINT AS n_users,"
            " sum(CASE WHEN p.np > 0 THEN 1 ELSE 0 END)::BIGINT"
            " AS n_converted,"
            " round(CAST(sum(CASE WHEN p.np > 0 THEN 1 ELSE 0 END)"
            " AS DOUBLE) / CAST(count(*) AS DOUBLE), 6) AS conv_rate"
            " FROM f JOIN p ON p.user_id = f.user_id GROUP BY 1"
        ),
        "q_order_sizes": (
            "SELECT cnt AS n_lines, count(*)::BIGINT AS n_orders FROM"
            " (SELECT l_orderkey, count(*)::BIGINT AS cnt"
            " FROM lineitem GROUP BY 1) GROUP BY 1"
        ),
        "q_skyline": (
            "SELECT a.p_partkey, a.p_size, a.p_retailprice FROM part a"
            " WHERE NOT EXISTS (SELECT 1 FROM part b"
            " WHERE b.p_retailprice <= a.p_retailprice"
            " AND b.p_size >= a.p_size"
            " AND (b.p_retailprice < a.p_retailprice"
            " OR b.p_size > a.p_size))"
        ),
        "q_value_disc_quantiles": (
            # zipped unnests map each q to its quantile_disc element
            "WITH a AS (SELECT event_type, count(*)::BIGINT AS n,"
            " quantile_disc(value, [0.25, 0.5, 0.75, 0.9]) AS vs"
            " FROM events GROUP BY 1)"
            " SELECT event_type, n,"
            " unnest([0.25, 0.5, 0.75, 0.9]) AS q,"
            " unnest(vs) AS value FROM a"
        ),
        "q_heaps_law": (
            # the q_vocab_growth CTE + regr_* over (ln N, ln V)
            "WITH r AS (SELECT doc_id, text, row_number() OVER"
            " (ORDER BY md5(CAST(doc_id AS VARCHAR) || ':7'), doc_id) - 1"
            " AS pos FROM documents),"
            " nn AS (SELECT count(*)::BIGINT AS n FROM documents),"
            " tok AS (SELECT pos, unnest(regexp_extract_all(text,"
            " '[a-z0-9]+')) AS token FROM r),"
            " fp AS (SELECT token, min(pos) AS fp FROM tok"
            " GROUP BY token),"
            " d AS (SELECT unnest(range(1, 11)) AS decile),"
            " c2 AS (SELECT CAST(ceil((SELECT n FROM nn) * decile"
            " / 10.0) AS BIGINT) AS nd,"
            " (SELECT count(*) FROM fp WHERE fp.fp <"
            " CAST(ceil((SELECT n FROM nn) * decile / 10.0) AS BIGINT)"
            " )::BIGINT AS vocab FROM d),"
            " pts AS (SELECT ln(CAST(nd AS DOUBLE)) AS x,"
            " ln(CAST(vocab AS DOUBLE)) AS y FROM c2"
            " WHERE vocab > 0 AND nd > 0)"
            " SELECT count(*)::BIGINT AS n_points,"
            " round(regr_slope(y, x), 6) AS beta,"
            " round(regr_intercept(y, x), 6) AS ln_k,"
            " round(regr_r2(y, x), 6) AS r2 FROM pts"
        ),
        "q_srm": (
            "WITH h AS (SELECT ('0x' ||"
            " substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT % 2"
            " AS arm FROM documents),"
            " g AS (SELECT arm, count(*)::BIGINT AS c FROM h"
            " GROUP BY 1),"
            " arms AS (SELECT unnest(range(0, 2)) AS arm),"
            " f AS (SELECT arms.arm, coalesce(g.c, 0)::BIGINT AS c"
            " FROM arms LEFT JOIN g ON g.arm = arms.arm),"
            " t AS (SELECT sum(c)::BIGINT AS n, min(c)::BIGINT AS mn,"
            " max(c)::BIGINT AS mx FROM f),"
            " chi AS (SELECT sum((CAST(c AS DOUBLE)"
            " - CAST(t.n AS DOUBLE) / 2.0) * (CAST(c AS DOUBLE)"
            " - CAST(t.n AS DOUBLE) / 2.0)"
            " / (CAST(t.n AS DOUBLE) / 2.0)) AS x FROM f CROSS JOIN t),"
            " z0 AS (SELECT"
            " (SELECT CAST(c AS DOUBLE) FROM f WHERE arm = 0)"
            " - (SELECT CAST(c AS DOUBLE) FROM f WHERE arm = 1) AS d)"
            " SELECT t.n AS n_rows, 2::BIGINT AS n_arms,"
            " t.mn AS min_arm, t.mx AS max_arm,"
            " round(chi.x, 6) AS chi2,"
            " round(z0.d / sqrt(CAST(t.n AS DOUBLE)), 6) AS z"
            " FROM t CROSS JOIN chi CROSS JOIN z0"
        ),
        "q_hill_tail": (
            # only the top-101 value multiset matters: ties at the
            # boundary give the same values whatever the id tie-break
            "WITH t AS (SELECT source, n_chars, row_number() OVER"
            " (PARTITION BY source ORDER BY n_chars DESC, doc_id)"
            " AS rk FROM documents),"
            " km AS (SELECT source, n_chars AS xk FROM t"
            " WHERE rk = 101),"
            " s AS (SELECT t.source,"
            " sum(ln(CAST(t.n_chars AS DOUBLE)"
            " / CAST(km.xk AS DOUBLE))) AS ls FROM t"
            " JOIN km ON km.source = t.source WHERE t.rk <= 100"
            " GROUP BY 1)"
            " SELECT s.source, 100::BIGINT AS k_used,"
            " CASE WHEN s.ls > 0 THEN round(100.0 / s.ls, 6) END"
            " AS alpha FROM s"
        ),
        "q_wilson_ci": (
            # z2 written as 1.96 * 1.96 (NOT 3.8416): the engine
            # squares at runtime and the two doubles differ
            "WITH f AS (SELECT source,"
            " regexp_matches(text, '[0-9]') AS fl FROM documents),"
            " g AS (SELECT source,"
            " sum(CASE WHEN fl THEN 1 ELSE 0 END)::BIGINT AS a,"
            " count(*)::BIGINT AS n FROM f GROUP BY 1),"
            " e AS (SELECT source, n, a,"
            " CAST(a AS DOUBLE) / CAST(n AS DOUBLE) AS p,"
            " CAST(n AS DOUBLE) AS nf FROM g),"
            " w AS (SELECT source, n, a, p, nf,"
            " 1.0 + 1.96 * 1.96 / nf AS den,"
            " (p + 1.96 * 1.96 / (2.0 * nf))"
            " / (1.0 + 1.96 * 1.96 / nf) AS ctr,"
            " 1.96 * sqrt(p * (1.0 - p) / nf"
            " + 1.96 * 1.96 / (4.0 * nf * nf))"
            " / (1.0 + 1.96 * 1.96 / nf) AS hw FROM e)"
            " SELECT source, n, a AS n_flag, round(p, 6) AS p_hat,"
            " round(ctr - hw, 6) AS ci_lo, round(ctr + hw, 6) AS ci_hi"
            " FROM w"
        ),
        "q_cond_entropy": (
            # bigrams via 1-based list indexing over a lateral range;
            # H(Y|X) from exact integer counts, log2 sums at 6dp
            "WITH tk AS (SELECT regexp_extract_all(text, '[a-z0-9]+')"
            " AS t FROM documents),"
            " bg AS (SELECT t[i] AS a, t[i + 1] AS b FROM tk,"
            " LATERAL (SELECT unnest(range(1, len(t))) AS i) r),"
            " c AS (SELECT a, b, count(*)::BIGINT AS n FROM bg"
            " GROUP BY 1, 2),"
            " mxx AS (SELECT a, sum(n)::BIGINT AS cx FROM c GROUP BY 1),"
            " tot AS (SELECT sum(n)::BIGINT AS nn,"
            " count(*)::BIGINT AS nd FROM c),"
            " s1 AS (SELECT sum(CAST(n AS DOUBLE)"
            " * log2(CAST(n AS DOUBLE))) AS sxy FROM c),"
            " s2 AS (SELECT sum(CAST(cx AS DOUBLE)"
            " * log2(CAST(cx AS DOUBLE))) AS sx FROM mxx)"
            " SELECT tot.nn AS n_bigrams, tot.nd AS n_distinct,"
            " round(log2(CAST(tot.nn AS DOUBLE))"
            " - s1.sxy / CAST(tot.nn AS DOUBLE), 6) AS h_bigram,"
            " round(log2(CAST(tot.nn AS DOUBLE))"
            " - s2.sx / CAST(tot.nn AS DOUBLE), 6) AS h_first,"
            " round((log2(CAST(tot.nn AS DOUBLE))"
            " - s1.sxy / CAST(tot.nn AS DOUBLE))"
            " - (log2(CAST(tot.nn AS DOUBLE))"
            " - s2.sx / CAST(tot.nn AS DOUBLE)), 6) AS h_cond"
            " FROM tot CROSS JOIN s1 CROSS JOIN s2"
        ),
        "q_dup_degree": (
            # degree per doc over the exact Jaccard >= 0.8 pair set,
            # zero-degree docs included via the LEFT JOIN
            "WITH tok AS (SELECT DISTINCT source, doc_id, tk FROM"
            " (SELECT source, doc_id,"
            " unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tk"
            " FROM documents)),"
            " sz AS (SELECT doc_id, count(*)::BIGINT AS c FROM tok"
            " GROUP BY 1),"
            " q AS (SELECT a.doc_id AS da, b.doc_id AS db,"
            " count(*)::BIGINT AS i FROM tok a JOIN tok b"
            " ON a.source = b.source AND a.tk = b.tk"
            " AND a.doc_id < b.doc_id GROUP BY 1, 2),"
            " keep AS (SELECT da, db FROM q"
            " JOIN sz sa ON sa.doc_id = q.da"
            " JOIN sz sb ON sb.doc_id = q.db"
            " WHERE CAST(q.i AS DOUBLE)"
            " / CAST(sa.c + sb.c - q.i AS DOUBLE) >= 0.8),"
            " p AS (SELECT da AS d FROM keep"
            " UNION ALL SELECT db FROM keep),"
            " deg AS (SELECT d, count(*)::BIGINT AS degree FROM p"
            " GROUP BY 1),"
            " f AS (SELECT documents.doc_id,"
            " coalesce(deg.degree, 0)::BIGINT AS degree"
            " FROM documents LEFT JOIN deg ON deg.d = documents.doc_id)"
            " SELECT degree, count(*)::BIGINT AS n_docs FROM f"
            " GROUP BY 1"
        ),
        "q_rfm": (
            # tie-stable quintiles: max-rank via the RANGE window,
            # ceiling in INTEGER arithmetic — no float boundary
            "WITH d AS (SELECT user_id,"
            " epoch_us(ts) // 86400000000 AS day,"
            " CAST(round(value * 100) AS BIGINT) AS cents FROM events),"
            " mx AS (SELECT max(day) AS m FROM d),"
            " u AS (SELECT user_id, (SELECT m FROM mx) - max(day) AS r,"
            " count(*)::BIGINT AS f, sum(cents)::BIGINT AS mny"
            " FROM d GROUP BY 1),"
            " nn AS (SELECT count(*)::BIGINT AS c FROM u),"
            " t AS (SELECT user_id,"
            " (count(*) OVER (ORDER BY r RANGE BETWEEN UNBOUNDED"
            " PRECEDING AND CURRENT ROW) * 5 + (SELECT c FROM nn) - 1)"
            " // (SELECT c FROM nn) AS r_tile,"
            " (count(*) OVER (ORDER BY f RANGE BETWEEN UNBOUNDED"
            " PRECEDING AND CURRENT ROW) * 5 + (SELECT c FROM nn) - 1)"
            " // (SELECT c FROM nn) AS f_tile,"
            " (count(*) OVER (ORDER BY mny RANGE BETWEEN UNBOUNDED"
            " PRECEDING AND CURRENT ROW) * 5 + (SELECT c FROM nn) - 1)"
            " // (SELECT c FROM nn) AS m_tile FROM u)"
            " SELECT r_tile, f_tile, m_tile,"
            " count(*)::BIGINT AS n_users,"
            " round(CAST(count(*) AS DOUBLE)"
            " / CAST((SELECT c FROM nn) AS DOUBLE), 6) AS share"
            " FROM t GROUP BY 1, 2, 3"
        ),
        "q_xmr_chart": (
            "WITH c AS (SELECT event_type,"
            " date_trunc('day', ts) AS day, count(*)::BIGINT AS n"
            " FROM events GROUP BY 1, 2),"
            " b AS (SELECT min(day) AS lo, max(day) AS hi FROM c),"
            " days AS (SELECT unnest(generate_series((SELECT lo FROM b),"
            " (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),"
            " tt AS (SELECT DISTINCT event_type FROM events),"
            " grid AS (SELECT tt.event_type, days.day,"
            " coalesce(c.n, 0)::BIGINT AS n FROM days CROSS JOIN tt"
            " LEFT JOIN c ON c.day = days.day"
            " AND c.event_type = tt.event_type),"
            " d2 AS (SELECT event_type, day, n, abs(n - lag(n) OVER"
            " (PARTITION BY event_type ORDER BY day)) AS mr FROM grid),"
            " st AS (SELECT event_type, count(*)::BIGINT AS m,"
            " sum(n)::BIGINT AS s, sum(mr)::BIGINT AS mrs FROM d2"
            " GROUP BY 1),"
            " e AS (SELECT event_type, m,"
            " CAST(s AS DOUBLE) / CAST(m AS DOUBLE) AS center,"
            " CAST(mrs AS DOUBLE) / (CAST(m AS DOUBLE) - 1.0) AS amr"
            " FROM st)"
            " SELECT d2.event_type, strftime(d2.day, '%Y-%m-%d') AS day,"
            " d2.n,"
            " CASE WHEN m >= 2 THEN round(center, 6) END AS center,"
            " CASE WHEN m >= 2 THEN round(center + 2.66 * amr, 6) END"
            " AS ucl,"
            " CASE WHEN m >= 2 THEN round(center - 2.66 * amr, 6) END"
            " AS lcl,"
            " CASE WHEN m >= 2 THEN CAST(CAST(d2.n AS DOUBLE)"
            " > center + 2.66 * amr OR CAST(d2.n AS DOUBLE)"
            " < center - 2.66 * amr AS BIGINT) END AS breach"
            " FROM d2 JOIN e ON e.event_type = d2.event_type"
        ),
        "q_hour_dow": (
            "WITH h AS (SELECT (epoch_us(ts) // 86400000000 + 4) % 7"
            " AS dow, (epoch_us(ts) // 3600000000) % 24 AS hour"
            " FROM events),"
            " g AS (SELECT dow, hour, count(*)::BIGINT AS n FROM h"
            " GROUP BY 1, 2),"
            " t AS (SELECT sum(n)::BIGINT AS s FROM g)"
            " SELECT dow, hour, n, round(CAST(n AS DOUBLE)"
            " / CAST((SELECT s FROM t) AS DOUBLE), 6) AS share FROM g"
        ),
        "q_cohort_matrix": (
            "WITH w AS (SELECT DISTINCT user_id,"
            " epoch_us(ts) // 604800000000 AS wk FROM events),"
            " c AS (SELECT user_id, min(wk) AS cw FROM w GROUP BY 1),"
            " m AS (SELECT c.cw AS cohort_week, w.wk - c.cw"
            " AS offset_weeks, count(*)::BIGINT AS n_users FROM w"
            " JOIN c ON c.user_id = w.user_id GROUP BY 1, 2),"
            " s AS (SELECT cohort_week, n_users AS n0 FROM m"
            " WHERE offset_weeks = 0)"
            " SELECT m.cohort_week, m.offset_weeks, m.n_users,"
            " round(CAST(m.n_users AS DOUBLE)"
            " / CAST(s.n0 AS DOUBLE), 6) AS retention FROM m"
            " JOIN s ON s.cohort_week = m.cohort_week"
        ),
        "q_partition_balance": (
            # empty buckets count: the bucket range is generated and
            # left-joined; cv/imbalance mirror the engine expressions
            "WITH h AS (SELECT ('0x' ||"
            " substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT"
            " % 256 AS b FROM documents),"
            " g AS (SELECT b, count(*)::BIGINT AS c FROM h GROUP BY 1),"
            " bins AS (SELECT unnest(range(0, 256)) AS b),"
            " f AS (SELECT bins.b, coalesce(g.c, 0)::BIGINT AS c"
            " FROM bins LEFT JOIN g ON g.b = bins.b),"
            " agg AS (SELECT sum(c)::BIGINT AS s,"
            " sum(c * c)::BIGINT AS q, count(*)::BIGINT AS p,"
            " sum(CASE WHEN c > 0 THEN 1 ELSE 0 END)::BIGINT AS used,"
            " min(c)::BIGINT AS mn, max(c)::BIGINT AS mx FROM f)"
            " SELECT s AS n_rows, p AS n_parts, used AS n_used,"
            " mn AS min_n, mx AS max_n,"
            " round(CAST(s AS DOUBLE) / CAST(p AS DOUBLE), 6)"
            " AS mean_n,"
            " round(sqrt(greatest(CAST(q AS DOUBLE)"
            " / CAST(p AS DOUBLE) - (CAST(s AS DOUBLE)"
            " / CAST(p AS DOUBLE)) * (CAST(s AS DOUBLE)"
            " / CAST(p AS DOUBLE)), 0.0)) / (CAST(s AS DOUBLE)"
            " / CAST(p AS DOUBLE)), 6) AS cv,"
            " round(CAST(mx AS DOUBLE) / (CAST(s AS DOUBLE)"
            " / CAST(p AS DOUBLE)), 6) AS imbalance FROM agg"
        ),
        "q_crosstab_residuals": (
            # per-cell mirrored chain; E and the variance term reuse
            # the identical sub-expression so the guard fires alike
            "WITH c AS (SELECT source, lang, count(*)::BIGINT AS n"
            " FROM documents GROUP BY 1, 2),"
            " ra AS (SELECT source, sum(n)::BIGINT AS r FROM c"
            " GROUP BY 1),"
            " cb AS (SELECT lang, sum(n)::BIGINT AS s FROM c"
            " GROUP BY 1),"
            " t AS (SELECT sum(n)::BIGINT AS n FROM c),"
            " e AS (SELECT c.source, c.lang, c.n,"
            " CAST(ra.r AS DOUBLE) * CAST(cb.s AS DOUBLE)"
            " / CAST(t.n AS DOUBLE) AS ex,"
            " CAST(ra.r AS DOUBLE) * CAST(cb.s AS DOUBLE)"
            " / CAST(t.n AS DOUBLE)"
            " * (1.0 - CAST(ra.r AS DOUBLE) / CAST(t.n AS DOUBLE))"
            " * (1.0 - CAST(cb.s AS DOUBLE) / CAST(t.n AS DOUBLE))"
            " AS dsq FROM c JOIN ra ON ra.source = c.source"
            " JOIN cb ON cb.lang = c.lang CROSS JOIN t)"
            " SELECT source, lang, n, round(ex, 6) AS expected,"
            " CASE WHEN dsq > 0.0 THEN"
            " round((CAST(n AS DOUBLE) - ex) / sqrt(dsq), 6) END"
            " AS adj_residual FROM e"
        ),
        "q_odds_ratio": (
            "WITH f AS (SELECT lang, CASE WHEN"
            " regexp_matches(text, '[0-9]') THEN 1 ELSE 0 END AS hd"
            " FROM documents),"
            " g AS (SELECT lang, sum(hd)::BIGINT AS a,"
            " sum(1 - hd)::BIGINT AS b FROM f GROUP BY 1),"
            " t AS (SELECT sum(a)::BIGINT AS ta, sum(b)::BIGINT AS tb"
            " FROM g),"
            " e AS (SELECT lang, a, b, t.ta - a AS c, t.tb - b AS d"
            " FROM g CROSS JOIN t),"
            " v AS (SELECT lang, a, b, c, d,"
            " CASE WHEN a > 0 AND b > 0 AND c > 0 AND d > 0 THEN"
            " CAST(a AS DOUBLE) * CAST(d AS DOUBLE)"
            " / (CAST(b AS DOUBLE) * CAST(c AS DOUBLE)) END AS orr,"
            " CASE WHEN a > 0 AND b > 0 AND c > 0 AND d > 0 THEN"
            " sqrt(1.0 / CAST(a AS DOUBLE) + 1.0 / CAST(b AS DOUBLE)"
            " + 1.0 / CAST(c AS DOUBLE) + 1.0 / CAST(d AS DOUBLE)) END"
            " AS se FROM e)"
            " SELECT lang, a AS n_flag, b AS n_noflag,"
            " round(orr, 6) AS odds_ratio,"
            " round(exp(ln(orr) - 1.96 * se), 6) AS ci_lo,"
            " round(exp(ln(orr) + 1.96 * se), 6) AS ci_hi FROM v"
        ),
        "q_bollinger_daily": (
            # trailing 7-row window on the filled grid; integer window
            # sums, mirrored mean/sd chain, greatest() guard identical
            "WITH c AS (SELECT event_type,"
            " date_trunc('day', ts) AS day, count(*)::BIGINT AS n"
            " FROM events GROUP BY 1, 2),"
            " b AS (SELECT min(day) AS lo, max(day) AS hi FROM c),"
            " days AS (SELECT unnest(generate_series((SELECT lo FROM b),"
            " (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),"
            " t AS (SELECT DISTINCT event_type FROM events),"
            " grid AS (SELECT t.event_type, days.day,"
            " coalesce(c.n, 0)::BIGINT AS n FROM days CROSS JOIN t"
            " LEFT JOIN c ON c.day = days.day"
            " AND c.event_type = t.event_type),"
            " w AS (SELECT event_type, day, n,"
            " count(*) OVER win AS k, sum(n) OVER win AS sw,"
            " sum(n * n) OVER win AS qw FROM grid WINDOW win AS"
            " (PARTITION BY event_type ORDER BY day"
            "  ROWS BETWEEN 6 PRECEDING AND CURRENT ROW)),"
            " e AS (SELECT event_type, day, n, k,"
            " CAST(sw AS DOUBLE) / CAST(k AS DOUBLE) AS mean,"
            " sqrt(greatest((CAST(qw AS DOUBLE)"
            " - CAST(sw AS DOUBLE) * CAST(sw AS DOUBLE)"
            " / CAST(k AS DOUBLE)) / (CAST(k AS DOUBLE) - 1.0), 0.0))"
            " AS sd FROM w)"
            " SELECT event_type, strftime(day, '%Y-%m-%d') AS day, n,"
            " CASE WHEN k >= 2 THEN round(mean, 6) END AS mean_w,"
            " CASE WHEN k >= 2 THEN round(sd, 6) END AS sd_w,"
            " CASE WHEN k >= 2 THEN round(mean + 2.0 * sd, 6) END"
            " AS upper,"
            " CASE WHEN k >= 2 THEN round(mean - 2.0 * sd, 6) END"
            " AS lower,"
            " CASE WHEN k >= 2 THEN CAST(CAST(n AS DOUBLE)"
            " > mean + 2.0 * sd OR CAST(n AS DOUBLE)"
            " < mean - 2.0 * sd AS BIGINT) END AS breach FROM e"
        ),
        "q_kaplan_meier": (
            # product-limit estimator; d = n term CASE-guarded (DuckDB
            # ln(0) errors) and zeroed via the dead flag on both sides
            "WITH d0 AS (SELECT user_id,"
            " epoch_us(ts) // 86400000000 AS day, event_type"
            " FROM events),"
            " u AS (SELECT user_id, min(day) AS fd,"
            " min(CASE WHEN event_type = 'purchase' THEN day END) AS cd"
            " FROM d0 GROUP BY 1),"
            " mx AS (SELECT max(day) AS m FROM d0),"
            " obs AS (SELECT CASE WHEN cd IS NOT NULL THEN cd - fd"
            " ELSE (SELECT m FROM mx) - fd END AS t,"
            " CASE WHEN cd IS NOT NULL THEN 1 ELSE 0 END AS churn"
            " FROM u),"
            " lv AS (SELECT t, count(*)::BIGINT AS l,"
            " sum(churn)::BIGINT AS d FROM obs GROUP BY 1),"
            " r AS (SELECT t, d, CAST((SELECT count(*) FROM obs)"
            " - coalesce(sum(l) OVER (ORDER BY t ROWS BETWEEN"
            " UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)"
            " AS n_risk FROM lv),"
            " e AS (SELECT t, d, n_risk, CASE WHEN d < n_risk THEN"
            " ln(1.0 - CAST(d AS DOUBLE) / CAST(n_risk AS DOUBLE))"
            " ELSE 0.0 END AS term,"
            " CASE WHEN d = n_risk THEN 1 ELSE 0 END AS dead"
            " FROM r WHERE d > 0)"
            " SELECT t AS t_days, n_risk, d AS n_conv,"
            " CASE WHEN sum(dead) OVER w > 0 THEN 0.0"
            " ELSE round(exp(sum(term) OVER w), 6) END AS survival"
            " FROM e WINDOW w AS (ORDER BY t ROWS BETWEEN"
            " UNBOUNDED PRECEDING AND CURRENT ROW)"
        ),
        "q_diversity": (
            "WITH c AS (SELECT source, lang, count(*)::BIGINT AS n"
            " FROM documents GROUP BY 1, 2),"
            " g AS (SELECT source, sum(n)::BIGINT AS tot,"
            " count(*)::BIGINT AS n_cats,"
            " sum(n * (n - 1))::BIGINT AS num FROM c GROUP BY 1),"
            " sh AS (SELECT c.source,"
            " -sum((CAST(c.n AS DOUBLE) / CAST(g.tot AS DOUBLE))"
            " * log2(CAST(c.n AS DOUBLE) / CAST(g.tot AS DOUBLE)))"
            " AS h FROM c JOIN g ON g.source = c.source GROUP BY 1)"
            " SELECT g.source, g.tot AS n_rows, g.n_cats,"
            " round(sh.h, 6) AS shannon_bits,"
            " CASE WHEN g.tot >= 2 THEN round(1.0"
            " - CAST(g.num AS DOUBLE)"
            " / CAST(g.tot * (g.tot - 1) AS DOUBLE), 6) END AS simpson"
            " FROM g JOIN sh ON sh.source = g.source"
        ),
        "q_containment_pairs": (
            # directed containment over distinct token sets; both
            # directions of a pair may qualify independently
            "WITH tok AS (SELECT DISTINCT source, doc_id, tk FROM"
            " (SELECT source, doc_id,"
            " unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tk"
            " FROM documents)),"
            " sz AS (SELECT doc_id, count(*)::BIGINT AS c FROM tok"
            " GROUP BY 1),"
            " inter AS (SELECT a.source, a.doc_id AS da,"
            " b.doc_id AS db, count(*)::BIGINT AS i FROM tok a"
            " JOIN tok b ON a.source = b.source AND a.tk = b.tk"
            " AND a.doc_id <> b.doc_id GROUP BY 1, 2, 3)"
            " SELECT inter.source, inter.da AS doc_a,"
            " inter.db AS doc_b, inter.i AS n_inter, sa.c AS size_a,"
            " round(CAST(inter.i AS DOUBLE)"
            " / CAST(sa.c AS DOUBLE), 6) AS containment"
            " FROM inter JOIN sz sa ON sa.doc_id = inter.da"
            " WHERE CAST(inter.i AS DOUBLE)"
            " / CAST(sa.c AS DOUBLE) >= 0.8"
        ),
        "q_decile_shares": (
            # NTILE over (rev, custkey); tile sums are tie-insensitive
            # so the engine's histogram slicing matches exactly
            "WITH r AS (SELECT o_custkey,"
            " sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT"
            " AS cents FROM orders GROUP BY 1),"
            " t AS (SELECT o_custkey, cents, ntile(10) OVER"
            " (ORDER BY cents, o_custkey) AS tile FROM r),"
            " a AS (SELECT tile, count(*)::BIGINT AS n_customers,"
            " sum(cents)::BIGINT AS revenue_cents FROM t GROUP BY 1),"
            " tot AS (SELECT sum(revenue_cents)::BIGINT AS s FROM a)"
            " SELECT tile, n_customers, revenue_cents,"
            " round(CAST(revenue_cents AS DOUBLE)"
            " / CAST((SELECT s FROM tot) AS DOUBLE), 6) AS share,"
            " round(sum(CAST(revenue_cents AS DOUBLE)"
            " / CAST((SELECT s FROM tot) AS DOUBLE)) OVER"
            " (ORDER BY tile ROWS BETWEEN UNBOUNDED PRECEDING AND"
            " CURRENT ROW), 6) AS cum_share FROM a"
        ),
        "q_kmv_overlap": (
            # KMV estimator over the pinned md5-u32 hash sets; strict
            # nd < 256 = the engine's len(sketch) < k exact-path test
            "WITH h AS (SELECT DISTINCT event_type,"
            " ('0x' || substr(md5(CAST(user_id AS VARCHAR)),1,8))::UBIGINT"
            " AS hv FROM events),"
            " cnt AS (SELECT event_type, count(*)::BIGINT AS nd FROM h"
            "  GROUP BY 1),"
            " rk AS (SELECT event_type, hv, row_number() OVER"
            "  (PARTITION BY event_type ORDER BY hv) AS r FROM h),"
            " sk AS (SELECT event_type, hv, r FROM rk WHERE r <= 256),"
            " est AS (SELECT c.event_type,"
            "  CASE WHEN c.nd < 256 THEN CAST(c.nd AS DOUBLE)"
            "  ELSE 255.0 * 4294967296.0 / CAST(k.hv AS DOUBLE) END AS e,"
            "  c.nd FROM cnt c LEFT JOIN"
            "  (SELECT event_type, hv FROM sk WHERE r = 256) k"
            "  ON k.event_type = c.event_type),"
            " pairs AS (SELECT a.event_type AS ta, b.event_type AS tb"
            "  FROM cnt a JOIN cnt b ON a.event_type < b.event_type),"
            " ud AS (SELECT DISTINCT p.ta, p.tb, s.hv FROM pairs p"
            "  JOIN sk s ON s.event_type = p.ta OR s.event_type = p.tb),"
            " ur AS (SELECT ta, tb, hv, row_number() OVER"
            "  (PARTITION BY ta, tb ORDER BY hv) AS r FROM ud),"
            " um AS (SELECT ta, tb, count(*)::BIGINT AS m_all,"
            "  max(CASE WHEN r = 256 THEN hv END) AS h256"
            "  FROM ur GROUP BY 1, 2),"
            " uu AS (SELECT u.ta, u.tb,"
            "  CASE WHEN a.nd < 256 AND b.nd < 256"
            "  THEN CAST(u.m_all AS DOUBLE)"
            "  ELSE 255.0 * 4294967296.0 / CAST(u.h256 AS DOUBLE) END AS eu"
            "  FROM um u JOIN cnt a ON a.event_type = u.ta"
            "  JOIN cnt b ON b.event_type = u.tb)"
            " SELECT p.ta AS type_a, p.tb AS type_b,"
            " round(ea.e, 6) AS est_a, round(eb.e, 6) AS est_b,"
            " round(uu.eu, 6) AS est_union,"
            " round(ea.e + eb.e - uu.eu, 6) AS est_intersect,"
            " round((ea.e + eb.e - uu.eu) / uu.eu, 6) AS jaccard_est"
            " FROM pairs p JOIN est ea ON ea.event_type = p.ta"
            " JOIN est eb ON eb.event_type = p.tb"
            " JOIN uu ON uu.ta = p.ta AND uu.tb = p.tb"
        ),
        "q_hhi_by_nation": (
            # exact integer units; HUGEINT squares (sum > int64), each
            # output ONE cast-to-double division (the engine mirrors
            # float(int) conversion order)
            "WITH r AS (SELECT l_suppkey,"
            " CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)"
            " * (100 - CAST(round(l_discount * 100) AS BIGINT)))"
            " AS HUGEINT) AS units FROM lineitem GROUP BY 1),"
            " j AS (SELECT n_name, units FROM r"
            " JOIN supplier ON s_suppkey = l_suppkey"
            " JOIN nation ON n_nationkey = s_nationkey)"
            " SELECT n_name, count(*)::BIGINT AS n_suppliers,"
            " round(CAST(sum(units * units) AS DOUBLE)"
            "  / CAST(sum(units) * sum(units) AS DOUBLE), 6) AS hhi,"
            " round(CAST(max(units) AS DOUBLE)"
            "  / CAST(sum(units) AS DOUBLE), 6) AS top_share"
            " FROM j GROUP BY 1"
        ),
        "q_cume_dist": (
            "SELECT doc_id, lang, n_chars,"
            " round(cume_dist() OVER (PARTITION BY lang"
            " ORDER BY n_chars), 6) AS cd FROM documents"
        ),
        "q_kfold_stats": (
            "WITH f AS (SELECT"
            " CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)),1,8))"
            " ::UBIGINT % 5 AS BIGINT) AS fold, lang, n_chars"
            " FROM documents)"
            " SELECT fold, count(*)::BIGINT AS n_docs,"
            " sum(n_chars)::BIGINT AS sum_chars,"
            " round(CAST(sum(n_chars) AS DOUBLE)"
            "  / CAST(count(*) AS DOUBLE), 6) AS mean_chars,"
            " count(DISTINCT lang)::BIGINT AS n_langs"
            " FROM f GROUP BY 1"
        ),
        "q_length_auc": (
            # midrank AUC: cells = (source, score) integer histogram;
            # midrank = count-below + (count-at + 1)/2 (half-integer);
            # AUC = (R_pos - np(np+1)/2) / (np*nn) — every term exact
            "WITH s AS (SELECT source, n_chars AS sc,"
            " CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS y"
            " FROM documents),"
            " c AS (SELECT source, sc, count(*)::BIGINT AS n,"
            " sum(y)::BIGINT AS npos FROM s GROUP BY source, sc),"
            " r AS (SELECT source, sc, n, npos,"
            " coalesce(sum(n) OVER (PARTITION BY source ORDER BY sc"
            " ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)"
            " AS cb FROM c),"
            " m AS (SELECT source, n, npos, CAST(cb AS DOUBLE)"
            " + (CAST(n AS DOUBLE) + 1.0) / 2.0 AS mr FROM r),"
            " a AS (SELECT source, sum(n)::BIGINT AS nt,"
            " sum(npos)::BIGINT AS np, sum(npos * mr) AS rpos"
            " FROM m GROUP BY source)"
            " SELECT source, np AS n_pos, nt - np AS n_neg,"
            " CASE WHEN np > 0 AND nt - np > 0 THEN"
            " round((rpos - CAST(np AS DOUBLE) * (CAST(np AS DOUBLE)"
            " + 1.0) / 2.0) / (CAST(np AS DOUBLE)"
            " * CAST(nt - np AS DOUBLE)), 6) END AS auc FROM a"
        ),
        "q_snm_pairs": (
            # rank by (normalized 32-char prefix, doc_id); pairs with
            # 0 < rank gap <= 5 — all-integer, exact
            "WITH k AS (SELECT doc_id,"
            " substr(regexp_replace(lower(text), '[^a-z0-9]', '', 'g'),"
            " 1, 32) AS sk FROM documents),"
            " r AS (SELECT doc_id, row_number() OVER (ORDER BY sk,"
            " doc_id) - 1 AS rk FROM k)"
            " SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,"
            " b.rk - a.rk AS rank_gap FROM r a JOIN r b"
            " ON b.rk > a.rk AND b.rk - a.rk <= 5"
        ),
        "q_burstiness": (
            # exact HUGEINT gap moments -> one mirrored float expression
            "WITH o AS (SELECT event_type, ts, lag(ts) OVER ("
            " PARTITION BY event_type ORDER BY ts, event_id) AS pts"
            " FROM events),"
            " g AS (SELECT event_type,"
            " epoch_us(ts) - epoch_us(pts) AS gap FROM o"
            " WHERE pts IS NOT NULL),"
            " m AS (SELECT event_type, count(*)::BIGINT AS n,"
            " sum(gap::HUGEINT) AS sg,"
            " sum(gap::HUGEINT * gap::HUGEINT) AS sg2 FROM g"
            " GROUP BY 1),"
            " v AS (SELECT event_type, n,"
            " CAST(sg AS DOUBLE) / CAST(n AS DOUBLE) AS mf,"
            " CAST(sg2 AS DOUBLE) / CAST(n AS DOUBLE)"
            " - (CAST(sg AS DOUBLE) / CAST(n AS DOUBLE))"
            " * (CAST(sg AS DOUBLE) / CAST(n AS DOUBLE)) AS vf FROM m)"
            " SELECT event_type, n AS n_gaps, round(mf, 6)"
            " AS mean_gap_us, CASE WHEN vf > 0 THEN"
            " round((sqrt(vf) - mf) / (sqrt(vf) + mf), 6)"
            " WHEN mf > 0 THEN -1.0 END AS burstiness FROM v"
        ),
        "q_holt_daily": (
            # Holt recursion on the filled grid; the recursive step
            # spells l_t out twice (same deterministic value)
            "WITH RECURSIVE c AS (SELECT event_type,"
            " date_trunc('day', ts) AS day, count(*)::BIGINT AS n"
            " FROM events GROUP BY 1, 2),"
            " b AS (SELECT min(day) AS lo, max(day) AS hi FROM c),"
            " days AS (SELECT unnest(generate_series((SELECT lo FROM b),"
            " (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),"
            " dd AS (SELECT day, CAST(date_diff('day', (SELECT lo FROM b),"
            " day) AS BIGINT) AS i FROM days),"
            " t AS (SELECT DISTINCT event_type FROM events),"
            " grid AS (SELECT t.event_type, dd.day, dd.i,"
            " coalesce(c.n, 0) AS n FROM dd CROSS JOIN t"
            " LEFT JOIN c ON c.day = dd.day"
            " AND c.event_type = t.event_type),"
            " r AS (SELECT g0.event_type, g0.i, g0.day, g0.n,"
            " CAST(g0.n AS DOUBLE) AS l,"
            " CAST(coalesce(g1.n - g0.n, 0) AS DOUBLE) AS bt"
            " FROM grid g0 LEFT JOIN grid g1"
            " ON g1.event_type = g0.event_type AND g1.i = 1"
            " WHERE g0.i = 0"
            " UNION ALL SELECT g.event_type, g.i, g.day, g.n,"
            " 0.3 * CAST(g.n AS DOUBLE) + 0.7 * (r.l + r.bt),"
            " 0.1 * ((0.3 * CAST(g.n AS DOUBLE) + 0.7 * (r.l + r.bt))"
            " - r.l) + 0.9 * r.bt FROM grid g"
            " JOIN r ON g.event_type = r.event_type AND g.i = r.i + 1)"
            " SELECT event_type, strftime(day, '%Y-%m-%d') AS day, n,"
            " round(l, 6) AS level, round(bt, 6) AS trend FROM r"
        ),
        "q_kendall_len_words": (
            # tau-b over the joint (n_chars, n_spaces) histogram:
            # all-integer C/D/tie counts, one mirrored float expression
            "WITH d AS (SELECT lang, n_chars AS x,"
            " length(text) - length(replace(text, ' ', '')) AS y"
            " FROM documents),"
            " cells AS (SELECT lang, x, y, count(*)::BIGINT AS c"
            " FROM d GROUP BY 1, 2, 3),"
            " p AS (SELECT a.lang,"
            " coalesce(sum(CASE WHEN a.x < b.x AND a.y < b.y"
            " THEN a.c * b.c END), 0) AS cc,"
            " coalesce(sum(CASE WHEN a.x < b.x AND a.y > b.y"
            " THEN a.c * b.c END), 0) AS dd"
            " FROM cells a JOIN cells b ON a.lang = b.lang GROUP BY 1),"
            " tx AS (SELECT lang, sum(cx * (cx - 1) // 2) AS n1 FROM"
            " (SELECT lang, x, sum(c) AS cx FROM cells GROUP BY 1, 2)"
            " GROUP BY 1),"
            " ty AS (SELECT lang, sum(cy * (cy - 1) // 2) AS n2 FROM"
            " (SELECT lang, y, sum(c) AS cy FROM cells GROUP BY 1, 2)"
            " GROUP BY 1),"
            " nn AS (SELECT lang, sum(c) AS n FROM cells GROUP BY 1)"
            " SELECT nn.lang, nn.n::BIGINT AS n,"
            " CASE WHEN nn.n * (nn.n - 1) // 2 - tx.n1 > 0"
            " AND nn.n * (nn.n - 1) // 2 - ty.n2 > 0 THEN"
            " round(CAST(p.cc - p.dd AS DOUBLE)"
            " / (sqrt(CAST(nn.n * (nn.n - 1) // 2 - tx.n1 AS DOUBLE))"
            " * sqrt(CAST(nn.n * (nn.n - 1) // 2 - ty.n2 AS DOUBLE))), 6)"
            " END AS tau FROM nn JOIN p USING (lang)"
            " JOIN tx USING (lang) JOIN ty USING (lang)"
        ),
        "q_kruskal_len_by_lang": (
            # deviation form (no catastrophic cancellation):
            # H = 3/(N(N+1)) * sum_g d_g^2/n_g / tie_corr,
            # d_g = s2_g - n_g*(N+1) with s2 the DOUBLED midrank sum
            "WITH cells AS (SELECT lang, n_chars AS v,"
            " count(*)::BIGINT AS c FROM documents GROUP BY 1, 2),"
            " marg AS (SELECT v, sum(c)::BIGINT AS t FROM cells"
            " GROUP BY 1),"
            " rnk AS (SELECT v, 2 * coalesce(sum(t) OVER (ORDER BY v"
            " ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)"
            " + t + 1 AS r2 FROM marg),"
            " tot AS (SELECT sum(t)::BIGINT AS n,"
            " sum(CAST(t AS HUGEINT) * t * t - t) AS tie_sum FROM marg),"
            " grp AS (SELECT lang, sum(c)::BIGINT AS n_g,"
            " sum(CAST(c * r2 AS HUGEINT)) AS s2 FROM cells"
            " JOIN rnk USING (v) GROUP BY 1),"
            " dev AS (SELECT lang, n_g,"
            " s2 - CAST(n_g AS HUGEINT) * ((SELECT n FROM tot) + 1) AS d"
            " FROM grp),"
            " agg AS (SELECT count(*)::BIGINT AS k,"
            " sum(CAST(d * d AS DOUBLE) / CAST(n_g AS DOUBLE)) AS s"
            " FROM dev)"
            " SELECT tot.n AS n, agg.k AS k,"
            " CASE WHEN tot.n > 1 AND tot.tie_sum <"
            " CAST(tot.n AS HUGEINT) * tot.n * tot.n - tot.n THEN"
            " round((3.0 * agg.s / (CAST(tot.n AS DOUBLE)"
            " * CAST(tot.n + 1 AS DOUBLE)))"
            " / (1.0 - CAST(tot.tie_sum AS DOUBLE)"
            " / CAST(CAST(tot.n AS HUGEINT) * tot.n * tot.n - tot.n"
            " AS DOUBLE)), 6) END AS h FROM tot, agg"
        ),
        "q_triangles": (
            # undirected co-supply edges (a < b, distinct), triangles
            # by triple self-join; per-node counts all-integer
            "WITH e0 AS (SELECT DISTINCT a.l_suppkey AS sa,"
            " b.l_suppkey AS sb FROM lineitem a JOIN lineitem b"
            " ON a.l_orderkey = b.l_orderkey"
            " AND a.l_suppkey < b.l_suppkey),"
            " tri AS (SELECT e1.sa AS x, e1.sb AS y, e2.sb AS z"
            " FROM e0 e1 JOIN e0 e2 ON e2.sa = e1.sb"
            " JOIN e0 e3 ON e3.sa = e1.sa AND e3.sb = e2.sb),"
            " pernode AS (SELECT node, count(*)::BIGINT AS t FROM"
            " (SELECT x AS node FROM tri UNION ALL SELECT y FROM tri"
            " UNION ALL SELECT z FROM tri) GROUP BY 1),"
            " deg AS (SELECT node, count(*)::BIGINT AS d FROM"
            " (SELECT sa AS node FROM e0 UNION ALL SELECT sb FROM e0)"
            " GROUP BY 1)"
            " SELECT deg.node AS l_suppkey, deg.d AS degree,"
            " coalesce(pernode.t, 0) AS n_triangles,"
            " CASE WHEN deg.d >= 2 THEN"
            " round(2.0 * coalesce(pernode.t, 0)"
            " / (CAST(deg.d AS DOUBLE) * CAST(deg.d - 1 AS DOUBLE)), 6)"
            " END AS clustering FROM deg LEFT JOIN pernode USING (node)"
        ),
        "q_jw_pairs": (
            # 4-char prefix blocks, a.doc_id < b.doc_id, jw >= 0.9;
            # the engine kernel bit-matches jaro_winkler_similarity
            "WITH k AS (SELECT doc_id,"
            " substr(regexp_replace(lower(text), '[^a-z0-9]', '', 'g'),"
            " 1, 32) AS sk FROM documents)"
            " SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,"
            " round(jaro_winkler_similarity(a.sk, b.sk), 6) AS jw"
            " FROM k a JOIN k b"
            " ON substr(a.sk, 1, 4) = substr(b.sk, 1, 4)"
            " AND a.doc_id < b.doc_id"
            " WHERE jaro_winkler_similarity(a.sk, b.sk) >= 0.9"
        ),
        "q_theil_sen": (
            # median pairwise slope over the filled grid, intercept
            # from the UNROUNDED slope; quantile_cont both medians
            "WITH c AS (SELECT event_type,"
            " date_trunc('day', ts) AS day, count(*)::BIGINT AS n"
            " FROM events GROUP BY 1, 2),"
            " b AS (SELECT min(day) AS lo, max(day) AS hi FROM c),"
            " days AS (SELECT unnest(generate_series((SELECT lo FROM b),"
            " (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),"
            " dd AS (SELECT day, CAST(date_diff('day', (SELECT lo FROM b),"
            " day) AS BIGINT) AS i FROM days),"
            " t AS (SELECT DISTINCT event_type FROM events),"
            " grid AS (SELECT t.event_type, dd.i,"
            " coalesce(c.n, 0) AS n FROM dd CROSS JOIN t"
            " LEFT JOIN c ON c.day = dd.day"
            " AND c.event_type = t.event_type),"
            " sl AS (SELECT g1.event_type,"
            " quantile_cont(CAST(g2.n - g1.n AS DOUBLE)"
            " / CAST(g2.i - g1.i AS DOUBLE), 0.5) AS s"
            " FROM grid g1 JOIN grid g2"
            " ON g2.event_type = g1.event_type AND g2.i > g1.i"
            " GROUP BY 1),"
            " ic AS (SELECT g.event_type,"
            " quantile_cont(CAST(g.n AS DOUBLE)"
            " - sl.s * CAST(g.i AS DOUBLE), 0.5) AS bi"
            " FROM grid g JOIN sl USING (event_type) GROUP BY 1)"
            " SELECT sl.event_type,"
            " (SELECT count(*) FROM days)::BIGINT AS n_days,"
            " round(sl.s, 6) AS slope, round(ic.bi, 6) AS intercept"
            " FROM sl JOIN ic USING (event_type)"
        ),
        "q_profile_docs": (
            "SELECT 'doc_id' AS \"column\", count(*)::BIGINT AS n,"
            " (count(*) - count(doc_id))::BIGINT AS n_null,"
            " count(DISTINCT doc_id)::BIGINT AS n_distinct FROM documents"
            " UNION ALL SELECT 'lang', count(*)::BIGINT,"
            " (count(*) - count(lang))::BIGINT,"
            " count(DISTINCT lang)::BIGINT FROM documents"
            " UNION ALL SELECT 'n_chars', count(*)::BIGINT,"
            " (count(*) - count(n_chars))::BIGINT,"
            " count(DISTINCT n_chars)::BIGINT FROM documents"
            " UNION ALL SELECT 'source', count(*)::BIGINT,"
            " (count(*) - count(source))::BIGINT,"
            " count(DISTINCT source)::BIGINT FROM documents"
        ),
        "q_last_purchase": (
            # point-in-time LOCF: values copied, exact
            "SELECT user_id, ts, event_id,"
            " last_value(CASE WHEN event_type = 'purchase' THEN value"
            " END IGNORE NULLS) OVER (PARTITION BY user_id"
            " ORDER BY ts, event_id ROWS BETWEEN UNBOUNDED PRECEDING"
            " AND CURRENT ROW) AS last_purchase_value FROM events"
        ),
        "q_rolling_median": (
            # centered 7-day rolling median on the filled grid;
            # edge windows truncate (frame semantics)
            "WITH c AS (SELECT event_type,"
            " date_trunc('day', ts) AS day, count(*)::BIGINT AS n"
            " FROM events GROUP BY 1, 2),"
            " b AS (SELECT min(day) AS lo, max(day) AS hi FROM c),"
            " days AS (SELECT unnest(generate_series((SELECT lo FROM b),"
            " (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),"
            " t AS (SELECT DISTINCT event_type FROM events),"
            " grid AS (SELECT t.event_type, days.day,"
            " coalesce(c.n, 0)::BIGINT AS n FROM days CROSS JOIN t"
            " LEFT JOIN c ON c.day = days.day"
            " AND c.event_type = t.event_type)"
            " SELECT event_type, strftime(day, '%Y-%m-%d') AS day, n,"
            " round(quantile_cont(n, 0.5) OVER (PARTITION BY event_type"
            " ORDER BY day ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING), 6)"
            " AS median7 FROM grid"
        ),
        "q_token_jaccard": (
            # exact within-source token-set Jaccard >= 0.9: distinct
            # tokens, pairwise intersection by token join, one division
            "WITH tok AS (SELECT DISTINCT source, doc_id, tk FROM"
            " (SELECT source, doc_id,"
            " unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tk"
            " FROM documents)),"
            " sz AS (SELECT doc_id, count(*)::BIGINT AS c FROM tok"
            " GROUP BY 1),"
            " inter AS (SELECT a.source, a.doc_id AS da,"
            " b.doc_id AS db, count(*)::BIGINT AS i FROM tok a"
            " JOIN tok b ON a.source = b.source AND a.tk = b.tk"
            " AND a.doc_id < b.doc_id GROUP BY 1, 2, 3)"
            " SELECT inter.source, inter.da AS doc_a, inter.db AS doc_b,"
            " inter.i AS n_inter, sa.c + sb.c - inter.i AS n_union,"
            " round(CAST(inter.i AS DOUBLE)"
            " / CAST(sa.c + sb.c - inter.i AS DOUBLE), 6) AS jaccard"
            " FROM inter JOIN sz sa ON sa.doc_id = inter.da"
            " JOIN sz sb ON sb.doc_id = inter.db"
            " WHERE CAST(inter.i AS DOUBLE)"
            " / CAST(sa.c + sb.c - inter.i AS DOUBLE) >= 0.9"
        ),
        "q_flesch": (
            # regex counts mirror polars count_matches; one float expr
            "WITH c AS (SELECT doc_id,"
            " len(regexp_extract_all(text, E'[^ \\t\\n]+'))::BIGINT AS w,"
            " len(regexp_extract_all(text, '[.!?]+'))::BIGINT AS s,"
            " len(regexp_extract_all(lower(text), '[aeiouy]+'))::BIGINT"
            " AS sy FROM documents)"
            " SELECT doc_id, w, s, sy,"
            " CASE WHEN w > 0 AND s > 0 THEN round(206.835"
            " - 1.015 * (CAST(w AS DOUBLE) / CAST(s AS DOUBLE))"
            " - 84.6 * (CAST(sy AS DOUBLE) / CAST(w AS DOUBLE)), 6)"
            " END AS flesch FROM c"
        ),
        "q_digit_ztest": (
            # per-source digit-doc rate vs rest, pooled-variance z
            "WITH f AS (SELECT source,"
            " CASE WHEN regexp_matches(text, '[0-9]') THEN 1 ELSE 0 END"
            " AS fl FROM documents),"
            " g AS (SELECT source, count(*)::BIGINT AS n,"
            " sum(fl)::BIGINT AS x FROM f GROUP BY 1),"
            " tot AS (SELECT sum(n)::BIGINT AS nn, sum(x)::BIGINT AS xx"
            " FROM g)"
            " SELECT g.source, g.n, g.x,"
            " CASE WHEN g.n > 0 AND tot.nn - g.n > 0 AND"
            " (CAST(tot.xx AS DOUBLE) / CAST(tot.nn AS DOUBLE))"
            " * (1.0 - CAST(tot.xx AS DOUBLE) / CAST(tot.nn AS DOUBLE))"
            " * (1.0 / CAST(g.n AS DOUBLE)"
            " + 1.0 / CAST(tot.nn - g.n AS DOUBLE)) > 0.0 THEN"
            " round((CAST(g.x AS DOUBLE) / CAST(g.n AS DOUBLE)"
            " - CAST(tot.xx - g.x AS DOUBLE)"
            " / CAST(tot.nn - g.n AS DOUBLE))"
            " / sqrt((CAST(tot.xx AS DOUBLE) / CAST(tot.nn AS DOUBLE))"
            " * (1.0 - CAST(tot.xx AS DOUBLE) / CAST(tot.nn AS DOUBLE))"
            " * (1.0 / CAST(g.n AS DOUBLE)"
            " + 1.0 / CAST(tot.nn - g.n AS DOUBLE))), 6)"
            " END AS z FROM g, tot"
        ),
        "q_changepoint": (
            # score = d^2/(n1*n2*m), d = S1*n2 - S2*n1 (exact ints);
            # CAST(d)*CAST(d) mirrors the engine's float(d)*float(d)
            "WITH c AS (SELECT event_type,"
            " date_trunc('day', ts) AS day, count(*)::BIGINT AS n"
            " FROM events GROUP BY 1, 2),"
            " b AS (SELECT min(day) AS lo, max(day) AS hi FROM c),"
            " days AS (SELECT unnest(generate_series((SELECT lo FROM b),"
            " (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),"
            " dd AS (SELECT day, CAST(date_diff('day', (SELECT lo FROM b),"
            " day) AS BIGINT) AS i FROM days),"
            " t AS (SELECT DISTINCT event_type FROM events),"
            " grid AS (SELECT t.event_type, dd.day, dd.i,"
            " coalesce(c.n, 0) AS n FROM dd CROSS JOIN t"
            " LEFT JOIN c ON c.day = dd.day"
            " AND c.event_type = t.event_type),"
            " pre AS (SELECT event_type, i, sum(n) OVER ("
            " PARTITION BY event_type ORDER BY i) AS s1 FROM grid),"
            " tot AS (SELECT event_type, sum(n)::BIGINT AS s,"
            " count(*)::BIGINT AS m FROM grid GROUP BY 1),"
            " cand AS (SELECT p.event_type, p.i + 1 AS tt,"
            " p.s1::BIGINT AS s1, tot.s, tot.m,"
            " p.i + 1 AS n1, tot.m - p.i - 1 AS n2,"
            " p.s1 * (tot.m - p.i - 1) - (tot.s - p.s1) * (p.i + 1) AS d"
            " FROM pre p JOIN tot USING (event_type)"
            " WHERE p.i < tot.m - 1),"
            " sc AS (SELECT *, CAST(d AS DOUBLE) * CAST(d AS DOUBLE)"
            " / CAST(n1 * n2 * m AS DOUBLE) AS score FROM cand),"
            " best AS (SELECT *, row_number() OVER ("
            " PARTITION BY event_type ORDER BY score DESC, tt ASC)"
            " AS rn FROM sc)"
            " SELECT best.event_type,"
            " strftime(g.day, '%Y-%m-%d') AS cp_day,"
            " round(best.score, 6) AS score,"
            " round(CAST(best.s1 AS DOUBLE) / CAST(best.tt AS DOUBLE), 6)"
            " AS mean_before,"
            " round(CAST(best.s - best.s1 AS DOUBLE)"
            " / CAST(best.m - best.tt AS DOUBLE), 6) AS mean_after"
            " FROM best JOIN grid g ON g.event_type = best.event_type"
            " AND g.i = best.tt WHERE best.rn = 1"
        ),
        "q_stl_daily": (
            # trend = full 7-window mean, seasonal = dow avg of the
            # detrended interior, remainder mirrored per row
            "WITH c AS (SELECT event_type,"
            " date_trunc('day', ts) AS day, count(*)::BIGINT AS n"
            " FROM events GROUP BY 1, 2),"
            " b AS (SELECT min(day) AS lo, max(day) AS hi FROM c),"
            " days AS (SELECT unnest(generate_series((SELECT lo FROM b),"
            " (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),"
            " t AS (SELECT DISTINCT event_type FROM events),"
            " grid AS (SELECT t.event_type, days.day,"
            " coalesce(c.n, 0)::BIGINT AS n FROM days CROSS JOIN t"
            " LEFT JOIN c ON c.day = days.day"
            " AND c.event_type = t.event_type),"
            " tr AS (SELECT event_type, day, n,"
            " CASE WHEN count(*) OVER w = 7"
            " THEN sum(n) OVER w / 7.0 END AS trend FROM grid"
            " WINDOW w AS (PARTITION BY event_type ORDER BY day"
            " ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING)),"
            " se AS (SELECT event_type, dayofweek(day) AS dw,"
            " avg(CAST(n AS DOUBLE) - trend) AS seasonal FROM tr"
            " WHERE trend IS NOT NULL GROUP BY 1, 2)"
            " SELECT tr.event_type, strftime(tr.day, '%Y-%m-%d') AS day,"
            " tr.n, round(tr.trend, 6) AS trend,"
            " round(se.seasonal, 6) AS seasonal,"
            " round(CAST(tr.n AS DOUBLE) - tr.trend - se.seasonal, 6)"
            " AS remainder FROM tr LEFT JOIN se"
            " ON se.event_type = tr.event_type"
            " AND se.dw = dayofweek(tr.day)"
        ),
        "q_cusum_daily": (
            # the ewma_daily recursive-CTE mirror: same filled grid,
            # same op order max(0, prev + ((n - mu) - 0.1*mu))
            "WITH RECURSIVE c AS (SELECT event_type,"
            " date_trunc('day', ts) AS day, count(*)::BIGINT AS n"
            " FROM events GROUP BY 1, 2),"
            " b AS (SELECT min(day) AS lo, max(day) AS hi FROM c),"
            " days AS (SELECT unnest(generate_series((SELECT lo FROM b),"
            " (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),"
            " dd AS (SELECT day, CAST(date_diff('day', (SELECT lo FROM b),"
            " day) AS BIGINT) AS i FROM days),"
            " t AS (SELECT DISTINCT event_type FROM events),"
            " grid AS (SELECT t.event_type, dd.day, dd.i,"
            " coalesce(c.n, 0) AS n FROM dd CROSS JOIN t"
            " LEFT JOIN c ON c.day = dd.day"
            " AND c.event_type = t.event_type),"
            " mu AS (SELECT event_type, CAST(sum(n) AS DOUBLE)"
            " / CAST(count(*) AS DOUBLE) AS mu FROM grid GROUP BY 1),"
            " r AS (SELECT g.event_type, g.i, g.day, g.n,"
            " greatest(0.0, (CAST(g.n AS DOUBLE) - m.mu) - 0.1 * m.mu)"
            " AS cusum FROM grid g JOIN mu m"
            " ON m.event_type = g.event_type WHERE g.i = 0"
            " UNION ALL SELECT g.event_type, g.i, g.day, g.n,"
            " greatest(0.0, r.cusum + ((CAST(g.n AS DOUBLE) - m.mu)"
            " - 0.1 * m.mu)) FROM grid g"
            " JOIN r ON g.event_type = r.event_type AND g.i = r.i + 1"
            " JOIN mu m ON m.event_type = g.event_type)"
            " SELECT event_type, strftime(day, '%Y-%m-%d') AS day, n,"
            " round(cusum, 6) AS cusum FROM r"
        ),
        "q_dow_profile": (
            "WITH c AS (SELECT event_type, date_trunc('day', ts) AS day,"
            " count(*)::BIGINT AS n FROM events GROUP BY 1, 2),"
            " b AS (SELECT min(day) AS lo, max(day) AS hi FROM c),"
            " days AS (SELECT unnest(generate_series((SELECT lo FROM b),"
            " (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),"
            " t AS (SELECT DISTINCT event_type FROM events),"
            " grid AS (SELECT t.event_type, days.day,"
            " coalesce(c.n, 0)::BIGINT AS n FROM days CROSS JOIN t"
            " LEFT JOIN c ON c.day = days.day"
            " AND c.event_type = t.event_type),"
            " g2 AS (SELECT event_type, dayofweek(day)::BIGINT AS dow,"
            " count(*)::BIGINT AS n_days, sum(n)::BIGINT AS total"
            " FROM grid GROUP BY 1, 2),"
            " tt AS (SELECT event_type, sum(total)::BIGINT AS tot"
            " FROM g2 GROUP BY 1)"
            " SELECT g2.event_type, g2.dow, g2.n_days, g2.total,"
            " round(CAST(g2.total AS DOUBLE) / CAST(g2.n_days AS DOUBLE),"
            " 6) AS mean_n,"
            " CASE WHEN tt.tot > 0 THEN round(CAST(g2.total AS DOUBLE)"
            " / CAST(tt.tot AS DOUBLE), 6) END AS share"
            " FROM g2 JOIN tt ON tt.event_type = g2.event_type"
        ),
        "q_source_lang_mi": (
            # integer crosstab -> per-cell log2 terms; 6dp absorbs
            # libm/summation-order ulps (js_divergence contract)
            "WITH c AS (SELECT source AS a, lang AS b,"
            " count(*)::BIGINT AS n FROM documents GROUP BY 1, 2),"
            " t AS (SELECT CAST(sum(n) AS DOUBLE) AS n FROM c),"
            " ma AS (SELECT a, sum(n)::BIGINT AS na FROM c GROUP BY a),"
            " mb AS (SELECT b, sum(n)::BIGINT AS nb FROM c GROUP BY b),"
            " mi AS (SELECT sum((CAST(c.n AS DOUBLE) / t.n)"
            " * log2(t.n * CAST(c.n AS DOUBLE)"
            " / (CAST(ma.na AS DOUBLE) * CAST(mb.nb AS DOUBLE)))) AS v,"
            " count(*)::BIGINT AS n_cells FROM c"
            " JOIN ma ON ma.a = c.a JOIN mb ON mb.b = c.b CROSS JOIN t),"
            " ha AS (SELECT -sum((CAST(na AS DOUBLE) / t.n)"
            " * log2(CAST(na AS DOUBLE) / t.n)) AS v FROM ma"
            " CROSS JOIN t),"
            " hb AS (SELECT -sum((CAST(nb AS DOUBLE) / t.n)"
            " * log2(CAST(nb AS DOUBLE) / t.n)) AS v FROM mb"
            " CROSS JOIN t)"
            " SELECT mi.n_cells, round(mi.v, 6) AS mi_bits,"
            " round(ha.v, 6) AS h_a_bits, round(hb.v, 6) AS h_b_bits,"
            " CASE WHEN greatest(ha.v, hb.v) > 0 THEN"
            " round(mi.v / greatest(ha.v, hb.v), 6) END AS nmi"
            " FROM mi CROSS JOIN ha CROSS JOIN hb"
        ),
        "q_hapax_by_source": (
            "WITH tc AS (SELECT source, token, count(*)::BIGINT AS n"
            " FROM (SELECT source, unnest(regexp_extract_all(text,"
            " '[a-z0-9]+')) AS token FROM documents)"
            " GROUP BY source, token)"
            " SELECT source, sum(n)::BIGINT AS n_occurrences,"
            " count(*)::BIGINT AS n_distinct,"
            " sum(CASE WHEN n = 1 THEN 1 ELSE 0 END)::BIGINT AS n_hapax,"
            " round(CAST(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END)"
            " AS DOUBLE) / CAST(count(*) AS DOUBLE), 6) AS hapax_share,"
            " round(CAST(count(*) AS DOUBLE) / CAST(sum(n) AS DOUBLE),"
            " 6) AS ttr FROM tc GROUP BY source"
        ),
        "q_xcorr_daily": (
            # two-series variant of the q_acf_daily oracle: ordered
            # type pairs, lag 0..7, corr(a_t, b_{t-k}) on the filled grid
            "WITH d AS (SELECT event_type, date_trunc('day', ts) AS day,"
            " count(*)::BIGINT AS n FROM events GROUP BY 1, 2),"
            " bounds AS (SELECT min(day) AS lo, max(day) AS hi FROM d),"
            " days AS (SELECT unnest(generate_series("
            "(SELECT lo FROM bounds), (SELECT hi FROM bounds),"
            " INTERVAL 1 DAY)) AS day),"
            " ty AS (SELECT DISTINCT event_type FROM events),"
            " f AS (SELECT ty.event_type, days.day,"
            " coalesce(d.n, 0)::BIGINT AS n FROM days CROSS JOIN ty"
            " LEFT JOIN d ON d.day = days.day"
            " AND d.event_type = ty.event_type),"
            " ks AS (SELECT unnest(generate_series(0, 7)) AS lag)"
            " SELECT fa.event_type AS type_a, fb.event_type AS type_b,"
            " ks.lag, count(*)::BIGINT AS n_pairs,"
            " round(corr(fa.n, fb.n), 6) AS xcorr"
            " FROM ks, f fa JOIN f fb"
            " ON fb.event_type <> fa.event_type"
            " AND fb.day = fa.day - ks.lag * INTERVAL 1 DAY"
            " GROUP BY fa.event_type, fb.event_type, ks.lag"
        ),
        "q_mann_kendall": (
            # S over day-ordered pairs; tie-corrected variance;
            # continuity-corrected Z — all-integer until /18.0
            "WITH d AS (SELECT event_type, date_trunc('day', ts) AS day,"
            " count(*)::BIGINT AS n FROM events GROUP BY 1, 2),"
            " p AS (SELECT a.event_type, sum(CASE WHEN b.n > a.n THEN 1"
            " WHEN b.n < a.n THEN -1 ELSE 0 END)::BIGINT AS s FROM d a"
            " JOIN d b ON b.event_type = a.event_type AND b.day > a.day"
            " GROUP BY 1),"
            " m AS (SELECT event_type, count(*)::BIGINT AS m FROM d"
            " GROUP BY 1),"
            " t AS (SELECT event_type, sum(t * (t - 1) * (2 * t + 5))"
            "::BIGINT AS tie FROM (SELECT event_type, n,"
            " count(*)::BIGINT AS t FROM d GROUP BY 1, 2) GROUP BY 1),"
            " v AS (SELECT m.event_type, coalesce(p.s, 0) AS s, m.m,"
            " CAST(m.m * (m.m - 1) * (2 * m.m + 5) - t.tie AS DOUBLE)"
            " / 18.0 AS var FROM m LEFT JOIN p USING (event_type)"
            " JOIN t USING (event_type))"
            " SELECT event_type, m AS n_days, s AS s_stat,"
            " CASE WHEN var <= 0 THEN NULL WHEN s > 0 THEN"
            " round((CAST(s AS DOUBLE) - 1.0) / sqrt(var), 6)"
            " WHEN s < 0 THEN"
            " round((CAST(s AS DOUBLE) + 1.0) / sqrt(var), 6)"
            " ELSE 0.0 END AS z FROM v"
        ),
        "q_acf_daily": (
            # gap-filled integer daily grid (q_daily_filled CTE), then
            # corr(n_t, n_{t-k}) per (type, lag k), k = 1..7
            "WITH d AS (SELECT event_type, date_trunc('day', ts) AS day,"
            " count(*)::BIGINT AS n FROM events GROUP BY 1, 2),"
            " b AS (SELECT min(day) AS lo, max(day) AS hi FROM d),"
            " days AS (SELECT unnest(generate_series((SELECT lo FROM b),"
            " (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),"
            " ty AS (SELECT DISTINCT event_type FROM events),"
            " f AS (SELECT ty.event_type, days.day,"
            " coalesce(d.n, 0)::BIGINT AS n FROM days CROSS JOIN ty"
            " LEFT JOIN d ON d.day = days.day"
            " AND d.event_type = ty.event_type),"
            " ks AS (SELECT unnest(generate_series(1, 7)) AS lag)"
            " SELECT a.event_type, ks.lag, count(*)::BIGINT AS n_pairs,"
            " round(corr(a.n, b.n), 6) AS acf"
            " FROM ks, f a JOIN f b ON b.event_type = a.event_type"
            " AND b.day = a.day - ks.lag * INTERVAL 1 DAY"
            " GROUP BY a.event_type, ks.lag"
        ),
        "q_zipf_slope": (
            # rank by (count DESC, token ASC) over the top-100 tokens;
            # OLS of ln(n) on ln(rank) via regr_* (6dp contract)
            "WITH c AS (SELECT token, count(*)::BIGINT AS n FROM ("
            " SELECT unnest(regexp_extract_all(text, '[a-z0-9]+'))"
            " AS token FROM documents) GROUP BY token"
            " ORDER BY n DESC, token LIMIT 100),"
            " r AS (SELECT ln(CAST(row_number() OVER (ORDER BY n DESC,"
            " token) AS DOUBLE)) AS x, ln(CAST(n AS DOUBLE)) AS y"
            " FROM c)"
            " SELECT count(*)::BIGINT AS n_tokens,"
            " round(regr_slope(y, x), 6) AS slope,"
            " round(regr_intercept(y, x), 6) AS intercept,"
            " round(regr_r2(y, x), 6) AS r2 FROM r"
        ),
        "q_top_supplier": (
            "WITH r AS (SELECT l_suppkey,"
            " sum(CAST(round(l_extendedprice * 100) AS BIGINT)"
            " * (100 - CAST(round(l_discount * 100) AS BIGINT)))::HUGEINT"
            " AS su FROM lineitem"
            " WHERE l_shipdate >= TIMESTAMP '1996-01-01'"
            " AND l_shipdate < TIMESTAMP '1996-04-01' GROUP BY 1)"
            " SELECT r.l_suppkey AS s_suppkey, s.s_name,"
            " round(CAST(su AS DOUBLE) / 10000.0, 2) AS total_revenue"
            " FROM r JOIN supplier s ON s.s_suppkey = r.l_suppkey"
            " WHERE su = (SELECT max(su) FROM r)"
        ),
        "q_nation_trade": (
            "SELECT cn.n_name AS cust_nation, sn.n_name AS supp_nation,"
            " CAST(year(o_orderdate) AS BIGINT) AS o_year,"
            " round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)"
            " * (100 - CAST(round(l_discount * 100) AS BIGINT)))"
            " / 10000.0, 2) AS revenue"
            " FROM lineitem"
            " JOIN orders ON o_orderkey = l_orderkey"
            " JOIN customer ON c_custkey = o_custkey"
            " JOIN nation cn ON cn.n_nationkey = c_nationkey"
            " JOIN supplier ON s_suppkey = l_suppkey"
            " JOIN nation sn ON sn.n_nationkey = s_nationkey"
            " GROUP BY 1, 2, 3"
        ),
        "q_percent_rank": (
            "SELECT doc_id, lang, n_chars,"
            " round(percent_rank() OVER (PARTITION BY lang"
            " ORDER BY n_chars), 6) AS pr FROM documents"
        ),
        "q_promo_revenue": (
            "WITH l AS (SELECT l_partkey,"
            " CAST(round(l_extendedprice * 100) AS BIGINT)"
            " * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS u"
            " FROM lineitem"
            " WHERE l_shipdate >= TIMESTAMP '1996-03-01'"
            " AND l_shipdate < TIMESTAMP '1996-07-01')"
            " SELECT round(100.0 * sum(CASE WHEN p_type = 'PROMO'"
            " THEN u ELSE 0 END) / sum(u), 6) AS promo_pct"
            " FROM l JOIN part ON p_partkey = l_partkey"
        ),
        "q_nation_profit": (
            "SELECT n_name, CAST(year(o_orderdate) AS BIGINT) AS o_year,"
            " round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)"
            " * (100 - CAST(round(l_discount * 100) AS BIGINT)))"
            " / 10000.0, 2) AS revenue"
            " FROM lineitem"
            " JOIN part ON p_partkey = l_partkey"
            " JOIN supplier ON s_suppkey = l_suppkey"
            " JOIN nation ON n_nationkey = s_nationkey"
            " JOIN orders ON o_orderkey = l_orderkey"
            " WHERE p_name LIKE '%bolt%'"
            " GROUP BY 1, 2"
        ),
        "q_priority_dedup": (
            "SELECT doc_id FROM ("
            " SELECT doc_id, row_number() OVER (PARTITION BY text"
            " ORDER BY CAST(substr(source, 4) AS BIGINT), doc_id) AS rn"
            " FROM documents) WHERE rn = 1"
        ),
        "q_custdist": (
            "WITH oc AS (SELECT o_custkey, count(*)::BIGINT AS c_count"
            " FROM orders"
            " WHERE o_orderdate >= TIMESTAMP '1996-01-01'"
            " AND o_orderdate < TIMESTAMP '1996-04-01' GROUP BY 1)"
            " SELECT c_count, count(*)::BIGINT AS custdist FROM ("
            " SELECT coalesce(oc.c_count, 0)::BIGINT AS c_count"
            " FROM customer LEFT JOIN oc ON oc.o_custkey = c_custkey)"
            " GROUP BY 1"
        ),
        "q_small_qty_revenue": (
            "WITH f AS (SELECT l_partkey,"
            " CAST(round(l_quantity * 100) AS BIGINT) AS qc,"
            " CAST(round(l_extendedprice * 100) AS BIGINT) AS pc"
            " FROM lineitem JOIN part ON p_partkey = l_partkey"
            " WHERE p_brand = 'Brand#23'),"
            " a AS (SELECT l_partkey, sum(qc)::BIGINT AS s,"
            " count(*)::BIGINT AS c FROM f GROUP BY 1)"
            " SELECT round(sum(CASE WHEN f.qc * 5 * a.c < a.s"
            " THEN f.pc ELSE 0 END) / 100.0 / 7.0, 2) AS avg_yearly"
            " FROM f JOIN a ON a.l_partkey = f.l_partkey"
        ),
        "q_disjunctive_revenue": (
            "SELECT round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)"
            " * (100 - CAST(round(l_discount * 100) AS BIGINT)))"
            " / 10000.0, 2) AS revenue, count(*)::BIGINT AS n_items"
            " FROM lineitem JOIN part ON p_partkey = l_partkey"
            " WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 5"
            " AND l_quantity BETWEEN 1 AND 11)"
            " OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 10"
            " AND l_quantity BETWEEN 10 AND 20)"
            " OR (p_brand = 'Brand#5' AND p_size BETWEEN 1 AND 15"
            " AND l_quantity BETWEEN 20 AND 30)"
        ),
        "q_sales_opportunity": (
            "WITH st AS (SELECT"
            " sum(CAST(round(c_acctbal * 100) AS BIGINT))::BIGINT AS s,"
            " count(*)::BIGINT AS n FROM customer WHERE c_acctbal > 0)"
            " SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,"
            " count(*)::BIGINT AS numcust,"
            " round(sum(CAST(round(c_acctbal * 100) AS BIGINT))"
            " / 100.0, 2) AS totacctbal"
            " FROM customer"
            " WHERE CAST(round(c_acctbal * 100) AS BIGINT)"
            " * (SELECT n FROM st) > (SELECT s FROM st)"
            " AND c_custkey NOT IN (SELECT o_custkey FROM orders"
            " WHERE o_orderdate >= TIMESTAMP '2001-01-01')"
            " GROUP BY 1"
        ),
        "q_important_parts": (
            "WITH p AS (SELECT l_partkey,"
            " sum(CAST(round(l_extendedprice * 100) AS BIGINT))::BIGINT"
            " AS s FROM lineitem GROUP BY 1)"
            " SELECT l_partkey,"
            " round(CAST(s AS DOUBLE) / 100.0, 2) AS value FROM p"
            " WHERE s > (5 * (SELECT sum(s) FROM p))"
            " // (4 * (SELECT count(*) FROM p))"
        ),
        "q_market_share": (
            "SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,"
            " round(CAST(sum(CASE WHEN sn.n_name = 'NATION_7' THEN u"
            " ELSE 0 END) AS DOUBLE) / CAST(sum(u) AS DOUBLE), 6)"
            " AS mkt_share FROM ("
            " SELECT l_orderkey, l_suppkey,"
            " CAST(round(l_extendedprice * 100) AS BIGINT)"
            " * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS u"
            " FROM lineitem) l"
            " JOIN supplier ON s_suppkey = l_suppkey"
            " JOIN nation sn ON sn.n_nationkey = s_nationkey"
            " JOIN orders ON o_orderkey = l_orderkey"
            " JOIN customer ON c_custkey = o_custkey"
            " JOIN nation cn ON cn.n_nationkey = c_nationkey"
            " JOIN region ON r_regionkey = cn.n_regionkey"
            " WHERE r_name = 'ASIA' GROUP BY 1"
        ),
        "q_order_priority": (
            "SELECT o_orderpriority, count(*)::BIGINT AS order_count"
            " FROM orders o"
            " WHERE o_orderdate >= TIMESTAMP '1996-01-01'"
            " AND o_orderdate < TIMESTAMP '1996-04-01'"
            " AND EXISTS (SELECT 1 FROM lineitem l"
            " WHERE l.l_orderkey = o.o_orderkey"
            " AND l.l_shipdate > o.o_orderdate + INTERVAL 30 DAY)"
            " GROUP BY 1"
        ),
        "q_priority_lines": (
            "SELECT l_returnflag,"
            " sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')"
            " THEN 1 ELSE 0 END)::BIGINT AS high_line_count,"
            " sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')"
            " THEN 1 ELSE 0 END)::BIGINT AS low_line_count"
            " FROM lineitem JOIN orders ON o_orderkey = l_orderkey"
            " WHERE l_shipdate >= TIMESTAMP '1997-01-01'"
            " AND l_shipdate < TIMESTAMP '1998-01-01'"
            " GROUP BY 1"
        ),
        "q_waiting_suppliers": (
            "WITH l AS (SELECT l_orderkey, l_suppkey,"
            " max(l_shipdate) AS max_ship FROM lineitem GROUP BY 1, 2),"
            " j AS (SELECT l.l_orderkey, l.l_suppkey,"
            " (l.max_ship > o.o_orderdate + INTERVAL 60 DAY) AS late"
            " FROM l JOIN orders o ON o.o_orderkey = l.l_orderkey"
            " WHERE o.o_orderstatus = 'F'),"
            " po AS (SELECT l_orderkey,"
            " count(DISTINCT l_suppkey)::BIGINT AS n_supp,"
            " count(DISTINCT CASE WHEN late THEN l_suppkey END)::BIGINT"
            " AS n_late,"
            " max(CASE WHEN late THEN l_suppkey END) AS late_supp"
            " FROM j GROUP BY 1)"
            " SELECT s_name, count(*)::BIGINT AS numwait"
            " FROM po JOIN supplier ON s_suppkey = late_supp"
            " WHERE n_supp > 1 AND n_late = 1"
            " GROUP BY 1 ORDER BY numwait DESC, s_name LIMIT 20"
        ),
        "q_part_suppliers": (
            "SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size,"
            " count(DISTINCT l_suppkey)::BIGINT AS supplier_cnt"
            " FROM lineitem JOIN part ON p_partkey = l_partkey"
            " WHERE p_brand <> 'Brand#45' AND p_type NOT LIKE 'PROMO%'"
            " AND p_size IN (1, 5, 10, 15, 20, 25, 30, 35)"
            " AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier"
            " WHERE s_acctbal < 1000)"
            " GROUP BY 1, 2, 3"
        ),
        "q_min_cost_supplier": (
            "WITH cost AS (SELECT l_partkey, l_suppkey,"
            " min(CAST(round(l_extendedprice * 100) AS BIGINT)) AS cc"
            " FROM lineitem GROUP BY 1, 2),"
            " eu AS (SELECT s_suppkey, s_name, s_acctbal, n_name"
            " FROM supplier JOIN nation ON n_nationkey = s_nationkey"
            " JOIN region ON r_regionkey = n_regionkey"
            " WHERE r_name = 'EUROPE'),"
            " c2 AS (SELECT cost.*, s_name, s_acctbal, n_name"
            " FROM cost JOIN eu ON s_suppkey = l_suppkey"
            " JOIN part ON p_partkey = l_partkey"
            " WHERE p_type = 'STANDARD' AND p_size <= 15)"
            " SELECT s_acctbal, s_name, n_name,"
            " l_partkey AS p_partkey, cc / 100.0 AS min_cost FROM c2"
            " WHERE cc = (SELECT min(cc) FROM c2 i"
            " WHERE i.l_partkey = c2.l_partkey)"
            " ORDER BY s_acctbal DESC, n_name, s_name, p_partkey"
            " LIMIT 100"
        ),
        "q_accelerating_suppliers": (
            "WITH pr AS (SELECT l_partkey, l_suppkey,"
            " sum(CAST(round(l_quantity * 100) AS BIGINT)) AS qty_all,"
            " sum(CASE WHEN l_shipdate >= TIMESTAMP '1997-01-01'"
            " AND l_shipdate < TIMESTAMP '1998-01-01'"
            " THEN CAST(round(l_quantity * 100) AS BIGINT)"
            " ELSE 0 END) AS qty_year"
            " FROM lineitem GROUP BY 1, 2)"
            " SELECT DISTINCT s_name FROM pr"
            " JOIN part ON p_partkey = l_partkey"
            " JOIN supplier ON s_suppkey = l_suppkey"
            " JOIN nation ON n_nationkey = s_nationkey"
            " WHERE n_name = 'NATION_3' AND p_name LIKE 'red %'"
            " AND qty_year * 2 > qty_all"
            " ORDER BY s_name"
        ),
        "q_main_content": (
            # the oracle is the wrap->extract round-trip invariant:
            # boilerplate dropped, content block recovered verbatim
            "SELECT doc_id, text AS main_text FROM documents"
        ),
        "q_c4_filter": (
            # re-render the identical deterministic page in SQL list
            # lambdas, then apply the same C4 line/doc rules
            "WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks"
            " FROM documents),"
            " r AS (SELECT doc_id, list_transform("
            "   range(0, CAST(length(toks) AS INT), 8),"
            "   s -> array_to_string(list_slice(toks, s + 1, s + 8), ' '))"
            "   AS lines0 FROM t),"
            " p AS (SELECT doc_id, list_transform(lines0, s ->"
            "   CASE WHEN length(s) % 5 = 0 THEN s || ' javascript library'"
            "        WHEN length(s) % 3 = 0 THEN s || '.'"
            "        WHEN length(s) % 3 = 1 THEN s || '!'"
            "        ELSE s END) AS lines1 FROM r),"
            " page AS (SELECT doc_id,"
            "   CASE WHEN doc_id % 13 = 0"
            "          THEN array_to_string(lines1, chr(10)) || chr(10)"
            "               || '{ config }'"
            "        WHEN doc_id % 17 = 3"
            "          THEN 'Lorem ipsum dolor sit amet.' || chr(10)"
            "               || array_to_string(lines1, chr(10))"
            "        ELSE array_to_string(lines1, chr(10)) END AS page"
            "   FROM p),"
            " f AS (SELECT doc_id, string_split(page, chr(10)) AS ls,"
            "   list_filter(string_split(page, chr(10)), l ->"
            "     regexp_matches(rtrim(l, ' ' || chr(9)),"
            "       '[.!?][\"”'')\\]]*$')"
            "     AND length(regexp_extract_all(l, '\\S+')) >= 5"
            "     AND NOT contains(lower(l), 'javascript')) AS kept"
            "   FROM page"
            "   WHERE NOT contains(lower(page), 'lorem ipsum')"
            "     AND NOT contains(page, '{'))"
            " SELECT doc_id, array_to_string(kept, chr(10)) AS clean_text,"
            " length(ls) AS n_lines, length(kept) AS n_kept"
            " FROM f WHERE length(kept) >= 3"
        ),
        "q_spearman_docs": (
            # doubled average ranks stay integer: 2*RANK + tiecount - 1;
            # all moments BIGINT-exact, ONE final float expression
            "WITH b AS (SELECT lang, n_chars AS x,"
            " length(string_split(text, ' ')) AS y FROM documents),"
            " r AS (SELECT lang,"
            " 2 * RANK() OVER (PARTITION BY lang ORDER BY x)"
            "   + COUNT(*) OVER (PARTITION BY lang, x) - 1 AS rx,"
            " 2 * RANK() OVER (PARTITION BY lang ORDER BY y)"
            "   + COUNT(*) OVER (PARTITION BY lang, y) - 1 AS ry"
            " FROM b),"
            " m AS (SELECT lang, COUNT(*)::BIGINT AS n,"
            " sum(rx)::BIGINT AS sx, sum(ry)::BIGINT AS sy,"
            " sum(rx * ry)::BIGINT AS sxy,"
            " sum(rx * rx)::BIGINT AS sx2,"
            " sum(ry * ry)::BIGINT AS sy2 FROM r GROUP BY 1)"
            " SELECT lang, n,"
            " CASE WHEN n * sx2 - sx * sx = 0 OR n * sy2 - sy * sy = 0"
            " THEN NULL ELSE round("
            " CAST(n * sxy - sx * sy AS DOUBLE)"
            " / (sqrt(CAST(n * sx2 - sx * sx AS DOUBLE))"
            "    * sqrt(CAST(n * sy2 - sy * sy AS DOUBLE))), 6)"
            " END AS spearman FROM m"
        ),
        "q_leakage_split": (
            "WITH c AS (SELECT doc_id,"
            " min(doc_id) OVER (PARTITION BY text) AS cid"
            " FROM documents)"
            " SELECT doc_id, CASE"
            " WHEN substr(md5(CAST(cid AS VARCHAR)), 1, 2) < 'cc'"
            " THEN 'train'"
            " WHEN substr(md5(CAST(cid AS VARCHAR)), 1, 2) < 'e6'"
            " THEN 'valid'"
            " ELSE 'test' END AS split FROM c"
        ),
        "q_snapshot_diff": (
            "WITH doc AS (SELECT doc_id, text, source,"
            " ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT"
            " % 10 AS bk FROM documents),"
            " a AS (SELECT doc_id AS id, source,"
            " ('0x' || substr(md5(text), 1, 8))::UBIGINT AS h FROM doc),"
            " b AS (SELECT doc_id AS id, source,"
            " ('0x' || substr(md5(CASE WHEN bk = 1 THEN text || ' [rev2]'"
            " ELSE text END), 1, 8))::UBIGINT AS h"
            " FROM doc WHERE bk <> 0"
            " UNION ALL"
            " SELECT -(doc_id + 1) AS id, source,"
            " ('0x' || substr(md5(text), 1, 8))::UBIGINT AS h"
            " FROM doc WHERE bk = 2)"
            " SELECT coalesce(a.source, b.source) AS source,"
            " CASE WHEN a.id IS NULL THEN 'added'"
            " WHEN b.id IS NULL THEN 'removed'"
            " WHEN a.h <> b.h THEN 'changed'"
            " ELSE 'unchanged' END AS status,"
            " count(*)::BIGINT AS n"
            " FROM a FULL JOIN b ON a.id = b.id"
            " GROUP BY 1, 2"
        ),
        "q_q6_revenue": (
            "SELECT round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)"
            " * CAST(round(l_discount * 100) AS BIGINT)) / 10000.0, 2)"
            " AS revenue, count(*)::BIGINT AS n_items FROM lineitem"
            " WHERE l_shipdate >= TIMESTAMP '1996-01-01'"
            " AND l_shipdate < TIMESTAMP '1997-01-01'"
            " AND l_discount >= 0.05 AND l_discount <= 0.07"
            " AND l_quantity < 24"
        ),
        "q_large_orders": (
            "SELECT c.c_custkey, c.c_name, o.o_orderkey, o.o_totalprice,"
            " q.sum_qty FROM"
            " (SELECT l_orderkey, sum(CAST(round(l_quantity) AS BIGINT))"
            "::BIGINT AS sum_qty FROM lineitem GROUP BY 1"
            " HAVING sum_qty > 300) q"
            " JOIN orders o ON o.o_orderkey = q.l_orderkey"
            " JOIN customer c ON c.c_custkey = o.o_custkey"
        ),
        "q_k_anonymity": (
            "SELECT c_nationkey, c_mktsegment, count(*)::BIGINT AS n"
            " FROM customer GROUP BY 1, 2 HAVING count(*) < 10"
        ),
        "q_props_stats": (
            "WITH e AS (SELECT event_type,"
            " CAST(json_extract(props, '$.k') AS BIGINT) AS k"
            " FROM events)"
            " SELECT event_type, count(*)::BIGINT AS n,"
            " sum(k)::BIGINT AS sum_k, min(k)::BIGINT AS min_k,"
            " max(k)::BIGINT AS max_k FROM e WHERE k IS NOT NULL"
            " GROUP BY event_type"
        ),
        "q_ks_by_source": (
            "WITH c AS (SELECT source, n_chars AS v, count(*)::BIGINT"
            " AS n FROM documents GROUP BY 1, 2),"
            " srcs AS (SELECT source, sum(n)::BIGINT AS ns FROM c"
            " GROUP BY 1),"
            " vals AS (SELECT DISTINCT v FROM c),"
            " tot AS (SELECT v, sum(n)::BIGINT AS n FROM c GROUP BY 1),"
            " nn AS (SELECT sum(n)::BIGINT AS n FROM c),"
            " grid AS (SELECT s.source, s.ns, vals.v,"
            " coalesce(c.n, 0)::BIGINT AS nsv, tot.n AS ntv"
            " FROM srcs s CROSS JOIN vals"
            " JOIN tot ON tot.v = vals.v"
            " LEFT JOIN c ON c.source = s.source AND c.v = vals.v),"
            " cum AS (SELECT source, ns,"
            " (sum(nsv) OVER (PARTITION BY source ORDER BY v))::BIGINT"
            " AS cs,"
            " (sum(ntv) OVER (PARTITION BY source ORDER BY v))::BIGINT"
            " AS ct FROM grid)"
            " SELECT source, ns AS n,"
            " CASE WHEN (SELECT n FROM nn) - ns = 0 THEN NULL ELSE"
            " round(max(abs(CAST(cs AS DOUBLE) / CAST(ns AS DOUBLE)"
            " - CAST(ct - cs AS DOUBLE)"
            " / CAST((SELECT n FROM nn) - ns AS DOUBLE))), 6)"
            " END AS ks_d FROM cum GROUP BY source, ns"
        ),
        "q_mannwhitney_lang": (
            "WITH c AS (SELECT lang, n_chars AS v, count(*)::BIGINT"
            " AS n FROM documents GROUP BY 1, 2),"
            " tot AS (SELECT v, sum(n)::BIGINT AS n FROM c GROUP BY 1),"
            " r AS (SELECT v, n, (sum(n) OVER (ORDER BY v))::BIGINT"
            " AS cum FROM tot),"
            " ar AS (SELECT v, CAST(cum - n AS DOUBLE)"
            " + CAST(n + 1 AS DOUBLE) / 2.0 AS avg_rank FROM r)"
            " SELECT c.lang, sum(c.n)::BIGINT AS n,"
            " round(sum(CAST(c.n AS DOUBLE) * ar.avg_rank)"
            " - CAST(sum(c.n) AS DOUBLE)"
            " * CAST(sum(c.n) + 1 AS DOUBLE) / 2.0, 6) AS u_stat"
            " FROM c JOIN ar ON ar.v = c.v GROUP BY c.lang"
        ),
        "q_weighted_median_qty": (
            "WITH g AS (SELECT l_returnflag, l_quantity AS v,"
            " sum(CAST(round(l_extendedprice * 100) AS BIGINT))::BIGINT"
            " AS w FROM lineitem GROUP BY 1, 2),"
            " c AS (SELECT l_returnflag, v,"
            " (sum(w) OVER (PARTITION BY l_returnflag ORDER BY v))"
            "::BIGINT AS cw,"
            " (sum(w) OVER (PARTITION BY l_returnflag))::BIGINT AS tw"
            " FROM g)"
            " SELECT l_returnflag, CAST(min(v) AS DOUBLE)"
            " AS wmedian_qty FROM c WHERE 2 * cw >= tw"
            " GROUP BY l_returnflag"
        ),
        "q_normalize_docs": f"SELECT doc_id, {NORM_SQL} AS norm_text FROM documents",
        "q_langid": "WITH c AS (SELECT doc_id, len(regexp_extract_all(text, '\\b(der|die|und|das|ein|ist|nicht)\\b')) AS c_de, len(regexp_extract_all(text, '\\b(the|and|of|to|a|in|is)\\b')) AS c_en, len(regexp_extract_all(text, '\\b(el|los|de|y|que|en|es)\\b')) AS c_es, len(regexp_extract_all(text, '\\b(le|la|et|les|des|un|est)\\b')) AS c_fr, len(regexp_extract_all(text, '\\b(de|shi|le|zai|you|wo|ta)\\b')) AS c_zh FROM documents) SELECT doc_id, CASE WHEN c_de >= c_en AND c_de >= c_es AND c_de >= c_fr AND c_de >= c_zh THEN 'de' WHEN c_en >= c_es AND c_en >= c_fr AND c_en >= c_zh THEN 'en' WHEN c_es >= c_fr AND c_es >= c_zh THEN 'es' WHEN c_fr >= c_zh THEN 'fr' ELSE 'zh' END AS pred_lang, round(greatest(c_de, c_en, c_es, c_fr, c_zh) * 1.0 / greatest(c_de + c_en + c_es + c_fr + c_zh, 1), 6) AS lang_conf FROM c",

        "q_token_count": (
            "SELECT doc_id, len(regexp_extract_all(text, '[a-z0-9]+')) AS n_tokens"
            " FROM documents"
        ),
        # same RE2 pattern as textstats.BPE_TOKEN_RE ('' = escaped quote)
        "q_bpe_token_count": (
            "SELECT doc_id, len(regexp_extract_all(text,"
            " '''[a-z]+| ?[a-z0-9]+| ?[^a-z0-9 \\t\\n\\r]+')) AS n_bpe_tokens"
            " FROM documents"
        ),
        "q_quality": (
            "SELECT doc_id,"
            " len(regexp_extract_all(text, '[a-z0-9]+')) AS n_tokens,"
            " round(len(regexp_extract_all(text, '[a-z]')) * 1.0"
            "   / greatest(length(text), 1), 6) AS alpha_ratio,"
            " round(least(len(regexp_extract_all(text, '[a-z0-9]+')) / 100.0, 1.0)"
            "   * (len(regexp_extract_all(text, '[a-z]')) * 1.0"
            "   / greatest(length(text), 1)), 6) AS quality_score"
            " FROM documents"
        ),
        "q_word_entropy": (
            "WITH tok AS (SELECT doc_id,"
            " unnest(regexp_extract_all(text, '[a-z0-9]+')) AS w"
            " FROM documents),"
            " c AS (SELECT doc_id, w, count(*) * 1.0 AS c"
            "  FROM tok GROUP BY 1, 2),"
            " p AS (SELECT doc_id, c,"
            "  sum(c) OVER (PARTITION BY doc_id) AS n FROM c),"
            " h AS (SELECT doc_id,"
            "  -sum((c / n) * log2(c / n)) AS h FROM p GROUP BY doc_id)"
            " SELECT d.doc_id,"
            " round(COALESCE(h.h, 0.0), 6) + 0.0 AS word_entropy"
            " FROM documents d LEFT JOIN h ON d.doc_id = h.doc_id"
        ),
        "q_bigram_lm_score": (
            "WITH tok AS (SELECT doc_id,"
            " unnest(regexp_extract_all(text, '[a-z0-9]+')) AS w,"
            " unnest(range(len(regexp_extract_all(text, '[a-z0-9]+'))))"
            "  AS i FROM documents),"
            " bg AS (SELECT doc_id, w AS w1,"
            "  lead(w) OVER (PARTITION BY doc_id ORDER BY i) AS w2"
            "  FROM tok QUALIFY w2 IS NOT NULL),"
            " bc AS (SELECT w1, w2, count(*) AS c FROM bg GROUP BY 1, 2),"
            " ctx AS (SELECT w1, sum(c) AS c1 FROM bc GROUP BY 1),"
            " vv AS (SELECT count(DISTINCT w) AS v FROM tok),"
            " sc AS (SELECT bg.doc_id,"
            "  ln((bc.c + 1.0) / (ctx.c1 + vv.v)) AS lp"
            "  FROM bg CROSS JOIN vv"
            "  JOIN bc ON bg.w1 = bc.w1 AND bg.w2 = bc.w2"
            "  JOIN ctx ON bg.w1 = ctx.w1)"
            " SELECT doc_id, round(avg(lp), 6) AS mean_logprob,"
            " count(*) AS n_bigrams FROM sc GROUP BY doc_id"
        ),
        "q_gopher_rules": (
            "WITH b AS (SELECT doc_id,"
            " len(regexp_extract_all(text, '\\S+')) AS n_words,"
            " len(regexp_extract_all(text, '\\S')) AS nonspace,"
            " len(regexp_extract_all(text, '#'))"
            "  + len(regexp_extract_all(text, '…'))"
            "  + len(regexp_extract_all(text, '\\.\\.\\.')) AS symbols,"
            " len(regexp_extract_all(text, '\\S*[A-Za-z]\\S*'))"
            "  AS alpha_words,"
            " string_split(text, chr(10)) AS lines,"
            " (CASE WHEN regexp_matches(text, '\\bthe\\b') THEN 1 ELSE 0 END"
            "  + CASE WHEN regexp_matches(text, '\\bbe\\b') THEN 1 ELSE 0 END"
            "  + CASE WHEN regexp_matches(text, '\\bto\\b') THEN 1 ELSE 0 END"
            "  + CASE WHEN regexp_matches(text, '\\bof\\b') THEN 1 ELSE 0 END"
            "  + CASE WHEN regexp_matches(text, '\\band\\b') THEN 1 ELSE 0 END"
            "  + CASE WHEN regexp_matches(text, '\\bthat\\b') THEN 1 ELSE 0 END"
            "  + CASE WHEN regexp_matches(text, '\\bhave\\b') THEN 1 ELSE 0 END"
            "  + CASE WHEN regexp_matches(text, '\\bwith\\b') THEN 1 ELSE 0 END"
            " )::BIGINT AS stopword_hits FROM documents),"
            " c AS (SELECT doc_id, n_words, stopword_hits,"
            " round(nonspace * 1.0 / greatest(n_words, 1), 6) AS mean_word_len,"
            " round(symbols * 1.0 / greatest(n_words, 1), 6) AS symbol_ratio,"
            " round(alpha_words * 1.0 / greatest(n_words, 1), 6)"
            "  AS alpha_word_ratio,"
            " round(len(list_filter(lines,"
            "  l -> regexp_matches(l, '^[ \t]*[-*•]'))) * 1.0 / len(lines), 6)"
            "  AS bullet_line_ratio,"
            " round(len(list_filter(lines,"
            "  l -> regexp_matches(l, '(\\.\\.\\.|…)[ \t]*$'))) * 1.0"
            "  / len(lines), 6) AS ellipsis_line_ratio FROM b)"
            " SELECT doc_id, n_words, mean_word_len, symbol_ratio,"
            " alpha_word_ratio, bullet_line_ratio, ellipsis_line_ratio,"
            " stopword_hits,"
            " (n_words BETWEEN 50 AND 100000"
            "  AND mean_word_len BETWEEN 3 AND 10 AND symbol_ratio <= 0.1"
            "  AND alpha_word_ratio >= 0.8 AND bullet_line_ratio <= 0.9"
            "  AND ellipsis_line_ratio <= 0.3 AND stopword_hits >= 2)"
            "  AS gopher_keep FROM c"
        ),
        "q_temperature_weights": (
            "WITH tc AS (SELECT lang,"
            " sum(len(regexp_extract_all(text, '[a-z0-9]+')))::BIGINT"
            "  AS n_tokens FROM documents GROUP BY lang),"
            " t AS (SELECT sum(n_tokens) * 1.0 AS s FROM tc),"
            " p AS (SELECT lang, n_tokens, n_tokens / s AS pl FROM tc, t),"
            " z AS (SELECT sum(pow(pl, 0.7)) AS zz FROM p)"
            " SELECT lang, n_tokens, round(pow(pl, 0.7) / zz, 6) AS weight,"
            " round(pow(pl, 0.7) / zz / pl, 6) AS upsample FROM p, z"
        ),
        "q_dsir_scores": (
            "WITH tok AS (SELECT doc_id, lang,"
            " unnest(regexp_extract_all(text, '[a-z0-9]+')) AS w,"
            " unnest(range(len(regexp_extract_all(text, '[a-z0-9]+'))))"
            "  AS i FROM documents),"
            " bi AS (SELECT doc_id, lang,"
            "  w || ' ' || lead(w) OVER (PARTITION BY doc_id ORDER BY i)"
            "  AS g FROM tok QUALIFY g IS NOT NULL),"
            " grams AS (SELECT doc_id, lang, w AS g FROM tok"
            "  UNION ALL SELECT doc_id, lang, g FROM bi),"
            " b AS (SELECT doc_id, lang,"
            "  ('0x' || substr(md5(g), 1, 8))::UBIGINT % 1024 AS bkt"
            "  FROM grams),"
            " tcnt AS (SELECT bkt, count(*) AS c FROM b WHERE lang = 'en'"
            "  GROUP BY bkt),"
            " ccnt AS (SELECT bkt, count(*) AS c FROM b GROUP BY bkt),"
            " ts AS (SELECT sum(c) * 1.0 AS s FROM tcnt),"
            " cs AS (SELECT sum(c) * 1.0 AS s FROM ccnt),"
            " lr AS (SELECT r.range AS bkt,"
            "  ln((COALESCE(t.c, 0) + 1.0) / (ts.s + 1024))"
            "   - ln((COALESCE(c2.c, 0) + 1.0) / (cs.s + 1024)) AS lr"
            "  FROM range(1024) r"
            "  LEFT JOIN tcnt t ON r.range = t.bkt"
            "  LEFT JOIN ccnt c2 ON r.range = c2.bkt, ts, cs)"
            " SELECT b.doc_id, round(sum(lr.lr), 6) AS dsir_score,"
            " count(*) AS n_grams FROM b JOIN lr ON b.bkt = lr.bkt"
            " GROUP BY b.doc_id"
        ),
        "q_quality_zscore": (
            "WITH q AS (SELECT doc_id, lang,"
            " round(least(len(regexp_extract_all(text, '[a-z0-9]+')) / 100.0,"
            "  1.0) * (len(regexp_extract_all(text, '[a-z]')) * 1.0"
            "  / greatest(length(text), 1)), 6) AS quality_score"
            " FROM documents),"
            " m AS (SELECT lang, count(*) AS n, sum(quality_score) AS s,"
            "  sum(quality_score * quality_score) AS ss FROM q GROUP BY 1),"
            " st AS (SELECT lang, s / n AS mean,"
            "  sqrt(greatest(ss / n - (s / n) * (s / n), 0.0)) AS sd FROM m)"
            " SELECT q.doc_id, q.lang, q.quality_score,"
            " CASE WHEN st.sd > 0"
            "  THEN round((q.quality_score - st.mean) / st.sd, 6)"
            "  ELSE 0.0 END AS z"
            " FROM q JOIN st USING (lang)"
        ),
        "q_token_budget": (
            "WITH t AS (SELECT doc_id, source,"
            " CAST(len(regexp_extract_all(text, '[a-z0-9]+')) AS BIGINT)"
            "  AS n_tokens FROM documents)"
            " SELECT doc_id, source, n_tokens FROM t"
            " QUALIFY sum(n_tokens) OVER (PARTITION BY source"
            "  ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id"
            "  ROWS UNBOUNDED PRECEDING) <= 800"
        ),
        "q_distinct_langs": "SELECT DISTINCT lang FROM documents",
        "q_top_tokens": (
            "SELECT token, count(*) AS n FROM ("
            " SELECT unnest(regexp_extract_all(text, '[a-z0-9]+')) AS token"
            " FROM documents)"
            " GROUP BY token ORDER BY n DESC, token LIMIT 20"
        ),
        "q_duplicate_ngrams": (
            "WITH toks AS (SELECT doc_id,"
            " regexp_extract_all(text, '[a-z0-9]+') AS t FROM documents),"
            " g AS (SELECT doc_id, unnest(range(0, len(t) - 7)) AS pos, t"
            "  FROM toks),"
            " gr AS (SELECT doc_id, pos,"
            "  array_to_string(t[pos+1:pos+8], ' ') AS gram FROM g),"
            " r AS (SELECT doc_id, pos, row_number() OVER"
            "  (PARTITION BY gram ORDER BY doc_id, pos) AS rn FROM gr)"
            " SELECT doc_id, pos FROM r WHERE rn > 1"
        ),
        "q_remove_dup_ngrams": (
            "WITH toks AS (SELECT doc_id,"
            " regexp_extract_all(text, '[a-z0-9]+') AS t FROM documents),"
            " g AS (SELECT doc_id, unnest(range(0, len(t) - 7)) AS pos, t"
            "  FROM toks),"
            " gr AS (SELECT doc_id, pos,"
            "  array_to_string(t[pos+1:pos+8], ' ') AS gram FROM g),"
            " r AS (SELECT doc_id, pos, row_number() OVER"
            "  (PARTITION BY gram ORDER BY doc_id, pos) AS rn FROM gr),"
            " dup AS (SELECT doc_id, pos FROM r WHERE rn > 1),"
            " cov AS (SELECT DISTINCT doc_id,"
            "  pos + unnest(range(0, 8)) AS ti FROM dup),"
            " tok AS (SELECT doc_id, unnest(range(0, len(t))) AS ti, t"
            "  FROM toks),"
            " w AS (SELECT doc_id, ti, t[ti+1] AS w FROM tok),"
            " keep AS (SELECT w.doc_id, w.ti, w.w FROM w LEFT JOIN cov"
            "  ON w.doc_id = cov.doc_id AND w.ti = cov.ti"
            "  WHERE cov.ti IS NULL),"
            " s AS (SELECT doc_id, string_agg(w, ' ' ORDER BY ti)"
            "  AS text_clean FROM keep GROUP BY doc_id)"
            " SELECT d.doc_id, coalesce(s.text_clean, '') AS text_clean"
            " FROM documents d LEFT JOIN s ON d.doc_id = s.doc_id"
        ),
        "q_bm25": (
            "WITH toks AS (SELECT doc_id,"
            " regexp_extract_all(text, '[a-z0-9]+') AS t FROM documents),"
            " dl AS (SELECT doc_id, len(t) AS dlen FROM toks),"
            " st AS (SELECT count(*) AS n, avg(dlen) AS avgdl FROM dl),"
            " tf AS (SELECT doc_id, w AS term, count(*) AS tf FROM"
            "  (SELECT doc_id, unnest(t) AS w FROM toks)"
            "  WHERE w IN ('merge', 'scan', 'window')"
            "  GROUP BY doc_id, w),"
            " dfx AS (SELECT term, count(*) AS df FROM tf GROUP BY term),"
            " sc AS (SELECT tf.doc_id,"
            "  sum(ln((st.n - dfx.df + 0.5) / (dfx.df + 0.5) + 1)"
            "   * tf.tf * 2.2 / (tf.tf + 1.2 *"
            "   (1 - 0.75 + 0.75 * dl.dlen / st.avgdl))) AS s"
            "  FROM tf JOIN dfx USING (term)"
            "  JOIN dl ON tf.doc_id = dl.doc_id CROSS JOIN st"
            "  GROUP BY tf.doc_id)"
            " SELECT doc_id, round(s, 6) AS score FROM sc"
            " ORDER BY round(s, 6) DESC, doc_id LIMIT 10"
        ),
        "q_cross_source_dups": (
            "WITH d AS (SELECT DISTINCT text, source FROM documents),"
            " p AS (SELECT a.source AS source_a, b.source AS source_b"
            "  FROM d a JOIN d b ON a.text = b.text"
            "  AND a.source < b.source)"
            " SELECT source_a, source_b, count(*) AS n_shared_texts"
            " FROM p GROUP BY source_a, source_b"
        ),
        "q_dup_spans": (
            "WITH toks AS (SELECT doc_id,"
            " regexp_extract_all(text, '[a-z0-9]+') AS t FROM documents),"
            " g AS (SELECT doc_id, unnest(range(0, len(t) - 7)) AS pos, t"
            "  FROM toks),"
            " gr AS (SELECT doc_id, pos,"
            "  array_to_string(t[pos+1:pos+8], ' ') AS gram FROM g),"
            " r AS (SELECT doc_id, pos, row_number() OVER"
            "  (PARTITION BY gram ORDER BY doc_id, pos) AS rn FROM gr),"
            " dup AS (SELECT doc_id, pos, pos + 8 AS e FROM r WHERE rn > 1),"
            " m AS (SELECT doc_id, pos, e, max(e) OVER"
            "  (PARTITION BY doc_id ORDER BY pos"
            "   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)"
            "  AS prev_max FROM dup),"
            " f AS (SELECT doc_id, pos, e, CASE WHEN prev_max IS NULL"
            "  OR pos > prev_max THEN 1 ELSE 0 END AS ni FROM m),"
            " grp AS (SELECT doc_id, pos, e, sum(ni) OVER"
            "  (PARTITION BY doc_id ORDER BY pos"
            "   ROWS UNBOUNDED PRECEDING) AS gid FROM f)"
            " SELECT doc_id, min(pos) AS span_start, max(e) AS span_end,"
            " count(*) AS n_grams FROM grp GROUP BY doc_id, gid"
        ),
        "q_dup_coverage": (
            "WITH toks AS (SELECT doc_id,"
            " regexp_extract_all(text, '[a-z0-9]+') AS t FROM documents),"
            " g AS (SELECT doc_id, unnest(range(0, len(t) - 7)) AS pos, t"
            "  FROM toks),"
            " gr AS (SELECT doc_id, pos,"
            "  array_to_string(t[pos+1:pos+8], ' ') AS gram FROM g),"
            " r AS (SELECT doc_id, pos, row_number() OVER"
            "  (PARTITION BY gram ORDER BY doc_id, pos) AS rn FROM gr),"
            " dup AS (SELECT doc_id, pos FROM r WHERE rn > 1),"
            " cov AS (SELECT DISTINCT doc_id,"
            "  pos + unnest(range(0, 8)) AS ti FROM dup),"
            " c AS (SELECT doc_id, count(*) AS n_cov FROM cov"
            "  GROUP BY doc_id),"
            " nt AS (SELECT doc_id, len(t) AS n_tok FROM toks)"
            " SELECT nt.doc_id, coalesce(c.n_cov, 0) AS n_covered,"
            " nt.n_tok AS n_tokens,"
            " round(coalesce(c.n_cov, 0) / greatest(nt.n_tok, 1), 6)"
            "  AS dup_ratio"
            " FROM nt LEFT JOIN c ON nt.doc_id = c.doc_id"
        ),
        "q_quality_percentile": (
            "WITH q AS (SELECT doc_id,"
            " round(least(len(regexp_extract_all(text, '[a-z0-9]+')) / 100.0,"
            "  1.0) * (len(regexp_extract_all(text, '[a-z]')) * 1.0"
            "  / greatest(length(text), 1)), 6) AS quality_score"
            " FROM documents)"
            " SELECT doc_id, quality_score,"
            " round(percent_rank() OVER (ORDER BY quality_score), 6)"
            "  AS quality_pct FROM q"
        ),
        "q_inverted_index": (
            "WITH tok AS (SELECT doc_id, unnest(regexp_extract_all(text,"
            " '[a-z0-9]+')) AS token FROM documents),"
            " per AS (SELECT token, doc_id, count(*) AS tf FROM tok"
            "  GROUP BY token, doc_id)"
            " SELECT token, count(*) AS doc_freq,"
            " sum(tf)::BIGINT AS total_tf,"
            " array_to_string(list_slice(list_sort(list(doc_id)), 1, 32), ',')"
            "  AS postings"
            " FROM per GROUP BY token"
        ),
        "q_pmi_pairs": (
            "WITH allt AS (SELECT doc_id, unnest(regexp_extract_all(text,"
            " '[a-z0-9]+')) AS token FROM documents),"
            " vocab AS (SELECT token FROM allt GROUP BY token"
            "  ORDER BY count(*) DESC, token LIMIT 100),"
            " dt AS (SELECT DISTINCT doc_id, token FROM allt"
            "  WHERE token IN (SELECT token FROM vocab)),"
            " df AS (SELECT token, count(*) AS d FROM dt GROUP BY token),"
            " co AS (SELECT a.token AS ta, b.token AS tb, count(*) AS n_co"
            "  FROM dt a JOIN dt b USING (doc_id) WHERE a.token < b.token"
            "  GROUP BY 1, 2 HAVING count(*) >= 5)"
            " SELECT ta AS token_a, tb AS token_b, n_co,"
            " round(ln(n_co * 1.0 * (SELECT count(*) FROM documents)"
            "  / (da.d * db.d)), 6) AS pmi"
            " FROM co JOIN df da ON da.token = co.ta"
            " JOIN df db ON db.token = co.tb"
            " ORDER BY pmi DESC, token_a, token_b LIMIT 50"
        ),
        "q_top_bigrams": (
            "WITH toks AS (SELECT regexp_extract_all(text, '[a-z0-9]+') AS t"
            " FROM documents),"
            " bi AS (SELECT unnest(list_transform(range(1, len(t)),"
            "  i -> t[i] || ' ' || t[i+1])) AS bigram"
            "  FROM toks WHERE len(t) >= 2)"
            " SELECT bigram, count(*) AS n FROM bi"
            " GROUP BY bigram ORDER BY n DESC, bigram LIMIT 20"
        ),
        "q_line_dedup": (
            "WITH toks AS (SELECT doc_id,"
            " regexp_extract_all(text, '[a-z0-9]+') AS t FROM documents),"
            " st AS (SELECT doc_id, t, unnest(range(0, len(t), 16)) AS start"
            "  FROM toks WHERE len(t) > 0),"
            " lines AS (SELECT doc_id, start // 16 AS line_idx,"
            "  array_to_string(t[start+1:start+16], ' ') AS line FROM st),"
            " keep AS (SELECT doc_id, line_idx, line, row_number() OVER"
            "  (PARTITION BY line ORDER BY doc_id, line_idx) AS rn FROM lines)"
            " SELECT doc_id,"
            " string_agg(line, ' ' ORDER BY line_idx) AS dedup_text,"
            " count(*) AS n_kept FROM keep WHERE rn = 1 GROUP BY doc_id"
        ),
        # same injection rule and RE2 patterns as q_redact_pii's Ray side
        "q_redact_pii": (
            "WITH inj AS (SELECT doc_id, text"
            " || CASE WHEN doc_id % 3 != 0 THEN ' mail user' || doc_id ||"
            "    '@mail.example' ELSE '' END"
            " || CASE WHEN doc_id % 2 = 0 THEN ' call 555-' ||"
            "    (doc_id % 10000) ELSE '' END"
            " || CASE WHEN doc_id % 5 = 0 THEN ' host 10.0.' ||"
            "    (doc_id % 256) || '.7' ELSE '' END AS t FROM documents)"
            " SELECT doc_id,"
            " regexp_replace(regexp_replace(regexp_replace(t,"
            "  '[a-z0-9._%+-]+@[a-z0-9.-]+\\.[a-z]{2,}', '<EMAIL>', 'g'),"
            "  '\\b[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\b',"
            "  '<IP>', 'g'),"
            "  '\\b555-[0-9]{1,4}\\b', '<PHONE>', 'g') AS clean_text,"
            " len(regexp_extract_all(t,"
            "  '[a-z0-9._%+-]+@[a-z0-9.-]+\\.[a-z]{2,}')) AS n_emails,"
            " len(regexp_extract_all(t,"
            "  '\\b[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\b'))"
            "  AS n_ips,"
            " len(regexp_extract_all(t, '\\b555-[0-9]{1,4}\\b')) AS n_phones"
            " FROM inj"
        ),
        # the score derivation is q_quality's; cuts are global terciles
        "q_quality_buckets": (
            "WITH s AS (SELECT doc_id,"
            " round(least(len(regexp_extract_all(text, '[a-z0-9]+')) / 100.0,"
            "  1.0) * (len(regexp_extract_all(text, '[a-z]')) * 1.0"
            "  / greatest(length(text), 1)), 6) AS quality_score"
            " FROM documents),"
            " c AS (SELECT quantile_cont(quality_score, 0.3333333333333333)"
            "  AS c1, quantile_cont(quality_score, 0.6666666666666666) AS c2"
            "  FROM s)"
            " SELECT doc_id, quality_score,"
            " CASE WHEN quality_score <= c1 THEN 'tail'"
            "  WHEN quality_score <= c2 THEN 'middle'"
            "  ELSE 'head' END AS bucket FROM s, c"
        ),
        "q_mixture_sample": (
            "WITH w(source, wt) AS (VALUES ('src0', 0.5), ('src1', 0.25),"
            " ('src2', 0.25)),"
            " n AS (SELECT source, count(*) AS n_g FROM documents"
            "  GROUP BY source),"
            " k AS (SELECT w.source, least(n.n_g, CAST(floor(w.wt /"
            "  (SELECT sum(wt) FROM w) * 200) AS BIGINT)) AS k_g"
            "  FROM w JOIN n USING (source)),"
            " r AS (SELECT d.doc_id, d.source, k.k_g, row_number() OVER"
            "  (PARTITION BY d.source ORDER BY"
            "   md5(CAST(d.doc_id AS VARCHAR)), d.doc_id) AS rn"
            "  FROM documents d JOIN k USING (source))"
            " SELECT doc_id, source FROM r WHERE rn <= k_g"
        ),
        "q_top_docs_per_lang": (
            "SELECT lang, doc_id, n_chars FROM documents"
            " QUALIFY row_number() OVER"
            " (PARTITION BY lang ORDER BY n_chars DESC, doc_id) <= 3"
        ),
        "q_value_quantiles_by_type": (
            "SELECT event_type,"
            " quantile_cont(value, 0.25) AS q25,"
            " quantile_cont(value, 0.5) AS q50,"
            " quantile_cont(value, 0.75) AS q75,"
            " quantile_cont(value, 0.95) AS q95"
            " FROM events GROUP BY event_type"
        ),
        "q_chunk_documents": (
            "WITH toks AS (SELECT doc_id,"
            " regexp_extract_all(text, '[a-z0-9]+') AS t FROM documents),"
            " st AS (SELECT doc_id, t, unnest(range(0, len(t), 48)) AS start"
            "  FROM toks WHERE len(t) > 0)"
            " SELECT doc_id, start // 48 AS chunk_idx,"
            " array_to_string(t[start+1:start+64], ' ') AS chunk_text,"
            " least(64, len(t) - start) AS n_tokens FROM st"
        ),
        "q_profile_events": (
            "SELECT 'event_id' AS \"column\", count(*) AS n_rows,"
            " count(*) - count(event_id) AS n_nulls,"
            " CAST(min(event_id) AS DOUBLE) AS num_min,"
            " CAST(max(event_id) AS DOUBLE) AS num_max,"
            " CAST(NULL AS VARCHAR) AS str_min,"
            " CAST(NULL AS VARCHAR) AS str_max FROM events"
            " UNION ALL SELECT 'user_id', count(*),"
            " count(*) - count(user_id),"
            " CAST(min(user_id) AS DOUBLE), CAST(max(user_id) AS DOUBLE),"
            " NULL, NULL FROM events"
            " UNION ALL SELECT 'value', count(*), count(*) - count(value),"
            " min(value), max(value), NULL, NULL FROM events"
            " UNION ALL SELECT 'event_type', count(*),"
            " count(*) - count(event_type), NULL, NULL,"
            " min(event_type), max(event_type) FROM events"
        ),
        "q_lm_score": (
            "WITH tok AS (SELECT doc_id,"
            " unnest(regexp_extract_all(text, '[a-z0-9]+')) AS t"
            " FROM documents),"
            " vocab AS (SELECT t, count(*) AS c FROM tok GROUP BY t),"
            " tot AS (SELECT sum(c) AS n, count(*) AS v FROM vocab),"
            " sc AS (SELECT tok.doc_id,"
            "  ln((vocab.c + 1.0) / (tot.n + tot.v)) AS lp"
            "  FROM tok, tot JOIN vocab ON tok.t = vocab.t)"
            " SELECT doc_id, round(avg(lp), 6) AS mean_logprob,"
            " count(*) AS n_tok FROM sc GROUP BY doc_id"
        ),
        "q_lm_score_topn": (
            "WITH tok AS (SELECT doc_id,"
            " unnest(regexp_extract_all(text, '[a-z0-9]+')) AS t"
            " FROM documents),"
            " vocab AS (SELECT t, count(*) AS c FROM tok GROUP BY t),"
            " tot AS (SELECT sum(c) AS n, count(*) AS v FROM vocab),"
            " top AS (SELECT t, c FROM vocab ORDER BY c DESC, t LIMIT 256),"
            " topstat AS (SELECT sum(c) AS tm, count(*) AS nt FROM top),"
            " sc AS (SELECT tok.doc_id,"
            "  CASE WHEN top.t IS NOT NULL"
            "   THEN ln((top.c + 1.0) / (tot.n + tot.v))"
            "   ELSE ln(((tot.n - topstat.tm) * 1.0 / (tot.v - topstat.nt)"
            "        + 1.0) / (tot.n + tot.v)) END AS lp"
            "  FROM tok CROSS JOIN tot CROSS JOIN topstat"
            "  LEFT JOIN top ON tok.t = top.t)"
            " SELECT doc_id, round(avg(lp), 6) AS mean_logprob,"
            " count(*) AS n_tok FROM sc GROUP BY doc_id"
        ),
        "q_heavy_hitters": (
            "SELECT token, count(*) AS n_min, count(*) AS n_max FROM ("
            " SELECT unnest(regexp_extract_all(text, '[a-z0-9]+')) AS token"
            " FROM documents)"
            " GROUP BY token ORDER BY n_min DESC, token LIMIT 20"
        ),
        "q_repetition": (
            "WITH toks AS (SELECT doc_id,"
            " regexp_extract_all(text, '[a-z0-9]+') AS t FROM documents),"
            " bi AS (SELECT doc_id, unnest(list_transform(range(1, len(t)),"
            "  i -> t[i] || ' ' || t[i+1])) AS g"
            "  FROM toks WHERE len(t) >= 2),"
            " st AS (SELECT doc_id, count(*) AS total,"
            "  count(DISTINCT g) AS uniq FROM bi GROUP BY doc_id)"
            " SELECT d.doc_id,"
            " round(coalesce(1.0 - uniq * 1.0 / total, 0), 6)"
            " AS dup_bigram_ratio FROM documents d LEFT JOIN st USING(doc_id)"
        ),
        "q_top_tfidf": (
            "WITH tok AS (SELECT doc_id,"
            " unnest(regexp_extract_all(text, '[a-z0-9]+')) AS token"
            " FROM documents),"
            " st AS (SELECT token, count(*) AS n, count(DISTINCT doc_id) AS df"
            "  FROM tok GROUP BY token)"
            " SELECT token, n, df,"
            " round(n * ln((SELECT count(*) FROM documents) * 1.0 / df), 6)"
            " AS tfidf FROM st ORDER BY tfidf DESC, token LIMIT 20"
        ),
        "q_shuffle_rank": (
            "SELECT doc_id, row_number() OVER"
            " (ORDER BY md5(CAST(doc_id AS VARCHAR) || ':7'), doc_id) - 1"
            " AS shuffle_pos FROM documents"
        ),
        # same quality formula as q_quality; threshold = exact median
        "q_quality_gate": (
            "WITH q AS (SELECT"
            " round(least(len(regexp_extract_all(text, '[a-z0-9]+')) / 100.0,"
            "  1.0) * (len(regexp_extract_all(text, '[a-z]')) * 1.0"
            "  / greatest(length(text), 1)), 6) AS quality_score"
            " FROM documents)"
            " SELECT count(*) AS n_total,"
            " CAST(sum(CASE WHEN quality_score >="
            "  (SELECT quantile_cont(quality_score, 0.5) FROM q)"
            "  THEN 1 ELSE 0 END) AS BIGINT) AS n_kept FROM q"
        ),
        # same quality formula as q_quality; split cuts 'cc'/'e6'
        "q_curation_summary": (
            "WITH q AS (SELECT doc_id, text,"
            " len(regexp_extract_all(text, '[a-z0-9]+')) AS n_tokens,"
            " round(least(len(regexp_extract_all(text, '[a-z0-9]+')) / 100.0,"
            "  1.0) * (len(regexp_extract_all(text, '[a-z]')) * 1.0"
            "  / greatest(length(text), 1)), 6) AS quality_score"
            " FROM documents),"
            " f AS (SELECT * FROM q WHERE quality_score >= 0.5),"
            " d AS (SELECT min(doc_id) AS doc_id FROM f GROUP BY text),"
            " s AS (SELECT f.doc_id, f.n_tokens,"
            "  CASE WHEN substr(md5(CAST(f.doc_id AS VARCHAR)),1,2) < 'cc'"
            "   THEN 'train'"
            "  WHEN substr(md5(CAST(f.doc_id AS VARCHAR)),1,2) < 'e6'"
            "   THEN 'valid' ELSE 'test' END AS split"
            "  FROM f JOIN d USING(doc_id))"
            " SELECT split, count(*) AS n_docs,"
            " CAST(sum(n_tokens) AS BIGINT) AS tokens"
            " FROM s GROUP BY split"
        ),
        "q_negative_pairs": (
            "WITH r AS (SELECT doc_id, row_number() OVER"
            " (ORDER BY md5(CAST(doc_id AS VARCHAR) || ':7'), doc_id) - 1"
            " AS p FROM documents),"
            " n AS (SELECT count(*) AS c FROM documents)"
            " SELECT a.doc_id, b.doc_id AS partner_doc_id"
            " FROM r a JOIN n ON TRUE"
            " JOIN r b ON b.p = (a.p + n.c // 2) % n.c"
        ),
        # split cuts = train_test_split fractions (0.8, 0.1): hex 'cc'/'e6'
        "q_decontaminate": (
            "WITH sp AS (SELECT doc_id, text,"
            " CASE WHEN substr(md5(CAST(doc_id AS VARCHAR)),1,2) < 'cc'"
            "  THEN 'train'"
            " WHEN substr(md5(CAST(doc_id AS VARCHAR)),1,2) < 'e6'"
            "  THEN 'valid' ELSE 'test' END AS split FROM documents),"
            " toks AS (SELECT doc_id, split,"
            "  regexp_extract_all(text, '[a-z0-9]+') AS t FROM sp),"
            " grams AS (SELECT doc_id, split,"
            "  unnest(list_transform(range(1, len(t) - 1),"
            "   i -> array_to_string(t[i:i+2], ' '))) AS g"
            "  FROM toks WHERE len(t) >= 3),"
            " ev AS (SELECT DISTINCT g FROM grams WHERE split = 'test')"
            " SELECT doc_id, count(DISTINCT g) AS n_overlap FROM grams"
            " WHERE split = 'train' AND g IN (SELECT g FROM ev)"
            " GROUP BY doc_id"
        ),
        "q_lang_stats": (
            "SELECT lang, count(*) AS n_docs,"
            " round(avg(n_chars), 4) AS avg_chars FROM documents GROUP BY lang"
        ),
        "q_top_sources": (
            "SELECT source, count(*) AS n_docs FROM documents"
            " GROUP BY source ORDER BY n_docs DESC, source LIMIT 5"
        ),
        "q_tenant_stats": (
            "SELECT source, count(*) AS n_docs,"
            " CAST(sum(n_chars) AS BIGINT) AS sum_chars"
            " FROM (SELECT *, 't' || CAST(doc_id % 4 AS VARCHAR) AS tenant_id"
            "  FROM documents)"
            " WHERE tenant_id = 't1' GROUP BY source"
        ),
        "q_exact_dedup": (
            "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text"
        ),
        "q_bloom_novel": (
            "SELECT d.doc_id FROM documents d"
            " WHERE d.doc_id % 3 = 0 AND NOT EXISTS ("
            "SELECT 1 FROM documents s"
            " WHERE s.doc_id % 3 <> 0 AND s.text = d.text)"
        ),
        "q_novel_sharded": (
            "SELECT d.doc_id FROM documents d"
            " WHERE d.doc_id % 3 = 0 AND NOT EXISTS ("
            "SELECT 1 FROM documents s"
            " WHERE s.doc_id % 3 <> 0 AND s.text = d.text)"
        ),
        "q_train_test_split": (
            "SELECT doc_id, CASE"
            " WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 2) < 'cc' THEN 'train'"
            " WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 2) < 'e6' THEN 'valid'"
            " ELSE 'test' END AS split FROM documents"
        ),
        "q_stratified_sample": (
            "SELECT doc_id, lang FROM documents"
            " QUALIFY row_number() OVER (PARTITION BY lang"
            " ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) <= 5"
        ),
        "q_label_centroids": (
            "WITH ex AS (SELECT label,"
            " unnest(CAST(embedding AS DOUBLE[])) AS val,"
            " unnest(range(len(embedding))) AS dim FROM embeddings),"
            " m AS (SELECT label, dim, avg(val) AS mv, count(*) AS n"
            "  FROM ex GROUP BY 1, 2)"
            " SELECT label, CAST(max(n) AS BIGINT) AS n_vecs,"
            " round(sqrt(sum(mv * mv)), 6) AS centroid_norm"
            " FROM m GROUP BY label ORDER BY label"
        ),
        "q_centroid_dist": (
            "WITH ex AS (SELECT vec_id, label,"
            " unnest(CAST(embedding AS DOUBLE[])) AS val,"
            " unnest(range(len(embedding))) AS dim FROM embeddings),"
            " m AS (SELECT label, dim, avg(val) AS mv FROM ex"
            "  GROUP BY 1, 2),"
            " d AS (SELECT ex.vec_id, ex.label,"
            "  sum((ex.val - m.mv) * (ex.val - m.mv)) AS ss FROM ex"
            "  JOIN m ON ex.label = m.label AND ex.dim = m.dim"
            "  GROUP BY 1, 2)"
            " SELECT vec_id, label, round(sqrt(ss), 6) AS dist FROM d"
        ),
        "q_embedding_dups_exact": (
            "WITH base AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb"
            " FROM embeddings),"
            " aug AS (SELECT vec_id, emb FROM base"
            "  UNION ALL"
            "  SELECT vec_id + 100000,"
            "   list_concat(list_transform(emb[1:32], x -> x * 2), emb[33:64])"
            "  FROM base WHERE vec_id % 2 = 0)"
            " SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b,"
            " round(list_cosine_similarity(a.emb, b.emb), 6) AS cos_sim"
            " FROM aug a JOIN aug b ON a.vec_id < b.vec_id"
            " AND list_cosine_similarity(a.emb, b.emb) >= 0.8"
            " ORDER BY 1, 2"
        ),
        "q_ann_topk": (
            "SELECT vec_id, round(list_cosine_similarity(CAST(embedding AS DOUBLE[]),"
            " (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings WHERE vec_id = 0)), 6) AS cos_sim"
            " FROM embeddings ORDER BY cos_sim DESC, vec_id LIMIT 10"
        ),
        "q_hybrid_rrf": (
            "WITH toks AS (SELECT doc_id,"
            " regexp_extract_all(text, '[a-z0-9]+') AS t FROM documents),"
            " dl AS (SELECT doc_id, len(t) AS dlen FROM toks),"
            " st AS (SELECT count(*) AS n, avg(dlen) AS avgdl FROM dl),"
            " tf AS (SELECT doc_id, w AS term, count(*) AS tf FROM"
            "  (SELECT doc_id, unnest(t) AS w FROM toks)"
            "  WHERE w IN ('merge', 'scan', 'window')"
            "  GROUP BY doc_id, w),"
            " dfx AS (SELECT term, count(*) AS df FROM tf GROUP BY term),"
            " sc AS (SELECT tf.doc_id,"
            "  sum(ln((st.n - dfx.df + 0.5) / (dfx.df + 0.5) + 1)"
            "   * tf.tf * 2.2 / (tf.tf + 1.2 *"
            "   (1 - 0.75 + 0.75 * dl.dlen / st.avgdl))) AS s"
            "  FROM tf JOIN dfx USING (term)"
            "  JOIN dl ON tf.doc_id = dl.doc_id CROSS JOIN st"
            "  GROUP BY tf.doc_id),"
            " bmr AS (SELECT doc_id, row_number() OVER"
            "  (ORDER BY round(s, 6) DESC, doc_id) AS r FROM sc"
            "  QUALIFY r <= 50),"
            " ca AS (SELECT vec_id,"
            "  round(list_cosine_similarity(CAST(embedding AS DOUBLE[]),"
            "  (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings"
            "   WHERE vec_id = 0)), 6) AS cs FROM embeddings),"
            " cr AS (SELECT vec_id AS doc_id, row_number() OVER"
            "  (ORDER BY cs DESC, vec_id) AS r FROM ca QUALIFY r <= 50),"
            " f AS (SELECT COALESCE(b.doc_id, c.doc_id) AS doc_id,"
            "  round(COALESCE(1.0 / (60 + b.r), 0)"
            "   + COALESCE(1.0 / (60 + c.r), 0), 6) AS rrf_score,"
            "  COALESCE(b.r, 0) AS bm25_rank, COALESCE(c.r, 0) AS cos_rank"
            "  FROM bmr b FULL OUTER JOIN cr c ON b.doc_id = c.doc_id)"
            " SELECT doc_id, rrf_score, bm25_rank, cos_rank FROM f"
            " ORDER BY rrf_score DESC, doc_id LIMIT 10"
        ),
        "q_window_counts": (
            "SELECT event_type,"
            " CAST(floor(epoch(ts) / 3600) AS BIGINT) AS window_id,"
            " count(*) AS n_events, round(sum(value), 6) AS value_sum"
            " FROM events GROUP BY 1, 2"
        ),
        "q_first_events_per_user": (
            "SELECT user_id, event_id FROM events"
            " QUALIFY row_number() OVER ("
            " PARTITION BY user_id ORDER BY ts, event_id) <= 3"
        ),
        "q_value_histogram": (
            "SELECT CAST(floor(value / 10.0) AS BIGINT) AS bucket,"
            " count(*) AS n_events FROM events GROUP BY 1"
        ),
        "q_running_total": (
            "SELECT event_id, round(sum(value) OVER ("
            " PARTITION BY user_id ORDER BY ts, event_id), 6) AS running_value"
            " FROM events"
        ),
        "q_event_gaps": (
            "SELECT event_id, epoch_us(ts) - lag(epoch_us(ts)) OVER w AS gap_us"
            " FROM events"
            " WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)"
            " QUALIFY lag(ts) OVER w IS NOT NULL"
        ),
        "q_rolling_avg": (
            "SELECT event_id, round(avg(value) OVER ("
            " PARTITION BY user_id ORDER BY ts, event_id"
            " ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 6) AS rolling_avg"
            " FROM events"
        ),
        "q_distinct_texts_per_source": (
            "SELECT source, count(*) AS n_rows,"
            " count(DISTINCT text) AS n_distinct"
            " FROM documents GROUP BY source"
        ),
        "q_sessions": (
            "SELECT user_id, count(*) AS n_events,"
            " CAST(sum(new_s) AS BIGINT) AS n_sessions FROM ("
            "  SELECT user_id,"
            "  CASE WHEN lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL"
            "    OR ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)"
            "       > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_s FROM events)"
            " GROUP BY user_id"
        ),
        "q_price_quantiles": (
            "SELECT l_returnflag,"
            " round(quantile_cont(l_extendedprice, 0.5), 2) AS median_price,"
            " round(quantile_cont(l_extendedprice, 0.95), 2) AS p95_price"
            " FROM lineitem GROUP BY l_returnflag"
        ),
        "q_pricing": (
            "SELECT l_returnflag, l_linestatus,"
            " round(sum(l_quantity), 2) AS sum_qty,"
            " round(sum(l_extendedprice), 0) AS sum_base_price,"
            " round(sum(l_extendedprice * (1 - l_discount)), 0) AS sum_disc_price,"
            " count(*) AS n_rows FROM lineitem"
            " WHERE l_shipdate <= TIMESTAMP '1998-09-02'"
            " GROUP BY l_returnflag, l_linestatus"
        ),
        "q_asof_view_before_click": (
            "SELECT c.event_id, v.ts AS matched_ts"
            " FROM (SELECT * FROM events WHERE event_type = 'click') c"
            " ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'view') v"
            " ON c.user_id = v.user_id AND c.ts >= v.ts"
        ),
        "q_views_before_click": (
            "SELECT c.event_id, count(v.ts) AS n_in_range"
            " FROM (SELECT * FROM events WHERE event_type = 'click') c"
            " LEFT JOIN (SELECT * FROM events WHERE event_type = 'view') v"
            " ON c.user_id = v.user_id"
            " AND v.ts >= c.ts - INTERVAL 1 HOUR AND v.ts < c.ts"
            " GROUP BY c.event_id"
        ),
        "q_customers_no_orders": (
            "SELECT c.c_custkey FROM customer c"
            " LEFT JOIN (SELECT DISTINCT o_custkey FROM orders"
            "  WHERE o_totalprice > 300000) o"
            " ON c.c_custkey = o.o_custkey WHERE o.o_custkey IS NULL"
        ),
        "q_sliding_windows": (
            "SELECT event_type, window_id, count(*) AS n_events,"
            " round(sum(value), 6) AS value_sum FROM ("
            "  SELECT event_type, value,"
            "  unnest(generate_series("
            "    CAST(floor((epoch_us(ts) - 3600000000) / 900000000.0) AS BIGINT) + 1,"
            "    CAST(floor(epoch_us(ts) / 900000000.0) AS BIGINT))) AS window_id"
            "  FROM events) GROUP BY 1, 2"
        ),
        "q_top_events": (
            "SELECT event_id, value FROM events"
            " ORDER BY value DESC, event_id LIMIT 20"
        ),
        "q_lineitem_agg": (
            "SELECT l_returnflag, round(sum(l_quantity), 2) AS sum_qty,"
            " round(avg(l_discount), 6) AS avg_disc,"
            " round(max(l_extendedprice), 2) AS max_price,"
            " count(*) AS n_rows FROM lineitem GROUP BY l_returnflag"
        ),
        "q_orders_by_nation": (
            "SELECT c.c_nationkey AS nation, count(*) AS n_orders,"
            " round(sum(o.o_totalprice), 2) AS total_spent"
            " FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey"
            " GROUP BY c.c_nationkey"
        ),
        "q_orders_by_nation_bucketed": (
            "SELECT c.c_nationkey AS nation, count(*) AS n_orders,"
            " round(sum(o.o_totalprice), 2) AS total_spent"
            " FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey"
            " GROUP BY c.c_nationkey"
        ),
        "q_top_customers": (
            "SELECT o.o_custkey AS c_custkey, any_value(c.c_name) AS c_name,"
            " round(sum(o.o_totalprice), 2) AS total_spent,"
            " count(*) AS n_orders"
            " FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey"
            " GROUP BY o.o_custkey ORDER BY total_spent DESC, c_custkey LIMIT 10"
        ),
        "q_revenue_by_customer": (
            "SELECT c.c_custkey, any_value(c.c_name) AS c_name,"
            " round(sum(l.l_extendedprice * (1 - l.l_discount)), 0) AS revenue"
            " FROM customer c"
            " JOIN orders o ON c.c_custkey = o.o_custkey"
            " JOIN lineitem l ON o.o_orderkey = l.l_orderkey"
            " WHERE l.l_returnflag = 'R'"
            " GROUP BY c.c_custkey ORDER BY revenue DESC, c_custkey LIMIT 20"
        ),
        "q_event_type_lift": (
            "WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),"
            " n AS (SELECT count(DISTINCT user_id) AS nu FROM events),"
            " s AS (SELECT event_type, count(*) AS c FROM ut"
            " GROUP BY event_type),"
            " p AS (SELECT a.event_type AS type_a, b.event_type AS type_b,"
            " count(*) AS c_ab FROM ut a JOIN ut b ON a.user_id = b.user_id"
            " AND a.event_type < b.event_type GROUP BY type_a, type_b)"
            " SELECT type_a, type_b, p.c_ab AS n_users_both,"
            " round((CAST(p.c_ab AS DOUBLE) * n.nu) /"
            " (CAST(sa.c AS DOUBLE) * sb.c), 6) AS lift"
            " FROM p, n"
            " JOIN s sa ON sa.event_type = p.type_a"
            " JOIN s sb ON sb.event_type = p.type_b"
        ),
        # exact integer-cents sums on both sides: float subtotal sums land
        # on .50 and round differently per accumulation order (caught at
        # sf0.01 by the two-scale sweep)
        "q_orders_rollup": (
            "SELECT coalesce(CAST(year(o_orderdate) AS VARCHAR), 'ALL')"
            " AS year, coalesce(o_orderpriority, 'ALL') AS priority,"
            " count(*) AS n_orders,"
            " round(sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0,"
            " 0) AS revenue FROM orders"
            " GROUP BY ROLLUP(year(o_orderdate), o_orderpriority)"
        ),
        "q_js_divergence": (
            "WITH tok AS (SELECT source, unnest(regexp_extract_all(text,"
            " '[a-z0-9]+')) AS t FROM documents),"
            " cnt AS (SELECT source, t, count(*) AS n FROM tok"
            " GROUP BY source, t),"
            " tot AS (SELECT source, CAST(sum(n) AS DOUBLE) AS N FROM cnt"
            " GROUP BY source),"
            " p AS (SELECT c.source, c.t, c.n / tot.N AS p FROM cnt c"
            " JOIN tot ON c.source = tot.source),"
            " pairs AS (SELECT a.source AS sa, b.source AS sb FROM tot a"
            " JOIN tot b ON a.source < b.source),"
            " tv AS (SELECT pr.sa, pr.sb, v.t, coalesce(a.p, 0) AS pa,"
            " coalesce(b.p, 0) AS pb FROM pairs pr"
            " CROSS JOIN (SELECT DISTINCT t FROM cnt) v"
            " LEFT JOIN p a ON a.source = pr.sa AND a.t = v.t"
            " LEFT JOIN p b ON b.source = pr.sb AND b.t = v.t"
            " WHERE coalesce(a.p, 0) + coalesce(b.p, 0) > 0)"
            " SELECT sa AS src_a, sb AS src_b,"
            " round(sum(0.5 * (CASE WHEN pa > 0 THEN"
            " pa * ln(2 * pa / (pa + pb)) ELSE 0 END"
            " + CASE WHEN pb > 0 THEN pb * ln(2 * pb / (pa + pb))"
            " ELSE 0 END)) / ln(2), 6) AS js_bits"
            " FROM tv GROUP BY sa, sb"
        ),
        "q_weighted_sample": (
            "WITH s AS (SELECT doc_id, n_chars,"
            " ('0x' || substr(md5(CAST(doc_id AS VARCHAR) || ':7'), 1, 8))"
            "::UBIGINT / 4294967296.0 AS u FROM documents)"
            " SELECT doc_id,"
            " round(pow(u, 1.0 / n_chars), 6) AS sample_score FROM s"
            " ORDER BY pow(u, 1.0 / n_chars) DESC, doc_id LIMIT 100"
        ),
        "q_range_window_sum": (
            "SELECT event_id, round(sum(value) OVER (PARTITION BY user_id"
            " ORDER BY ts RANGE BETWEEN INTERVAL 1 HOUR PRECEDING"
            " AND CURRENT ROW), 6) AS range_sum FROM events"
        ),
        "q_new_users_by_day": (
            "SELECT strftime(date_trunc('day', first_ts), '%Y-%m-%d') AS day,"
            " count(*) AS n_new_users FROM (SELECT user_id, min(ts) AS"
            " first_ts FROM events GROUP BY user_id) GROUP BY day"
        ),
        "q_funnel": (
            "WITH t1 AS (SELECT user_id, min(ts) AS t1 FROM events"
            " WHERE event_type = 'view' GROUP BY user_id),"
            " t2 AS (SELECT e.user_id, min(e.ts) AS t2 FROM events e"
            " JOIN t1 ON e.user_id = t1.user_id AND e.ts > t1.t1"
            " WHERE e.event_type = 'click' GROUP BY e.user_id),"
            " t3 AS (SELECT e.user_id, min(e.ts) AS t3 FROM events e"
            " JOIN t2 ON e.user_id = t2.user_id AND e.ts > t2.t2"
            " WHERE e.event_type = 'purchase' GROUP BY e.user_id)"
            " SELECT (SELECT count(*) FROM t1) AS n_stage1,"
            " (SELECT count(*) FROM t2) AS n_stage2,"
            " (SELECT count(*) FROM t3) AS n_stage3"
        ),
        "q_supplier_volume": (
            "SELECT n_name,"
            " round(sum(l_extendedprice * (1 - l_discount)), 0) AS revenue"
            " FROM customer, orders, lineitem, supplier, nation, region"
            " WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey"
            " AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey"
            " AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey"
            " AND r_name = 'ASIA'"
            " AND o_orderdate >= TIMESTAMP '1995-01-01'"
            " AND o_orderdate < TIMESTAMP '1996-01-01'"
            " GROUP BY n_name ORDER BY revenue DESC, n_name"
        ),
        "q_nation_pagerank": _pagerank_sql(n_iter=5, d=0.85),
        "q_corr_by_group": (
            "SELECT l_returnflag,"
            " round(corr(l_quantity, l_extendedprice), 6) AS corr_xy"
            " FROM lineitem GROUP BY l_returnflag"
        ),
        "q_value_shape": (
            "SELECT event_type, round(skewness(value), 6) AS skew,"
            " round(kurtosis(value), 6) AS kurt"
            " FROM events GROUP BY event_type"
        ),
        "q_doc_ntiles": (
            "SELECT doc_id, lang,"
            " ntile(4) OVER (PARTITION BY lang ORDER BY n_chars, doc_id)"
            " AS tile FROM documents"
        ),
        "q_length_outliers": (
            "WITH m AS (SELECT lang, quantile_cont(n_chars, 0.5) AS med"
            " FROM documents GROUP BY lang),"
            " d AS (SELECT doc_id, documents.lang AS lang,"
            " abs(n_chars - med) AS ad FROM documents"
            " JOIN m ON documents.lang = m.lang),"
            " md AS (SELECT lang, quantile_cont(ad, 0.5) AS mad"
            " FROM d GROUP BY lang)"
            " SELECT d.doc_id, d.lang,"
            " CASE WHEN d.ad > 3.0 * md.mad THEN 1 ELSE 0 END AS is_outlier"
            " FROM d JOIN md ON d.lang = md.lang"
        ),
        # all-integer crosstab (SQL PIVOT ... IN semantics)
        "q_pivot_lang_by_source": (
            "SELECT source,"
            " sum(CASE WHEN lang = 'de' THEN 1 ELSE 0 END)::BIGINT AS n_de,"
            " sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)::BIGINT AS n_en,"
            " sum(CASE WHEN lang = 'es' THEN 1 ELSE 0 END)::BIGINT AS n_es,"
            " sum(CASE WHEN lang = 'fr' THEN 1 ELSE 0 END)::BIGINT AS n_fr,"
            " sum(CASE WHEN lang = 'zh' THEN 1 ELSE 0 END)::BIGINT AS n_zh"
            " FROM documents GROUP BY source"
        ),
        # (ts, event_id) makes the order total, so row_number is
        # deterministic and the survivor set is engine-independent
        "q_compact_latest": (
            "SELECT event_id, ts, user_id, event_type, value, props"
            " FROM events QUALIFY row_number() OVER ("
            " PARTITION BY user_id, event_type"
            " ORDER BY ts DESC, event_id DESC) = 1"
        ),
        # rank-form Gini: sum(rn * x) is invariant to tie order (equal x
        # share the index block), so any ORDER BY n_chars reproduces it;
        # integer aggregates, one float division, 6dp
        "q_gini_by_source": (
            "WITH r AS (SELECT source, n_chars, row_number() OVER ("
            " PARTITION BY source ORDER BY n_chars) AS rn FROM documents)"
            " SELECT source, round((2 * sum(rn * n_chars) -"
            " (count(*) + 1) * sum(n_chars)) /"
            " (count(*) * sum(n_chars)), 6) AS gini"
            " FROM r GROUP BY source"
        ),
        # DuckDB levenshtein is BYTE-based (levenshtein('café','cafe')=2),
        # matching the engine's UTF-8-byte DP; strlen is bytes too
        "q_edit_pairs": (
            "SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,"
            " levenshtein(a.text, b.text)::BIGINT AS dist,"
            " round(1 - levenshtein(a.text, b.text)::DOUBLE /"
            "  greatest(strlen(a.text), strlen(b.text)), 6) AS sim"
            " FROM documents a JOIN documents b"
            " ON a.lang = b.lang AND a.source = b.source"
            " AND a.n_chars // 10 = b.n_chars // 10"
            " AND a.doc_id < b.doc_id"
        ),
        # components == maximal same-length-bucket runs per (lang,
        # source) stream: the gaps-and-islands window form is exact
        "q_length_islands": (
            "WITH s AS (SELECT doc_id, lang, source,"
            "  CASE WHEN lag(n_chars // 100) OVER w = n_chars // 100"
            "   THEN 0 ELSE 1 END AS brk,"
            "  row_number() OVER w AS rn"
            " FROM documents WINDOW w AS ("
            "  PARTITION BY lang, source ORDER BY doc_id)),"
            " g AS (SELECT doc_id, lang, source,"
            "  sum(brk) OVER (PARTITION BY lang, source ORDER BY rn) AS isl"
            " FROM s)"
            " SELECT doc_id, min(doc_id) OVER ("
            "  PARTITION BY lang, source, isl) AS component FROM g"
        ),
        "q_modal_event_type": (
            "SELECT user_id, event_type, n FROM ("
            " SELECT user_id, event_type, count(*)::BIGINT AS n"
            " FROM events GROUP BY user_id, event_type)"
            " QUALIFY row_number() OVER (PARTITION BY user_id"
            " ORDER BY n DESC, event_type) = 1"
        ),
        # commutative integer sum of the pinned md5 32-bit prefix ->
        # order-independent, bit-exact cross-engine checksum
        "q_source_fingerprint": (
            "SELECT source, count(*)::BIGINT AS n_rows,"
            " sum(('0x' || substr(md5(text), 1, 8))::UBIGINT)::BIGINT"
            "  AS checksum"
            " FROM documents GROUP BY source"
        ),
        # distinct (user, day) first so every count is a plain count(*)
        # over set-semantics rows; engine mirrors day = ts // 86400e6
        "q_retention": (
            "WITH ud AS (SELECT DISTINCT user_id,"
            "  date_trunc('day', ts) AS day FROM events),"
            " f AS (SELECT user_id, min(day) AS d0 FROM ud GROUP BY user_id)"
            " SELECT strftime(f.d0, '%Y-%m-%d') AS cohort_day,"
            " count(DISTINCT f.user_id)::BIGINT AS n_users,"
            " count(DISTINCT CASE WHEN ud.day = f.d0 + INTERVAL 1 DAY"
            "  THEN ud.user_id END)::BIGINT AS ret_1,"
            " count(DISTINCT CASE WHEN ud.day = f.d0 + INTERVAL 7 DAY"
            "  THEN ud.user_id END)::BIGINT AS ret_7"
            " FROM f JOIN ud ON ud.user_id = f.user_id"
            " GROUP BY f.d0"
        ),
        "q_ref_integrity": (
            "SELECT 'orders.o_custkey->customer' AS fk,"
            " count(*)::BIGINT AS n_keys,"
            " sum(CASE WHEN c_custkey IS NULL THEN 1 ELSE 0 END)::BIGINT"
            "  AS n_orphans"
            " FROM (SELECT DISTINCT o_custkey FROM orders) o"
            " LEFT JOIN customer ON o_custkey = c_custkey"
            " UNION ALL"
            " SELECT 'lineitem.l_orderkey->orders', count(*)::BIGINT,"
            " sum(CASE WHEN o_orderkey IS NULL THEN 1 ELSE 0 END)::BIGINT"
            " FROM (SELECT DISTINCT l_orderkey FROM lineitem) l"
            " LEFT JOIN orders ON l_orderkey = o_orderkey"
            " UNION ALL"
            " SELECT 'lineitem.l_suppkey->supplier', count(*)::BIGINT,"
            " sum(CASE WHEN s_suppkey IS NULL THEN 1 ELSE 0 END)::BIGINT"
            " FROM (SELECT DISTINCT l_suppkey FROM lineitem) l"
            " LEFT JOIN supplier ON l_suppkey = s_suppkey"
        ),
        # exact integer-cents revenue (the rollup contract); the LIMIT
        # tie-break is total (cents, date, orderkey) on both engines
        "q_returned_items": (
            "SELECT c_custkey, c_name,"
            " sum(CAST(round(l_extendedprice * (1 - l_discount) * 100)"
            "  AS BIGINT)) / 100.0 AS revenue, c_acctbal, n_name"
            " FROM customer, orders, lineitem, nation"
            " WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey"
            " AND o_orderdate >= TIMESTAMP '1996-01-01'"
            " AND o_orderdate < TIMESTAMP '1996-04-01'"
            " AND l_returnflag = 'R' AND c_nationkey = n_nationkey"
            " GROUP BY c_custkey, c_name, c_acctbal, n_name"
            " ORDER BY sum(CAST(round(l_extendedprice * (1 - l_discount)"
            "  * 100) AS BIGINT)) DESC, c_custkey LIMIT 20"
        ),
        "q_langid_confusion": ("WITH pred AS (WITH c AS (SELECT doc_id, len(regexp_extract_all(text, '\\b(der|die|und|das|ein|ist|nicht)\\b')) AS c_de, len(regexp_extract_all(text, '\\b(the|and|of|to|a|in|is)\\b')) AS c_en, len(regexp_extract_all(text, '\\b(el|los|de|y|que|en|es)\\b')) AS c_es, len(regexp_extract_all(text, '\\b(le|la|et|les|des|un|est)\\b')) AS c_fr, len(regexp_extract_all(text, '\\b(de|shi|le|zai|you|wo|ta)\\b')) AS c_zh FROM documents) SELECT doc_id AS pid, CASE WHEN c_de >= c_en AND c_de >= c_es AND c_de >= c_fr AND c_de >= c_zh THEN 'de' WHEN c_en >= c_es AND c_en >= c_fr AND c_en >= c_zh THEN 'en' WHEN c_es >= c_fr AND c_es >= c_zh THEN 'es' WHEN c_fr >= c_zh THEN 'fr' ELSE 'zh' END AS pred_lang, round(greatest(c_de, c_en, c_es, c_fr, c_zh) * 1.0 / greatest(c_de + c_en + c_es + c_fr + c_zh, 1), 6) AS lang_conf FROM c) SELECT d.lang, p.pred_lang, count(*)::BIGINT AS n FROM documents d JOIN pred p ON d.doc_id = p.pid GROUP BY 1, 2"),
        "q_psi_by_source": ("WITH s AS (SELECT source, least(CAST(floor(round(least(len(regexp_extract_all(text, '[a-z0-9]+')) / 100.0, 1.0) * (len(regexp_extract_all(text, '[a-z]')) * 1.0 / greatest(length(text), 1)), 6) * 10) AS BIGINT), 9) AS b FROM documents), sb AS (SELECT source, b, count(*)::BIGINT AS n FROM s GROUP BY 1, 2), tot AS (SELECT b, sum(n) AS n FROM sb GROUP BY 1), ns AS (SELECT source, sum(n) AS n FROM sb GROUP BY 1), nn AS (SELECT sum(n) AS n FROM sb), bins AS (SELECT unnest(range(0, 10)) AS b), grid AS (SELECT ns.source, bins.b, coalesce(sb.n, 0) AS nsb, coalesce(tot.n, 0) AS ncb, ns.n AS nsrc FROM ns CROSS JOIN bins LEFT JOIN sb ON sb.source = ns.source AND sb.b = bins.b LEFT JOIN tot ON tot.b = bins.b) SELECT source, round(sum(((nsb + 1.0) / (nsrc + 10.0) - (ncb + 1.0) / ((SELECT n FROM nn) + 10.0)) * ln(((nsb + 1.0) / (nsrc + 10.0)) / ((ncb + 1.0) / ((SELECT n FROM nn) + 10.0)))), 6) AS psi FROM grid GROUP BY source"),
        "q_rolling_corr": (
            "WITH e AS (SELECT event_type, date_trunc('day', ts) AS day"
            " FROM events WHERE event_type IN ('view', 'click')),"
            " c AS (SELECT day,"
            " (count(*) FILTER (WHERE event_type = 'view'))::BIGINT"
            " AS nx,"
            " (count(*) FILTER (WHERE event_type = 'click'))::BIGINT"
            " AS ny FROM e GROUP BY 1),"
            " b AS (SELECT min(day) AS lo, max(day) AS hi FROM e),"
            " days AS (SELECT unnest(generate_series((SELECT lo FROM b),"
            " (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),"
            " g AS (SELECT days.day, coalesce(c.nx, 0) AS nx,"
            " coalesce(c.ny, 0) AS ny FROM days"
            " LEFT JOIN c ON c.day = days.day),"
            " w AS (SELECT day, count(*) OVER win AS wn,"
            " sum(nx) OVER win AS sx, sum(ny) OVER win AS sy,"
            " sum(nx * nx) OVER win AS sxx,"
            " sum(ny * ny) OVER win AS syy,"
            " sum(nx * ny) OVER win AS sxy FROM g WINDOW win AS"
            " (ORDER BY day ROWS BETWEEN 6 PRECEDING AND CURRENT ROW))"
            " SELECT strftime(day, '%Y-%m-%d') AS day,"
            " CASE WHEN (wn * sxx - sx * sx) * (wn * syy - sy * sy) > 0"
            " THEN round(CAST(wn * sxy - sx * sy AS DOUBLE)"
            " / sqrt(CAST((wn * sxx - sx * sx) * (wn * syy - sy * sy)"
            " AS DOUBLE)), 6) END AS roll_corr FROM w"
        ),
        "q_vocab_growth": (
            "WITH r AS (SELECT doc_id, text, row_number() OVER"
            " (ORDER BY md5(CAST(doc_id AS VARCHAR) || ':7'), doc_id) - 1"
            " AS pos FROM documents),"
            " nn AS (SELECT count(*)::BIGINT AS n FROM documents),"
            " tok AS (SELECT pos, unnest(regexp_extract_all(text,"
            " '[a-z0-9]+')) AS token FROM r),"
            " fp AS (SELECT token, min(pos) AS fp FROM tok"
            " GROUP BY token),"
            " d AS (SELECT unnest(range(1, 11)) AS decile)"
            " SELECT decile::BIGINT AS decile,"
            " (SELECT count(*) FROM fp WHERE fp.fp <"
            " CAST(ceil((SELECT n FROM nn) * decile / 10.0) AS BIGINT)"
            " )::BIGINT AS vocab FROM d"
        ),
        "q_welch_t": (
            "WITH g AS (SELECT lang, count(*)::BIGINT AS n,"
            " sum(n_chars)::BIGINT AS s,"
            " sum(n_chars * n_chars)::BIGINT AS q"
            " FROM documents GROUP BY lang),"
            " tot AS (SELECT sum(n) AS tn, sum(s) AS ts, sum(q) AS tq"
            " FROM g),"
            " c AS (SELECT lang, n, CAST(n AS DOUBLE) AS nf,"
            " CAST(s AS DOUBLE) AS sf, CAST(q AS DOUBLE) AS qf,"
            " CAST((SELECT tn FROM tot) - n AS DOUBLE) AS nrf,"
            " CAST((SELECT ts FROM tot) - s AS DOUBLE) AS srf,"
            " CAST((SELECT tq FROM tot) - q AS DOUBLE) AS qrf FROM g),"
            " v AS (SELECT lang, n, nf, nrf, sf / nf AS m,"
            " srf / nrf AS mr,"
            " CASE WHEN n >= 2 THEN (qf - sf * sf / nf) / (nf - 1.0)"
            " END AS v,"
            " CASE WHEN nrf >= 2 THEN (qrf - srf * srf / nrf)"
            " / (nrf - 1.0) END AS vr FROM c)"
            " SELECT lang, n, CASE WHEN v / nf + vr / nrf > 0 THEN"
            " round((m - mr) / sqrt(v / nf + vr / nrf), 6) END AS t_stat,"
            " CASE WHEN v / nf + vr / nrf > 0 THEN"
            " round((v / nf + vr / nrf) * (v / nf + vr / nrf)"
            " / ((v / nf) * (v / nf) / (nf - 1.0)"
            " + (vr / nrf) * (vr / nrf) / (nrf - 1.0)), 6) END AS dof"
            " FROM v"
        ),
        "q_cumulative_users": (
            "WITH f AS (SELECT user_id, min(ts) AS fts FROM events"
            " GROUP BY user_id),"
            " fd AS (SELECT date_trunc('day', fts) AS fday FROM f),"
            " b AS (SELECT min(date_trunc('day', ts)) AS lo,"
            " max(date_trunc('day', ts)) AS hi FROM events),"
            " days AS (SELECT unnest(generate_series((SELECT lo FROM b),"
            " (SELECT hi FROM b), INTERVAL 1 DAY)) AS day)"
            " SELECT strftime(day, '%Y-%m-%d') AS day,"
            " (SELECT count(*) FROM fd WHERE fday <= day)::BIGINT"
            " AS cum_users FROM days"
        ),
        "q_ewma_daily": (
            "WITH RECURSIVE c AS (SELECT event_type,"
            " date_trunc('day', ts) AS day, count(*)::BIGINT AS n"
            " FROM events GROUP BY 1, 2),"
            " b AS (SELECT min(day) AS lo, max(day) AS hi FROM c),"
            " days AS (SELECT unnest(generate_series((SELECT lo FROM b),"
            " (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),"
            " dd AS (SELECT day, CAST(date_diff('day', (SELECT lo FROM b),"
            " day) AS BIGINT) AS i FROM days),"
            " t AS (SELECT DISTINCT event_type FROM events),"
            " grid AS (SELECT t.event_type, dd.day, dd.i,"
            " coalesce(c.n, 0) AS n FROM dd CROSS JOIN t"
            " LEFT JOIN c ON c.day = dd.day"
            " AND c.event_type = t.event_type),"
            " r AS (SELECT event_type, i, day, n, CAST(n AS DOUBLE)"
            " AS ewma FROM grid WHERE i = 0"
            " UNION ALL SELECT g.event_type, g.i, g.day, g.n,"
            " 0.3 * g.n + 0.7 * r.ewma FROM grid g"
            " JOIN r ON g.event_type = r.event_type AND g.i = r.i + 1)"
            " SELECT event_type, strftime(day, '%Y-%m-%d') AS day, n,"
            " round(ewma, 6) AS ewma FROM r"
        ),
        "q_daily_filled": (
            "WITH d AS (SELECT event_type, date_trunc('day', ts) AS day,"
            " count(*)::BIGINT AS n FROM events GROUP BY 1, 2),"
            " b AS (SELECT min(day) AS lo, max(day) AS hi FROM d),"
            " days AS (SELECT unnest(generate_series((SELECT lo FROM b),"
            " (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),"
            " t AS (SELECT DISTINCT event_type FROM events)"
            " SELECT t.event_type, strftime(days.day, '%Y-%m-%d') AS day,"
            " coalesce(d.n, 0) AS n FROM days CROSS JOIN t"
            " LEFT JOIN d ON d.day = days.day"
            " AND d.event_type = t.event_type"
        ),
        "q_shipping_priority": (
            "SELECT l_orderkey, o_orderdate, o_orderpriority,"
            " sum(CAST(round(l_extendedprice * (1 - l_discount) * 100)"
            "  AS BIGINT)) / 100.0 AS revenue"
            " FROM customer, orders, lineitem"
            " WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey"
            " AND l_orderkey = o_orderkey"
            " AND o_orderdate < TIMESTAMP '1995-03-15'"
            " AND l_shipdate > TIMESTAMP '1995-03-15'"
            " GROUP BY l_orderkey, o_orderdate, o_orderpriority"
            " ORDER BY sum(CAST(round(l_extendedprice * (1 - l_discount)"
            "  * 100) AS BIGINT)) DESC, o_orderdate, l_orderkey LIMIT 10"
        ),
        "q_texts_except": (
            "SELECT DISTINCT text FROM documents WHERE source = 'src0'"
            " EXCEPT"
            " SELECT text FROM documents WHERE source <> 'src0'"
        ),
        # (ts, event_id) is a total order -> the path string and the
        # transition counts are engine-independent
        "q_user_paths": (
            "WITH r AS (SELECT user_id, event_type, row_number() OVER ("
            " PARTITION BY user_id ORDER BY ts, event_id) AS rn"
            " FROM events)"
            " SELECT user_id, string_agg(event_type, '->' ORDER BY rn)"
            "  AS path"
            " FROM r WHERE rn <= 20 GROUP BY user_id"
        ),
        "q_event_transitions": (
            "WITH t AS (SELECT event_type, lag(event_type) OVER ("
            " PARTITION BY user_id ORDER BY ts, event_id) AS prev"
            " FROM events)"
            " SELECT prev AS prev_type, event_type AS next_type,"
            " count(*)::BIGINT AS n FROM t WHERE prev IS NOT NULL"
            " GROUP BY prev, event_type"
        ),
        "q_texts_intersect": (
            "SELECT DISTINCT text FROM documents WHERE source = 'src0'"
            " INTERSECT"
            " SELECT text FROM documents WHERE source <> 'src0'"
        ),
        "q_orders_cube": (
            "SELECT coalesce(CAST(year(o_orderdate) AS VARCHAR), 'ALL')"
            " AS year, coalesce(o_orderpriority, 'ALL') AS priority,"
            " count(*) AS n_orders,"
            " round(sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0,"
            " 0) AS revenue FROM orders"
            " GROUP BY CUBE(year(o_orderdate), o_orderpriority)"
        ),
        "q_first_digit": (
            "SELECT source,"
            " CAST(substr(CAST(n_chars AS VARCHAR), 1, 1) AS BIGINT)"
            "  AS digit, count(*)::BIGINT AS n"
            " FROM documents WHERE n_chars > 0 GROUP BY source, digit"
        ),
        # exact quantile_cont cuts (the grouped_quantiles interpolation
        # contract), then a clipped mean, 6dp
        "q_winsorized_value": (
            "WITH c AS (SELECT event_type,"
            " quantile_cont(value, 0.05) AS lo,"
            " quantile_cont(value, 0.95) AS hi"
            " FROM events GROUP BY event_type)"
            " SELECT e.event_type,"
            " round(avg(greatest(c.lo, least(c.hi, e.value))), 6) AS wmean"
            " FROM events e JOIN c ON e.event_type = c.event_type"
            " GROUP BY e.event_type"
        ),
        # all-integer set-overlap math, one division per pair
        "q_vocab_overlap": (
            "WITH tok AS (SELECT source, unnest(regexp_extract_all(text,"
            " '[a-z0-9]+')) AS t FROM documents),"
            " st AS (SELECT DISTINCT source, t FROM tok),"
            " n AS (SELECT source, count(*)::BIGINT AS n FROM st"
            "  GROUP BY source),"
            " co AS (SELECT a.source AS src_a, b.source AS src_b,"
            "  count(*)::BIGINT AS co FROM st a JOIN st b"
            "  ON a.t = b.t AND a.source < b.source GROUP BY 1, 2)"
            " SELECT co.src_a, co.src_b,"
            " round(co.co / (na.n + nb.n - co.co), 6) AS jaccard"
            " FROM co JOIN n na ON na.source = co.src_a"
            " JOIN n nb ON nb.source = co.src_b"
        ),
        "q_systematic_sample": (
            "SELECT doc_id FROM documents QUALIFY"
            " (row_number() OVER (ORDER BY"
            "  md5(CAST(doc_id AS VARCHAR) || ':7'), doc_id) - 1)"
            " % 50 = 0"
        ),
        # x in days since epoch (matches the engine's x_scale)
        "q_value_trend": (
            "SELECT event_type,"
            " round(regr_slope(value, epoch(ts) / 86400.0), 6) AS slope,"
            " round(regr_intercept(value, epoch(ts) / 86400.0), 6)"
            "  AS intercept,"
            " round(regr_r2(value, epoch(ts) / 86400.0), 6) AS r2"
            " FROM events GROUP BY event_type"
        ),
        "q_daily_pct_change": (
            "WITH d AS (SELECT event_type, date_trunc('day', ts) AS day,"
            " count(*)::BIGINT AS n FROM events GROUP BY 1, 2),"
            " w AS (SELECT event_type, day, n, lag(n) OVER ("
            " PARTITION BY event_type ORDER BY day) AS prev FROM d)"
            " SELECT event_type, strftime(day, '%Y-%m-%d') AS day, n,"
            " round((n - prev) / (1.0 * prev), 6) AS pct_change"
            " FROM w WHERE prev IS NOT NULL"
        ),
        "q_geomean_length": (
            "SELECT lang, round(exp(avg(ln(n_chars))), 6) AS geomean"
            " FROM documents WHERE n_chars > 0 GROUP BY lang"
        ),
        # dates are midnight-aligned, so integer epoch-day diff ==
        # calendar date_diff
        "q_ship_latency": (
            "WITH j AS (SELECT o_orderpriority,"
            " date_diff('day', o_orderdate, l_shipdate) AS d"
            " FROM lineitem JOIN orders ON l_orderkey = o_orderkey)"
            " SELECT o_orderpriority,"
            " round(quantile_cont(d, 0.5), 6) AS q50,"
            " round(quantile_cont(d, 0.95), 6) AS q95"
            " FROM j GROUP BY o_orderpriority"
        ),
        "q_dup_cluster_histogram": (
            "SELECT c AS cluster_size, count(*)::BIGINT AS n_clusters"
            " FROM (SELECT count(*)::BIGINT AS c FROM documents"
            " GROUP BY text) GROUP BY c"
        ),
        # e = ns*nl/N; sorted-lang accumulation on both engines
        "q_source_balance_chi2": (
            "WITH c AS (SELECT source, lang, count(*)::BIGINT AS o"
            " FROM documents GROUP BY source, lang),"
            " s AS (SELECT source, sum(o)::BIGINT AS ns FROM c"
            "  GROUP BY source),"
            " l AS (SELECT lang, sum(o)::BIGINT AS nl FROM c"
            "  GROUP BY lang),"
            " t AS (SELECT sum(o)::BIGINT AS n FROM c),"
            " grid AS (SELECT s.source, l.lang, s.ns, l.nl, t.n,"
            "  coalesce(c.o, 0) AS o FROM s CROSS JOIN l CROSS JOIN t"
            "  LEFT JOIN c ON c.source = s.source AND c.lang = l.lang)"
            " SELECT source, round(sum(pow(o - ns * nl / (1.0 * n), 2)"
            "  / (ns * nl / (1.0 * n)) ORDER BY lang), 6) AS chi2"
            " FROM grid GROUP BY source"
        ),
    }


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class KeySet:
    """Row rule: the output's ``column`` holds exactly the values of
    ``sql``'s first column, as a multiset (so the row count too)."""

    column: str
    sql: str


@dataclass(frozen=True)
class Q:
    """One registered query; its name is its function's.

    ``rows`` is the check of a query with no ``oracle_sql()`` entry. An
    int is its row count at every scale; a str is DuckDB SQL over the
    scale's views whose one value is the count; a dict pins a
    data-dependent count per scale directory (its basename; sf0.001
    equals the tests/goldens row count); a :class:`KeySet` pins a
    column's values. ``golden`` marks a pinned
    tests/goldens/<name>.sf0.001.parquet snapshot
    (tools/make_query_goldens.py); ``bench=False`` keeps the query out of
    bench.py's timings.
    """

    fn: Callable
    rows: int | str | dict | KeySet | None = None
    golden: bool = False
    bench: bool = True

    @property
    def name(self) -> str:
        return self.fn.__name__


def _registered(records: tuple) -> tuple:
    """Refuse a record without exactly one check that can fail (an
    oracle or a row rule), a duplicate name, and an oracle with no
    record."""
    oracles = oracle_sql()
    names = [r.name for r in records]
    dup = {n for n in names if names.count(n) > 1}
    if dup:
        raise ValueError(f"duplicate records: {sorted(dup)}")
    for r in records:
        if r.name in oracles and r.rows is not None:
            raise ValueError(f"{r.name}: has both an oracle and a row rule")
        if r.name not in oracles and r.rows is None:
            raise ValueError(f"{r.name}: has neither an oracle nor a row rule")
    stray = set(oracles) - set(names)
    if stray:
        raise ValueError(f"oracle_sql() entries with no record: {sorted(stray)}")
    return records


_DOCS = "SELECT count(*) FROM documents"

# Order is the correctness gate's sample schedule: a round checks only
# the first ~50 entries of queries(). Oracle-bearing queries that no
# CORRECTNESS_r*.json has recorded come first, then the rest, least
# recently recorded first (by round, then by place in that round's
# record). queries() moves the rows-only records after the oracle ones.
REGISTRY = _registered((
    Q(q_xmr_chart),
    Q(q_hour_dow),
    Q(q_cohort_matrix),
    Q(q_partition_balance),
    Q(q_crosstab_residuals),
    Q(q_odds_ratio),
    Q(q_bollinger_daily),
    Q(q_kaplan_meier),
    Q(q_diversity),
    Q(q_containment_pairs),
    Q(q_decile_shares),
    Q(q_kmv_overlap),
    Q(q_hhi_by_nation),
    Q(q_cume_dist),
    Q(q_kfold_stats),
    Q(q_length_auc),
    Q(q_mann_kendall),
    Q(q_acf_daily),
    Q(q_zipf_slope),
    Q(q_source_lang_mi),
    Q(q_hapax_by_source),
    Q(q_xcorr_daily),
    Q(q_cusum_daily),
    Q(q_dow_profile),
    Q(q_snm_pairs),
    Q(q_burstiness),
    Q(q_holt_daily),
    Q(q_kendall_len_words),
    Q(q_kruskal_len_by_lang),
    Q(q_triangles),
    Q(q_jw_pairs),
    Q(q_theil_sen),
    Q(q_profile_docs),
    Q(q_last_purchase),
    Q(q_rolling_median),
    Q(q_changepoint),
    Q(q_stl_daily),
    Q(q_flesch),
    Q(q_digit_ztest),
    Q(q_token_jaccard),
    Q(q_q6_revenue),
    Q(q_large_orders),
    Q(q_k_anonymity),
    Q(q_promo_revenue),
    Q(q_nation_profit),
    Q(q_priority_dedup),
    Q(q_top_supplier),
    Q(q_nation_trade),
    Q(q_percent_rank),
    Q(q_custdist),
    Q(q_small_qty_revenue),
    Q(q_disjunctive_revenue),
    Q(q_sales_opportunity),
    Q(q_important_parts),
    Q(q_market_share),
    Q(q_order_priority),
    Q(q_priority_lines),
    Q(q_waiting_suppliers),
    Q(q_part_suppliers),
    Q(q_min_cost_supplier),
    Q(q_accelerating_suppliers),
    Q(q_snapshot_diff),
    Q(q_main_content),
    Q(q_leakage_split),
    Q(q_c4_filter),
    Q(q_spearman_docs),
    Q(q_langid_kappa),
    Q(q_langid_calibration),
    Q(q_props_stats),
    Q(q_ks_by_source),
    Q(q_mannwhitney_lang),
    Q(q_weighted_median_qty),
    Q(q_nation_pagerank),
    Q(q_returned_items),
    Q(q_daily_filled),
    Q(q_ewma_daily),
    Q(q_cumulative_users),
    Q(q_welch_t),
    Q(q_vocab_growth),
    Q(q_langid_confusion),
    Q(q_rolling_corr),
    Q(q_psi_by_source),
    Q(q_user_paths),
    Q(q_event_transitions),
    Q(q_winsorized_value),
    Q(q_value_trend),
    Q(q_daily_pct_change),
    Q(q_geomean_length),
    Q(q_ship_latency),
    Q(q_dup_cluster_histogram),
    Q(q_value_shape),
    Q(q_doc_ntiles),
    Q(q_vocab_overlap),
    Q(q_systematic_sample),
    Q(q_source_balance_chi2),
    Q(q_texts_intersect),
    Q(q_orders_cube),
    Q(q_first_digit),
    Q(q_bloom_novel),
    Q(q_novel_sharded),
    Q(q_inverted_index),
    Q(q_pmi_pairs),
    Q(q_quality_percentile),
    Q(q_duplicate_ngrams),
    Q(q_remove_dup_ngrams),
    Q(q_dup_coverage),
    Q(q_dup_spans),
    Q(q_cross_source_dups),
    Q(q_bm25),
    Q(q_centroid_dist),
    Q(q_event_gaps),
    Q(q_rolling_avg),
    Q(q_distinct_texts_per_source),
    Q(q_word_entropy),
    Q(q_token_budget),
    Q(q_quality_zscore),
    Q(q_bigram_lm_score),
    Q(q_gopher_rules),
    Q(q_temperature_weights),
    Q(q_dsir_scores),
    Q(q_hybrid_rrf),
    Q(q_new_users_by_day),
    Q(q_funnel),
    Q(q_supplier_volume),
    Q(q_corr_by_group),
    Q(q_length_outliers),
    Q(q_range_window_sum),
    Q(q_weighted_sample),
    Q(q_js_divergence),
    Q(q_orders_rollup),
    Q(q_event_type_lift),
    Q(q_pivot_lang_by_source),
    Q(q_compact_latest),
    Q(q_gini_by_source),
    Q(q_edit_pairs),
    Q(q_length_islands),
    Q(q_modal_event_type),
    Q(q_source_fingerprint),
    Q(q_retention),
    Q(q_ref_integrity),
    Q(q_shipping_priority),
    Q(q_texts_except),
    Q(q_revenue_by_customer, bench=False),
    Q(q_leakage_split_neardup, rows=_DOCS, golden=True),
    Q(q_embedding_pca, rows="SELECT count(*) FROM embeddings", golden=True),
    # one weight per dimension, intercept, log_loss, accuracy, n
    Q(q_logreg_label,
      rows="SELECT max(len(embedding)) + 4 FROM embeddings", golden=True),
    Q(q_ann_topk_pq, rows=10, golden=True),
    Q(q_audio_features, rows=_DOCS, golden=True),
    Q(q_media_features_jpeg,
      rows={"sf0.001": 190, "sf0.01": 191, "sf0.1": 196}, golden=True),
    Q(q_compression_stats,
      rows="SELECT count(DISTINCT source) FROM documents", golden=True),
    Q(q_image_dups,
      rows={"sf0.001": 17, "sf0.01": 29, "sf0.1": 2450}, golden=True),
    Q(q_cms_token_counts,
      rows={"sf0.001": 31, "sf0.01": 31, "sf0.1": 31}, golden=True),
    Q(q_bpe_merges, rows=40, golden=True, bench=False),
    Q(q_bpe_encode, rows=_DOCS, golden=True),
    Q(q_video_frame_features,
      rows={"sf0.001": 321, "sf0.01": 326, "sf0.1": 326}, golden=True),
    Q(q_video_frame_features_mjpeg,
      rows={"sf0.001": 136, "sf0.01": 121, "sf0.1": 134}, golden=True),
    Q(q_minhash_edit_verified,
      rows={"sf0.001": 28, "sf0.01": 25, "sf0.1": 256}, golden=True),
    Q(q_top_customers, bench=False),
    Q(q_asof_view_before_click),
    Q(q_views_before_click),
    Q(q_customers_no_orders),
    Q(q_sliding_windows),
    Q(q_top_events, bench=False),
    Q(q_lineitem_agg),
    Q(q_orders_by_nation),
    Q(q_orders_by_nation_bucketed, bench=False),
    Q(q_media_features,
      rows={"sf0.001": 364, "sf0.01": 360, "sf0.1": 3670}, golden=True),
    Q(q_extract_flagship, rows=_DOCS, bench=False),
    Q(q_detect_boxes,
      rows={"sf0.001": 1302, "sf0.01": 1382, "sf0.1": 14793},
      golden=True, bench=False),
    Q(q_extract_summary, rows=1, golden=True, bench=False),
    Q(q_sessions),
    Q(q_running_total),
    Q(q_value_histogram, bench=False),
    Q(q_first_events_per_user, bench=False),
    Q(q_approx_distinct_users,
      rows="SELECT count(DISTINCT event_type) FROM events",
      golden=True, bench=False),
    Q(q_pricing),
    Q(q_price_quantiles),
    # no golden: the equi-depth summary's sample points follow block
    # boundaries (num_cpus); TestQuantileSketch pins its accuracy bound
    Q(q_price_quantiles_sketch,
      rows="SELECT count(DISTINCT l_returnflag) FROM lineitem"),
    Q(q_normalize_docs, bench=False),
    Q(q_token_count, bench=False),
    Q(q_quality),
    Q(q_langid, bench=False),
    Q(q_fingerprint, rows=_DOCS, golden=True, bench=False),
    Q(q_bpe_token_count, bench=False),
    Q(q_winnow_fingerprints, rows=_DOCS, golden=True, bench=False),
    Q(q_top_tokens, bench=False),
    Q(q_top_bigrams, bench=False),
    Q(q_top_tfidf, bench=False),
    Q(q_repetition, bench=False),
    Q(q_heavy_hitters, bench=False),
    Q(q_lm_score),
    Q(q_lm_score_topn),
    Q(q_profile_events, bench=False),
    Q(q_chunk_documents, bench=False),
    Q(q_line_dedup),
    Q(q_redact_pii),
    Q(q_top_docs_per_lang),
    Q(q_value_quantiles_by_type),
    Q(q_mixture_sample),
    Q(q_quality_buckets),
    Q(q_lang_stats, bench=False),
    Q(q_distinct_langs, bench=False),
    Q(q_top_sources, bench=False),
    Q(q_tenant_stats, bench=False),
    Q(q_exact_dedup),
    Q(q_stratified_sample, bench=False),
    Q(q_minhash_pairs,
      rows={"sf0.001": 28, "sf0.01": 25, "sf0.1": 256}, golden=True),
    Q(q_minhash_dedup_docs,
      rows={"sf0.001": 476, "sf0.01": 476, "sf0.1": 4758},
      golden=True, bench=False),
    Q(q_simhash_pairs,
      rows={"sf0.001": 27, "sf0.01": 26, "sf0.1": 754}, golden=True),
    Q(q_jaccard_dups,
      rows={"sf0.001": 28, "sf0.01": 25, "sf0.1": 256},
      golden=True, bench=False),
    Q(q_train_test_split, bench=False),
    Q(q_shuffle_rank),
    Q(q_decontaminate, bench=False),
    Q(q_decontaminate_sharded),
    Q(q_negative_pairs, bench=False),
    Q(q_curation_summary),
    Q(q_quality_gate, bench=False),
    Q(q_pack_sequences, rows=_DOCS, golden=True, bench=False),
    Q(q_ann_topk),
    Q(q_ann_topk_lsh,
      rows={"sf0.001": 6, "sf0.01": 6, "sf0.1": 10}, golden=True, bench=False),
    Q(q_ann_topk_ivf, rows=10, golden=True, bench=False),
    Q(q_ann_topk_int8, rows=10, golden=True, bench=False),
    Q(q_label_centroids, bench=False),
    Q(q_kmeans_summary, rows=8, golden=True, bench=False),
    Q(q_semantic_dedup,
      rows={"sf0.001": 501, "sf0.01": 508, "sf0.1": 2071}, golden=True),
    Q(q_embedding_dups,
      rows={"sf0.001": 104, "sf0.01": 106, "sf0.1": 425},
      golden=True, bench=False),
    Q(q_embedding_dups_exact),
    Q(q_window_counts),
    Q(q_tokenizer_fertility),
    Q(q_bloom_semijoin),
    Q(q_llr_bigrams),
    Q(q_line_profile),
    Q(q_spend_gini),
    Q(q_size_price_slope),
    Q(q_streaming_dedup,
      rows=KeySet("doc_id", "SELECT doc_id FROM documents")),
    Q(q_conversion_lag),
    Q(q_dup_bytes),
    Q(q_hour_entropy),
    Q(q_type_user_overlap),
    Q(q_tail_suffixes),
    Q(q_label_margin),
    Q(q_reorder_cadence),
    Q(q_char_classes),
    Q(q_segment_profile),
    Q(q_basket_pairs),
    Q(q_event_trigrams),
    Q(q_utf8_audit),
    Q(q_gap_quantiles),
    Q(q_anova_chars),
    Q(q_brown_forsythe),
    Q(q_interarrival),
    Q(q_repeat_purchase),
    Q(q_segment_migration),
    Q(q_p_chart),
    Q(q_head_prefixes),
    Q(q_gumbel_daily),
    Q(q_dispersion_daily),
    Q(q_runs_test),
    Q(q_vocab_coverage),
    Q(q_parquet_audit, rows=10),
    Q(q_twap),
    Q(q_active_days),
    Q(q_funnel_24h),
    Q(q_scd2),
    Q(q_l_diversity),
    Q(q_value_drift),
    Q(q_zero_runs),
    Q(q_first_touch),
    Q(q_order_sizes),
    Q(q_skyline),
    Q(q_value_disc_quantiles),
    Q(q_heaps_law),
    Q(q_srm),
    Q(q_hill_tail),
    Q(q_wilson_ci),
    Q(q_cond_entropy),
    Q(q_dup_degree),
    Q(q_rfm),
))


def queries() -> dict:
    """Registry, name -> callable(sf_dir): :data:`REGISTRY` in order,
    oracle-bearing records first."""
    return {r.name: r.fn
            for r in sorted(REGISTRY, key=lambda r: r.rows is not None)}
