"""Benchmark driver (driver contract + BASELINE.md protocol).

Default: run the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) in one local Ray session with
num_cpus=$RAY_GRAFT_CPUS (default 32) and print ONE JSON line:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N, ...extras}

--scaling: run the headline extraction in a FRESH subprocess per CPU
level (default num_cpus 1, 2 and 4, never above ``os.cpu_count()``;
GRAFT_SCALE_LEVELS=a,b,... overrides) on the same input and print
throughput at each level, the efficiency of every pair of levels, e.g.
efficiency_1_2 = (docs_s_2 / docs_s_1) / 2, ``cpu_count`` and the
hypervisor steal fraction over the run (local evidence for the
north_rule's two-cluster-size criterion). ``value`` is the lowest
efficiency between neighbouring levels.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def _init_ray(num_cpus: int):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    from ocr_platform_ray.raylog import suppress_empty_sort_schema_warning

    suppress_empty_sort_schema_warning()
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False


def _consume_count(ds) -> int:
    # queries() callables may return a Dataset, a pyarrow Table or a
    # pandas DataFrame (driver contract) — consume whichever arrives
    # (pandas also has a .count(), but it means per-column non-null
    # counts, so dispatch on type rather than attribute)
    import pandas as pd
    import pyarrow as pa

    if isinstance(ds, (pa.Table, pd.DataFrame)):
        return len(ds)
    return ds.count()


def run_headline(sf_dir: str, replicate: int = 1) -> dict:
    """Flagship interleaved extraction; returns timings + throughput.

    ``replicate`` r-folds the derived corpus (distinct ids/seeds) so the
    scaling measurement is compute-dominated, not fixed-overhead-dominated.
    """
    import pyarrow.compute as pc

    from ocr_platform_ray.pipeline import (
        PipelineOptions,
        build_extract_pipeline,
        corpus_from_documents,
    )

    # warm the OS page cache for the input file (untimed, cheap)
    import pyarrow.parquet as pq

    pq.read_table(f"{sf_dir}/documents.parquet")

    t0 = time.perf_counter()
    out = build_extract_pipeline(
        corpus_from_documents(sf_dir, replicate=replicate), opts=PipelineOptions()
    )

    # consume via distributed partial aggregation — an iter_batches loop on
    # the driver throttles the whole pipeline (measured ~2x at 8 CPUs)
    def agg(batch):
        import pyarrow as pa

        return pa.Table.from_pydict(
            {
                "n_docs": [batch.num_rows],
                "n_spans_out": [int(pc.sum(batch.column("n_spans_out")).as_py() or 0)],
                "n_blocks": [int(pc.sum(batch.column("n_blocks")).as_py() or 0)],
            }
        )

    parts = out.map_batches(agg, batch_format="pyarrow").take_all()
    stats = {k: sum(r[k] for r in parts) for k in ("n_docs", "n_spans_out", "n_blocks")}
    wall = time.perf_counter() - t0
    return {
        "extract_sec": round(wall, 3),
        "docs_per_s": round(stats["n_docs"] / wall, 2),
        "image_blocks_per_s": round(stats["n_blocks"] / wall, 2),
        **stats,
    }


def run_queries(sf_dir: str) -> dict:
    """Secondary pipelines (one pass each, seconds).

    Long single-session measurement drifts: after a few hundred
    executed datasets the streaming executor's per-query overhead
    creeps up several-fold (measured 2-10x on this box), so the
    session is RECYCLED every GRAFT_BENCH_RECYCLE queries (default 25;
    0 disables) — bench.py owns the Ray session, so a restart is legal
    here and nowhere else. Each query's number then reflects steady
    state, not session age."""
    import ray

    from ocr_platform_ray import queries as q

    recycle = int(os.environ.get("GRAFT_BENCH_RECYCLE", "25"))
    debug = os.environ.get("GRAFT_BENCH_DEBUG")
    timings = {}
    for name, fn in [
        ("q_pricing", q.q_pricing),
        ("q_window_counts", q.q_window_counts),
        ("q_exact_dedup", q.q_exact_dedup),
        ("q_minhash_pairs", q.q_minhash_pairs),
        ("q_simhash_pairs", q.q_simhash_pairs),
        ("q_ann_topk", q.q_ann_topk),
        ("q_quality", q.q_quality),
        ("q_sessions", q.q_sessions),
        ("q_running_total", q.q_running_total),
        ("q_asof_view_before_click", q.q_asof_view_before_click),
        ("q_views_before_click", q.q_views_before_click),
        ("q_price_quantiles", q.q_price_quantiles),
        ("q_price_quantiles_sketch", q.q_price_quantiles_sketch),
        ("q_embedding_dups_exact", q.q_embedding_dups_exact),
        ("q_customers_no_orders", q.q_customers_no_orders),
        ("q_lineitem_agg", q.q_lineitem_agg),
        ("q_orders_by_nation", q.q_orders_by_nation),
        ("q_sliding_windows", q.q_sliding_windows),
        # round-3 operator-library additions (curation composition, global
        # shuffle rank, LM scoring, semantic dedup)
        ("q_curation_summary", q.q_curation_summary),
        ("q_shuffle_rank", q.q_shuffle_rank),
        ("q_lm_score", q.q_lm_score),
        ("q_semantic_dedup", q.q_semantic_dedup),
        # round-4 scale paths (top-N + OOV LM model, sharded decontam)
        ("q_lm_score_topn", q.q_lm_score_topn),
        ("q_decontaminate_sharded", q.q_decontaminate_sharded),
        # round-4 operator additions (line dedup, PII scrub, per-key
        # top-k / quantiles)
        ("q_line_dedup", q.q_line_dedup),
        ("q_redact_pii", q.q_redact_pii),
        ("q_top_docs_per_lang", q.q_top_docs_per_lang),
        ("q_value_quantiles_by_type", q.q_value_quantiles_by_type),
        ("q_mixture_sample", q.q_mixture_sample),
        ("q_quality_buckets", q.q_quality_buckets),
        # round-5 codec un-stubs (png media path + wav audio features)
        ("q_media_features", q.q_media_features),
        ("q_audio_features", q.q_audio_features),
        ("q_media_features_jpeg", q.q_media_features_jpeg),
        # round-5 corpus-analysis operators (exact oracles)
        ("q_inverted_index", q.q_inverted_index),
        ("q_pmi_pairs", q.q_pmi_pairs),
        ("q_quality_percentile", q.q_quality_percentile),
        ("q_duplicate_ngrams", q.q_duplicate_ngrams),
        ("q_remove_dup_ngrams", q.q_remove_dup_ngrams),
        ("q_video_frame_features", q.q_video_frame_features),
        ("q_dup_coverage", q.q_dup_coverage),
        ("q_dup_spans", q.q_dup_spans),
        ("q_cross_source_dups", q.q_cross_source_dups),
        ("q_bm25", q.q_bm25),
        ("q_centroid_dist", q.q_centroid_dist),
        ("q_event_gaps", q.q_event_gaps),
        ("q_rolling_avg", q.q_rolling_avg),
        ("q_distinct_texts_per_source", q.q_distinct_texts_per_source),
        ("q_word_entropy", q.q_word_entropy),
        ("q_token_budget", q.q_token_budget),
        ("q_quality_zscore", q.q_quality_zscore),
        ("q_bigram_lm_score", q.q_bigram_lm_score),
        ("q_gopher_rules", q.q_gopher_rules),
        ("q_temperature_weights", q.q_temperature_weights),
        ("q_dsir_scores", q.q_dsir_scores),
        ("q_hybrid_rrf", q.q_hybrid_rrf),
        ("q_bpe_encode", q.q_bpe_encode),
        # round-5 batch-2 (cohort/funnel/Q5-join/corr/MAD)
        ("q_new_users_by_day", q.q_new_users_by_day),
        ("q_funnel", q.q_funnel),
        ("q_supplier_volume", q.q_supplier_volume),
        ("q_corr_by_group", q.q_corr_by_group),
        ("q_length_outliers", q.q_length_outliers),
        ("q_image_dups", q.q_image_dups),
        ("q_range_window_sum", q.q_range_window_sum),
        ("q_weighted_sample", q.q_weighted_sample),
        ("q_cms_token_counts", q.q_cms_token_counts),
        ("q_js_divergence", q.q_js_divergence),
        ("q_orders_rollup", q.q_orders_rollup),
        ("q_event_type_lift", q.q_event_type_lift),
        ("q_pivot_lang_by_source", q.q_pivot_lang_by_source),
        ("q_compact_latest", q.q_compact_latest),
        ("q_gini_by_source", q.q_gini_by_source),
        ("q_edit_pairs", q.q_edit_pairs),
        ("q_length_islands", q.q_length_islands),
        ("q_modal_event_type", q.q_modal_event_type),
        ("q_source_fingerprint", q.q_source_fingerprint),
        ("q_compression_stats", q.q_compression_stats),
        ("q_retention", q.q_retention),
        ("q_ref_integrity", q.q_ref_integrity),
        ("q_shipping_priority", q.q_shipping_priority),
        ("q_texts_except", q.q_texts_except),
        ("q_user_paths", q.q_user_paths),
        ("q_event_transitions", q.q_event_transitions),
        ("q_texts_intersect", q.q_texts_intersect),
        ("q_orders_cube", q.q_orders_cube),
        ("q_first_digit", q.q_first_digit),
        ("q_winsorized_value", q.q_winsorized_value),
        ("q_vocab_overlap", q.q_vocab_overlap),
        ("q_systematic_sample", q.q_systematic_sample),
        ("q_source_balance_chi2", q.q_source_balance_chi2),
        ("q_value_trend", q.q_value_trend),
        ("q_daily_pct_change", q.q_daily_pct_change),
        ("q_geomean_length", q.q_geomean_length),
        ("q_ship_latency", q.q_ship_latency),
        ("q_dup_cluster_histogram", q.q_dup_cluster_histogram),
        ("q_minhash_edit_verified", q.q_minhash_edit_verified),
        ("q_video_frame_features_mjpeg", q.q_video_frame_features_mjpeg),
        ("q_value_shape", q.q_value_shape),
        ("q_doc_ntiles", q.q_doc_ntiles),
        ("q_bloom_novel", q.q_bloom_novel),
        ("q_novel_sharded", q.q_novel_sharded),
        ("q_nation_pagerank", q.q_nation_pagerank),
        ("q_embedding_pca", q.q_embedding_pca),
        ("q_logreg_label", q.q_logreg_label),
        ("q_returned_items", q.q_returned_items),
        ("q_daily_filled", q.q_daily_filled),
        ("q_ann_topk_pq", q.q_ann_topk_pq),
        ("q_ewma_daily", q.q_ewma_daily),
        ("q_cumulative_users", q.q_cumulative_users),
        ("q_welch_t", q.q_welch_t),
        ("q_vocab_growth", q.q_vocab_growth),
        ("q_langid_confusion", q.q_langid_confusion),
        ("q_rolling_corr", q.q_rolling_corr),
        ("q_psi_by_source", q.q_psi_by_source),
        ("q_props_stats", q.q_props_stats),
        ("q_ks_by_source", q.q_ks_by_source),
        ("q_mannwhitney_lang", q.q_mannwhitney_lang),
        ("q_weighted_median_qty", q.q_weighted_median_qty),
        ("q_q6_revenue", q.q_q6_revenue),
        ("q_large_orders", q.q_large_orders),
        ("q_k_anonymity", q.q_k_anonymity),
        ("q_promo_revenue", q.q_promo_revenue),
        ("q_nation_profit", q.q_nation_profit),
        ("q_priority_dedup", q.q_priority_dedup),
        ("q_top_supplier", q.q_top_supplier),
        ("q_nation_trade", q.q_nation_trade),
        ("q_percent_rank", q.q_percent_rank),
        ("q_custdist", q.q_custdist),
        ("q_small_qty_revenue", q.q_small_qty_revenue),
        ("q_disjunctive_revenue", q.q_disjunctive_revenue),
        ("q_sales_opportunity", q.q_sales_opportunity),
        ("q_important_parts", q.q_important_parts),
        ("q_market_share", q.q_market_share),
        ("q_order_priority", q.q_order_priority),
        ("q_priority_lines", q.q_priority_lines),
        ("q_waiting_suppliers", q.q_waiting_suppliers),
        ("q_part_suppliers", q.q_part_suppliers),
        ("q_min_cost_supplier", q.q_min_cost_supplier),
        ("q_accelerating_suppliers", q.q_accelerating_suppliers),
        ("q_snapshot_diff", q.q_snapshot_diff),
        ("q_main_content", q.q_main_content),
        ("q_leakage_split", q.q_leakage_split),
        ("q_leakage_split_neardup", q.q_leakage_split_neardup),
        ("q_c4_filter", q.q_c4_filter),
        ("q_spearman_docs", q.q_spearman_docs),
        ("q_langid_kappa", q.q_langid_kappa),
        ("q_langid_calibration", q.q_langid_calibration),
        # round-5 batch-13/14 statistical audits
        ("q_length_auc", q.q_length_auc),
        ("q_mann_kendall", q.q_mann_kendall),
        ("q_acf_daily", q.q_acf_daily),
        ("q_zipf_slope", q.q_zipf_slope),
        ("q_source_lang_mi", q.q_source_lang_mi),
        ("q_hapax_by_source", q.q_hapax_by_source),
        ("q_xcorr_daily", q.q_xcorr_daily),
        ("q_cusum_daily", q.q_cusum_daily),
        ("q_dow_profile", q.q_dow_profile),
        # round-5 batch-16 linkage/point-process
        ("q_snm_pairs", q.q_snm_pairs),
        ("q_burstiness", q.q_burstiness),
        # round-5 batch-17 smoothing/association/graph
        ("q_holt_daily", q.q_holt_daily),
        ("q_kendall_len_words", q.q_kendall_len_words),
        ("q_kruskal_len_by_lang", q.q_kruskal_len_by_lang),
        ("q_triangles", q.q_triangles),
        # round-5 batch-18 string-sim/robust-trend
        ("q_jw_pairs", q.q_jw_pairs),
        ("q_theil_sen", q.q_theil_sen),
        # round-5 batch-19 profiling/features
        ("q_profile_docs", q.q_profile_docs),
        ("q_last_purchase", q.q_last_purchase),
        ("q_rolling_median", q.q_rolling_median),
        # round-5 batch-20 series decomposition
        ("q_changepoint", q.q_changepoint),
        ("q_stl_daily", q.q_stl_daily),
        # round-5 batch-21 readability/rate-test
        ("q_flesch", q.q_flesch),
        ("q_digit_ztest", q.q_digit_ztest),
        # round-5 batch-22 exact set-similarity join
        ("q_token_jaccard", q.q_token_jaccard),
        # round-5 batch-23 sketch-overlap/concentration/window/folds
        ("q_kmv_overlap", q.q_kmv_overlap),
        # round-5 batch-38 repeat purchase
        ("q_repeat_purchase", q.q_repeat_purchase),
        # round-5 batch-37 segment migration
        ("q_segment_migration", q.q_segment_migration),
        # round-5 batch-35/36 extremes/dispersion/randomness/rate-chart/boilerplate
        ("q_gumbel_daily", q.q_gumbel_daily),
        ("q_dispersion_daily", q.q_dispersion_daily),
        ("q_runs_test", q.q_runs_test),
        ("q_p_chart", q.q_p_chart),
        ("q_head_prefixes", q.q_head_prefixes),
        # round-5 batch-39 variance tests / arrival fit
        ("q_anova_chars", q.q_anova_chars),
        ("q_brown_forsythe", q.q_brown_forsythe),
        ("q_interarrival", q.q_interarrival),
        # round-5 batch-40 sequence mining / encoding audit / gap quartiles
        ("q_event_trigrams", q.q_event_trigrams),
        ("q_utf8_audit", q.q_utf8_audit),
        ("q_gap_quantiles", q.q_gap_quantiles),
        # round-5 batch-41 segment algebra / market basket
        ("q_segment_profile", q.q_segment_profile),
        ("q_basket_pairs", q.q_basket_pairs),
        # round-5 batch-42 cadence / char classes
        ("q_reorder_cadence", q.q_reorder_cadence),
        ("q_char_classes", q.q_char_classes),
        # round-5 batch-43 footer boilerplate / label margin
        ("q_tail_suffixes", q.q_tail_suffixes),
        ("q_label_margin", q.q_label_margin),
        # round-5 batch-44 hour entropy / audience overlap
        ("q_hour_entropy", q.q_hour_entropy),
        ("q_type_user_overlap", q.q_type_user_overlap),
        # round-5 batch-45 conversion lag / dup storage waste
        ("q_conversion_lag", q.q_conversion_lag),
        ("q_dup_bytes", q.q_dup_bytes),
        # round-5 batch-46 part elasticity / streaming dedup surface
        ("q_size_price_slope", q.q_size_price_slope),
        ("q_streaming_dedup", q.q_streaming_dedup),
        # round-5 batch-47 line layout / spend gini
        ("q_line_profile", q.q_line_profile),
        ("q_spend_gini", q.q_spend_gini),
        # round-5 batch-48 Dunning LLR collocations
        ("q_llr_bigrams", q.q_llr_bigrams),
        # round-5 batch-49 bloom-pushdown semi join
        ("q_bloom_semijoin", q.q_bloom_semijoin),
        # round-5 batch-50 tokenizer fertility
        ("q_tokenizer_fertility", q.q_tokenizer_fertility),
        # round-5 batch-34 vocab-budget/layout
        ("q_vocab_coverage", q.q_vocab_coverage),
        ("q_parquet_audit", q.q_parquet_audit),
        # round-5 batch-33 twap/engagement
        ("q_twap", q.q_twap),
        ("q_active_days", q.q_active_days),
        # round-5 batch-32 boxed-funnel/scd2
        ("q_funnel_24h", q.q_funnel_24h),
        ("q_scd2", q.q_scd2),
        # round-5 batch-31 privacy/drift
        ("q_l_diversity", q.q_l_diversity),
        ("q_value_drift", q.q_value_drift),
        # round-5 batch-30 gaps/attribution/join-skew
        ("q_zero_runs", q.q_zero_runs),
        ("q_first_touch", q.q_first_touch),
        ("q_order_sizes", q.q_order_sizes),
        # round-5 batch-29 skyline/disc-quantiles
        ("q_skyline", q.q_skyline),
        ("q_value_disc_quantiles", q.q_value_disc_quantiles),
        # round-5 batch-28 heaps/srm/hill/wilson
        ("q_heaps_law", q.q_heaps_law),
        ("q_srm", q.q_srm),
        ("q_hill_tail", q.q_hill_tail),
        ("q_wilson_ci", q.q_wilson_ci),
        # round-5 batch-27 sequence-entropy/dup-graph
        ("q_cond_entropy", q.q_cond_entropy),
        ("q_dup_degree", q.q_dup_degree),
        # round-5 batch-26 rfm/spc/heatmap
        ("q_rfm", q.q_rfm),
        ("q_xmr_chart", q.q_xmr_chart),
        ("q_hour_dow", q.q_hour_dow),
        # round-5 batch-25 cohorts/balance/residuals/odds
        ("q_cohort_matrix", q.q_cohort_matrix),
        ("q_partition_balance", q.q_partition_balance),
        ("q_crosstab_residuals", q.q_crosstab_residuals),
        ("q_odds_ratio", q.q_odds_ratio),
        # round-5 batch-24 bands/survival/diversity/containment/deciles
        ("q_bollinger_daily", q.q_bollinger_daily),
        ("q_kaplan_meier", q.q_kaplan_meier),
        ("q_diversity", q.q_diversity),
        ("q_containment_pairs", q.q_containment_pairs),
        ("q_decile_shares", q.q_decile_shares),
        ("q_hhi_by_nation", q.q_hhi_by_nation),
        ("q_cume_dist", q.q_cume_dist),
        ("q_kfold_stats", q.q_kfold_stats),
    ]:
        if recycle and len(timings) and len(timings) % recycle == 0:
            ray.shutdown()
            _init_ray(NUM_CPUS)
        timings[name] = round(_timed_best(lambda: _consume_count(fn(sf_dir))), 3)
        if debug:
            print(f"[bench] {name} {timings[name]}", file=sys.stderr, flush=True)
    return timings


def _timed_best(thunk) -> float:
    """BASELINE.md protocol: the first run is DISCARDED (it pays
    actor-pool / join-aggregator startup), then the best of the next N
    (GRAFT_BENCH_RUNS, default 2) is reported — min rather than median
    because ambient load spikes on this shared box only ever bias
    upward."""
    runs = max(1, int(os.environ.get("GRAFT_BENCH_RUNS", "2")))
    thunk()  # warm-up, discarded
    best = None
    for _ in range(runs):
        t0 = time.perf_counter()
        thunk()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def main_single() -> dict:
    _init_ray(NUM_CPUS)
    # protocol: discard the first headline run, best of the next N
    runs = max(1, int(os.environ.get("GRAFT_BENCH_RUNS", "2")))
    run_headline(SF_DIR)  # warm-up, discarded
    head = None
    for _ in range(runs):
        h = run_headline(SF_DIR)
        if head is None or h["extract_sec"] < head["extract_sec"]:
            head = h
    qt = run_queries(SF_DIR)
    result = {
        "metric": "interleaved-extraction end-to-end sec (sf documents-derived corpus)",
        "value": head["extract_sec"],
        "unit": "sec",
        "queries": {"extract": head["extract_sec"], **qt},
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "docs_per_s": head["docs_per_s"],
        "image_blocks_per_s": head["image_blocks_per_s"],
        "n_docs": head["n_docs"],
        "n_blocks": head["n_blocks"],
    }
    import ray

    ray.shutdown()
    return result


def _headline_subprocess(ncpu: int) -> dict:
    env = dict(
        os.environ,
        RAY_GRAFT_CPUS=str(ncpu),
        GRAFT_SF_DIR=SF_DIR,
        GRAFT_BENCH_HEADLINE_ONLY="1",
        GRAFT_BENCH_REPLICATE=os.environ.get("GRAFT_BENCH_REPLICATE", "16"),
    )
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main_scaling() -> dict:
    # Levels above the machine's CPU count oversubscribe it and measure
    # contention, not scaling, so every level is capped at os.cpu_count().
    from perfbench import procs

    ncpu = os.cpu_count() or 1
    levels_env = os.environ.get("GRAFT_SCALE_LEVELS", "1,2,4")
    levels = sorted({min(int(x), ncpu) for x in levels_env.split(",")})
    ticks = procs.cpu_ticks()
    runs = {n: _headline_subprocess(n) for n in levels}
    steal = procs.steal_frac(ticks, procs.cpu_ticks())
    effs = {
        (a, b): (runs[b]["docs_per_s"] / runs[a]["docs_per_s"]) / (b / a)
        for a in levels for b in levels if b > a
    }
    neighbours = [effs[a, b] for a, b in zip(levels, levels[1:])]
    eff = round(min(neighbours), 3) if neighbours else None
    out = {
        "metric": (f"scaling efficiency (docs/s, num_cpus "
                   f"{'->'.join(str(n) for n in levels)}, fresh sessions, "
                   f"lowest between neighbouring levels)"),
        "value": eff,
        "unit": "efficiency",
        "sf": SF_DIR,
        "scaling_efficiency": eff,
        "cpu_count": ncpu,
        "steal_frac": round(steal, 4),
    }
    for n in levels:
        out[f"sec_{n}"] = runs[n]["value"]
        out[f"docs_per_s_{n}"] = runs[n]["docs_per_s"]
    for (a, b), e in effs.items():
        out[f"efficiency_{a}_{b}"] = round(e, 3)
    return out


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(main_scaling()))
    elif os.environ.get("GRAFT_BENCH_HEADLINE_ONLY"):
        _init_ray(NUM_CPUS)
        # protocol: warm-up run discarded. A replicate=1 pass spins up the
        # worker processes (imports, page cache) WITHOUT paying the full
        # corpus twice, so both scaling levels measure steady-state
        # compute rather than session startup — the criterion is about
        # scaling behavior, and startup is per-SESSION, not per-byte.
        run_headline(SF_DIR, replicate=1)
        # best-of-GRAFT_BENCH_RUNS, same as every other measurement (min,
        # not median: ambient load on a shared box only biases upward)
        rep = int(os.environ.get("GRAFT_BENCH_REPLICATE", "1"))
        head = None
        for _ in range(int(os.environ.get("GRAFT_BENCH_RUNS", "2"))):
            h = run_headline(SF_DIR, replicate=rep)
            if head is None or h["extract_sec"] < head["extract_sec"]:
                head = h
        result = {
            "metric": "extract headline",
            "value": head["extract_sec"],
            "unit": "sec",
            "num_cpus": NUM_CPUS,
            **head,
        }
        import ray

        ray.shutdown()
        print(json.dumps(result))
    else:
        print(json.dumps(main_single()))
