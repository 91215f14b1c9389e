"""Unit tests for the training-data operators: dedup (planted duplicates),
similarity (LSH vs brute recall), text stats, events windows."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from ocr_platform_ray.functions import dedup, events, similarity, textstats


@pytest.fixture(scope="module")
def dup_docs():
    """Corpus with planted exact + near duplicates."""
    base = (
        "the quick brown fox jumps over the lazy dog while data pipelines "
        "stream batches of arrow tables through ray actors and shuffles"
    )
    rows = []
    for i in range(30):
        rows.append({"doc_id": i, "text": f"unique document {i} " + " ".join(
            f"w{i}{j}" for j in range(20))})
    rows.append({"doc_id": 100, "text": base})
    rows.append({"doc_id": 101, "text": base})                      # exact dup
    rows.append({"doc_id": 102, "text": base + " extra tail words"})  # near dup
    rows.append({"doc_id": 103, "text": ""})                         # empty
    return rows


def _ds(rows):
    return rd.from_arrow(pa.Table.from_pylist(rows))


class TestExactDedup:
    def test_keeps_min_doc_id(self, dup_docs):
        out = dedup.exact_dedup_min_doc(_ds(dup_docs)).to_pandas()
        kept = set(out["doc_id"])
        assert 100 in kept and 101 not in kept
        assert len(kept) == len(dup_docs) - 1  # one exact dup removed


class TestMinHash:
    def test_finds_planted_near_dups(self, dup_docs):
        out = dedup.minhash_dup_pairs(_ds(dup_docs), threshold=0.5).to_pandas()
        pairs = set(zip(out["doc_a"], out["doc_b"]))
        assert (100, 101) in pairs  # exact dup -> est 1.0
        assert any(p in pairs for p in [(100, 102), (101, 102)])  # near dup
        exact = out[(out.doc_a == 100) & (out.doc_b == 101)]
        assert float(exact["est_jaccard"].iloc[0]) == 1.0

    def test_deterministic(self, dup_docs):
        a = dedup.minhash_dup_pairs(_ds(dup_docs), threshold=0.5).to_pandas()
        b = dedup.minhash_dup_pairs(_ds(dup_docs), threshold=0.5).to_pandas()
        key = ["doc_a", "doc_b"]
        assert a.sort_values(key).reset_index(drop=True).equals(
            b.sort_values(key).reset_index(drop=True)
        )

    def test_verify_exact_jaccard(self, dup_docs):
        out = dedup.verify_pairs_jaccard([(100, 101), (100, 102)], _ds(dup_docs))
        df = out.to_pandas().set_index(["doc_a", "doc_b"])
        assert df.loc[(100, 101), "jaccard"] == 1.0
        assert 0.5 < df.loc[(100, 102), "jaccard"] < 1.0


class TestSimHash:
    def test_exact_dup_zero_hamming(self, dup_docs):
        out = dedup.simhash_dup_pairs(_ds(dup_docs), max_hamming=3).to_pandas()
        pairs = {(a, b): h for a, b, h in zip(out.doc_a, out.doc_b, out.hamming)}
        assert pairs.get((100, 101)) == 0

    def test_signature_stable(self, dup_docs):
        t = pa.Table.from_pylist(dup_docs)
        a = dedup.simhash_batch(t).column("simhash64").to_pylist()
        b = dedup.simhash_batch(t).column("simhash64").to_pylist()
        assert a == b


class TestSimilarity:
    @pytest.fixture(scope="class")
    def emb_rows(self):
        rng = np.random.default_rng(7)
        vecs = rng.normal(size=(200, 16))
        rows = [
            {"vec_id": i, "embedding": [float(x) for x in vecs[i]]}
            for i in range(200)
        ]
        # planted near-identical pair
        rows.append({"vec_id": 500, "embedding": rows[0]["embedding"]})
        return rows

    def test_brute_topk_matches_numpy(self, emb_rows):
        q = emb_rows[0]["embedding"]
        out = similarity.topk_cosine(_ds(emb_rows), q, k=5).to_pandas()
        assert len(out) == 5
        assert set(out.head(2)["vec_id"]) == {0, 500}  # both cos=1.0
        mat = np.array([r["embedding"] for r in emb_rows])
        sims = similarity._cosine(mat, np.array(q))
        want_top5 = np.round(np.sort(sims)[::-1][:5], 6)
        got = np.sort(out["cos_sim"].to_numpy())[::-1]
        assert np.allclose(got, want_top5)

    def test_lsh_subset_of_exact_score(self, emb_rows):
        q = emb_rows[3]["embedding"]
        out = similarity.topk_cosine_lsh(_ds(emb_rows), q, k=5).to_pandas()
        assert len(out) >= 1
        assert out["vec_id"].iloc[0] == 3  # query vector itself always in bucket

    def test_ivf_topk_finds_query_vector(self, emb_rows):
        """IVF probe of the query's own list must surface the identical
        vectors (cos=1.0); approximate tail may differ from exact."""
        q = emb_rows[0]["embedding"]
        out = similarity.topk_cosine_ivf(
            _ds(emb_rows), q, k=5, n_centroids=8, n_probe=2
        ).to_pandas()
        assert len(out) >= 2
        assert set(out.head(2)["vec_id"]) == {0, 500}   # planted identical pair
        assert out["cos_sim"].iloc[0] == 1.0

    def test_ivf_recall_vs_exact(self, emb_rows):
        """With n_probe = n_centroids (probe everything) IVF equals the
        exact brute-force top-k."""
        q = emb_rows[3]["embedding"]
        exact = similarity.topk_cosine(_ds(emb_rows), q, k=5).to_pandas()
        ivf = similarity.topk_cosine_ivf(
            _ds(emb_rows), q, k=5, n_centroids=4, n_probe=4
        ).to_pandas()
        assert ivf["vec_id"].tolist() == exact["vec_id"].tolist()
        assert ivf["cos_sim"].tolist() == exact["cos_sim"].tolist()

    def test_label_centroids_match_numpy(self, emb_rows):
        rows = [dict(r, label=r["vec_id"] % 3) for r in emb_rows]
        out = similarity.label_centroids(_ds(rows)).to_pandas().set_index("label")
        mat = np.array([r["embedding"] for r in rows])
        labels = np.array([r["label"] for r in rows])
        for lbl in (0, 1, 2):
            sub = mat[labels == lbl]
            want = float(np.linalg.norm(sub.mean(axis=0)))
            assert out.loc[lbl, "n_vecs"] == len(sub)
            assert abs(out.loc[lbl, "centroid_norm"] - want) < 1e-5

    def test_embedding_dups(self, emb_rows):
        out = similarity.embedding_dup_pairs(_ds(emb_rows), tau=0.99).to_pandas()
        assert {(0, 500)} == set(zip(out.vec_id_a, out.vec_id_b))

    def test_embedding_dups_exact_full_recall(self, emb_rows):
        """Brute-force variant finds exactly the numpy ground-truth pairs."""
        out = similarity.embedding_dup_pairs_exact(_ds(emb_rows), tau=0.9).to_pandas()
        mat = np.array([r["embedding"] for r in emb_rows], dtype=np.float64)
        ids = np.array([r["vec_id"] for r in emb_rows])
        nm = mat / np.linalg.norm(mat, axis=1)[:, None]
        sims = nm @ nm.T
        ii, jj = np.nonzero((sims >= 0.9) & (ids[:, None] < ids[None, :]))
        want = set(zip(ids[ii].tolist(), ids[jj].tolist()))
        assert set(zip(out.vec_id_a, out.vec_id_b)) == want
        assert (0, 500) in want  # the planted identical pair is among them

    def test_augment_with_planted(self, emb_rows):
        aug = similarity.augment_with_planted(_ds(emb_rows)).to_pandas()
        n_even = sum(1 for r in emb_rows if r["vec_id"] % 2 == 0)
        assert len(aug) == len(emb_rows) + n_even
        src = {r["vec_id"]: np.array(r["embedding"]) for r in emb_rows}
        planted = aug[aug.vec_id >= 100000]
        for _, row in planted.head(5).iterrows():
            base = src[row.vec_id - 100000]
            got = np.array(row.embedding)
            h = len(base) // 2
            assert np.allclose(got[:h], base[:h] * 2) and np.allclose(got[h:], base[h:])


class TestTextStats:
    def test_token_count(self):
        t = pa.Table.from_pylist([{"doc_id": 1, "text": "a bb  ccc 12"}])
        out = textstats.token_count_batch(t)
        assert out.column("n_tokens").to_pylist() == [4]

    def test_langid_en(self):
        t = pa.Table.from_pylist(
            [{"doc_id": 1, "text": "the cat and the dog of to a in"}]
        )
        out = textstats.langid_batch(t)
        assert out.column("pred_lang").to_pylist() == ["en"]

    def test_fingerprint_stable_and_distinct(self):
        t = pa.Table.from_pylist(
            [{"doc_id": 1, "text": "aaa"}, {"doc_id": 2, "text": "bbb"},
             {"doc_id": 3, "text": "aaa"}]
        )
        fp = textstats.fingerprint_batch(t).column("fp64").to_pylist()
        assert fp[0] == fp[2] and fp[0] != fp[1]


class TestEvents:
    def test_window_counts(self):
        rows = [
            {"ts": 10 * 10**6, "event_type": "a", "value": 1.0},
            {"ts": 20 * 10**6, "event_type": "a", "value": 2.0},
            {"ts": 3700 * 10**6, "event_type": "a", "value": 4.0},
        ]
        t = pa.Table.from_pylist(rows)
        t = t.set_column(0, "ts", t.column("ts").cast(pa.timestamp("us")))
        out = events.tumbling_window_counts(rd.from_arrow(t)).to_pandas()
        out = out.sort_values("window_id").reset_index(drop=True)
        assert out["n_events"].tolist() == [2, 1]
        assert out["value_sum"].tolist() == [3.0, 4.0]

    def test_sessions(self):
        us = 10**6
        rows = [
            {"user_id": 1, "ts": 0},
            {"user_id": 1, "ts": 60 * us},            # same session
            {"user_id": 1, "ts": 4000 * us},           # gap > 30min -> new
            {"user_id": 2, "ts": 0},
        ]
        t = pa.Table.from_pylist(rows)
        t = t.set_column(1, "ts", t.column("ts").cast(pa.timestamp("us")))
        out = events.sessions_per_user(rd.from_arrow(t)).to_pandas()
        got = dict(zip(out.user_id, out.n_sessions))
        assert got == {1: 2, 2: 1}


class TestJoins:
    @staticmethod
    def _rows(df, cols):
        """Order-free row list with null-free int keys compared as ints."""
        return sorted(map(tuple, df[cols].astype("int64").to_numpy().tolist()))

    def test_bucketed_inner_matches_pandas_merge(self):
        from ocr_platform_ray.functions.joins import bucketed_merge_join

        rng = np.random.default_rng(3)
        # null keys on both sides: SQL equality matches them with nothing
        lrows = [{"k": None if i % 11 == 0 else int(rng.integers(0, 12)),
                  "lv": i} for i in range(60)]
        rrows = [{"rk": None if i % 7 == 0 else i % 9, "rv": i * 10}
                 for i in range(20)]
        ldf = pd.DataFrame(lrows).dropna(subset=["k"])
        rdf = pd.DataFrame(rrows).dropna(subset=["rk"])
        left = _ds(lrows).repartition(3)

        # distinct key names
        got = bucketed_merge_join(
            left, _ds(rrows).repartition(2), on="k", right_on="rk", how="inner",
        ).to_pandas()
        want = ldf.merge(rdf, left_on="k", right_on="rk")
        cols = ["k", "lv", "rk", "rv"]
        assert sorted(got.columns) == cols
        assert len(want) > 0
        assert self._rows(got, cols) == self._rows(want, cols)

        # one shared key name: a single key column in the output
        shared = [{"k": r["rk"], "rv": r["rv"]} for r in rrows]
        got = bucketed_merge_join(
            left, _ds(shared).repartition(2), on="k", how="inner"
        ).to_pandas()
        want = ldf.merge(rdf.rename(columns={"rk": "k"}), on="k")
        cols = ["k", "lv", "rv"]
        assert sorted(got.columns) == cols
        assert self._rows(got, cols) == self._rows(want, cols)

    def test_bucketed_inner_empty_side_with_schema(self):
        from ocr_platform_ray.functions.joins import bucketed_merge_join

        lsch = pa.schema([("k", pa.int64()), ("lv", pa.int64())])
        rsch = pa.schema([("rk", pa.int64()), ("rv", pa.int64())])
        left = _ds([{"k": i % 5, "lv": i} for i in range(40)])
        right = _ds([{"rk": i, "rv": i * 10} for i in range(5)])
        for lhs, rhs in ((left.filter(expr="lv < 0"), right),
                         (left, right.filter(expr="rv < 0"))):
            got = bucketed_merge_join(
                lhs, rhs, on="k", right_on="rk", how="inner",
                left_schema=lsch, right_schema=rsch,
            ).to_pandas()
            assert len(got) == 0
            assert list(got.columns) in ([], ["k", "lv", "rk", "rv"])

    def test_join_modes_left_semi_anti(self):
        from ocr_platform_ray.functions.joins import bucketed_merge_join

        left = _ds([{"k": i, "lv": i * 2} for i in range(6)])
        right = _ds([{"rk": i, "rv": i * 10} for i in (1, 3, 5, 7)])
        l_out = bucketed_merge_join(
            left, right, on="k", right_on="rk", how="left"
        ).to_pandas().sort_values("k").reset_index(drop=True)
        assert len(l_out) == 6
        assert l_out.loc[l_out.k == 3, "rv"].iloc[0] == 30
        assert pd.isna(l_out.loc[l_out.k == 2, "rv"].iloc[0])
        semi = bucketed_merge_join(
            left, right, on="k", right_on="rk", how="semi"
        ).to_pandas()
        assert sorted(semi["k"]) == [1, 3, 5]
        assert list(semi.columns) == ["k", "lv"]
        anti = bucketed_merge_join(
            left, right, on="k", right_on="rk", how="anti"
        ).to_pandas()
        assert sorted(anti["k"]) == [0, 2, 4]

    def test_range_join_count(self):
        from ocr_platform_ray.functions.joins import range_join_count

        left = _ds([
            {"event_id": 1, "user_id": 1, "ts": 100},
            {"event_id": 2, "user_id": 1, "ts": 10},
            {"event_id": 3, "user_id": 2, "ts": 100},
        ])
        right = _ds([
            {"user_id": 1, "ts": 50},
            {"user_id": 1, "ts": 99},
            {"user_id": 1, "ts": 100},   # not < ts (half-open)
            {"user_id": 1, "ts": 5},     # in event 2's window only
        ])
        out = range_join_count(
            left, right, key="user_id", ts="ts", lo_offset=-60, hi_offset=0
        ).to_pandas()
        got = dict(zip(out["event_id"], out["n_in_range"]))
        assert got[1] == 2     # 50, 99 in [40, 100); 100 excluded (half-open)
        assert got[2] == 1     # 5 in [-50, 10)
        assert got[3] == 0     # user 2 has no right rows

    def test_bucketed_join_no_match(self):
        from ocr_platform_ray.functions.joins import bucketed_merge_join

        left = _ds([{"k": 1, "lv": 1}])
        right = _ds([{"rk": 2, "rv": 2}])
        out = bucketed_merge_join(left, right, on="k", right_on="rk").to_pandas()
        assert len(out) == 0


class TestDedupKeep:
    def test_clusters_keep_min(self, dup_docs):
        from ocr_platform_ray.functions.dedup import minhash_dedup_keep

        kept = set(
            minhash_dedup_keep(_ds(dup_docs), threshold=0.5).to_pandas()["doc_id"]
        )
        assert 100 in kept
        assert 101 not in kept          # exact dup clustered away
        assert 102 not in kept          # near dup clustered away
        assert all(i in kept for i in range(30))

    def test_distributed_cc_matches_driver(self, dup_docs):
        """Min-label propagation (no driver union-find) keeps the same
        survivors as the driver path."""
        from ocr_platform_ray.functions.dedup import minhash_dedup_keep

        a = set(
            minhash_dedup_keep(
                _ds(dup_docs), threshold=0.5, cc_mode="driver"
            ).to_pandas()["doc_id"]
        )
        b = set(
            minhash_dedup_keep(
                _ds(dup_docs), threshold=0.5, cc_mode="distributed"
            ).to_pandas()["doc_id"]
        )
        assert a == b

    def test_cc_labels_on_chain_and_cliques(self):
        """Pure CC check on a synthetic edge list: a 6-node chain (worst
        case for propagation rounds), a 4-clique, and an isolated pair."""
        import ray.data as rd2

        from ocr_platform_ray.functions.dedup import connected_components_labels

        edges = (
            [{"doc_a": i, "doc_b": i + 1} for i in range(10, 15)]      # chain 10..15
            + [
                {"doc_a": a, "doc_b": b}
                for a in (20, 21, 22, 23)
                for b in (20, 21, 22, 23)
                if a < b
            ]                                                           # 4-clique
            + [{"doc_a": 30, "doc_b": 31}]                              # pair
        )
        labels = connected_components_labels(rd2.from_items(edges)).to_pandas()
        got = dict(zip(labels["doc_id"], labels["label"]))
        assert all(got[i] == 10 for i in range(10, 16))
        assert all(got[i] == 20 for i in (20, 21, 22, 23))
        assert got[30] == 30 and got[31] == 30


class TestSlidingWindows:
    def test_event_lands_in_all_covering_windows(self):
        import pyarrow as pa

        from ocr_platform_ray.functions.events import sliding_window_counts

        us = 10**6
        rows = [{"ts": 3600 * us + 10, "event_type": "a", "value": 2.0}]
        t = pa.Table.from_pylist(rows)
        t = t.set_column(0, "ts", t.column("ts").cast(pa.timestamp("us")))
        out = sliding_window_counts(rd.from_arrow(t)).to_pandas()
        # hour window, 15-min slide: event at t=3600s is inside windows 1..4
        assert sorted(out["window_id"]) == [1, 2, 3, 4]
        assert (out["n_events"] == 1).all()


class TestWinnowAndBpe:
    def test_bpe_token_count(self):
        t = pa.Table.from_pylist([{"doc_id": 1, "text": "the cat's hat, isn't it 42"}])
        out = textstats.bpe_token_count_batch(t)
        # the | cat | 's | hat | , | isn | 't | it | 42
        assert out.column("n_bpe_tokens").to_pylist() == [9]

    def test_winnow_shifted_copies_share_fingerprints(self):
        base = "the quick brown fox jumps over the lazy dog again and again"
        t = pa.Table.from_pylist(
            [{"doc_id": 1, "text": "XXXXX " + base}, {"doc_id": 2, "text": base}]
        )
        f = textstats.winnow_fingerprints_batch(t).column("fingerprints").to_pylist()
        s1, s2 = set(f[0]), set(f[1])
        j = len(s1 & s2) / len(s1 | s2)
        assert j > 0.6  # winnowing guarantees shared fingerprints on copies

    def test_winnow_deterministic_and_short_text(self):
        t = pa.Table.from_pylist([{"doc_id": 1, "text": "tiny"}])
        a = textstats.winnow_fingerprints_batch(t).column("fingerprints").to_pylist()
        assert a == [[]]  # shorter than k-gram size -> no fingerprints


class TestAsofJoin:
    def test_backward_match(self):
        import pyarrow as pa

        from ocr_platform_ray.functions.joins import asof_join

        us = 10**6
        left = _ds([
            {"event_id": 1, "user_id": 1, "ts": 100 * us},
            {"event_id": 2, "user_id": 1, "ts": 50 * us},
            {"event_id": 3, "user_id": 2, "ts": 100 * us},   # user 2: no views
        ])
        right = _ds([
            {"user_id": 1, "ts": 60 * us},
            {"user_id": 1, "ts": 90 * us},
            {"user_id": 1, "ts": 150 * us},  # after both clicks
        ])
        out = asof_join(left, right, key="user_id", ts="ts", value_cols=[]).to_pandas()
        got = dict(zip(out["event_id"], out["ts_matched"]))
        assert got[1] == 90 * us         # most recent at-or-before 100
        assert pd.isna(got[2])           # nothing at-or-before 50
        assert pd.isna(got[3])           # no right rows for user 2
        # int columns keep their true dtype (typed padding; no float64 leak)
        assert str(out["event_id"].dtype) == "int64"

    def test_typed_value_cols(self):
        """String + float value columns survive the padded union with their
        true types (round-1 padded everything as int64 nulls)."""
        from ocr_platform_ray.functions.joins import asof_join

        left = _ds([
            {"event_id": "a", "user_id": 1, "ts": 100},
            {"event_id": "b", "user_id": 1, "ts": 10},
        ])
        right = _ds([
            {"user_id": 1, "ts": 60, "label": "x", "score": 0.5},
            {"user_id": 1, "ts": 90, "label": "y", "score": 1.5},
        ])
        out = asof_join(
            left, right, key="user_id", ts="ts", value_cols=["label", "score"]
        ).to_pandas()
        got = {r["event_id"]: r for _, r in out.iterrows()}
        assert got["a"]["label_matched"] == "y"
        assert got["a"]["score_matched"] == 1.5
        assert pd.isna(got["b"]["label_matched"])
        assert str(out["event_id"].dtype) == "object"


import pandas as pd  # noqa: E402  (used by TestAsofJoin)


class TestQuantileSketch:
    def test_close_to_exact_quantiles(self):
        import numpy as np

        from ocr_platform_ray.functions.sketches import quantile_sketch_per_key

        rng = np.random.default_rng(3)
        rows = [
            {"k": "a", "v": float(x)} for x in rng.normal(100, 15, size=5000)
        ] + [{"k": "b", "v": float(x)} for x in rng.exponential(50, size=3000)]
        out = quantile_sketch_per_key(
            _ds(rows), "k", "v", {"q50": 0.5, "q95": 0.95}
        ).to_pandas().set_index("k")
        for key, dist in (("a", [r["v"] for r in rows if r["k"] == "a"]),
                          ("b", [r["v"] for r in rows if r["k"] == "b"])):
            arr = np.sort(np.array(dist))
            for col, q in (("q50", 0.5), ("q95", 0.95)):
                got = out.loc[key, col]
                # rank error bound: the sketch's answer must sit within
                # ~1% of the true rank
                rank = np.searchsorted(arr, got) / len(arr)
                assert abs(rank - q) < 0.01, (key, col, got, rank)

    def test_merge_invariance(self):
        """Sketch result is identical regardless of block partitioning."""
        import numpy as np

        from ocr_platform_ray.functions.sketches import quantile_sketch_per_key

        rng = np.random.default_rng(5)
        rows = [{"k": "x", "v": float(x)} for x in rng.uniform(0, 1, size=2000)]
        a = quantile_sketch_per_key(
            _ds(rows), "k", "v", {"q50": 0.5}
        ).to_pandas()
        b = quantile_sketch_per_key(
            _ds(rows).repartition(7), "k", "v", {"q50": 0.5}
        ).to_pandas()
        # both within rank tolerance of the exact median
        arr = np.sort([r["v"] for r in rows])
        for df in (a, b):
            rank = np.searchsorted(arr, df["q50"].iloc[0]) / len(arr)
            assert abs(rank - 0.5) < 0.01


class TestHll:
    def test_estimate_within_error(self):
        import numpy as np
        import pyarrow as pa

        from ocr_platform_ray.functions import sketches

        vals = pa.array([f"user-{i}" for i in range(10000)])
        est = sketches.estimate(sketches._registers(vals))
        assert abs(est - 10000) / 10000 < 0.05

    def test_merge_equals_union(self):
        import numpy as np
        import pyarrow as pa

        from ocr_platform_ray.functions import sketches

        a = pa.array([f"u{i}" for i in range(0, 6000)])
        b = pa.array([f"u{i}" for i in range(3000, 9000)])  # overlap 3000
        merged = np.maximum(sketches._registers(a), sketches._registers(b))
        both = pa.array([f"u{i}" for i in range(0, 9000)])
        assert sketches.estimate(merged) == sketches.estimate(
            sketches._registers(both)
        )  # sketch merge is exact union of sketches

    def test_distributed_per_key(self):
        from ocr_platform_ray.functions.sketches import approx_distinct_per_key

        rows = [
            {"k": "a", "v": f"x{i % 500}"} for i in range(5000)
        ] + [{"k": "b", "v": f"y{i}"} for i in range(2000)]
        out = approx_distinct_per_key(_ds(rows), "k", "v").to_pandas()
        got = dict(zip(out["k"], out["approx_distinct"]))
        assert abs(got["a"] - 500) / 500 < 0.05
        assert abs(got["b"] - 2000) / 2000 < 0.05


class TestJoinKeyTypes:
    def test_asof_string_key_and_null_keys(self):
        """Coarse key bucketing must accept string keys, and null keys
        match nothing (SQL equality) while keeping the left row."""
        from ocr_platform_ray.functions.joins import asof_join

        left = _ds([
            {"event_id": 1, "user_id": "u1", "ts": 100},
            {"event_id": 2, "user_id": None, "ts": 100},
        ])
        right = _ds([
            {"user_id": "u1", "ts": 50},
            {"user_id": None, "ts": 60},
        ])
        out = asof_join(
            left, right, key="user_id", ts="ts", value_cols=[]
        ).to_pandas()
        got = dict(zip(out["event_id"], out["ts_matched"]))
        assert len(out) == 2
        assert got[1] == 50
        assert pd.isna(got[2])          # null key matches nothing

    def test_range_join_null_key_counts_zero(self):
        from ocr_platform_ray.functions.joins import range_join_count

        left = _ds([
            {"event_id": 1, "user_id": 5, "ts": 100},
            {"event_id": 2, "user_id": None, "ts": 100},
        ])
        right = _ds([
            {"user_id": 5, "ts": 80},
            {"user_id": None, "ts": 80},
        ])
        out = range_join_count(
            left, right, key="user_id", ts="ts", lo_offset=-50, hi_offset=0
        ).to_pandas()
        got = dict(zip(out["event_id"], out["n_in_range"]))
        assert got[1] == 1 and got[2] == 0


class TestStratifiedSample:
    def test_deterministic_and_k_per_group(self):
        import hashlib

        from ocr_platform_ray.functions.dedup import stratified_sample

        rows = [
            {"doc_id": i, "grp": "abc"[i % 3], "v": i * 2} for i in range(90)
        ]
        out = stratified_sample(_ds(rows), group_col="grp", k=4).to_pandas()
        assert len(out) == 12
        assert set(out["grp"].value_counts()) == {4}
        # matches the brute-force md5 ordering per group
        for g in "abc":
            want = sorted(
                (r["doc_id"] for r in rows if r["grp"] == g),
                key=lambda d: (hashlib.md5(str(d).encode()).hexdigest(), d),
            )[:4]
            assert sorted(out[out.grp == g]["doc_id"]) == sorted(want)
        # partitioning-invariant
        out2 = stratified_sample(
            _ds(rows).repartition(7), group_col="grp", k=4
        ).to_pandas()
        assert sorted(out2["doc_id"]) == sorted(out["doc_id"])
        # non-key columns survive
        assert set(out.columns) == {"doc_id", "grp", "v"}


class TestTopTokens:
    def test_counts_match_bruteforce(self):
        import collections
        import re

        from ocr_platform_ray.functions.textstats import top_tokens

        rows = [
            {"text": "alpha beta alpha gamma"},
            {"text": "beta beta delta alpha 42"},
            {"text": ""},
        ]
        out = top_tokens(_ds(rows), k=3).to_pandas()
        cnt = collections.Counter(
            t for r in rows for t in re.findall("[a-z0-9]+", r["text"])
        )
        want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
        assert list(zip(out["token"], out["n"])) == want

    def test_bigrams_match_bruteforce(self):
        import collections
        import re

        from ocr_platform_ray.functions.textstats import top_bigrams

        rows = [
            {"text": "a b a b c"},
            {"text": "b c d"},
            {"text": "solo"},
            {"text": ""},
        ]
        out = top_bigrams(_ds(rows), k=4).to_pandas()
        cnt = collections.Counter()
        for r in rows:
            t = re.findall("[a-z0-9]+", r["text"])
            cnt.update(f"{x} {y}" for x, y in zip(t, t[1:]))
        want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:4]
        assert list(zip(out["bigram"], out["n"])) == want


class TestInvertedIndexAndPmi:
    def test_inverted_index_matches_bruteforce(self):
        import collections
        import re

        from ocr_platform_ray.functions.textstats import inverted_index

        rows = [
            {"doc_id": 3, "text": "alpha beta alpha"},
            {"doc_id": 1, "text": "beta gamma"},
            {"doc_id": 2, "text": "alpha"},
            {"doc_id": 4, "text": ""},
        ]
        out = inverted_index(_ds(rows)).to_pandas().set_index("token")
        tf = collections.Counter()
        docs = collections.defaultdict(set)
        for r in rows:
            for t in re.findall("[a-z0-9]+", r["text"]):
                tf[t] += 1
                docs[t].add(r["doc_id"])
        assert set(out.index) == set(tf)
        for t in tf:
            assert out.loc[t, "doc_freq"] == len(docs[t])
            assert out.loc[t, "total_tf"] == tf[t]
            assert out.loc[t, "postings"] == ",".join(
                map(str, sorted(docs[t]))
            )

    def test_postings_cap_keeps_full_doc_freq(self):
        from ocr_platform_ray.functions.textstats import inverted_index

        rows = [{"doc_id": i, "text": "common"} for i in range(10)]
        out = inverted_index(_ds(rows), max_postings=3).to_pandas()
        row = out.set_index("token").loc["common"]
        assert row["doc_freq"] == 10  # cap truncates postings, NOT df
        assert row["postings"] == "0,1,2"

    def test_pmi_planted_collocation(self):
        import numpy as np

        from ocr_platform_ray.functions.textstats import pmi_pairs

        # 'left right' always co-occur; 'noise*' fillers are independent
        rows = []
        for i in range(30):
            rows.append({"doc_id": i, "text": f"left right noise{i % 6}"})
        for i in range(30, 60):
            rows.append({"doc_id": i, "text": f"noise{i % 6} noise{(i + 1) % 6}"})
        out = pmi_pairs(_ds(rows), vocab_k=20, min_co=5, k=5).to_pandas()
        assert (out.iloc[0]["token_a"], out.iloc[0]["token_b"]) == (
            "left",
            "right",
        )
        # exact PMI: co=30, df both 30, N=60 -> ln(30*60/900) = ln 2
        assert out.iloc[0]["n_co"] == 30
        assert abs(out.iloc[0]["pmi"] - round(float(np.log(2.0)), 6)) < 1e-9

    def test_duplicate_ngrams_planted(self):
        from ocr_platform_ray.functions.dedup import duplicate_ngram_occurrences

        shared = "one two three four"  # a 4-gram planted in three docs
        rows = [
            {"doc_id": 1, "text": f"{shared} tail1 a b c"},
            {"doc_id": 2, "text": f"head2 {shared} tail2"},
            {"doc_id": 3, "text": f"{shared}"},
            {"doc_id": 4, "text": "entirely different words here now"},
        ]
        out = (
            duplicate_ngram_occurrences(_ds(rows).repartition(3), n=4)
            .to_pandas()
            .sort_values(["doc_id", "pos"])
        )
        # first occurrence is (doc 1, pos 0); later ones are flagged
        assert list(zip(out["doc_id"], out["pos"])) == [(2, 1), (3, 0)]

    def test_duplicate_ngrams_overlapping_within_doc(self):
        from ocr_platform_ray.functions.dedup import duplicate_ngram_occurrences

        # 'a b a b a b' has 2-grams: (a b) x?? positions 0..4 ->
        # 'a b','b a','a b','b a','a b' -> dups at pos 2,3,4
        rows = [{"doc_id": 7, "text": "a b a b a b"}]
        out = (
            duplicate_ngram_occurrences(_ds(rows), n=2)
            .to_pandas()
            .sort_values("pos")
        )
        assert out["pos"].tolist() == [2, 3, 4]

    def test_duplicate_ngrams_short_docs_yield_nothing(self):
        from ocr_platform_ray.functions.dedup import duplicate_ngram_occurrences

        rows = [{"doc_id": 1, "text": "too short"}, {"doc_id": 2, "text": ""}]
        out = duplicate_ngram_occurrences(_ds(rows), n=8).to_pandas()
        assert len(out) == 0

    def test_remove_duplicate_ngrams_planted(self):
        from ocr_platform_ray.functions.dedup import remove_duplicate_ngrams

        shared = "one two three four"
        rows = [
            {"doc_id": 1, "text": f"{shared} tail1 a b c"},
            {"doc_id": 2, "text": f"head2 {shared} tail2"},
            {"doc_id": 3, "text": f"{shared}"},
            {"doc_id": 4, "text": "entirely different words here now"},
            {"doc_id": 5, "text": ""},
        ]
        out = (
            remove_duplicate_ngrams(_ds(rows).repartition(3), n=4)
            .to_pandas()
            .sort_values("doc_id")
        )
        # every input doc comes back; first occurrence (doc 1) is kept,
        # later copies are excised, fully-duplicated doc 3 empties out
        assert out["doc_id"].tolist() == [1, 2, 3, 4, 5]
        assert out["text_clean"].tolist() == [
            "one two three four tail1 a b c",
            "head2 tail2",
            "",
            "entirely different words here now",
            "",
        ]

    def test_centroid_distances_hand_computed(self):
        from ocr_platform_ray.functions.similarity import centroid_distances

        rows = [
            {"vec_id": 1, "label": 0, "embedding": [0.0, 0.0]},
            {"vec_id": 2, "label": 0, "embedding": [2.0, 0.0]},  # centroid (1,0)
            {"vec_id": 3, "label": 1, "embedding": [0.0, 3.0]},  # own centroid
        ]
        out = (
            centroid_distances(_ds(rows).repartition(2))
            .to_pandas()
            .sort_values("vec_id")
        )
        assert out["dist"].tolist() == [1.0, 1.0, 0.0]
        assert out["label"].tolist() == [0, 0, 1]

    def test_bm25_hand_computed(self):
        import math

        from ocr_platform_ray.functions.textstats import bm25_topk

        # 3 docs, query 'cat': df=2, N=3, avgdl=(3+4+2)/3=3
        rows = [
            {"doc_id": 1, "text": "cat cat dog"},          # tf=2, dlen=3
            {"doc_id": 2, "text": "cat bird fish mouse"},  # tf=1, dlen=4
            {"doc_id": 3, "text": "dog dog"},              # no match
        ]
        out = (
            bm25_topk(_ds(rows).repartition(2), ["cat"], k=10)
            .to_pandas()
            .sort_values("doc_id")
        )
        idf = math.log((3 - 2 + 0.5) / (2 + 0.5) + 1)
        def s(tf, dlen):
            return math.floor(
                idf * tf * 2.2 / (tf + 1.2 * (1 - 0.75 + 0.75 * dlen / 3.0))
                * 1e6 + 0.5
            ) / 1e6
        assert out["doc_id"].tolist() == [1, 2]
        assert out["score"].tolist() == [s(2, 3), s(1, 4)]

    def test_bm25_ranking_and_k(self):
        from ocr_platform_ray.functions.textstats import bm25_topk

        rows = [{"doc_id": i, "text": "term " * i + "filler"} for i in
                range(1, 8)]
        out = bm25_topk(_ds(rows), ["term"], k=3).to_pandas()
        # higher tf relative to length wins; exactly k rows come back
        assert len(out) == 3
        assert out["score"].is_monotonic_decreasing

    def test_duplicate_ngrams_matches_bruteforce(self):
        from ocr_platform_ray.functions.dedup import duplicate_ngram_occurrences

        # small vocab + fixed seed -> guaranteed duplicated grams
        rng = np.random.default_rng(42)
        vocab = ["aa", "bb", "cc", "dd"]
        rows = [
            {"doc_id": i,
             "text": " ".join(rng.choice(vocab, size=int(rng.integers(0, 12))))}
            for i in range(30)
        ]
        n = 3
        first, expect = {}, set()
        for r in rows:
            toks = r["text"].split()
            for p in range(max(0, len(toks) - n + 1)):
                g = " ".join(toks[p:p + n])
                if g in first:
                    expect.add((r["doc_id"], p))
                else:
                    first[g] = (r["doc_id"], p)
        out = duplicate_ngram_occurrences(_ds(rows).repartition(4), n=n)
        df = out.to_pandas()  # one execution: row order may differ per run
        got = set(zip(df["doc_id"], df["pos"]))
        assert got == expect

    def test_cross_source_duplication_planted(self):
        from ocr_platform_ray.functions.dedup import cross_source_duplication

        rows = [
            {"doc_id": 1, "text": "copied once", "source": "web"},
            {"doc_id": 2, "text": "copied once", "source": "books"},
            {"doc_id": 3, "text": "copied once", "source": "web"},  # same pair, once
            {"doc_id": 4, "text": "copied twice", "source": "web"},
            {"doc_id": 5, "text": "copied twice", "source": "books"},
            {"doc_id": 6, "text": "copied twice", "source": "wiki"},
            {"doc_id": 7, "text": "unique text here", "source": "web"},
        ]
        out = (
            cross_source_duplication(_ds(rows).repartition(3))
            .to_pandas()
            .sort_values(["source_a", "source_b"])
        )
        got = {
            (a, b): n
            for a, b, n in zip(
                out["source_a"], out["source_b"], out["n_shared_texts"]
            )
        }
        assert got == {
            ("books", "web"): 2,
            ("books", "wiki"): 1,
            ("web", "wiki"): 1,
        }

    def test_duplicate_spans_merges_islands(self):
        from ocr_platform_ray.functions.dedup import duplicate_spans

        shared = "one two three four"
        rows = [
            # overlapping dup grams inside one doc: 'a b' repeats ->
            # dup starts 2,3,4 merge into ONE span [2, 6)
            {"doc_id": 7, "text": "a b a b a b"},
            # cross-doc copies of a 4-gram -> one 1-gram span each
            {"doc_id": 1, "text": f"{shared} tail1 x y z"},
            {"doc_id": 2, "text": f"head2 {shared} tail2"},
            {"doc_id": 3, "text": f"{shared}"},
        ]
        out = (
            duplicate_spans(_ds(rows).repartition(2), n=2)
            .to_pandas()
            .sort_values(["doc_id", "span_start"])
        )
        got = list(
            zip(out["doc_id"], out["span_start"], out["span_end"],
                out["n_grams"])
        )
        # n=2: 'one two','two three','three four' duplicate across docs
        # 1/2/3 (doc 1 holds the firsts) and merge into one span per doc
        assert (7, 2, 6, 3) in got
        assert (2, 1, 5, 3) in got
        assert (3, 0, 4, 3) in got
        assert not any(d == 1 for d, *_ in got)

    def test_duplicate_coverage_planted(self):
        from ocr_platform_ray.functions.dedup import duplicate_coverage

        shared = "one two three four"
        rows = [
            {"doc_id": 1, "text": f"{shared} tail1 a b c"},   # 8 tokens, first
            {"doc_id": 2, "text": f"head2 {shared} tail2"},   # 6 tokens, 4 covered
            {"doc_id": 3, "text": f"{shared}"},               # fully covered
            {"doc_id": 4, "text": "entirely different words here now"},
            {"doc_id": 5, "text": ""},
        ]
        out = (
            duplicate_coverage(_ds(rows).repartition(3), n=4)
            .to_pandas()
            .sort_values("doc_id")
        )
        assert out["n_tokens"].tolist() == [8, 6, 4, 5, 0]
        assert out["n_covered"].tolist() == [0, 4, 4, 0, 0]
        assert out["dup_ratio"].tolist() == [
            0.0, round(4 / 6, 6), 1.0, 0.0, 0.0
        ]

    def test_remove_duplicate_ngrams_no_dups_is_identity_on_tokens(self):
        from ocr_platform_ray.functions.dedup import remove_duplicate_ngrams

        rows = [
            {"doc_id": 1, "text": "alpha beta gamma delta"},
            {"doc_id": 2, "text": "epsilon zeta eta theta"},
        ]
        out = (
            remove_duplicate_ngrams(_ds(rows), n=2)
            .to_pandas()
            .sort_values("doc_id")
        )
        assert out["text_clean"].tolist() == [
            "alpha beta gamma delta",
            "epsilon zeta eta theta",
        ]

    def test_percent_rank_matches_bruteforce_with_ties(self):
        from ocr_platform_ray.functions.sketches import percent_rank_transform

        vals = [0.5, 0.1, 0.5, 0.9, 0.1, 0.3, 0.5]
        rows = [{"doc_id": i, "s": v} for i, v in enumerate(vals)]
        out = (
            percent_rank_transform(_ds(rows).repartition(3), "s")
            .to_pandas()
            .sort_values("doc_id")
        )
        n = len(vals)
        for _, r in out.iterrows():
            below = sum(1 for v in vals if v < r["s"])
            assert r["pct"] == round(below / (n - 1), 6)

    def test_percent_rank_single_row_is_zero(self):
        from ocr_platform_ray.functions.sketches import percent_rank_transform

        out = percent_rank_transform(
            _ds([{"doc_id": 1, "s": 7.0}]), "s"
        ).to_pandas()
        assert out["pct"].tolist() == [0.0]

    def test_percent_rank_distinct_cap_is_loud(self):
        import pytest as _pytest

        from ocr_platform_ray.functions.sketches import percent_rank_transform

        rows = [{"doc_id": i, "s": float(i)} for i in range(10)]
        with _pytest.raises(ValueError, match="max_distinct"):
            percent_rank_transform(_ds(rows), "s", max_distinct=5).to_pandas()

    def test_pmi_vocab_cap_is_loud(self):
        import pytest as _pytest

        from ocr_platform_ray.functions.textstats import pmi_pairs

        with _pytest.raises(ValueError, match="vocab_k"):
            pmi_pairs(_ds([{"doc_id": 1, "text": "a"}]), vocab_k=1000)


class TestRound3Hardening:
    """Round-3 scale-hardening: vectorized md5, sparse HLL partials,
    generic bucketed-join keys, IVF sample cap, exact-baseline size guard."""

    def test_md5np_matches_hashlib(self):
        import hashlib

        from ocr_platform_ray.md5np import md5_hex

        vals = ["", "a", "doc-0-00000042", "x" * 55, "y" * 200] + [
            f"id{i}" for i in range(100)
        ]
        got = md5_hex(pa.array(vals)).to_pylist()
        assert got == [hashlib.md5(v.encode()).hexdigest() for v in vals]
        # int columns hash their decimal string (SQL CAST semantics)
        got_i = md5_hex(pa.array([7, -3], pa.int64())).to_pylist()
        assert got_i == [hashlib.md5(str(v).encode()).hexdigest() for v in (7, -3)]

    def test_hll_sparse_partials_budget_high_cardinality(self):
        """>=10k distinct keys, ~1 value each: partials must stay sparse
        (bytes ~ distinct values), not 4 KB dense registers per key."""
        from ocr_platform_ray.functions import sketches

        t = pa.table(
            {
                "k": [f"key{i}" for i in range(10000)],
                "v": [f"val{i}" for i in range(10000)],
            }
        )
        part = sketches.sketch_partials(t, "k", "v")
        assert part.num_rows == 10000
        total = sum(len(s) for s in part.column("sketch").to_pylist())
        assert total < 10000 * 16  # vs 10000 * 4096 dense
        # and the estimates still merge correctly through the public op
        rows = [{"k": f"key{i % 50}", "v": f"val{i}"} for i in range(5000)]
        out = sketches.approx_distinct_per_key(_ds(rows), "k", "v").to_pandas()
        assert len(out) == 50
        assert all(abs(n - 100) / 100 < 0.1 for n in out["approx_distinct"])

    def test_hll_dense_encoding_roundtrip(self):
        import numpy as np

        from ocr_platform_ray.functions import sketches

        vals = pa.array([f"u{i}" for i in range(20000)])  # forces dense
        idx, rank = sketches._hash_rank(vals)
        blob = sketches._encode_regs(idx, rank)
        assert blob[:1] == b"D"
        regs = np.zeros(sketches.M, dtype=np.uint8)
        sketches._merge_sketch_into(regs, blob)
        assert (regs == sketches._registers(vals)).all()

    def test_bucketed_join_string_keys(self):
        from ocr_platform_ray.functions.joins import bucketed_merge_join

        left = _ds([
            {"name": "alice", "x": 1},
            {"name": "bob", "x": 2},
            {"name": None, "x": 3},
            {"name": "carol", "x": 4},
        ])
        right = _ds([
            {"name": "alice", "y": 10},
            {"name": "carol", "y": 40},
            {"name": None, "y": 99},
        ])
        inner = bucketed_merge_join(left, right, on="name").to_pandas()
        assert sorted(zip(inner["name"], inner["y"])) == [
            ("alice", 10), ("carol", 40)
        ]  # null key matches nothing
        anti = bucketed_merge_join(left, right, on="name", how="anti").to_pandas()
        assert sorted(anti["x"]) == [2, 3]  # bob unmatched; null-key row kept
        lo = bucketed_merge_join(left, right, on="name", how="left").to_pandas()
        got = dict(zip(lo["x"], lo["y"]))
        assert got[1] == 10 and pd.isna(got[2]) and pd.isna(got[3])

    def test_ivf_sample_cap_partitioning_invariant(self):
        """With the per-block cap active (cap < candidate count), the
        trained centroids — hence the result — must not depend on block
        boundaries: every global winner survives its own batch's cut."""
        import numpy as np

        rng = np.random.default_rng(11)
        rows = [
            {"vec_id": i, "embedding": [float(x) for x in rng.normal(size=8)]}
            for i in range(400)
        ]
        q = rows[5]["embedding"]
        outs = []
        for parts in (2, 13):
            out = similarity.topk_cosine_ivf(
                _ds(rows).repartition(parts), q, k=5, n_centroids=4,
                n_probe=2, sample_mod=1, sample_cap_per_centroid=8,  # cap 32 << 400
            ).to_pandas()
            outs.append(list(zip(out["vec_id"], out["cos_sim"])))
        assert outs[0] == outs[1]

    def test_embedding_dups_exact_size_guard(self):
        rows = [
            {"vec_id": i, "embedding": [float(i), 1.0]} for i in range(30)
        ]
        with pytest.raises(ValueError, match="max_rows"):
            similarity.embedding_dup_pairs_exact(_ds(rows), max_rows=10).count()
        # under the cap it still works
        out = similarity.embedding_dup_pairs_exact(
            _ds(rows), tau=0.999, max_rows=100
        ).to_pandas()
        assert len(out) > 0


class TestRound3Operators:
    """TF-IDF, seeded shuffle rank, distributed k-means."""

    def test_tfidf_matches_bruteforce(self, ray_session):
        rows = [
            {"doc_id": 0, "text": "apple banana apple"},
            {"doc_id": 1, "text": "banana cherry"},
            {"doc_id": 2, "text": "apple cherry cherry date"},
        ]
        out = textstats.top_tfidf_terms(_ds(rows), k=10).to_pandas()
        got = {r.token: (r.n, r.df, r.tfidf) for r in out.itertuples()}
        # apple: n=3 df=2; banana: n=2 df=2; cherry: n=3 df=2; date: n=1 df=1
        assert got["apple"] == (3, 2, round(float(3 * np.log(3 / 2)), 6))
        assert got["date"] == (1, 1, round(float(np.log(3.0)), 6))
        # order: tfidf DESC, token ASC — apple/cherry tie broken by name
        assert list(out["token"][:2]) == ["apple", "cherry"]

    def test_shuffle_rank_is_permutation_and_invariant(self, ray_session):
        rows = [{"doc_id": i} for i in range(97)]
        a = dedup.seeded_shuffle_rank(_ds(rows), seed=3).to_pandas()
        assert sorted(a["shuffle_pos"]) == list(range(97))
        b = dedup.seeded_shuffle_rank(
            _ds(rows).repartition(7), seed=3
        ).to_pandas()
        am = dict(zip(a["doc_id"], a["shuffle_pos"]))
        bm = dict(zip(b["doc_id"], b["shuffle_pos"]))
        assert am == bm
        # a different seed gives a different permutation
        c = dedup.seeded_shuffle_rank(_ds(rows), seed=4).to_pandas()
        cm = dict(zip(c["doc_id"], c["shuffle_pos"]))
        assert cm != am

    def test_kmeans_partitions_and_is_invariant(self, ray_session):
        rng = np.random.default_rng(5)
        # three well-separated direction clusters
        centers = np.eye(3)
        rows = []
        for i in range(120):
            v = centers[i % 3] * 5 + rng.normal(size=3) * 0.1
            rows.append({"vec_id": i, "embedding": [float(x) for x in v]})
        out = similarity.kmeans_clusters(_ds(rows), n_clusters=3).to_pandas()
        assert len(out) == 120
        # members of the same planted cluster agree on the learned label
        lbl = dict(zip(out["vec_id"], out["cluster"]))
        for planted in range(3):
            ids = [i for i in range(120) if i % 3 == planted]
            assert len({lbl[i] for i in ids}) == 1
        # the three planted clusters map to three distinct labels
        assert len({lbl[0], lbl[1], lbl[2]}) == 3
        # partitioning invariance
        out2 = similarity.kmeans_clusters(
            _ds(rows).repartition(11), n_clusters=3
        ).to_pandas()
        m1 = sorted(zip(out["vec_id"], out["cluster"], out["cos_to_centroid"]))
        m2 = sorted(zip(out2["vec_id"], out2["cluster"], out2["cos_to_centroid"]))
        assert m1 == m2

    def test_decontaminate_flags_overlap(self, ray_session):
        # pick ids by their (deterministic) md5 split so the shared text
        # lands in BOTH a test doc and train docs
        import hashlib

        def split_of(i):
            h = hashlib.md5(str(i).encode()).hexdigest()[:2]
            return "train" if h < "cc" else ("valid" if h < "e6" else "test")

        ids = list(range(200))
        by = {i: split_of(i) for i in ids}
        test_ids = [i for i in ids if by[i] == "test"][:2]
        train_shared = [i for i in ids if by[i] == "train"][:4]
        shared = "alpha beta gamma delta epsilon zeta"
        rows = []
        for i in ids[:60] + test_ids:
            rows.append({
                "doc_id": i,
                "text": shared if (i in test_ids or i in train_shared)
                else f"doc {i} " + " ".join(f"u{i}x{j}" for j in range(8)),
            })
        out = dedup.decontaminate_against_eval(_ds(rows), n=3).to_pandas()
        got = set(out["doc_id"])
        # every train doc with the shared text is flagged; unique ones not
        assert set(train_shared) <= got
        assert all(by[d] == "train" for d in got)

    def test_decontaminate_eval_cap_guard(self, ray_session):
        rows = [{"doc_id": i, "text": " ".join(f"w{i}g{j}" for j in range(30))}
                for i in range(60)]
        with pytest.raises(ValueError, match="max_eval_ngrams"):
            dedup.decontaminate_against_eval(_ds(rows), n=3, max_eval_ngrams=5)

    def test_decontaminate_empty_eval_ngram_set(self, ray_session):
        # token-free test split -> EMPTY eval n-gram set; the broadcast
        # path must return no hits (it used to -1-index a size-0 array)
        import hashlib

        def split_of(i):
            h = hashlib.md5(str(i).encode()).hexdigest()[:2]
            return "train" if h < "cc" else ("valid" if h < "e6" else "test")

        rows = [
            {
                "doc_id": i,
                "text": "" if split_of(i) != "train"
                else "alpha beta gamma delta",
            }
            for i in range(120)
        ]
        out = dedup.decontaminate_against_eval(_ds(rows), n=3).to_pandas()
        assert len(out) == 0
        out2 = dedup.decontaminate_against_eval_sharded(
            _ds(rows), n=3, n_shards=2
        ).to_pandas()
        assert len(out2) == 0

    def test_sharded_decontaminate_md5_routing(self, ray_session):
        # shard routing is the pinned md5 prefix, not polars' unstable hash
        import hashlib

        import pyarrow as pa

        from ocr_platform_ray.md5np import md5_u32

        grams = ["alpha beta gamma", "x y z", "", "köln 漢字 test"]
        got = md5_u32(pa.array(grams))
        want = [
            int(hashlib.md5(g.encode()).hexdigest()[:8], 16) for g in grams
        ]
        assert got.tolist() == want

    def test_repetition_ratio(self, ray_session):
        rows = [
            {"doc_id": 0, "text": "a b a b a b"},   # 5 bigrams, 2 distinct
            {"doc_id": 1, "text": "x y z"},
            {"doc_id": 2, "text": "one"},
            {"doc_id": 3, "text": ""},
        ]
        out = (
            _ds(rows)
            .map_batches(textstats.repetition_batch, batch_format="pyarrow")
            .to_pandas()
            .set_index("doc_id")["dup_bigram_ratio"]
        )
        assert out[0] == 0.6
        assert out[1] == 0.0 and out[2] == 0.0 and out[3] == 0.0

    def test_exact_quantile_matches_numpy(self, ray_session):
        from ocr_platform_ray.functions.sketches import exact_quantile

        rng = np.random.default_rng(3)
        v = rng.normal(size=5001) * 100
        ds = rd.from_arrow(pa.table({"x": v})).repartition(7)
        for q in (0.0, 0.25, 0.5, 0.95, 1.0):
            assert exact_quantile(ds, "x", q) == float(np.quantile(v, q))
        ties = np.repeat([1.0, 2.0, 3.0], 500)
        ds2 = rd.from_arrow(pa.table({"x": ties})).repartition(5)
        assert exact_quantile(ds2, "x", 0.5) == 2.0
        with pytest.raises(ValueError, match="collect_cap"):
            exact_quantile(ds2, "x", 0.5, n_bins=2, collect_cap=10)

    def test_heavy_hitters_bounds(self, ray_session):
        from ocr_platform_ray.functions.sketches import heavy_hitter_tokens

        rows = []
        # zipf-ish: token "hot" in every doc, others unique
        for i in range(80):
            rows.append({"doc_id": i,
                         "text": "hot hot hot " + " ".join(f"u{i}x{j}" for j in range(10))})
        ds = _ds(rows).repartition(6)
        exact_n = 240
        full = heavy_hitter_tokens(ds, k=5, capacity=10_000).to_pandas()
        assert full["token"].iloc[0] == "hot"
        assert full["n_min"].iloc[0] == exact_n == full["n_max"].iloc[0]
        tight = heavy_hitter_tokens(ds, k=5, capacity=4).to_pandas()
        m = tight.set_index("token")
        assert "hot" in m.index
        assert m.loc["hot", "n_min"] <= exact_n <= m.loc["hot", "n_max"]

    def test_semantic_dedup_removes_planted(self, ray_session):
        rng = np.random.default_rng(9)
        vecs = rng.normal(size=(60, 8))
        rows = [{"vec_id": i, "embedding": [float(x) for x in vecs[i]]}
                for i in range(60)]
        # planted exact duplicates of the first 10 vectors
        rows += [{"vec_id": 1000 + i, "embedding": rows[i]["embedding"]}
                 for i in range(10)]
        kept = similarity.semantic_dedup_keep(
            _ds(rows), n_clusters=4, tau=0.999
        ).to_pandas()
        ids = set(kept["vec_id"])
        # exactly one of each duplicate pair survives
        for i in range(10):
            assert (i in ids) != (1000 + i in ids)
        assert len(kept) == 60
        kept2 = similarity.semantic_dedup_keep(
            _ds(rows).repartition(7), n_clusters=4, tau=0.999
        ).to_pandas()
        assert sorted(kept["vec_id"]) == sorted(kept2["vec_id"])

    def test_unigram_logprob_scores(self, ray_session):
        rows = [
            {"doc_id": 0, "text": "common common common"},
            {"doc_id": 1, "text": "rare"},
            {"doc_id": 2, "text": ""},
        ]
        out = (
            textstats.unigram_logprob_batchfn(_ds(rows))
            .to_pandas()
            .set_index("doc_id")
        )
        # vocab: common=3, rare=1; N=4, V=2
        lp_common = np.log(4 / 6)
        lp_rare = np.log(2 / 6)
        assert out.loc[0, "mean_logprob"] == round(lp_common, 6)
        assert out.loc[1, "mean_logprob"] == round(lp_rare, 6)
        assert 2 not in out.index  # zero-token doc emits no row
        assert out.loc[0, "n_tok"] == 3
        with pytest.raises(ValueError, match="max_vocab"):
            textstats.unigram_logprob_batchfn(_ds(rows), max_vocab=1).count()

    def test_profile_columns(self, ray_session):
        from ocr_platform_ray.functions.profiling import profile_columns

        rows = [
            {"a": 1, "b": "x", "c": None},
            {"a": 5, "b": None, "c": 2.5},
            {"a": -3, "b": "m", "c": 0.5},
        ]
        out = (
            profile_columns(_ds(rows).repartition(3), ["a", "b", "c"])
            .to_pandas()
            .set_index("column")
        )
        assert out.loc["a", "num_min"] == -3.0 and out.loc["a", "num_max"] == 5.0
        assert out.loc["b", "str_min"] == "m" and out.loc["b", "str_max"] == "x"
        assert out.loc["b", "n_nulls"] == 1
        assert out.loc["c", "n_nulls"] == 1 and out.loc["c", "num_max"] == 2.5
        assert (out["n_rows"] == 3).all()

    def test_chunk_documents_windows(self, ray_session):
        rows = [
            {"doc_id": 0, "text": " ".join(f"w{i}" for i in range(10))},
            {"doc_id": 1, "text": "a b"},
            {"doc_id": 2, "text": ""},
        ]
        out = (
            textstats.chunk_documents(_ds(rows), chunk_tokens=4, overlap=1)
            .to_pandas()
            .sort_values(["doc_id", "chunk_idx"])
            .reset_index(drop=True)
        )
        d0 = out[out.doc_id == 0]
        # starts 0,3,6,9 -> windows [0:4],[3:7],[6:10],[9:10]
        assert d0["chunk_text"].tolist() == [
            "w0 w1 w2 w3", "w3 w4 w5 w6", "w6 w7 w8 w9", "w9"
        ]
        assert d0["n_tokens"].tolist() == [4, 4, 4, 1]
        assert out[out.doc_id == 1]["chunk_text"].tolist() == ["a b"]
        assert 2 not in set(out["doc_id"])
        with pytest.raises(ValueError, match="overlap"):
            textstats.chunk_documents(_ds(rows), chunk_tokens=4, overlap=4)

    def test_int8_quantized_topk_recall(self, ray_session):
        rng = np.random.default_rng(13)
        vecs = rng.normal(size=(300, 16))
        rows = [{"vec_id": i, "embedding": [float(x) for x in vecs[i]]}
                for i in range(300)]
        q = rows[7]["embedding"]
        qds = similarity.quantize_embeddings(_ds(rows))
        approx = similarity.topk_cosine_int8(qds, q, k=10).to_pandas()
        exact = similarity.topk_cosine(_ds(rows), q, k=10).to_pandas()
        # int8 grid error ~1/127 per dim: high overlap, identical top-1
        assert approx["vec_id"].iloc[0] == exact["vec_id"].iloc[0] == 7
        assert len(set(approx["vec_id"]) & set(exact["vec_id"])) >= 8
        # roundtrip error bound: |deq - x| <= scale/254 per dimension
        sample = qds.take(5)
        src = {r["vec_id"]: np.array(r["embedding"]) for r in rows}
        for r in sample:
            deq = np.frombuffer(r["qvec"], dtype=np.int8).astype(np.float64) \
                * r["scale"] / 127.0
            assert np.abs(deq - src[r["vec_id"]]).max() <= r["scale"] / 254 + 1e-12

    def test_shuffle_rank_string_ids(self, ray_session):
        import hashlib

        ids = [f"doc-{i:03d}" for i in range(40)] + ["x", "a-b_c"]
        rows = [{"doc_id": d} for d in ids]
        out = dedup.seeded_shuffle_rank(_ds(rows), seed=11).to_pandas()
        got = dict(zip(out["doc_id"], out["shuffle_pos"]))
        want_order = sorted(
            ids, key=lambda d: (hashlib.md5(f"{d}:11".encode()).hexdigest(), d)
        )
        assert got == {d: i for i, d in enumerate(want_order)}

    def test_negative_pairs_derangement(self, ray_session):
        rows = [{"doc_id": i} for i in range(30)]
        out = dedup.negative_pairs(_ds(rows), seed=3).to_pandas()
        assert len(out) == 30
        assert (out["doc_id"] != out["partner_doc_id"]).all()
        # it's a permutation: every doc appears exactly once on each side
        assert sorted(out["doc_id"]) == list(range(30))
        assert sorted(out["partner_doc_id"]) == list(range(30))
        # partitioning invariance
        out2 = dedup.negative_pairs(_ds(rows).repartition(7), seed=3).to_pandas()
        m1 = dict(zip(out["doc_id"], out["partner_doc_id"]))
        m2 = dict(zip(out2["doc_id"], out2["partner_doc_id"]))
        assert m1 == m2
