"""Round-4 operator tests: line-level dedup, PII redaction, grouped
top-k, grouped quantiles, and the shared bucketed-group-apply primitive."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd


def _ds(rows):
    return rd.from_arrow(pa.Table.from_pylist(rows))


class TestBucketedGroupApply:
    def test_matches_pandas_groupby(self, ray_session):
        from ocr_platform_ray.functions import bucketed_group_apply

        rng = np.random.RandomState(7)
        df = pd.DataFrame(
            {"k": rng.randint(0, 50, 500), "v": rng.rand(500)}
        )

        def per_bucket(g):
            return g.groupby("k", as_index=False).agg(n=("v", "size"))

        out = (
            bucketed_group_apply(
                rd.from_pandas(df).repartition(7), "k", per_bucket, n_buckets=16
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        ref = (
            df.groupby("k", as_index=False)
            .agg(n=("v", "size"))
            .sort_values("k")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            out.astype({"n": "int64"}), ref.astype({"n": "int64"})
        )

    def test_strips_bucket_column(self, ray_session):
        from ocr_platform_ray.functions import bucketed_group_apply

        seen = []

        def probe(g):
            seen.append(list(g.columns))
            return g

        out = bucketed_group_apply(
            _ds([{"k": 1, "v": 2}, {"k": 2, "v": 3}]), "k", probe, n_buckets=4
        ).to_pandas()
        assert "cb" not in out.columns

    def test_one_call_per_sorted_block(self, ray_session):
        from ocr_platform_ray.functions import bucketed_group_apply

        rng = np.random.RandomState(11)
        df = pd.DataFrame({"k": rng.randint(0, 200, 2000), "v": rng.rand(2000)})

        def per_call(g):
            # one output row per call: the rows and key values it saw
            return pd.DataFrame(
                {"n": [len(g)], "keys": [sorted(set(g["k"].tolist()))]}
            )

        calls = bucketed_group_apply(
            rd.from_pandas(df).repartition(7), "k", per_call, n_buckets=16
        ).to_pandas()
        # 7 input blocks sort into 7 blocks: at most one call each, not
        # one per bucket (16)
        assert 1 <= len(calls) <= 7
        assert (calls["n"] > 0).all()
        seen = [k for ks in calls["keys"] for k in ks]
        assert len(seen) == len(set(seen)) == df["k"].nunique()
        assert calls["n"].sum() == len(df)

    def test_apply_per_partition_skips_empty_blocks(self, ray_session):
        from ocr_platform_ray.functions import apply_per_partition

        # 2 key values over 8 blocks: most range partitions of the sort
        # are empty, and none of them reaches fn
        df = pd.DataFrame({"k": np.arange(400) % 2, "v": np.arange(400)})

        def per_call(g):
            return pd.DataFrame({"n": [len(g)], "n_keys": [g["k"].nunique()]})

        calls = apply_per_partition(
            rd.from_pandas(df).repartition(8), "k", per_call
        ).to_pandas()
        assert 1 <= len(calls) <= 2
        assert (calls["n"] > 0).all()
        assert calls["n"].sum() == 400 and calls["n_keys"].sum() == 2


class TestDedupLines:
    def test_planted_duplicate_lines(self, ray_session):
        from ocr_platform_ray.functions.dedup import dedup_lines

        # 4-token lines; "a b c d" appears in docs 0, 1 and 2 — survives
        # only in doc 0 (first occurrence by (doc_id, line_idx))
        rows = [
            {"doc_id": 0, "text": "a b c d e f g h"},
            {"doc_id": 1, "text": "a b c d x y z w"},
            {"doc_id": 2, "text": "p q r s a b c d"},
        ]
        out = (
            dedup_lines(_ds(rows), line_tokens=4)
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        assert out.loc[0, "dedup_text"] == "a b c d e f g h"
        assert out.loc[1, "dedup_text"] == "x y z w"
        assert out.loc[2, "dedup_text"] == "p q r s"
        assert out["n_kept"].tolist() == [2, 1, 1]

    def test_fully_duplicate_doc_vanishes(self, ray_session):
        from ocr_platform_ray.functions.dedup import dedup_lines

        rows = [
            {"doc_id": 0, "text": "a b c d"},
            {"doc_id": 1, "text": "a b c d"},
        ]
        out = dedup_lines(_ds(rows), line_tokens=4).to_pandas()
        assert out["doc_id"].tolist() == [0]

    def test_keep_first_within_one_doc(self, ray_session):
        from ocr_platform_ray.functions.dedup import dedup_lines

        rows = [{"doc_id": 5, "text": "a b a b a b"}]
        out = dedup_lines(_ds(rows), line_tokens=2).to_pandas()
        assert out.loc[0, "dedup_text"] == "a b"
        assert int(out.loc[0, "n_kept"]) == 1

    def test_partitioning_invariance(self, ray_session):
        from ocr_platform_ray.functions.dedup import dedup_lines

        rng = np.random.RandomState(3)
        vocab = ["tok%d" % i for i in range(12)]
        rows = [
            {
                "doc_id": i,
                "text": " ".join(rng.choice(vocab, rng.randint(0, 20))),
            }
            for i in range(60)
        ]
        a = (
            dedup_lines(_ds(rows), line_tokens=4)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        b = (
            dedup_lines(_ds(rows).repartition(13), line_tokens=4)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)


class TestRedactPII:
    def test_replacements_and_counts(self, ray_session):
        from ocr_platform_ray.functions.textstats import redact_pii

        rows = [
            {"doc_id": 0, "text": "mail bob@x.co now"},
            {"doc_id": 1, "text": "call 555-0199 or 555-1 twice 555-12"},
            {"doc_id": 2, "text": "host 10.0.3.7 up"},
            {"doc_id": 3, "text": "plain text only"},
        ]
        out = (
            _ds(rows)
            .map_batches(redact_pii, batch_format="pyarrow")
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        assert out.loc[0, "clean_text"] == "mail <EMAIL> now"
        assert out.loc[1, "clean_text"] == "call <PHONE> or <PHONE> twice <PHONE>"
        assert out.loc[2, "clean_text"] == "host <IP> up"
        assert out.loc[3, "clean_text"] == "plain text only"
        assert out["n_emails"].tolist() == [1, 0, 0, 0]
        assert out["n_phones"].tolist() == [0, 3, 0, 0]
        assert out["n_ips"].tolist() == [0, 0, 1, 0]

    def test_ip_wins_over_phone_fragment(self, ray_session):
        # the dotted quad must redact as ONE <IP>, not a half-eaten
        # phone — order contract: email, then ip, then phone
        from ocr_platform_ray.functions.textstats import redact_pii

        rows = [{"doc_id": 0, "text": "ip 555.1.2.3 here"}]
        out = _ds(rows).map_batches(redact_pii, batch_format="pyarrow").to_pandas()
        assert out.loc[0, "clean_text"] == "ip <IP> here"


class TestGroupedTopK:
    def test_matches_pandas_reference(self, ray_session):
        from ocr_platform_ray.functions.relational import grouped_topk

        rng = np.random.RandomState(11)
        df = pd.DataFrame(
            {
                "k": rng.choice(["a", "b", "c"], 200),
                "id": np.arange(200),
                "v": rng.randint(0, 20, 200),  # many ties
            }
        )
        out = (
            grouped_topk(
                rd.from_pandas(df).repartition(9), "k", "v", 5, "id"
            )
            .to_pandas()
            .sort_values(["k", "id"])
            .reset_index(drop=True)
        )
        ref = (
            df.sort_values(["v", "id"], ascending=[False, True])
            .groupby("k", group_keys=False)
            .head(5)
            .sort_values(["k", "id"])
            .reset_index(drop=True)[["k", "id", "v"]]
        )
        pd.testing.assert_frame_equal(out, ref)

    def test_k_larger_than_group(self, ray_session):
        from ocr_platform_ray.functions.relational import grouped_topk

        rows = [{"k": "a", "id": 1, "v": 2}, {"k": "a", "id": 2, "v": 1}]
        out = grouped_topk(_ds(rows), "k", "v", 10, "id").to_pandas()
        assert len(out) == 2


class TestGroupedQuantiles:
    def test_matches_duckdb_quantile_cont(self, ray_session):
        import duckdb

        from ocr_platform_ray.functions.sketches import grouped_quantiles

        rng = np.random.RandomState(5)
        df = pd.DataFrame(
            {
                "k": rng.choice(["x", "y", "z"], 301),
                "v": np.round(rng.rand(301) * 100, 2),
            }
        )
        out = (
            grouped_quantiles(
                rd.from_pandas(df).repartition(5), "k", "v",
                qs=(0.25, 0.5, 0.75, 0.95),
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        ref = (
            duckdb.sql(
                "SELECT k, quantile_cont(v, 0.25) AS q25,"
                " quantile_cont(v, 0.5) AS q50,"
                " quantile_cont(v, 0.75) AS q75,"
                " quantile_cont(v, 0.95) AS q95"
                " FROM df GROUP BY k ORDER BY k"
            )
            .df()
            .reset_index(drop=True)
        )
        # exact double equality — the interpolation form is the contract
        for c in ["q25", "q50", "q75", "q95"]:
            assert out[c].tolist() == ref[c].tolist(), c
        assert out["k"].tolist() == ref["k"].tolist()

    def test_single_value_group(self, ray_session):
        from ocr_platform_ray.functions.sketches import grouped_quantiles

        rows = [{"k": "solo", "v": 42.0}]
        out = grouped_quantiles(_ds(rows), "k", "v").to_pandas()
        assert out.loc[0, "q25"] == 42.0
        assert out.loc[0, "q95"] == 42.0


class TestSampleToMixture:
    def test_weights_and_caps(self, ray_session):
        import hashlib

        from ocr_platform_ray.functions.dedup import sample_to_mixture

        # srcA: 40 rows, srcB: 4 rows (undersized), srcC unweighted
        rows = (
            [{"doc_id": i, "source": "srcA"} for i in range(40)]
            + [{"doc_id": 100 + i, "source": "srcB"} for i in range(4)]
            + [{"doc_id": 200 + i, "source": "srcC"} for i in range(10)]
        )
        out = sample_to_mixture(
            _ds(rows).repartition(5), "source",
            {"srcA": 0.5, "srcB": 0.5}, total=40,
        ).to_pandas()
        by = out.groupby("source")["doc_id"].apply(list).to_dict()
        # srcA: floor(0.5*40)=20 of 40; srcB capped at its 4 rows; srcC dropped
        assert len(by["srcA"]) == 20
        assert sorted(by["srcB"]) == [100, 101, 102, 103]
        assert "srcC" not in by
        # selection = smallest md5(doc_id) — check against hashlib
        ref = sorted(
            range(40), key=lambda i: (hashlib.md5(str(i).encode()).hexdigest(), i)
        )[:20]
        assert sorted(by["srcA"]) == sorted(ref)

    def test_partitioning_invariance(self, ray_session):
        from ocr_platform_ray.functions.dedup import sample_to_mixture

        rows = [
            {"doc_id": i, "source": "s%d" % (i % 3)} for i in range(90)
        ]
        w = {"s0": 0.25, "s1": 0.5, "s2": 0.25}
        a = (
            sample_to_mixture(_ds(rows), "source", w, total=30)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        b = (
            sample_to_mixture(_ds(rows).repartition(11), "source", w, total=30)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)

    def test_group_guard_raises(self, ray_session):
        from ocr_platform_ray.functions.dedup import sample_to_mixture

        rows = [{"doc_id": i, "source": "s%d" % i} for i in range(20)]
        with pytest.raises(ValueError, match="max_groups"):
            sample_to_mixture(
                _ds(rows), "source", {"s0": 1.0}, total=5, max_groups=10
            ).count()


class TestManyKeysScale:
    """The bucket idiom's reason to exist: tens of thousands of distinct
    keys must not mean tens of thousands of Ray groups. 20k keys through
    grouped_topk and grouped_quantiles, pinned against pandas/duckdb."""

    def test_grouped_topk_20k_keys(self, ray_session):
        from ocr_platform_ray.functions.relational import grouped_topk

        rng = np.random.RandomState(2)
        n = 100_000
        df = pd.DataFrame(
            {
                "k": rng.randint(0, 20_000, n),
                "id": np.arange(n),
                "v": rng.randint(0, 1000, n),
            }
        )
        out = (
            grouped_topk(rd.from_pandas(df).repartition(8), "k", "v", 2, "id")
            .to_pandas()
            .sort_values(["k", "id"])
            .reset_index(drop=True)
        )
        ref = (
            df.sort_values(["v", "id"], ascending=[False, True])
            .groupby("k", group_keys=False)
            .head(2)
            .sort_values(["k", "id"])
            .reset_index(drop=True)[["k", "id", "v"]]
        )
        pd.testing.assert_frame_equal(out, ref)

    def test_grouped_quantiles_20k_keys(self, ray_session):
        import duckdb

        from ocr_platform_ray.functions.sketches import grouped_quantiles

        rng = np.random.RandomState(4)
        n = 80_000
        df = pd.DataFrame(
            {
                "k": rng.randint(0, 20_000, n),
                "v": np.round(rng.rand(n) * 1000, 3),
            }
        )
        out = (
            grouped_quantiles(
                rd.from_pandas(df).repartition(8), "k", "v", qs=(0.5,)
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        ref = (
            duckdb.sql(
                "SELECT k, quantile_cont(v, 0.5) AS q50 FROM df"
                " GROUP BY k ORDER BY k"
            ).df().reset_index(drop=True)
        )
        assert out["k"].tolist() == ref["k"].tolist()
        assert out["q50"].tolist() == ref["q50"].tolist()


class TestDedupLinesReference:
    def test_matches_bruteforce_reference(self, ray_session):
        """Random corpora vs a pure-python keep-first reference."""
        import re

        from ocr_platform_ray.functions.dedup import dedup_lines

        for seed in (0, 1, 2):
            rng = np.random.RandomState(seed)
            vocab = ["a", "b", "c", "d"]  # tiny vocab -> many collisions
            rows = [
                {
                    "doc_id": i,
                    "text": " ".join(rng.choice(vocab, rng.randint(0, 12))),
                }
                for i in range(40)
            ]
            step = 3
            seen = set()
            want = {}
            for r in rows:  # rows are doc_id-ordered == keep-first order
                toks = re.findall("[a-z0-9]+", r["text"])
                kept = []
                for s in range(0, len(toks), step):
                    line = " ".join(toks[s:s + step])
                    if line not in seen:
                        seen.add(line)
                        kept.append(line)
                if kept:
                    want[r["doc_id"]] = (" ".join(kept), len(kept))
            out = dedup_lines(
                _ds(rows).repartition(7), line_tokens=step
            ).to_pandas()
            got = {
                int(r.doc_id): (r.dedup_text, int(r.n_kept))
                for r in out.itertuples()
            }
            assert got == want, f"seed={seed}"
