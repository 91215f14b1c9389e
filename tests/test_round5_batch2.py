"""Round-5 batch-2 operators pinned against brute-force pandas/duckdb
references on adversarial partitionings: new_users_by_day (cohort entry),
funnel_counts (ordered min-ts funnel), corr_by_group (centered mergeable
co-moments), grouped_mad_outliers (robust length gate), and the TPC-H
Q5-shaped supplier_volume_by_nation (checked via its DuckDB oracle in the
correctness sweep; here the dimension-broadcast plumbing is exercised on a
synthetic micro-warehouse)."""

import numpy as np
import pandas as pd

import ray.data as rd


def _events(n=500, users=37, seed=7):
    rng = np.random.RandomState(seed)
    return pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.randint(0, users, n).astype(np.int64),
            "ts": pd.to_datetime(
                rng.randint(0, 40 * 86_400, n).astype(np.int64) * 1_000_000,
                unit="us",
            ).astype("datetime64[us]"),
            "event_type": rng.choice(
                ["view", "click", "purchase", "error"], n
            ),
            "value": rng.rand(n) * 100,
        }
    )


class TestNewUsersByDay:
    def test_matches_bruteforce(self, ray_session):
        from ocr_platform_ray.functions.events import new_users_by_day

        df = _events()
        out = (
            new_users_by_day(rd.from_pandas(df).repartition(11))
            .to_pandas()
            .sort_values("day")
            .reset_index(drop=True)
        )

        first = df.groupby("user_id")["ts"].min()
        ref = (
            first.dt.floor("D")
            .dt.strftime("%Y-%m-%d")
            .value_counts()
            .rename_axis("day")
            .reset_index(name="n_new_users")
            .sort_values("day")
            .reset_index(drop=True)
        )
        ref["n_new_users"] = ref["n_new_users"].astype(np.int64)
        pd.testing.assert_frame_equal(out, ref)

    def test_counts_sum_to_distinct_users(self, ray_session):
        from ocr_platform_ray.functions.events import new_users_by_day

        df = _events(seed=13)
        out = new_users_by_day(rd.from_pandas(df).repartition(5)).to_pandas()
        assert out["n_new_users"].sum() == df["user_id"].nunique()


class TestFunnel:
    def test_matches_bruteforce(self, ray_session):
        from ocr_platform_ray.functions.events import funnel_counts

        df = _events(n=800, users=29, seed=3)
        out = funnel_counts(rd.from_pandas(df).repartition(7)).to_pandas()

        n1 = n2 = n3 = 0
        for _, g in df.groupby("user_id"):
            g = g.sort_values("ts")
            v = g[g.event_type == "view"]["ts"]
            if v.empty:
                continue
            n1 += 1
            c = g[(g.event_type == "click") & (g.ts > v.min())]["ts"]
            if c.empty:
                continue
            n2 += 1
            p = g[(g.event_type == "purchase") & (g.ts > c.min())]["ts"]
            if not p.empty:
                n3 += 1
        assert out.iloc[0].tolist() == [n1, n2, n3]

    def test_monotone_and_empty(self, ray_session):
        from ocr_platform_ray.functions.events import funnel_counts

        df = _events(n=300, seed=21)
        out = funnel_counts(rd.from_pandas(df).repartition(3)).to_pandas()
        r = out.iloc[0]
        assert r.n_stage1 >= r.n_stage2 >= r.n_stage3
        # no stage-1 events at all -> all zeros (and no crash)
        df2 = df[df.event_type != "view"]
        out2 = funnel_counts(rd.from_pandas(df2).repartition(3)).to_pandas()
        assert out2.iloc[0].tolist() == [0, 0, 0]


class TestCorrByGroup:
    def test_matches_pandas_corr(self, ray_session):
        from ocr_platform_ray.functions.relational import corr_by_group

        rng = np.random.RandomState(5)
        n = 4000
        df = pd.DataFrame(
            {
                "g": rng.choice(["a", "b", "c"], n),
                # large offset: the cancellation regime the centered
                # co-moments exist for
                "x": rng.rand(n) * 50 + 1,
                "y": rng.rand(n) * 1e5 + 1e6,
            }
        )
        df["y"] += df["x"] * 37.0  # induce real correlation
        out = (
            corr_by_group(rd.from_pandas(df).repartition(13), "g", "x", "y")
            .to_pandas()
            .sort_values("g")
            .reset_index(drop=True)
        )
        ref = (
            df.groupby("g")
            .apply(lambda d: d["x"].corr(d["y"]), include_groups=False)
            .round(6)
        )
        for _, row in out.iterrows():
            assert abs(row["corr_xy"] - ref[row["g"]]) < 2e-6

    def test_degenerate_group_is_nan(self, ray_session):
        from ocr_platform_ray.functions.relational import corr_by_group

        df = pd.DataFrame({"g": ["a"] * 4, "x": [2.0] * 4, "y": [1, 2, 3, 4.0]})
        out = corr_by_group(rd.from_pandas(df), "g", "x", "y").to_pandas()
        assert np.isnan(out["corr_xy"].iloc[0])


class TestMadOutliers:
    def test_matches_bruteforce(self, ray_session):
        from ocr_platform_ray.functions.sketches import grouped_mad_outliers

        rng = np.random.RandomState(9)
        n = 3000
        df = pd.DataFrame(
            {
                "doc_id": np.arange(n, dtype=np.int64),
                "lang": rng.choice(["en", "fr", "zh"], n),
                "n_chars": rng.randint(50, 2000, n).astype(np.int64),
            }
        )
        # plant extremes that MUST flag
        df.loc[:4, "n_chars"] = 1_000_000
        out = (
            grouped_mad_outliers(
                rd.from_pandas(df).repartition(9), "lang", "n_chars", "doc_id"
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        med = df.groupby("lang")["n_chars"].median()
        ad = (df["n_chars"] - df["lang"].map(med)).abs()
        mad = ad.groupby(df["lang"]).median()
        ref = (ad > 3.0 * df["lang"].map(mad)).astype(np.int64)
        assert (out["is_outlier"].to_numpy() == ref.to_numpy()).all()
        assert out["is_outlier"].iloc[:5].all()


class TestSupplierVolume:
    def test_micro_warehouse(self, ray_session, tmp_path):
        """2 regions / 4 nations / tiny facts where the answer is
        hand-computable; exercises the broadcast + join + same-nation
        filter end to end."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from ocr_platform_ray.functions.relational import (
            supplier_volume_by_nation,
        )

        sf = str(tmp_path)
        pq.write_table(
            pa.table({"r_regionkey": [0, 1], "r_name": ["ASIA", "EUROPE"]}),
            f"{sf}/region.parquet",
        )
        pq.write_table(
            pa.table(
                {
                    "n_nationkey": [0, 1, 2, 3],
                    "n_name": ["CHINA", "JAPAN", "FRANCE", "GERMANY"],
                    "n_regionkey": [0, 0, 1, 1],
                }
            ),
            f"{sf}/nation.parquet",
        )
        pq.write_table(
            pa.table(
                {"s_suppkey": [10, 11, 12], "s_nationkey": [0, 1, 2]}
            ),
            f"{sf}/supplier.parquet",
        )
        pq.write_table(
            pa.table(
                {"c_custkey": [20, 21, 22], "c_nationkey": [0, 1, 2]}
            ),
            f"{sf}/customer.parquet",
        )
        orders = pd.DataFrame(
            {
                "o_orderkey": [1, 2, 3, 4],
                "o_custkey": [20, 21, 22, 20],
                "o_orderdate": pd.to_datetime(
                    ["1995-06-01", "1995-07-01", "1995-08-01", "1999-01-01"]
                ).astype("datetime64[us]"),
            }
        )
        lineitem = pd.DataFrame(
            {
                # order 1 (cust CHINA): supp CHINA (match, 100*0.9=90) and
                # supp JAPAN (nation mismatch); order 2 (cust JAPAN): supp
                # JAPAN (match, 200); order 3: EUROPE cust -> filtered;
                # order 4: out of date window
                "l_orderkey": [1, 1, 2, 3, 4],
                "l_suppkey": [10, 11, 11, 12, 10],
                "l_extendedprice": [100.0, 50.0, 200.0, 70.0, 900.0],
                "l_discount": [0.1, 0.0, 0.0, 0.0, 0.0],
            }
        )
        out = (
            supplier_volume_by_nation(
                rd.from_pandas(lineitem).repartition(3),
                rd.from_pandas(orders).repartition(2),
                sf,
            )
            .to_pandas()
            .reset_index(drop=True)
        )
        assert out.to_dict("records") == [
            {"n_name": "JAPAN", "revenue": 200.0},
            {"n_name": "CHINA", "revenue": 90.0},
        ]


class TestRangeWindowSum:
    def test_matches_bruteforce_with_ties(self, ray_session):
        """RANGE peer semantics: rows tied on ts all include each other in
        the frame regardless of physical order — brute-force per row."""
        from ocr_platform_ray.functions.events import range_window_sum

        rng = np.random.RandomState(17)
        n = 400
        df = pd.DataFrame(
            {
                "event_id": np.arange(n, dtype=np.int64),
                "user_id": rng.randint(0, 19, n).astype(np.int64),
                # coarse grid -> guaranteed duplicate timestamps per user
                "ts": pd.to_datetime(
                    rng.randint(0, 50, n).astype(np.int64) * 1_800_000_000,
                    unit="us",
                ).astype("datetime64[us]"),
                "value": rng.rand(n) * 100,
            }
        )
        H = 3_600_000_000
        out = (
            range_window_sum(rd.from_pandas(df).repartition(7))
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        ts = df["ts"].astype("int64")
        ref = []
        for i in range(n):
            m = (
                (df["user_id"] == df["user_id"][i])
                & (ts >= ts[i] - H)
                & (ts <= ts[i])
            )
            ref.append(round(df["value"][m].sum(), 6))
        assert np.allclose(out["range_sum"].to_numpy(), ref, atol=2e-6)

    def test_user_bucket_guard_fires(self, ray_session):
        """Composite-key bound: 2^50-us span -> SHIFT ~ 2^50 -> at most
        8192 user ranks fit in int64; 9000 users in ONE input block (so
        one sorted block at any bucket width) must raise loudly rather
        than overflow silently, naming the remedy: more blocks."""
        import pytest
        import ray

        from ocr_platform_ray.functions.events import range_window_sum

        n_users = 9000
        df = pd.DataFrame(
            {
                "event_id": np.arange(n_users, dtype=np.int64),
                "user_id": np.arange(n_users, dtype=np.int64),
                "ts": np.array([0, 2**50] * (n_users // 2), dtype=np.int64)
                .astype("datetime64[us]"),
                "value": np.ones(n_users),
            }
        )
        with pytest.raises(ray.exceptions.RayTaskError,
                           match="split the input into more blocks"):
            range_window_sum(rd.from_pandas(df)).materialize()
        # the remedy the message names clears it
        assert range_window_sum(rd.from_pandas(df).repartition(8)).count() == n_users


class TestWeightedSample:
    def test_matches_bruteforce(self, ray_session):
        import hashlib

        from ocr_platform_ray.functions.dedup import weighted_sample

        rng = np.random.RandomState(3)
        n = 2000
        df = pd.DataFrame(
            {
                "doc_id": np.arange(n, dtype=np.int64),
                "n_chars": rng.randint(1, 5000, n).astype(np.int64),
            }
        )
        out = weighted_sample(
            rd.from_pandas(df).repartition(9), k=50
        ).to_pandas()

        u = np.array(
            [
                int(hashlib.md5(f"{d}:7".encode()).hexdigest()[:8], 16)
                / 2**32
                for d in df["doc_id"]
            ]
        )
        score = u ** (1.0 / df["n_chars"].to_numpy())
        ref = (
            pd.DataFrame({"doc_id": df["doc_id"], "s": score})
            .sort_values(["s", "doc_id"], ascending=[False, True])
            .head(50)
        )
        assert out["doc_id"].tolist() == ref["doc_id"].tolist()
        assert np.allclose(
            out["sample_score"].to_numpy(), ref["s"].round(6).to_numpy(),
            atol=1e-9,
        )

    def test_weight_bias(self, ray_session):
        """Heavier rows must be sampled far more often: weights 1000 vs 1,
        half the corpus each -> the k=200 sample should be mostly heavy."""
        from ocr_platform_ray.functions.dedup import weighted_sample

        n = 2000
        df = pd.DataFrame(
            {
                "doc_id": np.arange(n, dtype=np.int64),
                "n_chars": np.where(np.arange(n) % 2 == 0, 1000, 1).astype(
                    np.int64
                ),
            }
        )
        out = weighted_sample(rd.from_pandas(df), k=200).to_pandas()
        heavy = (out["doc_id"] % 2 == 0).mean()
        assert heavy > 0.95

    def test_nonpositive_weight_raises(self, ray_session):
        import pytest
        import ray

        from ocr_platform_ray.functions.dedup import weighted_sample

        df = pd.DataFrame(
            {"doc_id": [1, 2, 3], "n_chars": [10, 0, 5]}
        )
        with pytest.raises(ray.exceptions.RayTaskError, match="non-positive"):
            weighted_sample(rd.from_pandas(df)).materialize()


class TestCountMinSketch:
    def test_bounds_vs_exact(self, ray_session):
        """CMS one-sided guarantee: est >= true for every probe, and the
        overestimate is bounded by e/width x total tokens per row."""
        import re

        import pyarrow.parquet as pq

        from ocr_platform_ray.functions.sketches import cms_token_counts
        from ocr_platform_ray.functions.textstats import TOKEN_RE

        texts = (
            pq.read_table(
                "/root/testdata/sf0.001/documents.parquet", columns=["text"]
            )
            .column("text")
            .to_pylist()
        )
        from collections import Counter

        pat = re.compile(TOKEN_RE)
        true = Counter(t for s in texts for t in pat.findall(s))
        total = sum(true.values())
        probes = [t for t, _ in true.most_common(40)] + ["zzz_absent_token"]

        ds = rd.read_parquet(
            "/root/testdata/sf0.001/documents.parquet", columns=["text"]
        )
        out = cms_token_counts(ds, probes).to_pandas()
        width = 1 << 13
        import math

        bound = math.e / width * total  # per-row CM bound (min is tighter)
        for _, r in out.iterrows():
            t = true.get(r["token"], 0)
            assert r["est_n"] >= t
            assert r["est_n"] <= t + max(bound, 1) * 3  # min-of-4 slack

    def test_partition_independent(self, ray_session):
        """The merged grid is a pure sum -> identical estimates under any
        partitioning."""
        from ocr_platform_ray.functions.sketches import cms_token_counts

        probes = ["the", "and", "data"]
        a = cms_token_counts(
            rd.read_parquet(
                "/root/testdata/sf0.001/documents.parquet", columns=["text"]
            ).repartition(3),
            probes,
        ).to_pandas()
        b = cms_token_counts(
            rd.read_parquet(
                "/root/testdata/sf0.001/documents.parquet", columns=["text"]
            ).repartition(17),
            probes,
        ).to_pandas()
        pd.testing.assert_frame_equal(a, b)


class TestJsDivergence:
    def test_properties_and_bruteforce(self, ray_session):
        """JS properties: symmetric input handling, 0 for identical
        slices, <= 1 bit always; plus a brute-force check on a tiny
        corpus."""
        from collections import Counter

        from ocr_platform_ray.functions.textstats import (
            js_divergence_by_source,
        )

        df = pd.DataFrame(
            {
                "source": ["a"] * 3 + ["b"] * 3 + ["c"] * 3,
                "text": [
                    "x y z", "x x y", "z z q",       # a
                    "x y z", "x x y", "z z q",       # b: identical to a
                    "m m m", "n n n", "m n o",       # c: disjoint-ish
                ],
            }
        )
        out = js_divergence_by_source(
            rd.from_pandas(df).repartition(5)
        ).to_pandas()
        ab = out[(out.src_a == "a") & (out.src_b == "b")]["js_bits"].iloc[0]
        ac = out[(out.src_a == "a") & (out.src_b == "c")]["js_bits"].iloc[0]
        assert ab == 0.0
        assert 0.9 <= ac <= 1.0  # fully disjoint vocab -> 1 bit

        # brute force a-c
        def dist(srcs):
            c = Counter(
                t
                for s, txt in zip(df.source, df.text)
                if s in srcs
                for t in txt.split()
            )
            n = sum(c.values())
            return {k: v / n for k, v in c.items()}

        pa_, pc_ = dist({"a"}), dist({"c"})
        toks = set(pa_) | set(pc_)
        js = 0.0
        for t in toks:
            x, y = pa_.get(t, 0.0), pc_.get(t, 0.0)
            m = 0.5 * (x + y)
            if x > 0:
                js += 0.5 * x * np.log(x / m)
            if y > 0:
                js += 0.5 * y * np.log(y / m)
        assert abs(ac - js / np.log(2)) < 2e-6

    def test_max_sources_guard(self, ray_session):
        import pytest

        from ocr_platform_ray.functions.textstats import (
            js_divergence_by_source,
        )

        df = pd.DataFrame(
            {
                "source": [f"s{i}" for i in range(70)],
                "text": ["x y"] * 70,
            }
        )
        with pytest.raises(ValueError, match="max_sources"):
            js_divergence_by_source(rd.from_pandas(df))


class TestOrdersRollup:
    def test_matches_bruteforce(self, ray_session):
        from ocr_platform_ray.functions.relational import rollup_orders

        rng = np.random.RandomState(2)
        n = 1500
        df = pd.DataFrame(
            {
                "o_orderdate": pd.to_datetime(
                    rng.randint(0, 4 * 365, n) * 86_400_000_000 * 1, unit="us"
                ).astype("datetime64[us]"),
                "o_orderpriority": rng.choice(["1-URGENT", "2-HIGH", "3-LOW"], n),
                # cents-grid prices INCLUDING .50-boundary sums
                "o_totalprice": rng.randint(100, 10_000_000, n) / 100.0,
            }
        )
        out = (
            rollup_orders(rd.from_pandas(df).repartition(7))
            .to_pandas()
            .sort_values(["year", "priority"])
            .reset_index(drop=True)
        )
        cents = (df["o_totalprice"] * 100).round().astype(np.int64)
        yr = df["o_orderdate"].dt.year.astype(str)
        leaf = (
            pd.DataFrame({"year": yr, "priority": df["o_orderpriority"], "c": cents})
            .groupby(["year", "priority"], as_index=False)
            .agg(n_orders=("c", "size"), c=("c", "sum"))
        )
        yearly = leaf.groupby("year", as_index=False).agg(
            n_orders=("n_orders", "sum"), c=("c", "sum")
        )
        yearly["priority"] = "ALL"
        grand = pd.DataFrame(
            {"year": ["ALL"], "priority": ["ALL"],
             "n_orders": [len(df)], "c": [cents.sum()]}
        )
        ref = pd.concat([leaf, yearly, grand], ignore_index=True)
        ref["revenue"] = np.floor(np.abs(ref["c"] / 100.0) + 0.5)
        ref = (
            ref.drop(columns=["c"])[["year", "priority", "n_orders", "revenue"]]
            .sort_values(["year", "priority"])
            .reset_index(drop=True)
        )
        ref["n_orders"] = ref["n_orders"].astype(np.int64)
        pd.testing.assert_frame_equal(out, ref)

    def test_levels_consistent(self, ray_session):
        from ocr_platform_ray.functions.relational import rollup_orders

        out = rollup_orders(
            rd.read_parquet(
                "/root/testdata/sf0.001/orders.parquet",
                columns=["o_orderdate", "o_orderpriority", "o_totalprice"],
            )
        ).to_pandas()
        leaf = out[(out.year != "ALL") & (out.priority != "ALL")]
        yearly = out[(out.year != "ALL") & (out.priority == "ALL")]
        grand = out[(out.year == "ALL")]
        assert len(grand) == 1
        assert leaf["n_orders"].sum() == grand["n_orders"].iloc[0]
        assert yearly["n_orders"].sum() == grand["n_orders"].iloc[0]


class TestEventTypeLift:
    def test_matches_bruteforce(self, ray_session):
        from itertools import combinations

        from ocr_platform_ray.functions.events import event_type_lift

        df = _events(n=700, users=41, seed=29)
        out = event_type_lift(rd.from_pandas(df).repartition(9)).to_pandas()

        ut = df[["user_id", "event_type"]].drop_duplicates()
        nu = ut["user_id"].nunique()
        singles = ut.groupby("event_type")["user_id"].nunique()
        by_user = ut.groupby("user_id")["event_type"].agg(set)
        types = sorted(singles.index)
        for a, b in combinations(types, 2):
            both = sum(1 for s in by_user if a in s and b in s)
            row = out[(out.type_a == a) & (out.type_b == b)]
            if both == 0:
                assert row.empty
                continue
            assert int(row["n_users_both"].iloc[0]) == both
            assert abs(
                row["lift"].iloc[0]
                - round(both * nu / (singles[a] * singles[b]), 6)
            ) < 1e-9

    def test_independent_types_lift_near_one(self, ray_session):
        """Types assigned independently at random -> lift ~ 1."""
        from ocr_platform_ray.functions.events import event_type_lift

        rng = np.random.RandomState(4)
        n = 20000
        df = pd.DataFrame(
            {
                "user_id": rng.randint(0, 500, n).astype(np.int64),
                "event_type": rng.choice(["a", "b", "c"], n),
            }
        )
        out = event_type_lift(rd.from_pandas(df).repartition(11)).to_pandas()
        assert ((out["lift"] - 1.0).abs() < 0.05).all()
