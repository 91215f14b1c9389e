"""Planted pins for round-5 batch 39: one-way ANOVA F, Brown–Forsythe
variance-homogeneity F, and the per-type inter-arrival fit. Registry
equality vs DuckDB at sf0.01/sf0.1 is swept by
tools/check_correctness.py."""

import math

import pyarrow as pa

import ray.data as rd

from ocr_platform_ray.functions import round_half_away
from ocr_platform_ray.functions.events import interarrival_fit
from ocr_platform_ray.functions.relational import (
    _anova_f_from_acc,
    _int_moment_acc,
    anova_f_by_group,
    brown_forsythe,
)

DAY_US = 86_400_000_000


def _tbl(groups, values):
    return rd.from_arrow(
        pa.table(
            {
                "g": pa.array(groups, pa.string()),
                "x": pa.array(values, pa.int64()),
            }
        )
    )


def test_anova_planted_textbook():
    # a=[1,2,3] (mean 2), b=[5,6,7] (mean 6): SSB=24, SSW=4, F=24
    out = anova_f_by_group(
        _tbl(["a"] * 3 + ["b"] * 3, [1, 2, 3, 5, 6, 7]), "g", "x"
    ).to_pandas()
    assert out["n"].tolist() == [6] and out["k"].tolist() == [2]
    assert out["f_stat"].tolist() == [24.0]
    assert out["eta2"].tolist() == [round(24.0 / 28.0, 6)]


def test_anova_identical_values_null():
    out = anova_f_by_group(
        _tbl(["a", "a", "b", "b"], [7, 7, 7, 7]), "g", "x"
    ).to_pandas()
    assert out["f_stat"].isna().all() and out["eta2"].isna().all()


def test_anova_single_group_null_f():
    out = anova_f_by_group(_tbl(["a"] * 4, [1, 2, 3, 4]), "g", "x").to_pandas()
    assert out["k"].tolist() == [1]
    assert out["f_stat"].isna().all()


def test_brown_forsythe_planted():
    # a=[0,2,10,12] median 6 -> w=|2x-12|=[12,8,8,12]; b=[4,5,6,7]
    # median 5.5 -> w=|2x-11|=[3,1,1,3]; F = (128/1)/(20/6) = 38.4
    out = brown_forsythe(
        _tbl(["a"] * 4 + ["b"] * 4, [0, 2, 10, 12, 4, 5, 6, 7]), "g", "x"
    ).to_pandas()
    assert out["n"].tolist() == [8] and out["k"].tolist() == [2]
    assert out["f_bf"].tolist() == [38.4]


def test_brown_forsythe_equal_spread_zero_f():
    # both groups same shape around their medians -> SSB of w is 0 -> F=0
    out = brown_forsythe(
        _tbl(["a"] * 3 + ["b"] * 3, [1, 2, 3, 101, 102, 103]), "g", "x"
    ).to_pandas()
    assert out["f_bf"].tolist() == [0.0]


def test_int_moments_exact_past_int64_square():
    # |x| ~ 4e9 > 3_037_000_499, so x*x wraps in int64; the moments must
    # equal plain Python-int sums, over several blocks per group
    vals = [4_000_000_000 + 7 * i for i in range(12)]
    vals += [-4_100_000_001 - 13 * i for i in range(12)]
    groups = ["a", "b", "c"] * 8
    tbl = pa.table(
        {"g": pa.array(groups, pa.string()), "x": pa.array(vals, pa.int64())}
    )
    ds = rd.from_arrow([tbl.slice(i, 5) for i in range(0, len(vals), 5)])
    want: dict = {}
    for g, x in zip(groups, vals):
        n, s, q = want.get(g, (0, 0, 0))
        want[g] = (n + 1, s + x, q + x * x)
    got = _int_moment_acc(
        ds, "g", lambda b: b.column("x").to_numpy(), 100, "test"
    )
    assert got == want
    out = anova_f_by_group(ds, "g", "x").to_pandas()
    f = _anova_f_from_acc(want)[2]
    assert out["f_stat"].tolist() == [round_half_away(f, 6)]


def _events(specs):
    """specs: list of (event_type, ts_us)."""
    return rd.from_arrow(
        pa.table(
            {
                "event_type": pa.array([s[0] for s in specs], pa.string()),
                "ts": pa.array([s[1] for s in specs], pa.timestamp("us")),
            }
        )
    )


def test_interarrival_within_and_boundary():
    base = 1_700_000_000_000_000
    base -= base % DAY_US
    # day 0: t=0s, 10s; day 1: t=+5s -> gaps 10 s and 86395 s
    ev = _events(
        [
            ("x", base),
            ("x", base + 10_000_000),
            ("x", base + DAY_US + 5_000_000),
        ]
    )
    out = interarrival_fit(ev).to_pandas()
    assert out["n_gaps"].tolist() == [2]
    mean = (10 + 86395) / 2.0
    assert out["mean_gap_s"].tolist() == [round(mean, 6)]
    var = (10 - mean) ** 2 + (86395 - mean) ** 2  # /(n-1)=1
    assert out["cv_gap"].tolist() == [round(math.sqrt(var) / mean, 6)]
    assert out["per_hour"].tolist() == [round(3600.0 / mean, 6)]


def test_interarrival_silent_day_chains():
    base = 1_700_000_000_000_000
    base -= base % DAY_US
    # events on day 0 and day 2 only: ONE gap spanning the silent day
    ev = _events([("x", base), ("x", base + 2 * DAY_US)])
    out = interarrival_fit(ev).to_pandas()
    assert out["n_gaps"].tolist() == [1]
    assert out["mean_gap_s"].tolist() == [2 * 86400.0]
    assert out["cv_gap"].isna().all()  # n < 2


def test_interarrival_single_event_type_dropped_and_ties_zero():
    base = 1_700_000_000_000_000
    base -= base % DAY_US
    ev = _events(
        [("lonely", base), ("t", base), ("t", base), ("t", base)]
    )
    out = interarrival_fit(ev).to_pandas()
    assert out["event_type"].tolist() == ["t"]  # 'lonely' has no gaps
    assert out["n_gaps"].tolist() == [2]
    assert out["mean_gap_s"].tolist() == [0.0]
    # s == 0: rate and CV are NULL on both engines
    assert out["cv_gap"].isna().all() and out["per_hour"].isna().all()
