"""Planted pins for round-5 batch 32: time-boxed funnel and SCD
Type-2 intervals. Registry equality vs DuckDB at sf0.01/sf0.1 is swept
by tools/check_correctness.py."""

import pandas as pd
import pyarrow as pa

import ray.data as rd

from ocr_platform_ray.functions.events import funnel_within, scd2_intervals

HOUR_US = 3_600_000_000


def _events(rows):
    """rows: (user_id, event_id, event_type, hour_float)."""
    base = 1_700_000_000_000_000
    return rd.from_arrow(
        pa.table(
            {
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
                "event_id": pa.array([r[1] for r in rows], pa.int64()),
                "event_type": pa.array([r[2] for r in rows], pa.string()),
                "ts": pa.array(
                    [base + int(r[3] * HOUR_US) for r in rows],
                    pa.timestamp("us"),
                ),
            }
        )
    )


def test_funnel_24h_window_enforced():
    rows = [
        # u1: full funnel inside windows
        (1, 1, "view", 0.0), (1, 2, "click", 1.0), (1, 3, "purchase", 2.0),
        # u2: click arrives 30h after first view -> hop 2 fails
        (2, 4, "view", 0.0), (2, 5, "click", 30.0),
        (2, 6, "purchase", 31.0),
        # u3: click ok (2h), purchase 26h after click -> hop 3 fails
        (3, 7, "view", 0.0), (3, 8, "click", 2.0),
        (3, 9, "purchase", 28.5),
        # u4: view only
        (4, 10, "view", 5.0),
    ]
    out = funnel_within(_events(rows)).to_pandas().iloc[0]
    assert out["n_stage1"] == 4
    assert out["n_stage2"] == 2   # u1, u3
    assert out["n_stage3"] == 1   # u1
    assert out["rate12"] == 0.5
    assert out["rate23"] == 0.5


def test_funnel_24h_vs_unlimited():
    """The 24h cap must be the ONLY difference vs funnel_counts."""
    from ocr_platform_ray.functions.events import funnel_counts

    rows = [
        (1, 1, "view", 0.0), (1, 2, "click", 50.0),   # outside 24h
        (1, 3, "purchase", 51.0),
    ]
    ds = _events(rows)
    unlimited = funnel_counts(ds).to_pandas().iloc[0]
    boxed = funnel_within(ds).to_pandas().iloc[0]
    assert unlimited["n_stage2"] == 1 and boxed["n_stage2"] == 0


def test_scd2_runs_and_intervals():
    rows = [
        (1, 1, "view", 0.0),
        (1, 2, "view", 1.0),
        (1, 3, "click", 2.0),
        (1, 4, "view", 3.0),
        (2, 5, "error", 0.5),
    ]
    out = (
        scd2_intervals(_events(rows))
        .to_pandas()
        .sort_values(["user_id", "valid_from_us"])
        .reset_index(drop=True)
    )
    u1 = out[out["user_id"] == 1]
    assert u1["event_type"].tolist() == ["view", "click", "view"]
    assert u1["n_events"].tolist() == [2, 1, 1]
    # valid_to chains to the next run's start; last run open (-1)
    assert out["valid_to_us"].dtype == "int64"
    assert u1["valid_to_us"].iloc[0] == u1["valid_from_us"].iloc[1]
    assert u1["valid_to_us"].iloc[1] == u1["valid_from_us"].iloc[2]
    assert u1["valid_to_us"].iloc[2] == -1
    u2 = out[out["user_id"] == 2]
    assert len(u2) == 1 and u2["valid_to_us"].iloc[0] == -1


def test_scd2_ts_tie_broken_by_event_id():
    rows = [
        (1, 7, "click", 1.0),
        (1, 3, "view", 1.0),  # same ts, smaller id -> ordered first
    ]
    out = (
        scd2_intervals(_events(rows))
        .to_pandas()
        .sort_values("valid_from_us")
    )
    # both at the same ts: run order is view (id 3) then click (id 7)
    assert out["event_type"].tolist() == ["view", "click"]
    assert out["n_events"].tolist() == [1, 1]


def test_checker_flags_nullable_and_mixed_dtypes():
    # the sweep's dtype gate: the pre-fix q_scd2 column (Int64 with <NA>)
    # and a mixed object column are flagged; plain NaN/None are not
    import importlib.util
    import os

    import numpy as np

    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "tools", "check_correctness.py",
    )
    spec = importlib.util.spec_from_file_location("check_correctness", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    df = pd.DataFrame(
        {
            "valid_to_us": pd.array([5, None], dtype="Int64"),
            "flag": pd.array([True, None], dtype="boolean"),
            "mixed": ["x", 1],
            "text": ["x", None],
            "f": [1.0, np.nan],
            "n": np.array([1, -1], dtype=np.int64),
        }
    )
    assert mod.dtype_flags(df) == [
        "valid_to_us: nullable Int64",
        "flag: nullable boolean",
        "mixed: mixed object int/str",
    ]
