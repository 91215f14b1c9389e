"""Golden snapshots for the registry records marked ``golden=True``
(rows-only queries, no DuckDB oracle): pinned sf0.001 outputs catch
cross-round regressions in the non-SQL operators (LSH/minhash/simhash
pairs, winnowing, HLL, media features, detect view, extraction totals)
that a rows-only check cannot see.

Regenerate DELIBERATELY with ``python tools/make_query_goldens.py`` when a
semantics change is intentional, and say so in the commit message.
"""

import os
import sys

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
from make_query_goldens import SF_DIR, normalized  # noqa: E402

from ocr_platform_ray.queries import REGISTRY  # noqa: E402

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


def _cellwise_equal(a, b) -> bool:
    if isinstance(a, (list, np.ndarray)) or isinstance(b, (list, np.ndarray)):
        a = np.asarray(a).tolist()
        b = np.asarray(b).tolist()
        return a == b
    if isinstance(a, float) and isinstance(b, float):
        return (np.isnan(a) and np.isnan(b)) or a == b
    return a == b


@pytest.mark.parametrize("rec", [r for r in REGISTRY if r.golden],
                         ids=lambda r: r.name)
def test_query_matches_golden(rec, ray_session):
    name = rec.name
    got = normalized(rec.fn(SF_DIR))
    want = pq.read_table(
        os.path.join(GOLDEN_DIR, f"{name}.sf0.001.parquet")
    ).to_pandas()
    want = normalized(want)
    assert list(got.columns) == list(want.columns), name
    assert len(got) == len(want), f"{name}: {len(got)} rows vs golden {len(want)}"
    for col in got.columns:
        ga, wa = got[col].tolist(), want[col].tolist()
        bad = [i for i in range(len(ga)) if not _cellwise_equal(ga[i], wa[i])]
        assert not bad, (
            f"{name}.{col}: {len(bad)} cells drifted from the golden "
            f"(first at row {bad[0]}: {ga[bad[0]]!r} vs {wa[bad[0]]!r}) — "
            "if intentional, rerun tools/make_query_goldens.py"
        )
