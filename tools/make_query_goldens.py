"""(Re)generate golden parquet snapshots for the registry records marked
``golden=True`` (tests/goldens/q_*.sf0.001.parquet). Run deliberately
when a semantics change is intentional; the diff then shows exactly
what drifted:

    python tools/make_query_goldens.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from ocr_platform_ray.queries import REGISTRY  # noqa: E402

SF_DIR = "/root/testdata/sf0.001"
OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "tests", "goldens")

# the registry records with ``golden=True``: rows-only queries, whose
# cross-round regressions show only through these pinned snapshots
GOLDEN_QUERIES = [r.name for r in REGISTRY if r.golden]


def normalized(res):
    """Deterministic frame: stable column order, rows sorted by all
    sortable columns."""
    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    if isinstance(res, rd.Dataset):
        df = res.to_pandas()
    elif isinstance(res, pa.Table):
        df = res.to_pandas()
    else:
        df = res
    df = df[sorted(df.columns)]
    sort_cols = [
        c for c in df.columns
        if df[c].map(
            lambda v: not isinstance(v, (list, dict, np.ndarray))
        ).all()
    ]
    if sort_cols:
        df = df.sort_values(sort_cols, kind="mergesort")
    return df.reset_index(drop=True)


def main() -> int:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_platform_ray import queries as q

    reg = q.queries()
    only = set(sys.argv[1:])
    for name in GOLDEN_QUERIES:
        if only and name not in only:
            continue
        df = normalized(reg[name](SF_DIR))
        path = os.path.join(OUT_DIR, f"{name}.sf0.001.parquet")
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False), path)
        print(f"{name}: {len(df)} rows -> {path}")
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
