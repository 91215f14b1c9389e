"""Planted pins for round-5 batch 43: tail-suffix boilerplate detector
and the label-margin mislabel audit. Registry equality vs DuckDB at
sf0.01/sf0.1 is swept by tools/check_correctness.py."""

import pyarrow as pa

import ray.data as rd

from ocr_platform_ray.functions.similarity import label_margin
from ocr_platform_ray.functions.textstats import head_prefixes


def test_tail_suffixes_planted():
    docs = rd.from_arrow(
        pa.table(
            {
                "source": pa.array(["s"] * 3, pa.string()),
                "text": pa.array(
                    ["aaa END", "bbbb END", "unique"], pa.string()
                ),
            }
        )
    )
    out = head_prefixes(docs, prefix_len=4, k=2, side="tail").to_pandas()
    assert list(out.columns) == ["source", "rank", "suffix", "n_docs",
                                 "share"]
    assert out["suffix"].tolist() == [" END", "ique"]
    assert out["n_docs"].tolist() == [2, 1]
    assert out["share"].tolist() == [round(2 / 3, 6), round(1 / 3, 6)]


def test_tail_shorter_than_len_keeps_whole():
    docs = rd.from_arrow(
        pa.table(
            {
                "source": pa.array(["s"], pa.string()),
                "text": pa.array(["ab"], pa.string()),
            }
        )
    )
    out = head_prefixes(docs, prefix_len=10, k=1, side="tail").to_pandas()
    assert out["suffix"].tolist() == ["ab"]


def _emb(specs):
    """specs: (vec_id, label, [floats])."""
    return rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([s[0] for s in specs], pa.int64()),
                "label": pa.array([s[1] for s in specs], pa.int32()),
                "embedding": pa.array(
                    [s[2] for s in specs], pa.list_(pa.float32())
                ),
            }
        )
    )


def test_label_margin_planted():
    # c0 = (10,0) from (0,0)+(20,0); c1 = (2,0) from (1,0)+(3,0)
    ds = _emb(
        [
            (1, 0, [0.0, 0.0]),
            (2, 0, [20.0, 0.0]),
            (3, 1, [1.0, 0.0]),
            (4, 1, [3.0, 0.0]),
        ]
    )
    out = label_margin(ds).to_pandas().sort_values("vec_id")
    # vec 1: d_own=10, d_other=2 -> margin 8, CONFUSABLE (closer to c1)
    assert out["margin"].tolist() == [8.0, -8.0, -8.0, -6.0]
    assert out["confusable"].tolist() == [1, 0, 0, 0]


def test_label_margin_single_label_null():
    ds = _emb([(1, 0, [0.0]), (2, 0, [2.0])])
    out = label_margin(ds).to_pandas()
    assert out["margin"].isna().all()
    assert out["confusable"].isna().all()


def test_label_margin_centroid_merge_order_independent():
    """The per-label centroid is the same bits whatever order the groupby
    hands over the (vec_sum, n) partials: cancellation-prone sums that a
    left-to-right float add gets wrong depending on order."""
    import numpy as np
    import pandas as pd

    from ocr_platform_ray.functions.similarity import _merge_centroid

    rng = np.random.default_rng(3)
    vecs = [np.array([1e16, 1.0, 0.1]), np.array([1.0, -1e16, 0.2]),
            np.array([-1e16, 1e16, 0.3])]
    vecs += [rng.normal(size=3) * 10.0 ** rng.integers(-3, 17) for _ in range(9)]
    g = pd.DataFrame({
        "label": [4] * len(vecs),
        "n": list(range(1, len(vecs) + 1)),
        "vec_sum": [v.astype(np.float64).tobytes() for v in vecs],
    })
    want = _merge_centroid(g)["mean"].iloc[0]
    naive = set()
    for seed in range(20):
        perm = np.random.default_rng(seed).permutation(len(g))
        shuffled = g.iloc[perm].reset_index(drop=True)
        assert _merge_centroid(shuffled)["mean"].iloc[0] == want
        naive.add(np.sum(np.stack(vecs)[perm], axis=0).tobytes())
    assert len(naive) > 1  # the inputs do expose order-dependent float sums
