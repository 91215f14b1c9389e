"""Planted pins for round-5 batch 41: audience segment bitmask profile
and market-basket pair lift. Registry equality vs DuckDB at
sf0.01/sf0.1 is swept by tools/check_correctness.py."""

import pyarrow as pa

import ray.data as rd

from ocr_platform_ray.functions.events import user_segment_profile
from ocr_platform_ray.functions.relational import basket_pairs


def test_segment_profile_planted():
    ev = rd.from_arrow(
        pa.table(
            {
                "user_id": pa.array([1, 2, 2, 3, 4, 4, 4], pa.int64()),
                "event_type": pa.array(
                    ["a", "a", "b", "b", "a", "b", "b"], pa.string()
                ),
            }
        )
    )
    out = user_segment_profile(ev).to_pandas()
    # sorted types [a, b] -> bits 1, 2; u1=1, u2=3, u3=2, u4=3
    assert out["mask"].tolist() == [1, 2, 3]
    assert out["n_users"].tolist() == [1, 1, 2]


def test_basket_pairs_planted():
    # o1 {1,2,3}, o2 {1,2} (part 1 twice -> dedup), o3 {2,3}
    li = rd.from_arrow(
        pa.table(
            {
                "l_orderkey": pa.array(
                    [1, 1, 1, 2, 2, 2, 3, 3], pa.int64()
                ),
                "l_partkey": pa.array(
                    [1, 2, 3, 1, 2, 1, 2, 3], pa.int64()
                ),
            }
        )
    )
    out = basket_pairs(li).to_pandas()
    # counts: (1,2):2, (2,3):2, (1,3):1; ties break by (p1,p2)
    assert out[["p1", "p2"]].values.tolist() == [[1, 2], [2, 3], [1, 3]]
    assert out["n_pair"].tolist() == [2, 2, 1]
    # N=3; part orders: 1->2, 2->3, 3->2
    assert out["lift"].tolist() == [1.0, 1.0, 0.75]


def test_basket_pairs_empty():
    li = rd.from_arrow(
        pa.table(
            {
                "l_orderkey": pa.array([], pa.int64()),
                "l_partkey": pa.array([], pa.int64()),
            }
        )
    )
    ds = basket_pairs(li)
    # Ray's to_pandas drops the schema of a 0-row dataset; the Arrow
    # schema itself must keep the contract columns
    assert ds.schema().names == ["p1", "p2", "n_pair", "lift"]
    assert ds.count() == 0


def test_segment_bitmask_63_type_limit():
    """The per-user mask is an int64: 63 types fit (all bits set reads
    2^63 - 1); a 64th type is a ValueError naming the limit in both
    bitmask operators, not a bare OverflowError."""
    import pytest

    from ocr_platform_ray.functions.events import type_user_overlap

    def events(n_types):
        return rd.from_arrow(pa.table({
            "user_id": pa.array([7] * n_types, pa.int64()),
            "event_type": pa.array([f"t{i:02d}" for i in range(n_types)], pa.string()),
        }))

    out = user_segment_profile(events(63)).to_pandas()
    assert out["mask"].tolist() == [2**63 - 1] and out["n_users"].tolist() == [1]
    for fn in (user_segment_profile, type_user_overlap):
        with pytest.raises(ValueError, match="at most 63"):
            fn(events(64))
