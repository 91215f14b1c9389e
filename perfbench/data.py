"""Seeded benchmark inputs.

Every table is a pure function of ``(seed, size)``: the same seed writes the
same bytes, and the engine sees only the files written here. The column
shapes follow the driver's testdata tables (doc_id/text documents, a
timestamped events stream, TPC-H-shaped customer/orders/lineitem) so the
registry queries and their DuckDB oracles run unchanged.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = (
    "spark window merge table column vector stream value data small join "
    "filter big group hash customer sort order slow line part fast row the "
    "agg key query a scan batch"
).split()
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]


def _rng(seed: int, stream: str) -> np.random.Generator:
    # one independent stream per table, so resizing one table leaves the
    # others' bytes unchanged
    return np.random.default_rng([seed, sum(map(ord, stream))])


def documents_table(n_docs: int, seed: int) -> pa.Table:
    """(doc_id int64, text) rows, 8-95 vocabulary words each (the testdata
    length range). 1% of docs copy an earlier text exactly and 2% copy one
    with a single word changed, so exact and near-dup queries find work."""
    rng = _rng(seed, "documents")
    vocab = np.array(VOCAB)
    texts: list[str] = []
    for d in range(n_docs):
        r = rng.random()
        if d > 0 and r < 0.01:
            texts.append(texts[int(rng.integers(0, d))])
        elif d > 0 and r < 0.03:
            words = texts[int(rng.integers(0, d))].split()
            words[int(rng.integers(0, len(words)))] = "dup"
            texts.append(" ".join(words))
        else:
            texts.append(" ".join(rng.choice(vocab, size=int(rng.integers(8, 96)))))
    return pa.table(
        {"doc_id": pa.array(np.arange(n_docs), pa.int64()), "text": pa.array(texts)}
    )


def events_table(n_events: int, n_users: int, seed: int) -> pa.Table:
    """(user_id, ts) over 30 days: bursts of 1-12 events a few minutes
    apart, bursts hours apart, so 30-minute sessionization has real work."""
    rng = _rng(seed, "events")
    start = np.datetime64("2024-01-01T00:00:00", "us")
    span_us = 30 * 86_400 * 1_000_000
    users = np.empty(n_events, np.int64)
    ts = np.empty(n_events, np.int64)
    i = 0
    while i < n_events:
        k = min(int(rng.integers(1, 13)), n_events - i)
        users[i : i + k] = rng.integers(0, n_users)
        t0 = int(rng.integers(0, span_us))
        steps = rng.integers(1, 20 * 60 * 1_000_000, size=k)
        ts[i : i + k] = t0 + np.cumsum(steps)
        i += k
    order = np.argsort(ts, kind="stable")
    return pa.table(
        {
            "user_id": pa.array(users[order]),
            "ts": pa.array(start + ts[order].astype("timedelta64[us]")),
        }
    )


def tpch_tables(n_orders: int, seed: int) -> dict[str, pa.Table]:
    """customer / orders / lineitem with the columns q_shipping_priority
    reads: 1 customer per 10 orders, 1-7 lines per order, order dates over
    1992-1998 and ship dates 1-121 days later."""
    rng = _rng(seed, "tpch")
    n_cust = max(1, n_orders // 10)
    customer = pa.table(
        {
            "c_custkey": pa.array(np.arange(n_cust), pa.int64()),
            "c_mktsegment": pa.array(
                [SEGMENTS[i] for i in rng.integers(0, len(SEGMENTS), n_cust)]
            ),
        }
    )
    day0 = np.datetime64("1992-01-01", "D")
    odate = day0 + rng.integers(0, 2400, n_orders).astype("timedelta64[D]")
    orders = pa.table(
        {
            "o_orderkey": pa.array(np.arange(n_orders), pa.int64()),
            "o_custkey": pa.array(rng.integers(0, n_cust, n_orders)),
            "o_orderdate": pa.array(odate.astype("datetime64[us]")),
            "o_orderpriority": pa.array(
                [PRIORITIES[i] for i in rng.integers(0, len(PRIORITIES), n_orders)]
            ),
        }
    )
    n_lines = rng.integers(1, 8, n_orders)
    okey = np.repeat(np.arange(n_orders), n_lines)
    n = len(okey)
    ship = odate[okey] + rng.integers(1, 122, n).astype("timedelta64[D]")
    lineitem = pa.table(
        {
            "l_orderkey": pa.array(okey, pa.int64()),
            "l_extendedprice": pa.array(rng.integers(90_000, 10_500_000, n) / 100.0),
            "l_discount": pa.array(rng.integers(0, 11, n) / 100.0),
            "l_shipdate": pa.array(ship.astype("datetime64[us]")),
        }
    )
    return {"customer": customer, "orders": orders, "lineitem": lineitem}


def spread_pick(costs: list[int], n: int) -> list[int]:
    """Indices of ``n`` items whose ``costs`` sit at evenly spaced ranks of
    the whole list, in list order. Drawing a workload's docs this way from a
    seeded pool a few times its size keeps the pool's heavy-tailed shape
    while the total cost hardly changes from seed to seed (a plain draw of a
    few hundred docs swings it by a fifth: the tail holds ~5% of them)."""
    order = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    step = len(costs) / n
    return sorted(order[int((j + 0.5) * step)] for j in range(n))


def image_count(spans: list[dict]) -> int:
    return sum(s["kind"] == "image" for s in spans)


def write_tables(out_dir: str, tables: dict[str, pa.Table]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, t in tables.items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"))


def write_split(out_dir: str, table: pa.Table, n_files: int) -> None:
    """Write ``table`` as ``n_files`` contiguous parquet parts (the layout a
    sharded job plans its file groups from)."""
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, table.num_rows, n_files + 1).astype(int)
    for k in range(n_files):
        pq.write_table(
            table.slice(bounds[k], bounds[k + 1] - bounds[k]),
            os.path.join(out_dir, f"part-{k:02d}.parquet"),
        )

