"""Large-scale training-data-pipeline operators (dedup, text analysis,
similarity search, windowed events) — first-class components alongside the
extraction engine (task contract), all Ray-Data-first: vectorized
map_batches with partial pre-aggregation before any shuffle."""

import math


def round_half_away(x: float, ndigits: int) -> float:
    """Round half away from zero — DuckDB's rounding mode, used on both
    sides of every float aggregate so the driver's value-hash can't be
    flipped by Python/pyarrow banker's rounding."""
    m = 10.0 ** ndigits
    return math.floor(abs(x) * m + 0.5) / m * (1.0 if x >= 0 else -1.0)


# per-WORKER-PROCESS broadcast cache: Ray reuses worker processes across
# tasks, so the first task on a worker resolves a ray.put broadcast from
# the object store and every later task on that worker hits the cache —
# the same once-per-process amortization an actor pool's __init__ gives,
# WITHOUT paying a fresh pool spawn (~1-2 s) on every one-shot query.
# Bounded: broadcasts are per-query, so keep only the most recent few.
_BROADCAST_CACHE: dict = {}


def resolve_broadcast(ref):
    """Resolve a ``ray.put`` ObjectRef through the per-worker cache."""
    import ray

    key = ref.hex()
    v = _BROADCAST_CACHE.get(key)
    if v is None:
        v = ray.get(ref)
        if len(_BROADCAST_CACHE) >= 4:
            _BROADCAST_CACHE.clear()
        _BROADCAST_CACHE[key] = v
    return v


def round_half_away_np(x, ndigits: int):
    """Vectorized :func:`round_half_away` over a numpy array — bit-identical
    per element to the scalar version (same floor(|x|*m + 0.5)/m * sign)."""
    import numpy as np

    m = 10.0 ** ndigits
    return np.floor(np.abs(x) * m + 0.5) / m * np.where(np.asarray(x) >= 0, 1.0, -1.0)


def cluster_cpus() -> int:
    """The session's CPU count, the one probe every sizing rule reads
    (:func:`default_n_buckets`, ``dedup.shuffle_blocks``,
    ``pipeline.plan_reads``); 8 outside a Ray session."""
    try:
        import ray

        if ray.is_initialized():
            return max(1, int(ray.cluster_resources().get("CPU", 0)))
    except Exception:
        pass
    return 8


def default_n_buckets() -> int:
    """Coarse-bucket count sized to the CLUSTER, not a constant: 4 hash
    buckets per CPU, at least 64. Since :func:`apply_per_partition` calls
    the UDF once per sorted BLOCK, the count no longer sets how many UDF
    calls a shuffle pays — it only sets the sort key's cardinality, i.e.
    how finely the range partitioner can balance rows across blocks (a
    hot bucket cannot be split). At 8k cores the rule yields 32k buckets,
    so each block's payload stays worker-heap-sized at 100 TB. Bucket
    count never changes RESULTS (all rows of a key co-locate
    regardless)."""
    return max(64, 4 * cluster_cpus())


def apply_per_partition(ds, key, fn, batch_format: str = "pandas"):
    """The task-only shuffle: sort on ``key`` (a column name or list) and
    call ``fn`` once per sorted BLOCK.

    This is Ray's own ``map_groups`` minus its per-key split:
    ``map_groups`` is ``sort(key)`` followed by
    ``map_batches(batch_size=None)`` and then slices every block into one
    frame per key value. The range-partitioned sort already puts every
    row of one key value in one block, so a UDF that sub-groups by its
    own keys (a hash-bucket column, a join key) needs only the block.

    Contract: ``fn`` must be exact on a block that holds SEVERAL key
    values — it may not read the key as a scalar (``g[key].iloc[0]``);
    sites that do keep ``groupby(key).map_groups``. Ray never calls a
    map function on an empty block, so ``fn`` sees at least one row.

    ``fn`` runs inside a generator, as under ``map_groups``, so an
    exception it raises (a loud guard's ValueError) reaches the caller
    as its own class; Ray wraps a plain map function's exceptions in
    ``UserCodeException``."""

    def per_block(batch):
        yield fn(batch)

    per_block.__name__ = fn.__name__  # the operator name in Ray's stats
    return ds.sort(key).map_batches(
        per_block, batch_size=None, batch_format=batch_format
    )


def bucketed_group_apply(ds, key_cols, fn, n_buckets: int | None = None,
                         batch_format: str = "pandas"):
    """The repo's many-small-keys groupby idiom as a reusable primitive:
    hash the key columns into ``n_buckets`` coarse buckets (column
    ``cb``), and route them through :func:`apply_per_partition`, which
    calls ``fn`` once per sorted BLOCK — a block holds whole buckets,
    usually several, so ``fn`` must itself sub-group by the key columns,
    vectorized (pandas/polars). UDF calls and per-call DataFrame
    construction are paid once per block, not once per distinct key or
    per bucket. All rows of one key land in one bucket, and all rows of
    one bucket in one block, so any per-key computation (top-k,
    quantile, gap scan) is exact. The bucket column is stripped before
    ``fn`` sees the rows. ``n_buckets=None`` sizes to the cluster via
    :func:`default_n_buckets` (~4 per CPU)."""
    import pyarrow as pa  # noqa: F811 — local import, package stays light
    import polars as pl

    if n_buckets is None:
        n_buckets = default_n_buckets()
    keys = [key_cols] if isinstance(key_cols, str) else list(key_cols)

    def add_cb(batch: pa.Table) -> pa.Table:
        d = pl.from_arrow(batch)
        h = None
        for i, c in enumerate(keys):
            hc = d[c].hash(seed=i)
            h = hc if h is None else h ^ hc
        return d.with_columns((h % n_buckets).cast(pl.Int64).alias("cb")).to_arrow()

    # NOTE (measured, round 5): OUTPUT block format matters in the tails
    # — many TINY string frames are pathological as pandas blocks (27
    # groups x 190 string rows: 10.4 s pandas vs ~2 s arrow —
    # q_js_divergence, which therefore uses batch_format="pyarrow"), but
    # a blanket from_pandas conversion here REGRESSED large outputs ~1.5x
    # (q_line_dedup 3.1 -> 4.6 s: extra copy). Pick the format per
    # operator: arrow for many small outputs, pandas when fn's output is
    # a large pandas frame.
    if batch_format == "pandas":
        def run(g):
            return fn(g.drop(columns=["cb"]))
    else:
        def run(g):
            return fn(g.drop(["cb"]))

    return apply_per_partition(
        ds.map_batches(add_cb, batch_format="pyarrow"), "cb", run,
        batch_format=batch_format,
    )
