"""Local stand-in for the driver's correctness gate: run every queries()
entry at a given sf, compare row-count + column names + order-insensitive
value hash against oracle_sql() via DuckDB. A query with no oracle must
pass the row rule of its record in ``queries.REGISTRY``. Every output
must also be free of the dtypes in :func:`dtype_flags`. Each query's
name goes to stderr before it runs, so a crash of the whole process
names its query. The Ray session restarts every ``RECYCLE_EVERY``
queries, as bench.py's does, so no session runs the whole sweep.
Usage:

    python tools/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

RECYCLE_EVERY = 25  # queries per Ray session (bench.py's default)


def to_pandas(res):
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    if isinstance(res, pd.DataFrame):
        return res
    raise TypeError(type(res))


def value_hash(df) -> str:
    """Order-insensitive: sort columns by name, sort rows by all columns,
    hash the CSV repr (floats via repr of round-tripped values)."""
    import hashlib

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        df[c] = df[c].map(lambda v: repr(v))
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return hashlib.sha256(df.to_csv(index=False).encode()).hexdigest()


def dtype_flags(df) -> list[str]:
    """Output columns whose pandas dtype can hash differently from the
    oracle's after pandas coercion: a nullable extension dtype (``Int64``,
    ``boolean``, ``string`` — NULL reads ``<NA>``, not ``nan``/``None``)
    or an object column holding more than one Python type."""
    import pandas as pd

    def is_null(v) -> bool:
        return v is None or v is pd.NA or (isinstance(v, float) and v != v)

    flags = []
    for c in df.columns:
        dt = df[c].dtype
        if getattr(dt, "na_value", None) is pd.NA:
            flags.append(f"{c}: nullable {dt}")
        elif dt == object:
            kinds = sorted({type(v).__name__ for v in df[c] if not is_null(v)})
            if len(kinds) > 1:
                flags.append(f"{c}: mixed object {'/'.join(kinds)}")
    return flags


def check_rows(rule, got, sf_dir: str, con) -> tuple[bool, int | None]:
    """Apply a registry record's row rule (see ``queries.Q``) to the
    output ``got``; returns (ok, expected row count). A dict rule with no
    count for this scale fails."""
    from ocr_platform_ray.queries import KeySet

    if isinstance(rule, KeySet):
        want = con.execute(rule.sql).fetchdf().iloc[:, 0].tolist()
        return sorted(got[rule.column].tolist()) == sorted(want), len(want)
    if isinstance(rule, dict):
        rule = rule.get(os.path.basename(os.path.normpath(sf_dir)))
    if isinstance(rule, str):
        rule = int(con.execute(rule).fetchone()[0])
    return rule is not None and len(got) == rule, rule


def _init_ray() -> None:
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=8,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    DataContext.get_current().enable_progress_bars = False


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import duckdb

    import ray

    from ocr_platform_ray.raylog import suppress_empty_sort_schema_warning

    _init_ray()
    suppress_empty_sort_schema_warning()

    import __ray_entry__ as entrymod
    from ocr_platform_ray.queries import REGISTRY

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    rules = {r.name: r.rows for r in REGISTRY}

    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    results = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        if results and len(results) % RECYCLE_EVERY == 0:
            ray.shutdown()
            _init_ray()
        print(f"running {name}", file=sys.stderr, flush=True)
        try:
            got = to_pandas(fn(sf_dir))
            flags = dtype_flags(got)
            if name in oracles:
                want = con.execute(oracles[name]).fetchdf()
                ok_rows = len(got) == len(want)
                ok_cols = sorted(got.columns) == sorted(want.columns)
                h_got, h_want = value_hash(got), value_hash(want)
                ok_hash = h_got == h_want
                results[name] = {
                    "rows": [len(got), len(want)],
                    "cols_match": ok_cols,
                    "hash_match": ok_hash,
                    "ok": ok_rows and ok_cols and ok_hash and not flags,
                }
                if not ok_hash and ok_cols and ok_rows:
                    # show first differing row for debugging
                    g = got[sorted(got.columns)].astype(str).sort_values(
                        sorted(got.columns)
                    ).reset_index(drop=True)
                    w = want[sorted(want.columns)].astype(str).sort_values(
                        sorted(want.columns)
                    ).reset_index(drop=True)
                    diff = (g != w).any(axis=1)
                    if diff.any():
                        i = int(diff.idxmax())
                        results[name]["first_diff"] = {
                            "got": g.iloc[i].to_dict(),
                            "want": w.iloc[i].to_dict(),
                        }
            else:
                ok, want_rows = check_rows(rules[name], got, sf_dir, con)
                results[name] = {"rows": [len(got), want_rows],
                                 "ok": ok and not flags, "rows_only": True}
            if flags:
                results[name]["dtype_flags"] = flags
        except Exception as e:  # noqa: BLE001
            results[name] = {"ok": False, "error": f"{type(e).__name__}: {e}"}
    print(json.dumps(results, indent=2, default=str))
    n_ok = sum(1 for r in results.values() if r.get("ok"))
    print(f"{n_ok}/{len(results)} ok", file=sys.stderr)
    ray.shutdown()
    return 0 if n_ok == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
