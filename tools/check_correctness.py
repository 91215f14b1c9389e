"""Local stand-in for the driver's correctness gate: run every queries()
entry at a given sf, compare row-count + column names + order-insensitive
value hash against oracle_sql() via DuckDB. A query with no oracle must
return the row count named in ``ROWS_ONLY``. Every output must also be
free of the dtypes in :func:`dtype_flags`. Each query's name goes to
stderr before it runs, so a crash of the whole process names its query.
Usage:

    python tools/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


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


# Rows-only queries (no value oracle) and the row count each must return.
# An int holds at every scale; a str is DuckDB SQL over the same views
# whose one value is the count; a dict pins a data-dependent count per
# scale directory (its basename). A rows-only query with no count named
# for the scale fails the gate.
_DOCS = "SELECT count(*) FROM documents"
ROWS_ONLY: dict = {
    # one row per input row or per distinct key
    "q_streaming_dedup": _DOCS,
    "q_leakage_split_neardup": _DOCS,
    "q_extract_flagship": _DOCS,
    "q_audio_features": _DOCS,
    "q_bpe_encode": _DOCS,
    "q_fingerprint": _DOCS,
    "q_winnow_fingerprints": _DOCS,
    "q_pack_sequences": _DOCS,
    "q_embedding_pca": "SELECT count(*) FROM embeddings",
    "q_compression_stats": "SELECT count(DISTINCT source) FROM documents",
    "q_approx_distinct_users": "SELECT count(DISTINCT event_type) FROM events",
    "q_price_quantiles_sketch":
        "SELECT count(DISTINCT l_returnflag) FROM lineitem",
    # one weight per dimension, intercept, log_loss, accuracy, n
    "q_logreg_label": "SELECT max(len(embedding)) + 4 FROM embeddings",
    # fixed by the query's parameters
    "q_parquet_audit": 10,
    "q_extract_summary": 1,
    "q_bpe_merges": 40,
    "q_kmeans_summary": 8,
    "q_ann_topk_pq": 10,
    "q_ann_topk_int8": 10,
    "q_ann_topk_ivf": 10,
    # data-dependent; sf0.001 equals the tests/goldens row counts
    "q_ann_topk_lsh": {"sf0.001": 6, "sf0.01": 6, "sf0.1": 10},
    "q_cms_token_counts": {"sf0.001": 31, "sf0.01": 31, "sf0.1": 31},
    "q_detect_boxes": {"sf0.001": 1302, "sf0.01": 1382, "sf0.1": 14793},
    "q_media_features": {"sf0.001": 364, "sf0.01": 360, "sf0.1": 3670},
    "q_media_features_jpeg": {"sf0.001": 190, "sf0.01": 191, "sf0.1": 196},
    "q_image_dups": {"sf0.001": 17, "sf0.01": 29, "sf0.1": 2450},
    "q_video_frame_features": {"sf0.001": 321, "sf0.01": 326, "sf0.1": 326},
    "q_video_frame_features_mjpeg":
        {"sf0.001": 136, "sf0.01": 121, "sf0.1": 134},
    "q_minhash_edit_verified": {"sf0.001": 28, "sf0.01": 25, "sf0.1": 256},
    "q_minhash_pairs": {"sf0.001": 28, "sf0.01": 25, "sf0.1": 256},
    "q_minhash_dedup_docs": {"sf0.001": 476, "sf0.01": 476, "sf0.1": 4758},
    "q_simhash_pairs": {"sf0.001": 27, "sf0.01": 26, "sf0.1": 754},
    "q_jaccard_dups": {"sf0.001": 28, "sf0.01": 25, "sf0.1": 256},
    "q_semantic_dedup": {"sf0.001": 501, "sf0.01": 508, "sf0.1": 2071},
    "q_embedding_dups": {"sf0.001": 104, "sf0.01": 106, "sf0.1": 425},
}


def expected_rows(name: str, sf_dir: str, con) -> int | None:
    want = ROWS_ONLY.get(name)
    if isinstance(want, dict):
        want = want.get(os.path.basename(os.path.normpath(sf_dir)))
    if isinstance(want, str):
        want = int(con.execute(want).fetchone()[0])
    return want


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import duckdb

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=8,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    from ocr_platform_ray.raylog import suppress_empty_sort_schema_warning

    suppress_empty_sort_schema_warning()
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    results = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
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
                want_rows = expected_rows(name, sf_dir, con)
                ok = want_rows is not None and len(got) == want_rows
                if name == "q_streaming_dedup":  # one row per input doc
                    want_ids = con.execute(
                        "SELECT doc_id FROM documents"
                    ).fetchdf()["doc_id"].tolist()
                    ok = ok and sorted(got["doc_id"].tolist()) == sorted(want_ids)
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
