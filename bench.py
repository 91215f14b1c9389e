"""Benchmark driver (driver contract + BASELINE.md protocol).

Default: run the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) in one local Ray session with
num_cpus=$RAY_GRAFT_CPUS (default 32) and print ONE JSON line:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N, ...extras}

--scaling: run the headline extraction in a FRESH subprocess per CPU
level (default num_cpus 1, 2 and 4, never above ``os.cpu_count()``;
GRAFT_SCALE_LEVELS=a,b,... overrides) on the same input and print
throughput at each level, the efficiency of every pair of levels, e.g.
efficiency_1_2 = (docs_s_2 / docs_s_1) / 2, ``cpu_count`` and the
hypervisor steal fraction over the run (local evidence for the
north_rule's two-cluster-size criterion). ``value`` is the lowest
efficiency between neighbouring levels.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def _init_ray(num_cpus: int):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    from ocr_platform_ray.raylog import suppress_empty_sort_schema_warning

    suppress_empty_sort_schema_warning()
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False


def _consume_count(ds) -> int:
    # queries() callables may return a Dataset, a pyarrow Table or a
    # pandas DataFrame (driver contract) — consume whichever arrives
    # (pandas also has a .count(), but it means per-column non-null
    # counts, so dispatch on type rather than attribute)
    import pandas as pd
    import pyarrow as pa

    if isinstance(ds, (pa.Table, pd.DataFrame)):
        return len(ds)
    return ds.count()


def run_headline(sf_dir: str, replicate: int = 1) -> dict:
    """Flagship interleaved extraction; returns timings + throughput.

    ``replicate`` r-folds the derived corpus (distinct ids/seeds) so the
    scaling measurement is compute-dominated, not fixed-overhead-dominated.
    """
    import pyarrow.compute as pc

    from ocr_platform_ray.pipeline import (
        PipelineOptions,
        build_extract_pipeline,
        corpus_from_documents,
    )

    # warm the OS page cache for the input file (untimed, cheap)
    import pyarrow.parquet as pq

    pq.read_table(f"{sf_dir}/documents.parquet")

    t0 = time.perf_counter()
    out = build_extract_pipeline(
        corpus_from_documents(sf_dir, replicate=replicate), opts=PipelineOptions()
    )

    # consume via distributed partial aggregation — an iter_batches loop on
    # the driver throttles the whole pipeline (measured ~2x at 8 CPUs); the
    # map takes the stage's task kwargs, so it fuses into the stage's
    # operator instead of starting an operator of its own
    def agg(batch):
        import pyarrow as pa

        return pa.Table.from_pydict(
            {
                "n_docs": [batch.num_rows],
                "n_spans_out": [int(pc.sum(batch.column("n_spans_out")).as_py() or 0)],
                "n_blocks": [int(pc.sum(batch.column("n_blocks")).as_py() or 0)],
            }
        )

    parts = out.map_batches(agg, **PipelineOptions().task_kwargs()).take_all()
    stats = {k: sum(r[k] for r in parts) for k in ("n_docs", "n_spans_out", "n_blocks")}
    wall = time.perf_counter() - t0
    return {
        "extract_sec": round(wall, 3),
        "docs_per_s": round(stats["n_docs"] / wall, 2),
        "image_blocks_per_s": round(stats["n_blocks"] / wall, 2),
        **stats,
    }


def run_queries(sf_dir: str) -> dict:
    """Secondary pipelines: every registry record with ``bench=True``,
    one pass each, in seconds.

    Long single-session measurement drifts: after a few hundred
    executed datasets the streaming executor's per-query overhead
    creeps up several-fold (measured 2-10x on this box), so the
    session is RECYCLED every GRAFT_BENCH_RECYCLE queries (default 25;
    0 disables) — bench.py owns the Ray session, so a restart is legal
    here and nowhere else. Each query's number then reflects steady
    state, not session age."""
    import ray

    from ocr_platform_ray import queries as q

    recycle = int(os.environ.get("GRAFT_BENCH_RECYCLE", "25"))
    debug = os.environ.get("GRAFT_BENCH_DEBUG")
    timings = {}
    for rec in [r for r in q.REGISTRY if r.bench]:
        if recycle and len(timings) and len(timings) % recycle == 0:
            ray.shutdown()
            _init_ray(NUM_CPUS)
        timings[rec.name] = round(
            _timed_best(lambda: _consume_count(rec.fn(sf_dir))), 3)
        if debug:
            print(f"[bench] {rec.name} {timings[rec.name]}", file=sys.stderr,
                  flush=True)
    return timings


def _timed_best(thunk) -> float:
    """BASELINE.md protocol: the first run is DISCARDED (it pays worker
    process start-up, imports and a cold page cache), then the best of
    the next N (GRAFT_BENCH_RUNS, default 2) is reported — min rather
    than median because ambient load spikes on this shared box only ever
    bias upward."""
    runs = max(1, int(os.environ.get("GRAFT_BENCH_RUNS", "2")))
    thunk()  # warm-up, discarded
    best = None
    for _ in range(runs):
        t0 = time.perf_counter()
        thunk()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def main_single() -> dict:
    _init_ray(NUM_CPUS)
    # protocol: discard the first headline run, best of the next N
    runs = max(1, int(os.environ.get("GRAFT_BENCH_RUNS", "2")))
    run_headline(SF_DIR)  # warm-up, discarded
    head = None
    for _ in range(runs):
        h = run_headline(SF_DIR)
        if head is None or h["extract_sec"] < head["extract_sec"]:
            head = h
    qt = run_queries(SF_DIR)
    result = {
        "metric": "interleaved-extraction end-to-end sec (sf documents-derived corpus)",
        "value": head["extract_sec"],
        "unit": "sec",
        "queries": {"extract": head["extract_sec"], **qt},
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "docs_per_s": head["docs_per_s"],
        "image_blocks_per_s": head["image_blocks_per_s"],
        "n_docs": head["n_docs"],
        "n_blocks": head["n_blocks"],
    }
    import ray

    ray.shutdown()
    return result


def _headline_subprocess(ncpu: int) -> dict:
    env = dict(
        os.environ,
        RAY_GRAFT_CPUS=str(ncpu),
        GRAFT_SF_DIR=SF_DIR,
        GRAFT_BENCH_HEADLINE_ONLY="1",
        GRAFT_BENCH_REPLICATE=os.environ.get("GRAFT_BENCH_REPLICATE", "16"),
    )
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main_scaling() -> dict:
    # Levels above the machine's CPU count oversubscribe it and measure
    # contention, not scaling, so every level is capped at os.cpu_count().
    from perfbench import procs

    ncpu = os.cpu_count() or 1
    levels_env = os.environ.get("GRAFT_SCALE_LEVELS", "1,2,4")
    levels = sorted({min(int(x), ncpu) for x in levels_env.split(",")})
    ticks = procs.cpu_ticks()
    runs = {n: _headline_subprocess(n) for n in levels}
    steal = procs.steal_frac(ticks, procs.cpu_ticks())
    effs = {
        (a, b): (runs[b]["docs_per_s"] / runs[a]["docs_per_s"]) / (b / a)
        for a in levels for b in levels if b > a
    }
    neighbours = [effs[a, b] for a, b in zip(levels, levels[1:])]
    eff = round(min(neighbours), 3) if neighbours else None
    out = {
        "metric": (f"scaling efficiency (docs/s, num_cpus "
                   f"{'->'.join(str(n) for n in levels)}, fresh sessions, "
                   f"lowest between neighbouring levels)"),
        "value": eff,
        "unit": "efficiency",
        "sf": SF_DIR,
        "scaling_efficiency": eff,
        "cpu_count": ncpu,
        "steal_frac": round(steal, 4),
    }
    for n in levels:
        out[f"sec_{n}"] = runs[n]["value"]
        out[f"docs_per_s_{n}"] = runs[n]["docs_per_s"]
    for (a, b), e in effs.items():
        out[f"efficiency_{a}_{b}"] = round(e, 3)
    return out


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(main_scaling()))
    elif os.environ.get("GRAFT_BENCH_HEADLINE_ONLY"):
        _init_ray(NUM_CPUS)
        # protocol: warm-up run discarded. A replicate=1 pass spins up the
        # worker processes (imports, page cache) WITHOUT paying the full
        # corpus twice, so both scaling levels measure steady-state
        # compute rather than session startup — the criterion is about
        # scaling behavior, and startup is per-SESSION, not per-byte.
        run_headline(SF_DIR, replicate=1)
        # best-of-GRAFT_BENCH_RUNS, same as every other measurement (min,
        # not median: ambient load on a shared box only biases upward)
        rep = int(os.environ.get("GRAFT_BENCH_REPLICATE", "1"))
        head = None
        for _ in range(int(os.environ.get("GRAFT_BENCH_RUNS", "2"))):
            h = run_headline(SF_DIR, replicate=rep)
            if head is None or h["extract_sec"] < head["extract_sec"]:
                head = h
        result = {
            "metric": "extract headline",
            "value": head["extract_sec"],
            "unit": "sec",
            "num_cpus": NUM_CPUS,
            **head,
        }
        import ray

        ray.shutdown()
        print(json.dumps(result))
    else:
        print(json.dumps(main_single()))
