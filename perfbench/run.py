"""Layered benchmark of the extraction engine.

    python3 perfbench/run.py --workload extract_fused --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root. One run generates the workload's inputs from
``--seed``, computes the expected outputs untimed, sets up a local Ray
session, repeats the workload's timed pass for ``--seconds`` (at least
two passes) checking every pass's output untimed, and then sets up once
more (``setup_s`` is the median of the set-ups). ``--trace 1`` instead runs
two untraced passes and one traced pass plus in-process layer walks,
reports the per-layer metrics and writes the spans, ``Dataset.stats()``
operators and shard manifests to ``.bench_run/trace-<workload>-<seed>.json``.
``--workload all`` runs every workload in its own process, one after the
other.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer ones with ``--trace 1``). The lines above it print every metric by
name and unit, the output check and the run's stamp.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

T_START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, ".bench_run")

# num_cpus=1 deadlocks the flagship (the first ExtractStage actor holds the
# only CPU slot and the task stages feeding it never run), so every session
# declares 2 CPUs whatever the machine has.
NUM_CPUS = 2
# two set-ups and at least two passes per run, not more: with three of
# each, one run of every workload takes ~140 s, too long to repeat the 22
# runs per workload a comparison needs within an hour
SETUP_CYCLES = 2
MIN_PASSES = 2
TRACE_UNTRACED_PASSES = 2
# the whole run must end within 180 s: no pass starts after LAST_START_S
# and none may run past RUN_BUDGET_S
LAST_START_S = 100.0
RUN_BUDGET_S = 150.0
SETUP_RESERVE_S = 30.0  # no extra set-up starts with less budget left
# the longest Unix socket path Ray can bind is 107 bytes; its session dir
# and socket names add up to ~65 characters to the temp dir
MAX_RAY_TMP = 40
# the object store lives in a file under the run's temp dir, capped well
# above what a pass keeps in flight, so the session writes nothing outside
# the checkout and holds little shared memory on a shared host
OBJECT_STORE_BYTES = 512 * 1024 * 1024
# a session that fails to come up (a Ray daemon dying at start) is torn
# down and started again, up to this many times in all
SETUP_ATTEMPTS = 3


class PassTimeout(Exception):
    pass


def call_with_timeout(fn, timeout: float):
    """Run ``fn`` in a daemon thread; raise PassTimeout when it has not
    returned after ``timeout`` s (a hung session must count as a failure,
    not stall the benchmark)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # noqa: BLE001  re-raised below
            box["error"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(max(1.0, timeout))
    if th.is_alive():
        raise PassTimeout(f"no result after {timeout:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def budget_left() -> float:
    return RUN_BUDGET_S - (time.perf_counter() - T_START)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


_tmp_fd: int | None = None


def ray_tmp_dir() -> str:
    return os.path.join(BENCH_DIR, f"ray{os.getpid()}")


def ray_tmp_name() -> str:
    """The run's temp dir as Ray is given it. Ray binds Unix sockets under
    it; when the checkout's own path makes it too long for that, the same
    directory is named through a descriptor this process holds open,
    ``/proc/<pid>/fd/<n>``, which every process of the session resolves
    while this one lives."""
    global _tmp_fd
    tmp = ray_tmp_dir()
    os.makedirs(tmp, exist_ok=True)
    if len(tmp) <= MAX_RAY_TMP:
        return tmp
    if _tmp_fd is None:
        _tmp_fd = os.open(tmp, os.O_RDONLY | os.O_DIRECTORY)
    return f"/proc/{os.getpid()}/fd/{_tmp_fd}"


def remove_ray_tmp() -> None:
    global _tmp_fd
    if _tmp_fd is not None:
        os.close(_tmp_fd)
        _tmp_fd = None
    shutil.rmtree(ray_tmp_dir(), ignore_errors=True)


def init_ray() -> None:
    import ray
    from ray.data import DataContext

    from ocr_platform_ray.raylog import suppress_empty_sort_schema_warning

    tmp = ray_tmp_name()
    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR", object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=tmp, _plasma_directory=tmp,
    )
    suppress_empty_sort_schema_warning()
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    DataContext.get_current().enable_progress_bars = False


def shutdown_ray(seen: set[int]) -> None:
    import ray

    from perfbench import procs

    ray.shutdown()
    killed = procs.reap(seen)
    if killed:
        print(f"note: killed {len(killed)} Ray processes left after shutdown", file=sys.stderr)


def set_up(wl, seen: set[int]) -> float:
    """One set-up: a local Ray session, then the workload's warm-up pass.
    Returns the time of the attempt that succeeded."""
    for attempt in range(1, SETUP_ATTEMPTS + 1):
        t0 = time.perf_counter()
        try:
            init_ray()
            call_with_timeout(wl.warm_up, budget_left())
            return time.perf_counter() - t0
        except PassTimeout:
            raise
        except Exception as e:  # noqa: BLE001  retried, then re-raised
            print(f"set-up attempt {attempt} failed: {type(e).__name__}: {e}", file=sys.stderr)
            # a failing start can take a minute before it raises
            if attempt == SETUP_ATTEMPTS or budget_left() < 2 * SETUP_RESERVE_S:
                raise
            shutdown_ray(seen)
    raise AssertionError("unreachable")


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    import pyarrow as pa
    import ray

    from perfbench import layers, procs
    from perfbench.workloads import WORKLOADS

    others = procs.ray_processes(exclude=os.getpid())
    if others:
        print(f"WARNING: {len(others)} Ray processes of another session are running; "
              "concurrent sessions inflate every timing several-fold:", file=sys.stderr)
        for line in others[:10]:
            print("   ", line, file=sys.stderr)
    work = os.path.join(BENCH_DIR, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = WORKLOADS[name](work, seed)
    wl.make_inputs()
    t0 = time.perf_counter()
    wl.expected()
    oracle_s = time.perf_counter() - t0

    tracer = layers.Tracer()
    setups: list[float] = []
    walls: list[float] = []
    attempted = failed = mismatch_rows = 0
    layer_metrics: dict = {}
    steal = 0.0
    timed_out = False
    with procs.PeakRss() as rss:
        try:
            setups.append(set_up(wl, rss.seen))
            t_meas = time.perf_counter()
            ticks = procs.cpu_ticks()
            while True:
                if trace:
                    if len(walls) >= TRACE_UNTRACED_PASSES:
                        break
                elif len(walls) >= MIN_PASSES and time.perf_counter() - t_meas >= seconds:
                    break
                if time.perf_counter() - T_START > LAST_START_S:
                    break
                attempted += 1
                # start every pass from the same collector state: a Ray Data
                # actor pool is torn down only when the driver's collector
                # frees its actor handles, so garbage the benchmark itself
                # left behind would shift when that happens
                gc.collect()
                try:
                    wall, result = call_with_timeout(wl.run_pass, budget_left())
                except PassTimeout as e:
                    failed += 1
                    timed_out = True
                    print(f"pass {attempted} failed: {e}", file=sys.stderr)
                    break
                except Exception as e:  # noqa: BLE001  a failed pass is counted, not fatal
                    failed += 1
                    print(f"pass {attempted} failed: {type(e).__name__}: {e}", file=sys.stderr)
                    continue
                bad = wl.check(result)
                mismatch_rows += bad
                failed += bool(bad)
                walls.append(wall)
            steal = procs.steal_frac(ticks, procs.cpu_ticks())
            if trace and walls and not timed_out:
                attempted += 1
                gc.collect()
                try:
                    layer_metrics, bad = call_with_timeout(
                        lambda: wl.trace(tracer, statistics.median(walls)), budget_left()
                    )
                    mismatch_rows += bad
                    failed += bool(bad)
                except PassTimeout as e:
                    failed += 1
                    timed_out = True
                    print(f"traced pass failed: {e}", file=sys.stderr)
            # more set-ups for the setup_s median, after the measured
            # session: later sessions in one driver process run slower
            # (the driver's heap grows, so its collector runs less often)
            while (not trace and not timed_out and len(setups) < SETUP_CYCLES
                   and budget_left() > SETUP_RESERVE_S):
                shutdown_ray(rss.seen)
                setups.append(set_up(wl, rss.seen))
        except PassTimeout as e:
            attempted += 1
            failed += 1
            timed_out = True
            print(f"set-up failed: {e}", file=sys.stderr)
        except Exception as e:  # noqa: BLE001  reported as a failed run
            attempted += 1
            failed += 1
            print(f"set-up failed: {type(e).__name__}: {e}", file=sys.stderr)
        finally:
            if not timed_out:
                shutdown_ray(rss.seen)
    if timed_out:
        # the hung call still holds the driver's Ray client; tear the
        # session down by killing its processes
        killed = procs.reap(rss.seen, timeout=5.0)
        print(f"note: killed {len(killed)} Ray processes after a timeout", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    remove_ray_tmp()

    stamp = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "cpus": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"), "num_cpus": NUM_CPUS,
        "ray": ray.__version__, "pyarrow": pa.__version__,
        "python": platform.python_version(), "git_sha": git_sha(),
        "preexisting_ray_processes": len(others), "steal_frac": steal,
        "rows": wl.rows, "passes": len(walls), "pass_walls_s": walls, "setups_s": setups,
        "import_s": import_s, "oracle_s": oracle_s,
        "mismatch_rows": mismatch_rows,
        "failed_frac": failed / attempted if attempted else 1.0,
    }
    if not walls:
        return {"stamp": stamp, "error": "no pass completed", "timed_out": timed_out}
    if trace:
        names = layers.metric_names()
        metrics = {k: {"value": float(layer_metrics.get(k, 0.0)), "unit": layers.unit_of(k)}
                   for k in names}
        os.makedirs(BENCH_DIR, exist_ok=True)
        path = os.path.join(BENCH_DIR, f"trace-{name}-{seed}.json")
        with open(path, "w") as f:
            json.dump({
                "stamp": stamp, "metrics": metrics, "spans": tracer.spans,
                "ray_data_operators": tracer.stats, "manifests": tracer.manifests,
            }, f, indent=1, default=str)
        stamp["trace_file"] = os.path.relpath(path, ROOT)
    else:
        wall = statistics.median(walls)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": rss.peak_mb, "unit": "MiB"},
        }
    return {
        "stamp": stamp, "timed_out": timed_out,
        "result": {
            "correct": failed == 0 and mismatch_rows == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics,
        },
    }


def report(out: dict) -> None:
    stamp = out["stamp"]
    print(f"== {stamp['workload']}  seed={stamp['seed']}  passes={stamp['passes']}"
          f"  cpus={stamp['cpus']}  num_cpus={stamp['num_cpus']}")
    if "result" in out:
        for k, m in out["result"]["metrics"].items():
            print(f"  {k:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'mismatch_rows':<36} {stamp['mismatch_rows']:>14d} rows")
    print(f"  {'failed_frac':<36} {stamp['failed_frac']:>14.6g} ratio")
    print("stamp " + json.dumps(stamp))


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # workers inherit the environment: they must import the engine, and
    # must never report usage over the network
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, ROOT)
    try:
        import ocr_platform_ray  # noqa: F401
    except ImportError as e:
        print(f"error: the engine package is not importable from {ROOT}: {e}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    if args.workload == "all":
        # one process per workload: a driver's later Ray sessions run slower
        code = 0
        for name in WORKLOADS:
            sys.stdout.flush()
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd, check=False).returncode)
        return code
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    report(out)
    if "result" not in out:
        print(f"error: {out['error']}", file=sys.stderr)
        return 1
    print(json.dumps(out["result"]), flush=True)
    if out["timed_out"]:
        # a hung pass's thread may still hold Ray's client; skip its exit hooks
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
