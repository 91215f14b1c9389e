"""Crash resilience: a stage worker dying mid-run has its task retried —
an actor is restarted (max_restarts) and its task retried
(max_task_retries); a task map re-runs the task on a fresh worker
(max_retries). The Ray analogue of the reference's Celery autoretry budget
(ocr_tasks.py:58-65)."""

import os

import pyarrow as pa

import ray.data as rd

from ocr_platform_ray.state.testing import CrashOnce


def test_actor_crash_is_retried(tmp_path):
    flag = str(tmp_path / "crashed")
    ds = rd.from_arrow(pa.table({"x": list(range(100))}))
    out = ds.map_batches(
        CrashOnce,
        batch_format="pyarrow",
        batch_size=10,
        concurrency=1,
        fn_constructor_kwargs={"flag_path": flag},
        num_cpus=1,
        max_restarts=2,
        max_task_retries=3,
    )
    vals = sorted(r["x"] for r in out.take_all())
    assert vals == list(range(100))        # nothing lost despite the crash
    assert os.path.exists(flag)            # the crash really happened


def test_task_crash_is_retried(tmp_path):
    """The extract stages run as task maps over a stage instance with a
    bounded ``max_retries`` (Ray Data's task default retries forever)."""
    flag = str(tmp_path / "crashed")
    ds = rd.from_arrow(pa.table({"x": list(range(100))}))
    out = ds.map_batches(
        CrashOnce(flag),
        batch_format="pyarrow",
        batch_size=10,
        num_cpus=1,
        max_retries=3,
    )
    vals = sorted(r["x"] for r in out.take_all())
    assert vals == list(range(100))        # nothing lost despite the crash
    assert os.path.exists(flag)            # the crash really happened


def test_crash_in_fused_write_leaves_each_row_once(tmp_path):
    """A stage that crashes once inside a read -> stage -> write task (the
    write takes the stage's remote args, so it runs in the stage's task):
    the retried task rewrites its block, and every row lands in the output
    directory exactly once."""
    import pyarrow.parquet as pq

    from ocr_platform_ray.pipeline import PipelineOptions

    opts = PipelineOptions()
    src = tmp_path / "in"
    src.mkdir()
    for k in range(2):
        pq.write_table(pa.table({"x": list(range(50 * k, 50 * k + 50))}),
                       src / f"part-{k}.parquet")
    flag = str(tmp_path / "crashed")
    out_dir = tmp_path / "out"
    ds = rd.read_parquet(str(src), ray_remote_args=opts.remote_args()).map_batches(
        CrashOnce(flag), batch_size=None, **opts.task_kwargs()
    )
    ds.write_parquet(str(out_dir), ray_remote_args=opts.remote_args())
    assert os.path.exists(flag)            # the crash really happened
    # the write ran in the stage's task
    assert "MapBatches(CrashOnce)->Write" in ds.stats(), ds.stats()
    vals = sorted(pq.read_table(str(out_dir)).column("x").to_pylist())
    assert vals == list(range(100))        # each row exactly once
