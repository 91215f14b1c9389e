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
