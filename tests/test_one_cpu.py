"""The flagship completes on a one-CPU session.

With actor-pool stages this hung: the first stage actor held the only CPU
slot and the task stages feeding it never ran. The extract stages are task
maps now, so they take turns with the prepare maps. The run happens in a
child process with its own ``ray.init(num_cpus=1)``, under a timeout that
kills the child's whole process group, so no Ray process outlives the
test whatever happens."""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 120

CHILD = r"""
import pyarrow as pa
import ray
import ray.data as rd

from ocr_platform_ray import corpus, oracle
from ocr_platform_ray.pipeline import build_extract_pipeline

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", object_store_memory=200 * 2**20)
try:
    rd.DataContext.get_current().enable_progress_bars = False
    docs = corpus.generate_docs(50, seed=11)
    expected = oracle.oracle_extract_docs(docs)
    tbl = corpus.docs_to_table(docs)
    ds = rd.from_arrow([tbl.slice(i, 13) for i in range(0, tbl.num_rows, 13)])
    got = {}
    for row in build_extract_pipeline(ds).take_all():
        got[row["doc_id"]] = [
            (s["kind"], s["text"], s["media_ref"], s["offset"])
            for s in row["spans_out"]
        ]
    assert got == expected, "pipeline output differs from the oracle"
    print("rows", len(got))
finally:
    ray.shutdown()
"""


def test_flagship_on_one_cpu():
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = "", f"no result after {TIMEOUT_S} s"
    finally:
        # the child's Ray daemons share its process group: reap them too
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert "rows 50" in out, err[-2000:]
