"""The extract stage gets every CPU slot, and the bench corpus reaches it
with no barrier.

Ray Data's reservation allocator holds at least one task's CPU for every
operator, so on a 2-CPU session a plain consumer map after the stage kept
one slot and the stage ran one task at a time. Extraction Datasets turn
the reservation off on their own ``DataContext`` copy; these tests pin
that two stage tasks overlap under a consumer map, that the global
context is left alone, and that ``corpus_from_documents`` splits at the
read (no Repartition) so the read's metadata strip and ``to_spans``
fuse into the stage's operator, that the maps a checkpointed job adds
before the stage fuse into it too, and that each phase of a job's shard
of many files is one operator from the read to the write.

Everything runs in one child process with its own
``ray.init(num_cpus=2)``, under a timeout that kills the child's whole
process group, so no Ray process outlives the tests."""

import os
import re
import signal
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 180

CHILD = r"""
import os, tempfile, time

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ocr_platform_ray import oracle, pipeline
from ocr_platform_ray.corpus import spans_from_document
from ocr_platform_ray.pipeline import PipelineOptions

NCPU = 2
ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
         logging_level="ERROR", object_store_memory=200 * 2**20)
rd.DataContext.get_current().enable_progress_bars = False
work = tempfile.mkdtemp()


class SleepStage:
    # stands in for ExtractStage: ~0.3 s per batch, one record per call
    def __init__(self, log_dir):
        self.log_dir = log_dir

    def __call__(self, batch):
        t0 = time.time()
        time.sleep(0.3)
        t1 = time.time()
        path = os.path.join(self.log_dir, f"{os.getpid()}-{t0:.6f}")
        with open(path, "w") as f:
            f.write(f"{os.getpid()} {t0} {t1}")
        return batch


def consume(batch):
    return batch


try:
    before = rd.DataContext.get_current().op_resource_reservation_enabled

    # 1. slot split: 4 blocks of one stage batch each (uniform_batch_size
    # rows) through the stage, then a plain consumer map
    log_dir = os.path.join(work, "calls")
    os.makedirs(log_dir)
    bs = PipelineOptions().uniform_batch_size
    tbl = pa.table({"doc_id": [f"d{i}" for i in range(4 * bs)]})
    ds = rd.from_arrow([tbl.slice(i * bs, bs) for i in range(4)])
    out = pipeline._stage_map(ds, SleepStage(log_dir), PipelineOptions())
    rows = out.map_batches(consume, batch_format="pyarrow").take_all()
    calls = []
    for name in os.listdir(log_dir):
        with open(os.path.join(log_dir, name)) as f:
            _, t0, t1 = f.read().split()
        calls.append((float(t0), float(t1)))
    calls.sort()
    overlap = any(b[0] < a[1] for a, b in zip(calls, calls[1:]))
    print("stage_calls", len(calls), "rows", len(rows))
    print("overlap", overlap)

    # 2. no build_* call writes the global context
    docs_ds = rd.from_arrow(pa.table({"doc_id": ["x"], "spans": [[]]}))
    pipeline.build_extract_pipeline(docs_ds)
    pipeline.build_detect_pipeline(docs_ds)
    pipeline.build_recognize_pipeline(docs_ds.map_batches(consume))
    after = rd.DataContext.get_current().op_resource_reservation_enabled
    print("global_unchanged", before == after)

    # 3. flagship plan shape and rows, replicate=2; 160 docs read as
    # 2 x NCPU blocks of 40 rows, and the stage maps whole blocks, so
    # every read block is one stage task
    n = 160
    texts = [" ".join(f"w{(d * 7 + i) % 53}" for i in range(8 + d % 37))
             for d in range(n)]
    pq.write_table(pa.table({"doc_id": pa.array(range(n), pa.int64()),
                             "text": texts}),
                   os.path.join(work, "documents.parquet"))
    flagship = pipeline.build_extract_pipeline(
        pipeline.corpus_from_documents(work, replicate=2))
    got = {}
    for row in flagship.take_all():
        got[row["doc_id"]] = [(s["kind"], s["text"], s["media_ref"], s["offset"])
                              for s in row["spans_out"]]
    docs = [{"doc_id": f"doc-{r}-{d:08d}",
             "spans": spans_from_document(d + r * 1_000_000, texts[d])}
            for d in range(n) for r in range(2)]
    print("oracle_equal", got == oracle.oracle_extract_docs(docs), len(got))
    stats = flagship.stats()
    print("repartition", "Repartition" in stats)
    for line in stats.splitlines():
        if line.startswith("Operator"):
            print("op", line)
            if "MapBatches(ExtractStage)" in line:
                print("stage_op", line)

    # 4. the job's detect phase on a tenant-scoped, hash-mod shard with a
    # survivor set: the shard pick, tenant scope and survivor filter take
    # the stage's remote args, so they fuse into the stage's operator
    from ocr_platform_ray import checkpoint, corpus
    shard = corpus.generate_corpus_table(40, seed=3)
    shard = shard.append_column(
        "tenant_id", pa.array([f"t{i % 2}" for i in range(shard.num_rows)]))
    shard_path = os.path.join(work, "shard.parquet")
    pq.write_table(shard, shard_path)
    built = []

    def capture(build):
        def wrapped(*args, **kwargs):
            built.append((build.__name__, build(*args, **kwargs)))
            return built[-1][1]
        return wrapped

    for name in ("build_detect_pipeline", "build_recognize_pipeline",
                 "build_extract_pipeline"):
        setattr(checkpoint, name, capture(getattr(checkpoint, name)))

    def print_ops(tag):
        for name, ds in built:
            for line in ds.stats().splitlines():
                if line.startswith("Operator"):
                    print(tag, name, line)
        built.clear()

    checkpoint.run_shard(
        checkpoint.ShardPlan(0, hash_mod=(0, 2), input_path=shard_path),
        os.path.join(work, "job"), two_phase=True, tenant="t0",
        survivors_ref=ray.put(set(shard["doc_id"].to_pylist()[::3])))
    print_ops("hash_op")

    # 5. a shard of 2 x NCPU files, two-phase and fused: the reads and
    # writes take the stage's remote args and the stage sets no batch
    # size, so each phase is one operator, one task per file
    files = []
    for k in range(2 * NCPU):
        files.append(os.path.join(work, f"part-{k}.parquet"))
        pq.write_table(shard.slice(10 * k, 10), files[-1])
    for two_phase in (True, False):
        checkpoint.run_shard(
            checkpoint.ShardPlan(0, files=files),
            os.path.join(work, f"job-files-{two_phase}"), two_phase=two_phase)
    print_ops("files_op")
finally:
    ray.shutdown()
"""


@pytest.fixture(scope="module")
def child_out():
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
    return out, err[-2000:]


def _assert_read_then_stage(ops):
    """The operator right after the one read is the stage's."""
    read = [i for i, ln in enumerate(ops) if re.match(r"Operator \d+ ReadParquet", ln)]
    stage = [i for i, ln in enumerate(ops) if "MapBatches(ExtractStage)" in ln]
    assert len(read) == 1 and len(stage) == 1, ops
    assert stage[0] == read[0] + 1, ops


def test_stage_tasks_overlap_under_a_consumer_map(child_out):
    out, err = child_out
    assert "stage_calls 4 rows 128" in out, out or err
    assert "overlap True" in out, out


def test_global_context_unchanged(child_out):
    out, err = child_out
    assert "global_unchanged True" in out, out or err


def test_flagship_split_at_read_fuses_to_spans(child_out):
    out, err = child_out
    assert "oracle_equal True 320" in out, out or err
    assert "repartition False" in out, out
    ops = [ln for ln in out.splitlines() if ln.startswith("stage_op")]
    assert len(ops) == 1, out
    # one operator from to_spans to the stage, one task per read block
    # (2 x CPU blocks)
    assert re.match(
        r"stage_op Operator \d+ (MapBatches\(_strip_schema_metadata\)->)?"
        r"MapBatches\(to_spans\)->.*"
        r"->MapBatches\(ExtractStage\): 4 tasks executed", ops[0]
    ), ops[0]


def test_no_operator_between_read_and_stage(child_out):
    """The read's metadata strip and to_spans carry the stage's remote
    args, so the operator right after the read is the stage's."""
    out, err = child_out
    ops = [ln[len("op "):] for ln in out.splitlines() if ln.startswith("op ")]
    assert ops, out or err
    _assert_read_then_stage(ops)


def _phase_ops(out: str, tag: str) -> dict:
    """{build function name: [its Dataset's operator lines, ...] per run}."""
    got: dict = {}
    for ln in out.splitlines():
        if ln.startswith(tag + " "):
            _, name, op = ln.split(" ", 2)
            if op.startswith("Operator 1 "):
                got.setdefault(name, []).append([])
            got[name][-1].append(op)
    return got


def test_job_detect_phase_is_read_then_stage(child_out):
    """The shard pick, tenant scope and dedup-survivor filter the job adds
    before the stage carry the stage's remote args: the detect phase of a
    scoped, hash-mod shard is its single-file read, split into blocks
    (Ray Data never fuses a split read), then the stage's operator."""
    out, err = child_out
    ops = _phase_ops(out, "hash_op").get("build_detect_pipeline")
    assert ops and len(ops) == 1, out or err
    assert re.match(r"Operator 1 ReadParquet->SplitBlocks", ops[0][0]), ops
    _assert_read_then_stage(ops[0])


def test_job_phases_are_one_operator(child_out):
    """On a shard of 2 x CPU files, the detect and recognize phases of a
    two-phase run and the one phase of a fused run are each exactly one
    operator, ``ReadParquet->...->MapBatches(ExtractStage)->Write``, with
    one task per file."""
    out, err = child_out
    phases = _phase_ops(out, "files_op")
    assert sorted(phases) == [
        "build_detect_pipeline", "build_extract_pipeline", "build_recognize_pipeline",
    ], out or err
    for name, runs in phases.items():
        assert len(runs) == 1, (name, runs)
        assert len(runs[0]) == 1, (name, runs)
        assert re.match(
            r"Operator 1 ReadParquet->(.*->)?MapBatches\(ExtractStage\)->Write: "
            r"4 tasks executed", runs[0][0]
        ), (name, runs)
