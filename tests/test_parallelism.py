"""The extract stage gets every CPU slot, and every extraction Dataset
reads its input inside the stage's operator.

Ray Data's reservation allocator holds at least one task's CPU for every
operator, so on a 2-CPU session a plain consumer map after the stage kept
one slot and the stage ran one task at a time. Extraction Datasets turn
the reservation off on their own ``DataContext`` copy; these tests pin
that two stage tasks overlap under a consumer map, that the global
context is left alone, and that every extraction read is planned on the
driver (``pipeline.plan_reads``) and runs as a map fused into the stage's
operator: the flagship, and each phase of a job over many files or over
one file cut into shards, is one operator after its driver-side input, from
the read to the stage (and the write), with 2 x CPU tasks. No
``ReadParquet`` or ``SplitBlocks`` operator is left on the path.

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

    # 2. no extraction Dataset writes the global context
    docs_ds = rd.from_arrow(pa.table({"doc_id": ["x"], "spans": [[]]}))
    pipeline.build_extract_pipeline(docs_ds)
    pipeline.build_extract_pipeline(docs_ds, recognize=False)
    pipeline.build_extract_pipeline(docs_ds.map_batches(consume))
    after = rd.DataContext.get_current().op_resource_reservation_enabled
    print("global_unchanged", before == after)

    # 3. flagship plan shape and rows, replicate=2; 160 docs plan as
    # 2 x NCPU read units of 40 rows, and the stage maps whole blocks, so
    # every unit is one stage task
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

    # 4. a tenant-scoped, deduplicated two-phase job with a result edit
    # over one file in 4 row-range shards: the tenant scope and survivor
    # filter take the stage's remote args, so they fuse into the stage's
    # operator, the edit adds no operator, and every phase reads the file
    # once for all shards
    from ocr_platform_ray import checkpoint, corpus
    shard = corpus.generate_corpus_table(40, seed=3)
    shard = shard.append_column(
        "tenant_id", pa.array([f"t{i % 2}" for i in range(shard.num_rows)]))
    shard_path = os.path.join(work, "shard.parquet")
    pq.write_table(shard, shard_path)
    built = []
    build = checkpoint.build_extract_pipeline

    def capture(*args, **kwargs):
        # keyed by phase: a fused run's one phase recognizes too
        phase = "recognize" if kwargs.get("recognize", True) else "detect"
        built.append((phase, build(*args, **kwargs)))
        return built[-1][1]

    checkpoint.build_extract_pipeline = capture

    def print_ops(tag):
        for name, ds in built:
            for line in ds.stats().splitlines():
                if line.startswith("Operator"):
                    print(tag, name, line)
        built.clear()

    edit = [{"doc_id": shard.column("doc_id")[0].as_py(), "spans_out": [
        {"kind": "text", "text": "EDITED", "media_ref": "", "offset": 0}]}]
    checkpoint.run_job(shard_path, os.path.join(work, "job"), n_shards=4,
                       two_phase=True, tenant="t0", dedup="exact",
                       result_overrides=edit)
    print_ops("hash_op")

    # 5. two shards of 2 x NCPU files each, two-phase and fused:
    # the reads and writes take the stage's remote args and the stage sets
    # no batch size, so each phase is one operator over both shards
    in_dir = os.path.join(work, "files")
    os.makedirs(in_dir)
    for k in range(4 * NCPU):
        pq.write_table(shard.slice(5 * k, 5), os.path.join(in_dir, f"part-{k}.parquet"))
    for two_phase in (True, False):
        checkpoint.run_job(in_dir, os.path.join(work, f"job-files-{two_phase}"),
                           n_shards=2, two_phase=two_phase)
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


def _assert_one_operator_after_input(ops, ending, tasks=4):
    """``ops`` is the driver-side input, then one operator that starts
    with the planned read and ends with ``ending``, with ``tasks`` tasks
    (2 x CPU); no Ray read operator anywhere."""
    assert len(ops) == 2, ops
    assert re.match(r"Operator 0 FromItems: ", ops[0]), ops
    assert re.match(
        rf"Operator 1 MapBatches\(read_units\)->(.*->)?{re.escape(ending)}: "
        rf"{tasks} tasks executed", ops[1]
    ), ops
    assert not any("ReadParquet" in op or "SplitBlocks" in op for op in ops), ops


def test_stage_tasks_overlap_under_a_consumer_map(child_out):
    out, err = child_out
    assert "stage_calls 4 rows 128" in out, out or err
    assert "overlap True" in out, out


def test_global_context_unchanged(child_out):
    out, err = child_out
    assert "global_unchanged True" in out, out or err


def test_flagship_is_one_operator_after_the_input(child_out):
    """The flagship is its read units, then one operator from the read
    through ``to_spans`` to the stage, one task per unit (2 x CPU); no
    Repartition."""
    out, err = child_out
    assert "oracle_equal True 320" in out, out or err
    assert "repartition False" in out, out
    ops = [ln for ln in out.splitlines() if ln.startswith("stage_op")]
    assert len(ops) == 1, out
    assert re.match(
        r"stage_op Operator 1 MapBatches\(read_units\)->MapBatches\(to_spans\)->.*"
        r"->MapBatches\(ExtractStage\): 4 tasks executed", ops[0]
    ), ops[0]


def test_no_operator_between_read_and_stage(child_out):
    """The read, to_spans and normalize carry the stage's remote args, so
    the only operator is the stage's, right after the driver-side input."""
    out, err = child_out
    ops = [ln[len("op "):] for ln in out.splitlines() if ln.startswith("op ")]
    assert ops, out or err
    _assert_one_operator_after_input(ops, "MapBatches(ExtractStage)")


def _phase_ops(out: str, tag: str) -> dict:
    """{phase: [its Dataset's operator lines, ...] per run}."""
    got: dict = {}
    for ln in out.splitlines():
        if ln.startswith(tag + " "):
            _, name, op = ln.split(" ", 2)
            if op.startswith("Operator 0 "):
                got.setdefault(name, []).append([])
            got[name][-1].append(op)
    return got


def test_hash_sharded_detect_phase_is_one_operator(child_out):
    """The tenant scope and dedup-survivor filter the job adds before the
    stage carry the stage's remote args, and the planned read tags each
    row with its shard: the detect phase of a scoped job over one file in
    4 row-range shards is one operator after its read units, from the
    planned read to the stage and the write, with 2 x CPU tasks (a single
    file no longer reads split)."""
    out, err = child_out
    ops = _phase_ops(out, "hash_op").get("detect")
    assert ops and len(ops) == 1, out or err
    _assert_one_operator_after_input(ops[0], "MapBatches(ExtractStage)->Write")
    assert re.search(
        r"MapBatches\(read_units\)->MapBatches\(in_tenant\)->"
        r"MapBatches\(keep_survivors\)->.*MapBatches\(ExtractStage\)->Write", ops[0][1]
    ), ops


def test_result_edit_merges_inside_the_stage(child_out):
    """A result edit resolves inside the stage: the recognize phase of the
    scoped, edited two-phase job, which reads the detect checkpoint back
    tagged with each file's shard, is still one operator, ending in the
    stage and the write."""
    out, err = child_out
    ops = _phase_ops(out, "hash_op").get("recognize")
    assert ops and len(ops) == 1, out or err
    _assert_one_operator_after_input(ops[0], "MapBatches(ExtractStage)->Write")


def test_hash_shards_read_their_input_once(child_out):
    """A two-phase job over one file in 4 row-range shards runs 2 Datasets,
    one per phase, and each reads its input through one planned read (a
    Dataset per shard and phase would make 8)."""
    out, err = child_out
    phases = _phase_ops(out, "hash_op")
    assert sorted(phases) == ["detect", "recognize"], out or err
    for name, runs in phases.items():
        assert len(runs) == 1, (name, runs)
        assert sum(op.count("MapBatches(read_units)") for op in runs[0]) == 1, (name, runs)


def test_job_phases_are_one_operator(child_out):
    """Over two shards of 2 x CPU files each, the detect and recognize
    phases of a two-phase run and the one phase of a fused run (a
    recognize phase over the input) are each one Dataset of one operator
    after its read units, ``MapBatches(read_units)->...->
    MapBatches(ExtractStage)->Write``, with 2 x CPU tasks (the 8 small
    files plan as 4 units), so no phase collapses into fewer than 2 x CPU
    tasks."""
    out, err = child_out
    phases = _phase_ops(out, "files_op")
    assert {name: len(runs) for name, runs in phases.items()} == {
        "detect": 1, "recognize": 2,
    }, out or err
    for name, runs in phases.items():
        for run in runs:
            _assert_one_operator_after_input(run, "MapBatches(ExtractStage)->Write")
