"""Conformance: Ray pipeline output == single-process oracle, 100% of rows.

The invariant (BASELINE.json input_hint): per-row span-sequence equality
on (kind, text, media_ref, order). Also: invariance under input
partitioning, the two-phase (checkpointed) path equals the fused path, and
the override table (human-edit analogue) takes effect.
"""

import pyarrow as pa
import pytest

import ray.data as rd

from ocr_platform_ray import corpus, oracle
from ocr_platform_ray.kernels.extract import ExtractConfig
from ocr_platform_ray.pipeline import build_extract_pipeline

N_DOCS = 120
SEED = 42


@pytest.fixture(scope="module")
def docs():
    return corpus.generate_docs(N_DOCS, seed=SEED)


@pytest.fixture(scope="module")
def expected(docs):
    return oracle.oracle_extract_docs(docs, ExtractConfig())


def _result_map(ds) -> dict:
    out = {}
    for batch in ds.iter_batches(batch_size=256, batch_format="pyarrow"):
        for row in batch.to_pylist():
            out[row["doc_id"]] = [
                (s["kind"], s["text"], s["media_ref"], s["offset"])
                for s in row["spans_out"]
            ]
    return out


def _assert_equal(got: dict, expected: dict):
    assert set(got) == set(expected)
    bad = [d for d in expected if got[d] != expected[d]]
    assert not bad, f"{len(bad)} mismatching docs, first: {bad[0]}: " \
        f"got={got[bad[0]][:3]} want={expected[bad[0]][:3]}"


def test_fused_pipeline_matches_oracle(docs, expected):
    ds = rd.from_arrow(corpus.docs_to_table(docs))
    out = build_extract_pipeline(ds)
    _assert_equal(_result_map(out), expected)


def test_partitioning_invariance(docs, expected):
    """Output must not depend on block layout (SURVEY §7.5.1)."""
    tbl = corpus.docs_to_table(docs)
    ds = rd.from_arrow(tbl).repartition(13)
    out = build_extract_pipeline(ds)
    _assert_equal(_result_map(out), expected)


def test_two_phase_equals_fused(docs, expected, tmp_path):
    """Detect checkpoint -> recognize == fused (the reference's DETECT_DONE
    two-phase resume property)."""
    ds = rd.from_arrow(corpus.docs_to_table(docs))
    detected = build_extract_pipeline(ds, recognize=False)
    ckpt = str(tmp_path / "detect_ckpt")
    detected.write_parquet(ckpt)
    detected2 = rd.read_parquet(ckpt)
    out = build_extract_pipeline(detected2)
    _assert_equal(_result_map(out), expected)


def test_normalize_is_idempotent():
    """The one builder normalizes every phase's input, so the recognize
    phase normalizes a detect checkpoint's text again: that must be a
    no-op over the whole batch."""
    from ocr_platform_ray.stages.normalize import normalize_spans_batch

    raw = corpus.docs_to_table(corpus.generate_docs(300, seed=SEED))
    once = normalize_spans_batch(raw)
    assert not once.equals(raw)  # the corpus has text to normalize
    assert normalize_spans_batch(once).equals(once)


def test_overrides_applied(docs):
    """Override boxes replace detected boxes for their (doc, span)."""
    ov = corpus.generate_overrides(docs, seed=7)
    assert ov, "corpus should yield at least one override row"
    expected_ov = oracle.oracle_extract_docs(docs, ExtractConfig(), overrides=ov)
    ds = rd.from_arrow(corpus.docs_to_table(docs))
    out = build_extract_pipeline(ds, overrides=ov)
    got = _result_map(out)
    _assert_equal(got, expected_ov)
    # and the override must actually change at least one document
    base = oracle.oracle_extract_docs(docs, ExtractConfig())
    assert any(expected_ov[d] != base[d] for d in base)


def _count_fetches(monkeypatch) -> list:
    """Clear the per-process broadcast cache and record every object-store
    fetch made while resolving a broadcast."""
    import ray

    from ocr_platform_ray import functions

    fetched = []
    real_get = ray.get

    def spy_get(ref, *a, **kw):
        fetched.append(ref)
        return real_get(ref, *a, **kw)

    monkeypatch.setattr(functions, "_BROADCAST_CACHE", {})
    monkeypatch.setattr(ray, "get", spy_get)
    return fetched


def test_override_table_resolved_once_per_process(docs, monkeypatch):
    """A stage instance ships only the ref of the job's one edit table
    (box and result edits, indexed once on the driver and pickled into
    every task as a ref); the table is fetched once per worker process,
    memoized by that ref, and both kinds of edit take effect."""
    import ray

    from ocr_platform_ray.stages import extract as stages
    from ocr_platform_ray.stages.normalize import normalize_spans_batch

    ov = corpus.generate_overrides(docs, seed=7)
    target = docs[0]["doc_id"]
    rov = [{"doc_id": target, "spans_out": [
        {"kind": "text", "text": "EDITED", "media_ref": "", "offset": 0}]}]
    ov_ref = ray.put(stages.overrides_to_lookup(ov, rov))
    stage = stages.ExtractStage(ExtractConfig(), ov_ref)
    assert vars(stage).keys() == {"cfg", "overrides_ref", "recognize"}
    fetched = _count_fetches(monkeypatch)
    batch = normalize_spans_batch(corpus.docs_to_table(docs[:8]))
    first, second = stage(batch), stage(batch)
    assert first == second
    assert first.column("spans_out")[0].as_py() == [
        {"kind": "text", "text": "EDITED", "media_ref": "", "offset": 0}]
    assert fetched == [ov_ref]
    # the box edits of these 8 docs apply from the same table
    want = oracle.oracle_extract_docs(docs[:8], ExtractConfig(), overrides=ov)
    got = {
        r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["offset"])
                      for s in r["spans_out"]]
        for r in first.to_pylist()[1:]
    }
    assert got == {d: want[d] for d in got}
    assert any(d == r["doc_id"] for d in got for r in ov)


def test_result_overrides_resolved_once_per_process(docs, monkeypatch):
    """A job with only result edits still ships just the edit table's ref;
    the table is fetched once per worker process, memoized by that ref."""
    import ray

    from ocr_platform_ray.stages import extract as stages
    from ocr_platform_ray.stages.normalize import normalize_spans_batch

    target = docs[0]["doc_id"]
    rov = [{"doc_id": target, "spans_out": [
        {"kind": "text", "text": "EDITED", "media_ref": "", "offset": 0}]}]
    ref = ray.put(stages.overrides_to_lookup(None, rov))
    stage = stages.ExtractStage(ExtractConfig(), ref)
    batch = normalize_spans_batch(corpus.docs_to_table(docs[:8]))
    fetched = _count_fetches(monkeypatch)
    first, second = stage(batch), stage(batch)
    assert first == second
    assert first.column("spans_out")[0].as_py()[0]["text"] == "EDITED"
    assert fetched == [ref]


def test_result_overrides_applied(docs):
    """Result-override table (PATCH /jobs/{id}/result analogue) replaces a
    doc's whole extracted span sequence as the stage assembles its row:
    kind and text verbatim (an empty text kept), a missing media_ref read
    as "", offsets renumbered, blocks counted from the edit's image spans,
    confidences 1.0, dead letters kept, the last row of a doc winning;
    untouched docs unchanged, row order unchanged."""
    ds = rd.from_arrow(corpus.docs_to_table(docs))
    target = docs[0]["doc_id"]
    poisoned = docs[45]["doc_id"]  # generate_docs' malformed media_ref row
    replacement = [
        {"kind": "text", "text": "HUMAN EDITED", "media_ref": "", "offset": 7},
        {"kind": "image", "text": "FIXED BLOCK", "media_ref": "m", "offset": 1},
        {"kind": "text", "text": "", "offset": 3},
    ]
    out = build_extract_pipeline(ds, result_overrides=[
        {"doc_id": target, "spans_out": [{"kind": "text", "text": "stale", "offset": 0}]},
        {"doc_id": target, "spans_out": replacement},
        {"doc_id": poisoned, "spans_out": []},
        {"doc_id": "no-such-doc", "spans_out": replacement},
    ])
    got_rows = out.take_all()
    assert [r["doc_id"] for r in got_rows] == [d["doc_id"] for d in docs]
    rows = {r["doc_id"]: r for r in got_rows}
    got = rows[target]
    assert [
        (s["kind"], s["text"], s["media_ref"], s["offset"])
        for s in got["spans_out"]
    ] == [("text", "HUMAN EDITED", "", 0), ("image", "FIXED BLOCK", "m", 1),
          ("text", "", "", 2)]
    assert got["n_spans_out"] == 3 and got["n_blocks"] == 1
    assert got["min_conf"] == 1.0 and got["mean_conf"] == 1.0
    assert got["n_span_errors"] == 0
    empty = rows[poisoned]
    assert empty["spans_out"] == [] and empty["n_blocks"] == 0
    assert empty["n_span_errors"] == 1  # the edit does not un-poison the media
    # other docs keep the pipeline output
    expected = oracle.oracle_extract_docs(docs, ExtractConfig())
    for d, spans in expected.items():
        if d in (target, poisoned):
            continue
        assert [
            (s["kind"], s["text"], s["media_ref"], s["offset"])
            for s in rows[d]["spans_out"]
        ] == spans


def test_result_overrides_skip_the_detect_phase(docs):
    """With recognize off the stage writes the detect checkpoint and never
    consults a result edit: the detect phase's rows equal an unedited
    run's."""
    import ray

    from ocr_platform_ray.stages import extract as stages

    batch = corpus.docs_to_table(docs[:8])
    rov = [{"doc_id": docs[0]["doc_id"], "spans_out": []}]
    ref = ray.put(stages.overrides_to_lookup([], rov))
    assert stages.ExtractStage(ExtractConfig(), ref, recognize=False)(batch) == \
        stages.ExtractStage(ExtractConfig(), recognize=False)(batch)


def test_schema(docs):
    ds = rd.from_arrow(corpus.docs_to_table(docs))
    out = build_extract_pipeline(ds)
    schema = out.schema()
    assert schema.names == [
        "doc_id", "spans_out", "n_spans_out", "n_blocks",
        "min_conf", "mean_conf", "n_span_errors",
    ]
    batch = next(iter(out.iter_batches(batch_size=8, batch_format="pyarrow")))
    assert isinstance(batch, pa.Table)


def test_malformed_media_ref_dead_letter():
    """A span whose media_ref cannot be parsed contributes nothing, the
    rest of the document extracts normally (P16 dead-letter semantics)."""
    docs = [
        {
            "doc_id": "doc-x",
            "spans": [
                {"kind": "text", "text": " hello world ", "media_ref": "", "offset": 0},
                {"kind": "image", "text": "", "media_ref": "img://not-a-ref", "offset": 14},
                {"kind": "text", "text": "tail", "media_ref": "", "offset": 15},
            ],
        }
    ]
    expected = oracle.oracle_extract_docs(docs, ExtractConfig())
    assert expected["doc-x"] == [
        ("text", "hello world", "", 0),
        ("text", "tail", "", 1),
    ]
    ds = rd.from_arrow(corpus.docs_to_table(docs))
    out = build_extract_pipeline(ds)
    rows = out.take_all()
    _assert_equal(_result_map(out), expected)
    # the poison span is counted, not just dropped (manifest surfacing)
    assert [r["n_span_errors"] for r in rows] == [1]


def test_recognize_phase_poison_counted_not_fatal():
    """A recognize-phase failure (detect entry present but media
    unrenderable at recognize time) is dead-lettered like the fused path,
    not a shard-killing exception."""
    import pyarrow as pa

    from ocr_platform_ray.stages.extract import ExtractStage

    batch = pa.Table.from_pylist([
        {
            "doc_id": "d0",
            "spans": [
                {"kind": "text", "text": "ok", "media_ref": "", "offset": 0},
                {"kind": "image", "text": "", "media_ref": "img://gone", "offset": 3},
            ],
            "detect": [
                {"span_idx": 1, "width": 100, "height": 30,
                 "boxes": [{"x1": 0, "y1": 0, "x2": 50, "y2": 20}]},
            ],
            "n_detect_errors": 0,
        }
    ])
    out = ExtractStage()(batch).to_pylist()
    assert len(out) == 1
    assert out[0]["n_span_errors"] == 1
    assert [s["kind"] for s in out[0]["spans_out"]] == ["text"]


@pytest.mark.parametrize("detect_max_side", [0, 100])
def test_stage_batch_parity_mixed(detect_max_side):
    """One stage batch mixing malformed refs, a zero-width (0x10) and a
    zero-height (10x0) raster, override spans and images of several
    shapes: the fused stage and the detect -> recognize phases of the same
    stage both equal the oracle, per-span dead-letter counts included.
    Overrides on the 0x10 and 10x0 spans pin that a given box does not
    rescue a raster detect rejects."""
    import ray

    from ocr_platform_ray import media
    from ocr_platform_ray.kernels.extract import safe_extract_image_span
    from ocr_platform_ray.stages.extract import ExtractStage, overrides_to_lookup
    from ocr_platform_ray.stages.normalize import normalize_spans_batch

    cfg = ExtractConfig(detect_max_side=detect_max_side)
    docs = corpus.generate_docs(24, seed=11)
    poison = ["img://not-a-ref", "img://1/2/0x10/1", "img://1/2/10x0/1"]
    for i, ref in enumerate(poison * 2):
        docs[3 * i]["spans"].append(
            {"kind": "image", "text": "", "media_ref": ref, "offset": 10**6}
        )
    ov = []
    for doc in docs[1::4]:
        for idx, sp in enumerate(doc["spans"]):
            if sp["kind"] == "image" and sp["media_ref"] not in poison:
                _s, _i, w, h, _n = media.parse_ref(sp["media_ref"])
                ov.append({"doc_id": doc["doc_id"], "span_idx": idx, "boxes": [
                    {"x1": 0, "y1": 0, "x2": max(2, w // 2), "y2": min(h, 57)},
                    {"x1": 1, "y1": 1, "x2": max(3, w - 1), "y2": min(h, 88)},
                ]})
                break
    # overrides on the 0x10 and 10x0 spans: a human edit comes after a
    # detect, so a raster detect dead-letters stays one with edited boxes
    for doc in (docs[3], docs[6]):
        idx = len(doc["spans"]) - 1
        _s, _i, w, h, _n = media.parse_ref(doc["spans"][idx]["media_ref"])
        ov.append({"doc_id": doc["doc_id"], "span_idx": idx, "boxes": [
            {"x1": 0, "y1": 0, "x2": max(2, w // 2), "y2": min(h, 57)}]})
    assert ov
    shapes = {
        media.raster_shape(sp["media_ref"])
        for d in docs for sp in d["spans"]
        if sp["kind"] == "image" and sp["media_ref"] != poison[0]
    }
    assert len(shapes) >= 4 and {(10, 0), (0, 10)} <= shapes

    want = oracle.oracle_extract_docs(docs, cfg, overrides=ov)
    ov_by = {(r["doc_id"], r["span_idx"]): [
        (b["x1"], b["y1"], b["x2"], b["y2"]) for b in r["boxes"]] for r in ov}
    want_err = {
        d["doc_id"]: sum(
            safe_extract_image_span(
                sp["media_ref"], cfg, i, ov_by.get((d["doc_id"], i))
            )[1]
            for i, sp in enumerate(d["spans"]) if sp["kind"] == "image"
        )
        for d in docs
    }
    assert sum(want_err.values()) == 4  # the malformed and 0x10 refs

    batch = normalize_spans_batch(corpus.docs_to_table(docs))
    ov_ref = ray.put(overrides_to_lookup(ov))
    for out in (
        ExtractStage(cfg, ov_ref)(batch),
        ExtractStage(cfg, ov_ref)(ExtractStage(cfg, recognize=False)(batch)),
    ):
        rows = out.to_pylist()
        got = {
            r["doc_id"]: [
                (s["kind"], s["text"], s["media_ref"], s["offset"])
                for s in r["spans_out"]
            ]
            for r in rows
        }
        _assert_equal(got, want)
        assert {r["doc_id"]: r["n_span_errors"] for r in rows} == want_err


@pytest.fixture(scope="module")
def stage_blocks(docs):
    """75 normalized docs and the same rows after the detect phase: the
    inputs of the three stage runs (fused, detect, recognize)."""
    from ocr_platform_ray.stages.extract import ExtractStage
    from ocr_platform_ray.stages.normalize import normalize_spans_batch

    raw = normalize_spans_batch(corpus.docs_to_table(docs[:75]))
    detected = pa.concat_tables(
        [ExtractStage(recognize=False)(raw.slice(i, 25)) for i in range(0, 75, 25)]
    )
    return {"fused": raw, "detect": raw, "recognize": detected}


@pytest.mark.parametrize("phase", ["fused", "detect", "recognize"])
@pytest.mark.parametrize("n_rows", [0, 1, 32, 33, 75])
def test_stage_walks_a_block_in_bounded_batches(stage_blocks, monkeypatch, phase, n_rows):
    """The stage maps over whole blocks and walks each in
    ``BATCH_DOCS``-doc slices: its output on a block equals one
    call per 32-row slice, concatenated (an empty block keeps the output
    schema), and no kernel batch holds more than 32 docs."""
    from ocr_platform_ray.pipeline import PipelineOptions
    from ocr_platform_ray.stages import extract as stages

    bs = PipelineOptions().uniform_batch_size
    assert bs == 32
    stage = stages.ExtractStage(recognize=phase != "detect")
    block = stage_blocks[phase].slice(0, n_rows)
    want = [stage(block.slice(i, bs)) for i in range(0, n_rows, bs)]

    docs_per_call = []
    rows_seen = []
    spans_flat, extract_batch = stages._spans_flat, stages.extract_batch

    def spy_spans_flat(batch):
        rows_seen.append(batch.num_rows)
        return spans_flat(batch)

    def spy_extract_batch(*args, **kwargs):
        docs_per_call.append(rows_seen[-1])
        return extract_batch(*args, **kwargs)

    monkeypatch.setattr(stages, "_spans_flat", spy_spans_flat)
    monkeypatch.setattr(stages, "extract_batch", spy_extract_batch)
    got = stage(block)

    assert docs_per_call == [min(bs, n_rows - i) for i in range(0, max(n_rows, 1), bs)]
    assert got.num_rows == n_rows
    if n_rows:
        assert got == pa.concat_tables(want)
    else:
        assert got.schema == stage(stage_blocks[phase].slice(0, 1)).schema


def test_count_spans_batch_counts_image_spans(docs):
    """The page-count analogue counts each doc's image spans."""
    from ocr_platform_ray.stages.normalize import count_spans_batch

    out = count_spans_batch(corpus.docs_to_table(docs))
    assert out.column("n_image_spans").to_pylist() == [
        sum(s["kind"] == "image" for s in d["spans"]) for d in docs
    ]
