"""Skew handling: span-count bucketing (north_rule explicit requirement).

A 200-image doc among 1-span docs must land in the heavy bucket (small
batch size) and still extract correctly alongside the light bucket.
"""

import ray.data as rd

from ocr_platform_ray import corpus, media, oracle
from ocr_platform_ray.kernels.extract import ExtractConfig
from ocr_platform_ray.pipeline import PipelineOptions, _prepared, build_extract_pipeline


def _heavy_tail_docs():
    docs = []
    # one monster doc: 60 image spans (kept small-ish for test speed)
    spans = []
    for i in range(60):
        spans.append(
            {
                "kind": "image",
                "text": "",
                "media_ref": media.make_ref(99, i, 200, 30, 1),
                "offset": i,
            }
        )
    docs.append({"doc_id": "doc-heavy", "spans": spans})
    for d in range(40):
        docs.append(
            {
                "doc_id": f"doc-light-{d:04d}",
                "spans": [
                    {"kind": "text", "text": f"light doc {d}", "media_ref": "", "offset": 0},
                    {
                        "kind": "image",
                        "text": "",
                        "media_ref": media.make_ref(7, d, 180, 26, 1),
                        "offset": 14,
                    },
                ],
            }
        )
    return docs


def test_bucket_split_boundary():
    docs = _heavy_tail_docs()
    ds = _prepared(rd.from_arrow(corpus.docs_to_table(docs)))
    opts = PipelineOptions()
    heavy = ds.filter(expr=f"n_image_spans >= {opts.heavy_threshold}")
    light = ds.filter(expr=f"n_image_spans < {opts.heavy_threshold}")
    heavy_ids = [r["doc_id"] for r in heavy.select_columns(["doc_id"]).take_all()]
    assert heavy_ids == ["doc-heavy"]
    assert light.count() == 40


def test_heavy_tail_extracts_correctly():
    docs = _heavy_tail_docs()
    expected = oracle.oracle_extract_docs(docs, ExtractConfig())
    ds = rd.from_arrow(corpus.docs_to_table(docs))
    out = build_extract_pipeline(
        ds, opts=PipelineOptions(concurrency=2, heavy_batch_size=1)
    )
    got = {}
    for batch in out.iter_batches(batch_size=64, batch_format="pyarrow"):
        for row in batch.to_pylist():
            got[row["doc_id"]] = [
                (s["kind"], s["text"], s["media_ref"], s["offset"])
                for s in row["spans_out"]
            ]
    assert got == expected
    assert len(got["doc-heavy"]) == 60  # one block per single-line image


def test_bucketed_mode_matches_uniform():
    """Opt-in skew_mode='bucketed' (materialized boundary + per-bucket
    batch sizes) produces exactly the uniform-mode output."""
    docs = _heavy_tail_docs()
    expected = oracle.oracle_extract_docs(docs, ExtractConfig())
    ds = rd.from_arrow(corpus.docs_to_table(docs))
    out = build_extract_pipeline(
        ds,
        opts=PipelineOptions(
            skew_mode="bucketed", concurrency=4, heavy_batch_size=1
        ),
    )
    got = {}
    for batch in out.iter_batches(batch_size=64, batch_format="pyarrow"):
        for row in batch.to_pylist():
            got[row["doc_id"]] = [
                (s["kind"], s["text"], s["media_ref"], s["offset"])
                for s in row["spans_out"]
            ]
    assert got == expected
