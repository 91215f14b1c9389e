"""Skew (north_rule explicit requirement): a heavy-tail doc extracts
correctly on default options.

Every span of a doc lives in its row and a stage batch holds a bounded
number of docs, so a 60-image doc among 1-image docs is one row of one
batch, on the fused path and on the two-phase path alike.
"""

import ray.data as rd

from ocr_platform_ray import corpus, media, oracle
from ocr_platform_ray.kernels.extract import ExtractConfig
from ocr_platform_ray.pipeline import (
    build_detect_pipeline,
    build_extract_pipeline,
    build_recognize_pipeline,
)


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


def _spans_by_doc(ds) -> dict:
    got = {}
    for batch in ds.iter_batches(batch_size=64, batch_format="pyarrow"):
        for row in batch.to_pylist():
            got[row["doc_id"]] = [
                (s["kind"], s["text"], s["media_ref"], s["offset"])
                for s in row["spans_out"]
            ]
    return got


def test_heavy_tail_extracts_correctly():
    docs = _heavy_tail_docs()
    expected = oracle.oracle_extract_docs(docs, ExtractConfig())
    got = _spans_by_doc(build_extract_pipeline(rd.from_arrow(corpus.docs_to_table(docs))))
    assert got == expected
    assert len(got["doc-heavy"]) == 60  # one block per single-line image


def test_heavy_tail_two_phase_extracts_correctly(tmp_path):
    docs = _heavy_tail_docs()
    expected = oracle.oracle_extract_docs(docs, ExtractConfig())
    ckpt = str(tmp_path / "detect")
    build_detect_pipeline(rd.from_arrow(corpus.docs_to_table(docs))).write_parquet(ckpt)
    got = _spans_by_doc(build_recognize_pipeline(rd.read_parquet(ckpt)))
    assert got == expected
    assert len(got["doc-heavy"]) == 60
