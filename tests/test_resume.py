"""Checkpoint/resume: resume-equals-fresh, only missing shards recompute,
partial writes never look complete (FIXTURES.md F4)."""

import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

import ray.data as rd

from ocr_platform_ray import corpus
from ocr_platform_ray.checkpoint import (
    completed_shards,
    load_manifests,
    plan_shards,
    run_job,
)

N_DOCS = 60
N_SHARDS = 4


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    tbl = corpus.generate_corpus_table(N_DOCS, seed=11)
    path = tmp_path_factory.mktemp("corpus") / "docs.parquet"
    pq.write_table(tbl, path)
    return str(path)


def _read_all(out_dir):
    rows = {}
    for part in sorted(os.listdir(out_dir)):
        if not part.startswith("part-"):
            continue
        for f in sorted(os.listdir(os.path.join(out_dir, part))):
            t = pq.read_table(os.path.join(out_dir, part, f))
            for r in t.to_pylist():
                rows[r["doc_id"]] = [
                    (s["kind"], s["text"], s["media_ref"], s["offset"])
                    for s in r["spans_out"]
                ]
    return rows



def test_fresh_run_commits_all_shards(input_path, tmp_path):
    out = str(tmp_path / "out")
    summary = run_job(input_path, out, n_shards=N_SHARDS)
    assert summary["shards_ran"] == list(range(N_SHARDS))
    assert completed_shards(out) == set(range(N_SHARDS))
    ms = load_manifests(out)
    assert sum(m["n_docs"] for m in ms) == N_DOCS
    for m in ms:
        assert m["status"] == "DONE"
        assert m["content_sha256"]
        assert m["wall_time_s"] > 0


def test_resume_skips_done_and_equals_fresh(input_path, tmp_path):
    fresh = str(tmp_path / "fresh")
    run_job(input_path, fresh, n_shards=N_SHARDS)
    fresh_rows = _read_all(fresh)

    partial = str(tmp_path / "partial")
    run_job(input_path, partial, n_shards=N_SHARDS)
    # lose shard 2: data dir + manifest (simulates a failed partition)
    shutil.rmtree(os.path.join(partial, "part-00002"))
    os.remove(os.path.join(partial, "manifest", "part-00002.json"))

    summary = run_job(input_path, partial, n_shards=N_SHARDS)
    assert summary["shards_ran"] == [2]
    assert sorted(summary["shards_skipped"]) == [0, 1, 3]
    assert _read_all(partial) == fresh_rows


def test_partial_write_not_committed(input_path, tmp_path):
    """A data dir without a manifest is not 'complete' — it reruns."""
    out = str(tmp_path / "out")
    run_job(input_path, out, n_shards=N_SHARDS)
    os.remove(os.path.join(out, "manifest", "part-00001.json"))
    # data dir still present (partial-commit state) -> must recompute
    summary = run_job(input_path, out, n_shards=N_SHARDS)
    assert summary["shards_ran"] == [1]


def test_shard_plans_cover_input(input_path):
    plans = plan_shards(input_path, N_SHARDS)
    assert len(plans) == N_SHARDS
    assert all(p.hash_mod is not None for p in plans)  # single file -> hash shards


def test_file_group_sharding(tmp_path):
    d = tmp_path / "many"
    d.mkdir()
    tbl = corpus.generate_corpus_table(20, seed=3)
    for i in range(6):
        pq.write_table(tbl.slice(i * 3, 3), d / f"f{i}.parquet")
    plans = plan_shards(str(d), 3)
    files = [f for p in plans for f in p.files]
    assert len(files) == 6 and len(set(files)) == 6
    assert all(p.files for p in plans)


@pytest.mark.parametrize("n_shards", [0, -1])
def test_shard_count_below_one_is_rejected(input_path, tmp_path, capsys, n_shards):
    """A shard count below 1 raises a ValueError naming it, for a
    directory and a single-file input alike; the job CLI exits non-zero
    with that message before it starts a session, and writes nothing."""
    from ocr_platform_ray import job

    d = tmp_path / "many"
    d.mkdir()
    pq.write_table(corpus.generate_corpus_table(4, seed=3), d / "f0.parquet")
    for path in (str(d), input_path):
        with pytest.raises(ValueError, match=f"got {n_shards}$"):
            plan_shards(path, n_shards)
        with pytest.raises(ValueError, match=f"got {n_shards}$"):
            run_job(path, str(tmp_path / "out"), n_shards=n_shards)
        assert not (tmp_path / "out").exists()
        with pytest.raises(SystemExit) as exit_info:
            job.main(["--input", path, "--output", str(tmp_path / "out"),
                      "--shards", str(n_shards)])
        assert exit_info.value.code != 0
        assert f"n_shards must be at least 1, got {n_shards}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_two_phase_job_equals_fused(input_path, tmp_path):
    """--two-phase (persisted detect checkpoint + recognize) produces the
    same output as the fused job, and commits the detect intermediate."""
    fused = str(tmp_path / "fused")
    run_job(input_path, fused, n_shards=2)
    twop = str(tmp_path / "twop")
    summary = run_job(input_path, twop, n_shards=2, two_phase=True)
    assert summary["shards_ran"] == [0, 1]
    assert _read_all(twop) == _read_all(fused)
    assert os.path.isdir(os.path.join(twop, "detect", "part-00000"))
    ms = load_manifests(twop)
    assert all(m["two_phase"] for m in ms)


def test_resume_invalidates_changed_plan(input_path, tmp_path):
    """Manifests from a different --shards plan or config don't count as
    done: resume validates lineage + n_shards + config_sig and reruns."""
    out = str(tmp_path / "out")
    run_job(input_path, out, n_shards=2)
    # same output dir, different shard count -> every old manifest invalid
    summary = run_job(input_path, out, n_shards=3)
    assert summary["shards_ran"] == [0, 1, 2]
    assert summary["shards_skipped"] == []
    assert summary["shards_invalidated"] == [0, 1]
    # rerun with the now-matching plan resumes cleanly
    summary2 = run_job(input_path, out, n_shards=3)
    assert summary2["shards_ran"] == []
    assert sorted(summary2["shards_skipped"]) == [0, 1, 2]


def test_resume_invalidates_changed_config(input_path, tmp_path):
    from ocr_platform_ray.kernels.extract import ExtractConfig

    out = str(tmp_path / "out")
    run_job(input_path, out, n_shards=2)
    summary = run_job(
        input_path, out, n_shards=2,
        cfg=ExtractConfig(max_side=600),
    )
    assert summary["shards_ran"] == [0, 1]          # config changed -> rerun
    assert summary["shards_invalidated"] == [0, 1]


def test_shard_retry_backoff(input_path, tmp_path, monkeypatch):
    """A shard that fails transiently is retried with backoff and the job
    completes; a permanently failing shard raises after the budget."""
    import ocr_platform_ray.checkpoint as cp

    real = cp.run_shard
    calls = {"n": 0}

    def flaky(plan, *a, **kw):
        calls["n"] += 1
        if plan.shard_id == 1 and calls["n"] <= 2:
            raise RuntimeError("transient")
        return real(plan, *a, **kw)

    monkeypatch.setattr(cp, "run_shard", flaky)
    delays = []
    real_delay = cp._retry_delay_s

    def spy_delay(sid, attempt, base):
        delays.append(real_delay(sid, attempt, base))
        return 0.0  # don't actually sleep in tests

    monkeypatch.setattr(cp, "_retry_delay_s", spy_delay)
    out = str(tmp_path / "out")
    summary = cp.run_job(input_path, out, n_shards=2, shard_retries=2)
    assert summary["shards_ran"] == [0, 1]
    # shard 1 failed once (its first call is global call #2), so exactly
    # one backoff delay was computed
    assert len(delays) == 1 and all(0.4 <= d <= 600.0 for d in delays)

    def always_fail(plan, *a, **kw):
        raise RuntimeError("poison")

    monkeypatch.setattr(cp, "run_shard", always_fail)
    with pytest.raises(RuntimeError):
        cp.run_job(input_path, str(tmp_path / "out2"), n_shards=1,
                   shard_retries=1)


def test_manifest_surfaces_span_errors(tmp_path):
    """A poison media_ref ends up as n_span_errors in the shard manifest."""
    docs = [
        {
            "doc_id": f"doc-{i:04d}",
            "spans": [
                {"kind": "text", "text": f"doc {i}", "media_ref": "", "offset": 0},
                {"kind": "image", "text": "", "media_ref": "img://broken", "offset": 7},
            ],
        }
        for i in range(6)
    ]
    path = str(tmp_path / "poison.parquet")
    pq.write_table(corpus.docs_to_table(docs), path)
    out = str(tmp_path / "out")
    summary = run_job(path, out, n_shards=2)
    assert summary["n_span_errors"] == 6
    assert sum(m["n_span_errors"] for m in load_manifests(out)) == 6


def test_no_resume_still_clears_stale_wider_plan(input_path, tmp_path):
    """resume=False must still remove out-of-range shards from a wider
    previous plan, or the summary double-counts and part-*/ has orphans."""
    out = str(tmp_path / "out")
    run_job(input_path, out, n_shards=3)
    summary = run_job(input_path, out, n_shards=2, resume=False)
    assert summary["shards_ran"] == [0, 1]
    assert summary["shards_invalidated"] == [2]
    assert summary["n_docs"] == N_DOCS          # no double count
    assert not os.path.isdir(os.path.join(out, "part-00002"))
    assert completed_shards(out) == {0, 1}


def test_dedup_prepass_drops_duplicates(tmp_path):
    """--dedup exact: whole-document duplicates extract once (min doc_id
    survivor), survivors list is committed and reused on resume."""
    docs = corpus.generate_docs(12, seed=21)
    # plant two exact duplicates of doc 0 with higher ids
    for dup_id in ("zz-dup-1", "zz-dup-2"):
        docs.append(dict(docs[0], doc_id=dup_id))
    path = str(tmp_path / "docs.parquet")
    pq.write_table(corpus.docs_to_table(docs), path)
    out = str(tmp_path / "out")
    summary = run_job(path, out, n_shards=2, dedup="exact")
    rows = _read_all(out)
    assert summary["n_docs"] == 12            # 14 input docs, 2 dropped
    assert docs[0]["doc_id"] in rows
    assert "zz-dup-1" not in rows and "zz-dup-2" not in rows
    assert os.path.isdir(os.path.join(out, "dedup"))
    # resume: nothing reruns, survivors reused
    summary2 = run_job(path, out, n_shards=2, dedup="exact")
    assert summary2["shards_ran"] == []
    # changing dedup mode invalidates (config_sig covers it)
    summary3 = run_job(path, out, n_shards=2, dedup="none")
    assert summary3["shards_ran"] == [0, 1]
    assert _read_all(out).keys() >= {"zz-dup-1", "zz-dup-2"}


def test_two_phase_resume_after_recognize_crash(input_path, tmp_path):
    """Crash between detect-checkpoint commit and output commit: the
    shard reruns wholesale on resume and the result equals a fresh run
    (the detect dir is overwritten, never half-trusted)."""
    fresh = str(tmp_path / "fresh")
    run_job(input_path, fresh, n_shards=2, two_phase=True)
    crashed = str(tmp_path / "crashed")
    run_job(input_path, crashed, n_shards=2, two_phase=True)
    # simulate dying after DETECT_DONE but before the output manifest
    os.remove(os.path.join(crashed, "manifest", "part-00001.json"))
    shutil.rmtree(os.path.join(crashed, "part-00001"))
    summary = run_job(input_path, crashed, n_shards=2, two_phase=True)
    assert summary["shards_ran"] == [1]
    assert _read_all(crashed) == _read_all(fresh)


def test_dedup_survivors_invalidate_on_new_input(tmp_path):
    """Adding an input file on resume must recompute the survivors list —
    a stale list would silently drop every new document."""
    d = tmp_path / "many"
    d.mkdir()
    docs = corpus.generate_docs(8, seed=31)
    pq.write_table(corpus.docs_to_table(docs[:4]), d / "a.parquet")
    pq.write_table(corpus.docs_to_table(docs[4:]), d / "b.parquet")
    out = str(tmp_path / "out")
    s1 = run_job(str(d), out, n_shards=2, dedup="exact")
    assert s1["n_docs"] == 8
    # new input file appears; manifests invalidate AND survivors recompute
    more = corpus.generate_docs(12, seed=32)[8:]
    pq.write_table(corpus.docs_to_table(more), d / "c.parquet")
    s2 = run_job(str(d), out, n_shards=2, dedup="exact")
    assert s2["n_docs"] == 12          # the 4 new docs are NOT dropped
    rows = _read_all(out)
    assert all(m["doc_id"] in rows for m in more)


def test_all_flags_combined(tmp_path):
    """--two-phase + dedup='exact' + result_overrides compose: duplicates
    drop before detect, the detect checkpoint commits, and the surviving
    target doc's result is replaced at merge."""
    docs = corpus.generate_docs(10, seed=41)
    docs.append(dict(docs[0], doc_id="zz-dup"))
    path = str(tmp_path / "docs.parquet")
    pq.write_table(corpus.docs_to_table(docs), path)
    out = str(tmp_path / "out")
    target = docs[1]["doc_id"]
    rov = [{"doc_id": target, "spans_out": [
        {"kind": "text", "text": "EDITED", "media_ref": "", "offset": 0}]}]
    summary = run_job(
        path, out, n_shards=2, two_phase=True,
        dedup="exact", result_overrides=rov,
    )
    rows = _read_all(out)
    assert summary["n_docs"] == 10                      # dup dropped
    assert "zz-dup" not in rows
    assert rows[target] == [("text", "EDITED", "", 0)]  # override applied
    assert os.path.isdir(os.path.join(out, "detect", "part-00000"))
    assert os.path.isdir(os.path.join(out, "dedup"))
    # resume with identical flags: nothing reruns
    s2 = run_job(path, out, n_shards=2, two_phase=True,
                 dedup="exact", result_overrides=rov)
    assert s2["shards_ran"] == []


def test_invalidate_doc_ids_reruns_owning_shard_only(input_path, tmp_path):
    """Per-document rerun hook (reference requeue/rerun): only the shard
    owning the doc recomputes; every other checkpoint is reused byte-same."""
    from ocr_platform_ray.rng import hash_str

    out = str(tmp_path / "out")
    run_job(input_path, out, n_shards=N_SHARDS)
    before = _read_all(out)
    target = "doc-00000005"
    own = hash_str(target) % N_SHARDS
    summary = run_job(
        input_path, out, n_shards=N_SHARDS,
        invalidate_doc_ids=[target],
    )
    assert summary["shards_ran"] == [own]
    assert summary["shards_invalidated"] == [own]
    assert sorted(summary["shards_skipped"]) == sorted(
        set(range(N_SHARDS)) - {own}
    )
    assert _read_all(out) == before  # deterministic recompute


def test_invalidate_doc_ids_file_shards(tmp_path):
    """File-group shards resolve ownership from the files' doc_id column."""
    import pyarrow as pa

    from ocr_platform_ray import corpus as _corpus

    in_dir = tmp_path / "in"
    in_dir.mkdir()
    docs = _corpus.generate_docs(24, seed=3)
    for k in range(4):
        pq.write_table(
            _corpus.docs_to_table(docs[k * 6 : (k + 1) * 6]),
            in_dir / f"f{k}.parquet",
        )
    out = str(tmp_path / "out")
    run_job(str(in_dir), out, n_shards=4)
    target = docs[13]["doc_id"]  # lives in f2.parquet -> shard 2
    summary = run_job(
        str(in_dir), out, n_shards=4, invalidate_doc_ids=[target]
    )
    assert summary["shards_ran"] == [2]
    assert sorted(summary["shards_skipped"]) == [0, 1, 3]


def test_invalidate_unknown_doc_is_noop(input_path, tmp_path):
    out = str(tmp_path / "out")
    run_job(input_path, out, n_shards=N_SHARDS)
    summary = run_job(
        input_path, out, n_shards=N_SHARDS,
        invalidate_doc_ids=[],
    )
    assert summary["shards_ran"] == []
    assert sorted(summary["shards_skipped"]) == list(range(N_SHARDS))


def test_empty_shard_commits_zero_manifest(tmp_path):
    """A shard left with no rows (here: a tenant with no documents) writes
    no parquet file; it still commits, with zero counts."""
    import pyarrow as pa

    tbl = corpus.generate_corpus_table(12, seed=5)
    tbl = tbl.append_column("tenant_id", pa.array(["t0"] * tbl.num_rows))
    path = str(tmp_path / "docs.parquet")
    pq.write_table(tbl, path)
    out = str(tmp_path / "out")
    summary = run_job(path, out, n_shards=2, tenant="t1")
    assert summary["shards_ran"] == [0, 1] and summary["n_docs"] == 0
    for m in load_manifests(out):
        assert (m["n_docs"], m["n_blocks"], m["doc_id_min"]) == (0, 0, "")
        assert m["n_docs_by_tenant"] == {}
