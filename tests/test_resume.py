"""Checkpoint/resume: resume-equals-fresh, only missing shards recompute,
partial writes never look complete (FIXTURES.md F4)."""

import json
import os
import re
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


def _covered_rows(plans):
    """(path, row) of every row the plans' ranges hold, in plan order."""
    return [
        (r["path"], row)
        for p in plans for r in p.ranges
        for row in range(r["start"], r["start"] + r["num_rows"])
    ]


def test_shard_plans_cover_input(input_path):
    """A single file's shards are contiguous row ranges of equal size
    that cover the file once, in order."""
    plans = plan_shards(input_path, N_SHARDS)
    assert [p.shard_id for p in plans] == list(range(N_SHARDS))
    assert _covered_rows(plans) == [(input_path, i) for i in range(N_DOCS)]
    assert [sum(r["num_rows"] for r in p.ranges) for p in plans] == [N_DOCS // N_SHARDS] * N_SHARDS


def test_file_group_sharding(tmp_path):
    """A directory's shards cut its files' rows, in file order, into
    contiguous ranges of equal size that cover every row once; a range may
    span files."""
    d = tmp_path / "many"
    d.mkdir()
    tbl = corpus.generate_corpus_table(20, seed=3)
    for i in range(6):
        pq.write_table(tbl.slice(i * 3, 3), d / f"f{i}.parquet")
    plans = plan_shards(str(d), 4)
    files = sorted(str(f) for f in d.iterdir())
    assert _covered_rows(plans) == [(f, i) for f in files for i in range(3)]
    assert [sum(r["num_rows"] for r in p.ranges) for p in plans] == [4, 5, 4, 5]
    assert any(len(p.ranges) > 1 for p in plans)


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


def test_committed_files_hold_one_row_group(tmp_path):
    """The stage returns each block as one chunk, so every file a task
    writes, detect checkpoint and output alike, holds one row group, even
    where the block spans several ``BATCH_DOCS`` kernel batches."""
    from ocr_platform_ray.stages.extract import BATCH_DOCS

    path = str(tmp_path / "docs.parquet")
    # 4 CPUs plan 8 read units: 320 docs make units of 40 > BATCH_DOCS
    pq.write_table(corpus.generate_corpus_table(320, seed=4), path)
    out = str(tmp_path / "out")
    run_job(path, out, n_shards=1, two_phase=True)
    for root in (out, os.path.join(out, "detect")):
        files = [
            os.path.join(root, part, f)
            for part in sorted(os.listdir(root)) if part.startswith("part-")
            for f in os.listdir(os.path.join(root, part))
        ]
        assert files, root
        assert all(pq.read_metadata(f).num_row_groups == 1 for f in files), root
        assert min(pq.read_metadata(f).num_rows for f in files) > BATCH_DOCS


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
    """A run that fails transiently is retried whole after one backoff
    delay and every pending shard commits; a run that always fails raises
    after ``shard_retries + 1`` attempts, commits no manifest, and leaves
    the manifests of an earlier run as they were."""
    import ocr_platform_ray.checkpoint as cp

    real = cp.build_extract_pipeline
    calls = {"n": 0}

    def flaky(*a, **kw):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient")
        return real(*a, **kw)

    monkeypatch.setattr(cp, "build_extract_pipeline", flaky)
    delays = []
    real_delay = cp._retry_delay_s

    def spy_delay(sid, attempt, base):
        delays.append(real_delay(sid, attempt, base))
        return 0.0  # don't actually sleep in tests

    monkeypatch.setattr(cp, "_retry_delay_s", spy_delay)
    out = str(tmp_path / "out")
    summary = cp.run_job(input_path, out, n_shards=2, shard_retries=2)
    assert summary["shards_ran"] == [0, 1]
    assert completed_shards(out) == {0, 1}
    # one failed run, so exactly one backoff delay was computed
    assert calls["n"] == 2
    assert len(delays) == 1 and all(0.4 <= d <= 600.0 for d in delays)

    os.remove(os.path.join(out, "manifest", "part-00001.json"))
    with open(os.path.join(out, "manifest", "part-00000.json")) as f:
        kept = f.read()
    calls["n"] = 0
    delays.clear()

    def always_fail(*a, **kw):
        calls["n"] += 1
        raise RuntimeError("poison")

    monkeypatch.setattr(cp, "build_extract_pipeline", always_fail)
    with pytest.raises(RuntimeError, match="poison"):
        cp.run_job(input_path, out, n_shards=2, shard_retries=1)
    assert calls["n"] == 2 and len(delays) == 1
    assert completed_shards(out) == {0}
    with open(os.path.join(out, "manifest", "part-00000.json")) as f:
        assert f.read() == kept


def test_rerun_removes_manifest_before_replacing_its_shard(input_path, tmp_path, monkeypatch):
    """A rerun of committed shards (``resume=False`` keeps the old
    manifests) removes a shard's manifest before its directory is
    replaced: when the commit fails before the new manifest lands, no old
    manifest certifies the new data, and a resume reruns the shard."""
    import ocr_platform_ray.checkpoint as cp

    fresh = str(tmp_path / "fresh")
    run_job(input_path, fresh, n_shards=2)
    out = str(tmp_path / "out")
    run_job(input_path, out, n_shards=2)
    real_sha = cp._content_sha256

    def fail_shard_1(part_dir):
        if part_dir.endswith("part-00001"):
            raise OSError("disk gone")
        return real_sha(part_dir)

    monkeypatch.setattr(cp, "_content_sha256", fail_shard_1)
    with pytest.raises(OSError, match="disk gone"):
        run_job(input_path, out, n_shards=2, resume=False, shard_retries=0)
    assert not os.path.exists(os.path.join(out, "manifest", "part-00001.json"))
    monkeypatch.setattr(cp, "_content_sha256", real_sha)
    assert run_job(input_path, out, n_shards=2)["shards_ran"] == [1]
    assert _read_all(out) == _read_all(fresh)


def test_run_manifests_share_run_fields(input_path, tmp_path):
    """Every shard of one run is committed from the same Datasets: their
    manifests share ``run_shards`` (the run's shard ids), ``stage_times``
    and ``wall_time_s``; a later run of one shard records only itself."""
    out = str(tmp_path / "out")
    run_job(input_path, out, n_shards=N_SHARDS, two_phase=True)
    ms = load_manifests(out)
    assert [m["run_shards"] for m in ms] == [list(range(N_SHARDS))] * N_SHARDS
    assert len({json.dumps(m["stage_times"], sort_keys=True) for m in ms}) == 1
    assert set(ms[0]["stage_times"]) == {"detect_s", "recognize_s"}
    assert len({m["wall_time_s"] for m in ms}) == 1
    os.remove(os.path.join(out, "manifest", "part-00002.json"))
    assert run_job(input_path, out, n_shards=N_SHARDS, two_phase=True)["shards_ran"] == [2]
    assert [m["run_shards"] for m in load_manifests(out)] == [
        list(range(N_SHARDS)), list(range(N_SHARDS)), [2], list(range(N_SHARDS)),
    ]


def test_job_of_more_shards_than_one_run(tmp_path):
    """A job of ``RUN_SHARDS + 1`` shards runs as two runs, the
    second of one shard, so no partitioned write covers more shards than
    pyarrow's 1024-partition limit; every shard commits and every doc is
    written once."""
    import ocr_platform_ray.checkpoint as cp

    n = cp.RUN_SHARDS + 1
    tbl = corpus.generate_corpus_table(40, seed=7)
    path = str(tmp_path / "docs.parquet")
    pq.write_table(tbl, path)
    out = str(tmp_path / "out")
    summary = run_job(path, out, n_shards=n)
    assert summary["shards_ran"] == list(range(n))
    assert summary["n_docs"] == 40
    assert completed_shards(out) == set(range(n))
    assert sorted(_read_all(out)) == sorted(tbl.column("doc_id").to_pylist())
    runs = [m["run_shards"] for m in load_manifests(out)]
    assert runs == [list(range(n - 1))] * (n - 1) + [[n - 1]]


def _corrupt_pages(path):
    """Overwrite the first column chunk's pages of the parquet file
    ``path``, leaving its footer intact: it plans, and fails to read."""
    md = pq.read_metadata(path)
    size = md.row_group(0).column(0).total_compressed_size
    data = bytearray(path.read_bytes())
    data[4 : 4 + size] = b"\xff" * size  # the chunk starts after the b"PAR1" magic
    path.write_bytes(bytes(data))
    assert pq.read_metadata(path).num_rows == md.num_rows


def test_poison_shard_holds_back_its_run(tmp_path, monkeypatch):
    """A shard that always fails (an input file whose pages are corrupt
    behind an intact footer) keeps every other shard of its run from
    committing: the run is retried whole ``shard_retries + 1`` times,
    then raises, and the shards an earlier run committed stay as they
    were. Smaller runs commit the shards of the runs before the failing
    one."""
    import ocr_platform_ray.checkpoint as cp

    in_dir = tmp_path / "in"
    in_dir.mkdir()
    docs = corpus.generate_docs(24, seed=3)
    for k in range(4):
        pq.write_table(
            corpus.docs_to_table(docs[k * 6 : (k + 1) * 6]), in_dir / f"f{k}.parquet"
        )
    out = str(tmp_path / "out")
    run_job(str(in_dir), out, n_shards=4)
    kept = {}
    for sid in (0, 2):
        with open(os.path.join(out, "manifest", f"part-{sid:05d}.json")) as f:
            kept[sid] = f.read()
    for sid in (1, 3):
        os.remove(os.path.join(out, "manifest", f"part-{sid:05d}.json"))
    _corrupt_pages(in_dir / "f3.parquet")

    runs = []
    real_run = cp._run_pending

    def spy_run(plans, *a, **kw):
        runs.append([p.shard_id for p in plans])
        return real_run(plans, *a, **kw)

    monkeypatch.setattr(cp, "_run_pending", spy_run)
    monkeypatch.setattr(cp, "_retry_delay_s", lambda *a: 0.0)
    with pytest.raises(Exception, match="page header"):
        run_job(str(in_dir), out, n_shards=4, shard_retries=1)
    assert runs == [[1, 3], [1, 3]]
    assert completed_shards(out) == {0, 2}
    for sid, text in kept.items():
        with open(os.path.join(out, "manifest", f"part-{sid:05d}.json")) as f:
            assert f.read() == text

    runs.clear()
    monkeypatch.setattr(cp, "RUN_SHARDS", 1)
    with pytest.raises(Exception, match="page header"):
        run_job(str(in_dir), out, n_shards=4, shard_retries=1)
    assert runs == [[1], [3], [3]]
    assert completed_shards(out) == {0, 1, 2}


def test_corrupt_footer_fails_at_planning(tmp_path, monkeypatch):
    """A file whose footer does not parse fails the job at planning,
    naming the file, before any run: no manifest is touched and no retry
    is scheduled."""
    import ocr_platform_ray.checkpoint as cp

    in_dir = tmp_path / "in"
    in_dir.mkdir()
    docs = corpus.generate_docs(12, seed=3)
    for k in range(2):
        pq.write_table(corpus.docs_to_table(docs[k * 6 : (k + 1) * 6]), in_dir / f"f{k}.parquet")
    out = tmp_path / "out"
    run_job(str(in_dir), str(out), n_shards=2)
    (out / "manifest" / "part-00001.json").unlink()
    before = {m.name: m.read_text() for m in (out / "manifest").iterdir()}
    bad = in_dir / "f1.parquet"
    bad.write_bytes(b"not a parquet file")

    def no_delay(*a):
        raise AssertionError("a run was retried")

    monkeypatch.setattr(cp, "_retry_delay_s", no_delay)
    with pytest.raises(Exception, match=f"^{re.escape(str(bad))}: .*magic bytes"):
        run_job(str(in_dir), str(out), n_shards=2)
    assert {m.name: m.read_text() for m in (out / "manifest").iterdir()} == before


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


def test_no_resume_clears_stale_wider_two_phase_plan(input_path, tmp_path):
    """Narrowing a two-phase plan removes the stale shard's detect
    checkpoint with its output and manifest."""
    out = str(tmp_path / "out")
    run_job(input_path, out, n_shards=3, two_phase=True)
    summary = run_job(input_path, out, n_shards=2, two_phase=True, resume=False)
    assert summary["shards_invalidated"] == [2]
    assert summary["n_docs"] == N_DOCS
    assert not os.path.isdir(os.path.join(out, "part-00002"))
    assert sorted(os.listdir(os.path.join(out, "detect"))) == ["part-00000", "part-00001"]


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


@pytest.mark.parametrize("holder", ["a", "b"])
def test_dedup_survivor_change_reruns_every_shard(tmp_path, holder):
    """A new file holding a copy, under a smaller doc_id, of a doc in
    ``holder`` makes the copy the survivor. Adding the file moves only
    shard 1's range (shard 0 keeps ``a``'s four rows): with the original
    in ``b`` its shard reruns anyway, with it in ``a`` only the survivor
    change can rerun shard 0. Either way the original leaves the output,
    and the resume equals a fresh run."""
    d = tmp_path / "in"
    d.mkdir()
    docs = corpus.generate_docs(8, seed=31)
    pq.write_table(corpus.docs_to_table(docs[:4]), d / "a.parquet")
    pq.write_table(corpus.docs_to_table(docs[4:]), d / "b.parquet")
    out = str(tmp_path / "out")
    assert run_job(str(d), out, n_shards=2, dedup="exact")["n_docs"] == 8
    original = docs[1 if holder == "a" else 5]
    assert original["spans"]
    pq.write_table(
        corpus.docs_to_table([dict(original, doc_id="a-copy")]), d / "c.parquet"
    )
    summary = run_job(str(d), out, n_shards=2, dedup="exact")
    fresh = str(tmp_path / "fresh")
    assert run_job(str(d), fresh, n_shards=2, dedup="exact")["n_docs"] == 8
    assert summary["n_docs"] == 8
    rows = _read_all(out)
    assert "a-copy" in rows and original["doc_id"] not in rows
    assert rows == _read_all(fresh)


@pytest.mark.parametrize("layout", ["file", "dir"])
def test_grown_input_reruns_moved_shards(tmp_path, layout):
    """A file that grows (a single input file 20 -> 40 docs; the last of
    four 5-doc files 5 -> 25) moves the shards' row ranges: the resume
    reruns them, and its output equals a fresh run over the grown input."""
    docs = corpus.generate_docs(40, seed=17)
    d = tmp_path / "in"
    d.mkdir()
    if layout == "file":
        grown, before, after = d / "docs.parquet", docs[:20], docs
        path = str(grown)
    else:
        for k in range(3):
            pq.write_table(corpus.docs_to_table(docs[5 * k : 5 * k + 5]), d / f"f{k}.parquet")
        grown, before, after = d / "f3.parquet", docs[15:20], docs[15:]
        path = str(d)
    pq.write_table(corpus.docs_to_table(before), grown)
    out = str(tmp_path / "out")
    assert run_job(path, out, n_shards=2)["n_docs"] == 20
    pq.write_table(corpus.docs_to_table(after), grown)
    summary = run_job(path, out, n_shards=2)
    assert summary["shards_ran"] == [0, 1]
    assert summary["n_docs"] == 40
    fresh = str(tmp_path / "fresh")
    run_job(path, fresh, n_shards=2)
    assert _read_all(out) == _read_all(fresh)
    assert len(_read_all(out)) == 40


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


def test_result_edit_keeps_dead_letters_and_tenant(tmp_path):
    """A result edit on a doc with a malformed media_ref (generate_docs'
    dead-letter fixture) in a corpus with a tenant_id column, through the
    fused job and the two-phase job: the edited row keeps its
    n_span_errors and its tenant_id, the manifests count the same dead
    letters as an unedited run, and fused equals two-phase."""
    import pyarrow as pa

    docs = corpus.generate_docs(60, seed=13)
    target = "doc-00000045"
    assert docs[45]["doc_id"] == target
    assert docs[45]["spans"][-1]["media_ref"] == "img://malformed"
    tbl = corpus.docs_to_table(docs)
    tbl = tbl.append_column("tenant_id", pa.array([f"t{i % 3}" for i in range(60)]))
    path = str(tmp_path / "docs.parquet")
    pq.write_table(tbl, path)
    rov = [{"doc_id": target, "spans_out": [
        {"kind": "image", "text": "EDITED", "media_ref": "m", "offset": 0}]}]

    def rows_of(out_dir):
        rows = {}
        for part in sorted(os.listdir(out_dir)):
            if part.startswith("part-"):
                for r in pq.read_table(os.path.join(out_dir, part)).to_pylist():
                    rows[r["doc_id"]] = r
        return rows

    base = run_job(path, str(tmp_path / "base"), n_shards=2)
    base_rows = rows_of(str(tmp_path / "base"))
    assert base_rows[target]["n_span_errors"] >= 1
    got = {}
    for two_phase in (False, True):
        out = str(tmp_path / f"edit-{two_phase}")
        summary = run_job(path, out, n_shards=2, two_phase=two_phase,
                          result_overrides=rov)
        assert summary["n_span_errors"] == base["n_span_errors"]
        got[two_phase] = rows = rows_of(out)
        edited = rows[target]
        assert [(s["kind"], s["text"], s["media_ref"], s["offset"])
                for s in edited["spans_out"]] == [("image", "EDITED", "m", 0)]
        assert edited["n_blocks"] == 1 and edited["mean_conf"] == 1.0
        assert edited["n_span_errors"] == base_rows[target]["n_span_errors"]
        assert edited["tenant_id"] == "t0"  # 45 % 3
        assert {d: r for d, r in rows.items() if d != target} == {
            d: r for d, r in base_rows.items() if d != target}
    assert got[False] == got[True]


def test_invalidate_doc_ids_reruns_owning_shard_only(input_path, tmp_path):
    """Per-document rerun hook (reference requeue/rerun): only the shard
    whose planned row range holds the doc recomputes; every other
    checkpoint is reused byte-same."""
    out = str(tmp_path / "out")
    run_job(input_path, out, n_shards=N_SHARDS)
    before = _read_all(out)
    target = "doc-00000021"
    row = pq.read_table(input_path, columns=["doc_id"]).column("doc_id").to_pylist().index(target)
    (own,) = [
        p.shard_id for p in plan_shards(input_path, N_SHARDS)
        if any(r["start"] <= row < r["start"] + r["num_rows"] for r in p.ranges)
    ]
    assert own == 1
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
    """Over a directory, a doc's owner is the shard whose row range holds
    it, found from the doc_id column of the shards' ranges."""
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
    # two-phase: the empty shards commit empty detect directories too
    out2 = str(tmp_path / "out2")
    summary = run_job(path, out2, n_shards=2, tenant="t1", two_phase=True)
    assert summary["shards_ran"] == [0, 1] and summary["n_docs"] == 0
    for sid in (0, 1):
        assert os.listdir(os.path.join(out2, "detect", f"part-{sid:05d}")) == []
        assert os.listdir(os.path.join(out2, f"part-{sid:05d}")) == []
    assert sorted(os.listdir(out2)) == ["detect", "manifest", "part-00000", "part-00001"]
