"""Driver-contract smoke: entry() runs on a pre-initialised Ray session and
yields rows with the stable output schema; queries()/oracle_sql() are
consistent; the job CLI runs end-to-end via subprocess (ray job submit
shape)."""

import json
import os
import re
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "goldens")


def test_entry_smoke():
    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as m

    out = m.entry()
    df = out.to_pandas()
    assert len(df) >= 1
    assert list(df.columns) == [
        "doc_id", "spans_out", "n_spans_out", "n_blocks", "min_conf",
        "mean_conf", "n_span_errors", "tenant_id",
    ]


def test_registry_consistency():
    """Every record carries exactly one check that can fail (an oracle or
    a row rule), every oracle has a record, every per-scale rule names
    the three test scales, and ``golden`` matches the committed
    snapshots."""
    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as m
    from ocr_platform_ray.queries import REGISTRY

    qs = m.queries()
    oracles = m.oracle_sql()
    assert list(qs) == sorted((r.name for r in REGISTRY),
                              key=lambda n: n not in oracles)
    for r in REGISTRY:
        assert (r.name in oracles) != (r.rows is not None), r.name
        if isinstance(r.rows, dict):
            assert set(r.rows) >= {"sf0.001", "sf0.01", "sf0.1"}, r.name
        golden = os.path.join(GOLDEN_DIR, f"{r.name}.sf0.001.parquet")
        assert r.golden == os.path.exists(golden), r.name
    missing = set(oracles) - set(qs)
    assert not missing, f"oracle_sql keys without queries: {missing}"
    assert all(callable(f) for f in qs.values())
    assert all(isinstance(s, str) and "SELECT" in s.upper() for s in oracles.values())


def test_registration_refuses_a_query_without_one_check():
    from ocr_platform_ray import queries as q

    rest = tuple(r for r in q.REGISTRY if r.name != "q_sessions")
    for extra, why in [((q.Q(q.q_sessions, rows=1),), "both"),
                       ((), "no record"),
                       ((q.Q(q.q_sessions),) * 2, "duplicate")]:
        with pytest.raises(ValueError, match=why):
            q._registered(rest + extra)
    rest = tuple(r for r in q.REGISTRY if r.name != "q_extract_flagship")
    with pytest.raises(ValueError, match="neither"):
        q._registered(rest + (q.Q(q.q_extract_flagship),))


def test_first_50_queries_are_oracle_bearing():
    """A correctness round (CORRECTNESS_r*.json) checks only the first 50
    entries of queries(); each must have a value oracle, not only a row
    count."""
    from ocr_platform_ray.queries import oracle_sql, queries

    oracles = oracle_sql()
    assert [n for n in list(queries())[:50] if n not in oracles] == []


def test_readme_counts_match_registry():
    from ocr_platform_ray.queries import oracle_sql, queries

    readme = open(os.path.join(ROOT, "README.md")).read()
    n_queries = {int(n) for n in re.findall(
        r"\((\d+) (?:queries|operators over)", readme)}
    n_oracles = {int(n) for n in re.findall(
        r"\((\d+) DuckDB equivalents", readme)}
    assert n_queries == {len(queries())}
    assert n_oracles == {len(oracle_sql())}


@pytest.mark.parametrize("argv, max_side", [([], 900), (["--max-side", "700"], 700)])
def test_job_config_reads_env_fallbacks(tmp_path, monkeypatch, argv, max_side):
    """The job builds its config with ``ExtractConfig.from_env``: the
    reference's OCR_MAX_SIDE / CRAFT_MAX_SIDE fallbacks reach the config
    ``run_job`` receives, and a given ``--max-side`` wins over the env."""
    import ray

    from ocr_platform_ray import checkpoint, job

    got = {}

    def fake_run_job(*args, **kwargs):
        got.update(kwargs)
        return {}

    monkeypatch.setenv("OCR_MAX_SIDE", "900")
    monkeypatch.setenv("CRAFT_MAX_SIDE", "640")
    monkeypatch.setattr(checkpoint, "run_job", fake_run_job)
    monkeypatch.setattr(ray, "shutdown", lambda: None)  # keep the test session
    path = str(tmp_path / "docs.parquet")
    assert job.main(["--input", path, "--output", str(tmp_path / "out")] + argv) == 0
    assert got["cfg"].detect_max_side == 640
    assert got["cfg"].max_side == max_side


@pytest.mark.slow
def test_job_cli_runs_and_resumes(tmp_path):
    corpus_path = tmp_path / "docs.parquet"
    from ocr_platform_ray.corpus import generate_corpus_table

    pq.write_table(generate_corpus_table(24, seed=5), corpus_path)
    out_dir = tmp_path / "out"
    env = dict(os.environ, RAY_GRAFT_CPUS="4")
    cmd = [
        sys.executable, "-m", "ocr_platform_ray.job",
        "--input", str(corpus_path), "--output", str(out_dir), "--shards", "2",
    ]
    r1 = subprocess.run(cmd, capture_output=True, text=True, env=env,
                        cwd="/root/repo", timeout=420)
    assert r1.returncode == 0, r1.stderr[-2000:]
    s1 = json.loads(r1.stdout.strip().splitlines()[-1])
    assert s1["shards_ran"] == [0, 1] and s1["n_docs"] == 24
    r2 = subprocess.run(cmd, capture_output=True, text=True, env=env,
                        cwd="/root/repo", timeout=420)
    s2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert s2["shards_ran"] == [] and s2["shards_skipped"] == [0, 1]


@pytest.mark.slow
def test_output_invariant_across_num_cpus(tmp_path):
    """SURVEY §7.5.1: extraction output must be identical under different
    parallelism levels — two fresh sessions (num_cpus 2 and 4) over the
    same corpus via the job CLI."""
    corpus_path = tmp_path / "docs.parquet"
    from ocr_platform_ray.corpus import generate_corpus_table

    pq.write_table(generate_corpus_table(20, seed=31), corpus_path)

    def run(ncpu, out):
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        r = subprocess.run(
            [sys.executable, "-m", "ocr_platform_ray.job",
             "--input", str(corpus_path), "--output", out, "--shards", "2"],
            capture_output=True, text=True, env=env, cwd="/root/repo", timeout=420,
        )
        assert r.returncode == 0, r.stderr[-2000:]
        rows = {}
        for part in sorted(os.listdir(out)):
            if not part.startswith("part-"):
                continue
            for f in sorted(os.listdir(os.path.join(out, part))):
                for row in pq.read_table(os.path.join(out, part, f)).to_pylist():
                    rows[row["doc_id"]] = [
                        (s["kind"], s["text"], s["media_ref"], s["offset"])
                        for s in row["spans_out"]
                    ]
        return rows

    a = run(2, str(tmp_path / "out2"))
    b = run(4, str(tmp_path / "out4"))
    assert a == b and len(a) == 20
