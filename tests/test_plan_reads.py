"""Driver-planned reads (``pipeline.plan_reads`` + ``read_unit``): the
footer-only planner cuts the rows of a file list into contiguous units of
equal row count, and the reader loads each unit from only the row groups
it overlaps, metadata stripped, shard-tagged when the plan carries shard
ids. The checkpoint's shard tags (file rule and doc_id-hash rule) must
stay bit-equal to the rules older manifests were committed under."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ocr_platform_ray import checkpoint, corpus
from ocr_platform_ray.pipeline import SHARD_COL, plan_reads, read_unit
from ocr_platform_ray.rng import hash_str


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Four files: 23 rows in row groups of 5 (pandas-written, so with
    schema metadata), an empty file, 1 row, and 9 rows in groups of 4."""
    d = tmp_path_factory.mktemp("plan")
    paths = [str(d / f"f{k}.parquet") for k in range(4)]
    pd.DataFrame({"doc_id": [f"a{i}" for i in range(23)], "v": range(23)}).to_parquet(
        paths[0], row_group_size=5
    )
    empty = pa.table({"doc_id": pa.array([], pa.string()), "v": pa.array([], pa.int64())})
    pq.write_table(empty, paths[1])
    pq.write_table(pa.table({"doc_id": ["b0"], "v": [100]}), paths[2])
    pq.write_table(
        pa.table({"doc_id": [f"c{i}" for i in range(9)], "v": range(200, 209)}),
        paths[3], row_group_size=4,
    )
    return paths


def _concat(paths):
    return pa.concat_tables(
        [pq.read_table(p).replace_schema_metadata(None) for p in paths]
    )


def _overlapping_groups(path, lo, hi):
    """Row groups of ``path`` whose rows meet the file-local range [lo, hi)."""
    md = pq.read_metadata(path)
    out, start = [], 0
    for g in range(md.num_row_groups):
        n = md.row_group(g).num_rows
        if n and start < hi and lo < start + n:
            out.append(g)
        start += n
    return out


@pytest.mark.parametrize("n_units", [1, 3, 7, 33, 1000])
def test_units_read_back_equal_the_files(files, n_units):
    """Read in order, the units are the files' rows in order (more units
    than rows plan one row each); each unit holds its equal share within
    one row; no schema metadata survives."""
    units = plan_reads(files, n_units=n_units)
    total = 33
    assert len(units) == min(n_units, total)
    tables = [read_unit(u) for u in units]
    share = total / len(units)
    assert all(abs(t.num_rows - share) < 1 for t in tables)
    got = pa.concat_tables(tables)
    assert got.equals(_concat(files))
    assert all(t.schema.metadata is None for t in tables)
    assert SHARD_COL not in got.column_names


def test_single_file_and_columns(files):
    units = plan_reads(files[:1], n_units=4)
    assert [sum(p["num_rows"] for p in u["pieces"]) for u in units] == [5, 6, 6, 6]
    got = pa.concat_tables([read_unit(u, ["v"]) for u in units])
    assert got.column_names == ["v"]
    assert got.column("v").to_pylist() == list(range(23))


def test_empty_input_keeps_the_schema(files):
    """An input with no rows plans one empty unit that still reads the
    schema."""
    (unit,) = plan_reads(files[1:2], n_units=8)
    t = read_unit(unit)
    assert t.num_rows == 0 and t.column_names == ["doc_id", "v"]


def test_only_overlapping_row_groups_are_read(files, monkeypatch):
    """Each piece names exactly the row groups of its file that the unit
    overlaps, and the reader reads those and no others."""
    reads = []
    real = pq.ParquetFile.read_row_groups

    def spy(self, row_groups, *a, **kw):
        reads.append(list(row_groups))
        return real(self, row_groups, *a, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy)
    starts = np.cumsum([0] + [pq.read_metadata(f).num_rows for f in files])
    units = plan_reads(files, n_units=6)
    total = int(starts[-1])
    for u, unit in enumerate(units):
        lo, hi = u * total // len(units), (u + 1) * total // len(units)
        want = []
        for k, f in enumerate(files):
            a, b = max(lo, starts[k]) - starts[k], min(hi, starts[k + 1]) - starts[k]
            if a < b:
                want.append((f, _overlapping_groups(f, a, b)))
        assert [(p["path"], p["row_groups"]) for p in unit["pieces"]] == want
        reads.clear()
        read_unit(unit)
        assert reads == [g for _, g in want]
    # a unit can span files: the 6 units of 33 rows cross three boundaries
    assert any(len(u["pieces"]) > 1 for u in units)


def test_default_unit_count_is_two_per_cpu(files):
    """Without ``n_units``, a small input plans 2 x CPU units (the test
    session has 4 CPUs)."""
    assert len(plan_reads(files)) == 8


def test_file_shard_tags_follow_the_path_rule(files):
    """With shard ids, every row carries its file's shard id, the rule the
    tag from each row's path applied."""
    sids = [3, 1, 0, 7]
    got = pa.concat_tables([read_unit(u) for u in plan_reads(files, sids, n_units=5)])
    want = np.repeat(sids, [pq.read_metadata(f).num_rows for f in files])
    assert got.column(SHARD_COL).type == pa.int32()
    assert got.column(SHARD_COL).to_numpy().tolist() == want.tolist()
    assert got.drop_columns([SHARD_COL]).equals(_concat(files))


def _tags(ds):
    return {r["doc_id"]: r[SHARD_COL] for r in ds.take_all()}


def test_pending_dataset_tags_files_and_hashes(tmp_path):
    """The job's pending read tags rows exactly as the rules resume relies
    on: a file-group shard's rows with their file's shard id, a hash
    shard's rows with ``hash_str(doc_id) % n``, keeping pending shards
    only."""
    tbl = corpus.generate_corpus_table(40, seed=5)
    d = tmp_path / "many"
    d.mkdir()
    for k in range(5):
        pq.write_table(tbl.slice(8 * k, 8), d / f"part-{k}.parquet")
    plans = checkpoint.plan_shards(str(d), 2)
    got = _tags(checkpoint._pending_dataset(plans))
    want = {
        doc: p.shard_id
        for p in plans for f in p.files
        for doc in pq.read_table(f).column("doc_id").to_pylist()
    }
    assert got == want

    one = str(tmp_path / "one.parquet")
    pq.write_table(tbl, one)
    plans = checkpoint.plan_shards(one, 3)
    got = _tags(checkpoint._pending_dataset([plans[0], plans[2]]))
    want = {
        doc: hash_str(doc) % 3
        for doc in tbl.column("doc_id").to_pylist() if hash_str(doc) % 3 in (0, 2)
    }
    assert got == want
