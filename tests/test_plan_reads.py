"""Driver-planned reads (``pipeline.plan_reads`` + ``read_unit``): the
planner cuts parquet row ranges (whole files from their footers,
``file_ranges``) into contiguous units of equal row count, and the reader
loads each unit from only the row groups it overlaps, metadata stripped,
shard-tagged when the ranges carry shard ids. The checkpoint's shards
are the same cut, and its pending read tags each row with the shard whose
range holds it."""

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ocr_platform_ray import checkpoint, corpus
from ocr_platform_ray.pipeline import SHARD_COL, file_ranges, plan_reads, read_unit


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
    units = plan_reads(file_ranges(files), n_units=n_units)
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
    units = plan_reads(file_ranges(files[:1]), n_units=4)
    assert [sum(p["num_rows"] for p in u["pieces"]) for u in units] == [5, 6, 6, 6]
    got = pa.concat_tables([read_unit(u, ["v"]) for u in units])
    assert got.column_names == ["v"]
    assert got.column("v").to_pylist() == list(range(23))


def test_empty_input_keeps_the_schema(files):
    """An input with no rows plans one empty unit that still reads the
    schema."""
    (unit,) = plan_reads(file_ranges(files[1:2]), n_units=8)
    t = read_unit(unit)
    assert t.num_rows == 0 and t.column_names == ["doc_id", "v"]


def test_only_overlapping_row_groups_are_read(files, monkeypatch):
    """Each piece is exactly the file-local rows of its file that the
    unit holds, and the reader reads the row groups those rows overlap and
    no others."""
    reads = []
    real = pq.ParquetFile.read_row_groups

    def spy(self, row_groups, *a, **kw):
        reads.append(list(row_groups))
        return real(self, row_groups, *a, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy)
    starts = np.cumsum([0] + [pq.read_metadata(f).num_rows for f in files])
    units = plan_reads(file_ranges(files), n_units=6)
    total = int(starts[-1])
    for u, unit in enumerate(units):
        lo, hi = u * total // len(units), (u + 1) * total // len(units)
        want = []
        for k, f in enumerate(files):
            a, b = max(lo, starts[k]) - starts[k], min(hi, starts[k + 1]) - starts[k]
            if a < b:
                want.append(({"path": f, "start": int(a), "num_rows": int(b - a)},
                             _overlapping_groups(f, a, b)))
        assert unit["pieces"] == [p for p, _ in want]
        reads.clear()
        read_unit(unit)
        assert reads == [g for _, g in want]
    # a unit can span files: the 6 units of 33 rows cross three boundaries
    assert any(len(u["pieces"]) > 1 for u in units)


def test_default_unit_count_is_two_per_cpu(files):
    """Without ``n_units``, a small input plans 2 x CPU units (the test
    session has 4 CPUs)."""
    assert len(plan_reads(file_ranges(files))) == 8


def test_file_shard_tags_follow_the_path_rule(files):
    """With shard ids on whole-file ranges, every row carries its file's
    shard id."""
    sids = [3, 1, 0, 7]
    ranges = [dict(r, shard=s) for r, s in zip(file_ranges(files), sids)]
    got = pa.concat_tables([read_unit(u) for u in plan_reads(ranges, n_units=5)])
    want = np.repeat(sids, [pq.read_metadata(f).num_rows for f in files])
    assert got.column(SHARD_COL).type == pa.int32()
    assert got.column(SHARD_COL).to_numpy().tolist() == want.tolist()
    assert got.drop_columns([SHARD_COL]).equals(_concat(files))


@pytest.mark.parametrize("n_units", [1, 4, 9])
def test_sub_file_ranges_read_their_rows_and_tags(files, n_units):
    """Ranges that start and end inside files, out of file order and with
    an empty one among them, read back as exactly their rows, in range
    order, each row tagged with its range's shard id."""
    ranges = [
        {"path": files[3], "start": 2, "num_rows": 5, "shard": 0},
        {"path": files[0], "start": 7, "num_rows": 9, "shard": 2},
        {"path": files[0], "start": 23, "num_rows": 0, "shard": 5},
        {"path": files[0], "start": 0, "num_rows": 7, "shard": 1},
    ]
    got = pa.concat_tables([read_unit(u) for u in plan_reads(ranges, n_units=n_units)])
    want = pa.concat_tables([
        pq.read_table(r["path"]).replace_schema_metadata(None).slice(r["start"], r["num_rows"])
        for r in ranges
    ])
    assert got.drop_columns([SHARD_COL]).equals(want)
    assert got.column(SHARD_COL).to_pylist() == [0] * 5 + [2] * 9 + [1] * 7


@pytest.mark.parametrize("footer, error, message", [
    (None, pa.ArrowInvalid, "magic bytes"),
    (b"\xee", OSError, "deserialize thrift"),
])
def test_corrupt_footer_fails_naming_the_file(files, tmp_path, footer, error, message):
    """pyarrow's footer errors (no parquet magic; a footer that does not
    decode) name no file; ``file_ranges`` adds it and keeps the type."""
    bad = tmp_path / "bad.parquet"
    if footer is None:
        bad.write_bytes(b"not a parquet file")
    else:
        data = bytearray(open(files[0], "rb").read())
        size = int.from_bytes(data[-8:-4], "little")
        data[-8 - size : -8] = footer * size
        bad.write_bytes(bytes(data))
    with pytest.raises(error, match=f"^{re.escape(str(bad))}: .*{message}"):
        file_ranges([files[0], str(bad)])


def _tags(ds):
    return {r["doc_id"]: r[SHARD_COL] for r in ds.take_all()}


def test_pending_dataset_tags_shard_ranges(tmp_path):
    """The job's pending read tags each row with the shard whose range
    holds it, over a directory (the ranges span files) and over one file
    (three shards, two of them pending: the third's rows are never read)."""
    tbl = corpus.generate_corpus_table(40, seed=5)
    d = tmp_path / "many"
    d.mkdir()
    for k in range(5):
        pq.write_table(tbl.slice(8 * k, 8), d / f"part-{k}.parquet")
    one = str(tmp_path / "one.parquet")
    pq.write_table(tbl, one)
    ids = tbl.column("doc_id").to_pylist()
    for path, n, pending, bounds in ((str(d), 2, [0, 1], [0, 20, 40]),
                                     (one, 3, [0, 2], [0, 13, 26, 40])):
        plans = checkpoint.plan_shards(path, n)
        got = _tags(checkpoint._pending_dataset([plans[i] for i in pending]))
        want = {doc: i for i in pending for doc in ids[bounds[i]:bounds[i + 1]]}
        assert got == want
