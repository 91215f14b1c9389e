"""Shuffle widths are not the caller's to set, and one probe sizes the
cluster.

Bucket count never changes an operator's results, so the operator
library takes none: a coarse width is ``default_n_buckets()`` or a
literal at the call site. The three ``n_buckets`` parameters left are
not shuffle widths. Every sizing rule reads the CPU count through one
probe, ``functions.cluster_cpus``."""

import ast
import pathlib

import pytest

import ocr_platform_ray
from ocr_platform_ray import functions
from ocr_platform_ray.functions import dedup

PACKAGE = pathlib.Path(ocr_platform_ray.__file__).parent

# DSIR's hashed feature count (changes scores), the packing bucket (part
# of seq_id), and the bucketed-groupby primitive its callers size.
NOT_WIDTHS = {"dsir_scores", "pack_sequences", "bucketed_group_apply"}


def test_no_operator_takes_a_bucket_count():
    found = []
    for path in sorted((PACKAGE / "functions").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
                if "n_buckets" in params and node.name not in NOT_WIDTHS:
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []


def test_one_probe_reads_the_cluster():
    calls = [
        f"{path.relative_to(PACKAGE)}:{i}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "cluster_resources(" in line
    ]
    assert len(calls) == 1, calls


def test_sizing_rules_in_the_session():
    """The session fixture's 4 CPUs, read once by the probe."""
    import ray

    cpus = int(ray.cluster_resources()["CPU"])
    assert functions.cluster_cpus() == cpus == 4
    assert functions.default_n_buckets() == max(64, 4 * cpus)
    assert dedup.shuffle_blocks() == max(8, cpus // 2)


@pytest.mark.parametrize("cpus", [1, 4, 17, 64, 8192])
def test_sizing_rules_follow_the_probe(monkeypatch, cpus):
    monkeypatch.setattr(functions, "cluster_cpus", lambda: cpus)
    monkeypatch.setattr(dedup, "cluster_cpus", lambda: cpus)
    assert functions.default_n_buckets() == max(64, 4 * cpus)
    assert dedup.shuffle_blocks() == max(8, cpus // 2)


def test_probe_outside_a_session_reads_8(monkeypatch):
    import ray

    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    assert functions.cluster_cpus() == 8
    assert functions.default_n_buckets() == 64
    assert dedup.shuffle_blocks() == 8
