"""Targeted Ray Data log hygiene for the session-owning entry points.

Ray's streaming executor warns "Operator produced a RefBundle with a
different schema than the previous one" whenever an operator's output
mixes schema'd bundles with EMPTY ones. For a sort-based shuffle
(``groupby(key).map_groups(...)`` or ``functions.apply_per_partition``)
whose distinct key count is below the partition count — every few-key
reduction in this repo (8 k-means clusters over 32 blocks, etc.) — the
sort legitimately produces empty range partitions, and map fns are never
invoked on empty blocks, so the empty bundles can't be given a schema
from user code at all. The warning is a false positive for that shape
(the data bundles all agree; only the empty ones "diverge" to
no-schema), so the entry points that own a Ray session (bench.py, the
job CLI, tests) install this filter.

The filter is NARROW: it drops the message only when the diverging side
is an empty/None schema (Ray's `_unify_ref_bundle_schema` emits
"... new schema: None." for a schema-less empty bundle, or "new schema:
." for a zero-field one). A genuine divergence between two NON-empty
schemas — a real operator bug signal — still surfaces at WARNING.
"""

from __future__ import annotations

import logging
import re

_MSG = "different schema than the previous one"
# empty-bundle shapes only: "new schema: None." / "new schema: ." /
# "new schema: PandasBlockSchema(names=[], types=[])." (an empty pandas
# block from a sort range partition with no rows)
_EMPTY_NEW = re.compile(
    r"new schema: (None|PandasBlockSchema\(names=\[\], types=\[\]\))?\."
)
_LOGGER = "ray.data._internal.execution.streaming_executor_state"

# transform_pyarrow.unify_schemas tries `set(schemas)` as an early exit
# and logs this when a schema is unhashable. The driver-generated test
# parquet carries pandas metadata (a dict) in its schema, and
# hash(pa.Schema) raises TypeError on dict metadata — so every unify
# over read-derived bundles logs one warning and falls back to the full
# (correct, microsecond) unify path. Cosmetic by construction: ONLY the
# exact unhashable-dict form is dropped; any other hash failure (a
# genuinely exotic schema object) still surfaces.
_UNHASHABLE_MSG = (
    "Failed to hash the schemas (for deduplication): unhashable type: 'dict'"
)
_UNIFY_LOGGER = "ray.data._internal.arrow_ops.transform_pyarrow"


class _DropMixedSchemaWarning(logging.Filter):
    def filter(self, record: logging.LogRecord) -> bool:  # pragma: no cover
        msg = record.getMessage()
        if _MSG not in msg:
            return True
        return _EMPTY_NEW.search(msg) is None


class _DropUnhashablePandasMetaWarning(logging.Filter):
    def filter(self, record: logging.LogRecord) -> bool:  # pragma: no cover
        return record.getMessage() != _UNHASHABLE_MSG


def suppress_empty_sort_schema_warning() -> None:
    """Idempotently install the filters on the Ray Data loggers."""
    lg = logging.getLogger(_LOGGER)
    if not any(isinstance(f, _DropMixedSchemaWarning) for f in lg.filters):
        lg.addFilter(_DropMixedSchemaWarning())
    ug = logging.getLogger(_UNIFY_LOGGER)
    if not any(
        isinstance(f, _DropUnhashablePandasMetaWarning) for f in ug.filters
    ):
        ug.addFilter(_DropUnhashablePandasMetaWarning())
