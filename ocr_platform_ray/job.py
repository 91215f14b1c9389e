"""Job driver: ``ray job submit -- python -m ocr_platform_ray.job ...``.

Runs the checkpointed extraction job over an interleaved-document table
(Lance/Parquet), resumable per partition, printing a one-line JSON summary.
On a real cluster this is submitted with ``ray job submit --address ...``;
in the sandbox it runs against a local session. Ray is only initialised
when this module is executed as a script (the library never calls
ray.init — driver contract).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Ray Data OCR-extraction job")
    p.add_argument("--input", required=True, help="input table (parquet file or dir)")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--shards", type=int, default=8)
    p.add_argument("--no-resume", action="store_true")
    p.add_argument("--overrides", help="optional detect-override table (parquet)")
    p.add_argument("--result-overrides",
                   help="optional result-override table (parquet, "
                        "RESULT_OVERRIDES_SCHEMA): per-doc replacement span "
                        "sequences applied at merge (PATCH result analogue)")
    p.add_argument("--two-phase", action="store_true",
                   help="persist the detect checkpoint (human-editable) and recognize from it")
    p.add_argument("--rerun-docs", default=None,
                   help="comma-separated doc_ids to force-reprocess "
                        "(reference requeue/rerun): committed shards "
                        "owning any listed doc are invalidated and rerun")
    p.add_argument("--tenant", default=None,
                   help="scope the job to one tenant_id (reference "
                        "tenant-filtered jobs); part of the resume "
                        "fingerprint")
    p.add_argument("--dedup", choices=["none", "exact"], default="none",
                   help="whole-document exact-dedup pre-pass before "
                        "extraction (survivors committed under out/dedup)")
    p.add_argument("--max-side", type=int, default=1200)
    p.add_argument("--num-cpus", type=int, default=None,
                   help="ray.init(num_cpus=...) when starting a fresh local session")
    p.add_argument("--target-block-size-mb", type=int, default=None,
                   help="DataContext.target_max_block_size for wide binary rows")
    args = p.parse_args(argv)

    from .checkpoint import plan_shards

    try:
        plan_shards(args.input, args.shards)  # reject a bad --shards before a session starts
    except ValueError as e:
        p.error(str(e))

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus or int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    from .raylog import suppress_empty_sort_schema_warning

    suppress_empty_sort_schema_warning()
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    if args.target_block_size_mb:
        ctx.target_max_block_size = args.target_block_size_mb * 1024 * 1024

    from .checkpoint import run_job
    from .kernels.extract import ExtractConfig

    overrides = None
    result_overrides = None
    if args.overrides or args.result_overrides:
        import pyarrow.parquet as pq

        if args.overrides:
            overrides = pq.read_table(args.overrides).to_pylist()
        if args.result_overrides:
            result_overrides = pq.read_table(args.result_overrides).to_pylist()

    summary = run_job(
        args.input,
        args.output,
        n_shards=args.shards,
        cfg=ExtractConfig(max_side=args.max_side),
        overrides=overrides,
        resume=not args.no_resume,
        two_phase=args.two_phase,
        result_overrides=result_overrides,
        dedup=args.dedup,
        tenant=args.tenant,
        invalidate_doc_ids=(
            args.rerun_docs.split(",") if args.rerun_docs else None
        ),
    )
    print(json.dumps(summary))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
