"""CLI: run the north quality-filter pipeline (with resume).

    python -m data_quality_ray run INPUT_DIR OUT_DIR [--cpus N]
        [--batch-size B] [--no-dedup] [--no-validate]
    python -m data_quality_ray gen OUT_DIR N_ROWS [--seed S]

Owns a Ray session (scripts own sessions; library code never calls
ray.init — see __ray_entry__ contract).
"""

from __future__ import annotations

import argparse
import json
import sys


def _profile_table(args) -> dict:
    """One-stop table profile: numeric summary / type inference /
    text-length per column (single composite pass), plus uniqueness +
    entropy + IQR-fence table rules from profiling/datarules."""
    import pyarrow as pa

    from .profiling.analyzers import profile
    from .profiling.datarules import (grouped_entropy, iqr_outlier_fences,
                                      uniqueness_profile)
    from .sources.io import read_parquet_sized

    ds = read_parquet_sized(args.input_path)
    schema = ds.schema()
    cols = (args.cols.split(",") if args.cols else list(schema.names))
    types = dict(zip(schema.names, schema.types))

    numeric = [c for c in cols if pa.types.is_integer(types[c])
               or pa.types.is_floating(types[c])]
    strings = [c for c in cols if pa.types.is_string(types[c])
               or pa.types.is_large_string(types[c])]

    spec: dict[str, list] = {}
    for c in numeric:
        spec[c] = ["summary"]
    for c in strings:
        spec[c] = ["text_length", "type"]
    stats = profile(ds, spec) if spec else {}

    out: dict = {"path": args.input_path, "columns": {c: str(types[c]) for c in cols},
                 "stats": stats}
    if not args.no_distinct:
        # whitelist hashable scalar types: struct/map/list values are
        # unhashable in the distinct partial, and (large_)binary payloads
        # should never ship through a distinct exchange
        def _scalar(t):
            return (pa.types.is_integer(t) or pa.types.is_floating(t)
                    or pa.types.is_string(t) or pa.types.is_large_string(t)
                    or pa.types.is_boolean(t) or pa.types.is_date(t)
                    or pa.types.is_timestamp(t) or pa.types.is_decimal(t))

        uniq_cols = [c for c in cols if _scalar(types[c])]
        out["uniqueness_skipped"] = [c for c in cols if c not in uniq_cols]
        uniq = uniqueness_profile(ds, uniq_cols)
        out["uniqueness"] = uniq.to_dict("records")
        # entropy only where the distinct count says "categorical"
        low_card = [r["column"] for r in out["uniqueness"]
                    if r["column"] in strings and r["n_distinct"] <= 1000]
        out["entropy"] = {c: round(grouped_entropy(ds, c), 6) for c in low_card}
    # IQR fences collect one full column each — cap at the first 8
    # numerics and SAY SO in the output instead of silently dropping
    out["iqr_outliers"] = {c: iqr_outlier_fences(ds, c) for c in numeric[:8]}
    out["iqr_outliers_skipped"] = numeric[8:]
    return out


def main(argv=None) -> int:
    from .pipelines.north import BATCH_SIZE, run_quality_pipeline

    p = argparse.ArgumentParser(prog="data_quality_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    runp = sub.add_parser("run", help="run/resume the quality-filter pipeline")
    runp.add_argument("input_dir")
    runp.add_argument("out_dir")
    runp.add_argument("--cpus", type=int, default=32)
    runp.add_argument("--batch-size", type=int, default=BATCH_SIZE,
                      help="most rows one rule-chain/decode call sees")
    runp.add_argument("--wave-files", type=int, default=64)
    runp.add_argument("--no-dedup", action="store_true")
    runp.add_argument("--no-validate", action="store_true")
    runp.add_argument("--dedup-index", default=None,
                      help="cross-run dedup index dir (drop keys committed by previous runs)")
    runp.add_argument("--validate-inputs", action="store_true",
                      help="skip+record files whose parquet footer does not read, "
                           "instead of failing")
    runp.add_argument("--address", default="local",
                      help="Ray address ('local', or 'auto' inside a cluster / ray job submit)")

    prof = sub.add_parser(
        "profile", help="profile a parquet table: per-column stats + "
                        "table-level DQ rules (uniqueness, entropy, outliers)")
    prof.add_argument("input_path", help="parquet file or directory")
    prof.add_argument("--cols", default=None,
                      help="comma-separated column subset (default: all)")
    prof.add_argument("--cpus", type=int, default=32)
    prof.add_argument("--no-distinct", action="store_true",
                      help="skip the exact-distinct shuffles (fast mode)")

    genp = sub.add_parser("gen", help="generate a synthetic image+caption table")
    genp.add_argument("out_dir")
    genp.add_argument("n_rows", type=int)
    genp.add_argument("--seed", type=int, default=42)
    genp.add_argument("--cpus", type=int, default=32)
    genp.add_argument("--labels", action="store_true")

    args = p.parse_args(argv)

    import ray

    started = not ray.is_initialized()
    if started:
        addr = getattr(args, "address", "local")
        if addr == "local":
            ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
                     logging_level="ERROR")
        else:  # cluster mode (ray job submit / existing cluster): resources come from the cluster
            ray.init(address=addr, logging_level="ERROR")
    try:
        if args.cmd == "gen":
            from .sources.fixtures import write_f1

            write_f1(args.out_dir, n_rows=args.n_rows, seed=args.seed,
                     with_labels=args.labels)
            print(json.dumps({"written": args.out_dir, "rows": args.n_rows}))
        elif args.cmd == "profile":
            print(json.dumps(_profile_table(args), default=str, indent=1))
        else:
            stats = run_quality_pipeline(
                args.input_dir, args.out_dir,
                batch_size=args.batch_size, wave_files=args.wave_files,
                dedup=not args.no_dedup, validate_images=not args.no_validate,
                dedup_index_dir=args.dedup_index,
                validate_inputs=args.validate_inputs,
            )
            print(json.dumps(stats))
    finally:
        if started:  # a session the caller started is the caller's to end
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
