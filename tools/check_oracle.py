"""Dev harness mimicking the driver's correctness gate: run each
``queries()`` entry and its ``oracle_sql()`` side by side, compare
row-count, column names and order-insensitive values.

Usage: python tools/check_oracle.py [--force-path collect|shuffle] [--num-cpus N]
       [sf_dir] [query ...]

``--force-path`` sends every size gate (``functions/gate.fits``) down one
path by patching ``gate.LIMITS`` in-process, as the tests' ``force_path``
fixture does, so each dual-path query is checked on that path; a query
whose gates did not all take it fails.

``--num-cpus`` (default 8) is the CPU count of the Ray session the sweep
starts. Read plans follow it (``sources/io.read_blocks``): with
``--num-cpus 1`` every read is fused with its first map, as in a 1-CPU
benchmark run, while at 8 CPUs a one-row-group table is read by one task
whose output Ray splits into 16 blocks.
"""

from __future__ import annotations

import argparse
import atexit
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype(str)
        elif df[c].dtype == bool:
            df[c] = df[c].astype(int)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(6)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("sf_dir", nargs="?", default="/root/testdata/sf0.001")
    ap.add_argument("queries", nargs="*")
    ap.add_argument("--force-path", choices=("collect", "shuffle"))
    ap.add_argument("--num-cpus", type=int, default=8)
    args = ap.parse_args()
    sf_dir, only = args.sf_dir, set(args.queries)
    import ray

    from data_quality_ray.functions import gate

    if args.force_path:
        limit = {"collect": sys.maxsize, "shuffle": -1}[args.force_path]
        gate.LIMITS = dict.fromkeys(gate.LIMITS, limit)

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus, include_dashboard=False, logging_level="ERROR")

    import __ray_entry__ as E

    # DuckDB spills to ``.tmp/`` in the working directory by default —
    # keep it in a private temp dir that is removed at exit
    spill = tempfile.mkdtemp(prefix="check_oracle_duckdb_")
    atexit.register(shutil.rmtree, spill, ignore_errors=True)
    con = duckdb.connect(config={"temp_directory": spill})
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs, sqls = E.queries(), E.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        gate.RECORD.clear()
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        off_path = [d for d in gate.RECORD if d[3] != args.force_path] if args.force_path else []
        if off_path:
            print(f"FAIL  {name}: gates off the forced {args.force_path!r} path: {off_path}")
            failures += 1
            continue
        if name not in sqls:
            print(f"rows  {name}: {len(mine)} rows (no oracle)")
            continue
        try:
            oracle = con.execute(sqls[name]).df()
        except Exception as e:
            print(f"FAIL  {name}: oracle SQL raised {e}")
            failures += 1
            continue
        a, b = canon(mine), canon(oracle)
        if list(a.columns) != list(b.columns):
            print(f"FAIL  {name}: columns {list(a.columns)} vs {list(b.columns)}")
            failures += 1
            continue
        if len(a) != len(b):
            print(f"FAIL  {name}: rows {len(a)} vs {len(b)}")
            failures += 1
            continue
        if not a.equals(b):
            neq = (a != b).any(axis=1)
            print(f"FAIL  {name}: {neq.sum()} mismatched rows; first:")
            print(pd.concat([a[neq].head(3).add_suffix("_mine"), b[neq].head(3).add_suffix("_sql")], axis=1))
            failures += 1
            continue
        print(f"OK    {name}: {len(a)} rows")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
