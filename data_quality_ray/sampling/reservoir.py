"""Distributed deterministic reservoir sampling.

Reference: the weighted-key binary-heap reservoir
(dataquality-sampling sampling/parallel/ReservoirSamplerWithBinaryHeap.java:27-69)
— keep the k rows with the largest random keys; partials merge by keeping
the global top-k, giving an EXACT uniform k-of-N sample that is
partition-count independent.

Here the "random" key is a deterministic digest ``md5(f"{seed}-{row_key}")``
so (a) the sample is identical across runs and partitionings, and (b)
DuckDB can act as the oracle (``ORDER BY md5(...) LIMIT k``). Keeping the k
*smallest* digests == keeping largest random keys, just mirrored.

Multi-column row keys join with the ASCII unit separator ``\\x1f`` (never
"-": ('a-b','c') and ('a','b-c') would build the same key and get
identical digests — correlated selection). The oracle SQL replays the
same ``chr(31)`` joint.

The per-row digest runs through DuckDB's vectorized ``md5`` inside each
batch (one in-process connection per worker, ``threads=1`` so Ray's CPU
accounting stays honest) — bit-identical hex to hashlib, measured ~3×
faster than the Python ``hashlib`` row loop at 200k rows. A cheaper
prefilter hash is NOT possible: top-k under md5 order can only be decided
by md5 itself.
"""

from __future__ import annotations

from functools import lru_cache

import pandas as pd

from ..functions.exchange import bucket_exchange

KEY_SEP = "\x1f"  # oracle SQL replays chr(31)


@lru_cache(maxsize=1)
def _duck():
    import duckdb

    con = duckdb.connect()
    con.execute("PRAGMA threads=1")
    return con


def _md5_hex(strings: pd.Series) -> "pd.Series":
    """Vectorized md5 hex over a string Series via DuckDB (hex order ==
    digest-byte order, so sorting on it is sorting on the digest)."""
    con = _duck()
    frame = pd.DataFrame({"s": strings.to_numpy(dtype=object)})
    con.register("__dq_md5_in", frame)
    try:
        return con.execute("SELECT md5(s) AS h FROM __dq_md5_in").fetchnumpy()["h"]
    finally:
        con.unregister("__dq_md5_in")


def _row_key(b: pd.DataFrame, key_cols: list[str]) -> pd.Series:
    key = b[key_cols[0]].astype(str)
    for c in key_cols[1:]:
        key = key + KEY_SEP + b[c].astype(str)
    return key


def reservoir_sample(ds, key_cols: list[str], k: int, seed: int = 42) -> pd.DataFrame:
    """Exact deterministic k-of-N sample. Per-batch partial top-k (heap) →
    tiny partials → final top-k on the driver. One pass, no shuffle."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.copy()
        b["__rk"] = _md5_hex(f"{seed}-" + _row_key(b, key_cols))
        return b.sort_values("__rk", kind="mergesort").head(k)

    partials = ds.map_batches(partial, batch_format="pandas")
    # final merge: ≤ k rows per block arrive; keep the global k smallest
    frames = []
    for batch in partials.iter_batches(batch_size=4 * k, batch_format="pandas"):
        frames.append(batch)
    allp = pd.concat(frames) if frames else pd.DataFrame(columns=key_cols + ["__rk"])
    out = allp.sort_values("__rk", kind="mergesort").head(k).drop(columns="__rk")
    return out.reset_index(drop=True)


def grouped_reservoir_sample(ds, key_cols: list[str], group_col: str, k: int,
                             seed: int = 42, output: str = "pandas",
                             n_buckets: int = 64):
    """Exact deterministic k-per-group sample (uniform within each group,
    same md5 order contract as ``reservoir_sample`` so DuckDB replays it
    with ``row_number() OVER (PARTITION BY group ORDER BY md5(...))``).

    Per-batch partial: sort by digest, ``groupby.head(k)`` (vectorized) —
    at most k rows per (group, batch) survive. ``output="pandas"`` merges
    partials on the driver (right when #groups×k is driver-sized);
    ``output="dataset"`` hash-buckets the partials by group — ONE
    exchange over the pre-pruned rows — and finishes each bucket
    locally, for unbounded group spaces."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.copy()
        b["__rk"] = _md5_hex(f"{seed}-" + _row_key(b, key_cols))
        b = b.sort_values("__rk", kind="mergesort")
        return b.groupby(group_col, sort=False).head(k)

    partials = ds.map_batches(partial, batch_format="pandas")

    if output == "pandas":
        frames = list(partials.iter_batches(batch_size=None,
                                            batch_format="pandas"))
        if not frames:
            return pd.DataFrame(columns=list(ds.schema().names))
        allp = pd.concat(frames, ignore_index=True)
        out = (allp.sort_values("__rk", kind="mergesort")
               .groupby(group_col, sort=False).head(k)
               .drop(columns="__rk"))
        return out.reset_index(drop=True)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values("__rk", kind="mergesort")
                .groupby(group_col, sort=False).head(k)
                .drop(columns="__rk"))

    return bucket_exchange(partials, group_col, finish, n_buckets)


def grouped_weighted_sample(ds, key_cols: list[str], group_col: str,
                            weight_col: str, k: int, seed: int = 42,
                            output: str = "pandas", n_buckets: int = 64):
    """Exact k-per-group weighted sample without replacement
    (Efraimidis–Spirakis A-ES within each group — the per-source
    subsampling step of a data-mixing pipeline: inclusion ∝ weight
    inside the group, deterministic under any partitioning). Same
    md5-low-64 score as `weighted_reservoir_sample`, so DuckDB replays
    the selection with ``row_number() OVER (PARTITION BY group ORDER BY
    score DESC, key)``. Rows with weight <= 0 are excluded (both
    sides).

    Per-batch partial prunes to k per (group, batch) pre-motion;
    ``output="pandas"`` merges partials on the driver (#groups × k
    rows), ``output="dataset"`` hash-buckets them by group — ONE
    exchange over the pre-pruned rows — for unbounded group spaces.
    """
    import numpy as np

    from ..profiling.sketches import md5_hash64

    order = ["__score", *key_cols]
    asc = [False] + [True] * len(key_cols)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch[weight_col] > 0].copy()
        if not len(b):
            return b.assign(__score=np.array([], dtype=np.float64))
        key = (f"{seed}-" + _row_key(b, key_cols)).to_numpy(dtype=object)
        u = (md5_hash64(key).astype(np.float64) + 0.5) / 18446744073709551616.0
        b["__score"] = np.log(u) / b[weight_col].to_numpy(dtype=np.float64)
        b = b.sort_values(order, ascending=asc, kind="mergesort")
        return b.groupby(group_col, sort=False).head(k)

    partials = ds.map_batches(partial, batch_format="pandas")

    if output == "pandas":
        frames = list(partials.iter_batches(batch_size=None,
                                            batch_format="pandas"))
        if not frames:
            return pd.DataFrame(columns=list(ds.schema().names))
        allp = pd.concat(frames, ignore_index=True)
        out = (allp.sort_values(order, ascending=asc, kind="mergesort")
               .groupby(group_col, sort=False).head(k)
               .drop(columns="__score"))
        return out.reset_index(drop=True)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order, ascending=asc, kind="mergesort")
        return g.groupby(group_col, sort=False).head(k).drop(columns="__score")

    return bucket_exchange(partials, group_col, finish, n_buckets)


def weighted_reservoir_sample(ds, key_cols: list[str], weight_col: str,
                              k: int, seed: int = 42) -> pd.DataFrame:
    """Weighted k-of-N sample without replacement (Efraimidis–Spirakis
    A-ES): score = ln(u)/w with u uniform in (0,1), keep the k LARGEST
    scores — inclusion probability ∝ weight, partials merge by global
    top-k exactly like the uniform reservoir. u is deterministic:
    (md5_number_lower("{seed}-{key}") + 0.5) / 2^64 — the same md5-low-64
    primitive every other oracled sampler here uses, so DuckDB replays
    the scores bit-for-bit. Rows with weight <= 0 are excluded (both
    sides)."""
    import numpy as np

    from ..profiling.sketches import md5_hash64

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch[weight_col] > 0].copy()
        if not len(b):
            return b.assign(__score=np.array([], dtype=np.float64))
        key = (f"{seed}-" + _row_key(b, key_cols)).to_numpy(dtype=object)
        h = md5_hash64(key)
        u = (h.astype(np.float64) + 0.5) / 18446744073709551616.0
        b["__score"] = np.log(u) / b[weight_col].to_numpy(dtype=np.float64)
        return b.sort_values(["__score", *key_cols],
                             ascending=[False] + [True] * len(key_cols),
                             kind="mergesort").head(k)

    partials = ds.map_batches(partial, batch_format="pandas")
    frames = list(partials.iter_batches(batch_size=4 * k,
                                        batch_format="pandas"))
    if not frames:
        # same column set as the non-empty path (all dataset columns)
        return pd.DataFrame(columns=list(ds.schema().names))
    allp = pd.concat(frames, ignore_index=True)
    out = allp.sort_values(["__score", *key_cols],
                           ascending=[False] + [True] * len(key_cols),
                           kind="mergesort").head(k).drop(columns="__score")
    return out.reset_index(drop=True)
