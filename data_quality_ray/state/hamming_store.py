"""Persisted, partition-pruned Hamming retrieval store for 64-bit
signatures — the image-side twin of ``similarity/knn.build_ivf_store``:
where the in-memory ``state/hamming_index.HammingIndex`` broadcasts the
whole historical signature array, this store partitions the exploded
block views on DISK so a query reads only the partitions its own block
values hash into (pruning at the I/O level, measured from parquet
footers).

Layout: each signature explodes into ``n_blocks`` rows (block_id,
block_val, id, sig); partition dir = ``hb = block_id * n_buckets +
block_val % n_buckets`` (hive), with ``block_id``/``block_val``
duplicated IN-FILE (Ray's ``read_parquet(filter=…)`` cannot reference
hive partition columns — CLAUDE.md rule). Rows are sorted by ``hb``
before the partitioned write (unsorted, every block fans a file into
every partition dir — measured 8.5k files vs 62 in BASELINE.md).

Exactness: with ``n_blocks > radius`` the pigeonhole principle makes
block-equality candidate lookup + popcount verification find EVERY
match within the radius — same contract as ``HammingIndex.screen``.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pandas as pd

from ..dedup.simhash import hamming64_pairs
from .hamming_index import _block_views

_PARAMS = "_params.json"


def build_hamming_store(ds, store_dir: str, id_col: str, sig_col: str,
                        n_blocks: int = 4, n_buckets: int = 64) -> None:
    def explode(b: pd.DataFrame) -> pd.DataFrame:
        sigs = b[sig_col].to_numpy().astype(np.int64)
        views = _block_views(sigs, n_blocks).astype(np.int64)
        n = len(b)
        out = pd.DataFrame({
            id_col: np.repeat(b[id_col].to_numpy(), n_blocks),
            sig_col: np.repeat(sigs, n_blocks),
            "block_id": np.tile(np.arange(n_blocks, dtype=np.int64), n),
            "block_val": views.ravel(),
        })
        out["hb"] = out["block_id"] * n_buckets + out["block_val"] % n_buckets
        return out

    (ds.select_columns([id_col, sig_col])
     .map_batches(explode, batch_format="pandas")
     .sort("hb")
     .write_parquet(store_dir, partition_cols=["hb"]))
    tmp = os.path.join(store_dir, "._params.tmp")
    with open(tmp, "w") as f:
        json.dump({"n_blocks": n_blocks, "n_buckets": n_buckets,
                   "id_col": id_col, "sig_col": sig_col}, f)
    os.replace(tmp, os.path.join(store_dir, _PARAMS))


def _probe_dirs(store_dir: str, query_sigs: np.ndarray, params: dict):
    nb, nk = params["n_blocks"], params["n_buckets"]
    views = _block_views(query_sigs.astype(np.int64), nb).astype(np.int64)
    want = {int(b * nk + views[q, b] % nk)
            for q in range(len(query_sigs)) for b in range(nb)}
    all_dirs = sorted(glob.glob(os.path.join(store_dir, "hb=*")))
    probe = [d for d in all_dirs
             if int(os.path.basename(d).split("=", 1)[1]) in want]
    return probe, all_dirs


def hamming_store_scan_stats(store_dir: str,
                             query_sigs: np.ndarray) -> dict:
    """Measured I/O pruning from parquet FOOTERS alone (no row read)."""
    import pyarrow.parquet as pq

    with open(os.path.join(store_dir, _PARAMS)) as f:
        params = json.load(f)
    probe, all_dirs = _probe_dirs(store_dir, np.asarray(query_sigs), params)

    def rows(dirs):
        return sum(pq.ParquetFile(p).metadata.num_rows
                   for d in dirs for p in glob.glob(os.path.join(d, "*.parquet")))

    return {"rows_scanned": rows(probe), "rows_total": rows(all_dirs),
            "dirs_probed": len(probe), "dirs_total": len(all_dirs)}


def hamming_store_matches(store_dir: str, query_ids: np.ndarray,
                          query_sigs: np.ndarray,
                          radius: int = 2) -> pd.DataFrame:
    """All store rows within Hamming ``radius`` of any query signature
    (exact by pigeonhole — requires ``radius < n_blocks``). Reads ONLY
    the probed partition directories in one Dataset job, joins each
    batch against the broadcast query block table, verifies by
    popcount. The match set is radius-bounded tiny, so the cross-block
    uniqueness pass collects (the Dataset route for it is
    ``dedup.minhash.dedup_pairs_dataset``, same keep-cols contract).
    → (query_id, id, hamming) sorted."""
    import ray

    from ..functions.broadcast import cached_get
    from ..sources.io import read_parquet_sized

    with open(os.path.join(store_dir, _PARAMS)) as f:
        params = json.load(f)
    if radius >= params["n_blocks"]:
        raise ValueError("exactness needs radius < n_blocks")
    id_col, sig_col = params["id_col"], params["sig_col"]

    qsigs = np.asarray(query_sigs).astype(np.int64)
    qids = np.asarray(query_ids)
    views = _block_views(qsigs, params["n_blocks"]).astype(np.int64)
    qtab = pd.DataFrame({
        "block_id": np.tile(np.arange(params["n_blocks"], dtype=np.int64),
                            len(qsigs)),
        "block_val": views.ravel(),
        "query_id": np.repeat(qids, params["n_blocks"]),
        "qsig": np.repeat(qsigs, params["n_blocks"]),
    })
    ref = ray.put(qtab)

    probe, _ = _probe_dirs(store_dir, qsigs, params)
    files = [p for d in probe for p in sorted(glob.glob(os.path.join(d, "*.parquet")))]
    if not files:
        return pd.DataFrame({"query_id": [], id_col: [], "hamming": []})

    def match(b: pd.DataFrame) -> pd.DataFrame:
        qt = cached_get(ref)
        m = b.merge(qt, on=["block_id", "block_val"])
        if m.empty:
            return pd.DataFrame({"query_id": pd.Series(dtype=qids.dtype),
                                 id_col: pd.Series(dtype=b[id_col].dtype),
                                 "hamming": pd.Series(dtype="int64")})
        d = hamming64_pairs(m[sig_col].to_numpy().astype(np.int64),
                            m["qsig"].to_numpy().astype(np.int64))
        keep = d <= radius
        return pd.DataFrame({"query_id": m["query_id"].to_numpy()[keep],
                             id_col: m[id_col].to_numpy()[keep],
                             "hamming": d[keep]})

    out = (read_parquet_sized(files, columns=[id_col, sig_col, "block_id", "block_val"])
           .map_batches(match, batch_format="pandas")
           .to_pandas())
    return (out.drop_duplicates(["query_id", id_col])
            .sort_values(["query_id", id_col]).reset_index(drop=True))
