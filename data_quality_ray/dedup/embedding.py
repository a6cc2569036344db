"""Embedding-cosine near-duplicate detection.

Pairs with cosine ≥ threshold, found without a cross join: vectors are
bucketed (by a provided partition column, or by LSH signature via
similarity.LSHIndexStage) and compared all-pairs *within* buckets by one
float64 matmul per group — ``groupby(bucket).map_groups``. The bucket
column is the partitioning assumption: pairs crossing buckets are not
compared (use multi-probe LSH for recall at scale).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.gate import fits


def _empty_pairs() -> pd.DataFrame:
    return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                         "id_b": pd.Series(dtype="int64"),
                         "cos": pd.Series(dtype="float64")})


def neardup_pairs_within(ds, id_col: str, vec_col: str, bucket_col: str,
                         threshold: float = 0.99, output: str = "pandas"):
    """All pairs (id_a < id_b, cos) with cosine ≥ threshold inside each
    bucket. Returns DataFrame(id_a, id_b, cos) — cos rounded to 6 dp so
    float64 results compare stably across engines. Each row lives in
    exactly ONE bucket, so the pair set is already unique;
    ``output="dataset"`` returns it as a Dataset without any driver
    collect (the SemDeDup / blocked-fingerprint routes build on this)."""

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col)
        if len(g) < 2:
            return pd.DataFrame({"id_a": [], "id_b": [], "cos": []})
        mat = np.stack(g[vec_col].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        mat = mat / np.where(norms == 0, 1, norms)
        sims = mat @ mat.T
        ids = g[id_col].to_numpy()
        iu = np.triu_indices(len(ids), k=1)
        # threshold on the 6-dp-rounded value so engine-level double
        # summation order can't flip boundary pairs vs the oracle
        mask = np.round(sims[iu], 6) >= threshold
        return pd.DataFrame({
            "id_a": ids[iu[0][mask]],
            "id_b": ids[iu[1][mask]],
            "cos": np.round(sims[iu][mask], 6),
        })

    pair_ds = ds.groupby(bucket_col).map_groups(pairs, batch_format="pandas")
    if output == "dataset":
        return pair_ds
    out = pair_ds.to_pandas()
    if out.empty:  # Ray drops the schema of an all-empty map_groups result
        return _empty_pairs()
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def neardup_pairs_blocked(ds, id_col: str, vec_col: str, key_col: str,
                          threshold: float = 0.99, n_blocks: int = 4,
                          bits: int = 64, output: str = "pandas"):
    """Cosine near-dup pairs bucketed by the PIGEONHOLE blocks of an
    integer fingerprint column (e.g. phash): one ``neardup_pairs_within``
    pass per ``bits/n_blocks``-bit block, unioned and de-duplicated. Any
    two rows whose fingerprints differ in < n_blocks bit positions share
    at least one block, so recall is complete for fingerprint-close pairs
    — the documented partitioning assumption is that cosine-near rows are
    also fingerprint-near (true for decoded-pixel features keyed by a
    perceptual hash).

    Cross-block de-dup is GATED on the measured pair count: below
    the ``collect_rows`` gate the pair list collects and de-dups on
    the driver; above it (or with ``output="dataset"``) the union rides
    one more (id_a, id_b)-keyed bucketed shuffle
    (``dedup.minhash.dedup_pairs_dataset``) and never lands on the
    driver."""
    width = bits // n_blocks
    mask = (1 << width) - 1

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        # one tagged copy per block → a SINGLE shuffle covers all block
        # passes (and the upstream — e.g. an image-decode stage —
        # executes once, not once per block)
        k = b[key_col].to_numpy().astype(np.uint64)
        frames = []
        for blk in range(n_blocks):
            f = b[[id_col, vec_col]].copy()
            f["__block"] = (
                np.int64(blk) * np.int64(mask + 1)
                + ((k >> np.uint64(width * blk)) & np.uint64(mask))
                .astype(np.int64))
            frames.append(f)
        return pd.concat(frames, ignore_index=True)

    tagged = ds.map_batches(explode, batch_format="pandas")
    pair_ds = neardup_pairs_within(tagged, id_col, vec_col, "__block",
                                   threshold=threshold, output="dataset")
    from .minhash import dedup_pairs_dataset

    if output == "dataset":
        return dedup_pairs_dataset(pair_ds, keep_cols=("id_a", "id_b", "cos"))
    pair_ds = pair_ds.materialize()
    if not fits("embedding.neardup_pairs_blocked", pair_ds.count(),
                "collect_rows"):
        out = dedup_pairs_dataset(pair_ds,
                                  keep_cols=("id_a", "id_b", "cos")).to_pandas()
    else:
        out = pair_ds.to_pandas()
        if out.empty:
            return _empty_pairs()
        out = out.drop_duplicates(["id_a", "id_b"])
    if out.empty:
        return _empty_pairs()
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)
