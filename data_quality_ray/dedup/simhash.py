"""SimHash near-duplicate fingerprints.

64-bit SimHash over word features: each feature's stable 64-bit hash votes
±1 per bit; the sign of the vote sum is the fingerprint bit. Near-dups
differ in ≤ ``hamming_threshold`` bits. Candidate generation uses the
standard block-permutation trick: split the 64 bits into ``n_blocks``
blocks; dups within threshold t share at least one block exactly when
n_blocks > t, so ``groupby(block_id, block_value)`` finds all candidates
without a cross join.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.exchange import bucket_exchange
from ..functions.gate import fits
from ..profiling.sketches import HASH64

_BIT_POS = np.arange(64, dtype=np.uint64)
_BIT_VAL = np.uint64(1) << _BIT_POS


def simhash64_batch(texts, hash_fn: str = "stable") -> np.ndarray:
    """Vectorized per-batch simhash: ONE hash call over the unique tokens
    of the whole batch (tokens repeat heavily), then an ``np.add.at`` vote
    scatter per (row, bit). Returns int64 (uint64 bit patterns viewed
    signed, Arrow-friendly). Rows with no tokens → 0."""
    tok_lists = [(t or "").lower().split() for t in texts]
    counts = np.array([len(t) for t in tok_lists], dtype=np.int64)
    n = len(tok_lists)
    if counts.sum() == 0:
        return np.zeros(n, dtype=np.int64)
    flat = np.array([tok for toks in tok_lists for tok in toks], dtype=object)
    row_ids = np.repeat(np.arange(n), counts)
    uniq, inv = np.unique(flat, return_inverse=True)
    hh = HASH64[hash_fn](uniq)[inv]
    # n_tok × 64 ±1 vote matrix, scattered into per-row accumulators
    bits = ((hh[:, None] >> _BIT_POS) & np.uint64(1)).astype(np.int64)
    votes = np.zeros((n, 64), dtype=np.int64)
    np.add.at(votes, row_ids, 2 * bits - 1)
    sig = np.bitwise_or.reduce(np.where(votes > 0, _BIT_VAL, np.uint64(0)), axis=1)
    return sig.view(np.int64)


def simhash64(text: str, hash_fn: str = "stable") -> int:
    return int(np.uint64(simhash64_batch([text], hash_fn)[0].astype(np.uint64)))


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & ((1 << 64) - 1)).count("1")


_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def hamming64_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distance of 64-bit signatures (int64 or uint64, any
    broadcastable shapes): xor, then a SWAR popcount — three mask-shift-add
    steps and one multiply summing the byte counts into the top byte."""
    x = np.asarray(a).view(np.uint64) ^ np.asarray(b).view(np.uint64)
    x -= (x >> np.uint64(1)) & _M1
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    with np.errstate(over="ignore"):  # the multiply wraps by design
        x = x * _H01
    return (x >> np.uint64(56)).astype(np.int64)


def add_simhash(ds, text_col: str, out_col: str = "simhash", hash_fn: str = "stable"):
    def f(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch[out_col] = simhash64_batch(batch[text_col].to_numpy(dtype=object), hash_fn)
        return batch

    return ds.map_batches(f, batch_format="pandas")


def hamming_candidates(ds, id_col: str, sig_col: str,
                       hamming_threshold: int = 3,
                       n_blocks: int = 4, output: str = "pandas"):
    """Verified Hamming-≤-threshold pairs over an EXISTING 64-bit
    signature column — simhash, image phash, any 64-bit sketch. Block
    permutation (pigeonhole: ``n_blocks > threshold`` ⇒ FULL recall: any
    pair within threshold shares at least one exact block), groups
    hash-bucketed so pairing is one vectorized xor+popcount per bucket,
    never a Python callback per tiny group.

    ``output="dataset"`` keeps the pair set DISTRIBUTED: the same pair can
    surface from several shared blocks whose buckets live in different
    groups, so uniqueness is one more (id_a, id_b)-keyed bucketed shuffle
    (the minhash ``as_dataset`` route) instead of a driver
    ``drop_duplicates``. Use when the verified-pair set itself can exceed
    driver memory (boilerplate-heavy text, image-scale phash). The pandas
    route gates on the MEASURED pair count (the ``collect_rows`` gate):
    above it the uniqueness shuffle runs distributed before the final
    collect."""
    assert n_blocks > hamming_threshold
    width = 64 // n_blocks

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        sh = batch[sig_col].to_numpy().astype(np.int64)
        shu = sh.view(np.uint64)
        shifts = (np.arange(n_blocks, dtype=np.uint64) * np.uint64(width))
        mask = np.uint64((1 << width) - 1)
        vals = ((shu[:, None] >> shifts) & mask).astype(np.int64).ravel()
        return pd.DataFrame({
            id_col: np.repeat(batch[id_col].to_numpy(), n_blocks),
            "block_id": np.tile(np.arange(n_blocks), len(sh)),
            "block_val": vals,
            "simhash": np.repeat(sh, n_blocks),
        })

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(subset=["block_id", "block_val", id_col])
        g = g.sort_values(["block_id", "block_val", id_col], kind="mergesort")
        ids = g[id_col].to_numpy()
        sigs = g["simhash"].to_numpy().astype(np.int64).view(np.uint64)
        sizes = g.groupby(["block_id", "block_val"], sort=False).size().to_numpy()
        offs = np.concatenate([[0], np.cumsum(sizes)])
        ia_all, ib_all = [], []
        for s, e in zip(offs[:-1], offs[1:]):
            if e - s > 1:
                ia, ib = np.triu_indices(e - s, k=1)
                ia_all.append(ia + s); ib_all.append(ib + s)
        if not ia_all:
            return pd.DataFrame({"id_a": pd.Series(dtype=ids.dtype),
                                 "id_b": pd.Series(dtype=ids.dtype),
                                 "hamming": pd.Series(dtype="int64")})
        ia = np.concatenate(ia_all); ib = np.concatenate(ib_all)
        d = hamming64_pairs(sigs[ia], sigs[ib])
        keep = d <= hamming_threshold
        return pd.DataFrame({"id_a": ids[ia[keep]], "id_b": ids[ib[keep]],
                             "hamming": d[keep]})

    # hash-bucket the (block_id, block_val) GROUPS — one callback per
    # bucket of many groups, never per tiny group
    pair_ds = bucket_exchange(ds.map_batches(explode, batch_format="pandas"),
                              ["block_id", "block_val"], pairs_in_bucket)
    from .minhash import dedup_pairs_dataset

    if output == "dataset":
        return dedup_pairs_dataset(pair_ds, keep_cols=("id_a", "id_b", "hamming"))
    # pandas contract: gate the cross-block dedup on the MEASURED pair
    # count — above the gate the uniqueness shuffle runs distributed and
    # only the already-unique pairs land on the driver
    pair_ds = pair_ds.materialize()
    if not fits("simhash.hamming_candidates", pair_ds.count(), "collect_rows"):
        return (dedup_pairs_dataset(pair_ds, keep_cols=("id_a", "id_b", "hamming"))
                .to_pandas().reset_index(drop=True))
    out = pair_ds.to_pandas()
    return out.drop_duplicates(subset=["id_a", "id_b"]).reset_index(drop=True)


def simhash_candidates(ds, id_col: str, text_col: str, hamming_threshold: int = 3,
                       n_blocks: int = 4, hash_fn: str = "stable",
                       output: str = "pandas"):
    """Candidate near-dup pairs (verified Hamming ≤ threshold) over text:
    sign (fused into the same task wave by Ray's operator fusion) then
    the generic block-permutation pairing. ``hash_fn="md5"`` makes the
    whole pipeline SQL-replayable. ``output="dataset"`` keeps the pair
    set distributed (see ``hamming_candidates``)."""
    return hamming_candidates(add_simhash(ds, text_col, "__sig", hash_fn),
                              id_col, "__sig", hamming_threshold, n_blocks,
                              output=output)


def simhash_dedup(ds, id_col: str, text_col: str, hamming_threshold: int = 3,
                  n_blocks: int = 4, hash_fn: str = "stable",
                  output: str = "pandas"):
    """Full SimHash near-dup pass → (id, cluster=min id of the connected
    component) for docs in near-dup clusters. The Hamming check inside
    ``simhash_candidates`` IS the verification (unlike MinHash no second
    exact pass is needed); components go through driver union-find under
    the shared gate and distributed min-label propagation above it.

    ``output="dataset"`` runs fully distributed end-to-end: pairs stay a
    Dataset (bucketed cross-block dedup) and components run via
    ``distributed_components(as_dataset=True)`` — the driver holds only
    per-round change counts. Returns a Dataset of (id_col, cluster)."""
    from .minhash import components, distributed_components

    if output == "dataset":
        pairs_ds = simhash_candidates(ds, id_col, text_col, hamming_threshold,
                                      n_blocks, hash_fn, output="dataset")
        # id_name (not a rename map_batches after): Ray drops the schema
        # of empty blocks, so a zero-pair corpus would lose its columns
        # through any further map over the (empty) result
        return distributed_components(
            pairs_ds.map_batches(lambda b: b[["id_a", "id_b"]],
                                 batch_format="pandas"),
            as_dataset=True, id_name=id_col)

    pairs = simhash_candidates(ds, id_col, text_col, hamming_threshold,
                               n_blocks, hash_fn)
    if pairs.empty:
        return pd.DataFrame({id_col: [], "cluster": []})
    return components(pairs[["id_a", "id_b"]], "simhash.simhash_dedup") \
        .rename(columns={"id": id_col})
