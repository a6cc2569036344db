"""Cross-run near-dup index for 64-bit signatures (image phash, simhash)
— the image-side twin of ``minhash_index``: each crawl's signatures are
committed into the same crash-safe generation store (key = the raw
int64 signature), and a later crawl is screened for Hamming-≤-radius
matches against ALL committed history in one streaming pass.

Exactness: with ``n_blocks > radius`` the pigeonhole principle
guarantees any pair within the radius agrees exactly on at least one
block, so block-equality candidate lookup + popcount verification finds
EVERY historical match — the screen is exact, not probabilistic (unlike
the MinHash index's S-curve). Default (radius 2, 4 × 16-bit blocks)
matches the in-run ``phash_neardup_images`` operating point.

Mechanism per batch (vectorized, no Python per row): for each of the
``n_blocks`` block views, ``searchsorted`` the new signatures' block
values into the broadcast block-sorted historical array → candidate
ranges → expand (``repeat``/``arange``) → popcount on the xor →
per-doc min (``reduceat``). One kernel (``_min_hamming``) serves
``screen`` (pandas tags) and ``table_filter`` (a ``pa.Table → pa.Table``
filter, mapped by ``filter_new`` and applied in the flagship's tasks).

Scale budget: the broadcast bundle holds the historical signature array
once per block view (n_blocks + 0 copies of 8 B each) → 4 × 8 B × 1e9
images = 32 GB at a billion images, the same order as the exact index's
documented ceiling; past it, range-bucket the incoming block values and
the per-block sorted shards and join per bucket (the generation shards
are already sorted).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..dedup.simhash import hamming64_pairs
from .dedup_index import append, compact, load_keys  # noqa: F401  (compact re-exported)

_PARAMS_FILE = "_params.json"


def _block_views(sigs: np.ndarray, n_blocks: int) -> np.ndarray:
    """(n, n_blocks) matrix of block values: contiguous bit slices of the
    64-bit signature (uint64 arithmetic; int64 inputs are reinterpreted)."""
    u = sigs.astype(np.int64).view(np.uint64)
    width = 64 // n_blocks
    mask = np.uint64((1 << width) - 1) if width < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.stack([(u >> np.uint64(j * width)) & mask
                     for j in range(n_blocks)], axis=1)


def _min_hamming(bundle, sigs: np.ndarray) -> np.ndarray:
    """Per signature, the smallest Hamming distance to a historical one
    sharing a block (int64 max when none does; exact within the radius
    by pigeonhole). ``bundle``: what ``HammingIndex._bundle()`` puts."""
    best = np.full(len(sigs), np.iinfo(np.int64).max, dtype=np.int64)
    if not len(sigs) or not len(bundle[0][0]):
        return best
    views = _block_views(sigs, len(bundle))
    for j, (sbv, hsig) in enumerate(bundle):
        lo = np.searchsorted(sbv, views[:, j], side="left")
        cnt = np.searchsorted(sbv, views[:, j], side="right") - lo
        hit = np.flatnonzero(cnt)
        if not len(hit):
            continue
        # expand the candidate ranges: row r meets hsig[lo[r]:lo[r] + cnt[r]]
        n = cnt[hit]
        ends = np.cumsum(n)
        cand = hsig[np.arange(ends[-1]) + np.repeat(lo[hit] - (ends - n), n)]
        d = hamming64_pairs(np.repeat(sigs[hit], n), cand)
        best[hit] = np.minimum(best[hit], np.minimum.reduceat(d, ends - n))
    return best


class HammingIndex:
    """Incremental cross-run near-dup screen for 64-bit signatures.

    >>> idx = HammingIndex("/data/phash_index", radius=2)
    >>> tagged = idx.screen(ds, sig_col="phash")  # + min_hamming, known_neardup
    >>> fresh = idx.table_filter("phash")(table)  # pa.Table, near-dups dropped
    >>> idx.commit(tagged, sig_col="phash")
    """

    def __init__(self, index_dir: str, radius: int = 2, n_blocks: int = 4):
        if n_blocks <= radius:
            raise ValueError(
                f"pigeonhole completeness needs n_blocks > radius "
                f"(got n_blocks={n_blocks}, radius={radius})")
        if 64 % n_blocks:
            raise ValueError(f"n_blocks={n_blocks} must divide 64")
        self.index_dir = index_dir
        self.radius = radius
        self.n_blocks = n_blocks
        # radius/n_blocks are SCREEN-time knobs over the same raw-signature
        # store (keys are the raw signatures, so any operating point can
        # reopen any index); the params file is an audit record only
        self._hist = load_keys(index_dir)
        self._bundle_ref = None

    @property
    def n_keys(self) -> int:
        return len(self._hist)

    def _bundle(self):
        """Ref to the per-block sorted views of the historical signatures,
        built once on the driver and broadcast once: (sorted block values,
        signatures permuted into that order) per block."""
        import ray

        if self._bundle_ref is None:
            views = _block_views(self._hist, self.n_blocks) if len(self._hist) \
                else np.empty((0, self.n_blocks), dtype=np.uint64)
            orders = [np.argsort(views[:, j], kind="mergesort") for j in range(self.n_blocks)]
            self._bundle_ref = ray.put([(views[o, j], self._hist[o]) for j, o in enumerate(orders)])
        return self._bundle_ref

    # ------------------------------------------------------------- screen

    def table_filter(self, sig_col: str):
        """``pa.Table → pa.Table``: the rows with no committed signature
        within the radius; the mask is built from ``sig_col`` alone."""
        from ..functions.broadcast import cached_get

        ref, radius = self._bundle(), self.radius

        def drop_near(t: pa.Table) -> pa.Table:
            best = _min_hamming(cached_get(ref), t[sig_col].to_numpy())
            return t.filter(pa.array(best > radius))

        return drop_near

    def screen(self, ds, sig_col: str):
        """Tag every row with ``min_hamming`` (closest committed signature
        within the radius; -1 when none) and ``known_neardup``. Exact by
        pigeonhole (see module docstring)."""
        from ..functions.broadcast import cached_get

        ref, radius = self._bundle(), self.radius

        def tag(b: pd.DataFrame) -> pd.DataFrame:
            best = _min_hamming(cached_get(ref), b[sig_col].to_numpy())
            found = best <= radius
            return b.assign(min_hamming=np.where(found, best, -1), known_neardup=found)

        return ds.map_batches(tag, batch_format="pandas")

    def filter_new(self, ds, sig_col: str):
        """Rows with no committed signature within the radius."""
        return ds.map_batches(self.table_filter(sig_col), batch_format="pyarrow")

    # ------------------------------------------------------------- commit

    def commit(self, ds, sig_col: str) -> str:
        """Append this run's distinct signatures as the next generation
        (per-batch distinct computed distributed; only int64 keys land on
        the driver — idempotent under union, crash-safe via the ``_GEN``
        marker landing last)."""

        def keys_batch(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"key": np.unique(b[sig_col].to_numpy())})

        key_ds = ds.select_columns([sig_col]).map_batches(
            keys_batch, batch_format="pandas")
        parts = [b["key"].to_numpy()
                 for b in key_ds.iter_batches(batch_size=65536,
                                              batch_format="pandas")]
        keys = np.unique(np.concatenate(parts)) if parts \
            else np.empty(0, dtype=np.int64)
        os.makedirs(self.index_dir, exist_ok=True)
        pfile = os.path.join(self.index_dir, _PARAMS_FILE)
        if not os.path.exists(pfile):
            tmp = pfile + ".tmp"
            with open(tmp, "w") as f:
                json.dump({"radius": self.radius, "n_blocks": self.n_blocks}, f)
            os.replace(tmp, pfile)
        gen = append(self.index_dir, keys)
        self._hist = load_keys(self.index_dir)
        self._bundle_ref = None
        return gen
