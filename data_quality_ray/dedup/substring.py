"""Exact substring dedup (Lee et al. 2021, "Deduplicating Training Data
Makes Language Models Better" — the ExactSubstr operation) at token
granularity: any ``n``-token window whose exact text occurs more than
once in the corpus (across docs OR repeated within one doc) marks its
token span as duplicated; per doc the marked spans are unioned and cut
out, and the remaining tokens are re-joined with single spaces.

Token alignment makes the operation distributable without a suffix
array: a repeated token span of length >= n contains a repeated n-token
window at EVERY alignment, so window-level counting finds exactly the
spans a suffix array would (for spans on token boundaries), at the cost
of missing sub-token/unaligned repeats. Every occurrence is removed
(both copies), the conservative ExactSubstr semantics.

Scale shape:
  1. one ``map_batches`` pass emits per-batch partial counts of window
     hashes (pre-aggregated — one row per distinct window per batch);
  2. ``grouped_aggregate(final="shuffle")`` sums them — the ONE
     all-to-all, on (hash, count) pairs only;
  3. windows with count >= 2 form the duplicate set — tiny relative to
     the corpus (bounded by actual repetition):
     - collect path (within the ``collect_rows`` gate): sorted uint64 array
       broadcast once, per-doc searchsorted probe + span union in one
       stateless pass (the ``dedup/decontaminate.py`` shape);
     - distributed path: window rows hash-join the duplicate set, hit
       starts aggregate per doc through a bucketed groupby, and a left
       ``hash_join`` carries the start-lists back to the docs — no
       driver-side state at any size.

Hashing: ``hash_fn="md5"`` (md5_number_lower of the window text) is
bit-replayable by the SQL oracle; ``"stable"`` is the faster
pandas-hash path for production.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

from ..functions.exchange import bucket_exchange
from ..functions.gate import fits
from ..profiling.sketches import md5_hash64

_WS_RE = re.compile(r"\s+")


def _tokens(text) -> list[str]:
    return [x for x in _WS_RE.split(text if isinstance(text, str) else "") if x]


def _window_hashes(toks: list[str], n: int, hash_fn: str) -> np.ndarray:
    m = len(toks) - n + 1
    if m <= 0:
        return np.empty(0, dtype=np.uint64)
    grams = np.array([" ".join(toks[i:i + n]) for i in range(m)], dtype=object)
    if hash_fn == "md5":
        return md5_hash64(grams)
    import pandas.util as pdu

    return pdu.hash_array(grams)


def window_counts(ds, text_col: str, n: int, hash_fn: str = "md5"):
    """Dataset (h, cnt): corpus-wide occurrence count per window hash
    (per-batch partials, one groupby-sum shuffle)."""
    from ..profiling.groupagg import grouped_aggregate

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        hs = [_window_hashes(_tokens(t), n, hash_fn)
              for t in b[text_col].to_numpy()]
        allh = np.concatenate(hs) if hs else np.empty(0, dtype=np.uint64)
        u, c = np.unique(allh, return_counts=True)
        # int64 VIEW of the uint64 hash: unsigned keys degrade to float64
        # through the aggregate shuffle (precision loss above 2^53);
        # signed bits survive intact — the simhash-oracle convention
        return pd.DataFrame({"h": u.view(np.int64), "cnt": c.astype(np.int64)})

    partials = ds.map_batches(partial, batch_format="pandas")
    return grouped_aggregate(partials, ["h"], {"cnt": ("cnt", "sum")},
                             final="shuffle")


def _cut(toks: list[str], starts: np.ndarray, n: int):
    """Remove tokens covered by any duplicated window starting at
    ``starts`` → (n_tokens, n_removed, cleaned text)."""
    keep = np.ones(len(toks), dtype=bool)
    for s in starts:
        keep[s:s + n] = False
    kept = [t for t, k in zip(toks, keep) if k]
    return len(toks), int((~keep).sum()), " ".join(kept)


def substring_dedup(ds, id_col: str, text_col: str, n: int = 8,
                    hash_fn: str = "md5", n_buckets: int = 32):
    """→ Dataset (id, n_tokens, n_removed, text) over ALL docs (cleaning
    semantics: fully-duplicated docs come back with empty text)."""
    import ray

    from ..functions.broadcast import cached_get

    counts = window_counts(ds, text_col, n, hash_fn)
    dup = counts.map_batches(lambda b: b[b["cnt"] >= 2][["h"]],
                             batch_format="pandas").materialize()
    if fits("substring.substring_dedup", dup.count(), "collect_rows"):
        dup_sorted = np.sort(dup.to_pandas()["h"].to_numpy().astype(np.int64))
        ref = ray.put(dup_sorted)

        def clean(b: pd.DataFrame) -> pd.DataFrame:
            ds_arr = cached_get(ref)
            out_nt = np.zeros(len(b), dtype=np.int64)
            out_nr = np.zeros(len(b), dtype=np.int64)
            out_tx = np.empty(len(b), dtype=object)
            for i, t in enumerate(b[text_col].to_numpy()):
                toks = _tokens(t)
                h = _window_hashes(toks, n, hash_fn).view(np.int64)
                pos = np.searchsorted(ds_arr, h)
                hit = (pos < len(ds_arr)) & (ds_arr[np.clip(pos, 0, max(len(ds_arr) - 1, 0))] == h) \
                    if len(ds_arr) else np.zeros(len(h), dtype=bool)
                out_nt[i], out_nr[i], out_tx[i] = _cut(toks, np.nonzero(hit)[0], n)
            return pd.DataFrame({id_col: b[id_col], "n_tokens": out_nt,
                                 "n_removed": out_nr, "text": out_tx})

        return ds.map_batches(clean, batch_format="pandas")

    from ..functions.joins import hash_join

    def windows(b: pd.DataFrame) -> pd.DataFrame:
        ids, starts, hs = [], [], []
        for i, t in zip(b[id_col].to_numpy(), b[text_col].to_numpy()):
            h = _window_hashes(_tokens(t), n, hash_fn)
            ids.extend([i] * len(h))
            starts.extend(range(len(h)))
            hs.append(h)
        return pd.DataFrame({
            id_col: ids,
            "s": np.asarray(starts, dtype=np.int64),
            "h": (np.concatenate(hs) if hs
                  else np.empty(0, dtype=np.uint64)).view(np.int64)})

    win = ds.map_batches(windows, batch_format="pandas")
    hits = hash_join(win, dup, on="h", right_cols=["h"], n_buckets=n_buckets)

    def starts_per_doc(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized list-agg: sort + boundary split, no per-doc callback
        g = g.sort_values([id_col, "s"], kind="mergesort")
        ids = g[id_col].to_numpy()
        s = g["s"].to_numpy().astype(np.int64)
        if not len(ids):
            return pd.DataFrame({id_col: ids, "starts": []})
        bounds = np.nonzero(ids[1:] != ids[:-1])[0] + 1
        # comma-joined string: ragged arrays do not survive the join's
        # tagged union (Arrow TensorArray vs null-typed concat)
        return pd.DataFrame({
            id_col: ids[np.concatenate([[0], bounds])],
            "starts": [",".join(map(str, a)) for a in np.split(s, bounds)]})

    per_doc = bucket_exchange(hits, id_col, starts_per_doc, n_buckets)
    joined = hash_join(ds, per_doc, on=id_col,
                       right_cols=[id_col, "starts"], how="left",
                       n_buckets=n_buckets)

    def clean_joined(b: pd.DataFrame) -> pd.DataFrame:
        out_nt = np.zeros(len(b), dtype=np.int64)
        out_nr = np.zeros(len(b), dtype=np.int64)
        out_tx = np.empty(len(b), dtype=object)
        for i, (t, st) in enumerate(zip(b[text_col].to_numpy(),
                                        b["starts"].to_numpy())):
            toks = _tokens(t)
            # unmatched left rows carry a null; hits arrive comma-joined
            starts = (np.fromiter(map(int, st.split(",")), dtype=np.int64)
                      if isinstance(st, str) and st else
                      np.empty(0, dtype=np.int64))
            out_nt[i], out_nr[i], out_tx[i] = _cut(toks, starts, n)
        return pd.DataFrame({id_col: b[id_col], "n_tokens": out_nt,
                             "n_removed": out_nr, "text": out_tx})

    return joined.map_batches(clean_joined, batch_format="pandas")
