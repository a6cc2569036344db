"""Two-table blocked fuzzy join (R×S record linkage).

The reference's record matching compares an *incoming* record set against
a *lookup* set pair-by-pair (SimpleVSRRecordMatcher / SynonymRecordSearcher
usage in the record-linkage module); ``fuzzy_join`` is that linkage as ONE
distributed exchange: both tables are tagged, hash-bucketed on a
*blocking key* column (produced upstream — compose with
``dedup.blocking.blocking_key`` generators or any map_batches), and each
bucket enumerates left×right pairs *within equal block values only*,
scoring them with the vectorized pair kernels
(``functions.matchers_vec``) — never a per-pair Python call.

Semantics are exactly SQL's

    FROM left l JOIN right r
      ON l.block = r.block AND distance(l.col, r.col) <= max_distance

which is what makes the operator oracle-checkable (DuckDB ``levenshtein``
replays the distance).

Partitioning assumption: one block value's rows all meet in one bucket
(hash co-location). A pathologically hot block value is the quadratic
term — salt it upstream into sub-blocks (the same remedy every blocked
self-join here documents), or tighten the blocking key. Pair enumeration
inside a bucket is chunked (``pair_chunk``) so a large bucket scores in
bounded memory instead of building one giant pair frame.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.exchange import bucket_exchange


def fuzzy_join(left_ds, right_ds, left_key: str, right_key: str,
               left_col: str, right_col: str, block_col: str,
               matcher: str = "LEVENSHTEIN", max_distance: int | None = None,
               min_score: float | None = None, n_buckets: int = 64,
               pair_chunk: int = 2_000_000):
    """Blocked fuzzy equi-distance join.

    Exactly one of ``max_distance`` (raw edit distance, integer —
    ``matcher`` must be LEVENSHTEIN) or ``min_score`` (normalized [0,1]
    similarity from ``batch_match_score``) must be given.

    → Dataset of ``(left_key, right_key, dist)`` or
    ``(left_key, right_key, score)``. Both key columns must be disjoint
    names; null/empty strings on either compare column never match under
    ``max_distance`` and follow ``match_score`` null semantics under
    ``min_score``.
    """
    from ..functions.matchers_vec import (batch_match_score,
                                          levenshtein_pairs_bounded)

    if (max_distance is None) == (min_score is None):
        raise ValueError("give exactly one of max_distance / min_score")
    if max_distance is not None and matcher != "LEVENSHTEIN":
        raise ValueError("max_distance is only defined for LEVENSHTEIN")
    if left_key == right_key:
        raise ValueError("left_key and right_key must be differently named")
    out_col = "dist" if max_distance is not None else "score"

    def tag(side: int, key: str, col: str):
        def _tag(b: pd.DataFrame) -> pd.DataFrame:
            # SQL equi-join semantics: a NULL blocking key joins nothing —
            # drop it here (a mixed None/str block column would also break
            # the per-bucket sort)
            b = b[b[block_col].notna()]
            return pd.DataFrame({"__key": b[key], "__val": b[col],
                                 "__block": b[block_col],
                                 "__side": np.int8(side)})
        return _tag

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("__block", kind="mergesort")
        left = g[g["__side"] == 0]
        right = g[g["__side"] == 1]
        lb = left["__block"].to_numpy()
        rb = right["__block"].to_numpy()
        lk, lv = left["__key"].to_numpy(), left["__val"].to_numpy()
        rk, rv = right["__key"].to_numpy(), right["__val"].to_numpy()
        empty = pd.DataFrame({left_key: pd.Series([], dtype=left["__key"].dtype),
                              right_key: pd.Series([], dtype=right["__key"].dtype),
                              out_col: pd.Series(
                                  [], dtype="int64" if out_col == "dist" else "float64")})
        if not len(lb) or not len(rb):
            return empty
        # per left row: the contiguous right range sharing its block value
        lo = np.searchsorted(rb, lb, side="left")
        hi = np.searchsorted(rb, lb, side="right")
        counts = hi - lo
        if counts.sum() == 0:
            return empty
        # chunk left rows so no pair frame exceeds pair_chunk
        frames = []
        csum = np.concatenate(([0], np.cumsum(counts)))
        start = 0
        while start < len(lb):
            # largest end with csum[end]-csum[start] <= pair_chunk; always
            # advance at least one row (a single hot left row may overshoot)
            end = int(np.searchsorted(csum, csum[start] + pair_chunk,
                                      side="right")) - 1
            end = min(max(end, start + 1), len(lb))
            sel = slice(start, end)
            c = counts[sel]
            li = np.repeat(np.arange(start, end), c)
            # right indices: for each left row i, lo[i] .. hi[i]-1
            ri = (np.arange(len(li)) - np.repeat(csum[sel] - csum[start], c)
                  + np.repeat(lo[sel], c))
            if len(li):
                a, b = lv[li], rv[ri]
                if max_distance is not None:
                    a_s = np.asarray(["" if x is None else str(x) for x in a], dtype=object)
                    b_s = np.asarray(["" if x is None else str(x) for x in b], dtype=object)
                    # cheap prefilter: pairs whose length gap already
                    # exceeds the cap can't match — skip the DP entirely
                    alen = np.fromiter((len(s) for s in a_s), np.int64, len(a_s))
                    blen = np.fromiter((len(s) for s in b_s), np.int64, len(b_s))
                    cand = ((np.abs(alen - blen) <= max_distance)
                            & (alen > 0) & (blen > 0))
                    d = np.full(len(a_s), max_distance + 1, dtype=np.int64)
                    ci = np.flatnonzero(cand)
                    if len(ci):
                        # banded Ukkonen kernel: O(k·L) per pair, exact ≤ cap
                        d[ci] = levenshtein_pairs_bounded(a_s[ci], b_s[ci],
                                                          max_distance)
                    keep = d <= max_distance
                    frames.append(pd.DataFrame({left_key: lk[li][keep],
                                                right_key: rk[ri][keep],
                                                out_col: d[keep].astype("int64")}))
                else:
                    s = batch_match_score(a, b, matcher=matcher)
                    keep = s >= min_score
                    frames.append(pd.DataFrame({left_key: lk[li][keep],
                                                right_key: rk[ri][keep],
                                                out_col: s[keep].astype("float64")}))
            start = end
        frames = [f for f in frames if len(f)]
        return pd.concat(frames, ignore_index=True) if frames else empty

    tagged = (left_ds.map_batches(tag(0, left_key, left_col), batch_format="pandas")
              .union(right_ds.map_batches(tag(1, right_key, right_col),
                                          batch_format="pandas")))
    return bucket_exchange(tagged, "__block", join_bucket, n_buckets)
