"""Exact Hamming top-k retrieval over a 64-bit signature column.

Query-by-image for perceptual hashes (reference's record-matching idea
applied to the image payload: `SURVEY.md` §2.4's distance matchers, here
over signatures instead of strings): given Q query signatures, find each
query's k nearest table rows by Hamming distance.

Scale shape: the Q query signatures broadcast ONCE (``ray.put`` +
``cached_get``); each batch computes a (Q × B) xor + popcount matrix
and emits a FIXED-SIZE partial (Q × k rows per batch, ties pre-broken),
so the driver merge sees O(num_blocks × Q × k) rows regardless of table
size — the ``cosine_topk`` partial-merge pattern, no shuffle at all.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..dedup.simhash import hamming64_pairs


def smallest_id_sigs(ds, id_col: str, sig_col: str, n: int):
    """Content-deterministic query selection: the ``n`` smallest ids and
    their signatures, via per-batch sorted heads + a driver merge of
    O(num_blocks × n) rows (``materialize()`` block order is
    run-dependent, so "first rows" must be decided by CONTENT)."""

    def head(b: pd.DataFrame) -> pd.DataFrame:
        return b[[id_col, sig_col]].sort_values(id_col, kind="mergesort").head(n)

    parts = pd.concat(
        list(ds.map_batches(head, batch_format="pandas")
             .iter_batches(batch_size=max(1024, n), batch_format="pandas")),
        ignore_index=True)
    out = parts.sort_values(id_col, kind="mergesort").head(n)
    return out[id_col].to_numpy(), out[sig_col].to_numpy()


def hamming_topk(ds, id_col: str, sig_col: str,
                 query_ids: np.ndarray, query_sigs: np.ndarray,
                 k: int = 10) -> pd.DataFrame:
    """Exact top-k by Hamming distance for each query signature.

    Returns (query_id, id_col, hamming, rank) with the deterministic
    order (hamming ASC, id ASC) per query — the SQL
    ``row_number() OVER (PARTITION BY query ORDER BY hamming, id)``
    contract, so a DuckDB brute-force replay hash-matches exactly.
    """
    import ray

    from ..functions.broadcast import cached_get

    qids = np.asarray(query_ids)
    qsigs = np.asarray(query_sigs).astype(np.int64).view(np.uint64)
    ref = ray.put((qids, qsigs))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        _qids, _qsigs = cached_get(ref)
        sigs = b[sig_col].to_numpy().astype(np.int64).view(np.uint64)
        ids = b[id_col].to_numpy()
        d = hamming64_pairs(_qsigs[:, None], sigs[None, :])  # (Q, B)
        frames = []
        for qi in range(len(_qids)):
            order = np.lexsort((ids, d[qi]))[:k]
            frames.append(pd.DataFrame({
                "query_id": _qids[qi],
                id_col: ids[order],
                "hamming": d[qi][order].astype(np.int64),
            }))
        return pd.concat(frames, ignore_index=True)

    parts = pd.concat(
        list(ds.map_batches(partial, batch_format="pandas")
             .iter_batches(batch_size=4 * k * max(1, len(qids)),
                           batch_format="pandas")),
        ignore_index=True)
    out = (parts.sort_values(["query_id", "hamming", id_col], kind="mergesort")
           .groupby("query_id", sort=True).head(k).reset_index(drop=True))
    out["rank"] = out.groupby("query_id", sort=False).cumcount() + 1
    return out
