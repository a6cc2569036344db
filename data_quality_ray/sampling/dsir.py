"""DSIR — Data Selection with Importance Resampling (Xie et al. 2023,
"Data Selection for Language Models via Importance Resampling").

Select raw-corpus documents whose hashed n-gram distribution resembles a
small in-domain target corpus. Features are word unigrams + bigrams
(the shared lowercase/whitespace tokenizer) hashed to ``n_buckets`` via
md5 — the SQL-replayable hash, so a DuckDB oracle can re-derive every
number. The target and raw corpora each fold to one bucket-count vector
(add-one smoothing → probability vectors p_t, p_r); a document's
importance log-weight is Σ over its features of log(p_t[b]/p_r[b]).

The paper Gumbel-samples ∝ weight; here selection is deterministic
top-n by (rounded weight desc, id asc) so the operator is
oracle-checkable — the sampling noise is orthogonal to the distributed
shape. Documents with zero features carry no evidence and are never
selected.

Scale shape: two fixed-size fold passes (each batch partial is ONE
B-length int64 vector — the mergeable-sketch pattern; driver state is
O(B), independent of rows), then the log-ratio vector broadcasts once
and scoring is a single stateless ``map_batches``; top-n selection is
per-batch local top-n + driver merge (the bm25 shape). Zero shuffle
end to end.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..profiling.sketches import md5_hash64
from ..rules.heuristics import round_half_away


def _features(text) -> list[str]:
    """Word unigrams + space-joined bigrams — identical to the hashed
    quality classifier's feature map (stages/models.HashedLinearQuality)."""
    toks = (text if isinstance(text, str) else "").lower().split()
    return toks + [a + " " + b for a, b in zip(toks, toks[1:])]


def _buckets(flat: list[str], n_buckets: int) -> np.ndarray:
    """md5 % B over DISTINCT feature strings, mapped back to occurrence
    order (features repeat heavily; uint64 % uint64 keeps the dtype)."""
    uniq, inv = np.unique(np.array(flat, dtype=object), return_inverse=True)
    return (md5_hash64(uniq) % np.uint64(n_buckets)).astype(np.int64)[inv]


def bucket_counts(ds, text_col: str, n_buckets: int) -> tuple[np.ndarray, int]:
    """Fold a corpus to (B-vector of hashed-feature counts, total count).
    Each batch emits one row holding its B-vector as bytes; the driver
    sums — O(B) driver state."""
    B = n_buckets

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        flat = [f for t in b[text_col] for f in _features(t)]
        c = (np.bincount(_buckets(flat, B), minlength=B) if flat
             else np.zeros(B, dtype=np.int64)).astype(np.int64)
        return pd.DataFrame({"c": [c.tobytes()], "n": [np.int64(len(flat))]})

    total = np.zeros(B, dtype=np.int64)
    n = 0
    for b in ds.map_batches(partial, batch_format="pandas").iter_batches(
            batch_size=256, batch_format="pandas"):
        for blob, cnt in zip(b["c"], b["n"]):
            total += np.frombuffer(blob, dtype=np.int64)
            n += int(cnt)
    return total, n


def dsir_weights(corpus_ds, target_ds, id_col: str, text_col: str,
                 n_buckets: int = 1024):
    """→ Dataset of (id_col, n_features, dsir_weight) for every corpus
    row; weight = Σ log(p_target/p_raw) over the doc's hashed features,
    round-half-away at 6 dp (the oracle-stable float contract)."""
    import ray

    from ..functions.broadcast import cached_get

    B = n_buckets
    tc, tn = bucket_counts(target_ds, text_col, B)
    rc, rn = bucket_counts(corpus_ds, text_col, B)
    logratio = (np.log((tc + 1.0) / (tn + B)) - np.log((rc + 1.0) / (rn + B)))
    ref = ray.put(logratio)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        w = cached_get(ref)
        feats = [_features(t) for t in b[text_col]]
        counts = np.array([len(f) for f in feats], dtype=np.int64)
        flat = [f for fl in feats for f in fl]
        fw = w[_buckets(flat, B)] if flat else np.zeros(0, np.float64)
        csum = np.concatenate(([0.0], np.cumsum(fw)))
        ends = np.cumsum(counts)
        sums = csum[ends] - csum[ends - counts]
        return pd.DataFrame({id_col: b[id_col].to_numpy(),
                             "n_features": counts,
                             "dsir_weight": round_half_away(sums)})

    return corpus_ds.map_batches(score, batch_format="pandas")


def dsir_select(corpus_ds, target_ds, id_col: str, text_col: str,
                n_select: int, n_buckets: int = 1024) -> pd.DataFrame:
    """Deterministic DSIR selection: the ``n_select`` corpus rows with
    the highest importance weight (ties by id; zero-feature docs
    excluded). → pandas (id_col, dsir_weight, rank), rank 1-based."""
    scored = dsir_weights(corpus_ds, target_ds, id_col, text_col, n_buckets)

    def local_topn(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["n_features"] > 0]
        return b.sort_values(["dsir_weight", id_col],
                             ascending=[False, True]).head(n_select)

    parts = [b for b in scored.map_batches(local_topn, batch_format="pandas")
             .iter_batches(batch_size=65536, batch_format="pandas")]
    if not parts:
        return pd.DataFrame(columns=[id_col, "dsir_weight", "rank"])
    top = (pd.concat(parts, ignore_index=True)
           .sort_values(["dsir_weight", id_col], ascending=[False, True])
           .head(n_select).reset_index(drop=True))
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    return top[[id_col, "dsir_weight", "rank"]]
