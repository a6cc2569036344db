"""Hybrid lexical+vector retrieval with reciprocal-rank fusion
(Cormack-Clarke-Buettcher RRF): fuse a BM25 ranking and a cosine
embedding ranking of the same corpus into one list, the standard
first-stage hybrid-search combiner.

Shape: BM25 rides the zero-shuffle two-pass fold (similarity/bm25.py);
the vector side is ONE ``map_batches`` pass scoring ALL query vectors
against each batch (broadcast query matrix — one matmul per batch,
never a per-query corpus pass), with per-(query, batch) local top-k and
a (queries × blocks × k)-row driver merge. RRF itself touches only the
two k-row rank lists per query — driver-trivial at any corpus size.

Determinism contract: both input rankings order by (score rounded to 6
desc, id asc); RRF scores are rounded to 6 BEFORE the fused ranking.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..rules.heuristics import round_half_away

__all__ = ["multi_cosine_topk", "rrf_fuse", "hybrid_search"]

RRF_C = 60  # the canonical reciprocal-rank damping constant


def multi_cosine_topk(ds, id_col: str, vec_col: str,
                      queries: dict[str, np.ndarray], k: int = 10) -> pd.DataFrame:
    """Exact cosine top-k for MANY query vectors in one corpus pass.
    → (query_id, id, sim, rank), rank 1-based by (sim rounded 6 desc,
    id asc) — the bm25_topk ranking contract."""
    import ray

    from ..functions.broadcast import cached_get

    qids = sorted(queries)
    qmat = np.stack([np.asarray(queries[q], dtype=np.float64) for q in qids])
    qmat = qmat / np.linalg.norm(qmat, axis=1, keepdims=True)
    q_ref = ray.put(qmat)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        qm = cached_get(q_ref)
        mat = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1)
        sims = (mat @ qm.T) / np.where(norms == 0, 1, norms)[:, None]
        ids = batch[id_col].to_numpy()
        outs = []
        for j, qid in enumerate(qids):
            # per-batch top-k under the GLOBAL contract (sim rounded 6dp
            # desc, id asc) — argpartition on unrounded sims can drop the
            # smaller-id doc of a 6dp tie before the global pass sees it
            t = np.round(sims[:, j], 6)
            sel = np.lexsort((ids, -t))[:k] if len(ids) > k \
                else np.arange(len(ids))
            outs.append(pd.DataFrame({"query_id": qid, "id": ids[sel],
                                      "sim": t[sel]}))
        return pd.concat(outs, ignore_index=True)

    parts = (ds.map_batches(score, batch_format="pandas")).to_pandas()
    parts["sim"] = parts["sim"].round(6)
    out = []
    for qid, g in parts.groupby("query_id", sort=True):
        g = (g.sort_values(["sim", "id"], ascending=[False, True],
                           kind="mergesort").head(k).reset_index(drop=True))
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        out.append(g)
    return pd.concat(out, ignore_index=True)


def rrf_fuse(rankings: list[pd.DataFrame], k: int = 10,
             c: int = RRF_C) -> pd.DataFrame:
    """Fuse rank lists (columns query_id, id, rank) — score(d) =
    Σ_systems 1/(c + rank_s(d)) over the lists d appears in.
    → (query_id, id, rrf, rank) top-``k`` per query by
    (rrf rounded 6 desc, id asc)."""
    all_r = pd.concat([r[["query_id", "id", "rank"]] for r in rankings],
                      ignore_index=True)
    all_r["contrib"] = 1.0 / (c + all_r["rank"].to_numpy(dtype=np.float64))
    agg = (all_r.groupby(["query_id", "id"], sort=True)["contrib"].sum()
           .rename("rrf").reset_index())
    # rrf is a sum of exact rationals 1/(c+rank): exact halves happen
    agg["rrf"] = round_half_away(agg["rrf"])
    out = []
    for qid, g in agg.groupby("query_id", sort=True):
        g = (g.sort_values(["rrf", "id"], ascending=[False, True],
                           kind="mergesort").head(k).reset_index(drop=True))
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        out.append(g)
    return pd.concat(out, ignore_index=True)


def hybrid_search(docs_ds, emb_ds, text_queries: dict[str, str],
                  vec_queries: dict[str, np.ndarray], doc_id: str = "doc_id",
                  vec_id: str = "vec_id", text_col: str = "text",
                  vec_col: str = "embedding", n_each: int = 20,
                  k: int = 10) -> pd.DataFrame:
    """BM25 top-``n_each`` + cosine top-``n_each`` → RRF top-``k``.
    → (query_id, doc_id, rrf, rank)."""
    from .bm25 import bm25_topk

    lex = bm25_topk(docs_ds, doc_id, text_col, text_queries, k=n_each)
    lex = lex.rename(columns={doc_id: "id"})
    vec = multi_cosine_topk(emb_ds, vec_id, vec_col, vec_queries, k=n_each)
    fused = rrf_fuse([lex, vec], k=k)
    return fused.rename(columns={"id": doc_id})
