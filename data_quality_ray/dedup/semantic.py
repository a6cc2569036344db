"""SemDeDup: semantic (embedding-space) deduplication.

Abbas et al. 2023 (arXiv:2303.09540): cluster embeddings with a cheap
k-means coarse quantizer, compare pairs only WITHIN clusters, collapse
connected components of cosine-≥-threshold pairs keeping one
representative. The cluster assignment is the partitioning assumption —
pairs crossing clusters are not compared (the paper's own trade-off);
recall scales with ``n_lists`` resolution, cost with cluster size².

Reuses the repo's proven pieces end to end: `similarity.knn`'s seeded
k-means + broadcast `IVFAssignStage` (train once, `ray.put` once),
`dedup.embedding.neardup_pairs_within` (one matmul per cluster group,
never per-pair Python), and `dedup.minhash`'s gated components
(driver union-find under the shared size gate, distributed min-label
propagation above it).
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def _assigned(ds, vec_col: str, n_lists: int, sample_rows: int, seed: int,
              centroids):
    import ray

    from ..similarity.knn import IVFAssignStage, train_ivf_centroids

    cent = (centroids if centroids is not None
            else train_ivf_centroids(ds, vec_col, n_lists=n_lists,
                                     sample_rows=sample_rows, seed=seed))
    ref = ray.put(cent)
    return ds.map_batches(IVFAssignStage(ref, vec_col), batch_format="pandas")


def semantic_dedup(ds, id_col: str, vec_col: str, threshold: float = 0.2,
                   n_lists: int = 16, sample_rows: int = 4096,
                   seed: int = 11, centroids: np.ndarray | None = None,
                   output: str = "pandas"):
    """→ (id, sem_cluster, keep) over ALL rows: ``sem_cluster`` = min id
    of the row's cosine-component (itself if un-duplicated), ``keep`` =
    is the component representative. Pass ``centroids`` to reuse a
    quantizer trained on a reference corpus.

    ``output="pandas"`` (default, the oracle contract) returns a
    DataFrame; ``output="dataset"`` runs the scale route: pairs stay a
    Dataset (``neardup_pairs_within(output="dataset")``), components run
    via ``distributed_components(as_dataset=True)``, and the component
    label map — bounded by the DUPLICATED doc count, not the corpus —
    is collected once as sorted arrays and broadcast via ``ray.put``
    (the ``dedup_by_key`` winner pattern); the full corpus then streams
    through one searchsorted membership pass. No all-ids driver frame.
    """
    from .embedding import neardup_pairs_within
    from .minhash import components, distributed_components

    assigned = _assigned(ds, vec_col, n_lists, sample_rows, seed, centroids)

    if output == "dataset":
        import ray

        from ..functions.broadcast import cached_get

        pairs_ds = neardup_pairs_within(assigned, id_col, vec_col, "ivf_list",
                                        threshold=threshold, output="dataset")
        comp = distributed_components(
            pairs_ds.map_batches(lambda b: b[["id_a", "id_b"]],
                                 batch_format="pandas"),
            as_dataset=True)
        # label map = duplicated docs only (≪ corpus) → sorted-array
        # broadcast, one searchsorted pass over the full corpus
        parts = [b for b in comp.iter_batches(batch_size=65536,
                                              batch_format="pandas") if len(b)]
        if parts:
            cdf = pd.concat(parts, ignore_index=True).sort_values("id")
            cids, clbl = cdf["id"].to_numpy(), cdf["cluster"].to_numpy()
        else:
            cids = clbl = np.empty(0, dtype=np.int64)
        cref = ray.put((cids, clbl))

        def label_batch(b: pd.DataFrame) -> pd.DataFrame:
            ids_, lbl_ = cached_get(cref)
            v = b[id_col].to_numpy()
            sem = v.copy()
            if len(ids_):
                pos = np.clip(np.searchsorted(ids_, v), 0, len(ids_) - 1)
                hit = ids_[pos] == v
                sem = np.where(hit, lbl_[pos].astype(v.dtype), v)
            return pd.DataFrame({id_col: v, "sem_cluster": sem,
                                 "keep": sem == v})

        return ds.select_columns([id_col]).map_batches(label_batch,
                                                       batch_format="pandas")

    pairs = neardup_pairs_within(assigned, id_col, vec_col, "ivf_list",
                                 threshold=threshold)
    ids = ds.select_columns([id_col]).to_pandas()[id_col]
    if pairs.empty:
        comp = pd.Series(dtype=ids.dtype, name="cluster")
    else:
        comp = components(pairs[["id_a", "id_b"]], "semantic.semantic_dedup") \
            .set_index("id")["cluster"]
    sem = ids.map(comp).fillna(ids).astype(ids.dtype)
    return (pd.DataFrame({id_col: ids, "sem_cluster": sem,
                          "keep": (sem == ids).to_numpy()})
            .sort_values(id_col).reset_index(drop=True))
