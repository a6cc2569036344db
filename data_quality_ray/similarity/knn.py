"""Similarity search over an embedding column (list<float>).

- ``cosine_topk``: brute-force top-k — the correctness baseline. The query
  matrix is broadcast ONCE via ``ray.put`` and read in every task (not
  re-shipped per batch); each batch does one float64 matmul; per-batch
  top-k partials merge on the driver (k rows per block, tiny).
- ``lsh_topk``: a scale path — random-hyperplane LSH bucketing: only
  batches' vectors whose signature matches one of the query's probe
  signatures are scored. Same merge; recall < 1 by design.
- ``ivf_topk``: the other scale path — IVF: a deterministic seeded
  k-means coarse quantizer (trained once on a head sample, broadcast),
  vectors assigned to their nearest centroid list, queries scored only
  against the ``nprobe`` nearest lists. At 100 TB the assignment column
  becomes the partition key so probing is I/O-level pruning.

Computation is float64 end-to-end so DuckDB's ``list_cosine_similarity``
(also float64) can be the oracle for the brute-force variant.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _batch_topk(ids: np.ndarray, sims: np.ndarray, k: int) -> pd.DataFrame:
    if len(ids) > k:
        part = np.argpartition(-sims, k)[:k]
        ids, sims = ids[part], sims[part]
    return pd.DataFrame({"id": ids, "sim": sims})


def cosine_topk(ds, id_col: str, vec_col: str, query: np.ndarray, k: int = 10) -> pd.DataFrame:
    """Exact cosine top-k of one query vector. Returns (id, sim) sorted by
    (-sim, id) — deterministic ties."""
    import ray

    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)
    q_ref = ray.put(q)

    from ..functions.broadcast import cached_get

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        qv = cached_get(q_ref)  # fetched/deserialized once per worker
        mat = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1)
        sims = (mat @ qv) / np.where(norms == 0, 1, norms)
        return _batch_topk(batch[id_col].to_numpy(), sims, k)

    parts = pd.concat(
        list(ds.map_batches(score, batch_format="pandas").iter_batches(batch_size=4 * k, batch_format="pandas")),
        ignore_index=True,
    )
    out = parts.sort_values(["sim", "id"], ascending=[False, True], kind="mergesort").head(k)
    return out.reset_index(drop=True)


class LSHIndexStage:
    """Random-hyperplane signature per vector (actor-pool stage): appends a
    ``bucket`` int column. Vectors in the same bucket are ANN candidates;
    at scale, ``groupby("bucket")`` co-locates candidates so per-bucket
    scoring never sees the full table."""

    def __init__(self, dim: int, n_planes: int = 12, seed: int = 7, vec_col: str = "embedding"):
        rng = np.random.RandomState(seed)
        self.planes = rng.randn(dim, n_planes)
        self.vec_col = vec_col

    def signature(self, mat: np.ndarray) -> np.ndarray:
        bits = (mat @ self.planes) > 0
        return (bits * (1 << np.arange(bits.shape[1]))).sum(axis=1).astype(np.int64)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(batch[self.vec_col].to_numpy()).astype(np.float64)
        batch = batch.copy()
        batch["bucket"] = self.signature(mat)
        return batch


def lsh_topk(ds, id_col: str, vec_col: str, query: np.ndarray, k: int = 10,
             dim: int | None = None, n_planes: int = 12, seed: int = 7,
             multiprobe_bits: int = 1) -> pd.DataFrame:
    """Approximate top-k: score only vectors whose LSH bucket is within
    ``multiprobe_bits`` Hamming distance of the query's bucket."""
    import ray

    q = np.asarray(query, dtype=np.float64)
    dim = dim or len(q)
    stage = LSHIndexStage(dim, n_planes, seed, vec_col)
    q_sig = int(stage.signature((q / np.linalg.norm(q)).reshape(1, -1))[0])
    probes = {q_sig}
    if multiprobe_bits >= 1:
        probes |= {q_sig ^ (1 << b) for b in range(n_planes)}
    qn = q / np.linalg.norm(q)
    q_ref = ray.put((qn, probes))

    from ..functions.broadcast import cached_get

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        qv, probe_set = cached_get(q_ref)
        mat = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
        sig = stage.signature(mat / np.linalg.norm(mat, axis=1, keepdims=True))
        cand = np.isin(sig, list(probe_set))
        if not cand.any():
            return pd.DataFrame({"id": [], "sim": []})
        sub = mat[cand]
        sims = (sub @ qv) / np.linalg.norm(sub, axis=1)
        return _batch_topk(batch[id_col].to_numpy()[cand], sims, k)

    parts = pd.concat(
        list(ds.map_batches(score, batch_format="pandas").iter_batches(batch_size=4 * k, batch_format="pandas")),
        ignore_index=True,
    )
    out = parts.sort_values(["sim", "id"], ascending=[False, True], kind="mergesort").head(k)
    return out.reset_index(drop=True)


def fit_unit_kmeans(x: np.ndarray, n_lists: int, iters: int = 10,
                    seed: int = 11) -> np.ndarray:
    """Seeded spherical k-means over a given sample matrix — the coarse-
    quantizer fit shared by ``train_ivf_centroids`` (stream-order head
    sample) and the IVF-PQ store build (id-deterministic sample)."""
    x = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
    rng = np.random.RandomState(seed)
    cent = x[rng.choice(len(x), size=min(n_lists, len(x)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(x @ cent.T, axis=1)
        for c in range(len(cent)):
            members = x[assign == c]
            if len(members):
                m = members.mean(axis=0)
                cent[c] = m / max(np.linalg.norm(m), 1e-12)
    return cent


def train_ivf_centroids(ds, vec_col: str, n_lists: int = 16, sample_rows: int = 4096,
                        iters: int = 10, seed: int = 11) -> np.ndarray:
    """Deterministic coarse quantizer: seeded k-means on a bounded head
    sample (unit-normalized). Train-once, broadcast-everywhere — the IVF
    analog of a model loaded per actor."""
    sample = []
    need = sample_rows
    for b in ds.iter_batches(batch_size=1024, batch_format="pandas"):
        sample.append(np.stack(b[vec_col].to_numpy()).astype(np.float64))
        need -= len(b)
        if need <= 0:
            break
    x = np.concatenate(sample)[:sample_rows]
    return fit_unit_kmeans(x, n_lists, iters, seed)


class IVFAssignStage:
    """Appends an ``ivf_list`` int column = nearest-centroid id to a pandas
    batch or an Arrow table. The centroid matrix rides the object store
    once (``ray.put`` by the caller) — not re-shipped per batch."""

    def __init__(self, centroids_ref, vec_col: str = "embedding"):
        self.centroids_ref = centroids_ref
        self.vec_col = vec_col

    def _lists(self, vecs) -> np.ndarray:
        from ..functions.broadcast import cached_get

        cent = cached_get(self.centroids_ref)
        mat = np.stack(vecs).astype(np.float64)
        mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        return np.argmax(mat @ cent.T, axis=1).astype(np.int64)

    def __call__(self, batch):
        if isinstance(batch, pa.Table):
            vecs = batch[self.vec_col].to_numpy(zero_copy_only=False)
            return batch.append_column("ivf_list", pa.array(self._lists(vecs)))
        batch = batch.copy()
        batch["ivf_list"] = self._lists(batch[self.vec_col].to_numpy())
        return batch


def build_ivf_store(ds, store_dir: str, vec_col: str = "embedding",
                    n_lists: int = 16, sample_rows: int = 4096,
                    seed: int = 11) -> np.ndarray:
    """Persist the dataset partitioned BY IVF LIST (hive layout
    ``ivf_list=<n>/``) plus the centroid matrix — the SCALE.md
    "pre-partition by signature" note made real: a query then reads ONLY
    its ``nprobe`` list directories, so pruning happens at the I/O level
    (row groups never leave storage), not post-read. Returns centroids."""
    import os

    import ray

    cent = train_ivf_centroids(ds, vec_col, n_lists, sample_rows, seed=seed)
    cent_ref = ray.put(cent)
    # an Arrow map keeps the vector column's own Arrow type in the store: a
    # pandas map would write Ray's tensor extension type, whose pandas
    # metadata names Ray's pandas ``TensorDtype``, and any process that has
    # not registered that dtype then fails to read the store into pandas
    assigned = ds.map_batches(IVFAssignStage(cent_ref, vec_col), batch_format="pyarrow")
    assigned.write_parquet(store_dir, partition_cols=["ivf_list"])
    tmp = os.path.join(store_dir, "._centroids.tmp")
    np.save(tmp + ".npy", cent)
    os.replace(tmp + ".npy", os.path.join(store_dir, "_centroids.npy"))
    return cent


def _ivf_probe_dirs(store_dir: str, query: np.ndarray, nprobe: int):
    """Centroid ranking → the ``nprobe`` list directories a query reads,
    plus every list directory (for scan-stats denominators)."""
    import glob
    import os

    cent = np.load(os.path.join(store_dir, "_centroids.npy"))
    q = np.asarray(query, dtype=np.float64)
    qn = q / np.linalg.norm(q)
    probe_lists = set(np.argsort(-(cent @ qn))[:nprobe].tolist())
    all_dirs = sorted(glob.glob(os.path.join(store_dir, "ivf_list=*")))
    probe_dirs = [d for d in all_dirs
                  if int(os.path.basename(d).split("=", 1)[1]) in probe_lists]
    return qn, probe_dirs, all_dirs


def ivf_scan_stats(store_dir: str, query: np.ndarray, nprobe: int = 4) -> dict:
    """Measured I/O-level pruning for a query at ``nprobe`` from parquet
    FOOTER metadata alone — no row is read or scored. This is the cheap
    way to assert scan reduction (the full ``ivf_topk_store`` pays a
    distributed read + matmul for the result as well)."""
    import glob
    import os

    import pyarrow.parquet as pq

    _, probe_dirs, all_dirs = _ivf_probe_dirs(store_dir, query, nprobe)

    def _rows(dirs):
        return sum(pq.ParquetFile(f).metadata.num_rows
                   for d in dirs for f in glob.glob(os.path.join(d, "*.parquet")))

    return {"rows_scanned": _rows(probe_dirs), "rows_total": _rows(all_dirs),
            "lists_probed": len(probe_dirs), "lists_total": len(all_dirs)}


def ivf_topk_store(store_dir: str, id_col: str, vec_col: str, query: np.ndarray,
                   k: int = 10, nprobe: int = 4) -> tuple[pd.DataFrame, dict]:
    """Approximate top-k against a ``build_ivf_store`` layout: load the
    committed centroids, pick the ``nprobe`` nearest list PARTITIONS, and
    ``read_parquet`` only those directories — the scan never touches the
    other lists' bytes. Returns (result, scan_stats) where scan_stats
    reports the measured scan-row reduction."""
    import glob
    import os

    import ray

    from ..functions.broadcast import cached_get
    from ..sources.io import read_parquet_sized

    qn, probe_dirs, all_dirs = _ivf_probe_dirs(store_dir, query, nprobe)
    if not probe_dirs:
        return pd.DataFrame({"id": [], "sim": []}), {"rows_scanned": 0, "rows_total": 0}
    probe_files = sorted(f for d in probe_dirs
                         for f in glob.glob(os.path.join(d, "*.parquet")))
    pruned = read_parquet_sized(probe_files, columns=[id_col, vec_col])
    q_ref = ray.put(qn)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        qv = cached_get(q_ref)
        mat = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
        norms = np.maximum(np.linalg.norm(mat, axis=1), 1e-12)
        sims = (mat @ qv) / norms
        return _batch_topk(batch[id_col].to_numpy(), sims, k)

    parts = pd.concat(
        list(pruned.map_batches(score, batch_format="pandas").iter_batches(
            batch_size=4 * k, batch_format="pandas")),
        ignore_index=True,
    )
    out = parts.sort_values(["sim", "id"], ascending=[False, True], kind="mergesort").head(k)
    # measured pruning: rows in probed partitions vs whole store, from
    # parquet FOOTER metadata only
    return out.reset_index(drop=True), ivf_scan_stats(store_dir, query, nprobe)


def ivf_topk(ds, id_col: str, vec_col: str, query: np.ndarray, k: int = 10,
             n_lists: int = 16, nprobe: int = 4, sample_rows: int = 4096,
             seed: int = 11) -> pd.DataFrame:
    """Approximate top-k via IVF: score only vectors assigned to the
    ``nprobe`` centroid lists nearest the query. Recall < 1 by design;
    grows with nprobe (nprobe == n_lists ⇒ exact)."""
    import ray

    cent = train_ivf_centroids(ds, vec_col, n_lists, sample_rows, seed=seed)
    q = np.asarray(query, dtype=np.float64)
    qn = q / np.linalg.norm(q)
    probe_lists = set(np.argsort(-(cent @ qn))[:nprobe].tolist())
    ref = ray.put((qn, cent, probe_lists))

    from ..functions.broadcast import cached_get

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        qv, c, probes = cached_get(ref)
        mat = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
        norms = np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        assign = np.argmax((mat / norms) @ c.T, axis=1)
        cand = np.isin(assign, list(probes))
        if not cand.any():
            return pd.DataFrame({"id": [], "sim": []})
        sub = mat[cand]
        sims = (sub @ qv) / np.linalg.norm(sub, axis=1)
        return _batch_topk(batch[id_col].to_numpy()[cand], sims, k)

    parts = pd.concat(
        list(ds.map_batches(score, batch_format="pandas").iter_batches(batch_size=4 * k, batch_format="pandas")),
        ignore_index=True,
    )
    out = parts.sort_values(["sim", "id"], ascending=[False, True], kind="mergesort").head(k)
    return out.reset_index(drop=True)
