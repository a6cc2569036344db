"""Product quantization (PQ) — compressed-domain ANN for the 100-TB
embedding path.

A d-dim float vector becomes ``m`` uint8 codes (one per d/m-dim
subspace), a 16–32× compression that lets a corpus whose raw embeddings
exceed aggregate cluster RAM live in the object store as code tables;
search runs in the compressed domain via asymmetric distance computation
(ADC: one tiny query→codebook lookup table per subspace, then a gather +
sum per row). Jégou, Douze, Schmid, "Product Quantization for Nearest
Neighbor Search", TPAMI 2011. Composes with the IVF store
(``similarity/knn.build_ivf_store``) the same way FAISS's IVF-PQ does:
coarse list pruning at the I/O level, PQ scan within probed lists.

Distributed shape:
- **Training** (``pq_train``) follows the ``kmeans_fit`` contract —
  broadcast codebooks, one ``map_batches`` pass per Lloyd round emitting
  a fixed-size partial PER BATCH covering ALL m subspaces at once
  (m × ksub × (dsub+1) floats), driver merge, centroids quantized to
  ``ROUND_TO`` dp per round so float summation order can't drift the
  oracle. Init per subspace = the sub-vectors of the ksub globally
  smallest ids. Empty codes keep their previous centroid.
- **Encoding** (``pq_encode``) is one stateless broadcast pass; codes
  emit as flat int64 columns ``c0..c{m-1}`` (Arrow-friendly, SQL-
  joinable — cast to uint8 at the storage boundary for the 16× win).
- **Search** (``pq_topk``) computes the per-subspace LUT once on the
  driver (m × ksub floats), broadcasts it, and folds mergeable per-batch
  top-k partials — no shuffle, same envelope as ``knn.cosine_topk``.

Determinism contract (what the SQL oracle replays from the side-table
codebooks): per-subspace assignment = argmin of the 6-dp-rounded
SQUARED L2, ties to the lowest code id; ADC distance = 6-dp-rounded sum
of per-subspace squared L2; final order (adc, id).
"""

from __future__ import annotations

import pickle

import numpy as np
import pandas as pd

ROUND_TO = 6


def _split(x: np.ndarray, m: int) -> np.ndarray:
    """(n, d) → (n, m, dsub); d must divide evenly by m."""
    n, d = x.shape
    if d % m:
        raise ValueError(f"vector dim {d} not divisible by m={m}")
    return x.reshape(n, m, d // m)


def _encode_block(x: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, d) × (m, ksub, dsub) → (n, m) int64 codes: per-subspace argmin
    of the ROUND_TO-rounded squared L2 (ties → lowest code)."""
    sub = _split(x, books.shape[0])  # (n, m, dsub)
    # (n, m, ksub): direct squared distances (not the dot-product
    # expansion) so the values match SQL's list_distance^2 bit-for-bit
    # within an ulp before the shared 6-dp round
    d2 = np.round(((sub[:, :, None, :] - books[None, :, :, :]) ** 2).sum(-1),
                  ROUND_TO)
    return np.argmin(d2, axis=2).astype(np.int64)


def pq_train(ds, id_col: str, vec_col: str, m: int = 8, ksub: int = 16,
             iters: int = 2, round_to: int = ROUND_TO) -> np.ndarray:
    """→ (m, ksub, dsub) codebooks after ``iters`` quantized Lloyd rounds
    over every subspace simultaneously (one pass per round)."""
    import ray

    from ..functions.broadcast import cached_get
    from .kmeans import _init_centroids

    init = _init_centroids(ds, id_col, vec_col, ksub)  # (ksub, d)
    books = np.round(np.ascontiguousarray(
        _split(init, m).transpose(1, 0, 2)), round_to)  # (m, ksub, dsub)

    for _ in range(iters):
        ref = ray.put(books)

        def partial(b: pd.DataFrame) -> pd.DataFrame:
            bk = cached_get(ref)
            x = np.stack(b[vec_col].to_numpy()).astype(np.float64)
            codes = _encode_block(x, bk)  # (n, m)
            sub = _split(x, bk.shape[0])  # (n, m, dsub)
            sums = np.zeros_like(bk)
            counts = np.zeros(bk.shape[:2])
            for j in range(bk.shape[0]):
                np.add.at(sums[j], codes[:, j], sub[:, j, :])
                counts[j] += np.bincount(codes[:, j], minlength=bk.shape[1])
            return pd.DataFrame({"p": [pickle.dumps((sums, counts))]})

        sums = np.zeros_like(books)
        counts = np.zeros(books.shape[:2])
        for b in ds.map_batches(partial, batch_format="pandas").iter_batches(
                batch_size=64, batch_format="pandas"):
            for blob in b["p"]:
                s, c = pickle.loads(blob)
                sums += s
                counts += c
        nonempty = counts > 0
        books[nonempty] = np.round(
            sums[nonempty] / counts[nonempty][:, None], round_to)
    return books


def pq_encode(ds, id_col: str, vec_col: str, books: np.ndarray):
    """→ Dataset ``(id_col, c0..c{m-1})`` int64 codes (uint8-safe values;
    kept int64 for Arrow/SQL ergonomics)."""
    import ray

    from ..functions.broadcast import cached_get

    ref = ray.put(books)
    m = books.shape[0]

    def encode(b: pd.DataFrame) -> pd.DataFrame:
        bk = cached_get(ref)
        x = np.stack(b[vec_col].to_numpy()).astype(np.float64)
        codes = _encode_block(x, bk)
        out = {id_col: b[id_col].to_numpy()}
        for j in range(m):
            out[f"c{j}"] = codes[:, j]
        return pd.DataFrame(out)

    return ds.map_batches(encode, batch_format="pandas")


def normalize_batch(x: np.ndarray) -> np.ndarray:
    """Unit-normalize rows with the explicit sqrt-of-sum-of-squares (NOT
    BLAS nrm2, whose rescaling yields different ulps than SQL's
    ``sqrt(list_inner_product(v, v))`` — the oracle replays this)."""
    n = np.sqrt((x * x).sum(axis=1, keepdims=True))
    return x / np.maximum(n, 1e-12)


def build_ivfpq_store(ds, store_dir: str, id_col: str, vec_col: str,
                      n_lists: int = 16, m: int = 8, ksub: int = 16,
                      iters: int = 2, sample_rows: int = 4096,
                      seed: int = 11,
                      residual: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """IVF-PQ: persist ONLY the code table, hive-partitioned by coarse
    list (``ivf_list=<n>/`` holding ``id_col, c0..c{m-1}``), plus the
    coarse centroids and PQ codebooks. The raw embedding column never
    reaches the store — at 100 TB the store is the corpus ÷ (d·4 / m)
    (16–32×), and a query reads only its ``nprobe`` directories' code
    bytes. Vectors are unit-normalized before PQ (cosine ranking ≡
    squared-L2 ranking on the unit sphere), so ADC order matches the
    cosine the coarse quantizer prunes by.

    ``residual=True`` is the FAISS-standard refinement: the PQ encodes
    ``v − centroid[list(v)]`` instead of ``v`` — residuals are much
    smaller than vectors, so the same ksub spends its resolution on the
    within-list structure. Search then builds one LUT per probed list
    (from ``q − centroid[l]``) instead of one global LUT; same code
    bytes, same pruning. → (centroids, codebooks)."""
    import json
    import os

    import ray

    from ..functions.broadcast import cached_get
    from .knn import IVFAssignStage, fit_unit_kmeans

    if ksub > 256:
        raise ValueError("ksub must fit uint8 storage (<= 256)")

    def norm_stage(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        x = normalize_batch(np.stack(b[vec_col].to_numpy()).astype(np.float64))
        b[vec_col] = list(x)
        return b

    # materialize the normalized copy deliberately: it is consumed ~5
    # times below (coarse sample, PQ init, one pass per Lloyd round,
    # final encode) and a lazy Dataset re-executes its whole upstream —
    # read + normalize — on EVERY consumption (CLAUDE.md trap). The
    # object store spills if it exceeds memory, which still beats
    # re-reads.
    normed = ds.map_batches(norm_stage, batch_format="pandas").materialize()
    # the coarse quantizer's seeded init is SAMPLE-ORDER-sensitive and
    # block order is task-completion order (run-dependent) — sample the
    # ``sample_rows`` SMALLEST-id vectors instead (content-deterministic
    # under any blocking; measured: stream-order sampling flipped
    # centroids run-to-run and broke the residual oracle). For residual
    # stores a centroid flip changes RESULTS, not just placement.
    best = None
    for b in normed.iter_batches(batch_size=1024, batch_format="pandas"):
        cand = b[[id_col, vec_col]].nsmallest(sample_rows, id_col)
        best = cand if best is None else \
            pd.concat([best, cand]).nsmallest(sample_rows, id_col)
    sample = np.stack(best.sort_values(id_col)[vec_col].to_numpy()
                      ).astype(np.float64)
    cent = fit_unit_kmeans(sample, n_lists, seed=seed)
    cent_ref = ray.put(cent)

    if residual:
        def to_residual(b: pd.DataFrame) -> pd.DataFrame:
            c = cached_get(cent_ref)
            b = IVFAssignStage(cent_ref, vec_col)(b)
            x = np.stack(b[vec_col].to_numpy()).astype(np.float64)
            b[vec_col] = list(x - c[b["ivf_list"].to_numpy()])
            return b

        # assignment + residual computed ONCE, shared by the train passes
        # and the final encode
        train_src = normed.map_batches(to_residual,
                                       batch_format="pandas").materialize()
    else:
        train_src = normed
    books = pq_train(train_src, id_col, vec_col, m=m, ksub=ksub, iters=iters)
    books_ref = ray.put(books)

    def assign_encode(b: pd.DataFrame) -> pd.DataFrame:
        if "ivf_list" not in b.columns:  # non-residual path assigns here
            b = IVFAssignStage(cent_ref, vec_col)(b)
        bk = cached_get(books_ref)
        x = np.stack(b[vec_col].to_numpy()).astype(np.float64)
        codes = _encode_block(x, bk)
        out = {id_col: b[id_col].to_numpy(), "ivf_list": b["ivf_list"].to_numpy(),
               # the partition value ALSO as an in-file column: hive strips
               # partition cols from file contents, and a residual search
               # needs each row's list for the per-list LUT gather (a
               # partition-column filter breaks Ray's fragment sampler);
               # RLE-dictionary makes the constant column ~free
               "list_id": b["ivf_list"].to_numpy().astype(np.int32)}
        for j in range(bk.shape[0]):
            # uint8 at the storage boundary — THE compression (1 byte per
            # code on disk instead of a plain int64 column)
            out[f"c{j}"] = codes[:, j].astype(np.uint8)
        return pd.DataFrame(out)

    # range-sort on the list id before the partitioned write: without it
    # every upstream block fans out one tiny file into EVERY list
    # directory (blocks × lists files — measured 8.5k files / 51 MB of
    # footer overhead for 500k vectors); sorted, each block lands in
    # 1–2 directories (~blocks + lists files). The exchange moves code
    # bytes only.
    train_src.map_batches(assign_encode, batch_format="pandas") \
        .sort("ivf_list") \
        .write_parquet(store_dir, partition_cols=["ivf_list"])
    for name, arr in (("_centroids.npy", cent), ("_pq_books.npy", books)):
        tmp = os.path.join(store_dir, f"._{name}.tmp.npy")
        np.save(tmp, arr)
        os.replace(tmp, os.path.join(store_dir, name))
    tmp = os.path.join(store_dir, "._meta.tmp")
    with open(tmp, "w") as f:
        json.dump({"residual": residual, "m": m, "ksub": ksub}, f)
    os.replace(tmp, os.path.join(store_dir, "_meta.json"))
    return cent, books


def ivfpq_topk_store(store_dir: str, id_col: str, query: np.ndarray,
                     k: int = 10, nprobe: int = 4) -> tuple[pd.DataFrame, dict]:
    """ADC top-k against a ``build_ivfpq_store`` layout: rank the
    committed coarse centroids, ``read_parquet`` ONLY the ``nprobe``
    nearest list directories (code columns — the store holds nothing
    else), and fold the broadcast LUT per batch. Returns (result,
    scan_stats with the measured row-level pruning). The query is
    normalized with the same kernel the store used."""
    import glob
    import json
    import os

    from ..sources.io import read_parquet_sized
    from .knn import _ivf_probe_dirs, ivf_scan_stats

    books = np.load(os.path.join(store_dir, "_pq_books.npy"))
    meta_path = os.path.join(store_dir, "_meta.json")
    residual = False
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            residual = json.load(f)["residual"]
    qn = normalize_batch(np.asarray(query, dtype=np.float64)[None, :])[0]
    _, probe_dirs, _ = _ivf_probe_dirs(store_dir, qn, nprobe)
    stats = ivf_scan_stats(store_dir, qn, nprobe)
    if not probe_dirs:
        return pd.DataFrame({id_col: [], "adc": []}), stats
    m = books.shape[0]
    cols = [id_col, *(f"c{j}" for j in range(m))]
    if not residual:
        files = sorted(f for d in probe_dirs
                       for f in glob.glob(os.path.join(d, "*.parquet")))
        codes = read_parquet_sized(files, columns=cols)
        return pq_topk(codes, id_col, books, qn, k=k), stats
    # residual store: one LUT per probed list (q − centroid[l]). All
    # probed lists scan in ONE dataset job — file-level pruning keeps
    # the I/O win (measured: nprobe sequential per-directory jobs paid
    # ~0.5 s fixed cost EACH) and the fold gathers through a
    # (lists, m, ksub) LUT indexed by each row's in-file list_id.
    import ray

    from ..functions.broadcast import cached_get

    cent = np.load(os.path.join(store_dir, "_centroids.npy"))
    lists = sorted(int(os.path.basename(d).split("=", 1)[1])
                   for d in probe_dirs)
    _, ksub, dsub = books.shape
    lut3 = np.zeros((len(cent), m, ksub))
    for lst in lists:
        qr = _split((qn - cent[lst])[None, :], m)[0]  # (m, dsub)
        lut3[lst] = ((qr[:, None, :] - books) ** 2).sum(-1)
    ref = ray.put(lut3)
    files = sorted(f for d in probe_dirs
                   for f in glob.glob(os.path.join(d, "*.parquet")))
    codes = read_parquet_sized(files, columns=[*cols, "list_id"])

    def part(b: pd.DataFrame) -> pd.DataFrame:
        t = cached_get(ref)
        cj = np.stack([b[f"c{j}"].to_numpy().astype(np.int64)
                       for j in range(m)], axis=1)
        lst = b["list_id"].to_numpy().astype(np.int64)
        adc = np.round(
            t[lst[:, None], np.arange(m)[None, :], cj].sum(axis=1), ROUND_TO)
        keep = pd.DataFrame({id_col: b[id_col].to_numpy(), "adc": adc})
        return keep.nsmallest(k, ["adc", id_col], keep="first") \
            if len(keep) > k else keep

    parts = codes.map_batches(part, batch_format="pandas").to_pandas()
    out = (parts.sort_values(["adc", id_col], kind="mergesort").head(k)
           .reset_index(drop=True))
    return out, stats


def pq_topk(codes_ds, id_col: str, books: np.ndarray, query: np.ndarray,
            k: int = 10) -> pd.DataFrame:
    """ADC top-k over a code table: smallest 6-dp-rounded approximate
    squared L2 to ``query``; ties → smallest id. Mergeable per-batch
    top-k partials, zero shuffle. → (id_col, adc) sorted, ≤ k rows."""
    import ray

    from ..functions.broadcast import cached_get

    m, ksub, dsub = books.shape
    qsub = _split(np.asarray(query, dtype=np.float64)[None, :], m)[0]  # (m, dsub)
    lut = ((qsub[:, None, :] - books) ** 2).sum(-1)  # (m, ksub)
    ref = ray.put(lut)

    def part(b: pd.DataFrame) -> pd.DataFrame:
        t = cached_get(ref)
        codes = np.stack([b[f"c{j}"].to_numpy() for j in range(m)], axis=1)
        adc = np.round(t[np.arange(m)[None, :], codes].sum(axis=1), ROUND_TO)
        keep = pd.DataFrame({id_col: b[id_col].to_numpy(), "adc": adc})
        return keep.nsmallest(k, ["adc", id_col], keep="first") \
            if len(keep) > k else keep

    parts = codes_ds.map_batches(part, batch_format="pandas").to_pandas()
    return (parts.sort_values(["adc", id_col], kind="mergesort").head(k)
            .reset_index(drop=True))
