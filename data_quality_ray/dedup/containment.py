"""Exact n-gram containment dedup — drop documents (nearly) CONTAINED
in a larger document.

Jaccard misses the subset/superset case: a paragraph quoted whole inside
a 10× longer page has tiny Jaccard but containment ≈ 1. The score here
is the asymmetric set-containment of the SMALLER shingle set,
``C(A,B) = |A ∩ B| / min(|A|,|B|)``, and the dedup decision drops the
contained (smaller) side — on ties, the larger id — keeping the
superset document. A doc is dropped if ANY verified pair dominates it
(not only kept docs), which keeps the decision local per pair,
deterministic, and SQL-replayable with a plain EXISTS — no iteration.

Pipeline (the SSJoin shape of ``dedup/ngram_jaccard.py``, with the
prefix filter adapted to the asymmetric threshold):

  1. shingle each doc (same hash semantics as minhash/ngram_jaccard so
     the SQL oracle lines up);
  2. postings with two roles: role 0 = the doc's first
     ``n - ceil(t*n) + 1`` tokens in the global (document-frequency,
     hash) order — COMPLETE for the contained side: if a pair has
     overlap ≥ t*|A| (A the smaller set), A cannot miss B on that whole
     prefix, else overlap ≤ ceil(t|A|) - 1 < t|A| — and role 1 = EVERY
     token (the containing side must be matchable anywhere, the
     asymmetric cost of containment joins vs Jaccard SSJoin);
  3. one token-keyed bucketed exchange pairs role-0 rows with role-1
     rows of no-smaller size;
  4. exact containment verify via the shared ``verify_pairs``
     (``metric="containment"`` — collect / broadcast / shuffle gates);
  5. per-doc dominated fold → (id, n_shingles, keep, contained_in).

Scale notes: role-1 postings carry the full shingle volume (≈ corpus
size) through ONE exchange; per-token pairing cost is
|prefix rows| × |full rows|, kept short by the frequency order (prefix
tokens are the rarest). The dominated map is bounded by the DUPLICATED
doc count, so the dataset route broadcasts it and streams the keep
column — the full corpus never lands on the driver (the
dedup/exact.py winners pattern).

Reference precedent: blocking-key candidates + exact pair verification
(genkey/BlockingKeyHandler.java, AbstractRecordGrouping.java); the
containment prefix filter follows the published AllPairs/PPJoin family
(Bayardo et al. 2007, Xiao et al. 2008) generalized to overlap
constraints (Chaudhuri et al. 2006).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..functions.exchange import bucket_exchange
from .minhash import (
    _cached_hasher,
    dedup_pairs_dataset,
    isin_sorted,
    verify_pairs,
)
from .ngram_jaccard import U64CountMin, _doc_token_sets, token_df_sketch

def containment_postings(ds, id_col: str, text_col: str, threshold: float,
                         shingle_size: int = 3, hash_fn: str = "stable",
                         cms: U64CountMin | None = None):
    """Stage 2: Dataset of (token, id, size, role) postings — role 0 the
    contained-side prefix, role 1 the full token set. The 1e-9 ceil
    slack can only LENGTHEN the prefix (completeness never lost to
    float rounding)."""
    import ray

    from ..functions.broadcast import cached_get

    cms_ref = ray.put(cms)

    def emit(b: pd.DataFrame) -> pd.DataFrame:
        mh = _cached_hasher(64, shingle_size, 17, hash_fn)
        sk = cached_get(cms_ref)
        ids, sets = _doc_token_sets(b[id_col].to_numpy(),
                                    b[text_col].to_numpy(), mh)
        if not ids:
            return pd.DataFrame({"token": pd.Series(dtype=np.uint64),
                                 id_col: b[id_col].iloc[:0],
                                 "size": pd.Series(dtype=np.int64),
                                 "role": pd.Series(dtype=np.int8)})
        pre_tok, pre_len = [], []
        for h in sets:
            n = len(h)
            if sk is not None:
                # np.unique already sorted h; frequency order = (est, hash)
                order = np.lexsort((h, sk.estimate(h)))
            else:
                order = np.arange(n)
            p = n - math.ceil(threshold * n - 1e-9) + 1
            pre_tok.append(h[order[:p]])
            pre_len.append(p)
        ids_arr = np.asarray(ids)
        sizes = np.asarray([len(h) for h in sets], dtype=np.int64)
        pre_len = np.asarray(pre_len, dtype=np.int64)
        return pd.DataFrame({
            "token": np.concatenate(pre_tok + sets),
            id_col: np.concatenate([np.repeat(ids_arr, pre_len),
                                    np.repeat(ids_arr, sizes)]),
            "size": np.concatenate([np.repeat(sizes, pre_len),
                                    np.repeat(sizes, sizes)]),
            "role": np.concatenate([np.zeros(int(pre_len.sum()), np.int8),
                                    np.ones(int(sizes.sum()), np.int8)]),
        })

    return ds.map_batches(emit, batch_format="pandas")


def candidate_pairs_containment(postings, id_col: str, n_buckets: int = 64,
                                as_dataset: bool = False):
    """Stage 3: token-keyed bucketed pairing of role-0 (prefix) rows with
    role-1 (full) rows of no-smaller size → normalized unique candidate
    pairs (id_a < id_b). Never a Python callback per tiny posting group
    — one vectorized pass per hash bucket."""

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["token", "role", id_col], kind="mergesort")
        ids = g[id_col].to_numpy()
        szs = g["size"].to_numpy()
        roles = g["role"].to_numpy()
        runs = g.groupby("token", sort=False).size().to_numpy()
        offs = np.concatenate([[0], np.cumsum(runs)])
        ia_all, ib_all = [], []
        for s, e in zip(offs[:-1], offs[1:]):
            # roles sorted within the run: prefix rows first
            k = s + int(np.searchsorted(roles[s:e], 1))
            npre, nfull = k - s, e - k
            if npre == 0 or nfull == 0:
                continue
            ia = np.repeat(np.arange(s, k), nfull)
            ib = np.tile(np.arange(k, e), npre)
            keep = (ids[ia] != ids[ib]) & (szs[ia] <= szs[ib])
            ia_all.append(ia[keep])
            ib_all.append(ib[keep])
        if not ia_all:
            return pd.DataFrame({"id_a": pd.Series(dtype=ids.dtype),
                                 "id_b": pd.Series(dtype=ids.dtype)})
        ia = np.concatenate(ia_all)
        ib = np.concatenate(ib_all)
        return pd.DataFrame({"id_a": np.minimum(ids[ia], ids[ib]),
                             "id_b": np.maximum(ids[ia], ids[ib])})

    out = bucket_exchange(postings, "token", pairs_in_bucket, n_buckets)
    if as_dataset:
        return dedup_pairs_dataset(out)
    return (out.to_pandas().drop_duplicates(subset=["id_a", "id_b"])
            .reset_index(drop=True))


def shingle_sizes(ds, id_col: str, text_col: str, shingle_size: int = 3,
                  hash_fn: str = "stable"):
    """One stateless pass → Dataset of (id, n_shingles) for EVERY row
    (0 for empty/None text)."""

    def sizes(b: pd.DataFrame) -> pd.DataFrame:
        mh = _cached_hasher(64, shingle_size, 17, hash_fn)
        return pd.DataFrame({
            id_col: b[id_col].to_numpy(),
            "n_shingles": np.asarray(
                [len(np.unique(mh.shingles(t if isinstance(t, str) else "")))
                 for t in b[text_col].to_numpy()], dtype=np.int64)})

    return ds.map_batches(sizes, batch_format="pandas")


def _dominated(pairs: pd.DataFrame) -> pd.DataFrame:
    """Per verified pair: dominated id (smaller set; ties → larger id)
    and its dominator → per-id min dominator frame (id, contained_in)."""
    na, nb = pairs["n_a"].to_numpy(), pairs["n_b"].to_numpy()
    ia, ib = pairs["id_a"].to_numpy(), pairs["id_b"].to_numpy()
    dom = np.where(na < nb, ia, np.where(nb < na, ib, np.maximum(ia, ib)))
    by = np.where(na < nb, ib, np.where(nb < na, ia, np.minimum(ia, ib)))
    return (pd.DataFrame({"id": dom, "by": by})
            .groupby("id", sort=True)["by"].min()
            .rename("contained_in").reset_index())


def containment_dedup(ds, id_col: str, text_col: str, threshold: float = 0.8,
                      shingle_size: int = 3, hash_fn: str = "stable",
                      ordering: str = "cms", n_buckets: int = 64,
                      output: str = "pandas"):
    """Full containment-dedup pass → (id, n_shingles, keep,
    contained_in) for EVERY input row; ``contained_in`` = the smallest
    dominating doc id, or -1 when kept. ``output="dataset"`` keeps
    pairs, verification, and the dominated fold distributed; the driver
    holds the frequency sketch, the candidate-id prefilter, and the
    dominated map (bounded by the duplicated doc count)."""
    cms = (token_df_sketch(ds, text_col, shingle_size, hash_fn)
           if ordering == "cms" else None)
    postings = containment_postings(ds, id_col, text_col, threshold,
                                    shingle_size, hash_fn, cms)
    sizes = shingle_sizes(ds, id_col, text_col, shingle_size, hash_fn)

    if output == "dataset":
        import ray

        from ..functions.broadcast import cached_get

        pairs_ds = candidate_pairs_containment(
            postings, id_col, n_buckets, as_dataset=True).materialize()
        verified = verify_pairs(ds, pairs_ds, id_col, text_col, threshold,
                                shingle_size, hash_fn,
                                metric="containment").materialize()
        # size lookup for the verified ids only (bounded by the
        # candidate doc count — the verify-broadcast bound)
        vid_parts = [np.concatenate([b["id_a"].to_numpy(), b["id_b"].to_numpy()])
                     for b in verified.iter_batches(batch_size=65536,
                                                    batch_format="pandas")]
        vids = (np.unique(np.concatenate(vid_parts)) if vid_parts
                else np.empty(0, dtype=np.int64))
        vref = ray.put(vids)

        def cand_sizes(b: pd.DataFrame) -> pd.DataFrame:
            return b.loc[isin_sorted(cached_get(vref), b[id_col].to_numpy())]

        sz = sizes.map_batches(cand_sizes, batch_format="pandas").to_pandas()
        # Ray drops empty-block schemas: a zero-candidate corpus comes
        # back as a columnless empty frame
        lut_ids = (sz[id_col].to_numpy() if len(sz)
                   else np.empty(0, dtype=np.int64))
        order = np.argsort(lut_ids, kind="mergesort")
        lut_ids = lut_ids[order]
        lut_n = (sz["n_shingles"].to_numpy()[order] if len(sz)
                 else np.empty(0, dtype=np.int64))
        lref = ray.put((lut_ids, lut_n))

        def fold_batch(b: pd.DataFrame) -> pd.DataFrame:
            # per-batch partial: dominated (id, by-min), so the keyed
            # exchange moves ≤ one row per (id, batch)
            if b.empty:  # schemaless empty block from a zero-pair corpus
                return pd.DataFrame({"id": pd.Series(dtype=np.int64),
                                     "by": pd.Series(dtype=np.int64)})
            li, ln = cached_get(lref)
            b = b.copy()
            b["n_a"] = ln[np.searchsorted(li, b["id_a"].to_numpy())]
            b["n_b"] = ln[np.searchsorted(li, b["id_b"].to_numpy())]
            return _dominated(b).rename(columns={"contained_in": "by"})

        def min_by(g: pd.DataFrame) -> pd.DataFrame:
            return (g.groupby("id", sort=True)["by"].min()
                    .rename("contained_in").reset_index())

        dom = bucket_exchange(verified.map_batches(fold_batch, batch_format="pandas"),
                              "id", min_by).to_pandas()
        dom_ids = dom["id"].to_numpy() if len(dom) else np.empty(0, np.int64)
        dorder = np.argsort(dom_ids, kind="mergesort")
        dom_ids = dom_ids[dorder]
        dom_by = (dom["contained_in"].to_numpy()[dorder] if len(dom)
                  else np.empty(0, np.int64))
        dref = ray.put((dom_ids, dom_by))

        def keep_batch(b: pd.DataFrame) -> pd.DataFrame:
            di, db = cached_get(dref)
            v = b[id_col].to_numpy()
            hit = isin_sorted(di, v)
            b = b.copy()
            b["keep"] = ~hit
            ci = np.full(len(v), -1, dtype=np.int64)
            if len(di):
                pos = np.searchsorted(di, v)
                ci[hit] = db[pos[hit]]
            b["contained_in"] = ci
            return b

        return sizes.map_batches(keep_batch, batch_format="pandas")

    pairs = candidate_pairs_containment(postings, id_col, n_buckets)
    sizes_pd = sizes.to_pandas()
    if pairs.empty:
        out = sizes_pd.copy()
        out["keep"] = True
        out["contained_in"] = np.int64(-1)
        return out.sort_values(id_col, kind="mergesort").reset_index(drop=True)
    verified = verify_pairs(ds, pairs, id_col, text_col, threshold,
                            shingle_size, hash_fn, metric="containment")
    szmap = sizes_pd.set_index(id_col)["n_shingles"]
    verified = verified.assign(n_a=szmap.reindex(verified["id_a"]).to_numpy(),
                               n_b=szmap.reindex(verified["id_b"]).to_numpy())
    dom = _dominated(verified)
    out = sizes_pd.merge(dom, left_on=id_col, right_on="id", how="left")
    out["keep"] = out["contained_in"].isna()
    out["contained_in"] = out["contained_in"].fillna(-1).astype(np.int64)
    return (out[[id_col, "n_shingles", "keep", "contained_in"]]
            .sort_values(id_col, kind="mergesort").reset_index(drop=True))
