"""Exact n-gram Jaccard near-duplicate detection via a prefix-filter
set-similarity self-join (the SSJoin / AllPairs / PPJoin family —
Chaudhuri et al. 2006, Bayardo et al. 2007, Xiao et al. 2008).

Unlike MinHash+LSH (probabilistic candidates) this finds EVERY pair with
shingle-set Jaccard >= t:

  1. shingle each doc (word n-grams, distinct 64-bit hashes) — the same
     shingle/hash semantics as ``dedup/minhash.py`` so verification and
     the SQL oracle line up;
  2. order each doc's tokens by a GLOBAL total order and emit only the
     first ``|X| - ceil(t*|X|) + 1`` tokens as postings (prefix filter:
     two sets with J >= t must share a token within these prefixes);
  3. ``groupby`` the postings by token — the only shuffle — and pair ids
     within each posting list (plus the |A|>=t*|B| length filter);
  4. exact shingle-set Jaccard over the deduped candidates via the
     distributed ``verify_pairs`` (collect under the gate, bucketed
     shuffle join above it);
  5. connected components -> (id, cluster = min id), the shared
     union-find / distributed min-label gate.

Global token order: prefix filtering is COMPLETE under any shared total
order; frequency order (rarest first) is purely a selectivity
optimization that keeps posting lists short on boilerplate-heavy
corpora. Rather than broadcasting a vocabulary-sized rank table, the
order key is ``(count-min document-frequency estimate, token hash)`` —
the sketch is fixed-size (depth x width), mergeable from per-batch
partials, and broadcast once, so the frequency path has NO
vocabulary-proportional state at any scale. ``ordering="hash"`` is the
stateless fallback (skip the counting pass entirely).

Reference precedent: blocking-key candidate generation + exact pair
verification (genkey/BlockingKeyHandler.java, AbstractRecordGrouping.java
match loop); the reference has no set-similarity join — this is one of
the beyond-reference training-data-pipeline operators.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..functions.exchange import bucket_exchange
from ..profiling.sketches import CountMinSketch
from .minhash import (
    _cached_hasher,
    components,
    dedup_pairs_dataset,
    distributed_components,
    verify_pairs,
)


class U64CountMin(CountMinSketch):
    """Count-min over already-hashed uint64 keys: row positions are
    derived from the key itself (salted odd-multiplier family), skipping
    the per-value string hashing of the generic sketch."""

    def _positions(self, values: np.ndarray) -> np.ndarray:
        h = np.asarray(values, dtype=np.uint64)
        out = np.empty((self.depth, len(h)), dtype=np.int64)
        for d in range(self.depth):
            salt = np.uint64((d * 0x9E3779B97F4A7C15) % (1 << 64))
            out[d] = ((h * np.uint64(2 * d + 1) + salt)
                      % np.uint64(self.width)).astype(np.int64)
        return out

    # parent coerces to object dtype before hashing; uint64 keys keep
    # their dtype straight through _positions
    def update_array(self, values: np.ndarray, counts: np.ndarray | None = None) -> None:
        values = np.asarray(values, dtype=np.uint64)
        if len(values) == 0:
            return
        c = (np.ones(len(values), dtype=np.int64) if counts is None
             else np.asarray(counts))
        pos = self._positions(values)
        for d in range(self.depth):
            np.add.at(self.table[d], pos[d], c)
        self.n += int(c.sum())

    def estimate(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.uint64)
        if len(values) == 0:
            return np.empty(0, dtype=np.int64)
        pos = self._positions(values)
        return np.stack([self.table[d][pos[d]]
                         for d in range(self.depth)]).min(axis=0)


def _doc_token_sets(batch_ids, batch_texts, mh):
    """Distinct shingle-hash set per doc -> (ids, list of uint64 arrays)."""
    ids, sets = [], []
    for i, t in zip(batch_ids, batch_texts):
        h = np.unique(mh.shingles(t if isinstance(t, str) else ""))
        if len(h):
            ids.append(i)
            sets.append(h)
    return ids, sets


def token_df_sketch(ds, text_col: str, shingle_size: int = 3,
                    hash_fn: str = "stable", width: int = 8192,
                    depth: int = 4) -> U64CountMin:
    """Document-frequency count-min over distinct shingle hashes: one
    fixed-size partial per batch (pickled, one tiny row each), merged on
    the driver — the mergeable-statistics-bean pattern
    (CardinalityHLLStatistics.java:53-58)."""
    import pickle

    import pyarrow as pa

    def partial(batch: pa.Table) -> pa.Table:
        mh = _cached_hasher(64, shingle_size, 17, hash_fn)
        acc = U64CountMin(width=width, depth=depth)
        texts = batch[text_col].to_numpy(zero_copy_only=False)
        _, sets = _doc_token_sets(range(len(texts)), texts, mh)
        if sets:
            acc.update_array(np.concatenate(sets))
        return pa.table({"p": pa.array([pickle.dumps(acc)], type=pa.binary())})

    merged = U64CountMin(width=width, depth=depth)
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_size=64, batch_format="pyarrow"):
        for blob in b["p"]:
            merged = merged.merge(pickle.loads(blob.as_py()))
    return merged


def prefix_postings(ds, id_col: str, text_col: str, threshold: float,
                    shingle_size: int = 3, hash_fn: str = "stable",
                    cms: U64CountMin | None = None):
    """Stage 2: Dataset of (token, id, size) prefix postings. Prefix
    length ``n - ceil(t*n) + 1`` uses a 1e-9 slack under the ceil so a
    float threshold can only LENGTHEN the prefix (completeness is never
    lost to rounding)."""
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
                                 "size": pd.Series(dtype=np.int64)})
        all_tok = np.concatenate(sets)
        est = sk.estimate(all_tok) if sk is not None else None
        sel, plens = [], []
        off = 0
        for h in sets:
            n = len(h)
            e = None if est is None else est[off:off + n]
            off += n
            # np.unique already sorted h; frequency order = (est, hash)
            order = np.arange(n) if e is None else np.lexsort((h, e))
            p = n - math.ceil(threshold * n - 1e-9) + 1
            sel.append(h[order[:p]])
            plens.append(p)
        plens = np.asarray(plens, dtype=np.int64)
        return pd.DataFrame({
            "token": np.concatenate(sel),
            id_col: np.repeat(np.asarray(ids), plens),
            "size": np.repeat(np.asarray([len(h) for h in sets],
                                         dtype=np.int64), plens),
            # position of the token in the doc's full frequency-sorted
            # order (prefix = first p, so prefix index == global index);
            # feeds the positional filter in candidate_pairs_ssjoin
            "pos": np.concatenate([np.arange(p, dtype=np.int64)
                                   for p in plens]) if len(plens)
                   else np.zeros(0, dtype=np.int64),
        })

    return ds.map_batches(emit, batch_format="pandas")


def candidate_pairs_ssjoin(postings, id_col: str, threshold: float,
                           n_buckets: int = 64, as_dataset: bool = False):
    """Stage 3: hash-bucketed posting-list pairing (never a Python
    callback per tiny posting group — the dedup/simhash.py bucket shape):
    sort by (token, id) inside each bucket, triu-pair each posting run,
    apply the Jaccard length filter min >= t*max (with float slack so the
    filter can only keep more), dedupe pairs.

    ``as_dataset=True`` keeps pairs DISTRIBUTED: the same pair can
    surface from several tokens in different buckets, so uniqueness gets
    one more keyed shuffle (the minhash ``candidate_pairs`` shape) and
    the pair set never lands on the driver."""

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(subset=["token", id_col])
        g = g.sort_values(["token", id_col], kind="mergesort")
        ids = g[id_col].to_numpy()
        szs = g["size"].to_numpy()
        runs = g.groupby("token", sort=False).size().to_numpy()
        offs = np.concatenate([[0], np.cumsum(runs)])
        ia_all, ib_all = [], []
        for s, e in zip(offs[:-1], offs[1:]):
            if e - s > 1:
                ia, ib = np.triu_indices(e - s, k=1)
                ia_all.append(ia + s)
                ib_all.append(ib + s)
        if not ia_all:
            return pd.DataFrame({"id_a": pd.Series(dtype=ids.dtype),
                                 "id_b": pd.Series(dtype=ids.dtype)})
        ia = np.concatenate(ia_all)
        ib = np.concatenate(ib_all)
        sa, sb = szs[ia], szs[ib]
        keep = np.minimum(sa, sb) >= threshold * np.maximum(sa, sb) - 1e-9
        # positional filter (PPJoin family, per-occurrence-safe variant):
        # common tokens before this one in the shared frequency order
        # ≤ min(pa, pb); after it ≤ min(sa-pa-1, sb-pb-1); so overlap
        # ≤ min(pa,pb) + 1 + min(sa-pa-1, sb-pb-1) — valid for EVERY
        # occurrence (not just the pair's first), and a pair survives if
        # ANY of its occurrences passes, so completeness is preserved.
        # Required overlap: J ≥ t ⟺ c ≥ t(sa+sb)/(1+t).
        pos = g["pos"].to_numpy()
        pa, pb = pos[ia], pos[ib]
        ub = np.minimum(pa, pb) + 1 + np.minimum(sa - pa - 1, sb - pb - 1)
        keep &= ub >= threshold * (sa + sb) / (1.0 + threshold) - 1e-9
        # ids ascend within each posting run, so id_a < id_b already
        return pd.DataFrame({"id_a": ids[ia[keep]], "id_b": ids[ib[keep]]})

    out = bucket_exchange(postings, "token", pairs_in_bucket, n_buckets)
    if as_dataset:
        return dedup_pairs_dataset(out)
    return (out.to_pandas().drop_duplicates(subset=["id_a", "id_b"])
            .reset_index(drop=True))


def ngram_jaccard_dedup(ds, id_col: str, text_col: str, threshold: float = 0.5,
                        shingle_size: int = 3, hash_fn: str = "stable",
                        ordering: str = "cms", n_buckets: int = 64,
                        cms_width: int = 8192, cms_depth: int = 4,
                        output: str = "pandas"):
    """Full exact-Jaccard near-dup pass -> (id, cluster = min id of the
    connected component) for docs in clusters with J >= threshold.
    ``ordering="cms"`` (default) runs the document-frequency sketch pass
    first; ``"hash"`` skips it (stateless, longer posting lists).

    ``output="dataset"`` is the fully-distributed route: pairs,
    verification, and components all stay Ray Datasets (the
    minhash_dedup dataset-route shape); the driver holds only the
    fixed-size frequency sketch and the candidate-id prefilter array."""
    if ordering not in ("cms", "hash"):
        raise ValueError(f"unknown ordering {ordering!r}")
    cms = (token_df_sketch(ds, text_col, shingle_size, hash_fn,
                           cms_width, cms_depth)
           if ordering == "cms" else None)
    postings = prefix_postings(ds, id_col, text_col, threshold,
                               shingle_size, hash_fn, cms)

    if output == "dataset":
        pairs_ds = candidate_pairs_ssjoin(postings, id_col, threshold,
                                          n_buckets, as_dataset=True).materialize()
        verified = verify_pairs(ds, pairs_ds, id_col, text_col, threshold,
                                shingle_size, hash_fn, strategy="shuffle")
        # id_name, not a rename map_batches after: Ray drops empty-block
        # schemas, so a zero-pair corpus would lose its columns
        return distributed_components(verified, as_dataset=True,
                                      id_name=id_col)

    pairs = candidate_pairs_ssjoin(postings, id_col, threshold, n_buckets)
    if pairs.empty:
        return pd.DataFrame({id_col: [], "cluster": []})
    verified = verify_pairs(ds, pairs, id_col, text_col, threshold,
                            shingle_size, hash_fn)
    if verified.empty:
        return pd.DataFrame({id_col: [], "cluster": []})
    return components(verified[["id_a", "id_b"]],
                      "ngram_jaccard.ngram_jaccard_dedup") \
        .rename(columns={"id": id_col})


def lsh_recall_eval(ds, id_col: str, text_col: str, threshold: float = 0.5,
                    n_perm: int = 64, bands: int = 16, shingle_size: int = 3,
                    seed: int = 17, hash_fn: str = "stable",
                    n_buckets: int = 64) -> pd.DataFrame:
    """Grade MinHash+LSH candidate generation against exact ground
    truth — one row (n_cand, n_truth, n_hit, precision, recall).

    Candidates = band collisions (``dedup/minhash.minhash_bands`` →
    ``candidate_pairs``, PRE-verification — the thing LSH actually
    promises). Truth = EVERY pair with exact shingle-set Jaccard >=
    threshold, from the complete prefix-filter SSJoin (exhaustive under
    the shared total order) + exact verification. Both sides share one
    shingle/hash definition (this module reuses minhash's hasher), so
    the intersection is well-defined; precision = hit/cand measures
    wasted verification work, recall = hit/truth measures missed
    near-dups at the operating point (n_perm, bands, threshold).

    Docs with an empty shingle set are EXCLUDED up front: an empty doc
    collides in every LSH band (constant signature) but emits no
    postings, so the pair would be definitional noise on both axes.
    The filtered input materializes once (consumed by both sides —
    the documented lazy-re-execution trap otherwise).

    Scale: pair sets ride the modules' own collect/shuffle gates and
    the outputs are three scalars; the truth side is the exact SSJoin —
    the expensive object being graded — so at corpus scale run the eval
    on a sampled id range and extrapolate, as any LSH-tuning loop does.
    """
    from .minhash import candidate_pairs, minhash_bands

    def nonempty(b: pd.DataFrame) -> pd.DataFrame:
        return b[b[text_col].fillna("").str.split().str.len() > 0]

    ds = ds.map_batches(nonempty, batch_format="pandas").materialize()

    band_ds = minhash_bands(ds, id_col, text_col, n_perm=n_perm,
                            bands=bands, shingle_size=shingle_size,
                            seed=seed, hash_fn=hash_fn)
    cand = candidate_pairs(band_ds, id_col)

    cms = token_df_sketch(ds, text_col, shingle_size, hash_fn)
    postings = prefix_postings(ds, id_col, text_col, threshold,
                               shingle_size, hash_fn, cms)
    sscand = candidate_pairs_ssjoin(postings, id_col, threshold, n_buckets)
    truth = (verify_pairs(ds, sscand, id_col, text_col, threshold,
                          shingle_size, hash_fn)
             if not sscand.empty else sscand)

    n_cand, n_truth = len(cand), len(truth)
    n_hit = 0 if not n_cand or not n_truth else len(
        cand.merge(truth[["id_a", "id_b"]], on=["id_a", "id_b"]))
    return pd.DataFrame({
        "n_cand": [np.int64(n_cand)], "n_truth": [np.int64(n_truth)],
        "n_hit": [np.int64(n_hit)],
        "precision": [n_hit / n_cand if n_cand else 0.0],
        "recall": [n_hit / n_truth if n_truth else 0.0],
    })
