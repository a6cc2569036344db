"""MinHash + LSH near-duplicate detection.

Pipeline shape (the canonical web-scale text-dedup recipe):
  1. shingle each doc (word n-grams) and minhash → signature of
     ``n_perm`` 64-bit minima, per batch, vectorized;
  2. split the signature into ``bands``; explode to one row per
     (band_id, band_key, doc_id);
  3. ``groupby(["band_id", "band_hash"])`` — the only shuffle; docs
     sharing any band bucket are candidate pairs;
  4. verify candidates with exact shingle-set Jaccard;
  5. connected components → cluster id per doc (min id of the
     component); keep min doc per cluster.

Reference precedent: blocking-key dedup (genkey/BlockingKeyHandler.java)
with the band key as the generated key; the per-group "first wins"
mirrors master-record selection in AbstractRecordGrouping.java:201-254.

Scale defaults: ``candidate_pairs(strategy="auto")`` collects the band
table only while it is provably small (row-count check on the
materialized band table) and otherwise shuffles; components go through
driver union-find only for small verified-pair sets and otherwise through
distributed iterated min-label propagation (``distributed_components``).

Hashing: ``hash_fn="stable"`` (SipHash via pandas.util.hash_array, the
fast default) or ``hash_fn="md5"`` (low half of md5 == DuckDB's
``md5_number_lower``), which makes the whole pipeline — signatures, band
keys, candidates, Jaccard verification, components — reproducible in SQL
for the driver's correctness oracle. Permutations are the standard
(a·h + b) mod p family over a seeded generator; arithmetic wraps mod 2^64
(numpy uint64) before the Mersenne-prime mod, and the oracle replicates
that exactly with HUGEINT math.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pandas as pd

from ..functions.exchange import bucket_exchange
from ..functions.gate import fits
from ..profiling.sketches import HASH64

_P = np.uint64((1 << 61) - 1)  # Mersenne prime 2^61-1
_U64_MAX = np.iinfo(np.uint64).max


def perm_coefficients(n_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (a, b) permutation constants — exposed so the SQL oracle can
    embed the identical values."""
    rng = np.random.RandomState(seed)
    a = rng.randint(1, 1 << 61, size=n_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.randint(0, 1 << 61, size=n_perm, dtype=np.uint64)
    return a, b


def tune_lsh_params(threshold: float, n_perm: int = 64,
                    fp_weight: float = 0.5,
                    fn_weight: float = 0.5) -> tuple[int, int]:
    """Pick (bands, rows) for the LSH banding scheme by minimizing the
    weighted false-positive/false-negative probability mass of the
    S-curve ``P(candidate | s) = 1 − (1 − s^rows)^bands`` around the
    Jaccard ``threshold`` (the datasketch `_optimal_param` integral,
    public algorithm, re-derived): fp = ∫₀^t P(s) ds, fn = ∫ₜ^1
    (1 − P(s)) ds, both by 1000-point midpoint rule. Only factorizations
    with bands × rows ≤ n_perm are considered. Deterministic; pure
    driver-side math — feed the result to `minhash_bands` /
    `minhash_dedup`."""
    if not 0 < threshold < 1:
        raise ValueError("threshold must be in (0,1)")
    xs = (np.arange(1000) + 0.5) / 1000.0
    best, best_err = (1, n_perm), float("inf")
    for rows in range(1, n_perm + 1):
        for bands in range(1, n_perm // rows + 1):
            p = 1.0 - (1.0 - xs ** rows) ** bands
            fp = p[xs < threshold].sum() / 1000.0
            fn = (1.0 - p[xs >= threshold]).sum() / 1000.0
            err = fp_weight * fp + fn_weight * fn
            if err < best_err:
                best, best_err = (bands, rows), err
    return best


def shingle_strings(text: str | None, k: int) -> list[str]:
    toks = (text or "").lower().split()
    if not toks:
        return []
    if len(toks) < k:
        return [" ".join(toks)]
    return [" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)]


class MinHasher:
    def __init__(self, n_perm: int = 64, shingle_size: int = 3, seed: int = 17,
                 hash_fn: str = "stable"):
        self.a, self.b = perm_coefficients(n_perm, seed)
        self.n_perm = n_perm
        self.shingle_size = shingle_size
        self.hash = HASH64[hash_fn]

    def shingles(self, text: str) -> np.ndarray:
        grams = shingle_strings(text, self.shingle_size)
        return self.hash(np.array(grams, dtype=object)) if grams else np.empty(0, dtype=np.uint64)

    def signature(self, text: str) -> np.ndarray:
        return self.signatures_batch([text])[0]

    def signatures_batch(self, texts) -> np.ndarray:
        """(n_rows × n_perm) signatures with ONE hash call over the
        batch's unique shingles (shingles repeat heavily across docs);
        per-row minima via ``np.minimum.reduceat`` on row boundaries."""
        gram_lists = [shingle_strings(t, self.shingle_size) for t in texts]
        counts = np.array([len(g) for g in gram_lists], dtype=np.int64)
        n = len(gram_lists)
        out = np.full((n, self.n_perm), _U64_MAX, dtype=np.uint64)
        if counts.sum() == 0:
            return out
        flat = np.array([g for gl in gram_lists for g in gl], dtype=object)
        uniq, inv = np.unique(flat, return_inverse=True)
        h = self.hash(uniq)
        # (n_perm × n_uniq) permuted values; wraparound mod 2^64 then mod p
        perm_vals = (np.multiply.outer(self.a, h) + self.b[:, None]) % _P
        flat_vals = perm_vals[:, inv]  # n_perm × n_flat, in row order
        nonempty = counts > 0
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])[nonempty]
        mins = np.minimum.reduceat(flat_vals, starts, axis=1)  # n_perm × n_nonempty
        out[nonempty] = mins.T
        return out


@lru_cache(maxsize=8)
def _cached_hasher(n_perm: int, shingle_size: int, seed: int, hash_fn: str) -> MinHasher:
    return MinHasher(n_perm, shingle_size, seed, hash_fn)


def minhash_bands(ds, id_col: str, text_col: str, n_perm: int = 64, bands: int = 16,
                  shingle_size: int = 3, seed: int = 17, hash_fn: str = "stable"):
    """Stage 1+2: Dataset of (band_id, band_hash, id) rows.

    band_hash is a 64-bit re-hash of the signature slice in "stable" mode
    (compact shuffle key), and the raw "v|v|v|v" slice string in "md5"
    mode (lets the SQL oracle reproduce the bucket key verbatim).

    Runs as TASKS with a per-worker-process hasher cache (the pattern of
    north.py's phase-1 tasks) — the hasher is cheap to build, and an
    actor pool's spin-up dominates small jobs."""
    rows_per_band = n_perm // bands

    def sign(batch: pd.DataFrame) -> pd.DataFrame:
        mh = _cached_hasher(n_perm, shingle_size, seed, hash_fn)
        sigs = mh.signatures_batch(batch[text_col].to_numpy(dtype=object))
        band_strs = np.array(
            ["|".join(map(str, sig[b * rows_per_band : (b + 1) * rows_per_band]))
             for sig in sigs for b in range(bands)],
            dtype=object,
        )
        keys = band_strs if hash_fn == "md5" else HASH64["stable"](band_strs).astype(np.int64)
        return pd.DataFrame({
            "band_id": np.tile(np.arange(bands), len(sigs)),
            "band_hash": keys,
            id_col: np.repeat(batch[id_col].to_numpy(), bands),
        })

    return ds.map_batches(sign, batch_format="pandas", batch_size=1024)


def candidate_pairs(band_ds, id_col: str, strategy: str = "auto",
                    as_dataset: bool = False):
    """Stage 3: docs sharing a (band_id, band_hash) bucket → unique pairs.

    - "auto" (default): materialize the band table (tiny rows), check its
      size, and pick collect vs shuffle — the scale-safe default.
    - "collect": driver-side pandas self-merge on duplicated buckets.
    - "shuffle": ``groupby(band).map_groups`` over hash buckets of band
      keys — no driver-side state; for corpora whose band table is too
      big for one node. Bucketing keeps the Python callback per hash
      bucket (vectorized pandas inside), not per tiny band group.

    ``as_dataset=True`` (shuffle path only) keeps the pairs DISTRIBUTED:
    returns the pair Dataset after a bucketed cross-band dedup round —
    the same pair can surface from several bands whose buckets live in
    different groups, so uniqueness needs one more keyed shuffle. Use for
    corpora whose pair set itself exceeds driver memory.
    """
    if strategy == "auto":
        band_ds = band_ds.materialize()
        strategy = ("collect" if fits("minhash.candidate_pairs", band_ds.count(),
                                      "collect_rows") else "shuffle")

    if as_dataset and strategy != "shuffle":
        raise ValueError("as_dataset=True requires strategy='shuffle'")

    if strategy == "shuffle":
        def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
            g = g.drop_duplicates(["band_id", "band_hash", id_col])
            dup = g[g.duplicated(["band_id", "band_hash"], keep=False)]
            if dup.empty:
                return pd.DataFrame({"id_a": [], "id_b": []})
            m = dup.merge(dup, on=["band_id", "band_hash"], suffixes=("_a", "_b"))
            m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
            return m[[f"{id_col}_a", f"{id_col}_b"]].rename(
                columns={f"{id_col}_a": "id_a", f"{id_col}_b": "id_b"}).drop_duplicates()

        out = bucket_exchange(band_ds, ["band_id", "band_hash"], pairs_in_bucket)
        if as_dataset:
            return dedup_pairs_dataset(out)
        return out.to_pandas().drop_duplicates().reset_index(drop=True)

    pdf = band_ds.to_pandas()
    dup = pdf[pdf.duplicated(["band_id", "band_hash"], keep=False)]
    if dup.empty:
        return pd.DataFrame({"id_a": [], "id_b": []})
    m = dup.merge(dup, on=["band_id", "band_hash"], suffixes=("_a", "_b"))
    m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
    out = m[[f"{id_col}_a", f"{id_col}_b"]].rename(
        columns={f"{id_col}_a": "id_a", f"{id_col}_b": "id_b"})
    return out.drop_duplicates().reset_index(drop=True)


def dedup_pairs_dataset(pair_ds, keep_cols=("id_a", "id_b"), n_buckets: int = 64,
                        reducer=None):
    """Distributed per-pair combine over a (id_a, id_b, ...) pair Dataset:
    one (id_a, id_b)-keyed bucketed shuffle + a per-bucket reducer — the
    same pair can surface from several LSH bands / signature blocks /
    fingerprint blocks whose buckets live in different groups, so the
    combine needs exactly one more keyed exchange, never a driver collect.
    Default reducer is uniqueness (``drop_duplicates``); pass ``reducer``
    for other per-pair folds (e.g. winnowing's shared-count sum). Shared
    by minhash / simhash / embedding / winnow dataset routes."""
    cols = list(keep_cols)

    def dedup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["id_a", "id_b"])[cols]

    return bucket_exchange(pair_ds, ["id_a", "id_b"], reducer or dedup_bucket,
                           n_buckets)


def jaccard(text_a: str, text_b: str, shingle_size: int = 3, hash_fn: str = "stable") -> float:
    mh = _cached_hasher(64, shingle_size, 17, hash_fn)
    sa, sb = set(mh.shingles(text_a or "").tolist()), set(mh.shingles(text_b or "").tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / max(1, len(sa | sb))


def union_find_components(pairs: pd.DataFrame) -> pd.DataFrame:
    """Driver-side union-find → (id, cluster=min id of component). For
    small verified-pair sets; the distributed path is
    ``distributed_components``."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["id_a"], pairs["id_b"]):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    members = sorted(parent)
    return pd.DataFrame({"id": members, "cluster": [find(m) for m in members]})


def distributed_components(pairs_ds, n_buckets: int = 64, max_iter: int = 64,
                           as_dataset: bool = False, id_name: str = "id"):
    """Connected components by iterated min-label propagation over Ray
    Dataset rounds — no driver-side union-find. Each round is one shuffle:
    edge messages (dst ← label[src]) union'd with current labels, then a
    hash-bucketed pandas min-groupby (never a Python callback per tiny
    group). Converges in O(component diameter) rounds; near-dup clusters
    are shallow. Returns (id, cluster). Labels stay distributed between
    rounds; only the per-round change count hits the driver.
    """
    import ray.data as rd

    edges = pairs_ds if not isinstance(pairs_ds, pd.DataFrame) else rd.from_pandas(pairs_ds)
    # undirected: keep both directions as (src, dst)
    both = edges.map_batches(
        lambda b: pd.DataFrame({
            "src": np.concatenate([b["id_a"].to_numpy(), b["id_b"].to_numpy()]),
            "dst": np.concatenate([b["id_b"].to_numpy(), b["id_a"].to_numpy()]),
        }),
        batch_format="pandas",
    ).materialize()
    if both.count() == 0:
        # zero edges → the propagation loop would emit only empty
        # map_groups outputs whose schema Ray drops (so would any further
        # map_batches over the result — Ray skips empty blocks, which is
        # why the id column is NAMED here instead of renamed by callers);
        # return a TYPED empty (id_name, cluster). int64 stand-in dtype —
        # the true id dtype is unknowable without rows.
        empty = pd.DataFrame({id_name: pd.Series(dtype="int64"),
                              "cluster": pd.Series(dtype="int64")})
        return rd.from_pandas(empty) if as_dataset else empty
    labels = both.map_batches(
        lambda b: pd.DataFrame({"id": b["src"].unique()}).assign(lbl=lambda d: d["id"]),
        batch_format="pandas",
    )

    for _ in range(max_iter):
        # join edges with labels on src (bucketed repartition join), emit
        # candidate labels for dst, min-combine with current labels.
        # Rows are (key, val, tag): tag 0 = edge (val=dst), 1 = label
        # (val=lbl) — one schema, no NaN dtype churn.
        tagged_e = both.map_batches(
            lambda b: pd.DataFrame({"key": b["src"], "val": b["dst"],
                                    "tag": np.zeros(len(b), dtype=np.int8)}),
            batch_format="pandas")
        tagged_l = labels.map_batches(
            lambda b: pd.DataFrame({"key": b["id"], "val": b["lbl"],
                                    "tag": np.ones(len(b), dtype=np.int8)}),
            batch_format="pandas")

        def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
            lbl = g[g["tag"] == 1][["key", "val"]]
            edg = g[g["tag"] == 0][["key", "val"]]
            m = edg.merge(lbl, on="key", suffixes=("_dst", "_lbl"))
            return pd.DataFrame({"id": m["val_dst"], "lbl": m["val_lbl"]})

        msgs = bucket_exchange(tagged_e.union(tagged_l), "key", join_bucket,
                               n_buckets)

        def min_bucket(g: pd.DataFrame) -> pd.DataFrame:
            agg = g.groupby("id", as_index=False).agg(new=("lbl", "min"))
            # initial labels are per-BLOCK uniques, so an id spanning
            # input blocks arrives duplicated — dedup before the merge or
            # the duplicate rows multiply and persist every round
            old = (g[g["tag"] == 1][["id", "lbl"]]
                   .groupby("id", as_index=False).agg(old=("lbl", "min")))
            return agg.merge(old, on="id")

        tagged = labels.map_batches(
            lambda b: pd.DataFrame({"id": b["id"], "lbl": b["lbl"],
                                    "tag": np.ones(len(b), dtype=np.int8)}),
            batch_format="pandas").union(msgs.map_batches(
                lambda b: pd.DataFrame({"id": b["id"], "lbl": b["lbl"],
                                        "tag": np.zeros(len(b), dtype=np.int8)}),
                batch_format="pandas"))
        # cap the label block count: union+map_groups otherwise
        # compounds blocks round over round (24→56→120→248→504
        # measured), turning O(diameter) rounds superlinear
        merged = (bucket_exchange(tagged, "id", min_bucket, n_buckets)
                  .repartition(n_buckets).materialize())
        changed = merged.map_batches(
            lambda b: pd.DataFrame({"c": [int((b["new"] < b["old"]).sum())]}),
            batch_format="pandas").sum("c")
        labels = merged.map_batches(
            lambda b: pd.DataFrame({"id": b["id"], "lbl": b["new"]}), batch_format="pandas")
        if not changed:
            break
    if as_dataset:
        return labels.map_batches(
            lambda b: pd.DataFrame({id_name: b["id"],
                                    "cluster": b["lbl"].astype(b["id"].dtype)}),
            batch_format="pandas")
    out = labels.to_pandas()
    return pd.DataFrame({id_name: out["id"],
                         "cluster": out["lbl"].astype(out["id"].dtype)}
                        ).sort_values(id_name).reset_index(drop=True)


def components(edges: pd.DataFrame, site: str) -> pd.DataFrame:
    """(id, cluster) over a driver-side (id_a, id_b) edge frame: driver
    union-find when the edges fit the ``label_map_rows`` gate, else
    distributed min-label propagation."""
    if fits(site, len(edges), "label_map_rows"):
        return union_find_components(edges)
    return distributed_components(edges)


def isin_sorted(cand: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Membership of ``v`` in the SORTED array ``cand`` via searchsorted
    (the broadcast-prefilter kernel); all-False for an empty ``cand`` —
    the zero-candidate edge every dataset route can hit."""
    if len(cand) == 0:
        return np.zeros(len(v), dtype=bool)
    pos = np.searchsorted(cand, v)
    return (pos < len(cand)) & (cand[np.clip(pos, 0, len(cand) - 1)] == v)


def _jaccard_keep(texts_a, texts_b, threshold: float, shingle_size: int,
                  hash_fn: str, metric: str = "jaccard") -> np.ndarray:
    """Exact shingle-set similarity ≥ threshold per pair, with the shingle
    set memoized per DISTINCT text (boilerplate-heavy corpora repeat
    texts across pairs). Shared by the collect and shuffle paths so their
    verdicts are bit-identical. ``metric``: "jaccard" = |∩|/|∪|,
    "containment" = |∩|/min(|a|,|b|) (how much of the SMALLER set the
    other covers — the asymmetric subset/superset dedup score)."""
    mh = _cached_hasher(64, shingle_size, 17, hash_fn)
    memo: dict = {}

    def sset(t):
        if not isinstance(t, str):  # None / NaN from a missing-text join
            t = ""
        s = memo.get(t)
        if s is None:
            s = memo[t] = frozenset(mh.shingles(t).tolist())
        return s

    keep = np.empty(len(texts_a), dtype=bool)
    for i, (ta, tb) in enumerate(zip(texts_a, texts_b)):
        sa, sb = sset(ta), sset(tb)
        if not sa and not sb:
            keep[i] = True
        elif metric == "containment":
            keep[i] = len(sa & sb) / max(1, min(len(sa), len(sb))) >= threshold
        else:
            keep[i] = len(sa & sb) / max(1, len(sa | sb)) >= threshold
    return keep


def verify_pairs(ds, pairs, id_col: str, text_col: str,
                 threshold: float, shingle_size: int = 3, hash_fn: str = "stable",
                 strategy: str = "auto", n_buckets: int = 32,
                 metric: str = "jaccard"):
    """Stage 4: exact shingle-set similarity (``metric``: "jaccard" or
    "containment" — see ``_jaccard_keep``) over the candidate pairs →
    the verified subset (id_a, id_b).

    ``pairs`` is a pandas DataFrame (returns a DataFrame) or a Ray
    Dataset (returns a Dataset — the fully-distributed route where the
    pair set itself never lands on the driver).

    - "collect": candidate texts gathered into a driver dict — fine while
      candidates ≪ corpus, the bottleneck on boilerplate-heavy corpora.
    - "broadcast": the candidate docs' shingle arrays (NOT texts) are
      built distributed, collected once (id → sorted uint64 array) and
      broadcast via ``ray.put``; the pairs then stream through one
      stateless ``map_batches`` doing sorted-array intersection — the
      per-pair compute is distributed and nothing text-sized enters a
      shuffle. Right when candidates ≫ collect gate but candidate DOCS
      fit one broadcast (the ``verify_docs`` gate) — the common
      boilerplate-heavy case (many pairs over few docs). Measured at
      sf0.1 (407k pairs / 5k docs): 9.5 s shuffle → 2.9 s broadcast.
    - "shuffle": no driver-side state beyond candidate ids. Candidate
      texts enter ONE bucketed tagged-union join keyed by id, then a
      re-bucket by pair id brings both halves together for worker-side
      Jaccard. Shuffle cost: candidate texts × 1 + pair halves × 2.
    - "auto": collect when the pairs fit the ``verify_pairs`` gate; else
      broadcast when the candidate docs fit ``verify_docs``; else shuffle
      (DataFrame input; Dataset-input pairs use broadcast under the doc
      gate — the pair set itself still never lands on the driver — and
      shuffle above it).
    """
    import ray.data as rd

    pairs_is_ds = not isinstance(pairs, pd.DataFrame)
    if strategy == "auto":
        if not pairs_is_ds and fits("minhash.verify_pairs", len(pairs),
                                    "verify_pairs"):
            strategy = "collect"
        else:
            strategy = "_gate"  # broadcast vs shuffle once cand count known
    elif pairs_is_ds and strategy == "collect":
        strategy = "_gate"

    if strategy == "collect":
        cand_ids = set(pairs["id_a"]) | set(pairs["id_b"])
        texts = (
            ds.map_batches(lambda b: b[b[id_col].isin(cand_ids)][[id_col, text_col]],
                           batch_format="pandas")
            .to_pandas().set_index(id_col)[text_col].to_dict()
        )
        keep = _jaccard_keep([texts.get(a) for a in pairs["id_a"]],
                             [texts.get(b) for b in pairs["id_b"]],
                             threshold, shingle_size, hash_fn, metric)
        return pairs[keep].reset_index(drop=True)

    if pairs_is_ds:
        from ..functions.indexing import with_row_index

        pairs_idx = with_row_index(pairs, "__pair_id")
        # ids-only driver pass for the broadcast prefilter (16 B/pair —
        # the documented ≤1e9-key assumption; texts never hit the driver)
        id_parts = [np.concatenate([b["id_a"].to_numpy(), b["id_b"].to_numpy()])
                    for b in pairs_idx.select_columns(["id_a", "id_b"]).iter_batches(
                        batch_size=65536, batch_format="pandas")]
        cand_sorted = (np.unique(np.concatenate(id_parts)) if id_parts
                       else np.empty(0, dtype=np.int64))
    else:
        pairs = pairs.reset_index(drop=True)
        pairs_idx = rd.from_pandas(pairs.assign(__pair_id=np.arange(len(pairs),
                                                                    dtype=np.int64)))
        cand_sorted = np.unique(np.concatenate([pairs["id_a"].to_numpy(),
                                                pairs["id_b"].to_numpy()]))

    if strategy == "_gate":
        strategy = ("broadcast" if fits("minhash.verify_pairs.docs",
                                        len(cand_sorted), "verify_docs")
                    else "shuffle")
    if strategy == "broadcast":
        verified = _verify_broadcast(ds, pairs_idx, cand_sorted, id_col,
                                     text_col, threshold, shingle_size, hash_fn,
                                     metric)
    else:
        verified = _verify_shuffle(ds, pairs_idx, cand_sorted, id_col, text_col,
                                   threshold, shingle_size, hash_fn, n_buckets,
                                   metric)
    if pairs_is_ds:
        return verified
    out = verified.to_pandas()
    return out.sort_values(["id_a", "id_b"], kind="mergesort").reset_index(drop=True)


def _verify_broadcast(ds, pairs_ds, cand_sorted: np.ndarray, id_col: str,
                      text_col: str, threshold: float, shingle_size: int,
                      hash_fn: str, metric: str = "jaccard"):
    """Broadcast-verify core → Dataset of verified (id_a, id_b): the
    candidate docs' distinct shingle arrays are built distributed (one
    filtered map pass), collected once as id → sorted uint64 array
    (bounded by the ``verify_docs`` gate), broadcast via ray.put,
    and the pairs stream through a stateless intersection pass — bit-
    identical verdicts to ``_jaccard_keep`` (set-of-hashes Jaccard)."""
    import ray

    from ..functions.broadcast import cached_get

    cand_ref = ray.put(cand_sorted)

    def sets_partial(b: pd.DataFrame) -> pd.DataFrame:
        cand = cached_get(cand_ref)
        sub = b.loc[isin_sorted(cand, b[id_col].to_numpy())]
        mh = _cached_hasher(64, shingle_size, 17, hash_fn)
        return pd.DataFrame({
            id_col: sub[id_col].to_numpy(),
            "h": [np.unique(mh.shingles(t if isinstance(t, str) else ""))
                  .tobytes() for t in sub[text_col].to_numpy()]})

    store: dict = {}
    for b in ds.map_batches(sets_partial, batch_format="pandas").iter_batches(
            batch_size=4096, batch_format="pandas"):
        for i, hb in zip(b[id_col], b["h"]):
            store[i] = np.frombuffer(hb, dtype=np.uint64)
    sref = ray.put(store)
    empty = np.empty(0, dtype=np.uint64)

    def verify_batch(b: pd.DataFrame) -> pd.DataFrame:
        st = cached_get(sref)
        ia, ib = b["id_a"].to_numpy(), b["id_b"].to_numpy()
        keep = np.empty(len(b), dtype=bool)
        for i in range(len(b)):
            a = st.get(ia[i], empty)
            c = st.get(ib[i], empty)
            if not len(a) and not len(c):
                keep[i] = True
            else:
                inter = np.intersect1d(a, c, assume_unique=True).size
                if metric == "containment":
                    keep[i] = inter / max(1, min(len(a), len(c))) >= threshold
                else:
                    keep[i] = inter / max(1, len(a) + len(c) - inter) >= threshold
        return b.loc[keep, ["id_a", "id_b"]]

    # driver-built pair frames arrive as ONE block — spread the per-pair
    # compute across tasks (map_batches parallelism is per block)
    return pairs_ds.repartition(64).map_batches(verify_batch,
                                                batch_format="pandas")


def _verify_shuffle(ds, pairs_idx, cand_sorted: np.ndarray, id_col: str,
                    text_col: str, threshold: float, shingle_size: int,
                    hash_fn: str, n_buckets: int, metric: str = "jaccard"):
    """Distributed Jaccard verification core → Dataset of verified
    (id_a, id_b). ``pairs_idx`` carries (id_a, id_b, __pair_id)."""
    import ray

    from ..functions.broadcast import cached_get

    cand_ref = ray.put(cand_sorted)

    def filter_texts(b: pd.DataFrame) -> pd.DataFrame:
        cand = cached_get(cand_ref)
        return b.loc[isin_sorted(cand, b[id_col].to_numpy()),
                     [id_col, text_col]]

    # one common schema for halves and texts — no NaN dtype churn through
    # the union (the distributed_components tagged-row discipline):
    # (key=id, pair_id, role 0/1, id_a, id_b, text, tag 0=half 1=text)
    def to_halves(b: pd.DataFrame) -> pd.DataFrame:
        n = len(b)
        ia, ib = b["id_a"].to_numpy(), b["id_b"].to_numpy()
        return pd.DataFrame({
            "__key": np.concatenate([ia, ib]),
            "pair_id": np.tile(b["__pair_id"].to_numpy(dtype=np.int64), 2),
            "role": np.repeat(np.array([0, 1], dtype=np.int8), n),
            "id_a": np.tile(ia, 2),
            "id_b": np.tile(ib, 2),
            "__text": np.full(2 * n, "", dtype=object),
            "__tag": np.zeros(2 * n, dtype=np.int8),
        })

    def tag_texts(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].to_numpy()
        return pd.DataFrame({
            "__key": ids,
            "pair_id": np.full(len(b), -1, dtype=np.int64),
            "role": np.full(len(b), -1, dtype=np.int8),
            "id_a": ids,  # filler of the id dtype — never read for tag 1
            "id_b": ids,
            "__text": b[text_col].to_numpy(dtype=object),
            "__tag": np.ones(len(b), dtype=np.int8),
        })

    def attach_bucket(g: pd.DataFrame) -> pd.DataFrame:
        hv = g[g["__tag"] == 0][["__key", "pair_id", "role", "id_a", "id_b"]]
        tx = g[g["__tag"] == 1][["__key", "__text"]].drop_duplicates("__key")
        m = hv.merge(tx, on="__key", how="left")
        return pd.DataFrame({"pair_id": m["pair_id"], "role": m["role"],
                             "id_a": m["id_a"], "id_b": m["id_b"],
                             "text": m["__text"].astype(object)})

    tagged = (ds.map_batches(filter_texts, batch_format="pandas")
              .map_batches(tag_texts, batch_format="pandas")
              .union(pairs_idx.map_batches(to_halves, batch_format="pandas")))
    attached = bucket_exchange(tagged, "__key", attach_bucket, n_buckets)

    def verify_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame({"id_a": pd.Series(dtype=object),
                                 "id_b": pd.Series(dtype=object)})
        # exactly two half-rows per pair (roles 0 and 1, id_a < id_b):
        # sort and stride instead of a pivot
        g = g.sort_values(["pair_id", "role"], kind="mergesort")
        texts = g["text"].to_numpy(dtype=object)
        keep = _jaccard_keep(texts[::2], texts[1::2], threshold, shingle_size,
                             hash_fn, metric)
        return pd.DataFrame({"id_a": g["id_a"].to_numpy()[::2][keep],
                             "id_b": g["id_b"].to_numpy()[::2][keep]})

    return bucket_exchange(attached, "pair_id", verify_bucket, n_buckets)


def minhash_dedup(ds, id_col: str, text_col: str, threshold: float = 0.7,
                  n_perm: int = 64, bands: int = 16, shingle_size: int = 3,
                  seed: int = 17, hash_fn: str = "stable",
                  output: str = "pandas"):
    """Full near-dup pass → (id, cluster) for docs in near-dup clusters
    (verified Jaccard ≥ threshold). Every stage has a collect path (small
    inputs) and a shuffle path (scale), each chosen by a size gate on a
    measured row count (``functions/gate.py``): pairing, Jaccard
    verification and components.

    ``output="dataset"`` runs the fully-distributed route end-to-end —
    pairs, verification, and components all stay Ray Datasets; the driver
    holds only the candidate-id prefilter array and per-round change
    counts. Returns a Dataset of (id_col, cluster)."""
    bands_ds = minhash_bands(ds, id_col, text_col, n_perm, bands, shingle_size, seed, hash_fn)

    if output == "dataset":
        pairs_ds = candidate_pairs(bands_ds, id_col, strategy="shuffle",
                                   as_dataset=True).materialize()
        verified = verify_pairs(ds, pairs_ds, id_col, text_col, threshold,
                                shingle_size, hash_fn, strategy="shuffle")
        # id_name, not a rename map_batches after: Ray drops empty-block
        # schemas, so a zero-pair corpus would lose its columns
        return distributed_components(verified, as_dataset=True,
                                      id_name=id_col)

    pairs = candidate_pairs(bands_ds, id_col)
    if pairs.empty:
        return pd.DataFrame({id_col: [], "cluster": []})
    verified = verify_pairs(ds, pairs, id_col, text_col, threshold,
                            shingle_size, hash_fn)
    return components(verified, "minhash.minhash_dedup") \
        .rename(columns={"id": id_col})
