"""Train/test decontamination: flag corpus documents that share word
k-grams with a benchmark (eval) set.

The standard LLM-training hygiene step (GPT-3 §C / PaLM style): any
training document containing an n-gram that also appears in an evaluation
benchmark is suspect. The benchmark side is SMALL by nature (thousands of
prompts vs billions of docs), so this is a broadcast membership filter,
not a join: the benchmark's distinct gram hashes are collected once,
sorted, ``ray.put`` once, and every corpus batch probes them with
``np.searchsorted`` — one streaming ``map_batches`` pass over the corpus,
zero shuffle.

Shares the MinHash shingle convention (lowercase, ``\\s+`` split, k-gram
join by single space, per-doc DISTINCT grams) and the md5 hash mode, so
the DuckDB oracle replays gram hashing bit-for-bit.

Reference precedent: none (the reference has no eval-contamination
operator); beyond-reference training-pipeline operator.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..dedup.minhash import shingle_strings
from ..functions.exchange import bucket_exchange
from ..functions.gate import fits
from ..profiling.sketches import HASH64
from ..rules.heuristics import round_half_away


def _doc_gram_hashes(texts, k: int, hash_fn: str):
    """Per-doc DISTINCT gram hashes with ONE hash call over the batch's
    unique grams (grams repeat heavily across near-dup docs).
    → (flat uint64 hashes, per-doc counts); flat is per-doc deduplicated
    and grouped in row order."""
    hasher = HASH64[hash_fn]
    gram_sets = [sorted(set(shingle_strings(t, k))) for t in texts]
    counts = np.array([len(g) for g in gram_sets], dtype=np.int64)
    if counts.sum() == 0:
        return np.empty(0, dtype=np.uint64), counts
    flat = np.array([g for gs in gram_sets for g in gs], dtype=object)
    uniq, inv = np.unique(flat, return_inverse=True)
    return hasher(uniq)[inv], counts


def benchmark_gram_hashes(bench_ds, text_col: str, k: int = 8,
                          hash_fn: str = "md5") -> np.ndarray:
    """Distinct sorted gram hashes of the benchmark set. One map_batches
    pass emitting per-batch unique hashes (tiny), unioned on the driver —
    the benchmark is the small side; its hash set is the broadcast
    payload, bounded by benchmark token count, not corpus size."""

    def grams(b: pa.Table) -> pa.Table:
        flat, _ = _doc_gram_hashes(b[text_col].to_pylist(), k, hash_fn)
        return pa.table({"h": pa.array(np.unique(flat), type=pa.uint64())})

    parts = bench_ds.select_columns([text_col]).map_batches(
        grams, batch_format="pyarrow").to_pandas()
    return np.unique(parts["h"].to_numpy().astype(np.uint64))


def decontaminate(ds, text_col: str, id_col: str, bench_hashes: np.ndarray,
                  k: int = 8, hash_fn: str = "md5",
                  threshold: float = 0.1):
    """→ Dataset of (id_col, n_grams, n_hits, contam_frac, contaminated):
    per-doc distinct-gram count, how many of those grams appear in the
    benchmark, their ratio (round_half_away — DuckDB's rounding mode), and
    the ``contam_frac >= threshold`` verdict. Empty docs: 0/0/0.0/False.

    Scale: ``bench_hashes`` rides the object store once (``ray.put`` +
    per-process ``cached_get``); the corpus never shuffles.
    """
    import ray

    from ..functions.broadcast import cached_get

    ref = ray.put(np.ascontiguousarray(np.sort(bench_hashes)))

    def probe(b: pa.Table) -> pa.Table:
        bench = cached_get(ref)
        flat, counts = _doc_gram_hashes(b[text_col].to_pylist(), k, hash_fn)
        if len(flat) and len(bench):
            pos = np.searchsorted(bench, flat)
            hit = (pos < len(bench)) & (bench[np.minimum(pos, len(bench) - 1)] == flat)
        else:
            hit = np.zeros(len(flat), dtype=bool)
        # prefix-sum segment totals: robust to zero-gram docs anywhere
        # (reduceat would fault on a start index == len(flat))
        csum = np.concatenate(([0], np.cumsum(hit.astype(np.int64))))
        ends = np.cumsum(counts)
        n_hits = csum[ends] - csum[ends - counts]
        frac = round_half_away(n_hits / np.maximum(counts, 1))
        return pa.table({
            id_col: b[id_col],
            "n_grams": pa.array(counts, type=pa.int64()),
            "n_hits": pa.array(n_hits, type=pa.int64()),
            "contam_frac": pa.array(frac, type=pa.float64()),
            "contaminated": pa.array(frac >= threshold),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        probe, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Bloom-gated scale path: when the "dirty" gram set outgrows an exact
# sorted-array broadcast (a multi-benchmark suite, a contaminated-URL
# corpus), broadcast a fixed-size Bloom filter instead (~10 bits/gram at
# 1% fpr vs 64 for the raw hashes) and verify only the Bloom-positive
# (doc, gram) candidates exactly against the DISTRIBUTED bench-gram
# dataset — results identical to `decontaminate` (no false negatives,
# candidates exactly verified), parity-tested.

_FMIX1 = np.uint64(0xFF51AFD7ED558CCD)
_FMIX2 = np.uint64(0xC4CEB9FE1A85EC53)
_GOLD = np.uint64(0x9E3779B97F4A7C15)


def _mix64(h: np.ndarray) -> np.ndarray:
    """murmur3 fmix64 over uint64 — decorrelates the bloom positions
    from the md5/stable gram hash the exact paths key on."""
    x = h.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(33)
    x *= _FMIX1
    x ^= x >> np.uint64(33)
    x *= _FMIX2
    x ^= x >> np.uint64(33)
    return x


class GramBloom:
    """Packed-bit Bloom membership over PRE-HASHED uint64 gram keys
    (`profiling.sketches.BloomFilter` hashes raw strings; here the gram
    hash already exists, so positions come from one fmix64 +
    Kirsch-Mitzenmacher double hashing). Merge = bitwise OR; per-batch
    partials union like every mergeable sketch here."""

    def __init__(self, expected_items: int, fpr: float = 0.01):
        ln2 = np.log(2.0)
        m = int(np.ceil(-max(expected_items, 64) * np.log(fpr) / (ln2 * ln2)))
        self.m = (m + 63) // 64 * 64
        self.k = max(1, int(round(self.m / max(expected_items, 64) * ln2)))
        self.bits = np.zeros(self.m // 64, dtype=np.uint64)

    def _pos(self, h: np.ndarray) -> np.ndarray:
        x = _mix64(h)
        h2 = (x * _GOLD) | np.uint64(1)
        ks = np.arange(self.k, dtype=np.uint64)
        return (x[:, None] + ks[None, :] * h2[:, None]) % np.uint64(self.m)

    def add(self, h: np.ndarray) -> None:
        if len(h) == 0:
            return
        pos = self._pos(np.asarray(h, dtype=np.uint64)).ravel()
        np.bitwise_or.at(self.bits, (pos >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (pos & np.uint64(63)))

    def contains(self, h: np.ndarray) -> np.ndarray:
        if len(h) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._pos(np.asarray(h, dtype=np.uint64))
        word = self.bits[(pos >> np.uint64(6)).astype(np.int64)]
        return (((word >> (pos & np.uint64(63))) & np.uint64(1))
                .all(axis=1).astype(bool))


def benchmark_gram_dataset(bench_ds, text_col: str, k: int = 8,
                           hash_fn: str = "md5"):
    """The distributed twin of `benchmark_gram_hashes`: per-batch
    DISTINCT gram hashes as a Dataset column ``h`` (uint64) — nothing
    lands on the driver. Feed to `decontaminate_bloom`."""

    def grams(b: pa.Table) -> pa.Table:
        flat, _ = _doc_gram_hashes(b[text_col].to_pylist(), k, hash_fn)
        return pa.table({"h": pa.array(np.unique(flat), type=pa.uint64())})

    return bench_ds.select_columns([text_col]).map_batches(
        grams, batch_format="pyarrow")


def decontaminate_bloom(ds, text_col: str, id_col: str, bench_gram_ds,
                        k: int = 8, hash_fn: str = "md5",
                        threshold: float = 0.1, fpr: float = 0.01,
                        n_buckets: int = 64):
    """`decontaminate` for bench-gram sets too large to broadcast as a
    raw sorted array. Same output schema and EXACT same values
    (parity-tested): Bloom filters have no false negatives, and every
    Bloom-positive gram is re-verified exactly.

    Shape (the bench gram set never lands on the driver as keys):

    1. ``bench_gram_ds`` (from `benchmark_gram_dataset`) materializes
       once — it is the small side, consumed for sizing, the Bloom
       build and the verify join.
    2. Bloom build: per-batch packed-bit partials OR-merge on the
       driver — driver bytes = m/8 per batch, never the gram set.
    3. One corpus probe pass emits, per doc, a summary row
       (id, n_grams) plus one candidate row per BLOOM-POSITIVE gram —
       the only per-gram rows that ever shuffle.
    4. ONE tagged-union exchange verifies candidates against the bench
       grams (bucket by gram hash) while summary rows ride the same
       stream bucketed by id; a second id-keyed exchange reassembles
       per-doc (n_grams, n_hits) — no driver state, no dataset consumed
       twice (the lazy-reexecution trap).
    """
    import pandas as pd
    import ray

    from ..functions.broadcast import cached_get
    from .minhash import isin_sorted

    gram_ds = bench_gram_ds.materialize()  # small side, consumed 3×
    expected = max(int(gram_ds.count()), 64)  # ≥ distinct grams (per-batch distinct)
    bparams = (expected, fpr)

    def bitmap(b: pa.Table) -> pa.Table:
        g = GramBloom(*bparams)
        g.add(b["h"].to_numpy(zero_copy_only=False))
        return pa.table({"bits": pa.array([g.bits.tobytes()], type=pa.binary())})

    bloom = GramBloom(*bparams)
    for bt in gram_ds.map_batches(bitmap, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow"):
        for raw in bt["bits"].to_pylist():
            bloom.bits |= np.frombuffer(raw, dtype=np.uint64)
    ref = ray.put(bloom)

    # side: 0 = per-doc summary, 1 = bloom-positive candidate, 2 = bench gram
    def probe(b: pa.Table) -> pa.Table:
        blm = cached_get(ref)
        ids = b[id_col].to_numpy(zero_copy_only=False)
        flat, counts = _doc_gram_hashes(b[text_col].to_pylist(), k, hash_fn)
        hit = blm.contains(flat)
        gram_ids = np.repeat(ids, counts)
        return pa.table({
            id_col: pa.array(np.concatenate([ids, gram_ids[hit]])),
            "n_grams": pa.array(np.concatenate(
                [counts, np.zeros(int(hit.sum()), dtype=np.int64)]),
                type=pa.int64()),
            "h": pa.array(np.concatenate(
                [np.zeros(len(ids), dtype=np.uint64), flat[hit]]),
                type=pa.uint64()),
            "side": pa.array(np.concatenate(
                [np.zeros(len(ids), dtype=np.int8),
                 np.ones(int(hit.sum()), dtype=np.int8)]), type=pa.int8()),
        })

    def tag_bench(b: pa.Table) -> pa.Table:
        h = b["h"].to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: pa.array(np.zeros(len(h), dtype=np.int64)),
            "n_grams": pa.array(np.zeros(len(h), dtype=np.int64)),
            "h": b["h"],
            "side": pa.array(np.full(len(h), 2, dtype=np.int8)),
        })

    def key_a(b: pd.DataFrame) -> pd.DataFrame:
        # summary rows spread by doc id, candidates meet bench grams by
        # gram hash (ids are integers: the bench side carries int64 zeros)
        summary = b["side"].to_numpy() == 0
        b["__k"] = np.where(summary, b[id_col].to_numpy().astype(np.uint64),
                            b["h"].to_numpy())
        return b

    def verify_bucket(g: pd.DataFrame) -> pd.DataFrame:
        side = g["side"].to_numpy()
        out = g[side == 0][[id_col, "n_grams"]].copy()
        out["n_hits"] = np.int64(0)
        cand = g[side == 1]
        if len(cand):
            bench = np.unique(g.loc[side == 2, "h"].to_numpy())
            true_hit = isin_sorted(bench, cand["h"].to_numpy())
            if true_hit.any():
                cnt = (cand.loc[true_hit].groupby(id_col, sort=False)
                       .size().reset_index(name="n_hits"))
                cnt["n_grams"] = np.int64(0)
                out = pd.concat([out, cnt[[id_col, "n_grams", "n_hits"]]],
                                ignore_index=True)
        return out

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(id_col, sort=False).agg(
            n_grams=("n_grams", "sum"), n_hits=("n_hits", "sum")).reset_index()
        frac = round_half_away(agg["n_hits"].to_numpy()
                           / np.maximum(agg["n_grams"].to_numpy(), 1))
        agg["contam_frac"] = frac
        agg["contaminated"] = frac >= threshold
        return agg

    stream = (ds.select_columns([id_col, text_col])
              .map_batches(probe, batch_format="pyarrow")
              .union(gram_ds.map_batches(tag_bench, batch_format="pyarrow"))
              .map_batches(key_a, batch_format="pandas"))
    verified = bucket_exchange(stream, "__k", verify_bucket, n_buckets)
    return bucket_exchange(verified, id_col, finish, n_buckets)


def fuzzy_decontaminate(corpus_ds, bench_ds, id_col: str, text_col: str,
                        threshold: float = 0.5, n_perm: int = 64,
                        bands: int = 16, shingle_size: int = 3,
                        seed: int = 17, hash_fn: str = "stable",
                        n_buckets: int = 64):
    """FUZZY cross-corpus decontamination: flag corpus docs whose shingle
    Jaccard vs ANY benchmark doc ≥ threshold (near-duplicate
    contamination the exact-gram probe misses: paraphrased or lightly
    edited eval items). Ids must be globally unique across both inputs.

    Shape: MinHash bands over both sides (side tag carried through the
    union), ONE bucketed exchange pairs only CROSS-side rows within each
    (band_id, band_hash) bucket (a vectorized merge per hash bucket of
    many band groups), cross-band pair uniqueness via the distributed
    pair-dedup shuffle, verification through the shared gated
    ``verify_pairs`` (collect/broadcast/shuffle), then the matched map
    (corpus id → min matching bench id, bounded by contaminated docs)
    broadcasts within the ``label_map_rows`` gate and rides a
    ``hash_join`` exchange above. → Dataset of (id, contaminated,
    match_id[None when clean]) over all corpus rows."""
    import ray

    import pandas as pd

    from ..functions.broadcast import cached_get
    from ..profiling.groupagg import grouped_aggregate
    from .minhash import dedup_pairs_dataset, minhash_bands, verify_pairs

    def tag(side):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            b = b.copy()
            b["__side"] = np.int64(side)
            return b
        return f

    bands_c = minhash_bands(corpus_ds.select_columns([id_col, text_col]),
                            id_col, text_col, n_perm, bands, shingle_size,
                            seed, hash_fn).map_batches(
                                tag(0), batch_format="pandas")
    bands_b = minhash_bands(bench_ds.select_columns([id_col, text_col]),
                            id_col, text_col, n_perm, bands, shingle_size,
                            seed, hash_fn).map_batches(
                                tag(1), batch_format="pandas")

    def cross_pairs(g: pd.DataFrame) -> pd.DataFrame:
        c = g[g["__side"] == 0][["band_id", "band_hash", id_col]]
        v = g[g["__side"] == 1][["band_id", "band_hash", id_col]]
        if c.empty or v.empty:
            return pd.DataFrame({"id_a": pd.Series(dtype=g[id_col].dtype),
                                 "id_b": pd.Series(dtype=g[id_col].dtype)})
        m = c.merge(v, on=["band_id", "band_hash"], suffixes=("_a", "_b"))
        return (m[[f"{id_col}_a", f"{id_col}_b"]]
                .rename(columns={f"{id_col}_a": "id_a",
                                 f"{id_col}_b": "id_b"})
                .drop_duplicates())

    pair_ds = bucket_exchange(bands_c.union(bands_b), ["band_id", "band_hash"],
                              cross_pairs, n_buckets)
    pair_ds = dedup_pairs_dataset(pair_ds, keep_cols=("id_a", "id_b"))

    both = corpus_ds.select_columns([id_col, text_col]).union(
        bench_ds.select_columns([id_col, text_col]))
    verified = verify_pairs(both, pair_ds, id_col, text_col, threshold,
                            shingle_size, hash_fn)

    matched = grouped_aggregate(verified, ["id_a"],
                                {"match_id": ("id_b", "min")}, final="auto")
    if not isinstance(matched, pd.DataFrame):
        if not fits("decontaminate.fuzzy_decontaminate", matched.count(),
                    "label_map_rows"):
            from ..functions.joins import hash_join

            joined = hash_join(
                corpus_ds.select_columns([id_col]),
                matched.map_batches(
                    lambda b: b.rename(columns={"id_a": id_col}),
                    batch_format="pandas"),
                on=id_col, right_cols=["match_id"], how="left")

            def finish(b: pd.DataFrame) -> pd.DataFrame:
                b = b.copy()
                b["contaminated"] = b["match_id"].notna()
                return b[[id_col, "contaminated", "match_id"]]

            return joined.map_batches(finish, batch_format="pandas")
        matched = matched.to_pandas()

    ids = matched["id_a"].to_numpy() if len(matched) else np.array([])
    mids = matched["match_id"].to_numpy() if len(matched) else np.array([])
    order = np.argsort(ids, kind="mergesort")
    ref = ray.put((ids[order], mids[order]))

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        k, mv = cached_get(ref)
        mine = b[id_col].to_numpy()
        out = pd.DataFrame({id_col: mine})
        out["contaminated"] = False
        out["match_id"] = pd.Series([None] * len(mine), dtype=object)
        if len(k):
            pos = np.searchsorted(k, mine)
            ok = (pos < len(k)) & (k[np.minimum(pos, len(k) - 1)] == mine)
            out.loc[ok, "contaminated"] = True
            out.loc[ok, "match_id"] = mv[pos[ok]]
        return out

    return corpus_ds.select_columns([id_col]).map_batches(
        flag, batch_format="pandas")
