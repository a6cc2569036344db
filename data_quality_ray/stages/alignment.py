"""CLIP-style caption–image alignment scoring.

The north-star pipeline scores image+caption pairs for cross-modal
consistency — in production a CLIP dual encoder served from an actor
pool (GPU-pinned, weights loaded once per actor). No vision model exists
in this environment, so this stage keeps the REAL Ray shape — a callable
class for ``map_batches`` actor pools, encoder state built once in
``__init__``, vectorized batch scoring — and substitutes deterministic,
public stand-ins for the two encoders:

- text encoder: hashing-trick embedding — md5-low-64 token buckets
  (d=64), count vector, L2-normalized. Tokenizer contract shared with
  the tfidf/BM25 oracles: lowercase, split on whitespace, drop empties.
- image encoder: the phash bit pattern mapped to ±1 per bit (d=64,
  L2 norm exactly 8).

``alignment = cosine(text_emb, image_emb)`` ∈ [-1, 1]; a caption with no
tokens scores null. Both encoders are exact integer/md5 math, so the
whole score has a DuckDB oracle (``__ray_entry__.oracle_sql``).

Production swap-in: load the real model in ``__init__`` and replace the
two ``_embed`` bodies; schema, actor signature and batching are already
the production shape.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from ..profiling.sketches import md5_hash64

D = 64  # embedding dimension == phash bit count
_TOKEN_SPLIT = re.compile(r"\s+")
_SHIFTS = np.arange(D, dtype=np.uint64)


def tokenize(caption: str | None) -> list[str]:
    """lower → split \\s+ → drop empties (the repo-wide SQL contract)."""
    if not caption:
        return []
    return [t for t in _TOKEN_SPLIT.split(caption.lower()) if t]


class AlignmentStage:
    """Actor-pool batch scorer: adds ``alignment`` (float, null when the
    caption has no tokens) and ``is_aligned`` (bool, null-safe ≥
    threshold) to each row. Token→bucket hashes are memoized per actor —
    caption vocabulary repeats heavily across batches."""

    def __init__(self, threshold: float = 0.0):
        self.threshold = threshold
        self._bucket: dict[str, int] = {}

    def _buckets(self, tokens: list[str]) -> np.ndarray:
        missing = [t for t in tokens if t not in self._bucket]
        if missing:
            uniq = list(dict.fromkeys(missing))
            for t, h in zip(uniq, md5_hash64(np.array(uniq, dtype=object))):
                # int(h) first: a np.uint64 SCALAR % python-int promotes to
                # float64 and corrupts the low bits
                self._bucket[t] = int(h) % D
        return np.fromiter((self._bucket[t] for t in tokens),
                           dtype=np.int64, count=len(tokens))

    def __call__(self, batch: pa.Table) -> pa.Table:
        caps = batch["caption"].to_pylist()
        ph = batch["phash"].to_numpy(zero_copy_only=False)
        n = len(caps)
        counts = np.zeros((n, D), dtype=np.float64)
        for i, cap in enumerate(caps):
            toks = tokenize(cap)
            if toks:
                np.add.at(counts[i], self._buckets(toks), 1.0)
        bits = ((ph.astype(np.uint64)[:, None] >> _SHIFTS) & np.uint64(1)) \
            .astype(np.float64)
        sign = bits * 2.0 - 1.0
        dot = (counts * sign).sum(axis=1)
        tnorm = np.sqrt((counts * counts).sum(axis=1))
        with np.errstate(invalid="ignore", divide="ignore"):
            align = dot / (tnorm * np.sqrt(float(D)))
        has_tokens = tnorm > 0
        alignment = pa.array(np.where(has_tokens, align, np.nan),
                             type=pa.float64(),
                             mask=~has_tokens)
        is_aligned = pa.array(has_tokens & (align >= self.threshold))
        return batch.append_column("alignment", alignment) \
                    .append_column("is_aligned", is_aligned)


def align_captions(ds, threshold: float = 0.0, concurrency: int | tuple = (1, 4),
                   batch_size: int = 1024):
    """Attach alignment scores to an image+caption Dataset via an actor
    pool (encoder state once per actor, zero-copy Arrow batches)."""
    return ds.map_batches(AlignmentStage, batch_format="pyarrow",
                          concurrency=concurrency, batch_size=batch_size,
                          fn_constructor_kwargs={"threshold": threshold})


def caption_search(ds, queries: dict, k: int = 10,
                   id_col: str = "image_id", phash_col: str = "phash"):
    """Text→image retrieval through the alignment scorer: each query
    string is hash-bucket embedded ONCE (the stage's text encoder),
    the (Q × 64) query matrix broadcasts, and every batch scores its
    phash sign patterns against ALL queries in one matmul, emitting a
    FIXED-SIZE partial (Q × k rows, ties pre-broken by (score DESC,
    id)). Driver merge = O(blocks × Q × k) rows — the cosine_topk /
    hamming_topk shape, zero shuffle. Scores are 6-dp-rounded BEFORE
    ranking (the BM25 contract) so the order is engine-stable.
    → (query_id, id_col, alignment, rank)."""
    import pandas as pd
    import ray

    from ..functions.broadcast import cached_get

    qids = sorted(queries)
    mats = np.zeros((len(qids), D), dtype=np.float64)
    for i, q in enumerate(qids):
        toks = tokenize(queries[q])
        if toks:
            h = md5_hash64(np.array(list(dict.fromkeys(toks)), dtype=object))
            lut = {t: int(hh) % D for t, hh in zip(dict.fromkeys(toks), h)}
            np.add.at(mats[i], np.array([lut[t] for t in toks]), 1.0)
    tn = np.sqrt((mats * mats).sum(axis=1))
    ref = ray.put((np.array(qids, dtype=object), mats, tn))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        _qids, _m, _tn = cached_get(ref)
        ph = b[phash_col].to_numpy()
        bits = ((ph.astype(np.uint64)[:, None] >> _SHIFTS) & np.uint64(1)) \
            .astype(np.float64)
        sign = bits * 2.0 - 1.0
        # (Q, B) scores; image norm is exactly 8 (64 ±1 bits)
        score = np.round((_m @ sign.T) / (_tn[:, None] * 8.0), 6)
        ids = b[id_col].to_numpy()
        frames = []
        for qi in range(len(_qids)):
            order = np.lexsort((ids, -score[qi]))[:k]
            frames.append(pd.DataFrame({
                "query_id": _qids[qi],
                id_col: ids[order],
                "alignment": score[qi][order],
            }))
        return pd.concat(frames, ignore_index=True)

    parts = pd.concat(
        list(ds.select_columns([id_col, phash_col])
             .map_batches(partial, batch_format="pandas")
             .iter_batches(batch_size=4 * k * max(1, len(qids)),
                           batch_format="pandas")),
        ignore_index=True)
    parts = parts.sort_values(["query_id", "alignment", id_col],
                              ascending=[True, False, True],
                              kind="mergesort")
    out = parts.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    out["rank"] = out.groupby("query_id", sort=False).cumcount() + 1
    return out


def hard_negatives(ds, anchors, k: int = 5, id_col: str = "image_id",
                   caption_col: str = "caption", phash_col: str = "phash"):
    """Contrastive hard-negative mining: for each ANCHOR image, the k
    FOREIGN captions most aligned with the anchor's image embedding —
    the text–image pairs a CLIP-style trainer wants as hard in-batch
    negatives (high cross-modal similarity, wrong pairing). ``anchors``:
    DataFrame (id_col, phash_col).

    Shape: ``caption_search`` with the two encoders swapped — the
    anchors' phash sign matrix broadcasts (A × 64, tiny), every batch
    embeds its captions (np.unique-memoized md5 buckets) and scores all
    anchors in one matmul, emitting a FIXED-SIZE A × k partial; driver
    merge = O(blocks × A × k) rows, zero shuffle. Scores 6-dp-rounded
    before ranking; a candidate never competes against its own anchor.
    → (anchor_id, id_col, alignment, rank ≤ k)."""
    import pandas as pd
    import ray

    from ..functions.broadcast import cached_get

    aid = anchors[id_col].to_numpy()
    ph = anchors[phash_col].to_numpy()
    bits = ((ph.astype(np.uint64)[:, None] >> _SHIFTS) & np.uint64(1)) \
        .astype(np.float64)
    sign = bits * 2.0 - 1.0  # (A, 64); image norm exactly 8
    ref = ray.put((aid, sign))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        _aid, _sign = cached_get(ref)
        caps = b[caption_col].tolist()
        ids = b[id_col].to_numpy()
        counts = np.zeros((len(caps), D), dtype=np.float64)
        toks_per = [tokenize(c) for c in caps]
        flat = [t for ts in toks_per for t in ts]
        if flat:
            uniq, inv = np.unique(np.array(flat, dtype=object),
                                  return_inverse=True)
            buckets = (md5_hash64(uniq) % np.uint64(D)).astype(np.int64)[inv]
            rows = np.repeat(np.arange(len(caps)),
                             [len(ts) for ts in toks_per])
            np.add.at(counts, (rows, buckets), 1.0)
        tnorm = np.sqrt((counts * counts).sum(axis=1))
        ok = tnorm > 0
        if not ok.any():
            return pd.DataFrame({"anchor_id": [], id_col: [],
                                 "alignment": []})
        counts, tnorm, ids = counts[ok], tnorm[ok], ids[ok]
        score = np.round((counts @ _sign.T) / (tnorm[:, None] * 8.0), 6)
        frames = []
        for ai in range(len(_aid)):
            m = ids != _aid[ai]
            order = np.lexsort((ids[m], -score[m, ai]))[:k]
            frames.append(pd.DataFrame({
                "anchor_id": _aid[ai], id_col: ids[m][order],
                "alignment": score[m, ai][order]}))
        return pd.concat(frames, ignore_index=True)

    parts = pd.concat(
        list(ds.select_columns([id_col, caption_col])
             .map_batches(partial, batch_format="pandas")
             .iter_batches(batch_size=4 * k * max(1, len(aid)),
                           batch_format="pandas")),
        ignore_index=True)
    parts = parts.sort_values(["anchor_id", "alignment", id_col],
                              ascending=[True, False, True],
                              kind="mergesort")
    out = parts.groupby("anchor_id", sort=True).head(k).reset_index(drop=True)
    out["rank"] = out.groupby("anchor_id", sort=False).cumcount() + 1
    return out


def retrieval_ranks(ds, anchors, id_col: str = "image_id",
                    caption_col: str = "caption"):
    """Cross-modal retrieval EVALUATION: for each anchor image, the rank
    of its OWN caption among all captions scored against the anchor's
    image embedding — the recall@k / median-rank eval a CLIP-style
    pipeline reports. Rank = row_number under (score DESC, id ASC), so
    ties are engine-stable.

    Two cheap passes, zero shuffle: pass 1 collects the anchors' own
    caption scores (per-batch filter on the broadcast anchor id set —
    A rows total); pass 2 streams every caption once, counting per
    anchor how many FOREIGN captions beat the own score (fixed-size A
    partial counts per batch, driver sum). Anchors whose caption has no
    tokens are dropped (their score is null on both engines).
    → (anchor_id, own_score, own_rank)."""
    import pandas as pd
    import ray

    from ..functions.broadcast import cached_get

    aid = anchors[id_col].to_numpy()
    ph = anchors["phash"].to_numpy()
    bits = ((ph.astype(np.uint64)[:, None] >> _SHIFTS) & np.uint64(1)) \
        .astype(np.float64)
    sign = bits * 2.0 - 1.0
    ref = ray.put((aid, sign))

    def _embed(caps):
        counts = np.zeros((len(caps), D), dtype=np.float64)
        toks_per = [tokenize(c) for c in caps]
        flat = [t for ts in toks_per for t in ts]
        if flat:
            uniq, inv = np.unique(np.array(flat, dtype=object),
                                  return_inverse=True)
            buckets = (md5_hash64(uniq) % np.uint64(D)).astype(np.int64)[inv]
            rows = np.repeat(np.arange(len(caps)),
                             [len(ts) for ts in toks_per])
            np.add.at(counts, (rows, buckets), 1.0)
        return counts, np.sqrt((counts * counts).sum(axis=1))

    def own_scores(b: pd.DataFrame) -> pd.DataFrame:
        _aid, _sign = cached_get(ref)
        m = np.isin(b[id_col].to_numpy(), _aid)
        if not m.any():
            return pd.DataFrame({"anchor_id": [], "own_score": []})
        sub = b.loc[m]
        counts, tn = _embed(sub[caption_col].tolist())
        ok = tn > 0
        ids = sub[id_col].to_numpy()[ok]
        pos = np.array([np.where(_aid == i)[0][0] for i in ids])
        s = np.round((counts[ok] * _sign[pos]).sum(axis=1) / (tn[ok] * 8.0),
                     6)
        return pd.DataFrame({"anchor_id": ids, "own_score": s})

    own = pd.concat(
        list(ds.select_columns([id_col, caption_col])
             .map_batches(own_scores, batch_format="pandas")
             .iter_batches(batch_size=1024, batch_format="pandas")),
        ignore_index=True).drop_duplicates("anchor_id")
    own = own.sort_values("anchor_id").reset_index(drop=True)
    oref = ray.put((own["anchor_id"].to_numpy(),
                    own["own_score"].to_numpy()))

    def beat_counts(b: pd.DataFrame) -> pd.DataFrame:
        _aid, _sign = cached_get(ref)
        o_ids, o_s = cached_get(oref)
        counts, tn = _embed(b[caption_col].tolist())
        ok = tn > 0
        if not ok.any():
            return pd.DataFrame({"anchor_id": o_ids,
                                 "beat": np.zeros(len(o_ids),
                                                  dtype=np.int64)})
        ids = b[id_col].to_numpy()[ok]
        pos = np.array([np.where(_aid == i)[0][0] for i in o_ids])
        sc = np.round((counts[ok] @ _sign[pos].T) / (tn[ok][:, None] * 8.0),
                      6)  # (B, A') vs the anchors that HAVE own scores
        beats = (sc > o_s[None, :]) | ((sc == o_s[None, :])
                                       & (ids[:, None] < o_ids[None, :]))
        return pd.DataFrame({"anchor_id": o_ids,
                             "beat": beats.sum(axis=0).astype(np.int64)})

    parts = pd.concat(
        list(ds.select_columns([id_col, caption_col])
             .map_batches(beat_counts, batch_format="pandas")
             .iter_batches(batch_size=1024, batch_format="pandas")),
        ignore_index=True)
    agg = parts.groupby("anchor_id", sort=True)["beat"].sum()
    out = own.copy()
    out["own_rank"] = (out["anchor_id"].map(agg).fillna(0)
                       .astype(np.int64) + 1)
    return out
