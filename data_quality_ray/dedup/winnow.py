"""Winnowing document fingerprints (Schleimer, Wilkerson & Aiken,
SIGMOD 2003 — the MOSS local fingerprinting algorithm): hash every
character k-gram, slide a window of w consecutive hashes, and keep the
RIGHTMOST minimal hash of each window. The selected (position, hash)
set is a deterministic, position-robust fingerprint — any shared
substring of length >= w + k - 1 between two docs is guaranteed to
produce at least one shared fingerprint (the winnowing guarantee), which
is what makes it a near-dup / containment detector rather than a
whole-doc signature like SimHash.

Hashing:
- ``hash_fn="stable"``: a TRUE Rabin-Karp rolling polynomial hash mod
  2^64, vectorized over the whole doc via the invertible-base prefix
  trick (odd base B => B^-1 exists mod 2^64): with
  Q(i) = sum_{j<i} c[j]*B^-j, every gram hash is
  (Q(i+k) - Q(i)) * B^(i+k-1) — O(n) total, no per-gram loop.
- ``hash_fn="md5"``: low half of md5 per gram, bit-identical to DuckDB's
  ``md5_number_lower`` so the driver query replays selection in SQL
  (window min via a grams x window-starts join + rightmost tie-break).

The reference has no rolling-hash fingerprinting (its nearest neighbour
is TextPatternUtil's character-class fingerprints, pattern/
TextPatternUtil.java); this is one of the beyond-reference
training-data-pipeline operators.

Scale shape: fingerprinting is embarrassingly parallel (one map_batches,
no shuffle); candidate pairing groups postings by fingerprint hash with
the same hash-bucketed, never-per-tiny-group pattern as
``dedup/ngram_jaccard.py``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.exchange import bucket_exchange
from ..profiling.sketches import md5_hash64

_B = np.uint64(1000003)                      # odd => invertible mod 2^64
_BINV = np.uint64(pow(1000003, -1, 1 << 64))


def _rk_gram_hashes(s: str, k: int) -> np.ndarray:
    """All k-gram Rabin-Karp hashes of ``s`` (code-point based, matching
    SQL substr semantics), uint64 wrap arithmetic throughout."""
    c = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    n = len(c) - k + 1
    if n <= 0:
        return np.empty(0, dtype=np.uint64)
    # powinv[j] = B^-j; Q[i] = sum_{j<i} c[j] * B^-j  (cumsum wraps mod 2^64)
    powinv = np.empty(len(c), dtype=np.uint64)
    powinv[0] = np.uint64(1)
    np.multiply.accumulate(np.full(len(c), _BINV, dtype=np.uint64)[1:],
                           out=powinv[1:])
    q = np.zeros(len(c) + 1, dtype=np.uint64)
    np.cumsum(c * powinv, out=q[1:])
    # bp[i] = B^(i+k-1)
    bp = np.empty(n, dtype=np.uint64)
    bp[0] = np.uint64(pow(1000003, k - 1, 1 << 64))
    if n > 1:
        np.multiply.accumulate(np.full(n, _B, dtype=np.uint64)[1:], out=bp[1:])
        bp[1:] = bp[1:] * bp[0]
    return (q[k:k + n] - q[:n]) * bp


def _md5_gram_hashes(s: str, k: int) -> np.ndarray:
    n = len(s) - k + 1
    if n <= 0:
        return np.empty(0, dtype=np.uint64)
    grams = np.array([s[i:i + k] for i in range(n)], dtype=object)
    return md5_hash64(grams)


def winnow_select(h: np.ndarray, w: int) -> np.ndarray:
    """0-based positions selected by winnowing: rightmost minimal hash of
    each length-w window (single clipped window when fewer than w grams),
    distinct. Vectorized via a strided window view + reversed argmin."""
    n = len(h)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    ww = min(w, n)
    win = np.lib.stride_tricks.sliding_window_view(h, ww)
    ridx = ww - 1 - np.argmin(win[:, ::-1], axis=1)
    return np.unique(np.arange(win.shape[0], dtype=np.int64) + ridx)


def winnow_fingerprints(text: str | None, k: int = 5, w: int = 4,
                        hash_fn: str = "stable") -> tuple[np.ndarray, np.ndarray]:
    """-> (pos, hash) fingerprint arrays for one doc; ``pos`` is 1-based
    (SQL substr convention). Text is lowercased first."""
    s = (text or "").lower()
    h = (_rk_gram_hashes(s, k) if hash_fn == "stable"
         else _md5_gram_hashes(s, k))
    sel = winnow_select(h, w)
    return sel + 1, h[sel]


def add_winnow_fingerprints(ds, id_col: str, text_col: str, k: int = 5,
                            w: int = 4, hash_fn: str = "stable"):
    """Dataset of exploded (id, pos, fp) fingerprint rows — one
    shuffle-free map_batches; fp is the uint64 hash viewed as int64 (the
    SQL signed-BIGINT lift)."""

    def emit(b: pd.DataFrame) -> pd.DataFrame:
        ids, poss, fps, counts = [], [], [], []
        for i, t in zip(b[id_col].to_numpy(), b[text_col].to_numpy()):
            p, h = winnow_fingerprints(t if isinstance(t, str) else "",
                                       k, w, hash_fn)
            if len(p):
                ids.append(i)
                poss.append(p)
                fps.append(h)
                counts.append(len(p))
        if not ids:
            return pd.DataFrame({id_col: b[id_col].iloc[:0],
                                 "pos": pd.Series(dtype=np.int64),
                                 "fp": pd.Series(dtype=np.int64)})
        return pd.DataFrame({
            id_col: np.repeat(np.asarray(ids), counts),
            "pos": np.concatenate(poss).astype(np.int64),
            "fp": np.concatenate(fps).view(np.int64),
        })

    return ds.map_batches(emit, batch_format="pandas")


def winnow_candidates(ds, id_col: str, text_col: str, k: int = 5, w: int = 4,
                      min_shared: int = 2, hash_fn: str = "stable",
                      n_buckets: int = 64, output: str = "pandas"):
    """Candidate near-dup / containment pairs: docs sharing at least
    ``min_shared`` DISTINCT fingerprint hashes -> (id_a, id_b, shared).
    Postings (fp, id) group by fingerprint hash — bucketed like every
    sibling pairing stage, pairs counted with a pandas groupby (no
    per-tiny-group Python callbacks).

    A pair's shared-count splits across fp-buckets, so the global sum
    needs one more (id_a, id_b)-keyed exchange: ``output="dataset"``
    runs it distributed (per-pair grouped sum + min_shared filter, no
    driver pair frame — the unbounded-pair-set route); the pandas
    default sums on the driver (pairs ≪ corpus at sane min_shared)."""
    fps = add_winnow_fingerprints(ds, id_col, text_col, k, w, hash_fn)

    def postings(b: pd.DataFrame) -> pd.DataFrame:
        return b.drop_duplicates(subset=["fp", id_col])[[id_col, "fp"]]

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(subset=["fp", id_col])
        g = g.sort_values(["fp", id_col], kind="mergesort")
        ids = g[id_col].to_numpy()
        runs = g.groupby("fp", sort=False).size().to_numpy()
        offs = np.concatenate([[0], np.cumsum(runs)])
        ia_all, ib_all = [], []
        for s, e in zip(offs[:-1], offs[1:]):
            if e - s > 1:
                ia, ib = np.triu_indices(e - s, k=1)
                ia_all.append(ia + s)
                ib_all.append(ib + s)
        if not ia_all:
            return pd.DataFrame({"id_a": pd.Series(dtype=ids.dtype),
                                 "id_b": pd.Series(dtype=ids.dtype),
                                 "shared": pd.Series(dtype=np.int64)})
        ia = np.concatenate(ia_all)
        ib = np.concatenate(ib_all)
        part = pd.DataFrame({"id_a": ids[ia], "id_b": ids[ib]})
        out = part.groupby(["id_a", "id_b"], sort=False).size().reset_index(name="shared")
        out["shared"] = out["shared"].astype(np.int64)
        return out

    part_ds = bucket_exchange(fps.map_batches(postings, batch_format="pandas"),
                              "fp", pairs_in_bucket, n_buckets)
    if output == "dataset":
        from .minhash import dedup_pairs_dataset

        def sum_bucket(g: pd.DataFrame) -> pd.DataFrame:
            out = (g.groupby(["id_a", "id_b"], sort=False)["shared"]
                   .sum().reset_index())
            return out[out["shared"] >= min_shared]

        # the shared (id_a, id_b)-keyed exchange, with the per-pair fold
        # swapped from uniqueness to the shared-count sum + threshold
        return dedup_pairs_dataset(part_ds, n_buckets=n_buckets,
                                   reducer=sum_bucket)

    parts = part_ds.to_pandas()
    if parts.empty:
        return pd.DataFrame({"id_a": [], "id_b": [], "shared": []})
    # distinct fp hashes land in exactly one bucket, so per-pair shared
    # counts add across buckets
    out = parts.groupby(["id_a", "id_b"], sort=False)["shared"].sum().reset_index()
    out = out[out["shared"] >= min_shared]
    return (out.sort_values(["id_a", "id_b"], kind="mergesort")
            .reset_index(drop=True))
