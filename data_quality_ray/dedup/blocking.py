"""Blocking-key generation + blocked pair matching + record grouping.

Rebuilds the record-linkage pipeline (SURVEY.md §3B):
- blocking keys: pre-algorithm → key-algorithm → post-algorithm per column,
  concatenated (genkey/AbstractGenerateKey.getGenKey:46-152, algorithm
  inventory BlockingKeyAlgorithmEnum.java:27-41);
- blocked matching: ``groupby(block_key)`` then all-pairs attribute
  matching *within* the group (the shuffle key IS the blocking key —
  never an unblocked cross join);
- record grouping: within each block, VSR-style master-list clustering
  (grouping/AbstractRecordGrouping.doGroup:201-254) with a deterministic
  within-group order (required — the reference algorithm is
  order-sensitive, SURVEY.md §2.4 MFB notes);
- group-size cap with early reduction
  (StringsClusterAnalyzer.blockSizeThreshold:57,85 precedent).
"""

from __future__ import annotations

import unicodedata

import numpy as np
import pandas as pd

from ..functions.exchange import bucket_exchange
from ..functions.gate import fits
from ..functions.matchers import soundex
from ..functions.phonetics import cologne_phonetic, double_metaphone, metaphone, soundex_fr
from ..functions.text import fingerprint_key_one

# --- key algorithms (BlockingKeyAlgorithmEnum.java:27-41) ------------------


def _first_char_each_word(s: str) -> str:
    return "".join(w[0] for w in s.split() if w)


KEY_ALGOS = {
    "EXACT": lambda s, p: s,
    "FIRST_CHAR_EW": lambda s, p: _first_char_each_word(s),
    "FIRST_N_CHAR": lambda s, p: s[: int(p or 1)],
    "LAST_N_CHAR": lambda s, p: s[-int(p or 1):] if s else "",
    "FIRST_N_CONSONANTS": lambda s, p: "".join(c for c in s if c.isalpha() and c.lower() not in "aeiou")[: int(p or 1)],
    "FIRST_N_VOWELS": lambda s, p: "".join(c for c in s if c.lower() in "aeiou")[: int(p or 1)],
    "PICK_CHAR": lambda s, p: "".join(s[i] for i in _parse_picks(p) if i < len(s)),
    "SUBSTR": lambda s, p: s[slice(*_parse_range(p))],
    "SOUNDEX": lambda s, p: soundex(s),
    "SOUNDEX_FR": lambda s, p: soundex_fr(s) or "",
    "METAPHONE": lambda s, p: metaphone(s),
    "DOUBLE_METAPHONE": lambda s, p: double_metaphone(s) or "",
    "COLOGNE_PHONETIC": lambda s, p: cologne_phonetic(s) or "",
    "FINGERPRINTKEY": lambda s, p: fingerprint_key_one(s),
    "NGRAM": lambda s, p: s[: int(p or 2)] + s[-int(p or 2):] if s else "",
}

PRE_ALGOS = {
    None: lambda s: s,
    "REMOVE_DIACRITICS": lambda s: "".join(
        c for c in unicodedata.normalize("NFD", s) if not unicodedata.combining(c)
    ),
    "LOWERCASE": lambda s: s.lower(),
    "UPPERCASE": lambda s: s.upper(),
    "LOWERCASE_REMOVE_DIACRITICS": lambda s: "".join(
        c for c in unicodedata.normalize("NFD", s.lower()) if not unicodedata.combining(c)
    ),
}

POST_ALGOS = {
    None: lambda s, p: s,
    "PAD": lambda s, p: s.ljust(int(p or 4), "_"),
}


def _parse_picks(p) -> list[int]:
    return [int(x) - 1 for x in str(p or "1").split(";")]


def _parse_range(p) -> tuple[int, int]:
    a, b = (str(p or "0;1").split(";") + ["1"])[:2]
    return int(a), int(b)


def add_block_key(ds, defs: list[dict], out_col: str = "block_key"):
    from ..functions.text import unique_apply

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        # per-definition column pass with per-distinct memoization (key
        # columns repeat), then one string concat — no per-row dicts
        parts = []
        for d in defs:
            pre = PRE_ALGOS[d.get("pre")]
            key = KEY_ALGOS[d.get("algo", "EXACT")]
            post = POST_ALGOS[d.get("post")]
            ap, pp = d.get("algo_param"), d.get("post_param")
            col = batch[d["column"]].to_numpy(dtype=object)
            parts.append(unique_apply(
                col, lambda v, pre=pre, key=key, post=post, ap=ap, pp=pp:
                post(key(pre(str(v or "")), ap), pp)))
        out = parts[0].astype(object)
        for p in parts[1:]:
            out = np.char.add(out.astype(str), p.astype(str)).astype(object)
        batch[out_col] = out
        return batch

    return ds.map_batches(f, batch_format="pandas")


def cluster_strings(ds, col: str, block_size_threshold: int = 1000,
                    strategy: str = "auto", n_buckets: int = 32) -> pd.DataFrame:
    """End-to-end string clustering (StringsClusterAnalyzer.java:45-120):
    fingerprint blocking (diacritics/case/token-order-insensitive) then a
    survived value per cluster = the most frequent original (ties → first
    seen, the MostCommon survivorship default). Oversized blocks are
    value-truncated (blockSizeThreshold:57,85 early-reduction analog).

    → DataFrame(value, cluster_key, survived, n_values) with one row per
    DISTINCT original value.

    - "collect": whole keyed table on the driver (the reference is
      in-memory by design) — for small inputs.
    - "shuffle": per-batch (cluster_key, value) partials (count + min
      global row id from ``with_row_index``, which pins the first-seen
      order) merged in a hash-bucketed pandas groupby — the
      dedup/survivorship.py shape; the driver only sees the distinct-value
      result. Same tie-break, parity-tested against "collect".
    - "auto": collect when the input rows fit the ``collect_rows`` gate.
    """
    if strategy == "auto":
        ds = ds.materialize()
        strategy = ("collect" if fits("blocking.cluster_strings", ds.count(),
                                      "collect_rows") else "shuffle")

    if strategy == "collect":
        def add_key(batch: pd.DataFrame) -> pd.DataFrame:
            vals = batch[col].to_numpy(dtype=object)
            return pd.DataFrame({
                "value": vals,
                "cluster_key": [fingerprint_key_one(v) for v in vals],
            })

        keyed = ds.map_batches(add_key, batch_format="pandas").to_pandas()
        keyed["__ord"] = range(len(keyed))

        def resolve(g: pd.DataFrame) -> pd.Series:
            counts = g.groupby("value", sort=False).agg(n=("value", "size"), first=("__ord", "min"))
            counts = counts.sort_values(["n", "first"], ascending=[False, True])
            return pd.Series({"survived": counts.index[0], "n_values": len(counts)})

        g = keyed.groupby("cluster_key", sort=True)
        meta = g.apply(resolve, include_groups=False)
        out = keyed.drop_duplicates("value")[["value", "cluster_key"]]
        out = out.merge(meta, left_on="cluster_key", right_index=True)
        # block cap: keep at most threshold distinct values per cluster
        out = out.groupby("cluster_key", sort=False).head(block_size_threshold)
        return out.reset_index(drop=True)

    from ..functions.indexing import with_row_index
    from ..functions.text import unique_apply

    indexed = with_row_index(ds, "__ord")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty or "__ord" not in batch.columns:  # empty-input block
            return pd.DataFrame({"cluster_key": pd.Series(dtype=object),
                                 "value": pd.Series(dtype=object),
                                 "n": pd.Series(dtype="int64"),
                                 "ord": pd.Series(dtype="int64")})
        vals = batch[col].to_numpy(dtype=object)
        part = pd.DataFrame({
            "value": vals,
            "cluster_key": unique_apply(vals, fingerprint_key_one),
            "__ord": batch["__ord"].to_numpy(),
        })
        return part.groupby(["cluster_key", "value"], sort=False, as_index=False).agg(
            n=("__ord", "size"), ord=("__ord", "min"))

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["cluster_key", "value"], sort=False, as_index=False).agg(
            n=("n", "sum"), ord=("ord", "min"))
        m = m.sort_values(["cluster_key", "ord"], kind="mergesort")
        # survived = first value under (n desc, ord asc) per cluster
        pick = m.sort_values(["n", "ord"], ascending=[False, True], kind="mergesort"
                             ).drop_duplicates("cluster_key")
        meta = pick.set_index("cluster_key")["value"]
        sizes = m.groupby("cluster_key", sort=False)["value"].transform("size")
        m["survived"] = m["cluster_key"].map(meta)
        m["n_values"] = sizes
        # block cap in first-seen order (== the collect path's cap order)
        m = m.groupby("cluster_key", sort=False).head(block_size_threshold)
        return m[["value", "cluster_key", "survived", "n_values", "ord"]]

    out = bucket_exchange(indexed.map_batches(partial, batch_format="pandas"),
                          "cluster_key", merge_bucket, n_buckets).to_pandas()
    out = out.sort_values("ord", kind="mergesort").drop(columns="ord")
    return out.reset_index(drop=True)


def blocked_pairs(ds, id_col: str, attr_cols: list[str], block_col: str,
                  matcher="LEVENSHTEIN", threshold: float = 0.8,
                  weights: list[float] | None = None,
                  max_block: int = 10_000, n_buckets: int = 32) -> pd.DataFrame:
    """All pairs within each block whose weighted attribute score ≥
    threshold (SimpleVSRRecordMatcher semantics). Oversized blocks are
    truncated to ``max_block`` deterministic members (skew guard).

    Blocks are hash-bucketed (one Python callback per bucket of many
    blocks); within a bucket, pair indices come from group-offset triu
    ranges and every attribute is scored by the vectorized pair kernels
    (``functions/matchers_vec.batch_match_score``) — scalar-parity-tested
    — so no per-pair Python survives for the common matchers."""
    from ..functions.matchers_vec import batch_match_score

    w = np.array(weights or [1.0] * len(attr_cols), dtype=np.float64)

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([block_col, id_col], kind="mergesort")
        g = g.groupby(block_col, sort=False).head(max_block)
        ids = g[id_col].to_numpy()
        sizes = g.groupby(block_col, sort=False).size().to_numpy()
        offs = np.concatenate([[0], np.cumsum(sizes)])
        ia_all, ib_all = [], []
        for s, e in zip(offs[:-1], offs[1:]):
            if e - s > 1:
                ia, ib = np.triu_indices(e - s, k=1)
                ia_all.append(ia + s); ib_all.append(ib + s)
        if not ia_all:
            return pd.DataFrame({"id_a": pd.Series(dtype=ids.dtype),
                                 "id_b": pd.Series(dtype=ids.dtype),
                                 "score": pd.Series(dtype="float64")})
        ia = np.concatenate(ia_all); ib = np.concatenate(ib_all)
        total = np.zeros(len(ia), dtype=np.float64)
        for c, col in enumerate(attr_cols):
            vals = g[col].to_numpy(dtype=object)
            total += w[c] * batch_match_score(vals[ia], vals[ib], matcher)
        s = total / w.sum()
        keep = s >= threshold
        return pd.DataFrame({"id_a": ids[ia[keep]], "id_b": ids[ib[keep]],
                             "score": np.round(s[keep], 6)})

    return bucket_exchange(ds, block_col, pairs_in_bucket, n_buckets)


def record_group(ds, id_col: str, attr_cols: list[str] | None = None,
                 block_col: str = "block_key",
                 matcher="JARO_WINKLER", threshold: float = 0.9,
                 max_block: int = 10_000, attrs: list[tuple] | None = None,
                 attach: str = "best", order: str = "id") -> pd.DataFrame:
    """VSR grouping within blocks: scan rows, compare to the running
    master list, attach (gid, master_flag, score, group_size) —
    AbstractRecordGrouping.doGroup:201-254 / vsrMatch:253-310 re-expressed
    as ``groupby(block).map_groups``.

    - ``attrs``: [(column, matcher, weight)] weighted multi-attribute rule
      (falls back to equally-weighted ``attr_cols`` × one ``matcher``)
    - ``attach``: "first" = first master whose score ≥ threshold wins
      (the reference's vsrMatch loop order — validated against its
      incoming_customers goldens); "best" = highest-scoring master
    - ``order``: "id" = deterministic sort by id_col; "input" = preserve
      incoming row order (the reference's semantics; deterministic only
      if the upstream order is)
    """
    rule = attrs or [(c, matcher, 1.0) for c in (attr_cols or [])]
    wsum = sum(w for _, _, w in rule)

    def group(g: pd.DataFrame) -> pd.DataFrame:
        from ..functions.matchers_vec import batch_match_score

        if order == "id":
            g = g.sort_values(id_col, kind="mergesort")
        g = g.head(max_block).reset_index(drop=True)
        masters: list[int] = []  # row indices of masters
        gid = np.empty(len(g), dtype=object)
        score = np.zeros(len(g))
        master_flag = np.zeros(len(g), dtype=bool)
        cols = {c: g[c].to_numpy(dtype=object) for c, _, _ in rule}
        ids = g[id_col].to_numpy()
        for i in range(len(g)):
            best_m, best_s = None, 0.0
            if masters:
                # the scan is inherently sequential (each row may become a
                # master), but row-vs-ALL-masters scores batch through the
                # vectorized pair kernels — one call per attribute per
                # row, not one Python match_score per (master, attribute)
                midx = np.asarray(masters)
                tot = np.zeros(len(midx), dtype=np.float64)
                for c, alg, w in rule:
                    tot += w * batch_match_score(
                        cols[c][midx], np.repeat(cols[c][i], len(midx)), alg)
                tot /= wsum
                ok = np.flatnonzero(tot >= threshold)
                if len(ok):
                    j = ok[0] if attach == "first" else ok[np.argmax(tot[ok])]
                    best_m, best_s = masters[j], float(tot[j])
            if best_m is None:
                masters.append(i)
                gid[i] = ids[i]
                master_flag[i] = True
                score[i] = 1.0
            else:
                gid[i] = ids[best_m]
                score[i] = best_s
        out = g.copy()
        out["gid"] = gid
        out["is_master"] = master_flag
        out["match_score"] = np.round(score, 6)
        out["group_size"] = out.groupby("gid")["gid"].transform("size")
        return out

    return ds.groupby(block_col).map_groups(group, batch_format="pandas")
