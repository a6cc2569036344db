"""Corpus lexical-diversity and novelty metrics.

Curation signals over the token stream that the per-doc heuristics
(rules/heuristics.py) can't see: type-token ratio / hapax rate per
corpus slice (template-generated or boilerplate-heavy sources score
low), and per-document n-gram novelty (what fraction of a doc's
shingles appear here FIRST — near-zero novelty marks recombined or
memorized content; the same first-seen-owner algebra as exact dedup's
keep-first, applied to shingles instead of whole docs).

Tokenization shares the repo-wide whitespace contract
(``text.split()`` ↔ SQL ``string_split_regex(text, '\\s+')`` with
empties filtered), so both metrics replay exactly in DuckDB.

Scale shape: everything is (key → count/min) grouped folds. The
token/shingle key spaces are unbounded, so the folds run through
``grouped_aggregate(final="auto")`` — driver merge below the measured
partial-row gate, hash-bucketed shuffle above it; per-group outputs are
bounded by slice/doc counts.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .groupagg import grouped_aggregate

__all__ = ["ttr_by_group", "ngram_novelty", "source_overlap",
           "char_entropy", "source_concentration"]


def ttr_by_group(ds, group_col: str, text_col: str) -> pd.DataFrame:
    """Type-token ratio and hapax rate per group from ONE
    (group, token) → count exchange: n_tokens = Σ counts, n_distinct =
    #keys, n_hapax = #keys with count 1; ttr = distinct/total, hapax
    share of the vocabulary = hapax/distinct.
    → (group, n_tokens, n_distinct, n_hapax, ttr, hapax_ratio)."""
    def explode(b: pd.DataFrame) -> pd.DataFrame:
        toks, grps = [], []
        for g, v in zip(b[group_col], b[text_col]):
            t = (v or "").split()
            toks.extend(t)
            grps.extend([g] * len(t))
        return pd.DataFrame({"grp": grps, "token": toks})

    counts = grouped_aggregate(
        ds.select_columns([group_col, text_col]).map_batches(
            explode, batch_format="pandas"),
        ["grp", "token"], {"n": ("token", "count")}, final="auto")
    if isinstance(counts, pd.DataFrame):
        g = counts.groupby("grp", sort=False)
        out = pd.DataFrame({
            "n_tokens": g["n"].sum().astype(np.int64),
            "n_distinct": g.size().astype(np.int64),
            "n_hapax": g["n"].agg(lambda s: int((s == 1).sum())).astype(np.int64),
        }).reset_index(names=group_col)
    else:  # shuffle path: second grouped fold, never the vocabulary on
        # the driver
        flagged = counts.map_batches(
            lambda b: b.assign(hapax=(b["n"].to_numpy() == 1).astype(np.int64)),
            batch_format="pandas")
        out = grouped_aggregate(
            flagged, ["grp"], {"n_tokens": ("n", "sum"),
                               "n_distinct": ("n", "count"),
                               "n_hapax": ("hapax", "sum")},
            final="driver").rename(columns={"grp": group_col})
        out = out.astype({c: np.int64 for c in
                          ("n_tokens", "n_distinct", "n_hapax")})
    out["ttr"] = out["n_distinct"] / out["n_tokens"]
    out["hapax_ratio"] = out["n_hapax"] / out["n_distinct"]
    return out.sort_values(group_col).reset_index(drop=True)


def ngram_novelty(ds, id_col: str, text_col: str, n: int = 3) -> pd.DataFrame:
    """Per-document novelty: the fraction of the doc's DISTINCT word
    n-grams whose corpus-wide FIRST owner (min id) is this doc. Two
    grouped folds over the exploded (id, gram) pairs — min-id per gram
    (first-seen ownership, exactly the keep-first algebra of
    dedup/exact.py applied to shingles) and distinct-gram count per
    doc — then one bounded per-doc merge. Docs with fewer than ``n``
    tokens have no shingles and are omitted (SQL parity).
    → (id, n_distinct, n_novel, novelty)."""
    def explode(b: pd.DataFrame) -> pd.DataFrame:
        ids, grams = [], []
        for i, v in zip(b[id_col], b[text_col]):
            t = (v or "").split()
            if len(t) < n:
                continue
            uniq = set(" ".join(t[j:j + n]) for j in range(len(t) - n + 1))
            grams.extend(uniq)
            ids.extend([i] * len(uniq))
        return pd.DataFrame({"id": ids, "gram": grams})

    pairs = ds.select_columns([id_col, text_col]).map_batches(
        explode, batch_format="pandas").materialize()

    first = grouped_aggregate(pairs, ["gram"], {"fd": ("id", "min")},
                              final="auto")
    if isinstance(first, pd.DataFrame):
        novel = (first.groupby("fd", sort=False).size().rename("n_novel")
                 .reset_index().rename(columns={"fd": "id"}))
    else:  # shuffle path: second grouped fold, never the gram table on
        # the driver
        novel = grouped_aggregate(first, ["fd"], {"n_novel": ("fd", "count")},
                                  final="driver").rename(columns={"fd": "id"})

    per_doc = grouped_aggregate(pairs, ["id"],
                                {"n_distinct": ("gram", "count")},
                                final="driver")
    out = per_doc.merge(novel, on="id", how="left")
    out["n_novel"] = out["n_novel"].fillna(0).astype(np.int64)
    out["n_distinct"] = out["n_distinct"].astype(np.int64)
    out["novelty"] = out["n_novel"] / out["n_distinct"]
    return (out.rename(columns={"id": id_col})
            .sort_values(id_col).reset_index(drop=True))


def source_overlap(ds, group_col: str, text_col: str, n: int = 3) -> pd.DataFrame:
    """Cross-source contamination matrix: for every pair of sources,
    the count of shared distinct word n-grams and their Jaccard —
    mirrored/syndicated content shows up as a hot pair long before
    doc-level dedup finds it.

    No self-join: sources are a SMALL set (the small-side contract), so
    each gets a bit and the matrix falls out of three grouped folds —
    (1) the (gram, source) distinct exchange, (2) per-gram OR of source
    bits (a SUM, exact after the dedup), (3) a mask histogram. Pair
    counts come from popcount algebra over the tiny distinct-mask table
    (Σ counts of masks containing both bits); per-source sizes from the
    same histogram. Assumes ≤ 64 sources per fold (one mask word) —
    shard the group space for more.
    → (source_a, source_b, n_shared, jaccard), pairs sharing ≥ 1 gram."""
    import itertools

    srcs = grouped_aggregate(
        ds.select_columns([group_col]),
        [group_col], {"n": (group_col, "count")}, final="driver")
    names = sorted(srcs[group_col].dropna().tolist())
    if len(names) > 64:
        raise ValueError(f"{len(names)} sources exceed one mask word")
    bit = {s: np.int64(1) << i for i, s in enumerate(names)}

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        grams, bits = [], []
        for g, v in zip(b[group_col], b[text_col]):
            t = (v or "").split()
            if len(t) < n or g is None:
                continue
            uniq = set(" ".join(t[j:j + n]) for j in range(len(t) - n + 1))
            grams.extend(uniq)
            bits.extend([bit[g]] * len(uniq))
        return pd.DataFrame({"gram": grams, "b": np.array(bits, np.int64)})

    # fold 1: distinct (gram, source-bit) — min == the bit itself
    pairs = grouped_aggregate(
        ds.select_columns([group_col, text_col]).map_batches(
            explode, batch_format="pandas"),
        ["gram", "b"], {"nn": ("b", "count")}, final="auto")
    # fold 2: per-gram OR of source bits (sum is exact post-dedup)
    if isinstance(pairs, pd.DataFrame):
        masks = (pairs.groupby("gram", sort=False)["b"].sum()
                 .value_counts().rename_axis("mask").rename("cnt")
                 .reset_index())
    else:
        or_ds = grouped_aggregate(pairs, ["gram"], {"mask": ("b", "sum")},
                                  final="shuffle")
        # fold 3: mask histogram — distinct masks ≤ observed source
        # combos, always driver-small
        masks = grouped_aggregate(or_ds, ["mask"],
                                  {"cnt": ("mask", "count")}, final="driver")
    m = masks["mask"].to_numpy(np.int64)
    c = masks["cnt"].to_numpy(np.int64)
    size = {s: int(c[(m & bit[s]) != 0].sum()) for s in names}
    rows = []
    for sa, sb in itertools.combinations(names, 2):
        both = int(c[(m & bit[sa] != 0) & (m & bit[sb] != 0)].sum())
        if both:
            rows.append((sa, sb, both,
                         both / (size[sa] + size[sb] - both)))
    return pd.DataFrame(rows, columns=["source_a", "source_b",
                                       "n_shared", "jaccard"])


def char_entropy(ds, id_col: str, text_col: str) -> pd.DataFrame:
    """Per-document Shannon entropy (nats) of the character
    distribution — the classic binary-junk / repetition detector: near
    zero for single-char runs, ~ln(alphabet) for random noise, a stable
    mid-band for natural language. Embarrassingly parallel (one
    map_batches, no exchange); uses H = ln(n) − (Σ c·ln c)/n so both
    engines sum the same ln terms. Null/empty docs are omitted.
    → (id, n_chars, char_entropy)."""
    def stage(b: pd.DataFrame) -> pd.DataFrame:
        ids, tot, ent = [], [], []
        for i, v in zip(b[id_col], b[text_col]):
            if not v:
                continue
            _, counts = np.unique(np.array(list(v)), return_counts=True)
            n = counts.sum()
            ids.append(i)
            tot.append(int(n))
            ent.append(float(np.log(n) - (counts * np.log(counts)).sum() / n))
        return pd.DataFrame({id_col: ids,
                             "n_chars": np.array(tot, np.int64),
                             "char_entropy": ent})

    out = pd.concat(list(
        ds.select_columns([id_col, text_col])
        .map_batches(stage, batch_format="pandas")
        .iter_batches(batch_size=4096, batch_format="pandas")),
        ignore_index=True)
    return out.sort_values(id_col).reset_index(drop=True)


def source_concentration(ds, group_col: str, weight_col: str) -> pd.DataFrame:
    """Corpus composition concentration: Herfindahl–Hirschman index of
    the per-source share of documents and of ``weight_col`` mass (e.g.
    chars), plus the largest single-source share — one grouped fold,
    the diversity dashboard number a mixture planner watches.
    → one row (n_sources, hhi_docs, hhi_weight, top_share_docs)."""
    agg = grouped_aggregate(
        ds.select_columns([group_col, weight_col]),
        [group_col], {"n": (weight_col, "count"),
                      "w": (weight_col, "sum")}, final="driver")
    n = agg["n"].to_numpy(np.float64)
    w = agg["w"].to_numpy(np.float64)
    sn, sw = n / n.sum(), w / w.sum()
    return pd.DataFrame({
        "n_sources": [np.int64(len(agg))],
        "hhi_docs": [float((sn * sn).sum())],
        "hhi_weight": [float((sw * sw).sum())],
        "top_share_docs": [float(sn.max())],
    })
