"""Market-basket co-occurrence: support and lift of item pairs within a
group (order), the standard association-rule screen (Agrawal-Srikant
support counting, pair-only).

Shape: ONE group-keyed bucketed exchange co-locates each group's rows.
Inside a bucket everything is vectorized pandas: global (group, item)
distinctness falls out of bucket locality, pairs come from a self-merge
(baskets are small — C(m,2) per group), and the bucket emits tagged
COUNT partials only (pair counts, item supports, group count) so no raw
rows leave the exchange. The partial dataset is materialized ONCE and
consumed three ways (the lazy-Dataset re-execution trap — see
CLAUDE.md); pair-count finalization rides grouped_aggregate's
measured-size auto gate, so an unbounded pair space shifts to the
bucketed shuffle path instead of the driver. Final top-k is per-block
local top-k then a (blocks × k)-row driver merge.

Reference precedent: value-frequency profiling
(CompositePatternFrequencyAnalyzer) generalized to within-group value
pairs; lift is the classical normalization.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .exchange import bucket_exchange

__all__ = ["copurchase_lift"]


def copurchase_lift(ds, group_col: str, item_col: str, min_support: int = 2,
                    k: int = 50, n_buckets: int = 32) -> pd.DataFrame:
    """→ top-``k`` rows (a, b, n, lift) with a < b, n >= min_support,
    ordered by (lift desc, a, b); lift rounded to 6 BEFORE ranking so
    the order is reproducible across engines."""
    from ..profiling.groupagg import grouped_aggregate

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"kind": pd.Series(dtype=object),
                              "a": pd.Series(dtype=np.int64),
                              "b": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64)})
        if g.empty:
            return empty
        d = g[[group_col, item_col]].drop_duplicates()
        m = d.merge(d, on=group_col, suffixes=("_a", "_b"))
        m = m[m[f"{item_col}_a"] < m[f"{item_col}_b"]]
        pairs = (m.groupby([f"{item_col}_a", f"{item_col}_b"], sort=False)
                 .size().rename("n").reset_index())
        pairs.columns = ["a", "b", "n"]
        pairs["kind"] = "p"
        sup = (d.groupby(item_col, sort=False).size().rename("n")
               .reset_index())
        sup.columns = ["a", "n"]
        sup["kind"] = "s"
        sup["b"] = np.int64(-1)
        ng = pd.DataFrame({"kind": ["g"], "a": [np.int64(-1)],
                           "b": [np.int64(-1)],
                           "n": [np.int64(d[group_col].nunique())]})
        return pd.concat([pairs[["kind", "a", "b", "n"]],
                          sup[["kind", "a", "b", "n"]], ng],
                         ignore_index=True)

    parts = bucket_exchange(ds.select_columns([group_col, item_col]),
                            group_col, partial, n_buckets).materialize()

    # supports + group count: item-space rows only — driver merge
    # (vectorized batch filters, never a per-row Python predicate)
    small = parts.map_batches(lambda b: b[b["kind"] != "p"],
                              batch_format="pandas").to_pandas()
    n_groups = int(small.loc[small["kind"] == "g", "n"].sum())
    sup = (small.loc[small["kind"] == "s"].groupby("a", sort=False)["n"]
           .sum())
    sup_map = dict(zip(sup.index.to_numpy(), sup.to_numpy()))

    # pair counts: measured-size auto gate (driver merge vs bucketed shuffle)
    merged = grouped_aggregate(
        parts.map_batches(lambda b: b[b["kind"] == "p"][["a", "b", "n"]],
                          batch_format="pandas"),
        ["a", "b"], {"n": ("n", "sum")}, final="auto")

    def score(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[pdf["n"] >= min_support].copy()
        if pdf.empty:
            return pd.DataFrame({"a": pd.Series(dtype=np.int64),
                                 "b": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64),
                                 "lift": pd.Series(dtype=np.float64)})
        na = pdf["a"].map(sup_map).to_numpy(dtype=np.float64)
        nb = pdf["b"].map(sup_map).to_numpy(dtype=np.float64)
        pdf["lift"] = np.round(
            pdf["n"].to_numpy(dtype=np.float64) * n_groups / (na * nb), 6)
        return (pdf.sort_values(["lift", "a", "b"],
                                ascending=[False, True, True])
                .head(k)[["a", "b", "n", "lift"]])

    if isinstance(merged, pd.DataFrame):
        return score(merged).reset_index(drop=True)
    # dataset path: per-block local top-k, then a (blocks × k)-row merge
    local = merged.map_batches(score, batch_format="pandas").to_pandas()
    return score(local).reset_index(drop=True)
