"""Exact distributed quantiles in a bounded number of counting folds.

``quantiles_price`` (pipelines/queries.py) collects the pruned column to
the driver — the documented small-side exact path, with t-digest as the
approximate scale path. This module is the EXACT scale path: the classic
histogram-bisection order-statistic search (Munro-Paterson style
multi-pass selection). Each pass is a ``map_batches`` counting fold with
a fixed-size partial (n_buckets int64 counters), so nothing but counters
ever reaches the driver until the final pass, which collects ONLY the
values inside the straddling bucket(s) — in expectation ``n / n_buckets``
rows, and re-bisected if a bucket is heavier than ``collect_limit``
(pathological ties short-circuit because a constant range needs no
collection at all).

Reference parity: mirrors the exact-quantile semantics of the reference's
QuantileAnalyzer (statistics/.../QuantileAnalyzer.java) with DuckDB's
``quantile_cont`` interpolation ``lo + (hi - lo) * frac``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = ["exact_quantiles"]


def _masked(b: pd.DataFrame, col: str, constraints) -> np.ndarray:
    """Non-null values of ``col`` surviving the bucket-constraint chain.

    A constraint is (lo, width, nb, idx): keep values whose bucket index
    under that exact arithmetic equals idx — reusing the SAME float ops
    as the histogram pass, so recursion never loses edge values to
    rounding the way a (lo, hi) range filter could.
    """
    v = b[col].to_numpy(dtype=np.float64)
    v = v[~np.isnan(v)]
    for lo, width, nb, idx in constraints:
        j = np.minimum((np.floor((v - lo) / width * nb)).astype(np.int64), nb - 1)
        v = v[j == idx]
    return v


def _fold(ds, col: str, partial):
    """Run a one-row-per-batch counting partial and merge on the driver."""
    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    return parts


def _minmax(ds, col: str, constraints):
    def p(b: pd.DataFrame) -> pd.DataFrame:
        v = _masked(b, col, constraints)
        if not len(v):
            return pd.DataFrame({"n": [0], "mn": [np.nan], "mx": [np.nan]})
        return pd.DataFrame({"n": [len(v)], "mn": [v.min()], "mx": [v.max()]})

    parts = _fold(ds, col, p)
    n = int(parts["n"].sum())
    if n == 0:
        return 0, np.nan, np.nan
    return n, float(parts["mn"].min()), float(parts["mx"].max())


def _hist(ds, col: str, constraints, lo: float, width: float, nb: int):
    def p(b: pd.DataFrame) -> pd.DataFrame:
        v = _masked(b, col, constraints)
        j = np.minimum((np.floor((v - lo) / width * nb)).astype(np.int64), nb - 1)
        cnt = np.bincount(j, minlength=nb)
        return pd.DataFrame({"j": np.arange(nb, dtype=np.int64), "n": cnt})

    parts = _fold(ds, col, p)
    return (parts.groupby("j", sort=True)["n"].sum()
            .reindex(range(nb), fill_value=0).to_numpy())


def _collect_buckets(ds, col: str, constraints, lo: float, width: float,
                     nb: int, wanted: set[int]):
    wl = np.array(sorted(wanted), dtype=np.int64)

    def p(b: pd.DataFrame) -> pd.DataFrame:
        v = _masked(b, col, constraints)
        j = np.minimum((np.floor((v - lo) / width * nb)).astype(np.int64), nb - 1)
        keep = np.isin(j, wl)
        return pd.DataFrame({"j": j[keep], "v": v[keep]})

    parts = _fold(ds, col, p)
    return {int(j): np.sort(g["v"].to_numpy()) for j, g in parts.groupby("j")}


def _order_stats(ds, col: str, ks: list[int], n_buckets: int,
                 collect_limit: int, constraints=(), rank_offset: int = 0,
                 depth: int = 0) -> dict[int, float]:
    """Exact values of the 0-indexed global order statistics ``ks``
    among the rows surviving ``constraints`` (ranks are global: the
    caller supplies ``rank_offset`` = rows below this constraint range).
    """
    n, mn, mx = _minmax(ds, col, list(constraints))
    if n == 0:
        raise ValueError(f"no non-null values in {col!r}")
    if mn == mx:  # constant range: every contained order stat IS mn
        return {k: mn for k in ks}
    if not (np.isfinite(mn) and np.isfinite(mx)):
        raise ValueError(f"{col!r} contains non-finite values; histogram "
                         "bisection needs finite bounds")
    width = mx - mn
    counts = _hist(ds, col, list(constraints), mn, width, n_buckets)
    cum = np.cumsum(counts)
    out: dict[int, float] = {}
    by_bucket: dict[int, list[int]] = {}
    for k in ks:
        j = int(np.searchsorted(cum, k - rank_offset, side="right"))
        by_bucket.setdefault(j, []).append(k)

    small = {j for j in by_bucket if counts[j] <= collect_limit}
    if small:
        vals = _collect_buckets(ds, col, list(constraints), mn, width,
                                n_buckets, small)
        for j in small:
            before = rank_offset + (int(cum[j - 1]) if j > 0 else 0)
            arr = vals[j]
            for k in by_bucket[j]:
                out[k] = float(arr[k - before])
    for j in by_bucket:
        if j in small:
            continue
        if depth >= 8:  # counting passes have provably shrunk the range
            raise RuntimeError("histogram bisection failed to converge")
        before = rank_offset + (int(cum[j - 1]) if j > 0 else 0)
        out.update(_order_stats(
            ds, col, by_bucket[j], n_buckets, collect_limit,
            constraints=list(constraints) + [(mn, width, n_buckets, j)],
            rank_offset=before, depth=depth + 1))
    return out


def exact_quantiles(ds, col: str, qs, n_buckets: int = 4096,
                    collect_limit: int = 2_000_000):
    """EXACT ``quantile_cont`` of ``col`` at each q in ``qs``, computed
    distributed: counting folds only, plus one bucket-local value
    collection bounded by ``collect_limit`` rows. Returns (n, [values]).

    Interpolation matches DuckDB/ANSI ``quantile_cont``:
    ``lo + (hi - lo) * frac`` at rank ``q * (n - 1)``.
    """
    qs = list(qs)
    n, mn, mx = _minmax(ds, col, [])
    if n == 0:
        raise ValueError(f"no non-null values in {col!r}")
    ranks: set[int] = set()
    for q in qs:
        r = q * (n - 1)
        ranks.add(int(np.floor(r)))
        ranks.add(int(np.ceil(r)))
    stats = _order_stats(ds, col, sorted(ranks), n_buckets, collect_limit)
    vals = []
    for q in qs:
        r = q * (n - 1)
        k0, k1 = int(np.floor(r)), int(np.ceil(r))
        lo, hi = stats[k0], stats[k1]
        vals.append(lo + (hi - lo) * (r - k0))
    return n, vals


def grouped_disc_quantile(ds, group_col: str, val_col: str,
                          q) -> pd.DataFrame:
    """EXACT per-group ``quantile_disc`` from ONE (group, value)→count
    exchange: driver state is the distinct (group, value) table — right
    when values are quantized (scores, prices); for unbounded continuous
    value spaces per group, the t-digest grouped sketch is the scale
    path. DuckDB-bit-identical positions.

    ``q`` one quantile → (group, q_val); a sequence of quantiles →
    (group, one column per quantile, named by the quantile itself), all
    read off the same count table — one exchange for any number."""
    from ..functions.partitioning import _disc_quantile_val
    from .groupagg import grouped_aggregate

    qs = [q] if np.isscalar(q) else list(dict.fromkeys(q))
    counts = grouped_aggregate(ds.select_columns([group_col, val_col]),
                               [group_col, val_col], {"n": ("", "count")})
    rows = []
    for g, sub in counts.groupby(group_col, sort=True):
        sub = sub.sort_values(val_col)
        vals = sub[val_col].to_numpy()
        cum = sub["n"].to_numpy(np.int64).cumsum()
        rows.append((g, *(_disc_quantile_val(vals, cum, x) for x in qs)))
    return pd.DataFrame(rows, columns=[group_col,
                                       *(["q_val"] if np.isscalar(q) else qs)])


def grouped_tdigest(ds, group_col: str, val_col: str,
                    qs: tuple = (0.5, 0.95)) -> dict:
    """Per-group quantiles from MERGEABLE t-digests — the scale path
    ``grouped_disc_quantile``'s docstring promises for unbounded
    continuous value spaces: one (batch, group) digest-partial pass
    (fixed ≤ ~2 KB state per cell), pickled partials stream to the
    driver, one merge per group. Approximation bounded by the digest's
    rank error; gate against an exact probe where checkable.
    → {group: {q: estimate}}."""
    import pickle

    import pandas as pd

    from .sketches import TDigest

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for g, sub in b.groupby(group_col, sort=False):
            d = TDigest()
            d.update_array(pd.to_numeric(sub[val_col], errors="coerce")
                           .dropna().to_numpy(np.float64))
            rows.append((g, pickle.dumps(d)))
        return pd.DataFrame(rows, columns=["grp", "blob"])

    acc: dict = {}
    for b in ds.select_columns([group_col, val_col]).map_batches(
            partial, batch_format="pandas").iter_batches(
            batch_size=256, batch_format="pandas"):
        for g, blob in zip(b["grp"], b["blob"]):
            d = pickle.loads(blob)
            if g in acc:
                acc[g].merge(d)
            else:
                acc[g] = d
    return {g: {q: float(d.quantile(q)) for q in qs}
            for g, d in acc.items()}
