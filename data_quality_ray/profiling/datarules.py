"""Table-level data-quality rules and statistical analyzers.

The reference's analyzer family (SURVEY.md §2.2) profiles one column at a
time; a production DQ framework also ships TABLE-level checks. This module
adds the classic set as single-pass mergeable folds or grouped_aggregate
compositions — nothing materializes raw rows on the driver except
documented small results:

- ``comoments`` / ``correlation``: Pearson correlation + covariance via
  Chan's parallel co-moment merge (numerically stable partials, exact
  merge — the same partial/final contract as the reference's mergeable
  stats beans).
- ``grouped_entropy``: Shannon entropy (log2) of a categorical column
  from grouped counts.
- ``benford_first_digit``: first-significant-digit distribution vs the
  Benford expectation (fraud/plausibility screening).
- ``iqr_outlier_fences``: Tukey fences from exact quartiles + a second
  distributed counting pass.
- ``uniqueness_profile``: per-column n / nulls / exact distinct
  (hash-bucketed shuffle count — never a driver set) → candidate-key
  discovery.
- ``fd_violations``: functional-dependency check lhs→rhs with the g3
  error (min rows to delete to satisfy the FD).
- ``orphan_stats``: referential-integrity orphan counting with a
  broadcast sorted-key membership filter (same ≤1e9-key broadcast bound
  as dedup/exact.py documents).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..rules.heuristics import round_half_away
from .groupagg import grouped_aggregate


# ---------------------------------------------------------------- moments

def comoments(ds, x_col: str, y_col: str) -> dict:
    """Single pass over (x, y): per-batch centered co-moment partials,
    Chan-merged on the driver (one tiny row per batch moves). Returns
    ``{n, mean_x, mean_y, m2x, m2y, cxy}``; rows with a null in either
    column are excluded (SQL corr/covar semantics)."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        x = b[x_col].to_numpy(dtype=np.float64)
        y = b[y_col].to_numpy(dtype=np.float64)
        ok = ~(np.isnan(x) | np.isnan(y))
        x, y = x[ok], y[ok]
        n = x.size
        if n == 0:
            return pd.DataFrame({"n": [0], "mx": [0.0], "my": [0.0],
                                 "m2x": [0.0], "m2y": [0.0], "cxy": [0.0]})
        mx, my = x.mean(), y.mean()
        dx, dy = x - mx, y - my
        return pd.DataFrame({
            "n": [n], "mx": [mx], "my": [my],
            "m2x": [float(dx @ dx)], "m2y": [float(dy @ dy)],
            "cxy": [float(dx @ dy)],
        })

    acc = None
    for b in ds.map_batches(partial, batch_format="pandas").iter_batches(
            batch_size=4096, batch_format="pandas"):
        for row in b.itertuples(index=False):  # ≤ a few rows per batch
            if row.n == 0:
                continue
            if acc is None:
                acc = [row.n, row.mx, row.my, row.m2x, row.m2y, row.cxy]
                continue
            na, mxa, mya, m2xa, m2ya, cxya = acc
            nb = row.n
            n = na + nb
            dx, dy = row.mx - mxa, row.my - mya
            acc = [
                n,
                mxa + dx * nb / n,
                mya + dy * nb / n,
                m2xa + row.m2x + dx * dx * na * nb / n,
                m2ya + row.m2y + dy * dy * na * nb / n,
                cxya + row.cxy + dx * dy * na * nb / n,
            ]
    if acc is None:
        acc = [0] + [float("nan")] * 5
    n, mx, my, m2x, m2y, cxy = acc
    return {"n": int(n), "mean_x": mx, "mean_y": my,
            "m2x": m2x, "m2y": m2y, "cxy": cxy}


def correlation(ds, x_col: str, y_col: str) -> dict:
    """Pearson r + population/sample covariance from one ``comoments``
    pass. ``r`` is scale-free so the sample/population n-1 cancels."""
    m = comoments(ds, x_col, y_col)
    n, m2x, m2y, cxy = m["n"], m["m2x"], m["m2y"], m["cxy"]
    r = cxy / math.sqrt(m2x * m2y) if m2x > 0 and m2y > 0 else float("nan")
    return {
        "n": n, "corr": r,
        "covar_pop": cxy / n if n else float("nan"),
        "covar_samp": cxy / (n - 1) if n > 1 else float("nan"),
    }


# ---------------------------------------------------------------- entropy

def grouped_entropy(ds, col: str) -> float:
    """Shannon entropy in bits of the value distribution of ``col``
    (nulls excluded) — grouped counts via batch partials, entropy on the
    tiny per-value table. Matches DuckDB ``entropy(col)``."""
    counts = grouped_aggregate(ds, [col], {"n": ("", "count")})
    n = counts["n"].to_numpy(dtype=np.float64)
    tot = n.sum()
    if tot == 0:
        return 0.0
    p = n / tot
    return float(-(p * np.log2(p)).sum())


# ---------------------------------------------------------------- Benford

BENFORD_EXPECTED = {d: math.log10(1 + 1 / d) for d in range(1, 10)}


def benford_first_digit(ds, col: str) -> pd.DataFrame:
    """First-significant-digit distribution of ``floor(col)`` for rows
    with ``col >= 1`` (floor of an IEEE double is bit-identical across
    engines, so the digit is unambiguous — no round-half ambiguity).
    Returns digit / n / freq / benford expectation."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col].to_numpy(dtype=np.float64)
        v = v[np.isfinite(v)]
        v = v[v >= 1.0]
        # arithmetic first digit — an int64 cast would silently wrap for
        # values >= 2^63 and corrupt the distribution
        m = np.floor(v)
        e = np.floor(np.log10(m))
        # float log10 boundary correction on the EXPONENT (m just below a
        # power of 10 can overshoot e; just above can undershoot): enforce
        # 10^e <= m < 10^(e+1) by direct comparison, not by patching d
        e = np.where(m < np.power(10.0, e), e - 1, e)
        e = np.where(m >= np.power(10.0, e + 1), e + 1, e)
        d = np.floor(m / np.power(10.0, e))
        # at >= ~1e23 the power itself is inexact by ~1 ulp, which can
        # still push d onto 0 or 10 for values within 1 ulp of a boundary;
        # clamp — either neighbour digit is defensible at that precision
        d = np.clip(d, 1.0, 9.0)
        digit, n = np.unique(d.astype(np.int64), return_counts=True)
        return pd.DataFrame({"digit": digit, "n": n})

    out = ds.map_batches(partial, batch_format="pandas")
    merged = grouped_aggregate(out, ["digit"], {"n": ("n", "sum")})
    tot = merged["n"].sum()
    f = merged["n"].to_numpy(np.float64) / tot
    merged["freq"] = round_half_away(f)
    merged["expected"] = merged["digit"].map(
        lambda d: round(BENFORD_EXPECTED[int(d)], 6))
    return merged.sort_values("digit").reset_index(drop=True)


# ------------------------------------------------------------- IQR fences

def iqr_outlier_fences(ds, col: str, k: float = 1.5) -> dict:
    """Tukey-fence outlier rule: exact q1/q3 (single pruned column
    collected — documented small-side exact, same contract as
    pipelines/queries.quantiles_price; the t-digest analyzer is the
    100 TB path) then a distributed counting pass against the fences.
    Fences are rounded to 6 decimals BEFORE counting so the comparison
    boundary is reproducible across engines."""
    parts = [b[col].to_numpy(dtype=np.float64) for b in ds.iter_batches(
        batch_size=65536, batch_format="pandas")]
    vals = np.concatenate(parts) if parts else np.array([])
    vals = vals[~np.isnan(vals)]  # quantile_cont ignores NULLs — so do we
    if vals.size == 0:
        return {"fence_lo": float("nan"), "fence_hi": float("nan"),
                "n_low": 0, "n_high": 0,
                "n": int(sum(len(p) for p in parts))}
    q1, q3 = np.percentile(vals, [25, 75])  # linear interp == quantile_cont
    iqr = q3 - q1
    lo = round(float(q1 - k * iqr), 6)
    hi = round(float(q3 + k * iqr), 6)

    def count_out(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col].to_numpy(dtype=np.float64)
        return pd.DataFrame({"n_low": [int((v < lo).sum())],
                             "n_high": [int((v > hi).sum())],
                             "n": [int(v.size)]})

    partials = ds.map_batches(count_out, batch_format="pandas")
    sums = {"n_low": 0, "n_high": 0, "n": 0}
    for b in partials.iter_batches(batch_size=4096, batch_format="pandas"):
        for c in sums:
            sums[c] += int(b[c].sum())
    return {"fence_lo": lo, "fence_hi": hi, **sums}


# ----------------------------------------------------- MAD robust z-score

def mad_outliers(ds, col: str, z: float = 3.5) -> dict:
    """Robust-z outlier rule (Iglewicz-Hoaglin): median and MAD via the
    EXACT distributed histogram-bisection quantile
    (profiling/quantile_exact.py — counting folds only, no column
    collection), fences ``median ± z * 1.4826 * MAD`` rounded to 6
    decimals BEFORE the counting pass (the iqr_outlier_fences boundary
    contract), then one distributed count against the fences.

    Unlike the IQR rule above, this path never materializes the column:
    median costs ~3 counting folds, the MAD median ~3 more over the
    derived ``|x - median|`` column, the fence count one — all fixed-size
    partials, so it holds at any row count."""
    from .quantile_exact import exact_quantiles

    n, (med,) = exact_quantiles(ds, col, [0.5])

    def absdev(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col].to_numpy(dtype=np.float64)
        return pd.DataFrame({"__ad": np.abs(v - med)})

    dev = ds.map_batches(absdev, batch_format="pandas")
    _, (mad,) = exact_quantiles(dev, "__ad", [0.5])
    half = z * 1.4826 * mad
    lo = round(med - half, 6)
    hi = round(med + half, 6)

    def count_out(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col].to_numpy(dtype=np.float64)
        return pd.DataFrame({"n_low": [int((v < lo).sum())],
                             "n_high": [int((v > hi).sum())]})

    sums = {"n_low": 0, "n_high": 0}
    for b in ds.map_batches(count_out, batch_format="pandas").iter_batches(
            batch_size=4096, batch_format="pandas"):
        for c in sums:
            sums[c] += int(b[c].sum())
    return {"n": n, "median": med, "mad": mad,
            "fence_lo": lo, "fence_hi": hi, **sums}


# ---------------------------------------------------- rate anomaly scan

def rate_anomalies(ds, ts_col: str, type_col: str, sigma: float = 3.0) -> pd.DataFrame:
    """Poisson burst detector over an event stream: bucket events into
    (type, hour) counts — ONE counting fold (grouped_aggregate driver
    merge; the key space is types × hours, bounded by wall time not row
    count) — then flag buckets whose count exceeds the type's expected
    hourly rate by ``sigma`` Poisson standard deviations
    (c > E + sigma*sqrt(E), E = type_total / global_distinct_hours).
    Threshold rounded to 6 BEFORE comparing (the fence contract).
    → flagged rows (event_type, hour, n, expected, threshold)."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        h = b[ts_col].dt.floor("h")
        out = (pd.DataFrame({"event_type": b[type_col], "hour": h})
               .groupby(["event_type", "hour"], sort=False).size()
               .rename("n").reset_index())
        return out

    counts = (ds.map_batches(partial, batch_format="pandas").to_pandas()
              .groupby(["event_type", "hour"], sort=True)["n"].sum()
              .reset_index())
    n_hours = counts["hour"].nunique()
    totals = counts.groupby("event_type")["n"].transform("sum")
    expected = totals.to_numpy(dtype=np.float64) / n_hours
    thr = np.round(expected + sigma * np.sqrt(expected), 6)
    flagged = counts[counts["n"].to_numpy() > thr].copy()
    flagged["expected"] = np.round(expected[counts["n"].to_numpy() > thr], 6)
    flagged["threshold"] = thr[counts["n"].to_numpy() > thr]
    flagged["n"] = flagged["n"].astype(np.int64)
    return flagged.reset_index(drop=True)


# --------------------------------------------------------- trimmed mean

def trimmed_mean(ds, col: str, trim: float = 0.1) -> dict:
    """Quantile-trimmed robust mean: exact [q_trim, q_{1-trim}] bounds
    via the histogram-bisection quantile (counting folds only), then one
    (count, sum) fold over values inside the CLOSED interval. Everything
    is fixed-size partials — the exact path at any row count."""
    from .quantile_exact import exact_quantiles

    n, (lo, hi) = exact_quantiles(ds, col, [trim, 1.0 - trim])

    def fold(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col].to_numpy(dtype=np.float64)
        v = v[~np.isnan(v)]
        v = v[(v >= lo) & (v <= hi)]
        return pd.DataFrame({"n": [len(v)], "s": [v.sum()]})

    parts = ds.map_batches(fold, batch_format="pandas").to_pandas()
    kept = int(parts["n"].sum())
    return {"n": n, "n_kept": kept, "lo": lo, "hi": hi,
            "trimmed_mean": float(parts["s"].sum()) / kept if kept else float("nan")}


# -------------------------------------------------- mutual information

def mutual_information(ds, col_a: str, col_b: str) -> dict:
    """MI and normalized MI between two categorical columns from ONE
    joint-count fold (cells = |A|×|B|, bounded by category counts not
    rows). Natural-log MI = Σ p_ab · ln(p_ab / (p_a·p_b)); NMI divides
    by sqrt(H(A)·H(B)). Null categories participate as their own level
    (groupby dropna=False — matches SQL GROUP BY)."""
    from .groupagg import grouped_aggregate

    joint = grouped_aggregate(ds.select_columns([col_a, col_b]),
                              [col_a, col_b], {"n": ("", "count")})
    n = joint["n"].sum()
    pa_ = joint.groupby(col_a, dropna=False)["n"].transform("sum") / n
    pb_ = joint.groupby(col_b, dropna=False)["n"].transform("sum") / n
    pab = joint["n"] / n
    mi = float((pab * np.log(pab / (pa_ * pb_))).sum())
    ha = -float((joint.groupby(col_a, dropna=False)["n"].sum() / n)
                .pipe(lambda p: (p * np.log(p)).sum()))
    hb = -float((joint.groupby(col_b, dropna=False)["n"].sum() / n)
                .pipe(lambda p: (p * np.log(p)).sum()))
    nmi = mi / np.sqrt(ha * hb) if ha > 0 and hb > 0 else 0.0
    return {"n": int(n), "mi": mi, "nmi": float(nmi),
            "h_a": ha, "h_b": hb}


# ------------------------------------------------- Spearman correlation

def spearman(ds, x_col: str, y_col: str) -> dict:
    """Spearman rank correlation = Pearson r over AVERAGE ranks (SQL
    tie semantics), in two streaming passes and zero sort exchanges:

    1. one tagged value-count fold over null-free (x, y) pairs — ONE
       exchange whose state is the two distinct-value tables (the
       documented small-side exact contract, like range_split_points
       ``mode="exact"``; for distinct spaces beyond the driver, rank via
       functions/partitioning.global_row_number + a per-value (min,max)
       grouped fold instead);
    2. driver prefix-sums counts into value→avg-rank arrays (avg rank of
       a value = rows_before + (count+1)/2), broadcasts them once, and a
       stateless searchsorted fill feeds the mergeable ``comoments``
       Pearson fold.
    """
    import ray

    from ..functions.broadcast import cached_get
    from .groupagg import grouped_aggregate

    def pairs(b: pd.DataFrame) -> pd.DataFrame:
        x = pd.to_numeric(b[x_col], errors="coerce")
        y = pd.to_numeric(b[y_col], errors="coerce")
        ok = x.notna() & y.notna()
        return pd.DataFrame({"x": x[ok].astype(np.float64),
                             "y": y[ok].astype(np.float64)})

    pair = ds.map_batches(pairs, batch_format="pandas")

    def tag_counts(b: pd.DataFrame) -> pd.DataFrame:
        cx = b["x"].value_counts()
        cy = b["y"].value_counts()
        return pd.DataFrame({
            "tag": np.repeat(["x", "y"], [len(cx), len(cy)]),
            "value": np.concatenate([cx.index.to_numpy(np.float64),
                                     cy.index.to_numpy(np.float64)]),
            "n": np.concatenate([cx.to_numpy(np.int64),
                                 cy.to_numpy(np.int64)]),
        })

    counts = grouped_aggregate(pair.map_batches(tag_counts,
                                                batch_format="pandas"),
                               ["tag", "value"], {"n": ("n", "sum")})

    def avg_ranks(sub: pd.DataFrame):
        sub = sub.sort_values("value")
        c = sub["n"].to_numpy(np.float64)
        cum = np.concatenate([[0.0], np.cumsum(c)[:-1]])
        return sub["value"].to_numpy(np.float64), cum + (c + 1.0) / 2.0

    ref_x = ray.put(avg_ranks(counts[counts["tag"] == "x"]))
    ref_y = ray.put(avg_ranks(counts[counts["tag"] == "y"]))

    def fill(b: pd.DataFrame) -> pd.DataFrame:
        vx, rx = cached_get(ref_x)
        vy, ry = cached_get(ref_y)
        return pd.DataFrame({
            "rx": rx[np.searchsorted(vx, b["x"].to_numpy(np.float64))],
            "ry": ry[np.searchsorted(vy, b["y"].to_numpy(np.float64))],
        })

    c = correlation(pair.map_batches(fill, batch_format="pandas"),
                    "rx", "ry")
    return {"n": c["n"], "spearman": c["corr"]}


# ---------------------------------------------- chi-square independence

def chi_square(ds, col_a: str, col_b: str) -> dict:
    """Pearson chi-square independence test + Cramér's V between two
    categorical columns from the SAME single joint-count fold as
    ``mutual_information``. Unobserved cells need no enumeration:
    chi2 = Σ_observed o²·n/(n_a·n_b) − n (the (0−e)²/e mass of empty
    cells telescopes into the −n term). dof = (|A|−1)(|B|−1);
    V = sqrt(chi2 / (n · (min(|A|,|B|)−1)))."""
    from .groupagg import grouped_aggregate

    joint = grouped_aggregate(ds.select_columns([col_a, col_b]),
                              [col_a, col_b], {"n": ("", "count")})
    n = float(joint["n"].sum())
    na = joint.groupby(col_a, dropna=False)["n"].transform("sum").astype(float)
    nb = joint.groupby(col_b, dropna=False)["n"].transform("sum").astype(float)
    chi2 = float((joint["n"].astype(float) ** 2 * n / (na * nb)).sum()) - n
    ka = joint[col_a].nunique(dropna=False)
    kb = joint[col_b].nunique(dropna=False)
    dof = (ka - 1) * (kb - 1)
    v = float(np.sqrt(chi2 / (n * (min(ka, kb) - 1)))) if min(ka, kb) > 1 else 0.0
    return {"n": int(n), "chi2": chi2, "dof": int(dof), "cramers_v": v}


# ------------------------------------------- EWMA control-chart anomaly

def ewma_anomalies(ds, ts_col: str, type_col: str, alpha: float = 0.3,
                   sigma: float = 3.0, top: int = 10) -> pd.DataFrame:
    """Drift-adaptive burst detection: per (type, hour) counts fold to
    the driver (state ∝ buckets, never rows), then an EWMA control
    chart per type over the OBSERVED hour sequence — threshold_i =
    ewma_{i−1} + sigma·sqrt(ewma_{i−1}), ewma_i = alpha·n_i +
    (1−alpha)·ewma_{i−1}, both 6-dp-quantized per step so a recursive
    SQL CTE replays the float iteration bit-for-bit (the kmeans/pagerank
    quantized-state trick). Returns the ``top`` buckets by exceedance
    score (n − threshold), flagged column marks true breaches —
    non-empty output even on a calm stream."""
    from ..rules.heuristics import round_half_away
    from .groupagg import grouped_aggregate

    r6 = lambda v: float(round_half_away(np.float64(v)))
    hours = ds.map_batches(
        lambda b: pd.DataFrame({
            "event_type": b[type_col],
            "hour": b[ts_col].dt.floor("h"),
        }), batch_format="pandas")
    c = grouped_aggregate(hours, ["event_type", "hour"],
                          {"n": ("", "count")})
    c = c.sort_values(["event_type", "hour"], kind="mergesort")
    rows = []
    for et, g in c.groupby("event_type", sort=False):
        ns = g["n"].to_numpy(dtype=np.float64)
        ewma = ns[0]
        for i in range(1, len(ns)):
            thr = r6(ewma + sigma * np.sqrt(ewma))
            rows.append((et, g["hour"].iloc[i], int(ns[i]), ewma, thr,
                         r6(ns[i] - thr), bool(ns[i] > thr)))
            ewma = r6(alpha * ns[i] + (1.0 - alpha) * ewma)
    out = pd.DataFrame(rows, columns=["event_type", "hour", "n",
                                      "ewma_prev", "threshold", "score",
                                      "flagged"])
    out = out.sort_values(["score", "event_type", "hour"],
                          ascending=[False, True, True], kind="mergesort")
    return out.head(top).reset_index(drop=True)


# -------------------------------------------- grouped robust outliers

def grouped_mad_outliers(ds, group_col: str, val_col: str,
                         z: float = 3.0) -> pd.DataFrame:
    """Per-group robust outlier rule (median/MAD, the modified z-score):
    med_g and MAD_g = median(|x − med_g|) both via the exact grouped
    ``quantile_disc`` (two (group, value)→count exchanges; values
    quantized ⇒ bounded state, t-digest per group is the unbounded
    path), fences med ± z·1.4826·MAD rounded 6-dp half-away BEFORE the
    counting pass (the fence contract). → (group, med, mad, fence_lo,
    fence_hi, n_outliers, n)."""
    import ray

    from ..functions.broadcast import cached_get
    from .quantile_exact import grouped_disc_quantile

    med = grouped_disc_quantile(ds, group_col, val_col, 0.5)
    med = med.sort_values(group_col).reset_index(drop=True)
    mref = ray.put((med[group_col].to_numpy(object),
                    med["q_val"].to_numpy(np.float64)))

    def absdev(b: pd.DataFrame) -> pd.DataFrame:
        gs, ms = cached_get(mref)
        pos = np.searchsorted(gs, b[group_col].to_numpy(object))
        v = b[val_col].to_numpy(np.float64)
        return pd.DataFrame({group_col: b[group_col],
                             "d": np.abs(v - ms[pos])})

    dev = ds.map_batches(absdev, batch_format="pandas")
    mad = grouped_disc_quantile(dev, group_col, "d", 0.5)
    mad = mad.sort_values(group_col).reset_index(drop=True)
    half = z * 1.4826 * mad["q_val"].to_numpy(np.float64)
    lo = med["q_val"].to_numpy(np.float64) - half
    hi = med["q_val"].to_numpy(np.float64) + half
    lo, hi = round_half_away(lo), round_half_away(hi)
    fref = ray.put((med[group_col].to_numpy(object), lo, hi))

    def count_out(b: pd.DataFrame) -> pd.DataFrame:
        gs, flo, fhi = cached_get(fref)
        pos = np.searchsorted(gs, b[group_col].to_numpy(object))
        v = b[val_col].to_numpy(np.float64)
        out = (v < flo[pos]) | (v > fhi[pos])
        f = pd.DataFrame({group_col: b[group_col],
                          "o": out.astype(np.int64)})
        return (f.groupby(group_col, sort=False)
                .agg(n_outliers=("o", "sum"), n=("o", "size"))
                .reset_index())

    from .groupagg import grouped_aggregate

    tallies = grouped_aggregate(
        ds.map_batches(count_out, batch_format="pandas"),
        [group_col], {"n_outliers": ("n_outliers", "sum"),
                      "n": ("n", "sum")})
    tallies = tallies.sort_values(group_col).reset_index(drop=True)
    return pd.DataFrame({
        group_col: med[group_col],
        "med": med["q_val"].astype(np.float64),
        "mad": mad["q_val"].astype(np.float64),
        "fence_lo": lo, "fence_hi": hi,
        "n_outliers": tallies["n_outliers"].astype("int64"),
        "n": tallies["n"].astype("int64"),
    })


# ------------------------------------------------- per-user peak rates

def peak_rate_users(ds, ts_col: str, user_col: str, freq: str = "min",
                    threshold: int = 5) -> pd.DataFrame:
    """Bot / abuse screen over an event stream: per-user PEAK events per
    time bucket. Per-batch (user, bucket) counts pre-aggregate before
    ONE hash-bucketed exchange (state ∝ distinct (user, bucket) pairs,
    never rows), then a per-user (max, sum) fold. → flagged users only
    (peak > threshold): (user_id, peak, n_events, n_buckets)."""
    from .groupagg import grouped_aggregate

    buckets = ds.map_batches(
        lambda b: pd.DataFrame({"user_id": b[user_col],
                                "bucket": b[ts_col].dt.floor(freq)}),
        batch_format="pandas")
    c = grouped_aggregate(buckets, ["user_id", "bucket"],
                          {"n": ("", "count")}, final="shuffle")
    per_user = grouped_aggregate(
        c.map_batches(lambda b: b[["user_id", "n"]], batch_format="pandas"),
        ["user_id"], {"peak": ("n", "max"), "n_events": ("n", "sum"),
                      "n_buckets": ("n", "count")})
    out = per_user[per_user["peak"] > threshold].copy()
    for col in ("user_id", "peak", "n_events", "n_buckets"):
        out[col] = out[col].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


# ------------------------------------------------------------- Zipf fit

def zipf_fit(token_ds, token_col: str = "token", top: int = 500) -> dict:
    """Zipf's-law fit over a token Dataset: distributed token counts
    (hash-bucketed shuffle final — vocab never lands on the driver),
    top-``top`` by (count desc, token) via one Ray sort + limit, then a
    driver OLS of ln(freq) on ln(rank) over those ``top`` rows — the
    corpus-health check (natural text ≈ −1 slope; boilerplate/spam
    corpora flatten or steepen). → {n_tokens, slope, intercept, r}."""
    from .groupagg import grouped_aggregate

    counts = grouped_aggregate(token_ds, [token_col],
                               {"n": ("", "count")}, final="shuffle")
    head = (counts.sort(["n", token_col], descending=[True, False])
            .limit(top).to_pandas())
    head = head.sort_values(["n", token_col],
                            ascending=[False, True]).reset_index(drop=True)
    x = np.log(np.arange(1, len(head) + 1, dtype=np.float64))
    y = np.log(head["n"].to_numpy(np.float64))
    xm, ym = x.mean(), y.mean()
    sxx = ((x - xm) ** 2).sum()
    sxy = ((x - xm) * (y - ym)).sum()
    syy = ((y - ym) ** 2).sum()
    slope = sxy / sxx
    return {"n_tokens": int(len(head)), "slope": float(slope),
            "intercept": float(ym - slope * xm),
            "r": float(sxy / np.sqrt(sxx * syy))}


# ------------------------------------------------ DP noisy count release

def dp_noisy_counts(ds, group_col: str, eps: float = 1.0,
                    seed: int = 42) -> pd.DataFrame:
    """ε-differentially-private count release (Laplace mechanism,
    sensitivity 1) with DETERMINISTIC seeded noise so the release is
    reproducible and SQL-replayable: u = (md5-low-64 of
    '{seed}-{group}' + 0.5) / 2^64 ∈ (0,1), noise = −(1/ε)·sgn(u−½)·
    ln(1−2|u−½|) (inverse Laplace CDF). One counting fold; noise is
    derived per GROUP key, not per row. Negative releases are kept
    (standard post-processing decides clamping). → (group, n, noisy_n),
    noisy_n rounded half-away at 6 dp (DuckDB's mode, signed)."""
    from .groupagg import grouped_aggregate
    from .sketches import md5_hash64

    counts = grouped_aggregate(ds.select_columns([group_col]),
                               [group_col], {"n": ("", "count")})
    counts = counts.sort_values(group_col, kind="mergesort").reset_index(drop=True)
    u = (md5_hash64((f"{seed}-" + counts[group_col].astype(str))
                    .to_numpy()).astype(np.float64) + 0.5) / 2.0 ** 64
    noise = -(1.0 / eps) * np.sign(u - 0.5) * np.log(1.0 - 2.0 * np.abs(u - 0.5))
    x = counts["n"].to_numpy(np.float64) + noise
    counts["noisy_n"] = round_half_away(x)
    counts["n"] = counts["n"].astype("int64")
    return counts


# ----------------------------------------------------- k-anonymity scan

def k_anonymity(ds, quasi_cols: list[str], sensitive_col: str,
                k: int = 5, l: int = 2) -> dict:
    """Privacy profiling over quasi-identifier groups: k-anonymity
    (every group >= k rows) and distinct-l-diversity (every group >= l
    distinct sensitive values). ONE fold to per-group (rows, distinct
    sensitive) — pre-aggregated inside batches over (quasi, sensitive),
    so the exchange carries distinct combinations, not rows."""
    from .groupagg import grouped_aggregate

    combo = grouped_aggregate(
        ds.select_columns(quasi_cols + [sensitive_col]),
        quasi_cols + [sensitive_col], {"n": ("", "count")})
    g = combo.groupby(quasi_cols, dropna=False).agg(
        rows=("n", "sum"), l_div=("n", "size")).reset_index()
    return {
        "n_groups": int(len(g)),
        "min_group_size": int(g["rows"].min()),
        "n_groups_lt_k": int((g["rows"] < k).sum()),
        "rows_at_risk": int(g.loc[g["rows"] < k, "rows"].sum()),
        "min_l_diversity": int(g["l_div"].min()),
        "n_groups_lt_l": int((g["l_div"] < l).sum()),
    }


# ----------------------------------------------------------- uniqueness

def distinct_count(ds, col: str) -> int:
    """Exact distinct (nulls excluded) that never builds a driver-side
    set: per-batch unique partial → hash-bucketed shuffle merge → block
    row-count sum. Scale cost = one shuffle of the partial-unique rows."""
    merged = grouped_aggregate(ds, [col], {"n": ("", "count")}, final="shuffle")
    return merged.count()


def distinct_counts_combined(ds, cols: list[str]) -> dict[str, int]:
    """Exact distinct for MANY columns in ONE bucketed shuffle: each
    batch emits its per-column unique values tagged (col, str(val)) —
    str() of int/float/str is injective (shortest-round-trip repr), so
    string-space distinct == typed distinct — then one shuffle merge and
    a streaming per-col row count. N columns cost one exchange instead
    of N (measured 6.3 s → 3.7 s warm for 4 customer columns at sf0.1)."""

    if not cols:
        return {}

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for c in cols:
            u = b[c].dropna().unique()
            if len(u) and isinstance(u, np.ndarray) \
                    and np.issubdtype(u.dtype, np.floating):
                u = u + 0.0  # normalize -0.0 → 0.0 (SQL equality: one value)
            frames.append(pd.DataFrame(
                {"col": c, "val": pd.Series(u).astype(str)}))
        return pd.concat(frames, ignore_index=True)

    merged = grouped_aggregate(ds.map_batches(partial, batch_format="pandas"),
                               ["col", "val"], {"n": ("", "count")},
                               final="shuffle")
    out = {c: 0 for c in cols}
    for b in merged.iter_batches(batch_size=65536, batch_format="pandas"):
        for c, k in b.groupby("col").size().items():
            out[c] += int(k)
    return out


def uniqueness_profile(ds, cols: list[str]) -> pd.DataFrame:
    """Per-column n / n_null / exact n_distinct / uniqueness ratio /
    candidate-key flag. One counting pass for n+nulls (all columns at
    once) + ONE combined distinct shuffle for all columns."""
    if not cols:
        return pd.DataFrame(columns=["column", "n", "n_null", "n_distinct",
                                     "uniqueness", "is_key"])

    def null_partial(b: pd.DataFrame) -> pd.DataFrame:
        row = {"n": [len(b)]}
        for c in cols:
            row[f"null_{c}"] = [int(b[c].isna().sum())]
        return pd.DataFrame(row)

    totals: dict[str, int] = {}
    for b in ds.map_batches(null_partial, batch_format="pandas").iter_batches(
            batch_size=4096, batch_format="pandas"):
        for c in b.columns:
            totals[c] = totals.get(c, 0) + int(b[c].sum())

    n = totals["n"]
    # one combined exchange for all columns; NOT one distinct_count per
    # column (N shuffle rounds), and NOT concurrent driver threads either
    # (measured 2-3× slower — the streaming executors contend for the
    # same task slots and thrash)
    nds = distinct_counts_combined(ds, cols)
    rows = []
    for c in cols:
        nd = nds[c]
        n_null = totals[f"null_{c}"]
        rows.append({
            "column": c, "n": n, "n_null": n_null, "n_distinct": nd,
            "uniqueness": round(nd / n, 6) if n else 0.0,
            "is_key": bool(n_null == 0 and nd == n),
        })
    return pd.DataFrame(rows)


# -------------------------------------------------- functional dependency

def fd_violations(ds, lhs: str, rhs: str) -> dict:
    """Does lhs → rhs hold? Stage 1: distinct (lhs, rhs) pair counts via
    the hash-bucketed shuffle (pair cardinality can exceed one node).
    Stage 2: per-lhs rollup (#rhs values, max pair count, rows) — ALSO
    through the shuffle (lhs cardinality can approach pair cardinality,
    e.g. a near-key lhs), then only scalar tallies stream to the driver.
    g3 = minimum rows to delete so the FD holds = Σ over violating lhs
    of (rows − max count)."""
    pairs = grouped_aggregate(ds, [lhs, rhs], {"n": ("", "count")},
                              final="shuffle")
    per_lhs = grouped_aggregate(
        pairs, [lhs],
        {"n_rhs": ("", "count"), "max_n": ("n", "max"),
         "n_rows": ("n", "sum")},
        final="shuffle",
    )
    n_groups = n_viol = g3 = 0
    for b in per_lhs.iter_batches(batch_size=65536, batch_format="pandas"):
        n_groups += len(b)
        v = b[b["n_rhs"] > 1]
        n_viol += len(v)
        g3 += int((v["n_rows"] - v["max_n"]).sum())
    return {
        "fd": f"{lhs}->{rhs}",
        "n_groups": int(n_groups),
        "n_violating_groups": int(n_viol),
        "g3_rows": int(g3),
    }


# ------------------------------------------------- referential integrity

def orphan_stats(child_ds, child_key: str, parent_ds, parent_key: str) -> dict:
    """Referential-integrity check: count child rows whose key has no
    parent. Parent keys are distinct-reduced through the bucketed
    shuffle, collected as ONE sorted numpy array (key-column-only —
    the documented ≤1e9-key broadcast bound from dedup/exact.py), put
    in the object store once, and each child batch membership-tests via
    searchsorted. Zero child-side shuffle."""
    import ray

    from ..functions.broadcast import cached_get

    parents = grouped_aggregate(parent_ds, [parent_key], {"n": ("", "count")},
                                final="shuffle")
    key_blocks = [b[parent_key].to_numpy() for b in parents.iter_batches(
        batch_size=65536, batch_format="pandas")]
    keys = np.sort(np.concatenate(key_blocks)) if key_blocks else np.array([])
    ref = ray.put(keys)

    def count_orphans(b: pd.DataFrame) -> pd.DataFrame:
        k = cached_get(ref)
        v = b[child_key].to_numpy()
        nn = pd.notna(v)
        vv = v[nn]
        if k.size:
            idx = np.searchsorted(k, vv)
            idx[idx == k.size] = 0
            member = k[idx] == vv
        else:
            member = np.zeros(vv.size, dtype=bool)
        return pd.DataFrame({"n": [int(len(b))],
                             "n_null": [int((~nn).sum())],
                             "n_orphans": [int((~member).sum())]})

    sums = {"n": 0, "n_null": 0, "n_orphans": 0}
    for b in child_ds.map_batches(count_orphans, batch_format="pandas").iter_batches(
            batch_size=4096, batch_format="pandas"):
        for c in sums:
            sums[c] += int(b[c].sum())
    return sums


# ------------------------------------------------------- grouped regression

def grouped_regression(ds, group_cols: list[str], x_col: str,
                       y_col: str) -> pd.DataFrame:
    """Per-group simple linear regression (OLS y = a·x + b) + Pearson r
    from ALGEBRAIC partials only — per (group, batch): n, Σx, Σy, Σxy,
    Σx², Σy² — so the merge is a fixed-width sum per group, never a
    residual pass. Rows with a null in x/y are excluded (DuckDB
    regr_slope/regr_intercept/corr semantics).

    → (*group_cols, n, slope, intercept, corr) with 6-dp rounding on
    the floats (the oracle contract); degenerate groups (zero x
    variance) yield NULL slope/intercept/corr like SQL."""
    from ..rules.heuristics import round_half_away

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        x = b[x_col].to_numpy(dtype=np.float64)
        y = b[y_col].to_numpy(dtype=np.float64)
        ok = ~(np.isnan(x) | np.isnan(y))
        g = b.loc[ok, group_cols].copy()
        g["__x"] = x[ok]
        g["__y"] = y[ok]
        g["__xy"] = x[ok] * y[ok]
        g["__xx"] = x[ok] * x[ok]
        g["__yy"] = y[ok] * y[ok]
        gb = g.groupby(group_cols, sort=False)
        out = gb.agg(n=("__x", "size"), sx=("__x", "sum"), sy=("__y", "sum"),
                     sxy=("__xy", "sum"), sxx=("__xx", "sum"),
                     syy=("__yy", "sum")).reset_index()
        return out

    parts = ds.select_columns(group_cols + [x_col, y_col]).map_batches(
        partial, batch_format="pandas").to_pandas()
    agg = parts.groupby(group_cols, sort=True).sum().reset_index()
    n = agg["n"].to_numpy(dtype=np.float64)
    sx, sy = agg["sx"].to_numpy(), agg["sy"].to_numpy()
    sxy, sxx, syy = agg["sxy"].to_numpy(), agg["sxx"].to_numpy(), agg["syy"].to_numpy()
    with np.errstate(invalid="ignore", divide="ignore"):
        vx = sxx - sx * sx / n
        vy = syy - sy * sy / n
        cov = sxy - sx * sy / n
        slope = np.where(vx > 0, cov / np.where(vx > 0, vx, 1.0), np.nan)
        intercept = np.where(vx > 0, (sy - slope * sx) / n, np.nan)
        corr = np.where((vx > 0) & (vy > 0),
                        cov / np.sqrt(np.where((vx > 0) & (vy > 0),
                                               vx * vy, 1.0)), np.nan)
    out = agg[group_cols].copy()
    out["n"] = agg["n"].astype("int64")
    out["slope"] = round_half_away(slope)
    out["intercept"] = round_half_away(intercept)
    out["corr"] = round_half_away(corr)
    return out.reset_index(drop=True)


# ----------------------------------------- per-group distribution entropy

def entropy_by_group(ds, group_col: str, val_col: str) -> pd.DataFrame:
    """Shannon entropy (nats) of the ``val_col`` distribution WITHIN
    each group — behavioral diversity per user / per slice — from one
    (group, value) count exchange and the same H = ln(n) − (Σ c·ln c)/n
    algebra both engines share (``grouped_entropy`` is the one-group
    special case). → (group, n, n_distinct, entropy)."""
    from .groupagg import grouped_aggregate

    counts = grouped_aggregate(ds.select_columns([group_col, val_col]),
                               [group_col, val_col],
                               {"n": (val_col, "count")})
    g = counts.groupby(group_col, sort=False)
    nn = counts["n"].to_numpy(np.float64)
    counts = counts.assign(__nln=nn * np.log(nn))
    out = pd.DataFrame({
        "n": g["n"].sum().astype(np.int64),
        "n_distinct": g.size().astype(np.int64),
        "s": counts.groupby(group_col, sort=False)["__nln"].sum(),
    }).reset_index()
    out["entropy"] = np.log(out["n"].to_numpy(np.float64)) \
        - out["s"].to_numpy(np.float64) / out["n"].to_numpy(np.float64)
    return (out.drop(columns="s")
            .sort_values(group_col).reset_index(drop=True))


# ------------------------------------------- time-decayed grouped sums

def decayed_sum_by_group(ds, group_col: str, ts_col: str, val_col: str,
                         half_life_s: float | None = None,
                         tau_s: float = 86400.0) -> pd.DataFrame:
    """Exponentially time-decayed value sum per group at the stream's
    horizon (max timestamp): Σ v·exp(−Δ/τ) — the standard recency-
    weighted engagement feature, exact in two folds (horizon max, then
    the decayed partial sum; decay weights are computed from the SAME
    broadcast horizon on every worker, so partials merge exactly).
    ``half_life_s`` overrides τ with half-life semantics (τ = hl/ln 2).
    → (group, n, decayed_sum)."""
    import ray

    from ..functions.broadcast import cached_get
    from .groupagg import grouped_aggregate

    if half_life_s is not None:
        tau_s = half_life_s / np.log(2.0)

    def tmax(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"mx": [b[ts_col].max()]})

    mx = pd.concat(list(
        ds.select_columns([ts_col]).map_batches(
            tmax, batch_format="pandas").iter_batches(
                batch_size=4096, batch_format="pandas")))["mx"].max()
    ref = ray.put(mx)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        horizon = cached_get(ref)
        ok = b[ts_col].notna() & b[val_col].notna()
        dt = (horizon - b.loc[ok, ts_col]).dt.total_seconds() \
            .to_numpy(np.float64)
        v = b.loc[ok, val_col].to_numpy(np.float64)
        f = pd.DataFrame({"g": b.loc[ok, group_col],
                          "w": v * np.exp(-dt / tau_s)})
        gg = f.groupby("g", sort=False)["w"]
        return pd.DataFrame({"g": gg.sum().index, "s": gg.sum().to_numpy(),
                             "n": gg.size().to_numpy(np.int64)})

    out = grouped_aggregate(
        ds.select_columns([group_col, ts_col, val_col]).map_batches(
            partial, batch_format="pandas"),
        ["g"], {"s": ("s", "sum"), "n": ("n", "sum")})
    out = out.rename(columns={"g": group_col, "s": "decayed_sum"})
    out["n"] = out["n"].astype("int64")
    return (out[[group_col, "n", "decayed_sum"]]
            .sort_values(group_col).reset_index(drop=True))


# ------------------------------------------ seasonal-baseline anomalies

def seasonal_anomalies(ds, ts_col: str, sigma: float = 1.5) -> pd.DataFrame:
    """Seasonal traffic anomalies: hourly event counts judged against
    their OWN (day-of-week, hour-of-day) slot's mean ± sigma·sd — a
    Monday-9am spike is compared to other Monday-9ams, not to the
    global rate (``rate_anomalies``' Poisson baseline flags rush hours
    as bursts; this doesn't). ONE counting fold (key space = wall-clock
    hours, bounded by time not rows); slot stats from the shared
    Σ/Σ² algebra; fences rounded to 6 dp BEFORE comparing (the fence
    contract), so integer counts compare identically in both engines.
    Note: with few observations per slot the SAMPLE sd fence is
    conservative — each point inflates its own fence — hence the low
    default sigma. → flagged (hour, n, slot_mean, slot_std)."""
    from .groupagg import grouped_aggregate

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"hour": b[ts_col].dt.floor("h")})

    counts = grouped_aggregate(
        ds.select_columns([ts_col]).map_batches(partial,
                                                batch_format="pandas"),
        ["hour"], {"n": ("hour", "count")}).sort_values("hour")
    h = pd.to_datetime(counts["hour"])
    n = counts["n"].to_numpy(np.float64)
    slot = pd.DataFrame({"dow": h.dt.dayofweek, "hod": h.dt.hour, "n": n})
    g = slot.groupby(["dow", "hod"])
    cnt = g["n"].transform("size").to_numpy(np.float64)
    s1 = g["n"].transform("sum").to_numpy(np.float64)
    s2 = g["n"].transform(lambda s: float((s * s).sum())).to_numpy()
    mu = s1 / cnt
    sd = np.where(cnt > 1,
                  np.sqrt(np.maximum(s2 - s1 * s1 / cnt, 0.0)
                          / np.maximum(cnt - 1, 1)), 0.0)

    hi, lo = round_half_away(mu + sigma * sd), round_half_away(mu - sigma * sd)
    flag = (sd > 0) & ((n > hi) | (n < lo))
    return pd.DataFrame({
        "hour": h[flag].to_numpy(),
        "n": counts["n"].to_numpy(np.int64)[flag],
        "slot_mean": round_half_away(mu[flag]),
        "slot_std": round_half_away(sd[flag]),
    }).reset_index(drop=True)


# ------------------------------------------- inclusion-dependency discovery

def inclusion_matrix(tagged: list[tuple]) -> pd.DataFrame:
    """Inclusion-dependency (IND) discovery across key columns — the
    SPIDER/Bellman profiling primitive (Bauckmann et al. 2006): for
    every ORDERED pair of candidate columns report distinct sizes,
    distinct overlap, the containment fraction |A∩B|/|A| and whether
    A ⊆ B holds exactly (a unary IND — FK-candidate discovery).

    ``tagged``: list of (label, Dataset, column) — int-valued key
    columns sharing one comparable domain.

    Scale shape (the source_overlap bitmask trick over VALUES instead
    of grams): each source streams (value, source-bit) rows; ONE
    hash-bucketed distinct fold + a per-value OR fold + a driver-small
    mask histogram give ALL pairwise intersections — N columns cost one
    exchange, never N² anti-joins. ≤ 64 columns per call (one mask
    word). → (col_a, col_b, n_a, n_b, n_common, containment, is_ind)
    for a ≠ b, sorted (col_a, col_b); containment half-away 6 dp."""
    import itertools

    from .groupagg import grouped_aggregate

    if len(tagged) > 64:
        raise ValueError(f"{len(tagged)} columns exceed one mask word")
    labels = [t[0] for t in tagged]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate column labels")
    bit = {lab: np.int64(1) << i for i, lab in enumerate(labels)}

    def tag(col: str, b_val: np.int64):
        def inner(b: pd.DataFrame) -> pd.DataFrame:
            v = b[col].dropna().unique()  # batch-local pre-dedup
            return pd.DataFrame({"val": v.astype(np.int64),
                                 "b": np.full(len(v), b_val, np.int64)})
        return inner

    parts = [ds.select_columns([col]).map_batches(tag(col, bit[lab]),
                                                  batch_format="pandas")
             for lab, ds, col in tagged]
    u = parts[0]
    for p in parts[1:]:
        u = u.union(p)
    # fold 1: distinct (val, bit); fold 2: per-val OR of bits (sum is
    # exact post-dedup); fold 3: mask histogram (≤ observed column
    # combos — driver-small)
    pairs = grouped_aggregate(u, ["val", "b"], {"nn": ("b", "count")},
                              final="auto")
    if isinstance(pairs, pd.DataFrame):
        masks = (pairs.groupby("val", sort=False)["b"].sum()
                 .value_counts().rename_axis("mask").rename("cnt")
                 .reset_index())
    else:
        or_ds = grouped_aggregate(pairs, ["val"], {"mask": ("b", "sum")},
                                  final="shuffle")
        masks = grouped_aggregate(or_ds, ["mask"],
                                  {"cnt": ("mask", "count")}, final="driver")
    m = masks["mask"].to_numpy(np.int64)
    c = masks["cnt"].to_numpy(np.int64)
    size = {lab: int(c[(m & bit[lab]) != 0].sum()) for lab in labels}

    rows = []
    for a, b in itertools.permutations(labels, 2):
        common = int(c[((m & bit[a]) != 0) & ((m & bit[b]) != 0)].sum())
        na = size[a]
        cont = common / na if na else 0.0
        rows.append({"col_a": a, "col_b": b, "n_a": na, "n_b": size[b],
                     "n_common": common,
                     "containment": float(round_half_away(cont)),
                     "is_ind": bool(na > 0 and common == na)})
    out = pd.DataFrame(rows).sort_values(["col_a", "col_b"]) \
        .reset_index(drop=True)
    for col in ("n_a", "n_b", "n_common"):
        out[col] = out[col].astype("int64")
    return out


# --------------------------------- conditional functional dependencies

def cfd_violations(ds, cond_col: str, lhs: str, rhs: str,
                   patterns: list | None = None) -> pd.DataFrame:
    """Conditional-functional-dependency check (Bohannon, Fan et al.,
    ICDE 2007): a pattern tableau over ``cond_col`` — for each pattern
    value p, the embedded FD lhs→rhs must hold on exactly the rows
    WHERE cond_col = p. Reports, per pattern: matched rows, lhs groups,
    violating groups (>1 distinct rhs), and the g3 error (min row
    deletions to satisfy that tableau row).

    Scale shape: every tableau row sharing the (cond, lhs, rhs) column
    triple is served by ONE (cond, lhs, rhs) combination-count fold
    (hash-bucketed — pair cardinality can exceed a node) + one per-
    (cond, lhs) rollup; only per-pattern scalars reach the driver.
    ``patterns=None`` audits every observed cond value (FD discovery
    per partition of the table).
    → (pattern, n_rows, n_groups, n_violating_groups, g3_rows)."""
    from .groupagg import grouped_aggregate

    combos = grouped_aggregate(
        ds.select_columns([cond_col, lhs, rhs]),
        [cond_col, lhs, rhs], {"n": ("", "count")}, final="shuffle")
    per_lhs = grouped_aggregate(
        combos, [cond_col, lhs],
        {"rows": ("n", "sum"), "n_rhs": ("n", "count"),
         "max_n": ("n", "max")}, final="shuffle")

    def stats(b: pd.DataFrame) -> pd.DataFrame:
        viol = b["n_rhs"].to_numpy() > 1
        g3 = b["rows"].to_numpy() - b["max_n"].to_numpy()
        return pd.DataFrame({
            "pattern": b[cond_col].astype(str),
            "n_rows": b["rows"].to_numpy(np.int64),
            "n_groups": np.ones(len(b), np.int64),
            "n_violating_groups": viol.astype(np.int64),
            "g3_rows": np.where(viol, g3, 0).astype(np.int64)})

    agg = grouped_aggregate(
        per_lhs.map_batches(stats, batch_format="pandas"),
        ["pattern"],
        {"n_rows": ("n_rows", "sum"), "n_groups": ("n_groups", "sum"),
         "n_violating_groups": ("n_violating_groups", "sum"),
         "g3_rows": ("g3_rows", "sum")}, final="driver")
    if patterns is not None:
        want = [str(p) for p in patterns]
        agg = agg[agg["pattern"].isin(want)]
    for col in ("n_rows", "n_groups", "n_violating_groups", "g3_rows"):
        agg[col] = agg[col].astype("int64")
    return agg.sort_values("pattern").reset_index(drop=True)
