"""Stratified deterministic sampling: per-group keep fractions.

The training-mix resampling primitive: given a corpus with a domain /
source column and a target fraction per group ("keep 60% of web, 100%
of books, 5% of logs"), keep each row iff
``hash(salt + str(key)) % 10000 < fraction[group] * 10000``.

Pure function of (key, group, fractions, salt) — reproducible across
runs, partitionings and cluster sizes; stable under incremental
ingestion; composes with [[splits]] (same bucket discipline, different
salt ⇒ independent decisions); and needs NO shuffle at any scale — one
stateless ``map_batches`` with the (tiny) fraction table broadcast once.

Reference precedent: the digest-keyed deterministic sampling trick of
sampling/parallel/ReservoirSamplerWithBinaryHeap.java:27-69; per-stratum
fractions themselves are a beyond-reference training-pipeline operator.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..profiling.sketches import HASH64
from .splits import N_BUCKETS


def _thresholds(groups: np.ndarray, fractions, default: float | None) -> np.ndarray:
    """Integer bucket thresholds per row (exact to 1/N_BUCKETS)."""
    out = np.empty(len(groups), dtype=np.int64)
    cache: dict = {}
    for i, g in enumerate(groups):
        t = cache.get(g)
        if t is None:
            f = fractions(g) if callable(fractions) else fractions.get(g, default)
            if f is None:
                raise KeyError(f"no fraction for group {g!r} and no default")
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"fraction for {g!r} out of [0,1]: {f}")
            t = cache[g] = int(round(f * N_BUCKETS))
        out[i] = t
    return out


def sample_mask(keys, groups, fractions, salt: str = "",
                hash_fn: str = "md5", default: float | None = None) -> np.ndarray:
    """Boolean keep-mask. ``hash_fn="md5"`` is bit-identical to DuckDB's
    ``md5_number_lower(salt || CAST(key AS VARCHAR)) % 10000 < thresh``
    (the driver-oracle path); ``"stable"`` is the faster SipHash path."""
    kvals = np.asarray(keys, dtype=object)
    svals = np.array([salt + str(k) for k in kvals], dtype=object)
    buckets = (HASH64[hash_fn](svals) % np.uint64(N_BUCKETS)).astype(np.int64)
    return buckets < _thresholds(np.asarray(groups, dtype=object), fractions, default)


def stratified_sample(ds, key_col: str, group_col: str, fractions,
                      salt: str = "", hash_fn: str = "md5",
                      default: float | None = None):
    """Dataset filtered to the per-group sample — stateless, shuffle-free.

    ``fractions`` is a dict group→fraction or a callable; ``default``
    covers unseen groups (None ⇒ raise on an unknown group, the safe
    default for a pinned training mix)."""

    def f(b: pd.DataFrame) -> pd.DataFrame:
        m = sample_mask(b[key_col].to_numpy(), b[group_col].to_numpy(),
                        fractions, salt, hash_fn, default)
        return b[m]

    return ds.map_batches(f, batch_format="pandas")


def group_counts(ds, group_col: str) -> dict:
    """Per-group row counts via one partial-agg fold (low-cardinality
    groups: sources / domains / languages — driver merge is kilobytes)."""
    from ..profiling.groupagg import grouped_aggregate

    out = grouped_aggregate(ds, [group_col], {"n": ("", "count")})
    return dict(zip(out[group_col], out["n"].astype(int)))


def temperature_fractions(counts: dict, temperature: float,
                          target_total: float) -> dict:
    """Per-group keep fractions for temperature-based mixture resampling
    (mT5/XLM-R style): sampling mass p_g ∝ n_g^(1/T) — T>1 flattens the
    source distribution toward uniform, T=1 keeps natural proportions —
    then keep-rate r_g = min(1, target_total·p_g/n_g). Single-pass (no
    water-filling): when a small source caps at 1.0 the realized total
    lands under ``target_total`` — deterministic and SQL-replayable,
    which an iterative redistribution would not cheaply be. Fractions are
    rounded to 4 dp so the integer bucket threshold is engine-stable."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    keys = sorted(counts)
    w = {g: counts[g] ** (1.0 / temperature) for g in keys}
    tw = sum(w[g] for g in keys)
    return {g: round(min(1.0, target_total * (w[g] / tw) / counts[g]), 4)
            for g in keys}


def temperature_mix(ds, key_col: str, group_col: str, temperature: float,
                    target_fraction: float, salt: str = "mix:",
                    hash_fn: str = "md5"):
    """Temperature mixture resample → filtered Dataset. One counting fold
    + one stateless hash-filter pass; ``target_fraction`` is of the total
    corpus (target_total = target_fraction·Σn_g)."""
    counts = group_counts(ds, group_col)
    fr = temperature_fractions(counts, temperature,
                               target_fraction * sum(counts.values()))
    return stratified_sample(ds, key_col=key_col, group_col=group_col,
                             fractions=fr, salt=salt, hash_fn=hash_fn)


def unimax_allocation(token_counts: dict, budget_fraction: float,
                      epoch_cap: float) -> pd.DataFrame:
    """UniMax token-budget allocation (Chung et al. 2023, "UniMax:
    Fairer and More Effective Language Sampling for Large-Scale
    Multilingual Pretraining"): give every group as close to an equal
    share of the budget as its capacity (n_g × epoch_cap repeats)
    allows — groups too small to absorb the equal share are capped at
    their capacity and the freed budget re-levels among the rest.

    Closed-form ascending waterfill over the per-group count dict (the
    distributed part is the single grouped token-count fold upstream —
    state here is #groups-sized, never row-sized): sort ascending by
    (capacity, group); for 1-based rank i the candidate level is
    ``(B − Σ smaller capacities) / (K − i + 1)``; the first group whose
    capacity exceeds its level is the pivot — every group before it is
    capped, every group from it on gets the pivot level (the sequential
    rule a_i = min(c_i, remaining/(K−i+1)) telescopes to exactly this).
    Budget beyond the total capacity is left unallocated — the epoch
    cap binds (the paper's anti-overfitting contract).

    → (group, n_tokens, capacity, alloc_tokens, epochs) ascending by
    group; values are raw floats — the query-level rounding contract
    (``heuristics.round_half_away``) lives at the caller.
    """
    if budget_fraction < 0 or epoch_cap <= 0:
        raise ValueError("budget_fraction must be >= 0, epoch_cap > 0")
    if not token_counts:
        return pd.DataFrame({"group": [], "n_tokens": [], "capacity": [],
                             "alloc_tokens": [], "epochs": []})
    items = sorted(token_counts.items(),
                   key=lambda kv: (kv[1] * epoch_cap, kv[0]))
    grp = np.array([k for k, _ in items], dtype=object)
    n = np.array([v for _, v in items], dtype=np.float64)
    if (n < 0).any() or np.isnan(n).any():
        raise ValueError("token counts must be non-negative numbers")
    cap = n * epoch_cap
    k = len(n)
    budget = budget_fraction * n.sum()
    pre = np.concatenate([[0.0], np.cumsum(cap)[:-1]])
    lvl = (budget - pre) / (k - np.arange(k))
    below = lvl < cap
    alloc = cap.copy()
    if below.any():
        piv = int(np.argmax(below))
        alloc[piv:] = lvl[piv]
    epochs = np.divide(alloc, n, out=np.zeros_like(alloc), where=n > 0)
    out = pd.DataFrame({"group": grp, "n_tokens": n.astype(np.int64)
                        if np.all(n == np.floor(n)) else n,
                        "capacity": cap, "alloc_tokens": alloc,
                        "epochs": epochs})
    return out.sort_values("group").reset_index(drop=True)
