"""Exact distributed quantiles (profiling/quantile_exact.py): order-stat
parity with a single-node sort, interpolation parity with quantile_cont,
recursion under a tiny collect_limit, ties, and nulls."""

import numpy as np
import pandas as pd
import pytest

from data_quality_ray.profiling.quantile_exact import exact_quantiles


def _ds(df, blocks=6):
    import ray.data as rd

    return rd.from_pandas(df).repartition(blocks)


def _quantile_cont(v, q):
    v = np.sort(v)
    r = q * (len(v) - 1)
    k0, k1 = int(np.floor(r)), int(np.ceil(r))
    return v[k0] + (v[k1] - v[k0]) * (r - k0)


def test_matches_sorted_order_stats(ray_session):
    rng = np.random.default_rng(3)
    v = rng.lognormal(3.0, 1.2, 5003)  # skewed: buckets are uneven
    n, vals = exact_quantiles(_ds(pd.DataFrame({"x": v})), "x",
                              [0.01, 0.25, 0.5, 0.75, 0.99],
                              n_buckets=64, collect_limit=500)
    assert n == 5003
    for q, got in zip([0.01, 0.25, 0.5, 0.75, 0.99], vals):
        assert got == _quantile_cont(v, q)  # bit-exact, not approx


def test_recursion_under_tiny_collect_limit(ray_session):
    rng = np.random.default_rng(11)
    # heavy point mass forces one bucket far above collect_limit
    v = np.concatenate([np.full(3000, 7.25), rng.uniform(0, 100, 2000)])
    rng.shuffle(v)
    n, vals = exact_quantiles(_ds(pd.DataFrame({"x": v})), "x",
                              [0.1, 0.5, 0.9], n_buckets=16, collect_limit=64)
    assert n == 5000
    for q, got in zip([0.1, 0.5, 0.9], vals):
        assert got == _quantile_cont(v, q)


def test_constant_column_and_nulls(ray_session):
    df = pd.DataFrame({"x": [5.0, 5.0, np.nan, 5.0, np.nan, 5.0]})
    n, (med,) = exact_quantiles(_ds(df, blocks=2), "x", [0.5])
    assert (n, med) == (4, 5.0)
    with pytest.raises(ValueError):
        exact_quantiles(_ds(pd.DataFrame({"x": [np.nan] * 4}), blocks=2),
                        "x", [0.5])


def test_mad_outliers_vs_numpy(ray_session):
    rng = np.random.default_rng(5)
    v = np.concatenate([rng.normal(50, 3, 4000), [500.0, -400.0, 900.0]])
    from data_quality_ray.profiling.datarules import mad_outliers

    r = mad_outliers(_ds(pd.DataFrame({"x": v})), "x", z=3.5)
    med = _quantile_cont(v, 0.5)
    mad = _quantile_cont(np.abs(v - med), 0.5)
    lo = round(med - 3.5 * 1.4826 * mad, 6)
    hi = round(med + 3.5 * 1.4826 * mad, 6)
    assert r["median"] == med and r["mad"] == mad
    assert r["n_low"] == int((v < lo).sum())
    assert r["n_high"] == int((v > hi).sum())
    assert r["n_high"] >= 2 and r["n_low"] >= 1


def test_grouped_disc_quantile_several_qs_match_single_calls(ray_session):
    """Several quantiles off one count table == one call per quantile,
    and each equals DuckDB's quantile_disc position max(1, ceil(q·n))."""
    from data_quality_ray.profiling.quantile_exact import grouped_disc_quantile

    rng = np.random.default_rng(7)
    df = pd.DataFrame({"g": rng.choice(["a", "b", "c"], 700),
                       "v": rng.integers(0, 50, 700).astype(np.float64)})
    df.loc[::17, "v"] = np.nan
    qs = [0.5, 0.48, 0.52, 0.95, 0.95 - 0.02, 0.97]
    many = grouped_disc_quantile(_ds(df), "g", "v", qs)
    assert list(many.columns) == ["g", *qs]
    for q in qs:
        one = grouped_disc_quantile(_ds(df), "g", "v", q)
        assert list(one.columns) == ["g", "q_val"]
        assert one["g"].tolist() == many["g"].tolist() == ["a", "b", "c"]
        assert one["q_val"].tolist() == many[q].tolist()
        for g, got in zip(one["g"], one["q_val"]):
            v = np.sort(df.loc[(df["g"] == g) & df["v"].notna(), "v"].to_numpy())
            assert got == v[max(1, int(np.ceil(q * len(v)))) - 1]
