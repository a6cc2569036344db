"""Table-level DQ rules (profiling/datarules.py): merge exactness vs
single-node numpy/pandas ground truth, null semantics, and edge cases."""

import numpy as np
import pandas as pd
import pytest

from data_quality_ray.profiling import datarules as dr


def _ds(df, blocks=5):
    import ray.data as rd

    return rd.from_pandas(df).repartition(blocks)


def test_comoments_matches_numpy(ray_session):
    rng = np.random.default_rng(7)
    x = rng.normal(100, 15, 4001)
    y = 3.5 * x + rng.normal(0, 40, 4001)
    df = pd.DataFrame({"x": x, "y": y})
    out = dr.correlation(_ds(df, blocks=7), "x", "y")
    assert out["n"] == 4001
    assert out["corr"] == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)
    assert out["covar_pop"] == pytest.approx(np.cov(x, y, bias=True)[0, 1],
                                             rel=1e-12)
    assert out["covar_samp"] == pytest.approx(np.cov(x, y)[0, 1], rel=1e-12)


def test_comoments_null_rows_excluded(ray_session):
    df = pd.DataFrame({"x": [1.0, 2.0, np.nan, 4.0, 5.0],
                       "y": [2.0, np.nan, 3.0, 8.0, 10.0]})
    out = dr.correlation(_ds(df, blocks=2), "x", "y")
    ok = df.dropna()
    assert out["n"] == 3
    assert out["corr"] == pytest.approx(
        np.corrcoef(ok["x"], ok["y"])[0, 1], abs=1e-12)


def test_grouped_entropy(ray_session):
    df = pd.DataFrame({"c": ["a"] * 50 + ["b"] * 25 + ["c"] * 25})
    e = dr.grouped_entropy(_ds(df), "c")
    assert e == pytest.approx(1.5, abs=1e-12)  # 0.5,0.25,0.25 → 1.5 bits


def test_benford_first_digit(ray_session):
    vals = [1.2, 19.0, 123.4, 2.9, 250.0, 9.99, 0.5, np.nan]  # <1 and nan drop
    df = pd.DataFrame({"v": vals})
    out = dr.benford_first_digit(_ds(df, blocks=3), "v")
    got = dict(zip(out["digit"], out["n"]))
    assert got == {1: 3, 2: 2, 9: 1}
    assert out["freq"].sum() == pytest.approx(1.0, abs=1e-5)
    assert float(out.loc[out["digit"] == 1, "expected"].iloc[0]) == \
        pytest.approx(np.log10(2), abs=1e-6)


def test_benford_first_digit_beyond_int64(ray_session):
    """Values >= 2^63 (an int64 cast would wrap negative) and power-of-10
    boundaries must yield the true first significant digit."""
    vals = [9.3e18, 2.5e20, 1e19, 1.0, 10.0, 1000.0, 999.0, 9.999e15]
    df = pd.DataFrame({"v": vals})
    out = dr.benford_first_digit(_ds(df, blocks=2), "v")
    got = dict(zip(out["digit"], out["n"]))
    assert got == {1: 4, 2: 1, 9: 3}


def test_benford_first_digit_nonfinite_and_ulp_boundaries(ray_session):
    """inf must be filtered like nan (not flow to a NaN digit), and values
    within ~1 ulp of large powers of 10 (where 10.0**e itself is inexact)
    must still land on a digit in [1, 9] — never 0/10 → KeyError."""
    near_pow = np.nextafter(1e23, 0.0)  # just below 10^23, float-inexact zone
    vals = [np.inf, -np.inf, np.nan, 1.0, near_pow, 1e23, np.nextafter(1e23, np.inf),
            9.999999e22, 1e308, float(2**63), 5.0]
    df = pd.DataFrame({"v": vals})
    out = dr.benford_first_digit(_ds(df, blocks=2), "v")
    assert out["digit"].between(1, 9).all()
    # the three non-finite rows and nothing else drop
    assert out["n"].sum() == 8
    got = dict(zip(out["digit"], out["n"]))
    assert got[5] == 1 and got[1] >= 3  # 1.0, 1e23-family, 1e308


def test_iqr_outlier_fences(ray_session):
    v = np.concatenate([np.arange(1, 101, dtype=float), [1e6, -1e6]])
    df = pd.DataFrame({"v": v})
    r = dr.iqr_outlier_fences(_ds(df, blocks=4), "v")
    q1, q3 = np.percentile(v, [25, 75])
    assert r["fence_lo"] == round(float(q1 - 1.5 * (q3 - q1)), 6)
    assert r["fence_hi"] == round(float(q3 + 1.5 * (q3 - q1)), 6)
    assert r["n_low"] == 1 and r["n_high"] == 1 and r["n"] == 102


def test_uniqueness_profile(ray_session):
    df = pd.DataFrame({
        "id": np.arange(100),
        "cat": ["x", "y"] * 50,
        "with_null": [None if i % 10 == 0 else f"v{i}" for i in range(100)],
    })
    out = dr.uniqueness_profile(_ds(df, blocks=4), ["id", "cat", "with_null"])
    r = out.set_index("column")
    assert r.loc["id", "n_distinct"] == 100 and bool(r.loc["id", "is_key"])
    assert r.loc["cat", "n_distinct"] == 2 and not bool(r.loc["cat", "is_key"])
    assert r.loc["with_null", "n_null"] == 10
    assert r.loc["with_null", "n_distinct"] == 90  # nulls excluded
    assert not bool(r.loc["with_null", "is_key"])


def test_fd_violations(ray_session):
    # a -> b holds; b -> c broken in both b-groups, one minority row each
    df = pd.DataFrame({
        "a": [1, 1, 2, 2, 3, 3, 3],
        "b": [1, 1, 1, 1, 2, 2, 2],
        "c": ["x", "x", "x", "y", "y", "z", "z"],
    })
    ok = dr.fd_violations(_ds(df, blocks=3), "a", "b")
    assert ok["n_violating_groups"] == 0 and ok["g3_rows"] == 0
    bad = dr.fd_violations(_ds(df, blocks=3), "b", "c")
    assert bad["n_groups"] == 2
    assert bad["n_violating_groups"] == 2
    assert bad["g3_rows"] == 2


def test_orphan_stats(ray_session):
    child = pd.DataFrame({"k": [1, 2, 3, 99, None, 2]})
    parent = pd.DataFrame({"pk": [1.0, 2.0, 3.0, 4.0]})
    s = dr.orphan_stats(_ds(child, blocks=2), "k", _ds(parent, blocks=2), "pk")
    assert s["n"] == 6
    assert s["n_null"] == 1
    assert s["n_orphans"] == 1  # only 99; null not an orphan


def test_orphan_stats_empty_parent(ray_session):
    child = pd.DataFrame({"k": [1, 2, 3]})
    parent = pd.DataFrame({"pk": pd.array([], dtype="int64")})
    s = dr.orphan_stats(_ds(child, blocks=2), "k", _ds(parent, blocks=1), "pk")
    assert s["n_orphans"] == 3


def test_neardup_pairs_blocked_complete_vs_brute(ray_session):
    """Pigeonhole block bucketing must find every cosine-near pair whose
    fingerprints differ in < n_blocks bits."""
    from data_quality_ray.dedup.embedding import neardup_pairs_blocked

    rng = np.random.default_rng(3)
    n = 120
    base = rng.integers(0, 2**63 - 1, 30, dtype=np.int64)
    keys = base[rng.integers(0, 30, n)]
    flip = rng.integers(0, 64, n)
    keys = keys ^ (np.int64(1) << flip.astype(np.int64)) * (rng.random(n) < 0.5)
    vecs = rng.normal(0, 1, (30, 4))
    mat = vecs[rng.integers(0, 30, n)] + rng.normal(0, 1e-9, (n, 4))
    df = pd.DataFrame({"id": np.arange(n, dtype=np.int64),
                       "vec": list(mat), "key": keys})
    got = neardup_pairs_blocked(_ds(df, blocks=4), "id", "vec", "key",
                                threshold=0.9999, n_blocks=4)
    # brute force restricted to the same block-sharing condition
    norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = np.round(norm @ norm.T, 6)
    exp = set()
    uk = keys.astype(np.uint64)
    for i in range(n):
        for j in range(i + 1, n):
            share = any(((uk[i] >> np.uint64(16 * b)) & np.uint64(0xFFFF))
                        == ((uk[j] >> np.uint64(16 * b)) & np.uint64(0xFFFF))
                        for b in range(4))
            if share and sims[i, j] >= 0.9999:
                exp.add((i, j))
    assert set(zip(got["id_a"], got["id_b"])) == exp


def test_profile_cli_table(ray_session, tmp_path):
    """__main__._profile_table end-to-end over a small parquet: summary
    stats for numerics, uniqueness rows, entropy for discovered
    categoricals, IQR fences."""
    import argparse

    import pyarrow as pa
    import pyarrow.parquet as pq

    from data_quality_ray.__main__ import _profile_table

    t = pa.table({
        "id": pa.array(range(200), type=pa.int64()),
        "price": pa.array([float(i % 50) + 0.5 for i in range(200)]),
        "cat": pa.array(["a", "b", "c", "d"] * 50),
    })
    p = tmp_path / "t.parquet"
    pq.write_table(t, p)
    out = _profile_table(argparse.Namespace(
        input_path=str(p), cols=None, no_distinct=False, cpus=4))
    assert out["stats"]["price"]["summary"]["count"] == 200
    uniq = {r["column"]: r for r in out["uniqueness"]}
    assert uniq["id"]["is_key"] and uniq["cat"]["n_distinct"] == 4
    assert out["entropy"]["cat"] == 2.0  # 4 equal classes → 2 bits
    assert "price" in out["iqr_outliers"]


def test_grouped_aggregate_random_parity(ray_session):
    """driver final == shuffle final == plain pandas groupby for random
    frames with null keys, NaN values, and unicode keys — the primitive
    every table rule here rides."""
    from data_quality_ray.profiling.groupagg import grouped_aggregate

    for seed in range(4):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 400))
        keys = rng.choice(["a", "β", "c", None, "d-e"], size=n)
        df = pd.DataFrame({
            "k": keys,
            "v": np.where(rng.random(n) < 0.1, np.nan, rng.normal(0, 10, n)),
        })
        aggs = {"n": ("", "count"), "s": ("v", "sum"),
                "mn": ("v", "min"), "mx": ("v", "max")}
        ds = _ds(df, blocks=int(rng.integers(1, 6)))
        drv = grouped_aggregate(ds, ["k"], aggs).sort_values("k") \
            .reset_index(drop=True)
        shf = grouped_aggregate(ds, ["k"], aggs, final="shuffle") \
            .to_pandas().sort_values("k").reset_index(drop=True)
        gb = df.groupby("k", sort=True)
        exp = pd.DataFrame({"n": gb.size(), "s": gb["v"].sum(),
                            "mn": gb["v"].min(), "mx": gb["v"].max()}) \
            .reset_index()
        for got in (drv, shf):
            assert list(got["k"]) == list(exp["k"]), seed
            np.testing.assert_allclose(got["s"], exp["s"], rtol=1e-12)
            np.testing.assert_allclose(got["mn"], exp["mn"])
            np.testing.assert_allclose(got["mx"], exp["mx"])
            assert list(got["n"].astype(int)) == list(exp["n"].astype(int))


def test_grouped_aggregate_auto_gate(ray_session, force_path):
    """final='auto' must pick the driver path (DataFrame) under the
    measured partial-row gate and the shuffle path (Dataset) above it,
    with identical values either way."""
    import data_quality_ray.profiling.groupagg as ga

    df = pd.DataFrame({"k": list("abcd") * 25,
                       "v": np.arange(100, dtype=float)})
    ds = _ds(df, blocks=4)
    aggs = {"n": ("", "count"), "s": ("v", "sum")}
    a = ga.grouped_aggregate(ds, ["k"], aggs, final="auto")
    assert isinstance(a, pd.DataFrame)  # tiny input → driver path
    force_path("shuffle")
    b = ga.grouped_aggregate(ds, ["k"], aggs, final="auto")
    assert not isinstance(b, pd.DataFrame)  # forced shuffle → Dataset
    bd = b.to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        a.sort_values("k").reset_index(drop=True)[["k", "n", "s"]],
        bd[["k", "n", "s"]], check_dtype=False)


def test_distinct_counts_combined_random_parity(ray_session):
    """Combined one-exchange distinct == pandas nunique (nulls excluded)
    across mixed dtypes."""
    from data_quality_ray.profiling.datarules import distinct_counts_combined

    rng = np.random.default_rng(11)
    n = 500
    df = pd.DataFrame({
        "i": rng.integers(0, 40, n),
        "f": np.where(rng.random(n) < 0.1, np.nan,
                      np.round(rng.normal(0, 3, n), 2)),
        "s": rng.choice(["x", "y", None, "ü", "long-tail"], size=n),
    })
    got = distinct_counts_combined(_ds(df, blocks=5), ["i", "f", "s"])
    assert got["i"] == df["i"].nunique()
    assert got["f"] == df["f"].nunique()
    assert got["s"] == df["s"].nunique()


def test_rate_anomalies_flags_bursts(ray_session):
    rng = np.random.default_rng(23)
    base = pd.Timestamp("2025-01-01")
    # steady 5/hour for 48h, one 60-event burst hour for type A
    rows = []
    for h in range(48):
        for _ in range(5):
            rows.append(("A", base + pd.Timedelta(hours=h, minutes=int(rng.integers(60)))))
            rows.append(("B", base + pd.Timedelta(hours=h, minutes=int(rng.integers(60)))))
    rows += [("A", base + pd.Timedelta(hours=10, minutes=int(rng.integers(60))))
             for _ in range(55)]
    df = pd.DataFrame(rows, columns=["t", "ts"])
    out = dr.rate_anomalies(_ds(df, blocks=6), "ts", "t", sigma=3.0)
    assert list(out["event_type"].unique()) == ["A"]
    assert len(out) == 1 and out.loc[0, "n"] == 60
    # hand check: E = (5*48+55)/48; threshold = E + 3*sqrt(E)
    e = (5 * 48 + 55) / 48
    assert out.loc[0, "expected"] == round(e, 6)
    assert out.loc[0, "threshold"] == round(e + 3 * np.sqrt(e), 6)


def test_trimmed_mean_matches_scipy_style(ray_session):
    rng = np.random.default_rng(11)
    v = np.concatenate([rng.normal(50, 5, 2000), [1e6, -1e6, np.nan]])
    df = pd.DataFrame({"v": v})
    out = dr.trimmed_mean(_ds(df, blocks=7), "v", trim=0.1)
    ok = df["v"].dropna()
    lo, hi = ok.quantile(0.1), ok.quantile(0.9)
    kept = ok[(ok >= lo) & (ok <= hi)]
    assert out["n"] == len(ok)
    assert out["n_kept"] == len(kept)
    assert out["lo"] == pytest.approx(lo, rel=1e-9)
    assert out["hi"] == pytest.approx(hi, rel=1e-9)
    assert out["trimmed_mean"] == pytest.approx(kept.mean(), rel=1e-12)


def test_mutual_information_independent_and_dependent(ray_session):
    # perfectly dependent: MI == H(A) == H(B), NMI == 1
    df = pd.DataFrame({"a": ["x", "y"] * 500})
    df["b"] = df["a"].str.upper()
    out = dr.mutual_information(_ds(df, blocks=4), "a", "b")
    assert out["n"] == 1000
    assert out["mi"] == pytest.approx(np.log(2), abs=1e-12)
    assert out["nmi"] == pytest.approx(1.0, abs=1e-12)
    # independent uniform: MI == 0
    rng = np.random.default_rng(3)
    df2 = pd.DataFrame({"a": np.repeat(["x", "y"], 500),
                        "b": np.tile(["p", "q"], 500)})
    out2 = dr.mutual_information(_ds(df2, blocks=4), "a", "b")
    assert out2["mi"] == pytest.approx(0.0, abs=1e-12)


def test_k_anonymity_counts(ray_session):
    df = pd.DataFrame({
        "zip": ["10001"] * 6 + ["10002"] * 3 + ["10003"] * 1,
        "age": [30] * 10,
        "diag": ["a", "a", "b", "c", "d", "e", "a", "a", "a", "z"],
    })
    out = dr.k_anonymity(_ds(df, blocks=3), ["zip", "age"], "diag", k=5, l=2)
    assert out["n_groups"] == 3
    assert out["min_group_size"] == 1
    assert out["n_groups_lt_k"] == 2          # sizes 3 and 1
    assert out["rows_at_risk"] == 4
    assert out["min_l_diversity"] == 1        # the 10002/10003 groups
    assert out["n_groups_lt_l"] == 2          # 10002 (all "a") and 10003


def test_chi_square_matches_scipy_formula(ray_session):
    rng = np.random.default_rng(5)
    df = pd.DataFrame({"a": rng.choice(["x", "y", "z"], 3000),
                       "b": rng.choice(["p", "q"], 3000)})
    out = dr.chi_square(_ds(df, blocks=6), "a", "b")
    ct = pd.crosstab(df["a"], df["b"])
    e = np.outer(ct.sum(1), ct.sum(0)) / ct.values.sum()
    chi2 = float(((ct.values - e) ** 2 / e).sum())
    assert out["n"] == 3000
    assert out["chi2"] == pytest.approx(chi2, rel=1e-10)
    assert out["dof"] == 2
    v = np.sqrt(chi2 / (3000 * 1))
    assert out["cramers_v"] == pytest.approx(v, rel=1e-10)
    # perfect dependence → V == 1
    df2 = pd.DataFrame({"a": ["x", "y"] * 200})
    df2["b"] = df2["a"].str.upper()
    out2 = dr.chi_square(_ds(df2, blocks=2), "a", "b")
    assert out2["cramers_v"] == pytest.approx(1.0, abs=1e-12)


def test_ewma_anomalies_flags_burst_and_adapts(ray_session):
    base = pd.Timestamp("2025-03-01")
    rows = []
    for h in range(30):
        for _ in range(60 if h == 20 else 5):  # burst at hour 20
            rows.append(("A", base + pd.Timedelta(hours=h, minutes=1)))
    df = pd.DataFrame(rows, columns=["t", "ts"])
    out = dr.ewma_anomalies(_ds(df, blocks=4), "ts", "t",
                            alpha=0.3, sigma=3.0, top=3)
    top = out.iloc[0]
    assert top["flagged"] and top["n"] == 60
    assert top["hour"] == base + pd.Timedelta(hours=20)
    # steady-state pre-burst threshold: ewma stays 5 → thr = 5+3*sqrt(5)
    assert top["ewma_prev"] == 5.0
    assert top["threshold"] == pytest.approx(5 + 3 * np.sqrt(5), abs=1e-6)
    # hour 21 (back to 5) must NOT flag: ewma jumped up after the burst
    h21 = out[out["hour"] == base + pd.Timedelta(hours=21)]
    assert h21.empty or not h21["flagged"].any()


def test_spearman_matches_pandas_rank_corr(ray_session):
    rng = np.random.default_rng(9)
    x = rng.integers(0, 30, 3000).astype(float)     # heavy ties
    y = x * 2 + rng.normal(0, 10, 3000)
    y[::17] = np.nan                                # null pairs excluded
    df = pd.DataFrame({"x": x, "y": y})
    out = dr.spearman(_ds(df, blocks=7), "x", "y")
    ok = df.dropna()
    ref = ok["x"].rank().corr(ok["y"].rank())
    assert out["n"] == len(ok)
    assert out["spearman"] == pytest.approx(ref, abs=1e-12)
    # monotone → exactly 1 even with ties
    df2 = pd.DataFrame({"x": np.arange(100.0), "y": np.arange(100.0) ** 3})
    assert dr.spearman(_ds(df2, blocks=3), "x", "y")["spearman"] == (
        pytest.approx(1.0, abs=1e-12))


def test_dp_noisy_counts_deterministic_and_calibrated(ray_session):
    df = pd.DataFrame({"g": ["a"] * 100 + ["b"] * 50 + ["c"] * 7})
    out1 = dr.dp_noisy_counts(_ds(df, blocks=4), "g", eps=0.5, seed=1)
    out2 = dr.dp_noisy_counts(_ds(df, blocks=1), "g", eps=0.5, seed=1)
    assert out1.equals(out2)                      # partition-invariant
    assert list(out1["n"]) == [100, 50, 7]
    # noise reproduces the inverse-CDF formula exactly
    from data_quality_ray.profiling.sketches import md5_hash64
    u = (md5_hash64(np.array(["1-a", "1-b", "1-c"])).astype(np.float64)
         + 0.5) / 2.0 ** 64
    noise = -2.0 * np.sign(u - 0.5) * np.log(1 - 2 * np.abs(u - 0.5))
    x = np.array([100, 50, 7]) + noise
    want = np.sign(x) * np.floor(np.abs(x) * 1e6 + 0.5) / 1e6
    assert np.allclose(out1["noisy_n"].to_numpy(), want, atol=0)
    # different seed → different release
    out3 = dr.dp_noisy_counts(_ds(df, blocks=4), "g", eps=0.5, seed=2)
    assert (out3["noisy_n"].to_numpy() != out1["noisy_n"].to_numpy()).any()


def test_contract_check_rules(ray_session):
    from data_quality_ray.profiling.contract import contract_check

    df = pd.DataFrame({
        "id": [1, 2, 2, None, 5],
        "v": [0.5, -3.0, 12.0, 1.0, np.nan],
        "cat": ["a", "b", "zz", None, "a"],
        "code": ["X1", "X2", "bad", None, "X9"],
    })
    spec = {
        "id": {"not_null": True, "unique": True},
        "v": {"min": 0.0, "max": 10.0},
        "cat": {"allowed": ["a", "b"]},
        "code": {"regex": "X[0-9]"},
    }
    out = contract_check(_ds(df, blocks=2), spec)
    got = {(r["column"], r["rule"]): r["n_violations"]
           for _, r in out.iterrows()}
    assert got[("id", "not_null")] == 1
    assert got[("id", "unique")] == 1          # 4 non-null, 3 distinct
    assert got[("v", "min")] == 1 and got[("v", "max")] == 1
    assert got[("cat", "allowed")] == 1        # zz (null not counted)
    assert got[("code", "regex")] == 1         # bad (null not counted)
    assert (out["n"] == 5).all()


def test_zipf_fit_on_synthetic_power_law(ray_session):
    import ray.data as rd

    # exact power-law counts: token i appears round(1000/i) times
    toks = []
    for i in range(1, 201):
        toks += [f"w{i:03d}"] * round(1000 / i)
    df = pd.DataFrame({"token": toks})
    r = dr.zipf_fit(rd.from_pandas(df).repartition(5), "token", top=200)
    assert r["n_tokens"] == 200
    assert r["slope"] == pytest.approx(-1.0, abs=0.02)
    assert r["r"] == pytest.approx(-1.0, abs=0.01)


def test_pii_audit_counts(ray_session):
    import ray.data as rd

    from data_quality_ray.rules.scrub import pii_audit

    df = pd.DataFrame({"text": [
        "mail a@b.com and c@d.org now",       # 2 email hits, 1 doc
        "ssn 123-45-6789 ok",                  # 1 ssn
        "call +1 555 123 4567",                # 1 phone
        "clean text here",
        None,
    ]})
    out = pii_audit(rd.from_pandas(df).repartition(2), "text")
    row = out.iloc[0]
    assert row["n_docs"] == 5
    assert row["docs_email"] == 1 and row["hits_email"] == 2
    assert row["docs_ssn"] == 1 and row["hits_ssn"] == 1
    assert row["docs_phone"] == 1 and row["hits_phone"] == 1


def test_peak_rate_users_flags_only_bursty(ray_session):
    base = pd.Timestamp("2025-04-01")
    rows = [(1, base + pd.Timedelta(minutes=i)) for i in range(10)]      # 10/hr
    rows += [(2, base + pd.Timedelta(hours=i)) for i in range(10)]      # 1/hr
    rows += [(3, base + pd.Timedelta(minutes=30 + i)) for i in range(3)]  # 3/hr
    df = pd.DataFrame(rows, columns=["u", "ts"])
    out = dr.peak_rate_users(_ds(df, blocks=3), "ts", "u", freq="h",
                             threshold=3)
    assert list(out["user_id"]) == [1]
    assert out.loc[0, "peak"] == 10 and out.loc[0, "n_events"] == 10


def test_readability_stats_contract():
    from data_quality_ray.rules.heuristics import readability_stats

    r = readability_stats(["The cat sat. It was happy!", "", None, "rhythm"])
    # 6 words; 2 sentence runs; syllables: the=1 cat=1 sat.=1 it=1 was=1
    # happy!=2 → 7
    assert r["n_words"][0] == 6 and r["n_sentences"][0] == 2
    assert r["n_syllables"][0] == 7
    import numpy as np
    want = 206.835 - 1.015 * 3 - 84.6 * (7 / 6)
    assert abs(r["flesch"][0] - round(want, 6)) < 1e-9
    assert np.isnan(r["flesch"][1]) and np.isnan(r["flesch"][2])
    assert r["n_syllables"][3] == 1  # vowel-less word floors at 1


def test_grouped_mad_outliers(ray_session):
    rng = np.random.default_rng(7)
    a = np.round(rng.normal(100, 5, 500), 2)
    b = np.round(rng.normal(50, 2, 300), 2)
    df = pd.DataFrame({"g": ["a"] * 500 + ["b"] * 300,
                       "v": np.concatenate([a, b])})
    # plant gross outliers in group a only
    df.loc[:4, "v"] = 10_000.0
    out = dr.grouped_mad_outliers(_ds(df, blocks=5), "g", "v", z=3.0)
    ra = out[out["g"] == "a"].iloc[0]
    rb = out[out["g"] == "b"].iloc[0]
    assert ra["n"] == 500 and rb["n"] == 300
    assert ra["n_outliers"] >= 5           # the planted points
    # reference: pandas median/MAD with the same disc-median contract
    va = np.sort(df[df["g"] == "a"]["v"].to_numpy())
    med = va[max(1, int(np.ceil(0.5 * len(va)))) - 1]
    assert ra["med"] == med
    dv = np.sort(np.abs(va - med))
    mad = dv[max(1, int(np.ceil(0.5 * len(dv)))) - 1]
    assert ra["mad"] == mad


def test_entropy_by_group_exact(ray_session):
    import ray.data as rd

    from data_quality_ray.profiling.datarules import entropy_by_group

    df = pd.DataFrame({"u": [1, 1, 1, 2, 2],
                       "e": ["a", "a", "b", "c", "c"]})
    out = entropy_by_group(rd.from_pandas(df).repartition(2),
                           "u", "e").set_index("u")
    # user 1: counts {a:2,b:1} → H = ln3 - (2ln2)/3
    assert out.loc[1, "entropy"] == pytest.approx(
        np.log(3) - 2 * np.log(2) / 3)
    assert out.loc[1, "n_distinct"] == 2
    # user 2: single type → 0
    assert out.loc[2, "entropy"] == pytest.approx(0.0)


def test_decayed_sum_by_group_exact(ray_session):
    import ray.data as rd

    from data_quality_ray.profiling.datarules import decayed_sum_by_group

    t0 = pd.Timestamp("2024-01-02")
    df = pd.DataFrame({
        "u": [1, 1, 2],
        "ts": [t0, t0 - pd.Timedelta(days=1), t0],
        "v": [10.0, 10.0, 5.0],
    })
    out = decayed_sum_by_group(rd.from_pandas(df).repartition(2),
                               "u", "ts", "v", tau_s=86400.0) \
        .set_index("u")
    assert out.loc[1, "decayed_sum"] == pytest.approx(10 + 10 * np.exp(-1))
    assert out.loc[2, "decayed_sum"] == pytest.approx(5.0)
    # half-life semantics: one half-life back decays to exactly half
    out2 = decayed_sum_by_group(rd.from_pandas(df).repartition(2),
                                "u", "ts", "v", half_life_s=86400.0) \
        .set_index("u")
    assert out2.loc[1, "decayed_sum"] == pytest.approx(15.0)


def test_seasonal_anomalies_flags_slot_outlier(ray_session):
    import ray.data as rd

    from data_quality_ray.profiling.datarules import seasonal_anomalies

    # four Mondays 09:00 with ~10 events, one Monday with 100 —
    # the spike is anomalous vs its own slot
    rows = []
    base = pd.Timestamp("2024-01-01 09:00")  # a Monday
    for wk, n in enumerate([10, 11, 9, 10, 100]):
        t = base + pd.Timedelta(weeks=wk)
        rows += [{"ts": t + pd.Timedelta(seconds=i)} for i in range(n)]
    # a control slot (Tuesday 09:00) with steady counts — never flagged
    for wk in range(5):
        t = base + pd.Timedelta(days=1, weeks=wk)
        rows += [{"ts": t + pd.Timedelta(seconds=i)} for i in range(10)]
    out = seasonal_anomalies(rd.from_items(rows), "ts", sigma=1.5)
    assert len(out) == 1
    assert out["n"].iloc[0] == 100
    assert out["hour"].iloc[0] == base + pd.Timedelta(weeks=4)
