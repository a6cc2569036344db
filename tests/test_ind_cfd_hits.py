"""Round-5 schema/link-analysis additions: inclusion-dependency
discovery (bitmask fold), conditional FDs (one combination fold),
and HITS hubs/authorities (quantized half-rounds) — each vs an
independent single-node pandas/numpy ground truth."""

import numpy as np
import pandas as pd
import pytest

from data_quality_ray.profiling import datarules as dr


def _ds(df, blocks=4):
    import ray.data as rd

    return rd.from_pandas(df).repartition(blocks)


# ---------------------------------------------------------------- IND

def test_inclusion_matrix_containment(ray_session):
    a = pd.DataFrame({"k": [1, 2, 3, 3, 2]})          # distinct {1,2,3}
    b = pd.DataFrame({"k": [1, 2, 3, 4, 5, 5]})       # distinct {1..5}
    c = pd.DataFrame({"k": [4, 5, 6]})                # distinct {4,5,6}
    out = dr.inclusion_matrix([("a.k", _ds(a, 2), "k"),
                               ("b.k", _ds(b, 3), "k"),
                               ("c.k", _ds(c, 2), "k")])
    assert len(out) == 6  # 3 ordered pairs x 2
    r = out.set_index(["col_a", "col_b"])
    assert r.loc[("a.k", "b.k"), "is_ind"]            # {1,2,3} ⊆ {1..5}
    assert not r.loc[("b.k", "a.k"), "is_ind"]
    assert r.loc[("b.k", "a.k"), "n_common"] == 3
    assert r.loc[("b.k", "a.k"), "containment"] == 0.6
    assert r.loc[("a.k", "c.k"), "n_common"] == 0
    assert r.loc[("c.k", "b.k"), "n_common"] == 2
    assert list(r.loc[("c.k", "b.k"), ["n_a", "n_b"]]) == [3, 5]


def test_inclusion_matrix_nulls_dropped(ray_session):
    a = pd.DataFrame({"k": pd.array([1, None, 2], dtype="Int64")})
    b = pd.DataFrame({"k": pd.array([1, 2, None, 9], dtype="Int64")})
    out = dr.inclusion_matrix([("a", _ds(a, 2), "k"),
                               ("b", _ds(b, 2), "k")])
    r = out.set_index(["col_a", "col_b"])
    assert r.loc[("a", "b"), "n_a"] == 2
    assert r.loc[("a", "b"), "is_ind"]
    assert r.loc[("b", "a"), "n_b"] == 2


def test_inclusion_matrix_label_guard(ray_session):
    a = pd.DataFrame({"k": [1]})
    with pytest.raises(ValueError):
        dr.inclusion_matrix([("x", _ds(a, 1), "k"),
                             ("x", _ds(a, 1), "k")])


# ---------------------------------------------------------------- CFD

def test_cfd_violations_matches_pandas(ray_session):
    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "cond": rng.choice(["F", "O", "P"], 600),
        "lhs": rng.integers(0, 40, 600),
        "rhs": rng.choice(["a", "b", "c"], 600),
    })
    out = dr.cfd_violations(_ds(df, 5), "cond", "lhs", "rhs",
                            patterns=["F", "O", "P"])

    for pat in ["F", "O", "P"]:
        sub = df[df["cond"] == pat]
        g = sub.groupby("lhs")["rhs"]
        nuniq = g.nunique()
        got = out.set_index("pattern").loc[pat]
        assert got["n_rows"] == len(sub)
        assert got["n_groups"] == sub["lhs"].nunique()
        assert got["n_violating_groups"] == int((nuniq > 1).sum())
        # g3 = Σ over violating groups of (rows − modal rhs count)
        exp_g3 = 0
        for _, s in sub.groupby("lhs")["rhs"]:
            if s.nunique() > 1:
                exp_g3 += len(s) - s.value_counts().iloc[0]
        assert got["g3_rows"] == exp_g3


def test_cfd_pattern_filter_and_discovery(ray_session):
    df = pd.DataFrame({"cond": ["x"] * 4 + ["y"] * 2,
                       "lhs": [1, 1, 2, 2, 7, 7],
                       "rhs": ["a", "b", "c", "c", "d", "d"]})
    full = dr.cfd_violations(_ds(df, 2), "cond", "lhs", "rhs")
    assert set(full["pattern"]) == {"x", "y"}
    only_x = dr.cfd_violations(_ds(df, 2), "cond", "lhs", "rhs",
                               patterns=["x"])
    assert list(only_x["pattern"]) == ["x"]
    gx = only_x.iloc[0]
    assert (gx["n_rows"], gx["n_groups"],
            gx["n_violating_groups"], gx["g3_rows"]) == (4, 2, 1, 1)
    gy = full.set_index("pattern").loc["y"]
    assert (gy["n_violating_groups"], gy["g3_rows"]) == (0, 0)


# --------------------------------------------------------------- HITS

def _hits_numpy(edges, rounds=5):
    """Independent dense replay of the quantized contract."""
    srcs = np.sort(np.unique(edges["src"]))
    dsts = np.sort(np.unique(edges["dst"]))
    w = np.zeros((len(srcs), len(dsts)))
    for s, d, ww in edges.itertuples(index=False):
        w[np.searchsorted(srcs, s), np.searchsorted(dsts, d)] += ww
    h = np.ones(len(srcs))
    for _ in range(rounds):
        a = w.T @ h
        a = np.round(a / a.max(), 9)
        h = w @ a
        h = np.round(h / h.max(), 9)
    return srcs, h, dsts, a


def test_hits_matches_dense_replay(ray_session):
    from data_quality_ray.functions.graph import hits

    rng = np.random.default_rng(3)
    e = pd.DataFrame({
        "src": rng.integers(0, 12, 200),
        "dst": rng.integers(100, 130, 200),
        "w": rng.integers(1, 5, 200).astype("int64"),
    })
    e = e.groupby(["src", "dst"], as_index=False)["w"].sum()
    hubs, auths = hits(_ds(e, 4), rounds=5)
    srcs, h, dsts, a = _hits_numpy(e, rounds=5)
    assert np.array_equal(hubs["node"].to_numpy(), srcs)
    assert np.array_equal(auths["node"].to_numpy(), dsts)
    np.testing.assert_allclose(hubs["hub"].to_numpy(), h, atol=2e-9)
    np.testing.assert_allclose(auths["auth"].to_numpy(), a, atol=2e-9)
    # L∞ normalization: max score is exactly 1 on both sides
    assert hubs["hub"].max() == 1.0 and auths["auth"].max() == 1.0


def test_hits_star_graph(ray_session):
    from data_quality_ray.functions.graph import hits

    # two hubs into one shared authority; hub 2 has double weight
    e = pd.DataFrame({"src": [1, 2], "dst": [9, 9], "w": [1, 2]})
    hubs, auths = hits(_ds(e, 1), rounds=3)
    assert list(auths["node"]) == [9] and auths["auth"].iloc[0] == 1.0
    r = hubs.set_index("node")["hub"]
    assert r[2] == 1.0 and r[1] == 0.5


def test_hits_all_zero_weights_raise(ray_session):
    from data_quality_ray.functions.graph import hits

    e = pd.DataFrame({"src": [1, 2, 2], "dst": [9, 9, 8], "w": [0, 0, 0]})
    with pytest.raises(ValueError, match="score is 0"):
        hits(_ds(e, 1), rounds=2)


def test_round_half_away_matches_sql_round():
    """The one half-away helper pagerank/hits quantize with: exact halves
    go away from zero at any ``dp`` (banker's np.round goes to even)."""
    from data_quality_ray.rules.heuristics import round_half_away

    assert round_half_away(89 / 128) == 0.695313           # np.round: …312
    assert np.round(89 / 128, 6) == 0.695312
    half = 2.0 ** -10                                       # 976562.5e-9
    assert round_half_away(half, 9) == 0.000976563
    assert round_half_away(-half, 9) == -0.000976563
    assert np.round(half, 9) == 0.000976562
    np.testing.assert_array_equal(
        round_half_away(np.array([0.0, 1.25e-7, -1.25e-7, 2.5]), 6),
        [0.0, 0.0, -0.0, 2.5])
