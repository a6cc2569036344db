"""Exact blocked eps-join + deterministic DBSCAN (similarity/dbscan.py)."""

import numpy as np
import pandas as pd
import pytest

from data_quality_ray.similarity.dbscan import (dbscan, eps_pairs_blocked)


def _mk(n=80, dim=8, seed=3):
    rng = np.random.default_rng(seed)
    # three tight blobs + scattered noise so all three roles appear
    centers = rng.normal(size=(3, dim))
    rows = []
    for i in range(n):
        if i % 4 == 3:
            v = rng.normal(size=dim)  # noise
        else:
            v = centers[i % 3] + 0.05 * rng.normal(size=dim)
        rows.append(v.astype(np.float32))
    return pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64),
                         "embedding": rows})


def _brute_pairs(df, eps):
    mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = np.round(mat @ mat.T, 6)
    ids = df["vec_id"].to_numpy()
    iu = np.triu_indices(len(ids), k=1)
    m = sims[iu] >= round(1 - eps, 6)
    return set(zip(ids[iu[0][m]].tolist(), ids[iu[1][m]].tolist()))


def test_eps_pairs_exact_vs_brute(ray_session):
    import ray.data as rd

    df = _mk()
    ds = rd.from_pandas(df)
    for nb in (1, 3, 7):
        got = eps_pairs_blocked(ds, "vec_id", "embedding", eps=0.4,
                                n_blocks=nb)
        assert set(zip(got["id_a"], got["id_b"])) == _brute_pairs(df, 0.4)


def test_dbscan_roles_and_labels(ray_session):
    import ray.data as rd

    df = _mk()
    out = dbscan(rd.from_pandas(df), "vec_id", "embedding",
                 eps=0.4, min_pts=4, n_blocks=3)
    assert list(out.columns) == ["vec_id", "role", "cluster"]
    assert set(out["role"]) == {"core", "border", "noise"}
    # noise ⇔ cluster -1
    assert ((out["role"] == "noise") == (out["cluster"] == -1)).all()
    # every non-noise cluster label is a core id, and is the min id of
    # its member set
    cores = set(out.loc[out["role"] == "core", "vec_id"])
    lab = out[out["cluster"] != -1]
    assert set(lab["cluster"]) <= cores
    for c, g in lab.groupby("cluster"):
        assert c == g.loc[g["role"] == "core", "vec_id"].min()
    # 3 blobs of ~20 rows at min_pts=4 → exactly 3 clusters of cores
    assert out.loc[out["role"] == "core", "cluster"].nunique() == 3


def test_dbscan_dataset_route_parity(ray_session):
    import ray.data as rd

    df = _mk(n=120, seed=9)
    ds = rd.from_pandas(df)
    pdf = dbscan(ds, "vec_id", "embedding", eps=0.4, min_pts=3, n_blocks=4)
    dds = (dbscan(ds, "vec_id", "embedding", eps=0.4, min_pts=3, n_blocks=4,
                  output="dataset")
           .to_pandas().sort_values("vec_id").reset_index(drop=True))
    dds["cluster"] = dds["cluster"].astype("int64")
    pd.testing.assert_frame_equal(pdf, dds)


def test_dbscan_no_pairs_all_noise(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(1)
    df = pd.DataFrame({"vec_id": np.arange(6, dtype=np.int64),
                       "embedding": [rng.normal(size=16).astype(np.float32)
                                     for _ in range(6)]})
    out = dbscan(rd.from_pandas(df), "vec_id", "embedding",
                 eps=0.0001, min_pts=2)
    assert (out["role"] == "noise").all() and (out["cluster"] == -1).all()


def test_dbscan_min_pts_one_isolated_cores(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(2)
    df = pd.DataFrame({"vec_id": np.arange(5, dtype=np.int64),
                       "embedding": [rng.normal(size=16).astype(np.float32)
                                     for _ in range(5)]})
    out = dbscan(rd.from_pandas(df), "vec_id", "embedding",
                 eps=0.0001, min_pts=1)
    # every point is a singleton core cluster of itself
    assert (out["role"] == "core").all()
    assert (out["cluster"] == out["vec_id"]).all()


def test_dbscan_forced_paths_agree(ray_session, force_path):
    """The pair gate's shuffle path labels through the distributed route
    and returns the same frame as the driver-side labelling."""
    import ray.data as rd

    ds = rd.from_pandas(_mk(n=120, seed=9))
    force_path("collect")
    collected = dbscan(ds, "vec_id", "embedding", eps=0.4, min_pts=3, n_blocks=4)
    force_path("shuffle")
    shuffled = dbscan(ds, "vec_id", "embedding", eps=0.4, min_pts=3, n_blocks=4)
    pd.testing.assert_frame_equal(collected, shuffled)
    assert (collected["role"] == "core").any() and (collected["role"] == "noise").any()
