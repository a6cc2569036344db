"""Degree-oriented distributed triangle counting (functions/graph.py)."""

import itertools

import numpy as np
import pandas as pd

from data_quality_ray.functions.graph import triangle_counts


def _brute(edges: pd.DataFrame) -> dict:
    es = set(zip(edges["u"], edges["v"]))
    nodes = sorted({n for e in es for n in e})
    tri = {n: 0 for n in nodes}
    for a, b, c in itertools.combinations(nodes, 3):
        if (a, b) in es and (b, c) in es and (a, c) in es:
            tri[a] += 1
            tri[b] += 1
            tri[c] += 1
    return {n: t for n, t in tri.items() if t}


def _run(edges: pd.DataFrame) -> dict:
    import ray.data as rd

    out = triangle_counts(rd.from_pandas(edges), n_buckets=8).to_pandas()
    return dict(zip(out["id"].tolist(), out["tri"].tolist()))


def test_triangles_random_graph_vs_brute(ray_session):
    rng = np.random.default_rng(7)
    n = 40
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
             if rng.random() < 0.25]
    edges = pd.DataFrame(pairs, columns=["u", "v"]).astype("int64")
    assert _run(edges) == _brute(edges)


def test_triangles_known_shapes(ray_session):
    # K4 (every node in 3 triangles) plus a disjoint path (no triangles)
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    path = [(10, 11), (11, 12)]
    edges = pd.DataFrame(k4 + path, columns=["u", "v"]).astype("int64")
    assert _run(edges) == {0: 3, 1: 3, 2: 3, 3: 3}


def test_triangles_skewed_hub(ray_session):
    # hub node 0 connected to 30 spokes; spokes form a ring — each ring
    # edge closes exactly one triangle through the hub
    spokes = list(range(1, 31))
    edges = [(0, s) for s in spokes]
    ring = [(min(a, b), max(a, b))
            for a, b in zip(spokes, spokes[1:] + spokes[:1])]
    df = (pd.DataFrame(sorted(set(edges + ring)), columns=["u", "v"])
          .astype("int64"))
    got = _run(df)
    assert got[0] == 30
    assert all(got[s] == 2 for s in spokes)


def test_link_prediction_vs_brute(ray_session):
    import ray.data as rd

    from data_quality_ray.functions.graph import link_prediction

    rng = np.random.default_rng(13)
    n = 25
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
             if rng.random() < 0.2]
    edges = pd.DataFrame(pairs, columns=["u", "v"]).astype("int64")
    got = link_prediction(rd.from_pandas(edges)).to_pandas()
    got = {(a, b): (c, s) for a, b, c, s in
           zip(got["id_a"], got["id_b"], got["cn"], got["aa_ppm"])}

    es = set(map(tuple, pairs))
    nbrs = {x: set() for e in es for x in e}
    for a, b in es:
        nbrs[a].add(b)
        nbrs[b].add(a)
    want = {}
    for a in nbrs:
        for b in nbrs:
            if a < b and (a, b) not in es:
                common = nbrs[a] & nbrs[b]
                if common:
                    want[(a, b)] = (len(common),
                                    sum(int(np.round(1e6 / np.log(len(nbrs[u]))))
                                        for u in common))
    assert got == want


def test_graph_collect_shuffle_parity(ray_session, force_path):
    import ray.data as rd

    from data_quality_ray.functions.graph import link_prediction, triangle_counts

    rng = np.random.default_rng(31)
    pairs = {(int(a), int(b)) for a, b in rng.integers(0, 60, (400, 2))
             if a != b}
    edges = pd.DataFrame(sorted((min(a, b), max(a, b)) for a, b in pairs),
                         columns=["u", "v"]).drop_duplicates().astype("int64")
    ds = rd.from_pandas(edges).repartition(4)

    force_path("collect")
    tc = triangle_counts(ds).to_pandas()
    lc = link_prediction(ds).to_pandas()
    force_path("shuffle")
    ts = triangle_counts(ds).to_pandas()
    ls = link_prediction(ds).to_pandas()
    assert tc.sort_values("id").reset_index(drop=True).equals(
        ts.sort_values("id").reset_index(drop=True).astype({"id": "int64", "tri": "int64"}))

    key = ["id_a", "id_b"]
    assert lc.sort_values(key).reset_index(drop=True).equals(
        ls[["id_a", "id_b", "cn", "aa_ppm"]].astype("int64")
        .sort_values(key).reset_index(drop=True))


def test_kcore_peeling_and_parity(ray_session, force_path):
    import ray.data as rd

    from data_quality_ray.functions.graph import kcore

    # a 4-clique (core-3) plus a tail of degree-1/2 nodes that must peel
    clique = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    tail = [(3, 4), (4, 5), (5, 6)]
    edges = pd.DataFrame(clique + tail, columns=["u", "v"]).astype("int64")
    ds = rd.from_pandas(edges).repartition(3)
    force_path("collect")
    out = kcore(ds, k=3, rounds=10).to_pandas()
    assert sorted(out["id"]) == [0, 1, 2, 3]
    assert (out["deg"] == 3).all()
    # collect == shuffle parity on a random graph
    rng = np.random.default_rng(17)
    pairs = {(int(a), int(b)) for a, b in rng.integers(0, 40, (200, 2)) if a < b}
    e2 = pd.DataFrame(sorted(pairs), columns=["u", "v"]).astype("int64")
    d2 = rd.from_pandas(e2).repartition(4)
    # 3 rounds / 8 buckets: keeps the forced-shuffle leg unit-test-sized
    # (12 rounds x two 64-bucket joins is minutes of pure exchange
    # latency at 4 CPUs); parity only needs both paths to run the SAME
    # round count, not the production one
    c = kcore(d2, k=3, rounds=3).to_pandas()
    force_path("shuffle")
    s = kcore(d2, k=3, rounds=3, n_buckets=8).to_pandas()
    c = c.sort_values("id").reset_index(drop=True)
    s = s.astype("int64").sort_values("id").reset_index(drop=True)
    assert c.equals(s[["id", "deg"]])
