"""Iterative graph ranking over an edge Dataset — PageRank with the
quantized-state trick (ranks re-rounded every round, so float iteration
is engine-stable and a SQL oracle can replay every round with unrolled
CTEs, exactly like similarity/kmeans).

Scale shape: edges stay a Dataset throughout; each round is one
streaming pass computing per-edge contributions ``r[src]·w/outdeg[src]``
against the BROADCAST rank vector, folded to per-dst sums by the
grouped-aggregate partial machinery. Driver state = the rank vector
(one float per node). Node spaces too large for a broadcast would swap
the vector for a keyed Dataset and one hash-bucketed join per round —
the components-propagation shape — documented, not needed while nodes ≪
edges (the usual web-graph regime).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..rules.heuristics import round_half_away
from .exchange import bucket_exchange
from .gate import fits

RANK_ROUND = 9  # per-round quantization; final outputs re-round to 6


def pagerank(edges_ds, damping: float = 0.85, rounds: int = 5):
    """PageRank over a weighted DIRECTED edge Dataset (src, dst, w) —
    symmetrize upstream for undirected graphs. Every node must have out
    edges (true after symmetrization); the dangling-mass term is
    therefore omitted. → DataFrame (node, rank) with rank quantized to
    RANK_ROUND decimals."""
    import ray

    from ..functions.broadcast import cached_get
    from ..profiling.groupagg import grouped_aggregate

    # consumed once per round: materialize with a bounded block count so
    # per-round task launches stay fixed as upstream block counts grow
    # (neutral at sf0.1 where rounds cost 0.5-1 s; the bound matters when
    # the upstream exchange emits hundreds of small blocks)
    edges_ds = edges_ds.repartition(32).materialize()

    od = grouped_aggregate(edges_ds, ["src"], {"od": ("w", "sum")},
                           final="driver")
    nodes = np.sort(od["src"].to_numpy())
    odv = od.set_index("src")["od"].reindex(nodes).to_numpy(dtype=np.float64)
    n = len(nodes)
    ranks = np.full(n, round_half_away(1.0 / n, RANK_ROUND))

    for _ in range(rounds):
        ref = ray.put((nodes, ranks, odv))

        def contrib(b: pd.DataFrame) -> pd.DataFrame:
            ns, rs, ods = cached_get(ref)
            pos = np.searchsorted(ns, b["src"].to_numpy())
            c = (rs[pos] * b["w"].to_numpy(dtype=np.float64)) / ods[pos]
            return pd.DataFrame({"dst": b["dst"].to_numpy(), "c": c})

        m = grouped_aggregate(edges_ds.map_batches(contrib,
                                                   batch_format="pandas"),
                              ["dst"], {"m": ("c", "sum")}, final="driver")
        mv = m.set_index("dst")["m"].reindex(nodes).fillna(0.0) \
            .to_numpy(dtype=np.float64)
        ranks = round_half_away((1.0 - damping) / n + damping * mv, RANK_ROUND)

    return pd.DataFrame({"node": nodes, "rank": ranks})


def hits(edges_ds, rounds: int = 5):
    """HITS hubs/authorities (Kleinberg, JACM 1999 — weighted variant)
    over a DIRECTED edge Dataset ``(src, dst, w)``: hub scores live on
    the src side, authority scores on the dst side (for a bipartite
    src→dst graph that is exactly the two partitions). Same
    quantized-state contract as :func:`pagerank`: each half-round
    L∞-normalizes (divide by the max) and re-rounds to RANK_ROUND
    decimals, so float iteration is engine-stable and a SQL oracle
    replays every round with unrolled CTEs.

    Scale shape: edges stay a Dataset (materialized once, consumed
    twice per round); each half-round is one streaming pass of
    per-edge contributions ``score[other end]·w`` against the BROADCAST
    score vector, folded per-node by the grouped-aggregate partials.
    Driver state = two score vectors (one float per node). All-zero
    weights leave no scale to normalize by: ValueError, not NaN scores.
    → (hubs DataFrame (node, hub), auths DataFrame (node, auth))."""
    import ray

    from ..functions.broadcast import cached_get
    from ..profiling.groupagg import grouped_aggregate

    edges_ds = edges_ds.repartition(32).materialize()

    srcs = np.sort(grouped_aggregate(edges_ds, ["src"],
                                     {"n": ("", "count")},
                                     final="driver")["src"].to_numpy())
    dsts = np.sort(grouped_aggregate(edges_ds, ["dst"],
                                     {"n": ("", "count")},
                                     final="driver")["dst"].to_numpy())
    h = np.ones(len(srcs), dtype=np.float64)
    a = np.zeros(len(dsts), dtype=np.float64)

    def _fold(key_side: str, keys: np.ndarray, vec: np.ndarray,
              other: str) -> np.ndarray:
        # one pass: contribution score[key_side]·w folded per `other`
        ref = ray.put((keys, vec))

        def contrib(b: pd.DataFrame) -> pd.DataFrame:
            ks, vs = cached_get(ref)
            pos = np.searchsorted(ks, b[key_side].to_numpy())
            return pd.DataFrame({
                "n": b[other].to_numpy(),
                "c": vs[pos] * b["w"].to_numpy(dtype=np.float64)})

        m = grouped_aggregate(edges_ds.map_batches(contrib,
                                                   batch_format="pandas"),
                              ["n"], {"m": ("c", "sum")}, final="driver")
        return m.set_index("n")["m"] \
            .reindex(dsts if other == "dst" else srcs).fillna(0.0) \
            .to_numpy(dtype=np.float64)

    def _normalize(v: np.ndarray, side: str) -> np.ndarray:
        if v.max(initial=0.0) <= 0:
            raise ValueError(f"hits: every {side} score is 0 — the edge weights "
                             "must include a positive one")
        return round_half_away(v / v.max(), RANK_ROUND)

    for _ in range(rounds):
        a = _normalize(_fold("src", srcs, h, "dst"), "authority")
        h = _normalize(_fold("dst", dsts, a, "src"), "hub")

    return (pd.DataFrame({"node": srcs, "hub": h}),
            pd.DataFrame({"node": dsts, "auth": a}))


def _collect_small_graph(edges_ds, site: str):
    """Shared gate: the collected (u, v) frame when the MEASURED edge
    count fits the ``graph_edges`` gate, else None. The callers then
    check their wedge workload (Σ c·(c−1)/2 over the relevant degree)
    against ``graph_wedges`` before running locally."""
    if not fits(site, edges_ds.count(), "graph_edges"):
        return None
    return edges_ds.to_pandas()


def _wedges_fit(site: str, counts: np.ndarray) -> bool:
    c = counts.astype(np.float64)
    return fits(site, int((c * (c - 1) / 2).sum()), "graph_wedges")


def _triangles_local(e: pd.DataFrame) -> pd.DataFrame:
    """Driver twin of the distributed path: same degree orientation,
    wedge enumeration and closing semi-join, vectorized pandas."""
    if e.empty:
        return pd.DataFrame({"id": pd.Series(dtype="int64"),
                             "tri": pd.Series(dtype="int64")})
    u = e["u"].to_numpy(np.int64)
    v = e["v"].to_numpy(np.int64)
    deg = pd.Series(np.concatenate([u, v])).value_counts()
    du = deg.reindex(u).to_numpy(np.int64)
    dv = deg.reindex(v).to_numpy(np.int64)
    swap = (dv < du) | ((dv == du) & (v < u))
    g = pd.DataFrame({"src": np.where(swap, v, u),
                      "dst": np.where(swap, u, v)})
    m = g.merge(g, on="src")
    m = m[m["dst_x"] < m["dst_y"]]
    closed = m.merge(pd.DataFrame({"dst_x": u, "dst_y": v}),
                     on=["dst_x", "dst_y"])
    t = pd.Series(np.concatenate([closed["src"].to_numpy(),
                                  closed["dst_x"].to_numpy(),
                                  closed["dst_y"].to_numpy()])).value_counts()
    return (pd.DataFrame({"id": t.index.to_numpy(np.int64),
                          "tri": t.to_numpy(np.int64)})
            .sort_values("id").reset_index(drop=True))


def triangle_counts(edges_ds, n_buckets: int = 64):
    """Exact triangle counting over an UNDIRECTED distinct edge Dataset
    ``(u, v)`` with ``u < v`` (int64 node ids). Degree-ordered
    node-iterator (Schank & Wagner 2005; Latapy 2008): every edge is
    oriented from its (degree, id)-smaller endpoint to the larger, which
    bounds each node's out-degree by O(sqrt(m)); wedges (two
    out-neighbors of one pivot) are generated by a vectorized self-merge
    inside hash buckets — never a Python callback per pivot — and a
    wedge closes into a triangle iff its third pair is an edge, checked
    with ONE keys-only semi-join exchange (``hash_join(how="semi")``).
    Each triangle is produced at exactly one pivot (its (deg, id)-minimum
    corner), so per-node counts are a grouped aggregate over the three
    exploded corners. → Dataset (id, tri) for nodes in >= 1 triangle.

    Scale shape: degrees, orientation, wedges, the closing check and the
    corner fold are all bucketed exchanges; no driver state at all.
    Engine surface beyond the reference (the reference has no graph
    operators); the published algorithm bound makes the wedge exchange
    O(m^1.5) worst-case instead of the naive sum of deg².
    """
    from ..profiling.groupagg import grouped_aggregate
    from .joins import hash_join

    edges_ds = edges_ds.materialize()  # consumed by degree count + joins
    e = _collect_small_graph(edges_ds, "graph.triangle_counts")
    if e is not None:
        # oriented out-degree bounds the local wedge merge; spill back to
        # the distributed path if a hub graph would blow the driver
        if len(e):
            u, v = e["u"].to_numpy(np.int64), e["v"].to_numpy(np.int64)
            deg = pd.Series(np.concatenate([u, v])).value_counts()
            du, dv = deg.reindex(u).to_numpy(), deg.reindex(v).to_numpy()
            swap = (dv < du) | ((dv == du) & (v < u))
            out_deg = pd.Series(np.where(swap, v, u)).value_counts()
            ok = _wedges_fit("graph.triangle_counts.wedges", out_deg.to_numpy())
        else:
            ok = True
        if ok:
            import ray.data as rd

            return rd.from_pandas(_triangles_local(e))

    def ends(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"id": np.concatenate([b["u"].to_numpy(),
                                                   b["v"].to_numpy()])})

    deg = grouped_aggregate(edges_ds.map_batches(ends, batch_format="pandas"),
                            ["id"], {"d": ("id", "count")}, final="shuffle")
    deg_u = deg.map_batches(
        lambda b: b.rename(columns={"id": "u", "d": "du"}),
        batch_format="pandas")
    deg_v = deg.map_batches(
        lambda b: b.rename(columns={"id": "v", "d": "dv"}),
        batch_format="pandas")
    with_du = hash_join(edges_ds, deg_u, on="u", right_cols=["du"],
                        n_buckets=n_buckets)
    with_dd = hash_join(with_du, deg_v, on="v", right_cols=["dv"],
                        n_buckets=n_buckets)

    def orient(b: pd.DataFrame) -> pd.DataFrame:
        u, v = b["u"].to_numpy(), b["v"].to_numpy()
        du = b["du"].to_numpy()
        dv = b["dv"].to_numpy()
        swap = (dv < du) | ((dv == du) & (v < u))
        return pd.DataFrame({"src": np.where(swap, v, u),
                             "dst": np.where(swap, u, v)})

    oriented = with_dd.map_batches(orient, batch_format="pandas")

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized per-pivot pair enumeration: self-merge on the pivot,
        # keep one canonical (id-ordered) copy of each out-neighbor pair
        m = g[["src", "dst"]].merge(g[["src", "dst"]], on="src")
        m = m[m["dst_x"] < m["dst_y"]]
        return pd.DataFrame({"pivot": m["src"].to_numpy(),
                             "pa": m["dst_x"].to_numpy(),
                             "pb": m["dst_y"].to_numpy()})

    wedge_ds = bucket_exchange(oriented, "src", wedges, n_buckets)
    closing = edges_ds.map_batches(
        lambda b: b.rename(columns={"u": "pa", "v": "pb"}),
        batch_format="pandas")
    # the undirected edge set is canonical id-ordered (u < v) — exactly
    # the wedge key order, so the closing check is one semi-join
    tri = hash_join(wedge_ds, closing, on=["pa", "pb"], right_cols=[],
                    how="semi", n_buckets=n_buckets)

    def corners(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"id": np.concatenate([
            b["pivot"].to_numpy(), b["pa"].to_numpy(), b["pb"].to_numpy()])})

    return grouped_aggregate(tri.map_batches(corners, batch_format="pandas"),
                             ["id"], {"tri": ("id", "count")},
                             final="shuffle")


def kcore(edges_ds, k: int, rounds: int = 12, n_buckets: int = 64):
    """k-core decomposition by iterated peeling: drop nodes with degree
    < k, re-count, repeat — EXACTLY ``rounds`` rounds on both engines
    (rounds after the fixpoint are no-ops, so a fixed round count makes
    the data-dependent iteration SQL-replayable with unrolled CTEs, the
    kmeans contract). Returns (id, deg) for nodes surviving all rounds,
    deg = degree inside the final core.

    Distributed route: per round one degree fold (hash-bucketed grouped
    count) + one keys-only semi-join filter of the edge set against the
    surviving nodes — no driver state. Small graphs take the measured
    collect gate (same bound as triangle_counts) and peel locally."""
    import ray.data as rd

    from ..profiling.groupagg import grouped_aggregate
    from .joins import hash_join

    edges_ds = edges_ds.materialize()
    e = _collect_small_graph(edges_ds, "graph.kcore")
    if e is not None:
        for _ in range(rounds):
            if e.empty:
                break
            ids = np.concatenate([e["u"].to_numpy(np.int64),
                                  e["v"].to_numpy(np.int64)])
            deg = pd.Series(ids).value_counts()
            keep = set(deg[deg >= k].index)
            if len(keep) == deg.size:
                break
            e = e[e["u"].isin(keep) & e["v"].isin(keep)]
        if e.empty:
            return rd.from_pandas(pd.DataFrame(
                {"id": pd.Series(dtype="int64"),
                 "deg": pd.Series(dtype="int64")}))
        ids = np.concatenate([e["u"].to_numpy(np.int64),
                              e["v"].to_numpy(np.int64)])
        deg = pd.Series(ids).value_counts()
        out = (pd.DataFrame({"id": deg.index.to_numpy(np.int64),
                             "deg": deg.to_numpy(np.int64)})
               .sort_values("id").reset_index(drop=True))
        return rd.from_pandas(out)

    cur = edges_ds

    def ends(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"id": np.concatenate([b["u"].to_numpy(),
                                                   b["v"].to_numpy()])})

    for _ in range(rounds):
        deg = grouped_aggregate(cur.map_batches(ends, batch_format="pandas"),
                                ["id"], {"d": ("id", "count")},
                                final="shuffle")
        keep = deg.map_batches(lambda b: b[b["d"] >= k][["id"]],
                               batch_format="pandas")
        ku = keep.map_batches(lambda b: b.rename(columns={"id": "u"}),
                              batch_format="pandas")
        kv = keep.map_batches(lambda b: b.rename(columns={"id": "v"}),
                              batch_format="pandas")
        cur = hash_join(hash_join(cur, ku, on="u", right_cols=[],
                                  how="semi", n_buckets=n_buckets),
                        kv, on="v", right_cols=[], how="semi",
                        n_buckets=n_buckets).materialize()
    final = grouped_aggregate(cur.map_batches(ends, batch_format="pandas"),
                              ["id"], {"deg": ("id", "count")},
                              final="shuffle")
    return final


def _link_prediction_local(e: pd.DataFrame) -> pd.DataFrame:
    """Driver twin of the distributed path: symmetrize → per-center
    neighbor pairs → quantized AA fold → anti-join vs the edge set."""
    cols = ["id_a", "id_b", "cn", "aa_ppm"]
    if e.empty:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    u = e["u"].to_numpy(np.int64)
    v = e["v"].to_numpy(np.int64)
    ctr = np.concatenate([u, v])
    nbr = np.concatenate([v, u])
    deg = pd.Series(ctr).value_counts()
    f = pd.DataFrame({"ctr": ctr, "nbr": nbr,
                      "dc": deg.reindex(ctr).to_numpy(np.int64)})
    m = f.merge(f[["ctr", "nbr"]], on="ctr")
    m = m[m["nbr_x"] < m["nbr_y"]]
    term = np.round(1e6 / np.log(m["dc"].to_numpy(np.float64))).astype(np.int64)
    scored = (pd.DataFrame({"id_a": m["nbr_x"].to_numpy(),
                            "id_b": m["nbr_y"].to_numpy(), "term": term})
              .groupby(["id_a", "id_b"], sort=False)["term"]
              .agg(cn="count", aa_ppm="sum").reset_index())
    anti = scored.merge(pd.DataFrame({"id_a": u, "id_b": v}),
                        on=["id_a", "id_b"], how="left", indicator=True)
    out = anti[anti["_merge"] == "left_only"][cols]
    return out.astype("int64").sort_values(["id_a", "id_b"]) \
        .reset_index(drop=True)


def link_prediction(edges_ds, n_buckets: int = 64):
    """Common-neighbor link prediction with Adamic–Adar weighting over an
    UNDIRECTED distinct edge Dataset (u, v), u < v: for every NON-edge
    pair (a, b) sharing >= 1 neighbor, cn = |N(a) ∩ N(b)| and
    aa_ppm = Σ_{u ∈ N(a)∩N(b)} round(10^6 / ln(deg u)) — the Adamic–Adar
    score with each term QUANTIZED to an integer so the cross-engine sum
    is order-independent and exact (the repo's quantized-state trick
    applied to a float fold). → Dataset (id_a, id_b, cn, aa_ppm).

    Shape: symmetrize → attach center degrees (one hash_join) → per-center
    neighbor-pair enumeration (vectorized self-merge inside hash buckets)
    → one (a, b)-keyed grouped fold → anti-join against the edge set
    (keys-only). Unlike triangle counting, common-neighbor enumeration
    needs EVERY center of a wedge, so the exchange is Σ deg(u)² — on a
    skewed graph cap hub degrees upstream (drop or sample centers above a
    bound) exactly as production link-prediction pipelines do; the
    co-occurrence-thresholded graphs this repo builds keep it bounded by
    construction."""
    from ..profiling.groupagg import grouped_aggregate
    from .joins import hash_join

    edges_ds = edges_ds.materialize()
    e = _collect_small_graph(edges_ds, "graph.link_prediction")
    if e is not None:
        if len(e):
            cd = pd.Series(np.concatenate([e["u"].to_numpy(np.int64),
                                           e["v"].to_numpy(np.int64)])) \
                .value_counts()
            ok = _wedges_fit("graph.link_prediction.wedges", cd.to_numpy())
        else:
            ok = True
        if ok:
            import ray.data as rd

            return rd.from_pandas(_link_prediction_local(e))

    def ends(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"id": np.concatenate([b["u"].to_numpy(),
                                                   b["v"].to_numpy()])})

    deg = grouped_aggregate(edges_ds.map_batches(ends, batch_format="pandas"),
                            ["id"], {"d": ("id", "count")}, final="shuffle")

    def sym(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "ctr": np.concatenate([b["u"].to_numpy(), b["v"].to_numpy()]),
            "nbr": np.concatenate([b["v"].to_numpy(), b["u"].to_numpy()])})

    adj = hash_join(edges_ds.map_batches(sym, batch_format="pandas"),
                    deg.map_batches(
                        lambda b: b.rename(columns={"id": "ctr", "d": "dc"}),
                        batch_format="pandas"),
                    on="ctr", right_cols=["dc"], n_buckets=n_buckets)

    def wedge_terms(g: pd.DataFrame) -> pd.DataFrame:
        # a wedge center has deg >= 2, so ln(dc) > 0 always
        f = g[["ctr", "nbr", "dc"]]
        m = f.merge(f[["ctr", "nbr"]], on="ctr")
        m = m[m["nbr_x"] < m["nbr_y"]]
        term = np.round(1e6 / np.log(m["dc"].to_numpy(dtype=np.float64))
                        ).astype(np.int64)
        return pd.DataFrame({"id_a": m["nbr_x"].to_numpy(),
                             "id_b": m["nbr_y"].to_numpy(), "term": term})

    terms = bucket_exchange(adj, "ctr", wedge_terms, n_buckets)
    scored = grouped_aggregate(terms, ["id_a", "id_b"],
                               {"cn": ("term", "count"),
                                "aa_ppm": ("term", "sum")}, final="shuffle")
    closing = edges_ds.map_batches(
        lambda b: b.rename(columns={"u": "id_a", "v": "id_b"}),
        batch_format="pandas")
    return hash_join(scored, closing, on=["id_a", "id_b"], right_cols=[],
                     how="anti", n_buckets=n_buckets)
