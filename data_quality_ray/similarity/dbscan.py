"""Exact distributed DBSCAN over an embedding column.

Two primitives:

- ``eps_pairs_blocked``: EXACT all-pairs epsilon-join under cosine
  distance via a blocked cartesian product. The (id, vec) projection is
  repartitioned into B blocks that stay in the object store
  (``to_arrow_refs`` — zero driver data motion), the B(B+1)/2 block
  pairs become rows of a tiny task Dataset, and each task is ONE
  float64 matmul between two blocks. O(B²) tasks of O((n/B)²) work —
  the classic blocked similarity join. Unlike the bucketed/LSH pair
  paths (dedup.embedding, similarity.knn) recall is EXACT with no
  partitioning assumption; the quadratic cost is the price, so at
  10^12-row scale this is the ground-truth/verification primitive you
  run on a sampled or pre-bucketed slice, not the full corpus.

- ``dbscan``: Ester et al. 1996 (KDD'96) with a DETERMINISTIC label
  rule. core ⇔ |N_eps(p)| (incl. self) >= min_pts; clusters = connected
  components of the core–core eps-graph, labeled by MIN core id; a
  border point (non-core with >= 1 core neighbor) attaches to the MIN
  cluster label among its core neighbors — canonical DBSCAN leaves
  border ties scan-order-dependent, the min rule makes results
  reproducible and SQL-replayable; everything else is noise
  (cluster = -1). Reference framework analogue: the record-grouping /
  cluster analyzers of SURVEY.md §2.4 (StringsClusterAnalyzer) applied
  to embedding space — same "pairs → components → labels" shape as
  dedup/blocking.py:126, with density gating on top.

Scale routes mirror the siblings: ``output="pandas"`` (the oracle
contract) collects the pair list and labels on the driver;
``output="dataset"`` keeps pairs, degree counting, components AND the
border attachment distributed — the only driver state is the core-core
component label map (bounded by the number of CORE points in dense
regions, same bound SemDeDup's winner map carries; at corpus scale
route the final attachment through functions.joins.hash_join instead).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.gate import fits


def _ids_mat(tbl, id_col: str, vec_col: str):
    """Arrow block → (ids int64, row-normalized float64 matrix)."""
    b = tbl.to_pandas()
    ids = b[id_col].to_numpy()
    if len(b) == 0:
        return ids, np.empty((0, 0), dtype=np.float64)
    mat = np.stack(b[vec_col].to_numpy()).astype(np.float64)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    return ids, mat / np.where(norms == 0, 1, norms)


def _empty_pairs() -> pd.DataFrame:
    return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                         "id_b": pd.Series(dtype="int64"),
                         "cos": pd.Series(dtype="float64")})


def eps_pairs_blocked(ds, id_col: str, vec_col: str, eps: float,
                      n_blocks: int | None = None, output: str = "pandas"):
    """All pairs (id_a < id_b, cos) with cosine DISTANCE <= eps, i.e.
    round(cos, 6) >= round(1 - eps, 6) — the 6-dp round-then-threshold
    contract every cosine oracle in this repo uses, so engine-level
    summation order can't flip boundary pairs. Exact (no bucketing
    assumption): every block pair is compared once."""
    import ray
    import ray.data as rd

    from ..functions.broadcast import cached_get

    proj = ds.select_columns([id_col, vec_col])
    if n_blocks is not None:
        proj = proj.repartition(n_blocks)
    refs = proj.materialize().to_arrow_refs()
    nb = len(refs)
    refs_ref = ray.put(refs)
    sim_floor = round(1.0 - eps, 6)

    def block_pair(b: pd.DataFrame) -> pd.DataFrame:
        refs_ = cached_get(refs_ref)
        outs = []
        for bi, bj in zip(b["bi"].to_numpy(), b["bj"].to_numpy()):
            ids_a, mat_a = _ids_mat(ray.get(refs_[bi]), id_col, vec_col)
            if bi == bj:
                if len(ids_a) < 2:
                    continue
                sims = np.round(mat_a @ mat_a.T, 6)
                iu = np.triu_indices(len(ids_a), k=1)
                mask = sims[iu] >= sim_floor
                ia, ib = ids_a[iu[0][mask]], ids_a[iu[1][mask]]
                cs = sims[iu][mask]
            else:
                ids_b, mat_b = _ids_mat(ray.get(refs_[bj]), id_col, vec_col)
                if len(ids_a) == 0 or len(ids_b) == 0:
                    continue
                sims = np.round(mat_a @ mat_b.T, 6)
                ii, jj = np.nonzero(sims >= sim_floor)
                ia, ib = ids_a[ii], ids_b[jj]
                cs = sims[ii, jj]
            lo, hi = np.minimum(ia, ib), np.maximum(ia, ib)
            keep = lo != hi  # same id in two blocks would be a data bug
            outs.append(pd.DataFrame({"id_a": lo[keep], "id_b": hi[keep],
                                      "cos": cs[keep]}))
        if not outs:
            return _empty_pairs()
        return pd.concat(outs, ignore_index=True)

    tasks = rd.from_items([{"bi": i, "bj": j}
                           for i in range(nb) for j in range(i, nb)])
    # batch_size=1: one block pair per task so the B(B+1)/2 matmuls
    # schedule independently across the cluster
    pair_ds = tasks.map_batches(block_pair, batch_size=1,
                                batch_format="pandas")
    if output == "dataset":
        return pair_ds
    out = pair_ds.to_pandas()
    if out.empty:
        return _empty_pairs()
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _label_frame(ids: np.ndarray, pairs: pd.DataFrame, min_pts: int,
                 id_col: str) -> pd.DataFrame:
    """Driver-side DBSCAN labeling from a collected pair list."""
    from ..dedup.minhash import components

    ends = pd.concat([pairs["id_a"], pairs["id_b"]], ignore_index=True)
    deg = ends.value_counts()
    deg_all = pd.Series(ids).map(deg).fillna(0).to_numpy(dtype=np.int64)
    is_core = deg_all + 1 >= min_pts
    core_set = pd.Index(ids[is_core])

    a_core = pairs["id_a"].isin(core_set).to_numpy()
    b_core = pairs["id_b"].isin(core_set).to_numpy()
    ce = pairs.loc[a_core & b_core, ["id_a", "id_b"]]
    if len(ce):
        lab = components(ce, "dbscan.dbscan").set_index("id")["cluster"]
    else:
        lab = pd.Series(dtype="int64")
    # isolated core points (min_pts == 1 singletons) label themselves
    core_ids = pd.Series(ids[is_core])
    core_lab = core_ids.map(lab).fillna(core_ids).astype(np.int64)
    lab_full = pd.Series(core_lab.to_numpy(), index=core_ids.to_numpy())

    # border attachment: one core end, one non-core end → min core label
    cb = pairs.loc[a_core & ~b_core, ["id_b", "id_a"]]
    cb.columns = ["bid", "cid"]
    bc = pairs.loc[b_core & ~a_core, ["id_a", "id_b"]]
    bc.columns = ["bid", "cid"]
    att = pd.concat([cb, bc], ignore_index=True)
    if len(att):
        att["cluster"] = att["cid"].map(lab_full).to_numpy()
        border_lab = att.groupby("bid")["cluster"].min()
    else:
        border_lab = pd.Series(dtype="int64")

    ser = pd.Series(ids)
    cluster = ser.map(lab_full)
    border_mask = cluster.isna() & ser.isin(border_lab.index)
    cluster = cluster.fillna(ser.map(border_lab)).fillna(-1).astype(np.int64)
    role = np.where(is_core, "core",
                    np.where(border_mask.to_numpy(), "border", "noise"))
    return (pd.DataFrame({id_col: ids, "role": role, "cluster": cluster})
            .sort_values(id_col).reset_index(drop=True))


def dbscan(ds, id_col: str, vec_col: str, eps: float = 0.65,
           min_pts: int = 4, n_blocks: int | None = None,
           output: str = "pandas"):
    """→ (id, role ∈ core/border/noise, cluster) for every row; noise
    rows carry cluster = -1. ``output="dataset"`` keeps the pair set, the
    degree count, the components AND the border attachment distributed —
    see module docstring for the one driver-bounded structure left.
    ``output="pandas"`` labels on the driver when the eps-pairs pass the
    ``collect_rows`` gate, else takes the distributed route and collects
    only its labels (one row per input row)."""
    pair_ds = eps_pairs_blocked(ds, id_col, vec_col, eps, n_blocks=n_blocks,
                                output="dataset").materialize()
    if output == "dataset":
        return _dbscan_dataset(ds, id_col, min_pts, pair_ds)
    if not fits("dbscan.dbscan.pairs", pair_ds.count(), "collect_rows"):
        out = _dbscan_dataset(ds, id_col, min_pts, pair_ds).to_pandas()
        out["cluster"] = out["cluster"].astype("int64")
        return out.sort_values(id_col).reset_index(drop=True)
    pairs = pair_ds.to_pandas()
    pairs = (_empty_pairs() if pairs.empty
             else pairs.sort_values(["id_a", "id_b"]).reset_index(drop=True))
    ids = ds.select_columns([id_col]).to_pandas()[id_col].to_numpy()
    return _label_frame(ids, pairs, min_pts, id_col)


def _dbscan_dataset(ds, id_col: str, min_pts: int, pair_ds):
    """Distributed route: pairs stay a Dataset; degrees ride the
    hash-bucketed grouped aggregate; components run via
    distributed_components(as_dataset=True); the core-core label map
    (core points in dense regions only) is collected once as sorted
    arrays and broadcast — the SemDeDup winner-map pattern — then ONE
    searchsorted pass labels the full corpus."""
    import ray

    from ..dedup.minhash import distributed_components
    from ..functions.broadcast import cached_get
    from ..profiling.groupagg import grouped_aggregate

    if min_pts < 2:
        # min_pts=1 makes every row a core regardless of pairs; the
        # distributed route only sees pair-connected ids, so it cannot
        # label isolated singleton cores — that degenerate setting is
        # "label every row with itself", not a clustering job
        raise ValueError("output='dataset' requires min_pts >= 2")

    # pair_ds is materialized: consumed 3× below — pay the matmuls once

    def ends(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "id": np.concatenate([b["id_a"].to_numpy(), b["id_b"].to_numpy()])})

    deg = grouped_aggregate(pair_ds.map_batches(ends, batch_format="pandas"),
                            ["id"], {"deg": ("id", "count")}, final="auto")
    if not isinstance(deg, pd.DataFrame):  # shuffle path: prune to core
        deg = deg.map_batches(                 # ids BEFORE collecting
            lambda b: b.loc[b["deg"].to_numpy() + 1 >= min_pts, ["id", "deg"]],
            batch_format="pandas").to_pandas()
    core_ids = np.sort(deg.loc[deg["deg"].to_numpy() + 1 >= min_pts,
                               "id"].to_numpy()) if len(deg) else \
        np.empty(0, dtype=np.int64)
    # min_pts <= 1 would make EVERY row core with no pair evidence; the
    # distributed route labels only pair-connected rows, so singleton
    # cores fall out of the searchsorted miss → own id, handled below
    core_ref = ray.put(core_ids)

    from ..dedup.minhash import isin_sorted

    def core_core(b: pd.DataFrame) -> pd.DataFrame:
        cs = cached_get(core_ref)
        m = isin_sorted(cs, b["id_a"].to_numpy()) & \
            isin_sorted(cs, b["id_b"].to_numpy())
        return b.loc[m, ["id_a", "id_b"]]

    comp = distributed_components(
        pair_ds.map_batches(core_core, batch_format="pandas"), as_dataset=True)
    parts = [b for b in comp.iter_batches(batch_size=65536,
                                          batch_format="pandas") if len(b)]
    if parts:
        cdf = pd.concat(parts, ignore_index=True).sort_values("id")
        lab_ids, lab_lbl = cdf["id"].to_numpy(), cdf["cluster"].to_numpy()
    else:
        lab_ids = lab_lbl = np.empty(0, dtype=np.int64)
    lab_ref = ray.put((lab_ids, lab_lbl))

    def attach(b: pd.DataFrame) -> pd.DataFrame:
        """Border candidates: (border id, core neighbor's label) partial
        min per batch; final min rides one grouped aggregate."""
        cs = cached_get(core_ref)
        li, ll = cached_get(lab_ref)
        ia, ib = b["id_a"].to_numpy(), b["id_b"].to_numpy()
        ac, bc = isin_sorted(cs, ia), isin_sorted(cs, ib)

        def lab_of(v):
            if len(li) == 0:
                return v.copy()
            pos = np.clip(np.searchsorted(li, v), 0, max(len(li) - 1, 0))
            hit = li[pos] == v
            return np.where(hit, ll[pos], v)

        bid = np.concatenate([ib[ac & ~bc], ia[bc & ~ac]])
        cid = np.concatenate([ia[ac & ~bc], ib[bc & ~ac]])
        return pd.DataFrame({"id": bid, "cluster": lab_of(cid)})

    border = grouped_aggregate(
        pair_ds.map_batches(attach, batch_format="pandas"),
        ["id"], {"cluster": ("cluster", "min")}, final="auto")
    if not isinstance(border, pd.DataFrame):
        border = border.to_pandas()  # bounded by the border-point count
    if len(border):
        bdf = border.sort_values("id")
        b_ids, b_lbl = bdf["id"].to_numpy(), bdf["cluster"].to_numpy()
    else:
        b_ids = b_lbl = np.empty(0, dtype=np.int64)
    b_ref = ray.put((b_ids, b_lbl))

    def label_batch(b: pd.DataFrame) -> pd.DataFrame:
        cs = cached_get(core_ref)
        li, ll = cached_get(lab_ref)
        bi, bl = cached_get(b_ref)
        v = b[id_col].to_numpy()
        is_core = isin_sorted(cs, v)
        cluster = np.full(len(v), -1, dtype=np.int64)
        if len(li):
            pos = np.clip(np.searchsorted(li, v), 0, len(li) - 1)
            hit = (li[pos] == v) & is_core
            cluster[hit] = ll[pos][hit]
        cluster[is_core & (cluster == -1)] = v[is_core & (cluster == -1)]
        is_border = np.zeros(len(v), dtype=bool)
        if len(bi):
            pos = np.clip(np.searchsorted(bi, v), 0, len(bi) - 1)
            hitb = (bi[pos] == v) & ~is_core
            cluster[hitb] = bl[pos][hitb]
            is_border = hitb
        role = np.where(is_core, "core", np.where(is_border, "border",
                                                  "noise"))
        return pd.DataFrame({id_col: v, "role": role, "cluster": cluster})

    return ds.select_columns([id_col]).map_batches(label_batch,
                                                   batch_format="pandas")
