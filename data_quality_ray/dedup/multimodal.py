"""Multimodal union dedup: collapse images that match EITHER visually
(64-bit signature Hamming ≤ threshold) or textually (identical caption).

The LAION-style near-dup sweep: visual edges come from the generic
block-permutation Hamming machinery (``dedup.simhash.hamming_candidates``,
pigeonhole full recall), caption edges from one hash-bucketed exchange
emitting STAR edges (per-key min id → every other id — same connectivity
as the SQL clique, g-1 edges instead of g(g-1)/2), and the union of both
edge sets feeds the shared connected-components machinery. Every stage is
an existing parity-tested scale path; nothing new touches the driver
beyond the gated components/label steps.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.exchange import bucket_exchange
from ..functions.gate import fits


def exact_key_edges(ds, id_col: str, key_col: str, n_buckets: int = 64):
    """Star edges (min id of key group → other ids) for rows sharing an
    identical non-null key. One hash-bucketed exchange; inside each
    bucket a vectorized pandas transform — never a callback per tiny
    group. → Dataset of (id_a, id_b)."""

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        return b[[id_col, key_col]].dropna(subset=[key_col])

    def edges_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        win = g.groupby(key_col, sort=False)[id_col].transform("min")
        m = (g[id_col] != win).to_numpy()
        return pd.DataFrame({"id_a": win.to_numpy()[m],
                             "id_b": g[id_col].to_numpy()[m]})

    return bucket_exchange(ds.map_batches(keyed, batch_format="pandas"),
                           key_col, edges_in_bucket, n_buckets)


def multimodal_dedup(ds, id_col: str, sig_col: str, text_col: str,
                     hamming_threshold: int = 2, n_blocks: int = 4,
                     output: str = "pandas"):
    """Full multimodal near-dup pass → (id, cluster, keep) for EVERY row:
    ``cluster`` = min id of the connected component over the union of
    visual (Hamming ≤ threshold) and textual (equal caption) edges,
    ``keep`` = the row is its component's representative (or untouched).

    Components run under the shared ``label_map_rows`` gate (driver
    union-find below, distributed min-label propagation above). The
    final label assignment is gated too: the comp map broadcasts as
    sorted arrays within ``label_map_rows`` and rides one
    ``hash_join`` exchange above it — both routes are a mechanism, not a
    documented assumption. ``output="dataset"`` returns the streaming
    Dataset; ``"pandas"`` collects (query/test contract)."""
    import ray

    from ..functions.broadcast import cached_get
    from .minhash import distributed_components, union_find_components
    from .simhash import hamming_candidates

    visual = hamming_candidates(
        ds.select_columns([id_col, sig_col]), id_col, sig_col,
        hamming_threshold=hamming_threshold, n_blocks=n_blocks,
        output="dataset",
    ).map_batches(lambda b: b[["id_a", "id_b"]], batch_format="pandas")
    textual = exact_key_edges(ds.select_columns([id_col, text_col]),
                              id_col, text_col)
    pairs = visual.union(textual).materialize()

    n_pairs = pairs.count()
    if n_pairs == 0:
        comp_ids = np.array([], dtype=object)
        comp_lbl = np.array([], dtype=object)
    elif fits("multimodal.multimodal_dedup", n_pairs, "label_map_rows"):
        comp = union_find_components(pairs.to_pandas())
        comp_ids = comp["id"].to_numpy()
        comp_lbl = comp["cluster"].to_numpy()
    else:
        comp_ds = distributed_components(pairs, as_dataset=True,
                                         id_name=id_col)
        if not fits("multimodal.multimodal_dedup.labels", comp_ds.count(),
                    "label_map_rows"):
            from ..functions.joins import hash_join

            joined = hash_join(ds.select_columns([id_col]), comp_ds,
                               on=id_col, right_cols=["cluster"],
                               how="left")

            def finish(b: pd.DataFrame) -> pd.DataFrame:
                b = b.copy()
                b["cluster"] = b["cluster"].fillna(b[id_col])
                b["keep"] = b["cluster"] == b[id_col]
                return b

            out = joined.map_batches(finish, batch_format="pandas")
            return out if output == "dataset" else (
                out.to_pandas().sort_values(id_col).reset_index(drop=True))
        comp = comp_ds.to_pandas()
        comp_ids = comp[id_col].to_numpy()
        comp_lbl = comp["cluster"].to_numpy()

    order = np.argsort(comp_ids, kind="mergesort")
    ref = ray.put((comp_ids[order], comp_lbl[order]))

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        k, lbl = cached_get(ref)
        mine = b[id_col].to_numpy()
        cluster = mine.copy()
        if len(k):
            pos = np.searchsorted(k, mine)
            ok = (pos < len(k)) & (k[np.minimum(pos, len(k) - 1)] == mine)
            cluster[ok] = lbl[pos[ok]]
        return pd.DataFrame({id_col: mine, "cluster": cluster,
                             "keep": cluster == mine})

    out = ds.select_columns([id_col]).map_batches(assign,
                                                  batch_format="pandas")
    return out if output == "dataset" else (
        out.to_pandas().sort_values(id_col).reset_index(drop=True))
