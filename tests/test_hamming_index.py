"""Cross-run Hamming index (state/hamming_index.py): the screen must be
EXACT vs a brute-force all-pairs popcount (pigeonhole completeness at
n_blocks > radius), with the inherited generation-store guarantees."""

import os

import numpy as np
import pandas as pd
import pytest

from data_quality_ray.state.hamming_index import HammingIndex, _block_views


def _flip_bits(sig, positions):
    out = np.int64(sig)
    for p in positions:
        out = np.int64(out ^ np.int64(np.uint64(1) << np.uint64(p)))
    return out


def _ds(df, blocks=3):
    import ray.data as rd

    return rd.from_pandas(df).repartition(blocks)


def _popcount64(x):
    return bin(int(np.uint64(np.int64(x))) & 0xFFFFFFFFFFFFFFFF).count("1")


def test_block_views_roundtrip():
    rng = np.random.RandomState(0)
    sigs = rng.randint(-(2**63), 2**63 - 1, size=50, dtype=np.int64)
    v = _block_views(sigs, 4)
    rebuilt = (v[:, 0] | (v[:, 1] << np.uint64(16))
               | (v[:, 2] << np.uint64(32)) | (v[:, 3] << np.uint64(48)))
    np.testing.assert_array_equal(rebuilt.view(np.int64), sigs)


def test_screen_matches_bruteforce(ray_session, tmp_path):
    rng = np.random.RandomState(7)
    hist = rng.randint(-(2**63), 2**63 - 1, size=300, dtype=np.int64)
    # today: exact reposts, 1/2/3-bit edits of history, random fresh sigs
    today = np.concatenate([
        hist[:20],
        [_flip_bits(s, rng.choice(64, k, replace=False))
         for k, s in zip([1] * 20 + [2] * 20 + [3] * 20, hist[20:100])],
        rng.randint(-(2**63), 2**63 - 1, size=40, dtype=np.int64),
    ]).astype(np.int64)
    idx = HammingIndex(str(tmp_path / "idx"), radius=2, n_blocks=4)
    idx.commit(_ds(pd.DataFrame({"image_id": np.arange(300), "phash": hist})),
               sig_col="phash")
    out = (HammingIndex(str(tmp_path / "idx"), radius=2, n_blocks=4)
           .screen(_ds(pd.DataFrame({"image_id": np.arange(120), "phash": today})),
                   sig_col="phash")
           .to_pandas().sort_values("image_id").reset_index(drop=True))
    # independent brute force: min hamming vs EVERY historical sig
    uh = np.unique(hist)
    expect = np.array([min(_popcount64(t ^ h) for h in uh) for t in today])
    found = expect <= 2
    np.testing.assert_array_equal(out["known_neardup"].to_numpy(), found)
    np.testing.assert_array_equal(out["min_hamming"].to_numpy(),
                                  np.where(found, expect, -1))
    # sanity on the planted structure: reposts at 0, 3-bit edits may escape
    assert (out["min_hamming"].to_numpy()[:20] == 0).all()


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_table_filter_matches_screen(ray_session, tmp_path, radius):
    """The Arrow filter keeps exactly the rows the pandas ``screen`` tags
    ``known_neardup == False``, for signatures at radius − 1, radius and
    radius + 1 bits from the history, fresh ones, an empty batch and an
    empty history; every column passes through."""
    import pyarrow as pa

    rng = np.random.RandomState(radius)
    hist = rng.randint(-(2**63), 2**63 - 1, size=200, dtype=np.int64)
    today = np.array([_flip_bits(s, rng.choice(64, k, replace=False))
                      for k, s in zip([radius - 1] * 30 + [radius] * 30 + [radius + 1] * 30,
                                      hist[:90])]
                     + list(rng.randint(-(2**63), 2**63 - 1, size=30, dtype=np.int64)),
                     dtype=np.int64)
    t = pa.table({"image_id": np.arange(len(today)), "phash": today,
                  "payload": [b"x" * i for i in range(len(today))]})
    idx = HammingIndex(str(tmp_path / "idx"), radius=radius, n_blocks=4)
    idx.commit(_ds(pd.DataFrame({"image_id": np.arange(len(hist)), "phash": hist})),
               sig_col="phash")
    for index in (idx, HammingIndex(str(tmp_path / "empty"), radius=radius)):
        kept = index.table_filter("phash")(t)
        tagged = index.screen(_ds(t.to_pandas(), blocks=2), sig_col="phash").to_pandas()
        assert kept.schema == t.schema
        assert sorted(kept["image_id"].to_pylist()) == sorted(
            tagged.loc[~tagged["known_neardup"].astype(bool), "image_id"])
        assert kept.equals(t.filter(pa.array(np.isin(t["image_id"], kept["image_id"]))))
        # an empty batch (Ray Data drops the columns of empty blocks, so
        # the pandas screen cannot be asked about one)
        assert index.table_filter("phash")(t.slice(0, 0)).equals(t.slice(0, 0))
    ids = idx.table_filter("phash")(t)["image_id"].to_numpy()
    assert not np.isin(np.arange(60), ids).any()  # within the radius: dropped
    assert np.isin(np.arange(60, 120), ids).all()  # one bit past it, or fresh: kept


def test_filter_new_and_idempotent_commit(ray_session, tmp_path):
    rng = np.random.RandomState(3)
    sigs = rng.randint(-(2**63), 2**63 - 1, size=100, dtype=np.int64)
    d = str(tmp_path / "idx")
    run = _ds(pd.DataFrame({"image_id": np.arange(100), "phash": sigs}))
    idx = HammingIndex(d)
    idx.commit(run, sig_col="phash")
    k1 = idx.n_keys
    assert len(HammingIndex(d).filter_new(run, sig_col="phash").to_pandas()) == 0
    HammingIndex(d).commit(run, sig_col="phash")
    assert HammingIndex(d).n_keys == k1
    from data_quality_ray.state.hamming_index import compact

    compact(d)
    assert len([g for g in os.listdir(d) if g.startswith("gen-")]) == 1
    assert HammingIndex(d).n_keys == k1


def test_flagship_with_neardup_index(ray_session, tmp_path):
    """Two flagship runs sharing a HAMMING index: run 2's survivors are
    farther than the radius from every phash run 1 committed (not merely
    distinct — the exact-index guarantee strengthened to near-dup)."""
    import pyarrow.parquet as pq

    from data_quality_ray.pipelines.north import run_quality_pipeline
    from data_quality_ray.sources.fixtures import write_f1
    from data_quality_ray.state.hamming_index import load_keys

    idx_dir = str(tmp_path / "hidx")
    d1, d2 = str(tmp_path / "in1"), str(tmp_path / "in2")
    write_f1(d1, n_rows=400, seed=42, rows_per_file=256, with_labels=False)
    write_f1(d2, n_rows=400, seed=43, rows_per_file=256, with_labels=False)
    # splice a run-1 shard with every phash perturbed by ONE bit → pure
    # near-dups of run 1 that an exact index would MISS
    import shutil

    t = pq.read_table(os.path.join(d1, "part-00000.parquet"))
    ph = t["phash"].to_numpy()
    t = t.drop_columns(["phash"]).append_column(
        "phash", __import__("pyarrow").array(
            (ph.view(np.uint64) ^ np.uint64(1)).view(np.int64), type=__import__("pyarrow").int64()))
    pq.write_table(t, os.path.join(d2, "part-00099.parquet"))

    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    run_quality_pipeline(d1, out1, batch_size=256,
                         neardup_index_dir=idx_dir)
    keys1 = load_keys(idx_dir)
    assert len(keys1) > 0

    run_quality_pipeline(d2, out2, batch_size=256,
                         neardup_index_dir=idx_dir)
    out2_ph = pq.read_table(os.path.join(out2, "final"),
                            columns=["phash"])["phash"].to_numpy()
    assert len(out2_ph) > 0
    xored = (out2_ph.view(np.uint64)[:, None]
             ^ keys1.view(np.uint64)[None, :])          # (n2, n1)
    bits = np.unpackbits(
        np.ascontiguousarray(xored).view(np.uint8).reshape(
            len(out2_ph), len(keys1), 8), axis=-1)
    popc = bits.sum(axis=-1)                            # per-pair popcount
    assert popc.min() > 2


def test_invalid_operating_points():
    with pytest.raises(ValueError, match="pigeonhole"):
        HammingIndex("/tmp/never", radius=4, n_blocks=4)
    with pytest.raises(ValueError, match="divide"):
        HammingIndex("/tmp/never", radius=2, n_blocks=5)
