"""Cross-run incremental dedup index: crash-safe generations, idempotent
re-append, and day-over-day dedup semantics."""

import os

import numpy as np
import pandas as pd
import pytest


def _day(rng, n, overlap_keys=None, frac=0.3):
    keys = rng.randint(0, 1 << 40, size=n)
    if overlap_keys is not None and len(overlap_keys):
        take = rng.choice(overlap_keys, size=int(n * frac))
        keys[: len(take)] = take
    return pd.DataFrame({"phash": keys.astype(np.int64),
                         "image_id": [f"im{rng.randint(1<<30)}-{i}" for i in range(n)]})


def test_incremental_dedup_across_runs(ray_session, tmp_path):
    import ray.data as rd

    from data_quality_ray.dedup.exact import dedup_by_key
    from data_quality_ray.state.dedup_index import DedupIndex, load_keys

    rng = np.random.RandomState(7)
    idx_dir = str(tmp_path / "phash_index")

    # day 1: everything is new
    day1 = _day(rng, 2000)
    idx = DedupIndex(idx_dir)
    assert idx.n_keys == 0
    fresh1 = idx.filter_new(rd.from_pandas(day1).repartition(4), "phash")
    out1 = dedup_by_key(fresh1, "phash", "image_id")
    idx.commit(out1, "phash")
    n_keys_1 = len(load_keys(idx_dir))
    assert n_keys_1 == day1["phash"].nunique()

    # day 2: ~30% of keys repeat day 1 — they must be dropped entirely
    day2 = _day(rng, 1500, overlap_keys=day1["phash"].to_numpy())
    idx2 = DedupIndex(idx_dir)  # fresh process: reload committed state
    assert idx2.n_keys == n_keys_1
    fresh2 = idx2.filter_new(rd.from_pandas(day2).repartition(4), "phash").to_pandas()
    assert not set(fresh2["phash"]) & set(day1["phash"])  # no historical key survives
    expected_new = set(day2["phash"]) - set(day1["phash"])
    assert set(fresh2["phash"]) == expected_new
    idx2.commit(rd.from_pandas(fresh2), "phash")
    assert len(load_keys(idx_dir)) == n_keys_1 + len(expected_new)


def test_table_filter_matches_filter_new(ray_session, tmp_path):
    """The Arrow filter the flagship applies inside its phase-1 tasks
    keeps the same rows as ``filter_new`` over the same rows (and as a
    brute-force membership test), passes every column through, and
    handles an empty table and an empty index."""
    import pyarrow as pa
    import ray.data as rd

    from data_quality_ray.state.dedup_index import DedupIndex, append

    rng = np.random.RandomState(11)
    day1 = _day(rng, 500)
    append(str(tmp_path / "idx"), day1["phash"].to_numpy())
    day2 = _day(rng, 400, overlap_keys=day1["phash"].to_numpy(), frac=0.5)
    t = pa.Table.from_pandas(day2, preserve_index=False)
    idx = DedupIndex(str(tmp_path / "idx"))
    got = idx.table_filter("phash")(t)
    via_ds = idx.filter_new(rd.from_arrow(t).repartition(3), "phash").to_pandas()
    assert got.schema == t.schema
    assert sorted(got["image_id"].to_pylist()) == sorted(via_ds["image_id"])
    assert got.equals(t.filter(pa.array(~np.isin(day2["phash"], day1["phash"]))))
    assert 0 < got.num_rows < t.num_rows
    assert idx.table_filter("phash")(t.slice(0, 0)).num_rows == 0
    assert DedupIndex(str(tmp_path / "empty")).table_filter("phash")(t).equals(t)


def test_uncommitted_generation_is_invisible(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from data_quality_ray.state.dedup_index import append, load_keys

    idx_dir = str(tmp_path / "idx")
    append(idx_dir, np.array([1, 2, 3], dtype=np.int64))
    # simulate a crashed writer: keys file present, no _GEN marker
    os.makedirs(os.path.join(idx_dir, "gen-1"))
    pq.write_table(pa.table({"key": pa.array([99], type=pa.int64())}),
                   os.path.join(idx_dir, "gen-1", "keys-0000.parquet"))
    assert list(load_keys(idx_dir)) == [1, 2, 3]
    # the next committed generation must not reuse the crashed number
    gen = append(idx_dir, np.array([7], dtype=np.int64))
    assert gen.endswith("gen-2")
    assert list(load_keys(idx_dir)) == [1, 2, 3, 7]


def test_reappend_idempotent(tmp_path):
    from data_quality_ray.state.dedup_index import append, load_keys

    idx_dir = str(tmp_path / "idx")
    append(idx_dir, np.array([5, 6], dtype=np.int64))
    append(idx_dir, np.array([5, 6], dtype=np.int64))  # retry re-appends
    assert list(load_keys(idx_dir)) == [5, 6]  # union semantics: no dupes


def test_flagship_with_cross_run_index(ray_session, tmp_path):
    """Two flagship runs sharing a dedup index: run 2's output contains
    no phash that run 1 committed, and the index grows monotonically."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from data_quality_ray.pipelines.north import run_quality_pipeline
    from data_quality_ray.sources.fixtures import write_f1
    from data_quality_ray.state.dedup_index import load_keys

    idx_dir = str(tmp_path / "idx")
    d1, d2 = str(tmp_path / "in1"), str(tmp_path / "in2")
    # different seeds → some shared phashes are unlikely, so overlap run 2
    # with run 1's own files for a guaranteed repeat set
    write_f1(d1, n_rows=600, seed=42, rows_per_file=256, with_labels=False)
    write_f1(d2, n_rows=600, seed=43, rows_per_file=256, with_labels=False)
    # splice one of run-1's shards into run 2's input → guaranteed overlap
    import shutil

    shutil.copy(os.path.join(d1, "part-00000.parquet"),
                os.path.join(d2, "part-00099.parquet"))

    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    t1 = run_quality_pipeline(d1, out1, batch_size=256,
                              dedup_index_dir=idx_dir)
    keys_after_1 = load_keys(idx_dir)
    assert len(keys_after_1) == t1["final_rows"]

    t2 = run_quality_pipeline(d2, out2, batch_size=256,
                              dedup_index_dir=idx_dir)
    out2_ph = pq.read_table(os.path.join(out2, "final"), columns=["phash"])["phash"].to_numpy()
    assert len(set(out2_ph) & set(keys_after_1)) == 0
    keys_after_2 = load_keys(idx_dir)
    assert len(keys_after_2) == len(keys_after_1) + t2["final_rows"]


def test_compaction_preserves_membership(tmp_path):
    """compact() merges all generations into one with identical membership,
    is idempotent, and is crash-safe at both interruption points."""
    import numpy as np

    from data_quality_ray.state.dedup_index import (
        _committed_gens, append, compact, load_keys,
    )

    d = str(tmp_path / "idx")
    rng = np.random.RandomState(0)
    for _ in range(4):
        append(d, rng.randint(0, 10_000, size=500).astype(np.int64))
    before = load_keys(d)
    assert len(_committed_gens(d)) == 4

    # crash point 1: merged gen committed, sources NOT yet deleted —
    # simulate by appending the union as a 5th generation
    append(d, before)
    assert (load_keys(d) == before).all()

    gen = compact(d)
    assert gen is not None
    assert len(_committed_gens(d)) == 1
    assert (load_keys(d) == before).all()

    # crash point 2: a source marker removed but dir not deleted — build
    # two gens, strip one's marker, compact must still see the survivor
    import os
    append(d, np.array([10_000_001], dtype=np.int64))
    gens = _committed_gens(d)
    os.remove(os.path.join(gens[0], "_GEN"))  # gen now invisible junk
    visible = load_keys(d)
    assert 10_000_001 in visible and len(visible) == 1
    compact(d)  # single visible gen → no-op
    assert (load_keys(d) == visible).all()

    # idempotent: compacting a compacted index changes nothing
    assert compact(d) is not None or len(_committed_gens(d)) <= 1
    assert (load_keys(d) == visible).all()

    # gen numbers of deleted dirs are never reused while junk remains
    g2 = append(d, np.array([5], dtype=np.int64))
    assert os.path.basename(g2) not in {os.path.basename(g) for g in gens}


def test_retraction_latest_op_wins(tmp_path):
    import numpy as np

    from data_quality_ray.state.dedup_index import (append, compact,
                                                    load_keys, retract)

    d = str(tmp_path / "idx")
    append(d, np.array([1, 2, 3, 4], dtype=np.int64))
    append(d, np.array([5, 6], dtype=np.int64))
    retract(d, np.array([2, 5, 99], dtype=np.int64))  # 99 absent → no-op
    assert list(load_keys(d)) == [1, 3, 4, 6]
    # re-ingestion after deletion makes the key live again
    append(d, np.array([2], dtype=np.int64))
    assert list(load_keys(d)) == [1, 2, 3, 4, 6]
    # compaction folds tombstones away; no retracted key resurfaces
    compact(d)
    assert list(load_keys(d)) == [1, 2, 3, 4, 6]
    import glob
    import os
    assert not glob.glob(os.path.join(d, "gen-*", "tombs-*.parquet"))
    # retraction after compaction still works
    retract(d, np.array([1], dtype=np.int64))
    assert list(load_keys(d)) == [2, 3, 4, 6]


def test_retraction_gen_order_numeric(tmp_path):
    """gen-10 must replay AFTER gen-2 (numeric, not lexicographic)."""
    import numpy as np

    from data_quality_ray.state.dedup_index import append, load_keys, retract

    d = str(tmp_path / "idx")
    for _ in range(10):
        append(d, np.array([7], dtype=np.int64))  # gens 0..9
    retract(d, np.array([7], dtype=np.int64))     # gen-10 — must win
    assert list(load_keys(d)) == []


def test_dedup_index_retract_roundtrip(ray_session, tmp_path):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from data_quality_ray.state.dedup_index import DedupIndex

    d = str(tmp_path / "idx")
    idx = DedupIndex(d)
    ds = rd.from_pandas(pd.DataFrame({"phash": np.array([10, 20, 30], dtype=np.int64)}))
    idx.commit(ds, "phash")
    idx2 = DedupIndex(d)
    assert idx2.filter_new(ds, "phash").count() == 0  # all known
    idx2.retract_keys(np.array([20], dtype=np.int64))
    out = idx2.filter_new(ds, "phash").to_pandas()
    assert list(out["phash"]) == [20]  # forgotten key admitted again
