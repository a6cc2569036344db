"""Read block sizing and the footer-planned reader: the pure block-count
rule, the footer byte count it is fed, the unit planner and split
decision, the plans and rows the reader gives, and a source check that
the package reads parquet only through it."""

import ast
import glob
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from data_quality_ray.sources.io import parquet_bytes, plan_units, read_block_count, read_blocks

MB = 1_000_000
GiB = 1 << 30
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def target():
    from ray.data import DataContext

    return DataContext.get_current().target_max_block_size


def test_one_cpu_small_read_is_two_blocks(target):
    assert read_block_count(1, 33 * MB, target) == 2


def test_many_cpus_keep_two_blocks_per_cpu(target):
    assert read_block_count(32, 1 * MB, target) == 64


def test_large_read_keeps_memory_ceiling(target):
    assert read_block_count(1, GiB, target) == math.ceil(GiB / target)
    assert read_block_count(1, GiB, target) > 2


def test_unlimited_block_size_falls_back_to_cpus():
    assert read_block_count(4, GiB, None) == 8


def test_explicit_blocks_win(target):
    assert read_block_count(32, GiB, target, blocks=3) == 3
    assert read_block_count(1, 33 * MB, target, blocks=16) == 16


def test_parquet_bytes_counts_only_read_columns(tmp_path):
    t = pa.table({"k": pa.array(range(1000), type=pa.int64()),
                  "payload": pa.array([b"x" * 1000] * 1000)})
    f = str(tmp_path / "t.parquet")
    pq.write_table(t, f, compression="none", use_dictionary=False, row_group_size=300)
    md = pq.read_metadata(f)
    full = parquet_bytes([md])
    assert full == sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
    assert full > 1000 * 1000
    key_only = parquet_bytes([md], columns=["k"])
    assert 0 < key_only < full / 50
    assert parquet_bytes([md, md], columns=["k"]) == 2 * key_only


def test_sized_read_splits_to_cpus_not_megabytes(ray_session, tmp_path):
    """12 MiB in one file: Ray's own rule would split it into 12 one-MiB
    blocks; the sized read gives 2 per CPU of the session."""
    import ray

    from data_quality_ray.sources.io import read_parquet_sized

    f = str(tmp_path / "big.parquet")
    pq.write_table(pa.table({"payload": pa.array([b"x" * 4096] * 3072)}), f,
                   compression="none", use_dictionary=False)
    ds = read_parquet_sized(f).materialize()
    assert ds.num_blocks() == 2 * int(ray.cluster_resources()["CPU"])
    assert ds.count() == 3072
    assert read_parquet_sized(f, blocks=3).materialize().num_blocks() == 3


def _footers(*row_groups):
    return [SimpleNamespace(num_row_groups=k) for k in row_groups]


def _read_once(units, footers):
    """Every row group of every file appears in exactly one unit."""
    seen = [(i, g) for unit in units for i, gs in unit for g in gs]
    assert sorted(seen) == [(i, g) for i, md in enumerate(footers)
                            for g in range(md.num_row_groups)]


@pytest.mark.parametrize("row_groups, n, units", [
    ((1,) * 8, 2, [[(0, [0]), (1, [0]), (2, [0]), (3, [0])],
                   [(4, [0]), (5, [0]), (6, [0]), (7, [0])]]),  # file runs
    ((3, 2), 2, [[(0, [0, 1, 2])], [(1, [0, 1])]]),  # as many files as units
    ((1,), 8, [[(0, [0])]]),  # never more units than row groups
    ((5,), 2, [[(0, [0]), (0, [1]), (0, [2])], [(0, [3]), (0, [4])]]),  # row-group runs
    ((2, 0, 3), 8, [[(0, [0])], [(0, [1])], [(1, [])], [(2, [0])], [(2, [1])],
                    [(2, [2])]]),  # a file without row groups is one empty unit
])
def test_plan_units(row_groups, n, units):
    footers = _footers(*row_groups)
    got = plan_units(footers, n)
    assert got == units
    assert len(got) <= n
    _read_once(got, footers)


def test_plan_units_many_row_groups_fill_every_block():
    footers = _footers(7, 13)
    units = plan_units(footers, 16)
    assert len(units) == 16
    _read_once(units, footers)


@pytest.mark.parametrize("n_units, n, cpus, blocks", [
    (1, 2, 1, 1),  # 1 CPU: Ray never splits
    (2, 2, 1, 2),
    (8, 8, 4, 8),  # one block per unit: no SplitBlocks, read fused with its map
    (16, 32, 16, 16),
    (1, 8, 4, 8),  # fewer units than CPUs: the planned count, Ray splits
    (3, 8, 4, 8),
    (1, 32, 16, 32),
])
def test_read_blocks_splits_only_below_the_cpu_count(n_units, n, cpus, blocks):
    assert read_blocks(n_units, n, cpus) == blocks


def _operators(ds) -> list[str]:
    return [line.split(": ")[0].split(" ", 2)[2] for line in ds.stats().splitlines()
            if line.startswith("Operator ")]


@pytest.mark.parametrize("row_groups", [16, 6])
def test_many_row_groups_read_fused_with_map(ray_session, tmp_path, row_groups):
    """A file with at least as many row groups as CPUs: one read task per
    unit, fused with the map that follows (one operator, no split) — also
    when it has fewer row groups than the planned 2 × CPUs blocks."""
    import ray

    from data_quality_ray.sources.io import read_parquet_sized

    cpus = int(ray.cluster_resources()["CPU"])
    f = str(tmp_path / "groups.parquet")
    pq.write_table(pa.table({"k": np.arange(4000), "v": np.arange(4000) * 0.5}), f,
                   row_group_size=-(-4000 // row_groups))
    assert pq.read_metadata(f).num_row_groups == row_groups >= cpus
    ds = read_parquet_sized(f).map_batches(
        lambda t: t.append_column("w", pa.compute.multiply(t["v"], 2.0)),
        batch_format="pyarrow", batch_size=None).materialize()
    ops = _operators(ds)
    assert len(ops) == 1 and ops[0].startswith("ReadParquet->MapBatches("), ops
    assert "SplitBlocks" not in ds.stats()
    assert ds.num_blocks() == min(row_groups, 2 * cpus)
    got = ds.to_pandas().sort_values("k")
    assert got["k"].tolist() == list(range(4000))
    assert (got["w"] == got["k"].to_numpy()).all()


def test_zero_row_file_keeps_projected_schema(ray_session, tmp_path):
    import ray

    from data_quality_ray.sources.io import read_parquet_sized

    empty = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.string()),
                      "c": pa.array([], pa.float64())})
    one_group = str(tmp_path / "empty.parquet")  # one row group of zero rows
    pq.write_table(empty, one_group)
    no_group = str(tmp_path / "no_groups.parquet")
    with pq.ParquetWriter(no_group, empty.schema):
        pass
    assert pq.read_metadata(no_group).num_row_groups == 0
    for f in (one_group, no_group):
        ds = read_parquet_sized(f, columns=["c", "a"])
        assert ds.schema().names == ["c", "a"]
        assert sum(len(b) for b in ds.iter_batches(batch_format="pyarrow", batch_size=None)) == 0
        t = pa.concat_tables(ray.get(ds.to_arrow_refs()))
        assert t.num_rows == 0
        assert t.schema.names == ["c", "a"]
        assert t.schema.types == [pa.float64(), pa.int64()]


def test_directory_and_projection_match_ray_reader(ray_session, tmp_path):
    """Rows and types of a multi-file directory, whole and projected, are
    the ones ``ray.data.read_parquet`` gives; both skip ``_``/``.`` files."""
    import ray.data as rd

    from data_quality_ray.sources.io import read_parquet_sized

    d = tmp_path / "multi"
    d.mkdir()
    rng = np.random.default_rng(5)
    for i, n in enumerate([700, 0, 1300, 50, 900]):
        pq.write_table(pa.table({
            "id": pa.array(np.arange(n) + 10_000 * i, pa.int64()),
            "s": pa.array([f"r{j % 97}" if j % 11 else None for j in range(n)], pa.string()),
            "x": pa.array(rng.normal(size=n), pa.float64()),
            "v": pa.array([[float(j), 1.0] for j in range(n)], pa.list_(pa.float32())),
        }), str(d / f"part-{i}.parquet"), row_group_size=400)
    for hidden in ("_labels.parquet", ".part-9.parquet.tmp.parquet"):  # skipped by both
        pq.write_table(pa.table({"other": [1, 2, 3]}), str(d / hidden))
    for columns in (None, ["v", "id"], ["s"]):
        ours = read_parquet_sized(str(d), columns=columns)
        ray_own = rd.read_parquet(str(d), columns=columns)
        assert ours.schema().names == ray_own.schema().names
        assert ours.schema().types == ray_own.schema().types
        a = pa.Table.from_pandas(ours.to_pandas(), preserve_index=False)
        b = pa.Table.from_pandas(ray_own.to_pandas(), preserve_index=False)
        assert a.num_rows == b.num_rows == 2950
        sort = [(c, "ascending") for c in a.column_names if c != "v"]
        assert a.sort_by(sort).equals(b.sort_by(sort))


def test_ivf_store_round_trips_through_pandas_maps(ray_session, tmp_path):
    """As ``ivf_store_knn_embeddings`` does: read the embeddings, write the
    IVF store through ``build_ivf_store``, read the probed files back and
    score them in a pandas ``map_batches``. The store keeps the vector
    column's Arrow type, so any process reads it into pandas, also one
    that never imported Ray's tensor extension."""
    from data_quality_ray.similarity.knn import build_ivf_store, ivf_topk_store
    from data_quality_ray.sources.io import read_parquet_sized

    rng = np.random.default_rng(3)
    src = str(tmp_path / "embeddings.parquet")
    pq.write_table(pa.table({
        "vec_id": pa.array(np.arange(500), pa.int64()),
        "embedding": pa.array(list(rng.normal(size=(500, 64)).astype(np.float32)),
                              pa.list_(pa.float32())),
        "label": pa.array(np.arange(500) % 7, pa.int32()),
    }), src)
    ds = read_parquet_sized(src, columns=["vec_id", "embedding"])
    store = str(tmp_path / "store")
    build_ivf_store(ds, store, vec_col="embedding", n_lists=4)
    files = sorted(glob.glob(os.path.join(store, "ivf_list=*", "*.parquet")))
    assert files
    in_type = pq.read_schema(src).field("embedding").type
    assert all(pq.read_schema(f).field("embedding").type == in_type for f in files)
    subprocess.run([sys.executable, "-c",
                    "import sys, pyarrow.parquet as pq\n"
                    "for f in sys.argv[1:]: pq.read_table(f).to_pandas()", *files],
                   check=True)

    def norms(b):
        import pandas as pd

        mat = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        return pd.DataFrame({"vec_id": b["vec_id"], "norm": np.linalg.norm(mat, axis=1)})

    got = (read_parquet_sized(files, columns=["vec_id", "embedding"])
           .map_batches(norms, batch_format="pandas").to_pandas().sort_values("vec_id"))
    ref = pq.read_table(src, columns=["vec_id", "embedding"]).to_pandas().sort_values("vec_id")
    assert got["vec_id"].tolist() == ref["vec_id"].tolist()
    assert np.allclose(got["norm"], [np.linalg.norm(np.asarray(v, np.float64))
                                     for v in ref["embedding"]])
    q = np.asarray(ref["embedding"].iloc[0], dtype=np.float64)
    top, stats = ivf_topk_store(store, "vec_id", "embedding", q, k=5, nprobe=4)
    assert len(top) == 5 and top["id"].iloc[0] == ref["vec_id"].iloc[0]
    assert stats["rows_scanned"] == stats["rows_total"] == len(ref)


_PACKAGE = sorted(os.path.relpath(p, ROOT) for p in
                  glob.glob(os.path.join(ROOT, "data_quality_ray", "**", "*.py"), recursive=True))


@pytest.mark.parametrize("rel", _PACKAGE)
def test_pipelines_read_parquet_only_through_sized_helper(rel):
    """A bare ``rd.read_parquet(`` would silently return to Ray's
    200-block split, its sampling task and its unfused split read; every
    parquet read in the package goes through read_parquet_sized."""
    tree = ast.parse(open(os.path.join(ROOT, rel)).read())
    bare = [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "read_parquet"
            and ast.unparse(n.func.value) in ("rd", "ray.data", "data")]
    assert not bare, f"{rel}: ray.data.read_parquet at lines {bare}"
