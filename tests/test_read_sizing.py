"""Read block sizing: the pure block-count rule, the footer byte count it
is fed, and a source check that the pipelines read only through it."""

import ast
import math
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from data_quality_ray.sources.io import parquet_bytes, read_block_count

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


@pytest.mark.parametrize("rel", ["data_quality_ray/pipelines/north.py",
                                 "data_quality_ray/pipelines/queries.py"])
def test_pipelines_read_parquet_only_through_sized_helper(rel):
    """A bare ``rd.read_parquet(`` would silently return to Ray's
    200-block split; every parquet read goes through read_parquet_sized."""
    tree = ast.parse(open(os.path.join(ROOT, rel)).read())
    bare = [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "read_parquet"
            and ast.unparse(n.func.value) in ("rd", "ray.data", "data")]
    assert not bare, f"{rel}: ray.data.read_parquet at lines {bare}"
