"""The ``ray.data.Datasource`` behind ``sources.io.read_parquet_sized``:
one read task per ``plan_units`` unit, its rows, bytes and schema taken
from the footers the caller already read. A module of its own so that
importing ``sources/io`` (as every phase-1 worker does through
``pipelines/north``) does not import Ray Data."""

from __future__ import annotations

import functools

import pyarrow as pa
import pyarrow.parquet as pq
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

from .io import _group_bytes, parquet_bytes


class FooterParquet(Datasource):
    """One read task per unit; rows, bytes and schema from the footers."""

    def __init__(self, files: list[str], footers: list, units: list,
                 columns: list[str] | None):
        schema = footers[0].schema.to_arrow_schema()
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns], schema.metadata)
        wanted = set(columns) if columns is not None else None
        self._bytes = parquet_bytes(footers, columns)
        self._tasks = []
        for unit in units:
            groups = [footers[i].row_group(g) for i, gs in unit for g in gs]
            meta = BlockMetadata(
                num_rows=sum(rg.num_rows for rg in groups),
                size_bytes=sum(_group_bytes(rg, wanted) for rg in groups),
                input_files=[files[i] for i, _ in unit], exec_stats=None)
            work = [(files[i], gs) for i, gs in unit]
            self._tasks.append(ReadTask(functools.partial(_read_unit, work, columns),
                                        meta, schema))

    def get_name(self) -> str:
        return "Parquet"

    def estimate_inmemory_data_size(self) -> int:
        return self._bytes

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        return self._tasks


def _read_unit(work: list[tuple[str, list[int]]], columns: list[str] | None):
    """A read task's blocks: one table per row group of ``work``; a file
    without row groups gives an empty table with the projected schema."""
    for path, groups in work:
        with pq.ParquetFile(path) as f:
            if not groups:
                yield f.read_row_groups([], columns=columns)
            for g in groups:
                yield f.read_row_group(g, columns=columns)
