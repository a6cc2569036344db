"""Source / sink helpers.

The north-rule input is a Lance table; this sandbox has no ``lance``
package, so ``read_images`` prefers Lance when available and falls back
to the Parquet mirror with the identical schema (write side in
sources/fixtures.write_f1). Other formats map to the matching
``ray.data`` reader (the AvroUtils.streamAvroFile analog for Avro —
common/util/AvroUtils.java:194).

``read_parquet_sized`` is the package's parquet reader. It reads every
footer once, sizes the read to the session's CPUs and the data's
uncompressed bytes (``read_block_count``, not Ray's fixed 200-block
starting point), cuts the files into units of work (``plan_units``:
runs of whole files, or runs of row groups) and hands Ray one read task
per unit through a small ``Datasource`` (``sources/footer_source``)
whose block metadata comes from those footers: no second metadata pass
and no sampling task. Ray never fuses a read whose output it splits
(``SplitBlocks``) with the next map, so the read asks for one block per
unit whenever there are at least as many units as CPUs
(``read_blocks``); then each task reads and maps its unit without an
object-store hop. Phase 1 of the flagship (``pipelines/north``) plans
its units with the same ``plan_units``.
"""

from __future__ import annotations

import glob
import math
import os

import numpy as np
import pyarrow.parquet as pq


def read_block_count(cpus: int, nbytes: int, target_max_block_size: int | None,
                     blocks: int | None = None) -> int:
    """Output blocks for a parquet read. Ray's own rule
    (``ray.data._internal.util._autodetect_parallelism``) is
    ``max(min(200, bytes / 1 MiB), 2 × CPUs, bytes / target_max_block_size)``;
    its CPU-blind 200 term splits a 33 MB read into ~32 one-MiB blocks
    on one CPU, and each block then pays a read task, a map task and, on a
    write, a file of its own. This keeps Ray's CPU term and its memory
    ceiling and drops the 200: ``max(2 × CPUs, ceil(bytes /
    target_max_block_size))`` (``None`` = unlimited block size, as in
    Ray). An explicit ``blocks`` wins."""
    if blocks:
        return blocks
    mem = math.ceil(nbytes / target_max_block_size) if target_max_block_size else 1
    return max(2 * cpus, mem, 1)


def parquet_bytes(footers, columns: list[str] | None = None) -> int:
    """Uncompressed bytes of ``columns`` (all when None) summed from
    parquet footers (``pq.FileMetaData``) — no data page is read."""
    wanted = set(columns) if columns is not None else None
    return sum(_group_bytes(md.row_group(i), wanted)
               for md in footers for i in range(md.num_row_groups))


def _group_bytes(rg, wanted: set[str] | None) -> int:
    if wanted is None:
        return rg.total_byte_size
    return sum(rg.column(j).total_uncompressed_size for j in range(rg.num_columns)
               if rg.column(j).path_in_schema.split(".")[0] in wanted)


def _parquet_files(paths) -> list[str]:
    """The parquet files under ``paths`` (a file, a directory — searched
    recursively, skipping any entry whose name starts with ``.`` or ``_``
    (tmp files, ``_labels.parquet``), as Ray's reader does — or a list of
    either)."""
    out = []
    for p in [paths] if isinstance(paths, str) else paths:
        if os.path.isdir(p):
            out += [f for f in sorted(glob.glob(os.path.join(p, "**", "*.parquet"), recursive=True))
                    if not any(part.startswith(("_", "."))
                               for part in os.path.relpath(f, p).split(os.sep))]
        else:
            out.append(p)
    return out


def cluster_cpus() -> int:
    """CPUs of the Ray session; an uninitialized session auto-starts on
    all local CPUs."""
    import ray

    if ray.is_initialized():
        return int(ray.cluster_resources().get("CPU", 1))
    return os.cpu_count() or 1


def session_block_count(nbytes: int) -> int:
    """:func:`read_block_count` for this Ray session's CPUs and its
    ``DataContext.target_max_block_size``."""
    import ray.data as rd

    return read_block_count(cluster_cpus(), nbytes,
                            rd.DataContext.get_current().target_max_block_size)


def plan_units(footers, n: int) -> list[list[tuple[int, list[int]]]]:
    """At most ``n`` units of work over parquet files (their footers, in
    read order), each a list of ``(file index, row groups)``: runs of
    whole contiguous files when there are at least as many files as
    units, otherwise runs of contiguous row groups, at most one unit per
    row group (a file without row groups is one empty item). No byte is
    read twice."""
    if len(footers) >= n:
        items = [(i, list(range(md.num_row_groups))) for i, md in enumerate(footers)]
    else:
        items = [item for i, md in enumerate(footers)
                 for item in [(i, [g]) for g in range(md.num_row_groups)] or [(i, [])]]
    return [[items[i] for i in idx]
            for idx in np.array_split(np.arange(len(items)), n) if len(idx)]


def read_blocks(n_units: int, n: int, cpus: int) -> int:
    """Blocks a read of ``n_units`` units asks Ray for, ``n`` planned. One
    per unit when there are at least as many units as CPUs: Ray then adds
    no ``SplitBlocks`` and fuses each read task with the next map.
    Otherwise ``n``: Ray splits each unit's output so that CPU-heavy maps
    still fan out to every CPU (a one-row-group table on many CPUs)."""
    return n_units if n_units >= cpus else n


def read_parquet_sized(paths, columns: list[str] | None = None,
                       blocks: int | None = None):
    """Parquet files (``paths``: a file, a directory or a list of either;
    columns stored in-file, no hive partition columns) as a Dataset of
    ``read_blocks`` blocks: ``plan_units`` over
    :func:`session_block_count` of the footers' bytes, or over ``blocks``
    when given. Each read task reads its unit with ``pyarrow.parquet``,
    one table per row group, projected to ``columns``."""
    import ray.data as rd

    from .footer_source import FooterParquet

    files = _parquet_files(paths)
    if not files:
        raise FileNotFoundError(f"no parquet files in {paths!r}")
    footers = [pq.read_metadata(f) for f in files]
    n = blocks or session_block_count(parquet_bytes(footers, columns))
    units = plan_units(footers, n)
    return rd.read_datasource(FooterParquet(files, footers, units, columns),
                              override_num_blocks=read_blocks(len(units), n, cluster_cpus()))


def read_images(path: str, columns: list[str] | None = None):
    """North-pipeline source: Lance dataset if present/installed, else the
    parquet directory mirror. Always column-prunable."""
    import ray.data as rd

    lance_path = os.path.join(path, "images.lance")
    if os.path.exists(lance_path):
        try:
            return rd.read_lance(lance_path, columns=columns)
        except (ImportError, AttributeError):
            pass
    return read_parquet_sized(path, columns=columns)


def read_any(path: str, fmt: str | None = None, **kwargs):
    """Generic source dispatch: parquet / csv / json / text / avro / lance
    / binary, inferred from the extension when ``fmt`` is None."""
    import ray.data as rd

    fmt = fmt or os.path.splitext(path)[1].lstrip(".").lower() or "parquet"
    readers = {
        "parquet": read_parquet_sized,
        "csv": rd.read_csv,
        "json": rd.read_json,
        "jsonl": rd.read_json,
        "txt": rd.read_text,
        "text": rd.read_text,
    }
    if fmt in readers:
        return readers[fmt](path, **kwargs)
    if fmt == "avro":
        try:
            return rd.read_avro(path, **kwargs)
        except AttributeError as e:  # pragma: no cover
            raise NotImplementedError("no avro reader in this Ray build") from e
    if fmt == "lance":
        try:
            return rd.read_lance(path, **kwargs)
        except (ImportError, AttributeError) as e:
            raise NotImplementedError("lance not installed in this environment") from e
    if fmt in ("bin", "binary", "img", "images"):
        return rd.read_binary_files(path, include_paths=True, **kwargs)
    raise ValueError(f"unknown format: {fmt}")


def write_partitioned(ds, out_dir: str, partition_cols: list[str] | None = None,
                      payload: bool = False, **kwargs):
    """Partitioned parquet sink; ``payload=True`` disables parquet
    re-compression/dictionary for already-compressed binary columns."""
    args = dict(kwargs)
    if payload:
        args.setdefault("compression", "none")
        args.setdefault("use_dictionary", False)
    if partition_cols:
        args["partition_cols"] = partition_cols
    ds.write_parquet(out_dir, **args)


def write_any(ds, path: str, fmt: str | None = None, **kwargs):
    """Generic sink dispatch mirroring ``read_any``: parquet / csv /
    json(l). Parquet accepts the ``payload`` keyword via
    ``write_partitioned``; row formats map to the matching ray.data
    writer (one file per block — the resumable-output layout)."""
    fmt = (fmt or os.path.splitext(path)[1].lstrip(".").lower()
           or "parquet")
    if fmt == "parquet":
        return write_partitioned(ds, path, **kwargs)
    if fmt == "csv":
        return ds.write_csv(path, **kwargs)
    if fmt in ("json", "jsonl"):
        return ds.write_json(path, **kwargs)
    raise ValueError(f"unknown sink format: {fmt}")
