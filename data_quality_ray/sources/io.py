"""Source / sink helpers.

The north-rule input is a Lance table; this sandbox has no ``lance``
package, so ``read_images`` prefers Lance when available and falls back
to the Parquet mirror with the identical schema (write side in
sources/fixtures.write_f1). Other formats map to the matching
``ray.data`` reader (the AvroUtils.streamAvroFile analog for Avro —
common/util/AvroUtils.java:194).

``read_parquet_sized`` is the pipelines' parquet reader: it sizes the
read's block count to the cluster's CPUs and the data's uncompressed
bytes instead of Ray's fixed 200-block starting point.
"""

from __future__ import annotations

import glob
import math
import os


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
    total = 0
    for md in footers:
        for i in range(md.num_row_groups):
            rg = md.row_group(i)
            if wanted is None:
                total += rg.total_byte_size
                continue
            for j in range(rg.num_columns):
                col = rg.column(j)
                if col.path_in_schema.split(".")[0] in wanted:
                    total += col.total_uncompressed_size
    return total


def _parquet_files(paths) -> list[str]:
    """The parquet files under ``paths`` (a file, a directory — searched
    recursively, hidden tmp files skipped — or a list of either)."""
    out = []
    for p in [paths] if isinstance(paths, str) else paths:
        if os.path.isdir(p):
            out += sorted(glob.glob(os.path.join(p, "**", "*.parquet"), recursive=True))
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


def read_parquet_sized(paths, columns: list[str] | None = None,
                       blocks: int | None = None):
    """``ray.data.read_parquet`` with ``override_num_blocks`` from
    :func:`read_block_count`: CPUs from ``ray.cluster_resources()``,
    bytes from the files' footers. ``blocks`` overrides the rule."""
    import pyarrow.parquet as pq
    import ray.data as rd

    if not blocks:
        footers = [pq.read_metadata(f) for f in _parquet_files(paths)]
        blocks = session_block_count(parquet_bytes(footers, columns))
    return rd.read_parquet(paths, columns=columns, override_num_blocks=blocks)


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
    return rd.read_parquet(path, columns=columns)


def read_any(path: str, fmt: str | None = None, **kwargs):
    """Generic source dispatch: parquet / csv / json / text / avro / lance
    / binary, inferred from the extension when ``fmt`` is None."""
    import ray.data as rd

    fmt = fmt or os.path.splitext(path)[1].lstrip(".").lower() or "parquet"
    readers = {
        "parquet": rd.read_parquet,
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
