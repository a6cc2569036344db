"""Sequence packing: assign an ordered token stream to fixed-size chunks.

The training-data layout step: documents are concatenated in dataset
order into one virtual token stream, which is cut into fixed-length
sequences of ``chunk_size`` tokens (GPT-style boundary-agnostic packing).
Each doc learns its global ``start`` offset and which chunks it lands in;
``pack_assignments`` explodes that to one row per (doc, chunk) with the
doc-relative token slice, so a downstream ``groupby(chunk_id)`` can
assemble physical sequences with a single hash shuffle keyed by chunk.

Distribution: a prefix sum, not a shuffle. Per-block token sums are
computed by one tiny Ray task per materialized block (only the count
column is touched — payload bytes never move), the driver cumsums the
~num_blocks-sized vector, and each block is re-emitted with its own
offset — the same barrier-plus-re-emit shape as
functions/indexing.with_row_index (which pins the order). O(blocks)
driver state, O(1) passes, works at any row count.

Reference precedent: none (the reference has no sequence layout step);
this is a beyond-reference training-pipeline operator. Chunk math is
pure integer arithmetic so the DuckDB oracle replays it exactly with a
window SUM.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .exchange import bucket_exchange


def _block_sum(blk, col: str) -> int:
    import pyarrow.compute as pc

    if isinstance(blk, pd.DataFrame):
        return int(blk[col].sum()) if len(blk) else 0
    s = pc.sum(blk[col]).as_py()
    return int(s) if s is not None else 0


def offset_columns(counts: np.ndarray, off: int, chunk_size: int,
                   prefix: str) -> dict[str, np.ndarray]:
    """start/chunk_first/chunk_last/n_chunks for a contiguous run of docs
    beginning at global token offset ``off``. Zero-token docs span no
    chunk: n_chunks=0 and chunk_last=chunk_first-1 (kept formulaic so the
    SQL oracle mirrors it without NULLs)."""
    n = counts.astype(np.int64)
    start = off + np.concatenate(([0], np.cumsum(n[:-1]))) if len(n) else np.zeros(0, np.int64)
    first = start // chunk_size
    n_chunks = np.where(n > 0, (start + np.maximum(n, 1) - 1) // chunk_size - first + 1, 0)
    return {prefix + "start": start,
            prefix + "chunk_first": first,
            prefix + "chunk_last": first + n_chunks - 1,
            prefix + "n_chunks": n_chunks}


def _offset_block(blk, col: str, off: int, chunk_size: int, prefix: str):
    if isinstance(blk, pd.DataFrame):
        blk = pa.Table.from_pandas(blk, preserve_index=False)
    cols = offset_columns(blk[col].to_numpy(zero_copy_only=False), off, chunk_size, prefix)
    for name, arr in cols.items():
        blk = blk.append_column(name, pa.array(arr, type=pa.int64()))
    return blk


def pack_offsets(ds, count_col: str, chunk_size: int, prefix: str = "pack_"):
    """→ Dataset + four int64 columns (see ``offset_columns``) following
    the dataset's block order. One materialize barrier; no row data ever
    crosses the driver (per-block sums are ints, blocks re-emit in
    workers)."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    import ray
    import ray.data as rd

    sum_task = ray.remote(num_cpus=0.5)(_block_sum)
    emit_task = ray.remote(num_cpus=1)(_offset_block)
    mds = ds.materialize()
    # an upstream filter that empties a batch can emit a SCHEMALESS
    # empty block (pandas frame with no columns — observed at sf0.001 ×
    # 16 CPUs where small reads split thin); zero-row blocks carry no
    # offsets, so skip them by metadata instead of probing count_col
    blk_refs = [blk for bundle in mds.iter_internal_ref_bundles()
                for blk, _meta in bundle.blocks
                if _meta.num_rows is None or _meta.num_rows > 0]
    if not blk_refs:
        # zero-row result: emit an empty table that still carries the
        # four offset columns so downstream consumers keep their schema
        sch = mds.schema()
        empty = pa.table({
            **{n: pa.array([], type=t)
               for n, t in zip(sch.names, sch.types)},
            **{prefix + c: pa.array([], type=pa.int64())
               for c in ("start", "chunk_first", "chunk_last", "n_chunks")},
        })
        return rd.from_arrow(empty)
    sums = ray.get([sum_task.remote(b, count_col) for b in blk_refs])
    offs = np.concatenate(([0], np.cumsum(sums[:-1], dtype=np.int64)))
    return rd.from_arrow_refs(
        [emit_task.remote(b, count_col, int(o), chunk_size, prefix)
         for b, o in zip(blk_refs, offs)])


def pack_assignments(ds, count_col: str, chunk_size: int,
                     id_cols: list[str], prefix: str = "pack_"):
    """→ one row per (doc, chunk): id_cols + chunk_id + the doc-relative
    token slice [tok_start, tok_end) that lands in that chunk. Every
    doc's slices partition its tokens; every chunk holds exactly
    ``chunk_size`` tokens except the stream's last."""
    with_off = pack_offsets(ds, count_col, chunk_size, prefix)
    c_start, c_first, c_n = prefix + "start", prefix + "chunk_first", prefix + "n_chunks"

    def explode(b: pa.Table) -> pa.Table:
        n = b[count_col].to_numpy(zero_copy_only=False).astype(np.int64)
        start = b[c_start].to_numpy(zero_copy_only=False)
        first = b[c_first].to_numpy(zero_copy_only=False)
        nch = b[c_n].to_numpy(zero_copy_only=False)
        idx = np.repeat(np.arange(len(n)), nch)
        within = np.arange(len(idx)) - np.repeat(
            np.concatenate(([0], np.cumsum(nch[:-1]))) if len(n) else np.zeros(0, np.int64), nch)
        chunk_id = first[idx] + within
        tok_start = np.maximum(chunk_id * chunk_size, start[idx]) - start[idx]
        tok_end = np.minimum((chunk_id + 1) * chunk_size, start[idx] + n[idx]) - start[idx]
        out = {c: b[c].take(pa.array(idx)) for c in id_cols}
        out["chunk_id"] = pa.array(chunk_id, type=pa.int64())
        out["tok_start"] = pa.array(tok_start, type=pa.int64())
        out["tok_end"] = pa.array(tok_end, type=pa.int64())
        return pa.table(out)

    return with_off.map_batches(explode, batch_format="pyarrow")


def default_token_fn(ids: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Deterministic per-(doc, position) token stand-in: doc_id·1000003 +
    doc-relative position. Closed-form aggregable (arithmetic series), so
    the SQL oracle checks chunk contents WITHOUT exploding tokens — a
    wrong slice, order, or assignment shifts every checksum."""
    return ids.astype(np.int64) * 1000003 + pos.astype(np.int64)


def assemble_sequences(ds, count_col: str, chunk_size: int, id_col: str,
                       token_fn=default_token_fn, n_buckets: int = 32,
                       prefix: str = "pack_", return_tokens: bool = False):
    """Physically assemble the packed sequences: explode docs to (doc,
    chunk) slices, ONE ``bucket_exchange`` keyed by ``chunk_id``,
    then concatenate each chunk's slices in stream order inside the
    bucket — vectorized across ALL chunks of a bucket (repeat/arange
    token generation + reduceat checksums), never a Python callback per
    chunk. → (chunk_id, n_tok, tok_sum, first_tok, last_tok [, tokens]).

    ``token_fn(ids, pos) -> int64`` maps (doc id, doc-relative position)
    to a token; swap in a real lookup (e.g. into pretokenized id arrays)
    for production — the layout/shuffle logic is token-agnostic.
    """
    c_start = prefix + "start"
    assign = pack_assignments(ds, count_col, chunk_size,
                              id_cols=[id_col, c_start], prefix=prefix)

    def assemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["chunk_id", c_start], kind="mergesort")
        ts = g["tok_start"].to_numpy(np.int64)
        te = g["tok_end"].to_numpy(np.int64)
        ids = g[id_col].to_numpy(np.int64)
        cid = g["chunk_id"].to_numpy(np.int64)
        ln = te - ts
        off = np.concatenate(([0], np.cumsum(ln[:-1]))) if len(ln) else np.zeros(0, np.int64)
        pos = np.arange(int(ln.sum()), dtype=np.int64) - np.repeat(off, ln) + np.repeat(ts, ln)
        toks = token_fn(np.repeat(ids, ln), pos)
        # slice-row → chunk boundaries (cid is sorted)
        first_slice = np.concatenate(([True], cid[1:] != cid[:-1])) if len(cid) else np.zeros(0, bool)
        starts = off[first_slice]
        out = {
            "chunk_id": cid[first_slice],
            "n_tok": np.diff(np.concatenate((starts, [len(toks)]))),
            "tok_sum": np.add.reduceat(toks, starts) if len(toks) else np.zeros(0, np.int64),
            "first_tok": toks[starts] if len(toks) else np.zeros(0, np.int64),
            "last_tok": toks[np.concatenate((starts[1:], [len(toks)])) - 1]
                        if len(toks) else np.zeros(0, np.int64),
        }
        df = pd.DataFrame({k: pd.Series(v, dtype="int64") for k, v in out.items()})
        if return_tokens:
            df["tokens"] = np.split(toks, starts[1:])
        return df

    return bucket_exchange(assign, "chunk_id", assemble, n_buckets)
