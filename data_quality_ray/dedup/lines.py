"""Cross-document line/paragraph operators — the web-corpus cleaning
steps that work at line granularity ACROSS the corpus (the within-doc
variant is ``rules/heuristics.c4_line_clean``):

- ``paragraph_dedup``: global exact keep-first paragraph dedup
  (RefinedWeb §"line-wise corrections" / Dolma paragraph dedup): a line
  survives only at its first occurrence corpus-wide (minimal
  (doc order, line index)); docs whose every line was seen before drop
  out entirely — a doc made only of known content IS a duplicate.
- ``line_doc_frequency`` + ``remove_boilerplate``: CCNet-style
  boilerplate stripping — lines occurring in >= ``min_docs`` distinct
  documents (nav bars, cookie banners, footers) are removed from every
  doc; docs are kept (possibly empty) — removal is cleaning, not dedup.

Scale shape: explode lines once (flat map), winner selection rides the
exact-dedup machinery (batch pre-dedup → key-only Min shuffle →
broadcast filter, or full map_groups above the gate —
``dedup/exact.dedup_by_content``); reassembly is one hash-bucketed
pandas groupby keyed on the doc id (never a per-doc Python callback).
The boilerplate line set is collected to the driver and broadcast — its
size is bounded by corpus repetition, not corpus size (only lines
crossing the ``min_docs`` bar), the same small-side assumption as every
dimension broadcast.

Reference precedent: none (single-JVM, no cross-record text surgery) —
part of the beyond-reference training-data pipeline surface.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.exchange import bucket_exchange
from .exact import dedup_by_content

LINE_SEP = "\n"
# packed order key = doc_order * MAX_DOC_LINES + line_idx; documents
# with more lines than this would corrupt first-seen ordering
MAX_DOC_LINES = 1 << 20


def explode_lines(ds, id_col: str, text_col: str):
    """Dataset of (id, __idx, line, __ord): one row per line, ``__ord``
    a packed global first-seen order key (assumes ``id_col`` is a
    numeric doc order — e.g. ``functions/indexing.with_row_index``
    output or a natural int id)."""

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        texts = b[text_col].to_numpy()
        ids = b[id_col].to_numpy()
        parts = [(t if isinstance(t, str) else "").split(LINE_SEP)
                 for t in texts]
        counts = np.asarray([len(p) for p in parts], dtype=np.int64)
        idx = np.concatenate([np.arange(c, dtype=np.int64) for c in counts]) \
            if len(counts) else np.zeros(0, dtype=np.int64)
        rid = np.repeat(ids, counts)
        return pd.DataFrame({
            id_col: rid,
            "__idx": idx,
            "line": np.concatenate([np.asarray(p, dtype=object) for p in parts])
            if len(counts) else np.zeros(0, dtype=object),
            "__ord": rid.astype(np.int64) * MAX_DOC_LINES + idx,
        })

    return ds.map_batches(explode, batch_format="pandas")


def _reassemble(lines_ds, id_col: str, n_buckets: int = 32):
    """(id, n_kept, text) per doc with >= 1 surviving line — hash-bucketed
    groupby, lines re-joined in original ``__idx`` order."""
    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "__idx"], kind="mergesort")
        gb = g.groupby(id_col, sort=True)
        out = gb["line"].agg(LINE_SEP.join).reset_index()
        out.columns = [id_col, "text"]
        out["n_kept"] = gb.size().to_numpy()
        return out[[id_col, "n_kept", "text"]]

    return bucket_exchange(lines_ds, id_col, join_bucket, n_buckets)


def paragraph_dedup(ds, id_col: str, text_col: str, n_buckets: int = 32):
    """Global keep-first paragraph dedup → Dataset (id, n_kept, text).
    Docs with zero surviving lines are dropped (fully-duplicate content).
    First-seen = minimal (id, line index) over the whole corpus."""
    lines = explode_lines(ds, id_col, text_col)
    surv = dedup_by_content(lines, "line", "__ord")
    return _reassemble(surv, id_col, n_buckets)


def line_doc_frequency(ds, id_col: str, text_col: str):
    """Dataset (line, n_docs): distinct-document frequency per exact
    line. Per-doc distinct first (a doc repeating its own footer counts
    once), per-batch partial counts, ONE groupby-sum shuffle."""
    from ..profiling.groupagg import grouped_aggregate

    lines = explode_lines(ds, id_col, text_col)

    def distinct_per_doc(b: pd.DataFrame) -> pd.DataFrame:
        return b.drop_duplicates([id_col, "line"])[["line"]]

    per_doc = lines.map_batches(distinct_per_doc, batch_format="pandas")
    return grouped_aggregate(per_doc, ["line"], {"n_docs": ("", "count")},
                             final="shuffle")


def remove_boilerplate(ds, id_col: str, text_col: str, min_docs: int):
    """CCNet-style boilerplate removal → Dataset (id, n_lines, n_removed,
    text). Lines in >= ``min_docs`` distinct docs are stripped everywhere
    (including their first occurrence); all docs are kept."""
    import ray

    from ..functions.broadcast import cached_get

    freq = line_doc_frequency(ds, id_col, text_col)
    boiler = freq.map_batches(
        lambda b: b[b["n_docs"] >= min_docs][["line"]],
        batch_format="pandas").to_pandas()
    boiler_ref = ray.put(frozenset(boiler["line"].tolist()))

    def strip(b: pd.DataFrame) -> pd.DataFrame:
        bad = cached_get(boiler_ref)
        texts = b[text_col].to_numpy()
        n_lines = np.zeros(len(texts), dtype=np.int64)
        n_removed = np.zeros(len(texts), dtype=np.int64)
        cleaned = np.empty(len(texts), dtype=object)
        for i, t in enumerate(texts):
            parts = (t if isinstance(t, str) else "").split(LINE_SEP)
            kept = [p for p in parts if p not in bad]
            n_lines[i] = len(parts)
            n_removed[i] = len(parts) - len(kept)
            cleaned[i] = LINE_SEP.join(kept)
        return pd.DataFrame({id_col: b[id_col], "n_lines": n_lines,
                             "n_removed": n_removed, "text": cleaned})

    return ds.map_batches(strip, batch_format="pandas")
