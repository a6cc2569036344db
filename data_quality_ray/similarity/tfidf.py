"""TF-IDF keyword extraction: top-k terms per document by
``tf · ln(N/df)`` — the global-statistics-joined-back shape (document
frequency is a corpus-wide aggregate that every row then needs).

Two scale paths behind the repo's usual measured-size gate:

- collect (df vocabulary within the ``collect_rows`` gate): the (term → df) table
  is collected once, broadcast via ``ray.put``, and scoring is a single
  stateless ``map_batches`` — natural-language vocabularies (≤ a few
  million terms after tokenization) fit comfortably;
- shuffle (unbounded vocabularies — n-gram terms, URLs): exploded
  (doc, term, tf) rows hash-join the (term, df) Dataset through the
  generic ``functions/joins.hash_join``, then per-doc top-k via a
  bucketed groupby — no driver-side vocabulary at any size.

Both paths are parity-tested. Tokenizer contract shared with the SQL
oracle: ``[a-z0-9]+`` runs of the lower-cased text (``similarity/bm25``'s
tokenizer).

Reference precedent: term frequencies appear in the reference only as
value-frequency profiling (FrequencyAnalyzer); corpus-level tf-idf is
part of the beyond-reference text-analysis surface.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..functions.exchange import bucket_exchange
from ..functions.gate import fits
from .bm25 import bm25_tokens


def term_doc_frequency(ds, id_col: str, text_col: str):
    """Dataset (term, df): distinct-document frequency per token.
    Per-batch partial counts (distinct per doc first), one groupby-sum
    shuffle."""
    from ..profiling.groupagg import grouped_aggregate

    def distinct_terms(b: pd.DataFrame) -> pd.DataFrame:
        texts = b[text_col].to_numpy()
        out = []
        for t in texts:
            out.extend(set(bm25_tokens(t)))
        return pd.DataFrame({"term": np.asarray(out, dtype=object)})

    per_doc = ds.map_batches(distinct_terms, batch_format="pandas")
    return grouped_aggregate(per_doc, ["term"], {"df": ("", "count")},
                             final="shuffle")


def _topk_frame(sc: pd.DataFrame, id_col: str, k: int) -> pd.DataFrame:
    sc = sc.sort_values([id_col, "score", "term"],
                        ascending=[True, False, True], kind="mergesort")
    sc["rank"] = sc.groupby(id_col).cumcount() + 1
    return sc[sc["rank"] <= k][[id_col, "term", "score", "rank"]]


def tfidf_topk(ds, id_col: str, text_col: str, k: int = 5,
               n_buckets: int = 32, round_to: int = 6):
    """→ (id, term, score, rank): top-``k`` terms per doc by
    ``tf · ln(N/df)``, rank by (rounded score desc, term asc) so the
    order is engine-stable. Collects while the vocabulary fits the
    ``collect_rows`` gate, shuffles above it."""
    import ray

    from ..functions.broadcast import cached_get

    n_docs = ds.count()
    df_ds = term_doc_frequency(ds, id_col, text_col).materialize()
    if fits("tfidf.tfidf_topk", df_ds.count(), "collect_rows"):
        df_pdf = df_ds.to_pandas()
        ref = ray.put(dict(zip(df_pdf["term"], df_pdf["df"].astype(np.int64))))

        def score_batch(b: pd.DataFrame) -> pd.DataFrame:
            dfs = cached_get(ref)
            rows_id, rows_t, rows_s = [], [], []
            for i, t in zip(b[id_col].to_numpy(), b[text_col].to_numpy()):
                counts: dict = {}
                for x in bm25_tokens(t):
                    counts[x] = counts.get(x, 0) + 1
                for x, tf in counts.items():
                    rows_id.append(i)
                    rows_t.append(x)
                    rows_s.append(round(tf * math.log(n_docs / dfs[x]), round_to))
            sc = pd.DataFrame({id_col: rows_id,
                               "term": np.asarray(rows_t, dtype=object),
                               "score": rows_s})
            return _topk_frame(sc, id_col, k)  # per-batch: docs never split

        return ds.map_batches(score_batch, batch_format="pandas")

    def explode_tf(b: pd.DataFrame) -> pd.DataFrame:
        rows_id, rows_t, rows_tf = [], [], []
        for i, t in zip(b[id_col].to_numpy(), b[text_col].to_numpy()):
            counts: dict = {}
            for x in bm25_tokens(t):
                counts[x] = counts.get(x, 0) + 1
            for x, tf in counts.items():
                rows_id.append(i)
                rows_t.append(x)
                rows_tf.append(tf)
        return pd.DataFrame({id_col: rows_id,
                             "term": np.asarray(rows_t, dtype=object),
                             "tf": np.asarray(rows_tf, dtype=np.int64)})

    from ..functions.joins import hash_join

    tf_ds = ds.map_batches(explode_tf, batch_format="pandas")
    joined = hash_join(tf_ds, df_ds, on="term", right_cols=["term", "df"],
                       n_buckets=n_buckets)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = np.round(b["tf"].to_numpy()
                              * np.log(n_docs / b["df"].to_numpy()), round_to)
        return b[[id_col, "term", "score"]]

    def topk_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return _topk_frame(g, id_col, k)

    return bucket_exchange(joined.map_batches(score, batch_format="pandas"),
                           id_col, topk_bucket, n_buckets)
