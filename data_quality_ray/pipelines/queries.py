"""Named query/pipeline implementations over the sf parquet tables.

Each function takes ``sf_dir`` and returns a pandas DataFrame / pyarrow
Table / ray Dataset. These are the ``queries()`` entries of
``__ray_entry__``; the matching DuckDB oracle SQL lives there. Column
names and float rounding are part of the contract with the oracle
(aggregates of money-scale sums round to 2 dp — double summation order
differs between engines at ~1e-5 on 1e9-scale sums; ratios/averages round
to 6 dp).

Ray is assumed initialised by the caller (driver / bench / tests).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..dedup.blocking import blocked_pairs  # noqa: F401 (re-export surface)
from ..dedup.exact import dedup_by_key
from ..dedup.embedding import neardup_pairs_within
from ..dedup.minhash import minhash_dedup
from ..dedup.simhash import add_simhash
from ..dedup.survivorship import golden_records
from ..functions.converters import convert_distance, julian_days
from ..functions.exchange import bucket_exchange
from ..functions.gate import fits
from ..functions.matchers import levenshtein_distance
from ..functions.text import fingerprint_key_one, pattern_fingerprint, token_counts, unique_apply
from ..functions.typeinfer import infer_type_one
from ..pipelines.quality_filter import build_docs_chain
from ..profiling.analyzers import HistogramAcc, QualityAcc, profile
from ..rules import scrub as S
from ..rules.heuristics import round_half_away
from ..sampling.reservoir import reservoir_sample
from ..similarity.knn import cosine_topk
from ..sources.io import read_parquet_sized
from ..stages.models import HeuristicLangID, NgramPerplexity


def _read(sf_dir: str, table: str, columns=None, blocks: int | None = None):
    """``sources.io.read_parquet_sized`` of one table. Unset ``blocks``
    plans ``max(2 × CPUs, ceil(bytes / target_max_block_size))`` blocks
    (``read_block_count``). A table with at least as many row groups as
    CPUs is read by one task per unit, fused with the first map; a table
    with fewer (these are one row group each) is read by one task whose
    output Ray splits into the planned blocks, so CPU-heavy maps still
    fan out — on 1 CPU it is always one fused task. ``blocks`` caps LIGHT
    filter/project dimension reads below the 2×CPU split — 64 tiny task
    launches on a 1 MB file cost ~5× the read itself (measured 0.39 →
    0.08 s warm on the sf0.1 customer table, 32 CPUs). Leave it unset for
    any read feeding CPU-heavy per-row stages (small block counts
    serialize them)."""
    return read_parquet_sized(f"{sf_dir}/{table}.parquet", columns=columns, blocks=blocks)


# Model stages here run as TASK pools: every query-level model is either
# rebuilt from a broadcast weight vector (HashedLinearQuality.from_weights)
# or memoized per worker process (stages/models.process_model), so actor
# pools — which cost a fresh set of actor launches per query and need a
# concurrency floor of 2 to avoid the documented 4-CPU deadlock against
# the read operators (COVERAGE.md) — buy nothing at this setup cost.
# Genuinely expensive per-actor state (image decoders) keeps its actor
# pools in pipelines/north.py and stages/image.py.


# ---------------------------------------------------------------------------
# flagship: quality-filter over the documents table (full DuckDB oracle)
# ---------------------------------------------------------------------------


def _quality_filter_docs_ds(sf_dir: str):
    """Docs-table rule chain as a Dataset — shared by the driver query
    and the classifier evaluation join."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def apply_chain(batch: pa.Table) -> pa.Table:
        from ..pipelines.quality_filter import cached_chain

        engine = cached_chain(build_docs_chain)
        res = engine.apply(
            batch["text"],
            aux={"lang": batch["lang"].to_numpy(zero_copy_only=False)},
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "keep": pa.array(res.verdict != "DROP"),
                "first_rule": pa.array(res.first_rule, type=pa.string()),
                "scrubbed_text": pa.array(res.values, type=pa.string()),
            }
        )

    return ds.map_batches(apply_chain, batch_format="pyarrow")


def quality_filter_docs(sf_dir: str) -> pd.DataFrame:
    """Docs-table rule chain (every rule SQL-expressible; langid reads the
    ``lang`` column). → (doc_id, keep, first_rule, scrubbed_text)."""
    return _quality_filter_docs_ds(sf_dir).to_pandas()


def scrub_pii_docs(sf_dir: str) -> pd.DataFrame:
    """PII/toxicity scrub chain alone → (doc_id, scrubbed_text); byte-
    stable vs the DuckDB regexp_replace chain with identical patterns."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        v = batch["text"].to_numpy(zero_copy_only=False)
        v = S.scrub_phone(S.scrub_ssn(S.scrub_email(S.scrub_toxic(v))))
        return pa.table({"doc_id": batch["doc_id"], "scrubbed_text": pa.array(v, type=pa.string())})

    return ds.map_batches(f, batch_format="pyarrow").to_pandas()


def corpus_clean_docs(sf_dir: str) -> pd.DataFrame:
    """The full text-corpus cleaning composition in ONE pipeline — the
    operators a 100 TB training-data run chains: rule-chain filter +
    PII/toxicity scrub → exact dedup on scrubbed text (min doc_id wins)
    → MinHash near-dup collapse (cluster root survives). Fully
    SQL-oracled end-to-end (the near-dup stage reuses the md5-replay
    oracle over the filtered+deduped intermediate).
    → (doc_id, text) of the surviving corpus."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def apply_chain(batch: pa.Table) -> pa.Table:
        from ..pipelines.quality_filter import cached_chain

        res = cached_chain(build_docs_chain).apply(
            batch["text"],
            aux={"lang": batch["lang"].to_numpy(zero_copy_only=False)},
        )
        keep = res.verdict != "DROP"
        return pa.table({
            "doc_id": batch["doc_id"].filter(pa.array(keep)),
            "text": pa.array(res.values[keep], type=pa.string()),
        })

    kept = ds.map_batches(apply_chain, batch_format="pyarrow")
    exact = dedup_by_key(kept, key="text", order_col="doc_id").materialize()
    clusters = minhash_dedup(exact, "doc_id", "text", threshold=0.5, hash_fn="md5")
    losers = set(clusters.loc[clusters["doc_id"] != clusters["cluster"], "doc_id"])
    out = exact.to_pandas()
    out = out[~out["doc_id"].isin(losers)][["doc_id", "text"]]
    return out.sort_values("doc_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# profiling operators
# ---------------------------------------------------------------------------


def pricing_summary(sf_dir: str) -> pd.DataFrame:
    """SummaryAnalyzer as grouped aggregation (Q1-shaped). Batch-level
    partial combine: the shuffle moves ~6 rows per batch, not 600k rows."""
    from ..profiling.groupagg import grouped_aggregate

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"])
    out = grouped_aggregate(
        ds, ["l_returnflag", "l_linestatus"],
        {"sum_qty": ("l_quantity", "sum"), "sum_price": ("l_extendedprice", "sum"),
         "n": ("", "count")},
    )
    out["avg_qty"] = round_half_away((out["sum_qty"] / out["n"]))
    out["avg_price"] = round_half_away((out["sum_price"] / out["n"]))
    out["sum_qty"] = out["sum_qty"].round(2)
    out["sum_price"] = out["sum_price"].round(2)
    return out


def summary_orders(sf_dir: str) -> pd.DataFrame:
    from ..profiling.groupagg import grouped_aggregate

    ds = _read(sf_dir, "orders", columns=["o_orderstatus", "o_totalprice"])
    out = grouped_aggregate(
        ds, ["o_orderstatus"],
        {"n": ("", "count"), "sum_price": ("o_totalprice", "sum"),
         "min_price": ("o_totalprice", "min"), "max_price": ("o_totalprice", "max")},
    )
    out["avg_price"] = round_half_away((out["sum_price"] / out["n"]))
    out["sum_price"] = out["sum_price"].round(2)
    return out


def text_length_by_lang(sf_dir: str) -> pd.DataFrame:
    """TextLengthAnalyzer (code-point lengths) per lang group."""
    import pyarrow.compute as pc

    from ..profiling.groupagg import grouped_aggregate

    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    ds = ds.map_batches(
        lambda t: pa.table({"lang": t["lang"],
                            "len": pc.cast(pc.utf8_length(t["text"]), pa.int64())}),
        batch_format="pyarrow",
    )
    out = grouped_aggregate(
        ds, ["lang"],
        {"n": ("", "count"), "min_len": ("len", "min"), "max_len": ("len", "max"),
         "sum_len": ("len", "sum")},
    )
    out["avg_len"] = round_half_away((out["sum_len"] / out["n"]))
    return out


def pattern_freq_customer(sf_dir: str) -> pd.DataFrame:
    """Pattern fingerprint frequency (CompositePatternFrequencyAnalyzer)."""
    ds = _read(sf_dir, "customer", columns=["c_name"])

    def f(batch: pa.Table) -> pa.Table:
        pat = pattern_fingerprint(batch["c_name"])
        return pa.table({"pattern": pa.array(pat, type=pa.string())})

    from ray.data.aggregate import Count

    return ds.map_batches(f, batch_format="pyarrow").groupby("pattern").aggregate(
        Count(alias_name="n")).to_pandas()


def cardinality_exact(sf_dir: str) -> pd.DataFrame:
    """Exact distinct counts (CardinalityAnalyzer) — shuffle-based."""
    n_seg = len(_read(sf_dir, "customer", columns=["c_mktsegment"]).unique("c_mktsegment"))
    n_pri = len(_read(sf_dir, "orders", columns=["o_orderpriority"]).unique("o_orderpriority"))
    n_flag = len(_read(sf_dir, "lineitem", columns=["l_returnflag"]).unique("l_returnflag"))
    return pd.DataFrame({"n_segments": [n_seg], "n_priorities": [n_pri], "n_flags": [n_flag]})


def histogram_quantity(sf_dir: str) -> pd.DataFrame:
    """Equal-width histogram [0,50] × 10 bins (HistogramAnalyzer)."""
    ds = _read(sf_dir, "lineitem", columns=["l_quantity"])
    res = profile(ds, {"l_quantity": [("hist", lambda: HistogramAcc(0.0, 50.0, 10))]})
    counts = res["l_quantity"]["hist"]["counts"]
    return pd.DataFrame({"bin": np.arange(10, dtype=np.int64), "n": np.asarray(counts, dtype=np.int64)})


def quantiles_price(sf_dir: str) -> pd.DataFrame:
    """EXACT quantiles (QuantileAnalyzer) — collects the single pruned
    column to the driver (documented small-side exact; the t-digest
    analyzer in profiling/ is the 100TB path)."""
    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])
    parts = [b["l_extendedprice"].to_numpy() for b in ds.iter_batches(batch_size=65536, batch_format="pandas")]
    vals = np.concatenate(parts)
    q = np.percentile(vals, [25, 50, 75])  # linear interpolation == quantile_cont
    return pd.DataFrame({"q25": [round(q[0], 6)], "median": [round(q[1], 6)], "q75": [round(q[2], 6)]})


def frequency_events(sf_dir: str) -> pd.DataFrame:
    from ..profiling.groupagg import grouped_aggregate

    return grouped_aggregate(
        _read(sf_dir, "events", columns=["event_type"]),
        ["event_type"], {"n": ("", "count")},
    )


def _sketch_partials(ds, make_acc, update):
    """Per-batch sketch partials (pickled, one tiny row per batch) merged
    on the driver — the mergeable-statistics-bean pattern
    (CardinalityHLLStatistics.java:53-58, TDigestAnalyzer.java:32-102)."""
    import pickle

    def partial(batch: pa.Table) -> pa.Table:
        acc = make_acc()
        update(acc, batch)
        return pa.table({"p": pa.array([pickle.dumps(acc)], type=pa.binary())})

    merged = None
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_size=64, batch_format="pyarrow"):
        for blob in b["p"]:
            acc = pickle.loads(blob.as_py())
            merged = acc if merged is None else merged.merge(acc)
    return merged


def cardinality_hll_customer(sf_dir: str) -> pd.DataFrame:
    """HLL cardinality with a tolerance gate the exact-hash driver compare
    can check: the query returns the EXACT distinct counts plus booleans
    asserting the HLL estimate is within 3·rsd (p=14 → rsd ≈ 0.81%); the
    oracle returns the exact counts and literal trues. A drifting sketch
    flips a boolean and fails the hash (CardinalityHLLAnalyzer.java:33-84)."""
    from ..profiling.sketches import HyperLogLog

    out = {}
    for col, label in (("c_name", "names"), ("c_mktsegment", "segments")):
        ds = _read(sf_dir, "customer", columns=[col])
        hll = _sketch_partials(
            ds, HyperLogLog,
            lambda acc, b, col=col: acc.update_array(b[col].to_numpy(zero_copy_only=False)))
        exact = len(_read(sf_dir, "customer", columns=[col]).unique(col))
        rsd = 1.04 / np.sqrt(hll.m)
        out[f"exact_{label}"] = [np.int64(exact)]
        out[f"{label}_ok"] = [bool(abs(hll.estimate() - exact) <= max(3 * rsd * exact, 2.0))]
    return pd.DataFrame(out)


def quantiles_tdigest_price(sf_dir: str) -> pd.DataFrame:
    """t-digest quantiles vs exact, tolerance-gated (0.5% relative) so the
    mergeable sketch is driver-checkable (TDigestAnalyzer.java:32-102)."""
    from ..profiling.sketches import TDigest

    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])
    td = _sketch_partials(
        ds, TDigest,
        lambda acc, b: acc.update_array(b["l_extendedprice"].to_numpy()))
    parts = [b["l_extendedprice"].to_numpy()
             for b in ds.iter_batches(batch_size=65536, batch_format="pandas")]
    vals = np.concatenate(parts)
    exact = np.percentile(vals, [25, 50, 75])
    oks = [bool(abs(td.quantile(q) - e) <= 0.005 * max(abs(e), 1.0))
           for q, e in zip((0.25, 0.5, 0.75), exact)]
    return pd.DataFrame({"n": [np.int64(len(vals))], "q25_ok": [oks[0]],
                         "median_ok": [oks[1]], "q75_ok": [oks[2]]})


HEAVY_HITTER_K = 10


def heavy_hitter_tokens_docs(sf_dir: str) -> pd.DataFrame:
    """Count-min heavy hitters over the documents token stream: the
    sketch's estimates for the EXACT top-K tokens must over-count by at
    most εN (CMS guarantee → boolean gate the exact-hash compare checks);
    exact counts come from a distributed token groupby.
    → (token, n, ok) for the top K tokens by exact count."""
    from ray.data.aggregate import Count

    from ..profiling.sketches import CountMinSketch

    ds = _read(sf_dir, "documents", columns=["text"])

    def tokens(batch: pa.Table) -> pa.Table:
        toks = [t for v in batch["text"].to_numpy(zero_copy_only=False)
                for t in (v or "").split()]
        return pa.table({"token": pa.array(toks, type=pa.string())})

    tok_ds = ds.map_batches(tokens, batch_format="pyarrow").materialize()
    exact = (tok_ds.groupby("token").aggregate(Count(alias_name="n")).to_pandas()
             .sort_values(["n", "token"], ascending=[False, True], kind="mergesort")
             .head(HEAVY_HITTER_K).reset_index(drop=True))
    cms = _sketch_partials(
        tok_ds, CountMinSketch,
        lambda acc, b: acc.update_array(b["token"].to_numpy(zero_copy_only=False)))
    est = cms.estimate(exact["token"].to_numpy(dtype=object))
    eps_n = np.e / cms.width * cms.n
    ok = (est >= exact["n"].to_numpy()) & (est - exact["n"].to_numpy() <= eps_n)
    return pd.DataFrame({"token": exact["token"], "n": exact["n"].astype(np.int64),
                         "ok": ok.astype(bool)})


def nested_profile_customer(sf_dir: str) -> pd.DataFrame:
    """Nested (struct) discovery+quality profiling: pack customer columns
    into a struct column, profile leaf paths in one distributed pass
    (AvroDataTypeDiscoveryAnalyzer.java:110-189 semantics)."""
    from ..profiling.nested import profile_nested

    ds = _read(sf_dir, "customer", columns=["c_name", "c_acctbal", "c_mktsegment"])

    def pack(b: pa.Table) -> pa.Table:
        struct = pa.StructArray.from_arrays(
            [b["c_name"].combine_chunks(), b["c_acctbal"].combine_chunks(),
             b["c_mktsegment"].combine_chunks()],
            ["name", "acctbal", "segment"],
        )
        return pa.table({"rec": struct})

    res = profile_nested(ds.map_batches(pack, batch_format="pyarrow"), ["rec"])
    rows = []
    for path, info in sorted(res.items()):
        q = info["quality"]
        rows.append((path, info["dominant_type"],
                     np.int64(q.get("valid", 0)), np.int64(q.get("null", 0))))
    return pd.DataFrame(rows, columns=["path", "dominant_type", "valid", "nulls"])


CUSTOMER_NAME_PATTERN = r"Customer#[0-9]+"


class _CustomerQualityFactory:
    """Picklable accumulator factory (local lambdas can't ride the
    cloudpickled closure AND the stdlib-pickled partials stream)."""

    def __call__(self):
        from ..profiling.analyzers import QualityAcc, RegexValidFn

        return QualityAcc(RegexValidFn(CUSTOMER_NAME_PATTERN))


def value_quality_customer(sf_dir: str) -> pd.DataFrame:
    """valid/empty/invalid tallies vs a declared pattern (ValueQuality)."""
    ds = _read(sf_dir, "customer", columns=["c_name"])
    res = profile(ds, {"c_name": [("q", _CustomerQualityFactory())]})
    r = res["c_name"]["q"]
    return pd.DataFrame({"valid": [r["valid"]], "empty": [r["empty"]], "invalid": [r["invalid"]]})


def type_inference_docs(sf_dir: str) -> pd.DataFrame:
    """DataTypeAnalyzer over stringified columns → (column_name, inferred_type, n)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", columns=["n_chars", "text"])

    def f(batch: pa.Table) -> pa.Table:
        rows_col, rows_type = [], []
        for name, arr in (("n_chars", pc.cast(batch["n_chars"], pa.string())), ("text", batch["text"])):
            types = unique_apply(arr.to_numpy(zero_copy_only=False), infer_type_one)
            rows_col.extend([name] * len(types))
            rows_type.extend(types)
        return pa.table({"column_name": pa.array(rows_col), "inferred_type": pa.array(rows_type, type=pa.string())})

    return ds.map_batches(f, batch_format="pyarrow").groupby(
        ["column_name", "inferred_type"]).aggregate(Count(alias_name="n")).to_pandas()


# ---------------------------------------------------------------------------
# dedup / sampling / linkage / survivorship
# ---------------------------------------------------------------------------


def dedup_exact_docs(sf_dir: str) -> pd.DataFrame:
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = dedup_by_key(ds, key="text", order_col="doc_id").to_pandas()
    return out[["doc_id"]].sort_values("doc_id").reset_index(drop=True)


def reservoir_sample_lineitem(sf_dir: str) -> pd.DataFrame:
    ds = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber"])
    return reservoir_sample(ds, ["l_orderkey", "l_linenumber"], k=500, seed=42)


def knn_embeddings(sf_dir: str) -> pd.DataFrame:
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qt = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qvec = np.asarray(qt["embedding"][int(np.flatnonzero(qt["vec_id"].to_numpy() == 0)[0])].as_py())
    out = cosine_topk(ds, "vec_id", "embedding", qvec, k=10)
    out["sim"] = round_half_away(out["sim"])
    return out.rename(columns={"id": "vec_id"})


def ivf_store_knn_embeddings(sf_dir: str, n_lists: int = 8) -> pd.DataFrame:
    """Top-k through the PERSISTED IVF store (hive layout, one directory
    per list): build the store, query with nprobe == n_lists — exact, so
    the brute-force cosine SQL is a hard oracle — and additionally run a
    pruned nprobe=2 probe asserting the measured I/O-level scan
    reduction (rows in probed partitions < rows in the whole store, from
    parquet footers alone). → (vec_id, sim), the knn_embeddings shape."""
    import shutil
    import tempfile

    from ..similarity.knn import build_ivf_store, ivf_scan_stats, ivf_topk_store

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qt = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qvec = np.asarray(qt["embedding"][int(np.flatnonzero(qt["vec_id"].to_numpy() == 0)[0])].as_py())

    store = tempfile.mkdtemp(prefix="dq_ivf_store_")
    try:
        build_ivf_store(ds, store, vec_col="embedding", n_lists=n_lists)
        exact, full_stats = ivf_topk_store(store, "vec_id", "embedding", qvec,
                                           k=10, nprobe=n_lists)
        # the nprobe=2 pruning assertion needs footer metadata only — no
        # second distributed read+score pass
        stats = ivf_scan_stats(store, qvec, nprobe=2)
        if not (0 < stats["rows_scanned"] < stats["rows_total"]):
            raise AssertionError(f"IVF store did not prune the scan: {stats}")
        if full_stats["rows_scanned"] != full_stats["rows_total"]:
            raise AssertionError(f"nprobe==n_lists must scan every list: {full_stats}")
    finally:
        shutil.rmtree(store, ignore_errors=True)
    exact["sim"] = round_half_away(exact["sim"])
    return exact.rename(columns={"id": "vec_id"})[["vec_id", "sim"]]


def pq_topk_embeddings(sf_dir: str) -> pd.DataFrame:
    """Compressed-domain ANN (similarity/pq.py): train m=8 × ksub=16
    product-quantization codebooks over the corpus (one fused Lloyd pass
    per round covering every subspace), encode each vector to 8 codes,
    and run ADC top-10 for vec_id 0's vector — search never touches a
    raw embedding, only the code table plus an m×ksub lookup table. The
    oracle replays encoding and ADC from the side-table codebooks
    trained by the same library code. → (vec_id, adc, rank)."""
    from ..similarity.pq import pq_encode, pq_topk, pq_train

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qt = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qvec = np.asarray(qt["embedding"][int(np.flatnonzero(qt["vec_id"].to_numpy() == 0)[0])].as_py())
    books = pq_train(ds, "vec_id", "embedding", m=8, ksub=16, iters=2)
    codes = pq_encode(ds, "vec_id", "embedding", books)
    out = pq_topk(codes, "vec_id", books, qvec, k=10)
    out["adc"] = round_half_away(out["adc"])
    out["vec_id"] = out["vec_id"].astype("int64")
    out["rank"] = np.arange(1, len(out) + 1, dtype="int64")
    return out[["vec_id", "adc", "rank"]]


def ivfpq_store_embeddings(sf_dir: str, n_lists: int = 8) -> pd.DataFrame:
    """IVF-PQ persisted store (similarity/pq.build_ivfpq_store): unit-
    normalized vectors compressed to 8 codes each, hive-partitioned by
    coarse list — the store holds CODE BYTES ONLY (no raw embeddings).
    Queried at nprobe == n_lists the scan is exhaustive, so the oracle
    replays pure normalized-ADC from the side-table codebooks; an
    additional nprobe=2 probe asserts the measured I/O-level pruning
    before returning. → (vec_id, adc, rank), the pq_topk shape."""
    import shutil
    import tempfile

    from ..similarity.pq import build_ivfpq_store, ivfpq_topk_store

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qt = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qvec = np.asarray(qt["embedding"][int(np.flatnonzero(qt["vec_id"].to_numpy() == 0)[0])].as_py())

    store = tempfile.mkdtemp(prefix="dq_ivfpq_store_")
    try:
        build_ivfpq_store(ds, store, "vec_id", "embedding", n_lists=n_lists,
                          m=8, ksub=16, iters=2)
        out, full_stats = ivfpq_topk_store(store, "vec_id", qvec, k=10,
                                           nprobe=n_lists)
        if full_stats["rows_scanned"] != full_stats["rows_total"]:
            raise AssertionError(f"nprobe==n_lists must scan every list: {full_stats}")
        _, stats = ivfpq_topk_store(store, "vec_id", qvec, k=10, nprobe=2)
        if not (0 < stats["rows_scanned"] < stats["rows_total"]):
            raise AssertionError(f"IVF-PQ store did not prune the scan: {stats}")
    finally:
        shutil.rmtree(store, ignore_errors=True)
    out["adc"] = round_half_away(out["adc"])
    out["vec_id"] = out["vec_id"].astype("int64")
    out["rank"] = np.arange(1, len(out) + 1, dtype="int64")
    return out[["vec_id", "adc", "rank"]]


def ivfpq_residual_embeddings(sf_dir: str, n_lists: int = 8) -> pd.DataFrame:
    """Residual IVF-PQ (the FAISS-standard refinement): the PQ encodes
    v − centroid[list(v)], so its 16 codes per subspace resolve the
    WITHIN-list structure; search builds one ADC lookup table per probed
    list from q − centroid[l]. Same code-only store, same I/O pruning.
    Queried exhaustively (nprobe == n_lists) so the SQL can replay
    assignment → residual → encode → per-list ADC from the side-table
    centroids + residual codebooks; the nprobe=2 pruning is asserted
    before returning. → (vec_id, adc, rank)."""
    import shutil
    import tempfile

    from ..similarity.pq import build_ivfpq_store, ivfpq_topk_store

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qt = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qvec = np.asarray(qt["embedding"][int(np.flatnonzero(qt["vec_id"].to_numpy() == 0)[0])].as_py())

    store = tempfile.mkdtemp(prefix="dq_ivfpq_res_")
    try:
        build_ivfpq_store(ds, store, "vec_id", "embedding", n_lists=n_lists,
                          m=8, ksub=16, iters=2, residual=True)
        out, full_stats = ivfpq_topk_store(store, "vec_id", qvec, k=10,
                                           nprobe=n_lists)
        if full_stats["rows_scanned"] != full_stats["rows_total"]:
            raise AssertionError(f"nprobe==n_lists must scan every list: {full_stats}")
        _, stats = ivfpq_topk_store(store, "vec_id", qvec, k=10, nprobe=2)
        if not (0 < stats["rows_scanned"] < stats["rows_total"]):
            raise AssertionError(f"residual store did not prune: {stats}")
    finally:
        shutil.rmtree(store, ignore_errors=True)
    out["adc"] = round_half_away(out["adc"])
    out["vec_id"] = out["vec_id"].astype("int64")
    out["rank"] = np.arange(1, len(out) + 1, dtype="int64")
    return out[["vec_id", "adc", "rank"]]


def cross_run_profile_orders(sf_dir: str) -> pd.DataFrame:
    """Day-over-day profiling through the cross-run profile store
    (state/profile_store.py): 'day 1' = even order keys, 'day 2' = odd,
    each committed as one generation of MERGEABLE analyzer accumulators;
    the cumulative profile is the merge of the two blobs — day 1's rows
    are never re-read. The oracle recomputes the same statistics over
    the whole orders table (the union of both days).
    → one row (n_runs, n_price, sum_price, min_price, max_price,
    avg_price, n_prio, sum_prio_len, avg_prio_len)."""
    import shutil
    import tempfile

    from ..state.profile_store import ProfileStore

    spec = {"o_totalprice": ["summary"], "o_orderpriority": ["text_length"]}
    base = lambda: _read(sf_dir, "orders",  # noqa: E731
                         columns=["o_orderkey", "o_totalprice", "o_orderpriority"])
    store_dir = tempfile.mkdtemp(prefix="dq_profile_store_")
    try:
        store = ProfileStore(store_dir)
        for day, keep in (("day1", 0), ("day2", 1)):
            ds = base().map_batches(
                lambda b, k=keep: b[b["o_orderkey"] % 2 == k],
                batch_format="pandas")
            store.commit(ds, spec, run_label=day)
        n_runs = store.n_runs()
        m = store.merged()
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    s, t = m["o_totalprice"]["summary"], m["o_orderpriority"]["text_length"]
    return pd.DataFrame({
        "n_runs": pd.Series([n_runs], dtype="int64"),
        "n_price": pd.Series([s["count"]], dtype="int64"),
        "sum_price": [round(s["sum"], 2)],
        "min_price": [s["min"]],
        "max_price": [s["max"]],
        "avg_price": [round(s["mean"], 6)],
        "n_prio": pd.Series([t["count"]], dtype="int64"),
        "sum_prio_len": pd.Series([t["sum_length"]], dtype="int64"),
        "avg_prio_len": [round(t["avg_length"], 6)],
    })


def window_rank_orders(sf_dir: str) -> pd.DataFrame:
    """Ranking analytics in one window exchange: per order-status
    partition, SQL RANK / DENSE_RANK over the (tied) priority prefix and
    NTILE(4) / ROW_NUMBER over the total (priority, orderkey) order —
    the rank family added to functions/window.window_ops.
    → (o_orderkey, o_orderstatus, seq, rnk, drnk, quartile)."""
    from ..functions.window import window_ops

    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_orderstatus", "o_orderpriority"])
    out = window_ops(ds, by="o_orderstatus",
                     order_by=["o_orderpriority", "o_orderkey"],
                     ops={"seq": ("row_number",),
                          "rnk": ("rank", ["o_orderpriority"]),
                          "drnk": ("dense_rank", ["o_orderpriority"]),
                          "quartile": ("ntile", 4)}).to_pandas()
    for c in ("o_orderkey", "seq", "rnk", "drnk", "quartile"):
        out[c] = out[c].astype("int64")
    return (out[["o_orderkey", "o_orderstatus", "seq", "rnk", "drnk", "quartile"]]
            .sort_values(["o_orderstatus", "seq"]).reset_index(drop=True))


def tpch_q3_shipping(sf_dir: str, segment: str = "BUILDING",
                     cutoff: str = "1998-06-01") -> pd.DataFrame:
    """TPC-H Q3-shaped 3-table composition proving the join machinery
    pipelines: segment-filtered customer keys reach orders as a
    BROADCAST semi filter when the measured key count fits (zero
    exchange — the collect↔shuffle gate pattern; above the gate, a
    keys-only SEMI shuffle), ship-date-filtered lineitem collapses to
    per-order revenue partials INSIDE ``agg_join`` (one fused exchange,
    full lineitem rows never ride the shuffle), and the top-10 is
    per-batch partial top-k + a driver merge of ≤10 rows per block —
    ONE all-to-all total on the broadcast path.
    → (o_orderkey, revenue, o_orderdate, o_orderpriority) top-10 by
    revenue."""
    from ..functions.joins import agg_join, broadcast_join, hash_join

    cut = np.datetime64(cutoff)
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"],
                 blocks=8) \
        .map_batches(lambda b: b[b["c_mktsegment"] == segment]
                     .rename(columns={"c_custkey": "o_custkey"})
                     [["o_custkey"]], batch_format="pandas")
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate",
                            "o_orderpriority"]) \
        .map_batches(lambda b: b[b["o_orderdate"].to_numpy() < cut],
                     batch_format="pandas")
    line = _read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_extendedprice", "l_discount",
                          "l_shipdate"]) \
        .map_batches(lambda b: pd.DataFrame({
            "o_orderkey": b["l_orderkey"],
            "rev": b["l_extendedprice"] * (1.0 - b["l_discount"]),
        })[b["l_shipdate"].to_numpy() > cut], batch_format="pandas")

    cust = cust.materialize()  # small side: segment-filtered keys only
    if fits("queries.tpch_q3_shipping", cust.count(), "collect_rows"):
        qualified = broadcast_join(orders, cust.to_pandas(),
                                   on="o_custkey", right_cols=[],
                                   how="semi")
    else:
        qualified = hash_join(orders, cust, on="o_custkey", right_cols=[],
                              how="semi", n_buckets=32)
    joined = agg_join(qualified, line, on="o_orderkey",
                      aggs={"revenue": ("rev", "sum")}, how="inner",
                      n_buckets=32)

    def topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["revenue", "o_orderkey"],
                             ascending=[False, True]).head(10)

    out = (joined.map_batches(topk, batch_format="pandas").to_pandas()
           .sort_values(["revenue", "o_orderkey"],
                        ascending=[False, True]).head(10)
           .reset_index(drop=True))
    out["revenue"] = out["revenue"].round(2)
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    return out[["o_orderkey", "revenue", "o_orderdate", "o_orderpriority"]]


def grouped_sample_docs(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Exact k-per-language uniform sample of documents under the md5
    order contract (sampling/reservoir.grouped_reservoir_sample) — the
    SQL replays it as row_number() OVER (PARTITION BY lang ORDER BY
    md5(...)). → (lang, doc_id) sorted."""
    from ..sampling.reservoir import grouped_reservoir_sample

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    out = grouped_reservoir_sample(ds, key_cols=["doc_id"],
                                   group_col="lang", k=k)
    out["doc_id"] = out["doc_id"].astype("int64")
    return (out[["lang", "doc_id"]].sort_values(["lang", "doc_id"])
            .reset_index(drop=True))


def skew_report_events(sf_dir: str) -> pd.DataFrame:
    """Shuffle-planning skew diagnostics on the events stream's user key:
    exact per-key count quantiles + the heaviest keys, computed with
    driver state bounded by the count frequency-of-frequencies table
    (profiling/skew.key_skew_report). → top-10 rows (rank, user_id, cnt)
    carrying the summary columns."""
    from ..profiling.skew import key_skew_report

    ds = _read(sf_dir, "events", columns=["user_id"])
    r = key_skew_report(ds, "user_id", top_k=10)
    top = r["top"].copy()
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    for c in ("n_rows", "n_keys", "max_cnt", "cnt_p50", "cnt_p90",
              "cnt_p99"):
        top[c] = np.int64(r[c])
    top["max_over_mean"] = round(r["max_over_mean"], 6)
    top["user_id"] = top["user_id"].astype("int64")
    top["cnt"] = top["cnt"].astype("int64")
    return top[["rank", "user_id", "cnt", "n_rows", "n_keys", "max_cnt",
                "cnt_p50", "cnt_p90", "cnt_p99", "max_over_mean"]]


def window_value_orders(sf_dir: str) -> pd.DataFrame:
    """Value/distribution window family in one exchange: per order-status
    partition over the (priority, orderkey) total order — PERCENT_RANK /
    CUME_DIST on the tied priority prefix, FIRST_VALUE / LAST_VALUE /
    NTH_VALUE(3) of the total price over the whole-partition frame.
    → (o_orderkey, o_orderstatus, pr, cd, first_price, last_price,
    third_price)."""
    from ..functions.window import window_ops

    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_orderstatus", "o_orderpriority",
                        "o_totalprice"])
    out = window_ops(ds, by="o_orderstatus",
                     order_by=["o_orderpriority", "o_orderkey"],
                     ops={"pr": ("percent_rank", ["o_orderpriority"]),
                          "cd": ("cume_dist", ["o_orderpriority"]),
                          "first_price": ("first_value", "o_totalprice"),
                          "last_price": ("last_value", "o_totalprice"),
                          "third_price": ("nth_value", "o_totalprice", 3)}
                     ).to_pandas()
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    for c in ("pr", "cd"):
        out[c] = round_half_away(out[c])
    for c in ("first_price", "last_price", "third_price"):
        out[c] = out[c].round(2)
    return (out[["o_orderkey", "o_orderstatus", "pr", "cd",
                 "first_price", "last_price", "third_price"]]
            .sort_values("o_orderkey").reset_index(drop=True))


def moving_avg_events(sf_dir: str, frame: int = 7) -> pd.DataFrame:
    """Moving-frame analytics: per user in (ts, event_id) order, the
    7-row trailing sum and mean of ``value`` (SQL ROWS BETWEEN 6
    PRECEDING AND CURRENT ROW; partial frames at the head) — the window
    frame family of window_ops, same single exchange.
    → (event_id, user_id, roll_sum, roll_avg)."""
    from ..functions.window import window_ops

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "value"])
    out = window_ops(ds, by="user_id", order_by=["ts", "event_id"],
                     ops={"roll_sum": ("rolling_sum", "value", frame),
                          "roll_avg": ("rolling_mean", "value", frame)}).to_pandas()
    out["roll_sum"] = round_half_away(out["roll_sum"])
    out["roll_avg"] = round_half_away(out["roll_avg"])
    out["event_id"] = out["event_id"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    return (out[["event_id", "user_id", "roll_sum", "roll_avg"]]
            .sort_values("event_id").reset_index(drop=True))


DRIFT_HIST_LO, DRIFT_HIST_HI, DRIFT_HIST_BINS = 0.0, 600_000.0, 12


def cross_run_drift_orders(sf_dir: str) -> pd.DataFrame:
    """Drift monitoring straight off the cross-run profile store: 'day 1'
    = even order keys at recorded prices, 'day 2' = odd keys with a
    deterministic +20% price shift; each day commits ONE histogram
    accumulator generation, and PSI between consecutive runs is computed
    from the STORED counts (state/profile_store.ProfileStore.drift) —
    history is never re-read. The SQL recomputes both day-histograms and
    the PSI from the raw table. → (run_prev, run_cur, psi)."""
    import shutil
    import tempfile

    from ..profiling.analyzers import HistogramAcc
    from ..state.profile_store import ProfileStore

    spec = {"o_totalprice": [("hist", lambda: HistogramAcc(
        DRIFT_HIST_LO, DRIFT_HIST_HI, DRIFT_HIST_BINS))]}
    base = lambda: _read(sf_dir, "orders",  # noqa: E731
                         columns=["o_orderkey", "o_totalprice"])

    def day(keep: int, scale: float):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            b = b[b["o_orderkey"] % 2 == keep].copy()
            b["o_totalprice"] = b["o_totalprice"] * scale
            return b
        return base().map_batches(f, batch_format="pandas")

    store_dir = tempfile.mkdtemp(prefix="dq_drift_store_")
    try:
        store = ProfileStore(store_dir)
        store.commit(day(0, 1.0), spec, run_label="day1")
        store.commit(day(1, 1.2), spec, run_label="day2")
        out = store.drift("o_totalprice", "hist", eps=PSI_EPS)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return out.reset_index(drop=True)


def cross_run_neardup_docs(sf_dir: str) -> pd.DataFrame:
    """Cross-run near-dup screen driven end-to-end through the persisted
    MinHash LSH index (state/minhash_index.py): 'yesterday' = even
    doc_ids committed as a generation, 'today' = odd doc_ids screened
    against it in one streaming pass. md5 key mode makes every band key
    SQL-replayable, so the oracle recomputes the whole screen (keys,
    membership, per-doc hit counts) from scratch.
    → (doc_id, n_hit_bands, known_neardup) for today's docs."""
    import shutil
    import tempfile

    from ..state.minhash_index import MinhashIndex

    # the docs table reads as a handful of blocks at bench scale; the md5
    # signature kernel (the oracle contract) is the work, so spread it —
    # measured 5.1 s → ~2.5 s at sf0.1 / 32 CPUs
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"]).repartition(16)

    def half(par):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            return b[b["doc_id"] % 2 == par]
        return f

    d = tempfile.mkdtemp(prefix="dq_mh_idx_")
    try:
        idx = MinhashIndex(d, hash_fn="md5")
        idx.commit(ds.map_batches(half(0), batch_format="pandas"),
                   "doc_id", "text")
        out = (idx.screen(ds.map_batches(half(1), batch_format="pandas"),
                          "doc_id", "text")
               .to_pandas())
    finally:
        shutil.rmtree(d, ignore_errors=True)
    return (out[["doc_id", "n_hit_bands", "known_neardup"]]
            .sort_values("doc_id").reset_index(drop=True))


def matching_pairs_supplier(sf_dir: str) -> pd.DataFrame:
    """Blocked fuzzy self-join: same 14-char prefix block, levenshtein ≤ 2
    (matches DuckDB's levenshtein). Blocking assumption documented: pairs
    across blocks are not compared. Runs on the driver within the
    ``matching_rows`` size gate, as a bucketed exchange above it."""
    ds = _read(sf_dir, "supplier", columns=["s_suppkey", "s_name"])

    def add_key(b: pd.DataFrame) -> pd.DataFrame:
        b["bk"] = b["s_name"].str[:14]
        return b

    def _block_pairs(names: np.ndarray) -> pd.DataFrame:
        from ..functions.matchers import levenshtein_pairs_fixed

        lens = np.array([len(n) for n in names])
        ia, ib = np.triu_indices(len(names), k=1)
        if len(ia) and (lens == lens[0]).all():
            # block guarantees a 14-char common prefix; equal lengths →
            # lev(full, full) == lev(suffix, suffix), vectorized DP
            codes = np.array([[ord(c) for c in n[14:]] for n in names], dtype=np.int64)
            d = levenshtein_pairs_fixed(codes[ia], codes[ib])
        else:
            d = np.array([levenshtein_distance(names[i], names[j]) for i, j in zip(ia, ib)],
                         dtype=np.int64)
        keep = d <= 2
        return pd.DataFrame({"name_a": names[ia[keep]], "name_b": names[ib[keep]],
                             "dist": pd.array(d[keep], dtype="int64")})

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("s_name", kind="mergesort")
        frames = [_block_pairs(sub["s_name"].to_numpy(dtype=object))
                  for _, sub in g.groupby("bk", sort=True)]
        frames = [f for f in frames if len(f)]
        if not frames:
            return pd.DataFrame({"name_a": pd.Series(dtype=object),
                                 "name_b": pd.Series(dtype=object),
                                 "dist": pd.Series(dtype="int64")})
        return pd.concat(frames, ignore_index=True)

    ds = ds.materialize()
    if fits("queries.matching_pairs_supplier", ds.count(), "matching_rows"):
        # one task's worth of work: fetch the two columns, run the same
        # per-block vectorized kernel driver-side — zero shuffle rounds
        pdf = ds.to_pandas()
        pdf["bk"] = pdf["s_name"].str[:14]
        pdf = pdf.sort_values("s_name", kind="mergesort")
        frames = [_block_pairs(sub["s_name"].to_numpy(dtype=object))
                  for _, sub in pdf.groupby("bk", sort=True)]
        frames = [f for f in frames if len(f)]
        out = pd.concat(frames, ignore_index=True) if frames else pd.DataFrame(
            {"name_a": pd.Series(dtype=object), "name_b": pd.Series(dtype=object),
             "dist": pd.Series(dtype="int64")})
    else:
        # hash-bucket the BLOCKS: one Python callback per bucket of many
        # blocks, never per tiny block (the map_groups scaling trap)
        out = bucket_exchange(ds.map_batches(add_key, batch_format="pandas"),
                              "bk", pairs_in_bucket, 16).to_pandas()
    return out.sort_values(["name_a", "name_b"]).reset_index(drop=True)


def blocking_fingerprint_part(sf_dir: str) -> pd.DataFrame:
    """Fingerprint blocking keys + block sizes (BlockingKeyHandler)."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "part", columns=["p_type"])

    def f(batch: pa.Table) -> pa.Table:
        keys = unique_apply(batch["p_type"].to_numpy(zero_copy_only=False), fingerprint_key_one)
        return pa.table({"block_key": pa.array(keys, type=pa.string())})

    return ds.map_batches(f, batch_format="pyarrow").groupby("block_key").aggregate(
        Count(alias_name="n")).to_pandas()


def golden_record_orders(sf_dir: str) -> pd.DataFrame:
    """Survivorship per customer: MostRecent / Largest / MostCommon."""
    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_totalprice", "o_orderpriority"])
    out = golden_records(
        ds, "o_custkey",
        {"o_orderdate": "MostRecent", "o_totalprice": "Largest", "o_orderpriority": "MostCommon"},
    ).to_pandas()
    out = out.rename(columns={"o_orderdate": "most_recent", "o_totalprice": "largest_total",
                              "o_orderpriority": "common_priority"})
    out["largest_total"] = out["largest_total"].astype(float).round(2)
    return out


def survivorship_extended_orders(sf_dir: str) -> pd.DataFrame:
    """Survivorship with the parameterized rule family: SurviveAs (price
    from the most-recent order's row), RemoveDuplicate (first clerk in
    orderkey order), Expression (smallest total above a threshold).
    Reference: model/RuleDefinition.java:195-221."""
    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice", "o_orderpriority"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_custkey": b["o_custkey"],
            "o_orderdate": b["o_orderdate"],
            "recent_price": b["o_totalprice"],
            "first_priority": b["o_orderpriority"],
            "__ord": b["o_orderkey"],
            "price_over_150k": b["o_totalprice"],
        })

    out = golden_records(
        ds.map_batches(prep, batch_format="pandas"), "o_custkey",
        {
            "o_orderdate": "MostRecent",
            "recent_price": ("SurviveAs", "o_orderdate"),
            "first_priority": ("RemoveDuplicate", "__ord"),
            "price_over_150k": ("Expression", "> 150000"),
        },
    ).to_pandas()
    out["recent_price"] = out["recent_price"].astype(float).round(2)
    out["price_over_150k"] = out["price_over_150k"].astype(float).round(2)
    return out


def customer_region_broadcast(sf_dir: str) -> pd.DataFrame:
    """Broadcast small-side join (standardization pattern): nation→region
    dict is ray.put once, read per task; no shuffle join."""
    import ray

    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    region = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    lookup = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")
    ref = ray.put(dict(zip(lookup["n_nationkey"], lookup["r_name"])))

    from ..functions.broadcast import cached_get

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        d = cached_get(ref)
        return pd.DataFrame({"c_custkey": batch["c_custkey"],
                             "r_name": batch["c_nationkey"].map(d)})

    return (
        _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
        .map_batches(f, batch_format="pandas").to_pandas()
    )


def embedding_neardup_pairs(sf_dir: str) -> pd.DataFrame:
    """Within-label cosine near-dup pairs (partitioning assumption: the
    label column is the bucket)."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])
    return neardup_pairs_within(ds, "vec_id", "embedding", "label", threshold=0.2)


# ---------------------------------------------------------------------------
# converters
# ---------------------------------------------------------------------------


def julian_orders(sf_dir: str) -> pd.DataFrame:
    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"o_orderkey": batch["o_orderkey"],
                             "jd": np.round(julian_days(batch["o_orderdate"].to_numpy()), 6)})

    return ds.map_batches(f, batch_format="pandas").to_pandas()


def distance_convert_part(sf_dir: str) -> pd.DataFrame:
    ds = _read(sf_dir, "part", columns=["p_partkey", "p_size"])

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"p_partkey": batch["p_partkey"],
                             "km": np.round(convert_distance(batch["p_size"].to_numpy(), "MILE", "KILOMETER"), 6)})

    return ds.map_batches(f, batch_format="pandas").to_pandas()


def token_stats_docs(sf_dir: str) -> pd.DataFrame:
    from ..profiling.groupagg import grouped_aggregate

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def f(batch: pa.Table) -> pa.Table:
        return pa.table({"source": batch["source"],
                         "n_tok": pa.array(token_counts(batch["text"]), type=pa.int64())})

    out = grouped_aggregate(
        ds.map_batches(f, batch_format="pyarrow"), ["source"],
        {"n_docs": ("", "count"), "sum_tokens": ("n_tok", "sum")},
    )
    out["avg_tokens"] = round_half_away((out["sum_tokens"] / out["n_docs"]))
    return out


def events_hourly_window(sf_dir: str) -> pd.DataFrame:
    """Tumbling one-hour windows over the events stream table (the input
    treated as an ordered log; windows = groupby(type, hour) since the
    aggregate is algebraic — no per-key state needed). → (event_type,
    window_start, n, sum_value)."""
    from ..profiling.groupagg import grouped_aggregate

    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def add_window(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": b["event_type"],
                             "window_start": b["ts"].dt.floor("h"),
                             "value": b["value"]})

    out = grouped_aggregate(
        ds.map_batches(add_window, batch_format="pandas"),
        ["event_type", "window_start"],
        {"n": ("", "count"), "sum_value": ("value", "sum")},
    )
    out["sum_value"] = round_half_away(out["sum_value"])
    return out


def events_sliding_window(sf_dir: str, size_min: int = 60, slide_min: int = 15) -> pd.DataFrame:
    """Sliding one-hour windows advancing every 15 min over the events
    log: each event belongs to size/slide = 4 windows — assignment is a
    vectorized flat-map (np.repeat over slide offsets), then the same
    algebraic groupby as the tumbling case. → (event_type, window_start,
    n, sum_value)."""
    from ..profiling.groupagg import grouped_aggregate

    k = size_min // slide_min
    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        base = b["ts"].dt.floor(f"{slide_min}min")
        n = len(b)
        starts = np.repeat(base.to_numpy(), k) - np.tile(
            np.arange(k) * np.timedelta64(slide_min, "m"), n)
        return pd.DataFrame({
            "event_type": np.repeat(b["event_type"].to_numpy(), k),
            "window_start": starts,
            "value": np.repeat(b["value"].to_numpy(), k),
        })

    out = grouped_aggregate(
        ds.map_batches(assign, batch_format="pandas"),
        ["event_type", "window_start"],
        {"n": ("", "count"), "sum_value": ("value", "sum")},
    )
    out["sum_value"] = round_half_away(out["sum_value"])
    return out


def asof_last_order_events(sf_dir: str) -> pd.DataFrame:
    """As-of join: each event enriched with the user's most recent order
    at or before the event time (right side pre-aggregated to one row per
    (custkey, date) so the as-of pick is deterministic — the same
    requirement DuckDB's native ASOF JOIN oracle has).
    → (user_id, ts, last_order_date, last_order_price)."""
    from ..profiling.groupagg import grouped_aggregate

    events = _read(sf_dir, "events", columns=["user_id", "ts"])
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_totalprice"])
    right = grouped_aggregate(
        orders.map_batches(
            lambda b: pd.DataFrame({"user_id": b["o_custkey"],
                                    "last_order_date": b["o_orderdate"],
                                    "price": b["o_totalprice"]}),
            batch_format="pandas"),
        ["user_id", "last_order_date"], {"last_order_price": ("price", "max")},
    )
    # the aggregated right side is SMALL (one row per (user, date)) →
    # broadcast variant: zero shuffle, one merge_asof per event batch
    # (shuffle-variant parity pinned in tests/test_operators.py)
    from ..functions.joins import asof_join_broadcast

    out = asof_join_broadcast(events, right, by="user_id", left_on="ts",
                              right_on="last_order_date",
                              right_cols=["last_order_price"]).to_pandas()
    out["last_order_price"] = out["last_order_price"].round(2)
    return out


PRICE_BANDS = [(i * 25_000.0, (i + 1) * 25_000.0, f"band{i:02d}") for i in range(24)]


def range_join_orders_bands(sf_dir: str) -> pd.DataFrame:
    """Banded range join: each order tagged with its deterministic price
    band ([lo, hi) intervals broadcast once, searchsorted per batch) and
    aggregated per band. → (band, n, sum_price)."""
    from ..functions.joins import range_join
    from ..profiling.groupagg import grouped_aggregate

    bands = pd.DataFrame(PRICE_BANDS, columns=["lo", "hi", "band"])
    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    joined = range_join(ds, bands, on="o_totalprice", lo_col="lo", hi_col="hi",
                        attach_cols=["band"])
    out = grouped_aggregate(joined, ["band"],
                            {"n": ("", "count"), "sum_price": ("o_totalprice", "sum")})
    out["sum_price"] = out["sum_price"].round(2)
    return out


def session_windows_events(sf_dir: str) -> pd.DataFrame:
    """Per-user session windows (30-min inactivity gap) over the events
    log: the stream-shaped pattern — partition by key, sort by ts within
    the partition, window inside ``map_groups`` (guide: 'streaming-shaped
    workloads'; ordering assumption: per-user event order by ts).
    → (user_id, n_sessions, longest_session_events)."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized per bucket: groups are hash-bucketed users; within
        # the bucket one pandas pass computes per-user session ids
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        new_user = g["user_id"].ne(g["user_id"].shift())
        gap = g["ts"].diff() > pd.Timedelta(minutes=30)
        session_id = (new_user | gap).cumsum()
        per_session = g.groupby([g["user_id"], session_id]).size()
        out = per_session.groupby(level=0).agg(["count", "max"]).reset_index()
        out.columns = ["user_id", "n_sessions", "longest_session_events"]
        return out

    out = bucket_exchange(ds, "user_id", sessions, 32).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


BPE_MERGES = 24       # shared with the SQL replay (__ray_entry__._bpe_sql)
BPE_TOPK = 50


def bpe_tokens_docs(sf_dir: str) -> pd.DataFrame:
    """Distributed BPE: word-frequency exchange → driver merge learning
    over the compressed vocab (deterministic ties) → vectorized
    broadcast apply → token-frequency fold (token vocab ≤ symbols +
    n_merges, driver merge is fixed-size). Top-`BPE_TOPK` corpus tokens
    under `BPE_MERGES` learned merges; the SQL oracle re-derives word
    counts from raw text and replays the merge application through a
    recursive CTE from sidecar merges trained by this same code path.
    → (token, n) ordered by (n desc, token)."""
    from ..functions.bpe import bpe_token_counts, train_bpe

    ds = _read(sf_dir, "documents", columns=["text"])
    merges = train_bpe(ds, "text", BPE_MERGES)
    counts = bpe_token_counts(ds, "text", merges)
    return counts.head(BPE_TOPK).reset_index(drop=True)


def retention_cohorts_events(sf_dir: str) -> pd.DataFrame:
    """Weekly cohort retention (cohort = user's first active week):
    ONE user-keyed exchange of per-batch distinct (user, week) pairs;
    the (cohort × offset) matrix merges on the driver.
    → (cohort_week, week_offset, n_users, retention)."""
    from ..functions.cohort import cohort_retention

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    return cohort_retention(ds, "user_id", "ts")


def tumbling_daily_events(sf_dir: str) -> pd.DataFrame:
    """Tumbling-window aggregate: per (event_type, day) count / sum /
    mean of value — per-batch algebraic partials, driver merge ∝
    days × types. → (event_type, window_start, n, sum_value,
    avg_value)."""
    from ..functions.cohort import tumbling_aggregate

    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])
    return tumbling_aggregate(ds, "ts", ["event_type"], "value", unit="day")


def json_extract_events(sf_dir: str) -> pd.DataFrame:
    """Semi-structured ELT: extract ``$.k`` from the JSON props blob as
    a typed column (vectorized per-batch DuckDB parse — never a Python
    json.loads row loop), then per-event-type stats via per-batch
    partials + a driver merge over the 5 groups.
    → (event_type, n, avg_k, max_k)."""
    from ..functions.jsoncol import json_extract_col

    ds = _read(sf_dir, "events", columns=["event_type", "props"])
    ext = json_extract_col(ds, "props", "$.k", "k")

    def part(b: pd.DataFrame) -> pd.DataFrame:
        return (b.groupby("event_type", sort=False)["k"]
                .agg(n="size", s="sum", mx="max").reset_index())

    parts = ext.map_batches(part, batch_format="pandas").to_pandas()
    agg = parts.groupby("event_type", sort=True).agg(
        n=("n", "sum"), s=("s", "sum"), mx=("mx", "max")).reset_index()
    return pd.DataFrame({
        "event_type": agg["event_type"],
        "n": agg["n"].astype("int64"),
        "avg_k": round_half_away((agg["s"] / agg["n"])),
        "max_k": agg["mx"].astype("int64"),
    }).reset_index(drop=True)


def json_profile_events(sf_dir: str) -> pd.DataFrame:
    """Schema discovery over the JSON props column: per key, presence
    count, per-JSON-type tally and numeric min/max — the nested-
    analyzer pattern for schemaless blobs; driver state ∝ distinct
    keys. → (key, n_present, n_<type>…, min_num, max_num)."""
    from ..functions.jsoncol import json_profile

    ds = _read(sf_dir, "events", columns=["props"])
    out = json_profile(ds, "props")
    for c in out.columns:
        if c.startswith("n_"):
            out[c] = out[c].astype("int64")
    return out


def funnel_conversion_events(sf_dir: str) -> pd.DataFrame:
    """Ordered-event funnel view → click → purchase: per user the
    first-reach chain (each step strictly after the previous step's
    reach time), folded to per-step converted-user counts and average
    hours from the previous step. Events prune to the funnel types at
    the batch level; ONE user-keyed exchange; per-bucket (count,
    gap-sum) partials sum on the driver.
    → (step, event_type, users, avg_hours_from_prev)."""
    from ..functions.funnel import funnel_counts

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    return funnel_counts(ds, "user_id", "ts", "event_type",
                         ["view", "click", "purchase"])


def email_validate_customers(sf_dir: str) -> pd.DataFrame:
    """EmailVerify chain over deterministically synthesized emails
    (c_name + nation-keyed domain): (c_custkey, email, valid)."""
    from ..rules.email import EmailVerify

    ds = _read(sf_dir, "customer", columns=["c_custkey", "c_name", "c_nationkey"])
    cfg = EmailVerify()

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        domain = np.where(batch["c_nationkey"] % 3 == 0, "mail.example.com",
                          np.where(batch["c_nationkey"] % 3 == 1, "web.example.org",
                                   "x.example.zz"))
        email = batch["c_name"].str.lower().str.replace("#", ".", regex=False) + "@" + domain
        verdict, _ = cfg.verify(email.to_numpy(dtype=object))
        return pd.DataFrame({"c_custkey": batch["c_custkey"], "email": email,
                             "valid": verdict == "VALID"})

    return ds.map_batches(f, batch_format="pandas").to_pandas()


def phone_e164_customers(sf_dir: str) -> pd.DataFrame:
    """Phone parse/format/validity surface (PhoneNumberHandlerBase
    formatE164:120 + isValidPhoneNumber:78) over deterministically
    synthesized national numbers; every 7th number is one digit short
    (possible but NOT valid under the US numbering plan)."""
    from ..rules.phone import is_valid
    from ..rules.scrub import phone_format_e164

    ds = _read(sf_dir, "customer", columns=["c_custkey"])

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch["c_custkey"]
        short = (k % 7 == 0)
        suffix = (k % 10000).astype(str).str.zfill(4).where(~short,
                  (k % 1000).astype(str).str.zfill(3))
        raw = "(" + (200 + k % 700).astype(str) + ") 555-" + suffix
        arr = raw.to_numpy(dtype=object)
        return pd.DataFrame({
            "c_custkey": k, "raw": raw,
            "e164": unique_apply(arr, phone_format_e164),
            "valid": unique_apply(arr, lambda v: is_valid(v, "US")).astype(bool),
        })

    return ds.map_batches(f, batch_format="pandas").to_pandas()


def date_format_roundtrip(sf_dir: str) -> pd.DataFrame:
    """Datetime pattern recognition + re-rendering: US slash strings →
    recognized pattern → ISO (SystemDateTimePatternManager +
    DateCalendarConverter shape)."""
    from ..functions.converters import convert_date_format

    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        slash = batch["o_orderdate"].dt.strftime("%m/%d/%Y")
        iso = convert_date_format(slash.to_numpy(dtype=object), "yyyy-MM-dd")
        return pd.DataFrame({"o_orderkey": batch["o_orderkey"], "us_form": slash,
                             "iso_form": iso.astype(str)})

    return ds.map_batches(f, batch_format="pandas").to_pandas()


PHONETIC_ALGOS = (("soundex", "SOUNDEX"), ("metaphone", "METAPHONE"),
                  ("dmetaphone", "DOUBLE_METAPHONE"),
                  ("cologne", "COLOGNE_PHONETIC"), ("soundex_fr", "SOUNDEX_FR"))


def phonetic_keys_part(sf_dir: str) -> pd.DataFrame:
    """Phonetic blocking keys over p_name for the full matcher/blocking
    family (SOUNDEX, METAPHONE, DOUBLE_METAPHONE, COLOGNE_PHONETIC,
    SOUNDEX_FR). Oracle: a serially-computed golden table (same shared key
    functions — the driver check pins distributed == serial; the
    algorithms themselves are pinned to reference vectors in
    tests/test_reference_vectors.py)."""
    from ..dedup.blocking import KEY_ALGOS

    ds = _read(sf_dir, "part", columns=["p_partkey", "p_name"])

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        names = batch["p_name"].to_numpy(dtype=object)
        out = {"p_partkey": batch["p_partkey"]}
        for col, algo in PHONETIC_ALGOS:
            fn = KEY_ALGOS[algo]
            out[col] = unique_apply(names, lambda v, fn=fn: fn(v, None))
        return pd.DataFrame(out)

    return ds.map_batches(f, batch_format="pandas").to_pandas()


def chronology_convert_orders(sf_dir: str) -> pd.DataFrame:
    """DateCalendarConverter over o_orderdate: ISO → ThaiBuddhist, Minguo,
    tabular-Hijrah and Japanese-era renderings
    (converters/DateCalendarConverter.java:43-200). The DuckDB oracle
    recomputes all four independently — incl. the 30-year-cycle Islamic
    calendar arithmetic in pure SQL."""
    from ..functions.chronology import ChronoDateConverter

    convs = [
        ("thai", ChronoDateConverter(out_chronology="ThaiBuddhist")),
        ("minguo", ChronoDateConverter(out_chronology="Minguo")),
        ("hijrah", ChronoDateConverter(out_chronology="Hijrah")),
        ("japanese", ChronoDateConverter(out_chronology="Japanese")),  # 'yyyy-MM-dd G'
    ]
    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        iso = batch["o_orderdate"].dt.strftime("%Y-%m-%d").to_numpy(dtype=object)
        out = {"o_orderkey": batch["o_orderkey"]}
        for col, cv in convs:
            out[col] = cv.convert_values(iso)
        return pd.DataFrame(out)

    return ds.map_batches(f, batch_format="pandas").to_pandas()


def word_pattern_freq_part(sf_dir: str) -> pd.DataFrame:
    """Word-level pattern frequency (WordPatternRecognizer) over p_name."""
    from ray.data.aggregate import Count

    from ..functions.text import word_pattern_one

    ds = _read(sf_dir, "part", columns=["p_name"])

    def f(batch: pa.Table) -> pa.Table:
        pats = unique_apply(batch["p_name"].to_numpy(zero_copy_only=False), word_pattern_one)
        return pa.table({"word_pattern": pa.array(pats, type=pa.string())})

    return ds.map_batches(f, batch_format="pyarrow").groupby("word_pattern").aggregate(
        Count(alias_name="n")).to_pandas()


# ---------------------------------------------------------------------------
# rows-only queries (no SQL equivalent — model / sketch / backref ops)
# ---------------------------------------------------------------------------


def langid_heuristic_docs(sf_dir: str) -> pd.DataFrame:
    """Heuristic language-ID distribution. Model init is ~0 ms, so the
    stage runs as a TASK pool with a per-process model singleton
    (stages/models.process_model) — no per-query actor launches."""
    from ray.data.aggregate import Count

    from ..stages.models import process_model

    ds = _read(sf_dir, "documents", columns=["text"])

    def stage(batch: pa.Table) -> pa.Table:
        model = process_model(HeuristicLangID)
        pred = model.predict(batch["text"].to_numpy(zero_copy_only=False))
        return pa.table({"lang_pred": pa.array(pred, type=pa.string())})

    return (
        ds.map_batches(stage, batch_format="pyarrow")
        .groupby("lang_pred").aggregate(Count(alias_name="n")).to_pandas()
    )


def perplexity_docs(sf_dir: str) -> pd.DataFrame:
    """KenLM-style perplexity scoring (model built once per worker
    process — task pool, see process_model)."""
    from ..stages.models import process_model

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def stage(batch: pa.Table) -> pa.Table:
        model = process_model(NgramPerplexity)
        ppl = model.perplexity(batch["text"].to_numpy(zero_copy_only=False))
        return pa.table({"doc_id": batch["doc_id"],
                         "ppl": pa.array(np.round(ppl, 4))})

    return ds.map_batches(stage, batch_format="pyarrow").to_pandas()


def dup_char_collapse_docs(sf_dir: str) -> pd.DataFrame:
    from ..functions.converters import erase_duplicate_chars

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["doc_id"],
                         "collapsed": pa.array(erase_duplicate_chars(batch["text"].to_numpy(zero_copy_only=False)), type=pa.string())})

    return ds.map_batches(f, batch_format="pyarrow").to_pandas()


def minhash_neardup_docs(sf_dir: str) -> pd.DataFrame:
    """MinHash+LSH near-dup clusters — md5-based hashing and raw band-key
    strings so the DuckDB oracle replays signatures, banding, candidate
    pairs, Jaccard verification and connected components exactly."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return minhash_dedup(ds, "doc_id", "text", threshold=0.5, hash_fn="md5")


def simhash_docs(sf_dir: str) -> pd.DataFrame:
    """64-bit SimHash per doc — md5-based token hash so the DuckDB oracle
    can recompute every fingerprint bit-for-bit."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return add_simhash(ds, "text", hash_fn="md5").to_pandas()[["doc_id", "simhash"]]


def simhash_pairs_docs(sf_dir: str) -> pd.DataFrame:
    """SimHash candidate near-dup pairs (Hamming ≤ 3 over 4 blocks) —
    exercises the vectorized bucketed pairing path end-to-end; the oracle
    replays signatures, block exploding, the block self-join, and the
    xor-popcount distance in SQL."""
    from ..dedup.simhash import simhash_candidates

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = simhash_candidates(ds, "doc_id", "text", hamming_threshold=3,
                             n_blocks=4, hash_fn="md5")
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def simhash_dedup_docs(sf_dir: str) -> pd.DataFrame:
    """SimHash near-dup clusters (Hamming ≤ 3, min-id label) — the full
    collapse composition; the oracle chains the pairs replay into a
    recursive min-label CTE (the minhash components pattern)."""
    from ..dedup.simhash import simhash_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = simhash_dedup(ds, "doc_id", "text", hamming_threshold=3,
                        n_blocks=4, hash_fn="md5")
    out["cluster"] = out["cluster"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def ngram_jaccard_dedup_docs(sf_dir: str) -> pd.DataFrame:
    """Exact n-gram Jaccard near-dup clusters (J >= 0.5) via the
    prefix-filter set-similarity join with count-min frequency ordering —
    md5 hashing so the DuckDB oracle independently recomputes ground
    truth (shared-token join + exact Jaccard + components), which checks
    prefix-filter COMPLETENESS, not just the happy path."""
    from ..dedup.ngram_jaccard import ngram_jaccard_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ngram_jaccard_dedup(ds, "doc_id", "text", threshold=0.5,
                              hash_fn="md5")
    out["cluster"] = out["cluster"].astype("int64")
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def budget_cap_docs(sf_dir: str) -> pd.DataFrame:
    """Per-source character-budget cap (2000 chars/source): keep docs in
    the deterministic md5 order while the source's running char total
    stays within budget — the per-domain token-cap mixing primitive.
    The monotone per-batch prefilter prunes past-budget rows before
    anything moves. → (doc_id, source, n_chars, cum_chars), kept only."""
    from ..sampling.budget import budget_cap

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])
    out = budget_cap(ds, ["doc_id"], "source", "n_chars", budget=2000)
    out = out.rename(columns={"cum": "cum_chars"})
    out["cum_chars"] = out["cum_chars"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def containment_dedup_docs(sf_dir: str) -> pd.DataFrame:
    """Asymmetric n-gram CONTAINMENT dedup (C = |∩|/min ≥ 0.8): drop
    docs nearly contained in a larger doc (ties → larger id), keeping
    the superset. Candidates via the containment-adapted prefix filter
    (contained-side prefix × containing-side full postings), exact
    containment verify, per-doc dominated fold. md5 hashing so the
    DuckDB oracle recomputes ground truth from ALL shared-token pairs —
    checking prefix completeness, not just the happy path.
    → (doc_id, n_shingles, keep, contained_in)."""
    from ..dedup.containment import containment_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = containment_dedup(ds, "doc_id", "text", threshold=0.8,
                            hash_fn="md5")
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def bpe_token_stats_docs(sf_dir: str) -> pd.DataFrame:
    """BPE-style pre-tokenizer tallies per doc (GPT-2 pattern family,
    RE2-safe so the IDENTICAL pattern string drives Python re and the
    DuckDB oracle's regexp_extract_all) — total tokens plus word/number/
    whitespace run counts."""
    from ..functions.text import bpe_token_stats

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def f(b: pa.Table) -> pa.Table:
        stats = bpe_token_stats(b["text"])
        return pa.table({"doc_id": b["doc_id"],
                         **{k: pa.array(v) for k, v in stats.items()}})

    out = ds.map_batches(f, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def hash_split_docs(sf_dir: str) -> pd.DataFrame:
    """Deterministic 80/10/10 train/valid/test assignment per doc —
    md5-bucketed so the oracle replays it with md5_number_lower % 10000;
    stable under any partitioning (pure function of the key)."""
    from ..sampling.splits import with_split_column

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    out = with_split_column(ds, "doc_id").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def cluster_safe_split_docs(sf_dir: str) -> pd.DataFrame:
    """Leakage-safe 80/10/10 split: the split key is the MinHash
    near-dup CLUSTER label (md5 mode — the SQL replays clustering AND
    the split), so near-duplicate docs can never straddle train/valid.
    → (doc_id, cluster, split)."""
    from ..sampling.splits import cluster_safe_split

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = cluster_safe_split(ds, "doc_id", "text", threshold=0.5,
                             hash_fn="md5").to_pandas()
    out["cluster"] = out["cluster"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def stratified_sample_docs(sf_dir: str) -> pd.DataFrame:
    """Training-mix resampling: per-source keep fraction, deterministic
    hash thresholds. The fraction table itself is derived from the source
    name's md5 ((h % 51 + 25)/100 ⇒ 0.25..0.75) so BOTH engines compute it
    independently — the oracle isn't handed the answer."""
    from ..profiling.sketches import md5_hash64
    from ..sampling.stratified import stratified_sample

    def frac(src: str) -> float:
        # int() first: np.uint64 % python-int promotes to float64 and
        # loses low bits on >2^53 hashes
        return (int(md5_hash64(np.array([src], dtype=object))[0]) % 51 + 25) / 100.0

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"],
               blocks=8)
    out = stratified_sample(ds, key_col="doc_id", group_col="source",
                            fractions=frac).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def gopher_repetition_docs(sf_dir: str) -> pd.DataFrame:
    """Gopher-style repetition quality metrics per doc (duplicate-line
    fraction, duplicate-line char fraction, top word-2-gram char
    fraction) — DuckDB-rounding-mode floats (round_half_away) so exact
    power-of-two rational ties don't diverge between engines."""
    from ..rules.heuristics import gopher_repetition_stats

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def f(b: pa.Table) -> pa.Table:
        stats = gopher_repetition_stats(b["text"].to_numpy(zero_copy_only=False))
        return pa.table({"doc_id": b["doc_id"],
                         **{k: pa.array(v) for k, v in stats.items()}})

    out = ds.map_batches(f, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def winnow_fingerprints_docs(sf_dir: str) -> pd.DataFrame:
    """Winnowing (rolling-hash MOSS) fingerprints per doc, exploded to
    (doc_id, pos, fp) — k=5 char grams, window w=4, rightmost-min
    selection; md5 grams so the DuckDB oracle replays gram hashing,
    window minima and the rightmost tie-break exactly."""
    from ..dedup.winnow import add_winnow_fingerprints

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = add_winnow_fingerprints(ds, "doc_id", "text", k=5, w=4,
                                  hash_fn="md5").to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return (out.sort_values(["doc_id", "pos"], kind="mergesort")
            .reset_index(drop=True))


def pack_chunks_docs(sf_dir: str) -> pd.DataFrame:
    """Sequence-packing layout over the doc_id-ordered document stream:
    docs concatenate into one virtual token stream (token count =
    ``n_chars`` — pure integers, so the DuckDB oracle replays the prefix
    sum with a window SUM), cut into 512-token chunks; one row per
    (doc, chunk) with the doc-relative slice. The Ray side computes the
    prefix sum from per-block metadata sums (functions/packing) — no
    shuffle, no driver data motion."""
    from ..functions.packing import pack_assignments

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    out = pack_assignments(ds, "n_chars", 512, id_cols=["doc_id"]).to_pandas()
    return (out.sort_values(["doc_id", "chunk_id"])
            .reset_index(drop=True))


def pack_sequences_docs(sf_dir: str) -> pd.DataFrame:
    """Physical chunk assembly on top of the packing layout: one hash
    shuffle keyed by chunk bucket, slices concatenated in stream order,
    per-chunk integer checksums (count / sum / first / last token with
    the closed-form token stand-in) that the oracle reproduces from the
    assignment table by pure arithmetic — any mis-assignment, mis-order
    or dropped slice shifts them."""
    from ..functions.packing import assemble_sequences

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    out = assemble_sequences(ds, "n_chars", 512, id_col="doc_id",
                             n_buckets=16).to_pandas()
    return out.sort_values("chunk_id").reset_index(drop=True)


def decontaminate_docs(sf_dir: str) -> pd.DataFrame:
    """Train/test decontamination with a stand-in benchmark = every 97th
    doc (both engines derive it independently): per-doc distinct 8-gram
    count, benchmark-hit count, contamination fraction and verdict.
    Benchmark gram hashes broadcast once; the corpus streams through one
    map_batches probe — no shuffle."""
    from ..dedup.decontaminate import benchmark_gram_hashes, decontaminate

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def pick_bench(b: pa.Table) -> pa.Table:
        return b.filter(pa.array(
            b["doc_id"].to_numpy(zero_copy_only=False) % 97 == 0))

    bench = benchmark_gram_hashes(
        ds.map_batches(pick_bench, batch_format="pyarrow"),
        "text", k=8, hash_fn="md5")
    out = decontaminate(ds, "text", "doc_id", bench, k=8, hash_fn="md5",
                        threshold=0.1).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def decontaminate_bloom_docs(sf_dir: str) -> pd.DataFrame:
    """The Bloom-gated decontamination scale path (same stand-in
    benchmark and thresholds as ★decontaminate_docs, same SQL oracle):
    bench grams stay a DATASET (never a driver key array), a packed-bit
    Bloom broadcasts (~10 bits/gram), and only Bloom-positive grams ride
    the verify exchange — the route for bench sets too large to
    broadcast exactly."""
    from ..dedup.decontaminate import benchmark_gram_dataset, decontaminate_bloom

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def pick_bench(b: pa.Table) -> pa.Table:
        return b.filter(pa.array(
            b["doc_id"].to_numpy(zero_copy_only=False) % 97 == 0))

    gram_ds = benchmark_gram_dataset(
        ds.map_batches(pick_bench, batch_format="pyarrow"),
        "text", k=8, hash_fn="md5")
    out = decontaminate_bloom(ds, "text", "doc_id", gram_ds, k=8,
                              hash_fn="md5", threshold=0.1).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def c4_clean_docs(sf_dir: str) -> pd.DataFrame:
    """C4-style line-level cleaning (Raffel et al. §2.2): per-line
    min-words / terminal-punctuation / brace / blocklist filters plus
    within-doc duplicate-line removal keep-first, constants shared with
    the SQL oracle."""
    from ..rules.heuristics import c4_line_clean

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def f(b: pa.Table) -> pa.Table:
        stats = c4_line_clean(b["text"].to_numpy(zero_copy_only=False))
        return pa.table({"doc_id": b["doc_id"],
                         **{k: pa.array(v) for k, v in stats.items()}})

    out = ds.map_batches(f, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def text_pipeline_docs(sf_dir: str) -> pd.DataFrame:
    """END-TO-END TEXT FLAGSHIP: rule-chain filter + PII/toxicity scrub
    → exact dedup on the SCRUBBED text (keep-first by doc_id) →
    sequence-pack the survivors into 512-token chunks — three oracled
    stages composed as ONE streaming dataset (no intermediate
    materialization; dedup's winner filter and packing's block-offset
    prefix sums both preserve the doc_id stream order the packer
    needs). The SQL replays the entire composition: chain → keep →
    row_number dedup → window prefix-sum packing.
    → one row per (doc, chunk): (doc_id, chunk_id, tok_start, tok_end)."""
    import pyarrow.compute as pc

    from ..dedup.exact import dedup_by_key
    from ..functions.packing import pack_assignments

    kept = _quality_filter_docs_ds(sf_dir).map_batches(
        lambda b: b.filter(b["keep"]).select(["doc_id", "scrubbed_text"]),
        batch_format="pyarrow")
    survivors = dedup_by_key(kept, key="scrubbed_text", order_col="doc_id")
    counted = survivors.map_batches(
        lambda b: pa.table({
            "doc_id": b["doc_id"],
            "n_tok": pc.cast(pc.utf8_length(b["scrubbed_text"]), pa.int64()),
        }), batch_format="pyarrow")
    out = pack_assignments(counted, "n_tok", 512, id_cols=["doc_id"]).to_pandas()
    return (out.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True))


def semantic_dedup_embeddings(sf_dir: str) -> pd.DataFrame:
    """SemDeDup over the embeddings table: k-means coarse clusters →
    within-cluster cosine ≥ 0.2 pairs → component collapse keep-min-id.
    The oracle replays assignment from the side-table centroids (trained
    by the same library code) and re-derives pairs + components in SQL."""
    from ..dedup.semantic import semantic_dedup

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return semantic_dedup(ds, "vec_id", "embedding", threshold=0.2,
                          n_lists=16)


_CLF_WEIGHTS = None


def _clf_weights() -> np.ndarray:
    """Train the hashed-linear quality model ONCE per driver process
    (0.6 s) and memoize the dense weight vector; actor pools rebuild
    from the broadcast instead of re-training per actor per query
    (an autoscaled 30-actor pool otherwise burns ~19 CPU-s of
    identical training for 10 batches of scoring)."""
    global _CLF_WEIGHTS
    if _CLF_WEIGHTS is None:
        from ..stages.models import HashedLinearQuality

        _CLF_WEIGHTS = HashedLinearQuality().w
    return _CLF_WEIGHTS


def _quality_classifier_ds(sf_dir: str):
    """Classifier scores as a Dataset — shared by the distribution query
    and the evaluation join. Weights train once on the driver and ride
    a broadcast; with per-actor setup reduced to a memcpy, a TASK pool
    beats an actor pool (measured 0.7 s vs 1.7 s warm at sf0.1 — every
    query otherwise pays a fresh pool's actor launches). ``cached_get``
    memoizes the weights per worker process, so per-task rebuild is a
    dict hit."""
    import ray

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ref = ray.put(_clf_weights())

    def stage(b: pa.Table) -> pa.Table:
        from ..functions.broadcast import cached_get
        from ..stages.models import HashedLinearQuality

        model = HashedLinearQuality.from_weights(cached_get(ref))
        out = model.score(b["text"].to_numpy(zero_copy_only=False))
        return pa.table({"doc_id": b["doc_id"],
                         "n_features": pa.array(out["n_features"]),
                         "quality_score": pa.array(out["quality_score"]),
                         "quality_label": pa.array(out["quality_label"])})

    return ds.map_batches(stage, batch_format="pyarrow")


def quality_classifier_docs(sf_dir: str) -> pd.DataFrame:
    """fastText-style hashed linear quality classifier (unigram+bigram
    features → md5 % 4096 buckets → Naive-Bayes log-odds weights trained
    on caption vs junk corpora) — model trained ONCE per actor in
    __init__, scoring vectorized per batch. The oracle re-trains the
    identical model in SQL from the corpus side tables."""
    out = _quality_classifier_ds(sf_dir).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def classifier_eval_docs(sf_dir: str) -> pd.DataFrame:
    """Model-evaluation composition: the learned classifier's verdicts
    joined (bucketed hash_join — no driver-side frame join) against the
    rule chain's keep/drop as ground truth; confusion counts + precision
    / recall / F1. Both sides have full SQL replicas, so the oracle
    recomputes the entire evaluation from scratch.
    → one row (n, tp, fp, fn, tn, precision, recall, f1)."""
    from ..functions.joins import hash_join

    clf = _quality_classifier_ds(sf_dir)
    truth = _quality_filter_docs_ds(sf_dir).map_batches(
        lambda b: b[["doc_id", "keep"]], batch_format="pandas")
    j = hash_join(clf, truth, on="doc_id",
                  right_cols=["doc_id", "keep"], n_buckets=16)

    def part(b: pd.DataFrame) -> pd.DataFrame:
        pred = b["quality_label"].to_numpy(dtype=bool)
        t = b["keep"].to_numpy(dtype=bool)
        return pd.DataFrame({
            "tp": [int((pred & t).sum())], "fp": [int((pred & ~t).sum())],
            "fn": [int((~pred & t).sum())], "tn": [int((~pred & ~t).sum())],
        })

    sums = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    for b in j.map_batches(part, batch_format="pandas").iter_batches(
            batch_size=4096, batch_format="pandas"):
        for c in sums:
            sums[c] += int(b[c].sum())
    tp, fp, fn, tn = sums["tp"], sums["fp"], sums["fn"], sums["tn"]
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return pd.DataFrame({
        "n": [np.int64(tp + fp + fn + tn)],
        "tp": [np.int64(tp)], "fp": [np.int64(fp)],
        "fn": [np.int64(fn)], "tn": [np.int64(tn)],
        "precision": [round(prec, 6)], "recall": [round(rec, 6)],
        "f1": [round(f1, 6)],
    })


def string_cluster_part(sf_dir: str) -> pd.DataFrame:
    """Fingerprint string clustering over p_name through the DISTRIBUTED
    path (with_row_index partials + hash-bucketed merge) — (value,
    cluster_key, n_values) per distinct value; the survived column is
    excluded here because its first-seen tie-break has no deterministic
    SQL equivalent (it is parity-tested against the in-memory path in
    tests instead)."""
    from ..dedup.blocking import cluster_strings

    ds = _read(sf_dir, "part", columns=["p_name"])
    out = cluster_strings(ds, "p_name", strategy="shuffle")
    out = out[["value", "cluster_key", "n_values"]].copy()
    out["n_values"] = out["n_values"].astype("int64")
    return out.sort_values(["value"]).reset_index(drop=True)


def revenue_by_nation(sf_dir: str) -> pd.DataFrame:
    """Join chain (orders ⋈ customer ⋈ nation) + aggregate with the
    probe side COLLAPSED before the exchange: ``agg_join(customer,
    orders)`` pre-aggregates every orders batch to per-custkey
    (sum, count) partials and fuses the join with the aggregate into ONE
    all-to-all — full orders rows never ride the shuffle (the round-3
    form shipped every orders row through ``hash_join`` first). The tiny
    nation dimension rides ``broadcast_join`` (zero shuffle); the final
    per-nation re-aggregate sums algebraic partials.
    → (nation, revenue, n_orders)."""
    from ..functions.joins import agg_join, broadcast_join
    from ..profiling.groupagg import grouped_aggregate

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    customer = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]) \
        .map_batches(lambda b: b.rename(columns={"c_custkey": "o_custkey"}),
                     batch_format="pandas")
    nation = pd.read_parquet(f"{sf_dir}/nation.parquet",
                             columns=["n_nationkey", "n_name"]) \
        .rename(columns={"n_nationkey": "c_nationkey", "n_name": "nation"})

    percust = agg_join(customer, orders, on="o_custkey",
                       aggs={"revenue": ("o_totalprice", "sum"),
                             "n_orders": ("", "count")},
                       how="inner", n_buckets=32)
    joined = broadcast_join(percust, nation, on="c_nationkey",
                            right_cols=["c_nationkey", "nation"])
    out = grouped_aggregate(joined, ["nation"],
                            {"revenue": ("revenue", "sum"),
                             "n_orders": ("n_orders", "sum")})
    out["revenue"] = out["revenue"].round(2)
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values("nation").reset_index(drop=True)


# query strings are part of the oracle contract (the SQL expands the
# same distinct terms); keep in sync with _bm25_sql in __ray_entry__
BM25_QUERIES = {
    "q_join": "hash join merge batch",
    "q_scan": "fast table scan",
    "q_stream": "customer query stream",
}


def bm25_search_docs(sf_dir: str) -> pd.DataFrame:
    """BM25 top-10 docs per query over the documents corpus — the
    zero-shuffle two-pass search (query-vocab df fold + broadcast-stats
    scoring with per-batch local top-k). → (query_id, doc_id, score, rank)."""
    from ..similarity.bm25 import bm25_topk

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bm25_topk(ds, "doc_id", "text", BM25_QUERIES, k=10)


# words-per-synthesized-line for the cross-doc line operators (the docs
# fixture is single-line; chunking the word stream into CHUNK_WORDS-word
# lines gives the corpus real cross-document line repetition) — shared
# with the SQL oracles in __ray_entry__
CHUNK_WORDS = 3
BOILER_MIN_DOCS = 5


def _chunked_docs(sf_dir: str):
    """documents with text re-lined into CHUNK_WORDS-word lines."""
    import re

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def chunk(b: pd.DataFrame) -> pd.DataFrame:
        out = np.empty(len(b), dtype=object)
        for i, t in enumerate(b["text"].to_numpy()):
            w = [x for x in re.split(r"\s+", t if isinstance(t, str) else "") if x]
            out[i] = "\n".join(" ".join(w[j:j + CHUNK_WORDS])
                               for j in range(0, len(w), CHUNK_WORDS))
        return pd.DataFrame({"doc_id": b["doc_id"], "text": out})

    return ds.map_batches(chunk, batch_format="pandas")


def paragraph_dedup_docs(sf_dir: str) -> pd.DataFrame:
    """Corpus-wide keep-first paragraph dedup over the chunked documents
    (exploded lines → content-key Min shuffle → bucketed reassembly).
    → (doc_id, n_kept, text) for docs with >= 1 surviving line."""
    from ..dedup.lines import paragraph_dedup

    out = paragraph_dedup(_chunked_docs(sf_dir), "doc_id", "text").to_pandas()
    out["n_kept"] = out["n_kept"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def boilerplate_removal_docs(sf_dir: str) -> pd.DataFrame:
    """CCNet-style boilerplate stripping: lines in >= BOILER_MIN_DOCS
    distinct docs removed everywhere. → (doc_id, n_lines, n_removed,
    text) for ALL docs."""
    from ..dedup.lines import remove_boilerplate

    out = remove_boilerplate(_chunked_docs(sf_dir), "doc_id", "text",
                             BOILER_MIN_DOCS).to_pandas()
    out[["n_lines", "n_removed"]] = out[["n_lines", "n_removed"]].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


MIX_TEMPERATURE = 2.0
MIX_TARGET_FRACTION = 0.6


def temperature_mix_docs(sf_dir: str) -> pd.DataFrame:
    """Temperature-based source mixing (T=2 flattens the source mix,
    target 60% of the corpus): per-source counts fold → n^(1/T) keep
    fractions → deterministic md5 hash filter. → kept (doc_id, source)."""
    from ..sampling.stratified import temperature_mix

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"],
               blocks=8)
    out = temperature_mix(ds, key_col="doc_id", group_col="source",
                          temperature=MIX_TEMPERATURE,
                          target_fraction=MIX_TARGET_FRACTION).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def tfidf_keywords_docs(sf_dir: str) -> pd.DataFrame:
    """Top-5 TF-IDF keywords per document (tf·ln(N/df), global df joined
    back through the collect path at this vocabulary size; shuffle-path
    parity pinned in tests). → (doc_id, term, score, rank)."""
    from ..similarity.tfidf import tfidf_topk

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = tfidf_topk(ds, "doc_id", "text", k=5).to_pandas()
    out["rank"] = out["rank"].astype("int64")
    return out.sort_values(["doc_id", "rank"]).reset_index(drop=True)


KMEANS_K = 4
KMEANS_ITERS = 3


def kmeans_embeddings(sf_dir: str) -> pd.DataFrame:
    """Full-corpus distributed Lloyd's k-means (broadcast centroids +
    fixed-size per-batch partial sums, quantized-state rounds) — the SQL
    oracle replays every iteration with unrolled CTEs. → (vec_id, cid)."""
    from ..similarity.kmeans import kmeans

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    assign, _ = kmeans(ds, "vec_id", "embedding", k=KMEANS_K,
                       iters=KMEANS_ITERS)
    out = assign.to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


def embedding_covariance(sf_dir: str) -> pd.DataFrame:
    """Distributed covariance of the embedding table (the mergeable
    (Σxxᵀ, Σx, n) fold behind PCA — similarity/pca.py; the eigen step is
    numpy-pinned in pytest, the SQL replays the covariance exactly).
    → upper triangle (i, j, cov) 1-indexed, 6 dp."""
    from ..similarity.pca import covariance

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cov, _, _ = covariance(ds, "embedding")
    iu = np.triu_indices(cov.shape[0])
    return pd.DataFrame({
        "i": (iu[0] + 1).astype("int64"),
        "j": (iu[1] + 1).astype("int64"),
        "cov": np.round(cov[iu], 6),
    })


def global_rank_orders(sf_dir: str) -> pd.DataFrame:
    """Global row_number over all orders by price WITHOUT a global sort
    (functions/partitioning.global_row_number): range-partition on the
    exact quantile_disc splits (equal values co-locate), per-partition
    local sort + broadcast cumulative offsets — one exchange total. SQL
    = the plain window function, so the compare proves the partitioned
    rank equals the global one. → (o_orderkey, o_totalprice, rn)."""
    from ..functions.partitioning import global_row_number

    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    out = global_row_number(ds, "o_totalprice", "o_orderkey",
                            n_parts=16, ascending=False).to_pandas()
    out["rn"] = out["rn"].astype("int64")
    out["o_totalprice"] = out["o_totalprice"].round(2)
    return (out[["o_orderkey", "o_totalprice", "rn"]]
            .sort_values("o_orderkey").reset_index(drop=True))


FS_ROUNDS = 5
FS_BITS = ["f_seg", "f_bal", "f_key", "f_band"]


def fs_linkage_customers(sf_dir: str) -> pd.DataFrame:
    """Fellegi–Sunter probabilistic linkage over nation-blocked customer
    pairs: K=4 binary field agreements (segment, |Δacctbal| ≤ 100, key
    last digit, balance band), pairs folded to the 16-row pattern table
    in one exchange, EM fitted driver-side with quantized rounds
    (dedup/fellegi_sunter.py). The SQL replays pair generation, the
    pattern fold, and EVERY EM round with unrolled CTEs. → per pattern
    (f_seg, f_bal, f_key, f_band, n_pairs, weight, posterior,
    is_link)."""
    from ..dedup.fellegi_sunter import fs_em

    ds = _read(sf_dir, "customer",
               columns=["c_custkey", "c_nationkey", "c_acctbal",
                        "c_mktsegment"])

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["c_nationkey", "c_custkey"], kind="mergesort")
        sizes = g.groupby("c_nationkey", sort=False).size().to_numpy()
        offs = np.concatenate([[0], np.cumsum(sizes)])
        ia_all, ib_all = [], []
        for s, e in zip(offs[:-1], offs[1:]):
            if e - s > 1:
                ia, ib = np.triu_indices(e - s, k=1)
                ia_all.append(ia + s)
                ib_all.append(ib + s)
        if not ia_all:
            return pd.DataFrame({c: pd.Series(dtype="int64")
                                 for c in FS_BITS + ["n"]})
        ia = np.concatenate(ia_all)
        ib = np.concatenate(ib_all)
        seg = g["c_mktsegment"].to_numpy()
        bal = g["c_acctbal"].to_numpy(dtype=np.float64)
        key = g["c_custkey"].to_numpy()
        band = np.floor(bal / 1000.0)
        pat = pd.DataFrame({
            "f_seg": (seg[ia] == seg[ib]).astype(np.int64),
            "f_bal": (np.abs(bal[ia] - bal[ib]) <= 100.0).astype(np.int64),
            "f_key": (key[ia] % 10 == key[ib] % 10).astype(np.int64),
            "f_band": (band[ia] == band[ib]).astype(np.int64),
        })
        # per-bucket partial fold: patterns, not pairs, leave the bucket
        return (pat.groupby(FS_BITS, sort=False).size().rename("n")
                .reset_index())

    partials = bucket_exchange(ds, "c_nationkey", pairs_in_bucket, 32)
    from ..profiling.groupagg import grouped_aggregate

    pat = grouped_aggregate(partials, FS_BITS, {"n": ("n", "sum")},
                            final="driver").sort_values(FS_BITS) \
        .reset_index(drop=True)
    _, _, _, scored = fs_em(pat, FS_BITS, rounds=FS_ROUNDS)
    scored["n_pairs"] = scored["n"].astype("int64")
    scored["is_link"] = scored["is_link"].astype(bool)
    return (scored[FS_BITS + ["n_pairs", "weight", "posterior", "is_link"]]
            .reset_index(drop=True))


def neardup_cluster_stats_docs(sf_dir: str) -> pd.DataFrame:
    """Dedup-impact report: the MinHash near-dup clusters folded to a
    cluster-SIZE distribution plus the corpus-level dedup ratio row —
    the number an operator actually reads off a 100-TB dedup run
    (how much survives). Fold is sizes → freq-of-sizes, driver state =
    #distinct sizes. → (cluster_size, n_clusters, n_docs, pct_of_corpus)
    with cluster_size=1 covering untouched docs."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    from ..dedup.minhash import minhash_dedup

    comp = minhash_dedup(ds, "doc_id", "text", threshold=0.5, hash_fn="md5")
    total = int(ds.count())
    sizes = comp.groupby("cluster").size()
    fof = sizes.value_counts().sort_index()
    out = pd.DataFrame({
        "cluster_size": fof.index.to_numpy(dtype=np.int64),
        "n_clusters": fof.to_numpy(dtype=np.int64),
    })
    clustered = int(sizes.sum())
    singletons = total - clustered
    if singletons:
        out = pd.concat([pd.DataFrame({"cluster_size": [1],
                                       "n_clusters": [singletons]}), out],
                        ignore_index=True)
    out = (out.groupby("cluster_size", as_index=False)["n_clusters"].sum()
           .sort_values("cluster_size").reset_index(drop=True))
    out["n_docs"] = out["cluster_size"] * out["n_clusters"]
    out["pct_of_corpus"] = round_half_away((out["n_docs"] / total))
    return out


def fs_entity_resolution_customers(sf_dir: str) -> pd.DataFrame:
    """End-to-end probabilistic entity resolution: the fs_linkage
    machinery run to ENTITIES — nation-blocked pairs (kept as a
    Dataset, materialized once for its two consumers), EM over the
    pattern fold, posterior ≥ 0.9 patterns broadcast as the link
    classifier, connected components over the link edges (union-find ≤
    the shared gate, distributed min-label above), every customer
    labeled. SQL replays the whole chain incl. the recursive
    components. → (c_custkey, entity, is_rep)."""
    import ray
    import ray.data as rd

    from ..dedup.fellegi_sunter import fs_em
    from ..dedup.minhash import (distributed_components,
                                 union_find_components)
    from ..functions.broadcast import cached_get
    from ..profiling.groupagg import grouped_aggregate

    ds = _read(sf_dir, "customer",
               columns=["c_custkey", "c_nationkey", "c_acctbal",
                        "c_mktsegment"])

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["c_nationkey", "c_custkey"], kind="mergesort")
        sizes = g.groupby("c_nationkey", sort=False).size().to_numpy()
        offs = np.concatenate([[0], np.cumsum(sizes)])
        ia_all, ib_all = [], []
        for s, e in zip(offs[:-1], offs[1:]):
            if e - s > 1:
                ia, ib = np.triu_indices(e - s, k=1)
                ia_all.append(ia + s)
                ib_all.append(ib + s)
        if not ia_all:
            return pd.DataFrame({c: pd.Series(dtype="int64")
                                 for c in ["id_a", "id_b"] + FS_BITS})
        ia = np.concatenate(ia_all)
        ib = np.concatenate(ib_all)
        seg = g["c_mktsegment"].to_numpy()
        bal = g["c_acctbal"].to_numpy(dtype=np.float64)
        key = g["c_custkey"].to_numpy()
        band = np.floor(bal / 1000.0)
        return pd.DataFrame({
            "id_a": key[ia], "id_b": key[ib],
            "f_seg": (seg[ia] == seg[ib]).astype(np.int64),
            "f_bal": (np.abs(bal[ia] - bal[ib]) <= 100.0).astype(np.int64),
            "f_key": (key[ia] % 10 == key[ib] % 10).astype(np.int64),
            "f_band": (band[ia] == band[ib]).astype(np.int64),
        })

    # two consumers: pattern fold + link filter
    pairs = bucket_exchange(ds, "c_nationkey", pairs_in_bucket, 32).materialize()

    pat = grouped_aggregate(pairs, FS_BITS, {"n": ("id_a", "count")},
                            final="driver").sort_values(FS_BITS) \
        .reset_index(drop=True)
    _, _, _, scored = fs_em(pat, FS_BITS, rounds=FS_ROUNDS)
    link_pats = set(map(tuple, scored[scored["is_link"]][FS_BITS]
                        .to_numpy().tolist()))
    ref = ray.put(link_pats)

    def link_filter(b: pd.DataFrame) -> pd.DataFrame:
        lp = cached_get(ref)
        keys = list(map(tuple, b[FS_BITS].to_numpy().tolist()))
        keep = np.array([k in lp for k in keys], dtype=bool)
        return b.loc[keep, ["id_a", "id_b"]]

    links = pairs.map_batches(link_filter, batch_format="pandas") \
        .materialize()
    n_links = links.count()
    if n_links == 0:
        comp_ids = np.array([], dtype=np.int64)
        comp_lbl = np.array([], dtype=np.int64)
    elif fits("queries.fs_entity_resolution_customers", n_links,
              "label_map_rows"):
        comp = union_find_components(links.to_pandas())
        comp_ids = comp["id"].to_numpy()
        comp_lbl = comp["cluster"].to_numpy()
    else:
        comp = distributed_components(links, as_dataset=False)
        comp_ids = comp["id"].to_numpy()
        comp_lbl = comp["cluster"].to_numpy()

    order = np.argsort(comp_ids, kind="mergesort")
    lref = ray.put((comp_ids[order], comp_lbl[order]))

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        k, lbl = cached_get(lref)
        mine = b["c_custkey"].to_numpy()
        ent = mine.copy()
        if len(k):
            pos = np.searchsorted(k, mine)
            ok = (pos < len(k)) & (k[np.minimum(pos, len(k) - 1)] == mine)
            ent[ok] = lbl[pos[ok]]
        return pd.DataFrame({"c_custkey": mine, "entity": ent,
                             "is_rep": ent == mine})

    out = ds.select_columns(["c_custkey"]).map_batches(
        assign, batch_format="pandas").to_pandas()
    out["entity"] = out["entity"].astype("int64")
    return out.sort_values("c_custkey").reset_index(drop=True)


PAGERANK_DAMPING = 0.85
PAGERANK_ROUNDS = 5


def supplier_pagerank(sf_dir: str) -> pd.DataFrame:
    """PageRank centrality of suppliers in the customer↔supplier
    transaction graph: one hash_join exchange builds weighted bipartite
    edges (weight = lineitem count), symmetrized; functions/graph.py
    runs 5 quantized-state rounds (broadcast rank vector, streaming
    per-edge contributions, grouped partial fold). The SQL replays
    EVERY round with unrolled CTEs. → (s_suppkey, rank)."""
    from ..functions.graph import pagerank
    from ..functions.joins import hash_join
    from ..profiling.groupagg import grouped_aggregate

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey"])
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]) \
        .map_batches(lambda b: b.rename(columns={"o_orderkey": "l_orderkey"}),
                     batch_format="pandas")
    joined = hash_join(li, orders, on="l_orderkey", right_cols=["o_custkey"])
    w = grouped_aggregate(joined, ["o_custkey", "l_suppkey"],
                          {"w": ("l_orderkey", "count")}, final="shuffle")

    def to_edges(b: pd.DataFrame) -> pd.DataFrame:
        # integer node ids (cust → 2k, supp → 2k+1): the per-round
        # searchsorted kernel runs on 8-byte ints and the edge exchange
        # ships fixed-width keys; wall time at sf0.1 is dominated by the
        # one-off join+group edge build, not the rounds (phase-measured:
        # build ~3 s warm, rounds 0.5-1 s each)
        src = 2 * b["o_custkey"].to_numpy(dtype=np.int64)
        dst = 2 * b["l_suppkey"].to_numpy(dtype=np.int64) + 1
        wt = b["w"].to_numpy()
        return pd.DataFrame({
            "src": np.concatenate([src, dst]),
            "dst": np.concatenate([dst, src]),
            "w": np.concatenate([wt, wt]),
        })

    ranks = pagerank(w.map_batches(to_edges, batch_format="pandas"),
                     damping=PAGERANK_DAMPING, rounds=PAGERANK_ROUNDS)
    sup = ranks[ranks["node"] % 2 == 1].copy()
    sup["s_suppkey"] = ((sup["node"] - 1) // 2).astype("int64")
    sup["rank"] = round_half_away(sup["rank"])
    return (sup[["s_suppkey", "rank"]].sort_values("s_suppkey")
            .reset_index(drop=True))


SESSION_GAP_NS = 30 * 60 * 1_000_000_000
N_CAMPAIGNS = 16


def campaign_overlap_events(sf_dir: str) -> pd.DataFrame:
    """Interval-overlap join (functions/intervals.py): per-user session
    intervals (30-min gap, epoch-ns integer math) × 16 deterministic
    campaign windows spanning the event range — band-explode join with
    single-band pair attribution (no dedup shuffle), folded to per
    (user, campaign) session counts + total overlap seconds. SQL replays
    sessions (lag window), the campaign grid (integer arithmetic), and
    the naive overlap join. → (user_id, campaign_id, n_sessions,
    total_overlap_sec)."""
    import ray.data as rd

    from ..functions.intervals import interval_join
    from ..profiling.groupagg import grouped_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def to_ns(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": b["user_id"].to_numpy(),
            "tn": b["ts"].astype("datetime64[ns]").astype("int64"),
        })

    ns = ds.map_batches(to_ns, batch_format="pandas")

    # global range: fixed-size per-batch partials -> driver min/max
    parts = pd.concat(
        list(ns.map_batches(
            lambda b: pd.DataFrame({"mn": [b["tn"].min()],
                                    "mx": [b["tn"].max()]}),
            batch_format="pandas")
             .iter_batches(batch_size=256, batch_format="pandas")),
        ignore_index=True)
    mn, mx = int(parts["mn"].min()), int(parts["mx"].max())
    span = mx - mn
    camp = pd.DataFrame({
        "campaign_id": np.arange(N_CAMPAIGNS, dtype=np.int64),
        "start": np.array([mn + (span * k) // N_CAMPAIGNS
                           for k in range(N_CAMPAIGNS)], dtype=np.int64),
    })
    camp["end"] = camp["start"] + span // 20

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "tn"], kind="mergesort")
        brk = (g["user_id"].ne(g["user_id"].shift())
               | (g["tn"].diff() > SESSION_GAP_NS))
        sid = brk.cumsum()
        out = g.groupby([g["user_id"], sid], sort=False)["tn"] \
            .agg(["min", "max"]).reset_index(level=0)
        out.columns = ["user_id", "start", "end"]
        return out.reset_index(drop=True)

    iv = bucket_exchange(ns, "user_id", sessions, 32)

    joined = interval_join(iv, rd.from_pandas(camp), "start", "end",
                           band_width=3_600_000_000_000)
    out = grouped_aggregate(
        joined, ["user_id", "campaign_id"],
        {"n_sessions": ("overlap", "count"),
         "total_ns": ("overlap", "sum")}, final="driver")
    out["n_sessions"] = out["n_sessions"].astype("int64")
    # campaign boundaries are integer-ns grid points (span*k//N), NOT
    # µs-aligned, so overlap seconds can land on exact 6-dp halves —
    # half-away rounding (DuckDB parity), not pandas banker's
    out["total_overlap_sec"] = round_half_away(out["total_ns"] / 1e9)
    return (out[["user_id", "campaign_id", "n_sessions",
                 "total_overlap_sec"]]
            .sort_values(["user_id", "campaign_id"])
            .reset_index(drop=True))


def fuzzy_decontaminate_docs(sf_dir: str) -> pd.DataFrame:
    """Fuzzy (MinHash-Jaccard) cross-corpus decontamination: benchmark =
    docs with doc_id % 29 == 0, corpus = the rest; a corpus doc is
    contaminated when its shingle Jaccard vs ANY benchmark doc ≥ 0.5
    (paraphrase contamination the exact-gram probe misses). md5 mode —
    the SQL replays banding, cross-side candidate join, exact Jaccard
    verification, and the min-match fold. → (doc_id, contaminated,
    match_id=-1 when clean)."""
    from ..dedup.decontaminate import fuzzy_decontaminate

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    corpus = ds.map_batches(lambda b: b[b["doc_id"] % 29 != 0],
                            batch_format="pandas")
    bench = ds.map_batches(lambda b: b[b["doc_id"] % 29 == 0],
                           batch_format="pandas")
    out = fuzzy_decontaminate(corpus, bench, "doc_id", "text",
                              threshold=0.5, hash_fn="md5").to_pandas()
    out["match_id"] = out["match_id"].fillna(-1).astype("int64")
    out["contaminated"] = out["contaminated"].astype(bool)
    return out.sort_values("doc_id").reset_index(drop=True)


def homoglyph_dedup_docs(sf_dir: str) -> pd.DataFrame:
    """Homoglyph-aware dedup: every 37th doc gets a planted Cyrillic
    lookalike copy (doc_id + 1e9, the SAME translate both engines apply
    independently), then skeleton folding (functions/confusables.py)
    collapses lookalikes under exact grouping — planted copies MUST land
    on their originals. Group key cardinality ≈ corpus, so the count
    rides the hash-bucketed shuffle final (at real scale the key would
    be the skeleton's md5 — dedup_by_content's trick — which changes
    nothing here because only (keeper, count) leave the exchange).
    → (keeper_id, n_docs) per skeleton group."""
    import ray.data as rd

    from ..functions.confusables import add_skeleton, skeleton_series
    from ..profiling.groupagg import grouped_aggregate

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        m = (b["doc_id"] % 37 == 0).to_numpy()
        if not m.any():
            return b[["doc_id", "text"]]
        copies = pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy()[m] + 1_000_000_000,
            "text": b["text"][m].str.lower().str.translate(
                {ord(a): ord(c) for a, c in zip("aeopcxy", "аеорсху")}),
        })
        return pd.concat([b[["doc_id", "text"]], copies], ignore_index=True)

    aug = add_skeleton(ds.map_batches(plant, batch_format="pandas"), "text")
    out = grouped_aggregate(
        aug, ["skeleton"],
        {"keeper_id": ("doc_id", "min"), "n_docs": ("doc_id", "count")},
        final="shuffle").to_pandas()
    out[["keeper_id", "n_docs"]] = out[["keeper_id", "n_docs"]].astype("int64")
    return (out[["keeper_id", "n_docs"]].sort_values("keeper_id")
            .reset_index(drop=True))


def _derive_doc_urls(b: pd.DataFrame, variant: bool = False) -> pd.Series:
    """Deterministic raw-URL recipe shared bit-for-bit with the SQL
    oracles (no URL column exists in the fixture, so both engines derive
    the SAME messy string from (doc_id, source) and normalize it
    INDEPENDENTLY). ``variant=True`` renders a textually different form
    of the same resource — case jumble, toggled www, explicit default
    port, doubled trailing slash, extra tracking params, fragment — that
    MUST canonicalize equal to the original. doc_id % 17 == 0 rows are
    scheme-less (invalid) both sides."""
    d = b["doc_id"].astype("int64")
    src = b["source"].astype(str)
    if variant:
        src = src.str.upper()
    sch = pd.Series(np.where(d % 3 == 0, "http" if variant else "HTTP",
                             "HTTPS" if variant else "https"), index=b.index)
    www3 = (d % 4 == 0) != variant  # toggled in the variant form
    www = pd.Series(np.where(www3, "WWW.", ""), index=b.index)
    sfx = pd.Series(np.where(d % 5 == 0, ".co.UK" if variant else ".CO.UK",
                             ".EXAMPLE.COM" if variant else ".Example.com"),
                    index=b.index)
    if variant:
        port = pd.Series(np.where(d % 3 == 0, ":80", ":443"), index=b.index)
    else:
        port = pd.Series(np.where(d % 7 == 0,
                                  np.where(d % 3 == 0, ":80", ":443"), ""),
                         index=b.index)
    path = "/p/" + (d % 10).astype(str)
    path = path + ("//" if variant else
                   pd.Series(np.where(d % 2 == 0, "/", ""), index=b.index))
    if variant:
        qs = ("?a=1&utm_x=9&b=" + (d % 3).astype(str)).where(
            d % 2 == 0, "?utm_campaign=z")
        frag = "#v2"
    else:
        qs = ("?utm_source=feed&b=" + (d % 3).astype(str) + "&a=1").where(
            d % 2 == 0, "")
        frag = pd.Series(np.where(d % 6 == 0, "#sec", ""), index=b.index)
    url = sch + "://" + www + src + sfx + port + path + qs + frag
    return url.mask(d % 17 == 0, src + sfx + path)  # scheme-less → invalid


def url_canonical_docs(sf_dir: str) -> pd.DataFrame:
    """URL canonicalization (functions/urls.py) over per-doc derived
    messy URLs: lowercase scheme/host, strip www./default port/fragment/
    trailing slashes, drop+sort query params, registered domain with
    multi-part suffixes. Scheme-less rows → '' both sides. The SQL
    PARSES the same raw string independently (regexp pipeline), so this
    is a full replay of the normalization algebra, one row per doc."""
    from ..functions.urls import add_canonical_url

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"],
               blocks=8)
    raw = ds.map_batches(
        lambda b: pd.DataFrame({"doc_id": b["doc_id"],
                                "url": _derive_doc_urls(b)}),
        batch_format="pandas")
    out = add_canonical_url(raw, "url").to_pandas()
    out["url_canon"] = out["url_canon"].fillna("")
    out["domain"] = out["domain"].fillna("")
    return (out[["doc_id", "url_canon", "domain"]]
            .sort_values("doc_id").reset_index(drop=True))


def url_dedup_docs(sf_dir: str) -> pd.DataFrame:
    """Canonical-URL dedup (functions/urls.url_dedup): every valid doc
    with doc_id % 13 == 0 gets a planted textual variant (doc_id + 1e9)
    that canonicalizes EQUAL — all variants must collapse onto their
    originals (plus any organic canonical collisions), keeper = min id.
    → (doc_id, url_canon, domain) per surviving URL."""
    from ..functions.urls import url_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"],
               blocks=8)

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        base = pd.DataFrame({"doc_id": b["doc_id"],
                             "url": _derive_doc_urls(b)})
        m = ((b["doc_id"] % 13 == 0) & (b["doc_id"] % 17 != 0)).to_numpy()
        if not m.any():
            return base
        v = b[m]
        var = pd.DataFrame({
            "doc_id": v["doc_id"].to_numpy() + 1_000_000_000,
            "url": _derive_doc_urls(v, variant=True).to_numpy(),
        })
        return pd.concat([base, var], ignore_index=True)

    raw = ds.map_batches(plant, batch_format="pandas")
    out = url_dedup(raw, "url", "doc_id").to_pandas()
    return (out[["doc_id", "url_canon", "domain"]]
            .sort_values("doc_id").reset_index(drop=True))


DOMAIN_CAP = 3


def domain_cap_docs(sf_dir: str) -> pd.DataFrame:
    """Per-domain contribution cap (functions/urls.domain_cap): at most
    3 docs per registered domain under the md5-order sampling contract
    (uniform within each domain, deterministic under any partitioning;
    invalid URLs dropped). → kept (doc_id, domain) rows."""
    from ..functions.urls import domain_cap

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"],
               blocks=8)
    raw = ds.map_batches(
        lambda b: pd.DataFrame({"doc_id": b["doc_id"],
                                "url": _derive_doc_urls(b)}),
        batch_format="pandas")
    out = domain_cap(raw, "url", "doc_id", cap=DOMAIN_CAP)
    return (out[["doc_id", "domain"]].astype({"doc_id": "int64"})
            .sort_values("doc_id").reset_index(drop=True))


RANGE_PARTS = 8


def range_partition_orders(sf_dir: str) -> pd.DataFrame:
    """Explicit range rebalancing (functions/partitioning.py): exact
    quantile_disc split points from one value→count exchange, broadcast
    searchsorted assignment, per-partition (n, lo, hi) fold — the
    balance evidence that the partitioner levels the key range. SQL
    replays the identical quantile_disc positions and the x > v
    assignment rule. → (part_id, n, lo, hi)."""
    from ..functions.partitioning import range_balance

    ds = _read(sf_dir, "orders", columns=["o_totalprice"])
    out = range_balance(ds, "o_totalprice", RANGE_PARTS, mode="exact")
    out["n"] = out["n"].astype("int64")
    out["lo"] = out["lo"].round(2)
    out["hi"] = out["hi"].round(2)
    return out.reset_index(drop=True)


KCENTER_K = 8


def kcenter_coreset_embeddings(sf_dir: str) -> pd.DataFrame:
    """Diversity-aware coreset selection: greedy k-center (farthest-point)
    over the embedding table — k-1 broadcast-and-partial-max streaming
    passes, then one assignment pass (similarity/kcenter.py). The SQL
    oracle replays every greedy round with unrolled CTEs (6-dp-rounded
    distances make the argmax/argmin engine-stable).
    → (vec_id, center_id, dist, is_center)."""
    from ..similarity.kcenter import kcenter_assign, kcenter_select

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    centers = kcenter_select(ds, "vec_id", "embedding", k=KCENTER_K)
    out = kcenter_assign(ds, "vec_id", "embedding", centers).to_pandas()
    out["is_center"] = out["is_center"].astype(bool)
    return out.sort_values("vec_id").reset_index(drop=True)


SUBSTR_NGRAM = 8


def substring_dedup_docs(sf_dir: str) -> pd.DataFrame:
    """ExactSubstr-style substring dedup: every 8-token window occurring
    more than once corpus-wide has its span cut from every occurrence.
    The oracle counts window STRINGS directly (hash-free ground truth),
    so the md5-keyed distributed route is checked for collisions too.
    → (doc_id, n_tokens, n_removed, text) over all docs."""
    from ..dedup.substring import substring_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = substring_dedup(ds, "doc_id", "text", n=SUBSTR_NGRAM).to_pandas()
    out[["n_tokens", "n_removed"]] = out[["n_tokens", "n_removed"]].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def grouped_quantiles_orders(sf_dir: str) -> pd.DataFrame:
    """Per-group quantiles two ways: exact per-priority percentiles
    (linear interpolation == quantile_cont, value-compared against SQL)
    plus per-group mergeable t-digests (the 100TB path) gated by RANK
    error ≤ 2% (t-digest's guarantee is in rank space; value-relative
    gates are meaningless where the local density is low, e.g. ~300-row
    groups). → (priority, n, p25, p50, p75, p25_ok, p50_ok, p75_ok)."""
    from ..profiling.groupagg import grouped_sketches
    from ..profiling.sketches import TDigest

    ds = _read(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])
    digests = grouped_sketches(
        ds, "o_orderpriority", TDigest,
        lambda acc, sub: acc.update_array(sub["o_totalprice"].to_numpy()))
    vals: dict = {}
    for b in ds.iter_batches(batch_size=65536, batch_format="pandas"):
        for g, sub in b.groupby("o_orderpriority", sort=False):
            vals.setdefault(g, []).append(sub["o_totalprice"].to_numpy())
    rows = []
    for g in sorted(vals):
        v = np.sort(np.concatenate(vals[g]))
        exact = np.percentile(v, [25, 50, 75])
        td = digests[g]
        oks = [bool(abs(np.searchsorted(v, td.quantile(q)) / len(v) - q) <= 0.02)
               for q in (0.25, 0.5, 0.75)]
        rows.append((g, np.int64(len(v)), round(exact[0], 6),
                     round(exact[1], 6), round(exact[2], 6), *oks))
    return pd.DataFrame(rows, columns=["priority", "n", "p25", "p50", "p75",
                                       "p25_ok", "p50_ok", "p75_ok"])


def window_analytics_orders(sf_dir: str) -> pd.DataFrame:
    """Partitioned window functions over orders: per customer in
    (date, orderkey) order — sequence number, previous order total
    (lag), and running spend (inclusive cumsum). ONE hash shuffle,
    vectorized pandas kernels per bucket (functions/window.py).
    → (o_orderkey, o_custkey, seq, prev_total, running_spend)."""
    from ..functions.window import window_ops

    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"])
    out = window_ops(ds, by="o_custkey",
                     order_by=["o_orderdate", "o_orderkey"],
                     ops={"seq": ("row_number",),
                          "prev_total": ("lag", "o_totalprice"),
                          "running_spend": ("cumsum", "o_totalprice")}).to_pandas()
    out["prev_total"] = out["prev_total"].round(2)
    out["running_spend"] = out["running_spend"].round(2)
    return (out[["o_orderkey", "o_custkey", "seq", "prev_total", "running_spend"]]
            .sort_values("o_orderkey").reset_index(drop=True))


def semi_anti_join_customers(sf_dir: str) -> pd.DataFrame:
    """Existence joins: customers WITH ≥1 order (semi / EXISTS) and
    customers with NO orders (anti / NOT EXISTS) counted per nation —
    the keys-only shuffle variant of hash_join (only deduplicated
    o_custkey values move). → (c_nationkey, with_orders, without_orders)."""
    from ..functions.joins import hash_join
    from ..profiling.groupagg import grouped_aggregate

    customer = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    orders = _read(sf_dir, "orders", columns=["o_custkey"]) \
        .map_batches(lambda b: b.rename(columns={"o_custkey": "c_custkey"}),
                     batch_format="pandas")
    semi = grouped_aggregate(
        hash_join(customer, orders, on="c_custkey", right_cols=["c_custkey"],
                  how="semi", n_buckets=32),
        ["c_nationkey"], {"with_orders": ("", "count")})
    anti = grouped_aggregate(
        hash_join(customer, orders, on="c_custkey", right_cols=["c_custkey"],
                  how="anti", n_buckets=32),
        ["c_nationkey"], {"without_orders": ("", "count")})
    out = semi.merge(anti, on="c_nationkey", how="outer")
    for c in ("with_orders", "without_orders"):
        out[c] = out[c].fillna(0).astype("int64")
    out["c_nationkey"] = out["c_nationkey"].astype("int64")
    return out.sort_values("c_nationkey").reset_index(drop=True)


# DSIR contract shared with the SQL oracle: deterministic in-domain
# target subset, bucket count, selection size
DSIR_TARGET_MOD = 13
DSIR_BUCKETS = 1024
DSIR_SELECT_N = 100


def dsir_select_docs(sf_dir: str) -> pd.DataFrame:
    """DSIR importance resampling (Xie et al. 2023): pick the 100 docs
    whose hashed unigram+bigram distribution best matches the
    deterministic target subset (doc_id % 13 == 0). Two fixed-size
    fold passes + one broadcast-scored map — zero shuffle. The oracle
    re-derives the bucket probabilities and every weight in SQL.
    → (doc_id, dsir_weight, rank)."""
    from ..sampling.dsir import dsir_select

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    target = docs.map_batches(
        lambda b: b[b["doc_id"] % DSIR_TARGET_MOD == 0], batch_format="pandas")
    out = dsir_select(docs, target, "doc_id", "text",
                      n_select=DSIR_SELECT_N, n_buckets=DSIR_BUCKETS)
    out["doc_id"] = out["doc_id"].astype("int64")
    return out


def top_orders_per_customer(sf_dir: str) -> pd.DataFrame:
    """Generic per-group top-k: each customer's 3 most expensive orders
    (orderkey tie-break), mergeable batch partials + bucketed final —
    the shuffle moves ≤ k rows per (batch, key), never the table.
    → (o_custkey, o_orderkey, o_totalprice, rank)."""
    from ..profiling.groupagg import grouped_topk

    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderkey", "o_totalprice"])
    out = grouped_topk(ds, keys="o_custkey",
                       order_by=["o_totalprice", "o_orderkey"],
                       ascending=[False, True], k=3).to_pandas()
    out["rank"] = out["rank"].astype("int64")
    return (out[["o_custkey", "o_orderkey", "o_totalprice", "rank"]]
            .sort_values(["o_custkey", "rank"]).reset_index(drop=True))


# ---------------------------------------------------- table-level DQ rules


def correlation_lineitem(sf_dir: str) -> pd.DataFrame:
    """Pearson correlation + population covariance between quantity and
    price — one Chan-merged co-moment pass (profiling/datarules.py).
    → (n, corr_qty_price, covar_qty_price)."""
    from ..profiling.datarules import correlation

    ds = _read(sf_dir, "lineitem", columns=["l_quantity", "l_extendedprice"])
    c = correlation(ds, "l_quantity", "l_extendedprice")
    return pd.DataFrame({"n": [c["n"]],
                         "corr_qty_price": [round(c["corr"], 6)],
                         "covar_qty_price": [round(c["covar_pop"], 6)]})


def regression_by_flag_lineitem(sf_dir: str) -> pd.DataFrame:
    """Per-group OLS trend (price vs quantity per return flag) from
    algebraic partials only — fixed-width per-group sums, no residual
    pass. → (l_returnflag, n, slope, intercept, corr)."""
    from ..profiling.datarules import grouped_regression

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_extendedprice"])
    return grouped_regression(ds, ["l_returnflag"], "l_quantity",
                              "l_extendedprice")


def impute_value_events(sf_dir: str) -> pd.DataFrame:
    """Group-mean null imputation: both engines independently null out
    ``value`` where event_id % 37 == 0, then fill from the per-
    event_type mean of the surviving rows (stats fold + broadcast fill,
    zero shuffle). → per event_type (n, n_filled, sum_value, fill_mean)
    proving the filled column end to end."""
    from ..stages.impute import impute_column

    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def knock_out(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        v = b["value"].to_numpy(dtype=np.float64).copy()
        v[b["event_id"].to_numpy() % 37 == 0] = np.nan
        b["value"] = v
        return b

    holed = ds.map_batches(knock_out, batch_format="pandas")
    filled = impute_column(holed, "value", "mean", group_col="event_type")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        f = (b["event_id"].to_numpy() % 37 == 0)
        b["__f"] = f.astype("int64")
        b["__fv"] = np.where(f, b["value"].to_numpy(dtype=np.float64), 0.0)
        return (b.groupby("event_type", sort=False)
                .agg(n=("value", "size"), n_filled=("__f", "sum"),
                     s=("value", "sum"), fs=("__fv", "sum")).reset_index())

    parts = filled.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby("event_type", sort=True).agg(
        n=("n", "sum"), n_filled=("n_filled", "sum"), s=("s", "sum"),
        fs=("fs", "sum")).reset_index()
    return pd.DataFrame({
        "event_type": agg["event_type"],
        "n": agg["n"].astype("int64"),
        "n_filled": agg["n_filled"].astype("int64"),
        "sum_value": agg["s"].round(2),
        "fill_mean": np.where(agg["n_filled"] > 0,
                              round_half_away(agg["fs"] / agg["n_filled"]),
                              np.nan),
    }).reset_index(drop=True)


def entropy_profile(sf_dir: str) -> pd.DataFrame:
    """Shannon entropy (bits) of three categorical columns — grouped
    counts via batch partials, log2 fold on the tiny value table.
    → (tbl, col, entropy)."""
    from ..profiling.datarules import grouped_entropy

    rows = []
    for tbl, col in [("customer", "c_mktsegment"),
                     ("events", "event_type"),
                     ("orders", "o_orderpriority")]:
        e = grouped_entropy(_read(sf_dir, tbl, columns=[col]), col)
        rows.append({"tbl": tbl, "col": col, "entropy": round(e, 6)})
    return pd.DataFrame(rows)


def benford_price_lineitem(sf_dir: str) -> pd.DataFrame:
    """First-significant-digit distribution of l_extendedprice vs the
    Benford expectation. → (digit, n, freq, expected)."""
    from ..profiling.datarules import benford_first_digit

    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])
    out = benford_first_digit(ds, "l_extendedprice")
    out["digit"] = out["digit"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return out


def outlier_iqr_lineitem(sf_dir: str) -> pd.DataFrame:
    """Tukey-fence outlier counts on l_extendedprice (fences rounded to
    6 before counting on BOTH sides). → one row."""
    from ..profiling.datarules import iqr_outlier_fences

    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])
    r = iqr_outlier_fences(ds, "l_extendedprice")
    return pd.DataFrame({k: [r[k]] for k in
                         ["fence_lo", "fence_hi", "n_low", "n_high", "n"]})


def trimmed_mean_lineitem(sf_dir: str) -> pd.DataFrame:
    """10% two-sided quantile-trimmed mean of l_extendedprice — exact
    bounds from the histogram-bisection quantile, one (count, sum) fold
    inside the closed interval. → one row."""
    from ..profiling.datarules import trimmed_mean

    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])
    r = trimmed_mean(ds, "l_extendedprice", trim=0.1)
    return pd.DataFrame({"n": [r["n"]], "n_kept": [r["n_kept"]],
                         "lo": [round(r["lo"], 6)],
                         "hi": [round(r["hi"], 6)],
                         "trimmed_mean": [round(r["trimmed_mean"], 6)]})


def mutual_info_orders(sf_dir: str) -> pd.DataFrame:
    """Mutual information + NMI between order status and priority from
    one joint-count fold (profiling/datarules.mutual_information).
    → one row (n, mi, nmi, h_a, h_b)."""
    from ..profiling.datarules import mutual_information

    ds = _read(sf_dir, "orders",
               columns=["o_orderstatus", "o_orderpriority"])
    r = mutual_information(ds, "o_orderstatus", "o_orderpriority")
    return pd.DataFrame({"n": [r["n"]], "mi": [round(r["mi"], 6)],
                         "nmi": [round(r["nmi"], 6)],
                         "h_a": [round(r["h_a"], 6)],
                         "h_b": [round(r["h_b"], 6)]})


def k_anonymity_customer(sf_dir: str) -> pd.DataFrame:
    """k-anonymity / distinct-l-diversity privacy scan over the
    (nationkey, mktsegment) quasi-identifier with acctbal sensitive
    (k=5, l=2) — one combination-count fold. → one row."""
    from ..profiling.datarules import k_anonymity

    ds = _read(sf_dir, "customer",
               columns=["c_nationkey", "c_mktsegment", "c_acctbal"])
    r = k_anonymity(ds, ["c_nationkey", "c_mktsegment"], "c_acctbal",
                    k=5, l=2)
    return pd.DataFrame({c: [v] for c, v in r.items()})


def cadence_users_events(sf_dir: str) -> pd.DataFrame:
    """Per-user engagement cadence: median inter-event gap in whole
    minutes (floor — quantized so the grouped disc-quantile state stays
    (user × distinct-gap) bounded). One keyed window exchange for the
    lag, one (user, gap)→count exchange for the exact per-user median.
    → (user_id, n_gaps, med_gap_min)."""
    from ..functions.window import window_ops
    from ..profiling.quantile_exact import grouped_disc_quantile

    ds = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])
    lagged = window_ops(ds, "user_id", ["ts", "event_id"],
                        {"prev": ("lag", "ts")})

    def gaps(b: pd.DataFrame) -> pd.DataFrame:
        ok = b["prev"].notna()
        # date_diff('second') counts SECOND-BOUNDARY crossings, not
        # elapsed time — truncate both ends to the second first
        sec = (b["ts"][ok].dt.floor("s")
               - b["prev"][ok].dt.floor("s")).dt.total_seconds()
        return pd.DataFrame({"user_id": b["user_id"][ok],
                             "gap": (sec // 60).astype(np.int64)})

    gds = lagged.map_batches(gaps, batch_format="pandas").materialize()
    med = grouped_disc_quantile(gds, "user_id", "gap", 0.5)
    cnt = (gds.map_batches(lambda b: b[["user_id"]], batch_format="pandas")
           .to_pandas().groupby("user_id").size().rename("n_gaps"))
    out = med.rename(columns={"q_val": "med_gap_min"}).merge(
        cnt.reset_index(), on="user_id")
    out = out.astype({"user_id": "int64", "med_gap_min": "int64",
                      "n_gaps": "int64"})
    return (out[["user_id", "n_gaps", "med_gap_min"]]
            .sort_values("user_id").reset_index(drop=True))


def domain_keep_ci_docs(sf_dir: str) -> pd.DataFrame:
    """Wilson 95% confidence interval on each domain's keep rate — the
    statistically honest version of the domain report (a 3-doc domain
    with keep_rate 1.0 is NOT better than a 300-doc one at 0.9): same
    one-pass fold as domain_quality_report_docs, Wilson bounds (z=1.96)
    on the driver per domain. → (domain, n_docs, n_keep, ci_lo,
    ci_hi)."""
    rep = domain_quality_report_docs(sf_dir)
    n = rep["n_docs"].to_numpy(np.float64)
    k = rep["n_keep"].to_numpy(np.float64)
    z = 1.96
    p = k / n
    den = 1 + z * z / n
    root = z * np.sqrt(p * (1 - p) / n + z * z / (4.0 * n * n))
    # grouping matches the SQL expression term-for-term (ulp parity)
    lo = (p + z * z / (2 * n) - root) / den
    hi = (p + z * z / (2 * n) + root) / den
    return pd.DataFrame({
        "domain": rep["domain"], "n_docs": rep["n_docs"],
        "n_keep": rep["n_keep"],
        "ci_lo": round_half_away(lo), "ci_hi": round_half_away(hi),
    })


def rfm_segments_orders(sf_dir: str) -> pd.DataFrame:
    """RFM customer segmentation: per-customer recency (epoch days of
    the last order) / frequency / monetary (2-dp sum) from ONE grouped
    exchange, quartile fences per metric from the distributed
    histogram-bisection exact quantile (6-dp fence contract), code =
    1 + #fences strictly below the value per metric. → (rfm,
    n_customers) per occupied code."""
    from ..profiling.groupagg import grouped_aggregate
    from ..profiling.quantile_exact import exact_quantiles

    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderdate", "o_totalprice"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_custkey": b["o_custkey"],
            "d": (b["o_orderdate"].astype("datetime64[ns]")
                  - pd.Timestamp("1970-01-01")).dt.days.astype("int64"),
            "p": b["o_totalprice"].astype(np.float64),
        })

    pc = grouped_aggregate(ds.map_batches(prep, batch_format="pandas"),
                           ["o_custkey"],
                           {"r": ("d", "max"), "f": ("d", "count"),
                            "m": ("p", "sum")}, final="shuffle")
    pc = pc.map_batches(
        lambda b: b.assign(m=round_half_away(b["m"].to_numpy(np.float64), 2)),
        batch_format="pandas").materialize()

    fences = {}
    for col in ("r", "f", "m"):
        _n, qs = exact_quantiles(pc, col, [0.25, 0.5, 0.75])
        fences[col] = round_half_away(qs)

    def code(b: pd.DataFrame) -> pd.DataFrame:
        sc = {}
        for col in ("r", "f", "m"):
            v = b[col].to_numpy(np.float64)
            q = fences[col]
            sc[col] = 1 + (v > q[0]).astype(np.int64) \
                + (v > q[1]).astype(np.int64) + (v > q[2]).astype(np.int64)
        return pd.DataFrame({"rfm": sc["r"] * 100 + sc["f"] * 10 + sc["m"]})

    out = grouped_aggregate(pc.map_batches(code, batch_format="pandas"),
                            ["rfm"], {"n_customers": ("", "count")})
    out = out.sort_values("rfm").reset_index(drop=True)
    return out.astype({"rfm": "int64", "n_customers": "int64"})


APPORTION_N = 120


def apportioned_sample_docs(sf_dir: str) -> pd.DataFrame:
    """Exact-N data-mixing sample (sampling/budget.apportioned_sample):
    120 slots apportioned across sources by largest remainder with
    md5-derived weights (1 + md5(source) % 4 — BOTH engines derive
    them), selection under the md5 digest order. → sampled
    (doc_id, source)."""
    from ..profiling.sketches import md5_hash64
    from ..sampling.budget import apportioned_sample

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"],
               blocks=8)

    def wt(src: str) -> float:
        # int() first: np.uint64 % python-int promotes to float64 and
        # loses low bits on >2^53 hashes (same pitfall as temperature_mix)
        return 1.0 + (int(md5_hash64(np.array([src], dtype=object))[0]) % 4)

    out = apportioned_sample(ds, ["doc_id"], "source", wt,
                             total_n=APPORTION_N, seed=42).to_pandas()
    return (out[["doc_id", "source"]].astype({"doc_id": "int64"})
            .sort_values("doc_id").reset_index(drop=True))


CORR_MATRIX_COLS = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]


def correlation_matrix_lineitem(sf_dir: str) -> pd.DataFrame:
    """Full numeric correlation matrix in ONE streaming pass: the
    columns stack into a vector per row and ride the mergeable
    (Σxxᵀ, Σx, n) covariance fold (similarity/pca.covariance — the same
    partials PCA uses); all pairwise Pearson r derive on the driver from
    the d×d matrix. → one row per ordered pair (col_a < col_b) with
    round-6 r."""
    from ..similarity.pca import covariance

    cols = CORR_MATRIX_COLS
    ds = _read(sf_dir, "lineitem", columns=cols)

    def vecs(b: pd.DataFrame) -> pd.DataFrame:
        m = b[cols].to_numpy(np.float64)
        m = m[~np.isnan(m).any(axis=1)]
        return pd.DataFrame({"v": list(m)})

    cov, _mu, n = covariance(ds.map_batches(vecs, batch_format="pandas"),
                             "v")
    sd = np.sqrt(np.diag(cov))
    rows = []
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            r = cov[i, j] / (sd[i] * sd[j])
            rows.append((cols[i], cols[j], float(round_half_away(r)), n))
    out = pd.DataFrame(rows, columns=["col_a", "col_b", "r", "n"])
    out["n"] = out["n"].astype("int64")
    return out


def mad_outliers_orders(sf_dir: str) -> pd.DataFrame:
    """Per-status robust outlier scan of order totals
    (profiling/datarules.grouped_mad_outliers, z=3): exact grouped
    median/MAD fences, one counting pass. → (o_orderstatus, med, mad,
    fence_lo, fence_hi, n_outliers, n)."""
    from ..profiling.datarules import grouped_mad_outliers

    ds = _read(sf_dir, "orders", columns=["o_orderstatus", "o_totalprice"])
    return grouped_mad_outliers(ds, "o_orderstatus", "o_totalprice", z=3.0)


SRC_KL_BUCKETS = 512


def source_divergence_docs(sf_dir: str) -> pd.DataFrame:
    """Per-source token-distribution divergence from the corpus — the
    data-mixing diagnostic (which sources are lexically 'off'):
    whitespace tokens of lower(text) hash into 512 md5 buckets (DSIR's
    fixed-size distribution trick), ONE (source, bucket) counting
    exchange, then add-one-smoothed KL(source ‖ corpus) on the driver
    (state ∝ sources × buckets). → (source, n_tokens, kl)."""
    from ..profiling.groupagg import grouped_aggregate
    from ..profiling.sketches import md5_hash64

    ds = _read(sf_dir, "documents", columns=["text", "source"])
    B = SRC_KL_BUCKETS

    def buckets(b: pd.DataFrame) -> pd.DataFrame:
        ex = b["text"].astype("string").str.lower().str.split().explode() \
            .dropna()
        if ex.empty:
            return pd.DataFrame({"source": pd.Series(dtype=object),
                                 "b": pd.Series(dtype="int64")})
        codes, uniq = pd.factorize(ex.to_numpy(dtype=object))
        hu = md5_hash64(uniq) % np.uint64(B)  # md5 once per DISTINCT token
        return pd.DataFrame({
            "source": b["source"].to_numpy()[ex.index.to_numpy()],
            "b": hu.astype(np.int64)[codes],
        })

    c = grouped_aggregate(ds.map_batches(buckets, batch_format="pandas"),
                          ["source", "b"], {"n": ("", "count")})
    tot = c.groupby("b")["n"].sum()
    n_all = float(tot.sum())
    q = np.ones(B)  # add-one smoothing
    q[tot.index.to_numpy(np.int64)] += tot.to_numpy(np.float64)
    q /= (n_all + B)
    rows = []
    for src, sub in c.groupby("source", sort=True):
        ns = float(sub["n"].sum())
        p = np.ones(B)
        p[sub["b"].to_numpy(np.int64)] += sub["n"].to_numpy(np.float64)
        p /= (ns + B)
        kl = float((p * np.log(p / q)).sum())
        rows.append((src, int(ns), float(round_half_away(kl))))
    return pd.DataFrame(rows, columns=["source", "n_tokens", "kl"])


def readability_docs(sf_dir: str) -> pd.DataFrame:
    """Flesch reading-ease per doc (rules/heuristics.readability_stats —
    the exact vowel-run syllable contract both engines share), one
    stateless pass. → (doc_id, n_words, n_sentences, n_syllables,
    flesch) for non-empty docs."""
    from ..rules.heuristics import readability_stats

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"], blocks=8)

    def stage(b: pd.DataFrame) -> pd.DataFrame:
        r = readability_stats(b["text"])
        out = pd.DataFrame({"doc_id": b["doc_id"], **r})
        return out[~np.isnan(r["flesch"])]

    out = ds.map_batches(stage, batch_format="pandas").to_pandas()
    for c in ("n_words", "n_sentences", "n_syllables"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]


def fuzzy_lookup_customers(sf_dir: str) -> pd.DataFrame:
    """Nearest-canonical standardization
    (stages/standardize.fuzzy_lookup): each customer's market segment is
    deterministically corrupted (char at custkey % len dropped,
    lowercased) by BOTH engines, then mapped back to the closest
    canonical segment by Levenshtein (ties alphabetical). → per-row
    (c_custkey, messy, canonical, lev); every row must map back to its
    true segment with distance == len(segment)."""
    from ..stages.standardize import fuzzy_lookup

    ds = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])

    def corrupt(b: pd.DataFrame) -> pd.DataFrame:
        k = b["c_custkey"].astype("int64").to_numpy()
        seg = b["c_mktsegment"].astype(str)
        pos = k % seg.str.len().to_numpy()
        messy = np.array([s[:p] + s[p + 1:] for s, p in zip(seg, pos)],
                         dtype=object)
        return pd.DataFrame({"c_custkey": b["c_custkey"],
                             "messy": pd.Series(messy,
                                                index=b.index).str.lower()})

    out = fuzzy_lookup(ds.map_batches(corrupt, batch_format="pandas"),
                       "messy", SEGMENTS).to_pandas()
    out["lev"] = out["lev"].astype("int64")
    return (out[["c_custkey", "messy", "canonical", "lev"]]
            .sort_values("c_custkey").reset_index(drop=True))


CALIBRATION_BINS = 10


def calibration_docs(sf_dir: str) -> pd.DataFrame:
    """Reliability diagram for the quality classifier vs the rule
    chain's keep label: equal-population score deciles via the
    range-partitioned global rank (bin = (rank−1)·10 // n — explicit
    formula, identical in SQL), per-bin count / mean score / keep rate.
    → (bin, n, mean_score, keep_rate)."""
    from ..functions.joins import hash_join
    from ..functions.partitioning import global_row_number
    from ..profiling.groupagg import grouped_aggregate

    clf = _quality_classifier_ds(sf_dir)
    chain = _quality_filter_docs_ds(sf_dir).map_batches(
        lambda b: pd.DataFrame({"doc_id": b["doc_id"],
                                "keep": b["keep"].astype(np.int64)}),
        batch_format="pandas")
    j = hash_join(clf.map_batches(
        lambda b: b[["doc_id", "quality_score"]], batch_format="pandas"),
        chain, on="doc_id", right_cols=["keep"])
    ranked = global_row_number(j, "quality_score", tiebreak="doc_id",
                               out_col="rn").materialize()
    n = ranked.count()

    def binit(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["bin"] = ((b["rn"].to_numpy(np.int64) - 1)
                    * CALIBRATION_BINS // n)
        return b[["bin", "quality_score", "keep"]]

    g = grouped_aggregate(ranked.map_batches(binit, batch_format="pandas"),
                          ["bin"], {"n": ("", "count"),
                                    "s": ("quality_score", "sum"),
                                    "k": ("keep", "sum")})
    g = g.sort_values("bin").reset_index(drop=True)

    out = pd.DataFrame({
        "bin": g["bin"].astype("int64"),
        "n": g["n"].astype("int64"),
        "mean_score": round_half_away(g["s"] / g["n"]),
        "keep_rate": round_half_away(g["k"] / g["n"]),
    })
    return out


def domain_quality_prune_docs(sf_dir: str) -> pd.DataFrame:
    """Per-domain quality pruning (the FineWeb-style curation step):
    keep every doc whose hashed-linear quality score is >= its
    registered domain's EXACT median (quantile_disc via one
    (domain, score)→count exchange, profiling/quantile_exact.
    grouped_disc_quantile), cutoffs broadcast back into one streaming
    filter pass. → kept (doc_id, domain, quality_score)."""
    import ray

    from ..functions.broadcast import cached_get
    from ..functions.urls import registered_domains, url_parts
    from ..profiling.quantile_exact import grouped_disc_quantile

    base = _quality_classifier_ds(sf_dir)

    # doc→domain from the derived URLs, broadcast once as sorted arrays
    # (bounded by the corpus id table — the source_contamination note;
    # at scale ride hash_join instead)
    src = _read(sf_dir, "documents", columns=["doc_id", "source"]) \
        .map_batches(
            lambda b: pd.DataFrame({
                "doc_id": b["doc_id"],
                "domain": registered_domains(
                    url_parts(_derive_doc_urls(b))["host"]).astype(object),
            }), batch_format="pandas").to_pandas()
    src = src[src["domain"].notna()].sort_values("doc_id")
    dref = ray.put((src["doc_id"].to_numpy(np.int64),
                    src["domain"].to_numpy(object)))

    def tag_domain(b: pd.DataFrame) -> pd.DataFrame:
        ids, doms = cached_get(dref)
        d = b["doc_id"].to_numpy(np.int64)
        pos = np.searchsorted(ids, d)
        ok = (pos < len(ids)) & (ids[np.clip(pos, 0, len(ids) - 1)] == d)
        out = b[ok][["doc_id", "quality_score"]].copy()
        out["domain"] = doms[pos[ok]]
        return out

    tagged = base.map_batches(tag_domain, batch_format="pandas") \
        .materialize()
    med = grouped_disc_quantile(tagged, "domain", "quality_score", 0.5)
    med = med.sort_values("domain")
    ref = ray.put((med["domain"].to_numpy(object),
                   med["q_val"].to_numpy(np.float64)))

    def prune(b: pd.DataFrame) -> pd.DataFrame:
        doms, cuts = cached_get(ref)
        pos = np.searchsorted(doms, b["domain"].to_numpy(object))
        keep = b["quality_score"].to_numpy(np.float64) >= cuts[pos]
        return b[keep]

    out = tagged.map_batches(prune, batch_format="pandas").to_pandas()
    return (out[["doc_id", "domain", "quality_score"]]
            .sort_values("doc_id").reset_index(drop=True))


def cumulative_users_events(sf_dir: str) -> pd.DataFrame:
    """Cumulative distinct users per day WITHOUT a distinct-over-window
    scan: cumulative distinct == running sum of FIRST-SEEN counts, so
    one (user → min day) exchange + a per-day count + a driver cumsum
    over the day axis (state ∝ days) replaces an O(days × users)
    window. The oracle recomputes each day independently with
    count(DISTINCT) correlated subqueries. → (day, new_users,
    cum_users)."""
    from ..profiling.groupagg import grouped_aggregate

    ds = _read(sf_dir, "events", columns=["ts", "user_id"])
    days = ds.map_batches(
        lambda b: pd.DataFrame({"user_id": b["user_id"],
                                "day": b["ts"].dt.floor("D")}),
        batch_format="pandas")
    days = days.materialize()  # two consumers: first-seen fold + day axis
    first = grouped_aggregate(days, ["user_id"], {"d0": ("day", "min")},
                              final="shuffle")
    per_day = grouped_aggregate(
        first.map_batches(lambda b: b[["d0"]].rename(columns={"d0": "day"}),
                          batch_format="pandas"),
        ["day"], {"new_users": ("", "count")})
    axis = grouped_aggregate(days, ["day"], {"n": ("", "count")})["day"]
    per_day = (per_day.set_index("day")["new_users"]
               .reindex(sorted(axis), fill_value=0).rename_axis("day")
               .reset_index())
    per_day["new_users"] = per_day["new_users"].astype("int64")
    per_day["cum_users"] = per_day["new_users"].cumsum().astype("int64")
    return per_day


def gini_customer_spend(sf_dir: str) -> pd.DataFrame:
    """Gini coefficient of per-customer order spend — the contribution-
    inequality metric for source/domain balance audits: per-customer
    sums (one grouped exchange), exact global ranks via the range-
    partitioned global_row_number (no global sort), then the fixed-width
    (Σ i·xᵢ, Σ xᵢ, n) fold. → one row (n, total, gini)."""
    from ..functions.partitioning import global_row_number
    from ..profiling.groupagg import grouped_aggregate

    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    spend = grouped_aggregate(ds, ["o_custkey"],
                              {"x": ("o_totalprice", "sum")},
                              final="shuffle")
    # money contract: rank on 2-dp half-away sums so a sub-ulp
    # cross-engine difference in a customer's sum cannot flip rank order
    spend = spend.map_batches(
        lambda b: b.assign(x=round_half_away(b["x"].to_numpy(np.float64), 2)),
        batch_format="pandas")
    ranked = global_row_number(spend, "x", tiebreak="o_custkey",
                               out_col="i")

    def fold(b: pd.DataFrame) -> pd.DataFrame:
        x = b["x"].to_numpy(np.float64)
        i = b["i"].to_numpy(np.float64)
        return pd.DataFrame({"sxi": [float((x * i).sum())],
                             "sx": [float(x.sum())], "n": [len(x)]})

    p = ranked.map_batches(fold, batch_format="pandas").to_pandas()
    n = int(p["n"].sum())
    sx = float(p["sx"].sum())
    sxi = float(p["sxi"].sum())
    gini = (2.0 * sxi) / (n * sx) - (n + 1.0) / n if n and sx else float("nan")
    return pd.DataFrame({"n": [n], "total": [round(sx, 2)],
                         "gini": [round(gini, 6)]})


ACF_MAX_LAG = 5


def acf_events(sf_dir: str) -> pd.DataFrame:
    """Autocorrelation of the hourly event-count series at lags 1..5:
    one (hour → count) fold (state ∝ hours), driver Pearson r between
    the series and its lag over the OBSERVED consecutive-hour pairs
    (hour t and t−lag both present). → (lag, n_pairs, acf)."""
    from ..profiling.groupagg import grouped_aggregate

    ds = _read(sf_dir, "events", columns=["ts"])
    hours = ds.map_batches(
        lambda b: pd.DataFrame({"hour": b["ts"].dt.floor("h")}),
        batch_format="pandas")
    c = grouped_aggregate(hours, ["hour"], {"n": ("", "count")})
    c = c.sort_values("hour").reset_index(drop=True)
    idx = c.set_index("hour")["n"]
    rows = []
    for lag in range(1, ACF_MAX_LAG + 1):
        shifted = idx.copy()
        shifted.index = shifted.index + pd.Timedelta(hours=lag)
        j = pd.concat([idx.rename("a"), shifted.rename("b")],
                      axis=1).dropna()
        r = float(np.corrcoef(j["a"], j["b"])[0, 1]) if len(j) > 1 else float("nan")
        rows.append((lag, len(j), round(r, 6)))
    return pd.DataFrame(rows, columns=["lag", "n_pairs", "acf"]).astype(
        {"lag": "int64", "n_pairs": "int64"})


def nfc_normalize_docs(sf_dir: str) -> pd.DataFrame:
    """Unicode NFC canonicalization parity
    (functions/confusables.nfc_normalize_series): every doc gets
    combining-mark suffixes appended by BOTH engines (e+U+0301,
    o+U+0308), then composes — per-row equality of the NFC string plus
    the composed length. → (doc_id, text_nfc_len, changed)."""
    from ..functions.confusables import add_nfc

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def decompose(b: pd.DataFrame) -> pd.DataFrame:
        d = b["doc_id"].astype("int64")
        t = b["text"].astype("string")
        suffix = pd.Series(
            # DECOMPOSED combining forms; NFC composes them
            np.where(d % 2 == 0, " cafe\u0301", " zo\u0308e"),
            index=b.index)
        return pd.DataFrame({"doc_id": b["doc_id"], "raw": t + suffix})

    out = add_nfc(ds.map_batches(decompose, batch_format="pandas"),
                  "raw").to_pandas()
    res = pd.DataFrame({
        "doc_id": out["doc_id"],
        "text_nfc": out["text_nfc"].astype(object),
        "nfc_len": out["text_nfc"].astype("string").str.len().astype("int64"),
        "changed": (out["text_nfc"].astype(object)
                    != out["raw"].astype(object)),
    })
    return res.sort_values("doc_id").reset_index(drop=True)


def source_contamination_docs(sf_dir: str) -> pd.DataFrame:
    """Cross-source duplication matrix — which sources copy from which:
    MinHash near-dup pairs (md5 mode, the gated oracled machinery)
    tagged with each side's source via a sorted id→source lookup — the
    pair set AND the id table are driver-bounded here (at scale: the
    pairs dataset route + two hash_joins), pair counts folded per
    UNORDERED source pair. → (source_a, source_b, n_pairs) with
    source_a <= source_b."""
    from ..dedup.minhash import candidate_pairs, minhash_bands, verify_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "source"])
    bands = minhash_bands(ds, "doc_id", "text", hash_fn="md5")
    pairs = candidate_pairs(bands, "doc_id")
    ver = verify_pairs(ds, pairs, "doc_id", "text", threshold=0.5,
                       hash_fn="md5")

    src = (ds.map_batches(lambda b: b[["doc_id", "source"]],
                          batch_format="pandas").to_pandas()
           .sort_values("doc_id"))
    ids = src["doc_id"].to_numpy(np.int64)
    names = src["source"].to_numpy(object)
    a = names[np.searchsorted(ids, ver["id_a"].to_numpy(np.int64))]
    b = names[np.searchsorted(ids, ver["id_b"].to_numpy(np.int64))]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    out = (pd.DataFrame({"source_a": lo, "source_b": hi})
           .groupby(["source_a", "source_b"]).size().rename("n_pairs")
           .reset_index())
    out["n_pairs"] = out["n_pairs"].astype("int64")
    return out.sort_values(["source_a", "source_b"]).reset_index(drop=True)


def strip_html_docs(sf_dir: str) -> pd.DataFrame:
    """HTML text extraction (functions/html.strip_html): every doc is
    deterministically wrapped in markup (script/style blocks on modular
    ids, attributes, entities) by BOTH engines, then stripped back —
    per-row equality of the extracted text. → (doc_id, text_clean)."""
    from ..functions.html import add_stripped_html

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def wrap(b: pd.DataFrame) -> pd.DataFrame:
        d = b["doc_id"].astype("int64")
        t = b["text"].astype("string")
        script = pd.Series(np.where(
            d % 3 == 0,
            '<script type="text/javascript">var x = 1 < 2;</script>', ""),
            index=b.index)
        style = pd.Series(np.where(
            d % 5 == 0, "<style>.c { color: red }</style>", ""),
            index=b.index)
        html = ("<html><head><title>T</title>" + script + style
                + '<body class="main"><h1>Doc ' + d.astype(str)
                + "</h1><p>" + t + "</p><p>tail &amp; more&nbsp;text</p>"
                + "</body></html>")
        return pd.DataFrame({"doc_id": b["doc_id"], "html": html})

    out = add_stripped_html(ds.map_batches(wrap, batch_format="pandas"),
                            "html").to_pandas()
    return (out[["doc_id", "text_clean"]]
            .sort_values("doc_id").reset_index(drop=True))


KCORE_K, KCORE_ROUNDS = 3, 12


def kcore_parts(sf_dir: str) -> pd.DataFrame:
    """k-core decomposition of the part co-order graph
    (functions/graph.kcore, k=3, 12 fixed peeling rounds — rounds past
    the fixpoint are no-ops, making the data-dependent iteration
    SQL-replayable with unrolled CTEs). → (id, deg) of the surviving
    core, deg inside the core."""
    from ..functions.graph import kcore

    edges = _coorder_edges(sf_dir)
    out = kcore(edges, k=KCORE_K, rounds=KCORE_ROUNDS).to_pandas()
    if out.empty:
        return pd.DataFrame({"id": pd.Series(dtype="int64"),
                             "deg": pd.Series(dtype="int64")})
    return (out.astype("int64").sort_values("id").reset_index(drop=True))


LOGREG_ROUNDS, LOGREG_LR = 8, 1.0


def logreg_lineitem(sf_dir: str) -> pd.DataFrame:
    """Distributed logistic regression (similarity/logreg.logreg_fit):
    predict l_returnflag == 'R' from scaled (quantity, discount,
    extendedprice) with 8 quantized full-batch GD rounds — one
    fixed-width partial pass per round, weights re-rounded 6 dp so the
    unrolled SQL CTE replays every round. → one row
    (n, loss, w0..w3)."""
    from ..similarity.logreg import logreg_fit

    ds = _read(sf_dir, "lineitem",
               columns=["l_quantity", "l_discount", "l_extendedprice",
                        "l_returnflag"])

    def feats(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "x1": b["l_quantity"].to_numpy(np.float64) / 50.0,
            "x2": b["l_discount"].to_numpy(np.float64) * 10.0,
            "x3": b["l_extendedprice"].to_numpy(np.float64) / 100000.0,
            "y": (b["l_returnflag"] == "R").to_numpy(np.float64),
        })

    r = logreg_fit(ds.map_batches(feats, batch_format="pandas"),
                   ["x1", "x2", "x3"], "y",
                   rounds=LOGREG_ROUNDS, lr=LOGREG_LR)
    out = {"n": [r["n"]], "loss": [round(r["loss"], 6)]}
    for i, wi in enumerate(r["w"]):
        out[f"w{i}"] = [round(float(wi), 6)]
    return pd.DataFrame(out)


def lang_mix_docs(sf_dir: str) -> pd.DataFrame:
    """Code-switching / language-mixing detection: the langid heuristic
    applied to the whole doc AND to each non-empty line ('\\n' split) in
    ONE streaming pass (model built once per actor, line predictions on
    the exploded axis); a line is off-language when its prediction
    differs from the doc's. → (doc_id, lang_doc, n_lines, n_offlang,
    mix_ratio) for docs with >= 1 non-empty line."""
    from ..stages.models import HeuristicLangID, process_model

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def stage(b: pd.DataFrame) -> pd.DataFrame:
        model = process_model(HeuristicLangID)
        doc_pred = model.predict(b["text"].to_numpy())
        lines = b["text"].astype("string").str.split("\n")
        ex = lines.explode()
        # strip SPACES only — matches the oracle's trim(l) semantics
        ex = ex[ex.notna() & (ex.str.strip(" ") != "")]
        lp = model.predict(ex.to_numpy(dtype=object))
        f = pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy()[ex.index.to_numpy()],
            "off": lp != doc_pred[ex.index.to_numpy()],
        })
        g = f.groupby("doc_id", sort=False).agg(
            n_lines=("off", "size"), n_offlang=("off", "sum"))
        g["lang_doc"] = pd.Series(doc_pred, index=b["doc_id"].to_numpy()
                                  ).reindex(g.index).to_numpy()
        return g.reset_index()

    out = ds.map_batches(stage, batch_format="pandas").to_pandas()
    out[["n_lines", "n_offlang"]] = out[["n_lines", "n_offlang"]].astype("int64")
    out["mix_ratio"] = round_half_away(out["n_offlang"] / out["n_lines"])
    return (out[["doc_id", "lang_doc", "n_lines", "n_offlang", "mix_ratio"]]
            .sort_values("doc_id").reset_index(drop=True))


def best_of_cluster_docs(sf_dir: str) -> pd.DataFrame:
    """Text survivorship across near-dup clusters — the text twin of the
    image keep-sharpest rule: MinHash clusters (md5 mode) pick their
    highest-quality member by the hashed-linear score, ties to the
    smaller id. Cluster labels broadcast once (bounded by the DUPLICATED
    doc count — dedup/exact's winner pattern; a corpus whose duplicate
    set exceeds a broadcast routes the same tag through hash_join), one
    streaming score pass, driver argmax over clustered docs only.
    → (cluster, keeper_id, n_docs, best_score)."""
    import ray

    from ..functions.broadcast import cached_get

    clusters = minhash_dedup(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        "doc_id", "text", threshold=0.5, hash_fn="md5")
    if clusters.empty:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in
                             ["cluster", "keeper_id", "n_docs"]}).assign(
            best_score=pd.Series(dtype="float64"))
    srt = clusters.sort_values("doc_id")
    ref = ray.put((srt["doc_id"].to_numpy(np.int64),
                   srt["cluster"].to_numpy(np.int64)))

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        ids, lbl = cached_get(ref)
        d = b["doc_id"].to_numpy(np.int64)
        pos = np.searchsorted(ids, d)
        ok = (pos < len(ids)) & (ids[np.clip(pos, 0, len(ids) - 1)] == d)
        out = b[ok].copy()
        out["cluster"] = lbl[pos[ok]]
        return out[["doc_id", "cluster", "quality_score"]]

    tagged = (_quality_classifier_ds(sf_dir)
              .map_batches(tag, batch_format="pandas").to_pandas())
    tagged = tagged.sort_values(["cluster", "quality_score", "doc_id"],
                                ascending=[True, False, True],
                                kind="mergesort")
    out = tagged.groupby("cluster", sort=True).agg(
        keeper_id=("doc_id", "first"), n_docs=("doc_id", "count"),
        best_score=("quality_score", "first")).reset_index()
    out[["cluster", "keeper_id", "n_docs"]] = out[
        ["cluster", "keeper_id", "n_docs"]].astype("int64")
    return out


def peak_rate_users_events(sf_dir: str) -> pd.DataFrame:
    """Per-user peak-rate abuse screen
    (profiling/datarules.peak_rate_users, hourly buckets, threshold 2):
    users whose busiest hour exceeds the rate cap.
    → (user_id, peak, n_events, n_buckets)."""
    from ..profiling.datarules import peak_rate_users

    ds = _read(sf_dir, "events", columns=["ts", "user_id"])
    return peak_rate_users(ds, "ts", "user_id", freq="h", threshold=2)


def epoch_plan_docs(sf_dir: str) -> pd.DataFrame:
    """Reproducible epoch layout (pipelines/epochs.epoch_plan, seed=11,
    64 rows/shard): shard_id and in-shard position per doc from the
    seeded global shuffle rank — one exchange, identical on any
    partitioning. → (doc_id, shard_id, pos)."""
    from ..pipelines.epochs import epoch_plan

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    out = epoch_plan(ds, "doc_id", seed=11, shard_rows=64).to_pandas()
    out[["shard_id", "pos"]] = out[["shard_id", "pos"]].astype("int64")
    return (out[["doc_id", "shard_id", "pos"]]
            .sort_values("doc_id").reset_index(drop=True))


def pii_audit_docs(sf_dir: str) -> pd.DataFrame:
    """PII/toxicity exposure audit (rules/scrub.pii_audit): doc and hit
    counts per category from the same compiled patterns the scrub stage
    rewrites with. → one row."""
    from ..rules.scrub import pii_audit

    ds = _read(sf_dir, "documents", columns=["text"])
    return pii_audit(ds, "text")


def zipf_fit_docs(sf_dir: str) -> pd.DataFrame:
    """Zipf's-law fit over the whitespace-token stream of lower(text)
    (profiling/datarules.zipf_fit, top 500 tokens): OLS of ln(freq) on
    ln(rank). → one row (n_tokens, slope, intercept, r)."""
    from ..profiling.datarules import zipf_fit

    ds = _read(sf_dir, "documents", columns=["text"])

    def tokens(batch: pa.Table) -> pa.Table:
        toks = [t for v in batch["text"].to_numpy(zero_copy_only=False)
                for t in (v or "").lower().split()]
        return pa.table({"token": pa.array(toks, type=pa.string())})

    r = zipf_fit(ds.map_batches(tokens, batch_format="pyarrow"), "token")
    return pd.DataFrame({"n_tokens": [r["n_tokens"]],
                         "slope": [round(r["slope"], 6)],
                         "intercept": [round(r["intercept"], 6)],
                         "r": [round(r["r"], 6)]})


CONTRACT_CUSTOMER = {
    "c_acctbal": {"min": -900.0, "max": 9000.0},
    "c_custkey": {"not_null": True, "unique": True},
    "c_mktsegment": {"allowed": ["AUTOMOBILE", "BUILDING", "FURNITURE",
                                 "HOUSEHOLD"]},
    "c_name": {"regex": "Customer#[0-9]{9}"},
    "c_nationkey": {"min": 0, "max": 20},
}


def contract_check_customer(sf_dir: str) -> pd.DataFrame:
    """Declarative table contract (profiling/contract.contract_check)
    over customer: bounds / allowed set / regex / not-null in one
    counting pass, uniqueness via the combined distinct exchange.
    → (column, rule, n_violations, n) per declared rule."""
    from ..profiling.contract import contract_check

    ds = _read(sf_dir, "customer",
               columns=["c_custkey", "c_name", "c_nationkey", "c_acctbal",
                        "c_mktsegment"])
    return contract_check(ds, CONTRACT_CUSTOMER)


def dp_counts_orders(sf_dir: str) -> pd.DataFrame:
    """ε-DP Laplace count release over order priorities
    (profiling/datarules.dp_noisy_counts, eps=0.5, seed=42) —
    deterministic seeded noise, SQL replays the inverse-CDF transform
    from the same md5 stream. → (o_orderpriority, n, noisy_n)."""
    from ..profiling.datarules import dp_noisy_counts

    ds = _read(sf_dir, "orders", columns=["o_orderpriority"])
    return dp_noisy_counts(ds, "o_orderpriority", eps=0.5, seed=42)


def scd2_orders(sf_dir: str) -> pd.DataFrame:
    """SCD type-2 history collapse (functions/scd.scd2_collapse): each
    customer's order-status history ordered by (date, orderkey) folds
    into validity runs — valid_from/valid_to/is_current per run of equal
    status. → one row per run."""
    from ..functions.scd import scd2_collapse

    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderdate", "o_orderkey",
                        "o_orderstatus"])
    out = scd2_collapse(ds, "o_custkey", ["o_orderdate", "o_orderkey"],
                        ["o_orderstatus"]).to_pandas()
    return (out[["o_custkey", "o_orderstatus", "valid_from", "n_rows",
                 "valid_to", "is_current"]]
            .sort_values(["o_custkey", "valid_from", "o_orderstatus"])
            .reset_index(drop=True))


def domain_quality_report_docs(sf_dir: str) -> pd.DataFrame:
    """Per-domain crawl-curation report — the composition a web-scale
    run actually produces: ONE stateless pass computes each doc's rule
    verdict (cached chain) AND its registered domain (derived URL →
    functions/urls), pre-aggregates per (domain, batch), and one tiny
    grouped exchange merges. → (domain, n_docs, n_keep, keep_rate,
    n_scrubbed) per domain."""
    from ..functions.urls import registered_domains, url_parts
    from ..pipelines.quality_filter import build_docs_chain, cached_chain
    from ..profiling.groupagg import grouped_aggregate

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "text", "lang", "source"])

    def fold(b: pd.DataFrame) -> pd.DataFrame:
        engine = cached_chain(build_docs_chain)
        res = engine.apply(b["text"].to_numpy(),
                           aux={"lang": b["lang"].to_numpy()})
        dom = registered_domains(url_parts(_derive_doc_urls(b))["host"])
        f = pd.DataFrame({
            "domain": dom.astype(object),
            "keep": (res.verdict != "DROP").astype(np.int64),
            "scrub": np.isin(res.first_rule,
                             ["toxicity", "pii_email", "pii_ssn",
                              "pii_phone"]).astype(np.int64),
        })
        f = f[f["domain"].notna()]
        return (f.groupby("domain", sort=False)
                .agg(n_docs=("keep", "size"), n_keep=("keep", "sum"),
                     n_scrubbed=("scrub", "sum")).reset_index())

    parts = ds.map_batches(fold, batch_format="pandas")
    out = grouped_aggregate(parts, ["domain"],
                            {"n_docs": ("n_docs", "sum"),
                             "n_keep": ("n_keep", "sum"),
                             "n_scrubbed": ("n_scrubbed", "sum")})
    out[["n_docs", "n_keep", "n_scrubbed"]] = out[
        ["n_docs", "n_keep", "n_scrubbed"]].astype("int64")
    kr = out["n_keep"].to_numpy(np.float64) / out["n_docs"].to_numpy(np.float64)
    out["keep_rate"] = round_half_away(kr)
    return (out[["domain", "n_docs", "n_keep", "keep_rate", "n_scrubbed"]]
            .sort_values("domain").reset_index(drop=True))


def spearman_lineitem(sf_dir: str) -> pd.DataFrame:
    """Spearman rank correlation between quantity and extended price
    (profiling/datarules.spearman — tagged value-count fold → broadcast
    avg-rank fill → Pearson co-moment fold, zero sort exchanges).
    → one row (n, spearman)."""
    from ..profiling.datarules import spearman

    ds = _read(sf_dir, "lineitem",
               columns=["l_quantity", "l_extendedprice"])
    r = spearman(ds, "l_quantity", "l_extendedprice")
    return pd.DataFrame({"n": [r["n"]],
                         "spearman": [round(r["spearman"], 6)]})


def seeded_shuffle_docs(sf_dir: str) -> pd.DataFrame:
    """Deterministic seeded global shuffle order
    (functions/partitioning.seeded_shuffle_rank, seed=7): rank =
    row_number over (md5-low-64 of '7-doc_id', doc_id), reproducible on
    any partitioning. → (doc_id, rank) for every doc."""
    from ..functions.partitioning import seeded_shuffle_rank

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    out = seeded_shuffle_rank(ds, "doc_id", seed=7).to_pandas()
    out["rank"] = out["rank"].astype("int64")
    return out[["doc_id", "rank"]].sort_values("doc_id").reset_index(drop=True)


def chi_square_orders(sf_dir: str) -> pd.DataFrame:
    """Chi-square independence + Cramér's V between order status and
    priority from one joint-count fold (profiling/datarules.chi_square).
    → one row (n, chi2, dof, cramers_v)."""
    from ..profiling.datarules import chi_square

    ds = _read(sf_dir, "orders",
               columns=["o_orderstatus", "o_orderpriority"])
    r = chi_square(ds, "o_orderstatus", "o_orderpriority")
    return pd.DataFrame({"n": [r["n"]], "chi2": [round(r["chi2"], 6)],
                         "dof": [r["dof"]],
                         "cramers_v": [round(r["cramers_v"], 6)]})


def ewma_anomalies_events(sf_dir: str) -> pd.DataFrame:
    """EWMA control chart over hourly event-type counts
    (profiling/datarules.ewma_anomalies, alpha=0.3, sigma=3): top-10
    buckets by exceedance score, 6-dp-quantized per round so the SQL
    recursive CTE replays the float iteration bit-for-bit.
    → (event_type, hour, n, ewma_prev, threshold, score, flagged)."""
    from ..profiling.datarules import ewma_anomalies

    ds = _read(sf_dir, "events", columns=["ts", "event_type"])
    return ewma_anomalies(ds, "ts", "event_type", alpha=0.3, sigma=3.0,
                          top=10)


def rate_anomalies_events(sf_dir: str) -> pd.DataFrame:
    """Poisson burst scan over (event_type, hour) buckets
    (profiling/datarules.rate_anomalies, sigma=3).
    → flagged (event_type, hour, n, expected, threshold)."""
    from ..profiling.datarules import rate_anomalies

    ds = _read(sf_dir, "events", columns=["ts", "event_type"])
    return rate_anomalies(ds, "ts", "event_type", sigma=3.0)


def hybrid_rrf_docs(sf_dir: str) -> pd.DataFrame:
    """Hybrid lexical+vector retrieval: BM25 top-20 and cosine top-20
    (query vectors = embeddings 0/1/2, one broadcast-matrix corpus pass)
    fused by reciprocal-rank fusion (similarity/hybrid.py).
    → (query_id, doc_id, rrf, rank) top-10 per query."""
    from ..similarity.hybrid import hybrid_search

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qt = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"])
    vid = qt["vec_id"].to_numpy()
    vq = {qid: np.asarray(qt["embedding"][int(np.flatnonzero(vid == i)[0])]
                          .as_py())
          for i, qid in enumerate(sorted(BM25_QUERIES))}
    return hybrid_search(docs, emb, BM25_QUERIES, vq, n_each=20, k=10)


def bigram_pmi_docs(sf_dir: str) -> pd.DataFrame:
    """Top-50 bigram collocations by PMI (count >= 5) over the documents
    text (functions/collocations.py — count partials + auto-gated merge;
    whitespace tokenization shared with heavy_hitter_tokens_docs).
    → (a, b, n, pmi)."""
    from ..functions.collocations import bigram_pmi

    ds = _read(sf_dir, "documents", columns=["text"])
    return bigram_pmi(ds, "text", min_count=5, k=50)


def skyline_parts(sf_dir: str) -> pd.DataFrame:
    """Pareto frontier of part under (minimize p_retailprice, maximize
    p_size): per-block vectorized sort-sweep + tree reduction
    (functions/skyline.py — no shuffle, candidates only).
    → (p_partkey, p_retailprice, p_size)."""
    from ..functions.skyline import skyline2d

    ds = _read(sf_dir, "part",
               columns=["p_partkey", "p_retailprice", "p_size"])
    out = skyline2d(ds, "p_retailprice", "p_size",
                    ["p_partkey", "p_retailprice", "p_size"])
    return out.sort_values("p_partkey").reset_index(drop=True)


def copurchase_lift_lineitem(sf_dir: str) -> pd.DataFrame:
    """Association-rule screen: top-50 part pairs by lift among pairs
    co-ordered >= 2 times (functions/market.py — one order-keyed
    exchange, tagged count partials, auto-gated pair merge).
    → (a, b, n, lift)."""
    from ..functions.market import copurchase_lift

    ds = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    return copurchase_lift(ds, "l_orderkey", "l_partkey",
                           min_support=2, k=50)


def markov_transitions_events(sf_dir: str) -> pd.DataFrame:
    """First-order event_type transition matrix per user timeline
    (functions/markov.py): one user-bucketed exchange, vectorized lag
    pairs, alphabet²-row driver merge. → (src, dst, n, p)."""
    from ..functions.markov import transition_matrix

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_id", "event_type"])
    return transition_matrix(ds, "user_id", "ts", "event_type", "event_id")


def mad_outliers_events(sf_dir: str) -> pd.DataFrame:
    """Robust-z (Iglewicz-Hoaglin MAD) outlier counts on events.value —
    median and the MAD median via the EXACT distributed
    histogram-bisection quantile (profiling/quantile_exact.py): counting
    folds with fixed-size partials only, never a collected column, so
    the exact path itself survives 100 TB. Fences rounded to 6 before
    counting on BOTH sides (the IQR-fence boundary contract). → one row
    (n, median, mad, fence_lo, fence_hi, n_low, n_high)."""
    from ..profiling.datarules import mad_outliers

    ds = _read(sf_dir, "events", columns=["value"])
    r = mad_outliers(ds, "value", z=3.5)
    return pd.DataFrame({
        "n": [r["n"]], "median": [round(r["median"], 6)],
        "mad": [round(r["mad"], 6)],
        "fence_lo": [r["fence_lo"]], "fence_hi": [r["fence_hi"]],
        "n_low": [r["n_low"]], "n_high": [r["n_high"]]})


def uniqueness_profile_customer(sf_dir: str) -> pd.DataFrame:
    """Per-column exact-distinct / null / candidate-key discovery over
    customer (distinct via the hash-bucketed shuffle — never a driver
    set). → (col, n, n_null, n_distinct, uniqueness, is_key)."""
    from ..profiling.datarules import uniqueness_profile

    cols = ["c_custkey", "c_name", "c_nationkey", "c_mktsegment"]
    ds = _read(sf_dir, "customer", columns=cols)
    out = uniqueness_profile(ds, cols).rename(columns={"column": "col"})
    for c in ("n", "n_null", "n_distinct"):
        out[c] = out[c].astype("int64")
    return out.sort_values("col").reset_index(drop=True)


def fd_check_part(sf_dir: str) -> pd.DataFrame:
    """Functional-dependency discovery on part: pair-count shuffle +
    per-lhs rollup, g3 = min deletions to satisfy the FD.
    → (fd, n_groups, n_violating_groups, g3_rows)."""
    from ..profiling.datarules import fd_violations

    ds = _read(sf_dir, "part", columns=["p_name", "p_brand", "p_size"])
    rows = [fd_violations(ds, "p_name", "p_brand"),
            fd_violations(ds, "p_brand", "p_size")]
    out = pd.DataFrame(rows)
    for c in ("n_groups", "n_violating_groups", "g3_rows"):
        out[c] = out[c].astype("int64")
    return out.sort_values("fd").reset_index(drop=True)


def referential_integrity(sf_dir: str) -> pd.DataFrame:
    """Orphan counts for three FK rules via broadcast sorted-key
    membership (zero child-side shuffle). → (rule, n_child, n_orphans)."""
    from ..profiling.datarules import orphan_stats

    specs = [
        ("events.user_id->customer.c_custkey",
         ("events", "user_id"), ("customer", "c_custkey")),
        ("orders.o_custkey->customer.c_custkey",
         ("orders", "o_custkey"), ("customer", "c_custkey")),
        ("customer.c_custkey->events.user_id",
         ("customer", "c_custkey"), ("events", "user_id")),
    ]
    rows = []
    for rule, (ct, ck), (pt, pk) in specs:
        s = orphan_stats(_read(sf_dir, ct, columns=[ck]), ck,
                         _read(sf_dir, pt, columns=[pk]), pk)
        rows.append({"rule": rule, "n_child": s["n"],
                     "n_orphans": s["n_orphans"]})
    out = pd.DataFrame(rows)
    for c in ("n_child", "n_orphans"):
        out[c] = out[c].astype("int64")
    return out.sort_values("rule").reset_index(drop=True)


# ------------------------------------------------- relational completeness


def pivot_orders(sf_dir: str) -> pd.DataFrame:
    """Pivot (conditional aggregation): order counts by priority ×
    status. One grouped partial pass; the driver pivots the tiny grid.
    → (priority, n_F, n_O, n_P)."""
    from ..profiling.groupagg import grouped_aggregate

    out = grouped_aggregate(
        _read(sf_dir, "orders", columns=["o_orderpriority", "o_orderstatus"]),
        ["o_orderpriority", "o_orderstatus"], {"n": ("", "count")})
    grid = out.pivot_table(index="o_orderpriority", columns="o_orderstatus",
                           values="n", fill_value=0, aggfunc="sum")
    res = pd.DataFrame({"priority": grid.index})
    for s in ("F", "O", "P"):
        res[f"n_{s}"] = (grid[s].to_numpy() if s in grid.columns
                         else 0)
        res[f"n_{s}"] = res[f"n_{s}"].astype("int64")
    return res.sort_values("priority").reset_index(drop=True)


def rollup_revenue(sf_dir: str) -> pd.DataFrame:
    """GROUP BY ROLLUP(nation, yr): detail, per-nation subtotals and a
    grand total from ONE finest-grain distributed aggregate (the rollup
    levels re-aggregate the tiny (nation, yr) grid on the driver —
    algebraic, so grouping twice is exact). Sentinels 'ALL'/-1 keep the
    schema null-free. → (nation, yr, revenue, n_orders).

    Probe-side pushdown: ``agg_join(customer, orders,
    right_group_cols=["yr"])`` collapses every orders batch to
    per-(custkey, yr) sum/count partials and fuses join + aggregate into
    ONE exchange — the round-3 form shipped every orders row through the
    join shuffle and then ran a second grouped-aggregate exchange."""
    from ..functions.joins import agg_join, broadcast_join
    from ..profiling.groupagg import grouped_aggregate

    orders = _read(sf_dir, "orders",
                   columns=["o_custkey", "o_totalprice", "o_orderdate"])

    def add_year(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["yr"] = pd.to_datetime(b["o_orderdate"]).dt.year.astype("int64")
        return b[["o_custkey", "o_totalprice", "yr"]]

    orders = orders.map_batches(add_year, batch_format="pandas")
    customer = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]) \
        .map_batches(lambda b: b.rename(columns={"c_custkey": "o_custkey"}),
                     batch_format="pandas")
    nation = pd.read_parquet(f"{sf_dir}/nation.parquet",
                             columns=["n_nationkey", "n_name"]) \
        .rename(columns={"n_nationkey": "c_nationkey", "n_name": "nation"})
    percust = agg_join(customer, orders, on="o_custkey",
                       aggs={"revenue": ("o_totalprice", "sum"),
                             "n_orders": ("", "count")},
                       how="inner", n_buckets=32, right_group_cols=["yr"])
    joined = broadcast_join(percust, nation, on="c_nationkey",
                            right_cols=["c_nationkey", "nation"])
    detail = grouped_aggregate(joined, ["nation", "yr"],
                               {"revenue": ("revenue", "sum"),
                                "n_orders": ("n_orders", "sum")})
    per_nation = (detail.groupby("nation", as_index=False)
                  [["revenue", "n_orders"]].sum().assign(yr=-1))
    grand = pd.DataFrame({"nation": ["ALL"], "yr": [-1],
                          "revenue": [detail["revenue"].sum()],
                          "n_orders": [detail["n_orders"].sum()]})
    out = pd.concat([detail, per_nation, grand], ignore_index=True)
    out["revenue"] = out["revenue"].round(2)
    out["yr"] = out["yr"].astype("int64")
    out["n_orders"] = out["n_orders"].astype("int64")
    return (out[["nation", "yr", "revenue", "n_orders"]]
            .sort_values(["nation", "yr"]).reset_index(drop=True))


def global_top_orders(sf_dir: str, k: int = 100) -> pd.DataFrame:
    """Global top-k WITHOUT a global sort: per-batch top-k partial →
    one driver merge (mergeable and partition-count invariant — the
    same contract as the reservoir). → (o_orderkey, o_totalprice, rank)."""
    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def part(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["o_totalprice", "o_orderkey"],
                             ascending=[False, True], kind="mergesort").head(k)

    frames = list(ds.map_batches(part, batch_format="pandas")
                  .iter_batches(batch_size=4 * k, batch_format="pandas"))
    allp = pd.concat(frames, ignore_index=True) if frames else pd.DataFrame(
        columns=["o_orderkey", "o_totalprice"])
    out = allp.sort_values(["o_totalprice", "o_orderkey"],
                           ascending=[False, True], kind="mergesort").head(k)
    out = out.reset_index(drop=True)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return out


def outer_join_customer_events(sf_dir: str) -> pd.DataFrame:
    """FULL OUTER equi-join against a grouped right side, FUSED into one
    exchange (functions/joins.agg_join): the per-user event tally and
    the outer join ride a single bucketed shuffle instead of a
    grouped-aggregate exchange followed by a join exchange (measured
    6.5 s → ~3 s at sf0.1 — both all-to-alls were latency-bound).
    hash_join(how="outer"), the unfused path, stays DuckDB-parity-tested
    in tests/test_operators.py. Unmatched rows of BOTH sides survive
    (sentinel-filled to keep the schema null-free and dtypes
    oracle-stable). → (c_custkey, c_mktsegment, n_events)."""
    from ..functions.joins import agg_join

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]) \
        .map_batches(lambda b: b[b["c_custkey"] % 3 != 0],
                     batch_format="pandas")
    ev = _read(sf_dir, "events", columns=["user_id"]) \
        .map_batches(lambda b: b.rename(columns={"user_id": "c_custkey"}),
                     batch_format="pandas")
    out = agg_join(cust, ev, on="c_custkey",
                   aggs={"n_events": ("", "count")},
                   how="outer").to_pandas()
    out["c_mktsegment"] = out["c_mktsegment"].fillna("NONE")
    out["n_events"] = out["n_events"].fillna(-1).astype("int64")
    out["c_custkey"] = out["c_custkey"].astype("int64")
    return out.sort_values("c_custkey").reset_index(drop=True)


PSI_BIN_WIDTH = 50_000.0   # shared with the SQL oracle
PSI_SPLIT_YEAR = 1998
PSI_EPS = 1e-6
PSI_N_BINS = 10


def drift_psi_orders(sf_dir: str) -> pd.DataFrame:
    """Population-drift monitor (PSI): o_totalprice histogram of the
    reference period (yr < 1998) vs current (yr ≥ 1998), fixed-width
    bins, per-bin contribution (p−q)·ln(p/q) with 1e-6 floor, plus a
    bin=-1 total row. One partial-combined counting pass — zero extra
    shuffle. → (bin, n_ref, n_cur, p_ref, p_cur, psi_contrib)."""
    from ..profiling.groupagg import grouped_aggregate

    ds = _read(sf_dir, "orders", columns=["o_totalprice", "o_orderdate"])

    def part(b: pd.DataFrame) -> pd.DataFrame:
        yr = pd.to_datetime(b["o_orderdate"]).dt.year.to_numpy()
        bins = np.clip(np.floor(b["o_totalprice"].to_numpy()
                                / PSI_BIN_WIDTH), 0, PSI_N_BINS - 1).astype(np.int64)
        period = np.where(yr < PSI_SPLIT_YEAR, "ref", "cur")
        return pd.DataFrame({"bin": bins, "period": period})

    counts = grouped_aggregate(ds.map_batches(part, batch_format="pandas"),
                               ["bin", "period"], {"n": ("", "count")})
    grid = counts.pivot_table(index="bin", columns="period", values="n",
                              fill_value=0, aggfunc="sum")
    n_ref = grid["ref"].to_numpy(dtype=np.int64) if "ref" in grid else \
        np.zeros(len(grid), dtype=np.int64)
    n_cur = grid["cur"].to_numpy(dtype=np.int64) if "cur" in grid else \
        np.zeros(len(grid), dtype=np.int64)
    tr, tc = n_ref.sum(), n_cur.sum()
    # max(tot, 1): an empty period degrades to all-eps probabilities
    # instead of 0/0 (same guard in the SQL)
    p = np.maximum(n_ref / max(tr, 1), PSI_EPS)
    q = np.maximum(n_cur / max(tc, 1), PSI_EPS)
    contrib = (p - q) * np.log(p / q)
    out = pd.DataFrame({
        "bin": grid.index.to_numpy(dtype=np.int64),
        "n_ref": n_ref, "n_cur": n_cur,
        "p_ref": np.round(p, 6), "p_cur": np.round(q, 6),
        "psi_contrib": np.round(contrib, 6),
    })
    total = pd.DataFrame({"bin": [np.int64(-1)], "n_ref": [tr], "n_cur": [tc],
                          "p_ref": [1.0], "p_cur": [1.0],
                          "psi_contrib": [round(float(contrib.sum()), 6)]})
    return (pd.concat([out, total], ignore_index=True)
            .sort_values("bin").reset_index(drop=True))


def grouped_cardinality_events(sf_dir: str) -> pd.DataFrame:
    """Per-group cardinality two ways: exact distinct users per
    event_type (pair shuffle + rollup) and a per-group mergeable HLL
    (the unbounded-group-size path), gated at 3·rsd like
    cardinality_hll_customer. → (event_type, exact_users, hll_ok)."""
    from ..profiling.groupagg import grouped_aggregate, grouped_sketches
    from ..profiling.sketches import HyperLogLog

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    hlls = grouped_sketches(
        ds, "event_type", HyperLogLog,
        lambda acc, sub: acc.update_array(sub["user_id"].to_numpy()))
    pairs = grouped_aggregate(ds, ["event_type", "user_id"],
                              {"n": ("", "count")}, final="shuffle")
    exact = grouped_aggregate(pairs, ["event_type"],
                              {"exact_users": ("", "count")})
    rows = []
    for _, r in exact.iterrows():
        hll = hlls[r["event_type"]]
        rsd = 1.04 / np.sqrt(hll.m)
        ok = bool(abs(hll.estimate() - r["exact_users"])
                  <= max(3 * rsd * r["exact_users"], 2.0))
        rows.append((r["event_type"], np.int64(r["exact_users"]), ok))
    return (pd.DataFrame(rows, columns=["event_type", "exact_users", "hll_ok"])
            .sort_values("event_type").reset_index(drop=True))


def weighted_sample_orders(sf_dir: str) -> pd.DataFrame:
    """Weighted sample (A-ES, inclusion ∝ o_totalprice): deterministic
    md5-low-64 scores so the SQL oracle replays the exact selection.
    → (o_orderkey, o_totalprice) of the 200 winners."""
    from ..sampling.reservoir import weighted_reservoir_sample

    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    out = weighted_reservoir_sample(ds, ["o_orderkey"], "o_totalprice",
                                    k=200, seed=42)
    return out.sort_values("o_orderkey").reset_index(drop=True)


def grouped_weighted_sample_orders(sf_dir: str) -> pd.DataFrame:
    """Per-group weighted sample (A-ES within each order status,
    inclusion ∝ o_totalprice): per-batch k-per-group prune → ONE
    driver merge (groups × k). → 8 winners per o_orderstatus."""
    from ..sampling.reservoir import grouped_weighted_sample

    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_orderstatus", "o_totalprice"])
    out = grouped_weighted_sample(ds, ["o_orderkey"], "o_orderstatus",
                                  "o_totalprice", k=8, seed=42)
    return (out.sort_values(["o_orderstatus", "o_orderkey"])
            .reset_index(drop=True))


def temporal_consistency_lineitem(sf_dir: str) -> pd.DataFrame:
    """Cross-table temporal rule: a lineitem must not ship before its
    order was placed. The fact table joins the parent through the
    bucketed hash_join (no broadcast assumption on orders), violations
    are counted in streaming partials. → one row
    (rule, n, n_violations, violation_rate)."""
    from ..functions.joins import hash_join

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"]) \
        .map_batches(lambda b: b.rename(columns={"o_orderkey": "l_orderkey"}),
                     batch_format="pandas")
    j = hash_join(li, orders, on="l_orderkey",
                  right_cols=["l_orderkey", "o_orderdate"], n_buckets=32)

    def part(b: pd.DataFrame) -> pd.DataFrame:
        viol = (pd.to_datetime(b["l_shipdate"])
                < pd.to_datetime(b["o_orderdate"]))
        return pd.DataFrame({"n": [len(b)], "n_viol": [int(viol.sum())]})

    n = n_viol = 0
    for b in j.map_batches(part, batch_format="pandas").iter_batches(
            batch_size=4096, batch_format="pandas"):
        n += int(b["n"].sum())
        n_viol += int(b["n_viol"].sum())
    return pd.DataFrame({
        "rule": ["l_shipdate >= o_orderdate"],
        "n": [np.int64(n)], "n_violations": [np.int64(n_viol)],
        "violation_rate": [round(n_viol / n, 6) if n else 0.0],
    })


def langid_confusion_docs(sf_dir: str) -> pd.DataFrame:
    """Model evaluation: confusion matrix of the heuristic language-ID
    prediction vs the table's declared lang — the DQ loop that tells
    you whether a model stage can be trusted as a filter. The oracle
    replays the full heuristic in SQL (shared marker lists), so every
    cell is exact. → (lang_true, lang_pred, n)."""
    from ..profiling.groupagg import grouped_aggregate
    from ..stages.models import HeuristicLangID, process_model

    ds = _read(sf_dir, "documents", columns=["text", "lang"])

    def stage(batch: pa.Table) -> pa.Table:
        model = process_model(HeuristicLangID)
        pred = model.predict(batch["text"].to_numpy(zero_copy_only=False))
        return pa.table({"lang_true": batch["lang"],
                         "lang_pred": pa.array(pred, type=pa.string())})

    out = grouped_aggregate(
        ds.map_batches(stage, batch_format="pyarrow"),
        ["lang_true", "lang_pred"], {"n": ("", "count")})
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["lang_true", "lang_pred"]).reset_index(drop=True)


def rule_report_docs(sf_dir: str) -> pd.DataFrame:
    """Quality report: per-first-rule hit counts from the docs rule
    chain plus how many surviving docs the scrubber actually altered —
    the summary a DQ operator reads after a run (the reference's
    per-analyzer tallies, composed over the chain). → (first_rule, n,
    n_scrubbed)."""
    from ..profiling.groupagg import grouped_aggregate

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"]) \
        .map_batches(lambda b: b.rename(columns={"text": "orig_text"}),
                     batch_format="pandas")
    res = _quality_filter_docs_ds(sf_dir)

    # zip by doc_id via the bucketed join (no driver frames)
    from ..functions.joins import hash_join

    j = hash_join(res, docs, on="doc_id",
                  right_cols=["doc_id", "orig_text"], n_buckets=16)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["rule"] = np.where(b["first_rule"].isna() | (b["first_rule"] == ""),
                             "PASS", b["first_rule"])
        b["scrubbed"] = (b["scrubbed_text"] != b["orig_text"]).astype("int64")
        return b[["rule", "scrubbed"]]

    out = grouped_aggregate(j.map_batches(tag, batch_format="pandas"),
                            ["rule"], {"n": ("", "count"),
                                       "n_scrubbed": ("scrubbed", "sum")})
    out = out.rename(columns={"rule": "first_rule"})
    for c in ("n", "n_scrubbed"):
        out[c] = out[c].astype("int64")
    return out.sort_values("first_rule").reset_index(drop=True)


def catalog_overview(sf_dir: str) -> pd.DataFrame:
    """Catalog summary across every table in the directory: row count
    (parquet metadata only — no data scan) and column count. The first
    thing a DQ operator asks of an unknown dataset. → (tbl, n_rows,
    n_cols)."""
    tables = ["region", "nation", "customer", "supplier", "part",
              "orders", "lineitem", "events", "documents", "embeddings"]
    rows = []
    for t in tables:
        md = pq.read_metadata(f"{sf_dir}/{t}.parquet")
        rows.append({"tbl": t, "n_rows": np.int64(md.num_rows),
                     "n_cols": np.int64(md.num_columns)})
    return pd.DataFrame(rows).sort_values("tbl").reset_index(drop=True)


def source_quality_docs(sf_dir: str) -> pd.DataFrame:
    """Per-source quality report — the "which feed is junk" table every
    corpus triage starts with: rule-chain keep rate + average token
    count per source, the chain verdicts fused to the source/token
    columns through agg-free batch zip (the chain reads the same rows,
    so doc_id join happens inside one pass — zero extra exchange).
    → (source, n, n_keep, keep_rate, avg_tokens)."""
    from ..pipelines.quality_filter import cached_chain
    from ..profiling.groupagg import grouped_aggregate

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "text", "lang", "source"])

    def verdicts(batch: pa.Table) -> pa.Table:
        engine = cached_chain(build_docs_chain)
        res = engine.apply(
            batch["text"],
            aux={"lang": batch["lang"].to_numpy(zero_copy_only=False)})
        return pa.table({
            "source": batch["source"],
            "keep": pa.array((res.verdict != "DROP").astype(np.int64)),
            "n_tok": pa.array(token_counts(batch["text"]), type=pa.int64()),
        })

    out = grouped_aggregate(
        ds.map_batches(verdicts, batch_format="pyarrow"), ["source"],
        {"n": ("", "count"), "n_keep": ("keep", "sum"),
         "sum_tok": ("n_tok", "sum")})
    out["keep_rate"] = round_half_away((out["n_keep"] / out["n"]))
    out["avg_tokens"] = round_half_away((out["sum_tok"] / out["n"]))
    for c in ("n", "n_keep"):
        out[c] = out[c].astype("int64")
    return (out[["source", "n", "n_keep", "keep_rate", "avg_tokens"]]
            .sort_values("source").reset_index(drop=True))


# ---------------------------------------------------------------------------
# snapshot diff / linkage / grouping sets (round-4 additions)
# ---------------------------------------------------------------------------


def snapshot_diff_orders(sf_dir: str) -> pd.DataFrame:
    """CDC between two deterministic snapshots of orders: the OLD
    snapshot simulates yesterday (keys %11==0 not yet inserted, priority
    rewritten for %7==0, price off by +100.0 for %5==0), the NEW one
    simulates today (keys %13==0 since deleted). ``table_diff`` finds
    added/removed/changed rows in ONE tagged-union key exchange
    (functions/diff.py). → (o_orderkey, status, changed_cols)."""
    from ..functions.diff import table_diff

    cols = ["o_orderkey", "o_orderstatus", "o_totalprice", "o_orderpriority"]
    base = lambda: _read(sf_dir, "orders", columns=cols)  # noqa: E731

    def to_old(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["o_orderkey"] % 11 != 0].copy()
        k = b["o_orderkey"].to_numpy()
        b["o_orderpriority"] = np.where(k % 7 == 0, "9-OLD", b["o_orderpriority"])
        b["o_totalprice"] = np.where(k % 5 == 0, b["o_totalprice"] + 100.0,
                                     b["o_totalprice"])
        return b

    old = base().map_batches(to_old, batch_format="pandas")
    new = base().map_batches(lambda b: b[b["o_orderkey"] % 13 != 0],
                             batch_format="pandas")
    out = table_diff(old, new, key="o_orderkey",
                     compare_cols=["o_orderstatus", "o_totalprice",
                                   "o_orderpriority"]).to_pandas()
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    return out.sort_values("o_orderkey").reset_index(drop=True)


def fuzzy_join_customers(sf_dir: str) -> pd.DataFrame:
    """Two-table record linkage: a dirty CRM feed of customer names
    (subset %3!=0, last char dropped when %5==0) fuzzy-joined back to
    customer — blocked on the stable 16-char name prefix (one 100-key id
    range per block, so blocks stay balanced as the table grows), scored
    with the BANDED Levenshtein pair kernel, kept at edit distance <= 1
    (dedup/linkage.fuzzy_join: ONE hash exchange on the blocking key,
    within-block pairs only). → (cat_key, c_custkey, dist)."""
    from ..dedup.linkage import fuzzy_join

    base = lambda: _read(sf_dir, "customer", columns=["c_custkey", "c_name"])  # noqa: E731

    def to_catalog(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["c_custkey"] % 3 != 0]
        name = pd.Series(np.where(b["c_custkey"].to_numpy() % 5 == 0,
                                  b["c_name"].str.slice(0, -1),
                                  b["c_name"]))
        return pd.DataFrame({"cat_key": b["c_custkey"].to_numpy(),
                             "name": name.to_numpy(),
                             "block": name.str.slice(0, 16).to_numpy()})

    def with_block(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["block"] = b["c_name"].str.slice(0, 16)
        return b

    cat = base().map_batches(to_catalog, batch_format="pandas")
    cust = base().map_batches(with_block, batch_format="pandas")
    out = fuzzy_join(cat, cust, left_key="cat_key", right_key="c_custkey",
                     left_col="name", right_col="c_name", block_col="block",
                     max_distance=1).to_pandas()
    out["cat_key"] = out["cat_key"].astype("int64")
    out["c_custkey"] = out["c_custkey"].astype("int64")
    out["dist"] = out["dist"].astype("int64")
    return out.sort_values(["cat_key", "c_custkey"]).reset_index(drop=True)


def cube_orders(sf_dir: str) -> pd.DataFrame:
    """GROUP BY CUBE(o_orderstatus, o_orderpriority): all four grouping
    sets from ONE distributed finest-grain aggregate
    (profiling/groupagg.grouping_sets — the grid re-aggregates on the
    driver, exact for algebraic aggs). → (status, priority, revenue, n)."""
    from ..profiling.groupagg import grouping_sets

    ds = _read(sf_dir, "orders",
               columns=["o_orderstatus", "o_orderpriority", "o_totalprice"])
    out = grouping_sets(ds, ["o_orderstatus", "o_orderpriority"],
                        {"revenue": ("o_totalprice", "sum"), "n": ("", "count")})
    out["revenue"] = out["revenue"].round(2)
    out["n"] = out["n"].astype("int64")
    out = out.rename(columns={"o_orderstatus": "status",
                              "o_orderpriority": "priority"})
    return (out[["status", "priority", "revenue", "n"]]
            .sort_values(["status", "priority"]).reset_index(drop=True))


def top_tokens_per_lang(sf_dir: str, k: int = 5) -> pd.DataFrame:
    """Per-language top-k tokens: whitespace tokens → per-(lang, token)
    counts via the partial-combine aggregate (final="shuffle" — the
    token vocabulary is unbounded, nothing lands on the driver) → the
    mergeable per-group top-k (groupagg.grouped_topk) with a
    deterministic (count desc, token asc) tie-break.
    → (lang, token, n, rank)."""
    from ..profiling.groupagg import grouped_aggregate, grouped_topk

    ds = _read(sf_dir, "documents", columns=["lang", "text"])

    def tokens(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # vectorized explode: split_whitespace → parent-index gather for
        # lang; empties (leading/trailing whitespace artifacts) dropped to
        # match str.split() semantics
        parts = pc.utf8_split_whitespace(batch["text"].combine_chunks())
        langs = batch["lang"].combine_chunks().take(pc.list_parent_indices(parts))
        toks = pc.list_flatten(parts)
        keep = pc.not_equal(toks, "")
        return pa.table({"lang": langs.filter(keep), "token": toks.filter(keep)})

    counts = grouped_aggregate(ds.map_batches(tokens, batch_format="pyarrow"),
                               ["lang", "token"], {"n": ("", "count")},
                               final="shuffle")
    top = grouped_topk(counts, keys="lang", order_by=["n", "token"], k=k,
                       ascending=[False, True]).to_pandas()
    top["n"] = top["n"].astype("int64")
    return (top[["lang", "token", "n", "rank"]]
            .sort_values(["lang", "rank"]).reset_index(drop=True))


def curriculum_order_docs(sf_dir: str) -> pd.DataFrame:
    """Global curriculum ordering: every document ranked by a quality
    proxy (longest first) through Ray Data's distributed range-
    partitioned sort — the ORDER-BY-at-scale primitive (sample → range
    boundaries → one all-to-all exchange; no driver sort). Global ranks
    come from block-metadata offsets over the sorted block order
    (functions/indexing.with_row_index — no row data on the driver).
    → (doc_id, n_chars, rank)."""
    from ..functions.indexing import with_row_index

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    ranked = with_row_index(
        ds.sort(["n_chars", "doc_id"], descending=[True, False]), "rank")
    out = ranked.to_pandas()
    out["rank"] = (out["rank"] + 1).astype("int64")
    return (out[["doc_id", "n_chars", "rank"]]
            .sort_values("rank").reset_index(drop=True))


def dbscan_embeddings(sf_dir: str) -> pd.DataFrame:
    """Exact DBSCAN over the embeddings table (cosine distance 0.65,
    min_pts 4): blocked-cartesian eps-join (no bucketing assumption) →
    core/border/noise roles with min-label clusters. The oracle
    re-derives the full pair set brute-force in SQL and replays the
    deterministic label rules. → (vec_id, role, cluster)."""
    from ..similarity.dbscan import dbscan

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = dbscan(ds, "vec_id", "embedding", eps=0.65, min_pts=4)
    out["cluster"] = out["cluster"].astype("int64")
    return out


def triangle_coeff_part(sf_dir: str) -> pd.DataFrame:
    """Triangle count + local clustering coefficient per part over the
    part co-order graph (an edge joins two parts whose co-occurrence
    count across orders is >= 2 pair instances — the threshold keeps the
    graph's density data-driven instead of quadratic in basket size).
    Edge build = one bucketed self-merge per order + one grouped count;
    triangles = functions/graph.triangle_counts (degree-oriented wedge
    generation + keys-only semi-join closing check, every stage an
    exchange). coef = 2·tri / (deg·(deg−1)) on the thresholded graph.
    → (p_partkey, deg, tri, coef)."""
    from ..functions.graph import triangle_counts
    from ..profiling.groupagg import grouped_aggregate

    edges = _coorder_edges(sf_dir)

    tri = triangle_counts(edges).to_pandas()
    if tri.empty:
        tri = pd.DataFrame({"id": pd.Series(dtype="int64"),
                            "tri": pd.Series(dtype="int64")})
    deg = grouped_aggregate(
        edges.map_batches(
            lambda b: pd.DataFrame({"id": np.concatenate(
                [b["u"].to_numpy(), b["v"].to_numpy()])}),
            batch_format="pandas"),
        ["id"], {"d": ("id", "count")})

    out = _read(sf_dir, "part", columns=["p_partkey"], blocks=4).to_pandas()
    out = out.merge(deg.rename(columns={"id": "p_partkey"}), how="left",
                    on="p_partkey")
    out = out.merge(tri.rename(columns={"id": "p_partkey"}), how="left",
                    on="p_partkey")
    d = out["d"].fillna(0).to_numpy(dtype=np.int64)
    t = out["tri"].fillna(0).to_numpy(dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(d >= 2, np.round(2.0 * t / (d * (d - 1.0)), 6), 0.0)
    return (pd.DataFrame({"p_partkey": out["p_partkey"], "deg": d, "tri": t,
                          "coef": coef})
            .sort_values("p_partkey").reset_index(drop=True))


def sliding_chunks_docs(sf_dir: str) -> pd.DataFrame:
    """RAG sliding-window chunk layout over documents: 64-token windows
    advancing by 48 (25% overlap), one embarrassingly-parallel pass
    (functions/chunking.py — zero shuffle, zero driver state). The
    order-weighted md5 checksum lets the SQL oracle verify each chunk's
    exact token content and order. → (doc_id, chunk_idx, start_tok,
    n_toks, checksum)."""
    from ..functions.chunking import sliding_chunks

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = sliding_chunks(ds, "doc_id", "text", window=64, stride=48) \
        .to_pandas()
    return (out.sort_values(["doc_id", "chunk_idx"])
            .reset_index(drop=True))


def chunk_dedup_docs(sf_dir: str) -> pd.DataFrame:
    """Chunk-granularity exact dedup: fingerprint every sliding window
    (functions/chunking.py, 64/48) and collapse identical chunks ACROSS
    documents — the boilerplate that paragraph-level dedup misses when
    it spans paragraph boundaries. One shuffle-free chunk pass + one
    hash-bucketed (checksum, n_toks) fold; the keeper is the (doc,
    chunk)-minimum, packed as doc_id·2^20 + chunk_idx so min() is one
    algebraic aggregate on both engines. → (checksum, n_toks, n_dup,
    keeper_doc, keeper_chunk) for fingerprints seen >= 2 times."""
    from ..functions.chunking import sliding_chunks
    from ..profiling.groupagg import grouped_aggregate

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    chunks = sliding_chunks(ds, "doc_id", "text", window=64, stride=48)

    def pack(b: pd.DataFrame) -> pd.DataFrame:
        b = b[["checksum", "n_toks"]].assign(
            ck=(b["doc_id"].to_numpy() << np.int64(20))
            + b["chunk_idx"].to_numpy())
        return b

    agg = grouped_aggregate(chunks.map_batches(pack, batch_format="pandas"),
                            ["checksum", "n_toks"],
                            {"n_dup": ("ck", "count"), "k": ("ck", "min")},
                            final="shuffle")
    out = agg.map_batches(
        lambda b: b.loc[b["n_dup"].to_numpy() >= 2],
        batch_format="pandas").to_pandas()
    if out.empty:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in
                             ["checksum", "n_toks", "n_dup", "keeper_doc",
                              "keeper_chunk"]})
    out["keeper_doc"] = out["k"].to_numpy() >> np.int64(20)
    out["keeper_chunk"] = out["k"].to_numpy() & np.int64((1 << 20) - 1)
    return (out[["checksum", "n_toks", "n_dup", "keeper_doc",
                 "keeper_chunk"]].astype("int64")
            .sort_values(["checksum", "n_toks"]).reset_index(drop=True))


def mmr_select_embeddings(sf_dir: str) -> pd.DataFrame:
    """Query-aware diverse selection: 10 MMR picks (λ=0.7) around the
    vec_id-0 embedding — relevance traded against redundancy with the
    already-selected set (similarity/mmr.py, broadcast-round pattern).
    The oracle replays every greedy round with unrolled CTEs.
    → (vec_id, sel_order, rel)."""
    from ..similarity.mmr import mmr_select

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qt = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"])
    qvec = np.asarray(qt["embedding"][
        int(np.flatnonzero(qt["vec_id"].to_numpy() == 0)[0])].as_py())
    return mmr_select(ds, "vec_id", "embedding", qvec, k=10, lam=0.7)


def _coorder_edges(sf_dir: str):
    """Distinct part co-order edges (u < v) with pair-instance count >= 2
    — shared by triangle_coeff_part and link_prediction_part: one
    bucketed per-order self-merge + one grouped count."""
    from ..profiling.groupagg import grouped_aggregate

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        f = g[["l_orderkey", "l_partkey"]]
        m = f.merge(f, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        return pd.DataFrame({"u": m["l_partkey_x"].to_numpy(),
                             "v": m["l_partkey_y"].to_numpy()})

    pair_ds = bucket_exchange(li, "l_orderkey", pairs)
    cnt = grouped_aggregate(pair_ds, ["u", "v"], {"n": ("u", "count")},
                            final="shuffle")
    return cnt.map_batches(
        lambda b: b.loc[b["n"].to_numpy() >= 2, ["u", "v"]],
        batch_format="pandas").materialize()


def link_prediction_part(sf_dir: str) -> pd.DataFrame:
    """Adamic–Adar link prediction on the part co-order graph: the 100
    strongest NON-edges by quantized AA score (functions/graph.py —
    integer-term fold so the cross-engine sum is exact), ties broken by
    (id_a, id_b). → (id_a, id_b, cn, aa_ppm)."""
    from ..functions.graph import link_prediction

    edges = _coorder_edges(sf_dir)
    out = link_prediction(edges).to_pandas()
    if out.empty:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in
                             ["id_a", "id_b", "cn", "aa_ppm"]})
    out = out.sort_values(["aa_ppm", "id_a", "id_b"],
                          ascending=[False, True, True]).head(100)
    return (out[["id_a", "id_b", "cn", "aa_ppm"]].astype("int64")
            .reset_index(drop=True))


def zorder_layout_lineitem(sf_dir: str) -> pd.DataFrame:
    """Z-order physical layout of lineitem by (l_partkey, l_suppkey):
    one min/max fold + one range-partitioned sort by the interleaved
    Morton key, persisted; footer-measured scan pruning is then asserted
    for a mid-range predicate on EACH column — the property a
    single-column sort can't give both dimensions. The oracle recomputes
    every row's z value (exact integer bucketing + bit interleave in
    SQL). → (zval, n)."""
    import os
    import shutil
    import tempfile

    from ..functions.zorder import build_zorder_store, zorder_scan_stats
    from ..profiling.groupagg import grouped_aggregate

    ds = _read(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])
    d = tempfile.mkdtemp(prefix="dq_zorder_")
    try:
        store = os.path.join(d, "store")
        bounds = build_zorder_store(ds, store, "l_partkey", "l_suppkey")
        for col in ("l_partkey", "l_suppkey"):
            lo, hi = bounds[col]
            span = max((hi - lo + 1) // 8, 1)
            st = zorder_scan_stats(store, col, lo + 3 * span,
                                   lo + 4 * span - 1)
            if not (0 < st["files_scanned"] < st["files_total"]):
                raise AssertionError(f"no footer pruning on {col}: {st}")
        agg = grouped_aggregate(read_parquet_sized(store, columns=["zval"]),
                                ["zval"], {"n": ("zval", "count")},
                                final="shuffle").to_pandas()
    finally:
        shutil.rmtree(d, ignore_errors=True)
    return (agg.astype("int64").sort_values("zval")
            .reset_index(drop=True)[["zval", "n"]])


def bootstrap_ci_lineitem(sf_dir: str) -> pd.DataFrame:
    """Deterministic Poisson-bootstrap sampling distribution of the mean
    extended price: 20 replicates in ONE streaming pass (fixed-size
    per-batch partials — profiling/bootstrap.py), integer weights from
    md5 inverse-CDF buckets so both engines reproduce the identical
    bootstrap. → (b, n_eff, mean_value)."""
    from ..profiling.bootstrap import bootstrap_means

    ds = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber", "l_extendedprice"])
    return bootstrap_means(ds, ["l_orderkey", "l_linenumber"],
                           "l_extendedprice")


def shard_rebalance_orders(sf_dir: str) -> pd.DataFrame:
    """Consistent-hash resharding audit: movement matrix of order keys
    between an 8-shard and a 9-shard md5 ring (functions/sharding.py —
    both rings broadcast, ONE streaming searchsorted pass). Asserts the
    minimal-movement property in-query: the moved fraction must be well
    under the ~100% a naive hash%N reshard causes (expected ≈ 1/9).
    → (shard_before, shard_after, n)."""
    from ..functions.sharding import rebalance_audit

    ds = _read(sf_dir, "orders", columns=["o_orderkey"])
    out = rebalance_audit(ds, "o_orderkey", n_before=8, n_after=9)
    moved = out.loc[out["shard_before"] != out["shard_after"], "n"].sum()
    total = out["n"].sum()
    if not moved / total < 3.0 / 9.0:
        raise AssertionError(
            f"consistent hashing moved {moved}/{total} keys — ring broken")
    return out


# ---------------------------------------------------------------------------
# filter-evaluation statistics (profiling/hypothesis.py)
# ---------------------------------------------------------------------------


def ab_welch_events(sf_dir: str) -> pd.DataFrame:
    """Welch's t-test between the value distributions of two event
    types (the A/B question over an event stream): one (n, Σx, Σx²)
    fold per group, Welch–Satterthwaite df — shared Σx/Σx² algebra with
    the SQL replay so both sides round the identical expression.
    → one row (n_a, n_b, mean_a, mean_b, t_stat, welch_df)."""
    from ..profiling.hypothesis import welch_ttest

    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    r = welch_ttest(ds, "event_type", "value", "click", "error")
    return pd.DataFrame({
        "n_a": [np.int64(r["n_a"])], "n_b": [np.int64(r["n_b"])],
        "mean_a": [round(r["mean_a"], 6)], "mean_b": [round(r["mean_b"], 6)],
        "t_stat": [round(r["t_stat"], 6)],
        "welch_df": [round(r["welch_df"], 6)],
    })


def ks_price_lineitem(sf_dir: str) -> pd.DataFrame:
    """Two-sample Kolmogorov–Smirnov D between the extended-price
    distributions of return flags A vs R. One (value → n_a, n_b)
    exchange; the max-gap location is selected in INTEGER arithmetic
    (|cum_a·N_b − cum_b·N_a|) so the tie-broken argmax is bit-identical
    to the SQL window replay. → (n_a, n_b, ks_stat, ks_at)."""
    from ..profiling.hypothesis import ks_statistic

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_extendedprice"])
    r = ks_statistic(ds, "l_returnflag", "l_extendedprice", "A", "R")
    return pd.DataFrame({
        "n_a": [np.int64(r["n_a"])], "n_b": [np.int64(r["n_b"])],
        "ks_stat": [float(round_half_away(r["ks_stat"]))],
        "ks_at": [round(r["ks_at"], 2)],
    })


def auc_docs(sf_dir: str) -> pd.DataFrame:
    """Exact tie-aware ROC AUC of the hashed-linear quality classifier's
    score against the rule chain's keep/drop as truth — the
    quality-filter question "does the model rank keepers above
    droppers?". Scores join truth through the bucketed hash_join (no
    driver frame join); the Mann–Whitney rank-sum stays integer until
    the final division (profiling/hypothesis.roc_auc), and scores carry
    the repo's 6-dp rounding on BOTH sides so ties agree.
    → one row (n, n_pos, n_neg, auc)."""
    from ..functions.joins import hash_join
    from ..profiling.hypothesis import roc_auc

    clf = _quality_classifier_ds(sf_dir)
    truth = _quality_filter_docs_ds(sf_dir).map_batches(
        lambda b: b[["doc_id", "keep"]], batch_format="pandas")
    j = hash_join(clf, truth, on="doc_id",
                  right_cols=["doc_id", "keep"], n_buckets=16)
    r = roc_auc(j, "quality_score", "keep")
    return pd.DataFrame({
        "n": [np.int64(r["n"])], "n_pos": [np.int64(r["n_pos"])],
        "n_neg": [np.int64(r["n_neg"])], "auc": [float(round_half_away(r["auc"]))],
    })


def kappa_docs(sf_dir: str) -> pd.DataFrame:
    """Cohen's kappa between the classifier's verdict and the rule
    chain's keep/drop — chance-corrected agreement from one confusion
    fold over the same bucketed join as auc_docs.
    → one row (n, tp, fp, fn, tn, p_o, p_e, kappa)."""
    from ..functions.joins import hash_join
    from ..profiling.hypothesis import cohens_kappa

    clf = _quality_classifier_ds(sf_dir)
    truth = _quality_filter_docs_ds(sf_dir).map_batches(
        lambda b: b[["doc_id", "keep"]], batch_format="pandas")
    j = hash_join(clf, truth, on="doc_id",
                  right_cols=["doc_id", "keep"], n_buckets=16)
    r = cohens_kappa(j, "quality_label", "keep")
    return pd.DataFrame({
        "n": [np.int64(r["n"])],
        "tp": [np.int64(r["tp"])], "fp": [np.int64(r["fp"])],
        "fn": [np.int64(r["fn"])], "tn": [np.int64(r["tn"])],
        "p_o": [float(round_half_away(r["p_o"]))], "p_e": [float(round_half_away(r["p_e"]))],
        "kappa": [float(round_half_away(r["kappa"]))],
    })


def percentile_norm_docs(sf_dir: str) -> pd.DataFrame:
    """Per-source percent-rank normalization of document length (score
    normalization across heterogeneous sources, so a 90th-percentile
    doc means the same thing in every source): SQL window semantics
    ((min_rank−1)/(n−1)) WITHOUT a per-row window shuffle — one
    (source, value)→count exchange, broadcast per-source ECDF arrays,
    stateless searchsorted fill (profiling/hypothesis
    .grouped_percent_rank). → (doc_id, source, n_chars, pct_rank)."""
    from ..profiling.hypothesis import grouped_percent_rank

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])
    out = grouped_percent_rank(ds, "source", "n_chars").to_pandas()
    out["pct_rank"] = round_half_away(out["pct_rank"])
    return out.sort_values("doc_id").reset_index(drop=True)


def snm_pairs_customers(sf_dir: str) -> pd.DataFrame:
    """Sorted-neighborhood candidate pairs over customer names
    (dedup/snm.py — Hernández-Stolfo SNM, the classic alternative to
    key-equality blocking): rank by (c_name, c_custkey) with the
    range-partitioned global row number, shift-pair ranks within a
    window of 4 through partition+halo groups, keep banded edit
    distance ≤ 2. O(n·w) pairs, one rank exchange + one grouped
    exchange, no n² block anywhere. → (id_a, id_b, lev)."""
    from ..dedup.snm import snm_pairs

    ds = _read(sf_dir, "customer", columns=["c_custkey", "c_name"])
    return snm_pairs(ds, "c_custkey", "c_name", window=4, max_dist=2)


def ttr_sources_docs(sf_dir: str) -> pd.DataFrame:
    """Lexical diversity per source (profiling/lexical.ttr_by_group):
    type-token ratio and hapax share of the vocabulary from one
    (source, token) count exchange — template-generated sources score
    low on both. → (source, n_tokens, n_distinct, n_hapax, ttr,
    hapax_ratio)."""
    from ..profiling.lexical import ttr_by_group

    ds = _read(sf_dir, "documents", columns=["source", "text"])
    out = ttr_by_group(ds, "source", "text")
    out["ttr"] = round_half_away(out["ttr"])
    out["hapax_ratio"] = round_half_away(out["hapax_ratio"])
    return out


def ngram_novelty_docs(sf_dir: str) -> pd.DataFrame:
    """Per-document 3-gram novelty (profiling/lexical.ngram_novelty):
    fraction of the doc's distinct shingles first seen in that doc
    (min-doc-id ownership — the keep-first algebra over shingles);
    near-zero novelty marks recombined/boilerplate content.
    → (doc_id, n_distinct, n_novel, novelty)."""
    from ..profiling.lexical import ngram_novelty

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ngram_novelty(ds, "doc_id", "text", n=3)
    out["novelty"] = round_half_away(out["novelty"])
    return out


def source_overlap_docs(sf_dir: str) -> pd.DataFrame:
    """Cross-source contamination matrix over 3-gram shingles
    (profiling/lexical.source_overlap): shared-shingle count + Jaccard
    per source pair via bitmask folds — no self-join anywhere
    (sources are the small side; the gram axis never pairs).
    → (source_a, source_b, n_shared, jaccard) for overlapping pairs."""
    from ..profiling.lexical import source_overlap

    ds = _read(sf_dir, "documents", columns=["source", "text"])
    out = source_overlap(ds, "source", "text", n=3)
    out["n_shared"] = out["n_shared"].astype("int64")
    out["jaccard"] = round_half_away(out["jaccard"].astype(float))
    return (out.sort_values(["source_a", "source_b"])
            .reset_index(drop=True))


def sliding_distinct_users_events(sf_dir: str) -> pd.DataFrame:
    """Exact distinct users over a trailing 6-hour window for EVERY
    hour of the event stream (functions/window.sliding_distinct): the
    segmented first-occurrence trick turns per-window COUNT(DISTINCT)
    into a difference array — one (user, hour) dedup exchange + one
    bucketed lag + one delta fold; no per-window re-scan, no distinct
    union state. → (window_start, n_distinct)."""
    from ..functions.window import sliding_distinct

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    return sliding_distinct(ds, "user_id", "ts", window_hours=6)


def rule_ablation_docs(sf_dir: str) -> pd.DataFrame:
    """Rule-chain ablation over the docs filter: every drop rule
    evaluated INDEPENDENTLY on every row (rules/core.RuleEngine
    .rule_matrix — no short-circuit), folded to fixed-size per-batch
    partials. Per rule: independent hits, chain-order first-hit
    attribution (fired and no earlier rule fired), and SOLE-reason
    drops — the rows removing this rule would rescue — with the rescue
    rate over the corpus. The tuning view first_rule can't give.
    → (rule, n_hit, n_first, n_sole, rescue_rate)."""
    from .quality_filter import build_docs_chain, cached_chain

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    names = [r.name for r in build_docs_chain().drop_rules]

    def part(b: pa.Table) -> pd.DataFrame:
        engine = cached_chain(build_docs_chain)
        m = engine.rule_matrix(
            b["text"],
            aux={"lang": b["lang"].to_numpy(zero_copy_only=False)})
        mat = np.stack([m[r] for r in names], axis=1)  # (n, n_rules)
        earlier = np.zeros_like(mat)
        earlier[:, 1:] = np.cumsum(mat[:, :-1], axis=1) > 0
        sole = mat & (mat.sum(axis=1, keepdims=True) == 1)
        return pd.DataFrame({
            "rule": names,
            "n_hit": mat.sum(axis=0).astype(np.int64),
            "n_first": (mat & ~earlier).sum(axis=0).astype(np.int64),
            "n_sole": sole.sum(axis=0).astype(np.int64),
            "n_rows": np.int64(len(mat)),
        })

    from ..profiling.groupagg import grouped_aggregate

    out = grouped_aggregate(
        ds.map_batches(part, batch_format="pyarrow"),
        ["rule"], {"n_hit": ("n_hit", "sum"), "n_first": ("n_first", "sum"),
                   "n_sole": ("n_sole", "sum"), "n_rows": ("n_rows", "sum")})
    total = int(out["n_rows"].iloc[0] if len(out) else 0)
    out = out.drop(columns=["n_rows"])
    for c in ("n_hit", "n_first", "n_sole"):
        out[c] = out[c].astype("int64")
    out["rescue_rate"] = round_half_away(out["n_sole"] / total)
    return out.sort_values("rule").reset_index(drop=True)


def char_entropy_docs(sf_dir: str) -> pd.DataFrame:
    """Per-document character-distribution entropy (nats) — binary-junk
    and run-repetition detector (profiling/lexical.char_entropy; one
    map_batches pass, no exchange). → (doc_id, n_chars, char_entropy)."""
    from ..profiling.lexical import char_entropy

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = char_entropy(ds, "doc_id", "text")
    out["char_entropy"] = round_half_away(out["char_entropy"])
    return out


def source_concentration_docs(sf_dir: str) -> pd.DataFrame:
    """Corpus composition concentration over sources: HHI of document
    share and of character-mass share plus the top single-source share
    (profiling/lexical.source_concentration, one grouped fold).
    → one row (n_sources, hhi_docs, hhi_weight, top_share_docs)."""
    from ..profiling.lexical import source_concentration

    ds = _read(sf_dir, "documents", columns=["source", "n_chars"])
    out = source_concentration(ds, "source", "n_chars")
    for c in ("hhi_docs", "hhi_weight", "top_share_docs"):
        out[c] = round_half_away(out[c])
    return out


def auc_by_source_docs(sf_dir: str) -> pd.DataFrame:
    """Per-source classifier AUC vs the rule chain's keep label — the
    per-slice model-health view (a source where the model ranks
    keepers poorly needs retraining or down-weighting). Score AND
    label come from ONE fused map_batches pass over documents (weights
    broadcast, chain per process — no join at all), then the grouped
    integer rank-sum fold (profiling/hypothesis.grouped_roc_auc).
    → (source, n, n_pos, n_neg, auc; null AUC for one-class sources)."""
    import ray

    from ..functions.broadcast import cached_get
    from ..profiling.hypothesis import grouped_roc_auc
    from ..stages.models import HashedLinearQuality
    from .quality_filter import build_docs_chain, cached_chain

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "text", "lang", "source"])
    ref = ray.put(_clf_weights())

    def fused(b: pa.Table) -> pd.DataFrame:
        model = HashedLinearQuality.from_weights(cached_get(ref))
        score = model.score(
            b["text"].to_numpy(zero_copy_only=False))["quality_score"]
        res = cached_chain(build_docs_chain).apply(
            b["text"],
            aux={"lang": b["lang"].to_numpy(zero_copy_only=False)})
        return pd.DataFrame({
            "source": b["source"].to_numpy(zero_copy_only=False),
            "quality_score": score,
            "keep": res.verdict != "DROP",
        })

    out = grouped_roc_auc(ds.map_batches(fused, batch_format="pyarrow"),
                          "source", "quality_score", "keep")
    out = out.rename(columns={"group": "source"})
    out["auc"] = round_half_away(out["auc"].astype(float))
    for c in ("n", "n_pos", "n_neg"):
        out[c] = out[c].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


def behavior_entropy_users_events(sf_dir: str) -> pd.DataFrame:
    """Per-user behavioral diversity: Shannon entropy (nats) of the
    user's event-type distribution from one (user, type) count exchange
    (profiling/datarules.entropy_by_group) — bots and single-action
    users sit at zero. → (user_id, n, n_distinct, entropy)."""
    from ..profiling.datarules import entropy_by_group

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    out = entropy_by_group(ds, "user_id", "event_type")
    out["user_id"] = out["user_id"].astype("int64")
    out["entropy"] = round_half_away(out["entropy"])
    return out


def decayed_engagement_users_events(sf_dir: str) -> pd.DataFrame:
    """Recency-weighted engagement per user: Σ value·exp(−Δ/τ) at the
    stream horizon with τ = 1 day (profiling/datarules
    .decayed_sum_by_group — horizon fold + one decayed partial fold,
    weights computed from the same broadcast horizon on every worker so
    partials merge exactly). → (user_id, n, decayed_sum)."""
    from ..profiling.datarules import decayed_sum_by_group

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])
    out = decayed_sum_by_group(ds, "user_id", "ts", "value", tau_s=86400.0)
    out["user_id"] = out["user_id"].astype("int64")
    out["decayed_sum"] = round_half_away(out["decayed_sum"])
    return out


def snm_multipass_customers(sf_dir: str) -> pd.DataFrame:
    """Multi-pass sorted neighborhood over customer names: pass 1 sorts
    by c_name, pass 2 by reverse(c_name) (catches prefix-divergent
    duplicates a single sort key misses), pairs unioned with pass
    agreement counts (dedup/snm.snm_multipass). Window 4, edit
    distance ≤ 2. → (id_a, id_b, lev, n_passes)."""
    from ..dedup.snm import snm_multipass

    ds = _read(sf_dir, "customer", columns=["c_custkey", "c_name"])

    def add_rev(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__rk"] = [v[::-1] if isinstance(v, str) else v
                     for v in b["c_name"]]
        return b

    ds2 = ds.map_batches(add_rev, batch_format="pandas")
    return snm_multipass(ds2, "c_custkey", ["c_name", "__rk"],
                         window=4, max_dist=2)


def late_events_events(sf_dir: str) -> pd.DataFrame:
    """Streaming watermark / late-data accounting: arrival order is
    event_id, EVENT time is ts minus a deterministic md5 jitter of up
    to 2 h (both engines derive the identical jitter — the seeded-hash
    contract), the watermark is the running max event time over
    arrival order (functions/window.running_max — a distributed prefix
    scan, no sequential pass), and an event is LATE when its event time
    sits more than 30 min behind the watermark. Per event-time hour:
    arrivals, late count, late ratio.
    → (window_start, n, n_late, late_ratio)."""
    from ..functions.window import running_max
    from ..profiling.groupagg import grouped_aggregate
    from ..profiling.sketches import md5_hash64

    ds = _read(sf_dir, "events", columns=["event_id", "ts"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        jit = (md5_hash64(("lag-" + b["event_id"].astype(str)).to_numpy())
               % np.uint64(7200)).astype(np.int64)
        et = b["ts"] - pd.to_timedelta(jit, unit="s")
        return pd.DataFrame({
            "event_id": b["event_id"],
            "et_ns": (et - pd.Timestamp(0)).astype("timedelta64[ns]")
            .astype(np.int64),
        })

    scanned = running_max(ds.map_batches(prep, batch_format="pandas"),
                          "event_id", "et_ns", out_col="wm")

    def stats(b: pd.DataFrame) -> pd.DataFrame:
        et = b["et_ns"].to_numpy(np.int64)
        wm = b["wm"].to_numpy(np.float64)
        late = ~np.isnan(wm) & (et < wm - 1.8e12)  # 30 min in ns
        hour = (et // 3_600_000_000_000) * 3_600_000_000_000
        return pd.DataFrame({"h": hour, "late": late.astype(np.int64)})

    out = grouped_aggregate(
        scanned.map_batches(stats, batch_format="pandas"),
        ["h"], {"n": ("late", "count"), "n_late": ("late", "sum")})
    out = out.sort_values("h").reset_index(drop=True)
    return pd.DataFrame({
        "window_start": pd.to_datetime(out["h"].astype("int64")),
        "n": out["n"].astype("int64"),
        "n_late": out["n_late"].astype("int64"),
        "late_ratio": round_half_away(out["n_late"] / out["n"]),
    })


def seasonal_anomalies_events(sf_dir: str) -> pd.DataFrame:
    """Seasonality-aware hourly anomalies: each hour's event count
    judged against its own (day-of-week, hour-of-day) slot baseline
    (profiling/datarules.seasonal_anomalies — one counting fold, slot
    Σ/Σ² algebra, 6-dp fence contract; integer sums make both engines'
    fences bit-identical). → flagged (hour, n, slot_mean, slot_std)."""
    from ..profiling.datarules import seasonal_anomalies

    ds = _read(sf_dir, "events", columns=["ts"])
    return seasonal_anomalies(ds, "ts", sigma=1.5)


def grouped_tdigest_events(sf_dir: str) -> pd.DataFrame:
    """Per-group quantiles at scale: mergeable per-(batch, group)
    t-digests (profiling/quantile_exact.grouped_tdigest — the
    continuous-value scale path the exact grouped quantile documents)
    gated by the digest's actual guarantee: the estimate must land
    within the exact RANK WINDOW q ± 0.02 (a relative-value gate is
    meaningless on a fat tail at small n) — the driver hash checks the
    exact values plus the gate booleans (the HLL/t-digest oracle
    pattern). → (event_type, p50, p95, p50_ok, p95_ok)."""
    from ..profiling.quantile_exact import (grouped_disc_quantile,
                                            grouped_tdigest)

    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    est = grouped_tdigest(ds, "event_type", "value", qs=(0.5, 0.95))
    cols = {0.5: "p50", 0.95: "p95"}
    window = {q: (max(q - 0.02, 0.0), min(q + 0.02, 1.0)) for q in cols}
    # the exact values and both rank-window edges off ONE count table
    exact = grouped_disc_quantile(
        ds, "event_type", "value",
        [x for q, (lo, hi) in window.items() for x in (q, lo, hi)])
    out = pd.DataFrame({"event_type": exact["event_type"],
                        **{col: exact[q] for q, col in cols.items()}})
    for q, col in cols.items():
        lo, hi = window[q]
        approx = np.array([est[g][q] for g in out["event_type"]])
        out[f"{col}_ok"] = ((approx >= exact[lo].to_numpy())
                            & (approx <= exact[hi].to_numpy()))
    out["p50"] = round_half_away(out["p50"])
    out["p95"] = round_half_away(out["p95"])
    return out


def emd_price_lineitem(sf_dir: str) -> pd.DataFrame:
    """Exact 1-D Wasserstein-1 (earth-mover) distance between the
    extended-price distributions of return flags A vs R — the
    INTEGRATED distribution shift next to ks_price_lineitem's max gap
    (profiling/hypothesis.wasserstein1). Prices are fixed-point cents
    so the ECDF-area sum stays integer end-to-end; one final division
    gives the same rational the SQL window replay rounds.
    → one row (n_a, n_b, emd)."""
    from ..profiling.hypothesis import wasserstein1

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_extendedprice"])
    r = wasserstein1(ds, "l_returnflag", "l_extendedprice", "A", "R",
                     decimals=2)
    return pd.DataFrame({
        "n_a": [np.int64(r["n_a"])], "n_b": [np.int64(r["n_b"])],
        "emd": [float(round_half_away(r["emd"]))],
    })


def cusum_changepoint_events(sf_dir: str) -> pd.DataFrame:
    """Level-shift change-point in daily event arrivals: centered
    CUSUM over the per-day counts (profiling/hypothesis
    .cusum_changepoint — Page's statistic / binary-segmentation first
    split); the max-|S| day is chosen on the integer |n_d·cum − i·T|
    so the SQL window replay picks the identical day.
    → one row (change_day, n_days, n_events, cusum_stat)."""
    from ..profiling.hypothesis import cusum_changepoint

    ds = _read(sf_dir, "events", columns=["ts"])
    r = cusum_changepoint(ds, "ts", unit="day")
    return pd.DataFrame({
        "change_day": [pd.Timestamp(r["change_at"])],
        "n_days": [np.int64(r["n_buckets"])],
        "n_events": [np.int64(r["n_events"])],
        "cusum_stat": [float(round_half_away(r["cusum_stat"]))],
    })


class _KMVPairSketch:
    """Two KMV sketches filled from ONE pass over a (group, key) stream
    — module-level so the pickled partials stream can rebuild it."""

    def __init__(self, k: int, group_a: str, group_b: str,
                 group_col: str, key_col: str):
        from ..profiling.sketches import KMinValues

        self.a, self.b = KMinValues(k), KMinValues(k)
        self.ga, self.gb = group_a, group_b
        self.group_col, self.key_col = group_col, key_col

    def update(self, batch: "pa.Table") -> None:
        g = batch[self.group_col].to_numpy(zero_copy_only=False)
        u = batch[self.key_col].to_numpy(zero_copy_only=False)
        for sk, name in ((self.a, self.ga), (self.b, self.gb)):
            m = g == name
            if m.any():
                sk.update_array(u[m])

    def merge(self, other: "_KMVPairSketch") -> "_KMVPairSketch":
        self.a.merge(other.a)
        self.b.merge(other.b)
        return self


def kmv_overlap_events(sf_dir: str) -> pd.DataFrame:
    """Distinct (user, day) activity overlap between click and view
    events — "how many active user-days saw BOTH" — estimated with
    mergeable K-minimum-values sketches (profiling/sketches
    .KMinValues, k=256) next to the exact answer: the KMV union/
    intersection algebra is DETERMINISTIC given md5 hashing, so the
    SQL oracle replays the sketch itself (rank window over
    md5_number_lower) — the sketch columns are hash-compared exactly,
    not tolerance-gated like HLL. Exact counts come from a per-key
    flag fold that stays distributed (grouped_aggregate
    final="shuffle"; per-key state never lands on the driver).
    → one row (n_click, n_view, n_intersect, n_union, k_eff,
    n_both_sketch, jaccard_kmv, jaccard_exact)."""
    from ..profiling.groupagg import grouped_aggregate

    K = 256
    raw = _read(sf_dir, "events", columns=["event_type", "user_id", "ts"])

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        m = b["event_type"].isin(["click", "view"]).to_numpy()
        sub = b[m]
        day = sub["ts"].to_numpy().astype("datetime64[D]").astype(str)
        u = sub["user_id"].to_numpy().astype("int64").astype(str)
        return pd.DataFrame({
            "event_type": sub["event_type"].to_numpy(),
            "k": np.char.add(np.char.add(u, "-"), day).astype(object)})

    ds = raw.map_batches(keyed, batch_format="pandas")
    pair = _sketch_partials(
        ds, lambda: _KMVPairSketch(K, "click", "view", "event_type", "k"),
        lambda acc, b: acc.update(b))
    n_both, k_eff = pair.a.jaccard(pair.b)

    def flags(b: pd.DataFrame) -> pd.DataFrame:
        a = (b["event_type"] == "click").to_numpy()
        v = (b["event_type"] == "view").to_numpy()
        sub = pd.DataFrame({"u": b["k"],
                            "a": a.astype(np.int64),
                            "b": v.astype(np.int64)})
        return (sub.groupby("u", sort=False)
                .agg(a=("a", "max"), b=("b", "max")).reset_index())

    per_user = grouped_aggregate(
        ds.map_batches(flags, batch_format="pandas"),
        ["u"], {"a": ("a", "max"), "b": ("b", "max")}, final="shuffle")

    def cnt(bt: pd.DataFrame) -> pd.DataFrame:
        a = bt["a"].to_numpy() > 0
        b = bt["b"].to_numpy() > 0
        return pd.DataFrame({
            "n_a": [int(a.sum())], "n_b": [int(b.sum())],
            "n_int": [int((a & b).sum())], "n_union": [len(bt)]})

    tot = (per_user.map_batches(cnt, batch_format="pandas")
           .to_pandas().sum())
    return pd.DataFrame({
        "n_click": [np.int64(tot["n_a"])],
        "n_view": [np.int64(tot["n_b"])],
        "n_intersect": [np.int64(tot["n_int"])],
        "n_union": [np.int64(tot["n_union"])],
        "k_eff": [np.int64(k_eff)],
        "n_both_sketch": [np.int64(n_both)],
        "jaccard_kmv": [float(round_half_away(n_both / k_eff))],
        "jaccard_exact": [float(round_half_away(tot["n_int"] / tot["n_union"]))],
    })


HITS_ROUNDS = 5


def hits_supplier_part(sf_dir: str) -> pd.DataFrame:
    """HITS hubs/authorities over the directed supplier→part supply
    graph (edge weight = lineitem count): suppliers are hubs, parts
    authorities. functions/graph.hits runs 5 quantized L∞-normalized
    rounds (broadcast score vectors, one streaming contribution fold
    per half-round); the SQL replays EVERY half-round with unrolled
    CTEs. Top-25 authorities by (score desc, key asc) so the result is
    driver-small at any scale. → (node_type, key, score)."""
    from ..functions.graph import hits
    from ..profiling.groupagg import grouped_aggregate

    li = _read(sf_dir, "lineitem", columns=["l_suppkey", "l_partkey"])
    edges = grouped_aggregate(li, ["l_suppkey", "l_partkey"],
                              {"w": ("", "count")}, final="shuffle")
    edges = edges.map_batches(
        lambda b: b.rename(columns={"l_suppkey": "src",
                                    "l_partkey": "dst"}),
        batch_format="pandas")
    hubs, auths = hits(edges, rounds=HITS_ROUNDS)

    hubs = hubs.sort_values(["hub", "node"], ascending=[False, True],
                            kind="mergesort").head(25)
    auths = auths.sort_values(["auth", "node"], ascending=[False, True],
                              kind="mergesort").head(25)
    out = pd.concat([
        pd.DataFrame({"node_type": "supplier",
                      "key": hubs["node"].to_numpy(np.int64),
                      "score": round_half_away(hubs["hub"].to_numpy())}),
        pd.DataFrame({"node_type": "part",
                      "key": auths["node"].to_numpy(np.int64),
                      "score": round_half_away(auths["auth"].to_numpy())}),
    ])
    return (out.sort_values(["node_type", "score", "key"],
                            ascending=[True, False, True], kind="mergesort")
            .reset_index(drop=True))


def ind_discovery(sf_dir: str) -> pd.DataFrame:
    """Inclusion-dependency discovery across six key columns of the
    TPC-H-ish schema (profiling/datarules.inclusion_matrix): one tagged
    bitmask value fold gives all 30 ordered containments — FK-candidate
    screening without N² anti-joins. → (col_a, col_b, n_a, n_b,
    n_common, containment, is_ind)."""
    from ..profiling.datarules import inclusion_matrix

    tagged = [
        ("customer.c_custkey", _read(sf_dir, "customer",
                                     columns=["c_custkey"]), "c_custkey"),
        ("orders.o_custkey", _read(sf_dir, "orders",
                                   columns=["o_custkey"]), "o_custkey"),
        ("events.user_id", _read(sf_dir, "events",
                                 columns=["user_id"]), "user_id"),
        ("nation.n_nationkey", _read(sf_dir, "nation",
                                     columns=["n_nationkey"]),
         "n_nationkey"),
        ("customer.c_nationkey", _read(sf_dir, "customer",
                                       columns=["c_nationkey"]),
         "c_nationkey"),
        ("supplier.s_nationkey", _read(sf_dir, "supplier",
                                       columns=["s_nationkey"]),
         "s_nationkey"),
    ]
    out = inclusion_matrix(tagged)
    out["is_ind"] = out["is_ind"].astype("int64")  # stable SQL dtype
    return out


def cfd_check_orders(sf_dir: str) -> pd.DataFrame:
    """Conditional-FD audit on orders: pattern tableau over
    o_orderstatus with the embedded FD o_custkey → o_orderpriority
    (does a customer stick to one priority, per status stratum?). One
    (status, custkey, priority) combination fold serves every tableau
    row; g3 = min deletions per pattern.
    → (pattern, n_rows, n_groups, n_violating_groups, g3_rows)."""
    from ..profiling.datarules import cfd_violations

    ds = _read(sf_dir, "orders",
               columns=["o_orderstatus", "o_custkey", "o_orderpriority"])
    return cfd_violations(ds, "o_orderstatus", "o_custkey",
                          "o_orderpriority", patterns=["F", "O", "P"])


# ---------------------------------------------------------------------------
# round 5: curation-funnel / mixing / selection / LSH-eval surface
# ---------------------------------------------------------------------------

UNIMAX_EPOCH_CAP = 2.0
UNIMAX_BUDGET_FRAC = 1.8


def unimax_mix_docs(sf_dir: str) -> pd.DataFrame:
    """UniMax epoch-capped token-budget allocation across sources
    (Chung et al. 2023 — the fairness-motivated alternative to the
    ★temperature_mix softmax): one per-source token-count fold, then the
    closed-form ascending waterfill on the driver (state = #sources).
    Budget = 1.8× the corpus tokens with a 2-epoch cap, so low-token
    sources saturate at 2 epochs and the rest split the remainder
    evenly — the SQL replays the waterfill with window functions.
    → (source, n_tokens, capacity, alloc_tokens, epochs)."""
    from ..profiling.groupagg import grouped_aggregate
    from ..sampling.stratified import unimax_allocation

    ds = _read(sf_dir, "documents", columns=["source", "text"], blocks=8)

    def ntok(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": b["source"],
            "nt": b["text"].fillna("").str.split().str.len().astype(np.int64),
        })

    counts = grouped_aggregate(ds.map_batches(ntok, batch_format="pandas"),
                               ["source"], {"n_tokens": ("nt", "sum")},
                               final="driver")
    alloc = unimax_allocation(
        dict(zip(counts["source"], counts["n_tokens"])),
        budget_fraction=UNIMAX_BUDGET_FRAC, epoch_cap=UNIMAX_EPOCH_CAP)
    alloc = alloc.rename(columns={"group": "source"})
    alloc["n_tokens"] = alloc["n_tokens"].astype(np.int64)
    for c in ("capacity", "alloc_tokens", "epochs"):
        alloc[c] = round_half_away(alloc[c])
    return alloc.sort_values("source").reset_index(drop=True)


UNCERTAIN_K = 50


def uncertainty_sample_docs(sf_dir: str) -> pd.DataFrame:
    """Active-learning margin selection: the hashed linear quality
    classifier scores every doc (broadcast weights, task pool — the
    ★quality_classifier_docs stage), and the 50 docs nearest the
    decision boundary (smallest |score|, doc_id ties ascending) are
    picked for labeling — per-batch bottom-k partials, one driver merge
    (the ★global_top_orders fold shape; no global sort).
    → (doc_id, quality_score, margin)."""
    scores = _quality_classifier_ds(sf_dir)

    def part(b: pa.Table) -> pd.DataFrame:
        d = pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(),
            "quality_score": b["quality_score"].to_numpy(),
        })
        d["margin"] = np.abs(d["quality_score"])
        return d.sort_values(["margin", "doc_id"],
                             kind="mergesort").head(UNCERTAIN_K)

    frames = list(scores.map_batches(part, batch_format="pyarrow")
                  .iter_batches(batch_size=4 * UNCERTAIN_K,
                                batch_format="pandas"))
    allp = pd.concat(frames, ignore_index=True) if frames else pd.DataFrame(
        columns=["doc_id", "quality_score", "margin"])
    out = allp.sort_values(["margin", "doc_id"],
                           kind="mergesort").head(UNCERTAIN_K)
    return (out[["doc_id", "quality_score", "margin"]]
            .sort_values("doc_id").reset_index(drop=True))


def minhash_eval_docs(sf_dir: str) -> pd.DataFrame:
    """LSH candidate quality vs exact ground truth at the
    ★minhash_neardup_docs operating point (64 perms × 16 bands,
    J ≥ 0.5): band-collision pairs graded against the complete
    prefix-filter SSJoin + exact verification — precision = wasted
    verification work, recall = near-dups the bands miss. md5 hashing
    so the SQL oracle replays signatures, banding, AND the exhaustive
    gram self-join truth side. → one row
    (n_cand, n_truth, n_hit, precision, recall)."""
    from ..dedup.ngram_jaccard import lsh_recall_eval

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = lsh_recall_eval(ds, "doc_id", "text", threshold=0.5,
                          hash_fn="md5")
    for c in ("precision", "recall"):
        out[c] = round_half_away(out[c])
    return out


def curation_funnel_docs(sf_dir: str) -> pd.DataFrame:
    """End-to-end corpus-curation funnel — the per-stage survivor
    tally a pipeline operator reads before launching a training run:
    raw → exact dedup (keep-first per text) → quality rule chain →
    decontamination (stand-in benchmark = every 97th doc). FUSED: one
    map_batches computes BOTH per-row verdicts (rule chain + broadcast
    benchmark-gram probe) and batch-pre-reduces to the min-doc-per-text
    winner candidates (the dedup/exact pre-dedup trick — duplicate-
    heavy corpora shrink before the shuffle); ONE bucketed text-key
    exchange then resolves global winners and folds the three survivor
    counters per bucket — fixed-size partials, no joins, no driver
    rows. Raw count comes from the parquet footer.
    → (stage, stage_name, n_kept, n_dropped)."""
    import ray

    from ..dedup.decontaminate import _doc_gram_hashes, benchmark_gram_hashes
    from ..functions.broadcast import cached_get

    n0 = int(pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows)
    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def pick_bench(b: pa.Table) -> pa.Table:
        return b.filter(pa.array(
            b["doc_id"].to_numpy(zero_copy_only=False) % 97 == 0))

    bench = benchmark_gram_hashes(
        ds.map_batches(pick_bench, batch_format="pyarrow"),
        "text", k=8, hash_fn="md5")
    ref = ray.put(np.ascontiguousarray(np.sort(bench)))

    def flags(b: pa.Table) -> pd.DataFrame:
        from ..pipelines.quality_filter import cached_chain

        engine = cached_chain(build_docs_chain)
        texts = b["text"].to_numpy(zero_copy_only=False)
        res = engine.apply(
            texts, aux={"lang": b["lang"].to_numpy(zero_copy_only=False)})
        keep = res.verdict != "DROP"
        bh = cached_get(ref)
        flat, counts = _doc_gram_hashes(texts.tolist(), 8, "md5")
        if len(flat) and len(bh):
            pos = np.searchsorted(bh, flat)
            hit = (pos < len(bh)) & (bh[np.minimum(pos, len(bh) - 1)] == flat)
        else:
            hit = np.zeros(len(flat), dtype=bool)
        csum = np.concatenate(([0], np.cumsum(hit.astype(np.int64))))
        ends = np.cumsum(counts)
        # round BEFORE the threshold compare — decontaminate()'s exact
        # contract (round_half_away is DuckDB's half-away mode)
        frac = round_half_away((csum[ends] - csum[ends - counts])
                           / np.maximum(counts, 1))
        d = pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(),
            "text": texts,
            "keep": keep,
            "contam": frac >= 0.1,
        })
        # batch pre-reduce: only each text's min-doc row can be the
        # global winner (its flags ride along — keep depends on lang
        # too, so the winner's OWN verdict is what the funnel counts)
        d = d.sort_values("doc_id", kind="mergesort")
        return d[~d["text"].duplicated()]

    def fold_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="mergesort")
        w = g[~g["text"].duplicated()]
        keep = w["keep"].to_numpy(dtype=bool)
        contamv = w["contam"].to_numpy(dtype=bool)
        return pd.DataFrame({
            "n1": [len(w)], "n2": [int(keep.sum())],
            "n3": [int((keep & ~contamv).sum())],
        })

    sums = {"n1": 0, "n2": 0, "n3": 0}
    folded = bucket_exchange(ds.map_batches(flags, batch_format="pyarrow"),
                             "text", fold_bucket)
    for b in folded.iter_batches(batch_size=4096, batch_format="pandas"):
        for c in sums:
            sums[c] += int(b[c].sum())
    n1, n2, n3 = sums["n1"], sums["n2"], sums["n3"]
    return pd.DataFrame({
        "stage": np.array([0, 1, 2, 3], dtype=np.int64),
        "stage_name": ["raw", "exact_dedup", "quality_rules",
                       "decontaminate"],
        "n_kept": np.array([n0, n1, n2, n3], dtype=np.int64),
        "n_dropped": np.array([0, n0 - n1, n1 - n2, n2 - n3],
                              dtype=np.int64),
    })
