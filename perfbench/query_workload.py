"""The ``queries`` workload: one pass over ten library queries from
``__ray_entry__.queries()`` on seeded tables, each result checked against
its DuckDB ``oracle_sql()`` answer."""

from __future__ import annotations

import os
import time

import pyarrow as pa
import pyarrow.parquet as pq
from check_oracle import canon, to_pandas

import tables
from checks import CheckFailed

SF = 0.03
# query → the tables it reads (for the rows-per-second rate)
QUERY_TABLES = {
    "golden_record_orders": ("orders",),
    "window_rank_orders": ("orders",),
    "revenue_by_nation": ("orders", "customer", "nation"),
    "grouped_tdigest_events": ("events",),
    "top_tokens_per_lang": ("documents",),
    "ttr_sources_docs": ("documents",),
    "dedup_exact_docs": ("documents",),
    "curation_funnel_docs": ("documents",),
    "pricing_summary": ("lineitem",),
    "entropy_profile": ("customer", "events", "orders"),
}
RULES_BATCH = 1024  # Ray Data's default map_batches batch size
# the oracle SQL reads side tables from this directory; the benchmark
# writes them under its own work directory instead
_ORACLE_DIR = "/tmp/dq_oracle"
# DuckDB's sum() adds doubles one after another. Over the ~15k cent amounts
# of a pricing_summary group its average drifts by ~4e-10 and on some
# seeds (5 and 6 of seeds 1-60) rounds to the wrong sixth decimal, as exact
# sums of the integer cents show; its compensated fsum() matched them on
# all 60. The oracle uses fsum() for those sums.
EXACT_SUMS = {"pricing_summary": ("sum(l_extendedprice)", "fsum(l_extendedprice)")}


class QueriesWorkload:
    span_name = "queries.pass"

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed
        self.tables = os.path.join(work, "tables")
        self.oracle_dir = os.path.join(work, "oracle")

    def build(self) -> float:
        """Write the tables; returns the time that took. Every oracle
        answer is computed afterwards, outside that time."""
        t0 = time.perf_counter()
        self.table_rows = tables.write_tables(self.tables, self.seed, SF)
        build_s = time.perf_counter() - t0
        self.expected = self._oracle()
        self.rows = sum(self.table_rows[t] for ts in QUERY_TABLES.values() for t in ts)
        return build_s

    def _oracle(self) -> dict:
        import duckdb

        import __ray_entry__ as E
        from data_quality_ray.stages.corpus import junk_sentences, training_sentences

        os.makedirs(self.oracle_dir)
        for name, rows in (("ppl_corpus", training_sentences()), ("junk_corpus", junk_sentences())):
            pq.write_table(pa.table({"s": pa.array(rows, type=pa.string())}),
                           os.path.join(self.oracle_dir, f"{name}.parquet"))
        # oracle_sql() would write its side tables for every query under
        # /tmp; these ten need only the two corpora written above
        saved = E._ensure_oracle_artifacts, E._ORACLE_DIR
        E._ensure_oracle_artifacts, E._ORACLE_DIR = (lambda: None), self.oracle_dir
        try:
            sql = E.oracle_sql()
        finally:
            E._ensure_oracle_artifacts, E._ORACLE_DIR = saved
        con = duckdb.connect(config={"temp_directory": os.path.join(self.oracle_dir, "spill")})
        try:
            for t in self.table_rows:
                con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                            f"'{os.path.join(self.tables, t)}.parquet'")
            for q, (plain, compensated) in EXACT_SUMS.items():
                if plain not in sql[q]:
                    raise KeyError(f"{q}: oracle SQL no longer has {plain}")
                sql[q] = sql[q].replace(plain, compensated)
            return {q: canon(con.execute(sql[q].replace(_ORACLE_DIR, self.oracle_dir)).df())
                    for q in QUERY_TABLES}
        finally:
            con.close()

    def prepare(self) -> None:
        import __ray_entry__ as E

        self.callables = {q: E.queries()[q] for q in QUERY_TABLES}

    def reset(self) -> None:
        pass

    def trace_targets(self) -> list:
        """Query callables are wrapped where ``run`` calls them."""
        return []

    def run(self, tracer=None) -> dict:
        out = {}
        for q, fn in self.callables.items():
            if tracer is None:
                out[q] = to_pandas(fn(self.tables))
            else:
                with tracer.span(f"queries.{q}"):
                    out[q] = to_pandas(fn(self.tables))
        return out

    def check(self, results: dict) -> float:
        """The share of the queries whose canonical result equals the
        oracle's exactly (their F1, with an exact match as positive);
        raises CheckFailed unless all of them do."""
        bad = []
        for q, want in self.expected.items():
            got = canon(results[q])
            if list(got.columns) != list(want.columns) or not got.equals(want):
                bad.append(q)
        score = 1 - len(bad) / len(self.expected)
        if bad:
            raise CheckFailed(f"results differ from the oracle: {', '.join(bad)}", score)
        return score

    def layer_metrics(self, tracer, iterations: list[int], run_s: float,
                      wall_s: float) -> dict:
        """Per-query times (median per traced pass) and an in-process replay
        of the layers under the queries: the parquet reads and the
        documents rule chain that curation_funnel_docs applies."""
        from data_quality_ray.pipelines.quality_filter import build_docs_chain

        read = sorted({t for ts in QUERY_TABLES.values() for t in ts})
        paths = [os.path.join(self.tables, f"{t}.parquet") for t in read]
        t0 = time.perf_counter()
        loaded = dict(zip(read, (pq.read_table(p) for p in paths)))
        read_s = time.perf_counter() - t0
        docs = loaded["documents"]
        engine = build_docs_chain()
        rules_s, dropped = 0.0, 0
        for start in range(0, docs.num_rows, RULES_BATCH):
            b = docs.slice(start, RULES_BATCH)
            t0 = time.perf_counter()
            res = engine.apply(b["text"].to_numpy(zero_copy_only=False),
                               aux={"lang": b["lang"].to_numpy(zero_copy_only=False)})
            rules_s += time.perf_counter() - t0
            dropped += int((res.verdict == "DROP").sum())
        out = {
            "rules.apply_s": rules_s,
            "rules.rows": docs.num_rows,
            "rules.drop_frac": dropped / max(1, docs.num_rows),
            "state.index_screen_keep_frac": 1.0,  # no index screen: every row goes on
            "sources.read_s": read_s,
            "sources.fixture_rows": sum(t.num_rows for t in loaded.values()),
            "sources.fixture_mb": sum(os.path.getsize(p) for p in paths) / 1e6,
        }
        out.update({f"queries.{q}_s": tracer.median_per_iteration(f"queries.{q}", iterations)
                    for q in QUERY_TABLES})
        return out

