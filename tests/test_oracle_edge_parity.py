"""Oracle parity on edge inputs the shipped testdata doesn't contain:
empty/whitespace/singleton-token docs must agree between the Ray queries
and their DuckDB oracle SQL (exercises the gram-less minhash branch, the
zero-token simhash/langid/perplexity branches).
"""

import duckdb
import numpy as np
import pandas as pd
import pytest


EDGE_DOCS = pd.DataFrame({
    "doc_id": np.arange(8, dtype=np.int64),
    "text": [
        "",                       # empty → no tokens
        "   ",                    # whitespace only
        "one",                    # single token (< shingle size)
        "one",                    # exact dup of the singleton
        "",                       # second empty (pairs with doc 0)
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy cat",
        "unrelated words entirely different content here",
    ],
    "lang": ["en"] * 8,
    "source": ["t"] * 8,
    "n_chars": [0, 3, 3, 3, 0, 43, 43, 46],
})


@pytest.fixture(scope="module")
def edge_sf(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("edge_sf")
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(pa.Table.from_pandas(EDGE_DOCS), str(d / "documents.parquet"))
    return str(d)


def _oracle(sql: str, sf_dir: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf_dir}/documents.parquet'")
    return con.execute(sql).df()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(6)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


@pytest.mark.parametrize("name", [
    "minhash_neardup_docs", "simhash_docs", "langid_heuristic_docs",
    "perplexity_docs", "dup_char_collapse_docs",
])
def test_edge_docs_oracle_parity(ray_session, edge_sf, name):
    import __ray_entry__ as E

    mine = E.queries()[name](edge_sf)
    if not isinstance(mine, pd.DataFrame):
        mine = mine.to_pandas()
    oracle = _oracle(E.oracle_sql()[name], edge_sf)
    a, b = _canon(mine), _canon(oracle)
    assert list(a.columns) == list(b.columns)
    assert len(a) == len(b), (name, len(a), len(b))
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_edge_minhash_clusters_expected(ray_session, edge_sf):
    """The two empty docs cluster together (J=1 by definition) and the
    singleton exact dups cluster; near-identical fox sentences verify."""
    import __ray_entry__ as E

    out = E.queries()["minhash_neardup_docs"](edge_sf)
    clusters = dict(zip(out["doc_id"], out["cluster"]))
    assert clusters.get(4) == 0          # empty docs: 4 joins 0
    assert clusters.get(3) == 2          # singleton dup: 3 joins 2


def test_unimax_empty_source_oracle_parity(ray_session, tmp_path):
    """A source whose documents are all empty has n_tokens = 0: the
    library and the oracle SQL both give it 0 allocated epochs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    empty = EDGE_DOCS["text"].str.strip() == ""
    docs = EDGE_DOCS.assign(source=np.where(empty, "blank", "t"))
    pq.write_table(pa.Table.from_pandas(docs), str(tmp_path / "documents.parquet"))
    mine = E.queries()["unimax_mix_docs"](str(tmp_path))
    oracle = _oracle(E.oracle_sql()["unimax_mix_docs"], str(tmp_path))
    blank = mine.set_index("source").loc["blank"]
    assert blank["n_tokens"] == 0 and blank["epochs"] == 0.0
    pd.testing.assert_frame_equal(_canon(mine), _canon(oracle), check_dtype=False)
