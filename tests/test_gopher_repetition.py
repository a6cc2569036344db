"""Gopher repetition metrics: semantics spot checks, planted rounding
ties (power-of-two rationals where Python banker's rounding and DuckDB
half-away diverge), and full-frame DuckDB parity on adversarial docs."""

import duckdb
import numpy as np
import pandas as pd

from data_quality_ray.rules.heuristics import gopher_repetition_stats, round_half_away as round6_away


def test_round6_away_matches_duckdb_on_ties():
    x = np.array([0.0390625, 0.0234375, 0.0078125, 0.015625, 0.3333333333])
    got = round6_away(x)
    exp = duckdb.sql(
        "SELECT " + ", ".join(f"round({v!r}::DOUBLE, 6)" for v in x)).fetchone()
    np.testing.assert_array_equal(got, np.array(exp))


def test_gopher_semantics():
    s = gopher_repetition_stats(np.array([
        "a\nb\na\nc",           # 4 lines, 3 distinct -> 1/4 dup
        "same same same",        # top 2-gram "same same" x2, len 9, s len 14
        "",                      # all zeros
        "unique lines\nonly here",
    ], dtype=object))
    assert s["dup_line_frac"][0] == 0.25
    assert s["dup_line_char_frac"][0] == round6_away(np.array([2 / 4]))[0]
    assert s["top_2gram_char_frac"][1] == round6_away(np.array([2 * 9 / 14]))[0]
    assert s["dup_line_frac"][2] == 0 and s["top_2gram_char_frac"][2] == 0
    assert s["dup_line_frac"][3] == 0


def test_gopher_matches_duckdb_frame():
    # includes a doc engineered to a 5/128-style tie: len(s)=128 with a
    # unique top 2-gram of char length 5 ("aa bb" once -> 1*5/128)
    tie_doc = "aa bb" + " " + "x" * 122
    assert len(tie_doc) == 128
    docs = ["a\nb\na\nc", "same same same", "", "unique lines\nonly here",
            tie_doc, "w1 w2 w1 w2 w1", "line\nline\nline",
            "tabs\tand spaces  mix", None]
    df = pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64),
                       "text": docs})
    py = gopher_repetition_stats(np.array(docs, dtype=object))

    import __ray_entry__ as e
    sql = e.oracle_sql.__globals__["_GOPHER_REPETITION_SQL"].replace(
        "FROM documents", "FROM df")
    o = duckdb.sql(sql).df()
    for k in ("dup_line_frac", "dup_line_char_frac", "top_2gram_char_frac"):
        np.testing.assert_array_equal(o[k].to_numpy(), py[k], err_msg=k)
