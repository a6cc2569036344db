"""Seeded synthetic tables for the ``queries`` workload.

The schemas match the repository's TPC-H-style test tables (one parquet
file per table, read as ``{dir}/{table}.parquet``), so the library's query
callables and the DuckDB oracle SQL run on them unchanged. Only the tables
the benchmark's queries read are written. Row counts scale with ``sf`` the
same way as the test tiers (``orders`` = 1.5M × sf, ``lineitem`` = 4 ×
``orders``, and so on). Everything is a pure function of ``seed``.

Apart from the document text, every column follows the test tables: the
same key ranges, uniform cent amounts over the same ranges, the same date
spans, discount and tax in whole percents, exponential event values, the
same language mix and 20 round-robin sources (checked column by column
against the sf0.1 tier). The test tables' documents draw their words
uniformly from 30 English words whatever the ``lang`` value; here they
are built from the package's own text in the document's language (see
``_documents``), so vocabulary size and language agree with ``lang``.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from data_quality_ray.sources import fixtures as F
from data_quality_ray.stages import corpus as C

LANGS = ("en", "zh", "es", "fr", "de")
LANG_WEIGHTS = (0.40, 0.15, 0.15, 0.15, 0.15)
SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
EVENT_TYPES = ("click", "error", "purchase", "signup", "view")
N_SOURCES = 20
MAX_SENTENCES = 8  # sentences per document


def _ts(start: str, offsets_us: np.ndarray) -> pa.Array:
    base = np.datetime64(start, "us")
    return pa.array(base + offsets_us.astype("timedelta64[us]"), type=pa.timestamp("us"))


def _money(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """Amounts in cents, as in TPC-H."""
    return np.round(rng.uniform(lo, hi, n), 2)


def _foreign_sentence(rng: random.Random, lang: str) -> str:
    """The package's sentence in ``lang`` with its words redrawn at random:
    the language's vocabulary and markers, not one repeated text. Chinese
    has no spaces, so its characters are redrawn and each sentence stays
    one whitespace token, as unsegmented CJK text is."""
    text = C.FOREIGN[lang]
    if lang == "zh":
        chars = [c for c in text if c != "，"]
        return "".join(rng.choices(chars, k=len(chars)))
    words = text.split()
    return " ".join(rng.choices(words, k=len(words)))


def _documents(rng: np.random.Generator, n: int) -> pa.Table:
    """Documents of 1 to MAX_SENTENCES sentences of the package's own text
    in the document's language: English documents are F1 fixture captions
    drawn with the fixture's class mix (clean captions, spam, PII, toxic,
    junk, rare words), the other languages redraw the package's sentence
    in that language."""
    crng = random.Random(int(rng.integers(2 ** 63)))
    en = [(c, w) for c, w in F.CLASS_WEIGHTS if c != "clean_other_lang"]
    classes, weights = [c for c, _ in en], [w for _, w in en]
    langs = rng.choice(np.array(LANGS, dtype=object), size=n, p=LANG_WEIGHTS)
    texts = []
    for lang, k in zip(langs, rng.integers(1, MAX_SENTENCES + 1, n)):
        if lang == "en":
            sents = [F._caption_for(c, crng) for c in crng.choices(classes, weights, k=k)]
        else:
            sents = [_foreign_sentence(crng, lang) for _ in range(k)]
        texts.append(" ".join(sents))
    return pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts, type=pa.string()),
        "lang": pa.array(langs, type=pa.string()),
        "source": pa.array([f"src{i % N_SOURCES}" for i in range(n)], type=pa.string()),
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    })


def write_tables(out_dir: str, seed: int, sf: float) -> dict[str, int]:
    """Write the query tables under ``out_dir``; returns rows per table."""
    rng = np.random.default_rng(seed)
    n_cust = int(150_000 * sf)
    n_ord = int(1_500_000 * sf)
    n_line = 4 * n_ord
    n_evt = int(1_000_000 * sf)
    n_doc = int(50_000 * sf)
    day_us = 86_400 * 1_000_000
    tables = {
        "nation": pa.table({
            "n_nationkey": pa.array(np.arange(25, dtype=np.int32)),
            "n_name": pa.array([f"NATION_{i}" for i in range(25)]),
            "n_regionkey": pa.array(np.arange(25, dtype=np.int32) % 5),
        }),
        "customer": pa.table({
            "c_custkey": pa.array(np.arange(n_cust, dtype=np.int64)),
            "c_name": pa.array([f"Customer#{i:09d}" for i in range(n_cust)]),
            "c_nationkey": pa.array(rng.integers(0, 25, n_cust, dtype=np.int32)),
            "c_acctbal": pa.array(_money(rng, -999.99, 9999.99, n_cust)),
            "c_mktsegment": pa.array(rng.choice(np.array(SEGMENTS, dtype=object), n_cust),
                                     type=pa.string()),
        }),
        "orders": pa.table({
            "o_orderkey": pa.array(np.arange(n_ord, dtype=np.int64)),
            "o_custkey": pa.array(rng.integers(0, n_cust, n_ord, dtype=np.int64)),
            "o_orderstatus": pa.array(rng.choice(np.array(["F", "O", "P"], dtype=object), n_ord),
                                      type=pa.string()),
            "o_totalprice": pa.array(_money(rng, 1000.0, 500_000.0, n_ord)),
            "o_orderdate": _ts("1995-01-01", rng.integers(0, 2404, n_ord) * day_us),
            "o_orderpriority": pa.array(rng.choice(np.array(PRIORITIES, dtype=object), n_ord),
                                        type=pa.string()),
        }),
        "lineitem": pa.table({
            "l_orderkey": pa.array(rng.integers(0, n_ord, n_line, dtype=np.int64)),
            "l_partkey": pa.array(rng.integers(0, max(1, int(200_000 * sf)), n_line,
                                               dtype=np.int64)),
            "l_suppkey": pa.array(rng.integers(0, max(1, int(10_000 * sf)), n_line,
                                               dtype=np.int64)),
            "l_linenumber": pa.array(rng.integers(1, 8, n_line, dtype=np.int32)),
            "l_quantity": pa.array(rng.integers(1, 51, n_line).astype(np.float64)),
            "l_extendedprice": pa.array(_money(rng, 900.0, 105_000.0, n_line)),
            "l_discount": pa.array(rng.integers(0, 11, n_line) / 100.0),
            "l_tax": pa.array(rng.integers(0, 9, n_line) / 100.0),
            "l_returnflag": pa.array(rng.choice(np.array(["A", "N", "R"], dtype=object), n_line),
                                     type=pa.string()),
            "l_linestatus": pa.array(rng.choice(np.array(["F", "O"], dtype=object), n_line),
                                     type=pa.string()),
            "l_shipdate": _ts("1995-01-02", rng.integers(0, 2498, n_line) * day_us),
        }),
        "events": pa.table({
            "event_id": pa.array(np.arange(n_evt, dtype=np.int64)),
            "ts": _ts("2024-01-01", np.sort(rng.integers(0, 30 * day_us, n_evt))),
            "user_id": pa.array(rng.integers(0, max(1, n_cust // 10), n_evt, dtype=np.int64)),
            "event_type": pa.array(rng.choice(np.array(EVENT_TYPES, dtype=object), n_evt),
                                   type=pa.string()),
            "value": pa.array(np.round(rng.exponential(50.0, n_evt), 2)),
            "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, n_evt)]),
        }),
        "documents": _documents(rng, n_doc),
    }
    os.makedirs(out_dir, exist_ok=True)
    for name, tbl in tables.items():
        pq.write_table(tbl, os.path.join(out_dir, f"{name}.parquet"))
    return {name: tbl.num_rows for name, tbl in tables.items()}
