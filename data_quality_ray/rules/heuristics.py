"""Heuristic caption/document quality rules — vectorized drop rules.

Each rule is a vectorized predicate over a numpy object array of strings.
Reference precedents:

- length        → TextLengthStatistics code-point semantics
                  (dataquality-statistics text/TextLengthStatistics.java:24-183)
- junk_numeric  → TypeInferenceUtils numeric/date regexes
                  (type/TypeInferenceUtils.java:28-45)
- symbol_ratio  → char-class translation chain
                  (common/regex/ChainResponsibilityHandler.java:21)
- repetition    → pattern-frequency + DuplicateCharEraser
                  (converters/DuplicateCharEraser.java:64,
                   frequency/pattern/CompositePatternFrequencyAnalyzer.java:41-159)
- stopword_density → broadcast-dictionary membership
                  (wordnet/WordNetDictionary.java:30-125 precedent)

The ASCII-charclass variants (used when an exact DuckDB oracle is needed)
use RE2-compatible patterns so the SQL in ``__ray_entry__.oracle_sql`` is
bit-for-bit equivalent.
"""

from __future__ import annotations

import re
import string

import numpy as np
import pyarrow.compute as pc

from .tokens import IS_ALNUM, IS_SPACE, TextBatch, byte_lut

# 50 common English stopwords — fixed, ordered, public knowledge.
EN_STOPWORDS = frozenset(
    """a an and are as at be by for from has he in is it its of on that the to
    was were will with this but they have had what when where who which she
    his her you your i we our not no or if then so""".split()
)

_JUNK_RE = re.compile(r"^[0-9０-９\s.,/:+%-]+$")
_JUNK_DIGIT_RE = re.compile(r"[0-9０-９]")  # the only digits _JUNK_RE admits
_DEL_ASCII_ALNUM = str.maketrans("", "", string.ascii_letters + string.digits)
_CHAR_RUN_RE = re.compile(r"(.)\1{4,}")
_WS_RE = re.compile(r"\s+")


def _np(values) -> np.ndarray:
    return np.asarray(values, dtype=object)


# -- drop rules: each is a scalar definition ``*_one(v) -> bool`` (the
#    row-by-row oracle walks these; non-ASCII rows and nulls use them) and
#    a columnar ``*_mask(values)`` over a ``TextBatch`` (or array-like)
#    that computes the same answer for ASCII rows from byte/token tables.

_NOT_JUNK = byte_lut([not re.match(r"[0-9０-９\s.,/:+%-]", chr(b)) for b in range(256)])
_DIGIT = byte_lut([chr(b) in string.digits for b in range(256)])
_NOT_SPACE, _ALNUM = byte_lut(~IS_SPACE), byte_lut(IS_ALNUM)


def empty_one(v) -> bool:
    return v is None or str(v).strip() == ""


def empty_mask(values) -> np.ndarray:
    t = TextBatch.of(values)
    return t.per_ascii(t.byte_counts(_NOT_SPACE) == 0, empty_one)


def length_one(v, min_len: int = 5, max_len: int = 512) -> bool:
    return v is None or not (min_len <= len(v) <= max_len)


def length_mask(values, min_len: int = 5, max_len: int = 512) -> np.ndarray:
    # code-point length, like the reference's codePointCount tallies
    t = TextBatch.of(values)
    n = pc.utf8_length(t.arr)
    ok = pc.and_(pc.greater_equal(n, min_len), pc.less_equal(n, max_len))
    return ~pc.fill_null(ok, False).to_numpy(zero_copy_only=False)


def junk_numeric_one(v) -> bool:
    return v is not None and _JUNK_RE.match(v) is not None and _JUNK_DIGIT_RE.search(v) is not None


def junk_numeric_mask(values) -> np.ndarray:
    """Caption is only digits/punctuation (a number, date or id — nothing to
    train on). Contains at least one digit and no letters."""
    t = TextBatch.of(values)
    junk = (t.byte_counts(_NOT_JUNK) == 0) & (t.byte_counts(_DIGIT) > 0)
    return t.per_ascii(junk, junk_numeric_one)


def symbol_ratio_one(v, max_ratio: float = 0.3) -> bool:
    if v is None:
        return False
    ns = "".join(v.split())
    return bool(ns) and len(ns.translate(_DEL_ASCII_ALNUM)) / len(ns) > max_ratio


def symbol_ratio_mask(values, max_ratio: float = 0.3) -> np.ndarray:
    """Ratio of ASCII symbol chars (not alnum, not whitespace) over
    non-whitespace chars exceeds ``max_ratio``. ``str.split()`` drops the
    same whitespace as ``re``'s ``\\s`` (``str.isspace``)."""
    t = TextBatch.of(values)
    nonspace = t.byte_counts(_NOT_SPACE)
    sym = nonspace - t.byte_counts(_ALNUM)
    ratio = np.divide(sym, nonspace, out=np.zeros(len(sym)), where=nonspace > 0)
    return t.per_ascii((nonspace > 0) & (ratio > max_ratio),
                       lambda v: symbol_ratio_one(v, max_ratio))


def repetition_one(v, max_top_ratio: float = 0.5, min_tokens: int = 6) -> bool:
    if v is None:
        return False
    toks = v.lower().split()
    if len(toks) < min_tokens:
        return False
    counts: dict[str, int] = {}
    for tok in toks:
        counts[tok] = counts.get(tok, 0) + 1
    return max(counts.values()) / len(toks) >= max_top_ratio


def repetition_mask(values, max_top_ratio: float = 0.5, min_tokens: int = 6) -> np.ndarray:
    """Most frequent token dominates (≥ max_top_ratio of ≥ min_tokens
    tokens) — template/spam captions ("buy buy buy …"): the per-row
    longest run of equal keys over sorted (row, token id) keys."""
    t = TextBatch.of(values)
    tab = t.words
    n = len(t)
    top = np.zeros(n, dtype=np.int64)
    if len(tab.ids):
        keys = np.sort(tab.parent * (len(tab.vocab) + 1) + tab.ids)
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        runs = np.diff(np.append(starts, len(keys)))
        np.maximum.at(top, keys[starts] // (len(tab.vocab) + 1), runs)
    ntok = tab.counts
    ratio = np.divide(top, ntok, out=np.zeros(n), where=ntok > 0)
    hit = (ntok >= min_tokens) & (ratio >= max_top_ratio)
    return t.per_ascii(hit[t.ascii], lambda v: repetition_one(v, max_top_ratio, min_tokens))


def char_run_one(v, run_len: int = 5) -> bool:
    rx = _CHAR_RUN_RE if run_len == 5 else re.compile(r"(.)\1{%d,}" % (run_len - 1))
    return v is not None and bool(rx.search(v))


def char_run_mask(values, run_len: int = 5) -> np.ndarray:
    """Any character repeated ≥ run_len times consecutively
    (DuplicateCharEraser precedent; ``.`` excludes ``\\n``). Not used in
    SQL-oracled chains (RE2 has no backreferences)."""
    if run_len < 1:
        raise ValueError(f"run_len must be >= 1, got {run_len}")
    t = TextBatch.of(values)
    data, off = t.codes
    # same[j]: byte j+1 equals byte j, both in one row
    same = data[1:] == data[:-1]
    inner = off[1:-1]
    same[inner[(inner > 0) & (inner < len(data))] - 1] = False
    start = data[: max(0, len(data) - run_len + 1)] != 10
    for j in range(run_len - 1):
        start &= same[j: j + len(start)]
    rows = np.searchsorted(off, np.flatnonzero(start), side="right") - 1
    hit = np.zeros(len(off) - 1, dtype=bool)
    hit[rows] = True
    return t.per_ascii(hit, lambda v: char_run_one(v, run_len))


def stopword_density_one(v, min_ratio: float = 0.08, min_tokens: int = 8,
                         stopwords: frozenset = EN_STOPWORDS) -> bool:
    if v is None:
        return False
    toks = v.lower().split()
    if len(toks) < min_tokens:
        return False
    hits = 0
    for tok in toks:
        hits += tok in stopwords
    return hits / len(toks) < min_ratio


def stopword_density_mask(
    values, min_ratio: float = 0.08, min_tokens: int = 8, stopwords: frozenset = EN_STOPWORDS
) -> np.ndarray:
    """Keyword-stuffing: long caption with almost no function words."""
    t = TextBatch.of(values)
    tab = t.words
    ntok = tab.counts
    hits = tab.per_row_sum(tab.vocab_mask(stopwords))
    ratio = np.divide(hits, ntok, out=np.zeros(len(t)), where=ntok > 0)
    hit = (ntok >= min_tokens) & (ratio < min_ratio)
    return t.per_ascii(hit[t.ascii],
                       lambda v: stopword_density_one(v, min_ratio, min_tokens, stopwords))


# ---------------------------------------------------------------------------
# Gopher-style repetition metrics (Rae et al. 2021, "Scaling Language
# Models: ... Gopher", table A1 repetition filters — public knowledge)
# ---------------------------------------------------------------------------


READABILITY_VOWEL_RE = r"[aeiouy]+"
READABILITY_SENT_RE = r"[.!?]+"


def readability_stats(texts) -> dict[str, np.ndarray]:
    """Flesch reading-ease inputs under an EXACT replayable contract
    (a heuristic, not a dictionary syllabifier — both engines share it):
    words = whitespace tokens of lower(text); sentences = max(1, count
    of ``[.!?]+`` runs); syllables = Σ per word of max(1, count of
    ``[aeiouy]+`` runs). flesch = 206.835 − 1.015·(words/sentences)
    − 84.6·(syllables/words), 6-dp half-away. Empty/null text → nulls.
    Vectorized: one pass of pandas str kernels plus a single explode for
    the per-word syllable floor."""
    import pandas as pd

    def f64(series) -> pd.Series:  # null-safe → float64 with NaN
        return pd.Series(
            pd.array(series, dtype="Float64").to_numpy(dtype=np.float64,
                                                       na_value=np.nan),
            index=series.index)

    s = pd.Series(texts).astype("string").str.lower()
    words = s.str.split()
    n_words = f64(words.str.len())
    n_sent = f64(s.str.count(READABILITY_SENT_RE).clip(lower=1))
    ex = words.explode().dropna()
    syl = ex.str.count(READABILITY_VOWEL_RE).clip(lower=1)
    n_syl = f64(syl.groupby(level=0).sum()
                .reindex(s.index, fill_value=0))
    ok = n_words > 0
    flesch = 206.835 - 1.015 * (n_words / n_sent) - 84.6 * (n_syl / n_words)
    return {
        "n_words": n_words.where(ok).to_numpy(np.float64),
        "n_sentences": n_sent.where(ok).to_numpy(np.float64),
        "n_syllables": n_syl.where(ok).to_numpy(np.float64),
        "flesch": round_half_away(flesch.where(ok)),
    }


def round_half_away(x, dp: int = 6) -> np.ndarray:
    """Round half AWAY from zero at ``dp`` decimals — DuckDB's ``round``.
    Python/numpy/pandas round are half-to-even (banker's): an exact half
    like 89/128 = 0.6953125 rounds to …312 there but …313 in SQL. Any
    rational with a power-of-two denominator can hit this, and metrics
    built from small integer counts really do, so every ratio compared
    against SQL goes through here. → float64 array (0-d for a scalar)."""
    v = np.asarray(x, dtype=np.float64)
    scale = 10.0 ** dp
    return np.sign(v) * np.floor(np.abs(v) * scale + 0.5) / scale


def gopher_repetition_stats(values) -> dict[str, np.ndarray]:
    """Per-doc repetition metrics, each replicated exactly by the SQL
    oracle (shared line-split / whitespace-token semantics with the
    minhash shingle SQL; lexicographic-min tie-break for the top gram):

    - ``dup_line_frac``: (n_lines - n_distinct_lines) / n_lines
    - ``dup_line_char_frac``: chars in lines occurring >1 time (all
      occurrences) / total line chars
    - ``top_2gram_char_frac``: occurrences x char-length of the most
      frequent word 2-gram / doc char length (ties -> lexicographically
      smallest gram; overlapping occurrences count, so the ratio may
      exceed 1 on degenerate docs — uncapped on both sides)
    """
    from collections import Counter

    vals = _np(values)
    n = len(vals)
    dl = np.zeros(n, dtype=np.float64)
    dlc = np.zeros(n, dtype=np.float64)
    tg = np.zeros(n, dtype=np.float64)
    for i, v in enumerate(vals):
        s = v if isinstance(v, str) else ""
        lines = s.split("\n")
        cnt = Counter(lines)
        dl[i] = (len(lines) - len(cnt)) / len(lines)
        tot = sum(len(l) for l in lines)
        if tot:
            dlc[i] = sum(len(l) * c for l, c in cnt.items() if c > 1) / tot
        toks = s.split()
        if len(toks) >= 2 and len(s):
            g = Counter(a + " " + b for a, b in zip(toks, toks[1:]))
            cmax = max(g.values())
            gram = min(k for k, c in g.items() if c == cmax)
            tg[i] = cmax * len(gram) / len(s)
    return {"dup_line_frac": round_half_away(dl),
            "dup_line_char_frac": round_half_away(dlc),
            "top_2gram_char_frac": round_half_away(tg)}


# --- C4-style line-level cleaning (Raffel et al. 2020 §2.2 heuristics) ------
# Constants shared verbatim with the SQL oracle in __ray_entry__.py.

C4_MIN_WORDS = 3
C4_TERMINAL = ('.', '!', '?', '"')
C4_STRIP = " \t\r"
C4_BLOCKLIST = ("lorem ipsum", "javascript")


def c4_line_clean(values) -> dict[str, np.ndarray]:
    """Per-doc C4 line filter: keep lines with >= C4_MIN_WORDS words that
    end in terminal punctuation, contain no '{', none of C4_BLOCKLIST
    (case-insensitive); then drop repeated lines keep-first within the
    doc. → n_lines (raw), n_kept (post-dedup), cleaned_text (kept lines
    re-joined), keep_doc (any line survived). Every step is replayed by
    the SQL oracle (zip-unnest + QUALIFY row_number)."""
    vals = _np(values)
    n = len(vals)
    n_lines = np.zeros(n, dtype=np.int64)
    n_kept = np.zeros(n, dtype=np.int64)
    cleaned = np.empty(n, dtype=object)
    for i, v in enumerate(vals):
        s = v if isinstance(v, str) else ""
        lines = s.split("\n")
        n_lines[i] = len(lines)
        seen: set[str] = set()
        kept: list[str] = []
        for raw in lines:
            t = raw.strip(C4_STRIP)
            if (len(t.split()) < C4_MIN_WORDS or t[-1:] not in C4_TERMINAL
                    or "{" in t):
                continue
            lo = t.lower()
            if any(b in lo for b in C4_BLOCKLIST) or t in seen:
                continue
            seen.add(t)
            kept.append(t)
        n_kept[i] = len(kept)
        cleaned[i] = "\n".join(kept)
    return {"n_lines": n_lines, "n_kept": n_kept, "cleaned_text": cleaned,
            "keep_doc": n_kept >= 1}
