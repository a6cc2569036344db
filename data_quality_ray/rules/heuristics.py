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


# -- individual predicates (value -> bool), vectorized via list comp over the
#    (already short-circuit-compacted) undecided subset ---------------------


def empty_mask(values) -> np.ndarray:
    return np.array([v is None or str(v).strip() == "" for v in _np(values)], dtype=bool)


def length_mask(values, min_len: int = 5, max_len: int = 512) -> np.ndarray:
    # code-point length, like the reference's codePointCount tallies
    return np.array(
        [v is None or not (min_len <= len(v) <= max_len) for v in _np(values)], dtype=bool
    )


def junk_numeric_mask(values) -> np.ndarray:
    """Caption is only digits/punctuation (a number, date or id — nothing to
    train on). Contains at least one digit and no letters."""
    return np.array(
        [v is not None and _JUNK_RE.match(v) is not None and _JUNK_DIGIT_RE.search(v) is not None
         for v in _np(values)],
        dtype=bool,
    )


def symbol_ratio_mask(values, max_ratio: float = 0.3) -> np.ndarray:
    """Ratio of ASCII symbol chars (not alnum, not whitespace) over
    non-whitespace chars exceeds ``max_ratio``. ``str.split()`` drops the
    same whitespace as ``re``'s ``\\s`` (``str.isspace``)."""
    out = np.zeros(len(values), dtype=bool)
    for i, v in enumerate(_np(values)):
        if v is None:
            continue
        ns = "".join(v.split())
        if not ns:
            continue
        out[i] = len(ns.translate(_DEL_ASCII_ALNUM)) / len(ns) > max_ratio
    return out


def repetition_mask(values, max_top_ratio: float = 0.5, min_tokens: int = 6) -> np.ndarray:
    """Most frequent token dominates (≥ max_top_ratio of ≥ min_tokens
    tokens) — template/spam captions ("buy buy buy …")."""
    out = np.zeros(len(values), dtype=bool)
    for i, v in enumerate(_np(values)):
        if v is None:
            continue
        toks = v.lower().split()
        if len(toks) < min_tokens:
            continue
        counts: dict[str, int] = {}
        for t in toks:
            counts[t] = counts.get(t, 0) + 1
        out[i] = max(counts.values()) / len(toks) >= max_top_ratio
    return out


def char_run_mask(values, run_len: int = 5) -> np.ndarray:
    """Any character repeated ≥ run_len times consecutively
    (DuplicateCharEraser precedent). Not used in SQL-oracled chains (RE2
    has no backreferences)."""
    rx = _CHAR_RUN_RE if run_len == 5 else re.compile(r"(.)\1{%d,}" % (run_len - 1))
    return np.array([v is not None and bool(rx.search(v)) for v in _np(values)], dtype=bool)


def stopword_density_mask(
    values, min_ratio: float = 0.08, min_tokens: int = 8, stopwords: frozenset = EN_STOPWORDS
) -> np.ndarray:
    """Keyword-stuffing: long caption with almost no function words."""
    out = np.zeros(len(values), dtype=bool)
    for i, v in enumerate(_np(values)):
        if v is None:
            continue
        toks = v.lower().split()
        if len(toks) < min_tokens:
            continue
        hits = sum(1 for t in toks if t in stopwords)
        out[i] = hits / len(toks) < min_ratio
    return out


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
