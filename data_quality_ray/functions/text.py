"""Vectorized text kernels.

Re-expresses the reference's per-character / per-token string utilities as
batch-level numpy / pyarrow.compute kernels:

- pattern fingerprinting  (reference: dataquality-common
  TextPatternUtil.findPattern:28-63 and the East-Asian regex chain,
  common/regex/ChainResponsibilityHandler.java:21) — here a single
  codepoint→class translation table applied per batch;
- word-pattern fingerprinting (frequency/recognition/WordPatternRecognizer.java:83-150);
- code-point text length (text/TextLengthStatistics.java:24-183 semantics:
  Python ``len`` counts code points, like the reference's codePointCount);
- token counting (whitespace tokens, non-empty);
- per-distinct-value memoized apply (the LFUCache analog,
  common/util/LFUCache.java:47-74): captions repeat, so evaluate an
  expensive scalar function once per distinct value and scatter back.
"""

from __future__ import annotations

import re
import unicodedata
from functools import lru_cache

import numpy as np
import pyarrow as pa

# ---------------------------------------------------------------------------
# per-distinct memoized apply (LFUCache analog)
# ---------------------------------------------------------------------------


def unique_apply(values: np.ndarray, fn) -> np.ndarray:
    """Apply scalar ``fn`` once per distinct value, scatter results back.

    ``values`` is an object/str ndarray (None-safe). Returns ndarray of fn
    outputs. This is the vectorized replacement for the reference's
    per-column LFU memo cache (LFUCache.java:47-74): distinct-heavy work
    is O(#distinct).
    """
    values = np.asarray(values, dtype=object)
    isnone = np.array([v is None for v in values], dtype=bool)
    out = np.empty(len(values), dtype=object)
    if isnone.any():
        out[isnone] = fn(None)
    rest = values[~isnone]
    if len(rest):
        uniq, inv = np.unique(rest, return_inverse=True)
        mapped = np.array([fn(u) for u in uniq], dtype=object)
        out[~isnone] = mapped[inv]
    return out


# ---------------------------------------------------------------------------
# pattern fingerprint (TextPatternUtil.findPattern analog)
# ---------------------------------------------------------------------------

# Codepoint-class table built lazily: maps every codepoint below BMP limit we
# care about to a pattern char. ASCII letters -> 'a'/'A', digits (incl.
# full-width) -> '9', whitespace kept, everything else kept as-is unless an
# East-Asian class applies (Hiragana->'h', Katakana->'k', Kanji->'C',
# Hangul->'G' — mirroring the reference's chain-of-responsibility handlers).


@lru_cache(maxsize=1)
def _pattern_trans_table() -> dict[int, str]:
    table: dict[int, str] = {}
    for cp in range(0x30, 0x3A):
        table[cp] = "9"
    for cp in range(0x41, 0x5B):
        table[cp] = "A"
    for cp in range(0x61, 0x7B):
        table[cp] = "a"
    # full-width digits ０-９ (TypeInferenceUtils accepts these as digits)
    for cp in range(0xFF10, 0xFF1A):
        table[cp] = "9"
    # full-width Latin
    for cp in range(0xFF21, 0xFF3B):
        table[cp] = "A"
    for cp in range(0xFF41, 0xFF5B):
        table[cp] = "a"
    # Hiragana / Katakana / CJK ideographs / Hangul
    for cp in range(0x3041, 0x3097):
        table[cp] = "h"
    for cp in range(0x30A1, 0x30FB):
        table[cp] = "k"
    for cp in range(0x4E00, 0x9FFF):
        table[cp] = "C"
    for cp in range(0xAC00, 0xD7A4):
        table[cp] = "G"
    return table


def pattern_fingerprint_one(s: str) -> str:
    """'Talend 123' -> 'Aaaaaa 999'. Non-letter/digit chars pass through."""
    if s is None:
        return ""
    return s.translate(_pattern_trans_table())


def pattern_fingerprint(arr: pa.Array | np.ndarray) -> np.ndarray:
    vals = arr.to_numpy(zero_copy_only=False) if isinstance(arr, (pa.Array, pa.ChunkedArray)) else arr
    return unique_apply(vals.astype(object), pattern_fingerprint_one)


_WORD_RE = re.compile(r"[^\W\d_]+|\d+|[^\w\s]", re.UNICODE)


def word_pattern_one(s: str, ignore_case: bool = False) -> str:
    """Word-level pattern (WordPatternRecognizer.java:83-150 semantics):

    'John DOE-3' -> '[Word] [WORD]-[number]'   (case-sensitive)
                 -> '[word] [word]-[number]'   (ignore_case)
    CJK ideograms become one [Ideogram] token per char.
    """
    if s is None:
        return ""
    out: list[str] = []
    i = 0
    for m in _WORD_RE.finditer(s):
        out.append(s[i : m.start()])
        tok = m.group(0)
        if tok.isdigit():
            out.append("[number]")
        elif tok[0].isalpha():
            if all(0x4E00 <= ord(c) <= 0x9FFF for c in tok):
                out.append("[Ideogram]" * len(tok))
            elif ignore_case:
                out.append("[word]")
            elif tok.isupper():
                out.append("[WORD]" if len(tok) > 1 else "[Word]")
            elif tok[0].isupper():
                out.append("[Word]")
            else:
                out.append("[word]")
        else:
            out.append(tok)
        i = m.end()
    out.append(s[i:])
    return "".join(out)


# ---------------------------------------------------------------------------
# token / length kernels
# ---------------------------------------------------------------------------


def token_counts(arr) -> np.ndarray:
    """Number of non-empty whitespace-separated tokens per value."""
    vals = _as_np(arr)
    return np.array([len(v.split()) if v is not None else 0 for v in vals], dtype=np.int64)


# BPE-style pre-tokenizer (the GPT-2 pattern family, made RE2-safe so the
# IDENTICAL string runs in Python `re` and DuckDB `regexp_extract_all`):
# contractions, optional-space letter runs, digit runs, symbol runs,
# whitespace runs. Two deliberate deviations from the original, both
# forced by RE2: no `(?!\S)` lookahead (trailing-space splitting), and
# whitespace spelled as an explicit class — RE2's \s excludes \v while
# Python's ASCII \s includes it, so \s would silently diverge between
# the engines on vertical tabs.
BPE_TOKEN_PATTERN = (r"'(?:s|t|re|ve|m|ll|d)"
                     r"| ?[A-Za-z]+| ?[0-9]+"
                     r"| ?[^A-Za-z0-9 \t\n\r\f']+"
                     r"|[ \t\n\r\f]+")
BPE_WORD_PATTERN = r" ?[A-Za-z]+"
BPE_NUM_PATTERN = r" ?[0-9]+"
BPE_SPACE_PATTERN = r"[ \t\n\r\f]+"

_BPE_RE = re.compile(BPE_TOKEN_PATTERN)
_BPE_WORD_RE = re.compile(BPE_WORD_PATTERN)
_BPE_NUM_RE = re.compile(BPE_NUM_PATTERN)
_BPE_SPACE_RE = re.compile(BPE_SPACE_PATTERN)


def bpe_tokens_one(s: str | None) -> list[str]:
    return _BPE_RE.findall(s) if s else []


def bpe_token_stats(arr) -> dict[str, np.ndarray]:
    """Per-value BPE-ish token tallies: total tokens and word / number /
    whitespace run counts (symbol runs + contractions are the remainder).
    One compiled-regex findall per value; classification via anchored
    fullmatch — the same per-token predicates the SQL oracle applies with
    list_filter(regexp_matches('^...$'))."""
    vals = _as_np(arr)
    n = len(vals)
    out = {k: np.zeros(n, dtype=np.int64)
           for k in ("n_tokens", "n_word", "n_num", "n_space")}
    for i, v in enumerate(vals):
        toks = bpe_tokens_one(v)
        out["n_tokens"][i] = len(toks)
        out["n_word"][i] = sum(1 for t in toks if _BPE_WORD_RE.fullmatch(t))
        out["n_num"][i] = sum(1 for t in toks if _BPE_NUM_RE.fullmatch(t))
        out["n_space"][i] = sum(1 for t in toks if _BPE_SPACE_RE.fullmatch(t))
    return out


def _as_np(arr) -> np.ndarray:
    if isinstance(arr, (pa.Array, pa.ChunkedArray)):
        return arr.to_numpy(zero_copy_only=False)
    return np.asarray(arr, dtype=object)


# ---------------------------------------------------------------------------
# string handler utilities (common/character/StringHandler.java analogs)
# ---------------------------------------------------------------------------


def fingerprint_key_one(s: str) -> str:
    """OpenRefine-style fingerprint (BlockingKeyAlgorithmEnum FINGERPRINTKEY,
    record/linkage genkey precedent): lowercase, strip accents, keep
    alphanumerics, unique sorted tokens joined by single space."""
    if s is None:
        return ""
    s = unicodedata.normalize("NFD", s.lower())
    s = "".join(c for c in s if not unicodedata.combining(c))
    toks = re.split(r"[^a-z0-9]+", s)
    return " ".join(sorted({t for t in toks if t}))


def acronym_one(s: str) -> str:
    """First letter of each word, uppercased (common/character/Acronym.java:9-31)."""
    if not s:
        return ""
    return "".join(w[0].upper() for w in s.split() if w)
