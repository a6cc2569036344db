"""PII / toxicity scrubbing — compiled-regex in-place caption rewrites.

Reference precedents:
- email detection: RFC-style regex + domain/TLD checks
  (dataquality-email checkerImpl/RegularRegexCheckerImpl.java:24-60,
  TLDsCheckerImpl.java:23-46); the CORRECTED verdict surface is
  EmailVerifyResult.java:19-27 / getSuggestedEmail:158-173.
- phone detection: cheap regex prefilter then strict validation
  (dataquality-phone PhoneNumberHandlerBase.java:37-311 — here a
  lightweight NANP/E.164 plausibility validator since the libphonenumber
  port is not available in this environment).
- slur/toxicity lexicon: broadcast dictionary membership
  (dataquality-standardization index/SynonymIndexSearcher.java:51-508
  precedent — dictionary loaded once per worker).

All patterns are RE2-compatible (no backreferences / lookbehind) so the
DuckDB oracle SQL applies the *same* pattern strings; rewrites are
byte-stable across engines. Patterns are compiled once at module import
(once per worker process).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow.compute as pc

from .tokens import TextBatch

# Pattern strings shared verbatim with the DuckDB oracle (RE2-safe).
EMAIL_PATTERN = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
SSN_PATTERN = r"\b[0-9]{3}-[0-9]{2}-[0-9]{4}\b"
PHONE_PATTERN = r"\+?[0-9]{1,3}[ .-]?\(?[0-9]{3}\)?[ .-][0-9]{3}[ .-][0-9]{4}\b"

EMAIL_TOKEN, SSN_TOKEN, PHONE_TOKEN = "<EMAIL>", "<SSN>", "<PHONE>"

_EMAIL_RE = re.compile(EMAIL_PATTERN)
_SSN_RE = re.compile(SSN_PATTERN)
_PHONE_RE = re.compile(PHONE_PATTERN)

# Fictional expletives (sci-fi swears) as the stand-in slur lexicon — the
# engine treats this as an opaque broadcast word set; swap in a real lexicon
# in production. Matching is case-insensitive on word boundaries.
TOXIC_LEXICON = ("frak", "frell", "gorram", "smeg", "shazbot")
TOXIC_MASK = "****"
_TOXIC_RE = re.compile(r"\b(?:" + "|".join(TOXIC_LEXICON) + r")\b", re.IGNORECASE)


def _scrub(values, rx: re.Pattern, token: str, can_match) -> np.ndarray:
    """``rx.sub(token, v)`` on the rows ``can_match(TextBatch)`` admits (a
    superset of the rows the pattern matches); the rest pass through."""
    t = TextBatch.of(values)
    out = t.values.copy()
    for i in np.flatnonzero(can_match(t)):
        out[i] = rx.sub(token, out[i])
    return out


def _has(pattern: str):
    return lambda t: pc.fill_null(pc.match_substring_regex(t.arr, pattern), False).to_numpy(
        zero_copy_only=False)


# EMAIL_PATTERN needs an '@'; SSN and PHONE patterns need an ASCII digit
_HAS_AT, _HAS_DIGIT = _has("@"), _has("[0-9]")


def _maybe_toxic(t) -> np.ndarray:
    # IGNORECASE folds non-ASCII letters too (e.g. 'ſ' ~ 's'), so only ASCII
    # rows can be cleared by the lower-cased lexicon substring test
    low = pc.fill_null(pc.match_substring_regex(t.arr, "|".join(TOXIC_LEXICON),
                                                ignore_case=True), False)
    other = ~t.ascii & t.arr.is_valid().to_numpy(zero_copy_only=False)
    return low.to_numpy(zero_copy_only=False) | other


def _sub_one(rx: re.Pattern, token: str):
    return lambda v: v if v is None else rx.sub(token, v)


scrub_email_one = _sub_one(_EMAIL_RE, EMAIL_TOKEN)
scrub_ssn_one = _sub_one(_SSN_RE, SSN_TOKEN)
scrub_phone_one = _sub_one(_PHONE_RE, PHONE_TOKEN)
scrub_toxic_one = _sub_one(_TOXIC_RE, TOXIC_MASK)


def scrub_email(values) -> np.ndarray:
    return _scrub(values, _EMAIL_RE, EMAIL_TOKEN, _HAS_AT)


def scrub_ssn(values) -> np.ndarray:
    return _scrub(values, _SSN_RE, SSN_TOKEN, _HAS_DIGIT)


def scrub_phone(values) -> np.ndarray:
    return _scrub(values, _PHONE_RE, PHONE_TOKEN, _HAS_DIGIT)


def scrub_toxic(values) -> np.ndarray:
    return _scrub(values, _TOXIC_RE, TOXIC_MASK, _maybe_toxic)


# ---------------------------------------------------------------------------
# standalone validators (EmailVerify / PhoneNumberHandlerBase surfaces)
# ---------------------------------------------------------------------------

_EMAIL_FULL_RE = re.compile(r"^" + EMAIL_PATTERN + r"$")

# IANA-style TLD whitelist (small curated subset; TLDsCheckerImpl.java:23-46)
DEFAULT_TLDS = frozenset(
    "com org net edu gov mil int io co us uk fr de es it nl jp cn au ca ch se no dk fi br in info biz".split()
)


def email_is_valid(v: str | None, tlds: frozenset = DEFAULT_TLDS) -> bool:
    """RegularRegexChecker + TLDsChecker chain for a single value."""
    if not v or not _EMAIL_FULL_RE.match(v):
        return False
    return v.rsplit(".", 1)[-1].lower() in tlds


_PHONE_STRIP_RE = re.compile(r"[ .\-()]")


def phone_is_possible(v: str | None) -> bool:
    """isPossiblePhoneNumber analog (PhoneNumberHandlerBase.java:103):
    plausible digit count after stripping separators."""
    if not v:
        return False
    s = _PHONE_STRIP_RE.sub("", v)
    if s.startswith("+"):
        s = s[1:]
    return s.isdigit() and 7 <= len(s) <= 15


def phone_format_e164(v: str | None, default_cc: str = "1") -> str | None:
    """formatE164 analog (PhoneNumberHandlerBase.java:120) for NANP-ish
    numbers: '+<cc><digits>' or None when not possible."""
    if not phone_is_possible(v):
        return None
    s = _PHONE_STRIP_RE.sub("", v)
    if s.startswith("+"):
        return "+" + s[1:]
    if len(s) == 10:
        return "+" + default_cc + s
    if len(s) == 11 and s.startswith(default_cc):
        return "+" + s
    return "+" + s


def pii_audit(ds, col: str):
    """Corpus PII/toxicity EXPOSURE report (counts, no rewriting — the
    audit that decides whether scrubbing is needed and verifies it
    afterwards): per batch, vectorized non-overlapping match counts per
    category fold to ONE fixed-width partial row; driver sums. Shares
    the exact compiled patterns with the scrub stage so audit and
    rewrite cannot disagree. → one row (n_docs, docs_<cat>, hits_<cat>
    for email/ssn/phone/toxic)."""
    import pandas as pd

    pats = {"email": _EMAIL_RE, "ssn": _SSN_RE, "phone": _PHONE_RE,
            "toxic": _TOXIC_RE}

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        s = b[col].astype("string")
        out = {"n_docs": [len(s)]}
        for k, rx in pats.items():
            c = s.str.count(rx).fillna(0).astype("int64")
            out[f"docs_{k}"] = [int((c > 0).sum())]
            out[f"hits_{k}"] = [int(c.sum())]
        return pd.DataFrame(out)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    return parts.sum().to_frame().T.astype("int64")
