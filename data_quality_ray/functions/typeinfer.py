"""Type inference over string values — vectorized.

Re-expresses the reference's per-value type inference
(dataquality-statistics type/TypeInferenceUtils.java:28-224): integer /
double regexes that accept full-width digits ０-９, US/EU grouping,
scientific notation and trailing percent; boolean; empty; date/time via the
datetime pattern manager. Column dominant type uses the 0.5 threshold with
INTEGER folding into DOUBLE (type/DataTypeOccurences.java:41-90).
"""

from __future__ import annotations

import re
from collections import Counter

from .datetime_patterns import is_date_str, is_time_str

# Mirrors TypeInferenceUtils.java:28-45 semantics, validated against the
# reference's own test vectors (type/TypeInferenceUtilsTest.java:100-165):
# optional sign; US grouping "1,045,350" / EU grouping "1.045.350" / space
# grouping "1 045 350" (incl. NBSP/figure/narrow spaces); decimal '.' only
# with US/no grouping, decimal ',' with EU/space/no grouping; optional
# exponent with a space allowed BEFORE e ("1.0 e-4"), none after; optional
# trailing '%' with a space allowed before it; full-width digits, signs,
# separators and ％ normalize to ASCII first.

_FW_TRANS = {0x3000: " ", 0xFF0B: "+", 0xFF0D: "-", 0xFF0E: ".", 0xFF0C: ",",
             0xFF05: "%", 0xFF25: "E", 0xFF45: "e",
             0xA0: " ", 0x2007: " ", 0x202F: " "}
for _cp in range(0xFF10, 0xFF1A):
    _FW_TRANS[_cp] = chr(_cp - 0xFF10 + 0x30)


def _normalize_numeric(v: str) -> str:
    return v.translate(_FW_TRANS)


_EXP = r"(?: ?[eE][-+]?\d+)?"
_PCT = r"(?: ?%)?"
INTEGER_RE = re.compile(
    rf"^[-+]?(?:\d+|\d{{1,3}}(?:,\d{{3}})+){_PCT}$"
)
DOUBLE_RE = re.compile(
    rf"^[-+]?(?:"
    rf"(?:\d+|\d{{1,3}}(?:,\d{{3}})+)(?:\.\d+)?"          # US/no grouping + .dec
    rf"|(?:\d{{1,3}}(?:\.\d{{3}})+|\d{{1,3}}(?: \d{{3}})+|\d+)(?:,\d+)?"  # EU/space/no grouping + ,dec
    rf"|\.\d+"
    rf"){_EXP}{_PCT}$"
)
_BOOL = {"true", "false"}

TYPES = ("BOOLEAN", "INTEGER", "DOUBLE", "DATE", "TIME", "STRING", "EMPTY")


def is_empty(v: str | None) -> bool:
    return v is None or v.strip() == ""


def is_integer(v: str) -> bool:
    return bool(v) and bool(INTEGER_RE.match(_normalize_numeric(v)))


def is_double(v: str) -> bool:
    """Reference semantics: isDouble accepts integers too
    (TypeInferenceUtilsTest: isDouble("100") is true); classification
    order in ``infer_type_one`` checks INTEGER first."""
    return bool(v) and bool(DOUBLE_RE.match(_normalize_numeric(v)))


def is_boolean(v: str) -> bool:
    return v is not None and v.strip().lower() in _BOOL


def infer_type_one(v: str | None, custom_date_patterns: tuple[str, ...] = ()) -> str:
    """DataTypeEnum-style verdict for one value (TypeInferenceUtils.getDataType;
    ``custom_date_patterns`` = DataTypeAnalyzer.customDateTimePatterns:42,
    user Java-style patterns tried before the system inventory)."""
    if is_empty(v):
        return "EMPTY"
    v = v.strip()
    if is_boolean(v):
        return "BOOLEAN"
    if is_integer(v):
        return "INTEGER"
    if is_double(v):
        return "DOUBLE"
    if is_date_str(v, custom_date_patterns):
        return "DATE"
    if is_time_str(v):
        return "TIME"
    return "STRING"


def dominant_type(counts: Counter | dict[str, int], threshold: float = 0.5) -> str:
    """Column dominant type (DataTypeOccurences.java:41-90): the most
    frequent non-empty type if its share of non-empty values ≥ threshold;
    INTEGER folds into DOUBLE when DOUBLE present and the union crosses the
    threshold; else STRING."""
    counts = {t: int(n) for t, n in counts.items() if n}
    total = sum(n for t, n in counts.items() if t != "EMPTY")
    if total == 0:
        return "EMPTY"
    best = max((t for t in counts if t != "EMPTY"), key=lambda t: (counts[t], t))
    if counts[best] / total >= threshold:
        return best
    numeric = counts.get("INTEGER", 0) + counts.get("DOUBLE", 0)
    if counts.get("DOUBLE", 0) > 0 and numeric / total >= threshold:
        return "DOUBLE"
    return "STRING"
