"""EmailVerify — the reference's canonical chain-of-checkers pipeline.

Rebuilds dataquality-email api/EmailVerify.java:33-203 as a configurable
ordered checker chain with short-circuit on INVALID (EmailVerify.java:
120-150), a correction surface (getSuggestedEmail:158-173 /
LocalPartColumnContentCheckerImpl.java:99-140) and the verdict enum of
EmailVerifyResult.java:19-27 (VALID / INVALID / CORRECTED / REJECTED).

Checkers (each vectorized over a numpy object array):
- regular_regex  (RegularRegexCheckerImpl.java:24-60)
- local_part     (LocalPartRegexCheckerImpl.java:24)
- domain_list    (ListDomainsCheckerImpl.java:26-64, black/white)
- tld            (TLDsCheckerImpl.java:23-46)
- local_part_from_columns (LocalPartColumnContentCheckerImpl: derive the
  expected local part from first/last-name columns and CORRECT the email)

The SMTP callback checker (CallbackMailServerCheckerImpl.java:48-123) is
a network side effect — out of scope here by design.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .scrub import DEFAULT_TLDS, EMAIL_PATTERN

VALID, INVALID, CORRECTED, REJECTED = "VALID", "INVALID", "CORRECTED", "REJECTED"

# Default syntax check: a faithful port of the reference's three gates
# (RegularRegexCheckerImpl.java:27-77):
#   1. every char is ASCII, a letter, or a combining mark
#      (LEGAL_ASCII_REGEX:27);
#   2. EMAIL_REGEX:30 — dot-separated local atoms OR "quoted strings"
#      (no leading/trailing/double dots by construction), domain labels
#      [letter/digit](interior hyphens){0,61}[letter/digit], 2–6-letter
#      TLD;
#   3. no trailing dot (subsumed by the TLD tail here).
# The RE2-safe ASCII EMAIL_PATTERN (rules/scrub.py) stays separate — it
# is the PII *detector* shared with the SQL oracles.
_EMAIL_ATOM = r"(?:[^\s\x00-\x1f\x7f()<>@,;:\\\".\[\]]+)"  # ' allowed (Java |')
_EMAIL_QUOTED = r'"[^"]*"'
_EMAIL_TOKEN = f"(?:{_EMAIL_ATOM}|{_EMAIL_QUOTED})"
_LD = r"[^\W_]"  # unicode letter or digit
_EMAIL_LABEL = rf"{_LD}(?:(?:{_LD}|-){{0,61}}{_LD})?"
_EMAIL_STRUCT_RE = re.compile(
    rf"^{_EMAIL_TOKEN}(?:\.{_EMAIL_TOKEN})*@(?:{_EMAIL_LABEL}\.)+[^\W\d_]{{2,6}}$",
    re.UNICODE,
)


def _legal_chars(v: str) -> bool:
    if v.isascii():
        return True
    import unicodedata

    return all(ord(c) < 128 or unicodedata.category(c)[0] in "LM" for c in v)


def regular_regex_default_check(v: str | None) -> bool:
    """RegularRegexCheckerImpl.check with no user regex. Java's letter
    classes are [\\p{L}\\p{M}]; Python's \\w excludes combining marks, so
    the structure match runs on a mark-stripped copy (marks always attach
    to a base letter, so label/TLD structure is preserved)."""
    if not v or not _legal_chars(v):
        return False
    probe = v
    if not v.isascii():
        import unicodedata

        probe = "".join(c for c in v if not unicodedata.category(c).startswith("M"))
    return bool(_EMAIL_STRUCT_RE.match(probe)) and not v.endswith(".")


class _DefaultEmailRe:
    """Adapter so the default check drops into the user-regex slot."""

    @staticmethod
    def match(v):
        return regular_regex_default_check(v)


_EMAIL_RE = _DefaultEmailRe()
_LOCAL_DEFAULT_RE = re.compile(r"^[\w.%+-]+$", re.UNICODE)


@dataclass
class EmailVerify:
    """Builder-style chain (EmailVerify.add*Checker analog)."""

    use_regex: bool = True
    user_regex: str | None = None
    local_part_regex: str | None = None
    lower_case_only: bool = False
    whitelist_domains: frozenset | None = None
    blacklist_domains: frozenset = frozenset()
    check_tlds: bool = True
    tlds: frozenset = DEFAULT_TLDS
    # LocalPartColumnContentChecker config
    derive_local_part: bool = False
    first_name_pattern: str = "f"  # 'f'=first letter, 'first'=full
    last_name_pattern: str = "last"
    separator: str = "."

    def _split(self, v: str):
        local, _, domain = v.rpartition("@")
        return local, domain

    def _expected_local(self, first: str, last: str) -> str:
        def pick(name: str, pat: str) -> str:
            name = (name or "").strip().lower()
            return name[:1] if pat == "f" else name

        return pick(first, self.first_name_pattern) + self.separator + pick(last, self.last_name_pattern)

    def verify(self, values, first_names=None, last_names=None):
        """→ (verdict: str[], suggestion: str[]) with short-circuit: a value
        failing checker k never reaches checker k+1."""
        vals = np.asarray(values, dtype=object)
        n = len(vals)
        verdict = np.full(n, VALID, dtype=object)
        suggestion = vals.copy()
        undecided = np.ones(n, dtype=bool)

        def fail(mask: np.ndarray) -> None:
            idx = np.flatnonzero(undecided)[mask]
            verdict[idx] = INVALID
            undecided[idx] = False

        def sub():
            return vals[undecided]

        # 1. syntax regex (user regex overrides the RFC-style default)
        if self.use_regex:
            rx = re.compile(self.user_regex) if self.user_regex else _EMAIL_RE
            fail(np.array([not (v and rx.match(v)) for v in sub()], dtype=bool))
        # 2. local-part regex / case
        if self.local_part_regex or self.lower_case_only:
            rx = re.compile(self.local_part_regex) if self.local_part_regex else _LOCAL_DEFAULT_RE
            bad = []
            for v in sub():
                local, _ = self._split(v)
                b = not rx.match(local)
                if self.lower_case_only and local != local.lower():
                    b = True
                bad.append(b)
            fail(np.array(bad, dtype=bool))
        # 3. domain black/white lists
        if self.whitelist_domains is not None or self.blacklist_domains:
            bad = []
            for v in sub():
                _, domain = self._split(v)
                d = domain.lower()
                b = d in self.blacklist_domains
                if self.whitelist_domains is not None and d not in self.whitelist_domains:
                    b = True
                bad.append(b)
            fail(np.array(bad, dtype=bool))
        # 4. TLD whitelist
        if self.check_tlds:
            fail(np.array([v.rsplit(".", 1)[-1].lower() not in self.tlds for v in sub()],
                          dtype=bool))
        # 5. derive expected local part from name columns → CORRECTED
        if self.derive_local_part and first_names is not None:
            firsts = np.asarray(first_names, dtype=object)
            lasts = np.asarray(last_names, dtype=object)
            idx = np.flatnonzero(undecided)
            for i in idx:
                local, domain = self._split(vals[i])
                expect = self._expected_local(firsts[i], lasts[i])
                if local.lower() != expect:
                    verdict[i] = CORRECTED
                    suggestion[i] = expect + "@" + domain
        return verdict, suggestion
