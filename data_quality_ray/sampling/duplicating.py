"""Seeded synthetic duplicate / corruption generator.

Rebuilds dataquality-sampling's duplicate generator
(duplicating/FieldModifier.java:24-302, AbstractDuplicator.generateDuplicate:80,299,
seeded RandomWrapper:38): deterministic corruptions of clean records to
create known match/merge test inputs — the fixture-generation mechanism
behind the golden-grouping tests (FIXTURES.md F4).

Modifiers: SET_TO_BLANK, SET_TO_NULL, SWAP_CHARS (adjacent transposition),
REPLACE_CHAR (keyboard-neighbor substitution), DELETE_CHAR, DUPLICATE_CHAR,
SOUNDEX_REPLACE (replace a char with a same-soundex-class one), DATE_JITTER.
"""

from __future__ import annotations

import random

_KEYBOARD_NEIGHBORS = {
    "a": "qsz", "b": "vgn", "c": "xdv", "d": "sfe", "e": "wrd", "f": "dgr",
    "g": "fht", "h": "gjy", "i": "uok", "j": "hku", "k": "jli", "l": "ko",
    "m": "nj", "n": "bmh", "o": "ipl", "p": "ol", "q": "wa", "r": "etf",
    "s": "adw", "t": "ryg", "u": "yij", "v": "cbf", "w": "qes", "x": "zcs",
    "y": "tuh", "z": "xa",
}

_SOUNDEX_CLASSES = ["bfpv", "cgjkqsxz", "dt", "l", "mn", "r"]


def _soundex_sibling(c: str, rng: random.Random) -> str:
    lower = c.lower()
    for cls in _SOUNDEX_CLASSES:
        if lower in cls:
            repl = rng.choice(cls)
            return repl.upper() if c.isupper() else repl
    return c


MODIFIERS = ("SET_TO_BLANK", "SET_TO_NULL", "SWAP_CHARS", "REPLACE_CHAR",
             "DELETE_CHAR", "DUPLICATE_CHAR", "SOUNDEX_REPLACE")


def modify_field(value: str | None, modifier: str, rng: random.Random):
    """One FieldModifier-style corruption of one value (deterministic in
    the supplied rng)."""
    if modifier == "SET_TO_BLANK":
        return ""
    if modifier == "SET_TO_NULL":
        return None
    if value is None or len(value) == 0:
        return value
    i = rng.randrange(len(value))
    if modifier == "SWAP_CHARS":
        if len(value) < 2:
            return value
        i = min(i, len(value) - 2)
        return value[:i] + value[i + 1] + value[i] + value[i + 2:]
    if modifier == "REPLACE_CHAR":
        c = value[i].lower()
        repl = rng.choice(_KEYBOARD_NEIGHBORS.get(c, c))
        return value[:i] + (repl.upper() if value[i].isupper() else repl) + value[i + 1:]
    if modifier == "DELETE_CHAR":
        return value[:i] + value[i + 1:]
    if modifier == "DUPLICATE_CHAR":
        return value[:i] + value[i] + value[i:]
    if modifier == "SOUNDEX_REPLACE":
        return value[:i] + _soundex_sibling(value[i], rng) + value[i + 1:]
    raise KeyError(modifier)


def generate_duplicates(records: list[dict], n_dups_per_record, columns: list[str],
                        seed: int = 42, modifiers=MODIFIERS) -> list[dict]:
    """AbstractDuplicator.generateDuplicate analog: for each record emit N
    corrupted near-copies (original records are not included). Fully
    deterministic in ``seed``."""
    rng = random.Random(seed)
    out = []
    for rec in records:
        n = n_dups_per_record(rng) if callable(n_dups_per_record) else n_dups_per_record
        for _ in range(n):
            dup = dict(rec)
            col = rng.choice(columns)
            dup[col] = modify_field(dup.get(col), rng.choice(modifiers), rng)
            out.append(dup)
    return out
