"""Rule protocol + short-circuit chain engine.

Re-expresses the reference's chain-of-checkers validation pipeline
(dataquality-email api/EmailVerify.java:33-203):

- an ordered list of checkers; evaluation short-circuits on the first
  checker that decides a value (EmailVerify.java:120-150) — here "rule k
  only sees rows still undecided" (the mask is *compacted*, so skipped rows
  cost nothing);
- a correction surface (EmailVerify.getSuggestedEmail:158-173 /
  LocalPartColumnContentCheckerImpl.java:99-140): scrub rules rewrite the
  value in place and mark it CORRECTED;
- verdicts mirror EmailVerifyResult.java:19-27 (VALID→KEEP,
  INVALID→DROP, CORRECTED→CORRECTED);
- per-rule tallies mirror ValueQualityStatistics.java:31-106 (counts +
  capped invalid-value samples; `merge` is the mergeCounts:92-97 analog so
  partition tallies combine into run totals).

The chain runs once per DISTINCT value of a batch (per distinct (value,
aux) tuple when a rule reads side columns) and scatters the verdicts back
to the rows; tallies count rows. Library rules are columnar kernels over a
``rules.tokens.TextBatch`` of those distinct values, whose byte and token
tables they share.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow.compute as pc

from .tokens import TextBatch, to_arrow

KEEP, DROP, CORRECTED = "KEEP", "DROP", "CORRECTED"
NO_RULE = ""
SAMPLE_CAP = 10


def _values(t: TextBatch, columnar: bool):
    return t if columnar else t.values


@dataclass
class DropRule:
    """A named vectorized predicate: True → drop the row, attributing
    ``name`` as its first (deciding) rule. Set ``use_aux=True`` for rules
    that also read side columns (fn(values, aux: dict[str, ndarray])).

    ``one`` is the rule's scalar definition (``one(value[, aux_row])`` →
    bool), which the row-by-row oracle walks. A rule that has one is
    columnar: its ``fn`` receives a ``TextBatch``; without one, ``fn``
    receives an object array."""

    name: str
    fn: "callable"  # (values[, aux]) -> np.ndarray[bool]
    use_aux: bool = False
    one: "callable | None" = None

    def __call__(self, values, aux: dict | None = None) -> np.ndarray:
        values = _values(TextBatch.of(values), self.one is not None)
        out = self.fn(values, aux) if self.use_aux else self.fn(values)
        return np.asarray(out, dtype=bool)


@dataclass
class ScrubRule:
    """A named vectorized rewriter: returns new values; rows whose value
    changed are marked CORRECTED (first changing scrub wins attribution).
    ``one(value)`` → new value is its scalar definition; as for
    ``DropRule``, a rule that has one receives a ``TextBatch``."""

    name: str
    fn: "callable"  # (values) -> np.ndarray[object]
    one: "callable | None" = None

    def __call__(self, values) -> np.ndarray:
        return np.asarray(self.fn(_values(TextBatch.of(values), self.one is not None)),
                          dtype=object)


@dataclass
class RuleTally:
    """Mergeable per-rule hit statistics (ValueQualityStatistics analog)."""

    counts: dict[str, int] = field(default_factory=dict)
    samples: dict[str, list[str]] = field(default_factory=dict)
    total: int = 0
    kept: int = 0
    dropped: int = 0
    corrected: int = 0

    def add(self, rule: str, n: int, sample_values: list[str]) -> None:
        self.counts[rule] = self.counts.get(rule, 0) + n
        s = self.samples.setdefault(rule, [])
        if len(s) < SAMPLE_CAP:
            s.extend(sample_values[: SAMPLE_CAP - len(s)])

    def merge(self, other: "RuleTally") -> "RuleTally":
        # ValueQualityStatistics.mergeCounts:92-97 analog.
        for r, n in other.counts.items():
            self.counts[r] = self.counts.get(r, 0) + n
        for r, s in other.samples.items():
            mine = self.samples.setdefault(r, [])
            mine.extend(s[: max(0, SAMPLE_CAP - len(mine))])
        self.total += other.total
        self.kept += other.kept
        self.dropped += other.dropped
        self.corrected += other.corrected
        return self

    def to_row(self) -> dict:
        return {
            "total": self.total,
            "kept": self.kept,
            "dropped": self.dropped,
            "corrected": self.corrected,
            "rule_hits": dict(sorted(self.counts.items())),
        }


@dataclass
class ChainResult:
    verdict: np.ndarray  # object: KEEP/DROP/CORRECTED
    first_rule: np.ndarray  # object: rule name or ""
    values: np.ndarray  # object: (possibly rewritten) values
    tally: RuleTally
    rule_ns: dict[str, int] = field(default_factory=dict)  # time spent in each rule


def _distinct(values, aux: dict | None):
    """→ (TextBatch of the distinct values, their aux columns, the row →
    distinct index). With aux, distinct means distinct (value, aux…)."""
    arr = to_arrow(values)
    enc = pc.dictionary_encode(arr, null_encoding="encode")
    inv = enc.indices.to_numpy().astype(np.int64)
    if not aux:
        return TextBatch(enc.dictionary), {}, inv
    aux = {k: np.asarray(v, dtype=object) for k, v in aux.items()}
    key = inv
    for v in aux.values():
        codes, uniq = pd.factorize(v, use_na_sentinel=False)
        key = key * max(1, len(uniq)) + codes
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    return TextBatch(arr.take(first)), {k: v[first] for k, v in aux.items()}, inv.ravel()


class RuleEngine:
    """Ordered drop rules then scrub rules, with short-circuit semantics."""

    def __init__(self, drop_rules: list[DropRule], scrub_rules: list[ScrubRule]):
        self.drop_rules = drop_rules
        self.scrub_rules = scrub_rules

    def rule_matrix(self, values, aux: dict[str, np.ndarray] | None = None
                    ) -> dict[str, np.ndarray]:
        """Every drop rule evaluated INDEPENDENTLY on every row (no
        short-circuit) — the ablation view: which rules would each row
        trip on its own. ``apply``'s first_rule only attributes the
        chain-order first hit; tuning a chain needs the full matrix
        (sole-reason drops = rows a rule removal would rescue). All
        rules must be null-robust (they are — the chain's empty rule
        otherwise shields them). Same kernels as ``apply``, once per
        distinct value."""
        t, d_aux, inv = _distinct(values, aux)
        return {rule.name: rule(t, d_aux if rule.use_aux else None)[inv]
                for rule in self.drop_rules}

    def apply(self, values, aux: dict[str, np.ndarray] | None = None) -> ChainResult:
        """``values``: Arrow (chunked) string array, object array or list.
        Rule k sees only the distinct values rules 1..k-1 left undecided."""
        t, d_aux, inv = _distinct(values, aux)
        m = len(t)
        verdict = np.full(m, KEEP, dtype=object)
        first_rule = np.full(m, NO_RULE, dtype=object)
        hits: list[tuple[str, np.ndarray]] = []  # (rule, distinct indices) in chain order
        rule_ns: dict[str, int] = {}

        undecided = np.arange(m)
        for rule in self.drop_rules:
            if len(undecided) == 0:
                break
            t0 = time.perf_counter_ns()
            sub = t if len(undecided) == m else t.take(undecided)
            sub_aux = {k: v[undecided] for k, v in d_aux.items()} if rule.use_aux else None
            hit = rule(sub, sub_aux)
            rule_ns[rule.name] = time.perf_counter_ns() - t0
            if hit.any():
                hit_idx = undecided[hit]
                verdict[hit_idx] = DROP
                first_rule[hit_idx] = rule.name
                hits.append((rule.name, hit_idx))
                undecided = undecided[~hit]

        # scrub rules run (in order) only on surviving values
        out_values = t.values.copy()
        cur = t.take(undecided)
        for rule in self.scrub_rules:
            if len(undecided) == 0:
                break
            t0 = time.perf_counter_ns()
            old = cur.values
            new = rule(cur)
            changed = new != old
            if changed.any():
                ch_idx = undecided[changed]
                out_values[ch_idx] = new[changed]
                first_rule[ch_idx[verdict[ch_idx] == KEEP]] = rule.name
                verdict[ch_idx] = CORRECTED
                hits.append((rule.name, ch_idx))
                cur = TextBatch.of(out_values[undecided])
            rule_ns[rule.name] = time.perf_counter_ns() - t0

        tally = RuleTally(total=len(inv))
        row_values = t.values[inv]
        for name, idx in hits:
            hit_rows = np.zeros(m, dtype=bool)
            hit_rows[idx] = True
            rows = np.flatnonzero(hit_rows[inv])
            tally.add(name, len(rows), [str(v) for v in row_values[rows[:SAMPLE_CAP]]])
        verdict, first_rule = verdict[inv], first_rule[inv]
        tally.kept = int(np.sum(verdict == KEEP))
        tally.dropped = int(np.sum(verdict == DROP))
        tally.corrected = int(np.sum(verdict == CORRECTED))
        return ChainResult(verdict, first_rule, out_values[inv], tally, rule_ns)
