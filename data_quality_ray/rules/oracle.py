"""Row-by-row oracle for the quality-filter chain.

The ground-truth labeller: walks each rule's scalar per-value definition
(``DropRule.one`` / ``ScrubRule.one``) in chain order, one record at a
time (the reference's per-record ``analyze(String...)`` execution shape,
Analyzer.java:28-57). It shares no code with ``RuleEngine.apply``'s
distinct-value batching or the columnar kernels, so agreeing with it
checks them. The distributed pipeline must agree with this oracle at
F1 ≥ 0.99 on keep/drop plus exact scrubbed-caption equality (north rule);
because both derive from the same deterministic rule definitions the
expected agreement is exact.
"""

from __future__ import annotations

import numpy as np

from .core import RuleEngine


def _one(rule):
    """The rule's scalar definition; a rule without one runs on a
    one-row batch."""
    if rule.one is not None:
        return rule.one
    if getattr(rule, "use_aux", False):
        return lambda v, aux: rule(np.array([v], dtype=object),
                                   {k: np.array([x], dtype=object) for k, x in aux.items()})[0]
    return lambda v: rule(np.array([v], dtype=object))[0]


def oracle_labels(values, engine: RuleEngine, aux: dict | None = None):
    """Label each value individually → (keep: bool[], first_rule: str[],
    scrubbed: str[])."""
    values = np.asarray(values, dtype=object)
    aux = {k: np.asarray(v, dtype=object) for k, v in (aux or {}).items()}
    drops = [(r.name, _one(r), r.use_aux) for r in engine.drop_rules]
    scrubs = [(r.name, _one(r)) for r in engine.scrub_rules]
    n = len(values)
    keep = np.ones(n, dtype=bool)
    first_rule = np.full(n, "", dtype=object)
    scrubbed = values.copy()
    for i, v in enumerate(values):
        row_aux = {k: a[i] for k, a in aux.items()}
        for name, one, use_aux in drops:
            if one(v, row_aux) if use_aux else one(v):
                keep[i], first_rule[i] = False, name
                break
        else:
            for name, one in scrubs:
                new = one(scrubbed[i])
                if new != scrubbed[i]:
                    first_rule[i] = first_rule[i] or name
                    scrubbed[i] = new
    return keep, first_rule, scrubbed
