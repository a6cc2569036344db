"""Survivorship — per-group golden-record resolution.

Rebuilds dataquality-survivorship's rule functions
(model/RuleDefinition.java:195-221: ExcludeValues, Expression, FillEmpty,
Largest, Longest, MatchRegex, MostAncient, MostCommon, MostComplete,
MostRecent, RemoveDuplicate, Shortest, Smallest, SurviveAs) as plain
column reducers — no rule engine, just a closure per rule config —
executed per hash bucket of groups through ``bucket_exchange`` (the Drools
``runSession(Object[][])`` analog, SurvivorshipManager.java:286).

Every reducer is deterministic: ties break on the smallest value (or the
first in a stable sort), so reruns produce identical golden records.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

from ..functions.exchange import bucket_exchange


def _present(s: pd.Series) -> pd.Series:
    """True where ``s`` holds a value: not null and not blank. Numbers,
    booleans and dates never print blank, so only other columns pay for
    the string check."""
    if s.dtype.kind in "biufcmM":
        return s.notna()
    return s.notna() & (s.astype(str).str.strip() != "")


def _nonnull(s: pd.Series) -> pd.Series:
    return s[_present(s)]


def largest(s: pd.Series):
    v = _nonnull(s)
    return v.max() if len(v) else None


def smallest(s: pd.Series):
    v = _nonnull(s)
    return v.min() if len(v) else None


def longest(s: pd.Series):
    v = _nonnull(s).astype(str)
    if not len(v):
        return None
    return v.iloc[np.lexsort((v.to_numpy(), -v.str.len().to_numpy()))[0]]


def shortest(s: pd.Series):
    v = _nonnull(s).astype(str)
    if not len(v):
        return None
    return v.iloc[np.lexsort((v.to_numpy(), v.str.len().to_numpy()))[0]]


def most_common(s: pd.Series):
    """Highest frequency; ties → smallest value (deterministic)."""
    v = _nonnull(s)
    if not len(v):
        return None
    counts = v.value_counts()
    top = counts[counts == counts.max()].index
    return sorted(top)[0]


def most_recent(s: pd.Series):
    return largest(s)


def most_ancient(s: pd.Series):
    return smallest(s)


def match_regex_first(s: pd.Series, pattern: str):
    rx = re.compile(pattern)
    v = _nonnull(s).astype(str)
    hits = v[v.map(lambda x: bool(rx.match(x)))]
    return sorted(hits)[0] if len(hits) else None


def exclude_values(s: pd.Series, excluded: set):
    v = _nonnull(s)
    v = v[~v.isin(excluded)]
    return sorted(v)[0] if len(v) else None


def fill_empty(s: pd.Series, default):
    v = _nonnull(s)
    return sorted(v)[0] if len(v) else default


_EXPR_OPS = {
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
}


def expression_predicate(expr):
    """Expression rule predicate (action/ExpressionAction.java:30-60: the
    reference JS-evals ``value + expression``, e.g. '> 3'). Accepts a
    Python callable, or a string '<op> <literal>' over the value."""
    if callable(expr):
        return expr
    op, _, lit = str(expr).strip().partition(" ")
    fn = _EXPR_OPS[op]
    try:
        litv: object = float(lit)

        def num_pred(x, fn=fn, litv=litv):
            try:
                return fn(float(x), litv)
            except (TypeError, ValueError):
                return False

        return num_pred
    except ValueError:
        lit = lit.strip("'\"")
        return lambda x, fn=fn, lit=lit: fn(str(x), lit)


def expression_first(s: pd.Series, expr):
    """Smallest value satisfying the expression (deterministic pick among
    the reference's per-record canHandle hits)."""
    pred = expression_predicate(expr)
    v = _nonnull(s)
    hits = sorted(x for x in v if pred(x))
    return hits[0] if hits else None


RULE_FUNCTIONS = {
    "Largest": largest,
    "Smallest": smallest,
    "Longest": longest,
    "Shortest": shortest,
    "MostCommon": most_common,
    "MostRecent": most_recent,
    "MostAncient": most_ancient,
}


_VECTOR_RULES = {"Largest", "Smallest", "Longest", "Shortest", "MostCommon",
                 "MostRecent", "MostAncient"}


def _resolve_group(g: pd.DataFrame, group_col: str, rules: dict) -> pd.DataFrame:
    out = {group_col: [g[group_col].iloc[0]]}
    deferred = []  # SurviveAs runs after its reference column resolves
    for col, rule in rules.items():
        if isinstance(rule, tuple):
            name, param = rule
            if name == "MatchRegex":
                out[col] = [match_regex_first(g[col], param)]
            elif name == "ExcludeValues":
                out[col] = [exclude_values(g[col], set(param))]
            elif name == "FillEmpty":
                out[col] = [fill_empty(g[col], param)]
            elif name == "Expression":
                out[col] = [expression_first(g[col], param)]
            elif name == "RemoveDuplicate":
                # dedup + keep-first in order-column order
                v = g.loc[_nonnull(g[col]).index, [col, param]].sort_values(
                    param, kind="mergesort")
                out[col] = [v[col].iloc[0] if len(v) else None]
            elif name == "SurviveAs":
                deferred.append((col, param))
            else:
                raise KeyError(name)
        else:
            out[col] = [RULE_FUNCTIONS[rule](g[col])]
    for col, ref in deferred:
        # value of ``col`` from the record whose ``ref`` equals ref's
        # survived value (SurviveAsAction.java:canHandle); smallest col
        # value among those records for determinism
        winner = out[ref][0]
        cand = _nonnull(g.loc[g[ref] == winner, col]) if winner is not None else g[col][:0]
        out[col] = [sorted(cand)[0] if len(cand) else None]
    return pd.DataFrame(out)[[group_col, *rules]]


def _resolve_bucket_vectorized(b: pd.DataFrame, group_col: str, rules: dict) -> pd.DataFrame:
    """Pandas-vectorized resolution of ALL groups in one bucket (no
    per-group Python callback): each named rule maps to a groupby
    aggregation with deterministic tie-breaks."""
    gb = b.groupby(group_col, sort=True)
    out = pd.DataFrame({group_col: gb.size().index.tolist()})
    deferred = []  # SurviveAs resolves after its reference column

    def _assign(col, res):
        mapped = out[group_col].map(res)
        if mapped.isna().any():  # all-empty group → None (keep dtype otherwise)
            mapped = mapped.astype(object).where(mapped.notna(), None)
        out[col] = mapped

    for col, rule in rules.items():
        name, param = rule if isinstance(rule, tuple) else (rule, None)
        if name == "SurviveAs":
            deferred.append((col, param))
            continue
        extra = [param] if name == "RemoveDuplicate" else []
        s = b[[group_col, col, *extra]].copy()
        nonnull = s[_present(s[col])]
        g2 = nonnull.groupby(group_col, sort=True)[col]
        if name in ("Largest", "MostRecent"):
            res = g2.max()
        elif name in ("Smallest", "MostAncient"):
            res = g2.min()
        elif name in ("Longest", "Shortest"):
            asc = name == "Shortest"
            t = nonnull.assign(__len=nonnull[col].astype(str).str.len())
            t = t.sort_values([col], kind="mergesort").sort_values(
                ["__len"], ascending=asc, kind="mergesort")
            res = t.groupby(group_col, sort=True)[col].first()
        elif name == "MostCommon":
            counts = nonnull.groupby([group_col, col], sort=True).size().reset_index(name="__n")
            counts = counts.sort_values([col], kind="mergesort").sort_values(
                ["__n"], ascending=False, kind="mergesort")
            res = counts.groupby(group_col, sort=True)[col].first()
        elif name == "Expression":
            pred = expression_predicate(param)
            hits = nonnull[nonnull[col].map(lambda x: bool(pred(x)))]
            res = hits.groupby(group_col, sort=True)[col].min()
        elif name == "RemoveDuplicate":
            t = nonnull.sort_values(param, kind="mergesort")
            res = t.groupby(group_col, sort=True)[col].first()
        else:  # pragma: no cover — guarded by caller
            raise KeyError(name)
        _assign(col, res)
    for col, ref in deferred:
        # rows whose ref value equals the group's survived ref value →
        # smallest col value among them (SurviveAsAction.java:canHandle)
        s = b[[group_col, col, ref]].copy()
        winners = out[[group_col, ref]].rename(columns={ref: "__win"})
        m = s.merge(winners, on=group_col)
        m = m[m[ref] == m["__win"]]
        m = m[_present(m[col])]
        _assign(col, m.groupby(group_col, sort=True)[col].min())
    return out[[group_col, *rules]]


def golden_records(ds, group_col: str, rules: dict[str, str | tuple],
                   n_buckets: int = 64) -> pd.DataFrame:
    """One golden record per group. ``rules``: column → rule name (or
    (name, param) for MatchRegex / ExcludeValues / FillEmpty).

    When every rule is one of the vectorizable named rules, groups are
    hash-bucketed (``bucket_exchange``) and each bucket resolves ALL its
    groups with pandas groupby aggregations — one Python call per bucket
    instead of one per group (the per-tiny-group callback is the classic
    map_groups scaling trap). Parameterized rules (MatchRegex,
    ExcludeValues, FillEmpty) resolve each group of the bucket in turn."""
    def _vec(r):
        if isinstance(r, tuple):
            return r[0] in ("Expression", "RemoveDuplicate", "SurviveAs")
        return r in _VECTOR_RULES

    if all(_vec(r) for r in rules.values()):
        def resolve(b: pd.DataFrame) -> pd.DataFrame:
            return _resolve_bucket_vectorized(b, group_col, rules)
    else:
        def resolve(b: pd.DataFrame) -> pd.DataFrame:
            return pd.concat([_resolve_group(g, group_col, rules)
                              for _, g in b.groupby(group_col, sort=True, dropna=False)],
                             ignore_index=True)

    return bucket_exchange(ds, group_col, resolve, n_buckets)
