"""The one size gate (functions/gate.py): its decision rule and record,
lints that keep collect-vs-shuffle limits and half-away rounding in one
place each, and forced-shuffle parity for query branches no fixture
size reaches."""

import ast
import os
import re

import pandas as pd
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "data_quality_ray")
SF = "/root/testdata/sf0.01"

_LIMIT_NAME = re.compile(r"(COLLECT|BROADCAST|UNION_FIND)_MAX")


def test_fits_decides_and_records():
    from data_quality_ray.functions import gate

    gate.RECORD.clear()
    bound = gate.LIMITS["verify_pairs"]
    assert gate.fits("t.at", bound, "verify_pairs")
    assert not gate.fits("t.above", bound + 1, "verify_pairs")
    assert list(gate.RECORD) == [("t.at", bound, bound, "collect"),
                                 ("t.above", bound + 1, bound, "shuffle")]
    with pytest.raises(KeyError):
        gate.fits("t.unknown", 1, "no_such_limit")


def _gate_bypasses(path: str) -> list[tuple[int, str]]:
    """Module-level ``*_COLLECT_MAX*`` / ``*_BROADCAST_MAX*`` /
    ``*_UNION_FIND_MAX*`` names, and ``.count()`` compared against a
    nonzero integer literal (``== 0`` is an emptiness test, not a size
    choice)."""
    tree = ast.parse(open(path).read())
    hits = []
    for stmt in tree.body:
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, ast.AnnAssign)
                   else [])
        for t in targets:
            for n in ast.walk(t):
                if isinstance(n, ast.Name) and _LIMIT_NAME.search(n.id):
                    hits.append((stmt.lineno, n.id))

    def is_count(n):
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "count" and not n.args and not n.keywords)

    def is_int(n):
        return (isinstance(n, ast.Constant) and type(n.value) is int
                and n.value != 0)

    for n in ast.walk(tree):
        if isinstance(n, ast.Compare):
            sides = [n.left, *n.comparators]
            if any(map(is_count, sides)) and any(map(is_int, sides)):
                hits.append((n.lineno, ".count() vs literal"))
    return hits


def _package_modules():
    for d, _, files in os.walk(PKG):
        for f in sorted(files):
            if f.endswith(".py"):
                yield os.path.join(d, f)


def test_lint_catches_a_private_gate(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("PAIRS_COLLECT_MAX = 10\n"
                 "LABEL_BROADCAST_MAX_ROWS: int = 5\n"
                 "def f(ds):\n"
                 "    if ds.count() == 0:\n"
                 "        return None\n"
                 "    return ds.count() <= 2_000_000\n")
    assert sorted(w for _, w in _gate_bypasses(str(p))) == sorted(
        [".count() vs literal", "LABEL_BROADCAST_MAX_ROWS",
         "PAIRS_COLLECT_MAX"])


def test_no_size_gate_outside_the_gate_module():
    """Every measured-size collect-vs-shuffle choice calls gate.fits."""
    gate = os.path.join(PKG, "functions", "gate.py")
    offenders = {os.path.relpath(p, ROOT): hits
                 for p in _package_modules() if p != gate
                 for hits in [_gate_bypasses(p)] if hits}
    assert not offenders, offenders


def test_half_away_rounding_has_one_home():
    """6-dp half-away rounding goes through rules/heuristics.round_half_away."""
    offenders = [os.path.relpath(p, ROOT) for p in _package_modules()
                 if "1e6 + 0.5" in open(p).read()]
    assert not offenders, offenders


@pytest.mark.parametrize("query, rows", [
    ("fuzzy_decontaminate_docs", 482),  # hash_join flag route
    ("matching_pairs_supplier", 4950),  # bucketed blocked self-join
    ("tpch_q3_shipping", 10),           # keys-only semi hash_join
])
def test_forced_shuffle_equals_collect(ray_session, force_path, query, rows):
    from data_quality_ray.pipelines import queries as Q

    fn = getattr(Q, query)
    force_path("collect")
    want = fn(SF)
    force_path("shuffle")
    got = fn(SF)
    assert len(want) == rows
    pd.testing.assert_frame_equal(got, want)
