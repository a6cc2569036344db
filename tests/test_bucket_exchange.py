"""bucket_exchange: every key's rows meet in exactly one callback, at most
n_buckets callbacks run, the callback never sees the bucket tag — and no
module outside functions/exchange.py hand-rolls the exchange again."""

import ast
import os
import uuid

import numpy as np
import pandas as pd

from data_quality_ray.functions.exchange import bucket_exchange

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "data_quality_ray")


def _calls(df: pd.DataFrame, keys, n_buckets: int) -> pd.DataFrame:
    """Run the exchange with a callback that stamps each of its input
    rows with a per-call id and whether it saw the bucket tag."""
    import ray.data as rd

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        out = g.copy()
        out["call"] = uuid.uuid4().hex
        out["saw_tag"] = "__bucket" in g.columns
        return out

    ds = rd.from_pandas(df).repartition(4)
    return bucket_exchange(ds, keys, fn, n_buckets).to_pandas()


def _one_call_per_key(out: pd.DataFrame, keys) -> bool:
    per_key = out.groupby(keys, dropna=False)["call"].nunique()
    return bool((per_key == 1).all())


def test_single_key_rows_meet_in_one_call(ray_session):
    df = pd.DataFrame({"k": np.arange(300) % 37, "v": np.arange(300)})
    out = _calls(df, "k", n_buckets=8)
    assert sorted(out["v"]) == list(range(300))
    assert _one_call_per_key(out, ["k"])
    assert out["call"].nunique() <= 8
    assert not out["saw_tag"].any()
    assert "__bucket" not in out.columns


def test_two_column_key_rows_meet_in_one_call(ray_session):
    df = pd.DataFrame({"a": np.arange(400) % 5, "b": np.arange(400) % 7,
                       "v": np.arange(400)})
    out = _calls(df, ["a", "b"], n_buckets=16)
    assert sorted(out["v"]) == list(range(400))
    assert _one_call_per_key(out, ["a", "b"])
    assert out["call"].nunique() <= 16
    assert not out["saw_tag"].any()


def test_null_keys_share_one_call(ray_session):
    keys = ["x", None, "y", None, "z", "x", None] * 20
    df = pd.DataFrame({"k": keys, "v": np.arange(len(keys))})
    out = _calls(df, ["k"], n_buckets=4)
    assert sorted(out["v"]) == list(range(len(keys)))
    assert out.loc[out["k"].isna(), "call"].nunique() == 1
    assert _one_call_per_key(out, ["k"])
    assert out["call"].nunique() <= 4


def test_callbacks_bounded_by_bucket_count(ray_session):
    df = pd.DataFrame({"k": np.arange(1000), "v": np.arange(1000)})
    out = _calls(df, "k", n_buckets=3)
    assert 1 <= out["call"].nunique() <= 3
    assert len(out) == 1000


def test_swapped_two_column_keys_are_distinct(ray_session):
    """(a, b) and (b, a) hash apart: an XOR of per-column hashes would
    put every swapped pair in one bucket."""
    i = np.arange(1, 201)
    df = pd.DataFrame({"a": np.concatenate([i, i + 1000]),
                       "b": np.concatenate([i + 1000, i])})
    df["v"] = np.arange(len(df))
    out = _calls(df, ["a", "b"], n_buckets=64)
    call = dict(zip(zip(out["a"], out["b"]), out["call"]))
    together = sum(call[(x, x + 1000)] == call[(x + 1000, x)] for x in i)
    assert together < len(i) // 4


def _hand_rolled(path: str) -> list[tuple[int, str]]:
    hits = []
    for n in ast.walk(ast.parse(open(path).read())):
        if isinstance(n, ast.Constant) and n.value == "__bucket":
            hits.append((n.lineno, '"__bucket"'))
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
              and n.func.attr == "groupby" and n.args
              and isinstance(n.args[0], ast.Constant) and n.args[0].value == "__pb"):
            hits.append((n.lineno, 'groupby("__pb")'))
        elif ((isinstance(n, ast.Attribute) and n.attr == "hash_pandas_object")
              or (isinstance(n, ast.Name) and n.id == "hash_pandas_object")
              or (isinstance(n, ast.alias) and n.name == "hash_pandas_object")):
            hits.append((n.lineno, "hash_pandas_object"))
    return hits


def _package_modules():
    for d, _, files in os.walk(PKG):
        for f in sorted(files):
            if f.endswith(".py"):
                yield os.path.join(d, f)


def test_lint_catches_a_hand_rolled_exchange(tmp_path):
    p = tmp_path / "m.py"
    p.write_text('import pandas.util as pdu\n'
                 'def f(b):\n'
                 '    b["__bucket"] = pdu.hash_pandas_object(b["k"]) % 8\n'
                 '    return b.groupby("__pb")\n')
    assert sorted(w for _, w in _hand_rolled(str(p))) == sorted(
        ['"__bucket"', "hash_pandas_object", 'groupby("__pb")'])


def test_no_hand_rolled_exchange_outside_the_primitive():
    """Keyed merges go through functions/exchange.bucket_exchange."""
    primitive = os.path.join(PKG, "functions", "exchange.py")
    offenders = {os.path.relpath(p, ROOT): hits
                 for p in _package_modules() if p != primitive
                 for hits in [_hand_rolled(p)] if hits}
    assert not offenders, offenders

