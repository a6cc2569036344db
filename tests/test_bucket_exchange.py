"""bucket_exchange: every key's rows meet in exactly one callback, at most
n_buckets callbacks run, the callback never sees the bucket tag or an
empty frame, degenerate inputs pass through, each exchange records its
skew — and no module outside functions/exchange.py hand-rolls the
exchange again."""

import ast
import os
import uuid

import numpy as np
import pandas as pd

from data_quality_ray.functions import exchange
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


def test_runs_without_ray_data_groupby(ray_session, monkeypatch):
    """The exchange is plain Ray tasks: no Ray Data groupby/sort shuffle."""
    import ray.data as rd

    def no_groupby(*a, **k):
        raise AssertionError("bucket_exchange called Dataset.groupby")

    monkeypatch.setattr(rd.Dataset, "groupby", no_groupby)
    monkeypatch.setattr(rd.Dataset, "sort", no_groupby)
    df = pd.DataFrame({"k": np.arange(200) % 11, "v": np.arange(200)})
    out = _calls(df, "k", n_buckets=8)
    assert sorted(out["v"]) == list(range(200))
    assert _one_call_per_key(out, ["k"])


def test_empty_inputs(ray_session):
    """An empty Dataset gives an empty result without calling fn; a
    0-row, 0-column block among real ones is skipped."""
    import ray.data as rd

    def fn(g):
        raise AssertionError("fn called on an empty input")

    empty = rd.from_pandas(pd.DataFrame({"k": pd.Series([], dtype="int64")}))
    assert bucket_exchange(empty, "k", fn, 8).count() == 0
    filtered = rd.range(10).filter(expr="id > 100")
    assert bucket_exchange(filtered, "id", fn, 8).count() == 0

    def blank_first(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame() if b["k"].iloc[0] == 0 else b

    ds = rd.from_pandas([pd.DataFrame({"k": [0, 1], "v": [1.0, 2.0]}),
                         pd.DataFrame({"k": [2, 3], "v": [3.0, 4.0]})])
    out = bucket_exchange(ds.map_batches(blank_first, batch_format="pandas"),
                          "k", lambda g: g, 8).to_pandas()
    assert out.sort_values("k").to_dict("list") == {"k": [2, 3], "v": [3.0, 4.0]}


def test_fn_never_sees_an_empty_frame(ray_session):
    """Three keys, up to 64 buckets: most buckets are empty and never
    reach fn."""
    import ray.data as rd

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            raise AssertionError("fn called with an empty frame")
        return g.assign(call=uuid.uuid4().hex)

    df = pd.DataFrame({"k": [7, 8, 9] * 20, "v": np.arange(60)})
    out = bucket_exchange(rd.from_pandas(df).repartition(4), "k", fn, 64).to_pandas()
    assert 1 <= out["call"].nunique() <= 3
    assert sorted(out["v"]) == list(range(60))


def test_bucket_count_follows_the_session(ray_session):
    """At most min(n_buckets, session_block_count(input bytes)) calls:
    two per session CPU on small inputs, whatever the caller asked for."""
    import ray.data as rd

    from data_quality_ray.sources.io import session_block_count

    df = pd.DataFrame({"k": np.arange(2000), "v": np.arange(2000)})
    ds = rd.from_pandas(df).repartition(4).materialize()
    bound = min(64, session_block_count(ds.size_bytes()))
    assert bound < 64  # the test session has 4 CPUs
    out = _calls(df, "k", n_buckets=64)
    assert 1 <= out["call"].nunique() <= bound
    assert exchange.RECORD[-1][1] == bound


def test_null_and_float_blocks_keep_float_dtype(ray_session):
    """A column all-null in one block and float in another comes out
    float64, as it did through Ray Data's sort shuffle."""
    import pyarrow as pa
    import ray.data as rd

    ds = rd.from_arrow([
        pa.table({"k": [1, 2, 3], "x": pa.array([None] * 3, type=pa.null())}),
        pa.table({"k": [1, 2, 3], "x": [1.5, 2.5, 3.5]}),
    ])

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        return g.assign(seen=str(g["x"].dtype))

    out = bucket_exchange(ds, "k", fn, 8).to_pandas()
    assert out.dtypes.astype(str).to_dict() == {"k": "int64", "x": "float64", "seen": "object"}
    assert set(out["seen"]) == {"float64"}
    assert sorted(out["x"].dropna()) == [1.5, 2.5, 3.5]


def test_int_key_with_nulls_in_some_blocks_meets_once(ray_session):
    """An Arrow int key column with nulls converts to float64 only in the
    blocks that hold a null; every key still meets in exactly one call."""
    import pyarrow as pa
    import ray.data as rd

    keys = list(range(40))
    ds = rd.from_arrow([
        pa.table({"k": pa.array(keys + [None], type=pa.int64()), "v": range(41)}),
        pa.table({"k": pa.array(keys, type=pa.int64()), "v": range(41, 81)}),
    ])

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        return g.assign(call=uuid.uuid4().hex)

    out = bucket_exchange(ds, "k", fn, 8).to_pandas()
    assert sorted(out["v"]) == list(range(81))
    assert _one_call_per_key(out, ["k"])


def test_null_key_kinds_meet_once(ray_session):
    """A key column all-null in one block (object None in pandas) and
    float with NaN in another: every null key meets in one call, as does
    every other key."""
    import pyarrow as pa
    import ray.data as rd

    ds = rd.from_arrow([
        pa.table({"k": pa.array([None] * 3, type=pa.null()), "v": [0, 1, 2]}),
        pa.table({"k": [1.5, None, 3.0], "v": [3, 4, 5]}),
        pa.table({"k": pa.array([None, None], type=pa.null()), "v": [6, 7]}),
    ])

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        return g.assign(call=uuid.uuid4().hex)

    out = bucket_exchange(ds, "k", fn, 8).to_pandas()
    assert sorted(out["v"]) == list(range(8))
    assert out.loc[out["k"].isna(), "call"].nunique() == 1
    assert _one_call_per_key(out, ["k"])


def test_null_kinds_hash_alike():
    from data_quality_ray.functions.exchange import _key_hash

    frames = [pd.DataFrame({"k": pd.Series([None], dtype=object)}),
              pd.DataFrame({"k": [np.nan]}), pd.DataFrame({"k": pd.Series([pd.NaT])}),
              pd.DataFrame({"k": pd.array([pd.NA], dtype="Int64")})]
    assert len({int(_key_hash(f, ["k"])[0]) for f in frames}) == 1


def test_skew_record(ray_session):
    """Each exchange records (keys, buckets, rows in, max and median rows
    per bucket); one key puts every row in one bucket."""
    df = pd.DataFrame({"k": [5] * 300, "v": np.arange(300)})
    _calls(df, "k", n_buckets=8)
    keys, n, rows_in, max_rows, median_rows = exchange.RECORD[-1]
    assert (keys, rows_in, max_rows) == (("k",), 300, 300)
    assert 1 <= n <= 8 and median_rows <= max_rows
    _calls(pd.DataFrame({"a": np.arange(400) % 9, "b": 1, "v": np.arange(400)}), ["a", "b"], 4)
    keys, n, rows_in, max_rows, _ = exchange.RECORD[-1]
    assert keys == ("a", "b") and rows_in == 400 and max_rows < 400


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

