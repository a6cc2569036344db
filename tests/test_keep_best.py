"""keep_best_by (dedup/exact.py): max-score/min-id survivorship vs a
pandas ground truth on BOTH the driver-broadcast and forced-shuffle
join paths, including rounded-score ties."""

import numpy as np
import pandas as pd
import pytest

from data_quality_ray.dedup.exact import keep_best_by


def _truth(df):
    d = df.copy()
    d["s"] = d["s"].round(6)
    d = d.sort_values(["k", "s", "i"], ascending=[True, False, True],
                      kind="mergesort")
    return d.groupby("k", sort=True).head(1)[["k", "s", "i"]] \
        .reset_index(drop=True)


@pytest.fixture()
def df():
    rng = np.random.default_rng(31)
    n = 3000
    d = pd.DataFrame({"k": rng.integers(0, 300, n),
                      "s": rng.normal(10, 2, n).round(4),
                      "i": [f"id{j:05d}" for j in range(n)]})
    # exact rounded-score ties within a key: min-id tie-break must bind
    d.loc[:20, "k"] = 7
    d.loc[:20, "s"] = 99.1234565  # rounds identically for all 21 rows
    return d


def test_driver_path(ray_session, df):
    import ray.data as rd

    ds = rd.from_pandas(df.sample(frac=1, random_state=5)).repartition(6)
    got = keep_best_by(ds, "k", "s", "i")
    pd.testing.assert_frame_equal(got, _truth(df), check_dtype=False)


def test_shuffle_join_path(ray_session, df, force_path):
    import ray.data as rd

    force_path("shuffle")
    ds = rd.from_pandas(df).repartition(6)
    got = keep_best_by(ds, "k", "s", "i")
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    got = (got[["k", "s", "i"]].sort_values("k").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, _truth(df), check_dtype=False)
