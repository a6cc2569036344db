"""Co-purchase lift (functions/market.py) vs a brute-force pandas ground
truth, on BOTH grouped_aggregate finalization paths (driver merge and
the forced bucketed-shuffle dataset path)."""

import numpy as np
import pandas as pd
import pytest

from data_quality_ray.functions.market import copurchase_lift


def _truth(df, min_support=2, k=50):
    d = df.drop_duplicates()
    m = d.merge(d, on="g")
    m = m[m["it_x"] < m["it_y"]]
    p = (m.groupby(["it_x", "it_y"]).size().rename("n").reset_index())
    p.columns = ["a", "b", "n"]
    p = p[p["n"] >= min_support].copy()
    sup = d.groupby("it").size()
    ng = d["g"].nunique()
    p["lift"] = np.round(p["n"] * ng / (p["a"].map(sup) * p["b"].map(sup)),
                         6)
    return (p.sort_values(["lift", "a", "b"], ascending=[False, True, True])
            .head(k).reset_index(drop=True))


@pytest.fixture()
def basket_df():
    rng = np.random.default_rng(17)
    rows = []
    for g in range(400):
        for it in rng.choice(60, size=rng.integers(1, 7), replace=False):
            rows.append((g, int(it)))
    # duplicate (group, item) rows: distinctness must be enforced
    rows += rows[:50]
    return pd.DataFrame(rows, columns=["g", "it"])


def test_matches_bruteforce(ray_session, basket_df):
    import ray.data as rd

    ds = rd.from_pandas(basket_df.sample(frac=1, random_state=3)).repartition(6)
    got = copurchase_lift(ds, "g", "it", min_support=2, k=50, n_buckets=8)
    pd.testing.assert_frame_equal(got, _truth(basket_df), check_dtype=False)


def test_dataset_merge_path_parity(ray_session, basket_df, force_path):
    import ray.data as rd

    force_path("shuffle")
    ds = rd.from_pandas(basket_df).repartition(5)
    got = copurchase_lift(ds, "g", "it", min_support=2, k=50, n_buckets=8)
    pd.testing.assert_frame_equal(got, _truth(basket_df), check_dtype=False)
