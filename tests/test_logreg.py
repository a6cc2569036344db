"""Distributed quantized logistic regression (similarity/logreg.py):
serial-reference parity, partition invariance, learning signal, and the
exact per-batch partials that make its sums independent of block layout."""

import math

import numpy as np
import pandas as pd

from data_quality_ray.rules.heuristics import round_half_away
from data_quality_ray.similarity.logreg import ROUND_TO, exact_partials, logreg_fit


def _ds(df, blocks=5):
    import ray.data as rd

    return rd.from_pandas(df).repartition(blocks)


def _serial(df, x_cols, rounds, lr):
    x = df[x_cols].to_numpy(np.float64)
    y = df["y"].to_numpy(np.float64)
    xa = np.concatenate([np.ones((len(x), 1)), x], axis=1)
    w = np.zeros(xa.shape[1])
    for _ in range(rounds):
        p = 1.0 / (1.0 + np.exp(-(xa @ w)))
        w = round_half_away(w - lr * (xa.T @ (p - y)) / len(x), ROUND_TO)
        loss = round_half_away(np.float64(
            -(y * np.log(np.maximum(p, 1e-300))
              + (1 - y) * np.log(np.maximum(1 - p, 1e-300))).mean()), ROUND_TO)
    return w, loss


def test_logreg_matches_serial_and_partitioning(ray_session):
    rng = np.random.default_rng(13)
    n = 4000
    x1 = rng.normal(0, 1, n)
    x2 = rng.normal(0, 1, n)
    y = (2 * x1 - x2 + rng.normal(0, 0.5, n) > 0).astype(float)
    df = pd.DataFrame({"x1": x1, "x2": x2, "y": y})
    got = logreg_fit(_ds(df, blocks=7), ["x1", "x2"], "y", rounds=6, lr=1.0)
    w_ref, loss_ref = _serial(df, ["x1", "x2"], rounds=6, lr=1.0)
    # quantized rounds absorb partial-sum order: exact equality expected
    assert np.array_equal(got["w"], w_ref)
    assert got["loss"] == loss_ref and got["n"] == n
    got1 = logreg_fit(_ds(df, blocks=1), ["x1", "x2"], "y", rounds=6, lr=1.0)
    assert np.array_equal(got1["w"], got["w"])
    # learned the right signs and actually classifies
    assert got["w"][1] > 0.5 and got["w"][2] < -0.2
    assert got["loss"] < 0.69  # better than chance


def test_logreg_excludes_null_rows(ray_session):
    df = pd.DataFrame({"x1": [0.0, 1.0, np.nan, 2.0],
                       "y": [0.0, 1.0, 1.0, np.nan]})
    got = logreg_fit(_ds(df, blocks=2), ["x1"], "y", rounds=2)
    assert got["n"] == 2


def test_exact_partials_merge_to_the_exact_sum_of_any_split():
    """``math.fsum`` over the partials of the pieces of any split equals
    ``math.fsum`` of the whole array: the sum no longer depends on how
    the rows are cut into blocks or in which order the blocks arrive."""
    rng = np.random.default_rng(29)
    for trial in range(60):
        n = int(rng.integers(1, 2000))
        x = rng.normal(0, 1, n) * 10.0 ** rng.integers(-20, 20, n)
        if trial % 4 == 0:  # cancellation, subnormals, exact zeros
            x = np.r_[x, 1e300, -1e300, 5e-324, 0.0, -2.5e-310]
        want = math.fsum(x.tolist())
        assert math.fsum(exact_partials(x)) == want
        cuts = np.sort(rng.integers(0, len(x), 5))
        pieces = np.split(x, cuts)
        rng.shuffle(pieces)
        assert math.fsum(p for piece in pieces for p in exact_partials(piece)) == want
    assert exact_partials(np.zeros(3)) == []
