"""Bigram PMI (functions/collocations.py) vs a single-node ground truth,
on both merge paths; doc boundaries must never produce cross-doc
bigrams."""

import numpy as np
import pandas as pd
import pytest

from data_quality_ray.functions.collocations import bigram_pmi


def _truth(texts, min_count=2, k=20):
    uni, bi = {}, {}
    t_uni = t_bi = 0
    for t in texts:
        if t is None:
            continue
        w = t.split()
        for x in w:
            uni[x] = uni.get(x, 0) + 1
        t_uni += len(w)
        for a, b in zip(w, w[1:]):
            bi[(a, b)] = bi.get((a, b), 0) + 1
        t_bi += max(0, len(w) - 1)
    rows = [(a, b, n,
             round(float(np.log((n / t_bi) /
                                ((uni[a] / t_uni) * (uni[b] / t_uni)))), 6))
            for (a, b), n in bi.items() if n >= min_count]
    rows.sort(key=lambda r: (-r[3], r[0], r[1]))
    return pd.DataFrame(rows[:k], columns=["a", "b", "n", "pmi"])


@pytest.fixture()
def texts():
    rng = np.random.default_rng(13)
    vocab = [f"w{i}" for i in range(30)]
    out = []
    for _ in range(300):
        out.append(" ".join(rng.choice(vocab, rng.integers(1, 12))))
    out += ["new york new york", "  spaced   out  tokens ", None, ""]
    return out


def test_matches_ground_truth(ray_session, texts):
    import ray.data as rd

    ds = rd.from_pandas(pd.DataFrame({"text": texts})).repartition(5)
    got = bigram_pmi(ds, "text", min_count=2, k=20)
    pd.testing.assert_frame_equal(got, _truth(texts), check_dtype=False)


def test_shuffle_merge_parity(ray_session, texts, force_path):
    import ray.data as rd

    force_path("shuffle")
    ds = rd.from_pandas(pd.DataFrame({"text": texts})).repartition(5)
    got = bigram_pmi(ds, "text", min_count=2, k=20)
    pd.testing.assert_frame_equal(got, _truth(texts), check_dtype=False)
