"""Lexical diversity / novelty metrics (profiling/lexical.py)."""

import numpy as np
import pandas as pd
import pytest

from data_quality_ray.profiling.lexical import ngram_novelty, ttr_by_group


def _ds(df, n_blocks=3):
    import ray.data as rd

    return rd.from_pandas([df.iloc[i::n_blocks].reset_index(drop=True)
                           for i in range(n_blocks)])


def test_ttr_exact(ray_session):
    df = pd.DataFrame({
        "g": ["a", "a", "b"],
        "t": ["x y x", "y z", "w w w w"],
    })
    out = ttr_by_group(_ds(df, 2), "g", "t").set_index("g")
    # a: tokens x,y,x,y,z → 5 tokens, 3 distinct (x:2 y:2 z:1), 1 hapax
    assert out.loc["a", "n_tokens"] == 5
    assert out.loc["a", "n_distinct"] == 3
    assert out.loc["a", "n_hapax"] == 1
    assert out.loc["a", "ttr"] == pytest.approx(3 / 5)
    assert out.loc["a", "hapax_ratio"] == pytest.approx(1 / 3)
    # b: 4 tokens, 1 distinct, 0 hapax
    assert out.loc["b", "ttr"] == pytest.approx(0.25)
    assert out.loc["b", "hapax_ratio"] == 0.0


def test_ttr_empty_and_null_text(ray_session):
    df = pd.DataFrame({"g": ["a", "a", "b"], "t": ["x", "", None]})
    out = ttr_by_group(_ds(df, 1), "g", "t")
    # b contributed zero tokens → absent
    assert out["g"].tolist() == ["a"]


def test_ttr_shuffle_path_equals_driver_path(ray_session, force_path):
    """Forced shuffle: the per-group totals come from a second
    distributed fold, not a driver collect of the vocabulary, and equal
    the driver merge exactly."""
    rng = np.random.default_rng(3)
    words = np.array(["w%d" % i for i in range(40)], dtype=object)
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c", None], 200),
        "t": [" ".join(rng.choice(words, rng.integers(0, 9))) for _ in range(200)],
    })
    driver = ttr_by_group(_ds(df, 4), "g", "t")
    force_path("shuffle")
    shuffled = ttr_by_group(_ds(df, 4), "g", "t")
    assert len(driver) == 3
    pd.testing.assert_frame_equal(shuffled, driver)


def test_ngram_novelty_first_seen(ray_session):
    df = pd.DataFrame({
        "id": np.array([1, 2, 3], dtype=np.int64),
        "t": ["a b c d",        # grams: abc, bcd → both novel
              "a b c x",        # grams: abc (seen), bcx (novel)
              "b c d e f"],     # grams: bcd (seen), cde, def (novel)
    })
    out = ngram_novelty(_ds(df, 2), "id", "t", n=3).set_index("id")
    assert out.loc[1, "n_distinct"] == 2 and out.loc[1, "n_novel"] == 2
    assert out.loc[2, "n_distinct"] == 2 and out.loc[2, "n_novel"] == 1
    assert out.loc[3, "n_distinct"] == 3 and out.loc[3, "n_novel"] == 2
    assert out.loc[3, "novelty"] == pytest.approx(2 / 3)


def test_ngram_novelty_repeated_gram_in_doc_counts_once(ray_session):
    df = pd.DataFrame({"id": np.array([7], dtype=np.int64),
                       "t": ["a b a b a"]})  # grams: aba, bab, aba
    out = ngram_novelty(_ds(df, 1), "id", "t", n=3)
    assert out["n_distinct"].iloc[0] == 2  # distinct per doc


def test_ngram_novelty_short_docs_omitted(ray_session):
    df = pd.DataFrame({"id": np.array([1, 2], dtype=np.int64),
                       "t": ["a b", "a b c"]})
    out = ngram_novelty(_ds(df, 1), "id", "t", n=3)
    assert out["id"].tolist() == [2]


def test_source_overlap_exact(ray_session):
    from data_quality_ray.profiling.lexical import source_overlap

    df = pd.DataFrame({
        "g": ["a", "b", "c"],
        "t": ["x y z w",      # a: grams {xyz, yzw}
              "x y z q",      # b: grams {xyz, yzq}
              "p q r"],       # c: grams {pqr} — no overlap
    })
    out = source_overlap(_ds(df, 2), "g", "t", n=3)
    assert out.to_dict("records") == [
        {"source_a": "a", "source_b": "b", "n_shared": 1,
         "jaccard": 1 / 3}]


def test_source_overlap_dedups_within_source(ray_session):
    from data_quality_ray.profiling.lexical import source_overlap

    # the shared gram appears in TWO docs of source a — still counts once
    df = pd.DataFrame({
        "g": ["a", "a", "b"],
        "t": ["x y z", "x y z", "x y z"],
    })
    out = source_overlap(_ds(df, 1), "g", "t", n=3)
    assert out["n_shared"].tolist() == [1]
    assert out["jaccard"].tolist() == [1.0]


def test_char_entropy_exact(ray_session):
    from data_quality_ray.profiling.lexical import char_entropy

    df = pd.DataFrame({"id": np.array([1, 2, 3, 4], dtype=np.int64),
                       "t": ["aaaa", "ab", "", None]})
    out = char_entropy(_ds(df, 2), "id", "t").set_index("id")
    assert out.index.tolist() == [1, 2]  # empty/null omitted
    assert out.loc[1, "char_entropy"] == 0.0
    assert out.loc[2, "char_entropy"] == np.log(2)
    assert out.loc[2, "n_chars"] == 2


def test_source_concentration_exact(ray_session):
    from data_quality_ray.profiling.lexical import source_concentration

    df = pd.DataFrame({"s": ["a", "a", "a", "b"],
                       "w": [10, 10, 10, 30]})
    out = source_concentration(_ds(df, 2), "s", "w")
    assert out["n_sources"].iloc[0] == 2
    assert out["hhi_docs"].iloc[0] == (0.75 ** 2 + 0.25 ** 2)
    assert out["hhi_weight"].iloc[0] == 0.5  # 30/60 each
    assert out["top_share_docs"].iloc[0] == 0.75
