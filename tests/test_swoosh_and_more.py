"""T-Swoosh match-merge, duplicate generator, term validity, io helpers."""

import random

import numpy as np
import pandas as pd
import pytest


def test_swoosh_group_merges_transitively():
    from data_quality_ray.dedup.swoosh import swoosh_group

    g = pd.DataFrame({
        "id": ["r1", "r2", "r3", "r4"],
        "name": ["jonathan smith", "jonathan smyth", "jonathan smithe", "maria garcia"],
        "bk": ["j"] * 4,
    })
    out = swoosh_group(g, "id", ["name"], threshold=0.92)
    clusters = {tuple(m): r for m, r in zip(out["members"], out.to_dict("records"))}
    assert ("r1", "r2", "r3") in clusters
    merged = clusters[("r1", "r2", "r3")]
    assert merged["n"] == 3 and merged["gid"] == "r1"
    # Longest survivorship: the merged golden name is the longest variant
    assert merged["name"] == "jonathan smithe"
    assert ("r4",) in clusters


def test_swoosh_deterministic():
    from data_quality_ray.dedup.swoosh import swoosh_group

    rng = random.Random(3)
    names = [f"record {i} alpha" for i in range(30)] + ["record 7 alphz", "record 7 alpho"]
    g = pd.DataFrame({"id": [f"x{i:03d}" for i in range(len(names))],
                      "name": names, "bk": ["b"] * len(names)})
    shuffled = g.sample(frac=1, random_state=9)
    a = swoosh_group(g, "id", ["name"], threshold=0.95)
    b = swoosh_group(shuffled, "id", ["name"], threshold=0.95)
    assert sorted(map(tuple, a["members"])) == sorted(map(tuple, b["members"]))


def test_swoosh_distributed(ray_session):
    import ray.data as rd

    from data_quality_ray.dedup.swoosh import swoosh_match_merge

    rows = [
        {"id": "a1", "name": "acme corporation", "bk": "a"},
        {"id": "a2", "name": "acme corpration", "bk": "a"},
        {"id": "b1", "name": "zenith industries", "bk": "z"},
    ]
    out = swoosh_match_merge(rd.from_items(rows), "id", ["name"], "bk",
                             threshold=0.9).to_pandas()
    assert len(out) == 2
    acme = out[out.gid == "a1"].iloc[0]
    assert acme["n"] == 2 and acme["name"] == "acme corporation"


def test_multipass_remap():
    from data_quality_ray.dedup.swoosh import multipass_remap

    pass1 = pd.DataFrame({"name": ["x", "y", "z"], "gid": ["g1", "g2", "g3"],
                          "members": [["g1"], ["g2"], ["g3"]], "n": [1, 1, 1]})
    pass2 = pd.DataFrame({"name": ["x"], "gid": ["g1"], "members": [["g1", "g2"]], "n": [2]})
    out = multipass_remap(pass1, pass2)
    assert out["gid"].tolist() == ["g1", "g1", "g3"]


def test_duplicate_generator_deterministic():
    from data_quality_ray.sampling.duplicating import generate_duplicates, modify_field

    recs = [{"id": i, "name": f"customer number {i}", "city": "Springfield"} for i in range(20)]
    a = generate_duplicates(recs, 2, ["name", "city"], seed=5)
    b = generate_duplicates(recs, 2, ["name", "city"], seed=5)
    assert a == b and len(a) == 40
    c = generate_duplicates(recs, 2, ["name", "city"], seed=6)
    assert a != c
    rng = random.Random(1)
    assert modify_field("abc", "SET_TO_BLANK", rng) == ""
    assert modify_field("abc", "SET_TO_NULL", rng) is None
    out = modify_field("abcdef", "SWAP_CHARS", random.Random(2))
    assert sorted(out) == list("abcdef") and out != "abcdef"
    assert len(modify_field("abcdef", "DELETE_CHAR", random.Random(3))) == 5
    assert len(modify_field("abcdef", "DUPLICATE_CHAR", random.Random(4))) == 7


def test_soundex_preserving_replace():
    from data_quality_ray.functions.matchers import soundex
    from data_quality_ray.sampling.duplicating import modify_field

    for seed in range(10):
        out = modify_field("robert", "SOUNDEX_REPLACE", random.Random(seed))
        assert soundex(out) == soundex("robert")


def test_term_validity(ray_session):
    import ray.data as rd

    from data_quality_ray.functions.terms import is_valid_term, term_validity

    assert is_valid_term("Dog") and not is_valid_term("qzxv")
    out = term_validity(
        rd.from_items([{"text": "a dog in the park"}, {"text": "qzxv blorp"}]),
        "text",
    ).to_pandas().sort_values("text").reset_index(drop=True)
    assert out.loc[0, "term_valid_ratio"] == 1.0
    assert out.loc[1, "term_valid_ratio"] == 0.0


def test_read_any_and_read_images(ray_session, f1_dir, tmp_path):
    from data_quality_ray.sources.io import read_any, read_images

    assert read_images(f1_dir, columns=["image_id"]).count() == 600
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,x\n2,y\n")
    assert read_any(str(p)).count() == 2
    with pytest.raises((NotImplementedError, ValueError)):
        read_any("/nonexistent.lance")


def test_dedup_pathological_skew(ray_session):
    """Every row shares one key (the worst hot-key case): the dedup
    returns exactly one survivor, no failure."""
    import ray.data as rd

    from data_quality_ray.dedup.exact import dedup_by_key

    rows = [{"id": f"r{i:05d}", "k": 7} for i in range(20_000)]
    out = dedup_by_key(rd.from_items(rows), key="k", order_col="id").to_pandas()
    assert len(out) == 1 and out["id"].iloc[0] == "r00000"


def test_grouped_aggregate_modes(ray_session):
    import ray.data as rd

    from data_quality_ray.profiling.groupagg import grouped_aggregate

    ds = rd.read_parquet("/root/testdata/sf0.001/lineitem.parquet",
                         columns=["l_returnflag", "l_quantity"])
    drv = grouped_aggregate(ds, ["l_returnflag"],
                            {"n": ("", "count"), "s": ("l_quantity", "sum")})
    shf = grouped_aggregate(ds, ["l_returnflag"],
                            {"n": ("", "count"), "s": ("l_quantity", "sum")},
                            final="shuffle").to_pandas()
    a = drv.sort_values("l_returnflag").reset_index(drop=True)
    b = shf.sort_values("l_returnflag").reset_index(drop=True)
    assert a["n"].tolist() == b["n"].tolist()
    assert np.allclose(a["s"], b["s"])
