"""Parity tests for the scale-path variants of the generic dedup ops:
the collect and shuffle candidate strategies must agree, driver
union-find and distributed min-label propagation must agree, and the
md5 hash mode must match DuckDB's md5_number_lower (the oracle contract).
"""

import numpy as np
import pandas as pd
import pytest


def _docs_df(n=400, seed=7):
    rng = np.random.RandomState(seed)
    words = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta",
             "iota", "kappa", "lam", "mu"]
    rows = []
    for i in range(n):
        base = " ".join(rng.choice(words, size=12))
        rows.append((2 * i, base))
        if rng.rand() < 0.3:  # planted near-dup: one word swapped
            toks = base.split()
            toks[rng.randint(len(toks))] = rng.choice(words)
            rows.append((2 * i + 1, " ".join(toks)))
    return pd.DataFrame(rows, columns=["doc_id", "text"])


def test_candidate_pairs_collect_equals_shuffle(ray_session, force_path):
    import ray.data as rd

    from data_quality_ray.dedup.minhash import candidate_pairs, minhash_bands

    ds = rd.from_pandas(_docs_df()).repartition(8)
    bands = minhash_bands(ds, "doc_id", "text").materialize()
    force_path("collect")
    a = candidate_pairs(bands, "doc_id")
    force_path("shuffle")
    b = candidate_pairs(bands, "doc_id")
    key = lambda df: sorted(map(tuple, df[["id_a", "id_b"]].to_numpy()))
    assert key(a) == key(b)
    assert len(a) > 0  # planted near-dups must produce candidates


def test_verify_pairs_collect_equals_shuffle(ray_session, force_path):
    """The driver-dict and bucketed-join Jaccard verification paths must
    produce identical verified pair sets and identical final clusters."""
    import ray.data as rd

    from data_quality_ray.dedup.minhash import (
        candidate_pairs, minhash_bands, minhash_dedup, verify_pairs,
    )

    df = _docs_df()
    ds = rd.from_pandas(df).repartition(8)
    bands = minhash_bands(ds, "doc_id", "text").materialize()
    pairs = candidate_pairs(bands, "doc_id")
    assert len(pairs) > 0
    c = verify_pairs(ds, pairs, "doc_id", "text", 0.7, strategy="broadcast")
    force_path("collect")
    a = verify_pairs(ds, pairs, "doc_id", "text", 0.7)
    d1 = minhash_dedup(ds, "doc_id", "text", threshold=0.7)
    force_path("shuffle")
    b = verify_pairs(ds, pairs, "doc_id", "text", 0.7)
    d2 = minhash_dedup(ds, "doc_id", "text", threshold=0.7)
    key = lambda d: sorted(map(tuple, d[["id_a", "id_b"]].to_numpy()))
    assert key(a) == key(b) == key(c)
    assert 0 < len(a) < len(pairs)  # threshold must actually prune
    assert sorted(map(tuple, d1.to_numpy())) == sorted(map(tuple, d2.to_numpy()))


def test_minhash_dataset_route_equals_pandas(ray_session, force_path):
    """output='dataset' (pairs, verification, and components all stay Ray
    Datasets — the driver holds only the id prefilter and change counts)
    must equal the pandas route end-to-end, and each intermediate stage
    must agree with its collect twin."""
    import ray.data as rd

    from data_quality_ray.dedup.minhash import (
        candidate_pairs, minhash_bands, minhash_dedup, verify_pairs,
    )

    df = _docs_df()
    ds = rd.from_pandas(df).repartition(8)
    bands = minhash_bands(ds, "doc_id", "text").materialize()
    force_path("collect")
    pc = candidate_pairs(bands, "doc_id")
    pdds = candidate_pairs(bands, "doc_id", strategy="shuffle", as_dataset=True)
    key = lambda d: sorted(map(tuple, d[["id_a", "id_b"]].to_numpy()))
    assert key(pc) == key(pdds.to_pandas())

    va = verify_pairs(ds, pc, "doc_id", "text", 0.7)
    vb = verify_pairs(ds, candidate_pairs(bands, "doc_id", strategy="shuffle",
                                          as_dataset=True),
                      "doc_id", "text", 0.7).to_pandas()
    assert key(va) == key(vb)

    d1 = minhash_dedup(ds, "doc_id", "text", threshold=0.7)
    d2 = minhash_dedup(ds, "doc_id", "text", threshold=0.7,
                       output="dataset").to_pandas()
    assert sorted(map(tuple, d1.to_numpy())) == \
        sorted(map(tuple, d2[["doc_id", "cluster"]].to_numpy()))


def test_cluster_strings_collect_equals_shuffle(ray_session, force_path):
    """Distributed fingerprint clustering (with_row_index partials +
    bucketed merge) must equal the in-memory reference path exactly —
    including first-seen tie-breaks and the block-size cap."""
    import ray.data as rd

    from data_quality_ray.dedup.blocking import cluster_strings
    from data_quality_ray.functions.indexing import with_row_index

    idx = with_row_index(rd.from_pandas(
        pd.DataFrame({"x": np.arange(100)})).repartition(7)).to_pandas()
    assert idx["__row_id"].tolist() == idx["x"].tolist()

    rng = np.random.RandomState(3)
    base = ["élément", "element", "ELEMENT", "café", "cafe", "coffee",
            "tea", "Tea", "TEA", "thé"]
    vals = [rng.choice(base) + ("" if rng.rand() < 0.7 else " extra")
            for _ in range(3000)]
    df = pd.DataFrame({"v": vals})
    for cap in (1000, 2):
        force_path("collect")
        a = cluster_strings(rd.from_pandas(df).repartition(6), "v",
                            block_size_threshold=cap)
        force_path("shuffle")
        b = cluster_strings(rd.from_pandas(df).repartition(6), "v",
                            block_size_threshold=cap)
        pd.testing.assert_frame_equal(a, b)


def test_union_find_equals_distributed_components(ray_session):
    rng = np.random.RandomState(3)
    # random graph: chains + stars + isolated pairs
    edges = []
    for c in range(30):
        base = c * 50
        ln = rng.randint(2, 8)
        members = base + np.sort(rng.choice(40, size=ln, replace=False))
        for u, v in zip(members, members[1:]):
            edges.append((int(u), int(v)) if rng.rand() < 0.5 else (int(v), int(u)))
    pairs = pd.DataFrame(edges, columns=["id_a", "id_b"])

    from data_quality_ray.dedup.minhash import (
        distributed_components, union_find_components,
    )

    uf = union_find_components(pairs).sort_values("id").reset_index(drop=True)
    dc = distributed_components(pairs, n_buckets=8).sort_values("id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        uf.astype({"id": "int64", "cluster": "int64"}),
        dc.astype({"id": "int64", "cluster": "int64"}),
    )
    # multi-block edge input: ids spanning blocks once produced DUPLICATE
    # label rows (per-block initial labels multiplying through the
    # min-merge) — regression-pinned here
    import ray.data as rd

    dc2 = distributed_components(rd.from_pandas(pairs).repartition(8),
                                 n_buckets=8).sort_values("id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        uf.astype({"id": "int64", "cluster": "int64"}),
        dc2.astype({"id": "int64", "cluster": "int64"}),
    )


def test_minhash_dedup_md5_equals_stable_clusters(ray_session):
    """Cluster CONTENT should agree between hash modes on planted exact
    dups (different hash families, same verified-Jaccard semantics)."""
    import ray.data as rd

    df = _docs_df(150, seed=11)
    dup = df.head(20).copy()
    dup["doc_id"] = dup["doc_id"] + 100_000  # exact dups (J=1) always verify
    ds = rd.from_pandas(pd.concat([df, dup], ignore_index=True)).repartition(4)

    from data_quality_ray.dedup.minhash import minhash_dedup

    for mode in ("stable", "md5"):
        out = minhash_dedup(ds, "doc_id", "text", threshold=0.9, hash_fn=mode)
        got = set(zip(out["doc_id"], out["cluster"]))
        for a, b in zip(dup["doc_id"], df.head(20)["doc_id"]):
            assert (a, b) in got, (mode, a, b)


def test_md5_hash64_matches_duckdb():
    import duckdb

    from data_quality_ray.profiling.sketches import md5_hash64

    vals = ["", "abc", "héllo wörld", "a b c", "東京", "x" * 500]
    py = md5_hash64(np.array(vals, dtype=object))
    con = duckdb.connect()
    for v, h in zip(vals, py):
        assert con.execute("select md5_number_lower(?)", [v]).fetchone()[0] == int(h)


def test_batch_match_score_matches_scalar():
    """Every vectorized matcher kernel (levenshtein/jaro/jaro-winkler/
    exact) must equal the scalar reference-parity kernels pairwise,
    including null/empty semantics and unicode."""
    from data_quality_ray.functions.matchers_vec import batch_match_score_ref_parity

    assert batch_match_score_ref_parity(400, seed=0)
    assert batch_match_score_ref_parity(400, seed=1)


def test_blocked_pairs_matches_bruteforce(ray_session):
    """Bucketed + vectorized blocked_pairs == per-pair scalar brute force
    within blocks (weighted multi-attribute, nulls included)."""
    import ray.data as rd

    from data_quality_ray.dedup.blocking import blocked_pairs
    from data_quality_ray.functions.matchers import match_score

    rng = np.random.RandomState(5)
    names = ["smith", "smyth", "smithe", "jones", "jonas", "brown",
             "braun", "taylor", "tailor", "green"]
    df = pd.DataFrame({
        "rid": np.arange(250),
        "name": [rng.choice(names) + ("x" if rng.rand() < 0.2 else "") for _ in range(250)],
        "city": rng.choice(["paris", "london", "", "berlin", None], size=250),
    })
    df["bk"] = df["name"].str[:2]
    ds = rd.from_pandas(df).repartition(4)
    for matcher in ("LEVENSHTEIN", "JARO_WINKLER", "SOUNDEX"):
        out = blocked_pairs(ds, "rid", ["name", "city"], "bk",
                            matcher=matcher, threshold=0.75).to_pandas()
        exp = []
        for _, g in df.groupby("bk"):
            r = g.sort_values("rid").to_dict("records")
            for i in range(len(r)):
                for j in range(i + 1, len(r)):
                    s = (match_score(r[i]["name"], r[j]["name"], matcher)
                         + match_score(r[i]["city"], r[j]["city"], matcher)) / 2
                    if s >= 0.75:
                        exp.append((r[i]["rid"], r[j]["rid"], round(s, 6)))
        got = sorted(map(tuple, out[["id_a", "id_b", "score"]].to_numpy()))
        assert got == sorted(exp), matcher


def test_simhash_dataset_route_equals_pandas(ray_session, force_path):
    """output='dataset' for the 64-bit-signature family (hamming_candidates
    bucketed cross-block pair dedup + distributed components) must equal
    the collected pandas route end-to-end — same pairs, same clusters."""
    import ray.data as rd

    from data_quality_ray.dedup.simhash import (
        add_simhash, hamming_candidates, simhash_dedup,
    )

    df = _docs_df(200, seed=13)
    ds = rd.from_pandas(df).repartition(8)
    sig = add_simhash(ds, "text", "__sig").materialize()
    pa = hamming_candidates(sig, "doc_id", "__sig", hamming_threshold=8,
                            n_blocks=16)
    pb = hamming_candidates(sig, "doc_id", "__sig", hamming_threshold=8,
                            n_blocks=16, output="dataset").to_pandas()
    key = lambda d: sorted(map(tuple, d[["id_a", "id_b", "hamming"]].to_numpy()))
    assert key(pa) == key(pb)
    assert len(pa) > 0  # planted near-dups must pair up

    d1 = simhash_dedup(ds, "doc_id", "text", hamming_threshold=8, n_blocks=16)
    d2 = simhash_dedup(ds, "doc_id", "text", hamming_threshold=8, n_blocks=16,
                       output="dataset").to_pandas()
    assert sorted(map(tuple, d1.to_numpy())) == \
        sorted(map(tuple, d2[["doc_id", "cluster"]].to_numpy()))

    # the pandas route's size gates on their shuffle branches
    force_path("shuffle")
    pc = hamming_candidates(sig, "doc_id", "__sig", hamming_threshold=8,
                            n_blocks=16)
    assert key(pa) == key(pc)
    assert len(d1) > 0


def test_simhash_dedup_dataset_route_zero_pairs(ray_session):
    """A clean corpus (no Hamming-close pairs) through output='dataset'
    must return a TYPED empty (doc_id, cluster) — Ray drops the schema of
    all-empty map_groups outputs, so distributed_components guards the
    zero-edge case explicitly."""
    import ray.data as rd

    from data_quality_ray.dedup.simhash import simhash_dedup

    df = pd.DataFrame({"doc_id": np.arange(12),
                       "text": [f"totally distinct document number {i} "
                                f"{'x' * i} {'y' * (20 - i)}" for i in range(12)]})
    ds = rd.from_pandas(df).repartition(3)
    out = simhash_dedup(ds, "doc_id", "text", hamming_threshold=0,
                        n_blocks=16, output="dataset")
    # Dataset contract: schema names survive (Ray's to_pandas() on an
    # empty dataset drops columns even when schema() is intact, so the
    # assertion is on the Dataset itself)
    assert out.schema().names == ["doc_id", "cluster"]
    assert out.count() == 0
    # pandas route agrees on the same corpus
    assert simhash_dedup(ds, "doc_id", "text", hamming_threshold=0,
                         n_blocks=16).empty


def test_semantic_dedup_dataset_route_equals_pandas(ray_session):
    """SemDeDup output='dataset' (pairs + components distributed, the
    label map broadcast as sorted arrays — no all-ids driver frame) must
    equal the pandas route row for row."""
    import ray.data as rd

    from data_quality_ray.dedup.semantic import semantic_dedup

    rng = np.random.default_rng(13)
    base = rng.normal(size=(40, 16))
    rows = [(base[i % 40] + (0.001 * rng.normal(size=16) if i >= 40 else 0)).tolist()
            for i in range(120)]
    df = pd.DataFrame({"vec_id": np.arange(120), "embedding": rows})
    ds = rd.from_pandas(df).repartition(4)
    kw = dict(threshold=0.999, n_lists=8, sample_rows=120)
    a = semantic_dedup(ds, "vec_id", "embedding", **kw)
    b = (semantic_dedup(ds, "vec_id", "embedding", output="dataset", **kw)
         .to_pandas().sort_values("vec_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        a.astype({"vec_id": "int64", "sem_cluster": "int64", "keep": "bool"}),
        b.astype({"vec_id": "int64", "sem_cluster": "int64", "keep": "bool"}))
    assert not a["keep"].all()  # planted dups must collapse

    # no-pairs corpus: dataset route must still label every row keep=True
    eye = pd.DataFrame({"vec_id": np.arange(8), "embedding": list(np.eye(8))})
    out = (semantic_dedup(rd.from_pandas(eye), "vec_id", "embedding",
                          threshold=0.5, n_lists=4, sample_rows=8,
                          output="dataset").to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    assert out["keep"].all() and (out["sem_cluster"] == out["vec_id"]).all()


def test_neardup_blocked_dataset_route_equals_pandas(ray_session, force_path):
    """neardup_pairs_blocked: the gated distributed cross-block pair
    dedup (output='dataset' / above the collect_rows gate) must equal
    the collected route."""
    import ray.data as rd

    import data_quality_ray.dedup.embedding as emb

    rng = np.random.default_rng(3)
    n = 120
    base_keys = rng.integers(0, 2**63 - 1, 30, dtype=np.int64)
    keys = base_keys[rng.integers(0, 30, n)]
    vecs = rng.normal(0, 1, (30, 4))
    mat = vecs[rng.integers(0, 30, n)] + rng.normal(0, 1e-9, (n, 4))
    df = pd.DataFrame({"id": np.arange(n, dtype=np.int64),
                       "vec": list(mat), "key": keys})
    ds = rd.from_pandas(df).repartition(4)
    a = emb.neardup_pairs_blocked(ds, "id", "vec", "key", threshold=0.9999)
    b = (emb.neardup_pairs_blocked(ds, "id", "vec", "key", threshold=0.9999,
                                   output="dataset").to_pandas()
         .sort_values(["id_a", "id_b"]).reset_index(drop=True))
    key = lambda d: sorted(map(tuple, d[["id_a", "id_b", "cos"]].to_numpy()))
    assert key(a) == key(b)
    assert len(a) > 0
    force_path("shuffle")
    c = emb.neardup_pairs_blocked(ds, "id", "vec", "key", threshold=0.9999)
    assert key(a) == key(c)


def test_hamming64_pairs_matches_scalar():
    from data_quality_ray.dedup.simhash import hamming64, hamming64_pairs

    rng = np.random.RandomState(1)
    a = rng.randint(0, 2**63, size=1000, dtype=np.uint64)
    b = rng.randint(0, 2**63, size=1000, dtype=np.uint64)
    vec = hamming64_pairs(a, b)
    assert (vec == [hamming64(int(x), int(y)) for x, y in zip(a, b)]).all()
    assert hamming64_pairs(np.array([], dtype=np.uint64),
                           np.array([], dtype=np.uint64)).shape == (0,)


def test_hamming64_pairs_matches_byte_table():
    """The SWAR popcount equals a byte lookup-table popcount on random
    values, 0, -1, single bits, the int64 extremes and sign-bit-set
    inputs, for int64 and uint64 arrays and broadcast (Q, B) shapes."""
    from data_quality_ray.dedup.simhash import hamming64_pairs

    table = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)

    def lut(a, b):
        x = np.ascontiguousarray(a.view(np.uint64) ^ b.view(np.uint64))
        return table[x.view(np.uint8)].reshape(*x.shape, 8).sum(axis=-1)

    rng = np.random.RandomState(5)
    bits = (np.uint64(1) << np.arange(64, dtype=np.uint64)).view(np.int64)
    edge = np.concatenate([[0, -1, np.iinfo(np.int64).min, np.iinfo(np.int64).max], bits,
                           bits[63] | np.arange(8, dtype=np.int64)]).astype(np.int64)
    rand = rng.randint(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=2000,
                       dtype=np.int64)
    vals = np.concatenate([edge, rand, rand | np.iinfo(np.int64).min])
    other = np.concatenate([edge[::-1], np.zeros_like(rand), rng.permutation(rand)])
    for a, b in ((vals, other), (vals, np.zeros_like(vals)), (vals, -np.ones_like(vals))):
        got = hamming64_pairs(a, b)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, lut(a, b))
        np.testing.assert_array_equal(hamming64_pairs(a.view(np.uint64), b), got)
    assert hamming64_pairs(vals, vals).max() == 0
    q = edge[:6]
    np.testing.assert_array_equal(hamming64_pairs(q[:, None], vals[None, :]),
                                  lut(np.broadcast_to(q[:, None], (6, len(vals))),
                                      np.broadcast_to(vals[None, :], (6, len(vals)))))


def test_simhash_batch_matches_scalar():
    from data_quality_ray.dedup.simhash import simhash64, simhash64_batch

    texts = ["one two three", "", None, "one one ONE oNe", "unique tokens only here"]
    batch = simhash64_batch(texts)
    for t, s in zip(texts, batch):
        assert simhash64(t if t is not None else "") == int(np.uint64(np.int64(s).astype(np.uint64)))


def test_dedup_by_key_searchsorted_winner_kernel(ray_session):
    import ray.data as rd

    from data_quality_ray.dedup.exact import dedup_by_key

    rng = np.random.RandomState(5)
    df = pd.DataFrame({
        "k": rng.randint(0, 40, size=500),
        "rid": np.arange(500),
        "payload": [f"p{i}" for i in range(500)],
    })
    ds = rd.from_pandas(df).repartition(6)
    out = dedup_by_key(ds, key="k", order_col="rid").to_pandas()
    expect = df.sort_values("rid").groupby("k", as_index=False).first()
    assert sorted(out["rid"]) == sorted(expect["rid"])
    # string keys hit the object-dtype searchsorted path
    df2 = df.assign(k=df["k"].map(lambda x: f"key{x:03d}"))
    out2 = dedup_by_key(rd.from_pandas(df2).repartition(6), key="k", order_col="rid").to_pandas()
    assert sorted(out2["rid"]) == sorted(expect["rid"])


def test_survivorship_new_rules_vectorized_equals_pergroup(ray_session):
    """Expression / RemoveDuplicate / SurviveAs: the hash-bucketed
    vectorized bucket path and the per-group fallback must agree."""
    import ray.data as rd

    from data_quality_ray.dedup.survivorship import (
        _resolve_group, golden_records,
    )

    rng = np.random.RandomState(9)
    n = 400
    df = pd.DataFrame({
        "gid": rng.randint(0, 40, size=n),
        "ord": np.arange(n),
        "d": pd.to_datetime("2020-01-01") + pd.to_timedelta(rng.randint(0, 900, size=n), unit="D"),
        "price": np.round(rng.uniform(10, 1000, size=n), 2),
        "tag": rng.choice(["a", "b", "c", None], size=n),
    })
    df["ref_price"] = df["price"]
    rules = {
        "d": "MostRecent",
        "ref_price": ("SurviveAs", "d"),
        "tag": ("RemoveDuplicate", "ord"),
        "price": ("Expression", "> 500"),
    }
    vec = golden_records(rd.from_pandas(df).repartition(5), "gid", rules).to_pandas()
    vec = vec.sort_values("gid").reset_index(drop=True)
    exp = pd.concat([
        _resolve_group(g, "gid", rules) for _, g in df.groupby("gid", sort=True)
    ]).reset_index(drop=True)
    for c in rules:
        a, e = vec[c].tolist(), exp[c].tolist()
        for x, y in zip(a, e):
            if isinstance(x, float) and isinstance(y, float) and np.isnan(x) and np.isnan(y):
                continue
            assert (pd.isna(x) and pd.isna(y)) or x == y, (c, x, y)
    # Expression string form equals callable form
    rules2 = dict(rules, price=("Expression", lambda x: x > 500))
    vec2 = golden_records(rd.from_pandas(df).repartition(5), "gid", rules2).to_pandas()
    assert vec2.sort_values("gid")["price"].fillna(-1).tolist() == \
        vec.sort_values("gid")["price"].fillna(-1).tolist()


def test_new_code_edge_inputs(ray_session):
    """Degenerate inputs through the round-2 code paths: empty batches,
    single rows, all-empty reference columns."""
    import ray.data as rd

    from data_quality_ray.dedup.minhash import distributed_components, minhash_dedup
    from data_quality_ray.dedup.survivorship import golden_records
    from data_quality_ray.functions.chronology import ChronoDateConverter
    from data_quality_ray.stages.image import phash64_batch

    assert list(phash64_batch([])) == []
    one = rd.from_pandas(pd.DataFrame({"doc_id": [1], "text": ["only one doc"]}))
    assert len(minhash_dedup(one, "doc_id", "text")) == 0
    empty = rd.from_pandas(pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                         "text": pd.Series([], dtype="object")}))
    assert len(minhash_dedup(empty, "doc_id", "text")) == 0
    dc = distributed_components(pd.DataFrame({"id_a": [5], "id_b": [3]}), n_buckets=4)
    assert dc.to_dict("records") == [{"id": 3, "cluster": 3}, {"id": 5, "cluster": 3}]
    df = pd.DataFrame({"g": [1, 1], "d": pd.to_datetime([None, None]), "p": [1.0, 2.0]})
    out = golden_records(rd.from_pandas(df), "g",
                         {"d": "MostRecent", "p": ("SurviveAs", "d")}).to_pandas()
    assert out["p"].isna().all()
    assert ChronoDateConverter().convert(None) is None
    assert ChronoDateConverter(out_chronology="Hijrah").convert("  ") == "  "


def test_dedup_by_content_128bit_key(ray_session):
    """Content dedup through the 128-bit packed hash key: duplicates by
    min order id, distinct texts preserved, key column dropped."""
    import ray.data as rd

    from data_quality_ray.dedup.exact import dedup_by_content

    df = pd.DataFrame({"rid": np.arange(600),
                       "text": [f"doc {i % 200} body" for i in range(600)]})
    out = dedup_by_content(rd.from_pandas(df).repartition(5), "text", "rid").to_pandas()
    exp = df.groupby("text", as_index=False).agg(rid=("rid", "min"))
    assert sorted(out["rid"]) == sorted(exp["rid"])
    assert set(out.columns) == {"rid", "text"}


def _containment_docs(n=120, seed=11):
    # planted containment: every third doc gets a longer superset doc
    # (its text plus extra words) and some exact copies (size ties)
    rng = np.random.RandomState(seed)
    words = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta",
             "theta", "iota", "kappa", "lam", "mu", "nu", "xi"]
    rows = []
    nid = 0
    for i in range(n):
        base = " ".join(rng.choice(words, size=10))
        rows.append((nid, base)); nid += 1
        if i % 3 == 0:
            extra = " ".join(rng.choice(words, size=2))
            rows.append((nid, base + " " + extra)); nid += 1
        if i % 7 == 0:
            rows.append((nid, base)); nid += 1  # exact copy (tie)
    return pd.DataFrame(rows, columns=["doc_id", "text"])


def _containment_bruteforce(df, threshold=0.8, shingle_size=3):
    from data_quality_ray.dedup.minhash import _cached_hasher

    mh = _cached_hasher(64, shingle_size, 17, "stable")
    sets = {r.doc_id: set(np.unique(mh.shingles(r.text)).tolist())
            for r in df.itertuples()}
    dom = {}
    ids = sorted(sets)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            sa, sb = sets[a], sets[b]
            inter = len(sa & sb)
            if not min(len(sa), len(sb)):
                continue
            if inter / min(len(sa), len(sb)) >= threshold:
                if len(sa) < len(sb):
                    d, by = a, b
                elif len(sb) < len(sa):
                    d, by = b, a
                else:
                    d, by = max(a, b), min(a, b)
                dom[d] = min(dom.get(d, by), by)
    out = pd.DataFrame({"doc_id": ids,
                        "n_shingles": [len(sets[i]) for i in ids]})
    out["keep"] = ~out["doc_id"].isin(dom)
    out["contained_in"] = out["doc_id"].map(dom).fillna(-1).astype(np.int64)
    return out.reset_index(drop=True)


def test_containment_dedup_matches_bruteforce(ray_session):
    # prefix-filter completeness + verify + dominated fold vs an O(n^2)
    # exact reference — and both output routes agree
    import ray.data as rd

    from data_quality_ray.dedup.containment import containment_dedup

    df = _containment_docs()
    ds = rd.from_pandas(df).repartition(6)
    exp = _containment_bruteforce(df)
    got = containment_dedup(ds, "doc_id", "text", threshold=0.8)
    assert not exp["keep"].all()  # planted containments must drop docs
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    got_ds = (containment_dedup(ds, "doc_id", "text", threshold=0.8,
                                output="dataset").to_pandas()
              .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got_ds[got.columns], exp, check_dtype=False)


def test_containment_dedup_no_pairs_and_empty_text(ray_session):
    import ray.data as rd

    from data_quality_ray.dedup.containment import containment_dedup

    df = pd.DataFrame({"doc_id": [1, 2, 3],
                       "text": ["aa bb cc dd", "ee ff gg hh", None]})
    for output in ("pandas", "dataset"):
        got = containment_dedup(rd.from_pandas(df), "doc_id", "text",
                                threshold=0.8, output=output)
        if output == "dataset":
            got = got.to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert got["keep"].all()
        assert (got["contained_in"] == -1).all()
        assert got.loc[got["doc_id"] == 3, "n_shingles"].iloc[0] == 0


def test_decontaminate_bloom_equals_exact(ray_session):
    import ray.data as rd

    from data_quality_ray.dedup.decontaminate import (
        benchmark_gram_dataset, benchmark_gram_hashes, decontaminate,
        decontaminate_bloom)

    docs = _docs_df(300, seed=11)
    ds = rd.from_pandas(docs).repartition(6)
    bench_pd = docs[docs["doc_id"] % 13 == 0]
    bench = rd.from_pandas(bench_pd).repartition(3)

    exact_hashes = benchmark_gram_hashes(bench, "text", k=3, hash_fn="md5")
    a = (decontaminate(ds, "text", "doc_id", exact_hashes, k=3,
                       hash_fn="md5", threshold=0.1)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    gram_ds = benchmark_gram_dataset(bench, "text", k=3, hash_fn="md5")
    # tight fpr AND a sloppy one: both must verify back to exact
    for fpr in (0.01, 0.5):
        b = (decontaminate_bloom(ds, "text", "doc_id", gram_ds, k=3,
                                 hash_fn="md5", threshold=0.1, fpr=fpr)
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(
            a, b[a.columns].astype(a.dtypes.to_dict()))
    assert a["contaminated"].any()  # bench docs contaminate themselves
    assert (a["n_hits"] <= a["n_grams"]).all()


def test_decontaminate_bloom_empty_bench(ray_session):
    import ray.data as rd

    from data_quality_ray.dedup.decontaminate import (
        benchmark_gram_dataset, decontaminate_bloom)

    docs = _docs_df(50, seed=3)
    ds = rd.from_pandas(docs).repartition(4)
    bench = rd.from_pandas(docs[docs["doc_id"] < 0])  # empty
    gram_ds = benchmark_gram_dataset(bench, "text", k=3, hash_fn="md5")
    out = decontaminate_bloom(ds, "text", "doc_id", gram_ds, k=3,
                              hash_fn="md5").to_pandas()
    assert len(out) == len(docs)
    assert (out["n_hits"] == 0).all() and not out["contaminated"].any()


def test_grouped_weighted_sample_routes(ray_session):
    import ray.data as rd

    from data_quality_ray.sampling.reservoir import grouped_weighted_sample

    rng = np.random.RandomState(9)
    df = pd.DataFrame({
        "id": np.arange(3000),
        "grp": rng.choice(["a", "b", "c", "d"], size=3000),
        "w": np.where(np.arange(3000) % 7 == 0, 0.0,  # zero-weight excluded
                      rng.exponential(2.0, size=3000)),
    })
    ds = rd.from_pandas(df).repartition(8)
    a = grouped_weighted_sample(ds, ["id"], "grp", "w", k=10, seed=1)
    b = (grouped_weighted_sample(ds, ["id"], "grp", "w", k=10, seed=1,
                                 output="dataset", n_buckets=8)
         .to_pandas())
    key = lambda f: sorted(map(tuple, f[["grp", "id"]].to_numpy()))
    assert key(a) == key(b)
    assert (a.groupby("grp").size() == 10).all()
    assert not set(a["id"]) & set(df.loc[df["w"] == 0, "id"])
    # inclusion ∝ weight: winners' mean weight far above population mean
    assert a["w"].mean() > 1.5 * df.loc[df.w > 0, "w"].mean()


def test_tune_lsh_params():
    from data_quality_ray.dedup.minhash import tune_lsh_params

    b50, r50 = tune_lsh_params(0.5, 64)
    b90, r90 = tune_lsh_params(0.9, 64)
    assert b50 * r50 <= 64 and b90 * r90 <= 64
    # higher threshold -> longer rows (sharper curve, fewer fps)
    assert r90 > r50
    # the chosen curve's 50%-candidate point sits near the threshold
    for t, (b, r) in ((0.5, (b50, r50)), (0.9, (b90, r90))):
        mid = (1 / b) ** (1 / r)  # s where P(candidate) = 1-(1-1/b)^b ~ 0.63
        assert abs(mid - t) < 0.2
    # fn-averse weighting must not raise the candidate bar
    bf, rf = tune_lsh_params(0.7, 64, fp_weight=0.1, fn_weight=0.9)
    bb, rb = tune_lsh_params(0.7, 64, fp_weight=0.9, fn_weight=0.1)
    assert (1 / bf) ** (1 / rf) <= (1 / bb) ** (1 / rb)
    with pytest.raises(ValueError):
        tune_lsh_params(1.5)


def _mm_fixture():
    """60 images: planted visual pairs (1-bit phash flips), caption dup
    chains, and a bridge row connecting one visual pair to one caption
    group through different edge types."""
    rng = np.random.RandomState(44)
    ids, sigs, caps = [], [], []
    base_sigs = rng.randint(-2**62, 2**62, size=60).astype(np.int64)
    for i in range(60):
        ids.append(f"img{i:04d}")
        sigs.append(base_sigs[i])
        caps.append(f"caption {i}" if i % 3 else None)  # nulls must not link
    # visual pair: 41 = 40 with one bit flipped
    sigs[41] = np.int64(np.uint64(sigs[40]) ^ np.uint64(1 << 17))
    # caption chain: 50, 51, 52 share a caption
    caps[50] = caps[51] = caps[52] = "shared caption"
    # bridge: 41 shares a caption with 52's group -> one big component
    caps[41] = "shared caption"
    return pd.DataFrame({"image_id": ids, "phash": sigs, "caption": caps})


def test_multimodal_dedup_union_connectivity(ray_session):
    import ray.data as rd

    from data_quality_ray.dedup.multimodal import multimodal_dedup

    df = _mm_fixture()
    ds = rd.from_pandas(df).repartition(4)
    out = multimodal_dedup(ds, "image_id", "phash", "caption",
                           hamming_threshold=2, n_blocks=4)
    assert len(out) == len(df)
    lab = out.set_index("image_id")["cluster"]
    # visual edge 40-41 + caption bridge 41-50/51/52 -> one component
    assert len({lab["img0040"], lab["img0041"], lab["img0050"],
                lab["img0051"], lab["img0052"]}) == 1
    assert lab["img0040"] == "img0040"  # min-id representative
    # null captions never link; untouched rows are their own keepers
    assert lab["img0000"] == "img0000" and out.set_index("image_id")["keep"]["img0000"]
    assert (out["keep"] == (out["cluster"] == out["image_id"])).all()


def test_multimodal_dedup_scale_path_parity(ray_session, force_path):
    """Forced distributed components + hash_join label route must equal
    the union-find + broadcast route row for row."""
    import ray.data as rd

    from data_quality_ray.dedup.multimodal import multimodal_dedup

    df = _mm_fixture()
    ds = rd.from_pandas(df).repartition(4)
    want = multimodal_dedup(ds, "image_id", "phash", "caption")

    force_path("shuffle")
    got = multimodal_dedup(ds, "image_id", "phash", "caption")
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True),
        check_dtype=False)
    # dataset route too
    got_ds = multimodal_dedup(ds, "image_id", "phash", "caption",
                              output="dataset").to_pandas()
    got_ds["keep"] = got_ds["keep"].astype(bool)
    pd.testing.assert_frame_equal(
        got_ds.sort_values("image_id").reset_index(drop=True), want,
        check_dtype=False)


def test_hamming_topk_matches_bruteforce(ray_session):
    import ray.data as rd

    from data_quality_ray.dedup.simhash import hamming64_pairs
    from data_quality_ray.similarity.hamming import (hamming_topk,
                                                     smallest_id_sigs)

    rng = np.random.RandomState(7)
    n = 400
    ids = np.array([f"r{i:05d}" for i in range(n)])
    sigs = rng.randint(-2**62, 2**62, size=n).astype(np.int64)
    df = pd.DataFrame({"id": ids, "sig": sigs})
    ds = rd.from_pandas(df).repartition(6)

    qids, qsigs = smallest_id_sigs(ds, "id", "sig", 3)
    assert list(qids) == ["r00000", "r00001", "r00002"]
    out = hamming_topk(ds, "id", "sig", qids, qsigs, k=7)
    assert len(out) == 3 * 7
    for qi, qs in zip(qids, qsigs):
        d = hamming64_pairs(np.full(n, qs).astype(np.int64).view(np.uint64),
                            sigs.view(np.uint64))
        order = np.lexsort((ids, d))[:7]
        mine = out[out["query_id"] == qi]
        assert list(mine["id"]) == list(ids[order])
        assert list(mine["hamming"]) == list(d[order])
        assert list(mine["rank"]) == list(range(1, 8))


def test_survivorship_parameterized_rules_match_per_group(ray_session):
    """MatchRegex / ExcludeValues / FillEmpty resolve each group inside
    the hash-bucketed exchange; the golden records equal Ray Data's
    per-group ``groupby(gid).map_groups`` over the same rows."""
    import ray.data as rd

    from data_quality_ray.dedup.survivorship import _resolve_group, golden_records

    rng = np.random.RandomState(11)
    n = 500
    df = pd.DataFrame({
        "gid": rng.randint(0, 60, size=n),
        "email": rng.choice(["a@x.org", "b@y.com", "bad", "", None], size=n),
        "city": rng.choice(["NY", "SF", "N/A", "  ", None], size=n),
        "score": np.where(rng.rand(n) < 0.3, np.nan, np.round(rng.uniform(0, 9, size=n), 1)),
        "name": rng.choice(["Al", "Albert", "Bo", None], size=n),
    })
    rules = {
        "email": ("MatchRegex", r"^[a-z]+@"),
        "city": ("ExcludeValues", ["N/A"]),
        "score": ("FillEmpty", -1.0),
        "name": "Longest",
    }
    ds = rd.from_pandas(df).repartition(5)
    got = golden_records(ds, "gid", rules).to_pandas()
    want = ds.groupby("gid").map_groups(
        lambda g: _resolve_group(g, "gid", rules), batch_format="pandas").to_pandas()
    got = got.sort_values("gid").reset_index(drop=True)
    want = want.sort_values("gid").reset_index(drop=True)
    assert list(got.columns) == list(want.columns)
    assert got.dtypes.to_dict() == want.dtypes.to_dict()
    pd.testing.assert_frame_equal(got, want)
