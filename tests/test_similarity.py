"""Similarity search: brute-force cosine top-k and LSH-bucketed ANN."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")


def test_cosine_topk_matches_duckdb(emb_ds):
    import duckdb
    import pyarrow.parquet as pq

    from data_quality_ray.similarity.knn import cosine_topk

    t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
    q = np.asarray(t["embedding"][0].as_py())
    out = cosine_topk(emb_ds, "vec_id", "embedding", q, k=5)
    exp = duckdb.sql("""
        with qv as (select embedding::DOUBLE[] e from '/root/testdata/sf0.001/embeddings.parquet' limit 1)
        select vec_id, round(list_cosine_similarity(embedding::DOUBLE[], (select e from qv)),6) sim
        from '/root/testdata/sf0.001/embeddings.parquet' order by sim desc, vec_id limit 5""").df()
    assert out["id"].tolist() == exp["vec_id"].tolist()
    assert np.allclose(out["sim"].round(6), exp["sim"])


def test_lsh_topk_recall(ray_session):
    """On CLUSTERED vectors (true neighbors at cos≈0.99) the LSH-bucketed
    ANN recovers most of the exact top-k while scanning only the probed
    buckets. (Uniformly random vectors have no localized neighbors — LSH
    recall there is the scan fraction by construction.)"""
    import ray.data as rd

    from data_quality_ray.similarity.knn import cosine_topk, lsh_topk

    rng = np.random.RandomState(0)
    center = rng.randn(32)
    rows = [{"vec_id": i, "embedding": (center + 0.05 * rng.randn(32)).tolist()}
            for i in range(20)]  # a tight cluster around the query
    rows += [{"vec_id": 100 + i, "embedding": rng.randn(32).tolist()} for i in range(480)]
    ds = rd.from_items(rows)
    q = center
    exact = set(cosine_topk(ds, "vec_id", "embedding", q, k=10)["id"])
    approx = lsh_topk(ds, "vec_id", "embedding", q, k=10, n_planes=10,
                      multiprobe_bits=1)
    recall = len(set(approx["id"]) & exact) / 10
    assert recall >= 0.8


def test_ivf_topk_recall(ray_session):
    import ray.data as rd

    rng = np.random.RandomState(4)
    n, d = 2000, 16
    base = rng.randn(8, d)
    vecs = base[rng.randint(0, 8, size=n)] + 0.15 * rng.randn(n, d)
    df = pd.DataFrame({"vid": np.arange(n), "embedding": list(vecs)})
    ds = rd.from_pandas(df).repartition(4)
    q = vecs[17]

    from data_quality_ray.similarity.knn import cosine_topk, ivf_topk

    exact = set(cosine_topk(ds, "vid", "embedding", q, k=10)["id"])
    approx = set(ivf_topk(ds, "vid", "embedding", q, k=10, n_lists=8, nprobe=3)["id"])
    assert len(exact & approx) >= 7  # clustered data: high recall expected
    # nprobe == n_lists degenerates to exact
    full = set(ivf_topk(ds, "vid", "embedding", q, k=10, n_lists=8, nprobe=8)["id"])
    assert full == exact
    # deterministic across runs
    again = set(ivf_topk(ds, "vid", "embedding", q, k=10, n_lists=8, nprobe=3)["id"])
    assert again == approx


def test_ivf_store_io_pruning(ray_session, tmp_path):
    """build_ivf_store + ivf_topk_store: the query reads ONLY the probed
    list partitions (measured scan-row reduction), returns the same ids
    as the in-flight ivf_topk with the same quantizer, and degenerates to
    exact at nprobe == n_lists."""
    import ray.data as rd

    from data_quality_ray.similarity.knn import (
        build_ivf_store, cosine_topk, ivf_topk, ivf_topk_store,
    )

    rng = np.random.RandomState(4)
    n, d = 2000, 16
    base = rng.randn(8, d)
    vecs = base[rng.randint(0, 8, size=n)] + 0.15 * rng.randn(n, d)
    df = pd.DataFrame({"vid": np.arange(n), "embedding": list(vecs)})
    ds = rd.from_pandas(df).repartition(4)
    q = vecs[17]

    store = str(tmp_path / "ivf_store")
    build_ivf_store(ds, store, vec_col="embedding", n_lists=8)

    got, stats = ivf_topk_store(store, "vid", "embedding", q, k=10, nprobe=3)
    assert stats["rows_total"] == n
    assert stats["rows_scanned"] < n  # pruning actually happened at I/O
    assert stats["lists_probed"] == 3

    inflight = ivf_topk(ds, "vid", "embedding", q, k=10, n_lists=8, nprobe=3)
    assert got["id"].tolist() == inflight["id"].tolist()

    full, fstats = ivf_topk_store(store, "vid", "embedding", q, k=10, nprobe=8)
    exact = cosine_topk(ds, "vid", "embedding", q, k=10)
    assert set(full["id"]) == set(exact["id"])
    assert fstats["rows_scanned"] == n


def test_bm25_topk_matches_brute_force(ray_session):
    """Distributed two-pass BM25 vs a single-process brute-force scorer
    on a random corpus; edge cases: empty text, query with an unseen
    term, k larger than the hit count."""
    import math

    import ray.data as rd

    from data_quality_ray.similarity.bm25 import B, K1, bm25_tokens, bm25_topk

    rng = np.random.RandomState(11)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    texts = [" ".join(rng.choice(vocab, size=rng.randint(0, 30)))
             for _ in range(200)]
    texts[5] = ""           # empty doc: counts toward N, never matches
    df_in = pd.DataFrame({"doc_id": np.arange(200), "text": texts})
    queries = {"q1": "alpha gamma", "q2": "zeta unseen-term", "q3": "nothing-here"}

    got = bm25_topk(rd.from_pandas(df_in).repartition(4), "doc_id", "text",
                    queries, k=7)

    # brute force
    toks = [bm25_tokens(t) for t in texts]
    n = len(texts)
    avgdl = sum(len(t) for t in toks) / n
    rows = []
    for qid, q in queries.items():
        terms = sorted(set(bm25_tokens(q)))
        for d in range(n):
            s = 0.0
            for t in terms:
                tf = toks[d].count(t)
                if tf == 0:
                    continue
                df = sum(1 for x in toks if t in x)
                idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
                s += idf * tf * (K1 + 1) / (tf + K1 * (1 - B + B * len(toks[d]) / avgdl))
            if s > 0:
                rows.append((qid, d, round(s, 6)))
    ref = pd.DataFrame(rows, columns=["query_id", "doc_id", "score"])
    ref = ref.sort_values(["query_id", "score", "doc_id"],
                          ascending=[True, False, True], kind="mergesort")
    ref["rank"] = ref.groupby("query_id").cumcount() + 1
    ref = ref[ref["rank"] <= 7].reset_index(drop=True)

    got_c = got.reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got_c.astype({"doc_id": "int64", "rank": "int64"}),
        ref.astype({"doc_id": "int64", "rank": "int64"}), check_like=True)
    assert not (got["query_id"] == "q3").any()          # no-hit query absent
    assert 5 not in got["doc_id"].to_numpy()            # empty doc never ranked


def test_tfidf_collect_equals_shuffle(ray_session, force_path):
    """The broadcast-vocabulary path and the unbounded hash-join path
    must produce identical top-k keyword tables (the repo's gated
    scale-path parity convention)."""
    import ray.data as rd

    from data_quality_ray.similarity.tfidf import tfidf_topk

    rng = np.random.RandomState(17)
    vocab = [f"w{i}" for i in range(40)]
    df_in = pd.DataFrame({
        "doc_id": np.arange(150),
        "text": [" ".join(rng.choice(vocab, size=rng.randint(0, 25)))
                 for _ in range(150)],
    })

    def run(path):
        force_path(path)
        out = tfidf_topk(rd.from_pandas(df_in).repartition(4), "doc_id",
                         "text", k=4).to_pandas()
        return out.sort_values(["doc_id", "rank"]).reset_index(drop=True) \
            .astype({"doc_id": "int64", "rank": "int64"})

    a, b = run("collect"), run("shuffle")
    pd.testing.assert_frame_equal(a, b, check_like=True)
    # rank is dense 1..k per doc and scores non-increasing within a doc
    for _, g in a.groupby("doc_id"):
        assert list(g["rank"]) == list(range(1, len(g) + 1))
        assert (np.diff(g["score"].to_numpy()) <= 1e-12).all()


def test_kmeans_matches_local_reference(ray_session):
    """Distributed quantized Lloyd vs a single-process numpy reference
    (same init, same rounding); partitioning-independent; duplicate init
    vectors -> an empty cluster that keeps its centroid."""
    import ray.data as rd

    from data_quality_ray.similarity.kmeans import ROUND_TO, _assign, kmeans

    rng = np.random.RandomState(23)
    centers = rng.randn(3, 8) * 4
    x = np.concatenate([centers[i] + rng.randn(120, 8) for i in range(3)])
    x[1] = x[0]  # vec_ids 0 and 1 identical -> duplicate init centroids
    df = pd.DataFrame({"vec_id": np.arange(len(x)),
                       "embedding": [r.astype(np.float32) for r in x]})

    def local_ref(k, iters):
        xs = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        cent = np.round(xs[:k].copy(), ROUND_TO)
        for _ in range(iters):
            a = _assign(xs, cent)
            for c in range(k):
                mem = xs[a == c]
                if len(mem):
                    cent[c] = np.round(mem.mean(axis=0), ROUND_TO)
        return _assign(xs, cent), cent

    for nparts in (2, 5):
        assign_ds, cent = kmeans(rd.from_pandas(df).repartition(nparts),
                                 "vec_id", "embedding", k=4, iters=3)
        got = assign_ds.to_pandas().sort_values("vec_id")
        ref_a, ref_c = local_ref(4, 3)
        assert np.array_equal(got["cid"].to_numpy(), ref_a)
        assert np.array_equal(cent, ref_c)
    # empty-cluster retention: with a duplicated init vector, ties go to
    # the lower cid, so after ONE round the duplicate centroid has no
    # members and must keep its (rounded) init position verbatim
    _, cent1 = kmeans(rd.from_pandas(df), "vec_id", "embedding",
                      k=4, iters=1)
    assert np.array_equal(cent1[1], np.round(x[1], ROUND_TO))
