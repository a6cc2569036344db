"""ExactSubstr-style substring dedup (dedup/substring.py): collect and
shuffle scale paths vs a driver-side string-counting reference."""

import numpy as np
import pandas as pd


def _ref(df, n):
    from collections import Counter

    from data_quality_ray.dedup.substring import _tokens

    c = Counter()
    toks = {r.doc_id: _tokens(r.text) for r in df.itertuples()}
    for tl in toks.values():
        for i in range(len(tl) - n + 1):
            c[" ".join(tl[i:i + n])] += 1
    rows = []
    for did, tl in toks.items():
        keep = np.ones(len(tl), dtype=bool)
        for i in range(len(tl) - n + 1):
            if c[" ".join(tl[i:i + n])] >= 2:
                keep[i:i + n] = False
        kept = [t for t, k in zip(tl, keep) if k]
        rows.append((did, len(tl), int((~keep).sum()), " ".join(kept)))
    return pd.DataFrame(rows, columns=["doc_id", "n_tokens", "n_removed",
                                       "text"]) \
        .sort_values("doc_id").reset_index(drop=True)


def test_substring_dedup_both_paths(ray_session, force_path):
    """Both strategies equal the string-counting reference on a corpus
    with planted cross-doc spans, a within-doc repeat, short docs (< n
    tokens), and an empty doc."""
    import ray.data as rd

    from data_quality_ray.dedup.substring import substring_dedup

    rng = np.random.RandomState(29)
    vocab = [f"t{i}" for i in range(50)]
    span = " ".join(rng.choice(vocab, size=12))          # 12-token shared span
    docs = [" ".join(rng.choice(vocab, size=rng.randint(2, 40)))
            for _ in range(80)]
    docs[3] = docs[3] + " " + span
    docs[9] = span + " " + docs[9]
    inner = " ".join(rng.choice(vocab, size=6))
    docs[12] = inner + " x1 " + inner                    # within-doc repeat (n=5)
    docs[20] = ""                                        # empty doc
    docs[21] = "a b c"                                   # shorter than n
    df = pd.DataFrame({"doc_id": np.arange(80), "text": docs})
    n = 5
    ref = _ref(df, n)
    assert ref["n_removed"].sum() > 0                    # planted spans found
    assert ref.loc[12, "n_removed"] >= 2 * 5             # both inner copies cut

    for path in ("collect", "shuffle"):
        force_path(path)
        ds = rd.from_pandas(df).repartition(4)
        got = substring_dedup(ds, "doc_id", "text", n=n) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True) \
            .astype({"doc_id": "int64", "n_tokens": "int64",
                     "n_removed": "int64"})
        pd.testing.assert_frame_equal(got, ref, check_like=True)
