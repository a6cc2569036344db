"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship quality-filter chain over the sf0.001
documents table. ``queries()`` exposes one callable per implemented
operator/pipeline from SURVEY.md §2; ``oracle_sql()`` gives the DuckDB
equivalent for every SQL-expressible one (pattern strings / stopword
lists are imported from the library so both sides share one definition).

Ray is initialised by the driver BEFORE this module is imported — nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from data_quality_ray.pipelines import queries as Q
from data_quality_ray.pipelines.quality_filter import DOC_MAX_LEN, DOC_MIN_LEN
from data_quality_ray.rules.heuristics import EN_STOPWORDS
from data_quality_ray.rules.scrub import (
    EMAIL_PATTERN, PHONE_PATTERN, SSN_PATTERN, TOXIC_LEXICON,
)


def entry() -> Any:
    """Flagship: quality-filter chain over sf0.001 documents."""
    return Q._quality_filter_docs_ds("/root/testdata/sf0.001")


def _image_fixture(sf_dir: str) -> str:
    """Deterministic image+caption table sized to the sf tier (north-rule
    input_hint shape), cached under /tmp. Labels include the golden
    feature columns so every image query has a DuckDB oracle."""
    import duckdb

    n_docs = duckdb.sql(f"select count(*) from '{sf_dir}/documents.parquet'").fetchone()[0]
    n = max(500, 2 * int(n_docs))
    out = f"/tmp/dq_ray_f1_{n}"
    from data_quality_ray.sources.fixtures import write_f1

    write_f1(out, n_rows=n, seed=42, feature_labels=True)
    return out


def quality_filter_images(sf_dir: str):
    """North-star pipeline over the image+caption table. Oracled: the
    fixture carries golden keep/drop + first-rule label columns and the
    SQL replays the verdict from them, so the driver hash-compares every
    row (full per-row F1 validation additionally lives in tests/)."""
    import ray.data as rd

    from data_quality_ray.pipelines.quality_filter import filtered

    ds = rd.read_parquet(_image_fixture(sf_dir))
    return filtered(ds, concurrency=(1, 4), batch_size=1024).select_columns(
        ["image_id", "verdict", "first_rule", "caption", "phash"]
    )


def webdataset_roundtrip_images(sf_dir: str):
    """WebDataset tar-shard sink+source round-trip over the image+caption
    fixture: key-sorted shards written worker-side (atomic, resumable),
    read back through the untar source, reporting per-image payload
    length + caption. Oracle = the raw fixture shards (octet_length of
    the same encoded bytes), so the hash compare proves byte-lossless
    transport through the tar layout."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from data_quality_ray.sources.webdataset import (
        read_webdataset, write_webdataset,
    )

    import shutil
    import tempfile

    fix = _image_fixture(sf_dir)
    # a FRESH per-run shard dir: shard names are block-relative (each
    # block cuts its own ≤shard_rows tars), so two sessions with
    # different parallelism write different shard names — reusing a
    # fixed dir accumulates stale overlapping shards and the readback
    # returns their union (caught by a full sf0.1 sweep after a bench
    # run: 52826 rows vs 10000). Resume-reuse is only valid within one
    # run's partitioning, which tmp+rename markers already handle.
    out = tempfile.mkdtemp(prefix="dq_wds_")
    try:
        ds = rd.read_parquet(fix, columns=["image_id", "bytes", "caption"]) \
               .sort("image_id")
        write_webdataset(ds, out, key_col="image_id",
                         exts={"bytes": "img", "caption": "txt"},
                         shard_rows=2048, write_manifest=False)
        back = read_webdataset(out, exts={"img": "binary", "txt": "text"})

        def project(t: pa.Table) -> pa.Table:
            return pa.table({
                "image_id": t["__key__"],
                "n_bytes": pc.cast(pc.binary_length(t["img"]), pa.int64()),
                "caption": t["txt"],
            })

        df = back.map_batches(project, batch_format="pyarrow").to_pandas()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return df.sort_values("image_id").reset_index(drop=True)


def caption_alignment_images(sf_dir: str):
    """CLIP-style caption–image alignment over the fixture: hashing-trick
    text embedding vs the phash bit pattern, cosine per pair, scored by
    an actor-pool stage (stages/alignment.AlignmentStage). Oracled: both
    encoders are exact md5/integer math the SQL replays bit-for-bit."""
    import ray.data as rd

    from data_quality_ray.stages.alignment import align_captions

    ds = rd.read_parquet(_image_fixture(sf_dir),
                         columns=["image_id", "caption", "phash"])
    out = align_captions(ds, threshold=0.0, concurrency=(1, 4)) \
        .select_columns(["image_id", "alignment", "is_aligned"]).to_pandas()
    out["alignment"] = out["alignment"].round(6)
    return out.sort_values("image_id").reset_index(drop=True)


def image_features(sf_dir: str):
    """Multimodal feature extraction (decode → mean RGB, luminance stats,
    histogram, phash recompute) over the image table. Oracled: the
    fixture's golden feature-label columns back the SQL side, so the
    driver hash-compares values; per-pixel correctness is additionally
    gated in tests/test_image_ops.py."""
    import ray.data as rd

    from data_quality_ray.stages.image_ops import extract_image_features

    ds = rd.read_parquet(_image_fixture(sf_dir))
    return extract_image_features(ds, concurrency=(1, 4)).select_columns(
        ["image_id", "lum_mean", "lum_std", "phash_recomputed"]
    )


def image_quality_extended(sf_dir: str):
    """Extended image-quality signals: decoded-pixel sharpness
    (Laplacian variance) + luminance entropy from the feature stage, and
    metadata-only geometry flags (too_small / bad_aspect) that run
    without any decode. Oracle = golden label columns + SQL-side flag
    derivation from the label table's w/h."""
    import ray.data as rd

    from data_quality_ray.stages.image_ops import extract_image_features, geometry_flags

    ds = rd.read_parquet(_image_fixture(sf_dir))
    feats = extract_image_features(ds, concurrency=(1, 4))
    return geometry_flags(feats).select_columns(
        ["image_id", "sharpness", "entropy", "too_small", "bad_aspect"]
    )


def best_of_cluster_images(sf_dir: str):
    """Best-of-cluster image survivorship: per exact-phash near-dup
    cluster keep the SHARPEST image (recomputed from decoded pixels by
    the feature stage), ties by image_id — keep-highest-quality dedup,
    the web-scale alternative to keep-first (dedup/exact.keep_best_by).
    Oracle: the golden label table replays max-rounded-sharpness/min-id
    per phash."""
    import ray.data as rd

    from data_quality_ray.dedup.exact import keep_best_by
    from data_quality_ray.stages.image_ops import extract_image_features

    ds = rd.read_parquet(_image_fixture(sf_dir))
    feats = extract_image_features(ds, concurrency=(1, 4))
    return keep_best_by(feats, "phash", "sharpness", "image_id")


def phash_dedup_images(sf_dir: str):
    """phash-keyed exact near-dup collapse on the image table."""
    import ray.data as rd

    from data_quality_ray.dedup.exact import dedup_by_key

    ds = rd.read_parquet(_image_fixture(sf_dir), columns=["image_id", "phash"])
    return dedup_by_key(ds, key="phash", order_col="image_id")


def phash_neardup_images(sf_dir: str):
    """Image NEAR-dup pairs by phash Hamming distance ≤ 2 through the
    generic block-permutation candidate machinery (pigeonhole full
    recall with n_blocks=4 > threshold) — the oracle is an independent
    brute-force all-pairs xor+bit_count, so the hash compare checks the
    blocking scheme's completeness, not a replay."""
    import pandas as pd
    import ray.data as rd

    from data_quality_ray.dedup.simhash import hamming_candidates

    ds = rd.read_parquet(_image_fixture(sf_dir), columns=["image_id", "phash"])
    out = hamming_candidates(ds, "image_id", "phash",
                             hamming_threshold=2, n_blocks=4)
    out["hamming"] = out["hamming"].astype("int64")
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def cluster_safe_split_images(sf_dir: str):
    """Leakage-safe 80/10/10 split for the IMAGE corpus: the split key
    is the phash Hamming-<=2 near-dup CLUSTER label (pigeonhole block
    pairing + min-label components), so visually near-identical images
    never straddle train/valid — the image-side mirror of
    cluster_safe_split_docs. The SQL replays pairs (brute-force
    xor+bit_count), components AND the md5 hash split.
    → (image_id, cluster, split)."""
    import numpy as np
    import pandas as pd
    import ray
    import ray.data as rd

    from data_quality_ray.dedup.minhash import components
    from data_quality_ray.dedup.simhash import hamming_candidates
    from data_quality_ray.functions.broadcast import cached_get
    from data_quality_ray.sampling.splits import assign_split

    ds = rd.read_parquet(_image_fixture(sf_dir), columns=["image_id", "phash"])
    pairs = hamming_candidates(ds, "image_id", "phash",
                               hamming_threshold=2, n_blocks=4)
    if pairs.empty:
        comp = pd.DataFrame({"id": pd.Series(dtype="int64"),
                             "cluster": pd.Series(dtype="int64")})
    else:
        comp = components(pairs[["id_a", "id_b"]], "cluster_safe_split_images")
    # broadcast the (clustered ids only) label map; one streaming pass
    # assigns label = map.get(id, id) + the hash split of the label
    comp = comp.sort_values("id")
    ref = ray.put((comp["id"].to_numpy(), comp["cluster"].to_numpy()))

    def f(b: pd.DataFrame) -> pd.DataFrame:
        k, lbl = cached_get(ref)
        mine = b["image_id"].to_numpy()
        cluster = mine.copy()
        if len(k):
            pos = np.searchsorted(k, mine)
            ok = (pos < len(k)) & (k[np.minimum(pos, len(k) - 1)] == mine)
            cluster[ok] = lbl[pos[ok]]
        return pd.DataFrame({
            "image_id": mine, "cluster": cluster,
            "split": assign_split(cluster, {"train": 0.8, "valid": 0.1,
                                            "test": 0.1})})

    out = ds.map_batches(f, batch_format="pandas").to_pandas()
    return out.sort_values("image_id").reset_index(drop=True)


def dihedral_phash_images(sf_dir: str):
    """Rotation/mirror-invariant image dedup WITHOUT decoding a pixel:
    the 64-bit grid hash transforms under the dihedral group D4 as a
    pure bit permutation (stages/image_ops.dihedral_canonical), so
    canonical = min over the 8 variants is a flip/rotation-proof dedup
    key. Planted mirrored copies (every 50th image, id + 1e9, phash =
    the flip_h permutation — both engines derive them independently)
    must collapse onto their originals. The SQL replays the permutation
    algebra itself (bit explode × 512-row D4 permutation table × power
    fold), so this checks the bit math, not a replay of library output.
    → (image_id, canonical) survivors, sorted."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from data_quality_ray.dedup.exact import dedup_by_key
    from data_quality_ray.stages.image_ops import (D4_NAMES,
                                                   add_dihedral_canonical,
                                                   dihedral_variants)

    flip_idx = D4_NAMES.index("flip_h")

    def augment(b: pd.DataFrame) -> pd.DataFrame:
        # image_id = "img%09d"; mirrored copy = "mir%09d" (sorts AFTER
        # every original, so keep-first always keeps the original)
        num = b["image_id"].str.slice(3).astype(np.int64)
        m = (num % 50 == 0).to_numpy()
        if not m.any():
            return b[["image_id", "phash"]]
        flips = pd.DataFrame({
            "image_id": "mir" + b["image_id"].str.slice(3)[m],
            "phash": dihedral_variants(b["phash"].to_numpy()[m])
            [:, flip_idx].view(np.int64),
        })
        return pd.concat([b[["image_id", "phash"]], flips],
                         ignore_index=True)

    ds = rd.read_parquet(_image_fixture(sf_dir),
                         columns=["image_id", "phash"])
    aug = ds.map_batches(augment, batch_format="pandas")
    canon = add_dihedral_canonical(aug, "phash", "canonical")
    out = (dedup_by_key(canon, key="canonical", order_col="image_id")
           .to_pandas()[["image_id", "canonical"]])
    out["canonical"] = out["canonical"].astype("int64")
    return out.sort_values("image_id").reset_index(drop=True)


def _caption_search_sql() -> str:
    """Independent replay of caption_search: query token buckets via SQL
    md5 hashing of the RAW query strings (tokens inlined as VALUES from
    the shared CAPTION_QUERIES constant + tokenize contract), phash sign
    fold, cosine, 6-dp round BEFORE the row_number rank."""
    from data_quality_ray.stages.alignment import tokenize

    rows = []
    for qid in sorted(CAPTION_QUERIES):
        for t in tokenize(CAPTION_QUERIES[qid]):
            rows.append(f"('{qid}', '{t}')")
    values = ", ".join(rows)
    bits = ", ".join(f"({b}, {1 << b}::HUGEINT)" for b in range(64))
    return f"""
WITH L AS ({_f1_labels_sql("image_id, phash")}),
qt(qid, tok) AS (VALUES {values}),
tb AS (SELECT qid, CAST(md5_number_lower(tok) % 64 AS INT) AS b,
              CAST(count(*) AS DOUBLE) AS c
       FROM qt GROUP BY 1, 2),
tn AS (SELECT qid, sqrt(sum(c * c)) AS tn FROM tb GROUP BY 1),
u AS (SELECT image_id, phash::HUGEINT + CASE WHEN phash < 0
             THEN 18446744073709551616::HUGEINT ELSE 0::HUGEINT END AS u
      FROM L),
bits(b, p) AS (VALUES {bits}),
d AS (SELECT tb.qid, u.image_id,
             sum(c * (CAST((u.u // bits.p) % 2 AS DOUBLE) * 2 - 1)) AS dot
      FROM tb JOIN bits ON bits.b = tb.b CROSS JOIN u
      GROUP BY 1, 2),
s AS (SELECT d.qid AS query_id, d.image_id,
             round(dot / (tn.tn * 8.0), 6) AS alignment
      FROM d JOIN tn ON tn.qid = d.qid),
r AS (SELECT *, row_number() OVER (PARTITION BY query_id
          ORDER BY alignment DESC, image_id) AS rank FROM s)
SELECT query_id, image_id, alignment, CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= 10 ORDER BY query_id, rank"""


def _hard_negatives_sql(n_anchors: int = 4, k: int = 5) -> str:
    """Independent replay of hard_negatives: every caption re-embedded
    from its RAW string (SQL md5 bucket hashing, the caption_search
    contract), anchor = phash sign fold of the n smallest ids, 6-dp
    round before the rank, own-caption excluded."""
    bits = ", ".join(f"({b}, {1 << b}::HUGEINT)" for b in range(64))
    return f"""
WITH raw AS ({_f1_raw_sql("image_id, phash, caption")}),
anch AS (SELECT image_id AS anchor_id,
                phash::HUGEINT + CASE WHEN phash < 0
                    THEN 18446744073709551616::HUGEINT
                    ELSE 0::HUGEINT END AS u
         FROM raw ORDER BY image_id LIMIT {n_anchors}),
toks AS (SELECT image_id,
                unnest(list_filter(string_split_regex(
                    lower(coalesce(caption, '')), '\\s+'),
                    x -> x <> '')) AS tok
         FROM raw),
tb AS (SELECT image_id, CAST(md5_number_lower(tok) % 64 AS INT) AS b,
              CAST(count(*) AS DOUBLE) AS c
       FROM toks GROUP BY 1, 2),
tn AS (SELECT image_id, sqrt(sum(c * c)) AS tn FROM tb GROUP BY 1),
bits(b, p) AS (VALUES {bits}),
d AS (SELECT tb.image_id, anch.anchor_id,
             sum(c * (CAST((anch.u // bits.p) % 2 AS DOUBLE) * 2 - 1)) AS dot
      FROM tb JOIN bits ON bits.b = tb.b CROSS JOIN anch
      GROUP BY 1, 2),
s AS (SELECT d.anchor_id, d.image_id,
             round(dot / (tn.tn * 8.0), 6) AS alignment
      FROM d JOIN tn USING (image_id)
      WHERE d.image_id <> d.anchor_id),
r AS (SELECT *, row_number() OVER (PARTITION BY anchor_id
          ORDER BY alignment DESC, image_id) AS rank FROM s)
SELECT anchor_id, image_id, alignment, CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= {k} ORDER BY anchor_id, rank"""


def _sharding_sql(n_before: int = 8, n_after: int = 9) -> str:
    """Independent replay of the consistent-hash rings: ring points and
    key positions both re-derived via SQL md5 (nothing handed over);
    clockwise successor via ASOF JOIN on negated positions (max −pos ≤
    −key ⇔ min pos ≥ key), wraparound to the ring's first point."""
    from data_quality_ray.functions.sharding import REPLICAS, RING_MOD

    def ring(n, name):
        return f"""
{name} AS (SELECT CAST(md5_number_lower('shard|' || CAST(g.s AS VARCHAR)
                      || '|' || CAST(h.r AS VARCHAR)) % {RING_MOD}
                      AS BIGINT) AS pos, g.s AS shard
           FROM generate_series(0, {n - 1}) g(s),
                generate_series(0, {REPLICAS - 1}) h(r)),
{name}w AS (SELECT shard FROM {name} ORDER BY pos, shard LIMIT 1)"""

    def assign(ring_name, out):
        return f"""
(SELECT k.kp, coalesce(j.shard, (SELECT shard FROM {ring_name}w)) AS {out}
 FROM k ASOF LEFT JOIN (SELECT -pos AS np, shard FROM {ring_name}) j
   ON j.np <= -k.kp)"""

    return f"""
WITH {ring(n_before, 'r0')}, {ring(n_after, 'r1')},
k AS (SELECT CAST(md5_number_lower(CAST(o_orderkey AS VARCHAR))
                  % {RING_MOD} AS BIGINT) AS kp
      FROM orders),
a0 AS {assign('r0', 's0')},
a1 AS {assign('r1', 's1')}
SELECT CAST(a0.s0 AS BIGINT) AS shard_before,
       CAST(a1.s1 AS BIGINT) AS shard_after,
       CAST(count(*) AS BIGINT) AS n
FROM a0 JOIN a1 USING (kp)
GROUP BY 1, 2 ORDER BY 1, 2"""


def _bootstrap_sql() -> str:
    """Replays the deterministic Poisson bootstrap: the SAME integer
    inverse-CDF thresholds (shared constant), md5 % 2^53 bucket per
    (row key, replicate), int64 weight/cents sums — the only float op is
    the final division, identical on both engines."""
    from data_quality_ray.profiling.bootstrap import (B_REPLICATES,
                                                      POISSON_THRESHOLDS)

    ladder = " + ".join(f"(CASE WHEN m >= {t} THEN 1 ELSE 0 END)"
                        for t in POISSON_THRESHOLDS)
    return f"""
WITH reps(b) AS (SELECT unnest(generate_series(0, {B_REPLICATES - 1}))),
r AS (SELECT CAST(l_orderkey AS VARCHAR) || '|' ||
             CAST(l_linenumber AS VARCHAR) AS key,
             CAST(round(l_extendedprice * 100) AS BIGINT) AS cents
      FROM lineitem),
m AS (SELECT reps.b, r.cents,
             CAST(md5_number_lower(r.key || '|' || CAST(reps.b AS VARCHAR))
                  % 9007199254740992 AS BIGINT) AS m
      FROM r CROSS JOIN reps),
w AS (SELECT b, cents, {ladder} AS w FROM m),
a AS (SELECT b, sum(w) AS sw, sum(w * cents) AS swc FROM w GROUP BY 1)
SELECT CAST(b AS BIGINT) AS b, CAST(sw AS BIGINT) AS n_eff,
       round(CAST(swc AS DOUBLE) / CAST(sw AS DOUBLE) / 100.0, 6)
           AS mean_value
FROM a ORDER BY b"""


def _zorder_sql() -> str:
    """Replays the Morton key per row: exact integer bucketing
    ((x − min)·2^BITS // (max − min + 1)) and the bit interleave as a sum
    of (bit · 2^position) terms generated from the SAME BITS constant."""
    from data_quality_ray.functions.zorder import BITS

    terms = " + ".join(
        f"((bu // {1 << i}) % 2) * {1 << (2 * i + 1)} + "
        f"((bv // {1 << i}) % 2) * {1 << (2 * i)}" for i in range(BITS))
    return f"""
WITH b AS (SELECT min(l_partkey) AS umin, max(l_partkey) AS umax,
                  min(l_suppkey) AS vmin, max(l_suppkey) AS vmax
           FROM lineitem),
zc AS (SELECT ((l_partkey - umin) * {1 << BITS}) // (umax - umin + 1) AS bu,
              ((l_suppkey - vmin) * {1 << BITS}) // (vmax - vmin + 1) AS bv
       FROM lineitem, b)
SELECT CAST({terms} AS BIGINT) AS zval, CAST(count(*) AS BIGINT) AS n
FROM zc GROUP BY 1 ORDER BY zval"""


def _retrieval_eval_sql(n_anchors: int = 16) -> str:
    """Independent replay of retrieval_ranks: every caption re-embedded
    from its raw string, scored against the n smallest-id anchors' phash
    sign folds, own-caption rank = row_number over (score DESC, id)."""
    bits = ", ".join(f"({b}, {1 << b}::HUGEINT)" for b in range(64))
    return f"""
WITH raw AS ({_f1_raw_sql("image_id, phash, caption")}),
anch AS (SELECT image_id AS anchor_id,
                phash::HUGEINT + CASE WHEN phash < 0
                    THEN 18446744073709551616::HUGEINT
                    ELSE 0::HUGEINT END AS u
         FROM raw ORDER BY image_id LIMIT {n_anchors}),
toks AS (SELECT image_id,
                unnest(list_filter(string_split_regex(
                    lower(coalesce(caption, '')), '\\s+'),
                    x -> x <> '')) AS tok
         FROM raw),
tb AS (SELECT image_id, CAST(md5_number_lower(tok) % 64 AS INT) AS b,
              CAST(count(*) AS DOUBLE) AS c
       FROM toks GROUP BY 1, 2),
tn AS (SELECT image_id, sqrt(sum(c * c)) AS tn FROM tb GROUP BY 1),
bits(b, p) AS (VALUES {bits}),
d AS (SELECT tb.image_id, anch.anchor_id,
             sum(c * (CAST((anch.u // bits.p) % 2 AS DOUBLE) * 2 - 1)) AS dot
      FROM tb JOIN bits ON bits.b = tb.b CROSS JOIN anch
      GROUP BY 1, 2),
s AS (SELECT d.anchor_id, d.image_id,
             round(dot / (tn.tn * 8.0), 6) AS a
      FROM d JOIN tn USING (image_id)),
r AS (SELECT *, row_number() OVER (PARTITION BY anchor_id
          ORDER BY a DESC, image_id) AS rk FROM s)
SELECT anchor_id, a AS own_score, CAST(rk AS BIGINT) AS own_rank
FROM r WHERE image_id = anchor_id ORDER BY anchor_id"""


def _dihedral_sql() -> str:
    """Replays the D4 bit-permutation algebra in SQL: unsigned bit
    explode (hugeint power table), the 8×64 permutation table from the
    SAME `_D4_PERMS` constants, per-(image, variant) power fold, min →
    canonical, augmented mirrored rows (canonical(flip(h)) ==
    canonical(h) by the group property), keep-first dedup."""
    from data_quality_ray.stages.image_ops import _D4_PERMS

    base = _f1_raw_sql("image_id, phash")
    perm_rows = ", ".join(f"({t},{j},{int(_D4_PERMS[t, j])})"
                          for t in range(8) for j in range(64))
    pow_rows = ", ".join(f"({j},{1 << j}::HUGEINT)" for j in range(64))
    return f"""
WITH raw AS ({base}),
base AS (
  SELECT image_id,
         CASE WHEN phash < 0
              THEN phash::HUGEINT + 18446744073709551616::HUGEINT
              ELSE phash::HUGEINT END AS hu
  FROM raw),
pw(j, p) AS (VALUES {pow_rows}),
perms(t, j, src) AS (VALUES {perm_rows}),
bits AS (
  SELECT image_id, pw.j, ((hu // pw.p) % 2)::HUGEINT AS bit
  FROM base, pw),
var AS (
  SELECT b.image_id, pr.t, sum(b.bit * pw.p) AS v
  FROM bits b JOIN perms pr ON pr.src = b.j JOIN pw ON pw.j = pr.j
  GROUP BY 1, 2),
canon AS (SELECT image_id, min(v) AS c FROM var GROUP BY 1),
aug AS (
  SELECT image_id, c FROM canon
  UNION ALL
  SELECT 'mir' || substr(image_id, 4), c FROM canon
  WHERE CAST(substr(image_id, 4) AS BIGINT) % 50 = 0),
win AS (
  SELECT image_id, c,
         row_number() OVER (PARTITION BY c ORDER BY image_id) AS rn
  FROM aug)
SELECT image_id,
       CASE WHEN c >= 9223372036854775808::HUGEINT
            THEN (c - 18446744073709551616::HUGEINT)::BIGINT
            ELSE c::BIGINT END AS canonical
FROM win WHERE rn = 1 ORDER BY image_id
"""


def cross_run_phash_images(sf_dir: str):
    """Cross-run image near-dup screen through the persisted Hamming
    index (state/hamming_index.py): 'yesterday' = even image_ids'
    phashes committed as a generation, 'today' = odd image_ids screened
    for Hamming ≤ 2 in one streaming pass. Pigeonhole (4 blocks > radius
    2) makes the screen EXACT, so the oracle is an independent
    brute-force min-over-history xor+bit_count — it checks completeness
    of the block lookup, not a replay.
    → (image_id, min_hamming, known_neardup) for today's images."""
    import shutil
    import tempfile

    import pandas as pd
    import ray.data as rd

    from data_quality_ray.state.hamming_index import HammingIndex

    ds = rd.read_parquet(_image_fixture(sf_dir), columns=["image_id", "phash"])

    # image_id is a STRING ("img000000123") — split runs on the numeric tail
    def half(par):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            return b[b["image_id"].str[3:].astype("int64") % 2 == par]
        return f

    d = tempfile.mkdtemp(prefix="dq_ph_idx_")
    try:
        idx = HammingIndex(d, radius=2, n_blocks=4)
        idx.commit(ds.map_batches(half(0), batch_format="pandas"),
                   sig_col="phash")
        out = (idx.screen(ds.map_batches(half(1), batch_format="pandas"),
                          sig_col="phash")
               .to_pandas())
    finally:
        shutil.rmtree(d, ignore_errors=True)
    return (out[["image_id", "min_hamming", "known_neardup"]]
            .sort_values("image_id").reset_index(drop=True))


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # flagship + scrub (full SQL oracle)
        "quality_filter_docs": Q.quality_filter_docs,
        # end-to-end text flagship: filter+scrub → dedup → pack, composed
        "text_pipeline_docs": Q.text_pipeline_docs,
        "scrub_pii_docs": Q.scrub_pii_docs,
        "corpus_clean_docs": Q.corpus_clean_docs,
        # profiling / statistics
        "pricing_summary": Q.pricing_summary,
        "summary_orders": Q.summary_orders,
        "text_length_by_lang": Q.text_length_by_lang,
        "pattern_freq_customer": Q.pattern_freq_customer,
        "cardinality_exact": Q.cardinality_exact,
        "cardinality_hll_customer": Q.cardinality_hll_customer,
        "quantiles_tdigest_price": Q.quantiles_tdigest_price,
        "nested_profile_customer": Q.nested_profile_customer,
        "heavy_hitter_tokens_docs": Q.heavy_hitter_tokens_docs,
        "histogram_quantity": Q.histogram_quantity,
        "quantiles_price": Q.quantiles_price,
        "frequency_events": Q.frequency_events,
        "value_quality_customer": Q.value_quality_customer,
        "type_inference_docs": Q.type_inference_docs,
        # dedup / sampling / linkage / survivorship
        "dedup_exact_docs": Q.dedup_exact_docs,
        "reservoir_sample_lineitem": Q.reservoir_sample_lineitem,
        "knn_embeddings": Q.knn_embeddings,
        "ivf_store_knn_embeddings": Q.ivf_store_knn_embeddings,
        "pq_topk_embeddings": Q.pq_topk_embeddings,
        "ivfpq_store_embeddings": Q.ivfpq_store_embeddings,
        "ivfpq_residual_embeddings": Q.ivfpq_residual_embeddings,
        "matching_pairs_supplier": Q.matching_pairs_supplier,
        "blocking_fingerprint_part": Q.blocking_fingerprint_part,
        "golden_record_orders": Q.golden_record_orders,
        "survivorship_extended_orders": Q.survivorship_extended_orders,
        "customer_region_broadcast": Q.customer_region_broadcast,
        "embedding_neardup_pairs": Q.embedding_neardup_pairs,
        "events_hourly_window": Q.events_hourly_window,
        "events_sliding_window": Q.events_sliding_window,
        "asof_last_order_events": Q.asof_last_order_events,
        "range_join_orders_bands": Q.range_join_orders_bands,
        "revenue_by_nation": Q.revenue_by_nation,
        "bm25_search_docs": Q.bm25_search_docs,
        "paragraph_dedup_docs": Q.paragraph_dedup_docs,
        "boilerplate_removal_docs": Q.boilerplate_removal_docs,
        "temperature_mix_docs": Q.temperature_mix_docs,
        "tfidf_keywords_docs": Q.tfidf_keywords_docs,
        "kmeans_embeddings": Q.kmeans_embeddings,
        "kcenter_coreset_embeddings": Q.kcenter_coreset_embeddings,
        "mmr_select_embeddings": Q.mmr_select_embeddings,
        "range_partition_orders": Q.range_partition_orders,
        "homoglyph_dedup_docs": Q.homoglyph_dedup_docs,
        "url_canonical_docs": Q.url_canonical_docs,
        "url_dedup_docs": Q.url_dedup_docs,
        "domain_cap_docs": Q.domain_cap_docs,
        "fuzzy_decontaminate_docs": Q.fuzzy_decontaminate_docs,
        "campaign_overlap_events": Q.campaign_overlap_events,
        "supplier_pagerank": Q.supplier_pagerank,
        "triangle_coeff_part": Q.triangle_coeff_part,
        "link_prediction_part": Q.link_prediction_part,
        "zorder_layout_lineitem": Q.zorder_layout_lineitem,
        "bootstrap_ci_lineitem": Q.bootstrap_ci_lineitem,
        "shard_rebalance_orders": Q.shard_rebalance_orders,
        "fs_linkage_customers": Q.fs_linkage_customers,
        "fs_entity_resolution_customers": Q.fs_entity_resolution_customers,
        "neardup_cluster_stats_docs": Q.neardup_cluster_stats_docs,
        "global_rank_orders": Q.global_rank_orders,
        "embedding_covariance": Q.embedding_covariance,
        "substring_dedup_docs": Q.substring_dedup_docs,
        "grouped_quantiles_orders": Q.grouped_quantiles_orders,
        "window_analytics_orders": Q.window_analytics_orders,
        "semi_anti_join_customers": Q.semi_anti_join_customers,
        "top_orders_per_customer": Q.top_orders_per_customer,
        "dsir_select_docs": Q.dsir_select_docs,
        "session_windows_events": Q.session_windows_events,
        "funnel_conversion_events": Q.funnel_conversion_events,
        "json_extract_events": Q.json_extract_events,
        "retention_cohorts_events": Q.retention_cohorts_events,
        "bpe_tokens_docs": Q.bpe_tokens_docs,
        "tumbling_daily_events": Q.tumbling_daily_events,
        "json_profile_events": Q.json_profile_events,
        # validation chains over synthesized columns
        "email_validate_customers": Q.email_validate_customers,
        "phone_e164_customers": Q.phone_e164_customers,
        "date_format_roundtrip": Q.date_format_roundtrip,
        "word_pattern_freq_part": Q.word_pattern_freq_part,
        "phonetic_keys_part": Q.phonetic_keys_part,
        # converters
        "julian_orders": Q.julian_orders,
        "chronology_convert_orders": Q.chronology_convert_orders,
        "distance_convert_part": Q.distance_convert_part,
        "token_stats_docs": Q.token_stats_docs,
        # model / sketch stages (each fully oracled: the SQL re-derives
        # the model/sketch from the same constants, see oracle_sql())
        "langid_heuristic_docs": Q.langid_heuristic_docs,
        "perplexity_docs": Q.perplexity_docs,
        "dup_char_collapse_docs": Q.dup_char_collapse_docs,
        "minhash_neardup_docs": Q.minhash_neardup_docs,
        # cross-run near-dup index: 'yesterday' (even doc_ids) committed
        # into the persisted LSH band-key store, 'today' (odd) screened
        "cross_run_neardup_docs": Q.cross_run_neardup_docs,
        # cross-run profile store: two day-partitions committed as
        # mergeable accumulator generations, cumulative profile = merge
        "cross_run_profile_orders": Q.cross_run_profile_orders,
        "cross_run_drift_orders": Q.cross_run_drift_orders,
        "window_rank_orders": Q.window_rank_orders,
        "window_value_orders": Q.window_value_orders,
        "skew_report_events": Q.skew_report_events,
        "grouped_sample_docs": Q.grouped_sample_docs,
        "tpch_q3_shipping": Q.tpch_q3_shipping,
        "moving_avg_events": Q.moving_avg_events,
        "simhash_docs": Q.simhash_docs,
        "simhash_pairs_docs": Q.simhash_pairs_docs,
        "simhash_dedup_docs": Q.simhash_dedup_docs,
        "ngram_jaccard_dedup_docs": Q.ngram_jaccard_dedup_docs,
        "containment_dedup_docs": Q.containment_dedup_docs,
        "budget_cap_docs": Q.budget_cap_docs,
        "winnow_fingerprints_docs": Q.winnow_fingerprints_docs,
        "bpe_token_stats_docs": Q.bpe_token_stats_docs,
        "gopher_repetition_docs": Q.gopher_repetition_docs,
        "hash_split_docs": Q.hash_split_docs,
        "cluster_safe_split_docs": Q.cluster_safe_split_docs,
        "stratified_sample_docs": Q.stratified_sample_docs,
        "pack_chunks_docs": Q.pack_chunks_docs,
        "pack_sequences_docs": Q.pack_sequences_docs,
        "decontaminate_docs": Q.decontaminate_docs,
        "decontaminate_bloom_docs": Q.decontaminate_bloom_docs,
        "c4_clean_docs": Q.c4_clean_docs,
        "quality_classifier_docs": Q.quality_classifier_docs,
        "semantic_dedup_embeddings": Q.semantic_dedup_embeddings,
        "dbscan_embeddings": Q.dbscan_embeddings,
        "sliding_chunks_docs": Q.sliding_chunks_docs,
        "chunk_dedup_docs": Q.chunk_dedup_docs,
        "cluster_safe_split_images": cluster_safe_split_images,
        "string_cluster_part": Q.string_cluster_part,
        "quality_filter_images": quality_filter_images,
        "phash_dedup_images": phash_dedup_images,
        "best_of_cluster_images": best_of_cluster_images,
        "phash_neardup_images": phash_neardup_images,
        "dihedral_phash_images": dihedral_phash_images,
        # cross-run image near-dup: yesterday's phashes committed into the
        # persisted Hamming index, today screened exactly (pigeonhole)
        "cross_run_phash_images": cross_run_phash_images,
        "image_features": image_features,
        "webdataset_roundtrip_images": webdataset_roundtrip_images,
        "caption_alignment_images": caption_alignment_images,
        "image_quality_extended": image_quality_extended,
        "dup_caption_images": dup_caption_images,
        "phash_topk_images": phash_topk_images,
        "multimodal_dedup_images": multimodal_dedup_images,
        "hamming_store_images": hamming_store_images,
        "caption_search_images": caption_search_images,
        "hard_negatives_images": hard_negatives_images,
        "retrieval_eval_images": retrieval_eval_images,
        "audio_quality_clips": audio_quality_clips,
        "video_frame_dedup": video_frame_dedup,
        "audio_fingerprint_dedup": audio_fingerprint_dedup,
        "image_embed_neardup": image_embed_neardup,
        "ar_bucket_batches_images": ar_bucket_batches_images,
        # relational completeness
        "pivot_orders": Q.pivot_orders,
        "rollup_revenue": Q.rollup_revenue,
        "global_top_orders": Q.global_top_orders,
        "outer_join_customer_events": Q.outer_join_customer_events,
        # snapshot CDC, two-table linkage, grouping sets, per-group top-k
        "snapshot_diff_orders": Q.snapshot_diff_orders,
        "fuzzy_join_customers": Q.fuzzy_join_customers,
        "cube_orders": Q.cube_orders,
        "top_tokens_per_lang": Q.top_tokens_per_lang,
        # distributed range-partitioned global sort (ORDER BY at scale)
        "curriculum_order_docs": Q.curriculum_order_docs,
        # table-level DQ rules (profiling/datarules.py)
        "correlation_lineitem": Q.correlation_lineitem,
        "regression_by_flag_lineitem": Q.regression_by_flag_lineitem,
        "impute_value_events": Q.impute_value_events,
        "entropy_profile": Q.entropy_profile,
        "benford_price_lineitem": Q.benford_price_lineitem,
        "outlier_iqr_lineitem": Q.outlier_iqr_lineitem,
        "mad_outliers_events": Q.mad_outliers_events,
        "markov_transitions_events": Q.markov_transitions_events,
        "copurchase_lift_lineitem": Q.copurchase_lift_lineitem,
        "skyline_parts": Q.skyline_parts,
        "bigram_pmi_docs": Q.bigram_pmi_docs,
        "hybrid_rrf_docs": Q.hybrid_rrf_docs,
        "rate_anomalies_events": Q.rate_anomalies_events,
        "trimmed_mean_lineitem": Q.trimmed_mean_lineitem,
        "mutual_info_orders": Q.mutual_info_orders,
        "k_anonymity_customer": Q.k_anonymity_customer,
        "chi_square_orders": Q.chi_square_orders,
        "ewma_anomalies_events": Q.ewma_anomalies_events,
        "spearman_lineitem": Q.spearman_lineitem,
        "seeded_shuffle_docs": Q.seeded_shuffle_docs,
        "dp_counts_orders": Q.dp_counts_orders,
        "contract_check_customer": Q.contract_check_customer,
        "epoch_plan_docs": Q.epoch_plan_docs,
        "peak_rate_users_events": Q.peak_rate_users_events,
        "best_of_cluster_docs": Q.best_of_cluster_docs,
        "lang_mix_docs": Q.lang_mix_docs,
        "logreg_lineitem": Q.logreg_lineitem,
        "kcore_parts": Q.kcore_parts,
        "strip_html_docs": Q.strip_html_docs,
        "source_contamination_docs": Q.source_contamination_docs,
        "nfc_normalize_docs": Q.nfc_normalize_docs,
        "domain_quality_prune_docs": Q.domain_quality_prune_docs,
        "calibration_docs": Q.calibration_docs,
        "fuzzy_lookup_customers": Q.fuzzy_lookup_customers,
        "readability_docs": Q.readability_docs,
        "source_divergence_docs": Q.source_divergence_docs,
        "mad_outliers_orders": Q.mad_outliers_orders,
        "correlation_matrix_lineitem": Q.correlation_matrix_lineitem,
        "apportioned_sample_docs": Q.apportioned_sample_docs,
        "rfm_segments_orders": Q.rfm_segments_orders,
        "domain_keep_ci_docs": Q.domain_keep_ci_docs,
        "cadence_users_events": Q.cadence_users_events,
        "cumulative_users_events": Q.cumulative_users_events,
        "gini_customer_spend": Q.gini_customer_spend,
        "acf_events": Q.acf_events,
        "pii_audit_docs": Q.pii_audit_docs,
        "scd2_orders": Q.scd2_orders,
        "domain_quality_report_docs": Q.domain_quality_report_docs,
        "uniqueness_profile_customer": Q.uniqueness_profile_customer,
        "fd_check_part": Q.fd_check_part,
        "referential_integrity": Q.referential_integrity,
        "weighted_sample_orders": Q.weighted_sample_orders,
        "grouped_weighted_sample_orders": Q.grouped_weighted_sample_orders,
        "temporal_consistency_lineitem": Q.temporal_consistency_lineitem,
        "langid_confusion_docs": Q.langid_confusion_docs,
        "classifier_eval_docs": Q.classifier_eval_docs,
        # filter-evaluation statistics (profiling/hypothesis.py)
        "ab_welch_events": Q.ab_welch_events,
        "ks_price_lineitem": Q.ks_price_lineitem,
        "emd_price_lineitem": Q.emd_price_lineitem,
        "cusum_changepoint_events": Q.cusum_changepoint_events,
        "kmv_overlap_events": Q.kmv_overlap_events,
        # schema-level dependency discovery + link analysis
        "hits_supplier_part": Q.hits_supplier_part,
        "ind_discovery": Q.ind_discovery,
        "cfd_check_orders": Q.cfd_check_orders,
        "auc_docs": Q.auc_docs,
        "kappa_docs": Q.kappa_docs,
        "percentile_norm_docs": Q.percentile_norm_docs,
        "snm_pairs_customers": Q.snm_pairs_customers,
        "snm_multipass_customers": Q.snm_multipass_customers,
        "ttr_sources_docs": Q.ttr_sources_docs,
        "ngram_novelty_docs": Q.ngram_novelty_docs,
        "source_overlap_docs": Q.source_overlap_docs,
        "sliding_distinct_users_events": Q.sliding_distinct_users_events,
        "rule_ablation_docs": Q.rule_ablation_docs,
        "char_entropy_docs": Q.char_entropy_docs,
        "source_concentration_docs": Q.source_concentration_docs,
        "auc_by_source_docs": Q.auc_by_source_docs,
        "behavior_entropy_users_events": Q.behavior_entropy_users_events,
        "decayed_engagement_users_events": Q.decayed_engagement_users_events,
        "late_events_events": Q.late_events_events,
        "seasonal_anomalies_events": Q.seasonal_anomalies_events,
        "grouped_tdigest_events": Q.grouped_tdigest_events,
        "rule_report_docs": Q.rule_report_docs,
        "zipf_fit_docs": Q.zipf_fit_docs,
        "catalog_overview": Q.catalog_overview,
        "source_quality_docs": Q.source_quality_docs,
        "drift_psi_orders": Q.drift_psi_orders,
        "grouped_cardinality_events": Q.grouped_cardinality_events,
        # curation-funnel / mixing / selection / LSH-eval (round 5)
        "unimax_mix_docs": Q.unimax_mix_docs,
        "uncertainty_sample_docs": Q.uncertainty_sample_docs,
        "minhash_eval_docs": Q.minhash_eval_docs,
        "curation_funnel_docs": Q.curation_funnel_docs,
    }


# ---------------------------------------------------------------------------
# oracle SQL — shares pattern constants with the library
# ---------------------------------------------------------------------------

_ORACLE_DIR = "/tmp/dq_oracle"


def _ensure_oracle_artifacts() -> None:
    """Write the deterministic side tables some oracles SELECT from:

    - ``ppl_corpus.parquet`` — the perplexity LM's training sentences
      (stages/corpus.training_sentences); the SQL re-trains the bigram
      model from scratch and re-scores every document independently.
    - the F1 image fixtures (with golden label tables) for every sf tier
      the driver may use: the image-query oracles SELECT the right
      ``_labels.parquet`` by matching ``documents`` row count, and all
      referenced paths must exist for DuckDB to bind the UNION.

    Idempotent (marker files). Fixture generation parallelizes over Ray
    when a session is up (the driver initialises one before importing us).
    """
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from data_quality_ray.sources.fixtures import write_f1

    os.makedirs(_ORACLE_DIR, exist_ok=True)
    marker = os.path.join(_ORACLE_DIR, "_DONE_v2")
    if not os.path.exists(marker):
        from data_quality_ray.stages.corpus import junk_sentences, training_sentences

        pq.write_table(pa.table({"s": pa.array(training_sentences(), type=pa.string())}),
                       os.path.join(_ORACLE_DIR, "ppl_corpus.parquet"))
        pq.write_table(pa.table({"s": pa.array(junk_sentences(), type=pa.string())}),
                       os.path.join(_ORACLE_DIR, "junk_corpus.parquet"))
        open(marker, "w").close()
    for n in _F1_SIZES:  # sf0.001/sf0.01 → 1000; sf0.1 → 10000
        write_f1(f"/tmp/dq_ray_f1_{n}", n_rows=n, seed=42, feature_labels=True)
    from data_quality_ray.sources.audio_fixtures import write_a1

    for n in _A1_SIZES:  # sf0.001/sf0.01 → 500; sf0.1 → 5000
        write_a1(f"/tmp/dq_ray_a1_{n}", n_rows=n, seed=42)
    from data_quality_ray.sources.video_fixtures import write_v1

    for n in _V1_SIZES:  # sf0.001/sf0.01 → 250; sf0.1 → 2500
        write_v1(f"/tmp/dq_ray_v1_{n}", n_rows=n, seed=42)
    _write_phonetic_goldens()
    _write_sem_centroids()
    _write_pq_codebooks()
    _write_ivfpq_residual_sidecars()
    _write_bpe_merges()


# keyed by the orders-table row count — the only per-tier-distinct
# cardinality among the registered views (documents/embeddings row counts
# collide across sf0.001 and sf0.01, whose contents differ)
_SEM_TIERS = ((1500, "sf0.001"), (15000, "sf0.01"), (150000, "sf0.1"))


def _write_sem_centroids() -> None:
    """Per-tier k-means centroid side tables for the SemDeDup oracle,
    trained by the SAME library code the Ray query uses
    (similarity/knn.train_ivf_centroids, n_lists=16, seed=11) so the SQL
    replays cluster assignment from identical values. All tier files must
    exist for DuckDB to bind the dispatch UNION."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    for key, sf in _SEM_TIERS:
        out = os.path.join(_ORACLE_DIR, f"sem_centroids_{key}.parquet")
        if os.path.exists(out):
            continue
        import ray.data as rd

        from data_quality_ray.similarity.knn import train_ivf_centroids

        ds = rd.read_parquet(f"/root/testdata/{sf}/embeddings.parquet",
                             columns=["embedding"])
        cent = train_ivf_centroids(ds, "embedding", n_lists=16)
        pq.write_table(
            pa.table({"cid": pa.array(range(len(cent)), type=pa.int64()),
                      "c": pa.array([row.tolist() for row in cent],
                                    type=pa.list_(pa.float64()))}),
            out)


def _write_bpe_merges() -> None:
    """Per-tier BPE merge side tables, trained by the SAME library code
    the Ray query uses (functions/bpe.train_bpe — deterministic: exact
    global counts, lexicographic ties), so the SQL replays the merge
    APPLICATION from identical constants while re-deriving the word
    counts and token totals from raw text itself. Learning is the
    driver-side fold over the word-frequency table (verified against a
    serial reference in pytest) — iterative, hence not SQL-expressible."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    for key, sf in _SEM_TIERS:
        out = os.path.join(_ORACLE_DIR, f"bpe_merges_{key}.parquet")
        if os.path.exists(out):
            continue
        import ray.data as rd

        from data_quality_ray.functions.bpe import train_bpe
        from data_quality_ray.pipelines.queries import BPE_MERGES

        ds = rd.read_parquet(f"/root/testdata/{sf}/documents.parquet",
                             columns=["text"])
        merges = train_bpe(ds, "text", BPE_MERGES)
        pq.write_table(
            pa.table({"rank": pa.array(range(len(merges)), type=pa.int64()),
                      "a": pa.array([m[0] for m in merges]),
                      "b": pa.array([m[1] for m in merges])}),
            out)


def _bpe_sql() -> str:
    """Replays BPE application end-to-end: word counts re-derived from
    raw text, the learned merges (sidecar constants) applied through ONE
    recursive CTE over spaced symbol strings — state (word, s, mi)
    advances mi when merge mi's pattern is absent, else replaces (the
    same literal ``" a b " → " ab "`` loop-until-absent the library
    uses) — then token totals and the (n desc, token) top-k."""
    from data_quality_ray.pipelines.queries import BPE_TOPK

    branches = " UNION ALL ".join(
        f"SELECT rank, a, b FROM read_parquet('{_ORACLE_DIR}/bpe_merges_{k}.parquet') "
        f"WHERE (SELECT count(*) FROM orders) = {k}" for k, _ in _SEM_TIERS)
    return f"""
WITH RECURSIVE merges AS (
  SELECT rank, ' ' || a || ' ' || b || ' ' AS pat, ' ' || a || b || ' ' AS rep
  FROM ({branches})),
wc AS (
  SELECT word, count(*) AS n FROM (
    SELECT unnest(list_filter(string_split_regex(lower(text), '\\s+'),
                              x -> x <> '')) AS word
    FROM documents) GROUP BY 1),
apply(word, n, s, mi) AS (
  SELECT word, n,
         ' ' || array_to_string(string_split(word, ''), ' ') || ' ' AS s,
         0 AS mi
  FROM wc
  UNION ALL
  SELECT a.word, a.n,
         CASE WHEN contains(a.s, m.pat) THEN replace(a.s, m.pat, m.rep)
              ELSE a.s END,
         CASE WHEN contains(a.s, m.pat) THEN a.mi ELSE a.mi + 1 END
  FROM apply a JOIN merges m ON m.rank = a.mi),
fin AS (SELECT word, n, s FROM apply
        WHERE mi = (SELECT count(*) FROM merges)),
tok AS (SELECT unnest(string_split(trim(s), ' ')) AS token, n FROM fin)
SELECT token, sum(n)::BIGINT AS n FROM tok GROUP BY 1
ORDER BY n DESC, token LIMIT {BPE_TOPK}
"""


def _write_pq_codebooks() -> None:
    """Per-tier product-quantization codebook side tables for the PQ
    oracle, trained by the SAME library code the Ray query uses
    (similarity/pq.pq_train, m=8, ksub=16, iters=2) so the SQL replays
    encoding and ADC search from identical centroid values."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    for key, sf in _SEM_TIERS:
        for kind in ("", "norm_"):
            out = os.path.join(_ORACLE_DIR, f"pq_codebooks_{kind}{key}.parquet")
            if os.path.exists(out):
                continue
            import numpy as np
            import pandas as pd
            import ray.data as rd

            from data_quality_ray.similarity.pq import normalize_batch, pq_train

            ds = rd.read_parquet(f"/root/testdata/{sf}/embeddings.parquet",
                                 columns=["vec_id", "embedding"])
            if kind:  # unit-normalized variant (the IVF-PQ store contract)
                def norm(b: pd.DataFrame) -> pd.DataFrame:
                    b = b.copy()
                    x = normalize_batch(
                        np.stack(b["embedding"].to_numpy()).astype(np.float64))
                    b["embedding"] = list(x)
                    return b

                ds = ds.map_batches(norm, batch_format="pandas")
            books = pq_train(ds, "vec_id", "embedding", m=8, ksub=16, iters=2)
            m, ksub, _ = books.shape
            pq.write_table(
                pa.table({
                    "j": pa.array([j for j in range(m) for _ in range(ksub)],
                                  type=pa.int64()),
                    "code": pa.array(list(range(ksub)) * m, type=pa.int64()),
                    "c": pa.array([books[j, c].tolist() for j in range(m)
                                   for c in range(ksub)],
                                  type=pa.list_(pa.float64())),
                }), out)


def _write_ivfpq_residual_sidecars() -> None:
    """Residual-IVF-PQ side tables: run the SAME build the Ray query runs
    (pq.build_ivfpq_store residual=True, n_lists=8, m=8, ksub=16,
    iters=2) per tier and persist its committed centroids + residual
    codebooks — the SQL replays assignment, residual encode, and the
    per-list ADC from these exact values."""
    import os
    import shutil
    import tempfile

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    for key, sf in _SEM_TIERS:
        cent_out = os.path.join(_ORACLE_DIR, f"ivfpq_cent_{key}.parquet")
        books_out = os.path.join(_ORACLE_DIR, f"pq_codebooks_res_{key}.parquet")
        if os.path.exists(cent_out) and os.path.exists(books_out):
            continue
        import ray.data as rd

        from data_quality_ray.similarity.pq import build_ivfpq_store

        ds = rd.read_parquet(f"/root/testdata/{sf}/embeddings.parquet",
                             columns=["vec_id", "embedding"])
        tmp = tempfile.mkdtemp(prefix="dq_ivfpq_side_")
        try:
            cent, books = build_ivfpq_store(ds, tmp, "vec_id", "embedding",
                                            n_lists=8, m=8, ksub=16, iters=2,
                                            residual=True)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        pq.write_table(
            pa.table({"cid": pa.array(range(len(cent)), type=pa.int64()),
                      "c": pa.array([r.tolist() for r in cent],
                                    type=pa.list_(pa.float64()))}), cent_out)
        m, ksub, _ = books.shape
        pq.write_table(
            pa.table({
                "j": pa.array([j for j in range(m) for _ in range(ksub)],
                              type=pa.int64()),
                "code": pa.array(list(range(ksub)) * m, type=pa.int64()),
                "c": pa.array([books[j, c].tolist() for j in range(m)
                               for c in range(ksub)],
                              type=pa.list_(pa.float64())),
            }), books_out)


def _write_phonetic_goldens() -> None:
    """Serial golden key tables for phonetic_keys_part, one per sf tier
    (dispatched by part-table row count). Same key functions as the Ray
    query — the oracle pins distributed == serial evaluation; algorithm
    parity with the reference lives in tests/test_reference_vectors.py."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from data_quality_ray.dedup.blocking import KEY_ALGOS
    from data_quality_ray.pipelines.queries import PHONETIC_ALGOS

    for sf_dir in sorted(glob.glob("/root/testdata/sf*")):
        part_path = os.path.join(sf_dir, "part.parquet")
        if not os.path.exists(part_path):
            continue
        tbl = pq.read_table(part_path, columns=["p_partkey", "p_name"])
        out = os.path.join(_ORACLE_DIR, f"phonetic_part_{tbl.num_rows}.parquet")
        if os.path.exists(out):
            continue
        names = tbl["p_name"].to_pylist()
        cols = {"p_partkey": tbl["p_partkey"]}
        for col, algo in PHONETIC_ALGOS:
            fn = KEY_ALGOS[algo]
            cols[col] = pa.array([fn(v, None) for v in names], type=pa.string())
        pq.write_table(pa.table(cols), out)


def _phonetic_part_sql() -> str:
    import glob
    import os
    import re

    files = sorted(glob.glob(os.path.join(_ORACLE_DIR, "phonetic_part_*.parquet")))
    pat = re.compile(r"_(\d+)[.]parquet$")
    branches = []
    for f in files:
        n = pat.search(f).group(1)
        branches.append(f"SELECT * FROM read_parquet('{f}')"
                        f" WHERE (SELECT count(*) FROM part) = {n}")
    return " UNION ALL ".join(branches)


def image_embed_neardup(sf_dir: str):
    """Multimodal composition: decode → 4-dim pixel-feature vector
    (lum_mean, lum_std, sharpness, entropy) → cosine near-dup pairs,
    bucketed by phash pigeonhole blocks (dedup/embedding.py
    neardup_pairs_blocked). The oracle recomputes every pair from the
    GOLDEN label features + bit-arithmetic block joins — so it checks
    the real decode, the feature kernels, and the pair logic
    independently, not a replay."""
    import numpy as np
    import ray.data as rd

    from data_quality_ray.dedup.embedding import neardup_pairs_blocked
    from data_quality_ray.stages.image_ops import extract_image_features

    ds = rd.read_parquet(_image_fixture(sf_dir))
    feats = extract_image_features(ds, concurrency=(1, 4))

    def pack_vec(b):
        b = b.copy()
        b["vec"] = list(np.stack([b["lum_mean"], b["lum_std"],
                                  b["sharpness"], b["entropy"]], axis=1))
        return b[["image_id", "vec", "phash"]]

    vecs = feats.map_batches(pack_vec, batch_format="pandas")
    return neardup_pairs_blocked(vecs, "image_id", "vec", "phash",
                                 threshold=0.9999, n_blocks=4)


def dup_caption_images(sf_dir: str):
    """Cross-modal duplicate screen: captions shared by >1 distinct image
    (the LAION-style "same caption, different pixels" drop rule). Caption
    cardinality ≈ corpus size, so the grouped count goes through the
    hash-bucketed shuffle final — nothing collects until the >1 filter
    has shrunk the result."""
    import ray.data as rd

    from data_quality_ray.profiling.groupagg import grouped_aggregate

    ds = rd.read_parquet(_image_fixture(sf_dir), columns=["image_id", "caption"])
    merged = grouped_aggregate(
        ds, ["caption"],
        {"n_images": ("", "count"), "keeper_id": ("image_id", "min")},
        final="shuffle")
    out = merged.map_batches(lambda b: b[b["n_images"] > 1],
                             batch_format="pandas").to_pandas()
    out["n_images"] = out["n_images"].astype("int64")
    return out.sort_values("caption").reset_index(drop=True)


def ar_bucket_batches_images(sf_dir: str):
    """Aspect-ratio bucketing + training-batch assembly (SDXL-style
    multi-resolution batches, stages/arbatch.py): dimensions varied
    deterministically from the numeric image id (w×(1+i%4), h×(1+i%3)),
    bucketed to the nearest ladder aspect (6-dp |Δ ln aspect| argmin),
    then per-bucket full batches of 8 in image_id order — one window
    exchange, trailing partials dropped. → (image_id, bucket_idx,
    bucket_w, bucket_h, batch_id, slot)."""
    import ray.data as rd

    from data_quality_ray.stages.arbatch import ar_bucket_batches

    ds = rd.read_parquet(_image_fixture(sf_dir), columns=["image_id", "w", "h"])

    def vary_dims(b):
        b = b.copy()
        idx = b["image_id"].str.slice(3).astype("int64").to_numpy()
        b["w"] = b["w"].to_numpy(dtype="int64") * (1 + idx % 4)
        b["h"] = b["h"].to_numpy(dtype="int64") * (1 + idx % 3)
        return b

    out = ar_bucket_batches(ds.map_batches(vary_dims, batch_format="pandas"),
                            batch_size=8, drop_last=True).to_pandas()
    for c in ("bucket_idx", "bucket_w", "bucket_h", "batch_id", "slot"):
        out[c] = out[c].astype("int64")
    return (out.sort_values(["bucket_idx", "batch_id", "slot"])
            .reset_index(drop=True))


def phash_topk_images(sf_dir: str):
    """Query-by-image Hamming top-k retrieval: the 4 smallest-id images
    query the whole table for their 10 nearest signatures (broadcast
    query sigs + fixed-size per-batch partials — no shuffle; see
    similarity/hamming.py). Oracle = brute-force xor+bit_count cross
    join with a row_number() window, so the hash compare checks the
    partial-merge top-k against an independent full scan.
    → (query_id, image_id, hamming, rank)."""
    import ray.data as rd

    from data_quality_ray.similarity.hamming import (hamming_topk,
                                                     smallest_id_sigs)

    ds = rd.read_parquet(_image_fixture(sf_dir), columns=["image_id", "phash"])
    qids, qsigs = smallest_id_sigs(ds, "image_id", "phash", 4)
    out = hamming_topk(ds, "image_id", "phash", qids, qsigs, k=10)
    out["hamming"] = out["hamming"].astype("int64")
    out["rank"] = out["rank"].astype("int64")
    return (out.sort_values(["query_id", "rank"]).reset_index(drop=True))


def multimodal_dedup_images(sf_dir: str):
    """LAION-style multimodal union dedup: images collapse if they match
    visually (phash Hamming ≤ 2, pigeonhole blocks) OR textually
    (identical caption, star edges) — connected components over the
    union edge set, every row labeled (cluster = min id, keep =
    representative). The SQL re-derives BOTH edge sets independently
    (brute-force bit_count cross join + caption self-join clique) and
    runs the recursive min-label CTE, so the compare checks the blocking
    scheme's completeness and the union connectivity, not a replay.
    → (image_id, cluster, keep)."""
    import ray.data as rd

    from data_quality_ray.dedup.multimodal import multimodal_dedup

    ds = rd.read_parquet(_image_fixture(sf_dir),
                         columns=["image_id", "phash", "caption"])
    return multimodal_dedup(ds, "image_id", "phash", "caption",
                            hamming_threshold=2, n_blocks=4)


CAPTION_QUERIES = {
    "q0": "sunset beach photo",
    "q1": "a dog playing in the park",
}


def caption_search_images(sf_dir: str):
    """Text→image retrieval: fixed query strings scored against every
    image's phash sign pattern through the alignment encoders (broadcast
    query matrix + fixed-size per-batch top-k partials — zero shuffle;
    stages/alignment.caption_search). The SQL re-derives the query
    embeddings from the RAW STRINGS (md5 bucket hashing in SQL) and
    ranks with a window — an independent replay, not a label read.
    → (query_id, image_id, alignment, rank)."""
    import ray.data as rd

    from data_quality_ray.stages.alignment import caption_search

    ds = rd.read_parquet(_image_fixture(sf_dir), columns=["image_id", "phash"])
    out = caption_search(ds, CAPTION_QUERIES, k=10)
    out["rank"] = out["rank"].astype("int64")
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


def hard_negatives_images(sf_dir: str):
    """Contrastive hard-negative mining: for the 4 smallest-id anchor
    images, the 5 foreign captions most aligned with each anchor's image
    embedding (stages/alignment.hard_negatives — broadcast anchor sign
    matrix, per-batch caption embedding + fixed-size top-k partials,
    zero shuffle). The SQL re-embeds every caption from the raw strings
    (md5 bucket hashing in SQL) — an independent replay.
    → (anchor_id, image_id, alignment, rank)."""
    import pandas as pd
    import ray.data as rd

    from data_quality_ray.similarity.hamming import smallest_id_sigs
    from data_quality_ray.stages.alignment import hard_negatives

    ds = rd.read_parquet(_image_fixture(sf_dir),
                         columns=["image_id", "caption", "phash"])
    aid, ph = smallest_id_sigs(ds, "image_id", "phash", 4)
    anchors = pd.DataFrame({"image_id": aid, "phash": ph})
    out = hard_negatives(ds, anchors, k=5)
    out["rank"] = out["rank"].astype("int64")
    return out.sort_values(["anchor_id", "rank"]).reset_index(drop=True)


def retrieval_eval_images(sf_dir: str):
    """Cross-modal retrieval eval: rank of each anchor image's OWN
    caption among all captions under the alignment score (the CLIP-eval
    median-rank/recall@k measurement; stages/alignment.retrieval_ranks —
    two shuffle-free passes with fixed-size partials). The SQL re-embeds
    every caption and takes the row_number of the own caption — an
    independent replay. → (anchor_id, own_score, own_rank)."""
    import pandas as pd
    import ray.data as rd

    from data_quality_ray.similarity.hamming import smallest_id_sigs
    from data_quality_ray.stages.alignment import retrieval_ranks

    ds = rd.read_parquet(_image_fixture(sf_dir),
                         columns=["image_id", "caption", "phash"])
    aid, ph = smallest_id_sigs(ds, "image_id", "phash", 16)
    out = retrieval_ranks(ds, pd.DataFrame({"image_id": aid, "phash": ph}))
    return out.sort_values("anchor_id").reset_index(drop=True)


def hamming_store_images(sf_dir: str):
    """Partition-pruned Hamming retrieval through the PERSISTED store
    (state/hamming_store.py — hive layout, one dir per (block, bucket)):
    build, screen the 4 smallest-id images at radius 2 (exact by
    pigeonhole), and assert the measured footer-level scan reduction.
    Oracle = independent brute-force xor+bit_count cross join.
    → (query_id, image_id, hamming)."""
    import shutil
    import tempfile

    import ray.data as rd

    from data_quality_ray.similarity.hamming import smallest_id_sigs
    from data_quality_ray.state.hamming_store import (
        build_hamming_store, hamming_store_matches, hamming_store_scan_stats)

    ds = rd.read_parquet(_image_fixture(sf_dir), columns=["image_id", "phash"])
    qids, qsigs = smallest_id_sigs(ds, "image_id", "phash", 4)
    store = tempfile.mkdtemp(prefix="dq_hamming_store_")
    try:
        build_hamming_store(ds, store, "image_id", "phash")
        out = hamming_store_matches(store, qids, qsigs, radius=2)
        stats = hamming_store_scan_stats(store, qsigs)
        if not (0 < stats["rows_scanned"] < stats["rows_total"]):
            raise AssertionError(f"hamming store did not prune: {stats}")
    finally:
        shutil.rmtree(store, ignore_errors=True)
    out["hamming"] = out["hamming"].astype("int64")
    return out


def _audio_fixture(sf_dir: str) -> str:
    """Deterministic audio-clip table sized to the sf tier (third
    modality; sources/audio_fixtures.py), cached under /tmp with a
    golden label table for the SQL side."""
    import duckdb

    from data_quality_ray.sources.audio_fixtures import write_a1

    n_docs = duckdb.sql(
        f"select count(*) from '{sf_dir}/documents.parquet'").fetchone()[0]
    n = max(500, int(n_docs))
    out = f"/tmp/dq_ray_a1_{n}"
    write_a1(out, n_rows=n, seed=42)
    return out


def audio_quality_clips(sf_dir: str):
    """Audio quality filter over the clip table: actor-pool decode +
    feature + rule-chain verdict (stages/audio.py — PCM never leaves the
    worker). Oracle = the fixture's golden feature/verdict labels (the
    image feature-label pattern); the feature math itself is pinned to
    hand-computed waveforms in tests/test_audio.py.
    → (clip_id, duration_sec, rms, peak, zcr, clipping_ratio,
    silence_ratio, verdict, first_rule)."""
    import glob

    import ray.data as rd

    from data_quality_ray.stages.audio import extract_audio_features

    files = sorted(glob.glob(_audio_fixture(sf_dir) + "/part-*.parquet"))
    ds = rd.read_parquet(files, columns=["clip_id", "bytes"])
    return extract_audio_features(ds, concurrency=4).select_columns(
        ["clip_id", "duration_sec", "rms", "peak", "zcr",
         "clipping_ratio", "silence_ratio", "verdict", "first_rule"])


def _video_fixture(sf_dir: str) -> str:
    """Deterministic FVID clip table sized to the sf tier with planted
    exact/near duplicates (sources/video_fixtures.py)."""
    import duckdb

    from data_quality_ray.sources.video_fixtures import write_v1

    n_docs = duckdb.sql(
        f"select count(*) from '{sf_dir}/documents.parquet'").fetchone()[0]
    n = max(250, int(n_docs) // 2)
    out = f"/tmp/dq_ray_v1_{n}"
    write_v1(out, n_rows=n, seed=42)
    return out


def video_frame_dedup(sf_dir: str):
    """Video dedup through the real sample→decode→phash path: the
    FrameSampleStage stub container (actor-pool, frames never leave the
    worker) feeds FrameSignatureStage's exact multi-frame key; keeper =
    min video_id per signature. Planted exact duplicates must collapse,
    one-frame near-duplicates must NOT. Oracle = golden signature labels
    + an INDEPENDENT SQL keeper derivation (group-min over the label
    sigs). → (video_id, n_frames, n_sampled, sig, keeper_id)."""
    import glob

    import ray.data as rd

    from data_quality_ray.profiling.groupagg import grouped_aggregate
    from data_quality_ray.stages.image_ops import (FrameSampleStage,
                                                   FrameSignatureStage)

    files = sorted(glob.glob(_video_fixture(sf_dir) + "/part-*.parquet"))
    ds = rd.read_parquet(files)
    sigged = (ds.map_batches(FrameSampleStage(4, "png", "video"),
                             batch_format="pyarrow", concurrency=4)
              .map_batches(FrameSignatureStage(), batch_format="pyarrow",
                           concurrency=4))
    out = sigged.select_columns(
        ["video_id", "n_frames", "sig", "n_sampled"]).to_pandas()
    # keeper map: sig keyspace ≈ #clips — driver final here; the shuffle
    # final is the documented scale route (grouped_aggregate contract)
    keep = grouped_aggregate(
        rd.from_pandas(out[["sig", "video_id"]]), ["sig"],
        {"keeper_id": ("video_id", "min")}, final="driver")
    out = out.merge(keep, on="sig")
    out["n_frames"] = out["n_frames"].astype("int64")
    return (out[["video_id", "n_frames", "n_sampled", "sig", "keeper_id"]]
            .sort_values("video_id").reset_index(drop=True))


def audio_fingerprint_dedup(sf_dir: str):
    """Audio near-dup collapse through the real decode→FFT→fingerprint
    path (stages/audio.audio_fingerprint: per-frame dominant-bin codes —
    noise- and level-robust, measured): planted re-noised copies (same
    program material, fresh noise, different bytes) MUST share the
    whole-clip key and collapse; keeper = min clip_id per key; clips too
    short to fingerprint are excluded. Oracle = golden fp_key labels +
    INDEPENDENT SQL keeper derivation. → (clip_id, n_fp_frames, fp_key,
    keeper_id)."""
    import glob

    import ray.data as rd

    from data_quality_ray.profiling.groupagg import grouped_aggregate
    from data_quality_ray.stages.audio import AudioFingerprintStage

    files = sorted(glob.glob(_audio_fixture(sf_dir) + "/part-*.parquet"))
    ds = rd.read_parquet(files, columns=["clip_id", "bytes"])
    fp = ds.map_batches(AudioFingerprintStage(), batch_format="pandas",
                        concurrency=4).to_pandas()
    fp = fp[fp["fp_key"].notna()].copy()
    fp["fp_key"] = fp["fp_key"].astype("int64")
    keep = grouped_aggregate(
        __import__("ray.data", fromlist=["data"]).from_pandas(
            fp[["fp_key", "clip_id"]]), ["fp_key"],
        {"keeper_id": ("clip_id", "min")}, final="driver")
    out = fp.merge(keep, on="fp_key")
    out["n_fp_frames"] = out["n_fp_frames"].astype("int64")
    return (out[["clip_id", "n_fp_frames", "fp_key", "keeper_id"]]
            .sort_values("clip_id").reset_index(drop=True))


_V1_SIZES = (250, 2500)
_A1_SIZES = (500, 5000)

# fixture sizes = max(500, 2·n_docs) over the shipped sf tiers
_F1_SIZES = (1000, 10000)


def _f1_labels_sql(select: str) -> str:
    """Dispatch ``select`` over the per-tier label tables: the branch whose
    fixture size matches the current ``documents`` view is the live one."""
    branches = " UNION ALL ".join(
        f"SELECT * FROM (SELECT {select} FROM read_parquet('/tmp/dq_ray_f1_{n}/_labels.parquet'))"
        f" WHERE (SELECT greatest(500, 2 * count(*)) FROM documents) = {n}"
        for n in _F1_SIZES
    )
    return branches


def _f1_raw_sql(select: str) -> str:
    """Same per-tier dispatch as ``_f1_labels_sql`` but over the raw F1
    data files (the ``part-*.parquet`` shards, not the label table)."""
    return " UNION ALL ".join(
        f"SELECT * FROM (SELECT {select} FROM read_parquet('/tmp/dq_ray_f1_{n}/part-*.parquet'))"
        f" WHERE (SELECT greatest(500, 2 * count(*)) FROM documents) = {n}"
        for n in _F1_SIZES
    )


def _best_of_cluster_sql() -> str:
    """Per-phash-cluster survivorship replay over the golden label table:
    max rounded sharpness, min image_id tie-break — the keep_best_by
    contract (dedup/exact.py)."""
    return " UNION ALL ".join(
        f"""SELECT * FROM (
              SELECT phash, round(sharpness, 6) AS sharpness, image_id
              FROM read_parquet('/tmp/dq_ray_f1_{n}/_labels.parquet')
              QUALIFY row_number() OVER (
                PARTITION BY phash
                ORDER BY round(sharpness, 6) DESC, image_id) = 1)
            WHERE (SELECT greatest(500, 2 * count(*)) FROM documents) = {n}"""
        for n in _F1_SIZES)


def _fd_sql(lhs: str, rhs: str) -> str:
    """g3-style FD check: pair counts → per-lhs rollup (mirrors
    profiling/datarules.fd_violations)."""
    return f"""
        SELECT '{lhs}->{rhs}' AS fd, count(*) AS n_groups,
               count(*) FILTER (WHERE n_rhs > 1) AS n_violating_groups,
               CAST(coalesce(sum(n_rows - max_n) FILTER (WHERE n_rhs > 1), 0)
                    AS BIGINT) AS g3_rows
        FROM (SELECT lhs, count(*) AS n_rhs, max(n) AS max_n, sum(n) AS n_rows
              FROM (SELECT {lhs} AS lhs, {rhs} AS rhs, count(*) AS n
                    FROM part GROUP BY 1, 2)
              GROUP BY lhs)"""


def _uniq_col_sql(col: str) -> str:
    return f"""
        SELECT '{col}' AS col, count(*) AS n,
               count(*) - count({col}) AS n_null,
               count(distinct {col}) AS n_distinct,
               round(count(distinct {col}) * 1.0 / count(*), 6) AS uniqueness,
               (count(*) = count({col}) AND count(distinct {col}) = count(*))
                   AS is_key
        FROM customer"""


def _ri_rule_sql(rule: str, child: str, child_key: str,
                 parent: str, parent_key: str) -> str:
    return f"""
        SELECT '{rule}' AS rule,
               (SELECT count(*) FROM {child}) AS n_child,
               (SELECT count(*) FROM {child} c
                WHERE c.{child_key} IS NOT NULL
                  AND NOT EXISTS (SELECT 1 FROM {parent} p
                                  WHERE p.{parent_key} = c.{child_key}))
                   AS n_orphans"""


_STOPS = ", ".join(f"'{w}'" for w in sorted(EN_STOPWORDS))
from data_quality_ray.rules.scrub import DEFAULT_TLDS  # noqa: E402

_TLDS_SQL = ", ".join(f"'{t}'" for t in sorted(DEFAULT_TLDS))
_TOXIC_RE_SQL = r"(?i)\b(?:" + "|".join(TOXIC_LEXICON) + r")\b"

_QUALITY_FILTER_DOCS_SQL = f"""
WITH toks AS (
  SELECT doc_id, unnest(list_filter(string_split_regex(lower(text), '\\s+'), x -> x <> '')) AS tok
  FROM documents
),
tok_counts AS (SELECT doc_id, tok, count(*) AS c FROM toks GROUP BY 1, 2),
tstats AS (
  SELECT doc_id, cast(sum(c) AS bigint) AS n_tok, max(c) AS max_c,
         cast(sum(CASE WHEN tok IN ({_STOPS}) THEN c ELSE 0 END) AS bigint) AS n_stop
  FROM tok_counts GROUP BY 1
),
m AS (
  SELECT d.doc_id, d.text, d.lang,
         length(d.text) AS len,
         length(regexp_replace(d.text, '\\s', '', 'g')) AS nonspace,
         length(regexp_replace(d.text, '[A-Za-z0-9\\s]', '', 'g')) AS syms,
         regexp_matches(d.text, '[0-9]') AS has_digit,
         regexp_full_match(d.text, '[0-9\\s.,/:+%-]+') AS all_junk,
         coalesce(t.n_tok, 0) AS n_tok, coalesce(t.max_c, 0) AS max_c,
         coalesce(t.n_stop, 0) AS n_stop
  FROM documents d LEFT JOIN tstats t USING (doc_id)
),
verdicts AS (
  SELECT doc_id, text,
    CASE
      WHEN text IS NULL OR trim(text) = '' THEN 'empty'
      WHEN len < {DOC_MIN_LEN} OR len > {DOC_MAX_LEN} THEN 'length'
      WHEN has_digit AND all_junk THEN 'junk_numeric'
      WHEN lang <> 'en' THEN 'langid'
      WHEN nonspace > 0 AND syms * 1.0 / greatest(nonspace, 1) > 0.3 THEN 'symbol_ratio'
      WHEN n_tok >= 6 AND max_c * 1.0 / greatest(n_tok, 1) >= 0.5 THEN 'repetition'
      WHEN n_tok >= 8 AND n_stop * 1.0 / greatest(n_tok, 1) < 0.08 THEN 'stopword_density'
      ELSE ''
    END AS drop_rule
  FROM m
),
scrubbed AS (
  SELECT doc_id, text, drop_rule,
    regexp_replace(text, '{_TOXIC_RE_SQL}', '****', 'g') AS s1
  FROM verdicts
),
s2t AS (SELECT *, regexp_replace(s1, '{EMAIL_PATTERN}', '<EMAIL>', 'g') AS s2 FROM scrubbed),
s3t AS (SELECT *, regexp_replace(s2, '{SSN_PATTERN}', '<SSN>', 'g') AS s3 FROM s2t),
s4t AS (SELECT *, regexp_replace(s3, '{PHONE_PATTERN}', '<PHONE>', 'g') AS s4 FROM s3t)
SELECT doc_id,
  (drop_rule = '') AS keep,
  CASE WHEN drop_rule <> '' THEN drop_rule
       WHEN s1 <> text THEN 'toxicity'
       WHEN s2 <> s1 THEN 'pii_email'
       WHEN s3 <> s2 THEN 'pii_ssn'
       WHEN s4 <> s3 THEN 'pii_phone'
       ELSE '' END AS first_rule,
  CASE WHEN drop_rule <> '' THEN text ELSE s4 END AS scrubbed_text
FROM s4t
"""

_INT_RE_SQL = r"[-+]?([0-9]+|[0-9]{1,3}(,[0-9]{3})+)%?"
_DBL_RE_SQL = (r"[-+]?(([0-9]+|[0-9]{1,3}(,[0-9]{3})+)(\.[0-9]*)?"
               r"|([0-9]{1,3}(\.[0-9]{3})+)(,[0-9]*)?|\.[0-9]+)([eE][-+]?[0-9]+)?%?")


# --- langid heuristic, replicated in SQL (shares the marker sets) ----------

def _langid_sql(final_select: str = "SELECT lang_pred, count(*) AS n FROM pred GROUP BY 1",
                source: str = "SELECT doc_id, text, lang FROM documents") -> str:
    from data_quality_ray.stages.models import _LANG_MARKERS, _LANG_ORDER

    marker_lists = {
        lang: ", ".join(f"'{w}'" for w in sorted(_LANG_MARKERS[lang])) for lang in _LANG_ORDER
    }
    score_cols = ",\n        ".join(
        f"len(list_filter(toks, x -> list_contains([{marker_lists[lang]}], x))) AS s_{lang}"
        for lang in _LANG_ORDER
    )
    # strictly-greater argmax in _LANG_ORDER (ties → earlier language), 0 → unknown
    return f"""
    WITH src AS ({source}),
    t AS (
      SELECT doc_id, text, lang,
             length(regexp_replace(text, '[^\\x{{4e00}}-\\x{{9fff}}]', '', 'g')) AS cjk,
             length(replace(text, ' ', '')) AS nonsp,
             regexp_extract_all(lower(text), '\\p{{L}}+') AS toks
      FROM src),
    s AS (
      SELECT doc_id, text, lang, cjk, nonsp, len(toks) AS ntok,
        {score_cols}
      FROM t),
    pred AS (
      SELECT doc_id, lang, CASE
        WHEN text IS NULL OR text = '' THEN 'unknown'
        WHEN cjk > 0 AND cjk * 1.0 / greatest(nonsp, 1) > 0.2 THEN 'zh'
        WHEN ntok = 0 THEN 'unknown'
        WHEN s_en > 0 AND s_en >= greatest(s_es, s_fr, s_de) THEN 'en'
        WHEN s_es > 0 AND s_es >= greatest(s_fr, s_de) THEN 'es'
        WHEN s_fr > 0 AND s_fr >= s_de THEN 'fr'
        WHEN s_de > 0 THEN 'de'
        ELSE 'unknown' END AS lang_pred
      FROM s)
    {final_select}"""


# --- bigram-perplexity LM, re-trained and re-scored entirely in SQL --------

_PPL_SQL = f"""
WITH sents AS (
  SELECT row_number() OVER () AS sid, s
  FROM read_parquet('{_ORACLE_DIR}/ppl_corpus.parquet')),
stoks AS (
  SELECT sid, ['<s>'] || list_filter(string_split_regex(lower(s), '\\s+'), x -> x <> '') AS l
  FROM sents),
tx AS (SELECT sid, unnest(l) AS tok, unnest(generate_series(1, len(l))) AS i FROM stoks),
uni AS (SELECT tok, count(*) AS c FROM tx GROUP BY 1),
bi AS (
  SELECT a.tok AS prev, b.tok AS w, count(*) AS c
  FROM tx a JOIN tx b ON a.sid = b.sid AND b.i = a.i + 1 GROUP BY 1, 2),
vt AS (SELECT count(*) + 1 AS v FROM uni),
dt AS (
  SELECT doc_id, list_filter(string_split_regex(lower(text), '\\s+'), x -> x <> '') AS l
  FROM documents),
dx AS (SELECT doc_id, unnest(l) AS rawtok, unnest(generate_series(1, len(l))) AS i FROM dt),
mapped AS (
  SELECT d.doc_id, d.i, CASE WHEN u.tok IS NULL THEN '<unk>' ELSE d.rawtok END AS tok
  FROM dx d LEFT JOIN uni u ON u.tok = d.rawtok),
pairs AS (
  SELECT m.doc_id, coalesce(p.tok, '<s>') AS prev, m.tok AS w
  FROM mapped m LEFT JOIN mapped p ON p.doc_id = m.doc_id AND p.i = m.i - 1),
scored AS (
  SELECT doc_id,
         sum(ln((coalesce(bc.c, 0) + 0.1) / (coalesce(uc.c, 0) + 0.1 * (SELECT v FROM vt)))) AS lp,
         count(*) AS n
  FROM pairs
  LEFT JOIN bi bc ON bc.prev = pairs.prev AND bc.w = pairs.w
  LEFT JOIN uni uc ON uc.tok = pairs.prev
  GROUP BY doc_id)
SELECT d.doc_id,
       CASE WHEN s.n IS NULL THEN 'infinity'::DOUBLE ELSE round(exp(-s.lp / s.n), 4) END AS ppl
FROM documents d LEFT JOIN scored s USING (doc_id)
"""

# --- DBSCAN -------------------------------------------------------------------
# Ground truth computed INDEPENDENTLY of the blocked pair join: the FULL
# brute-force eps-pair set (every vec_id pair cosine-tested — so a missing
# block-pair task fails the hash compare), then the deterministic label
# rules: core = |N_eps| incl. self >= min_pts, clusters = min-label
# components of the core-core graph, border = min core-neighbor label,
# noise = -1. Constants shared with pipelines/queries.dbscan_embeddings
# (eps 0.65 -> sim floor 0.35, min_pts 4); 6-dp round-then-threshold on
# BOTH sides per the repo float contract.

_DBSCAN_SQL = r"""
WITH RECURSIVE v AS (SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings),
p AS (SELECT a.vec_id AS id_a, b.vec_id AS id_b
      FROM v a JOIN v b ON a.vec_id < b.vec_id
      WHERE round(list_cosine_similarity(a.e, b.e), 6) >= 0.35),
deg AS (SELECT id, count(*) AS d
        FROM (SELECT id_a AS id FROM p UNION ALL SELECT id_b AS id FROM p)
        GROUP BY 1),
core AS (SELECT v.vec_id AS id FROM v LEFT JOIN deg ON deg.id = v.vec_id
         WHERE coalesce(deg.d, 0) + 1 >= 4),
ce AS (SELECT id_a, id_b FROM p
       WHERE id_a IN (SELECT id FROM core) AND id_b IN (SELECT id FROM core)),
e2 AS (SELECT id_a AS u, id_b AS w FROM ce UNION SELECT id_b, id_a FROM ce),
cc(id, lbl) AS (SELECT id, id FROM core
                UNION
                SELECT e.w, cc.lbl FROM cc JOIN e2 e ON e.u = cc.id),
lab AS (SELECT id, min(lbl) AS cluster FROM cc GROUP BY 1),
batt AS (
  SELECT x.bid AS id, min(lab.cluster) AS cluster FROM (
    SELECT id_a AS cid, id_b AS bid FROM p
     WHERE id_a IN (SELECT id FROM core) AND id_b NOT IN (SELECT id FROM core)
    UNION ALL
    SELECT id_b AS cid, id_a AS bid FROM p
     WHERE id_b IN (SELECT id FROM core) AND id_a NOT IN (SELECT id FROM core)
  ) x JOIN lab ON lab.id = x.cid GROUP BY 1)
SELECT v.vec_id,
       CASE WHEN lab.id IS NOT NULL THEN 'core'
            WHEN batt.id IS NOT NULL THEN 'border'
            ELSE 'noise' END AS role,
       CAST(coalesce(lab.cluster, batt.cluster, -1) AS BIGINT) AS cluster
FROM v LEFT JOIN lab ON lab.id = v.vec_id
       LEFT JOIN batt ON batt.id = v.vec_id
ORDER BY v.vec_id
"""

# --- SemDeDup ----------------------------------------------------------------
# Assignment replayed from the side-table centroids (cosine argmax,
# cid-ASC tie-break == numpy first-max), pairs re-derived within clusters,
# components via the recursive min-label CTE, representatives = min id.


def _sem_dedup_sql(threshold: float = 0.2) -> str:
    branches = " UNION ALL ".join(
        f"SELECT cid, c FROM read_parquet('{_ORACLE_DIR}/sem_centroids_{k}.parquet') "
        f"WHERE (SELECT count(*) FROM orders) = {k}" for k, _ in _SEM_TIERS)
    return f"""
WITH RECURSIVE cent AS ({branches}),
av AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
asn AS (
  SELECT vec_id, v, cid AS ivf_list FROM (
    SELECT a.vec_id, a.v, c.cid,
           row_number() OVER (PARTITION BY a.vec_id
             ORDER BY list_cosine_similarity(a.v, c.c) DESC, c.cid ASC) AS rn
    FROM av a CROSS JOIN cent c) WHERE rn = 1),
pairs AS (
  SELECT a.vec_id AS id_a, b.vec_id AS id_b
  FROM asn a JOIN asn b ON a.ivf_list = b.ivf_list AND a.vec_id < b.vec_id
  WHERE round(list_cosine_similarity(a.v, b.v), 6) >= {threshold}),
nodes AS (SELECT id_a AS id FROM pairs UNION SELECT id_b FROM pairs),
edges AS (SELECT id_a AS u, id_b AS v FROM pairs
          UNION SELECT id_b, id_a FROM pairs),
cc(id, lbl) AS (SELECT id, id FROM nodes
                UNION SELECT e.v, cc.lbl FROM cc JOIN edges e ON e.u = cc.id),
comp AS (SELECT id, min(lbl) AS lbl FROM cc GROUP BY 1)
SELECT e.vec_id,
       coalesce(c.lbl, e.vec_id) AS sem_cluster,
       coalesce(c.lbl, e.vec_id) = e.vec_id AS keep
FROM embeddings e LEFT JOIN comp c ON c.id = e.vec_id
ORDER BY e.vec_id
"""


def _pq_topk_sql(m: int = 8, dsub: int = 8, k: int = 10,
                 normalized: bool = False) -> str:
    """Replays product quantization end-to-end from the side-table
    codebooks (trained by similarity/pq.pq_train — the same library code
    the Ray query runs): per-subspace encoding = argmin of the
    6-dp-rounded squared L2 (ties → lowest code), ADC = 6-dp-rounded sum
    of per-subspace squared distances to vec_id 0's sub-vectors, final
    order (adc, vec_id). ``normalized=True`` replays the IVF-PQ store
    contract: vectors unit-normalized (sqrt of list_inner_product — the
    same sum the library's normalize_batch computes) before encoding,
    against the ``norm_`` codebook side tables."""
    kind = "norm_" if normalized else ""
    branches = " UNION ALL ".join(
        f"SELECT j, code, c FROM read_parquet('{_ORACLE_DIR}/pq_codebooks_{kind}{key}.parquet') "
        f"WHERE (SELECT count(*) FROM orders) = {key}" for key, _ in _SEM_TIERS)
    vexpr = ("list_transform(embedding::DOUBLE[], x -> x / greatest("
             "sqrt(list_inner_product(embedding::DOUBLE[], embedding::DOUBLE[])),"
             " 1e-12))" if normalized else "embedding::DOUBLE[]")
    return f"""
WITH books AS ({branches}),
av AS (SELECT vec_id, {vexpr} AS v FROM embeddings),
sub AS (
  SELECT a.vec_id, s.j, a.v[(s.j * {dsub} + 1):(s.j * {dsub} + {dsub})] AS s
  FROM av a CROSS JOIN (SELECT unnest(range({m})) AS j) s),
enc AS (
  SELECT vec_id, j, code FROM (
    SELECT s.vec_id, s.j, b.code,
           row_number() OVER (PARTITION BY s.vec_id, s.j
             ORDER BY round(power(list_distance(s.s, b.c), 2), 6), b.code) AS rn
    FROM sub s JOIN books b ON b.j = s.j) WHERE rn = 1),
qsub AS (
  SELECT s.j, s.s FROM sub s JOIN av a ON a.vec_id = s.vec_id
  WHERE a.vec_id = 0),
lut AS (
  SELECT b.j, b.code, power(list_distance(q.s, b.c), 2) AS d2
  FROM books b JOIN qsub q ON q.j = b.j),
adc AS (
  SELECT e.vec_id, round(sum(l.d2), 6) AS adc
  FROM enc e JOIN lut l ON l.j = e.j AND l.code = e.code
  GROUP BY e.vec_id)
SELECT vec_id, adc,
       CAST(row_number() OVER (ORDER BY adc, vec_id) AS BIGINT) AS rank
FROM adc ORDER BY rank LIMIT {k}
"""


def _ivfpq_residual_sql(m: int = 8, dsub: int = 8, d: int = 64,
                        k: int = 10) -> str:
    """Replays residual IVF-PQ end-to-end from the side-table centroids
    and residual codebooks (both produced by the SAME
    pq.build_ivfpq_store run the Ray query executes): unit-normalize →
    coarse assignment (argmax inner product, ties lowest cid) →
    residual v − c → per-subspace encode (6-dp squared-L2 argmin, ties
    lowest code) → ADC with the PER-LIST lookup table built from
    q − c[list] → (adc, vec_id) order."""
    cent_branches = " UNION ALL ".join(
        f"SELECT cid, c FROM read_parquet('{_ORACLE_DIR}/ivfpq_cent_{key}.parquet') "
        f"WHERE (SELECT count(*) FROM orders) = {key}" for key, _ in _SEM_TIERS)
    book_branches = " UNION ALL ".join(
        f"SELECT j, code, c FROM read_parquet('{_ORACLE_DIR}/pq_codebooks_res_{key}.parquet') "
        f"WHERE (SELECT count(*) FROM orders) = {key}" for key, _ in _SEM_TIERS)
    norm = ("list_transform(embedding::DOUBLE[], x -> x / greatest("
            "sqrt(list_inner_product(embedding::DOUBLE[], embedding::DOUBLE[])),"
            " 1e-12))")
    return f"""
WITH cent AS ({cent_branches}),
books AS ({book_branches}),
av AS (SELECT vec_id, {norm} AS v FROM embeddings),
asn AS (
  SELECT vec_id, v, cid FROM (
    SELECT a.vec_id, a.v, c.cid,
           row_number() OVER (PARTITION BY a.vec_id
             ORDER BY list_inner_product(a.v, c.c) DESC, c.cid) AS rn
    FROM av a CROSS JOIN cent c) WHERE rn = 1),
res AS (
  SELECT a.vec_id, a.cid,
         list_transform(range(1, {d + 1}), i -> a.v[i] - c.c[i]) AS r
  FROM asn a JOIN cent c USING (cid)),
sub AS (
  SELECT r.vec_id, r.cid, s.j,
         r.r[(s.j * {dsub} + 1):(s.j * {dsub} + {dsub})] AS s
  FROM res r CROSS JOIN (SELECT unnest(range({m})) AS j) s),
enc AS (
  SELECT vec_id, cid, j, code FROM (
    SELECT s.vec_id, s.cid, s.j, b.code,
           row_number() OVER (PARTITION BY s.vec_id, s.j
             ORDER BY round(power(list_distance(s.s, b.c), 2), 6), b.code) AS rn
    FROM sub s JOIN books b ON b.j = s.j) WHERE rn = 1),
q AS (SELECT v FROM av WHERE vec_id = 0),
qres AS (
  SELECT c.cid,
         list_transform(range(1, {d + 1}), i -> q.v[i] - c.c[i]) AS qr
  FROM cent c CROSS JOIN q),
lut AS (
  SELECT qr.cid, b.j, b.code,
         power(list_distance(qr.qr[(b.j * {dsub} + 1):(b.j * {dsub} + {dsub})],
                             b.c), 2) AS d2
  FROM qres qr CROSS JOIN books b),
adc AS (
  SELECT e.vec_id, round(sum(l.d2), 6) AS adc
  FROM enc e JOIN lut l ON l.cid = e.cid AND l.j = e.j AND l.code = e.code
  GROUP BY e.vec_id)
SELECT vec_id, adc,
       CAST(row_number() OVER (ORDER BY adc, vec_id) AS BIGINT) AS rank
FROM adc ORDER BY rank LIMIT {k}
"""


# --- DSIR importance resampling ----------------------------------------------
# Re-derives the full DSIR math in SQL: hashed unigram+bigram bucket
# counts for the deterministic target subset (doc_id % MOD == 0) and the
# raw corpus, add-one-smoothed log probability ratio per bucket, per-doc
# weight = sum of feature log-ratios (round 6 BEFORE ranking — the
# bm25 round-before-rank convention), deterministic top-N by
# (weight desc, doc_id). Docs with zero features carry no evidence and
# are excluded on both sides.

def _dsir_sql() -> str:
    from data_quality_ray.pipelines.queries import (
        DSIR_BUCKETS as B, DSIR_SELECT_N as N, DSIR_TARGET_MOD as MOD)
    return f"""
WITH dt AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(coalesce(text, '')), '\\s+'),
                     x -> x <> '') AS l
  FROM documents),
feat AS (
  SELECT doc_id,
         unnest(l || list_transform(generate_series(1, len(l) - 1),
                                    i -> l[i] || ' ' || l[i+1])) AS f
  FROM dt),
tb AS (SELECT md5_number_lower(f) % {B} AS b, count(*) AS c
       FROM feat WHERE doc_id % {MOD} = 0 GROUP BY 1),
tt AS (SELECT count(*) AS t FROM feat WHERE doc_id % {MOD} = 0),
rb AS (SELECT md5_number_lower(f) % {B} AS b, count(*) AS c FROM feat GROUP BY 1),
rt AS (SELECT count(*) AS t FROM feat),
w AS (
  SELECT r.range AS b,
         ln((coalesce(tb.c, 0) + 1.0) / ((SELECT t FROM tt) + {B}))
         - ln((coalesce(rb.c, 0) + 1.0) / ((SELECT t FROM rt) + {B})) AS w
  FROM range({B}) r
  LEFT JOIN tb ON tb.b = r.range
  LEFT JOIN rb ON rb.b = r.range),
scored AS (
  SELECT d.doc_id, round(sum(w.w), 6) AS dsir_weight
  FROM feat d JOIN w ON w.b = md5_number_lower(d.f) % {B}
  GROUP BY 1)
SELECT doc_id, dsir_weight,
       row_number() OVER (ORDER BY dsir_weight DESC, doc_id) AS "rank"
FROM scored
QUALIFY "rank" <= {N}
ORDER BY "rank"
"""


# --- hashed linear quality classifier ---------------------------------------
# Re-trains the IDENTICAL model in SQL: unigram+bigram features from the
# two corpus side tables, md5 % 4096 buckets, add-one Naive-Bayes
# log-odds over a DENSE range(4096) weight vector (unseen buckets get the
# smoothed default), mean feature weight per doc, round half-away 6 dp.

_CLF_SQL = f"""
WITH ptoks AS (
  SELECT list_filter(string_split_regex(lower(s), '\\s+'), x -> x <> '') AS l
  FROM read_parquet('{_ORACLE_DIR}/ppl_corpus.parquet')),
ntoks AS (
  SELECT list_filter(string_split_regex(lower(s), '\\s+'), x -> x <> '') AS l
  FROM read_parquet('{_ORACLE_DIR}/junk_corpus.parquet')),
pfeat AS (
  SELECT unnest(l || list_transform(generate_series(1, len(l) - 1),
                                    i -> l[i] || ' ' || l[i+1])) AS f
  FROM ptoks),
nfeat AS (
  SELECT unnest(l || list_transform(generate_series(1, len(l) - 1),
                                    i -> l[i] || ' ' || l[i+1])) AS f
  FROM ntoks),
pb AS (SELECT md5_number_lower(f) % 4096 AS b, count(*) AS c FROM pfeat GROUP BY 1),
nb AS (SELECT md5_number_lower(f) % 4096 AS b, count(*) AS c FROM nfeat GROUP BY 1),
pt AS (SELECT count(*) AS t FROM pfeat),
nt AS (SELECT count(*) AS t FROM nfeat),
w AS (
  SELECT r.range AS b,
         ln((coalesce(pb.c, 0) + 1.0) / ((SELECT t FROM pt) + 4096))
         - ln((coalesce(nb.c, 0) + 1.0) / ((SELECT t FROM nt) + 4096)) AS w
  FROM range(4096) r
  LEFT JOIN pb ON pb.b = r.range
  LEFT JOIN nb ON nb.b = r.range),
dt AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(coalesce(text, '')), '\\s+'),
                     x -> x <> '') AS l
  FROM documents),
dfeat AS (
  SELECT doc_id,
         unnest(l || list_transform(generate_series(1, len(l) - 1),
                                    i -> l[i] || ' ' || l[i+1])) AS f
  FROM dt),
scored AS (
  SELECT d.doc_id, count(*) AS n_features, sum(w.w) AS sw
  FROM dfeat d JOIN w ON w.b = md5_number_lower(d.f) % 4096
  GROUP BY 1)
SELECT t.doc_id,
       coalesce(s.n_features, 0) AS n_features,
       coalesce(round(s.sw / s.n_features, 6), 0.0) AS quality_score,
       coalesce(round(s.sw / s.n_features, 6), 0.0) > 0 AS quality_label
FROM dt t LEFT JOIN scored s USING (doc_id) ORDER BY t.doc_id
"""


# --- DuplicateCharEraser (whitespace default) as char-wise list ops --------
# CRLF-unit runs are collapsed first (no backreference needed), then runs of
# an identical whitespace char keep only their first char. Matches the
# backref regex for every input whose whitespace runs are homogeneous (the
# general contract is vector-tested in tests/test_reference_vectors.py).
_DUP_WS_CLASS_SQL = (
    "[\\s\\x{85}\\x{a0}\\x{1680}\\x{180e}\\x{2000}-\\x{200a}"
    "\\x{2028}\\x{2029}\\x{202f}\\x{205f}\\x{3000}]"
)
_DUP_CHAR_SQL = f"""
WITH pre AS (
  SELECT doc_id,
         regexp_replace(text, '(\\r\\n)(\\r\\n)+', chr(13) || chr(10), 'g') AS t
  FROM documents),
chars AS (SELECT doc_id, t, string_split(t, '') AS cs FROM pre)
SELECT doc_id,
       array_to_string(
         list_filter(cs, (c, i) -> i = 1 OR c <> cs[i - 1]
                                   OR NOT regexp_matches(c, '^{_DUP_WS_CLASS_SQL}$')),
         '') AS collapsed
FROM chars
"""


# --- SimHash recomputed bit-for-bit in SQL (md5_number_lower tokens) -------

_SIMHASH_SQL = r"""
WITH dt AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(coalesce(text, '')), '\s+'), x -> x <> '') AS l
  FROM documents),
tok AS (SELECT doc_id, unnest(l) AS tok FROM dt),
h AS (SELECT doc_id, md5_number_lower(tok) AS hv FROM tok),
votes AS (
  SELECT doc_id, t.i, sum(CASE WHEN (hv >> t.i) & 1 = 1 THEN 1 ELSE -1 END) AS v
  FROM h, range(0, 64) t(i) GROUP BY 1, 2),
sig AS (
  SELECT doc_id,
         sum(CASE WHEN v > 0 THEN (1::UBIGINT << i)::HUGEINT ELSE 0::HUGEINT END) AS u
  FROM votes GROUP BY 1)
SELECT d.doc_id,
       CASE WHEN s.u IS NULL THEN 0
            WHEN s.u >= 9223372036854775808::HUGEINT
              THEN (s.u - 18446744073709551616::HUGEINT)::BIGINT
            ELSE s.u::BIGINT END AS simhash
FROM documents d LEFT JOIN sig s USING (doc_id)
"""


# --- SimHash candidate pairs: block explode + self-join + xor popcount ----
# (wraps _SIMHASH_SQL's signature replay; unsigned block values come from
# the HUGEINT two's-complement lift, hamming from xor() + bit_count() on
# the signed BIGINT — identical bit patterns either way)

_SIMHASH_PAIRS_SQL = (
    "WITH sigs AS (" + _SIMHASH_SQL + r"""),
u AS (
  SELECT doc_id, simhash,
         (CASE WHEN simhash < 0
               THEN simhash::HUGEINT + 18446744073709551616::HUGEINT
               ELSE simhash::HUGEINT END) AS uns
  FROM sigs),
blocks AS (
  -- DuckDB ^ is float pow; the 4 block divisors are spelled exactly
  SELECT doc_id, simhash, t.b AS block_id,
         ((uns // (CASE t.b WHEN 0 THEN 1::HUGEINT WHEN 1 THEN 65536::HUGEINT
                   WHEN 2 THEN 4294967296::HUGEINT
                   ELSE 281474976710656::HUGEINT END))
          % 65536::HUGEINT)::BIGINT AS block_val
  FROM u, range(0, 4) t(b)),
cand AS (
  SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b,
         bit_count(xor(a.simhash, b.simhash)) AS hamming
  FROM blocks a JOIN blocks b
    ON a.block_id = b.block_id AND a.block_val = b.block_val
   AND a.doc_id < b.doc_id)
SELECT id_a, id_b, CAST(hamming AS BIGINT) AS hamming
FROM cand WHERE hamming <= 3 ORDER BY id_a, id_b
""")


# --- SimHash near-dup collapse: pairs replay + recursive min-label ---------

_SIMHASH_DEDUP_SQL = (
    "WITH RECURSIVE verified AS (SELECT id_a, id_b FROM ("
    + _SIMHASH_PAIRS_SQL + r""")),
nodes AS (SELECT id_a AS id FROM verified UNION SELECT id_b FROM verified),
e2 AS (SELECT id_a AS u, id_b AS v FROM verified
       UNION SELECT id_b, id_a FROM verified),
cc(id, lbl) AS (
  SELECT id, id FROM nodes
  UNION
  SELECT e.v, cc.lbl FROM cc JOIN e2 e ON e.u = cc.id)
SELECT id AS doc_id, CAST(min(lbl) AS BIGINT) AS cluster
FROM cc GROUP BY 1 ORDER BY doc_id
""")


# --- exact n-gram Jaccard near-dup clusters (set-similarity join) ----------
# Ground truth computed INDEPENDENTLY of the Python prefix filter: every
# pair sharing >= 1 distinct shingle hash is Jaccard-tested (2c >= sa+sb-c
# is the integer-exact form of c/(sa+sb-c) >= 0.5), then min-label
# components — so a prefix-filter completeness bug fails the hash compare.
# Shingle + md5 semantics shared with dedup/minhash.py (k=3 word grams,
# whole-text gram when shorter, md5_number_lower == low half of md5).

_NGRAM_JACCARD_DEDUP_SQL = r"""
WITH RECURSIVE dt AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(coalesce(text, '')), '\s+'), x -> x <> '') AS toks
  FROM documents),
grams AS (
  SELECT doc_id, unnest(
    CASE WHEN len(toks) = 0 THEN []::VARCHAR[]
         WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
         ELSE list_transform(generate_series(1, len(toks) - 2),
                             i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])
    END) AS gram
  FROM dt),
gh AS (SELECT DISTINCT doc_id, md5_number_lower(gram) AS h FROM grams),
sizes AS (SELECT doc_id, count(*) AS n FROM gh GROUP BY 1),
cand AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
  FROM gh a JOIN gh b ON a.h = b.h AND a.doc_id < b.doc_id
  GROUP BY 1, 2),
verified AS (
  SELECT id_a, id_b FROM cand
  JOIN sizes sa ON sa.doc_id = cand.id_a
  JOIN sizes sb ON sb.doc_id = cand.id_b
  WHERE 2 * c >= sa.n + sb.n - c),
nodes AS (SELECT id_a AS id FROM verified UNION SELECT id_b FROM verified),
e2 AS (SELECT id_a AS u, id_b AS v FROM verified
       UNION SELECT id_b, id_a FROM verified),
cc(id, lbl) AS (
  SELECT id, id FROM nodes
  UNION
  SELECT e.v, cc.lbl FROM cc JOIN e2 e ON e.u = cc.id)
SELECT CAST(id AS BIGINT) AS doc_id, CAST(min(lbl) AS BIGINT) AS cluster
FROM cc GROUP BY 1 ORDER BY doc_id
"""


# --- n-gram CONTAINMENT dedup ------------------------------------------------
# Independent ground truth: exact containment |∩|/min over ALL shared-token
# pairs (no prefix filter — so the oracle checks the filter's COMPLETENESS),
# then the dominated fold: drop the smaller set (ties → larger id), report
# the smallest dominator. Threshold 0.8 == containment_dedup_docs.

_CONTAINMENT_DEDUP_SQL = r"""
WITH dt AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(coalesce(text, '')), '\s+'), x -> x <> '') AS toks
  FROM documents),
grams AS (
  SELECT doc_id, unnest(
    CASE WHEN len(toks) = 0 THEN []::VARCHAR[]
         WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
         ELSE list_transform(generate_series(1, len(toks) - 2),
                             i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])
    END) AS gram
  FROM dt),
gh AS (SELECT DISTINCT doc_id, md5_number_lower(gram) AS h FROM grams),
sizes AS (SELECT doc_id, count(*) AS n FROM gh GROUP BY 1),
cand AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
  FROM gh a JOIN gh b ON a.h = b.h AND a.doc_id < b.doc_id
  GROUP BY 1, 2),
verified AS (
  SELECT id_a, id_b, sa.n AS na, sb.n AS nb FROM cand
  JOIN sizes sa ON sa.doc_id = cand.id_a
  JOIN sizes sb ON sb.doc_id = cand.id_b
  WHERE c / least(sa.n, sb.n) >= 0.8),
dom AS (
  SELECT CASE WHEN na < nb THEN id_a WHEN nb < na THEN id_b
              ELSE greatest(id_a, id_b) END AS id,
         CASE WHEN na < nb THEN id_b WHEN nb < na THEN id_a
              ELSE least(id_a, id_b) END AS by
  FROM verified),
dmap AS (SELECT id, min(by) AS contained_in FROM dom GROUP BY 1)
SELECT d.doc_id,
       CAST(coalesce(s.n, 0) AS BIGINT) AS n_shingles,
       (dmap.id IS NULL) AS keep,
       CAST(coalesce(dmap.contained_in, -1) AS BIGINT) AS contained_in
FROM documents d
LEFT JOIN sizes s ON s.doc_id = d.doc_id
LEFT JOIN dmap ON dmap.id = d.doc_id
ORDER BY d.doc_id
"""


# --- BPE-style pre-tokenizer token stats -----------------------------------
# The pattern CONSTANTS are imported from the library (the shared-constant
# rule): one string drives Python re and RE2; SQL-quote by doubling "'".

def _bpe_token_sql() -> str:
    from data_quality_ray.functions.text import (
        BPE_NUM_PATTERN,
        BPE_SPACE_PATTERN,
        BPE_TOKEN_PATTERN,
        BPE_WORD_PATTERN,
    )

    def q(p: str) -> str:
        return p.replace("'", "''")

    return f"""
WITH t AS (SELECT doc_id, coalesce(text, '') AS s FROM documents),
tok AS (SELECT doc_id, regexp_extract_all(s, '{q(BPE_TOKEN_PATTERN)}') AS toks FROM t)
SELECT doc_id,
  CAST(len(toks) AS BIGINT) AS n_tokens,
  CAST(len(list_filter(toks, x -> regexp_matches(x, '^{q(BPE_WORD_PATTERN)}$'))) AS BIGINT) AS n_word,
  CAST(len(list_filter(toks, x -> regexp_matches(x, '^{q(BPE_NUM_PATTERN)}$'))) AS BIGINT) AS n_num,
  CAST(len(list_filter(toks, x -> regexp_matches(x, '^{q(BPE_SPACE_PATTERN)}$'))) AS BIGINT) AS n_space
FROM tok ORDER BY doc_id
"""


# --- deterministic hash splits ---------------------------------------------
# Boundaries 8000/9000 == sampling/splits.split_boundaries for 0.8/0.1/0.1.

_HASH_SPLIT_SQL = r"""
WITH b AS (SELECT doc_id,
                  md5_number_lower(CAST(doc_id AS VARCHAR)) % 10000 AS bk
           FROM documents)
SELECT doc_id,
       CASE WHEN bk < 8000 THEN 'train'
            WHEN bk < 9000 THEN 'valid'
            ELSE 'test' END AS split
FROM b ORDER BY doc_id
"""


# --- stratified training-mix sampling ---------------------------------------
# Per-source fraction (md5(source) % 51 + 25)/100 computed independently by
# both engines; threshold = fraction * 10000 == (h % 51 + 25) * 100 exactly
# (integer math, no float rounding to diverge on).

_STRATIFIED_SAMPLE_SQL = r"""
SELECT doc_id, source FROM documents
WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) % 10000
      < (md5_number_lower(source) % 51 + 25) * 100
ORDER BY doc_id
"""


# --- sequence packing --------------------------------------------------------
# Token count = n_chars (pure integers); the window SUM replays the Ray
# side's block-metadata prefix sum exactly, range(nc) explodes each doc to
# its chunks. Integer // division throughout — no float paths to diverge.

_PACK_CHUNKS_SQL = r"""
WITH d AS (
  SELECT doc_id, n_chars AS n_tok,
         CAST(coalesce(SUM(n_chars) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS st
  FROM documents),
a AS (
  SELECT doc_id, n_tok, st,
         CASE WHEN n_tok > 0
              THEN (st + n_tok - 1) // 512 - st // 512 + 1 ELSE 0 END AS nc
  FROM d),
e AS (SELECT doc_id, n_tok, st,
             st // 512 + unnest(range(nc)) AS chunk_id FROM a)
SELECT doc_id, chunk_id,
       greatest(chunk_id * 512, st) - st AS tok_start,
       least((chunk_id + 1) * 512, st + n_tok) - st AS tok_end
FROM e ORDER BY doc_id, chunk_id
"""


# Chunk assembly checksums: tokens never explode in SQL — the default
# token stand-in doc_id*1000003 + pos makes every per-chunk aggregate a
# closed-form arithmetic series over the assignment slices. Slice order
# inside a chunk == order by global doc start (st), distinct per slice.

_PACK_SEQUENCES_SQL = r"""
WITH d AS (
  SELECT doc_id, n_chars AS n_tok,
         CAST(coalesce(SUM(n_chars) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS st
  FROM documents),
a AS (
  SELECT doc_id, n_tok, st,
         CASE WHEN n_tok > 0
              THEN (st + n_tok - 1) // 512 - st // 512 + 1 ELSE 0 END AS nc
  FROM d),
e AS (SELECT doc_id, n_tok, st,
             st // 512 + unnest(range(nc)) AS chunk_id FROM a),
s AS (SELECT doc_id, st, chunk_id,
             greatest(chunk_id * 512, st) - st AS ts,
             least((chunk_id + 1) * 512, st + n_tok) - st AS te
      FROM e)
SELECT chunk_id,
       CAST(sum(te - ts) AS BIGINT) AS n_tok,
       CAST(sum((te - ts) * doc_id * 1000003
                + ((ts + te - 1) * (te - ts)) // 2) AS BIGINT) AS tok_sum,
       CAST(arg_min(doc_id * 1000003 + ts, st) AS BIGINT) AS first_tok,
       CAST(arg_max(doc_id * 1000003 + te - 1, st) AS BIGINT) AS last_tok
FROM s GROUP BY 1 ORDER BY chunk_id
"""


# --- train/test decontamination ----------------------------------------------
# Benchmark = every 97th doc, derived independently by both engines; gram
# semantics shared verbatim with the minhash shingle SQL (k=8). The SQL
# joins gram STRINGS where Python probes md5 hashes — equal modulo 64-bit
# collisions, which the small fixture cannot produce.

_DECONTAMINATE_SQL = r"""
WITH dt AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(coalesce(text, '')), '\s+'),
                     x -> x <> '') AS toks
  FROM documents),
grams AS (
  SELECT doc_id, unnest(
    CASE WHEN len(toks) = 0 THEN []::VARCHAR[]
         WHEN len(toks) < 8 THEN [array_to_string(toks, ' ')]
         ELSE list_transform(generate_series(1, len(toks) - 7),
                             i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]
                                  || ' ' || toks[i+3] || ' ' || toks[i+4]
                                  || ' ' || toks[i+5] || ' ' || toks[i+6]
                                  || ' ' || toks[i+7])
    END) AS gram
  FROM dt),
gset AS (SELECT DISTINCT doc_id, gram FROM grams),
bh AS (SELECT DISTINCT gram FROM gset WHERE doc_id % 97 = 0),
agg AS (
  SELECT g.doc_id, count(*) AS n_grams, count(b.gram) AS n_hits
  FROM gset g LEFT JOIN bh b ON g.gram = b.gram
  GROUP BY 1),
fr AS (
  SELECT d.doc_id,
         coalesce(a.n_grams, 0) AS n_grams,
         coalesce(a.n_hits, 0) AS n_hits,
         round(coalesce(a.n_hits, 0) * 1.0
               / greatest(coalesce(a.n_grams, 0), 1), 6) AS contam_frac
  FROM dt d LEFT JOIN agg a USING (doc_id))
SELECT doc_id, n_grams, n_hits, contam_frac,
       contam_frac >= 0.1 AS contaminated
FROM fr ORDER BY doc_id
"""


# --- C4-style line cleaning --------------------------------------------------
# Zip-unnest gives (index, line) pairs; trim set / word split / terminal
# set / blocklist mirror rules/heuristics.c4_line_clean verbatim; QUALIFY
# row_number keeps the first occurrence of a repeated kept line.

_C4_CLEAN_SQL = r"""
WITH t AS (SELECT doc_id, coalesce(text, '') AS s FROM documents),
ls AS (SELECT doc_id, s, string_split(s, chr(10)) AS lines FROM t),
ln AS (SELECT doc_id,
              unnest(generate_series(1, len(lines))) AS i,
              trim(unnest(lines), ' ' || chr(9) || chr(13)) AS line
       FROM ls),
kept AS (
  SELECT doc_id, i, line FROM ln
  WHERE len(list_filter(string_split_regex(line, '\s+'), x -> x <> '')) >= 3
    AND substr(line, length(line), 1) IN ('.', '!', '?', '"')
    AND position('{' IN line) = 0
    AND NOT contains(lower(line), 'lorem ipsum')
    AND NOT contains(lower(line), 'javascript')
  QUALIFY row_number() OVER (PARTITION BY doc_id, line ORDER BY i) = 1),
agg AS (SELECT doc_id, count(*) AS n_kept,
               string_agg(line, chr(10) ORDER BY i) AS cleaned_text
        FROM kept GROUP BY 1)
SELECT t.doc_id,
       CAST(len(string_split(t.s, chr(10))) AS BIGINT) AS n_lines,
       coalesce(a.n_kept, 0) AS n_kept,
       coalesce(a.cleaned_text, '') AS cleaned_text,
       coalesce(a.n_kept, 0) >= 1 AS keep_doc
FROM t LEFT JOIN agg a USING (doc_id) ORDER BY t.doc_id
"""


# --- Gopher-style repetition quality metrics -------------------------------
# Line-split via chr(10) == Python str.split("\n"); word tokens via the
# minhash \s+ split; top-gram tie-break = lexicographically smallest gram
# (UTF-8 byte order == code-point order on both engines). Ratios rounded
# half-away (DuckDB's mode) on BOTH sides — see heuristics.round_half_away.

_GOPHER_REPETITION_SQL = r"""
WITH t AS (SELECT doc_id, coalesce(text, '') AS s FROM documents),
lines AS (SELECT doc_id, unnest(string_split(s, chr(10))) AS line FROM t),
lc AS (SELECT doc_id, line, count(*) AS c FROM lines GROUP BY 1, 2),
lagg AS (SELECT doc_id,
                sum(c) AS n_lines,
                count(*) AS n_distinct,
                sum(CASE WHEN c > 1 THEN c * len(line) ELSE 0 END) AS dup_chars,
                sum(c * len(line)) AS tot_chars
         FROM lc GROUP BY 1),
toks AS (SELECT doc_id,
                list_filter(string_split_regex(s, '\s+'), x -> x <> '') AS tk,
                len(s) AS slen
         FROM t),
g2 AS (SELECT doc_id, unnest(
         CASE WHEN len(tk) < 2 THEN []::VARCHAR[]
              ELSE list_transform(generate_series(1, len(tk) - 1),
                                  i -> tk[i] || ' ' || tk[i+1]) END) AS gram
       FROM toks),
gc AS (SELECT doc_id, gram, count(*) AS c FROM g2 GROUP BY 1, 2),
gmax AS (SELECT doc_id, max(c) AS cmax FROM gc GROUP BY 1),
gtop AS (SELECT gc.doc_id, min(gc.gram) AS gram, gm.cmax
         FROM gc JOIN gmax gm ON gc.doc_id = gm.doc_id AND gc.c = gm.cmax
         GROUP BY 1, 3)
SELECT t.doc_id,
       round((lagg.n_lines - lagg.n_distinct) * 1.0 / lagg.n_lines, 6) AS dup_line_frac,
       round(CASE WHEN lagg.tot_chars = 0 THEN 0.0
                  ELSE lagg.dup_chars * 1.0 / lagg.tot_chars END, 6) AS dup_line_char_frac,
       round(coalesce(gtop.cmax * len(gtop.gram) * 1.0 / nullif(tk2.slen, 0), 0.0), 6)
         AS top_2gram_char_frac
FROM t
JOIN lagg ON lagg.doc_id = t.doc_id
LEFT JOIN toks tk2 ON tk2.doc_id = t.doc_id
LEFT JOIN gtop ON gtop.doc_id = t.doc_id
ORDER BY t.doc_id
"""


# --- winnowing (rolling-hash) document fingerprints ------------------------
# Replays dedup/winnow.py selection in SQL: md5 char-5-gram hashes, a
# grams x window-starts join, per-window min, rightmost tie-break
# (max(pos) among rows at the min), distinct selected positions. Single
# clipped window when a doc has fewer than w grams (greatest(n-3, 1)).

_WINNOW_FP_SQL = r"""
WITH dt AS (SELECT doc_id, lower(coalesce(text, '')) AS t FROM documents),
lens AS (SELECT doc_id, t, len(t) - 4 AS n FROM dt),
poss AS (SELECT doc_id, t,
                unnest(generate_series(1, CASE WHEN n < 1 THEN 0 ELSE n END)) AS pos
         FROM lens),
grams AS (SELECT doc_id, pos, md5_number_lower(substr(t, pos, 5)) AS h FROM poss),
gc AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY 1),
wins AS (SELECT doc_id, unnest(generate_series(1, greatest(n - 3, 1))) AS s FROM gc),
wj AS (SELECT w.doc_id, w.s, g.pos, g.h
       FROM wins w JOIN grams g
         ON g.doc_id = w.doc_id AND g.pos BETWEEN w.s AND w.s + 3),
wmin AS (SELECT doc_id, s, min(h) AS mh FROM wj GROUP BY 1, 2),
sel AS (SELECT wj.doc_id, max(wj.pos) AS pos, wmin.mh AS h
        FROM wj JOIN wmin
          ON wj.doc_id = wmin.doc_id AND wj.s = wmin.s AND wj.h = wmin.mh
        GROUP BY wj.doc_id, wj.s, wmin.mh),
fp AS (SELECT DISTINCT doc_id, pos, h FROM sel)
SELECT doc_id, CAST(pos AS BIGINT) AS pos,
       CASE WHEN h::HUGEINT >= 9223372036854775808::HUGEINT
            THEN (h::HUGEINT - 18446744073709551616::HUGEINT)::BIGINT
            ELSE h::BIGINT END AS fp
FROM fp ORDER BY doc_id, pos
"""


# --- fingerprint string clustering (OpenRefine key) over p_name ------------
# shares fingerprint semantics with functions/text.fingerprint_key_one:
# lower → strip accents → split [^a-z0-9]+ → distinct sorted tokens

_STRING_CLUSTER_SQL = r"""
WITH keyed AS (
  SELECT p_name AS value,
         coalesce(array_to_string(list_sort(list_distinct(list_filter(
             regexp_split_to_array(strip_accents(lower(coalesce(p_name, ''))),
                                   '[^a-z0-9]+'), x -> x <> ''))), ' '), '') AS cluster_key
  FROM part),
dv AS (SELECT DISTINCT value, cluster_key FROM keyed),
sizes AS (SELECT cluster_key, count(*) AS n FROM dv GROUP BY 1)
SELECT dv.value, dv.cluster_key, CAST(s.n AS BIGINT) AS n_values
FROM dv JOIN sizes s USING (cluster_key)
ORDER BY dv.value
"""


# --- MinHash+LSH near-dup clustering, replayed end-to-end in SQL -----------

def _minhash_bandk_cte(n_perm: int = 64, bands: int = 16,
                       shingle_size: int = 3, seed: int = 17,
                       source: str = "documents") -> str:
    """The shared MinHash band-key derivation (tokens → shingles → md5
    hashes → permuted signature → per-band "v|v|…" keys) as a CTE chain
    ending at ``bandk(doc_id, band_id, band_key)`` — used by the in-run
    near-dup oracle and the cross-run index oracle, which must agree on
    keys byte for byte (dedup/minhash.py md5 mode is the Python twin)."""
    from data_quality_ray.dedup.minhash import perm_coefficients

    a, b = perm_coefficients(n_perm, seed)
    params = ", ".join(f"({p}, {int(a[p])}, {int(b[p])})" for p in range(n_perm))
    rpb = n_perm // bands
    u64 = "18446744073709551616::HUGEINT"
    empty_key = "|".join(["18446744073709551615"] * rpb)
    return f"""params(p, a, b) AS (SELECT * FROM (VALUES {params})),
    dt AS (
      SELECT doc_id,
             list_filter(string_split_regex(lower(coalesce(text, '')), '\\s+'), x -> x <> '') AS toks
      FROM {source}),
    grams AS (
      SELECT doc_id, unnest(
        CASE WHEN len(toks) = 0 THEN []::VARCHAR[]
             WHEN len(toks) < {shingle_size} THEN [array_to_string(toks, ' ')]
             ELSE list_transform(generate_series(1, len(toks) - {shingle_size - 1}),
                                 i -> {" || ' ' || ".join(f"toks[i+{j}]" for j in range(shingle_size))})
        END) AS gram
      FROM dt),
    gset AS (SELECT DISTINCT doc_id, gram FROM grams),
    gh AS (SELECT doc_id, md5_number_lower(gram) AS h FROM gset),
    sig AS (
      SELECT doc_id, p.p AS perm,
             min((((p.a::HUGEINT * h::HUGEINT) % {u64} + p.b) % {u64})
                 % 2305843009213693951) AS mv
      FROM gh CROSS JOIN params p GROUP BY 1, 2),
    bandk AS (
      SELECT doc_id, perm // {rpb} AS band_id,
             string_agg(mv::UBIGINT::VARCHAR, '|' ORDER BY perm) AS band_key
      FROM sig GROUP BY 1, 2
      UNION ALL
      SELECT d.doc_id, t.i AS band_id, '{empty_key}' AS band_key
      FROM dt d, range(0, {bands}) t(i) WHERE len(d.toks) = 0)"""


def _minhash_sql(threshold: float = 0.5, n_perm: int = 64, bands: int = 16,
                 shingle_size: int = 3, seed: int = 17,
                 source: str = "documents",
                 final_select: str | None = None) -> str:
    bandk = _minhash_bandk_cte(n_perm, bands, shingle_size, seed, source)
    tail = ("\n    " + final_select) if final_select is not None \
        else _MINHASH_COMPONENT_TAIL
    return f"""
    WITH RECURSIVE {bandk},
    cand AS (
      SELECT DISTINCT x.doc_id AS id_a, y.doc_id AS id_b
      FROM bandk x JOIN bandk y
        ON x.band_id = y.band_id AND x.band_key = y.band_key AND x.doc_id < y.doc_id),
    gcnt AS (SELECT doc_id, count(*) AS n FROM gset GROUP BY 1),
    pair_inter AS (
      SELECT c.id_a, c.id_b, count(*) AS inter
      FROM cand c
      JOIN gset ga ON ga.doc_id = c.id_a
      JOIN gset gb ON gb.doc_id = c.id_b AND gb.gram = ga.gram
      GROUP BY 1, 2),
    verified AS (
      SELECT c.id_a, c.id_b
      FROM cand c
      LEFT JOIN pair_inter pi USING (id_a, id_b)
      LEFT JOIN gcnt na ON na.doc_id = c.id_a
      LEFT JOIN gcnt nb ON nb.doc_id = c.id_b
      WHERE CASE WHEN coalesce(na.n, 0) = 0 AND coalesce(nb.n, 0) = 0 THEN true
            ELSE coalesce(pi.inter, 0) * 1.0 /
                 greatest(coalesce(na.n, 0) + coalesce(nb.n, 0) - coalesce(pi.inter, 0), 1)
                 >= {threshold} END){tail}"""


_MINHASH_COMPONENT_TAIL = """,
    nodes AS (SELECT id_a AS id FROM verified UNION SELECT id_b FROM verified),
    edges AS (SELECT id_a AS u, id_b AS v FROM verified
              UNION SELECT id_b, id_a FROM verified),
    cc(id, lbl) AS (
      SELECT id, id FROM nodes
      UNION
      SELECT e.v, cc.lbl FROM cc JOIN edges e ON e.u = cc.id)
    SELECT id AS doc_id, min(lbl) AS cluster FROM cc GROUP BY 1"""


# --- chronology conversions recomputed in SQL ------------------------------

def _kcore_sql(k: int, rounds: int) -> str:
    """Unrolled peeling replay of functions/graph.kcore over the part
    co-order graph (same >= 2 pair-instance edge threshold as the
    triangle oracle)."""
    base = """SELECT a.l_partkey AS u, b.l_partkey AS v
            FROM lineitem a JOIN lineitem b
              ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
            GROUP BY 1, 2 HAVING count(*) >= 2"""
    # MATERIALIZED: each round references the previous edge set three
    # times; inlined CTEs would expand 3^rounds scans of lineitem.
    ctes = [f"e0 AS MATERIALIZED ({base})"]
    for r in range(1, rounds + 1):
        ctes.append(
            f"d{r} AS (SELECT id, count(*) AS d FROM (SELECT u AS id "
            f"FROM e{r-1} UNION ALL SELECT v FROM e{r-1}) GROUP BY 1)")
        ctes.append(f"k{r} AS (SELECT id FROM d{r} WHERE d >= {k})")
        ctes.append(
            f"e{r} AS MATERIALIZED (SELECT e.u, e.v FROM e{r-1} e "
            f"JOIN k{r} a ON e.u = a.id JOIN k{r} b ON e.v = b.id)")
    final = (f"SELECT id, CAST(count(*) AS BIGINT) AS deg FROM "
             f"(SELECT u AS id FROM e{rounds} UNION ALL "
             f"SELECT v FROM e{rounds}) GROUP BY 1 ORDER BY 1")
    return "WITH " + ",\n".join(ctes) + "\n" + final


def _strip_html_sql() -> str:
    """Wrap + extract replay sharing the functions/html.py constants."""
    from data_quality_ray.functions.html import (ENTITIES, SCRIPT_RE,
                                                 STYLE_RE, TAG_RE, WS_RE)

    ent_chain = "u"
    for ent, rep in ENTITIES:
        rep_sql = rep.replace("'", "''")
        ent_chain = f"replace({ent_chain}, '{ent}', '{rep_sql}')"
    return f"""
WITH w AS (
  SELECT doc_id,
    '<html><head><title>T</title>'
    || (CASE WHEN doc_id % 3 = 0 THEN
        '<script type="text/javascript">var x = 1 < 2;</script>'
        ELSE '' END)
    || (CASE WHEN doc_id % 5 = 0 THEN
        '<style>.c {{ color: red }}</style>' ELSE '' END)
    || '<body class="main"><h1>Doc ' || doc_id || '</h1><p>' || text
    || '</p><p>tail &amp; more&nbsp;text</p></body></html>' AS html
  FROM documents),
s AS (SELECT doc_id,
        regexp_replace(regexp_replace(regexp_replace(html,
          '{SCRIPT_RE}', ' ', 'g'), '{STYLE_RE}', ' ', 'g'),
          '{TAG_RE}', ' ', 'g') AS u
      FROM w)
SELECT doc_id,
       trim(regexp_replace({ent_chain}, '{WS_RE}', ' ', 'g')) AS text_clean
FROM s ORDER BY doc_id"""


def _logreg_sql():
    from data_quality_ray.similarity.logreg import logreg_fit_sql

    return logreg_fit_sql


def _best_of_text_cluster_sql() -> str:
    """Best-of-cluster text survivorship replay: the full MinHash
    clustering SQL joined to the full classifier-retrain SQL, per-cluster
    argmax by (quality_score desc, doc_id)."""
    return f"""
WITH comp AS ({_minhash_sql()}),
clf AS ({_CLF_SQL}),
j AS (SELECT c.cluster, c.doc_id, f.quality_score
      FROM comp c JOIN clf f USING (doc_id)),
r AS (SELECT *, row_number() OVER (PARTITION BY cluster
          ORDER BY quality_score DESC, doc_id) AS rn,
          count(*) OVER (PARTITION BY cluster) AS n_docs
      FROM j)
SELECT cluster, doc_id AS keeper_id, CAST(n_docs AS BIGINT) AS n_docs,
       quality_score AS best_score
FROM r WHERE rn = 1 ORDER BY cluster"""


def _neardup_stats_sql() -> str:
    """Cluster-size distribution replay: the full MinHash clustering SQL
    as a CTE, singleton row = corpus minus clustered docs."""
    comp = _minhash_sql()
    return f"""
WITH comp AS ({comp}),
sz AS (SELECT cluster, count(*) AS s FROM comp GROUP BY 1),
fof AS (SELECT s AS cluster_size, count(*) AS n_clusters FROM sz GROUP BY 1),
tot AS (SELECT count(*) AS total FROM documents),
single AS (
  SELECT 1 AS cluster_size,
         (SELECT total FROM tot) - coalesce((SELECT sum(s) FROM sz), 0)
             AS n_clusters
  WHERE (SELECT total FROM tot) > coalesce((SELECT sum(s) FROM sz), 0)),
allrows AS (
  SELECT cluster_size, sum(n_clusters) AS n_clusters
  FROM (SELECT * FROM fof UNION ALL SELECT * FROM single) GROUP BY 1)
SELECT CAST(cluster_size AS BIGINT) AS cluster_size,
       CAST(n_clusters AS BIGINT) AS n_clusters,
       CAST(cluster_size * n_clusters AS BIGINT) AS n_docs,
       round(cluster_size * n_clusters * 1.0 / (SELECT total FROM tot), 6)
           AS pct_of_corpus
FROM allrows ORDER BY cluster_size"""


def _cluster_safe_split_sql() -> str:
    """Leakage-safe split replay: the full MinHash clustering SQL
    (_minhash_sql) as a CTE body, label = coalesce(cluster, doc_id),
    split = md5_number_lower of the LABEL (hash_split contract)."""
    comp = _minhash_sql()
    return f"""
WITH comp AS ({comp}),
lbl AS (
  SELECT d.doc_id, coalesce(c.cluster, d.doc_id) AS cluster
  FROM documents d LEFT JOIN comp c USING (doc_id)),
b AS (SELECT doc_id, cluster,
             md5_number_lower(CAST(cluster AS VARCHAR)) % 10000 AS bk
      FROM lbl)
SELECT doc_id, cluster,
       CASE WHEN bk < 8000 THEN 'train'
            WHEN bk < 9000 THEN 'valid'
            ELSE 'test' END AS split
FROM b ORDER BY doc_id
"""


def _chronology_sql() -> str:
    from data_quality_ray.functions.chronology import _islamic_year_days

    # cumulative day offsets of year-in-cycle i (1..30) within the
    # 10631-day 30-year tabular cycle, and of month m within a year
    cums, acc = [], 0
    for i in range(1, 31):
        cums.append((i, acc))
        acc += _islamic_year_days(i)
    ytab = ", ".join(f"({i}, {c})" for i, c in cums)
    mcums, acc = [], 0
    for m in range(1, 13):
        mcums.append((m, acc))
        acc += 30 if m % 2 == 1 else 29
    mtab = ", ".join(f"({m}, {c})" for m, c in mcums)
    return f"""
    WITH ytab(i, ycum) AS (SELECT * FROM (VALUES {ytab})),
    mtab(m, mcum) AS (SELECT * FROM (VALUES {mtab})),
    base AS (
      SELECT o_orderkey, o_orderdate,
             julian(o_orderdate)::BIGINT - 1948440 AS hd
      FROM orders),
    cyc AS (SELECT *, hd // 10631 AS cycles, hd % 10631 AS rem FROM base),
    ysel AS (
      SELECT o_orderkey, max(i) AS yi
      FROM cyc JOIN ytab ON ytab.ycum <= cyc.rem GROUP BY 1),
    ypick AS (
      SELECT c.*, ysel.yi, ytab.ycum, c.rem - ytab.ycum AS rem2
      FROM cyc c JOIN ysel USING (o_orderkey) JOIN ytab ON ytab.i = ysel.yi),
    msel AS (
      SELECT o_orderkey, max(m) AS mi
      FROM ypick JOIN mtab ON mtab.mcum <= ypick.rem2 GROUP BY 1),
    hij AS (
      SELECT y.o_orderkey, y.o_orderdate,
             y.cycles * 30 + y.yi AS hy, msel.mi AS hm,
             y.rem2 - mtab.mcum + 1 AS hdy
      FROM ypick y JOIN msel USING (o_orderkey) JOIN mtab ON mtab.m = msel.mi)
    SELECT o_orderkey,
           lpad((year(o_orderdate) + 543)::VARCHAR, 4, '0')
             || strftime(o_orderdate, '-%m-%d') AS thai,
           lpad((year(o_orderdate) - 1911)::VARCHAR, 4, '0')
             || strftime(o_orderdate, '-%m-%d') AS minguo,
           lpad(hy::VARCHAR, 4, '0') || '-' || lpad(hm::VARCHAR, 2, '0')
             || '-' || lpad(hdy::VARCHAR, 2, '0') AS hijrah,
           lpad((year(o_orderdate) - CASE
                   WHEN o_orderdate >= DATE '2019-05-01' THEN 2019
                   WHEN o_orderdate >= DATE '1989-01-08' THEN 1989
                   WHEN o_orderdate >= DATE '1926-12-25' THEN 1926
                   WHEN o_orderdate >= DATE '1912-07-30' THEN 1912
                   ELSE 1868 END + 1)::VARCHAR, 4, '0')
             || strftime(o_orderdate, '-%m-%d') || ' ' || CASE
                   WHEN o_orderdate >= DATE '2019-05-01' THEN 'Reiwa'
                   WHEN o_orderdate >= DATE '1989-01-08' THEN 'Heisei'
                   WHEN o_orderdate >= DATE '1926-12-25' THEN 'Showa'
                   WHEN o_orderdate >= DATE '1912-07-30' THEN 'Taisho'
                   ELSE 'Meiji' END AS japanese
    FROM hij"""


def _range_bands_sql() -> str:
    from data_quality_ray.pipelines.queries import PRICE_BANDS

    vals = ", ".join(f"({lo}, {hi}, '{name}')" for lo, hi, name in PRICE_BANDS)
    return f"""
    WITH bands(lo, hi, band) AS (SELECT * FROM (VALUES {vals}))
    SELECT b.band, count(*) AS n, round(sum(o.o_totalprice), 2) AS sum_price
    FROM orders o JOIN bands b ON o.o_totalprice >= b.lo AND o.o_totalprice < b.hi
    GROUP BY 1"""


def _corpus_clean_sql() -> str:
    """filter+scrub (qf) → exact dedup on scrubbed text (ex) → drop
    near-dup cluster members that aren't their cluster root (the minhash
    replay runs over the ``ex`` intermediate as a correlated subquery —
    outer CTEs are visible inside it)."""
    return f"""
    WITH qf AS (SELECT * FROM ({_QUALITY_FILTER_DOCS_SQL})),
    kept AS (SELECT doc_id, scrubbed_text AS text FROM qf WHERE keep),
    ex AS (SELECT min(doc_id) AS doc_id, text FROM kept GROUP BY text)
    SELECT e.doc_id, e.text FROM ex e
    WHERE NOT EXISTS (
      SELECT 1 FROM ({_minhash_sql(source='ex')}) mh
      WHERE mh.doc_id = e.doc_id AND mh.cluster <> e.doc_id)"""


# chunk-reconstruction CTE shared by the two cross-doc line oracles:
# words of lower? no — exact words, split on \s+, grouped into
# CHUNK_WORDS-word lines in order (zip-unnest + integer division)
def _chunk_cte() -> str:
    from data_quality_ray.pipelines.queries import CHUNK_WORDS

    return f"""
        w AS (
          SELECT doc_id, unnest(l) AS w,
                 unnest(generate_series(1, len(l))) AS i
          FROM (SELECT doc_id,
                       list_filter(string_split_regex(coalesce(text, ''), '\\s+'),
                                   x -> x <> '') AS l
                FROM documents)),
        chunk AS (
          SELECT doc_id, (i - 1) // {CHUNK_WORDS} AS ci,
                 string_agg(w, ' ' ORDER BY i) AS line
          FROM w GROUP BY 1, 2)"""


def _paragraph_dedup_sql() -> str:
    return f"""
        WITH {_chunk_cte()},
        surv AS (
          SELECT doc_id, ci, line FROM chunk
          QUALIFY row_number() OVER (PARTITION BY line ORDER BY doc_id, ci) = 1)
        SELECT doc_id, count(*) AS n_kept,
               string_agg(line, chr(10) ORDER BY ci) AS text
        FROM surv GROUP BY 1"""


def _boilerplate_sql() -> str:
    from data_quality_ray.pipelines.queries import BOILER_MIN_DOCS

    return f"""
        WITH {_chunk_cte()},
        freq AS (SELECT line, count(DISTINCT doc_id) AS n_docs
                 FROM chunk GROUP BY 1),
        boiler AS (SELECT line FROM freq WHERE n_docs >= {BOILER_MIN_DOCS}),
        kept AS (SELECT doc_id, ci, line FROM chunk
                 WHERE line NOT IN (SELECT line FROM boiler)),
        agg AS (SELECT doc_id, count(*) AS n_kept,
                       string_agg(line, chr(10) ORDER BY ci) AS text
                FROM kept GROUP BY 1),
        nl AS (SELECT doc_id, count(*) AS n_lines FROM chunk GROUP BY 1)
        SELECT d.doc_id, coalesce(nl.n_lines, 1) AS n_lines,
               coalesce(nl.n_lines, 1) - coalesce(a.n_kept, 0) AS n_removed,
               coalesce(a.text, '') AS text
        FROM documents d
        LEFT JOIN nl USING (doc_id) LEFT JOIN agg a USING (doc_id)"""


def _temperature_mix_sql() -> str:
    """Replays the temperature-fraction math (pow → normalize → cap →
    round 4 dp) and the md5 bucket filter; the sum over source weights is
    tiny so engine sum-order differences die at the 4-dp rounding."""
    from data_quality_ray.pipelines.queries import MIX_TARGET_FRACTION, MIX_TEMPERATURE

    return f"""
        WITH n AS (SELECT source, count(*) AS n_s FROM documents GROUP BY 1),
        w AS (SELECT source, n_s, pow(n_s, 1.0 / {MIX_TEMPERATURE}) AS w FROM n),
        tot AS (SELECT sum(w) AS tw,
                       {MIX_TARGET_FRACTION} * sum(n_s) AS target FROM w),
        f AS (SELECT source,
                     CAST(round(round(least(1.0, tot.target * (w.w / tot.tw) / w.n_s), 4)
                                * 10000) AS BIGINT) AS thresh
              FROM w, tot)
        SELECT d.doc_id, d.source FROM documents d JOIN f USING (source)
        WHERE md5_number_lower('mix:' || CAST(d.doc_id AS VARCHAR)) % 10000 < f.thresh"""


_TFIDF_SQL = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS t
  FROM documents),
tf AS (SELECT doc_id, t, count(*) AS tf FROM toks GROUP BY 1, 2),
df AS (SELECT t, count(DISTINCT doc_id) AS df FROM toks GROUP BY 1),
n AS (SELECT count(*) AS n FROM documents),
sc AS (SELECT tf.doc_id, tf.t AS term,
              round(tf.tf * ln(n.n::DOUBLE / df.df), 6) AS score
       FROM tf JOIN df USING (t) CROSS JOIN n),
rk AS (SELECT doc_id, term, score,
              row_number() OVER (PARTITION BY doc_id
                                 ORDER BY score DESC, term) AS "rank"
       FROM sc)
SELECT doc_id, term, score, "rank" FROM rk WHERE "rank" <= 5
"""


def _substring_dedup_sql() -> str:
    from data_quality_ray.pipelines.queries import SUBSTR_NGRAM

    n1 = SUBSTR_NGRAM - 1
    return f"""
        WITH d AS (SELECT doc_id,
                          list_filter(string_split_regex(coalesce(text, ''), '\\s+'),
                                      x -> x <> '') AS l
                   FROM documents),
        wp AS (SELECT doc_id, l,
                      unnest(generate_series(1, greatest(len(l) - {n1}, 0))) AS s
               FROM d),
        win AS (SELECT doc_id, s, array_to_string(l[s : s + {n1}], ' ') AS wtxt
                FROM wp),
        dup AS (SELECT wtxt FROM win GROUP BY wtxt HAVING count(*) >= 2),
        hit AS (SELECT w.doc_id, w.s FROM win w JOIN dup USING (wtxt)),
        cov AS (SELECT DISTINCT doc_id, s + off AS j
                FROM (SELECT doc_id, s,
                             unnest(generate_series(0, {n1})) AS off FROM hit)),
        toks AS (SELECT doc_id, unnest(l) AS w,
                        unnest(generate_series(1, len(l))) AS j FROM d),
        kept AS (SELECT t.doc_id, t.w, t.j FROM toks t
                 LEFT JOIN cov c ON t.doc_id = c.doc_id AND t.j = c.j
                 WHERE c.j IS NULL),
        agg AS (SELECT doc_id, count(*) AS n_kept,
                       string_agg(w, ' ' ORDER BY j) AS text
                FROM kept GROUP BY 1)
        SELECT d.doc_id, CAST(len(d.l) AS BIGINT) AS n_tokens,
               CAST(len(d.l) AS BIGINT) - coalesce(a.n_kept, 0) AS n_removed,
               coalesce(a.text, '') AS text
        FROM d LEFT JOIN agg a USING (doc_id)"""


def _kmeans_sql() -> str:
    """Unrolled Lloyd replay: init = k smallest vec_ids, per-round
    argmin by (euclidean distance, cid), element-wise mean via
    zip-unnest, centroids re-quantized to ROUND_TO decimals each round
    (the quantized-state trick that makes float iteration engine-stable),
    empty clusters keep the previous centroid via the LEFT JOIN."""
    from data_quality_ray.pipelines.queries import KMEANS_ITERS, KMEANS_K
    from data_quality_ray.similarity.kmeans import ROUND_TO

    sql = f"""
        WITH v AS (SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings),
        c0 AS (
          SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid,
                 list_transform(e, x -> round(x, {ROUND_TO})) AS e
          FROM (SELECT vec_id, e FROM v ORDER BY vec_id LIMIT {KMEANS_K}))"""
    prev = "c0"
    for i in range(1, KMEANS_ITERS + 1):
        sql += f""",
        a{i} AS (
          SELECT vec_id, e, cid FROM (
            SELECT v.vec_id, v.e, c.cid,
                   row_number() OVER (PARTITION BY v.vec_id
                                      ORDER BY list_distance(v.e, c.e), c.cid) AS rk
            FROM v CROSS JOIN {prev} c) WHERE rk = 1),
        m{i} AS (
          SELECT cid, dim, round(avg(val), {ROUND_TO}) AS m
          FROM (SELECT cid, unnest(e) AS val,
                       unnest(generate_series(1, len(e))) AS dim FROM a{i})
          GROUP BY 1, 2),
        c{i} AS (
          SELECT p.cid, coalesce(n.e, p.e) AS e
          FROM {prev} p LEFT JOIN
               (SELECT cid, list(m ORDER BY dim) AS e FROM m{i} GROUP BY 1) n
               USING (cid))"""
        prev = f"c{i}"
    sql += f"""
        SELECT vec_id, cid FROM (
          SELECT v.vec_id, c.cid,
                 row_number() OVER (PARTITION BY v.vec_id
                                    ORDER BY list_distance(v.e, c.e), c.cid) AS rk
          FROM v CROSS JOIN {prev} c) WHERE rk = 1"""
    return sql


def _mmr_sql(k: int = 10, lam: float = 0.7) -> str:
    """Unrolled MMR replay: pick 0 = max 6-dp cosine to the vec_id-0
    query (ties -> smaller id); each later round scores every unselected
    row round(lam*rel - (1-lam)*max-sim-to-selected, 6) with the SAME
    float64 literals the library multiplies by, so the greedy trajectory
    is engine-identical."""
    sql = """
WITH v AS (SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings),
q AS (SELECT e FROM v ORDER BY vec_id LIMIT 1),
r AS (SELECT vec_id, e,
             round(list_cosine_similarity(e, (SELECT e FROM q)), 6) AS rel
      FROM v),
s0 AS MATERIALIZED (SELECT vec_id, e, rel, 0 AS sel_order
       FROM r ORDER BY rel DESC, vec_id LIMIT 1)"""
    prev = "s0"
    for i in range(1, k):
        # MATERIALIZED: each round references the previous selection 3x
        # (join, NOT IN, union) — inlined CTEs would expand 3^k scans
        sql += f""",
d{i} AS MATERIALIZED (
         SELECT r.vec_id, any_value(r.e) AS e, any_value(r.rel) AS rel,
               max(round(list_cosine_similarity(r.e, s.e), 6)) AS pen
         FROM r CROSS JOIN {prev} s
         WHERE r.vec_id NOT IN (SELECT vec_id FROM {prev})
         GROUP BY r.vec_id),
n{i} AS (SELECT vec_id, e, rel, {i} AS sel_order FROM d{i}
         ORDER BY round({lam!r}*rel - {(1.0 - lam)!r}*pen, 6) DESC,
                  vec_id LIMIT 1),
s{i} AS MATERIALIZED (SELECT * FROM {prev} UNION ALL SELECT * FROM n{i})"""
        prev = f"s{i}"
    sql += f"""
SELECT vec_id, CAST(sel_order AS BIGINT) AS sel_order, rel
FROM {prev} ORDER BY sel_order"""
    return sql


def _kcenter_sql() -> str:
    """Unrolled greedy k-center replay: s0 = smallest vec_id, each round
    md = min over the chosen set of the 6-dp-rounded euclidean distance,
    next center = (md DESC, vec_id ASC) head — the same rounded compare
    the library makes, so the greedy trajectory is engine-identical.
    Final assignment = row_number over (rounded dist, center id)."""
    from data_quality_ray.pipelines.queries import KCENTER_K
    from data_quality_ray.similarity.kcenter import ROUND_TO

    sql = """
        WITH v AS (SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings),
        s0 AS (SELECT vec_id, e FROM v ORDER BY vec_id LIMIT 1)"""
    prev = "s0"
    for i in range(1, KCENTER_K):
        sql += f""",
        d{i} AS (
          SELECT v.vec_id, any_value(v.e) AS e,
                 min(round(list_distance(v.e, s.e), {ROUND_TO})) AS md
          FROM v CROSS JOIN {prev} s GROUP BY v.vec_id),
        n{i} AS (SELECT vec_id, e FROM d{i} ORDER BY md DESC, vec_id LIMIT 1),
        s{i} AS (SELECT * FROM {prev} UNION ALL SELECT * FROM n{i})"""
        prev = f"s{i}"
    sql += f"""
        SELECT vec_id, center_id, dist, is_center FROM (
          SELECT v.vec_id, s.vec_id AS center_id,
                 round(list_distance(v.e, s.e), {ROUND_TO}) AS dist,
                 v.vec_id IN (SELECT vec_id FROM {prev}) AS is_center,
                 row_number() OVER (PARTITION BY v.vec_id
                     ORDER BY round(list_distance(v.e, s.e), {ROUND_TO}),
                              s.vec_id) AS rk
          FROM v CROSS JOIN {prev} s) WHERE rk = 1
        ORDER BY vec_id"""
    return sql


def _fs_linkage_sql(mode: str = "patterns") -> str:
    """Unrolled Fellegi–Sunter EM replay: nation-blocked pair
    generation, the 16-row pattern fold, and every EM round — products
    written in the SAME field order as the numpy fit (bit-identical
    multiplication sequence), params round(…,9) then clipped into
    [1e-6, 1-1e-6] each round (dedup/fellegi_sunter.py contract)."""
    from data_quality_ray.dedup.fellegi_sunter import CLIP, EM_ROUND
    from data_quality_ray.pipelines.queries import FS_BITS, FS_ROUNDS

    k = len(FS_BITS)

    def pm_expr(par: str, kind: str) -> str:
        return " * ".join(
            f"(CASE WHEN pat.{b} = 1 THEN {par}.{kind}{j + 1} "
            f"ELSE 1.0e0 - {par}.{kind}{j + 1} END)"
            for j, b in enumerate(FS_BITS))

    def qclip(x: str) -> str:
        return (f"least(greatest(round({x}, {EM_ROUND}), {CLIP}), "
                f"1.0e0 - {CLIP})")

    sql = f"""
    WITH RECURSIVE c AS (SELECT c_custkey, c_nationkey, c_acctbal, c_mktsegment,
                      c_custkey % 10 AS kd,
                      floor(c_acctbal / 1000.0e0) AS band
               FROM customer),
    pr AS (SELECT a.c_custkey AS id_a, b.c_custkey AS id_b,
             CASE WHEN a.c_mktsegment = b.c_mktsegment THEN 1 ELSE 0 END AS f_seg,
             CASE WHEN abs(a.c_acctbal - b.c_acctbal) <= 100.0e0 THEN 1 ELSE 0 END AS f_bal,
             CASE WHEN a.kd = b.kd THEN 1 ELSE 0 END AS f_key,
             CASE WHEN a.band = b.band THEN 1 ELSE 0 END AS f_band
           FROM c a JOIN c b ON a.c_nationkey = b.c_nationkey
                            AND a.c_custkey < b.c_custkey),
    pat AS (SELECT f_seg, f_bal, f_key, f_band,
                   CAST(count(*) AS DOUBLE) AS n
            FROM pr GROUP BY 1, 2, 3, 4),
    nt AS (SELECT sum(n) AS N FROM pat),
    par0 AS (SELECT 0.1e0 AS p,
                    {", ".join(f"0.9e0 AS m{j + 1}" for j in range(k))},
                    {", ".join(f"0.1e0 AS u{j + 1}" for j in range(k))})"""
    prev = "par0"
    for i in range(1, FS_ROUNDS + 1):
        g_expr = (f"({prev}.p * {pm_expr(prev, 'm')}) / "
                  f"(({prev}.p * {pm_expr(prev, 'm')}) + "
                  f"((1.0e0 - {prev}.p) * {pm_expr(prev, 'u')}))")
        ms = ", ".join(
            f"{qclip(f'sum(n * g * {b}) / sum(n * g)')} AS m{j + 1}"
            for j, b in enumerate(FS_BITS))
        us = ", ".join(
            f"{qclip(f'sum(n * (1.0e0 - g) * {b}) / sum(n * (1.0e0 - g))')}"
            f" AS u{j + 1}"
            for j, b in enumerate(FS_BITS))
        sql += f""",
    g{i} AS (SELECT pat.*, {g_expr} AS g FROM pat CROSS JOIN {prev}),
    par{i} AS (SELECT {qclip('sum(n * g) / (SELECT N FROM nt)')} AS p,
                      {ms}, {us}
               FROM g{i})"""
        prev = f"par{i}"
    sql += f""",
    fin AS (SELECT pat.*,
                   {pm_expr(prev, 'm')} AS pm,
                   {pm_expr(prev, 'u')} AS pu,
                   {prev}.p AS p
            FROM pat CROSS JOIN {prev})"""
    if mode == "patterns":
        sql += """
    SELECT f_seg, f_bal, f_key, f_band, CAST(n AS BIGINT) AS n_pairs,
           round(ln(pm / pu), 6) AS weight,
           round((p * pm) / ((p * pm) + ((1.0e0 - p) * pu)), 6) AS posterior,
           (p * pm) / ((p * pm) + ((1.0e0 - p) * pu)) >= 0.9e0 AS is_link
    FROM fin ORDER BY 1, 2, 3, 4"""
        return sql
    # mode == "entities": classify pairs, connected components over the
    # link edges (recursive min-label), every customer labeled
    sql += """,
    lp AS (SELECT f_seg, f_bal, f_key, f_band FROM fin
           WHERE (p * pm) / ((p * pm) + ((1.0e0 - p) * pu)) >= 0.9e0),
    links AS (SELECT pr.id_a, pr.id_b FROM pr
              JOIN lp USING (f_seg, f_bal, f_key, f_band)),
    nodes AS (SELECT id_a AS id FROM links UNION SELECT id_b FROM links),
    edges AS (SELECT id_a AS u, id_b AS v FROM links
              UNION SELECT id_b, id_a FROM links),
    cc(id, lbl) AS (SELECT id, id FROM nodes
        UNION SELECT e.v, cc.lbl FROM cc JOIN edges e ON e.u = cc.id),
    comp AS (SELECT id, min(lbl) AS lbl FROM cc GROUP BY 1)
    SELECT cu.c_custkey,
           coalesce(cp.lbl, cu.c_custkey) AS entity,
           coalesce(cp.lbl, cu.c_custkey) = cu.c_custkey AS is_rep
    FROM customer cu LEFT JOIN comp cp ON cp.id = cu.c_custkey
    ORDER BY cu.c_custkey"""
    return sql


def _hits_sql() -> str:
    """Unrolled HITS replay (functions/graph.hits quantized-state
    contract): weighted supplier→part edges, h0 = 1, each half-round
    L∞-normalizes and rounds to RANK_ROUND; rank-25 selection on the
    9-dp scores (identical on both sides), final scores re-round to 6."""
    from data_quality_ray.functions.graph import RANK_ROUND
    from data_quality_ray.pipelines.queries import HITS_ROUNDS

    # every round CTE MATERIALIZED and max() taken as a window — DuckDB
    # inlines multiply-referenced plain CTEs, which makes the unrolled
    # chain exponential (measured: 5 rounds never finished)
    sql = """
    WITH e AS MATERIALIZED (
        SELECT l_suppkey AS s, l_partkey AS p, count(*) AS w
        FROM lineitem GROUP BY 1, 2),
    h0 AS MATERIALIZED (SELECT DISTINCT s, 1.0e0 AS h FROM e)"""
    prev_h = "h0"
    for i in range(1, HITS_ROUNDS + 1):
        sql += f""",
    a{i} AS MATERIALIZED (
        SELECT p, round(a / max(a) OVER (), {RANK_ROUND}) AS a
        FROM (SELECT e.p, sum(hh.h * e.w) AS a
              FROM e JOIN {prev_h} hh ON hh.s = e.s GROUP BY 1)),
    h{i} AS MATERIALIZED (
        SELECT s, round(h / max(h) OVER (), {RANK_ROUND}) AS h
        FROM (SELECT e.s, sum(aa.a * e.w) AS h
              FROM e JOIN a{i} aa ON aa.p = e.p GROUP BY 1))"""
        prev_h = f"h{i}"
    k = HITS_ROUNDS
    sql += f"""
    SELECT node_type, key, score FROM (
      SELECT * FROM (
        SELECT 'supplier' AS node_type, s AS key, round(h, 6) AS score,
               row_number() OVER (ORDER BY h DESC, s) AS rn FROM h{k})
      WHERE rn <= 25
      UNION ALL
      SELECT * FROM (
        SELECT 'part' AS node_type, p AS key, round(a, 6) AS score,
               row_number() OVER (ORDER BY a DESC, p) AS rn FROM a{k})
      WHERE rn <= 25)
    ORDER BY node_type, score DESC, key"""
    return sql


def _pagerank_sql() -> str:
    """Unrolled PageRank replay: edges from the same join+group, both
    directions, r0 = round(1/N, 9), each round r = round((1-d)/N +
    d·Σ r·w/od, 9) — the functions/graph.py quantized-state contract.
    Doubles written in e0 notation so DuckDB never drops into DECIMAL
    arithmetic."""
    from data_quality_ray.functions.graph import RANK_ROUND
    from data_quality_ray.pipelines.queries import (PAGERANK_DAMPING,
                                                    PAGERANK_ROUNDS)

    d = f"{PAGERANK_DAMPING}e0"
    sql = f"""
    WITH e AS (
      SELECT 'c' || CAST(o.o_custkey AS VARCHAR) AS src,
             's' || CAST(l.l_suppkey AS VARCHAR) AS dst,
             count(*) AS w
      FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
      GROUP BY 1, 2),
    ee AS (SELECT src, dst, w FROM e
           UNION ALL SELECT dst, src, w FROM e),
    nodes AS (SELECT DISTINCT src AS n FROM ee),
    nn AS (SELECT count(*) AS nc FROM nodes),
    od AS (SELECT src, sum(w) AS od FROM ee GROUP BY 1),
    r0 AS (SELECT n, round(1.0e0 / (SELECT nc FROM nn), {RANK_ROUND}) AS r
           FROM nodes)"""
    prev = "r0"
    for i in range(1, PAGERANK_ROUNDS + 1):
        sql += f""",
    m{i} AS (SELECT ee.dst AS n, sum(rp.r * ee.w / od.od) AS m
             FROM ee JOIN {prev} rp ON rp.n = ee.src
             JOIN od ON od.src = ee.src GROUP BY 1),
    r{i} AS (SELECT nodes.n,
                    round((1.0e0 - {d}) / (SELECT nc FROM nn)
                          + {d} * coalesce(m{i}.m, 0.0e0),
                          {RANK_ROUND}) AS r
             FROM nodes LEFT JOIN m{i} ON m{i}.n = nodes.n)"""
        prev = f"r{i}"
    sql += f"""
    SELECT CAST(substr(n, 2) AS BIGINT) AS s_suppkey, round(r, 6) AS rank
    FROM {prev} WHERE n LIKE 's%' ORDER BY 1"""
    return sql


def _fuzzy_decontaminate_sql(threshold: float = 0.5, n_perm: int = 64,
                             bands: int = 16, shingle_size: int = 3,
                             seed: int = 17) -> str:
    """Cross-corpus replay of dedup/decontaminate.fuzzy_decontaminate:
    the shared bandk CTE over ALL documents, candidates restricted to
    CROSS pairs (corpus = doc_id % 29 != 0, bench = % 29 == 0), the
    exact shingle-Jaccard verification from _minhash_sql, min matching
    bench id per corpus doc, -1 when clean."""
    bandk = _minhash_bandk_cte(n_perm, bands, shingle_size, seed,
                               "documents")
    return f"""
    WITH RECURSIVE {bandk},
    cand AS (
      SELECT DISTINCT x.doc_id AS id_a, y.doc_id AS id_b
      FROM bandk x JOIN bandk y
        ON x.band_id = y.band_id AND x.band_key = y.band_key
      WHERE x.doc_id % 29 <> 0 AND y.doc_id % 29 = 0),
    gcnt AS (SELECT doc_id, count(*) AS n FROM gset GROUP BY 1),
    pair_inter AS (
      SELECT c.id_a, c.id_b, count(*) AS inter
      FROM cand c
      JOIN gset ga ON ga.doc_id = c.id_a
      JOIN gset gb ON gb.doc_id = c.id_b AND gb.gram = ga.gram
      GROUP BY 1, 2),
    verified AS (
      SELECT c.id_a, c.id_b
      FROM cand c
      LEFT JOIN pair_inter pi USING (id_a, id_b)
      LEFT JOIN gcnt na ON na.doc_id = c.id_a
      LEFT JOIN gcnt nb ON nb.doc_id = c.id_b
      WHERE CASE WHEN coalesce(na.n, 0) = 0 AND coalesce(nb.n, 0) = 0 THEN true
            ELSE coalesce(pi.inter, 0) * 1.0 /
                 greatest(coalesce(na.n, 0) + coalesce(nb.n, 0) - coalesce(pi.inter, 0), 1)
                 >= {threshold} END),
    m AS (SELECT id_a, min(id_b) AS mid FROM verified GROUP BY 1)
    SELECT d.doc_id, m.id_a IS NOT NULL AS contaminated,
           coalesce(m.mid, -1) AS match_id
    FROM documents d LEFT JOIN m ON m.id_a = d.doc_id
    WHERE d.doc_id % 29 <> 0 ORDER BY d.doc_id"""


_URL_BASE_SQL = """
SELECT doc_id,
 CASE WHEN doc_id % 17 = 0 THEN
   source || (CASE WHEN doc_id % 5 = 0 THEN '.CO.UK' ELSE '.Example.com' END)
          || '/p/' || (doc_id % 10)
          || (CASE WHEN doc_id % 2 = 0 THEN '/' ELSE '' END)
 ELSE
   (CASE WHEN doc_id % 3 = 0 THEN 'HTTP' ELSE 'https' END) || '://' ||
   (CASE WHEN doc_id % 4 = 0 THEN 'WWW.' ELSE '' END) || source ||
   (CASE WHEN doc_id % 5 = 0 THEN '.CO.UK' ELSE '.Example.com' END) ||
   (CASE WHEN doc_id % 7 = 0
         THEN (CASE WHEN doc_id % 3 = 0 THEN ':80' ELSE ':443' END)
         ELSE '' END) ||
   '/p/' || (doc_id % 10) ||
   (CASE WHEN doc_id % 2 = 0 THEN '/' ELSE '' END) ||
   (CASE WHEN doc_id % 2 = 0
         THEN '?utm_source=feed&b=' || (doc_id % 3) || '&a=1' ELSE '' END) ||
   (CASE WHEN doc_id % 6 = 0 THEN '#sec' ELSE '' END)
 END AS url
FROM documents"""

_URL_VARIANT_SQL = """
SELECT doc_id + 1000000000 AS doc_id,
 (CASE WHEN doc_id % 3 = 0 THEN 'http' ELSE 'HTTPS' END) || '://' ||
 (CASE WHEN doc_id % 4 = 0 THEN '' ELSE 'WWW.' END) || upper(source) ||
 (CASE WHEN doc_id % 5 = 0 THEN '.co.UK' ELSE '.EXAMPLE.COM' END) ||
 (CASE WHEN doc_id % 3 = 0 THEN ':80' ELSE ':443' END) ||
 '/p/' || (doc_id % 10) || '//' ||
 (CASE WHEN doc_id % 2 = 0
       THEN '?a=1&utm_x=9&b=' || (doc_id % 3) ELSE '?utm_campaign=z' END) ||
 '#v2' AS url
FROM documents WHERE doc_id % 13 = 0 AND doc_id % 17 <> 0"""


def _url_canon_with(u0_sql: str) -> str:
    """WITH-prefix that derives raw URLs (``u0_sql``) and replays the
    FULL canonicalization pipeline of functions/urls.py independently in
    SQL — regexp parse, scheme/host lowering, www./default-port strip,
    trailing-slash rtrim, tracking-param filter + bytewise sort,
    registered domain over the shared MULTIPART_SUFFIXES — ending in a
    ``dom(doc_id, url_canon, domain)`` CTE. The tracking regex and the
    suffix tuple are imported from the library so the two engines cannot
    desynchronize."""
    from data_quality_ray.functions.urls import (MULTIPART_SUFFIXES,
                                                 TRACKING_PARAM_RE)

    suf = ", ".join(f"'{s}'" for s in MULTIPART_SUFFIXES)
    return f"""
WITH u0 AS ({u0_sql}),
p2 AS (SELECT doc_id,
        CASE WHEN regexp_matches(u, '^[A-Za-z][A-Za-z0-9+.-]*://')
             THEN lower(regexp_extract(u, '^([A-Za-z][A-Za-z0-9+.-]*)://', 1))
        END AS scheme,
        regexp_replace(u, '^[A-Za-z][A-Za-z0-9+.-]*://', '') AS rest
       FROM (SELECT doc_id, regexp_replace(trim(url), '#.*$', '') AS u
             FROM u0)),
p3 AS (SELECT doc_id, scheme,
        lower(regexp_extract(rest, '^([^/?]*)', 1)) AS hostport,
        regexp_replace(rest, '^[^/?]*', '') AS tail
       FROM p2),
p4 AS (SELECT doc_id, scheme,
        CASE WHEN scheme = 'http' THEN regexp_replace(h, ':80$', '')
             WHEN scheme = 'https' THEN regexp_replace(h, ':443$', '')
             ELSE h END AS host,
        rtrim(regexp_extract(tail, '^([^?]*)', 1), '/') AS path,
        CASE WHEN tail LIKE '%?%'
             THEN regexp_replace(tail, '^[^?]*[?]', '') ELSE '' END AS q
       FROM (SELECT doc_id, scheme, tail,
                    regexp_replace(hostport, '^www\\.', '') AS h FROM p3)),
p5 AS (SELECT doc_id, scheme, host, path,
        array_to_string(list_sort(list_filter(string_split(q, '&'),
          x -> x <> '' AND NOT regexp_matches(x, '{TRACKING_PARAM_RE}'))),
          '&') AS qc
       FROM p4),
canon AS (SELECT doc_id,
        CASE WHEN scheme IS NULL THEN NULL
             ELSE scheme || '://' || host || path ||
                  (CASE WHEN qc <> '' THEN '?' || qc ELSE '' END)
        END AS url_canon,
        CASE WHEN scheme IS NULL THEN NULL ELSE host END AS host
       FROM p5),
dom AS (SELECT doc_id, url_canon,
        CASE WHEN host IS NULL THEN NULL
             WHEN len(l) >= 3
                  AND (l[len(l)-1] || '.' || l[len(l)]) IN ({suf})
                  THEN l[len(l)-2] || '.' || l[len(l)-1] || '.' || l[len(l)]
             WHEN len(l) >= 2 THEN l[len(l)-1] || '.' || l[len(l)]
             ELSE host END AS domain
       FROM (SELECT doc_id, url_canon, host, string_split(host, '.') AS l
             FROM canon))"""


def _homoglyph_sql() -> str:
    """Replays the planted lookalike copies (same aeopcxy→Cyrillic
    translate) and the skeleton fold from the SHARED
    confusables.SKELETON_FROM/TO constants, then the grouped keep-first
    count — checks that the Python table and the SQL translate agree
    byte for byte."""
    from data_quality_ray.functions.confusables import (SKELETON_FROM,
                                                        SKELETON_TO)

    return f"""
WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000000,
         translate(lower(text), 'aeopcxy', 'аеорсху')
  FROM documents WHERE doc_id % 37 = 0),
sk AS (SELECT doc_id,
              translate(lower(text), '{SKELETON_FROM}', '{SKELETON_TO}') AS s
       FROM aug)
SELECT min(doc_id) AS keeper_id, CAST(count(*) AS BIGINT) AS n_docs
FROM sk GROUP BY s ORDER BY keeper_id
"""


def _bm25_sql(k: int = 10) -> str:
    """BM25 replay: same tokenizer ([a-z0-9]+ runs of lower()), same
    Lucene-style idf, same (k1, b), score rounded to 6 dp BEFORE ranking
    on both sides so the (score desc, doc_id) order is engine-stable."""
    from data_quality_ray.pipelines.queries import BM25_QUERIES
    from data_quality_ray.similarity.bm25 import B, K1, bm25_tokens

    rows = []
    for qid in sorted(BM25_QUERIES):
        for t in sorted(set(bm25_tokens(BM25_QUERIES[qid]))):
            rows.append(f"('{qid}', '{t}')")
    values = ", ".join(rows)
    return f"""
        WITH toks AS (
          SELECT doc_id,
                 unnest(list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                                    x -> x <> '')) AS t
          FROM documents),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
        st AS (SELECT (SELECT count(*) FROM documents) AS n,
                      (SELECT count(*) FROM toks)::DOUBLE
                        / (SELECT count(*) FROM documents) AS avgdl),
        q(query_id, t) AS (VALUES {values}),
        df AS (SELECT t, count(DISTINCT doc_id) AS df FROM toks
               WHERE t IN (SELECT t FROM q) GROUP BY 1),
        tf AS (SELECT doc_id, t, count(*)::DOUBLE AS tf FROM toks
               WHERE t IN (SELECT t FROM q) GROUP BY 1, 2),
        sc AS (
          SELECT q.query_id, tf.doc_id,
                 sum(ln(1 + (st.n - df.df + 0.5) / (df.df + 0.5))
                     * tf.tf * ({K1} + 1)
                       / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / st.avgdl))) AS score
          FROM q JOIN df USING (t) JOIN tf USING (t)
          JOIN dl ON tf.doc_id = dl.doc_id CROSS JOIN st
          GROUP BY 1, 2),
        rk AS (SELECT query_id, doc_id, round(score, 6) AS score,
                      row_number() OVER (PARTITION BY query_id
                                         ORDER BY round(score, 6) DESC, doc_id) AS "rank"
               FROM sc)
        SELECT query_id, doc_id, score, "rank" FROM rk WHERE "rank" <= {k}"""


def _hybrid_rrf_sql() -> str:
    """RRF fusion replay: BM25 top-20 (the _bm25_sql CTE at k=20) union
    cosine top-20 (list_cosine_similarity, the knn_embeddings contract),
    1/(60+rank) contributions, fused score rounded to 6 BEFORE the final
    ranking — mirrors similarity/hybrid.py."""
    from data_quality_ray.pipelines.queries import BM25_QUERIES

    qv = " UNION ALL ".join(
        f"SELECT '{qid}' AS query_id, embedding::DOUBLE[] AS e "
        f"FROM embeddings WHERE vec_id = {vid}"
        for vid, qid in enumerate(sorted(BM25_QUERIES)))
    return f"""
        WITH qv AS ({qv}),
        cs AS (SELECT qv.query_id, e.vec_id AS id,
                      round(list_cosine_similarity(e.embedding::DOUBLE[],
                                                   qv.e), 6) AS s
               FROM embeddings e CROSS JOIN qv),
        crk AS (SELECT query_id, id,
                       row_number() OVER (PARTITION BY query_id
                                          ORDER BY s DESC, id) AS r
                FROM cs),
        btop AS (SELECT query_id, doc_id AS id, "rank" AS r
                 FROM ({_bm25_sql(20)})),
        u AS (SELECT query_id, id, r FROM crk WHERE r <= 20
              UNION ALL SELECT query_id, id, r FROM btop),
        f AS (SELECT query_id, id, round(sum(1.0 / (60 + r)), 6) AS rrf
              FROM u GROUP BY 1, 2)
        SELECT query_id, id AS doc_id, rrf,
               row_number() OVER (PARTITION BY query_id
                                  ORDER BY rrf DESC, id) AS "rank"
        FROM f QUALIFY "rank" <= 10"""



def _unimax_sql() -> str:
    """Replays the UniMax ascending waterfill with window functions:
    identical fp ops in the same order as sampling/stratified
    .unimax_allocation (integer-valued doubles keep the running sums
    exact; level division and the pivot compare are single IEEE ops on
    both sides)."""
    from data_quality_ray.pipelines.queries import (UNIMAX_BUDGET_FRAC,
                                                    UNIMAX_EPOCH_CAP)

    return f"""
        WITH tok AS (
          SELECT source,
                 len(list_filter(string_split_regex(coalesce(text, ''), '\\s+'),
                                 x -> x <> '')) AS nt
          FROM documents),
        n AS (SELECT source, CAST(sum(nt) AS BIGINT) AS n_tokens
              FROM tok GROUP BY 1),
        caps AS (SELECT source, n_tokens,
                        n_tokens * {UNIMAX_EPOCH_CAP} AS cap FROM n),
        tot AS (SELECT {UNIMAX_BUDGET_FRAC} * sum(n_tokens) AS b,
                       count(*) AS k FROM caps),
        o AS (SELECT c.*, row_number() OVER (ORDER BY cap, source) AS i,
                     coalesce(sum(cap) OVER (ORDER BY cap, source
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING), 0) AS pre
              FROM caps c),
        lv AS (SELECT o.*, (tot.b - o.pre) / (tot.k - o.i + 1) AS lvl
               FROM o, tot),
        piv AS (SELECT min(i) AS p FROM lv WHERE lvl < cap),
        a AS (SELECT lv.source, lv.n_tokens, lv.cap,
                     CASE WHEN piv.p IS NULL OR lv.i < piv.p THEN lv.cap
                          ELSE (SELECT x.lvl FROM lv x, piv
                                WHERE x.i = piv.p) END AS alloc
              FROM lv, piv)
        SELECT source, n_tokens, round(cap, 6) AS capacity,
               round(alloc, 6) AS alloc_tokens,
               CASE WHEN n_tokens = 0 THEN 0.0
                    ELSE round(alloc / n_tokens, 6) END AS epochs
        FROM a ORDER BY source"""


def _uncertainty_sql() -> str:
    """Margin selection on top of the full classifier replay: the k
    smallest |score| with doc_id ties ascending — quality_score is
    already 6-dp-rounded inside _CLF_SQL, so abs() of it matches the
    Python margin bit for bit."""
    from data_quality_ray.pipelines.queries import UNCERTAIN_K

    return f"""
        SELECT doc_id, quality_score, abs(quality_score) AS margin
        FROM ({_CLF_SQL})
        ORDER BY abs(quality_score), doc_id
        LIMIT {UNCERTAIN_K}"""


def _minhash_eval_sql(threshold: float = 0.5) -> str:
    """LSH-vs-exact eval: the band-collision candidates (shared bandk
    CTE chain) INTERSECTed against the exhaustive gram self-join truth
    side; empty-shingle docs are excluded at the source subquery on
    both engines (an empty doc collides in every band but has no
    grams)."""
    src = ("(SELECT doc_id, text FROM documents WHERE "
           "len(list_filter(string_split_regex(lower(coalesce(text, '')), "
           "'\\s+'), x -> x <> '')) > 0)")
    bandk = _minhash_bandk_cte(source=src)
    return f"""
    WITH {bandk},
    cand AS (
      SELECT DISTINCT x.doc_id AS id_a, y.doc_id AS id_b
      FROM bandk x JOIN bandk y
        ON x.band_id = y.band_id AND x.band_key = y.band_key
        AND x.doc_id < y.doc_id),
    gcnt AS (SELECT doc_id, count(*) AS n FROM gset GROUP BY 1),
    inter AS (
      SELECT ga.doc_id AS id_a, gb.doc_id AS id_b, count(*) AS i
      FROM gset ga JOIN gset gb
        ON gb.gram = ga.gram AND ga.doc_id < gb.doc_id
      GROUP BY 1, 2),
    truth AS (
      SELECT t.id_a, t.id_b
      FROM inter t
      JOIN gcnt na ON na.doc_id = t.id_a
      JOIN gcnt nb ON nb.doc_id = t.id_b
      WHERE t.i * 1.0 / (na.n + nb.n - t.i) >= {threshold}),
    hit AS (SELECT id_a, id_b FROM cand
            INTERSECT SELECT id_a, id_b FROM truth),
    c AS (SELECT count(*) AS n FROM cand),
    t AS (SELECT count(*) AS n FROM truth),
    h AS (SELECT count(*) AS n FROM hit)
    SELECT CAST(c.n AS BIGINT) AS n_cand, CAST(t.n AS BIGINT) AS n_truth,
           CAST(h.n AS BIGINT) AS n_hit,
           round(CASE WHEN c.n = 0 THEN 0.0
                      ELSE h.n * 1.0 / c.n END, 6) AS precision,
           round(CASE WHEN t.n = 0 THEN 0.0
                      ELSE h.n * 1.0 / t.n END, 6) AS recall
    FROM c, t, h"""


def _curation_funnel_sql() -> str:
    """Funnel tallies composed from the stage replays already oracled
    one by one (quality chain, decontamination, keep-first dedup) —
    the three predicates fold to four counters exactly as the Ray side
    does (independent flags, cumulative AND)."""
    return f"""
    WITH q AS (SELECT doc_id, keep FROM ({_QUALITY_FILTER_DOCS_SQL})),
    c AS (SELECT doc_id, contaminated FROM ({_DECONTAMINATE_SQL})),
    w AS (SELECT min(doc_id) AS doc_id FROM documents GROUP BY text),
    f AS (SELECT q.doc_id, q.keep, c.contaminated,
                 (wj.doc_id IS NOT NULL) AS win
          FROM q JOIN c USING (doc_id)
          LEFT JOIN w wj ON wj.doc_id = q.doc_id),
    tal AS (SELECT CAST(count(*) AS BIGINT) AS n0,
                   CAST(count(*) FILTER (win) AS BIGINT) AS n1,
                   CAST(count(*) FILTER (win AND keep) AS BIGINT) AS n2,
                   CAST(count(*) FILTER (win AND keep AND NOT contaminated)
                        AS BIGINT) AS n3
            FROM f)
    SELECT * FROM (
      SELECT CAST(0 AS BIGINT) AS stage, 'raw' AS stage_name,
             n0 AS n_kept, CAST(0 AS BIGINT) AS n_dropped FROM tal
      UNION ALL SELECT 1, 'exact_dedup', n1, n0 - n1 FROM tal
      UNION ALL SELECT 2, 'quality_rules', n2, n1 - n2 FROM tal
      UNION ALL SELECT 3, 'decontaminate', n3, n2 - n3 FROM tal)
    ORDER BY stage"""


def oracle_sql() -> dict[str, str]:
    _ensure_oracle_artifacts()
    return {
        "corpus_clean_docs": _corpus_clean_sql(),
        "chronology_convert_orders": _chronology_sql(),
        "langid_heuristic_docs": _langid_sql(),
        "langid_confusion_docs": _langid_sql(
            "SELECT lang AS lang_true, lang_pred, count(*) AS n"
            " FROM pred GROUP BY 1, 2 ORDER BY 1, 2"),
        "source_quality_docs": f"""
            WITH filt AS ({_QUALITY_FILTER_DOCS_SQL}),
                 tok AS (SELECT doc_id, source,
                           len(list_filter(string_split_regex(text, '\\s+'),
                                           x -> x <> '')) AS n_tok
                         FROM documents)
            SELECT t.source, count(*) AS n,
                   count(*) FILTER (WHERE f.keep) AS n_keep,
                   round(count(*) FILTER (WHERE f.keep) * 1.0 / count(*), 6)
                       AS keep_rate,
                   round(avg(n_tok), 6) AS avg_tokens
            FROM filt f JOIN tok t ON f.doc_id = t.doc_id
            GROUP BY 1 ORDER BY 1""",
        "catalog_overview": (
            "SELECT * FROM (" + " UNION ALL ".join(
                f"SELECT '{t}' AS tbl, count(*) AS n_rows, "
                f"(SELECT count(*) FROM (DESCRIBE {t})) AS n_cols FROM {t}"
                for t in ("region", "nation", "customer", "supplier", "part",
                          "orders", "lineitem", "events", "documents",
                          "embeddings"))
            + ") ORDER BY tbl"),
        "rule_report_docs": f"""
            WITH filt AS ({_QUALITY_FILTER_DOCS_SQL})
            SELECT CASE WHEN f.first_rule IS NULL OR f.first_rule = ''
                        THEN 'PASS' ELSE f.first_rule END AS first_rule,
                   count(*) AS n,
                   count(*) FILTER (WHERE f.scrubbed_text <> d.text)
                       AS n_scrubbed
            FROM filt f JOIN documents d ON f.doc_id = d.doc_id
            GROUP BY 1 ORDER BY 1""",
        "classifier_eval_docs": f"""
            WITH clf AS ({_CLF_SQL}),
                 filt AS ({_QUALITY_FILTER_DOCS_SQL}),
                 j AS (SELECT c.quality_label AS pred, f.keep AS truth
                       FROM clf c JOIN filt f ON c.doc_id = f.doc_id),
                 cm AS (SELECT
                     count(*) FILTER (WHERE pred AND truth) AS tp,
                     count(*) FILTER (WHERE pred AND NOT truth) AS fp,
                     count(*) FILTER (WHERE NOT pred AND truth) AS fn,
                     count(*) FILTER (WHERE NOT pred AND NOT truth) AS tn
                   FROM j)
            SELECT tp + fp + fn + tn AS n, tp, fp, fn, tn,
                   round(CASE WHEN tp + fp > 0
                              THEN tp * 1.0 / (tp + fp) ELSE 0 END, 6)
                       AS precision,
                   round(CASE WHEN tp + fn > 0
                              THEN tp * 1.0 / (tp + fn) ELSE 0 END, 6)
                       AS recall,
                   round(CASE WHEN tp + fp > 0 AND tp + fn > 0
                                   AND tp * 1.0 / (tp + fp)
                                       + tp * 1.0 / (tp + fn) > 0
                              THEN 2 * (tp * 1.0 / (tp + fp))
                                     * (tp * 1.0 / (tp + fn))
                                   / (tp * 1.0 / (tp + fp)
                                      + tp * 1.0 / (tp + fn))
                              ELSE 0 END, 6) AS f1
            FROM cm""",
        "ab_welch_events": """
            WITH s AS (
              SELECT event_type AS grp, count(*) AS n,
                     sum(value) AS s, sum(value * value) AS s2
              FROM events
              WHERE event_type IN ('click', 'error') AND value IS NOT NULL
              GROUP BY 1),
            c AS (
              SELECT a.n AS na, b.n AS nb, a.s / a.n AS ma, b.s / b.n AS mb,
                     (a.s2 - a.n * (a.s / a.n) * (a.s / a.n)) / (a.n - 1) AS va,
                     (b.s2 - b.n * (b.s / b.n) * (b.s / b.n)) / (b.n - 1) AS vb
              FROM (SELECT * FROM s WHERE grp = 'click') a,
                   (SELECT * FROM s WHERE grp = 'error') b)
            SELECT CAST(na AS BIGINT) AS n_a, CAST(nb AS BIGINT) AS n_b,
                   round(ma, 6) AS mean_a, round(mb, 6) AS mean_b,
                   round((ma - mb) / sqrt(va / na + vb / nb), 6) AS t_stat,
                   round(pow(va / na + vb / nb, 2)
                         / (pow(va / na, 2) / (na - 1)
                            + pow(vb / nb, 2) / (nb - 1)), 6) AS welch_df
            FROM c""",
        # KS: the max-gap row is selected on the INTEGER gap
        # |cum_a·N_b − cum_b·N_a| (ties → smallest value), mirroring the
        # library's integer argmax — a float-CDF argmax is engine-noise.
        "ks_price_lineitem": """
            WITH v AS (
              SELECT l_extendedprice AS value,
                     count(*) FILTER (WHERE l_returnflag = 'A') AS na,
                     count(*) FILTER (WHERE l_returnflag = 'R') AS nb
              FROM lineitem
              WHERE l_returnflag IN ('A', 'R')
                    AND l_extendedprice IS NOT NULL
              GROUP BY 1),
            c AS (
              SELECT value,
                     sum(na) OVER (ORDER BY value) AS ca,
                     sum(nb) OVER (ORDER BY value) AS cb
              FROM v),
            t AS (SELECT sum(na) AS ta, sum(nb) AS tb FROM v)
            SELECT CAST(t.ta AS BIGINT) AS n_a, CAST(t.tb AS BIGINT) AS n_b,
                   round(abs(c.ca * t.tb - c.cb * t.ta) * 1.0
                         / (t.ta * t.tb), 6) AS ks_stat,
                   round(c.value, 2) AS ks_at
            FROM c, t
            ORDER BY abs(c.ca * t.tb - c.cb * t.ta) DESC, c.value ASC
            LIMIT 1""",
        # EMD: fixed-point cents keep the ECDF-area sum integer (and
        # therefore summation-order-free); one final division mirrors
        # profiling/hypothesis.wasserstein1's single rational.
        "emd_price_lineitem": """
            WITH v AS (
              SELECT CAST(round(l_extendedprice * 100) AS BIGINT) AS cents,
                     count(*) FILTER (WHERE l_returnflag = 'A') AS na,
                     count(*) FILTER (WHERE l_returnflag = 'R') AS nb
              FROM lineitem
              WHERE l_returnflag IN ('A', 'R')
                    AND l_extendedprice IS NOT NULL
              GROUP BY 1),
            c AS (
              SELECT cents,
                     sum(na) OVER (ORDER BY cents) AS ca,
                     sum(nb) OVER (ORDER BY cents) AS cb,
                     lead(cents) OVER (ORDER BY cents) AS nxt
              FROM v),
            t AS (SELECT sum(na) AS ta, sum(nb) AS tb FROM v)
            SELECT CAST(t.ta AS BIGINT) AS n_a, CAST(t.tb AS BIGINT) AS n_b,
                   round(sum(abs(c.ca * t.tb - c.cb * t.ta)
                             * (c.nxt - c.cents))
                         / (100.0 * t.ta * t.tb), 6) AS emd
            FROM c, t WHERE c.nxt IS NOT NULL
            GROUP BY t.ta, t.tb""",
        # CUSUM: the arg-max day is selected on the integer
        # |n_days·cum − i·total| (ties → earliest day), identical to
        # profiling/hypothesis.cusum_changepoint.
        "cusum_changepoint_events": """
            WITH d AS (
              SELECT date_trunc('day', ts) AS day, count(*) AS n
              FROM events WHERE ts IS NOT NULL GROUP BY 1),
            c AS (
              SELECT day,
                     sum(n) OVER (ORDER BY day) AS cum,
                     row_number() OVER (ORDER BY day) AS i
              FROM d),
            t AS (SELECT count(*) AS nd, sum(n) AS tot FROM d)
            SELECT c.day AS change_day,
                   CAST(t.nd AS BIGINT) AS n_days,
                   CAST(t.tot AS BIGINT) AS n_events,
                   round(abs(t.nd * c.cum - c.i * t.tot) * 1.0 / t.nd, 6)
                       AS cusum_stat
            FROM c, t
            ORDER BY abs(t.nd * c.cum - c.i * t.tot) DESC, c.day
            LIMIT 1""",
        # KMV: deterministic given md5 — the rank window replays the
        # sketch itself (k smallest distinct hashes; union = merge).
        "kmv_overlap_events": """
            WITH u AS (
              SELECT DISTINCT event_type,
                     CAST(user_id AS VARCHAR) || '-'
                       || strftime(date_trunc('day', ts), '%Y-%m-%d')
                       AS user_id
              FROM events
              WHERE event_type IN ('click', 'view')),
            h AS (
              SELECT event_type,
                     md5_number_lower(user_id) AS hv
              FROM u),
            ka AS (SELECT hv FROM h WHERE event_type = 'click'
                   ORDER BY hv LIMIT 256),
            kb AS (SELECT hv FROM h WHERE event_type = 'view'
                   ORDER BY hv LIMIT 256),
            un AS (SELECT hv FROM (SELECT DISTINCT hv FROM h)
                   ORDER BY hv LIMIT 256),
            sk AS (
              SELECT count(*) AS k_eff,
                     count(*) FILTER (
                       WHERE hv IN (SELECT hv FROM ka)
                         AND hv IN (SELECT hv FROM kb)) AS n_both
              FROM un),
            ex AS (
              SELECT count(*) FILTER (WHERE a AND b) AS n_int,
                     count(*) AS n_union,
                     count(*) FILTER (WHERE a) AS n_a,
                     count(*) FILTER (WHERE b) AS n_b
              FROM (SELECT user_id,
                           bool_or(event_type = 'click') AS a,
                           bool_or(event_type = 'view') AS b
                    FROM u GROUP BY 1))
            SELECT CAST(ex.n_a AS BIGINT) AS n_click,
                   CAST(ex.n_b AS BIGINT) AS n_view,
                   CAST(ex.n_int AS BIGINT) AS n_intersect,
                   CAST(ex.n_union AS BIGINT) AS n_union,
                   CAST(sk.k_eff AS BIGINT) AS k_eff,
                   CAST(sk.n_both AS BIGINT) AS n_both_sketch,
                   round(sk.n_both * 1.0 / sk.k_eff, 6) AS jaccard_kmv,
                   round(ex.n_int * 1.0 / ex.n_union, 6) AS jaccard_exact
            FROM sk, ex""",
        "hits_supplier_part": _hits_sql(),
        # IND discovery: per-column distinct sets, pairwise distinct
        # overlap — the bitmask fold's exact relational twin.
        "ind_discovery": """
            WITH d AS (
              SELECT DISTINCT 'customer.c_custkey' AS col,
                     CAST(c_custkey AS BIGINT) AS val
              FROM customer WHERE c_custkey IS NOT NULL
              UNION ALL SELECT DISTINCT 'orders.o_custkey',
                     CAST(o_custkey AS BIGINT)
              FROM orders WHERE o_custkey IS NOT NULL
              UNION ALL SELECT DISTINCT 'events.user_id',
                     CAST(user_id AS BIGINT)
              FROM events WHERE user_id IS NOT NULL
              UNION ALL SELECT DISTINCT 'nation.n_nationkey',
                     CAST(n_nationkey AS BIGINT)
              FROM nation WHERE n_nationkey IS NOT NULL
              UNION ALL SELECT DISTINCT 'customer.c_nationkey',
                     CAST(c_nationkey AS BIGINT)
              FROM customer WHERE c_nationkey IS NOT NULL
              UNION ALL SELECT DISTINCT 'supplier.s_nationkey',
                     CAST(s_nationkey AS BIGINT)
              FROM supplier WHERE s_nationkey IS NOT NULL),
            sizes AS (SELECT col, count(*) AS n FROM d GROUP BY 1),
            com AS (SELECT a.col AS col_a, b.col AS col_b,
                           count(*) AS n_common
                    FROM d a JOIN d b
                      ON a.val = b.val AND a.col <> b.col
                    GROUP BY 1, 2)
            SELECT ca.col AS col_a, cb.col AS col_b,
                   CAST(ca.n AS BIGINT) AS n_a,
                   CAST(cb.n AS BIGINT) AS n_b,
                   CAST(coalesce(com.n_common, 0) AS BIGINT) AS n_common,
                   round(coalesce(com.n_common, 0) * 1.0 / ca.n, 6)
                     AS containment,
                   CAST(coalesce(com.n_common, 0) = ca.n AS BIGINT)
                     AS is_ind
            FROM sizes ca JOIN sizes cb ON ca.col <> cb.col
            LEFT JOIN com ON com.col_a = ca.col AND com.col_b = cb.col
            ORDER BY 1, 2""",
        # CFD: one (status, custkey, priority) combination rollup
        # serves every tableau row; g3 = Σ (rows − max count) over
        # violating lhs groups, per pattern.
        "cfd_check_orders": """
            WITH c AS (SELECT o_orderstatus AS pattern,
                              o_custkey AS lhs, o_orderpriority AS rhs,
                              count(*) AS n
                       FROM orders GROUP BY 1, 2, 3),
            g AS (SELECT pattern, lhs, sum(n) AS rows_,
                         count(*) AS n_rhs, max(n) AS max_n
                  FROM c GROUP BY 1, 2)
            SELECT CAST(pattern AS VARCHAR) AS pattern,
                   CAST(sum(rows_) AS BIGINT) AS n_rows,
                   CAST(count(*) AS BIGINT) AS n_groups,
                   CAST(count(*) FILTER (WHERE n_rhs > 1) AS BIGINT)
                     AS n_violating_groups,
                   CAST(sum(CASE WHEN n_rhs > 1 THEN rows_ - max_n
                                 ELSE 0 END) AS BIGINT) AS g3_rows
            FROM g WHERE pattern IN ('F', 'O', 'P')
            GROUP BY 1 ORDER BY 1""",
        # AUC: twice-the-rank-sum stays integer (2R = Σ np·(2·before+n+1))
        # until the final division — identical rational on both sides;
        # quality_score is 6-dp-rounded on both sides so ties agree.
        "auc_docs": f"""
            WITH clf AS ({_CLF_SQL}),
                 filt AS ({_QUALITY_FILTER_DOCS_SQL}),
                 j AS (SELECT c.quality_score AS score, f.keep AS pos
                       FROM clf c JOIN filt f ON c.doc_id = f.doc_id),
                 v AS (SELECT score, count(*) AS n,
                              count(*) FILTER (WHERE pos) AS np
                       FROM j GROUP BY 1),
                 w AS (SELECT score, n, np,
                              coalesce(sum(n) OVER (
                                ORDER BY score
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                         AND 1 PRECEDING), 0) AS before
                       FROM v),
                 t AS (SELECT sum(np) AS npos, sum(n) - sum(np) AS nneg,
                              sum(np * (2 * before + n + 1)) AS r2
                       FROM w)
            SELECT CAST(npos + nneg AS BIGINT) AS n,
                   CAST(npos AS BIGINT) AS n_pos,
                   CAST(nneg AS BIGINT) AS n_neg,
                   round((r2 - npos * (npos + 1)) * 1.0
                         / (2 * npos * nneg), 6) AS auc
            FROM t""",
        "kappa_docs": f"""
            WITH clf AS ({_CLF_SQL}),
                 filt AS ({_QUALITY_FILTER_DOCS_SQL}),
                 j AS (SELECT c.quality_label AS pred, f.keep AS truth
                       FROM clf c JOIN filt f ON c.doc_id = f.doc_id),
                 cm AS (SELECT
                     count(*) FILTER (WHERE pred AND truth) AS tp,
                     count(*) FILTER (WHERE pred AND NOT truth) AS fp,
                     count(*) FILTER (WHERE NOT pred AND truth) AS fn,
                     count(*) FILTER (WHERE NOT pred AND NOT truth) AS tn
                   FROM j),
                 x AS (SELECT tp, fp, fn, tn, tp + fp + fn + tn AS n,
                              (tp + tn) * 1.0 / (tp + fp + fn + tn) AS po,
                              ((tp + fp) * (tp + fn) + (fn + tn) * (fp + tn))
                              * 1.0 / ((tp + fp + fn + tn)
                                       * (tp + fp + fn + tn)) AS pe
                       FROM cm)
            SELECT n, tp, fp, fn, tn,
                   round(po, 6) AS p_o, round(pe, 6) AS p_e,
                   round(CASE WHEN pe < 1 THEN (po - pe) / (1 - pe)
                              ELSE 0 END, 6) AS kappa
            FROM x""",
        "percentile_norm_docs": """
            SELECT doc_id, source, n_chars,
                   round(percent_rank() OVER (
                       PARTITION BY source ORDER BY n_chars), 6) AS pct_rank
            FROM documents ORDER BY doc_id""",
        "snm_pairs_customers": """
            WITH r AS (
              SELECT c_custkey AS id, c_name AS k,
                     row_number() OVER (
                         ORDER BY c_name, c_custkey) AS rn
              FROM customer)
            SELECT a.id AS id_a, b.id AS id_b,
                   CAST(levenshtein(a.k, b.k) AS BIGINT) AS lev
            FROM r a JOIN r b ON b.rn > a.rn AND b.rn < a.rn + 4
            WHERE levenshtein(a.k, b.k) <= 2
            ORDER BY id_a, id_b""",
        "snm_multipass_customers": """
            WITH r1 AS (
              SELECT c_custkey AS id, c_name AS k,
                     row_number() OVER (ORDER BY c_name, c_custkey) AS rn
              FROM customer),
            r2 AS (
              SELECT c_custkey AS id, reverse(c_name) AS k,
                     row_number() OVER (
                         ORDER BY reverse(c_name), c_custkey) AS rn
              FROM customer),
            p AS (
              SELECT least(a.id, b.id) AS id_a,
                     greatest(a.id, b.id) AS id_b,
                     levenshtein(a.k, b.k) AS lev
              FROM r1 a JOIN r1 b ON b.rn > a.rn AND b.rn < a.rn + 4
              WHERE levenshtein(a.k, b.k) <= 2
              UNION ALL
              SELECT least(a.id, b.id), greatest(a.id, b.id),
                     levenshtein(a.k, b.k)
              FROM r2 a JOIN r2 b ON b.rn > a.rn AND b.rn < a.rn + 4
              WHERE levenshtein(a.k, b.k) <= 2)
            SELECT id_a, id_b, CAST(min(lev) AS BIGINT) AS lev,
                   CAST(count(*) AS BIGINT) AS n_passes
            FROM p GROUP BY 1, 2 ORDER BY 1, 2""",
        "ttr_sources_docs": """
            WITH t AS (
              SELECT source,
                     unnest(list_filter(string_split_regex(text, '\\s+'),
                                        x -> x <> '')) AS token
              FROM documents),
            c AS (SELECT source, token, count(*) AS n FROM t GROUP BY 1, 2)
            SELECT source,
                   CAST(sum(n) AS BIGINT) AS n_tokens,
                   CAST(count(*) AS BIGINT) AS n_distinct,
                   CAST(count(*) FILTER (WHERE n = 1) AS BIGINT) AS n_hapax,
                   round(count(*) * 1.0 / sum(n), 6) AS ttr,
                   round(count(*) FILTER (WHERE n = 1) * 1.0 / count(*), 6)
                       AS hapax_ratio
            FROM c GROUP BY 1 ORDER BY 1""",
        "ngram_novelty_docs": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(text, '\\s+'),
                                 x -> x <> '') AS l
              FROM documents),
            g AS (
              SELECT DISTINCT doc_id,
                     unnest(list_transform(
                         generate_series(1, len(l) - 2),
                         i -> l[i] || ' ' || l[i+1] || ' ' || l[i+2])) AS gram
              FROM toks),
            first AS (SELECT gram, min(doc_id) AS fd FROM g GROUP BY 1),
            novel AS (SELECT fd AS doc_id, count(*) AS n_novel
                      FROM first GROUP BY 1),
            per AS (SELECT doc_id, count(*) AS n_distinct FROM g GROUP BY 1)
            SELECT p.doc_id,
                   CAST(p.n_distinct AS BIGINT) AS n_distinct,
                   CAST(coalesce(n.n_novel, 0) AS BIGINT) AS n_novel,
                   round(coalesce(n.n_novel, 0) * 1.0 / p.n_distinct, 6)
                       AS novelty
            FROM per p LEFT JOIN novel n USING (doc_id)
            ORDER BY p.doc_id""",
        "source_overlap_docs": """
            WITH toks AS (
              SELECT source,
                     list_filter(string_split_regex(text, '\\s+'),
                                 x -> x <> '') AS l
              FROM documents),
            g AS (
              SELECT DISTINCT source,
                     unnest(list_transform(
                         generate_series(1, len(l) - 2),
                         i -> l[i] || ' ' || l[i+1] || ' ' || l[i+2])) AS gram
              FROM toks),
            sz AS (SELECT source, count(*) AS n FROM g GROUP BY 1),
            p AS (SELECT a.source AS sa, b.source AS sb,
                         count(*) AS n_shared
                  FROM g a JOIN g b ON a.gram = b.gram
                                    AND a.source < b.source
                  GROUP BY 1, 2)
            SELECT p.sa AS source_a, p.sb AS source_b,
                   CAST(p.n_shared AS BIGINT) AS n_shared,
                   round(p.n_shared * 1.0
                         / (za.n + zb.n - p.n_shared), 6) AS jaccard
            FROM p JOIN sz za ON za.source = p.sa
                   JOIN sz zb ON zb.source = p.sb
            ORDER BY 1, 2""",
        # independent formulation: per-hour COUNT(DISTINCT) via a range
        # join — the library computes the same thing with a difference
        # array over first-occurrence intervals (no per-window scan)
        "sliding_distinct_users_events": """
            WITH p AS (
              SELECT DISTINCT user_id,
                     CAST(epoch(date_trunc('hour', ts)) / 3600 AS BIGINT)
                         AS h
              FROM events
              WHERE user_id IS NOT NULL AND ts IS NOT NULL),
            b AS (SELECT min(h) AS mn, max(h) AS mx FROM p),
            hours AS (SELECT unnest(generate_series(
                          (SELECT mn FROM b), (SELECT mx FROM b))) AS h)
            SELECT make_timestamp(hours.h * 3600 * 1000000)
                       AS window_start,
                   CAST(count(DISTINCT p.user_id) AS BIGINT) AS n_distinct
            FROM hours LEFT JOIN p ON p.h BETWEEN hours.h - 5 AND hours.h
            GROUP BY 1 ORDER BY 1""",
        # independent (no-short-circuit) per-rule flags — same rule
        # expressions as _QUALITY_FILTER_DOCS_SQL's chain CASE, each
        # null-safe on its own because no earlier rule shields it
        "rule_ablation_docs": f"""
            WITH toks AS (
              SELECT doc_id,
                     unnest(list_filter(string_split_regex(lower(text),
                                                           '\\s+'),
                                        x -> x <> '')) AS tok
              FROM documents),
            tok_counts AS (SELECT doc_id, tok, count(*) AS c
                           FROM toks GROUP BY 1, 2),
            tstats AS (
              SELECT doc_id, cast(sum(c) AS bigint) AS n_tok,
                     max(c) AS max_c,
                     cast(sum(CASE WHEN tok IN ({_STOPS}) THEN c
                              ELSE 0 END) AS bigint) AS n_stop
              FROM tok_counts GROUP BY 1),
            m AS (
              SELECT d.doc_id, d.text, d.lang,
                     coalesce(length(d.text), 0) AS len,
                     coalesce(length(regexp_replace(d.text, '\\s', '',
                                                    'g')), 0) AS nonspace,
                     coalesce(length(regexp_replace(d.text,
                                  '[A-Za-z0-9\\s]', '', 'g')), 0) AS syms,
                     coalesce(t.n_tok, 0) AS n_tok,
                     coalesce(t.max_c, 0) AS max_c,
                     coalesce(t.n_stop, 0) AS n_stop
              FROM documents d LEFT JOIN tstats t USING (doc_id)),
            flags AS (
              SELECT
                (text IS NULL OR trim(text) = '') AS f1,
                (len < {DOC_MIN_LEN} OR len > {DOC_MAX_LEN}) AS f2,
                coalesce(regexp_matches(text, '[0-9]')
                         AND regexp_full_match(text, '[0-9\\s.,/:+%-]+'),
                         false) AS f3,
                (lang IS NULL OR lang <> 'en') AS f4,
                (nonspace > 0
                 AND syms * 1.0 / greatest(nonspace, 1) > 0.3) AS f5,
                (n_tok >= 6
                 AND max_c * 1.0 / greatest(n_tok, 1) >= 0.5) AS f6,
                (n_tok >= 8
                 AND n_stop * 1.0 / greatest(n_tok, 1) < 0.08) AS f7
              FROM m),
            tot AS (SELECT count(*) AS n FROM flags),
            per AS (
              SELECT 'empty' AS rule,
                     count(*) FILTER (WHERE f1) AS n_hit,
                     count(*) FILTER (WHERE f1) AS n_first,
                     count(*) FILTER (WHERE f1 AND NOT (f2 OR f3 OR f4
                         OR f5 OR f6 OR f7)) AS n_sole FROM flags
              UNION ALL
              SELECT 'length', count(*) FILTER (WHERE f2),
                     count(*) FILTER (WHERE f2 AND NOT f1),
                     count(*) FILTER (WHERE f2 AND NOT (f1 OR f3 OR f4
                         OR f5 OR f6 OR f7)) FROM flags
              UNION ALL
              SELECT 'junk_numeric', count(*) FILTER (WHERE f3),
                     count(*) FILTER (WHERE f3 AND NOT (f1 OR f2)),
                     count(*) FILTER (WHERE f3 AND NOT (f1 OR f2 OR f4
                         OR f5 OR f6 OR f7)) FROM flags
              UNION ALL
              SELECT 'langid', count(*) FILTER (WHERE f4),
                     count(*) FILTER (WHERE f4 AND NOT (f1 OR f2 OR f3)),
                     count(*) FILTER (WHERE f4 AND NOT (f1 OR f2 OR f3
                         OR f5 OR f6 OR f7)) FROM flags
              UNION ALL
              SELECT 'symbol_ratio', count(*) FILTER (WHERE f5),
                     count(*) FILTER (WHERE f5 AND NOT (f1 OR f2 OR f3
                         OR f4)),
                     count(*) FILTER (WHERE f5 AND NOT (f1 OR f2 OR f3
                         OR f4 OR f6 OR f7)) FROM flags
              UNION ALL
              SELECT 'repetition', count(*) FILTER (WHERE f6),
                     count(*) FILTER (WHERE f6 AND NOT (f1 OR f2 OR f3
                         OR f4 OR f5)),
                     count(*) FILTER (WHERE f6 AND NOT (f1 OR f2 OR f3
                         OR f4 OR f5 OR f7)) FROM flags
              UNION ALL
              SELECT 'stopword_density', count(*) FILTER (WHERE f7),
                     count(*) FILTER (WHERE f7 AND NOT (f1 OR f2 OR f3
                         OR f4 OR f5 OR f6)),
                     count(*) FILTER (WHERE f7 AND NOT (f1 OR f2 OR f3
                         OR f4 OR f5 OR f6)) FROM flags)
            SELECT rule, CAST(n_hit AS BIGINT) AS n_hit,
                   CAST(n_first AS BIGINT) AS n_first,
                   CAST(n_sole AS BIGINT) AS n_sole,
                   round(n_sole * 1.0 / (SELECT n FROM tot), 6)
                       AS rescue_rate
            FROM per ORDER BY rule""",
        "char_entropy_docs": """
            WITH ch AS (
              SELECT doc_id, unnest(string_split(text, '')) AS c
              FROM documents WHERE text IS NOT NULL AND text <> ''),
            cc AS (SELECT doc_id, c, count(*) AS n FROM ch GROUP BY 1, 2),
            per AS (SELECT doc_id, sum(n) AS tot, sum(n * ln(n)) AS s
                    FROM cc GROUP BY 1)
            SELECT doc_id, CAST(tot AS BIGINT) AS n_chars,
                   round(ln(tot) - s / tot, 6) AS char_entropy
            FROM per ORDER BY doc_id""",
        "source_concentration_docs": """
            WITH g AS (SELECT source, count(*) AS n,
                              sum(n_chars) AS w
                       FROM documents GROUP BY 1),
            t AS (SELECT sum(n) AS tn, sum(w) AS tw FROM g)
            SELECT CAST(count(*) AS BIGINT) AS n_sources,
                   round(sum((n * 1.0 / t.tn) * (n * 1.0 / t.tn)), 6)
                       AS hhi_docs,
                   round(sum((w * 1.0 / t.tw) * (w * 1.0 / t.tw)), 6)
                       AS hhi_weight,
                   round(max(n * 1.0 / t.tn), 6) AS top_share_docs
            FROM g, t GROUP BY t.tn, t.tw""",
        "auc_by_source_docs": f"""
            WITH clf AS ({_CLF_SQL}),
                 filt AS ({_QUALITY_FILTER_DOCS_SQL}),
                 j AS (SELECT d.source AS grp, c.quality_score AS score,
                              f.keep AS pos
                       FROM documents d
                       JOIN clf c ON c.doc_id = d.doc_id
                       JOIN filt f ON f.doc_id = d.doc_id),
                 v AS (SELECT grp, score, count(*) AS n,
                              count(*) FILTER (WHERE pos) AS np
                       FROM j GROUP BY 1, 2),
                 w AS (SELECT grp, score, n, np,
                              coalesce(sum(n) OVER (
                                  PARTITION BY grp ORDER BY score
                                  ROWS BETWEEN UNBOUNDED PRECEDING
                                           AND 1 PRECEDING), 0) AS before
                       FROM v),
                 t AS (SELECT grp, sum(np) AS npos,
                              sum(n) - sum(np) AS nneg,
                              sum(np * (2 * before + n + 1)) AS r2
                       FROM w GROUP BY 1)
            SELECT grp AS source,
                   CAST(npos + nneg AS BIGINT) AS n,
                   CAST(npos AS BIGINT) AS n_pos,
                   CAST(nneg AS BIGINT) AS n_neg,
                   CASE WHEN npos > 0 AND nneg > 0
                        THEN round((r2 - npos * (npos + 1)) * 1.0
                                   / (2 * npos * nneg), 6)
                   END AS auc
            FROM t ORDER BY 1""",
        "behavior_entropy_users_events": """
            WITH c AS (SELECT user_id, event_type, count(*) AS n
                       FROM events
                       WHERE user_id IS NOT NULL
                             AND event_type IS NOT NULL
                       GROUP BY 1, 2),
            p AS (SELECT user_id, sum(n) AS tot, count(*) AS nd,
                         sum(n * ln(n)) AS s
                  FROM c GROUP BY 1)
            SELECT user_id, CAST(tot AS BIGINT) AS n,
                   CAST(nd AS BIGINT) AS n_distinct,
                   round(ln(tot) - s / tot, 6) AS entropy
            FROM p ORDER BY 1""",
        "decayed_engagement_users_events": """
            WITH t AS (SELECT max(ts) AS mx FROM events),
            w AS (SELECT user_id,
                         value * exp(-(epoch(t.mx) - epoch(ts))
                                     / 86400.0) AS w
                  FROM events, t
                  WHERE ts IS NOT NULL AND value IS NOT NULL
                        AND user_id IS NOT NULL)
            SELECT user_id, CAST(count(*) AS BIGINT) AS n,
                   round(sum(w), 6) AS decayed_sum
            FROM w GROUP BY 1 ORDER BY 1""",
        "late_events_events": """
            WITH e AS (
              SELECT event_id,
                     ts - to_microseconds(
                         CAST((md5_number_lower('lag-'
                               || CAST(event_id AS VARCHAR)) % 7200)
                              * 1000000 AS BIGINT)) AS et
              FROM events),
            w AS (SELECT et,
                         max(et) OVER (ORDER BY event_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                                      AND 1 PRECEDING) AS wm
                  FROM e)
            SELECT date_trunc('hour', et) AS window_start,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(count(*) FILTER (WHERE wm IS NOT NULL
                        AND et < wm - INTERVAL 30 MINUTE) AS BIGINT)
                       AS n_late,
                   round(count(*) FILTER (WHERE wm IS NOT NULL
                         AND et < wm - INTERVAL 30 MINUTE) * 1.0
                         / count(*), 6) AS late_ratio
            FROM w GROUP BY 1 ORDER BY 1""",
        "seasonal_anomalies_events": """
            WITH c AS (SELECT date_trunc('hour', ts) AS h, count(*) AS n
                       FROM events GROUP BY 1),
            s AS (SELECT h, n, dayofweek(h) AS dow, hour(h) AS hod FROM c),
            b AS (SELECT dow, hod, count(*) AS cnt, sum(n) AS s1,
                         sum(n * n) AS s2
                  FROM s GROUP BY 1, 2),
            f AS (SELECT s.h, s.n, b.s1 * 1.0 / b.cnt AS mu,
                         CASE WHEN b.cnt > 1
                              THEN sqrt(greatest(b.s2 - b.s1 * b.s1 * 1.0
                                                 / b.cnt, 0)
                                        / (b.cnt - 1))
                              ELSE 0 END AS sd
                  FROM s JOIN b USING (dow, hod))
            SELECT h AS hour, CAST(n AS BIGINT) AS n,
                   round(mu, 6) AS slot_mean, round(sd, 6) AS slot_std
            FROM f
            WHERE sd > 0 AND (n > round(mu + 1.5 * sd, 6)
                              OR n < round(mu - 1.5 * sd, 6))
            ORDER BY 1""",
        "grouped_tdigest_events": """
            SELECT event_type,
                   round(quantile_disc(value, 0.5), 6) AS p50,
                   round(quantile_disc(value, 0.95), 6) AS p95,
                   true AS p50_ok, true AS p95_ok
            FROM events WHERE value IS NOT NULL
            GROUP BY 1 ORDER BY 1""",
        "simhash_docs": _SIMHASH_SQL,
        "simhash_pairs_docs": _SIMHASH_PAIRS_SQL,
        "simhash_dedup_docs": _SIMHASH_DEDUP_SQL,
        "ngram_jaccard_dedup_docs": _NGRAM_JACCARD_DEDUP_SQL,
        "containment_dedup_docs": _CONTAINMENT_DEDUP_SQL,
        "budget_cap_docs": """
            WITH o AS (
              SELECT doc_id, source, n_chars,
                     sum(n_chars) OVER (
                       PARTITION BY source
                       ORDER BY md5('42-' || CAST(doc_id AS VARCHAR))
                       ROWS UNBOUNDED PRECEDING) AS cum_chars
              FROM documents)
            SELECT doc_id, source, n_chars,
                   CAST(cum_chars AS BIGINT) AS cum_chars
            FROM o WHERE cum_chars <= 2000 ORDER BY doc_id""",
        "winnow_fingerprints_docs": _WINNOW_FP_SQL,
        "bpe_token_stats_docs": _bpe_token_sql(),
        "gopher_repetition_docs": _GOPHER_REPETITION_SQL,
        "hash_split_docs": _HASH_SPLIT_SQL,
        "cluster_safe_split_docs": _cluster_safe_split_sql(),
        "neardup_cluster_stats_docs": _neardup_stats_sql(),
        "stratified_sample_docs": _STRATIFIED_SAMPLE_SQL,
        "pack_chunks_docs": _PACK_CHUNKS_SQL,
        "pack_sequences_docs": _PACK_SEQUENCES_SQL,
        "decontaminate_docs": _DECONTAMINATE_SQL,
        "decontaminate_bloom_docs": _DECONTAMINATE_SQL,
        "c4_clean_docs": _C4_CLEAN_SQL,
        "quality_classifier_docs": _CLF_SQL,
        "dsir_select_docs": _dsir_sql(),
        "semantic_dedup_embeddings": _sem_dedup_sql(),
        "dbscan_embeddings": _DBSCAN_SQL,
        # chunk-fingerprint dedup: the sliding-window CTE re-derived, then
        # one GROUP BY (checksum, n_toks) HAVING count >= 2; keeper = min
        # packed (doc_id·2^20 + chunk_idx) — same algebra as the Python
        "chunk_dedup_docs": r"""
WITH dt AS (
  SELECT doc_id,
         list_filter(string_split_regex(coalesce(text, ''), '\s+'),
                     x -> x <> '') AS toks
  FROM documents),
sz AS (SELECT doc_id, toks, len(toks) AS t FROM dt WHERE len(toks) > 0),
ch AS (SELECT doc_id, toks, t,
              unnest(generate_series(
                  0, CAST(ceil(greatest(t - 64, 0) / 48.0) AS BIGINT))) AS k
       FROM sz),
tok AS (SELECT doc_id, k, t,
               unnest(toks[k*48 + 1 : k*48 + least(64, t - k*48)]) AS tk,
               unnest(generate_series(1, least(64, t - k*48))) AS rel
        FROM ch),
chk AS (SELECT doc_id, k,
               CAST(least(64, t - k*48) AS BIGINT) AS n_toks,
               CAST(sum(rel * (CAST(md5_number_lower(tk) % 1000003 AS BIGINT)))
                    AS BIGINT) AS checksum
        FROM tok GROUP BY doc_id, k, t)
SELECT checksum, n_toks,
       CAST(count(*) AS BIGINT) AS n_dup,
       CAST(min(doc_id * 1048576 + k) // 1048576 AS BIGINT) AS keeper_doc,
       CAST(min(doc_id * 1048576 + k) % 1048576 AS BIGINT) AS keeper_chunk
FROM chk GROUP BY 1, 2 HAVING count(*) >= 2
ORDER BY checksum, n_toks
""",
        # image-side leakage-safe split: brute-force Hamming-<=2 pairs,
        # recursive min-label components, md5 split of the cluster label
        # (the _cluster_safe_split_sql contract over the image fixture)
        "cluster_safe_split_images": f"""
WITH RECURSIVE L AS ({_f1_labels_sql("image_id, phash")}),
p AS (SELECT a.image_id AS id_a, b.image_id AS id_b
      FROM L a JOIN L b ON a.image_id < b.image_id
      WHERE bit_count(xor(a.phash, b.phash)) <= 2),
nodes AS (SELECT id_a AS id FROM p UNION SELECT id_b FROM p),
e2 AS (SELECT id_a AS u, id_b AS w FROM p UNION SELECT id_b, id_a FROM p),
cc(id, lbl) AS (SELECT id, id FROM nodes
                UNION
                SELECT e.w, cc.lbl FROM cc JOIN e2 e ON e.u = cc.id),
comp AS (SELECT id, min(lbl) AS cluster FROM cc GROUP BY 1),
lbl AS (SELECT l.image_id, coalesce(c.cluster, l.image_id) AS cluster
        FROM L l LEFT JOIN comp c ON c.id = l.image_id),
b AS (SELECT image_id, cluster,
             md5_number_lower(CAST(cluster AS VARCHAR)) % 10000 AS bk
      FROM lbl)
SELECT image_id, cluster,
       CASE WHEN bk < 8000 THEN 'train'
            WHEN bk < 9000 THEN 'valid'
            ELSE 'test' END AS split
FROM b ORDER BY image_id
""",
        # sliding-window chunk replay: window starts 0, 48·k up to
        # ceil(max(T-64,0)/48); checksum = sum((relpos+1)·(md5low % 1000003))
        # over each window's 1-based token slice — order-sensitive, exact
        # in BIGINT. Window/stride/modulus shared with
        # functions/chunking.py (64/48/1000003).
        "sliding_chunks_docs": r"""
WITH dt AS (
  SELECT doc_id,
         list_filter(string_split_regex(coalesce(text, ''), '\s+'),
                     x -> x <> '') AS toks
  FROM documents),
sz AS (SELECT doc_id, toks, len(toks) AS t FROM dt WHERE len(toks) > 0),
ch AS (SELECT doc_id, toks, t,
              unnest(generate_series(
                  0, CAST(ceil(greatest(t - 64, 0) / 48.0) AS BIGINT))) AS k
       FROM sz),
tok AS (SELECT doc_id, k, t,
               unnest(toks[k*48 + 1 : k*48 + least(64, t - k*48)]) AS tk,
               unnest(generate_series(1, least(64, t - k*48))) AS rel
        FROM ch)
SELECT doc_id,
       CAST(k AS BIGINT) AS chunk_idx,
       CAST(k*48 AS BIGINT) AS start_tok,
       CAST(least(64, t - k*48) AS BIGINT) AS n_toks,
       CAST(sum(rel * (CAST(md5_number_lower(tk) % 1000003 AS BIGINT)))
            AS BIGINT) AS checksum
FROM tok GROUP BY doc_id, k, t ORDER BY doc_id, chunk_idx
""",
        "string_cluster_part": _STRING_CLUSTER_SQL,
        "minhash_neardup_docs": _minhash_sql(),
        # cross-run screen: recompute band keys for BOTH halves, count a
        # today-band as hit iff its (band_id, band_key) exists anywhere in
        # yesterday's distinct key set — exactly MinhashIndex.screen
        "cross_run_neardup_docs": f"""
    WITH {_minhash_bandk_cte()},
    hist AS (SELECT DISTINCT band_id, band_key FROM bandk WHERE doc_id % 2 = 0),
    today AS (SELECT * FROM bandk WHERE doc_id % 2 = 1),
    hits AS (SELECT t.doc_id, count(*) AS n
             FROM today t JOIN hist h
               ON t.band_id = h.band_id AND t.band_key = h.band_key
             GROUP BY 1)
    SELECT d.doc_id,
           coalesce(h.n, 0) AS n_hit_bands,
           coalesce(h.n, 0) >= 1 AS known_neardup
    FROM (SELECT doc_id FROM documents WHERE doc_id % 2 = 1) d
    LEFT JOIN hits h USING (doc_id)
    ORDER BY doc_id""",
        "quality_filter_images": _f1_labels_sql(
            "image_id, verdict, first_rule, scrubbed_caption AS caption, phash"),
        "phash_dedup_images": "SELECT phash, min(image_id) AS image_id FROM (" +
            _f1_labels_sql("image_id, phash") + ") GROUP BY phash",
        "best_of_cluster_images": _best_of_cluster_sql(),
        # brute-force all-pairs ground truth: pigeonhole says the blocked
        # candidate pass must find EVERY pair within threshold
        "phash_neardup_images": "WITH L AS (" + _f1_labels_sql("image_id, phash") + ") "
            "SELECT a.image_id AS id_a, b.image_id AS id_b, "
            "CAST(bit_count(xor(a.phash, b.phash)) AS BIGINT) AS hamming "
            "FROM L a JOIN L b ON a.image_id < b.image_id "
            "WHERE bit_count(xor(a.phash, b.phash)) <= 2 "
            "ORDER BY id_a, id_b",
        "audio_quality_clips": (" UNION ALL ".join(
            f"SELECT clip_id, duration_sec, rms, peak, zcr, "
            f"clipping_ratio, silence_ratio, verdict, first_rule "
            f"FROM read_parquet('/tmp/dq_ray_a1_{n}/audio_labels.parquet') "
            f"WHERE (SELECT greatest(500, count(*)) FROM documents) = {n}"
            for n in _A1_SIZES) + " ORDER BY clip_id"),
        "video_frame_dedup": (" UNION ALL ".join(
            f"SELECT l.video_id, CAST(l.n_frames AS BIGINT) AS n_frames, "
            f"CAST(l.n_sampled AS BIGINT) AS n_sampled, l.sig, k.keeper_id "
            f"FROM read_parquet('/tmp/dq_ray_v1_{n}/video_labels.parquet') l "
            f"JOIN (SELECT sig, min(video_id) AS keeper_id "
            f"      FROM read_parquet('/tmp/dq_ray_v1_{n}/video_labels.parquet') "
            f"      GROUP BY sig) k USING (sig) "
            f"WHERE (SELECT greatest(250, count(*) // 2) FROM documents) = {n}"
            for n in _V1_SIZES) + " ORDER BY video_id"),
        "audio_fingerprint_dedup": (" UNION ALL ".join(
            f"SELECT l.clip_id, CAST(l.n_fp_frames AS BIGINT) AS n_fp_frames, "
            f"l.fp_key, k.keeper_id "
            f"FROM read_parquet('/tmp/dq_ray_a1_{n}/audio_labels.parquet') l "
            f"JOIN (SELECT fp_key, min(clip_id) AS keeper_id "
            f"      FROM read_parquet('/tmp/dq_ray_a1_{n}/audio_labels.parquet') "
            f"      WHERE fp_key IS NOT NULL GROUP BY fp_key) k USING (fp_key) "
            f"WHERE l.fp_key IS NOT NULL "
            f"AND (SELECT greatest(500, count(*)) FROM documents) = {n}"
            for n in _A1_SIZES) + " ORDER BY clip_id"),
        "caption_search_images": _caption_search_sql(),
        "hard_negatives_images": _hard_negatives_sql(),
        "retrieval_eval_images": _retrieval_eval_sql(),
        "dihedral_phash_images": _dihedral_sql(),
        "hamming_store_images": "WITH L AS ("
            + _f1_labels_sql("image_id, phash") + "), "
            "q AS (SELECT image_id AS query_id, phash AS qsig FROM L "
            "      ORDER BY image_id LIMIT 4) "
            "SELECT q.query_id, l.image_id, "
            "       CAST(bit_count(xor(q.qsig, l.phash)) AS BIGINT) "
            "           AS hamming "
            "FROM q CROSS JOIN L l "
            "WHERE bit_count(xor(q.qsig, l.phash)) <= 2 "
            "ORDER BY query_id, image_id",
        # independent full-scan ground truth for the partial-merge top-k
        "phash_topk_images": "WITH L AS ("
            + _f1_labels_sql("image_id, phash") + "), "
            "q AS (SELECT image_id AS query_id, phash AS qsig FROM L "
            "      ORDER BY image_id LIMIT 4), "
            "d AS (SELECT q.query_id, l.image_id, "
            "             CAST(bit_count(xor(q.qsig, l.phash)) AS BIGINT) "
            "                 AS hamming "
            "      FROM q CROSS JOIN L l), "
            "r AS (SELECT *, row_number() OVER (PARTITION BY query_id "
            "          ORDER BY hamming, image_id) AS rank FROM d) "
            "SELECT query_id, image_id, hamming, CAST(rank AS BIGINT) AS rank "
            "FROM r WHERE rank <= 10 ORDER BY query_id, rank",
        # both edge sets re-derived independently (brute-force Hamming
        # cross join + caption clique), components via the recursive
        # min-label CTE — checks blocking completeness + union
        # connectivity, not a replay
        "multimodal_dedup_images": "WITH RECURSIVE raw AS ("
            + _f1_raw_sql("image_id, caption, phash") + "), "
            "vp AS (SELECT a.image_id AS id_a, b.image_id AS id_b "
            "       FROM raw a JOIN raw b ON a.image_id < b.image_id "
            "       WHERE bit_count(xor(a.phash, b.phash)) <= 2), "
            "cp AS (SELECT a.image_id AS id_a, b.image_id AS id_b "
            "       FROM raw a JOIN raw b ON a.caption = b.caption "
            "        AND a.image_id < b.image_id), "
            "pairs AS (SELECT * FROM vp UNION SELECT * FROM cp), "
            "nodes AS (SELECT id_a AS id FROM pairs "
            "          UNION SELECT id_b FROM pairs), "
            "edges AS (SELECT id_a AS u, id_b AS v FROM pairs "
            "          UNION SELECT id_b, id_a FROM pairs), "
            "cc(id, lbl) AS (SELECT id, id FROM nodes "
            "    UNION SELECT e.v, cc.lbl FROM cc JOIN edges e "
            "          ON e.u = cc.id), "
            "comp AS (SELECT id, min(lbl) AS lbl FROM cc GROUP BY 1) "
            "SELECT r.image_id, "
            "       coalesce(c.lbl, r.image_id) AS cluster, "
            "       coalesce(c.lbl, r.image_id) = r.image_id AS keep "
            "FROM raw r LEFT JOIN comp c ON c.id = r.image_id "
            "ORDER BY r.image_id",
        # independent brute-force ground truth for the cross-run Hamming
        # index: min distance over EVERY yesterday-signature per today-row
        "cross_run_phash_images": "WITH L AS ("
            + _f1_labels_sql("image_id, phash") + "), "
            "today AS (SELECT image_id, phash FROM L "
            "          WHERE CAST(substr(image_id, 4) AS BIGINT) % 2 = 1), "
            "hist AS (SELECT DISTINCT phash FROM L "
            "         WHERE CAST(substr(image_id, 4) AS BIGINT) % 2 = 0), "
            "hits AS (SELECT t.image_id, "
            "                min(bit_count(xor(t.phash, h.phash))) AS mh "
            "         FROM today t JOIN hist h "
            "           ON bit_count(xor(t.phash, h.phash)) <= 2 GROUP BY 1) "
            "SELECT t.image_id, "
            "       CAST(coalesce(h.mh, -1) AS BIGINT) AS min_hamming, "
            "       h.image_id IS NOT NULL AS known_neardup "
            "FROM today t LEFT JOIN hits h USING (image_id) "
            "ORDER BY t.image_id",
        "caption_alignment_images": (
            "WITH raw AS (" + _f1_raw_sql("image_id, caption, phash") + """),
            toks AS (SELECT image_id,
                            unnest(list_filter(string_split_regex(
                                lower(caption), '\\s+'), x -> x <> '')) AS tok
                     FROM raw),
            tb AS (SELECT image_id,
                          CAST(md5_number_lower(tok) % 64 AS INT) AS b,
                          CAST(count(*) AS DOUBLE) AS c
                   FROM toks GROUP BY 1, 2),
            u AS (SELECT image_id, phash::HUGEINT + CASE WHEN phash < 0
                         THEN 18446744073709551616::HUGEINT
                         ELSE 0::HUGEINT END AS u FROM raw),
            bits(b, p) AS (VALUES """
            + ", ".join(f"({b}, {1 << b}::HUGEINT)" for b in range(64))
            + """),
            d AS (SELECT tb.image_id,
                         sum(c * (CAST((u.u // bits.p) % 2 AS DOUBLE) * 2 - 1))
                             AS dot,
                         sqrt(sum(c * c)) AS tn
                  FROM tb
                  JOIN u ON u.image_id = tb.image_id
                  JOIN bits ON bits.b = tb.b
                  GROUP BY 1)
            SELECT r.image_id,
                   round(dot / (tn * 8.0), 6) AS alignment,
                   coalesce(dot / (tn * 8.0) >= 0.0, FALSE) AS is_aligned
            FROM raw r LEFT JOIN d USING (image_id)
            ORDER BY r.image_id"""),
        "webdataset_roundtrip_images": (
            "SELECT * FROM ("
            + _f1_raw_sql("image_id, CAST(octet_length(bytes) AS BIGINT)"
                          " AS n_bytes, caption")
            + ") ORDER BY image_id"),
        "image_features": _f1_labels_sql(
            "image_id, lum_mean, lum_std, phash_recomputed"),
        "image_quality_extended": (
            "SELECT image_id, sharpness, entropy,"
            "       least(w, h) < 40 AS too_small,"
            "       (w * 1.0 / h) < 0.5 OR (w * 1.0 / h) > 2.0 AS bad_aspect"
            " FROM (" + _f1_labels_sql("image_id, sharpness, entropy, w, h") + ")"),
        "image_embed_neardup": (
            "WITH L AS (" + _f1_labels_sql(
                "image_id, phash, lum_mean, lum_std, sharpness, entropy") + """)
            SELECT DISTINCT a.image_id AS id_a, b.image_id AS id_b,
              round((a.lum_mean*b.lum_mean + a.lum_std*b.lum_std
                     + a.sharpness*b.sharpness + a.entropy*b.entropy)
                / (sqrt(a.lum_mean^2 + a.lum_std^2 + a.sharpness^2 + a.entropy^2)
                 * sqrt(b.lum_mean^2 + b.lum_std^2 + b.sharpness^2 + b.entropy^2)),
                6) AS cos
            FROM L a JOIN L b ON a.image_id < b.image_id
             AND ((a.phash & 65535) = (b.phash & 65535)
               OR ((a.phash >> 16) & 65535) = ((b.phash >> 16) & 65535)
               OR ((a.phash >> 32) & 65535) = ((b.phash >> 32) & 65535)
               OR ((a.phash >> 48) & 65535) = ((b.phash >> 48) & 65535))
            WHERE round((a.lum_mean*b.lum_mean + a.lum_std*b.lum_std
                     + a.sharpness*b.sharpness + a.entropy*b.entropy)
                / (sqrt(a.lum_mean^2 + a.lum_std^2 + a.sharpness^2 + a.entropy^2)
                 * sqrt(b.lum_mean^2 + b.lum_std^2 + b.sharpness^2 + b.entropy^2)),
                6) >= 0.9999
            ORDER BY id_a, id_b"""),
        "dup_caption_images": (
            "SELECT caption, count(*) AS n_images, min(image_id) AS keeper_id"
            " FROM (" + _f1_raw_sql("image_id, caption") + ")"
            " WHERE caption IS NOT NULL GROUP BY caption"
            " HAVING count(*) > 1 ORDER BY caption"),
        "ar_bucket_batches_images": ("""
            WITH img AS (
              SELECT image_id,
                     CAST(w AS DOUBLE)
                       * (1 + CAST(substr(image_id, 4) AS BIGINT) % 4) AS w2,
                     CAST(h AS DOUBLE)
                       * (1 + CAST(substr(image_id, 4) AS BIGINT) % 3) AS h2
              FROM (""" + _f1_raw_sql("image_id, w, h") + """)),
            ladder(bucket_idx, bw, bh) AS (VALUES
              (0, 1024, 1024), (1, 1152, 896), (2, 896, 1152),
              (3, 1344, 768), (4, 768, 1344), (5, 1536, 640),
              (6, 640, 1536)),
            best AS (
              SELECT image_id, bucket_idx, bw, bh FROM (
                SELECT i.image_id, l.bucket_idx, l.bw, l.bh,
                       row_number() OVER (PARTITION BY i.image_id ORDER BY
                         round(abs(ln(i.w2 / i.h2)
                               - ln(CAST(l.bw AS DOUBLE) / l.bh)), 6),
                         l.bucket_idx) AS rn
                FROM img i CROSS JOIN ladder l)
              WHERE rn = 1),
            ranked AS (
              SELECT image_id, bucket_idx, bw, bh,
                     row_number() OVER (PARTITION BY bucket_idx
                                        ORDER BY image_id) - 1 AS r0,
                     count(*) OVER (PARTITION BY bucket_idx) AS n
              FROM best)
            SELECT image_id, CAST(bucket_idx AS BIGINT) AS bucket_idx,
                   CAST(bw AS BIGINT) AS bucket_w,
                   CAST(bh AS BIGINT) AS bucket_h,
                   CAST(r0 // 8 AS BIGINT) AS batch_id,
                   CAST(r0 % 8 AS BIGINT) AS slot
            FROM ranked WHERE r0 < (n // 8) * 8
            ORDER BY bucket_idx, batch_id, slot"""),
        "pivot_orders": """
            SELECT o_orderpriority AS priority,
                   count(*) FILTER (WHERE o_orderstatus = 'F') AS n_F,
                   count(*) FILTER (WHERE o_orderstatus = 'O') AS n_O,
                   count(*) FILTER (WHERE o_orderstatus = 'P') AS n_P
            FROM orders GROUP BY 1 ORDER BY 1""",
        "rollup_revenue": """
            WITH base AS (
              SELECT n.n_name AS nation,
                     CAST(year(o.o_orderdate) AS BIGINT) AS yr,
                     o.o_totalprice AS price
              FROM orders o
              JOIN customer c ON o.o_custkey = c.c_custkey
              JOIN nation n ON c.c_nationkey = n.n_nationkey)
            SELECT coalesce(nation, 'ALL') AS nation,
                   CAST(coalesce(yr, -1) AS BIGINT) AS yr,
                   round(sum(price), 2) AS revenue,
                   count(*) AS n_orders
            FROM base GROUP BY ROLLUP(nation, yr) ORDER BY 1, 2""",
        "snapshot_diff_orders": """
            WITH old AS (
              SELECT o_orderkey, o_orderstatus,
                     CASE WHEN o_orderkey % 5 = 0 THEN o_totalprice + 100.0
                          ELSE o_totalprice END AS o_totalprice,
                     CASE WHEN o_orderkey % 7 = 0 THEN '9-OLD'
                          ELSE o_orderpriority END AS o_orderpriority
              FROM orders WHERE o_orderkey % 11 <> 0),
            new AS (
              SELECT o_orderkey, o_orderstatus, o_totalprice, o_orderpriority
              FROM orders WHERE o_orderkey % 13 <> 0),
            d AS (
              SELECT coalesce(o.o_orderkey, n.o_orderkey) AS o_orderkey,
                     CASE WHEN o.o_orderkey IS NULL THEN 'added'
                          WHEN n.o_orderkey IS NULL THEN 'removed'
                          WHEN o.o_orderstatus <> n.o_orderstatus
                            OR o.o_totalprice <> n.o_totalprice
                            OR o.o_orderpriority <> n.o_orderpriority
                          THEN 'changed' ELSE 'unchanged' END AS status,
                     CASE WHEN o.o_orderkey IS NULL OR n.o_orderkey IS NULL
                          THEN ''
                          ELSE concat_ws(',',
                            CASE WHEN o.o_orderstatus <> n.o_orderstatus
                                 THEN 'o_orderstatus' END,
                            CASE WHEN o.o_totalprice <> n.o_totalprice
                                 THEN 'o_totalprice' END,
                            CASE WHEN o.o_orderpriority <> n.o_orderpriority
                                 THEN 'o_orderpriority' END)
                          END AS changed_cols
              FROM old o FULL JOIN new n ON o.o_orderkey = n.o_orderkey)
            SELECT * FROM d WHERE status <> 'unchanged' ORDER BY o_orderkey""",
        "fuzzy_join_customers": """
            WITH cat AS (
              SELECT c_custkey AS cat_key,
                     CASE WHEN c_custkey % 5 = 0
                          THEN substr(c_name, 1, length(c_name) - 1)
                          ELSE c_name END AS name
              FROM customer WHERE c_custkey % 3 <> 0)
            SELECT c.cat_key, r.c_custkey,
                   CAST(levenshtein(c.name, r.c_name) AS BIGINT) AS dist
            FROM cat c JOIN customer r
              ON substr(c.name, 1, 16) = substr(r.c_name, 1, 16)
             AND levenshtein(c.name, r.c_name) <= 1
            ORDER BY 1, 2""",
        "cube_orders": """
            SELECT coalesce(o_orderstatus, 'ALL') AS status,
                   coalesce(o_orderpriority, 'ALL') AS priority,
                   round(sum(o_totalprice), 2) AS revenue,
                   count(*) AS n
            FROM orders GROUP BY CUBE(o_orderstatus, o_orderpriority)
            ORDER BY 1, 2""",
        "curriculum_order_docs": """
            SELECT doc_id, n_chars,
                   CAST(row_number() OVER (ORDER BY n_chars DESC, doc_id)
                        AS BIGINT) AS rank
            FROM documents ORDER BY rank""",
        "top_tokens_per_lang": """
            WITH t AS (
              SELECT lang,
                     unnest(list_filter(string_split_regex(text, '\\s+'),
                                        x -> x <> '')) AS token
              FROM documents),
            c AS (SELECT lang, token, count(*) AS n FROM t GROUP BY 1, 2)
            SELECT lang, token, n, rank FROM (
              SELECT lang, token, n,
                     CAST(row_number() OVER (PARTITION BY lang
                          ORDER BY n DESC, token) AS BIGINT) AS rank
              FROM c)
            WHERE rank <= 5 ORDER BY lang, rank""",
        "global_top_orders": """
            SELECT o_orderkey, o_totalprice,
                   CAST(row_number() OVER (ORDER BY o_totalprice DESC,
                                           o_orderkey) AS BIGINT) AS rank
            FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 100""",
        "outer_join_customer_events": """
            WITH c AS (SELECT c_custkey, c_mktsegment FROM customer
                       WHERE c_custkey % 3 <> 0),
                 e AS (SELECT user_id AS c_custkey, count(*) AS n_events
                       FROM events GROUP BY 1)
            SELECT coalesce(c.c_custkey, e.c_custkey) AS c_custkey,
                   coalesce(c.c_mktsegment, 'NONE') AS c_mktsegment,
                   CAST(coalesce(e.n_events, -1) AS BIGINT) AS n_events
            FROM c FULL JOIN e ON c.c_custkey = e.c_custkey
            ORDER BY 1""",
        "impute_value_events": """
            WITH holed AS (
              SELECT event_id, event_type,
                     CASE WHEN event_id % 37 = 0 THEN NULL ELSE value END AS v
              FROM events),
            means AS (
              SELECT event_type, avg(v) AS m FROM holed GROUP BY 1),
            filled AS (
              SELECT h.event_id, h.event_type,
                     coalesce(h.v, m.m) AS v, h.v IS NULL AS was_null
              FROM holed h LEFT JOIN means m USING (event_type))
            SELECT event_type, count(*) AS n,
                   count(*) FILTER (was_null) AS n_filled,
                   round(sum(v), 2) AS sum_value,
                   round(sum(v) FILTER (was_null)
                         / nullif(count(*) FILTER (was_null), 0), 6)
                     AS fill_mean
            FROM filled GROUP BY 1 ORDER BY 1""",
        "regression_by_flag_lineitem": """
            SELECT l_returnflag,
                   count(l_quantity + l_extendedprice) AS n,
                   round(regr_slope(l_extendedprice, l_quantity), 6) AS slope,
                   round(regr_intercept(l_extendedprice, l_quantity), 6)
                     AS intercept,
                   round(corr(l_quantity, l_extendedprice), 6) AS "corr"
            FROM lineitem GROUP BY 1 ORDER BY 1""",
        "correlation_lineitem": """
            -- n = pairwise-non-null rows (corr/covar semantics), not count(*)
            SELECT count(l_quantity + l_extendedprice) AS n,
                   round(corr(l_quantity, l_extendedprice), 6) AS corr_qty_price,
                   round(covar_pop(l_quantity, l_extendedprice), 6) AS covar_qty_price
            FROM lineitem""",
        "entropy_profile": """
            SELECT * FROM (
              SELECT 'customer' AS tbl, 'c_mktsegment' AS col,
                     round(entropy(c_mktsegment), 6) AS entropy FROM customer
              UNION ALL
              SELECT 'events', 'event_type',
                     round(entropy(event_type), 6) FROM events
              UNION ALL
              SELECT 'orders', 'o_orderpriority',
                     round(entropy(o_orderpriority), 6) FROM orders
            ) ORDER BY tbl""",
        "benford_price_lineitem": """
            WITH d AS (
              SELECT CAST(substr(CAST(CAST(floor(l_extendedprice) AS BIGINT)
                                      AS VARCHAR), 1, 1) AS BIGINT) AS digit
              FROM lineitem
              WHERE l_extendedprice IS NOT NULL AND l_extendedprice >= 1)
            SELECT digit, count(*) AS n,
                   round(count(*) * 1.0 / (SELECT count(*) FROM d), 6) AS freq,
                   round(log10(1 + 1.0 / digit), 6) AS expected
            FROM d GROUP BY digit ORDER BY digit""",
        "outlier_iqr_lineitem": """
            WITH q AS (SELECT quantile_cont(l_extendedprice, 0.25) AS q1,
                              quantile_cont(l_extendedprice, 0.75) AS q3
                       FROM lineitem),
                 f AS (SELECT round(q1 - 1.5 * (q3 - q1), 6) AS fence_lo,
                              round(q3 + 1.5 * (q3 - q1), 6) AS fence_hi FROM q)
            SELECT fence_lo, fence_hi,
                   (SELECT count(*) FROM lineitem, f
                    WHERE l_extendedprice < fence_lo) AS n_low,
                   (SELECT count(*) FROM lineitem, f
                    WHERE l_extendedprice > fence_hi) AS n_high,
                   (SELECT count(*) FROM lineitem) AS n
            FROM f""",
        "trimmed_mean_lineitem": """
            WITH b AS (SELECT quantile_cont(l_extendedprice, 0.1) AS lo,
                              quantile_cont(l_extendedprice, 0.9) AS hi
                       FROM lineitem)
            SELECT (SELECT count(l_extendedprice) FROM lineitem) AS n,
                   count(*) AS n_kept, round(lo, 6) AS lo,
                   round(hi, 6) AS hi,
                   round(avg(l_extendedprice), 6) AS trimmed_mean
            FROM lineitem, b
            WHERE l_extendedprice BETWEEN lo AND hi
            GROUP BY lo, hi""",
        "mutual_info_orders": """
            WITH j AS (SELECT o_orderstatus AS a, o_orderpriority AS b,
                              count(*) AS n
                       FROM orders GROUP BY 1, 2),
                 t AS (SELECT sum(n) AS tot FROM j),
                 pa AS (SELECT a, sum(n) AS na FROM j GROUP BY 1),
                 pb AS (SELECT b, sum(n) AS nb FROM j GROUP BY 1),
                 mi AS (SELECT sum((j.n * 1.0 / t.tot)
                            * ln((j.n * 1.0 / t.tot)
                                 / ((pa.na * 1.0 / t.tot)
                                    * (pb.nb * 1.0 / t.tot)))) AS mi
                        FROM j JOIN pa USING (a) JOIN pb USING (b)
                        CROSS JOIN t),
                 ha AS (SELECT -sum((na * 1.0 / t.tot)
                                    * ln(na * 1.0 / t.tot)) AS h
                        FROM pa CROSS JOIN t),
                 hb AS (SELECT -sum((nb * 1.0 / t.tot)
                                    * ln(nb * 1.0 / t.tot)) AS h
                        FROM pb CROSS JOIN t)
            SELECT CAST(t.tot AS BIGINT) AS n, round(mi.mi, 6) AS mi,
                   round(mi.mi / sqrt(ha.h * hb.h), 6) AS nmi,
                   round(ha.h, 6) AS h_a, round(hb.h, 6) AS h_b
            FROM t, mi, ha, hb""",
        "k_anonymity_customer": """
            WITH c AS (SELECT c_nationkey, c_mktsegment, c_acctbal,
                              count(*) AS n
                       FROM customer GROUP BY 1, 2, 3),
                 g AS (SELECT c_nationkey, c_mktsegment,
                              sum(n) AS rows_, count(*) AS l_div
                       FROM c GROUP BY 1, 2)
            SELECT count(*) AS n_groups,
                   CAST(min(rows_) AS BIGINT) AS min_group_size,
                   count(*) FILTER (WHERE rows_ < 5) AS n_groups_lt_k,
                   CAST(coalesce(sum(rows_) FILTER (WHERE rows_ < 5), 0)
                        AS BIGINT) AS rows_at_risk,
                   min(l_div) AS min_l_diversity,
                   count(*) FILTER (WHERE l_div < 2) AS n_groups_lt_l
            FROM g""",
        "domain_quality_report_docs": f"""
            WITH chain AS ({_QUALITY_FILTER_DOCS_SQL}),
                 d AS ({_url_canon_with(_URL_BASE_SQL)}
                       SELECT doc_id, domain FROM dom
                       WHERE domain IS NOT NULL)
            SELECT d.domain, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(CASE WHEN c.keep THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_keep,
                   round(sum(CASE WHEN c.keep THEN 1 ELSE 0 END) * 1.0
                         / count(*), 6) AS keep_rate,
                   CAST(sum(CASE WHEN c.first_rule IN
                            ('toxicity', 'pii_email', 'pii_ssn',
                             'pii_phone') THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_scrubbed
            FROM chain c JOIN d USING (doc_id)
            GROUP BY 1 ORDER BY 1""",
        "best_of_cluster_docs": _best_of_text_cluster_sql(),
        "kcore_parts": _kcore_sql(Q.KCORE_K, Q.KCORE_ROUNDS),
        "strip_html_docs": _strip_html_sql(),
        "cadence_users_events": """
            WITH l AS (SELECT user_id, ts,
                              lag(ts) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS prev
                       FROM events),
                 g AS (SELECT user_id,
                              CAST(floor(date_diff('second', prev, ts)
                                         / 60.0) AS BIGINT) AS gap
                       FROM l WHERE prev IS NOT NULL)
            SELECT user_id, CAST(count(*) AS BIGINT) AS n_gaps,
                   CAST(quantile_disc(gap, 0.5) AS BIGINT) AS med_gap_min
            FROM g GROUP BY 1 ORDER BY 1""",
        "domain_keep_ci_docs": f"""
            WITH chain AS ({_QUALITY_FILTER_DOCS_SQL}),
                 d AS ({_url_canon_with(_URL_BASE_SQL)}
                       SELECT doc_id, domain FROM dom
                       WHERE domain IS NOT NULL),
                 g AS (SELECT d.domain,
                              CAST(count(*) AS BIGINT) AS n_docs,
                              CAST(sum(CASE WHEN c.keep THEN 1 ELSE 0 END)
                                   AS BIGINT) AS n_keep
                       FROM chain c JOIN d USING (doc_id) GROUP BY 1)
            SELECT domain, n_docs, n_keep,
                   round(((n_keep * 1.0 / n_docs)
                          + 1.96 * 1.96 / (2 * n_docs)
                          - 1.96 * sqrt((n_keep * 1.0 / n_docs)
                                        * (1 - n_keep * 1.0 / n_docs)
                                        / n_docs
                                        + 1.96 * 1.96
                                          / (4.0 * n_docs * n_docs)))
                         / (1 + 1.96 * 1.96 / n_docs), 6) AS ci_lo,
                   round(((n_keep * 1.0 / n_docs)
                          + 1.96 * 1.96 / (2 * n_docs)
                          + 1.96 * sqrt((n_keep * 1.0 / n_docs)
                                        * (1 - n_keep * 1.0 / n_docs)
                                        / n_docs
                                        + 1.96 * 1.96
                                          / (4.0 * n_docs * n_docs)))
                         / (1 + 1.96 * 1.96 / n_docs), 6) AS ci_hi
            FROM g ORDER BY domain""",
        "rfm_segments_orders": """
            WITH pc AS (SELECT o_custkey,
                          date_diff('day', DATE '1970-01-01',
                                    max(o_orderdate)) AS r,
                          count(*) AS f,
                          round(sum(o_totalprice), 2) AS m
                        FROM orders GROUP BY 1),
                 fe AS (SELECT
                     round(quantile_cont(r * 1.0, 0.25), 6) AS r1,
                     round(quantile_cont(r * 1.0, 0.50), 6) AS r2,
                     round(quantile_cont(r * 1.0, 0.75), 6) AS r3,
                     round(quantile_cont(f * 1.0, 0.25), 6) AS f1,
                     round(quantile_cont(f * 1.0, 0.50), 6) AS f2,
                     round(quantile_cont(f * 1.0, 0.75), 6) AS f3,
                     round(quantile_cont(m, 0.25), 6) AS m1,
                     round(quantile_cont(m, 0.50), 6) AS m2,
                     round(quantile_cont(m, 0.75), 6) AS m3
                   FROM pc)
            SELECT CAST((1 + CAST(r > r1 AS INT) + CAST(r > r2 AS INT)
                           + CAST(r > r3 AS INT)) * 100
                      + (1 + CAST(f > f1 AS INT) + CAST(f > f2 AS INT)
                           + CAST(f > f3 AS INT)) * 10
                      + (1 + CAST(m > m1 AS INT) + CAST(m > m2 AS INT)
                           + CAST(m > m3 AS INT)) AS BIGINT) AS rfm,
                   CAST(count(*) AS BIGINT) AS n_customers
            FROM pc, fe GROUP BY 1 ORDER BY 1""",
        "apportioned_sample_docs": """
            WITH w AS (SELECT source, count(*) AS n_rows,
                         1 + CAST(md5_number_lower(source) % 4 AS BIGINT)
                             AS wt
                       FROM documents GROUP BY 1),
                 t AS (SELECT sum(wt) AS tw FROM w),
                 q AS (SELECT source, n_rows, wt,
                              floor(120.0 * wt / t.tw) AS base,
                              120.0 * wt / t.tw
                                - floor(120.0 * wt / t.tw) AS rem
                       FROM w, t),
                 lo AS (SELECT CAST(120 - sum(base) AS BIGINT) AS lft
                        FROM q),
                 r AS (SELECT *, row_number() OVER
                           (ORDER BY rem DESC, source) AS rr FROM q),
                 a AS (SELECT source, n_rows,
                              least(CAST(base AS BIGINT)
                                    + CASE WHEN rr <= (SELECT lft FROM lo)
                                      THEN 1 ELSE 0 END,
                                    n_rows) AS alloc
                       FROM r),
                 s AS (SELECT d.doc_id, d.source,
                              row_number() OVER (PARTITION BY d.source
                                  ORDER BY md5('42-' || d.doc_id)) AS rk
                       FROM documents d)
            SELECT s.doc_id, s.source
            FROM s JOIN a USING (source)
            WHERE s.rk <= a.alloc ORDER BY s.doc_id""",
        "correlation_matrix_lineitem": """
            WITH f AS (SELECT l_quantity AS a1, l_extendedprice AS a2,
                              l_discount AS a3, l_tax AS a4
                       FROM lineitem
                       WHERE l_quantity IS NOT NULL
                         AND l_extendedprice IS NOT NULL
                         AND l_discount IS NOT NULL
                         AND l_tax IS NOT NULL)
            SELECT col_a, col_b, r, n FROM (
              SELECT 'l_quantity' AS col_a, 'l_extendedprice' AS col_b,
                     round(corr(a1, a2), 6) AS r,
                     CAST(count(*) AS BIGINT) AS n FROM f
              UNION ALL SELECT 'l_quantity', 'l_discount',
                     round(corr(a1, a3), 6), count(*) FROM f
              UNION ALL SELECT 'l_quantity', 'l_tax',
                     round(corr(a1, a4), 6), count(*) FROM f
              UNION ALL SELECT 'l_extendedprice', 'l_discount',
                     round(corr(a2, a3), 6), count(*) FROM f
              UNION ALL SELECT 'l_extendedprice', 'l_tax',
                     round(corr(a2, a4), 6), count(*) FROM f
              UNION ALL SELECT 'l_discount', 'l_tax',
                     round(corr(a3, a4), 6), count(*) FROM f
            ) ORDER BY col_a, col_b""",
        "mad_outliers_orders": """
            WITH m AS (SELECT o_orderstatus AS g,
                              quantile_disc(o_totalprice, 0.5) AS med
                       FROM orders GROUP BY 1),
                 d AS (SELECT o.o_orderstatus AS g,
                              abs(o.o_totalprice - m.med) AS dv
                       FROM orders o JOIN m ON m.g = o.o_orderstatus),
                 md AS (SELECT g, quantile_disc(dv, 0.5) AS mad
                        FROM d GROUP BY 1),
                 f AS (SELECT m.g, m.med, md.mad,
                         round(m.med - 3.0::DOUBLE * 1.4826::DOUBLE
                               * md.mad, 6) AS lo,
                         round(m.med + 3.0::DOUBLE * 1.4826::DOUBLE
                               * md.mad, 6) AS hi
                       FROM m JOIN md USING (g))
            SELECT f.g AS o_orderstatus, f.med, f.mad,
                   f.lo AS fence_lo, f.hi AS fence_hi,
                   CAST(count(*) FILTER (WHERE o.o_totalprice < f.lo
                        OR o.o_totalprice > f.hi) AS BIGINT) AS n_outliers,
                   CAST(count(*) AS BIGINT) AS n
            FROM orders o JOIN f ON f.g = o.o_orderstatus
            GROUP BY 1, 2, 3, 4, 5 ORDER BY 1""",
        "source_divergence_docs": r"""
            WITH toks AS (
              SELECT source,
                     CAST(md5_number_lower(unnest(list_filter(
                         string_split_regex(lower(text), '\s+'),
                         x -> x <> ''))) % 512 AS BIGINT) AS b
              FROM documents),
            c AS (SELECT source, b, count(*) AS n FROM toks GROUP BY 1, 2),
            ntot AS (SELECT count(*) AS n FROM toks),
            qb AS (SELECT r.range AS b,
                          (coalesce(t.n, 0) + 1.0)
                              / ((SELECT n FROM ntot) + 512) AS q
                   FROM range(512) r
                   LEFT JOIN (SELECT b, sum(n) AS n FROM c GROUP BY 1) t
                     ON t.b = r.range),
            ns AS (SELECT source, sum(n) AS n FROM c GROUP BY 1),
            p AS (SELECT s.source, r.range AS b,
                         (coalesce(c.n, 0) + 1.0) / (s.n + 512) AS p
                  FROM ns s CROSS JOIN range(512) r
                  LEFT JOIN c ON c.source = s.source AND c.b = r.range)
            SELECT p.source, CAST(ns.n AS BIGINT) AS n_tokens,
                   round(sum(p.p * ln(p.p / qb.q)), 6) AS kl
            FROM p JOIN qb USING (b) JOIN ns ON ns.source = p.source
            GROUP BY 1, 2 ORDER BY 1""",
        "readability_docs": r"""
            WITH w AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '\s+'),
                                 x -> x <> '') AS toks,
                     greatest(len(regexp_extract_all(lower(text),
                                                     '[.!?]+')), 1)
                         AS n_sentences
              FROM documents),
            syl AS (
              SELECT doc_id,
                     sum(greatest(len(regexp_extract_all(t, '[aeiouy]+')),
                                  1)) AS n_syllables
              FROM (SELECT doc_id, unnest(toks) AS t FROM w)
              GROUP BY 1)
            SELECT w.doc_id, CAST(len(w.toks) AS BIGINT) AS n_words,
                   CAST(w.n_sentences AS BIGINT) AS n_sentences,
                   CAST(s.n_syllables AS BIGINT) AS n_syllables,
                   round(206.835 - 1.015 * (len(w.toks) * 1.0
                                            / w.n_sentences)
                         - 84.6 * (s.n_syllables * 1.0 / len(w.toks)), 6)
                       AS flesch
            FROM w JOIN syl s USING (doc_id)
            WHERE len(w.toks) > 0
            ORDER BY w.doc_id""",
        "fuzzy_lookup_customers": """
            WITH m AS (SELECT c_custkey,
                         lower(substr(c_mktsegment, 1, p)
                               || substr(c_mktsegment, p + 2)) AS messy
                       FROM (SELECT c_custkey, c_mktsegment,
                               CAST(c_custkey % length(c_mktsegment)
                                    AS INT) AS p
                             FROM customer)),
                 c(canon) AS (VALUES ('AUTOMOBILE'), ('BUILDING'),
                                     ('FURNITURE'), ('HOUSEHOLD'),
                                     ('MACHINERY')),
                 s AS (SELECT m.c_custkey, m.messy, c.canon,
                              levenshtein(m.messy, c.canon) AS lev,
                              row_number() OVER (PARTITION BY m.c_custkey
                                  ORDER BY levenshtein(m.messy, c.canon),
                                           c.canon) AS rn
                       FROM m CROSS JOIN c)
            SELECT c_custkey, messy, canon AS canonical,
                   CAST(lev AS BIGINT) AS lev
            FROM s WHERE rn = 1 ORDER BY c_custkey""",
        "calibration_docs": f"""
            WITH clf AS ({_CLF_SQL}),
                 chain AS ({_QUALITY_FILTER_DOCS_SQL}),
                 j AS (SELECT c.doc_id, c.quality_score,
                              CASE WHEN h.keep THEN 1 ELSE 0 END AS keep
                       FROM clf c JOIN chain h USING (doc_id)),
                 r AS (SELECT *, row_number() OVER
                           (ORDER BY quality_score, doc_id) AS rn,
                           count(*) OVER () AS n
                       FROM j)
            SELECT CAST((rn - 1) * 10 // n AS BIGINT) AS bin,
                   CAST(count(*) AS BIGINT) AS n,
                   round(sum(quality_score) / count(*), 6) AS mean_score,
                   round(sum(keep) * 1.0 / count(*), 6) AS keep_rate
            FROM r GROUP BY 1 ORDER BY 1""",
        "domain_quality_prune_docs": f"""
            WITH clf AS ({_CLF_SQL}),
                 d AS ({_url_canon_with(_URL_BASE_SQL)}
                       SELECT doc_id, domain FROM dom
                       WHERE domain IS NOT NULL),
                 j AS (SELECT c.doc_id, d.domain, c.quality_score
                       FROM clf c JOIN d USING (doc_id)),
                 m AS (SELECT domain,
                              quantile_disc(quality_score, 0.5) AS med
                       FROM j GROUP BY 1)
            SELECT j.doc_id, j.domain, j.quality_score
            FROM j JOIN m USING (domain)
            WHERE j.quality_score >= m.med
            ORDER BY j.doc_id""",
        "cumulative_users_events": """
            WITH d AS (SELECT DISTINCT date_trunc('day', ts) AS day
                       FROM events),
                 t AS (SELECT day,
                         (SELECT count(DISTINCT e.user_id) FROM events e
                          WHERE date_trunc('day', e.ts) <= d.day)
                             AS cum_users
                       FROM d)
            SELECT day,
                   CAST(cum_users - coalesce(lag(cum_users)
                        OVER (ORDER BY day), 0) AS BIGINT) AS new_users,
                   CAST(cum_users AS BIGINT) AS cum_users
            FROM t ORDER BY day""",
        "gini_customer_spend": """
            WITH s AS (SELECT o_custkey,
                              round(sum(o_totalprice), 2) AS x
                       FROM orders GROUP BY 1),
                 r AS (SELECT x, row_number() OVER
                           (ORDER BY x, o_custkey) AS i
                       FROM s),
                 a AS (SELECT sum(x * i) AS sxi, sum(x) AS sx,
                              count(*) AS n
                       FROM r)
            SELECT CAST(n AS BIGINT) AS n, round(sx, 2) AS total,
                   round(2.0 * sxi / (n * sx) - (n + 1.0) / n, 6) AS gini
            FROM a""",
        "acf_events": """
            WITH c AS (SELECT date_trunc('hour', ts) AS hour,
                              count(*) AS n
                       FROM events GROUP BY 1)
            SELECT lag, n_pairs, acf FROM (""" + "\nUNION ALL".join(f"""
                SELECT {lag} AS lag, CAST(count(*) AS BIGINT) AS n_pairs,
                       round(corr(a.n, b.n), 6) AS acf
                FROM c a JOIN c b
                  ON b.hour = a.hour - INTERVAL {lag} HOUR"""
                for lag in range(1, 6)) + """
            ) ORDER BY lag""",
        "nfc_normalize_docs": """
            WITH r AS (SELECT doc_id,
                              text || (CASE WHEN doc_id % 2 = 0
                                       THEN ' cafe' || chr(769)
                                       ELSE ' zo' || chr(776) || 'e'
                                       END) AS raw
                       FROM documents)
            SELECT doc_id, nfc_normalize(raw) AS text_nfc,
                   CAST(length(nfc_normalize(raw)) AS BIGINT) AS nfc_len,
                   nfc_normalize(raw) <> raw AS changed
            FROM r ORDER BY doc_id""",
        "source_contamination_docs": _minhash_sql(final_select="""
            SELECT least(sa.source, sb.source) AS source_a,
                   greatest(sa.source, sb.source) AS source_b,
                   CAST(count(*) AS BIGINT) AS n_pairs
            FROM verified v
            JOIN documents sa ON sa.doc_id = v.id_a
            JOIN documents sb ON sb.doc_id = v.id_b
            GROUP BY 1, 2 ORDER BY 1, 2"""),
        "logreg_lineitem": _logreg_sql()(
            "SELECT l_quantity / 50.0 AS x1, l_discount * 10.0 AS x2, "
            "l_extendedprice / 100000.0 AS x3, "
            "CASE WHEN l_returnflag = 'R' THEN 1.0 ELSE 0.0 END AS y "
            "FROM lineitem WHERE l_quantity IS NOT NULL "
            "AND l_discount IS NOT NULL AND l_extendedprice IS NOT NULL "
            "AND l_returnflag IS NOT NULL",
            ["x1", "x2", "x3"], "y",
            rounds=Q.LOGREG_ROUNDS, lr=Q.LOGREG_LR),
        "lang_mix_docs": f"""
            WITH dp AS ({_langid_sql(
                final_select="SELECT doc_id, lang_pred FROM pred")}),
            lp AS ({_langid_sql(
                final_select="SELECT doc_id, lang_pred FROM pred",
                source="SELECT doc_id, l AS text, lang FROM ("
                       "SELECT doc_id, unnest(string_split(text, chr(10)))"
                       " AS l, lang FROM documents) WHERE trim(l) <> ''")})
            SELECT d.doc_id, d.lang_pred AS lang_doc,
                   CAST(count(*) AS BIGINT) AS n_lines,
                   CAST(sum(CASE WHEN l.lang_pred <> d.lang_pred
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_offlang,
                   round(sum(CASE WHEN l.lang_pred <> d.lang_pred
                             THEN 1 ELSE 0 END) * 1.0 / count(*), 6)
                       AS mix_ratio
            FROM lp l JOIN dp d USING (doc_id)
            GROUP BY 1, 2 ORDER BY 1""",
        "peak_rate_users_events": """
            WITH c AS (SELECT user_id, date_trunc('hour', ts) AS b,
                              count(*) AS n
                       FROM events GROUP BY 1, 2)
            SELECT user_id, CAST(max(n) AS BIGINT) AS peak,
                   CAST(sum(n) AS BIGINT) AS n_events,
                   CAST(count(*) AS BIGINT) AS n_buckets
            FROM c GROUP BY 1 HAVING max(n) > 2 ORDER BY 1""",
        "epoch_plan_docs": """
            SELECT doc_id, (rn - 1) // 64 AS shard_id,
                   (rn - 1) % 64 AS pos
            FROM (SELECT doc_id, row_number() OVER (
                      ORDER BY md5_number_lower('11-' || doc_id), doc_id
                  ) AS rn FROM documents)
            ORDER BY doc_id""",
        "pii_audit_docs": f"""
            WITH c AS (SELECT
                len(regexp_extract_all(text, '{EMAIL_PATTERN}')) AS e,
                len(regexp_extract_all(text, '{SSN_PATTERN}')) AS s,
                len(regexp_extract_all(text, '{PHONE_PATTERN}')) AS p,
                len(regexp_extract_all(text, '{_TOXIC_RE_SQL}')) AS t
                FROM documents)
            SELECT CAST(count(*) AS BIGINT) AS n_docs,
                   count(*) FILTER (WHERE e > 0) AS docs_email,
                   CAST(sum(e) AS BIGINT) AS hits_email,
                   count(*) FILTER (WHERE s > 0) AS docs_ssn,
                   CAST(sum(s) AS BIGINT) AS hits_ssn,
                   count(*) FILTER (WHERE p > 0) AS docs_phone,
                   CAST(sum(p) AS BIGINT) AS hits_phone,
                   count(*) FILTER (WHERE t > 0) AS docs_toxic,
                   CAST(sum(t) AS BIGINT) AS hits_toxic
            FROM c""",
        "zipf_fit_docs": r"""
            WITH toks AS (SELECT unnest(list_filter(
                              string_split_regex(lower(text), '\s+'),
                              x -> x <> '')) AS tok
                          FROM documents),
                 c AS (SELECT tok, count(*) AS n FROM toks GROUP BY 1),
                 top AS (SELECT tok, n, row_number() OVER
                             (ORDER BY n DESC, tok) AS r
                         FROM c QUALIFY r <= 500),
                 l AS (SELECT ln(r) AS x, ln(n) AS y FROM top)
            SELECT CAST(count(*) AS BIGINT) AS n_tokens,
                   round(regr_slope(y, x), 6) AS slope,
                   round(regr_intercept(y, x), 6) AS intercept,
                   round(corr(y, x), 6) AS r
            FROM l""",
        "contract_check_customer": """
            WITH n AS (SELECT CAST(count(*) AS BIGINT) AS n FROM customer)
            SELECT "column", rule, n_violations, n.n FROM (
              SELECT 'c_acctbal' AS "column", 'min' AS rule,
                     CAST(count(*) FILTER (WHERE c_acctbal < -900.0)
                          AS BIGINT) AS n_violations FROM customer
              UNION ALL SELECT 'c_acctbal', 'max',
                     count(*) FILTER (WHERE c_acctbal > 9000.0)
                     FROM customer
              UNION ALL SELECT 'c_custkey', 'not_null',
                     count(*) FILTER (WHERE c_custkey IS NULL)
                     FROM customer
              UNION ALL SELECT 'c_custkey', 'unique',
                     count(c_custkey) - count(DISTINCT c_custkey)
                     FROM customer
              UNION ALL SELECT 'c_mktsegment', 'allowed',
                     count(*) FILTER (WHERE c_mktsegment IS NOT NULL
                         AND c_mktsegment NOT IN ('AUTOMOBILE', 'BUILDING',
                                                  'FURNITURE', 'HOUSEHOLD'))
                     FROM customer
              UNION ALL SELECT 'c_name', 'regex',
                     count(*) FILTER (WHERE c_name IS NOT NULL AND NOT
                         regexp_full_match(c_name, 'Customer#[0-9]{9}'))
                     FROM customer
              UNION ALL SELECT 'c_nationkey', 'min',
                     count(*) FILTER (WHERE c_nationkey < 0) FROM customer
              UNION ALL SELECT 'c_nationkey', 'max',
                     count(*) FILTER (WHERE c_nationkey > 20) FROM customer
            ) CROSS JOIN n ORDER BY "column", rule""",
        "dp_counts_orders": """
            WITH c AS (SELECT o_orderpriority AS g, count(*) AS n
                       FROM orders GROUP BY 1),
                 u AS (SELECT g, n,
                              (CAST(md5_number_lower('42-' || g) AS DOUBLE)
                               + 0.5) / 18446744073709551616.0 AS u
                       FROM c)
            SELECT g AS o_orderpriority, CAST(n AS BIGINT) AS n,
                   round(n + (-(1.0 / 0.5))
                           * (CASE WHEN u > 0.5 THEN 1.0
                                   WHEN u < 0.5 THEN -1.0
                                   ELSE 0.0 END)
                           * ln(1 - 2 * abs(u - 0.5)), 6) AS noisy_n
            FROM u ORDER BY 1""",
        "scd2_orders": """
            WITH h AS (SELECT o_custkey AS k, o_orderdate AS d,
                              o_orderkey AS ok, o_orderstatus AS s
                       FROM orders),
                 w AS (SELECT *, CASE WHEN lag(s) OVER
                               (PARTITION BY k ORDER BY d, ok)
                               IS DISTINCT FROM s THEN 1 ELSE 0 END AS chg
                       FROM h),
                 r AS (SELECT *, sum(chg) OVER (PARTITION BY k
                               ORDER BY d, ok ROWS UNBOUNDED PRECEDING)
                               AS run
                       FROM w),
                 runs AS (SELECT k, run, s, min(d) AS valid_from,
                                 CAST(count(*) AS BIGINT) AS n_rows
                          FROM r GROUP BY k, run, s)
            SELECT k AS o_custkey, s AS o_orderstatus, valid_from, n_rows,
                   lead(valid_from) OVER (PARTITION BY k ORDER BY run)
                       AS valid_to,
                   lead(valid_from) OVER (PARTITION BY k ORDER BY run)
                       IS NULL AS is_current
            FROM runs ORDER BY o_custkey, valid_from, o_orderstatus""",
        "spearman_lineitem": """
            WITH r AS (SELECT l_quantity AS x, l_extendedprice AS y
                       FROM lineitem
                       WHERE l_quantity IS NOT NULL
                         AND l_extendedprice IS NOT NULL),
                 rk AS (SELECT
                    rank() OVER (ORDER BY x)
                      + (count(*) OVER (PARTITION BY x) - 1) / 2.0 AS rx,
                    rank() OVER (ORDER BY y)
                      + (count(*) OVER (PARTITION BY y) - 1) / 2.0 AS ry
                    FROM r)
            SELECT count(*) AS n, round(corr(rx, ry), 6) AS spearman
            FROM rk""",
        "seeded_shuffle_docs": """
            SELECT doc_id,
                   row_number() OVER (
                       ORDER BY md5_number_lower('7-' || doc_id), doc_id
                   ) AS rank
            FROM documents ORDER BY doc_id""",
        "chi_square_orders": """
            WITH j AS (SELECT o_orderstatus AS a, o_orderpriority AS b,
                              count(*) AS n
                       FROM orders GROUP BY 1, 2),
                 t AS (SELECT sum(n) AS tot FROM j),
                 pa AS (SELECT a, sum(n) AS na FROM j GROUP BY 1),
                 pb AS (SELECT b, sum(n) AS nb FROM j GROUP BY 1),
                 x AS (SELECT sum(j.n * j.n * 1.0 * t.tot
                                  / (pa.na * pb.nb)) - max(t.tot) AS chi2
                       FROM j JOIN pa USING (a) JOIN pb USING (b)
                       CROSS JOIN t),
                 k AS (SELECT (SELECT count(*) FROM pa) AS ka,
                              (SELECT count(*) FROM pb) AS kb)
            SELECT CAST(t.tot AS BIGINT) AS n, round(x.chi2, 6) AS chi2,
                   CAST((k.ka - 1) * (k.kb - 1) AS BIGINT) AS dof,
                   round(sqrt(x.chi2 / (t.tot * (least(k.ka, k.kb) - 1))),
                         6) AS cramers_v
            FROM t, x, k""",
        "ewma_anomalies_events": """
            WITH RECURSIVE c AS (
                SELECT event_type, date_trunc('hour', ts) AS hour,
                       count(*) AS n
                FROM events GROUP BY 1, 2),
            r AS (SELECT event_type, hour, n,
                         row_number() OVER (PARTITION BY event_type
                             ORDER BY hour) AS i
                  FROM c),
            e AS (SELECT event_type, hour, CAST(n AS BIGINT) AS n, i,
                         CAST(n AS DOUBLE) AS ewma,
                         CAST(NULL AS DOUBLE) AS ewma_prev,
                         CAST(NULL AS DOUBLE) AS threshold
                  FROM r WHERE i = 1
                  UNION ALL
                  SELECT r.event_type, r.hour, CAST(r.n AS BIGINT), r.i,
                         round(0.3::DOUBLE * r.n
                               + (1.0::DOUBLE - 0.3::DOUBLE) * e.ewma, 6),
                         e.ewma,
                         round(e.ewma + 3.0::DOUBLE * sqrt(e.ewma), 6)
                  FROM r JOIN e ON r.event_type = e.event_type
                              AND r.i = e.i + 1)
            SELECT event_type, hour, n, ewma_prev, threshold,
                   round(n - threshold, 6) AS score,
                   n > threshold AS flagged
            FROM e WHERE i > 1
            ORDER BY score DESC, event_type, hour LIMIT 10""",
        "rate_anomalies_events": """
            WITH c AS (SELECT event_type, date_trunc('hour', ts) AS hour,
                              count(*) AS n
                       FROM events GROUP BY 1, 2),
                 nh AS (SELECT count(DISTINCT hour) AS nh FROM c),
                 t AS (SELECT event_type, sum(n) AS tot FROM c GROUP BY 1)
            SELECT event_type, hour, n,
                   round(tot * 1.0 / nh, 6) AS expected,
                   round(tot * 1.0 / nh
                         + 3.0 * sqrt(tot * 1.0 / nh), 6) AS threshold
            FROM c JOIN t USING (event_type) CROSS JOIN nh
            WHERE n > round(tot * 1.0 / nh
                            + 3.0 * sqrt(tot * 1.0 / nh), 6)""",
        "bigram_pmi_docs": """
            WITH tok AS (
              SELECT list_filter(string_split_regex(text, '\\s+'),
                                 x -> x <> '') AS l
              FROM documents WHERE text IS NOT NULL),
            uni AS (SELECT unnest(l) AS t FROM tok),
            ucnt AS (SELECT t, count(*) AS n FROM uni GROUP BY 1),
            tu AS (SELECT count(*) AS tot FROM uni),
            bg AS (SELECT a, b FROM (
                     SELECT unnest(l) AS a, unnest(l[2:]) AS b FROM tok)
                   WHERE b IS NOT NULL),
            bcnt AS (SELECT a, b, count(*) AS n FROM bg GROUP BY 1, 2),
            tb AS (SELECT count(*) AS tot FROM bg)
            SELECT bcnt.a, bcnt.b, bcnt.n,
                   round(ln((bcnt.n * 1.0 / tb.tot) /
                            ((ua.n * 1.0 / tu.tot) *
                             (ub.n * 1.0 / tu.tot))), 6) AS pmi
            FROM bcnt CROSS JOIN tb CROSS JOIN tu
            JOIN ucnt ua ON ua.t = bcnt.a
            JOIN ucnt ub ON ub.t = bcnt.b
            WHERE bcnt.n >= 5
            ORDER BY pmi DESC, bcnt.a, bcnt.b LIMIT 50""",
        "skyline_parts": """
            SELECT p_partkey, p_retailprice, p_size FROM part p
            WHERE p_retailprice IS NOT NULL AND p_size IS NOT NULL
              AND NOT EXISTS (
                SELECT 1 FROM part q
                WHERE q.p_retailprice <= p.p_retailprice
                  AND q.p_size >= p.p_size
                  AND (q.p_retailprice < p.p_retailprice
                       OR q.p_size > p.p_size))""",
        "copurchase_lift_lineitem": """
            WITH d AS (SELECT DISTINCT l_orderkey AS g, l_partkey AS it
                       FROM lineitem),
                 ng AS (SELECT count(DISTINCT g) AS n_groups FROM d),
                 s AS (SELECT it, count(*) AS n_it FROM d GROUP BY 1),
                 p AS (SELECT x.it AS a, y.it AS b, count(*) AS n
                       FROM d x JOIN d y ON x.g = y.g AND x.it < y.it
                       GROUP BY 1, 2)
            SELECT p.a, p.b, p.n,
                   round(p.n * n_groups * 1.0 / (sa.n_it * sb.n_it), 6)
                     AS lift
            FROM p
            CROSS JOIN ng
            JOIN s sa ON sa.it = p.a
            JOIN s sb ON sb.it = p.b
            WHERE p.n >= 2
            ORDER BY lift DESC, p.a, p.b LIMIT 50""",
        "markov_transitions_events": """
            WITH s AS (
              SELECT event_type AS src,
                     lead(event_type) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id) AS dst
              FROM events)
            SELECT src, dst, count(*) AS n,
                   round(count(*) * 1.0 /
                         sum(count(*)) OVER (PARTITION BY src), 6) AS p
            FROM s WHERE dst IS NOT NULL
            GROUP BY src, dst""",
        "mad_outliers_events": """
            WITH m AS (SELECT count(value) AS n, median(value) AS med
                       FROM events),
                 d AS (SELECT median(abs(value - med)) AS mad
                       FROM events, m),
                 f AS (SELECT round(med - 3.5 * 1.4826 * mad, 6) AS fence_lo,
                              round(med + 3.5 * 1.4826 * mad, 6) AS fence_hi
                       FROM m, d)
            SELECT n, round(med, 6) AS median, round(mad, 6) AS mad,
                   fence_lo, fence_hi,
                   (SELECT count(*) FROM events, f
                    WHERE value < fence_lo) AS n_low,
                   (SELECT count(*) FROM events, f
                    WHERE value > fence_hi) AS n_high
            FROM m, d, f""",
        "uniqueness_profile_customer": (
            "SELECT * FROM (" + " UNION ALL ".join(
                _uniq_col_sql(c) for c in
                ("c_custkey", "c_name", "c_nationkey", "c_mktsegment"))
            + ") ORDER BY col"),
        "fd_check_part": (
            "SELECT * FROM (" + _fd_sql("p_name", "p_brand")
            + " UNION ALL " + _fd_sql("p_brand", "p_size")
            + ") ORDER BY fd"),
        "temporal_consistency_lineitem": """
            SELECT 'l_shipdate >= o_orderdate' AS rule,
                   count(*) AS n,
                   count(*) FILTER (WHERE l.l_shipdate < o.o_orderdate)
                       AS n_violations,
                   round(count(*) FILTER (WHERE l.l_shipdate < o.o_orderdate)
                         * 1.0 / count(*), 6) AS violation_rate
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey""",
        "grouped_weighted_sample_orders": """
            SELECT o_orderkey, o_orderstatus, o_totalprice FROM (
              SELECT o_orderkey, o_orderstatus, o_totalprice,
                     row_number() OVER (
                       PARTITION BY o_orderstatus
                       ORDER BY ln((md5_number_lower('42-' ||
                                      CAST(o_orderkey AS VARCHAR)) + 0.5)
                                   / 18446744073709551616.0)
                                / o_totalprice DESC, o_orderkey) AS rn
              FROM orders WHERE o_totalprice > 0)
            WHERE rn <= 8 ORDER BY o_orderstatus, o_orderkey""",
        "weighted_sample_orders": """
            SELECT o_orderkey, o_totalprice FROM (
              SELECT o_orderkey, o_totalprice,
                     ln((md5_number_lower('42-' || CAST(o_orderkey AS VARCHAR))
                         + 0.5) / 18446744073709551616.0) / o_totalprice AS score
              FROM orders WHERE o_totalprice > 0
              ORDER BY score DESC, o_orderkey LIMIT 200
            ) ORDER BY o_orderkey""",
        "drift_psi_orders": f"""
            WITH base AS (
              SELECT least(greatest(CAST(floor(o_totalprice / {Q.PSI_BIN_WIDTH})
                                         AS BIGINT), 0), {Q.PSI_N_BINS - 1}) AS bin,
                     CASE WHEN year(o_orderdate) < {Q.PSI_SPLIT_YEAR}
                          THEN 'ref' ELSE 'cur' END AS period
              FROM orders),
            counts AS (
              SELECT bin,
                     count(*) FILTER (WHERE period = 'ref') AS n_ref,
                     count(*) FILTER (WHERE period = 'cur') AS n_cur
              FROM base GROUP BY bin),
            tot AS (SELECT sum(n_ref) AS tr, sum(n_cur) AS tc FROM counts),
            per AS (SELECT bin, n_ref, n_cur,
                           greatest(n_ref * 1.0 / greatest(tr, 1), {Q.PSI_EPS}) AS p,
                           greatest(n_cur * 1.0 / greatest(tc, 1), {Q.PSI_EPS}) AS q
                    FROM counts, tot)
            SELECT bin, n_ref, n_cur, round(p, 6) AS p_ref,
                   round(q, 6) AS p_cur,
                   round((p - q) * ln(p / q), 6) AS psi_contrib
            FROM per
            UNION ALL
            SELECT -1, CAST(tr AS BIGINT), CAST(tc AS BIGINT), 1.0, 1.0,
                   (SELECT round(sum((p - q) * ln(p / q)), 6) FROM per)
            FROM tot
            ORDER BY bin""",
        "grouped_cardinality_events": """
            SELECT event_type, count(distinct user_id) AS exact_users,
                   true AS hll_ok
            FROM events GROUP BY 1 ORDER BY 1""",
        "referential_integrity": (
            "SELECT * FROM ("
            + _ri_rule_sql("events.user_id->customer.c_custkey",
                           "events", "user_id", "customer", "c_custkey")
            + " UNION ALL "
            + _ri_rule_sql("orders.o_custkey->customer.c_custkey",
                           "orders", "o_custkey", "customer", "c_custkey")
            + " UNION ALL "
            + _ri_rule_sql("customer.c_custkey->events.user_id",
                           "customer", "c_custkey", "events", "user_id")
            + ") ORDER BY rule"),
        "phonetic_keys_part": _phonetic_part_sql(),
        "perplexity_docs": _PPL_SQL,
        "dup_char_collapse_docs": _DUP_CHAR_SQL,
        "quality_filter_docs": _QUALITY_FILTER_DOCS_SQL,
        "text_pipeline_docs": f"""
            WITH chain AS ({_QUALITY_FILTER_DOCS_SQL}),
            kept AS (SELECT doc_id, scrubbed_text FROM chain WHERE keep),
            ded AS (
              SELECT doc_id, scrubbed_text FROM (
                SELECT doc_id, scrubbed_text,
                       row_number() OVER (PARTITION BY scrubbed_text
                                          ORDER BY doc_id) AS rn
                FROM kept) WHERE rn = 1),
            d AS (
              SELECT doc_id, length(scrubbed_text) AS n_tok,
                     CAST(coalesce(SUM(length(scrubbed_text)) OVER (
                          ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING
                          AND 1 PRECEDING), 0) AS BIGINT) AS st
              FROM ded),
            a AS (
              SELECT doc_id, n_tok, st,
                     CASE WHEN n_tok > 0
                          THEN (st + n_tok - 1) // 512 - st // 512 + 1
                          ELSE 0 END AS nc
              FROM d),
            e AS (SELECT doc_id, n_tok, st,
                         st // 512 + unnest(range(nc)) AS chunk_id FROM a)
            SELECT doc_id, chunk_id,
                   greatest(chunk_id * 512, st) - st AS tok_start,
                   least((chunk_id + 1) * 512, st + n_tok) - st AS tok_end
            FROM e ORDER BY doc_id, chunk_id""",
        "scrub_pii_docs": f"""
            SELECT doc_id,
              regexp_replace(regexp_replace(regexp_replace(regexp_replace(
                text, '{_TOXIC_RE_SQL}', '****', 'g'),
                '{EMAIL_PATTERN}', '<EMAIL>', 'g'),
                '{SSN_PATTERN}', '<SSN>', 'g'),
                '{PHONE_PATTERN}', '<PHONE>', 'g') AS scrubbed_text
            FROM documents""",
        # avg_price takes the compensated sum (sumKahan = DuckDB's fsum):
        # the plain double sum() drifts ~4e-10 over a group's cent amounts
        # and misrounds the 6th decimal on some inputs. The 2-dp money sum
        # stays the plain sum(l_extendedprice) — perfbench's EXACT_SUMS
        # rewrites that text to fsum() and needs to find it.
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 2) AS sum_qty,
                   round(sum(l_extendedprice), 2) AS sum_price,
                   count(*) AS n,
                   round(sum(l_quantity) / count(*), 6) AS avg_qty,
                   round(sumKahan(l_extendedprice) / count(*), 6) AS avg_price
            FROM lineitem GROUP BY 1, 2""",
        "moving_avg_events": """
            SELECT event_id, user_id,
                   round(sum(value) OVER w, 6) AS roll_sum,
                   round(avg(value) OVER w, 6) AS roll_avg
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 6 PRECEDING AND CURRENT ROW)
            ORDER BY event_id""",
        "window_rank_orders": """
            SELECT o_orderkey, o_orderstatus,
                   CAST(row_number() OVER w AS BIGINT) AS seq,
                   CAST(rank() OVER (PARTITION BY o_orderstatus
                        ORDER BY o_orderpriority) AS BIGINT) AS rnk,
                   CAST(dense_rank() OVER (PARTITION BY o_orderstatus
                        ORDER BY o_orderpriority) AS BIGINT) AS drnk,
                   CAST(ntile(4) OVER w AS BIGINT) AS quartile
            FROM orders
            WINDOW w AS (PARTITION BY o_orderstatus
                         ORDER BY o_orderpriority, o_orderkey)
            ORDER BY o_orderstatus, seq""",
        "tpch_q3_shipping": """
            SELECT o_orderkey,
                   round(sum(l_extendedprice * (1 - l_discount)), 2)
                       AS revenue,
                   o_orderdate, o_orderpriority
            FROM customer
            JOIN orders ON c_custkey = o_custkey
            JOIN lineitem ON l_orderkey = o_orderkey
            WHERE c_mktsegment = 'BUILDING'
              AND o_orderdate < TIMESTAMP '1998-06-01'
              AND l_shipdate > TIMESTAMP '1998-06-01'
            GROUP BY o_orderkey, o_orderdate, o_orderpriority
            ORDER BY revenue DESC, o_orderkey LIMIT 10""",
        "grouped_sample_docs": """
            SELECT lang, doc_id FROM (
                SELECT lang, doc_id,
                       row_number() OVER (PARTITION BY lang
                           ORDER BY md5('42-' || doc_id)) AS rn
                FROM documents)
            WHERE rn <= 20 ORDER BY lang, doc_id""",
        "skew_report_events": """
            WITH c AS (SELECT user_id, count(*) AS cnt
                       FROM events GROUP BY user_id),
            s AS (SELECT CAST(count(*) AS BIGINT) AS n_keys,
                         CAST(sum(cnt) AS BIGINT) AS n_rows,
                         CAST(max(cnt) AS BIGINT) AS max_cnt,
                         CAST(quantile_disc(cnt, 0.5) AS BIGINT) AS cnt_p50,
                         CAST(quantile_disc(cnt, 0.9) AS BIGINT) AS cnt_p90,
                         CAST(quantile_disc(cnt, 0.99) AS BIGINT) AS cnt_p99,
                         round(max(cnt) / avg(cnt), 6) AS max_over_mean
                  FROM c)
            SELECT CAST(row_number() OVER (ORDER BY cnt DESC, user_id)
                        AS BIGINT) AS rank,
                   user_id, CAST(cnt AS BIGINT) AS cnt,
                   n_rows, n_keys, max_cnt, cnt_p50, cnt_p90, cnt_p99,
                   max_over_mean
            FROM c, s ORDER BY cnt DESC, user_id LIMIT 10""",
        "window_value_orders": """
            SELECT o_orderkey,
                   o_orderstatus,
                   round(percent_rank() OVER (PARTITION BY o_orderstatus
                         ORDER BY o_orderpriority), 6) AS pr,
                   round(cume_dist() OVER (PARTITION BY o_orderstatus
                         ORDER BY o_orderpriority), 6) AS cd,
                   round(first_value(o_totalprice) OVER w, 2) AS first_price,
                   round(last_value(o_totalprice) OVER
                         (PARTITION BY o_orderstatus
                          ORDER BY o_orderpriority, o_orderkey
                          ROWS BETWEEN UNBOUNDED PRECEDING
                          AND UNBOUNDED FOLLOWING), 2) AS last_price,
                   round(nth_value(o_totalprice, 3) OVER
                         (PARTITION BY o_orderstatus
                          ORDER BY o_orderpriority, o_orderkey
                          ROWS BETWEEN UNBOUNDED PRECEDING
                          AND UNBOUNDED FOLLOWING), 2) AS third_price
            FROM orders
            WINDOW w AS (PARTITION BY o_orderstatus
                         ORDER BY o_orderpriority, o_orderkey)
            ORDER BY o_orderkey""",
        "cross_run_drift_orders": """
            WITH spine AS (SELECT unnest(range(12)) AS bin),
            d1 AS (SELECT o_totalprice * 1.0 AS x FROM orders
                   WHERE o_orderkey % 2 = 0),
            d2 AS (SELECT o_totalprice * 1.2 AS x FROM orders
                   WHERE o_orderkey % 2 = 1),
            b1 AS (SELECT CASE WHEN x < 0.0 THEN 0
                               WHEN x > 600000.0 THEN 11
                               ELSE least(CAST(floor((x - 0.0)
                                    / (600000.0 - 0.0) * 12) AS BIGINT), 11)
                          END AS bin FROM d1),
            b2 AS (SELECT CASE WHEN x < 0.0 THEN 0
                               WHEN x > 600000.0 THEN 11
                               ELSE least(CAST(floor((x - 0.0)
                                    / (600000.0 - 0.0) * 12) AS BIGINT), 11)
                          END AS bin FROM d2),
            h1 AS (SELECT bin, count(*) AS n FROM b1 GROUP BY 1),
            h2 AS (SELECT bin, count(*) AS n FROM b2 GROUP BY 1),
            j AS (SELECT s.bin, coalesce(h1.n, 0) AS n1, coalesce(h2.n, 0) AS n2
                  FROM spine s LEFT JOIN h1 USING (bin) LEFT JOIN h2 USING (bin)),
            t AS (SELECT sum(n1) AS t1, sum(n2) AS t2 FROM j),
            pq_ AS (SELECT greatest(n1 * 1.0 / greatest(t1, 1), 1e-6) AS p,
                           greatest(n2 * 1.0 / greatest(t2, 1), 1e-6) AS q
                    FROM j, t)
            SELECT 'day1' AS run_prev, 'day2' AS run_cur,
                   round(sum((p - q) * ln(p / q)), 6) AS psi
            FROM pq_""",
        "cross_run_profile_orders": """
            SELECT CAST(2 AS BIGINT) AS n_runs,
                   count(o_totalprice) AS n_price,
                   round(sum(o_totalprice), 2) AS sum_price,
                   min(o_totalprice) AS min_price,
                   max(o_totalprice) AS max_price,
                   round(sum(o_totalprice) / count(o_totalprice), 6) AS avg_price,
                   count(o_orderpriority) AS n_prio,
                   CAST(sum(length(o_orderpriority)) AS BIGINT) AS sum_prio_len,
                   round(sum(length(o_orderpriority)) * 1.0
                         / count(o_orderpriority), 6) AS avg_prio_len
            FROM orders""",
        "summary_orders": """
            SELECT o_orderstatus, count(*) AS n,
                   round(sum(o_totalprice), 2) AS sum_price,
                   min(o_totalprice) AS min_price,
                   max(o_totalprice) AS max_price,
                   round(sum(o_totalprice) / count(*), 6) AS avg_price
            FROM orders GROUP BY 1""",
        "text_length_by_lang": """
            SELECT lang, count(*) AS n,
                   cast(min(length(text)) AS bigint) AS min_len,
                   cast(max(length(text)) AS bigint) AS max_len,
                   cast(sum(length(text)) AS bigint) AS sum_len,
                   round(sum(length(text)) * 1.0 / count(*), 6) AS avg_len
            FROM documents GROUP BY 1""",
        "pattern_freq_customer": """
            SELECT regexp_replace(regexp_replace(regexp_replace(
                     c_name, '[a-z]', 'a', 'g'), '[A-Z]', 'A', 'g'), '[0-9]', '9', 'g') AS pattern,
                   count(*) AS n
            FROM customer GROUP BY 1""",
        "cardinality_exact": """
            SELECT (SELECT count(DISTINCT c_mktsegment) FROM customer) AS n_segments,
                   (SELECT count(DISTINCT o_orderpriority) FROM orders) AS n_priorities,
                   (SELECT count(DISTINCT l_returnflag) FROM lineitem) AS n_flags""",
        "histogram_quantity": """
            SELECT cast(least(floor(l_quantity / 5), 9) AS bigint) AS bin, count(*) AS n
            FROM lineitem GROUP BY 1""",
        "quantiles_price": """
            SELECT round(quantile_cont(l_extendedprice, 0.25), 6) AS q25,
                   round(quantile_cont(l_extendedprice, 0.50), 6) AS median,
                   round(quantile_cont(l_extendedprice, 0.75), 6) AS q75
            FROM lineitem""",
        "frequency_events": "SELECT event_type, count(*) AS n FROM events GROUP BY 1",
        "cardinality_hll_customer": """
            SELECT count(DISTINCT c_name) AS exact_names, true AS names_ok,
                   count(DISTINCT c_mktsegment) AS exact_segments, true AS segments_ok
            FROM customer""",
        "quantiles_tdigest_price": """
            SELECT count(*) AS n, true AS q25_ok, true AS median_ok, true AS q75_ok
            FROM lineitem""",
        "heavy_hitter_tokens_docs": f"""
            WITH t AS (
              SELECT unnest(list_filter(string_split_regex(text, '\\s+'), x -> x <> '')) AS token
              FROM documents)
            SELECT token, count(*) AS n, true AS ok
            FROM t GROUP BY 1
            ORDER BY n DESC, token ASC LIMIT {Q.HEAVY_HITTER_K}""",
        "nested_profile_customer": """
            SELECT 'rec.acctbal' AS path, 'DOUBLE' AS dominant_type,
                   count(c_acctbal) AS valid, count(*) - count(c_acctbal) AS nulls
            FROM customer
            UNION ALL
            SELECT 'rec.name', 'STRING', count(c_name), count(*) - count(c_name)
            FROM customer
            UNION ALL
            SELECT 'rec.segment', 'STRING', count(c_mktsegment),
                   count(*) - count(c_mktsegment)
            FROM customer""",
        "value_quality_customer": """
            SELECT count(*) FILTER (WHERE c_name IS NOT NULL AND trim(c_name) <> ''
                     AND regexp_full_match(c_name, 'Customer#[0-9]+')) AS valid,
                   count(*) FILTER (WHERE c_name IS NULL OR trim(c_name) = '') AS empty,
                   count(*) FILTER (WHERE c_name IS NOT NULL AND trim(c_name) <> ''
                     AND NOT regexp_full_match(c_name, 'Customer#[0-9]+')) AS invalid
            FROM customer""",
        "type_inference_docs": f"""
            SELECT column_name, inferred_type, count(*) AS n FROM (
              SELECT 'n_chars' AS column_name,
                CASE WHEN trim(v) = '' THEN 'EMPTY'
                     WHEN lower(trim(v)) IN ('true','false') THEN 'BOOLEAN'
                     WHEN regexp_full_match(trim(v), '{_INT_RE_SQL}') THEN 'INTEGER'
                     WHEN regexp_full_match(trim(v), '{_DBL_RE_SQL}') THEN 'DOUBLE'
                     ELSE 'STRING' END AS inferred_type
              FROM (SELECT cast(n_chars AS varchar) AS v FROM documents)
              UNION ALL
              SELECT 'text',
                CASE WHEN v IS NULL OR trim(v) = '' THEN 'EMPTY'
                     WHEN lower(trim(v)) IN ('true','false') THEN 'BOOLEAN'
                     WHEN regexp_full_match(trim(v), '{_INT_RE_SQL}') THEN 'INTEGER'
                     WHEN regexp_full_match(trim(v), '{_DBL_RE_SQL}') THEN 'DOUBLE'
                     ELSE 'STRING' END
              FROM (SELECT text AS v FROM documents)
            ) GROUP BY 1, 2""",
        "dedup_exact_docs": "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text",
        "reservoir_sample_lineitem": """
            SELECT l_orderkey, l_linenumber FROM lineitem
            ORDER BY md5('42-' || l_orderkey || chr(31) || l_linenumber) LIMIT 500""",
        "knn_embeddings": """
            WITH q AS (SELECT embedding::DOUBLE[] AS e FROM embeddings WHERE vec_id = 0)
            SELECT vec_id,
                   round(list_cosine_similarity(embedding::DOUBLE[], (SELECT e FROM q)), 6) AS sim
            FROM embeddings ORDER BY sim DESC, vec_id LIMIT 10""",
        # IVF store with nprobe == n_lists is EXACT, so brute-force cosine
        # is a hard oracle; the query itself asserts the nprobe=2 probe's
        # measured I/O-level scan reduction before returning
        "ivf_store_knn_embeddings": """
            WITH q AS (SELECT embedding::DOUBLE[] AS e FROM embeddings WHERE vec_id = 0)
            SELECT vec_id,
                   round(list_cosine_similarity(embedding::DOUBLE[], (SELECT e FROM q)), 6) AS sim
            FROM embeddings ORDER BY sim DESC, vec_id LIMIT 10""",
        "pq_topk_embeddings": _pq_topk_sql(),
        "ivfpq_store_embeddings": _pq_topk_sql(normalized=True),
        "ivfpq_residual_embeddings": _ivfpq_residual_sql(),
        "matching_pairs_supplier": """
            SELECT a.s_name AS name_a, b.s_name AS name_b,
                   levenshtein(a.s_name, b.s_name) AS dist
            FROM supplier a JOIN supplier b
              ON substring(a.s_name, 1, 14) = substring(b.s_name, 1, 14)
             AND a.s_name < b.s_name
            WHERE levenshtein(a.s_name, b.s_name) <= 2""",
        "blocking_fingerprint_part": """
            SELECT array_to_string(list_sort(list_distinct(list_filter(
                     string_split_regex(lower(strip_accents(p_type)), '[^a-z0-9]+'),
                     x -> x <> ''))), ' ') AS block_key,
                   count(*) AS n
            FROM part GROUP BY 1""",
        "golden_record_orders": """
            WITH pc AS (SELECT o_custkey, o_orderpriority AS p, count(*) AS c
                        FROM orders GROUP BY 1, 2),
            best AS (SELECT o_custkey, p FROM pc
                     QUALIFY row_number() OVER (PARTITION BY o_custkey ORDER BY c DESC, p ASC) = 1)
            SELECT o.o_custkey,
                   max(o.o_orderdate) AS most_recent,
                   round(max(o.o_totalprice), 2) AS largest_total,
                   any_value(b.p) AS common_priority
            FROM orders o JOIN best b USING (o_custkey) GROUP BY 1""",
        "survivorship_extended_orders": """
            WITH mr AS (SELECT o_custkey, max(o_orderdate) AS most_recent
                        FROM orders GROUP BY 1),
            rp AS (SELECT o.o_custkey, min(o.o_totalprice) AS recent_price
                   FROM orders o JOIN mr ON o.o_custkey = mr.o_custkey
                                        AND o.o_orderdate = mr.most_recent
                   GROUP BY 1),
            fk AS (SELECT o_custkey, min(o_orderkey) AS k FROM orders GROUP BY 1),
            fc AS (SELECT o.o_custkey, any_value(o.o_orderpriority) AS first_priority
                   FROM orders o JOIN fk ON o.o_custkey = fk.o_custkey
                                        AND o.o_orderkey = fk.k
                   GROUP BY 1),
            p AS (SELECT o_custkey,
                         min(o_totalprice) FILTER (WHERE o_totalprice > 150000) AS big
                  FROM orders GROUP BY 1)
            SELECT mr.o_custkey, mr.most_recent AS o_orderdate,
                   round(rp.recent_price, 2) AS recent_price,
                   fc.first_priority,
                   round(p.big, 2) AS price_over_150k
            FROM mr JOIN rp USING (o_custkey) JOIN fc USING (o_custkey)
                    JOIN p USING (o_custkey)""",
        "customer_region_broadcast": """
            SELECT c_custkey, r_name
            FROM customer JOIN nation ON c_nationkey = n_nationkey
                          JOIN region ON n_regionkey = r_regionkey""",
        "embedding_neardup_pairs": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b,
                   round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) AS cos
            FROM embeddings a JOIN embeddings b
              ON a.label = b.label AND a.vec_id < b.vec_id
            WHERE round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) >= 0.2""",
        "events_hourly_window": """
            SELECT event_type, date_trunc('hour', ts) AS window_start,
                   count(*) AS n, round(sum(value), 6) AS sum_value
            FROM events GROUP BY 1, 2""",
        "range_join_orders_bands": _range_bands_sql(),
        "bm25_search_docs": _bm25_sql(),
        "hybrid_rrf_docs": _hybrid_rrf_sql(),
        "paragraph_dedup_docs": _paragraph_dedup_sql(),
        "boilerplate_removal_docs": _boilerplate_sql(),
        "temperature_mix_docs": _temperature_mix_sql(),
        "tfidf_keywords_docs": _TFIDF_SQL,
        "kmeans_embeddings": _kmeans_sql(),
        "kcenter_coreset_embeddings": _kcenter_sql(),
        "mmr_select_embeddings": _mmr_sql(),
        "homoglyph_dedup_docs": _homoglyph_sql(),
        "url_canonical_docs": _url_canon_with(_URL_BASE_SQL) + """
SELECT doc_id, coalesce(url_canon, '') AS url_canon,
       coalesce(domain, '') AS domain
FROM dom ORDER BY doc_id""",
        "url_dedup_docs": _url_canon_with(
            _URL_BASE_SQL + "\nUNION ALL" + _URL_VARIANT_SQL) + """
SELECT min(doc_id) AS doc_id, url_canon, domain
FROM dom WHERE url_canon IS NOT NULL
GROUP BY url_canon, domain ORDER BY doc_id""",
        "domain_cap_docs": _url_canon_with(_URL_BASE_SQL) + """
SELECT doc_id, domain FROM (
    SELECT doc_id, domain,
           row_number() OVER (PARTITION BY domain
               ORDER BY md5('42-' || doc_id)) AS rn
    FROM dom WHERE url_canon IS NOT NULL)
WHERE rn <= 3 ORDER BY doc_id""",
        "fuzzy_decontaminate_docs": _fuzzy_decontaminate_sql(),
        "supplier_pagerank": _pagerank_sql(),
        # triangle ground truth INDEPENDENT of the degree orientation: the
        # x<y<z three-way self-join enumerates each triangle once, so a
        # wedge-generation or semi-join bug fails the hash compare. Edge
        # threshold (>= 2 pair instances) shared with the query.
        "triangle_coeff_part": r"""
WITH pe AS (SELECT a.l_partkey AS u, b.l_partkey AS v
            FROM lineitem a JOIN lineitem b
              ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
            GROUP BY 1, 2 HAVING count(*) >= 2),
deg AS (SELECT id, count(*) AS d
        FROM (SELECT u AS id FROM pe UNION ALL SELECT v AS id FROM pe)
        GROUP BY 1),
tr AS (SELECT e1.u AS x, e1.v AS y, e2.v AS z
       FROM pe e1 JOIN pe e2 ON e2.u = e1.v
                  JOIN pe e3 ON e3.u = e1.u AND e3.v = e2.v),
tc AS (SELECT id, count(*) AS t
       FROM (SELECT x AS id FROM tr UNION ALL SELECT y FROM tr
             UNION ALL SELECT z FROM tr)
       GROUP BY 1)
SELECT p.p_partkey,
       CAST(coalesce(deg.d, 0) AS BIGINT) AS deg,
       CAST(coalesce(tc.t, 0) AS BIGINT) AS tri,
       round(CASE WHEN coalesce(deg.d, 0) >= 2
                  THEN 2.0 * coalesce(tc.t, 0) / (deg.d * (deg.d - 1))
                  ELSE 0 END, 6) AS coef
FROM part p LEFT JOIN deg ON deg.id = p.p_partkey
            LEFT JOIN tc ON tc.id = p.p_partkey
ORDER BY p.p_partkey
""",
        # Adamic-Adar replay: same thresholded co-order graph, full wedge
        # enumeration per center, integer-quantized terms (round(1e6/ln d)
        # as BIGINT) so the sum is order-independent across engines
        "zorder_layout_lineitem": _zorder_sql(),
        "bootstrap_ci_lineitem": _bootstrap_sql(),
        "shard_rebalance_orders": _sharding_sql(),
        "link_prediction_part": r"""
WITH pe AS (SELECT a.l_partkey AS u, b.l_partkey AS v
            FROM lineitem a JOIN lineitem b
              ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
            GROUP BY 1, 2 HAVING count(*) >= 2),
deg AS (SELECT id, count(*) AS d
        FROM (SELECT u AS id FROM pe UNION ALL SELECT v AS id FROM pe)
        GROUP BY 1),
adj AS (SELECT u AS ctr, v AS nbr FROM pe UNION ALL SELECT v, u FROM pe),
wt AS (SELECT adj.ctr, adj.nbr,
              CAST(round(1000000.0 / ln(deg.d)) AS BIGINT) AS term
       FROM adj JOIN deg ON deg.id = adj.ctr),
wp AS (SELECT a.nbr AS id_a, b.nbr AS id_b, a.term
       FROM wt a JOIN wt b ON a.ctr = b.ctr AND a.nbr < b.nbr),
sc AS (SELECT id_a, id_b, count(*) AS cn, sum(term) AS aa_ppm
       FROM wp GROUP BY 1, 2),
ne AS (SELECT sc.* FROM sc LEFT JOIN pe
         ON pe.u = sc.id_a AND pe.v = sc.id_b
       WHERE pe.u IS NULL)
SELECT id_a, id_b, CAST(cn AS BIGINT) AS cn, CAST(aa_ppm AS BIGINT) AS aa_ppm
FROM ne ORDER BY aa_ppm DESC, id_a, id_b LIMIT 100
""",
        "fs_linkage_customers": _fs_linkage_sql(),
        "fs_entity_resolution_customers": _fs_linkage_sql(mode="entities"),
        "embedding_covariance": """
WITH v AS (SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings),
x AS (SELECT vec_id, unnest(e) AS val,
             unnest(generate_series(1, len(e))) AS dim FROM v),
n AS (SELECT count(*) AS n FROM v)
SELECT a.dim AS i, b.dim AS j,
       round(sum(a.val * b.val) / (SELECT n FROM n)
             - (sum(a.val) / (SELECT n FROM n))
               * (sum(b.val) / (SELECT n FROM n)), 6) AS cov
FROM x a JOIN x b ON a.vec_id = b.vec_id AND a.dim <= b.dim
GROUP BY 1, 2 ORDER BY 1, 2
""",
        "global_rank_orders": """
SELECT o_orderkey, round(o_totalprice, 2) AS o_totalprice,
       row_number() OVER (ORDER BY o_totalprice DESC, o_orderkey) AS rn
FROM orders ORDER BY o_orderkey
""",
        "campaign_overlap_events": """
WITH e AS (SELECT user_id, epoch_ns(ts) AS tn FROM events),
b AS (SELECT user_id, tn,
             CASE WHEN lag(tn) OVER w IS NULL
                       OR tn - lag(tn) OVER w > 1800000000000
                  THEN 1 ELSE 0 END AS brk
      FROM e WINDOW w AS (PARTITION BY user_id ORDER BY tn)),
s AS (SELECT user_id, tn,
             sum(brk) OVER (PARTITION BY user_id ORDER BY tn
                            ROWS UNBOUNDED PRECEDING) AS sid
      FROM b),
iv AS (SELECT user_id, min(tn) AS s_start, max(tn) AS s_end
       FROM s GROUP BY user_id, sid),
mm AS (SELECT min(tn) AS mn, max(tn) AS mx FROM e),
camp AS (SELECT k AS campaign_id,
                mn + ((mx - mn) * k) // 16 AS c_start,
                mn + ((mx - mn) * k) // 16 + (mx - mn) // 20 AS c_end
         FROM mm CROSS JOIN (SELECT unnest(generate_series(0, 15)) AS k)),
j AS (SELECT iv.user_id, camp.campaign_id,
             least(iv.s_end, camp.c_end)
               - greatest(iv.s_start, camp.c_start) AS ov
      FROM iv JOIN camp
        ON iv.s_start <= camp.c_end AND camp.c_start <= iv.s_end)
SELECT user_id, campaign_id, CAST(count(*) AS BIGINT) AS n_sessions,
       round(sum(ov) / 1e9, 6) AS total_overlap_sec
FROM j GROUP BY 1, 2 ORDER BY 1, 2
""",
        "range_partition_orders": """
WITH qs AS (SELECT unnest(quantile_disc(o_totalprice, [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875])) AS v
            FROM orders),
a AS (SELECT o_totalprice,
             (SELECT count(*) FROM qs WHERE o_totalprice > v) AS part_id
      FROM orders)
SELECT part_id, CAST(count(*) AS BIGINT) AS n,
       round(min(o_totalprice), 2) AS lo, round(max(o_totalprice), 2) AS hi
FROM a GROUP BY 1 ORDER BY 1
""",
        "substring_dedup_docs": _substring_dedup_sql(),
        "grouped_quantiles_orders": """
            SELECT o_orderpriority AS priority, count(*) AS n,
                   round(quantile_cont(o_totalprice, 0.25), 6) AS p25,
                   round(quantile_cont(o_totalprice, 0.50), 6) AS p50,
                   round(quantile_cont(o_totalprice, 0.75), 6) AS p75,
                   true AS p25_ok, true AS p50_ok, true AS p75_ok
            FROM orders GROUP BY 1""",
        "revenue_by_nation": """
            SELECT n.n_name AS nation, round(sum(o.o_totalprice), 2) AS revenue,
                   count(*) AS n_orders
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY 1""",
        "window_analytics_orders": """
            SELECT o_orderkey, o_custkey,
                   row_number() OVER w AS seq,
                   round(lag(o_totalprice) OVER w, 2) AS prev_total,
                   round(sum(o_totalprice) OVER w, 2) AS running_spend
            FROM orders
            WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey)
            ORDER BY o_orderkey""",
        "semi_anti_join_customers": """
            SELECT c_nationkey,
                   count(*) FILTER (WHERE EXISTS
                     (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey))
                     AS with_orders,
                   count(*) FILTER (WHERE NOT EXISTS
                     (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey))
                     AS without_orders
            FROM customer c GROUP BY 1 ORDER BY 1""",
        "top_orders_per_customer": """
            SELECT o_custkey, o_orderkey, o_totalprice,
                   row_number() OVER (PARTITION BY o_custkey
                                      ORDER BY o_totalprice DESC, o_orderkey)
                     AS "rank"
            FROM orders
            QUALIFY "rank" <= 3
            ORDER BY o_custkey, "rank" """,
        "asof_last_order_events": """
            WITH r AS (
              SELECT o_custkey AS user_id, o_orderdate AS last_order_date,
                     max(o_totalprice) AS price
              FROM orders GROUP BY 1, 2)
            SELECT e.user_id, e.ts, r.last_order_date,
                   round(r.price, 2) AS last_order_price
            FROM events e ASOF JOIN r
              ON e.user_id = r.user_id AND e.ts >= r.last_order_date""",
        "events_sliding_window": """
            WITH w AS (
              SELECT event_type, value,
                     date_trunc('minute', ts) - INTERVAL (extract(minute FROM ts)::int % 15) MINUTE
                       - INTERVAL (o.i * 15) MINUTE AS window_start
              FROM events, range(0, 4) o(i))
            SELECT event_type, window_start, count(*) AS n,
                   round(sum(value), 6) AS sum_value
            FROM w GROUP BY 1, 2""",
        "session_windows_events": """
            WITH marks AS (
              SELECT user_id, ts,
                     CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                               > INTERVAL 30 MINUTE OR
                               lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                          THEN 1 ELSE 0 END AS new_session
              FROM events),
            sess AS (
              SELECT user_id, ts,
                     sum(new_session) OVER (PARTITION BY user_id ORDER BY ts
                                            ROWS UNBOUNDED PRECEDING) AS session_id
              FROM marks),
            sizes AS (SELECT user_id, session_id, count(*) AS n
                      FROM sess GROUP BY 1, 2)
            SELECT user_id, count(*) AS n_sessions,
                   max(n) AS longest_session_events
            FROM sizes GROUP BY 1""",
        "funnel_conversion_events": """
            WITH s1 AS (SELECT user_id, min(ts) AS t1 FROM events
                        WHERE event_type = 'view' GROUP BY 1),
            s2 AS (SELECT e.user_id, min(e.ts) AS t2 FROM events e
                   JOIN s1 ON s1.user_id = e.user_id
                   WHERE e.event_type = 'click' AND e.ts > s1.t1 GROUP BY 1),
            s3 AS (SELECT e.user_id, min(e.ts) AS t3 FROM events e
                   JOIN s2 ON s2.user_id = e.user_id
                   WHERE e.event_type = 'purchase' AND e.ts > s2.t2 GROUP BY 1)
            SELECT 1 AS step, 'view' AS event_type,
                   (SELECT count(*) FROM s1) AS users,
                   0.0 AS avg_hours_from_prev
            UNION ALL
            SELECT 2, 'click', (SELECT count(*) FROM s2),
                   coalesce(round((SELECT sum(epoch(s2.t2 - s1.t1))
                                   FROM s2 JOIN s1 USING (user_id))
                            / nullif((SELECT count(*) FROM s2), 0)
                            / 3600.0, 6), 0.0)
            UNION ALL
            SELECT 3, 'purchase', (SELECT count(*) FROM s3),
                   coalesce(round((SELECT sum(epoch(s3.t3 - s2.t2))
                                   FROM s3 JOIN s2 USING (user_id))
                            / nullif((SELECT count(*) FROM s3), 0)
                            / 3600.0, 6), 0.0)
            ORDER BY step""",
        "bpe_tokens_docs": _bpe_sql(),
        "retention_cohorts_events": """
            WITH uw AS (
              SELECT DISTINCT user_id, date_trunc('week', ts) AS w
              FROM events WHERE ts IS NOT NULL),
            fw AS (SELECT user_id, min(w) AS cw FROM uw GROUP BY 1),
            j AS (
              SELECT uw.user_id, fw.cw,
                     date_diff('day', fw.cw, uw.w) // 7 AS off
              FROM uw JOIN fw USING (user_id)),
            c AS (SELECT cw, off, count(*) AS n_users FROM j GROUP BY 1, 2),
            s AS (SELECT cw, n_users AS sz FROM c WHERE off = 0)
            SELECT CAST(c.cw AS TIMESTAMP) AS cohort_week,
                   c.off AS week_offset, c.n_users,
                   round(c.n_users / s.sz, 6) AS retention
            FROM c JOIN s USING (cw) ORDER BY 1, 2""",
        "tumbling_daily_events": """
            SELECT event_type, date_trunc('day', ts) AS window_start,
                   count(*) AS n, round(sum(value), 2) AS sum_value,
                   round(avg(value), 6) AS avg_value
            FROM events WHERE ts IS NOT NULL
            GROUP BY 1, 2 ORDER BY 1, 2""",
        "json_extract_events": """
            SELECT event_type, count(*) AS n,
                   round(avg(CAST(json_extract_string(TRY_CAST(props AS JSON),
                                                      '$.k') AS BIGINT)), 6)
                     AS avg_k,
                   max(CAST(json_extract_string(TRY_CAST(props AS JSON),
                                                '$.k') AS BIGINT)) AS max_k
            FROM events GROUP BY 1 ORDER BY 1""",
        "json_profile_events": """
            WITH ks AS (
              SELECT props AS s,
                     unnest(json_keys(TRY_CAST(props AS JSON))) AS key
              FROM events),
            kv AS (
              SELECT key,
                     json_type(TRY_CAST(s AS JSON), '$."' || key || '"') AS type,
                     TRY_CAST(json_extract_string(TRY_CAST(s AS JSON),
                                                  '$."' || key || '"')
                              AS DOUBLE) AS num
              FROM ks)
            SELECT key, count(*) AS n_present,
                   count(*) FILTER (type = 'UBIGINT') AS n_ubigint,
                   min(num) AS min_num, max(num) AS max_num
            FROM kv GROUP BY 1 ORDER BY 1""",
        "email_validate_customers": f"""
            WITH e AS (
              SELECT c_custkey,
                     lower(replace(c_name, '#', '.')) || '@' ||
                     CASE WHEN c_nationkey % 3 = 0 THEN 'mail.example.com'
                          WHEN c_nationkey % 3 = 1 THEN 'web.example.org'
                          ELSE 'x.example.zz' END AS email
              FROM customer)
            SELECT c_custkey, email,
                   (regexp_full_match(email, '{EMAIL_PATTERN}')
                    AND lower(split_part(email, '.', -1)) IN ({_TLDS_SQL})) AS valid
            FROM e""",
        "phone_e164_customers": """
            WITH p AS (
              SELECT c_custkey, c_custkey % 7 = 0 AS short,
                     (200 + c_custkey % 700)::VARCHAR AS area,
                     CASE WHEN c_custkey % 7 = 0
                          THEN lpad((c_custkey % 1000)::VARCHAR, 3, '0')
                          ELSE lpad((c_custkey % 10000)::VARCHAR, 4, '0') END AS suffix
              FROM customer)
            SELECT c_custkey,
                   '(' || area || ') 555-' || suffix AS raw,
                   CASE WHEN short THEN '+' || area || '555' || suffix
                        ELSE '+1' || area || '555' || suffix END AS e164,
                   NOT short AS valid
            FROM p""",
        "date_format_roundtrip": """
            SELECT o_orderkey, strftime(o_orderdate, '%m/%d/%Y') AS us_form,
                   strftime(o_orderdate, '%Y-%m-%d') AS iso_form
            FROM orders""",
        "word_pattern_freq_part": """
            SELECT regexp_replace(p_name, '[a-z]+', '[word]', 'g') AS word_pattern,
                   count(*) AS n
            FROM part GROUP BY 1""",
        "julian_orders": "SELECT o_orderkey, round(julian(o_orderdate), 6) AS jd FROM orders",
        "distance_convert_part": "SELECT p_partkey, round(p_size * 1.609344, 6) AS km FROM part",
        "token_stats_docs": """
            WITH t AS (SELECT source,
                         len(list_filter(string_split_regex(text, '\\s+'), x -> x <> '')) AS n_tok
                       FROM documents)
            SELECT source, count(*) AS n_docs,
                   cast(sum(n_tok) AS bigint) AS sum_tokens,
                   round(sum(n_tok) * 1.0 / count(*), 6) AS avg_tokens
            FROM t GROUP BY 1""",
        "unimax_mix_docs": _unimax_sql(),
        "uncertainty_sample_docs": _uncertainty_sql(),
        "minhash_eval_docs": _minhash_eval_sql(),
        "curation_funnel_docs": _curation_funnel_sql(),
    }
