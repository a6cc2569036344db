"""Deterministic fixture generators (FIXTURES.md).

F1 — the north-rule input table of image+caption pairs with schema
``(image_id:string, bytes:binary, w:int32, h:int32, fmt:string,
caption:string, phash:int64)`` — plus its companion oracle label table F1L
``(image_id, keep, first_rule, scrubbed_caption)``.

Everything is a pure function of one integer seed (no wall clock, no
external data). Images are synthetic gradients + seeded noise; near-dup
clusters share base pixels so members share ``phash`` (the dedup shuffle
key). Storage is Parquet (multiple files so Ray gets parallel blocks);
``write_f1`` also writes Lance when the ``lance`` package is available
(it is not in this sandbox — the read path in sources/io.py mirrors this).
"""

from __future__ import annotations

import os
import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..stages import corpus as C
from ..stages.image import encode, phash64

F1_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
    ]
)

# caption class → weight (deterministic draw per row)
CLASS_WEIGHTS = [
    ("clean_en", 40),
    ("clean_other_lang", 8),
    ("too_short", 4),
    ("too_long", 4),
    ("repetitive", 5),
    ("char_run", 3),
    ("symbol_soup", 5),
    ("low_stopword", 5),
    ("junk_numeric", 5),
    ("high_perplexity", 6),
    ("pii_email", 4),
    ("pii_phone", 3),
    ("pii_ssn", 2),
    ("toxic", 3),
    ("composite_long_pii", 2),
]
_CLASSES = [c for c, _ in CLASS_WEIGHTS]
_WEIGHTS = [w for _, w in CLASS_WEIGHTS]


def _caption_for(cls: str, rng: random.Random) -> str:
    base = C.make_caption(rng)
    if cls == "clean_en":
        return base
    if cls == "clean_other_lang":
        return C.FOREIGN[rng.choice(list(C.FOREIGN))]
    if cls == "too_short":
        return rng.choice(["a dog", "cat", "the sky", "red car"])
    if cls == "too_long":
        return " ".join(C.make_caption(rng) for _ in range(10))
    if cls == "repetitive":
        w = rng.choice(["buy", "sale", "click", "cheap"])
        # function words keep langid=en so attribution lands on `repetition`
        return "the best " + " ".join([w] * rng.randint(8, 14)) + " deal"
    if cls == "char_run":
        return base + " sooooooo " + rng.choice(["coool", "niiiiice", "woooow"])
    if cls == "symbol_soup":
        return "the %s price of a %s deal %s now %s" % tuple(
            "".join(rng.choice("#$%!@&*^") for _ in range(rng.randint(3, 6))) for _ in range(4)
        )
    if cls == "low_stopword":
        return "the " + " ".join(rng.sample(C.NOUN, 14))
    if cls == "junk_numeric":
        return rng.choice(
            ["2024/08/17 123,456.78", "987654321 000 111", "12.5% 33.1% 44.9%", "+123-456 789"]
        )
    if cls == "high_perplexity":
        rare = rng.sample(C.RARE_WORDS, 8)
        return "the {} of {} and {} in {} {} the {} {} {}".format(*rare)
    if cls == "pii_email":
        return base + " contact me at user%d@example.com" % rng.randint(1, 999)
    if cls == "pii_phone":
        return base + " call +1 555-%03d-%04d today" % (rng.randint(100, 999), rng.randint(0, 9999))
    if cls == "pii_ssn":
        return base + " my id is %03d-%02d-%04d thanks" % (
            rng.randint(100, 999), rng.randint(10, 99), rng.randint(1000, 9999))
    if cls == "toxic":
        words = base.split()
        words.insert(rng.randint(1, len(words)), rng.choice(("frak", "smeg", "gorram")))
        return " ".join(words)
    if cls == "composite_long_pii":
        return " ".join(C.make_caption(rng) for _ in range(9)) + " reach me at someone@corp.example.org"
    raise ValueError(cls)


def _base_pixels(cluster_id: int, size: int) -> np.ndarray:
    """Deterministic gradient image for a cluster."""
    r = np.random.RandomState(cluster_id & 0x7FFFFFFF)
    gx = np.linspace(-128, 127, size, dtype=np.float64) * (r.rand() * 2 - 1)
    gy = np.linspace(-128, 127, size, dtype=np.float64) * (r.rand() * 2 - 1)
    grad = np.add.outer(gy, gx) + 128
    img = np.stack([(grad + r.randint(0, 80)) % 256 for _ in range(3)], axis=2)
    for _ in range(4):  # random bright/dark rectangles → distinctive phash
        x0, y0 = r.randint(0, size - 4, size=2)
        dx, dy = r.randint(4, max(5, size // 2), size=2)
        img[y0 : y0 + dy, x0 : x0 + dx, r.randint(0, 3)] = r.randint(0, 256)
    img += r.randint(0, 20, size=img.shape)
    return np.clip(img, 0, 255).astype(np.uint8)


def generate_f1_shard(start_row: int, n_rows: int, seed: int = 42,
                      dup_fraction: float = 0.15,
                      sizes: tuple[int, ...] = (32, 48)) -> pa.Table:
    """Generate rows [start_row, start_row+n_rows) of the F1 table.

    Shards are INDEPENDENT and deterministic in (seed, start_row): near-dup
    clusters never cross a shard boundary, so shards can be generated in
    parallel (one Ray task each) and concatenated in any grouping to give
    the identical table."""
    rng = random.Random((seed << 20) ^ start_row)
    ids, blobs, ws, hs, fmts, caps, hashes = [], [], [], [], [], [], []
    n_clusters = max(1, int(n_rows * (1 - dup_fraction)))
    cluster_cache: dict[int, tuple[np.ndarray, str, int]] = {}

    for j in range(n_rows):
        i = start_row + j
        if j < n_clusters:
            cluster = j
            cls = rng.choices(_CLASSES, weights=_WEIGHTS, k=1)[0]
            caption = _caption_for(cls, rng)
        else:
            cluster = rng.randrange(n_clusters)  # near-dup of an earlier row
            caption = None  # reuse the cluster caption → exact text dup too
        size = sizes[cluster % len(sizes)]
        if cluster in cluster_cache:
            base, base_caption, _ = cluster_cache[cluster]
        else:
            base = _base_pixels(seed * 1_000_003 + start_row + cluster, size)
            base_caption = caption
            cluster_cache[cluster] = (base, base_caption, size)
        if caption is None:
            caption = base_caption
            noise = np.random.RandomState(i & 0x7FFFFFFF).randint(-1, 2, size=base.shape)
            pixels = np.clip(base.astype(np.int16) + noise, 0, 255).astype(np.uint8)
        else:
            pixels = base
        fmt = "png" if (i % 2 == 0) else "jpeg"
        ids.append(f"img{i:09d}")
        blobs.append(encode(pixels, fmt))
        ws.append(size)
        hs.append(size)
        fmts.append(fmt)
        caps.append(caption)
        hashes.append(phash64(pixels))

    return pa.table(
        {
            "image_id": pa.array(ids, type=pa.string()),
            "bytes": pa.array(blobs, type=pa.binary()),
            "w": pa.array(ws, type=pa.int32()),
            "h": pa.array(hs, type=pa.int32()),
            "fmt": pa.array(fmts, type=pa.string()),
            "caption": pa.array(caps, type=pa.string()),
            "phash": pa.array(hashes, type=pa.int64()),
        },
        schema=F1_SCHEMA,
    )


def label_table(tbl: pa.Table, feature_labels: bool = False) -> pa.Table:
    """Construction-time oracle labels for an F1 shard: the row-by-row
    rule-chain oracle (rules/oracle.py) plus, when ``feature_labels``,
    per-image golden features (luminance mean/std, recomputed phash) from
    the decoded pixels — the independent comparison side for the driver's
    image-query oracles."""
    from ..pipelines.quality_filter import build_image_chain
    from ..rules.oracle import oracle_labels

    keep, first_rule, scrubbed = oracle_labels(
        tbl["caption"].to_numpy(zero_copy_only=False), build_image_chain()
    )
    verdict = np.where(~keep, "DROP", np.where(first_rule != "", "CORRECTED", "KEEP"))
    cols = {
        "image_id": tbl["image_id"],
        "keep": pa.array(keep),
        "verdict": pa.array(verdict.astype(object), type=pa.string()),
        "first_rule": pa.array(first_rule, type=pa.string()),
        "scrubbed_caption": pa.array(scrubbed, type=pa.string()),
        "phash": tbl["phash"],
    }
    if feature_labels:
        from ..stages.image import decode, phash64
        from ..stages.image_ops import LUM_W, sharpness_entropy

        lum_mean, lum_std, ph, sharp, ent = [], [], [], [], []
        for b, f in zip(tbl["bytes"].to_numpy(zero_copy_only=False),
                        tbl["fmt"].to_numpy(zero_copy_only=False)):
            px = decode(b, f).astype(np.float64)
            lum = px @ LUM_W
            lum_mean.append(round(float(lum.mean()), 4))
            lum_std.append(round(float(lum.std()), 4))
            ph.append(phash64(px.astype(np.uint8)))
            s, e = sharpness_entropy(px)
            sharp.append(s)
            ent.append(e)
        cols["lum_mean"] = pa.array(lum_mean, type=pa.float64())
        cols["lum_std"] = pa.array(lum_std, type=pa.float64())
        cols["phash_recomputed"] = pa.array(ph, type=pa.int64())
        cols["sharpness"] = pa.array(sharp, type=pa.float64())
        cols["entropy"] = pa.array(ent, type=pa.float64())
        cols["w"] = tbl["w"]
        cols["h"] = tbl["h"]
    return pa.table(cols)


def _write_labels(out_dir: str, n_rows: int, seed: int, feature_labels: bool) -> None:
    mode = "full" if feature_labels else "basic"
    marker = os.path.join(out_dir, f"_LABELS_{n_rows}_{seed}_{mode}_v3")
    if os.path.exists(marker):
        return
    import glob as _glob

    files = sorted(_glob.glob(os.path.join(out_dir, "part-*.parquet")))

    def one(path: str) -> pa.Table:
        return label_table(pq.read_table(path), feature_labels)

    try:  # parallel labelling when a Ray session is up
        import ray

        if ray.is_initialized() and len(files) > 1:
            task = ray.remote(one)
            parts = ray.get([task.remote(f) for f in files])
        else:
            raise ImportError
    except ImportError:
        parts = [one(f) for f in files]
    # leading underscore → ignored by pyarrow/Ray dataset discovery
    pq.write_table(pa.concat_tables(parts), os.path.join(out_dir, "_labels.parquet"))
    open(marker, "w").close()


def write_f1(out_dir: str, n_rows: int, seed: int = 42, rows_per_file: int = 8192,
             with_labels: bool = True, feature_labels: bool = False) -> str:
    """Write the F1 table as a directory of parquet files (+ _labels.parquet
    alongside when requested). Idempotent: image shards and the label file
    carry independent marker files, so label schema upgrades never force
    an image regeneration (the big bench fixtures stay cached)."""
    marker = os.path.join(out_dir, f"_DONE_{n_rows}_{seed}")
    if not os.path.exists(marker):
        os.makedirs(out_dir, exist_ok=True)

        def _write_shard(start: int) -> None:
            part = generate_f1_shard(start, min(rows_per_file, n_rows - start), seed)
            pq.write_table(part, os.path.join(out_dir, f"part-{start // rows_per_file:05d}.parquet"),
                           row_group_size=2048)

        starts = list(range(0, n_rows, rows_per_file))
        try:  # parallel generation when a Ray session is up (big bench tables)
            import ray

            if ray.is_initialized():
                task = ray.remote(_write_shard)
                ray.get([task.remote(s) for s in starts])
            else:
                raise ImportError
        except ImportError:
            for s in starts:
                _write_shard(s)
        try:  # optional Lance mirror (not available in this sandbox)
            import lance  # noqa: F401

            lance.write_dataset(pq.read_table(out_dir), os.path.join(out_dir, "images.lance"))
        except ImportError:
            pass
        open(marker, "w").close()
    if with_labels:
        _write_labels(out_dir, n_rows, seed, feature_labels)
    return out_dir


# ---------------------------------------------------------------------------
# F2 — typed-columns profiling table (mirrors Card_Exceptions_Preparation.csv)
# ---------------------------------------------------------------------------

F2_EXPECTED_TYPES = {
    "int_col": "INTEGER", "double_us": "DOUBLE", "double_eu": "DOUBLE",
    "double_sci": "DOUBLE", "percent_col": "DOUBLE", "bool_col": "BOOLEAN",
    "date_iso": "DATE", "date_us_slash": "DATE", "date_text_month": "DATE",
    "time_col": "TIME", "email_col": "STRING", "text_sentence": "STRING",
    "empty_heavy": "STRING", "mixed_type": "INTEGER", "fullwidth_digits": "INTEGER",
    "constant_col": "STRING",
}


def generate_f2(n_rows: int = 2000, seed: int = 42) -> "pa.Table":
    """All-string profiling table with known per-column dominant types
    (the reference's typed-fixture CSV pattern,
    AnalyzerPerformanceTest.java:46-52)."""
    rng = random.Random(seed)
    months = ["January", "March", "July", "October"]
    cols: dict[str, list] = {k: [] for k in F2_EXPECTED_TYPES}
    for i in range(n_rows):
        cols["int_col"].append(str(rng.randint(-5000, 5000)))
        cols["double_us"].append(f"{rng.uniform(0, 9999):,.2f}")
        cols["double_eu"].append(f"{rng.randint(1, 999)}.{rng.randint(100, 999)},{rng.randint(10, 99)}")
        cols["double_sci"].append(f"{rng.uniform(-5, 5):.3f}e{rng.randint(-8, 8)}")
        cols["percent_col"].append(f"{rng.uniform(0, 100):.1f}%")
        cols["bool_col"].append(rng.choice(["true", "false", "TRUE", "False"]))
        cols["date_iso"].append(f"{rng.randint(1990, 2024)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}")
        cols["date_us_slash"].append(f"{rng.randint(1, 12)}/{rng.randint(1, 28)}/{rng.randint(1990, 2024)}")
        cols["date_text_month"].append(f"{rng.choice(months)} {rng.randint(1, 28)}, {rng.randint(1990, 2024)}")
        cols["time_col"].append(f"{rng.randint(0, 23)}:{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d}")
        cols["email_col"].append(f"user{i}@example.{rng.choice(['com', 'org'])}")
        cols["text_sentence"].append(" ".join(rng.sample(["alpha", "beta", "gamma", "delta", "omega"], 3)))
        cols["empty_heavy"].append("" if rng.random() < 0.3 else rng.choice(["x", "yy", "zzz"]))
        # 70% int / 30% text — the 0.5 dominant-type threshold edge
        cols["mixed_type"].append(str(rng.randint(0, 99)) if rng.random() < 0.7 else "text")
        cols["fullwidth_digits"].append("".join("０１２３４５６７８９"[int(c)] for c in str(rng.randint(1, 9999))))
        cols["constant_col"].append("CONST")
    return pa.table({k: pa.array(v, type=pa.string()) for k, v in cols.items()})
