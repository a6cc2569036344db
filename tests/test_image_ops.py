"""Multimodal stages: resize, feature extraction, video frame sampling."""

import numpy as np
import pytest

from data_quality_ray.stages.image import decode, encode_png
from data_quality_ray.stages.image_ops import (
    encode_fake_video, resize_pixels,
)


def test_resize_pixels_box_filter():
    px = np.zeros((32, 32, 3), dtype=np.uint8)
    px[:16] = 200  # top half bright
    out = resize_pixels(px, 4, 4)
    assert out.shape == (4, 4, 3)
    assert (out[:2] == 200).all() and (out[2:] == 0).all()
    # constant image stays constant at any size
    const = np.full((33, 17, 3), 77, dtype=np.uint8)
    assert (resize_pixels(const, 5, 9) == 77).all()


def test_resize_stage(ray_session, f1_dir):
    import ray.data as rd

    from data_quality_ray.stages.image_ops import resize_images

    ds = rd.read_parquet(f1_dir, columns=["image_id", "bytes", "fmt"]).limit(40)
    out = resize_images(ds, 8, 8, concurrency=2).to_pandas()
    assert out["bytes_resized"].notna().all()
    px = decode(bytes(out["bytes_resized"].iloc[0]), out["fmt"].iloc[0])
    assert px.shape == (8, 8, 3)


def test_feature_stage(ray_session, f1_dir):
    import ray.data as rd

    from data_quality_ray.stages.image_ops import extract_image_features

    ds = rd.read_parquet(f1_dir, columns=["image_id", "bytes", "fmt", "phash"]).limit(40)
    out = extract_image_features(ds, concurrency=2).to_pandas()
    assert out["lum_mean"].between(0, 255).all()
    assert out["mean_rgb"].map(len).eq(3).all()
    hist_sums = out["lum_hist"].map(sum)
    assert ((hist_sums - 1).abs() < 1e-3).all()
    # png rows: recomputed phash equals the stored one exactly
    png = out[out["fmt"] == "png"]
    assert (png["phash_recomputed"] == png["phash"]).all()


def test_frame_sampling(ray_session):
    import ray.data as rd

    from data_quality_ray.stages.image_ops import sample_frames

    rng = np.random.RandomState(0)
    frames = [rng.randint(0, 256, size=(16, 16, 3)).astype(np.uint8) for _ in range(10)]
    rows = [
        {"vid_id": "v1", "video": encode_fake_video(frames)},
        {"vid_id": "v2", "video": b"not-a-video"},  # real codecs absent → None (stub path)
    ]
    # consume as Arrow: list<binary> columns don't round-trip through
    # pandas (Ray tries a tensor-extension cast) — a known pitfall the
    # stage sidesteps by staying batch_format="pyarrow"
    import pyarrow as pa

    tbl = pa.concat_tables(
        sample_frames(rd.from_items(rows), n_frames=4)
        .iter_batches(batch_size=16, batch_format="pyarrow")
    )
    by_id = {tbl["vid_id"][i].as_py(): i for i in range(len(tbl))}
    i1, i2 = by_id["v1"], by_id["v2"]
    assert tbl["frame_indices"][i1].as_py() == [0, 3, 6, 9]
    sampled = tbl["frames"][i1].as_py()
    assert len(sampled) == 4
    assert np.array_equal(decode(bytes(sampled[0]), "png"), frames[0])
    assert tbl["frames"][i2].as_py() is None


def _gray(values: np.ndarray, cell: int) -> np.ndarray:
    """8×8 grid of gray levels → an RGB image of ``cell``×``cell`` blocks."""
    g = np.kron(values, np.ones((cell, cell), dtype=values.dtype)).astype(np.uint8)
    return np.repeat(g[..., None], 3, axis=2)


def test_phash64_batch_bit_identical():
    import warnings

    from data_quality_ray.sources.fixtures import generate_f1_shard
    from data_quality_ray.stages.image import phash64, phash64_batch

    rng = np.random.RandomState(2)
    imgs = [rng.randint(0, 256, size=(s, s, 3), dtype=np.uint8)
            for s in (32, 48, 32, 33, 17, 48)]  # mixed + non-multiple-of-8
    # ties: every block of a constant image equals the overall mean, and
    # the last bit of the gray level decides which way the rounded means
    # fall, so one image per channel sum 0..765 pins the gray conversion
    for total in range(766):
        r = min(total, 255)
        g = min(total - r, 255)
        imgs.append(np.full((32, 32, 3), (r, g, total - r - g), dtype=np.uint8))
    imgs.append(np.full((40, 24, 3), (5, 0, 0), dtype=np.uint8))
    # one block mean exactly equals the overall mean: levels m-1 / m / m+1
    levels = np.array([99] * 31 + [100] * 2 + [101] * 31)
    for perm_seed in (0, 1):
        grid = np.random.RandomState(perm_seed).permutation(levels).reshape(8, 8)
        assert grid.mean() == 100 and (grid == 100).sum() == 2
        imgs += [_gray(grid, 4), _gray(grid, 6)]
    batch = phash64_batch(imgs)
    for px, v in zip(imgs, batch):
        assert phash64(px) == int(v)
    # below 8 pixels on a side there is no 8×8 grid (empty block means)
    small = [rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8)
             for h, w in ((1, 1), (5, 5), (7, 12), (12, 7), (5, 5))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        batch = phash64_batch(small)
        assert [phash64(px) for px in small] == batch.tolist()
    # the PNG rows of a generated F1 shard hash to the phash the generator
    # stored (lossless codec → exact pixels)
    t = generate_f1_shard(0, 512, 7)
    png = np.flatnonzero(t["fmt"].to_numpy(zero_copy_only=False) == "png")
    blobs = t["bytes"].to_numpy(zero_copy_only=False)
    assert len(png) > 100
    got = phash64_batch([decode(blobs[i], "png") for i in png])
    assert got.tolist() == t["phash"].to_numpy()[png].tolist()


def test_decode_jpeg_dequantize_levels():
    """The lookup-table dequantize equals the arithmetic formula
    ``min(q * step + step // 2, 255)`` on every byte value: the 64 levels
    the encoder emits, and the rest, which only corrupt payloads hold."""
    import struct
    import zlib

    from data_quality_ray.stages.image import _JPEG_QUANT_STEP, decode_jpeg, encode_jpeg

    def formula(q):
        return np.minimum(q.astype(np.uint16) * _JPEG_QUANT_STEP + _JPEG_QUANT_STEP // 2,
                          255).astype(np.uint8)

    levels = np.arange(64, dtype=np.uint8)
    px = np.repeat((levels * _JPEG_QUANT_STEP).reshape(8, 8)[..., None], 3, axis=2)
    got = decode_jpeg(encode_jpeg(px))
    assert got.dtype == np.uint8 and got.shape == (8, 8, 3)
    assert np.array_equal(got, formula(px // _JPEG_QUANT_STEP))
    q = np.arange(256, dtype=np.uint8).reshape(16, 16, 1).repeat(3, axis=2)
    blob = b"FJPG" + struct.pack(">HH", 16, 16) + zlib.compress(q.tobytes())
    assert np.array_equal(decode_jpeg(blob), formula(q))


def test_sharpness_entropy_kernel():
    from data_quality_ray.stages.image_ops import sharpness_entropy

    # flat image: zero Laplacian variance, zero entropy (one bin)
    flat = np.full((16, 16, 3), 100, dtype=np.uint8)
    s, e = sharpness_entropy(flat)
    assert s == 0.0 and e == 0.0

    # checkerboard 0/255: maximal local contrast, exactly 1 bit of entropy
    idx = np.indices((16, 16)).sum(axis=0) % 2
    board = np.repeat((idx * 255).astype(np.uint8)[..., None], 3, axis=2)
    s2, e2 = sharpness_entropy(board)
    assert s2 > 1e5  # |Laplacian| = 4*255 everywhere interior
    assert e2 == pytest.approx(1.0, abs=1e-6)

    # blurring the checkerboard (box resize down+up) must reduce sharpness
    soft = resize_pixels(resize_pixels(board, 4, 4), 16, 16)
    s3, _ = sharpness_entropy(soft)
    assert s3 < s2

    # degenerate 1-pixel image: defined, zero sharpness
    s4, e4 = sharpness_entropy(np.zeros((1, 1, 3), dtype=np.uint8))
    assert s4 == 0.0 and e4 == 0.0


def test_geometry_flags(ray_session):
    import pandas as pd
    import ray.data as rd

    from data_quality_ray.stages.image_ops import geometry_flags

    df = pd.DataFrame({
        "image_id": ["a", "b", "c", "d"],
        "w": np.array([32, 48, 100, 30], dtype=np.int32),
        "h": np.array([32, 48, 20, 90], dtype=np.int32),
    })
    out = geometry_flags(rd.from_pandas(df)).to_pandas().set_index("image_id")
    assert out.loc["a", "too_small"] and not out.loc["b", "too_small"]
    assert not out.loc["a", "bad_aspect"] and not out.loc["b", "bad_aspect"]
    assert out.loc["c", "bad_aspect"]   # 5.0 aspect
    assert out.loc["d", "bad_aspect"]   # 0.33 aspect
    assert out.loc["c", "too_small"] and out.loc["d", "too_small"]


_TWO_CPU_SCRIPT = """
import signal
import sys
import ray

def _timeout(signum, frame):  # a pool that never starts ends the run, Ray stopped
    sys.exit("timed out")

signal.signal(signal.SIGALRM, _timeout)
signal.alarm({alarm})
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
try:
    import __ray_entry__ as E
    E._image_fixture = lambda sf_dir: {f1!r}
    for name in {names!r}:
        out = getattr(E, name)("unused")
        print(name, out.count() if hasattr(out, "count") and not hasattr(out, "shape")
              else len(out), flush=True)
finally:
    ray.shutdown()
"""


@pytest.mark.slow
def test_entry_actor_stages_run_on_two_cpus(f1_dir):
    """The driver-contract image queries start their actor pools at one
    actor, so they finish on a Ray session with fewer CPUs than the pool's
    upper bound (a fixed pool of four one-CPU actors waits forever on 2)."""
    import os
    import subprocess
    import sys

    names = ("quality_filter_images", "caption_alignment_images", "image_features",
             "image_quality_extended", "best_of_cluster_images", "image_embed_neardup")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _TWO_CPU_SCRIPT.format(alarm=240, f1=f1_dir, names=names)],
        cwd=repo, capture_output=True, text=True, timeout=300,
    )
    done = [line.split()[0] for line in proc.stdout.splitlines() if line.strip()]
    assert proc.returncode == 0 and done == list(names), proc.stderr[-2000:]
