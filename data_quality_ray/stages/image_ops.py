"""Multimodal image/video operator stages.

Actor-pool ``map_batches`` stages over opaque binary payload columns —
the Ray-side plumbing (schema in/out, batch sizing, actor signature) the
north rule requires for multimodal data. Decode/resize/feature-extract
are REAL against this repo's codecs (stages/image.py: spec-compliant PNG,
marked lossy stand-in); frame sampling is the video STUB (no video codec
exists in this environment — the stage validates the container header and
emits deterministic frame offsets; swap ``_decode_video`` for pyav/ffmpeg
in production).

All stages keep payloads in Arrow binary columns end-to-end; decoded
pixels never leave the worker (features/resized bytes are the outputs).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa

from .image import decode, encode, phash64


LUM_W = np.array([0.299, 0.587, 0.114])


def sharpness_entropy(px: np.ndarray) -> tuple[float, float]:
    """Two decoded-pixel quality signals, shared verbatim with the
    fixture's golden-label writer (sources/fixtures.label_table):

    - sharpness: variance of the 4-neighbour Laplacian of luminance —
      the classic blur detector (low variance = soft/defocused image);
    - entropy: Shannon entropy (bits) of the 32-bin luminance histogram —
      near 0 for flat/synthetic fills, high for textured photos.
    """
    lum = px.astype(np.float64) @ LUM_W
    if lum.shape[0] >= 3 and lum.shape[1] >= 3:
        lap = (4.0 * lum[1:-1, 1:-1] - lum[:-2, 1:-1] - lum[2:, 1:-1]
               - lum[1:-1, :-2] - lum[1:-1, 2:])
        sharp = float(lap.var())
    else:
        sharp = 0.0
    hist, _ = np.histogram(lum, bins=32, range=(0, 256))
    p = hist[hist > 0] / max(1, lum.size)
    ent = float(-(p * np.log2(p)).sum())
    return round(sharp, 4), round(ent, 6)


def resize_pixels(pixels: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Area-mean resize (box filter) via bincount over target-cell ids —
    deterministic, pure numpy."""
    h, w, _ = pixels.shape
    row_ids = (np.arange(h) * out_h) // h
    col_ids = (np.arange(w) * out_w) // w
    cell = (row_ids[:, None] * out_w + col_ids[None, :]).ravel()
    counts = np.bincount(cell, minlength=out_h * out_w)
    out = np.empty((out_h * out_w, 3), dtype=np.float64)
    flat = pixels.reshape(-1, 3)
    for c in range(3):
        out[:, c] = np.bincount(cell, weights=flat[:, c], minlength=out_h * out_w)
    out /= counts[:, None]
    return np.clip(np.rint(out), 0, 255).astype(np.uint8).reshape(out_h, out_w, 3)


class ImageResizeStage:
    """Decode → box-filter resize → re-encode (same fmt). Appends
    ``bytes_resized`` + updated ``w``/``h`` columns."""

    def __init__(self, out_w: int = 16, out_h: int = 16):
        self.out_w, self.out_h = out_w, out_h

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_numpy(zero_copy_only=False)
        fmts = batch["fmt"].to_numpy(zero_copy_only=False)
        out = []
        for b, f in zip(blobs, fmts):
            try:
                out.append(encode(resize_pixels(decode(b, f), self.out_w, self.out_h), f))
            except Exception:
                out.append(None)
        batch = batch.append_column("bytes_resized", pa.array(out, type=pa.binary()))
        batch = batch.append_column("resized_w", pa.array([self.out_w] * len(batch), type=pa.int32()))
        return batch.append_column("resized_h", pa.array([self.out_h] * len(batch), type=pa.int32()))


class ImageFeatureStage:
    """Per-image features from decoded pixels: mean RGB, luminance
    mean/std, 8-bin luminance histogram, recomputed phash. Appends
    fixed-size list/scalar columns (embedding-ready)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_numpy(zero_copy_only=False)
        fmts = batch["fmt"].to_numpy(zero_copy_only=False)
        mean_rgb, lum_mean, lum_std, lum_hist, ph = [], [], [], [], []
        sharp, ent = [], []
        for b, f in zip(blobs, fmts):
            try:
                px = decode(b, f).astype(np.float64)
                lum = px @ LUM_W
                mean_rgb.append([round(float(x), 4) for x in px.mean(axis=(0, 1))])
                lum_mean.append(round(float(lum.mean()), 4))
                lum_std.append(round(float(lum.std()), 4))
                hist, _ = np.histogram(lum, bins=8, range=(0, 256))
                lum_hist.append((hist / max(1, lum.size)).round(6).tolist())
                ph.append(phash64(px.astype(np.uint8)))
                s, e = sharpness_entropy(px)
                sharp.append(s)
                ent.append(e)
            except Exception:
                mean_rgb.append(None)
                lum_mean.append(None)
                lum_std.append(None)
                lum_hist.append(None)
                ph.append(None)
                sharp.append(None)
                ent.append(None)
        batch = batch.append_column("mean_rgb", pa.array(mean_rgb, type=pa.list_(pa.float64())))
        batch = batch.append_column("lum_mean", pa.array(lum_mean, type=pa.float64()))
        batch = batch.append_column("lum_std", pa.array(lum_std, type=pa.float64()))
        batch = batch.append_column("lum_hist", pa.array(lum_hist, type=pa.list_(pa.float64())))
        batch = batch.append_column("sharpness", pa.array(sharp, type=pa.float64()))
        batch = batch.append_column("entropy", pa.array(ent, type=pa.float64()))
        return batch.append_column("phash_recomputed", pa.array(ph, type=pa.int64()))


# ---------------------------------------------------------------------------
# video frame sampling — STUB container (no video codec in this env)
# ---------------------------------------------------------------------------

_FVID_MAGIC = b"FVID"


def encode_fake_video(frames: list[np.ndarray]) -> bytes:
    """Deterministic stand-in video container: FVID | n | w | h | zlib
    frames. Swap for a real muxer in production."""
    h, w, _ = frames[0].shape
    payload = zlib.compress(np.stack(frames).tobytes(), 3)
    return _FVID_MAGIC + struct.pack(">HHH", len(frames), w, h) + payload


def _decode_video(data: bytes) -> np.ndarray:
    """STUB decode for the FVID container. A real implementation would
    bind pyav/ffmpeg; anything else raises NotImplementedError."""
    if data[:4] != _FVID_MAGIC:
        raise NotImplementedError("real video codecs are not available in this environment")
    n, w, h = struct.unpack(">HHH", data[4:10])
    return np.frombuffer(zlib.decompress(data[10:]), dtype=np.uint8).reshape(n, h, w, 3)


class FrameSampleStage:
    """Uniformly sample ``n_frames`` frames from a video payload column →
    list<binary> of encoded frames + frame indices. Deterministic
    (index-based sampling, no RNG)."""

    def __init__(self, n_frames: int = 4, frame_fmt: str = "png", video_col: str = "video"):
        self.n_frames = n_frames
        self.frame_fmt = frame_fmt
        self.video_col = video_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        frames_out, idx_out = [], []
        for blob in batch[self.video_col].to_numpy(zero_copy_only=False):
            try:
                vid = _decode_video(blob)
                n = vid.shape[0]
                idx = np.unique(np.linspace(0, n - 1, min(self.n_frames, n)).astype(int))
                frames_out.append([encode(vid[i], self.frame_fmt) for i in idx])
                idx_out.append(idx.tolist())
            except NotImplementedError:
                frames_out.append(None)
                idx_out.append(None)
        batch = batch.append_column("frames", pa.array(frames_out, type=pa.list_(pa.binary())))
        return batch.append_column("frame_indices", pa.array(idx_out, type=pa.list_(pa.int32())))


def geometry_flags(ds, min_dim: int = 40, min_aspect: float = 0.5,
                   max_aspect: float = 2.0):
    """Metadata-only image geometry rules — no decode, pure vectorized
    numpy over the ``w``/``h`` columns (the cheapest filters run FIRST
    at scale, before any pixel work): ``too_small`` (min dimension below
    ``min_dim``) and ``bad_aspect`` (w/h outside [min_aspect, max_aspect])."""
    import pandas as pd

    def flags(b: pd.DataFrame) -> pd.DataFrame:
        w = b["w"].to_numpy().astype(np.float64)
        h = b["h"].to_numpy().astype(np.float64)
        b = b.copy()
        b["too_small"] = np.minimum(w, h) < min_dim
        ar = w / np.maximum(h, 1.0)
        b["bad_aspect"] = (ar < min_aspect) | (ar > max_aspect)
        return b

    return ds.map_batches(flags, batch_format="pandas")


def extract_image_features(ds, concurrency: int | tuple = (1, 4), batch_size: int = 512):
    return ds.map_batches(ImageFeatureStage, batch_format="pyarrow",
                          batch_size=batch_size, concurrency=concurrency)


def resize_images(ds, out_w: int, out_h: int, concurrency: int | tuple = (1, 4),
                  batch_size: int = 512):
    return ds.map_batches(ImageResizeStage,
                          fn_constructor_kwargs={"out_w": out_w, "out_h": out_h},
                          batch_format="pyarrow", batch_size=batch_size,
                          concurrency=concurrency)


def sample_frames(ds, n_frames: int = 4, video_col: str = "video",
                  concurrency: int | tuple = (1, 2), batch_size: int = 64):
    return ds.map_batches(FrameSampleStage,
                          fn_constructor_kwargs={"n_frames": n_frames, "video_col": video_col},
                          batch_format="pyarrow", batch_size=batch_size,
                          concurrency=concurrency)


# --- Dihedral-invariant signature canonicalization ---------------------------
# A grid hash (aHash/dHash family — each of the 64 bits is one cell of an
# 8×8 grid) transforms under image rotation/mirroring as a pure BIT
# PERMUTATION, so a rotation/mirror-invariant dedup key needs no decode:
# canonical = min over the 8 dihedral (D4) permutations of the bit grid.
# (A DCT phash is NOT exactly permutation-covariant under flips — sign
# flips on odd coefficients — so this applies to grid hashes; the
# fixture's stand-in hash is grid-based. Documented assumption.)

_D4_GRID = np.arange(64).reshape(8, 8)
# perm[j] = source bit index that lands in target bit j of the variant
_D4_PERMS = np.stack([
    g.ravel() for g in (
        _D4_GRID,                      # identity
        np.rot90(_D4_GRID, 1),         # rot90
        np.rot90(_D4_GRID, 2),         # rot180
        np.rot90(_D4_GRID, 3),         # rot270
        np.fliplr(_D4_GRID),           # mirror left-right
        np.flipud(_D4_GRID),           # mirror top-bottom
        _D4_GRID.T,                    # transpose
        np.rot90(_D4_GRID, 2).T,       # anti-transpose
    )
])
D4_NAMES = ("identity", "rot90", "rot180", "rot270",
            "flip_h", "flip_v", "transpose", "anti_transpose")
_BIT_W = np.uint64(1) << np.arange(64, dtype=np.uint64)


def dihedral_variants(sigs: np.ndarray) -> np.ndarray:
    """(n, 8) uint64: each signature under all 8 D4 grid permutations
    (bit j of variant t = bit ``_D4_PERMS[t, j]`` of the input).
    Vectorized: one (n, 64) bit unpack, 8 gathers, 8 weighted
    bitwise-or folds."""
    u = np.ascontiguousarray(sigs).astype(np.int64).view(np.uint64)
    bits = ((u[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1))
    out = np.empty((len(u), 8), dtype=np.uint64)
    for t in range(8):
        v = bits[:, _D4_PERMS[t]]
        out[:, t] = np.bitwise_or.reduce(
            np.where(v.astype(bool), _BIT_W, np.uint64(0)), axis=1)
    return out


def dihedral_canonical(sigs: np.ndarray) -> np.ndarray:
    """Rotation/mirror-invariant canonical signature: min (as uint64)
    over the 8 dihedral variants. Returns int64 (Arrow-friendly view)."""
    return dihedral_variants(sigs).min(axis=1).view(np.int64)


def add_dihedral_canonical(ds, sig_col: str, out_col: str = "canonical"):
    """Streaming pass appending the D4-canonical signature column —
    feed to any exact/Hamming dedup keyed on ``out_col`` to catch
    rotated/mirrored duplicates without decoding a pixel."""
    import pandas as pd

    def f(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b[out_col] = dihedral_canonical(b[sig_col].to_numpy())
        return b

    return ds.map_batches(f, batch_format="pandas")


class FrameSignatureStage:
    """Fold a clip's sampled frames (``FrameSampleStage`` output) into an
    exact multi-frame dedup key: decode each sampled frame, phash64 it,
    stable-hash the joined phash string → int64 ``sig``. Clips whose
    UNIFORMLY SAMPLED frames all match collapse under exact dedup on
    ``sig`` — the cheap video-dedup operating point (a one-frame edit
    changes the key; Hamming-tolerant variants would feed the per-frame
    phashes to the signature dedup family instead)."""

    def __init__(self, frame_fmt: str = "png"):
        from ..profiling.sketches import HASH64

        self.frame_fmt = frame_fmt
        self._hash = HASH64["stable"]

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs, n_sampled = [], []
        for frames in batch["frames"].to_pylist():
            if frames is None:
                sigs.append(None)
                n_sampled.append(0)
                continue
            ph = [int(phash64(decode(f, self.frame_fmt))) for f in frames]
            key = "|".join(map(str, ph))
            sigs.append(int(self._hash(np.array([key], dtype=object))[0]
                            .astype(np.int64)))
            n_sampled.append(len(ph))
        batch = batch.append_column("sig", pa.array(sigs, type=pa.int64()))
        return batch.append_column("n_sampled",
                                   pa.array(n_sampled, type=pa.int64()))
