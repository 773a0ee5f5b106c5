"""Stable, vectorized hashing primitives shared by every stage.

All hashes here are pure functions of their input bytes (no process salt,
no wall clock), so stage outputs are reproducible across runs, workers and
parallelism levels — the property the reference lacks (its ids follow file
listing order, SURVEY.md §2.11) and that our resume-from-checkpoint and
parallelism-invariance tests rely on.

The shingle (k-gram) hash runs in the native `shingle_hashes` kernel
(fastdup_ray/native); the string and gram hashes stay numpy.
"""

from __future__ import annotations

import numpy as np

from fastdup_ray import native

# 64-bit avalanche finalizer (splitmix64 / murmur3 fmix64 family).
_M1 = np.uint64(0xFF51AFD7ED558CCD)
_M2 = np.uint64(0xC4CEB9FE1A85EC53)


def mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit avalanche mix (fmix64). Input/output uint64."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(33)
    x *= _M1
    x ^= x >> np.uint64(33)
    x *= _M2
    x ^= x >> np.uint64(33)
    return x


def hash64_str(s: str) -> int:
    """Stable 64-bit hash of one string (scalar convenience wrapper)."""
    return int(hash64_strings([s])[0])


def id63(strings) -> np.ndarray:
    """Stable NON-NEGATIVE int64 id per string (doc_id = id63(url)).

    63-bit because Ray Data's shuffle/groupby machinery converts key
    columns through Python ints and chokes on uint64 values above 2^63
    (falls back to pickled object blocks). All grouping/join keys in this
    engine are therefore int64 with the sign bit clear.
    """
    return (hash64_strings(strings) >> np.uint64(1)).astype(np.int64)


def to_i63(h: np.ndarray) -> np.ndarray:
    """uint64 hash array -> non-negative int64 key array (drop one bit)."""
    return (np.asarray(h, dtype=np.uint64) >> np.uint64(1)).astype(np.int64)


# FNV-64 prime: the base of the hash-v2 polynomial string hash.
_B = np.uint64(0x100000001B3)


def string_bytes_view(arr):
    """(data: uint8[·], offsets: int64[n+1]) zero-copy view of a pyarrow
    string/binary array's utf-8 bytes. Offsets are absolute positions into
    ``data``; slot i's bytes are data[offsets[i]:offsets[i+1]]. Handles
    chunked arrays, slices (array offset) and nulls (treated as empty).
    """
    import pyarrow as pa

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.null_count:
        import pyarrow.compute as pc

        fill = "" if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type) else b""
        arr = pc.fill_null(arr, fill)
    if pa.types.is_string(arr.type) or pa.types.is_binary(arr.type):
        off_dtype = np.int32
    else:  # large_string / large_binary
        off_dtype = np.int64
    n = len(arr)
    raw = np.frombuffer(arr.buffers()[1], dtype=off_dtype, count=arr.offset + n + 1)
    offsets = raw[arr.offset : arr.offset + n + 1].astype(np.int64)
    data_buf = arr.buffers()[2]
    data = (
        np.frombuffer(data_buf, dtype=np.uint8, count=int(offsets[-1]))
        if data_buf is not None and offsets[-1] > 0
        else np.empty(0, dtype=np.uint8)
    )
    return data, offsets


def split_whitespace(texts):
    """pyarrow.compute.utf8_split_whitespace of a string array, made
    deterministic. The kernel reads the byte after each string, and a
    UTF-8 continuation byte there glues the string's trailing whitespace
    onto its last token; after the last string that byte is unset buffer
    padding. Tokenizing a copy followed by one ASCII sentinel string keeps
    every string followed by a valid start byte. Returns the list array
    sliced to ``texts``' rows."""
    import pyarrow as pa
    import pyarrow.compute as pc

    padded = pa.concat_arrays([texts, pa.array(["x"], texts.type)])
    return pc.utf8_split_whitespace(padded).slice(0, len(texts))


def hash64_segmented(data: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The hash-v2 kernel over pre-concatenated utf-8 bytes: one uint64 hash
    per segment data[offsets[i]:offsets[i+1]]. Fully vectorized — this is
    the hot path under simhash64 (one call per batch covers every token).
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lens = np.diff(offsets)
    n = lens.shape[0]
    poly = np.zeros(n, dtype=np.uint64)
    lo, hi = int(offsets[0]), int(offsets[-1])
    if hi > lo:
        seg = data[lo:hi].astype(np.uint64)
        rel = offsets - lo
        # B^0..B^(L-1) for the longest segment L (wrapping uint64 products)
        pows = np.full(int(lens.max()), _B, dtype=np.uint64)
        pows[0] = 1
        np.multiply.accumulate(pows, out=pows)
        # exponent of each byte = (distance from its segment's end) - 1
        exp = np.repeat(rel[1:] - 1, lens)
        exp -= np.arange(hi - lo, dtype=np.int64)
        seg *= pows[exp]
        nonempty = lens > 0
        # reduceat misbehaves on empty segments; sum only the non-empty ones
        poly[nonempty] = np.add.reduceat(seg, rel[:-1][nonempty])
    # FNV offset basis in the length salt keeps '' away from mix64's
    # zero fixed point
    with np.errstate(over="ignore"):
        salt = lens.astype(np.uint64) + np.uint64(0xCBF29CE484222325)
    return mix64(poly ^ mix64(salt))


def hash64_strings(strings) -> np.ndarray:
    """Stable uint64 hash of an array of strings, vectorized, OWN-CODE
    (hash version 2): a polynomial hash over utf-8 bytes with the FNV-64
    prime as base (h = sum(byte_j * B^(len-1-j)) mod 2^64), xor'd with the
    mixed length and avalanche-finished. No dependency on pandas/cpython
    hash internals — doc_ids persisted in checkpoints can never silently
    change under a library upgrade (VERDICT r1 #10). Deterministic across
    runs, processes and parallelism levels; fixed test vectors in
    tests/test_kernels.py pin the function forever.

    Accepts a pyarrow string array (zero-copy fast path) or any iterable
    of str/bytes; utf-8 encoding happens in Arrow's C kernel, not a
    Python loop (the round-1 per-string encode loop was the sign stage's
    hot spot at bench scale).
    """
    import pyarrow as pa

    if isinstance(strings, (pa.Array, pa.ChunkedArray)):
        arr = strings
    else:
        strings = list(strings)
        if len(strings) == 0:
            return np.empty(0, dtype=np.uint64)
        try:
            arr = pa.array(strings, type=pa.large_string())
        except (pa.ArrowInvalid, pa.ArrowTypeError, TypeError):
            # bytes / mixed input: preserve str->utf8, other->bytes() semantics
            enc = [s.encode("utf-8") if isinstance(s, str) else bytes(s) for s in strings]
            arr = pa.array(enc, type=pa.large_binary())
    data, offsets = string_bytes_view(arr)
    return hash64_segmented(data, offsets)


def _pow_u64(base: np.uint64, exp: np.ndarray) -> np.ndarray:
    """base**exp mod 2^64, vectorized over exp (uint64), by repeated squaring."""
    result = np.ones(exp.shape, dtype=np.uint64)
    b = np.uint64(base)
    e = exp.astype(np.uint64, copy=True)
    # wrapping mod-2^64 arithmetic is intentional here
    with np.errstate(over="ignore"):
        # max string length bounded by 2^40 for sanity
        for _ in range(40):
            if not e.any():
                break
            odd = (e & np.uint64(1)).astype(bool)
            result[odd] *= b
            e >>= np.uint64(1)
            b = b * np.uint64(b)
    return result


def rolling_shingle_hashes(data: bytes, k: int) -> np.ndarray:
    """uint32 hashes of every k-byte window of ``data`` (len(data)-k+1 windows).

    The window's polynomial hash (sum of byte_i * B^(k-1-i), wrapping
    mod 2^64), avalanche-mixed and truncated to its high 32 bits; one
    rolling pass of the native ``shingle_hashes`` kernel.
    """
    arr = data if isinstance(data, np.ndarray) else np.frombuffer(data, dtype=np.uint8)
    return native.shingle_hashes(arr, np.array([0, arr.shape[0]], np.int64), k)[0]


def rolling_gram_hashes64(data, k: int) -> np.ndarray:
    """Full-width uint64 hashes of every k-byte window (the 64-bit variant
    of `rolling_shingle_hashes`, which truncates the same mix64 output to
    32 bits). Sketches (HyperLogLog) need the full hash: register index
    and rank together consume 64 bits."""
    arr = data if isinstance(data, np.ndarray) else np.frombuffer(data, dtype=np.uint8)
    n = arr.shape[0] - k + 1
    if n <= 0:
        return np.empty(0, dtype=np.uint64)
    coef = _pow_u64(np.uint64(0x100000001B3), np.arange(k - 1, -1, -1, dtype=np.uint64))
    h = np.zeros(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i in range(k):
            h += arr[i : i + n].astype(np.uint64) * coef[i]
    return mix64(h)


def segmented_gram_hashes64(texts, k: int):
    """Full-64-bit counterpart of `segmented_shingle_hashes`: (hashes:
    uint64[N_total], offsets: int64[n_docs+1]) with identical doc-boundary
    semantics (same concatenated-blob pass, windows straddling a boundary
    invalidated)."""
    import pyarrow as pa

    if isinstance(texts, (pa.Array, pa.ChunkedArray)):
        data, abs_off = string_bytes_view(texts)
        blob = data[abs_off[0] : abs_off[-1]]
        lens = np.diff(abs_off)
        n = lens.shape[0]
    else:
        enc = [t.encode("utf-8") if isinstance(t, str) else bytes(t) for t in texts]
        n = len(enc)
        lens = np.fromiter((len(b) for b in enc), count=n, dtype=np.int64)
        blob = np.frombuffer(b"".join(enc), dtype=np.uint8)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.maximum(lens - (k - 1), 0), out=offsets[1:])
    total = int(lens.sum())
    if total < k:
        return np.empty(0, dtype=np.uint64), offsets
    all_h = rolling_gram_hashes64(blob, k)
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    keep = np.zeros(all_h.shape[0], dtype=bool)
    for i in range(n):  # n = batch rows (~1k); cheap slicing loop
        m = lens[i] - k + 1
        if m > 0:
            keep[starts[i] : starts[i] + m] = True
    return all_h[keep], offsets


def segmented_shingle_hashes(texts, k: int):
    """Shingle-hash a batch of texts with one native kernel call.

    Returns (hashes: uint32[N_total], offsets: int64[n_docs+1]) where
    hashes[offsets[i]:offsets[i+1]] are doc i's k-gram hashes, each equal
    to `rolling_shingle_hashes` of that doc. Docs shorter than k (and
    null texts) get zero shingles. Arrow input is read in place from its
    buffers.
    """
    import pyarrow as pa

    if isinstance(texts, (pa.Array, pa.ChunkedArray)):
        data, offsets = string_bytes_view(texts)
    else:
        enc = [t.encode("utf-8") if isinstance(t, str) else bytes(t) for t in texts]
        offsets = np.zeros(len(enc) + 1, dtype=np.int64)
        np.cumsum(np.fromiter((len(b) for b in enc), count=len(enc), dtype=np.int64),
                  out=offsets[1:])
        data = np.frombuffer(b"".join(enc), dtype=np.uint8)
    return native.shingle_hashes(data, offsets, k)
