"""64-bit SimHash fingerprints — the second Signer (SURVEY.md §7.1 M6).

Token-level SimHash: whitespace tokens are hashed to uint64, each hash
votes +-1 per bit position, the fingerprint's bit b is 1 iff the weighted
sum is positive. Near-duplicates have small Hamming distance between
fingerprints; candidate pairing buckets fingerprints on 16-bit quarters
(pigeonhole: hamming <= 3 implies at least one identical quarter).

Segment-vectorized like the MinHash kernel: one token-hash pass over the
batch, then a chunked `np.add.reduceat` per document over the 64
bit-columns.
"""

from __future__ import annotations

import numpy as np

from fastdup_ray.functions.hashing import (
    hash64_segmented,
    split_whitespace,
    string_bytes_view,
)

# tokens per vote chunk (see simhash64)
_VOTE_CHUNK = 8192


def simhash64(texts) -> np.ndarray:
    """uint64 fingerprint per text. Empty/whitespace-only texts -> 0.

    Accepts a pyarrow string array (fast path) or a list of str. The whole
    batch is tokenized by Arrow's C utf8_split_whitespace kernel (Unicode
    whitespace, same class as str.split; see hashing.split_whitespace)
    and every token hashed in one segmented numpy pass over the shared
    bytes buffer — no per-token Python string is ever created.
    """
    import pyarrow as pa

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if not isinstance(texts, pa.Array):
        texts = pa.array(list(texts), type=pa.large_string())
    n = len(texts)
    out = np.zeros(n, dtype=np.uint64)
    if n == 0:
        return out
    toks = split_whitespace(texts)
    # list offsets -> raw (possibly empty-string) token counts per doc
    raw_counts = np.diff(np.asarray(toks.offsets, dtype=np.int64))
    data, toff = string_bytes_view(toks.flatten())
    tok_lens = np.diff(toff)
    # Arrow's split emits empty tokens at edges / between whitespace runs;
    # str.split() does not — drop them (zero-length, so hashing them first
    # costs nothing).
    keep = tok_lens > 0
    h_all = hash64_segmented(data, toff)
    h = h_all[keep]
    doc_of_tok = np.repeat(np.arange(n, dtype=np.int64), raw_counts)[keep]
    counts = np.bincount(doc_of_tok, minlength=n).astype(np.int64)
    if h.shape[0] == 0:
        return out
    # Per-doc bit votes: unpackbits turns each token hash into 64 0/1
    # columns and a segment add.reduceat over the doc-sorted tokens sums
    # them per doc. Column c of unpackbits' byte-wise big-endian layout
    # is bit 8*(c//8) + 7-c%8 of the hash, and it votes for output bit c,
    # so fingerprint VALUES stay those of every earlier kernel (pinned by
    # the golden vectors; checkpointed simhash columns survive). Chunks
    # of _VOTE_CHUNK tokens keep the (tokens, 64) bit matrix and the
    # int32 reduce buffer at ~2 MB each, arena-resident across chunks.
    ones = np.zeros((n, 64), dtype=np.int32)
    for lo in range(0, h.shape[0], _VOTE_CHUNK):
        docs = doc_of_tok[lo : lo + _VOTE_CHUNK]
        chunk = h[lo : lo + _VOTE_CHUNK].view(np.uint8).reshape(-1, 8)
        bits = np.unpackbits(chunk, axis=1)
        starts = np.flatnonzero(np.diff(docs, prepend=-1))
        ones[docs[starts]] += np.add.reduceat(bits, starts, axis=0, dtype=np.int32)
    # majority vote: bit set iff strictly more ones than zeros (empty
    # docs have counts 0 -> all bits 0 -> fingerprint 0)
    fp_bits = 2 * ones > counts[:, None]
    return np.packbits(fp_bits, axis=1, bitorder="little").view("<u8").ravel()


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise Hamming distance between uint64 arrays (vectorized popcount)."""
    x = (np.asarray(a, dtype=np.uint64) ^ np.asarray(b, dtype=np.uint64)).view(np.uint8)
    return np.unpackbits(x.reshape(-1, 8), axis=1).sum(axis=1).astype(np.int64)


def simhash_quarters(fp: np.ndarray) -> np.ndarray:
    """(n, 4) uint64 bucket keys: the four 16-bit quarters, tagged by index.

    Pigeonhole guarantee: two fingerprints within Hamming distance 3 share
    at least one untouched quarter, so they collide in >= 1 bucket.
    """
    fp = np.asarray(fp, dtype=np.uint64)
    qs = np.stack(
        [(fp >> np.uint64(16 * i)) & np.uint64(0xFFFF) for i in range(4)], axis=1
    )
    return qs + (np.arange(4, dtype=np.uint64)[None, :] << np.uint64(16))
