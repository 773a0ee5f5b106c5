"""MinHash signatures over char-n-gram shingles — the text-native analog of
the reference's ONNX feature extraction (reference fastdup/__init__.py:341-353,
`do_main` run_mode=0/1; 576-d float features -> here 128 x uint32 minhashes).

Signature config is fixed by BASELINE.json: char-5-gram shingles, 128
permutations. The permutation family is multiply-shift ((a*x+b) mod 2^64,
keep the high 32 bits) — 2-universal, deterministic from the seed, and
computable entirely in wrapping uint64 arithmetic.

Signing is one call of the native `minhash` kernel (fastdup_ray/native)
over the batch's shingle hashes: per doc, each hash goes through every
permutation once, with no per-document Python loop.
"""

from __future__ import annotations

import numpy as np

from fastdup_ray import native
from fastdup_ray.functions.hashing import segmented_shingle_hashes


def make_permutations(num_perms: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) uint64 arrays for the multiply-shift family, seeded."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 2**63, size=num_perms, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    b = rng.integers(0, 2**63, size=num_perms, dtype=np.uint64)
    return a, b


class MinHasher:
    """Computes (n_docs, num_perms) uint32 signatures for a batch of texts.

    Cheap to construct (two small arrays), so it works both as a closure
    constant in stateless ``map_batches`` tasks and as actor state.
    """

    def __init__(self, shingle_size: int = 5, num_perms: int = 128, seed: int = 42):
        self.k = shingle_size
        self.num_perms = num_perms
        self.a, self.b = make_permutations(num_perms, seed)

    def signatures(self, texts) -> tuple[np.ndarray, np.ndarray]:
        """Returns (sig: uint32[n, num_perms], n_shingles: int64[n]).

        Docs with zero shingles (shorter than k) get the all-ones sentinel
        signature and n_shingles 0 — callers exclude them from pairing
        (the analog of the reference's features.bad.csv exclusion).
        """
        return self.signatures_from_hashes(
            *segmented_shingle_hashes(texts, self.k)
        )

    def signatures_from_hashes(
        self, hashes: np.ndarray, offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Same contract over a precomputed (hashes, offsets) shingle pass —
        lets the fused sign stage share ONE shingling with the set
        emission."""
        return native.minhash(hashes, offsets, self.a, self.b), np.diff(offsets)


def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> np.ndarray:
    """Row-wise estimated Jaccard between two (n, num_perms) signature blocks."""
    return (sig_a == sig_b).mean(axis=1)


def shingle_sets(texts, k: int) -> list[np.ndarray]:
    """Sorted unique char-k-gram hash set per text (uint32 arrays)."""
    h, off = segmented_shingle_hashes(texts, k)
    return [np.unique(h[off[i] : off[i + 1]]) for i in range(len(off) - 1)]


def jaccard_of_sets(sa: np.ndarray, sb: np.ndarray) -> float:
    """Jaccard of two sorted-unique hash arrays."""
    if sa.size == 0 and sb.size == 0:
        return 0.0
    inter = np.intersect1d(sa, sb, assume_unique=True).size
    return inter / (sa.size + sb.size - inter)


def exact_jaccard_pairs(texts_a, texts_b, k: int) -> np.ndarray:
    """True char-k-gram Jaccard for aligned lists of text pairs (verify stage).

    Uses the shingle-hash sets (uint32); collision probability 2^-32 is
    negligible against the 0.9/0.96 thresholds. Texts are shingled once
    per unique string (pairs batches repeat hub documents heavily).
    """
    uniq: dict[str, int] = {}
    order: list[str] = []
    for t in list(texts_a) + list(texts_b):
        if t not in uniq:
            uniq[t] = len(order)
            order.append(t)
    sets = shingle_sets(order, k)
    out = np.zeros(len(texts_a), dtype=np.float64)
    for i, (ta, tb) in enumerate(zip(texts_a, texts_b)):
        out[i] = jaccard_of_sets(sets[uniq[ta]], sets[uniq[tb]])
    return out


def band_buckets(sig: np.ndarray, num_bands: int, rows_per_band: int) -> np.ndarray:
    """(n, num_bands) uint64 bucket keys — one hash per band of the signature.

    Bucket key folds the band's rows with a wrapping-uint64 polynomial then
    mixes; two docs share a bucket in band j iff their signatures agree on
    all rows of that band (up to 2^-64 collisions).
    """
    from fastdup_ray.functions.hashing import mix64

    n = sig.shape[0]
    bands = sig.reshape(n, num_bands, rows_per_band).astype(np.uint64)
    B = np.uint64(0x100000001B3)
    acc = np.zeros((n, num_bands), dtype=np.uint64)
    for r in range(rows_per_band):
        acc = acc * B + bands[:, :, r]
    # fold the band index in so identical row-patterns in different bands collide only by chance
    acc += (np.arange(num_bands, dtype=np.uint64) + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    return mix64(acc.ravel()).reshape(n, num_bands)
