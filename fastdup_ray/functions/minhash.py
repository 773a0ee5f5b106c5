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

_EMPTY_SENTINEL = np.uint32(0xFFFFFFFF)


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


class OnePermMinHasher:
    """One-permutation MinHash with rotation densification — the sign-stage
    scale path (``DedupConfig(signer="oph")``).

    Classic K-permutation MinHash evaluates K permutations of every
    shingle hash (the dominant per-doc cost at corpus scale). OPH instead makes
    ONE pass: each shingle hash is assigned to bin ``top log2(K) bits``,
    and the slot value is the minimum of an odd-multiply remix of the
    hashes landing in that bin (a fixed bijection of the hash space, so
    the bin minimum is a valid minwise sample). Empty bins borrow the
    value of the nearest filled bin to their circular left (densification
    by rotation), preserving P[slot_i(A)=slot_i(B)] ~ J(A,B), which is
    all LSH banding needs. Slight collision bias for very sparse docs is
    inherent to densification and documented here.

    Public references: Li, Owen, Zhang, "One Permutation Hashing"
    (NIPS 2012); Shrivastava & Li, "Improved Densification of One
    Permutation Hashing" (UAI 2014).

    Output contract matches MinHasher.signatures: (uint32[n, K] sig,
    int64[n] n_shingles); zero-shingle docs keep the all-ones sentinel.
    """

    def __init__(self, shingle_size: int = 5, num_perms: int = 128, seed: int = 42):
        # num_perms=0 passes a bare `x & (x-1)` check and num_perms=1 makes
        # bin_shift 32 (uint32 >> 32 is C-undefined in numpy) — require a
        # power of two >= 2 explicitly
        if num_perms < 2 or num_perms & (num_perms - 1):
            raise ValueError("oph signer needs power-of-two num_perms >= 2")
        self.k = shingle_size
        self.num_perms = num_perms
        self.seed = seed
        # seed selects the remix bijection (odd multiplier over 2^32) the
        # way MinHasher's seed selects its permutations — different seeds
        # give independent minwise samples instead of silently identical
        # signatures (ADVICE r2)
        rng = np.random.default_rng(seed)
        self._remix = np.uint32(int(rng.integers(0, 2**32)) | 1)
        self.bin_shift = np.uint32(32 - int(num_perms).bit_length() + 1)

    def signatures(self, texts) -> tuple[np.ndarray, np.ndarray]:
        return self.signatures_from_hashes(
            *segmented_shingle_hashes(texts, self.k)
        )

    def signatures_from_hashes(
        self, hashes: np.ndarray, offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        n = len(offsets) - 1
        K = self.num_perms
        n_shingles = np.diff(offsets)
        sig = np.full((n, K), _EMPTY_SENTINEL, dtype=np.uint32)
        if hashes.shape[0] == 0:
            return sig, n_shingles
        doc_of = np.repeat(np.arange(n, dtype=np.int64), n_shingles)
        bins = (hashes >> self.bin_shift).astype(np.int64)
        with np.errstate(over="ignore"):
            vals = hashes * self._remix
        key = doc_of * K + bins  # == flat index into sig
        # chunked sort+reduceat+scatter-min: each slab's scratch stays
        # L2/arena-resident (a single whole-batch argsort allocates tens
        # of MB fresh per call — the allocation, not the comparison count,
        # dominates under concurrent workers)
        flat = sig.ravel()
        CH = 32_768
        for lo in range(0, key.shape[0], CH):
            k = key[lo : lo + CH]
            o = np.argsort(k, kind="stable")
            sk = k[o]
            sv = vals[lo : lo + CH][o]
            runs = np.flatnonzero(np.concatenate([[True], sk[1:] != sk[:-1]]))
            pos = sk[runs]
            flat[pos] = np.minimum(flat[pos], np.minimum.reduceat(sv, runs))
        self._densify(sig)
        return sig, n_shingles

    @staticmethod
    def _densify(sig: np.ndarray) -> None:
        """Fill empty slots from the nearest filled slot to the circular
        left, in place. All-empty rows stay sentinel (zero-shingle docs)."""
        n, K = sig.shape
        filled = sig != _EMPTY_SENTINEL
        need = ~filled
        if not need.any():
            return
        ext_filled = np.concatenate([filled, filled], axis=1)
        pos = np.where(ext_filled, np.arange(2 * K, dtype=np.int64)[None, :], -1)
        last = np.maximum.accumulate(pos, axis=1)[:, K:]
        ok = need & (last >= 0)
        if ok.any():
            ext = np.concatenate([sig, sig], axis=1)
            borrowed = np.take_along_axis(ext, last, axis=1)
            sig[ok] = borrowed[ok]


def make_signer(signer: str, shingle_size: int, num_perms: int, seed: int):
    """Signer factory for SignStage: 'minhash' (classic, default) or 'oph'."""
    if signer == "oph":
        return OnePermMinHasher(shingle_size, num_perms, seed)
    if signer == "minhash":
        return MinHasher(shingle_size, num_perms, seed)
    raise ValueError(f"unknown signer {signer!r}")


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
