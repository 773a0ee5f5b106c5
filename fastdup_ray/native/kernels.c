/* Native sign and verify kernels, loaded through ctypes by
 * fastdup_ray/native/__init__.py. Each function is bit-identical to the
 * numpy kernel it replaced (tests/test_kernel_properties.py pins that
 * against the numpy references kept in tests/kernel_refs.py). Integer
 * arithmetic only, so every ISA clone computes the same bits. */

#include <stdint.h>
#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#if defined(__x86_64__) && !defined(FASTDUP_NO_CLONES)
#define ISA_CLONES \
    __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define ISA_CLONES
#endif

/* FNV-64 prime: the base of the hash-v2 polynomial. */
#define HASH_BASE 0x100000001B3ULL

static inline uint64_t mix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ULL;
    x ^= x >> 33;
    return x;
}

/* The k-gram hash (mix64(sum byte_i * B^(k-1-i)) >> 32, mod 2^64) of
 * every window inside each doc data[offs[d]:offs[d+1]], written
 * back to back into `out`; a doc shorter than k has no window. */
void shingle_hashes(const uint8_t *data, const int64_t *offs, int64_t n_docs,
                    int64_t k, uint32_t *out)
{
    uint64_t bk = 1; /* B^k: the weight a byte has once it leaves the window */
    for (int64_t i = 0; i < k; i++)
        bk *= HASH_BASE;
    for (int64_t d = 0; d < n_docs; d++) {
        const uint8_t *p = data + offs[d];
        int64_t len = offs[d + 1] - offs[d];
        if (len < k)
            continue;
        uint64_t h = 0;
        for (int64_t i = 0; i < k; i++)
            h = h * HASH_BASE + p[i];
        *out++ = (uint32_t)(mix64(h) >> 32);
        for (int64_t i = k; i < len; i++) {
            h = h * HASH_BASE + p[i] - p[i - k] * bk;
            *out++ = (uint32_t)(mix64(h) >> 32);
        }
    }
}

/* Permutations per pass over a doc's shingles (32 measured fastest of 16,
 * 32, 64 and 128 on x86-64-v3 and -v4). */
#define PERM_BLOCK 32

/* sig[d * num_perms + p] = min over doc d's hashes x of
 * ((a[p] * x + b[p]) mod 2^64) >> 32, or 0xFFFFFFFF for a doc without
 * hashes. */
ISA_CLONES
void minhash(const uint32_t *hashes, const int64_t *offs, int64_t n_docs,
             const uint64_t *a, const uint64_t *b, int64_t num_perms,
             uint32_t *sig)
{
    for (int64_t p0 = 0; p0 < num_perms; p0 += PERM_BLOCK) {
        int64_t m = num_perms - p0 < PERM_BLOCK ? num_perms - p0 : PERM_BLOCK;
        uint64_t aa[PERM_BLOCK], bb[PERM_BLOCK];
        for (int j = 0; j < PERM_BLOCK; j++) {
            aa[j] = j < m ? a[p0 + j] : 0;
            bb[j] = j < m ? b[p0 + j] : 0;
        }
        for (int64_t d = 0; d < n_docs; d++) {
            uint64_t mins[PERM_BLOCK];
            for (int j = 0; j < PERM_BLOCK; j++)
                mins[j] = UINT64_MAX;
            for (int64_t s = offs[d]; s < offs[d + 1]; s++) {
                uint64_t x = hashes[s];
                for (int j = 0; j < PERM_BLOCK; j++) {
                    uint64_t v = aa[j] * x + bb[j];
                    mins[j] = v < mins[j] ? v : mins[j];
                }
            }
            uint32_t *row = sig + d * num_perms + p0;
            for (int64_t j = 0; j < m; j++)
                row[j] = (uint32_t)(mins[j] >> 32);
        }
    }
}

/* counts[r] = |A_r & B_r| for the sorted-unique ranges
 * A_r = va[sa[r]:ea[r]] and B_r = vb[sb[r]:eb[r]], by a branch-free
 * merge. With SSE2 it steps four values a side at a time: all 16 pairs
 * of two blocks are compared, and the block with the smaller last value
 * (both on a tie) is consumed, so every shared value is counted once. */
void intersect_counts(const uint32_t *va, const int64_t *sa, const int64_t *ea,
                      const uint32_t *vb, const int64_t *sb, const int64_t *eb,
                      int64_t n, int64_t *counts)
{
    for (int64_t r = 0; r < n; r++) {
        const uint32_t *pa = va + sa[r], *enda = va + ea[r];
        const uint32_t *pb = vb + sb[r], *endb = vb + eb[r];
        int64_t c = 0;
#if defined(__SSE2__)
        while (enda - pa >= 4 && endb - pb >= 4) {
            __m128i x = _mm_loadu_si128((const __m128i *)pa);
            __m128i y = _mm_loadu_si128((const __m128i *)pb);
            __m128i eq = _mm_or_si128(
                _mm_or_si128(_mm_cmpeq_epi32(x, y),
                             _mm_cmpeq_epi32(x, _mm_shuffle_epi32(y, 0x39))),
                _mm_or_si128(_mm_cmpeq_epi32(x, _mm_shuffle_epi32(y, 0x4E)),
                             _mm_cmpeq_epi32(x, _mm_shuffle_epi32(y, 0x93))));
            c += __builtin_popcount(_mm_movemask_ps(_mm_castsi128_ps(eq)));
            uint32_t amax = pa[3], bmax = pb[3];
            pa += (amax <= bmax) * 4;
            pb += (bmax <= amax) * 4;
        }
#endif
        while (pa < enda && pb < endb) {
            uint32_t x = *pa, y = *pb;
            c += x == y;
            pa += x <= y;
            pb += y <= x;
        }
        counts[r] = c;
    }
}
