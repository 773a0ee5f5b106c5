"""Unit tests for the hashing / MinHash / SimHash kernels (no Ray needed)."""

import numpy as np
import pytest

from fastdup_ray.functions.hashing import (
    hash64_str,
    hash64_strings,
    mix64,
    rolling_shingle_hashes,
    segmented_shingle_hashes,
)
from fastdup_ray.functions.minhash import (
    MinHasher,
    band_buckets,
    estimate_jaccard,
    exact_jaccard_pairs,
)
from fastdup_ray.functions.simhash import hamming64, simhash64, simhash_quarters


def test_hash64_deterministic_and_distinct():
    a = hash64_strings(["foo", "bar", "foo", ""])
    b = hash64_strings(["foo", "bar", "foo", ""])
    assert np.array_equal(a, b)
    assert a[0] == a[2]
    assert a[0] != a[1]
    assert hash64_str("foo") == int(a[0])
    assert a.dtype == np.uint64


def test_mix64_bijective_sample():
    x = np.arange(1000, dtype=np.uint64)
    m = mix64(x)
    assert len(np.unique(m)) == 1000


def test_rolling_shingles_match_naive():
    data = b"abcdefgh"
    h = rolling_shingle_hashes(data, 5)
    assert h.shape[0] == 4
    # each window hash equals hashing that window alone
    for i in range(4):
        single = rolling_shingle_hashes(data[i : i + 5], 5)
        assert single.shape[0] == 1
        assert h[i] == single[0]
    # distinct windows hash distinctly here
    assert len(np.unique(h)) == 4


def test_segmented_shingles_per_doc():
    texts = ["abcdefgh", "xy", "", "abcdefgh"]
    h, off = segmented_shingle_hashes(texts, 5)
    assert list(np.diff(off)) == [4, 0, 0, 4]
    np.testing.assert_array_equal(h[off[0] : off[1]], h[off[3] : off[4]])
    solo = rolling_shingle_hashes(b"abcdefgh", 5)
    np.testing.assert_array_equal(h[0:4], solo)


def _mutate(text: str, frac: float, seed: int) -> str:
    rng = np.random.default_rng(seed)
    words = text.split()
    n_mut = max(1, int(len(words) * frac))
    idx = rng.choice(len(words), size=n_mut, replace=False)
    for i in idx:
        words[i] = f"mut{rng.integers(0, 10**6)}"
    return " ".join(words)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(500)]
    base = [" ".join(rng.choice(vocab, size=rng.integers(80, 300))) for _ in range(30)]
    return base


def test_minhash_estimates_jaccard(corpus):
    mh = MinHasher(5, 128, 42)
    a = corpus[0]
    b = _mutate(a, 0.02, 1)   # high overlap
    c = _mutate(a, 0.5, 2)    # low overlap
    sig, n_sh = mh.signatures([a, b, c])
    assert sig.shape == (3, 128)
    assert (n_sh > 0).all()
    true_ab = exact_jaccard_pairs([a], [b], 5)[0]
    true_ac = exact_jaccard_pairs([a], [c], 5)[0]
    est_ab = estimate_jaccard(sig[0:1], sig[1:2])[0]
    est_ac = estimate_jaccard(sig[0:1], sig[2:3])[0]
    assert true_ab > 0.85 and true_ac < 0.6
    assert abs(est_ab - true_ab) < 0.12
    assert abs(est_ac - true_ac) < 0.15
    # identical docs -> identical signatures
    sig2, _ = mh.signatures([a])
    np.testing.assert_array_equal(sig[0], sig2[0])


def test_minhash_batch_equals_single(corpus):
    """Signatures must not depend on batch composition (parallelism invariance)."""
    mh = MinHasher(5, 128, 42)
    batch_sig, _ = mh.signatures(corpus)
    for i in [0, 7, 29]:
        solo, _ = mh.signatures([corpus[i]])
        np.testing.assert_array_equal(batch_sig[i], solo[0])


def test_minhash_empty_and_short():
    mh = MinHasher(5, 128, 42)
    sig, n_sh = mh.signatures(["", "abc", "abcdefghij"])
    assert n_sh[0] == 0 and n_sh[1] == 0 and n_sh[2] == 6
    assert (sig[0] == 0xFFFFFFFF).all()
    assert (sig[1] == 0xFFFFFFFF).all()
    assert not (sig[2] == 0xFFFFFFFF).all()


def test_band_buckets_collision_semantics(corpus):
    mh = MinHasher(5, 128, 42)
    a = corpus[0]
    b = _mutate(a, 0.01, 3)
    c = corpus[1]
    sig, _ = mh.signatures([a, b, c])
    bk = band_buckets(sig, 16, 8)
    assert bk.shape == (3, 16)
    # near-identical docs share at least one band bucket; unrelated docs share none
    assert (bk[0] == bk[1]).any()
    assert not (bk[0] == bk[2]).any()
    # band keys for the same doc differ across bands (band index folded in)
    assert len(np.unique(bk[0])) == 16


def test_simhash_properties(corpus):
    a = corpus[0]
    b = _mutate(a, 0.02, 4)
    c = corpus[1]
    fp = simhash64([a, b, c, a, ""])
    assert fp.dtype == np.uint64
    assert fp[0] == fp[3]
    assert fp[4] == 0
    d_ab = hamming64(fp[0:1], fp[1:2])[0]
    d_ac = hamming64(fp[0:1], fp[2:3])[0]
    assert d_ab < d_ac
    assert d_ab <= 12
    assert d_ac > 15


def test_simhash_batch_equals_single(corpus):
    batch = simhash64(corpus)
    for i in [0, 5, 29]:
        assert batch[i] == simhash64([corpus[i]])[0]


def test_simhash_quarters_pigeonhole():
    fp = np.array([0x1234_5678_9ABC_DEF0], dtype=np.uint64)
    flipped = fp ^ np.uint64(0b101)  # hamming 2, low quarter touched
    qa, qb = simhash_quarters(fp)[0], simhash_quarters(flipped)[0]
    assert (qa == qb).sum() == 3  # three untouched quarters still collide
    assert hamming64(fp, flipped)[0] == 2


def test_hash64_arrow_path_equals_list_path():
    """The zero-copy Arrow string path must produce the same hashes as the
    Python-list path (and the bytes fallback must honor str->utf8 parity)."""
    import pyarrow as pa

    strs = ["", "a", "hello world", "x" * 5000, "é中文 café", "tab\tsep", " lead"]
    from_list = hash64_strings(strs)
    from_arrow = hash64_strings(pa.array(strs, pa.string()))
    from_large = hash64_strings(pa.array(strs, pa.large_string()))
    assert np.array_equal(from_list, from_arrow)
    assert np.array_equal(from_list, from_large)
    # chunked + sliced arrays go through the same view
    chunked = pa.chunked_array([strs[:3], strs[3:]], pa.string())
    assert np.array_equal(from_list, hash64_strings(chunked))
    sliced = pa.array(["pad"] + strs).slice(1)
    assert np.array_equal(from_list, hash64_strings(sliced))
    # bytes input hashes the raw bytes = utf-8 of the equivalent str
    assert np.array_equal(
        hash64_strings([s.encode("utf-8") for s in strs]), from_list
    )


def test_simhash_arrow_tokenizer_matches_str_split():
    """simhash64's Arrow utf8_split_whitespace tokenization must agree with
    a per-doc str.split() + per-token hash reference implementation."""
    import pyarrow as pa

    rng = np.random.default_rng(7)
    words = ["w%d" % i for i in range(200)] + ["été", "中文"]
    texts = [
        " ".join(rng.choice(words, size=int(rng.integers(0, 60))))
        for _ in range(150)
    ]
    texts += ["", "   ", "\ta b\nc  ", " x y ", "one"]

    def reference(ts):
        out = np.zeros(len(ts), dtype=np.uint64)
        for i, t in enumerate(ts):
            tk = t.split()
            if not tk:
                continue
            h = hash64_strings(tk)
            bits = np.unpackbits(h.view(np.uint8).reshape(-1, 8), axis=1)
            ones = bits.astype(np.int64).sum(axis=0)
            fb = (2 * ones > len(tk)).astype(np.uint64)
            out[i] = (fb << np.arange(64, dtype=np.uint64)).sum(dtype=np.uint64)
        return out

    got = simhash64(texts)
    assert np.array_equal(got, reference(texts))
    assert np.array_equal(simhash64(pa.array(texts)), got)


def test_split_whitespace_ignores_the_byte_after_a_string():
    """Arrow's utf8_split_whitespace reads the byte after each string. A
    UTF-8 continuation byte there (after the last string of an array it
    is unset buffer padding) glued the string's trailing whitespace onto
    its last token, so simhash64 of the last docs of a batch was
    nondeterministic."""
    import pyarrow as pa

    from fastdup_ray.functions.hashing import split_whitespace

    for text in ["a b\t", "  ", " c ", "\t", "été\u3000"]:
        raw = text.encode("utf-8")
        for tail in (b"\x80", b"\xbf", b"\xff", b"x"):
            arr = pa.Array.from_buffers(pa.string(), 1, [
                None, pa.py_buffer(np.array([0, len(raw)], np.int32).tobytes()),
                pa.py_buffer(raw + tail)])
            toks = split_whitespace(arr).to_pylist()[0]
            assert [t for t in toks if t] == text.split(), (text, tail, toks)
            assert simhash64(arr)[0] == simhash64([text])[0], (text, tail)


def test_emit_partition_matches_per_bucket_reference():
    """The vectorized LSH pair emitter must produce exactly the per-bucket
    reference semantics: full clique (src<dst) for buckets <= cap, star
    to the min doc_id above cap, deduped within the partition."""
    import pandas as pd

    from fastdup_ray.stages.lsh import make_emit_partition

    def reference(df, cap):
        df = df.drop_duplicates()
        multi = df[df.duplicated("bucket", keep=False)]
        out = set()
        for _, g in multi.groupby("bucket", sort=False):
            ids = np.unique(g["doc_id"].to_numpy().astype(np.int64))
            m = ids.shape[0]
            if m < 2:
                continue
            if m <= cap:
                iu = np.triu_indices(m, k=1)
                out.update(zip(ids[iu[0]].tolist(), ids[iu[1]].tolist()))
            else:
                out.update((int(ids[0]), int(x)) for x in ids[1:])
        return out

    rng = np.random.default_rng(11)
    for cap in (2, 5, 32, 10**6):
        n = 4000
        df = pd.DataFrame(
            {
                "bucket": rng.integers(0, 300, n).astype(np.int64),
                "doc_id": rng.integers(0, 500, n).astype(np.int64),
            }
        )
        got = make_emit_partition(cap)(df.copy())
        assert set(map(tuple, got.to_numpy())) == reference(df, cap)
        assert (got["src"] < got["dst"]).all()


def test_gram_hashes64_consistent_with_32bit_kernel():
    """The 32-bit shingle kernel is the top half of the 64-bit gram
    kernel (same poly + mix64, truncated) — segmentation included."""
    from fastdup_ray.functions.hashing import (
        segmented_gram_hashes64,
        segmented_shingle_hashes,
    )

    docs = ["the quick brown fox", "", "abcd", "abcde", "x" * 50, "día línea"]
    h64, off64 = segmented_gram_hashes64(docs, 5)
    h32, off32 = segmented_shingle_hashes(docs, 5)
    assert (off64 == off32).all()
    assert ((h64 >> np.uint64(32)).astype(np.uint32) == h32).all()


def test_hll_accuracy_and_split_invariance():
    """HLL estimate within ~5x stderr of the true distinct count, and the
    register-partial merge makes the estimate independent of how the
    input is batched (the distributed-merge property)."""
    import math

    from fastdup_ray.stages.sketches import _estimate, _ranks
    from fastdup_ray.functions.hashing import segmented_gram_hashes64

    rng = np.random.default_rng(7)
    # ~4000 distinct 8-char tokens, each repeated 1-5 times
    toks = ["w%07d" % i for i in rng.permutation(4000)]
    stream = [t for t in toks for _ in range(int(rng.integers(1, 6)))]
    text = " ".join(stream)
    h, _ = segmented_gram_hashes64([text], 9)
    # distinct 9-grams of the stream; ground truth via python set
    truth = len({text[i:i + 9] for i in range(len(text) - 8)})

    def regs_of(hashes):
        reg, rank = _ranks(hashes)
        out = np.zeros(1024, np.int64)
        np.maximum.at(out, reg, rank)
        return out

    full = regs_of(h)
    est = _estimate(full[full > 0])
    assert abs(est / truth - 1) < 5 * 1.04 / math.sqrt(1024), (est, truth)
    # split into 7 uneven chunks, merge by register max -> identical
    merged = np.zeros(1024, np.int64)
    for part in np.array_split(h, 7):
        merged = np.maximum(merged, regs_of(part))
    assert (merged == full).all()


# ---------------------------------------------------------------- golden
# Fixed outputs of the hash-v2, SimHash, MinHash and SignStage kernels,
# captured once and pinned forever: doc_ids, signatures and fingerprints
# are persisted in checkpoints, so a kernel rewrite must reproduce these
# values bit for bit.

def _golden_corpus() -> list[str]:
    """Deterministic corpus from a pure-Python LCG (no numpy RNG, so the
    inputs cannot drift with a library upgrade): short, empty,
    whitespace-only and non-ASCII docs, docs with heavily repeated
    shingles, and one doc long enough to cross a SimHash chunk."""
    words = ["alpha", "beta", "gamma", "delta", "été", "中文", "naïve",
             "x", "yy", "zzz", "data", "join", "sort", "merge", "key"]
    state = 12345

    def nxt(m: int) -> int:
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        return (state >> 33) % m

    docs = ["", "   ", "abc", "abcde", "a\tb\nc  d", "é" * 7, "中文 中文 中文"]
    for i in range(40):
        docs.append(" ".join(words[nxt(len(words))] for _ in range(nxt(120) + 1)))
    docs.append("repeat " * 300)
    docs.append(" ".join(words[nxt(len(words))] for _ in range(9000)))
    return docs


def _digest(*arrays) -> str:
    import hashlib

    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:32]


def _sign_table_digest(t) -> str:
    from fastdup_ray.stages.shingles import list_column_arrays
    from fastdup_ray.stages.signatures import signatures_to_matrix

    ids, sig = signatures_to_matrix(t)
    parts = [ids, sig, t["simhash"].to_numpy(), t["n_shingles"].to_numpy()]
    if "shingles" in t.column_names:
        parts += list(list_column_arrays(t["shingles"]))
    return _digest(*parts)


GOLDEN_STRINGS = ["", "a", "hello world", "é中文 café", "tab\tsep",
                  " lead", "\x00nul", "ü" * 33, "abc" * 30_000,
                  "🦀 emoji", "x" * 65_537]
GOLDEN_HASH64 = [
    "c70b7d317e33bf45", "2b0db45306767a4d", "72f7b4322099d0f0",
    "a9ac962f931a365e", "6a7fac73634161f8", "8f31836488284d53",
    "636f6d8207f1178b", "3a8463c7119b83ab", "b4e79628c79b9a7c",
    "35d69b3c5b405a04", "53da7e419f4b5e11",
]
GOLDEN_SIMHASH = "4f1f796bc7118cc4c7c39ee8409fe99b"
GOLDEN_MINHASH = "403b0ca1b54d400f2527b950b4b69556"
GOLDEN_SIGNSTAGE = "771863e1ee99145549fc31f13fd6d9fd"


def test_golden_hash64_strings():
    got = [f"{int(v):016x}" for v in hash64_strings(GOLDEN_STRINGS)]
    assert got == GOLDEN_HASH64


def test_golden_simhash64():
    assert _digest(simhash64(_golden_corpus())) == GOLDEN_SIMHASH


def test_golden_minhash_signatures():
    docs = _golden_corpus()
    assert _digest(*MinHasher(5, 128, 42).signatures(docs)) == GOLDEN_MINHASH


# the id keeps the test name the suite has always reported
@pytest.mark.parametrize("golden", [GOLDEN_SIGNSTAGE], ids=["minhash-False"])
def test_golden_sign_stage(golden):
    import pyarrow as pa

    from fastdup_ray.config import DedupConfig
    from fastdup_ray.stages.signatures import SignStage

    docs = _golden_corpus()
    batch = pa.table({
        "doc_id": pa.array(np.arange(len(docs), dtype=np.int64) * 7 + 3),
        "text": pa.array(docs, pa.string()),
        "is_valid": pa.array([i % 11 != 5 for i in range(len(docs))]),
    })
    out = SignStage(DedupConfig())(batch)
    assert _sign_table_digest(out) == golden
