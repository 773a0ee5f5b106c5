"""Property tests for the sign/verify kernels against plain-Python
references: exact set Jaccard scoring, the chunked SimHash vote, and the
sign stage's signing of unique shingle sets (no Ray session needed)."""

from unittest import mock

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from fastdup_ray.config import DedupConfig
from fastdup_ray.functions import simhash as simhash_mod
from fastdup_ray.functions.hashing import hash64_strings, segmented_shingle_hashes
from fastdup_ray.functions.minhash import make_signer
from fastdup_ray.functions.simhash import simhash64
from fastdup_ray.stages import verify
from fastdup_ray.stages.signatures import SignStage, signatures_to_matrix
from fastdup_ray.stages.verify import _exact_scores_block, _set_fingerprints


# ------------------------------------------------------ exact Jaccard
def _score(sets_a, sets_b):
    """_exact_scores_block over aligned lists of Python sets, with the
    output rows in reverse order (the kernel scatters through out_rows)."""
    def flat(sets):
        vals = [np.array(sorted(s), np.uint32) for s in sets]
        lens = np.array([v.size for v in vals], np.int64)
        starts = np.cumsum(lens) - lens
        data = np.concatenate(vals) if vals else np.empty(0, np.uint32)
        return data, starts, starts + lens

    va, sa, ea = flat(sets_a)
    vb, sb, eb = flat(sets_b)
    n = len(sets_a)
    out = np.full(n, -1.0)
    rows = np.arange(n)[::-1]
    _exact_scores_block(va, sa, ea, vb, sb, eb, out, rows)
    return out[::-1]


def _jaccard(a: set, b: set) -> float:
    return len(a & b) / len(a | b) if a | b else 0.0


small_set = st.sets(st.integers(0, 40), max_size=12)
value_set = st.sets(st.integers(0, 2**32 - 1), max_size=12)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(small_set | value_set, small_set | value_set),
                max_size=25),
       st.sampled_from([1, 5, 17, 10**9]))
def test_exact_scores_block_matches_python_jaccard(pairs, chunk):
    # include the edge cases in every example: empty/empty, one-sided
    # empty, identical sets
    pairs = pairs + [(set(), set()), ({3, 9}, set()), (set(), {2**32 - 1}),
                     ({1, 2, 3}, {1, 2, 3})]
    with mock.patch.object(verify, "_EXACT_CHUNK_ELEMS", chunk):
        got = _score([a for a, _ in pairs], [b for _, b in pairs])
    want = [_jaccard(a, b) for a, b in pairs]
    assert got.tolist() == want


def test_exact_scores_block_straddles_default_chunk():
    """Pairs whose sizes straddle the real _EXACT_CHUNK_ELEMS budget: a
    single pair larger than one chunk, and chunks that end exactly at
    and one element past the budget."""
    budget = verify._EXACT_CHUNK_ELEMS
    rng = np.random.default_rng(3)
    pool = rng.choice(2**32, size=budget + 10, replace=False)
    sizes = [(budget // 2, budget // 2), (budget - 7, 8), (budget // 2 + 1, budget // 2),
             (budget + 5, 3), (10, 0), (0, 0)]
    sets_a, sets_b = [], []
    for la, lb in sizes:
        a = pool[:la]
        b = np.concatenate([pool[la // 3 : la // 3 + lb // 2],
                            pool[budget : budget + lb - lb // 2]])
        sets_a.append(set(a.tolist()))
        sets_b.append(set(b.tolist()))
    got = _score(sets_a, sets_b)
    assert got.tolist() == [_jaccard(a, b) for a, b in zip(sets_a, sets_b)]


@settings(max_examples=40, deadline=None)
@given(st.lists(small_set, max_size=20))
def test_set_fingerprints_equal_for_equal_sets(sets):
    sets = sets + [set()] + sets[:3]
    vals = [np.array(sorted(s), np.uint32) for s in sets]
    offs = np.zeros(len(vals) + 1, np.int64)
    np.cumsum([v.size for v in vals], out=offs[1:])
    fp = _set_fingerprints(np.concatenate(vals), offs)
    for i, a in enumerate(sets):
        if not a:
            assert fp[i] == 0
        for j, b in enumerate(sets):
            if a == b:
                assert fp[i] == fp[j]


# ------------------------------------------------------------ SimHash
def _simhash_reference(texts):
    """Per-doc str.split + bit-column vote, one doc at a time."""
    out = np.zeros(len(texts), dtype=np.uint64)
    for i, t in enumerate(texts):
        tk = t.split()
        if not tk:
            continue
        bits = np.unpackbits(hash64_strings(tk).view(np.uint8).reshape(-1, 8), axis=1)
        fb = (2 * bits.astype(np.int64).sum(axis=0) > len(tk)).astype(np.uint64)
        out[i] = (fb << np.arange(64, dtype=np.uint64)).sum(dtype=np.uint64)
    return out


words = st.sampled_from(["a", "bb", "ccc", "été", "中文", "x1", "y2", "zz"])
text = st.lists(words, max_size=30).map(" ".join) | st.sampled_from(["", "  ", "\t"])


@settings(max_examples=60, deadline=None)
@given(st.lists(text, min_size=1, max_size=12), st.integers(1, 9))
def test_simhash_chunked_vote_equals_per_doc(texts, chunk):
    """A batch spanning many vote chunks (docs crossing chunk boundaries)
    equals per-doc simhash64 and the plain reference."""
    with mock.patch.object(simhash_mod, "_VOTE_CHUNK", chunk):
        batch = simhash64(texts)
        solo = [simhash64([t])[0] for t in texts]
    assert batch.tolist() == [int(v) for v in solo]
    assert batch.tolist() == _simhash_reference(texts).tolist()


def test_simhash_doc_crosses_real_chunk_boundary():
    chunk = simhash_mod._VOTE_CHUNK
    rng = np.random.default_rng(5)
    vocab = np.array([f"w{i}" for i in range(300)])
    texts = [" ".join(rng.choice(vocab, size=s)) for s in
             (chunk - 3, 10, 2 * chunk + 1, 0, chunk)]
    batch = simhash64(texts)
    assert batch.tolist() == [int(simhash64([t])[0]) for t in texts]
    assert batch.tolist() == _simhash_reference(texts).tolist()


# ------------------------------------------------------------ sign stage
doc_text = st.text(alphabet="abcé ", max_size=40)


@settings(max_examples=40, deadline=None)
@given(st.lists(doc_text, min_size=1, max_size=10),
       st.sampled_from(["minhash", "oph"]))
def test_sign_stage_unique_sets_equal_raw_multiset(texts, signer):
    """SignStage signs each doc's unique shingle set; that must equal the
    signer run over the raw shingle multiset, and n_shingles stays the
    raw count. The stage emits exactly the docs with n_shingles > 0."""
    cfg = DedupConfig(signer=signer)
    batch = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())})
    out = SignStage(cfg)(batch)
    h, off = segmented_shingle_hashes(texts, cfg.shingle_size)
    sig, n_sh = make_signer(signer, cfg.shingle_size, cfg.num_perms,
                            cfg.seed).signatures_from_hashes(h, off)
    rows = np.flatnonzero(n_sh > 0)
    ids, got = signatures_to_matrix(out)
    assert ids.tolist() == rows.tolist()
    assert np.array_equal(got, sig[rows])
    assert out["n_shingles"].to_pylist() == n_sh[rows].tolist()
