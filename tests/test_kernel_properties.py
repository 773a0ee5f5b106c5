"""Property tests for the sign/verify kernels: the native shingle-hash,
MinHash and set-intersection kernels (fastdup_ray/native) against the
numpy references in kernel_refs.py, bit for bit; exact set Jaccard
scoring, the chunked SimHash vote and the sign stage's signing of unique
shingle sets against plain Python; and how the native library is built,
loaded and pickled."""

import functools
import os
import shutil
import subprocess
import sys
import tempfile
import time
from unittest import mock

import cloudpickle
import kernel_refs as ref
import numpy as np
import pyarrow as pa
import ray
from hypothesis import given, settings
from hypothesis import strategies as st

from fastdup_ray import native
from fastdup_ray.config import DedupConfig
from fastdup_ray.functions import simhash as simhash_mod
from fastdup_ray.functions.hashing import (
    hash64_strings,
    rolling_shingle_hashes,
    segmented_shingle_hashes,
)
from fastdup_ray.functions.minhash import MinHasher, make_permutations
from fastdup_ray.functions.simhash import simhash64
from fastdup_ray.stages import verify
from fastdup_ray.stages.signatures import SignStage, signatures_to_matrix
from fastdup_ray.stages.verify import _exact_scores_block


def _flat(sets):
    """(values uint32, starts, ends) of a list of sets, each range sorted."""
    vals = [np.array(sorted(s), np.uint32) for s in sets]
    lens = np.array([v.size for v in vals], np.int64)
    starts = np.cumsum(lens) - lens
    data = np.concatenate(vals) if vals else np.empty(0, np.uint32)
    return data, starts, starts + lens


# ------------------------------------------------------ exact Jaccard
def _score(sets_a, sets_b):
    """_exact_scores_block over aligned lists of Python sets, with the
    output rows in reverse order (the kernel scatters through out_rows)."""
    va, sa, ea = _flat(sets_a)
    vb, sb, eb = _flat(sets_b)
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
                max_size=25))
def test_exact_scores_block_matches_python_jaccard(pairs):
    # include the edge cases in every example: empty/empty, one-sided
    # empty, identical sets
    pairs = pairs + [(set(), set()), ({3, 9}, set()), (set(), {2**32 - 1}),
                     ({1, 2, 3}, {1, 2, 3})]
    got = _score([a for a, _ in pairs], [b for _, b in pairs])
    want = [_jaccard(a, b) for a, b in pairs]
    assert got.tolist() == want


def test_exact_scores_block_straddles_default_chunk():
    """Pairs whose sizes straddle the numpy reference's 256,000-value
    chunk: a single pair larger than one chunk, and chunks that end
    exactly at and one value past it."""
    budget = 256_000
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
    va, sa, ea = _flat(sets_a)
    vb, sb, eb = _flat(sets_b)
    assert (native.intersect_counts(va, sa, ea, vb, sb, eb).tolist()
            == ref.intersect_counts(va, sa, ea, vb, sb, eb, budget).tolist())


# ---------------------------------------------- native vs numpy kernels
doc_or_null = st.none() | st.text(alphabet="ab é中\n", max_size=30)


@settings(max_examples=60, deadline=None)
@given(st.lists(doc_or_null, max_size=12), st.integers(0, 3),
       st.sampled_from([3, 5, 9]), st.sampled_from([pa.string(), pa.large_string()]))
def test_native_shingle_hashes_match_numpy_reference(texts, cut, k, typ):
    """Sliced Arrow arrays (non-zero offset), nulls, empty strings and
    docs shorter than k; the list input; and one doc at a time."""
    arr = pa.array(["lead-in"] * cut + texts + ["tail"], typ).slice(cut, len(texts))
    got_h, got_off = segmented_shingle_hashes(arr, k)
    want_h, want_off = ref.segmented_shingle_hashes(arr, k)
    assert got_h.dtype == np.uint32 and got_off.dtype == np.int64
    assert got_h.tobytes() == want_h.tobytes()
    assert got_off.tobytes() == want_off.tobytes()
    plain = [t or "" for t in texts]
    list_h, list_off = segmented_shingle_hashes(plain, k)
    assert list_h.tobytes() == want_h.tobytes()
    assert list_off.tobytes() == want_off.tobytes()
    for i, t in enumerate(plain):
        solo = rolling_shingle_hashes(t.encode(), k)
        assert solo.tobytes() == ref.rolling_shingle_hashes(t.encode(), k).tobytes()
        assert solo.tobytes() == got_h[got_off[i] : got_off[i + 1]].tobytes()


hash_value = st.sampled_from([0, 1, 2**32 - 1]) | st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(hash_value, max_size=40), max_size=10),
       st.sampled_from([1, 7, 32, 33, 128, 200]), st.integers(0, 2**32))
def test_native_minhash_matches_numpy_reference(docs, num_perms, seed):
    """Any num_perms (block tails included), empty docs, repeated hashes
    and the extreme hash values; small reference chunks split the docs
    across chunk boundaries."""
    hashes = np.array([x for d in docs for x in d], np.uint32)
    offs = np.zeros(len(docs) + 1, np.int64)
    np.cumsum([len(d) for d in docs], out=offs[1:])
    a, b = make_permutations(num_perms, seed)
    got = native.minhash(hashes, offs, a, b)
    assert got.dtype == np.uint32 and got.shape == (len(docs), num_perms)
    assert got.tobytes() == ref.minhash_signatures(hashes, offs, a, b).tobytes()
    assert got.tobytes() == ref.minhash_signatures(hashes, offs, a, b, 16).tobytes()
    sig, n_sh = MinHasher(5, num_perms, seed).signatures_from_hashes(hashes, offs)
    assert sig.tobytes() == got.tobytes()
    assert n_sh.tolist() == [len(d) for d in docs]
    assert (got[n_sh == 0] == 0xFFFFFFFF).all()


kernel_set = st.sets(st.integers(0, 60) | hash_value, max_size=20)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(kernel_set, kernel_set), max_size=20))
def test_native_intersect_counts_match_numpy_reference(pairs):
    """Empty, identical, disjoint and one-sided sets, values at 0 and
    2^32-1, and sets long enough for the four-wide merge steps."""
    big = set(range(0, 90, 3)) | {2**32 - 1}
    pairs = pairs + [(set(), set()), (big, big), (set(range(10)), set(range(10, 20))),
                     ({7}, set()), (set(), {2**32 - 1}), ({0, 2**32 - 1}, {0, 2**32 - 1}),
                     (big, set(range(0, 90, 2)))]
    va, sa, ea = _flat([a for a, _ in pairs])
    vb, sb, eb = _flat([b for _, b in pairs])
    got = native.intersect_counts(va, sa, ea, vb, sb, eb)
    assert got.dtype == np.int64
    assert got.tolist() == ref.intersect_counts(va, sa, ea, vb, sb, eb).tolist()
    assert got.tolist() == [len(a & b) for a, b in pairs]


def test_clones_compiled_out_give_identical_outputs(tmp_path):
    """The source built a second time without the ISA clones (baseline
    code only) returns the same bytes from every kernel."""
    plain = native.load(native.build(str(tmp_path), ("FASTDUP_NO_CLONES",)))
    rng = np.random.default_rng(11)
    data = rng.integers(0, 256, 20_000, dtype=np.uint8)
    offs = np.sort(rng.integers(0, data.size, 200))
    offs = np.concatenate([[0], offs, [data.size]]).astype(np.int64)
    for k in (3, 5, 9):
        got = native.shingle_hashes(data, offs, k, lib=plain)
        want = native.shingle_hashes(data, offs, k)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    h, hoff = native.shingle_hashes(data, offs, 5)
    for num_perms in (128, 37):
        a, b = make_permutations(num_perms, 3)
        assert (native.minhash(h, hoff, a, b, lib=plain).tobytes()
                == native.minhash(h, hoff, a, b).tobytes())
    sets = [np.unique(h[hoff[i] : hoff[i + 1]] % 512) for i in range(hoff.size - 1)]
    vals = np.concatenate(sets).astype(np.uint32)
    ends = np.cumsum([s.size for s in sets])
    starts = ends - [s.size for s in sets]
    i = np.repeat(np.arange(len(sets)), 4)
    j = (i + np.tile(np.arange(4), len(sets))) % len(sets)
    args = (vals, starts[i], ends[i], vals, starts[j], ends[j])
    assert (native.intersect_counts(*args, lib=plain).tobytes()
            == native.intersect_counts(*args).tobytes())


_BUILD_AND_LOAD = """
import os, sys, time
from fastdup_ray import native
while not os.path.exists(sys.argv[2]):
    time.sleep(0.001)
path = native.build(sys.argv[1])
lib = native.load(path)
print(path, int(native.intersect_counts([1, 2, 3], [0], [3], [2, 3], [0], [2], lib=lib)[0]))
"""


def test_concurrent_builds_into_one_directory(tmp_path):
    """Four processes that build into one empty directory at once compile
    once (a `cc` shim first on PATH logs each call), all load the same
    complete file, and no temporary file is left beside it and its lock."""
    out_dir = tmp_path / "build"
    go = tmp_path / "go"
    log = tmp_path / "cc.log"
    shim = tmp_path / "bin"
    shim.mkdir()
    (shim / "cc").write_text(f"#!/bin/sh\necho cc >> {log}\nexec {shutil.which('cc')} \"$@\"\n")
    (shim / "cc").chmod(0o755)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(native.__file__)))
    env = dict(os.environ, PYTHONPATH=repo, PATH=f"{shim}{os.pathsep}{os.environ['PATH']}")
    procs = [subprocess.Popen([sys.executable, "-c", _BUILD_AND_LOAD, str(out_dir), str(go)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=env)
             for _ in range(4)]
    time.sleep(1.0)  # let every process import and wait at the barrier
    go.touch()
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0] * 4, [e for _, e in outs]
    lines = {o.strip() for o, _ in outs}
    assert len(lines) == 1
    path, count = lines.pop().split()
    assert count == "2"
    assert log.read_text().splitlines() == ["cc"]
    name = os.path.basename(path)
    assert sorted(os.listdir(out_dir)) == [name, f"{name}.lock"]


def test_build_dir_falls_back_to_temp_when_not_writable(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setattr(native, "_DIR", str(blocker))
    got = native.build_dir()
    assert os.path.dirname(got) == tempfile.gettempdir()
    assert str(os.getuid()) in os.path.basename(got)


def test_kernel_callables_pickle_after_the_library_is_loaded(ray_session):
    """With the library open in this process, the sign stage and the
    verify scoring partial still pickle, and their copies compute the
    same outputs."""
    cfg = DedupConfig()
    texts = ["the quick brown fox jumps", "the quick brown fox leaps", "", "abc"]
    batch = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())})
    stage = SignStage(cfg)
    want = stage(batch)
    assert native._lib.cache_info().currsize == 1
    assert cloudpickle.loads(cloudpickle.dumps(stage))(batch).equals(want)

    sets = want.select(["doc_id", "shingles"])
    refs = verify._build_index([ray.put(sets)], sets["shingles"].nbytes)
    score = functools.partial(verify._score_batch, shard_refs=refs)
    pairs = pa.table({"src": pa.array([0, 0, 1], pa.int64()),
                      "dst": pa.array([1, 3, 1], pa.int64())})
    got = cloudpickle.loads(cloudpickle.dumps(score))(pairs)
    sets = {i: set(s) for i, s in zip(want["doc_id"].to_pylist(),
                                       want["shingles"].to_pylist())}
    assert got["distance"].to_pylist() == [
        _jaccard(sets[a], sets.get(b, set())) for a, b in [(0, 1), (0, 3), (1, 1)]]


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
@given(st.lists(doc_text, min_size=1, max_size=10))
def test_sign_stage_unique_sets_equal_raw_multiset(texts):
    """SignStage signs each doc's unique shingle set; that must equal
    MinHash over the raw shingle multiset, and n_shingles stays the raw
    count. The stage emits exactly the docs with n_shingles > 0."""
    cfg = DedupConfig()
    batch = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())})
    out = SignStage(cfg)(batch)
    h, off = segmented_shingle_hashes(texts, cfg.shingle_size)
    sig, n_sh = MinHasher(cfg.shingle_size, cfg.num_perms,
                          cfg.seed).signatures_from_hashes(h, off)
    rows = np.flatnonzero(n_sh > 0)
    ids, got = signatures_to_matrix(out)
    assert ids.tolist() == rows.tolist()
    assert np.array_equal(got, sig[rows])
    assert out["n_shingles"].to_pylist() == n_sh[rows].tolist()
