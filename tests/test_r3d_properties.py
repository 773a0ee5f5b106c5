"""Property-based coverage for the r3d kernels (pure-function parts —
no Ray session needed): window explosion vs a Python reference, shuffle
rank vs argsort, sample thresholds."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from fastdup_ray.functions.hashing import mix64
from fastdup_ray.stages.span_dedup import _windows_of_batch

token = st.text(alphabet="abcd", min_size=1, max_size=3)
doc = st.lists(token, min_size=0, max_size=40).map(" ".join)


@settings(max_examples=60, deadline=None)
@given(st.lists(doc, min_size=1, max_size=12),
       st.integers(min_value=1, max_value=7))
def test_window_explosion_matches_python(texts, w):
    batch = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
    })
    doc_ids, win_idx, spans = _windows_of_batch(batch, w)
    got = list(zip(doc_ids.tolist(), win_idx.tolist(), spans.to_pylist()))
    want = []
    for d, t in enumerate(texts):
        tok = t.split(" ")
        for i in range(len(tok) // w):
            want.append((d, i, " ".join(tok[i * w:(i + 1) * w])))
    assert got == want


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**62), min_size=1,
                max_size=200, unique=True),
       st.integers(min_value=0, max_value=2**32))
def test_shuffle_rank_is_argsort(ids, salt):
    # the distributed rank (bucket offsets + local rank) must equal the
    # plain argsort rank of (mix64(id^salt), id)
    k = np.array(ids, dtype=np.uint64)
    h = mix64(k ^ np.uint64(salt))
    order = np.lexsort((k, h))
    want = {int(k[j]): int(r) for r, j in enumerate(order)}
    # reproduce the bucket math used by deterministic_shuffle
    bk = (h >> np.uint64(56)).astype(np.int64)
    sizes = np.bincount(bk, minlength=256)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    got = {}
    for b in range(256):
        m = bk == b
        hb, kb = h[m], k[m]
        sub = np.lexsort((kb, hb))
        for r, j in enumerate(sub):
            got[int(kb[j])] = int(offsets[b] + r)
    assert got == want


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**62), min_size=50,
                max_size=500, unique=True),
       st.floats(min_value=0.0, max_value=1.0))
def test_hash_sample_rate_unbiased(ids, rate):
    # membership threshold semantics: h % 1e6 < floor(rate * 1e6);
    # check it equals the batch-level stage decision exactly
    from fastdup_ray.stages.sample import _DENOM, hash_sample  # noqa: F401

    k = np.array(ids, dtype=np.uint64)
    h = mix64(k) % np.uint64(_DENOM)
    thr = int(rate * _DENOM)
    want = set(np.asarray(ids)[h < thr].tolist())
    # stage-level: run the inner fn directly on one batch
    batch = pa.table({"doc_id": pa.array(ids, pa.int64())})
    from fastdup_ray.stages.sample import _keys
    hh = _keys(batch, "doc_id", 0) % np.uint64(_DENOM)
    got = set(np.asarray(ids)[hh < thr].tolist())
    assert got == want


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=80, max_size=600), st.integers(65, 200))
def test_winnow_anchor_guarantee(data, sub_len):
    # every sub_len-byte window of any document contains >= 1 winnow
    # anchor (the zero-miss basis of stages/substring.py's anchors)
    from fastdup_ray.functions.hashing import rolling_shingle_hashes
    from fastdup_ray.stages.winnow import winnow_positions

    window = 64
    h = rolling_shingle_hashes(data, window)
    if h.shape[0] == 0:
        return
    w = sub_len - window + 1
    sel = set(winnow_positions(h, w).tolist())
    for s in range(0, len(data) - sub_len + 1):
        assert any(p in sel for p in range(s, s + sub_len - window + 1))
