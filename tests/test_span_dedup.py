"""C4-style span dedup: window-explosion edge cases + end-to-end
invariants (the oracle hash-match lives in test_queries.py)."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from fastdup_ray.stages.span_dedup import (
    _rebuild_batch,
    _windows_of_batch,
    span_dedup_docs,
    span_kill_list,
)


def test_rebuild_batch_matches_reference_property():
    """r5: the vectorized rebuild (keep-mask + Arrow filter) must equal
    the straightforward per-doc reference on random docs and kill sets,
    including empty docs, trailers, docs with no kills, and kill rows
    for absent docs."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    W = 3

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def run(data):
        n_docs = data.draw(st.integers(0, 6))
        texts, kills = [], []
        for d in range(n_docs):
            ntok = data.draw(st.integers(0, 11))
            texts.append(" ".join(f"t{d}_{i}" for i in range(ntok)))
            # token count after split: empty string -> [''] -> 1 token
            nw = max(1, ntok) // W
            for w in range(nw):
                if data.draw(st.booleans()):
                    kills.append((d, w))
        if data.draw(st.booleans()):
            kills.append((999, 0))  # absent doc: must be ignored
        batch = pa.table({
            "doc_id": pa.array(range(n_docs), pa.int64()),
            "text": pa.array(texts, pa.string()),
        })
        kd = np.array([k[0] for k in kills], np.int64)
        kw = np.array([k[1] for k in kills], np.int64)
        got = {r["doc_id"]: r["text_clean"]
               for r in _rebuild_batch(batch, W, kd, kw).to_pylist()}
        for d in range(n_docs):
            tok = texts[d].split(" ")
            dead = {w for dd, w in kills if dd == d}
            nw = len(tok) // W
            parts = [tok[w * W:(w + 1) * W] for w in range(nw) if w not in dead]
            parts.append(tok[nw * W:])
            want = " ".join(t for p in parts for t in p)
            assert got[d] == want, (d, texts[d], sorted(dead))

    run()


def test_rebuild_batch_null_text_row():
    """A null text splits into a zero-token slot (equal adjacent list
    offsets). The rebuild must keep it null and leave every later doc of
    the batch intact, whichever token follows the null row."""
    batch = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(["a b c d e f", None, "g h i j k l", "m n o"]),
    })
    for kd, kw, want in [
        ([1, 3], [0, 1], ["d e f", None, "g h i", "m n o"]),
        ([3], [0], ["a b c d e f", None, "j k l", "m n o"]),
        ([4], [0], ["a b c d e f", None, "g h i j k l", ""]),
    ]:
        got = _rebuild_batch(batch, 3, np.array(kd, np.int64),
                             np.array(kw, np.int64))
        assert got["doc_id"].to_pylist() == [1, 2, 3, 4]
        assert got["text_clean"].to_pylist() == want, (kd, kw)


def test_window_explosion_edges(ray_session):
    batch = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "",                      # one empty token -> no full window
            "a b",                   # shorter than window
            "a b c",                 # exactly one window
            "a b c d e f g",         # two windows + trailer
        ]),
    })
    doc_ids, win_idx, spans = _windows_of_batch(batch, 3)
    assert doc_ids.tolist() == [3, 4, 4]
    assert win_idx.tolist() == [0, 0, 1]
    assert spans.to_pylist() == ["a b c", "a b c", "d e f"]


def test_span_dedup_end_to_end(ray_session):
    # doc 10 and doc 20 share window "x0..x2"; doc 20's copy must die and
    # its trailer survive verbatim. doc 30 is untouched.
    rows = [
        {"doc_id": 10, "text": "x0 x1 x2 a b"},
        {"doc_id": 20, "text": "x0 x1 x2 tail1 tail2"},
        {"doc_id": 30, "text": "u v w"},
    ]
    docs = rd.from_items(rows)
    kills = span_kill_list(docs, window=3).take_all()
    assert [(k["doc_id"], k["win_idx"]) for k in kills] == [(20, 0)]
    out = {r["doc_id"]: r["text_clean"]
           for r in span_dedup_docs(docs, window=3).take_all()}
    assert out == {10: "x0 x1 x2 a b", 20: "tail1 tail2", 30: "u v w"}


def test_cogroup_rebuild_equals_broadcast(ray_session, monkeypatch):
    from fastdup_ray.stages import span_dedup

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "text"]).repartition(8)
    a = sorted((r["doc_id"], r["text_clean"]) for r in
               span_dedup_docs(docs, window=13).take_all())
    # a zero budget forces the cogroup shuffle path
    monkeypatch.setattr(span_dedup, "_BROADCAST_KILL_BUDGET", 0)
    b = sorted((r["doc_id"], r["text_clean"]) for r in
               span_dedup_docs(docs, window=13).take_all())
    assert a == b


def test_span_dedup_token_conservation(ray_session):
    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "text"])
    w = 13
    n_kill = span_kill_list(docs, window=w).count()
    before = sum(len(r["text"].split(" ")) for r in docs.take_all())
    after = sum(
        len(r["text_clean"].split(" ")) if r["text_clean"] else 0
        for r in span_dedup_docs(docs, window=w).take_all()
    )
    assert n_kill > 0  # the synthetic corpus has real cross-doc dup spans
    assert before - after == w * n_kill
