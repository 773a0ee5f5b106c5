"""Pair verification: the exact shingle-set Jaccard of every candidate
pair, scored against doc_id-hash-sharded index shards whose count
follows the exact payload bytes."""

import math
import weakref

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data as rd
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastdup_ray.config import DedupConfig


def _sets_table(ids, sets):
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "shingles": pa.array([np.asarray(s, np.uint32) for s in sets],
                             pa.list_(pa.uint32())),
    })


def _jaccard(a: set, b: set) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def _count_shards(monkeypatch, verify, payloads=None) -> list:
    """Record the shard count of every index verify builds (and, into
    `payloads`, the payload bytes summed from the endpoint-filter tasks)."""
    built = []
    build = verify._build_index

    def counting_build(sets, payload_bytes):
        refs = build(sets, payload_bytes)
        built.append(len(refs))
        if payloads is not None:
            payloads.append(payload_bytes)
        return refs

    monkeypatch.setattr(verify, "_build_index", counting_build)
    return built


def test_payload_sizing_is_exact_under_skewed_block_order(ray_session, monkeypatch):
    """2,000 one-shingle docs in the first block, then 50 docs of 2,000
    shingles: the first 1,000 rows predict ~8 KB for the 2,050 endpoints,
    the real payload is ~408 KB. With 100 KB shards a sample would build
    one shard; the exact byte sum builds five, and the scores are the
    exact Jaccard."""
    from fastdup_ray.stages import verify

    rng = np.random.default_rng(3)
    small_ids = np.arange(2000)
    big_ids = np.arange(2000, 2050)
    small = [[int(i)] for i in small_ids]
    big = [np.sort(rng.choice(4000, 2000, replace=False)) for _ in big_ids]
    sigs = rd.from_arrow([_sets_table(small_ids, small), _sets_table(big_ids, big)])
    ids = np.concatenate([small_ids, big_ids])
    pairs = rd.from_arrow(pa.table({"src": pa.array(ids[:-1], pa.int64()),
                                    "dst": pa.array(ids[1:], pa.int64())}))

    true_bytes = 4 * (len(small) + sum(len(s) for s in big))
    sampled = 4 * np.mean([len(s) for s in small[:1000]]) * len(ids)
    shard_bytes = 100_000
    assert math.ceil(sampled / shard_bytes) == 1  # the premise: a sample would fool it

    monkeypatch.setattr(verify, "_SHARD_BYTES", shard_bytes)
    payloads = []
    built = _count_shards(monkeypatch, verify, payloads)
    got = {(r["src"], r["dst"]): r["distance"]
           for r in verify.verify_pairs(pairs, sigs, None, DedupConfig()).take_all()}
    assert built == [math.ceil(true_bytes / shard_bytes)] and built[0] >= 2

    sets = dict(zip(ids.tolist(), [set(s) for s in small] + [set(s.tolist()) for s in big]))
    assert len(got) == len(ids) - 1
    for (a, b), d in got.items():
        assert d == _jaccard(sets[a], sets[b])

    # the endpoint-filter tasks' byte sum is the exact payload
    assert payloads == [true_bytes]


@st.composite
def _verify_cases(draw):
    """Docs with small sets over a 64-value universe (empty sets, and
    copies of other docs' sets, included), pairs among them and ids that
    have no set row, and a target shard count 1-8."""
    ids = draw(st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=30,
                        unique=True))
    sets = [sorted(set(draw(st.lists(st.integers(0, 63), max_size=16))))
            for _ in ids]
    for i, j in draw(st.lists(st.tuples(st.integers(0, len(ids) - 1),
                                        st.integers(0, len(ids) - 1)), max_size=6)):
        sets[j] = sets[i]
    missing = draw(st.lists(st.integers(-2**62, 2**62).filter(lambda x: x not in ids),
                            max_size=3))
    ends = st.sampled_from(ids + missing)
    pairs = draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=60))
    return {"ids": ids, "sets": sets, "pairs": pairs,
            "blocks": draw(st.integers(1, 3)), "shards": draw(st.integers(1, 8))}


@settings(max_examples=20, deadline=None)
@example(case={
    "ids": [10, 11, 12, 13, 14, 15],
    "sets": [[1, 2, 3], [1, 2, 4], [1, 2, 3], [], [5, 6, 7, 8], [5, 6, 7, 9]],
    "pairs": [(10, 11), (10, 12), (13, 13), (13, 99), (99, 98), (14, 15), (15, 10)],
    "blocks": 2, "shards": 3,
})
@given(case=_verify_cases())
def test_verify_pairs_equals_set_jaccard(ray_session, case):
    """verify_pairs == Python set Jaccard for any shard count: empty sets,
    endpoints without a set row (J=0), identical sets (J=1) and distinct
    equal-length sets (exact J, not 1)."""
    from fastdup_ray.stages import verify

    ids, sets, pairs = case["ids"], case["sets"], case["pairs"]
    table = _sets_table(ids, sets)
    step = -(-len(ids) // case["blocks"])
    sigs = rd.from_arrow([table.slice(i, step) for i in range(0, len(ids), step)])
    pairs_ds = rd.from_arrow(pa.table({
        "src": pa.array([a for a, _ in pairs], pa.int64()),
        "dst": pa.array([b for _, b in pairs], pa.int64())}))
    by_id = dict(zip(ids, map(set, sets)))
    ends = {x for p in pairs for x in p}
    payload = 4 * sum(len(by_id[x]) for x in ends if x in by_id)
    shard_bytes = max(1, -(-payload // case["shards"]))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_SHARD_BYTES", shard_bytes)
        built = _count_shards(mp, verify)
        got = verify.verify_pairs(pairs_ds, sigs, None).to_pandas()

    assert built == [max(1, -(-payload // shard_bytes))]
    assert built[0] <= case["shards"]
    assert sorted(zip(got["src"], got["dst"])) == sorted(pairs)
    for a, b, d in zip(got["src"], got["dst"], got["distance"]):
        assert d == _jaccard(by_id.get(a, set()), by_id.get(b, set())), (a, b)


def test_scoring_holds_at_most_two_shards(ray_session, monkeypatch):
    """In-process: a pair batch that touches every (src, dst) shard cell
    of a 6-shard index never holds more than two shards at once."""
    from fastdup_ray.stages import verify

    rng = np.random.default_rng(5)
    ids = np.arange(300, dtype=np.int64) * 7919
    sets = [np.unique(rng.integers(0, 200, 40)) for _ in ids]
    table = _sets_table(ids, sets)
    payload = 4 * sum(len(s) for s in sets)
    monkeypatch.setattr(verify, "_SHARD_BYTES", -(-payload // 6))
    refs = verify._build_index([ray.put(table.slice(0, 150)),
                                ray.put(table.slice(150))], payload)
    assert len(refs) == 6

    live, peak, fetched = [0], [0], set()

    def released():
        live[0] -= 1

    def fetch(ref):
        idx = ray.get(ref)
        live[0] += 1
        peak[0] = max(peak[0], live[0])
        weakref.finalize(idx, released)
        fetched.add(refs.index(ref))
        return idx

    monkeypatch.setattr(verify, "_fetch", fetch)
    src = rng.choice(ids, 5000)
    dst = rng.choice(ids, 5000)
    out = verify._score_batch(pa.table({"src": src, "dst": dst}), refs)
    assert fetched == set(range(6))
    assert peak[0] <= 2 and live[0] == 0
    by_id = dict(zip(ids.tolist(), (set(s.tolist()) for s in sets)))
    assert out["distance"].to_pylist() == [
        _jaccard(by_id[a], by_id[b]) for a, b in zip(src.tolist(), dst.tolist())]


def test_exact_scores_block_scores_equal_length_distinct_sets():
    """Distinct sets of equal length score their exact Jaccard, not 1.0,
    also when one differing element hides among thousands of equal
    ranges."""
    from fastdup_ray.stages.verify import _exact_scores_block

    vals_a = np.array([1, 2, 3, 7, 8, 9], np.uint32)
    vals_b = np.array([1, 2, 3, 7, 8, 10], np.uint32)
    s = np.array([0, 3], np.int64)
    out = np.zeros(2)
    _exact_scores_block(vals_a, s, s + 3, vals_b, s, s + 3, out, np.arange(2))
    assert out.tolist() == [1.0, 0.5]
    n = 5000
    va = np.arange(n * 4, dtype=np.uint32)
    vb = va.copy()
    vb[7] += 1  # segment 1 becomes {4, 5, 6, 8}: J = 3/5
    s = np.arange(n, dtype=np.int64) * 4
    out = np.zeros(n)
    _exact_scores_block(va, s, s + 4, vb, s, s + 4, out, np.arange(n))
    assert out[1] == 3 / 5 and (np.delete(out, 1) == 1.0).all()


def test_verify_endpoints_never_materialize_on_driver(ray_session):
    """verify_pairs must compute the endpoint set via task-side tree
    reduce; equal-set pairs score exactly 1.0 and
    near-dup pairs keep their exact Jaccard."""
    from fastdup_ray.stages.signatures import SignStage
    from fastdup_ray.stages.verify import verify_pairs

    cfg = DedupConfig()
    base = "word%d " * 60
    texts = [base % tuple(range(i, i + 60)) for i in range(0, 40, 2)]
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts) * 2) // 2, pa.int64()),
            "text": pa.array([t for t in texts for _ in (0, 1)]),
        }
    )
    # duplicate doc ids collapse: make ids unique, every even id's text
    # equals the next odd id's text -> (2i, 2i+1) are exact dups
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts) * 2), pa.int64()),
            "text": docs["text"],
        }
    )
    ds = rd.from_arrow(docs).repartition(4)
    sigs = ds.map_batches(SignStage(cfg), batch_format="pyarrow").materialize()
    pairs = rd.from_arrow(
        pa.table(
            {
                "src": pa.array(np.arange(0, len(texts) * 2, 2), pa.int64()),
                "dst": pa.array(np.arange(1, len(texts) * 2, 2), pa.int64()),
            }
        )
    ).repartition(3)
    scores = verify_pairs(pairs, sigs, ds, cfg).take_all()
    assert len(scores) == len(texts)
    assert all(abs(r["distance"] - 1.0) < 1e-12 for r in scores)
