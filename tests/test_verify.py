"""Verify's broadcast-vs-join choice is made on the exact payload bytes."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from fastdup_ray.config import DedupConfig


def _sets_table(ids, sets):
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "shingles": pa.array([np.asarray(s, np.uint32) for s in sets],
                             pa.list_(pa.uint32())),
    })


def test_payload_sizing_is_exact_under_skewed_block_order(ray_session, monkeypatch):
    """2,000 one-shingle docs in the first block, then 50 docs of 2,000
    shingles: the first 1,000 rows predict ~8 KB for the 2,050 endpoints,
    the real payload is ~408 KB. With a 100 KB budget verify must take
    the join path, and its scores are the exact Jaccard either way."""
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
    budget = 100_000
    assert sampled <= budget < true_bytes  # the premise: a sample would fool it

    def no_broadcast(*args, **kwargs):
        raise AssertionError("payload over budget took the broadcast path")

    monkeypatch.setattr(verify, "_build_index_shards", no_broadcast)
    cfg = DedupConfig(verify_broadcast_max_bytes=budget, num_partitions=4)
    got = {(r["src"], r["dst"]): r["distance"]
           for r in verify.verify_pairs(pairs, sigs, None, cfg).take_all()}

    sets = dict(zip(ids.tolist(), [set(s) for s in small] + [set(s.tolist()) for s in big]))
    assert len(got) == len(ids) - 1
    for (a, b), d in got.items():
        sa, sb = sets[a], sets[b]
        assert d == len(sa & sb) / len(sa | sb)

    packed = sigs.map_batches(verify._pack_shingles, batch_format="pyarrow").materialize()
    assert verify._payload_bytes(packed, "sh_bin") == true_bytes
