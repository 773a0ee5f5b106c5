"""SemDeDup over embedding cells: invariance to the exchange width."""

from unittest import mock

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from fastdup_ray.relational import ops


def _emb_ds(vectors: np.ndarray):
    t = pa.table({
        "vec_id": pa.array(np.arange(len(vectors)), pa.int64()),
        "embedding": pa.array(
            [list(map(float, v)) for v in vectors],
            pa.list_(pa.float64()),
        ),
    })
    return ray.data.from_arrow(t)


def test_semdedup_parallelism_invariant(ray_session):
    """Same output table at exchange width 1 and 8 and any block
    split — rep assignment must not depend on partitioning."""
    from fastdup_ray.stages.semdedup import semdedup

    rng = np.random.default_rng(11)
    vecs = rng.normal(size=(60, 8))
    vecs[20:25] = vecs[20] + rng.normal(scale=1e-4, size=(5, 8))
    vecs[40:43] = vecs[40] + rng.normal(scale=1e-4, size=(3, 8))
    cent = vecs[:4] / np.linalg.norm(vecs[:4], axis=1, keepdims=True)

    outs = []
    for parts in (1, 8):
        with mock.patch.object(ops, "exchange_width", lambda n: parts):
            out = semdedup(_emb_ds(vecs), cent, threshold=0.95).to_pandas()
        outs.append(out.sort_values("vec_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])
    # the two planted groups each keep exactly one row
    kept = outs[0]
    assert kept[(kept.vec_id >= 20) & (kept.vec_id < 25)].keep.sum() == 1
    assert kept[(kept.vec_id >= 40) & (kept.vec_id < 43)].keep.sum() == 1
