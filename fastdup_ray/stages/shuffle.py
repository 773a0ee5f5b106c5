"""Deterministic global shuffle with materialized positions.

Training-data pipelines need a REPRODUCIBLE corpus-wide shuffle: the
same (corpus, salt) must yield the same example order on any cluster
shape, resume, or re-run — `ray.data.Dataset.random_shuffle` is neither
deterministic across shapes nor does it materialize positions. Here the
shuffle order is defined as ascending (mix64(key ^ salt), key), i.e. a
pure function of each row, and every row gets its exact global position
`pos` in that order.

Distributed-rank shape (how a distributed sort assigns global offsets):
  1. one vectorized map stamps h = mix64(key^salt) and a range bucket
     (the top `bucket_bits` of h — uniform because h is);
  2. one TINY aggregate counts rows per bucket (2^bucket_bits rows
     total regardless of data size) -> exclusive prefix sums on the
     driver, broadcast back in the closure;
  3. one partitioned pass sorts each bucket locally and adds its
     prefix offset: pos = offset[bucket] + local_rank.
No global sort barrier and no single-task funnel: the only all-to-all
is the bucket partition, and each bucket sorts independently.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from fastdup_ray.functions.hashing import mix64
from fastdup_ray.relational.ops import partitioned_groupby


def deterministic_shuffle(ds, *, key: str = "doc_id", salt: int = 0,
                          bucket_bits: int = 8, pos_col: str = "pos"):
    """Append `pos`: the row's exact rank under ascending
    (mix64(key^salt), key). Output rows keep all input columns."""
    n_buckets = 1 << bucket_bits
    shift = np.uint64(64 - bucket_bits)

    def stamp(batch: pa.Table) -> pa.Table:
        k = batch[key].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = mix64(k ^ np.uint64(salt % (1 << 64)))
        batch = batch.append_column("_h", pa.array(h.astype(np.int64)))
        return batch.append_column(
            "_bk", pa.array((h >> shift).astype(np.int64)))

    # materialize ONCE: `stamped` is consumed twice (driver histogram
    # pass, then the ranking shuffle) — un-materialized, Ray would
    # re-execute the whole upstream pipeline for each consumer, and
    # position correctness would silently depend on both executions
    # producing identical rows
    stamped = ds.map_batches(stamp, batch_format="pyarrow").materialize()

    # bucket histogram: map-side bincount per block, summed on the driver
    # (2^bucket_bits ints per block — no shuffle, no aggregator actors)
    def block_hist(batch: pa.Table) -> pa.Table:
        bk = batch["_bk"].to_numpy(zero_copy_only=False)
        return pa.table({
            "bk": pa.array(np.arange(n_buckets, dtype=np.int64)),
            "h": pa.array(np.bincount(bk, minlength=n_buckets)
                          .astype(np.int64)),
        })

    sizes = np.zeros(n_buckets, dtype=np.int64)
    for b in stamped.map_batches(
            block_hist, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"):
        np.add.at(sizes, b["bk"].to_numpy(zero_copy_only=False),
                  b["h"].to_numpy(zero_copy_only=False))
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    def rank_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # a partition may hold several buckets; rank inside each
        df = df.copy()
        df["_hu"] = df["_h"].to_numpy().astype(np.uint64)
        df = df.sort_values(["_bk", "_hu", key], kind="mergesort")
        local = df.groupby("_bk", sort=False).cumcount().to_numpy()
        df[pos_col] = offsets[df["_bk"].to_numpy()] + local
        return (df.drop(columns=["_h", "_hu", "_bk"])
                  .reset_index(drop=True))

    return partitioned_groupby(stamped, "_bk", rank_bucket)
