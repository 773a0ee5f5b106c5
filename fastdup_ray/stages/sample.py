"""Deterministic hash-based sampling for training-data curation.

The reference samples with numpy RNG state on one process
(/root/reference/fastdup/galleries.py sample paths; SURVEY.md O5/O6) —
unreproducible across run shapes. At cluster scale sampling must be a
PURE FUNCTION of the row so that (a) every worker makes the same
decision without coordination, (b) re-runs / resumes / different
parallelism levels select the identical sample, and (c) the sample is
SQL-auditable. Both operators key on `mix64(key ^ salt)`:

  * `hash_sample` — per-group Bernoulli rates (e.g. downweight a head
    language): keep a row iff hash % 1_000_000 < rate[group]*1e6.
    Shuffle-free: one vectorized map over the stream, rates broadcast
    in the closure. This is the 100-TB path — rebalancing a trillion
    rows costs one pass and zero exchanges.
  * `stratified_fixed_n` — exactly n rows per group, chosen as the n
    smallest hashes (deterministic "random" top-n): per-batch local
    top-n prune inside `map_batches` (each batch keeps at most n rows
    per group seen in it), then one small groupby on the survivors.
    The shuffle input is <= n * n_blocks rows, not the corpus.

The SQL twin reproduces mix64 bit-for-bit via sql_hash.mix64_ctes, so
the sample membership itself is oracle-checked, not just its size.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from fastdup_ray.functions.hashing import mix64

_DENOM = 1_000_000


def _keys(batch: pa.Table, key: str, salt: int) -> np.ndarray:
    k = batch[key].to_numpy(zero_copy_only=False).astype(np.uint64)
    return mix64(k ^ np.uint64(salt % (1 << 64)))


def hash_sample(ds, *, key: str = "doc_id", group_col: str | None = None,
                rates: dict | None = None, default_rate: float = 0.1,
                salt: int = 0):
    """Keep each row iff mix64(key^salt) % 1e6 < rate * 1e6, where rate
    comes from `rates[group]` (fallback `default_rate`). Rates are
    truncated to integer thresholds so the Ray and SQL sides agree
    exactly on boundary hashes."""
    rates = rates or {}
    thresholds = {g: int(r * _DENOM) for g, r in rates.items()}
    default_thr = int(default_rate * _DENOM)

    def fn(batch: pa.Table) -> pa.Table:
        h = _keys(batch, key, salt) % np.uint64(_DENOM)
        if group_col is None:
            thr = np.full(batch.num_rows, default_thr, np.uint64)
        else:
            groups = batch[group_col].to_pylist()
            thr = np.fromiter(
                (thresholds.get(g, default_thr) for g in groups),
                dtype=np.uint64, count=batch.num_rows)
        return batch.filter(pa.array(h < thr))

    return ds.map_batches(fn, batch_format="pyarrow")


def _top_n_rows(codes: np.ndarray, h: np.ndarray, keys: np.ndarray,
                n: int) -> np.ndarray:
    """Ascending row indices of the n smallest (hash, key) rows per
    group code (code -1: no group, never kept), from one lexsort.
    Signed keys get their sign bit flipped so that their unsigned order
    is their own (a raw uint64 cast sorts negatives after the rest)."""
    if keys.dtype.kind == "i":
        keys = keys.astype(np.int64).view(np.uint64) ^ np.uint64(1 << 63)
    else:
        keys = keys.astype(np.uint64)
    order = np.lexsort((keys, h, codes))
    sc = codes[order]
    starts = np.r_[0, np.flatnonzero(sc[1:] != sc[:-1]) + 1]
    runs = np.diff(np.r_[starts, sc.shape[0]])
    ranks = np.arange(sc.shape[0]) - np.repeat(starts, runs)
    return np.sort(order[(ranks < n) & (sc >= 0)])


def stratified_fixed_n(ds, *, n: int, key: str = "doc_id",
                       group_col: str = "lang", salt: int = 0):
    """Exactly min(n, group size) rows per group: the n smallest
    mix64(key^salt) values win, ties impossible below ~2^32 rows per
    hash (and broken by key anyway). Local per-batch top-n prune keeps
    the shuffle input to <= n rows per (group, block)."""

    def prune(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        h = _keys(batch, key, salt)
        batch = batch.append_column("_h", pa.array(h.astype(np.int64)))
        if batch.num_rows == 0:
            return batch
        # Arrow-native per-group top-n: dictionary-encode the group
        # column, keep the first n (hash, key) ranks per group run. Null
        # groups belong to no stratum and are dropped (the pandas-groupby
        # semantics this replaced).
        gcol = batch[group_col]
        if isinstance(gcol, pa.ChunkedArray):
            gcol = gcol.combine_chunks()
        codes = pc.dictionary_encode(gcol).indices.to_numpy(zero_copy_only=False)
        codes = np.nan_to_num(codes, nan=-1).astype(np.int64)
        keys = batch[key].to_numpy(zero_copy_only=False)
        return batch.take(pa.array(_top_n_rows(codes, h, keys, n)))

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_hu"] = df["_h"].to_numpy().astype(np.uint64)
        out = (df.sort_values(["_hu", key], kind="mergesort")
                 .groupby(group_col, sort=False).head(n)
                 .drop(columns=["_h", "_hu"]))
        return out.reset_index(drop=True)

    from fastdup_ray.relational.ops import partitioned_groupby

    pruned = ds.map_batches(prune, batch_format="pyarrow")
    # groups are few (languages/sources); partition directly on the group
    return partitioned_groupby(pruned, group_col, final)
