"""Distributed HyperLogLog distinct-count sketch.

Public algorithm: Flajolet, Fusy, Gandouet, Meunier — "HyperLogLog: the
analysis of a near-optimal cardinality estimation algorithm" (AofA 2007),
with the standard linear-counting small-range correction. The sketch
input is the engine's own k-gram rolling hash at FULL 64-bit width
(`functions/hashing.segmented_gram_hashes64` — minhash/winnow truncate
the same mix64 output to 32 bits; a sketch needs all 64: the top p bits
pick the register, the low 64-p bits carry the rank).

Scale shape — the reason this belongs in a 100 TB engine: estimating
per-group distinct counts exactly requires a shuffle of every distinct
value (`partitioned_groupby` + nunique). The HLL sketch is a pure map
stage (each block emits at most groups x 2^p tiny register rows) plus a
fixed-size max-merge: no shuffle of the raw data, no dedup pass —
register max is idempotent over duplicate hashes, so duplicates cost
nothing. Standard error ~ 1.04/sqrt(2^p) (~3.3% at p=10).

Determinism / oracle: every register is a pure function of the input
bytes, and the estimator is computed from an exact INTEGER harmonic sum
S = sum(2^(width+1-rank)) (HUGEINT in SQL, Python int here), so float
summation order can never perturb the result. The DuckDB twin in
pipelines/sql_hash.py (`hll_ctes`) reproduces registers AND estimate
bit-for-bit from the same constants.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

from fastdup_ray.functions.hashing import segmented_gram_hashes64
from fastdup_ray.relational.ops import partitioned_groupby

# estimator constants for p=10 (m=1024), written EXACTLY as the SQL twin
# writes them so both sides round identically
_P = 10
_M = 1 << _P                 # 1024 registers
_WIDTH = 64 - _P             # rank bits
_SCALE = 1 << (_WIDTH + 1)   # 2^55: S = sum(2^(55-rank)), exact integer


def _ranks(hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(register index, rank) per hash. rank = 1-based position of the
    leftmost set bit of the low `_WIDTH` bits (width+1 when all zero),
    via a 6-step branchless binary floor-log2 — exact at any width
    (float log2 is not, above 53 bits)."""
    reg = (hashes >> np.uint64(_WIDTH)).astype(np.int64)
    rem = hashes & np.uint64((1 << _WIDTH) - 1)
    rank = np.full(hashes.shape[0], _WIDTH + 1, np.int64)
    nz = rem != 0
    r = rem[nz]
    fl = np.zeros(r.shape[0], np.int64)
    for sh in (32, 16, 8, 4, 2, 1):
        big = r >= (np.uint64(1) << np.uint64(sh))
        fl[big] += sh
        r[big] >>= np.uint64(sh)
    rank[nz] = _WIDTH - fl
    return reg, rank


def hll_register_partials(ds, *, k: int = 5, group_col: str = "source",
                          text_col: str = "text"):
    """Map stage: (group, text) rows -> (group, reg, rank) partial
    register maxima, at most n_groups x 2^p rows per block."""

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        grp = batch[group_col]
        if isinstance(grp, pa.ChunkedArray):
            grp = grp.combine_chunks()
        hashes, offsets = segmented_gram_hashes64(texts, k)
        enc = grp.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = enc.dictionary
        if hashes.shape[0] == 0:
            return pa.table({group_col: pa.array([], uniq.type),
                             "reg": pa.array([], pa.int64()),
                             "rank": pa.array([], pa.int64())})
        gcodes = np.repeat(codes, np.diff(offsets))
        reg, rank = _ranks(hashes)
        key = gcodes * _M + reg
        order = np.argsort(key, kind="stable")
        key, rank = key[order], rank[order]
        starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        maxr = np.maximum.reduceat(rank, starts)
        return pa.table({
            group_col: uniq.take(pa.array(key[starts] // _M, pa.int64())),
            "reg": pa.array(key[starts] % _M, pa.int64()),
            "rank": pa.array(maxr, pa.int64()),
        })

    return ds.map_batches(partial, batch_format="pyarrow")


def _estimate(max_ranks: np.ndarray) -> float:
    """HLL estimate from one group's nonzero-register max ranks, using the
    exact integer harmonic sum (absent registers contribute 2^(width+1)
    each). The arithmetic below is written term-for-term as in the SQL
    twin so both sides produce bit-identical doubles."""
    n_nz = int(max_ranks.shape[0])
    s = sum(1 << (_WIDTH + 1 - int(r)) for r in max_ranks)
    s += (_M - n_nz) * _SCALE
    v = _M - n_nz  # zero (never-hit) registers
    raw = (0.7213 / (1.0 + 1.079 / 1024.0)) * 1048576.0 \
        * 36028797018963968.0 / float(s)
    if raw <= 2.5 * _M and v > 0:
        return 1024.0 * math.log(1024.0 / v)
    return raw


def hll_distinct(ds, *, k: int = 5, group_col: str = "source",
                 text_col: str = "text"):
    """(group, text) Dataset -> (group, est_distinct) Dataset: estimated
    distinct k-gram count per group. One map pass + one tiny register
    shuffle (rows bounded by blocks x groups x 2^p, not by data)."""
    partials = hll_register_partials(ds, k=k, group_col=group_col,
                                     text_col=text_col)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for g, sub in df.groupby(group_col, sort=False):
            mr = sub.groupby("reg", sort=False)["rank"].max()
            rows.append((g, round(_estimate(mr.to_numpy()), 4)))
        return pd.DataFrame(rows, columns=[group_col, "est_distinct"])

    return partitioned_groupby(partials, group_col, finish)


# --------------------------------------------------------------- Misra-Gries
def _mg_prune(keys: np.ndarray, counts: np.ndarray,
              cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Misra-Gries reduction to <= cap counters: subtract the (cap+1)-th
    largest count from every counter and drop the non-positive ones (at
    most cap counters can stay strictly positive)."""
    if keys.shape[0] <= cap:
        return keys, counts
    kth = np.partition(counts, counts.shape[0] - cap - 1)[
        counts.shape[0] - cap - 1
    ]
    keep = counts > kth
    return keys[keep], counts[keep] - kth


def _mg_merge(parts: list[tuple[np.ndarray, np.ndarray]],
              cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge Misra-Gries summaries: pointwise counter sum, then one
    reduction (Agarwal et al. 2012, "Mergeable Summaries": the merged
    summary keeps the per-summary error bounds additive, so a tree of
    merges has the same guarantee as one sequential pass)."""
    keys = np.concatenate([p[0] for p in parts])
    counts = np.concatenate([p[1] for p in parts])
    if keys.shape[0]:
        s = pd.Series(counts)
        g = s.groupby(pd.Series(keys), sort=False).sum()
        keys = g.index.to_numpy(dtype=object)
        counts = g.to_numpy(dtype=np.int64)
    return _mg_prune(keys, counts, cap)


def misra_gries_counts(ds, to_keys, *, capacity: int = 1 << 15,
                       fan: int = 8):
    """Distributed Misra-Gries heavy-hitters summary — the ZERO-SHUFFLE
    scale path for frequent-item counts (the exact path is the
    `vocab_topk` partition exchange).

    Public algorithm: Misra & Gries 1982 "Finding repeated elements";
    the tree merge is Agarwal et al. 2012 ("Mergeable Summaries", PODS):
    per-block exact counts are a valid summary, pairwise merge = counter
    sum + one reduction. Each block emits <= capacity counters and the
    driver only ever holds the final summary, so the cost is a pure map
    pass + log-depth tree of capacity-bounded reduces — no exchange of
    raw keys at any point.

    Guarantee (returned alongside): for every key x,
        c_hat(x) <= c(x) <= c_hat(x) + err,
        err = (N - sum(kept counters)) / (capacity + 1) rounds ... <=
        N / (capacity + 1),
    so any key with true frequency > N/(capacity+1) is present. When
    ``capacity`` >= total distinct keys no reduction ever fires and the
    counts are EXACT (err == 0) — the property the SQL twin pins.

    ds: Dataset; to_keys: pa.Table -> np.ndarray(object) key stream.
    Returns (keys ndarray, counts int64 ndarray, n_total, err_bound).
    """
    import ray as _ray

    @_ray.remote
    def block_summary(t: pa.Table):
        keys = to_keys(t)
        if keys.shape[0] == 0:
            return (np.empty(0, object), np.empty(0, np.int64), 0)
        vc = pd.Series(keys).value_counts(sort=False)
        k, c = _mg_prune(vc.index.to_numpy(dtype=object),
                         vc.to_numpy(dtype=np.int64), capacity)
        return (k, c, int(keys.shape[0]))

    @_ray.remote
    def merge(*parts):
        k, c = _mg_merge([(p[0], p[1]) for p in parts], capacity)
        return (k, c, sum(p[2] for p in parts))

    refs = [block_summary.remote(r)
            for r in ds.materialize().to_arrow_refs()]
    if not refs:
        return np.empty(0, object), np.empty(0, np.int64), 0, 0.0
    while len(refs) > 1:
        refs = [merge.remote(*refs[i:i + fan])
                for i in range(0, len(refs), fan)]
    keys, counts, n = _ray.get(refs[0])
    err = (n - int(counts.sum())) / (capacity + 1)
    return keys, counts, n, err
