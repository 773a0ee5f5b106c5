"""Per-doc shingle sets: sorted-unique uint32 char-k-gram hashes.

`SignStage` computes each document's set ONCE, beside its signatures,
and emits it as the `shingles` list<uint32> column; the exact-verify
stage then does a pure sorted-array intersection per pair. Without
precomputed sets, hub documents (exact-dup cluster members appear in
many candidate pairs) get re-shingled once per verify batch — measured
at ~340us/pair vs ~30us/pair with precomputed sets.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def unique_sets(h: np.ndarray, off: np.ndarray, n: int):
    """Sorted-unique shingle set per doc, no per-doc Python loop: prefix
    each hash with its doc index, one in-place uint64 sort, run-length
    unique. Returns (values uint32[total], offsets int64[n+1]); docs
    without shingles get empty ranges."""
    doc_of = np.repeat(np.arange(n, dtype=np.uint64), np.diff(off))
    key = (doc_of << np.uint64(32)) | h.astype(np.uint64)
    key.sort()
    uniq = np.ones(key.shape[0], dtype=bool)
    uniq[1:] = key[1:] != key[:-1]
    ku = key[uniq]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount((ku >> np.uint64(32)).astype(np.int64), minlength=n),
              out=offsets[1:])
    return (ku & np.uint64(0xFFFFFFFF)).astype(np.uint32), offsets


def sets_array(values: np.ndarray, offsets: np.ndarray,
               keep: np.ndarray) -> pa.ListArray:
    """list<uint32> column of `unique_sets` output for the docs in
    `keep` (which may drop empty sets only)."""
    offsets = np.concatenate([offsets[:1], offsets[1:][keep]])
    return pa.ListArray.from_arrays(
        pa.array(offsets.astype(np.int32), pa.int32()), pa.array(values, pa.uint32())
    )


def list_column_arrays(col) -> tuple[np.ndarray, np.ndarray]:
    """(offsets int64[n+1], values uint32[total]) from a list<uint32> column."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    offsets = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    values = col.values.to_numpy(zero_copy_only=False).astype(np.uint32, copy=False)
    return offsets, values
