"""Per-doc shingle-set table: (doc_id, shingles list<uint32> sorted unique).

Computed ONCE per document and checkpointed; the exact-verify stage then
joins these instead of raw text and does a pure sorted-array
intersection per pair. Without this, hub documents (exact-dup cluster
members appear in many candidate pairs) get re-shingled once per verify
batch — measured at ~340us/pair vs ~30us/pair with precomputed sets.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from fastdup_ray.config import DedupConfig
from fastdup_ray.functions.hashing import segmented_shingle_hashes


class ShingleSetStage:
    """map_batches callable: docs batch -> shingle-set batch (valid docs only)."""

    def __init__(self, config: DedupConfig | None = None):
        self.cfg = config or DedupConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        if "is_valid" in batch.column_names:
            batch = batch.filter(batch["is_valid"])
        texts = batch["text"]  # Arrow array — shingled zero-copy
        h, off = segmented_shingle_hashes(texts, self.cfg.shingle_size)
        values, offsets = unique_sets(h, off, len(texts))
        keep = np.diff(offsets) > 0
        return pa.table({"doc_id": batch["doc_id"].filter(pa.array(keep)),
                         "shingles": sets_array(values, offsets, keep)})


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
               keep: np.ndarray | None = None) -> pa.ListArray:
    """list<uint32> column of `unique_sets` output: a row for every doc,
    or only for the docs in `keep` (which may drop empty sets only)."""
    if keep is not None:
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
