"""Signature stage: docs -> (doc_id, minhash[128], simhash, n_shingles,
shingles).

Text-native analog of the reference's feature-extraction stage
(reference fastdup/__init__.py:341-353 ONNX inference writing
atrain_features.dat; here the "feature vector" is the 128 x uint32
MinHash signature plus a 64-bit SimHash, SURVEY.md §1.2 `signatures`
table). Stateless `map_batches` task — the permutation matrix is a
cheap seeded closure constant, so no actor pool is needed.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from fastdup_ray.config import DedupConfig
from fastdup_ray.functions.hashing import segmented_shingle_hashes, to_i63
from fastdup_ray.functions.minhash import MinHasher, band_buckets
from fastdup_ray.functions.simhash import simhash64
from fastdup_ray.stages.shingles import sets_array, unique_sets


class SignStage:
    """map_batches callable: docs batch (pyarrow) -> signatures batch.

    Only valid docs (is_valid, and with at least one shingle) produce
    signature rows — the analog of excluding features.bad.csv entries
    from the similarity graph (reference definitions.py:151-153).
    """

    def __init__(self, config: DedupConfig | None = None,
                 emit_shingles: bool = True):
        cfg = config or DedupConfig()
        self.cfg = cfg
        self.mh = MinHasher(cfg.shingle_size, cfg.num_perms, cfg.seed)
        # also emit the sorted-unique shingle-set column, so the
        # exact-verify stage never re-shingles the corpus (one text pass
        # and no separate set stage)
        self.emit_shingles = emit_shingles

    def __call__(self, batch: pa.Table) -> pa.Table:
        if "is_valid" in batch.column_names:
            batch = batch.filter(batch["is_valid"])
        texts = batch["text"]  # stays an Arrow array end-to-end (zero-copy)
        h, off = segmented_shingle_hashes(texts, self.cfg.shingle_size)
        # a minimum over a set equals the minimum over the multiset, so
        # signing the unique shingles gives the same signature from
        # fewer hashes; n_shingles stays the raw shingle count
        values, uoff = unique_sets(h, off, len(texts))
        sig, _ = self.mh.signatures_from_hashes(values, uoff)
        n_shingles = np.diff(off)
        sh = simhash64(texts)
        # a doc has >=1 raw shingle iff it has >=1 unique shingle
        keep = n_shingles > 0
        cols = {"doc_id": batch["doc_id"].filter(pa.array(keep))}
        cols["minhash"] = pa.FixedSizeListArray.from_arrays(
            pa.array(sig[keep].ravel(), pa.uint32()), self.cfg.num_perms
        )
        # stored as int64 (bit-reinterpret) — Ray shuffles struggle
        # with uint64 above 2^63; view back via .view(np.uint64)
        cols["simhash"] = pa.array(sh[keep].view(np.int64), pa.int64())
        cols["n_shingles"] = pa.array(n_shingles[keep], pa.int64())
        if self.emit_shingles:
            cols["shingles"] = sets_array(values, uoff, keep)
        return pa.table(cols)


def signatures_to_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(doc_ids int64[n], sig uint32[n, P]) from a signatures batch — zero-copy
    on the flattened fixed_size_list values."""
    ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    col = batch["minhash"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    width = col.type.list_size
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.uint32, copy=False)
    return ids, flat.reshape(-1, width)


class BandStage:
    """signatures batch -> LSH band rows (bucket int64, doc_id int64).

    The band index is folded into the bucket hash (minhash.band_buckets),
    so a single uint64 `bucket` column is the full grouping key for the
    candidate-pair shuffle — one narrow all-to-all instead of sixteen.
    This replaces the reference's in-RAM HNSW index build
    (reference __init__.py:292-297) with a groupby shuffle (SURVEY.md G1).
    """

    def __init__(self, config: DedupConfig | None = None):
        self.cfg = config or DedupConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, sig = signatures_to_matrix(batch)
        bk = band_buckets(sig, self.cfg.num_bands, self.cfg.rows_per_band)  # (n, B)
        n, B = bk.shape
        return pa.table(
            {
                "bucket": pa.array(to_i63(bk.ravel()), pa.int64()),
                "doc_id": pa.array(np.repeat(ids, B), pa.int64()),
            }
        )
