"""SemDeDup: semantic deduplication over an embedding column.

Abbas et al. 2023 ("SemDeDup: Data-efficient learning at web-scale
through semantic deduplication", arXiv:2303.09540, public): cluster
document embeddings with k-means, then prune — inside each cluster —
groups of vectors whose pairwise cosine similarity exceeds a threshold,
keeping one representative per semantic-duplicate group. The whole
point of the clustering step is the scale bound: pairwise work is
O(sum n_c^2) over cluster sizes instead of O(n^2) over the corpus.

Reference analog: fastdup's KMeans artifacts + component-based dedup
delete (reference fastdup/__init__.py:2694-2700 for the centroids /
assignments, __init__.py:1629-1677 for keep-one-per-component) — this
stage fuses the two over the embedding table.

Ray-Data shape (two stages, one exchange):

1. ``ivf_assign`` map pass: nearest-centroid ``cell`` per row from a
   broadcast (``ray.put`` once) centroid matrix.
2. ONE hash exchange on ``cell`` (``partitioned_groupby``), then per
   cluster: L2-normalize, blocked float64 matmul for pairwise cosine,
   edges at ``round(cos, 6) >= threshold``, vectorized min-label
   components (``components.min_label_components``, no per-pair Python
   loop), and
   ``rep_id`` = min vec_id of each semantic group. ``keep`` marks the
   representative. Nothing lands on the driver.

Scale notes: choose ``n_centroids ~ n / target_cluster_size`` so the
per-cluster matmul fits a worker (the paper used 11k clusters for
LAION-440M). The blocked matmul bounds peak memory at
``block_rows x n_c`` floats regardless of cluster size; clusters are
processed independently inside their hash partition, so skew in
cluster sizes only skews partitions, not the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def semdedup(ds, centroids: np.ndarray, *, threshold: float = 0.4,
             embedding_col: str = "embedding", id_col: str = "vec_id",
             block_rows: int = 2048):
    """(id, embedding) Dataset -> (id, cell, rep_id, keep) Dataset.

    ``rep_id`` is the minimum id of the row's intra-cluster semantic
    group (singleton rows are their own rep); ``keep`` is True exactly
    for the representative, so ``filter(keep)`` is the deduplicated
    corpus and ``1 - mean(keep)`` the paper's dedup fraction."""
    from fastdup_ray.relational.ops import partitioned_groupby
    from fastdup_ray.stages.ann import _normalize, ivf_assign
    from fastdup_ray.stages.components import min_label_components

    assigned = ivf_assign(ds, centroids, embedding_col=embedding_col)

    def _out(ids, cells, reps) -> pa.Table:
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "cell": pa.array(cells, pa.int64()),
            "rep_id": pa.array(reps, pa.int64()),
            "keep": pa.array(ids == reps),
        })

    def per_partition(t: pa.Table) -> pa.Table:
        n_rows = t.num_rows
        ids_all = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if n_rows == 0:
            return _out(ids_all, ids_all, ids_all)
        cells = t["cell"].to_numpy(zero_copy_only=False).astype(np.int64)
        col = t[embedding_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        m_all = col.flatten().to_numpy(zero_copy_only=False).astype(
            np.float64).reshape(n_rows, -1)
        # group rows by cell with one stable sort, no per-group pandas
        order0 = np.lexsort((ids_all, cells))
        ids_all, cells, m_all = ids_all[order0], cells[order0], m_all[order0]
        starts = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])
        bounds = np.r_[starts, n_rows]
        reps_all = np.empty(n_rows, np.int64)
        for s, e in zip(bounds[:-1], bounds[1:]):
            ids = ids_all[s:e]
            m = _normalize(m_all[s:e])
            n = e - s
            ei_parts, ej_parts = [], []
            for b in range(0, n, block_rows):
                sim = m[b:b + block_rows] @ m.T
                bi, bj = np.nonzero(np.round(sim, 6) >= threshold)
                bi = bi + b
                upper = bi < bj  # strict upper triangle, one edge per pair
                ei_parts.append(bi[upper])
                ej_parts.append(bj[upper])
            ei = np.concatenate(ei_parts) if ei_parts else np.empty(0, np.int64)
            ej = np.concatenate(ej_parts) if ej_parts else np.empty(0, np.int64)
            lab = min_label_components(n, ei, ej)
            reps_all[s:e] = ids[lab]
        return _out(ids_all, cells, reps_all)

    return partitioned_groupby(
        assigned, "cell", per_partition,
        batch_format="pyarrow",
    )
