"""Pair verification: candidate (src,dst) pairs -> (src, dst, distance).

The reference's engine computes true cosine distance for every candidate
pair and writes `similarity.csv` (from,to,distance, RUN.md:43-55). Here
`distance` is the exact Jaccard similarity of the two docs' char-k-gram
shingle sets (the precomputed sorted uint32 sets `SignStage` emits, see
stages/shingles.py), scored by the native `intersect_counts` kernel
(fastdup_ray/native), a merge of the two sorted sets of every pair —
exact because a 128-perm MinHash estimate has ~+-0.02 noise right at
the 0.96 component threshold. Every pair goes through the merge, equal
sets included.

Only pair endpoints are indexed. Their shingle sets are hash-sharded by
doc_id (the exchange's avalanche hash) into S = ceil(payload bytes /
_SHARD_BYTES) index shards, one build task per shard. Pairs are scored
by a map over pair batches: each batch groups its pairs by
(src_shard, dst_shard) cell and walks the cells in order, holding at
most two shards at a time. A scoring task's index memory is thus
bounded at any corpus size, with no join path. The pair side is
LSH-candidate-sized (<< corpus^2), so cost is linear in candidates +
corpus.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fastdup_ray import native
from fastdup_ray.config import DedupConfig
from fastdup_ray.relational.ops import (
    _as_arrow,
    _part_ids,
    _split_blocks,
    empty_typed,
    from_block_refs,
    in_sorted,
    materialized,
    nonempty_block_refs,
    nonempty_blocks,
    remote_fn,
    sorted_unique_ref,
)
from fastdup_ray.stages.shingles import list_column_arrays

# Set-value bytes per index shard. A scoring task holds at most two
# shards, so this bounds its index memory whatever the corpus size.
_SHARD_BYTES = 256 << 20


class _SetIndex:
    """(doc_id -> uint32-set) index shard: flat numpy arrays,
    zero-copy-readable from the object store. Values stay in ingest
    order; lookups go sorted-ids -> permutation -> original offsets
    (reordering 10^8 values costs more than one extra indirection)."""

    def __init__(self, ids_sorted: np.ndarray, perm: np.ndarray,
                 offsets: np.ndarray, values: np.ndarray):
        self.ids = ids_sorted
        self.perm = perm
        self.offsets = offsets
        self.values = values

    def lookup(self, doc_ids: np.ndarray):
        """(start, end) of each requested doc's set in `values`
        (end = start = 0 if absent)."""
        if self.ids.shape[0] == 0:
            z = np.zeros(doc_ids.shape[0], dtype=np.int64)
            return z, z
        pos = np.searchsorted(self.ids, doc_ids)
        pos = np.clip(pos, 0, self.ids.shape[0] - 1)
        found = self.ids[pos] == doc_ids
        row = self.perm[pos]
        start = np.where(found, self.offsets[row], 0)
        end = np.where(found, self.offsets[row + 1], 0)
        return start, end


def _shard_of(doc_ids: np.ndarray, num_shards: int) -> np.ndarray:
    """Index shard of each doc: the exchange's hash partition of doc_id,
    so `_split_blocks(..., ["doc_id"], S)` puts each set in its shard."""
    return _part_ids(pa.table({"doc_id": doc_ids}), ["doc_id"], num_shards)


def _build_shard(*tables: pa.Table) -> _SetIndex:
    """One index shard over the (doc_id, shingles) tables given (an empty
    shard when none are)."""
    ids = [np.empty(0, np.int64)]
    lens = [np.empty(0, np.int64)]
    vals = [np.empty(0, np.uint32)]
    for t in tables:
        if not t.num_rows:
            continue
        offs, values = list_column_arrays(t["shingles"])
        ids.append(t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64))
        lens.append(np.diff(offs))
        # a sliced list column's offsets start past its values' first element
        vals.append(values[offs[0] : offs[-1]])
    ids = np.concatenate(ids)
    order = np.argsort(ids, kind="stable")
    off = np.zeros(ids.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.concatenate(lens), out=off[1:])
    return _SetIndex(ids[order], order, off, np.concatenate(vals))


def _build_index(sets: list, payload_bytes: int) -> list:
    """Refs of the S doc_id-sharded index shards over the (doc_id,
    shingles) block refs `sets`, S = ceil(payload_bytes / _SHARD_BYTES)
    >= 1, where payload_bytes is their exact set-value byte sum.

    Every shard is built by its own task and nothing touches the driver.
    At S = 1 one task reads every block; above, the exchange's split
    tasks route each row to its shard first."""
    num_shards = max(1, -(-payload_bytes // _SHARD_BYTES))
    parts = [sets] if num_shards == 1 else [
        side for side, in _split_blocks([(sets, ["doc_id"])], num_shards)
    ]
    build = remote_fn(_build_shard)
    return [build.remote(*p) for p in parts]


def _exact_scores_block(vals_a, sa, ea, vals_b, sb, eb, out, out_rows) -> None:
    """out[out_rows] = exact Jaccard of the aligned sorted-unique uint32
    ranges vals_a[sa:ea] and vals_b[sb:eb] (0 when both are empty)."""
    inter = native.intersect_counts(vals_a, sa, ea, vals_b, sb, eb)
    union = (ea - sa) + (eb - sb) - inter
    res = np.zeros(inter.shape[0], dtype=np.float64)
    np.divide(inter, union, out=res, where=union > 0)
    out[out_rows] = res


def _fetch(ref) -> _SetIndex:
    """One index shard from the object store (a zero-copy read on one
    node)."""
    import ray

    return ray.get(ref)


def _score_cell(idx_s: _SetIndex, idx_d: _SetIndex, src, dst, rows, dist) -> None:
    """dist[rows] = exact Jaccard of (src, dst)[rows], every src in idx_s
    and every dst in idx_d (or in neither)."""
    sa, ea = idx_s.lookup(src[rows])
    sb, eb = idx_d.lookup(dst[rows])
    _exact_scores_block(idx_s.values, sa, ea, idx_d.values, sb, eb, dist, rows)


def _score_batch(batch: pa.Table, shard_refs: list) -> pa.Table:
    """(src, dst, distance) of one pair batch against the index shards.

    The batch is grouped by (src_shard, dst_shard) cell and the cells
    are walked in order, fetching a shard only when a cell needs it and
    dropping every shard the current cell does not: at most two shards
    are held at a time. Shard fetches are zero-copy plasma reads."""
    src = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    dst = batch["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(shard_refs)
    dist = np.zeros(src.shape[0], dtype=np.float64)
    cell = _shard_of(src, n) * n + _shard_of(dst, n)
    order = np.argsort(cell, kind="stable")
    cells, starts = np.unique(cell[order], return_index=True)
    ends = np.append(starts[1:], order.shape[0])
    held: dict[int, _SetIndex] = {}
    for c, lo, hi in zip(cells.tolist(), starts.tolist(), ends.tolist()):
        a, b = divmod(c, n)
        for s in [s for s in held if s not in (a, b)]:
            del held[s]
        for s in (a, b):
            if s not in held:
                held[s] = _fetch(shard_refs[s])
        _score_cell(held[a], held[b], src, dst, order[lo:hi], dist)
    return pa.table({
        "src": batch["src"].cast(pa.int64()),
        "dst": batch["dst"].cast(pa.int64()),
        "distance": pa.array(dist, pa.float64()),
    })


def verify_pairs(pairs, signatures, docs, config: DedupConfig | None = None,
                 shingle_sets=None):
    """Attach `distance` (exact shingle-set Jaccard) to each candidate pair.

    pairs: Dataset (src, dst); signatures: the `SignStage` output, whose
    (doc_id, shingles) columns are the sets scored unless `shingle_sets`
    (doc_id, shingles) is supplied. `docs` and `config` are not read;
    they stay in the signature for existing callers.

    Every step before the scoring map runs as plain tasks on the block
    refs, so materialized inputs start one Ray Data execution: the
    returned lazy scoring map.
    """
    import ray

    pairs = materialized(pairs)
    blocks = nonempty_blocks(pairs)
    if not blocks:
        return empty_typed(
            {"src": pa.int64(), "dst": pa.int64(), "distance": pa.float64()}
        )
    # without its zero-row blocks, which may carry no columns: the
    # scoring map would pass them through unscored
    pairs = from_block_refs(blocks)

    # Only pair ENDPOINTS are ever looked up, and endpoints scale with the
    # candidate budget, not the corpus (~15% of docs here; a tiny fraction
    # at 10^12 docs). Their sorted-unique set is reduced entirely in tasks
    # and never reaches the driver.
    ends_ref = sorted_unique_ref(pairs, ["src", "dst"])
    sets = signatures if shingle_sets is None else shingle_sets
    # one endpoint-filter task per set block; the driver reads only each
    # block's (rows, payload bytes), which size the index
    select = remote_fn(_endpoint_sets).options(num_returns=2)
    outs = [select.remote(r, ends_ref) for r in nonempty_block_refs(materialized(sets))]
    sizes = ray.get([o[0] for o in outs])
    kept = [o[1] for o, (rows, _) in zip(outs, sizes) if rows]
    shard_refs = _build_index(kept, sum(nbytes for _, nbytes in sizes))
    # the refs travel inside the partial, not as task arguments: Ray
    # resolves top-level ref arguments before a task starts, which would
    # fetch every shard into every scoring task
    score = functools.partial(_score_batch, shard_refs=shard_refs)
    # 65,536-row batches coalesce the many small pair blocks of an
    # increment into few scoring calls
    return pairs.map_batches(score, batch_format="pyarrow", batch_size=65536)


def _endpoint_sets(block, ends: np.ndarray):
    """((rows, set bytes), (doc_id, shingles) table) of the rows of one
    set block whose doc_id is in the sorted-unique `ends`; set bytes are
    4 x the uint32 values their lists hold."""
    t = _as_arrow(block)
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    t = t.select(["doc_id", "shingles"]).filter(pa.array(in_sorted(ends, ids)))
    values = pc.sum(pc.list_value_length(t["shingles"])).as_py()
    return (t.num_rows, 4 * (values or 0)), t
