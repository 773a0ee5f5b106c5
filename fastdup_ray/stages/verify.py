"""Pair verification: candidate (src,dst) pairs -> (src, dst, distance).

The reference's engine computes true cosine distance for every candidate
pair and writes `similarity.csv` (from,to,distance, RUN.md:43-55). Here
`distance` is the exact Jaccard similarity of the two docs' char-k-gram
shingle sets (the precomputed sorted uint32 sets `SignStage` emits, see
stages/shingles.py), scored by a vectorized sorted-array intersection —
exact because a 128-perm MinHash estimate has ~+-0.02 noise right at
the 0.96 component threshold.

Only pair endpoints are indexed. Their packed sets are hash-sharded by
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

from fastdup_ray.config import DedupConfig
from fastdup_ray.functions.hashing import mix64
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

# Packed-set bytes per index shard. A scoring task holds at most two
# shards, so this bounds its index memory whatever the corpus size.
_SHARD_BYTES = 256 << 20


class _SetIndex:
    """(doc_id -> uint32-set) index shard: flat numpy arrays,
    zero-copy-readable from the object store. Values stay in ingest
    order; lookups go sorted-ids -> permutation -> original offsets
    (reordering 10^8 values costs more than one extra indirection)."""

    def __init__(self, ids_sorted: np.ndarray, perm: np.ndarray,
                 offsets: np.ndarray, values: np.ndarray, hashes: np.ndarray):
        self.ids = ids_sorted
        self.perm = perm
        self.offsets = offsets
        self.values = values
        # per-doc uint64 fingerprint of the set (ingest order, like
        # offsets; see _set_fingerprints): equal sets have equal
        # fingerprints, so equal-set pairs can short-circuit to J=1.0
        self.hashes = hashes

    def lookup(self, doc_ids: np.ndarray):
        """(start, end, set_hash) per requested doc (end=start, hash=0 if
        absent)."""
        if self.ids.shape[0] == 0:
            z = np.zeros(doc_ids.shape[0], dtype=np.int64)
            return z, z, z.astype(np.uint64)
        pos = np.searchsorted(self.ids, doc_ids)
        pos = np.clip(pos, 0, self.ids.shape[0] - 1)
        found = self.ids[pos] == doc_ids
        row = self.perm[pos]
        start = np.where(found, self.offsets[row], 0)
        end = np.where(found, self.offsets[row + 1], 0)
        h = np.where(found, self.hashes[row], np.uint64(0))
        return start, end, h


def _binary_column_flat(col) -> tuple[np.ndarray, np.ndarray]:
    """(values uint32, element offsets int64) of a binary column, straight
    from the Arrow buffers — no per-row Python, no bytes copies."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty(0, np.uint32), np.zeros(1, np.int64)
    off_dtype = np.int32 if pa.types.is_binary(col.type) else np.int64
    bufs = col.buffers()
    byte_offs = np.frombuffer(bufs[1], off_dtype)[col.offset : col.offset + n + 1]
    start = int(byte_offs[0])
    data = np.frombuffer(bufs[2], np.uint8) if bufs[2] is not None else np.empty(0, np.uint8)
    values = data[start : int(byte_offs[-1])].view(np.uint32)
    return values, ((byte_offs.astype(np.int64) - start) // 4)


def _set_fingerprints(values: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Per-doc uint64 sum of mix64(value) over each range
    values[offs[i]:offs[i+1]] (0 for an empty range). Equal sets give
    equal fingerprints; distinct sets that collide are caught by
    _confirm_equal_ranges, which compares every candidate byte for byte."""
    lens = np.diff(offs)
    fp = np.zeros(lens.shape[0], dtype=np.uint64)
    nonempty = lens > 0
    if nonempty.any():
        fp[nonempty] = np.add.reduceat(mix64(values), offs[:-1][nonempty])
    return fp


def _shard_of(doc_ids: np.ndarray, num_shards: int) -> np.ndarray:
    """Index shard of each doc: the exchange's hash partition of doc_id,
    so `_split_blocks(..., ["doc_id"], S)` puts each set in its shard."""
    return _part_ids(pa.table({"doc_id": doc_ids}), ["doc_id"], num_shards)


def _build_shard(*tables: pa.Table) -> _SetIndex:
    """One index shard over the packed (doc_id, sh_bin) tables given (an
    empty shard when none are)."""
    ids = [np.empty(0, np.int64)]
    lens = [np.empty(0, np.int64)]
    vals = [np.empty(0, np.uint32)]
    fps = [np.empty(0, np.uint64)]
    for t in tables:
        values, offs = _binary_column_flat(t["sh_bin"])
        ids.append(t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64))
        lens.append(np.diff(offs))
        vals.append(values)
        fps.append(_set_fingerprints(values, offs))
    ids = np.concatenate(ids)
    order = np.argsort(ids, kind="stable")
    off = np.zeros(ids.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.concatenate(lens), out=off[1:])
    return _SetIndex(ids[order], order, off, np.concatenate(vals),
                     np.concatenate(fps))


def _build_index(packed: list, payload_bytes: int) -> list:
    """Refs of the S doc_id-sharded index shards over the packed
    (doc_id, sh_bin) block refs `packed`, S = ceil(payload_bytes /
    _SHARD_BYTES) >= 1, where payload_bytes is their exact `sh_bin` byte
    sum.

    Every shard is built by its own task and nothing touches the driver.
    At S = 1 one task reads every block; above, the exchange's split
    tasks route each row to its shard first."""
    num_shards = max(1, -(-payload_bytes // _SHARD_BYTES))
    parts = [packed] if num_shards == 1 else [
        side for side, in _split_blocks([(packed, ["doc_id"])], num_shards)
    ]
    build = remote_fn(_build_shard)
    return [build.remote(*p) for p in parts]


def _gather_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated index array [starts[0]..starts[0]+lens[0], starts[1]..] —
    the vectorized 'slice and concat' gather."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    cum = np.cumsum(lens)
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(cum - lens, lens)
        + np.repeat(starts, lens)
    )


# Per-subchunk gather budget. Deliberately small (~2 MB of uint64 keys):
# the scratch arrays are then served from the malloc arena and REUSED
# across subchunks instead of being mmap'd fresh and munmap'd on free —
# repeated multi-MB fresh allocations pay the OS page-fault (first-touch)
# cost on every batch, which dominates the kernel when many tasks
# allocate concurrently. Same total work; better cache locality too.
_EXACT_CHUNK_ELEMS = 256_000


def _confirm_equal_ranges(vals_a, sa, vals_b, sb, lens) -> np.ndarray:
    """Vectorized memcmp of aligned equal-length ranges:
    out[i] = (vals_a[sa[i]:sa[i]+lens[i]] == vals_b[sb[i]:sb[i]+lens[i]]).

    Used to CONFIRM the equal-fingerprint short-circuit with real bytes —
    the additive set fingerprint is not adversarially collision-resistant, so
    crafted distinct documents in an untrusted web corpus could otherwise
    be scored as exact duplicates (ADVICE r2). Cost is O(matched bytes)
    only for near-certain duplicates; chunked like _exact_scores_block so
    scratch stays arena-resident.
    """
    n = lens.shape[0]
    out = np.zeros(n, dtype=bool)
    lo = 0
    while lo < n:
        hi = lo + 1
        budget = int(lens[lo])
        while hi < n and budget + lens[hi] <= _EXACT_CHUNK_ELEMS:
            budget += int(lens[hi])
            hi += 1
        ln = lens[lo:hi]
        ia = _gather_ranges(sa[lo:hi], ln)
        ib = _gather_ranges(sb[lo:hi], ln)
        neq = vals_a[ia] != vals_b[ib]
        m = hi - lo
        if neq.any():
            seg = np.repeat(np.arange(m, dtype=np.int64), ln)
            out[lo:hi] = np.bincount(seg[neq], minlength=m) == 0
        else:
            out[lo:hi] = True
        lo = hi
    return out


def _exact_scores_block(vals_a, sa, ea, vals_b, sb, eb, out, out_rows) -> None:
    """Vectorized exact Jaccard for aligned (sa,ea)x(sb,eb) range pairs.

    Both sides are sorted-unique uint32 sets. Key trick: prefix each
    element with its pair index ((i << 32) | value) — each side's keyed
    concatenation is then GLOBALLY sorted, so one stable sort of the two
    runs (a linear timsort merge) puts every shared element next to its
    twin, and one segment add.reduceat of the adjacent-equal mask counts
    every pairwise intersection with zero per-pair Python. Sub-chunked to
    bound gather memory.
    """
    lens_a = ea - sa
    lens_b = eb - sb
    n = lens_a.shape[0]
    lo = 0
    tot = lens_a + lens_b
    while lo < n:
        hi = lo + 1
        budget = int(tot[lo])
        while hi < n and budget + tot[hi] <= _EXACT_CHUNK_ELEMS:
            budget += int(tot[hi])
            hi += 1
        la = lens_a[lo:hi]
        lb = lens_b[lo:hi]
        m = hi - lo
        seg = np.arange(m, dtype=np.uint64) << np.uint64(32)
        na = int(la.sum())
        keyed = np.empty(budget, dtype=np.uint64)
        keyed[:na] = vals_a[_gather_ranges(sa[lo:hi], la)]
        keyed[:na] |= np.repeat(seg, la)
        keyed[na:] = vals_b[_gather_ranges(sb[lo:hi], lb)]
        keyed[na:] |= np.repeat(seg, lb)
        keyed.sort(kind="stable")
        # sets are unique per side, so an adjacent equal key is one shared
        # element; keys of different pairs never compare equal
        eq = np.zeros(budget, dtype=np.uint8)
        np.equal(keyed[1:], keyed[:-1], out=eq[:-1].view(bool))
        t = tot[lo:hi]
        nonempty = t > 0
        inter = np.zeros(m, dtype=np.int64)
        if nonempty.any():
            starts = np.cumsum(t) - t
            inter[nonempty] = np.add.reduceat(eq, starts[nonempty], dtype=np.int32)
        union = la + lb - inter
        res = np.zeros(m, dtype=np.float64)
        np.divide(inter, union, out=res, where=union > 0)
        out[out_rows[lo:hi]] = res
        lo = hi


def _fetch(ref) -> _SetIndex:
    """One index shard from the object store (a zero-copy read on one
    node)."""
    import ray

    return ray.get(ref)


def _score_cell(idx_s: _SetIndex, idx_d: _SetIndex, src, dst, rows, dist) -> None:
    """dist[rows] = exact Jaccard of (src, dst)[rows], every src in idx_s
    and every dst in idx_d (or in neither)."""
    sa, ea, ha = idx_s.lookup(src[rows])
    sb, eb, hb = idx_d.lookup(dst[rows])
    # equal set fingerprint + equal nonzero length selects CANDIDATE
    # exact-dup endpoints; a real byte comparison confirms before
    # assigning J=1.0 (the fingerprint is not adversarially
    # collision-resistant — crafted collisions in an untrusted corpus
    # must not merge components). Unconfirmed rows fall through to the
    # full intersection.
    same = (ha == hb) & (ea - sa == eb - sb) & (ea > sa)
    if same.any():
        cand = np.flatnonzero(same)
        conf = _confirm_equal_ranges(
            idx_s.values, sa[cand], idx_d.values, sb[cand], ea[cand] - sa[cand]
        )
        same[cand[~conf]] = False
        dist[rows[same]] = 1.0
        rest = ~same
        rows, sa, ea, sb, eb = rows[rest], sa[rest], ea[rest], sb[rest], eb[rest]
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
    # one endpoint-filter + pack task per set block; the driver reads
    # only each block's (rows, payload bytes), which size the index
    pack = remote_fn(_pack_endpoint_sets).options(num_returns=2)
    outs = [pack.remote(r, ends_ref) for r in nonempty_block_refs(materialized(sets))]
    sizes = ray.get([o[0] for o in outs])
    packed = [o[1] for o, (rows, _) in zip(outs, sizes) if rows]
    shard_refs = _build_index(packed, sum(nbytes for _, nbytes in sizes))
    # the refs travel inside the partial, not as task arguments: Ray
    # resolves top-level ref arguments before a task starts, which would
    # fetch every shard into every scoring task
    score = functools.partial(_score_batch, shard_refs=shard_refs)
    # 65,536-row batches coalesce the many small pair blocks of an
    # increment into few scoring calls
    return pairs.map_batches(score, batch_format="pyarrow", batch_size=65536)


def _pack_endpoint_sets(block, ends: np.ndarray):
    """((rows, sh_bin bytes), packed (doc_id, sh_bin) table) of the rows of
    one set block whose doc_id is in the sorted-unique `ends`."""
    t = _as_arrow(block)
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    t = t.select(["doc_id", "shingles"]).filter(pa.array(in_sorted(ends, ids)))
    packed = _pack_shingles(t)
    nbytes = pc.sum(pc.binary_length(packed["sh_bin"])).as_py()
    return (packed.num_rows, nbytes or 0), packed


def _pack_shingles(batch: pa.Table) -> pa.Table:
    """list<uint32> -> binary, built from the Arrow buffers directly
    (offsets x4 + one data copy; no per-row Python)."""
    off, val = list_column_arrays(batch["shingles"])
    n = batch.num_rows
    start = int(off[0])
    b_off = ((off - start) * 4).astype(np.int32)
    data = val[start : int(off[-1])].tobytes()
    bin_arr = pa.Array.from_buffers(
        pa.binary(), n, [None, pa.py_buffer(b_off.tobytes()), pa.py_buffer(data)]
    )
    return pa.table({"doc_id": batch["doc_id"], "sh_bin": bin_arr})

