"""Pair verification: candidate (src,dst) pairs -> (src, dst, distance).

The reference's engine computes true cosine distance for every candidate
pair and writes `similarity.csv` (from,to,distance, RUN.md:43-55). Here
`distance` is the exact Jaccard similarity of the two docs' char-k-gram
shingle sets (the precomputed sorted uint32 sets `SignStage` emits, see
stages/shingles.py), scored by a vectorized sorted-array intersection —
exact because a 128-perm MinHash estimate has ~+-0.02 noise right at
the 0.96 component threshold.

Only pair endpoints are indexed. Below `verify_broadcast_max_bytes` the
endpoint sets are broadcast as doc_id-sharded indexes and pairs are
scored with pure lookups; above it, two joins hash-partitioned on doc_id
ship the sets to the pairs. The pair side is LSH-candidate-sized
(<< corpus^2), so cost is linear in candidates + corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from fastdup_ray.config import DedupConfig
from fastdup_ray.functions.hashing import mix64
from fastdup_ray.relational.ops import (
    cogroup_join,
    in_sorted,
    nonempty_block_refs,
    remote_fn,
    sorted_unique_ref,
    with_schema,
)
from fastdup_ray.stages.shingles import list_column_arrays


def _exact_jaccard_batch():
    def fn(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        val_a, off_a = _binary_column_flat(batch["sh_bin"])
        val_b, off_b = _binary_column_flat(batch["sh_bin_r"])
        n = batch.num_rows
        dist = np.zeros(n, dtype=np.float64)
        la, lb = np.diff(off_a), np.diff(off_b)
        # byte-identical packed sets (exact-dup endpoints — common in web
        # corpora) short-circuit to J=1.0 without an intersection
        same = pc.equal(batch["sh_bin"], batch["sh_bin_r"]).to_numpy(
            zero_copy_only=False
        ) & (la > 0)
        dist[same] = 1.0
        rest = np.flatnonzero(~same & ((la > 0) | (lb > 0)))
        if rest.size:
            _exact_scores_block(
                val_a, off_a[:-1][rest], off_a[1:][rest],
                val_b, off_b[:-1][rest], off_b[1:][rest], dist, rest,
            )
        return pa.table(
            {
                "src": batch["src"],
                "dst": batch["dst"],
                "distance": pa.array(dist, pa.float64()),
            }
        )

    return fn


class _SetIndex:
    """Broadcastable (doc_id -> uint32-set) index: flat numpy arrays,
    zero-copy-readable from the object store. Values stay in ingest
    order; lookups go sorted-ids -> permutation -> original offsets
    (reordering 10^8 values costs more than one extra indirection)."""

    def __init__(self, ids_sorted: np.ndarray, perm: np.ndarray,
                 offsets: np.ndarray, values: np.ndarray,
                 hashes: np.ndarray | None = None):
        self.ids = ids_sorted
        self.perm = perm
        self.offsets = offsets
        self.values = values
        # per-doc uint64 fingerprint of the set (ingest order, like
        # offsets; see _set_fingerprints): equal sets have equal
        # fingerprints, so equal-set pairs can short-circuit to J=1.0
        self.hashes = (
            hashes if hashes is not None
            else np.zeros(max(0, offsets.shape[0] - 1), np.uint64)
        )

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


def _build_index_shards(packed, bin_col: str, num_shards: int):
    """Build doc_id-sharded _SetIndex objects plus a routing table.

    Shards are DISJOINT BLOCK GROUPS (blocks[s::num_shards]): each build
    task reads only its own ~1/num_shards of the packed data — the keys
    to single-node scaling are that no task fans over the full table
    (first-touch page faults of the shared plasma mapping were measured
    at 4-8 s per 16-way-concurrent wave when every task scanned every
    block) and that nothing touches the driver (the round-1
    driver-serial `iter_batches` collection anti-scaled 0.6x at 32 cpus).
    Because block groups don't key by doc_id, a small ROUTER object
    (globally sorted ids + their shard) built by one follow-up task maps
    each doc to its shard at lookup time. On a multi-node cluster the
    natural variant is hash-sharding with pairs pre-partitioned by shard
    so each node pins only its shards; the router (9 B/doc) stays
    single-node-sized here.

    Returns (shard_refs: list[ObjectRef[_SetIndex]],
             router_ref: ObjectRef[(ids_sorted, shard_of)]).
    """
    import ray

    blocks = packed.materialize().to_arrow_refs()

    empty = _SetIndex(np.empty(0, np.int64), np.empty(0, np.int64),
                      np.zeros(1, np.int64), np.empty(0, np.uint32),
                      np.empty(0, np.uint64))
    empty_router = (np.empty(0, np.int64), np.empty(0, np.int32))
    if not blocks:
        return [ray.put(empty) for _ in range(num_shards)], ray.put(empty_router)
    num_shards = min(num_shards, len(blocks))

    @ray.remote
    def build_shard(*tables):
        id_parts, len_parts, val_parts, hash_parts = [], [], [], []
        for t in tables:
            if t.num_rows == 0:
                continue
            id_parts.append(
                t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            )
            values, offs = _binary_column_flat(t[bin_col])
            len_parts.append(np.diff(offs))
            val_parts.append(np.asarray(values))
            hash_parts.append(_set_fingerprints(values, offs))
        if not id_parts:
            return empty
        ids = np.concatenate(id_parts)
        lens = np.concatenate(len_parts)
        values = np.concatenate(val_parts)
        hashes = np.concatenate(hash_parts)
        order = np.argsort(ids, kind="stable")
        off = np.zeros(ids.shape[0] + 1, dtype=np.int64)
        np.cumsum(lens, out=off[1:])
        return _SetIndex(ids[order], order.astype(np.int64), off, values, hashes)

    @ray.remote
    def build_router(*shards):
        ids = np.concatenate([s.ids for s in shards])
        shard_of = np.concatenate(
            [np.full(s.ids.shape[0], i, np.int32) for i, s in enumerate(shards)]
        )
        order = np.argsort(ids, kind="stable")
        return ids[order], shard_of[order]

    shard_refs = [
        build_shard.remote(*blocks[s::num_shards]) for s in range(num_shards)
    ]
    return shard_refs, build_router.remote(*shard_refs)


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


def _broadcast_verify(pairs, shard_refs, router_ref):
    """Score pairs against doc_id-sharded _SetIndex objects.

    Each map task routes its docs to shards via the router (one
    searchsorted), groups the batch by (src_shard, dst_shard) and runs a
    fully vectorized kernel per group — no per-pair Python. Shard fetches
    are zero-copy plasma reads; a batch only touches the shards its docs
    live in.
    """
    import ray

    num_shards = len(shard_refs)

    def fn(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = batch["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = src.shape[0]
        dist = np.zeros(n, dtype=np.float64)
        r_ids, r_shard = ray.get(router_ref)

        def route(docs: np.ndarray) -> np.ndarray:
            if r_ids.shape[0] == 0:
                return np.zeros(docs.shape[0], np.int64)
            pos = np.clip(np.searchsorted(r_ids, docs), 0, r_ids.shape[0] - 1)
            # unindexed docs route to shard 0, whose lookup reports absent
            return np.where(r_ids[pos] == docs, r_shard[pos], 0).astype(np.int64)

        s_sh = route(src)
        d_sh = route(dst)
        group_key = s_sh * num_shards + d_sh
        order = np.argsort(group_key, kind="stable")
        sorted_keys = group_key[order]
        bounds = np.searchsorted(
            sorted_keys, np.arange(num_shards * num_shards + 1)
        )
        cache: dict[int, _SetIndex] = {}

        def shard(s: int) -> _SetIndex:
            if s not in cache:
                cache[s] = ray.get(shard_refs[s])
            return cache[s]

        for g in range(num_shards * num_shards):
            lo, hi = bounds[g], bounds[g + 1]
            if lo == hi:
                continue
            rows = order[lo:hi]
            idx_s = shard(g // num_shards)
            idx_d = shard(g % num_shards)
            sa, ea, ha = idx_s.lookup(src[rows])
            sb, eb, hb = idx_d.lookup(dst[rows])
            # equal set fingerprint + equal nonzero length selects
            # CANDIDATE exact-dup endpoints; a real byte comparison
            # confirms before assigning J=1.0 (the fingerprint is not
            # adversarially collision-resistant — crafted collisions
            # in an untrusted corpus must not merge components).
            # Unconfirmed rows fall through to the full intersection.
            same = (ha == hb) & (ea - sa == eb - sb) & (ea > sa)
            if same.any():
                cand = np.flatnonzero(same)
                conf = _confirm_equal_ranges(
                    idx_s.values, sa[cand], idx_d.values, sb[cand],
                    ea[cand] - sa[cand],
                )
                same[cand[~conf]] = False
            if same.any():
                dist[rows[same]] = 1.0
                rest = ~same
                rows, sa, ea, sb, eb = (
                    rows[rest], sa[rest], ea[rest], sb[rest], eb[rest]
                )
                if rows.size == 0:
                    continue
            _exact_scores_block(
                idx_s.values, sa, ea, idx_d.values, sb, eb, dist, rows
            )
        return pa.table(
            {
                "src": batch["src"],
                "dst": batch["dst"],
                "distance": pa.array(dist, pa.float64()),
            }
        )

    return pairs.map_batches(fn, batch_format="pyarrow", batch_size=65536)


def verify_pairs(pairs, signatures, docs, config: DedupConfig | None = None,
                 shingle_sets=None):
    """Attach `distance` (exact shingle-set Jaccard) to each candidate pair.

    pairs: Dataset (src, dst); signatures: the `SignStage` output, whose
    (doc_id, shingles) columns are the sets scored unless `shingle_sets`
    (doc_id, shingles) is supplied. `docs` is no longer read; it stays
    in the signature for existing callers.
    """
    import os
    import sys
    import time

    import ray

    cfg = config or DedupConfig()
    np_parts = cfg.num_partitions

    # FASTDUP_VERIFY_PHASES=1: print driver-side phase walls to stderr —
    # the fixed-cost attribution tool behind BASELINE.md's scaling
    # decomposition (each phase below is a serial barrier on the driver)
    _t0 = time.monotonic()
    _phase_log = os.environ.get("FASTDUP_VERIFY_PHASES") == "1"

    def _phase(name: str):
        nonlocal _t0
        if _phase_log:
            now = time.monotonic()
            print(f"[verify-phase] {name}: {now - _t0:.3f}s",
                  file=sys.stderr)
            _t0 = now

    pairs = pairs.materialize()
    if pairs.count() == 0:
        from fastdup_ray.relational.ops import empty_typed

        return empty_typed(
            {"src": pa.int64(), "dst": pa.int64(), "distance": pa.float64()}
        )
    pairs = with_schema(pairs, {"src": pa.int64(), "dst": pa.int64()})
    _phase("pairs_materialize")

    # Only pair ENDPOINTS are ever looked up, and endpoints scale with the
    # candidate budget, not the corpus (~15% of docs here; a tiny fraction
    # at 10^12 docs). Their sorted-unique set is reduced entirely in tasks
    # and never reaches the driver.
    ends_ref = sorted_unique_ref(pairs, ["src", "dst"])

    def _endpoint_filter(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.filter(pa.array(in_sorted(ray.get(ends_ref), ids)))

    if shingle_sets is None:
        shingle_sets = signatures.select_columns(["doc_id", "shingles"])
    # ONE fused pass: endpoint-filter + pack, materialized once — the
    # payload sizing, the broadcast index build AND the join fallback all
    # consume this endpoint-only packed table
    packed = shingle_sets.map_batches(
        _endpoint_filter, batch_format="pyarrow"
    ).map_batches(_pack_shingles, batch_format="pyarrow").materialize()
    _phase("pack_filter_materialize")
    # ---- broadcast path: payload table fits in the object store ----
    if _payload_bytes(packed, "sh_bin") <= cfg.verify_broadcast_max_bytes:
        refs, router = _build_index_shards(
            packed, "sh_bin", cfg.verify_index_shards
        )
        _phase("shard_build_launch")
        return _broadcast_verify(pairs, refs, router)

    # join fallback: `packed` is both join sides. acero rejects
    # list-typed join payloads ("Data type list<uint32> is not supported
    # in join non-key field"), hence the BINARY blobs np.frombuffer'd
    # back in the kernel. cogroup_join, not Dataset.join: acero joins
    # anti-scale at high parallelism on ray 2.49 (more CPUs -> slower;
    # the partitioned merge shuffle holds its scaling) — this fallback IS
    # the beyond-broadcast-budget scale path, so it must scale
    joined = cogroup_join(
        pairs, packed, on="src", right_on="doc_id", num_parts=np_parts
    ).materialize()
    joined = with_schema(
        joined,
        {"src": pa.int64(), "dst": pa.int64(), "sh_bin": pa.binary()},
    ).materialize()
    joined = cogroup_join(
        joined, packed.rename_columns({"sh_bin": "sh_bin_r"}),
        on="dst", right_on="doc_id", num_parts=np_parts,
    )
    return joined.map_batches(_exact_jaccard_batch(), batch_format="pyarrow")


def _binary_bytes(t: pa.Table, col: str) -> int:
    import pyarrow.compute as pc

    return int(pc.sum(pc.binary_length(t[col])).as_py() or 0)


def _payload_bytes(packed, bin_col: str) -> int:
    """Exact byte sum of the binary column `bin_col` over a materialized
    Dataset: one tiny task per block sums its value lengths (no Ray Data
    execution, no sample)."""
    import ray

    block_bytes = remote_fn(_binary_bytes)
    return sum(ray.get([
        block_bytes.remote(ref, bin_col) for ref in nonempty_block_refs(packed)
    ]))


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

