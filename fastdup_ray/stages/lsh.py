"""LSH candidate-pair emission with explicit skew handling.

Replaces the reference's all-pairs kNN-graph build (closed-source HNSW,
reference __init__.py:292-297, RUN.md:43-55) with a hash-partitioned
shuffle over the band rows produced by `BandStage` (SURVEY.md G1, §7.3).

Implementation notes (scale):
- Bucket cardinality ~ num_bands x corpus size, nearly all singletons, so
  a per-bucket Python call would pay overhead per bucket. Instead we
  hash-partition by bucket (`partitioned_groupby`) and emit every
  partition's pairs in one vectorized call (`make_emit_partition`).
- Skew (SURVEY.md §4, §7.4): boilerplate/template pages collapse into
  mega-buckets; an uncapped bucket of m docs emits C(m,2) = O(m^2) pairs.
  Buckets larger than `max_bucket_pairs` emit a STAR to the bucket's
  minimum doc_id instead — m-1 edges that keep the bucket connected with
  diameter 2, so connected-components results are preserved while pair
  emission stays linear. The pair list under-reports intra-mega-bucket
  pairs by design; similarity() documents this cap.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from fastdup_ray.config import DedupConfig
from fastdup_ray.relational.ops import distinct, partitioned_groupby


def make_emit_partition(max_bucket_pairs: int):
    """Per-hash-partition pair emitter: rows (bucket, doc_id) -> (src, dst),
    src < dst canonical (D1 pair canonicalization, SURVEY.md §2.8).

    Fully vectorized — no per-bucket Python. Rows are lexsorted and
    deduped, segment (bucket) sizes derived by run-length, and each row
    of a clique-sized bucket pairs with its `m-1-l` successors via one
    global repeat/arange construction; star-capped hot buckets emit
    min-id -> others the same way."""

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"src": np.empty(0, np.int64), "dst": np.empty(0, np.int64)}
        )
        b = df["bucket"].to_numpy().astype(np.int64, copy=False)
        d = df["doc_id"].to_numpy().astype(np.int64, copy=False)
        if b.size == 0:
            return empty
        order = np.lexsort((d, b))
        b, d = b[order], d[order]
        keep = np.ones(b.size, dtype=bool)
        keep[1:] = (b[1:] != b[:-1]) | (d[1:] != d[:-1])
        b, d = b[keep], d[keep]
        starts = np.flatnonzero(np.concatenate([[True], b[1:] != b[:-1]]))
        counts = np.diff(np.append(starts, b.size))
        pos = np.arange(b.size, dtype=np.int64)
        seg_m = np.repeat(counts, counts)  # bucket size, per row
        loc = pos - np.repeat(starts, counts)  # local index, per row
        # per row: how many successors it pairs with — all of them in
        # clique buckets (m <= cap); in star buckets only the min-id row
        # (loc == 0) pairs with everything after it
        clique = np.repeat(counts <= max_bucket_pairs, counts)
        rep = np.where(clique, seg_m - 1 - loc, np.where(loc == 0, seg_m - 1, 0))
        total = int(rep.sum())
        if total == 0:
            return empty
        src = np.repeat(d, rep)
        csum = np.cumsum(rep) - rep
        off = np.arange(total, dtype=np.int64) - np.repeat(csum, rep)
        dst = d[np.repeat(pos + 1, rep) + off]
        # partial dedup before the global (src,dst) distinct: the same pair
        # fires in up to num_bands buckets, many land in one partition
        key_order = np.lexsort((dst, src))
        src, dst = src[key_order], dst[key_order]
        uniq = np.ones(src.size, dtype=bool)
        uniq[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        return pd.DataFrame({"src": src[uniq], "dst": dst[uniq]})

    return emit


def candidate_pairs(band_rows, config: DedupConfig | None = None):
    """band rows Dataset (bucket, doc_id) -> distinct candidate pairs (src, dst).

    Two hash exchanges (`partitioned_groupby`, each one split task per
    input block and one reduce task per partition): bucket (pair
    emission) and (src,dst) (cross-band dedup; the same near-dup pair
    fires in many bands — the D1 `drop_duplicates(['from','to'])`
    analog, reference galleries.py:356).
    """
    cfg = config or DedupConfig()
    pairs = partitioned_groupby(
        band_rows, "bucket", make_emit_partition(cfg.max_bucket_pairs),
    )
    return distinct(pairs, ["src", "dst"])


def cross_candidate_pairs(band_rows_query, band_rows_index,
                          config: DedupConfig | None = None):
    """Candidates BETWEEN two corpora only (no intra-corpus pairs): the
    G7 train/test-similarity mode (reference RUN.md:188-191,
    __init__.py:594-597). Inputs are BandStage outputs.

    A side filter over the one pair emitter: `candidate_pairs` over the
    union of both corpora's band rows (so the skew cap makes the same
    choices as a run over both corpora), keeping the pairs with exactly
    one query-corpus endpoint, oriented (src=query doc, dst=index doc).
    The query doc ids are one sorted-unique array every filter task reads
    from the object store."""
    import pyarrow as pa
    import ray

    from fastdup_ray.relational.ops import in_sorted, sorted_unique_ref

    cfg = config or DedupConfig()
    band_rows_query = band_rows_query.materialize()
    query_ref = sorted_unique_ref(band_rows_query, ["doc_id"])

    def straddling(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = batch["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        query = ray.get(query_ref)
        src_q, dst_q = in_sorted(query, src), in_sorted(query, dst)
        keep = src_q != dst_q
        return pa.table({
            "src": pa.array(np.where(src_q, src, dst)[keep], pa.int64()),
            "dst": pa.array(np.where(src_q, dst, src)[keep], pa.int64()),
        })

    return candidate_pairs(
        band_rows_query.union(band_rows_index), cfg
    ).map_batches(straddling, batch_format="pyarrow")
