"""Connected components over the similarity graph.

Reproduces the reference's connected-components stage (Turi-style CC at
`ccthreshold`, reference RUN.md:77-113, fastdup_controller.py:435-453).
Component ids are the component's minimum doc_id — deterministic and
parallelism-invariant, unlike the reference's arbitrary ints (RUN.md:92).

Two routes, picked by edge count:

- at most `_DRIVER_MAX_EDGES` edges (the post-threshold edge set is a
  tiny fraction of the corpus): a driver-side numpy min-label pass
  (`min_label_components`) over the edge list (16 B/edge);
- above it: alternating large-star / small-star contraction (Kiveris et
  al. 2014) expressed with hash-partitioned vectorized Ray Data
  aggregations — O(log n) rounds at ANY graph diameter, so boilerplate
  mega-components chained through overlapping LSH buckets cost no more
  rounds than cliques, and no graph state ever lands on the driver
  (SURVEY.md G4; see relational.ops.partitioned_groupby for why built-in
  per-key aggregates are avoided at node cardinality).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from fastdup_ray.relational.ops import (
    block_meta,
    from_block_refs,
    materialized,
    partitioned_groupby,
)

# Below this many edges the whole edge list fits on the driver (16 B/edge)
# and a numpy min-label pass beats shuffle rounds; above it (the
# 10^12-doc regime) star contraction runs. `pagerank` picks its driver
# path by the same bound.
_DRIVER_MAX_EDGES = 5_000_000


def connected_components(edges):
    """edges: Dataset (src, dst[, ...]) -> materialized Dataset (node, label).

    Only nodes incident to at least one edge appear; callers treat
    absent docs as singletons (their own component), matching the
    reference where singleton components are dropped downstream via the
    count filter (fastdup_controller.py:440).
    """
    import ray

    edges = materialized(edges)
    if edges.count() > _DRIVER_MAX_EDGES:
        return connected_components_star(edges)
    src_parts, dst_parts = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for b in edges.iter_batches(batch_size=1_000_000, batch_format="pyarrow"):
        src = b[b.column_names[0]].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = b[b.column_names[1]].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = src != dst  # self-loops never name a component
        src_parts.append(src[keep])
        dst_parts.append(dst[keep])
    src, dst = np.concatenate(src_parts), np.concatenate(dst_parts)
    n = src.shape[0]
    nodes, idx = np.unique(np.concatenate([src, dst]), return_inverse=True)
    labels = nodes[min_label_components(nodes.shape[0], idx[:n], idx[n:])]
    out = pa.table({"node": pa.array(nodes, pa.int64()),
                    "label": pa.array(labels, pa.int64())})
    return from_block_refs([(ray.put(out), block_meta(out))])


def min_label_components(n: int, ei: np.ndarray, ej: np.ndarray) -> np.ndarray:
    """Connected components over nodes 0..n-1 and edges (ei, ej): the
    minimum node index of each node's component.

    Vectorized hook-and-jump: each round hooks the larger root of every
    edge whose endpoints have different roots under the smaller one
    (`np.minimum.at`), then pointer-jumps every node to its root. Each
    round at least halves the roots that still have an edge to another
    root, so a path of diameter n takes O(log n) rounds; edges whose
    endpoints already share a root are dropped for good."""
    lab = np.arange(n, dtype=np.int64)
    ei, ej = np.asarray(ei, np.int64), np.asarray(ej, np.int64)
    while True:
        li, lj = lab[ei], lab[ej]
        diff = li != lj
        if not diff.any():
            return lab
        ei, ej, li, lj = ei[diff], ej[diff], li[diff], lj[diff]
        np.minimum.at(lab, np.maximum(li, lj), np.minimum(li, lj))
        while True:
            nxt = lab[lab]
            if np.array_equal(nxt, lab):
                break
            lab = nxt


def _canon_edges(batch: pa.Table) -> pa.Table:
    """(src,dst)-ish batch -> canonical (hi, lo) with self-loops dropped."""
    a = batch[batch.column_names[0]].to_numpy(zero_copy_only=False).astype(np.int64)
    b = batch[batch.column_names[1]].to_numpy(zero_copy_only=False).astype(np.int64)
    keep = a != b
    a, b = a[keep], b[keep]
    return pa.table(
        {"hi": pa.array(np.maximum(a, b), pa.int64()),
         "lo": pa.array(np.minimum(a, b), pa.int64())}
    )


def _dedup_sorted(a: np.ndarray, b: np.ndarray):
    """Sort rows by (a, b) and drop duplicate rows. Returns (a, b)."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    if a.size:
        keep = np.empty(a.size, dtype=bool)
        keep[0] = True
        np.logical_or(a[1:] != a[:-1], b[1:] != b[:-1], out=keep[1:])
        a, b = a[keep], b[keep]
    return a, b


def _emit_large_star(df: pd.DataFrame) -> pd.DataFrame:
    """Large-star round over one hash partition of the symmetrized edge
    set (all of a node's rows colocate): for each node u with neighbors
    N(u), m = min(N(u) ∪ {u}); emit (v, m) for v ∈ N(u), v > u.
    Emitted edges are canonical (m ≤ u < v) and never self-loops."""
    node, nbr = _dedup_sorted(
        df["node"].to_numpy().astype(np.int64),
        df["nbr"].to_numpy().astype(np.int64),
    )
    starts = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
    m = np.minimum(np.minimum.reduceat(nbr, starts), node[starts])
    mfull = np.repeat(m, np.diff(np.r_[starts, node.size]))
    sel = nbr > node
    return pd.DataFrame({"hi": nbr[sel], "lo": mfull[sel]})


def _emit_small_star(df: pd.DataFrame) -> pd.DataFrame:
    """Small-star round over one hash partition of canonical (hi, lo)
    edges grouped by hi (so every copy of an edge colocates and the
    partition-local dedup is global): for each node u with smaller
    neighbors N(u), m = min(N(u)); emit (v, m) for v ∈ N(u) \\ {m} plus
    (u, m). All emissions stay canonical (second component is the min)."""
    hi, lo = _dedup_sorted(
        df["hi"].to_numpy().astype(np.int64),
        df["lo"].to_numpy().astype(np.int64),
    )
    starts = np.flatnonzero(np.r_[True, hi[1:] != hi[:-1]])
    m = np.minimum.reduceat(lo, starts)
    mfull = np.repeat(m, np.diff(np.r_[starts, hi.size]))
    sel = lo != mfull
    return pd.DataFrame(
        {"hi": np.concatenate([lo[sel], hi[starts]]),
         "lo": np.concatenate([mfull[sel], m])}
    )


def _dedup_part(df: pd.DataFrame) -> pd.DataFrame:
    hi, lo = _dedup_sorted(
        df["hi"].to_numpy().astype(np.int64),
        df["lo"].to_numpy().astype(np.int64),
    )
    return pd.DataFrame({"hi": hi, "lo": lo})


def _edge_signature(E) -> tuple[int, int]:
    """(row count, order-independent multiset hash) of a deduped edge
    Dataset — the star-contraction fixpoint test. Per-block digests are
    tiny (one row per block); combined on the driver with uint64
    wraparound, so the signature is independent of block layout."""
    from fastdup_ray.functions.hashing import mix64

    def digest(batch: pa.Table) -> pa.Table:
        hi = batch["hi"].to_numpy(zero_copy_only=False).astype(np.uint64)
        lo = batch["lo"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = mix64(hi ^ mix64(lo))
        with np.errstate(over="ignore"):
            s = np.uint64(np.sum(h, dtype=np.uint64))
        return pa.table(
            {"n": pa.array([batch.num_rows], pa.int64()),
             "h": pa.array([int(s.astype(np.int64))], pa.int64())}
        )

    n, h = 0, np.uint64(0)
    for b in E.map_batches(digest, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"):
        n += int(np.sum(b["n"].to_numpy(zero_copy_only=False)))
        with np.errstate(over="ignore"):
            h += np.uint64(
                np.sum(b["h"].to_numpy(zero_copy_only=False).astype(np.uint64),
                       dtype=np.uint64))
    return n, int(h)


def connected_components_star(edges, stats: dict | None = None):
    """Alternating large-star / small-star connected components (Kiveris
    et al. 2014, "Connected Components in MapReduce and Beyond") — the
    distributed route of connected_components(). Boilerplate
    mega-components chained through overlapping LSH buckets can have
    diameter ~ component size; star contraction converges in O(log^2 n)
    rounds (practically ~log n) regardless of diameter, each round =
    three hash exchanges
    (large-star, small-star, dedup+digest) with numpy segment-min
    kernels inside — no driver-side graph state at any size.

    At the fixpoint the edge set is a star forest rooted at each
    component's minimum node id, so labels match the union-find route
    exactly (same (node, label) schema, label = min member id).
    Fixpoint detection: (count, order-independent multiset hash) of the
    deduped canonical edge set stable across one round.
    """
    import ray.data as rd

    empty = pa.table(
        {"node": pa.array([], pa.int64()), "label": pa.array([], pa.int64())}
    )

    E = partitioned_groupby(
        edges.map_batches(_canon_edges, batch_format="pyarrow"),
        "hi", _dedup_part,
    ).materialize()
    sig = _edge_signature(E)
    if sig[0] == 0:
        return rd.from_arrow(empty)

    def sym(batch: pa.Table) -> pa.Table:
        hi = batch["hi"].to_numpy(zero_copy_only=False)
        lo = batch["lo"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"node": pa.array(np.concatenate([hi, lo]), pa.int64()),
             "nbr": pa.array(np.concatenate([lo, hi]), pa.int64())}
        )

    rounds = 0
    while True:
        large = partitioned_groupby(
            E.map_batches(sym, batch_format="pyarrow"),
            "node", _emit_large_star,
        )
        small = partitioned_groupby(
            large, "hi", _emit_small_star,
        )
        E = partitioned_groupby(
            small, "hi", _dedup_part,
        ).materialize()
        rounds += 1
        new_sig = _edge_signature(E)
        if new_sig == sig:
            break
        sig = new_sig
    if stats is not None:
        stats["rounds"] = rounds

    # star forest -> labels: every edge is (member, root); roots label
    # themselves. Min per node collapses any duplicate rows.
    def to_labels(batch: pa.Table) -> pa.Table:
        hi = batch["hi"].to_numpy(zero_copy_only=False)
        lo = batch["lo"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"node": pa.array(np.concatenate([hi, lo]), pa.int64()),
             "label": pa.array(np.concatenate([lo, lo]), pa.int64())}
        )

    def min_label(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", as_index=False, sort=False)["label"].min()
        return g

    return partitioned_groupby(
        E.map_batches(to_labels, batch_format="pyarrow"),
        "node", min_label,
    ).materialize()


def component_info(labels):
    """labels (node, label) -> (component_id, count) — the reference's
    component_info.csv (RUN.md:84-93)."""

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("label", as_index=False, sort=False).size()
        return g.rename(columns={"label": "component_id", "size": "count"})

    return partitioned_groupby(labels, "label", counts)
