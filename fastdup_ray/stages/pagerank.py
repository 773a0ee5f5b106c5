"""PageRank + degree over the similarity graph (SURVEY.md G5).

The reference's connected-components output carries per-node `pagerank`
and `delta` columns when `run_pagerank=1` (reference RUN.md:95-113,
fastdup/__init__.py:552). Here the graph is the undirected verified-pair
edge list; PageRank is the standard damped power iteration

    pr(v) <- (1-d)/N + d * sum_{u~v} pr(u)/deg(u)

run for a fixed number of rounds. Like connected components
(stages/components.py), small graphs finish on the driver (one numpy
`np.add.at` scatter per round); above `components._DRIVER_MAX_EDGES`
edges each round is a `hash_join` (pr onto edge sources) plus a
partitioned sum by destination, no driver-side state.

Output: (node, pagerank, delta, degree) — delta is the last round's
|pr - pr_prev| per node, the reference's convergence diagnostic.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from fastdup_ray.relational.ops import (
    drop_empty_blocks, hash_join, partitioned_groupby, with_schema,
)


def _symmetrize(batch: pa.Table) -> pa.Table:
    s = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    t = batch["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "u": pa.array(np.concatenate([s, t]), pa.int64()),
            "v": pa.array(np.concatenate([t, s]), pa.int64()),
        }
    )


def _pagerank_driver(u: np.ndarray, v: np.ndarray, damping: float, iters: int):
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    ui, vi = inv[: u.shape[0]], inv[u.shape[0] :]
    n = nodes.shape[0]
    deg = np.bincount(ui, minlength=n).astype(np.float64)  # symmetric: out-deg
    pr = np.full(n, 1.0 / n)
    delta = np.zeros(n)
    base = (1.0 - damping) / n
    for _ in range(iters):
        contrib = pr[ui] / deg[ui]
        acc = np.zeros(n)
        np.add.at(acc, vi, contrib)
        # per-iteration 12-dp rounding: makes the fixed-point independent
        # of summation order, so driver, distributed and SQL-oracle paths
        # all produce bit-identical values
        new = np.round(base + damping * acc, 12)
        delta = np.abs(new - pr)
        pr = new
    return nodes, pr, delta, deg.astype(np.int64)


def pagerank(edges, *, damping: float = 0.85, iters: int = 10):
    """edges Dataset (src, dst[, ...]) -> Dataset (node, pagerank, delta,
    degree). Deterministic for a fixed iteration count."""
    import ray.data as rd

    from fastdup_ray.stages import components

    edges = edges.materialize()
    n_edges = edges.count()
    empty = pa.table(
        {
            "node": pa.array([], pa.int64()),
            "pagerank": pa.array([], pa.float64()),
            "delta": pa.array([], pa.float64()),
            "degree": pa.array([], pa.int64()),
        }
    )
    if n_edges == 0:
        return rd.from_arrow(empty)

    sym = edges.select_columns(["src", "dst"]).map_batches(
        _symmetrize, batch_format="pyarrow"
    ).materialize()

    if n_edges <= components._DRIVER_MAX_EDGES:
        parts_u, parts_v = [], []
        for b in sym.iter_batches(batch_size=None, batch_format="pyarrow"):
            parts_u.append(b["u"].to_numpy(zero_copy_only=False))
            parts_v.append(b["v"].to_numpy(zero_copy_only=False))
        nodes, pr, delta, deg = _pagerank_driver(
            np.concatenate(parts_u), np.concatenate(parts_v), damping, iters
        )
        return rd.from_arrow(
            pa.table(
                {
                    "node": pa.array(nodes, pa.int64()),
                    "pagerank": pa.array(np.round(pr, 10), pa.float64()),
                    "delta": pa.array(np.round(delta, 10), pa.float64()),
                    "degree": pa.array(deg, pa.int64()),
                }
            )
        )

    # ---- distributed path: fixed-round power iteration ----
    def deg_agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("u", as_index=False, sort=False).size()
        return g.rename(columns={"u": "node", "size": "degree"})

    deg = partitioned_groupby(sym, "u", deg_agg)
    deg = with_schema(deg, {"node": pa.int64(), "degree": pa.int64()})
    n_nodes = deg.count()
    base = (1.0 - damping) / n_nodes

    def init_pr(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "node": batch["node"],
                "pr": pa.array(np.full(n, 1.0 / n_nodes), pa.float64()),
                "degree": batch["degree"],
            }
        )

    state = deg.map_batches(init_pr, batch_format="pyarrow").materialize()
    delta_col = None
    for _ in range(iters):
        joined = hash_join(
            sym, state.rename_columns({"node": "pnode"}),
            on="u", right_on="pnode",
        )

        def contrib(batch: pa.Table) -> pa.Table:
            p = batch["pr"].to_numpy(zero_copy_only=False)
            d = batch["degree"].to_numpy(zero_copy_only=False).astype(np.float64)
            return pa.table(
                {
                    "node": batch["v"].cast(pa.int64()),
                    "c": pa.array(p / d, pa.float64()),
                }
            )

        def sum_in(df: pd.DataFrame) -> pd.DataFrame:
            return df.groupby("node", as_index=False, sort=False)["c"].sum()

        acc = partitioned_groupby(
            joined.map_batches(contrib, batch_format="pyarrow"),
            "node", sum_in,
        )
        # rename inside with_schema: Dataset.rename_columns on a
        # from_arrow_refs dataset is unreliable in ray 2.49 (renames only
        # some blocks; schema() keeps the old name)
        acc = with_schema(acc, {"anode": pa.int64(), "c": pa.float64()},
                          rename={"node": "anode"})
        merged = hash_join(
            state.rename_columns({"pr": "pr_old"}),
            acc,
            on="node", right_on="anode",
        )

        def update(batch: pa.Table) -> pa.Table:
            old = batch["pr_old"].to_numpy(zero_copy_only=False)
            c = batch["c"].to_numpy(zero_copy_only=False)
            new = np.round(base + damping * c, 12)  # see _pagerank_driver
            return pa.table(
                {
                    "node": batch["node"],
                    "pr": pa.array(new, pa.float64()),
                    "degree": batch["degree"],
                    "delta": pa.array(np.abs(new - old), pa.float64()),
                }
            )

        # materialize the loop state once per round; drop_empty_blocks
        # also drops zero-row blocks, so the state's block count cannot
        # grow from round to round
        nxt = drop_empty_blocks(merged.map_batches(update, batch_format="pyarrow"))
        delta_col = nxt
        state = drop_empty_blocks(nxt.select_columns(["node", "pr", "degree"]))

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": batch["node"].cast(pa.int64()),
                "pagerank": pa.compute.round(batch["pr"], ndigits=10),
                "delta": pa.compute.round(batch["delta"], ndigits=10),
                "degree": batch["degree"].cast(pa.int64()),
            }
        )

    return delta_col.map_batches(finish, batch_format="pyarrow")
