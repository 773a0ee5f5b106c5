"""Relational helpers over Ray Datasets (joins, anti/semi joins, top-k).

These wrap the operator inventory the reference performs with pandas
merges (SURVEY.md §2.5 J1-J9): id->name joins, annotation left-joins,
anti-joins for outliers, semi-join filters — expressed as Ray hash joins
or broadcast lookups.
"""

from __future__ import annotations

import functools

import pandas as pd
import pyarrow as pa


def num_join_partitions(requested: int) -> int:
    """Cap hash-shuffle partition count at the cluster's CPU count.

    Ray 2.49's `Dataset.join`/hash-shuffle spins up one aggregator actor
    per partition, each reserving a CPU slot; asking for more partitions
    than the cluster has CPUs deadlocks the streaming executor (observed
    on a 4-CPU local cluster with num_partitions=32). At real cluster
    scale the requested value wins.
    """
    import ray

    cpus = 8.0
    if ray.is_initialized():
        cpus = ray.cluster_resources().get("CPU", 8.0)
    return max(2, min(int(requested), int(cpus)))


def actor_pool_size(requested: int) -> int:
    """Cap an actor-pool's size so it can't reserve every cluster CPU.

    A pool sized at the full CPU count starves upstream/downstream task
    operators (observed: 4 extract actors on a 4-CPU cluster deadlock the
    repartition feeding them). Leaves one CPU headroom.
    """
    import ray

    cpus = 8.0
    if ray.is_initialized():
        cpus = ray.cluster_resources().get("CPU", 8.0)
    return max(1, min(int(requested), int(cpus) - 1))


def hash_join(left, right, *, on, right_on=None, join_type: str = "inner",
              num_partitions: int = 32,
              broadcast_bytes: int = 128 << 20, broadcast_rows: int = 4_000_000):
    """`Dataset.join` with a broadcast small-side path, a deadlock-safe
    partition count and a sparse-left fallback.

    Broadcast path (inner joins): when the build (right) side fits a
    per-worker budget, it's concatenated ONCE in a task, `ray.put`-style
    broadcast via its ObjectRef, and every left block does a zero-copy
    Arrow (acero) join against it in `map_batches` — no shuffle, no
    per-partition aggregator actors. This is both the 100-TB-correct
    plan for small-side joins (ship the lookup once per node, stream
    the big side) AND the low-latency plan here: ray 2.49's hash-shuffle
    join spins one aggregator actor per partition with a measured
    ~3-12 s fixed overhead regardless of data size. Output column
    semantics match `Dataset.join`: left key kept, right key dropped
    (verified empirically; pa.Table.join coalesces keys the same way).

    NOTES (ray 2.49), for the shuffle path:
    - chaining a second lazy join on a join output trips acero field
      resolution; materialize between chained joins;
    - a shuffle partition that receives ZERO left rows makes the join's
      aggregator build a schema-less table and acero fails with "No
      match or multiple matches for key field reference". When the left
      side is too sparse to cover every partition we instead broadcast
      the left keys, semi-join the right down to the matching rows, and
      merge driver-side — identical inner-join semantics, no shuffle.
    """
    lks = [on] if isinstance(on, str) else list(on)
    rks = ([right_on] if isinstance(right_on, str) else list(right_on)) if right_on else lks
    lk, rk = lks[0], rks[0]
    nparts = num_join_partitions(num_partitions)

    if join_type == "inner":
        right = right.materialize()
        n_right = right.count()
        r_bytes = right.size_bytes() or 0
        if 0 < n_right <= broadcast_rows and r_bytes <= broadcast_bytes:
            return _broadcast_inner_join(left, right, lks=lks, rks=rks)

    left = left.materialize()
    n_left = left.count()
    # the sparse-left fallback below builds a single-column key set; for
    # composite keys go straight to the shuffle join
    if join_type == "inner" and len(lks) == 1 and n_left < nparts * 8:
        import numpy as np
        import ray.data as rd

        ldf = left.to_pandas()
        if n_left == 0:
            # empty inner join: left columns + right payload columns
            rcols = [c for c in right.schema().names if c != rk]
            r_empty = right.limit(0).to_pandas()[rcols]
            out = ldf.join(r_empty)  # zero rows either way
            return rd.from_arrow(pa.Table.from_pandas(out, preserve_index=False))
        keys = set(ldf[lk].tolist())
        rdf = broadcast_semi_join(right, rk, keys).to_pandas()
        if rk == lk:
            out = ldf.merge(rdf, on=lk, how="inner")
        else:
            out = ldf.merge(rdf, left_on=lk, right_on=rk, how="inner").drop(columns=[rk])
        return rd.from_arrow(pa.Table.from_pandas(out, preserve_index=False))

    return left.join(
        right,
        join_type=join_type,
        num_partitions=nparts,
        on=on if isinstance(on, tuple) else (on,),
        right_on=(right_on if isinstance(right_on, tuple) else (right_on,))
        if right_on is not None
        else None,
    )


def _broadcast_inner_join(left, right, *, lks: list, rks: list):
    """Inner join with the (small, materialized) right side broadcast.

    The right blocks are concatenated once in a remote task; the
    resulting ObjectRef is read zero-copy from the local object store
    by every map task (one plasma get per task, shared-memory on the
    same node — the `ray.put` once / read-everywhere broadcast pattern).
    The per-batch join is pyarrow's acero hash join (C++), with the
    right key(s) coalesced into the left key(s) exactly like
    `Dataset.join` (composite keys pass through intact).

    The left side is materialized and its zero-row blocks dropped first:
    map_batches never invokes the UDF on empty blocks, so a shuffle-
    produced schema-less empty block would otherwise pass through
    un-joined and poison downstream acero joins with a mixed-schema
    dataset. The barrier costs streaming overlap, but the alternative
    (Dataset.join) is an all-to-all barrier anyway.
    """
    import ray as _ray
    import ray.data as rd

    @_ray.remote
    def _concat(*tables) -> pa.Table:
        return pa.concat_tables(tables, promote_options="default").combine_chunks()

    rrefs = right.to_arrow_refs()
    rt_ref = _concat.remote(*rrefs)

    mat = left.materialize()
    refs = nonempty_block_refs(mat)
    if not refs:
        # empty inner join, but with the JOINED schema: left columns +
        # right payload columns
        lschema = mat.schema()
        rschema = right.schema()
        lnames = lschema.names if lschema is not None else []
        ltypes = lschema.types if lschema is not None else []
        # _as_arrow_type: pandas-backed blocks report numpy/python types
        cols = {
            c: pa.array([], _as_arrow_type(t)) for c, t in zip(lnames, ltypes)
        }
        for c, t in zip(rschema.names, rschema.types):
            if c not in rks:
                cols[c] = pa.array([], _as_arrow_type(t))
        return rd.from_arrow(pa.table(cols))

    def bjoin(batch: pa.Table) -> pa.Table:
        rt = _ray.get(rt_ref)
        if rks == lks:
            return batch.join(rt, keys=lks, join_type="inner")
        return batch.join(rt, keys=lks, right_keys=rks, join_type="inner")

    return rd.from_arrow_refs(refs).map_batches(bjoin, batch_format="pyarrow")


def combine_aggregate(ds, keys, partial_fn, merge_fn=None, *, fan: int = 8):
    """Map-side partial aggregation + task-side tree-reduce final merge.

    The combiner pattern for LOW-cardinality keys (SURVEY §2.6 A8/A9
    digests, TPC-H-style rollups): `partial_fn` (pandas DataFrame ->
    pandas DataFrame) reduces each batch to one row per key it saw;
    the partial tables are then tree-merged in plain Ray tasks with
    `merge_fn` (default: groupby(keys).sum() — correct for sums and
    counts-as-sums; pass an explicit merge for min/max/custom). The
    driver only ever holds ObjectRefs, and no data is shuffled at all —
    the reduction volume is (distinct keys x partial blocks), not rows.

    Exists because ray 2.49's `groupby().aggregate()` runs a
    hash-shuffle with one aggregator actor per partition: measured
    ~2-6 s FIXED overhead per op (actor startup + handshake) even on a
    100-row result, and the per-group Python finalize path on top
    (see partitioned_groupby). For high-cardinality keys (distinct keys
    ~ rows) use partitioned_groupby instead — a single merged table of
    partials would no longer be small.
    """
    import ray as _ray
    import ray.data as rd

    keys_l = [keys] if isinstance(keys, str) else list(keys)

    if merge_fn is None:
        def merge_fn(df: pd.DataFrame) -> pd.DataFrame:
            return df.groupby(keys_l, as_index=False, sort=False).sum()

    def _partial(df: pd.DataFrame):
        return pa.Table.from_pandas(
            partial_fn(df), preserve_index=False
        ).replace_schema_metadata(None)

    parts = ds.map_batches(_partial, batch_format="pandas").materialize()
    refs = nonempty_block_refs(parts)
    if not refs:
        return parts  # schema-bearing empty (partial_fn shaped the schema)

    @_ray.remote
    def _merge(*tables) -> pa.Table:
        tabs = [t for t in tables if t.num_rows > 0]
        df = pa.concat_tables(tabs, promote_options="default").to_pandas()
        return pa.Table.from_pandas(
            merge_fn(df), preserve_index=False
        ).replace_schema_metadata(None)

    # a single partial block needs no merge: partial_fn groups within
    # its batch, so one block is already key-unique
    while len(refs) > 1:
        refs = [
            _merge.remote(*refs[i : i + fan]) for i in range(0, len(refs), fan)
        ]
    return rd.from_arrow_refs(refs)


def distinct_value_quantile(ds, col: str, q: float, *,
                            distinct_budget: int = 1_000_000,
                            grid: tuple[float, float] | None = None,
                            fan: int = 8):
    """Bounded-driver-memory quantile of `ds[col]` (A7 contract,
    SURVEY §2.7): threshold = the smallest value v such that
    fraction(rows <= v) >= q.

    Two-phase, never more than `distinct_budget` rows on the driver:

    1. Cheap distributed upper bound on the distinct count (sum of
       per-block distinct counts — no shuffle, one scalar per block).
    2. Under the budget: EXACT — distributed distinct-value counts
       (map-side combine + task tree-reduce), cumulative scan on the
       driver over <= budget rows. Over it: fixed-grid histogram with
       `distinct_budget` bins over `grid=(lo, hi)` (default: distributed
       min/max); the threshold is the INCLUSIVE UPPER EDGE of the bin
       where the cumulative fraction crosses q, so `filter(col <= thr)`
       never under-selects; it over-selects by at most the mass of one
       bin — documented tolerance (hi - lo) / distinct_budget on the
       threshold value.

    Returns (threshold, diag) where diag = {"mode": "exact"|"grid",
    "rows_collected": n} — rows_collected is the driver-side
    materialization, asserted <= distinct_budget in tests.
    """
    import numpy as np

    # project + materialize ONCE: the phases below make 2-3 passes, and a
    # lazy input would re-execute its whole upstream per pass (and a
    # nondeterministic upstream would hand different rows to the mode
    # decision vs the histogram)
    ds = ds.select_columns([col]).materialize()

    def _distinct_partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"nd": [df[col].nunique()]})

    def _sum_merge(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"nd": [int(df["nd"].sum())]})

    nd_rows = combine_aggregate(
        ds, [], _distinct_partial, merge_fn=_sum_merge, fan=fan,
    ).take_all()
    nd_upper = int(nd_rows[0]["nd"]) if nd_rows else 0
    if nd_upper == 0:
        return None, {"mode": "exact", "rows_collected": 0}

    if nd_upper <= distinct_budget:
        dist = combine_aggregate(
            ds,
            col,
            lambda df: df.groupby(col, as_index=False, sort=False).agg(
                c=(col, "size")
            ),
            fan=fan,
        ).take_all()
        dist.sort(key=lambda r: r[col])
        total = sum(r["c"] for r in dist)
        cum = 0
        thr = dist[-1][col]
        for r in dist:
            cum += r["c"]
            if cum / total >= q:
                thr = r[col]
                break
        return thr, {"mode": "exact", "rows_collected": len(dist)}

    if grid is None:
        from ray.data.aggregate import Max, Min

        mm = ds.aggregate(Min(col, alias_name="lo"), Max(col, alias_name="hi"))
        grid = (mm["lo"], mm["hi"])
    lo, hi = float(grid[0]), float(grid[1])
    if hi <= lo:
        return lo, {"mode": "grid", "rows_collected": 1}
    nbins = distinct_budget
    width = (hi - lo) / nbins

    def _bin_partial(df: pd.DataFrame) -> pd.DataFrame:
        b = np.clip(
            np.floor((df[col].to_numpy(np.float64) - lo) / width),
            0, nbins - 1,
        ).astype(np.int64)
        u, c = np.unique(b, return_counts=True)
        return pd.DataFrame({"bin": u, "c": c})

    hist = combine_aggregate(ds, "bin", _bin_partial, fan=fan).take_all()
    hist.sort(key=lambda r: r["bin"])
    total = sum(r["c"] for r in hist)
    cum = 0
    thr_bin = hist[-1]["bin"]
    for r in hist:
        cum += r["c"]
        if cum / total >= q:
            thr_bin = r["bin"]
            break
    # inclusive upper edge; cap at hi so float round-up can't exceed max
    thr = min(lo + (thr_bin + 1) * width, hi)
    return thr, {"mode": "grid", "rows_collected": len(hist)}


_PART_MULTS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
               0x165667B19E3779F9, 0x27D4EB2F165667C5)


def _part_ids(batch: pa.Table, keys: list, num_parts: int):
    """Hash partition (0..num_parts-1, int64) of each row of `batch` by
    its `keys` columns."""
    import numpy as np

    mults = [np.uint64(m) for m in _PART_MULTS]
    h = np.zeros(batch.num_rows, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i, key in enumerate(keys):
            arr = batch[key].to_numpy(zero_copy_only=False)
            if arr.dtype.kind in "iu":
                ch = arr.astype(np.uint64)
            else:
                ch = pd.util.hash_array(np.asarray(arr, dtype=object), categorize=False)
            # avalanche each column so low-entropy keys still spread
            ch = ch * mults[i % len(mults)]
            ch ^= ch >> np.uint64(29)
            h ^= ch * mults[(i + 1) % len(mults)]
    return (h % np.uint64(num_parts)).astype(np.int64)


def _as_arrow(block) -> pa.Table:
    """A Dataset block as an Arrow table without schema metadata (the
    nested pandas metadata dict makes block schemas unhashable, which
    defeats Ray's schema dedup downstream)."""
    if not isinstance(block, pa.Table):  # pandas-format block
        block = pa.Table.from_pandas(block, preserve_index=False)
    return block.replace_schema_metadata(None)


def _split_block(block, keys: list, num_parts: int):
    """Map side of the exchange: (row counts per partition, slice of
    partition 0, ..., slice of partition P-1); empty slices are None."""
    import numpy as np

    t = _as_arrow(block)
    part = _part_ids(t, keys, num_parts)
    counts = np.bincount(part, minlength=num_parts)
    t = t.take(pa.array(np.argsort(part, kind="stable")))
    starts = np.cumsum(counts) - counts
    return (counts, *(
        t.slice(int(s), int(c)) if c else None for s, c in zip(starts, counts)
    ))


def _split_blocks(refs: list, keys: list, num_parts: int) -> list:
    """One split task per block; per partition, the refs of its
    non-empty slices (the driver reads only the row counts)."""
    import ray

    split = remote_fn(_split_block).options(num_returns=num_parts + 1)
    outs = [split.remote(r, keys, num_parts) for r in refs]
    counts = ray.get([o[0] for o in outs])
    return [
        [o[p + 1] for o, c in zip(outs, counts) if c[p]]
        for p in range(num_parts)
    ]


def _apply_groups(apply_fn, batch_format: str, t: pa.Table) -> pa.Table:
    """Run `apply_fn` on one whole partition in `batch_format`; the
    result as an Arrow table."""
    from ray.data.block import BlockAccessor

    out = apply_fn(BlockAccessor.for_block(t).to_batch_format(batch_format))
    if isinstance(out, pa.Table):
        return out
    # a pandas DataFrame: emit Arrow blocks: several Dataset ops (rename_columns and other
    # projections) assume Arrow-backed blocks. Strip the pandas schema
    # metadata, as _as_arrow does
    return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)


def _reduce_part(apply_fn, batch_format: str, *slices):
    """Reduce side of the exchange: (block metadata, apply_fn over the
    concatenation of one partition's slices)."""
    t = pa.concat_tables(
        [_as_arrow(s) for s in slices], promote_options="permissive"
    )
    out = _apply_groups(apply_fn, batch_format, t)
    return block_meta(out), out


@functools.cache
def remote_fn(fn):
    """`ray.remote(fn)`, created once per function."""
    import ray

    return ray.remote(fn)


def partitioned_groupby(ds, keys, apply_fn, *, num_parts: int = 64,
                        batch_format: str = "pandas"):
    """High-cardinality groupby: hash-partition by `keys`, then run ONE
    vectorized `apply_fn` call per partition.

    Ray's built-in `groupby(...).aggregate(...)` finalizes per GROUP in
    Python (~20us/group): at millions of distinct keys that is minutes
    (measured: 8M-key Count = 183s on 8 cpus). Here the exchange is one
    direct hash shuffle on plain Ray tasks:

    - one split task per non-empty input block tags each row with an
      avalanche hash of its keys and slices the block into P parts,
      returned as task returns (part 0 is the row counts), so lineage
      can rebuild a lost slice;
    - the driver reads only the counts and starts one reduce task per
      non-empty partition, which concatenates that partition's slices
      and calls `apply_fn` once;
    - the result is a Dataset of the non-empty reduce outputs, built
      from the metadata the reduce tasks return (`from_block_refs`).

    P = min(num_parts, number of non-empty input blocks), the block
    count Ray's own sort shuffle keeps: every split slice and reduce task
    has a fixed scheduling and worker cost, so a fixed larger P only
    adds tasks on small inputs.
    Every row of a key lands in exactly one partition, so any per-key
    aggregation is exact. The input is materialized first, and the call
    returns a materialized Dataset with no zero-row blocks (a result
    with no rows is one typed zero-row block). For empty input it is
    `apply_fn` applied to the empty input table, when the input has a
    schema.

    apply_fn: pandas DataFrame (one whole hash partition) -> pandas
    DataFrame. It must itself group by `keys` (e.g.
    df.groupby(keys).agg(...)); partitions are disjoint by key.

    batch_format="pyarrow" hands apply_fn the partition as a pa.Table
    (and expects one back) — callers whose partitions carry cheap
    all-null padding columns (cogroup_join) use it to filter/project in
    Arrow before any pandas materialization.
    """
    import ray
    import ray.data as rd

    keys = [keys] if isinstance(keys, str) else list(keys)
    mat = materialized(ds)
    refs = nonempty_block_refs(mat)
    if not refs:
        empty = empty_table(mat)
        if empty.num_columns == 0:
            return mat
        return rd.from_arrow(_apply_groups(apply_fn, batch_format, empty))

    nparts = max(1, min(int(num_parts), len(refs)))
    parts = [refs] if nparts == 1 else _split_blocks(refs, keys, nparts)
    # hold no reference to the input blocks or the slices past the
    # submission of the tasks that read them: Ray frees each once its
    # last reader finishes, so input, slices and output are not all
    # resident at once
    del mat, refs
    fn_ref = ray.put(apply_fn)
    reduce = remote_fn(_reduce_part).options(num_returns=2)
    res = [reduce.remote(fn_ref, batch_format, *s) for s in parts if s]
    del parts
    metas = ray.get([r[0] for r in res])
    blocks = [(r[1], m) for r, m in zip(res, metas) if m.num_rows]
    return from_block_refs(blocks or [(res[0][1], metas[0])])


def materialized(ds):
    """`ds` with its blocks computed. A MaterializedDataset (the output
    of `materialize()`, `from_block_refs` or a `ray.data.from_*` call)
    comes back as is; anything else is `ds.materialize()`d.

    `materialize()` of a Dataset that is already materialized starts no
    execution, but it still copies the plan: about 8 ms of driver CPU
    per call (ray 2.49). The glue between the stages calls this
    instead."""
    from ray.data.dataset import MaterializedDataset

    if not isinstance(ds, MaterializedDataset):
        return ds.materialize()
    # a source's blocks become the plan's snapshot, with no execution,
    # so that iterating over them starts none either
    ds._plan.execute()
    return ds


def nonempty_blocks(mat) -> list:
    """(block ref, metadata with schema) of each block of a materialized
    Dataset, zero-row blocks dropped by metadata (no data moves)."""
    from ray.data.block import BlockMetadataWithSchema

    return [
        (ref, BlockMetadataWithSchema(meta, bundle.schema))
        for bundle in mat.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows is None or meta.num_rows > 0
    ]


def nonempty_block_refs(mat) -> list:
    """Block refs of a materialized Dataset, zero-row blocks dropped by
    metadata (no data moves)."""
    return [ref for ref, _ in nonempty_blocks(mat)]


def block_meta(block):
    """The Ray Data metadata (rows, bytes, schema) of one block: a task
    that returns it beside its block lets the driver build a Dataset with
    `from_block_refs`."""
    from ray.data.block import BlockMetadataWithSchema

    return BlockMetadataWithSchema.from_block(block)


def from_block_refs(blocks: list):
    """A materialized Dataset over `blocks`, (block ref, metadata with
    schema) pairs whose metadata is already known: a task's `block_meta`
    return or a materialized Dataset's own (`nonempty_blocks`).

    This is `ray.data.from_arrow_refs` (ray 2.49) without its step that
    runs one metadata task per block and waits for all of them, which
    costs about as much CPU as eight plain tasks per call
    (`tools/exec_count.py --unit-cost`). Building the Dataset starts no
    task and no Ray Data execution."""
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    refs = [ref for ref, _ in blocks]
    metas = [meta for _, meta in blocks]
    plan = ExecutionPlan(
        DatasetStats(metadata={"FromArrow": metas}, parent=None),
        DataContext.get_current().copy(),
    )
    return MaterializedDataset(plan, LogicalPlan(FromArrow(refs, metas), plan._context))


def empty_table(ds) -> pa.Table:
    """A zero-row Arrow table with `ds`'s schema (no columns when `ds`
    has no schema)."""
    schema = ds.schema()
    if schema is None:
        return pa.table({})
    return pa.schema(
        [(n, _as_arrow_type(t)) for n, t in zip(schema.names, schema.types)]
    ).empty_table()


def drop_empty_blocks(ds):
    """Materialize `ds` and drop zero-row blocks.

    For Dataset ops that can emit empty, schema-less blocks (a
    `map_batches` whose UDF filters every row of a block): such blocks
    lose the schema and, inside iterative pipelines, compound across
    rounds (pagerank's per-round map outputs). Pruning by block METADATA
    costs one driver pass, moves no data, and bounds every consumer.
    """
    mat = materialized(ds)
    blocks = nonempty_blocks(mat)
    if not blocks:
        # all-empty: keep the materialized dataset (callers already
        # handle schema-less empties via with_schema / empty_typed)
        return mat
    return from_block_refs(blocks)


def distinct(ds, keys, *, num_parts: int = 64):
    """Exact distinct over arbitrary-cardinality keys (partitioned)."""
    keys_l = [keys] if isinstance(keys, str) else list(keys)

    def dd(df):
        return df[keys_l].drop_duplicates()

    return partitioned_groupby(ds, keys_l, dd, num_parts=num_parts)


def broadcast_semi_join(ds, key: str, key_set, *, keep: bool = True):
    """Filter ds to rows whose `key` is (not) in a small key set — the
    broadcast analog of the reference's `isin` semi-joins (J6,
    fastdup_controller.py:880) without a shuffle."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    arr = pa.array(np.asarray(list(key_set)))

    def fn(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch[key], value_set=arr)
        if not keep:
            mask = pc.invert(mask)
        return batch.filter(mask)

    return ds.map_batches(fn, batch_format="pyarrow")


def _block_unique(block, cols: list):
    """Sorted-unique int64 values of `cols` over one block."""
    import numpy as np

    t = _as_arrow(block)
    return np.unique(np.concatenate([
        t[c].to_numpy(zero_copy_only=False).astype(np.int64) for c in cols
    ]))


def _merge_unique(*arrs):
    import numpy as np

    return np.unique(np.concatenate(arrs))


def sorted_unique_ref(ds, cols):
    """ObjectRef of the sorted-unique int64 values of `cols` over `ds`.

    Distinct-per-block in tasks, then a TREE-REDUCE of the sorted-unique
    arrays entirely in tasks — the set never lands on the driver, which
    holds O(1) regardless of its size. The ref is the broadcast handle
    every filter task reads zero-copy (see `in_sorted`). The tasks read
    the blocks of `materialized(ds)`, so a materialized `ds` starts no
    Ray Data execution."""
    import numpy as np
    import ray

    block_unique = remote_fn(_block_unique)
    merge_unique = remote_fn(_merge_unique)
    refs = [block_unique.remote(ref, list(cols))
            for ref in nonempty_block_refs(materialized(ds))]
    if not refs:
        return ray.put(np.empty(0, np.int64))
    while len(refs) > 1:  # fan-in 8 per merge task
        refs = [merge_unique.remote(*refs[i : i + 8])
                for i in range(0, len(refs), 8)]
    return refs[0]


def in_sorted(values, ids):
    """Membership mask of `ids` in the sorted-unique array `values`."""
    import numpy as np

    if values.shape[0] == 0:
        return np.zeros(ids.shape[0], bool)
    pos = np.clip(np.searchsorted(values, ids), 0, values.shape[0] - 1)
    return values[pos] == ids


def empty_typed(schema_cols: dict):
    """An empty Dataset WITH a schema (empty datasets produced by filters
    or groupbys otherwise lose their schema and break downstream joins)."""
    import ray.data as rd

    return rd.from_arrow(pa.table({k: pa.array([], t) for k, t in schema_cols.items()}))


def with_schema(ds, cols: dict, *, rename: dict | None = None):
    """Force every block to an exact Arrow schema.

    Sparse shuffles emit zero-row blocks WITHOUT columns ("RefBundle with
    a different schema ... new schema: ." warnings); acero joins then
    fail with "No match or multiple matches for key field". map_batches
    can NOT fix this — it passes zero-row blocks through without calling
    the UDF — so this canonicalizes at the block level: one small remote
    task per block (scheduled data-local), dropping empty blocks.

    `rename` maps input block column names to the output names in `cols`.
    Do the rename HERE, not with `Dataset.rename_columns` on the result:
    ray 2.49's rename on a from_arrow_refs dataset renames only some
    blocks and `.schema()` keeps the old name (mixed-schema RefBundle
    warning), which poisons downstream joins.
    """
    import ray.data as rd

    # prune zero-row blocks by metadata first: they are what makes
    # Dataset.rename_columns / joins downstream unreliable (a zero-row
    # block passes through a Project un-renamed), and they compound in
    # iterative pipelines — see drop_empty_blocks.
    import ray

    refs = nonempty_block_refs(materialized(ds))
    if not refs:
        return rd.from_arrow(pa.schema(cols).empty_table())
    canon = remote_fn(_canon_block).options(num_returns=2)
    outs = [canon.remote(r, cols, rename or {}) for r in refs]
    metas = ray.get([o[0] for o in outs])
    return from_block_refs([(o[1], m) for o, m in zip(outs, metas)])


def _canon_block(block, cols: dict, rename: dict):
    """(metadata, block) of one block with exactly the columns `cols`
    (name -> Arrow type), each read from its `rename`d input column."""
    t = _as_arrow(block)
    if t.num_columns == 0:
        t = pa.schema(cols).empty_table()
    else:
        src = {new: old for old, new in rename.items()}
        t = pa.table({k: t[src.get(k, k)].cast(v) for k, v in cols.items()})
    return block_meta(t), t


def cogroup_anti_join(left, right, *, on: str, right_on: str | None = None,
                      num_parts: int = 64):
    """Left rows whose `on` key has NO match in right's `right_on` — the
    shuffle anti-join (J5). Both sides are hash-partitioned by key, so it
    scales past the broadcast-key-set pattern (`broadcast_semi_join`)
    when the right side's distinct-key set is itself big."""
    import numpy as np

    rk = right_on or on
    lschema = left.schema()
    lcols = dict(zip(lschema.names, lschema.types))
    key_t = lcols[on]

    def lnorm(batch: pa.Table) -> pa.Table:
        out = {c: batch[c] for c in lcols}
        out["__side"] = pa.array(np.zeros(batch.num_rows, np.int8))
        return pa.table(out)

    def rnorm(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        out = {
            c: (batch[rk].cast(key_t) if c == on else pa.nulls(n, t))
            for c, t in lcols.items()
        }
        out["__side"] = pa.array(np.ones(n, np.int8))
        return pa.table(out)

    both = left.map_batches(lnorm, batch_format="pyarrow").union(
        right.select_columns([rk]).map_batches(rnorm, batch_format="pyarrow")
    )

    def anti(df: pd.DataFrame) -> pd.DataFrame:
        lp = df[df["__side"] == 0]
        rkeys = df.loc[df["__side"] == 1, on].unique()
        return lp[~lp[on].isin(rkeys)].drop(columns="__side")

    return partitioned_groupby(both, on, anti, num_parts=num_parts)


def cogroup_join(left, right, *, on: str, right_on: str, num_parts: int = 64):
    """Inner hash join built on partitioned_groupby: both sides get the
    same key-hash partition column, are schema-normalized (union of
    columns, typed nulls for the missing side, plus a __side tag), and
    every partition does ONE vectorized pandas merge.

    Exists because ray 2.49's `Dataset.join` anti-scales on this
    workload (more CPUs -> slower; measured 32s+ per join of 1.7M x
    0.6M rows) and crashes on sparse partitions; this path reuses
    partitioned_groupby's hash exchange on plain Ray tasks.
    The right key column is dropped from the output (Dataset.join
    parity).
    """
    import numpy as np
    import pyarrow.compute as pc  # noqa: F401  (kept for parity with callers)

    lschema = left.schema()
    rschema = right.schema()
    lcols = dict(zip(lschema.names, lschema.types))
    rcols = dict(zip(rschema.names, rschema.types))
    payload_r = {k: v for k, v in rcols.items() if k != right_on}
    overlap = set(lcols) & set(payload_r)
    if overlap:
        raise ValueError(f"column collision in cogroup_join: {overlap}")
    all_cols = {"__key": lcols.get(on, rcols.get(right_on))}
    all_cols.update({k: v for k, v in lcols.items() if k != on} | payload_r)

    def norm(key_col, keep_cols):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            out = {"__key": batch[key_col].cast(all_cols["__key"])}
            for k, t in all_cols.items():
                if k == "__key":
                    continue
                out[k] = (
                    batch[k].cast(t) if k in keep_cols and k in batch.column_names
                    else pa.nulls(n, t)
                )
            out["__side"] = pa.array(np.full(n, 0 if key_col == on else 1, np.int8))
            return pa.table(out)

        return fn

    lnorm = left.map_batches(norm(on, set(lcols)), batch_format="pyarrow")
    rnorm = right.map_batches(norm(right_on, set(rcols)), batch_format="pyarrow")
    both = lnorm.union(rnorm)

    l_payload = [k for k in lcols if k != on]
    r_payload = list(payload_r)

    def merge(t: pa.Table) -> pa.Table:
        # filter/project in Arrow FIRST: each side's padding columns are
        # all-null (validity-bitmap-only) until pandas materializes them —
        # converting the full union-schema partition would allocate
        # n x padded-width of NaNs per partition (VERDICT r1 #10)
        lmask = pc.equal(t["__side"], 0)
        lp = t.filter(lmask).select(["__key"] + l_payload).to_pandas()
        rp = t.filter(pc.invert(lmask)).select(["__key"] + r_payload).to_pandas()
        out = lp.merge(rp, on="__key", how="inner").rename(columns={"__key": on})
        return pa.Table.from_pandas(
            out, preserve_index=False
        ).replace_schema_metadata(None)

    return partitioned_groupby(
        both, "__key", merge, num_parts=num_parts, batch_format="pyarrow"
    )


def asof_join(left, right, *, on: str, right_on: str, by: str, right_by: str,
              tiebreak: list | None = None, num_parts: int = 64,
              keep_unmatched: bool = False):
    """Distributed backward as-of join: for each left row, the single
    right row with the greatest `right_on` <= left `on` within the same
    `by`/`right_by` key — the time-series join the Dataset API lacks
    (M19-adjacent; the "latest state as of event time" primitive).

    Both sides are hash-partitioned by the key (the cogroup_join
    pattern: union + typed-null schema normalization + one vectorized
    fold per partition), so a partition holds every row of its keys and
    a single `pandas.merge_asof` resolves it exactly — no driver
    materialization, no all-pairs inequality join. `tiebreak` columns
    make equal-`right_on` matches deterministic (the max tiebreak tuple
    wins; merge_asof takes the LAST right row in sort order).
    The right key column is dropped from the output; unmatched left
    rows are dropped unless keep_unmatched (left-join semantics with
    nulls in the right payload).
    """
    import numpy as np

    lschema = left.schema()
    rschema = right.schema()
    lcols = dict(zip(lschema.names, lschema.types))
    rcols = dict(zip(rschema.names, rschema.types))
    payload_r = {k: v for k, v in rcols.items() if k != right_by}
    overlap = set(lcols) & set(payload_r)
    if overlap:
        raise ValueError(f"column collision in asof_join: {overlap}")
    all_cols = {"__key": lcols.get(by, rcols.get(right_by))}
    all_cols.update({k: v for k, v in lcols.items() if k != by} | payload_r)
    tiebreak = list(tiebreak or [])

    def norm(key_col, keep_cols):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            out = {"__key": batch[key_col].cast(all_cols["__key"])}
            for k, t in all_cols.items():
                if k == "__key":
                    continue
                out[k] = (
                    batch[k].cast(t) if k in keep_cols and k in batch.column_names
                    else pa.nulls(n, t)
                )
            out["__side"] = pa.array(
                np.full(n, 0 if key_col == by else 1, np.int8)
            )
            return pa.table(out)

        return fn

    both = left.map_batches(norm(by, set(lcols)), batch_format="pyarrow").union(
        right.map_batches(norm(right_by, set(rcols)), batch_format="pyarrow")
    )

    l_payload = [k for k in lcols if k != by]
    r_payload = list(payload_r)

    def fold(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lmask = pc.equal(t["__side"], 0)
        lp = t.filter(lmask).select(["__key"] + l_payload).to_pandas()
        rp = t.filter(pc.invert(lmask)).select(["__key"] + r_payload).to_pandas()
        lp = lp.sort_values(on, kind="mergesort")
        rp = rp.sort_values([right_on] + tiebreak, kind="mergesort")
        out = pd.merge_asof(
            lp, rp, left_on=on, right_on=right_on, by="__key",
            direction="backward",
        )
        if not keep_unmatched:
            out = out[out[right_on].notna()]
        out = out.rename(columns={"__key": by})
        return pa.Table.from_pandas(
            out, preserve_index=False
        ).replace_schema_metadata(None)

    return partitioned_groupby(
        both, "__key", fold, num_parts=num_parts, batch_format="pyarrow"
    )


def build_bloom(ds, key: str, *, n_bits: int = 1 << 23, k_hashes: int = 7,
                fan: int = 8):
    """Distributed Bloom filter of a key column: per-block bitmaps OR'd by
    a task-side tree-reduce; the driver only ever holds the final
    ObjectRef.

    n_bits default 8M (1 MiB bitmap) ~= 1% false positives at 1M keys
    with 7 hashes; size it ~8-10 bits per expected distinct key.
    Returns (bitmap_ref, test_fn) — test_fn(keys, bitmap) -> bool mask of
    maybe-present. Keys may be any dtype: integers go through splitmix64
    directly, everything else through the same object hash
    partitioned_groupby uses.
    """
    import numpy as np
    import ray as _ray

    words = n_bits >> 6

    def _hashes(keys: np.ndarray):
        # splitmix64 avalanche, two independent streams -> double hashing
        def mix(z):
            z = (z + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(0xBF58476D1CE4E5B9)
            z ^= z >> np.uint64(27)
            z *= np.uint64(0x94D049BB133111EB)
            return z ^ (z >> np.uint64(31))

        with np.errstate(over="ignore"):
            if keys.dtype.kind in "iu":
                z = keys.astype(np.int64).view(np.uint64)
            else:
                z = pd.util.hash_array(
                    np.asarray(keys, dtype=object), categorize=False
                )
            h1 = mix(z)
            h2 = mix(z ^ np.uint64(0xA5A5A5A5A5A5A5A5)) | np.uint64(1)
        return h1, h2

    nb = np.uint64(n_bits)

    def _set_bits(keys: np.ndarray) -> np.ndarray:
        bm = np.zeros(words, np.uint64)
        h1, h2 = _hashes(keys)
        for i in range(k_hashes):
            with np.errstate(over="ignore"):
                pos = (h1 + np.uint64(i) * h2) % nb
            w = (pos >> np.uint64(6)).astype(np.int64)
            b = np.uint64(1) << (pos & np.uint64(63))
            np.bitwise_or.at(bm, w, b)
        return bm

    @_ray.remote
    def _block_bloom(t: pa.Table) -> np.ndarray:
        return _set_bits(t[key].to_numpy(zero_copy_only=False))

    @_ray.remote
    def _or(*bms) -> np.ndarray:
        out = bms[0].copy()
        for b in bms[1:]:
            out |= b
        return out

    refs = [_block_bloom.remote(r) for r in ds.materialize().to_arrow_refs()]
    if not refs:
        refs = [_ray.put(np.zeros(words, np.uint64))]
    while len(refs) > 1:
        refs = [_or.remote(*refs[i : i + fan]) for i in range(0, len(refs), fan)]

    def test_fn(keys: np.ndarray, bitmap: np.ndarray) -> np.ndarray:
        """Vectorized membership test: True = maybe-present."""
        hit = np.ones(keys.shape[0], bool)
        h1, h2 = _hashes(keys)
        for i in range(k_hashes):
            with np.errstate(over="ignore"):
                pos = (h1 + np.uint64(i) * h2) % nb
            w = (pos >> np.uint64(6)).astype(np.int64)
            b = np.uint64(1) << (pos & np.uint64(63))
            hit &= (bitmap[w] & b) != 0
        return hit

    return refs[0], test_fn


def bloom_cogroup_anti_join(left, right, *, on: str,
                            right_on: str | None = None,
                            num_parts: int = 64, n_bits: int = 1 << 23):
    """Exact anti-join with a Bloom prefilter: left rows whose key MISSES
    the right-key Bloom filter are definitely unmatched and bypass the
    shuffle entirely (streamed straight to the output); only the
    Bloom-HIT rows (true matches + the ~1% false positives) go through
    the exact cogroup anti-join. Identical output to cogroup_anti_join —
    the sketch changes shuffle volume, never the answer. At web scale
    this turns an all-to-all over the full left side into one over
    ~|matches| rows plus a 1 MiB broadcast."""
    import functools

    import numpy as np

    import ray as _ray

    rk = right_on or on
    bloom_ref, test_fn = build_bloom(
        right.select_columns([rk]), rk, n_bits=n_bits
    )

    def split(batch: pa.Table, *, keep_hits: bool) -> pa.Table:
        bm = _ray.get(bloom_ref)
        keys = batch[on].to_numpy(zero_copy_only=False)
        hit = test_fn(keys, bm)
        mask = hit if keep_hits else ~hit
        return batch.filter(pa.array(mask))

    left = left.materialize()
    misses = left.map_batches(
        functools.partial(split, keep_hits=False), batch_format="pyarrow"
    )
    hits = left.map_batches(
        functools.partial(split, keep_hits=True), batch_format="pyarrow"
    )
    checked = cogroup_anti_join(
        hits, right, on=on, right_on=rk, num_parts=num_parts
    )
    lschema = left.schema()
    cols = {
        name: _as_arrow_type(t)
        for name, t in zip(lschema.names, lschema.types)
    }
    return with_schema(misses.union(checked), cols)


def _as_arrow_type(t) -> pa.DataType:
    """Dataset.schema() yields pa.DataType for Arrow blocks but numpy /
    python types for pandas-backed blocks — normalize to Arrow."""
    if isinstance(t, pa.DataType):
        return t
    import numpy as np

    if t in (str, object):
        return pa.string()
    return pa.from_numpy_dtype(np.dtype(t))
