"""Relational helpers over Ray Datasets (joins, anti/semi joins, top-k).

These wrap the operator inventory the reference performs with pandas
merges (SURVEY.md §2.5 J1-J9): id->name joins, annotation left-joins,
anti-joins for outliers, semi-join filters — expressed as one hash
exchange on plain Ray tasks (`cogroup`) or broadcast lookups, with one
join kernel (`join_tables`).
"""

from __future__ import annotations

import functools

import pandas as pd
import pyarrow as pa


# hash_join's join types -> the inputs (0 left, 1 right) a partition
# needs rows of to produce any output
_JOIN_TYPES = {"inner": (0, 1), "left_outer": (0,), "full_outer": ()}

# hash_join broadcasts a right side of at most this many rows and bytes
_BROADCAST_ROWS = 4_000_000
_BROADCAST_BYTES = 128 << 20

# combine_aggregate's tree-reduce merges this many partial tables per task
_MERGE_FAN = 8


def hash_join(left, right, *, on, right_on=None, join_type: str = "inner"):
    """Equi-join of two Datasets: "inner", "left_outer" or "full_outer".

    Output columns follow `Dataset.join`: the left columns (the left key
    kept; for full_outer it holds the key of either side), then the
    right columns without the right key. Composite keys are tuples;
    null keys match nothing. A right column that shares a left column's
    name is a ValueError.

    Two plans, one kernel (`join_tables`):

    - broadcast (inner and left_outer): when the right side's observed
      rows and bytes fit `_BROADCAST_ROWS` and `_BROADCAST_BYTES`, one
      task per left block joins it against every right block, with no
      exchange;
    - otherwise both sides go through the hash exchange (`cogroup`),
      one join per partition.

    Both sides are materialized first; the result is materialized, with
    no zero-row blocks (an empty result is one zero-row block with the
    joined schema).
    """
    if join_type not in _JOIN_TYPES:
        raise ValueError(f"unknown join_type {join_type!r}")
    lks = _key_list(on)
    rks = _key_list(right_on) if right_on is not None else lks
    left, right = materialized(left), materialized(right)
    schemas = [_arrow_schema(left), _arrow_schema(right)]
    overlap = set(schemas[0].names) & (set(schemas[1].names) - set(rks))
    if overlap:
        raise ValueError(f"column collision in hash_join: {sorted(overlap)}")
    kernel = functools.partial(join_tables, lks=lks, rks=rks, join_type=join_type)
    required = _JOIN_TYPES[join_type]

    rblocks = nonempty_blocks(right)
    r_rows = sum(m.num_rows or 0 for _, m in rblocks)
    r_bytes = sum(m.size_bytes or 0 for _, m in rblocks)
    if (join_type != "full_outer" and r_rows <= _BROADCAST_ROWS
            and r_bytes <= _BROADCAST_BYTES):
        rrefs = [ref for ref, _ in rblocks]
        parts = [[[ref], rrefs] for ref in nonempty_block_refs(left)]
        return _reduce_parts(kernel, schemas, parts, required)[0]
    return cogroup([left, right], [lks, rks], kernel, required=required)[0]


_ARROW_JOIN_TYPES = {"inner": "inner", "left_outer": "left outer",
                     "full_outer": "full outer", "semi": "left semi",
                     "anti": "left anti"}


def join_tables(left: pa.Table, right: pa.Table, *, lks: list, rks: list,
                join_type: str) -> pa.Table:
    """The join kernel: an Arrow hash join of (key columns, row index)
    tables, then `take` of each side's columns by row index.

    Arrow's `Table.join` refuses list-typed non-key columns (pyarrow
    16); joining the indices and taking the payloads afterwards carries
    columns of any type. Right keys are cast to the left key types; null
    keys match nothing.

    join_type "inner", "left_outer", "full_outer": the left columns (for
    full_outer the key columns coalesce both sides' keys), then the
    right columns except `rks`. "semi" / "anti": the left rows with / with
    no match, left columns only.
    """
    import numpy as np

    names = [f"k{i}" for i in range(len(lks))]
    lkeys = pa.table(
        [left[k] for k in lks] + [pa.array(np.arange(left.num_rows))],
        names=names + ["__l"],
    )
    rkeys = pa.table(
        [right[r].cast(left[k].type) for k, r in zip(lks, rks)]
        + [pa.array(np.arange(right.num_rows))],
        names=names + ["__r"],
    )
    j = lkeys.join(rkeys, keys=names, join_type=_ARROW_JOIN_TYPES[join_type],
                   use_threads=False)
    out = left.take(j["__l"])
    if join_type in ("semi", "anti"):
        return out
    if join_type == "full_outer":
        for k, n in zip(lks, names):
            out = out.set_column(out.schema.get_field_index(k), k, j[n])
    payload = right.drop_columns(rks).take(j["__r"])
    for name, col in zip(payload.column_names, payload.columns):
        out = out.append_column(name, col)
    return out


def _key_list(keys) -> list:
    return [keys] if isinstance(keys, str) else list(keys)


def combine_aggregate(ds, keys, partial_fn, merge_fn=None):
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
            _merge.remote(*refs[i : i + _MERGE_FAN])
            for i in range(0, len(refs), _MERGE_FAN)
        ]
    return rd.from_arrow_refs(refs)


def distinct_value_quantile(ds, col: str, q: float, *,
                            distinct_budget: int = 1_000_000,
                            grid: tuple[float, float] | None = None):
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
        ds, [], _distinct_partial, merge_fn=_sum_merge,
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

    hist = combine_aggregate(ds, "bin", _bin_partial).take_all()
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
    its `keys` columns. Nulls in an integer column hash as 0, so that
    they do not turn the column into floats and its rows onto the object
    hash; null keys match nothing in a join, so their partition is
    arbitrary."""
    import numpy as np
    import pyarrow.compute as pc

    mults = [np.uint64(m) for m in _PART_MULTS]
    h = np.zeros(batch.num_rows, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i, key in enumerate(keys):
            col = batch[key]
            if col.null_count and pa.types.is_integer(col.type):
                col = pc.fill_null(col, 0)
            arr = col.to_numpy(zero_copy_only=False)
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


def _split_blocks(inputs: list, num_parts: int) -> list:
    """One split task per block of each input, a (block refs, keys)
    pair; per partition, per input, the refs of its non-empty slices
    (the driver reads only the row counts, in one wait)."""
    import ray

    split = remote_fn(_split_block).options(num_returns=num_parts + 1)
    outs = [[split.remote(r, keys, num_parts) for r in refs] for refs, keys in inputs]
    counts = iter(ray.get([o[0] for side in outs for o in side]))
    sides = [[(o, next(counts)) for o in side] for side in outs]
    return [
        [[o[p + 1] for o, c in side if c[p]] for side in sides]
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


def _reduce_part(apply_fn, schemas: list, counts: list, *slices):
    """Reduce side of the exchange: the slices of one partition, the
    first counts[0] from input 0 and so on, concatenated per input (a
    zero-row table of schemas[i] when input i has none), then
    apply_fn(*tables). Returns (metadata of each output, *outputs)."""
    tables, at = [], 0
    for schema, n in zip(schemas, counts):
        side = [_as_arrow(s) for s in slices[at : at + n]] or [schema.empty_table()]
        tables.append(pa.concat_tables(side, promote_options="permissive"))
        at += n
    outs = apply_fn(*tables)
    outs = outs if isinstance(outs, tuple) else (outs,)
    return (tuple(block_meta(o) for o in outs), *outs)


def _reduce_parts(apply_fn, schemas: list, parts: list, required=(),
                  num_outputs: int = 1) -> list:
    """One `_reduce_part` task per partition of `parts` (per partition,
    per input, slice refs) that has rows, and rows of every input in
    `required`. Returns one materialized Dataset per output of
    `apply_fn`, with no zero-row blocks; an output without rows is one
    typed zero-row block, and when no partition runs it is `apply_fn`
    over every input's zero-row table."""
    import itertools

    import ray
    import ray.data as rd

    parts = [p for p in parts if any(p) and all(p[i] for i in required)]
    if not parts:
        outs = apply_fn(*(s.empty_table() for s in schemas))
        outs = outs if isinstance(outs, tuple) else (outs,)
        return [rd.from_arrow(o) for o in outs]
    fn_ref = ray.put(apply_fn)
    reduce = remote_fn(_reduce_part).options(num_returns=num_outputs + 1)
    res = [
        reduce.remote(fn_ref, schemas, [len(s) for s in p], *itertools.chain(*p))
        for p in parts
    ]
    # hold no reference to the slices past the submission of the tasks
    # that read them: Ray frees each once its last reader finishes
    del parts
    metas = ray.get([r[0] for r in res])
    datasets = []
    for i in range(num_outputs):
        blocks = [(r[i + 1], m[i]) for r, m in zip(res, metas) if m[i].num_rows]
        datasets.append(from_block_refs(blocks or [(res[0][i + 1], metas[0][i])]))
    return datasets


def exchange_width(num_blocks: int) -> int:
    """P, the partition count of one exchange over `num_blocks` non-empty
    input blocks: min(num_blocks, the cluster's CPUs), at least 1.

    Every split slice and reduce task has a fixed scheduling and worker
    cost, so P above the block count only adds tasks on small inputs
    (the block count is also what Ray's own sort shuffle keeps), and P
    above the CPU count only queues reduce tasks behind each other."""
    import ray

    return max(1, min(num_blocks, int(ray.cluster_resources()["CPU"])))


def cogroup(datasets: list, keys: list, apply_fn, *, required=(),
            num_outputs: int = 1) -> list:
    """The hash exchange on plain Ray tasks, over one or more inputs:
    every row of a key of every input meets in one `apply_fn` call.

    - every input is materialized; one split task per non-empty block
      tags each row with an avalanche hash of that input's `keys[i]`
      columns and slices the block into P parts, returned as task
      returns (part 0 is the row counts), so lineage can rebuild a lost
      slice;
    - the driver reads only the counts and starts one reduce task per
      partition, which concatenates each input's slices as its own table
      and calls apply_fn(*tables) once (see `_reduce_parts` for which
      partitions run and what an empty result is).

    P = `exchange_width(non-empty input blocks)`: at most the block
    count and at most the cluster's CPU count, read after the inputs are
    materialized. Outputs do not depend on P beyond row and block order.

    apply_fn returns `num_outputs` Arrow tables (one table, or a
    tuple); the result is a list of one Dataset per output.
    """
    mats = [materialized(ds) for ds in datasets]
    schemas = [_arrow_schema(m) for m in mats]
    refs = [nonempty_block_refs(m) for m in mats]
    nparts = exchange_width(sum(len(r) for r in refs))
    parts = [refs] if nparts == 1 else _split_blocks(list(zip(refs, keys)), nparts)
    # hold no reference to the input blocks past the submission of the
    # tasks that read them, so input, slices and output are not all
    # resident at once
    del mats, refs
    return _reduce_parts(apply_fn, schemas, parts, required, num_outputs)


@functools.cache
def remote_fn(fn):
    """`ray.remote(fn)`, created once per function."""
    import ray

    return ray.remote(fn)


def partitioned_groupby(ds, keys, apply_fn, *, batch_format: str = "pandas"):
    """High-cardinality groupby: hash-partition by `keys`, then run ONE
    vectorized `apply_fn` call per partition.

    Ray's built-in `groupby(...).aggregate(...)` finalizes per GROUP in
    Python (~20us/group): at millions of distinct keys that is minutes
    (measured: 8M-key Count = 183s on 8 cpus). Here it is the one-input
    form of the hash exchange (`cogroup`), which sizes its own partition
    count from the input's blocks and the cluster's CPUs.

    Every row of a key lands in exactly one partition, so any per-key
    aggregation is exact. The call returns a materialized Dataset with
    no zero-row blocks (a result with no rows is one typed zero-row
    block). For empty input it is `apply_fn` applied to the empty input
    table, when the input has a schema.

    apply_fn: pandas DataFrame (one whole hash partition) -> pandas
    DataFrame. It must itself group by `keys` (e.g.
    df.groupby(keys).agg(...)); partitions are disjoint by key.

    batch_format="pyarrow" hands apply_fn the partition as a pa.Table
    (and expects one back), for callers that filter or project in Arrow
    before any pandas materialization.
    """
    mat = materialized(ds)
    if not nonempty_block_refs(mat) and empty_table(mat).num_columns == 0:
        return mat
    fn = functools.partial(_apply_groups, apply_fn, batch_format)
    return cogroup([mat], [_key_list(keys)], fn)[0]


def _arrow_schema(mat) -> pa.Schema:
    """The Arrow schema of a materialized Dataset: its first non-empty
    Arrow block's, else `empty_table`'s (no fields when it has none)."""
    for _, meta in nonempty_blocks(mat):
        if isinstance(meta.schema, pa.Schema) and meta.schema.names:
            return meta.schema.remove_metadata()
    return empty_table(mat).schema


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


def distinct(ds, keys):
    """Exact distinct over arbitrary-cardinality keys (partitioned)."""
    keys_l = [keys] if isinstance(keys, str) else list(keys)

    def dd(df):
        return df[keys_l].drop_duplicates()

    return partitioned_groupby(ds, keys_l, dd)


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


def cogroup_anti_join(left, right, *, on, right_on=None):
    """Left rows whose `on` key (a column, or a tuple of them) has NO
    match in right's `right_on` — the shuffle anti-join (J5). Both sides
    go through the hash exchange (`cogroup`), so it scales past the
    broadcast-key-set pattern (`broadcast_semi_join`) when the right
    side's distinct-key set is itself big. Null keys match nothing, so
    left rows with a null key are kept."""
    lks = _key_list(on)
    rks = _key_list(right_on) if right_on is not None else lks
    kernel = functools.partial(join_tables, lks=lks, rks=rks, join_type="anti")
    return cogroup([left, right.select_columns(rks)], [lks, rks], kernel,
                   required=(0,))[0]


def asof_join(left, right, *, on: str, right_on: str, by: str, right_by: str,
              tiebreak: list | None = None, keep_unmatched: bool = False):
    """Distributed backward as-of join: for each left row, the single
    right row with the greatest `right_on` <= left `on` within the same
    `by`/`right_by` key — the time-series join the Dataset API lacks
    (M19-adjacent; the "latest state as of event time" primitive).

    Both sides go through the hash exchange (`cogroup`) by key, so a
    partition holds every row of its keys and a single
    `pandas.merge_asof` resolves it exactly — no driver
    materialization, no all-pairs inequality join. `tiebreak` columns
    make equal-`right_on` matches deterministic (the max tiebreak tuple
    wins; merge_asof takes the LAST right row in sort order).
    The right key column is dropped from the output; unmatched left
    rows are dropped unless keep_unmatched (left-join semantics with
    nulls in the right payload).
    """
    left, right = materialized(left), materialized(right)
    lnames = _arrow_schema(left).names
    overlap = set(lnames) & (set(_arrow_schema(right).names) - {right_by})
    if overlap:
        raise ValueError(f"column collision in asof_join: {sorted(overlap)}")
    fold = functools.partial(
        _asof_tables, on=on, right_on=right_on, by=by, right_by=right_by,
        tiebreak=list(tiebreak or []), keep_unmatched=keep_unmatched,
    )
    return cogroup([left, right], [[by], [right_by]], fold,
                   required=(0,) if keep_unmatched else (0, 1))[0]


def _asof_tables(left: pa.Table, right: pa.Table, *, on: str, right_on: str,
                 by: str, right_by: str, tiebreak: list,
                 keep_unmatched: bool) -> pa.Table:
    """One partition of `asof_join`: pandas merge_asof of its two sides."""
    rkey = right[right_by].cast(left[by].type)
    right = right.drop_columns([right_by]).append_column(by, rkey)
    lp = left.to_pandas().sort_values(on, kind="mergesort")
    rp = right.to_pandas().sort_values([right_on] + tiebreak, kind="mergesort")
    out = pd.merge_asof(lp, rp, left_on=on, right_on=right_on, by=by,
                        direction="backward")
    if not keep_unmatched:
        out = out[out[right_on].notna()]
    return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)


def _as_arrow_type(t) -> pa.DataType:
    """Dataset.schema() yields pa.DataType for Arrow blocks but numpy /
    python types for pandas-backed blocks — normalize to Arrow."""
    if isinstance(t, pa.DataType):
        return t
    import numpy as np

    if t in (str, object):
        return pa.string()
    return pa.from_numpy_dtype(np.dtype(t))
