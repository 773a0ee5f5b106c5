"""partitioned_groupby's hash exchange against a pandas groupby oracle:
int, string and composite keys, 1-8 input blocks (some empty), 1-8
partitions, empty input and a single shared key; the exchange width
rule; and the bounded-driver-memory quantile built on `combine_aggregate`."""

import uuid
from unittest import mock

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from fastdup_ray.relational import ops
from fastdup_ray.relational.ops import partitioned_groupby

KEYS = {"int": ["k"], "str": ["s"], "composite": ["k", "s"]}


def _aggregator(keys: list, batch_format: str):
    """apply_fn: per-key row count and value sum, tagged with an id
    unique to the call, so a key that reached two calls shows up twice.
    Built as a closure so Ray ships it by value to the workers."""
    def aggregate(d: pd.DataFrame) -> pd.DataFrame:
        out = d.groupby(keys, as_index=False).agg(n=("v", "size"),
                                                  total=("v", "sum"))
        out["call"] = uuid.uuid4().hex
        return out

    if batch_format == "pandas":
        return aggregate
    return lambda t: pa.Table.from_pandas(aggregate(t.to_pandas()),
                                          preserve_index=False)


@st.composite
def _inputs(draw):
    n = draw(st.integers(0, 120))
    one_key = draw(st.booleans())
    n_keys = 1 if one_key else draw(st.integers(1, 40))
    ks = draw(st.lists(st.integers(-(2**40), 2**40), min_size=n_keys,
                       max_size=n_keys))
    pick = draw(st.lists(st.integers(0, n_keys - 1), min_size=n, max_size=n))
    df = pd.DataFrame({
        "k": np.array([ks[i] for i in pick], np.int64),
        "s": [f"key-{ks[i] % 7}" for i in pick],
        "v": np.arange(n, dtype=np.int64),
    })
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=0, max_size=7)))
    blocks = [df.iloc[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    return (df, blocks, draw(st.sampled_from(sorted(KEYS))),
            draw(st.integers(1, 8)), draw(st.sampled_from(["pandas", "pyarrow"])))


@settings(max_examples=40, deadline=None)
@given(_inputs())
def test_partitioned_groupby_matches_pandas_oracle(ray_session, case):
    """Output multiset == pandas groupby; each key reaches exactly one
    apply_fn call; no output block has zero rows or zero columns; empty
    input gives apply_fn's typed empty result."""
    df, blocks, key_kind, parts, batch_format = case
    keys = KEYS[key_kind]
    ds = rd.from_arrow([pa.Table.from_pandas(b, preserve_index=False)
                        for b in blocks])

    fn = _aggregator(keys, batch_format)
    with mock.patch.object(ops, "exchange_width", lambda n: parts):
        out = partitioned_groupby(ds, keys, fn, batch_format=batch_format)
    cols = keys + ["n", "total", "call"]
    assert [f.name for f in out.schema().base_schema] == cols

    metas = [m for b in out.iter_internal_ref_bundles() for _, m in b.blocks]
    if df.empty:
        assert out.count() == 0
        return
    assert metas and all(m.num_rows > 0 for m in metas)
    tables = [ray.get(r) for r in out.to_arrow_refs()]
    assert all(t.num_columns == len(cols) for t in tables)

    got = pd.concat([t.to_pandas() for t in tables], ignore_index=True)
    # one output row per key: a key split across two calls appears twice
    assert not got.duplicated(keys).any()
    # every apply_fn call saw whole keys only; calls <= partitions
    assert got["call"].nunique() <= parts
    expect = df.groupby(keys, as_index=False).agg(n=("v", "size"),
                                                  total=("v", "sum"))
    sort = lambda d: d[keys + ["n", "total"]].sort_values(keys).reset_index(drop=True)  # noqa: E731
    pd.testing.assert_frame_equal(sort(got), sort(expect), check_dtype=False)


def test_partitioned_groupby_uses_at_most_one_partition_per_input_block(ray_session):
    """P = min(non-empty input blocks, cluster CPUs): three blocks give
    at most three apply_fn calls, and eight blocks on the 4-CPU test
    session at most four."""
    assert [ops.exchange_width(n) for n in (0, 1, 3, 4, 8, 64)] == [1, 1, 3, 4, 4, 4]
    df = pd.DataFrame({"k": np.arange(300, dtype=np.int64), "v": 1})
    for blocks, calls in ((3, 3), (8, 4)):
        ds = rd.from_pandas([df.iloc[i::blocks] for i in range(blocks)])
        got = partitioned_groupby(ds, "k", _aggregator(["k"], "pandas")).to_pandas()
        assert len(got) == 300 and got["call"].nunique() <= calls


def test_distinct_value_quantile_bounded(ray_session):
    """A7 quantile contract: exact under the distinct budget, fixed-grid
    histogram above it with driver rows <= budget and threshold within
    one bin width of the true quantile (neardup outliers' scale path)."""
    from fastdup_ray.relational.ops import distinct_value_quantile

    # exact path: small distinct set, threshold = smallest v with
    # cumfrac >= q (ties and duplicates included)
    vals = [0.1] * 10 + [0.2] * 30 + [0.5] * 60
    ds = rd.from_arrow(
        pa.table({"distance": pa.array(vals, pa.float64())})
    ).repartition(4)
    thr, diag = distinct_value_quantile(ds, "distance", 0.05,
                                        distinct_budget=1000)
    assert diag["mode"] == "exact" and thr == 0.1
    thr, _ = distinct_value_quantile(ds, "distance", 0.3, distinct_budget=1000)
    assert thr == 0.2

    # grid path: 2,000,000 DISTINCT distances >> budget; driver holds at
    # most `budget` histogram rows, threshold within one bin of truth
    n, budget = 2_000_000, 50_000
    import pyarrow.compute as pc

    base = rd.range(n, override_num_blocks=16)
    dist = base.map_batches(
        lambda b: pa.table(
            {"distance": pc.divide(pc.cast(b["id"], pa.float64()), float(n))}
        ),
        batch_format="pyarrow",
    ).materialize()
    q = 0.05
    thr, diag = distinct_value_quantile(
        dist, "distance", q, distinct_budget=budget, grid=(0.0, 1.0)
    )
    assert diag["mode"] == "grid"
    assert diag["rows_collected"] <= budget  # driver memory bound
    tol = 1.0 / budget
    assert q - 1e-12 <= thr <= q + tol + 1e-9, thr
    # never under-selects: fraction(<= thr) >= q
    sel = dist.map_batches(
        lambda b: b.filter(pc.less_equal(b["distance"], pa.scalar(thr))),
        batch_format="pyarrow",
    ).count()
    assert sel / n >= q
    assert sel / n <= q + 2 * tol
