"""The two-input relational ops (`hash_join`, `cogroup_anti_join`,
`asof_join`) against pandas oracles: one
property test over join types, key kinds, null keys, list payloads,
empty sides, 1-8 partitions and both sides of the broadcast choice,
plus the fixed cases."""

from unittest import mock

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from fastdup_ray.relational import ops
from fastdup_ray.relational.ops import cogroup_anti_join, hash_join

KEYS = {"int": (["k"], ["rk"]), "str": (["s"], ["rs"]),
        "composite": (["k", "s"], ["rk", "rs"])}


def _canon(v):
    """A cell as a plain, hashable, orderable Python value (None for
    null or NaN; integral floats as ints: pandas turns nullable int
    columns into floats)."""
    if isinstance(v, (list, tuple, np.ndarray)):
        return tuple(_canon(x) for x in v)
    if v is None or (isinstance(v, float) and np.isnan(v)):
        return None
    if isinstance(v, (float, np.floating)) and float(v).is_integer():
        return int(v)
    if isinstance(v, np.integer):
        return int(v)
    return v


def _rows(df: pd.DataFrame, cols: list) -> list:
    rows = [tuple(_canon(v) for v in r) for r in zip(*(df[c] for c in cols))]
    return sorted(rows, key=repr)


def _oracle(left, right, lks, rks, how):
    """pandas merge with SQL key semantics: a null key matches nothing."""
    lnull = left[lks].isna().any(axis=1)
    rnull = right[rks].isna().any(axis=1)
    if how == "anti":
        hit = left[~lnull].merge(right.loc[~rnull, rks].drop_duplicates(),
                                 left_on=lks, right_on=rks)["lv"]
        return left[~left["lv"].isin(hit)]
    pd_how = {"inner": "inner", "left_outer": "left", "full_outer": "outer"}[how]
    out = left.merge(right[~rnull], left_on=lks, right_on=rks, how=pd_how)
    if how == "full_outer":
        out = pd.concat([out, right[rnull]], ignore_index=True)
        for lk, rk in zip(lks, rks):
            out[lk] = out[lk].where(out[lk].notna(), out[rk])
    return out.drop(columns=rks)


def _keys(draw, n: int, names: list) -> dict:
    """An int and a string key column of n rows, about 1 in 10 null."""
    null = st.integers(0, 9).map(lambda x: x == 0)
    k = [None if draw(null) else draw(st.integers(0, 7)) for _ in range(n)]
    s = [None if draw(null) else f"s{draw(st.integers(0, 3))}" for _ in range(n)]
    return {names[0]: pa.array(k, pa.int64()), names[1]: pa.array(s, pa.string())}


@st.composite
def _cases(draw):
    tables = []
    for names, n_max in ((["k", "s"], 40), (["rk", "rs"], 25)):
        n = draw(st.integers(0, n_max))
        cols = _keys(draw, n, names)
        if names[0] == "k":
            cols["lv"] = pa.array(np.arange(n), pa.int64())
            cols["ll"] = pa.array([list(range(i % 3)) for i in range(n)],
                                  pa.list_(pa.int64()))
        else:
            cols["rv"] = pa.array([f"r{i}" for i in range(n)], pa.string())
            cols["rl"] = pa.array([[i, i] if i % 4 else None for i in range(n)],
                                  pa.list_(pa.uint32()))
        t = pa.table(cols)
        cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
        tables.append([t.slice(a, b - a) for a, b in zip([0] + cuts, cuts + [n])])
    return (tables, draw(st.sampled_from(sorted(KEYS))), draw(st.integers(1, 8)))


@settings(max_examples=25, deadline=None)
@given(_cases())
def test_joins_match_pandas_oracle(ray_session, case):
    """Inner, left_outer, full_outer and anti joins over int, string and
    composite keys with null keys, list payloads and possibly empty
    sides, at P = 1-8, through the broadcast plan and the exchange:
    the output rows equal a pandas merge's, the columns are the left's
    then the right's without its key, the types are kept, and no output
    block has zero rows."""
    (lblocks, rblocks), key_kind, parts = case
    lks, rks = KEYS[key_kind]
    width = mock.patch.object(ops, "exchange_width", lambda n: parts)
    lt, rt = pa.concat_tables(lblocks), pa.concat_tables(rblocks)
    ldf, rdf = lt.to_pandas(), rt.to_pandas()
    lds, rds = rd.from_arrow(lblocks), rd.from_arrow(rblocks)
    payload = [c for c in rt.column_names if c not in rks]

    for how in ("inner", "left_outer", "full_outer", "anti"):
        want = _oracle(ldf, rdf, lks, rks, how)
        if how == "anti":
            cols = lt.column_names
            with width:
                runs = [cogroup_anti_join(lds, rds, on=tuple(lks), right_on=tuple(rks))]
        else:
            cols = lt.column_names + payload
            runs = []
            for broadcast_rows in (ops._BROADCAST_ROWS, 0):
                with width, mock.patch.object(ops, "_BROADCAST_ROWS", broadcast_rows):
                    runs.append(hash_join(lds, rds, on=tuple(lks), right_on=tuple(rks),
                                          join_type=how))
        for got in runs:
            schema = got.schema().base_schema
            assert schema.names == cols, how
            for c in cols:
                src = lt if c in lt.column_names else rt
                assert schema.field(c).type == src.schema.field(c).type, (how, c)
            metas = [m for b in got.iter_internal_ref_bundles() for _, m in b.blocks]
            assert len(metas) == 1 or all(m.num_rows > 0 for m in metas), how
            out = pa.concat_tables(ray.get(got.to_arrow_refs())).to_pandas()
            assert _rows(out, cols) == _rows(want, cols), how


def test_join_column_collision_is_an_error(ray_session):
    """A right column other than the key that shares a left column's
    name is a ValueError, on both plans."""
    left = rd.from_arrow(pa.table({"k": [1, 2], "v": ["a", "b"]}))
    right = rd.from_arrow(pa.table({"rk": [1], "v": ["c"]}))
    for broadcast_rows in (ops._BROADCAST_ROWS, 0):
        with (pytest.raises(ValueError, match="column collision"),
              mock.patch.object(ops, "_BROADCAST_ROWS", broadcast_rows)):
            hash_join(left, right, on="k", right_on="rk")


def test_cogroup_anti_join(ray_session):
    from fastdup_ray.relational.ops import cogroup_anti_join

    left = rd.from_arrow(pa.table({"k": pa.array([1, 2, 3, 4, 5], pa.int64()),
                                   "v": pa.array(list("abcde"))}))
    right = rd.from_arrow(pa.table({"r": pa.array([2, 4, 4, 9], pa.int64())}))
    out = cogroup_anti_join(left, right, on="k", right_on="r").take_all()
    assert sorted((r["k"], r["v"]) for r in out) == [(1, "a"), (3, "c"), (5, "e")]

    # multi-block sides against pandas truth
    rng = np.random.default_rng(13)
    left = pd.DataFrame({"k": rng.integers(0, 100_000, 5000), "v": np.arange(5000)})
    right = pd.DataFrame({"rk": rng.integers(0, 100_000, 800)})
    got = cogroup_anti_join(rd.from_pandas(left).repartition(9),
                            rd.from_pandas(right).repartition(5),
                            on="k", right_on="rk").to_pandas()
    truth = left[~left["k"].isin(set(right["rk"]))]
    key = ["k", "v"]
    got = got[key].astype(np.int64).sort_values(key).reset_index(drop=True)
    truth = truth[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, truth)


def test_hash_join_broadcast_matches_shuffle(ray_session, monkeypatch):
    """The broadcast small-side path must return exactly what the
    shuffle path returns (left key kept, right key dropped)."""
    import pandas as pd

    from fastdup_ray.relational.ops import hash_join

    rng = np.random.default_rng(11)
    left = pd.DataFrame(
        {"k": rng.integers(0, 50, size=2000), "lv": np.arange(2000)}
    )
    right = pd.DataFrame({"rk": np.arange(0, 40), "name": [f"n{i}" for i in range(40)]})
    lds = rd.from_pandas(left).repartition(7)
    rds = rd.from_pandas(right)

    bc = hash_join(lds, rds, on="k", right_on="rk").to_pandas()
    monkeypatch.setattr(ops, "_BROADCAST_ROWS", 0)
    sh = hash_join(lds, rds, on="k", right_on="rk").to_pandas()
    key = ["k", "lv", "name"]
    assert sorted(bc.columns) == sorted(sh.columns) == sorted(key)
    bc = bc[key].sort_values(key).reset_index(drop=True)
    sh = sh[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(bc, sh)
    # oracle: pandas inner merge
    want = left.merge(right, left_on="k", right_on="rk").drop(columns="rk")
    want = want[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(bc, want, check_dtype=False)


def test_hash_join_broadcast_composite_keys(ray_session):
    """Composite (tuple) join keys must survive the broadcast path."""
    import pandas as pd

    from fastdup_ray.relational.ops import hash_join

    rng = np.random.default_rng(31)
    left = pd.DataFrame({
        "a": rng.integers(0, 10, 500),
        "b": rng.integers(0, 10, 500),
        "lv": np.arange(500),
    })
    right = pd.DataFrame({
        "a": np.repeat(np.arange(10), 10),
        "b": np.tile(np.arange(10), 10),
        "rv": np.arange(100) * 7,
    })
    # same-named composite keys
    got = hash_join(
        rd.from_pandas(left).repartition(5), rd.from_pandas(right),
        on=("a", "b"),
    ).to_pandas()
    want = left.merge(right, on=["a", "b"], how="inner")
    key = ["a", "b", "lv", "rv"]
    got = got[key].sort_values(key).reset_index(drop=True)
    want = want[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_hash_join_broadcast_empty_left_blocks(ray_session, monkeypatch):
    """Broadcast-join output must not carry schema-less empty blocks
    (zero-row shuffle blocks bypass map_batches UDFs): chaining a second
    join after a partitioned_groupby left side must work."""
    import pandas as pd

    from fastdup_ray.relational.ops import hash_join, partitioned_groupby

    left = pd.DataFrame({"k": np.arange(40) % 7, "v": np.arange(40)})

    def agg(df):
        return df.groupby("k", as_index=False).agg(s=("v", "sum"))

    # 32 partitions >> 7 keys: most partitions have no rows
    monkeypatch.setattr(ops, "exchange_width", lambda n: 32)
    lds = partitioned_groupby(rd.from_pandas(left), "k", agg)
    monkeypatch.undo()
    r1 = pd.DataFrame({"rk": np.arange(7), "name": [f"n{i}" for i in range(7)]})
    r2 = pd.DataFrame({"k2": np.arange(7), "extra": np.arange(7) * 3})
    j1 = hash_join(lds, rd.from_pandas(r1), on="k", right_on="rk").materialize()
    j2 = hash_join(j1, rd.from_pandas(r2), on="k", right_on="k2").to_pandas()
    want = agg(left).merge(r1, left_on="k", right_on="rk").drop(columns="rk")
    want = want.merge(r2, left_on="k", right_on="k2").drop(columns="k2")
    key = sorted(want.columns)
    got = j2[key].sort_values(key).reset_index(drop=True)
    want = want[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_asof_join_matches_pandas_oracle(ray_session):
    """Distributed as-of join == a single global merge_asof, including
    deterministic tie-breaks on equal right timestamps."""
    import pandas as pd

    from fastdup_ray.relational.ops import asof_join

    rng = np.random.default_rng(5)
    n_l, n_r = 3000, 2000
    left = pd.DataFrame({
        "lid": np.arange(n_l),
        "k": rng.integers(0, 40, n_l),
        "t": rng.integers(0, 10_000, n_l).astype("datetime64[s]"),
    })
    right = pd.DataFrame({
        "rk": rng.integers(0, 45, n_r),  # some keys only on one side
        "rt": rng.integers(0, 10_000, n_r).astype("datetime64[s]"),
        "rid": np.arange(n_r),
        "payload": rng.standard_normal(n_r),
    })
    # force right-timestamp ties within a key so the tiebreak matters
    right.loc[:200, "rt"] = right.loc[0, "rt"]
    right.loc[:200, "rk"] = right.loc[0, "rk"]

    got = asof_join(
        rd.from_pandas(left).repartition(9),
        rd.from_pandas(right).repartition(7),
        on="t", right_on="rt", by="k", right_by="rk", tiebreak=["rid"],
    ).to_pandas()

    ls = left.sort_values("t", kind="mergesort")
    rs = right.sort_values(["rt", "rid"], kind="mergesort").rename(
        columns={"rk": "k"}
    )
    want = pd.merge_asof(ls, rs, left_on="t", right_on="rt", by="k",
                         direction="backward")
    want = want[want["rt"].notna()]

    key = ["lid", "k", "rid"]
    got = got[key].astype(np.int64).sort_values(key).reset_index(drop=True)
    want = want[key].astype(np.int64).sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_cogroup_anti_join_string_keys(ray_session):
    """String keys (urls/domains) go through the exchange."""
    left = pd.DataFrame({
        "u": [f"https://site{i}.com/p" for i in range(300)],
        "v": np.arange(300),
    })
    right = pd.DataFrame({"ru": [f"https://site{i}.com/p" for i in range(0, 300, 3)]})
    got = cogroup_anti_join(
        rd.from_pandas(left).repartition(4), rd.from_pandas(right),
        on="u", right_on="ru",
    ).to_pandas()
    want = left[~left["u"].isin(set(right["ru"]))]
    assert sorted(got["v"].astype(int)) == sorted(want["v"])
