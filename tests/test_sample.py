"""Deterministic hash sampling: parallelism invariance + exact-N
semantics (oracle hash-match lives in test_queries.py)."""

import ray.data as rd

from fastdup_ray.stages.sample import hash_sample, stratified_fixed_n

SF = "/root/testdata/sf0.001/documents.parquet"


def _ids(ds):
    return sorted(r["doc_id"] for r in ds.take_all())


def test_hash_sample_parallelism_invariant(ray_session):
    docs1 = rd.read_parquet(SF, columns=["doc_id", "lang"]).repartition(1)
    docs8 = rd.read_parquet(SF, columns=["doc_id", "lang"]).repartition(8)
    kw = dict(key="doc_id", group_col="lang", rates={"en": 0.2},
              default_rate=0.6, salt=99)
    a, b = _ids(hash_sample(docs1, **kw)), _ids(hash_sample(docs8, **kw))
    assert a == b and 0 < len(a) < 500


def test_fixed_n_exact_group_sizes(ray_session):
    docs = rd.read_parquet(SF, columns=["doc_id", "lang"]).repartition(8)
    out = stratified_fixed_n(docs, n=30, key="doc_id", group_col="lang",
                             salt=7).take_all()
    sizes = {}
    for r in out:
        sizes[r["lang"]] = sizes.get(r["lang"], 0) + 1
    assert sizes == {g: 30 for g in ["en", "fr", "es", "zh", "de"]}
    # invariance across block layouts
    out1 = stratified_fixed_n(
        rd.read_parquet(SF, columns=["doc_id", "lang"]).repartition(2),
        n=30, key="doc_id", group_col="lang", salt=7).take_all()
    assert sorted((r["lang"], r["doc_id"]) for r in out) == \
           sorted((r["lang"], r["doc_id"]) for r in out1)


def _pandas_top_n(df, n):
    """Oracle: per group, the n rows smallest by (unsigned hash, key in
    its own signed order)."""
    import numpy as np

    df = df.assign(_hu=df["h"].to_numpy().astype(np.uint64))
    kept = (df.sort_values(["_hu", "key"], kind="mergesort")
              .groupby("g", sort=False).head(n))
    return sorted(kept.index.tolist())


def test_top_n_rows_breaks_hash_ties_by_signed_key():
    """Hash ties fall back to the key; negative int64 keys must order
    before non-negative ones, exactly like a pandas sort."""
    import numpy as np
    import pandas as pd

    from fastdup_ray.stages.sample import _top_n_rows

    rng = np.random.default_rng(3)
    for n in (1, 3, 10):
        keys = rng.choice(np.arange(-500, 500), 300, replace=False).astype(np.int64)
        h = rng.integers(0, 4, 300).astype(np.uint64)  # forced ties
        codes = rng.integers(0, 3, 300).astype(np.int64)
        df = pd.DataFrame({"g": codes, "h": h, "key": keys})
        got = _top_n_rows(codes, h, keys, n).tolist()
        assert got == _pandas_top_n(df, n), n


def test_fixed_n_negative_doc_ids_match_pandas_oracle(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from fastdup_ray.functions.hashing import mix64

    rng = np.random.default_rng(11)
    ids = rng.choice(np.arange(-(1 << 40), 1 << 40, 7919), 400,
                     replace=False).astype(np.int64)
    langs = rng.choice(["en", "fr", "de"], 400)
    tbl = pa.table({"doc_id": pa.array(ids), "lang": pa.array(langs)})
    got = stratified_fixed_n(rd.from_arrow(tbl).repartition(4), n=25,
                             key="doc_id", group_col="lang", salt=5).take_all()
    h = mix64(ids.astype(np.uint64) ^ np.uint64(5))
    df = pd.DataFrame({"g": langs, "h": h.astype(np.int64), "key": ids})
    want = sorted(ids[_pandas_top_n(df, 25)].tolist())
    assert sorted(r["doc_id"] for r in got) == want
