"""Bigram-LM scoring: semantic sanity + parallelism invariance (the SQL
hash-match itself runs in test_queries.py via the CHECKED list)."""

from unittest import mock

import numpy as np
import pyarrow as pa
import ray.data as rd

from fastdup_ray.relational import ops
from fastdup_ray.stages.lm import (lm_cross_entropy, train_bigram_counts,
                                   train_vocab)


def _docs(rows):
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(rows)), pa.int64()),
        "text": pa.array(rows, pa.string()),
    }))


def test_repetitive_text_scores_lower(ray_session):
    # doc 0 repeats one high-frequency bigram; doc 1 is all distinct
    # rare words -> its transitions are near-uniform over the vocab
    common = "the cat " * 30
    rare = " ".join(f"w{i}" for i in range(60))
    filler = ["the cat sat on the mat"] * 5
    ds = _docs([common.strip(), rare] + filler)
    out = {r["doc_id"]: r for r in
           lm_cross_entropy(ds, vocab_k=64).take_all()}
    assert out[0]["cross_entropy"] < out[1]["cross_entropy"]
    assert out[0]["n_tokens"] == 60 and out[1]["n_tokens"] == 60


def test_vocab_cap_and_tiebreak(ray_session):
    ds = _docs(["b b a a c", "d"])
    # counts: a=2 b=2 c=1 d=1 -> cap 2 keeps (a, b) via token-asc tiebreak
    assert train_vocab(ds, 2) == ["a", "b"]


def test_bigram_driver_table_capped(ray_session):
    # large synthetic vocab: 40 docs x unique token streams produce many
    # distinct bigram types; the driver table must respect the budget
    rows = [" ".join(f"t{d}_{i}" for i in range(50)) for d in range(40)]
    ds = _docs(rows)
    cats = train_vocab(ds, 5000) + ["<unk>"]
    full = train_bigram_counts(ds, cats)
    assert len(full) > 640  # the synthetic corpus really is type-rich
    capped = train_bigram_counts(ds, cats, max_bigram_types=640)
    assert len(capped) <= 640
    # the kept rows carry the exact global counts of the uncapped table
    merged = capped.merge(full, on="k", suffixes=("_cap", "_full"))
    assert (merged["c_cap"] == merged["c_full"]).all()
    # under-budget call is exactly the uncapped table
    loose = train_bigram_counts(ds, cats, max_bigram_types=10_000_000)
    assert (loose.sort_values("k").reset_index(drop=True)
            .equals(full.sort_values("k").reset_index(drop=True)))


def test_bigram_table_exact_when_types_fit_budget(ray_session):
    """40 docs in one block give exactly 2,000 bigram types: a budget of
    2,000 returns the whole table, and a smaller budget the global top
    rows by (count desc, key asc), whatever the exchange width."""
    rows = [" ".join(f"t{d}_{i}" for i in range(50)) for d in range(40)]
    ds = _docs(rows)
    cats = train_vocab(ds, 5000) + ["<unk>"]
    full = train_bigram_counts(ds, cats).sort_values("k").reset_index(drop=True)
    assert len(full) == 2000
    fit = train_bigram_counts(ds, cats, max_bigram_types=2000)
    assert fit.sort_values("k").reset_index(drop=True).equals(full)
    top = (full.sort_values(["c", "k"], ascending=[False, True])
           .head(640).sort_values("k").reset_index(drop=True))
    for width in (1, 3):
        with mock.patch.object(ops, "exchange_width", lambda n: width):
            capped = train_bigram_counts(ds, cats, max_bigram_types=640)
        assert capped.sort_values("k").reset_index(drop=True).equals(top), width


def test_parallelism_invariance(ray_session):
    rows = [f"alpha beta w{i % 7} gamma w{i % 3}" for i in range(64)]
    a = lm_cross_entropy(_docs(rows), vocab_k=5).to_pandas()
    b = lm_cross_entropy(_docs(rows).repartition(8), vocab_k=5).to_pandas()
    a = a.sort_values("doc_id").reset_index(drop=True)
    b = b.sort_values("doc_id").reset_index(drop=True)
    assert np.array_equal(a["cross_entropy"].to_numpy(),
                          b["cross_entropy"].to_numpy())
    assert np.array_equal(a["n_tokens"].to_numpy(), b["n_tokens"].to_numpy())
