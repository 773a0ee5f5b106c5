"""Query catalog vs DuckDB oracles (the driver's correctness gate, in
miniature) + recall of the probabilistic MinHash path against the exact
n-gram-Jaccard oracle query."""

import duckdb
import numpy as np
import pandas as pd
import pytest

from fastdup_ray.pipelines.queries import oracle_sql, queries

SF_DIR = "/root/testdata/sf0.001"

# fast-oracled queries worth running per-commit (the heavyweight ones —
# ngram_jaccard_pairs, minhash_components — run in test_minhash_recall)
CHECKED = [
    "doc_stats",
    "exact_dup_components",
    "lang_summary",
    "source_topk",
    "chars_p90",
    "prefix_dup_pairs",
    "token_totals",
    "ann_topk",
    "windowed_events",
    "customer_revenue_topk",
    "customers_without_orders",
    "pricing_summary",
    "stats_filtered_dups",
    "component_majority_label",
    "majority_keep",
    "url_components",
    "knn_lists",
    "kmeans_assign",
    "kmeans_topk",
    "dedup_survivors",
    "domain_pair_summary",
    "text_quality",
    "pagerank",
    "lang_confusion",
    "top_docs_per_source",
    "simhash_fingerprints",
    "simhash_near_dup_pairs",
    "substring_dup_pairs",
    "ivf_probe_topk",
    "token_pack_shards",
    "hll_distinct_grams",
    "span_dedup_spans",
    "span_dedup_docs",
    "stratified_sample",
    "stratified_fixed_n",
    "redacted_events",
    "pii_redact",
    "shuffle_positions",
    "vocab_topk",
    "doc_chunks",
    "lm_cross_entropy",
    "doc_embeddings",
    # round-4: every remaining oracled query (heavyweights
    # ngram_jaccard_pairs / minhash_components keep their own dedicated
    # recall test below)
    "ann_ivf_topk",
    "benchmark_contamination",
    "contamination_ngrams",
    "temperature_mix",
    "bpe_token_counts",
    "customers_without_events",
    "doc_captions",
    "dup_size_histogram",
    "embedding_dup_pairs",
    "embedding_lsh_pairs",
    "entity_span_counts",
    "hierarchical_components",
    "label_score",
    "last_order_before_event",
    "leakage_safe_split",
    "outliers",
    "recent_events",
    "sessionize",
    "winnow_dup_pairs",
    "winnow_fingerprints",
    "word_repetition_stats",
    "zero_shot_labels",
    # round-4b additions
    "semdedup",
    "dsir_weights",
    "pmi_collocations",
    "heavy_hitters",
    "nb_classify",
]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    return c


def _to_df(res) -> pd.DataFrame:
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    return pd.DataFrame(res)


def _compare(df: pd.DataFrame, odf: pd.DataFrame) -> None:
    assert len(df) == len(odf), f"row count {len(df)} != {len(odf)}"
    cols = sorted(df.columns)
    assert cols == sorted(odf.columns), f"schema {cols} != {sorted(odf.columns)}"
    a = df[cols].sort_values(cols).reset_index(drop=True)
    b = odf[cols].sort_values(cols).reset_index(drop=True)
    for c in cols:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if a[c].dtype.kind == "f":
            assert np.array_equal(av, bv, equal_nan=True), f"col {c} differs"
        else:
            assert (av == bv).all(), f"col {c} differs"


@pytest.mark.parametrize("name", CHECKED)
def test_query_matches_oracle(ray_session, con, name):
    res = queries()[name](SF_DIR)
    _compare(_to_df(res), con.sql(oracle_sql()[name]).df())


def test_minhash_recall_vs_exact_oracle(ray_session, con):
    """Dup-pair recall >= 0.99: every exact-Jaccard pair (J >= 0.9, the
    n-gram oracle) must land in one MinHash/LSH component."""
    exact = con.sql(oracle_sql()["ngram_jaccard_pairs"]).df()
    comp = {
        r["doc_id"]: r["component_id"]
        for r in queries()["minhash_components"](SF_DIR).take_all()
    }
    assert len(exact) >= 20
    missed = [
        (s, d)
        for s, d in zip(exact["src"], exact["dst"])
        if comp.get(s, s) != comp.get(d, d)
    ]
    recall = 1 - len(missed) / len(exact)
    assert recall >= 0.99, f"recall {recall:.4f} ({len(missed)}/{len(exact)} missed)"


def test_ngram_query_matches_oracle(ray_session, con):
    res = queries()["ngram_jaccard_pairs"](SF_DIR)
    _compare(_to_df(res), con.sql(oracle_sql()["ngram_jaccard_pairs"]).df())


def test_simhash_fingerprints_deterministic(ray_session):
    a = _to_df(queries()["simhash_fingerprints"](SF_DIR)).sort_values("doc_id")
    b = _to_df(queries()["simhash_fingerprints"](SF_DIR)).sort_values("doc_id")
    assert (a["simhash"].to_numpy() == b["simhash"].to_numpy()).all()
    assert (a["simhash"] != 0).mean() > 0.95
