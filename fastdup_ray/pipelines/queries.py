"""Driver-facing query catalog: one entry per implemented operator family
(SURVEY.md §2), each as a Ray Data pipeline over the testdata tables, with
a DuckDB oracle-SQL twin where the semantics are SQL-expressible.

Column names and rounding are kept EXACTLY in sync between each Ray
pipeline and its SQL twin — the driver hashes values after sorting
columns by name, so any drift is a correctness failure.

Conventions:
- all ratios/aggregated doubles are rounded (6 dp for per-row stats,
  4 dp wide aggregates, 2 dp money, 5 dp cosines) on BOTH sides;
- deterministic tiebreaks on every top-k (secondary sort on the key);
- each query reads only the columns it needs (prune at the read).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data.aggregate import Max, Sum

from fastdup_ray.config import DedupConfig
from fastdup_ray.relational.ops import (
    combine_aggregate,
    hash_join,
    partitioned_groupby,
)
from fastdup_ray.pipelines.sql_hash import (
    SQL_SIMHASH_FINGERPRINTS,
    SQL_SIMHASH_NEAR_DUP_PAIRS,
    sql_hll_distinct_grams,
    sql_winnow_dup_pairs,
    sql_winnow_fingerprints,
)
from fastdup_ray.stages.stats import TextStatsStage



def _int_round(x: np.ndarray) -> np.ndarray:
    """Half-UP integer rounding: floor(x+0.5). numpy's np.round is
    half-to-even while DuckDB's ROUND is half-away-from-zero — they
    disagree on exactly-representable X.5 (e.g. 81774.75*0.94*100).
    Both sides of every oracle pair use floor(x+0.5) instead."""
    return np.floor(x + 0.5).astype(np.int64)

def _t(sf_dir: str, name: str, columns=None):
    # replace_schema_metadata(None): parquet files written by pandas carry
    # a nested-dict 'pandas' schema-metadata entry that makes block
    # schemas unhashable inside Ray's schema dedup ("Failed to hash the
    # schemas" warnings in shuffle reduce tasks); stripping it here is
    # zero-copy and fuses into the read stage
    return rd.read_parquet(f"{sf_dir}/{name}.parquet", columns=columns).map_batches(
        lambda b: b.replace_schema_metadata(None), batch_format="pyarrow"
    )


# ----------------------------------------------------------------- doc stats
def q_doc_stats(sf_dir: str):
    """M6 analog: per-doc text statistics (SQL-checkable subset)."""
    stats = _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        TextStatsStage(), batch_format="pyarrow", batch_size=2048
    )
    return stats.select_columns(
        ["doc_id", "n_chars", "n_tokens", "n_lines", "uniq_token_ratio",
         "mean_word_len", "digit_ratio", "non_ascii_ratio"]
    )


SQL_DOC_STATS = r"""
SELECT doc_id,
  length(text) AS n_chars,
  CASE WHEN trim(text)='' THEN 0 ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS n_tokens,
  CASE WHEN length(text)=0 THEN 0 ELSE length(text) - length(replace(text, chr(10), '')) + 1 END AS n_lines,
  ROUND(CASE WHEN trim(text)='' THEN 0 ELSE len(list_distinct(regexp_split_to_array(trim(text), '\s+')))::DOUBLE / len(regexp_split_to_array(trim(text), '\s+')) END, 6) AS uniq_token_ratio,
  ROUND(length(regexp_replace(text, '\s', '', 'g'))::DOUBLE / len(regexp_split_to_array(trim(text), '\s+')), 6) AS mean_word_len,
  ROUND(length(regexp_replace(text, '[^0-9]', '', 'g'))::DOUBLE / length(text), 6) AS digit_ratio,
  ROUND((length(text) - length(regexp_replace(text, '[^\x00-\x7F]', '', 'g')))::DOUBLE / length(text), 6) AS non_ascii_ratio
FROM documents
"""


# --------------------------------------------------------------- exact dedup
def q_exact_dup_components(sf_dir: str):
    """D1/D4 analog: exact dedup by content hash — component id = min doc_id
    among byte-identical texts (hash-partitioned groupby, no O(n^2))."""
    from fastdup_ray.functions.hashing import id63

    def keyed(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "content_key": pa.array(id63(batch["text"]), pa.int64()),
            }
        )

    ds = _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        keyed, batch_format="pyarrow"
    )

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["component_id"] = df.groupby("content_key")["doc_id"].transform("min")
        return df[["doc_id", "component_id"]]

    return partitioned_groupby(ds, "content_key", assign)


SQL_EXACT_DUP_COMPONENTS = """
SELECT doc_id, min(doc_id) OVER (PARTITION BY text) AS component_id FROM documents
"""


def q_leakage_safe_split(sf_dir: str):
    """Leakage-safe train/test split (M16 analog upgraded for training
    data): the split unit is the duplicate COMPONENT (shared-64-char-
    prefix clusters here), so no near-dup pair straddles train/test.
    Grouping is by the actual prefix string (partition hash only routes;
    the per-partition groupby compares real values — exact)."""
    from fastdup_ray.stages.splits import leakage_safe_split

    def keyed(batch: pa.Table) -> pa.Table:
        # python slicing = code POINTS, the same unit as SQL substr
        # (dup_size_histogram precedent); NULL text -> '' on both sides
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "pfx": pa.array(
                    [(t or "")[:64] for t in batch["text"].to_pylist()],
                    pa.string(),
                ),
            }
        )

    ds = _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        keyed, batch_format="pyarrow"
    )

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["component_id"] = df.groupby("pfx")["doc_id"].transform("min")
        return df[["doc_id", "component_id"]]

    comp = partitioned_groupby(ds, "pfx", assign)
    return leakage_safe_split(comp)


SQL_LEAKAGE_SAFE_SPLIT = """
WITH comp AS (
  SELECT doc_id,
         min(doc_id) OVER (PARTITION BY substr(coalesce(text, ''), 1, 64))
           AS component_id
  FROM documents
)
SELECT doc_id, component_id,
       CASE WHEN component_id % 10 < 2 THEN 'test' ELSE 'train' END AS split
FROM comp
"""


def q_dup_size_histogram(sf_dir: str):
    """A3 analog (component size counts): distribution of duplicate-
    cluster sizes — (size, n_components), size >= 2 — over shared-prefix
    clusters (the fixtures contain prefix dups, not byte-identical
    texts). Two partial aggregations: per-cluster count (hash-partitioned
    by prefix key) then a tiny histogram groupby."""
    from fastdup_ray.functions.hashing import id63

    def keyed(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        return pa.table(
            {"key": pa.array(id63([t[:64] for t in texts]), pa.int64())}
        )

    ds = _t(sf_dir, "documents", ["text"]).map_batches(
        keyed, batch_format="pyarrow"
    )

    def sizes(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("key", as_index=False, sort=False).size()
        return g.rename(columns={"size": "sz"})

    sized = partitioned_groupby(ds, "key", sizes)

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["sz"] >= 2]
        g = df.groupby("sz", as_index=False, sort=False).size()
        return g.rename(columns={"sz": "size", "size": "n_components"})

    # histogram keys are cluster SIZES (tiny domain): combiner, no shuffle
    out = combine_aggregate(sized, "size", hist)
    from fastdup_ray.relational.ops import with_schema

    # tiny result: canonicalize so an all-empty outcome still has the
    # declared schema for the driver's compare
    return with_schema(out, {"size": pa.int64(), "n_components": pa.int64()})


SQL_DUP_SIZE_HISTOGRAM = """
WITH comp AS (
  SELECT count(*) AS size FROM documents GROUP BY substr(text, 1, 64)
)
SELECT size, count(*) AS n_components FROM comp WHERE size >= 2 GROUP BY size
"""


def q_recent_events(sf_dir: str):
    """M19 recency selector: events within 7 days of the stream's max
    timestamp -> per-type count + value sum. The cutoff is computed from
    the data (tiny driver aggregate), the filter runs in the tasks."""
    import datetime

    from ray.data.aggregate import Max

    ev = _t(sf_dir, "events", ["ts", "event_type", "value"])
    max_ts = ev.aggregate(Max("ts", alias_name="m"))["m"]
    cutoff = max_ts - datetime.timedelta(days=7)

    recent = ev.map_batches(
        lambda b: b.filter(pc.greater_equal(b["ts"], pa.scalar(cutoff))),
        batch_format="pyarrow",
    )

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("event_type", as_index=False, sort=False).agg(
            n=("value", "size"), value_sum=("value", "sum")
        )
        g["value_sum"] = np.round(g["value_sum"], 4)
        return g

    return partitioned_groupby(recent, "event_type", agg)


SQL_RECENT_EVENTS = """
SELECT event_type, count(*) AS n, ROUND(sum(value), 4) AS value_sum
FROM events
WHERE ts >= (SELECT max(ts) - INTERVAL 7 DAY FROM events)
GROUP BY event_type
"""


# --------------------------------------------------------------- lang summary
def q_lang_summary(sf_dir: str):
    """A8/A9 analog: per-language corpus digest (combiner pattern:
    per-batch partials, task-side tree merge — no shuffle for a
    languages-sized key domain)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("lang", as_index=False, sort=False).agg(
            n_docs=("n_chars", "size"), total_chars=("n_chars", "sum")
        )

    agg = combine_aggregate(
        _t(sf_dir, "documents", ["lang", "n_chars"]), "lang", partial
    )

    def finish(batch: pa.Table) -> pa.Table:
        total = batch["total_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch["n_docs"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "lang": batch["lang"],
                "n_docs": pa.array(n, pa.int64()),
                "total_chars": pa.array(total, pa.int64()),
                "avg_chars": pa.array(np.round(total / n, 4), pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


SQL_LANG_SUMMARY = """
SELECT lang, count(*) AS n_docs, CAST(sum(n_chars) AS BIGINT) AS total_chars,
       ROUND(sum(n_chars)::DOUBLE / count(*), 4) AS avg_chars
FROM documents GROUP BY lang
"""


# --------------------------------------------------------------- source top-k
def q_source_topk(sf_dir: str):
    """O3 analog: top components by size -> top sources by doc count."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("source", as_index=False, sort=False).agg(
            n_docs=("source", "size")
        )

    return (
        combine_aggregate(_t(sf_dir, "documents", ["source"]), "source", partial)
        .sort(["n_docs", "source"], descending=[True, False])
        .limit(10)
    )


SQL_SOURCE_TOPK = """
SELECT source, count(*) AS n_docs FROM documents
GROUP BY source ORDER BY n_docs DESC, source ASC LIMIT 10
"""


# --------------------------------------------------- exact quantile threshold
def q_chars_p90(sf_dir: str):
    """M18/A7 analog: percentile thresholding, computed EXACTLY and
    scalably via the integer-metric distribution (groupby n_chars + counts
    to the driver; never a full sort)."""
    ds = _t(sf_dir, "documents", ["doc_id", "n_chars"])
    dist = combine_aggregate(
        ds,
        "n_chars",
        lambda df: df.groupby("n_chars", as_index=False, sort=False).agg(
            c=("n_chars", "size")
        ),
    ).take_all()
    dist.sort(key=lambda r: r["n_chars"])
    total = sum(r["c"] for r in dist)
    cum = 0
    threshold = dist[-1]["n_chars"]
    for r in dist:
        cum += r["c"]
        if cum / total >= 0.9:
            threshold = r["n_chars"]
            break
    return ds.map_batches(
        lambda b: b.filter(pc.greater_equal(b["n_chars"], pa.scalar(threshold))),
        batch_format="pyarrow",
    )


SQL_CHARS_P90 = """
SELECT doc_id, n_chars FROM documents
WHERE n_chars >= (
  SELECT min(n_chars) FROM (
    SELECT n_chars, cume_dist() OVER (ORDER BY n_chars) AS cd FROM documents
  ) WHERE cd >= 0.9
)
"""


# ------------------------------------------------------------ prefix dup pairs
def q_prefix_dup_pairs(sf_dir: str):
    """G1-lite with an exact oracle: candidate pairs sharing an identical
    64-char prefix (bucket groupby + intra-bucket pair emission — the same
    shuffle shape as the LSH stage, but SQL-checkable)."""
    from fastdup_ray.functions.hashing import id63

    def keyed(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "bucket": pa.array(id63([t[:64] for t in texts]), pa.int64()),
            }
        )

    from fastdup_ray.stages.lsh import make_emit_partition

    return partitioned_groupby(
        _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            keyed, batch_format="pyarrow"
        ),
        "bucket",
        make_emit_partition(max_bucket_pairs=1_000_000),  # exact: no star cap
    )


SQL_PREFIX_DUP_PAIRS = """
SELECT a.doc_id AS src, b.doc_id AS dst
FROM documents a JOIN documents b
ON substr(a.text, 1, 64) = substr(b.text, 1, 64) AND a.doc_id < b.doc_id
"""


# ------------------------------------------------------------- token totals
def q_token_totals(sf_dir: str):
    """Pre-aggregation pattern: per-batch partial token sums, then a tiny
    groupby — the combiner idiom the reference lacks (single-process)."""

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "lang": batch["lang"].to_pylist(),
                "tok": [len(t.split()) for t in batch["text"].to_pylist()],
            }
        )
        g = df.groupby("lang", as_index=False)["tok"].sum()
        return pa.table({"lang": g["lang"].astype(str), "tok": g["tok"].astype(np.int64)})

    return (
        _t(sf_dir, "documents", ["lang", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("tok", alias_name="total_tokens"))
    )


SQL_TOKEN_TOTALS = r"""
SELECT lang,
  CAST(sum(CASE WHEN trim(text)='' THEN 0 ELSE len(regexp_split_to_array(trim(text), '\s+')) END) AS BIGINT) AS total_tokens
FROM documents GROUP BY lang
"""


# --------------------------------------------------- n-gram Jaccard near-dup
def q_ngram_jaccard_pairs(sf_dir: str, threshold: float = 0.9):
    """Exact char-5-gram Jaccard near-dup pairs via a shingle inverted
    index (shingle -> doc list groupby -> co-occurrence counts), the
    SQL-checkable exact counterpart of the MinHash path. Cost is
    sum-of-df^2 over shingles — fine at oracle scale; the MinHash/LSH
    pipeline is the 100TB path (see q_minhash_components)."""
    k = 5

    def shingle_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        gs: list[str] = []
        ds_: list[int] = []
        for i, t in enumerate(batch["text"].to_pylist()):
            if len(t) >= k:
                uniq = {t[j : j + k] for j in range(len(t) - k + 1)}
                gs.extend(uniq)
                ds_.extend([int(ids[i])] * len(uniq))
        return pa.table({"g": pa.array(gs, pa.string()), "doc_id": pa.array(ds_, pa.int64())})

    sh = (
        _t(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(shingle_rows, batch_format="pyarrow")
        .materialize()
    )

    def size_agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", as_index=False, sort=False).size()
        return g.rename(columns={"size": "sz"})

    sizes = partitioned_groupby(sh, "doc_id", size_agg)

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized clique pair emission (same segment construction as
        # lsh.make_emit_partition), with a run-length co-occurrence count
        # instead of dedup. factorize = exact string grouping, no hashing.
        empty = pd.DataFrame(
            {
                "src": np.empty(0, np.int64),
                "dst": np.empty(0, np.int64),
                "pc": np.empty(0, np.int64),
            }
        )
        if not len(df):
            return empty
        b = pd.factorize(df["g"], sort=False)[0].astype(np.int64, copy=False)
        d = df["doc_id"].to_numpy().astype(np.int64, copy=False)
        order = np.lexsort((d, b))
        b, d = b[order], d[order]
        starts = np.flatnonzero(np.concatenate([[True], b[1:] != b[:-1]]))
        counts = np.diff(np.append(starts, b.size))
        pos = np.arange(b.size, dtype=np.int64)
        seg_m = np.repeat(counts, counts)
        loc = pos - np.repeat(starts, counts)
        rep = seg_m - 1 - loc  # doc ids sorted within segment => src < dst
        total = int(rep.sum())
        if total == 0:
            return empty
        src = np.repeat(d, rep)
        csum = np.cumsum(rep) - rep
        off = np.arange(total, dtype=np.int64) - np.repeat(csum, rep)
        dst = d[np.repeat(pos + 1, rep) + off]
        # partial pre-aggregation: count pair co-occurrences within this
        # partition before the global (src,dst) exchange
        ko = np.lexsort((dst, src))
        src, dst = src[ko], dst[ko]
        new = np.ones(src.size, dtype=bool)
        new[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        idx = np.flatnonzero(new)
        pc = np.diff(np.append(idx, src.size)).astype(np.int64)
        return pd.DataFrame({"src": src[idx], "dst": dst[idx], "pc": pc})

    partial_counts = partitioned_groupby(sh, "g", emit)

    def count_agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["src", "dst"], as_index=False, sort=False)["pc"].sum()
        return g.rename(columns={"pc": "c"})

    inter = partitioned_groupby(partial_counts, ["src", "dst"], count_agg).materialize()

    j1 = hash_join(
        inter, sizes.rename_columns({"doc_id": "k1", "sz": "sz_src"}),
        on="src", right_on="k1",
    ).materialize()
    j2 = hash_join(
        j1, sizes.rename_columns({"doc_id": "k2", "sz": "sz_dst"}),
        on="dst", right_on="k2",
    )

    def finish(batch: pa.Table) -> pa.Table:
        c = batch["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        sa = batch["sz_src"].to_numpy(zero_copy_only=False).astype(np.float64)
        sb = batch["sz_dst"].to_numpy(zero_copy_only=False).astype(np.float64)
        dist = c / (sa + sb - c)
        keep = dist >= threshold
        return pa.table(
            {
                "src": batch["src"].filter(pa.array(keep)),
                "dst": batch["dst"].filter(pa.array(keep)),
                "distance": pa.array(np.round(dist[keep], 6), pa.float64()),
            }
        )

    return j2.map_batches(finish, batch_format="pyarrow")


SQL_NGRAM_JACCARD_PAIRS = """
WITH docs AS (SELECT doc_id, text, length(text) AS L FROM documents),
nums AS (SELECT unnest(range(1, (SELECT coalesce(max(L),1) FROM docs)+1)) AS i),
sh AS (
  SELECT DISTINCT d.doc_id, substr(d.text, n.i::INT, 5) AS g
  FROM docs d JOIN nums n ON n.i <= d.L - 4
),
sizes AS (SELECT doc_id, count(*) sz FROM sh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS src, b.doc_id AS dst, count(*) AS c
  FROM sh a JOIN sh b ON a.g = b.g AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT src, dst, ROUND(c::DOUBLE/(sa.sz+sb.sz-c), 6) AS distance
FROM inter JOIN sizes sa ON sa.doc_id = src JOIN sizes sb ON sb.doc_id = dst
WHERE c::DOUBLE/(sa.sz+sb.sz-c) >= 0.9
"""


# ----------------------------------------------------------- minhash pipeline
def q_minhash_components(sf_dir: str, threshold: float = 0.9):
    """The scale path (G1+G4): MinHash/LSH candidates + exact verify +
    distributed CC over the documents table. The LSH candidate stage is
    probabilistic, but verify rescoring is exact Jaccard, so the output
    equals the exact char-5-gram-Jaccard>=0.9 component labeling whenever
    LSH recall is 1.0 — which tests/test_queries.py asserts against the
    exact n-gram oracle. That makes SQL_MINHASH_COMPONENTS (exact shingle
    Jaccard + recursive-CTE components, min-id labels) a valid hash-match
    twin on the deterministic test corpora (verified empirically at
    sf0.001 and sf0.01)."""
    from fastdup_ray.stages.components import connected_components
    from fastdup_ray.stages.lsh import candidate_pairs
    from fastdup_ray.stages.signatures import BandStage, SignStage
    from fastdup_ray.stages.verify import verify_pairs

    cfg = DedupConfig(threshold=threshold, cc_threshold=threshold)
    docs = _t(sf_dir, "documents", ["doc_id", "text"]).materialize()
    sigs = docs.map_batches(SignStage(cfg), batch_format="pyarrow").materialize()
    pairs = candidate_pairs(
        sigs.map_batches(BandStage(cfg), batch_format="pyarrow"), cfg
    )
    scores = verify_pairs(pairs, sigs, docs, cfg).materialize()
    edges = scores.map_batches(
        lambda b: b.filter(pc.greater_equal(b["distance"], pa.scalar(threshold))),
        batch_format="pyarrow",
    )
    labels = connected_components(edges)
    return labels.rename_columns({"node": "doc_id", "label": "component_id"})


SQL_MINHASH_COMPONENTS = """
WITH RECURSIVE
docs AS (SELECT doc_id, text, length(text) AS L FROM documents),
nums AS (SELECT unnest(range(1, (SELECT coalesce(max(L),1) FROM docs)+1)) AS i),
sh AS (
  SELECT DISTINCT d.doc_id, substr(d.text, n.i::INT, 5) AS g
  FROM docs d JOIN nums n ON n.i <= d.L - 4
),
sizes AS (SELECT doc_id, count(*) sz FROM sh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS src, b.doc_id AS dst, count(*) AS c
  FROM sh a JOIN sh b ON a.g = b.g AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
pairs AS (
  SELECT src, dst FROM inter
  JOIN sizes sa ON sa.doc_id = src JOIN sizes sb ON sb.doc_id = dst
  WHERE c::DOUBLE/(sa.sz+sb.sz-c) >= 0.9
),
sym AS (SELECT src AS u, dst AS v FROM pairs UNION SELECT dst AS u, src AS v FROM pairs),
reach(u, v) AS (
  SELECT u, v FROM sym
  UNION
  SELECT r.u, s.v FROM reach r JOIN sym s ON s.u = r.v
)
SELECT u AS doc_id, LEAST(u, MIN(v)) AS component_id FROM reach GROUP BY u
"""


def q_simhash_near_dup_pairs(sf_dir: str):
    """SimHash near-dup path: documents -> 64-bit fingerprints -> quarter
    buckets -> exact-hamming verified pairs (hamming <= 3). The catalog
    query pins `simhash_value_cap` off (1M) so the emission is the FULL
    clique per quarter bucket — exactly the SQL oracle's pair set at any
    scale (the production default 256 star-verifies pathologically
    diverse buckets instead, which dropped one pair at sf0.1 — found by
    the r5 full-catalog sf0.1 dryrun; the star fallback keeps its own
    pytest)."""
    from fastdup_ray.stages.signatures import SignStage
    from fastdup_ray.stages.simhash_pairs import simhash_candidate_pairs

    cfg = DedupConfig(simhash_value_cap=1_000_000)
    sigs = (
        _t(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(SignStage(cfg), batch_format="pyarrow")
        .materialize()
    )
    return simhash_candidate_pairs(sigs, cfg)


def q_substring_dup_pairs(sf_dir: str):
    """Exact-substring dedup, SQL-oracled: pairs whose maximal shared
    byte run >= 128 (shorter than the web default — the documents
    fixtures are small). The stage's winnow anchors guarantee that every
    shared >=128-byte run is found, so its pair set is exactly "docs
    sharing a >=128-byte run" — which SQL expresses as sharing any
    128-char substring (fixtures are ASCII, so bytes == chars)."""
    from fastdup_ray.stages.substring import substring_pairs

    cfg = DedupConfig(substring_len=128)
    pairs = substring_pairs(_t(sf_dir, "documents", ["doc_id", "text"]), cfg)
    return pairs.select_columns(["src", "dst"])


SQL_SUBSTRING_DUP_PAIRS = """
WITH g AS (
  SELECT doc_id, substring(text, r.i + 1, 128) AS gram
  FROM documents, unnest(range(greatest(length(text) - 127, 0))) AS r(i)
)
SELECT DISTINCT a.doc_id AS src, b.doc_id AS dst
FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
"""


def q_embedding_dup_pairs(sf_dir: str, threshold: float = 0.4):
    """Embedding-cosine near-duplicate pairs (exact, blocked all-pairs):
    every (src < dst) vec pair with cosine >= threshold. The embedding
    member of the dedup family (exact / MinHash / SimHash / n-gram /
    substring / cosine); `cosine_dup_pairs` documents the blocked
    distributed shape, IVF is the sublinear scale path."""
    from fastdup_ray.stages.ann import cosine_dup_pairs

    return cosine_dup_pairs(
        _t(sf_dir, "embeddings", ["vec_id", "embedding"]), threshold=threshold
    )


SQL_EMBEDDING_DUP_PAIRS = """
SELECT a.vec_id AS src, b.vec_id AS dst,
       ROUND(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) AS distance
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.4
"""


def q_embedding_lsh_pairs(sf_dir: str, threshold: float = 0.9):
    """Embedding near-dup, sublinear scale path: signed-random-projection
    LSH candidates + exact cosine rescore. Precision is 1.0 vs the exact
    baseline by construction (every candidate is rescored from the real
    vectors), so the SQL twin is exact whenever recall is 1 — and on
    these fixtures (max pairwise cosine ~0.51, no pairs at 0.9) it
    verifies the no-false-positives half with an empty expected set.
    The recall half is pytest-gated on planted near-dup vectors
    (tests/test_round3.py::test_srp_lsh_recall_vs_exact, >= 0.95 at
    cos 0.9 with 16 bands x 8 bits)."""
    from fastdup_ray.stages.ann import srp_lsh_dup_pairs

    out = srp_lsh_dup_pairs(
        _t(sf_dir, "embeddings", ["vec_id", "embedding"]), threshold=threshold
    )
    # collect into a TYPED table: an empty Dataset loses its schema
    # through to_pandas (customers_without_orders pattern) and the
    # fixtures legitimately have zero pairs at cos >= 0.9
    rows = sorted(
        (r["src"], r["dst"], r["distance"]) for r in out.take_all()
    )
    return pa.table({
        "src": pa.array([r[0] for r in rows], pa.int64()),
        "dst": pa.array([r[1] for r in rows], pa.int64()),
        "distance": pa.array([r[2] for r in rows], pa.float64()),
    })


SQL_EMBEDDING_LSH_PAIRS = """
SELECT a.vec_id AS src, b.vec_id AS dst,
       ROUND(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) AS distance
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.9
"""


def q_doc_embeddings(sf_dir: str, dim: int = 32, seed: int = 42):
    """M9 embedding-encoder analog, fully SQL-oracled: encode every
    document via the actor-pool TextEmbedStage with the hash_sign
    (Rademacher mix64) projection — every entry of the weight matrix is
    reproducible in DuckDB, so the WHOLE encoder (FNV-1a 3-gram buckets,
    L2 normalize, projection) value-hash-matches its twin. Output is
    exploded to (doc_id, j, val[4dp]) scalar rows (driver-friendly; one
    row per embedding coordinate). The Gaussian default stays the
    library's production weights; hash_sign is an equally valid JL
    projection (Achlioptas 2003)."""
    from fastdup_ray.stages.embed import embed_documents

    emb = embed_documents(
        _t(sf_dir, "documents", ["doc_id", "text"]), dim=dim, seed=seed,
        concurrency=4, weights="hash_sign",
    )

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        col = batch["embedding"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        m = col.values.to_numpy(zero_copy_only=False).reshape(len(ids), dim)
        # + 0.0 normalizes IEEE -0.0 (matches the SQL twin's `+ 0.0`)
        vals = np.round(m.reshape(-1), 4) + 0.0
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, dim), pa.int64()),
            "j": pa.array(np.tile(np.arange(dim, dtype=np.int64), len(ids))),
            "val": pa.array(vals, pa.float64()),
        })

    return emb.map_batches(explode, batch_format="pyarrow")


def _sql_doc_embeddings() -> str:
    from fastdup_ray.pipelines.sql_hash import sql_doc_embeddings

    return sql_doc_embeddings(32, 42)


SQL_DOC_EMBEDDINGS = _sql_doc_embeddings()


def q_ann_ivf_topk(sf_dir: str, n_queries: int = 5, k: int = 10):
    """IVF approximate ANN, now fully value-hash-oracled: the trainer is
    the determinism-PINNED seeded-Lloyd variant
    (`train_ivf_centroids_pinned`: smallest-mix64-hash sample, first-k
    init, integer-grid-quantized exact Lloyd arithmetic) whose every step
    is reproduced in the generated DuckDB twin `sql_ann_ivf_topk`. The
    free-form `train_ivf_centroids` (ds.random_sample + rng.choice init)
    stays the library default and keeps its recall test
    (tests/test_search_ann.py::test_ivf_recall_vs_brute_force)."""
    from fastdup_ray.stages.ann import (
        ivf_assign, ivf_topk, train_ivf_centroids_pinned,
    )

    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"]).materialize()
    # predicate pushed into tasks; only the handful of query rows reach
    # the driver (the whole-table take_all was a scale bug, VERDICT r1)
    rows = sorted(
        ds.map_batches(
            lambda b: b.filter(pc.less(b["vec_id"], pa.scalar(n_queries))),
            batch_format="pyarrow",
        ).take_all(),
        key=lambda r: r["vec_id"],
    )
    qids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    qm = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in rows])
    cent = train_ivf_centroids_pinned(ds, n_centroids=16)
    assigned = ivf_assign(ds, cent).materialize()
    return ivf_topk(assigned, cent, qids, qm, k=k, nprobe=6)


def _sql_ann_ivf_topk():
    from fastdup_ray.pipelines.sql_hash import sql_ann_ivf_topk

    return sql_ann_ivf_topk(n_centroids=16, n_queries=5, k=10, nprobe=6)


SQL_ANN_IVF_TOPK = _sql_ann_ivf_topk()


def q_ivf_probe_topk(sf_dir: str, n_queries: int = 5, n_centroids: int = 16,
                     k: int = 10, nprobe: int = 6):
    """IVF probe semantics pinned with a full SQL oracle: same assign/probe
    /top-k machinery as ann_ivf_topk, but over the deterministic centroids
    (first n_centroids vectors, normalized — the kmeans_assign convention),
    which makes every step SQL-expressible. ann_ivf_topk keeps exercising
    the seeded-Lloyd trainer (rows-only, recall-tested); this query proves
    the probe/top-k path is exact given fixed centroids."""
    from fastdup_ray.stages.ann import _normalize, ivf_assign, ivf_topk

    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"]).materialize()
    rows = sorted(
        ds.map_batches(
            lambda b: b.filter(pc.less(b["vec_id"], pa.scalar(n_centroids))),
            batch_format="pyarrow",
        ).take_all(),
        key=lambda r: r["vec_id"],
    )
    cent = _normalize(
        np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in rows])
    )
    qrows = [r for r in rows if r["vec_id"] < n_queries]
    qids = np.array([r["vec_id"] for r in qrows], dtype=np.int64)
    qm = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in qrows])
    assigned = ivf_assign(ds, cent).materialize()
    return ivf_topk(assigned, cent, qids, qm, k=k, nprobe=nprobe)


SQL_IVF_PROBE_TOPK = """
WITH cent AS (
  SELECT vec_id AS cell, embedding FROM embeddings WHERE vec_id < 16
),
assigned AS (
  SELECT e.vec_id, e.embedding, c.cell
  FROM embeddings e JOIN cent c ON TRUE
  QUALIFY row_number() OVER (
    PARTITION BY e.vec_id
    ORDER BY list_cosine_similarity(e.embedding::DOUBLE[], c.embedding::DOUBLE[]) DESC,
             c.cell ASC
  ) = 1
),
q AS (SELECT vec_id AS query_id, embedding FROM embeddings WHERE vec_id < 5),
probes AS (
  SELECT q.query_id, c.cell
  FROM q JOIN cent c ON TRUE
  QUALIFY row_number() OVER (
    PARTITION BY q.query_id
    ORDER BY list_cosine_similarity(q.embedding::DOUBLE[], c.embedding::DOUBLE[]) DESC,
             c.cell ASC
  ) <= 6
)
SELECT p.query_id, a.vec_id AS neighbor_id,
       ROUND(list_cosine_similarity(q.embedding::DOUBLE[], a.embedding::DOUBLE[]), 5) AS cosine
FROM probes p
JOIN assigned a ON a.cell = p.cell
JOIN q ON q.query_id = p.query_id
WHERE a.vec_id != p.query_id
QUALIFY row_number() OVER (
  PARTITION BY p.query_id
  ORDER BY ROUND(list_cosine_similarity(q.embedding::DOUBLE[], a.embedding::DOUBLE[]), 5) DESC,
           a.vec_id ASC
) <= 10
"""


def q_text_quality(sf_dir: str):
    """Language-ID + quality scoring (SQL-oracled: the stopword-count
    argmax, CJK override and Gopher-style quality formula are all
    reproduced in SQL_TEXT_QUALITY, generated from the same stopword
    dict the stage uses)."""
    stats = _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        TextStatsStage(), batch_format="pyarrow", batch_size=2048
    )
    return stats.select_columns(["doc_id", "lang_pred", "lang_score",
                                 "stopword_ratio", "quality"])


def q_simhash_fingerprints(sf_dir: str):
    """M6/M2 analog: 64-bit SimHash per doc (deterministic; rows-only)."""
    from fastdup_ray.functions.simhash import simhash64

    def fp(batch: pa.Table) -> pa.Table:
        sh = simhash64(batch["text"])
        return pa.table(
            {"doc_id": batch["doc_id"], "simhash": pa.array(sh.view(np.int64), pa.int64())}
        )

    return _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        fp, batch_format="pyarrow"
    )


# ------------------------------------------------------------------ ANN top-k
def q_ann_topk(sf_dir: str, n_queries: int = 5, k: int = 10):
    """Similarity search: brute-force cosine top-k of every vec against the
    query set (vec_id < n_queries), computed as a broadcast numpy matmul
    per batch + per-query top-k reduce — the baseline ANN path
    (embedding-cosine near-dup family)."""
    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"])
    # predicate pushdown: only matching rows reach the driver
    qrows = sorted(
        ds.map_batches(
            lambda b: b.filter(pc.less(b["vec_id"], pa.scalar(n_queries))),
            batch_format="pyarrow",
        ).take_all(),
        key=lambda r: r["vec_id"],
    )
    qids = np.array([r["vec_id"] for r in qrows], dtype=np.int64)
    qm = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in qrows])
    qm_n = qm / np.linalg.norm(qm, axis=1, keepdims=True)
    ref = ray.put((qids, qm_n))

    def score(batch: pa.Table) -> pa.Table:
        qi, qn = ray.get(ref)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        col = batch["embedding"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        m = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64).reshape(len(ids), -1)
        mn = m / np.linalg.norm(m, axis=1, keepdims=True)
        cos = mn @ qn.T  # (n, q)
        nq = qi.shape[0]
        out_q = np.repeat(qi, ids.shape[0])
        out_n = np.tile(ids, nq)
        out_c = cos.T.ravel()
        keep = out_q != out_n
        return pa.table(
            {
                "query_id": pa.array(out_q[keep], pa.int64()),
                "neighbor_id": pa.array(out_n[keep], pa.int64()),
                "cosine": pa.array(np.round(out_c[keep], 5), pa.float64()),
            }
        )

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cosine", "neighbor_id"], ascending=[False, True]).head(k)
        return g[["query_id", "neighbor_id", "cosine"]]

    return (
        ds.map_batches(score, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(topk, batch_format="pandas")
    )


SQL_ANN_TOPK = """
SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
       ROUND(list_cosine_similarity(q.embedding::DOUBLE[], e.embedding::DOUBLE[]), 5) AS cosine
FROM embeddings q JOIN embeddings e ON e.vec_id != q.vec_id
WHERE q.vec_id < 5
QUALIFY row_number() OVER (
  PARTITION BY q.vec_id
  ORDER BY ROUND(list_cosine_similarity(q.embedding::DOUBLE[], e.embedding::DOUBLE[]), 5) DESC,
           e.vec_id ASC
) <= 10
"""


# --------------------------------------------------------------- window agg
def q_windowed_events(sf_dir: str):
    """Streaming-shaped custom operator: tumbling 1-hour windows per
    event_type (partial per-batch aggregation, then a small groupby —
    no per-row shuffle of the raw events)."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.assign(
            window_start=batch["ts"].dt.floor("h"),
            value_e4=_int_round(batch["value"].to_numpy() * 10000),
        )
        g = batch.groupby(["event_type", "window_start"], as_index=False).agg(
            n_events=("event_id", "size"), sum_value=("value_e4", "sum")
        )
        return g

    agg = combine_aggregate(
        _t(sf_dir, "events", ["event_id", "ts", "event_type", "value"]),
        ["event_type", "window_start"],
        partial,
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "window_start": batch["window_start"],
                "n_events": pa.array(
                    batch["n_events"].to_numpy(zero_copy_only=False).astype(np.int64),
                    pa.int64(),
                ),
                # per-row scaled-int then exact int sum (see pricing_summary)
                "total_value_e4": pa.array(
                    batch["sum_value"].to_numpy(zero_copy_only=False).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


SQL_WINDOWED_EVENTS = """
SELECT event_type, date_trunc('hour', ts) AS window_start,
       count(*) AS n_events,
       CAST(sum(CAST(FLOOR(value * 10000 + 0.5) AS BIGINT)) AS BIGINT) AS total_value_e4
FROM events GROUP BY 1, 2
"""


# --------------------------------------------------------------- sessionize
def q_sessionize(sf_dir: str, gap_minutes: int = 30):
    """Session windows (stream-shaped custom operator): per-user event
    sessions split at >30-min inactivity gaps. Partition by user, sort
    within partition, vectorized gap detection — the groupby-as-windowing
    pattern for Ray Data's batch engine."""
    gap = pd.Timedelta(minutes=gap_minutes)

    def sessionize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        prev_ts = df.groupby("user_id", sort=False)["ts"].shift()
        new_sess = (prev_ts.isna() | ((df["ts"] - prev_ts) > gap)).astype(np.int64)
        df = df.assign(sess_no=new_sess.groupby(df["user_id"]).cumsum())
        g = df.groupby(["user_id", "sess_no"], as_index=False).agg(
            session_start=("ts", "min"),
            session_end=("ts", "max"),
            n_events=("event_id", "size"),
        )
        return g

    return partitioned_groupby(
        _t(sf_dir, "events", ["event_id", "ts", "user_id"]),
        "user_id", sessionize,
    )


SQL_SESSIONIZE = """
WITH e AS (
  SELECT user_id, ts, event_id,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                   > INTERVAL 30 MINUTE
               OR lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) IS NULL
              THEN 1 ELSE 0 END AS new_sess
  FROM events
),
s AS (
  SELECT user_id, ts, event_id,
         sum(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS sess_no
  FROM e
)
SELECT user_id, CAST(sess_no AS BIGINT) AS sess_no, min(ts) AS session_start,
       max(ts) AS session_end, count(*) AS n_events
FROM s GROUP BY 1, 2
"""


# ------------------------------------------------------------ join + topk
def q_customer_revenue_topk(sf_dir: str):
    """J1/O1 analog: orders x customer hash join, grouped revenue, top-10."""
    def to_cents(batch: pa.Table) -> pa.Table:
        # per-row integer cents before summation (see pricing_summary note)
        cents = _int_round(
            batch["o_totalprice"].to_numpy(zero_copy_only=False).astype(np.float64) * 100
        )
        return pa.table(
            {"o_custkey": batch["o_custkey"], "cents": pa.array(cents, pa.int64())}
        )

    # combiner: key domain is the customer table (the small join side by
    # construction), so merged partials stay customer-sized; a key domain
    # proportional to the fact table would use partitioned_groupby instead
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("o_custkey", as_index=False, sort=False).agg(
            revenue_raw=("cents", "sum"), n_orders=("cents", "size")
        )

    rev = combine_aggregate(
        _t(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
            to_cents, batch_format="pyarrow"
        ),
        "o_custkey",
        partial,
    ).materialize()
    joined = hash_join(
        rev, _t(sf_dir, "customer", ["c_custkey", "c_name"]),
        on="o_custkey", right_on="c_custkey",
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": batch["o_custkey"],
                "c_name": batch["c_name"],
                "n_orders": batch["n_orders"],
                "revenue_cents": pa.array(
                    batch["revenue_raw"].to_numpy(zero_copy_only=False).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    return (
        joined.map_batches(finish, batch_format="pyarrow")
        .sort(["revenue_cents", "c_custkey"], descending=[True, False])
        .limit(10)
    )


SQL_CUSTOMER_REVENUE_TOPK = """
SELECT o.o_custkey AS c_custkey, c.c_name, count(*) AS n_orders,
       CAST(sum(CAST(FLOOR(o.o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
GROUP BY 1, 2 ORDER BY revenue_cents DESC, c_custkey ASC LIMIT 10
"""


# ------------------------------------------------------------------ anti-join
def q_customers_without_orders(sf_dir: str):
    """J5 anti-join: customers with no orders, as a shuffle anti-join
    (both sides hash-partitioned by key — the scale path; the round-1
    driver-built key set was ~|customers| at scale, VERDICT r1)."""
    from fastdup_ray.relational.ops import cogroup_anti_join

    res = cogroup_anti_join(
        _t(sf_dir, "customer", ["c_custkey"]),
        _t(sf_dir, "orders", ["o_custkey"]),
        on="c_custkey", right_on="o_custkey",
    )
    # collect into a TYPED table: an empty Dataset otherwise loses its
    # schema through to_pandas and fails the driver's schema compare
    vals = sorted(r["c_custkey"] for r in res.take_all())
    return pa.table({"c_custkey": pa.array(vals, pa.int64())})


SQL_CUSTOMERS_WITHOUT_ORDERS = """
SELECT c_custkey FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)
"""


# -------------------------------------------------- contamination detection
def q_benchmark_contamination(sf_dir: str):
    """Test-set contamination check (the G7 cross-corpus mode applied to
    the training-data problem): treat the corpus's largest source as the
    held-out benchmark and report every benchmark doc whose 64-char
    prefix also appears in the train split (all other sources), with the
    match count and the smallest matching train doc id. Cogrouped by
    prefix — one vectorized merge per partition, no driver loops."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("source", as_index=False, sort=False).agg(
            n=("source", "size")
        )

    src_counts = combine_aggregate(
        _t(sf_dir, "documents", ["source"]), "source", partial
    ).take_all()
    # max by count, ties to the LEXICALLY FIRST source (SQL: count DESC,
    # source ASC)
    best_n = max(r["n"] for r in src_counts)
    bench_source = min(
        r["source"] for r in src_counts if r["n"] == best_n
    )

    def keyed(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        side = pc.equal(batch["source"], pa.scalar(bench_source))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "pfx": pa.array([(t or "")[:64] for t in texts], pa.string()),
                "is_bench": side,
            }
        )

    ds = _t(sf_dir, "documents", ["doc_id", "text", "source"]).map_batches(
        keyed, batch_format="pyarrow"
    )

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        tr = (
            df[~df["is_bench"]]
            .groupby("pfx")
            .agg(n_train_matches=("doc_id", "size"),
                 example_train_doc=("doc_id", "min"))
        )
        bd = df[df["is_bench"]]
        m = bd.merge(tr, left_on="pfx", right_index=True, how="inner")
        return m[["doc_id", "n_train_matches", "example_train_doc"]]

    return partitioned_groupby(ds, "pfx", fold)


SQL_BENCHMARK_CONTAMINATION = """
WITH bs AS (SELECT source FROM documents
            GROUP BY source ORDER BY count(*) DESC, source LIMIT 1),
b AS (SELECT doc_id, substr(coalesce(text, ''), 1, 64) AS pfx FROM documents
      WHERE source = (SELECT source FROM bs)),
t AS (SELECT doc_id, substr(coalesce(text, ''), 1, 64) AS pfx FROM documents
      WHERE source != (SELECT source FROM bs))
SELECT b.doc_id, count(*) AS n_train_matches,
       min(t.doc_id) AS example_train_doc
FROM b JOIN t ON b.pfx = t.pfx GROUP BY 1
"""


def q_contamination_ngrams(sf_dir: str, n: int = 5, bench_mod: int = 50):
    """GPT-3-style n-gram decontamination (Brown et al. 2020 App. C — the
    13-gram collision scan; PaLM and Llama reuse the shape): build the
    DISTINCT word-n-gram set of a held-out benchmark slice (here the
    deterministic `doc_id % bench_mod == 0` docs), broadcast it once, and
    report every TRAIN doc whose distinct grams collide with it, with the
    collision fraction. The benchmark gram set is per-block-deduped in
    tasks then tree-reduced task-side (the driver holds only the final
    ObjectRef, the endpoint-set pattern of stages/verify.py); scoring is
    one map pass reading the broadcast zero-copy. Scale contract:
    benchmark suites are small by construction — the gram set, not the
    corpus, must fit the object store (the standard assumption of this
    operator in practice)."""
    import ray as _ray

    docs = _t(sf_dir, "documents", ["doc_id", "text"]).materialize()

    def _grams_of(text: str) -> list[str]:
        ws = [w for w in (text or "").split(" ") if w]
        return [" ".join(ws[i:i + n]) for i in range(len(ws) - n + 1)]

    @_ray.remote
    def _block_grams(t: pa.Table) -> np.ndarray:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = t["text"].to_pylist()
        gs: set[str] = set()
        for i, txt in zip(ids, texts):
            if i % bench_mod == 0:
                gs.update(_grams_of(txt))
        return np.array(sorted(gs), dtype=object)

    @_ray.remote
    def _merge(*arrs) -> np.ndarray:
        return np.unique(np.concatenate(arrs))

    refs = [_block_grams.remote(r) for r in docs.to_arrow_refs()]
    if not refs:
        bench_ref = _ray.put(np.array([], dtype=object))
    else:
        while len(refs) > 1:
            refs = [_merge.remote(*refs[i:i + 8]) for i in range(0, len(refs), 8)]
        bench_ref = refs[0]

    def score(batch: pa.Table) -> pa.Table:
        bench = _ray.get(bench_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = batch["text"].to_pylist()
        out_id, out_ng, out_nh = [], [], []
        for i, txt in zip(ids, texts):
            if i % bench_mod == 0:
                continue
            grams = np.unique(np.array(_grams_of(txt), dtype=object))
            if grams.size == 0 or bench.size == 0:
                continue
            pos = np.clip(np.searchsorted(bench, grams), 0, bench.size - 1)
            n_hit = int((bench[pos] == grams).sum())
            if n_hit:
                out_id.append(i)
                out_ng.append(grams.size)
                out_nh.append(n_hit)
        ng = np.asarray(out_ng, np.float64)
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "n_grams": pa.array(out_ng, pa.int64()),
                "n_hit": pa.array(out_nh, pa.int64()),
                "contaminated_frac": pa.array(
                    np.round(np.asarray(out_nh, np.float64) / ng, 6)
                    if len(out_ng) else np.empty(0, np.float64),
                    pa.float64(),
                ),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


def _sql_contamination_ngrams(n: int = 5, bench_mod: int = 50) -> str:
    gram = " || ' ' || ".join(
        ["w"] + [f"lead(w,{j}) OVER win" for j in range(1, n)]
    )
    return f"""
WITH wl AS (
  SELECT doc_id,
         list_filter(string_split(coalesce(text, ''), ' '), w -> w <> '') AS ws
  FROM documents
),
toks AS (
  SELECT doc_id, generate_subscripts(ws, 1) AS i, unnest(ws) AS w FROM wl
),
grams AS (
  SELECT doc_id, {gram} AS g
  FROM toks
  WINDOW win AS (PARTITION BY doc_id ORDER BY i)
  QUALIFY lead(w, {n - 1}) OVER win IS NOT NULL
),
bg AS (SELECT DISTINCT g FROM grams WHERE doc_id % {bench_mod} = 0),
tg AS (SELECT DISTINCT doc_id, g FROM grams WHERE doc_id % {bench_mod} <> 0)
SELECT tg.doc_id,
       count(*) AS n_grams,
       count(bg.g) AS n_hit,
       ROUND(count(bg.g)::DOUBLE / count(*), 6) AS contaminated_frac
FROM tg LEFT JOIN bg USING (g)
GROUP BY tg.doc_id
HAVING count(bg.g) > 0
"""


SQL_CONTAMINATION_NGRAMS = _sql_contamination_ngrams()


# ------------------------------------------------------- repetition signals
def q_word_repetition_stats(sf_dir: str):
    """Gopher-style repetition signals (Rae et al. 2021 §A1.1 repetition
    filters; the M6-stats family): per doc, word totals, distinct words,
    duplicate-word fraction and most-common-word fraction. Vectorized:
    one factorize over the batch's word stream + bincount/segment
    reductions — no per-doc Python counting."""

    def rep(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        words: list[str] = []
        doc_idx: list[int] = []
        for i, t in enumerate(texts):
            # NULL text -> no words -> dropped by the keep mask, matching
            # the SQL twin (string_split over coalesce(text,''))
            ws = [w for w in (t or "").split(" ") if w]
            words.extend(ws)
            doc_idx.append(len(ws))
        n = len(texts)
        di = np.repeat(np.arange(n, dtype=np.int64), doc_idx)
        total = np.asarray(doc_idx, dtype=np.int64)
        if words:
            codes = pd.factorize(np.asarray(words, dtype=object))[0].astype(np.int64)
            key = (di << 32) | codes
            uk, cnt = np.unique(key, return_counts=True)
            d = (uk >> np.int64(32)).astype(np.int64)
            distinct = np.bincount(d, minlength=n).astype(np.int64)
            maxc = np.zeros(n, np.int64)
            np.maximum.at(maxc, d, cnt)
        else:
            distinct = np.zeros(n, np.int64)
            maxc = np.zeros(n, np.int64)
        keep = total > 0
        tot = total[keep].astype(np.float64)
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], pa.int64()),
                "n_words": pa.array(total[keep], pa.int64()),
                "n_distinct_words": pa.array(distinct[keep], pa.int64()),
                "dup_word_frac": pa.array(
                    np.round(1.0 - distinct[keep] / tot, 6), pa.float64()
                ),
                "top_word_frac": pa.array(
                    np.round(maxc[keep] / tot, 6), pa.float64()
                ),
            }
        )

    return _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        rep, batch_format="pyarrow"
    )


SQL_WORD_REPETITION_STATS = """
WITH w AS (SELECT doc_id, unnest(string_split(coalesce(text, ''), ' ')) AS w
           FROM documents),
wf AS (SELECT doc_id, w, count(*) AS c FROM w WHERE w != '' GROUP BY 1, 2),
agg AS (SELECT doc_id, sum(c) AS total, count(*) AS distincts, max(c) AS maxc
        FROM wf GROUP BY 1)
SELECT doc_id, CAST(total AS BIGINT) AS n_words,
       CAST(distincts AS BIGINT) AS n_distinct_words,
       ROUND(1 - distincts::DOUBLE / total, 6) AS dup_word_frac,
       ROUND(maxc::DOUBLE / total, 6) AS top_word_frac
FROM agg
"""


# ---------------------------------------------------------------- as-of join
def q_last_order_before_event(sf_dir: str):
    """As-of join (time-series custom operator the Dataset API lacks):
    for every event, the user's most recent order at-or-before the event
    timestamp. Hash-cogroup by user + one vectorized merge_asof per
    partition; ties on order date break to the max order key."""
    from fastdup_ray.relational.ops import asof_join

    j = asof_join(
        _t(sf_dir, "events", ["event_id", "user_id", "ts"]),
        _t(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
        on="ts", right_on="o_orderdate",
        by="user_id", right_by="o_custkey",
        tiebreak=["o_orderkey"],
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch["event_id"].cast(pa.int64()),
                "user_id": batch["user_id"].cast(pa.int64()),
                "last_orderkey": batch["o_orderkey"].cast(pa.int64()),
            }
        )

    return j.map_batches(finish, batch_format="pyarrow")


SQL_LAST_ORDER_BEFORE_EVENT = """
WITH j AS (
  SELECT e.event_id, e.user_id, o.o_orderkey,
         row_number() OVER (PARTITION BY e.event_id
                            ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
  FROM events e JOIN orders o
    ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
)
SELECT event_id, user_id, o_orderkey AS last_orderkey FROM j WHERE rn = 1
"""


# ---------------------------------------------------------- event anti-join
def q_customers_without_events(sf_dir: str):
    """J5 anti-join at scale shape: customers with no event activity, as
    a shuffle anti-join (both sides hash-partitioned by key)."""
    from fastdup_ray.relational.ops import cogroup_anti_join

    res = cogroup_anti_join(
        _t(sf_dir, "customer", ["c_custkey"]),
        _t(sf_dir, "events", ["user_id"]),
        on="c_custkey", right_on="user_id",
    )
    vals = sorted(r["c_custkey"] for r in res.take_all())
    return pa.table({"c_custkey": pa.array(vals, pa.int64())})


SQL_CUSTOMERS_WITHOUT_EVENTS = """
SELECT c_custkey FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM events e WHERE e.user_id = c.c_custkey)
"""


# ------------------------------------------------------------ pricing summary
def q_pricing_summary(sf_dir: str):
    """A1-style wide aggregate (TPC-H Q1 shape) with per-batch partial
    aggregation before the shuffle."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch["l_shipdate"] <= pd.Timestamp("1998-09-02")]
        # integerize PER ROW before any summation: the per-row double
        # expression is bit-identical to DuckDB's, so per-row rounding
        # agrees, and int64 sums are order-independent and exact
        batch = batch.assign(
            qty_i=_int_round(batch["l_quantity"].to_numpy()),
            bp_cents=_int_round(batch["l_extendedprice"].to_numpy() * 100),
            dp_cents=_int_round(
                (batch["l_extendedprice"] * (1 - batch["l_discount"])).to_numpy() * 100
            ),
        )
        g = batch.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("qty_i", "sum"),
            sum_base_price=("bp_cents", "sum"),
            sum_disc_price=("dp_cents", "sum"),
            count_order=("qty_i", "size"),
        )
        return g

    agg = combine_aggregate(
        _t(
            sf_dir, "lineitem",
            ["l_quantity", "l_extendedprice", "l_discount", "l_returnflag",
             "l_linestatus", "l_shipdate"],
        ),
        ["l_returnflag", "l_linestatus"],
        partial,
    )

    def finish(batch: pa.Table) -> pa.Table:
        q = batch["sum_qty"].to_numpy(zero_copy_only=False).astype(np.int64)
        bp = batch["sum_base_price"].to_numpy(zero_copy_only=False).astype(np.int64)
        dp = batch["sum_disc_price"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch["count_order"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "sum_qty": pa.array(q, pa.int64()),
                "sum_base_price_cents": pa.array(bp, pa.int64()),
                "sum_disc_price_cents": pa.array(dp, pa.int64()),
                "avg_qty": pa.array(np.round(q.astype(np.float64) / n, 4), pa.float64()),
                "count_order": pa.array(n, pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


SQL_PRICING_SUMMARY = """
SELECT l_returnflag, l_linestatus,
  CAST(sum(CAST(FLOOR(l_quantity + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty,
  CAST(sum(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_base_price_cents,
  CAST(sum(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_price_cents,
  ROUND(sum(CAST(FLOOR(l_quantity + 0.5) AS BIGINT))::DOUBLE / count(*), 4) AS avg_qty,
  count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


# ------------------------------------------------------------------ outliers
def q_outliers(sf_dir: str):
    """G3 outliers with the reference's from,to,distance schema
    (RUN.md:57-68): per-doc best-match similarity over a deterministic
    candidate relation (identical 64-char prefix buckets; distance =
    exact char-5-gram Jaccard), bottom `lower_threshold`=0.05 quantile
    of best values, PLUS docs with zero candidates (dst=-1, distance=0)
    — the definitional 'far from everything' outliers."""
    from fastdup_ray.functions.hashing import id63
    from fastdup_ray.functions.minhash import exact_jaccard_pairs
    from fastdup_ray.relational.ops import cogroup_anti_join
    from fastdup_ray.stages.lsh import make_emit_partition

    docs = _t(sf_dir, "documents", ["doc_id", "text"]).materialize()

    def keyed(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        # docs shorter than the shingle width have no 5-gram set; they are
        # zero-candidate by definition (matches the SQL twin's sizes CTE)
        ok = pa.array([len(t) >= 5 for t in texts])
        b = batch.filter(ok)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "bucket": pa.array(
                    id63([t[:64] for t in b["text"].to_pylist()]), pa.int64()
                ),
            }
        )

    pairs = partitioned_groupby(
        docs.map_batches(keyed, batch_format="pyarrow"),
        "bucket", make_emit_partition(max_bucket_pairs=1_000_000),
    ).materialize()

    side = docs.select_columns(["doc_id", "text"])
    out_schema = {"src": pa.int64(), "dst": pa.int64(), "distance": pa.float64()}
    if pairs.count() == 0:
        scored = rd.from_arrow(
            pa.table({k: pa.array([], t) for k, t in out_schema.items()})
        )
    else:
        from fastdup_ray.relational.ops import with_schema

        pairs = with_schema(pairs, {"src": pa.int64(), "dst": pa.int64()})
        j1 = hash_join(pairs, side, on="src", right_on="doc_id").materialize()
        j1 = with_schema(
            j1, {"src": pa.int64(), "dst": pa.int64(), "text": pa.string()}
        ).materialize()
        j2 = hash_join(
            j1, side.rename_columns({"text": "text_r"}), on="dst", right_on="doc_id"
        )

        def score(batch: pa.Table) -> pa.Table:
            d = exact_jaccard_pairs(
                batch["text"].to_pylist(), batch["text_r"].to_pylist(), 5
            )
            return pa.table(
                {
                    "src": batch["src"],
                    "dst": batch["dst"],
                    "distance": pa.array(np.round(d, 6), pa.float64()),
                }
            )

        scored = j2.map_batches(score, batch_format="pyarrow")

    def sym(batch: pa.Table) -> pa.Table:
        s = batch["src"].to_numpy(zero_copy_only=False)
        t = batch["dst"].to_numpy(zero_copy_only=False)
        d = batch["distance"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": pa.array(np.concatenate([s, t]), pa.int64()),
                "nb": pa.array(np.concatenate([t, s]), pa.int64()),
                "distance": pa.array(np.concatenate([d, d]), pa.float64()),
            }
        )

    def best_row(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["node", "distance", "nb"], ascending=[True, False, True],
            kind="mergesort",
        )
        return df.drop_duplicates("node")

    best = partitioned_groupby(
        scored.map_batches(sym, batch_format="pyarrow"), "node", best_row
    ).materialize()

    # bounded-driver quantile of the best-distance distribution: exact
    # distinct-value counts under the budget (6dp-rounded Jaccard =>
    # <= 1e6 distinct, so the oracle-matched exact path always runs at
    # catalog scales), fixed-grid histogram with a documented tolerance
    # above it (A7 contract; tests/test_groupby_exchange.py pins the grid path)
    from fastdup_ray.relational.ops import distinct_value_quantile

    thr, _diag = distinct_value_quantile(
        best, "distance", 0.05, distinct_budget=1_000_000, grid=(0.0, 1.0)
    )
    low_rows = rd.from_arrow(
        pa.table({k: pa.array([], t) for k, t in out_schema.items()})
    )
    if thr is not None:
        low_rows = best.map_batches(
            lambda b: b.filter(pc.less_equal(b["distance"], pa.scalar(thr))),
            batch_format="pyarrow",
        ).rename_columns({"node": "src", "nb": "dst"})
    unmatched = cogroup_anti_join(
        docs.select_columns(["doc_id"]), best, on="doc_id", right_on="node"
    ).map_batches(
        lambda b: pa.table(
            {
                "src": b["doc_id"].cast(pa.int64()),
                "dst": pa.array(np.full(b.num_rows, -1, np.int64)),
                "distance": pa.array(np.zeros(b.num_rows, np.float64)),
            }
        ),
        batch_format="pyarrow",
    )
    return low_rows.union(unmatched)


SQL_OUTLIERS = """
WITH d AS (SELECT doc_id, text, length(text) AS L FROM documents),
nums AS (SELECT unnest(range(1, (SELECT coalesce(max(L),1) FROM d)+1)) AS i),
sh AS (
  SELECT DISTINCT doc_id, substr(text, i::INT, 5) AS g
  FROM d JOIN nums ON i <= L - 4
),
sizes AS (SELECT doc_id, count(*) AS sz FROM sh GROUP BY doc_id),
pairs AS (
  SELECT a.doc_id AS s, b.doc_id AS t
  FROM d a JOIN d b
  ON substr(a.text,1,64) = substr(b.text,1,64) AND a.doc_id < b.doc_id
  WHERE a.L >= 5 AND b.L >= 5
),
inter AS (
  SELECT p.s, p.t, count(*) AS c
  FROM pairs p JOIN sh x ON x.doc_id = p.s JOIN sh y ON y.doc_id = p.t AND y.g = x.g
  GROUP BY 1, 2
),
scored AS (
  SELECT p.s, p.t,
         ROUND(coalesce(i.c,0)::DOUBLE/(sa.sz+sb.sz-coalesce(i.c,0)), 6) AS dist
  FROM pairs p
  LEFT JOIN inter i ON i.s = p.s AND i.t = p.t
  JOIN sizes sa ON sa.doc_id = p.s JOIN sizes sb ON sb.doc_id = p.t
),
sym AS (
  SELECT s AS node, t AS nb, dist FROM scored
  UNION ALL SELECT t, s, dist FROM scored
),
best AS (
  SELECT node, nb, dist FROM (
    SELECT node, nb, dist,
           row_number() OVER (PARTITION BY node ORDER BY dist DESC, nb ASC) AS rn
    FROM sym
  ) WHERE rn = 1
),
thr AS (
  SELECT min(dist) AS v FROM (
    SELECT dist, cume_dist() OVER (ORDER BY dist) AS cd FROM best
  ) WHERE cd >= 0.05
)
SELECT node AS src, nb AS dst, dist AS distance FROM best WHERE dist <= (SELECT v FROM thr)
UNION ALL
SELECT doc_id AS src, -1 AS dst, 0.0 AS distance FROM documents
WHERE doc_id NOT IN (SELECT node FROM best)
"""


# ---------------------------------------------------------------- label score
def q_label_score(sf_dir: str):
    """A4 label_score mislabel metric (reference galleries.py:1864-1884):
    per doc, the fraction of its candidate-graph neighbors sharing its
    label (here: `lang`), over the deterministic prefix-bucket pair
    relation. Docs with no neighbors are excluded (reference behavior:
    score only defined for docs appearing in the similarity graph)."""
    from fastdup_ray.functions.hashing import id63
    from fastdup_ray.stages.lsh import make_emit_partition

    docs = _t(sf_dir, "documents", ["doc_id", "text", "lang"]).materialize()

    def keyed(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "bucket": pa.array(id63([t[:64] for t in texts]), pa.int64()),
            }
        )

    pairs = partitioned_groupby(
        docs.map_batches(keyed, batch_format="pyarrow"),
        "bucket", make_emit_partition(max_bucket_pairs=1_000_000),
    ).materialize()
    out_schema = {"doc_id": pa.int64(), "label_score": pa.float64(),
                  "n_neighbors": pa.int64()}
    if pairs.count() == 0:
        return rd.from_arrow(
            pa.table({k: pa.array([], t) for k, t in out_schema.items()})
        )
    from fastdup_ray.relational.ops import with_schema

    pairs = with_schema(pairs, {"src": pa.int64(), "dst": pa.int64()})
    labels = docs.select_columns(["doc_id", "lang"])

    def sym(batch: pa.Table) -> pa.Table:
        s = batch["src"].to_numpy(zero_copy_only=False)
        t = batch["dst"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": pa.array(np.concatenate([s, t]), pa.int64()),
                "nb": pa.array(np.concatenate([t, s]), pa.int64()),
            }
        )

    edges = pairs.map_batches(sym, batch_format="pyarrow")
    j1 = hash_join(edges, labels, on="node", right_on="doc_id").materialize()
    j1 = with_schema(
        j1, {"node": pa.int64(), "nb": pa.int64(), "lang": pa.string()}
    ).materialize()
    j2 = hash_join(
        j1, labels.rename_columns({"lang": "lang_nb"}), on="nb", right_on="doc_id"
    )

    def agree(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(same=(df["lang"] == df["lang_nb"]).astype(np.int64))
        g = df.groupby("node", as_index=False).agg(
            same=("same", "sum"), n_neighbors=("same", "size")
        )
        return pd.DataFrame(
            {
                "doc_id": g["node"].to_numpy().astype(np.int64),
                "label_score": np.round(
                    g["same"].to_numpy() / g["n_neighbors"].to_numpy(), 6
                ),
                "n_neighbors": g["n_neighbors"].to_numpy().astype(np.int64),
            }
        )

    return partitioned_groupby(j2, "node", agree)


SQL_LABEL_SCORE = """
WITH pairs AS (
  SELECT a.doc_id AS s, b.doc_id AS t
  FROM documents a JOIN documents b
  ON substr(a.text,1,64) = substr(b.text,1,64) AND a.doc_id < b.doc_id
),
sym AS (SELECT s AS node, t AS nb FROM pairs UNION ALL SELECT t, s FROM pairs)
SELECT e.node AS doc_id,
       ROUND(sum(CASE WHEN x.lang = y.lang THEN 1 ELSE 0 END)::DOUBLE / count(*), 6)
         AS label_score,
       count(*) AS n_neighbors
FROM sym e
JOIN documents x ON x.doc_id = e.node
JOIN documents y ON y.doc_id = e.nb
GROUP BY e.node
"""


# ----------------------------------------------------------- BPE-ish tokens
# GPT-2-style pretokenizer pattern, lookahead-free (RE2 on both sides:
# Arrow's count_substring_regex and DuckDB's regexp_extract_all)
_BPE_PATTERN = r"'s|'t|'re|'ve|'m|'ll|'d| ?\pL+| ?\pN+| ?[^\s\pL\pN]+|\s+"


def q_bpe_token_counts(sf_dir: str):
    """Token counting with a BPE-ish pretokenizer regex (charter 'text
    analysis' item): per-doc match count of the GPT-2-style pattern,
    fully vectorized via Arrow's RE2 kernel."""

    def count(batch: pa.Table) -> pa.Table:
        texts = batch["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        n = pc.count_substring_regex(pc.fill_null(texts, ""), _BPE_PATTERN)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_bpe_tokens": n.cast(pa.int64()),
            }
        )

    return _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        count, batch_format="pyarrow"
    )


SQL_BPE_TOKEN_COUNTS = r"""
SELECT doc_id,
       len(regexp_extract_all(text, '''s|''t|''re|''ve|''m|''ll|''d| ?\pL+| ?\pN+| ?[^\s\pL\pN]+|\s+')) AS n_bpe_tokens
FROM documents
"""


def q_token_pack_shards(sf_dir: str, budget: int = 256):
    """Training-shard packing (GPT-style document concatenation): within
    each source, docs in doc_id order are packed into fixed token-budget
    shards; a doc's shard is floor(exclusive-prefix-tokens / budget), so
    documents straddle shard boundaries exactly as sequence packing does.
    Per-source ordered prefix sums run as one vectorized pass per hash
    partition; a single source larger than a partition would be
    sub-sharded by doc_id range with a two-pass offset scan at scale —
    the per-source sequential dependency is inherent to the operator."""

    def count(batch: pa.Table) -> pa.Table:
        texts = batch["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        n = pc.count_substring_regex(pc.fill_null(texts, ""), _BPE_PATTERN)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "source": batch["source"],
                "n_bpe_tokens": n.cast(pa.int64()),
            }
        )

    counts = _t(sf_dir, "documents", ["doc_id", "text", "source"]).map_batches(
        count, batch_format="pyarrow"
    )

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["source", "doc_id"])
        excl = (
            df.groupby("source", sort=False)["n_bpe_tokens"].cumsum()
            - df["n_bpe_tokens"]
        )
        df = df.assign(shard_id=(excl // budget).astype(np.int64))
        return df[["doc_id", "source", "n_bpe_tokens", "shard_id"]]

    out = partitioned_groupby(counts, "source", pack)
    # normalize the emitted blocks: with_schema pins exact Arrow types
    # (pandas metadata on shuffle outputs once made the driver's value
    # hash nondeterministic: CORRECTNESS_r03 hash-fail with zero actual
    # value mismatches).
    from fastdup_ray.relational.ops import with_schema

    return with_schema(
        out,
        {
            "doc_id": pa.int64(),
            "source": pa.string(),
            "n_bpe_tokens": pa.int64(),
            "shard_id": pa.int64(),
        },
    )


SQL_TOKEN_PACK_SHARDS = r"""
WITH counts AS (
  SELECT doc_id, source,
         len(regexp_extract_all(text, '''s|''t|''re|''ve|''m|''ll|''d| ?\pL+| ?\pN+| ?[^\s\pL\pN]+|\s+')) AS n_bpe_tokens
  FROM documents
)
SELECT doc_id, source, n_bpe_tokens,
       -- CAST: SUM() OVER returns HUGEINT, which lands as float64 in
       -- pandas and hash-mismatches the Ray side's int64 ("3.0" vs "3")
       CAST(COALESCE(SUM(n_bpe_tokens) OVER (
         PARTITION BY source ORDER BY doc_id
         ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
       ), 0) // 256 AS BIGINT) AS shard_id
FROM counts
"""


def q_hll_distinct_grams(sf_dir: str):
    """Distributed HyperLogLog (p=10) distinct char-5-gram estimate per
    source — the sketch path for per-group distinct counts: a pure map
    stage + fixed-size register max-merge instead of shuffling every
    distinct value. Registers and estimate are exactly reproduced in the
    generated DuckDB twin (pipelines/sql_hash.sql_hll_distinct_grams)."""
    from fastdup_ray.stages.sketches import hll_distinct

    return hll_distinct(_t(sf_dir, "documents", ["source", "text"]))


# -------------------------------------------------------- graph extras (G5/G9)
def q_pagerank(sf_dir: str):
    """G5 PageRank + degree over the deterministic prefix-bucket pair
    graph, SQL-oracled: the stage rounds each iteration's pr to 12 dp,
    which makes the fixed-iteration power iteration independent of
    summation order, so a DuckDB recursive CTE reproduces it exactly."""
    from fastdup_ray.functions.hashing import id63
    from fastdup_ray.stages.lsh import make_emit_partition
    from fastdup_ray.stages.pagerank import pagerank

    def keyed(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "bucket": pa.array(id63([t[:64] for t in texts]), pa.int64()),
            }
        )

    pairs = partitioned_groupby(
        _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            keyed, batch_format="pyarrow"
        ),
        "bucket", make_emit_partition(max_bucket_pairs=1_000_000),
    )
    return pagerank(pairs)


SQL_PAGERANK = """
WITH RECURSIVE
pairs AS (
  SELECT a.doc_id AS src, b.doc_id AS dst
  FROM documents a JOIN documents b
    ON substr(a.text, 1, 64) = substr(b.text, 1, 64) AND a.doc_id < b.doc_id
),
sym AS (
  SELECT src AS u, dst AS v FROM pairs
  UNION ALL SELECT dst AS u, src AS v FROM pairs
),
deg AS (SELECT u AS node, count(*) AS degree FROM sym GROUP BY u),
nn AS (SELECT count(*)::DOUBLE AS n FROM deg),
iter(i, node, pr) AS (
  SELECT 0, node, 1.0 / (SELECT n FROM nn) FROM deg
  UNION ALL
  SELECT s.i + 1, s.v,
         round((1.0 - 0.85) / (SELECT n FROM nn) + 0.85 * s.acc, 12)
  FROM (
    SELECT it.i AS i, sym.v AS v, sum(it.pr / d.degree) AS acc
    FROM iter it
    JOIN sym ON sym.u = it.node
    JOIN deg d ON d.node = it.node
    WHERE it.i < 10
    GROUP BY it.i, sym.v
  ) s
)
SELECT f.node,
       round(f.pr, 10) AS pagerank,
       round(abs(f.pr - p.pr), 10) AS delta,
       d.degree
FROM iter f
JOIN iter p ON p.node = f.node AND p.i = 9
JOIN deg d ON d.node = f.node
WHERE f.i = 10
"""


def q_hierarchical_components(sf_dir: str):
    """G9 cluster-the-clusters: first-level components = exact text dedup
    groups (identical members, so the medoid exemplar's TEXT equals the
    canonical one's); exemplars re-clustered by MinHash/LSH + exact
    verify at threshold 0.7. Exact verify rescoring means the output
    equals the exact-Jaccard>=0.7 clustering whenever level-2 LSH recall
    is 1.0, which makes SQL_HIERARCHICAL_COMPONENTS (level-1 window
    groups + exact shingle Jaccard + recursive reachability) a valid
    hash-match twin on the deterministic test corpora (verified at
    sf0.001/sf0.01, 24 non-trivial cluster assignments each)."""
    from fastdup_ray.stages.hierarchy import hierarchical_components

    docs = _t(sf_dir, "documents", ["doc_id", "text"]).materialize()
    comps = q_exact_dup_components(sf_dir).materialize()
    clusters, _edges = hierarchical_components(
        docs, comps, DedupConfig(), cluster_threshold=0.7
    )
    return clusters


SQL_HIERARCHICAL_COMPONENTS = """
WITH RECURSIVE
l1 AS (SELECT doc_id, MIN(doc_id) OVER (PARTITION BY text) AS component_id FROM documents),
ex AS (SELECT DISTINCT component_id FROM l1),
docs AS (SELECT d.doc_id, d.text, length(d.text) AS L FROM documents d JOIN ex ON ex.component_id = d.doc_id),
nums AS (SELECT unnest(range(1, (SELECT coalesce(max(L),1) FROM docs)+1)) AS i),
sh AS (
  SELECT DISTINCT d.doc_id, substr(d.text, n.i::INT, 5) AS g
  FROM docs d JOIN nums n ON n.i <= d.L - 4
),
sizes AS (SELECT doc_id, count(*) sz FROM sh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS src, b.doc_id AS dst, count(*) AS c
  FROM sh a JOIN sh b ON a.g = b.g AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
pairs AS (
  SELECT src, dst FROM inter
  JOIN sizes sa ON sa.doc_id = src JOIN sizes sb ON sb.doc_id = dst
  WHERE c::DOUBLE/(sa.sz+sb.sz-c) >= 0.7
),
sym AS (SELECT src AS u, dst AS v FROM pairs UNION SELECT dst AS u, src AS v FROM pairs),
reach(u, v) AS (
  SELECT u, v FROM sym
  UNION
  SELECT r.u, s.v FROM reach r JOIN sym s ON s.u = r.v
),
lbl AS (SELECT u AS component_id, LEAST(u, MIN(v)) AS cluster_id FROM reach GROUP BY u)
SELECT e.component_id, COALESCE(l.cluster_id, e.component_id) AS cluster_id
FROM ex e LEFT JOIN lbl l USING (component_id)
"""


def q_lang_confusion(sf_dir: str):
    """A10 classification report, SQL-oracled: per-class
    precision/recall/F1 of the heuristic language-ID against the
    documents table's lang column (SQL_LANG_CONFUSION reproduces both
    the lang-ID and the report math)."""
    from fastdup_ray.stages.metrics import classification_report

    stats = _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        TextStatsStage(), batch_format="pyarrow", batch_size=2048
    )
    # label = true lang from documents; join back on doc_id
    truth = _t(sf_dir, "documents", ["doc_id", "lang"])
    joined = hash_join(
        stats.select_columns(["doc_id", "lang_pred"]), truth.rename_columns(
            {"doc_id": "tdoc"}
        ),
        on="doc_id", right_on="tdoc",
    ).map_batches(
        lambda b: pa.table({"label": b["lang"], "pred": b["lang_pred"]}),
        batch_format="pyarrow",
    )
    return classification_report(joined)


# ----------------------------------------------------------------- catalogs
# -------------------------------------------------- stats-join pre-filter
def q_stats_filtered_dups(sf_dir: str, min_tokens: int = 40):
    """M14 (stats-join pre-filter): duplicate candidate pairs kept only
    when BOTH endpoints pass a stats threshold — the reference's
    blur-threshold dup-report filter (galleries.py:341-347) with
    n_tokens standing in for blur. Two hash joins pair<->stats; the
    stats side is per-doc-small, the pair side is candidate-sized."""
    from fastdup_ray.functions.hashing import id63
    from fastdup_ray.relational.ops import with_schema
    from fastdup_ray.stages.lsh import make_emit_partition

    def keyed(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "bucket": pa.array(id63([t[:64] for t in texts]), pa.int64()),
            }
        )

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    pairs = partitioned_groupby(
        docs.map_batches(keyed, batch_format="pyarrow"),
        "bucket",
        make_emit_partition(max_bucket_pairs=1_000_000),
    )
    toks = docs.map_batches(
        TextStatsStage(), batch_format="pyarrow", batch_size=2048
    ).select_columns(["doc_id", "n_tokens"])
    pairs = with_schema(pairs, {"src": pa.int64(), "dst": pa.int64()})
    j = hash_join(
        pairs, toks.rename_columns({"n_tokens": "src_tokens"}),
        on="src", right_on="doc_id",
    ).materialize()  # chained lazy acero joins trip field resolution (ray 2.49)
    j = hash_join(
        j, toks.rename_columns({"n_tokens": "dst_tokens"}),
        on="dst", right_on="doc_id",
    )

    def keep(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(batch["src_tokens"], pa.scalar(min_tokens)),
            pc.greater_equal(batch["dst_tokens"], pa.scalar(min_tokens)),
        )
        return batch.filter(m).select(["src", "dst", "src_tokens", "dst_tokens"])

    return j.map_batches(keep, batch_format="pyarrow")


SQL_STATS_FILTERED_DUPS = r"""
WITH toks AS (
  SELECT doc_id,
    CASE WHEN trim(text)='' THEN 0
         ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS n_tokens
  FROM documents
)
SELECT a.doc_id AS src, b.doc_id AS dst,
       ta.n_tokens AS src_tokens, tb.n_tokens AS dst_tokens
FROM documents a
JOIN documents b ON substr(a.text,1,64) = substr(b.text,1,64) AND a.doc_id < b.doc_id
JOIN toks ta ON ta.doc_id = a.doc_id
JOIN toks tb ON tb.doc_id = b.doc_id
WHERE ta.n_tokens >= 40 AND tb.n_tokens >= 40
"""


# ------------------------------------------------- component majority label
def q_component_majority_label(sf_dir: str):
    """A5 (majority vote per component) with a SQL oracle: shared-prefix
    dup clusters (>=2 members), majority `lang` per cluster with
    deterministic min-lang tiebreak — the label policy D5's keep-majority
    delete uses. component_id = min doc_id (parallelism-invariant)."""
    from fastdup_ray.functions.hashing import id63

    def keyed(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "bucket": pa.array(id63([t[:64] for t in texts]), pa.int64()),
            }
        )

    def vote(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _, g in df.groupby("bucket"):
            if len(g) < 2:
                continue
            counts = g.groupby("lang").size()
            top = counts[counts == counts.max()].index.min()
            rows.append((int(g["doc_id"].min()), len(g), top))
        return pd.DataFrame(
            rows, columns=["component_id", "n_members", "majority_lang"]
        ).astype({"component_id": np.int64, "n_members": np.int64})

    return partitioned_groupby(
        _t(sf_dir, "documents", ["doc_id", "text", "lang"]).map_batches(
            keyed, batch_format="pyarrow"
        ),
        "bucket", vote,
    )


SQL_COMPONENT_MAJORITY_LABEL = """
WITH c AS (
  SELECT doc_id, lang,
         min(doc_id) OVER (PARTITION BY substr(text,1,64)) AS component_id,
         count(*)    OVER (PARTITION BY substr(text,1,64)) AS n_members
  FROM documents
)
SELECT component_id, n_members, majority_lang FROM (
  SELECT component_id, n_members, lang AS majority_lang,
         row_number() OVER (
           PARTITION BY component_id ORDER BY count(*) DESC, lang ASC
         ) AS rn
  FROM c WHERE n_members >= 2
  GROUP BY component_id, n_members, lang
) WHERE rn = 1
"""


def q_majority_keep(sf_dir: str):
    """D5 (label-majority keep/delete, reference __init__.py:1682-1736)
    with a SQL oracle: shared-prefix dup clusters (>=2 members), label =
    lang, ordering = doc_id. Runs the SAME decision kernel keep_table
    uses (neardup.keep_decisions): keep the earliest member carrying the
    component's majority label (ties -> smallest label); components with
    all-distinct labels drop entirely."""
    from fastdup_ray.functions.hashing import id63
    from fastdup_ray.pipelines.neardup import keep_decisions

    def keyed(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "label": batch["lang"],
                "bucket": pa.array(id63([t[:64] for t in texts]), pa.int64()),
            }
        )

    def comps(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("bucket")
        out = df.assign(
            component_id=g["doc_id"].transform("min"),
            n=g["doc_id"].transform("size"),
        )
        out = out[out["n"] >= 2]
        return out[["doc_id", "component_id", "label"]].astype(
            {"doc_id": np.int64, "component_id": np.int64}
        )

    labeled = partitioned_groupby(
        _t(sf_dir, "documents", ["doc_id", "text", "lang"]).map_batches(
            keyed, batch_format="pyarrow"
        ),
        "bucket", comps,
    )
    return keep_decisions(labeled, "majority", order_cols=("doc_id",))


SQL_MAJORITY_KEEP = """
WITH c AS (
  SELECT doc_id, lang,
         min(doc_id) OVER (PARTITION BY substr(text,1,64)) AS component_id,
         count(*)    OVER (PARTITION BY substr(text,1,64)) AS n_members
  FROM documents
),
m AS (SELECT doc_id, lang, component_id FROM c WHERE n_members >= 2),
counts AS (SELECT component_id, lang, count(*) AS cnt FROM m GROUP BY 1, 2),
agg AS (SELECT component_id, max(cnt) AS mx, count(*) AS nd FROM counts GROUP BY 1),
winner AS (
  SELECT co.component_id, min(co.lang) AS wlang,
         any_value(a.mx) AS mx, any_value(a.nd) AS nd
  FROM counts co JOIN agg a
    ON co.component_id = a.component_id AND co.cnt = a.mx
  GROUP BY co.component_id
),
keeper AS (
  SELECT m.component_id, min(m.doc_id) AS keep_doc
  FROM m JOIN winner w
    ON m.component_id = w.component_id AND m.lang = w.wlang
  WHERE w.mx > 1 OR w.nd = 1
  GROUP BY m.component_id
)
SELECT m.doc_id, COALESCE(m.doc_id = k.keep_doc, FALSE) AS keep, m.component_id
FROM m LEFT JOIN keeper k ON m.component_id = k.component_id
"""


# ----------------------------------------------------------- URL normalizer
def q_url_components(sf_dir: str):
    """M11 (filename/url normalizers) differential test: construct a messy
    URL per doc (mixed-case scheme+host, default port, duplicate slashes,
    tracking params, fragment), then run the vectorized normalizer
    library; the oracle constructs the expected canonical forms directly."""
    from fastdup_ray.functions.urls import domain_of, normalize_urls, path_stem

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        srcs = batch["source"].to_pylist()
        urls = pa.array(
            [
                f"HTTP://{s.upper()}:80/Docs//{i}.html?utm_source=x&id={i}#frag"
                for i, s in zip(ids, srcs)
            ],
            pa.string(),
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "url_norm": normalize_urls(urls),
                "domain": domain_of(urls),
                "stem": path_stem(urls),
            }
        )

    return _t(sf_dir, "documents", ["doc_id", "source"]).map_batches(
        fn, batch_format="pyarrow"
    )


SQL_URL_COMPONENTS = """
SELECT doc_id,
  'http://' || lower(source) || '/Docs/' || doc_id || '.html?id=' || doc_id AS url_norm,
  lower(source) AS domain,
  CAST(doc_id AS VARCHAR) AS stem
FROM documents
"""


# ------------------------------------------------------ kmeans assignments
def q_kmeans_assign(sf_dir: str, n_centroids: int = 16):
    """G6 (KMeans assignment artifact, reference kmeans_assignments.csv
    `filename,cluster,distance`) with a SQL oracle: deterministic
    centroids (the first n_centroids vectors, normalized), every row
    assigned to its nearest centroid by cosine. The seeded-Lloyd trainer
    (`train_ivf_centroids`) is exercised separately in tests; the oracle
    pins the assign/artifact semantics."""
    from fastdup_ray.stages.ann import _normalize, kmeans_assignments

    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"])
    rows = sorted(
        ds.map_batches(
            lambda b: b.filter(pc.less(b["vec_id"], pa.scalar(n_centroids))),
            batch_format="pyarrow",
        ).take_all(),
        key=lambda r: r["vec_id"],
    )
    cent = _normalize(
        np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in rows])
    )
    out = kmeans_assignments(ds, cent)
    return out.map_batches(
        lambda b: b.set_column(
            b.schema.get_field_index("cluster"), "cluster",
            b["cluster"].cast(pa.int64()),
        ),
        batch_format="pyarrow",
    )


SQL_KMEANS_ASSIGN = """
WITH cent AS (
  SELECT vec_id AS cluster, embedding FROM embeddings WHERE vec_id < 16
)
SELECT e.vec_id, CAST(c.cluster AS BIGINT) AS cluster,
       ROUND(list_cosine_similarity(e.embedding::DOUBLE[], c.embedding::DOUBLE[]), 5) AS distance
FROM embeddings e JOIN cent c ON TRUE
QUALIFY row_number() OVER (
  PARTITION BY e.vec_id
  ORDER BY list_cosine_similarity(e.embedding::DOUBLE[], c.embedding::DOUBLE[]) DESC,
           c.cluster ASC
) = 1
"""


def q_kmeans_topk(sf_dir: str, n_centroids: int = 16, k: int = 3):
    """G6 top-k variant with a SQL oracle: the reference's run_mode=5
    emits each point's top-k nearest centroids, not just the argmax
    (reference __init__.py:2694-2700). Same deterministic centroids as
    kmeans_assign; `kmeans_topk_assignments` emits
    (vec_id, rank, cluster, distance), rank 0 = nearest."""
    from fastdup_ray.stages.ann import _normalize, kmeans_topk_assignments

    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"])
    rows = sorted(
        ds.map_batches(
            lambda b: b.filter(pc.less(b["vec_id"], pa.scalar(n_centroids))),
            batch_format="pyarrow",
        ).take_all(),
        key=lambda r: r["vec_id"],
    )
    cent = _normalize(
        np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in rows])
    )
    out = kmeans_topk_assignments(ds, cent, k=k)

    def widen(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "vec_id": b["vec_id"],
                "rank": b["rank"].cast(pa.int64()),
                "cluster": b["cluster"].cast(pa.int64()),
                "distance": b["distance"],
            }
        )

    return out.map_batches(widen, batch_format="pyarrow")


SQL_KMEANS_TOPK = """
WITH cent AS (
  SELECT vec_id AS cluster, embedding FROM embeddings WHERE vec_id < 16
),
ranked AS (
  SELECT e.vec_id, CAST(c.cluster AS BIGINT) AS cluster,
         list_cosine_similarity(e.embedding::DOUBLE[], c.embedding::DOUBLE[]) AS cos,
         row_number() OVER (
           PARTITION BY e.vec_id
           ORDER BY list_cosine_similarity(e.embedding::DOUBLE[], c.embedding::DOUBLE[]) DESC,
                    c.cluster ASC
         ) - 1 AS rank
  FROM embeddings e JOIN cent c ON TRUE
)
SELECT vec_id, CAST(rank AS BIGINT) AS rank, cluster,
       ROUND(cos, 5) AS distance
FROM ranked WHERE rank < 3
"""


# ------------------------------------------------------- kNN neighbor lists
def q_knn_lists(sf_dir: str, n_queries: int = 5, k: int = 10):
    """A2 (kNN grouping: per-query neighbor LISTS, galleries.py:1838-1850)
    with a SQL oracle: the ann_topk result grouped per query into an
    ordered comma-joined neighbor string (strings hash stably across the
    driver's value compare; Arrow lists don't)."""
    topk = q_ann_topk(sf_dir, n_queries=n_queries, k=k)

    # mean over 5dp-rounded cosines, computed in exact integer
    # micro-units: each cosine is a multiple of 1e-5, so
    # sum(round(c*1e5)) is an exact (order-free) int64 and ONE IEEE
    # division yields bit-identical doubles on both engines. The former
    # round(mean, 5) hit a half-boundary at sf0.1 (0.341245 -> python
    # half-even 0.34124 vs DuckDB half-away 0.34125, found by the
    # full-catalog sf0.1 dryrun in r5).
    def to_list(g: pd.DataFrame) -> pd.DataFrame:
        micro = np.round(g["cosine"].to_numpy() * 1e5).astype(np.int64)
        g = g.sort_values(["cosine", "neighbor_id"], ascending=[False, True])
        return pd.DataFrame(
            {
                "query_id": [np.int64(g["query_id"].iloc[0])],
                "neighbors": [",".join(g["neighbor_id"].astype(str))],
                "mean_cosine": [int(micro.sum()) / (len(micro) * 100000.0)],
            }
        )

    return topk.groupby("query_id").map_groups(to_list, batch_format="pandas")


SQL_KNN_LISTS = """
WITH t AS (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
         ROUND(list_cosine_similarity(q.embedding::DOUBLE[], e.embedding::DOUBLE[]), 5) AS cosine
  FROM embeddings q JOIN embeddings e ON e.vec_id != q.vec_id
  WHERE q.vec_id < 5
  QUALIFY row_number() OVER (
    PARTITION BY q.vec_id
    ORDER BY ROUND(list_cosine_similarity(q.embedding::DOUBLE[], e.embedding::DOUBLE[]), 5) DESC,
             e.vec_id ASC
  ) <= 10
)
SELECT query_id,
       string_agg(neighbor_id::VARCHAR, ',' ORDER BY cosine DESC, neighbor_id) AS neighbors,
       SUM(CAST(ROUND(cosine * 100000) AS BIGINT)) / (COUNT(*) * 100000.0) AS mean_cosine
FROM t GROUP BY query_id
"""


# ----------------------------------------------------------- dedup survivors
def q_dedup_survivors(sf_dir: str):
    """D4/D6/K10 tier-dedup semantic with a SQL oracle: keep-first per
    byte-identical content group (reference fastdup_controller delete
    policy 'keep one per component') — one surviving doc_id (the min) per
    distinct text, with the group size. Hash-partitioned single groupby;
    no window, no global sort."""
    from fastdup_ray.functions.hashing import id63

    def keyed(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "content_key": pa.array(id63(batch["text"]), pa.int64()),
            }
        )

    ds = _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        keyed, batch_format="pyarrow"
    )

    def survivors(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("content_key", as_index=False).agg(
            doc_id=("doc_id", "min"), group_size=("doc_id", "size")
        )
        return g[["doc_id", "group_size"]]

    out = partitioned_groupby(ds, "content_key", survivors)
    from fastdup_ray.relational.ops import with_schema

    return with_schema(out, {"doc_id": pa.int64(), "group_size": pa.int64()})


SQL_DEDUP_SURVIVORS = """
SELECT min(doc_id) AS doc_id, count(*) AS group_size
FROM documents GROUP BY text
"""


# ------------------------------------------------------- domain pair summary
def q_domain_pair_summary(sf_dir: str):
    """D7 analog (video-level dedup rollup) with a SQL oracle: prefix-dup
    pairs joined to each endpoint's source ("domain"), canonicalized
    BEFORE the shuffle (both orientations of a pair must land in one
    partition), intra-domain pairs dropped, counted per (domain_a,
    domain_b)."""
    pairs = q_prefix_dup_pairs(sf_dir)
    docs = _t(sf_dir, "documents", ["doc_id", "source"])
    edges = hash_join(
        pairs,
        docs.rename_columns({"doc_id": "d1", "source": "domain_src"}),
        on="src", right_on="d1",
    )
    edges = hash_join(
        edges,
        docs.rename_columns({"doc_id": "d2", "source": "domain_dst"}),
        on="dst", right_on="d2",
    )

    def canon(batch: pa.Table) -> pa.Table:
        a = pc.min_element_wise(batch["domain_src"], batch["domain_dst"])
        b = pc.max_element_wise(batch["domain_src"], batch["domain_dst"])
        t = pa.table({"domain_a": a, "domain_b": b})
        return t.filter(pc.not_equal(a, b))

    canonical = edges.map_batches(canon, batch_format="pyarrow")

    def count_pairs(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["domain_a", "domain_b"], as_index=False, sort=False).size()
        return g.rename(columns={"size": "n_pairs"})

    out = partitioned_groupby(canonical, ["domain_a", "domain_b"], count_pairs)
    from fastdup_ray.relational.ops import with_schema

    return with_schema(
        out,
        {"domain_a": pa.string(), "domain_b": pa.string(), "n_pairs": pa.int64()},
    )


SQL_DOMAIN_PAIR_SUMMARY = """
WITH pairs AS (
  SELECT a.doc_id AS src, b.doc_id AS dst
  FROM documents a JOIN documents b
    ON substr(a.text, 1, 64) = substr(b.text, 1, 64) AND a.doc_id < b.doc_id
),
lab AS (
  SELECT least(x.source, y.source) AS domain_a,
         greatest(x.source, y.source) AS domain_b
  FROM pairs p
  JOIN documents x ON p.src = x.doc_id
  JOIN documents y ON p.dst = y.doc_id
)
SELECT domain_a, domain_b, count(*) AS n_pairs
FROM lab WHERE domain_a <> domain_b
GROUP BY domain_a, domain_b
"""


# ------------------------------------------------------- top-k per group
def q_top_docs_per_source(sf_dir: str, k: int = 2):
    """O2/O4 windowed-rank analog with a SQL oracle: the k longest docs
    per source (ties broken by doc_id ascending) — partition by group
    key, one vectorized sort+head per partition; no global sort."""
    ds = _t(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["source", "n_chars", "doc_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        out = df.groupby("source", as_index=False, sort=False).head(k)
        out = out.copy()
        out["rank"] = out.groupby("source", sort=False).cumcount() + 1
        return out[["source", "rank", "doc_id", "n_chars"]]

    out = partitioned_groupby(ds, "source", topk)
    from fastdup_ray.relational.ops import with_schema

    return with_schema(
        out,
        {"source": pa.string(), "rank": pa.int64(),
         "doc_id": pa.int64(), "n_chars": pa.int64()},
    )


SQL_TOP_DOCS_PER_SOURCE = """
SELECT source, rank, doc_id, n_chars FROM (
  SELECT source, doc_id, n_chars,
    row_number() OVER (
      PARTITION BY source ORDER BY n_chars DESC, doc_id
    ) AS rank
  FROM documents
) WHERE rank <= 2
"""


def _sql_lang_parts() -> tuple[str, str]:
    """Shared SQL building blocks for the lang-ID twin: (CTE chain ending
    in `m`, the lang_pred CASE expression over `m`). The stopword
    IN-lists are generated from the SAME `_STOPWORDS` dict the stage
    uses, so the two can never drift. Tie-break order in the CASE chain =
    dict insertion order = the stage's argmax-first order."""
    from fastdup_ray.stages.stats import _STOPWORDS

    langs = list(_STOPWORDS)
    hit_cols = ",\n    ".join(
        "count(*) FILTER (WHERE tok IN ({})) AS h_{}".format(
            ", ".join("'%s'" % w for w in sorted(_STOPWORDS[lang])), lang
        )
        for lang in langs
    )
    coalesce = ",\n    ".join(f"coalesce(h.h_{l}, 0) AS h_{l}" for l in langs)
    greatest = "greatest({})".format(
        ", ".join(f"coalesce(h.h_{l}, 0)" for l in langs)
    )
    tie_chain = "\n       ".join(
        f"WHEN h_{l} = best_hits THEN '{l}'" for l in langs[:-1]
    )
    lang_case = f"""CASE WHEN n_chars = 0 THEN 'unknown'
       WHEN is_zh THEN 'zh'
       WHEN best_hits = 0 THEN 'unknown'
       {tie_chain}
       ELSE '{langs[-1]}' END"""
    ctes = f"""base AS (
  SELECT doc_id, text,
    length(text) AS n_chars,
    CASE WHEN trim(text) = '' THEN 0
         ELSE len(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens,
    CASE WHEN trim(text) = '' THEN 0
         ELSE len(list_distinct(regexp_split_to_array(trim(text), '\\s+'))) END AS n_uniq,
    length(regexp_replace(text, '\\s', '', 'g')) AS non_ws,
    length(regexp_replace(text, '[^0-9]', '', 'g')) AS n_digits,
    length(text) - length(regexp_replace(text, '[一-鿿]', '', 'g')) AS n_cjk
  FROM documents
),
tok AS (
  SELECT doc_id, lower(unnest(regexp_split_to_array(trim(text), '\\s+'))) AS tok
  FROM documents WHERE trim(text) <> ''
),
h AS (
  SELECT doc_id,
    {hit_cols}
  FROM tok WHERE tok <> '' GROUP BY doc_id
),
m AS (
  SELECT b.doc_id, b.n_chars, b.n_tokens, b.n_uniq, b.non_ws, b.n_digits, b.n_cjk,
    {coalesce},
    {greatest} AS best_hits,
    (b.n_chars > 0 AND b.n_cjk::DOUBLE / greatest(1, b.n_chars) > 0.05) AS is_zh
  FROM base b LEFT JOIN h ON b.doc_id = h.doc_id
)"""
    return ctes, lang_case


def _sql_text_quality() -> str:
    """SQL twin of TextStatsStage's lang-ID + quality columns."""
    ctes, lang_case = _sql_lang_parts()
    uniq = "(CASE WHEN n_tokens > 0 THEN n_uniq::DOUBLE / n_tokens ELSE 0.0 END)"
    mwl = "(CASE WHEN n_tokens > 0 THEN non_ws::DOUBLE / n_tokens ELSE 0.0 END)"
    return f"""
WITH {ctes}
SELECT doc_id,
  {lang_case} AS lang_pred,
  CASE WHEN n_chars = 0 THEN 0.0
       WHEN is_zh THEN round(n_cjk::DOUBLE / n_chars, 6)
       WHEN best_hits = 0 THEN 0.0
       ELSE round(best_hits::DOUBLE / greatest(1, n_tokens), 6) END AS lang_score,
  CASE WHEN n_chars = 0 OR is_zh OR best_hits = 0 THEN 0.0
       ELSE round(best_hits::DOUBLE / greatest(1, n_tokens), 6) END AS stopword_ratio,
  CASE WHEN n_chars = 0 THEN 0.0 ELSE
    round(least(1.0, greatest(0.0,
      (CASE WHEN n_tokens < 50 THEN n_tokens::DOUBLE / 50.0 ELSE 1.0 END)
      * (CASE WHEN {uniq} < 0.3 THEN {uniq} / 0.3 ELSE 1.0 END)
      * (CASE WHEN {mwl} < 2.0 OR {mwl} > 12.0 THEN 0.5 ELSE 1.0 END)
      * (CASE WHEN n_digits::DOUBLE / greatest(1, n_chars) > 0.2 THEN 0.5 ELSE 1.0 END)
    )), 6) END AS quality
FROM m
"""


SQL_TEXT_QUALITY = _sql_text_quality()


def _sql_lang_confusion() -> str:
    """SQL twin of q_lang_confusion: lang_pred (shared lang-ID CTEs)
    joined to the true lang column, rolled into the per-class
    precision/recall/F1/support/accuracy report — mirroring
    `metrics.classification_report` exactly (f1 from UNROUNDED p and r;
    all output floats rounded 6 dp)."""
    ctes, lang_case = _sql_lang_parts()
    return f"""
WITH {ctes},
pred AS (SELECT doc_id, {lang_case} AS lang_pred FROM m),
j AS (
  SELECT d.lang AS label, p.lang_pred AS pred
  FROM documents d JOIN pred p ON d.doc_id = p.doc_id
),
cls AS (SELECT label AS class FROM j UNION SELECT pred FROM j),
agg AS (
  SELECT c.class,
    (SELECT count(*) FROM j WHERE j.label = c.class AND j.pred = c.class) AS tp,
    (SELECT count(*) FROM j WHERE j.pred = c.class AND j.label <> c.class) AS fp,
    (SELECT count(*) FROM j WHERE j.label = c.class AND j.pred <> c.class) AS fn
  FROM cls c
),
rates AS (
  SELECT class, tp, fp, fn,
    CASE WHEN tp + fp > 0 THEN tp::DOUBLE / (tp + fp) ELSE 0.0 END AS p_raw,
    CASE WHEN tp + fn > 0 THEN tp::DOUBLE / (tp + fn) ELSE 0.0 END AS r_raw
  FROM agg
),
tot AS (
  SELECT count(*) AS total, count(*) FILTER (WHERE label = pred) AS correct
  FROM j
)
SELECT class,
  round(p_raw, 6) AS precision,
  round(r_raw, 6) AS recall,
  round(CASE WHEN p_raw + r_raw > 0
             THEN 2 * p_raw * r_raw / (p_raw + r_raw) ELSE 0.0 END, 6) AS f1,
  tp + fn AS support,
  (SELECT CASE WHEN total > 0 THEN round(correct::DOUBLE / total, 6)
               ELSE 0.0 END FROM tot) AS accuracy
FROM rates
"""


SQL_LANG_CONFUSION = _sql_lang_confusion()


# ------------------------------------------------- enrichment (M7/M8/M5)
def q_doc_captions(sf_dir: str):
    """M7 captioning analog (reference captions.py:65-97): deterministic
    extractive caption per document — vectorized RE2 extract_regex in an
    actor-pool stage; SQL twin uses the same RE2 pattern in DuckDB."""
    from fastdup_ray.stages.enrich import caption_documents

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    return caption_documents(docs, max_chars=160).select_columns(
        ["doc_id", "caption"])


SQL_DOC_CAPTIONS = r"""
SELECT doc_id,
  regexp_replace(
    coalesce(regexp_extract(text, '^\s*([^.!?\n]{1,160})', 1), ''),
    '[\t\r\f ]+$', '') AS caption
FROM documents
"""


# detector patterns over the synthetic web-text vocabulary; every
# pattern is alternation/class-only so Python re and DuckDB's RE2 agree
# on non-overlapping match counts
_ENTITY_PATTERNS = {
    "speed": r"(?:fast|slow)",
    "sql_verb": r"(?:scan|join|merge|sort|filter)",
    "spark_bigram": r"spark [a-z]+",
}


def q_entity_span_counts(sf_dir: str):
    """M5 detector analog: regex span detection (patterns compiled once
    per actor) with shuffle-free per-(doc, label) counting — zero-match
    rows omitted on both sides."""
    from fastdup_ray.stages.spans import count_spans

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    return count_spans(docs, _ENTITY_PATTERNS, concurrency=4)


SQL_ENTITY_SPAN_COUNTS = r"""
WITH pats(det_label, pat) AS (
  VALUES ('speed', '(?:fast|slow)'),
         ('sql_verb', '(?:scan|join|merge|sort|filter)'),
         ('spark_bigram', 'spark [a-z]+')
)
SELECT d.doc_id, p.det_label,
       len(regexp_extract_all(d.text, p.pat)) AS n_spans
FROM documents d CROSS JOIN pats p
WHERE len(regexp_extract_all(d.text, p.pat)) > 0
"""


_ZS_LABELS = ["query_engine", "streaming", "customer_data"]
_ZS_PROTOS = [
    "query scan join filter sort merge table key hash agg",
    "stream window batch line order",
    "customer value data row part",
]
_ZS_DIM, _ZS_SEED = 32, 42


def q_zero_shot_labels(sf_dir: str):
    """M8 zero-shot enrichment, fully SQL-oracled: cosine of each doc's
    hash_sign hashed-trigram embedding against label-prototype embeddings
    built once per actor. The twin (sql_hash.sql_zero_shot) reproduces
    the document side of the encoder in DuckDB and inlines the constant
    unit-norm prototype matrix; 4-dp rounding, first-label argmax
    tie-break on both sides."""
    from fastdup_ray.stages.enrich import zero_shot_enrich

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    out = zero_shot_enrich(
        docs, labels=_ZS_LABELS, prototypes=_ZS_PROTOS,
        dim=_ZS_DIM, seed=_ZS_SEED, weights="hash_sign",
        concurrency=4,
    )

    def fin(batch: pa.Table) -> pa.Table:
        # + 0.0 normalizes IEEE -0.0 (matches the SQL twin)
        score = pc.add(pc.round(batch["zs_score"], ndigits=4), 0.0)
        return pa.table({
            "doc_id": batch["doc_id"],
            "zs_label": batch["zs_label"],
            "zs_score": score,
        })

    return out.map_batches(fin, batch_format="pyarrow")


def _sql_zero_shot_labels() -> str:
    from fastdup_ray.pipelines.sql_hash import sql_zero_shot
    from fastdup_ray.stages.enrich import ZeroShotLabelStage

    stage = ZeroShotLabelStage(
        _ZS_LABELS, _ZS_PROTOS, dim=_ZS_DIM, seed=_ZS_SEED,
        weights="hash_sign")
    return sql_zero_shot(_ZS_LABELS, stage.P.tolist(), _ZS_DIM, _ZS_SEED)


# built lazily inside oracle_sql(): constructing the stage materializes
# (and permanently caches) a ~16 MB hash_sign projection — that cost
# belongs to oracle users, not to every process importing this module


# ------------------------------------------------- winnowing (MOSS)
# k/w chosen so the guarantee window t = w + k - 1 = 12 bytes and the
# oracle's byte-level CTEs stay cheap at the sf0.01 gate; max_df drops
# boilerplate fingerprints (MOSS "too common" rule).
_WINNOW_K, _WINNOW_W = 5, 8
_WINNOW_MIN_SHARED, _WINNOW_MAX_DF = 2, 8


def q_winnow_fingerprints(sf_dir: str):
    """Winnowing fingerprints (Schleimer/Wilkerson/Aiken SIGMOD'03) per
    document: rightmost-min of each w-window of rolling k-gram hashes.
    SQL twin generated from the same constants (sql_hash.winnow_ctes)."""
    from fastdup_ray.stages.winnow import winnow_fingerprints

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    return winnow_fingerprints(docs, k=_WINNOW_K, w=_WINNOW_W)


def q_winnow_dup_pairs(sf_dir: str):
    """MOSS-style copy detection: pairs ranked by shared winnowing
    fingerprint values, boilerplate values (df > max_df) dropped."""
    from fastdup_ray.stages.winnow import (winnow_fingerprints,
                                           winnow_pair_counts)

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    fps = winnow_fingerprints(docs, k=_WINNOW_K, w=_WINNOW_W)
    return winnow_pair_counts(fps, min_shared=_WINNOW_MIN_SHARED,
                              max_df=_WINNOW_MAX_DF)


SQL_WINNOW_FINGERPRINTS = sql_winnow_fingerprints(_WINNOW_K, _WINNOW_W)
SQL_WINNOW_DUP_PAIRS = sql_winnow_dup_pairs(
    _WINNOW_K, _WINNOW_W, _WINNOW_MIN_SHARED, _WINNOW_MAX_DF)


# ------------------------------------- fixed-context chunking
_CHUNK_W, _CHUNK_S = 32, 16


def q_doc_chunks(sf_dir: str):
    """Sliding fixed-context pretraining chunks: 32-token windows every
    16 tokens (50% overlap). Pure vectorized map — the same window
    kernel as span dedup with a stride (stages/span_dedup.py)."""
    from fastdup_ray.stages.span_dedup import chunk_documents

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    return chunk_documents(docs, window=_CHUNK_W, stride=_CHUNK_S)


SQL_DOC_CHUNKS = f"""
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS t FROM documents
)
SELECT doc_id, CAST(u.w AS BIGINT) AS chunk_idx,
       array_to_string(t[u.w*{_CHUNK_S}+1 : u.w*{_CHUNK_S}+{_CHUNK_W}], ' ') AS chunk
FROM toks, UNNEST(range(CASE WHEN len(t) >= {_CHUNK_W}
     THEN (len(t) - {_CHUNK_W}) // {_CHUNK_S} + 1 ELSE 0 END)) AS u(w)
"""


# ------------------------------------- deterministic hash sampling
_SAMPLE_SALT = 20260818
_SAMPLE_RATES = {"en": 0.35}     # downweight the head language
_SAMPLE_DEFAULT = 0.8
_STRAT_N = 40


def q_stratified_sample(sf_dir: str):
    """Deterministic per-language Bernoulli downsampling (head-language
    rebalancing): keep iff mix64(doc_id^salt) % 1e6 < rate[lang]*1e6.
    Shuffle-free single pass; membership (not just size) is oracled via
    the bit-exact mix64 SQL twin (sql_hash.mix64_ctes)."""
    from fastdup_ray.stages.sample import hash_sample

    docs = _t(sf_dir, "documents", ["doc_id", "lang"])
    return hash_sample(docs, key="doc_id", group_col="lang",
                       rates=_SAMPLE_RATES, default_rate=_SAMPLE_DEFAULT,
                       salt=_SAMPLE_SALT)


_TEMP_MIX_SALT = 0x7E09
_TEMP_MIX_K = 3.0


def q_temperature_mix(sf_dir: str):
    """Temperature-based source mixing (the data-mixing step of
    GPT/Llama-style corpus assembly: sample source s with expected count
    ∝ n_s^alpha, alpha=0.5, flattening head sources): per-source counts
    via the zero-shuffle combiner, then one shuffle-free hash-Bernoulli
    pass at rate_s = min(1, K/sqrt(n_s)) — expected take K*sqrt(n_s),
    exactly the alpha=0.5 temperature target. The rate formula avoids
    any cross-group float sum (no normalization constant), so the
    thresholds are bit-identical doubles on both engines and membership
    is oracled through the exact mix64 CTE chain."""
    from fastdup_ray.stages.sample import hash_sample

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("source", as_index=False, sort=False).agg(
            n=("source", "size")
        )

    counts = combine_aggregate(
        _t(sf_dir, "documents", ["source"]), "source", partial
    ).take_all()
    rates = {
        r["source"]: min(1.0, _TEMP_MIX_K / math.sqrt(r["n"])) for r in counts
    }
    docs = _t(sf_dir, "documents", ["doc_id", "source"])
    return hash_sample(docs, key="doc_id", group_col="source",
                       rates=rates, default_rate=0.0, salt=_TEMP_MIX_SALT)


def _sql_temperature_mix() -> str:
    from fastdup_ray.pipelines.sql_hash import mix64_ctes

    ctes = mix64_ctes("doc_id", ["doc_id", "source"], "documents",
                      salt=_TEMP_MIX_SALT)
    return (
        f"WITH {ctes},\n"
        "cnt AS (SELECT source, count(*) AS n FROM documents GROUP BY source)\n"
        "SELECT m.doc_id, m.source\n"
        "FROM mx5 m JOIN cnt c ON c.source = m.source\n"
        "WHERE m.h5 % 1000000 < CAST(FLOOR(LEAST(1.0, "
        f"{_TEMP_MIX_K} / sqrt(c.n)) * 1000000) AS BIGINT)"
    )


SQL_TEMPERATURE_MIX = _sql_temperature_mix()


def q_semdedup(sf_dir: str, n_centroids: int = 16, threshold: float = 0.4):
    """SemDeDup (Abbas et al. 2023): k-means-cluster the embedding table,
    then keep one representative per intra-cluster cosine-similarity
    group (round(cos,6) >= threshold). Centroids here are the
    deterministic first-n normalized vectors (the `ivf_probe_topk` /
    `kmeans_assign` convention) so the whole pipeline — assignment
    argmax, intra-cluster pair graph, min-id representative — is
    SQL-expressible; the library default accepts any trained centroids
    (seeded-Lloyd `train_ivf_centroids_pinned` / free-form trainer).
    Output: (vec_id, cell, rep_id, keep) — `filter(keep)` is the
    semantically deduplicated corpus."""
    from fastdup_ray.stages.ann import _normalize
    from fastdup_ray.stages.semdedup import semdedup

    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"]).materialize()
    rows = sorted(
        ds.map_batches(
            lambda b: b.filter(pc.less(b["vec_id"], pa.scalar(n_centroids))),
            batch_format="pyarrow",
        ).take_all(),
        key=lambda r: r["vec_id"],
    )
    cent = _normalize(
        np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in rows])
    )
    return semdedup(ds, cent, threshold=threshold)


SQL_SEMDEDUP = """
WITH RECURSIVE
cent AS (
  SELECT vec_id AS cell, embedding FROM embeddings WHERE vec_id < 16
),
assigned AS (
  SELECT e.vec_id, e.embedding, c.cell
  FROM embeddings e JOIN cent c ON TRUE
  QUALIFY row_number() OVER (
    PARTITION BY e.vec_id
    ORDER BY list_cosine_similarity(e.embedding::DOUBLE[], c.embedding::DOUBLE[]) DESC,
             c.cell ASC
  ) = 1
),
pairs AS (
  SELECT a.vec_id AS src, b.vec_id AS dst
  FROM assigned a JOIN assigned b ON a.cell = b.cell AND a.vec_id < b.vec_id
  WHERE ROUND(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) >= 0.4
),
sym AS (SELECT src AS u, dst AS v FROM pairs UNION SELECT dst, src FROM pairs),
reach(u, v) AS (
  SELECT u, v FROM sym
  UNION
  SELECT r.u, s.v FROM reach r JOIN sym s ON s.u = r.v
),
rep AS (SELECT u AS vec_id, LEAST(u, MIN(v)) AS rep_id FROM reach GROUP BY u)
SELECT a.vec_id, CAST(a.cell AS BIGINT) AS cell,
       coalesce(r.rep_id, a.vec_id) AS rep_id,
       coalesce(r.rep_id, a.vec_id) = a.vec_id AS keep
FROM assigned a LEFT JOIN rep r ON r.vec_id = a.vec_id
"""


def q_dsir_weights(sf_dir: str, vocab_k: int = 256):
    """DSIR-style importance weights (Xie et al. 2023): per-doc mean
    log-likelihood ratio of a target-slice bag-of-words model (docs with
    source = 'src0') against the raw-corpus model, vocab-capped with
    <unk> like the LM stage. Positive = looks like the target. Full SQL
    twin (same tokenization/vocab/smoothing contract as
    lm_cross_entropy)."""
    from fastdup_ray.stages.dsir import dsir_weights

    docs = _t(sf_dir, "documents", ["doc_id", "text", "source"])
    target = docs.map_batches(
        lambda b: b.filter(pc.equal(b["source"], pa.scalar("src0")))
        .select(["doc_id", "text"]),
        batch_format="pyarrow",
    )
    return dsir_weights(docs.select_columns(["doc_id", "text"]), target,
                        vocab_k=vocab_k)


def _sql_dsir_weights() -> str:
    from fastdup_ray.stages.dsir import sql_dsir_weights

    return sql_dsir_weights(256, "d.source = 'src0'")


SQL_DSIR_WEIGHTS = _sql_dsir_weights()


def q_pmi_collocations(sf_dir: str, vocab_k: int = 512, min_count: int = 5,
                       k: int = 100):
    """Corpus collocation mining: top-k adjacent-token bigrams by PMI
    (Church & Hanks 1990) over the top-vocab_k vocabulary, min_count
    guard against rare-pair bias. The counting passes are the LM
    stage's map-side-combined exchanges; the final ranking is a
    knob-bounded driver computation. Exact SQL twin."""
    from fastdup_ray.stages.lm import pmi_collocations

    return pmi_collocations(
        _t(sf_dir, "documents", ["doc_id", "text"]),
        vocab_k=vocab_k, min_count=min_count, k=k,
    )


def _sql_pmi_collocations() -> str:
    from fastdup_ray.stages.lm import sql_pmi_collocations

    return sql_pmi_collocations(512, 5, 100)


SQL_PMI_COLLOCATIONS = _sql_pmi_collocations()


def q_heavy_hitters(sf_dir: str, capacity: int = 1 << 15, k: int = 50):
    """Frequent tokens via the distributed Misra-Gries sketch — the
    ZERO-SHUFFLE scale path for `vocab_topk`'s partition exchange (pure
    map pass + capacity-bounded tree reduce; nothing data-proportional
    moves). At this capacity (32768 > the fixtures' distinct-token
    count) no reduction fires, counts are exact and the SQL twin pins
    them; the approximation guarantee at small capacity
    (c_hat <= c <= c_hat + N/(cap+1)) is pytest-gated in
    tests/test_round4b.py."""
    from fastdup_ray.stages.lm import _token_regions
    from fastdup_ray.stages.sketches import misra_gries_counts

    def to_keys(t: pa.Table) -> np.ndarray:
        _, _, flat = _token_regions(t)
        return flat

    keys, counts, _n, err = misra_gries_counts(
        _t(sf_dir, "documents", ["doc_id", "text"]), to_keys,
        capacity=capacity,
    )
    assert err == 0.0, "fixture capacity must keep the sketch exact"
    top = (
        pd.DataFrame({"token": keys, "cnt": counts})
        .sort_values(["cnt", "token"], ascending=[False, True],
                     kind="mergesort")
        .head(k)
    )
    return pa.table({
        "token": pa.array(top["token"].to_numpy(), pa.string()),
        "cnt": pa.array(top["cnt"].to_numpy(), pa.int64()),
    })


SQL_HEAVY_HITTERS = """
WITH tl AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
tok AS (
  SELECT toks[r.i + 1] AS token
  FROM tl, unnest(range(len(toks))) AS r(i)
)
SELECT token, CAST(count(*) AS BIGINT) AS cnt
FROM tok GROUP BY token
ORDER BY cnt DESC, token
LIMIT 50
"""


def q_nb_classify(sf_dir: str, vocab_k: int = 256):
    """Multinomial Naive Bayes classifier trained on the corpus's own
    `source` labels (the GPT-3/CCNet quality-classifier shape: train a
    cheap text classifier, score every doc, select by prediction).
    Bounded count exchanges train the model; the knob-sized
    log-probability matrix is broadcast once per scoring actor. Full
    SQL twin (same tokenization/vocab/smoothing contract as the LM /
    DSIR twins; 4dp-rounded scores, class-ascending argmax
    tie-break)."""
    from fastdup_ray.stages.nbayes import nb_classify

    return nb_classify(
        _t(sf_dir, "documents", ["doc_id", "text", "source"]),
        label_col="source", vocab_k=vocab_k,
    )


def _sql_nb_classify() -> str:
    from fastdup_ray.stages.nbayes import sql_nb_classify

    return sql_nb_classify(256, "source")


SQL_NB_CLASSIFY = _sql_nb_classify()


def _sql_stratified(which: str) -> str:
    from fastdup_ray.pipelines.sql_hash import mix64_ctes

    ctes = mix64_ctes("doc_id", ["doc_id", "lang"], "documents",
                      salt=_SAMPLE_SALT)
    if which == "rate":
        thr = " ".join(
            f"WHEN lang = '{g}' THEN {int(r * 1_000_000)}"
            for g, r in _SAMPLE_RATES.items())
        return (f"WITH {ctes}\nSELECT doc_id, lang FROM mx5\n"
                f"WHERE h5 % 1000000 < CASE {thr} "
                f"ELSE {int(_SAMPLE_DEFAULT * 1_000_000)} END")
    return (f"WITH {ctes},\nranked AS (\n"
            "  SELECT doc_id, lang,\n"
            "         row_number() OVER (PARTITION BY lang ORDER BY h5, doc_id) AS rn\n"
            "  FROM mx5)\n"
            f"SELECT doc_id, lang FROM ranked WHERE rn <= {_STRAT_N}")


SQL_STRATIFIED_SAMPLE = _sql_stratified("rate")


def q_stratified_fixed_n(sf_dir: str):
    """Exactly N docs per language, chosen as the N smallest
    mix64(doc_id^salt) values — a deterministic 'random' stratified
    sample whose shuffle input is pruned to <=N rows per (lang, block)
    before the exchange."""
    from fastdup_ray.stages.sample import stratified_fixed_n

    docs = _t(sf_dir, "documents", ["doc_id", "lang"])
    return stratified_fixed_n(docs, n=_STRAT_N, key="doc_id",
                              group_col="lang", salt=_SAMPLE_SALT)


SQL_STRATIFIED_FIXED_N = _sql_stratified("fixed_n")


# ----------------------------------- deterministic global shuffle
def q_shuffle_positions(sf_dir: str):
    """Reproducible corpus-wide shuffle with exact materialized
    positions: pos = rank under ascending (mix64(doc_id^salt), doc_id).
    Distributed-rank shape — tiny bucket-count aggregate + prefix
    offsets + per-bucket local sort; no global sort barrier
    (stages/shuffle.py). SQL twin: one window row_number over the
    bit-exact mix64 CTE chain."""
    from fastdup_ray.stages.shuffle import deterministic_shuffle

    docs = _t(sf_dir, "documents", ["doc_id"])
    return deterministic_shuffle(docs, key="doc_id", salt=_SAMPLE_SALT)


def _sql_shuffle_positions() -> str:
    from fastdup_ray.pipelines.sql_hash import mix64_ctes

    ctes = mix64_ctes("doc_id", ["doc_id"], "documents", salt=_SAMPLE_SALT)
    return (f"WITH {ctes}\n"
            "SELECT doc_id, CAST(row_number() OVER (ORDER BY h5, doc_id) - 1"
            " AS BIGINT) AS pos FROM mx5")


SQL_SHUFFLE_POSITIONS = _sql_shuffle_positions()


# ------------------------------------------- corpus vocabulary
def q_vocab_topk(sf_dir: str, k: int = 50):
    """Corpus-level token vocabulary, top-k by frequency: map-side
    value_counts per batch (shuffle input = distinct tokens per block,
    not token occurrences), groupby-sum, deterministic (cnt desc, token
    asc) top-k."""

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        vc = pc.value_counts(toks.values)
        return pa.table({
            "token": vc.field("values"),
            "cnt": vc.field("counts").cast(pa.int64()),
        })

    return (
        _t(sf_dir, "documents", ["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .sort(["cnt", "token"], descending=[True, False])
        .limit(k)
    )


SQL_VOCAB_TOPK = """
WITH toks AS (
  SELECT unnest(string_split(text, ' ')) AS token FROM documents
)
SELECT token, CAST(count(*) AS BIGINT) AS cnt FROM toks
GROUP BY token ORDER BY cnt DESC, token LIMIT 50
"""


# ------------------------------------- corpus-LM quality scoring
def q_lm_cross_entropy(sf_dir: str, vocab_k: int = 20):
    """CCNet-style quality signal: train an add-one-smoothed bigram LM on
    the corpus (two streaming count passes, map-side combined; vocab
    capped at `vocab_k` with deterministic cnt-desc/token-asc tie-break,
    rest -> <unk>) and score every doc's cross-entropy in nats/token.
    vocab_k=20 keeps <unk> exercised on the testdata vocabulary."""
    from fastdup_ray.stages.lm import lm_cross_entropy

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    return lm_cross_entropy(docs, vocab_k=vocab_k)


def _sql_lm_cross_entropy() -> str:
    from fastdup_ray.stages.lm import sql_lm_cross_entropy

    return sql_lm_cross_entropy(20)


SQL_LM_CROSS_ENTROPY = _sql_lm_cross_entropy()


# --------------------------------------------- pattern redaction
def q_redacted_events(sf_dir: str):
    """Pattern redaction with real signal: every digit run in the events
    props payload rewritten to <NUM>, with the pre-rewrite match count.
    One vectorized RE2 sweep per rule, no shuffle (stages/redact.py)."""
    from fastdup_ray.stages.redact import redact

    ev = _t(sf_dir, "events", ["event_id", "props"])
    return redact(ev, {"num": (r"\d+", "<NUM>")}, column="props",
                  keep=["event_id"])


SQL_REDACTED_EVENTS = r"""
SELECT event_id,
       CAST(len(regexp_extract_all(props, '\d+')) AS BIGINT) AS n_num,
       regexp_replace(props, '\d+', '<NUM>', 'g') AS props_redacted
FROM events
"""


def q_pii_redact(sf_dir: str):
    """PII preset parity check with guaranteed signal: a contact line is
    derived deterministically from doc_id on BOTH sides (so no external
    data), then the email/ipv4/phone rules run in preset order. Oracles
    the exact rewrite bytes and per-rule counts, i.e. that Arrow's RE2
    and DuckDB's RE2 agree on every preset pattern."""
    import pyarrow.compute as _pc

    from fastdup_ray.stages.redact import PII_PATTERNS, RedactStage

    docs = _t(sf_dir, "documents", ["doc_id"])

    def derive(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = _pc.binary_join_element_wise(
            "user", _pc.cast(batch["doc_id"], pa.string()),
            "@mail.example.com ip 10.",
            _pc.cast(pa.array(ids % 256), pa.string()), ".0.",
            _pc.cast(pa.array(ids % 100), pa.string()),
            " call +1 555 0123", "")
        return pa.table({"doc_id": batch["doc_id"], "contact": s})

    stage = RedactStage(PII_PATTERNS, column="contact", keep=["doc_id"])
    return docs.map_batches(derive, batch_format="pyarrow").map_batches(
        stage, batch_format="pyarrow")


def _sql_pii_redact() -> str:
    from fastdup_ray.stages.redact import PII_PATTERNS, sql_redact_exprs

    redacted, counts = sql_redact_exprs(PII_PATTERNS, "contact")
    return (
        "WITH derived AS (\n"
        "  SELECT doc_id,\n"
        "         'user' || CAST(doc_id AS VARCHAR) || '@mail.example.com ip 10.'\n"
        "           || CAST(doc_id % 256 AS VARCHAR) || '.0.'\n"
        "           || CAST(doc_id % 100 AS VARCHAR) || ' call +1 555 0123'\n"
        "           AS contact\n"
        "  FROM documents)\n"
        "SELECT doc_id, " + ", ".join(counts) + ", " + redacted
        + " FROM derived"
    )


SQL_PII_REDACT = _sql_pii_redact()


# ------------------------------------------- C4-style span dedup
_SPAN_W = 13  # window length in tokens (C4 uses 3 sentences; fixed
# token windows keep the rule exactly SQL-expressible for the oracle)

_SQL_SPAN_CTES = rf"""
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS t FROM documents
), wins AS (
  SELECT doc_id, CAST(u.w AS BIGINT) AS win_idx,
         array_to_string(t[u.w*{_SPAN_W}+1 : u.w*{_SPAN_W}+{_SPAN_W}], ' ') AS span
  FROM toks, UNNEST(range(len(t) // {_SPAN_W})) AS u(w)
), ranked AS (
  SELECT doc_id, win_idx, span,
         row_number() OVER (PARTITION BY span ORDER BY doc_id, win_idx) AS rn,
         count(*) OVER (PARTITION BY span) AS cnt
  FROM wins
)
"""


def q_span_dedup_spans(sf_dir: str):
    """C4-style span dedup, phase 1: the kill list — every occurrence of
    a duplicated W-token window except its minimal (doc_id, win_idx)
    keeper (Raffel et al. 2020 §2.2, fixed-window variant; stage doc in
    stages/span_dedup.py). One shuffle on the 63-bit span hash; grouped
    comparison is on the real span text, so collisions can't merge."""
    from fastdup_ray.stages.span_dedup import span_kill_list

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    return span_kill_list(docs, window=_SPAN_W)


SQL_SPAN_DEDUP_SPANS = (
    _SQL_SPAN_CTES
    + "SELECT doc_id, win_idx, span FROM ranked WHERE cnt > 1 AND rn > 1"
)


def q_span_dedup_docs(sf_dir: str):
    """C4-style span dedup, phase 2: the corpus rebuilt with every
    non-first duplicated window deleted. The kill list (∝ duplicated
    occurrences only) is broadcast once; untouched docs take the
    vectorized join path."""
    from fastdup_ray.stages.span_dedup import span_dedup_docs

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    return span_dedup_docs(docs, window=_SPAN_W)


SQL_SPAN_DEDUP_DOCS = _SQL_SPAN_CTES + r"""
, kept AS (
  SELECT doc_id, win_idx, span FROM ranked WHERE cnt = 1 OR rn = 1
), agg AS (
  SELECT doc_id, string_agg(span, ' ' ORDER BY win_idx) AS body
  FROM kept GROUP BY doc_id
), trail AS (
  SELECT doc_id,
         array_to_string(t[(len(t)//{W})*{W}+1 : len(t)], ' ') AS trailer
  FROM toks
)
SELECT tr.doc_id,
       -- explicit CASE concat (NOT trim): the separator is inserted only
       -- when both body and trailer are non-empty, matching the Python
       -- ' '.join semantics byte-for-byte — trim() would strip leading/
       -- trailing spaces that the untouched-doc path preserves
       CASE
         WHEN a.body IS NULL OR a.body = '' THEN coalesce(tr.trailer,'')
         WHEN coalesce(tr.trailer,'') = '' THEN a.body
         ELSE a.body || ' ' || tr.trailer
       END AS text_clean
FROM trail tr LEFT JOIN agg a USING (doc_id)
""".replace("{W}", str(_SPAN_W))


def queries():
    # Catalog order is deliberate: the correctness driver verifies the FIRST
    # 50 entries against the DuckDB oracles.  Rounds 1-4 banked green driver
    # rows for the 50 oldest queries; round 5 rotated the 22 queries added
    # in r3/r4 (never driver-checked before) into the window.  Every query
    # whose code or input changed since is also in the window: knn_lists
    # and simhash_near_dup_pairs (both changed in r5) and
    # minhash_components (its verify stage now scores the signature
    # table's shingle sets), and the five join-backed queries that sat
    # beyond it when every two-input op moved onto the one hash exchange
    # and join kernel (customers_without_events has since moved from the
    # deleted Bloom-prefiltered anti-join to cogroup_anti_join), and
    # substring_dup_pairs (its code changed when the sampled anchor rule
    # was deleted; it runs the winnow anchors, as before), and the four
    # queries that passed a partition count of their own before the hash
    # exchange took its width from its input blocks and the cluster's
    # CPUs (four exchange-free padding queries moved out for them).  The
    # rest of the window is padded with the
    # cheapest queries that already hold two rounds of driver evidence;
    # word_repetition_stats (exchange-free, with driver rows) moved in
    # when substring_dup_pairs_winnow, a second copy of
    # substring_dup_pairs, was deleted.
    # Rotate again next round so every query gets a driver row within two
    # rounds.  Local full-catalog sweep: tools/correctness_dryrun.py.
    return {
        # --- 21 queries new in r3/r4, first driver check in r5 ---
        "doc_captions": q_doc_captions,
        "entity_span_counts": q_entity_span_counts,
        "zero_shot_labels": q_zero_shot_labels,
        "winnow_fingerprints": q_winnow_fingerprints,
        "winnow_dup_pairs": q_winnow_dup_pairs,
        "span_dedup_spans": q_span_dedup_spans,
        "span_dedup_docs": q_span_dedup_docs,
        "stratified_sample": q_stratified_sample,
        "temperature_mix": q_temperature_mix,
        "stratified_fixed_n": q_stratified_fixed_n,
        "redacted_events": q_redacted_events,
        "pii_redact": q_pii_redact,
        "shuffle_positions": q_shuffle_positions,
        "vocab_topk": q_vocab_topk,
        "lm_cross_entropy": q_lm_cross_entropy,
        "doc_chunks": q_doc_chunks,
        "semdedup": q_semdedup,
        "dsir_weights": q_dsir_weights,
        "pmi_collocations": q_pmi_collocations,
        "heavy_hitters": q_heavy_hitters,
        "nb_classify": q_nb_classify,
        # --- 4 queries changed since their last driver check ---
        "knn_lists": q_knn_lists,
        "simhash_near_dup_pairs": q_simhash_near_dup_pairs,
        "minhash_components": q_minhash_components,
        "substring_dup_pairs": q_substring_dup_pairs,
        # --- 5 join-backed queries whose join path changed (one hash
        # exchange and one join kernel for every two-input op) ---
        "customers_without_orders": q_customers_without_orders,
        "last_order_before_event": q_last_order_before_event,
        "customers_without_events": q_customers_without_events,
        "outliers": q_outliers,
        "hierarchical_components": q_hierarchical_components,
        # --- 4 queries that passed their own partition count ---
        "top_docs_per_source": q_top_docs_per_source,
        "recent_events": q_recent_events,
        "majority_keep": q_majority_keep,
        "stats_filtered_dups": q_stats_filtered_dups,
        # --- 15 cheapest already-driver-green queries (window padding) ---
        "source_topk": q_source_topk,
        "exact_dup_components": q_exact_dup_components,
        "prefix_dup_pairs": q_prefix_dup_pairs,
        "kmeans_assign": q_kmeans_assign,
        "url_components": q_url_components,
        "kmeans_topk": q_kmeans_topk,
        "leakage_safe_split": q_leakage_safe_split,
        "dedup_survivors": q_dedup_survivors,
        "dup_size_histogram": q_dup_size_histogram,
        "lang_confusion": q_lang_confusion,
        "pagerank": q_pagerank,
        "component_majority_label": q_component_majority_label,
        "token_pack_shards": q_token_pack_shards,
        "hll_distinct_grams": q_hll_distinct_grams,
        "ivf_probe_topk": q_ivf_probe_topk,
        "word_repetition_stats": q_word_repetition_stats,
        # --- beyond the driver window (driver rows banked r1-r4) ---
        "contamination_ngrams": q_contamination_ngrams,
        "lang_summary": q_lang_summary,
        "chars_p90": q_chars_p90,
        "doc_stats": q_doc_stats,
        "text_quality": q_text_quality,
        "bpe_token_counts": q_bpe_token_counts,
        "token_totals": q_token_totals,
        "simhash_fingerprints": q_simhash_fingerprints,
        "windowed_events": q_windowed_events,
        "pricing_summary": q_pricing_summary,
        "customer_revenue_topk": q_customer_revenue_topk,
        "ann_topk": q_ann_topk,
        "sessionize": q_sessionize,
        "ann_ivf_topk": q_ann_ivf_topk,
        "benchmark_contamination": q_benchmark_contamination,
        "doc_embeddings": q_doc_embeddings,
        "label_score": q_label_score,
        "domain_pair_summary": q_domain_pair_summary,
        "embedding_lsh_pairs": q_embedding_lsh_pairs,
        "ngram_jaccard_pairs": q_ngram_jaccard_pairs,
        "embedding_dup_pairs": q_embedding_dup_pairs,
    }


def oracle_sql():
    return {
        "doc_embeddings": SQL_DOC_EMBEDDINGS,
        "dedup_survivors": SQL_DEDUP_SURVIVORS,
        "domain_pair_summary": SQL_DOMAIN_PAIR_SUMMARY,
        "top_docs_per_source": SQL_TOP_DOCS_PER_SOURCE,
        "text_quality": SQL_TEXT_QUALITY,
        "pagerank": SQL_PAGERANK,
        "lang_confusion": SQL_LANG_CONFUSION,
        "doc_stats": SQL_DOC_STATS,
        "exact_dup_components": SQL_EXACT_DUP_COMPONENTS,
        "lang_summary": SQL_LANG_SUMMARY,
        "source_topk": SQL_SOURCE_TOPK,
        "chars_p90": SQL_CHARS_P90,
        "prefix_dup_pairs": SQL_PREFIX_DUP_PAIRS,
        "token_totals": SQL_TOKEN_TOTALS,
        "ngram_jaccard_pairs": SQL_NGRAM_JACCARD_PAIRS,
        "embedding_dup_pairs": SQL_EMBEDDING_DUP_PAIRS,
        "embedding_lsh_pairs": SQL_EMBEDDING_LSH_PAIRS,
        "dup_size_histogram": SQL_DUP_SIZE_HISTOGRAM,
        "leakage_safe_split": SQL_LEAKAGE_SAFE_SPLIT,
        "recent_events": SQL_RECENT_EVENTS,
        "ann_topk": SQL_ANN_TOPK,
        "windowed_events": SQL_WINDOWED_EVENTS,
        "sessionize": SQL_SESSIONIZE,
        "last_order_before_event": SQL_LAST_ORDER_BEFORE_EVENT,
        "word_repetition_stats": SQL_WORD_REPETITION_STATS,
        "benchmark_contamination": SQL_BENCHMARK_CONTAMINATION,
        "contamination_ngrams": SQL_CONTAMINATION_NGRAMS,
        "customer_revenue_topk": SQL_CUSTOMER_REVENUE_TOPK,
        "customers_without_orders": SQL_CUSTOMERS_WITHOUT_ORDERS,
        "customers_without_events": SQL_CUSTOMERS_WITHOUT_EVENTS,
        "pricing_summary": SQL_PRICING_SUMMARY,
        "outliers": SQL_OUTLIERS,
        "label_score": SQL_LABEL_SCORE,
        "bpe_token_counts": SQL_BPE_TOKEN_COUNTS,
        "token_pack_shards": SQL_TOKEN_PACK_SHARDS,
        "hll_distinct_grams": sql_hll_distinct_grams(),
        "stats_filtered_dups": SQL_STATS_FILTERED_DUPS,
        "component_majority_label": SQL_COMPONENT_MAJORITY_LABEL,
        "majority_keep": SQL_MAJORITY_KEEP,
        "url_components": SQL_URL_COMPONENTS,
        "knn_lists": SQL_KNN_LISTS,
        "kmeans_assign": SQL_KMEANS_ASSIGN,
        "kmeans_topk": SQL_KMEANS_TOPK,
        "ivf_probe_topk": SQL_IVF_PROBE_TOPK,
        "ann_ivf_topk": SQL_ANN_IVF_TOPK,
        # simhash is hash-defined but the hash IS SQL-expressible: the
        # generated mod-2^64 arithmetic twins in sql_hash.py reproduce
        # hash64_segmented + simhash64 bit-for-bit in DuckDB (r3)
        "simhash_fingerprints": SQL_SIMHASH_FINGERPRINTS,
        "simhash_near_dup_pairs": SQL_SIMHASH_NEAR_DUP_PAIRS,
        "substring_dup_pairs": SQL_SUBSTRING_DUP_PAIRS,
        "doc_captions": SQL_DOC_CAPTIONS,
        "entity_span_counts": SQL_ENTITY_SPAN_COUNTS,
        "winnow_fingerprints": SQL_WINNOW_FINGERPRINTS,
        "winnow_dup_pairs": SQL_WINNOW_DUP_PAIRS,
        "span_dedup_spans": SQL_SPAN_DEDUP_SPANS,
        "span_dedup_docs": SQL_SPAN_DEDUP_DOCS,
        "stratified_sample": SQL_STRATIFIED_SAMPLE,
        "temperature_mix": SQL_TEMPERATURE_MIX,
        "stratified_fixed_n": SQL_STRATIFIED_FIXED_N,
        "redacted_events": SQL_REDACTED_EVENTS,
        "pii_redact": SQL_PII_REDACT,
        "shuffle_positions": SQL_SHUFFLE_POSITIONS,
        "vocab_topk": SQL_VOCAB_TOPK,
        "lm_cross_entropy": SQL_LM_CROSS_ENTROPY,
        "doc_chunks": SQL_DOC_CHUNKS,
        # LSH candidates are probabilistic, but exact-Jaccard verify makes
        # the final labeling equal the exact-shingle oracle at recall 1.0
        # (asserted in tests; empirically hash-matched at sf0.001/sf0.01)
        "minhash_components": SQL_MINHASH_COMPONENTS,
        # same argument one level up: exact verify makes level-2 equal the
        # exact-Jaccard clustering at LSH recall 1.0 (verified both scales)
        "hierarchical_components": SQL_HIERARCHICAL_COMPONENTS,
        # doc side of the encoder reproduced in SQL; constant unit-norm
        # prototype matrix inlined as VALUES (ann_ivf_topk stays the one
        # rows-only query: seeded-Lloyd trainer)
        "zero_shot_labels": _sql_zero_shot_labels(),
        "semdedup": SQL_SEMDEDUP,
        "dsir_weights": SQL_DSIR_WEIGHTS,
        "pmi_collocations": SQL_PMI_COLLOCATIONS,
        "heavy_hitters": SQL_HEAVY_HITTERS,
        "nb_classify": SQL_NB_CLASSIFY,
    }
