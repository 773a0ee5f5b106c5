"""End-to-end training-data curation: the full pre-training data path a
user of the reference would run, composed from this engine's stages —

  documents
    -> PII redaction            (stages/redact.py, pure vectorized map)
    -> C4-style span dedup      (stages/span_dedup.py, one span-hash shuffle)
    -> LM quality gate          (stages/lm.py, corpus-trained bigram model)
    -> per-language rebalancing (stages/sample.py, shuffle-free hash sample)
    -> deterministic shuffle    (stages/shuffle.py, exact global positions)
    -> token-budget shards      (prefix-sum pack over the shuffled order)
    -> partitioned parquet      (one directory per shard: resumable output)

Every decision is a pure function of (row, salt), so re-running this
script — at any parallelism, after any failure — rewrites byte-identical
shards.

    python examples/curation_pipeline.py [sf_dir] [out_dir]
"""

import sys

import numpy as np
import pyarrow as pa
import ray

if not ray.is_initialized():
    ray.init(address="local", include_dashboard=False, logging_level="ERROR")

import ray.data as rd
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False

from fastdup_ray.stages.redact import PII_PATTERNS, redact
from fastdup_ray.stages.sample import hash_sample
from fastdup_ray.stages.shuffle import deterministic_shuffle
from fastdup_ray.stages.span_dedup import span_dedup_docs

SALT = 20260818
TOKEN_BUDGET = 4096  # tokens per training shard


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    out_dir = sys.argv[2] if len(sys.argv) > 2 else "/tmp/fastdup_ray_curated"

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "lang"])

    # 1. scrub PII in place (counts dropped; keep doc_id/lang)
    clean = redact(docs, PII_PATTERNS, column="text",
                   keep=["doc_id", "lang"], counts=False)
    clean = clean.rename_columns({"text_redacted": "text"})

    # 2. kill every non-first occurrence of a duplicated 13-token window
    lang = docs.select_columns(["doc_id", "lang"])
    deduped = span_dedup_docs(clean.select_columns(["doc_id", "text"]),
                              window=13)
    deduped = deduped.rename_columns({"text_clean": "text"})

    # 3. CCNet-style quality gate: train a bigram LM on the deduped
    #    corpus itself and drop the worst-scoring decile (highest
    #    cross-entropy = least like the corpus). The threshold is an
    #    exact quantile of ONE float column — at web scale swap in a
    #    sampled quantile; the scoring itself streams either way.
    from fastdup_ray.stages.lm import lm_cross_entropy

    scores = lm_cross_entropy(deduped.select_columns(["doc_id", "text"]),
                              vocab_k=256)
    ce = np.sort(np.concatenate([
        b["cross_entropy"].to_numpy(zero_copy_only=False)
        for b in scores.select_columns(["cross_entropy"])
                       .iter_batches(batch_format="pyarrow")
    ]))
    thr = float(np.quantile(ce, 0.9))

    def keep_good(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return batch.filter(
            pc.less_equal(batch["cross_entropy"], thr)).select(["doc_id"])

    kept_ids = np.concatenate([
        b["doc_id"].to_numpy(zero_copy_only=False)
        for b in scores.map_batches(keep_good, batch_format="pyarrow")
                       .iter_batches(batch_format="pyarrow")
    ])  # ~90% of doc ids; at web scale use the Bloom-prefiltered semi-join
    from fastdup_ray.relational.ops import broadcast_semi_join, hash_join
    deduped = broadcast_semi_join(deduped, "doc_id", kept_ids)

    # 4. rebalance: halve the head language, keep the rest
    rebal = hash_join(deduped, lang, on="doc_id")
    rebal = hash_sample(rebal, key="doc_id", group_col="lang",
                        rates={"en": 0.5}, default_rate=1.0, salt=SALT)

    # 5. deterministic global shuffle with exact positions
    shuffled = deterministic_shuffle(rebal, key="doc_id", salt=SALT)

    # 6. pack into fixed-token-budget shards along the shuffled order:
    #    shard = floor(exclusive_prefix_tokens(pos) / budget). Positions
    #    are bucket-major (the shuffle assigns them bucket by bucket), so
    #    the global token prefix sum distributes exactly like the
    #    shuffle's rank: per-bucket token sums (256 ints) -> driver
    #    prefix -> per-bucket local cumsum + offset. Nothing
    #    data-proportional ever touches the driver.
    from fastdup_ray.functions.hashing import mix64
    from fastdup_ray.relational.ops import partitioned_groupby

    def with_tokens(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        n = pc.list_value_length(pc.split_pattern(batch["text"], " "))
        batch = batch.append_column("n_tokens", n.cast(pa.int64()))
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bk = (mix64(ids ^ np.uint64(SALT)) >> np.uint64(56)).astype(np.int64)
        return batch.append_column("_bk", pa.array(bk))

    toked = shuffled.map_batches(with_tokens, batch_format="pyarrow")

    def bucket_token_sums(batch: pa.Table) -> pa.Table:
        bk = batch["_bk"].to_numpy(zero_copy_only=False)
        tk = batch["n_tokens"].to_numpy(zero_copy_only=False)
        return pa.table({
            "bk": pa.array(np.arange(256, dtype=np.int64)),
            "s": pa.array(np.bincount(bk, weights=tk, minlength=256)
                          .astype(np.int64)),
        })

    sums = np.zeros(256, dtype=np.int64)
    for b in toked.map_batches(bucket_token_sums,
                               batch_format="pyarrow").iter_batches(
                               batch_format="pyarrow"):
        np.add.at(sums, b["bk"].to_numpy(zero_copy_only=False),
                  b["s"].to_numpy(zero_copy_only=False))
    tok_offsets = np.concatenate([[0], np.cumsum(sums)[:-1]])

    def pack(df):
        df = df.sort_values("pos", kind="mergesort").copy()
        local = df.groupby("_bk", sort=False)["n_tokens"].cumsum() \
                  - df["n_tokens"]
        prefix = tok_offsets[df["_bk"].to_numpy()] + local.to_numpy()
        df["shard"] = prefix // TOKEN_BUDGET
        return df.drop(columns=["_bk"]).reset_index(drop=True)

    sharded = partitioned_groupby(toked, "_bk", pack)
    sharded.write_parquet(out_dir, partition_cols=["shard"])

    n_in = docs.count()
    out = rd.read_parquet(out_dir)
    n_out = out.count()
    n_shards = out.select_columns(["shard"]).unique("shard")
    n_shards = len(n_shards) if hasattr(n_shards, "__len__") else n_shards
    print(f"curated {n_out}/{n_in} docs into {n_shards} shards -> {out_dir}")
    ray.shutdown()


if __name__ == "__main__":
    main()
