#!/usr/bin/env python
"""Benchmark harness: headline near-dup pipeline + query suite timings.

Usage:
    python bench.py                # one run at $RAY_GRAFT_CPUS (default 32)

Input: $GRAFT_SF_DIR (default /root/testdata/sf0.1). The headline corpus
is the `pages` table derived deterministically from that dir's documents
table, replicated x$BENCH_REPLICATE (default 40 -> ~200k pages at sf0.1)
so the dedup pipeline has web-scale-shaped work (HTML payloads, planted
near-dups) rather than 5k tiny rows.

Prints ONE JSON line:
  {"metric": "e2e_neardup_dedup", "value": <headline seconds>,
   "unit": "sec", "queries": {...per-query seconds...}, "sf": ...,
   "num_cpus": N, "docs_per_sec": ..., "corpus_docs": ...}
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time


def host_probe() -> float:
    """First-touch-write bandwidth probe (seconds to copy 100 MB into
    fresh pages). On this sandbox's virtualized host, page-fault
    servicing intermittently collapses to ~5 MB/s (measured: identical
    memcpy 0.05 s vs 17.6 s minutes apart) while cached reads stay fast —
    every allocation-heavy stage then reports 3-5x inflated walls.
    Healthy is < ~0.5 s."""
    import numpy as np

    x = np.ones(100_000_000, np.uint8)
    t0 = time.monotonic()
    x.copy()
    return time.monotonic() - t0


def wait_for_healthy_host(max_wait_s: float = 900.0) -> float:
    """Delay timing until the host's page-fault path is healthy (or the
    budget runs out). Returns the last probe value; callers report it so
    a degraded measurement is visibly flagged in the output JSON."""
    deadline = time.monotonic() + max_wait_s
    probe = host_probe()
    while probe > 0.8 and time.monotonic() < deadline:
        print(f"[bench] host degraded (memcpy100MB={probe:.2f}s); waiting",
              file=sys.stderr)
        time.sleep(60)
        probe = host_probe()
    return probe


def run_bench() -> dict:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    replicate = int(os.environ.get("BENCH_REPLICATE", "40"))

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=ncpu, include_dashboard=False,
            ignore_reinit_error=True, logging_level="ERROR",
        )
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # push-based sort shuffle: 2.7x faster wide shuffles at 32 cpus
    # (14.1s vs 37.4s on the 13.9M-pair distinct); one config for all runs
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED

    from fastdup_ray.config import DedupConfig
    from fastdup_ray.pipelines.neardup import NearDupPipeline
    from fastdup_ray.pipelines.queries import queries as query_catalog
    from fastdup_ray.sources.pages import replicate_documents_ds

    # ---- headline: e2e dedup over the derived pages corpus ----
    # corpus synthesized Ray-parallel (order-free per-row seeding) and
    # cached to parquet, shared by every run at this sf and replication;
    # the timed section starts from a parquet read like a real job would
    sf_tag = sf_dir.strip("/").replace("/", "_")
    corpus_dir = f"/tmp/fastdup_ray_corpus_{sf_tag}_r{replicate}"
    if not os.path.exists(os.path.join(corpus_dir, "_DONE")):
        shutil.rmtree(corpus_dir, ignore_errors=True)
        pages_gen = replicate_documents_ds(
            f"{sf_dir}/documents.parquet", replicate=replicate, seed=42
        )
        pages_gen.write_parquet(corpus_dir)
        open(os.path.join(corpus_dir, "_DONE"), "w").close()
    # checkpoints on tmpfs: on a real cluster, stage checkpoints land on
    # S3/HDFS whose aggregate bandwidth scales with node count; this
    # box's single disk (~440 MB/s) is a fixed serial resource that would
    # penalize only the high-parallelism run (~11 s of non-scaling IO)
    work_dir = f"/dev/shm/fastdup_ray_bench_{ncpu}"
    shutil.rmtree(work_dir, ignore_errors=True)
    # the library defaults, as in the perfbench gate
    cfg = DedupConfig()
    pipe = NearDupPipeline(cfg, work_dir=work_dir)

    probe = wait_for_healthy_host(
        float(os.environ.get("BENCH_HOST_WAIT_S", "900")))

    # background sampler: the host can collapse mid-run between the entry
    # and exit probes; recording the worst probe DURING the run flags a
    # rep that was not healthy end-to-end
    import threading

    samples: list[tuple[float, float]] = []
    stop_evt = threading.Event()

    def sampler():
        while not stop_evt.wait(20.0):
            samples.append((time.monotonic(), host_probe()))

    smp = threading.Thread(target=sampler, daemon=True)
    smp.start()

    t0 = time.monotonic()
    try:
        res = pipe.run(pages_path=corpus_dir, input_token=f"bench-{ncpu}",
                       resume=False)
        n_comp = res.connected_components().count()  # force the full chain
        n_docs = res.docs().count()
        headline = time.monotonic() - t0
    finally:
        stop_evt.set()
        # nothing below reads the checkpoints; free their tmpfs space
        shutil.rmtree(work_dir, ignore_errors=True)
    # exit probe: a rep is only trustworthy when entry, exit AND every
    # mid-run sample are healthy
    probe_exit = host_probe()
    probe_max_mid = round(max((p for _, p in samples), default=0.0), 3)
    # per-stage compute walls, recorded in-memory by the pipeline
    stage_walls = dict(pipe.stage_walls)

    # ---- query suite (skip the O(sum df^2) ngram oracle query at bench
    # scale; it exists for the sf0.01 correctness gate) ----
    if os.environ.get("BENCH_SKIP_QUERIES"):
        return {
            "metric": "e2e_neardup_dedup",
            "value": round(headline, 3),
            "unit": "sec",
            "queries": {},
            "sf": sf_dir,
            "num_cpus": ncpu,
            "corpus_docs": n_docs,
            "docs_per_sec": round(n_docs / headline, 1),
            "clustered_docs": n_comp,
            "host_probe_s": round(probe, 3),
            "host_probe_exit_s": round(probe_exit, 3),
            "host_probe_max_mid_s": probe_max_mid,
            "stage_walls": stage_walls,
        }
    bench_queries = [
        "doc_stats", "exact_dup_components", "lang_summary", "source_topk",
        "chars_p90", "prefix_dup_pairs", "token_totals", "minhash_components",
        "simhash_fingerprints", "ann_topk", "windowed_events",
        "customer_revenue_topk", "customers_without_orders", "pricing_summary",
        # round-2 additions, benched so the driver catches regressions
        "outliers", "pagerank", "dedup_survivors",
        # round-3 additions
        "winnow_dup_pairs", "entity_span_counts", "doc_captions",
        "embedding_lsh_pairs", "last_order_before_event",
        "word_repetition_stats", "benchmark_contamination",
        "leakage_safe_split", "customers_without_events",
        "ivf_probe_topk", "token_pack_shards", "hll_distinct_grams",
        # round-3b additions
        "span_dedup_docs", "stratified_sample", "stratified_fixed_n",
        "redacted_events", "shuffle_positions", "vocab_topk",
        "lm_cross_entropy",
        # round-4: the full remaining catalog (everything but the
        # O(sum df^2) ngram oracle query, which exists for the sf0.01
        # correctness gate, and the quadratic-oracle embedding_dup_pairs
        # whose scale path embedding_lsh_pairs is benched above)
        "domain_pair_summary", "top_docs_per_source", "stats_filtered_dups",
        "component_majority_label", "majority_keep", "url_components",
        "knn_lists", "kmeans_assign", "kmeans_topk",
        "simhash_near_dup_pairs", "substring_dup_pairs", "doc_embeddings",
        "dup_size_histogram", "recent_events", "ann_ivf_topk",
        "text_quality", "sessionize", "label_score",
        "hierarchical_components", "lang_confusion", "bpe_token_counts",
        "zero_shot_labels", "winnow_fingerprints", "span_dedup_spans",
        "pii_redact", "doc_chunks",
        "contamination_ngrams", "temperature_mix",
        # round-4b additions
        "semdedup", "dsir_weights", "pmi_collocations", "heavy_hitters",
        "nb_classify",
    ]
    cat = query_catalog()
    q_times: dict[str, float] = {}
    for name in bench_queries:
        t0 = time.monotonic()
        out = cat[name](sf_dir)
        if hasattr(out, "count"):
            out.count()
        q_times[name] = round(time.monotonic() - t0, 3)

    return {
        "metric": "e2e_neardup_dedup",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": q_times,
        "sf": sf_dir,
        "num_cpus": ncpu,
        "corpus_docs": n_docs,
        "docs_per_sec": round(n_docs / headline, 1),
        "clustered_docs": n_comp,
        "host_probe_s": round(probe, 3),
        "host_probe_exit_s": round(probe_exit, 3),
        "host_probe_max_mid_s": probe_max_mid,
        "stage_walls": stage_walls,
    }


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    result = run_bench()
    print(json.dumps(result))
    import ray

    ray.shutdown()
