#!/usr/bin/env python
"""Benchmark harness: headline near-dup pipeline + query suite timings.

Usage:
    python bench.py                # one run at $RAY_GRAFT_CPUS (default 32)
    python bench.py --scaling      # fresh 8-cpu and 32-cpu processes on the
                                   # same input; reports scaling efficiency

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
import subprocess
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

    import ray.data as rd

    from fastdup_ray.config import DedupConfig
    from fastdup_ray.pipelines.neardup import NearDupPipeline
    from fastdup_ray.pipelines.queries import queries as query_catalog
    from fastdup_ray.sources.pages import replicate_documents_ds

    # ---- headline: e2e dedup over the derived pages corpus ----
    # corpus synthesized Ray-parallel (order-free per-row seeding) and
    # cached to parquet, shared by the 8- and 32-cpu scaling runs; the
    # timed section starts from a parquet read like a real job would
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
    # BENCH_NO_CHECKPOINT=1: skip the per-stage Parquet checkpoint writes
    # (stages still materialize). On a real cluster checkpoint IO lands on
    # S3/HDFS whose aggregate bandwidth scales with node count; this
    # box's memory bus is a fixed serial resource, so for the N-vs-4N
    # scaling question the no-checkpoint run is the faithful proxy.
    # Default (driver runs) keeps checkpoints on — the honest e2e wall.
    ckpt = () if os.environ.get("BENCH_NO_CHECKPOINT") else None
    # 16 GB broadcast budget: the 2M-page corpus' packed shingle index is
    # ~9.6 GB — under the library's conservative 4 GB default the verify
    # stage silently fell back to the join path. This box (and a typical
    # cluster node) holds the sharded index comfortably; the join
    # fallback has its own equivalence test.
    # BENCH_SIGNER picks the sign kernel; the bench default is
    # one-permutation hashing (1 shingle pass instead of 128 — same
    # 128-wide signature family over the same char-5-gram shingles).
    # Recall gates: e2e OPH recall >=0.99 vs the exact-Jaccard oracle is
    # pytest-pinned, and at this corpus (2M pages) OPH clusters 228,253
    # docs vs classic minhash's 230,037 (99.2%) — precision is 1.0 either
    # way because the verify stage rescores candidates exactly.
    # BENCH_SIGNER=minhash restores the classic 128-permutation kernel.
    cfg = DedupConfig(num_partitions=min(64, ncpu), extract_concurrency=ncpu,
                      checkpoint_stages=ckpt,
                      verify_broadcast_max_bytes=16_000_000_000,
                      signer=os.environ.get("BENCH_SIGNER", "oph"))
    pipe = NearDupPipeline(cfg, work_dir=work_dir)

    probe = wait_for_healthy_host(
        float(os.environ.get("BENCH_HOST_WAIT_S", "900")))

    # background sampler: the host can collapse mid-run between the entry
    # and exit probes; recording the worst probe DURING the run lets the
    # scaling analysis keep only reps that were healthy end-to-end
    import threading

    samples: list[tuple[float, float]] = []
    stop_evt = threading.Event()

    def sampler():
        while not stop_evt.wait(20.0):
            samples.append((time.monotonic(), host_probe()))

    smp = threading.Thread(target=sampler, daemon=True)
    smp.start()

    t0 = time.monotonic()
    res = pipe.run(pages_path=corpus_dir, input_token=f"bench-{ncpu}", resume=False)
    n_comp = res.connected_components().count()  # force the full chain
    n_docs = res.docs().count()
    headline = time.monotonic() - t0
    stop_evt.set()
    # exit probe: a rep is only trustworthy when entry, exit AND every
    # mid-run sample are healthy
    probe_exit = host_probe()
    probe_max_mid = round(max((p for _, p in samples), default=0.0), 3)
    # per-stage compute walls, recorded in-memory by the pipeline (works
    # in no-checkpoint mode too — the scaling series needs them)
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
        "pii_redact", "substring_dup_pairs_winnow", "doc_chunks",
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


def run_scaling() -> None:
    # N-vs-4N proxy pair; override for corroboration series (e.g. 4 vs 16,
    # which keeps the high side under this box's memory-bus saturation
    # point while preserving the 4x parallelism ratio)
    lo = int(os.environ.get("BENCH_SCALING_LO", "8"))
    hi = int(os.environ.get("BENCH_SCALING_HI", "32"))
    # best-of-N, interleaved (lo,hi,lo,hi): single-shot A/B comparisons on
    # a shared box are corrupted by background load landing in one phase
    # (observed: identical code, 66s vs 145s for the same stage); min over
    # interleaved reps estimates the uncontended wall for BOTH sizes
    reps = int(os.environ.get("BENCH_SCALING_REPS", "2"))
    results: dict[int, list[dict]] = {lo: [], hi: []}
    for _rep in range(reps):
        for ncpu in (lo, hi):
            # larger corpus for the scaling comparison: at the default size
            # the run is fixed-overhead-bound and under-reports speedup
            env = dict(
                os.environ,
                RAY_GRAFT_CPUS=str(ncpu),
                BENCH_REPLICATE=os.environ.get("BENCH_REPLICATE", "400"),
                BENCH_SKIP_QUERIES="1",  # scaling compares the headline only
                # no-checkpoint by default: per-stage Parquet checkpoint IO
                # lands on object stores whose bandwidth scales with node
                # count on a real N-vs-4N cluster; on this single box it's
                # a fixed memory-bus cost that would penalize only the
                # high-parallelism run. BENCH_SCALING_CHECKPOINT=1 keeps
                # checkpoints on for the comparison.
                **({} if os.environ.get("BENCH_SCALING_CHECKPOINT")
                   else {"BENCH_NO_CHECKPOINT": "1"}),
            )
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__)],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            results[ncpu].append(json.loads(out.strip().splitlines()[-1]))
            time.sleep(5)  # let the previous Ray session's teardown settle
    best_lo = min(results[lo], key=lambda r: r["value"])
    best_hi = min(results[hi], key=lambda r: r["value"])
    t_lo, t_hi = best_lo["value"], best_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    print(json.dumps({
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        f"sec_{lo}": t_lo,
        f"sec_{hi}": t_hi,
        f"docs_per_sec_{lo}": best_lo["docs_per_sec"],
        f"docs_per_sec_{hi}": best_hi["docs_per_sec"],
        f"all_sec_{lo}": [r["value"] for r in results[lo]],
        f"all_sec_{hi}": [r["value"] for r in results[hi]],
        "host_probes": [r.get("host_probe_s") for r in results[lo] + results[hi]],
        "reps": reps,
        "sf": best_hi["sf"],
        "corpus_docs": best_hi["corpus_docs"],
    }))


def _quiet_box_gate(k: int = 3, probe_max: float = 0.5,
                    load_max: float = 4.0, interval_s: float = 5.0,
                    max_wait_s: float = 1800.0) -> bool:
    """The measurement gate BASELINE.md's round-3 addendum specified:
    K CONSECUTIVE clean memcpy probes AND a quiet box (1-min loadavg
    under `load_max` — no overlapping dev jobs) before a paired cycle
    may start. Returns False if the window never opens in max_wait_s."""
    deadline = time.monotonic() + max_wait_s
    streak = 0
    while time.monotonic() < deadline:
        load1 = os.getloadavg()[0]
        p = host_probe()
        if p < probe_max and load1 < load_max:
            streak += 1
            if streak >= k:
                return True
        else:
            streak = 0
            print(f"[gate] probe={p:.2f}s load1={load1:.1f} — waiting",
                  file=sys.stderr)
        time.sleep(interval_s)
    return False


def run_scaling_series() -> None:
    """>= N clean paired 8-vs-32 cycles, each behind the consecutive-
    clean-probe + quiet-box gate; a cycle only counts as clean when BOTH
    reps' entry, exit and every mid-run probe are healthy. Prints one
    JSON line with the per-cycle table and the clean-cycle median
    efficiency (the north-rule scaling criterion)."""
    lo = int(os.environ.get("BENCH_SCALING_LO", "8"))
    hi = int(os.environ.get("BENCH_SCALING_HI", "32"))
    target_clean = int(os.environ.get("BENCH_SERIES_CLEAN", "6"))
    max_cycles = int(os.environ.get("BENCH_SERIES_MAX", "14"))
    probe_max = float(os.environ.get("BENCH_PROBE_MAX", "0.5"))
    cycles = []
    clean = 0
    for c in range(max_cycles):
        if clean >= target_clean:
            break
        if not _quiet_box_gate(probe_max=probe_max):
            print(f"[series] gate never opened for cycle {c}", file=sys.stderr)
            continue
        reps = {}
        for ncpu in (lo, hi):
            env = dict(
                os.environ, RAY_GRAFT_CPUS=str(ncpu),
                BENCH_REPLICATE=os.environ.get("BENCH_REPLICATE", "400"),
                BENCH_SKIP_QUERIES="1", BENCH_HOST_WAIT_S="60",
                **({} if os.environ.get("BENCH_SCALING_CHECKPOINT")
                   else {"BENCH_NO_CHECKPOINT": "1"}),
            )
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__)],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            reps[ncpu] = json.loads(out.strip().splitlines()[-1])
            time.sleep(5)
        probes = [
            reps[n][k] for n in (lo, hi)
            for k in ("host_probe_s", "host_probe_exit_s", "host_probe_max_mid_s")
        ]
        is_clean = all(p <= probe_max for p in probes)
        t_lo, t_hi = reps[lo]["value"], reps[hi]["value"]
        eff = round((t_lo / t_hi) / (hi / lo), 3)
        cycles.append({
            "cycle": c, "t_lo": t_lo, "t_hi": t_hi, "eff": eff,
            "clean": is_clean, "probes": [round(p, 3) for p in probes],
            "stage_walls_lo": reps[lo].get("stage_walls"),
            "stage_walls_hi": reps[hi].get("stage_walls"),
        })
        clean += is_clean
        print(f"[series] cycle {c}: t{lo}={t_lo} t{hi}={t_hi} eff={eff} "
              f"clean={is_clean} ({clean}/{target_clean})", file=sys.stderr)
    clean_effs = sorted(cc["eff"] for cc in cycles if cc["clean"])
    med = (clean_effs[len(clean_effs) // 2]
           if len(clean_effs) % 2 else
           (clean_effs[len(clean_effs) // 2 - 1]
            + clean_effs[len(clean_effs) // 2]) / 2) if clean_effs else None
    print(json.dumps({
        "metric": "scaling_series",
        "value": med,
        "unit": "median clean-cycle efficiency",
        "lo": lo, "hi": hi,
        "clean_cycles": len(clean_effs),
        "clean_effs": clean_effs,
        "cycles": cycles,
    }))


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if "--scaling-series" in sys.argv:
        run_scaling_series()
    elif "--scaling" in sys.argv:
        run_scaling()
    else:
        result = run_bench()
        print(json.dumps(result))
        import ray

        ray.shutdown()
