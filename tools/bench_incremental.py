"""Append-mode dedup benchmark (VERDICT r4 ask #8).

Quantifies the incremental path's win: a 2M-page base corpus is deduped
once, then a 200k-page daily-crawl increment arrives. It times three
runs:

  * FULL    — re-run the whole pipeline over base+increment (2.2M pages)
  * BASE    — the base corpus alone (the already-paid cost)
  * INCR    — ``run_incremental``: extract/sign ONLY the increment,
              re-emit candidates over the union band rows, reuse the
              base run's scores, verify only never-scored pairs, re-run
              CC over the unioned edges

FULL and INCR produce identical results by construction (pytest-pinned:
tests/test_incremental.py::test_incremental_equals_full_run); here the
summaries are asserted equal at bench scale too.

Corpus: replica-range split of the cached 8M bench corpus (replicas
0-399 = base, 400-439 = increment), so no new corpus generation. Run:

    python tools/bench_incremental.py        # honors RAY_GRAFT_CPUS

Prints one JSON line with t_full, t_base, t_incr, speedup and host
probes.
"""
from __future__ import annotations

import gc
import json
import os
import shutil
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

from bench import host_probe, wait_for_healthy_host  # noqa: E402

CORPUS = os.environ.get(
    "INCR_CORPUS", "/tmp/fastdup_ray_corpus_root_testdata_sf0.1_r1600")
BASE_DIR = os.environ.get("INCR_BASE_DIR", "/tmp/fastdup_ray_incr_base")
NEW_DIR = os.environ.get("INCR_NEW_DIR", "/tmp/fastdup_ray_incr_new")
BASE_REPS = int(os.environ.get("INCR_BASE_REPS", "400"))  # 0..399 -> 2.0M
NEW_REPS = int(os.environ.get("INCR_NEW_REPS", "440"))    # 400..439 -> 200k


def _split_corpus(rd):
    """One-time replica-range split of the cached bench corpus."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if os.path.exists(f"{BASE_DIR}/_DONE") and os.path.exists(f"{NEW_DIR}/_DONE"):
        return
    for d in (BASE_DIR, NEW_DIR):
        shutil.rmtree(d, ignore_errors=True)

    def rep_of(batch: pa.Table):
        m = pc.extract_regex(batch["url"], r"/rep(?P<r>\d+)/")
        r = pc.fill_null(pc.struct_field(m, "r"), "0")  # src rows = rep 0
        return pc.cast(r, pa.int64())

    def base_part(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(rep_of(batch), BASE_REPS))

    def new_part(batch: pa.Table) -> pa.Table:
        r = rep_of(batch)
        return batch.filter(pc.and_(pc.greater_equal(r, BASE_REPS),
                                    pc.less(r, NEW_REPS)))

    src = rd.read_parquet(CORPUS)
    src.map_batches(base_part, batch_format="pyarrow").write_parquet(BASE_DIR)
    open(f"{BASE_DIR}/_DONE", "w").close()
    src.map_batches(new_part, batch_format="pyarrow").write_parquet(NEW_DIR)
    open(f"{NEW_DIR}/_DONE", "w").close()


def main() -> None:
    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data as rd
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED

    from fastdup_ray.config import DedupConfig
    from fastdup_ray.pipelines.neardup import NearDupPipeline

    if not os.path.exists(f"{CORPUS}/_DONE"):
        raise SystemExit(f"cached corpus missing: {CORPUS} (run bench.py "
                         "with BENCH_REPLICATE=1600 once)")
    _split_corpus(rd)

    def mk_pipe(tag: str) -> NearDupPipeline:
        wd = f"/dev/shm/fastdup_ray_incr_{tag}"
        shutil.rmtree(wd, ignore_errors=True)
        return NearDupPipeline(DedupConfig(), work_dir=wd)

    probe0 = wait_for_healthy_host(
        float(os.environ.get("BENCH_HOST_WAIT_S", "900")))

    # ---- FULL: one run over base + increment (2.2M pages) ----
    full_pipe = mk_pipe("full")
    t0 = time.monotonic()
    import glob

    both = (sorted(glob.glob(f"{BASE_DIR}/*.parquet"))
            + sorted(glob.glob(f"{NEW_DIR}/*.parquet")))
    full = full_pipe.run(rd.read_parquet(both),
                         input_token="incr-bench-full", resume=False)
    full_summary = full.summary()
    t_full = round(time.monotonic() - t0, 3)
    del full
    gc.collect()
    probe1 = host_probe()

    # ---- BASE (untimed for the comparison; the already-paid cost) ----
    base_pipe = mk_pipe("base")
    t0 = time.monotonic()
    base = base_pipe.run(pages_path=BASE_DIR, input_token="incr-bench-base",
                         resume=False)
    base_summary = base.summary()  # force
    t_base = round(time.monotonic() - t0, 3)
    probe2 = host_probe()

    # ---- INCR: must equal the full run bit-for-bit ----
    t0 = time.monotonic()
    incr = base_pipe.run_incremental(
        rd.read_parquet(NEW_DIR), base=base,
        input_token="incr-bench-new", base_token="incr-bench-base",
        resume=False)
    incr_summary = incr.summary()
    t_incr = round(time.monotonic() - t0, 3)
    probe3 = host_probe()
    assert incr_summary == full_summary, (incr_summary, full_summary)
    incr_walls = dict(base_pipe.stage_walls)

    print(json.dumps({
        "metric": "incremental_dedup_speedup",
        "value": round(t_full / t_incr, 2),
        "unit": "x (t_full / t_incr)",
        "t_full_s": t_full,
        "t_base_s": t_base,
        "t_incr_s": t_incr,
        "base_docs": base_summary["total_docs"],
        "incr_docs": full_summary["total_docs"] - base_summary["total_docs"],
        "stage_walls_full": dict(full_pipe.stage_walls),
        "stage_walls_incr": incr_walls,
        "summary": full_summary,
        "host_probes": [round(p, 3)
                        for p in (probe0, probe1, probe2, probe3)],
        "num_cpus": ncpu,
    }))
    ray.shutdown()
    for tag in ("full", "base"):
        shutil.rmtree(f"/dev/shm/fastdup_ray_incr_{tag}", ignore_errors=True)


if __name__ == "__main__":
    main()
