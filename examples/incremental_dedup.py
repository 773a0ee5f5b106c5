"""Append-mode dedup: dedup a base crawl once, then fold in a daily
increment without re-processing the base corpus.

The reference covers this shape with its test-vs-train run modes
(reference RUN.md:188-191 run_mode=3/4); here it is
`NearDupPipeline.run_incremental`, which produces a result BIT-IDENTICAL
to re-running the full pipeline over base+increment at any scale
(candidates re-emitted over the union band rows, base verify scores
reused via one pair-keyed shuffle):

    python examples/incremental_dedup.py [work_dir]
"""

import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ray

if not ray.is_initialized():
    ray.init(address="local", include_dashboard=False, logging_level="ERROR")

import ray.data as rd
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False

from fastdup_ray.config import DedupConfig
from fastdup_ray.pipelines.neardup import NearDupPipeline
from fastdup_ray.sources.pages import synthesize_pages

work_dir = sys.argv[1] if len(sys.argv) > 1 else "/tmp/fastdup_ray_incr_demo"
shutil.rmtree(work_dir, ignore_errors=True)

# day 0: the base crawl; day 1: an increment with overlapping content
pages, _ = synthesize_pages(3000, seed=7)
base_pages, new_pages = pages.slice(0, 2400), pages.slice(2400)

pipe = NearDupPipeline(DedupConfig(), work_dir=work_dir)
base = pipe.run(rd.from_arrow(base_pages).repartition(8),
                input_token="crawl-day0")
print("base:", base.summary())

# only the increment is extracted/signed; candidates are re-emitted over
# the union band rows and already-scored pairs reuse their distance
merged = pipe.run_incremental(
    rd.from_arrow(new_pages).repartition(4),
    base=base, input_token="crawl-day1", base_token="crawl-day0")
print("base+increment:", merged.summary())

# identical to a from-scratch run over both days
full = NearDupPipeline(DedupConfig(), work_dir=work_dir + "_full").run(
    rd.from_arrow(pages).repartition(8), input_token="both-days")
assert merged.summary() == full.summary(), (merged.summary(), full.summary())
print("summary equals the from-scratch run over both days")

keep = merged.keep_table()
print("keep decisions:", keep.count(), "rows; dropped:",
      keep.filter(lambda r: not r["keep"]).count())

ray.shutdown()
