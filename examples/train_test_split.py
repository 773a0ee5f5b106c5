"""Leakage-safe train/test split of a deduplicated corpus.

Near-duplicate pairs must never straddle the train/test boundary (a test
page whose near-dup twin sits in train leaks the answer), so the split
unit is the duplicate COMPONENT from the dedup pipeline, not the doc:

    python examples/train_test_split.py [pages_dir] [work_dir] [out_dir]
"""

import sys

import ray

if not ray.is_initialized():
    ray.init(address="local", include_dashboard=False, logging_level="ERROR")

import pyarrow.compute as pc
import ray.data as rd
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False

from fastdup_ray.config import DedupConfig
from fastdup_ray.pipelines.neardup import NearDupPipeline
from fastdup_ray.relational.ops import hash_join
from fastdup_ray.sources.pages import synthesize_pages
from fastdup_ray.stages.splits import leakage_safe_split


def main() -> None:
    work_dir = sys.argv[2] if len(sys.argv) > 2 else "/tmp/fastdup_ray_split_work"
    out_dir = sys.argv[3] if len(sys.argv) > 3 else "/tmp/fastdup_ray_split_out"

    if len(sys.argv) > 1:
        pages = rd.read_parquet(sys.argv[1])
    else:
        tbl, _ = synthesize_pages(2000, seed=7)
        pages = rd.from_arrow(tbl).repartition(8)

    # 1. dedup pipeline -> per-doc component labels (singletons = own id)
    res = NearDupPipeline(DedupConfig(), work_dir=work_dir).run(pages)
    docs = res.docs().filter(lambda r: r["is_valid"])
    labels = res.connected_components()  # (node, label) for clustered docs

    # 2. every doc gets a component id: its cluster label, else itself
    # (with_schema canonicalizes + renames at the block level — ray 2.49's
    # rename_columns on a from_arrow_refs dataset is unreliable)
    import pyarrow as pa

    from fastdup_ray.relational.ops import with_schema

    labeled = with_schema(
        labels,
        {"cdoc": pa.int64(), "component_id": pa.int64()},
        rename={"doc_id": "cdoc"},
    )
    joined = hash_join(
        docs.select_columns(["doc_id", "url"]),
        labeled,
        on="doc_id", right_on="cdoc", join_type="left_outer",
    )
    comp = joined.map_batches(
        lambda b: b.set_column(
            b.schema.get_field_index("component_id"),
            "component_id",
            pc.coalesce(b["component_id"], b["doc_id"]),
        ),
        batch_format="pyarrow",
    )

    # 3. assign split at component granularity, write one dir per side
    # (materialize: three consumers below would otherwise re-run lineage)
    out = leakage_safe_split(comp).materialize()
    for side in ("train", "test"):
        out.filter(lambda r, s=side: r["split"] == s).write_parquet(
            f"{out_dir}/{side}"
        )
    counts = out.groupby("split").count().take_all()
    print({r["split"]: r["count()"] for r in counts})


if __name__ == "__main__":
    main()
    ray.shutdown()
