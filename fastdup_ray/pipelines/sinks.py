"""Output sinks: the non-destructive counterparts of the reference's
dedup deletion and webdataset packaging.

- `write_dedup_corpus`: keep-decision join + filtered copy of the pages
  corpus — the D4/K10 analog of `remove_duplicates`/`delete_components`
  (reference __init__.py:1594-1677) that WRITES a cleaned corpus instead
  of rm-ing inputs, plus the decision table for audit.
- `write_corpus`: partitioned Parquet writer (bounded rows per file) so
  a failed run can resume per-partition — K6 webdataset-shard analog
  (reference utils.py:669-754 packs 10k-file tars; we bound rows/file).
"""

from __future__ import annotations

import json
import os

import pyarrow as pa

from fastdup_ray.relational.ops import hash_join


def write_corpus(ds, out_dir: str, *, max_rows_per_file: int = 100_000) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    ds.write_parquet(out_dir, min_rows_per_file=max_rows_per_file)
    files = sorted(f for f in os.listdir(out_dir) if f.endswith(".parquet"))
    manifest = {"files": files, "n_files": len(files)}
    # underscore prefix: pyarrow dataset readers skip _-prefixed files
    with open(os.path.join(out_dir, "_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def write_dedup_corpus(result, out_dir: str) -> dict:
    """result: NearDupResult. Writes:
        out_dir/pages_dedup/   the kept docs (drop non-canonical cluster members)
        out_dir/decisions/     (doc_id, keep, component_id) audit table
    Docs outside any component are singletons and always kept."""
    keep = result.keep_table().materialize()
    docs = result.docs()

    # left join docs <- decisions; docs without a decision row are keepers
    joined = hash_join(
        docs, keep.rename_columns({"doc_id": "kdoc"}),
        on="doc_id", right_on="kdoc", join_type="left_outer",
    )

    def keep_filter(batch: pa.Table) -> pa.Table:
        k = batch["keep"]
        mask = pa.compute.or_kleene(
            pa.compute.is_null(k), pa.compute.equal(k, pa.scalar(True))
        )
        kept = batch.filter(pa.compute.fill_null(mask, True))
        drop = [c for c in ("keep", "component_id") if c in kept.column_names]
        return kept.drop_columns(drop)

    dedup = joined.map_batches(keep_filter, batch_format="pyarrow")
    out = {}
    out["pages_dedup"] = write_corpus(dedup, os.path.join(out_dir, "pages_dedup"))
    out["decisions"] = write_corpus(keep, os.path.join(out_dir, "decisions"))
    n_in = docs.count()
    n_out = int(
        sum(
            pa.parquet.ParquetFile(os.path.join(out_dir, "pages_dedup", f)).metadata.num_rows
            for f in out["pages_dedup"]["files"]
        )
    )
    summary = {"docs_in": n_in, "docs_kept": n_out, "docs_dropped": n_in - n_out}
    with open(os.path.join(out_dir, "_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return summary
