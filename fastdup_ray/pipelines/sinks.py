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


def export_projector(embeddings, out_dir: str, *, max_rows: int = 900,
                     label_col: str | None = None, seed: int = 42,
                     embedding_col: str = "embedding",
                     id_col: str = "vec_id",
                     sprite_text_col: str | None = None,
                     sprite_cell: int = 32) -> dict:
    """O6/K7 analog of the reference's tensorboard projector export
    (tensorboard_projector.py:16-171: sample <=900 embeddings + a labels
    tsv + a sprite image of thumbnails): uniformly sample the embedding
    table, write `vectors.tsv` (tab-separated floats, one row per
    vector) and `metadata.tsv` (id [+ label]) — the format the
    tensorboard embedding projector loads directly. When
    `sprite_text_col` names a text column on the sampled rows, also
    write `sprite.ppm`: a ceil(sqrt(n))-grid sprite sheet of
    `sprite_cell`-square per-doc thumbnails (`text_thumbnail` rasters,
    row-major tile order matching the vector order — the projector's
    sprite contract), encoded with the shipped pure-python P6 codec
    (this container has no PNG encoder; same documented boundary as the
    media decode stage). Sampling happens in the Dataset; only
    <= max_rows reach the driver."""
    import numpy as np

    n = embeddings.count()
    frac = min(1.0, (max_rows * 1.25) / max(n, 1))
    rows = embeddings.random_sample(frac, seed=seed).limit(max_rows).take_all()
    rows.sort(key=lambda r: r[id_col])

    os.makedirs(out_dir, exist_ok=True)
    vec_path = os.path.join(out_dir, "vectors.tsv")
    meta_path = os.path.join(out_dir, "metadata.tsv")
    with open(vec_path, "w") as vf:
        for r in rows:
            vf.write("\t".join(repr(float(x)) for x in r[embedding_col]) + "\n")
    with open(meta_path, "w") as mf:
        if label_col:
            mf.write(f"{id_col}\t{label_col}\n")
            for r in rows:
                mf.write(f"{r[id_col]}\t{r[label_col]}\n")
        else:
            for r in rows:
                mf.write(f"{r[id_col]}\n")
    out = {"rows": len(rows), "vectors": vec_path, "metadata": meta_path}
    if sprite_text_col is not None and rows:
        from fastdup_ray.stages.multimodal import ppm_encode, text_thumbnail

        grid = int(np.ceil(np.sqrt(len(rows)))) or 1
        sheet = np.full((grid * sprite_cell, grid * sprite_cell, 3), 255,
                        np.uint8)
        for i, r in enumerate(rows):
            y, x = divmod(i, grid)
            sheet[y * sprite_cell:(y + 1) * sprite_cell,
                  x * sprite_cell:(x + 1) * sprite_cell] = \
                text_thumbnail(r[sprite_text_col] or "", sprite_cell)
        sprite_path = os.path.join(out_dir, "sprite.ppm")
        with open(sprite_path, "wb") as sf:
            sf.write(ppm_encode(sheet))
        out["sprite"] = sprite_path
        out["sprite_cell"] = sprite_cell
    return out
