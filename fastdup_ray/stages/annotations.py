"""User-annotation reconciliation + label-aware report operators.

The analog of the reference controller's annotation layer:
`_expand_annot_df` (fastdup_controller.py:1110-1224: outer-merge user
annotations with the engine's id mapping, set error codes for rows
missing on either side) and `_add_annot_and_split` / label slicing /
majority votes (fastdup_controller.py:937-1046, galleries.py:118-161,
__init__.py:2490-2539).

Annotations are a side table keyed by `url` with optional `label` and
`split` columns. Reconciliation is a full outer join:

    docs-only rows  -> error_code MISSING_ANNOTATION
    annot-only rows -> error_code MISSING_DOC   (reference: MISSING_IMAGE)
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from fastdup_ray.relational.ops import hash_join, partitioned_groupby

ERR_MISSING_ANNOTATION = "MISSING_ANNOTATION"
ERR_MISSING_DOC = "MISSING_DOC"


def expand_annotations(docs, annotations):
    """Full-outer reconciliation of docs (doc_id, url, ...) with a user
    annotation Dataset (url, label[, split]) -> Dataset
    (url, doc_id, label, split, annot_error).

    J4 analog (fastdup_controller._expand_annot_df)."""
    left = docs.select_columns(["doc_id", "url"])
    annot_cols = [c for c in annotations.schema().names if c != "url"]
    right = annotations.rename_columns({"url": "a_url"})
    joined = hash_join(
        left, right, on="url", right_on="a_url", join_type="full_outer",
    )

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        has_doc = pc.is_valid(batch["doc_id"])
        has_annot = (pc.is_valid(batch[annot_cols[0]])
                     if annot_cols else has_doc)
        err = pc.if_else(
            pc.and_(has_doc, pc.invert(has_annot)),
            pa.scalar(ERR_MISSING_ANNOTATION),
            pc.if_else(pc.invert(has_doc), pa.scalar(ERR_MISSING_DOC),
                       pa.scalar("")),
        )
        # annotation-only rows keep the annotation's own url, so
        # MISSING_DOC rows identify which annotation is dangling
        # (reference _expand_annot_df keeps the annotation filename,
        # fastdup_controller.py:1110-1224): the full outer join
        # coalesces the join key into the left name
        cols = {
            "url": pc.cast(batch["url"], pa.string()),
            "doc_id": pc.cast(pc.fill_null(batch["doc_id"], -1), pa.int64()),
            "annot_error": err,
        }
        for c in annot_cols:
            cols[c] = batch[c]
        return pa.table(cols)

    return joined.map_batches(finish, batch_format="pyarrow")


def slice_by_label(ds, label_col: str, value, *, mode: str = "eq"):
    """M15/M17 slice_df analog: eq / contains / isin / regex filters on a
    label column (regex = the reference's `find_regex` listing filter,
    fastdup_controller.py:1550)."""
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        col = batch[label_col]
        if mode == "eq":
            mask = pc.equal(col, pa.scalar(value))
        elif mode == "contains":
            mask = pc.match_substring(col, value)
        elif mode == "isin":
            mask = pc.is_in(col, value_set=pa.array(list(value)))
        elif mode == "regex":
            mask = pc.match_substring_regex(col, value)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        return batch.filter(pc.fill_null(mask, False))

    return ds.map_batches(fn, batch_format="pyarrow")


def slice_two_labels(ds, col_a: str, col_b: str, *, mode: str = "same"):
    """M15 slice_two_labels analog (reference galleries.py:163-170): keep
    rows where two label columns agree ("same") or differ ("diff") — the
    cross-column slice used on edge tables with labels joined on both
    endpoints (e.g. label vs label_nb)."""
    import pyarrow.compute as pc

    if mode not in ("same", "diff"):
        raise ValueError(f"unknown mode {mode!r}")

    def fn(batch: pa.Table) -> pa.Table:
        eq = pc.equal(batch[col_a], batch[col_b])
        mask = eq if mode == "same" else pc.invert(eq)
        return batch.filter(pc.fill_null(mask, False))

    return ds.map_batches(fn, batch_format="pyarrow")


def find_top_components(components, k: int = 20):
    """O3 analog: largest components first -> (component_id, count), top k.

    components: Dataset (doc_id, component_id)."""

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("component_id", as_index=False, sort=False).size()
        return g.rename(columns={"size": "count"})

    sized = partitioned_groupby(components, "component_id", counts)
    return sized.sort(["count", "component_id"], descending=[True, False]).limit(k)


def component_label_vote(components, labeled_docs, *, min_count: int = 1):
    """A5 top_k_label majority vote (reference __init__.py:2490-2539):
    per component, the most frequent label (ties -> lexicographically
    smallest), its count and purity.

    labeled_docs: Dataset (doc_id, label)."""
    joined = hash_join(
        components, labeled_docs.rename_columns({"doc_id": "ldoc"}),
        on="doc_id", right_on="ldoc",
    )

    def vote(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for cid, g in df.groupby("component_id", sort=False):
            counts = g["label"].value_counts()
            top = counts.max()
            winners = sorted(counts[counts == top].index)
            if top < min_count:
                label = "unknown"
            else:
                label = winners[0]
            rows.append((cid, label, int(top), top / len(g)))
        return pd.DataFrame(
            rows, columns=["component_id", "label", "votes", "purity"]
        )

    return partitioned_groupby(joined, "component_id", vote)


def sample_components(grouped, *, strategy: str = "first", k: int = 3, seed: int = 42):
    """O5 component sampling (reference utils.py:455-473): from each
    component's files_ids list take first-k / random-k / uniform-stride-k.

    grouped: Dataset (component_id, files_ids, len)."""
    rng_seed = seed

    def sample(batch: pa.Table) -> pa.Table:
        cids = batch["component_id"].to_pylist()
        lists = batch["files_ids"].to_pylist()
        out_c, out_ids = [], []
        for cid, ids in zip(cids, lists):
            ids = list(ids)
            if strategy == "first":
                pick = ids[:k]
            elif strategy == "random":
                rng = np.random.default_rng((rng_seed, int(cid) & 0x7FFFFFFF))
                pick = list(rng.choice(ids, size=min(k, len(ids)), replace=False))
            elif strategy == "uniform":
                stride = max(1, len(ids) // k)
                pick = ids[::stride][:k]
            else:
                raise ValueError(f"unknown strategy {strategy!r}")
            out_c.append(cid)
            out_ids.append(sorted(int(x) for x in pick))
        return pa.table(
            {
                "component_id": pa.array(out_c, pa.int64()),
                "sample_ids": pa.array(out_ids, pa.list_(pa.int64())),
            }
        )

    return grouped.map_batches(sample, batch_format="pyarrow")
