"""Label-quality metrics (SURVEY.md A4/A10).

A10 — classification report: per-class precision/recall/F1 over a
(label, prediction) table, the analog of the reference's vendored
sklearn report (reference confusion_matrix.py:298, 520). The confusion
counts are computed distributed (one partitioned groupby over
(label, pred)); only the per-class count matrix reaches the driver, so
the report works at any corpus size with bounded class cardinality.

A4 — label_score lives in pipelines/queries.q_label_score (with a SQL
oracle) and as `neighbor_label_agreement` here for arbitrary edge lists
(reference galleries.py:1864-1884: per doc, the share of its similarity
neighbors carrying the same label, sorted worst-first to surface likely
mislabels).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from fastdup_ray.relational.ops import hash_join, partitioned_groupby


def confusion_counts(preds, *, label_col: str = "label", pred_col: str = "pred"):
    """Dataset with (label_col, pred_col) -> Dataset (label, pred, n)."""

    def count(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby([label_col, pred_col], as_index=False, sort=False).size()
        return g.rename(columns={label_col: "label", pred_col: "pred",
                                 "size": "n"})

    return partitioned_groupby(
        preds.select_columns([label_col, pred_col]), [label_col, pred_col], count
    )


def classification_report(preds, *, label_col: str = "label",
                          pred_col: str = "pred") -> pa.Table:
    """Per-class precision/recall/F1/support + overall accuracy.

    Returns a small Arrow table (classes x metrics) with an `accuracy`
    scalar repeated per row for convenience; rounding 6dp.
    """
    counts = confusion_counts(preds, label_col=label_col, pred_col=pred_col).take_all()
    if not counts:
        return pa.table(
            {
                "class": pa.array([], pa.string()),
                "precision": pa.array([], pa.float64()),
                "recall": pa.array([], pa.float64()),
                "f1": pa.array([], pa.float64()),
                "support": pa.array([], pa.int64()),
                "accuracy": pa.array([], pa.float64()),
            }
        )
    df = pd.DataFrame(counts)
    classes = pd.Index(sorted(set(df["label"]) | set(df["pred"])))
    total = int(df["n"].sum())
    diag = df["label"] == df["pred"]
    correct = int(df.loc[diag, "n"].sum())
    # vectorized count folds: tp from the diagonal, fp/fn from the
    # off-diagonal sums grouped by pred/label (no per-row Python)
    tp = (
        df.loc[diag].groupby("label")["n"].sum()
        .reindex(classes, fill_value=0).to_numpy(dtype=np.int64)
    )
    fp = (
        df.loc[~diag].groupby("pred")["n"].sum()
        .reindex(classes, fill_value=0).to_numpy(dtype=np.int64)
    )
    fn = (
        df.loc[~diag].groupby("label")["n"].sum()
        .reindex(classes, fill_value=0).to_numpy(dtype=np.int64)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(tp + fp > 0, tp / np.maximum(tp + fp, 1), 0.0)
        r_ = np.where(tp + fn > 0, tp / np.maximum(tp + fn, 1), 0.0)
        f1 = np.where(p + r_ > 0, 2 * p * r_ / np.maximum(p + r_, 1e-300), 0.0)
    acc = round(correct / total, 6) if total else 0.0
    return pa.table(
        {
            "class": pa.array([str(c) for c in classes], pa.string()),
            "precision": pa.array(np.round(p, 6), pa.float64()),
            "recall": pa.array(np.round(r_, 6), pa.float64()),
            "f1": pa.array(np.round(f1, 6), pa.float64()),
            "support": pa.array(tp + fn, pa.int64()),
            "accuracy": pa.array([acc] * len(classes), pa.float64()),
        }
    )


def neighbor_label_agreement(edges, labels):
    """A4 label_score over an arbitrary edge list: per doc, the fraction
    of its neighbors sharing its label (reference galleries.py:1864-1884).

    edges: (src, dst[, ...]); labels: (doc_id, label).
    Returns (doc_id, label, label_score, n_neighbors), ascending score
    (likely mislabels first)."""

    def sym(batch: pa.Table) -> pa.Table:
        s = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = batch["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "node": pa.array(np.concatenate([s, t]), pa.int64()),
                "nb": pa.array(np.concatenate([t, s]), pa.int64()),
            }
        )

    e = edges.map_batches(sym, batch_format="pyarrow")
    j1 = hash_join(e, labels, on="node", right_on="doc_id").materialize()
    from fastdup_ray.relational.ops import with_schema

    j1 = with_schema(
        j1, {"node": pa.int64(), "nb": pa.int64(), "label": pa.string()}
    ).materialize()
    j2 = hash_join(
        j1, labels.rename_columns({"doc_id": "nbdoc", "label": "label_nb"}),
        on="nb", right_on="nbdoc",
    )

    def agree(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(same=(df["label"] == df["label_nb"]).astype(np.int64))
        g = df.groupby(["node", "label"], as_index=False).agg(
            same=("same", "sum"), n_neighbors=("same", "size")
        )
        return pd.DataFrame(
            {
                "doc_id": g["node"].to_numpy().astype(np.int64),
                "label": g["label"].astype(str),
                "label_score": np.round(
                    g["same"].to_numpy() / g["n_neighbors"].to_numpy(), 6
                ),
                "n_neighbors": g["n_neighbors"].to_numpy().astype(np.int64),
            }
        )

    scored = partitioned_groupby(j2, "node", agree)
    return scored.sort(["label_score", "doc_id"])
