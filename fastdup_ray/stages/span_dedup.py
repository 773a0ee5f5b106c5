"""C4-style cross-document span dedup over fixed token windows.

The reference dedups whole items: its `delete_components` drops entire
images from a near-dup cluster (/root/reference/fastdup/__init__.py
keep-policy paths; SURVEY.md D4). A web-text training pipeline also needs
SPAN-level exact dedup — C4 (Raffel et al. 2020, "Exploring the Limits of
Transfer Learning", §2.2) removes any three-sentence span occurring more
than once in the corpus, keeping one occurrence. This stage is the fixed
token-window variant of that rule (the unit is W consecutive whitespace
tokens instead of three sentences, which keeps the semantics exactly
SQL-expressible for the oracle):

  * every document is split on single spaces; consecutive non-overlapping
    windows of W tokens are the dedup unit; the trailing <W tokens are
    never dedup candidates (always kept);
  * a window whose text occurs at more than one (doc_id, win_idx) site
    corpus-wide survives only at the minimal (doc_id, win_idx) site; every
    other occurrence is deleted from its document;
  * each document is rebuilt as the space-join of its surviving windows
    plus its trailer (documents with no killed window are byte-identical
    to the space-join of their tokens).

Scale shape (the 100-TB story):
  * window explosion is a pure vectorized map (`map_batches`, zero-copy
    Arrow in, numpy gather on the token ListArray — no Python loop over
    rows or tokens);
  * the only shuffle is the groupby on the 63-bit span hash; within a
    hash partition occurrences are compared by the REAL span text, so a
    hash collision can never merge distinct spans (same belt-and-braces
    rule as the verify stage's byte-confirm short-circuit);
  * the kill list is proportional to the number of DUPLICATED window
    occurrences — a small fraction of the corpus — so it is broadcast
    once via `ray.put` and applied in a second map pass; only documents
    that actually lost a window take the (rare) Python rebuild path,
    untouched documents are rebuilt with the same vectorized join. Above
    a kill-list budget, `apply` switches to the hash exchange on doc_id
    (relational.ops.cogroup) — same semantics, no driver state; the
    budget guard is in `span_dedup_docs`.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from fastdup_ray.functions.hashing import id63
from fastdup_ray.relational.ops import cogroup, partitioned_groupby

# Broadcast the kill list only while it plausibly fits in every worker's
# heap; beyond this, fall back to the hash exchange on doc_id.
_BROADCAST_KILL_BUDGET = 5_000_000


def _windows_of_batch(batch: pa.Table, window: int, stride: int | None = None):
    """Vectorized window explosion for one Arrow batch.

    Returns (doc_ids, win_idx, span_strings) where span_strings is an
    Arrow string array of the space-joined W-token windows taken every
    `stride` tokens (default: non-overlapping, stride == window). No
    per-row Python: tokens come from one `split_pattern`, window
    membership from numpy arithmetic on the list offsets, window text
    from one `binary_join` over a re-windowed ListArray.
    """
    stride = window if stride is None else stride
    toks = pc.split_pattern(batch["text"], " ")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    offs = toks.offsets.to_numpy().astype(np.int64)
    flat = toks.values
    ntok = np.diff(offs)
    nw = np.maximum(ntok - window, -stride) // stride + 1
    total = int(nw.sum())
    if total == 0:
        return (
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            pa.array([], pa.string()),
        )
    doc_pos = np.repeat(np.arange(len(nw)), nw)
    win_idx = np.arange(total) - np.repeat(np.cumsum(nw) - nw, nw)
    start = offs[doc_pos] + win_idx * stride
    gather = (start[:, None] + np.arange(window)[None, :]).ravel()
    win_vals = flat.take(pa.array(gather, pa.int64()))
    win_offsets = pa.array(np.arange(total + 1, dtype=np.int64) * window,
                           pa.int64())
    win_list = pa.LargeListArray.from_arrays(win_offsets, win_vals)
    spans = pc.binary_join(win_list, " ")
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)[doc_pos]
    return doc_ids, win_idx.astype(np.int64), spans


def explode_windows(docs, *, window: int = 13):
    """documents(doc_id, text) -> windows(doc_id, win_idx, span, bucket).

    `bucket` is the 63-bit span hash used as the shuffle key; `span` is
    kept so the grouped comparison is on real text (collision-proof).
    """

    def fn(batch: pa.Table) -> pa.Table:
        doc_ids, win_idx, spans = _windows_of_batch(batch, window)
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "win_idx": pa.array(win_idx, pa.int64()),
            "span": spans,
            "bucket": pa.array(id63(spans), pa.int64()),
        })

    return docs.map_batches(fn, batch_format="pyarrow")


def chunk_documents(docs, *, window: int, stride: int | None = None):
    """Fixed-context training-example chunking: documents(doc_id, text)
    -> (doc_id, chunk_idx, chunk) of W-token windows every `stride`
    tokens (overlapping when stride < window — the standard sliding
    pretraining-context layout). Pure vectorized map, no shuffle; the
    trailing <W tokens are dropped (standard practice — pad or carry
    them at the training loader instead)."""

    def fn(batch: pa.Table) -> pa.Table:
        doc_ids, win_idx, spans = _windows_of_batch(batch, window, stride)
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "chunk_idx": pa.array(win_idx, pa.int64()),
            "chunk": spans,
        })

    return docs.map_batches(fn, batch_format="pyarrow")


def _kill_partition(df: pd.DataFrame) -> pd.DataFrame:
    """Within one hash partition: every occurrence of a span text that
    appears >1 time corpus-wide, minus its minimal (doc_id, win_idx)
    keeper. Grouping is by the real span string, not the hash."""
    df = df.sort_values(["span", "doc_id", "win_idx"], kind="mergesort")
    sizes = df.groupby("span", sort=False)["doc_id"].transform("size")
    first = ~df["span"].duplicated()
    out = df.loc[(sizes > 1) & ~first, ["doc_id", "win_idx", "span"]]
    # keep the Arrow schema stable for empty partitions (str, not null)
    return out.reset_index(drop=True).astype(
        {"doc_id": "int64", "win_idx": "int64", "span": "string[pyarrow]"})


def span_kill_list(docs, *, window: int = 13):
    """Dataset of window occurrences to delete (doc_id, win_idx, span)."""
    wins = explode_windows(docs, window=window)
    return partitioned_groupby(wins, "bucket", _kill_partition)


def _rebuild_batch(batch: pa.Table, window: int, kill_docs: np.ndarray,
                   kill_wins: np.ndarray) -> pa.Table:
    """Rebuild text for one batch, fully vectorized (r5: the former
    per-killed-doc Python loop is gone): route the (doc_id, win_idx)
    kill rows to batch rows via one searchsorted, mark the killed
    windows' token positions False in ONE keep-mask over the batch's
    flat token stream, then Arrow-filter the flat tokens, rebuild the
    list offsets from the kept-token prefix counts and space-join. A doc's
    trailing <window tokens are never inside a full window, so the
    default-True mask keeps them — identical semantics to the old
    body+trailer join (the output is exactly ' '.join of the kept
    tokens in order)."""
    n = batch.num_rows
    toks = pc.split_pattern(batch["text"], " ")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    if n == 0 or kill_docs.shape[0] == 0:
        return pa.table({"doc_id": batch["doc_id"],
                         "text_clean": pc.binary_join(toks, " ")})
    ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ids, kind="stable")
    sid = ids[order]
    pos = np.clip(np.searchsorted(sid, kill_docs), 0, n - 1)
    m = sid[pos] == kill_docs
    rows = order[pos[m]]
    if rows.size == 0:
        return pa.table({"doc_id": batch["doc_id"],
                         "text_clean": pc.binary_join(toks, " ")})
    wins = kill_wins[m].astype(np.int64)
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    off_rel = offs - offs[0]
    flat = toks.values.slice(int(offs[0]), int(offs[-1] - offs[0]))
    keep = np.ones(int(off_rel[-1]), dtype=bool)
    killpos = (off_rel[rows] + wins * window)[:, None] + np.arange(window)
    keep[killpos.ravel()] = False
    # kept-token prefix counts read at the old offsets: a null text row
    # (zero tokens, equal adjacent offsets) keeps zero tokens and stays null
    kept = np.zeros(keep.shape[0] + 1, np.int64)
    np.cumsum(keep, out=kept[1:])
    new_list = type(toks).from_arrays(
        pa.array(kept[off_rel], toks.offsets.type),
        flat.filter(pa.array(keep)), mask=toks.is_null())
    return pa.table({
        "doc_id": batch["doc_id"],
        "text_clean": pc.binary_join(new_list, " "),
    })


def span_dedup_docs(docs, *, window: int = 13):
    """documents(doc_id, text) -> (doc_id, text_clean) with every
    non-first occurrence of a duplicated W-token window removed.

    Kill lists up to `_BROADCAST_KILL_BUDGET` occurrences are collected once
    and broadcast via `ray.put`; the rebuild is then a second pure map
    over the documents. Above the budget the rebuild switches to a
    hash exchange on doc_id (docs and kills partitioned together, the
    same `_rebuild_batch` kernel per partition) — no
    driver state of any size, one extra exchange of the doc table."""
    kills = span_kill_list(docs, window=window)
    kills = kills.select_columns(["doc_id", "win_idx"]).materialize()
    if kills.count() <= _BROADCAST_KILL_BUDGET:
        kdf = kills.to_pandas()
        ref = ray.put((kdf["doc_id"].to_numpy(np.int64),
                       kdf["win_idx"].to_numpy(np.int64)))

        def fn(batch: pa.Table) -> pa.Table:
            kd, kw = ray.get(ref)
            return _rebuild_batch(batch, window, kd, kw)

        return docs.map_batches(fn, batch_format="pyarrow")
    return _span_rebuild_cogroup(docs, kills, window=window)


def _span_rebuild_cogroup(docs, kills, *, window: int):
    """Exchange-rebuild path: documents and kill rows meet per doc_id in
    the hash exchange (`cogroup`), so a document meets exactly its own
    kill rows; then the broadcast path's rebuild kernel runs per
    partition."""

    def rebuild_part(part_docs: pa.Table, part_kills: pa.Table) -> pa.Table:
        batch = pa.table({
            "doc_id": part_docs["doc_id"].cast(pa.int64()),
            "text": part_docs["text"].cast(pa.string()),
        })
        kd = part_kills["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        kw = part_kills["win_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        return _rebuild_batch(batch, window, kd, kw)

    return cogroup(
        [docs.select_columns(["doc_id", "text"]), kills],
        [["doc_id"], ["doc_id"]], rebuild_part, required=(0,),
    )[0]
