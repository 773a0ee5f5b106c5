"""Winnowing document fingerprints + MOSS-style copy detection.

Public algorithm: Schleimer, Wilkerson, Aiken — "Winnowing: Local
Algorithms for Document Fingerprinting", SIGMOD 2003 (the MOSS
algorithm). Per document: hash every k-byte window of the utf-8 text
with the engine's rolling polynomial hash (`functions/hashing.
rolling_shingle_hashes`, same base/finisher as every other kernel),
then slide a window of `w` consecutive hashes and keep the minimum of
each window (rightmost on ties). Guarantee: any substring match of
length >= w + k - 1 between two documents produces at least one shared
fingerprint, and fingerprint density is ~2/(w+1).

Relation to the reference: fastdup fingerprints media by perceptual
minhash over features; this is the text-native counterpart the same way
minhash/simhash stages are (SURVEY.md §7.1 M2/M6 family). Pair scoring
follows MOSS: fingerprints shared by more than `max_df` documents are
discarded as boilerplate (the paper's "too common" rule — also the same
skew story as the LSH star cap, stages/lsh.py:13-19), surviving buckets
emit pairwise matches, and pairs are ranked by the number of shared
fingerprint values.

Scale shape: fingerprinting is an embarrassingly-parallel map stage
(~2/(w+1) x bytes output); pair counting is ONE hash-partition shuffle
keyed by fingerprint value with vectorized in-partition pair emission
(bounded by max_df^2 per bucket) plus a second small shuffle keyed by
(src, dst) to sum shared counts. No driver materialization anywhere.

The DuckDB SQL twin lives in pipelines/sql_hash.py (`winnow_ctes`) and
is generated from the SAME constants; like the simhash twin it assumes
ASCII text (SQL indexes chars, the kernel indexes utf-8 bytes — equal
on the ASCII test tables).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from fastdup_ray.functions.hashing import segmented_shingle_hashes
from fastdup_ray.relational.ops import distinct, partitioned_groupby


def winnow_positions(h: np.ndarray, w: int) -> np.ndarray:
    """Selected fingerprint positions for ONE document's k-gram hash
    array `h` (any integer dtype), window size `w`.

    Rightmost-minimum tie rule (the paper's robust-winnowing choice made
    deterministic): within each window of `w` consecutive hashes the
    minimum hash is selected; on ties the rightmost minimal position
    wins. Documents with fewer than `w` hashes get ONE window covering
    all of them, so every document with >= 1 k-gram yields >= 1
    fingerprint. Returns sorted unique positions (int64).
    """
    m = int(h.shape[0])
    if m == 0:
        return np.empty(0, np.int64)
    w_eff = min(w, m)
    # (n_win, w_eff) zero-copy view; argmin over the REVERSED window axis
    # returns the first minimum of the reversed window = rightmost of the
    # original window
    S = np.lib.stride_tricks.sliding_window_view(h, w_eff)
    rev_idx = np.argmin(S[:, ::-1], axis=1)
    sel = np.arange(S.shape[0], dtype=np.int64) + (w_eff - 1 - rev_idx)
    return np.unique(sel)


def _winnow_batch(batch: pa.Table, *, k: int, w: int,
                  text_col: str) -> pa.Table:
    """(doc_id, text) batch -> (doc_id, pos, fp) fingerprint rows."""
    ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    hashes, offsets = segmented_shingle_hashes(batch[text_col], k)
    out_id: list[np.ndarray] = []
    out_pos: list[np.ndarray] = []
    out_fp: list[np.ndarray] = []
    # per-doc loop over batch rows (~1k): each iteration is vectorized
    # over that doc's hash array, same pattern as segmented_shingle_hashes
    for i in range(ids.shape[0]):
        h = hashes[offsets[i]:offsets[i + 1]]
        sel = winnow_positions(h, w)
        if sel.shape[0] == 0:
            continue
        out_id.append(np.full(sel.shape[0], ids[i], np.int64))
        out_pos.append(sel)
        out_fp.append(h[sel].astype(np.int64))
    if not out_id:
        return pa.table({
            "doc_id": pa.array([], pa.int64()),
            "pos": pa.array([], pa.int64()),
            "fp": pa.array([], pa.int64()),
        })
    return pa.table({
        "doc_id": pa.array(np.concatenate(out_id)),
        "pos": pa.array(np.concatenate(out_pos)),
        "fp": pa.array(np.concatenate(out_fp)),
    })


def winnow_fingerprints(docs, *, k: int = 5, w: int = 8,
                        text_col: str = "text", batch_size: int = 1024):
    """docs (doc_id, text, ...) -> fingerprints (doc_id, pos, fp).

    pos = byte offset of the selected k-gram, fp = its uint32 rolling
    hash (stored int64). Stateless map stage — Ray schedules it as plain
    tasks with no actor pool needed.
    """
    import functools

    return docs.map_batches(
        functools.partial(_winnow_batch, k=k, w=w, text_col=text_col),
        batch_format="pyarrow", batch_size=batch_size,
    )


def _make_emit_pair_counts(max_df: int):
    """Per-fp-partition emitter: rows (fp, doc_id) -> (src, dst,
    n_shared) with n_shared = shared-fingerprint count WITHIN this
    partition (fp values are partition-disjoint, so global counts are
    the per-partition sums). Buckets with < 2 or > max_df documents are
    dropped (MOSS "too common" rule). Fully vectorized."""

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "src": np.empty(0, np.int64), "dst": np.empty(0, np.int64),
            "n_shared": np.empty(0, np.int64),
        })
        b = df["fp"].to_numpy().astype(np.int64, copy=False)
        d = df["doc_id"].to_numpy().astype(np.int64, copy=False)
        if b.size == 0:
            return empty
        order = np.lexsort((d, b))
        b, d = b[order], d[order]
        keep = np.ones(b.size, dtype=bool)
        keep[1:] = (b[1:] != b[:-1]) | (d[1:] != d[:-1])
        b, d = b[keep], d[keep]
        starts = np.flatnonzero(np.concatenate([[True], b[1:] != b[:-1]]))
        counts = np.diff(np.append(starts, b.size))
        pos = np.arange(b.size, dtype=np.int64)
        seg_m = np.repeat(counts, counts)
        loc = pos - np.repeat(starts, counts)
        live = np.repeat((counts >= 2) & (counts <= max_df), counts)
        rep = np.where(live, seg_m - 1 - loc, 0)
        total = int(rep.sum())
        if total == 0:
            return empty
        src = np.repeat(d, rep)
        csum = np.cumsum(rep) - rep
        off = np.arange(total, dtype=np.int64) - np.repeat(csum, rep)
        dst = d[np.repeat(pos + 1, rep) + off]
        # partition-local (src, dst) occurrence count = shared fps here
        key_order = np.lexsort((dst, src))
        src, dst = src[key_order], dst[key_order]
        first = np.ones(src.size, dtype=bool)
        first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        pstarts = np.flatnonzero(first)
        n = np.diff(np.append(pstarts, src.size))
        return pd.DataFrame({
            "src": src[pstarts], "dst": dst[pstarts],
            "n_shared": n.astype(np.int64),
        })

    return emit


def winnow_pair_counts(fps, *, min_shared: int = 2, max_df: int = 8):
    """fingerprints (doc_id, pos, fp) -> matched pairs (src, dst,
    n_shared), src < dst, keeping pairs that share >= min_shared
    distinct fingerprint values after dropping values present in more
    than max_df documents."""
    docfp = distinct(fps, ["fp", "doc_id"])
    partial = partitioned_groupby(
        docfp, "fp", _make_emit_pair_counts(max_df),
    )

    def total(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["src", "dst"], as_index=False)["n_shared"].sum()
        return g[g["n_shared"] >= min_shared]

    return partitioned_groupby(partial, ["src", "dst"], total)
