"""Exact-substring duplicate detection via winnowed rolling fingerprints
(SURVEY.md G10 — the Lee et al. 2022 "Deduplicating Training Data Makes
Language Models Better" use-case, re-expressed as shuffles instead of a
monolithic suffix array).

A doc pair "shares a run" when a verbatim byte span of length >=
`substring_len` appears in both. Detection:

1. ANCHORS: per doc, hash every `window`-byte sliding window
   (Karp-Rabin, vectorized) and keep the rightmost minimum of every
   run of w = substring_len - window + 1 consecutive hashes (winnowing,
   the MOSS selection rule). A shared run of >= substring_len bytes
   holds one full window of identical hashes in both docs, so both
   select the same anchor: no shared run is missed.
2. BUCKET: groupby anchor fingerprint -> candidate pairs carrying the
   anchor offsets on both sides.
3. VERIFY + EXTEND: join texts back, check the anchored windows match
   byte-for-byte, extend left/right to the maximal shared run, keep
   pairs with run length >= substring_len.

Output: (src, dst, match_len) — extra edges that can be unioned into the
connected-components stage (G4) for substring-level dedup.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from fastdup_ray.config import DedupConfig
from fastdup_ray.functions.hashing import rolling_shingle_hashes
from fastdup_ray.relational.ops import hash_join, partitioned_groupby
from fastdup_ray.stages.winnow import winnow_positions

_WINDOW = 64


class AnchorStage:
    """docs batch -> (fp int64, doc_id, offset) anchor rows.

    Keeps the rightmost minimum of every sliding window of
    ``w = substring_len - window + 1`` consecutive Karp-Rabin hashes
    (stages/winnow.winnow_positions). ZERO-MISS GUARANTEE: a shared byte
    run of length >= substring_len contains >= w consecutive shared hash
    positions, i.e. one full winnowing window whose hashes are identical
    in both documents, so both select the same in-run anchor
    (Schleimer/Wilkerson/Aiken SIGMOD'03 Lemma 1). For the guarantee to
    survive pair emission, `_emit_anchor_pairs` keeps EVERY selected
    occurrence per doc per fingerprint — the only remaining truncation
    is the `max_bucket_pairs` skew cap on a single fingerprint bucket.
    Density ~ 2/(w+1) of positions — the affordable replacement for the
    suffix array's exactness (Lee et al. 2022) at corpus scale.
    """

    def __init__(self, substring_len: int = 256, window: int = _WINDOW):
        if substring_len < window + 1:
            raise ValueError("substring_len must exceed the anchor window")
        self.window = window
        self.w_winnow = substring_len - window + 1

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        fps: list[np.ndarray] = []
        docs: list[np.ndarray] = []
        offs: list[np.ndarray] = []
        for i, t in enumerate(batch["text"].to_pylist()):
            data = (t or "").encode("utf-8")
            h = rolling_shingle_hashes(data, self.window)
            if h.shape[0] == 0:
                continue
            sel = winnow_positions(h, self.w_winnow)
            if sel.shape[0] == 0:
                continue
            fps.append(h[sel].astype(np.int64))
            docs.append(np.full(sel.shape[0], ids[i], dtype=np.int64))
            offs.append(sel.astype(np.int64))
        if not fps:
            return pa.table(
                {"fp": pa.array([], pa.int64()), "doc_id": pa.array([], pa.int64()),
                 "offset": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "fp": pa.array(np.concatenate(fps), pa.int64()),
                "doc_id": pa.array(np.concatenate(docs), pa.int64()),
                "offset": pa.array(np.concatenate(offs), pa.int64()),
            }
        )


def _emit_anchor_pairs(max_bucket: int):
    """Per-fingerprint bucket -> candidate (src, dst, src_off, dst_off) rows.

    Keeps EVERY selected offset per doc per fingerprint and emits all
    cross-doc occurrence combinations. Required for the zero-miss
    guarantee: when the winnow-selected 64-gram also occurs outside the
    shared run in the same doc, an arbitrary single occurrence can be the
    out-of-run copy, whose verify/extend then measures the wrong site and
    silently drops the pair. Emitting every combination guarantees the
    (in-run A, in-run B) combination is among the candidates; the
    downstream per-(src, dst, diagonal) dedupe collapses the redundant
    ones. Only the ``max_bucket`` cap (a skew guard on degenerate
    fingerprints) can truncate — documented as the one exception to
    zero-miss.
    """

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        multi = df[df.duplicated("fp", keep=False)]
        cols = {"src": [], "dst": [], "src_off": [], "dst_off": []}
        if multi.empty:
            return pd.DataFrame({k: np.empty(0, np.int64) for k in cols})
        out_s, out_d, out_so, out_do = [], [], [], []
        for _, g in multi.groupby("fp", sort=False):
            # sort BEFORE the cap so it is deterministic regardless of
            # partition row order
            g = g.sort_values(["doc_id", "offset"], kind="stable")
            g = g.head(max_bucket)
            ids = g["doc_id"].to_numpy().astype(np.int64)
            off = g["offset"].to_numpy().astype(np.int64)
            m = ids.shape[0]
            if m < 2:
                continue
            iu = np.triu_indices(m, k=1)
            s, d = ids[iu[0]], ids[iu[1]]
            so, do = off[iu[0]], off[iu[1]]
            cross = s != d  # occurrences within one doc are not a pair
            if not cross.any():
                continue
            s, d, so, do = s[cross], d[cross], so[cross], do[cross]
            # canonical orientation src < dst, offsets swapped in lockstep
            swap = s > d
            out_s.append(np.where(swap, d, s))
            out_d.append(np.where(swap, s, d))
            out_so.append(np.where(swap, do, so))
            out_do.append(np.where(swap, so, do))
        if not out_s:
            return pd.DataFrame({k: np.empty(0, np.int64) for k in cols})
        return pd.DataFrame(
            {
                "src": np.concatenate(out_s),
                "dst": np.concatenate(out_d),
                "src_off": np.concatenate(out_so),
                "dst_off": np.concatenate(out_do),
            }
        )

    return emit


def _extend_match(a: bytes, b: bytes, ia: int, ib: int, window: int) -> int:
    """Maximal shared run length around anchored windows a[ia:ia+w]==b[ib:ib+w]."""
    lo = 0
    while ia - lo - 1 >= 0 and ib - lo - 1 >= 0 and a[ia - lo - 1] == b[ib - lo - 1]:
        lo += 1
    hi = window
    while ia + hi < len(a) and ib + hi < len(b) and a[ia + hi] == b[ib + hi]:
        hi += 1
    return lo + hi


def substring_pairs(docs, config: DedupConfig | None = None):
    """docs (doc_id, text[, is_valid]) -> (src, dst, match_len) pairs whose
    maximal shared byte run >= cfg.substring_len."""
    cfg = config or DedupConfig()
    src_docs = docs
    schema = src_docs.schema()
    if schema is not None and "is_valid" in schema.names:
        src_docs = src_docs.map_batches(
            lambda b: b.filter(b["is_valid"]), batch_format="pyarrow"
        )
    anchors = src_docs.map_batches(AnchorStage(cfg.substring_len),
                                   batch_format="pyarrow")
    cand = partitioned_groupby(anchors, "fp",
                               _emit_anchor_pairs(cfg.max_bucket_pairs))

    # keep ONE candidate anchor per (src, dst, diagonal) where diagonal =
    # src_off - dst_off: anchors on the same diagonal inside the same
    # shared run extend to the identical maximal run, but anchors from
    # DIFFERENT shared runs (different diagonals) must each be verified —
    # an arbitrary single anchor can land in a run shorter than
    # substring_len while another run qualifies. (Two distinct runs on
    # the same diagonal would still collapse to one anchor; that requires
    # equal displacement in both docs, vanishingly rare.) The final
    # max(match_len) per pair is taken after verification below.
    def dedupe(df: pd.DataFrame) -> pd.DataFrame:
        delta = df["src_off"] - df["dst_off"]
        return df.loc[~df.assign(_d=delta).duplicated(["src", "dst", "_d"])]

    cand = partitioned_groupby(cand, ["src", "dst"], dedupe).materialize()
    if cand.count() == 0:
        from fastdup_ray.relational.ops import empty_typed

        return empty_typed(
            {"src": pa.int64(), "dst": pa.int64(), "match_len": pa.int64()}
        )

    from fastdup_ray.relational.ops import with_schema

    cand = with_schema(
        cand,
        {"src": pa.int64(), "dst": pa.int64(),
         "src_off": pa.int64(), "dst_off": pa.int64()},
    )
    side = docs.select_columns(["doc_id", "text"])
    j1 = hash_join(cand, side, on="src", right_on="doc_id").materialize()
    j1 = with_schema(
        j1,
        {"src": pa.int64(), "dst": pa.int64(), "src_off": pa.int64(),
         "dst_off": pa.int64(), "text": pa.string()},
    ).materialize()
    j2 = hash_join(
        j1, side.rename_columns({"text": "text_r"}),
        on="dst", right_on="doc_id",
    )

    min_len = cfg.substring_len

    def verify(batch: pa.Table) -> pa.Table:
        srcs = batch["src"].to_numpy(zero_copy_only=False)
        dsts = batch["dst"].to_numpy(zero_copy_only=False)
        so = batch["src_off"].to_numpy(zero_copy_only=False)
        do = batch["dst_off"].to_numpy(zero_copy_only=False)
        ta = batch["text"].to_pylist()
        tb = batch["text_r"].to_pylist()
        lens = np.zeros(len(srcs), dtype=np.int64)
        for i in range(len(srcs)):
            a = ta[i].encode("utf-8")
            b = tb[i].encode("utf-8")
            ia, ib = int(so[i]), int(do[i])
            if a[ia : ia + _WINDOW] != b[ib : ib + _WINDOW]:
                continue  # fingerprint collision
            lens[i] = _extend_match(a, b, ia, ib, _WINDOW)
        keep = lens >= min_len
        mask = pa.array(keep)
        return pa.table(
            {
                "src": pa.array(srcs[keep], pa.int64()),
                "dst": pa.array(dsts[keep], pa.int64()),
                "match_len": pa.array(lens[keep], pa.int64()),
            }
        )

    verified = j2.map_batches(verify, batch_format="pyarrow")

    # several anchors (diagonals) per pair may survive: report the pair
    # once with its maximal shared-run length
    def maxlen(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["src", "dst"], as_index=False)["match_len"].max()

    return partitioned_groupby(verified, ["src", "dst"], maxlen)
