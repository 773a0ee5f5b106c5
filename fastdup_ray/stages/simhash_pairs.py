"""SimHash near-duplicate pairs (the second Signer path, SURVEY.md §7.1
M6, mirroring G1 with Hamming distance instead of Jaccard).

Two fingerprints within Hamming distance <= `max_hamming` (default 3)
share at least one untouched 16-bit quarter (pigeonhole), so bucketing on
the four tagged quarters finds every such pair among DISTINCT fingerprint
values with perfect recall.

Skew is handled by collapsing identical fingerprints FIRST (the
mega-bucket driver at web scale is thousands of byte-identical/boilerplate
pages sharing one fingerprint, the analog of the LSH star cap's target):

1. COLLAPSE: group docs by exact fingerprint value; each value gets a
   canonical doc (min doc_id). Intra-value doc pairs (hamming 0) are
   emitted as full cliques up to `max_bucket_pairs` docs, star to the
   canon beyond — identical policy and connectivity guarantee as the LSH
   path (stages/lsh.py).
2. BUCKET: quarter bucketing runs over distinct VALUES only (one row per
   value per quarter), so bucket occupancy is bounded by distinct-value
   diversity, not corpus size.
3. VERIFY IN-BUCKET: the fingerprint rides with the bucket row, so exact
   hamming is computed inside the emit partition — no joins. Cross-value
   edges connect the two canons. Buckets with more than
   `simhash_value_cap` distinct values emit a verified clique over the
   first cap values plus verified star edges for the rest (documented
   recall loss only in that pathological case).

Because every doc is connected to its value canon at hamming 0 and canons
are connected whenever their values are within the bound, the output's
connected components equal those of the full pair relation; the pair LIST
under-reports member-to-member edges across distinct values (canon-level
edges stand in for them) and inside capped hamming-0 groups.

Output: (src, dst, hamming, distance) where distance = 1 - hamming/64 —
a similarity in [0,1] comparable to the reference's cosine `distance`
column (RUN.md:43-55).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from fastdup_ray.config import DedupConfig
from fastdup_ray.functions.simhash import hamming64, simhash_quarters
from fastdup_ray.relational.ops import distinct, partitioned_groupby

_EMPTY = {"src": np.empty(0, np.int64), "dst": np.empty(0, np.int64),
          "hamming": np.empty(0, np.int64)}


def _collapse_values(cap: int):
    """Per-partition: rows (doc_id, simhash) -> tagged rows.

    kind 0: intra-value edge (a=src, b=dst) at hamming 0
    kind 1: distinct value (a=simhash as int64, b=canonical doc_id)
    """

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates().sort_values(["simhash", "doc_id"], kind="mergesort")
        sh = df["simhash"].to_numpy().astype(np.int64)
        ids = df["doc_id"].to_numpy().astype(np.int64)
        n = sh.shape[0]
        if n == 0:
            return pd.DataFrame({"kind": np.empty(0, np.int8),
                                 "a": np.empty(0, np.int64),
                                 "b": np.empty(0, np.int64)})
        new = np.ones(n, dtype=bool)
        new[1:] = sh[1:] != sh[:-1]
        starts = np.nonzero(new)[0]
        sizes = np.diff(np.append(starts, n))
        kinds = [np.full(starts.shape[0], 1, np.int8)]
        a_out = [sh[starts]]
        b_out = [ids[starts]]
        for s, m in zip(starts[sizes > 1], sizes[sizes > 1]):
            grp = ids[s : s + m]
            if m <= cap:
                iu = np.triu_indices(m, k=1)
                ea, eb = grp[iu[0]], grp[iu[1]]
            else:
                ea = np.full(m - 1, grp[0], dtype=np.int64)
                eb = grp[1:]
            kinds.append(np.zeros(ea.shape[0], np.int8))
            a_out.append(ea)
            b_out.append(eb)
        return pd.DataFrame(
            {"kind": np.concatenate(kinds), "a": np.concatenate(a_out),
             "b": np.concatenate(b_out)}
        )

    return fn


def _value_band_rows(batch: pa.Table) -> pa.Table:
    """Distinct-value rows (a=fp, b=canon) -> (bucket, fp, canon) x4."""
    fp = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
    canon = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
    q = simhash_quarters(fp.view(np.uint64))  # (n, 4) tagged quarter keys
    return pa.table(
        {
            "bucket": pa.array(q.ravel().astype(np.int64), pa.int64()),
            "fp": pa.array(np.repeat(fp, 4), pa.int64()),
            "canon": pa.array(np.repeat(canon, 4), pa.int64()),
        }
    )


def _emit_verified(value_cap: int, max_h: int):
    """Per-partition: (bucket, fp, canon) -> verified canon pairs."""

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates()
        multi = df[df.duplicated("bucket", keep=False)]
        if multi.empty:
            return pd.DataFrame(_EMPTY)
        srcs, dsts, hams = [], [], []
        for _, g in multi.groupby("bucket", sort=False):
            g = g.drop_duplicates("fp")
            d = len(g)
            if d < 2:
                continue
            g = g.sort_values("canon", kind="mergesort")
            fp = g["fp"].to_numpy().astype(np.int64).view(np.uint64)
            canon = g["canon"].to_numpy().astype(np.int64)
            head = min(d, value_cap)
            iu = np.triu_indices(head, k=1)
            ca, cb = canon[iu[0]], canon[iu[1]]
            h = hamming64(fp[iu[0]], fp[iu[1]])
            if d > head:
                rest = np.arange(head, d)
                ca = np.concatenate([ca, np.full(d - head, canon[0], np.int64)])
                cb = np.concatenate([cb, canon[rest]])
                h = np.concatenate([h, hamming64(fp[rest], fp[:1])])
            keep = h <= max_h
            if not keep.any():
                continue
            srcs.append(np.minimum(ca[keep], cb[keep]))
            dsts.append(np.maximum(ca[keep], cb[keep]))
            hams.append(h[keep].astype(np.int64))
        if not srcs:
            return pd.DataFrame(_EMPTY)
        out = pd.DataFrame(
            {"src": np.concatenate(srcs), "dst": np.concatenate(dsts),
             "hamming": np.concatenate(hams)}
        )
        # the same value pair fires in up to 4 quarter buckets
        return out.drop_duplicates()

    return emit


def simhash_candidate_pairs(signatures, config: DedupConfig | None = None):
    """signatures (doc_id, simhash, ...) -> verified pairs
    (src, dst, hamming, distance) with hamming <= cfg.simhash_hamming.

    Component-exact under skew: see module docstring for the pair-list
    completeness contract.
    """
    cfg = config or DedupConfig()
    proj = signatures.select_columns(["doc_id", "simhash"])

    tagged = partitioned_groupby(
        proj, "simhash", _collapse_values(cfg.max_bucket_pairs),
    ).materialize()

    def intra_edges(b: pa.Table) -> pa.Table:
        e = b.filter(pa.compute.equal(b["kind"], 0))
        return pa.table(
            {
                "src": e["a"].cast(pa.int64()),
                "dst": e["b"].cast(pa.int64()),
                "hamming": pa.array(np.zeros(e.num_rows, np.int64)),
            }
        )

    intra = tagged.map_batches(intra_edges, batch_format="pyarrow")
    values = tagged.map_batches(
        lambda b: b.filter(pa.compute.equal(b["kind"], 1)).drop_columns(["kind"]),
        batch_format="pyarrow",
    )
    band_rows = values.map_batches(_value_band_rows, batch_format="pyarrow")
    cross = partitioned_groupby(
        band_rows, "bucket",
        _emit_verified(cfg.simhash_value_cap, cfg.simhash_hamming),
    )
    pairs = distinct(intra.union(cross), ["src", "dst", "hamming"]).materialize()
    if pairs.count() == 0:
        from fastdup_ray.relational.ops import empty_typed

        return empty_typed(
            {"src": pa.int64(), "dst": pa.int64(),
             "hamming": pa.int64(), "distance": pa.float64()}
        )

    def add_distance(batch: pa.Table) -> pa.Table:
        h = batch["hamming"].to_numpy(zero_copy_only=False).astype(np.float64)
        return batch.append_column(
            "distance", pa.array(1.0 - h / 64.0, pa.float64())
        )

    from fastdup_ray.relational.ops import with_schema

    pairs = with_schema(
        pairs, {"src": pa.int64(), "dst": pa.int64(), "hamming": pa.int64()}
    )
    return pairs.map_batches(add_distance, batch_format="pyarrow")
