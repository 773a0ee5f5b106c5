"""Hierarchical components (SURVEY.md G9): cluster the clusters.

The reference's galleries compute a second clustering level — similarity
between component exemplars, surfaced as `cluster_from`/`cluster_to`
edge columns (reference galleries.py:223-266, 365-367). Here:

- each first-level component's exemplar is its canonical doc — in this
  repo the component label IS the min doc_id of the component
  (stages/components.py), so exemplar selection is a semi-join of docs
  against the distinct component ids (no extra groupby);
- the full MinHash/LSH/verify stack re-runs over exemplar texts at a
  LOWER threshold (`cluster_threshold`, default 0.7: components whose
  representatives still share most shingles belong to one theme);
- connected components over the exemplar graph yield `cluster_id` per
  component (cluster_id = min component_id in the cluster — same
  normalization as level one, so output is parallelism-invariant).

Returns (component_clusters, component_edges):
  component_clusters: (component_id, cluster_id) — every input component,
      singletons mapped to themselves;
  component_edges: (cluster_from, cluster_to, distance) — the verified
      exemplar edges (reference's cluster_from/cluster_to columns).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fastdup_ray.config import DedupConfig
from fastdup_ray.relational.ops import hash_join, with_schema
from fastdup_ray.stages.components import connected_components
from fastdup_ray.stages.lsh import candidate_pairs
from fastdup_ray.stages.signatures import BandStage, SignStage
from fastdup_ray.stages.verify import verify_pairs


def component_medoids(components, signatures, config: DedupConfig | None = None):
    """(component_id, doc_id): per component, the member whose MinHash
    signature agrees with the component's per-slot MODAL signature in
    the most slots — a linear-time medoid approximation under Jaccard
    (the modal signature is the component's signature-space centroid;
    E[slot agreement] = Jaccard, so max modal agreement ~ max mean
    similarity to the members, the medoid notion of the reference's
    representative selection, galleries.py:223-266). Deterministic:
    modal value ties break to the smaller value, member ties to the
    smaller doc_id. One vectorized sort per hash partition — no per-
    component Python.

    components: (doc_id, component_id); signatures: (doc_id, minhash).
    """
    from fastdup_ray.relational.ops import partitioned_groupby

    cfg = config or DedupConfig()
    P = cfg.num_perms
    joined = hash_join(
        components.select_columns(["doc_id", "component_id"]),
        signatures.select_columns(["doc_id", "minhash"]).rename_columns(
            {"doc_id": "sdoc"}
        ),
        on="doc_id", right_on="sdoc",
    )
    joined = with_schema(
        joined,
        {"doc_id": pa.int64(), "component_id": pa.int64(),
         "minhash": pa.list_(pa.uint32())},
    )

    def pick(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"component_id": pa.array([], pa.int64()),
                 "doc_id": pa.array([], pa.int64())}
            )
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        col = t["minhash"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        # works for list<uint32> and fixed_size_list<uint32> alike (the
        # with_schema above casts fixed_size_list to list)
        sig = (
            col.flatten().to_numpy(zero_copy_only=False)
            .astype(np.uint32, copy=False).reshape(-1, P)
        )
        comp = t["component_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # dense component index within this partition
        uc, cidx = np.unique(comp, return_inverse=True)
        nc = uc.shape[0]
        # modal signature per (component, slot): one global sort of
        # (comp_idx << 39 | slot << 32 | value) keys, run-length counts,
        # then per (comp,slot) the max-count (tie: already value-ascending)
        slot = np.tile(np.arange(P, dtype=np.uint64), ids.shape[0])
        key = (
            (np.repeat(cidx.astype(np.uint64), P) << np.uint64(39))
            | (slot << np.uint64(32))
            | sig.ravel().astype(np.uint64)
        )
        key.sort()
        runs = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        counts = np.diff(np.append(runs, key.shape[0]))
        rk = key[runs]
        group = rk >> np.uint64(32)  # comp_idx*128 + slot, ascending
        # within a group keys ascend by value; stable sort by -count keeps
        # the smaller value first among equal counts
        order = np.lexsort((np.arange(rk.shape[0]), -counts, group))
        g_sorted = group[order]
        first = np.flatnonzero(
            np.concatenate([[True], g_sorted[1:] != g_sorted[:-1]])
        )
        # every (comp, slot) has >= 1 member entry -> exactly nc*P groups
        mode = (rk[order[first]] & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        mode = mode.reshape(nc, P)
        score = (sig == mode[cidx]).sum(axis=1)
        pick_order = np.lexsort((ids, -score, cidx))
        lead = np.flatnonzero(
            np.concatenate([[True], cidx[pick_order][1:] != cidx[pick_order][:-1]])
        )
        rows = pick_order[lead]
        return pa.table(
            {
                "component_id": pa.array(comp[rows], pa.int64()),
                "doc_id": pa.array(ids[rows], pa.int64()),
            }
        )

    return partitioned_groupby(
        joined, "component_id", pick,
        batch_format="pyarrow",
    )


def hierarchical_components(docs, components, config: DedupConfig | None = None,
                            *, cluster_threshold: float = 0.7,
                            exemplar: str = "medoid", signatures=None):
    """docs: (doc_id, text, ...); components: (doc_id, component_id).

    exemplar: "medoid" (default) picks each component's most central
    member by modal-signature agreement (`component_medoids`) — skewed
    components with an atypical min-id member cluster correctly;
    "canonical" restores the min-doc_id exemplar (cheaper: no member
    signatures needed). signatures: optional (doc_id, minhash) Dataset
    to reuse (e.g. the pipeline's signatures checkpoint); computed from
    `docs` when absent in medoid mode.
    """
    import ray.data as rd

    cfg = config or DedupConfig()
    if exemplar not in ("medoid", "canonical"):
        raise ValueError(f"unknown exemplar mode {exemplar!r}")
    sub_cfg = dataclasses.replace(
        cfg, threshold=cluster_threshold, cc_threshold=cluster_threshold
    )

    comp_ids = components.select_columns(["component_id"]).map_batches(
        lambda b: pa.table(
            {"component_id": b["component_id"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )
    # distinct component ids (exemplar doc ids)
    from fastdup_ray.relational.ops import distinct

    exemplar_ids = distinct(comp_ids, "component_id").materialize()
    empty_cl = pa.table(
        {"component_id": pa.array([], pa.int64()),
         "cluster_id": pa.array([], pa.int64())}
    )
    empty_ed = pa.table(
        {"cluster_from": pa.array([], pa.int64()),
         "cluster_to": pa.array([], pa.int64()),
         "distance": pa.array([], pa.float64())}
    )
    if exemplar_ids.count() == 0:
        return rd.from_arrow(empty_cl), rd.from_arrow(empty_ed)

    if exemplar == "medoid":
        if signatures is None:
            signatures = docs.map_batches(
                SignStage(cfg, emit_shingles=False), batch_format="pyarrow",
                batch_size=cfg.batch_size,
            )
        medoids = component_medoids(components, signatures, cfg)
        # exemplar text = the medoid member's text, keyed by component_id
        med_docs = hash_join(
            medoids, docs.select_columns(["doc_id", "text"]).rename_columns(
                {"doc_id": "xdoc"}
            ),
            on="doc_id", right_on="xdoc",
        )
        exemplars = with_schema(
            med_docs,
            {"component_id": pa.int64(), "text": pa.string()},
        ).map_batches(
            lambda b: pa.table(
                {"doc_id": b["component_id"], "text": b["text"]}
            ),
            batch_format="pyarrow",
        ).materialize()
    else:
        exemplars = hash_join(
            exemplar_ids,
            docs.select_columns(["doc_id", "text"]).rename_columns(
                {"doc_id": "xdoc"}
            ),
            on="component_id", right_on="xdoc",
        ).map_batches(
            lambda b: pa.table(
                {"doc_id": b["component_id"].cast(pa.int64()), "text": b["text"]}
            ),
            batch_format="pyarrow",
        ).materialize()

    sigs = exemplars.map_batches(
        SignStage(sub_cfg), batch_format="pyarrow", batch_size=cfg.batch_size
    ).materialize()
    pairs = candidate_pairs(
        sigs.map_batches(BandStage(sub_cfg), batch_format="pyarrow"), sub_cfg
    )
    scores = verify_pairs(pairs, sigs, exemplars, sub_cfg).materialize()
    edges = scores.map_batches(
        lambda b: b.filter(
            pc.greater_equal(b["distance"], pa.scalar(cluster_threshold))
        ),
        batch_format="pyarrow",
    ).materialize()

    comp_edges = edges.map_batches(
        lambda b: pa.table(
            {
                "cluster_from": b["src"].cast(pa.int64()),
                "cluster_to": b["dst"].cast(pa.int64()),
                "distance": b["distance"],
            }
        ),
        batch_format="pyarrow",
    )

    if edges.count() == 0:
        clusters = exemplar_ids.map_batches(
            lambda b: pa.table(
                {
                    "component_id": b["component_id"].cast(pa.int64()),
                    "cluster_id": b["component_id"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        return clusters, rd.from_arrow(empty_ed)

    labels = connected_components(edges)  # (node, label)
    # rename inside with_schema (rename_columns on from_arrow_refs
    # datasets is unreliable in ray 2.49 — see ops.with_schema)
    labels = with_schema(labels, {"lnode": pa.int64(), "label": pa.int64()},
                         rename={"node": "lnode"})

    # every component gets a cluster: clustered ones take their CC label,
    # singletons map to themselves (left join + fill_null)
    clusters = hash_join(
        exemplar_ids,
        labels,
        on="component_id", right_on="lnode", join_type="left_outer",
    ).map_batches(
        lambda b: pa.table(
            {
                "component_id": b["component_id"].cast(pa.int64()),
                "cluster_id": pc.fill_null(b["label"].cast(pa.int64()),
                                           b["component_id"].cast(pa.int64())),
            }
        ),
        batch_format="pyarrow",
    )
    return clusters, comp_edges
