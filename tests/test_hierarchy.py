"""Hierarchical components: exemplar texts of the near-dup components
re-clustered at a lower threshold, with canonical and medoid exemplars."""

import numpy as np
import pyarrow as pa

import ray.data as rd

from fastdup_ray.config import DedupConfig


def test_hierarchical_components(ray_session):
    """Two-level fixture: components A (docs of theme X) and B (slightly
    mutated theme X) must cluster together at the lower threshold; C
    (different theme) must not."""
    from fastdup_ray.stages.hierarchy import hierarchical_components

    rng = np.random.default_rng(9)
    base = " ".join(rng.choice(["alpha", "beta", "gamma", "delta"], 200))
    other = " ".join(rng.choice(["omega", "sigma", "tau", "phi"], 200))
    mut = base.replace("alpha", "alphaz", 3)  # ~ near-dup of base at 0.7+
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "text": pa.array([base, base, mut, mut, other, other]),
        }
    )
    comps = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "component_id": pa.array([1, 1, 3, 3, 5, 5], pa.int64()),
        }
    )
    clusters, edges = hierarchical_components(
        rd.from_arrow(docs), rd.from_arrow(comps),
        DedupConfig(), cluster_threshold=0.7,
    )
    cl = {r["component_id"]: r["cluster_id"] for r in clusters.take_all()}
    assert set(cl) == {1, 3, 5}
    assert cl[1] == cl[3] == 1, cl   # A and B merge (cluster = min comp id)
    assert cl[5] == 5                # C stays apart
    e = edges.take_all()
    assert any(
        {r["cluster_from"], r["cluster_to"]} == {1, 3} for r in e
    )


def test_hierarchy_medoid_exemplar_recovers_cluster(ray_session):
    """Planted fixture: component c1's min-id member is an ATYPICAL text
    (different theme); its other three members are theme-A. With
    exemplar='medoid' c1 clusters with the theme-A component c2; with
    exemplar='canonical' (min-id text) it does not."""
    from fastdup_ray.stages.hierarchy import (
        component_medoids,
        hierarchical_components,
    )
    from fastdup_ray.stages.signatures import SignStage

    theme_a = (
        "alpha beta gamma delta epsilon zeta eta theta iota kappa "
        "lambda mu nu xi omicron pi rho sigma tau upsilon " * 6
    )
    theme_b = (
        "zebra quokka wombat numbat dingo bilby bandicoot kookaburra "
        "cassowary platypus echidna wallaby " * 8
    )
    rows = [
        (1, theme_b),              # c1 min-id member: atypical
        (10, theme_a + "one "),
        (11, theme_a + "two "),
        (12, theme_a + "three "),
        (2, theme_a + "four "),    # c2: all theme A
        (20, theme_a + "five "),
        (21, theme_a + "six "),
    ]
    docs = rd.from_arrow(pa.table(
        {"doc_id": pa.array([r[0] for r in rows], pa.int64()),
         "text": pa.array([r[1] for r in rows], pa.string())}
    )).repartition(3)
    comps = rd.from_arrow(pa.table(
        {"doc_id": pa.array([1, 10, 11, 12, 2, 20, 21], pa.int64()),
         "component_id": pa.array([1, 1, 1, 1, 2, 2, 2], pa.int64())}
    ))
    cfg = DedupConfig()

    sigs = docs.map_batches(
        SignStage(cfg, emit_shingles=False), batch_format="pyarrow"
    ).materialize()
    med = {r["component_id"]: r["doc_id"]
           for r in component_medoids(comps, sigs, cfg).take_all()}
    assert med[1] in (10, 11, 12), f"medoid picked the atypical member: {med}"
    assert med[2] in (2, 20, 21)

    def clusters(exemplar):
        cl, _ = hierarchical_components(
            docs, comps, cfg, cluster_threshold=0.7, exemplar=exemplar,
            signatures=sigs,
        )
        return {r["component_id"]: r["cluster_id"] for r in cl.take_all()}

    m = clusters("medoid")
    assert m[1] == m[2], f"medoid exemplars must merge the theme: {m}"
    c = clusters("canonical")
    assert c[1] != c[2], f"canonical (min-id) exemplar must miss it: {c}"
