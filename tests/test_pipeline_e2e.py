"""End-to-end pipeline vs brute-force oracle (FIXTURES.md §3).

Oracle: O(n^2) exact char-5-gram Jaccard over all valid docs + driver
union-find at cc_threshold. Checks the north-rule criteria: dup-pair
recall >= 0.99 at the same shingle/signature config, identical component
partition, keep-one-per-component policy, resumability.
"""

import itertools
import os

import numpy as np
import pytest

import ray.data as rd
from kernel_refs import union_find_oracle

from fastdup_ray.config import DedupConfig
from fastdup_ray.functions.hashing import id63
from fastdup_ray.functions.minhash import exact_jaccard_pairs
from fastdup_ray.pipelines.neardup import NearDupPipeline
from fastdup_ray.relational import ops
from fastdup_ray.sources.pages import synthesize_pages
from fastdup_ray.stages import components

N_DOCS = 400


@pytest.fixture(scope="module")
def oracle():
    pages, truth = synthesize_pages(N_DOCS, seed=42)
    texts = pages["text"].to_pylist()
    urls = pages["url"].to_pylist()
    ids = id63(urls)
    cfg = DedupConfig()
    valid = [
        i
        for i in range(len(texts))
        if len(texts[i]) >= cfg.min_text_len and len(texts[i]) >= cfg.shingle_size
    ]
    from fastdup_ray.functions.minhash import jaccard_of_sets, shingle_sets

    sets = shingle_sets(texts, cfg.shingle_size)
    cc_pairs = []
    for i, j in itertools.combinations(valid, 2):
        if jaccard_of_sets(sets[i], sets[j]) >= cfg.cc_threshold:
            cc_pairs.append((int(ids[i]), int(ids[j])))
    labels = union_find_oracle(cc_pairs)
    return {
        "pages": pages,
        "truth": truth,
        "ids": ids,
        "cfg": cfg,
        "cc_pairs": cc_pairs,
        "labels": labels,
    }


@pytest.fixture(scope="module")
def result(ray_session, oracle, tmp_path_factory):
    wd = str(tmp_path_factory.mktemp("workdir"))
    pipe = NearDupPipeline(oracle["cfg"], work_dir=wd)
    # _DRIVER_MAX_EDGES = 0 forces the DISTRIBUTED CC route (star
    # contraction) — the at-scale route this suite exists to validate
    # (the driver union-find route is oracle-exact by construction)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(components, "_DRIVER_MAX_EDGES", 0)
        res = pipe.run(rd.from_arrow(oracle["pages"]).repartition(8),
                       input_token="fixture-v1")
    return res


def test_dup_pair_recall(result, oracle):
    """Every oracle pair with J >= cc_threshold lands in one engine component
    (recall >= 0.99 criterion)."""
    comp = {
        r["doc_id"]: r["component_id"]
        for r in result.connected_components().take_all()
    }
    missed = [
        (a, b)
        for a, b in oracle["cc_pairs"]
        if comp.get(a, a) != comp.get(b, b)
    ]
    total = len(oracle["cc_pairs"])
    assert total >= 40, "fixture must plant enough dup pairs"
    recall = 1 - len(missed) / total
    assert recall >= 0.99, f"recall {recall:.4f}, missed {len(missed)}/{total}"


def test_components_match_oracle_partition(result, oracle):
    engine = {
        r["doc_id"]: r["component_id"]
        for r in result.connected_components().take_all()
    }
    want = oracle["labels"]
    # same set of clustered (non-singleton) nodes and identical min-id labels
    engine_multi = {n: l for n, l in engine.items()}
    assert set(engine_multi.keys()) == set(want.keys())
    assert engine_multi == want


def test_similarity_edges_exact_distances(result, oracle):
    """Engine distances are exact Jaccard (exact verify); every edge
    >= threshold; canonical src<dst; no self-edges."""
    edges = result.similarity().take_all()
    assert len(edges) > 0
    for e in edges:
        assert e["src"] < e["dst"]
        assert e["distance"] >= oracle["cfg"].threshold - 1e-12


def test_component_info_counts(result):
    info = {r["component_id"]: r["count"] for r in result.component_info().take_all()}
    comp = {}
    for r in result.connected_components().take_all():
        comp[r["component_id"]] = comp.get(r["component_id"], 0) + 1
    assert info == comp
    assert all(c >= 2 for c in info.values())  # edge-touched nodes only


def test_keep_table_one_per_component(result):
    rows = result.keep_table().take_all()
    by_comp = {}
    for r in rows:
        by_comp.setdefault(r["component_id"], []).append(r["keep"])
    assert len(by_comp) > 0
    for cid, keeps in by_comp.items():
        assert sum(keeps) == 1, f"component {cid} keeps {sum(keeps)}"


def test_summary_counts(result, oracle):
    s = result.summary()
    assert s["total_docs"] == oracle["pages"].num_rows
    assert s["invalid_docs"] > 0
    assert s["valid_docs"] + s["invalid_docs"] == s["total_docs"]
    assert s["components"] > 0
    assert s["largest_component"] >= 2


def test_resume_skips_stages(result, oracle):
    """Re-running with the same work_dir + token must reuse checkpoints
    (manifest mtimes unchanged) and produce identical components."""
    wd = result.work_dir
    manifests = {}
    for st in ["docs", "signatures", "pairs", "pair_scores", "components"]:
        p = os.path.join(wd, st, "manifest.json")
        assert os.path.exists(p), f"missing manifest for {st}"
        manifests[st] = os.stat(p).st_mtime_ns
    pipe = NearDupPipeline(oracle["cfg"], work_dir=wd)
    res2 = pipe.run(rd.from_arrow(oracle["pages"]).repartition(8), input_token="fixture-v1")
    for st, mt in manifests.items():
        assert os.stat(os.path.join(wd, st, "manifest.json")).st_mtime_ns == mt, (
            f"stage {st} re-ran on resume"
        )
    c1 = sorted((r["doc_id"], r["component_id"]) for r in result.connected_components().take_all())
    c2 = sorted((r["doc_id"], r["component_id"]) for r in res2.connected_components().take_all())
    assert c1 == c2


def test_config_change_invalidates(result, oracle, tmp_path_factory):
    """A changed threshold must change the fingerprint chain (no stale reuse)."""
    cfg2 = DedupConfig(cc_threshold=0.8)
    assert cfg2.fingerprint("components") != oracle["cfg"].fingerprint("components")


def test_sharded_verify_matches_single_shard(ray_session, oracle, tmp_path_factory,
                                             monkeypatch):
    """The oracle fixture's endpoint sets fit one index shard; with
    `_SHARD_BYTES` patched to a third of their bytes (S >= 3 shards, rows
    routed by the exchange's split tasks) the scored edges are exactly
    the single-shard ones."""
    from fastdup_ray.stages import verify

    payloads, built = [], []
    build_index = verify._build_index

    def recording_build_index(sets, payload_bytes):
        payloads.append(payload_bytes)
        refs = build_index(sets, payload_bytes)
        built.append(len(refs))
        return refs

    monkeypatch.setattr(verify, "_build_index", recording_build_index)
    monkeypatch.setattr(components, "_DRIVER_MAX_EDGES", 0)

    def edges(wd, token):
        res = NearDupPipeline(oracle["cfg"], work_dir=wd).run(
            rd.from_arrow(oracle["pages"]).repartition(8), input_token=token
        )
        return sorted(
            (r["src"], r["dst"], r["distance"])
            for r in res.similarity().take_all()
        )

    e_one = edges(str(tmp_path_factory.mktemp("wd_s1")), "vp-s1")
    assert built == [1]
    monkeypatch.setattr(verify, "_SHARD_BYTES", payloads[0] // 3)
    e_many = edges(str(tmp_path_factory.mktemp("wd_s3")), "vp-s3")
    assert built[1] >= 3
    assert e_one == e_many
    assert len(e_one) > 0


def test_outputs_invariant_to_exchange_width(ray_session, oracle, tmp_path_factory,
                                             monkeypatch):
    """Every exchange of a run (emission, distinct, star contraction)
    gives the same sorted pairs, pair_scores and components with the
    width forced to 1, to 3, and at its derived value."""
    monkeypatch.setattr(components, "_DRIVER_MAX_EDGES", 0)

    def tables(token):
        res = NearDupPipeline(
            oracle["cfg"], work_dir=str(tmp_path_factory.mktemp(token))
        ).run(rd.from_arrow(oracle["pages"]).repartition(8), input_token=token)
        return (
            sorted((r["src"], r["dst"]) for r in res._pairs.take_all()),
            sorted((r["src"], r["dst"], r["distance"])
                   for r in res.pair_scores().take_all()),
            sorted((r["doc_id"], r["component_id"])
                   for r in res.connected_components().take_all()),
        )

    derived = tables("width-derived")
    assert all(derived)
    for width in (1, 3):
        monkeypatch.setattr(ops, "exchange_width", lambda n, w=width: w)
        assert tables(f"width-{width}") == derived, width
