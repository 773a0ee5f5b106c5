"""Incremental (append-mode) dedup: run_incremental equals a full run,
the scored-pair split behind it, and restoring a base run from its
work_dir."""

import json
import os

import pyarrow as pa
import pytest
import ray.data as rd

from fastdup_ray.config import DedupConfig


def test_incremental_equals_full_run(ray_session, tmp_path_factory):
    """run_incremental(B, base=run(A)) must equal run(A+B) exactly:
    same verified edge set (canonicalized) and the same component
    partition — without re-processing A."""
    from fastdup_ray.pipelines.neardup import NearDupPipeline
    from fastdup_ray.sources.pages import synthesize_pages

    pages, _ = synthesize_pages(900, seed=23)
    A, B = pages.slice(0, 600), pages.slice(600)
    cfg = DedupConfig()

    full = NearDupPipeline(
        cfg, work_dir=str(tmp_path_factory.mktemp("wd_full"))
    ).run(rd.from_arrow(pages).repartition(8), input_token="full")

    pipe = NearDupPipeline(cfg, work_dir=str(tmp_path_factory.mktemp("wd_incr")))
    baseA = pipe.run(rd.from_arrow(A).repartition(6), input_token="A")
    incr = pipe.run_incremental(
        rd.from_arrow(B).repartition(4), base=baseA, input_token="B"
    )

    def edge_set(res):
        rows = res.similarity().take_all()
        return {
            (min(r["src"], r["dst"]), max(r["src"], r["dst"]),
             round(r["distance"], 9))
            for r in rows
        }

    ef, ei = edge_set(full), edge_set(incr)
    assert ef, "fixture must contain similarity edges"
    assert ef == ei

    def comp_map(res):
        return {
            r["doc_id"]: r["component_id"]
            for r in res.connected_components().take_all()
        }

    assert comp_map(full) == comp_map(incr)
    # the increment actually reused A: its incremental docs stage only
    # processed B's rows
    n_b_docs = incr._docs.count() - baseA.docs().count()
    assert 0 < n_b_docs <= 360  # ~300 pages + synthetic dup planting


def test_split_scored_pairs_partition(ray_session):
    """The pair-keyed split behind the incremental path —
    reused == scores ∩ pairs (distances intact), to_verify == pairs
    with no score, scores outside the pair set dropped; robust to an
    empty side."""
    from fastdup_ray.pipelines.neardup import _split_scored_pairs

    pairs = rd.from_arrow(pa.table({
        "src": pa.array([1, 1, 2, 9], pa.int64()),
        "dst": pa.array([2, 3, 3, 9], pa.int64()),
    }))
    scores = rd.from_arrow(pa.table({
        "src": pa.array([1, 2, 7], pa.int64()),
        "dst": pa.array([2, 3, 8], pa.int64()),
        "distance": pa.array([0.9, 0.0, 0.5], pa.float64()),
    }))
    reused, to_verify = _split_scored_pairs(pairs, scores)
    got_r = sorted((r["src"], r["dst"], r["distance"])
                   for r in reused.take_all())
    # distance 0.0 is a legal score and must be REUSED, not re-verified
    assert got_r == [(1, 2, 0.9), (2, 3, 0.0)]
    got_v = sorted((r["src"], r["dst"]) for r in to_verify.take_all())
    assert got_v == [(1, 3), (9, 9)]  # (7,8) dropped: not re-emitted

    empty_scores = rd.from_arrow(pa.table({
        "src": pa.array([], pa.int64()),
        "dst": pa.array([], pa.int64()),
        "distance": pa.array([], pa.float64()),
    }))
    r2, v2 = _split_scored_pairs(pairs, empty_scores)
    assert r2.count() == 0 and v2.count() == pairs.count()


def test_incremental_exact_under_skew_cap(ray_session, tmp_path_factory):
    """With max_bucket_pairs forced tiny so the star cap engages, the
    increment must STILL equal the full run bit-for-bit (the union-bands
    emission makes identical capping choices)."""
    from fastdup_ray.pipelines.neardup import NearDupPipeline
    from fastdup_ray.sources.pages import synthesize_pages

    pages, _ = synthesize_pages(900, seed=23)
    A, B = pages.slice(0, 600), pages.slice(600)
    cfg = DedupConfig(max_bucket_pairs=2)  # every bucket >2 docs stars

    full = NearDupPipeline(
        cfg, work_dir=str(tmp_path_factory.mktemp("wd_full_cap"))
    ).run(rd.from_arrow(pages).repartition(8), input_token="full")

    pipe = NearDupPipeline(
        cfg, work_dir=str(tmp_path_factory.mktemp("wd_incr_cap")))
    baseA = pipe.run(rd.from_arrow(A).repartition(6), input_token="A")
    incr = pipe.run_incremental(
        rd.from_arrow(B).repartition(4), base=baseA, input_token="B")

    def edge_set(res):
        return {
            (min(r["src"], r["dst"]), max(r["src"], r["dst"]),
             round(r["distance"], 9))
            for r in res.similarity().take_all()
        }

    ef, ei = edge_set(full), edge_set(incr)
    assert ef and ef == ei

    def comp_map(res):
        return {r["doc_id"]: r["component_id"]
                for r in res.connected_components().take_all()}

    assert comp_map(full) == comp_map(incr)


def test_load_result_roundtrip(ray_session, tmp_path_factory):
    """load_result restores a finished run's tables and config from the
    work_dir alone, and the loaded result can seed run_incremental."""
    from fastdup_ray.pipelines.neardup import NearDupPipeline
    from fastdup_ray.sources.pages import synthesize_pages

    pages, _ = synthesize_pages(500, seed=3)
    A, B = pages.slice(0, 350), pages.slice(350)
    wd = str(tmp_path_factory.mktemp("wd_load"))
    pipe = NearDupPipeline(DedupConfig(), work_dir=wd)
    orig = pipe.run(rd.from_arrow(A).repartition(4), input_token="A")

    loaded = NearDupPipeline.load_result(wd)
    assert loaded.cfg.threshold == orig.cfg.threshold
    assert loaded.docs().count() == orig.docs().count()

    def edges(res):
        return {
            (min(r["src"], r["dst"]), max(r["src"], r["dst"]),
             round(r["distance"], 9))
            for r in res.similarity().take_all()
        }

    assert edges(loaded) == edges(orig)

    # loaded result seeds an increment identically to the live result
    pipe2 = NearDupPipeline(
        DedupConfig(), work_dir=str(tmp_path_factory.mktemp("wd_incr2"))
    )
    incr_live = pipe2.run_incremental(
        rd.from_arrow(B).repartition(3), base=orig, input_token="B"
    )
    pipe3 = NearDupPipeline(
        DedupConfig(), work_dir=str(tmp_path_factory.mktemp("wd_incr3"))
    )
    incr_loaded = pipe3.run_incremental(
        rd.from_arrow(B).repartition(3), base=loaded, input_token="B"
    )
    assert edges(incr_live) == edges(incr_loaded)


def test_load_result_ignores_config_keys_of_deleted_fields(ray_session, tmp_path_factory):
    """A work_dir whose manifests still snapshot config fields this
    version no longer has must load with the known fields intact."""
    from fastdup_ray.pipelines.neardup import NearDupPipeline
    from fastdup_ray.sources.pages import synthesize_pages

    pages, _ = synthesize_pages(200, seed=5)
    wd = str(tmp_path_factory.mktemp("wd_old_manifest"))
    cfg = DedupConfig(threshold=0.85)
    orig = NearDupPipeline(cfg, work_dir=wd).run(
        rd.from_arrow(pages).repartition(2), input_token="old")
    for stage in ("docs", "signatures", "pairs", "pair_scores", "components"):
        path = os.path.join(wd, stage, "manifest.json")
        with open(path) as fh:
            man = json.load(fh)
        man["config"].update(fused_extract_sign=True, cc_algorithm="label",
                             verify_index_shards=16, verify_broadcast_max_bytes=0,
                             signer="minhash", substring_anchor_mode="winnow",
                             substring_sample_mod=16, num_partitions=8,
                             cc_driver_max_edges=0, cc_max_rounds=5, hash_version=2)
        with open(path, "w") as fh:
            json.dump(man, fh)

    loaded = NearDupPipeline.load_result(wd)
    assert loaded.cfg == cfg
    assert loaded.summary() == orig.summary()


def test_load_result_rejects_work_dir_of_another_signer(tmp_path):
    """A work_dir signed by one-permutation hashing cannot seed MinHash
    increments: its signatures would be banded against MinHash ones, so
    loading it must fail instead of dropping the `signer` key."""
    from fastdup_ray.pipelines.neardup import NearDupPipeline

    snapshot = dict(DedupConfig().to_dict(), signer="oph")
    for stage in ("docs", "signatures", "pairs", "pair_scores", "components"):
        os.makedirs(tmp_path / stage)
        with open(tmp_path / stage / "manifest.json", "w") as fh:
            json.dump({"config": snapshot, "data_dir": "data"}, fh)

    with pytest.raises(ValueError, match="oph"):
        NearDupPipeline.load_result(str(tmp_path))


def test_load_result_rejects_work_dir_of_another_hash_version(tmp_path):
    """Doc ids and bucket keys of another string-hash version never
    match this version's, so a work_dir whose manifests record hash
    version 1 must not load and seed increments."""
    from fastdup_ray.pipelines.neardup import NearDupPipeline

    snapshot = dict(DedupConfig().to_dict(), hash_version=1)
    for stage in ("docs", "signatures", "pairs", "pair_scores", "components"):
        os.makedirs(tmp_path / stage)
        with open(tmp_path / stage / "manifest.json", "w") as fh:
            json.dump({"config": snapshot, "data_dir": "data"}, fh)

    with pytest.raises(ValueError, match="hash version 1"):
        NearDupPipeline.load_result(str(tmp_path))


def test_from_dict_ignores_deleted_fields():
    """A manifest config written while DedupConfig still had
    `extract_concurrency` or `checkpoint_stages` (JSON keeps a tuple as
    a list) loads with its other fields intact."""
    import dataclasses

    old = DedupConfig(threshold=0.85).to_dict()
    old["extract_concurrency"] = 4
    old["checkpoint_stages"] = ["docs", "pair_scores", "components"]
    assert DedupConfig.from_dict(old) == DedupConfig(threshold=0.85)
    names = {f.name for f in dataclasses.fields(DedupConfig)}
    assert not names & {"extract_concurrency", "checkpoint_stages"}
