"""SearchIndex actor, brute-force vs IVF ANN, dedup sink, CLI."""

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

import ray
import ray.data as rd

from fastdup_ray.config import DedupConfig
from fastdup_ray.sources.pages import synthesize_pages
from fastdup_ray.stages.extract import HtmlExtractStage
from fastdup_ray.stages.signatures import SignStage

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def corpus(ray_session):
    pages, truth = synthesize_pages(300, seed=42)
    cfg = DedupConfig()
    docs = rd.from_arrow(HtmlExtractStage(cfg.min_text_len)(pages)).materialize()
    sigs = docs.map_batches(SignStage(cfg), batch_format="pyarrow").materialize()
    return {"pages": pages, "truth": truth, "cfg": cfg, "docs": docs, "sigs": sigs}


def test_search_index_finds_near_dups(corpus):
    from fastdup_ray.state.search import build_search_index

    actor = build_search_index(corpus["sigs"], corpus["cfg"])
    stats = ray.get(actor.stats.remote())
    assert stats["n_docs"] == corpus["sigs"].count()

    # querying an indexed doc's own text returns itself at rank 1 with est 1.0
    texts = corpus["pages"]["text"].to_pylist()
    cls = corpus["truth"]["cls"].to_pylist()
    from fastdup_ray.functions.hashing import id63

    urls = corpus["pages"]["url"].to_pylist()
    ids = id63(urls)
    hits = 0
    for i in range(len(texts)):
        if cls[i] == "exact_dup" and texts[i]:
            res = ray.get(actor.query_text.remote(texts[i], k=5))
            top_ids = [d for d, _ in res]
            assert int(ids[i]) in top_ids
            assert res[0][1] == 1.0
            hits += 1
            if hits >= 5:
                break
    assert hits >= 5
    # a novel query returns [] or low-estimate hits only
    res = ray.get(actor.query_text.remote("zzz completely novel document xq " * 30, k=5))
    assert all(est < 0.5 for _, est in res)
    ray.kill(actor)


def test_ivf_recall_vs_brute_force(ray_session):
    from fastdup_ray.stages.ann import (
        brute_force_topk,
        ivf_assign,
        ivf_topk,
        train_ivf_centroids,
    )

    ds = rd.read_parquet(f"{SF_DIR}/embeddings.parquet").materialize()
    rows = sorted((r for r in ds.take_all() if r["vec_id"] < 5), key=lambda r: r["vec_id"])
    qids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    qm = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in rows])

    exact = brute_force_topk(ds, qids, qm, k=10).take_all()
    exact_sets = {}
    for r in exact:
        exact_sets.setdefault(r["query_id"], set()).add(r["neighbor_id"])

    cent = train_ivf_centroids(ds, n_centroids=16, seed=42)
    assigned = ivf_assign(ds, cent).materialize()
    approx = ivf_topk(assigned, cent, qids, qm, k=10, nprobe=6).take_all()
    approx_sets = {}
    for r in approx:
        approx_sets.setdefault(r["query_id"], set()).add(r["neighbor_id"])

    recalls = [
        len(exact_sets[q] & approx_sets.get(q, set())) / len(exact_sets[q])
        for q in exact_sets
    ]
    assert np.mean(recalls) >= 0.6, f"IVF recall {np.mean(recalls):.2f}"
    # determinism
    cent2 = train_ivf_centroids(ds, n_centroids=16, seed=42)
    np.testing.assert_array_equal(cent, cent2)


def test_dedup_sink(corpus, tmp_path):
    from fastdup_ray.pipelines.neardup import NearDupPipeline
    from fastdup_ray.pipelines.sinks import write_dedup_corpus

    pipe = NearDupPipeline(corpus["cfg"], work_dir=str(tmp_path / "wd"))
    res = pipe.run(rd.from_arrow(corpus["pages"]).repartition(4), input_token="sink-test")
    out = str(tmp_path / "out")
    summary = write_dedup_corpus(res, out)
    assert summary["docs_kept"] + summary["docs_dropped"] == summary["docs_in"]
    assert summary["docs_dropped"] > 0  # planted dups got dropped
    dedup = rd.read_parquet(os.path.join(out, "pages_dedup"))
    assert dedup.count() == summary["docs_kept"]
    # every component contributes exactly one kept doc
    kept_ids = {r["doc_id"] for r in dedup.take_all()}
    for row in res.keep_table().take_all():
        assert (row["doc_id"] in kept_ids) == bool(row["keep"])


def test_cli_end_to_end(tmp_path):
    """Drive the ray-job-submit entrypoint as a real subprocess."""
    import pyarrow.parquet as pq

    pages, _ = synthesize_pages(200, seed=7)
    inp = str(tmp_path / "pages.parquet")
    pq.write_table(pages, inp)
    env = dict(os.environ, PYTHONPATH="/root/repo", RAY_GRAFT_CPUS="4")
    proc = subprocess.run(
        [sys.executable, "-m", "fastdup_ray.cli", "run",
         "--input", inp, "--work-dir", str(tmp_path / "wd"),
         "--out", str(tmp_path / "out"), "--num-cpus", "4"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["total_docs"] == pages.num_rows
    assert summary["dedup"]["docs_kept"] > 0


def test_cli_yaml_config_spec(tmp_path):
    """S8 analog (reference __init__.py:305-329 yaml job spec): a YAML file
    carries input/work_dir plus DedupConfig fields; explicit flags override."""
    import pyarrow.parquet as pq

    pages, _ = synthesize_pages(120, seed=11)
    inp = str(tmp_path / "pages.parquet")
    pq.write_table(pages, inp)
    spec = tmp_path / "job.yaml"
    spec.write_text(
        "input: %s\nwork_dir: %s\nthreshold: 0.8\nmin_text_len: 25\n"
        % (inp, tmp_path / "wd")
    )
    env = dict(os.environ, PYTHONPATH="/root/repo", RAY_GRAFT_CPUS="4")
    proc = subprocess.run(
        [sys.executable, "-m", "fastdup_ray.cli", "run",
         "--config", str(spec), "--threshold", "0.85", "--num-cpus", "4"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["total_docs"] == pages.num_rows
    # the config snapshot in the manifest shows yaml fields applied and
    # the explicit flag winning over the file
    manifest = json.loads((tmp_path / "wd" / "docs" / "manifest.json").read_text())
    assert manifest["config"]["min_text_len"] == 25  # from yaml
    assert manifest["config"]["threshold"] == 0.85  # flag overrides yaml


def test_pinned_trainer_parallelism_invariant(ray_session):
    """train_ivf_centroids_pinned must yield bit-identical centroids at
    any block count (the per-block top-N prune + driver (hash, vec_id)
    ordering make the sample, init and every integer Lloyd step
    independent of partitioning) — the property its SQL twin relies on."""
    from fastdup_ray.stages.ann import train_ivf_centroids_pinned

    ds = rd.read_parquet(f"{SF_DIR}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    c1 = train_ivf_centroids_pinned(ds.repartition(1), 16)
    c8 = train_ivf_centroids_pinned(ds.repartition(8), 16)
    assert np.array_equal(c1, c8)
    # and a small sample budget exercises the per-block prune branch
    c_small_1 = train_ivf_centroids_pinned(ds.repartition(1), 8,
                                           sample_rows=64)
    c_small_8 = train_ivf_centroids_pinned(ds.repartition(8), 8,
                                           sample_rows=64)
    assert np.array_equal(c_small_1, c_small_8)


def test_kmeans_assignments(ray_session):
    from fastdup_ray.stages.ann import kmeans_assignments, train_ivf_centroids

    rng = np.random.default_rng(4)
    # two well-separated blobs
    a = rng.normal((5, 0, 0), 0.05, size=(20, 3))
    b = rng.normal((0, 5, 0), 0.05, size=(20, 3))
    vecs = np.vstack([a, b])
    tbl = pa.table(
        {
            "vec_id": pa.array(range(40), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float64())),
        }
    )
    ds = rd.from_arrow(tbl).materialize()
    cent = train_ivf_centroids(ds, n_centroids=2, sample_rows=40, seed=1)
    rows = kmeans_assignments(ds, cent).take_all()
    assert {r["vec_id"] for r in rows} == set(range(40))
    by_cluster = {}
    for r in rows:
        by_cluster.setdefault(r["cluster"], set()).add(r["vec_id"])
    # the two blobs separate perfectly
    assert sorted(len(v) for v in by_cluster.values()) == [20, 20]
    assert all(0 <= r["distance"] <= 1.0 for r in rows)
