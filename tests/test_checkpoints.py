"""The pipeline's checkpoint commit (one write task per block, one
manifest task after them): manifest figures match the files on disk,
resume reads every stage back (also a stage with zero rows), a failed
block write surfaces at flush_checkpoints with no manifest committed,
and a run after an aborted one resumes the stages it committed."""

import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from fastdup_ray.config import DedupConfig

STAGES = ("docs", "signatures", "pairs", "pair_scores", "components")


def _unreadable_pages():
    """A pages Dataset that fails if it is ever executed: a run over it
    can only finish when every stage resumes from its checkpoint."""
    def boom(batch):
        raise AssertionError("resume re-read the input pages")

    return rd.from_items([{"x": 1}]).map_batches(boom)


def _manifest(work_dir, stage):
    with open(os.path.join(work_dir, stage, "manifest.json")) as fh:
        return json.load(fh)


def _sorted_rows(ds, cols):
    return sorted(tuple(r[c] for c in cols) for r in ds.take_all())


def test_manifest_matches_files_and_resume_reads_stages_back(ray_session, tmp_path):
    from fastdup_ray.pipelines.neardup import NearDupPipeline
    from fastdup_ray.sources.pages import synthesize_pages

    pages, _ = synthesize_pages(300, seed=5)
    work = str(tmp_path / "wd")
    res = NearDupPipeline(DedupConfig(), work_dir=work).run(
        rd.from_arrow(pages).repartition(4), input_token="p300")
    assert res.pair_scores().count() > 0, "fixture must contain pairs"

    for stage in STAGES:
        man = _manifest(work, stage)
        data_dir = os.path.join(work, stage, man["data_dir"])
        assert sorted(os.listdir(data_dir)) == [f["file"] for f in man["files"]]
        for f in man["files"]:
            path = os.path.join(data_dir, f["file"])
            assert os.path.getsize(path) == f["bytes"]
            assert pq.ParquetFile(path).metadata.num_rows == f["rows"]
            assert f["rows"] > 0  # zero-row blocks are not written
        assert man["rows"] == sum(f["rows"] for f in man["files"])

    again = NearDupPipeline(DedupConfig(), work_dir=work).run(
        _unreadable_pages(), input_token="p300")
    assert again.summary() == res.summary()
    assert (_sorted_rows(again.pair_scores(), ["src", "dst", "distance"])
            == _sorted_rows(res.pair_scores(), ["src", "dst", "distance"]))
    assert (_sorted_rows(again.connected_components(), ["doc_id", "component_id"])
            == _sorted_rows(res.connected_components(), ["doc_id", "component_id"]))


def test_stage_with_zero_candidate_pairs_resumes(ray_session, tmp_path):
    """Pages with nothing in common: the pairs, pair_scores and
    components stages are empty, commit one typed zero-row file each,
    and a resumed run reads them back."""
    from fastdup_ray.pipelines.neardup import NearDupPipeline

    words = [f"w{i:04d}" for i in range(4000)]
    texts = [" ".join(words[i * 200:(i + 1) * 200]) for i in range(20)]
    pages = pa.table({
        "url": [f"https://site{i}.test/" for i in range(20)],
        "warc_ts": pa.array([0] * 20, pa.int64()),
        "html": pa.array([f"<html><body><p>{t}</p></body></html>".encode()
                          for t in texts], pa.binary()),
        "text": texts,
        "lang": ["en"] * 20,
    })
    work = str(tmp_path / "wd")
    res = NearDupPipeline(DedupConfig(), work_dir=work).run(
        rd.from_arrow(pages), input_token="distinct")
    assert res.pair_scores().count() == 0
    for stage in ("pairs", "pair_scores", "components"):
        man = _manifest(work, stage)
        assert man["rows"] == 0 and len(man["files"]) == 1

    again = NearDupPipeline(DedupConfig(), work_dir=work).run(
        _unreadable_pages(), input_token="distinct")
    assert again.summary() == res.summary()
    assert again._pairs.count() == 0
    assert set(again._pairs.schema().names) >= {"src", "dst"}


def test_failed_block_write_surfaces_at_flush_without_manifest(
        ray_session, tmp_path, monkeypatch):
    from fastdup_ray.pipelines import neardup
    from fastdup_ray.pipelines.neardup import NearDupPipeline
    from fastdup_ray.sources.pages import synthesize_pages

    write = neardup._write_block

    def failing_write(block, fs, path):
        if "/docs/" in path and path.endswith("part-00001.parquet"):
            raise OSError("injected write failure")
        if "/docs/" in path and path.endswith("part-00000.parquet"):
            time.sleep(3.0)  # outlasts the rest of the run
        return write(block, fs, path)

    monkeypatch.setattr(neardup, "_write_block", failing_write)
    pages, _ = synthesize_pages(200, seed=9)
    work = str(tmp_path / "wd")
    # small batches: the docs stage has several blocks
    pipe = NearDupPipeline(DedupConfig(batch_size=64), work_dir=work)
    with pytest.raises(RuntimeError, match="'docs'") as err:
        pipe.run(rd.from_arrow(pages).repartition(4), input_token="p200")
    assert "injected write failure" in repr(err.value.__cause__)
    # the other block writes of the stage ran to the end before the
    # failure surfaced; its manifest was not committed
    data_dirs = [d for d in os.listdir(os.path.join(work, "docs"))
                 if d.startswith("data-")]
    data_dir = os.path.join(work, "docs", data_dirs[0])
    assert os.path.exists(os.path.join(data_dir, "part-00000.parquet"))
    assert not os.path.exists(os.path.join(work, "docs", "manifest.json"))
    assert os.path.exists(os.path.join(work, "signatures", "manifest.json"))


def test_run_after_aborted_run_resumes_its_committed_stages(
        ray_session, tmp_path, monkeypatch):
    """A run that raises in the components stage leaves the commits of
    the stages before it pending; the next run on the same pipeline
    waits for them, resumes docs through pair_scores from their
    manifests and gives the result of a clean run."""
    from fastdup_ray.pipelines import neardup
    from fastdup_ray.pipelines.neardup import NearDupPipeline
    from fastdup_ray.sources.pages import synthesize_pages

    calls = []

    def flaky(ds):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("injected abort")
        return ds

    pages, _ = synthesize_pages(300, seed=5)
    work = str(tmp_path / "wd")
    pipe = NearDupPipeline(DedupConfig(), work_dir=work,
                           hooks={"pre_components": flaky}, hooks_token="v1")
    write = neardup._write_block

    def slow_write(block, fs, path):
        if "/pair_scores/" in path:
            time.sleep(2.0)  # still writing when the run aborts
        return write(block, fs, path)

    with monkeypatch.context() as m, pytest.raises(RuntimeError, match="injected abort"):
        m.setattr(neardup, "_write_block", slow_write)
        pipe.run(rd.from_arrow(pages).repartition(4), input_token="p300")
    assert not os.path.exists(os.path.join(work, "components", "manifest.json"))

    def rebuilt(*args, **kwargs):
        raise AssertionError("a committed stage was rebuilt")

    # every stage before components must resume from its manifest
    with monkeypatch.context() as m:
        for name in ("SignStage", "candidate_pairs", "verify_pairs"):
            m.setattr(neardup, name, rebuilt)
        again = pipe.run(_unreadable_pages(), input_token="p300")
    for stage in STAGES:
        assert _manifest(work, stage)["stage"] == stage

    clean = NearDupPipeline(
        DedupConfig(), work_dir=str(tmp_path / "clean"),
        hooks={"pre_components": lambda ds: ds}, hooks_token="v1",
    ).run(rd.from_arrow(pages).repartition(4), input_token="p300")
    assert again.summary() == clean.summary()
    assert (_sorted_rows(again.pair_scores(), ["src", "dst", "distance"])
            == _sorted_rows(clean.pair_scores(), ["src", "dst", "distance"]))
    assert (_sorted_rows(again.connected_components(), ["doc_id", "component_id"])
            == _sorted_rows(clean.connected_components(), ["doc_id", "component_id"]))
