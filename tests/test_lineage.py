"""A worker killed mid-task is retried by Ray and the pipeline's output
is unchanged: the first attempt of one verify index build task and of
one exchange reduce task dies with `os._exit`, and in an increment, the
first attempt of one score-split reduce task and of one verify pack
task."""

import os

import ray.data as rd

from fastdup_ray.config import DedupConfig


def _die_on_first_attempt(fn, marker: str):
    """`fn` as a task body whose first attempt, across all tasks that run
    it, kills its worker process (the marker file makes it exactly one)."""
    def first_attempt_dies(*args, **kwargs):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return fn(*args, **kwargs)
        os._exit(1)

    return first_attempt_dies


def _outputs(res) -> dict:
    def rows(ds, cols):
        t = ds.to_pandas()
        return sorted(zip(*(t[c].tolist() for c in cols)))

    return {
        "docs": rows(res.docs(), ["doc_id", "url", "text"]),
        "signatures": rows(res.signatures(), ["doc_id", "simhash"]),
        "pair_scores": rows(res.pair_scores(), ["src", "dst", "distance"]),
        "components": rows(res.connected_components(), ["doc_id", "component_id"]),
    }


def test_killed_build_and_reduce_tasks_are_retried(ray_session, tmp_path, monkeypatch):
    from fastdup_ray.pipelines.neardup import NearDupPipeline
    from fastdup_ray.relational import ops
    from fastdup_ray.sources.pages import synthesize_pages
    from fastdup_ray.stages import verify

    pages, _ = synthesize_pages(300, seed=11)

    def run(tag):
        pipe = NearDupPipeline(DedupConfig(), work_dir=str(tmp_path / tag))
        return _outputs(pipe.run(rd.from_arrow(pages).repartition(4),
                                 input_token=tag))

    clean = run("clean")
    build_marker = str(tmp_path / "build.died")
    reduce_marker = str(tmp_path / "reduce.died")
    monkeypatch.setattr(verify, "_build_shard",
                        _die_on_first_attempt(verify._build_shard, build_marker))
    monkeypatch.setattr(ops, "_reduce_part",
                        _die_on_first_attempt(ops._reduce_part, reduce_marker))
    faulted = run("faulted")
    assert os.path.exists(build_marker) and os.path.exists(reduce_marker)
    assert faulted == clean
    assert clean["pair_scores"] and clean["components"]


def test_killed_split_and_pack_tasks_are_retried(ray_session, tmp_path, monkeypatch):
    from fastdup_ray.pipelines import neardup
    from fastdup_ray.sources.pages import synthesize_pages
    from fastdup_ray.stages import verify

    pages, _ = synthesize_pages(300, seed=11)
    base = neardup.NearDupPipeline(DedupConfig(), work_dir=str(tmp_path / "base")).run(
        rd.from_arrow(pages.slice(0, 200)).repartition(4), input_token="base")

    def run(tag):
        pipe = neardup.NearDupPipeline(DedupConfig(), work_dir=str(tmp_path / tag))
        return _outputs(pipe.run_incremental(
            rd.from_arrow(pages.slice(200)).repartition(4), base=base,
            input_token=tag))

    clean = run("clean")
    split_marker = str(tmp_path / "split.died")
    pack_marker = str(tmp_path / "pack.died")
    monkeypatch.setattr(neardup, "_split_part",
                        _die_on_first_attempt(neardup._split_part, split_marker))
    monkeypatch.setattr(verify, "_pack_endpoint_sets",
                        _die_on_first_attempt(verify._pack_endpoint_sets, pack_marker))
    faulted = run("faulted")
    assert os.path.exists(split_marker) and os.path.exists(pack_marker)
    assert faulted == clean
    assert clean["pair_scores"] and clean["components"]
