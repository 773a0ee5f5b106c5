"""A worker killed mid-task is retried by Ray and the pipeline's output
is unchanged: the first attempt of one verify index build task and of
one exchange reduce task dies with `os._exit`; in an increment, the
first attempt of one score-split reduce task and of one verify endpoint-filter
task; and in a left_outer `hash_join` through the exchange, the first
attempt of one two-input reduce task."""

import os

import ray
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
    monkeypatch.setattr(neardup, "_reuse_or_verify",
                        _die_on_first_attempt(neardup._reuse_or_verify, split_marker))
    monkeypatch.setattr(verify, "_endpoint_sets",
                        _die_on_first_attempt(verify._endpoint_sets, pack_marker))
    faulted = run("faulted")
    assert os.path.exists(split_marker) and os.path.exists(pack_marker)
    assert faulted == clean
    assert clean["pair_scores"] and clean["components"]


def test_killed_join_reduce_task_is_retried(ray_session, tmp_path, monkeypatch):
    import pyarrow as pa

    from fastdup_ray.relational import ops

    monkeypatch.setattr(ops, "_BROADCAST_ROWS", 0)  # the exchange plan
    n = 400
    left = pa.table({"k": pa.array([i % 53 for i in range(n)], pa.int64()),
                     "lv": pa.array(range(n), pa.int64())})
    right = pa.table({"rk": pa.array(range(0, 80, 2), pa.int64()),
                      "rl": pa.array([[i, i + 1] for i in range(40)], pa.list_(pa.int64()))})

    def join():
        out = ops.hash_join(
            rd.from_arrow([left.slice(i, 100) for i in range(0, n, 100)]),
            rd.from_arrow([right.slice(0, 25), right.slice(25)]),
            on="k", right_on="rk", join_type="left_outer",
        ).to_arrow_refs()
        t = pa.concat_tables(ray.get(out))
        return sorted(zip(*(t[c].to_pylist() for c in ("k", "lv", "rl"))), key=repr)

    clean = join()
    marker = str(tmp_path / "join.died")
    monkeypatch.setattr(ops, "_reduce_part",
                        _die_on_first_attempt(ops._reduce_part, marker))
    faulted = join()
    assert os.path.exists(marker)
    assert faulted == clean
    assert len(clean) == n and any(r[2] is None for r in clean)
