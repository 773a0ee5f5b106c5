"""Ray Data executions per flagship operation.

Each execution has a fixed cost several times that of a plain task per
block (README, engine notes), so only the four stage maps run as Ray
Data executions: extract, sign, band and verify scoring. Every glue step between them runs as plain Ray
tasks on block refs. The bounds below are the counts at which that
holds; a change that adds an execution back fails here."""

import pyarrow as pa
import pytest
import ray.data as rd

from fastdup_ray.config import DedupConfig

# extract, sign, band, verify scoring
STAGE_MAPS = 4


@pytest.fixture
def executions(monkeypatch):
    """Operator names of every Ray Data execution started while the
    test runs (a computed plan's snapshot starts none)."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    started = []
    execute = StreamingExecutor.execute

    def counting_execute(self, dag, *args, **kwargs):
        started.append(dag.name)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting_execute)
    return started


@pytest.fixture(scope="module")
def corpus():
    from fastdup_ray.sources.pages import synthesize_pages

    pages, _ = synthesize_pages(300, seed=11)
    return pages.slice(0, 200), pages.slice(200)


def _operation(run) -> None:
    """`run()` and then what perfbench's operation reads of its result."""
    res = run()
    res.connected_components().count()
    res.docs().count()


def _pages(table: pa.Table):
    return rd.from_arrow(table).repartition(4)


def test_run_starts_one_execution_per_stage_map(ray_session, tmp_path, corpus,
                                                executions):
    from fastdup_ray.pipelines.neardup import NearDupPipeline

    pipe = NearDupPipeline(DedupConfig(), work_dir=str(tmp_path))
    _operation(lambda: pipe.run(_pages(corpus[0]), input_token="base"))
    assert len(executions) == STAGE_MAPS, executions


def test_run_incremental_starts_one_execution_per_stage_map(ray_session, tmp_path,
                                                            corpus, executions):
    from fastdup_ray.pipelines.neardup import NearDupPipeline

    base = NearDupPipeline(DedupConfig(), work_dir=str(tmp_path / "base")).run(
        _pages(corpus[0]), input_token="base")
    executions.clear()
    pipe = NearDupPipeline(DedupConfig(), work_dir=str(tmp_path / "incr"))
    _operation(lambda: pipe.run_incremental(_pages(corpus[1]), base=base,
                                            input_token="new"))
    assert len(executions) == STAGE_MAPS, executions


def test_lazy_pre_components_hook_costs_one_execution(ray_session, tmp_path, corpus,
                                                      executions):
    """A hook that returns a lazy Dataset is materialized once."""
    from fastdup_ray.pipelines.neardup import NearDupPipeline

    hooks = {"pre_components": lambda ds: ds.map_batches(lambda b: b,
                                                         batch_format="pyarrow")}
    pipe = NearDupPipeline(DedupConfig(), work_dir=str(tmp_path), hooks=hooks,
                           hooks_token="identity-map")
    _operation(lambda: pipe.run(_pages(corpus[0]), input_token="base"))
    assert len(executions) == STAGE_MAPS + 1, executions


def test_from_block_refs_matches_from_arrow_refs(ray_session, executions):
    """The Dataset `from_block_refs` builds from known metadata equals
    the one `ray.data.from_arrow_refs` builds, and building it, reading
    its blocks back (`materialized`, `nonempty_blocks`) and rebuilding
    from them start no Ray Data execution."""
    import ray

    from fastdup_ray.relational.ops import (
        block_meta,
        from_block_refs,
        materialized,
        nonempty_blocks,
    )

    tables = [pa.table({"a": pa.array([1, 2], pa.int64()), "b": pa.array(["x", "y"])}),
              pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.string())}),
              pa.table({"a": pa.array([3], pa.int64()), "b": pa.array(["z"])})]
    refs = [ray.put(t) for t in tables]
    built = from_block_refs([(r, block_meta(t)) for r, t in zip(refs, tables)])
    rebuilt = from_block_refs(nonempty_blocks(materialized(built)))
    assert executions == []
    reference = rd.from_arrow_refs(refs)
    assert built.schema() == reference.schema() == rebuilt.schema()
    assert (built.count(), built.num_blocks()) == (3, 3)
    assert (rebuilt.count(), rebuilt.num_blocks()) == (3, 2)
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}, {"a": 3, "b": "z"}]
    assert built.take_all() == rebuilt.take_all() == reference.take_all() == rows
