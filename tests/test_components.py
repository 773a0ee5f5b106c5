"""Connected components: the driver min-label route, star contraction
(the distributed route) and the dispatch between them; and pagerank,
which picks its driver route by the same edge bound."""

import numpy as np
import pyarrow as pa
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_refs import union_find_oracle


def _edges_table(pairs):
    src, dst = zip(*pairs) if pairs else ((), ())
    return rd.from_arrow(
        pa.table({"src": pa.array(src, pa.int64()),
                  "dst": pa.array(dst, pa.int64())})
    ).repartition(4)


def test_star_contraction_matches_union_find(ray_session):
    """connected_components_star == union-find oracle on random graphs
    (several densities/seeds), including duplicate and reversed edges."""
    from fastdup_ray.stages.components import connected_components_star

    for seed, n, m in [(0, 50, 40), (1, 200, 150), (2, 300, 600)]:
        rng = np.random.default_rng(seed)
        ids = rng.choice(10_000_000, size=n, replace=False).astype(np.int64)
        pairs = [(int(ids[rng.integers(n)]), int(ids[rng.integers(n)]))
                 for _ in range(m)]
        pairs = [(a, b) for a, b in pairs if a != b]
        pairs += [(b, a) for a, b in pairs[: m // 4]]  # reversed dups
        expect = union_find_oracle(pairs)
        got = connected_components_star(_edges_table(pairs)).to_pandas()
        got_map = dict(zip(got["node"], got["label"]))
        assert got_map == expect, f"seed={seed}"


def test_star_contraction_log_rounds_on_path_graph(ray_session):
    """The scale property that motivates star contraction: a path graph
    of diameter n-1 (the worst case for any route whose round count
    grows with diameter, such as min-label propagation) converges in
    O(log n) alternating rounds."""
    from fastdup_ray.stages.components import connected_components_star

    n = 2048
    rng = np.random.default_rng(7)
    ids = rng.permutation(np.arange(1, 10 * n, 5))[:n].astype(np.int64)
    pairs = [(int(ids[i]), int(ids[i + 1])) for i in range(n - 1)]
    stats = {}
    got = connected_components_star(_edges_table(pairs), stats=stats).to_pandas()
    expect = union_find_oracle(pairs)
    assert dict(zip(got["node"], got["label"])) == expect
    # one component; all labels = global min
    assert set(got["label"]) == {min(min(p) for p in pairs)}
    # log2(2048) = 11; alternating star contraction halves star depth
    # per round — allow a small constant on top
    assert stats["rounds"] <= 18, stats


def test_cc_distributed_dispatch_and_empty(ray_session, monkeypatch):
    """Above _DRIVER_MAX_EDGES, connected_components runs star
    contraction; at or below it the driver min-label route; both give the
    oracle's labels. Empty edge sets are fine."""
    from fastdup_ray.stages import components
    from fastdup_ray.stages.components import (
        connected_components, connected_components_star)

    pairs = [(1, 2), (2, 3), (10, 11), (5, 1)]
    calls = []

    def spy(edges):
        calls.append(1)
        return connected_components_star(edges)

    monkeypatch.setattr(components, "connected_components_star", spy)
    for bound, route in ((0, [1]), (components._DRIVER_MAX_EDGES, [])):
        calls.clear()
        monkeypatch.setattr(components, "_DRIVER_MAX_EDGES", bound)
        got = connected_components(_edges_table(pairs)).to_pandas()
        assert calls == route
        assert dict(zip(got["node"], got["label"])) == union_find_oracle(pairs)

    empty = connected_components_star(_edges_table([]))
    # NB: Dataset.to_pandas() drops columns on zero-row blocks, so
    # assert on the Dataset schema (the library surface)
    assert empty.count() == 0
    assert [f.name for f in empty.schema().base_schema] == ["node", "label"]


@st.composite
def _graphs(draw):
    """(node ids, edge list): random multigraphs with self-loops, path
    chains of diameter n-1 over permuted ids, or no edges at all."""
    n = draw(st.integers(1, 60))
    ids = draw(st.lists(st.integers(-(2**62), 2**62), min_size=n, max_size=n,
                        unique=True))
    shape = draw(st.sampled_from(["random", "path", "empty"]))
    if shape == "empty":
        return ids, []
    if shape == "path":
        order = draw(st.permutations(range(n)))
        return ids, [(ids[a], ids[b]) for a, b in zip(order, order[1:])]
    idx = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(idx, idx), max_size=3 * n))
    return ids, [(ids[a], ids[b]) for a, b in edges]


@settings(max_examples=200, deadline=None)
@given(_graphs())
def test_min_label_components_matches_union_find(graph):
    """The numpy hook-and-jump kernel labels every endpoint with its
    component's minimum id, exactly as the dict union-find oracle does —
    on random graphs with self-loops and duplicate edges, on long path
    chains and on the empty graph."""
    from fastdup_ray.stages.components import min_label_components

    _, pairs = graph
    src = np.array([a for a, _ in pairs], np.int64)
    dst = np.array([b for _, b in pairs], np.int64)
    nodes, idx = np.unique(np.concatenate([src, dst]), return_inverse=True)
    lab = min_label_components(nodes.shape[0], idx[: src.shape[0]],
                               idx[src.shape[0]:])
    assert dict(zip(nodes.tolist(), nodes[lab].tolist())) == union_find_oracle(pairs)


@settings(max_examples=15, deadline=None)
@given(_graphs())
def test_driver_cc_route_matches_union_find(ray_session, graph):
    """connected_components below _DRIVER_MAX_EDGES == the union-find
    oracle over the non-self-loop edges, with rows sorted by node."""
    from fastdup_ray.stages.components import connected_components

    _, pairs = graph
    got = connected_components(_edges_table(pairs))
    expect = union_find_oracle([(a, b) for a, b in pairs if a != b])
    rows = got.take_all()
    assert [r["node"] for r in rows] == sorted(expect)
    assert {r["node"]: r["label"] for r in rows} == expect
    assert [f.name for f in got.schema().base_schema] == ["node", "label"]


def test_pagerank_matches_dense_reference(ray_session, monkeypatch):
    from fastdup_ray.stages import components
    from fastdup_ray.stages.pagerank import pagerank

    # planted graph: triangle (1,2,3) + edge (4,5), node ids arbitrary
    edges = pa.table(
        {
            "src": pa.array([10, 10, 20, 40], pa.int64()),
            "dst": pa.array([20, 30, 30, 50], pa.int64()),
        }
    )
    ds = rd.from_arrow(edges)
    out = {r["node"]: r for r in pagerank(ds, iters=10).take_all()}
    # dense numpy reference on the symmetrized graph
    nodes = [10, 20, 30, 40, 50]
    idx = {n: i for i, n in enumerate(nodes)}
    adj = np.zeros((5, 5))
    for s, t in [(10, 20), (10, 30), (20, 30), (40, 50)]:
        adj[idx[s], idx[t]] = adj[idx[t], idx[s]] = 1
    deg = adj.sum(1)
    pr = np.full(5, 1 / 5)
    for _ in range(10):
        pr = (1 - 0.85) / 5 + 0.85 * adj.T @ (pr / deg)
    for n in nodes:
        assert abs(out[n]["pagerank"] - pr[idx[n]]) < 1e-9
        assert out[n]["degree"] == int(deg[idx[n]])

    # distributed path gives identical results
    monkeypatch.setattr(components, "_DRIVER_MAX_EDGES", 0)
    out2 = {r["node"]: r for r in pagerank(ds, iters=10).take_all()}
    for n in nodes:
        assert abs(out2[n]["pagerank"] - out[n]["pagerank"]) < 1e-9
        assert out2[n]["degree"] == out[n]["degree"]
