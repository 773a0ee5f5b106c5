"""Round-3 additions: ADVICE r2 bug fixes + VERDICT r2 next-round items."""

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd

from fastdup_ray.config import DedupConfig


# ---------------------------------------------------------------- ADVICE r2
def test_normalize_urls_scheme_aware_ports(ray_session):
    from fastdup_ray.functions.urls import normalize_urls

    urls = pa.array(
        [
            "http://h.com:80/x",     # default port for scheme -> stripped
            "https://h.com:443/x",   # default port for scheme -> stripped
            "http://h.com:443/x",    # NOT the scheme default -> kept
            "https://h.com:80/x",    # NOT the scheme default -> kept
            "h.com:80/x",            # schemeless defaults to http -> stripped
            "h.com:443/x",           # schemeless -> :443 kept
        ]
    )
    out = normalize_urls(urls).to_pylist()
    assert out == [
        "http://h.com/x",
        "https://h.com/x",
        "http://h.com:443/x",
        "https://h.com:80/x",
        "h.com/x",
        "h.com:443/x",
    ]


# ------------------------------------------------ search index persistence
def test_search_index_persist_and_reload(ray_session, tmp_path):
    """VERDICT r2 #3: save the CSR arrays, kill the actors, reload —
    identical query results. Also exercises the distributed map_batches
    ingest path (no driver-side iter_batches loop)."""
    from fastdup_ray.sources.pages import synthesize_pages
    from fastdup_ray.stages.extract import HtmlExtractStage
    from fastdup_ray.stages.signatures import SignStage
    from fastdup_ray.state.search import (
        ShardedSearchIndex,
        build_search_index,
        load_search_index,
        save_search_index,
    )

    pages, truth = synthesize_pages(200, seed=7)
    cfg = DedupConfig()
    docs = rd.from_arrow(HtmlExtractStage(cfg.min_text_len)(pages)).repartition(4)
    sigs = docs.map_batches(SignStage(cfg), batch_format="pyarrow").materialize()

    queries = [t for t in pages["text"].to_pylist() if t][:8]
    for shards in (1, 4):
        idx = build_search_index(sigs, cfg, num_shards=shards)
        if shards == 1:
            before = [ray.get(idx.query_text.remote(q, k=5)) for q in queries]
            n_before = ray.get(idx.stats.remote())["n_docs"]
        else:
            before = [idx.query_text(q, k=5) for q in queries]
            n_before = idx.stats()["n_docs"]
        assert n_before == sigs.count()
        d = str(tmp_path / f"searchidx_{shards}")
        save_search_index(idx, d)
        # kill every actor: the reload must not depend on live state
        actors = idx.actors if isinstance(idx, ShardedSearchIndex) else [idx]
        for a in actors:
            ray.kill(a)
        reloaded = load_search_index(d)
        if shards == 1:
            after = [ray.get(reloaded.query_text.remote(q, k=5)) for q in queries]
        else:
            assert reloaded.num_shards == shards
            after = [reloaded.query_text(q, k=5) for q in queries]
        assert after == before
        racts = (
            reloaded.actors if isinstance(reloaded, ShardedSearchIndex)
            else [reloaded]
        )
        for a in racts:
            ray.kill(a)


def test_combine_aggregate_matches_pandas(ray_session):
    """Map-side combiner + tree-reduce == plain pandas groupby, across
    many blocks so the merge tree actually runs."""
    import pandas as pd

    from fastdup_ray.relational.ops import combine_aggregate

    rng = np.random.default_rng(7)
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 37, size=5000),
            "v": rng.integers(-100, 100, size=5000),
        }
    )
    ds = rd.from_pandas(df).repartition(23)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("k", as_index=False, sort=False).agg(
            s=("v", "sum"), n=("v", "size")
        )

    got = (
        combine_aggregate(ds, "k", partial)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = (
        df.groupby("k", as_index=False).agg(s=("v", "sum"), n=("v", "size"))
        .sort_values("k")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_combine_aggregate_custom_merge_minmax(ray_session):
    import pandas as pd

    from fastdup_ray.relational.ops import combine_aggregate

    df = pd.DataFrame({"k": [0, 0, 1, 1, 1], "v": [5, -3, 10, 2, 7]})
    ds = rd.from_pandas(df).repartition(3)

    def partial(b):
        return b.groupby("k", as_index=False, sort=False).agg(
            mn=("v", "min"), mx=("v", "max")
        )

    def merge(b):
        return b.groupby("k", as_index=False, sort=False).agg(
            mn=("mn", "min"), mx=("mx", "max")
        )

    got = combine_aggregate(ds, "k", partial, merge).to_pandas()
    got = got.sort_values("k").reset_index(drop=True)
    assert got["mn"].tolist() == [-3, 2]
    assert got["mx"].tolist() == [5, 10]


def test_srp_lsh_recall_vs_exact(ray_session):
    """SRP-LSH + exact rescore vs the blocked all-pairs baseline:
    precision must be 1.0 with identical distances (every candidate is
    rescored from the real vectors); recall >= 0.95 at cos >= 0.9."""
    import pandas as pd

    from fastdup_ray.stages.ann import cosine_dup_pairs, srp_lsh_dup_pairs

    rng = np.random.default_rng(3)
    d = 64
    base = rng.standard_normal((40, d))
    rows = []
    vid = 0
    for c in range(40):
        # a planted cluster: 3 near-identical variants of each base vector
        for _ in range(3):
            v = base[c] + rng.standard_normal(d) * 0.08
            rows.append({"vec_id": vid, "embedding": v.astype(np.float32).tolist()})
            vid += 1
    # background noise vectors (pairwise near-orthogonal w.h.p.)
    for _ in range(200):
        rows.append({
            "vec_id": vid,
            "embedding": rng.standard_normal(d).astype(np.float32).tolist(),
        })
        vid += 1
    ds = rd.from_pandas(pd.DataFrame(rows)).repartition(8).materialize()

    exact = cosine_dup_pairs(ds, threshold=0.9).to_pandas()
    lsh = srp_lsh_dup_pairs(ds, threshold=0.9).to_pandas()

    ek = set(zip(exact["src"], exact["dst"]))
    lk = set(zip(lsh["src"], lsh["dst"]))
    assert len(ek) >= 40  # the fixture actually planted near-dups
    assert lk <= ek  # precision 1.0: every LSH pair is a true pair
    recall = len(lk & ek) / len(ek)
    assert recall >= 0.95, f"recall {recall:.3f} over {len(ek)} true pairs"
    # distances are the SAME exact cosine on both paths
    em = {(s, t): x for s, t, x in zip(exact["src"], exact["dst"], exact["distance"])}
    for s, t, x in zip(lsh["src"], lsh["dst"], lsh["distance"]):
        assert abs(em[(s, t)] - x) < 1e-9


def test_leakage_safe_split_invariants(ray_session):
    """No component straddles train/test; expected test fraction ~=
    test_mod/mod for uniform-hash component ids."""
    import pandas as pd

    from fastdup_ray.stages.splits import leakage_safe_split

    rng = np.random.default_rng(17)
    # component ids that look like doc ids: uniform 63-bit hashes
    comp_ids = rng.integers(0, 2**63 - 1, 500)
    rows = []
    did = 0
    for c in comp_ids:
        for _ in range(int(rng.integers(1, 5))):
            rows.append({"doc_id": did, "component_id": int(c)})
            did += 1
    ds = rd.from_pandas(pd.DataFrame(rows)).repartition(7)

    out = leakage_safe_split(ds).to_pandas()
    assert set(out["split"].unique()) <= {"train", "test"}
    # every component entirely on one side
    sides = out.groupby("component_id")["split"].nunique()
    assert (sides == 1).all()
    # expected fraction 0.2 of COMPONENTS, tolerance for 500 draws
    frac = (
        out.drop_duplicates("component_id")["split"].eq("test").mean()
    )
    assert 0.1 < frac < 0.3, frac


def test_srp_lsh_recall_at_scale_random_ids(ray_session):
    """The code-review repro: thousands of vectors with planted near-dup
    pairs at RANDOM id positions (so star-capped hot buckets can't cover
    them by luck). Adaptive band geometry must keep recall >= 0.95."""
    import pandas as pd

    from fastdup_ray.stages.ann import cosine_dup_pairs, srp_lsh_dup_pairs

    rng = np.random.default_rng(29)
    d = 64
    n_noise = 12_000
    n_pairs = 100
    vecs = [rng.standard_normal(d) for _ in range(n_noise)]
    for _ in range(n_pairs):
        a = rng.standard_normal(d)
        vecs.append(a)
        vecs.append(a + rng.standard_normal(d) * 0.05)
    ids = rng.permutation(len(vecs))  # planted pairs NOT at min ids
    df = pd.DataFrame({
        "vec_id": ids,
        "embedding": [v.astype(np.float32).tolist() for v in vecs],
    })
    ds = rd.from_pandas(df).repartition(16).materialize()

    exact = cosine_dup_pairs(ds, threshold=0.9).to_pandas()
    lsh = srp_lsh_dup_pairs(ds, threshold=0.9).to_pandas()
    ek = set(zip(exact["src"], exact["dst"]))
    lk = set(zip(lsh["src"], lsh["dst"]))
    assert len(ek) >= n_pairs * 0.9  # the planting worked
    assert lk <= ek
    recall = len(lk & ek) / len(ek)
    assert recall >= 0.95, f"recall {recall:.3f} over {len(ek)} true pairs"
