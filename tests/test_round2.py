"""Round-2 additions: own-code hash vectors, large-doc minhash, outlier
semantics, substring multi-run recall, classification report, sharded search,
vectorized stats parity, galleries, file:// work_dir."""

import numpy as np
import pyarrow as pa
import pytest

import ray
import ray.data as rd

from fastdup_ray.config import DedupConfig
from fastdup_ray.functions.hashing import hash64_strings, id63
from fastdup_ray.functions.minhash import MinHasher


# ------------------------------------------------------------------ hashing v2
def test_hash_v2_fixed_vectors():
    """Pins the own-code string hash forever — checkpointed doc_ids must
    never silently change (VERDICT r1 #10)."""
    vectors = {
        "": 7171347544907833250,
        "a": 1551166993505926438,
        "hello world": 4142144083479816312,
        "http://example.com/page?q=1": 5031823315010335016,
    }
    for s, expect in vectors.items():
        assert int(id63([s])[0]) == expect
    h = hash64_strings(list(vectors))
    for i, s in enumerate(vectors):
        assert int(hash64_strings([s])[0]) == int(h[i])  # batch-invariant
    assert all(int(x) != 0 for x in h)


def test_minhash_large_doc_over_chunk_budget():
    """ADVICE r1 (high): docs with > 65,536 shingles crashed the sign
    stage; now they sign correctly and batch-invariantly."""
    m = MinHasher()
    big = "abcdefghij" * 25_000  # ~250k shingles, far over the 32k budget
    small = "hello world this is a doc"
    sig, ns = m.signatures([small, big, big, small])
    assert ns[1] > 65_536
    assert (sig[1] == sig[2]).all() and (sig[0] == sig[3]).all()
    solo, _ = m.signatures([big])
    assert (solo[0] == sig[1]).all()


# ------------------------------------------------------- classification report
def test_classification_report(ray_session):
    from fastdup_ray.stages.metrics import classification_report

    preds = rd.from_arrow(
        pa.table(
            {
                "label": pa.array(["a", "a", "a", "b", "b", "c"]),
                "pred": pa.array(["a", "a", "b", "b", "a", "c"]),
            }
        )
    )
    rep = classification_report(preds).to_pandas().set_index("class")
    # hand-computed: a: tp=2 fp=1 fn=1 -> p=2/3 r=2/3; b: tp=1 fp=1 fn=1 -> .5/.5
    assert abs(rep.loc["a", "precision"] - 2 / 3) < 1e-6
    assert abs(rep.loc["a", "recall"] - 2 / 3) < 1e-6
    assert abs(rep.loc["b", "f1"] - 0.5) < 1e-6
    assert rep.loc["c", "precision"] == 1.0 and rep.loc["c", "support"] == 1
    assert abs(rep["accuracy"].iloc[0] - 4 / 6) < 1e-6


# -------------------------------------------------------------- search shards
def test_sharded_search_equals_single(ray_session):
    from fastdup_ray.sources.pages import synthesize_pages
    from fastdup_ray.stages.extract import HtmlExtractStage
    from fastdup_ray.stages.signatures import SignStage
    from fastdup_ray.state.search import build_search_index

    cfg = DedupConfig()
    pages, _ = synthesize_pages(300, seed=7)
    docs = rd.from_arrow(HtmlExtractStage(cfg.min_text_len)(pages))
    sigs = docs.map_batches(SignStage(cfg), batch_format="pyarrow").materialize()
    single = build_search_index(sigs, cfg)
    sharded = build_search_index(sigs, cfg, num_shards=4)
    texts = [r["text"] for r in docs.limit(10).take_all()]
    for t in texts:
        a = ray.get(single.query_text.remote(t, 5))
        b = sharded.query_text(t, 5)
        assert a == b, (a, b)
    st = sharded.stats()
    assert st["n_docs"] > 0 and len(st["shards"]) == 4


# -------------------------------------------------------------- stats parity
def test_stats_vectorized_matches_scalar_reference():
    from fastdup_ray.stages.stats import TextStatsStage

    st = TextStatsStage()
    rng = np.random.default_rng(11)
    words = ["the", "cat", "123", "ünïté", "于", "der", "la", "data", "of"]
    texts = ["", "  spaced   out  ", "这是中文测试" * 10, None, "x"]
    texts += [
        " ".join(rng.choice(words, size=rng.integers(0, 50)))
        for _ in range(150)
    ]
    batch = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = st(batch).to_pandas()
    names = ["n_chars", "n_tokens", "n_lines", "uniq_token_ratio",
             "mean_word_len", "digit_ratio", "non_ascii_ratio",
             "stopword_ratio", "lang_pred", "lang_score", "quality"]
    for i, t in enumerate(texts):
        ref = st._one(t or "")
        for j, nm in enumerate(names):
            got = out[nm][i]
            if isinstance(ref[j], str):
                assert got == ref[j], (i, nm)
            else:
                assert abs(float(got) - round(float(ref[j]), 6)) < 1e-9, (i, nm)


# ----------------------------------------------------- e2e: outliers+galleries
@pytest.fixture(scope="module")
def r2_run(ray_session, tmp_path_factory):
    from fastdup_ray.pipelines.neardup import NearDupPipeline
    from fastdup_ray.sources.pages import synthesize_pages

    pages, truth = synthesize_pages(600, seed=5)
    work = tmp_path_factory.mktemp("r2work")
    # file:// URI work_dir exercises the pyarrow.fs checkpoint path
    pipe = NearDupPipeline(DedupConfig(), work_dir=f"file://{work}")
    res = pipe.run(rd.from_arrow(pages).repartition(4), input_token="r2", resume=False)
    return {"res": res, "truth": truth, "work": str(work), "pipe": pipe}


def test_file_uri_workdir_and_resume(r2_run):
    import json
    import os

    work = r2_run["work"]
    man = json.load(open(os.path.join(work, "docs", "manifest.json")))
    assert man["rows"] > 0 and man["fingerprint"]
    assert os.path.isdir(os.path.join(work, "docs", man["data_dir"]))
    # resume through the file:// FS: same fingerprint -> checkpoint read
    # back without running the build
    from fastdup_ray.pipelines.neardup import NearDupPipeline

    pipe2 = NearDupPipeline(r2_run["pipe"].cfg, work_dir=f"file://{work}")

    def must_not_build():
        raise AssertionError("build must not run on resume")

    # run() keys the docs fingerprint on [input_token, hooks_token]
    ds, fp = pipe2._stage(
        "docs", ["r2", pipe2.hooks_token], must_not_build, resume=True)
    assert fp == man["fingerprint"]
    assert ds.count() == man["rows"]


def test_outliers_schema_and_zero_candidate_docs(r2_run):
    res = r2_run["res"]
    out = res.outliers().take_all()
    assert out, "outliers must not be empty on a corpus with unmatched docs"
    cols = set(out[0].keys())
    assert cols == {"src", "dst", "distance"}
    # zero-candidate docs present with null neighbor and distance 0
    unmatched = [r for r in out if r["dst"] is None]
    assert unmatched and all(r["distance"] == 0.0 for r in unmatched)
    # scored outliers keep their true nearest neighbor
    scored = [r for r in out if r["dst"] is not None]
    if scored:
        pairs = res.pair_scores().take_all()
        best = {}
        for p in pairs:
            for a, b in ((p["src"], p["dst"]), (p["dst"], p["src"])):
                cur = best.get(a)
                cand = (p["distance"], b)
                if cur is None or cand[0] > cur[0] or (
                    cand[0] == cur[0] and cand[1] < cur[1]
                ):
                    best[a] = cand
        for r in scored:
            assert best[r["src"]] == (r["distance"], r["dst"])


def test_galleries(r2_run, tmp_path):
    from fastdup_ray.pipelines.galleries import (
        components_gallery,
        duplicates_gallery,
        outliers_gallery,
        similarity_gallery,
        stats_gallery,
        write_all_galleries,
    )

    res = r2_run["res"]
    dup = duplicates_gallery(res, 10)
    assert len(dup) > 0 and (dup["distance"] >= 0.9).all()
    assert (dup["src_text"].str.len() > 0).all()
    # diff highlight: present for every row; empty exactly when the two
    # snippets agree byte-for-byte, '@<off>: ...' pinpointing otherwise
    assert "diff_snippet" in dup.columns
    same = dup["src_text"] == dup["dst_text"]
    assert (dup.loc[same, "diff_snippet"] == "").all()
    assert dup.loc[~same, "diff_snippet"].str.match(r"@\d+: ").all()
    comp = components_gallery(res, 10)
    assert len(comp) > 0 and (comp["len"] >= 2).all()
    outl = outliers_gallery(res, 10)
    assert len(outl) > 0
    stat = stats_gallery(res, "n_chars", 5)
    assert len(stat) == 5 and stat["n_chars"].is_monotonic_decreasing
    sim = similarity_gallery(res, 5)
    assert len(sim) > 0 and all(len(x) >= 1 for x in sim["neighbor_ids"])
    made = write_all_galleries(res, str(tmp_path / "gal"), num_rows=5)
    import os

    assert all(os.path.exists(p) for p in made.values())


def test_cosine_dup_pairs_exact_oracle(ray_session):
    """Blocked all-pairs embedding-cosine dedup == dense numpy oracle,
    including across-block pairs (forced small blocks)."""
    from fastdup_ray.stages.ann import cosine_dup_pairs

    rng = np.random.default_rng(7)
    n, d = 300, 16
    m = rng.normal(size=(n, d))
    # plant near-dup pairs well above the threshold
    m[250] = m[10] + rng.normal(scale=0.01, size=d)
    m[251] = m[20] * 3.0
    ds = rd.from_arrow(
        pa.table({
            "vec_id": pa.array(np.arange(n), pa.int64()),
            "embedding": pa.array([list(map(float, r)) for r in m],
                                  pa.list_(pa.float32())),
        })
    ).repartition(6)

    got = (
        cosine_dup_pairs(ds, threshold=0.6, min_block_rows=32)
        .to_pandas().sort_values(["src", "dst"]).reset_index(drop=True)
    )

    mf = m.astype(np.float32).astype(np.float64)
    mn = mf / np.linalg.norm(mf, axis=1, keepdims=True)
    sims = mn @ mn.T
    iu = np.triu_indices(n, k=1)
    keep = sims[iu] >= 0.6
    import pandas as pd
    want = pd.DataFrame({
        "src": iu[0][keep].astype(np.int64),
        "dst": iu[1][keep].astype(np.int64),
        "distance": np.round(sims[iu][keep], 6),
    }).sort_values(["src", "dst"]).reset_index(drop=True)

    assert len(want) >= 2          # the planted pairs are in range
    pd.testing.assert_frame_equal(got, want)


def test_text_embed_stage(ray_session):
    """M9 encoder: deterministic across runs/parallelism, near-identical
    texts close in cosine, unrelated texts far."""
    from fastdup_ray.stages.embed import embed_documents

    texts = [
        "the quick brown fox jumps over the lazy dog " * 20,
        "the quick brown fox jumps over the lazy dog " * 20 + "tail!",
        "completely different content about ray data pipelines " * 20,
        "",
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    out1 = embed_documents(rd.from_arrow(tbl).repartition(2), dim=32,
                           concurrency=2).to_pandas().sort_values("doc_id")
    out2 = embed_documents(rd.from_arrow(tbl), dim=32,
                           concurrency=1).to_pandas().sort_values("doc_id")
    m1 = np.stack(out1["embedding"].to_numpy())
    m2 = np.stack(out2["embedding"].to_numpy())
    assert m1.shape == (4, 32)
    np.testing.assert_array_equal(m1, m2)  # parallelism-invariant

    def cos(a, b):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        return float(a @ b / (na * nb)) if na and nb else 0.0

    assert cos(m1[0], m1[1]) > 0.99       # near-dup texts stay close
    assert cos(m1[0], m1[2]) < 0.8        # unrelated texts are far
    assert not m1[3].any()                # empty text -> zero vector


def test_pipeline_hooks(ray_session, tmp_path):
    """§2.12 extension hooks: post_extract runs inside the docs stage
    (and checkpoints with it), pre_components filters edges before CC,
    and the hooks token keys resume fingerprints."""
    import pyarrow.compute as pc

    from fastdup_ray.pipelines.neardup import NearDupPipeline
    from fastdup_ray.sources.pages import synthesize_pages

    pages, _ = synthesize_pages(200, seed=7)
    wd = str(tmp_path / "wd")

    def drop_fr(ds):
        return ds.map_batches(
            lambda b: b.filter(pc.not_equal(b["lang"], pa.scalar("fr"))),
            batch_format="pyarrow",
        )

    base = NearDupPipeline(DedupConfig(), work_dir=wd).run(
        rd.from_arrow(pages).repartition(4), input_token="hooks-t")
    n_base = base.docs().count()
    n_fr = base.docs().filter(lambda r: r["lang"] == "fr").count()

    hooked = NearDupPipeline(
        DedupConfig(), work_dir=wd, hooks={"post_extract": drop_fr},
    ).run(rd.from_arrow(pages).repartition(4), input_token="hooks-t")
    assert hooked.docs().count() == n_base - n_fr
    assert hooked.docs().filter(lambda r: r["lang"] == "fr").count() == 0
    # different hooks -> different fingerprint -> base checkpoint untouched
    again = NearDupPipeline(DedupConfig(), work_dir=wd).run(
        rd.from_arrow(pages).repartition(4), input_token="hooks-t")
    assert again.docs().count() == n_base

    # pre_components: drop every edge -> no components
    none = NearDupPipeline(
        DedupConfig(), work_dir=str(tmp_path / "wd2"),
        hooks={"pre_components": lambda ds: ds.limit(0)},
    ).run(rd.from_arrow(pages).repartition(4), input_token="hooks-t2")
    assert none.connected_components().count() == 0


def test_url_normalizers():
    """M11 normalizer library: canonical forms, domains, stems."""
    from fastdup_ray.functions.urls import domain_of, normalize_urls, path_stem

    urls = pa.array([
        "HTTPS://Example.COM:443//a//b/page.HTML?utm_source=x&id=3#frag",
        "http://site.org/path/",
        "site.org/bare?gclid=zz",
        "https://h.net/dir/file.tar.gz",
        "",
    ])
    norm = normalize_urls(urls).to_pylist()
    assert norm[0] == "https://example.com/a/b/page.HTML?id=3"
    assert norm[1] == "http://site.org/path"
    assert norm[2] == "site.org/bare"
    assert norm[4] == ""
    assert domain_of(urls).to_pylist()[:4] == [
        "example.com", "site.org", "site.org", "h.net"]
    assert path_stem(urls).to_pylist()[3] == "file.tar"


def test_snippet_diff_properties():
    """diff is '' iff the snippets are byte-equal; otherwise it names
    the first divergence offset."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from fastdup_ray.pipelines.galleries import _snippet_diff

    @settings(max_examples=80, deadline=None)
    @given(st.text(alphabet="abX ", max_size=12),
           st.text(alphabet="abX ", max_size=12))
    def run(a, b):
        d = _snippet_diff(a, b)
        if a == b:
            assert d == ""
        else:
            assert d.startswith("@")
            off = int(d[1:].split(":", 1)[0])
            assert a[:off] == b[:off]
            assert off == len(a) or off == len(b) or a[off] != b[off]

    run()
