"""Round-4b operators: SemDeDup, DSIR importance weights, PMI
collocations — planted-fixture semantics + parallelism invariance
(the SQL-twin equality tests live in test_queries.py::CHECKED)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray


def _emb_ds(vectors: np.ndarray):
    t = pa.table({
        "vec_id": pa.array(np.arange(len(vectors)), pa.int64()),
        "embedding": pa.array(
            [list(map(float, v)) for v in vectors],
            pa.list_(pa.float64()),
        ),
    })
    return ray.data.from_arrow(t)


def test_semdedup_keeps_one_per_group(ray_session):
    """Planted: ids 0-4 are tiny perturbations of one direction (a
    semantic-dup group), ids 5-9 orthogonal singletons. Exactly the min
    id of the group survives; singletons all survive."""
    from fastdup_ray.stages.semdedup import semdedup

    rng = np.random.default_rng(7)
    base = rng.normal(size=16)
    dup = np.stack([base + rng.normal(scale=1e-3, size=16) for _ in range(5)])
    singles = []
    for i in range(5):
        v = np.zeros(16)
        v[i] = 1.0
        v[15 - i] = -1.0 if i % 2 else 1.0
        singles.append(v)
    vecs = np.vstack([dup, np.stack(singles)])
    cent = np.stack([base / np.linalg.norm(base), np.eye(16)[0]])
    out = semdedup(_emb_ds(vecs), cent, threshold=0.9).to_pandas()
    out = out.sort_values("vec_id").reset_index(drop=True)
    assert len(out) == 10
    grp = out[out.vec_id < 5]
    assert (grp.rep_id == 0).all()
    assert grp.keep.tolist() == [True, False, False, False, False]
    # keep is True exactly where vec_id == rep_id
    assert (out.keep == (out.vec_id == out.rep_id)).all()
    # a representative's rep is itself (labels are resolved, not chained)
    rep_of = dict(zip(out.vec_id, out.rep_id))
    assert all(rep_of[r] == r for r in out.rep_id)


def _docs_ds(texts, sources=None):
    n = len(texts)
    cols = {
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }
    if sources is not None:
        cols["source"] = pa.array(sources, pa.string())
    return ray.data.from_arrow(pa.table(cols))


def test_dsir_prefers_target_like_docs(ray_session):
    """Docs written in the target slice's vocabulary must outscore docs
    written in the background vocabulary."""
    from fastdup_ray.stages.dsir import dsir_weights

    target_texts = ["alpha beta gamma alpha beta"] * 6
    background = ["delta epsilon zeta eta theta"] * 12
    probe_target_like = ["alpha gamma beta beta"]
    probe_background = ["zeta eta delta delta"]
    texts = target_texts + background + probe_target_like + probe_background
    docs = _docs_ds(texts)
    target = _docs_ds(target_texts)
    out = dsir_weights(docs, target, vocab_k=64).to_pandas()
    out = out.set_index("doc_id")["dsir_logratio"]
    n = len(texts)
    assert out[n - 2] > 0 > out[n - 1]
    # every pure-target doc outscores every pure-background doc
    assert out[:6].min() > out[6:18].max()


def test_dsir_rejects_reserved_tokens(ray_session):
    from fastdup_ray.stages.dsir import dsir_weights

    docs = _docs_ds(["regular text", "<unk> appears here"])
    with pytest.raises(ValueError, match="<unk>"):
        dsir_weights(docs, docs, vocab_k=8).to_pandas()


def test_pmi_planted_collocation_tops(ray_session):
    """A bigram that ALWAYS co-occurs ('san francisco', 8 times) beats
    frequent-but-independent word pairs."""
    from fastdup_ray.stages.lm import pmi_collocations

    rng = np.random.default_rng(3)
    filler = ["the", "a", "of", "data", "query", "row", "table", "scan"]
    texts = []
    for i in range(8):
        words = list(rng.choice(filler, size=10))
        words.insert(int(rng.integers(0, 10)), "san francisco")
        texts.append(" ".join(words))
    # more filler-only docs so filler pairs get frequency without cohesion
    for _ in range(20):
        texts.append(" ".join(rng.choice(filler, size=12)))
    out = pmi_collocations(_docs_ds(texts), vocab_k=64, min_count=5,
                           k=10).to_pandas()
    assert out.iloc[0].w1 == "san" and out.iloc[0].w2 == "francisco"
    assert out.iloc[0].cnt == 8
    # deterministic ordering contract: pmi desc then lexical
    pmis = out.pmi.to_numpy()
    assert (np.diff(pmis) <= 0).all()


def test_misra_gries_bounds(ray_session):
    """Small capacity on a skewed stream: every estimate is a lower
    bound within N/(cap+1); every key with true frequency above the
    bound is guaranteed present (Misra-Gries 1982 / Agarwal 2012)."""
    from fastdup_ray.stages.sketches import misra_gries_counts

    rng = np.random.default_rng(5)
    # zipf-ish: key i appears ~ 4000/i times
    keys = np.concatenate(
        [np.repeat(f"k{i}", 4000 // i) for i in range(1, 200)]
    )
    rng.shuffle(keys)
    texts = [" ".join(keys[s:s + 97]) for s in range(0, len(keys), 97)]
    ds = _docs_ds(texts).repartition(16)

    from fastdup_ray.stages.lm import _token_regions

    def to_keys(t):
        _, _, flat = _token_regions(t)
        return flat

    cap = 64
    est_k, est_c, n, err = misra_gries_counts(ds, to_keys, capacity=cap)
    assert n == len(keys)
    assert len(est_k) <= cap
    assert err <= n / (cap + 1)
    true = pd.Series(keys).value_counts()
    est = dict(zip(est_k, est_c))
    for key, c_hat in est.items():
        assert c_hat <= true[key] <= c_hat + err + 1e-9
    # guaranteed presence of genuinely heavy keys
    for key, c_true in true.items():
        if c_true > n / (cap + 1):
            assert key in est, f"heavy key {key} ({c_true}) missing"


def test_misra_gries_exact_and_split_invariant(ray_session):
    """capacity >= distinct keys -> exact counts, identical at any block
    split (the property the heavy_hitters SQL twin relies on)."""
    from fastdup_ray.stages.lm import _token_regions
    from fastdup_ray.stages.sketches import misra_gries_counts

    rng = np.random.default_rng(9)
    words = [f"w{i}" for i in range(300)]
    texts = [" ".join(rng.choice(words, size=50)) for _ in range(40)]

    def to_keys(t):
        _, _, flat = _token_regions(t)
        return flat

    outs = []
    for parts in (1, 13):
        ds = _docs_ds(texts).repartition(parts)
        k, c, n, err = misra_gries_counts(ds, to_keys, capacity=4096)
        assert err == 0.0
        outs.append(pd.Series(c, index=k).sort_index())
    pd.testing.assert_series_equal(outs[0], outs[1])
    true = pd.Series(
        np.concatenate([t.split(" ") for t in texts])
    ).value_counts().sort_index()
    assert (outs[0] == true).all()


def test_nb_classifier_separates_planted_classes(ray_session):
    """Two vocabularies, two labels: held-in docs classify to their own
    label; a mixed doc goes to the class whose words dominate it."""
    from fastdup_ray.stages.nbayes import nb_classify

    a = ["apple banana cherry apple banana"] * 8
    b = ["rock stone boulder pebble gravel"] * 8
    mixed_a = ["apple banana rock apple cherry"]   # 4 A-words, 1 B-word
    texts = a + b + mixed_a
    sources = ["A"] * 8 + ["B"] * 8 + ["B"]  # mislabeled on purpose
    out = nb_classify(_docs_ds(texts, sources), label_col="source",
                      vocab_k=64).to_pandas().set_index("doc_id")
    assert (out.loc[:7, "pred"] == "A").all()
    assert (out.loc[8:15, "pred"] == "B").all()
    # the mislabeled mixed doc is recovered as A by content
    assert out.loc[16, "pred"] == "A"
    assert np.isfinite(out.score).all()
