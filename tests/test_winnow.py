"""Winnowing fingerprints (stages/winnow.py): kernel vs brute-force
oracle, the SIGMOD'03 substring-match guarantee, DuckDB SQL-twin parity,
the Ray pair-counting path, and the winnow-anchored exact-substring
stage (stages/substring.py)."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from fastdup_ray.config import DedupConfig

from fastdup_ray.stages.winnow import (
    _winnow_batch,
    winnow_fingerprints,
    winnow_pair_counts,
    winnow_positions,
)
from fastdup_ray.pipelines.sql_hash import (
    sql_winnow_dup_pairs,
    sql_winnow_fingerprints,
)

K, W = 5, 8


def ref_winnow(h, w):
    """Brute-force reference: per window, min hash, rightmost tie."""
    m = len(h)
    if m == 0:
        return []
    w_eff = min(w, m)
    sel = set()
    for s in range(m - w_eff + 1):
        window = list(h[s:s + w_eff])
        mn = min(window)
        sel.add(max(i for i in range(s, s + w_eff) if h[i] == mn))
    return sorted(sel)


def test_winnow_positions_vs_bruteforce():
    rng = np.random.default_rng(7)
    for m in [0, 1, 2, 5, 7, 8, 9, 20, 100, 301]:
        for w in [1, 2, 4, 8, 16]:
            # tiny value range forces plenty of ties
            h = rng.integers(0, 5, size=m).astype(np.uint32)
            got = winnow_positions(h, w).tolist()
            assert got == ref_winnow(h, w), (m, w, h.tolist())


def test_winnow_density_and_guarantee():
    rng = np.random.default_rng(11)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "kappa"]
    base = " ".join(rng.choice(words, size=80))
    # t = W + K - 1 byte guarantee window
    shared = "qwertyuiopasdfghjkl"          # 19 bytes > 12
    a = base[:100] + shared + base[100:]
    b = "".join(rng.choice(list("abcdefgh "), size=90)) + shared

    tbl = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                    "text": pa.array([a, b], pa.string())})
    out = _winnow_batch(tbl, k=K, w=W, text_col="text")
    fp_a = set(out.filter(pa.compute.equal(out["doc_id"], 1))["fp"].to_pylist())
    fp_b = set(out.filter(pa.compute.equal(out["doc_id"], 2))["fp"].to_pylist())
    assert fp_a & fp_b, "docs sharing a >= w+k-1 substring must share a fingerprint"
    # density ~ 2/(w+1): loose sanity bounds
    n_grams = len(a.encode()) - K + 1
    assert 0.05 * n_grams < len(fp_a) < 0.6 * n_grams


def _ascii_docs(n=20, seed=3):
    rng = np.random.default_rng(seed)
    vocab = ["scan", "join", "merge", "sort", "filter", "spark", "table",
             "row", "key", "hash"]
    texts = []
    for i in range(n):
        words = rng.choice(vocab, size=int(rng.integers(8, 40)))
        texts.append(" ".join(words))
    # plant one exact duplicate (distinctive content so its fingerprints
    # are unique to the pair) and one tiny doc (single window path)
    texts[2] = "".join(rng.choice(list("qwertyuiopzxcvbnm"), size=120))
    texts[5] = texts[2]
    texts[9] = "abcdefg"
    return pa.table({
        "doc_id": pa.array(np.arange(1, n + 1, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
    })


def test_winnow_sql_twin_parity():
    docs = _ascii_docs()
    got = _winnow_batch(docs, k=K, w=W, text_col="text")
    con = duckdb.connect()
    con.register("documents", docs)
    want = con.execute(
        sql_winnow_fingerprints(K, W)
        + " ORDER BY doc_id, pos").fetch_arrow_table()
    got_sorted = got.sort_by([("doc_id", "ascending"), ("pos", "ascending")])
    assert got_sorted.column("doc_id").to_pylist() == want.column("doc_id").to_pylist()
    assert got_sorted.column("pos").to_pylist() == want.column("pos").to_pylist()
    assert got_sorted.column("fp").to_pylist() == want.column("fp").to_pylist()


def test_winnow_pair_counts_ray_vs_sql(ray_session):
    import ray.data as rd

    docs = _ascii_docs(n=30, seed=13)
    fps = winnow_fingerprints(rd.from_arrow(docs).repartition(4), k=K, w=W)
    pairs = winnow_pair_counts(fps, min_shared=2, max_df=8).to_pandas()
    got = sorted(map(tuple, pairs[["src", "dst", "n_shared"]].values.tolist()))

    con = duckdb.connect()
    con.register("documents", docs)
    want = sorted(map(tuple, con.execute(
        sql_winnow_dup_pairs(K, W, 2, 8)).fetchall()))
    assert got == want and len(want) > 0
    # the planted exact duplicate (docs 3 and 6) must be the top pair
    top = max(want, key=lambda r: r[2])
    assert (top[0], top[1]) == (3, 6)


# ------------------------------------------------ exact-substring anchors
SUBSTRING_WINDOW = 64


def _rand_text(rng, n):
    return "".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz ")) for _ in range(n))


def test_substring_reports_longest_of_multiple_runs(ray_session):
    """ADVICE r1 (medium): when two docs share several distinct runs, the
    reported pair must reflect a qualifying run even if another anchor
    lands in a short run."""
    from fastdup_ray.stages.substring import substring_pairs

    rng = np.random.default_rng(3)
    short_run = _rand_text(rng, 90)     # shared but < substring_len
    long_run = _rand_text(rng, 400)     # shared and >= substring_len
    doc_a = short_run + _rand_text(rng, 200) + long_run + _rand_text(rng, 50)
    doc_b = _rand_text(rng, 120) + short_run + _rand_text(rng, 333) + long_run
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array([doc_a, doc_b]),
        }
    )
    cfg = DedupConfig(substring_len=256)
    out = substring_pairs(rd.from_arrow(tbl), cfg).take_all()
    assert len(out) == 1
    assert out[0]["match_len"] >= 256


def test_winnow_zero_miss_with_out_of_run_anchor_copy(ray_session):
    """ADVICE r3 (high): when the winnow-selected in-run 64-gram ALSO
    occurs outside the shared run in the same doc, the pair must still be
    found. The old one-occurrence-per-doc-per-fp bucket rule could keep
    the out-of-run copy, verify the wrong site, and silently drop the
    pair (missed on 4/25 of these crafted corpora before the fix)."""
    from fastdup_ray.functions.hashing import rolling_shingle_hashes
    from fastdup_ray.stages.substring import substring_pairs

    sub_len = 128
    w = sub_len - SUBSTRING_WINDOW + 1
    cfg = DedupConfig(substring_len=sub_len)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        run = _rand_text(rng, sub_len)
        h_run = rolling_shingle_hashes(run.encode(), SUBSTRING_WINDOW)
        # the guaranteed-shared anchor: rightmost-min of the full in-run
        # winnow window (identical selection in both docs)
        p = int(winnow_positions(h_run, w)[0])
        decoy = run[p : p + SUBSTRING_WINDOW]  # same 64-gram, extends to < sub_len
        doc_a = decoy + _rand_text(rng, 150) + run + _rand_text(rng, 40)
        doc_b = _rand_text(rng, 90) + run + _rand_text(rng, 60)
        tbl = pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array([doc_a, doc_b]),
            }
        )
        out = substring_pairs(rd.from_arrow(tbl), cfg).take_all()
        assert any(
            r["src"] == 1 and r["dst"] == 2 and r["match_len"] >= sub_len
            for r in out
        ), (seed, out)
