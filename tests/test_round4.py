"""Round-4 regression tests (VERDICT r3 / ADVICE r3 items)."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from fastdup_ray.config import DedupConfig

WINDOW = 64


def _rand_text(rng, n):
    return "".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz ")) for _ in range(n))


def test_winnow_zero_miss_with_out_of_run_anchor_copy(ray_session):
    """ADVICE r3 (high): when the winnow-selected in-run 64-gram ALSO
    occurs outside the shared run in the same doc, the pair must still be
    found. The old one-occurrence-per-doc-per-fp bucket rule could keep
    the out-of-run copy, verify the wrong site, and silently drop the
    pair (missed on 4/25 of these crafted corpora before the fix)."""
    from fastdup_ray.functions.hashing import rolling_shingle_hashes
    from fastdup_ray.stages.substring import substring_pairs
    from fastdup_ray.stages.winnow import winnow_positions

    sub_len = 128
    w = sub_len - WINDOW + 1
    cfg = DedupConfig(substring_len=sub_len, substring_anchor_mode="winnow")
    for seed in range(8):
        rng = np.random.default_rng(seed)
        run = _rand_text(rng, sub_len)
        h_run = rolling_shingle_hashes(run.encode(), WINDOW)
        # the guaranteed-shared anchor: rightmost-min of the full in-run
        # winnow window (identical selection in both docs)
        p = int(winnow_positions(h_run, w)[0])
        decoy = run[p : p + WINDOW]  # same 64-gram, extends to < sub_len
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


def test_distinct_value_quantile_bounded(ray_session):
    """A7 quantile contract: exact under the distinct budget, fixed-grid
    histogram above it with driver rows <= budget and threshold within
    one bin width of the true quantile (neardup outliers' scale path)."""
    from fastdup_ray.relational.ops import distinct_value_quantile

    # exact path: small distinct set, threshold = smallest v with
    # cumfrac >= q (ties and duplicates included)
    vals = [0.1] * 10 + [0.2] * 30 + [0.5] * 60
    ds = rd.from_arrow(
        pa.table({"distance": pa.array(vals, pa.float64())})
    ).repartition(4)
    thr, diag = distinct_value_quantile(ds, "distance", 0.05,
                                        distinct_budget=1000)
    assert diag["mode"] == "exact" and thr == 0.1
    thr, _ = distinct_value_quantile(ds, "distance", 0.3, distinct_budget=1000)
    assert thr == 0.2

    # grid path: 2,000,000 DISTINCT distances >> budget; driver holds at
    # most `budget` histogram rows, threshold within one bin of truth
    n, budget = 2_000_000, 50_000
    import pyarrow.compute as pc

    base = rd.range(n, override_num_blocks=16)
    dist = base.map_batches(
        lambda b: pa.table(
            {"distance": pc.divide(pc.cast(b["id"], pa.float64()), float(n))}
        ),
        batch_format="pyarrow",
    ).materialize()
    q = 0.05
    thr, diag = distinct_value_quantile(
        dist, "distance", q, distinct_budget=budget, grid=(0.0, 1.0)
    )
    assert diag["mode"] == "grid"
    assert diag["rows_collected"] <= budget  # driver memory bound
    tol = 1.0 / budget
    assert q - 1e-12 <= thr <= q + tol + 1e-9, thr
    # never under-selects: fraction(<= thr) >= q
    sel = dist.map_batches(
        lambda b: b.filter(pc.less_equal(b["distance"], pa.scalar(thr))),
        batch_format="pyarrow",
    ).count()
    assert sel / n >= q
    assert sel / n <= q + 2 * tol
