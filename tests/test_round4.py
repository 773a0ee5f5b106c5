"""Round-4 regression tests (VERDICT r3 / ADVICE r3 items)."""

import pyarrow as pa
import ray.data as rd


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
