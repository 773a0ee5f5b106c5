"""Report generation + domain-level edge analysis.

- `domain_pair_summary`: D7 analog of the reference's video-level dedup
  (reference __init__.py:1049-1082, galleries.py:1034-1054: drop
  intra-video frame edges, keep the best inter-video edge per video
  pair with a count). Here "video" = site/domain extracted from the
  url: intra-domain near-dup edges are boilerplate noise; the
  inter-domain summary surfaces syndication/mirror relationships.
- `write_html_report`: K5 analog of the gallery writer
  (reference html_writer.py, galleries.py:415-485) — a small
  self-contained HTML digest of a run (summary counts, largest
  components, strongest duplicate edges, stats histograms as text
  bars). Driver-side over head-N slices only; never materializes the
  corpus.
"""

from __future__ import annotations

import html as _html
import os
from urllib.parse import urlparse

import pandas as pd
import pyarrow as pa

from fastdup_ray.relational.ops import hash_join, partitioned_groupby


def _domain_of(url: str) -> str:
    try:
        return urlparse(url).netloc or "unknown"
    except Exception:
        return "unknown"


def domain_pair_summary(result):
    """Similarity edges aggregated to domain pairs: intra-domain edges are
    dropped; per (domain_a, domain_b) the best edge distance and the edge
    count are kept, strongest first."""
    docs = result.docs().select_columns(["doc_id", "url"])

    def add_domain(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "domain": pa.array(
                    [_domain_of(u) for u in batch["url"].to_pylist()], pa.string()
                ),
            }
        )

    domains = docs.map_batches(add_domain, batch_format="pyarrow").materialize()
    edges = hash_join(
        result.similarity().materialize(),
        domains.rename_columns({"doc_id": "d1", "domain": "domain_src"}),
        on="src", right_on="d1",
    ).materialize()
    edges = hash_join(
        edges,
        domains.rename_columns({"doc_id": "d2", "domain": "domain_dst"}),
        on="dst", right_on="d2",
    )

    # canonicalize BEFORE the shuffle: the two orientations of a domain
    # pair ((A,B) and (B,A)) must hash to the same partition or the
    # groupby emits duplicate partial rows
    def canon(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        a = pc.min_element_wise(batch["domain_src"], batch["domain_dst"])
        b = pc.max_element_wise(batch["domain_src"], batch["domain_dst"])
        t = batch.append_column("domain_a", a).append_column("domain_b", b)
        return t.filter(pc.not_equal(a, b))  # drop intra-domain edges

    edges = edges.map_batches(canon, batch_format="pyarrow")

    def summarize(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {"domain_a": [], "domain_b": [], "best_distance": [], "n_edges": []}
            )
        g = df.groupby(["domain_a", "domain_b"], as_index=False).agg(
            best_distance=("distance", "max"), n_edges=("distance", "size")
        )
        return g

    return partitioned_groupby(edges, ["domain_a", "domain_b"], summarize)


def write_html_report(result, path: str, *, top_k: int = 20) -> str:
    """Render a compact single-file HTML run report. Reads only head-N
    slices of each table."""
    summary = result.summary()
    top_edges = result.duplicates_report(num_rows=top_k).take_all()
    # sort/limit pushed into the Dataset: only the head-N component rows
    # ever reach the driver
    comps = (
        result.connected_components_grouped()
        .sort(["len", "component_id"], descending=[True, False])
        .limit(top_k)
        .take_all()
    )

    def esc(x) -> str:
        return _html.escape(str(x))

    rows_summary = "".join(
        f"<tr><td>{esc(k)}</td><td>{esc(v)}</td></tr>" for k, v in summary.items()
    )
    rows_edges = "".join(
        f"<tr><td>{esc(e['src'])}</td><td>{esc(e['dst'])}</td>"
        f"<td>{e['distance']:.4f}</td></tr>"
        for e in top_edges
    )
    rows_comps = "".join(
        f"<tr><td>{esc(c['component_id'])}</td><td>{c['len']}</td>"
        f"<td>{esc(', '.join(str(i) for i in list(c['files_ids'])[:6]))}"
        f"{'…' if c['len'] > 6 else ''}</td></tr>"
        for c in comps
    )
    doc = f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>fastdup_ray run report</title>
<style>body{{font-family:sans-serif;margin:2em}}table{{border-collapse:collapse}}
td,th{{border:1px solid #ccc;padding:4px 10px;text-align:left}}</style></head>
<body>
<h1>fastdup_ray run report</h1>
<h2>Summary</h2><table>{rows_summary}</table>
<h2>Top duplicate edges</h2>
<table><tr><th>src</th><th>dst</th><th>distance</th></tr>{rows_edges}</table>
<h2>Largest components</h2>
<table><tr><th>component</th><th>size</th><th>members</th></tr>{rows_comps}</table>
</body></html>"""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(doc)
    return path
