"""Text-native gallery layer — the analog of the reference's five
galleries (K5/A2/O1-O4), its most-used API after run():

  duplicates_gallery  <- do_create_duplicates_gallery
                         (reference galleries.py:353-378: sort edges by
                         distance desc/asc, drop dup pairs, head(num));
  outliers_gallery    <- do_create_outliers_gallery (galleries.py:594-629:
                         ascending distance, one row per outlier doc);
  components_gallery  <- do_create_components_gallery
                         (galleries.py:1157-1298: group to lists, band
                         filters min/max_items, sort by size/distance,
                         head(num));
  stats_gallery       <- do_create_stats_gallery (galleries.py:1632-1651:
                         sort by metric asc/desc + head);
  similarity_gallery  <- do_create_similarity_gallery
                         (galleries.py:1838-1884: per-doc neighbor list
                         with per-doc label_score when labels exist).

Where the reference renders image thumbnails, these render doc SNIPPETS
(url + first `max_width` chars of extracted text — the `num_images` /
`max_width` analogs are `num_rows` / `max_width`). Every gallery computes
its head-N slice WITH Dataset sort/limit pushdown, fetches snippets for
only those rows (broadcast semi-join on a tiny id set), and returns a
small pandas DataFrame; `write_gallery_html` renders one to a
self-contained HTML file. Nothing materializes the corpus.
"""

from __future__ import annotations

import html as _html
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from fastdup_ray.relational.ops import broadcast_semi_join


def _snippets(docs, doc_ids, max_width: int = 120) -> dict[int, tuple[str, str]]:
    """doc_id -> (url, text snippet) for a SMALL id set (head-N only)."""
    ids = set(int(i) for i in doc_ids)
    if not ids:
        return {}
    rows = broadcast_semi_join(
        docs.select_columns(["doc_id", "url", "text"]), "doc_id", ids
    ).take_all()
    return {
        int(r["doc_id"]): (r["url"], (r["text"] or "")[:max_width]) for r in rows
    }


def _snippet_diff(a: str, b: str, width: int = 40) -> str:
    """Compact divergence highlight between two snippets: trim the
    common prefix/suffix and show the differing middles side by side,
    '@<offset>: <a-mid> != <b-mid>'. Empty string when the snippets are
    identical — on a duplicates gallery that means 'byte-equal within
    the snippet window' (the reviewable evidence the reference embeds
    as side-by-side images, galleries.py:415-485)."""
    if a == b:
        return ""
    p = 0
    m = min(len(a), len(b))
    while p < m and a[p] == b[p]:
        p += 1
    s = 0
    while s < m - p and a[len(a) - 1 - s] == b[len(b) - 1 - s]:
        s += 1

    def mid(x: str) -> str:
        seg = x[p:len(x) - s]
        return seg[:width] + ("..." if len(seg) > width else "")

    return f"@{p}: {mid(a)!r} != {mid(b)!r}"


def duplicates_gallery(result, num_rows: int = 20, *, ascending: bool = False,
                       threshold: float | None = None, max_width: int = 120
                       ) -> pd.DataFrame:
    """Top duplicate edges with both docs' snippets (O1 sort+head) and a
    `diff_snippet` column highlighting where the pair's texts diverge."""
    edges = result.similarity(threshold)
    if ascending:
        edges = result.pair_scores().sort("distance")
    head = edges.limit(num_rows).take_all()
    snip = _snippets(
        result.docs(),
        [r["src"] for r in head] + [r["dst"] for r in head],
        max_width,
    )
    rows = []
    for r in head:
        su, st = snip.get(int(r["src"]), ("", ""))
        du, dt = snip.get(int(r["dst"]), ("", ""))
        rows.append((r["src"], r["dst"], round(r["distance"], 6), su, st,
                     du, dt, _snippet_diff(st, dt)))
    return pd.DataFrame(
        rows, columns=["src", "dst", "distance", "src_url", "src_text",
                       "dst_url", "dst_text", "diff_snippet"],
    )


def outliers_gallery(result, num_rows: int = 20, *, max_width: int = 120
                     ) -> pd.DataFrame:
    """Most-outlying docs first (ascending best-match distance), each with
    its nearest neighbor's snippet when one exists."""
    out = result.outliers().sort(["distance", "src"]).limit(num_rows).take_all()
    ids = [r["src"] for r in out] + [r["dst"] for r in out if r["dst"] is not None]
    snip = _snippets(result.docs(), ids, max_width)
    rows = []
    for r in out:
        su, st = snip.get(int(r["src"]), ("", ""))
        nb = r["dst"]
        nu, nt = snip.get(int(nb), ("", "")) if nb is not None else ("", "")
        rows.append((r["src"], nb, round(r["distance"], 6), su, st, nu, nt))
    return pd.DataFrame(
        rows, columns=["src", "dst", "distance", "src_url", "src_text",
                       "nearest_url", "nearest_text"],
    )


def components_gallery(result, num_rows: int = 20, *, sort_by: str = "size",
                       min_items: int = 2, max_items: int | None = None,
                       docs_per_component: int = 3, max_width: int = 120
                       ) -> pd.DataFrame:
    """Largest (or strongest) components with sample member snippets.

    sort_by: "size" (len desc) or "component_id". Band filters
    min_items/max_items mirror the reference's min/max_items knobs."""
    grouped = result.connected_components_grouped(min_count=min_items)
    if max_items is not None:
        grouped = grouped.map_batches(
            lambda b: b.filter(pc.less_equal(b["len"], pa.scalar(max_items))),
            batch_format="pyarrow",
        )
    key = "len" if sort_by == "size" else "component_id"
    head = (
        grouped.sort([key, "component_id"], descending=[sort_by == "size", False])
        .limit(num_rows)
        .take_all()
    )
    sample_ids = [
        int(i) for c in head for i in list(c["files_ids"])[:docs_per_component]
    ]
    snip = _snippets(result.docs(), sample_ids, max_width)
    rows = []
    for c in head:
        members = [int(i) for i in list(c["files_ids"])[:docs_per_component]]
        rows.append(
            (
                c["component_id"], c["len"],
                members,
                [snip.get(m, ("", ""))[0] for m in members],
                [snip.get(m, ("", ""))[1] for m in members],
            )
        )
    return pd.DataFrame(
        rows, columns=["component_id", "len", "sample_ids", "sample_urls",
                       "sample_texts"],
    )


def stats_gallery(result, metric: str = "n_chars", num_rows: int = 20, *,
                  ascending: bool = False, max_width: int = 120) -> pd.DataFrame:
    """Docs ranked by a stats metric (O4 sort+head over doc_stats)."""
    stats = result.doc_stats()
    head = (
        stats.select_columns(["doc_id", metric])
        .sort([metric, "doc_id"], descending=[not ascending, False])
        .limit(num_rows)
        .take_all()
    )
    snip = _snippets(result.docs(), [r["doc_id"] for r in head], max_width)
    rows = [
        (r["doc_id"], r[metric], *snip.get(int(r["doc_id"]), ("", "")))
        for r in head
    ]
    return pd.DataFrame(rows, columns=["doc_id", metric, "url", "text"])


def similarity_gallery(result, num_rows: int = 20, k: int = 5, *,
                       labels=None, max_width: int = 120) -> pd.DataFrame:
    """Per-doc nearest-neighbor lists (A2 kNN grouping). With `labels`
    (Dataset doc_id,label), adds the per-doc label_score (share of
    neighbors with the same label) and sorts worst-first — the mislabel
    surface (reference galleries.py:1864-1884)."""
    from fastdup_ray.relational.ops import partitioned_groupby

    scores = result.pair_scores()

    def sym(batch: pa.Table) -> pa.Table:
        s = batch["src"].to_numpy(zero_copy_only=False)
        t = batch["dst"].to_numpy(zero_copy_only=False)
        d = batch["distance"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": pa.array(np.concatenate([s, t]), pa.int64()),
                "nb": pa.array(np.concatenate([t, s]), pa.int64()),
                "distance": pa.array(np.concatenate([d, d]), pa.float64()),
            }
        )

    def knn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["node", "distance", "nb"],
                            ascending=[True, False, True], kind="mergesort")
        g = df.groupby("node", sort=False).head(k)
        agg = g.groupby("node", sort=False).agg(
            nbs=("nb", list), dists=("distance", list)
        ).reset_index()
        agg["best"] = [d[0] for d in agg["dists"]]
        return agg

    per_doc = partitioned_groupby(
        scores.map_batches(sym, batch_format="pyarrow"), "node", knn,
    )
    if labels is not None:
        from fastdup_ray.stages.metrics import neighbor_label_agreement

        scored = neighbor_label_agreement(scores, labels).limit(num_rows).take_all()
        keep = {int(r["doc_id"]) for r in scored}
        # filter inside the Dataset — per_doc is corpus-sized, the kept
        # head is num_rows; collecting it all was a driver scale bug
        from fastdup_ray.relational.ops import broadcast_semi_join

        head = broadcast_semi_join(per_doc, "node", keep).take_all()
        score_of = {int(r["doc_id"]): r["label_score"] for r in scored}
    else:
        head = per_doc.sort(["best", "node"], descending=[True, False]).limit(
            num_rows
        ).take_all()
        score_of = {}
    snip = _snippets(
        result.docs(),
        [r["node"] for r in head]
        + [n for r in head for n in list(r["nbs"])[:k]],
        max_width,
    )
    rows = []
    for r in head:
        nid = int(r["node"])
        u, t = snip.get(nid, ("", ""))
        rows.append(
            (
                nid, u, t,
                [int(x) for x in list(r["nbs"])[:k]],
                [round(float(x), 6) for x in list(r["dists"])[:k]],
                score_of.get(nid),
            )
        )
    return pd.DataFrame(
        rows, columns=["doc_id", "url", "text", "neighbor_ids",
                       "neighbor_distances", "label_score"],
    )


def write_gallery_html(df: pd.DataFrame, path: str, title: str) -> str:
    """Render a gallery DataFrame to a self-contained HTML file."""

    def esc(x) -> str:
        return _html.escape(str(x))

    head = "".join(f"<th>{esc(c)}</th>" for c in df.columns)
    body = "".join(
        "<tr>" + "".join(f"<td>{esc(v)}</td>" for v in row) + "</tr>"
        for row in df.itertuples(index=False)
    )
    doc = f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{esc(title)}</title>
<style>body{{font-family:sans-serif;margin:2em}}table{{border-collapse:collapse}}
td,th{{border:1px solid #ccc;padding:4px 10px;text-align:left;
max-width:400px;overflow-wrap:anywhere}}</style></head>
<body><h1>{esc(title)}</h1>
<table><tr>{head}</tr>{body}</table></body></html>"""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(doc)
    return path


def write_all_galleries(result, out_dir: str, num_rows: int = 20) -> dict[str, str]:
    """All five galleries + an index page into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    made = {}
    for name, fn in [
        ("duplicates", lambda: duplicates_gallery(result, num_rows)),
        ("outliers", lambda: outliers_gallery(result, num_rows)),
        ("components", lambda: components_gallery(result, num_rows)),
        ("stats", lambda: stats_gallery(result, num_rows=num_rows)),
        ("similarity", lambda: similarity_gallery(result, num_rows)),
    ]:
        made[name] = write_gallery_html(
            fn(), os.path.join(out_dir, f"{name}.html"),
            f"fastdup_ray {name} gallery",
        )
    links = "".join(
        f'<li><a href="{n}.html">{n}</a></li>' for n in made
    )
    index = os.path.join(out_dir, "index.html")
    with open(index, "w") as fh:
        fh.write(
            "<!DOCTYPE html><html><head><meta charset='utf-8'>"
            "<title>fastdup_ray galleries</title></head><body>"
            f"<h1>fastdup_ray galleries</h1><ul>{links}</ul></body></html>"
        )
    made["index"] = index
    return made
