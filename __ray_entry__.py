"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in fastdup_ray) calls ray.init()/ray.shutdown().

- entry(): flagship near-dup pipeline (HTML extract -> MinHash/LSH ->
  exact verify -> connected components -> keep-one policy) over a pages
  table derived deterministically from /root/testdata/sf0.001/documents
  (input_hint schema: url, warc_ts, html, text, lang).
- queries()/oracle_sql(): operator catalog from SURVEY.md §2 — see
  fastdup_ray/pipelines/queries.py for the per-query documentation.
"""

from __future__ import annotations

import shutil
from collections.abc import Callable
from typing import Any


def entry() -> Any:
    import pyarrow.parquet as pq

    import ray.data as rd

    from fastdup_ray.config import DedupConfig
    from fastdup_ray.pipelines.neardup import NearDupPipeline
    from fastdup_ray.sources.pages import pages_from_documents

    docs_tbl = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    pages = pages_from_documents(docs_tbl, replicate=2, seed=42)
    work_dir = "/tmp/fastdup_ray_entry_workdir"
    shutil.rmtree(work_dir, ignore_errors=True)
    pipe = NearDupPipeline(DedupConfig(), work_dir=work_dir)
    res = pipe.run(rd.from_arrow(pages).repartition(8), input_token="entry-sf0.001")
    # flagship result: per-doc keep/drop decision table (doc_id, keep,
    # component_id) — the D4 remove_duplicates analog
    return res.keep_table()


def queries() -> dict[str, Callable[[str], Any]]:
    from fastdup_ray.pipelines.queries import queries as _queries

    return _queries()


def oracle_sql() -> dict[str, str]:
    from fastdup_ray.pipelines.queries import oracle_sql as _oracle_sql

    return _oracle_sql()
