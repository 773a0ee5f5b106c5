"""Cross-corpus (train/test) candidate mode — G7 parity."""

import numpy as np
import pytest

import ray.data as rd

from fastdup_ray.config import DedupConfig
from fastdup_ray.functions.hashing import id63
from fastdup_ray.sources.pages import synthesize_pages
from fastdup_ray.stages.extract import HtmlExtractStage
from fastdup_ray.stages.lsh import candidate_pairs, cross_candidate_pairs
from fastdup_ray.stages.signatures import BandStage, SignStage


def test_cross_candidates_only_between_corpora(ray_session):
    pages, truth = synthesize_pages(300, seed=42)
    cfg = DedupConfig()
    docs_tbl = HtmlExtractStage(cfg.min_text_len)(pages)
    # split: even rows -> corpus A, odd rows -> corpus B; exact-dup clusters
    # span both sides, so cross pairs must exist
    import pyarrow as pa

    even = pa.array([i % 2 == 0 for i in range(docs_tbl.num_rows)])
    a_tbl = docs_tbl.filter(even)
    b_tbl = docs_tbl.filter(pa.compute.invert(even))
    a_ids = set(a_tbl["doc_id"].to_pylist())
    b_ids = set(b_tbl["doc_id"].to_pylist())

    def bands(tbl):
        ds = rd.from_arrow(tbl).materialize()
        sigs = ds.map_batches(SignStage(cfg), batch_format="pyarrow").materialize()
        return sigs.map_batches(BandStage(cfg), batch_format="pyarrow")

    cross = cross_candidate_pairs(bands(a_tbl), bands(b_tbl), cfg).take_all()
    assert len(cross) > 0
    for r in cross:
        assert r["src"] in a_ids, "src must come from the query corpus"
        assert r["dst"] in b_ids, "dst must come from the index corpus"

    # cross mode is exactly the straddling subset of the candidate pairs
    # over both corpora, oriented (query, index)
    full = candidate_pairs(bands(docs_tbl), cfg).take_all()
    straddle = {
        (r["src"], r["dst"]) if r["src"] in a_ids else (r["dst"], r["src"])
        for r in full
        if (r["src"] in a_ids) != (r["dst"] in a_ids)
    }
    got = [(r["src"], r["dst"]) for r in cross]
    assert len(got) == len(set(got)), "cross pairs must be distinct"
    assert set(got) == straddle
