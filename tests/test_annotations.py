"""Annotation reconciliation, label slicing, top components, majority vote,
component sampling — the report/join layer (SURVEY.md §2.5-2.7)."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from fastdup_ray.config import DedupConfig
from fastdup_ray.sources.pages import synthesize_pages
from fastdup_ray.stages.annotations import (
    ERR_MISSING_ANNOTATION,
    ERR_MISSING_DOC,
    component_label_vote,
    expand_annotations,
    find_top_components,
    sample_components,
    slice_by_label,
)
from fastdup_ray.stages.extract import HtmlExtractStage


@pytest.fixture(scope="module")
def setup(ray_session):
    pages, truth = synthesize_pages(300, seed=42)
    cfg = DedupConfig()
    docs = rd.from_arrow(HtmlExtractStage(cfg.min_text_len)(pages)).materialize()
    urls = pages["url"].to_pylist()
    # annotations: drop 10 urls (-> MISSING_ANNOTATION), add 5 phantom urls
    # (-> MISSING_DOC); label = planted class
    cls = truth["cls"].to_pylist()
    annot = pa.table(
        {
            "url": urls[10:] + [f"https://phantom.example/{i}" for i in range(5)],
            "label": cls[10:] + ["phantom"] * 5,
            "split": ["train" if i % 5 else "test" for i in range(len(urls) - 10 + 5)],
        }
    )
    return {"pages": pages, "truth": truth, "docs": docs,
            "annot": rd.from_arrow(annot).materialize(), "cfg": cfg}


def test_expand_annotations_error_codes(setup):
    out = expand_annotations(setup["docs"], setup["annot"]).take_all()
    by_err = {}
    for r in out:
        by_err.setdefault(r["annot_error"], []).append(r)
    assert len(by_err.get(ERR_MISSING_ANNOTATION, [])) == 10
    assert len(by_err.get(ERR_MISSING_DOC, [])) == 5
    matched = by_err.get("", [])
    assert len(matched) == setup["pages"].num_rows - 10
    assert all(r["doc_id"] != -1 for r in matched)
    assert all(r["doc_id"] == -1 for r in by_err[ERR_MISSING_DOC])


def test_slice_by_label(setup):
    annotated = expand_annotations(setup["docs"], setup["annot"]).materialize()
    eq = slice_by_label(annotated, "label", "exact_dup").take_all()
    assert len(eq) > 0 and all(r["label"] == "exact_dup" for r in eq)
    isin = slice_by_label(annotated, "label", ["exact_dup", "near_dup"], mode="isin").take_all()
    assert len(isin) > len(eq)
    sub = slice_by_label(annotated, "label", "dup", mode="contains").take_all()
    assert len(sub) >= len(isin)


def test_top_components_and_vote_and_sample(setup, tmp_path):
    from fastdup_ray.pipelines.neardup import NearDupPipeline

    pipe = NearDupPipeline(setup["cfg"], work_dir=str(tmp_path / "wd"))
    res = pipe.run(rd.from_arrow(setup["pages"]).repartition(4), input_token="annot-test")
    comps = res.connected_components().materialize()

    top = find_top_components(comps, k=5).take_all()
    assert len(top) == 5
    sizes = [r["count"] for r in top]
    assert sizes == sorted(sizes, reverse=True)

    # label vote: every doc labeled with its planted class -> components are
    # pure (each cluster comes from one class)
    from fastdup_ray.functions.hashing import id63

    truth = setup["truth"]
    labeled = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(id63(truth["url"].to_pylist()), pa.int64()),
                "label": truth["cls"],
            }
        )
    ).materialize()
    votes = component_label_vote(comps, labeled).take_all()
    assert len(votes) > 0
    assert all(r["purity"] == 1.0 for r in votes)
    assert all(r["label"] in ("exact_dup", "near_dup") for r in votes)

    grouped = res.connected_components_grouped().materialize()
    for strat in ("first", "random", "uniform"):
        s = sample_components(grouped, strategy=strat, k=2).take_all()
        assert len(s) == grouped.count()
        for r in s:
            assert 1 <= len(r["sample_ids"]) <= 2
    # random sampling deterministic across calls
    a = sample_components(grouped, strategy="random", k=2, seed=9).take_all()
    b = sample_components(grouped, strategy="random", k=2, seed=9).take_all()
    assert sorted(map(str, a)) == sorted(map(str, b))


def test_expand_annotations_keeps_phantom_url(ray_session):
    from fastdup_ray.stages.annotations import ERR_MISSING_DOC, expand_annotations

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "url": pa.array(["u1", "u2"]),
            }
        )
    )
    annots = rd.from_arrow(
        pa.table(
            {
                "url": pa.array(["u2", "phantom://missing"]),
                "label": pa.array(["x", "y"]),
            }
        )
    )
    rows = expand_annotations(docs, annots).take_all()
    missing = [r for r in rows if r["annot_error"] == ERR_MISSING_DOC]
    assert len(missing) == 1
    # the dangling annotation keeps ITS url, not 'None'/'nan'
    assert missing[0]["url"] == "phantom://missing"
    assert missing[0]["label"] == "y"
