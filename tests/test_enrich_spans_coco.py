"""Text analogs of the reference's image-only surface (round 3):
captioning (M7), zero-shot labels (M8), span detect/crop/two-phase
(M4/M5/J8), COCO import/export + CVAT export (S10/K8/K9), and the
per-process model cache (T4)."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd


def _docs_ds(rows):
    return rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "url": pa.array([r[1] for r in rows], pa.string()),
        "text": pa.array([r[2] for r in rows], pa.string()),
    }))


# -------------------------------------------------------------- M7 caption
def test_caption_first_sentence(ray_session):
    from fastdup_ray.stages.enrich import caption_documents

    docs = _docs_ds([
        (1, "u1", "  Hello world. Second sentence."),
        (2, "u2", "no punctuation at all"),
        (3, "u3", "line one\nline two."),
        (4, "u4", ""),
        (5, "u5", "...leading dots"),
        (6, "u6", "trailing spaces   . tail"),
    ])
    out = {r["doc_id"]: r["caption"]
           for r in caption_documents(docs).take_all()}
    assert out[1] == "Hello world"
    assert out[2] == "no punctuation at all"
    assert out[3] == "line one"
    assert out[4] == ""
    assert out[5] == ""          # first char is a sentence boundary
    assert out[6] == "trailing spaces"


def test_caption_matches_duckdb_oracle(ray_session):
    """The SQL twin (same RE2 pattern in DuckDB) must agree char-for-char,
    including whitespace handling."""
    import duckdb

    from fastdup_ray.pipelines.queries import SQL_DOC_CAPTIONS
    from fastdup_ray.stages.enrich import caption_documents

    texts = [
        "  Plain sentence. More.", "no stop", "tab\tinside . x",
        "", "\n\nafter newlines here", "ends with spaces   ",
        "unicode café naïve. rest", "a" * 300,
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    got = {r["doc_id"]: r["caption"] for r in caption_documents(
        rd.from_arrow(tbl)).take_all()}
    con = duckdb.connect()
    con.register("documents", tbl)
    want = dict(con.execute(SQL_DOC_CAPTIONS).fetchall())
    assert got == want


# ----------------------------------------------------------- M8 zero-shot
def test_zero_shot_planted_labels(ray_session):
    from fastdup_ray.stages.enrich import zero_shot_enrich

    docs = _docs_ds([
        (1, "u1", "cooking recipes with fresh ingredients in the kitchen"),
        (2, "u2", "football match ends with a late goal for the team"),
        (3, "u3", "kitchen recipes ingredients cooking dinner food"),
    ])
    out = zero_shot_enrich(
        docs,
        labels=["cooking", "sports"],
        prototypes=[
            "cooking recipes food ingredients kitchen dinner",
            "football match goal team player score",
        ],
        concurrency=1,
    ).take_all()
    by_id = {r["doc_id"]: r for r in out}
    assert by_id[1]["zs_label"] == "cooking"
    assert by_id[2]["zs_label"] == "sports"
    assert by_id[3]["zs_label"] == "cooking"
    for r in out:
        assert -1.0001 <= r["zs_score"] <= 1.0001


def test_projection_cache_shared(ray_session):
    """T4: two stages with the same (dim, seed) share one weight array
    per process."""
    from fastdup_ray.stages.embed import TextEmbedStage, get_projection

    a = TextEmbedStage(dim=16, seed=7)
    b = TextEmbedStage(dim=16, seed=7)
    assert a.proj is b.proj
    assert get_projection(16, 7) is a.proj
    assert get_projection(16, 8) is not a.proj


# ------------------------------------------------- M4/M5/J8 spans + crops
_PATTERNS = {"num": r"[0-9]+", "shout": r"[A-Z]{3,}"}


def test_detect_spans_positions(ray_session):
    from fastdup_ray.stages.spans import detect_spans

    docs = _docs_ds([(1, "u1", "abc 123 xy 45 WOW"), (2, "u2", "none here")])
    rows = sorted(
        (r["doc_id"], r["det_label"], r["span_start"], r["span_len"])
        for r in detect_spans(docs, _PATTERNS).take_all()
    )
    assert rows == [(1, "num", 4, 3), (1, "num", 11, 2), (1, "shout", 14, 3)]


def test_count_spans_matches_duckdb(ray_session):
    import duckdb

    from fastdup_ray.pipelines.queries import (
        SQL_ENTITY_SPAN_COUNTS, _ENTITY_PATTERNS)
    from fastdup_ray.stages.spans import count_spans

    texts = [
        "fast scan slow merge spark shuffle fast",
        "table value row",
        "spark spark join filter filter filter",
        "",
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    got = sorted(
        (r["doc_id"], r["det_label"], r["n_spans"])
        for r in count_spans(rd.from_arrow(tbl), _ENTITY_PATTERNS).take_all()
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    want = sorted(map(tuple, con.execute(SQL_ENTITY_SPAN_COUNTS).fetchall()))
    assert got == want
    assert (0, "speed", 3) in got           # 'fast' x2 + 'slow'
    # greedy [a-z]+ makes "spark spark join" ONE match ("spark spark"),
    # identically in Python re and RE2
    assert (2, "spark_bigram", 1) in got
    assert (2, "sql_verb", 4) in got        # join + filter x3


def test_crop_spans_margin_and_ids(ray_session):
    from fastdup_ray.stages.spans import crop_spans, detect_spans

    text = "aaaa 1234567890 bbbb"
    docs = _docs_ds([(1, "http://x/p", text)])
    spans = detect_spans(docs, {"num": r"[0-9]+"})
    crops = crop_spans(docs, spans, margin_frac=0.2).take_all()
    assert len(crops) == 1
    c = crops[0]
    # span [5, 10); margin = round(10*0.2) = 2 -> [3, 17)
    assert c["crop_start"] == 3
    assert c["text"] == text[3:17]
    assert c["url"] == "http://x/p#s5+10"
    assert c["crop_id"] >= 0 and c["doc_id"] == 1
    # margin clamps at the document edges
    docs2 = _docs_ds([(2, "u2", "12345")])
    c2 = crop_spans(docs2, detect_spans(docs2, {"num": r"[0-9]+"}),
                    margin_frac=0.5).take_all()[0]
    assert c2["crop_start"] == 0 and c2["text"] == "12345"


def test_join_crops_placeholder_for_croplass_docs(ray_session):
    from fastdup_ray.stages.spans import crop_spans, detect_spans, join_crops

    docs = _docs_ds([(1, "u1", "has 99 number"), (2, "u2", "none")])
    crops = crop_spans(docs, detect_spans(docs, {"num": r"[0-9]+"}))
    rows = {r["doc_id"]: r for r in join_crops(docs, crops).take_all()}
    assert rows[1]["crop_id"] != -1 and "99" in rows[1]["crop_text"]
    assert rows[2]["crop_id"] == -1 and rows[2]["crop_text"] == ""


def test_two_phase_neardup_clusters_crops(ray_session, tmp_path):
    """M5: the SAME span text planted in many documents clusters at the
    crop level even though the parent pages are distinct."""
    from fastdup_ray.config import DedupConfig
    from fastdup_ray.pipelines.neardup import NearDupPipeline
    from fastdup_ray.stages.spans import two_phase_neardup

    rng = np.random.default_rng(0)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    # digit-bearing tokens appear ONLY in the planted span, so the
    # detector pattern delimits it identically in every document
    planted = " ".join(f"tok{i}" for i in range(12))
    rows = []
    for d in range(12):
        filler = " ".join(rng.choice(vocab, 40))
        # half the docs carry the identical planted span
        body = f"{filler} {planted} {filler}" if d % 2 == 0 else filler
        rows.append((d, f"http://site{d}/p", body))
    docs = _docs_ds(rows)
    pipe = NearDupPipeline(DedupConfig(), work_dir=str(tmp_path))
    res = two_phase_neardup(
        docs, {"code": r"(?:tok[0-9]+ ?)+"}, pipe, margin_frac=0.0,
        input_token="two-phase-test", resume=False)
    comps = res.connected_components().take_all()
    # all 6 planted crops form one component
    sizes = {}
    for r in comps:
        sizes[r["component_id"]] = sizes.get(r["component_id"], 0) + 1
    assert max(sizes.values(), default=0) == 6


# ------------------------------------------------- S10/K8/K9 COCO + CVAT
def _annot_table():
    return pa.table({
        "url": pa.array(["pageB", "pageA", "pageA"], pa.string()),
        "label": pa.array(["body", "title", "body"], pa.string()),
        "span_start": pa.array([40, 0, 10], pa.int64()),
        "row_y": pa.array([0, 0, 2], pa.int64()),
        "span_len": pa.array([100, 8, 25], pa.int64()),
        "height": pa.array([1, 1, 3], pa.int64()),
    })


def test_coco_roundtrip(ray_session, tmp_path):
    from fastdup_ray.sources.coco import (
        coco_dict_to_table, export_coco, read_coco_annotations)

    path = str(tmp_path / "ann.json")
    written = export_coco(_annot_table(), path)
    # dense 1-based ids, categories sorted by name (reference
    # models_utils.py:60-71 contract)
    assert [c["name"] for c in written["categories"]] == ["body", "title"]
    assert [im["id"] for im in written["images"]] == [1, 2]
    with open(path) as f:
        assert json.load(f) == written

    back = read_coco_annotations(path).take_all()
    orig = sorted(_annot_table().to_pylist(),
                  key=lambda r: (r["url"], r["span_start"]))
    got = sorted(back, key=lambda r: (r["url"], r["span_start"]))
    assert got == orig


def test_coco_import_validates(ray_session):
    from fastdup_ray.sources.coco import coco_dict_to_table

    with pytest.raises(ValueError, match="missing 'images'"):
        coco_dict_to_table({"annotations": [], "categories": []})
    with pytest.raises(ValueError, match="unknown image_id"):
        coco_dict_to_table({
            "images": [], "categories": [],
            "annotations": [{"id": 1, "image_id": 9, "category_id": 1,
                             "bbox": [0, 0, 1, 1]}],
        })


def test_cvat_export_xml(ray_session, tmp_path):
    from fastdup_ray.sources.coco import export_cvat

    path = str(tmp_path / "annotations.xml")
    export_cvat(_annot_table(), path)
    root = ET.parse(path).getroot()
    assert root.tag == "annotations"
    images = root.findall("image")
    assert [im.get("name") for im in images] == ["pageA", "pageB"]
    boxes = images[0].findall("box")
    assert {b.get("label") for b in boxes} == {"title", "body"}
    b0 = [b for b in boxes if b.get("label") == "title"][0]
    assert b0.get("xtl") == "0" and b0.get("xbr") == "8"
