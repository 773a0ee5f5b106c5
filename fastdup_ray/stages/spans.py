"""Span detection, cropping, and the two-phase detect->dedup flow
(SURVEY.md M4/M5/J8).

Reference shape:
  - M5: a detector model (face/object/OCR) runs FIRST to produce crop
    regions, then the whole pipeline re-runs on the crops
    (__init__.py:640-764, fastdup_controller.py:126-144).
  - M4: each annotation row is cropped out of its parent with a default
    20% margin (fastdup_controller.py:1531-1534, __init__.py:640-760).
  - J8: the crops table joins back to the parent annotation table,
    missing rows filled with a placeholder so offsets stay dense
    (fastdup_controller.py:1126-1151).

Text-native analogs over (doc_id, url, text) docs:
  - `RegexDetectStage` — the "detector": a dict of {label: regex}
    compiled ONCE per actor (stateful actor-pool map_batches), emitting
    one span row (doc_id, det_label, span_start, span_len) per match.
    A model-based detector (NER, layout) drops in by replacing the
    stage; the span schema is the contract.
  - `crop_spans` — hash-join spans to their parent text and slice the
    substring with a symmetric margin (margin_frac of the span length
    each side, the 20%-margin analog). Crops get a deterministic id
    (id63 of "url#start+len") so re-runs and resumes agree.
  - `join_crops` — J8: parent docs left-joined to their crops; docs
    with no detection get one placeholder row (crop_id -1), keeping the
    parent table dense.
  - `two_phase_neardup` — M5 end-to-end: detect -> crop -> feed the
    crops table into `NearDupPipeline.run(..., already_extracted=True)`
    so near-dup clustering runs over crops instead of whole pages.

Span positions are Python-str codepoint offsets (matching DuckDB's
`regexp_extract_all` token counting used by the catalog oracle).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from fastdup_ray.functions.hashing import id63
from fastdup_ray.relational.ops import hash_join

SPAN_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("det_label", pa.string()),
    ("span_start", pa.int64()),
    ("span_len", pa.int64()),
])


class RegexDetectStage:
    """M5 "detector" analog: patterns compiled once per actor in
    __init__, per-batch scan in __call__. Regex position extraction is
    inherently per-string (like the reference's per-image model call);
    the pool parallelizes across batches."""

    def __init__(self, patterns: dict[str, str], *, text_col: str = "text",
                 max_spans_per_doc: int = 64, counts_only: bool = False):
        # sorted for deterministic row order across runs
        self.pats = [(lab, re.compile(p))
                     for lab, p in sorted(patterns.items())]
        self.text_col = text_col
        self.cap = max_spans_per_doc
        # counts_only: emit (doc_id, det_label, n_spans) instead of one
        # row per span — partition-local (a doc's matches never cross a
        # block), so per-doc counting needs NO groupby shuffle
        self.counts_only = counts_only

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch[self.text_col].to_pylist()
        if self.counts_only:
            c_id: list[int] = []
            c_lab: list[str] = []
            c_n: list[int] = []
            for i, t in zip(ids, texts):
                t = t or ""
                for lab, rx in self.pats:
                    n = sum(1 for _ in rx.finditer(t))
                    if n:
                        c_id.append(i)
                        c_lab.append(lab)
                        c_n.append(min(n, self.cap))
            return pa.table({
                "doc_id": pa.array(c_id, pa.int64()),
                "det_label": pa.array(c_lab, pa.string()),
                "n_spans": pa.array(c_n, pa.int64()),
            })
        out_id: list[int] = []
        out_lab: list[str] = []
        out_s: list[int] = []
        out_l: list[int] = []
        for i, t in zip(ids, texts):
            t = t or ""
            for lab, rx in self.pats:
                for n, m in enumerate(rx.finditer(t)):
                    if n >= self.cap:  # hot-doc cap: bound skew like the
                        break          # LSH bucket star-cap
                    out_id.append(i)
                    out_lab.append(lab)
                    out_s.append(m.start())
                    out_l.append(m.end() - m.start())
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "det_label": pa.array(out_lab, pa.string()),
            "span_start": pa.array(out_s, pa.int64()),
            "span_len": pa.array(out_l, pa.int64()),
        })


def detect_spans(docs, patterns: dict[str, str], *, text_col: str = "text",
                 concurrency: int = 4, batch_size: int = 1024,
                 max_spans_per_doc: int = 64):
    """docs (doc_id, text, ...) -> spans (doc_id, det_label,
    span_start, span_len)."""
    return docs.map_batches(
        RegexDetectStage,
        fn_constructor_kwargs={
            "patterns": patterns, "text_col": text_col,
            "max_spans_per_doc": max_spans_per_doc,
        },
        # (1, N) autoscaling pool: fixed pools deadlock when N == cluster
        # CPUs (actors starve the upstream read) — cf. embed_documents
        batch_format="pyarrow", concurrency=(1, concurrency),
        batch_size=batch_size,
    )


def count_spans(docs, patterns: dict[str, str], *, text_col: str = "text",
                concurrency: int = 4, batch_size: int = 1024,
                max_spans_per_doc: int = 1_000_000):
    """docs -> (doc_id, det_label, n_spans), zero-match rows omitted.
    Shuffle-free: counting happens inside the detect stage."""
    return docs.map_batches(
        RegexDetectStage,
        fn_constructor_kwargs={
            "patterns": patterns, "text_col": text_col,
            "max_spans_per_doc": max_spans_per_doc, "counts_only": True,
        },
        batch_format="pyarrow", concurrency=(1, concurrency),
        batch_size=batch_size,
    )


def crop_spans(docs, spans, *, margin_frac: float = 0.2,
               text_col: str = "text"):
    """M4 analog: slice each span (± margin) out of its parent text.

    docs: (doc_id, url, text); spans: SPAN_SCHEMA.
    -> crops (crop_id, doc_id, url, det_label, span_start, span_len,
       crop_start, text) — `text` is the cropped substring, `url` is
       the parent url suffixed "#s{start}+{len}" so crops are unique
       page-like rows ready for `already_extracted` re-ingestion."""
    parents = docs.select_columns(["doc_id", "url", text_col]) \
        .rename_columns({"doc_id": "p_doc"})
    joined = hash_join(spans, parents, on="doc_id", right_on="p_doc")

    _empty = pa.table({
        "crop_id": pa.array([], pa.int64()),
        "doc_id": pa.array([], pa.int64()),
        "url": pa.array([], pa.string()),
        "det_label": pa.array([], pa.string()),
        "span_start": pa.array([], pa.int64()),
        "span_len": pa.array([], pa.int64()),
        "crop_start": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    })

    def slice_crop(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if batch.num_rows == 0:
            return _empty
        start = batch["span_start"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ln = batch["span_len"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        margin = np.round(ln * margin_frac).astype(np.int64)
        lo = np.maximum(start - margin, 0)
        hi = start + ln + margin
        # per-row CODEPOINT slice with per-row bounds (matches the span
        # detector's regex offsets); Arrow's utf8_slice_codeunits only
        # takes scalar bounds, so the slice itself stays a Python loop —
        # crop extraction is per-row in the reference too (image crop
        # per bbox); the stage parallelizes across partitions
        texts = batch[text_col].to_pylist()
        crops = [t[a:b] for t, a, b in zip(texts, lo, hi)]
        url = pc.binary_join_element_wise(
            pc.cast(batch["url"], pa.string()), "#s",
            pc.cast(batch["span_start"], pa.string()), "+",
            pc.cast(batch["span_len"], pa.string()), "")
        if isinstance(url, pa.ChunkedArray):
            url = url.combine_chunks()
        return pa.table({
            "crop_id": pa.array(id63(url.to_pylist()).astype(np.int64)),
            "doc_id": pc.cast(batch["doc_id"], pa.int64()),
            "url": url,
            "det_label": pc.cast(batch["det_label"], pa.string()),
            "span_start": pa.array(start),
            "span_len": pa.array(ln),
            "crop_start": pa.array(lo),
            "text": pa.array(crops, pa.string()),
        })

    return joined.map_batches(slice_crop, batch_format="pyarrow")


def join_crops(docs, crops):
    """J8 analog: parent docs ⟕ crops on doc_id; docs with no crop get
    one placeholder row (crop_id -1, empty label/text) so the parent
    table stays dense (reference fastdup_controller.py:1126-1151)."""
    right = crops.select_columns(
        ["crop_id", "doc_id", "det_label", "text"]
    ).rename_columns({"doc_id": "c_doc", "text": "crop_text"})
    joined = hash_join(
        docs.select_columns(["doc_id", "url"]), right,
        on="doc_id", right_on="c_doc", join_type="left_outer",
    )

    def fill(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "doc_id": pc.cast(batch["doc_id"], pa.int64()),
            "url": pc.cast(batch["url"], pa.string()),
            "crop_id": pc.cast(pc.fill_null(batch["crop_id"], -1),
                               pa.int64()),
            "det_label": pc.fill_null(
                pc.cast(batch["det_label"], pa.string()), ""),
            "crop_text": pc.fill_null(
                pc.cast(batch["crop_text"], pa.string()), ""),
        })

    return joined.map_batches(fill, batch_format="pyarrow")


def two_phase_neardup(docs, patterns: dict[str, str], pipe, *,
                      margin_frac: float = 0.2, input_token: str,
                      resume: bool = True):
    """M5 end-to-end: detect spans -> crop -> near-dup the CROPS.

    pipe: a NearDupPipeline. Crops re-enter as an already-extracted
    docs table keyed by crop_id/crop url (reference two-phase flow:
    __init__.py:640-764 runs the full pipeline again on crops)."""
    spans = detect_spans(docs, patterns)
    crops = crop_spans(docs, spans, margin_frac=margin_frac)

    def as_docs(batch: pa.Table) -> pa.Table:
        out = batch.select(["crop_id", "url", "text"]) \
            .rename_columns(["doc_id", "url", "text"])
        return out.append_column(
            "is_valid", pa.array(np.ones(len(batch), dtype=bool)))

    crop_docs = crops.map_batches(as_docs, batch_format="pyarrow")
    return pipe.run(crop_docs, already_extracted=True,
                    input_token=input_token, resume=resume)
