"""HTML -> text extraction stage: one native scanner call per batch.

Text-native analog of the reference's image decode + validity filter
(reference fastdup/image.py:118-141 decode/resize; invalid/too-small files
-> features.bad.csv, definitions.py:151-153, __init__.py:519-520).

`HtmlExtractStage` is a plain callable for `map_batches(...,
batch_format="pyarrow")`, run as stateless Ray tasks. It hands the whole
batch's `html` column (Arrow data buffer and offsets) to the native
`html_text` kernel (fastdup_ray/native/kernels.c), which reproduces
CPython 3.11's `html.parser` parser (convert_charrefs=True, feed then
close) driving a text extractor: the subtrees of script, style, nav,
footer, header, aside, noscript, head and title are dropped, each p, div,
article, section, li, h1-h4, td or pre tag closes a block, and blocks are
joined with one newline. The kernel never
decodes entities: a page whose kept text has a chunk with `&` is finished
here, chunk by chunk, with `html.unescape`, as the parser does. The stdlib
extractor is the test oracle (tests/kernel_refs.py), so the north-rule
invariant — byte-identical `text` per url — is checked against it.

Output schema (the `docs` table, SURVEY.md §1.2): doc_id int64 (stable
63-bit hash of url, replacing the reference's listing-order dense ids), url,
warc_ts, lang, text, n_bytes, error_code, is_valid. The wide `html`
binary column is dropped here so downstream blocks stay narrow
(SURVEY.md §7.4 "Wide rows").
"""

from __future__ import annotations

import sys
from html import unescape

import numpy as np
import pyarrow as pa

from fastdup_ray import native
from fastdup_ray.functions.hashing import id63, string_bytes_view

ERR_OK = ""
ERR_EMPTY = "EMPTY_HTML"
ERR_DECODE = "DECODE_ERROR"
ERR_NO_TEXT = "NO_TEXT"
ERR_TOO_SHORT = "TOO_SHORT"

# error_code strings by code: the kernel's HT_* statuses, then TOO_SHORT
_CODES = (ERR_OK, ERR_EMPTY, ERR_DECODE, ERR_NO_TEXT)
_TOO_SHORT = len(_CODES)


def _finish(page: bytes, digit_limit: int) -> tuple[str, int]:
    """(text, HT_* status) of a page whose kept text needs
    `html.unescape`: the extractor's chunks and block ends replayed."""
    events = native.html_events(page, digit_limit)
    if events is None:
        return "", native.HT_DECODE
    blocks: list[str] = []
    parts: list[str] = []
    for kind, start, end in events.tolist():
        if kind == native.EV_FLUSH:
            if parts:
                blocks.append("".join(parts))
                parts = []
            continue
        chunk = page[start:end].decode("utf-8")
        if kind == native.EV_UNESCAPE:
            chunk = unescape(chunk)
            if not chunk.strip():
                continue
        parts.append(chunk)
    text = "\n".join(blocks)
    return text, native.HT_OK if text else native.HT_NO_TEXT


def _extract(html) -> tuple[pa.Array, np.ndarray, np.ndarray, np.ndarray]:
    """(text string array, HT_* status int8, n_chars int64, n_bytes int64)
    per page of a string or binary array (chunked, sliced or with nulls;
    a null page is empty)."""
    data, offsets = string_bytes_view(html)
    limit = sys.get_int_max_str_digits()
    out, out_off, n_chars, status = native.html_text(data, offsets, limit)
    n = len(status)
    text = pa.Array.from_buffers(
        pa.large_string(), n, [None, pa.py_buffer(out_off), pa.py_buffer(out)]
    ).cast(pa.string())
    deferred = np.flatnonzero(status == native.HT_DEFER)
    if deferred.size:
        texts = text.to_pylist()
        for r in deferred.tolist():
            texts[r], status[r] = _finish(data[offsets[r]:offsets[r + 1]].tobytes(), limit)
            n_chars[r] = len(texts[r])
        text = pa.array(texts, pa.string())
    return text, status, n_chars, np.diff(offsets)


def extract_text(html_bytes: bytes) -> tuple[str, str]:
    """(text, error_code) for one page. Pure function; no I/O."""
    text, status, _, _ = _extract(pa.array([html_bytes or b""], pa.binary()))
    return text[0].as_py(), _CODES[status[0]]


class HtmlExtractStage:
    """map_batches callable: pages batch (pyarrow) -> docs batch (pyarrow).
    A page with fewer than `min_text_len` characters of text keeps its text
    and is marked TOO_SHORT."""

    def __init__(self, min_text_len: int = 20):
        self.min_text_len = min_text_len

    def __call__(self, batch: pa.Table) -> pa.Table:
        text, status, n_chars, n_bytes = _extract(batch["html"])
        codes = status.astype(np.int64)
        codes[(status == native.HT_OK) & (n_chars < self.min_text_len)] = _TOO_SHORT
        errors = pa.array(_CODES + (ERR_TOO_SHORT,), pa.string()).take(codes)
        return pa.table({
            "doc_id": pa.array(id63(batch["url"]), pa.int64()),
            "url": batch["url"],
            "warc_ts": batch["warc_ts"],
            "lang": batch["lang"],
            "text": text,
            "n_bytes": pa.array(n_bytes, pa.int64()),
            "error_code": errors,
            "is_valid": pa.array(codes == native.HT_OK, pa.bool_()),
        })
