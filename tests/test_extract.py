"""Extraction byte-identity (north-rule invariant), the native HTML text
kernel against the stdlib extractor it replaced, and generator sanity —
no Ray."""

import re

import kernel_refs as ref
import numpy as np
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastdup_ray import native

from fastdup_ray.sources.pages import (
    canonicalize_text,
    pages_from_documents,
    render_html,
    synthesize_pages,
)
from fastdup_ray.stages.extract import (
    ERR_DECODE,
    ERR_EMPTY,
    ERR_OK,
    ERR_TOO_SHORT,
    HtmlExtractStage,
    extract_text,
)


def test_roundtrip_byte_identical():
    text = "alpha beta <gamma> & \"delta\" " + " ".join(f"tok{i}" for i in range(120))
    canonical = canonicalize_text(text)
    html = render_html(text, "a <title> & stuff", "site0001")
    extracted, err = extract_text(html)
    assert err == ERR_OK
    assert extracted == canonical  # byte-identical


def test_extract_corrupted_classes():
    text = " ".join(f"w{i}" for i in range(100))
    assert extract_text(b"")[1] == ERR_EMPTY
    assert extract_text(render_html(text, "t", "s", corrupted=2))[1] == ERR_DECODE
    trunc_text, trunc_err = extract_text(render_html(text, "t", "s", corrupted=1))
    # truncated html may yield partial or no text, but never crashes
    assert isinstance(trunc_text, str)


def test_synthesize_pages_classes_and_extraction():
    pages, truth = synthesize_pages(400, seed=42)
    assert pages.num_rows == truth.num_rows
    assert pages.column_names == ["url", "warc_ts", "html", "text", "lang"]
    classes = set(truth["cls"].to_pylist())
    assert {"unique", "exact_dup", "near_dup", "boilerplate", "corrupted", "tiny"} <= classes
    # determinism
    pages2, _ = synthesize_pages(400, seed=42)
    assert pages.equals(pages2)

    stage = HtmlExtractStage(min_text_len=20)
    out = stage(pages)
    assert out.num_rows == pages.num_rows
    gt = pages["text"].to_pylist()
    got = out["text"].to_pylist()
    cls = truth["cls"].to_pylist()
    valid = out["is_valid"].to_pylist()
    errs = out["error_code"].to_pylist()
    for i in range(len(gt)):
        if cls[i] == "corrupted":
            assert not valid[i] and errs[i] != ERR_OK
        elif cls[i] == "tiny":
            assert not valid[i] and errs[i] == "TOO_SHORT"
            assert got[i] == gt[i]  # still extracted byte-identically
        else:
            assert valid[i], f"row {i} cls={cls[i]} err={errs[i]}"
            assert got[i] == gt[i], f"row {i} not byte-identical"
    # doc_ids unique and deterministic
    ids = out["doc_id"].to_pylist()
    assert len(set(ids)) == len(ids)
    out2 = HtmlExtractStage(20)(pages)
    assert out2["doc_id"].to_pylist() == ids


# ------------------------------------------- native kernel vs the stdlib
_TAG_NAMES = sorted(ref._SKIP_TAGS | ref._BLOCK_TAGS) + ["b", "a", "br", "x"]
_SPACES = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
           " ", " ", " ", "　"]
_TOKENS = (
    list("<>/!-?[]&#;='\"") + _SPACES
    + ["<!--", "-->", "--", "<![", "]]>", "CDATA[", "if", "endif", "<!doctype", "<?",
       "</", "/>", "&amp;", "&nbsp;", "&#65;", "&#x41;", "&#", "&lt", "&copy",
       "ſ", "K", "İ", "ı", "\x00", "a", "x", "1", "text", "é",
       "日"]
    + [v for name in _TAG_NAMES for v in (name, name.upper(), name.title())]
)
_BAD_UTF8 = [b"\xff", b"\xc3", b"\xc0\xaf", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\xe2\x82"]
_HTML = st.lists(
    st.one_of(
        st.sampled_from(_TOKENS).map(lambda t: t.encode()),
        st.sampled_from(_BAD_UTF8),
        st.characters().map(lambda c: c.encode("utf-8", "surrogatepass")),
    ),
    max_size=40,
).map(b"".join)


@settings(max_examples=1500, deadline=None)
@given(_HTML)
@example(b"<b>x</b>&nbsp;<i>y</i>")  # a chunk that is whitespace after unescape
@example("<!--c-- >x".encode())  # \s in --\s*> is str.isspace
@example(b"<a b='c>d</a><p =='x>t")  # start tag remainders that become data
@example(b"<p a=='x>t")  # an unclosed quote: sre gives back one '='
@example(b"<p a= 'x>t")  # ... or one whitespace character
@example(b"a < b<p>c <3")  # a '<' that starts no construct
@example(b"<p>a</p><script>x<p>b")  # an unclosed script swallows the page
@example("<script>x</ſcript><p>y</script>z".encode())  # re.I closes, endtagfind not
@example(b"<p>ok</p><![foo x")  # _markupbase raises: DECODE_ERROR
@example(b"abc<![")  # a bare <![ at the end of the page is text
@example(b"<p>a\x00b</p>")  # NUL bytes are kept
@example(b"<p>caf\xc3</p>")  # invalid UTF-8
@example(b"<nav>&#" + b"1" * 4301 + b";</nav>text")  # unescape raises in a skipped chunk
@example(b"<a href='&#" + b"1" * 4301 + b"'>x</a>")  # ... and in an attribute value
@example(b"<p>&#" + b"1" * 4300 + b";</p>")  # one digit fewer converts
def test_html_kernel_matches_stdlib_extractor(html):
    assert extract_text(html) == ref.extract_text(html)


def test_html_kernel_whitespace_is_str_isspace():
    table = native.html_space_table()
    chars = "".join(map(chr, range(0x110000)))
    want = np.array([c.isspace() for c in chars])
    assert table.tolist() == want.tolist()
    assert np.flatnonzero(want).tolist() == [ord(c) for c in re.findall(r"\s", chars)]


def test_html_kernel_raw_text_end_folds_case_like_re():
    """An end tag spelled with any code point that re.I matches to a
    letter of script/style ends the raw text exactly when the stdlib
    parser does (only ASCII letters do)."""
    chars = "".join(chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF)
    for name in ("script", "style"):
        for pos, letter in enumerate(name):
            for c in re.findall(letter, chars, re.I):
                end = name[:pos] + c + name[pos + 1:]
                html = f"<{name}>x</{end}><p>in</{name} >out".encode()
                assert extract_text(html) == ref.extract_text(html), end


def _layout_pages():
    pages, _ = synthesize_pages(60, seed=5)
    html = pages["html"].to_pylist() + [
        b"<b>x</b>&nbsp;<i>y</i> and more text here",
        "<p>été &amp; café 日本語</p>".encode(),
        b"<p>short</p>", b"", b"<p>a\x00b and long enough text</p>", b"<![foo x",
    ]
    n = len(html)
    return pa.table({
        "url": pa.array([f"https://x.example/{i}" for i in range(n)]),
        "warc_ts": pa.array(np.arange(n), pa.int64()).cast(pa.timestamp("us")),
        "html": pa.array(html, pa.binary()),
        "lang": pa.array(["en"] * n),
    })


def _check_rows(out, html_rows, min_text_len=20):
    assert out.num_rows == len(html_rows)
    for row, raw in zip(out.to_pylist(), html_rows):
        raw = raw or b""
        text, err = ref.extract_text(raw)
        if err == ERR_OK and len(text) < min_text_len:
            err = ERR_TOO_SHORT
        assert (row["text"], row["error_code"], row["n_bytes"], row["is_valid"]) == (
            text, err, len(raw), err == ERR_OK)


def test_html_kernel_arrow_layouts():
    """The batch kernel reads the html column's buffers: chunked, sliced,
    large_binary, binary with nulls and string-typed columns all match
    the stdlib extractor row by row."""
    pages = _layout_pages()
    rows = pages["html"].to_pylist()
    stage = HtmlExtractStage(20)
    _check_rows(stage(pages), rows)
    chunked = pa.concat_tables([pages.slice(0, 7), pages.slice(7, 30), pages.slice(37)])
    assert chunked["html"].num_chunks == 3
    _check_rows(stage(chunked), rows)
    sliced = pages.slice(11, 40)
    assert sliced["html"].chunk(0).offset == 11
    _check_rows(stage(sliced), rows[11:51])
    large = pages.set_column(2, "html", pages["html"].cast(pa.large_binary()))
    _check_rows(stage(large), rows)
    with_nulls = [None if i % 5 == 0 else r for i, r in enumerate(rows)]
    nulls = pages.set_column(2, "html", pa.array(with_nulls, pa.binary()))
    out = stage(nulls)
    _check_rows(out, with_nulls)
    assert set(out.filter(pa.array([r is None for r in with_nulls]))["error_code"].to_pylist()) \
        == {ERR_EMPTY}
    valid = [r for r in rows if r.decode("utf-8", "replace").encode() == r]
    texts = pa.array([r.decode() for r in valid], pa.string())
    strings = pages.slice(0, len(valid)).set_column(2, "html", texts)
    _check_rows(stage(strings), valid)


def test_min_text_len_counts_characters():
    page = "<p>ééééé</p>".encode()  # 5 characters, 10 bytes
    batch = pa.table({"url": ["u"], "warc_ts": pa.array([0], pa.timestamp("us")),
                      "html": pa.array([page], pa.binary()), "lang": ["en"]})
    assert HtmlExtractStage(6)(batch)["error_code"].to_pylist() == [ERR_TOO_SHORT]
    assert HtmlExtractStage(5)(batch)["error_code"].to_pylist() == [ERR_OK]
    assert extract_text(None) == ("", ERR_EMPTY)


def test_pages_from_documents_shape():
    import pyarrow.parquet as pq

    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    pages = pages_from_documents(docs, replicate=2, seed=42)
    assert pages.num_rows == 2 * docs.num_rows
    stage = HtmlExtractStage(20)
    out = stage(pages)
    assert out["text"].to_pylist() == pages["text"].to_pylist()
    assert np.mean(out["is_valid"].to_pylist()) > 0.95

