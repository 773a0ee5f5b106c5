"""Reference implementations the tests check the engine against.

The native kernels (fastdup_ray/native/kernels.c) have the bodies the
engine ran before the C kernels replaced them:
tests/test_kernel_properties.py checks the sign and verify kernels
against the numpy ones bit for bit, and tests/test_extract.py the HTML
text kernel against the stdlib `HTMLParser` extractor. Connected
components have a dict-based union-find (`union_find_oracle`)."""

from __future__ import annotations

from html.parser import HTMLParser

import numpy as np

from fastdup_ray.functions.hashing import _pow_u64, mix64, string_bytes_view


def rolling_shingle_hashes(data, k: int) -> np.ndarray:
    """uint32 hashes of every k-byte window of `data`: a k-term
    polynomial accumulated over strided views, mix64, high 32 bits."""
    arr = data if isinstance(data, np.ndarray) else np.frombuffer(data, dtype=np.uint8)
    n = arr.shape[0] - k + 1
    if n <= 0:
        return np.empty(0, dtype=np.uint32)
    coef = _pow_u64(np.uint64(0x100000001B3), np.arange(k - 1, -1, -1, dtype=np.uint64))
    h = np.zeros(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i in range(k):
            h += arr[i : i + n].astype(np.uint64) * coef[i]
    return (mix64(h) >> np.uint64(32)).astype(np.uint32)


def segmented_shingle_hashes(texts, k: int):
    """(hashes uint32[total], offsets int64[n+1]): one rolling pass over
    the concatenated bytes, windows that straddle a doc boundary
    dropped."""
    import pyarrow as pa

    if isinstance(texts, (pa.Array, pa.ChunkedArray)):
        data, abs_off = string_bytes_view(texts)
        blob = data[abs_off[0] : abs_off[-1]]
        lens = np.diff(abs_off)
        n = lens.shape[0]
    else:
        enc = [t.encode("utf-8") if isinstance(t, str) else bytes(t) for t in texts]
        n = len(enc)
        lens = np.fromiter((len(b) for b in enc), count=n, dtype=np.int64)
        blob = np.frombuffer(b"".join(enc), dtype=np.uint8)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.maximum(lens - (k - 1), 0), out=offsets[1:])
    if int(lens.sum()) < k:
        return np.empty(0, dtype=np.uint32), offsets
    all_h = rolling_shingle_hashes(blob, k)
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    keep = np.zeros(all_h.shape[0], dtype=bool)
    for i in range(n):
        m = lens[i] - k + 1
        if m > 0:
            keep[starts[i] : starts[i] + m] = True
    return all_h[keep], offsets


def minhash_signatures(hashes, offsets, a, b, chunk_shingles: int = 32_768):
    """uint32[n, len(a)]: per permutation, np.minimum.reduceat of
    (a*x + b) mod 2^64 over doc ranges, shifted to 32 bits; docs are
    taken in chunks of about `chunk_shingles` hashes."""
    n = len(offsets) - 1
    sig = np.full((n, a.shape[0]), np.uint32(0xFFFFFFFF), dtype=np.uint32)
    if hashes.shape[0] == 0:
        return sig
    h64 = hashes.astype(np.uint64)
    lo_doc = 0
    while lo_doc < n:
        hi_doc = lo_doc + 1
        while hi_doc < n and offsets[hi_doc + 1] - offsets[lo_doc] <= chunk_shingles:
            hi_doc += 1
        seg = h64[offsets[lo_doc] : offsets[hi_doc]]
        if seg.shape[0]:
            rel = offsets[lo_doc : hi_doc + 1] - offsets[lo_doc]
            docs_ne = np.nonzero(np.diff(rel) > 0)[0]
            starts = rel[:-1][docs_ne]
            rows = lo_doc + docs_ne
            buf = np.empty(seg.shape[0], dtype=np.uint64)
            with np.errstate(over="ignore"):
                for p in range(a.shape[0]):
                    np.multiply(seg, a[p], out=buf)
                    np.add(buf, b[p], out=buf)
                    sig[rows, p] = (np.minimum.reduceat(buf, starts)
                                    >> np.uint64(32)).astype(np.uint32)
        lo_doc = hi_doc
    return sig


def _gather_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    cum = np.cumsum(lens)
    return np.arange(total, dtype=np.int64) - np.repeat(cum - lens, lens) + np.repeat(starts, lens)


def intersect_counts(vals_a, sa, ea, vals_b, sb, eb, chunk_elems: int = 256_000):
    """int64 |A_i & B_i| of aligned sorted-unique ranges: each side's
    values keyed (i << 32 | value), one stable sort of the two runs, one
    segment add of the adjacent-equal mask; pairs taken in chunks of
    about `chunk_elems` values."""
    lens_a = ea - sa
    lens_b = eb - sb
    n = lens_a.shape[0]
    tot = lens_a + lens_b
    inter = np.zeros(n, dtype=np.int64)
    lo = 0
    while lo < n:
        hi = lo + 1
        budget = int(tot[lo])
        while hi < n and budget + tot[hi] <= chunk_elems:
            budget += int(tot[hi])
            hi += 1
        la, lb = lens_a[lo:hi], lens_b[lo:hi]
        seg = np.arange(hi - lo, dtype=np.uint64) << np.uint64(32)
        na = int(la.sum())
        keyed = np.empty(budget, dtype=np.uint64)
        keyed[:na] = vals_a[_gather_ranges(sa[lo:hi], la)]
        keyed[:na] |= np.repeat(seg, la)
        keyed[na:] = vals_b[_gather_ranges(sb[lo:hi], lb)]
        keyed[na:] |= np.repeat(seg, lb)
        keyed.sort(kind="stable")
        eq = np.zeros(budget, dtype=np.uint8)
        np.equal(keyed[1:], keyed[:-1], out=eq[:-1].view(bool))
        t = tot[lo:hi]
        nonempty = t > 0
        if nonempty.any():
            starts = np.cumsum(t) - t
            inter[lo:hi][nonempty] = np.add.reduceat(eq, starts[nonempty], dtype=np.int32)
        lo = hi
    return inter


# ------------------------------------------------------------ HTML text
_SKIP_TAGS = frozenset(
    {"script", "style", "nav", "footer", "header", "aside", "noscript", "head", "title"}
)
_BLOCK_TAGS = frozenset({"p", "div", "article", "section", "li", "h1", "h2", "h3", "h4", "td", "pre"})


class _TextExtractor(HTMLParser):
    """Collects text from content blocks, skipping script/style/nav/footer
    etc.; block-level elements are joined with a single newline."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self._skip_depth = 0
        self._chunks: list[str] = []
        self._block_parts: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_TAGS:
            self._skip_depth += 1
        elif tag in _BLOCK_TAGS:
            self._flush_block()

    def handle_endtag(self, tag):
        if tag in _SKIP_TAGS and self._skip_depth > 0:
            self._skip_depth -= 1
        elif tag in _BLOCK_TAGS:
            self._flush_block()

    def handle_data(self, data):
        if self._skip_depth == 0 and data.strip():
            self._block_parts.append(data)

    def _flush_block(self):
        if self._block_parts:
            self._chunks.append("".join(self._block_parts))
            self._block_parts = []

    def result(self) -> str:
        self._flush_block()
        return "\n".join(self._chunks)


def extract_text(html_bytes: bytes) -> tuple[str, str]:
    """(text, error_code) for one page with the stdlib parser: the
    extractor `fastdup_ray.stages.extract` ran before its native kernel."""
    if not html_bytes:
        return "", "EMPTY_HTML"
    try:
        html = html_bytes.decode("utf-8")
    except UnicodeDecodeError:
        return "", "DECODE_ERROR"
    parser = _TextExtractor()
    try:
        parser.feed(html)
        parser.close()
    except Exception:
        return "", "DECODE_ERROR"
    text = parser.result()
    if not text:
        return "", "NO_TEXT"
    return text, ""


def union_find_oracle(pairs) -> dict[int, int]:
    """Dict-based union-find: node -> min-id component label. The
    oracle for connected_components() and min_label_components()."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    seen: set[int] = set()
    for a, b in pairs:
        a, b = int(a), int(b)
        seen.add(a)
        seen.add(b)
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in seen}
