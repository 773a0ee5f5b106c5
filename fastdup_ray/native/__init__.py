"""Native extract, sign and verify kernels: `kernels.c`, built with the
system C compiler (`cc -O3 -fPIC -shared`) on first use and loaded
through ctypes.

The library goes to `_build/<source sha>-<machine>.so` beside this file,
or, when that directory is not writable, to a per-user directory under
`tempfile.gettempdir()`. A build holds an exclusive `flock` on
`<library>.lock` while it checks for the library and compiles it, so
processes that start at once (Ray workers) compile it once; it writes a
temporary name and `os.replace`s it, so no process loads a partial file.
Each process opens the library once, lazily, in `_lib()`: nothing that
Ray pickles holds a ctypes handle.

On x86-64 `minhash` is compiled for x86-64-v4, x86-64-v3 and the
baseline, and the loader picks the clone the CPU supports; the kernels
use integer arithmetic only, so every clone returns the same bits.
A failed build raises with the compiler command and its stderr.
"""

from __future__ import annotations

import ctypes
import fcntl
import functools
import hashlib
import os
import platform
import subprocess
import tempfile
import threading

import numpy as np

_DIR = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(_DIR, "kernels.c")
CFLAGS = ("-O3", "-fPIC", "-shared")


def build(out_dir: str, defines: tuple[str, ...] = ()) -> str:
    """Path of `kernels.c` compiled with the -D `defines` into `out_dir`,
    compiling it only when that file does not exist yet."""
    with open(SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read() + repr(defines).encode()).hexdigest()[:16]
    path = os.path.join(out_dir, f"{key}-{platform.machine()}.so")
    if os.path.exists(path):
        return path
    os.makedirs(out_dir, exist_ok=True)
    with open(f"{path}.lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if os.path.exists(path):
            return path
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        cmd = ["cc", *CFLAGS, *(f"-D{d}" for d in defines), "-o", tmp, SOURCE]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode:
                raise RuntimeError(f"building the native kernels failed: "
                                   f"{' '.join(cmd)}\n{proc.stderr}")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return path


def build_dir() -> str:
    """`_build/` beside this file when writable, else a per-user
    directory under the system temporary directory."""
    local = os.path.join(_DIR, "_build")
    try:
        os.makedirs(local, exist_ok=True)
        if os.access(local, os.W_OK):
            return local
    except OSError:
        pass
    return os.path.join(tempfile.gettempdir(), f"fastdup_ray-native-{os.getuid()}")


_P = ctypes.c_void_p
_I = ctypes.c_int64


def load(path: str) -> ctypes.CDLL:
    """The library at `path` with its kernels' argument types set."""
    lib = ctypes.CDLL(path)
    lib.shingle_hashes.argtypes = [_P, _P, _I, _I, _P]
    lib.minhash.argtypes = [_P, _P, _I, _P, _P, _I, _P]
    lib.intersect_counts.argtypes = [_P, _P, _P, _P, _P, _P, _I, _P]
    lib.html_space_table.argtypes = [_I, _P]
    for fn in (lib.shingle_hashes, lib.minhash, lib.intersect_counts,
               lib.html_space_table):
        fn.restype = None
    lib.html_text.argtypes = [_P, _P, _I, _I, _P, _P, _P, _P]
    lib.html_events.argtypes = [_P, _I, _I, _P, _I]
    lib.html_text.restype = lib.html_events.restype = _I
    return lib


@functools.lru_cache(maxsize=None)
def _lib() -> ctypes.CDLL:
    return load(build(build_dir()))


def _c(arr, dtype) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=dtype)


def _check_ranges(starts: np.ndarray, ends: np.ndarray, size: int) -> None:
    """Raise unless every range [starts[i], ends[i]) lies inside an array
    of `size` elements: the kernels read through these bounds."""
    if starts.shape != ends.shape:
        raise ValueError("range starts and ends differ in length")
    if starts.size and not ((starts >= 0) & (starts <= ends) & (ends <= size)).all():
        raise ValueError(f"a range lies outside its {size}-element array")


def shingle_hashes(data, offsets, k: int, lib=None):
    """(hashes uint32[total], out_offsets int64[n+1]) of every k-byte
    window inside each doc data[offsets[i]:offsets[i+1]] (absolute
    offsets into the uint8 array `data`); doc i's hashes are
    hashes[out_offsets[i]:out_offsets[i+1]]."""
    if k < 1:
        raise ValueError(f"shingle size must be >= 1, got {k}")
    data = _c(data, np.uint8)
    offsets = _c(offsets, np.int64)
    _check_ranges(offsets[:-1], offsets[1:], data.shape[0])
    n = offsets.shape[0] - 1
    out_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.maximum(np.diff(offsets) - (k - 1), 0), out=out_off[1:])
    out = np.empty(int(out_off[-1]), dtype=np.uint32)
    (lib or _lib()).shingle_hashes(data.ctypes.data, offsets.ctypes.data, n, k,
                                   out.ctypes.data)
    return out, out_off


def minhash(hashes, offsets, a, b, lib=None) -> np.ndarray:
    """sig uint32[n, len(a)]: per doc and permutation p, the minimum of
    ((a[p] * x + b[p]) mod 2^64) >> 32 over the doc's hashes x
    (hashes[offsets[i]:offsets[i+1]]); 0xFFFFFFFF for an empty doc."""
    hashes = _c(hashes, np.uint32)
    offsets = _c(offsets, np.int64)
    a = _c(a, np.uint64)
    b = _c(b, np.uint64)
    _check_ranges(offsets[:-1], offsets[1:], hashes.shape[0])
    if a.shape != b.shape:
        raise ValueError("permutation arrays a and b differ in length")
    n = offsets.shape[0] - 1
    sig = np.empty((n, a.shape[0]), dtype=np.uint32)
    (lib or _lib()).minhash(hashes.ctypes.data, offsets.ctypes.data, n,
                            a.ctypes.data, b.ctypes.data, a.shape[0],
                            sig.ctypes.data)
    return sig


def intersect_counts(vals_a, sa, ea, vals_b, sb, eb, lib=None) -> np.ndarray:
    """int64 |vals_a[sa[i]:ea[i]] & vals_b[sb[i]:eb[i]]| per i, for
    sorted-unique uint32 ranges."""
    vals_a = _c(vals_a, np.uint32)
    vals_b = _c(vals_b, np.uint32)
    sa, ea, sb, eb = (_c(x, np.int64) for x in (sa, ea, sb, eb))
    _check_ranges(sa, ea, vals_a.shape[0])
    _check_ranges(sb, eb, vals_b.shape[0])
    if sa.shape != sb.shape:
        raise ValueError("the two sides have different numbers of ranges")
    counts = np.empty(sa.shape[0], dtype=np.int64)
    (lib or _lib()).intersect_counts(
        vals_a.ctypes.data, sa.ctypes.data, ea.ctypes.data,
        vals_b.ctypes.data, sb.ctypes.data, eb.ctypes.data,
        sa.shape[0], counts.ctypes.data)
    return counts


# html_text page status codes and html_events chunk kinds (kernels.c).
HT_OK, HT_EMPTY, HT_DECODE, HT_NO_TEXT, HT_DEFER = range(5)
EV_RAW, EV_UNESCAPE, EV_FLUSH = range(3)


def html_text(data, offsets, digit_limit: int, lib=None):
    """Extracted text of each page data[offsets[i]:offsets[i+1]] (absolute
    offsets into the uint8 array `data`), as (text uint8[·], text_offsets
    int64[n+1], n_chars int64[n], status int8[n]): page i's UTF-8 text is
    text[text_offsets[i]:text_offsets[i+1]], n_chars[i] code points long,
    and status[i] is one of the HT_* codes. Only HT_OK pages have text;
    HT_DEFER pages keep a chunk that needs `html.unescape` (see
    `html_events`). `digit_limit` is `sys.get_int_max_str_digits()`."""
    data = _c(data, np.uint8)
    offsets = _c(offsets, np.int64)
    _check_ranges(offsets[:-1], offsets[1:], data.shape[0])
    n = offsets.shape[0] - 1
    out = np.empty(int(offsets[-1] - offsets[0]), dtype=np.uint8)
    out_off = np.empty(n + 1, dtype=np.int64)
    n_chars = np.empty(n, dtype=np.int64)
    status = np.empty(n, dtype=np.int8)
    if (lib or _lib()).html_text(data.ctypes.data, offsets.ctypes.data, n, digit_limit,
                                 out.ctypes.data, out_off.ctypes.data,
                                 n_chars.ctypes.data, status.ctypes.data):
        raise RuntimeError("html_text wrote past its output buffer")
    return out[: out_off[-1]], out_off, n_chars, status


def html_events(page, digit_limit: int, lib=None):
    """int64[m, 3] rows (kind, start, end) of the chunks the extractor
    keeps from one page's bytes and the block ends between them (EV_*
    kinds; chunk i is page[start:end]), or None when the page is a
    decode error."""
    page = _c(np.frombuffer(page, dtype=np.uint8) if isinstance(page, bytes) else page,
              np.uint8)
    # each kept chunk takes at least one byte and precedes at most one flush
    ev = np.empty(6 * page.shape[0] + 6, dtype=np.int64)
    m = (lib or _lib()).html_events(page.ctypes.data, page.shape[0], digit_limit,
                                    ev.ctypes.data, ev.shape[0])
    if m == -1:
        return None
    if m < 0:
        raise RuntimeError("html_events wrote past its output buffer")
    return ev[:m].reshape(-1, 3)


def html_space_table(n: int = 0x110000, lib=None) -> np.ndarray:
    """bool[n]: the scanner's `str.isspace` for code points 0..n-1."""
    out = np.empty(n, dtype=np.uint8)
    (lib or _lib()).html_space_table(n, out.ctypes.data)
    return out.astype(bool)
