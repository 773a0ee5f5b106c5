"""Kernel-layer A/B: the extract, sign and verify kernels of a git ref vs
HEAD.

Exports <ref> with `git archive` into a temporary directory, then runs the
same five kernels from that tree and from this checkout, each in its own
single-core Python process, on the skew_longdocs pages the benchmark
caches (perfbench/_work/cache/<version>/skew-s<seed>/full):

  extract     stages.extract.HtmlExtractStage (default min_text_len) over
              the pages: the whole docs table is compared, column by column
  hash64      functions.hashing.hash64_segmented over every whitespace token
  simhash     functions.simhash.simhash64 over every doc text
  sign        stages.signatures.SignStage (default config) over the docs
  verify      stages.verify._exact_scores_block, each doc against its next
              8 docs (the benchmark kernel table's pair pattern)

It asserts that both sides produce byte-equal outputs and prints one row
per kernel: rows/s at <ref>, rows/s at HEAD and their ratio (median of
--repeats timed calls). Run from the repo root, after one benchmark run
has cached the inputs:

    python3 perfbench/run.py --workload skew_longdocs --seed 1 --seconds 5
    python3 tools/kernel_ab.py HEAD~1 [--pages DIR] [--repeats 5]

Exit status 0 when every output matches, 1 otherwise.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNELS = ("extract", "hash64", "simhash", "sign", "verify")


def _timed(fn, repeats: int):
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return median(times), out


def _columns(name: str, table) -> dict:
    """name.<column>.* numpy arrays that are byte-equal exactly when two
    tables hold the same values: each column's null mask, plus its values
    (strings and binaries as their bytes and zero-based offsets)."""
    import numpy as np
    import pyarrow as pa

    from fastdup_ray.functions.hashing import string_bytes_view

    arrays = {}
    for col in table.column_names:
        arr = table[col].combine_chunks()
        key = f"{name}.{col}"
        arrays[key + ".null"] = np.asarray(arr.is_null())
        if pa.types.is_string(arr.type) or pa.types.is_binary(arr.type):
            data, off = string_bytes_view(arr)
            arrays[key + ".bytes"] = data[off[0]:off[-1]]
            arrays[key + ".off"] = off - off[0]
        else:
            arrays[key] = arr.to_numpy(zero_copy_only=False)
    return arrays


def run_side(root: str, pages_dir: str, out: str, repeats: int) -> None:
    """Child process: run the five kernels from `root`'s fastdup_ray and
    save outputs (npz) and timings (json) under the `out` prefix."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, root)
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fastdup_ray.config import DedupConfig
    from fastdup_ray.functions.hashing import hash64_segmented, string_bytes_view
    from fastdup_ray.functions.simhash import simhash64
    from fastdup_ray.stages.extract import HtmlExtractStage
    from fastdup_ray.stages.shingles import list_column_arrays
    from fastdup_ray.stages.signatures import SignStage, signatures_to_matrix
    from fastdup_ray.stages.verify import _exact_scores_block

    cfg = DedupConfig()
    pages = pq.read_table(pages_dir)
    extract = HtmlExtractStage(cfg.min_text_len)
    docs = extract(pages)
    docs = docs.filter(docs["is_valid"])
    texts = docs["text"]
    toks = pa.array([t for doc in texts.to_pylist() for t in doc.split()], pa.string())
    tok_data, tok_off = string_bytes_view(toks)

    sign = SignStage(cfg)
    sigs = sign(docs)
    off, val = list_column_arrays(sigs["shingles"])
    n = sigs.num_rows
    i = np.repeat(np.arange(n), 8)
    j = (i + np.tile(np.arange(1, 9), n)) % n

    def verify():
        res = np.zeros(i.size)
        _exact_scores_block(val, off[i], off[i + 1], val, off[j], off[j + 1],
                            res, np.arange(i.size))
        return res

    runs = {
        "extract": (pages.num_rows, lambda: extract(pages)),
        "hash64": (tok_off.size - 1, lambda: hash64_segmented(tok_data, tok_off)),
        "simhash": (len(texts), lambda: simhash64(texts)),
        "sign": (docs.num_rows, lambda: sign(docs)),
        "verify": (i.size, verify),
    }
    rates, outputs = {}, {}
    for name in KERNELS:
        rows, fn = runs[name]
        secs, res = _timed(fn, repeats)
        rates[name] = rows / secs
        if name == "extract":
            outputs.update(_columns(name, res))
        elif name == "sign":
            ids, sig = signatures_to_matrix(res)
            so, sv = list_column_arrays(res["shingles"])
            outputs.update({
                "sign.doc_id": ids, "sign.minhash": sig,
                "sign.simhash": res["simhash"].to_numpy(),
                "sign.n_shingles": res["n_shingles"].to_numpy(),
                "sign.shingles_off": so, "sign.shingles_val": sv})
        else:
            outputs[name] = np.asarray(res)
    np.savez(out + ".npz", **outputs)
    with open(out + ".json", "w") as fh:
        json.dump(rates, fh)


def _default_pages() -> str | None:
    found = sorted(glob.glob(os.path.join(
        REPO, "perfbench", "_work", "cache", "*", "skew-s*", "full")))
    return found[0] if found else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("ref", help="git ref to compare HEAD against")
    ap.add_argument("--pages", default=None,
                    help="pages Parquet directory (default: cached skew_longdocs)")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--side", help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.side:
        run_side(args.side, args.pages, args.out, args.repeats)
        return 0

    import numpy as np

    pages = args.pages or _default_pages()
    if not pages:
        print("no cached skew_longdocs pages; run perfbench/run.py "
              "--workload skew_longdocs once or pass --pages", file=sys.stderr)
        return 2
    tmp = tempfile.mkdtemp(prefix="kernel_ab-")
    try:
        ref_root = os.path.join(tmp, "ref")
        os.makedirs(ref_root)
        archive = subprocess.run(["git", "-C", REPO, "archive", args.ref],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", ref_root], input=archive, check=True)
        results = {}
        for side, root in (("ref", ref_root), ("head", REPO)):
            prefix = os.path.join(tmp, side)
            subprocess.run([sys.executable, os.path.abspath(__file__), args.ref,
                            "--side", root, "--pages", pages, "--out", prefix,
                            "--repeats", str(args.repeats)], check=True)
            with open(prefix + ".json") as fh:
                rates = json.load(fh)
            results[side] = (rates, dict(np.load(prefix + ".npz")))
        (r_rates, r_out), (h_rates, h_out) = results["ref"], results["head"]
        ok = True
        print(f"{'kernel':<12} {'ref rows/s':>12} {'HEAD rows/s':>12} "
              f"{'speedup':>8}  outputs")
        for name in KERNELS:
            keys = sorted(k for k in r_out if k.split(".")[0] == name)
            same = keys == sorted(k for k in h_out if k.split(".")[0] == name) and all(
                r_out[k].dtype == h_out[k].dtype and r_out[k].shape == h_out[k].shape
                and r_out[k].tobytes() == h_out[k].tobytes() for k in keys)
            ok &= same
            print(f"{name:<12} {r_rates[name]:>12.0f} {h_rates[name]:>12.0f} "
                  f"{h_rates[name] / r_rates[name]:>7.2f}x  "
                  f"{'identical' if same else 'DIFFER'}")
        return 0 if ok else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
