"""Pipeline-layer A/B: perfbench/run.py at a git ref vs this checkout.

Exports <ref> with `git archive` into a temporary directory, links its
perfbench/_work/cache to this checkout's (so both sides read the same
cached inputs), then runs `perfbench/run.py --trace 0` for both trees in
interleaved pairs: for every seed and workload one run of each side,
back to back, with the order alternating per seed (ref first on odd
seeds, checkout first on even ones), so slow drifts of a shared host
fall on both sides alike.

For each workload and each end-to-end metric of BENCHMARK.json it prints
the median at <ref> and at the checkout, their relative change, the
interquartile range of the <ref> runs, how many pairs the checkout won
(better strictly, in the metric's declared direction) and the failed
operation counts of each side. Run from the repo root:

    python3 tools/bench_ab.py HEAD~1 --seeds 1-8 --seconds 20 \\
        [--workloads skew_longdocs,daily_increment] [--json out.json]

Nothing under perfbench/ is changed; the runs' own scratch files go to
each tree's perfbench/_work as usual. Exit status 0 when every run
produced its metrics line, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from statistics import median, quantiles

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(spec: str) -> list[int]:
    """'1-8' or '1,3,5' (or a mix: '1-4,9')."""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def export_tree(ref: str, dest: str) -> None:
    """`git archive <ref>` unpacked into dest, with the checkout's input
    cache linked in."""
    archive = subprocess.run(["git", "-C", REPO, "archive", ref],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    cache = os.path.join(REPO, "perfbench", "_work", "cache")
    os.makedirs(cache, exist_ok=True)
    os.makedirs(os.path.join(dest, "perfbench", "_work"), exist_ok=True)
    os.symlink(cache, os.path.join(dest, "perfbench", "_work", "cache"))


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in `root`; its metrics line, or a failure record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
        return {"ok": True, "failed": out["failed"], "attempted": out["attempted"],
                "metrics": {k: v["value"] for k, v in out["metrics"].items()}}
    except (IndexError, KeyError, ValueError):
        sys.stderr.write(proc.stderr[-2000:])
        return {"ok": False, "failed": 0, "attempted": 0, "metrics": {}}


def summarize(runs: list[dict], spec: dict) -> list[str]:
    """One line per workload and end-to-end metric."""
    rows = [f"{'workload':16} {'metric':14} {'ref':>10} {'head':>10} "
            f"{'change':>8} {'ref IQR':>9} {'wins':>6} {'failed ref/head':>16}"]
    for wl in sorted({r["workload"] for r in runs}):
        pairs = [r for r in runs if r["workload"] == wl]
        fails = {side: sum(p[side]["failed"] + (not p[side]["ok"]) for p in pairs)
                 for side in ("ref", "head")}
        tries = {side: sum(max(p[side]["attempted"], 1) for p in pairs)
                 for side in ("ref", "head")}
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            both = [(p["ref"]["metrics"][name], p["head"]["metrics"][name])
                    for p in pairs
                    if name in p["ref"]["metrics"] and name in p["head"]["metrics"]]
            if not both:
                continue
            a = [x for x, _ in both]
            b = [y for _, y in both]
            ma, mb = median(a), median(b)
            q = quantiles(a, n=4, method="inclusive") if len(a) > 1 else [ma, ma, ma]
            wins = sum((y < x) if lower else (y > x) for x, y in both)
            change = (mb - ma) / ma if ma else 0.0
            rows.append(
                f"{wl:16} {name:14} {ma:10.4g} {mb:10.4g} {change:+8.1%} "
                f"{q[2] - q[0]:9.3g} {wins:>3}/{len(both):<2} "
                f"{fails['ref']:>7}/{tries['ref']:<3} {fails['head']}/{tries['head']}")
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("ref", help="git ref to compare this checkout against")
    ap.add_argument("--seeds", default="1-8", help="e.g. 1-8 or 1,3,5")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: every BENCHMARK.json workload")
    ap.add_argument("--json", default=None, help="write every run's metrics here")
    args = ap.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    tmp = tempfile.mkdtemp(prefix="bench_ab_")
    runs = []
    try:
        ref_root = os.path.join(tmp, "ref")
        os.makedirs(ref_root)
        export_tree(args.ref, ref_root)
        for seed in parse_seeds(args.seeds):
            order = ("ref", "head") if seed % 2 else ("head", "ref")
            for wl in workloads:
                rec = {"workload": wl, "seed": seed, "order": list(order)}
                for side in order:
                    rec[side] = run_once(ref_root if side == "ref" else REPO,
                                         wl, seed, args.seconds)
                runs.append(rec)
                print(json.dumps(rec), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if args.json:
            with open(args.json, "w") as fh:
                json.dump({"ref": args.ref, "seconds": args.seconds, "runs": runs},
                          fh, indent=1)
    print("\n".join(summarize(runs, spec)))
    return 0 if all(r[s]["ok"] for r in runs for s in ("ref", "head")) else 1


if __name__ == "__main__":
    sys.exit(main())
