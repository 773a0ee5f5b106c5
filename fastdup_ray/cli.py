"""Job entrypoint: ``python -m fastdup_ray.cli run --input ... --work-dir ...``

This is the script you hand to ``ray job submit`` on a real cluster
(north rule: "run via ray job submit on a fixed-size multi-node Ray
cluster"):

    ray job submit --working-dir . -- \
        python -m fastdup_ray.cli run \
        --input s3://bucket/pages/ --work-dir s3://bucket/work/ \
        --out s3://bucket/cleaned/

In this sandbox it runs against local parquet with
``ray.init(address="local")``. The CLI owns the Ray session (guarded, so
it also works inside a pre-initialised driver).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from fastdup_ray.config import DedupConfig


def _load_spec(path: str) -> dict:
    """The --config job spec: input/work_dir/out plus DedupConfig fields.

    Any other key is rejected: a misspelling, or a knob a later version
    removed, would otherwise be dropped by DedupConfig.from_dict and the
    job would silently run a different path."""
    text = open(path).read()
    if path.endswith((".yaml", ".yml")):
        try:
            import yaml  # type: ignore

            spec = yaml.safe_load(text) or {}
        except ImportError as e:
            raise SystemExit("pyyaml not installed; use a JSON spec") from e
    else:
        spec = json.loads(text)
    known = {"input", "work_dir", "out"} | {
        f.name for f in dataclasses.fields(DedupConfig)}
    unknown = sorted(set(spec) - known)
    if unknown:
        raise SystemExit(
            f"--config {path}: unknown key(s) {', '.join(unknown)} "
            "(not input, work_dir, out or a DedupConfig field)"
        )
    return spec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="fastdup_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="full near-dup pipeline over a pages parquet dir")
    run.add_argument("--input", default=None, help="parquet file/dir with the pages schema")
    run.add_argument("--work-dir", default=None)
    run.add_argument("--out", default=None, help="write pages_dedup + decisions here")
    run.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    run.add_argument("--threshold", type=float, default=None)
    run.add_argument("--cc-threshold", type=float, default=None)
    run.add_argument("--no-resume", action="store_true")
    # S8 analog (reference yaml config source, __init__.py:305-329): a
    # job-spec file carrying input/work_dir/out plus any DedupConfig
    # field; flags override the file. JSON always; YAML when pyyaml exists.
    run.add_argument("--config", default=None, help="JSON/YAML job-spec file")

    app = sub.add_parser(
        "append",
        help="incremental dedup: NEW pages against a finished base work_dir "
             "(only the new batch is extracted/signed/verified)",
    )
    app.add_argument("--input", required=True, help="parquet with the NEW pages")
    app.add_argument("--base-work-dir", required=True,
                     help="work_dir of the finished base run")
    app.add_argument("--work-dir", required=True,
                     help="work_dir for the incremental stages")
    app.add_argument("--out", default=None)
    app.add_argument("--num-cpus", type=int,
                     default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    app.add_argument("--no-resume", action="store_true")

    rep = sub.add_parser("report", help="galleries + HTML digest from a finished work_dir")
    rep.add_argument("--input", required=True)
    rep.add_argument("--work-dir", required=True)
    rep.add_argument("--out-dir", required=True)
    rep.add_argument("--num-rows", type=int, default=20)
    rep.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))

    args = ap.parse_args(argv)
    spec = _load_spec(args.config) if args.cmd == "run" and args.config else {}

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=args.num_cpus, include_dashboard=False,
            ignore_reinit_error=True, logging_level="ERROR",
        )
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED

    from fastdup_ray.pipelines.neardup import NearDupPipeline

    if args.cmd == "append":
        import ray.data as rd

        base = NearDupPipeline.load_result(args.base_work_dir)
        pipe = NearDupPipeline(base.cfg, work_dir=args.work_dir)
        # base_token: the base components manifest fingerprint identifies
        # the base run for resume-safe increments
        from fastdup_ray.pipelines.neardup import _fs_and_path

        fs, root = _fs_and_path(args.base_work_dir)
        with fs.open_input_stream(f"{root}/components/manifest.json") as fh:
            base_token = json.loads(fh.read().decode())["fingerprint"]
        res = pipe.run_incremental(
            rd.read_parquet(args.input), base=base,
            input_token=f"append:{args.input}", base_token=base_token,
            resume=not args.no_resume,
        )
        summary = res.summary()
        if args.out:
            from fastdup_ray.pipelines.sinks import write_dedup_corpus

            summary["dedup"] = write_dedup_corpus(res, args.out)
        print(json.dumps(summary))
        ray.shutdown()
        return 0

    if args.cmd == "report":
        pipe = NearDupPipeline(DedupConfig(), work_dir=args.work_dir)
        res = pipe.run(pages_path=args.input, resume=True)
        from fastdup_ray.pipelines.galleries import write_all_galleries
        from fastdup_ray.pipelines.reports import write_html_report

        made = write_all_galleries(res, args.out_dir, num_rows=args.num_rows)
        made["digest"] = write_html_report(
            res, os.path.join(args.out_dir, "digest.html"), top_k=args.num_rows
        )
        print(json.dumps(made))
        ray.shutdown()
        return 0

    input_path = args.input or spec.get("input")
    work_dir = args.work_dir or spec.get("work_dir")
    out = args.out or spec.get("out")
    if not input_path or not work_dir:
        raise SystemExit("--input and --work-dir required (flags or --config)")
    # spec file is the base; explicitly passed flags override it
    overrides = {
        k: v
        for k, v in (
            ("threshold", args.threshold),
            ("cc_threshold", args.cc_threshold),
        )
        if v is not None
    }
    cfg = DedupConfig.from_dict({**spec, **overrides})
    pipe = NearDupPipeline(cfg, work_dir=work_dir)
    res = pipe.run(pages_path=input_path, resume=not args.no_resume)
    summary = res.summary()
    if out:
        from fastdup_ray.pipelines.sinks import write_dedup_corpus

        summary["dedup"] = write_dedup_corpus(res, out)
    print(json.dumps(summary))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
