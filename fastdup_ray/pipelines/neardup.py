"""End-to-end near-duplicate pipeline with per-stage Parquet checkpoints.

The Ray-Data-native replacement for the reference's
`fd = fastdup.create(input_dir, work_dir); fd.run()` flow
(reference engine.py:36-158, fastdup_controller.py:523-653; C++ do_main
writing similarity.csv / connected_components.csv into a work_dir,
SURVEY.md §3.1). Here every stage is a Dataset transform and every
checkpoint is a Parquet directory with a lineage manifest:

    work_dir/
      docs/          url-keyed corpus after HTML->text extraction
      signatures/    doc_id, minhash[128], simhash, n_shingles, shingles
      pairs/         distinct LSH candidate pairs (src, dst)
      pair_scores/   verified pairs (src, dst, distance)
      components/    node -> component label (min doc_id in component)
      <stage>/manifest.json   fingerprint, row counts per file, wall_s

Resume (north rule "resumable from checkpoint"): each stage's
fingerprint covers the config plus all upstream fingerprints; a stage
re-runs iff its fingerprint changed, otherwise its Parquet checkpoint is
read back. A stage commits as Ray dataflow: one task per block writes
`<stage>/data-<fingerprint>/part-NNNNN.parquet`, and one commit task
that depends on all of them writes `manifest.json` last. Ray runs the
commit only once every write succeeded, and resume trusts a data dir
only through a manifest with its fingerprint, so a killed run or a
failed write never leaves a half-checkpoint that resume would trust.

Accessors mirror the reference controller's query surface
(similarity/outliers/connected_components/..., SURVEY.md §2.5-2.8,
M4 milestone).
"""

from __future__ import annotations

import json
import os
import time
import warnings

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from fastdup_ray.config import HASH_VERSION, DedupConfig
from fastdup_ray.relational.ops import (
    _as_arrow,
    block_meta,
    cogroup,
    empty_table,
    from_block_refs,
    hash_join,
    join_tables,
    materialized,
    nonempty_block_refs,
    nonempty_blocks,
    remote_fn,
    with_schema,
)
from fastdup_ray.stages.components import component_info, connected_components
from fastdup_ray.stages.extract import HtmlExtractStage
from fastdup_ray.stages.lsh import candidate_pairs
from fastdup_ray.stages.signatures import BandStage, SignStage
from fastdup_ray.stages.verify import verify_pairs


def _write_block(block, fs, path: str) -> tuple[int, int]:
    """Write one Dataset block to `path` on `fs` as Parquet; (rows, bytes)."""
    from ray.data.block import BlockAccessor

    table = BlockAccessor.for_block(block).to_arrow()
    pq.write_table(table, path, filesystem=fs)
    return table.num_rows, fs.get_file_info(path).size


def _commit_stage(fs, stage_root: str, manifest: dict, names: list[str],
                  t_start: float, *written) -> None:
    """Commit one stage checkpoint: fill in and write its manifest, given
    the (rows, bytes) of every block file as `written`, then drop the
    stage's stale `data-*` dirs. Runs as a Ray task whose arguments are
    the block write tasks, so it starts only after they all succeeded."""
    from pyarrow import fs as pafs

    files = [{"file": n, "rows": rows, "bytes": nbytes}
             for n, (rows, nbytes) in zip(names, written)]
    manifest.update(rows=sum(f["rows"] for f in files),
                    write_s=round(time.time() - t_start, 3), files=files)
    with fs.open_output_stream(f"{stage_root}/manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=1).encode())
    # best-effort cleanup of stale fingerprint dirs from older configs
    try:
        for fi in fs.get_file_info(pafs.FileSelector(stage_root)):
            if (fi.type == pafs.FileType.Directory
                    and fi.base_name.startswith("data-")
                    and fi.base_name != manifest["data_dir"]):
                fs.delete_dir(fi.path)
    except OSError:
        pass


def _fs_and_path(path: str):
    """(pyarrow FileSystem, fs-local path) for a path or URI. Plain paths
    stay on the local FS; `file://`, `s3://`, ... resolve via Arrow so a
    multi-node work_dir on object storage works (VERDICT r1 #5: the
    os/open manifest IO was local-FS-only)."""
    from pyarrow import fs as pafs

    if "://" in path:
        f, p = pafs.FileSystem.from_uri(path)
        return f, p
    return pafs.LocalFileSystem(), os.path.abspath(path)


def _dir_fingerprint(path: str) -> str:
    """Cheap input fingerprint: file names + sizes + mtimes under path."""
    from pyarrow import fs as pafs

    f, p = _fs_and_path(path)
    info = f.get_file_info(p)
    parts = []
    if info.type == pafs.FileType.Directory:
        for fi in sorted(
            f.get_file_info(pafs.FileSelector(p)), key=lambda i: i.path
        ):
            parts.append(f"{fi.base_name}:{fi.size}:{fi.mtime_ns or 0}")
    elif info.type == pafs.FileType.File:
        parts.append(f"{info.base_name}:{info.size}:{info.mtime_ns or 0}")
    return "|".join(parts)


_PAIR_COLS = {"src": pa.int64(), "dst": pa.int64()}
_SCORE_COLS = {**_PAIR_COLS, "distance": pa.float64()}


def _reuse_or_verify(scores: pa.Table, pairs: pa.Table):
    """One partition of the score split: (the scores whose pair is in
    `pairs`, the pairs with no score)."""
    keys = ["src", "dst"]
    scores = scores.select(list(_SCORE_COLS)).cast(pa.schema(_SCORE_COLS))
    pairs = pairs.select(keys).cast(pa.schema(_PAIR_COLS))
    return (join_tables(scores, pairs, lks=keys, rks=keys, join_type="semi"),
            join_tables(pairs, scores, lks=keys, rks=keys, join_type="anti"))


def _split_scored_pairs(pairs, scores):
    """(reused, to_verify): one (src,dst)-keyed hash exchange
    (`ops.cogroup`) splitting candidate `pairs` against already-scored
    `scores`.

    reused    — scores rows whose pair IS in `pairs` (distance kept);
    to_verify — pairs with no score yet (src, dst only).

    Scores for pairs NOT in `pairs` are dropped. Both results are
    materialized, with no zero-row blocks. Exactness argument for the
    incremental path: verify is pointwise deterministic in the two
    endpoint payloads, which an append never mutates, so a reused
    distance equals what re-verifying would compute."""
    keys = ["src", "dst"]
    # a partition without pairs has nothing to reuse or verify
    reused, to_verify = cogroup([scores, pairs], [keys, keys], _reuse_or_verify,
                                required=(1,), num_outputs=2)
    return reused, to_verify


def _concat(*datasets):
    """The non-empty blocks of `datasets` as one Dataset, built from
    their own metadata; the first dataset when all are empty.
    Materialized inputs start no task and no Ray Data execution."""
    mats = [materialized(ds) for ds in datasets]
    blocks = [b for m in mats for b in nonempty_blocks(m)]
    return from_block_refs(blocks) if blocks else mats[0]


def _edges_at_least(block, threshold: float):
    """(metadata, rows of one scored-edge block whose distance is >=
    threshold)."""
    t = _as_arrow(block)
    t = t.filter(pc.greater_equal(t["distance"], pa.scalar(threshold)))
    return block_meta(t), t


class NearDupPipeline:
    def __init__(self, config: DedupConfig | None = None,
                 work_dir: str = "/tmp/fastdup_ray_work", *,
                 hooks: dict | None = None, hooks_token: str | None = None):
        """hooks (§2.12 extension points, the analog of the reference's
        pluggable model/preprocessing callables, __init__.py:569-576):

        - "post_extract": Dataset -> Dataset, applied to the docs table
          inside the extract stage (custom filters/enrichment run and
          checkpoint with the stage);
        - "pre_components": Dataset -> Dataset, applied to the scored
          edge table before thresholding + connected components.

        hooks_token: stable identity string for the hook code, mixed
        into stage fingerprints so resume never serves a checkpoint
        produced by different hooks. Defaults to the sorted hook names —
        pass an explicit version token when hook BEHAVIOR changes.
        """
        self.cfg = config or DedupConfig()
        self.work_dir = work_dir
        self.hooks = hooks or {}
        if self.hooks and hooks_token is None:
            # the default token is just the hook NAMES, so editing a hook's
            # behavior without renaming it would let resume serve stale
            # checkpoints — make that the loud path, not the silent one
            warnings.warn(
                "NearDupPipeline(hooks=...) without hooks_token: resume "
                "fingerprints only cover the hook NAMES. If you change a "
                "hook's behavior, pass a new hooks_token (or resume=False) "
                "or resumed stages will serve results from the old hook.",
                UserWarning,
                stacklevel=2,
            )
        self.hooks_token = (
            hooks_token if hooks_token is not None
            else "+".join(sorted(self.hooks))
        )
        self._fs, self._root = _fs_and_path(work_dir)
        self._fs.create_dir(self._root, recursive=True)
        # (stage, commit ref) of every checkpoint commit not yet waited
        # for (see _stage): flush_checkpoints() waits for them before any
        # run() returns
        self._commits: list = []
        # compute wall per stage (seconds), also for a resumed stage
        self.stage_walls: dict[str, float] = {}

    def _hook(self, name: str, ds):
        fn = self.hooks.get(name)
        return fn(ds) if fn else ds

    def _components(self, scores):
        """Connected components over the scored edges at or above
        cc_threshold, after the pre_components hook. The threshold runs
        as one task per block, so a materialized hook output starts no
        Ray Data execution."""
        scores = materialized(self._hook("pre_components", scores))
        keep = remote_fn(_edges_at_least).options(num_returns=2)
        outs = [keep.remote(r, self.cfg.cc_threshold)
                for r in nonempty_block_refs(scores)]
        metas = ray.get([o[0] for o in outs])
        edges = from_block_refs([(o[1], m) for o, m in zip(outs, metas)]) if outs else scores
        return connected_components(edges)

    # ------------------------------------------------------------------ stages
    def _stage(self, name: str, upstream_fps: list[str], build, *, resume: bool = True):
        """Run-or-restore one checkpointed stage. Returns (Dataset, fingerprint).

        Object-store-safe commit protocol: data goes to a
        fingerprint-versioned directory, the manifest is written LAST as
        the commit marker (single-object PUTs are atomic on object
        stores; no cross-directory rename needed). Resume trusts a data
        dir only when the manifest exists and its fingerprint matches.
        """
        from pyarrow import fs as pafs

        fp = self.cfg.fingerprint(name, *upstream_fps)
        stage_root = f"{self._root}/{name}"
        man_path = f"{stage_root}/manifest.json"
        data_dir = f"{stage_root}/data-{fp}"
        if resume:
            try:
                with self._fs.open_input_stream(man_path) as fh:
                    man = json.loads(fh.read().decode())
            except (OSError, json.JSONDecodeError):
                man = None
            if (
                man
                and man.get("fingerprint") == fp
                and self._fs.get_file_info(data_dir).type
                == pafs.FileType.Directory
            ):
                # resume hit: report the wall the original build recorded
                # so bench/stats consumers see a complete per-stage table
                if man.get("wall_s") is not None:
                    self.stage_walls[name] = man["wall_s"]
                return rd.read_parquet(data_dir, filesystem=self._fs), fp
        t0 = time.monotonic()
        # materialize first, then write the checkpoint FROM the object
        # store and hand the in-memory dataset downstream — downstream
        # stages start from memory instead of re-reading parquet
        ds = materialized(build())
        wall = round(time.monotonic() - t0, 3)
        self.stage_walls[name] = wall

        # the checkpoint commits off the critical path, as Ray dataflow:
        # one write task per block, then one commit task that takes the
        # writes' results as arguments. Ray starts it only after every
        # write has ended and never runs it when one failed, so the
        # manifest lands after every file and never after a failed write
        t_w = time.time()
        try:
            self._fs.delete_dir_contents(data_dir, missing_dir_ok=True)
        except (OSError, TypeError):
            pass
        self._fs.create_dir(data_dir, recursive=True)
        # (rows, bytes) per file comes back from the write tasks, so no
        # file footer is reopened. A zero-row stage still commits one
        # typed file, so resume reads back its schema
        blocks = nonempty_block_refs(ds) or [ray.put(empty_table(ds))]
        write = remote_fn(_write_block)
        names = [f"part-{i:05d}.parquet" for i in range(len(blocks))]
        writes = [write.remote(b, self._fs, f"{data_dir}/{n}")
                  for b, n in zip(blocks, names)]
        # rows, write_s and files are filled in by the commit task
        manifest = {
            "stage": name,
            "fingerprint": fp,
            "upstream": upstream_fps,
            "rows": None,
            "wall_s": wall,
            "write_s": None,
            "data_dir": f"data-{fp}",
            "files": None,
            "config": dict(self.cfg.to_dict(), hash_version=HASH_VERSION),
        }
        commit = remote_fn(_commit_stage).remote(
            self._fs, stage_root, manifest, names, t_w, *writes)
        self._commits.append((name, commit))
        return ds, fp

    def _wait_commits(self) -> list:
        """Wait for every pending checkpoint commit; (stage, error) of
        those that failed, in stage order."""
        commits, self._commits = self._commits, []
        failed = []
        for name, commit in commits:
            try:
                ray.get(commit)
            except ray.exceptions.RayError as exc:
                failed.append((name, exc))
        return failed

    def flush_checkpoints(self) -> None:
        """Wait for every pending checkpoint commit; raise the first
        failure. Called before run()/run_incremental() return, so a
        returned result always has committed checkpoints on disk."""
        failed = self._wait_commits()
        if failed:
            name, exc = failed[0]
            raise RuntimeError(f"checkpoint write failed for stage {name!r}") from exc

    def _settle_checkpoints(self) -> None:
        """Entry barrier for run()/run_incremental(): if a PREVIOUS run
        aborted mid-pipeline (stage exception, KeyboardInterrupt), its
        checkpoint commits may still be pending — a new run's resume-miss
        rebuild of the same stage would otherwise clear a data dir that
        a write task is still filling. Wait for them first, and drop
        their errors with a warning: those stages never committed a
        manifest, so this run rebuilds them regardless."""
        failed = self._wait_commits()
        if failed:
            names = sorted({n for n, _ in failed})
            warnings.warn(
                "discarding checkpoint-write failures from a previous "
                f"aborted run (stages {names}); the stages were never "
                "committed and will be rebuilt",
                RuntimeWarning,
                stacklevel=3,
            )

    @classmethod
    def load_result(cls, work_dir: str) -> "NearDupResult":
        """Restore a finished run from its checkpointed work_dir without
        re-executing anything (S13 artifact reader, the analog of the
        reference's load-from-work-dir controller init,
        fastdup_controller.py:60-108): each stage's manifest names its
        committed data dir, and the config is restored from the manifest
        snapshot so a loaded result's accessors behave identically.
        The loaded result can seed `run_incremental` (pass the base
        manifest fingerprint as base_token for resume-safe increments).
        A work_dir whose manifests record a signer other than "minhash"
        (one-permutation hashing, no longer supported) or a hash version
        other than `HASH_VERSION` (none recorded is version 1) raises
        ValueError.
        """
        pipe = None
        tables = {}
        for stage in ("docs", "signatures", "pairs", "pair_scores", "components"):
            fs, root = _fs_and_path(work_dir)
            man_path = f"{root}/{stage}/manifest.json"
            try:
                with fs.open_input_stream(man_path) as fh:
                    man = json.loads(fh.read().decode())
            except (OSError, json.JSONDecodeError):
                raise FileNotFoundError(
                    f"no committed manifest for stage {stage!r} in {work_dir}"
                )
            snapshot = man.get("config") or {}
            # signatures of another signer cannot be banded or compared
            # against this version's MinHash signatures
            signer = snapshot.get("signer", "minhash")
            if signer != "minhash":
                raise ValueError(
                    f"{work_dir} was signed with signer {signer!r}; this "
                    f"version signs with classic MinHash only — re-run it"
                )
            # doc ids and bucket keys of another string hash never match
            # this version's
            version = snapshot.get("hash_version", 1)
            if version != HASH_VERSION:
                raise ValueError(
                    f"{work_dir} was hashed with hash version {version}; this "
                    f"version hashes with version {HASH_VERSION} — re-run it"
                )
            if pipe is None:
                # from_dict ignores keys of fields this version no longer has
                cfg = DedupConfig.from_dict(snapshot)
                pipe = cls(cfg, work_dir=work_dir)
            tables[stage] = rd.read_parquet(
                f"{root}/{stage}/{man['data_dir']}", filesystem=fs
            )
        return NearDupResult(
            pipe, tables["docs"], tables["signatures"], tables["pairs"],
            tables["pair_scores"], tables["components"],
        )

    def run(self, pages=None, *, pages_path: str | None = None,
            input_token: str | None = None, resume: bool = True,
            already_extracted: bool = False) -> "NearDupResult":
        """Execute extract -> sign -> LSH -> verify -> components.

        pages: a Dataset of the input_hint schema (url, warc_ts, html, text,
        lang), or pass pages_path to read Parquet. input_token identifies the
        input for resume fingerprinting (defaults to pages_path's file
        stat fingerprint; ad-hoc Datasets are never resumed unless a token
        is given).
        """
        cfg = self.cfg
        self._settle_checkpoints()
        if pages is None:
            if pages_path is None:
                raise ValueError("pass pages or pages_path")
            pages = rd.read_parquet(pages_path)
        if input_token is None:
            input_token = (
                _dir_fingerprint(pages_path) if pages_path else f"adhoc:{time.time_ns()}"
            )

        if already_extracted:
            # S11 precomputed-input path (reference run_mode=2 skips
            # extraction, RUN.md:194-227): `pages` is already a docs table
            schema = pages.schema()
            need = {"doc_id", "url", "text", "is_valid"}
            missing = need - set(schema.names if schema else [])
            if missing:
                raise ValueError(
                    f"already_extracted=True needs docs columns {sorted(need)}; "
                    f"missing {sorted(missing)}"
                )
            build_docs = lambda: self._hook("post_extract", pages)  # noqa: E731
        else:
            # instance => stateless elastic tasks; parser construction is
            # cheap, and a fixed-size actor pool only adds ramp-up latency
            # and CPU reservations here (heavy-state stages keep the
            # class/actor-pool form)
            build_docs = lambda: self._hook(  # noqa: E731
                "post_extract",
                pages.map_batches(
                    HtmlExtractStage(cfg.min_text_len),
                    batch_format="pyarrow",
                    batch_size=cfg.batch_size,
                ),
            )
        docs, fp_docs = self._stage(
            "docs", [input_token, self.hooks_token], build_docs, resume=resume
        )

        sigs, fp_sigs = self._stage(
            "signatures", [fp_docs],
            lambda: docs.map_batches(
                SignStage(cfg), batch_format="pyarrow", batch_size=cfg.batch_size
            ),
            resume=resume,
        )
        pairs, fp_pairs = self._stage(
            "pairs", [fp_sigs],
            lambda: candidate_pairs(
                sigs.map_batches(BandStage(cfg), batch_format="pyarrow",
                                 batch_size=cfg.batch_size),
                cfg,
            ),
            resume=resume,
        )
        # verify scores the signatures' shingle-set column: it projects
        # and endpoint-filters it, materializing only the (small)
        # filtered result
        scores, fp_scores = self._stage(
            "pair_scores", [fp_pairs, fp_docs, fp_sigs],
            lambda: verify_pairs(pairs, sigs, docs, cfg),
            resume=resume,
        )

        comps, _ = self._stage(
            "components", [fp_scores, self.hooks_token],
            lambda: self._components(scores), resume=resume,
        )

        self.flush_checkpoints()
        return NearDupResult(self, docs, sigs, pairs, scores, comps)

    def run_incremental(self, new_pages, *, base: "NearDupResult",
                        input_token: str, base_token: str | None = None,
                        resume: bool = True) -> "NearDupResult":
        """Append-mode dedup — the daily-crawl increment path the
        reference covers with its test-vs-train run modes (RUN.md:188-191
        run_mode=3/4, __init__.py:594-597): extract + sign ONLY the new
        batch, then re-emit candidates over the UNION of both corpora's
        band rows (one groupby, the same emission — including the
        max_bucket_pairs skew-cap choices — a full run over old+new would
        make), split the emitted pairs against the base run's scored
        edges (one pair-keyed shuffle: already-scored pairs reuse their
        distance, a pair's endpoints and texts are unchanged so the
        verify kernel is pointwise deterministic), and verify ONLY the
        never-scored pairs. The result is EXACTLY what a full run over
        old+new pages would produce at ANY scale (pytest-pinned with a
        forced skew cap:
        tests/test_incremental.py::test_incremental_exact_under_skew_cap).
        Saves re-extracting, re-signing and re-verifying the base corpus;
        re-pays only the candidate-emission groupby.

        Verify runs against the union of both corpora's payloads (the
        verify stage endpoint-filters, so only pair members are ever
        indexed); connected components re-runs over the combined edge
        set (CC is the cheap stage).

        base_token identifies the base run for resume fingerprinting;
        when None, the incremental stages run with resume disabled (a
        different base could otherwise serve stale checkpoints).
        """
        cfg = self.cfg
        self._settle_checkpoints()
        if base_token is None:
            resume = False
            base_token = "unversioned-base"

        build_docs = lambda: self._hook(  # noqa: E731
            "post_extract",
            new_pages.map_batches(
                HtmlExtractStage(cfg.min_text_len),
                batch_format="pyarrow", batch_size=cfg.batch_size,
            ),
        )
        docs_n, fp_dn = self._stage(
            "docs_incr", [input_token, self.hooks_token], build_docs,
            resume=resume,
        )
        sigs_n, fp_sn = self._stage(
            "signatures_incr", [fp_dn],
            lambda: docs_n.map_batches(
                SignStage(cfg), batch_format="pyarrow", batch_size=cfg.batch_size
            ),
            resume=resume,
        )

        # a lazy base (load_result) is read once; every glue step below
        # runs as plain tasks on these blocks
        base_docs = materialized(base.docs())
        base_sigs = materialized(base.signatures())

        def build_pairs():
            bands_new = sigs_n.map_batches(
                BandStage(cfg), batch_format="pyarrow", batch_size=cfg.batch_size
            )
            bands_base = base_sigs.map_batches(
                BandStage(cfg), batch_format="pyarrow", batch_size=cfg.batch_size
            )
            # full-run emission over the union band rows: identical
            # bucket membership => identical skew-cap choices
            return candidate_pairs(bands_new.union(bands_base), cfg)

        pairs_n, fp_pn = self._stage(
            "pairs_incr", [fp_sn, base_token], build_pairs, resume=resume,
        )

        docs_all = _concat(docs_n, base_docs)
        sigs_all = _concat(sigs_n, base_sigs)
        # one pair-keyed exchange: emitted pairs that the base run already
        # scored reuse their distance; the rest go to verify. Base scores
        # whose pair was NOT re-emitted are dropped — the full run would
        # never have scored them (star centers shift when new docs join a
        # capped bucket).
        reused, to_verify = _split_scored_pairs(pairs_n, base.pair_scores())
        scores_n, fp_scn = self._stage(
            "pair_scores_incr", [fp_pn, base_token],
            lambda: verify_pairs(to_verify, sigs_all, docs_all, cfg),
            resume=resume,
        )
        scores_all = _concat(scores_n, reused)

        comps, _ = self._stage(
            "components_incr", [fp_scn, base_token, self.hooks_token],
            lambda: self._components(scores_all), resume=resume,
        )

        self.flush_checkpoints()
        # pairs_n IS the full-run emission over old+new
        return NearDupResult(self, docs_all, sigs_all, pairs_n, scores_all, comps)


class NearDupResult:
    """Query surface over the pipeline's checkpointed tables — the analog of
    the reference's FastdupController accessors (similarity() at
    fastdup_controller.py:260-280, outliers() :282-310,
    connected_components() :420-453, connected_components_grouped()
    :456-520, summary() :660-756)."""

    def __init__(self, pipe: NearDupPipeline, docs, sigs, pairs, scores, comps):
        self.cfg = pipe.cfg
        self.work_dir = pipe.work_dir
        self._docs = docs
        self._sigs = sigs
        self._pairs = pairs
        self._scores = scores
        self._comps = comps

    # raw tables ---------------------------------------------------------
    def docs(self):
        return self._docs

    def signatures(self):
        return self._sigs

    def pair_scores(self):
        return self._scores

    def doc_stats(self):
        """Per-doc text statistics — the img_stats() analog
        (reference fastdup_controller.py:384-408, atrain_stats.csv)."""
        from fastdup_ray.stages.stats import TextStatsStage

        return self._docs.map_batches(
            TextStatsStage(), batch_format="pyarrow", batch_size=self.cfg.batch_size
        )

    # reference-parity accessors ----------------------------------------
    def similarity(self, threshold: float | None = None):
        """Edges (src, dst, distance) with distance >= threshold, most
        similar first — similarity.csv semantics (RUN.md:43-55)."""
        t = self.cfg.threshold if threshold is None else threshold
        return (
            self._scores.map_batches(
                lambda b: b.filter(pa.compute.greater_equal(b["distance"], pa.scalar(t))),
                batch_format="pyarrow",
            )
            .sort("distance", descending=True)
        )

    def connected_components(self):
        """(doc_id, component_id) for every edge-touched doc; docs absent
        here are singletons (component_id == own doc_id)."""
        # renamed in one task per block, so .count() reads only metadata
        return with_schema(
            self._comps, {"doc_id": pa.int64(), "component_id": pa.int64()},
            rename={"node": "doc_id", "label": "component_id"},
        )

    def component_info(self):
        return component_info(self._comps)

    def connected_components_grouped(self, min_count: int = 2):
        """One row per component: component_id, files_ids (sorted), len —
        fastdup_controller.connected_components_grouped():456-520."""
        import pandas as pd

        from fastdup_ray.relational.ops import partitioned_groupby

        def to_lists(df: pd.DataFrame) -> pd.DataFrame:
            df = df.sort_values(["component_id", "doc_id"], kind="mergesort")
            g = df.groupby("component_id", sort=False)["doc_id"].agg(list)
            g = g[g.map(len) >= min_count]
            return pd.DataFrame(
                {
                    "component_id": g.index.to_numpy(),
                    "files_ids": g.to_numpy(),
                    "len": g.map(len).to_numpy().astype(np.int64),
                }
            )

        return partitioned_groupby(
            self.connected_components(), "component_id", to_lists,
        )

    def outliers(self, include_unmatched: bool = True):
        """(src, dst, distance): each outlier doc with its NEAREST
        NEIGHBOR — the reference outliers.csv `from,to,distance` schema
        (RUN.md:57-68, fastdup_controller.py:282-310). Rows are docs whose
        best candidate similarity falls in the bottom `lower_threshold`
        quantile of per-doc best similarities, PLUS (include_unmatched)
        valid docs with ZERO scored candidates — the definitional "far
        from everything" outliers (G3) — emitted with dst=null,
        distance=0. Quantile is computed on a driver-side sample of
        per-doc maxima over SCORED docs (documented approximation,
        SURVEY.md §7.4)."""
        import pandas as pd

        from fastdup_ray.relational.ops import cogroup_anti_join, partitioned_groupby

        def best_row(df: pd.DataFrame) -> pd.DataFrame:
            df = df.sort_values(
                ["node", "distance", "neighbor"],
                ascending=[True, False, True], kind="mergesort",
            )
            return df.drop_duplicates("node")

        best = partitioned_groupby(
            self._scores.map_batches(_symmetrize_scores, batch_format="pyarrow"),
            "node", best_row,
        ).materialize()
        n_best = best.count()
        out_schema = {"src": pa.int64(), "dst": pa.int64(), "distance": pa.float64()}
        if n_best == 0:
            low = rd.from_arrow(
                pa.table({k: pa.array([], t) for k, t in out_schema.items()})
            )
        else:
            sample = best.random_sample(
                min(1.0, 200_000 / n_best), seed=self.cfg.seed
            )
            vals = np.array([r["distance"] for r in sample.take_all()], np.float64)
            q = float(np.quantile(vals, self.cfg.lower_threshold)) if vals.size else 0.0
            low = best.map_batches(
                lambda b: b.filter(
                    pa.compute.less_equal(b["distance"], pa.scalar(q))
                ),
                batch_format="pyarrow",
            ).rename_columns({"node": "src", "neighbor": "dst"})
        if not include_unmatched:
            return low
        valid = self._docs.map_batches(
            lambda b: b.filter(b["is_valid"]).select(["doc_id"]),
            batch_format="pyarrow",
        )
        unmatched = cogroup_anti_join(
            valid, best, on="doc_id", right_on="node",
        ).map_batches(
            lambda b: pa.table(
                {
                    "src": b["doc_id"].cast(pa.int64()),
                    "dst": pa.nulls(b.num_rows, pa.int64()),
                    "distance": pa.array(np.zeros(b.num_rows, np.float64)),
                }
            ),
            batch_format="pyarrow",
        )
        return low.union(unmatched)

    def summary(self) -> dict:
        """Counts digest — reference summary() (fastdup_controller.py:660-756)."""
        n_docs = self._docs.count()
        n_valid = self._docs.map_batches(
            lambda b: b.filter(b["is_valid"]), batch_format="pyarrow"
        ).count()
        n_edges = self.similarity().count()
        info = self.component_info().materialize()
        n_comp = info.count()
        largest = info.max("count") if n_comp else 0
        in_comps = self._comps.count()
        return {
            "total_docs": n_docs,
            "valid_docs": n_valid,
            "invalid_docs": n_docs - n_valid,
            "similarity_edges": n_edges,
            "clustered_docs": in_comps,
            "components": n_comp,
            "largest_component": largest,
        }

    def duplicates_report(self, num_rows: int = 100, ascending: bool = False):
        """Top similarity edges (O1: sort desc + head, galleries.py:353-378)."""
        return self.similarity().limit(num_rows) if not ascending else (
            self._scores.sort("distance").limit(num_rows)
        )

    def keep_table(self, policy: str = "first", labels=None):
        """Per-doc keep/drop decision within each component.

        policy="first": keep the doc with min (warc_ts, url) — the D4
        `delete_components(how='one')` keep-first policy (reference
        __init__.py:1629-1677) with a deterministic canonical choice
        instead of list order.
        policy="none": drop every clustered doc (`how='all'`).
        policy="majority": D5 label-majority variant (reference
        __init__.py:1682-1736) — keep the earliest doc carrying the
        component's majority label; a component with no majority
        (all labels tied at count 1 with >1 distinct) drops entirely.
        `labels`: Dataset (doc_id, label), required for "majority".
        """
        import pandas as pd

        if policy not in ("first", "none", "majority"):
            raise ValueError(f"unknown keep policy {policy!r}")
        side = self._docs.select_columns(["doc_id", "url", "warc_ts"])
        labeled = hash_join(
            self.connected_components(), side, on="doc_id", right_on="doc_id",
        )
        if policy == "majority":
            if labels is None:
                raise ValueError("policy='majority' needs a labels Dataset")
            labeled = hash_join(
                labeled.materialize(),
                labels.rename_columns({"doc_id": "ldoc"}),
                on="doc_id", right_on="ldoc",
            )

        return keep_decisions(labeled, policy)


def keep_decisions(labeled, policy: str, *, order_cols=("warc_ts", "url"),
                   label_col: str = "label"):
    """Shared D4/D5 keep/drop decision kernel over an arbitrary
    component-labeled table (used by NearDupResult.keep_table and the
    oracled majority_keep catalog query).

    labeled: Dataset with (doc_id, component_id, *order_cols[, label_col]).
    policy "first": keep the member that sorts first by order_cols;
    "none": drop every member; "majority": keep the first-sorted member
    carrying the component's majority label (ties -> lexicographically
    smallest label); a component whose labels are all distinct (every
    count 1, >1 distinct) drops entirely. Returns
    (doc_id, keep bool, component_id)."""
    import pandas as pd

    from fastdup_ray.relational.ops import partitioned_groupby

    if policy not in ("first", "none", "majority"):
        raise ValueError(f"unknown keep policy {policy!r}")
    sort_cols = ["component_id", *order_cols]

    def decide(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(sort_cols, kind="mergesort").reset_index(drop=True)
        if policy == "none":
            keep = np.zeros(len(df), dtype=bool)
        elif policy == "majority":
            keep = np.zeros(len(df), dtype=bool)
            for _, g in df.groupby("component_id", sort=False):
                counts = g[label_col].value_counts()
                if counts.iloc[0] > 1 or len(counts) == 1:
                    winners = sorted(counts[counts == counts.max()].index)
                    keep[g[g[label_col] == winners[0]].index[0]] = True
        else:
            keep = (df.groupby("component_id", sort=False).cumcount() == 0).to_numpy()
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(),
                "keep": keep,
                "component_id": df["component_id"].to_numpy(),
            }
        )

    return partitioned_groupby(labeled, "component_id", decide)


def _symmetrize_scores(batch: pa.Table) -> pa.Table:
    src = batch["src"].to_numpy(zero_copy_only=False)
    dst = batch["dst"].to_numpy(zero_copy_only=False)
    d = batch["distance"].to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "node": pa.array(np.concatenate([src, dst]), pa.int64()),
            "neighbor": pa.array(np.concatenate([dst, src]), pa.int64()),
            "distance": pa.array(np.concatenate([d, d]), pa.float64()),
        }
    )
