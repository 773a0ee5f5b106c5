"""Ray Data executions and plain Ray task submissions per perfbench
operation.

Sets up one perfbench workload exactly as `perfbench/run.py` does (Ray
with 4 CPUs, the cached seeded inputs, the base and reference runs of
daily_increment, one warm-up operation), then runs the workload's timed
operation `--ops` times with two counters installed in this process:

- every `StreamingExecutor.execute` call, that is every Ray Data
  execution that really starts (a second `ExecutionPlan.execute()` on a
  computed plan returns its snapshot without one), with its call site
  (the innermost `fastdup_ray` frame) and its operator chain;
- every `RemoteFunction` submission made outside a Ray Data executor
  thread (the plain tasks the program starts itself, plus the metadata
  tasks of `ray.data.from_arrow_refs`, marked "via ray.data"), by call
  site; the executor threads' own map tasks are summed separately;
- every hash exchange (`ops.cogroup`) with its call site (the innermost
  `fastdup_ray` frame outside `relational/ops.py`), its non-empty input
  blocks and its width P (`ops.exchange_width`);
- the blocks that the operation's Parquet reads produce, and the
  blocks each execution outputs. The plain tasks follow the stages'
  block counts, and a stage map can cut the same input into a varying
  number of blocks from run to run, so each operation's task count is
  printed beside its read's blocks and every execution beside its
  output blocks.

Run from the repo root:

    python3 tools/exec_count.py daily_increment 1 [--ops 2] [--json out.json]

With `--unit-cost N` it instead measures, N times each and interleaved,
the CPU seconds (perfbench's `cpu_s`: the driver plus its Ray worker
processes) and the wall of one trivial 8-block
`map_batches(...).materialize()` execution, of eight plain tasks over
the same blocks, and of building a Dataset over them with
`ray.data.from_arrow_refs` and with `ops.from_block_refs`, and prints
the medians:

    python3 tools/exec_count.py --unit-cost 20

Nothing under perfbench/ is changed; the work directory is a temporary
directory that is removed at exit, and the input cache is perfbench's.
"""
from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import sys
import tempfile
import threading
import traceback

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(REPO, "perfbench")
PKG = os.path.join(REPO, "fastdup_ray") + os.sep
OPS = os.path.join(PKG, "relational", "ops.py")


def call_site(stack, skip: str | None = None) -> str:
    """`module.function:line` of the innermost fastdup_ray frame (not in
    the file `skip`), marked when a ray.data frame sits between it and
    the submission."""
    via = False
    for frame in reversed(stack):
        if frame.filename.startswith(PKG) and frame.filename != skip:
            mod = os.path.relpath(frame.filename, REPO)[:-3].replace(os.sep, ".")
            site = f"{mod}.{frame.name}:{frame.lineno}"
            return site + (" (via ray.data)" if via else "")
        if f"{os.sep}ray{os.sep}data{os.sep}" in frame.filename:
            via = True
    return "<no fastdup_ray frame>"


def op_chain(dag) -> str:
    """The operator chain feeding `dag`, input first."""
    names, op = [], dag
    while True:
        names.append(op.name)
        deps = op.input_dependencies
        if len(deps) != 1:
            if deps:
                names.append("(" + " | ".join(op_chain(d) for d in deps) + ")")
            break
        op = deps[0]
    return " <- ".join(names)


def read_ops(dag) -> list:
    """The read operators feeding `dag` (their metrics count the blocks
    they produced once the execution has run)."""
    ops = [dag] if dag.name.startswith("Read") else []
    for dep in dag.input_dependencies:
        ops += read_ops(dep)
    return ops


class Counters:
    """Counts executions and task submissions while installed."""

    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        self.executions: list[list] = []  # [site, operators, output blocks]
        self.tasks: collections.Counter = collections.Counter()
        self.executor_tasks = 0
        self.read_ops: list = []
        self.exchanges: list[list] = []  # [site, input blocks, P]

    def install(self):
        from ray.data._internal.execution.streaming_executor import StreamingExecutor
        from ray.remote_function import RemoteFunction

        from fastdup_ray.relational import ops

        self._orig = (StreamingExecutor.execute, RemoteFunction._remote,
                      ops.exchange_width)
        orig_execute, orig_remote, orig_width = self._orig
        counters = self

        def execute(executor, dag, *args, **kwargs):
            site = call_site(traceback.extract_stack())
            entry = [site, op_chain(dag), 0]
            with counters.lock:
                counters.executions.append(entry)
                counters.read_ops += read_ops(dag)
            out = orig_execute(executor, dag, *args, **kwargs)
            get_next = out.get_next

            def counting_get_next(*a, **k):
                bundle = get_next(*a, **k)
                with counters.lock:
                    entry[2] += len(bundle.blocks)
                return bundle

            out.get_next = counting_get_next
            return out

        def remote(fn, *args, **kwargs):
            if isinstance(threading.current_thread(), StreamingExecutor):
                with counters.lock:
                    counters.executor_tasks += 1
            else:
                site = call_site(traceback.extract_stack())
                with counters.lock:
                    counters.tasks[f"{site} [{fn._function_name}]"] += 1
            return orig_remote(fn, *args, **kwargs)

        def exchange_width(num_blocks):
            width = orig_width(num_blocks)
            site = call_site(traceback.extract_stack(), skip=OPS)
            with counters.lock:
                counters.exchanges.append([site, num_blocks, width])
            return width

        StreamingExecutor.execute = execute
        RemoteFunction._remote = remote
        ops.exchange_width = exchange_width

    def uninstall(self):
        from ray.data._internal.execution.streaming_executor import StreamingExecutor
        from ray.remote_function import RemoteFunction

        from fastdup_ray.relational import ops

        (StreamingExecutor.execute, RemoteFunction._remote,
         ops.exchange_width) = self._orig

    def snapshot(self) -> dict:
        return {
            "executions": len(self.executions),
            "execution_sites": [{"site": s, "operators": o, "blocks": b}
                                for s, o, b in self.executions],
            "plain_tasks": sum(self.tasks.values()),
            "plain_task_sites": dict(self.tasks.most_common()),
            "executor_tasks": self.executor_tasks,
            "read_blocks": sum(op.metrics.num_task_outputs_generated
                               for op in self.read_ops),
            "exchanges": [{"site": s, "blocks": b, "width": p}
                          for s, b, p in self.exchanges],
        }


def _identity(block):
    return block


def unit_costs(reps: int, calls: int = 5) -> dict:
    """Median (cpu_s, wall_s) per call of each primitive, over `reps`
    windows of `calls` back-to-back calls (the CPU clock of /proc ticks
    at 10 ms)."""
    import statistics
    import time

    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data as rd
    from measure import ProcSampler

    from fastdup_ray.relational.ops import block_meta, from_block_refs

    tables = [pa.table({"x": np.arange(1000)}) for _ in range(8)]
    refs = [ray.put(t) for t in tables]
    blocks = [(r, block_meta(t)) for r, t in zip(refs, tables)]
    identity = ray.remote(_identity)
    cases = {
        "execution: 8-block map_batches().materialize()":
            lambda: rd.from_arrow_refs(refs).map_batches(
                _identity, batch_format="pyarrow").materialize(),
        "8 plain tasks": lambda: ray.get([identity.remote(r) for r in refs]),
        "ray.data.from_arrow_refs of 8 blocks": lambda: rd.from_arrow_refs(refs),
        "ops.from_block_refs of 8 blocks": lambda: from_block_refs(blocks),
    }
    sampler = ProcSampler()
    costs: dict = {name: [] for name in cases}
    for rep in range(reps + 1):  # one warm-up round
        for name, fn in cases.items():
            t0 = time.perf_counter()
            with sampler.window() as res:
                for _ in range(calls):
                    fn()
            if rep:
                costs[name].append((res["cpu_s"] / calls,
                                    (time.perf_counter() - t0) / calls))
    return {name: {"cpu_s": statistics.median(c for c, _ in v),
                   "wall_s": statistics.median(w for _, w in v)}
            for name, v in costs.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload", nargs="?")
    ap.add_argument("seed", type=int, nargs="?")
    ap.add_argument("--unit-cost", type=int, metavar="N",
                    help="measure the per-call cost of an execution, plain "
                         "tasks and from_arrow_refs N times instead")
    ap.add_argument("--ops", type=int, default=2,
                    help="operations counted after the warm-up (default 2)")
    ap.add_argument("--json", help="also write the counts to this file")
    args = ap.parse_args()

    sys.path.insert(0, REPO)
    sys.path.insert(0, BENCH)
    from run import start_ray, stop_ray
    from workloads import WORKLOADS

    from fastdup_ray.config import DedupConfig

    if args.unit_cost:
        session = start_ray()
        try:
            costs = unit_costs(args.unit_cost)
        finally:
            stop_ray(session)
        for name, c in costs.items():
            print(f"{name:48} cpu_s {c['cpu_s'] * 1e3:7.1f} ms  "
                  f"wall {c['wall_s'] * 1e3:7.1f} ms")
        return 0
    if args.workload is None or args.seed is None:
        ap.error("give a workload and a seed, or --unit-cost N")

    work = tempfile.mkdtemp(prefix="exec_count-")
    session = None
    counters = Counters()
    ops = []
    try:
        session = start_ray()
        wl = WORKLOADS[args.workload](DedupConfig(), args.seed, work)
        wl.prepare(os.path.join(BENCH, "_work", "cache"))
        if not wl.warm_up():
            print("warm-up operation failed its check", file=sys.stderr)
            return 1
        counters.install()
        try:
            for i in range(args.ops):
                counters.reset()
                _, result = wl.op()
                snap = counters.snapshot()
                counters.reset()
                snap["ok"] = wl.check(result, i)["ok"]
                ops.append(snap)
        finally:
            counters.uninstall()
    finally:
        stop_ray(session)
        shutil.rmtree(work, ignore_errors=True)

    for i, snap in enumerate(ops):
        print(f"== {args.workload} seed {args.seed} operation {i}: "
              f"{snap['executions']} Ray Data executions, "
              f"{snap['plain_tasks']} plain task submissions at "
              f"{snap['read_blocks']} read blocks, "
              f"{snap['executor_tasks']} executor map tasks, "
              f"check {'ok' if snap['ok'] else 'FAILED'}")
        for e in snap["execution_sites"]:
            print(f"  exec  {e['site']} -> {e['blocks']} blocks\n"
                  f"        {e['operators']}")
        for site, n in snap["plain_task_sites"].items():
            print(f"  task  {n:4d}  {site}")
        for x in snap["exchanges"]:
            print(f"  xchg  {x['site']} -> {x['blocks']} input blocks, P {x['width']}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "ops": ops},
                      fh, indent=1)
    return 0 if all(s["ok"] for s in ops) else 1


if __name__ == "__main__":
    sys.exit(main())
