"""Every module under fastdup_ray/ is reached from an entry point.

The entry points are the files a user runs or calls: bench.py,
__ray_entry__.py, tools/*.py, examples/*.py, the CLI and the two
pipeline facades (NearDupPipeline and the queries() catalog). The walk
follows every `import` and `from ... import` of a reached file, at
module level and inside functions, without importing anything. A module
that no entry point reaches is exercised by tests alone: delete it with
its tests, or add it to ALLOWED with the reason it stays. No Ray."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ENTRY_FILES = [
    "bench.py",
    "__ray_entry__.py",
    "tools/*.py",
    "examples/*.py",
    "fastdup_ray/cli.py",
    "fastdup_ray/pipelines/neardup.py",
    "fastdup_ray/pipelines/queries.py",
]

# module -> why it stays although no entry point imports it
ALLOWED = {
    "fastdup_ray.state.search": (
        "the only implementation of G8 online search, the 'search' of the "
        "capability chain; giving it an entry point is a feature"),
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(ROOT).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported(path: Path) -> set[str]:
    """Every dotted name `path` imports, with each enclosing package (an
    import runs the package's __init__ first); a `from m import x` also
    yields `m.x`, which is a module when x is a submodule."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)
    return {".".join(n.split(".")[:i])
            for n in names for i in range(1, n.count(".") + 2)}


def unreached_modules() -> set[str]:
    """Modules under fastdup_ray/ that no entry point imports; an empty
    package __init__ holds no code and is left out."""
    modules = {_module_name(p): p for p in (ROOT / "fastdup_ray").rglob("*.py")
               if p.stat().st_size}
    todo = [p for pattern in ENTRY_FILES for p in sorted(ROOT.glob(pattern))]
    reached = {_module_name(p) for p in todo if p.is_relative_to(ROOT / "fastdup_ray")}
    done = set()
    while todo:
        path = todo.pop()
        if path in done:
            continue
        done.add(path)
        for name in _imported(path) & modules.keys():
            reached.add(name)
            todo.append(modules[name])
    return modules.keys() - reached


def test_every_module_is_reached_from_an_entry_point():
    assert unreached_modules() == set(ALLOWED)
