"""Every module under ``src/repro`` is reachable from an entry point.

The entry points are what a user or CI runs: the ``repro.cli``
commands, the paper benchmarks (``benchmarks/*.py``), the end-to-end
benchmark (``benchmarks/e2e/``) and the examples (``examples/``). The
import graph is read with ``ast`` alone, nothing is imported: an
``import`` or ``from … import`` anywhere in a file (a function-local
import too) is an edge, and so is a string literal that names a module
exactly (``importlib.import_module`` targets). A module nothing but
``tests/`` reaches fails, unless :data:`ALLOWLIST` names it with a
reason; an allowlist entry that is reachable, or gone, fails too, so the
list only shrinks.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: module -> why it may stay unreachable for now.
ALLOWLIST = {
    "repro.analytics.report":
        "designer_dashboard (the paper's designer summaries, §II-A) has "
        "no CLI command or artifact yet",
    "repro.core.persistence":
        "state export/import has no CLI command; whether it stays, "
        "beside the durability WAL and checkpoints, is still open",
}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


MODULES = {module_name(path): path
           for path in sorted((SRC / "repro").rglob("*.py"))}


def entry_points() -> list:
    return [SRC / "repro" / "cli.py",
            *sorted((ROOT / "benchmarks").glob("*.py")),
            *sorted((ROOT / "benchmarks" / "e2e").rglob("*.py")),
            *sorted((ROOT / "examples").rglob("*.py"))]


def imported_names(path: Path, package: str):
    """Every dotted name ``path`` imports or names in a string."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - node.level + 1]
                base = ".".join(filter(None, (*anchor, base)))
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"
        elif (isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value in MODULES):
            yield node.value


def reached_modules(names):
    """The modules ``names`` load: each, and every package above it."""
    for name in names:
        parts = name.split(".")
        for end in range(1, len(parts) + 1):
            prefix = ".".join(parts[:end])
            if prefix in MODULES:
                yield prefix


def reachable() -> set:
    seen: set = set()
    frontier = [name for path in entry_points()
                for name in reached_modules(imported_names(path, ""))]
    while frontier:
        module = frontier.pop()
        if module in seen:
            continue
        seen.add(module)
        path = MODULES[module]
        package = (module if path.name == "__init__.py"
                   else module.rpartition(".")[0])
        frontier.extend(reached_modules(imported_names(path, package)))
    return seen


def test_every_module_is_reachable_from_an_entry_point():
    unreached = set(MODULES) - reachable()
    assert sorted(unreached - set(ALLOWLIST)) == [], \
        "reached only from tests/: wire it to an entry point or delete it"
    assert sorted(set(ALLOWLIST) - unreached) == [], \
        "allowlisted but reachable (or gone): drop the entry"


def test_the_scan_reads_lazy_relative_and_named_imports(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "def late():\n"
        "    from . import replica\n"
        "    from ..gateway.generations import corpus_key\n"
        "    return 'repro.cluster.sharding'\n"
    )
    assert set(reached_modules(imported_names(path, "repro.cluster"))) == {
        "repro", "repro.cluster", "repro.cluster.replica",
        "repro.cluster.sharding", "repro.gateway",
        "repro.gateway.generations",
    }
