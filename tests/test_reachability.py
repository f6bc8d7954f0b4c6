"""Every module and public name under ``src/repro`` is reachable from an
entry point.

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

Names are checked the same way. A public top-level function or class, or
a public method of a top-level class, must be referenced by some
``src/repro``, ``benchmarks/`` or ``examples/`` file: as a name, an
attribute, a keyword argument or a word in a string literal (so
``getattr``/``hasattr`` targets and ``benchmarks/e2e/trace.py``'s
``TARGETS`` count). ``__all__`` entries, imports (a package's
re-exports) and docstrings do not count, and neither does a use inside
the name's own body. Names in an :data:`ALLOWLIST` module are skipped;
:data:`NAME_ALLOWLIST` follows the module list's rules.
"""

import ast
import re
from collections import Counter
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: module -> why it may stay unreachable for now.
ALLOWLIST: dict[str, str] = {}


#: qualified name -> why it may stay unreferenced for now.
NAME_ALLOWLIST = {
    "repro.core.platform.Symphony.add_federated_source":
        "the federated_lab end-to-end workload is to be its caller",
    "repro.federation.registry.SourceBackend":
        "the federated_lab end-to-end workload is to be its caller",
    "repro.storage.tokens.TokenAuthority.revoke":
        "safety code: a leaked token must be revocable",
}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


MODULES = {module_name(path): path
           for path in sorted((SRC / "repro").rglob("*.py"))}


@lru_cache(maxsize=None)
def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def entry_points() -> list:
    return [SRC / "repro" / "cli.py",
            *sorted((ROOT / "benchmarks").glob("*.py")),
            *sorted((ROOT / "benchmarks" / "e2e").rglob("*.py")),
            *sorted((ROOT / "examples").rglob("*.py"))]


def imported_names(path: Path, package: str):
    """Every dotted name ``path`` imports or names in a string."""
    for node in ast.walk(parse(path)):
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


WORD = re.compile(r"[A-Za-z_]\w*")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def words(root: ast.AST) -> Counter:
    """How often each word is referenced under ``root``."""
    counts: Counter = Counter()
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            counts[node.arg] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            counts.update(WORD.findall(node.value))
        elif (isinstance(node, ast.Expr)
              and isinstance(node.value, ast.Constant)):
            continue                                  # a docstring
        elif (isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
              and "__all__" in {getattr(target, "id", None) for target in
                                getattr(node, "targets", None)
                                or [node.target]}):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return counts


def definitions(tree: ast.Module):
    """``(qualified name, node)`` for each public name ``tree`` defines."""
    for node in tree.body:
        if (isinstance(node, (*FUNCTIONS, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, FUNCTIONS)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item


def reference_files() -> list:
    return [*sorted((SRC / "repro").rglob("*.py")),
            *sorted((ROOT / "benchmarks").rglob("*.py")),
            *sorted((ROOT / "examples").rglob("*.py"))]


@lru_cache(maxsize=None)
def file_words(path: Path) -> Counter:
    return words(parse(path))


def unreferenced_names(modules: dict, files: list,
                       module_allowlist=()) -> set:
    """Public names of ``modules`` that no file of ``files`` references
    outside the name's own body."""
    counts: Counter = Counter()
    for path in files:
        counts.update(file_words(path))
    unreferenced = set()
    for module, path in modules.items():
        if module in module_allowlist:
            continue
        inside = file_words(path)
        for qualified, node in definitions(parse(path)):
            name = qualified.rpartition(".")[2]
            # Only a name with no use elsewhere needs its body counted.
            if (counts[name] <= inside[name]
                    and inside[name] <= words(node)[name]):
                unreferenced.add(f"{module}.{qualified}")
    return unreferenced


def check_names(modules: dict, files: list, module_allowlist,
                name_allowlist) -> tuple:
    """``(unlisted, stale)``: unreferenced names the name allowlist
    lacks, and allowlist entries that are referenced or gone."""
    unreferenced = unreferenced_names(modules, files, module_allowlist)
    return (sorted(unreferenced - set(name_allowlist)),
            sorted(set(name_allowlist) - unreferenced))


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


def test_the_name_scan_counts_uses_not_mentions(tmp_path):
    sources = {
        "pkg": '"""Re-exports reexported_only."""\n'
               "from .mod import reexported_only\n"
               "__all__ = ['reexported_only', 'listed_only']\n",
        "pkg.mod": '"""Mentions docstring_only."""\n'
                   "def used_inside(): return 1\n"
                   "def caller(): return used_inside()\n"
                   "def recursive(n): return recursive(n - 1) if n else 0\n"
                   "def reexported_only(): pass\n"
                   "def listed_only(): pass\n"
                   "def docstring_only(): pass\n"
                   "def string_word(): pass\n"
                   "def probed(): pass\n"
                   "class Box:\n"
                   "    def unused(self): pass\n"
                   "    def _private(self): pass\n",
        "pkg.user": "LABEL = 'see string_word'\n"
                    "def check(obj):\n"
                    "    return hasattr(obj, 'probed') and caller()\n",
        "pkg.skipped": "def ignored(): pass\n",
    }
    modules = {}
    for module, text in sources.items():
        path = tmp_path / f"{module}.py"
        path.write_text(text)
        modules[module] = path
    files = list(modules.values())
    assert unreferenced_names(modules, files, {"pkg.skipped"}) == {
        "pkg.mod.recursive", "pkg.mod.reexported_only",
        "pkg.mod.listed_only", "pkg.mod.docstring_only", "pkg.mod.Box",
        "pkg.mod.Box.unused", "pkg.user.check",
    }
    unlisted, stale = check_names(
        modules, files, {"pkg.skipped"},
        {"pkg.mod.recursive": "kept", "pkg.mod.caller": "referenced",
         "pkg.mod.gone": "deleted"})
    assert "pkg.mod.recursive" not in unlisted
    assert stale == ["pkg.mod.caller", "pkg.mod.gone"]


def test_every_public_name_is_referenced_outside_tests():
    unlisted, stale = check_names(MODULES, reference_files(), ALLOWLIST,
                                  NAME_ALLOWLIST)
    assert unlisted == [], \
        "referenced only from tests/: wire it to an entry point or delete it"
    assert stale == [], "allowlisted but referenced (or gone): drop the entry"
