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

A name can pass that check through another class's method of the same
name, so execution is checked too: ``tests/reach/run_entry_points.sh``,
run with ``REPRO_REACH_DIR`` set, records every ``src/repro`` function
the entry points execute, and
:func:`test_every_function_runs_under_an_entry_point` fails on a
module-level function or method that none of them ran, unless
:data:`EXEC_ALLOWLIST` gives it one of the :data:`REASONS`; an entry
that ran, or is gone, fails too.
"""

import ast
import os
import re
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: module -> why it may stay unreachable for now.
ALLOWLIST: dict[str, str] = {}


#: qualified name -> why it may stay unreferenced for now.
NAME_ALLOWLIST = {
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


#: Why a function no entry point runs may stay. An ``EXEC_ALLOWLIST``
#: value is one of these tags, then ``": "`` and the particular case.
REASONS = {
    "error": "handles a failure or outside input no entry point produces",
    "null": "belongs to a NULL twin, which ROADMAP items 5 and 17 delete",
    "protocol": "abstract, or dispatched by hasattr",
    "branch": "reached code calls it on a branch no entry point's "
              "inputs take",
    "roadmap": "a named open ROADMAP item keeps it",
    "dunder": "__len__ (it decides truthiness) or __repr__",
}

#: qualified name -> ``"<reason>: <case>"`` for a function no entry
#: point runs. Only a test using it is not a reason.
EXEC_ALLOWLIST: dict[str, str] = {
    # -- error: failures and outside input no entry point produces -------
    "repro.contracts.contract._rule_lower":
        "error: a contract whose field normalizes with 'lower'",
    "repro.contracts.contract._rule_title":
        "error: a contract whose field normalizes with 'title'",
    "repro.contracts.enforcer.ContractEnforcer._safe_cast":
        "error: a cell that does not cast to its contract type",
    "repro.errors.AdmissionRejectedError.__init__":
        "error: a request the gateway sheds",
    "repro.errors.ContractViolationError.__init__":
        "error: a strict contract refusing an upload",
    "repro.errors.RetryExhaustedError.__init__":
        "error: a transient fault outlasting the retry budget",
    "repro.gateway.coalesce.Ticket.fail":
        "error: a coalesced query whose leader raised",
    "repro.gateway.gateway.Gateway._record_shed":
        "error: a shed request (queue full, deadline, throttle)",
    "repro.gateway.gateway.Gateway._shed_now":
        "error: a request shed at submit",
    "repro.storage.records._coerce_bool":
        "error: an upload with a boolean column",
    "repro.storage.tenant.Quota.check_records":
        "error: an upload past the table record quota",
    "repro.storage.tokens.TokenAuthority.revoke":
        "error: a leaked token must be revocable",
    # -- null: NULL twins, deleted by ROADMAP items 5 and 17 -------------
    "repro.durability.manager._NullDurability.__repr__": "null: durability",
    "repro.durability.manager._NullDurability._refuse": "null: durability",
    "repro.durability.manager._NullDurability.status": "null: durability",
    "repro.telemetry.events.NullEventLog.__len__": "null: events",
    "repro.telemetry.events.NullEventLog.by_kind": "null: events",
    "repro.telemetry.metrics.NullMetricsRegistry.render_prometheus":
        "null: metrics",
    "repro.telemetry.metrics.NullMetricsRegistry.snapshot":
        "null: metrics",
    "repro.telemetry.metrics._NullInstrument.quantile": "null: metrics",
    "repro.telemetry.metrics._NullInstrument.summary": "null: metrics",
    "repro.telemetry.trace.NullTracer.trace_spans": "null: tracer",
    # -- protocol: abstract, or dispatched by name -----------------------
    "repro.baselines.base.BaselinePlatform.search_api_name":
        "protocol: a Table I baseline's probe surface",
    "repro.baselines.eurekster.Swicki.name":
        "protocol: a Table I baseline's probe surface",
    "repro.baselines.google_base.GoogleBasePlatform.search":
        "protocol: a Table I baseline's probe surface",
    "repro.baselines.google_custom.CustomEngine.name":
        "protocol: a Table I baseline's probe surface",
    "repro.baselines.probe.SymphonyProbeAdapter.search_api_name":
        "protocol: a Table I baseline's probe surface",
    "repro.core.datasources.DataSource.fields": "protocol: abstract",
    "repro.core.datasources.DataSource.search": "protocol: abstract",
    "repro.core.datasources.CustomerProfileSource.fields":
        "protocol: DataSource's abstract method",
    "repro.core.datasources.CustomerProfileSource.search":
        "protocol: DataSource's abstract method",
    "repro.searchengine.query.ValueNode.accepts": "protocol: abstract",
    "repro.services.ads.AdService.invoke":
        "protocol: the service bus's entry point",
    "repro.services.samples.PricingService._set_price":
        "protocol: a REST route the bus dispatches by name",
    "repro.services.samples.ReviewArchiveService._get_reviews":
        "protocol: a SOAP operation the bus dispatches by name",
    # -- branch: reached code calls it on inputs no entry point gives ----
    "repro.analytics.social.CommunityFeedback.vote_down":
        "branch: Symphony.vote(up=False)",
    "repro.cluster.replica.ReplicaGroup.remove_replica":
        "branch: the autoscaler scaling a cold shard down",
    "repro.controlplane.lifecycle.ShardLifecycleManager.remove_replica":
        "branch: the autoscaler scaling a cold shard down",
    "repro.contracts.contract.DataContract.spec":
        "branch: evolving a contract that retypes a field",
    "repro.durability.wal.BlobWalStorage.record_count":
        "branch: DurabilityManager.status on a blob-backed log",
    "repro.gateway.cache.ResultCache._drop_stale":
        "branch: a result cache over its entry bound",
    "repro.gateway.generations.GenerationRegistry.bumps":
        "branch: a result cache over its entry bound",
    "repro.ingest.transports.FaultPolicy._draw":
        "branch: an upload channel with injected faults",
    "repro.searchengine.engine.VerticalIndex.searching":
        "branch: a slot searching other fields than its source",
    "repro.slo.engine.SLOEngine.burning":
        "branch: an autoscaler gated on an SLO",
    "repro.slo.recorder.FlightRecorder.get":
        "branch: explaining a query the tracer no longer holds",
    # -- roadmap: a named open ROADMAP item keeps it ---------------------
    "repro.cluster.engine.ClusteredSearchEngine.remove_document":
        "roadmap: item 4's oracle removes documents",
    "repro.contracts.quarantine.QuarantineStore.evicted":
        "roadmap: item 10(a) deletes it",
    "repro.gateway.admission.TenantPolicy.effective_burst":
        "roadmap: item 6(e)'s throttled multi-tenant arrivals",
    "repro.gateway.admission.TokenBucket.__init__":
        "roadmap: item 6(e)'s throttled multi-tenant arrivals",
    "repro.gateway.admission.TokenBucket._refill":
        "roadmap: item 6(e)'s throttled multi-tenant arrivals",
    "repro.gateway.admission.TokenBucket.available":
        "roadmap: item 6(e)'s throttled multi-tenant arrivals",
    "repro.gateway.admission.TokenBucket.try_acquire":
        "roadmap: item 6(e)'s throttled multi-tenant arrivals",
    # -- dunder ----------------------------------------------------------
    "repro.cluster.sharding.RouteMap.__repr__": "dunder",
    "repro.gateway.cache.ResultCache.__len__": "dunder",
    "repro.gateway.coalesce.SingleFlightTable.__len__": "dunder",
    "repro.gateway.fairqueue.DeficitRoundRobinQueue.__len__": "dunder",
    "repro.searchengine.engine.VerticalIndex.__len__": "dunder",
    "repro.slo.recorder.FlightRecorder.__len__": "dunder",
    "repro.telemetry.trace.Span.__repr__": "dunder",
}


def functions(tree: ast.Module, module: str):
    """``(qualified name, first line)`` of each module-level function and
    method (of a class at any depth) in ``tree``; nested functions and
    lambdas are part of their enclosing function. The first line is
    ``co_firstlineno``'s: the first decorator's, if there is one."""
    stack = [(module, node) for node in tree.body]
    while stack:
        prefix, node = stack.pop()
        if isinstance(node, ast.ClassDef):
            stack.extend((f"{prefix}.{node.name}", item)
                         for item in node.body)
        elif isinstance(node, FUNCTIONS):
            yield (f"{prefix}.{node.name}",
                   min([node.lineno, *(decorator.lineno for decorator
                                       in node.decorator_list)]))


def ran_lines(directory: Path) -> set:
    """``(path under src/repro, first line)`` of every code object the
    recorder (``tests/reach/sitecustomize.py``) saw run."""
    ran = set()
    for record in directory.glob("*.txt"):
        for line in record.read_text().splitlines():
            path, _, first = line.rpartition(":")
            ran.add((path, int(first)))
    return ran


def unexecuted(ran: set) -> set:
    """Qualified names of the functions under ``src/repro`` that did not
    run; a name defined twice (a property's setter) counts as run only
    if every definition ran."""
    missing = set()
    for module, path in MODULES.items():
        relative = path.relative_to(SRC / "repro").as_posix()
        for qualified, first in functions(parse(path), module):
            if (relative, first) not in ran:
                missing.add(qualified)
    return missing


def test_the_function_walk_counts_decorators_and_skips_nested(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "def top():\n"
        "    def nested(): pass\n"
        "    return lambda: nested\n"
        "class Box:\n"
        "    @property\n"
        "    @staticmethod\n"
        "    def size(): return 1\n"
        "    class Inner:\n"
        "        def deep(self): pass\n"
    )
    assert sorted(functions(parse(path), "m")) == [
        ("m.Box.Inner.deep", 9), ("m.Box.size", 5), ("m.top", 1)]


def test_every_function_runs_under_an_entry_point():
    """Needs the recorder's files: run ``tests/reach/run_entry_points.sh``
    with ``REPRO_REACH_DIR`` set first (CI does, on 3.11)."""
    directory = os.environ.get("REPRO_REACH_DIR")
    if not directory:
        pytest.skip("REPRO_REACH_DIR is not set")
    ran = ran_lines(Path(directory))
    assert ran, f"no recorder output under {directory}"
    missing = unexecuted(ran)
    assert sorted(missing - set(EXEC_ALLOWLIST)) == [], \
        "no entry point runs it: wire it to one, delete it, or allowlist " \
        "it with a reason"
    assert sorted(set(EXEC_ALLOWLIST) - missing) == [], \
        "allowlisted but run (or gone): drop the entry"
    assert sorted(name for name, why in EXEC_ALLOWLIST.items()
                  if why.partition(":")[0] not in REASONS) == []
