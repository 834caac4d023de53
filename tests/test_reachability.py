"""Only reached code lives in ``src/repro``.

Three static checks, read with :mod:`ast` alone (nothing here imports
``repro``):

* **Modules.** Every module under ``src/repro`` is imported, directly or
  through other modules, from an entry point: ``repro.cli``,
  ``repro.__main__`` or a script under ``tools/``, ``perf/`` (not
  ``perf/tests/``) or ``examples/``.  Imports inside functions count.
* **Definitions.** Every ``def`` and ``class`` under ``src/repro``
  (methods and nested functions included, dunders exempt) is named by
  code in ``src/repro``, ``tools/``, ``perf/`` or ``examples/`` somewhere
  other than at its own definition: as a ``Name``, an ``Attribute``, or
  a string constant that is exactly the identifier (``getattr(row,
  "exec_ms")``).  An import alias or an ``__all__`` entry is not a use.
* **State.** Every instance attribute a method of a class under
  ``src/repro`` assigns (``self.NAME = …``, annotated or not) and every
  field of a ``@dataclass`` there is read by the same code: as a loaded
  ``.NAME`` or an identifier-exact string.  Three forms are writes, not
  reads: ``x.NAME += …``, a call on ``x.NAME`` whose result is thrown
  away (the statement ``x.NAME.append(v)``), and ``x.NAME[k] = v``
  (or ``+= v``).
  Exempt are the fields of ``@register_result_type`` classes (the
  codecs, the canonical hash and the renderers iterate over them),
  ``NamedTuple``s (read by position) and dunders.

A definition that nothing names is either deleted or listed in
:data:`ALLOWED` with the reason it stays, and state that nothing reads
is deleted or listed in :data:`ALLOWED_STATE`; an entry that is now
named or read, or no longer defined, fails too, so the lists cannot rot.

The state check matches names, not objects, so it has blind spots: a
read of any other object's ``.NAME`` (``math.log`` reads every
``.log``, the string ``"queued"`` reads every ``.queued``), and a value
read only to update itself (``x.peak = max(x.peak, …)``), count as
reads.  A tally behind one of those is found by hand, as were a
per-function ledger read only inside the platform ledger's own fold and
the admission queue's ``queued`` and ``peak_depth`` counters.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
ENTRY_MODULES = ("repro.cli", "repro.__main__")
SCRIPT_DIRS = ("tools", "perf", "examples")

_HTTP = "called by `http.server`"
_KERNEL = "kernel primitive pinned by tests/property/"


def _read(test: str) -> str:
    return f"read-only accessor of reached state; {test} reads it"


def _field(test: str) -> str:
    return f"field of a value reached code returns; {test} reads it"


def _raised(test: str) -> str:
    return f"attribute of an error reached code raises; {test} reads it"


#: Definitions that nothing outside ``tests/`` names, each with the
#: reason it stays.  Keyed ``module.Qualified.name``.
ALLOWED: Dict[str, str] = {
    # Dispatched by name from outside the program.
    "repro.serve.http._AsgiRequestHandler.do_GET": _HTTP,
    "repro.serve.http._AsgiRequestHandler.do_POST": _HTTP,
    "repro.serve.http._AsgiRequestHandler.do_DELETE": _HTTP,
    "repro.serve.http._AsgiRequestHandler.do_PUT": _HTTP,
    "repro.serve.http._AsgiRequestHandler.log_message": _HTTP,
    # The DES kernel's own API, which the property suites pin.
    "repro.sim.kernel.Simulation.active_process": _KERNEL,
    "repro.sim.kernel.Simulation.add_trace_hook": _KERNEL,
    "repro.sim.kernel.Simulation.peek": _KERNEL,
    "repro.sim.process.Process.interrupt": _KERNEL,
    "repro.sim.process.Process.is_alive": _KERNEL,
    "repro.sim.resources.Store": _KERNEL,
    "repro.sim.resources.Store.try_get": _KERNEL,
    # Read-only views that tests use to observe reached code.
    "repro.autoscale.scaler.WarmPoolAutoscaler.pending_total":
        _read("tests/autoscale/test_scaler.py"),
    "repro.bench.ablations.DeoptResult.fireworks_still_wins":
        _read("tests/bench/test_ablations_unit.py"),
    "repro.bench.factors.FactorRow.post_jit_over_os_speedup":
        _read("tests/integration/test_paper_claims.py"),
    "repro.bench.paper.Claim.band":
        _read("tests/integration/test_paper_claims.py"),
    "repro.bench.sensitivity.SensitivityResult.metric_range":
        _read("tests/bench/test_sensitivity.py"),
    "repro.chaos.controller.HostFailureController.hosts_down":
        _read("tests/chaos/test_failover.py"),
    "repro.db.couchdb.CouchDatabase.all_docs":
        _read("tests/db/test_couchdb.py"),
    "repro.db.couchdb.CouchServer.database_names":
        _read("tests/db/test_couchdb.py"),
    "repro.db.couchdb.CouchServer.has_database":
        _read("tests/db/test_couchdb.py"),
    "repro.host.cpu.HostCpu.busy_cores": _read("tests/host/test_cpu.py"),
    "repro.mem.host_memory.HostMemory.free_pages_before_swap":
        _read("tests/mem/test_host_memory.py"),
    "repro.mem.host_memory.HostMemory.used_pages":
        _read("tests/mem/test_host_memory.py"),
    "repro.mem.host_memory.HostMemory.utilization":
        _read("tests/mem/test_host_memory.py"),
    "repro.mem.segments.SharedSegment.dirty_pages":
        _read("tests/mem/test_segments.py"),
    "repro.mem.segments.SharedSegment.resident_pages":
        _read("tests/mem/test_segments.py"),
    "repro.mem.segments.SharedSegment.total_dirty_pages":
        _read("tests/mem/test_segments.py"),
    "repro.net.address.IpAllocator.allocated":
        _read("tests/net/test_address.py"),
    "repro.net.namespace.NetworkNamespace.is_bound":
        _read("tests/net/test_namespace.py"),
    "repro.net.nat.NatTable.external_for": _read("tests/net/test_nat.py"),
    "repro.net.nat.NatTable.rule_count": _read("tests/net/test_nat.py"),
    "repro.platforms.bus.MessageBus.has_topic":
        _read("tests/platforms/test_bus.py"),
    "repro.platforms.bus.MessageBus.topic_names":
        _read("tests/platforms/test_bus.py"),
    "repro.platforms.gateway.ApiGateway.list_activations":
        _read("tests/platforms/test_gateway.py"),
    "repro.runtime.nodejs.NodeJsRuntime.get_optimization_status":
        _read("tests/runtime/test_interpreter.py"),
    "repro.runtime.ops.Program.io_op_count":
        _read("tests/runtime/test_ops.py"),
    "repro.runtime.ops.Program.total_compute_units":
        _read("tests/runtime/test_ops.py"),
    "repro.snapshot.chunks.ChunkMap.all_chunks":
        _read("tests/snapshot/test_chunks.py"),
    "repro.storage.disk.BlockDevice.has_file":
        _read("tests/storage/test_disk.py"),
    "repro.storage.snapshot_store.SnapshotStore.disk_used_mb":
        _read("tests/storage/test_snapshot_store.py"),
    "repro.storage.snapshot_store.SnapshotStore.missing_mb":
        _read("tests/storage/test_snapshot_store.py"),
    "repro.workloads.dag.DagSpec.function_spec":
        _read("tests/workloads/test_dag_spec.py"),
}

#: Instance attributes and dataclass fields that nothing outside
#: ``tests/`` reads, each with the reason it stays.  Keyed
#: ``module.Class.attribute``.  A tally (a counter or an append-only
#: collection) never belongs here: the ledger and the span trees hold
#: every outcome.
ALLOWED_STATE: Dict[str, str] = {
    "repro.sim.process.Interrupt.cause": _KERNEL,
    "repro.chaos.controller.ChaosEventRecord.detail":
        _field("tests/chaos/helpers.py"),
    "repro.core.annotator.common.AnnotatedSource.original":
        _field("tests/core/test_annotator_python.py"),
    "repro.net.bridge.Endpoint.tap": _field("tests/net/test_bridge.py"),
    "repro.platforms.bus.Record.timestamp_ms":
        _field("tests/platforms/test_bus.py"),
    "repro.snapshot.restorer.LazyRestorePlan.covered_mb":
        _field("tests/snapshot/test_lazy_restore.py"),
    "repro.snapshot.restorer.LazyRestorePlan.touched_mb":
        _field("tests/snapshot/test_lazy_restore.py"),
    "repro.workloads.generator.FunctionPopularity.popular":
        _field("tests/workloads/test_generator.py"),
    "repro.policy.signals.SignalSpec.doc": _field("tests/policy/test_dsl.py"),
    "repro.errors.InvocationFailedError.reason":
        _raised("tests/chaos/test_retry.py"),
    "repro.errors.InvocationSheddedError.reason":
        _raised("tests/trace/test_retention.py"),
    # Read through calls the check counts as writes.
    "repro.net.namespace.NetworkNamespace.nat":
        "the namespace's NAT table (Figure 5): its add_rule and "
        "remove_rule reject duplicate and missing rules; "
        "tests/net/test_bridge.py reads it",
}


class Codebase:
    """The ``src/repro`` package and the entry-point scripts under one
    repository *root*, parsed once."""

    def __init__(self, root: Path) -> None:
        self.root = root
        package = root / "src" / "repro"
        self.modules: Dict[str, Path] = {}
        for path in sorted(package.rglob("*.py")):
            parts = path.relative_to(package.parent).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            self.modules[".".join(parts)] = path
        excluded = root / "perf" / "tests"
        self.scripts = [
            path for name in SCRIPT_DIRS
            for path in sorted((root / name).rglob("*.py"))
            if excluded not in path.parents]
        self.trees = {path: ast.parse(path.read_text(), str(path))
                      for path in [*self.modules.values(), *self.scripts]}

    def reached_modules(self) -> Set[str]:
        """Every package module an entry point imports, transitively."""
        reached: Set[str] = set(ENTRY_MODULES)
        pending: List[Tuple[ast.AST, str, bool]] = [
            (self.trees[path], "", False) for path in self.scripts]
        pending += [(self.trees[self.modules[name]], name, False)
                    for name in ENTRY_MODULES]
        while pending:
            tree, module, is_package = pending.pop()
            for name in _imported(tree, module, is_package):
                parts = name.split(".")
                for end in range(1, len(parts) + 1):
                    candidate = ".".join(parts[:end])
                    if candidate in self.modules and candidate not in reached:
                        reached.add(candidate)
                        path = self.modules[candidate]
                        pending.append((self.trees[path], candidate,
                                        path.name == "__init__.py"))
        return reached

    def unreached_modules(self) -> List[str]:
        return sorted(set(self.modules) - self.reached_modules())

    def definitions(self) -> Dict[str, Tuple[str, Path, int]]:
        """``{qualified name: (bare name, file, line)}`` for every def and
        class under the package, dunders excepted."""
        found = {}

        def visit(node: ast.AST, prefix: str, path: Path) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    qualified = f"{prefix}.{child.name}"
                    name = child.name
                    if not (name.startswith("__") and name.endswith("__")):
                        found[qualified] = (name, path, child.lineno)
                    visit(child, qualified, path)
                else:
                    visit(child, prefix, path)

        for module, path in self.modules.items():
            visit(self.trees[path], module, path)
        return found

    def named(self) -> Set[str]:
        """Every identifier the parsed code names (see the module
        docstring for what counts)."""
        names = set()
        for tree in self.trees.values():
            skipped = _all_entries(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and node.value.isidentifier()
                      and id(node) not in skipped):
                    names.add(node.value)
        return names

    def unnamed_definitions(self, allowed: Mapping[str, str]) -> List[str]:
        """``qualified (file:line)`` of each definition nothing names and
        *allowed* does not list."""
        return self._unused(self.definitions(), self.named(), allowed)

    def stale_entries(self, allowed: Mapping[str, str]) -> List[str]:
        """Entries of *allowed* that are named again or no longer
        defined."""
        return _stale(allowed, self.definitions(), self.named())

    def state(self) -> Dict[str, Tuple[str, Path, int]]:
        """``{module.Class.attribute: (attribute, file, line)}`` for every
        instance attribute and dataclass field under the package (see the
        module docstring for what is exempt)."""
        found: Dict[str, Tuple[str, Path, int]] = {}

        def visit(node: ast.AST, prefix: str, path: Path) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    qualified = f"{prefix}.{child.name}"
                    if not ({"register_result_type"} & _decorators(child)
                            or "NamedTuple" in map(_bare, child.bases)):
                        for name, line in _assigned(child):
                            if not (name.startswith("__")
                                    and name.endswith("__")):
                                found.setdefault(f"{qualified}.{name}",
                                                 (name, path, line))
                    visit(child, qualified, path)
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    visit(child, f"{prefix}.{child.name}", path)
                else:
                    visit(child, prefix, path)

        for module, path in self.modules.items():
            visit(self.trees[path], module, path)
        return found

    def read(self) -> Set[str]:
        """Every attribute name the parsed code reads (see the module
        docstring for what counts)."""
        names = set()
        for tree in self.trees.values():
            skipped = _all_entries(tree) | _writes(tree)
            for node in ast.walk(tree):
                if id(node) in skipped:
                    continue
                if isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and node.value.isidentifier()):
                    names.add(node.value)
        return names

    def unread_state(self, allowed: Mapping[str, str]) -> List[str]:
        """``qualified (file:line)`` of each attribute nothing reads and
        *allowed* does not list."""
        return self._unused(self.state(), self.read(), allowed)

    def stale_state_entries(self, allowed: Mapping[str, str]) -> List[str]:
        """Entries of *allowed* that are read again or no longer
        assigned."""
        return _stale(allowed, self.state(), self.read())

    def _unused(self, found: Mapping[str, Tuple[str, Path, int]],
                used: Set[str], allowed: Mapping[str, str]) -> List[str]:
        return sorted(
            f"{qualified} ({path.relative_to(self.root)}:{line})"
            for qualified, (name, path, line) in found.items()
            if name not in used and qualified not in allowed)


def _stale(allowed: Mapping[str, str],
           found: Mapping[str, Tuple[str, Path, int]],
           used: Set[str]) -> List[str]:
    return sorted(qualified for qualified in allowed
                  if qualified not in found or found[qualified][0] in used)


def _bare(node: ast.expr) -> str:
    """The last name of a ``Name``, ``Attribute`` or call of either
    (``@dataclass(frozen=True)`` is ``dataclass``)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _decorators(node: ast.AST) -> Set[str]:
    return {_bare(decorator) for decorator in node.decorator_list}


def _assigned(cls: ast.ClassDef) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` of each field of a dataclass *cls* and of each
    ``self.NAME`` its methods assign."""
    if "dataclass" in _decorators(cls):
        for statement in cls.body:
            if (isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                    and "ClassVar" not in ast.unparse(statement.annotation)):
                yield statement.target.id, statement.lineno
    for method in cls.body:
        if not (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                and method.args.args
                and "staticmethod" not in _decorators(method)):
            continue
        this = method.args.args[0].arg
        for node in ast.walk(method):
            targets = (list(node.targets) if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            while targets:
                target = targets.pop()
                if isinstance(target, (ast.Tuple, ast.List)):
                    targets.extend(target.elts)
                elif (isinstance(target, ast.Attribute)
                      and isinstance(target.value, ast.Name)
                      and target.value.id == this):
                    yield target.attr, target.lineno


def _writes(tree: ast.AST) -> Set[int]:
    """``id()`` of every loaded ``x.NAME`` that only updates ``NAME``:
    the ``x.NAME`` of ``x.NAME.f(…)`` as a statement, and of
    ``x.NAME[k] = v`` or ``x.NAME[k] += v`` (``x.NAME += …`` stores, so
    it never loads)."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call) \
                and isinstance(node.value.func, ast.Attribute):
            ids.add(id(node.value.func.value))
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, (ast.AugAssign,
                                                      ast.AnnAssign))
                   else [])
        ids.update(id(target.value) for target in targets
                   if isinstance(target, ast.Subscript))
    return ids


def _imported(tree: ast.AST, module: str, is_package: bool) -> Iterator[str]:
    """Every module name an import in *tree* names, parents included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = module.split(".")
                if not is_package:
                    parts = parts[:-1]
                parts = parts[:len(parts) - (node.level - 1)]
                base = ".".join(parts + ([base] if base else []))
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def _all_entries(tree: ast.AST) -> Set[int]:
    """``id()`` of every string constant listed in an ``__all__``."""
    ids = set()
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets):
            ids.update(id(const) for const in ast.walk(node)
                       if isinstance(const, ast.Constant))
    return ids


REPO = Codebase(ROOT)


def test_every_module_is_imported_from_an_entry_point():
    unreached = REPO.unreached_modules()
    assert not unreached, f"modules no entry point imports: {unreached}"


def test_every_definition_is_named_outside_tests():
    unnamed = REPO.unnamed_definitions(ALLOWED)
    assert not unnamed, (
        "definitions that nothing outside tests/ names (delete them, or "
        "list them in ALLOWED with a reason):\n  " + "\n  ".join(unnamed))


def test_allowed_entries_are_defined_and_unnamed():
    stale = REPO.stale_entries(ALLOWED)
    assert not stale, f"ALLOWED entries that are named or gone: {stale}"


def test_every_attribute_is_read_outside_tests():
    unread = REPO.unread_state(ALLOWED_STATE)
    assert not unread, (
        "state that nothing outside tests/ reads (delete it, or list it "
        "in ALLOWED_STATE with a reason):\n  " + "\n  ".join(unread))


def test_allowed_state_entries_are_assigned_and_unread():
    stale = REPO.stale_state_entries(ALLOWED_STATE)
    assert not stale, f"ALLOWED_STATE entries that are read or gone: {stale}"


# -- the checks themselves, on small trees ------------------------------------

#: A tree that passes both checks: the entry points reach ``repro`` and
#: ``repro.core``, and every definition is named.
_CLEAN = {
    "src/repro/__init__.py": '"""The package."""\n',
    "src/repro/__main__.py": "from repro.cli import main\n\nmain()\n",
    "src/repro/cli.py": ("from repro.core import run\n\n\n"
                         "def main():\n    return run()\n"),
    "src/repro/core.py": "def run():\n    return 0\n",
}

#: ``repro.core`` with a second function, ``helper``, that only its own
#: ``def`` names.
_HELPER = ("def run():\n    return 0\n\n\n"
           "def helper():\n    return 1\n")


def _tree(tmp_path: Path,
          files: Optional[Mapping[str, str]] = None) -> Codebase:
    """A :class:`Codebase` of :data:`_CLEAN` with *files* (relative path
    to text) added or replaced."""
    for name, text in {**_CLEAN, **(files or {})}.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return Codebase(tmp_path)


def _unnamed(tree: Codebase) -> List[str]:
    return [entry.split()[0] for entry in tree.unnamed_definitions({})]


class TestModuleCheck:
    def test_a_clean_tree_passes(self, tmp_path):
        tree = _tree(tmp_path)
        assert tree.unreached_modules() == []
        assert tree.unnamed_definitions({}) == []

    def test_a_module_nothing_imports_fails(self, tmp_path):
        tree = _tree(tmp_path, {"src/repro/orphan.py": "VALUE = 1\n"})
        assert tree.unreached_modules() == ["repro.orphan"]

    def test_an_import_from_tests_does_not_reach(self, tmp_path):
        tree = _tree(tmp_path, {
            "src/repro/orphan.py": "VALUE = 1\n",
            "tests/test_orphan.py": "from repro.orphan import VALUE\n"})
        assert tree.unreached_modules() == ["repro.orphan"]

    def test_an_import_inside_a_function_reaches(self, tmp_path):
        tree = _tree(tmp_path, {
            "src/repro/lazy.py": "VALUE = 1\n",
            "src/repro/core.py": ("def run():\n"
                                  "    from repro import lazy\n"
                                  "    return lazy.VALUE\n")})
        assert tree.unreached_modules() == []

    def test_imports_reach_transitively(self, tmp_path):
        tree = _tree(tmp_path, {
            "src/repro/deep.py": "VALUE = 1\n",
            "src/repro/core.py": ("import repro.deep\n\n\n"
                                  "def run():\n"
                                  "    return repro.deep.VALUE\n")})
        assert tree.unreached_modules() == []

    def test_relative_imports_resolve(self, tmp_path):
        tree = _tree(tmp_path, {
            "src/repro/core.py": "from .sub import run\n",
            "src/repro/sub/__init__.py": ("from . import leaf\n\n"
                                          "run = leaf.run\n"),
            "src/repro/sub/leaf.py": ("from ..shared import VALUE\n\n\n"
                                      "def run():\n    return VALUE\n"),
            "src/repro/shared.py": "VALUE = 1\n"})
        assert tree.unreached_modules() == []

    def test_a_tools_script_is_an_entry_point(self, tmp_path):
        tree = _tree(tmp_path, {
            "src/repro/extra.py": "VALUE = 1\n",
            "tools/report.py": "from repro.extra import VALUE\n"})
        assert tree.unreached_modules() == []

    def test_perf_tests_are_not_an_entry_point(self, tmp_path):
        tree = _tree(tmp_path, {
            "src/repro/extra.py": "VALUE = 1\n",
            "perf/tests/test_extra.py": "import repro.extra\n"})
        assert tree.unreached_modules() == ["repro.extra"]


class TestDefinitionCheck:
    def test_an_unnamed_function_fails(self, tmp_path):
        tree = _tree(tmp_path, {"src/repro/core.py": _HELPER})
        path = Path("src", "repro", "core.py")
        assert tree.unnamed_definitions({}) == [
            f"repro.core.helper ({path}:5)"]

    def test_an_unnamed_method_and_nested_function_fail(self, tmp_path):
        tree = _tree(tmp_path, {"src/repro/core.py": (
            "class Box:\n"
            "    def unused(self):\n"
            "        def inner():\n"
            "            return 1\n"
            "        return 0\n\n\n"
            "def run():\n    return Box()\n")})
        assert _unnamed(tree) == ["repro.core.Box.unused",
                                  "repro.core.Box.unused.inner"]

    def test_an_attribute_is_a_use(self, tmp_path):
        tree = _tree(tmp_path, {"src/repro/core.py": (
            "class Box:\n    def size(self):\n        return 1\n\n\n"
            "def run():\n    return Box().size()\n")})
        assert _unnamed(tree) == []

    def test_an_identifier_string_is_a_use(self, tmp_path):
        tree = _tree(tmp_path, {"src/repro/core.py": (
            "class Row:\n    def exec_ms(self):\n        return 1\n\n\n"
            "def run():\n    return getattr(Row(), \"exec_ms\")()\n")})
        assert _unnamed(tree) == []

    def test_a_string_that_only_contains_the_name_is_not(self, tmp_path):
        tree = _tree(tmp_path, {"src/repro/core.py": (
            "def exec_ms():\n    return 1\n\n\n"
            "def run():\n    return \"exec_ms total\"\n")})
        assert _unnamed(tree) == ["repro.core.exec_ms"]

    def test_an_import_alias_is_not_a_use(self, tmp_path):
        tree = _tree(tmp_path, {
            "src/repro/core.py": _HELPER,
            "tools/report.py": "from repro.core import helper as _h\n"})
        assert _unnamed(tree) == ["repro.core.helper"]

    def test_an_all_entry_is_not_a_use(self, tmp_path):
        tree = _tree(tmp_path, {
            "src/repro/core.py": "__all__ = [\"helper\", \"run\"]\n\n\n"
                                 + _HELPER})
        assert _unnamed(tree) == ["repro.core.helper"]

    def test_dunders_are_exempt(self, tmp_path):
        tree = _tree(tmp_path, {"src/repro/core.py": (
            "class Box:\n    def __repr__(self):\n        return \"box\"\n\n\n"
            "def run():\n    return Box()\n")})
        assert _unnamed(tree) == []

    def test_a_use_under_tests_does_not_count(self, tmp_path):
        tree = _tree(tmp_path, {
            "src/repro/core.py": _HELPER,
            "tests/test_core.py": ("from repro.core import helper\n\n"
                                   "assert helper() == 1\n")})
        assert _unnamed(tree) == ["repro.core.helper"]

    def test_a_use_in_an_example_counts(self, tmp_path):
        tree = _tree(tmp_path, {
            "src/repro/core.py": _HELPER,
            "examples/demo.py": ("from repro.core import helper\n\n"
                                 "print(helper())\n")})
        assert _unnamed(tree) == []


class TestAllowedList:
    ALLOWED = {"repro.core.helper": "read by a test"}

    def test_an_allowed_definition_passes(self, tmp_path):
        tree = _tree(tmp_path, {"src/repro/core.py": _HELPER})
        assert tree.unnamed_definitions(self.ALLOWED) == []
        assert tree.stale_entries(self.ALLOWED) == []

    def test_an_entry_named_again_is_stale(self, tmp_path):
        tree = _tree(tmp_path, {
            "src/repro/core.py": _HELPER,
            "tools/report.py": "from repro.core import helper\n\nhelper()\n"})
        assert tree.stale_entries(self.ALLOWED) == ["repro.core.helper"]

    def test_an_entry_no_longer_defined_is_stale(self, tmp_path):
        tree = _tree(tmp_path)
        assert tree.stale_entries(self.ALLOWED) == ["repro.core.helper"]


def _unread(tree: Codebase) -> List[str]:
    return [entry.split()[0] for entry in tree.unread_state({})]


#: ``repro.core`` with a class whose ``count`` only the file under test
#: reads (or not).
_COUNTER = ("class Box:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n\n"
            "    def bump(self):\n"
            "        self.count += 1\n\n\n"
            "def run():\n    box = Box()\n    box.bump()\n    return box\n")


class TestStateCheck:
    def test_a_read_attribute_passes(self, tmp_path):
        tree = _tree(tmp_path, {"src/repro/core.py": _COUNTER.replace(
            "return box\n", "return box.count\n")})
        assert _unread(tree) == []

    def test_a_counter_only_incremented_fails(self, tmp_path):
        tree = _tree(tmp_path, {"src/repro/core.py": _COUNTER})
        path = Path("src", "repro", "core.py")
        assert tree.unread_state({}) == [f"repro.core.Box.count ({path}:3)"]

    def test_a_list_only_appended_to_fails(self, tmp_path):
        tree = _tree(tmp_path, {"src/repro/core.py": (
            "class Box:\n"
            "    def __init__(self):\n"
            "        self.seen = []\n"
            "        self.by_key = {}\n\n"
            "    def note(self, key):\n"
            "        self.seen.append(key)\n"
            "        self.by_key[key] = 1\n\n\n"
            "def run():\n    return Box().note(1)\n")})
        assert _unread(tree) == ["repro.core.Box.by_key",
                                 "repro.core.Box.seen"]

    def test_an_unread_dataclass_field_fails(self, tmp_path):
        tree = _tree(tmp_path, {"src/repro/core.py": (
            "from dataclasses import dataclass\n\n\n"
            "@dataclass(frozen=True)\n"
            "class Row:\n    used: int\n    unused: int = 0\n\n\n"
            "def run():\n    return Row(1).used\n")})
        assert _unread(tree) == ["repro.core.Row.unused"]

    def test_a_read_in_an_example_counts(self, tmp_path):
        tree = _tree(tmp_path, {
            "src/repro/core.py": _COUNTER,
            "examples/demo.py": ("from repro.core import run\n\n"
                                 "print(run().count)\n")})
        assert _unread(tree) == []

    def test_a_read_under_tests_does_not_count(self, tmp_path):
        tree = _tree(tmp_path, {
            "src/repro/core.py": _COUNTER,
            "tests/test_core.py": ("from repro.core import run\n\n"
                                   "assert run().count == 1\n")})
        assert _unread(tree) == ["repro.core.Box.count"]

    def test_getattr_with_the_name_counts(self, tmp_path):
        tree = _tree(tmp_path, {"src/repro/core.py": _COUNTER.replace(
            "return box\n", "return getattr(box, \"count\")\n")})
        assert _unread(tree) == []

    def test_a_result_type_field_is_exempt(self, tmp_path):
        tree = _tree(tmp_path, {"src/repro/core.py": (
            "from dataclasses import dataclass\n\n"
            "from repro.codec import register_result_type\n\n\n"
            "@register_result_type\n@dataclass\n"
            "class Row:\n    unused: int = 0\n\n\n"
            "def run():\n    return Row()\n")})
        assert _unread(tree) == []

    def test_a_named_tuple_and_dunders_are_exempt(self, tmp_path):
        tree = _tree(tmp_path, {"src/repro/core.py": (
            "from typing import NamedTuple\n\n\n"
            "class Pair(NamedTuple):\n    left: int\n    right: int\n\n\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self.__dict__ = {}\n\n\n"
            "def run():\n    return Pair(1, 2), Box()\n")})
        assert _unread(tree) == []


class TestAllowedState:
    ALLOWED = {"repro.core.Box.count": "read by a test"}

    def test_an_allowed_attribute_passes(self, tmp_path):
        tree = _tree(tmp_path, {"src/repro/core.py": _COUNTER})
        assert tree.unread_state(self.ALLOWED) == []
        assert tree.stale_state_entries(self.ALLOWED) == []

    def test_an_entry_read_again_is_stale(self, tmp_path):
        tree = _tree(tmp_path, {"src/repro/core.py": _COUNTER.replace(
            "return box\n", "return box.count\n")})
        assert tree.stale_state_entries(self.ALLOWED) == [
            "repro.core.Box.count"]

    def test_an_entry_no_longer_assigned_is_stale(self, tmp_path):
        tree = _tree(tmp_path)
        assert tree.stale_state_entries(self.ALLOWED) == [
            "repro.core.Box.count"]
