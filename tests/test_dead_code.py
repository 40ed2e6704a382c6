"""Nothing in ``src/repro`` stays that nothing runs.

The scan lists every top-level function and class of ``src/repro``, every
method and every annotated class attribute (a dataclass field), and asks
whether the name is reached from ``src/``, ``benchmarks/`` or ``examples/``
— tests do not count, so a helper that only a test calls is dead.

A name is reached when some other line of that code uses it: a bare name,
an attribute (``x.name``), a keyword argument (``f(name=...)``) or a string
that is exactly the name (``getattr(x, "name")``, a field table). A name
inside a table such as ``DATASET_BUILDERS = {"mapug": build_mapug}`` is a
plain use, so a builder reached only through its table is reached. What
does not count: the name's own definition and body, an ``import`` of it
(so a bare ``__init__`` re-export keeps nothing alive) and an ``__all__``
entry. Names are matched by name alone, not by class, and dunder methods
are reached by the language, so the scan under-reports rather than
over-reports.

Names the harness pins are reached from ``benchmarks/`` and need no entry
below. ``ALLOWED`` holds the few names that stay although nothing runs
them, each with its reason; an entry that becomes reached fails the test
too, so the list cannot go stale.

The second scan does the same for configuration: a ``ServerConfig`` field
that only tests set to another value is a constant in production, and the
branch behind that value is code only tests run. A field is *turned* when
``src/``, ``benchmarks/`` or ``examples/`` (``core/config.py`` aside) gives
it a value: as a keyword of a ``ServerConfig(...)`` call, as a keyword of a
``replace(...)`` call whose every keyword is a field and whose first argument
is not an attribute the package declares as another class (``replace(
config.costs, keep_alive=True)`` replaces a ``CostModel``), or as a string
in a field table — a tuple row of a list or tuple display that also holds a
literal value, such as ``benchmarks/test_table1_config.py``'s. Calls of
anything else (``MembershipTable(reprobe_interval=...)``) do not count.
``UNTURNED`` holds the fields that stay although nothing turns them, each
with its reason, and an entry that becomes turned fails the test too.

Run on its own (``python -m tests.test_dead_code``) it prints each unreached
name with its file, line and size in lines, then each unturned field.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
REACHING = ("src", "benchmarks", "examples")

# "module path relative to src/repro: qualified name" -> why it stays.
ALLOWED = {
    "core/ldg.py: LocalDocumentGraph.check_invariants":
        "test oracle: the property and fsck suites assert the LDG's "
        "invariants through it",
    "server/fsck.py: assert_clean":
        "test oracle: the crash-recovery and chaos suites check every "
        "replayed or surviving engine with the fsck invariants through it",
    "faults.py: FaultPlan.from_env":
        "CI's seed entry: the chaos suites build their plan from "
        "REPRO_FAULT_SEED through it",
    "faults.py: FaultPlan.unblock":
        "chaos harness: the partition tests heal what FaultPlan.block "
        "cut; the plan is test tooling like from_env",
}

CONFIG = PACKAGE / "core" / "config.py"

# ServerConfig field -> why it stays although nothing outside tests turns it.
_TEST_TIMING = ("test timing: failure-path tests shrink it to finish in "
                "seconds; production takes the default through scaled()")
UNTURNED = {
    "ping_failure_limit": "test timing: failure-path tests lower it so a "
                          "peer dies in two missed transfers",
    "reprobe_interval": _TEST_TIMING,
    "reprobe_max_interval": _TEST_TIMING,
    "reprobe_jitter": "test timing: circuit tests set it to 0 to pin the "
                      "admission schedule",
    "replication_sufficient": "replica rule: goes or gets a turner with "
                              "the one replica rule (ROADMAP item 12)",
    "replication_heat_threshold": "replica rule: goes or gets a turner "
                                  "with the one replica rule (ROADMAP "
                                  "item 12)",
    "protect_entry_points": "the paper's section 3.1 entry-point "
                            "hypothesis; TestEntryPointAblation turns it, "
                            "an ablation row in bench/figures.py is open",
    "keep_alive_max_requests": "tests set 1 for a Connection: close peer; "
                               "the e2e client's reconnects measure the "
                               "default",
    "byte_cache_bytes": "tests shrink the copy cache's budget to make it "
                        "evict, or set 0 to switch it off",
    "response_cache_entries": "the benchmark harness pins it (ROADMAP "
                              "item 6(a)); the server reads nothing of it",
    "lock_stripes": "the benchmark harness pins it (ROADMAP item 6(a)); "
                    "the server reads nothing of it",
    "max_connections": "tests lower the event loop's connection cap to "
                       "see the shed at accept",
    "write_buffer_limit": "tests lower the event loop's high-water mark "
                          "to see backpressure",
    "sendfile_min_bytes": "tests lower it to send small files by sendfile",
    "tiered_shedding": "tests switch it off to compare the single-tier "
                       "overload rule",
    "shed_pressure": "tests lower it to shed without real overload",
    "scrub_interval": "tests set it, and 0 switches scrubbing off; "
                      "production takes the default through scaled()",
    "scrub_budget": "tests raise it to scrub a whole corpus in one round",
    "integrity_serve_sample": "tests set 1 to verify every cache fill",
}


@dataclass(frozen=True)
class Definition:
    module: str  # path relative to src/repro, e.g. "core/ldg.py"
    qualname: str  # "name" or "Class.name"
    line: int
    size: int
    node: ast.AST

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]

    @property
    def key(self) -> str:
        return f"{self.module}: {self.qualname}"


def _source_files(top: Path):
    return sorted(path for path in top.rglob("*.py")
                  if "__pycache__" not in path.parts)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _span(node: ast.AST) -> int:
    start = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", [])])
    return node.end_lineno - start + 1


def definitions() -> list[Definition]:
    """Every top-level def and class, method and class field of the package."""
    found = []
    for path in _source_files(PACKAGE):
        module = path.relative_to(PACKAGE).as_posix()
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                found.append(Definition(module, node.name, node.lineno,
                                        _span(node), node))
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = member.name
                elif (isinstance(member, ast.AnnAssign)
                        and isinstance(member.target, ast.Name)):
                    name = member.target.id
                else:
                    continue
                if name.startswith("__") and name.endswith("__"):
                    continue
                found.append(Definition(module, f"{node.name}.{name}",
                                        member.lineno, _span(member), member))
    return found


def _is_all(node: ast.AST) -> bool:
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AnnAssign,
                                                       ast.AugAssign))
               else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _uses(tree: ast.AST):
    """Yield ``(name, node)`` for every use of a name in ``tree``."""
    skip = set()
    for node in ast.walk(tree):
        if _is_all(node):
            skip.update(id(sub) for sub in ast.walk(node))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.isidentifier()):
            yield node.value, node


def reached_names(defs: list[Definition]) -> set[str]:
    """Names used in ``src/``, ``benchmarks/`` or ``examples/``.

    A use inside the definition that introduces the name (its recursion, a
    dataclass field's own line) does not count for that name.
    """
    own: dict[int, set[str]] = {}
    for definition in defs:
        for sub in ast.walk(definition.node):
            own.setdefault(id(sub), set()).add(definition.name)
    reached = set()
    for top in REACHING:
        for path in _source_files(ROOT / top):
            for name, node in _uses(_parse(path)):
                if name not in own.get(id(node), ()):
                    reached.add(name)
    return reached


def unreached() -> list[Definition]:
    defs = definitions()
    reached = reached_names(defs)
    return [d for d in defs
            if d.name not in reached
            and not (d.name.startswith("__") and d.name.endswith("__"))]


def test_every_definition_is_reached():
    dead = [d for d in unreached() if d.key not in ALLOWED]
    assert not dead, "unreached outside tests:\n" + "\n".join(
        f"  src/repro/{d.module}:{d.line} {d.qualname} ({d.size} lines)"
        for d in dead)


def test_every_allowed_name_is_still_unreached():
    keys = {d.key for d in unreached()}
    stale = [key for key in ALLOWED if key not in keys]
    assert not stale, f"allow-list entries now reached or gone: {stale}"


def config_fields() -> list[str]:
    """``ServerConfig``'s fields, in declaration order."""
    for node in _parse(CONFIG).body:
        if isinstance(node, ast.ClassDef) and node.name == "ServerConfig":
            return [member.target.id for member in node.body
                    if isinstance(member, ast.AnnAssign)
                    and isinstance(member.target, ast.Name)]
    raise AssertionError("no ServerConfig in core/config.py")


def _callee(call: ast.Call) -> str:
    func = call.func
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else "")


def attribute_types() -> dict[str, str]:
    """Class attribute -> its annotated class name, for every attribute of
    the package annotated with one class name wherever it is declared."""
    seen: dict[str, set[str]] = {}
    for path in _source_files(PACKAGE):
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)
                    and isinstance(node.annotation, ast.Name)):
                seen.setdefault(node.target.id, set()).add(node.annotation.id)
    return {name: kinds.pop() for name, kinds in seen.items()
            if len(kinds) == 1}


def _replaces_other(call: ast.Call, types: dict[str, str]) -> bool:
    target = call.args[0] if call.args else None
    return (isinstance(target, ast.Attribute)
            and types.get(target.attr, "ServerConfig") != "ServerConfig")


def _turned_in(tree: ast.AST, fields: set[str], types: dict[str, str]):
    """Yield every field *tree* gives a value; *types* is
    :func:`attribute_types`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _callee(node) in ("ServerConfig",
                                                            "replace"):
            names = [kw.arg for kw in node.keywords if kw.arg]
            if _callee(node) == "replace" and (
                    not set(names) <= fields or _replaces_other(node, types)):
                continue
            yield from (name for name in names if name in fields)
        elif isinstance(node, (ast.List, ast.Tuple)):
            for row in node.elts:
                if not isinstance(row, ast.Tuple):
                    continue
                cells = [cell.value for cell in row.elts
                         if isinstance(cell, ast.Constant)]
                if any(not isinstance(cell, str) for cell in cells):
                    yield from (cell for cell in cells if cell in fields)


def turned_fields() -> set[str]:
    fields, types = set(config_fields()), attribute_types()
    turned = set()
    for top in REACHING:
        for path in _source_files(ROOT / top):
            if path != CONFIG:
                turned.update(_turned_in(_parse(path), fields, types))
    return turned


def unturned() -> list[str]:
    turned = turned_fields()
    return [name for name in config_fields() if name not in turned]


def test_every_config_field_is_turned():
    constant = [name for name in unturned() if name not in UNTURNED]
    assert not constant, (
        "ServerConfig fields nothing outside tests sets — make each a "
        f"constant where it is read, or give it a turner: {constant}")


def test_every_unturned_field_is_still_an_unturned_field():
    fields, left = set(config_fields()), set(unturned())
    stale = [name for name in UNTURNED if name not in fields
             or name not in left]
    assert not stale, f"UNTURNED entries now turned or gone: {stale}"


def test_the_field_scan_sees_only_config_calls():
    fields = {"reprobe_interval", "keep_alive_timeout", "stats_interval",
              "pinger_interval", "worker_threads", "scrub_budget"}
    tree = ast.parse(
        "MembershipTable(reprobe_interval=1.0)\n"
        "replace(costs, keep_alive_timeout=2.0, link_latency=0.1)\n"
        "replace(config.costs, scrub_budget=4)\n"
        "replace(base, stats_interval=5.0)\n"
        "replace(config.server_config, pinger_interval=5.0)\n"
        "TABLE = [('Worker threads', 'worker_threads', 12)]\n"
        "SLOTS = ('reprobe_interval', 'keep_alive_timeout')\n")
    types = {"costs": "CostModel", "server_config": "ServerConfig"}
    assert set(_turned_in(tree, fields, types)) == {
        "stats_interval", "pinger_interval", "worker_threads"}


def main() -> int:
    dead = unreached()
    for d in dead:
        mark = "  (allowed)" if d.key in ALLOWED else ""
        print(f"src/repro/{d.module}:{d.line}\t{d.qualname}\t"
              f"{d.size} lines{mark}")
    flagged = [d for d in dead if d.key not in ALLOWED]
    print(f"{len(dead)} unreached, {len(flagged)} not allowed, "
          f"{sum(d.size for d in flagged)} lines")
    constant = unturned()
    for name in constant:
        reason = UNTURNED.get(name)
        print(f"ServerConfig.{name}\t"
              + (f"(allowed) {reason}" if reason else "unturned"))
    flagged_fields = [name for name in constant if name not in UNTURNED]
    print(f"{len(config_fields())} fields, {len(constant)} unturned, "
          f"{len(flagged_fields)} not allowed")
    return 1 if flagged or flagged_fields else 0


if __name__ == "__main__":
    sys.exit(main())
