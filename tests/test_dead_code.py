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

Run on its own (``python -m tests.test_dead_code``) it prints each unreached
name with its file, line and size in lines.
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


def main() -> int:
    dead = unreached()
    for d in dead:
        mark = "  (allowed)" if d.key in ALLOWED else ""
        print(f"src/repro/{d.module}:{d.line}\t{d.qualname}\t"
              f"{d.size} lines{mark}")
    flagged = [d for d in dead if d.key not in ALLOWED]
    print(f"{len(dead)} unreached, {len(flagged)} not allowed, "
          f"{sum(d.size for d in flagged)} lines")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
