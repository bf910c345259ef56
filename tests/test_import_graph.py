"""The package import graph of ``src/repro``, read from the source's AST.

A node is one top-level package or module of ``repro`` (``core``, ``api``,
``registry``, ...); an edge is an import from one into another, at module
level or inside a function, except imports under ``if TYPE_CHECKING:``,
which never run.  The graph must stay acyclic, and the ranking core must
import only the linear algebra, the exceptions and the registry leaf.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set

ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


def _node(path: Path) -> str:
    """The top-level package or module a source file belongs to."""
    parts = path.relative_to(ROOT).parts
    return parts[0][:-3] if len(parts) == 1 else parts[0]


def _type_checking_only(tree: ast.AST) -> Set[int]:
    """Ids of the nodes under an ``if TYPE_CHECKING:`` block."""
    hidden: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            for child in node.body:
                hidden.update(id(inner) for inner in ast.walk(child))
    return hidden


def _imported_modules(node: ast.AST) -> List[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        if node.module == "repro":
            return ["repro." + alias.name for alias in node.names]
        return [node.module]
    return []


def package_graph() -> Dict[str, Set[str]]:
    graph: Dict[str, Set[str]] = {}
    for path in sorted(ROOT.rglob("*.py")):
        if path == ROOT / "__init__.py":
            continue  # the facade re-exports; nothing imports it back
        source = _node(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        hidden = _type_checking_only(tree)
        edges = graph.setdefault(source, set())
        for node in ast.walk(tree):
            if id(node) in hidden:
                continue
            for module in _imported_modules(node):
                parts = module.split(".")
                if parts[0] == "repro" and len(parts) > 1 and parts[1] != source:
                    edges.add(parts[1])
    return graph


def _cycle(graph: Dict[str, Set[str]]) -> List[str]:
    """One import cycle as a node path, or ``[]`` when there is none."""
    state: Dict[str, int] = {}  # 1 on the DFS stack, 2 done
    stack: List[str] = []

    def visit(node: str) -> List[str]:
        state[node] = 1
        stack.append(node)
        for target in sorted(graph.get(node, ())):
            if state.get(target) == 1:
                return stack[stack.index(target):] + [target]
            if target not in state:
                found = visit(target)
                if found:
                    return found
        stack.pop()
        state[node] = 2
        return []

    for node in sorted(graph):
        if node not in state:
            found = visit(node)
            if found:
                return found
    return []


def test_the_package_graph_is_acyclic():
    assert _cycle(package_graph()) == []


def test_the_core_imports_only_linalg_exceptions_and_the_registry():
    assert package_graph()["core"] <= {"linalg", "exceptions", "registry"}


def test_the_registry_is_a_leaf():
    assert package_graph()["registry"] == set()


def test_the_cycle_finder_sees_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set()}) == []
