"""Gate against module-level code in ``src/prefnorm`` that nothing reaches.

A module-level function or class passes if ``prefnorm.__all__`` exports it,
or if some file under ``src/``, ``bench/`` or ``scripts/`` refers to it as
a name, an attribute or an identifier string (the benchmark's tracer looks
sites up by string).  Its own definition and imports of it do not count,
and neither do the tests: code that only a test calls fails the gate.
"""
import ast
from pathlib import Path

import prefnorm

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "prefnorm"


def referenced_names() -> set[str]:
    names: set[str] = set()
    for folder in ("src", "bench", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and node.value.isidentifier()):
                    names.add(node.value)
    return names


def test_every_module_level_definition_is_reached():
    defs = [(path.name, node)
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text(), str(path)).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]
    assert defs
    reached = referenced_names() | set(prefnorm.__all__)
    assert [f"{name}:{node.lineno} {node.name}" for name, node in defs
            if node.name not in reached] == []
