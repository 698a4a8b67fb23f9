"""The package's shape: every public module-level function and class in
qsct is read by the package's own code outside its own definition, so a
public helper that only tests read is deleted rather than kept."""

import ast
from pathlib import Path

import qsct

# Public names kept only for library callers, none of the package's modules
# reading them, each with its reason. Empty: no such name is kept.
LIBRARY_ONLY: dict[str, str] = {}


def test_every_public_function_and_class_is_read_by_the_package():
    # reads are AST names and attributes in load context; imports, docstrings
    # and the package's re-exports in __init__ do not read a name
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(qsct.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"}
    public = {(module, node.name): node for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    read = set()
    for module, tree in trees.items():
        for statement in tree.body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if public.get((module, name)) is not statement:
                    read.add(name)
    unread = sorted(f"{module[:-3]}.{name}" for module, name in public
                    if name not in read and name not in LIBRARY_ONLY)
    assert not unread, f"public but read only outside the package: {unread}"
    assert not set(LIBRARY_ONLY) - {name for _, name in public}, "LIBRARY_ONLY names a deleted name"
