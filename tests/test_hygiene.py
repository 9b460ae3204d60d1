"""Source hygiene: no unused import and no unreferenced private helper in
the package modules."""

import ast
import pathlib

import pytest

import dimerforge

SRC = pathlib.Path(dimerforge.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in MODULES}


def _reads(node) -> set[str]:
    """Names read under ``node``: bare, as attributes, or inside a string
    annotation."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        annotation = getattr(sub, "annotation", None) or getattr(sub, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _reads(ast.parse(annotation.value, mode="eval"))
    return used


def _bound(imp) -> list[str]:
    """Names an import statement binds."""
    if isinstance(imp, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in imp.names]
    if imp.module == "__future__":
        return []
    return [a.asname or a.name for a in imp.names]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = TREES[path]
    unused = []
    # module-level imports are read by the rest of the module, function-level
    # ones by the rest of their function
    scopes = [tree] + [n for n in ast.walk(tree)
                       if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in scopes:
        imports = [n for n in scope.body if isinstance(n, (ast.Import, ast.ImportFrom))]
        reads = _reads(scope)
        unused += [f"{name} (line {imp.lineno})" for imp in imports for name in _bound(imp)
                   if name not in reads]
    assert not unused, f"{path.name}: unused imports {unused}"


def test_private_helpers_are_referenced():
    statements = [node for tree in TREES.values() for node in tree.body]
    reads = {id(node): _reads(node) | {a.name for sub in ast.walk(node)
                                       if isinstance(sub, ast.ImportFrom)
                                       for a in sub.names}
             for node in statements}
    unreferenced = []
    for path, tree in TREES.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                # a reference from inside the helper itself does not count
                if not any(node.name in reads[id(other)]
                           for other in statements if other is not node):
                    unreferenced.append(f"{path.name}:{node.name}")
    assert not unreferenced, f"private helpers never referenced: {unreferenced}"
