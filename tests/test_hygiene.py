"""Source hygiene: no unused import, no unreferenced private helper, no
export that the package itself never reads, no dataclass field or property
that no module reads, no parameter its function never reads, no function
defined inside a loop, no map that re-checks the matching it built, no
dependency beyond the standard library and click, no process machinery or
check module loaded at import, every check module loaded before the suite
forks its workers, no faces made except by tracing, and no private
attribute set from outside its object."""

import ast
import os
import pathlib
import re
import subprocess
import sys

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


def _imports(scope) -> list:
    """The imports of a module or function, also those nested in its
    ``if``, ``with``, ``try`` and loop blocks, but not those of the functions
    and classes it defines."""
    found, todo = [], list(scope.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo += ast.iter_child_nodes(node)
    return found


# the one import kept for what importing does: ``run_suite`` loads the check
# modules before it forks its workers, so that they inherit them
UNREAD_IMPORTS = {("report.py", "run_suite", "from . import aztec, bijections, generators, parity")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = TREES[path]
    lines = path.read_text(encoding="utf-8").splitlines()
    unused, exempt = [], set()
    # module-level imports are read by the rest of the module, function-level
    # ones by the rest of their function; an import marked "noqa: F401" is
    # exempt, and only the one named above may be
    scopes = [tree] + [n for n in ast.walk(tree)
                       if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in scopes:
        reads = _reads(scope)
        for imp in _imports(scope):
            if "# noqa: F401" in lines[imp.lineno - 1]:
                exempt.add((path.name, getattr(scope, "name", ""), ast.unparse(imp)))
            else:
                unused += [f"{name} (line {imp.lineno})" for name in _bound(imp)
                           if name not in reads]
    assert not unused, f"{path.name}: unused imports {unused}"
    assert exempt == {e for e in UNREAD_IMPORTS if e[0] == path.name}, \
        f"{path.name}: imports exempt from this test {exempt}"


# the top-level statements of the package modules, and the names each one
# reads or imports
STATEMENTS = [node for tree in TREES.values() for node in tree.body]
READS = {id(node): _reads(node) | {a.name for sub in ast.walk(node)
                                   if isinstance(sub, ast.ImportFrom) for a in sub.names}
         for node in STATEMENTS}


def _referenced(name: str, definition) -> bool:
    """Whether a top-level statement other than ``definition`` reads ``name``."""
    return any(name in READS[id(node)] for node in STATEMENTS if node is not definition)


def test_private_helpers_are_referenced():
    unreferenced = [f"{path.name}:{node.name}"
                    for path, tree in TREES.items() for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and not _referenced(node.name, node)]
    assert not unreferenced, f"private helpers never referenced: {unreferenced}"


def test_exports_are_used_by_the_package():
    # an export only the tests use is API kept alive for its own sake
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = [a.asname or a.name for node in init.body
                if isinstance(node, ast.ImportFrom) for a in node.names]
    definitions = {}
    for node in STATEMENTS:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            definitions[node.name] = node
        elif isinstance(node, ast.Assign):
            definitions.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    unused = [name for name in exported if not _referenced(name, definitions.get(name))]
    assert not unused, f"exported but read by no package module: {unused}"


def _decorator_name(node) -> str:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_dataclass_fields_and_properties_are_read():
    # a field nothing reads is state carried for its own sake; the match is
    # by attribute name, so a name read on any object counts as read
    loads = {node.attr for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path, tree in TREES.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) \
                    or "dataclass" not in map(_decorator_name, cls.decorator_list):
                continue
            names = [node.target.id for node in cls.body
                     if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
            names += [node.name for node in cls.body if isinstance(node, ast.FunctionDef)
                      and "property" in map(_decorator_name, node.decorator_list)]
            unread += [f"{path.name}:{cls.name}.{name}" for name in names if name not in loads]
    assert not unread, f"dataclass fields or properties no module reads: {unread}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_defined_in_a_loop_body(path):
    # a def inside a loop makes a new closure on every pass; lift it out, or
    # call a helper that already does the job
    nested = sorted({f"{node.name} (line {node.lineno})"
                     for loop in ast.walk(TREES[path]) if isinstance(loop, (ast.For, ast.While))
                     for node in ast.walk(loop)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))})
    assert not nested, f"{path.name}: functions defined in a loop {nested}"


def test_every_parameter_is_read():
    # a parameter the body never reads is a dead input that callers still
    # have to supply; ``self`` and ``cls`` are exempt
    unread = []
    for path, tree in TREES.items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = func.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            body = func.body if isinstance(func.body, list) else [func.body]
            reads = {n.id for stmt in body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(func, "name", "<lambda>")
            unread += [f"{path.name}:{name}({p.arg}) line {func.lineno}" for p in params
                       if p.arg not in {"self", "cls"} and p.arg not in reads]
    assert not unread, f"parameters never read: {unread}"


# the one place a matching built in ``src/`` is outside input: id lists read
# from a file, which ``cover_map`` validates where they are read
FILE_READERS = {("cli.py", "_read_matchings")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_validates_a_matching_it_built(path):
    # a map validates the matching it reads, never the one it writes: the
    # next map to read the image validates it there
    rechecked = []
    for func in ast.walk(TREES[path]):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or (path.name, func.name) in FILE_READERS:
            continue
        built = {t.id for node in ast.walk(func) if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Call)
                 and isinstance(node.value.func, ast.Name) and node.value.func.id == "Matching"
                 for t in node.targets if isinstance(t, ast.Name)}
        rechecked += [f"{func.name} (line {node.lineno})" for node in ast.walk(func)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "cover_map"
                      and isinstance(node.func.value, ast.Name) and node.func.value.id in built]
    assert not rechecked, f"{path.name}: cover_map on a matching the function built {rechecked}"


def test_imports_are_stdlib_click_or_the_package():
    allowed = set(sys.stdlib_module_names) | {"click", "dimerforge"}
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert not foreign, f"imports beyond the standard library and click: {foreign}"


def test_click_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in deps] == ["click"]


def test_importing_the_cli_loads_no_process_machinery():
    # multiprocessing costs tens of ms at startup; run_suite imports the
    # process pool only when it runs checks on workers
    code = ("import sys, dimerforge.cli, dimerforge.report; "
            "print(*[m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.strip() == ""


def _loaded_package_modules(code: str) -> set[str]:
    """The ``dimerforge`` modules loaded once ``code`` has run in a fresh
    interpreter, without the package prefix."""
    code += "; print(*[m for m in sys.modules if m.startswith('dimerforge.')])"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", f"import sys; {code}"], capture_output=True,
                         text=True, env=env, check=True, timeout=60)
    return {m.removeprefix("dimerforge.") for m in out.stdout.split()}


def test_importing_the_report_loads_no_check_module():
    # the checks import these inside their bodies, so that startup (the
    # benchmark's setup_s) does not pay for them
    lazy = {"aztec", "bijections", "generators", "gliding", "parity"}
    assert not lazy & _loaded_package_modules("import dimerforge.report")


def test_worker_processes_are_forked_with_every_check_module():
    # at jobs > 1 the parent runs no check, so it imports the check modules
    # before it starts the pool; otherwise each fresh worker imports them
    imported = set()
    for node in ast.walk(TREES[SRC / "report.py"]):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported |= {node.module} if node.module else {a.name for a in node.names}
    config = "check grid-kasteleyn 1 1\ncheck grid-kasteleyn 1 1\n"
    loaded = _loaded_package_modules("from dimerforge.report import run_suite; "
                                     f"assert run_suite({config!r}, jobs=2).passed")
    assert {"aztec", "bijections", "generators", "parity"} <= imported
    assert imported <= loaded, f"not loaded before forking: {sorted(imported - loaded)}"


def test_report_has_one_seeded_instance_loop():
    # every seeded check hands its per-instance body to ``_instances``, the
    # one loop that draws each instance, stops at the first fault and names
    # the instance; a check with a loop of its own would bypass it
    loops = [func.name for func in TREES[SRC / "report.py"].body
             if isinstance(func, ast.FunctionDef)
             for node in ast.walk(func)
             if isinstance(node, ast.For) and ast.unparse(node.iter) == "range(count)"]
    assert loops == ["_instances"], f"report.py: loops over range(count) in {loops}"


def _calls_by_scope(node, name: str, scope: str = "") -> list[str]:
    """The dotted name of the class or function around each call of the bare
    ``name`` under ``node``; the empty string for module level."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = f"{scope}.{node.name}" if scope else node.name
    found = [scope] if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == name else []
    for child in ast.iter_child_nodes(node):
        found += _calls_by_scope(child, name, scope)
    return found


def test_faces_are_made_only_by_tracing():
    # one way of making faces: every FaceDecomposition comes out of
    # PlanarGraph.trace_faces, so no builder derives them another way
    makers = [f"{path.name}:{scope}" for path, tree in TREES.items()
              for scope in _calls_by_scope(tree, "FaceDecomposition")]
    assert makers == ["planar.py:PlanarGraph.trace_faces"], \
        f"FaceDecomposition made in {makers}"


def test_only_a_graph_sets_its_own_private_attributes():
    # a layer keeps what it derives from a graph through ``planar.kept``, in
    # the graph's one table dict, instead of in an attribute of its own on
    # the graph; outside planar.py no object's private attribute is set
    # except by its own methods
    writes = [f"{path.name}:{node.lineno} {ast.unparse(node)}"
              for path, tree in TREES.items() if path.name != "planar.py"
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and node.attr.startswith("_")
              and not (isinstance(node.value, ast.Name) and node.value.id == "self")]
    assert not writes, f"private attributes set from outside: {writes}"
