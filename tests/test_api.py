"""The package's public surface is what its own code runs.

Every top-level function and class, and every method or property that is
not a dunder, must be referenced somewhere under ``src/tilekit`` by name,
by attribute or by an import alias.  Docstrings and comments are not
references.  A definition that only tests call fails here: it belongs in
``tests/oracles.py`` or nowhere.

The same holds for parameters: every optional parameter of a function or
method under ``src/tilekit`` must be passed, by keyword or by position, by
some call under ``src/tilekit``.  An option that only tests set, or that
nobody sets, is a branch no command runs.

Every parameter of every function and method under ``src/tilekit`` must
also be read: its name appears in the function's body, nested functions
included.  ``self``, ``cls`` and names starting with ``_`` are exempt.  A
parameter nobody reads is an argument every caller passes for nothing.

tilekit is a single-process tool with no knobs: no module under
``src/tilekit`` reads the environment or imports a process or thread pool.

The benchmark's tracer (``bench/tracer.py``) wraps tilekit functions by
name, so every name it lists must be defined in its module: a rename
fails here rather than in a traced benchmark run.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tilekit"
TRACER = SRC.parent.parent / "bench" / "tracer.py"

#: Optional parameters that no package call passes, on purpose.  The console
#: script calls ``main()`` and reads ``sys.argv``; tests and the benchmark
#: tracer pass ``argv``.
PARAMETER_EXEMPTIONS = {"cli.main(argv)"}


def _trees() -> dict[str, ast.Module]:
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    assert trees, f"no modules found under {SRC}"
    return trees


def _definitions(tree: ast.Module, module: str):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _references(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_definition_is_used_by_the_package():
    trees = _trees()
    used: set[str] = set()
    for tree in trees.values():
        used |= _references(tree)
    unused = [qual for module, tree in trees.items()
              for qual, name in _definitions(tree, module) if name not in used]
    assert not unused, "defined but never referenced under src/tilekit: " \
        + ", ".join(unused)


def _optional_parameters(tree: ast.Module, module: str):
    """(qualified name, callee name, is method, [(parameter, position)]) for
    every function and method with defaults; position is None for a
    keyword-only parameter.  A class's ``__init__`` is called by the class
    name."""

    def visit(body, prefix, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{prefix}{node.name}.", node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                pos = a.posonlyargs + a.args
                first = len(pos) - len(a.defaults)
                opt = [(p.arg, i) for i, p in enumerate(pos) if i >= first]
                opt += [(p.arg, None) for p, dflt in zip(a.kwonlyargs, a.kw_defaults)
                        if dflt is not None]
                callee = cls if cls and node.name == "__init__" else node.name
                if opt:
                    yield (f"{module}.{prefix}{node.name}", callee,
                           cls is not None, opt)
                yield from visit(node.body, f"{prefix}{node.name}.", None)

    yield from visit(tree.body, "", None)


def _passes(call: ast.Call, param: str, position: int | None, method: bool) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):  # None: **kwargs
        return True
    if position is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    # A method's positional arguments start after self.
    return len(call.args) + method > position


def test_every_optional_parameter_is_passed_by_the_package():
    trees = _trees()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None)
                if name:
                    calls.setdefault(name, []).append(node)
    unpassed = [
        f"{qual}({param})"
        for module, tree in trees.items()
        for qual, callee, method, opt in _optional_parameters(tree, module)
        for param, position in opt
        if not any(_passes(c, param, position, method)
                   for c in calls.get(callee, ()))
    ]
    unpassed = [u for u in unpassed if u not in PARAMETER_EXEMPTIONS]
    assert not unpassed, "optional parameters no call under src/tilekit " \
        "passes: " + ", ".join(unpassed)


def test_every_parameter_is_read():
    unread = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            unread += [f"{module}.{node.name}({p})" for p in params
                       if p not in read and p not in ("self", "cls")
                       and not p.startswith("_")]
    assert not unread, "parameters never read: " + ", ".join(unread)


def test_the_package_reads_no_environment_and_starts_no_pool():
    for module, tree in _trees().items():
        env = _references(tree) & {"environ", "environb", "getenv", "getenvb"}
        assert not env, f"{module} reads the environment: {sorted(env)}"
        imported = {a.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for a in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module}
        pools = sorted(m for m in imported
                       if m.split(".")[0] in ("multiprocessing", "concurrent"))
        assert not pools, f"{module} imports {pools}"


def test_every_traced_name_is_defined():
    """TRACED in the tracer, read with ast rather than imported, names only
    top-level definitions of tilekit modules."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "TRACED"
                          for t in node.targets))
    defined = {module: {node.name for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
               for module, tree in _trees().items()}
    missing = [f"{module}.{name}" for module, names in traced.items()
               for name in names if name not in defined.get(module, ())]
    assert traced and not missing, "traced but not defined: " + ", ".join(missing)
