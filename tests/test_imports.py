"""No module of the package or of the tests imports a name it never uses or
binds a function local it never reads. No linter is among the test
dependencies, so these syntax-tree scans stand in for one; as for flake8, an
import line marked `# noqa: F401` is exempt, and in the package such a line
may only import what the benchmark's layer tracer rebinds on that module. A
further scan holds the package's modules to their layers, and `code_lines`
gives the package's size as ROADMAP tracks it: `python tests/test_imports.py`
prints the `wc -l` and code line counts of each module and their totals."""

import ast
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "nearfield").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(path: Path) -> list[str]:
    """`file:line: name` for every imported name the module never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or "# noqa: F401" in lines[node.lineno - 1]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return unused


def test_no_unused_imports():
    assert len(MODULES) > 10
    assert [hit for path in MODULES for hit in unused_imports(path)] == []


def unrebound_noqa_imports(package: Path, rebound: set[tuple[str, str]]) -> list[str]:
    """`file:line: name` for every name a `# noqa: F401` import line of the
    package imports that `rebound`, a set of (module, attribute) pairs, does
    not hold for that line's module."""
    hits = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and "# noqa: F401" in lines[node.lineno - 1]):
                hits += [f"{path.name}:{node.lineno}: {name}" for name in
                         (alias.asname or alias.name.split(".")[0]
                          for alias in node.names)
                         if (path.stem, name) not in rebound]
    return hits


def test_noqa_imports_are_rebound_by_the_layer_tracer(tmp_path, monkeypatch):
    # A name the package imports only for the tracer to rebind is unused in
    # the package itself; the marker may hide no other unused import.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layertrace

    tracer = layertrace.Tracer(tmp_path, full=True)
    tracer.install()
    try:
        rebound = {(owner.__name__.removeprefix("nearfield."), attr)
                   for owner, attr, _ in tracer._saved
                   if isinstance(owner, types.ModuleType)}
    finally:
        tracer.uninstall()
    package = ROOT / "src" / "nearfield"
    assert ("estimator", "near_steering") in rebound
    assert unrebound_noqa_imports(package, rebound) == []


def test_noqa_scan_flags_imports_not_rebound(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "low.py").write_text("x = y = 1\n")
    (package / "high.py").write_text("from .low import x  # noqa: F401 - rebound\n"
                                     "import os\n")
    rebound = {("high", "x")}
    assert unrebound_noqa_imports(package, rebound) == []
    (package / "high.py").write_text("from .low import x, y  # noqa: F401\n"
                                     "import os.path  # noqa: F401\n")
    assert unrebound_noqa_imports(package, rebound) == [
        "high.py:1: y",
        "high.py:2: os",
    ]


def _own_nodes(fn: ast.AST):
    """The nodes of a function's body, not descending into nested scopes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(path: Path) -> list[str]:
    """`file:line: name` for every function local that is assigned, as a
    plain or tuple target, and never read (flake8's F841). An augmented
    assignment reads its target; names starting with `_` are exempt."""
    unused = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        bound: dict[str, int] = {}
        for node in _own_nodes(fn):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) and node.value:
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        bound.setdefault(name.id, name.lineno)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in bound.items()
                   if name not in read and not name.startswith("_")]
    return unused


def test_no_unused_locals():
    assert [hit for path in MODULES for hit in unused_locals(path)] == []


# The package's layers, lowest first. A module imports package modules only
# from layers below its own, so the estimator never reaches into fusion, and
# the algorithm never reaches into the harness that holds the true channels
# and scores them. `__init__` imports nothing.
LAYERS = (("__init__", "arraymodel"), ("codebook", "bounds"), ("estimator",),
          ("localization",), ("pipeline",), ("harness",), ("cli",))


def package_imports(tree: ast.AST, package: str) -> list[tuple[int, str]]:
    """(line, module) for every import of a module of `package`, relative
    (`from .x import y`, `from . import x`) or absolute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != package:
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.append((node.lineno, parts[0]))
            else:
                found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[1])
                      for alias in node.names
                      if alias.name.startswith(package + ".")]
    return found


def layer_violations(package: Path, layers=LAYERS) -> list[str]:
    """`file:line: module imports target` for every import of a package
    module from the importer's own layer or one above it, and `file: not in
    any layer` for a module the layers do not name."""
    rank = {name: i for i, layer in enumerate(layers) for name in layer}
    hits = []
    for path in sorted(package.glob("*.py")):
        if path.stem not in rank:
            hits.append(f"{path.name}: not in any layer")
            continue
        for line, target in package_imports(ast.parse(path.read_text()),
                                            package.name):
            if rank.get(target, len(layers)) >= rank[path.stem]:
                hits.append(f"{path.name}:{line}: {path.stem} imports {target}")
    return hits


def test_package_imports_only_from_lower_layers():
    package = ROOT / "src" / "nearfield"
    assert {p.stem for p in package.glob("*.py")} == {
        name for layer in LAYERS for name in layer}
    assert layer_violations(package) == []


def test_layer_scan_flags_upward_and_sideways_imports(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    layers = (("low",), ("mid_a", "mid_b"), ("high",))
    (package / "low.py").write_text("import numpy as np\n")
    (package / "mid_a.py").write_text("from .low import x\n")
    (package / "mid_b.py").write_text("import pkg.low\nfrom pkg import low\n")
    (package / "high.py").write_text("from . import mid_a, mid_b\n")
    assert layer_violations(package, layers) == []
    (package / "low.py").write_text("import numpy as np\nfrom .high import y\n")
    (package / "mid_b.py").write_text("from pkg.mid_a import z\n")
    (package / "extra.py").write_text("")
    assert layer_violations(package, layers) == [
        "extra.py: not in any layer",
        "low.py:2: low imports high",
        "mid_b.py:1: mid_b imports mid_a",
    ]


def private_imports(package: Path) -> list[str]:
    """`file:line: module imports name` for every underscore-prefixed name a
    module takes from another module of the package with a `from` import,
    relative or absolute: a private name has one owner, its module."""
    hits = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != package.name:
                continue
            hits += [f"{path.name}:{node.lineno}: {path.stem} imports {alias.name}"
                     for alias in node.names if alias.name.startswith("_")]
    return hits


def test_package_imports_no_private_names():
    assert private_imports(ROOT / "src" / "nearfield") == []


def test_private_import_scan_flags_underscore_names(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "low.py").write_text("from os import _exit\n_x = 1\n")
    (package / "high.py").write_text("from .low import y\nfrom pkg import low\n")
    assert private_imports(package) == []
    (package / "high.py").write_text("from .low import y, _x\n"
                                     "from pkg.low import _x as x\n")
    assert private_imports(package) == [
        "high.py:1: high imports _x",
        "high.py:2: high imports _x",
    ]


def code_lines(source: str) -> int:
    """The lines of `source` that some syntax-tree node spans, less the
    docstrings (of the module, classes and functions), blank lines and
    comment-only lines."""
    tree = ast.parse(source)
    spanned, docs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
        if getattr(node, "end_lineno", None) is not None:
            spanned.update(range(node.lineno, node.end_lineno + 1))
    lines = source.splitlines()
    return sum(1 for n in spanned - docs
               if lines[n - 1].strip() and not lines[n - 1].lstrip().startswith("#"))


def test_code_lines_count_code_only():
    # 15 lines, 7 of them code: the module and function docstrings, the
    # blank and comment-only lines go; the decorator, both lines of the
    # signature and of the string assigned to x stay.
    source = "\n".join([
        '"""Module docstring,', 'over two lines."""', "", "import os", "", "",
        "@staticmethod", "def f(a,", "      b):", '    """Doc."""',
        "    # a comment", "", '    x = """not a', '    docstring"""',
        "    return os.sep, x  # a trailing comment"])
    assert len(source.splitlines()) == 15
    assert code_lines(source) == 7
    assert code_lines("") == 0


if __name__ == "__main__":
    lines = code = 0
    for path in sorted((ROOT / "src" / "nearfield").glob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        code += code_lines(text)
        print(f"  {path.name:<16}{len(text.splitlines()):>5} lines (wc -l), "
              f"{code_lines(text):>5} code lines")
    print(f"src/nearfield: {lines} lines (wc -l), {code} code lines")
