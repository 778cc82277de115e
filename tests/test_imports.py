"""No module of the package or of the tests imports a name it never uses or
binds a function local it never reads. No linter is among the test
dependencies, so these syntax-tree scans stand in for one; as for flake8, an
import line marked `# noqa: F401` is exempt."""

import ast
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
