"""No module of the package or of the tests imports a name it never uses.
No linter is among the test dependencies, so this syntax-tree scan stands
in for one; as for flake8, an import line marked `# noqa: F401` is exempt."""

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
