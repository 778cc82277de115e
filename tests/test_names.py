"""Every top-level function and class of the package is named somewhere in
the package besides its own definition, so `src/` holds only what runs. A
helper that only the tests reach belongs in `tests/reference.py`. The scan
is by whole word over the source text, so a name in a comment or a
docstring counts as a use."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nearfield"


def unnamed_definitions(package: Path) -> list[str]:
    """`module.name` for every top-level def or class of the package whose
    name no text outside that definition contains."""
    sources = {path: path.read_text() for path in sorted(package.glob("*.py"))}
    hits = []
    for path, source in sources.items():
        lines = source.splitlines(keepends=True)
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            start = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            rest = "".join(lines[:start - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(text) for text in
                       [rest, *(s for p, s in sources.items() if p != path)]):
                hits.append(f"{path.stem}.{node.name}")
    return hits


def test_scan_flags_a_definition_named_only_by_itself(tmp_path):
    (tmp_path / "a.py").write_text(
        "@lonely_cache\ndef lonely():\n    \"\"\"lonely calls lonely.\"\"\"\n"
        "    return lonely()\n\n\ndef used():\n    return 1\n")
    b = "from .a import used\n\n\nclass Box:\n    pass\n"
    (tmp_path / "b.py").write_text(b)
    assert unnamed_definitions(tmp_path) == ["a.lonely", "b.Box"]
    (tmp_path / "b.py").write_text(b + "# a Box for lonely\n")
    assert unnamed_definitions(tmp_path) == []


def test_every_package_definition_is_named_elsewhere():
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert unnamed_definitions(PACKAGE) == []
