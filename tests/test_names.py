"""Every top-level function and class of the package is named somewhere in
the package besides its own definition, so `src/` holds only what runs. A
helper that only the tests reach belongs in `tests/reference.py`. The scan
is by whole word over the source text, so a name in a comment or a
docstring counts as a use.

Every dataclass field, property and method defined in a class body is read
as `.name` somewhere in the package, so no member is computed or stored for
nobody. That scan walks the syntax tree: an assignment `obj.name = ...` is
not a read, and neither is a read inside the method's own body. Dunder
methods are exempt, since Python calls them."""

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


def unread_members(package: Path) -> list[str]:
    """`module.Class.name` for every annotated field and every non-dunder
    method or property of a top-level class of the package that no
    attribute load `.name` reads, a method's own body aside."""
    trees = {path: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    loads = [(path, node) for path, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    hits = []
    for path, tree in trees.items():
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for member in cls.body:
                if isinstance(member, ast.AnnAssign) and isinstance(
                        member.target, ast.Name):
                    name, own = member.target.id, None
                elif isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name, own = member.name, (member.lineno, member.end_lineno)
                else:
                    continue
                if name.startswith("__") and name.endswith("__"):
                    continue
                reads = [(p, node) for p, node in loads if node.attr == name]
                if own is not None:  # a method's own body does not count
                    reads = [(p, node) for p, node in reads if p != path
                             or not own[0] <= node.lineno <= own[1]]
                if not reads:
                    hits.append(f"{path.stem}.{cls.name}.{name}")
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


def test_member_scan_flags_fields_and_methods_nobody_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n\n\n@dataclass\nclass Box:\n"
        "    kept: int\n    lost: int\n\n    @property\n"
        "    def size(self):\n        return self.kept\n\n"
        "    def grow(self):\n        return self.grow()\n\n"
        "    def __post_init__(self):\n        self.lost = 0\n")
    b = "def use(box):\n    return box.size\n"
    (tmp_path / "b.py").write_text(b)
    assert unread_members(tmp_path) == ["a.Box.lost", "a.Box.grow"]
    (tmp_path / "b.py").write_text(b + "\n\ndef more(box):\n"
                                   "    return box.lost + box.grow()\n")
    assert unread_members(tmp_path) == []


def test_every_package_member_is_read():
    assert unread_members(PACKAGE) == []
