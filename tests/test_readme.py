"""The README's library quick start runs as written, and its scenario schema
names the loader's fields."""

import re
from pathlib import Path

from nearfield.harness import SCHEMA

README = Path(__file__).resolve().parent.parent / "README.md"


def section(heading: str) -> str:
    """The text of the README section whose heading starts with `heading`."""
    text = README.read_text().split(f"\n## {heading}", 1)[1]
    return text.split("\n## ", 1)[0]


def quick_start() -> str:
    """The ```python block of the README's "Library quick start" section."""
    return re.search(r"```python\n(.*?)```", section("Library quick start"),
                     re.S).group(1)


def field_names(table: dict) -> set[str]:
    """The names of a schema table's fields and of those of its nested
    objects and lists of objects."""
    names = set(table)
    for kind, _ in table.values():
        kind = kind[0] if isinstance(kind, list) else kind
        if isinstance(kind, dict):
            names |= field_names(kind)
    return names


def test_quick_start_runs(capsys):
    exec(compile(quick_start(), "README quick start", "exec"), {})
    printed = capsys.readouterr().out
    assert printed.startswith("PathParams(theta=")


def test_schema_section_quotes_every_field():
    quoted = set(re.findall(r'"(\w+)"', section("Scenario schema")))
    assert quoted == field_names(SCHEMA)
