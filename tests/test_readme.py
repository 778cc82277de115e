"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The ```python block of the README's "Library quick start" section."""
    section = README.read_text().split("\n## Library quick start\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs(capsys):
    exec(compile(quick_start(), "README quick start", "exec"), {})
    printed = capsys.readouterr().out
    assert printed.startswith("PathParams(theta=")
