"""README's Library example runs as written and prints what its comment says,
so a name the package no longer exports cannot stay in it."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_commented_interval():
    code = library_example()
    comment = re.search(r"^print\(.*#\s*([\d.]+) \[([\d.]+), ([\d.]+)\]$", code, re.M)
    assert comment.groups() == ("1.856", "1.824", "1.889")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), {})
    assert tuple(f"{float(v):.3f}" for v in printed.getvalue().split()) == comment.groups()
