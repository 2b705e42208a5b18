"""The README's library quick start runs as written and prints what it shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs_and_prints_its_comments():
    match = re.search(r"## Library quick start\n\n```python\n(.*?)```",
                      README.read_text(), re.S)
    assert match, "README has no Library quick start block"
    code = match.group(1)
    # each print(...) line is followed by a "# ..." line holding its output
    lines = code.splitlines()
    expected = [nxt[2:] for line, nxt in zip(lines, lines[1:])
                if line.startswith("print(") and nxt.startswith("# ")]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
