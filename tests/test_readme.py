"""The README's library quick start runs as written and prints what it shows,
and every command of its CLI block exits with the code its comment states."""

import contextlib
import io
import re
import subprocess
import sys

import pytest

from readme_cli import README, cli_commands


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


CLI_COMMANDS = cli_commands()


def test_readme_cli_block_covers_every_subcommand():
    assert {argv[0] for argv, _ in CLI_COMMANDS} == {"calibrate", "sample", "verify", "sweep"}


@pytest.mark.parametrize("argv, code", CLI_COMMANDS,
                         ids=[f"{k}-{argv[0]}" for k, (argv, _) in enumerate(CLI_COMMANDS)])
def test_readme_cli_command_exits_as_stated(argv, code):
    proc = subprocess.run([sys.executable, "-m", "bounded_laplace", *argv],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout
