"""The README's library quick start runs as written and prints what it shows,
and every command of its CLI block exits with the code its comment states."""

import contextlib
import io
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

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


def _cli_commands():
    """(argv, exit code) of each command of the README's CLI block.

    A command exits 0 unless its comment says ``exit <code>``; a trailing
    ``> file`` redirection is dropped, since the test reads stdout itself.
    """
    match = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(), re.S)
    assert match, "README has no CLI block"
    commands = []
    for line in match.group(1).replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        words = shlex.split(command)
        if words:
            assert words[0] == "bounded-laplace", line
            if ">" in words:
                words = words[:words.index(">")]
            code = re.search(r"exit (\d+)", comment)
            commands.append((words[1:], int(code.group(1)) if code else 0))
    return commands


CLI_COMMANDS = _cli_commands()


def test_readme_cli_block_covers_every_subcommand():
    assert {argv[0] for argv, _ in CLI_COMMANDS} == {"calibrate", "sample", "verify", "sweep"}


@pytest.mark.parametrize("argv, code", CLI_COMMANDS,
                         ids=[f"{k}-{argv[0]}" for k, (argv, _) in enumerate(CLI_COMMANDS)])
def test_readme_cli_command_exits_as_stated(argv, code):
    proc = subprocess.run([sys.executable, "-m", "bounded_laplace", *argv],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout
