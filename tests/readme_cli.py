"""The commands of the README's CLI block and the exit code each states.

Run as a script, it runs every command as the README writes it, through the
installed ``bounded-laplace`` console script, and exits 1 unless each gives
its stated exit code and prints something::

    python tests/readme_cli.py

It imports only the standard library, so it also runs where the package is
installed with its runtime dependency alone.
"""

import re
import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_commands():
    """(argv, exit code) of each command of the README's CLI block.

    A command exits 0 unless its comment says ``exit <code>``; a trailing
    ``> file`` redirection is dropped, since the caller reads stdout itself.
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


def main():
    failed = 0
    for argv, code in cli_commands():
        proc = subprocess.run(["bounded-laplace", *argv], capture_output=True,
                              text=True, check=False)
        ok = proc.returncode == code and proc.stdout
        failed += not ok
        print(f"{'ok' if ok else 'FAIL'}: exit {proc.returncode} (stated {code}):",
              shlex.join(["bounded-laplace", *argv]))
        if not ok:
            print(proc.stderr, end="")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
