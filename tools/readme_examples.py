"""Check the README's command-line examples against the installed script.

Runs every `$ ` command in the first ```sh block under README.md's
"## Command line" heading, in order, with bash, in a scratch directory
that links to corpus/.  Each command's stdout must equal the lines the
README shows under it, up to the next command or blank line.  Exit codes
are not compared: the README shows failing runs too.

Run from the repository root, with `prcalc` installed:
python3 tools/readme_examples.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from typing import List, Tuple


def examples(readme: str) -> List[Tuple[str, str]]:
    """(command, expected stdout) pairs from the Command line block."""
    section = readme.split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    out: List[Tuple[str, List[str]]] = []
    for line in block.splitlines():
        if line.startswith("$ "):
            out.append((line[2:], []))
        elif line and out:
            out[-1][1].append(line)
    return [(cmd, "".join(f"{x}\n" for x in shown)) for cmd, shown in out]


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        cases = examples(fh.read())
    failed = 0
    with tempfile.TemporaryDirectory() as work:
        os.symlink(os.path.join(root, "corpus"), os.path.join(work, "corpus"))
        for cmd, want in cases:
            got = subprocess.run(["bash", "-c", cmd], cwd=work, text=True,
                                 capture_output=True).stdout
            if got != want:
                failed += 1
                print(f"$ {cmd}\nREADME shows:\n{want}got:\n{got}")
    print(f"{len(cases) - failed}/{len(cases)} README examples match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
