"""Help, usage and error text of the command line, byte for byte.

The parser builds only the subparser that its first argument names, so each
case here pins the text one such parser prints: the top-level help, each
subcommand's help, the errors of a missing, unknown or incomplete command,
and the top-level error after a known command, whose usage line still lists
every command.  Text is rendered at 80 columns.  After an intended change of the
text, rewrite `usage.json` with `PYTHONPATH=src python tests/test_usage.py`.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gamecomonads import cli

PINNED = Path(__file__).with_name("usage.json")
COMMANDS = ("hom", "equiv", "param", "oracle", "laws", "eval", "sample", "verify")
CASES = {
    "help": ["-h"],
    **{f"{cmd}-help": [cmd, "-h"] for cmd in COMMANDS},
    "no-arguments": [],
    "unknown-command": ["frobnicate"],
    "equiv-without-k": ["equiv", "--game", "ef", "--mode", "exists", "a.str", "b.str"],
    "hom-extra-argument": ["hom", "a.str", "b.str", "c.str"],
}


def usage_text(argv) -> dict:
    """The exit code, stdout and stderr of `main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_help_and_usage_text_is_pinned(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    want = json.loads(PINNED.read_text(encoding="utf-8"))[case]
    assert usage_text(CASES[case]) == want


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    pinned = {case: usage_text(argv) for case, argv in CASES.items()}
    PINNED.write_text(json.dumps(pinned, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(pinned)} cases to {PINNED}", file=sys.stderr)
