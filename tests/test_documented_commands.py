"""Every documented ``python -m repro …`` command must parse.

Scans the fenced code blocks of README.md, docs/api.md and the verify
skill, and all of the CI workflow. Backslash continuations are joined;
trailing ``#`` comments and everything from the first pipe on are
dropped. Each remaining argument list goes through
``repro.cli.build_parser().parse_args``, so a renamed or deleted command
or flag cannot outlive its documentation.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
FENCED = ("README.md", "docs/api.md", ".claude/skills/verify/SKILL.md")
WHOLE = (".github/workflows/ci.yml",)
FENCE = re.compile(r"^\s*```[^\n]*\n(.*?)^\s*```", re.M | re.S)
#: A command line: optional ``VAR=value`` prefixes, then the module.
COMMAND = re.compile(r"^\s*(?:\w+=\S*\s+)*python3? -m repro\b(.*)")


def documented_commands():
    """``(source, argv)`` for every ``python -m repro`` line."""
    for name in FENCED + WHOLE:
        text = (ROOT / name).read_text()
        blocks = FENCE.findall(text) if name in FENCED else [text]
        for block in blocks:
            for line in re.sub(r"\\\n", " ", block).splitlines():
                match = COMMAND.match(line)
                if match is None:
                    continue
                argv = shlex.split(match.group(1), comments=True)
                if "|" in argv:
                    argv = argv[:argv.index("|")]
                yield name, argv


def test_documented_commands_parse():
    commands = list(documented_commands())
    assert len(commands) >= 40, "command extraction found too little"
    failures = []
    for source, argv in commands:
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                build_parser().parse_args(argv)
        except SystemExit:
            message = stderr.getvalue().strip().splitlines()[-1:]
            failures.append(f"{source}: {shlex.join(argv)} — {message}")
    assert not failures, "\n".join(failures)
