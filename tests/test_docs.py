"""Documented CLI invocations parse with the real parser.

Every ``python -m repro.cli ...`` line inside a fenced code block of
``README.md``, ``DESIGN.md`` or ``docs/*.md`` is handed to
``repro.cli.build_parser()``: a renamed flag or a removed subcommand
fails here instead of in a reader's shell.  Backslash continuations are
joined and ``#`` comments stripped first.
"""

import pathlib
import shlex

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md",
        *sorted((ROOT / "docs").glob("*.md"))]
MARKER = "python -m repro.cli"


def fenced_lines(path):
    """``(line number, logical line)`` of every line inside a fenced
    block, continuations joined."""
    lines = []
    fenced = False
    pending = None
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        if raw.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            continue
        text = raw.split(" #", 1)[0].rstrip()
        if pending is not None:
            start, head = pending
            text = f"{head} {text.strip()}"
        else:
            start = number
        if text.endswith("\\"):
            pending = (start, text[:-1].rstrip())
            continue
        pending = None
        lines.append((start, text))
    return lines


def cli_invocations():
    found = []
    for path in DOCS:
        for number, text in fenced_lines(path):
            if MARKER in text:
                argv = shlex.split(text.split(MARKER, 1)[1])
                found.append(
                    pytest.param(argv, id=f"{path.name}:{number}")
                )
    return found


INVOCATIONS = cli_invocations()


def test_docs_document_cli_invocations():
    assert len(INVOCATIONS) >= 20


@pytest.mark.parametrize("argv", INVOCATIONS)
def test_documented_invocation_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exit_info:
        # -h/--help exits 0 after printing; anything else is an error.
        assert exit_info.code == 0, capsys.readouterr().err
