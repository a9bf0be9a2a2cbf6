"""The docs name only what exists.

Every ``python -m repro.cli ...`` line inside a fenced code block of
``README.md``, ``DESIGN.md`` or ``docs/*.md`` is handed to
``repro.cli.build_parser()``: a renamed flag or a removed subcommand
fails here instead of in a reader's shell.  Backslash continuations are
joined and ``#`` comments stripped first.

In those files and ``EXPERIMENTS.md``, every backticked dotted
``repro.*`` name must import (longest importable module, then
``getattr`` for the rest), and every backticked path under ``src/``,
``tests/``, ``results/``, ``benchmarks/``, ``examples/`` or ``perf/``
must exist (a glob must match; ``<placeholder>`` is a glob; a pytest
``::`` suffix and command arguments are dropped).
"""

import importlib
import pathlib
import re
import shlex

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md",
        *sorted((ROOT / "docs").glob("*.md"))]
MARKER = "python -m repro.cli"
NAMING_DOCS = [*DOCS, ROOT / "EXPERIMENTS.md"]
SPAN = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"repro(?:\.[A-Za-z_]\w*)+")
TREE_PATH = re.compile(r"(?:src|tests|results|benchmarks|examples|perf)/\S*")


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


def backticked():
    """``("doc:line", span)`` for every backticked span of
    ``NAMING_DOCS``."""
    for path in NAMING_DOCS:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for span in SPAN.findall(line):
                yield f"{path.name}:{number}", span


def resolves(dotted):
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_backticked_repro_names_resolve():
    names = [(where, span) for where, span in backticked()
             if DOTTED.fullmatch(span)]
    assert len(names) >= 50  # the scan found the docs' names
    missing = [f"{where}: {name}" for where, name in names
               if not resolves(name)]
    assert not missing, "\n".join(missing)


def test_backticked_paths_exist():
    paths = [(where, match.group()) for where, span in backticked()
             for match in [TREE_PATH.match(span)] if match]
    assert len(paths) >= 50  # the scan found the docs' paths
    missing = []
    for where, span in paths:
        path = re.sub(r"<[^>]*>", "*", span.split("::", 1)[0])
        if "*" in path:
            found = any(ROOT.glob(path))
        else:
            found = (ROOT / path).exists()
        if not found:
            missing.append(f"{where}: {span}")
    assert not missing, "\n".join(missing)
