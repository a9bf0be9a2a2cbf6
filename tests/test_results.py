"""Every committed result has a named guard.

Each ``results/*.json`` is either regenerated by a figure benchmark (a
``save_results("<name>", ...)`` call under ``benchmarks/``: tier-1 runs
it and the ``tests`` job's ``git diff --exit-code results/`` compares
the output with the committed file) or compared by CI: named by an
``output=results/<file>`` pair of a ``committed:`` key in the
``determinism`` matrix, or by a ``cmp <output>_smoke.json
results/<file>`` line.  Every file either names must exist.  Files the
root ``.gitignore`` ignores are run outputs, not results.  Parsed with
regular expressions; nothing here needs a YAML parser.
"""

import fnmatch
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CI = ROOT / ".github" / "workflows" / "ci.yml"
SAVED = re.compile(r'save_results\(\s*"([\w.-]+)"')
COMMITTED_PAIR = re.compile(r"[\w.-]+=(results/[\w.-]+\.json)")
SMOKE_CMP = re.compile(r"cmp \S+_smoke\.json (results/[\w.-]+\.json)")


def committed_results():
    ignored = [
        line.strip().lstrip("/")
        for line in (ROOT / ".gitignore").read_text().splitlines()
        if line.strip().lstrip("/").startswith("results/")
    ]
    return {
        f"results/{path.name}"
        for path in (ROOT / "results").glob("*.json")
        if not any(fnmatch.fnmatch(f"results/{path.name}", pattern)
                   for pattern in ignored)
    }


def benchmark_written():
    return {
        f"results/{name}.json"
        for path in sorted((ROOT / "benchmarks").rglob("*.py"))
        for name in SAVED.findall(path.read_text())
    }


def ci_compared():
    text = CI.read_text()
    return set(COMMITTED_PAIR.findall(text)) | set(SMOKE_CMP.findall(text))


def test_every_committed_result_has_a_guard():
    written, compared = benchmark_written(), ci_compared()
    assert len(written) >= 20 and len(compared) >= 10  # the scans work
    unguarded = committed_results() - written - compared
    assert not unguarded, (
        "committed but neither regenerated by a benchmark nor compared "
        f"in ci.yml: {sorted(unguarded)}"
    )


def test_every_guard_names_a_committed_result():
    missing = (benchmark_written() | ci_compared()) - committed_results()
    assert not missing, f"named as a committed result but absent: {sorted(missing)}"
