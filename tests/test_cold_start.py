"""Cold start is a module list, not a stopwatch.

Every CLI call, CI cell and fresh-process benchmark rep pays for
whatever ``import repro`` drags in before the first event runs, and only
``python -X importtime`` sees that cost.  So the budget is stated as the
set of modules a fresh interpreter holds after importing every entry
point: the standard library and ``repro`` itself, nothing third-party
(``networkx`` is a ``dev`` dependency of ``tests/reference.py`` only),
and none of the process-pool machinery that ``jobs == 1`` never uses.
"""

import os
import subprocess
import sys

import repro

ENTRY_POINTS = (
    "repro.cli, repro.hybrid, repro.chaos, repro.workload, repro.verify, "
    "repro.baselines"
)
POOL_ONLY = (
    "multiprocessing", "concurrent.futures", "logging", "subprocess",
    "tempfile", "socket",
)


def fresh_python(code):
    """Standard output of ``python -c code`` in a new interpreter that
    finds the ``repro`` under test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_modules(statement):
    return set(fresh_python(
        f"{statement}; import sys; print('\\n'.join(sys.modules))"
    ).split())


def test_runtime_imports_only_the_standard_library():
    # Whatever a bare interpreter already holds here (``site``'s .pth
    # hooks, e.g. setuptools' ``_distutils_hack``) is not ours to budget.
    bare = loaded_modules("pass")
    loaded = loaded_modules(f"import {ENTRY_POINTS}") - bare
    assert "repro.cli" in loaded
    foreign = {
        name.partition(".")[0] for name in loaded
    } - set(sys.stdlib_module_names) - {"repro", "__main__"}
    assert not foreign, f"third-party imports at start-up: {sorted(foreign)}"
    pool = loaded.intersection(POOL_ONLY)
    assert not pool, f"pool machinery imported with jobs == 1: {sorted(pool)}"


def test_pool_still_builds_when_asked():
    out = fresh_python(
        "import sys\n"
        "from repro.parallel import run_ordered\n"
        "assert run_ordered(abs, [-1, -2, -3], jobs=1) == [1, 2, 3]\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "print(run_ordered(abs, [-1, -2, -3], jobs=2))\n"
        "assert 'multiprocessing' in sys.modules\n"
    )
    assert out.strip() == "[1, 2, 3]"
