"""The §5.2 and §2.2.4 demos in ``examples/`` run and reach their verdicts.

Each script is executed in-process as ``__main__`` and its printed
verdict checked: failure recovery keeps restricted atomicity, every
snapshot taken during concurrent transfers is a consistent cut, and
delivered timestamps respect causality.
"""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
VERDICTS = {
    "failure_recovery": "restricted atomicity holds",
    "consistent_snapshot": "every snapshot is a consistent cut",
    "quickstart": "causality check passed",
}


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_example_reaches_its_verdict(name, capsys):
    runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name="__main__")
    assert VERDICTS[name] in capsys.readouterr().out
