"""Every shipped example runs to completion.

The examples are the user-facing spelling of ``quick_join`` /
``AdHocJoinSession``: a keyword removed from either must fail here, not in a
reader's terminal.  Each script runs in-process as ``__main__`` with its
output captured; the scripts assert their own invariants (all algorithms
agree on the pair count, and so on).
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()
