"""Every example still loads against the current package surface.

Each script keeps its work behind ``if __name__ == "__main__"``, so loading
it under another name resolves every import and module-level definition
without running it: a name an example uses that the package no longer
exports fails here, not only when the script is run by hand.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 5
    assert "quickstart.py" in {path.name for path in EXAMPLES}


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_loads(path):
    namespace = runpy.run_path(str(path), run_name="example")
    assert callable(namespace.get("main")), f"{path.name} has no main()"
