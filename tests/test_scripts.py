"""Every script under scripts/ must import on the running Python
(pyproject allows 3.10 and up) against the package as it is: importing a
script compiles it and resolves every name it imports from cellformer."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_compiles(path):
    spec = importlib.util.spec_from_file_location(f"scripts.{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # __name__ is not "__main__": main() stays idle
