"""Every source file parses as the oldest Python that ``pyproject.toml`` allows.

``requires-python`` says 3.10, so syntax that only a later Python reads
(``except*``, ``type`` aliases, PEP 695 generics, nested f-string quotes)
fails here rather than on a user's interpreter.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "parcelex").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")])


def test_requires_python_is_3_10():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^requires-python = ">=3\.10"$', pyproject, re.MULTILINE)


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
