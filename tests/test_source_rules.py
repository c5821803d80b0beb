"""Input is checked by the function that parses it; records do not re-check themselves.

Only the config classes, in ``params.py`` and ``cli.py``, check their
fields in ``__post_init__``: a config is outside input, and those classes
are its parser.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "parcelex").glob("*.py"))
CONFIG_MODULES = {"params.py", "cli.py"}


def test_only_config_classes_raise_in_post_init():
    raising = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name not in CONFIG_MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
        and any(isinstance(inner, ast.Raise) for inner in ast.walk(node))
    ]
    assert raising == []
