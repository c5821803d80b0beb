"""Input is checked by the function that parses it; records do not re-check themselves.

Only the config classes, in ``params.py`` and ``cli.py``, check their
fields in ``__post_init__``: a config is outside input, and those classes
are its parser. Every input fault has one outcome, so it has one type:
``errors.ParcelexError``.
"""

import ast
import builtins
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


def _base_names(node: ast.ClassDef) -> set[str]:
    """The names a class's bases are spelled with: ``Name`` or the last part of ``mod.Name``."""
    return {getattr(base, "id", getattr(base, "attr", "")) for base in node.bases}


def test_errors_py_defines_the_one_exception_class():
    classes = [
        (path.name, node)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    ]
    exceptions = {name for name, cls in vars(builtins).items()
                  if isinstance(cls, type) and issubclass(cls, BaseException)}
    defined: set[str] = set()
    # A class is an exception when one of its bases is; repeat until no more are found.
    while True:
        found = {f"{module}:{cls.name}" for module, cls in classes if _base_names(cls) & exceptions}
        if found == defined:
            break
        defined = found
        exceptions |= {name.split(":")[1] for name in found}
    assert defined == {"errors.py:ParcelexError"}
