"""Every public top-level function and class of the package has a reader.

A public ``def`` or ``class`` under ``src/word2spike/`` must be read by
the package itself, a script, the benchmark or the acceptance suite.  A
name only its own tests call is a second entry point that nothing in
the product uses, so it is deleted instead.  Its definition and the
``__init__.py`` re-export do not count as reads, and neither does an
import or a string: only a name or an attribute does, so the CLI's
``"quantize"`` subcommand is not a read of a function named ``quantize``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "word2spike").glob("*.py") if p.name != "__init__.py")
READERS = sorted(
    list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "bench").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
)


def public_names(source: str) -> list[str]:
    """The public top-level functions and classes ``source`` defines."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def read_names(source: str) -> set[str]:
    """Every name and attribute ``source`` reads."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unread_public_names(package: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` for each public definition in ``package`` (module
    name -> source) that no package module and no reader reads."""
    read = set().union(*map(read_names, [*package.values(), *readers]))
    return [
        f"{module}.{name}"
        for module, source in package.items()
        for name in public_names(source)
        if name not in read
    ]


def test_checker_flags_an_uncalled_public_function():
    package = {
        "m": "def used():\n    return 1\n\n\ndef uncalled():\n    return used()\n\n\n"
             "def imported_only():\n    pass\n\n\nclass _Private:\n    pass\n\n\nclass Named:\n    pass\n",
    }
    readers = ["import m\nfrom m import imported_only\nm.Named()\nprint('uncalled')\n"]
    assert unread_public_names(package, readers) == ["m.uncalled", "m.imported_only"]


def test_every_public_definition_is_read():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    readers = [p.read_text(encoding="utf-8") for p in READERS]
    assert unread_public_names(package, readers) == []
