"""No package module reads the process environment.

Every setting of a run comes from its argv, a --config file or a
--preset, all of which the manifest's command records; a setting read
from the environment would make that command replay a different run.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "word2spike").glob("*.py"))
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """Each name, attribute or import in ``source`` that reaches the environment."""
    found = []
    for node in ast.walk(ast.parse(source)):
        # a Name's id, an Attribute's attr, an imported alias's name
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name in ENVIRONMENT_NAMES:
            found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_checker_finds_each_form():
    source = "import os\nfrom os import getenv as g\nos.environ.get('A')\ng('B')\nos.getenv('C')\n"
    assert environment_reads(source) == ["getenv (line 2)", "environ (line 3)", "getenv (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_environment(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []
