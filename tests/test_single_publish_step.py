"""Only ``_publish`` in cli.py creates directories, temp files, renames,
removes trees, reads or sets modes, or writes the manifest.

Every command hands its outputs to ``_publish``, which stages them all,
renames them together and writes the manifest last, so a failed run
changes no file; a command that wrote a file itself would break that.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = ROOT / "src" / "word2spike" / "cli.py"
PUBLISH_ONLY = {"os.makedirs", "os.mkdir", "tempfile.mkstemp", "tempfile.mkdtemp", "os.replace", "os.rename",
                "shutil.rmtree", "os.umask", "os.chmod", "write_manifest"}


def _dotted(node) -> str | None:
    """``a.b.c`` for a Name or a chain of Attributes on a Name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def publish_steps_outside_publish(source: str) -> list[str]:
    """Each use of a publish-only name outside the top-level ``_publish``."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        if owner == "_publish":
            continue
        for node in ast.walk(top):
            name = _dotted(node)
            if name in PUBLISH_ONLY:
                found.append((node.lineno, f"{owner}: {name} (line {node.lineno})"))
    return [text for _, text in sorted(found)]


def test_checker_finds_each_form():
    source = (
        "import os\n"
        "def _publish(args):\n    os.replace('a', 'b')\n    write_manifest(args)\n"
        "def cmd_x(args):\n    os.replace('a', 'b')\n"
        "def cmd_y(args):\n    write = lambda: tempfile.mkstemp()\n    return write_manifest\n"
        "os.makedirs('d')\n"
    )
    assert publish_steps_outside_publish(source) == [
        "cmd_x: os.replace (line 6)",
        "cmd_y: tempfile.mkstemp (line 8)",
        "cmd_y: write_manifest (line 9)",
        "<module>: os.makedirs (line 10)",
    ]


def test_checker_leaves_other_replaces_alone():
    source = "def build(cfg):\n    return dataclasses.replace(cfg), 'a'.replace('a', 'b')\n"
    assert publish_steps_outside_publish(source) == []


def test_cli_publishes_only_through_publish():
    assert publish_steps_outside_publish(CLI.read_text(encoding="utf-8")) == []
