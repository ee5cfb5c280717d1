"""Every name imported by a package module or a test module is used in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [
    path
    for folder in (ROOT / "src" / "goursat", ROOT / "tests")
    for path in sorted(folder.glob("*.py"))
    if path.name != "__init__.py"
]


def unused_imports(source):
    """Names bound by import statements in source that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_unused_imports_sees_plain_dotted_and_from_imports():
    source = "import os\nimport a.b\nfrom c import d, e as f\na.b.g(d)\n"
    assert unused_imports(source) == ["f", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
