"""Every module of qorbits uses each name it imports: no linter runs on the
package, and a name left imported after its last use is gone would
otherwise stay unnoticed."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qorbits"


def unused_imports(source: str) -> list[str]:
    """The names an import binds in source that no other node reads,
    sorted; __future__ imports bind nothing."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_a_name_left_imported():
    source = "from .hamiltonian import BRANCH_SNAP, branch_sign\nimport numpy as np\nnp.sign(branch_sign(0))\n"
    assert unused_imports(source) == ["BRANCH_SNAP"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names to re-export them
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path.read_text()))
    }
    assert not unused, f"imported but never used: {unused}"
