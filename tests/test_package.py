import ast
import sys
from pathlib import Path

import mixrrm

SRC = Path(__file__).resolve().parent.parent / "src" / "mixrrm"


def test_every_export_resolves():
    for name in mixrrm.__all__:
        assert getattr(mixrrm, name) is not None, name


def test_runtime_imports_are_numpy_and_stdlib():
    """numpy is the package's only runtime dependency."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "mixrrm"}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"
