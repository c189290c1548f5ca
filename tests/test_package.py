import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mixrrm"


def test_every_export_resolves():
    """In a child process, where no earlier test has imported a submodule."""
    loop = ("import mixrrm\n"
            "for name in mixrrm.__all__:\n"
            "    assert getattr(mixrrm, name) is not None, name\n")
    proc = subprocess.run([sys.executable, "-c", loop], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              [str(SRC.parent), os.environ.get("PYTHONPATH", "")])})
    assert proc.returncode == 0, proc.stderr


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
