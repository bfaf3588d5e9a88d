"""The oracle boundary: nothing under ``src/`` imports the test oracle."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class TestOracleBoundary:
    def test_src_does_not_import_the_test_oracle(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module or ""]
                else:
                    continue
                for module in modules:
                    if module == "tests" or module.startswith("tests."):
                        offenders.append(f"{path.relative_to(ROOT)}: {module}")
        assert offenders == []
