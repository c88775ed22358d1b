import ast
import sys
from pathlib import Path

# numpy is the one runtime dependency and pytest and hypothesis the test extra; a package that is
# merely installed alongside (scipy, sympy, mpmath) would pass here and fail on a fresh install.
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "pytest", "hypothesis", "bosonsim", "conftest"}
ROOT = Path(__file__).resolve().parent.parent


def _imported_packages(path: Path):
    """Top-level package of every absolute import in a module, at any depth (inside functions too)."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_imports_only_declared_dependencies():
    modules = sorted((ROOT / "src" / "bosonsim").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(modules) > 10
    foreign = {f"{path.relative_to(ROOT)}: {name}" for path in modules for name in _imported_packages(path) if name not in ALLOWED}
    assert not foreign
