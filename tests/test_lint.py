"""Static guard against imported names that a module never uses.

No linter is part of the test toolchain, so this walks the syntax tree of
every ``src/mogpal`` module and every test module.  The package
``__init__`` (whose imports are re-exports), names listed in a module's
``__all__`` and imports on a line marked ``# noqa: F401`` (deliberate
re-exports, as in ``conftest.py``) are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in (ROOT / "src" / "mogpal").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names bound by an import in ``source`` and never referenced."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                # `import a.b` binds `a`
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    # attribute chains are rooted in a Name, so `np.linalg.x` marks `np`
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


def test_scanner_flags_only_unused_names():
    source = (
        "import os\n"
        "import numpy as np\n"
        "import scipy.linalg\n"
        "from dataclasses import dataclass, field\n"
        "from .errors import ConfigError\n"
        "from .kernels import as_tuple  # noqa: F401\n"
        "from .pitc import (\n"
        "    build_model,\n"
        "    sparse_cov,  # noqa: F401\n"
        ")\n"
        "__all__ = ['ConfigError']\n"
        "x = np.zeros(scipy.linalg.norm([1.0]))\n"
        "@dataclass\n"
        "class A:\n"
        "    pass\n"
    )
    assert unused_imports(source) == ["build_model", "field", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
