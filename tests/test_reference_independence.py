"""The reference executor must not share the engine's executor or kernels.

``tests/reference.py`` is the oracle the differential tests compare the
engine with. If it imported the physical operators, the fragment
scheduler or the vector kernels, a fault there would show up on both sides
of every comparison and pass. This reads its imports with ``ast``.
"""

import ast
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.py")
FORBIDDEN_MODULES = ("repro.core.physical", "repro.core.scheduler")
FORBIDDEN_NAME_PREFIXES = ("compile_batch_", "_vector_")


def imports(tree):
    """``(module, name)`` per imported name (``name`` None for ``import m``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                yield module, alias.name


def forbidden(module, name):
    full = f"{module}.{name}" if name else module
    if any(
        full == banned or full.startswith(banned + ".") for banned in FORBIDDEN_MODULES
    ):
        return True
    return name is not None and name.startswith(FORBIDDEN_NAME_PREFIXES)


def test_reference_imports_no_engine_executor_or_kernels():
    tree = ast.parse(REFERENCE.read_text())
    found = list(imports(tree))
    assert found, "the reference module imports nothing?"
    offending = [(module, name) for module, name in found if forbidden(module, name)]
    assert offending == []


def test_guard_rejects_the_engine_modules_and_kernels():
    samples = [
        "from repro.core.physical import HashJoinExec",
        "import repro.core.scheduler",
        "from repro.core import physical",
        "from repro.core.expressions import compile_batch_expression",
        "from repro.core.expressions import _vector_case",
    ]
    for source in samples:
        assert any(
            forbidden(module, name) for module, name in imports(ast.parse(source))
        ), source
