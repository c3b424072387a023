"""The traced benchmark run wraps library entry points by name.

``perfbench/tracing.py`` lists them in ``LAYERS`` as ``(module, path)``
pairs; a renamed or deleted entry point would only surface when
``perfbench/run.py --trace 1`` crashes.  This test reads ``LAYERS`` from the
source (without importing or executing the tracer) and checks that every
entry still resolves the way ``Tracer.install`` looks it up.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


def _layers() -> dict[str, tuple[tuple[str, str], ...]]:
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    for node in tree.body:
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "LAYERS"
            and node.value is not None
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACING}")


ENTRIES = [
    (layer, module, path)
    for layer, entries in sorted(_layers().items())
    for module, path in entries
]


def test_layers_table_is_not_empty():
    assert ENTRIES


@pytest.mark.parametrize(
    "layer,module,path", ENTRIES, ids=[f"{m}:{p}" for _, m, p in ENTRIES]
)
def test_traced_entry_point_resolves(layer, module, path):
    owner = importlib.import_module(module)
    if "." in path:
        # Methods are patched on the class that defines them.
        class_name, attr = path.split(".")
        owner = getattr(owner, class_name)
        assert attr in vars(owner), f"{layer}: {module}.{path} is not defined on the class"
        assert callable(vars(owner)[attr])
    else:
        assert callable(getattr(owner, path, None)), f"{layer}: {module}.{path} is gone"
