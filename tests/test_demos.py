"""Every covcusum name a demo uses exists.

The demos take too long to run in the test suite, so they are parsed
instead: each name imported from ``covcusum`` and each attribute read from
an imported ``covcusum`` module must exist.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _resolve(module_name, attr):
    module = importlib.import_module(module_name)
    if hasattr(module, attr):
        return getattr(module, attr)
    try:  # a submodule that the package does not import itself
        return importlib.import_module(f"{module_name}.{attr}")
    except ModuleNotFoundError:
        raise AssertionError(f"{module_name} has no {attr!r}") from None


def _chain(node):
    """``a.b.c`` as ["a", "b", "c"], or None if it does not start at a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + parts[::-1]


def _checked_names(path):
    """Check the demo at ``path``; return the dotted names it checked."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}  # local name -> covcusum module object
    checked = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "covcusum":
            for alias in node.names:
                obj = _resolve(node.module, alias.name)
                checked.append(f"{node.module}.{alias.name}")
                if isinstance(obj, types.ModuleType):
                    bound[alias.asname or alias.name] = obj
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "covcusum":
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        bound[alias.asname] = module
                    else:
                        bound["covcusum"] = importlib.import_module("covcusum")
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if not chain or chain[0] not in bound:
            continue
        obj = bound[chain[0]]
        for i, attr in enumerate(chain[1:], start=1):
            if not isinstance(obj, types.ModuleType):
                break
            assert hasattr(obj, attr), f"{path.name}: {'.'.join(chain[:i + 1])} does not exist"
            obj = getattr(obj, attr)
            checked.append(".".join(chain[:i + 1]))
    return checked


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_uses_only_existing_covcusum_names(path):
    assert _checked_names(path), f"{path.name} uses no covcusum name"
