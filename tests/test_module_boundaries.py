"""Each covcusum module keeps its private names, and ``limits`` alone builds random streams."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "covcusum"
# The only functions that may name numpy's seeding and bit-generator classes.
STREAM_OWNERS = {("limits", "stream"), ("limits", "child_seed")}


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _trespasses(path):
    """Lines of ``path`` that read another covcusum module's private name, or
    name ``SeedSequence`` or ``Philox`` outside ``STREAM_OWNERS``."""
    tree = ast.parse(path.read_text())
    siblings = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
                for a in node.names}
    owned = {id(n) for node in tree.body if isinstance(node, ast.FunctionDef)
             and (path.stem, node.name) in STREAM_OWNERS for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            found += [f"{node.lineno}: imports {node.module}.{a.name}"
                      for a in node.names if _private(a.name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in siblings and _private(node.attr)):
            found.append(f"{node.lineno}: reads {node.value.id}.{node.attr}")
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if name in ("SeedSequence", "Philox") and id(node) not in owned:
            found.append(f"{node.lineno}: builds a stream with {name}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_reads_and_streams_only_in_limits(path):
    assert _trespasses(path) == []
