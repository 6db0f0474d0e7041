"""Each covcusum module keeps its private names, ``limits`` alone builds random streams,
names the critical-value methods, memoizes and converts arrays to float, one function alone
starts pools, no module starts a thread, and none loads OpenSSL."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "covcusum"
# The only functions that may name numpy's seeding and bit-generator classes.
STREAM_OWNERS = {("limits", "stream"), ("limits", "child_seed")}
# The only functions that may name the executors of concurrent.futures.
POOL_OWNERS = {("limits", "process_map")}
# How a critical value is reached: ``limits.NullLaw`` alone decides it for a kind.
METHODS = ("corrected", "exact-mc")


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _named_outside(tree, stem, names, owners):
    """(line, name) of each node of ``tree`` that names one of ``names``
    outside the functions ``owners`` of module ``stem``."""
    owned = {id(n) for node in tree.body if isinstance(node, ast.FunctionDef)
             and (stem, node.name) in owners for n in ast.walk(node)}
    return [(node.lineno, name) for node in ast.walk(tree) if id(node) not in owned
            and (name := getattr(node, "attr", None) or getattr(node, "id", None)
                 or getattr(node, "module", None)
                 or (node.name if isinstance(node, ast.alias) else None)) in names]


def _trespasses(path):
    """Lines of ``path`` that read another covcusum module's private name, or
    name ``SeedSequence`` or ``Philox`` outside ``STREAM_OWNERS``."""
    tree = ast.parse(path.read_text())
    siblings = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
                for a in node.names}
    found = [f"{line}: builds a stream with {name}" for line, name in
             _named_outside(tree, path.stem, ("SeedSequence", "Philox"), STREAM_OWNERS)]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            found += [f"{node.lineno}: imports {node.module}.{a.name}"
                      for a in node.names if _private(a.name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in siblings and _private(node.attr)):
            found.append(f"{node.lineno}: reads {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_reads_and_streams_only_in_limits(path):
    assert _trespasses(path) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_pools_only_in_their_owners(path):
    pools = ("ThreadPoolExecutor", "ProcessPoolExecutor")
    assert _named_outside(ast.parse(path.read_text()), path.stem, pools, POOL_OWNERS) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_threads(path):
    threads = ("threading", "_thread", "ThreadPoolExecutor")
    assert _named_outside(ast.parse(path.read_text()), path.stem, threads, set()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_loads_openssl(path):
    # secrets and hashlib load OpenSSL's libcrypto, megabytes of resident memory that
    # a command drawing no stream does not need; an omitted seed comes from
    # random.SystemRandom, the generator that secrets wraps.
    openssl = ("secrets", "hashlib", "_hashlib")
    assert _named_outside(ast.parse(path.read_text()), path.stem, openssl, set()) == []


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem != "limits"),
                         ids=lambda p: p.name)
def test_method_names_only_in_limits(path):
    # A module that names a method has worked out the method from the kind by itself.
    tree = ast.parse(path.read_text())
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    assert [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in METHODS
            and id(node) not in docstrings] == []


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem != "limits"),
                         ids=lambda p: p.name)
def test_memos_only_in_limits(path):
    # Callers ask a law afresh; a memo of their own could outlive the one in limits.
    memos = ("lru_cache", "cache", "cached_property")
    assert _named_outside(ast.parse(path.read_text()), path.stem, memos, set()) == []


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem != "limits"),
                         ids=lambda p: p.name)
def test_float_conversions_only_in_limits(path):
    # An array argument is read by limits.real_array, which refuses a complex, non-numeric
    # or wrong-ndim array by name; np.asarray(x, dtype=float) takes a complex array's real part.
    assert [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("asarray", "array")
            and any(ast.unparse(dtype) in ("float", "np.float64") for dtype in
                    node.args[1:2] + [k.value for k in node.keywords if k.arg == "dtype"])] == []
