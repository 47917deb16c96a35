"""Rules on the library source that no runtime test would notice breaking."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _unbounded_caches(tree: ast.AST) -> list[tuple[int, str]]:
    """Lines that make an unbounded cache: ``functools.cache`` or
    ``lru_cache(maxsize=None)``, however the name was imported."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "cache" and getattr(node.value, "id", None) == "functools":
            found.append((node.lineno, "functools.cache"))
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called != "lru_cache":
                continue
            size = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "maxsize"), None
            )
            if isinstance(size, ast.Constant) and size.value is None:
                found.append((node.lineno, "lru_cache(maxsize=None)"))
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, "functools.cache") for a in node.names if a.name == "cache"]
    return found


def test_no_module_under_src_makes_an_unbounded_cache():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    found = {
        str(path.relative_to(SRC)): hits
        for path in modules
        if (hits := _unbounded_caches(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


def test_the_cache_rule_sees_each_spelling():
    spellings = [
        "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): return x\n",
        "import functools\n@functools.lru_cache(None)\ndef f(x): return x\n",
        "from functools import cache\n@cache\ndef f(x): return x\n",
        "import functools\n@functools.cache\ndef f(x): return x\n",
    ]
    for text in spellings:
        assert _unbounded_caches(ast.parse(text)), text
    bounded = "import functools\n@functools.lru_cache(maxsize=4)\ndef f(x): return x\n"
    assert _unbounded_caches(ast.parse(bounded)) == []
