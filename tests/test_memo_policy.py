"""One memo policy: a memo in the package is a bounded lru_cache.  An
unbounded memo (functools.cache, or lru_cache(maxsize=None)) on a function
that takes arguments grows for the life of the process; one on a function
without arguments holds a single value and is allowed."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "deltasum"


def _name(node):
    if isinstance(node, ast.Attribute):  # functools.cache
        return node.attr
    if isinstance(node, ast.Name):  # cache, after from functools import cache
        return node.id
    return None


def _unbounded(memo):
    """Whether the expression memo (a decorator, or what is called on a
    function) memoises without a bound."""
    if isinstance(memo, ast.Call) and _name(memo.func) == "lru_cache":
        size = memo.args[0] if memo.args else next(
            (kw.value for kw in memo.keywords if kw.arg == "maxsize"), None)
        return isinstance(size, ast.Constant) and size.value is None
    return _name(memo) == "cache"


def _takes_arguments(fn):
    a = fn.args
    return bool(a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg)


def _unbounded_memos(tree):
    """Names of the unbounded memos in a module: decorated functions that take
    arguments, and every function wrapped by a call (its signature is elsewhere)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _takes_arguments(node) and any(map(_unbounded, node.decorator_list)):
                yield node.name
        elif isinstance(node, ast.Call) and _unbounded(node.func):
            yield ast.unparse(node)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_memo_is_bounded(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert list(_unbounded_memos(tree)) == []


def test_memo_check_sees_every_unbounded_form():
    tree = ast.parse(
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.cache\ndef a(x): pass\n"
        "@cache\ndef b(*xs): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef c(*, x): pass\n"
        "@lru_cache(None)\ndef d(**kw): pass\n"
        "e = functools.lru_cache(maxsize=None)(len)\n"
        "f = cache(len)\n"
        "@functools.cache\ndef no_args(): pass\n"
        "@functools.lru_cache(maxsize=4)\ndef bounded(x): pass\n"
        "@functools.lru_cache\ndef default_bound(x): pass\n"
        "g = functools.lru_cache(maxsize=8)(len)\n")
    assert list(_unbounded_memos(tree)) == [
        "a", "b", "c", "d", "functools.lru_cache(maxsize=None)(len)", "cache(len)"]
