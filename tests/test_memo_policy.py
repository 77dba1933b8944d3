"""One memo policy: a memo in the package is a bounded lru_cache.  An
unbounded memo (functools.cache, or lru_cache(maxsize=None)) on a function
that takes arguments grows for the life of the process; one on a function
without arguments holds a single value and is allowed.  The per-modulus
tables are bounded in bytes too: they go only through numcore.table_memo,
which memoises none above MEMO_MAX_ENTRIES entries and holds at most
MEMO_MAX_BYTES, so the modules that build them (characters, expsums) use
no functools memo at all."""

import ast
import pathlib

import numpy as np
import pytest

from deltasum.characters import discrete_log_table, unit_roots
from deltasum.expsums import kloosterman, units_and_inverses
from deltasum.numcore import MEMO_MAX_BYTES, MEMO_MAX_ENTRIES, table_memo

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


FUNCTOOLS_MEMOS = {"lru_cache", "cache", "cached_property"}


def _functools_memos(tree):
    """Every use of a functools memo in a module, as source text."""
    return [ast.unparse(node) for node in ast.walk(tree) if _name(node) in FUNCTOOLS_MEMOS]


@pytest.mark.parametrize("module", ["characters.py", "expsums.py"])
def test_per_modulus_tables_go_only_through_table_memo(module):
    # an lru_cache counts entries, not bytes: 64 tables of (p - 1) p / 2
    # complex values hold about 4.6 GB at p = 3001
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert _functools_memos(tree) == []


def test_functools_memo_check_sees_decorators_and_wrappers():
    tree = ast.parse("@functools.lru_cache(maxsize=64)\ndef a(p): pass\n"
                     "@cache\ndef b(p): pass\n"
                     "c = lru_cache(8)(len)\n"
                     "@table_memo\ndef d(p): pass\n")
    assert sorted(_functools_memos(tree)) == ["cache", "functools.lru_cache", "lru_cache"]


# The per-modulus tables go through numcore.table_memo, which keeps only
# tables of at most MEMO_MAX_ENTRIES entries.

def _held_bytes(table):
    """Bytes of the arrays a table_memo holds, read off the dict in its
    closure (each value is an array or a tuple of arrays); it must agree
    with the memo's own count."""
    (memo,) = [cell.cell_contents for cell in table.__closure__
               if isinstance(cell.cell_contents, dict)]
    held = 0
    for value in memo.values():
        for item in value if isinstance(value, tuple) else (value,):
            held += item.nbytes
    assert table.cache_info().nbytes == held
    return held


@pytest.mark.parametrize("table", [unit_roots, units_and_inverses, discrete_log_table])
def test_table_memo_keeps_small_tables_only(table):
    table.cache_clear()
    assert table(1009) is table(1009)
    if table is not discrete_log_table:  # character moduli stay below 10**6 < 2**20
        n = MEMO_MAX_ENTRIES + 1
        built = table(n)
        assert table(n) is not built
        assert table.cache_info().currsize == 1


def test_large_sums_leave_the_table_memos_small():
    tables = (unit_roots, units_and_inverses)
    for table in tables:
        table.cache_clear()
    kloosterman(1, 1, 1009)
    small = 16 * 1009 + 2 * 8 * 1008  # the roots mod 1009, and its units and inverses
    assert sum(map(_held_bytes, tables)) == small
    # moduli near 10**7 with few units, so that each sum takes about a second;
    # without the size limit they leave about 557 MB of tables in the two memos
    for c in (9699690, 9729720, 9999990):
        kloosterman(1, 1, c)
    assert sum(map(_held_bytes, tables)) == small


def test_table_memo_holds_at_most_its_byte_bound():
    # eight tables of 2**20 complex entries, 16 MiB each: 128 MiB unbounded
    roots = table_memo(lambda n: np.ones(n, dtype=np.complex128))
    first = roots(MEMO_MAX_ENTRIES - 7)
    for n in range(MEMO_MAX_ENTRIES - 7, MEMO_MAX_ENTRIES + 1):
        assert roots(n) is roots(n)
        assert _held_bytes(roots) <= MEMO_MAX_BYTES
    assert roots.cache_info().currsize == MEMO_MAX_BYTES // (16 << 20)
    assert roots(MEMO_MAX_ENTRIES - 7) is not first  # the oldest went first
    assert roots.cache_info().misses == 9  # eight builds, and the rebuild of the first
    roots.cache_clear()
    assert roots.cache_info() == (0, 256, 0, 0)


def test_table_memo_under_concurrent_eviction():
    # more threads than cores, 400 distinct tables against the 256 bound, and
    # a short switch interval: every call gets its own table, and the count of
    # bytes held still matches what the memo holds
    import sys
    import threading

    memo = table_memo(lambda n: np.full(n, n, dtype=np.int64))
    wrong = []

    def worker(seed):
        for i in range(1200):
            n = 1 + (seed * 7919 + i * 104729) % 400
            if not (memo(n).size == n and memo(n)[0] == n):
                wrong.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert memo.cache_info().currsize <= 256
    _held_bytes(memo)  # asserts that the memo's count matches its contents
