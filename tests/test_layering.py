"""The kernel modules compute; only suites, scan and cli sweep, report and
parse.  A kernel that imports from those layers is a layering fault."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "deltasum"
KERNELS = ("numcore", "characters", "expsums", "oscillatory", "exponent")
UPPER = {"scan", "suites", "cli"}


def _imported_modules(tree):
    """Names of the package modules a module imports, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from .x import y / from . import x
                if node.module:
                    yield node.module.split(".")[0]
                else:
                    yield from (alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "deltasum":
                parts = node.module.split(".")
                if len(parts) > 1:
                    yield parts[1]
                else:
                    yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "deltasum" and len(parts) > 1:
                    yield parts[1]


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernels_import_no_upper_layer(kernel):
    tree = ast.parse((PACKAGE / f"{kernel}.py").read_text(encoding="utf-8"))
    assert not set(_imported_modules(tree)) & UPPER


def test_layering_check_sees_relative_imports():
    tree = ast.parse("from .scan import ScanReport\nfrom . import suites\n"
                     "def f():\n    from deltasum.cli import main\n")
    assert set(_imported_modules(tree)) == UPPER


# Kernels compute, suites sweep: the suites transform nothing and build no
# unit-group table; a screen they need lives in expsums with its error bound.
TABLE_BUILDERS = {"character_rows", "units_and_inverses", "discrete_log_table"}


def _kernel_work(tree):
    """np.fft uses and table-builder names in a module, as source text."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            yield ast.unparse(node)
        elif isinstance(node, ast.Attribute) and node.attr in TABLE_BUILDERS:
            yield node.attr
        elif isinstance(node, ast.Name) and node.id in TABLE_BUILDERS:
            yield node.id
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.fft"):
            yield node.module
        elif isinstance(node, ast.alias) and node.name in TABLE_BUILDERS | {"fft"}:
            yield node.name


def test_suites_run_no_transform_and_build_no_table():
    tree = ast.parse((PACKAGE / "suites.py").read_text(encoding="utf-8"))
    assert list(_kernel_work(tree)) == []


def test_kernel_work_check_sees_transforms_and_table_builders():
    tree = ast.parse("import numpy as np\nfrom numpy import fft\nfrom numpy.fft import ifft\n"
                     "from .expsums import units_and_inverses\n"
                     "def f(M):\n    _, inv = expsums.units_and_inverses(M)\n"
                     "    rows = character_rows(M, [1])\n"
                     "    return np.fft.ifft(discrete_log_table(M)[inv] * rows)\n")
    assert sorted(set(_kernel_work(tree))) == [
        "character_rows", "discrete_log_table", "fft", "np.fft", "numpy.fft",
        "units_and_inverses"]


# Suites only judge: every route a suite compares and every error bound is
# a kernel function, so suites name no rounding constant, root table,
# gather or reduction, and cli renders the ExpSumValues it is given.
SUITE_FORBIDDEN = {"UNIT_EPS", "SCREEN_SLACK", "TRANSFORM_EPS", "unit_roots",
                   "kloosterman_terms", "fsum_rows", "gauss_sum", "ExpSumValue"}


def _named(tree, names):
    """(top-level definition, name) for every name, attribute or import of
    names; module-level statements count as "<module>"."""
    for top in tree.body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in names:
                yield where, name


def _constructs(tree, cls):
    """The top-level definitions that call cls, by name or attribute."""
    found = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and cls in (getattr(node.func, "id", None),
                                                      getattr(node.func, "attr", None)):
                found.add(getattr(top, "name", "<module>"))
    return sorted(found)


def test_suites_name_no_error_bound_table_or_reduction():
    tree = ast.parse((PACKAGE / "suites.py").read_text(encoding="utf-8"))
    assert sorted(set(_named(tree, SUITE_FORBIDDEN))) == []


def test_cli_constructs_no_exp_sum_value():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert _constructs(tree, "ExpSumValue") == []


def test_bound_checks_see_names_attributes_imports_and_calls():
    tree = ast.parse(
        "from .characters import unit_roots as roots\n"
        "from .expsums import ExpSumValue, fsum_rows\n"
        "def c1_case(c):\n"
        "    total = fsum_rows(expsums.kloosterman_terms([1], [1], c))[0]\n"
        "    return ExpSumValue(total, c, 4 * expsums.UNIT_EPS * c)\n"
        "def c2_case(chi):\n    return gauss_sum(chi) * roots(chi.modulus)[1]\n"
        "def suite_weil(phi):\n    return expsums.SCREEN_SLACK * phi, TRANSFORM_EPS\n"
        "def _gauss(g, q):\n    return expsums.ExpSumValue(g, q - 1, 4e-15 * q)\n"
        "def render(value):\n    return isinstance(value, ExpSumValue)\n")
    assert sorted(set(_named(tree, SUITE_FORBIDDEN))) == [
        ("<module>", "ExpSumValue"), ("<module>", "fsum_rows"), ("<module>", "unit_roots"),
        ("_gauss", "ExpSumValue"), ("c1_case", "ExpSumValue"), ("c1_case", "UNIT_EPS"),
        ("c1_case", "fsum_rows"), ("c1_case", "kloosterman_terms"), ("c2_case", "gauss_sum"),
        ("render", "ExpSumValue"), ("suite_weil", "SCREEN_SLACK"),
        ("suite_weil", "TRANSFORM_EPS")]
    assert _constructs(tree, "ExpSumValue") == ["_gauss", "c1_case"]


# The window integral takes its transcendentals from libm: numpy's exp, cos,
# ... may take a SIMD kernel whose last bit differs with the CPU (np.exp
# differs from math.exp on about 4.6% of arguments in [-50, 0] under
# AVX-512), which would tie the integral's pinned bits to the host.
# np.sqrt is correctly rounded at every level and may stay.
NUMPY_TRANSCENDENTALS = {"exp", "exp2", "expm1", "log", "log2", "log10", "log1p",
                         "cos", "sin", "tan", "cosh", "sinh", "tanh", "arccos",
                         "arcsin", "arctan", "arctan2", "power", "float_power"}


def _numpy_transcendentals(tree):
    """np.<f>/numpy.<f> uses and `from numpy import <f>` for every listed f."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in NUMPY_TRANSCENDENTALS
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            yield ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            yield from (f"{node.module}.{alias.name}" for alias in node.names
                        if alias.name in NUMPY_TRANSCENDENTALS)


def test_oscillatory_calls_no_numpy_transcendental():
    tree = ast.parse((PACKAGE / "oscillatory.py").read_text(encoding="utf-8"))
    assert list(_numpy_transcendentals(tree)) == []


def test_transcendental_check_sees_attributes_and_imports():
    tree = ast.parse("import numpy as np\nfrom numpy import cos, sqrt\n"
                     "def f(y):\n    return np.exp(y) * numpy.power(y, 2) + math.sin(1.0)"
                     " + np.sqrt(y) + cos(y)\n")
    assert sorted(_numpy_transcendentals(tree)) == ["np.exp", "numpy.cos", "numpy.power"]


# One reduction rule: every reported sum in expsums is an fsum (fsum_rows)
# of its summands.  No numpy or builtin sum reduces a value, and no float or
# complex accumulator adds terms one by one.
SUM_CALLS = {"sum", "np.add.reduce", "numpy.add.reduce"}


def _bindings(target, value):
    """(name, value node or None) for every name an assignment binds."""
    if isinstance(target, ast.Name):
        yield target.id, value
    elif isinstance(target, (ast.Tuple, ast.List)):
        values = value.elts if isinstance(value, (ast.Tuple, ast.List)) else None
        for t, v in zip(target.elts, values or [None] * len(target.elts)):
            yield from _bindings(t, v)


def _other_reductions(tree):
    """(top-level definition, what) for every sum-family call (builtin sum,
    np.sum, .sum(), np.add.reduce) and every += onto a name that was first
    bound to a float or complex literal."""
    for top in tree.body:
        where = getattr(top, "name", "<module>")
        first = {}
        nodes = [n for n in ast.walk(top)
                 if isinstance(n, (ast.Assign, ast.AugAssign, ast.For, ast.Call))]
        for node in sorted(nodes, key=lambda n: (n.lineno, n.col_offset)):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if name in SUM_CALLS or getattr(node.func, "attr", None) == "sum":
                    yield where, name
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name, value in _bindings(target, node.value):
                        first.setdefault(name, value)
            elif isinstance(node, ast.For):
                for name, _ in _bindings(node.target, None):
                    first.setdefault(name, None)
            elif isinstance(node.op, ast.Add) and isinstance(node.target, ast.Name):
                value = first.get(node.target.id)
                if isinstance(value, ast.Constant) and isinstance(value.value, (float, complex)):
                    yield where, f"{node.target.id} +="


def test_expsums_reduces_every_sum_by_fsum():
    tree = ast.parse((PACKAGE / "expsums.py").read_text(encoding="utf-8"))
    assert sorted(set(_other_reductions(tree))) == []


def test_reduction_check_sees_sum_calls_and_literal_accumulators():
    tree = ast.parse(
        "import numpy as np\n"
        "def pairwise(x):\n    return x.sum() + np.sum(x) + sum(x.tolist())\n"
        "def reduce(x):\n    return np.add.reduce(x)\n"
        "def loop(rows, xs):\n"
        "    roots, total = rows, 0j\n"
        "    est = count = 0.0\n"
        "    for r in rows:\n        total += r\n        est += 1e-15\n        count += 1\n"
        "    idx = np.zeros(3)\n    idx += xs\n    n = 0\n    n += 1\n"
        "    for acc in rows:\n        acc += 1.0\n"
        "    return fsum_rows(np.array([rows]))[0], np.cumsum(xs)\n"
        "def rebound():\n    total = 1\n    total = 0.0\n    total += 2.0\n")
    assert sorted(set(_other_reductions(tree))) == [
        ("loop", "count +="), ("loop", "est +="), ("loop", "total +="),
        ("pairwise", "np.sum"), ("pairwise", "sum"), ("pairwise", "x.sum"),
        ("reduce", "np.add.reduce")]
