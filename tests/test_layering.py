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
