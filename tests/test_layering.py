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
