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
