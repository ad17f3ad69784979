"""The library stands on exact hull geometry alone.

No library route reads quadrature nodes or weights: ``bodies`` imports
``hypcurv.quadrature`` only for the icosphere nodes of ``icosphere_body``,
and the package re-exports it; the tests read grids as oracles.  These tests
follow each module's package-relative imports, transitively or one step.
Hulls are built in two places only: ``bodies`` builds a body's hull, turns
its faces outward and builds the unoriented hull of a point set for its
area, and ``cells`` builds the hull of a support kernel.  ``bodies`` reads no
qhull facet equations: a body's facet planes come from its faces by one
formula (``bodies._face_planes``).  Every area comes from the Gauss-Bonnet
face areas of ``bodies``; the cell quadrature of ``cells.SupportKernel`` is
built only for the oracle ``curvature_measure_integral`` and, through
``ctransform.kernel_for``, the dual oracles, and ``crofton`` does not
import ``cells``.
"""

import ast
from pathlib import Path

import pytest

import hypcurv

PACKAGE = Path(hypcurv.__file__).resolve().parent


def _package_imports(module: str) -> set[str]:
    """Modules of the package that ``module`` imports directly."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("hypcurv."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("hypcurv."))
    return found


def _reached(module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        current = todo.pop()
        for name in _package_imports(current) - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_import_walk_sees_quadrature_where_it_is_used():
    assert "quadrature" in _package_imports("bodies")
    assert "quadrature" in _reached("solver")


def test_only_bodies_and_the_package_import_quadrature():
    importers = {path.stem for path in PACKAGE.glob("*.py")
                 if "quadrature" in _package_imports(path.stem)}
    assert importers == {"bodies", "__init__"}


@pytest.mark.parametrize("module", ["cells", "ctransform"])
def test_kernel_and_conjugacy_do_not_import_quadrature(module):
    assert "quadrature" not in _reached(module)


def test_only_bodies_and_cells_construct_hulls():
    builders = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "ConvexHull":
                    builders.add(path.stem)
    assert builders == {"bodies", "cells"}


def test_crofton_does_not_import_cells():
    assert "cells" not in _package_imports("crofton")


def test_support_kernels_are_built_only_for_the_oracles():
    builders = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        # ast.walk visits outer functions first, so a node keeps its innermost one
        owner = {node: f"{path.stem}.{function.name}"
                 for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
                 for node in ast.walk(function)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "SupportKernel":
                    builders.add(owner.get(node, path.stem))
    assert builders == {"bodies.curvature_measure_integral", "ctransform.kernel_for"}


def test_bodies_reads_no_facet_equations():
    tree = ast.parse((PACKAGE / "bodies.py").read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "equations"]
