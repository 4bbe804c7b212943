"""Static checks on the library source."""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "cmtype"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def imported_modules(tree: ast.Module) -> set[str]:
    """The modules the module's import statements name."""
    return {
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def imported_names(tree: ast.Module) -> set[str]:
    """The names the module's import statements bind (``__future__`` aside)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    # __init__.py is excluded: its imports are the package's re-exports
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported_names(tree) - used == set()


def defined_names(tree: ast.Module) -> set[str]:
    """The module's top-level functions, classes and assigned names, dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


@functools.cache
def referenced_names() -> frozenset[str]:
    """Every name read, attribute taken or import alias under src, tests, demos and bench."""
    names = set()
    for folder in ("src", "tests", "demos", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
    return frozenset(names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_name_is_referenced(path):
    # a helper, class or constant that a refactor leaves behind, read nowhere
    assert defined_names(ast.parse(path.read_text())) - referenced_names() == set()


def callers_of(name: str) -> set[str]:
    """``module.function`` for each function of the library that calls `name`
    (the innermost one), ``module`` for a call outside every function."""
    callers = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.partition('.')[0]}.{node.name}"
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        ):
            callers.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in SOURCE.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    return callers


def test_only_analyze_minimalizes():
    # `analyze` is the one place the pipeline is built: every other consumer
    # takes its Analysis, whose presentation is already minimal
    assert callers_of("minimalize_presentation") == {"invariants.analyze"}


@pytest.mark.parametrize(
    "name", ["groebner.py", "invariants.py", "singularity.py", "families.py", "drozd_roiter.py"]
)
def test_coefficient_representation_stays_in_poly(name):
    # int or Fraction is decided behind Polynomial: these modules read the
    # primitive integer map and the scale, never a coefficient's denominator
    tree = ast.parse((SOURCE / name).read_text())
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "fractions" not in imported_modules(tree) and "denominator" not in attributes


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "poly.py"], ids=lambda p: p.name)
def test_only_poly_clears_denominators_or_splits_a_scale(path):
    # a form is read as its integer map and its scale, and poly alone lays
    # forms over a common denominator: no other module clears a term map
    # of rationals or takes a scale apart into numerator and denominator
    tree = ast.parse(path.read_text())
    functions = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    called = {getattr(f, "id", getattr(f, "attr", None)) for f in functions}
    parts = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    split = [
        node for node in parts
        if node.attr in ("numerator", "denominator")
        and getattr(node.value, "attr", getattr(node.value, "id", None)) == "scale"
    ]
    assert "cleared" not in called and not split


def test_minors_touch_no_fraction():
    # the minor kernel reads each form as an integer map and a denominator
    # and expands over ints; a Fraction there is the cost it was rid of
    tree = ast.parse((SOURCE / "poly.py").read_text())
    (body,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "minors"]
    assert "Fraction" not in {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}


def test_division_loop_builds_no_tuple_and_no_fraction():
    # the division loop runs on packed monomials, one int each, and keeps its
    # scale as an integer numerator and denominator; an exponent tuple or a
    # Fraction there is the cost it was rid of
    tree = ast.parse((SOURCE / "groebner.py").read_text())
    (body,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "normal_form"]
    (loop,) = [node for node in ast.walk(body) if isinstance(node, ast.While)]
    assert {"tuple", "Fraction"}.isdisjoint(node.id for node in ast.walk(loop) if isinstance(node, ast.Name))


def function_body(module: str, name: str, cls: str | None = None) -> ast.AST:
    """The definition of the module's top-level function, or of a method."""
    tree = ast.parse((SOURCE / module).read_text())
    if cls is not None:
        (tree,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == cls]
    (body,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    return body


def test_rendering_reads_the_integer_map():
    # each coefficient is the scale's numerator times an int over the scale's
    # denominator, in lowest terms by one gcd; a Fraction per term, or the
    # Fraction term view, is the cost it was rid of
    for body in (
        function_body("presentation.py", "render_polynomial"),
        function_body("poly.py", "descending_terms", cls="Polynomial"),
    ):
        names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
        attributes = {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
        assert "Fraction" not in names and {"terms", "sorted_terms"}.isdisjoint(attributes)


def test_standard_monomial_count_builds_no_tuple():
    # the Hilbert-bound count tests divisibility on packed monomials against
    # the set's packed leads; an exponent tuple there is the cost it was rid of
    body = function_body("groebner.py", "_standard_monomials")
    names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    loops = [node for node in ast.walk(body) if isinstance(node, (ast.For, ast.ListComp, ast.GeneratorExp))]
    built = [node for loop in loops for node in ast.walk(loop) if isinstance(node, ast.Tuple)]
    assert not built and {"tuple", "le", "map", "monomial_divides"}.isdisjoint(names)


def test_echelon_touches_no_fraction():
    # the echelon keeps primitive integer rows and reduces by
    # cross-multiplication; a Fraction row is the cost it was rid of
    tree = ast.parse((SOURCE / "linalg.py").read_text())
    (body,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Echelon"]
    assert "Fraction" not in {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # every command pays the import: a dataclass execs generated methods when
    # its module loads, and `dataclasses` itself pulls in inspect and ast
    assert "dataclasses" not in imported_modules(ast.parse(path.read_text()))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    probe = "import sys, cmtype.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
