"""Generated files stay out of version control; no import goes unused;
importing the CLI loads no introspection module; the package's caches are
exactly the listed ones, and clear_caches leaves none of them filled; no
private module-level name in the package goes unread, nor any function or
method outside the listed ones; only exact reads an XPoly's storage."""

import ast
import importlib
import os
import pkgutil
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pqpoly
from pqpoly.families import ROUTES_BY_FAMILY
from pqpoly.identities import SuiteConfig, run_all
from pqpoly.pqcalc import PQParams

ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(
        ["git", "-C", str(ROOT), *args],
        capture_output=True,
        text=True,
        check=False,
    )


def test_no_tracked_file_matches_gitignore():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout of this project")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""


def _unused_imports(path):
    """Imported names that `path` never reads and does not list in __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported, used, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for name, line in imported.items()
        if name not in used and name not in exported
    ]


def test_no_unused_imports():
    paths = [
        *sorted(ROOT.glob("src/pqpoly/*.py")),
        *sorted(ROOT.glob("tests/*.py")),
    ]
    assert paths
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert unused == []


# every CLI run pays for its imports; dataclasses alone pulls in inspect,
# ast, dis and tokenize, which none of pqpoly needs
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cli_import_loads_no_introspection_module():
    probe = (
        "import sys, pqpoly.cli; "
        f"print(' '.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def _package_caches():
    """Every lru_cache bound at module level anywhere in pqpoly."""
    caches = {}
    for info in pkgutil.iter_modules(pqpoly.__path__):
        if info.name.startswith("__"):
            continue  # __main__ runs the CLI when imported
        module = importlib.import_module(f"pqpoly.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                caches[f"{value.__module__}.{value.__qualname__}"] = value
    return caches


# every lru_cache in the package; adding or removing one edits this list
PACKAGE_CACHES = {
    "pqpoly.exact._factorials",
    "pqpoly.pqcalc.pq_integer",
    "pqpoly.sequences._power_table",
    "pqpoly.sequences.stirling2",
    "pqpoly.sequences.stirling1_unsigned",
    "pqpoly.sequences.weighted_stirling2",
    "pqpoly.sequences.weighted_stirling1",
    "pqpoly.sequences._bernoulli_column",
    "pqpoly.sequences._frobenius_column",
    "pqpoly.sequences.bernoulli_order",
    "pqpoly.families._inner_rows",
    "pqpoly.families._polylog_column",
    "pqpoly.families._two_over_exp_plus_one",
    "pqpoly.families._euler_column",
    "pqpoly.families.poly_euler",
    "pqpoly.families.bernoulli_via_gf",
    "pqpoly.families._stirling_weight",
    "pqpoly.families._integral_appell_column",
    "pqpoly.families.cauchy1_via_gf",
    "pqpoly.families.cauchy2_via_gf",
    "pqpoly.identities._euler_poly_at",
    "pqpoly.identities._classical_euler_shifted",
    "pqpoly.identities._ws1_neg_x",
    "pqpoly.identities._inner_cauchy1",
    "pqpoly.identities._inner_cauchy2",
    "pqpoly.identities._inner_bernoulli",
    "pqpoly.identities._tid3_inner",
    "pqpoly.identities._tid4_weight",
    "pqpoly.identities._tid4_frobenius_euler",
    "pqpoly.identities._cross_rhs_coeffs",
}


def test_package_caches_are_the_listed_ones():
    assert set(_package_caches()) == PACKAGE_CACHES


def test_clear_caches_empties_every_cache():
    params = PQParams(Fraction(1, 2), Fraction(1, 3))
    run_all(SuiteConfig(n_max=3, k_values=(1,), param_points=(params,)))
    caches = _package_caches()
    filled = {name for name, cache in caches.items() if cache.cache_info().currsize}
    assert len(filled) > len(caches) // 2, filled
    pqpoly.clear_caches()
    assert {
        name for name, cache in caches.items() if cache.cache_info().currsize
    } == set()


def _top_level_names(node):
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    else:
        targets = [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _names_read(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_private_module_name_has_a_reader():
    # a helper whose last caller went away lingers unnoticed otherwise;
    # reads inside the helper's own definition do not count
    statements = []
    for path in sorted(ROOT.glob("src/pqpoly/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        statements += [(path, node, _names_read(node)) for node in tree.body]
    assert statements

    def read_elsewhere(name, node):
        return any(
            name in names for _, other, names in statements if other is not node
        )

    unread = [
        f"{path.relative_to(ROOT)}:{node.lineno} {name}"
        for path, node, _ in statements
        for name in _top_level_names(node)
        if name.startswith("_") and not name.startswith("__")
        if not read_elsewhere(name, node)
    ]
    assert unread == []


# each function or method that no package code, route table entry or
# benchmark span reads, and why it stays
UNREAD_KEPT = {
    "pqpoly.clear_caches": "the one way a library caller empties the caches",
    "pqpoly.exact.rational_from_printed": (
        "reads gen's values back past the digit limit rational_from_str keeps"
    ),
    "pqpoly.identities.IdentityReport.vacuous": (
        "tells a library caller that a report checked no cell"
    ),
    "pqpoly.identities.eucls_tail_term": "criterion 4's truncation tail",
    "pqpoly.identities.tid1_tail_term": "criterion 4's truncation tail",
    "pqpoly.identities.tid2_tail_term": "criterion 4's truncation tail",
}


def _span_names():
    """pqpoly.<module>[.<class>].<attribute> of each span the benchmark's
    tracer installs, read off its SPANS table without importing it."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    spans = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["SPANS"]
    )
    return {
        ".".join(["pqpoly", module, *([cls] if cls else []), attr])
        for _, module, cls, attr in ast.literal_eval(spans)
    }


def test_every_function_and_method_has_a_reader():
    # a public function or method whose last caller in the package went
    # away is test-only code; a method counts as read only where an
    # attribute of that name is, and reads inside its own definition do
    # not count
    defs, trees = [], []
    for path in sorted(ROOT.glob("src/pqpoly/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        trees.append(tree)
        module = "pqpoly" if path.stem == "__init__" else f"pqpoly.{path.stem}"
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            owner = [node.name] if isinstance(node, ast.ClassDef) else []
            defs += [
                (".".join([module, *owner, sub.name]), sub, bool(owner))
                for sub in members
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                if not (sub.name.startswith("__") and sub.name.endswith("__"))
            ]
    assert defs
    read_by_name = _span_names() | {
        f"pqpoly.families.{name}"
        for table in ROUTES_BY_FAMILY.values()
        for name in table.values()
    }

    def read_in_package(name, node, method):
        own = {id(sub) for sub in ast.walk(node)}
        return any(
            id(sub) not in own
            and (
                isinstance(sub, ast.Attribute) and sub.attr == name
                or not method
                and isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)
                and sub.id == name
            )
            for tree in trees
            for sub in ast.walk(tree)
        )

    unread = {
        qualname
        for qualname, node, method in defs
        if qualname not in read_by_name
        if not read_in_package(node.name, node, method)
    }
    assert unread == set(UNREAD_KEPT)


# XPoly's two storage forms and the method that forms the int one
XPOLY_STORAGE = {"_num", "_den", "_fracs", "_ints"}


def test_only_exact_reads_xpoly_storage():
    # every other module goes through XPoly's public methods, so the
    # storage forms can change in exact alone
    reads = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.attr}"
        for path in sorted(ROOT.glob("src/pqpoly/*.py"))
        if path.name != "exact.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in XPOLY_STORAGE
    ]
    assert reads == []
