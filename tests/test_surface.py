"""The package's public surface is what its readers read.

Every public top-level function or class of a `src/threesq` module must be
read somewhere other than its own definition: in `src/`, `demos/`,
`perfbench/*.py` or `README.md`.  A read in Python is a name, an attribute
or an imported name, matched by name; in the README it is the name as a
word.  A re-export from `__init__.py` is no read, and there is none.  The
tests do not count, so a name that only they read is an oracle and lives
in the tests.  The names kept for another reason are listed in KEPT with
it.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import threesq

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "threesq"

KEPT = {
    "twosquares.window": "perfbench/tracer.py wraps it to trace the two-squares sieve",
    "twosquares.TwoSquaresWindow": "what twosquares.window returns",
    "lattice.PairCountTable.entries": "perfbench/tracer.py counts distinct t through it",
    "primes.spf_limit": "the benchmark worker records the prime-table size through it",
    "twosquares.rough_interval_check": "demos/06_two_squares_gaps.py reads it",
    "arith.majorant_general": "the paper's majorant at general n; the tests bound pair counts by it",
    "arith.local_density": "one prime's density; the tests hold it against a Fraction oracle",
    "spatial.CellPartition.diameter_bound": "the tests bound every cell's chord diameter by it",
}


def names_read(tree: ast.AST) -> set[str]:
    """Names, attributes and imported names anywhere in a tree."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def unread_names() -> set[str]:
    """module.name of every public top-level def or class nothing reads."""
    modules = {
        path.stem: ast.parse(path.read_text()).body
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    scripts = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    statements = [stmt for body in modules.values() for stmt in body]
    statements += [stmt for path in scripts for stmt in ast.parse(path.read_text()).body]
    # what each top-level statement reads; a definition is one of them
    reads = [(stmt, names_read(stmt)) for stmt in statements]
    readme = (ROOT / "README.md").read_text()
    unread = set()
    for module, body in modules.items():
        for stmt in body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
                continue
            if any(other is not stmt and stmt.name in names for other, names in reads):
                continue
            if not re.search(rf"\b{re.escape(stmt.name)}\b", readme):
                unread.add(f"{module}.{stmt.name}")
    return unread


def test_every_public_name_has_a_reader():
    unread = unread_names() - set(KEPT)
    assert not unread, f"public names nothing outside the tests reads: {sorted(unread)}"


def test_kept_names_exist():
    for dotted in KEPT:
        module, *path = dotted.split(".")
        value = importlib.import_module(f"threesq.{module}")
        for attr in path:
            value = getattr(value, attr)


def test_package_reexports_nothing():
    exported = [k for k, v in vars(threesq).items() if inspect.isfunction(v) or inspect.isclass(v)]
    assert exported == []
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
